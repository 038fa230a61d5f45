//! The deterministic bench scenarios behind the CI gates.
//!
//! Each scenario runs one seed-fixed workload and reports it as a
//! [`BenchReport`]; [`SCENARIOS`] pairs it with the [`Check`]s every fresh
//! run must satisfy. `ci-check-bench gate <scenario> <baseline> <out>`
//! runs one scenario fresh and compares it with the committed
//! `results/BENCH_<scenario>.json` through [`crate::report::gate`].
//! Simulated-clock metrics derive from the virtual clock, so they are
//! byte-identical across machines and runs and the gate can fail on a >5%
//! regression without flakiness; host wall-clock timings are recorded as
//! [`Kind::Info`] and enter only the declared checks.

use medusa::{
    encode_maf2_bundle, materialize_offline, ArtifactTemplate, ArtifactValidator, ChunkStore,
    ColdStart, Maf2Reader, MaterializedState, Parallelism, Strategy,
};
use medusa_gpu::{CostModel, GpuSpec, SimDuration};
use medusa_model::ModelSpec;
use medusa_serving::{
    simulate_fleet, simulate_fleet_traced, CacheCapacity, CacheConfig, ClusterReport, ClusterSpec,
    EvictionPolicy, FleetProfile, ModelCost, Policy, PrewarmConfig, PrewarmPolicy, RegistryCatalog,
    RegistryMode,
};
use medusa_telemetry::Registry;
use medusa_workload::{ArrivalPattern, TraceConfig};

use crate::report::Kind::{Exact, Info};
use crate::report::{le, lt, BenchReport, Check, Kind, LOWER};

/// One CI bench scenario: how to run it and what every run must satisfy.
pub struct Scenario {
    /// Name: the `ci.sh --gate` name and the `results/BENCH_<name>.json`
    /// stem.
    pub name: &'static str,
    /// Runs the scenario fresh.
    pub run: fn() -> BenchReport,
    /// The invariants every fresh run must satisfy.
    pub checks: fn() -> Vec<Check>,
}

/// Every gated scenario.
pub static SCENARIOS: [Scenario; 7] = [
    Scenario {
        name: "coldstart",
        run: run_coldstart,
        checks: coldstart_checks,
    },
    Scenario {
        name: "cluster",
        run: run_cluster,
        checks: cluster_checks,
    },
    Scenario {
        name: "cluster_multitenant",
        run: run_cluster_mt,
        checks: cluster_mt_checks,
    },
    Scenario {
        name: "artifact",
        run: run_artifact,
        checks: artifact_checks,
    },
    Scenario {
        name: "scale",
        run: run_scale,
        checks: scale_checks,
    },
    Scenario {
        name: "policies",
        run: run_policies,
        checks: policies_checks,
    },
    Scenario {
        name: "registry",
        run: run_registry,
        checks: registry_checks,
    },
];

/// The scenario called `name`.
pub fn scenario(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// Catalog model every scenario runs (smallest — CI time matters).
pub const MODEL: &str = "Qwen1.5-0.5B";

/// The measured single-GPU fleet profile of `strategy` at `seed`.
fn fleet_profile(strategy: Strategy, seed: u64) -> FleetProfile {
    let spec = ModelSpec::by_name(MODEL).expect("catalog model");
    FleetProfile::measure(
        strategy,
        &spec,
        GpuSpec::a100_40gb(),
        CostModel::default(),
        1,
        Parallelism::Overlapped,
        seed,
    )
    .expect("fleet profile")
}

// ---------------------------------------------------------------------
// Cold start: the tp=2 loading makespan under each parallelism mode.

/// Tensor-parallel degree of the cold-start scenario.
pub const TP: u32 = 2;
/// Seed of the offline (materialization) phase.
pub const SEED_OFFLINE: u64 = 31;
/// Seed of the online (cold start) phase.
pub const SEED_ONLINE: u64 = 32;

/// Runs one mode of the cold-start pipeline, returning the simulated
/// loading makespan in µs and optionally filling `tele` with
/// spans/metrics.
pub fn run_mode(mode: Parallelism, tele: Option<&Registry>) -> u64 {
    let spec = ModelSpec::by_name(MODEL).expect("catalog model");
    let gpu = GpuSpec::a100_40gb();
    let cost = CostModel::default();
    let (arts, _) = ColdStart::new(&spec)
        .gpu(gpu.clone())
        .cost(cost.clone())
        .tp(TP)
        .parallelism(mode)
        .materialize(SEED_OFFLINE)
        .expect("tp offline");
    let mut builder = ColdStart::new(&spec)
        .strategy(Strategy::Medusa)
        .gpu(gpu)
        .cost(cost)
        .seed(SEED_ONLINE)
        .warm(true)
        .parallelism(mode)
        .artifacts(&arts);
    if let Some(t) = tele {
        builder = builder.telemetry(t);
    }
    let cold = builder.run().expect("tp cold start");
    cold.loading().as_nanos() / 1_000
}

/// Runs the same tp=2 Medusa offline+online pipeline under each
/// [`Parallelism`] mode; the overlapped makespan is gated.
pub fn run_coldstart() -> BenchReport {
    let mut r = BenchReport::new("coldstart");
    r.config("model", MODEL)
        .config("tp", TP)
        .config("seed_offline", SEED_OFFLINE)
        .config("seed_online", SEED_ONLINE)
        .metrics([
            ("serial_us", run_mode(Parallelism::Serial, None), "us", Info),
            (
                "overlapped_us",
                run_mode(Parallelism::Overlapped, None),
                "us",
                LOWER,
            ),
            (
                "pipelined_us",
                run_mode(Parallelism::PipelinedTp, None),
                "us",
                Info,
            ),
        ]);
    r
}

/// Overlapping the loading stages must beat running them serially, and
/// pipelining the ranks must not lose to overlapping alone.
pub fn coldstart_checks() -> Vec<Check> {
    vec![
        le("pipelined_us", "overlapped_us"),
        lt("overlapped_us", "serial_us"),
    ]
}

// ---------------------------------------------------------------------
// Cluster: one burst trace on a Medusa fleet vs a vanilla fleet.

/// Fleet size of the cluster scenario.
pub const CLUSTER_NODES: usize = 4;
/// Trace seed of the cluster scenario.
pub const CLUSTER_SEED: u64 = 42;
/// Offered request rate, requests/second.
pub const CLUSTER_RPS: u64 = 8;
/// Trace duration, seconds.
pub const CLUSTER_DURATION_S: u64 = 45;

fn cluster_trace() -> Vec<medusa_workload::Request> {
    TraceConfig::sharegpt(CLUSTER_RPS as f64, CLUSTER_DURATION_S as f64)
        .with_seed(CLUSTER_SEED)
        .with_pattern(ArrivalPattern::sharegpt_bursty())
        .generate()
}

/// Runs one side of the cluster scenario, optionally filling `tele`.
pub fn run_cluster_side(strategy: Strategy, tele: Option<&Registry>) -> ClusterReport {
    // §6 registry model: node-local caches are pre-seeded, so Medusa cold
    // starts are local restores (vanilla has nothing to cache either way).
    let cluster = ClusterSpec::uniform(CLUSTER_NODES).with_cached_prefix(CLUSTER_NODES);
    simulate_fleet_traced(
        &fleet_profile(strategy, CLUSTER_SEED),
        &cluster,
        Policy::ColdStartAware,
        &cluster_trace(),
        tele,
    )
    .report
}

/// Replays the same bursty trace on a Medusa fleet and a vanilla fleet
/// (both [`Policy::ColdStartAware`]); the Medusa fleet's TTFT p99 and
/// makespan are gated.
pub fn run_cluster() -> BenchReport {
    let mut r = BenchReport::new("cluster");
    r.config("model", MODEL)
        .config("nodes", CLUSTER_NODES)
        .config("seed", CLUSTER_SEED)
        .config("rps", CLUSTER_RPS)
        .config("duration_s", CLUSTER_DURATION_S)
        .config(
            "trace_fingerprint",
            medusa_workload::fingerprint(&cluster_trace()),
        );
    for (side, strategy) in [("medusa", Strategy::Medusa), ("vanilla", Strategy::Vanilla)] {
        let rep = run_cluster_side(strategy, None);
        let gated = if side == "medusa" { LOWER } else { Info };
        r.metrics([
            (
                format!("{side}.cold_starts"),
                rep.cold_starts.into(),
                "count",
                Info,
            ),
            (
                format!("{side}.makespan_us"),
                rep.makespan_ns / 1_000,
                "us",
                gated,
            ),
            (format!("{side}.ttft_p99_us"), rep.ttft_p99_us, "us", gated),
        ]);
    }
    r
}

/// Medusa beats vanilla on the burst tail and never finishes later.
pub fn cluster_checks() -> Vec<Check> {
    vec![
        lt("medusa.ttft_p99_us", "vanilla.ttft_p99_us"),
        le("medusa.makespan_us", "vanilla.makespan_us"),
    ]
}

// ---------------------------------------------------------------------
// Multi-tenant cluster (contended artifact cache).

/// Distinct models of the multi-tenant scenario.
pub const MT_MODELS: u32 = 8;
/// Zipf popularity skew, in milli-units (1000 = s of 1.0).
pub const MT_ZIPF_S_MILLI: u32 = 1000;
/// Trace seed of the multi-tenant scenario.
pub const MT_SEED: u64 = 42;
/// Offered rate, requests/second.
pub const MT_RPS: u64 = 1;
/// Trace duration, seconds.
pub const MT_DURATION_S: u64 = 120;
/// Per-node artifact-cache capacity, artifacts.
pub const MT_CACHE_ARTIFACTS: u32 = 4;
/// Fleet size of the multi-tenant scenario (one node per model, so tail
/// waits are cold-start-cost-bound rather than keep-alive-bound).
pub const MT_NODES: usize = 8;
/// Idle keep-alive of the multi-tenant fleet, seconds (short, so nodes
/// churn and the bounded cache actually evicts).
pub const MT_KEEP_ALIVE_S: u64 = 2;

fn mt_trace() -> Vec<medusa_workload::Request> {
    TraceConfig::sharegpt(MT_RPS as f64, MT_DURATION_S as f64)
        .with_seed(MT_SEED)
        .with_models(medusa_workload::ModelMix::Zipf {
            models: MT_MODELS,
            s: MT_ZIPF_S_MILLI as f64 / 1000.0,
        })
        .generate()
}

fn run_cluster_mt_side(strategy: Strategy) -> ClusterReport {
    let profile = fleet_profile(strategy, MT_SEED).with_scaled_models(MT_MODELS);
    let cluster = ClusterSpec::uniform(MT_NODES)
        .with_cache(CacheConfig {
            capacity: CacheCapacity::Artifacts(MT_CACHE_ARTIFACTS),
            eviction: EvictionPolicy::CostAware,
        })
        .with_keep_alive(MT_KEEP_ALIVE_S as f64);
    simulate_fleet(&profile, &cluster, Policy::ColdStartAware, &mt_trace()).report
}

/// Replays a Zipf-skewed eight-model trace on a Medusa fleet and a
/// vanilla fleet whose nodes hold a bounded cost-aware artifact cache;
/// the Medusa fleet's aggregate TTFT p99 is gated and every tenant is
/// broken out.
pub fn run_cluster_mt() -> BenchReport {
    let medusa = run_cluster_mt_side(Strategy::Medusa);
    let vanilla = run_cluster_mt_side(Strategy::Vanilla);
    let cache = medusa.cache.expect("multi-tenant run reports cache");
    let hit_rate_pm = (cache.hits * 1_000)
        .checked_div(cache.hits + cache.misses)
        .unwrap_or(0);
    let mut r = BenchReport::new("cluster_multitenant");
    r.config("model", MODEL)
        .config("nodes", MT_NODES)
        .config("seed", MT_SEED)
        .config("models", MT_MODELS)
        .config("zipf_s_milli", MT_ZIPF_S_MILLI)
        .config("rps", MT_RPS)
        .config("duration_s", MT_DURATION_S)
        .config("cache_artifacts", MT_CACHE_ARTIFACTS)
        .config("eviction", EvictionPolicy::CostAware.name())
        .config(
            "trace_fingerprint",
            medusa_workload::fingerprint(&mt_trace()),
        )
        .metrics([
            (
                "medusa.cold_starts",
                medusa.cold_starts.into(),
                "count",
                Info,
            ),
            ("medusa.ttft_p99_us", medusa.ttft_p99_us, "us", LOWER),
            (
                "vanilla.cold_starts",
                vanilla.cold_starts.into(),
                "count",
                Info,
            ),
            ("vanilla.ttft_p99_us", vanilla.ttft_p99_us, "us", Info),
            ("cache.hits", cache.hits, "count", Info),
            ("cache.misses", cache.misses, "count", Info),
            ("cache.evictions", cache.evictions, "count", Info),
            ("cache.hit_rate_pm", hit_rate_pm, "pm", Info),
        ]);
    for m in &medusa.tenants {
        let v = vanilla
            .tenants
            .iter()
            .find(|v| v.model == m.model)
            .expect("same trace, same tenants");
        let t = format!("tenant{}", m.model);
        r.metrics([
            (format!("{t}.offered"), m.offered as u64, "count", Info),
            (format!("{t}.medusa.ttft_p99_us"), m.ttft_p99_us, "us", Info),
            (
                format!("{t}.vanilla.ttft_p99_us"),
                v.ttft_p99_us,
                "us",
                Info,
            ),
            (
                format!("{t}.medusa.slo_attained_pm"),
                m.slo_attained_pm.into(),
                "pm",
                Info,
            ),
        ]);
    }
    r
}

/// Medusa beats vanilla on p99 for every one of the [`MT_MODELS`]
/// tenants, and the bounded cache is contended (it evicts) yet still
/// hits at least 200‰ of lookups.
pub fn cluster_mt_checks() -> Vec<Check> {
    let mut checks: Vec<Check> = (0..MT_MODELS)
        .map(|m| {
            lt(
                format!("tenant{m}.medusa.ttft_p99_us"),
                format!("tenant{m}.vanilla.ttft_p99_us"),
            )
        })
        .collect();
    checks.push(Check::AtLeast("cache.hit_rate_pm".into(), 200));
    checks.push(Check::AtLeast("cache.evictions".into(), 1));
    checks
}

// ---------------------------------------------------------------------
// MAF2 artifact size sweep (encode / open / validate / lazy restore).

/// Tensor-parallel degree of the artifact sweep's bundle.
pub const ARTIFACT_TP: u32 = 2;
/// Offline seed of the artifact sweep's base materialization.
pub const ARTIFACT_SEED: u64 = 33;
/// Graphs kept per shard in the 1× base artifact (the sweep multiplies
/// the graph section, so a small base keeps the 100× point CI-sized).
pub const ARTIFACT_BASE_GRAPHS: u32 = 2;
/// Size multipliers of the sweep, ascending.
pub const ARTIFACT_SCALES: [u32; 3] = [1, 10, 100];

/// The trimmed tp-bundle the sweep scales: a seed-fixed materialization
/// with each shard's graph list cut to [`ARTIFACT_BASE_GRAPHS`], re-sealed.
fn artifact_base() -> Vec<MaterializedState> {
    let spec = ModelSpec::by_name(MODEL).expect("catalog model");
    let (arts, _) = ColdStart::new(&spec)
        .tp(ARTIFACT_TP)
        .materialize(ARTIFACT_SEED)
        .expect("offline tp phase");
    arts.iter()
        .map(|shard| {
            let mut s = shard.clone();
            s.graphs.truncate(ARTIFACT_BASE_GRAPHS as usize);
            s.seal();
            s
        })
        .collect()
}

/// Multiplies each shard's graph section `scale`× (fresh batch ids keep
/// the captured-batch key unique, and each round's own stream numbering
/// gives its copies skeletons of their own, so MAF2 stores every copy in
/// full) and re-seals. Replay, labels, and pointer tables are untouched,
/// so the scaled shard still validates.
fn scaled_shards(base: &[MaterializedState], scale: u32) -> Vec<MaterializedState> {
    base.iter()
        .map(|shard| {
            let mut s = shard.clone();
            let stride = shard.graphs.iter().map(|g| g.batch).max().unwrap_or(0) + 1;
            for round in 1..scale {
                for g in &shard.graphs {
                    let mut g = g.clone();
                    g.batch += round * stride;
                    for n in &mut g.nodes {
                        n.stream += round;
                    }
                    s.graphs.push(g);
                }
            }
            s.seal();
            s
        })
        .collect()
}

/// Mean host wall-clock of `f` over `iters` runs after one warm-up, ns.
fn time_op<T>(iters: u32, mut f: impl FnMut() -> T) -> u64 {
    std::hint::black_box(f()); // warm-up
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    (t0.elapsed() / iters).as_nanos() as u64
}

/// Runs the artifact size sweep: for each scale, encode the bundle, open
/// and header-validate it, parse and fully validate the JSON twin, and
/// lazily restore one shard. The byte counts are a pure function of the
/// seed and the canonical encoding, so they are gated exactly; the host
/// timings are recorded for the in-run JSON-vs-MAF2 check.
pub fn run_artifact() -> BenchReport {
    let spec = ModelSpec::by_name(MODEL).expect("catalog model");
    let gpu = GpuSpec::a100_40gb();
    let validator = ArtifactValidator::for_target(&spec, &gpu);
    let base = artifact_base();
    let mut r = BenchReport::new("artifact");
    r.config("model", MODEL)
        .config("tp", ARTIFACT_TP)
        .config("seed", ARTIFACT_SEED)
        .config("base_graphs", ARTIFACT_BASE_GRAPHS);
    for scale in ARTIFACT_SCALES {
        let shards = scaled_shards(&base, scale);
        let refs: Vec<&MaterializedState> = shards.iter().collect();
        let encode = time_op(3, || encode_maf2_bundle(&refs).expect("encode bundle"));
        let maf2 = encode_maf2_bundle(&refs).expect("encode bundle");
        let jsons: Vec<String> = shards
            .iter()
            .map(|s| s.to_json().expect("to_json"))
            .collect();
        let json_bytes: u64 = jsons.iter().map(|j| j.len() as u64).sum();

        // O(file): parse every shard and run the full deep validation.
        let json_parse_validate = time_op(3, || {
            for json in &jsons {
                let s = MaterializedState::from_json(json).expect("from_json");
                let report = validator.clone().shard(s.rank, s.tp).validate(&s);
                assert!(report.ok().is_ok(), "scaled JSON shard must validate");
            }
        });

        // O(header): open once, header-validate every shard off the shared
        // section index.
        let maf2_open_validate = time_op(10, || {
            let reader = Maf2Reader::open(&maf2).expect("open");
            for rank in reader.shard_ranks() {
                let v = validator.clone().shard(rank, reader.tp());
                let report = v.validate_maf2_header(&reader);
                assert!(report.ok().is_ok(), "scaled MAF2 shard must validate");
            }
            reader.bytes_read()
        });
        let reader = Maf2Reader::open(&maf2).expect("open");
        for rank in reader.shard_ranks() {
            let v = validator.clone().shard(rank, reader.tp());
            assert!(v.validate_maf2_header(&reader).ok().is_ok());
        }
        let open_read_bytes = reader.bytes_read();

        // Lazy single-shard restore: only rank 0's sections leave the file.
        let shard_restore = time_op(3, || {
            let r = Maf2Reader::open(&maf2).expect("open");
            r.shard(0).expect("lazy shard").total_nodes()
        });
        let restored = reader.shard(0).expect("lazy shard");
        assert_eq!(restored, &shards[0], "lazy restore must equal eager state");
        let shard_restore_read_bytes = reader.bytes_read() - open_read_bytes;

        let n = |metric: &str| format!("x{scale}.{metric}");
        r.metrics([
            (n("maf2_bytes"), maf2.len() as u64, "bytes", Exact),
            (n("json_bytes"), json_bytes, "bytes", Exact),
            // Bytes the zero-copy reader touches to open and header-validate
            // every shard: header + key + section index + per-shard ShardMeta.
            (n("open_read_bytes"), open_read_bytes, "bytes", Exact),
            (
                n("shard_restore_read_bytes"),
                shard_restore_read_bytes,
                "bytes",
                Exact,
            ),
            (n("encode_ns"), encode, "ns", Info),
            (n("maf2_open_validate_ns"), maf2_open_validate, "ns", Info),
            (n("json_parse_validate_ns"), json_parse_validate, "ns", Info),
            (n("shard_restore_ns"), shard_restore, "ns", Info),
        ]);
    }
    r
}

/// At every scale: open+validate reads the same bytes as at 1× (the
/// O(header) contract), restoring one rank reads at most 1/tp of the
/// file, and MAF2 is smaller than JSON. Across the sweep the bundle grows
/// near-linearly, and at the largest scale MAF2 open+validate beats JSON
/// parse+validate by at least 10× wall-clock on this host (the gap is
/// O(file) vs O(header), orders of magnitude; the floor leaves a wide
/// margin for host noise).
pub fn artifact_checks() -> Vec<Check> {
    let first = format!("x{}", ARTIFACT_SCALES[0]);
    let last_scale = ARTIFACT_SCALES[ARTIFACT_SCALES.len() - 1];
    let last = format!("x{last_scale}");
    let mut checks = Vec::new();
    for scale in ARTIFACT_SCALES {
        let x = format!("x{scale}");
        if x != first {
            checks.push(le(
                format!("{x}.open_read_bytes"),
                format!("{first}.open_read_bytes"),
            ));
            checks.push(le(
                format!("{first}.open_read_bytes"),
                format!("{x}.open_read_bytes"),
            ));
        }
        checks.push(Check::Le(
            ARTIFACT_TP.into(),
            format!("{x}.shard_restore_read_bytes"),
            1,
            format!("{x}.maf2_bytes"),
        ));
        checks.push(lt(format!("{x}.maf2_bytes"), format!("{x}.json_bytes")));
    }
    checks.push(Check::Lt(
        u64::from(last_scale / 2),
        format!("{first}.maf2_bytes"),
        1,
        format!("{last}.maf2_bytes"),
    ));
    checks.push(Check::Le(
        10,
        format!("{last}.maf2_open_validate_ns"),
        1,
        format!("{last}.json_parse_validate_ns"),
    ));
    checks
}

// ---------------------------------------------------------------------
// Large-fleet scale (event-core throughput).

/// Fleet size of the scale scenario.
pub const SCALE_NODES: usize = 1000;
/// Offered rate of the scale scenario, requests/second.
pub const SCALE_RPS: u64 = 10_000;
/// Trace duration of the scale scenario, seconds.
pub const SCALE_DURATION_S: u64 = 100;
/// Trace seed of the scale scenario.
pub const SCALE_SEED: u64 = 77;

/// Replays an interactive trace on [`SCALE_NODES`] workers at
/// [`SCALE_RPS`] for [`SCALE_DURATION_S`] simulated seconds, Medusa
/// (caches pre-seeded per §6) vs vanilla, and records the host wall-clock
/// of both fleets — the event core's "millions of events in wall-clock
/// seconds" contract.
pub fn run_scale() -> BenchReport {
    let start = std::time::Instant::now();
    let trace = TraceConfig::interactive(SCALE_RPS as f64, SCALE_DURATION_S as f64)
        .with_seed(SCALE_SEED)
        .generate();
    let cluster = ClusterSpec::uniform(SCALE_NODES).with_cached_prefix(SCALE_NODES);
    let run = |strategy| {
        simulate_fleet(
            &fleet_profile(strategy, SCALE_SEED),
            &cluster,
            Policy::ColdStartAware,
            &trace,
        )
    };
    let medusa = run(Strategy::Medusa);
    let vanilla = run(Strategy::Vanilla);
    let wall_ms = start.elapsed().as_millis() as u64;
    let mut r = BenchReport::new("scale");
    r.config("model", MODEL)
        .config("nodes", SCALE_NODES)
        .config("rps", SCALE_RPS)
        .config("duration_s", SCALE_DURATION_S)
        .config("seed", SCALE_SEED)
        .metrics([
            ("offered", trace.len() as u64, "count", Exact),
            (
                "medusa.events",
                medusa.stats.events_processed,
                "count",
                LOWER,
            ),
            (
                "medusa.completed",
                medusa.report.completed as u64,
                "count",
                Exact,
            ),
            (
                "medusa.cold_starts",
                medusa.report.cold_starts.into(),
                "count",
                Info,
            ),
            ("medusa.ttft_p99_us", medusa.report.ttft_p99_us, "us", LOWER),
            (
                "vanilla.completed",
                vanilla.report.completed as u64,
                "count",
                Info,
            ),
            (
                "vanilla.ttft_p99_us",
                vanilla.report.ttft_p99_us,
                "us",
                Info,
            ),
            ("wall_ms", wall_ms, "ms", Info),
        ]);
    r
}

/// The Medusa fleet serves every request and beats vanilla on p99 at
/// fleet scale, and both fleets finish within a 120 s wall-clock budget.
pub fn scale_checks() -> Vec<Check> {
    vec![
        le("medusa.completed", "offered"),
        le("offered", "medusa.completed"),
        lt("medusa.ttft_p99_us", "vanilla.ttft_p99_us"),
        Check::AtMost("wall_ms".into(), 120_000),
    ]
}

// ---------------------------------------------------------------------
// Predictive-policy race.

/// Distinct models of the policy-race scenario.
pub const POLICY_MODELS: u32 = 4;
/// Trace seed of the policy-race scenario.
pub const POLICY_SEED: u64 = 42;
/// Offered rate of the policy-race trace, requests/second.
pub const POLICY_RPS: u64 = 4;
/// Trace duration of the policy-race scenario, seconds.
pub const POLICY_DURATION_S: u64 = 120;
/// Fleet size of the policy-race scenario.
pub const POLICY_NODES: usize = 6;
/// Idle keep-alive, seconds — short, so bursts separated by longer gaps
/// pay a cold start unless a prewarm beat them to it.
pub const POLICY_KEEP_ALIVE_S: u64 = 4;
/// Per-node artifact-cache capacity, artifacts — bounded, so the locality
/// scheduler's cache-hit scoring has a real signal.
pub const POLICY_CACHE_ARTIFACTS: u32 = 2;
/// Histogram-estimator prediction percentile, per-mille. High, so the
/// estimator targets the *inter-burst* gap of the bursty trace rather
/// than the dense intra-burst gaps (a prewarm predicted from those fires
/// while the model is still live and is a no-op).
pub const POLICY_PREWARM_PERCENTILE_PM: u32 = 950;
/// Prewarm lead, seconds — roughly the measured cold-start makespan.
pub const POLICY_PREWARM_LEAD_S: f64 = 1.0;
/// Pipeline-parallel degree of the cold-start sub-race.
pub const POLICY_PIPELINE_K: u32 = 2;
/// Artifact-size multiplier of the cold-start sub-race: a 100× artifact
/// is where sharding one start across nodes pays (small artifacts are
/// dominated by the per-start constant costs).
pub const POLICY_ARTIFACT_SCALE: u64 = 100;

/// The bursty Zipf-skewed trace every raced policy replays.
fn policy_trace() -> Vec<medusa_workload::Request> {
    TraceConfig::sharegpt(POLICY_RPS as f64, POLICY_DURATION_S as f64)
        .with_seed(POLICY_SEED)
        .with_pattern(ArrivalPattern::sharegpt_bursty())
        .with_models(medusa_workload::ModelMix::Zipf {
            models: POLICY_MODELS,
            s: 1.0,
        })
        .generate()
}

/// The measured multi-tenant Medusa profile of the race.
fn policy_profile() -> FleetProfile {
    fleet_profile(Strategy::Medusa, POLICY_SEED).with_scaled_models(POLICY_MODELS)
}

/// Races every predictive scheduling feature head-to-head against the
/// reactive baseline on one bursty Zipf trace — one metric group per
/// (policy, prewarm) row, in race order — then duels single-node vs
/// pipeline-parallel cold starts on a [`POLICY_ARTIFACT_SCALE`]× artifact.
pub fn run_policies() -> BenchReport {
    let profile = policy_profile();
    // The shared fleet shape: short keep-alive, bounded cost-aware cache.
    let base = ClusterSpec::uniform(POLICY_NODES)
        .with_cache(CacheConfig {
            capacity: CacheCapacity::Artifacts(POLICY_CACHE_ARTIFACTS),
            eviction: EvictionPolicy::CostAware,
        })
        .with_keep_alive(POLICY_KEEP_ALIVE_S as f64);
    let prewarm = PrewarmConfig {
        policy: PrewarmPolicy::Histogram {
            percentile_pm: POLICY_PREWARM_PERCENTILE_PM,
        },
        lead_s: POLICY_PREWARM_LEAD_S,
    };
    let rows = [
        ("coldstart-aware", Policy::ColdStartAware, base.clone()),
        ("locality", Policy::Locality, base.clone()),
        (
            "locality+prewarm",
            Policy::Locality,
            base.clone().with_prewarm(prewarm),
        ),
        (
            "pipeline",
            Policy::Pipeline,
            base.clone().with_pipeline(POLICY_PIPELINE_K),
        ),
    ];
    let trace = policy_trace();
    let mut r = BenchReport::new("policies");
    r.config("model", MODEL)
        .config("nodes", POLICY_NODES)
        .config("seed", POLICY_SEED)
        .config("models", POLICY_MODELS)
        .config("rps", POLICY_RPS)
        .config("duration_s", POLICY_DURATION_S)
        .config("keep_alive_s", POLICY_KEEP_ALIVE_S)
        .config("prewarm_percentile_pm", POLICY_PREWARM_PERCENTILE_PM)
        .config("pipeline_k", POLICY_PIPELINE_K)
        .config("artifact_scale", POLICY_ARTIFACT_SCALE)
        .config("trace_fingerprint", medusa_workload::fingerprint(&trace));
    for (name, policy, cluster) in rows {
        let rep = simulate_fleet(&profile, &cluster, policy, &trace).report;
        let n = |metric: &str| format!("{name}.{metric}");
        r.metrics([
            (n("completed"), rep.completed as u64, "count", Exact),
            (n("cold_starts"), rep.cold_starts.into(), "count", Info),
            (n("ttft_p50_us"), rep.ttft_p50_us, "us", LOWER),
            (n("ttft_p99_us"), rep.ttft_p99_us, "us", LOWER),
            (
                n("prewarms_issued"),
                rep.prewarm.map_or(0, |p| p.issued),
                "count",
                Info,
            ),
            // Prewarms whose node scaled back to zero unused — pure waste.
            // The counts are small integers, hence the +1 slack.
            (
                n("prewarms_unused"),
                rep.prewarm.map_or(0, |p| p.unused),
                "count",
                Kind::Lower { slack: 1 },
            ),
            (
                n("pipeline_starts"),
                rep.pipeline_starts.unwrap_or(0),
                "count",
                Info,
            ),
        ]);
    }
    // Sub-race: one request against an empty fleet paying a 100× artifact
    // cold start, single-node vs pipeline-parallel. TTFT p50 of a
    // one-request trace *is* that request's TTFT.
    let scale = |d: SimDuration| SimDuration::from_nanos(d.as_nanos() * POLICY_ARTIFACT_SCALE);
    let big = {
        let mut p = policy_profile();
        p.model_costs = vec![ModelCost {
            fetch: scale(p.fetch),
            loading: scale(p.perf.loading),
            artifact_bytes: p.artifact_bytes_for(0) * POLICY_ARTIFACT_SCALE,
        }];
        p
    };
    let solo_trace = vec![medusa_workload::Request {
        id: 0,
        arrival_ns: 0,
        prompt_tokens: 128,
        output_tokens: 32,
        model: 0,
    }];
    let duel_cluster = ClusterSpec::uniform(POLICY_PIPELINE_K as usize);
    let single = simulate_fleet(&big, &duel_cluster, Policy::ColdStartAware, &solo_trace).report;
    let piped_cluster = duel_cluster.with_pipeline(POLICY_PIPELINE_K);
    let piped = simulate_fleet(&big, &piped_cluster, Policy::Pipeline, &solo_trace).report;
    r.metrics([
        ("single_coldstart_ttft_us", single.ttft_p50_us, "us", Info),
        ("pipeline_coldstart_ttft_us", piped.ttft_p50_us, "us", Info),
    ]);
    r
}

/// The predictive row beats the reactive one on p99 and lands more
/// prewarms than it wastes; the pipeline row actually shards starts, and
/// the sharded 100× cold start beats the single-node one.
pub fn policies_checks() -> Vec<Check> {
    vec![
        lt(
            "locality+prewarm.ttft_p99_us",
            "coldstart-aware.ttft_p99_us",
        ),
        lt(
            "locality+prewarm.prewarms_unused",
            "locality+prewarm.prewarms_issued",
        ),
        Check::AtLeast("pipeline.pipeline_starts".into(), 1),
        lt("pipeline_coldstart_ttft_us", "single_coldstart_ttft_us"),
    ]
}

// ---------------------------------------------------------------------
// Content-addressed registry (chunk dedup vs whole-artifact fetch).

/// Family members of the registry scenario (the base capture plus
/// `REG_MODELS - 1` derived fine-tune variants).
pub const REG_MODELS: u32 = 4;
/// Fleet size of the registry scenario. Deliberately smaller than the
/// family, so models must share nodes and evictions force re-fetches —
/// the case where chunk-level residency pays.
pub const REG_NODES: usize = 2;
/// Trace seed.
pub const REG_SEED: u64 = 42;
/// Offered rate, requests/second.
pub const REG_RPS: u64 = 1;
/// Trace duration, seconds.
pub const REG_DURATION_S: u64 = 120;
/// Zipf popularity skew over the family, milli-units.
pub const REG_ZIPF_S_MILLI: u32 = 1000;
/// Idle keep-alive, seconds (short, so nodes churn through scale-to-zero
/// and chunk residency — not warm pools — carries the savings).
pub const REG_KEEP_ALIVE_S: u64 = 2;
/// Per-node artifact-cache capacity, artifacts (one, so every model
/// switch evicts and re-fetches — which the chunk store answers
/// incrementally from the evicted sibling's still-resident template
/// chunks, while the whole-artifact control pays full price each time).
pub const REG_CACHE_ARTIFACTS: u32 = 1;
/// Family name stamped into the factored template.
pub const REG_FAMILY: &str = "qwen-0.5b-family";
/// Offline seed of the base capture.
pub const REG_SEED_OFFLINE: u64 = 35;

/// Builds the registry scenario's chunk store: materialize the base model
/// once, factor it into a family template, instantiate `REG_MODELS`
/// members (the base plus seed-derived fine-tune variants), pack each
/// member's MAF2 bytes, and factor the shared chunks into a template
/// manifest. Deterministic per seed.
pub fn registry_store() -> ChunkStore {
    let spec = ModelSpec::by_name(MODEL).expect("catalog model");
    let (base, _) = materialize_offline(
        &spec,
        GpuSpec::a100_40gb(),
        CostModel::default(),
        REG_SEED_OFFLINE,
    )
    .expect("offline materialization");
    let (template, base_delta) = ArtifactTemplate::extract(std::slice::from_ref(&base), REG_FAMILY)
        .expect("family extraction");
    let mut store = ChunkStore::new();
    for m in 0..REG_MODELS {
        let delta = if m == 0 {
            base_delta.clone()
        } else {
            base_delta.derive_variant(&format!("{MODEL}-v{m}"), REG_SEED_OFFLINE ^ u64::from(m))
        };
        for shard in template.instantiate(&delta).expect("member instantiation") {
            let bytes = shard.to_maf2().expect("member encoding");
            store.pack(&bytes).expect("member packing");
        }
    }
    store.factor_family(REG_FAMILY).expect("family factoring");
    store
}

/// Catalog drift detector: a rotate-xor fold of the manifests' canonical
/// digests, order-sensitive (manifest index is the fleet's model id).
pub fn registry_catalog_fingerprint(store: &ChunkStore) -> u64 {
    store
        .manifests()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |acc, m| {
            acc.rotate_left(5) ^ m.digest()
        })
}

fn reg_trace() -> Vec<medusa_workload::Request> {
    TraceConfig::sharegpt(REG_RPS as f64, REG_DURATION_S as f64)
        .with_seed(REG_SEED)
        .with_models(medusa_workload::ModelMix::Zipf {
            models: REG_MODELS,
            s: REG_ZIPF_S_MILLI as f64 / 1000.0,
        })
        .generate()
}

/// Replays the registry scenario's trace through one registry backend.
fn run_registry_side(catalog: RegistryCatalog) -> ClusterReport {
    let cluster = ClusterSpec::uniform(REG_NODES)
        .with_cache(CacheConfig {
            capacity: CacheCapacity::Artifacts(REG_CACHE_ARTIFACTS),
            eviction: EvictionPolicy::CostAware,
        })
        .with_keep_alive(REG_KEEP_ALIVE_S as f64)
        .with_registry_mode(RegistryMode::ContentAddressed(catalog));
    let profile = fleet_profile(Strategy::Medusa, REG_SEED).with_scaled_models(REG_MODELS);
    simulate_fleet(&profile, &cluster, Policy::ColdStartAware, &reg_trace()).report
}

/// Builds the family store, then replays the same Zipf trace through the
/// content-addressed catalog (chunk-level residency, delta-only
/// transfers) and through a whole-artifact control catalog (one unit per
/// model over the same byte totals, so both rows carry comparable
/// registry counters). The byte counters are gated exactly.
pub fn run_registry() -> BenchReport {
    let store = registry_store();
    let stats = store.dedup_stats();
    let catalog = RegistryCatalog::from_store(&store);
    let totals: Vec<u64> = catalog.models.iter().map(|m| m.total_bytes()).collect();
    let cas = run_registry_side(catalog);
    let whole = run_registry_side(RegistryCatalog::monolithic(&totals));
    let cas_reg = cas.registry.expect("cas row reports registry counters");
    let whole_reg = whole
        .registry
        .expect("control row reports registry counters");
    let dedup_ratio_milli = stats
        .logical_bytes
        .saturating_mul(1000)
        .checked_div(stats.stored_bytes)
        .unwrap_or(1000);
    let mut r = BenchReport::new("registry");
    r.config("model", MODEL)
        .config("family", REG_FAMILY)
        .config("nodes", REG_NODES)
        .config("seed", REG_SEED)
        .config("models", REG_MODELS)
        .config("zipf_s_milli", REG_ZIPF_S_MILLI)
        .config("rps", REG_RPS)
        .config("duration_s", REG_DURATION_S)
        .config("cache_artifacts", REG_CACHE_ARTIFACTS)
        .config(
            "trace_fingerprint",
            medusa_workload::fingerprint(&reg_trace()),
        )
        .config("catalog_fingerprint", registry_catalog_fingerprint(&store))
        .metrics([
            // Sum of manifest bytes: what a whole-artifact registry stores.
            ("store.logical_bytes", stats.logical_bytes, "bytes", Exact),
            ("store.stored_bytes", stats.stored_bytes, "bytes", Exact),
            (
                "store.unique_chunks",
                stats.unique_chunks as u64,
                "count",
                Exact,
            ),
            ("store.dedup_ratio_milli", dedup_ratio_milli, "milli", Info),
            (
                "whole.bytes_fetched",
                whole_reg.bytes_fetched,
                "bytes",
                Exact,
            ),
            ("whole.ttft_p99_us", whole.ttft_p99_us, "us", Info),
            ("whole.cold_starts", whole.cold_starts.into(), "count", Info),
            ("cas.bytes_fetched", cas_reg.bytes_fetched, "bytes", Exact),
            ("cas.bytes_resolved", cas_reg.bytes_resolved, "bytes", Exact),
            ("cas.chunk_hits", cas_reg.chunk_hits, "count", Exact),
            ("cas.chunk_misses", cas_reg.chunk_misses, "count", Exact),
            ("cas.ttft_p99_us", cas.ttft_p99_us, "us", LOWER),
            ("cas.cold_starts", cas.cold_starts.into(), "count", Info),
        ]);
    r
}

/// Content-addressed fetches move at most half the whole-artifact bytes,
/// the family store dedups at least 2×, and the content-addressed TTFT
/// p99 stays within 5% of the whole row's. The scenario must actually
/// exercise sharing: resident chunks resolve bytes, and the whole row
/// re-fetches (it moves more than the store holds).
pub fn registry_checks() -> Vec<Check> {
    vec![
        Check::Le(
            2,
            "cas.bytes_fetched".into(),
            1,
            "whole.bytes_fetched".into(),
        ),
        Check::AtLeast("store.dedup_ratio_milli".into(), 2000),
        Check::Le(
            100,
            "cas.ttft_p99_us".into(),
            105,
            "whole.ttft_p99_us".into(),
        ),
        Check::AtLeast("cas.chunk_hits".into(), 1),
        Check::AtLeast("cas.bytes_resolved".into(), 1),
        lt("store.logical_bytes", "whole.bytes_fetched"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::gate;

    /// Each scenario's committed baseline, in [`SCENARIOS`] order, with
    /// what the scenario gates pinned, so that dropping or loosening a
    /// check, or demoting a gated metric, fails a test and not only
    /// review: how many metrics are `exact`, `lower` and `lower+1`, and
    /// the declared checks.
    const BASELINES: [(&str, &str, [usize; 3], &[&str]); 7] = [
        (
            "coldstart",
            include_str!("../../../results/BENCH_coldstart.json"),
            [0, 1, 0],
            &["pipelined_us ≤ overlapped_us", "overlapped_us < serial_us"],
        ),
        (
            "cluster",
            include_str!("../../../results/BENCH_cluster.json"),
            [0, 2, 0],
            &[
                "medusa.ttft_p99_us < vanilla.ttft_p99_us",
                "medusa.makespan_us ≤ vanilla.makespan_us",
            ],
        ),
        (
            "cluster_multitenant",
            include_str!("../../../results/BENCH_cluster_multitenant.json"),
            [0, 1, 0],
            &[
                "tenant0.medusa.ttft_p99_us < tenant0.vanilla.ttft_p99_us",
                "tenant1.medusa.ttft_p99_us < tenant1.vanilla.ttft_p99_us",
                "tenant2.medusa.ttft_p99_us < tenant2.vanilla.ttft_p99_us",
                "tenant3.medusa.ttft_p99_us < tenant3.vanilla.ttft_p99_us",
                "tenant4.medusa.ttft_p99_us < tenant4.vanilla.ttft_p99_us",
                "tenant5.medusa.ttft_p99_us < tenant5.vanilla.ttft_p99_us",
                "tenant6.medusa.ttft_p99_us < tenant6.vanilla.ttft_p99_us",
                "tenant7.medusa.ttft_p99_us < tenant7.vanilla.ttft_p99_us",
                "cache.hit_rate_pm ≥ 200",
                "cache.evictions ≥ 1",
            ],
        ),
        (
            "artifact",
            include_str!("../../../results/BENCH_artifact.json"),
            [12, 0, 0],
            &[
                "2·x1.shard_restore_read_bytes ≤ x1.maf2_bytes",
                "x1.maf2_bytes < x1.json_bytes",
                "x10.open_read_bytes ≤ x1.open_read_bytes",
                "x1.open_read_bytes ≤ x10.open_read_bytes",
                "2·x10.shard_restore_read_bytes ≤ x10.maf2_bytes",
                "x10.maf2_bytes < x10.json_bytes",
                "x100.open_read_bytes ≤ x1.open_read_bytes",
                "x1.open_read_bytes ≤ x100.open_read_bytes",
                "2·x100.shard_restore_read_bytes ≤ x100.maf2_bytes",
                "x100.maf2_bytes < x100.json_bytes",
                "50·x1.maf2_bytes < x100.maf2_bytes",
                "10·x100.maf2_open_validate_ns ≤ x100.json_parse_validate_ns",
            ],
        ),
        (
            "scale",
            include_str!("../../../results/BENCH_scale.json"),
            [2, 2, 0],
            &[
                "medusa.completed ≤ offered",
                "offered ≤ medusa.completed",
                "medusa.ttft_p99_us < vanilla.ttft_p99_us",
                "wall_ms ≤ 120000",
            ],
        ),
        (
            "policies",
            include_str!("../../../results/BENCH_policies.json"),
            [4, 8, 4],
            &[
                "locality+prewarm.ttft_p99_us < coldstart-aware.ttft_p99_us",
                "locality+prewarm.prewarms_unused < locality+prewarm.prewarms_issued",
                "pipeline.pipeline_starts ≥ 1",
                "pipeline_coldstart_ttft_us < single_coldstart_ttft_us",
            ],
        ),
        (
            "registry",
            include_str!("../../../results/BENCH_registry.json"),
            [8, 1, 0],
            &[
                "2·cas.bytes_fetched ≤ whole.bytes_fetched",
                "store.dedup_ratio_milli ≥ 2000",
                "100·cas.ttft_p99_us ≤ 105·whole.ttft_p99_us",
                "cas.chunk_hits ≥ 1",
                "cas.bytes_resolved ≥ 1",
                "store.logical_bytes < whole.bytes_fetched",
            ],
        ),
    ];

    /// The gate's table for `fresh` against `base`, pass or fail.
    fn table(fresh: &BenchReport, base: &BenchReport, checks: &[Check]) -> String {
        match gate(fresh, base, checks) {
            Ok(t) | Err(t) => t,
        }
    }

    /// The verdict column of metric `name`'s row.
    fn verdict<'a>(table: &'a str, name: &str) -> &'a str {
        table
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .and_then(|l| l.split_whitespace().last())
            .unwrap_or_else(|| panic!("no row `{name}` in\n{table}"))
    }

    /// Whether `check`'s row failed.
    fn check_failed(table: &str, check: &Check) -> bool {
        let desc = check.describe();
        table.lines().any(|l| {
            l.starts_with(&format!("{desc} ")) && l.contains(" check ") && l.contains("FAIL")
        })
    }

    fn with(r: &BenchReport, name: &str, value: u64) -> BenchReport {
        let mut f = r.clone();
        f.metrics
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no metric `{name}`"))
            .value = value;
        f
    }

    /// The smallest edit of one metric that breaks `check`.
    fn breaking(r: &BenchReport, check: &Check) -> BenchReport {
        let v = |m: &str| r.get(m).unwrap_or_else(|| panic!("no metric `{m}`"));
        match check {
            Check::Lt(ka, a, kb, b) => with(r, a, (kb * v(b)).div_ceil(*ka)),
            Check::Le(ka, a, kb, b) => with(r, a, kb * v(b) / ka + 1),
            Check::AtLeast(a, c) => with(r, a, c - 1),
            Check::AtMost(a, c) => with(r, a, c + 1),
        }
    }

    #[test]
    fn mutation_table_over_the_committed_baselines() {
        for (name, json, kinds, descs) in BASELINES {
            let base = BenchReport::from_json(json).unwrap_or_else(|e| panic!("{name}: {e}"));
            let checks = (scenario(name).expect("listed scenario").checks)();
            assert_eq!(
                checks.iter().map(Check::describe).collect::<Vec<_>>(),
                descs
            );
            let count = |k: Kind| base.metrics.iter().filter(|m| m.kind == k).count();
            let gated = [Exact, LOWER, Kind::Lower { slack: 1 }].map(count);
            assert_eq!(gated, kinds, "{name}: exact/lower/lower+1 metric counts");
            let t = |fresh: &BenchReport| table(fresh, &base, &checks);
            if let Err(e) = gate(&base, &base, &checks) {
                panic!("{name}: baseline vs baseline must pass:\n{e}");
            }
            for m in &base.metrics {
                let at = |v: u64| verdict(&t(&with(&base, &m.name, v)), &m.name).to_string();
                let ctx = format!("{name}/{}", m.name);
                match m.kind {
                    Exact => {
                        assert_eq!(at(m.value + 1), "FAIL", "{ctx} +1");
                        if m.value > 0 {
                            assert_eq!(at(m.value - 1), "FAIL", "{ctx} -1");
                        }
                    }
                    Kind::Lower { slack } => {
                        let limit = m.value + slack;
                        assert_eq!(at(m.value / 2), "ok", "{ctx}: improvements pass");
                        assert_eq!(at(limit), "ok", "{ctx}: base + slack passes");
                        assert_eq!(at(limit * 1049 / 1000), "ok", "{ctx} +4.9%");
                        assert_eq!(at((limit * 1051).div_ceil(1000)), "FAIL", "{ctx} +5.1%");
                    }
                    Info => assert_eq!(at(m.value * 3 + 1), "info", "{ctx}"),
                }
            }
            for key in base.config.keys() {
                let mut f = base.clone();
                f.config.get_mut(key).expect("own key").push('0');
                let err = gate(&f, &base, &checks).unwrap_err();
                assert!(
                    err.contains("mismatch") && err.contains(key.as_str()),
                    "{name}: {err}"
                );
            }
            let mut swapped = base.clone();
            swapped.metrics.swap(0, 1);
            let err = gate(&swapped, &base, &checks).unwrap_err();
            assert!(err.contains("metric list changed"), "{name}: {err}");
            for c in &checks {
                let out = t(&breaking(&base, c));
                assert!(
                    check_failed(&out, c),
                    "{name}: `{}` not failed by\n{out}",
                    c.describe()
                );
            }
        }
    }

    #[test]
    fn one_lagging_tenant_fails_even_when_the_aggregate_wins() {
        let base = BenchReport::from_json(BASELINES[2].1).expect("baseline parses");
        let checks = cluster_mt_checks();
        let lag = with(
            &base,
            "tenant1.medusa.ttft_p99_us",
            base.get("tenant1.vanilla.ttft_p99_us").expect("tenant 1"),
        );
        assert!(lag.get("medusa.ttft_p99_us") < lag.get("vanilla.ttft_p99_us"));
        let out = gate(&lag, &base, &checks).unwrap_err();
        assert_eq!(verdict(&out, "medusa.ttft_p99_us"), "ok");
        assert!(check_failed(&out, &checks[1]), "{out}");
    }

    #[test]
    fn every_scenario_is_gated_in_ci_and_has_a_baseline() {
        let names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
        let ci_sh: Vec<&str> = include_str!("../../../ci.sh")
            .lines()
            .find_map(|l| l.strip_prefix("SCENARIOS=\"")?.strip_suffix('"'))
            .expect("ci.sh lists SCENARIOS")
            .split_whitespace()
            .collect();
        assert_eq!(ci_sh, names, "ci.sh SCENARIOS");
        let workflow: Vec<&str> = include_str!("../../../.github/workflows/ci.yml")
            .lines()
            .find_map(|l| l.trim().strip_prefix("gate: [")?.strip_suffix(']'))
            .expect("workflow has a gates matrix")
            .split(',')
            .map(str::trim)
            .collect();
        assert_eq!(
            workflow,
            [&["golden"][..], &names].concat(),
            "workflow gates"
        );
        assert_eq!(BASELINES.map(|b| b.0), names.as_slice());
        for (name, json, ..) in BASELINES {
            let r = BenchReport::from_json(json).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(r.scenario, name);
        }
    }

    #[test]
    fn every_scenario_but_scale_passes_its_checks_and_repeats() {
        // `scale` is sized for release builds; CI gates it there. One
        // thread per scenario keeps the debug-build wall time down.
        std::thread::scope(|threads| {
            for s in SCENARIOS.iter().filter(|s| s.name != "scale") {
                threads.spawn(move || {
                    let fresh = (s.run)();
                    assert_eq!(fresh.scenario, s.name);
                    if let Err(e) = gate(&fresh, &fresh, &(s.checks)()) {
                        panic!("{}: {e}", s.name);
                    }
                    // These three record only simulated values, so a
                    // second run must repeat the whole report.
                    if matches!(s.name, "coldstart" | "cluster" | "cluster_multitenant") {
                        assert_eq!(fresh, (s.run)(), "{}: must be run-invariant", s.name);
                    }
                });
            }
        });
    }
}
