//! End-to-end telemetry determinism: because every recorded value derives
//! from the simulated clock, two cold starts with the same seed must export
//! **byte-identical** Prometheus and Chrome telemetry — even when the run
//! itself used real host threads (overlapped / tensor-parallel modes).

use std::collections::HashMap;

use medusa::{materialize_offline, ColdStart, Parallelism, Strategy};
use medusa_gpu::{CostModel, GpuSpec};
use medusa_model::ModelSpec;
use medusa_telemetry::export::{chrome, prometheus};
use medusa_telemetry::{bucket_bounds_us, Registry, Snapshot};

const SEED: u64 = 2024;

fn spec() -> ModelSpec {
    ModelSpec::by_name("Qwen1.5-0.5B").expect("catalog model")
}

/// One traced Medusa cold start (single rank) on a fixed seed.
fn traced_cold_start() -> (Snapshot, medusa::ColdStartReport) {
    let s = spec();
    let (artifact, _) =
        materialize_offline(&s, GpuSpec::a100_40gb(), CostModel::default(), SEED).expect("offline");
    let tele = Registry::new();
    let (_engine, report) = ColdStart::new(&s)
        .strategy(Strategy::Medusa)
        .artifact(&artifact)
        .seed(SEED)
        .telemetry(&tele)
        .run()
        .expect("cold start")
        .into_single();
    (tele.snapshot(), report)
}

/// One traced tp=2 pipelined cold start — rank work runs on real threads,
/// so this exercises the interleaving-independence of the registry.
fn traced_tp_cold_start() -> Snapshot {
    let s = spec();
    let gpu = GpuSpec::a100_40gb();
    let cost = CostModel::default();
    let (arts, _) = ColdStart::new(&s)
        .gpu(gpu.clone())
        .cost(cost.clone())
        .tp(2)
        .parallelism(Parallelism::PipelinedTp)
        .materialize(SEED)
        .expect("tp offline");
    let tele = Registry::new();
    ColdStart::new(&s)
        .strategy(Strategy::Medusa)
        .gpu(gpu)
        .cost(cost)
        .seed(SEED + 1)
        .warm(true)
        .parallelism(Parallelism::PipelinedTp)
        .artifacts(&arts)
        .telemetry(&tele)
        .run()
        .expect("tp cold start");
    tele.snapshot()
}

#[test]
fn same_seed_exports_are_byte_identical() {
    let (a, _) = traced_cold_start();
    let (b, _) = traced_cold_start();
    assert_eq!(
        prometheus::render(&a),
        prometheus::render(&b),
        "Prometheus export must be reproducible"
    );
    assert_eq!(
        chrome::render(&a),
        chrome::render(&b),
        "Chrome trace export must be reproducible"
    );
}

#[test]
fn threaded_tp_exports_are_byte_identical() {
    let a = traced_tp_cold_start();
    let b = traced_tp_cold_start();
    assert_eq!(prometheus::render(&a), prometheus::render(&b));
    assert_eq!(chrome::render(&a), chrome::render(&b));
}

#[test]
fn histogram_bucket_bounds_are_stable() {
    // The exact 1-2-5 decade series, in µs. Changing these silently breaks
    // baseline comparability of every committed histogram — so the full
    // array is pinned here.
    assert_eq!(
        bucket_bounds_us(),
        [
            1,
            2,
            5,
            10,
            20,
            50,
            100,
            200,
            500,
            1_000,
            2_000,
            5_000,
            10_000,
            20_000,
            50_000,
            100_000,
            200_000,
            500_000,
            1_000_000,
            2_000_000,
            5_000_000,
            10_000_000,
            20_000_000,
            50_000_000,
            100_000_000,
            200_000_000,
            500_000_000,
            1_000_000_000,
            2_000_000_000,
            5_000_000_000,
        ]
    );
}

#[test]
fn span_parentage_matches_engine_critical_path() {
    let (snap, report) = traced_cold_start();
    let parents: HashMap<&str, Option<&str>> = snap
        .spans
        .iter()
        .map(|s| (s.name.as_str(), s.parent.as_deref()))
        .collect();
    assert_eq!(parents.len(), snap.spans.len(), "span names must be unique");

    let cp: Vec<String> = report.critical_path.iter().map(|s| s.to_string()).collect();
    assert!(!cp.is_empty(), "loading phase must have a critical path");
    // First token is gated by the end of the loading-phase critical path.
    assert_eq!(
        parents["first token"],
        cp.last().map(String::as_str),
        "first token must chain to the last critical-path stage"
    );
    // Interior critical-path stages chain to their binding predecessor —
    // the same walk Schedule::critical_path performs inside the engine.
    for pair in cp.windows(2) {
        assert_eq!(
            parents[pair[1].as_str()],
            Some(pair[0].as_str()),
            "critical-path stage `{}` must be parented to `{}`",
            pair[1],
            pair[0]
        );
    }
    // Every recorded span is reachable: it either roots the trace or names
    // a parent that exists.
    for span in &snap.spans {
        if let Some(p) = &span.parent {
            assert!(parents.contains_key(p.as_str()), "dangling parent `{p}`");
        }
    }
}

#[test]
fn chrome_export_is_valid_json_and_covers_all_loading_stages() {
    let (snap, _) = traced_cold_start();
    let json = chrome::render(&snap);
    serde_json::from_str::<serde::Value>(&json).expect("chrome trace must be valid JSON");
    // The paper's five loading stages, plus the bracketing runtime init and
    // first token, must all appear as complete events.
    for stage in [
        "structure init",
        "weights load",
        "tokenizer load",
        "kv cache init",
        "capturing",
        "runtime init",
        "first token",
    ] {
        assert!(
            json.contains(&format!("\"name\":\"{stage}\"")),
            "chrome trace must contain a `{stage}` event"
        );
    }
}

/// FNV-1a 64-bit over `text`.
fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One fleet run's line: digests of its report JSON, its Prometheus
/// export and its Chrome export.
fn fleet_line(
    name: &str,
    profile: &medusa_serving::FleetProfile,
    cluster: &medusa_serving::ClusterSpec,
    policy: medusa_serving::Policy,
    trace: &[medusa_workload::Request],
) -> String {
    let tele = Registry::new();
    let out = medusa_serving::simulate_fleet_traced(profile, cluster, policy, trace, Some(&tele));
    let snap = tele.snapshot();
    format!(
        "{name} report={:016x} prom={:016x} chrome={:016x}",
        fnv1a(&out.report.to_json()),
        fnv1a(&prometheus::render(&snap)),
        fnv1a(&chrome::render(&snap)),
    )
}

/// The telemetry exports of four fleets that between them reach every
/// fleet counter, span kind and histogram, pinned byte for byte, so a
/// change to how the fleet publishes telemetry shows as the lines it
/// moves.
#[test]
fn fleet_exports_are_pinned() {
    use medusa_gpu::SimDuration;
    use medusa_serving::{
        CacheCapacity, CacheConfig, ClusterFaults, ClusterSpec, EvictionPolicy, FetchUnit,
        FleetProfile, ModelManifest, PerfModel, Policy, PrewarmConfig, PrewarmPolicy,
        RegistryCatalog, RegistryMode,
    };
    use medusa_workload::{ArrivalPattern, ModelMix, TraceConfig};

    let perf = PerfModel::from_tables(
        Strategy::Medusa,
        "toy",
        SimDuration::from_millis(400),
        vec![1, 8, 32],
        vec![
            SimDuration::from_millis(5),
            SimDuration::from_millis(6),
            SimDuration::from_millis(8),
        ],
        vec![
            (100, SimDuration::from_millis(20)),
            (200, SimDuration::from_millis(40)),
        ],
    );
    let profile = FleetProfile::from_perf(Strategy::Medusa, perf)
        .with_fetch(SimDuration::from_millis(300))
        .with_degraded_loading(SimDuration::from_millis(900));
    let bursty = |rps: f64, seconds: f64, seed: u64| {
        TraceConfig::sharegpt(rps, seconds)
            .with_seed(seed)
            .with_pattern(ArrivalPattern::sharegpt_bursty())
    };
    let faults = |registry_fail_per_mille: u32, node_crash_per_mille: u32| ClusterFaults {
        seed: 3,
        registry_fail_per_mille,
        node_crash_per_mille,
    };
    let mut lines = Vec::new();

    // Single tenant, two of four caches seeded, over a one-chunk catalog:
    // a start fetches only on a cache miss, so no chunk is ever resident.
    let monolithic = RegistryCatalog::monolithic(&[profile.artifact_bytes_for(0)]);
    lines.push(fleet_line(
        "coldstart-aware/cached-prefix",
        &profile,
        &ClusterSpec::uniform(4)
            .with_cached_prefix(2)
            .with_registry_mode(RegistryMode::ContentAddressed(monolithic)),
        Policy::ColdStartAware,
        &bursty(8.0, 30.0, 42).generate(),
    ));

    // Six Zipf tenants over the chunk registry: every model shares a
    // 4-chunk template and owns 8 chunks; flaky fetches, crashes,
    // prewarm and a 2-artifact cost-aware cache.
    let tenants = profile.clone().with_scaled_models(6);
    let catalog = RegistryCatalog {
        models: (0..6u64)
            .map(|m| ModelManifest {
                units: (0..4)
                    .map(|t| FetchUnit {
                        digest: 0x7e3a_0000 | t,
                        bytes: 50_000_000,
                    })
                    .chain((0..8).map(|k| FetchUnit {
                        digest: (m << 32) | 0x5eed_0000 | k,
                        bytes: 30_000_000 + m * 5_000_000,
                    }))
                    .collect(),
            })
            .collect(),
    };
    let cluster = ClusterSpec::uniform(3)
        .with_registry_mode(RegistryMode::ContentAddressed(catalog))
        .with_faults(faults(350, 60))
        .with_prewarm(PrewarmConfig {
            policy: PrewarmPolicy::Histogram { percentile_pm: 950 },
            lead_s: 0.5,
        })
        .with_cache(CacheConfig {
            capacity: CacheCapacity::Artifacts(2),
            eviction: EvictionPolicy::CostAware,
        })
        .with_keep_alive(1.0);
    lines.push(fleet_line(
        "locality/cas-faults-prewarm",
        &tenants,
        &cluster,
        Policy::Locality,
        &TraceConfig::sharegpt(3.0, 60.0)
            .with_seed(7)
            .with_pattern(ArrivalPattern::Poisson)
            .with_models(ModelMix::zipf(6, 0.8))
            .generate(),
    ));

    // Pipeline-parallel starts (k = 2) under node crashes.
    lines.push(fleet_line(
        "pipeline/k2-crashes",
        &profile,
        &ClusterSpec::uniform(6)
            .with_faults(faults(0, 150))
            .with_keep_alive(5.0),
        Policy::Pipeline,
        &bursty(6.0, 20.0, 11).generate(),
    ));

    // tp = 2 workers over whole-artifact transfers.
    lines.push(fleet_line(
        "least-loaded/tp2-whole",
        &profile
            .clone()
            .with_coldstart_work(SimDuration::from_millis(800)),
        &ClusterSpec::uniform(4).with_tp(2),
        Policy::LeastLoaded,
        &bursty(6.0, 20.0, 5).generate(),
    ));

    let got = lines.join("\n");
    assert_eq!(
        got,
        [
            "coldstart-aware/cached-prefix report=310fca578a83c307 prom=51de005c82120548 chrome=9afd23b54036eca6",
            "locality/cas-faults-prewarm report=a27f3ca3da88ef20 prom=c17648bd9e894e5e chrome=b46c51eb398ac7ec",
            "pipeline/k2-crashes report=9d49145d24934b59 prom=a27fda1605af5efb chrome=d66d87169a47a0d9",
            "least-loaded/tp2-whole report=9b6fe2cc30cb7401 prom=c026c9dc3dcf6b49 chrome=eed2887eb45143a4",
        ]
        .join("\n")
    );
}

/// One trace over fleets of 100, 1,000 and 10,000 nodes exports the same
/// number of Prometheus lines and at most `ROUTE_SPANS` route spans, and
/// its per-node series name exactly the busiest nodes: the cardinality of
/// fleet telemetry does not grow with the fleet.
#[test]
fn fleet_telemetry_cardinality_does_not_grow_with_the_fleet() {
    use medusa_gpu::SimDuration;
    use medusa_serving::{
        ClusterSpec, FleetProfile, PerfModel, Policy, BUSIEST_NODES, ROUTE_SPANS,
    };
    use medusa_workload::Request;

    let perf = PerfModel::from_tables(
        Strategy::Medusa,
        "toy",
        SimDuration::from_millis(400),
        vec![1, 8, 32],
        vec![
            SimDuration::from_millis(5),
            SimDuration::from_millis(6),
            SimDuration::from_millis(8),
        ],
        vec![
            (100, SimDuration::from_millis(20)),
            (200, SimDuration::from_millis(40)),
        ],
    );
    let profile =
        FleetProfile::from_perf(Strategy::Medusa, perf).with_fetch(SimDuration::from_millis(300));
    // LeastLoaded wakes one node per request of the first wave, 48 in
    // all; every third one still decodes when the second wave lands on
    // the idle ones, so the busiest nodes are not the first eight.
    let request = |id: u64, arrival_s: u64, output_tokens: u32| Request {
        id,
        arrival_ns: arrival_s * 1_000_000_000,
        prompt_tokens: 100,
        output_tokens,
        model: 0,
    };
    let trace: Vec<Request> = (0..48)
        .map(|i| request(i, 0, if i % 3 == 0 { 2_000 } else { 1 }))
        .chain((48..72).map(|i| request(i, 5, 1)))
        .collect();

    let mut line_counts = Vec::new();
    for nodes in [100, 1_000, 10_000] {
        let tele = Registry::new();
        let out = medusa_serving::simulate_fleet_traced(
            &profile,
            &ClusterSpec::uniform(nodes),
            Policy::LeastLoaded,
            &trace,
            Some(&tele),
        );
        let snap = tele.snapshot();
        let busiest = out.report.busiest_nodes();
        assert_eq!(busiest.len(), BUSIEST_NODES);
        assert_ne!(busiest, (0..BUSIEST_NODES).collect::<Vec<_>>());
        let served = |i: usize| out.report.nodes[i].served;
        assert!(
            (0..nodes).filter(|&i| served(i) > 0).count() > BUSIEST_NODES,
            "more nodes than the busiest serve"
        );

        let prom = prometheus::render(&snap);
        line_counts.push(prom.lines().count());
        for metric in ["ttft_us", "queue_delay_us", "cold_starts_total"] {
            let mut named: Vec<usize> = snap
                .counters
                .iter()
                .map(|(name, _)| name)
                .chain(snap.histograms.iter().map(|(name, _)| name))
                .filter_map(|name| {
                    name.strip_prefix("cluster_node")?
                        .strip_suffix(&format!("_{metric}"))?
                        .parse()
                        .ok()
                })
                .collect();
            named.sort_unstable();
            assert_eq!(named, busiest, "{nodes} nodes: per-node {metric}");
            assert!(
                prom.contains(&format!("medusa_cluster_node_other_{metric}")),
                "{nodes} nodes: other {metric}"
            );
        }
        let routes = snap
            .spans
            .iter()
            .filter(|s| s.name.starts_with("route/"))
            .count();
        assert_eq!(routes, ROUTE_SPANS.min(trace.len()), "{nodes} nodes");
    }
    assert!(
        line_counts.windows(2).all(|w| w[0] == w[1]),
        "{line_counts:?}"
    );
}
