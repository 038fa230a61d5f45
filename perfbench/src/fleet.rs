//! `fleet_scale` and `fleet_tenants`: batch runs of the fleet simulator
//! over seeded open-loop traces (open loop in simulated time; on the host
//! each pass is one `simulate_fleet` call).

use crate::coldstart::materialize_traced;
use crate::spans::{in_span, Recorder, Scope};
use crate::{mean, median, ms, quantile, sorted, Report, Rng};
use medusa::{ArtifactTemplate, ChunkStore, MedusaResult, Parallelism, Strategy};
use medusa_gpu::{CostModel, GpuSpec};
use medusa_model::ModelSpec;
use medusa_serving::{
    simulate_fleet, simulate_fleet_traced, CacheCapacity, CacheConfig, ClusterFaults, ClusterSpec,
    EvictionPolicy, FleetOutcome, FleetProfile, Policy, PrewarmConfig, RegistryCatalog,
    RegistryMode,
};
use medusa_telemetry::export::{chrome, prometheus};
use medusa_workload::{ArrivalPattern, ModelMix, Request, TraceConfig};
use std::time::Instant;

#[derive(Clone, Copy)]
pub enum Shape {
    /// One tenant, 1000 pre-seeded nodes, Poisson arrivals: isolates
    /// routing and the event queue (the per-request node scan).
    Scale,
    /// Fewer nodes than tenants: the multi-tenant drain over a backlog,
    /// evictions, chunk dedup, fetch retries and prewarm.
    Tenants,
}

/// The model every node serves (each tenant is a fine-tuned sibling).
const MODEL: &str = "Qwen1.5-0.5B";

const SCALE_NODES: usize = 1000;
const SCALE_RPS: f64 = 2000.0;
const SCALE_DURATION_S: f64 = 60.0;

const TENANTS: u32 = 16;
const TENANT_NODES: usize = 14;
const TENANT_RPS: f64 = 10.0;
const TENANT_DURATION_S: f64 = 300.0;
/// How much host time a multi-tenant pass costs depends on how long the
/// backlog of its trace grows, which varies from trace to trace; a run
/// replays this many independent traces so that its figures average over
/// them.
const TENANT_TRACES: usize = 16;
/// Square-wave bursts: 6x the trough rate for a quarter of every 30 s.
const TENANT_BURSTS: ArrivalPattern = ArrivalPattern::Bursty {
    factor: 6.0,
    period_s: 30.0,
    duty: 0.25,
};
const TENANT_CACHE_ARTIFACTS: u32 = 2;
const TENANT_KEEP_ALIVE_S: f64 = 4.0;
const TENANT_REGISTRY_FAIL_PER_MILLE: u32 = 2;
const FAMILY: &str = "qwen1.5-0.5b";
/// Seed of the deployment: the measured profile and the family store.
/// They are the program's state, not the workload's input, and fixing them
/// keeps the host cost of a pass a property of the seeded traces alone.
const DEPLOYMENT_SEED: u64 = 41;

/// Calibration samples taken after each cycle: a cycle lasts over a
/// second, and the run's calibration median needs more samples than the
/// dozen cycles a run holds.
const CALIBRATIONS_PER_CYCLE: usize = 4;

/// Every simulated pass in a run happens at least this often, so that two
/// passes over the same trace can be compared byte for byte.
const MIN_CYCLES: u64 = 2;

pub struct State {
    profile: FleetProfile,
    cluster: ClusterSpec,
    policy: Policy,
    traces: Vec<Vec<Request>>,
}

/// Builds the `TENANTS`-member family store: one base materialization,
/// its template, seed-derived fine-tune siblings, each member encoded and
/// packed, then the shared chunks factored and the store sealed.
fn family_store(cx: Option<Scope<'_>>, spec: &ModelSpec, seed: u64) -> MedusaResult<ChunkStore> {
    let (base, _) = materialize_traced(cx, spec, 1, seed)?;
    let (template, base_delta) = in_span(cx, "artifact.template_extract", || {
        ArtifactTemplate::extract(std::slice::from_ref(base.rank(0)), FAMILY)
    })?;
    let mut store = ChunkStore::new();
    for m in 0..TENANTS {
        let delta = match m {
            0 => base_delta.clone(),
            _ => base_delta.derive_variant(&format!("{MODEL}-v{m}"), seed ^ u64::from(m)),
        };
        for shard in in_span(cx, "artifact.template_instantiate", || {
            template.instantiate(&delta)
        })? {
            let bytes = in_span(cx, "artifact.maf2_encode", || shard.to_maf2())?;
            in_span(cx, "artifact.cdc_pack", || store.pack(&bytes))?;
        }
    }
    in_span(cx, "artifact.store_factor", || store.factor_family(FAMILY))?;
    in_span(cx, "artifact.store_seal", || store.encode());
    Ok(store)
}

fn build(shape: Shape, seed: u64, cx: Option<Scope<'_>>) -> MedusaResult<State> {
    let spec = ModelSpec::by_name(MODEL).expect("catalog model");
    let mut rng = Rng::new(seed ^ 0xf1ee_7000);
    let profile = in_span(cx, "serving.profile_measure", || {
        FleetProfile::measure(
            Strategy::Medusa,
            &spec,
            GpuSpec::a100_40gb(),
            CostModel::default(),
            1,
            Parallelism::Overlapped,
            DEPLOYMENT_SEED,
        )
    })?;
    Ok(match shape {
        Shape::Scale => {
            let trace_seed = rng.next_u64();
            let trace = in_span(cx, "workload.generate", || {
                TraceConfig::interactive(SCALE_RPS, SCALE_DURATION_S)
                    .with_seed(trace_seed)
                    .generate()
            });
            State {
                profile,
                cluster: ClusterSpec::uniform(SCALE_NODES).with_cached_prefix(SCALE_NODES),
                policy: Policy::ColdStartAware,
                traces: vec![trace],
            }
        }
        Shape::Tenants => {
            let store = family_store(cx, &spec, DEPLOYMENT_SEED)?;
            let traces = (0..TENANT_TRACES)
                .map(|_| {
                    let trace_seed = rng.next_u64();
                    in_span(cx, "workload.generate", || {
                        TraceConfig::interactive(TENANT_RPS, TENANT_DURATION_S)
                            .with_seed(trace_seed)
                            .with_pattern(TENANT_BURSTS)
                            .with_models(ModelMix::zipf(TENANTS, 1.0))
                            .generate()
                    })
                })
                .collect();
            let cluster = ClusterSpec::uniform(TENANT_NODES)
                .with_cache(CacheConfig {
                    capacity: CacheCapacity::Artifacts(TENANT_CACHE_ARTIFACTS),
                    eviction: EvictionPolicy::CostAware,
                })
                .with_keep_alive(TENANT_KEEP_ALIVE_S)
                .with_registry_mode(RegistryMode::ContentAddressed(RegistryCatalog::from_store(
                    &store,
                )))
                .with_faults(ClusterFaults {
                    seed: rng.next_u64(),
                    registry_fail_per_mille: TENANT_REGISTRY_FAIL_PER_MILLE,
                    node_crash_per_mille: 0,
                })
                .with_prewarm(PrewarmConfig::default());
            State {
                profile: profile.with_scaled_models(TENANTS),
                cluster,
                policy: Policy::Locality,
                traces,
            }
        }
    })
}

/// Measures the profile, builds the registry store (tenants) and generates
/// the traces; traced set-ups record one root span each.
pub fn setup(
    shape: Shape,
    seed: u64,
    rec: Option<&Recorder>,
    repeat: u64,
) -> Result<State, String> {
    match rec {
        Some(rec) => rec
            .root(repeat)
            .span("fleet.setup", |cx| build(shape, seed, Some(cx))),
        None => build(shape, seed, None),
    }
    .map_err(|e| format!("fleet set-up: {e}"))
}

/// Correctness of one pass: nothing lost, everything completed, and the
/// report byte-identical to the first pass over the same trace.
fn check(out: &FleetOutcome, trace: &[Request], first_json: Option<&String>) -> Vec<String> {
    let mut bad = Vec::new();
    if out.conservation_residual() != 0 {
        bad.push(format!(
            "conservation residual {}",
            out.conservation_residual()
        ));
    }
    if out.report.completed != out.report.offered || out.report.offered != trace.len() {
        bad.push(format!(
            "completed {} of {} offered ({} in the trace)",
            out.report.completed,
            out.report.offered,
            trace.len()
        ));
    }
    if first_json.is_some_and(|j| *j != out.report.to_json()) {
        bad.push("same-seed pass produced a different ClusterReport".into());
    }
    bad
}

/// Replays every trace once per cycle for `seconds` (at least
/// [`MIN_CYCLES`] cycles). With a recorder, each cycle also runs a
/// telemetry-on pass over the first trace and exports it.
pub fn run(st: &State, seconds: f64, rec: Option<&Recorder>) -> Report {
    let mut report = Report::default();
    let mut first: Vec<FleetOutcome> = Vec::new();
    let mut jsons: Vec<String> = Vec::new();
    // Host ms of every pass, per trace.
    let mut pass_ms: Vec<Vec<f64>> = vec![Vec::new(); st.traces.len()];
    let mut traced_ms: Vec<f64> = Vec::new();
    let mut export_ms: Vec<f64> = Vec::new();
    let mut prom_lines = 0usize;
    let start = Instant::now();
    let mut cycle = 0u64;
    while cycle < MIN_CYCLES || start.elapsed().as_secs_f64() < seconds {
        let mut one_cycle = |cx: Option<Scope<'_>>| {
            for (i, trace) in st.traces.iter().enumerate() {
                report.attempted += 1;
                let t0 = Instant::now();
                let out = in_span(cx, "serving.simulate_fleet", || {
                    simulate_fleet(&st.profile, &st.cluster, st.policy, trace)
                });
                pass_ms[i].push(ms(t0.elapsed()));
                report.fail(check(&out, trace, jsons.get(i)));
                if jsons.len() == i {
                    jsons.push(out.report.to_json());
                    first.push(out);
                }
            }
            let Some(cx) = cx else { return };
            let tele = medusa_telemetry::Registry::new();
            let t0 = Instant::now();
            let out = cx.span("serving.simulate_fleet_traced", |_| {
                simulate_fleet_traced(
                    &st.profile,
                    &st.cluster,
                    st.policy,
                    &st.traces[0],
                    Some(&tele),
                )
            });
            traced_ms.push(ms(t0.elapsed()));
            let t0 = Instant::now();
            let prom = cx.span("telemetry.export", |_| {
                let snapshot = tele.snapshot();
                let trace_json = chrome::render(&snapshot);
                (prometheus::render(&snapshot), trace_json.len())
            });
            export_ms.push(ms(t0.elapsed()));
            prom_lines = prom.0.lines().count();
            report.attempted += 1;
            let mut bad = check(&out, &st.traces[0], jsons.first());
            bad.iter_mut()
                .for_each(|b| b.insert_str(0, "telemetry-on pass: "));
            report.fail(bad);
        };
        match rec {
            Some(rec) => rec
                .root(100 + cycle)
                .span("fleet.pass", |cx| one_cycle(Some(cx))),
            None => one_cycle(None),
        }
        cycle += 1;
        for _ in 0..CALIBRATIONS_PER_CYCLE {
            crate::calibrate(&mut report.calibration_ms);
        }
    }

    let requests: usize = st.traces.iter().map(Vec::len).sum();
    let ttft = sorted(
        first
            .iter()
            .flat_map(|o| o.ttfts.iter().map(|d| d.as_nanos() as f64 / 1e6))
            .collect(),
    );
    let slo_ms = st.cluster.slo_ttft_s * 1e3;
    let met = ttft.iter().filter(|&&v| v <= slo_ms).count();
    // Per trace, the median pass; across traces, the median again: how long
    // a pass takes depends on how far its trace's backlog grows, a heavy
    // tail that a mean over traces would carry into the figure.
    let trace_ms: Vec<f64> = pass_ms.iter().map(|p| median(p)).collect();
    let trace_rps: Vec<f64> = st
        .traces
        .iter()
        .zip(&trace_ms)
        .map(|(t, ms)| t.len() as f64 / (ms / 1e3))
        .collect();
    report.set("host_ms_p50", median(&trace_ms));
    report.set("req_per_s", median(&trace_rps));
    report.set("sim_ttft_ms_mean", mean(&ttft));
    report.set("sim_ttft_ms_p99", quantile(&ttft, 0.99));
    report.set(
        "slo_attained_pct",
        100.0 * met as f64 / requests.max(1) as f64,
    );
    report.notes.push(format!(
        "{} cycles of {} trace(s), {requests} requests per cycle, {:.1} s",
        cycle,
        st.traces.len(),
        start.elapsed().as_secs_f64()
    ));
    if let Some(rec) = rec {
        finish_traced(
            &mut report,
            rec,
            &first,
            &trace_ms,
            &traced_ms,
            &export_ms,
            prom_lines,
        );
    }
    report
}

/// Per-layer metrics of the traced run: fleet counters per pass, self time
/// of each set-up call per set-up, telemetry cost.
#[allow(clippy::too_many_arguments)]
fn finish_traced(
    report: &mut Report,
    rec: &Recorder,
    first: &[FleetOutcome],
    trace_ms: &[f64],
    traced_ms: &[f64],
    export_ms: &[f64],
    prom_lines: usize,
) {
    let per_pass =
        |f: &dyn Fn(&FleetOutcome) -> f64| mean(&first.iter().map(f).collect::<Vec<_>>());
    let sum = |f: &dyn Fn(&FleetOutcome) -> f64| first.iter().map(f).sum::<f64>();
    let pct = |num: f64, den: f64| if den > 0.0 { 100.0 * num / den } else { 0.0 };
    let events = sum(&|o| o.stats.events_processed as f64);
    report.set(
        "serving.events",
        per_pass(&|o| o.stats.events_processed as f64),
    );
    report.set(
        "serving.events_cancelled",
        per_pass(&|o| o.stats.events_cancelled as f64),
    );
    report.set(
        "serving.ns_per_event",
        trace_ms.iter().sum::<f64>() * 1e6 / events,
    );
    report.set(
        "serving.busy_pct",
        pct(
            sum(&|o| o.report.nodes.iter().map(|n| n.busy_ns as f64).sum()),
            sum(&|o| o.report.nodes.len() as f64 * o.report.makespan_ns as f64),
        ),
    );
    report.set(
        "serving.cold_starts",
        per_pass(&|o| o.report.cold_starts.into()),
    );
    report.set(
        "serving.scale_to_zero",
        per_pass(&|o| o.report.scale_to_zero_events.into()),
    );
    report.set(
        "serving.fetch_retries",
        per_pass(&|o| o.report.fetch_retries.into()),
    );
    report.set(
        "serving.degraded_cold_starts",
        per_pass(&|o| o.report.degraded_cold_starts.into()),
    );
    let cache = |f: &dyn Fn(&medusa_serving::CacheReport) -> u64| {
        sum(&|o| o.report.cache.map_or(0.0, |c| f(&c) as f64))
    };
    report.set(
        "serving.evictions",
        cache(&|c| c.evictions) / first.len() as f64,
    );
    report.set(
        "serving.cache_hit_pct",
        pct(cache(&|c| c.hits), cache(&|c| c.hits + c.misses)),
    );
    let reg = |f: &dyn Fn(&medusa_serving::RegistryReport) -> u64| {
        sum(&|o| o.report.registry.map_or(0.0, |r| f(&r) as f64))
    };
    report.set(
        "serving.chunk_hit_pct",
        pct(
            reg(&|r| r.chunk_hits),
            reg(&|r| r.chunk_hits + r.chunk_misses),
        ),
    );
    report.set(
        "serving.registry_mb_fetched",
        reg(&|r| r.bytes_fetched) / first.len() as f64 / (1u64 << 20) as f64,
    );
    let prewarm = |f: &dyn Fn(&medusa_serving::PrewarmReport) -> u64| {
        sum(&|o| o.report.prewarm.map_or(0.0, |p| f(&p) as f64))
    };
    report.set(
        "serving.prewarm_issued",
        prewarm(&|p| p.issued) / first.len() as f64,
    );
    report.set(
        "serving.prewarm_used_pct",
        pct(prewarm(&|p| p.issued - p.unused), prewarm(&|p| p.issued)),
    );
    report.set(
        "telemetry.overhead_pct",
        100.0 * (median(traced_ms) / trace_ms[0] - 1.0),
    );
    report.set("telemetry.export_ms", median(export_ms));
    report.set("telemetry.prom_lines", prom_lines as f64);

    let spans = rec.snapshot();
    let by_name = crate::spans::by_name(&spans);
    let setups = by_name.get("fleet.setup").map_or(1, |&(_, n)| n) as f64;
    for (name, &(self_ns, _)) in &by_name {
        let per_pass = ["fleet.", "serving.simulate", "telemetry."];
        if !per_pass.iter().any(|p| name.starts_with(p)) {
            report.set(format!("{name}_ms"), self_ns as f64 / 1e6 / setups);
        }
    }
    report.set("trace.coverage_pct", crate::spans::coverage_pct(&spans));
}
