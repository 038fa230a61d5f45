//! Concurrency and scale stress: many simultaneous cold starts on
//! distinct `ProcessRuntime`s must neither panic nor cross-talk, and the
//! event-driven fleet core must replay a large fleet's worth of events in
//! wall-clock seconds. Each stress thread's report is compared against a
//! single-threaded run of the identical configuration — any shared
//! mutable state between instances would show up as a timing or span
//! divergence.

use medusa::{materialize_offline, ColdStart, MaterializedState, Parallelism, Strategy};
use medusa_gpu::{CostModel, GpuSpec, SimDuration};
use medusa_model::ModelSpec;
use medusa_serving::{simulate_fleet, ClusterSpec, FleetProfile, PerfModel, Policy};
use medusa_workload::TraceConfig;

/// Sized-for-big-iron tests bail out (rather than thrash or time out) on
/// small hosts. Returns `true` when the test should be skipped; the skip
/// message names the core count the test needs, so a CI log reading
/// "needs >= N cores" is actionable rather than mysterious.
fn skip_below_cores(required: usize, test: &str) -> bool {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < required {
        eprintln!("skipping {test}: needs >= {required} cores, host has {cores}");
        return true;
    }
    false
}

fn spec() -> ModelSpec {
    ModelSpec::by_name("Qwen1.5-0.5B").expect("catalog model")
}

/// One cold start under the given configuration, reduced to a comparable
/// JSON fingerprint.
fn run_one(
    strategy: Strategy,
    mode: Parallelism,
    seed: u64,
    artifact: Option<&MaterializedState>,
) -> String {
    let s = spec();
    let mut builder = ColdStart::new(&s)
        .strategy(strategy)
        .seed(seed)
        .warm(true)
        .parallelism(mode);
    if let Some(a) = artifact {
        builder = builder.artifact(a);
    }
    let (_, report) = builder.run().expect("cold start").into_single();
    serde_json::to_string(&report).expect("encode report")
}

fn configs(n: usize) -> Vec<(Strategy, Parallelism, u64)> {
    let strategies = [
        Strategy::Medusa,
        Strategy::VanillaAsync,
        Strategy::Vanilla,
        Strategy::NoCudaGraph,
    ];
    (0..n)
        .map(|i| {
            (
                strategies[i % strategies.len()],
                Parallelism::ALL[i % 3],
                9000 + i as u64,
            )
        })
        .collect()
}

fn run_stress(n: usize) {
    let (artifact, _) =
        materialize_offline(&spec(), GpuSpec::a100_40gb(), CostModel::default(), 21)
            .expect("offline materialization");
    let configs = configs(n);
    // Ground truth, single-threaded.
    let expected: Vec<String> = configs
        .iter()
        .map(|&(s, m, seed)| run_one(s, m, seed, (s == Strategy::Medusa).then_some(&artifact)))
        .collect();
    // The same configurations, all at once on real threads.
    let observed: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = configs
            .iter()
            .map(|&(s, m, seed)| {
                let artifact = &artifact;
                scope
                    .spawn(move || run_one(s, m, seed, (s == Strategy::Medusa).then_some(artifact)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cold-start thread panicked"))
            .collect()
    });
    for (i, (exp, obs)) in expected.iter().zip(&observed).enumerate() {
        assert_eq!(
            exp, obs,
            "concurrent run {i} ({:?}/{}) diverged from its single-threaded twin",
            configs[i].0, configs[i].1
        );
    }
}

#[test]
fn concurrent_cold_starts_do_not_interfere() {
    run_stress(4);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "stress sized for --release; ci.sh runs it there"
)]
fn stress_sixteen_simultaneous_cold_starts() {
    if skip_below_cores(2, "stress_sixteen_simultaneous_cold_starts") {
        return;
    }
    run_stress(16);
}

/// Large-fleet scale gate: hundreds of nodes absorbing thousands of
/// requests per second through the event core, in wall-clock seconds.
/// Uses synthetic (millisecond-scale) cost tables so the test measures
/// the *simulator's* throughput, not the pipeline model's.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "scale gate sized for --release; ci.sh runs it there"
)]
fn large_fleet_event_core_replays_in_seconds() {
    if skip_below_cores(2, "large_fleet_event_core_replays_in_seconds") {
        return;
    }
    let perf = PerfModel::from_tables(
        Strategy::Medusa,
        "scale-toy",
        SimDuration::from_millis(450),
        vec![1, 8, 32],
        vec![
            SimDuration::from_millis(5),
            SimDuration::from_millis(6),
            SimDuration::from_millis(8),
        ],
        vec![
            (100, SimDuration::from_millis(20)),
            (400, SimDuration::from_millis(45)),
            (2048, SimDuration::from_millis(90)),
        ],
    );
    let profile = FleetProfile::from_perf(Strategy::Medusa, perf)
        .with_fetch(SimDuration::from_millis(250))
        .with_degraded_loading(SimDuration::from_millis(1400));
    let nodes = 512;
    let cluster = ClusterSpec::uniform(nodes).with_cached_prefix(nodes);
    let trace = TraceConfig::interactive(5000.0, 30.0)
        .with_seed(77)
        .generate();
    let start = std::time::Instant::now();
    let out = simulate_fleet(&profile, &cluster, Policy::ColdStartAware, &trace);
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(out.conservation_residual(), 0);
    assert_eq!(
        out.report.completed,
        trace.len(),
        "scale run must drain dry"
    );
    assert!(
        out.stats.events_processed as usize > trace.len(),
        "event count implausibly low: {}",
        out.stats.events_processed
    );
    assert!(
        wall < 60.0,
        "{nodes}-node fleet ({} requests, {} events) took {wall:.1}s — \
         event core has regressed past the scale budget",
        trace.len(),
        out.stats.events_processed
    );
}
