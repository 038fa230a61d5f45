//! Fleet-layer integration tests: scheduler policies, autoscaling, and the
//! determinism contract of the cluster simulator, driven end-to-end with
//! profiles measured from the real per-instance pipeline
//! ([`FleetProfile::measure`] runs the `medusa::ColdStart` builder) and
//! generated workload traces.

use medusa::{Parallelism, Strategy};
use medusa_gpu::{CostModel, GpuSpec, SimDuration};
use medusa_model::ModelSpec;
use medusa_serving::{
    simulate_fleet, simulate_fleet_traced, ClusterFaults, ClusterSpec, FetchPolicy, FleetProfile,
    PerfModel, Policy,
};
use medusa_telemetry::Registry;
use medusa_workload::{ArrivalPattern, TraceConfig};

fn measured(strategy: Strategy) -> FleetProfile {
    let spec = ModelSpec::by_name("Qwen1.5-0.5B").expect("catalog model");
    FleetProfile::measure(
        strategy,
        &spec,
        GpuSpec::a100_40gb(),
        CostModel::default(),
        1,
        Parallelism::Overlapped,
        11,
    )
    .expect("fleet profile")
}

fn synthetic(loading_ms: u64, fetch_ms: u64) -> FleetProfile {
    let perf = PerfModel::from_tables(
        Strategy::Medusa,
        "toy",
        SimDuration::from_millis(loading_ms),
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
    FleetProfile::from_perf(Strategy::Medusa, perf).with_fetch(SimDuration::from_millis(fetch_ms))
}

fn bursty_trace(seed: u64) -> Vec<medusa_workload::Request> {
    TraceConfig::sharegpt(8.0, 45.0)
        .with_seed(seed)
        .with_pattern(ArrivalPattern::sharegpt_bursty())
        .generate()
}

/// Same seed ⇒ byte-identical report JSON and byte-identical telemetry
/// exports (both formats) — the contract the CI perf gate stands on.
#[test]
fn same_seed_runs_are_byte_identical() {
    let profile = measured(Strategy::Medusa);
    let cluster = ClusterSpec::uniform(4).with_cached_prefix(2);
    let trace = bursty_trace(42);
    let run = || {
        let tele = Registry::new();
        let out = simulate_fleet_traced(
            &profile,
            &cluster,
            Policy::ColdStartAware,
            &trace,
            Some(&tele),
        );
        let snap = tele.snapshot();
        (
            out.report.to_json(),
            medusa_telemetry::export::prometheus::render(&snap),
            medusa_telemetry::export::chrome::render(&snap),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "report JSON must be byte-identical");
    assert_eq!(a.1, b.1, "prometheus export must be byte-identical");
    assert_eq!(a.2, b.2, "chrome trace must be byte-identical");
}

/// Different seeds produce different traces — and the report's embedded
/// fingerprint tells them apart.
#[test]
fn different_seeds_are_distinguishable() {
    let profile = synthetic(500, 200);
    let cluster = ClusterSpec::uniform(2);
    let a = simulate_fleet(&profile, &cluster, Policy::LeastLoaded, &bursty_trace(1));
    let b = simulate_fleet(&profile, &cluster, Policy::LeastLoaded, &bursty_trace(2));
    assert_ne!(a.report.trace_fingerprint, b.report.trace_fingerprint);
}

/// Under a bursty trace, cold-start-aware scheduling pays strictly fewer
/// cold starts than least-loaded, which fans bursts out across the fleet
/// and wakes workers that a packing policy never needs.
#[test]
fn coldstart_aware_strictly_beats_least_loaded_on_cold_starts() {
    let profile = measured(Strategy::Medusa);
    let cluster = ClusterSpec::uniform(4);
    let trace = bursty_trace(42);
    let ll = simulate_fleet(&profile, &cluster, Policy::LeastLoaded, &trace);
    let ca = simulate_fleet(&profile, &cluster, Policy::ColdStartAware, &trace);
    assert!(
        ca.report.cold_starts < ll.report.cold_starts,
        "coldstart-aware ({}) must beat least-loaded ({})",
        ca.report.cold_starts,
        ll.report.cold_starts
    );
    assert_eq!(ll.report.completed, ll.report.offered, "no request lost");
    assert_eq!(ca.report.completed, ca.report.offered, "no request lost");
}

/// Scale-to-zero then re-warm round-trips: the instance is torn down after
/// the keep-alive, but the node-local artifact cache survives, so the
/// second cold start skips the registry fetch.
#[test]
fn scale_to_zero_then_rewarm_round_trips() {
    let profile = synthetic(500, 300);
    let mut cluster = ClusterSpec::uniform(1);
    cluster.autoscaler.keep_alive_s = 5.0;
    let mk = |id: u64, at_ms: u64| medusa_workload::Request {
        id,
        arrival_ns: at_ms * 1_000_000,
        prompt_tokens: 100,
        output_tokens: 1,
        model: 0,
    };
    let trace = vec![mk(0, 0), mk(1, 30_000)];
    let out = simulate_fleet(&profile, &cluster, Policy::ColdStartAware, &trace);
    assert_eq!(out.report.cold_starts, 2, "node retired between requests");
    assert!(out.report.scale_to_zero_events >= 1);
    // Miss: fetch 300 + load 500 + prefill 20. Re-warm: load 500 + 20.
    assert_eq!(out.ttfts[0], SimDuration::from_millis(820));
    assert_eq!(out.ttfts[1], SimDuration::from_millis(520));
    assert!(out.report.nodes[0].cached_at_end);
}

/// A trace need not be sorted by arrival time: the drain horizon runs
/// from the latest arrival, not from the trace's last entry, so an early
/// request listed last is still served.
#[test]
fn unsorted_trace_serves_every_request() {
    let profile = synthetic(500, 300);
    let cluster = ClusterSpec::uniform(2);
    let mk = |id: u64, at_s: u64| medusa_workload::Request {
        id,
        arrival_ns: at_s * 1_000_000_000,
        prompt_tokens: 100,
        output_tokens: 1,
        model: 0,
    };
    let trace = vec![mk(0, 1_000), mk(1, 0)];
    let out = simulate_fleet(&profile, &cluster, Policy::ColdStartAware, &trace);
    assert_eq!(out.report.completed, 2, "a request was dropped");
    assert_eq!(out.stats.arrived, 2);
    assert!(!out.stats.horizon_truncated);
    assert_eq!(out.conservation_residual(), 0);
}

/// tp>1 workers cost `tp`× the aggregate rank work for the same wall-clock
/// service, and the measured tp=2 profile's cold-start work exceeds its
/// makespan (ranks restore concurrently but all burn cycles).
#[test]
fn tp_workers_aggregate_per_rank_work() {
    let spec = ModelSpec::by_name("Qwen1.5-0.5B").expect("catalog model");
    let tp2 = FleetProfile::measure(
        Strategy::Medusa,
        &spec,
        GpuSpec::a100_40gb(),
        CostModel::default(),
        2,
        Parallelism::Overlapped,
        11,
    )
    .expect("tp2 profile");
    assert!(
        tp2.coldstart_work > tp2.perf.loading,
        "aggregate rank work {} must exceed the overlapped makespan {}",
        tp2.coldstart_work.as_nanos(),
        tp2.perf.loading.as_nanos()
    );
    let trace = vec![medusa_workload::Request {
        id: 0,
        arrival_ns: 0,
        prompt_tokens: 100,
        output_tokens: 4,
        model: 0,
    }];
    let one = simulate_fleet(
        &tp2,
        &ClusterSpec::uniform(1),
        Policy::ColdStartAware,
        &trace,
    );
    let two = simulate_fleet(
        &tp2,
        &ClusterSpec::uniform(1).with_tp(2),
        Policy::ColdStartAware,
        &trace,
    );
    let (n1, n2) = (&one.report.nodes[0], &two.report.nodes[0]);
    assert_eq!(n1.busy_ns, n2.busy_ns, "same wall-clock serving time");
    // Serving work doubles at tp=2; cold-start work is the profile's
    // aggregate either way. So the tp=2 node's total strictly exceeds the
    // tp=1 node's by exactly one extra copy of the serving time.
    assert_eq!(n2.work_ns, n1.work_ns + n1.busy_ns);
    assert_eq!(one.ttfts, two.ttfts, "wall-clock TTFT is tp-invariant");
}

/// The autoscaler wakes extra nodes when the backlog exceeds the
/// per-live-node target queue depth, and respects scale_to_zero = false.
#[test]
fn autoscaler_knobs_shape_the_fleet() {
    let profile = synthetic(500, 0);
    let mut cluster = ClusterSpec::uniform(4);
    cluster.autoscaler.target_queue_depth = 2;
    cluster.max_running = 2;
    let trace: Vec<medusa_workload::Request> = (0..24)
        .map(|i| medusa_workload::Request {
            id: i,
            arrival_ns: 0,
            prompt_tokens: 100,
            output_tokens: 5,
            model: 0,
        })
        .collect();
    let out = simulate_fleet(&profile, &cluster, Policy::ColdStartAware, &trace);
    assert!(
        out.report.cold_starts >= 2,
        "backlog must wake extra nodes: {:?}",
        out.report
    );

    let mut pinned = ClusterSpec::uniform(1);
    pinned.autoscaler.scale_to_zero = false;
    pinned.autoscaler.keep_alive_s = 1.0;
    let sparse = vec![
        medusa_workload::Request {
            id: 0,
            arrival_ns: 0,
            prompt_tokens: 100,
            output_tokens: 1,
            model: 0,
        },
        medusa_workload::Request {
            id: 1,
            arrival_ns: 20_000_000_000,
            prompt_tokens: 100,
            output_tokens: 1,
            model: 0,
        },
    ];
    let out = simulate_fleet(&profile, &pinned, Policy::ColdStartAware, &sparse);
    assert_eq!(out.report.scale_to_zero_events, 0, "scale-to-zero disabled");
    assert_eq!(out.report.cold_starts, 1, "warm node is reused");
}

/// End-to-end Medusa vs vanilla with measured profiles: on the same burst
/// trace with pre-seeded caches, the Medusa fleet's TTFT tail beats the
/// vanilla fleet's (the fleet-level payoff of materialization).
#[test]
fn measured_medusa_fleet_beats_vanilla_on_the_tail() {
    let medusa = measured(Strategy::Medusa);
    let vanilla = measured(Strategy::Vanilla);
    assert!(
        medusa.perf.loading < vanilla.perf.loading,
        "materialized restore must load faster than a vanilla reload"
    );
    let cluster = ClusterSpec::uniform(4).with_cached_prefix(4);
    let trace = bursty_trace(42);
    let m = simulate_fleet(&medusa, &cluster, Policy::ColdStartAware, &trace);
    let v = simulate_fleet(&vanilla, &cluster, Policy::ColdStartAware, &trace);
    assert!(
        m.report.ttft_p99_us < v.report.ttft_p99_us,
        "medusa p99 {} µs must beat vanilla p99 {} µs",
        m.report.ttft_p99_us,
        v.report.ttft_p99_us
    );
}

/// A flaky artifact registry (30% of fetches time out) costs the Medusa
/// fleet retries, backoff, and even budget-exhausted degraded vanilla-path
/// starts on its cache-miss nodes — and the fleet *still* beats a clean
/// vanilla fleet on makespan and the TTFT tail, because the cached nodes'
/// fast materialized restores carry the ramp and the re-warm (§6/§7 at
/// fleet scale).
#[test]
fn flaky_registry_medusa_still_beats_vanilla_end_to_end() {
    let medusa = measured(Strategy::Medusa);
    let vanilla = measured(Strategy::Vanilla);
    // A 100 rps ramp deep enough that the backlog outruns the two cached
    // nodes' `max_running` and the autoscaler wakes the uncached nodes —
    // whose registry fetches the fault plan then fails — followed by a
    // quiet period past the keep-alive and one trailing request that
    // re-warms the scaled-to-zero fleet from the node-local cache.
    let mk = |id: u64, arrival_ns: u64| medusa_workload::Request {
        id,
        arrival_ns,
        prompt_tokens: 100,
        output_tokens: 4,
        model: 0,
    };
    let mut trace: Vec<medusa_workload::Request> =
        (0..8000).map(|i| mk(i, i * 10_000_000)).collect();
    trace.push(mk(8000, 95_000_000_000));
    let cluster = |faults| {
        let mut c = ClusterSpec::uniform(4)
            .with_cached_prefix(2)
            // Gentle timeouts keep each failed attempt cheap — the §7
            // resilience policy is what makes a 30%-flaky registry
            // survivable at all.
            .with_fetch_policy(FetchPolicy {
                timeout_s: 0.15,
                retry_budget: 3,
                backoff_base_s: 0.05,
                backoff_max_s: 0.2,
            })
            .with_faults(faults);
        c.autoscaler.keep_alive_s = 5.0;
        c
    };
    let healthy = cluster(ClusterFaults::default());
    let flaky = cluster(ClusterFaults {
        seed: 0,
        registry_fail_per_mille: 300,
        node_crash_per_mille: 0,
    });
    let v = simulate_fleet(&vanilla, &healthy, Policy::ColdStartAware, &trace);
    let m = simulate_fleet(&medusa, &flaky, Policy::ColdStartAware, &trace);
    // The scenario provably exercises the resilience path: retries rolled,
    // and at least one start exhausted its budget and degraded.
    assert!(m.report.fetch_retries > 0, "registry failures must roll");
    assert!(
        m.report.degraded_cold_starts > 0,
        "an exhausted budget must degrade a start to the vanilla path"
    );
    assert_eq!(m.report.completed, m.report.offered, "no request lost");
    assert_eq!(v.report.completed, v.report.offered, "no request lost");
    assert!(
        m.report.makespan_ns < v.report.makespan_ns,
        "medusa makespan {} ns must beat vanilla {} ns despite the flaky registry",
        m.report.makespan_ns,
        v.report.makespan_ns
    );
    assert!(
        m.report.ttft_p99_us < v.report.ttft_p99_us,
        "medusa p99 {} µs must beat vanilla p99 {} µs despite the flaky registry",
        m.report.ttft_p99_us,
        v.report.ttft_p99_us
    );
}
