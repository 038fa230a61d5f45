//! Fuzz-style workload properties over the event-driven fleet core.
//!
//! Randomized fleets (size, policy, fault rates, keep-alive) absorb
//! randomized bursty traces, and every run must uphold the liveness and
//! conservation invariants the differential gate cannot see:
//!
//! * **No deadlock** — the simulation always drains (the dispatch loop
//!   returns; a wedged run would spin or hang forever).
//! * **Request conservation** — `arrivals == completed + queued_at_end +
//!   in_flight_at_end`, exactly, for every seed.
//! * **No node stuck `Starting`** — when the run drains dry (not
//!   truncated at the drain horizon), every cold start either completed
//!   or was crashed back to `Cold`; nothing is left mid-start.
//! * **Nothing left behind on a dry drain** — a non-truncated run
//!   completed every arrival; no request is marooned in a queue.
//!
//! Cases draw from all five policies and include multi-tenant Zipf traces
//! against bounded caches, both registry backends, prewarm, and pipeline
//! starts, so a debug build checks every routing-index path against the
//! node-by-node scan on every decision. Traces may have long outputs, so
//! nodes spend most of their time in runs of silent decode steps, and
//! twin requests (every request twice at the same nanosecond), so nodes
//! run in lockstep and runs split at tied boundaries; a debug build checks
//! the run invariants after every event.

use medusa::Strategy;
use medusa_gpu::SimDuration;
use medusa_serving::PerfModel;
use medusa_serving::{
    simulate_fleet, CacheCapacity, CacheConfig, ClusterFaults, ClusterSpec, EvictionPolicy,
    FetchPolicy, FetchUnit, FleetOutcome, FleetProfile, ModelManifest, Policy, PrewarmConfig,
    RegistryCatalog, RegistryMode,
};
use medusa_workload::{ArrivalPattern, LengthSampler, ModelMix, Request, TraceConfig};
use proptest::prelude::*;

/// Synthetic per-instance cost tables — milliseconds-scale so a whole
/// fuzz case simulates in well under a second of wall clock.
fn perf(strategy: Strategy, loading_ms: u64) -> PerfModel {
    PerfModel::from_tables(
        strategy,
        "fuzz-toy",
        SimDuration::from_millis(loading_ms),
        vec![1, 8, 32],
        vec![
            SimDuration::from_millis(4),
            SimDuration::from_millis(5),
            SimDuration::from_millis(7),
        ],
        vec![
            (100, SimDuration::from_millis(15)),
            (400, SimDuration::from_millis(40)),
            (2048, SimDuration::from_millis(80)),
        ],
    )
}

fn profile(medusa_side: bool) -> FleetProfile {
    if medusa_side {
        FleetProfile::from_perf(Strategy::Medusa, perf(Strategy::Medusa, 400))
            .with_fetch(SimDuration::from_millis(200))
            .with_degraded_loading(SimDuration::from_millis(1200))
    } else {
        FleetProfile::from_perf(Strategy::Vanilla, perf(Strategy::Vanilla, 1200))
    }
}

fn fleet(
    nodes: usize,
    cached: usize,
    keep_alive_s: f64,
    crash_pm: u32,
    regfail_pm: u32,
    seed: u64,
) -> ClusterSpec {
    let mut c = ClusterSpec::uniform(nodes)
        .with_cached_prefix(cached.min(nodes))
        .with_fetch_policy(FetchPolicy {
            timeout_s: 0.3,
            retry_budget: 2,
            backoff_base_s: 0.05,
            backoff_max_s: 0.4,
        })
        .with_faults(ClusterFaults {
            seed,
            registry_fail_per_mille: regfail_pm,
            node_crash_per_mille: crash_pm,
        });
    c.autoscaler.keep_alive_s = keep_alive_s;
    c.autoscaler.target_queue_depth = 2;
    c.max_running = 8;
    c
}

/// Every built-in policy: the golden-pinned ones and the predictive ones.
fn policy(idx: usize) -> Policy {
    let all: Vec<Policy> = Policy::ALL.into_iter().chain(Policy::PREDICTIVE).collect();
    all[idx % all.len()]
}

/// A content-addressed catalog where model `m` shares a template chunk
/// with every other model and adds one chunk of its own.
fn family_catalog(models: u32) -> RegistryCatalog {
    let unit = |digest: u64, bytes: u64| FetchUnit { digest, bytes };
    RegistryCatalog {
        models: (0..models)
            .map(|m| ModelManifest {
                units: vec![unit(0x7e, 3_000_000), unit(0xd0 + u64::from(m), 1_000_000)],
            })
            .collect(),
    }
}

/// Generates `config`'s trace, with long outputs instead of its own
/// lengths when `long_outputs`, and with every request twice (same
/// arrival, lengths and model) when `twins`.
fn shaped_trace(config: TraceConfig, long_outputs: bool, twins: bool) -> Vec<Request> {
    let config = if long_outputs {
        config.with_lengths(
            LengthSampler::new(64.0, 0.6, 8, 256),
            LengthSampler::new(200.0, 0.5, 40, 512),
        )
    } else {
        config
    };
    let trace = config.generate();
    if !twins {
        return trace;
    }
    trace
        .into_iter()
        .flat_map(|r| [2 * r.id, 2 * r.id + 1].map(|id| Request { id, ..r }))
        .collect()
}

/// The shared postcondition bundle every fuzz case must satisfy.
fn assert_fleet_invariants(out: &FleetOutcome, trace: &[Request], label: &str) {
    assert_eq!(
        out.conservation_residual(),
        0,
        "{label}: arrivals != completed + queued + in-flight"
    );
    assert!(
        out.stats.events_processed > 0,
        "{label}: simulation processed no events"
    );
    if !out.stats.horizon_truncated {
        // The run drained dry: nothing may be left mid-flight anywhere.
        assert_eq!(
            out.stats.starting_nodes_at_end, 0,
            "{label}: node stuck in Starting after a dry drain"
        );
        assert_eq!(
            out.stats.queued_at_end + out.stats.in_flight_at_end,
            0,
            "{label}: requests marooned after a dry drain"
        );
        assert_eq!(
            out.stats.arrived,
            trace.len(),
            "{label}: dry drain but arrivals were dropped"
        );
        assert_eq!(
            out.report.completed,
            trace.len(),
            "{label}: dry drain but not every request completed"
        );
    } else {
        assert!(
            out.report.completed <= trace.len(),
            "{label}: more completions than offered requests"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bursty traffic against randomized fleets with crash and
    /// registry-failure injection: conservation and liveness hold for
    /// every (seed, shape, policy, fault-rate) draw.
    #[test]
    fn bursty_faulty_fleets_conserve_requests(
        seed in any::<u64>(),
        nodes in 1usize..8,
        cached in 0usize..8,
        rps in 2.0f64..30.0,
        keep_alive_s in 0.5f64..8.0,
        policy_idx in 0usize..5,
        crash_pm in 0u32..300,
        regfail_pm in 0u32..500,
        medusa_side in any::<bool>(),
        long_outputs in any::<bool>(),
        twins in any::<bool>(),
    ) {
        let policy = policy(policy_idx);
        let cluster = fleet(nodes, cached, keep_alive_s, crash_pm, regfail_pm, seed);
        let trace = shaped_trace(
            TraceConfig::sharegpt(rps, 20.0)
                .with_seed(seed ^ 0x5eed_f00d)
                .with_pattern(ArrivalPattern::sharegpt_bursty()),
            long_outputs,
            twins,
        );
        let out = simulate_fleet(&profile(medusa_side), &cluster, policy, &trace);
        assert_fleet_invariants(&out, &trace, "bursty");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Scale-to-zero churn: sparse arrivals against a keep-alive shorter
    /// than the inter-arrival gaps, so nodes cycle Warm → Cold → Warm
    /// constantly (with crashes layered on top). The churn must never
    /// wedge a node mid-start or lose a request.
    #[test]
    fn scale_to_zero_churn_never_wedges(
        seed in any::<u64>(),
        nodes in 1usize..5,
        rps in 0.2f64..2.0,
        keep_alive_s in 0.3f64..2.0,
        crash_pm in 0u32..300,
    ) {
        let cluster = fleet(nodes, nodes / 2, keep_alive_s, crash_pm, 250, seed);
        let trace = TraceConfig::sharegpt(rps, 40.0)
            .with_seed(seed ^ 0xc0ffee)
            .generate();
        let out = simulate_fleet(
            &profile(true),
            &cluster,
            Policy::ColdStartAware,
            &trace,
        );
        // Sparse load against a sub-second keep-alive must actually churn
        // (unless the trace happens to be empty).
        if !trace.is_empty() {
            prop_assert!(
                out.report.cold_starts >= 1,
                "churn workload produced no cold starts"
            );
        }
        assert_fleet_invariants(&out, &trace, "churn");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Multi-tenant Zipf traffic against bounded caches: every policy,
    /// eviction policy and registry backend, with prewarm, pipeline starts
    /// and tensor-parallel workers drawn on top of crash and
    /// registry-failure injection.
    #[test]
    fn multi_tenant_bounded_cache_fleets_conserve_requests(
        seed in any::<u64>(),
        nodes in 1usize..8,
        models in 2u32..7,
        rps in 1.0f64..8.0,
        keep_alive_s in 0.5f64..6.0,
        policy_idx in 0usize..5,
        cache_cap in 1u32..4,
        eviction_idx in 0usize..3,
        cas in any::<bool>(),
        prewarm in any::<bool>(),
        pipeline_k in 0u32..4,
        crash_pm in 0u32..200,
        regfail_pm in 0u32..300,
        tp in 1u32..3,
        long_outputs in any::<bool>(),
        twins in any::<bool>(),
    ) {
        let mut cluster = fleet(nodes, nodes / 2, keep_alive_s, crash_pm, regfail_pm, seed)
            .with_tp(tp)
            .with_cache(CacheConfig {
                capacity: CacheCapacity::Artifacts(cache_cap),
                eviction: EvictionPolicy::ALL[eviction_idx],
            });
        if cas {
            cluster = cluster.with_registry_mode(RegistryMode::ContentAddressed(family_catalog(models)));
        }
        if prewarm {
            cluster = cluster.with_prewarm(PrewarmConfig::default());
        }
        if pipeline_k >= 2 {
            cluster = cluster.with_pipeline(pipeline_k);
        }
        let trace = shaped_trace(
            TraceConfig::sharegpt(rps, 20.0)
                .with_seed(seed ^ 0x7e4a_47f5)
                .with_models(ModelMix::zipf(models, 1.0))
                .with_pattern(ArrivalPattern::sharegpt_bursty()),
            long_outputs,
            twins,
        );
        let profile = profile(true).with_scaled_models(models);
        let out = simulate_fleet(&profile, &cluster, policy(policy_idx), &trace);
        assert_fleet_invariants(&out, &trace, "multi-tenant");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fleets of 65 to 139 nodes, so every node set of the routing index
    /// spans two or three 64-bit words: cached holders, cold rotations and
    /// live nodes past index 64, under every policy, both registry
    /// backends and multi-tenant traffic.
    #[test]
    fn wide_fleets_conserve_requests(
        seed in any::<u64>(),
        nodes in 65usize..140,
        cached in 0usize..140,
        models in 1u32..5,
        rps in 10.0f64..60.0,
        keep_alive_s in 0.5f64..4.0,
        policy_idx in 0usize..5,
        cas in any::<bool>(),
        crash_pm in 0u32..150,
    ) {
        let mut cluster = fleet(nodes, cached, keep_alive_s, crash_pm, 150, seed)
            .with_cache(CacheConfig {
                capacity: CacheCapacity::Artifacts(2),
                eviction: EvictionPolicy::CostAware,
            });
        cluster.max_running = 4;
        if cas {
            cluster = cluster.with_registry_mode(RegistryMode::ContentAddressed(family_catalog(models)));
        }
        let trace = TraceConfig::sharegpt(rps, 20.0)
            .with_seed(seed ^ 0x51de)
            .with_models(ModelMix::zipf(models, 1.0))
            .generate();
        let profile = profile(true).with_scaled_models(models);
        let out = simulate_fleet(&profile, &cluster, policy(policy_idx), &trace);
        assert_fleet_invariants(&out, &trace, "wide");
    }
}
