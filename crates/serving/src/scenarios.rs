//! Canonical fleet scenarios for the event-core differential gate.
//!
//! The cluster simulator's regression oracle is byte-identical
//! [`ClusterReport`](crate::ClusterReport) JSON per seed. This module pins
//! down a seed × scheduler × fault matrix of small, fast, fully synthetic
//! fleet runs whose reports are committed under `results/golden/` — any
//! change to the simulator's observable semantics (event ordering,
//! autoscaler decisions, fault derivation, metric accounting) shows up as
//! a golden diff. Three consumers share this matrix:
//!
//! * `ci-check-bench golden <dir>` regenerates the reports (used to write
//!   `results/golden/` in the first place, and by `./ci.sh --gate golden`
//!   to diff against it);
//! * `tests/event_core.rs` replays every scenario through the event core
//!   and asserts byte-identity against both the committed goldens and a
//!   test-local reimplementation of the pre-refactor stepping semantics;
//! * humans bisecting a divergence, one scenario at a time.
//!
//! Profiles are synthetic ([`FleetProfile::from_perf`]) rather than
//! measured, so the matrix exercises only the fleet layer and runs in
//! milliseconds.

use crate::cluster::{
    CacheCapacity, CacheConfig, ClusterFaults, ClusterSpec, EvictionPolicy, FetchPolicy, FetchUnit,
    FleetProfile, ModelManifest, Policy, RegistryCatalog, RegistryMode,
};
use crate::params::PerfModel;
use crate::predict::{PrewarmConfig, PrewarmPolicy};
use medusa::Strategy;
use medusa_gpu::SimDuration;
use medusa_workload::{ArrivalPattern, ModelMix, Request, TraceConfig};

/// One pinned differential scenario: everything needed to reproduce one
/// fleet run whose report is committed as a golden.
pub struct Scenario {
    /// Stable scenario name (doubles as the golden file stem).
    pub name: String,
    /// Synthetic fleet cost profile.
    pub profile: FleetProfile,
    /// Fleet shape, autoscaler, registry policy, and fault plan.
    pub cluster: ClusterSpec,
    /// Scheduler policy under test.
    pub policy: Policy,
    /// The replayed request stream.
    pub trace: Vec<Request>,
}

/// Synthetic perf tables shared by every scenario profile.
fn perf(strategy: Strategy, loading_ms: u64) -> PerfModel {
    PerfModel::from_tables(
        strategy,
        "golden-toy",
        SimDuration::from_millis(loading_ms),
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
    )
}

/// The Medusa-side synthetic profile: fast local restore, a registry fetch
/// on cache miss, and a distinctly slower degraded (vanilla-path) load.
fn medusa_profile() -> FleetProfile {
    FleetProfile::from_perf(Strategy::Medusa, perf(Strategy::Medusa, 450))
        .with_fetch(SimDuration::from_millis(250))
        .with_degraded_loading(SimDuration::from_millis(1400))
}

/// The vanilla-side synthetic profile: slow reload, nothing to fetch.
fn vanilla_profile() -> FleetProfile {
    FleetProfile::from_perf(Strategy::Vanilla, perf(Strategy::Vanilla, 1400))
}

/// The fault plans the matrix crosses with seeds and policies.
fn fault_plans() -> Vec<(&'static str, ClusterFaults)> {
    vec![
        ("clean", ClusterFaults::default()),
        (
            "flaky",
            ClusterFaults {
                seed: 5,
                registry_fail_per_mille: 350,
                node_crash_per_mille: 0,
            },
        ),
        (
            "crashy",
            ClusterFaults {
                seed: 5,
                registry_fail_per_mille: 250,
                node_crash_per_mille: 120,
            },
        ),
    ]
}

/// Base fleet shape of the matrix: four nodes, one pre-seeded cache, a
/// short keep-alive (so bursty traces exercise scale-to-zero churn), and a
/// bounded flaky-registry policy.
fn base_cluster(faults: ClusterFaults) -> ClusterSpec {
    fleet_of(4, faults)
}

/// [`base_cluster`]'s shape over `nodes` nodes.
fn fleet_of(nodes: usize, faults: ClusterFaults) -> ClusterSpec {
    let mut c = ClusterSpec::uniform(nodes)
        .with_cached_prefix(1)
        .with_fetch_policy(FetchPolicy {
            timeout_s: 0.4,
            retry_budget: 2,
            backoff_base_s: 0.1,
            backoff_max_s: 0.8,
        })
        .with_faults(faults);
    c.autoscaler.keep_alive_s = 6.0;
    c.autoscaler.target_queue_depth = 3;
    c.max_running = 8;
    c
}

/// A bursty ShareGPT-shaped trace for one matrix seed.
fn trace(seed: u64) -> Vec<Request> {
    TraceConfig::sharegpt(6.0, 25.0)
        .with_seed(seed)
        .with_pattern(ArrivalPattern::sharegpt_bursty())
        .generate()
}

/// The pinned differential matrix: seeds × schedulers × fault plans on the
/// Medusa profile, plus vanilla-fleet and tp=2 spot checks.
pub fn differential_matrix() -> Vec<Scenario> {
    let mut out = Vec::new();
    for seed in [11u64, 42] {
        for policy in Policy::ALL {
            for (fault_name, faults) in fault_plans() {
                let policy_name = match policy {
                    Policy::RoundRobin => "round-robin",
                    Policy::LeastLoaded => "least-loaded",
                    Policy::ColdStartAware => "coldstart-aware",
                    // `Policy::ALL` never yields the predictive policies
                    // (the golden matrix is pinned); see its docs.
                    Policy::Locality | Policy::Pipeline => unreachable!("not in Policy::ALL"),
                };
                out.push(Scenario {
                    name: format!("s{seed}-{policy_name}-{fault_name}"),
                    profile: medusa_profile(),
                    cluster: base_cluster(faults),
                    policy,
                    trace: trace(seed),
                });
            }
        }
        // Vanilla fleet: no fetches, no cache, slow reloads.
        out.push(Scenario {
            name: format!("s{seed}-coldstart-aware-vanilla"),
            profile: vanilla_profile(),
            cluster: base_cluster(ClusterFaults::default()),
            policy: Policy::ColdStartAware,
            trace: trace(seed),
        });
    }
    // tp=2 workers: aggregate rank-work accounting.
    out.push(Scenario {
        name: "s42-least-loaded-tp2".to_string(),
        profile: medusa_profile().with_coldstart_work(SimDuration::from_millis(900)),
        cluster: {
            let mut c = base_cluster(ClusterFaults::default()).with_tp(2);
            c.max_running = 4;
            c
        },
        policy: Policy::LeastLoaded,
        trace: trace(42),
    });
    // Scale-to-zero churn: sparse arrivals against a 2 s keep-alive.
    out.push(Scenario {
        name: "s7-coldstart-aware-churn".to_string(),
        profile: medusa_profile(),
        cluster: {
            let mut c = base_cluster(ClusterFaults::default());
            c.autoscaler.keep_alive_s = 2.0;
            c
        },
        policy: Policy::ColdStartAware,
        trace: TraceConfig::sharegpt(0.8, 40.0).with_seed(7).generate(),
    });
    // Multi-tenant contention: Zipf-skewed traffic over six models against
    // a 2-artifact per-node cache, crossed seeds × eviction policies. The
    // reports carry per-tenant TTFT quantiles and cache counters, so any
    // drift in eviction order, model-affinity routing, or per-tenant
    // accounting shows up as a golden diff.
    for seed in [11u64, 42] {
        for eviction in [EvictionPolicy::Lru, EvictionPolicy::CostAware] {
            out.push(Scenario {
                name: format!("s{seed}-mt-zipf6-{}", eviction.name()),
                profile: medusa_profile().with_scaled_models(6),
                cluster: mt_cluster(ClusterFaults::default(), eviction),
                policy: Policy::ColdStartAware,
                trace: trace_mt(seed),
            });
        }
    }
    // The predictive policies and the content-addressed registry sit
    // outside `Policy::ALL` and the whole-artifact default, so they get
    // one pinned case each.
    out.push(Scenario {
        name: "s11-mt-locality-prewarm".to_string(),
        profile: medusa_profile().with_scaled_models(6),
        cluster: mt_cluster(ClusterFaults::default(), EvictionPolicy::CostAware).with_prewarm(
            PrewarmConfig {
                policy: PrewarmPolicy::Histogram { percentile_pm: 950 },
                lead_s: 0.5,
            },
        ),
        policy: Policy::Locality,
        trace: trace_mt(11),
    });
    out.push(Scenario {
        name: "s42-pipeline-k2-crashy".to_string(),
        profile: medusa_profile(),
        cluster: {
            let mut c = base_cluster(ClusterFaults {
                seed: 5,
                registry_fail_per_mille: 250,
                node_crash_per_mille: 120,
            })
            .with_pipeline(2);
            c.autoscaler.keep_alive_s = 0.5;
            c
        },
        policy: Policy::Pipeline,
        trace: TraceConfig::sharegpt(0.8, 40.0).with_seed(42).generate(),
    });
    out.push(Scenario {
        name: "s42-mt-cas-flaky".to_string(),
        profile: medusa_profile().with_scaled_models(6),
        cluster: mt_cluster(
            ClusterFaults {
                seed: 5,
                registry_fail_per_mille: 150,
                node_crash_per_mille: 0,
            },
            EvictionPolicy::CostAware,
        )
        .with_registry_mode(RegistryMode::ContentAddressed(catalog(6))),
        policy: Policy::ColdStartAware,
        trace: trace_mt(42),
    });
    // Pipeline starts over the content-addressed registry: the head's
    // per-chunk retry schedule, multi-tenant caches, and group crashes.
    out.push(Scenario {
        name: "s42-mt-pipeline-k3-cas-crashy".to_string(),
        profile: medusa_profile().with_scaled_models(6),
        cluster: mt_cluster(
            ClusterFaults {
                seed: 5,
                registry_fail_per_mille: 250,
                node_crash_per_mille: 120,
            },
            EvictionPolicy::CostAware,
        )
        .with_registry_mode(RegistryMode::ContentAddressed(catalog(6)))
        .with_pipeline(3),
        policy: Policy::Pipeline,
        trace: trace_mt(42),
    });
    // Locality routing priced from chunk residency, with prewarm and
    // per-chunk retries: the path of the multi-tenant host benchmark.
    out.push(Scenario {
        name: "s42-mt-locality-cas-prewarm-flaky".to_string(),
        profile: medusa_profile().with_scaled_models(6),
        cluster: mt_cluster(
            ClusterFaults {
                seed: 5,
                registry_fail_per_mille: 150,
                node_crash_per_mille: 0,
            },
            EvictionPolicy::CostAware,
        )
        .with_registry_mode(RegistryMode::ContentAddressed(catalog(6)))
        .with_prewarm(PrewarmConfig::default()),
        policy: Policy::Locality,
        trace: trace_mt(42),
    });
    // Twin requests: every request twice at the same nanosecond, so
    // nodes run in lockstep and iteration boundaries tie, against a
    // small batch bound that keeps the queue filling and emptying.
    out.push(Scenario {
        name: "s3-least-loaded-twins".to_string(),
        profile: medusa_profile(),
        cluster: twins_cluster(),
        policy: Policy::LeastLoaded,
        trace: twins(TraceConfig::interactive(6.0, 20.0).with_seed(3).generate()),
    });
    out.push(Scenario {
        name: "s5-mt-locality-twins".to_string(),
        profile: medusa_profile().with_scaled_models(4),
        cluster: twins_cluster(),
        policy: Policy::Locality,
        trace: twins(
            TraceConfig::sharegpt(5.0, 30.0)
                .with_seed(5)
                .with_models(ModelMix::zipf(4, 1.0))
                .generate(),
        ),
    });
    // Fleets over three 64-node words: cached holders and cold starts
    // past index 64, loads spread over several values, and a round-robin
    // rotation that wraps around a fleet of 130.
    out.push(Scenario {
        name: "s13-coldstart-aware-wide".to_string(),
        profile: medusa_profile(),
        cluster: {
            let mut c = fleet_of(WIDE, ClusterFaults::default())
                .with_cached_prefix(70)
                .with_keep_alive(1.0);
            c.max_running = 4;
            c
        },
        policy: Policy::ColdStartAware,
        trace: TraceConfig::sharegpt(40.0, 20.0)
            .with_seed(13)
            .with_pattern(ArrivalPattern::sharegpt_bursty())
            .generate(),
    });
    out.push(Scenario {
        name: "s17-mt-round-robin-wide-cas".to_string(),
        profile: medusa_profile().with_scaled_models(6),
        cluster: fleet_of(WIDE, ClusterFaults::default())
            .with_cache(CacheConfig {
                capacity: CacheCapacity::Artifacts(2),
                eviction: EvictionPolicy::CostAware,
            })
            .with_keep_alive(1.5)
            .with_registry_mode(RegistryMode::ContentAddressed(catalog(6))),
        policy: Policy::RoundRobin,
        trace: TraceConfig::sharegpt(50.0, 5.0)
            .with_seed(17)
            .with_models(ModelMix::Zipf { models: 6, s: 1.0 })
            .generate(),
    });
    out
}

/// Node count of the wide scenarios: three 64-bit words of node indices.
const WIDE: usize = 130;

/// The twin scenarios' fleet: [`base_cluster`] with two pre-seeded
/// caches, two running sequences per node and a 1 s keep-alive.
fn twins_cluster() -> ClusterSpec {
    let mut c = base_cluster(ClusterFaults::default())
        .with_cached_prefix(2)
        .with_keep_alive(1.0);
    c.max_running = 2;
    c
}

/// Every request of `trace` twice, with the same arrival, lengths and
/// model; request `k` becomes ids `2k` and `2k + 1`.
fn twins(trace: Vec<Request>) -> Vec<Request> {
    trace
        .into_iter()
        .flat_map(|r| [2 * r.id, 2 * r.id + 1].map(|id| Request { id, ..r }))
        .collect()
}

/// The multi-tenant fleet shape: [`base_cluster`] with 2-artifact caches
/// under `eviction` and a 1.5 s keep-alive.
fn mt_cluster(faults: ClusterFaults, eviction: EvictionPolicy) -> ClusterSpec {
    base_cluster(faults)
        .with_cache(CacheConfig {
            capacity: CacheCapacity::Artifacts(2),
            eviction,
        })
        .with_keep_alive(1.5)
}

/// A synthetic content-addressed catalog: every model shares four base
/// chunks and draws its fine-tune chunks from a pool of eight, so chunk
/// residency overlaps across tenants without being total.
fn catalog(models: u32) -> RegistryCatalog {
    RegistryCatalog {
        models: (0..u64::from(models))
            .map(|m| ModelManifest {
                units: (0..12u64)
                    .filter(|&d| d < 4 || (d + m) % 3 == 0)
                    .map(|d| FetchUnit {
                        digest: 0xc0 + d,
                        bytes: 1_000 + 250 * d,
                    })
                    .collect(),
            })
            .collect(),
    }
}

/// A Zipf-skewed six-model trace for the multi-tenant scenarios: sparse
/// enough that nodes churn through scale-to-zero (so the bounded cache
/// actually evicts), long enough that every tenant recurs.
fn trace_mt(seed: u64) -> Vec<Request> {
    TraceConfig::sharegpt(1.5, 60.0)
        .with_seed(seed)
        .with_models(ModelMix::Zipf { models: 6, s: 1.0 })
        .generate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::simulate_fleet;

    #[test]
    fn matrix_names_are_unique_and_runs_deterministic() {
        let matrix = differential_matrix();
        let mut names: Vec<&str> = matrix.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), matrix.len(), "duplicate scenario names");
        let s = &matrix[0];
        let a = simulate_fleet(&s.profile, &s.cluster, s.policy, &s.trace);
        let b = simulate_fleet(&s.profile, &s.cluster, s.policy, &s.trace);
        assert_eq!(a.report.to_json(), b.report.to_json());
    }
}
