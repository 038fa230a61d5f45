//! Fleet-level cold-start economics: run the same bursty trace through
//! Medusa fleets (cold vs pre-populated node-local artifact caches) and a
//! vanilla fleet under every scheduler policy, and compare makespan, TTFT
//! tails, and cold-start counts.
//!
//! What the paper's §6 sharing model implies at fleet scale: a Medusa node
//! whose local cache holds the `<GPU type, model type>` entry restores far
//! faster than a vanilla reload, while a cache miss additionally streams
//! the entry from the registry — so *where* the scheduler wakes nodes
//! matters (coldstart-aware prefers cached ones), and pre-seeding caches
//! makes aggressive scale-out nearly free.
//!
//! Run with: `cargo run --release --example cluster_fleet [rps]`

use medusa::{Parallelism, Strategy};
use medusa_gpu::{CostModel, GpuSpec};
use medusa_model::ModelSpec;
use medusa_serving::{
    simulate_fleet, ClusterFaults, ClusterSpec, FleetProfile, Policy, PrewarmConfig, PrewarmPolicy,
};
use medusa_workload::{ArrivalPattern, ModelMix, TraceConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rps: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(8.0);
    let spec = ModelSpec::by_name("Qwen1.5-0.5B").expect("catalog model");
    let gpu = GpuSpec::a100_40gb();
    let cost = CostModel::default();

    println!("measuring fleet profiles for {} ...", spec.name());
    let medusa = FleetProfile::measure(
        Strategy::Medusa,
        &spec,
        gpu.clone(),
        cost.clone(),
        1,
        Parallelism::Overlapped,
        7,
    )?;
    let vanilla = FleetProfile::measure(
        Strategy::Vanilla,
        &spec,
        gpu,
        cost,
        1,
        Parallelism::Overlapped,
        7,
    )?;
    println!(
        "  medusa  loading {:.3}s + fetch {:.3}s on cache miss",
        medusa.perf.loading.as_secs_f64(),
        medusa.fetch.as_secs_f64()
    );
    println!(
        "  vanilla loading {:.3}s (nothing to fetch, nothing cached)",
        vanilla.perf.loading.as_secs_f64()
    );

    // 4 workers under a 15x burst trace; fleets differ only in strategy
    // and how many node-local caches start populated.
    let trace = TraceConfig::sharegpt(rps, 60.0)
        .with_seed(42)
        .with_pattern(ArrivalPattern::sharegpt_bursty())
        .generate();
    println!(
        "\nreplaying {} requests ({} rps offered, 15x bursts) on 4 nodes:\n",
        trace.len(),
        rps
    );
    let fleets = [
        ("medusa/seeded", &medusa, 4usize), // every cache pre-populated
        ("medusa/1-cache", &medusa, 1),     // registry seeded one node
        ("vanilla", &vanilla, 0),
    ];
    println!(
        "{:<16} {:<16} {:>6} {:>10} {:>12} {:>12}",
        "fleet", "policy", "colds", "makespan", "ttft p50", "ttft p99"
    );
    for (label, profile, cached) in fleets {
        let cluster = ClusterSpec::uniform(4).with_cached_prefix(cached);
        for policy in Policy::ALL {
            let out = simulate_fleet(profile, &cluster, policy, &trace);
            let r = &out.report;
            println!(
                "{:<16} {:<16} {:>6} {:>9.3}s {:>10.1}ms {:>10.1}ms",
                label,
                r.policy,
                r.cold_starts,
                r.makespan_ns as f64 / 1e9,
                r.ttft_p50_us as f64 / 1e3,
                r.ttft_p99_us as f64 / 1e3
            );
        }
    }
    println!(
        "\npre-seeded caches make every Medusa cold start a cheap local\n\
         restore; with one seeded cache, coldstart-aware routes scale-ups\n\
         there first, while cold caches pay the registry fetch once."
    );

    // Unhappy path: a flaky artifact registry (30% of fetches time out).
    // Retries + backoff absorb the failures; exhausted budgets degrade
    // that cold start to a vanilla load — the fleet keeps serving either
    // way, and the report counts what the faults cost.
    let flaky = ClusterSpec::uniform(4).with_faults(ClusterFaults {
        seed: 9,
        registry_fail_per_mille: 300,
        ..Default::default()
    });
    let out = simulate_fleet(&medusa, &flaky, Policy::ColdStartAware, &trace);
    let r = &out.report;
    println!(
        "\nmedusa on a flaky registry (30% fetch failures, coldstart-aware):\n\
         {:>6} colds {:>9.3}s makespan {:>10.1}ms ttft p99; \
         {} fetch retries, {} degraded cold starts",
        r.cold_starts,
        r.makespan_ns as f64 / 1e9,
        r.ttft_p99_us as f64 / 1e3,
        r.fetch_retries,
        r.degraded_cold_starts
    );

    // Predictive race: the same bursty multi-tenant trace under the
    // reactive baseline, start-cost locality routing, locality plus the
    // histogram prewarm estimator, and pipeline-parallel cold starts —
    // the policy matrix the CI `policies` gate pins.
    let mt = medusa.clone().with_scaled_models(4);
    let mt_trace = TraceConfig::sharegpt(4.0, 120.0)
        .with_seed(42)
        .with_pattern(ArrivalPattern::sharegpt_bursty())
        .with_models(ModelMix::zipf(4, 1.0))
        .generate();
    let base = ClusterSpec::uniform(6).with_keep_alive(4.0);
    let races: [(&str, Policy, ClusterSpec); 4] = [
        ("reactive", Policy::ColdStartAware, base.clone()),
        ("locality", Policy::Locality, base.clone()),
        (
            // High percentile so the estimator targets the quiet gaps
            // *between* bursts; intra-burst gaps land while the node is
            // still warm and never turn into prewarms.
            "locality+prewarm",
            Policy::Locality,
            base.clone().with_prewarm(PrewarmConfig {
                policy: PrewarmPolicy::Histogram { percentile_pm: 950 },
                lead_s: 1.0,
            }),
        ),
        ("pipeline k=2", Policy::Pipeline, base.with_pipeline(2)),
    ];
    println!(
        "\npredictive policies, 4 Zipf tenants on 6 nodes (4s keep-alive):\n\
         {:<18} {:>6} {:>12} {:>12} {:>16} {:>9}",
        "scheduler", "colds", "ttft p50", "ttft p99", "prewarms (waste)", "sharded"
    );
    for (label, policy, cluster) in races {
        let out = simulate_fleet(&mt, &cluster, policy, &mt_trace);
        let r = &out.report;
        let prewarms = r
            .prewarm
            .as_ref()
            .map_or("-".to_string(), |p| format!("{} ({})", p.issued, p.unused));
        let sharded = r.pipeline_starts.map_or("-".to_string(), |n| n.to_string());
        println!(
            "{:<18} {:>6} {:>10.1}ms {:>10.1}ms {:>16} {:>9}",
            label,
            r.cold_starts,
            r.ttft_p50_us as f64 / 1e3,
            r.ttft_p99_us as f64 / 1e3,
            prewarms,
            sharded
        );
    }
    println!(
        "\nthe estimator schedules a cold start ahead of each forecast\n\
         arrival, so predictable bursts stop paying the cold-start tail;\n\
         pipeline mode shards each start across nodes, halving its span."
    );
    Ok(())
}
