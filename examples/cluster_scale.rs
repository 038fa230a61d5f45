//! Large-fleet scale demo: a thousand-node serverless fleet absorbing ten
//! thousand requests per second, simulated through the discrete-event core
//! in wall-clock seconds.
//!
//! This is the regime the paper's fleet argument actually lives in —
//! cheap materialized cold starts only matter when a scheduler is waking
//! and retiring instances constantly — and the regime a naive
//! step-the-world simulator cannot reach. The event core keeps per-event
//! cost near-flat in the fleet size (binary-heap queue, routing decisions
//! answered from an incremental node index instead of a scan of every
//! node), so millions of events replay faster than real time.
//!
//! Run with: `cargo run --release --example cluster_scale [nodes] [rps]`

use medusa::{Parallelism, Strategy};
use medusa_gpu::{CostModel, GpuSpec};
use medusa_model::ModelSpec;
use medusa_serving::{simulate_fleet, ClusterSpec, FleetProfile, Policy};
use medusa_workload::TraceConfig;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let nodes: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(1000);
    let rps: f64 = args
        .next()
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(10_000.0);
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
        77,
    )?;
    let vanilla = FleetProfile::measure(
        Strategy::Vanilla,
        &spec,
        gpu,
        cost,
        1,
        Parallelism::Overlapped,
        77,
    )?;

    // Interactive workload (short prompts, short outputs) so the offered
    // load is dominated by arrival churn, not decode length — the
    // worst case for schedulers and the best case for cheap cold starts.
    let trace = TraceConfig::interactive(rps, 100.0)
        .with_seed(77)
        .generate();
    println!(
        "replaying {} requests ({rps} rps offered) on {nodes} nodes:\n",
        trace.len()
    );
    println!(
        "{:<10} {:>9} {:>12} {:>12} {:>12} {:>11} {:>9}",
        "fleet", "colds", "ttft p50", "ttft p99", "events", "events/s", "wall"
    );
    let mut rows = Vec::new();
    for (label, profile) in [("medusa", &medusa), ("vanilla", &vanilla)] {
        let cluster = ClusterSpec::uniform(nodes).with_cached_prefix(nodes);
        let start = Instant::now();
        let out = simulate_fleet(profile, &cluster, Policy::ColdStartAware, &trace);
        let wall = start.elapsed().as_secs_f64();
        let r = &out.report;
        assert_eq!(
            out.conservation_residual(),
            0,
            "every arrival must be completed, queued, or in flight"
        );
        println!(
            "{:<10} {:>9} {:>10.1}ms {:>10.1}ms {:>12} {:>11.0} {:>8.1}s",
            label,
            r.cold_starts,
            r.ttft_p50_us as f64 / 1e3,
            r.ttft_p99_us as f64 / 1e3,
            out.stats.events_processed,
            out.stats.events_processed as f64 / wall.max(1e-9),
            wall
        );
        rows.push(r.ttft_p99_us);
    }
    println!(
        "\nmedusa ttft p99 {:.1}ms vs vanilla {:.1}ms — materialization keeps\n\
         the tail down even when the autoscaler churns instances at fleet scale.",
        rows[0] as f64 / 1e3,
        rows[1] as f64 / 1e3
    );
    Ok(())
}
