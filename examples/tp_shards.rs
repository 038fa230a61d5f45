//! Tensor-parallel materialization (paper §8 extension): materialize and
//! restore a 2-way sharded instance — one artifact and one indirect index
//! pointer table per rank.
//!
//! Run with: `cargo run --release --example tp_shards [tp]`

use medusa::{ColdStart, Stage, Strategy};
use medusa_gpu::{CostModel, GpuSpec};
use medusa_model::ModelSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tp: u32 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(2);
    let spec = ModelSpec::by_name("Qwen1.5-4B").expect("catalog model");
    let gpu = GpuSpec::a100_40gb();
    let cost = CostModel::default();

    println!(
        "offline phase for {} with tp={tp} ({} ranks in parallel)...",
        spec.name(),
        tp
    );
    let (artifacts, report) = ColdStart::new(&spec)
        .gpu(gpu.clone())
        .cost(cost.clone())
        .tp(tp)
        .materialize(7)?;
    for artifact in artifacts.iter() {
        println!(
            "  rank {}/{}: {} graphs / {} nodes / {} replay ops / kv free {:.1} GiB",
            artifact.rank,
            artifact.tp,
            artifact.graphs.len(),
            artifact.total_nodes(),
            artifact.replay_ops.len(),
            artifact.kv_free_bytes as f64 / (1u64 << 30) as f64
        );
    }
    println!(
        "  slowest rank: {:.1}s offline (simulated)\n",
        report.total().as_secs_f64()
    );

    let vanilla = ColdStart::new(&spec)
        .strategy(Strategy::Vanilla)
        .gpu(gpu.clone())
        .cost(cost.clone())
        .warm(true)
        .tp(tp)
        .run()?;
    let medusa = ColdStart::new(&spec)
        .strategy(Strategy::Medusa)
        .gpu(gpu)
        .cost(cost)
        .warm(true)
        .artifacts(&artifacts)
        .run()?;

    println!("tensor-parallel cold start (instance ready when the slowest rank is):");
    for (name, run) in [("vanilla vLLM", &vanilla), ("Medusa", &medusa)] {
        println!("  {name}: loading {:.3}s", run.loading().as_secs_f64());
        for (rank, r) in run.reports.iter().enumerate() {
            println!(
                "    rank {rank}: weights {:.3}s, kv init {:.3}s, capturing {:.3}s",
                r.stage(Stage::WeightsLoad).as_secs_f64(),
                r.stage(Stage::KvCacheInit).as_secs_f64(),
                r.stage(Stage::Capture).as_secs_f64()
            );
        }
    }
    let reduction = 1.0 - medusa.loading().as_secs_f64() / vanilla.loading().as_secs_f64();
    println!("\nloading reduction at tp={tp}: {:.1}%", 100.0 * reduction);
    println!("(per-rank artifacts are rank-checked: shards cannot cross-restore)");
    Ok(())
}
