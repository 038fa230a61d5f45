//! Quickstart: materialize a model offline once, then compare a vanilla
//! cold start against a Medusa cold start restoring the materialized state.
//!
//! Run with: `cargo run --release --example quickstart`

use medusa::{materialize_offline, ColdStart, Parallelism, Stage, Strategy};
use medusa_gpu::{CostModel, GpuSpec};
use medusa_model::ModelSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = ModelSpec::by_name("Qwen1.5-4B").expect("catalog model");
    let gpu = GpuSpec::a100_40gb();
    let cost = CostModel::default();

    // ---------------------------------------------------------- offline
    // Runs once per <GPU type, model type>: an instrumented cold start
    // captures all 35 decode graphs, then the analysis stage turns raw
    // pointers into indirect index pointers and kernel addresses into
    // mangled names (paper §3–§5).
    println!("offline phase for {} on {} ...", spec.name(), gpu.name());
    let (artifact, offline) = materialize_offline(&spec, gpu.clone(), cost.clone(), 1)?;
    println!(
        "  capturing {:.1}s + analysis {:.1}s = {:.1}s (simulated; paper Fig. 9: ~39s avg)",
        offline.capture.as_secs_f64(),
        offline.analysis.as_secs_f64(),
        offline.total().as_secs_f64()
    );
    println!(
        "  materialized {} graphs / {} nodes; {} pointer params, {} permanent buffers\n",
        artifact.graphs.len(),
        artifact.total_nodes(),
        artifact.stats.pointer_params,
        artifact.stats.permanent_buffers
    );

    // ----------------------------------------------------------- online
    // Two cold starts in *different* simulated processes (different seeds →
    // different library and buffer addresses): vanilla vs Medusa.
    let (_v_engine, vanilla) = ColdStart::new(&spec)
        .strategy(Strategy::Vanilla)
        .gpu(gpu.clone())
        .cost(cost.clone())
        .seed(2024)
        .run()?
        .into_single();
    let (mut m_engine, medusa) = ColdStart::new(&spec)
        .strategy(Strategy::Medusa)
        .gpu(gpu.clone())
        .cost(cost.clone())
        .seed(2024)
        .artifact(&artifact)
        .run()?
        .into_single();

    println!("cold start comparison ({}):", spec.name());
    for (name, r) in [("vanilla vLLM", &vanilla), ("Medusa", &medusa)] {
        println!(
            "  {:<14} loading {:.3}s (kv init {:.3}s, capturing {:.3}s), total {:.3}s",
            name,
            r.loading.as_secs_f64(),
            r.stage(Stage::KvCacheInit).as_secs_f64(),
            r.stage(Stage::Capture).as_secs_f64(),
            r.total.as_secs_f64()
        );
    }
    let reduction = 1.0 - medusa.loading.as_secs_f64() / vanilla.loading.as_secs_f64();
    println!(
        "  => loading-phase reduction: {:.1}% (paper Fig. 7: 42.5% avg)\n",
        100.0 * reduction
    );

    // ------------------------------------- parallel cold-start engine
    // Restoration stages run on a dependency-graph scheduler (DESIGN.md
    // §7); the builder's `parallelism` setter picks how much of the legal
    // overlap is exploited. Total work is mode-invariant at tp=1 — only
    // the layout on the timeline (and so the wall clock) changes.
    println!("parallelism knob (Medusa, same seed):");
    for mode in Parallelism::ALL {
        let (_, r) = ColdStart::new(&spec)
            .strategy(Strategy::Medusa)
            .gpu(gpu.clone())
            .cost(cost.clone())
            .seed(2024)
            .parallelism(mode)
            .artifact(&artifact)
            .run()?
            .into_single();
        let path: Vec<String> = r.critical_path.iter().map(|s| format!("{s:?}")).collect();
        println!(
            "  {:<26} loading {:.3}s  work {:.3}s  critical path: {}",
            mode.to_string(),
            r.loading.as_secs_f64(),
            r.work().as_secs_f64(),
            path.join(" -> ")
        );
    }
    println!();

    // The restored instance actually serves: run a prefill + a few decode
    // steps through the restored CUDA graphs.
    let ttft = m_engine.prefill(1, 161)?;
    let step = m_engine.decode_step(1)?;
    println!(
        "restored instance serves: prefill(161 tok) {:.1}ms, graph decode step {:.2}ms",
        ttft.as_millis_f64(),
        step.as_millis_f64()
    );
    Ok(())
}
