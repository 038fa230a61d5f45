//! Cold-start race: side-by-side stage timelines of all four strategies for
//! one model — an ASCII rendition of the paper's Figure 8.
//!
//! Run with: `cargo run --release --example cold_start_race [model]`

use medusa::{materialize_offline, ColdStart, Stage, Strategy};
use medusa_gpu::{CostModel, GpuSpec, SimTime};
use medusa_model::ModelSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "Qwen1.5-4B".to_string());
    let spec = ModelSpec::by_name(&model)
        .ok_or_else(|| format!("unknown model `{model}`; see ModelSpec::catalog()"))?;
    let gpu = GpuSpec::a100_40gb();
    let cost = CostModel::default();
    let (artifact, _) = materialize_offline(&spec, gpu.clone(), cost.clone(), 11)?;

    let mut reports = Vec::new();
    for strategy in Strategy::ALL {
        // Warm containers, as in the paper's trace experiments: the race is
        // about the loading phase.
        let mut builder = ColdStart::new(&spec)
            .strategy(strategy)
            .gpu(gpu.clone())
            .cost(cost.clone())
            .seed(12)
            .warm(true);
        if strategy == Strategy::Medusa {
            builder = builder.artifact(&artifact);
        }
        let (_, r) = builder.run()?.into_single();
        reports.push(r);
    }
    let horizon = reports
        .iter()
        .map(|r| r.loading.as_secs_f64())
        .fold(0.0f64, f64::max);

    const WIDTH: f64 = 64.0;
    let glyph = |s: Stage| match s {
        Stage::StructureInit => 'S',
        Stage::WeightsLoad => 'W',
        Stage::TokenizerLoad => 'T',
        Stage::KvCacheInit => 'K',
        Stage::Capture => 'C',
        _ => '?',
    };
    println!(
        "loading-phase race for {} (S=structure W=weights T=tokenizer K=kv-init C=capture)",
        spec.name()
    );
    println!("time axis: 0 .. {horizon:.2}s; lower lanes run concurrently with upper ones\n");
    for r in &reports {
        println!("{} — {:.3}s", r.strategy, r.loading.as_secs_f64());
        for span in &r.spans {
            if matches!(span.stage, Stage::RuntimeInit | Stage::FirstToken) {
                continue;
            }
            let from = ((span.start - SimTime::ZERO).as_secs_f64() / horizon * WIDTH) as usize;
            let to = (((span.end - SimTime::ZERO).as_secs_f64() / horizon * WIDTH) as usize)
                .max(from + 1);
            let mut lane = vec![' '; WIDTH as usize + 1];
            for c in lane.iter_mut().take(to).skip(from) {
                *c = glyph(span.stage);
            }
            println!(
                "  |{}| {:<14} {:.3}s",
                lane.iter().collect::<String>(),
                span.stage.to_string(),
                span.duration().as_secs_f64()
            );
        }
        println!();
    }
    println!("paper Fig. 8 (Qwen1.5 4B): vLLM 2.85s, vLLM+Async 2.48s, Medusa 1.67s");
    Ok(())
}
