//! Shared helpers for the figure/table harnesses.

use medusa::{
    materialize_offline, ColdStart, ColdStartOptions, ColdStartReport, MaterializedState,
    OfflineReport, ReadyEngine, Strategy,
};
use medusa_gpu::{CostModel, GpuSpec, SimDuration};
use medusa_model::ModelSpec;
use medusa_serving::{simulate_fleet, ClusterReport, ClusterSpec, FleetProfile, PerfModel, Policy};
use medusa_workload::Request;

/// The evaluation GPU (paper §7: A100-40GB SXM4).
pub fn gpu() -> GpuSpec {
    GpuSpec::a100_40gb()
}

/// The calibrated cost model.
pub fn cost() -> CostModel {
    CostModel::default()
}

/// Deterministic offline seed per model.
pub fn offline_seed(spec: &ModelSpec) -> u64 {
    0x0ff1_ce00 + spec.layers() as u64 * 131 + spec.vocab() as u64
}

/// Deterministic online seed per model/strategy.
pub fn online_seed(spec: &ModelSpec, strategy: Strategy) -> u64 {
    0xc01d_0000 + spec.hidden() as u64 * 7 + strategy as u64
}

/// Runs the offline phase for `spec`.
pub fn offline(spec: &ModelSpec) -> (MaterializedState, OfflineReport) {
    materialize_offline(spec, gpu(), cost(), offline_seed(spec)).expect("offline phase")
}

/// Runs one cold start and returns the engine + report.
pub fn run_cold(
    strategy: Strategy,
    spec: &ModelSpec,
    artifact: Option<&MaterializedState>,
    warm_container: bool,
) -> (ReadyEngine, ColdStartReport) {
    let opts = ColdStartOptions {
        seed: online_seed(spec, strategy),
        warm_container,
        ..Default::default()
    };
    let mut builder = ColdStart::new(spec)
        .strategy(strategy)
        .gpu(gpu())
        .cost(cost())
        .options(opts);
    if let Some(a) = artifact {
        builder = builder.artifact(a);
    }
    builder.run().expect("cold start").into_single()
}

/// Replays `trace` on `cluster` (the paper's §7.5 testbed,
/// [`ClusterSpec::paper_testbed`], or a variant of it): every node launches
/// at `perf`'s measured loading cost and routing is cold-start-aware.
pub fn serve(perf: &PerfModel, cluster: &ClusterSpec, trace: &[Request]) -> ClusterReport {
    let profile = FleetProfile::from_perf(perf.strategy, perf.clone());
    simulate_fleet(&profile, cluster, Policy::ColdStartAware, trace).report
}

/// Seconds with 3 decimals.
pub fn s(d: SimDuration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Microseconds as seconds with 3 decimals.
pub fn s_us(us: u64) -> String {
    s(SimDuration::from_micros(us))
}

/// Percentage with 1 decimal.
pub fn pct(part: f64, whole: f64) -> String {
    if whole == 0.0 {
        return "-".to_string();
    }
    format!("{:.1}%", 100.0 * part / whole)
}

/// Runs `f` over all ten catalog models in parallel, preserving order.
pub fn for_all_models<T, F>(f: F) -> Vec<(ModelSpec, T)>
where
    T: Send,
    F: Fn(&ModelSpec) -> T + Sync,
{
    let specs = ModelSpec::catalog();
    let mut out: Vec<Option<(ModelSpec, T)>> = specs.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        for (slot, spec) in out.iter_mut().zip(&specs) {
            let f = &f;
            scope.spawn(move || {
                *slot = Some((spec.clone(), f(spec)));
            });
        }
    });
    out.into_iter().map(|o| o.expect("filled")).collect()
}
