//! End-to-end serving experiments on the paper's §7.5 testbed
//! ([`ClusterSpec::paper_testbed`]): the Figure 10 ordering on the paper's
//! models, and the Figure 10/11 shapes at test scale — Medusa must
//! dominate the TTFT tail under load.

use medusa::{materialize_offline, Strategy};
use medusa_gpu::{CostModel, GpuSpec};
use medusa_model::ModelSpec;
use medusa_serving::{simulate_fleet, ClusterReport, ClusterSpec, FleetProfile, PerfModel, Policy};
use medusa_workload::{Request, TraceConfig};

fn perf_for(model: &str, strategy: Strategy) -> PerfModel {
    let spec = ModelSpec::by_name(model).expect("catalog model");
    let art = match strategy {
        Strategy::Medusa => Some(
            materialize_offline(&spec, GpuSpec::a100_40gb(), CostModel::default(), 71)
                .expect("offline")
                .0,
        ),
        _ => None,
    };
    PerfModel::measure(
        strategy,
        &spec,
        GpuSpec::a100_40gb(),
        CostModel::default(),
        art.as_ref(),
        72,
    )
    .expect("measure")
}

fn serve(perf: PerfModel, trace: &[Request]) -> ClusterReport {
    let profile = FleetProfile::from_perf(perf.strategy, perf);
    simulate_fleet(
        &profile,
        &ClusterSpec::paper_testbed(),
        Policy::ColdStartAware,
        trace,
    )
    .report
}

fn run(strategy: Strategy, rps: f64) -> ClusterReport {
    let trace = TraceConfig::sharegpt(rps, 90.0).with_seed(5).generate();
    serve(perf_for("Qwen1.5-0.5B", strategy), &trace)
}

/// Completed requests per second of makespan.
fn throughput(r: &ClusterReport) -> f64 {
    r.completed as f64 / (r.makespan_ns as f64 / 1e9)
}

/// Figure 10 ordering at the paper's four points (Llama2-7B and
/// Qwen1.5-4B, 2 and 10 rps): on p99 TTFT, Medusa < w/o CUDA graph <
/// vLLM+Async < vLLM.
#[test]
fn fig10_p99_ttft_follows_the_papers_ordering() {
    let order = [
        Strategy::Medusa,
        Strategy::NoCudaGraph,
        Strategy::VanillaAsync,
        Strategy::Vanilla,
    ];
    for model in ["Llama2-7B", "Qwen1.5-4B"] {
        let perfs: Vec<PerfModel> = order.iter().map(|&s| perf_for(model, s)).collect();
        for rps in [2.0, 10.0] {
            let trace = TraceConfig::sharegpt(rps, 120.0).with_seed(42).generate();
            let p99: Vec<u64> = perfs
                .iter()
                .map(|p| serve(p.clone(), &trace).ttft_p99_us)
                .collect();
            for (pair, win) in order.windows(2).zip(p99.windows(2)) {
                assert!(
                    win[0] < win[1],
                    "{model} @ {rps} rps: {:?} p99 {} us must be below {:?} p99 {} us",
                    pair[0],
                    win[0],
                    pair[1],
                    win[1]
                );
            }
        }
    }
}

/// Figure 10 shape: Medusa's p99 TTFT beats every baseline at both load
/// levels, and all requests complete.
#[test]
fn medusa_dominates_p99_ttft() {
    for rps in [2.0, 8.0] {
        let vanilla = run(Strategy::Vanilla, rps);
        let asynch = run(Strategy::VanillaAsync, rps);
        let medusa = run(Strategy::Medusa, rps);
        let m = medusa.ttft_p99_us;
        assert!(
            m < asynch.ttft_p99_us && m < vanilla.ttft_p99_us,
            "medusa p99 {m} us must be lowest at {rps} rps"
        );
        assert!(
            asynch.ttft_p99_us < vanilla.ttft_p99_us,
            "async must beat vanilla"
        );
        assert_eq!(medusa.completed, medusa.offered, "no request may be lost");
    }
}

/// Figure 11 shape: the w/o-CUDA-graph strategy trades cold-start time for
/// permanently slower serving — at saturating load its achieved throughput
/// falls behind the graph-based strategies.
#[test]
fn no_graph_throughput_saturates_earlier() {
    let rps = 40.0;
    let with_graph = throughput(&run(Strategy::Medusa, rps));
    let without = throughput(&run(Strategy::NoCudaGraph, rps));
    assert!(
        with_graph > without * 1.1,
        "graphs must buy throughput: {with_graph} vs {without}"
    );
}

/// TTFT grows with offered load for every strategy (queueing). The mean is
/// the robust comparison: at trickle load the p99 is just the one request
/// that paid the initial cold start. Medusa's materialized cold start is
/// small enough that both operating points are effectively warm, so a
/// sub-percent tolerance absorbs queueing noise while still catching any
/// real inversion.
#[test]
fn ttft_grows_with_load() {
    for strategy in [Strategy::Vanilla, Strategy::Medusa] {
        let low = run(strategy, 1.0);
        let high = run(strategy, 30.0);
        assert!(
            high.ttft_mean_us as f64 >= low.ttft_mean_us as f64 * 0.99,
            "{strategy:?}: mean TTFT must not shrink under pressure ({} vs {} us)",
            high.ttft_mean_us,
            low.ttft_mean_us
        );
    }
}

/// Cold starts only happen when scale demands them: a trickle is served by
/// one instance.
#[test]
fn low_load_needs_single_instance() {
    let r = run(Strategy::Vanilla, 0.5);
    assert_eq!(r.cold_starts, 1);
}
