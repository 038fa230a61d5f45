//! End-to-end telemetry determinism: because every recorded value derives
//! from the simulated clock, two cold starts with the same seed must export
//! **byte-identical** Prometheus and Chrome telemetry — even when the run
//! itself used real host threads (overlapped / tensor-parallel modes).

use std::collections::HashMap;

use medusa::{materialize_offline, ColdStart, ColdStartOptions, Parallelism, Strategy};
use medusa_gpu::{CostModel, GpuSpec};
use medusa_model::ModelSpec;
use medusa_telemetry::export::{chrome, prometheus};
use medusa_telemetry::{bucket_bounds_us, Registry, Snapshot};

const SEED: u64 = 2024;

fn spec() -> ModelSpec {
    ModelSpec::by_name("Qwen1.5-0.5B").expect("catalog model")
}

/// One traced Medusa cold start (single rank) on a fixed seed.
fn traced_cold_start() -> (Snapshot, medusa::ColdStartReport) {
    let s = spec();
    let (artifact, _) =
        materialize_offline(&s, GpuSpec::a100_40gb(), CostModel::default(), SEED).expect("offline");
    let tele = Registry::new();
    let (_engine, report) = ColdStart::new(&s)
        .strategy(Strategy::Medusa)
        .artifact(&artifact)
        .seed(SEED)
        .telemetry(&tele)
        .run()
        .expect("cold start")
        .into_single();
    (tele.snapshot(), report)
}

/// One traced tp=2 pipelined cold start — rank work runs on real threads,
/// so this exercises the interleaving-independence of the registry.
fn traced_tp_cold_start() -> Snapshot {
    let s = spec();
    let gpu = GpuSpec::a100_40gb();
    let cost = CostModel::default();
    let (arts, _) = ColdStart::new(&s)
        .gpu(gpu.clone())
        .cost(cost.clone())
        .tp(2)
        .parallelism(Parallelism::PipelinedTp)
        .materialize(SEED)
        .expect("tp offline");
    let tele = Registry::new();
    ColdStart::new(&s)
        .strategy(Strategy::Medusa)
        .gpu(gpu)
        .cost(cost)
        .options(ColdStartOptions {
            seed: SEED + 1,
            warm_container: true,
            parallelism: Parallelism::PipelinedTp,
            ..Default::default()
        })
        .artifacts(&arts)
        .telemetry(&tele)
        .run()
        .expect("tp cold start");
    tele.snapshot()
}

#[test]
fn same_seed_exports_are_byte_identical() {
    let (a, _) = traced_cold_start();
    let (b, _) = traced_cold_start();
    assert_eq!(
        prometheus::render(&a),
        prometheus::render(&b),
        "Prometheus export must be reproducible"
    );
    assert_eq!(
        chrome::render(&a),
        chrome::render(&b),
        "Chrome trace export must be reproducible"
    );
}

#[test]
fn threaded_tp_exports_are_byte_identical() {
    let a = traced_tp_cold_start();
    let b = traced_tp_cold_start();
    assert_eq!(prometheus::render(&a), prometheus::render(&b));
    assert_eq!(chrome::render(&a), chrome::render(&b));
}

#[test]
fn histogram_bucket_bounds_are_stable() {
    // The exact 1-2-5 decade series, in µs. Changing these silently breaks
    // baseline comparability of every committed histogram — so the full
    // array is pinned here.
    assert_eq!(
        bucket_bounds_us(),
        [
            1,
            2,
            5,
            10,
            20,
            50,
            100,
            200,
            500,
            1_000,
            2_000,
            5_000,
            10_000,
            20_000,
            50_000,
            100_000,
            200_000,
            500_000,
            1_000_000,
            2_000_000,
            5_000_000,
            10_000_000,
            20_000_000,
            50_000_000,
            100_000_000,
            200_000_000,
            500_000_000,
            1_000_000_000,
            2_000_000_000,
            5_000_000_000,
        ]
    );
}

#[test]
fn span_parentage_matches_engine_critical_path() {
    let (snap, report) = traced_cold_start();
    let parents: HashMap<&str, Option<&str>> = snap
        .spans
        .iter()
        .map(|s| (s.name.as_str(), s.parent.as_deref()))
        .collect();
    assert_eq!(parents.len(), snap.spans.len(), "span names must be unique");

    let cp: Vec<String> = report.critical_path.iter().map(|s| s.to_string()).collect();
    assert!(!cp.is_empty(), "loading phase must have a critical path");
    // First token is gated by the end of the loading-phase critical path.
    assert_eq!(
        parents["first token"],
        cp.last().map(String::as_str),
        "first token must chain to the last critical-path stage"
    );
    // Interior critical-path stages chain to their binding predecessor —
    // the same walk Schedule::critical_path performs inside the engine.
    for pair in cp.windows(2) {
        assert_eq!(
            parents[pair[1].as_str()],
            Some(pair[0].as_str()),
            "critical-path stage `{}` must be parented to `{}`",
            pair[1],
            pair[0]
        );
    }
    // Every recorded span is reachable: it either roots the trace or names
    // a parent that exists.
    for span in &snap.spans {
        if let Some(p) = &span.parent {
            assert!(parents.contains_key(p.as_str()), "dangling parent `{p}`");
        }
    }
}

#[test]
fn chrome_export_is_valid_json_and_covers_all_loading_stages() {
    let (snap, _) = traced_cold_start();
    let json = chrome::render(&snap);
    serde_json::from_str::<serde::Value>(&json).expect("chrome trace must be valid JSON");
    // The paper's five loading stages, plus the bracketing runtime init and
    // first token, must all appear as complete events.
    for stage in [
        "structure init",
        "weights load",
        "tokenizer load",
        "kv cache init",
        "capturing",
        "runtime init",
        "first token",
    ] {
        assert!(
            json.contains(&format!("\"name\":\"{stage}\"")),
            "chrome trace must contain a `{stage}` event"
        );
    }
}
