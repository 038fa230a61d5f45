//! Determinism guarantees of the parallel cold-start engine.
//!
//! The engine runs tokenizer loading and per-rank restoration on real
//! worker threads, but every reported timing is computed from the stage
//! dependency graph — never from host thread timing. These tests pin that
//! contract: same seed ⇒ byte-identical reports and identical engine
//! state, per parallelism mode; serial vs overlapped differ only in how
//! the same work is laid out on the timeline; and a single-GPU start is
//! the `tp = 1` start, whichever way the builder is told about it.

use medusa::{
    materialize_offline, ColdStart, ColdStartOptions, ColdStartReport, MaterializedState,
    Parallelism, ReadyEngine, Strategy, TpArtifacts,
};
use medusa_gpu::{CostModel, GpuSpec, SimTime};
use medusa_model::ModelSpec;
use medusa_telemetry::export::prometheus;
use medusa_telemetry::Registry;

fn spec() -> ModelSpec {
    ModelSpec::by_name("Qwen1.5-0.5B").expect("catalog model")
}

fn artifact() -> MaterializedState {
    let (artifact, _) =
        materialize_offline(&spec(), GpuSpec::a100_40gb(), CostModel::default(), 11)
            .expect("offline materialization");
    artifact
}

fn opts(parallelism: Parallelism) -> ColdStartOptions {
    ColdStartOptions {
        seed: 42,
        warm_container: true,
        parallelism,
        ..Default::default()
    }
}

/// An observable fingerprint of a ready engine: captured graph batch
/// sizes, a few decode-step durations across batch sizes, and the final
/// process clock. Two engines with identical fingerprints are
/// indistinguishable to the serving layer.
fn engine_fingerprint(engine: &mut ReadyEngine) -> Vec<u64> {
    let mut sig: Vec<u64> = engine.graphs.iter().map(|(b, _)| u64::from(*b)).collect();
    for &batch in &[1u32, 8, 32] {
        for _ in 0..2 {
            sig.push(engine.decode_step(batch).expect("decode step").as_nanos());
        }
    }
    sig.push((engine.rt.now() - SimTime::ZERO).as_nanos());
    sig
}

#[test]
fn same_seed_cold_starts_are_byte_identical_per_mode() {
    let artifact = artifact();
    let s = spec();
    for strategy in [Strategy::Medusa, Strategy::VanillaAsync] {
        for mode in Parallelism::ALL {
            let art = (strategy == Strategy::Medusa).then_some(&artifact);
            let run = || {
                let mut builder = ColdStart::new(&s).strategy(strategy).options(opts(mode));
                if let Some(a) = art {
                    builder = builder.artifact(a);
                }
                builder.run().expect("cold start").into_single()
            };
            let (mut engine_a, report_a) = run();
            let (mut engine_b, report_b) = run();
            let json_a = serde_json::to_string(&report_a).expect("encode report");
            let json_b = serde_json::to_string(&report_b).expect("encode report");
            assert_eq!(
                json_a, json_b,
                "{strategy:?}/{mode}: reports not byte-identical"
            );
            assert!(
                !report_a.critical_path.is_empty(),
                "{strategy:?}/{mode}: no critical path"
            );
            assert_eq!(
                engine_fingerprint(&mut engine_a),
                engine_fingerprint(&mut engine_b),
                "{strategy:?}/{mode}: engine state diverged"
            );
        }
    }
}

#[test]
fn medusa_serial_and_overlapped_agree_on_work_but_not_wall_clock() {
    let artifact = artifact();
    let run = |mode| {
        let (_, report) = ColdStart::new(&spec())
            .strategy(Strategy::Medusa)
            .artifact(&artifact)
            .options(opts(mode))
            .run()
            .expect("cold start")
            .into_single();
        report
    };
    let serial = run(Parallelism::Serial);
    let overlapped = run(Parallelism::Overlapped);
    // Same stages, same durations — overlapping rearranges, it does not
    // change the work (at tp=1 the weights lane runs at full bandwidth in
    // both modes).
    assert_eq!(
        serial.work(),
        overlapped.work(),
        "overlap changed the total work"
    );
    assert!(
        overlapped.loading < serial.loading,
        "overlap did not shorten the wall clock: {} !< {}",
        overlapped.loading,
        serial.loading
    );
    // Serial is a single chain: wall clock equals the work exactly.
    assert_eq!(
        serial.loading,
        serial.work(),
        "serial timeline has gaps or overlap"
    );
}

#[test]
fn vanilla_async_interference_inflates_work_but_overlap_still_wins() {
    // §7.3: under overlap, weight H2D transfers contend with profiling
    // (factor 0.82), so the overlapped weights stage takes *longer* than
    // serial — yet the cold start still finishes earlier because the rest
    // of the pipeline hides it (Fig. 8b).
    let run = |mode| {
        let (_, report) = ColdStart::new(&spec())
            .strategy(Strategy::VanillaAsync)
            .options(opts(mode))
            .run()
            .expect("cold start")
            .into_single();
        report
    };
    let serial = run(Parallelism::Serial);
    let overlapped = run(Parallelism::Overlapped);
    assert!(
        overlapped.work() > serial.work(),
        "overlapped VanillaAsync should pay H2D interference"
    );
    assert!(
        overlapped.loading < serial.loading,
        "overlap should still beat serial despite interference"
    );
}

/// A traced Medusa builder on process seed 9.
fn medusa_seed_9<'a>(s: &'a ModelSpec, tele: &'a Registry) -> ColdStart<'a> {
    ColdStart::new(s)
        .strategy(Strategy::Medusa)
        .seed(9)
        .telemetry(tele)
}

#[test]
fn a_single_gpu_start_is_the_tp1_start() {
    // One path for every degree: a single artifact, an explicit `tp(1)`
    // and a one-rank bundle all run rank 0 of a tp = 1 group on the
    // derived rank seed, with the same timeline and the same telemetry.
    let s = spec();
    let a = artifact();
    let arts = TpArtifacts::new(vec![a.clone()]).expect("one rank");
    let teles = [Registry::new(), Registry::new(), Registry::new()];
    let runs = [
        medusa_seed_9(&s, &teles[0]).artifact(&a).run(),
        medusa_seed_9(&s, &teles[1]).tp(1).artifact(&a).run(),
        medusa_seed_9(&s, &teles[2]).artifacts(&arts).run(),
    ]
    .map(|r| r.expect("cold start"));
    let prom = prometheus::render(&teles[0].snapshot());
    for (outcome, tele) in runs.iter().zip(&teles) {
        assert!(outcome.fallback().is_none());
        assert_eq!(outcome.reports, runs[0].reports);
        assert_eq!(outcome.total(), runs[0].total());
        assert_eq!(outcome.engines[0].rt.seed(), 9 ^ 0x9a_0000);
        assert_eq!(prometheus::render(&tele.snapshot()), prom);
    }
    let bytes = arts.to_maf2().expect("encode bundle");
    let from_bytes = ColdStart::new(&s)
        .strategy(Strategy::Medusa)
        .seed(9)
        .tp(1)
        .artifact_bytes(&bytes)
        .run()
        .expect("cold start from bytes");
    assert!(from_bytes.fallback().is_none());
    assert_eq!(from_bytes.reports, runs[0].reports);
    assert_eq!(from_bytes.engines[0].rt.seed(), 9 ^ 0x9a_0000);
}

#[test]
fn serial_vanilla_async_is_the_vanilla_timeline() {
    // Under Serial the async weights lane degenerates to a synchronous
    // load, so VanillaAsync runs Vanilla's timeline stage for stage.
    let run = |strategy| {
        ColdStart::new(&spec())
            .strategy(strategy)
            .options(opts(Parallelism::Serial))
            .run()
            .expect("cold start")
            .into_single()
            .1
    };
    let vanilla = run(Strategy::Vanilla);
    let serial_async = run(Strategy::VanillaAsync);
    assert_eq!(serial_async.strategy, Strategy::VanillaAsync);
    assert_eq!(
        ColdStartReport {
            strategy: Strategy::Vanilla,
            ..serial_async
        },
        vanilla
    );
}
