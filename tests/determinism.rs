//! Determinism guarantees of the parallel cold-start engine.
//!
//! The engine runs tokenizer loading and per-rank restoration on real
//! worker threads, but every reported timing is computed from the stage
//! dependency graph — never from host thread timing. These tests pin that
//! contract: same seed ⇒ byte-identical reports and identical engine
//! state, per parallelism mode; serial vs overlapped differ only in how
//! the same work is laid out on the timeline; and a single-GPU start is
//! the `tp = 1` start, whichever way the builder is told about it. The
//! whole timeline of every strategy × parallelism × tp × warm/cold start
//! is pinned against the values recorded when the test was written.

use medusa::{
    materialize_offline, ColdStart, ColdStartReport, MaterializedState, Parallelism, ReadyEngine,
    Strategy, TpArtifacts, TriggeringMode,
};
use medusa_gpu::{CostModel, GpuSpec, SimTime};
use medusa_model::ModelSpec;
use medusa_telemetry::export::{chrome, prometheus};
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

/// A warm-container builder for `s` on process seed 42 under
/// `parallelism`.
fn warm_42(s: &ModelSpec, parallelism: Parallelism) -> ColdStart<'_> {
    ColdStart::new(s)
        .seed(42)
        .warm(true)
        .parallelism(parallelism)
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
                let mut builder = warm_42(&s, mode).strategy(strategy);
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
        let (_, report) = warm_42(&spec(), mode)
            .strategy(Strategy::Medusa)
            .artifact(&artifact)
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
        let (_, report) = warm_42(&spec(), mode)
            .strategy(Strategy::VanillaAsync)
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
        warm_42(&spec(), Parallelism::Serial)
            .strategy(strategy)
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

fn fnv1a(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in chunks.iter().flat_map(|c| c.iter()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Every cold-start timeline, pinned: tp 1 and 2 × every parallelism mode
/// × every strategy × warm (first-layer triggering) and cold (handwritten
/// triggering) containers, plus Medusa with graph validation. One line per
/// start: its configuration, the outcome's summary, a digest of every
/// rank's report and a digest of the telemetry export (spans, critical-path
/// parents, histograms), as recorded when the test was written.
#[test]
fn every_cold_start_timeline_is_pinned() {
    let s = spec();
    let mut got = Vec::new();
    for tp in [1u32, 2] {
        let (arts, _) = ColdStart::new(&s).tp(tp).materialize(13).expect("offline");
        let mut cases = Vec::new();
        for mode in Parallelism::ALL {
            for strategy in Strategy::ALL {
                for warm in [true, false] {
                    cases.push((mode, strategy, warm, false));
                }
            }
        }
        for mode in [Parallelism::Serial, Parallelism::Overlapped] {
            cases.push((mode, Strategy::Medusa, true, true));
        }
        for (mode, strategy, warm, validate) in cases {
            let tele = Registry::new();
            let triggering = if warm {
                TriggeringMode::FirstLayer
            } else {
                TriggeringMode::Handwritten
            };
            let b = ColdStart::new(&s)
                .strategy(strategy)
                .tp(tp)
                .parallelism(mode)
                .warm(warm)
                .triggering(triggering)
                .validate_graphs(validate)
                .seed(31)
                .telemetry(&tele);
            let b = if strategy == Strategy::Medusa {
                b.artifacts(&arts)
            } else {
                b
            };
            let case = format!("tp{tp}/{mode}/{strategy}/warm={warm}/validate={validate}");
            let out = b.run().unwrap_or_else(|e| panic!("{case}: {e}"));
            let reports = serde_json::to_string(&out.reports).expect("encode reports");
            let snap = tele.snapshot();
            let tele_digest = fnv1a(&[
                prometheus::render(&snap).as_bytes(),
                chrome::render(&snap).as_bytes(),
            ]);
            got.push(format!(
                "{case} | {} | {:016x} | {tele_digest:016x}",
                out.summary_json(),
                fnv1a(&[reports.as_bytes()])
            ));
        }
    }
    let want: &[&str] = &[
        "tp1/serial/vLLM/warm=true/validate=false | {\"requested\":\"vLLM\",\"used\":\"vLLM\",\"fallback\":null,\"ranks\":1,\"loading_ns\":1500342585,\"total_ns\":1511556964} | c076feae7f1e4005 | 11d754c3f7f23acf",
        "tp1/serial/vLLM/warm=false/validate=false | {\"requested\":\"vLLM\",\"used\":\"vLLM\",\"fallback\":null,\"ranks\":1,\"loading_ns\":1500342585,\"total_ns\":2341556964} | 002f6dca629b31c2 | 3e781cc65278c31a",
        "tp1/serial/vLLM+Async/warm=true/validate=false | {\"requested\":\"vLLM+Async\",\"used\":\"vLLM+Async\",\"fallback\":null,\"ranks\":1,\"loading_ns\":1500342585,\"total_ns\":1511556964} | a2ca5a6c71eb0f0b | 11d754c3f7f23acf",
        "tp1/serial/vLLM+Async/warm=false/validate=false | {\"requested\":\"vLLM+Async\",\"used\":\"vLLM+Async\",\"fallback\":null,\"ranks\":1,\"loading_ns\":1500342585,\"total_ns\":2341556964} | dda84f7131463940 | 3e781cc65278c31a",
        "tp1/serial/Medusa/warm=true/validate=false | {\"requested\":\"Medusa\",\"used\":\"Medusa\",\"fallback\":null,\"ranks\":1,\"loading_ns\":1186503783,\"total_ns\":1197718162} | c98a2e9e0332cc08 | 93dd68cffa01ab0c",
        "tp1/serial/Medusa/warm=false/validate=false | {\"requested\":\"Medusa\",\"used\":\"Medusa\",\"fallback\":null,\"ranks\":1,\"loading_ns\":1166028908,\"total_ns\":2007243287} | 686a6bbdb991b0ae | 9ee4e3f819572b57",
        "tp1/serial/w/o CUDA graph/warm=true/validate=false | {\"requested\":\"w/o CUDA graph\",\"used\":\"w/o CUDA graph\",\"fallback\":null,\"ranks\":1,\"loading_ns\":923658314,\"total_ns\":934872693} | c3f5399442c95d7d | edb306c96d4ad1e3",
        "tp1/serial/w/o CUDA graph/warm=false/validate=false | {\"requested\":\"w/o CUDA graph\",\"used\":\"w/o CUDA graph\",\"fallback\":null,\"ranks\":1,\"loading_ns\":923658314,\"total_ns\":1764872693} | 80c790bfd4e98e0e | bb256a90158bbc8e",
        "tp1/overlapped/vLLM/warm=true/validate=false | {\"requested\":\"vLLM\",\"used\":\"vLLM\",\"fallback\":null,\"ranks\":1,\"loading_ns\":1500342585,\"total_ns\":1511556964} | c076feae7f1e4005 | 11d754c3f7f23acf",
        "tp1/overlapped/vLLM/warm=false/validate=false | {\"requested\":\"vLLM\",\"used\":\"vLLM\",\"fallback\":null,\"ranks\":1,\"loading_ns\":1500342585,\"total_ns\":2341556964} | 002f6dca629b31c2 | 3e781cc65278c31a",
        "tp1/overlapped/vLLM+Async/warm=true/validate=false | {\"requested\":\"vLLM+Async\",\"used\":\"vLLM+Async\",\"fallback\":null,\"ranks\":1,\"loading_ns\":1228861977,\"total_ns\":1240076356} | 3eb789e586e37299 | 2d82918d5f43db0b",
        "tp1/overlapped/vLLM+Async/warm=false/validate=false | {\"requested\":\"vLLM+Async\",\"used\":\"vLLM+Async\",\"fallback\":null,\"ranks\":1,\"loading_ns\":1228861977,\"total_ns\":2070076356} | b56b5db45254e23c | 505baa010103e4f6",
        "tp1/overlapped/Medusa/warm=true/validate=false | {\"requested\":\"Medusa\",\"used\":\"Medusa\",\"fallback\":null,\"ranks\":1,\"loading_ns\":915023175,\"total_ns\":926237554} | 26720d2a65ade6bd | ef3f40e9b6cc46c2",
        "tp1/overlapped/Medusa/warm=false/validate=false | {\"requested\":\"Medusa\",\"used\":\"Medusa\",\"fallback\":null,\"ranks\":1,\"loading_ns\":894548300,\"total_ns\":1735762679} | a66788b3035574bc | c1af89ec52d4ffdb",
        "tp1/overlapped/w/o CUDA graph/warm=true/validate=false | {\"requested\":\"w/o CUDA graph\",\"used\":\"w/o CUDA graph\",\"fallback\":null,\"ranks\":1,\"loading_ns\":923658314,\"total_ns\":934872693} | c3f5399442c95d7d | edb306c96d4ad1e3",
        "tp1/overlapped/w/o CUDA graph/warm=false/validate=false | {\"requested\":\"w/o CUDA graph\",\"used\":\"w/o CUDA graph\",\"fallback\":null,\"ranks\":1,\"loading_ns\":923658314,\"total_ns\":1764872693} | 80c790bfd4e98e0e | bb256a90158bbc8e",
        "tp1/overlapped+tp-pipelined/vLLM/warm=true/validate=false | {\"requested\":\"vLLM\",\"used\":\"vLLM\",\"fallback\":null,\"ranks\":1,\"loading_ns\":1500342585,\"total_ns\":1511556964} | c076feae7f1e4005 | 11d754c3f7f23acf",
        "tp1/overlapped+tp-pipelined/vLLM/warm=false/validate=false | {\"requested\":\"vLLM\",\"used\":\"vLLM\",\"fallback\":null,\"ranks\":1,\"loading_ns\":1500342585,\"total_ns\":2341556964} | 002f6dca629b31c2 | 3e781cc65278c31a",
        "tp1/overlapped+tp-pipelined/vLLM+Async/warm=true/validate=false | {\"requested\":\"vLLM+Async\",\"used\":\"vLLM+Async\",\"fallback\":null,\"ranks\":1,\"loading_ns\":1228861977,\"total_ns\":1240076356} | 3eb789e586e37299 | 2d82918d5f43db0b",
        "tp1/overlapped+tp-pipelined/vLLM+Async/warm=false/validate=false | {\"requested\":\"vLLM+Async\",\"used\":\"vLLM+Async\",\"fallback\":null,\"ranks\":1,\"loading_ns\":1228861977,\"total_ns\":2070076356} | b56b5db45254e23c | 505baa010103e4f6",
        "tp1/overlapped+tp-pipelined/Medusa/warm=true/validate=false | {\"requested\":\"Medusa\",\"used\":\"Medusa\",\"fallback\":null,\"ranks\":1,\"loading_ns\":915023175,\"total_ns\":926237554} | 26720d2a65ade6bd | ef3f40e9b6cc46c2",
        "tp1/overlapped+tp-pipelined/Medusa/warm=false/validate=false | {\"requested\":\"Medusa\",\"used\":\"Medusa\",\"fallback\":null,\"ranks\":1,\"loading_ns\":894548300,\"total_ns\":1735762679} | a66788b3035574bc | c1af89ec52d4ffdb",
        "tp1/overlapped+tp-pipelined/w/o CUDA graph/warm=true/validate=false | {\"requested\":\"w/o CUDA graph\",\"used\":\"w/o CUDA graph\",\"fallback\":null,\"ranks\":1,\"loading_ns\":923658314,\"total_ns\":934872693} | c3f5399442c95d7d | edb306c96d4ad1e3",
        "tp1/overlapped+tp-pipelined/w/o CUDA graph/warm=false/validate=false | {\"requested\":\"w/o CUDA graph\",\"used\":\"w/o CUDA graph\",\"fallback\":null,\"ranks\":1,\"loading_ns\":923658314,\"total_ns\":1764872693} | 80c790bfd4e98e0e | bb256a90158bbc8e",
        "tp1/serial/Medusa/warm=true/validate=true | {\"requested\":\"Medusa\",\"used\":\"Medusa\",\"fallback\":null,\"ranks\":1,\"loading_ns\":1827143476,\"total_ns\":1838357855} | 9b8e5efb45ffd241 | 10f0b44060d55f5f",
        "tp1/overlapped/Medusa/warm=true/validate=true | {\"requested\":\"Medusa\",\"used\":\"Medusa\",\"fallback\":null,\"ranks\":1,\"loading_ns\":1555662868,\"total_ns\":1566877247} | 42fcdc1535978708 | 3e75cc38247faa40",
        "tp2/serial/vLLM/warm=true/validate=false | {\"requested\":\"vLLM\",\"used\":\"vLLM\",\"fallback\":null,\"ranks\":2,\"loading_ns\":3176686896,\"total_ns\":3203213176} | 6421f64246e6b90d | 59745ea86e669266",
        "tp2/serial/vLLM/warm=false/validate=false | {\"requested\":\"vLLM\",\"used\":\"vLLM\",\"fallback\":null,\"ranks\":2,\"loading_ns\":3176686896,\"total_ns\":4863213176} | 2dc8a8fff1080e59 | c4ca99888374cbec",
        "tp2/serial/vLLM+Async/warm=true/validate=false | {\"requested\":\"vLLM+Async\",\"used\":\"vLLM+Async\",\"fallback\":null,\"ranks\":2,\"loading_ns\":3176686896,\"total_ns\":3203213176} | 53bfbce40ca20355 | 59745ea86e669266",
        "tp2/serial/vLLM+Async/warm=false/validate=false | {\"requested\":\"vLLM+Async\",\"used\":\"vLLM+Async\",\"fallback\":null,\"ranks\":2,\"loading_ns\":3176686896,\"total_ns\":4863213176} | 158d55b67af81dbf | c4ca99888374cbec",
        "tp2/serial/Medusa/warm=true/validate=false | {\"requested\":\"Medusa\",\"used\":\"Medusa\",\"fallback\":null,\"ranks\":2,\"loading_ns\":2501516788,\"total_ns\":2528043068} | 56f996c4a30fb23d | 52f86e77c016f913",
        "tp2/serial/Medusa/warm=false/validate=false | {\"requested\":\"Medusa\",\"used\":\"Medusa\",\"fallback\":null,\"ranks\":2,\"loading_ns\":2367532510,\"total_ns\":4144058790} | e9470619635ff57f | fbea379c15913156",
        "tp2/serial/w/o CUDA graph/warm=true/validate=false | {\"requested\":\"w/o CUDA graph\",\"used\":\"w/o CUDA graph\",\"fallback\":null,\"ranks\":2,\"loading_ns\":1828776844,\"total_ns\":1855303124} | c63392e99ea0a21b | 127f61d419b30d18",
        "tp2/serial/w/o CUDA graph/warm=false/validate=false | {\"requested\":\"w/o CUDA graph\",\"used\":\"w/o CUDA graph\",\"fallback\":null,\"ranks\":2,\"loading_ns\":1828776844,\"total_ns\":3515303124} | 9754c75b6df60efd | 581b2f92cd79104e",
        "tp2/overlapped/vLLM/warm=true/validate=false | {\"requested\":\"vLLM\",\"used\":\"vLLM\",\"fallback\":null,\"ranks\":2,\"loading_ns\":1588355448,\"total_ns\":1601618588} | 6421f64246e6b90d | 59745ea86e669266",
        "tp2/overlapped/vLLM/warm=false/validate=false | {\"requested\":\"vLLM\",\"used\":\"vLLM\",\"fallback\":null,\"ranks\":2,\"loading_ns\":1588355448,\"total_ns\":2431618588} | 2dc8a8fff1080e59 | c4ca99888374cbec",
        "tp2/overlapped/vLLM+Async/warm=true/validate=false | {\"requested\":\"vLLM+Async\",\"used\":\"vLLM+Async\",\"fallback\":null,\"ranks\":2,\"loading_ns\":1349087093,\"total_ns\":1362350233} | eeebb854109a7bfd | 45f8fb1404692391",
        "tp2/overlapped/vLLM+Async/warm=false/validate=false | {\"requested\":\"vLLM+Async\",\"used\":\"vLLM+Async\",\"fallback\":null,\"ranks\":2,\"loading_ns\":1349087093,\"total_ns\":2192350233} | d83c3f0aee388137 | 622a85105561a114",
        "tp2/overlapped/Medusa/warm=true/validate=false | {\"requested\":\"Medusa\",\"used\":\"Medusa\",\"fallback\":null,\"ranks\":2,\"loading_ns\":1011502039,\"total_ns\":1024765179} | dcbd1506b307347d | 203d34aee64ed078",
        "tp2/overlapped/Medusa/warm=false/validate=false | {\"requested\":\"Medusa\",\"used\":\"Medusa\",\"fallback\":null,\"ranks\":2,\"loading_ns\":944509900,\"total_ns\":1832773040} | a6a8bc3d9302fed1 | 247c93264276850c",
        "tp2/overlapped/w/o CUDA graph/warm=true/validate=false | {\"requested\":\"w/o CUDA graph\",\"used\":\"w/o CUDA graph\",\"fallback\":null,\"ranks\":2,\"loading_ns\":914400422,\"total_ns\":927663562} | c63392e99ea0a21b | 127f61d419b30d18",
        "tp2/overlapped/w/o CUDA graph/warm=false/validate=false | {\"requested\":\"w/o CUDA graph\",\"used\":\"w/o CUDA graph\",\"fallback\":null,\"ranks\":2,\"loading_ns\":914400422,\"total_ns\":1757663562} | 9754c75b6df60efd | 581b2f92cd79104e",
        "tp2/overlapped+tp-pipelined/vLLM/warm=true/validate=false | {\"requested\":\"vLLM\",\"used\":\"vLLM\",\"fallback\":null,\"ranks\":2,\"loading_ns\":1588355448,\"total_ns\":1601618588} | 6421f64246e6b90d | 59745ea86e669266",
        "tp2/overlapped+tp-pipelined/vLLM/warm=false/validate=false | {\"requested\":\"vLLM\",\"used\":\"vLLM\",\"fallback\":null,\"ranks\":2,\"loading_ns\":1588355448,\"total_ns\":2431618588} | 2dc8a8fff1080e59 | c4ca99888374cbec",
        "tp2/overlapped+tp-pipelined/vLLM+Async/warm=true/validate=false | {\"requested\":\"vLLM+Async\",\"used\":\"vLLM+Async\",\"fallback\":null,\"ranks\":2,\"loading_ns\":1349087093,\"total_ns\":1362350233} | dd1d34560436edd3 | 6b0694108072ab85",
        "tp2/overlapped+tp-pipelined/vLLM+Async/warm=false/validate=false | {\"requested\":\"vLLM+Async\",\"used\":\"vLLM+Async\",\"fallback\":null,\"ranks\":2,\"loading_ns\":1349087093,\"total_ns\":2192350233} | a7ee1b53aa2e3d91 | cd51c8ca02a5669d",
        "tp2/overlapped+tp-pipelined/Medusa/warm=true/validate=false | {\"requested\":\"Medusa\",\"used\":\"Medusa\",\"fallback\":null,\"ranks\":2,\"loading_ns\":1011502039,\"total_ns\":1024765179} | 7d36e45a3f9be880 | 79c549f75479b64a",
        "tp2/overlapped+tp-pipelined/Medusa/warm=false/validate=false | {\"requested\":\"Medusa\",\"used\":\"Medusa\",\"fallback\":null,\"ranks\":2,\"loading_ns\":944509900,\"total_ns\":1832773040} | 9a024410f47ba91c | a0b2e97dbd0c0cfd",
        "tp2/overlapped+tp-pipelined/w/o CUDA graph/warm=true/validate=false | {\"requested\":\"w/o CUDA graph\",\"used\":\"w/o CUDA graph\",\"fallback\":null,\"ranks\":2,\"loading_ns\":914400422,\"total_ns\":927663562} | c63392e99ea0a21b | 127f61d419b30d18",
        "tp2/overlapped+tp-pipelined/w/o CUDA graph/warm=false/validate=false | {\"requested\":\"w/o CUDA graph\",\"used\":\"w/o CUDA graph\",\"fallback\":null,\"ranks\":2,\"loading_ns\":914400422,\"total_ns\":1757663562} | 9754c75b6df60efd | 581b2f92cd79104e",
        "tp2/serial/Medusa/warm=true/validate=true | {\"requested\":\"Medusa\",\"used\":\"Medusa\",\"fallback\":null,\"ranks\":2,\"loading_ns\":3745754708,\"total_ns\":3772280988} | d4b460357416e435 | f2b499452fb3e8d1",
        "tp2/overlapped/Medusa/warm=true/validate=true | {\"requested\":\"Medusa\",\"used\":\"Medusa\",\"fallback\":null,\"ranks\":2,\"loading_ns\":1633620999,\"total_ns\":1646884139} | 64c0a8f31801d4b1 | 77a2febf5313f1b9",
    ];
    if got != want {
        for line in &got {
            eprintln!("        {line:?},");
        }
        panic!("cold-start timelines moved");
    }
}
