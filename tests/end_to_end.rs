//! Cross-crate end-to-end tests: the offline phase of one simulated process
//! must restore correctly in a *different* process (different ASLR, different
//! allocator addresses), and every shortcut the paper rejects must
//! observably fail.

use medusa::{
    materialize_offline, replay_allocations, restore_graph, ColdStart, KernelResolver,
    MaterializedState, MedusaError, Strategy,
};
use medusa_gpu::{CostModel, GpuError, GpuSpec, ProcessRuntime};
use medusa_graph::{GraphError, GraphExec};
use medusa_model::ModelSpec;

fn spec() -> ModelSpec {
    ModelSpec::by_name("Qwen1.5-0.5B").expect("catalog model")
}

fn artifact(seed: u64) -> MaterializedState {
    materialize_offline(&spec(), GpuSpec::a100_40gb(), CostModel::default(), seed)
        .expect("offline phase")
        .0
}

/// Blindly dumping and reloading CUDA graphs cannot work (paper §2.5): the
/// offline process's kernel addresses are meaningless in a fresh process.
#[test]
fn blind_graph_dump_fails_across_processes() {
    let s = spec();
    let capture = medusa::run_offline_capture(&s, GpuSpec::a100_40gb(), CostModel::default(), 1)
        .expect("capture");
    // New process, different seed: same catalog, different ASLR.
    let mut rt2 = ProcessRuntime::new(
        medusa_model::build_catalog(&s),
        GpuSpec::a100_40gb(),
        CostModel::default(),
        2,
    );
    rt2.dlopen(medusa_model::MODEL_KERNELS_LIB).expect("dlopen");
    rt2.dlopen(medusa_model::CUBLAS_SIM_LIB).expect("dlopen");
    let dumped = capture.windows[0].graph.clone();
    let err = GraphExec::instantiate(&mut rt2, dumped).expect_err("must fail");
    assert!(
        matches!(err, GraphError::Gpu(GpuError::InvalidDeviceFunction { .. })),
        "stale kernel addresses must be rejected: {err}"
    );
}

/// Hidden (cuBLAS-like) kernels cannot be restored without the
/// triggering-kernels pass (paper §5).
#[test]
fn restoration_without_triggering_kernels_is_incomplete() {
    let art = artifact(3);
    let s = spec();
    let mut rt = ProcessRuntime::new(
        medusa_model::build_catalog(&s),
        GpuSpec::a100_40gb(),
        CostModel::default(),
        4,
    );
    let _inst = medusa_model::ModelInstance::initialize(&mut rt, &s).expect("structure");
    let (layout, _) = replay_allocations(&mut rt, &art).expect("replay");
    let mut resolver = KernelResolver::new();
    resolver
        .resolve_exported(&mut rt, &art)
        .expect("dlsym path");
    let err = restore_graph(&art.graphs[0], &layout, resolver.addrs()).expect_err("must fail");
    assert!(matches!(err, MedusaError::KernelUnresolved { .. }), "{err}");
}

/// Copy-free contents restoration is load-bearing: dropping the permanent
/// (magic) buffer contents from the artifact makes validation fail (§4.3)
/// — and the builder degrades that cold start to the vanilla path rather
/// than erroring out (§7).
#[test]
fn missing_permanent_contents_fail_validation() {
    let mut art = artifact(5);
    assert!(!art.permanent_contents.is_empty());
    art.permanent_contents.clear();
    // Skip the pre-restore artifact checks so the runtime validation
    // forwardings (§8) are what catches the corruption.
    let outcome = ColdStart::new(&spec())
        .strategy(Strategy::Medusa)
        .artifact(&art)
        .validate_artifact(false)
        .validate_graphs(true)
        .seed(6)
        .run()
        .expect("degrades instead of erroring");
    assert_eq!(outcome.strategy_used(), Strategy::Vanilla);
    let fb = outcome.fallback().expect("fallback recorded");
    assert_eq!(fb.reason, "validation_failed", "{}", fb.detail);
}

/// Without validation the same broken artifact restores silently — the
/// graphs replay but produce wrong outputs, which is exactly why the paper
/// keeps the validation pass (§8).
#[test]
fn missing_permanent_contents_change_outputs_silently() {
    let mut art = artifact(7);
    let good = art.clone();
    art.permanent_contents.clear();
    // Both validation layers off: the point is the *silent* corruption.
    let restore = |a: &MaterializedState| {
        ColdStart::new(&spec())
            .strategy(Strategy::Medusa)
            .artifact(a)
            .validate_artifact(false)
            .seed(8)
            .run()
            .expect("restores without validation")
            .into_single()
    };
    let (mut bad_engine, _) = restore(&art);
    let (mut good_engine, _) = restore(&good);
    let kv_b = bad_engine.kv_view();
    let kv_g = good_engine.kv_view();
    medusa::reset_kv_state(&mut bad_engine.rt, &kv_b).expect("reset");
    medusa::reset_kv_state(&mut good_engine.rt, &kv_g).expect("reset");
    let out_b = medusa_model::decode_step_with_graph(
        &mut bad_engine.rt,
        &bad_engine.inst,
        &bad_engine.graphs[0].1,
        1,
        9,
    )
    .expect("replays");
    let out_g = medusa_model::decode_step_with_graph(
        &mut good_engine.rt,
        &good_engine.inst,
        &good_engine.graphs[0].1,
        1,
        9,
    )
    .expect("replays");
    assert_ne!(
        out_b.output, out_g.output,
        "missing magic contents must corrupt outputs"
    );
}

/// The artifact survives serialization: a JSON round-trip restores exactly
/// the same engine behaviour.
#[test]
fn artifact_roundtrip_restores_identically() {
    let art = artifact(10);
    let json = art.to_json().expect("encode");
    let back = MaterializedState::from_json(&json).expect("decode");
    let run = |a: &MaterializedState| {
        let (mut e, r) = ColdStart::new(&spec())
            .strategy(Strategy::Medusa)
            .artifact(a)
            .seed(11)
            .run()
            .expect("cold start")
            .into_single();
        let kv = e.kv_view();
        medusa::reset_kv_state(&mut e.rt, &kv).expect("reset");
        let out = medusa_model::decode_step_with_graph(&mut e.rt, &e.inst, &e.graphs[3].1, 8, 12)
            .expect("decode");
        (r.loading, out.output)
    };
    assert_eq!(run(&art), run(&back));
}

/// Two different offline runs (different offline seeds) must produce
/// artifacts that restore to identical serving behaviour: the materialized
/// state is a function of <GPU, model>, not of the offline process's
/// addresses (§3: "executed only once for each unique combination").
#[test]
fn offline_seed_does_not_leak_into_restored_behaviour() {
    let a1 = artifact(20);
    let a2 = artifact(21);
    // Raw pointer values differ offline...
    assert_eq!(a1.replay_prefix_allocs, a2.replay_prefix_allocs);
    assert_eq!(a1.total_nodes(), a2.total_nodes());
    assert_eq!(a1.kv_free_bytes, a2.kv_free_bytes, "§6 invariance");
    // ...but restored outputs agree.
    let out = |a: &MaterializedState, seed: u64| {
        let (mut e, _) = ColdStart::new(&spec())
            .strategy(Strategy::Medusa)
            .artifact(a)
            .seed(seed)
            .validate_graphs(true)
            .run()
            .expect("cold start")
            .into_single();
        let kv = e.kv_view();
        medusa::reset_kv_state(&mut e.rt, &kv).expect("reset");
        medusa_model::decode_step_with_graph(&mut e.rt, &e.inst, &e.graphs[0].1, 1, 13)
            .expect("decode")
            .output
    };
    assert_eq!(out(&a1, 23), out(&a2, 24));
}
