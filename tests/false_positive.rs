//! False-positive pointer speculation and its correction (paper §4, §8).
//!
//! The pointer/constant heuristic can misclassify an 8-byte constant whose
//! value happens to look like a device address. These tests inject exactly
//! that misclassification into a real artifact and check that the
//! validation forwarding detects it and the correction pass repairs it.

use medusa::{
    materialize_offline, ColdStart, Maf2Reader, MaterializedState, ParamSpec, ReplayOp, Strategy,
};
use medusa_gpu::{CostModel, GpuSpec};
use medusa_model::ModelSpec;
use std::collections::BTreeSet;

fn spec() -> ModelSpec {
    ModelSpec::by_name("Qwen1.5-0.5B").expect("catalog model")
}

/// The first 8-byte constant of a rotary node in graph 0 (the rope base):
/// its node, its parameter and its value.
fn rotary_constant(artifact: &MaterializedState) -> (usize, usize, u64) {
    for (ni, node) in artifact.graphs[0].nodes.iter().enumerate() {
        if node.kernel.contains("rotary") {
            for (pi, p) in node.params.iter().enumerate() {
                if let ParamSpec::Const { bytes } = p {
                    if let Ok(buf) = <[u8; 8]>::try_from(bytes.as_slice()) {
                        return (ni, pi, u64::from_le_bytes(buf));
                    }
                }
            }
        }
    }
    panic!("no 8-byte constant found to poison");
}

/// Rewrites one genuine constant (the rotary kernel's 8-byte rope base) as
/// a speculative indirect pointer, as a prefix-heuristic false positive
/// would have.
fn poison(artifact: &mut MaterializedState) -> (usize, usize) {
    let target_seq = *artifact
        .labels
        .get("ws.positions")
        .expect("labelled buffer");
    let (ni, pi, raw) = rotary_constant(artifact);
    artifact.graphs[0].nodes[ni].params[pi] = ParamSpec::IndirectPtr {
        alloc_seq: target_seq,
        offset: 0,
        raw,
    };
    (ni, pi)
}

/// With validation enabled the false positive is detected and corrected
/// back to a constant; the restored graph then matches eager execution.
#[test]
fn validation_corrects_injected_false_positive() {
    let s = spec();
    let (mut artifact, _) =
        materialize_offline(&s, GpuSpec::a100_40gb(), CostModel::default(), 31).expect("offline");
    let (ni, pi) = poison(&mut artifact);
    // The pre-restore checksum check would reject the tampered copy before
    // correction gets a chance — skip it so the validation forwardings and
    // the correction pass are what run.
    let outcome = ColdStart::new(&s)
        .strategy(Strategy::Medusa)
        .artifact(&artifact)
        .validate_artifact(false)
        .validate_graphs(true)
        .seed(32)
        .run()
        .expect("correction must repair the artifact");
    assert!(outcome.fallback().is_none(), "repaired, not degraded");
    let (mut engine, _) = outcome.into_single();
    // Sanity: the corrected engine still decodes deterministically.
    let kv = engine.kv_view();
    medusa::reset_kv_state(&mut engine.rt, &kv).expect("reset");
    let out = medusa_model::decode_step_with_graph(
        &mut engine.rt,
        &engine.inst,
        &engine.graphs[0].1,
        1,
        40,
    )
    .expect("decode");
    assert_ne!(out.output, [0u8; 16]);
    let _ = (ni, pi);
}

/// Without validation, the poisoned speculation silently changes outputs —
/// the failure mode validation exists to catch.
#[test]
fn unvalidated_false_positive_corrupts_outputs() {
    let s = spec();
    let (artifact, _) =
        materialize_offline(&s, GpuSpec::a100_40gb(), CostModel::default(), 33).expect("offline");
    let mut poisoned = artifact.clone();
    poison(&mut poisoned);
    let out_of = |a: &MaterializedState| {
        let (mut e, _) = ColdStart::new(&s)
            .strategy(Strategy::Medusa)
            .artifact(a)
            .validate_artifact(false)
            .seed(34)
            .run()
            .expect("restores without validation")
            .into_single();
        let kv = e.kv_view();
        medusa::reset_kv_state(&mut e.rt, &kv).expect("reset");
        medusa_model::decode_step_with_graph(&mut e.rt, &e.inst, &e.graphs[0].1, 1, 41)
            .expect("replays")
            .output
    };
    assert_ne!(out_of(&artifact), out_of(&poisoned));
}

/// An unmatchable poisoned pointer (dead allocation index) fails loudly at
/// restore time rather than silently — and the builder records exactly that
/// failure while degrading the cold start to the vanilla path.
#[test]
fn poisoned_pointer_to_dead_allocation_fails_restore() {
    let s = spec();
    let (mut artifact, _) =
        materialize_offline(&s, GpuSpec::a100_40gb(), CostModel::default(), 35).expect("offline");
    // Point at an allocation index that the replay frees (a profiling temp):
    // find a Free op target.
    let dead_seq = artifact
        .replay_ops
        .iter()
        .find_map(|op| match op {
            medusa::ReplayOp::Free { alloc_seq } => Some(*alloc_seq),
            _ => None,
        })
        .expect("replay contains frees");
    if let ParamSpec::IndirectPtr { alloc_seq, .. } = &mut artifact.graphs[0].nodes[0].params[0] {
        *alloc_seq = dead_seq;
    } else {
        panic!("expected first param of first node to be a pointer");
    }
    let outcome = ColdStart::new(&s)
        .strategy(Strategy::Medusa)
        .artifact(&artifact)
        .validate_artifact(false)
        .seed(36)
        .run()
        .expect("degrades to vanilla instead of erroring");
    assert_eq!(outcome.strategy_used(), Strategy::Vanilla);
    let fb = outcome.fallback().expect("restore failure recorded");
    assert_eq!(fb.reason, "unmatched_pointer", "{}", fb.detail);
}

/// The §4 correction works from the MAF2 encoding, whose graph records hold
/// no offline address: the planted constant is stored as the base of the
/// allocation it was matched to, rebuilt on decode, and still corrected
/// back to a constant by the validation forwarding.
#[test]
fn correction_survives_the_address_free_encoding() {
    let s = spec();
    let (mut artifact, _) =
        materialize_offline(&s, GpuSpec::a100_40gb(), CostModel::default(), 37).expect("offline");
    // A false positive matches the constant to a live allocation. Take one
    // no genuine pointer refers to, so the constant is that allocation's
    // only offline base in the encoding.
    let mut live: BTreeSet<u64> = (0..artifact.replay_prefix_allocs).collect();
    let mut next = artifact.replay_prefix_allocs;
    for op in &artifact.replay_ops {
        match op {
            ReplayOp::Malloc { .. } => {
                live.insert(next);
                next += 1;
            }
            ReplayOp::Free { alloc_seq } => {
                live.remove(alloc_seq);
            }
        }
    }
    for g in &artifact.graphs {
        for p in g.nodes.iter().flat_map(|n| &n.params) {
            if let ParamSpec::IndirectPtr { alloc_seq, .. } = p {
                live.remove(alloc_seq);
            }
        }
    }
    let target_seq = *live
        .first()
        .expect("a live allocation no graph points into");
    let (ni, pi, constant) = rotary_constant(&artifact);
    let planted = ParamSpec::IndirectPtr {
        alloc_seq: target_seq,
        offset: 0,
        raw: constant,
    };
    artifact.graphs[0].nodes[ni].params[pi] = planted.clone();
    artifact.seal();

    let bytes = artifact.to_maf2().expect("encode");
    let decoded = Maf2Reader::open(&bytes)
        .expect("open")
        .shard(0)
        .expect("decode")
        .clone();
    assert_eq!(decoded.graphs[0].nodes[ni].params[pi], planted);
    assert_eq!(decoded, artifact, "decoding rebuilds every raw value");

    let outcome = ColdStart::new(&s)
        .strategy(Strategy::Medusa)
        .artifact_bytes(&bytes)
        .validate_graphs(true)
        .seed(38)
        .run()
        .expect("correction must repair the artifact");
    assert!(outcome.fallback().is_none(), "repaired, not degraded");
    assert_eq!(outcome.strategy_used(), Strategy::Medusa);
    // The restored batch-1 graph passes the planted constant by value.
    let (engine, _) = outcome.into_single();
    let params = engine.graphs[0].1.graph().node(ni).params();
    assert_eq!(params.size_of(pi), 8);
    assert_eq!(params.value(pi), constant, "corrected back to the constant");
}
