//! Online allocation-sequence replay and data-pointer restoration
//! (paper §4.2) plus copy-free contents restoration (§4.3).
//!
//! The online cold start runs model structure initialization naturally; its
//! allocations form the *prefix* of the recorded sequence (deterministic
//! control flow). Medusa then replays the remainder of the recorded
//! (de)allocation sequence — the allocations the skipped profiling,
//! warm-up and capture forwardings would have performed — recording every
//! returned address. Indirect index pointers resolve against this map.

use crate::artifact::{GraphRead, ParamRef, ReplayOp, ShardRead};
use crate::error::{MedusaError, MedusaResult};
use crate::online::kernels::KernelAddrs;
use medusa_gpu::{AllocTag, DevicePtr, ParamBuffer, ProcessRuntime, SimDuration};
use medusa_graph::CudaGraph;
use medusa_model::{KvView, Workspace};
use std::collections::HashMap;

/// The restored buffer layout of an online process.
#[derive(Debug)]
pub struct ReplayedLayout {
    /// Per allocation of the sequence, in sequence order: its pointer
    /// while live.
    seq_to_ptr: Vec<Option<DevicePtr>>,
    labels: HashMap<String, DevicePtr>,
}

impl ReplayedLayout {
    /// The pointer created by allocation `seq`, if live.
    pub fn ptr(&self, seq: u64) -> Option<DevicePtr> {
        *usize::try_from(seq)
            .ok()
            .and_then(|i| self.seq_to_ptr.get(i))?
    }

    /// Resolves a semantic label to its restored pointer.
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::MissingLabel`] for unknown labels.
    pub fn label(&self, name: &str) -> MedusaResult<DevicePtr> {
        self.labels
            .get(name)
            .copied()
            .ok_or_else(|| MedusaError::MissingLabel {
                label: name.to_string(),
            })
    }

    /// The restored KV cache view.
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::MissingLabel`] if KV labels are absent.
    pub fn kv_view(&self, block_size: u32) -> MedusaResult<KvView> {
        Ok(KvView {
            kcache: self.label("kv.key")?,
            vcache: self.label("kv.value")?,
            block_table: self.label("kv.block_table")?,
            block_size,
        })
    }

    /// The restored persistent decode workspace.
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::MissingLabel`] if any workspace label is
    /// absent.
    pub fn workspace(&self) -> MedusaResult<Workspace> {
        Ok(Workspace {
            ids: self.label("ws.ids")?,
            positions: self.label("ws.positions")?,
            slots: self.label("ws.slots")?,
            hidden: self.label("ws.hidden")?,
            residual: self.label("ws.residual")?,
            qkv: self.label("ws.qkv")?,
            attn_out: self.label("ws.attn_out")?,
            gate_up: self.label("ws.gate_up")?,
            mlp_act: self.label("ws.mlp_act")?,
            logits: self.label("ws.logits")?,
            next_tokens: self.label("ws.next_tokens")?,
        })
    }

    /// The restored per-layer magic buffer pairs.
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::MissingLabel`] if a pair is absent.
    pub fn magic_pairs(&self, layers: u32) -> MedusaResult<Vec<(DevicePtr, DevicePtr)>> {
        (0..layers)
            .map(|l| {
                Ok((
                    self.label(&format!("magic.{l}.a"))?,
                    self.label(&format!("magic.{l}.b"))?,
                ))
            })
            .collect()
    }
}

/// Replays the artifact's (de)allocation sequence on `rt` and restores
/// permanent buffer contents. Must run right after model structure
/// initialization.
///
/// Returns the layout together with the replay's simulated duration (the
/// bulk of Medusa's 0.02 s KV-init stage, Fig. 8c).
///
/// # Errors
///
/// * [`MedusaError::ReplayMisaligned`] if the process performed a different
///   number of natural allocations than the artifact expects.
/// * [`MedusaError::ReplayDanglingFree`] on a free of an unmapped index.
/// * Driver errors (OOM) from the replayed allocations.
pub fn replay_allocations<S: ShardRead + ?Sized>(
    rt: &mut ProcessRuntime,
    artifact: &S,
) -> MedusaResult<(ReplayedLayout, SimDuration)> {
    let t0 = rt.now();
    rt.advance(SimDuration::from_nanos(rt.cost().artifact_open_ns));

    let prefix = artifact.replay_prefix_allocs();
    let actual = rt.memory().next_seq();
    if actual != prefix {
        return Err(MedusaError::ReplayMisaligned {
            expected: prefix,
            actual,
        });
    }
    // Natural prefix: the live allocations structure init performed (the
    // process numbered exactly `prefix` of them).
    let mut seq_to_ptr: Vec<Option<DevicePtr>> = vec![None; actual as usize];
    for a in rt.memory().iter() {
        seq_to_ptr[a.seq() as usize] = Some(a.base());
    }

    // Replay the remainder of the recorded sequence.
    for op in artifact.replay_ops() {
        match op {
            ReplayOp::Malloc { size } => {
                seq_to_ptr.push(Some(rt.cuda_malloc(size, AllocTag::Other)?));
            }
            ReplayOp::Free { alloc_seq } => {
                let ptr = usize::try_from(alloc_seq)
                    .ok()
                    .and_then(|i| seq_to_ptr.get_mut(i)?.take())
                    .ok_or(MedusaError::ReplayDanglingFree { alloc_seq })?;
                rt.cuda_free(ptr)?;
            }
        }
    }
    let layout = ReplayedLayout {
        seq_to_ptr,
        labels: HashMap::new(),
    };
    let live = |alloc_seq: u64| {
        layout
            .ptr(alloc_seq)
            .ok_or(MedusaError::ReplayDanglingFree { alloc_seq })
    };

    // Copy-free contents restoration: permanent buffers only (§4.3).
    for (seq, digest) in artifact.permanent_contents() {
        rt.memory_mut().write_digest(live(seq)?.addr(), digest)?;
    }

    // Indirect pointers (§8): rebuild materialized pointer tables with the
    // restored addresses.
    for (seq, entries) in artifact.ptr_tables() {
        let table_ptr = live(seq)?;
        let table = entries
            .map(|e| Ok(live(e.alloc_seq)?.offset(e.offset).addr()))
            .collect::<MedusaResult<Vec<u64>>>()?;
        rt.memory_mut().write_ptr_table(table_ptr.addr(), table)?;
    }

    let labels = artifact
        .labels()
        .map(|(name, seq)| Ok((name.to_string(), live(seq)?)))
        .collect::<MedusaResult<HashMap<_, _>>>()?;

    Ok((ReplayedLayout { labels, ..layout }, rt.now().since(t0)))
}

/// Rebuilds one CUDA graph from its materialized spec: kernel addresses from
/// `kernel_addrs` (see [`crate::KernelResolver`]), data pointers through the
/// replayed layout, constants by value.
///
/// # Errors
///
/// * [`MedusaError::KernelUnresolved`] for kernels missing from the map.
/// * [`MedusaError::UnmatchedPointer`] for indirect indices whose buffer is
///   not live in the layout.
/// * [`MedusaError::ArtifactCorrupt`] for a constant wider than 8 bytes.
pub fn restore_graph<G: GraphRead + ?Sized>(
    gspec: &G,
    layout: &ReplayedLayout,
    kernel_addrs: &KernelAddrs,
) -> MedusaResult<CudaGraph> {
    let mut graph = CudaGraph::new();
    let mut parts = Vec::new();
    for (ni, (n, params)) in gspec.nodes().enumerate() {
        let addr =
            kernel_addrs
                .get(n.library, n.kernel)
                .ok_or_else(|| MedusaError::KernelUnresolved {
                    library: n.library.to_string(),
                    kernel: n.kernel.to_string(),
                })?;
        parts.clear();
        for (pi, p) in params.enumerate() {
            parts.push(match p {
                ParamRef::Const(bytes) => {
                    let mut buf = [0u8; 8];
                    buf.get_mut(..bytes.len())
                        .ok_or_else(|| MedusaError::ArtifactCorrupt {
                            detail: format!(
                                "graph batch {} node {ni} param {pi}: a {}-byte constant",
                                gspec.batch(),
                                bytes.len()
                            ),
                        })?
                        .copy_from_slice(bytes);
                    (u64::from_le_bytes(buf), bytes.len() as u32)
                }
                ParamRef::Ptr {
                    alloc_seq, offset, ..
                } => {
                    let base = layout.ptr(alloc_seq).ok_or(MedusaError::UnmatchedPointer {
                        batch: gspec.batch(),
                        node: ni,
                        param: pi,
                        addr: alloc_seq,
                    })?;
                    (base.offset(offset).addr(), 8)
                }
            });
        }
        graph.add_kernel_node(addr, ParamBuffer::from_parts(&parts), n.work);
    }
    for (s, d) in gspec.edges() {
        graph
            .add_dependency(s as usize, d as usize)
            .map_err(MedusaError::Graph)?;
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{AnalysisStats, MaterializedState, ARTIFACT_VERSION};
    use medusa_gpu::{CostModel, GpuSpec, LibraryCatalog, LibrarySpec};
    use std::sync::Arc;

    fn empty_rt() -> ProcessRuntime {
        let catalog: Arc<LibraryCatalog> =
            LibraryCatalog::new(vec![LibrarySpec::new("x.so", false, vec![])]);
        ProcessRuntime::new(catalog, GpuSpec::new("t", 1 << 30), CostModel::default(), 5)
    }

    fn artifact(prefix: u64, ops: Vec<ReplayOp>) -> MaterializedState {
        MaterializedState {
            version: ARTIFACT_VERSION,
            model: "m".into(),
            gpu: "g".into(),
            rank: 0,
            tp: 1,
            kv_free_bytes: 0,
            replay_prefix_allocs: prefix,
            replay_ops: ops,
            labels: HashMap::new(),
            permanent_contents: vec![],
            permanent_ptr_tables: vec![],
            graphs: vec![],
            stats: AnalysisStats::default(),
            checksum: 0,
        }
    }

    #[test]
    fn replay_rebuilds_layout_and_detects_misalignment() {
        let mut rt = empty_rt();
        // "Structure init": two natural allocations.
        let a = rt.cuda_malloc(256, AllocTag::Weights).unwrap();
        let _b = rt.cuda_malloc(512, AllocTag::Weights).unwrap();
        let art = artifact(
            2,
            vec![
                ReplayOp::Malloc { size: 1024 },
                ReplayOp::Free { alloc_seq: 2 },
                ReplayOp::Malloc { size: 1024 },
            ],
        );
        let (layout, d) = replay_allocations(&mut rt, &art).unwrap();
        assert_eq!(layout.ptr(0), Some(a));
        assert!(
            layout.ptr(2).is_none(),
            "freed replay alloc removed from map"
        );
        assert!(layout.ptr(3).is_some());
        assert!(d.as_nanos() > 0);

        // Misaligned prefix: a third natural allocation.
        let mut rt2 = empty_rt();
        rt2.cuda_malloc(256, AllocTag::Weights).unwrap();
        let err = replay_allocations(&mut rt2, &art).unwrap_err();
        assert!(matches!(
            err,
            MedusaError::ReplayMisaligned {
                expected: 2,
                actual: 1
            }
        ));
    }

    #[test]
    fn dangling_free_is_detected() {
        let mut rt = empty_rt();
        let art = artifact(0, vec![ReplayOp::Free { alloc_seq: 7 }]);
        assert!(matches!(
            replay_allocations(&mut rt, &art),
            Err(MedusaError::ReplayDanglingFree { alloc_seq: 7 })
        ));
    }

    #[test]
    fn permanent_contents_are_restored() {
        let mut rt = empty_rt();
        let mut art = artifact(0, vec![ReplayOp::Malloc { size: 4 }]);
        art.permanent_contents = vec![(0, [9u8; 16])];
        let (layout, _) = replay_allocations(&mut rt, &art).unwrap();
        let p = layout.ptr(0).unwrap();
        assert_eq!(rt.memory().read_digest(p.addr()).unwrap(), [9u8; 16]);
    }

    #[test]
    fn labels_resolve_after_replay() {
        let mut rt = empty_rt();
        let mut art = artifact(0, vec![ReplayOp::Malloc { size: 64 }]);
        art.labels.insert("kv.key".into(), 0);
        let (layout, _) = replay_allocations(&mut rt, &art).unwrap();
        assert!(layout.label("kv.key").is_ok());
        assert!(matches!(
            layout.label("nope"),
            Err(MedusaError::MissingLabel { .. })
        ));
    }
}
