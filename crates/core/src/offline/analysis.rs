//! The offline **analysis stage** (paper §3, §4.1, §4.3, §5).
//!
//! Synthesizes the capturing stage's outputs into a [`MaterializedState`]:
//!
//! * walks the interleaved alloc/free/launch trace with a live allocation
//!   map, rewriting every data-pointer parameter as an **indirect index
//!   pointer** (trace-based matching — immune to the Figure 6 address-reuse
//!   false positives);
//! * keeps constants by value;
//! * replaces kernel addresses with mangled names + libraries;
//! * classifies buffers into model-parameter / temporary / permanent and
//!   materializes **only permanent contents** (copy-free restoration).

use crate::artifact::{
    AnalysisStats, GraphSpec, MaterializedState, NodeSpec, ParamSpec, PtrTableEntry, ReplayOp,
    ARTIFACT_VERSION,
};
use crate::error::{MedusaError, MedusaResult};
use crate::offline::capture::{CaptureOutput, KernelInfo};
use crate::trace::TraceWalker;
use medusa_gpu::{CostModel, DevicePtr, SimDuration, TraceEvent};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Output of the analysis stage: the artifact plus its simulated duration
/// (Fig. 9's analysis bar).
#[derive(Debug)]
pub struct AnalysisOutput {
    /// The materialized state to persist.
    pub state: MaterializedState,
    /// Simulated analysis duration.
    pub duration: SimDuration,
}

/// Runs the analysis stage over a capturing stage's output.
///
/// # Errors
///
/// Returns [`MedusaError::UnmatchedPointer`] if a graph parameter looks like
/// a device pointer but matches no live allocation at its launch position
/// (would indicate a broken trace).
pub fn analyze(capture: &CaptureOutput, cost: &CostModel) -> MedusaResult<AnalysisOutput> {
    let mut walker = TraceWalker::new();
    let mut stats = AnalysisStats::default();
    let mut replay_ops = Vec::new();
    let mut replay_prefix_allocs = 0u64;
    let mut stage_start_seq = u64::MAX;
    let mut freed_seqs: HashSet<u64> = HashSet::new();
    // Every allocation a pointer parameter refers to, with repeats.
    let mut referenced: Vec<u64> = Vec::new();
    // One shared kernel and library name per distinct kernel, cloned into
    // each of its nodes.
    let names: HashMap<u64, (&KernelInfo, Arc<str>, Arc<str>)> = capture
        .kernel_info
        .iter()
        .map(|(&addr, info)| {
            let shared = (
                info,
                info.name.as_str().into(),
                info.library.as_str().into(),
            );
            (addr, shared)
        })
        .collect();

    // Window bookkeeping: windows are disjoint and ordered.
    let mut graphs: Vec<GraphSpec> = capture
        .windows
        .iter()
        .map(|w| GraphSpec {
            batch: w.batch,
            nodes: Vec::with_capacity(w.graph.node_count()),
            edges: Vec::new(),
        })
        .collect();
    let mut widx = 0usize;

    for (pos, ev) in capture.trace.iter().enumerate() {
        if pos == capture.stage_start_pos {
            stage_start_seq = walker.history().len() as u64;
        }
        match ev {
            // Device-side allocations (§8) enter the sequence exactly like
            // host allocations once the compilation-pass interception makes
            // them visible; replay recreates them host-side.
            TraceEvent::Alloc { seq, addr, size } | TraceEvent::DeviceAlloc { seq, addr, size } => {
                walker.on_alloc(*seq, *addr, *size);
                if pos < capture.replay_start_pos {
                    replay_prefix_allocs += 1;
                } else if pos < capture.capture_end_pos {
                    replay_ops.push(ReplayOp::Malloc { size: *size });
                }
            }
            TraceEvent::Free { addr, .. } => {
                if let Some(seq) = walker.on_free(*addr) {
                    freed_seqs.insert(seq);
                    if (capture.replay_start_pos..capture.capture_end_pos).contains(&pos) {
                        replay_ops.push(ReplayOp::Free { alloc_seq: seq });
                    }
                }
            }
            TraceEvent::Launch => {
                // Advance to the window containing pos, if any.
                while widx < capture.windows.len() && pos >= capture.windows[widx].trace_end {
                    widx += 1;
                }
                let Some(w) = capture.windows.get(widx) else {
                    continue;
                };
                if pos < w.trace_start {
                    continue; // warm-up launch outside any capture
                }
                let node_idx = graphs[widx].nodes.len();
                let node = w.graph.node(node_idx);
                let params = node.params();
                let (info, kernel, library) = names
                    .get(&node.kernel_addr())
                    .expect("capture resolved every node kernel");
                let mut pspecs = Vec::with_capacity(params.param_count());
                for i in 0..params.param_count() {
                    let size = params.size_of(i);
                    let value = params.value(i);
                    let looks_ptr = size == 8 && DevicePtr::has_device_prefix(value);
                    if looks_ptr {
                        match walker.resolve_live(value) {
                            Some(r) => {
                                stats.pointer_params += 1;
                                if r.reuses > 1 {
                                    stats.multi_match_pointers += 1;
                                }
                                referenced.push(r.seq);
                                pspecs.push(ParamSpec::IndirectPtr {
                                    alloc_seq: r.seq,
                                    offset: r.offset,
                                    raw: value,
                                });
                                continue;
                            }
                            None => {
                                return Err(MedusaError::UnmatchedPointer {
                                    batch: w.batch,
                                    node: node_idx,
                                    param: i,
                                    addr: value,
                                });
                            }
                        }
                    }
                    stats.const_params += 1;
                    pspecs.push(ParamSpec::Const {
                        bytes: value.to_le_bytes()[..size as usize].into(),
                    });
                }
                stats.nodes += 1;
                if info.exported {
                    stats.dlsym_restorable_nodes += 1;
                } else {
                    stats.hidden_kernel_nodes += 1;
                }
                graphs[widx].nodes.push(NodeSpec {
                    kernel: Arc::clone(kernel),
                    library: Arc::clone(library),
                    exported: info.exported,
                    params: pspecs,
                    work: node.work(),
                    stream: w.graph.stream_of(node_idx),
                });
            }
        }
    }

    // Copy edges and check node counts.
    for (g, w) in graphs.iter_mut().zip(&capture.windows) {
        debug_assert_eq!(g.nodes.len(), w.graph.node_count());
        g.edges = w
            .graph
            .edges()
            .iter()
            .map(|&(s, d)| (s as u32, d as u32))
            .collect();
    }

    // Buffer-role classification over every referenced allocation (§4.3).
    referenced.sort_unstable();
    referenced.dedup();
    let mut permanent_contents = Vec::new();
    let mut permanent_ptr_tables = Vec::new();
    // Worklist: pointer tables (§8) make their targets referenced too,
    // transitively.
    let mut worklist = referenced;
    let mut classified: HashSet<u64> = HashSet::new();
    while let Some(seq) = worklist.pop() {
        if !classified.insert(seq) {
            continue;
        }
        if seq < stage_start_seq {
            // Allocated before the capturing stage: model parameters, KV
            // cache, workspace — contents restored by their own stages.
            stats.param_buffers += 1;
        } else if freed_seqs.contains(&seq) {
            // Deallocated after capturing: temporary (§4.3).
            stats.temp_buffers += 1;
        } else {
            stats.permanent_buffers += 1;
            let digest = capture
                .final_contents
                .get(&seq)
                .copied()
                .expect("permanent buffers are live at snapshot time");
            permanent_contents.push((seq, digest));
            // Indirect pointers (§8): a permanent buffer holding a pointer
            // table is materialized entry-by-entry as indirect indices, and
            // its targets become referenced buffers themselves.
            if let Some(table) = capture.final_ptr_tables.get(&seq) {
                let entries = table
                    .iter()
                    .enumerate()
                    .map(|(i, &addr)| {
                        walker
                            .resolve(addr)
                            .map(|(alloc_seq, offset)| PtrTableEntry { alloc_seq, offset })
                            .ok_or(MedusaError::UnmatchedTableEntry {
                                table_seq: seq,
                                index: i,
                                addr,
                            })
                    })
                    .collect::<MedusaResult<Vec<_>>>()?;
                worklist.extend(entries.iter().map(|e| e.alloc_seq));
                permanent_ptr_tables.push((seq, entries));
            }
        }
    }
    permanent_contents.sort_by_key(|(seq, _)| *seq);
    permanent_ptr_tables.sort_by_key(|(seq, _)| *seq);

    let duration = SimDuration::from_nanos(cost.analysis_per_node_ns * stats.nodes);
    let mut state = MaterializedState {
        version: ARTIFACT_VERSION,
        model: capture.model.clone(),
        gpu: capture.gpu.clone(),
        rank: capture.rank,
        tp: capture.tp,
        kv_free_bytes: capture.kv_free_bytes,
        replay_prefix_allocs,
        replay_ops,
        labels: capture.labels.clone(),
        permanent_contents,
        permanent_ptr_tables,
        graphs,
        stats,
        checksum: 0,
    };
    state.seal();
    Ok(AnalysisOutput { state, duration })
}

/// Naive-matching ablation (Figure 6): how many graph pointer parameters
/// would a whole-history first-match strategy resolve to a *different*
/// allocation index than trace-based matching? Each difference is a
/// potential data corruption.
pub fn count_naive_mismatches(capture: &CaptureOutput) -> u64 {
    let mut walker = TraceWalker::new();
    let mut mismatches = 0u64;
    let (mut widx, mut node_idx) = (0usize, 0usize);
    for (pos, ev) in capture.trace.iter().enumerate() {
        match ev {
            TraceEvent::Alloc { seq, addr, size } | TraceEvent::DeviceAlloc { seq, addr, size } => {
                walker.on_alloc(*seq, *addr, *size)
            }
            TraceEvent::Free { addr, .. } => {
                walker.on_free(*addr);
            }
            TraceEvent::Launch => {
                while widx < capture.windows.len() && pos >= capture.windows[widx].trace_end {
                    (widx, node_idx) = (widx + 1, 0);
                }
                let Some(w) = capture.windows.get(widx) else {
                    continue;
                };
                if pos < w.trace_start {
                    continue;
                }
                let params = w.graph.node(node_idx).params();
                node_idx += 1;
                for i in 0..params.param_count() {
                    let v = params.value(i);
                    if params.size_of(i) == 8 && DevicePtr::has_device_prefix(v) {
                        if let (Some(correct), Some(naive)) =
                            (walker.resolve(v), walker.naive_first_match(v))
                        {
                            if correct.0 != naive.0 {
                                mismatches += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::capture::run_offline_capture;
    use medusa_gpu::GpuSpec;
    use medusa_model::ModelSpec;

    fn analyzed() -> AnalysisOutput {
        let spec = ModelSpec::by_name("Qwen1.5-0.5B").unwrap();
        let cap =
            run_offline_capture(&spec, GpuSpec::a100_40gb(), CostModel::default(), 21).unwrap();
        analyze(&cap, &CostModel::default()).unwrap()
    }

    #[test]
    fn artifact_matches_table1_and_classifies_params() {
        let out = analyzed();
        let spec = ModelSpec::by_name("Qwen1.5-0.5B").unwrap();
        assert_eq!(out.state.total_nodes(), spec.table1_nodes());
        assert_eq!(out.state.graphs.len(), 35);
        assert!(out.state.stats.pointer_params > 0);
        assert!(out.state.stats.const_params > 0);
        assert!(out.state.stats.dlsym_restorable_nodes > 0);
        assert!(out.state.stats.hidden_kernel_nodes > 0);
        // Exported fraction should be in the paper's ballpark (69.2% for
        // Llama2 13B b=1; ours is schedule-wide).
        let frac = out.state.stats.dlsym_restorable_nodes as f64 / out.state.stats.nodes as f64;
        assert!(
            (0.4..0.8).contains(&frac),
            "dlsym-restorable fraction {frac}"
        );
    }

    #[test]
    fn permanent_buffers_are_the_magic_pairs() {
        let out = analyzed();
        let spec = ModelSpec::by_name("Qwen1.5-0.5B").unwrap();
        // Two 4-byte magic buffers per layer (paper §4.3: each ~9% kernel
        // needs two 4-byte permanent buffers).
        assert_eq!(out.state.stats.permanent_buffers, 2 * spec.layers() as u64);
        assert_eq!(
            out.state.permanent_contents.len(),
            2 * spec.layers() as usize
        );
        // The reshape_and_cache kernels are ~1/10 of nodes — the paper's 9%.
        let reshape_nodes = out
            .state
            .graphs
            .iter()
            .flat_map(|g| &g.nodes)
            .filter(|n| n.kernel.contains("reshape_and_cache"))
            .count() as f64;
        let frac = reshape_nodes / out.state.stats.nodes as f64;
        assert!(
            (0.05..0.13).contains(&frac),
            "permanent-buffer kernel fraction {frac}"
        );
    }

    #[test]
    fn temp_and_param_buffers_are_skipped() {
        let out = analyzed();
        assert!(
            out.state.stats.param_buffers > 0,
            "weights/kv/ws referenced"
        );
        assert!(out.state.stats.temp_buffers > 0, "graph scratch is temp");
        // Copy-free: permanent contents are tiny compared to weights.
        let content_bytes = out.state.permanent_contents.len() * 16;
        assert!(content_bytes < 4096);
    }

    #[test]
    fn replay_ops_cover_post_structure_allocations() {
        let out = analyzed();
        assert!(out.state.replay_prefix_allocs > 0);
        let mallocs = out
            .state
            .replay_ops
            .iter()
            .filter(|o| matches!(o, ReplayOp::Malloc { .. }))
            .count();
        let frees = out
            .state
            .replay_ops
            .iter()
            .filter(|o| matches!(o, ReplayOp::Free { .. }))
            .count();
        assert!(
            mallocs > frees,
            "persistent buffers outlive the replay range"
        );
        assert!(frees > 0, "profiling temporaries must be freed in-replay");
    }

    #[test]
    fn address_reuse_occurs_and_naive_matching_would_corrupt() {
        let spec = ModelSpec::by_name("Qwen1.5-0.5B").unwrap();
        let cap =
            run_offline_capture(&spec, GpuSpec::a100_40gb(), CostModel::default(), 22).unwrap();
        let out = analyze(&cap, &CostModel::default()).unwrap();
        assert!(
            out.state.stats.multi_match_pointers > 0,
            "allocator reuse must create Fig. 6 multi-match hazards"
        );
        assert!(
            count_naive_mismatches(&cap) > 0,
            "naive whole-history matching must disagree somewhere"
        );
    }

    #[test]
    fn analysis_duration_scales_with_nodes() {
        let out = analyzed();
        let expected = CostModel::default().analysis_per_node_ns * out.state.stats.nodes;
        assert_eq!(out.duration.as_nanos(), expected);
        // Fig. 9: analysis dominates the sub-minute offline phase.
        assert!(out.duration.as_secs_f64() < 60.0);
    }

    #[test]
    fn artifact_roundtrips_through_json() {
        let out = analyzed();
        let s = out.state.to_json().unwrap();
        let back = MaterializedState::from_json(&s).unwrap();
        assert_eq!(back, out.state);

        // Constants up to 8 bytes are held inline and longer ones spill;
        // either way the JSON is a byte list and both encodings restore
        // the same state.
        let four = ParamSpec::Const {
            bytes: vec![1, 0, 0, 0].into(),
        };
        assert_eq!(
            serde_json::to_string(&four).unwrap(),
            r#"{"Const":{"bytes":[1,0,0,0]}}"#
        );
        let mut state = out.state;
        let params = &mut state.graphs[0].nodes[0].params;
        for len in [4u8, 8, 40, 255] {
            params.push(ParamSpec::Const {
                bytes: (1..=len).collect(),
            });
        }
        params.push(ParamSpec::Const {
            bytes: vec![7; 256].into(),
        });
        state.seal();
        let back = MaterializedState::from_json(&state.to_json().unwrap()).unwrap();
        assert_eq!(back, state);
        let back = MaterializedState::from_maf2(&state.to_maf2().unwrap()).unwrap();
        assert_eq!(back, state);
    }
}
