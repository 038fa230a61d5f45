//! The offline **capturing stage** (paper §3, Figure 5 left).
//!
//! Runs one fully instrumented vanilla cold start: every `cudaMalloc`,
//! `cudaFree` and `cudaLaunchKernel` is intercepted into a trace (a launch
//! only marks its position; a captured launch's kernel and parameters are
//! read from its graph node), the profiling forwarding's available-memory
//! figure is recorded, and all 35 decode graphs are captured. The output
//! feeds the analysis stage.

use crate::error::MedusaResult;
use medusa_gpu::{CostModel, Digest, GpuSpec, ProcessRuntime, SimDuration, TraceEvent};
use medusa_graph::CudaGraph;
use medusa_kvcache::kv_cache_init_stage;
use medusa_model::{
    build_catalog, capture_decode_graph, load_weights, warmup_decode, ModelInstance, ModelSpec,
    Tokenizer,
};
use std::collections::HashMap;

/// One captured graph plus its trace window.
#[derive(Debug)]
pub struct GraphWindow {
    /// The decode batch size.
    pub batch: u32,
    /// Trace position where the capture began.
    pub trace_start: usize,
    /// Trace position where the capture ended.
    pub trace_end: usize,
    /// The captured graph (offline addresses).
    pub graph: CudaGraph,
}

/// Offline-resolved identity of a kernel address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelInfo {
    /// Mangled name.
    pub name: String,
    /// Owning dynamic library.
    pub library: String,
    /// Whether `dlsym` can see it (probed for real during capture).
    pub exported: bool,
}

/// Everything the capturing stage hands to the analysis stage.
#[derive(Debug)]
pub struct CaptureOutput {
    /// Model the run served.
    pub model: String,
    /// GPU the run used.
    pub gpu: String,
    /// Tensor-parallel rank of the run (0 for single GPU).
    pub rank: u32,
    /// Tensor-parallel degree of the run (1 for single GPU).
    pub tp: u32,
    /// The full interception trace (including teardown frees).
    pub trace: Vec<TraceEvent>,
    /// Trace position where the replayable (de)allocation sequence begins
    /// (right after model structure initialization).
    pub replay_start_pos: usize,
    /// Trace position at the start of the capturing stage (buffer-role
    /// classification boundary, §4.3).
    pub stage_start_pos: usize,
    /// Trace position at the end of the last capture (replay ops stop here;
    /// teardown frees come after).
    pub capture_end_pos: usize,
    /// Captured graphs with their trace windows, ascending batch size.
    pub windows: Vec<GraphWindow>,
    /// Offline kernel address → identity.
    pub kernel_info: HashMap<u64, KernelInfo>,
    /// Final content digests of all live buffers, keyed by allocation
    /// sequence index (the analysis picks the permanent ones).
    pub final_contents: HashMap<u64, Digest>,
    /// Final pointer-table contents of live buffers (indirect pointers, §8),
    /// keyed by allocation sequence index.
    pub final_ptr_tables: HashMap<u64, Vec<u64>>,
    /// The profiled available free GPU memory (§6).
    pub kv_free_bytes: u64,
    /// Semantic buffer label → allocation sequence index.
    pub labels: HashMap<String, u64>,
    /// Simulated duration of the whole capturing stage (Fig. 9).
    pub duration: SimDuration,
}

/// Runs the instrumented offline cold start for `spec` on `gpu`.
///
/// # Errors
///
/// Propagates driver, KV and capture errors.
pub fn run_offline_capture(
    spec: &ModelSpec,
    gpu: GpuSpec,
    cost: CostModel,
    seed: u64,
) -> MedusaResult<CaptureOutput> {
    run_offline_capture_sharded(spec, 0, 1, gpu, cost, seed)
}

/// Like [`run_offline_capture`] for one tensor-parallel shard (paper §8
/// multi-GPU support): rank `rank` of a `tp`-way instance runs its own
/// instrumented cold start and produces its own indirect index pointer
/// table.
///
/// # Errors
///
/// Propagates driver, KV and capture errors.
pub fn run_offline_capture_sharded(
    spec: &ModelSpec,
    rank: u32,
    tp: u32,
    gpu: GpuSpec,
    cost: CostModel,
    seed: u64,
) -> MedusaResult<CaptureOutput> {
    let mut rt = ProcessRuntime::new(build_catalog(spec), gpu, cost, seed);
    rt.enable_tracing();
    let t0 = rt.now();

    // ❶–❸ structure init, weights, tokenizer (vanilla order).
    let mut inst = ModelInstance::initialize_sharded(&mut rt, spec, rank, tp)?;
    load_weights(&mut rt, &inst, 1.0)?;
    rt.advance(Tokenizer::load_duration(spec.vocab(), rt.cost()));

    // Everything after structure init must be replayed online.
    let replay_start_pos = rt.trace_len();

    // ❹ KV cache initialization (profiling forwarding + allocation).
    let (kv_cache, kv_free_bytes) = kv_cache_init_stage(&mut rt, &mut inst)?;
    let kv_view = kv_cache.view();

    // Engine setup: persistent decode workspace.
    inst.ensure_workspace(&mut rt)?;

    // ❺ capturing stage: warm-up + capture for all 35 batch sizes.
    let stage_start_pos = rt.trace_len();
    let mut windows = Vec::new();
    for (gi, batch) in ModelSpec::capture_batch_sizes().into_iter().enumerate() {
        warmup_decode(&mut rt, &mut inst, batch, &kv_view)?;
        let trace_start = rt.trace_len();
        let graph = capture_decode_graph(&mut rt, &mut inst, batch, &kv_view, gi)?;
        let trace_end = rt.trace_len();
        windows.push(GraphWindow {
            batch,
            trace_start,
            trace_end,
            graph,
        });
    }
    let capture_end_pos = rt.trace_len();

    // Materialize-to-storage cost of dumping node state (Fig. 9).
    let total_nodes: u64 = windows.iter().map(|w| w.graph.node_count() as u64).sum();
    rt.advance(SimDuration::from_nanos(
        rt.cost().materialize_dump_per_node_ns * total_nodes,
    ));

    // Resolve kernel identities: `cuFuncGetName` plus a real dlsym probe.
    let mut kernel_info = HashMap::new();
    for w in &windows {
        for node in w.graph.iter() {
            let addr = node.kernel_addr();
            if kernel_info.contains_key(&addr) {
                continue;
            }
            let name = rt.cu_func_get_name(addr)?.to_string();
            let kref = rt
                .resolve_addr(addr)
                .expect("name resolved implies known addr");
            let library = rt.catalog().lib(kref.lib as usize).name().to_string();
            let handle = rt.dlopen(&library)?;
            let exported = match rt.dlsym(handle, &name) {
                Ok(_) => true,
                Err(medusa_gpu::GpuError::SymbolHidden { .. }) => false,
                Err(e) => return Err(e.into()),
            };
            kernel_info.insert(
                addr,
                KernelInfo {
                    name,
                    library,
                    exported,
                },
            );
        }
    }

    // Semantic labels → allocation sequence indices.
    let mut labels = HashMap::new();
    for (name, ptr) in inst.labeled_buffers() {
        let seq = rt
            .memory()
            .containing(ptr.addr())
            .expect("labelled buffers live")
            .seq();
        labels.insert(name, seq);
    }
    for (name, ptr) in [
        ("kv.key", kv_view.kcache),
        ("kv.value", kv_view.vcache),
        ("kv.block_table", kv_view.block_table),
    ] {
        let seq = rt
            .memory()
            .containing(ptr.addr())
            .expect("kv buffers live")
            .seq();
        labels.insert(name.to_string(), seq);
    }

    // Snapshot final contents of live buffers (by allocation index).
    let mut final_contents = HashMap::new();
    let mut final_ptr_tables = HashMap::new();
    let live: Vec<(u64, u64)> = rt
        .memory()
        .iter()
        .map(|a| (a.seq(), a.base().addr()))
        .collect();
    for (seq, addr) in live {
        final_contents.insert(seq, rt.memory().read_digest(addr)?);
        let table = rt.memory().read_ptr_table(addr)?;
        if !table.is_empty() {
            final_ptr_tables.insert(seq, table.to_vec());
        }
    }

    // Engine teardown: scratch frees land in the trace *after*
    // capture_end_pos, which is what classifies them as temporary (§4.3).
    inst.release_graph_scratch(&mut rt)?;

    let duration = rt.now().since(t0);
    Ok(CaptureOutput {
        model: spec.name().to_string(),
        gpu: rt.spec().name().to_string(),
        rank,
        tp,
        trace: rt.take_trace(),
        replay_start_pos,
        stage_start_pos,
        capture_end_pos,
        windows,
        kernel_info,
        final_contents,
        final_ptr_tables,
        kv_free_bytes,
        labels,
        duration,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use medusa_model::schedule;

    fn capture_small() -> CaptureOutput {
        let spec = ModelSpec::by_name("Qwen1.5-0.5B").unwrap();
        run_offline_capture(&spec, GpuSpec::a100_40gb(), CostModel::default(), 11).unwrap()
    }

    #[test]
    fn capture_produces_35_windows_with_table1_nodes() {
        let out = capture_small();
        let spec = ModelSpec::by_name("Qwen1.5-0.5B").unwrap();
        assert_eq!(out.windows.len(), 35);
        let total: u64 = out
            .windows
            .iter()
            .map(|w| w.graph.node_count() as u64)
            .sum();
        assert_eq!(total, spec.table1_nodes(), "Table 1 node count");
        for (i, w) in out.windows.iter().enumerate() {
            assert_eq!(
                w.graph.node_count() as u64,
                schedule::nodes_for_graph(&spec, i)
            );
            assert!(w.trace_start < w.trace_end);
        }
    }

    #[test]
    fn trace_markers_are_ordered() {
        let out = capture_small();
        assert!(out.replay_start_pos > 0);
        assert!(out.replay_start_pos <= out.stage_start_pos);
        assert!(out.stage_start_pos < out.capture_end_pos);
        assert!(out.capture_end_pos <= out.trace.len());
        // Teardown frees exist after capture end.
        assert!(out.trace[out.capture_end_pos..]
            .iter()
            .any(|e| matches!(e, TraceEvent::Free { .. })));
    }

    #[test]
    fn kernel_info_flags_hidden_gemms() {
        let out = capture_small();
        let hidden: Vec<_> = out
            .kernel_info
            .values()
            .filter(|k| !k.exported)
            .map(|k| k.name.clone())
            .collect();
        assert!(
            hidden.iter().any(|n| n.contains("gemm")),
            "GEMMs must be hidden"
        );
        let exported: Vec<_> = out
            .kernel_info
            .values()
            .filter(|k| k.exported)
            .map(|k| k.name.clone())
            .collect();
        assert!(exported.iter().any(|n| n.contains("rms_norm")));
        // Exported fraction in the paper's ballpark (69.2% of *nodes* for
        // Llama2 13B; here we only check both classes exist).
        assert!(!hidden.is_empty() && !exported.is_empty());
    }

    #[test]
    fn labels_cover_kv_workspace_and_magic() {
        let out = capture_small();
        for needed in [
            "kv.key",
            "kv.value",
            "kv.block_table",
            "ws.ids",
            "ws.logits",
            "magic.0.a",
        ] {
            assert!(out.labels.contains_key(needed), "missing label {needed}");
        }
    }

    #[test]
    fn capture_duration_scales_like_figure9() {
        let out = capture_small();
        let secs = out.duration.as_secs_f64();
        // Fig. 9: capturing stage averages ~9.7 s (a full cold start plus
        // per-node dump cost).
        assert!(
            (3.0..20.0).contains(&secs),
            "capturing stage {secs}s out of band"
        );
    }

    #[test]
    fn profiled_free_memory_is_positive_and_below_capacity() {
        let out = capture_small();
        assert!(out.kv_free_bytes > 0);
        assert!(out.kv_free_bytes < 40 * (1 << 30));
    }
}
