//! Validation forwarding and false-positive correction (paper §4, §8).
//!
//! The pointer/constant classification is heuristic ("the high address
//! prefix may also contain false positive candidates (which are rare)"), so
//! Medusa validates restored graphs by running a model forwarding and
//! comparing the outputs of the eager and the restored-graph executions.
//! On mismatch, the offending speculated pointer is corrected back to a
//! constant.

use crate::artifact::{GraphSpec, ParamSpec};
use crate::error::{MedusaError, MedusaResult};
use crate::online::kernels::KernelAddrs;
use crate::online::replay::{restore_graph, ReplayedLayout};
use medusa_gpu::{GpuError, ProcessRuntime};
use medusa_graph::GraphExec;
use medusa_model::{
    capture_ctx_len, decode_step_with_graph, input_digest, run_eager_forward_step, ForwardConfig,
    KvView, ModelInstance,
};

/// The step counter used for validation inputs, distinct from serving steps.
pub const VALIDATION_STEP: u64 = 0x5eed_0001;

/// Resets the KV cache contents to the canonical validation state so eager
/// and replayed executions start identically.
///
/// # Errors
///
/// Returns a driver error if the KV buffers are stale.
pub fn reset_kv_state(rt: &mut ProcessRuntime, kv: &KvView) -> MedusaResult<()> {
    rt.memory_mut()
        .write_digest(kv.kcache.addr(), input_digest("validate_k", 0, 0))?;
    rt.memory_mut()
        .write_digest(kv.vcache.addr(), input_digest("validate_v", 0, 0))?;
    rt.memory_mut()
        .write_digest(kv.block_table.addr(), input_digest("validate_bt", 0, 0))?;
    Ok(())
}

/// Runs the validation forwarding: eager output vs. restored-graph replay
/// output for the same inputs (paper §4). A replay fault (dangling pointer,
/// stale kernel) counts as a validation failure, not an error.
///
/// # Errors
///
/// Returns driver errors from the *eager* reference run only.
pub fn validate_graph(
    rt: &mut ProcessRuntime,
    inst: &mut ModelInstance,
    exec: &GraphExec,
    batch: u32,
    kv: &KvView,
) -> MedusaResult<bool> {
    let cfg = ForwardConfig::decode(batch, capture_ctx_len());
    reset_kv_state(rt, kv)?;
    let eager = run_eager_forward_step(rt, inst, &cfg, Some(kv), VALIDATION_STEP)?;
    reset_kv_state(rt, kv)?;
    match decode_step_with_graph(rt, inst, exec, batch, VALIDATION_STEP) {
        Ok(replayed) => Ok(replayed.output == eager.output),
        Err(medusa_graph::GraphError::Gpu(
            GpuError::DanglingRead { .. }
            | GpuError::DanglingWrite { .. }
            | GpuError::InvalidDeviceFunction { .. }
            | GpuError::InvalidPointer { .. },
        )) => Ok(false),
        Err(e) => Err(e.into()),
    }
}

/// Outcome of [`validate_and_correct`].
#[derive(Debug)]
pub struct ValidatedGraph {
    /// The instantiated, validated graph.
    pub exec: GraphExec,
    /// Number of speculated pointers corrected back to constants.
    pub corrected_params: usize,
}

/// Restores, instantiates and validates a graph; on output mismatch,
/// corrects false-positive pointer speculations back to constants
/// one-by-one until validation passes (§4/§8). The corrections are written
/// back into `gspec` so re-restorations inherit them.
///
/// # Errors
///
/// * [`MedusaError::ValidationFailed`] if no correction repairs the graph.
/// * Restoration/driver errors.
pub fn validate_and_correct(
    rt: &mut ProcessRuntime,
    inst: &mut ModelInstance,
    gspec: &mut GraphSpec,
    layout: &ReplayedLayout,
    kernel_addrs: &KernelAddrs,
    kv: &KvView,
) -> MedusaResult<ValidatedGraph> {
    let graph = restore_graph(gspec, layout, kernel_addrs)?;
    let exec = GraphExec::instantiate(rt, graph)?;
    if validate_graph(rt, inst, &exec, gspec.batch, kv)? {
        return Ok(ValidatedGraph {
            exec,
            corrected_params: 0,
        });
    }

    // Candidate false positives: every speculated pointer, tried in order.
    let candidates: Vec<(usize, usize)> = gspec
        .nodes
        .iter()
        .enumerate()
        .flat_map(|(ni, n)| {
            n.params
                .iter()
                .enumerate()
                .filter(|(_, p)| matches!(p, ParamSpec::IndirectPtr { .. }))
                .map(move |(pi, _)| (ni, pi))
        })
        .collect();

    let mut corrected = 0usize;
    for (ni, pi) in candidates {
        let original = gspec.nodes[ni].params[pi].clone();
        let ParamSpec::IndirectPtr { raw, .. } = original else {
            continue;
        };
        gspec.nodes[ni].params[pi] = ParamSpec::Const {
            bytes: raw.to_le_bytes().to_vec(),
        };
        let graph = restore_graph(gspec, layout, kernel_addrs)?;
        let exec = GraphExec::instantiate(rt, graph)?;
        if validate_graph(rt, inst, &exec, gspec.batch, kv)? {
            corrected += 1;
            return Ok(ValidatedGraph {
                exec,
                corrected_params: corrected,
            });
        }
        gspec.nodes[ni].params[pi] = original;
    }
    Err(MedusaError::ValidationFailed { batch: gspec.batch })
}
