//! # medusa-model
//!
//! LLM model substrate for the Medusa (ASPLOS'25) reproduction: the ten
//! models of the paper's Table 1, their kernel libraries and per-layer
//! kernel schedules, deterministic model structure initialization, weight
//! loading from simulated storage, a working tokenizer, and the forward
//! pass in all the flavours the paper needs (eager, warm-up, capture,
//! first-layer triggering, graph replay).
//!
//! The key property this crate provides to Medusa's analysis is
//! **deterministic control flow**: for a given model, every process launch
//! performs the same allocations and kernel launches in the same order —
//! only the raw addresses differ (paper §3, "Key ideas").
//!
//! ## Example
//!
//! ```rust
//! use medusa_gpu::{CostModel, GpuSpec, ProcessRuntime};
//! use medusa_model::{build_catalog, load_weights, ModelInstance, ModelSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = ModelSpec::by_name("Qwen1.5-0.5B").expect("catalog model");
//! let mut rt = ProcessRuntime::new(
//!     build_catalog(&spec),
//!     GpuSpec::a100_40gb(),
//!     CostModel::default(),
//!     42,
//! );
//! let inst = ModelInstance::initialize(&mut rt, &spec)?;
//! load_weights(&mut rt, &inst, 1.0)?;
//! println!("loaded {} bytes of weights at {}", inst.weight_bytes(), rt.now());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod forward;
mod kernels;
pub mod schedule;
mod spec;
mod structure;
mod tokenizer;
mod weights;

pub use forward::{
    capture_ctx_len, capture_decode_graph, capture_first_layer_graph, decode_step_with_graph,
    handwritten_triggering_kernels, input_digest, run_eager_forward, run_eager_forward_step,
    run_handwritten_triggers, warmup_decode, warmup_first_layer, write_ws_inputs, ForwardConfig,
    ForwardOutput, KvView, Phase,
};
pub use kernels::{
    batch_bucket, build_catalog, GemmFamily, KernelAddrs, KernelRole, CUBLAS_SIM_LIB, GEMM_BUCKETS,
    MODEL_KERNELS_LIB,
};
pub use spec::ModelSpec;
pub use structure::{
    magic_digest, LayerWeights, ModelInstance, WeightTensor, Workspace, LOGICAL_HEAD_TENSORS,
    LOGICAL_TENSORS_PER_LAYER,
};
pub use tokenizer::{Tokenizer, TokenizerError};
pub use weights::{apply_weights, load_duration, load_weights, weight_digest};
