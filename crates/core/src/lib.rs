//! # medusa
//!
//! Reproduction of **Medusa: Accelerating Serverless LLM Inference with
//! Materialization** (ASPLOS'25). Medusa attacks the serverless LLM
//! cold-start problem by *state materialization*: instead of dynamically
//! profiling the KV cache and capturing CUDA graphs at every cold start, an
//! offline phase materializes them once per `<GPU type, model type>` and
//! the online phase restores them.
//!
//! The crate implements the paper's full mechanism stack:
//!
//! * **Offline capturing stage** ([`run_offline_capture`]) — an
//!   instrumented cold start intercepting every allocation and kernel
//!   launch while capturing all 35 decode graphs (§3).
//! * **Offline analysis stage** ([`analyze`]) — trace-based *indirect index
//!   pointer* construction (§4.1), constant/pointer classification, kernel
//!   name tables (§5), and copy-free buffer-content classification (§4.3).
//! * **Online restoration** — allocation-sequence replay + pointer
//!   restoration ([`replay_allocations`], [`restore_graph`]),
//!   triggering-kernel-enhanced kernel address restoration
//!   ([`KernelResolver`]), and validation with false-positive correction
//!   ([`validate_and_correct`]).
//! * **Cold-start pipelines** ([`ColdStart`]) — the paper's compared
//!   strategies: `vLLM`, `vLLM+Async`, `Medusa`, and `w/o CUDA graph` —
//!   with pre-restore artifact validation ([`ArtifactValidator`]),
//!   deterministic fault injection ([`FaultPlan`]), and graceful
//!   degradation to the vanilla path (§7).
//!
//! ## Example
//!
//! ```rust,no_run
//! use medusa::{ColdStart, Strategy};
//! use medusa_model::ModelSpec;
//!
//! # fn main() -> Result<(), medusa::MedusaError> {
//! let spec = ModelSpec::by_name("Qwen1.5-4B").expect("catalog model");
//! // Offline, once per <GPU type, model type>:
//! let (artifacts, _) = ColdStart::new(&spec).materialize(1)?;
//! // Online, on every cold start (falls back to vanilla if the artifact
//! // fails validation or restoration):
//! let outcome = ColdStart::new(&spec)
//!     .strategy(Strategy::Medusa)
//!     .artifacts(&artifacts)
//!     .run()?;
//! println!("loading phase: {}", outcome.report().loading);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod builder;
mod engine;
mod error;
mod faults;
mod offline {
    pub mod analysis;
    pub mod capture;
}
mod online {
    pub mod kernels;
    pub mod replay;
    pub mod validate;
}
mod pipeline;
mod tp;
mod trace;
mod validator;

pub use artifact::maf2::{
    digest as maf2_digest, encode_bundle as encode_maf2_bundle, is_maf2, GraphView, Maf2Reader,
    SectionExtent, SectionKind, ShardMeta, ShardView, MAF2_MAGIC,
};
pub use artifact::registry::{
    chunk_spans, ChunkManifest, ChunkRef, ChunkStore, DedupStats, SectionSpan, TemplateManifest,
    CHUNK_AVG_BITS, CHUNK_MAX, CHUNK_MIN, MANIFEST_VERSION,
};
pub use artifact::template::{ArtifactTemplate, ModelDelta};
pub use artifact::{
    AnalysisStats, GraphRead, GraphSpec, KernelName, MaterializedState, NodeRef, NodeSpec,
    ParamPatch, ParamRef, ParamSpec, PtrTableEntry, ReplayOp, ShardRead, ARTIFACT_VERSION,
};
pub use builder::{ColdStart, ColdStartOutcome, Fallback};
pub use engine::{host_pair, par_map, Lane, NodeId, Schedule, StageGraph};
pub use error::{ErrorContext, MedusaError, MedusaResult};
pub use faults::{AbortPoint, FaultKind, FaultPlan};
pub use offline::analysis::{analyze, count_naive_mismatches, AnalysisOutput};
pub use offline::capture::{
    run_offline_capture, run_offline_capture_sharded, CaptureOutput, GraphWindow, KernelInfo,
};
pub use online::kernels::{KernelAddrs, KernelResolver, ResolutionStats};
pub use online::replay::{replay_allocations, restore_graph, ReplayedLayout};
pub use online::validate::{
    reset_kv_state, validate_and_correct, validate_graph, ValidatedGraph, VALIDATION_STEP,
};
pub use pipeline::{
    materialize_offline, ColdStartReport, OfflineReport, Parallelism, ReadyEngine, Stage,
    StageSpan, Strategy, TriggeringMode,
};
pub use tp::TpArtifacts;
pub use trace::{AllocEvent, TraceWalker};
pub use validator::{ArtifactValidator, ValidationCheck, ValidationReport};
