//! # medusa-gpu
//!
//! Simulated GPU / CUDA driver substrate for the [Medusa (ASPLOS'25)]
//! reproduction.
//!
//! The real Medusa is built on the CUDA driver; this crate provides the
//! closest synthetic equivalent that exercises the same code paths the paper
//! depends on:
//!
//! * **Non-deterministic addresses across launches** — per-process ASLR for
//!   both shared-library code and device memory, plus seeded allocator reuse
//!   jitter (paper challenge I, §4).
//! * **Hidden kernels behind lazy module loading** — closed-source
//!   (cuBLAS-like) kernels are absent from `dlsym` symbol tables and only
//!   resolvable by enumerating a driver-loaded module, which is what makes
//!   triggering-kernels necessary (paper challenge II, §5).
//! * **Capture-time restrictions** — synchronizing calls (lazy library
//!   initialization, module loads, `cudaDeviceSynchronize`) invalidate an
//!   active stream capture, which is why warm-up forwarding exists (§2.3).
//! * **Executable semantics** — kernels fold digests of their input buffers
//!   into their output buffers, so a wrongly restored pointer or kernel
//!   address is *observable*, enabling the paper's validation forwarding.
//! * **Virtual time** — every API charges a calibrated cost
//!   ([`CostModel`]), reproducing the paper's latency landscape without
//!   hardware.
//!
//! ## Example
//!
//! ```rust
//! use medusa_gpu::{
//!     AllocTag, CostClass, CostModel, GpuSpec, KernelDef, KernelSig, LibraryCatalog,
//!     LibrarySpec, ModuleSpec, ParamKind, ProcessRuntime, Work,
//! };
//!
//! # fn main() -> Result<(), medusa_gpu::GpuError> {
//! let catalog = LibraryCatalog::new(vec![LibrarySpec::new(
//!     "libmodel.so",
//!     false,
//!     vec![ModuleSpec::new(
//!         "elementwise",
//!         vec![KernelDef::new(
//!             "vec_add",
//!             true,
//!             KernelSig::new(vec![ParamKind::PtrIn, ParamKind::PtrOut]),
//!             CostClass::MemoryBound,
//!         )],
//!     )],
//! )]);
//! let mut rt = ProcessRuntime::new(catalog, GpuSpec::a100_40gb(), CostModel::default(), 42);
//! let lib = rt.dlopen("libmodel.so")?;
//! let sym = rt.dlsym(lib, "vec_add")?;
//! let addr = rt.cuda_get_func_by_symbol(sym)?;
//! let a = rt.cuda_malloc(1024, AllocTag::Activation)?;
//! let b = rt.cuda_malloc(1024, AllocTag::Activation)?;
//! rt.memory_mut().write_digest(a.addr(), [1; 16])?;
//! rt.launch_kernel(addr, &[a.addr(), b.addr()], Work::new(0.0, 2048.0), 0)?;
//! rt.device_synchronize()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod error;
mod hash;
mod kernel;
mod library;
mod memory;
mod process;
mod storage;
mod stream;

pub use clock::{CostModel, SimDuration, SimTime, VirtualClock};
pub use error::{GpuError, GpuResult};
pub use hash::{splitmix64, xxh64};
pub use kernel::{CostClass, KernelDef, KernelRef, KernelSig, ParamBuffer, ParamKind, Work};
pub use library::{LibraryCatalog, LibrarySpec, ModuleSpec};
pub use memory::{
    AllocTag, Allocation, DeviceMemory, DevicePtr, Digest, MemoryStats, ALLOC_ALIGN,
    DEVICE_REGION_BASE,
};
pub use process::{
    CapturedLaunch, DigestState, GpuSpec, HostSymbol, LibHandle, ModuleHandle, ProcessRuntime,
    TraceEvent,
};
pub use storage::SimStorage;
pub use stream::{EventId, EventTable, StreamId, StreamPool};
