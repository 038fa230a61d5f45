//! The simulated process runtime: one cold-start's view of the GPU driver.
//!
//! A [`ProcessRuntime`] corresponds to one launch of a serving instance. It
//! owns the virtual clock, the device memory view, the per-launch ASLR bases
//! of every shared library, the driver's module-loading state, stream/event
//! state, an optional stream capture, and an optional interception trace
//! (the hook Medusa's offline phase uses to record the allocation and launch
//! sequences, paper §3/§4.1).
//!
//! Two runtimes constructed with different seeds observe **different kernel
//! addresses and different device pointers** for the same control flow —
//! which is exactly why Medusa cannot blindly dump and reload CUDA graphs.

use crate::clock::{CostModel, SimDuration, SimTime, VirtualClock};
use crate::error::{GpuError, GpuResult};
use crate::kernel::{KernelDef, KernelRef, ParamBuffer, ParamKind, Work};
use crate::library::LibraryCatalog;
use crate::memory::{AllocTag, DeviceMemory, DevicePtr, Digest};
use crate::stream::{EventId, EventTable, StreamId, StreamPool};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Base of the simulated code address range (shared library mappings).
/// Distinct from [`crate::memory::DEVICE_REGION_BASE`] so device-pointer
/// heuristics never match kernel addresses.
const CODE_REGION_BASE: u64 = 0x0000_5f00_0000_0000;
/// Each library's base is drawn from a window this wide above its slot.
const CODE_ASLR_WINDOW: u64 = 1 << 34;
/// Distance between library slots: wider than the ASLR window plus a
/// library's code span, so no two libraries' kernels ever share an
/// address.
const LIB_SPACING: u64 = 1 << 36;

/// Static description of the GPU hardware.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GpuSpec {
    name: String,
    total_mem: u64,
}

impl GpuSpec {
    /// Creates a GPU spec.
    pub fn new(name: impl Into<String>, total_mem: u64) -> Self {
        GpuSpec {
            name: name.into(),
            total_mem,
        }
    }

    /// The paper's A100-40GB SXM4.
    pub fn a100_40gb() -> Self {
        GpuSpec::new("A100-40GB-SXM4", 40 * (1 << 30))
    }

    /// Marketing name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total device memory in bytes.
    pub fn total_mem(&self) -> u64 {
        self.total_mem
    }
}

/// Handle returned by [`ProcessRuntime::dlopen`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LibHandle(pub(crate) usize);

/// Host-side function symbol returned by [`ProcessRuntime::dlsym`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostSymbol {
    kref: KernelRef,
}

/// Handle to a driver-loaded CUDA module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModuleHandle {
    /// Library index in the catalog.
    pub lib: u16,
    /// Module index within the library.
    pub module: u16,
}

/// One kernel launch recorded by an active stream capture, before it is
/// assembled into a CUDA graph node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapturedLaunch {
    /// The (per-process) device function address.
    pub kernel_addr: u64,
    /// Raw parameter buffer as launched.
    pub params: ParamBuffer,
    /// The launch's work size (grid-dim equivalent).
    pub work: Work,
    /// Stream the launch was issued on.
    pub stream: StreamId,
    /// Indices of captured launches this one depends on.
    pub deps: Vec<usize>,
}

/// One event in the interception trace consumed by Medusa's offline analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// `cudaMalloc` returned `addr` for the `seq`-th allocation.
    Alloc {
        /// Global allocation sequence index.
        seq: u64,
        /// Returned base address.
        addr: u64,
        /// Rounded size in bytes.
        size: u64,
    },
    /// `cudaFree` released the allocation based at `addr`.
    Free {
        /// Freed base address.
        addr: u64,
        /// Size of the freed allocation.
        size: u64,
    },
    /// `cudaLaunchKernel` was intercepted. The event only marks the
    /// launch's place in the trace: a launch inside a capture keeps its
    /// kernel address and parameters in the captured graph's node.
    Launch,
    /// A **device-side** allocation performed inside a kernel, made visible
    /// by the compilation-pass interception of paper §8. Only recorded when
    /// [`ProcessRuntime::set_intercept_device_allocs`] is enabled.
    DeviceAlloc {
        /// Global allocation sequence index.
        seq: u64,
        /// Returned base address.
        addr: u64,
        /// Rounded size in bytes.
        size: u64,
    },
}

#[derive(Debug)]
struct CaptureState {
    launches: Vec<CapturedLaunch>,
    stream_last: HashMap<StreamId, usize>,
    pending_event_deps: HashMap<StreamId, Vec<usize>>,
}

/// The per-launch simulated process runtime. See the module docs.
#[derive(Debug)]
pub struct ProcessRuntime {
    catalog: Arc<LibraryCatalog>,
    spec: GpuSpec,
    cost: CostModel,
    clock: VirtualClock,
    memory: DeviceMemory,
    lib_bases: Vec<Option<u64>>,
    lib_initialized: Vec<bool>,
    module_loaded: Vec<Vec<bool>>,
    /// Every mapped kernel address, with its kernel and the digest fold of
    /// its name that each execution starts from.
    addr_to_kernel: HashMap<u64, (KernelRef, DigestState)>,
    streams: StreamPool,
    events: EventTable,
    capture: Option<CaptureState>,
    trace: Option<Vec<TraceEvent>>,
    intercept_device_allocs: bool,
    seed: u64,
}

impl ProcessRuntime {
    /// Default number of streams available to a process.
    pub const DEFAULT_STREAMS: usize = 4;

    /// Boots a fresh process against `catalog` on `spec` hardware.
    ///
    /// `seed` controls all per-launch non-determinism (library ASLR, device
    /// allocator base and reuse jitter).
    pub fn new(catalog: Arc<LibraryCatalog>, spec: GpuSpec, cost: CostModel, seed: u64) -> Self {
        let n_libs = catalog.len();
        let module_loaded = (0..n_libs)
            .map(|i| vec![false; catalog.lib(i).modules().len()])
            .collect();
        ProcessRuntime {
            memory: DeviceMemory::new(spec.total_mem(), seed),
            catalog,
            spec,
            cost,
            clock: VirtualClock::new(),
            lib_bases: vec![None; n_libs],
            lib_initialized: vec![false; n_libs],
            module_loaded,
            addr_to_kernel: HashMap::new(),
            streams: StreamPool::new(Self::DEFAULT_STREAMS),
            events: EventTable::new(),
            capture: None,
            trace: None,
            intercept_device_allocs: true,
            seed,
        }
    }

    // ---------------------------------------------------------------- basics

    /// The process seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The hardware spec.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The shared library catalog.
    pub fn catalog(&self) -> &Arc<LibraryCatalog> {
        &self.catalog
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Advances the CPU clock (used by higher layers for CPU-side work).
    pub fn advance(&mut self, d: SimDuration) {
        self.clock.advance(d);
    }

    /// Moves the CPU clock forward to `t` (never rewinds).
    pub fn advance_to(&mut self, t: SimTime) {
        self.clock.advance_to(t);
    }

    /// The device memory view.
    pub fn memory(&self) -> &DeviceMemory {
        &self.memory
    }

    /// Mutable device memory view (tests and content setup).
    pub fn memory_mut(&mut self) -> &mut DeviceMemory {
        &mut self.memory
    }

    /// The instant all queued GPU work drains.
    pub fn gpu_idle_at(&self) -> SimTime {
        self.streams.all_free_at()
    }

    // ---------------------------------------------------------------- tracing

    /// Enables the interception trace (Medusa offline capturing stage).
    pub fn enable_tracing(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// Stops tracing and returns the recorded events.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.take().unwrap_or_default()
    }

    /// Whether interception is active.
    pub fn is_tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Number of trace events recorded so far (used to delimit windows such
    /// as per-graph capture ranges).
    pub fn trace_len(&self) -> usize {
        self.trace.as_ref().map_or(0, Vec::len)
    }

    fn record(&mut self, ev: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.push(ev);
        }
    }

    // ---------------------------------------------------------------- dl / driver

    /// `dlopen` a shared library by name, mapping its code at a per-launch
    /// randomized base. Idempotent (subsequent opens are cheap lookups).
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::LibraryNotFound`] for unknown libraries.
    pub fn dlopen(&mut self, name: &str) -> GpuResult<LibHandle> {
        let idx = self.catalog.lib_index(name)?;
        if self.lib_bases[idx].is_none() {
            self.clock
                .advance(SimDuration::from_nanos(self.cost.dlopen_ns));
            let base = self.lib_base_for(idx);
            self.lib_bases[idx] = Some(base);
            // Map every kernel's address now; module *loading* stays lazy.
            let catalog = Arc::clone(&self.catalog);
            for (mi, m) in catalog.lib(idx).modules().iter().enumerate() {
                for (ki, def) in m.kernels().iter().enumerate() {
                    let kref = KernelRef {
                        lib: idx as u16,
                        module: mi as u16,
                        kernel: ki as u16,
                    };
                    self.addr_to_kernel.insert(
                        Self::addr_of(base, kref),
                        (kref, DigestState::new(def.name())),
                    );
                }
            }
        } else {
            self.clock
                .advance(SimDuration::from_nanos(self.cost.dlsym_ns));
        }
        Ok(LibHandle(idx))
    }

    fn lib_base_for(&self, idx: usize) -> u64 {
        // splitmix64 over (seed, idx): per-launch, per-library ASLR.
        let mut x = self.seed ^ (idx as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        CODE_REGION_BASE + (idx as u64) * LIB_SPACING + ((x % CODE_ASLR_WINDOW) & !0xfff)
    }

    fn addr_of(base: u64, kref: KernelRef) -> u64 {
        base + ((kref.module as u64 + 1) << 20) + ((kref.kernel as u64 + 1) << 8)
    }

    /// `dlsym`: looks up an *exported* kernel symbol.
    ///
    /// # Errors
    ///
    /// * [`GpuError::LibraryNotLoaded`] if the library was never opened.
    /// * [`GpuError::SymbolHidden`] if the kernel exists but is not in the
    ///   dynamic symbol table (cuBLAS-like kernels, paper §5).
    /// * [`GpuError::SymbolNotFound`] if it does not exist at all.
    pub fn dlsym(&mut self, lib: LibHandle, symbol: &str) -> GpuResult<HostSymbol> {
        self.clock
            .advance(SimDuration::from_nanos(self.cost.dlsym_ns));
        let lib_name = self.catalog.lib(lib.0).name().to_string();
        if self.lib_bases[lib.0].is_none() {
            return Err(GpuError::LibraryNotLoaded { library: lib_name });
        }
        let kref = self.catalog.find_kernel(&lib_name, symbol)?;
        if !self.catalog.kernel(kref).exported() {
            return Err(GpuError::SymbolHidden {
                library: lib_name,
                symbol: symbol.to_string(),
            });
        }
        Ok(HostSymbol { kref })
    }

    /// `cudaGetFuncBySymbol`: resolves a host symbol to a device function
    /// address, loading its module if necessary (the exported-kernel
    /// restoration path of paper §5).
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::SyncDuringCapture`] if the implied module load
    /// happens inside an active capture.
    pub fn cuda_get_func_by_symbol(&mut self, sym: HostSymbol) -> GpuResult<u64> {
        self.clock
            .advance(SimDuration::from_nanos(self.cost.get_func_by_symbol_ns));
        self.ensure_module_loaded(sym.kref)?;
        Ok(self.kernel_address(sym.kref).expect("library is open"))
    }

    fn ensure_module_loaded(&mut self, kref: KernelRef) -> GpuResult<()> {
        if self.module_loaded[kref.lib as usize][kref.module as usize] {
            return Ok(());
        }
        if self.capture.is_some() {
            self.capture = None;
            return Err(GpuError::SyncDuringCapture {
                origin: format!("module load `{}`", self.catalog.module(kref).name()),
            });
        }
        self.clock
            .advance(SimDuration::from_nanos(self.cost.module_load_ns));
        self.module_loaded[kref.lib as usize][kref.module as usize] = true;
        Ok(())
    }

    /// Handles of all modules the driver has loaded so far.
    pub fn loaded_modules(&self) -> Vec<ModuleHandle> {
        let mut out = Vec::new();
        for (li, mods) in self.module_loaded.iter().enumerate() {
            for (mi, &loaded) in mods.iter().enumerate() {
                if loaded {
                    out.push(ModuleHandle {
                        lib: li as u16,
                        module: mi as u16,
                    });
                }
            }
        }
        out
    }

    /// `cuModuleEnumerateFunctions`: all device function addresses of a
    /// loaded module (paper §5 — resolves *hidden* kernels too).
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::ModuleNotLoaded`] if the driver has not loaded the
    /// module (this is why triggering-kernels are needed).
    pub fn cu_module_enumerate_functions(&mut self, h: ModuleHandle) -> GpuResult<Vec<u64>> {
        if !self.module_loaded[h.lib as usize][h.module as usize] {
            return Err(GpuError::ModuleNotLoaded {
                library: self.catalog.lib(h.lib as usize).name().to_string(),
                module: self.catalog.lib(h.lib as usize).modules()[h.module as usize]
                    .name()
                    .to_string(),
            });
        }
        let base = self.lib_bases[h.lib as usize].expect("loaded module implies open lib");
        let kernels = self.catalog.lib(h.lib as usize).modules()[h.module as usize].kernels();
        self.clock.advance(SimDuration::from_nanos(
            self.cost.module_enumerate_per_kernel_ns * kernels.len() as u64,
        ));
        Ok((0..kernels.len())
            .map(|ki| {
                Self::addr_of(
                    base,
                    KernelRef {
                        lib: h.lib,
                        module: h.module,
                        kernel: ki as u16,
                    },
                )
            })
            .collect())
    }

    /// `cuFuncGetName`: mangled name of a device function address.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidDeviceFunction`] for unknown addresses.
    pub fn cu_func_get_name(&self, addr: u64) -> GpuResult<&str> {
        let (kref, _) = self
            .addr_to_kernel
            .get(&addr)
            .ok_or(GpuError::InvalidDeviceFunction { addr })?;
        Ok(self.catalog.kernel(*kref).name())
    }

    /// Ground-truth address of a kernel in this process, if its library is
    /// open. (Test/diagnostic helper; production restoration goes through
    /// `dlsym`/enumeration.)
    pub fn kernel_address(&self, kref: KernelRef) -> Option<u64> {
        self.lib_bases[kref.lib as usize].map(|b| Self::addr_of(b, kref))
    }

    /// Resolves a device function address back to its catalog reference, if
    /// it is a mapped kernel address in this process.
    pub fn resolve_addr(&self, addr: u64) -> Option<KernelRef> {
        self.addr_to_kernel.get(&addr).map(|&(kref, _)| kref)
    }

    /// Whether the module containing `kref` is currently loaded.
    pub fn is_module_loaded(&self, kref: KernelRef) -> bool {
        self.module_loaded[kref.lib as usize][kref.module as usize]
    }

    // ---------------------------------------------------------------- memory

    /// `cudaMalloc`.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::OutOfMemory`] when capacity is exceeded.
    pub fn cuda_malloc(&mut self, size: u64, tag: AllocTag) -> GpuResult<DevicePtr> {
        self.clock
            .advance(SimDuration::from_nanos(self.cost.malloc_ns));
        let ptr = self.memory.alloc(size, tag)?;
        let alloc = *self.memory.containing(ptr.addr()).expect("just allocated");
        self.record(TraceEvent::Alloc {
            seq: alloc.seq(),
            addr: ptr.addr(),
            size: alloc.size(),
        });
        Ok(ptr)
    }

    /// `cudaFree`.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidFree`] if `ptr` is not a live base.
    pub fn cuda_free(&mut self, ptr: DevicePtr) -> GpuResult<()> {
        self.clock
            .advance(SimDuration::from_nanos(self.cost.free_ns));
        let size = self.memory.free(ptr)?;
        self.record(TraceEvent::Free {
            addr: ptr.addr(),
            size,
        });
        Ok(())
    }

    /// Host-to-device copy of `bytes` into the buffer containing `dst`,
    /// setting the buffer's content digest and blocking the caller for the
    /// transfer duration.
    ///
    /// # Errors
    ///
    /// * [`GpuError::MemcpyDuringCapture`] inside a capture.
    /// * [`GpuError::InvalidPointer`] if `dst` is not a live buffer.
    pub fn memcpy_h2d(
        &mut self,
        dst: DevicePtr,
        bytes: u64,
        content: Digest,
    ) -> GpuResult<SimDuration> {
        if self.capture.is_some() {
            return Err(GpuError::MemcpyDuringCapture);
        }
        self.memory.write_digest(dst.addr(), content)?;
        let d = SimDuration::from_secs_f64(bytes as f64 / self.cost.h2d_bandwidth);
        self.clock.advance(d);
        Ok(d)
    }

    // ---------------------------------------------------------------- events

    /// Creates a CUDA event.
    pub fn event_create(&mut self) -> EventId {
        self.events.create()
    }

    /// Records `event` on `stream`.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidStream`] / [`GpuError::InvalidEvent`] for
    /// unknown ids.
    pub fn event_record(&mut self, event: EventId, stream: StreamId) -> GpuResult<()> {
        let free_at = self.streams.free_at(stream)?;
        if let Some(cap) = self.capture.as_ref() {
            let node = cap.stream_last.get(&stream).copied();
            self.events.get_mut(event)?.capture_node = node;
        } else {
            self.events.get_mut(event)?.completes_at = Some(free_at);
        }
        Ok(())
    }

    /// Makes `stream` wait for `event`.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidStream`] / [`GpuError::InvalidEvent`] for
    /// unknown ids.
    pub fn stream_wait_event(&mut self, stream: StreamId, event: EventId) -> GpuResult<()> {
        self.streams.free_at(stream)?; // validate stream id
        if let Some(cap) = self.capture.as_mut() {
            let node = self.events.get(event)?.capture_node;
            if let Some(n) = node {
                cap.pending_event_deps.entry(stream).or_default().push(n);
            }
        } else {
            let completes = self
                .events
                .get(event)?
                .completes_at
                .unwrap_or(SimTime::ZERO);
            let cur = self.streams.free_at(stream)?;
            self.streams.set_free_at(stream, cur.max(completes))?;
        }
        Ok(())
    }

    // ---------------------------------------------------------------- capture

    /// Begins a stream capture on `stream` (paper §2.2, second way to build
    /// CUDA graphs).
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::ConcurrentCapture`] if a capture is already
    /// active in this process.
    pub fn begin_capture(&mut self, stream: StreamId) -> GpuResult<()> {
        self.streams.free_at(stream)?;
        if self.capture.is_some() {
            return Err(GpuError::ConcurrentCapture);
        }
        self.capture = Some(CaptureState {
            launches: Vec::new(),
            stream_last: HashMap::new(),
            pending_event_deps: HashMap::new(),
        });
        Ok(())
    }

    /// Ends the active capture, returning the recorded launches with their
    /// dependency edges.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::NotCapturing`] without an active capture.
    pub fn end_capture(&mut self) -> GpuResult<Vec<CapturedLaunch>> {
        let cap = self.capture.take().ok_or(GpuError::NotCapturing)?;
        Ok(cap.launches)
    }

    /// Whether a capture is in progress.
    pub fn is_capturing(&self) -> bool {
        self.capture.is_some()
    }

    // ---------------------------------------------------------------- launch

    /// `cudaLaunchKernel`: the single entry point for both eager execution
    /// and stream capture.
    ///
    /// In eager mode the kernel is executed immediately (pointer validation,
    /// digest propagation, pipelined CPU/GPU timing). In capture mode the
    /// launch is recorded with its dependencies and **not** executed.
    ///
    /// # Errors
    ///
    /// * [`GpuError::InvalidDeviceFunction`] for unmapped addresses.
    /// * [`GpuError::ParamMismatch`] when arity differs from the signature.
    /// * [`GpuError::SyncDuringCapture`] when the launch triggers a lazy
    ///   library init or module load during capture (warm-up missing).
    /// * [`GpuError::DanglingRead`] / [`GpuError::DanglingWrite`] when eager
    ///   execution touches a dead pointer.
    pub fn launch_kernel(
        &mut self,
        addr: u64,
        values: &[u64],
        work: Work,
        stream: StreamId,
    ) -> GpuResult<()> {
        self.streams.free_at(stream)?;
        let &(kref, prefix) = self
            .addr_to_kernel
            .get(&addr)
            .ok_or(GpuError::InvalidDeviceFunction { addr })?;
        let catalog = Arc::clone(&self.catalog);
        let def = catalog.kernel(kref);
        if values.len() != def.sig().len() {
            return Err(GpuError::ParamMismatch {
                kernel: def.name().to_string(),
                expected: def.sig().len(),
                got: values.len(),
            });
        }
        // Lazy library init: synchronizes, so it invalidates any capture.
        if catalog.lib(kref.lib as usize).needs_init() && !self.lib_initialized[kref.lib as usize] {
            if self.capture.is_some() {
                self.capture = None;
                return Err(GpuError::SyncDuringCapture {
                    origin: format!("lazy init of `{}`", catalog.lib(kref.lib as usize).name()),
                });
            }
            self.clock
                .advance(SimDuration::from_nanos(self.cost.library_init_ns));
            self.lib_initialized[kref.lib as usize] = true;
        }
        self.ensure_module_loaded(kref)?;
        self.record(TraceEvent::Launch);

        if let Some(cap) = self.capture.as_mut() {
            let idx = cap.launches.len();
            let mut deps = Vec::new();
            if let Some(&prev) = cap.stream_last.get(&stream) {
                deps.push(prev);
            }
            if let Some(evdeps) = cap.pending_event_deps.remove(&stream) {
                for d in evdeps {
                    if !deps.contains(&d) {
                        deps.push(d);
                    }
                }
            }
            cap.launches.push(CapturedLaunch {
                kernel_addr: addr,
                params: ParamBuffer::encode(def.sig(), values),
                work,
                stream,
                deps,
            });
            cap.stream_last.insert(stream, idx);
            self.clock
                .advance(SimDuration::from_nanos(self.cost.capture_per_kernel_ns));
            return Ok(());
        }

        // Eager path: CPU launch overhead, then pipelined GPU execution.
        // Values are read as a packed buffer would hold them: a 4-byte
        // parameter keeps its low 4 bytes.
        self.clock
            .advance(SimDuration::from_nanos(self.cost.eager_launch_cpu_ns));
        let exec = self.execute(def, prefix, work, |i, kind| {
            if kind.width() == 4 {
                values[i] & 0xffff_ffff
            } else {
                values[i]
            }
        })?;
        let start = self.clock.now().max(self.streams.free_at(stream)?);
        self.streams.set_free_at(stream, start + exec)?;
        Ok(())
    }

    /// Executes a kernel's *semantics* (pointer validation + digest
    /// propagation) and returns its GPU execution time, without advancing
    /// the clock or touching stream state. Graph replay uses this to run
    /// nodes under its own DAG scheduler.
    ///
    /// # Errors
    ///
    /// Same address/pointer errors as [`ProcessRuntime::launch_kernel`];
    /// additionally [`GpuError::InvalidDeviceFunction`] if the kernel's
    /// module is not loaded (a restored graph with a stale kernel address or
    /// an un-triggered module fails here, exactly like the real driver).
    pub fn execute_kernel_raw(
        &mut self,
        addr: u64,
        params: &ParamBuffer,
        work: Work,
    ) -> GpuResult<SimDuration> {
        let &(kref, prefix) = self
            .addr_to_kernel
            .get(&addr)
            .ok_or(GpuError::InvalidDeviceFunction { addr })?;
        if !self.module_loaded[kref.lib as usize][kref.module as usize] {
            return Err(GpuError::InvalidDeviceFunction { addr });
        }
        let catalog = Arc::clone(&self.catalog);
        let def = catalog.kernel(kref);
        if params.param_count() != def.sig().len() {
            return Err(GpuError::ParamMismatch {
                kernel: def.name().to_string(),
                expected: def.sig().len(),
                got: params.param_count(),
            });
        }
        self.execute(def, prefix, work, |i, _| params.value(i))
    }

    /// The semantics shared by eager launches and graph replay: folds the
    /// inputs into a digest seeded with `prefix` (the kernel name's fold),
    /// writes it to every output and returns the execution time.
    /// `value(i, kind)` is parameter `i` as the kernel reads it.
    fn execute(
        &mut self,
        def: &KernelDef,
        prefix: DigestState,
        work: Work,
        value: impl Fn(usize, ParamKind) -> u64,
    ) -> GpuResult<SimDuration> {
        let dangling_read = |addr| GpuError::DanglingRead {
            kernel: def.name().to_string(),
            addr,
        };
        let mut h = prefix;
        for (i, kind) in def.sig().iter().enumerate() {
            let v = value(i, kind);
            if kind == ParamKind::PtrArrayIn {
                // Indirect pointers (§8): dereference every entry of the
                // pointer table and fold the targets' contents.
                let entries = self
                    .memory
                    .read_ptr_table(v)
                    .map_err(|_| dangling_read(v))?;
                for &entry in entries {
                    let d = self
                        .memory
                        .read_digest(entry)
                        .map_err(|_| dangling_read(entry))?;
                    h.absorb_bytes(&d);
                }
            } else if kind.is_pointer() {
                if kind.is_read() {
                    let d = self.memory.read_digest(v).map_err(|_| dangling_read(v))?;
                    h.absorb_bytes(&d);
                }
            } else {
                h.absorb_u64(v);
            }
        }
        // Write outputs.
        for (i, kind) in def.sig().iter().enumerate() {
            if kind.is_pointer() && kind.is_write() {
                let v = value(i, kind);
                let mut out = h;
                out.absorb_u64(i as u64);
                self.memory
                    .write_digest(v, out.finish())
                    .map_err(|_| GpuError::DanglingWrite {
                        kernel: def.name().to_string(),
                        addr: v,
                    })?;
            }
        }
        Ok(work.exec_time(def.class(), &self.cost))
    }

    /// Enables/disables the paper-§8 compilation pass that makes
    /// device-side allocations visible to the interception trace. Without
    /// it, device-side allocations silently shift the allocation sequence —
    /// the failure mode §8 describes.
    pub fn set_intercept_device_allocs(&mut self, enabled: bool) {
        self.intercept_device_allocs = enabled;
    }

    /// Launches a kernel that performs a **device-side allocation** of
    /// `alloc_bytes` during its execution (paper §8), returning the
    /// allocated pointer. Eager-only: such kernels cannot be captured in
    /// this model.
    ///
    /// # Errors
    ///
    /// * [`GpuError::DeviceAllocDuringCapture`] inside a capture.
    /// * The same errors as [`ProcessRuntime::launch_kernel`].
    pub fn launch_allocating_kernel(
        &mut self,
        addr: u64,
        values: &[u64],
        work: Work,
        stream: StreamId,
        alloc_bytes: u64,
        tag: AllocTag,
    ) -> GpuResult<DevicePtr> {
        if self.capture.is_some() {
            return Err(GpuError::DeviceAllocDuringCapture);
        }
        self.launch_kernel(addr, values, work, stream)?;
        // The allocation happens on-device, outside cudaMalloc: the host
        // interceptor only sees it when the §8 compilation pass is active.
        let ptr = self.memory.alloc(alloc_bytes, tag)?;
        if self.intercept_device_allocs {
            let alloc = *self.memory.containing(ptr.addr()).expect("just allocated");
            self.record(TraceEvent::DeviceAlloc {
                seq: alloc.seq(),
                addr: ptr.addr(),
                size: alloc.size(),
            });
        }
        Ok(ptr)
    }

    /// `cudaDeviceSynchronize`: waits for all GPU work; invalidates any
    /// active capture (paper §2.3).
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::SyncDuringCapture`] during capture.
    pub fn device_synchronize(&mut self) -> GpuResult<()> {
        if self.capture.is_some() {
            self.capture = None;
            return Err(GpuError::SyncDuringCapture {
                origin: "cudaDeviceSynchronize".into(),
            });
        }
        let drain = self.streams.all_free_at();
        self.clock.advance_to(drain);
        self.clock
            .advance(SimDuration::from_nanos(self.cost.sync_ns));
        Ok(())
    }

    /// Direct stream access for schedulers (graph replay).
    pub fn streams(&self) -> &StreamPool {
        &self.streams
    }

    /// Mutable stream access for schedulers (graph replay).
    pub fn streams_mut(&mut self) -> &mut StreamPool {
        &mut self.streams
    }
}

/// Tiny FNV-1a–based digest builder used for kernel semantics.
#[derive(Debug, Clone, Copy)]
pub struct DigestState {
    a: u64,
    b: u64,
}

impl DigestState {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Starts a digest seeded with a label (kernel name, tensor id, ...).
    pub fn new(label: &str) -> Self {
        let mut s = DigestState {
            a: Self::FNV_OFFSET,
            b: Self::FNV_OFFSET ^ 0x5bd1_e995,
        };
        s.absorb_bytes(label.as_bytes());
        s
    }

    /// Absorbs raw bytes.
    pub fn absorb_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ byte as u64).wrapping_mul(Self::FNV_PRIME);
            self.b = self.b.rotate_left(13) ^ self.a;
        }
    }

    /// Absorbs a 64-bit value.
    pub fn absorb_u64(&mut self, v: u64) {
        self.absorb_bytes(&v.to_le_bytes());
    }

    /// Produces the 16-byte digest.
    pub fn finish(&self) -> Digest {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.a.to_le_bytes());
        out[8..].copy_from_slice(&self.b.to_le_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{CostClass, KernelDef, KernelSig, ParamKind};
    use crate::library::{LibrarySpec, ModuleSpec};

    fn catalog() -> Arc<LibraryCatalog> {
        let sig2 = KernelSig::new(vec![ParamKind::PtrIn, ParamKind::PtrOut]);
        let sig3 = KernelSig::new(vec![
            ParamKind::PtrIn,
            ParamKind::Scalar4,
            ParamKind::PtrOut,
        ]);
        LibraryCatalog::new(vec![
            LibrarySpec::new(
                "libmodel.so",
                false,
                vec![ModuleSpec::new(
                    "elementwise",
                    vec![
                        KernelDef::new("vec_add", true, sig2.clone(), CostClass::MemoryBound),
                        KernelDef::new("rms_norm", true, sig3, CostClass::MemoryBound),
                    ],
                )],
            ),
            LibrarySpec::new(
                "libcublas_sim.so",
                true,
                vec![ModuleSpec::new(
                    "gemm",
                    vec![KernelDef::new(
                        "ampere_gemm",
                        false,
                        sig2,
                        CostClass::ComputeBound,
                    )],
                )],
            ),
        ])
    }

    fn rt(seed: u64) -> ProcessRuntime {
        ProcessRuntime::new(
            catalog(),
            GpuSpec::new("test", 1 << 30),
            CostModel::default(),
            seed,
        )
    }

    #[test]
    fn dlopen_assigns_per_seed_bases() {
        let mut p1 = rt(1);
        let mut p2 = rt(2);
        let h1 = p1.dlopen("libmodel.so").unwrap();
        let h2 = p2.dlopen("libmodel.so").unwrap();
        let s1 = p1.dlsym(h1, "vec_add").unwrap();
        let s2 = p2.dlsym(h2, "vec_add").unwrap();
        let a1 = p1.cuda_get_func_by_symbol(s1).unwrap();
        let a2 = p2.cuda_get_func_by_symbol(s2).unwrap();
        assert_ne!(a1, a2, "kernel addresses must differ across launches");
        assert_eq!(p1.cu_func_get_name(a1).unwrap(), "vec_add");
    }

    #[test]
    fn dlsym_hides_unexported_kernels() {
        let mut p = rt(3);
        let h = p.dlopen("libcublas_sim.so").unwrap();
        assert!(matches!(
            p.dlsym(h, "ampere_gemm"),
            Err(GpuError::SymbolHidden { .. })
        ));
        assert!(matches!(
            p.dlsym(h, "nope"),
            Err(GpuError::SymbolNotFound { .. })
        ));
    }

    #[test]
    fn dlsym_requires_open_library() {
        let mut p = rt(3);
        // Construct a handle without opening: simulate misuse via index 0.
        let h = LibHandle(0);
        assert!(matches!(
            p.dlsym(h, "vec_add"),
            Err(GpuError::LibraryNotLoaded { .. })
        ));
    }

    #[test]
    fn module_enumeration_requires_triggered_load() {
        let mut p = rt(4);
        p.dlopen("libcublas_sim.so").unwrap();
        let h = ModuleHandle { lib: 1, module: 0 };
        assert!(matches!(
            p.cu_module_enumerate_functions(h),
            Err(GpuError::ModuleNotLoaded { .. })
        ));
        // Launch a kernel from the module (triggering-kernel): module loads.
        let addr = p
            .kernel_address(KernelRef {
                lib: 1,
                module: 0,
                kernel: 0,
            })
            .unwrap();
        let a = p.cuda_malloc(256, AllocTag::Activation).unwrap();
        let b = p.cuda_malloc(256, AllocTag::Activation).unwrap();
        p.memory_mut().write_digest(a.addr(), [1; 16]).unwrap();
        p.launch_kernel(addr, &[a.addr(), b.addr()], Work::NONE, 0)
            .unwrap();
        let addrs = p.cu_module_enumerate_functions(h).unwrap();
        assert_eq!(addrs, vec![addr]);
        assert_eq!(p.cu_func_get_name(addrs[0]).unwrap(), "ampere_gemm");
        assert_eq!(p.loaded_modules(), vec![h]);
    }

    #[test]
    fn eager_launch_updates_digests_and_time() {
        let mut p = rt(5);
        p.dlopen("libmodel.so").unwrap();
        let addr = p
            .kernel_address(KernelRef {
                lib: 0,
                module: 0,
                kernel: 0,
            })
            .unwrap();
        let a = p.cuda_malloc(1024, AllocTag::Activation).unwrap();
        let b = p.cuda_malloc(1024, AllocTag::Activation).unwrap();
        p.memory_mut().write_digest(a.addr(), [42; 16]).unwrap();
        let t0 = p.now();
        p.launch_kernel(addr, &[a.addr(), b.addr()], Work::new(0.0, 1e6), 0)
            .unwrap();
        assert!(p.now() > t0, "CPU launch overhead must advance the clock");
        assert!(p.gpu_idle_at() > p.now(), "GPU work is asynchronous");
        let out = p.memory().read_digest(b.addr()).unwrap();
        assert_ne!(out, [0u8; 16]);
        // Deterministic: same inputs → same output digest.
        let mut q = rt(5);
        q.dlopen("libmodel.so").unwrap();
        let qaddr = q
            .kernel_address(KernelRef {
                lib: 0,
                module: 0,
                kernel: 0,
            })
            .unwrap();
        let qa = q.cuda_malloc(1024, AllocTag::Activation).unwrap();
        let qb = q.cuda_malloc(1024, AllocTag::Activation).unwrap();
        q.memory_mut().write_digest(qa.addr(), [42; 16]).unwrap();
        q.launch_kernel(qaddr, &[qa.addr(), qb.addr()], Work::new(0.0, 1e6), 0)
            .unwrap();
        assert_eq!(q.memory().read_digest(qb.addr()).unwrap(), out);
    }

    #[test]
    fn launch_validates_address_arity_and_pointers() {
        let mut p = rt(6);
        p.dlopen("libmodel.so").unwrap();
        let addr = p
            .kernel_address(KernelRef {
                lib: 0,
                module: 0,
                kernel: 0,
            })
            .unwrap();
        assert!(matches!(
            p.launch_kernel(0xdead, &[], Work::NONE, 0),
            Err(GpuError::InvalidDeviceFunction { .. })
        ));
        assert!(matches!(
            p.launch_kernel(addr, &[1], Work::NONE, 0),
            Err(GpuError::ParamMismatch { .. })
        ));
        let a = p.cuda_malloc(256, AllocTag::Activation).unwrap();
        p.memory_mut().write_digest(a.addr(), [1; 16]).unwrap();
        // Output pointer dangling.
        assert!(matches!(
            p.launch_kernel(addr, &[a.addr(), 0x0007_2fff_0000_0000], Work::NONE, 0),
            Err(GpuError::DanglingWrite { .. })
        ));
        // Input pointer dangling.
        assert!(matches!(
            p.launch_kernel(addr, &[0x0007_2fff_0000_0000, a.addr()], Work::NONE, 0),
            Err(GpuError::DanglingRead { .. })
        ));
    }

    #[test]
    fn lazy_library_init_syncs_and_breaks_capture() {
        let mut p = rt(7);
        p.dlopen("libcublas_sim.so").unwrap();
        let addr = p
            .kernel_address(KernelRef {
                lib: 1,
                module: 0,
                kernel: 0,
            })
            .unwrap();
        let a = p.cuda_malloc(256, AllocTag::Activation).unwrap();
        let b = p.cuda_malloc(256, AllocTag::Activation).unwrap();
        p.memory_mut().write_digest(a.addr(), [1; 16]).unwrap();
        p.begin_capture(0).unwrap();
        let err = p
            .launch_kernel(addr, &[a.addr(), b.addr()], Work::NONE, 0)
            .unwrap_err();
        assert!(matches!(err, GpuError::SyncDuringCapture { .. }));
        assert!(!p.is_capturing(), "failed capture is aborted");
        // Warm-up outside capture succeeds and initializes the library...
        p.launch_kernel(addr, &[a.addr(), b.addr()], Work::NONE, 0)
            .unwrap();
        // ...after which capture works.
        p.begin_capture(0).unwrap();
        p.launch_kernel(addr, &[a.addr(), b.addr()], Work::NONE, 0)
            .unwrap();
        let launches = p.end_capture().unwrap();
        assert_eq!(launches.len(), 1);
        assert_eq!(launches[0].kernel_addr, addr);
    }

    #[test]
    fn capture_records_dependencies_per_stream_and_events() {
        let mut p = rt(8);
        p.dlopen("libmodel.so").unwrap();
        let addr = p
            .kernel_address(KernelRef {
                lib: 0,
                module: 0,
                kernel: 0,
            })
            .unwrap();
        let a = p.cuda_malloc(256, AllocTag::Activation).unwrap();
        let b = p.cuda_malloc(256, AllocTag::Activation).unwrap();
        p.memory_mut().write_digest(a.addr(), [1; 16]).unwrap();
        // Warm up (loads module) outside capture.
        p.launch_kernel(addr, &[a.addr(), b.addr()], Work::NONE, 0)
            .unwrap();

        p.begin_capture(0).unwrap();
        p.launch_kernel(addr, &[a.addr(), b.addr()], Work::NONE, 0)
            .unwrap(); // n0 s0
        let ev = p.event_create();
        p.event_record(ev, 0).unwrap();
        p.stream_wait_event(1, ev).unwrap();
        p.launch_kernel(addr, &[a.addr(), b.addr()], Work::NONE, 1)
            .unwrap(); // n1 s1 dep n0
        p.launch_kernel(addr, &[a.addr(), b.addr()], Work::NONE, 0)
            .unwrap(); // n2 s0 dep n0
        let l = p.end_capture().unwrap();
        assert_eq!(l.len(), 3);
        assert!(l[0].deps.is_empty());
        assert_eq!(l[1].deps, vec![0]);
        assert_eq!(l[2].deps, vec![0]);
        assert_eq!(l[1].stream, 1);
    }

    #[test]
    fn concurrent_capture_rejected() {
        let mut p = rt(9);
        p.begin_capture(0).unwrap();
        assert!(matches!(
            p.begin_capture(1),
            Err(GpuError::ConcurrentCapture)
        ));
        assert!(p.end_capture().is_ok());
        assert!(matches!(p.end_capture(), Err(GpuError::NotCapturing)));
    }

    #[test]
    fn sync_and_memcpy_rejected_during_capture() {
        let mut p = rt(10);
        let a = p.cuda_malloc(256, AllocTag::Weights).unwrap();
        p.begin_capture(0).unwrap();
        assert!(matches!(
            p.memcpy_h2d(a, 1024, [0; 16]),
            Err(GpuError::MemcpyDuringCapture)
        ));
        assert!(matches!(
            p.device_synchronize(),
            Err(GpuError::SyncDuringCapture { .. })
        ));
        assert!(!p.is_capturing());
    }

    #[test]
    fn trace_interleaves_allocs_frees_launches() {
        let mut p = rt(11);
        p.dlopen("libmodel.so").unwrap();
        let addr = p
            .kernel_address(KernelRef {
                lib: 0,
                module: 0,
                kernel: 0,
            })
            .unwrap();
        p.enable_tracing();
        let a = p.cuda_malloc(256, AllocTag::Activation).unwrap();
        let b = p.cuda_malloc(512, AllocTag::Activation).unwrap();
        p.memory_mut().write_digest(a.addr(), [1; 16]).unwrap();
        p.launch_kernel(addr, &[a.addr(), b.addr()], Work::NONE, 0)
            .unwrap();
        p.cuda_free(a).unwrap();
        let tr = p.take_trace();
        assert!(!p.is_tracing());
        assert_eq!(tr.len(), 4);
        assert!(matches!(tr[0], TraceEvent::Alloc { seq: 0, .. }));
        assert!(matches!(tr[1], TraceEvent::Alloc { seq: 1, .. }));
        assert!(matches!(tr[2], TraceEvent::Launch));
        assert!(matches!(tr[3], TraceEvent::Free { .. }));
    }

    #[test]
    fn memcpy_h2d_sets_content_and_costs_bandwidth_time() {
        let mut p = rt(12);
        let a = p.cuda_malloc(1 << 20, AllocTag::Weights).unwrap();
        let t0 = p.now();
        let d = p.memcpy_h2d(a, 1 << 20, [9; 16]).unwrap();
        assert_eq!(p.now().since(t0), d);
        assert_eq!(p.memory().read_digest(a.addr()).unwrap(), [9; 16]);
    }

    #[test]
    fn device_synchronize_waits_for_gpu() {
        let mut p = rt(13);
        p.dlopen("libmodel.so").unwrap();
        let addr = p
            .kernel_address(KernelRef {
                lib: 0,
                module: 0,
                kernel: 0,
            })
            .unwrap();
        let a = p.cuda_malloc(256, AllocTag::Activation).unwrap();
        let b = p.cuda_malloc(256, AllocTag::Activation).unwrap();
        p.memory_mut().write_digest(a.addr(), [1; 16]).unwrap();
        p.launch_kernel(addr, &[a.addr(), b.addr()], Work::new(0.0, 1.3e9), 0)
            .unwrap();
        let before = p.now();
        p.device_synchronize().unwrap();
        assert!(p.now() > before);
        assert!(p.now() >= p.gpu_idle_at());
    }

    #[test]
    fn eager_events_order_cross_stream_work() {
        let mut p = rt(20);
        p.dlopen("libmodel.so").unwrap();
        let addr = p
            .kernel_address(KernelRef {
                lib: 0,
                module: 0,
                kernel: 0,
            })
            .unwrap();
        let a = p.cuda_malloc(256, AllocTag::Activation).unwrap();
        let b = p.cuda_malloc(256, AllocTag::Activation).unwrap();
        p.memory_mut().write_digest(a.addr(), [1; 16]).unwrap();
        // One second of work on stream 0.
        let w = Work::new(0.0, p.cost().mem_bandwidth);
        p.launch_kernel(addr, &[a.addr(), b.addr()], w, 0).unwrap();
        let ev = p.event_create();
        p.event_record(ev, 0).unwrap();
        p.stream_wait_event(1, ev).unwrap();
        // Stream 1 cannot start before stream 0's work drains.
        let s0 = p.streams().free_at(0).unwrap();
        assert!(p.streams().free_at(1).unwrap() >= s0);
        p.launch_kernel(addr, &[a.addr(), b.addr()], Work::NONE, 1)
            .unwrap();
        assert!(p.streams().free_at(1).unwrap() > s0);
    }

    #[test]
    fn dlopen_is_idempotent_with_stable_addresses() {
        let mut p = rt(21);
        p.dlopen("libmodel.so").unwrap();
        let a1 = p
            .kernel_address(KernelRef {
                lib: 0,
                module: 0,
                kernel: 0,
            })
            .unwrap();
        p.dlopen("libmodel.so").unwrap();
        let a2 = p
            .kernel_address(KernelRef {
                lib: 0,
                module: 0,
                kernel: 0,
            })
            .unwrap();
        assert_eq!(a1, a2, "re-opening must not remap");
        assert!(matches!(
            p.dlopen("nope.so"),
            Err(GpuError::LibraryNotFound { .. })
        ));
    }

    #[test]
    fn launch_on_invalid_stream_is_rejected() {
        let mut p = rt(22);
        p.dlopen("libmodel.so").unwrap();
        let addr = p
            .kernel_address(KernelRef {
                lib: 0,
                module: 0,
                kernel: 0,
            })
            .unwrap();
        assert!(matches!(
            p.launch_kernel(addr, &[1, 2], Work::NONE, 99),
            Err(GpuError::InvalidStream { stream: 99 })
        ));
    }

    #[test]
    fn memcpy_to_dangling_pointer_is_rejected() {
        let mut p = rt(23);
        let a = p.cuda_malloc(256, AllocTag::Weights).unwrap();
        p.cuda_free(a).unwrap();
        assert!(matches!(
            p.memcpy_h2d(a, 16, [0; 16]),
            Err(GpuError::InvalidPointer { .. })
        ));
    }

    #[test]
    fn oom_propagates_through_cuda_malloc() {
        let mut p = ProcessRuntime::new(
            catalog(),
            GpuSpec::new("tiny", 1024),
            CostModel::default(),
            24,
        );
        p.cuda_malloc(512, AllocTag::Weights).unwrap();
        assert!(matches!(
            p.cuda_malloc(1024, AllocTag::Weights),
            Err(GpuError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn take_trace_drains_and_disables() {
        let mut p = rt(25);
        p.enable_tracing();
        p.cuda_malloc(256, AllocTag::Other).unwrap();
        assert_eq!(p.trace_len(), 1);
        assert_eq!(p.take_trace().len(), 1);
        assert_eq!(p.trace_len(), 0);
        // Tracing is off now: new events are not recorded.
        p.cuda_malloc(256, AllocTag::Other).unwrap();
        assert_eq!(p.take_trace().len(), 0);
    }

    #[test]
    fn func_name_of_unknown_address_errors() {
        let p = rt(26);
        assert!(matches!(
            p.cu_func_get_name(0xdead_beef),
            Err(GpuError::InvalidDeviceFunction { .. })
        ));
        assert!(p.resolve_addr(0xdead_beef).is_none());
    }

    #[test]
    fn device_alloc_interception_toggle_controls_trace() {
        let mut p = rt(27);
        p.dlopen("libmodel.so").unwrap();
        let addr = p
            .kernel_address(KernelRef {
                lib: 0,
                module: 0,
                kernel: 0,
            })
            .unwrap();
        let a = p.cuda_malloc(256, AllocTag::Activation).unwrap();
        p.memory_mut().write_digest(a.addr(), [1; 16]).unwrap();
        p.enable_tracing();
        let _ = p
            .launch_allocating_kernel(
                addr,
                &[a.addr(), a.addr()],
                Work::NONE,
                0,
                64,
                AllocTag::Workspace,
            )
            .unwrap();
        assert!(p
            .take_trace()
            .iter()
            .any(|e| matches!(e, TraceEvent::DeviceAlloc { .. })));
        p.enable_tracing();
        p.set_intercept_device_allocs(false);
        let _ = p
            .launch_allocating_kernel(
                addr,
                &[a.addr(), a.addr()],
                Work::NONE,
                0,
                64,
                AllocTag::Workspace,
            )
            .unwrap();
        assert!(!p
            .take_trace()
            .iter()
            .any(|e| matches!(e, TraceEvent::DeviceAlloc { .. })));
    }

    #[test]
    fn digest_state_is_deterministic_and_label_sensitive() {
        let mut a = DigestState::new("k");
        a.absorb_u64(1);
        let mut b = DigestState::new("k");
        b.absorb_u64(1);
        assert_eq!(a.finish(), b.finish());
        let mut c = DigestState::new("other");
        c.absorb_u64(1);
        assert_ne!(a.finish(), c.finish());
    }
}
