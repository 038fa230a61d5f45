//! Kernel definitions, signatures, launch parameters and timing.
//!
//! A kernel's *signature* describes its parameter layout exactly the way a
//! CUDA graph node exposes it (paper Figure 4): the number of parameters and
//! the byte size of each. Whether an 8-byte parameter is a data pointer or a
//! plain constant is **not** visible in the raw buffer — Medusa must infer it
//! (paper §4) — but the simulator needs the ground truth to execute kernels,
//! so [`ParamKind`] keeps it. Analysis code must only look at widths.

use crate::clock::{CostModel, SimDuration};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Ground-truth parameter role. Analysis code must only rely on
/// [`ParamKind::width`]; the pointer/scalar distinction is what Medusa's
/// offline phase has to reconstruct heuristically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ParamKind {
    /// 4-byte constant (lengths, strides, ...).
    Scalar4,
    /// 8-byte constant. A potential false-positive source for the pointer
    /// heuristic when its value happens to look like a device address.
    Scalar8,
    /// 8-byte device pointer the kernel reads from.
    PtrIn,
    /// 8-byte device pointer the kernel writes to.
    PtrOut,
    /// 8-byte device pointer the kernel reads and writes.
    PtrInOut,
    /// 8-byte device pointer to an **array of device pointers** the kernel
    /// dereferences (indirect pointers, paper §8). Absent from the ten
    /// evaluated models but supported as the paper's proposed extension.
    PtrArrayIn,
}

impl ParamKind {
    /// Byte width of the parameter as stored in the node's raw buffer.
    pub const fn width(self) -> u32 {
        match self {
            ParamKind::Scalar4 => 4,
            _ => 8,
        }
    }

    /// Whether this parameter is a device pointer (ground truth).
    pub const fn is_pointer(self) -> bool {
        matches!(
            self,
            ParamKind::PtrIn | ParamKind::PtrOut | ParamKind::PtrInOut | ParamKind::PtrArrayIn
        )
    }

    /// Whether the kernel reads through this parameter.
    pub const fn is_read(self) -> bool {
        matches!(
            self,
            ParamKind::PtrIn | ParamKind::PtrInOut | ParamKind::PtrArrayIn
        )
    }

    /// Whether the kernel writes through this parameter.
    pub const fn is_write(self) -> bool {
        matches!(self, ParamKind::PtrOut | ParamKind::PtrInOut)
    }
}

/// A kernel's parameter signature.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KernelSig(Vec<ParamKind>);

impl KernelSig {
    /// Creates a signature from parameter kinds in declaration order.
    pub fn new(params: Vec<ParamKind>) -> Self {
        KernelSig(params)
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the kernel takes no parameters.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The kind of parameter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn kind(&self, i: usize) -> ParamKind {
        self.0[i]
    }

    /// Iterates over parameter kinds.
    pub fn iter(&self) -> impl Iterator<Item = ParamKind> + '_ {
        self.0.iter().copied()
    }

    /// Total raw buffer size in bytes.
    pub fn raw_len(&self) -> usize {
        self.0.iter().map(|p| p.width() as usize).sum()
    }
}

/// An encoded parameter buffer: the raw bytes plus per-parameter layout, as a
/// CUDA graph node would expose them (paper Fig. 4: "pointer to the array of
/// all parameters, the number of parameters, and the size of each of them").
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamBuffer {
    bytes: Vec<u8>,
    layout: Vec<(u32, u32)>, // (offset, size) per parameter
}

impl ParamBuffer {
    /// Encodes launch values against a signature. Scalar4 values are
    /// truncated to their low 4 bytes, everything else is stored as 8-byte
    /// little-endian, matching a packed kernel argument buffer.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != sig.len()` — launches are constructed by
    /// the schedule, so a mismatch is a programming error.
    pub fn encode(sig: &KernelSig, values: &[u64]) -> Self {
        assert_eq!(values.len(), sig.len(), "parameter count mismatch");
        let mut bytes = Vec::with_capacity(sig.raw_len());
        let mut layout = Vec::with_capacity(values.len());
        for (kind, &v) in sig.iter().zip(values) {
            let off = bytes.len() as u32;
            let w = kind.width();
            bytes.extend_from_slice(&v.to_le_bytes()[..w as usize]);
            layout.push((off, w));
        }
        ParamBuffer { bytes, layout }
    }

    /// Reconstructs a buffer from `(value, size)` parts — used when
    /// rebuilding graph nodes from a materialization artifact, where the
    /// signature is not available but per-parameter sizes are.
    ///
    /// # Panics
    ///
    /// Panics if a size is not 4 or 8.
    pub fn from_parts(parts: &[(u64, u32)]) -> Self {
        let mut bytes = Vec::with_capacity(parts.len() * 8);
        let mut layout = Vec::with_capacity(parts.len());
        for &(v, size) in parts {
            assert!(size == 4 || size == 8, "parameter sizes are 4 or 8 bytes");
            let off = bytes.len() as u32;
            bytes.extend_from_slice(&v.to_le_bytes()[..size as usize]);
            layout.push((off, size));
        }
        ParamBuffer { bytes, layout }
    }

    /// Number of parameters.
    pub fn param_count(&self) -> usize {
        self.layout.len()
    }

    /// Byte size of parameter `i`.
    pub fn size_of(&self, i: usize) -> u32 {
        self.layout[i].1
    }

    /// Parameter `i` decoded as an unsigned little-endian integer
    /// (zero-extended for 4-byte parameters).
    pub fn value(&self, i: usize) -> u64 {
        let (off, size) = self.layout[i];
        let mut buf = [0u8; 8];
        buf[..size as usize].copy_from_slice(&self.bytes[off as usize..(off + size) as usize]);
        u64::from_le_bytes(buf)
    }

    /// Overwrites parameter `i` with a new value (used when restoring
    /// materialized pointers into graph nodes).
    pub fn set_value(&mut self, i: usize, v: u64) {
        let (off, size) = self.layout[i];
        self.bytes[off as usize..(off + size) as usize]
            .copy_from_slice(&v.to_le_bytes()[..size as usize]);
    }

    /// The raw parameter bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Which resource dominates a kernel's execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CostClass {
    /// Bandwidth-bound (element-wise ops, layer norms, copies).
    MemoryBound,
    /// FLOP-bound (GEMMs, attention score computation).
    ComputeBound,
    /// Negligible work (bookkeeping, sampling glue).
    Auxiliary,
}

/// The work performed by one kernel launch; determines simulated GPU time.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Work {
    /// Floating-point operations.
    pub flops: f64,
    /// Bytes moved through device memory.
    pub bytes: f64,
}

impl Work {
    /// No work (auxiliary kernels).
    pub const NONE: Work = Work {
        flops: 0.0,
        bytes: 0.0,
    };

    /// Construct from FLOPs and bytes.
    pub fn new(flops: f64, bytes: f64) -> Self {
        Work { flops, bytes }
    }

    /// GPU execution time under `cost`, including the fixed per-kernel cost.
    pub fn exec_time(&self, class: CostClass, cost: &CostModel) -> SimDuration {
        let fixed = SimDuration::from_nanos(cost.kernel_fixed_gpu_ns);
        if class == CostClass::Auxiliary {
            return fixed;
        }
        let compute_s = self.flops / cost.effective_flops;
        let memory_s = self.bytes / cost.mem_bandwidth;
        fixed + SimDuration::from_secs_f64(compute_s.max(memory_s))
    }
}

/// Static definition of one kernel inside a module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelDef {
    name: String,
    exported: bool,
    sig: KernelSig,
    class: CostClass,
}

impl KernelDef {
    /// Creates a kernel definition.
    ///
    /// `exported` controls whether the kernel appears in the library's
    /// dynamic symbol table; closed-source cuBLAS-like kernels set it to
    /// `false` (paper §5).
    pub fn new(name: impl Into<String>, exported: bool, sig: KernelSig, class: CostClass) -> Self {
        KernelDef {
            name: name.into(),
            exported,
            sig,
            class,
        }
    }

    /// The kernel's mangled name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the kernel is visible to `dlsym`.
    pub fn exported(&self) -> bool {
        self.exported
    }

    /// Parameter signature.
    pub fn sig(&self) -> &KernelSig {
        &self.sig
    }

    /// Cost class.
    pub fn class(&self) -> CostClass {
        self.class
    }
}

/// Location of a kernel in the library catalog: (library, module, kernel)
/// indices. Stable across processes — only *addresses* change per launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct KernelRef {
    /// Library index in the catalog.
    pub lib: u16,
    /// Module index within the library.
    pub module: u16,
    /// Kernel index within the module.
    pub kernel: u16,
}

impl fmt::Display for KernelRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}.{}.{}", self.lib, self.module, self.kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig() -> KernelSig {
        KernelSig::new(vec![
            ParamKind::PtrIn,
            ParamKind::Scalar4,
            ParamKind::PtrOut,
            ParamKind::Scalar8,
        ])
    }

    #[test]
    fn sig_widths_and_raw_len() {
        let s = sig();
        assert_eq!(s.len(), 4);
        assert_eq!(s.raw_len(), 8 + 4 + 8 + 8);
        assert_eq!(s.kind(1).width(), 4);
        assert!(s.kind(0).is_pointer() && s.kind(0).is_read());
        assert!(s.kind(2).is_write() && !s.kind(2).is_read());
        assert!(!s.kind(3).is_pointer());
    }

    #[test]
    fn param_buffer_roundtrip() {
        let s = sig();
        let vals = [
            0x0007_2000_0000_1000,
            0xdead_beef_1234_5678,
            0x0007_2000_0000_2000,
            42,
        ];
        let pb = ParamBuffer::encode(&s, &vals);
        assert_eq!(pb.param_count(), 4);
        assert_eq!(pb.value(0), vals[0]);
        // Scalar4 truncates to 32 bits.
        assert_eq!(pb.value(1), 0x1234_5678);
        assert_eq!(pb.value(2), vals[2]);
        assert_eq!(pb.value(3), 42);
        assert_eq!(pb.size_of(1), 4);
        assert_eq!(pb.as_bytes().len(), s.raw_len());
    }

    #[test]
    fn param_buffer_set_value_patches_in_place() {
        let s = sig();
        let mut pb = ParamBuffer::encode(&s, &[1, 2, 3, 4]);
        pb.set_value(2, 0x0007_2000_0000_9999);
        assert_eq!(pb.value(2), 0x0007_2000_0000_9999);
        assert_eq!(pb.value(0), 1);
        assert_eq!(pb.value(3), 4);
    }

    #[test]
    #[should_panic(expected = "parameter count mismatch")]
    fn encode_validates_count() {
        ParamBuffer::encode(&sig(), &[1, 2]);
    }

    #[test]
    fn exec_time_picks_dominant_resource() {
        let cm = CostModel::default();
        let fixed = SimDuration::from_nanos(cm.kernel_fixed_gpu_ns);
        // Pure compute.
        let w = Work::new(cm.effective_flops, 0.0); // exactly one second of FLOPs
        let t = w.exec_time(CostClass::ComputeBound, &cm);
        assert_eq!(t, fixed + SimDuration::from_secs_f64(1.0));
        // Memory dominates when bytes/bw exceeds flops time.
        let w2 = Work::new(1.0, cm.mem_bandwidth * 0.5);
        let t2 = w2.exec_time(CostClass::MemoryBound, &cm);
        assert_eq!(t2, fixed + SimDuration::from_secs_f64(0.5));
        // Auxiliary ignores work entirely.
        let t3 = Work::new(1e18, 1e18).exec_time(CostClass::Auxiliary, &cm);
        assert_eq!(t3, fixed);
    }

    #[test]
    fn kernel_def_accessors() {
        let k = KernelDef::new("ampere_sgemm_128x64", false, sig(), CostClass::ComputeBound);
        assert_eq!(k.name(), "ampere_sgemm_128x64");
        assert!(!k.exported());
        assert_eq!(k.class(), CostClass::ComputeBound);
        assert_eq!(k.sig().len(), 4);
    }

    #[test]
    fn kernel_ref_display() {
        let r = KernelRef {
            lib: 1,
            module: 2,
            kernel: 3,
        };
        assert_eq!(r.to_string(), "k1.2.3");
    }
}
