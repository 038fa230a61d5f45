//! Simulated device memory: a caching allocator with per-process address
//! non-determinism.
//!
//! Two properties matter for Medusa:
//!
//! 1. **Addresses are non-deterministic across process launches** (paper
//!    challenge I). We model this with a per-process ASLR-style base offset
//!    plus seeded jitter in free-list reuse decisions, so the *i*-th
//!    allocation of two launches may or may not land on the same relative
//!    address.
//! 2. **Control flow is deterministic**: given the same allocation call
//!    sequence, the allocator's observable *sequence* (sizes, order, live
//!    ranges at any instant) is identical — which is exactly the invariant
//!    Medusa's indirect index pointers exploit.
//!
//! Buffers also carry *contents*: a 16-byte digest standing in for the real
//! data. Kernels fold input digests into output digests, so a restoration
//! that patches a wrong pointer produces an observably different output.

use crate::error::{GpuError, GpuResult};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Minimum allocation alignment, matching the CUDA caching allocator.
pub const ALLOC_ALIGN: u64 = 256;

/// Base of the simulated device virtual address range. High enough that the
/// "high address prefix" pointer heuristic of paper §4 is meaningful.
pub const DEVICE_REGION_BASE: u64 = 0x0007_2000_0000_0000;

/// Size of the per-process ASLR window applied to the region base.
const ASLR_WINDOW: u64 = 1 << 36;

/// A pointer into simulated device memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DevicePtr(u64);

impl DevicePtr {
    /// The null device pointer.
    pub const NULL: DevicePtr = DevicePtr(0);

    /// Wraps a raw address. Primarily for reconstructing pointers that were
    /// round-tripped through a CUDA graph node's raw parameter buffer.
    pub const fn from_addr(addr: u64) -> Self {
        DevicePtr(addr)
    }

    /// The raw 64-bit address.
    pub const fn addr(self) -> u64 {
        self.0
    }

    /// A pointer `bytes` past `self` (interior pointer into a buffer).
    pub const fn offset(self, bytes: u64) -> DevicePtr {
        DevicePtr(self.0 + bytes)
    }

    /// Whether the address looks like a device pointer to the paper's
    /// high-address-prefix heuristic (§4: "pointers are 8 bytes long and
    /// usually begin with a high address prefix").
    pub fn has_device_prefix(addr: u64) -> bool {
        (DEVICE_REGION_BASE..DEVICE_REGION_BASE + (1 << 44)).contains(&addr)
    }
}

impl fmt::Display for DevicePtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Why a buffer was allocated. Tags are *not* consulted by Medusa's analysis
/// (which must infer buffer roles from timing alone, §4.3); they exist so
/// tests can assert the inference was right.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AllocTag {
    /// Model weight tensor, allocated during structure initialization.
    Weights,
    /// Forward-pass activation / intermediate buffer.
    Activation,
    /// KV-cache block pool.
    KvCache,
    /// Kernel workspace (e.g. cuBLAS scratch, magic-number launch buffers).
    Workspace,
    /// Anything else.
    Other,
}

/// A live allocation record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Allocation {
    base: u64,
    size: u64,
    seq: u64,
    tag: AllocTag,
}

impl Allocation {
    /// Base device address.
    pub fn base(&self) -> DevicePtr {
        DevicePtr(self.base)
    }

    /// Size in bytes (alignment-rounded).
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Position in the process-global allocation sequence (0-based): this is
    /// the "index in the buffer allocation sequence" of paper §4.1.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The debugging tag supplied at allocation time.
    pub fn tag(&self) -> AllocTag {
        self.tag
    }

    /// Whether `addr` falls inside `[base, base + size)`.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.size
    }
}

/// 16-byte content digest standing in for a buffer's real bytes.
pub type Digest = [u8; 16];

/// Aggregate memory statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MemoryStats {
    /// Bytes currently allocated.
    pub in_use: u64,
    /// High-water mark of `in_use` since the last [`DeviceMemory::reset_peak`].
    pub peak: u64,
    /// Device capacity in bytes.
    pub capacity: u64,
    /// Number of live allocations.
    pub live_allocations: usize,
    /// Total allocations ever made (== next allocation's sequence index).
    pub total_allocations: u64,
    /// Allocations that were satisfied by free-list reuse.
    pub reused_allocations: u64,
}

/// The simulated device memory of one process.
#[derive(Debug)]
pub struct DeviceMemory {
    capacity: u64,
    region_base: u64,
    cursor: u64,
    free_lists: HashMap<u64, Vec<u64>>,
    live: BTreeMap<u64, Allocation>,
    contents: HashMap<u64, Digest>,
    ptr_tables: HashMap<u64, Vec<u64>>,
    alloc_seq: u64,
    in_use: u64,
    peak: u64,
    reused: u64,
    rng: SmallRng,
    reuse_skip_prob: f64,
}

impl DeviceMemory {
    /// Probability that a reusable cached block is skipped in favour of fresh
    /// memory. Models cross-launch allocator timing non-determinism; see
    /// paper Figure 6.
    pub const DEFAULT_REUSE_SKIP_PROB: f64 = 0.12;

    /// Creates the memory view of a fresh process with `capacity` bytes.
    ///
    /// `seed` determines the ASLR base and the reuse jitter; two processes
    /// with different seeds observe different addresses for the same
    /// allocation sequence.
    pub fn new(capacity: u64, seed: u64) -> Self {
        Self::with_reuse_skip_prob(capacity, seed, Self::DEFAULT_REUSE_SKIP_PROB)
    }

    /// Like [`DeviceMemory::new`] with an explicit reuse-skip probability
    /// (0.0 makes the allocator fully deterministic given the call sequence).
    pub fn with_reuse_skip_prob(capacity: u64, seed: u64, reuse_skip_prob: f64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let aslr = (rng.gen::<u64>() % ASLR_WINDOW) & !(ALLOC_ALIGN - 1);
        DeviceMemory {
            capacity,
            region_base: DEVICE_REGION_BASE + aslr,
            cursor: 0,
            free_lists: HashMap::new(),
            live: BTreeMap::new(),
            contents: HashMap::new(),
            ptr_tables: HashMap::new(),
            alloc_seq: 0,
            in_use: 0,
            peak: 0,
            reused: 0,
            rng,
            reuse_skip_prob,
        }
    }

    /// Allocates `size` bytes (rounded up to [`ALLOC_ALIGN`]).
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::OutOfMemory`] if the allocation would exceed
    /// device capacity.
    pub fn alloc(&mut self, size: u64, tag: AllocTag) -> GpuResult<DevicePtr> {
        let size = round_up(size.max(1), ALLOC_ALIGN);
        if self.in_use + size > self.capacity {
            return Err(GpuError::OutOfMemory {
                requested: size,
                in_use: self.in_use,
                capacity: self.capacity,
            });
        }
        let reuse = match self.free_lists.get(&size) {
            Some(list) if !list.is_empty() => self.rng.gen::<f64>() >= self.reuse_skip_prob,
            _ => false,
        };
        let base = if reuse {
            self.reused += 1;
            self.free_lists
                .get_mut(&size)
                .expect("checked nonempty")
                .pop()
                .expect("nonempty")
        } else {
            let b = self.region_base + self.cursor;
            self.cursor += size;
            b
        };
        let alloc = Allocation {
            base,
            size,
            seq: self.alloc_seq,
            tag,
        };
        self.alloc_seq += 1;
        self.in_use += size;
        self.peak = self.peak.max(self.in_use);
        self.live.insert(base, alloc);
        Ok(DevicePtr(base))
    }

    /// Frees an allocation by its base pointer, returning its size.
    ///
    /// Contents are *not* cleared: like real device memory, stale bytes
    /// remain observable if the address is later reused.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidFree`] if `ptr` is not a live base.
    pub fn free(&mut self, ptr: DevicePtr) -> GpuResult<u64> {
        let alloc = self
            .live
            .remove(&ptr.0)
            .ok_or(GpuError::InvalidFree { addr: ptr.0 })?;
        self.in_use -= alloc.size;
        self.free_lists
            .entry(alloc.size)
            .or_default()
            .push(alloc.base);
        Ok(alloc.size)
    }

    /// The live allocation containing `addr`, if any (supports interior
    /// pointers: paper §4.1 matches "identical or within the range").
    pub fn containing(&self, addr: u64) -> Option<&Allocation> {
        let (_, alloc) = self.live.range(..=addr).next_back()?;
        alloc.contains(addr).then_some(alloc)
    }

    /// Writes the content digest of the allocation containing `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidPointer`] if `addr` is not inside a live
    /// allocation.
    pub fn write_digest(&mut self, addr: u64, digest: Digest) -> GpuResult<()> {
        let base = self
            .containing(addr)
            .ok_or(GpuError::InvalidPointer { addr })?
            .base;
        self.contents.insert(base, digest);
        Ok(())
    }

    /// Reads the content digest of the allocation containing `addr`.
    /// Uninitialized (never-written) buffers read as the zero digest —
    /// including stale content left by a previous occupant of a reused
    /// address, which is how wrong restorations become observable.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidPointer`] if `addr` is not inside a live
    /// allocation.
    pub fn read_digest(&self, addr: u64) -> GpuResult<Digest> {
        let base = self
            .containing(addr)
            .ok_or(GpuError::InvalidPointer { addr })?
            .base;
        Ok(self.contents.get(&base).copied().unwrap_or([0u8; 16]))
    }

    /// Writes a pointer-table content into the allocation containing
    /// `addr` (indirect pointers, paper §8): the buffer holds an array of
    /// device pointers that kernels with
    /// [`crate::ParamKind::PtrArrayIn`] parameters dereference.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidPointer`] if `addr` is not inside a live
    /// allocation.
    pub fn write_ptr_table(&mut self, addr: u64, table: Vec<u64>) -> GpuResult<()> {
        let base = self
            .containing(addr)
            .ok_or(GpuError::InvalidPointer { addr })?
            .base;
        self.ptr_tables.insert(base, table);
        Ok(())
    }

    /// Reads the pointer table stored in the allocation containing `addr`
    /// (empty if none was ever written).
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidPointer`] if `addr` is not inside a live
    /// allocation.
    pub fn read_ptr_table(&self, addr: u64) -> GpuResult<&[u64]> {
        let base = self
            .containing(addr)
            .ok_or(GpuError::InvalidPointer { addr })?
            .base;
        Ok(self.ptr_tables.get(&base).map_or(&[], Vec::as_slice))
    }

    /// Iterates over live allocations in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Allocation> {
        self.live.values()
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> MemoryStats {
        MemoryStats {
            in_use: self.in_use,
            peak: self.peak,
            capacity: self.capacity,
            live_allocations: self.live.len(),
            total_allocations: self.alloc_seq,
            reused_allocations: self.reused,
        }
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// High-water mark since the last [`DeviceMemory::reset_peak`]. The KV
    /// cache profiling stage derives "available free GPU memory" from this.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Resets the high-water mark to the current usage.
    pub fn reset_peak(&mut self) {
        self.peak = self.in_use;
    }

    /// The next allocation's sequence index.
    pub fn next_seq(&self) -> u64 {
        self.alloc_seq
    }
}

fn round_up(v: u64, align: u64) -> u64 {
    v.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> DeviceMemory {
        DeviceMemory::new(1 << 30, 42)
    }

    #[test]
    fn alloc_rounds_and_aligns() {
        let mut m = mem();
        let p = m.alloc(100, AllocTag::Other).unwrap();
        assert_eq!(p.addr() % ALLOC_ALIGN, 0);
        let a = *m.containing(p.addr()).unwrap();
        assert_eq!(a.size(), 256);
        assert_eq!(a.seq(), 0);
        let q = m.alloc(1, AllocTag::Other).unwrap();
        assert_eq!(m.containing(q.addr()).unwrap().seq(), 1);
    }

    #[test]
    fn zero_sized_alloc_still_occupies_one_unit() {
        let mut m = mem();
        let p = m.alloc(0, AllocTag::Other).unwrap();
        assert_eq!(m.containing(p.addr()).unwrap().size(), ALLOC_ALIGN);
    }

    #[test]
    fn oom_is_reported() {
        let mut m = DeviceMemory::new(1024, 7);
        m.alloc(512, AllocTag::Other).unwrap();
        let err = m.alloc(1024, AllocTag::Other).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { .. }));
    }

    #[test]
    fn free_returns_size_and_rejects_non_base() {
        let mut m = mem();
        let p = m.alloc(300, AllocTag::Other).unwrap();
        assert!(matches!(
            m.free(p.offset(8)),
            Err(GpuError::InvalidFree { .. })
        ));
        assert_eq!(m.free(p).unwrap(), 512);
        assert!(matches!(m.free(p), Err(GpuError::InvalidFree { .. })));
    }

    #[test]
    fn containing_supports_interior_pointers() {
        let mut m = mem();
        let p = m.alloc(1024, AllocTag::Activation).unwrap();
        let a = *m.containing(p.addr() + 1000).unwrap();
        assert_eq!(a.base(), p);
        assert!(
            m.containing(p.addr() + 1024).is_none()
                || m.containing(p.addr() + 1024).unwrap().base() != p
        );
    }

    #[test]
    fn addresses_differ_across_seeds_but_sequence_is_stable() {
        let seq = |seed: u64| -> Vec<(u64, u64)> {
            let mut m = DeviceMemory::with_reuse_skip_prob(1 << 30, seed, 0.0);
            (0..16)
                .map(|i| {
                    let p = m.alloc(256 * (i + 1), AllocTag::Other).unwrap();
                    let a = *m.containing(p.addr()).unwrap();
                    (a.seq(), a.size())
                })
                .collect()
        };
        // The *sequence* (index, size) is deterministic...
        assert_eq!(seq(1), seq(2));
        // ...but the raw addresses are not.
        let addrs = |seed: u64| -> Vec<u64> {
            let mut m = DeviceMemory::with_reuse_skip_prob(1 << 30, seed, 0.0);
            (0..4)
                .map(|_| m.alloc(256, AllocTag::Other).unwrap().addr())
                .collect()
        };
        assert_ne!(addrs(1), addrs(2), "ASLR must differ across process seeds");
    }

    #[test]
    fn free_list_reuse_returns_same_address_when_deterministic() {
        let mut m = DeviceMemory::with_reuse_skip_prob(1 << 30, 3, 0.0);
        let p = m.alloc(512, AllocTag::Other).unwrap();
        m.free(p).unwrap();
        let q = m.alloc(512, AllocTag::Other).unwrap();
        assert_eq!(p, q, "LIFO cache reuses the freed block");
        assert_eq!(m.stats().reused_allocations, 1);
    }

    #[test]
    fn reuse_jitter_can_skip_the_cache() {
        // With skip probability 1.0 the freed block is never reused.
        let mut m = DeviceMemory::with_reuse_skip_prob(1 << 30, 3, 1.0);
        let p = m.alloc(512, AllocTag::Other).unwrap();
        m.free(p).unwrap();
        let q = m.alloc(512, AllocTag::Other).unwrap();
        assert_ne!(p, q);
    }

    #[test]
    fn peak_tracking_and_reset() {
        let mut m = mem();
        let p = m.alloc(1 << 20, AllocTag::Activation).unwrap();
        let q = m.alloc(1 << 20, AllocTag::Activation).unwrap();
        m.free(p).unwrap();
        assert_eq!(m.peak(), 2 << 20);
        assert_eq!(m.in_use(), 1 << 20);
        m.reset_peak();
        assert_eq!(m.peak(), 1 << 20);
        m.free(q).unwrap();
        assert_eq!(m.in_use(), 0);
    }

    #[test]
    fn digests_follow_the_containing_allocation() {
        let mut m = mem();
        let p = m.alloc(4096, AllocTag::Workspace).unwrap();
        let d: Digest = [7u8; 16];
        m.write_digest(p.addr() + 128, d).unwrap();
        assert_eq!(m.read_digest(p.addr() + 4000).unwrap(), d);
        assert!(matches!(
            m.read_digest(p.addr() + 4096),
            Err(GpuError::InvalidPointer { .. })
        ));
    }

    #[test]
    fn stale_content_survives_free_and_reuse() {
        let mut m = DeviceMemory::with_reuse_skip_prob(1 << 30, 3, 0.0);
        let p = m.alloc(512, AllocTag::Other).unwrap();
        m.write_digest(p.addr(), [9u8; 16]).unwrap();
        m.free(p).unwrap();
        let q = m.alloc(512, AllocTag::Other).unwrap();
        assert_eq!(q, p);
        // The new occupant sees the previous occupant's bytes until it writes.
        assert_eq!(m.read_digest(q.addr()).unwrap(), [9u8; 16]);
    }

    #[test]
    fn device_prefix_heuristic_matches_region() {
        let mut m = mem();
        let p = m.alloc(256, AllocTag::Other).unwrap();
        assert!(DevicePtr::has_device_prefix(p.addr()));
        assert!(!DevicePtr::has_device_prefix(42));
        assert!(!DevicePtr::has_device_prefix(0x7fff_0000_0000));
    }

    #[test]
    fn stats_snapshot_is_consistent() {
        let mut m = mem();
        let a = m.alloc(256, AllocTag::Other).unwrap();
        let _b = m.alloc(256, AllocTag::Other).unwrap();
        m.free(a).unwrap();
        let s = m.stats();
        assert_eq!(s.live_allocations, 1);
        assert_eq!(s.total_allocations, 2);
        assert_eq!(s.in_use, 256);
        assert_eq!(s.capacity, 1 << 30);
    }
}
