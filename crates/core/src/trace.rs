//! Trace-based indirect index pointer analysis primitives (paper §4.1).
//!
//! The offline capturing stage intercepts every `cudaMalloc`, `cudaFree`
//! and `cudaLaunchKernel`. [`TraceWalker`] replays that interleaved event
//! stream while maintaining the *live allocation map*; resolving a kernel
//! parameter's pointer against the map at the launch's trace position is
//! exactly the paper's "match backwards from its `cudaLaunchKernel()` and
//! record the first match" — the most recent allocation containing the
//! address that is still live.
//!
//! The naive alternative the paper's Figure 6 warns about — matching a
//! pointer against the whole allocation history — is provided as
//! [`TraceWalker::naive_last_match`] for the ablation benchmarks and the
//! false-positive regression tests.

use std::collections::{BTreeMap, HashMap};

/// One allocation event in the history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocEvent {
    /// Global allocation-sequence index.
    pub seq: u64,
    /// Base address returned.
    pub base: u64,
    /// Rounded size.
    pub size: u64,
}

/// One live allocation: its sequence index, size, and how many times its
/// base had been returned by then (itself included).
#[derive(Debug, Clone, Copy)]
struct Live {
    seq: u64,
    size: u64,
    reuses: u32,
}

/// A pointer resolved against the live allocation map (see
/// [`TraceWalker::resolve_live`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Resolved {
    /// Allocation-sequence index of the containing allocation.
    pub(crate) seq: u64,
    /// Offset of the pointer within it.
    pub(crate) offset: u64,
    /// How many times the allocation's base has been returned over the
    /// history so far: the [`TraceWalker::base_reuse_count`] of its base.
    pub(crate) reuses: u32,
}

/// Maintains the live allocation map while walking a trace.
#[derive(Debug, Default)]
pub struct TraceWalker {
    live: BTreeMap<u64, Live>, // keyed by base
    history: Vec<AllocEvent>,
    base_counts: HashMap<u64, u32>,
}

impl TraceWalker {
    /// Creates an empty walker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an allocation event.
    pub fn on_alloc(&mut self, seq: u64, base: u64, size: u64) {
        let count = self.base_counts.entry(base).or_insert(0);
        *count += 1;
        let reuses = *count;
        self.live.insert(base, Live { seq, size, reuses });
        self.history.push(AllocEvent { seq, base, size });
    }

    /// Records a free event, returning the sequence index of the freed
    /// allocation if it was live.
    pub fn on_free(&mut self, base: u64) -> Option<u64> {
        self.live.remove(&base).map(|l| l.seq)
    }

    /// Trace-based resolution: the live allocation containing `addr` right
    /// now (i.e. at the current trace position). Returns
    /// `(alloc_seq, offset_within_buffer)`.
    pub fn resolve(&self, addr: u64) -> Option<(u64, u64)> {
        self.resolve_live(addr).map(|r| (r.seq, r.offset))
    }

    /// [`TraceWalker::resolve`] with the matched base's reuse count, read
    /// from the live map rather than looked up again.
    pub(crate) fn resolve_live(&self, addr: u64) -> Option<Resolved> {
        let (&base, l) = self.live.range(..=addr).next_back()?;
        (addr < base + l.size).then(|| Resolved {
            seq: l.seq,
            offset: addr - base,
            reuses: l.reuses,
        })
    }

    /// How many times `addr` has been returned as an allocation base over
    /// the whole history — values above 1 are the Figure 6 reuse hazard.
    pub fn base_reuse_count(&self, addr: u64) -> u32 {
        self.base_counts.get(&addr).copied().unwrap_or(0)
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// The full allocation history (ablation support).
    pub fn history(&self) -> &[AllocEvent] {
        &self.history
    }

    /// **Naive** matching: the *last* allocation in the whole history whose
    /// range contains `addr`, ignoring liveness at launch time. This is the
    /// strategy that produces Figure 6's false positives; kept for ablation.
    pub fn naive_last_match(&self, addr: u64) -> Option<(u64, u64)> {
        self.history
            .iter()
            .rev()
            .find(|a| addr >= a.base && addr < a.base + a.size)
            .map(|a| (a.seq, addr - a.base))
    }

    /// **Naive** matching: the *first* historical allocation containing
    /// `addr` (the other strawman of §4.1).
    pub fn naive_first_match(&self, addr: u64) -> Option<(u64, u64)> {
        self.history
            .iter()
            .find(|a| addr >= a.base && addr < a.base + a.size)
            .map(|a| (a.seq, addr - a.base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_matches_live_containing_allocation() {
        let mut w = TraceWalker::new();
        w.on_alloc(0, 0x1000, 0x100);
        w.on_alloc(1, 0x2000, 0x100);
        assert_eq!(w.resolve(0x1000), Some((0, 0)));
        assert_eq!(w.resolve(0x10ff), Some((0, 0xff)));
        assert_eq!(w.resolve(0x1100), None);
        assert_eq!(w.resolve(0x2080), Some((1, 0x80)));
        w.on_free(0x1000);
        assert_eq!(w.resolve(0x1000), None, "freed buffers are not matched");
        assert_eq!(w.live_count(), 1);
    }

    /// The paper's Figure 6 scenario: the i-th and (i+1)-th allocations
    /// return the same address 'A'; a kernel launched after the second
    /// allocation uses 'A'. Trace-based matching must pick the *second*
    /// allocation; naive first-match picks the wrong one.
    #[test]
    fn figure6_reuse_disambiguation() {
        let mut w = TraceWalker::new();
        w.on_alloc(0, 0xa000, 0x100); // i-th: returns A
        assert_eq!(w.on_free(0xa000), Some(0));
        w.on_alloc(1, 0xa000, 0x100); // (i+1)-th: reuses A
                                      // some_kernel launches here with pointer A.
        assert_eq!(
            w.resolve(0xa000),
            Some((1, 0)),
            "must match the live (second) alloc"
        );
        assert_eq!(
            w.naive_first_match(0xa000),
            Some((0, 0)),
            "naive-first is the false positive"
        );
        assert_eq!(w.base_reuse_count(0xa000), 2);
        assert_eq!(w.resolve_live(0xa000).map(|r| r.reuses), Some(2));
    }

    /// Naive *last*-match fails the mirror case: the kernel used the buffer
    /// while it was live, the buffer was freed, and the address was reused
    /// by a later allocation before analysis ran.
    #[test]
    fn naive_last_match_fails_after_reuse() {
        let mut w = TraceWalker::new();
        w.on_alloc(0, 0xb000, 0x100);
        // Kernel launched here uses 0xb000 → correct index is 0.
        let at_launch = w.resolve(0xb000);
        assert_eq!(at_launch, Some((0, 0)));
        w.on_free(0xb000);
        w.on_alloc(1, 0xb000, 0x100);
        // Analysis running naively over the whole history picks index 1.
        assert_eq!(w.naive_last_match(0xb000), Some((1, 0)));
        assert_ne!(w.naive_last_match(0xb000), at_launch);
    }

    #[test]
    fn interior_pointers_resolve_with_offset() {
        let mut w = TraceWalker::new();
        w.on_alloc(0, 0x4000, 0x1000);
        assert_eq!(w.resolve(0x4abc), Some((0, 0xabc)));
    }

    #[test]
    fn free_of_unknown_base_is_none() {
        let mut w = TraceWalker::new();
        assert_eq!(w.on_free(0xdead), None);
    }

    #[test]
    fn history_is_preserved_across_frees() {
        let mut w = TraceWalker::new();
        w.on_alloc(0, 0x1000, 0x100);
        w.on_free(0x1000);
        w.on_alloc(1, 0x3000, 0x100);
        assert_eq!(w.history().len(), 2);
        assert_eq!(w.naive_first_match(0x1000), Some((0, 0)));
    }
}
