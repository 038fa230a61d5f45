//! The discrete-event core of the fleet simulator.
//!
//! [`EventQueue`] is a binary-heap priority queue keyed by
//! `(sim_time, seq)`: `sim_time` is the simulated nanosecond the event
//! fires at, `seq` is a monotonically increasing insertion ordinal. The
//! composite key gives the two determinism rules every simulation built on
//! this queue inherits:
//!
//! 1. **Events pop in non-decreasing timestamp order** — simulated time
//!    never runs backwards.
//! 2. **Same-timestamp events pop in insertion order** (FIFO) — ties are
//!    broken by `seq`, never by payload contents or heap internals, so a
//!    run's event interleaving is a pure function of *when things were
//!    scheduled*, not of how the heap happened to rebalance.
//!
//! Together these make same-seed runs byte-identical: the handlers see the
//! exact same event sequence every time.
//!
//! [`EventQueue::schedule`] returns an [`EventToken`] that
//! [`EventQueue::cancel`] consumes; a cancelled event **never fires**.
//! This is how the fleet retracts keep-alive expiries when work lands on
//! an idle node, and retracts a crashed cold start's pending stage
//! completions.
//!
//! The heap holds payloads inline and only a bounded number of
//! cancelled entries: a cancel clears the event's bit in a one-bit-per-seq
//! liveness set, and once cancelled entries outnumber pending ones the
//! heap is compacted. Heap entries therefore never exceed twice the
//! pending events plus [`EventQueue::COMPACT_SLACK`], however far in the
//! future the cancelled events would have fired.
//!
//! Trace arrivals are not scheduled at all: an [`ArrivalCursor`] streams
//! them in `(arrival_ns, trace index)` order and
//! [`ArrivalCursor::pop_merged`] merges them with the queue. An arrival
//! fires first when it is due no later than the queue's head, which is
//! the order a queue holding every arrival ahead of all other events
//! (seqs `0..n`) would produce.
//!
//! [`FleetEvent`] is the typed event taxonomy of the fleet layer
//! ([`crate::cluster`]): nodes, the scheduler, and the registry interact
//! *only* by scheduling these events against the shared queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Handle to one scheduled event, used to cancel it before it fires.
///
/// Tokens are unique per [`EventQueue`] for its whole lifetime (they wrap
/// the event's insertion `seq`), so a stale token can never cancel a
/// different, later event. Tokens order as their events were scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventToken(u64);

/// One heap entry: the payload travels with its `(t, seq)` key. Ordered
/// on the key alone, reversed so the max-heap pops the earliest event.
#[derive(Debug)]
struct Entry<E> {
    t: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.t, self.seq) == (other.t, other.seq)
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.t, other.seq).cmp(&(self.t, self.seq))
    }
}

/// Word index and bit mask of `seq` in a liveness set.
fn slot(seq: u64) -> (usize, u64) {
    ((seq / 64) as usize, 1 << (seq % 64))
}

/// Deterministic discrete-event priority queue keyed by `(sim_time, seq)`.
///
/// See the [module docs](self) for the two ordering rules and the heap
/// bound. `E` is the event payload type; the queue imposes no trait
/// bounds on it beyond the implicit `Sized`.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Min-heap over `(fire_time_ns, seq)` holding the pending events and
    /// at most `pending + COMPACT_SLACK` cancelled ones.
    heap: BinaryHeap<Entry<E>>,
    /// Bit `seq` is set while event `seq` is pending: cleared when it
    /// fires or is cancelled.
    live: Vec<u64>,
    /// Cancelled entries still in the heap.
    dead: usize,
    next_seq: u64,
    cancelled: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Cancelled heap entries tolerated beyond the pending count before
    /// a cancel or pop compacts the heap.
    pub const COMPACT_SLACK: usize = 32;

    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            live: Vec::new(),
            dead: 0,
            next_seq: 0,
            cancelled: 0,
        }
    }

    fn is_live(&self, seq: u64) -> bool {
        let (word, bit) = slot(seq);
        self.live[word] & bit != 0
    }

    /// Clears `seq`'s liveness bit; returns whether it was set.
    fn kill(&mut self, seq: u64) -> bool {
        let (word, bit) = slot(seq);
        self.live.get_mut(word).is_some_and(|w| {
            let was = *w & bit != 0;
            *w &= !bit;
            was
        })
    }

    /// Schedules `event` to fire at simulated nanosecond `t_ns` and
    /// returns its cancellation token. Events scheduled at the same
    /// `t_ns` fire in the order they were scheduled.
    pub fn schedule(&mut self, t_ns: u64, event: E) -> EventToken {
        let seq = self.next_seq;
        self.next_seq += 1;
        let (word, bit) = slot(seq);
        if word == self.live.len() {
            self.live.push(0);
        }
        self.live[word] |= bit;
        self.heap.push(Entry {
            t: t_ns,
            seq,
            event,
        });
        EventToken(seq)
    }

    /// Cancels a pending event so it never fires. Returns `true` if the
    /// event was still pending (and is now retracted), `false` if it had
    /// already fired or was already cancelled.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let retracted = self.kill(token.0);
        if retracted {
            self.cancelled += 1;
            self.dead += 1;
            self.compact_if_needed();
        }
        retracted
    }

    /// Drops every cancelled entry once they outnumber the pending ones
    /// by more than [`Self::COMPACT_SLACK`]. Each compaction is linear in
    /// a heap at least half dead, so it costs amortised O(1) per cancel.
    fn compact_if_needed(&mut self) {
        if self.dead > self.len() + Self::COMPACT_SLACK {
            let live = &self.live;
            self.heap.retain(|e| {
                let (word, bit) = slot(e.seq);
                live[word] & bit != 0
            });
            self.dead = 0;
        }
    }

    /// Pops cancelled entries off the top of the heap.
    fn skip_dead(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.is_live(top.seq) {
                return;
            }
            self.heap.pop();
            self.dead -= 1;
        }
    }

    /// Pops the next event as `(fire_time_ns, event)`, skipping cancelled
    /// entries. Returns `None` when no pending events remain.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        self.skip_dead();
        let Entry { t, seq, event } = self.heap.pop()?;
        self.kill(seq);
        self.compact_if_needed();
        Some((t, event))
    }

    /// Fire time of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<u64> {
        self.skip_dead();
        self.heap.peek().map(|e| e.t)
    }

    /// Number of pending (scheduled, not yet fired or cancelled) events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.dead
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries the heap holds: the pending events plus cancelled ones not
    /// yet evicted, never more than `2 * len() + COMPACT_SLACK`.
    pub fn heap_entries(&self) -> usize {
        self.heap.len()
    }

    /// Total events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Total events cancelled before firing.
    pub fn cancelled_total(&self) -> u64 {
        self.cancelled
    }
}

/// Streams a trace's arrivals in `(arrival_ns, trace index)` order so the
/// fleet never schedules them: only the next one is ever looked at.
///
/// A sorted trace is walked in place; an unsorted one is walked through a
/// stable sort of its indices by arrival time.
#[derive(Debug, Clone)]
pub struct ArrivalCursor {
    /// Trace indices in firing order; `None` when that is the identity.
    order: Option<Vec<usize>>,
    /// Arrivals consumed so far.
    pos: usize,
    /// Arrivals in the trace.
    len: usize,
    /// Arrival time of the last arrival in firing order (the latest).
    last_ns: Option<u64>,
}

impl ArrivalCursor {
    /// A cursor over arrivals whose times, in trace index order, are
    /// `arrival_ns`.
    pub fn new<I>(arrival_ns: I) -> Self
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: Clone,
    {
        let times = arrival_ns.into_iter();
        let mut len = 0;
        let mut sorted = true;
        let mut last_ns = None;
        for t in times.clone() {
            sorted &= last_ns.is_none_or(|prev| prev <= t);
            last_ns = Some(last_ns.map_or(t, |prev: u64| prev.max(t)));
            len += 1;
        }
        let order = (!sorted).then(|| {
            let mut keyed: Vec<(u64, usize)> = times.zip(0..).collect();
            // Stable: equal times keep their index order.
            keyed.sort_by_key(|&(t, _)| t);
            keyed.into_iter().map(|(_, i)| i).collect()
        });
        ArrivalCursor {
            order,
            pos: 0,
            len,
            last_ns,
        }
    }

    /// Trace index of the next arrival, if any remain.
    fn peek(&self) -> Option<usize> {
        if self.pos == self.len {
            return None;
        }
        Some(self.order.as_ref().map_or(self.pos, |o| o[self.pos]))
    }

    /// Time of the next arrival, if any remain.
    pub fn next_ns(&self, arrival_ns: impl Fn(usize) -> u64) -> Option<u64> {
        self.peek().map(arrival_ns)
    }

    /// Arrivals not yet consumed.
    pub fn remaining(&self) -> usize {
        self.len - self.pos
    }

    /// Time of the latest arrival — the last one the cursor yields.
    pub fn last_ns(&self) -> Option<u64> {
        self.last_ns
    }

    /// Pops the next fleet event: the next arrival, as
    /// [`FleetEvent::Arrival`], when `arrival_ns` of its trace index is no
    /// later than every pending event of `queue`; otherwise the queue's
    /// head. `None` once both are exhausted.
    pub fn pop_merged(
        &mut self,
        queue: &mut EventQueue<FleetEvent>,
        arrival_ns: impl Fn(usize) -> u64,
    ) -> Option<(u64, FleetEvent)> {
        if let Some(req) = self.peek() {
            let t = arrival_ns(req);
            if queue.peek_time().is_none_or(|head| t <= head) {
                self.pos += 1;
                return Some((t, FleetEvent::Arrival { req }));
            }
        }
        queue.pop()
    }
}

/// The fleet simulator's typed event taxonomy. Every state transition in
/// [`crate::cluster`] is driven by exactly one of these firing; handlers
/// communicate only by scheduling further events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEvent {
    /// Request `req` (a trace index) arrives at the global queue.
    Arrival {
        /// Trace index of the arriving request.
        req: usize,
    },
    /// Node `node` should re-examine its run queue and start an iteration
    /// if it is warm and not already iterating.
    Route {
        /// Node index.
        node: usize,
    },
    /// The registry fetch stage of node `node`'s in-flight cold start
    /// completed (Medusa cache-miss starts only); the restore stage is
    /// already on the queue. Carries the start's epoch: a crash bumps the
    /// node epoch, making this event stale.
    RegistryFetchDone {
        /// Node index.
        node: usize,
        /// Cold-start epoch the fetch belongs to.
        epoch: u32,
    },
    /// The final (restore) stage of node `node`'s cold start completed —
    /// the node is ready to serve. Same epoch staleness guard as
    /// [`FleetEvent::RegistryFetchDone`].
    ColdStartStageDone {
        /// Node index.
        node: usize,
        /// Cold-start epoch the stage belongs to.
        epoch: u32,
    },
    /// Node `node`'s keep-alive countdown ran out; if still armed (the
    /// token is cancelled whenever work lands on the node) the node scales
    /// to zero.
    KeepAliveExpiry {
        /// Node index.
        node: usize,
    },
    /// Node `node` crashes mid-cold-start (same epoch guard as the stage
    /// events).
    NodeCrash {
        /// Node index.
        node: usize,
        /// Cold-start epoch the crash belongs to.
        epoch: u32,
    },
    /// A predictive prewarm the estimator scheduled ahead of a forecast
    /// arrival (only when [`crate::ClusterSpec::prewarm`] is set — the
    /// knob defaults off, keeping the event schedule byte-identical).
    ScaleDecision {
        /// Model whose cold start to begin if it has no live node.
        model: u32,
    },
    /// A helper node of a pipeline-parallel cold start finished restoring
    /// its contiguous MAF2 shard range and hands its output to the head;
    /// the helper then releases back to cold. Same epoch staleness guard
    /// as [`FleetEvent::ColdStartStageDone`] (a crash of any pipeline
    /// participant bumps epochs and retracts these via their tokens).
    PipelineShardDone {
        /// Helper node index.
        node: usize,
        /// Head node the shard streams to.
        head: usize,
        /// Cold-start epoch (of the helper) the shard belongs to.
        epoch: u32,
    },
    /// Node `node` finished a serving iteration (prefill or batched decode
    /// step), or reached the last boundary of a run of decode steps that
    /// finish no sequence, which the fleet files as one event.
    IterationDone {
        /// Node index.
        node: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_timestamp_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_timestamp_pops_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(7, i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn cancelled_events_never_fire() {
        let mut q = EventQueue::new();
        let keep = q.schedule(10, "keep");
        let drop_ = q.schedule(10, "drop");
        assert!(q.cancel(drop_));
        assert!(!q.cancel(drop_), "double-cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((10, "keep")));
        assert_eq!(q.pop(), None);
        assert!(!q.cancel(keep), "already fired");
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.cancelled_total(), 1);
    }

    #[test]
    fn peek_time_skips_cancelled_heads() {
        let mut q = EventQueue::new();
        let head = q.schedule(5, "head");
        q.schedule(9, "tail");
        q.cancel(head);
        assert_eq!(q.peek_time(), Some(9));
        assert_eq!(q.pop(), Some((9, "tail")));
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn distinct_time_insertion_order_is_irrelevant() {
        // Two schedules of the same (time, payload) set in different
        // insertion orders pop identically when all times are distinct.
        let times = [40u64, 10, 30, 20, 50];
        let mut fwd = EventQueue::new();
        for &t in &times {
            fwd.schedule(t, t);
        }
        let mut rev = EventQueue::new();
        for &t in times.iter().rev() {
            rev.schedule(t, t);
        }
        let drain = |q: &mut EventQueue<u64>| {
            let mut out = Vec::new();
            while let Some(e) = q.pop() {
                out.push(e);
            }
            out
        };
        assert_eq!(drain(&mut fwd), drain(&mut rev));
    }
}
