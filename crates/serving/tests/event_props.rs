//! Property suite for the fleet's event core ([`medusa_serving::event`]).
//!
//! The queue keeps payloads inline and evicts cancelled entries, and the
//! fleet streams trace arrivals past it instead of scheduling them. Both
//! are pinned against plain models that keep everything:
//!
//! * **Queue vs a sorted `Vec`** — random mixes of `schedule`, `cancel`
//!   (pending, already fired, stale and double), `pop` and `peek_time`
//!   give the same pops, the same `cancel` returns and the same counts
//!   as a reference that keeps every event and scans for the earliest
//!   `(time, seq)`. After every operation the heap holds at most
//!   `2 * len() + COMPACT_SLACK` entries, including under keep-alive
//!   churn: far-future events cancelled soon after they are scheduled.
//! * **Cursor + queue vs every arrival scheduled first** — a toy event
//!   loop whose handlers schedule and cancel follow-ups sees the same
//!   `(time, event)` sequence when arrivals stream from an
//!   [`ArrivalCursor`] as when they all sit in the queue ahead of every
//!   other event, for same-nanosecond ties and for traces whose index
//!   order is not time order.

use medusa_serving::{ArrivalCursor, EventQueue, EventToken, FleetEvent};
use proptest::prelude::*;

/// Reference queue: every event ever scheduled, with its state.
#[derive(Default)]
struct Model {
    /// `(time, payload, pending)` by seq.
    events: Vec<(u64, u64, bool)>,
}

impl Model {
    fn schedule(&mut self, t: u64, payload: u64) -> usize {
        self.events.push((t, payload, true));
        self.events.len() - 1
    }

    fn cancel(&mut self, seq: usize) -> bool {
        std::mem::replace(&mut self.events[seq].2, false)
    }

    fn head(&self) -> Option<usize> {
        (0..self.events.len())
            .filter(|&s| self.events[s].2)
            .min_by_key(|&s| (self.events[s].0, s))
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let s = self.head()?;
        self.events[s].2 = false;
        Some((self.events[s].0, self.events[s].1))
    }

    fn peek_time(&self) -> Option<u64> {
        self.head().map(|s| self.events[s].0)
    }

    fn len(&self) -> usize {
        self.events.iter().filter(|e| e.2).count()
    }
}

/// Heap bound: pending events plus at most as many cancelled ones, plus
/// the slack.
fn within_bound<E>(q: &EventQueue<E>) -> bool {
    q.heap_entries() <= 2 * q.len() + EventQueue::<E>::COMPACT_SLACK
}

/// Replays `ops` against the queue and the model, checking every result.
/// Op kinds: 0-2 schedule at `now + a % spread` (a near event), 3
/// schedule a far-future event at `now + horizon`, 4 cancel token
/// `a % scheduled` (pending, fired, stale or already cancelled), 5 re-arm
/// a keep-alive (cancel the armed far-future event, schedule a new one),
/// 6-7 pop (advancing `now`), 8 peek. `b` picks the payload.
fn replay(ops: &[(u8, u64, u64)], spread: u64, horizon: u64) {
    let mut q = EventQueue::new();
    let mut model = Model::default();
    let mut tokens: Vec<EventToken> = Vec::new();
    let mut armed: Option<usize> = None;
    let mut now = 0u64;
    let mut cancels = 0u64;
    for &(kind, a, b) in ops {
        match kind % 9 {
            k @ (0..=3 | 5) => {
                if k == 5 {
                    if let Some(seq) = armed {
                        let want = model.cancel(seq);
                        prop_assert_eq!(q.cancel(tokens[seq]), want);
                        cancels += u64::from(want);
                    }
                    armed = Some(tokens.len());
                }
                let t = if k >= 3 {
                    now + horizon
                } else {
                    now + a % spread
                };
                let tok = q.schedule(t, b);
                prop_assert_eq!(model.schedule(t, b), tokens.len());
                tokens.push(tok);
            }
            4 if !tokens.is_empty() => {
                let seq = (a % tokens.len() as u64) as usize;
                let want = model.cancel(seq);
                prop_assert_eq!(q.cancel(tokens[seq]), want, "cancel of seq {}", seq);
                cancels += u64::from(want);
            }
            6 | 7 => {
                let got = q.pop();
                prop_assert_eq!(got, model.pop());
                if let Some((t, _)) = got {
                    prop_assert!(t >= now, "time ran backwards");
                    now = t;
                }
            }
            _ => prop_assert_eq!(q.peek_time(), model.peek_time()),
        }
        prop_assert_eq!(q.len(), model.len());
        prop_assert_eq!(q.is_empty(), model.len() == 0);
        prop_assert!(
            within_bound(&q),
            "{} heap entries for {} pending",
            q.heap_entries(),
            q.len()
        );
    }
    // Drain: the survivors come out in the model's order.
    loop {
        let got = q.pop();
        prop_assert_eq!(got, model.pop());
        prop_assert!(within_bound(&q));
        if got.is_none() {
            break;
        }
    }
    prop_assert_eq!(q.scheduled_total(), tokens.len() as u64);
    prop_assert_eq!(q.cancelled_total(), cancels);
    for &tok in &tokens {
        prop_assert!(!q.cancel(tok), "a drained queue has nothing to cancel");
    }
}

/// What the toy event loop does on each event: arrivals schedule a
/// follow-up `IterationDone` (sometimes at the same nanosecond, to force
/// ties with later arrivals) and a far keep-alive expiry, cancelling the
/// node's previous expiry; iterations sometimes chain one more `Route`.
fn handle(
    q: &mut EventQueue<FleetEvent>,
    expiry: &mut [Option<EventToken>],
    t: u64,
    ev: FleetEvent,
    delays: &[u64],
    log: &mut Vec<(u64, FleetEvent)>,
) {
    log.push((t, ev));
    let k = log.len();
    let node = k % expiry.len();
    match ev {
        FleetEvent::Arrival { req } => {
            q.schedule(
                t + delays[req % delays.len()],
                FleetEvent::IterationDone { node },
            );
            if let Some(tok) = expiry[node].take() {
                q.cancel(tok);
            }
            expiry[node] = Some(q.schedule(t + 60_000, FleetEvent::KeepAliveExpiry { node }));
        }
        FleetEvent::IterationDone { node } if k.is_multiple_of(3) => {
            q.schedule(t + delays[k % delays.len()], FleetEvent::Route { node });
        }
        _ => {}
    }
}

/// The reference loop: every arrival scheduled up front (seqs `0..n`).
fn all_scheduled(arrivals: &[u64], delays: &[u64], nodes: usize) -> Vec<(u64, FleetEvent)> {
    let mut q = EventQueue::new();
    for (req, &t) in arrivals.iter().enumerate() {
        q.schedule(t, FleetEvent::Arrival { req });
    }
    let mut expiry = vec![None; nodes];
    let mut log = Vec::new();
    while let Some((t, ev)) = q.pop() {
        handle(&mut q, &mut expiry, t, ev, delays, &mut log);
    }
    log
}

/// The fleet's loop: arrivals streamed by the cursor.
fn streamed(arrivals: &[u64], delays: &[u64], nodes: usize) -> Vec<(u64, FleetEvent)> {
    let mut q = EventQueue::new();
    let mut cursor = ArrivalCursor::new(arrivals.iter().copied());
    let mut expiry = vec![None; nodes];
    let mut log = Vec::new();
    while let Some((t, ev)) = cursor.pop_merged(&mut q, |i| arrivals[i]) {
        handle(&mut q, &mut expiry, t, ev, delays, &mut log);
        assert!(within_bound(&q));
    }
    assert_eq!(cursor.remaining(), 0);
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random operation mixes over a dense time range (many ties).
    #[test]
    fn queue_matches_the_sorted_vec_model(
        ops in prop::collection::vec((0u8..9, any::<u64>(), 0u64..1_000), 1..300),
    ) {
        replay(&ops, 16, 40);
    }

    /// Keep-alive churn: most operations re-arm a far-future expiry, the
    /// rest schedule and pop near events, so cancelled expiries pile up
    /// behind a handful of pending events unless they are evicted.
    #[test]
    fn keepalive_churn_keeps_the_heap_bounded(
        ops in prop::collection::vec((0u8..9, any::<u64>(), 0u64..1_000), 1..600),
    ) {
        let churn: Vec<(u8, u64, u64)> = ops
            .iter()
            .map(|&(k, a, b)| match k {
                0..=5 => (5, a, b),
                6 => (0, a, b),
                7 => (6, a, b),
                _ => (k, a, b),
            })
            .collect();
        replay(&churn, 1_000, 60_000_000_000);
    }

    /// Streaming arrivals gives the same `(time, event)` sequence as
    /// scheduling them all first, with same-nanosecond ties between
    /// arrivals and other events, and with unsorted traces.
    #[test]
    fn cursor_merge_matches_scheduling_every_arrival_first(
        arrivals in prop::collection::vec(0u64..200, 0..120),
        delays in prop::collection::vec(0u64..8, 1..6),
        nodes in 1usize..5,
        sorted in any::<bool>(),
    ) {
        let mut arrivals = arrivals;
        if sorted {
            arrivals.sort_unstable();
        }
        prop_assert_eq!(
            streamed(&arrivals, &delays, nodes),
            all_scheduled(&arrivals, &delays, nodes)
        );
    }
}

/// A trace whose index order is not time order fires by time, ties by
/// index, and reports its latest arrival.
#[test]
fn cursor_walks_unsorted_traces_by_time_then_index() {
    let times = [1_000u64, 0, 5, 0, 1_000];
    let mut cursor = ArrivalCursor::new(times.iter().copied());
    assert_eq!(cursor.last_ns(), Some(1_000));
    let mut q: EventQueue<FleetEvent> = EventQueue::new();
    let order: Vec<usize> = std::iter::from_fn(|| cursor.pop_merged(&mut q, |i| times[i]))
        .map(|(_, ev)| match ev {
            FleetEvent::Arrival { req } => req,
            other => panic!("only arrivals were due, got {other:?}"),
        })
        .collect();
    assert_eq!(order, [1, 3, 2, 0, 4]);
}

/// Arrivals win a same-nanosecond tie with any scheduled event, even one
/// scheduled before the cursor was built.
#[test]
fn arrivals_win_same_nanosecond_ties() {
    let times = [10u64];
    let mut q = EventQueue::new();
    q.schedule(10, FleetEvent::Route { node: 0 });
    let mut cursor = ArrivalCursor::new(times.iter().copied());
    let first = cursor.pop_merged(&mut q, |i| times[i]);
    assert_eq!(first, Some((10, FleetEvent::Arrival { req: 0 })));
    assert_eq!(
        cursor.pop_merged(&mut q, |i| times[i]),
        Some((10, FleetEvent::Route { node: 0 }))
    );
    assert_eq!(cursor.pop_merged(&mut q, |i| times[i]), None);
}
