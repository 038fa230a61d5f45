//! Differential + property harness locking in the event-driven fleet core.
//!
//! Two layers of defense:
//!
//! 1. **Differential gate** — every scenario of the pinned seed ×
//!    scheduler × fault matrix ([`medusa_serving::scenarios`]) replays
//!    through the event core and must produce a `ClusterReport` that is
//!    **byte-identical** to the golden JSON committed under
//!    `results/golden/` *before* the refactor. The goldens encode the
//!    legacy stepping semantics; any observable divergence (event
//!    ordering, autoscaler decisions, fault derivation, metric
//!    accounting) fails with a readable diff.
//! 2. **Queue properties** — randomized schedules against
//!    [`EventQueue`] pin the determinism rules everything above relies
//!    on: pops never go back in time, same-timestamp events pop in
//!    insertion (FIFO) order, cancelled events never fire, and for
//!    distinct timestamps the pop sequence is independent of insertion
//!    order. Trace arrivals streamed by an [`ArrivalCursor`] merge with
//!    the queue exactly as if every arrival had been scheduled first, and
//!    cancelled entries never crowd the heap.
//!
//! `./ci.sh --gate golden` diffs freshly generated reports against the
//! same goldens. Regenerate them (only after an *intentional* semantic
//! change) with `cargo run --release -p medusa-bench --bin ci-check-bench
//! -- golden results/golden`.

use medusa_serving::scenarios::differential_matrix;
use medusa_serving::{
    simulate_fleet, ArrivalCursor, ClusterFaults, EventQueue, EventToken, FleetEvent, Policy,
};
use proptest::prelude::*;
use std::path::Path;

fn golden_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/results/golden"))
}

/// The differential gate: event core vs committed legacy reports, across
/// the full seed × scheduler × fault matrix.
#[test]
fn event_core_reports_match_golden_legacy_reports() {
    let matrix = differential_matrix();
    assert!(
        matrix.len() >= 20,
        "differential matrix unexpectedly small ({} scenarios)",
        matrix.len()
    );
    for s in &matrix {
        let path = golden_dir().join(format!("{}.json", s.name));
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden report {} ({e}); regenerate with \
                 `ci-check-bench golden results/golden`",
                path.display()
            )
        });
        let out = simulate_fleet(&s.profile, &s.cluster, s.policy, &s.trace);
        let mut got = out.report.to_json();
        got.push('\n');
        assert_eq!(
            got, want,
            "scenario `{}`: event core diverged from the pre-refactor \
             legacy report",
            s.name
        );
        assert_eq!(
            out.conservation_residual(),
            0,
            "scenario `{}`: requests leaked",
            s.name
        );
    }
}

/// Every committed golden corresponds to a live scenario — a renamed or
/// deleted scenario must retire its golden, not orphan it.
#[test]
fn no_orphaned_golden_reports() {
    let names: Vec<String> = differential_matrix()
        .iter()
        .map(|s| format!("{}.json", s.name))
        .collect();
    for entry in std::fs::read_dir(golden_dir()).expect("results/golden must exist") {
        let file = entry.unwrap().file_name().into_string().unwrap();
        assert!(
            names.iter().any(|n| n == &file),
            "orphaned golden report `{file}` has no matrix scenario"
        );
    }
}

/// Same seed, same config ⇒ byte-identical report *and* identical event
/// counts, run to run.
#[test]
fn same_seed_runs_are_byte_identical() {
    let matrix = differential_matrix();
    for s in matrix.iter().take(4) {
        let a = simulate_fleet(&s.profile, &s.cluster, s.policy, &s.trace);
        let b = simulate_fleet(&s.profile, &s.cluster, s.policy, &s.trace);
        assert_eq!(
            a.report.to_json(),
            b.report.to_json(),
            "scenario `{}`",
            s.name
        );
        assert_eq!(a.stats, b.stats, "scenario `{}`", s.name);
    }
}

/// A pipeline start that recruits no helper is the single-node start: on a
/// one-node fleet, asking for pipeline degree 3 changes nothing but the
/// (zero) pipeline-start counter — the same registry retry schedule (per
/// chunk under the content-addressed registry), the same crash rolls, the
/// same timeline — across every matrix scenario's profile, registry,
/// cache and trace.
#[test]
fn helperless_pipeline_start_is_the_single_node_start() {
    for s in &differential_matrix() {
        for crash in [0, 120] {
            let mut cluster = s.cluster.clone().with_faults(ClusterFaults {
                seed: 5,
                registry_fail_per_mille: 350,
                node_crash_per_mille: crash,
            });
            cluster.nodes.truncate(1);
            cluster.pipeline_k = None;
            let piped_cluster = cluster.clone().with_pipeline(3);
            let single = simulate_fleet(&s.profile, &cluster, Policy::Locality, &s.trace);
            let mut piped = simulate_fleet(&s.profile, &piped_cluster, Policy::Locality, &s.trace);
            assert_eq!(single.report.pipeline_starts, None, "`{}`", s.name);
            assert_eq!(piped.report.pipeline_starts, Some(0), "`{}`", s.name);
            piped.report.pipeline_starts = None;
            assert_eq!(
                piped.report.to_json(),
                single.report.to_json(),
                "scenario `{}` at {crash}‰ crashes: a helperless pipeline \
                 start diverged from the single-node start",
                s.name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pops never run backwards in simulated time, and every scheduled
    /// event fires exactly once.
    #[test]
    fn pops_never_out_of_timestamp_order(
        times in prop::collection::vec(0u64..10_000, 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut fired = vec![false; times.len()];
        let mut prev = 0u64;
        while let Some((t, i)) = q.pop() {
            prop_assert!(t >= prev, "time ran backwards: {t} after {prev}");
            prop_assert_eq!(t, times[i], "event fired at the wrong time");
            prop_assert!(!fired[i], "event {i} fired twice");
            fired[i] = true;
            prev = t;
        }
        prop_assert!(fired.iter().all(|&f| f), "some events never fired");
    }

    /// Ties on timestamp break by insertion order, regardless of how many
    /// distinct timestamps interleave between the ties.
    #[test]
    fn same_timestamp_pops_in_insertion_order(
        times in prop::collection::vec(0u64..16, 1..200),
    ) {
        // A coarse time range forces many collisions per case.
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut last_at: Vec<Option<usize>> = vec![None; 16];
        while let Some((t, i)) = q.pop() {
            if let Some(prev) = last_at[t as usize] {
                prop_assert!(
                    i > prev,
                    "tie at t={t} popped out of insertion order: {i} after {prev}"
                );
            }
            last_at[t as usize] = Some(i);
        }
    }

    /// A cancelled event never fires, never perturbs the order of the
    /// survivors, and the queue's accounting stays exact.
    #[test]
    fn cancelled_events_never_fire(
        plan in prop::collection::vec((0u64..64, any::<bool>()), 1..150),
    ) {
        let mut q = EventQueue::new();
        let tokens: Vec<_> = plan
            .iter()
            .enumerate()
            .map(|(i, &(t, _))| q.schedule(t, i))
            .collect();
        let mut cancelled = 0u64;
        for (i, &(_, cancel)) in plan.iter().enumerate() {
            if cancel {
                prop_assert!(q.cancel(tokens[i]), "pending event must be cancellable");
                prop_assert!(!q.cancel(tokens[i]), "double-cancel must be a no-op");
                cancelled += 1;
            }
        }
        prop_assert_eq!(q.len(), plan.len() - cancelled as usize);
        // Survivors pop in exactly the order a queue without the
        // cancelled events would have produced.
        let mut reference = EventQueue::new();
        for (i, &(t, cancel)) in plan.iter().enumerate() {
            if !cancel {
                reference.schedule(t, i);
            }
        }
        while let Some((t, i)) = q.pop() {
            prop_assert!(!plan[i].1, "cancelled event {i} fired");
            prop_assert_eq!(Some((t, i)), reference.pop());
        }
        prop_assert_eq!(reference.pop(), None);
        prop_assert_eq!(q.scheduled_total(), plan.len() as u64);
        prop_assert_eq!(q.cancelled_total(), cancelled);
    }

    /// Streaming arrivals past the queue yields the same `(time, event)`
    /// sequence as scheduling every arrival first, for unsorted traces
    /// and same-nanosecond ties, while a handler that re-arms a far
    /// keep-alive on every other event keeps the heap within its bound.
    #[test]
    fn streamed_arrivals_fire_as_if_scheduled_first(
        arrivals in prop::collection::vec(0u64..64, 0..100),
        delay in 0u64..4,
    ) {
        fn run(arrivals: &[u64], delay: u64, stream: bool) -> Vec<(u64, FleetEvent)> {
            let mut q = EventQueue::new();
            let mut cursor = if stream {
                ArrivalCursor::new(arrivals.iter().copied())
            } else {
                for (req, &t) in arrivals.iter().enumerate() {
                    q.schedule(t, FleetEvent::Arrival { req });
                }
                ArrivalCursor::new(std::iter::empty())
            };
            let expiry = FleetEvent::KeepAliveExpiry { node: 0 };
            let mut armed: Option<EventToken> = None;
            let mut log = Vec::new();
            while let Some((t, ev)) = cursor.pop_merged(&mut q, |i| arrivals[i]) {
                log.push((t, ev));
                if let FleetEvent::Arrival { req } = ev {
                    q.schedule(t + delay, FleetEvent::IterationDone { node: req % 3 });
                }
                if ev != expiry {
                    if let Some(tok) = armed.take() {
                        q.cancel(tok);
                    }
                    armed = Some(q.schedule(t + 1_000_000, expiry));
                }
                let bound = 2 * q.len() + EventQueue::<FleetEvent>::COMPACT_SLACK;
                assert!(q.heap_entries() <= bound, "heap outgrew its bound");
            }
            log
        }
        prop_assert_eq!(run(&arrivals, delay, true), run(&arrivals, delay, false));
    }

    /// For distinct timestamps the pop sequence is a pure function of the
    /// (time, payload) set — shuffling insertion order changes nothing.
    #[test]
    fn distinct_time_pop_order_is_insertion_invariant(
        raw in prop::collection::vec(0u64..1_000_000, 1..150),
        rot in any::<u64>(),
    ) {
        // Dedup to distinct timestamps, then compare natural insertion
        // order against a rotated (shuffled) insertion order.
        let mut times = raw;
        times.sort_unstable();
        times.dedup();
        let rot = (rot % times.len() as u64) as usize;
        let mut fwd = EventQueue::new();
        for &t in &times {
            fwd.schedule(t, t);
        }
        let mut shuffled = EventQueue::new();
        for k in 0..times.len() {
            let t = times[(k + rot) % times.len()];
            shuffled.schedule(t, t);
        }
        let mut rev = EventQueue::new();
        for &t in times.iter().rev() {
            rev.schedule(t, t);
        }
        loop {
            let a = fwd.pop();
            prop_assert_eq!(a, shuffled.pop());
            prop_assert_eq!(a, rev.pop());
            if a.is_none() {
                break;
            }
        }
    }
}
