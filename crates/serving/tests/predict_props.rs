//! Property suite for the prewarm estimator ([`medusa_serving::predict`]).
//!
//! The estimator sits between the arrival stream and the scheduler: a
//! wrong decision either wastes a node (fires too early, expires unused)
//! or is useless (fires after the arrival it was meant to beat). Two
//! properties are load-bearing enough to pin over the whole input space
//! rather than at hand-picked points:
//!
//! * **Causality** — [`PrewarmEstimator::observe`] never returns a fire
//!   instant earlier than the observation that produced it, for any
//!   policy, percentile, lead, seed, or arrival stream. The fleet layer
//!   schedules the decision verbatim; a past-dated decision would be an
//!   unschedulable event.
//! * **Determinism** — the same seed and the same arrival stream produce
//!   a byte-identical decision log, and the seed's only influence is the
//!   sub-millisecond jitter. The `policies` CI gate diffs TTFT
//!   percentiles at 5% tolerance against a committed baseline; that only
//!   works if reruns are exact replicas.

use medusa_serving::{PrewarmConfig, PrewarmDecision, PrewarmEstimator, PrewarmPolicy};
use proptest::prelude::*;

/// Builds a policy from raw drawn knobs: both families, full knob ranges
/// (percentiles past 1000‰ exercise the internal clamp).
fn policy(histogram: bool, percentile_pm: u32, window_s: f64) -> PrewarmPolicy {
    if histogram {
        PrewarmPolicy::Histogram { percentile_pm }
    } else {
        PrewarmPolicy::WindowedRate { window_s }
    }
}

/// Folds a drawn (gap, model) stream into absolute non-decreasing
/// instants and replays it, logging every (observation, decision) pair.
/// Arbitrary burstiness — zero gaps included — over interleaved models.
fn replay(
    policy: PrewarmPolicy,
    lead_s: f64,
    seed: u64,
    stream: &[(u64, u32)],
) -> Vec<(u64, PrewarmDecision)> {
    let mut est = PrewarmEstimator::new(PrewarmConfig { policy, lead_s }, seed);
    let mut now = 0u64;
    let mut log = Vec::new();
    for &(gap, model) in stream {
        now = now.saturating_add(gap);
        if let Some(d) = est.observe(now, model) {
            log.push((now, d));
        }
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Causality: no decision ever fires before the arrival that
    /// produced it, even with leads far beyond any plausible gap.
    #[test]
    fn decisions_never_fire_in_the_past(
        histogram in any::<bool>(),
        percentile_pm in 0u32..1200,
        window_s in 0.05f64..180.0,
        lead_s in 0.0f64..10_000.0,
        seed in any::<u64>(),
        stream in prop::collection::vec((0u64..30_000_000_000, 0u32..5), 1..120),
    ) {
        let p = policy(histogram, percentile_pm, window_s);
        for (now, d) in replay(p, lead_s, seed, &stream) {
            prop_assert!(
                d.t_ns >= now,
                "decision for model {} fires at {} ns, before its observation at {} ns",
                d.model, d.t_ns, now
            );
        }
    }

    /// Determinism: the same (config, seed, stream) triple replays to a
    /// byte-identical decision log — no hidden host state anywhere.
    #[test]
    fn same_seed_same_stream_is_byte_identical(
        histogram in any::<bool>(),
        percentile_pm in 0u32..1200,
        window_s in 0.05f64..180.0,
        lead_s in 0.0f64..100.0,
        seed in any::<u64>(),
        stream in prop::collection::vec((0u64..30_000_000_000, 0u32..5), 1..120),
    ) {
        let p = policy(histogram, percentile_pm, window_s);
        let encode = |log: &[(u64, PrewarmDecision)]| {
            serde_json::to_string(&log.iter().map(|(_, d)| *d).collect::<Vec<_>>())
                .expect("plain structs encode")
        };
        prop_assert_eq!(
            encode(&replay(p, lead_s, seed, &stream)),
            encode(&replay(p, lead_s, seed, &stream))
        );
    }

    /// The seed's entire influence is the sub-millisecond jitter: two
    /// estimators differing only in seed emit the same decisions at the
    /// same observations, with fire instants less than 1 ms apart.
    #[test]
    fn seed_only_moves_decisions_by_subms_jitter(
        histogram in any::<bool>(),
        percentile_pm in 0u32..1200,
        window_s in 0.05f64..180.0,
        lead_s in 0.0f64..100.0,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        stream in prop::collection::vec((0u64..30_000_000_000, 0u32..5), 1..120),
    ) {
        let p = policy(histogram, percentile_pm, window_s);
        let a = replay(p, lead_s, seed_a, &stream);
        let b = replay(p, lead_s, seed_b, &stream);
        prop_assert_eq!(a.len(), b.len(), "seeds changed *which* arrivals decide");
        for ((now_a, da), (now_b, db)) in a.iter().zip(&b) {
            prop_assert_eq!(now_a, now_b);
            prop_assert_eq!(da.model, db.model);
            prop_assert!(
                da.t_ns.abs_diff(db.t_ns) < 1_000_000,
                "seeds moved a decision by {} ns (≥ 1 ms): {} vs {}",
                da.t_ns.abs_diff(db.t_ns), da.t_ns, db.t_ns
            );
        }
    }
}
