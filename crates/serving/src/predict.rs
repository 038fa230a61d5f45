//! Predictive keep-alive / prewarm estimation.
//!
//! Medusa (§6) shrinks each cold start; this module goes after the cold
//! starts that need not happen at all. A [`PrewarmEstimator`] watches the
//! per-model arrival stream and predicts when the *next* request of a
//! model will land, so the fleet can begin that model's cold start
//! **before** the burst arrives — the dslab-faas family of keep-alive
//! policies, rebuilt on this repo's deterministic event core:
//!
//! * [`PrewarmPolicy::Histogram`] — a log₂-bucketed histogram of observed
//!   inter-arrival gaps per model. The predicted next gap is a configured
//!   percentile of that distribution; a high percentile (the default
//!   800‰) targets the *inter-burst* gap of bursty traffic, which is
//!   exactly the gap across which keep-alive expires and reactive fleets
//!   pay a cold start.
//! * [`PrewarmPolicy::WindowedRate`] — the mean arrival rate over a
//!   sliding window; the predicted next gap is its reciprocal. Cheaper,
//!   memoryless, good for smooth traffic.
//!
//! A decision fires `lead_s` before the predicted arrival (the lead should
//! roughly cover the cold-start makespan) and is **clamped to now** —
//! [`PrewarmEstimator::observe`] never returns an instant in the past, a
//! property the proptest suite pins. All state is integer arithmetic over
//! simulated nanoseconds plus a `splitmix64`-derived deterministic jitter,
//! so the same seed and the same arrival stream produce byte-identical
//! decision logs.
//!
//! The estimator is deliberately simulator-agnostic: the fleet layer
//! ([`crate::cluster`]) feeds it from `Arrival` events and turns its
//! decisions into `ScaleDecision` events, while offline
//! studies can replay a [`medusa_workload::ArrivalHistory`] export into
//! [`PrewarmEstimator::seed_history`] and inspect the decisions directly.

use medusa_gpu::splitmix64;
use medusa_workload::ArrivalHistory;
use serde::Serialize;
use std::collections::BTreeMap;

/// Inter-arrival histogram bucket count: log₂ of the gap in nanoseconds
/// saturates at `2^63` ns (~292 years), far beyond any simulated horizon.
const HIST_BUCKETS: usize = 64;

/// Default prediction percentile, per-mille (the 80th percentile of the
/// observed inter-arrival distribution).
pub const DEFAULT_PERCENTILE_PM: u32 = 800;

/// Default sliding-window width for [`PrewarmPolicy::WindowedRate`].
pub const DEFAULT_WINDOW_S: f64 = 60.0;

/// Which estimator drives prewarm decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrewarmPolicy {
    /// Per-model log₂ histogram of inter-arrival gaps; predicts the next
    /// gap as the `percentile_pm` per-mille percentile of the observed
    /// distribution (the matched bucket's largest *observed* gap, so the
    /// prediction never overshoots the data — overshooting would fire the
    /// prewarm after the arrival it was meant to beat, while undershooting
    /// only costs a little extra keep-alive).
    Histogram {
        /// Prediction percentile, per-mille (0..=1000; a larger value
        /// counts as 1000 — `medusa-cli` rejects it instead).
        percentile_pm: u32,
    },
    /// Mean arrival rate over a sliding window of `window_s` seconds;
    /// predicts the next gap as `window / arrivals_in_window`.
    WindowedRate {
        /// Sliding-window width, seconds.
        window_s: f64,
    },
}

impl PrewarmPolicy {
    /// Stable CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            PrewarmPolicy::Histogram { .. } => "histogram",
            PrewarmPolicy::WindowedRate { .. } => "windowed-rate",
        }
    }

    /// Parses a CLI policy name with default knobs.
    pub fn parse(s: &str) -> Option<PrewarmPolicy> {
        match s {
            "histogram" => Some(PrewarmPolicy::Histogram {
                percentile_pm: DEFAULT_PERCENTILE_PM,
            }),
            "windowed-rate" => Some(PrewarmPolicy::WindowedRate {
                window_s: DEFAULT_WINDOW_S,
            }),
            _ => None,
        }
    }
}

/// Prewarm estimator configuration, embedded (opt-in) in
/// [`crate::ClusterSpec::prewarm`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrewarmConfig {
    /// The estimator policy.
    pub policy: PrewarmPolicy,
    /// Lead subtracted from the predicted arrival, seconds — set it to
    /// roughly the cold-start makespan so the node is warm when the
    /// predicted request lands.
    pub lead_s: f64,
}

impl Default for PrewarmConfig {
    fn default() -> Self {
        PrewarmConfig {
            policy: PrewarmPolicy::Histogram {
                percentile_pm: DEFAULT_PERCENTILE_PM,
            },
            lead_s: 1.0,
        }
    }
}

/// One prewarm decision: begin `model`'s cold start at simulated
/// nanosecond `t_ns` (always ≥ the observation instant that produced it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PrewarmDecision {
    /// Fire instant, simulated ns.
    pub t_ns: u64,
    /// Model to prewarm.
    pub model: u32,
}

/// Per-model estimator state.
#[derive(Debug, Clone)]
struct ModelState {
    /// Last observed arrival, ns.
    last_arrival: Option<u64>,
    /// log₂-bucketed inter-arrival histogram (Histogram policy).
    hist: [u64; HIST_BUCKETS],
    /// Largest observed gap per bucket — the value a percentile match
    /// predicts (exact for periodic traffic, never above the data).
    hist_max: [u64; HIST_BUCKETS],
    /// Total gaps recorded in `hist`.
    samples: u64,
    /// Recent arrivals inside the sliding window (WindowedRate policy).
    window: std::collections::VecDeque<u64>,
}

impl ModelState {
    fn new() -> Self {
        ModelState {
            last_arrival: None,
            hist: [0; HIST_BUCKETS],
            hist_max: [0; HIST_BUCKETS],
            samples: 0,
            window: std::collections::VecDeque::new(),
        }
    }
}

/// The keep-alive/prewarm estimator: per-model arrival statistics plus a
/// deterministic decision rule. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct PrewarmEstimator {
    config: PrewarmConfig,
    seed: u64,
    models: BTreeMap<u32, ModelState>,
}

impl PrewarmEstimator {
    /// Builds an estimator. `seed` only drives the sub-millisecond
    /// decision jitter (which de-synchronizes fleets that share a trace),
    /// never the statistics.
    pub fn new(config: PrewarmConfig, seed: u64) -> Self {
        PrewarmEstimator {
            config,
            seed,
            models: BTreeMap::new(),
        }
    }

    /// The estimator's configuration.
    pub fn config(&self) -> PrewarmConfig {
        self.config
    }

    /// Warm-starts the per-model statistics from an exported arrival
    /// history **without** emitting decisions — offline replay of a prior
    /// trace so the first live arrivals already predict well.
    pub fn seed_history(&mut self, history: &ArrivalHistory) {
        for (&model, arrivals) in &history.per_model {
            for &t in arrivals {
                self.record(t, model);
            }
        }
    }

    /// Records one arrival into `model`'s statistics (no decision).
    fn record(&mut self, now_ns: u64, model: u32) {
        let window_ns = match self.config.policy {
            PrewarmPolicy::WindowedRate { window_s } => (window_s * 1e9) as u64,
            PrewarmPolicy::Histogram { .. } => 0,
        };
        let state = self.models.entry(model).or_insert_with(ModelState::new);
        if let Some(prev) = state.last_arrival {
            let gap = now_ns.saturating_sub(prev);
            let bucket = (64 - gap.max(1).leading_zeros() as usize).min(HIST_BUCKETS - 1);
            state.hist[bucket] += 1;
            state.hist_max[bucket] = state.hist_max[bucket].max(gap.max(1));
            state.samples += 1;
        }
        state.last_arrival = Some(now_ns);
        if window_ns > 0 {
            state.window.push_back(now_ns);
            while state
                .window
                .front()
                .is_some_and(|&t| now_ns.saturating_sub(t) > window_ns)
            {
                state.window.pop_front();
            }
        }
    }

    /// Predicted gap to `model`'s next arrival, ns; `None` until the
    /// statistics carry at least one full gap.
    fn predict_gap(&self, now_ns: u64, model: u32) -> Option<u64> {
        let state = self.models.get(&model)?;
        match self.config.policy {
            PrewarmPolicy::Histogram { percentile_pm } => {
                if state.samples == 0 {
                    return None;
                }
                // Nearest-rank percentile over the bucketed distribution;
                // the predicted gap is the matched bucket's largest
                // *observed* gap — exact for periodic traffic, and never
                // later than the data (a prewarm that fires after the
                // arrival it targets is pure waste, while firing early
                // only costs a slice of keep-alive).
                let rank = (state.samples * percentile_pm.min(1000) as u64).div_ceil(1000);
                let mut seen = 0u64;
                for (bucket, &count) in state.hist.iter().enumerate() {
                    seen += count;
                    if count > 0 && seen >= rank.max(1) {
                        return Some(state.hist_max[bucket]);
                    }
                }
                None
            }
            PrewarmPolicy::WindowedRate { window_s } => {
                let in_window = state
                    .window
                    .iter()
                    .filter(|&&t| now_ns.saturating_sub(t) <= (window_s * 1e9) as u64)
                    .count() as u64;
                if in_window < 2 {
                    return None;
                }
                Some(((window_s * 1e9) as u64) / in_window)
            }
        }
    }

    /// Feeds one arrival and returns the prewarm decision it triggers, if
    /// any (none until the statistics carry at least one gap). Every
    /// decision re-anchors on the newest arrival — stale predictions from
    /// before a burst are simply superseded, and a decision that fires
    /// while the model is already live is a no-op on the consumer side.
    /// The returned fire instant is **never earlier than `now_ns`**:
    /// predictions that would already have fired clamp to now.
    pub fn observe(&mut self, now_ns: u64, model: u32) -> Option<PrewarmDecision> {
        self.record(now_ns, model);
        let gap = self.predict_gap(now_ns, model)?;
        let lead_ns = (self.config.lead_s * 1e9) as u64;
        // Deterministic sub-millisecond jitter keyed by (seed, model,
        // arrival): de-synchronizes same-trace fleets without host
        // randomness.
        let jitter = splitmix64(self.seed ^ ((model as u64) << 32) ^ now_ns) % 1_000_000;
        let fire = now_ns
            .saturating_add(gap)
            .saturating_sub(lead_ns)
            .max(now_ns)
            + jitter;
        Some(PrewarmDecision { t_ns: fire, model })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_cfg(percentile_pm: u32, lead_s: f64) -> PrewarmConfig {
        PrewarmConfig {
            policy: PrewarmPolicy::Histogram { percentile_pm },
            lead_s,
        }
    }

    #[test]
    fn no_decision_before_two_arrivals() {
        let mut est = PrewarmEstimator::new(hist_cfg(800, 0.0), 1);
        assert_eq!(est.observe(1_000, 0), None, "one arrival carries no gap");
        assert!(est.observe(2_000, 0).is_some());
    }

    #[test]
    fn histogram_targets_the_large_gap_of_bursty_arrivals() {
        // Bursts of 5 requests 1 ms apart, bursts 10 s apart: the 80th
        // percentile gap is the within-burst millisecond until the first
        // inter-burst gap lands, then a high percentile spans the burst
        // period.
        let mut est = PrewarmEstimator::new(hist_cfg(900, 0.0), 7);
        let mut last = None;
        for burst in 0..3u64 {
            for i in 0..5u64 {
                let t = burst * 10_000_000_000 + i * 1_000_000;
                last = est.observe(t, 0);
            }
        }
        let d = last.expect("statistics are warm");
        // The predicted gap must be in the inter-burst decade (2^33 ns
        // ≈ 8.6 s ≤ gap < 2^34 ns ≈ 17.2 s), not the within-burst one.
        let now = 2 * 10_000_000_000 + 4 * 1_000_000;
        assert!(
            d.t_ns - now >= (1u64 << 33),
            "predicted gap {} ns is within-burst",
            d.t_ns - now
        );
    }

    #[test]
    fn decisions_never_fire_in_the_past() {
        let mut est = PrewarmEstimator::new(hist_cfg(100, 1_000.0), 3);
        // A huge lead would push the fire time far before now; it must
        // clamp.
        for t in [0u64, 5_000, 10_000, 15_000] {
            if let Some(d) = est.observe(t, 2) {
                assert!(d.t_ns >= t);
            }
        }
    }

    #[test]
    fn decisions_re_anchor_on_the_newest_arrival() {
        // Steady 10 s gaps: each decision predicts from its own arrival,
        // so fire instants advance monotonically with the stream and a
        // pre-burst prediction can never pin the estimator to the past.
        let mut est = PrewarmEstimator::new(hist_cfg(900, 0.0), 9);
        let mut prev_fire = 0u64;
        for i in 0..5u64 {
            if let Some(d) = est.observe(i * 10_000_000_000, 0) {
                assert!(d.t_ns > prev_fire);
                prev_fire = d.t_ns;
            }
        }
        assert!(prev_fire > 0, "steady stream must decide");
    }

    #[test]
    fn windowed_rate_predicts_reciprocal_rate() {
        let cfg = PrewarmConfig {
            policy: PrewarmPolicy::WindowedRate { window_s: 10.0 },
            lead_s: 0.0,
        };
        let mut est = PrewarmEstimator::new(cfg, 4);
        // 5 arrivals inside the 10 s window => gap ~ 2 s.
        let mut last = None;
        for i in 0..5u64 {
            last = est.observe(i * 1_000_000_000, 1);
        }
        let d = last.expect("window is warm");
        let now = 4 * 1_000_000_000u64;
        let gap = d.t_ns - now;
        assert!(
            (1_900_000_000..=2_101_000_000).contains(&gap),
            "gap {gap} ns should be ~2 s"
        );
    }

    #[test]
    fn same_seed_same_stream_is_byte_identical() {
        let run = || {
            let mut est = PrewarmEstimator::new(hist_cfg(800, 0.5), 42);
            let mut log = Vec::new();
            for i in 0..50u64 {
                let t = i * 777_000_000 + (i % 7) * 13_000_000;
                if let Some(d) = est.observe(t, (i % 3) as u32) {
                    log.push(d);
                }
            }
            serde_json::to_string(&log).expect("plain structs encode")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn seeded_history_predicts_from_the_first_live_arrival() {
        let mut hist = ArrivalHistory::default();
        hist.per_model
            .insert(5, (0..10).map(|i| i * 2_000_000_000).collect());
        let mut cold = PrewarmEstimator::new(hist_cfg(800, 0.0), 11);
        let mut warm = PrewarmEstimator::new(hist_cfg(800, 0.0), 11);
        warm.seed_history(&hist);
        assert!(cold.observe(100_000_000_000, 5).is_none());
        assert!(warm.observe(100_000_000_000, 5).is_some());
    }

    #[test]
    fn parse_names_round_trip() {
        for name in ["histogram", "windowed-rate"] {
            assert_eq!(PrewarmPolicy::parse(name).unwrap().name(), name);
        }
        assert_eq!(PrewarmPolicy::parse("nope"), None);
    }
}
