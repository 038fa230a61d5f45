//! Dependency-free telemetry substrate for the Medusa reproduction.
//!
//! Everything in this crate is driven by the **simulated clock** — span
//! timestamps and histogram samples are microsecond values derived from
//! [`SimTime`-style](https://crates.io/crates/medusa-gpu) virtual
//! nanoseconds, never from host wall clock. Combined with deterministic
//! snapshots (sorted maps, stable span ordering) this makes same-seed
//! runs export **byte-identical** telemetry, which is what lets CI diff
//! exported artifacts directly.
//!
//! Three primitives live in a [`Registry`]:
//!
//! - **counters** — monotonically increasing `u64` totals,
//! - **gauges** — last-value or [`Registry::gauge_max`] high-water marks
//!   (the `max` form is commutative, so concurrent rank threads stay
//!   deterministic),
//! - **histograms** — fixed log-scale buckets (a 1-2-5 decade series, see
//!   [`bucket_bounds_us`]) so bucket boundaries are integers and stable
//!   across platforms and float environments.
//!
//! Structured [`SpanRecord`] events capture the cold-start stage timeline
//! (name, lane, `[start_us, end_us)`, parent). Two exporters turn a
//! [`Snapshot`] into text artifacts:
//!
//! - [`export::prometheus`] — Prometheus text exposition format,
//! - [`export::chrome`] — Chrome `trace_event` JSON loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Number of finite histogram bucket boundaries.
pub const FINITE_BUCKETS: usize = 30;

/// The fixed histogram bucket upper bounds, in microseconds.
///
/// A 1-2-5 log-scale series over ten decades: `1, 2, 5, 10, 20, 50, ...,
/// 1e9, 2e9, 5e9`. All bounds are exact integers, so bucketing never
/// depends on floating-point rounding and is identical on every platform.
/// A final implicit `+Inf` bucket catches anything above 5 000 seconds.
pub const fn bucket_bounds_us() -> [u64; FINITE_BUCKETS] {
    let mut out = [0u64; FINITE_BUCKETS];
    let mut decade = 1u64;
    let mut i = 0;
    while i < FINITE_BUCKETS {
        out[i] = decade;
        out[i + 1] = 2 * decade;
        out[i + 2] = 5 * decade;
        i += 3;
        decade *= 10;
    }
    out
}

/// One structured span event: a named interval on a lane, with optional
/// parent linkage (the name of the span it was causally bound to).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (for cold starts: the stage name, optionally
    /// `rank{r}/`-prefixed under tensor parallelism).
    pub name: String,
    /// Execution lane the span ran on (`device` / `host` / `storage`,
    /// optionally `/rank{r}`-suffixed).
    pub lane: String,
    /// Start, in simulated microseconds.
    pub start_us: u64,
    /// End, in simulated microseconds.
    pub end_us: u64,
    /// Name of the parent span this one was bound to, if any.
    pub parent: Option<String>,
}

impl SpanRecord {
    /// Span duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Cumulative state of one histogram. One built apart from a registry
/// (by [`HistogramSnapshot::observe`]) joins it by
/// [`Registry::merge_histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts; `counts[FINITE_BUCKETS]` is the
    /// overflow (`+Inf`) bucket. Buckets are **not** cumulative here; the
    /// Prometheus exporter accumulates them into `le` form.
    pub counts: [u64; FINITE_BUCKETS + 1],
    /// Sum of all observed values, in microseconds.
    pub sum: u64,
    /// Total number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Records one observation, in microseconds.
    pub fn observe(&mut self, value_us: u64) {
        let bounds = bucket_bounds_us();
        let idx = bounds
            .iter()
            .position(|&b| value_us <= b)
            .unwrap_or(FINITE_BUCKETS);
        self.counts[idx] += 1;
        self.sum += value_us;
        self.count += 1;
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
    spans: Vec<SpanRecord>,
}

/// Applies `write` to metric `name` of `map`, starting it from `new` on
/// first use: only the first write of a name allocates its key.
fn update<V>(
    map: &mut BTreeMap<String, V>,
    name: &str,
    new: impl FnOnce() -> V,
    write: impl FnOnce(&mut V),
) {
    match map.get_mut(name) {
        Some(v) => write(v),
        None => {
            let mut v = new();
            write(&mut v);
            map.insert(name.to_string(), v);
        }
    }
}

/// A thread-safe registry of counters, gauges, histograms, and spans.
///
/// All mutation goes through `&self` (internally a mutex), so one
/// registry can be shared across the per-rank threads of a tensor-parallel
/// cold start. Determinism is preserved because every write is either
/// keyed by a rank-distinct name or commutative (`inc`, `observe_us`,
/// `gauge_max`), and [`Registry::snapshot`] sorts spans into a canonical
/// order.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Increments counter `name` by `by` (creating it at zero first).
    pub fn inc(&self, name: &str, by: u64) {
        let mut g = self.inner.lock().expect("telemetry poisoned");
        update(&mut g.counters, name, || 0, |n| *n += by);
    }

    /// Increments the labeled counter `{base}_{label}_total` by `by`. The
    /// label is sanitized to `[a-z0-9_]` (anything else becomes `_`) so
    /// error kinds and fault names can be used verbatim without producing
    /// invalid Prometheus metric names.
    pub fn inc_labeled(&self, base: &str, label: &str, by: u64) {
        let clean: String = label
            .chars()
            .map(|c| {
                let c = c.to_ascii_lowercase();
                if c.is_ascii_alphanumeric() || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.inc(&format!("{base}_{clean}_total"), by);
    }

    /// Sets gauge `name` to `value` (last write wins — use only from a
    /// single thread; prefer [`Registry::gauge_max`] under concurrency).
    pub fn set_gauge(&self, name: &str, value: u64) {
        let mut g = self.inner.lock().expect("telemetry poisoned");
        g.gauges.insert(name.to_string(), value);
    }

    /// Raises gauge `name` to `value` if `value` is larger (high-water
    /// mark; commutative, hence safe from concurrent rank threads).
    pub fn gauge_max(&self, name: &str, value: u64) {
        let mut g = self.inner.lock().expect("telemetry poisoned");
        update(&mut g.gauges, name, || 0, |v| *v = (*v).max(value));
    }

    /// Records one observation (in microseconds) into histogram `name`.
    pub fn observe_us(&self, name: &str, value_us: u64) {
        let mut g = self.inner.lock().expect("telemetry poisoned");
        update(&mut g.histograms, name, HistogramSnapshot::default, |h| {
            h.observe(value_us)
        });
    }

    /// Adds every observation of `hist` into histogram `name`, as if each
    /// had been [`Registry::observe_us`]d.
    pub fn merge_histogram(&self, name: &str, hist: &HistogramSnapshot) {
        let mut g = self.inner.lock().expect("telemetry poisoned");
        update(&mut g.histograms, name, HistogramSnapshot::default, |h| {
            for (total, n) in h.counts.iter_mut().zip(hist.counts) {
                *total += n;
            }
            h.sum += hist.sum;
            h.count += hist.count;
        });
    }

    /// Appends a span event.
    pub fn record_span(&self, span: SpanRecord) {
        let mut g = self.inner.lock().expect("telemetry poisoned");
        g.spans.push(span);
    }

    /// Records a parentless interval span — convenience over
    /// [`Registry::record_span`] for callers (e.g. the cluster simulator's
    /// scheduler decisions) that build name and lane on the fly.
    pub fn span(
        &self,
        name: impl Into<String>,
        lane: impl Into<String>,
        start_us: u64,
        end_us: u64,
    ) {
        self.record_span(SpanRecord {
            name: name.into(),
            lane: lane.into(),
            start_us,
            end_us,
            parent: None,
        });
    }

    /// Takes a deterministic snapshot: metric maps are sorted by name
    /// (`BTreeMap` order) and spans by `(start, end, lane, name)`, so the
    /// result is independent of thread interleaving.
    pub fn snapshot(&self) -> Snapshot {
        let g = self.inner.lock().expect("telemetry poisoned");
        let mut spans = g.spans.clone();
        spans.sort_by(|a, b| {
            (a.start_us, a.end_us, &a.lane, &a.name, &a.parent)
                .cmp(&(b.start_us, b.end_us, &b.lane, &b.name, &b.parent))
        });
        Snapshot {
            counters: g.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: g.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: g
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            spans,
        }
    }
}

/// An immutable, canonically ordered view of a [`Registry`], consumed by
/// the exporters in [`export`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, total)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, state)` histograms, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Span events sorted by `(start_us, end_us, lane, name, parent)`.
    pub spans: Vec<SpanRecord>,
}

impl Snapshot {
    /// Looks up a counter total by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Finds the first span with this exact name.
    pub fn span(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_the_1_2_5_decade_series() {
        let b = bucket_bounds_us();
        assert_eq!(b[0..6], [1, 2, 5, 10, 20, 50]);
        assert_eq!(b[FINITE_BUCKETS - 1], 5_000_000_000);
        assert!(b.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
    }

    #[test]
    fn histogram_buckets_values_on_boundaries() {
        let mut h = HistogramSnapshot::default();
        h.observe(0); // <= 1 → bucket 0
        h.observe(1); // boundary is inclusive
        h.observe(2);
        h.observe(3); // <= 5 → bucket 2
        h.observe(6_000_000_000); // above the last bound → +Inf
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[2], 1);
        assert_eq!(h.counts[FINITE_BUCKETS], 1);
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 6_000_000_006);
    }

    #[test]
    fn a_merged_histogram_equals_its_observations() {
        let values = [0, 3, 70, 6_000_000_000];
        let observed = Registry::new();
        let merged = Registry::new();
        let mut apart = HistogramSnapshot::default();
        for v in values {
            observed.observe_us("lat_us", v);
            apart.observe(v);
        }
        observed.observe_us("lat_us", 9);
        merged.observe_us("lat_us", 9);
        merged.merge_histogram("lat_us", &apart);
        assert_eq!(observed.snapshot(), merged.snapshot());
    }

    #[test]
    fn snapshot_is_independent_of_write_interleaving() {
        let build = |order_flipped: bool| {
            let r = Registry::new();
            let writes: [&dyn Fn(); 2] = [
                &|| {
                    r.inc("a_total", 1);
                    r.gauge_max("hw", 5);
                    r.observe_us("lat_us", 10);
                    r.record_span(SpanRecord {
                        name: "x".into(),
                        lane: "host".into(),
                        start_us: 3,
                        end_us: 9,
                        parent: None,
                    });
                },
                &|| {
                    r.inc("a_total", 2);
                    r.gauge_max("hw", 3);
                    r.observe_us("lat_us", 40);
                    r.record_span(SpanRecord {
                        name: "y".into(),
                        lane: "device".into(),
                        start_us: 1,
                        end_us: 2,
                        parent: Some("x".into()),
                    });
                },
            ];
            if order_flipped {
                writes[1]();
                writes[0]();
            } else {
                writes[0]();
                writes[1]();
            }
            r.snapshot()
        };
        assert_eq!(build(false), build(true));
        let snap = build(false);
        assert_eq!(snap.counter("a_total"), Some(3));
        assert_eq!(snap.gauge("hw"), Some(5));
        assert_eq!(snap.spans[0].name, "y", "sorted by start time");
    }

    #[test]
    fn labeled_counters_sanitize_the_label() {
        let r = Registry::new();
        r.inc_labeled("coldstart_fallback", "checksum_mismatch", 1);
        r.inc_labeled("coldstart_fallback", "checksum_mismatch", 2);
        r.inc_labeled("coldstart_fallback", "Weird-Kind!", 1);
        let snap = r.snapshot();
        assert_eq!(
            snap.counter("coldstart_fallback_checksum_mismatch_total"),
            Some(3)
        );
        assert_eq!(
            snap.counter("coldstart_fallback_weird_kind__total"),
            Some(1)
        );
    }

    #[test]
    fn registry_is_safe_across_threads() {
        let r = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        r.inc("n_total", 1);
                        r.observe_us("v_us", 7);
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counter("n_total"), Some(400));
        assert_eq!(snap.histogram("v_us").unwrap().count, 400);
    }
}
