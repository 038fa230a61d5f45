//! The benchmark's own span recorder.
//!
//! Spans are kept in memory while the traced run executes and written out
//! once at the end as Chrome `trace_event` JSON. The recorder lives in the
//! benchmark rather than in `medusa-telemetry`, so a rewrite of the
//! program's telemetry cannot change what the benchmark measures.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `model.tokenizer_load`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one benchmark operation.
    pub op: u64,
    /// Host lane (thread) the span ran on.
    pub lane: u32,
}

impl Span {
    /// The layer: the name up to its last `.`.
    pub fn layer(&self) -> &'static str {
        self.name
            .rsplit_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe in-memory span store.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A scope for the root spans of operation `op`.
    pub fn root(&self, op: u64) -> Scope<'_> {
        Scope {
            rec: self,
            parent: None,
            op,
            lane: 0,
        }
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Where the next span goes: its parent, operation and lane.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    rec: &'a Recorder,
    parent: Option<usize>,
    op: u64,
    lane: u32,
}

impl<'a> Scope<'a> {
    /// Runs `f` inside a span named `name`; `f` gets the scope for children.
    pub fn span<T>(self, name: &'static str, f: impl FnOnce(Scope<'a>) -> T) -> T {
        let id = {
            let mut spans = self.rec.spans.lock().expect("span store poisoned");
            spans.push(Span {
                name,
                start_ns: self.rec.now_ns(),
                end_ns: 0,
                parent: self.parent,
                op: self.op,
                lane: self.lane,
            });
            spans.len() - 1
        };
        let out = f(Scope {
            parent: Some(id),
            ..self
        });
        let end = self.rec.now_ns();
        self.rec.spans.lock().expect("span store poisoned")[id].end_ns = end;
        out
    }

    /// The same scope on another host lane.
    pub fn on_lane(self, lane: u32) -> Self {
        Scope { lane, ..self }
    }
}

/// Runs `f` inside a span when tracing, plainly otherwise.
pub fn in_span<T>(cx: Option<Scope<'_>>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match cx {
        Some(cx) => cx.span(name, |_| f()),
        None => f(),
    }
}

/// Nanoseconds of `[lo, hi)` covered by the union of `intervals`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

fn children(spans: &[Span]) -> Vec<Vec<(u64, u64)>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p].push((s.start_ns, s.end_ns));
        }
    }
    kids
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children on parallel lanes are merged, not summed).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .zip(children(spans))
        .map(|(s, mut kids)| s.dur_ns() - covered(&mut kids, s.start_ns, s.end_ns))
        .collect()
}

/// Mean share, in percent, of each root span covered by its children.
pub fn coverage_pct(spans: &[Span]) -> f64 {
    let kids = children(spans);
    let shares: Vec<f64> = spans
        .iter()
        .zip(kids)
        .filter(|(s, _)| s.parent.is_none() && s.dur_ns() > 0)
        .map(|(s, mut k)| covered(&mut k, s.start_ns, s.end_ns) as f64 / s.dur_ns() as f64)
        .collect();
    crate::mean(&shares) * 100.0
}

/// Total self time and span count per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    out
}

/// Total self time per layer.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_default() += own;
    }
    out
}

/// Chrome `trace_event` JSON (complete events, microseconds).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.layer(),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.lane,
            i,
            parent,
            s.op
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("a.root", 0, 100, None),
            span("b.x", 10, 40, Some(0)),
            span("c.y", 30, 60, Some(0)),
            span("b.z", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 30, 30]);
        assert!((coverage_pct(&spans) - 60.0).abs() < 1e-9);
        assert_eq!(by_layer(&spans)["b"], 60);
    }
}
