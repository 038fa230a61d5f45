//! The one bench schema and its one comparator.
//!
//! Every CI bench scenario ([`crate::smoke`]) reports a [`BenchReport`]:
//! the configuration it ran (model, seeds, trace and catalog
//! fingerprints, …) and an ordered list of [`Metric`]s, each tagged with
//! the [`Kind`] of comparison [`gate`] applies against the committed
//! baseline. Invariants every fresh run must satisfy are [`Check`]s,
//! declared in Rust next to each scenario and never read from a baseline
//! file, so regenerating a baseline cannot loosen a gate.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Relative tolerance of a [`Kind::Lower`] metric: a fresh value fails
/// when it exceeds `(baseline + slack) × 1.05`.
const TOLERANCE: f64 = 1.05;

/// How [`gate`] compares a metric with its baseline value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Must equal the baseline.
    Exact,
    /// Lower is better: fails when `fresh > (baseline + slack) × 1.05`.
    /// `slack` absorbs noise on small counts.
    Lower {
        /// Absolute slack added to the baseline before the tolerance.
        slack: u64,
    },
    /// Recorded (host wall-clock, ungated counters) but never compared
    /// with the baseline; declared checks may still read it.
    Info,
}

/// [`Kind::Lower`] without slack — the common case.
pub const LOWER: Kind = Kind::Lower { slack: 0 };

impl Kind {
    /// The serialized name: `exact`, `lower`, `lower+<slack>` or `info`.
    pub fn name(self) -> String {
        match self {
            Kind::Exact => "exact".into(),
            Kind::Lower { slack: 0 } => "lower".into(),
            Kind::Lower { slack } => format!("lower+{slack}"),
            Kind::Info => "info".into(),
        }
    }

    fn parse(s: &str) -> Option<Kind> {
        match s {
            "exact" => Some(Kind::Exact),
            "lower" => Some(LOWER),
            "info" => Some(Kind::Info),
            _ => s
                .strip_prefix("lower+")?
                .parse()
                .ok()
                .map(|slack| Kind::Lower { slack }),
        }
    }
}

impl Serialize for Kind {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name())
    }
}

impl Deserialize for Kind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) => {
                Kind::parse(s).ok_or_else(|| serde::Error::new(format!("unknown kind `{s}`")))
            }
            other => Err(serde::Error::new(format!(
                "expected kind string, got {other:?}"
            ))),
        }
    }
}

/// One named measurement of a scenario run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metric {
    /// Dotted name, unique within the report (e.g. `medusa.ttft_p99_us`).
    pub name: String,
    /// The measured value.
    pub value: u64,
    /// Unit of `value` (`us`, `ns`, `ms`, `bytes`, `count`, `pm`).
    pub unit: String,
    /// How [`gate`] compares it with the baseline.
    pub kind: Kind,
}

/// One scenario run: what it ran and what it measured. Committed as
/// `results/BENCH_<scenario>.json`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Scenario name (see [`crate::smoke::SCENARIOS`]).
    pub scenario: String,
    /// The run's configuration; any difference from the baseline fails
    /// as a configuration mismatch.
    pub config: BTreeMap<String, String>,
    /// Measurements, in a fixed order the baseline must repeat.
    pub metrics: Vec<Metric>,
}

impl BenchReport {
    /// An empty report of `scenario`.
    pub fn new(scenario: &str) -> Self {
        BenchReport {
            scenario: scenario.to_string(),
            config: BTreeMap::new(),
            metrics: Vec::new(),
        }
    }

    /// Records one configuration entry.
    pub fn config(&mut self, key: &str, value: impl ToString) -> &mut Self {
        self.config.insert(key.to_string(), value.to_string());
        self
    }

    /// Appends metrics, each `(name, value, unit, kind)`, in order.
    pub fn metrics<N: Into<String>>(
        &mut self,
        rows: impl IntoIterator<Item = (N, u64, &'static str, Kind)>,
    ) -> &mut Self {
        for (name, value, unit, kind) in rows {
            self.metrics.push(Metric {
                name: name.into(),
                value,
                unit: unit.to_string(),
                kind,
            });
        }
        self
    }

    /// The value of metric `name`, if the report has it.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Encodes as JSON (one stable line — committed as the CI baseline).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("plain struct encodes")
    }

    /// Decodes from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

/// An invariant on a fresh report, in integer arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Check {
    /// `ka·a < kb·b`.
    Lt(u64, String, u64, String),
    /// `ka·a ≤ kb·b`.
    Le(u64, String, u64, String),
    /// `a ≥ c`.
    AtLeast(String, u64),
    /// `a ≤ c`.
    AtMost(String, u64),
}

/// `a < b`.
pub fn lt(a: impl Into<String>, b: impl Into<String>) -> Check {
    Check::Lt(1, a.into(), 1, b.into())
}

/// `a ≤ b`.
pub fn le(a: impl Into<String>, b: impl Into<String>) -> Check {
    Check::Le(1, a.into(), 1, b.into())
}

impl Check {
    /// The invariant as text, e.g. `2·cas.bytes_fetched ≤ whole.bytes_fetched`.
    pub fn describe(&self) -> String {
        let term = |k: u64, m: &str| {
            if k == 1 {
                m.to_string()
            } else {
                format!("{k}·{m}")
            }
        };
        match self {
            Check::Lt(ka, a, kb, b) => format!("{} < {}", term(*ka, a), term(*kb, b)),
            Check::Le(ka, a, kb, b) => format!("{} ≤ {}", term(*ka, a), term(*kb, b)),
            Check::AtLeast(a, c) => format!("{a} ≥ {c}"),
            Check::AtMost(a, c) => format!("{a} ≤ {c}"),
        }
    }

    /// Evaluates the check on `r`: `(holds, lhs, rhs)`, or the name of a
    /// metric it reads that `r` lacks.
    fn eval(&self, r: &BenchReport) -> Result<(bool, u128, u128), String> {
        let get = |m: &String| r.get(m).map(u128::from).ok_or_else(|| m.clone());
        Ok(match self {
            Check::Lt(ka, a, kb, b) | Check::Le(ka, a, kb, b) => {
                let lhs = u128::from(*ka) * get(a)?;
                let rhs = u128::from(*kb) * get(b)?;
                let holds = if matches!(self, Check::Lt(..)) {
                    lhs < rhs
                } else {
                    lhs <= rhs
                };
                (holds, lhs, rhs)
            }
            Check::AtLeast(a, c) => {
                let v = get(a)?;
                (v >= u128::from(*c), v, u128::from(*c))
            }
            Check::AtMost(a, c) => {
                let v = get(a)?;
                (v <= u128::from(*c), v, u128::from(*c))
            }
        })
    }
}

/// Compares a fresh run with its committed baseline and evaluates the
/// scenario's declared checks on the fresh run.
///
/// The scenario, configuration and metric list (names, units and kinds,
/// in order) must match the baseline exactly; otherwise the baseline is
/// stale and the error says to regenerate it. Then every metric is
/// compared by its [`Kind`] and every check is evaluated; a check that
/// reads a metric the fresh report lacks fails. Returns the table — one
/// line per metric (name, value, baseline, kind, verdict) and per check —
/// as `Ok` when every row passes, as `Err` otherwise.
pub fn gate(
    fresh: &BenchReport,
    baseline: &BenchReport,
    checks: &[Check],
) -> Result<String, String> {
    let regen = format!("regenerate results/BENCH_{}.json", baseline.scenario);
    if (&fresh.scenario, &fresh.config) != (&baseline.scenario, &baseline.config) {
        return Err(format!(
            "configuration mismatch — {regen}:\n  fresh    {} {:?}\n  baseline {} {:?}",
            fresh.scenario, fresh.config, baseline.scenario, baseline.config
        ));
    }
    let shape = |r: &BenchReport| -> Vec<String> {
        r.metrics
            .iter()
            .map(|m| format!("{} [{}, {}]", m.name, m.unit, m.kind.name()))
            .collect()
    };
    if shape(fresh) != shape(baseline) {
        return Err(format!(
            "metric list changed — {regen}:\n  fresh    {:?}\n  baseline {:?}",
            shape(fresh),
            shape(baseline)
        ));
    }

    let descs: Vec<String> = checks.iter().map(Check::describe).collect();
    let w = fresh
        .metrics
        .iter()
        .map(|m| m.name.chars().count())
        .chain(descs.iter().map(|d| d.chars().count()))
        .max()
        .unwrap_or(0)
        .max(6);
    let mut lines = vec![format!(
        "{:<w$} {:>14} {:>14} {:<8} verdict",
        "metric", "value", "baseline", "kind"
    )];
    let mut failed = 0;
    for (f, b) in fresh.metrics.iter().zip(&baseline.metrics) {
        let pass = match f.kind {
            Kind::Exact => Some(f.value == b.value),
            Kind::Lower { slack } => {
                Some(f.value as f64 <= b.value.saturating_add(slack) as f64 * TOLERANCE)
            }
            Kind::Info => None,
        };
        failed += usize::from(pass == Some(false));
        let verdict = match pass {
            Some(true) => "ok",
            Some(false) => "FAIL",
            None => "info",
        };
        lines.push(format!(
            "{:<w$} {:>14} {:>14} {:<8} {verdict}",
            f.name,
            f.value,
            b.value,
            f.kind.name()
        ));
    }
    for (c, desc) in checks.iter().zip(&descs) {
        let (lhs, rhs, verdict) = match c.eval(fresh) {
            Ok((holds, lhs, rhs)) => (
                lhs.to_string(),
                rhs.to_string(),
                if holds { "ok" } else { "FAIL" }.to_string(),
            ),
            Err(missing) => (
                "-".into(),
                "-".into(),
                format!("FAIL (metric `{missing}` missing from the report)"),
            ),
        };
        failed += usize::from(verdict != "ok");
        lines.push(format!(
            "{desc:<w$} {lhs:>14} {rhs:>14} {:<8} {verdict}",
            "check"
        ));
    }
    let table = lines.join("\n");
    if failed == 0 {
        Ok(table)
    } else {
        Err(format!(
            "{table}\n{failed} of {} row(s) failed",
            lines.len() - 1
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new("sample");
        r.config("seed", 42).metrics([
            ("a", 10, "us", Kind::Exact),
            ("b", 20, "us", LOWER),
            ("c", 0, "count", Kind::Lower { slack: 1 }),
            ("d", 7, "ns", Kind::Info),
        ]);
        r
    }

    #[test]
    fn json_round_trips_every_kind() {
        let r = sample();
        assert_eq!(BenchReport::from_json(&r.to_json()).unwrap(), r);
        assert!(BenchReport::from_json(&r.to_json().replace("\"info\"", "\"better\"")).is_err());
    }

    #[test]
    fn a_check_on_a_missing_metric_fails_and_names_it() {
        let r = sample();
        let checks = [lt("a", "b"), Check::AtLeast("no_such_metric".into(), 1)];
        let err = gate(&r, &r, &checks).unwrap_err();
        assert!(
            err.contains("metric `no_such_metric` missing from the report"),
            "{err}"
        );
        assert!(gate(&r, &r, &checks[..1]).is_ok());
    }
}
