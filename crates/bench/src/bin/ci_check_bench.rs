//! `ci-check-bench` — the CI helpers around the bench scenarios.
//!
//! ```text
//! ci-check-bench cores
//! ci-check-bench golden <out-dir>
//! ci-check-bench gate   <scenario> <baseline.json> <out.json>
//! ```
//!
//! `cores` prints the host's available parallelism (CI uses it to decide
//! whether the multi-threaded stress step can mean anything).
//!
//! `golden` writes one `ClusterReport` JSON per scenario of the
//! differential matrix ([`medusa_serving::scenarios`]) into `<out-dir>` —
//! CI regenerates them into a scratch directory and diffs against the
//! committed `results/golden/`, so any change to the fleet simulator's
//! observable semantics fails loudly with a readable report diff.
//!
//! `gate` runs one bench scenario ([`medusa_bench::smoke::SCENARIOS`])
//! fresh, writes the fresh report to `<out.json>` (so a failing CI run can
//! upload it, or a deliberate change can copy it over the baseline), and
//! compares it with `<baseline.json>` through
//! [`medusa_bench::report::gate`]: one line per metric (name, value,
//! baseline value, kind, verdict) and per declared check. It exits
//! non-zero when any row fails or the baseline is stale.

use medusa_bench::report::{gate, BenchReport};
use medusa_bench::smoke::{scenario, SCENARIOS};
use medusa_serving::scenarios::differential_matrix;
use medusa_serving::simulate_fleet;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match args.as_slice() {
        ["cores"] => {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            println!("{cores}");
            Ok(())
        }
        ["golden", dir] => golden(dir),
        ["gate", name, baseline, out] => gate_scenario(name, baseline, out),
        _ => {
            eprintln!(
                "usage: ci-check-bench cores | golden <out-dir> | \
                 gate <scenario> <baseline.json> <out.json>"
            );
            exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("ci-check-bench: FAIL: {e}");
        exit(1);
    }
}

/// Runs scenario `name` fresh, writes it to `out`, and gates it against
/// the baseline at `baseline_path`.
fn gate_scenario(name: &str, baseline_path: &str, out: &str) -> Result<(), String> {
    let s = scenario(name).ok_or_else(|| {
        let names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
        format!("unknown scenario `{name}` (one of: {})", names.join(", "))
    })?;
    let baseline = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read `{baseline_path}`: {e}"))
        .and_then(|json| {
            BenchReport::from_json(&json)
                .map_err(|e| format!("cannot parse `{baseline_path}`: {e}"))
        })?;
    let fresh = (s.run)();
    std::fs::write(out, fresh.to_json()).map_err(|e| format!("cannot write `{out}`: {e}"))?;
    match gate(&fresh, &baseline, &(s.checks)()) {
        Ok(table) => {
            println!("{table}");
            println!("ci-check-bench: OK: {name} matches {baseline_path}");
            Ok(())
        }
        Err(report) => {
            println!("{report}");
            Err(format!("{name} gate failed (fresh run in {out})"))
        }
    }
}

/// Writes one report JSON per differential-matrix scenario into `dir`.
fn golden(dir: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{dir}`: {e}"))?;
    let matrix = differential_matrix();
    for s in &matrix {
        let out = simulate_fleet(&s.profile, &s.cluster, s.policy, &s.trace);
        let path = format!("{dir}/{}.json", s.name);
        let mut json = out.report.to_json();
        json.push('\n');
        std::fs::write(&path, json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    println!(
        "ci-check-bench: OK: wrote {} golden reports to {dir}",
        matrix.len()
    );
    Ok(())
}
