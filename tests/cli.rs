//! End-to-end checks of the `medusa-cli` binary.
//!
//! Each pinned invocation runs the built binary in its own scratch
//! directory, with relative paths so that nothing machine-specific reaches
//! stdout, and pins an FNV-1a digest of its stdout and of every file it
//! writes. A refactor of the CLI must leave every line unchanged.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// FNV-1a 64.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A fresh, empty scratch directory for one test.
fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("cli")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_medusa-cli"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn medusa-cli")
}

/// Runs a valid invocation and returns its pin line: the digest of its
/// stdout, then of each file in `writes`.
fn pin(dir: &Path, args: &[&str], writes: &[&str]) -> String {
    let out = run(dir, args);
    assert!(
        out.status.success(),
        "`medusa-cli {}` failed: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    let words: Vec<&str> = args
        .iter()
        .copied()
        .take_while(|a| !a.starts_with("--"))
        .collect();
    let mut line = format!("{} stdout={:016x}", words.join(" "), fnv1a(&out.stdout));
    for file in writes {
        let bytes = std::fs::read(dir.join(file)).expect("written file");
        line += &format!(" {file}={:016x}", fnv1a(&bytes));
    }
    line
}

/// The artifact round trip: materialize, validate, inspect, convert to
/// JSON and back, restore from the file, and pack it into a chunk store.
#[test]
fn artifact_commands_are_pinned() {
    let dir = workdir("artifact");
    #[rustfmt::skip]
    let steps: [(&[&str], &[&str]); 10] = [
        (&["models"], &[]),
        (&["materialize", "--model", "Qwen1.5-0.5B", "--seed", "3", "--out", "x.maf2"], &["x.maf2"]),
        (&["validate", "--artifact", "x.maf2"], &[]),
        (&["inspect", "--artifact", "x.maf2"], &[]),
        (&["convert", "--in", "x.maf2", "--out", "x.json"], &["x.json"]),
        (&["convert", "--in", "x.json", "--out", "y.maf2"], &["y.maf2"]),
        (&["coldstart", "--model", "Qwen1.5-0.5B", "--strategy", "medusa", "--artifact", "x.maf2",
           "--validate"], &[]),
        (&["registry", "pack", "--artifacts", "x.maf2", "--template", "F", "--variants", "2",
           "--out", "s.mcs"], &["s.mcs"]),
        (&["registry", "inspect", "--store", "s.mcs"], &[]),
        (&["registry", "dedup-stats", "--store", "s.mcs"], &[]),
    ];
    let lines = steps.map(|(args, writes)| pin(&dir, args, writes));
    assert_eq!(
        lines.join("\n"),
        [
            "models stdout=a472ce155a8ca3a9",
            "materialize stdout=6d655e630f79b259 x.maf2=e81ee6b30a3ef179",
            "validate stdout=69fdcc6a68d84e7c",
            "inspect stdout=2a096fd10cc33a99",
            "convert stdout=edf5d2f31b956ff5 x.json=a0d62b7327431ebd",
            "convert stdout=ec7fb5d9ef293364 y.maf2=e81ee6b30a3ef179",
            "coldstart stdout=2a5e6ac85364cd0e",
            "registry pack stdout=c93232bdef0bbe64 s.mcs=515b3d218e44a0b4",
            "registry inspect stdout=b1411f9af68f48a7",
            "registry dedup-stats stdout=ee0b86eecf1d1246",
        ]
        .join("\n")
    );
}

#[test]
fn coldstart_and_trace_are_pinned() {
    let dir = workdir("coldstart");
    #[rustfmt::skip]
    let lines = [
        pin(&dir, &["coldstart", "--model", "Qwen1.5-0.5B", "--strategy", "vllm", "--warm"], &[]),
        pin(&dir, &["trace", "--strategy", "vllm", "--format", "prom"], &[]),
    ];
    assert_eq!(
        lines.join("\n"),
        [
            "coldstart stdout=05e8abfc5a7a0a28",
            "trace stdout=4d60b486ebedf075",
        ]
        .join("\n")
    );
}

/// The CLI fleet `ci.sh` runs, under both registry modes.
#[test]
fn cli_fleet_is_pinned_in_both_registry_modes() {
    let dir = workdir("fleet");
    let lines = ["whole", "cas"].map(|mode| {
        let telemetry = format!("{mode}.prom");
        #[rustfmt::skip]
        let args = [
            "cluster", "--nodes", "8", "--rps", "4", "--duration", "20", "--models", "4",
            "--cache-cap", "2", "--faults", "flaky-registry,node-crash", "--scheduler", "locality",
            "--registry", mode, "--telemetry", &telemetry,
        ];
        pin(&dir, &args, &[&telemetry])
    });
    assert_eq!(
        lines.join("\n"),
        [
            "cluster stdout=ff61240b470e34d4 whole.prom=b350d7996fee997c",
            "cluster stdout=850cb7301c665463 cas.prom=636552f10fdf5e68",
        ]
        .join("\n")
    );
}

#[test]
fn pipeline_cluster_report_is_pinned() {
    let dir = workdir("pipeline");
    #[rustfmt::skip]
    let line = pin(
        &dir,
        &["cluster", "--scheduler", "pipeline", "--pipeline-k", "2", "--out", "r.json"],
        &["r.json"],
    );
    assert_eq!(
        line,
        "cluster stdout=87336d8fc11e8f2d r.json=dfdd4fc5f1866a0a"
    );
}

/// Every command and `registry` verb, as its usage names it.
const COMMANDS: [&str; 11] = [
    "models",
    "materialize",
    "coldstart",
    "inspect",
    "validate",
    "convert",
    "trace",
    "cluster",
    "registry pack",
    "registry inspect",
    "registry dedup-stats",
];

/// Runs `args` and asserts a usage error: exit 2, nothing on stdout, and
/// the usage of `command` on stderr.
fn assert_usage_error(dir: &Path, args: &[&str], command: &str) {
    let out = run(dir, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "`medusa-cli {}`: {stderr}",
        args.join(" ")
    );
    assert!(
        out.stdout.is_empty(),
        "`{}` printed to stdout",
        args.join(" ")
    );
    let row = format!("medusa-cli {command}");
    let shows_row = stderr.lines().any(|line| {
        let line = line.trim();
        line == row || line.starts_with(&format!("{row} "))
    });
    assert!(
        stderr.contains("usage") && shows_row,
        "`medusa-cli {}` did not print the usage of `{command}`: {stderr}",
        args.join(" ")
    );
}

#[test]
fn every_command_rejects_an_undeclared_flag() {
    let dir = workdir("undeclared");
    for command in COMMANDS {
        let mut args: Vec<&str> = command.split(' ').collect();
        args.extend(["--bogus", "1"]);
        assert_usage_error(&dir, &args, command);
    }
}

#[test]
fn malformed_invocations_are_usage_errors() {
    let dir = workdir("malformed");
    let q = "Qwen1.5-0.5B";
    let cases: [(&[&str], &str); 17] = [
        // A removed flag and a removed alias.
        (&["cluster", "--eval-interval", "1"], "cluster"),
        (&["cluster", "--policy", "least-loaded"], "cluster"),
        // A value given to a switch.
        (&["coldstart", "--model", q, "--warm", "false"], "coldstart"),
        // A value flag without its value.
        (&["cluster", "--scheduler"], "cluster"),
        // A flag given twice, and a stray argument.
        (&["cluster", "--seed", "1", "--seed", "2"], "cluster"),
        (&["materialize", "--model", q, "stray"], "materialize"),
        // A missing or unknown `registry` verb.
        (&["registry"], "registry pack"),
        (&["registry", "bogus"], "registry pack"),
        // A flag without the flag it applies under, or with one it
        // excludes.
        (&["cluster", "--prewarm-lead", "1"], "cluster"),
        (&["cluster", "--prewarm-percentile", "900"], "cluster"),
        (
            &[
                "cluster",
                "--prewarm",
                "windowed-rate",
                "--prewarm-percentile",
                "900",
            ],
            "cluster",
        ),
        (&["cluster", "--registry-store", "s.mcs"], "cluster"),
        (
            &[
                "cluster",
                "--registry",
                "whole",
                "--registry-store",
                "s.mcs",
            ],
            "cluster",
        ),
        (&["cluster", "--template"], "cluster"),
        (
            &[
                "cluster",
                "--registry",
                "cas",
                "--registry-store",
                "s.mcs",
                "--template",
            ],
            "cluster",
        ),
        (&["cluster", "--format", "prom"], "cluster"),
        // Two flags the usage offers as alternatives.
        (
            &[
                "cluster",
                "--nodes",
                "2",
                "--cache-cap",
                "1",
                "--cache-cap-bytes",
                "5",
            ],
            "cluster",
        ),
    ];
    for (args, command) in cases {
        assert_usage_error(&dir, args, command);
    }
}

/// A per-mille past 1000 is an error, not the clamp the estimator applies
/// to library callers.
#[test]
fn prewarm_percentile_past_1000_is_an_error() {
    let dir = workdir("percentile");
    let args = [
        "cluster",
        "--prewarm",
        "histogram",
        "--prewarm-percentile",
        "5000",
    ];
    let out = run(&dir, &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "printed to stdout");
    assert!(stderr.contains("from 0 to 1000"), "{stderr}");
}

/// A number that does not parse into its flag's type is an error, never
/// the default and never a truncation.
#[test]
fn bad_numbers_are_errors_not_defaults() {
    let dir = workdir("numbers");
    let q = "Qwen1.5-0.5B";
    let big = "4294967297";
    let cases: [&[&str]; 6] = [
        &["materialize", "--model", q, "--seed", "abc"],
        &["trace", "--faults", "corrupt", "--fault-seed", "abc"],
        &["cluster", "--tp", big],
        &["cluster", "--models", big],
        &["cluster", "--cache-cap", big],
        &["cluster", "--pipeline-k", big],
    ];
    for args in cases {
        let out = run(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "`medusa-cli {}`: {stderr}",
            args.join(" ")
        );
        assert!(
            out.stdout.is_empty(),
            "`{}` printed to stdout",
            args.join(" ")
        );
        assert!(stderr.contains("wants an integer"), "{stderr}");
    }
}
