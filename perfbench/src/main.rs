//! Host-time and simulated-time benchmark of the Medusa reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload coldstart --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads (each builds its inputs from `--seed`):
//!
//! * `coldstart` — closed loop, one client, one operation at a time over a
//!   3/8 Qwen1.5-0.5B tp=1, 3/8 Llama2-7B tp=1, 1/4 Qwen1.5-0.5B tp=2 mix.
//!   Four operations in five restore the target's latest MAF2 bytes with
//!   `ColdStart::run`; the fifth re-materializes it (`ColdStart::materialize`,
//!   `to_maf2`, `ChunkStore::pack`). Drives gpu, graph, model, kvcache and
//!   core; no serving.
//! * `fleet_scale` — one tenant on 1000 pre-seeded nodes, Poisson arrivals:
//!   routing and the event queue.
//! * `fleet_tenants` — fewer nodes than Zipf tenants, bursty arrivals,
//!   bounded caches, a content-addressed registry with faults, locality
//!   routing with prewarm: the multi-tenant drain, cache and registry.
//!
//! `--trace 0` prints the end-to-end metrics, each defined on every
//! workload:
//!
//! * `setup_s` — median of [`SETUP_REPEATS`] set-ups (artifacts, profile,
//!   family store, traces).
//! * `host_ms_p50` — median host time of one operation: a `ColdStart::run`
//!   restore, or a `simulate_fleet` pass (median per trace, then across
//!   traces).
//! * `req_per_s` — operations per host second on `coldstart`, trace
//!   requests per `simulate_fleet` second on the fleets.
//! * `sim_ttft_ms_mean`, `sim_ttft_ms_p99`, `slo_attained_pct` — simulated
//!   time to first token of the restoring requests (loading plus the first
//!   prefill) or of the fleet's requests, and the share within the fleet's
//!   TTFT SLO.
//! * `ok_pct` — share of operations that neither errored, fell back nor
//!   failed a correctness check; `peak_rss_mb` — VmHWM of the process.
//!
//! Host times are scaled by [`calibrate`], see there. `--trace 1` runs the
//! same workload with the benchmark's own spans around each call into the
//! program, prints the per-layer metrics and writes the spans to
//! `perfbench/out/<workload>-seed<seed>.trace.json`. The last line of
//! standard output is always the JSON result.

mod coldstart;
mod fleet;
mod spans;

use spans::Recorder;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Set-up runs this many times per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// End-to-end metrics, printed on every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("host_ms_p50", "ms"),
    ("req_per_s", "1/s"),
    ("sim_ttft_ms_mean", "ms"),
    ("sim_ttft_ms_p99", "ms"),
    ("slo_attained_pct", "%"),
    ("ok_pct", "%"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed on every workload with `--trace 1`; a layer a
/// workload never calls reads 0.
const PER_LAYER: [(&str, &str); 51] = [
    ("model.structure_init_ms", "ms"),
    ("core.replay_ms", "ms"),
    ("kvcache.restore_ms", "ms"),
    ("model.weights_ms", "ms"),
    ("model.tokenizer_load_ms", "ms"),
    ("core.kernel_resolve_ms", "ms"),
    ("core.kernels_via_enumeration", "count"),
    ("model.first_layer_trigger_ms", "ms"),
    ("core.graph_restore_ms", "ms"),
    ("graph.instantiate_ms", "ms"),
    ("model.first_token_ms", "ms"),
    ("artifact.maf2_open_validate_ms", "ms"),
    ("artifact.shard_decode_ms", "ms"),
    ("artifact.bytes_read_pct", "%"),
    ("core.offline_capture_ms", "ms"),
    ("core.offline_analyze_ms", "ms"),
    ("artifact.maf2_encode_ms", "ms"),
    ("artifact.cdc_pack_ms", "ms"),
    ("artifact.store_seal_ms", "ms"),
    ("artifact.store_dedup_ratio", "ratio"),
    ("gpu.allocations", "count"),
    ("gpu.alloc_reuse_pct", "%"),
    ("gpu.device_peak_pct", "%"),
    ("sim.stage.kv_cache_init_ms", "ms"),
    ("sim.stage.weights_ms", "ms"),
    ("sim.stage.tokenizer_ms", "ms"),
    ("sim.stage.restore_ms", "ms"),
    ("sim.loading_s_mean", "s"),
    ("coldstart.host_ms_p90", "ms"),
    ("coldstart.materialize_ms_p50", "ms"),
    ("serving.events", "count"),
    ("serving.events_cancelled", "count"),
    ("serving.ns_per_event", "ns"),
    ("serving.busy_pct", "%"),
    ("serving.cold_starts", "count"),
    ("serving.scale_to_zero", "count"),
    ("serving.cache_hit_pct", "%"),
    ("serving.evictions", "count"),
    ("serving.chunk_hit_pct", "%"),
    ("serving.registry_mb_fetched", "MiB"),
    ("serving.fetch_retries", "count"),
    ("serving.degraded_cold_starts", "count"),
    ("serving.prewarm_issued", "count"),
    ("serving.prewarm_used_pct", "%"),
    ("workload.generate_ms", "ms"),
    ("serving.profile_measure_ms", "ms"),
    ("telemetry.overhead_pct", "%"),
    ("telemetry.export_ms", "ms"),
    ("telemetry.prom_lines", "count"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// What one timed workload run produced.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (cold starts and materializations, or fleet
    /// passes).
    pub attempted: u64,
    /// Operations that errored, fell back or failed a correctness check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Metric values by name (units come from the tables above).
    pub metrics: BTreeMap<String, f64>,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
    /// Calibration times taken between operations, ms.
    pub calibration_ms: Vec<f64>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Counts one failed operation with the reasons it failed.
    pub fn fail(&mut self, reasons: Vec<String>) {
        if !reasons.is_empty() {
            self.failed += 1;
            self.failures.extend(reasons);
        }
    }
}

/// splitmix64: the benchmark's seeded input generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Calibration time of an idle host of the kind the bounds were set on, ms.
const CAL_REF_MS: f64 = 5.0;

/// A fixed CPU- and cache-bound task (sorting 2^18 seeded integers),
/// timed between operations. The host is shared, and over minutes its
/// speed drifts by tens of percent; host-time metrics are therefore scaled
/// by `CAL_REF_MS / median(calibration)` of their own run, so that they
/// read as if measured on the reference host.
pub fn calibrate(samples: &mut Vec<f64>) {
    let mut rng = Rng::new(0xca1);
    let mut v: Vec<u64> = (0..1 << 18).map(|_| rng.next_u64()).collect();
    let t0 = Instant::now();
    v.sort_unstable();
    std::hint::black_box(&v);
    samples.push(ms(t0.elapsed()));
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.as_str(), v.as_str());
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let num = |k: &str| get(k).and_then(|v| v.parse::<u64>().map_err(|e| format!("{k} {v}: {e}")));
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace,
    })
}

/// Peak resident set of this process (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's commit, read from `.git` without leaving the checkout;
/// `unknown` outside a git repository.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Runs the workload's set-up [`SETUP_REPEATS`] times and returns the last
/// state with the median set-up time in seconds.
fn set_up<S>(
    cal: &mut Vec<f64>,
    mut setup: impl FnMut(u64) -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut times = Vec::new();
    let mut state = None;
    for repeat in 0..SETUP_REPEATS as u64 {
        let t0 = Instant::now();
        state = Some(setup(repeat)?);
        times.push(t0.elapsed().as_secs_f64());
        calibrate(cal);
    }
    Ok((state.expect("at least one set-up"), median(&times)))
}

fn run(args: &Args, rec: Option<&Recorder>) -> Result<(Report, f64), String> {
    let secs = args.seconds;
    let mut cal = Vec::new();
    let (mut report, setup_s) = match args.workload.as_str() {
        "coldstart" => {
            let (mut st, setup) = set_up(&mut cal, |_| coldstart::setup(args.seed))?;
            (coldstart::run(&mut st, secs, rec), setup)
        }
        "fleet_scale" | "fleet_tenants" => {
            let shape = if args.workload == "fleet_scale" {
                fleet::Shape::Scale
            } else {
                fleet::Shape::Tenants
            };
            let (st, setup) = set_up(&mut cal, |repeat| {
                fleet::setup(shape, args.seed, rec, repeat)
            })?;
            (fleet::run(&st, secs, rec), setup)
        }
        w => {
            return Err(format!(
                "unknown workload {w} (coldstart, fleet_scale, fleet_tenants)"
            ))
        }
    };
    report.calibration_ms.extend(cal);
    Ok((report, setup_s))
}

fn json_metrics(values: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        git_commit()
    );
    let rec = args.trace.then(Recorder::new);
    let (mut report, setup_s) = match run(&args, rec.as_ref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cal = median(&report.calibration_ms);
    let speed = CAL_REF_MS / cal;
    report.notes.push(format!(
        "calibration {cal:.4} ms (x{speed:.4}); raw setup_s {setup_s:.4}, host_ms_p50 {:.4}, req_per_s {:.4}",
        report.metrics["host_ms_p50"], report.metrics["req_per_s"]
    ));
    report.set("setup_s", setup_s * speed);
    report.set("host_ms_p50", report.metrics["host_ms_p50"] * speed);
    report.set("req_per_s", report.metrics["req_per_s"] / speed);
    report.set("peak_rss_mb", peak_rss_mb());
    let ok = report.attempted.saturating_sub(report.failed);
    report.set("ok_pct", 100.0 * ok as f64 / report.attempted.max(1) as f64);
    for f in &report.failures {
        println!("# check failed: {f}");
    }
    for n in &report.notes {
        println!("# {n}");
    }
    if let Some(rec) = rec {
        let spans = rec.snapshot();
        for (layer, ns) in spans::by_layer(&spans) {
            println!("# self time {layer:<10} {:>12.3} ms", ns as f64 / 1e6);
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans::chrome_json(&spans)));
        match written {
            Ok(()) => println!("# spans: {} written to {}", spans.len(), path.display()),
            Err(e) => report.fail(vec![format!("writing {}: {e}", path.display())]),
        }
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let values: Vec<(&str, f64, &str)> = table
        .iter()
        .map(|&(name, unit)| {
            let v = report.metrics.get(name).copied().unwrap_or(0.0);
            (name, if v.is_finite() { v } else { 0.0 }, unit)
        })
        .collect();
    for (name, v, unit) in &values {
        println!("{name:<32} {v:>16.4} {unit}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        json_metrics(&values)
    );
    ExitCode::SUCCESS
}
