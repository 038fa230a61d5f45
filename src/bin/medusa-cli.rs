//! `medusa-cli` — operate the Medusa reproduction from the command line.
//!
//! Run without arguments it prints every command's usage, rendered from
//! [`COMMANDS`], the one table where each command declares its flags. An
//! invocation its row does not admit, or that gives a flag without the
//! flag it applies under ([`NEEDS`]), is a usage error (exit 2, the
//! command's usage on stderr, nothing on stdout); a run that fails exits 1.
//!
//! `cluster` scales to large fleets: `--nodes 1000 --rps 10000 --workload
//! interactive --cached 1000` replays a million requests through the
//! event core in wall-clock seconds, and fleets beyond 16 nodes print an
//! aggregate node summary plus the busiest workers instead of the full
//! per-node table (`--all-nodes` forces the table). Multi-tenant fleets
//! come from `--models N --zipf S` (Zipf-skewed synthetic traffic over N
//! models) or `--trace-file` (an Azure-Functions-style per-model
//! invocation CSV, see `medusa_workload::InvocationTrace`); bound each
//! node's artifact cache with `--cache-cap`/`--cache-cap-bytes` and pick
//! the victim order with `--eviction`. Multi-tenant reports append a
//! per-tenant TTFT/SLO table and fleet-wide cache counters.
//!
//! Predictive scheduling is opt-in: `--scheduler locality` routes by
//! estimated start cost (warm queue drain vs cache-hit restore vs
//! registry fetch), `--prewarm histogram|windowed-rate` arms the
//! arrival-history estimator that starts nodes ahead of forecast bursts
//! (`--prewarm-lead` tunes how early; `--prewarm-percentile` picks the
//! histogram percentile, per-mille — high values target the inter-burst
//! gap), and `--scheduler pipeline`
//! (optionally `--pipeline-k N`) shards each cold start across up to `k`
//! nodes pipeline-parallel. `--arrivals-out` exports the trace's
//! per-model arrival history as CSV for offline estimator studies.
//!
//! `registry pack` chunks MAF2 artifacts content-defined (Gear CDC with
//! boundaries forced at section seams), deduplicates the chunks across
//! every packed artifact, and — with `--template FAMILY` — factors the
//! chunks shared by every member into a family template manifest.
//! `--variants N` additionally derives N deterministic fine-tune
//! siblings from each input capture (same family skeleton, per-variant
//! weight deltas) and packs them too — the regime where chunk dedup
//! actually pays, since independent captures share almost nothing. The
//! resulting `.mcs` store file feeds `cluster --registry cas
//! --registry-store FILE`, which replays the fleet with chunk-level
//! residency: cache-miss fetches move only the chunks the node lacks, and
//! the report grows registry byte/chunk-hit counters. Without a store,
//! `--registry cas` synthesizes a per-model pseudo-chunk catalog
//! (`--template` adds a family-shared block every model references), so
//! multi-tenant dedup effects are observable on purely synthetic runs.
//!
//! Artifacts travel in two encodings: the MAF2 binary container (magic
//! `MAF2\r\n\x1a\n`, validated in O(header), see DESIGN.md §13) and the
//! JSON debug encoding. Every subcommand that reads an `--artifact` file
//! auto-detects the format by magic bytes; `materialize --out FILE.maf2`
//! writes the binary container directly, and `convert` translates between
//! the two (`--rank N` picks one shard out of a multi-shard bundle when
//! lowering to JSON).
//!
//! Every number the CLI prints derives from the simulated clock, so any
//! subcommand re-run with the same flags produces byte-identical output —
//! including the `cluster` report, its telemetry exports, and any
//! fault-injected (`--faults`) run.

use medusa::{
    is_maf2, materialize_offline, ArtifactTemplate, ArtifactValidator, ChunkStore, ColdStart,
    FaultPlan, Maf2Reader, MaterializedState, Parallelism, Strategy, TriggeringMode,
};
use medusa_gpu::{CostModel, GpuSpec};
use medusa_model::ModelSpec;
use medusa_serving::{
    simulate_fleet_traced, CacheCapacity, CacheConfig, ClusterFaults, ClusterSpec, EvictionPolicy,
    FetchUnit, FleetProfile, ModelManifest, Policy, PrewarmConfig, PrewarmPolicy, RegistryCatalog,
    RegistryMode,
};
use medusa_workload::{
    ArrivalHistory, ArrivalPattern, InvocationTrace, LengthSampler, ModelMix, TraceConfig,
};
use std::process::exit;

/// A command row: the words that select it, its usage lines, and the
/// function that runs it.
type Row = (
    &'static str,
    &'static [&'static str],
    fn(&Flags) -> Result<(), String>,
);

/// Every command and `registry` verb. A row's usage is also its flag
/// table: each `--flag` it names is accepted, and takes a value when a
/// metavar follows it (`--out FILE`); one closed by its bracket
/// (`[--warm]`) is a switch.
#[rustfmt::skip]
const COMMANDS: &[Row] = &[
    ("models", &[], models),
    ("materialize", &["--model <name> [--out FILE[.maf2]] [--seed N]"], materialize),
    ("coldstart", &[
        "--model <name> [--strategy <vllm|async|medusa|nograph>]",
        "[--artifact FILE] [--validate] [--warm]",
        "[--triggering <first-layer|handwritten>] [--seed N]",
        "[--faults corrupt,version-skew,missing-library,...|all] [--fault-seed N]",
    ], coldstart),
    ("inspect", &["--artifact FILE"], inspect),
    ("validate", &["--artifact FILE [--model <name>]  (JSON or MAF2, auto-detected)"], validate),
    ("convert", &["--in FILE --out FILE [--rank N]  (JSON <-> MAF2 by magic bytes)"], convert),
    ("trace", &[
        "[--model <name>] [--strategy <vllm|async|medusa|nograph>]",
        "[--format <chrome|prom>] [--artifact FILE] [--seed N] [--out FILE]",
        "[--faults corrupt,version-skew,missing-library,...|all] [--fault-seed N]",
    ], trace),
    ("cluster", &[
        "[--nodes N] [--seed N] [--model <name>] [--tp N]",
        "[--scheduler <round-robin|least-loaded|coldstart-aware|locality|pipeline>]",
        "[--prewarm <histogram|windowed-rate>] [--prewarm-lead F]",
        "[--prewarm-percentile PM] [--pipeline-k N] [--arrivals-out FILE]",
        "[--strategy <vllm|async|medusa|nograph>]",
        "[--parallelism <serial|overlapped|pipelined-tp>]",
        "[--rps F] [--duration F] [--pattern <poisson|bursty|mmpp|diurnal>]",
        "[--workload <sharegpt|interactive>] [--all-nodes]",
        "[--models N] [--zipf S] [--trace-file FILE]",
        "[--cache-cap N | --cache-cap-bytes N] [--eviction <lru|lfu|cost-aware>]",
        "[--cached K] [--keep-alive F] [--queue-depth N]",
        "[--registry <whole|cas>] [--registry-store FILE] [--template]",
        "[--faults <flaky-registry,node-crash>] [--fault-seed N]",
        "[--format <chrome|prom>] [--out FILE] [--telemetry FILE]",
    ], cluster),
    ("registry pack", &[
        "--artifacts a.maf2,b.maf2[,...] [--template FAMILY]",
        "[--variants N] [--out store.mcs]",
    ], registry_pack),
    ("registry inspect", &["--store store.mcs"], |flags| registry_inspect(flags, true)),
    ("registry dedup-stats", &["--store store.mcs"], |flags| registry_inspect(flags, false)),
];

/// Flags that apply only under another, as `(command, flag, needs)`:
/// `needs` is `--name` (given), `--name value` (given with that value) or
/// `!--name` (not given). A flag given without what it needs is a usage
/// error.
#[rustfmt::skip]
const NEEDS: &[(&str, &str, &str)] = &[
    ("cluster", "prewarm-lead", "--prewarm"),
    ("cluster", "prewarm-percentile", "--prewarm histogram"),
    ("cluster", "registry-store", "--registry cas"),
    ("cluster", "template", "--registry cas"),
    ("cluster", "template", "!--registry-store"),
    ("cluster", "format", "--telemetry"),
    ("cluster", "cache-cap-bytes", "!--cache-cap"),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selects = |name: &str| {
        name.split(' ')
            .enumerate()
            .all(|(i, word)| args.get(i).is_some_and(|a| a == word))
    };
    let Some(row) = COMMANDS.iter().find(|(name, ..)| selects(name)) else {
        // A command word that needs a verb (`registry`) shows its verbs'
        // rows; anything else shows every row.
        let first = args.first().map_or("", String::as_str);
        let group: Vec<&Row> = COMMANDS
            .iter()
            .filter(|(name, ..)| name.split(' ').next() == Some(first))
            .collect();
        match (args.get(1), group.is_empty()) {
            _ if args.is_empty() => {}
            (_, true) => eprintln!("error: unknown command `{first}`"),
            (None, false) => eprintln!("error: `{first}` wants a verb"),
            (Some(verb), false) => eprintln!("error: unknown {first} verb `{verb}`"),
        }
        usage(if group.is_empty() {
            COMMANDS.iter().collect()
        } else {
            group
        });
        exit(2);
    };
    let (name, lines, run) = row;
    let flags = Flags::parse(name, lines, &args[name.split(' ').count()..]).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage([row]);
        exit(2);
    });
    if let Err(e) = run(&flags) {
        eprintln!("error: {e}");
        exit(1);
    }
}

/// Prints the usage of `rows` to stderr.
fn usage<'a>(rows: impl IntoIterator<Item = &'a Row>) {
    eprintln!("usage:");
    for (name, lines, _) in rows {
        let first = format!("  medusa-cli {name} {}", lines.first().unwrap_or(&""));
        eprintln!("{}", first.trim_end());
        for line in lines.iter().skip(1) {
            eprintln!("      {line}");
        }
    }
}

/// The flags a row's usage declares, each with whether it takes a value.
fn declared(lines: &'static [&'static str]) -> impl Iterator<Item = (&'static str, bool)> {
    let mut words = lines.iter().flat_map(|l| l.split_whitespace()).peekable();
    std::iter::from_fn(move || loop {
        let Some(flag) = words.next()?.trim_start_matches('[').strip_prefix("--") else {
            continue;
        };
        return Some(match flag.strip_suffix(']') {
            Some(switch) => (switch, false),
            None => (
                flag,
                words.next_if(|w| !w.starts_with(['[', '-', '|'])).is_some(),
            ),
        });
    })
}

/// A number type a flag parses into, and how an error names it.
trait Num: std::str::FromStr {
    const WHAT: &'static str;
}
macro_rules! num {
    ($($t:ty => $what:literal),*) => { $(impl Num for $t { const WHAT: &'static str = $what; })* };
}
num!(u32 => "an integer", u64 => "an integer", usize => "an integer", f64 => "a number");

/// One invocation's flags, parsed against its row's usage.
struct Flags {
    declared: &'static [&'static str],
    given: Vec<(&'static str, Option<String>)>,
}

impl Flags {
    /// Parses `args` against the usage lines of `command`'s row and its
    /// [`NEEDS`]; an error is a usage error.
    fn parse(
        command: &str,
        lines: &'static [&'static str],
        args: &[String],
    ) -> Result<Flags, String> {
        let mut given: Vec<(&'static str, Option<String>)> = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(match given.last() {
                    Some((switch, None)) => format!("--{switch} takes no value, got `{arg}`"),
                    _ => format!("unexpected argument `{arg}`"),
                });
            };
            let (name, takes_value) = declared(lines)
                .find(|&(name, _)| name == key)
                .ok_or_else(|| format!("unknown flag `{arg}`"))?;
            if given.iter().any(|&(n, _)| n == name) {
                return Err(format!("--{name} given twice"));
            }
            let value = if takes_value {
                let value = args.next().filter(|v| !v.starts_with("--"));
                Some(
                    value
                        .ok_or_else(|| format!("--{name} wants a value"))?
                        .clone(),
                )
            } else {
                None
            };
            given.push((name, value));
        }
        let flags = Flags {
            declared: lines,
            given,
        };
        for &(_, flag, needs) in NEEDS.iter().filter(|&&(c, ..)| c == command) {
            let (absent, cond) = match needs.strip_prefix('!') {
                Some(cond) => (true, cond),
                None => (false, needs),
            };
            let (name, value) = match cond[2..].split_once(' ') {
                Some((name, value)) => (name, Some(value)),
                None => (&cond[2..], None),
            };
            let met = flags
                .given
                .iter()
                .any(|(n, v)| *n == name && value.is_none_or(|want| v.as_deref() == Some(want)));
            if flags.given.iter().any(|&(n, _)| n == flag) && met == absent {
                return Err(if absent {
                    format!("--{flag} cannot be given with {cond}")
                } else {
                    format!("--{flag} applies only with {cond}")
                });
            }
        }
        Ok(flags)
    }

    fn lookup(&self, name: &str, takes_value: bool) -> Option<&Option<String>> {
        debug_assert!(
            declared(self.declared).any(|flag| flag == (name, takes_value)),
            "--{name} is read but not declared as a {} in its row",
            if takes_value { "value flag" } else { "switch" }
        );
        self.given.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// The value of `--name`, if given.
    fn get(&self, name: &str) -> Option<&str> {
        self.lookup(name, true).and_then(Option::as_deref)
    }

    /// Whether the switch `--name` was given.
    fn has(&self, name: &str) -> bool {
        self.lookup(name, false).is_some()
    }

    /// `--name` parsed as a `T`, if given.
    fn opt_num<T: Num>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} wants {}, got `{v}`", T::WHAT))
            })
            .transpose()
    }

    /// `--name` parsed as a `T`, or `default` when absent.
    fn num<T: Num>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.opt_num(name)?.unwrap_or(default))
    }

    /// The catalog model `--model` names, or `default` when absent; no
    /// default makes `--model` required.
    fn model(&self, default: Option<&str>) -> Result<ModelSpec, String> {
        let name = self.get("model").or(default).ok_or("--model is required")?;
        ModelSpec::by_name(name)
            .ok_or_else(|| format!("unknown model `{name}` (see `medusa-cli models`)"))
    }

    /// `--strategy`, or `default` when absent.
    fn strategy(&self, default: Strategy) -> Result<Strategy, String> {
        match self.get("strategy") {
            None => Ok(default),
            Some("vllm") => Ok(Strategy::Vanilla),
            Some("async") => Ok(Strategy::VanillaAsync),
            Some("medusa") => Ok(Strategy::Medusa),
            Some("nograph") => Ok(Strategy::NoCudaGraph),
            Some(other) => Err(format!("unknown strategy `{other}`")),
        }
    }

    /// `--faults <spec>` with its `--fault-seed N` (default 1), if given.
    fn faults(&self) -> Result<Option<(&str, u64)>, String> {
        let seed = self.num("fault-seed", 1)?;
        Ok(self.get("faults").map(|spec| (spec, seed)))
    }
}

fn models(_: &Flags) -> Result<(), String> {
    println!(
        "{:<14} {:>7} {:>8} {:>7} {:>9} {:>10} {:>13}",
        "model", "layers", "hidden", "heads", "vocab", "params", "table1 nodes"
    );
    for m in ModelSpec::catalog() {
        println!(
            "{:<14} {:>7} {:>8} {:>7} {:>9} {:>8.1}GB {:>13}",
            m.name(),
            m.layers(),
            m.hidden(),
            m.heads(),
            m.vocab(),
            m.param_bytes() as f64 / (1u64 << 30) as f64,
            m.table1_nodes()
        );
    }
    Ok(())
}

fn materialize(flags: &Flags) -> Result<(), String> {
    let spec = flags.model(None)?;
    let seed = flags.num("seed", 1)?;
    let (artifact, report) =
        materialize_offline(&spec, GpuSpec::a100_40gb(), CostModel::default(), seed)
            .map_err(|e| e.to_string())?;
    println!(
        "offline phase: capturing {:.1}s + analysis {:.1}s = {:.1}s (simulated)",
        report.capture.as_secs_f64(),
        report.analysis.as_secs_f64(),
        report.total().as_secs_f64()
    );
    println!(
        "materialized {} graphs / {} nodes / {} replay ops",
        artifact.graphs.len(),
        artifact.total_nodes(),
        artifact.replay_ops.len()
    );
    if let Some(path) = flags.get("out") {
        let (encoded, label) = if path.ends_with(".maf2") {
            (artifact.to_maf2().map_err(|e| e.to_string())?, "MAF2")
        } else {
            (
                artifact.to_json().map_err(|e| e.to_string())?.into_bytes(),
                "JSON",
            )
        };
        std::fs::write(path, &encoded).map_err(|e| e.to_string())?;
        println!(
            "wrote {} ({:.1} KiB {label})",
            path,
            encoded.len() as f64 / 1024.0
        );
    }
    Ok(())
}

/// Reads an artifact file in either encoding, told apart by magic bytes:
/// a MAF2 container comes back as its bytes alone, the JSON debug
/// encoding as its bytes and the parsed state.
fn read_artifact(path: &str) -> Result<(Vec<u8>, Option<MaterializedState>), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    if is_maf2(&bytes) {
        return Ok((bytes, None));
    }
    let json = std::str::from_utf8(&bytes)
        .map_err(|_| format!("`{path}` is neither MAF2 (no magic) nor UTF-8 JSON"))?;
    let state = MaterializedState::from_json(json).map_err(|e| e.to_string())?;
    Ok((bytes, Some(state)))
}

/// The artifact `--artifact` names, if given. A MAF2 file must hold
/// exactly one shard — `convert --rank` extracts one from a bundle.
fn load_artifact(flags: &Flags) -> Result<Option<MaterializedState>, String> {
    let Some(path) = flags.get("artifact") else {
        return Ok(None);
    };
    match read_artifact(path)? {
        (bytes, None) => MaterializedState::from_maf2(&bytes)
            .map(Some)
            .map_err(|e| e.to_string()),
        (_, json) => Ok(json),
    }
}

/// The per-instance [`FaultPlan`] of `--faults`; none when absent.
fn fault_plan(flags: &Flags) -> Result<Option<FaultPlan>, String> {
    let Some((spec, seed)) = flags.faults()? else {
        return Ok(None);
    };
    FaultPlan::parse(spec, seed).map(Some).map_err(|t| {
        format!("unknown fault `{t}` (corrupt|version-skew|missing-library|truncated-weights|abort|all)")
    })
}

/// Renders a telemetry snapshot as Chrome trace JSON or Prometheus text.
fn render(snap: &medusa_telemetry::Snapshot, format: &str) -> Result<String, String> {
    match format {
        "chrome" => Ok(medusa_telemetry::export::chrome::render(snap)),
        "prom" => Ok(medusa_telemetry::export::prometheus::render(snap)),
        other => Err(format!("unknown format `{other}` (chrome|prom)")),
    }
}

fn coldstart(flags: &Flags) -> Result<(), String> {
    let spec = flags.model(None)?;
    let strategy = flags.strategy(Strategy::Vanilla)?;
    let triggering = match flags.get("triggering") {
        Some("handwritten") => TriggeringMode::Handwritten,
        Some("first-layer") | None => TriggeringMode::FirstLayer,
        Some(other) => return Err(format!("unknown triggering mode `{other}`")),
    };
    let artifact = load_artifact(flags)?;
    let mut builder = ColdStart::new(&spec)
        .strategy(strategy)
        .seed(flags.num("seed", 1)?)
        .warm(flags.has("warm"))
        .validate_graphs(flags.has("validate"))
        .triggering(triggering);
    if let Some(a) = &artifact {
        builder = builder.artifact(a);
    }
    if let Some(plan) = fault_plan(flags)? {
        builder = builder.faults(plan);
    }
    let outcome = builder.run().map_err(|e| e.to_string())?;
    if let Some(fb) = outcome.fallback() {
        println!(
            "degraded {} -> vanilla ({}): {}",
            fb.from, fb.reason, fb.detail
        );
    }
    let report = outcome.report();
    println!(
        "{} cold start of {} (simulated):",
        report.strategy, report.model
    );
    for span in &report.spans {
        println!(
            "  {:<16} [{:>8.3} .. {:>8.3}]  {:>8.3}s",
            span.stage.to_string(),
            span.start.as_secs_f64(),
            span.end.as_secs_f64(),
            span.duration().as_secs_f64()
        );
    }
    println!(
        "loading {:.3}s, total {:.3}s",
        report.loading.as_secs_f64(),
        report.total.as_secs_f64()
    );
    Ok(())
}

fn trace(flags: &Flags) -> Result<(), String> {
    let spec = flags.model(Some("Qwen1.5-0.5B"))?;
    let strategy = flags.strategy(Strategy::Vanilla)?;
    let seed = flags.num("seed", 1)?;
    let plan = fault_plan(flags)?;
    let mut artifact = load_artifact(flags)?;
    if strategy == Strategy::Medusa && artifact.is_none() {
        // Medusa needs a materialized artifact; build one inline so the
        // command works standalone on any catalog model.
        let (art, _) = materialize_offline(&spec, GpuSpec::a100_40gb(), CostModel::default(), seed)
            .map_err(|e| e.to_string())?;
        artifact = Some(art);
    }
    let tele = medusa_telemetry::Registry::new();
    let mut builder = ColdStart::new(&spec)
        .strategy(strategy)
        .seed(seed)
        .telemetry(&tele);
    if let Some(a) = &artifact {
        builder = builder.artifact(a);
    }
    if let Some(plan) = plan {
        builder = builder.faults(plan);
    }
    let outcome = builder.run().map_err(|e| e.to_string())?;
    if let Some(fb) = outcome.fallback() {
        eprintln!(
            "degraded {} -> vanilla ({}): {}",
            fb.from, fb.reason, fb.detail
        );
    }
    let report = outcome.report().clone();
    let snap = tele.snapshot();
    let rendered = render(&snap, flags.get("format").unwrap_or("chrome"))?;
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| e.to_string())?;
            eprintln!(
                "wrote {path}: {} spans from a {} cold start of {} ({:.3}s simulated)",
                snap.spans.len(),
                report.strategy,
                report.model,
                report.total.as_secs_f64()
            );
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

fn cluster(flags: &Flags) -> Result<(), String> {
    let spec = flags.model(Some("Qwen1.5-0.5B"))?;
    let strategy = flags.strategy(Strategy::Medusa)?;
    let policy = match flags.get("scheduler") {
        None => Policy::ColdStartAware,
        Some(s) => Policy::parse(s).ok_or_else(|| {
            format!(
                "unknown scheduler `{s}` \
                 (round-robin|least-loaded|coldstart-aware|locality|pipeline)"
            )
        })?,
    };
    let lead_s = flags.num("prewarm-lead", PrewarmConfig::default().lead_s)?;
    let prewarm_percentile = flags.opt_num("prewarm-percentile")?;
    if let Some(pm @ 1001..) = prewarm_percentile {
        return Err(format!(
            "--prewarm-percentile wants a per-mille from 0 to 1000, got `{pm}`"
        ));
    }
    let prewarm = match flags.get("prewarm") {
        None => None,
        Some(s) => {
            let mut policy = PrewarmPolicy::parse(s)
                .ok_or_else(|| format!("unknown prewarm policy `{s}` (histogram|windowed-rate)"))?;
            if let (PrewarmPolicy::Histogram { percentile_pm }, Some(pm)) =
                (&mut policy, prewarm_percentile)
            {
                *percentile_pm = pm;
            }
            Some(PrewarmConfig { policy, lead_s })
        }
    };
    let seed = flags.num("seed", 1)?;
    let nodes = flags.num("nodes", 4)?;
    let tp = flags.num("tp", 1)?;
    let cached = flags.num("cached", 0)?;
    let rps = flags.num("rps", 8.0)?;
    let duration = flags.num("duration", 60.0)?;
    let keep_alive = flags.num("keep-alive", 60.0)?;
    let queue_depth = flags.num("queue-depth", 4)?;
    let pipeline_k = flags.num("pipeline-k", 0)?;
    let pattern = match flags.get("pattern") {
        Some("poisson") => ArrivalPattern::Poisson,
        Some("bursty") | None => ArrivalPattern::sharegpt_bursty(),
        Some("mmpp") => ArrivalPattern::serverless_mmpp(),
        Some("diurnal") => ArrivalPattern::compressed_diurnal(),
        Some(other) => {
            return Err(format!(
                "unknown pattern `{other}` (poisson|bursty|mmpp|diurnal)"
            ))
        }
    };
    let parallelism = match flags.get("parallelism") {
        Some("serial") => Parallelism::Serial,
        Some("overlapped") | None => Parallelism::Overlapped,
        Some("pipelined-tp") => Parallelism::PipelinedTp,
        Some(other) => return Err(format!("unknown parallelism `{other}`")),
    };

    let models = flags.num("models", 1)?;
    let zipf_s = flags.num("zipf", 1.0)?;
    let cache_cap = flags.num("cache-cap", 0)?;
    let cache_bytes = flags.num("cache-cap-bytes", 0)?;
    let eviction = match flags.get("eviction") {
        None => EvictionPolicy::Lru,
        Some(s) => EvictionPolicy::parse(s)
            .ok_or_else(|| format!("unknown eviction policy `{s}` (lru|lfu|cost-aware)"))?,
    };
    // At most one of the two is given (`NEEDS`).
    let cache_capacity = match (cache_cap, cache_bytes) {
        (0, 0) => CacheCapacity::Unlimited,
        (0, b) => CacheCapacity::Bytes(b),
        (n, _) => CacheCapacity::Artifacts(n),
    };
    let faults = match flags.faults()? {
        None => ClusterFaults::default(),
        Some((spec, seed)) => {
            let mut f = ClusterFaults {
                seed,
                ..Default::default()
            };
            for token in spec.split(',').filter(|t| !t.is_empty()) {
                match token {
                    "flaky-registry" => f.registry_fail_per_mille = 300,
                    "node-crash" => f.node_crash_per_mille = 50,
                    other => {
                        return Err(format!(
                            "unknown cluster fault `{other}` (flaky-registry|node-crash)"
                        ))
                    }
                }
            }
            f
        }
    };

    // The request stream comes first: an imported invocation table fixes
    // the tenant count, which in turn scales the fleet cost profile.
    let (trace, models) = match flags.get("trace-file") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read --trace-file `{path}`: {e}"))?;
            let inv = InvocationTrace::parse_csv(&text)
                .map_err(|e| format!("bad --trace-file `{path}`: {e}"))?;
            let trace = inv.generate(
                seed,
                &LengthSampler::sharegpt_prompt(),
                &LengthSampler::sharegpt_output(),
            );
            let models = trace.iter().map(|r| r.model + 1).max().unwrap_or(1);
            (trace, models)
        }
        None => {
            let trace_cfg = match flags.get("workload") {
                Some("interactive") => TraceConfig::interactive(rps, duration),
                Some("sharegpt") | None => TraceConfig::sharegpt(rps, duration),
                Some(other) => {
                    return Err(format!("unknown workload `{other}` (sharegpt|interactive)"))
                }
            };
            let mut trace_cfg = trace_cfg.with_seed(seed).with_pattern(pattern);
            if models > 1 {
                trace_cfg = trace_cfg.with_models(ModelMix::zipf(models, zipf_s));
            }
            (trace_cfg.generate(), models)
        }
    };

    // Measure the real per-instance pipeline once; the fleet replays it
    // (per-model costs scale off the measured base on multi-tenant runs).
    let mut profile = FleetProfile::measure(
        strategy,
        &spec,
        GpuSpec::a100_40gb(),
        CostModel::default(),
        tp,
        parallelism,
        seed,
    )
    .map_err(|e| e.to_string())?;
    if models > 1 {
        profile = profile.with_scaled_models(models);
    }
    // Registry backend: the golden-pinned whole-artifact default, or a
    // content-addressed catalog — decoded from a packed `.mcs` store when
    // one is given, synthesized per model otherwise.
    let registry_mode = match flags.get("registry") {
        None | Some("whole") => RegistryMode::Whole,
        Some("cas") => {
            let catalog = match flags.get("registry-store") {
                Some(path) => {
                    let bytes = std::fs::read(path)
                        .map_err(|e| format!("cannot read --registry-store `{path}`: {e}"))?;
                    let store = ChunkStore::decode(&bytes)
                        .map_err(|e| format!("bad --registry-store `{path}`: {e}"))?;
                    println!(
                        "registry catalog: {} manifest(s) from {path} ({:.2}x dedup on disk)",
                        store.manifests().len(),
                        store.dedup_stats().ratio()
                    );
                    RegistryCatalog::from_store(&store)
                }
                None => synth_catalog(models, &profile, flags.has("template")),
            };
            RegistryMode::ContentAddressed(catalog)
        }
        Some(other) => return Err(format!("unknown registry backend `{other}` (whole|cas)")),
    };
    let cluster_spec = {
        let mut c = ClusterSpec::uniform(nodes)
            .with_tp(tp)
            .with_cached_prefix(cached)
            .with_cache(CacheConfig {
                capacity: cache_capacity,
                eviction,
            })
            .with_registry_mode(registry_mode)
            .with_faults(faults);
        c.autoscaler.keep_alive_s = keep_alive;
        c.autoscaler.target_queue_depth = queue_depth;
        if let Some(cfg) = prewarm {
            c = c.with_prewarm(cfg);
        }
        if pipeline_k > 0 {
            c = c.with_pipeline(pipeline_k);
        }
        c
    };

    // Telemetry is recorded only when it is written.
    let tele = flags
        .get("telemetry")
        .map(|_| medusa_telemetry::Registry::new());
    let out = simulate_fleet_traced(&profile, &cluster_spec, policy, &trace, tele.as_ref());
    let r = &out.report;
    println!(
        "{} fleet of {nodes} node(s), policy {}, seed {seed} (simulated):",
        r.strategy, r.policy
    );
    println!(
        "  offered {} / completed {}; cold starts {}; scale-to-zero {}",
        r.offered, r.completed, r.cold_starts, r.scale_to_zero_events
    );
    if r.fetch_retries + r.degraded_cold_starts + r.node_failures + r.reroutes > 0 {
        println!(
            "  faults: fetch retries {}; degraded cold starts {}; node failures {}; reroutes {}",
            r.fetch_retries, r.degraded_cold_starts, r.node_failures, r.reroutes
        );
    }
    println!(
        "  makespan {:.3}s; ttft p50 {:.1}ms / p99 {:.1}ms / mean {:.1}ms",
        r.makespan_ns as f64 / 1e9,
        r.ttft_p50_us as f64 / 1e3,
        r.ttft_p99_us as f64 / 1e3,
        r.ttft_mean_us as f64 / 1e3
    );
    println!("  trace fingerprint {:#018x}", r.trace_fingerprint);
    println!(
        "  events processed {} / cancelled {}; conservation residual {}",
        out.stats.events_processed,
        out.stats.events_cancelled,
        out.conservation_residual()
    );
    if let Some(c) = &r.cache {
        let lookups = c.hits + c.misses;
        let rate_pm = (c.hits * 1_000).checked_div(lookups).unwrap_or(0);
        println!(
            "  artifact cache: {} hits / {} misses / {} evictions ({rate_pm}\u{2030} hit rate)",
            c.hits, c.misses, c.evictions
        );
    }
    if let Some(reg) = &r.registry {
        println!(
            "  registry: {} bytes fetched / {} resolved resident; chunks {} hit / {} miss ({:.2}x dedup)",
            reg.bytes_fetched, reg.bytes_resolved, reg.chunk_hits, reg.chunk_misses,
            reg.dedup_ratio()
        );
    }
    if let Some(p) = &r.prewarm {
        println!(
            "  predictive prewarm: {} issued / {} expired unused",
            p.issued, p.unused
        );
    }
    if let Some(n) = r.pipeline_starts {
        println!("  pipeline-parallel cold starts (\u{2265} 2 nodes): {n}");
    }
    if !r.tenants.is_empty() {
        println!(
            "  {:<7} {:>7} {:>9} {:>6} {:>9} {:>9} {:>7}",
            "tenant", "offered", "completed", "colds", "p50_ms", "p99_ms", "slo_pm"
        );
        for t in &r.tenants {
            println!(
                "  m{:<6} {:>7} {:>9} {:>6} {:>9.1} {:>9.1} {:>7}",
                t.model,
                t.offered,
                t.completed,
                t.cold_starts,
                t.ttft_p50_us as f64 / 1e3,
                t.ttft_p99_us as f64 / 1e3,
                t.slo_attained_pm
            );
        }
    }
    // Per-node tables stop being readable at fleet scale: beyond 16 nodes
    // print an aggregate summary plus the busiest workers unless
    // --all-nodes asks for everything.
    let full_table = flags.has("all-nodes") || nodes <= 16;
    let shown: Vec<usize> = if full_table {
        (0..r.nodes.len()).collect()
    } else {
        let active = r.nodes.iter().filter(|n| n.served > 0).count();
        let cached_at_end = r.nodes.iter().filter(|n| n.cached_at_end).count();
        let busy_s: f64 = r.nodes.iter().map(|n| n.busy_ns as f64 / 1e9).sum();
        println!(
            "  fleet: {} of {nodes} nodes served traffic; {} cached at end; {:.3}s busy total",
            active, cached_at_end, busy_s
        );
        let busiest = r.busiest_nodes();
        println!("  busiest {} node(s):", busiest.len());
        busiest
    };
    println!(
        "  {:<6} {:<10} {:>3} {:>6} {:>9} {:>7} {:>9} {:>9} {:>7}",
        "node", "gpu", "tp", "colds", "cold_s", "served", "busy_s", "work_s", "cached"
    );
    for i in shown {
        let n = &r.nodes[i];
        println!(
            "  n{:<5} {:<10} {:>3} {:>6} {:>9.3} {:>7} {:>9.3} {:>9.3} {:>7}",
            i,
            n.gpu,
            n.tp,
            n.cold_starts,
            n.cold_ns as f64 / 1e9,
            n.served,
            n.busy_ns as f64 / 1e9,
            n.work_ns as f64 / 1e9,
            n.cached_at_end
        );
    }
    if let Some(path) = flags.get("out") {
        let json = r.to_json();
        std::fs::write(path, &json).map_err(|e| e.to_string())?;
        println!("wrote report {path} ({} bytes)", json.len());
    }
    if let Some(path) = flags.get("arrivals-out") {
        // Per-model arrival history as CSV — replayable into a
        // PrewarmEstimator (`seed_history`) for offline policy studies.
        let csv = ArrivalHistory::from_requests(&trace).to_csv();
        std::fs::write(path, &csv).map_err(|e| e.to_string())?;
        println!("wrote arrival history {path} ({} bytes)", csv.len());
    }
    if let (Some(path), Some(tele)) = (flags.get("telemetry"), &tele) {
        let rendered = render(&tele.snapshot(), flags.get("format").unwrap_or("prom"))?;
        std::fs::write(path, &rendered).map_err(|e| e.to_string())?;
        println!("wrote telemetry {path} ({} bytes)", rendered.len());
    }
    Ok(())
}

fn print_report(indent: &str, report: &medusa::ValidationReport) {
    for (check, verdict) in &report.checks {
        match verdict {
            None => println!("{indent}{:<16} ok", check.name()),
            Some(err) => println!("{indent}{:<16} FAILED: {err}", check.name()),
        }
    }
}

fn report_failure(report: &medusa::ValidationReport) -> Option<String> {
    report
        .first_failure()
        .map(|(check, err)| format!("{} ({})", check.name(), err.kind()))
}

/// `validate` — run every [`ArtifactValidator`] check against an artifact
/// file and print per-check verdicts. Exits non-zero when any check fails.
/// The encoding is auto-detected by magic bytes: MAF2 containers take the
/// O(header) fast path and validate every shard in the bundle off one
/// shared section index; other files parse as the JSON debug encoding.
fn validate(flags: &Flags) -> Result<(), String> {
    let path = flags.get("artifact").ok_or("--artifact is required")?;
    let gpu = GpuSpec::a100_40gb();
    let failure = match read_artifact(path)? {
        (bytes, None) => {
            let reader = Maf2Reader::open(&bytes).map_err(|e| {
                format!(
                    "cannot open MAF2 artifact `{path}`: {e} (kind {})",
                    e.kind()
                )
            })?;
            let spec = flags.model(Some(reader.model()))?;
            let validator = ArtifactValidator::for_target(&spec, &gpu);
            println!(
                "validating MAF2 bundle <{}, {}> tp {} v{} ({} shard(s), {} bytes):",
                reader.model(),
                reader.gpu(),
                reader.tp(),
                reader.version(),
                reader.shard_count(),
                bytes.len()
            );
            let mut failure = None;
            for (rank, report) in validator.validate_bundle(&reader) {
                println!("  rank {rank}:");
                print_report("    ", &report);
                if failure.is_none() {
                    failure = report_failure(&report);
                }
            }
            failure
        }
        (_, Some(artifact)) => {
            let spec = flags.model(Some(&artifact.model))?;
            let validator =
                ArtifactValidator::for_target(&spec, &gpu).shard(artifact.rank, artifact.tp);
            let report = validator.validate(&artifact);
            println!(
                "validating artifact <{}, {}> rank {}/{} v{}:",
                artifact.model, artifact.gpu, artifact.rank, artifact.tp, artifact.version
            );
            print_report("  ", &report);
            report_failure(&report)
        }
    };
    match failure {
        None => {
            println!("artifact is valid");
            Ok(())
        }
        Some(f) => Err(format!("artifact failed validation at {f}")),
    }
}

/// `convert` — translate an artifact between the JSON debug encoding and
/// the MAF2 binary container, auto-detecting the input format by magic
/// bytes. Lowering a multi-shard bundle to JSON needs `--rank N` to pick
/// the shard, since the JSON encoding holds exactly one.
fn convert(flags: &Flags) -> Result<(), String> {
    let input = flags.get("in").ok_or("--in is required")?;
    let output = flags.get("out").ok_or("--out is required")?;
    let rank = flags.opt_num("rank")?;
    match read_artifact(input)? {
        (bytes, None) => {
            let reader = Maf2Reader::open(&bytes).map_err(|e| e.to_string())?;
            let ranks = reader.shard_ranks();
            let rank = match (rank, ranks.as_slice()) {
                (Some(r), _) => r,
                (None, [only]) => *only,
                (None, _) => {
                    return Err(format!(
                        "`{input}` bundles {} shards (ranks {:?}); pass --rank N to pick one",
                        ranks.len(),
                        ranks
                    ))
                }
            };
            let state = reader.shard(rank).map_err(|e| e.to_string())?;
            let json = state.to_json().map_err(|e| e.to_string())?;
            std::fs::write(output, &json).map_err(|e| e.to_string())?;
            println!(
                "converted MAF2 rank {rank}/{} -> JSON {output} ({} -> {} bytes)",
                reader.tp(),
                bytes.len(),
                json.len()
            );
        }
        (bytes, Some(state)) => {
            let encoded = state.to_maf2().map_err(|e| e.to_string())?;
            std::fs::write(output, &encoded).map_err(|e| e.to_string())?;
            println!(
                "converted JSON rank {}/{} -> MAF2 {output} ({} -> {} bytes)",
                state.rank,
                state.tp,
                bytes.len(),
                encoded.len()
            );
        }
    }
    Ok(())
}

/// A synthetic per-model chunk catalog for `--registry cas` runs without a
/// packed store: 16 model-private weight pseudo-chunks per model, plus —
/// with `--template` — a family-shared block (graph topology, replay ops,
/// pointer tables; ~1/5 of the base artifact) that every member references
/// by the same digests, so cross-model cold starts on a warm node resolve
/// it without a transfer.
fn synth_catalog(models: u32, profile: &FleetProfile, template: bool) -> RegistryCatalog {
    const WEIGHT_CHUNKS: u64 = 16;
    const TEMPLATE_CHUNKS: u64 = 4;
    let shared_total = if template {
        profile.artifact_bytes_for(0) / 5
    } else {
        0
    };
    RegistryCatalog {
        models: (0..models.max(1))
            .map(|m| {
                let private = profile.artifact_bytes_for(m).saturating_sub(shared_total);
                let mut units = Vec::new();
                for t in 0..TEMPLATE_CHUNKS {
                    if template {
                        units.push(FetchUnit {
                            digest: 0x7e3a_0a7e_0000_0000 | t,
                            bytes: shared_total / TEMPLATE_CHUNKS,
                        });
                    }
                }
                for k in 0..WEIGHT_CHUNKS {
                    units.push(FetchUnit {
                        digest: (u64::from(m) << 32) | 0x5eed_0000 | k,
                        bytes: private / WEIGHT_CHUNKS,
                    });
                }
                ModelManifest { units }
            })
            .collect(),
    }
}

fn print_dedup(stats: &medusa::DedupStats) {
    println!(
        "dedup: {} manifest(s), {} unique chunk(s); {} logical -> {} stored bytes ({:.2}x)",
        stats.manifests,
        stats.unique_chunks,
        stats.logical_bytes,
        stats.stored_bytes,
        stats.ratio()
    );
}

/// `registry pack` — chunk and deduplicate MAF2 artifacts (JSON ones are
/// lifted to MAF2 first) into a content-addressed `.mcs` store file.
fn registry_pack(flags: &Flags) -> Result<(), String> {
    let list = flags
        .get("artifacts")
        .ok_or("--artifacts a.maf2,b.maf2[,...] is required")?;
    let variants: u32 = flags.num("variants", 0)?;
    let mut store = ChunkStore::new();
    for path in list.split(',').filter(|p| !p.is_empty()) {
        let bytes = match read_artifact(path)? {
            (bytes, None) => bytes,
            (_, Some(state)) => state.to_maf2().map_err(|e| e.to_string())?,
        };
        let m = store
            .pack(&bytes)
            .map_err(|e| format!("cannot pack `{path}`: {e}"))?;
        println!(
            "packed {path}: <{}, {}> tp {} — {} chunk(s) / {} bytes",
            m.model,
            m.gpu,
            m.tp,
            m.chunks.len(),
            m.total_bytes
        );
        if variants > 0 {
            // Derive deterministic fine-tune siblings from this capture:
            // same family skeleton, per-variant weight deltas — the
            // fine-tune-family regime the chunk store is built for.
            let base = MaterializedState::from_maf2(&bytes)
                .map_err(|e| format!("cannot decode `{path}`: {e}"))?;
            let family = flags.get("template").unwrap_or("family");
            let (template, base_delta) =
                ArtifactTemplate::extract(std::slice::from_ref(&base), family)
                    .map_err(|e| e.to_string())?;
            for v in 1..=variants {
                let name = format!("{}-v{v}", base.model);
                let delta = base_delta.derive_variant(&name, u64::from(v));
                for shard in template.instantiate(&delta).map_err(|e| e.to_string())? {
                    let vb = shard.to_maf2().map_err(|e| e.to_string())?;
                    let vm = store
                        .pack(&vb)
                        .map_err(|e| format!("cannot pack variant `{name}`: {e}"))?;
                    println!(
                        "packed variant {name}: {} chunk(s) / {} bytes",
                        vm.chunks.len(),
                        vm.total_bytes
                    );
                }
            }
        }
    }
    if let Some(family) = flags.get("template") {
        let t = store.factor_family(family).map_err(|e| e.to_string())?;
        println!(
            "factored template `{}`: {} shared chunk(s) / {} bytes (digest {:#018x})",
            t.family,
            t.chunks.len(),
            t.bytes,
            t.digest
        );
        for m in store.manifests() {
            println!(
                "  {} delta on top of the template: {} bytes",
                m.model,
                ChunkStore::delta_bytes(m, &t)
            );
        }
    }
    print_dedup(&store.dedup_stats());
    if let Some(path) = flags.get("out") {
        let encoded = store.encode();
        std::fs::write(path, &encoded).map_err(|e| e.to_string())?;
        println!(
            "wrote {path} ({:.1} KiB store)",
            encoded.len() as f64 / 1024.0
        );
    }
    Ok(())
}

/// `registry inspect` (`full`) lists a store's manifests and templates;
/// `registry dedup-stats` prints only its storage accounting.
fn registry_inspect(flags: &Flags, full: bool) -> Result<(), String> {
    let path = flags.get("store").ok_or("--store FILE.mcs is required")?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let store = ChunkStore::decode(&bytes).map_err(|e| format!("bad store `{path}`: {e}"))?;
    if full {
        println!(
            "store {path}: {} manifest(s), {} template(s)",
            store.manifests().len(),
            store.templates().len()
        );
        println!(
            "  {:<16} {:<12} {:>3} {:>12} {:>7} {:>18}",
            "model", "gpu", "tp", "bytes", "chunks", "template"
        );
        for m in store.manifests() {
            println!(
                "  {:<16} {:<12} {:>3} {:>12} {:>7} {:>18}",
                m.model,
                m.gpu,
                m.tp,
                m.total_bytes,
                m.chunks.len(),
                m.template.map_or("-".to_string(), |d| format!("{d:#018x}"))
            );
        }
        for t in store.templates() {
            println!(
                "  template `{}`: {} chunk(s) / {} bytes (digest {:#018x})",
                t.family,
                t.chunks.len(),
                t.bytes,
                t.digest
            );
        }
    }
    print_dedup(&store.dedup_stats());
    Ok(())
}

fn inspect(flags: &Flags) -> Result<(), String> {
    let artifact = load_artifact(flags)?.ok_or("--artifact is required")?;
    println!(
        "artifact <{}, {}> rank {}/{} v{}",
        artifact.model, artifact.gpu, artifact.rank, artifact.tp, artifact.version
    );
    println!("  kv free bytes: {}", artifact.kv_free_bytes);
    println!(
        "  replay: {} prefix allocs + {} ops; labels {}; permanent contents {}; ptr tables {}",
        artifact.replay_prefix_allocs,
        artifact.replay_ops.len(),
        artifact.labels.len(),
        artifact.permanent_contents.len(),
        artifact.permanent_ptr_tables.len()
    );
    let st = &artifact.stats;
    println!(
        "  {} graphs / {} nodes; {} ptr params, {} consts, {} multi-match; dlsym {} / hidden {}",
        artifact.graphs.len(),
        st.nodes,
        st.pointer_params,
        st.const_params,
        st.multi_match_pointers,
        st.dlsym_restorable_nodes,
        st.hidden_kernel_nodes
    );
    Ok(())
}
