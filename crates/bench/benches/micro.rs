//! Micro-benchmarks of what the `perfbench` harness does not time per
//! layer: the simulated allocator and parameter buffers, the ablation of
//! trace-based vs naive pointer matching, artifact JSON serde, tokenizer
//! encoding, the fleet simulator and its event queue, and the real
//! multi-core speedup of the parallel cold-start engine. Offline capture
//! and analysis, allocation replay, kernel resolution, graph restore,
//! tokenizer loading and workload generation are timed per layer by
//! `perfbench --trace 1` instead.
//!
//! Self-contained harness (`harness = false`, no external bench crate —
//! the build is fully offline): each benchmark runs a timed loop around a
//! closure and reports the per-iteration mean and median.
//!
//! Run with: `cargo bench -p medusa-bench --bench micro`. The
//! `fleet_route/*` rows report the fleet simulator's host ns per request
//! and per event at 100, 1,000 and 10,000 nodes; the `event_queue/*` rows
//! report its event queue's ns per operation.
//!
//! `-- --emit-telemetry DIR` additionally exports Chrome traces and
//! Prometheus snapshots for every cold-start mode and both fleet sides of
//! the `coldstart` and `cluster` bench scenarios. The CI baselines are not
//! written here: `./ci.sh --gate <scenario>` writes each fresh report to
//! `target/BENCH_<scenario>.json`.

use std::time::{Duration, Instant};

use medusa::{count_naive_mismatches, materialize_offline, ColdStart, Parallelism, Strategy};
use medusa_gpu::{AllocTag, CostModel, GpuSpec, ParamBuffer, ProcessRuntime};
use medusa_model::{build_catalog, ModelSpec};

fn spec() -> ModelSpec {
    ModelSpec::by_name("Qwen1.5-0.5B").expect("catalog model")
}

/// Times `f` for at least `min_iters` iterations and ~200ms, returning
/// (mean, median) per-iteration durations.
fn measure<T>(min_iters: u32, mut f: impl FnMut() -> T) -> (Duration, Duration) {
    // Warm-up.
    std::hint::black_box(f());
    let mut samples = Vec::new();
    let budget = Duration::from_millis(200);
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        std::hint::black_box(f());
        samples.push(t0.elapsed());
        if samples.len() as u32 >= min_iters && started.elapsed() > budget {
            break;
        }
        if samples.len() >= 10_000 {
            break;
        }
    }
    samples.sort();
    let total: Duration = samples.iter().sum();
    (total / samples.len() as u32, samples[samples.len() / 2])
}

fn report(name: &str, (mean, median): (Duration, Duration)) {
    println!("{name:<44} mean {mean:>12.3?}   median {median:>12.3?}");
}

fn bench_allocator() {
    let mut rt = ProcessRuntime::new(
        build_catalog(&spec()),
        GpuSpec::a100_40gb(),
        CostModel::default(),
        1,
    );
    report(
        "allocator_malloc_free_pair",
        measure(1000, || {
            let p = rt.cuda_malloc(4096, AllocTag::Activation).expect("alloc");
            rt.cuda_free(p).expect("free");
        }),
    );
}

fn bench_param_buffer() {
    let parts: Vec<(u64, u32)> = (0..8)
        .map(|i| {
            (
                0x0007_2000_0000_0000 + i * 64,
                if i % 3 == 0 { 4 } else { 8 },
            )
        })
        .collect();
    report(
        "param_buffer_from_parts_8",
        measure(1000, || {
            ParamBuffer::from_parts(std::hint::black_box(&parts))
        }),
    );
}

/// The ablation of trace-based vs naive pointer matching: the naive scan
/// over one offline capture.
fn bench_naive_matching() {
    let cap = medusa::run_offline_capture(&spec(), GpuSpec::a100_40gb(), CostModel::default(), 7)
        .expect("capture");
    report(
        "offline/ablation_naive_matching_scan",
        measure(3, || count_naive_mismatches(&cap)),
    );
}

fn bench_serde() {
    let s = spec();
    let (artifact, _) =
        materialize_offline(&s, GpuSpec::a100_40gb(), CostModel::default(), 10).expect("offline");
    let json = artifact.to_json().expect("encode");
    report(
        "artifact/to_json",
        measure(3, || artifact.to_json().expect("encode")),
    );
    report(
        "artifact/from_json",
        measure(3, || {
            medusa::MaterializedState::from_json(&json).expect("decode")
        }),
    );
}

fn bench_serving_and_workload() {
    use medusa_serving::{simulate_fleet, ClusterSpec, FleetProfile, PerfModel, Policy};
    use medusa_workload::TraceConfig;
    let perf = PerfModel::from_tables(
        medusa::Strategy::Vanilla,
        "bench",
        medusa_gpu::SimDuration::from_millis(1500),
        vec![1, 8, 32, 128, 256],
        vec![
            medusa_gpu::SimDuration::from_millis(8),
            medusa_gpu::SimDuration::from_millis(9),
            medusa_gpu::SimDuration::from_millis(11),
            medusa_gpu::SimDuration::from_millis(14),
            medusa_gpu::SimDuration::from_millis(18),
        ],
        vec![
            (64, medusa_gpu::SimDuration::from_millis(10)),
            (2048, medusa_gpu::SimDuration::from_millis(80)),
        ],
    );
    let profile = FleetProfile::from_perf(medusa::Strategy::Vanilla, perf);
    let trace = TraceConfig::sharegpt(10.0, 300.0).with_seed(3).generate();
    report(
        "serving/cluster_sim_3000_requests",
        measure(3, || {
            simulate_fleet(
                &profile,
                &ClusterSpec::paper_testbed(),
                Policy::ColdStartAware,
                std::hint::black_box(&trace),
            )
        }),
    );
}

/// Host cost of fleet routing as the fleet grows: one `scale`-scenario-shaped
/// run (pre-seeded caches, `ColdStartAware`, interactive Poisson trace)
/// per fleet size, reported as wall-clock ns per request and per processed
/// event. Routing queries the fleet index instead of scanning every node,
/// so the figures should stay near-flat from 100 to 10,000 nodes. Compare
/// builds by ns per request: a change in how many events the same trace
/// takes moves ns per event even when the run costs the same.
/// Print-only.
fn bench_fleet_route() {
    use medusa_serving::{simulate_fleet, ClusterSpec, FleetProfile, Policy};
    use medusa_workload::TraceConfig;
    let profile = FleetProfile::measure(
        Strategy::Medusa,
        &spec(),
        GpuSpec::a100_40gb(),
        CostModel::default(),
        1,
        Parallelism::Overlapped,
        77,
    )
    .expect("fleet profile");
    let trace = TraceConfig::interactive(2000.0, 20.0)
        .with_seed(77)
        .generate();
    for nodes in [100, 1_000, 10_000] {
        let cluster = ClusterSpec::uniform(nodes).with_cached_prefix(nodes);
        let t0 = Instant::now();
        let out = simulate_fleet(&profile, &cluster, Policy::ColdStartAware, &trace);
        let elapsed = t0.elapsed();
        let events = out.stats.events_processed.max(1);
        let ns = elapsed.as_nanos() as f64;
        println!(
            "{:<44} {:>8.1} ns/request {:>8.1} ns/event   ({} events, {} requests, {elapsed:.3?})",
            format!("fleet_route/{nodes}_nodes"),
            ns / trace.len().max(1) as f64,
            ns / events as f64,
            events,
            trace.len()
        );
    }
}

/// Host cost of the fleet's event queue per operation at the
/// `fleet_scale` shape, about 160 pending events. `steady` pops the head
/// and schedules a successor; `keepalive_churn` also re-arms one of 16
/// nodes' far-future keep-alive expiries (a cancel plus a schedule) on
/// every operation, so cancelled entries pile up unless the queue evicts
/// them. Print-only.
fn bench_event_queue() {
    use medusa_serving::{EventQueue, EventToken, FleetEvent};
    const PENDING: usize = 160;
    const OPS: u32 = 2_000_000;
    const KEEP_ALIVE_NS: u64 = 60_000_000_000;
    for (name, churn) in [("steady", false), ("keepalive_churn", true)] {
        // xorshift64: a fixed, dependency-free stream of delays.
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut delay = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % 1_000_000
        };
        let mut q = EventQueue::new();
        for node in 0..PENDING {
            q.schedule(delay(), FleetEvent::Route { node });
        }
        let mut armed: Vec<Option<EventToken>> = vec![None; 16];
        let t0 = Instant::now();
        for op in 0..OPS {
            let (t, ev) = q.pop().expect("the queue never runs dry");
            q.schedule(t + delay(), ev);
            if churn {
                let node = op as usize % armed.len();
                if let Some(tok) = armed[node].take() {
                    q.cancel(tok);
                }
                let expiry = FleetEvent::KeepAliveExpiry { node };
                armed[node] = Some(q.schedule(t + KEEP_ALIVE_NS, expiry));
            }
        }
        let elapsed = t0.elapsed();
        std::hint::black_box(&q);
        println!(
            "{:<44} {:>8.1} ns/op      ({OPS} ops, {} heap entries at end)",
            format!("event_queue/{name}"),
            elapsed.as_nanos() as f64 / f64::from(OPS),
            q.heap_entries()
        );
    }
}

fn bench_tokenizer() {
    use medusa_model::Tokenizer;
    let (tok, _) = Tokenizer::load(32_000, &CostModel::default());
    let text = "the quick brown fox jumps over the lazy dog ".repeat(32);
    report(
        "tokenizer_encode_1p4kb",
        measure(100, || tok.encode(std::hint::black_box(&text))),
    );
}

/// Real multi-core wall-clock of the parallel cold-start engine: the same
/// tp=4 offline+online pipeline, serial vs rank-parallel (ISSUE acceptance:
/// the pipelined engine must be faster on a multi-core host).
fn bench_parallel_cold_start() {
    let s = spec();
    let gpu = GpuSpec::a100_40gb();
    let cost = CostModel::default();
    let tp = 4u32;
    let run = |mode: Parallelism| {
        let t0 = Instant::now();
        let (arts, _) = ColdStart::new(&s)
            .gpu(gpu.clone())
            .cost(cost.clone())
            .tp(tp)
            .parallelism(mode)
            .materialize(31)
            .expect("tp offline");
        let cold = ColdStart::new(&s)
            .strategy(Strategy::Medusa)
            .gpu(gpu.clone())
            .cost(cost.clone())
            .seed(32)
            .warm(true)
            .parallelism(mode)
            .artifacts(&arts)
            .run()
            .expect("tp cold start");
        (t0.elapsed(), cold.loading())
    };
    let (serial_wall, serial_sim) = run(Parallelism::Serial);
    let (par_wall, par_sim) = run(Parallelism::PipelinedTp);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "parallel_cold_start/tp4_offline_online   serial    {serial_wall:>10.3?} (sim loading {:.3}s)",
        serial_sim.as_secs_f64()
    );
    println!(
        "parallel_cold_start/tp4_offline_online   pipelined {par_wall:>10.3?} (sim loading {:.3}s)",
        par_sim.as_secs_f64()
    );
    println!(
        "parallel_cold_start/tp4_offline_online   wall-clock speedup {:.2}x on {cores} core(s)",
        serial_wall.as_secs_f64() / par_wall.as_secs_f64()
    );
    if cores < 2 {
        println!(
            "  note: single-core host — rank threads cannot run concurrently, so only the\n  \
             simulated loading ablation is meaningful here; re-run on a multi-core host\n  \
             for the wall-clock speedup."
        );
    }
}

/// Returns the value following `key`, if present (unknown flags — e.g. the
/// `--bench` cargo injects — are tolerated and ignored).
fn flag_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Exports Chrome traces and Prometheus snapshots of the `coldstart`
/// scenario's three modes and both sides of the `cluster` scenario into
/// `dir`.
fn emit_telemetry(dir: &str) {
    use medusa_bench::smoke;
    std::fs::create_dir_all(dir).expect("create telemetry dir");
    let write = |name: &str, tele: medusa_telemetry::Registry| {
        let snap = tele.snapshot();
        let trace = format!("{dir}/{name}.trace.json");
        std::fs::write(&trace, medusa_telemetry::export::chrome::render(&snap))
            .expect("write chrome trace");
        let prom = format!("{dir}/{name}.prom");
        std::fs::write(&prom, medusa_telemetry::export::prometheus::render(&snap))
            .expect("write prometheus snapshot");
        println!("telemetry: wrote {trace} and {prom}");
    };
    for (label, mode) in [
        ("serial", Parallelism::Serial),
        ("overlapped", Parallelism::Overlapped),
        ("pipelined", Parallelism::PipelinedTp),
    ] {
        let tele = medusa_telemetry::Registry::new();
        smoke::run_mode(mode, Some(&tele));
        write(&format!("coldstart_{label}"), tele);
    }
    for (label, strategy) in [("medusa", Strategy::Medusa), ("vanilla", Strategy::Vanilla)] {
        let tele = medusa_telemetry::Registry::new();
        smoke::run_cluster_side(strategy, Some(&tele));
        write(&format!("cluster_{label}"), tele);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    println!("medusa micro-benchmarks (self-contained harness)\n");
    bench_allocator();
    bench_param_buffer();
    bench_tokenizer();
    bench_naive_matching();
    bench_serde();
    bench_serving_and_workload();
    bench_fleet_route();
    bench_event_queue();
    bench_parallel_cold_start();
    if let Some(dir) = flag_value(&args, "--emit-telemetry") {
        emit_telemetry(&dir);
    }
}
