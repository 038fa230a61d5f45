//! Micro-benchmarks of the core Medusa mechanisms: what does
//! materialization/restoration itself cost in wall-clock terms, the
//! ablation of trace-based vs naive pointer matching, and the real
//! multi-core speedup of the parallel cold-start engine.
//!
//! Self-contained harness (`harness = false`, no external bench crate —
//! the build is fully offline): each benchmark runs a timed loop around a
//! closure and reports the per-iteration mean and median.
//!
//! Run with: `cargo bench --bench micro`. The `fleet_route/*` rows report
//! the fleet simulator's host ns per event at 100, 1,000 and 10,000 nodes;
//! the `event_queue/*` rows report its event queue's ns per operation.
//!
//! `-- --smoke [--out FILE]` runs only the deterministic cold-start smoke
//! benchmark (simulated makespans, machine-independent) and writes
//! `BENCH_coldstart.json` for the CI regression gate. `--out-cluster FILE`
//! additionally runs the fleet scenario (Medusa vs vanilla cluster under a
//! burst trace) and writes `BENCH_cluster.json`; `--out-cluster-mt FILE`
//! runs the multi-tenant fleet scenario (eight Zipf-skewed models against
//! a bounded cost-aware artifact cache) and writes
//! `BENCH_cluster_multitenant.json`; `--out-artifact FILE` runs the MAF2
//! size sweep (encode / open / validate / lazy restore at 1×/10×/100×)
//! and writes `BENCH_artifact.json`; `--out-policies FILE` runs the
//! predictive-policy race (reactive vs locality vs locality+prewarm vs
//! pipeline-parallel, plus the 100×-artifact cold-start duel) and writes
//! `BENCH_policies.json`. `--emit-telemetry DIR`
//! additionally exports Chrome traces and Prometheus snapshots for every
//! cold-start mode and both fleet sides.

use std::time::{Duration, Instant};

use medusa::{
    analyze, count_naive_mismatches, materialize_offline, materialize_offline_tp_with,
    replay_allocations, restore_graph, ColdStart, ColdStartOptions, KernelResolver, Parallelism,
    Strategy,
};
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

fn bench_offline_phase() {
    let s = spec();
    let mut seed = 0u64;
    report(
        "offline/capture_stage_qwen05b_35_graphs",
        measure(3, || {
            seed += 1;
            medusa::run_offline_capture(&s, GpuSpec::a100_40gb(), CostModel::default(), seed)
                .expect("capture")
        }),
    );
    let cap = medusa::run_offline_capture(&s, GpuSpec::a100_40gb(), CostModel::default(), 7)
        .expect("capture");
    report(
        "offline/analysis_stage_qwen05b",
        measure(3, || {
            analyze(&cap, &CostModel::default()).expect("analysis")
        }),
    );
    report(
        "offline/ablation_naive_matching_scan",
        measure(3, || count_naive_mismatches(&cap)),
    );
}

fn bench_online_restore() {
    let s = spec();
    let (artifact, _) =
        materialize_offline(&s, GpuSpec::a100_40gb(), CostModel::default(), 9).expect("offline");
    report(
        "online/replay_allocation_sequence",
        measure(3, || {
            let mut rt = ProcessRuntime::new(
                build_catalog(&s),
                GpuSpec::a100_40gb(),
                CostModel::default(),
                123,
            );
            let _inst = medusa_model::ModelInstance::initialize(&mut rt, &s).expect("structure");
            replay_allocations(&mut rt, &artifact).expect("replay")
        }),
    );
    // One full restore of the largest graph (pointer patching path).
    let mut rt = ProcessRuntime::new(
        build_catalog(&s),
        GpuSpec::a100_40gb(),
        CostModel::default(),
        124,
    );
    let mut inst = medusa_model::ModelInstance::initialize(&mut rt, &s).expect("structure");
    medusa_model::load_weights(&mut rt, &inst, 1.0).expect("weights");
    let (layout, _) = replay_allocations(&mut rt, &artifact).expect("replay");
    inst.bind_workspace(layout.workspace().expect("ws"));
    inst.bind_magic(layout.magic_pairs(s.layers()).expect("magic"));
    let kv = layout.kv_view(16).expect("kv");
    let mut resolver = KernelResolver::new();
    resolver
        .resolve_exported(&mut rt, &artifact)
        .expect("dlsym path");
    for bsz in [1, 8, 64, 256] {
        medusa_model::warmup_first_layer(&mut rt, &mut inst, bsz, &kv).expect("trigger");
    }
    resolver
        .resolve_by_enumeration(&mut rt, &artifact)
        .expect("enumeration");
    let gspec = artifact.graphs.last().expect("graphs");
    report(
        "online/restore_graph_largest_batch",
        measure(10, || {
            restore_graph(gspec, &layout, resolver.addrs()).expect("restore")
        }),
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
    let mut seed = 0u64;
    report(
        "serving/workload_generate_10rps_300s",
        measure(3, || {
            seed += 1;
            TraceConfig::sharegpt(10.0, 300.0)
                .with_seed(seed)
                .generate()
        }),
    );
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

/// Host cost of fleet routing as the fleet grows: one scale-smoke-shaped
/// run (pre-seeded caches, `ColdStartAware`, interactive Poisson trace)
/// per fleet size, reported as wall-clock ns per processed event. Routing
/// queries the fleet index instead of scanning every node, so the figure
/// should stay near-flat from 100 to 10,000 nodes. Print-only.
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
        println!(
            "{:<44} {:>8.1} ns/event   ({} events, {} requests, {elapsed:.3?})",
            format!("fleet_route/{nodes}_nodes"),
            elapsed.as_nanos() as f64 / events as f64,
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
        let (arts, _) = materialize_offline_tp_with(&s, tp, gpu.clone(), cost.clone(), 31, mode)
            .expect("tp offline");
        let opts = ColdStartOptions {
            seed: 32,
            warm_container: true,
            parallelism: mode,
            ..Default::default()
        };
        let cold = ColdStart::new(&s)
            .strategy(Strategy::Medusa)
            .gpu(gpu.clone())
            .cost(cost.clone())
            .options(opts)
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

/// Runs the deterministic smoke benchmarks, writes `BENCH_coldstart.json`
/// (and `BENCH_cluster.json` when `out_cluster` is set), and optionally
/// exports telemetry snapshots.
fn run_smoke(
    out: &str,
    out_cluster: Option<&str>,
    out_cluster_mt: Option<&str>,
    out_artifact: Option<&str>,
    out_policies: Option<&str>,
    emit_dir: Option<&str>,
) {
    use medusa_bench::smoke;
    let result = smoke::run();
    println!(
        "smoke/coldstart_tp{}_{}   serial {} us   overlapped {} us   tp-pipelined {} us",
        result.tp, result.model, result.serial_us, result.overlapped_us, result.pipelined_us
    );
    std::fs::write(out, result.to_json()).expect("write smoke result");
    println!("smoke: wrote {out}");
    if let Some(path) = out_cluster {
        let cluster = smoke::run_cluster();
        println!(
            "smoke/cluster_{}x{}   medusa {} colds / p99 {} us   vanilla {} colds / p99 {} us",
            cluster.model,
            cluster.nodes,
            cluster.medusa_cold_starts,
            cluster.medusa_ttft_p99_us,
            cluster.vanilla_cold_starts,
            cluster.vanilla_ttft_p99_us
        );
        std::fs::write(path, cluster.to_json()).expect("write cluster smoke result");
        println!("smoke: wrote {path}");
    }
    if let Some(path) = out_cluster_mt {
        let mt = smoke::run_cluster_mt();
        println!(
            "smoke/cluster_mt_{}x{}_{}models   medusa p99 {} us   vanilla p99 {} us   cache \
             {}h/{}m/{}e ({} permille)",
            mt.model,
            mt.nodes,
            mt.models,
            mt.medusa_ttft_p99_us,
            mt.vanilla_ttft_p99_us,
            mt.cache_hits,
            mt.cache_misses,
            mt.cache_evictions,
            mt.cache_hit_rate_pm
        );
        std::fs::write(path, mt.to_json()).expect("write multi-tenant smoke result");
        println!("smoke: wrote {path}");
    }
    if let Some(path) = out_artifact {
        let (sweep, timings) = smoke::run_artifact();
        for (s, t) in sweep.scales.iter().zip(&timings) {
            println!(
                "smoke/artifact_{}x   maf2 {} B (json {} B)   encode {:?}   open+validate {:?} \
                 ({} B read)   json parse+validate {:?}   rank0 restore {:?} ({} B read)",
                s.scale,
                s.maf2_bytes,
                s.json_bytes,
                t.encode,
                t.maf2_open_validate,
                s.open_read_bytes,
                t.json_parse_validate,
                t.shard_restore,
                s.shard_restore_read_bytes
            );
        }
        std::fs::write(path, sweep.to_json()).expect("write artifact sweep result");
        println!("smoke: wrote {path}");
    }
    if let Some(path) = out_policies {
        let race = smoke::run_policies();
        for r in &race.rows {
            println!(
                "smoke/policies_{}   p50 {} us   p99 {} us   {} colds   {} prewarms ({} unused)   \
                 {} sharded starts",
                r.policy,
                r.ttft_p50_us,
                r.ttft_p99_us,
                r.cold_starts,
                r.prewarms_issued,
                r.prewarms_unused,
                r.pipeline_starts
            );
        }
        println!(
            "smoke/policies_coldstart_duel_{}x   single {} us   pipelined(k={}) {} us",
            race.artifact_scale,
            race.single_coldstart_ttft_us,
            race.pipeline_k,
            race.pipeline_coldstart_ttft_us
        );
        std::fs::write(path, race.to_json()).expect("write policy race result");
        println!("smoke: wrote {path}");
    }
    if let Some(dir) = emit_dir {
        std::fs::create_dir_all(dir).expect("create telemetry dir");
        for (label, mode) in [
            ("serial", Parallelism::Serial),
            ("overlapped", Parallelism::Overlapped),
            ("pipelined", Parallelism::PipelinedTp),
        ] {
            let tele = medusa_telemetry::Registry::new();
            smoke::run_mode(mode, Some(&tele));
            let snap = tele.snapshot();
            let trace = format!("{dir}/coldstart_{label}.trace.json");
            std::fs::write(&trace, medusa_telemetry::export::chrome::render(&snap))
                .expect("write chrome trace");
            let prom = format!("{dir}/coldstart_{label}.prom");
            std::fs::write(&prom, medusa_telemetry::export::prometheus::render(&snap))
                .expect("write prometheus snapshot");
            println!("smoke: wrote {trace} and {prom}");
        }
        for (label, strategy) in [("medusa", Strategy::Medusa), ("vanilla", Strategy::Vanilla)] {
            let tele = medusa_telemetry::Registry::new();
            medusa_bench::smoke::run_cluster_side(strategy, Some(&tele));
            let snap = tele.snapshot();
            let trace = format!("{dir}/cluster_{label}.trace.json");
            std::fs::write(&trace, medusa_telemetry::export::chrome::render(&snap))
                .expect("write chrome trace");
            let prom = format!("{dir}/cluster_{label}.prom");
            std::fs::write(&prom, medusa_telemetry::export::prometheus::render(&snap))
                .expect("write prometheus snapshot");
            println!("smoke: wrote {trace} and {prom}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_coldstart.json".to_string());
    let out_cluster = flag_value(&args, "--out-cluster");
    let out_cluster_mt = flag_value(&args, "--out-cluster-mt");
    let out_artifact = flag_value(&args, "--out-artifact");
    let out_policies = flag_value(&args, "--out-policies");
    let emit = flag_value(&args, "--emit-telemetry");
    if args.iter().any(|a| a == "--smoke") {
        run_smoke(
            &out,
            out_cluster.as_deref(),
            out_cluster_mt.as_deref(),
            out_artifact.as_deref(),
            out_policies.as_deref(),
            emit.as_deref(),
        );
        return;
    }
    println!("medusa micro-benchmarks (self-contained harness)\n");
    bench_allocator();
    bench_param_buffer();
    bench_tokenizer();
    bench_offline_phase();
    bench_online_restore();
    bench_serde();
    bench_serving_and_workload();
    bench_fleet_route();
    bench_event_queue();
    bench_parallel_cold_start();
    if let Some(dir) = emit {
        run_smoke(
            &out,
            out_cluster.as_deref(),
            out_cluster_mt.as_deref(),
            out_artifact.as_deref(),
            out_policies.as_deref(),
            Some(&dir),
        );
    }
}
