//! `coldstart`: closed loop, one client, one operation at a time.
//!
//! Targets are bound by different layers: a Qwen1.5-0.5B restore waits on
//! the tokenizer lane, a Llama2-7B restore on kernel resolution, and the
//! tp=2 restore runs two ranks at once. A speedup of one layer therefore
//! moves one target and not the others.

use crate::spans::{in_span, Recorder, Scope};
use crate::{mean, median, ms, quantile, sorted, Report, Rng};
use medusa::{
    analyze, host_pair, par_map, replay_allocations, restore_graph, run_offline_capture_sharded,
    ArtifactValidator, ChunkStore, ColdStart, ColdStartOutcome, KernelResolver, Maf2Reader,
    MaterializedState, MedusaResult, Stage, Strategy, TpArtifacts,
};
use medusa_gpu::{CostModel, GpuSpec, KernelRef, MemoryStats, ProcessRuntime, SimDuration};
use medusa_graph::GraphExec;
use medusa_kvcache::{KvCache, KvCacheConfig};
use medusa_model::{
    apply_weights, build_catalog, capture_first_layer_graph, run_eager_forward_step,
    warmup_first_layer, ForwardConfig, ModelInstance, ModelSpec, Tokenizer,
};
use std::time::Instant;

/// `(model, tensor-parallel degree)` of each target.
const TARGETS: [(&str, u32); 3] = [("Qwen1.5-0.5B", 1), ("Llama2-7B", 1), ("Qwen1.5-0.5B", 2)];

/// One block of a target stream: the 3/8, 3/8, 1/4 mix, shuffled per block
/// so that every eight draws hold the exact mix and the p50 and p90 of the
/// run stay inside one target's mass.
const BLOCK: [usize; 8] = [0, 0, 0, 1, 1, 1, 2, 2];

/// Every fifth operation re-materializes its target (the write side).
const WRITE_EVERY: u64 = 5;

/// First-token prompt lengths of the restoring requests, tokens.
const PROMPT_TOKENS: (u64, u64) = (16, 512);

/// TTFT limit of a cold-started request, the fleet's default SLO.
const SLO_TTFT_MS: f64 = 2500.0;

/// The builder's tensor-parallel paths start rank `r` of a restore with
/// process seed `seed ^ (RESTORE_SEED_SALT + r)` and rank `r` of an offline
/// capture with `seed ^ (OFFLINE_SEED_SALT + r)`; the single-instance path
/// takes `seed` as it is.
const RESTORE_SEED_SALT: u64 = 0x9a_0000;
const OFFLINE_SEED_SALT: u64 = 0x7a_0000;

struct Target {
    spec: ModelSpec,
    tp: u32,
    /// Latest MAF2 bundle of this target.
    bytes: Vec<u8>,
    /// Simulated loading of the first artifact restored through the
    /// decoded path; every later restore must match it.
    reference_loading: SimDuration,
}

pub struct State {
    seed: u64,
    targets: Vec<Target>,
}

fn gpu() -> GpuSpec {
    GpuSpec::a100_40gb()
}

/// Whether a process of `spec` started with `seed` maps every kernel to an
/// address of its own once all its libraries are open.
fn kernels_distinct(spec: &ModelSpec, seed: u64) -> bool {
    let catalog = build_catalog(spec);
    let mut rt = ProcessRuntime::new(catalog.clone(), gpu(), CostModel::default(), seed);
    let libs = 0..catalog.len();
    libs.clone().all(|lib| rt.dlopen(catalog.lib(lib).name()).is_ok())
        && libs.into_iter().all(|lib| {
            catalog.lib(lib).modules().iter().enumerate().all(|(module, m)| {
                (0..m.kernels().len()).all(|kernel| {
                    let kref = KernelRef {
                        lib: lib as u16,
                        module: module as u16,
                        kernel: kernel as u16,
                    };
                    rt.kernel_address(kref).and_then(|a| rt.resolve_addr(a)) == Some(kref)
                })
            })
        })
}

/// Draws the next seed for which every process the builder may start from
/// it, on any path and rank, maps its kernels to distinct addresses.
///
/// The simulated loader places each library at a random base in a window
/// four times wider than the spacing between libraries, so about one
/// process seed in 100,000 maps two kernels to the same address, and the
/// first launch through it fails with a parameter mismatch. That is a fault
/// of the simulated loader and independent of the layers measured here, so
/// the seeded inputs leave such seeds out.
fn clean_seed(rng: &mut Rng, spec: &ModelSpec, tp: u32) -> u64 {
    loop {
        let seed = rng.next_u64();
        let mut processes = std::iter::once(seed).chain((0..u64::from(tp)).flat_map(|r| {
            [
                seed ^ (RESTORE_SEED_SALT + r),
                seed ^ (OFFLINE_SEED_SALT + r),
            ]
        }));
        if processes.all(|s| kernels_distinct(spec, s)) {
            return seed;
        }
    }
}

/// Materializes and encodes the first artifact of every target.
pub fn setup(seed: u64) -> Result<State, String> {
    let mut rng = Rng::new(seed ^ 0x5e70_0000);
    let targets = TARGETS
        .iter()
        .map(|&(name, tp)| -> MedusaResult<Target> {
            let spec = ModelSpec::by_name(name).expect("catalog model");
            let offline_seed = clean_seed(&mut rng, &spec, tp);
            let (arts, _) = ColdStart::new(&spec).tp(tp).materialize(offline_seed)?;
            let bytes = arts.to_maf2()?;
            let reference_loading = ColdStart::new(&spec)
                .strategy(Strategy::Medusa)
                .artifacts(&arts)
                .warm(true)
                .seed(clean_seed(&mut rng, &spec, tp))
                .run()?
                .loading();
            Ok(Target {
                spec,
                tp,
                bytes,
                reference_loading,
            })
        })
        .collect::<MedusaResult<Vec<_>>>()
        .map_err(|e| format!("coldstart set-up: {e}"))?;
    Ok(State { seed, targets })
}

/// Seeded target stream in shuffled blocks of [`BLOCK`].
struct Stream {
    rng: Rng,
    block: Vec<usize>,
}

impl Stream {
    fn new(seed: u64) -> Self {
        Stream {
            rng: Rng::new(seed),
            block: Vec::new(),
        }
    }

    fn next(&mut self) -> usize {
        if self.block.is_empty() {
            self.block = BLOCK.to_vec();
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.rng.below(i as u64 + 1) as usize);
            }
        }
        self.block.pop().expect("refilled")
    }
}

/// One restore's simulated results.
struct Restored {
    target: usize,
    host_ms: f64,
    ttft_ms: f64,
    loading_s: f64,
    stages_ms: [f64; 4],
    mem: MemoryStats,
}

fn stage_ms(out: &ColdStartOutcome, stage: Stage) -> f64 {
    out.report().stage(stage).as_nanos() as f64 / 1e6
}

/// One restore through the builder: Medusa, from the target's MAF2 bytes.
fn restore(t: &Target, target: usize, prompt: u32, seed: u64) -> Result<Restored, Vec<String>> {
    let t0 = Instant::now();
    let out = ColdStart::new(&t.spec)
        .strategy(Strategy::Medusa)
        .tp(t.tp)
        .warm(true)
        .first_token_prompt(prompt)
        .seed(seed)
        .artifact_bytes(&t.bytes)
        .run();
    let host_ms = ms(t0.elapsed());
    let out = out.map_err(|e| {
        vec![format!(
            "{} tp={}: cold start (seed {seed}, prompt {prompt}): {e}",
            t.spec.name(),
            t.tp
        )]
    })?;
    let mut bad = Vec::new();
    if out.strategy_used() != Strategy::Medusa || out.fallback().is_some() {
        bad.push(format!(
            "{} tp={}: fell back to {} ({:?})",
            t.spec.name(),
            t.tp,
            out.strategy_used(),
            out.fallback().map(|f| f.reason)
        ));
    }
    if out.loading() != t.reference_loading {
        bad.push(format!(
            "{} tp={}: simulated loading {} != reference {}",
            t.spec.name(),
            t.tp,
            out.loading(),
            t.reference_loading
        ));
    }
    if !bad.is_empty() {
        return Err(bad);
    }
    Ok(Restored {
        target,
        host_ms,
        ttft_ms: out.total().as_nanos() as f64 / 1e6,
        loading_s: out.loading().as_secs_f64(),
        stages_ms: [
            stage_ms(&out, Stage::KvCacheInit),
            stage_ms(&out, Stage::WeightsLoad),
            stage_ms(&out, Stage::TokenizerLoad),
            stage_ms(&out, Stage::Capture),
        ],
        mem: out.engines[0].rt.memory().stats(),
    })
}

/// The lazily decoded shards of `bytes` must equal the encoded artifacts.
fn check_decode(t: &Target, arts: &TpArtifacts, bytes: &[u8]) -> Vec<String> {
    let reader = match Maf2Reader::open(bytes) {
        Ok(r) => r,
        Err(e) => return vec![format!("{} tp={}: reopen: {e}", t.spec.name(), t.tp)],
    };
    (0..t.tp)
        .filter(|&r| reader.shard(r).ok() != Some(arts.rank(r)))
        .map(|r| format!("{} tp={}: decoded shard {r} differs", t.spec.name(), t.tp))
        .collect()
}

/// One write through the builder: `materialize`, `to_maf2`, `pack`.
fn rematerialize(
    t: &Target,
    seed: u64,
    store: &mut ChunkStore,
) -> MedusaResult<(f64, TpArtifacts, Vec<u8>)> {
    let t0 = Instant::now();
    let (arts, _) = ColdStart::new(&t.spec).tp(t.tp).materialize(seed)?;
    let bytes = arts.to_maf2()?;
    store.pack(&bytes)?;
    Ok((ms(t0.elapsed()), arts, bytes))
}

/// The builder's offline phase as public calls: capture and analysis per
/// rank on worker threads, then the MAF2 bundle.
pub fn materialize_traced(
    cx: Option<Scope<'_>>,
    spec: &ModelSpec,
    tp: u32,
    seed: u64,
) -> MedusaResult<(TpArtifacts, Vec<u8>)> {
    let cost = CostModel::default();
    let ranks = par_map(
        (0..tp).collect(),
        |rank| -> MedusaResult<MaterializedState> {
            let cx = cx.map(|c| c.on_lane(2 * rank));
            let capture = in_span(cx, "core.offline_capture", || {
                run_offline_capture_sharded(
                    spec,
                    rank,
                    tp,
                    gpu(),
                    cost.clone(),
                    seed ^ (OFFLINE_SEED_SALT + u64::from(rank)),
                )
            })?;
            Ok(in_span(cx, "core.offline_analyze", || analyze(&capture, &cost))?.state)
        },
    );
    let arts = TpArtifacts::new(ranks.into_iter().collect::<MedusaResult<_>>()?)?;
    let bytes = in_span(cx, "artifact.maf2_encode", || arts.to_maf2())?;
    Ok((arts, bytes))
}

/// Rank-0 observations of one replayed restore.
struct Replayed {
    bytes_read_pct: f64,
    via_enumeration: usize,
}

/// [`ColdStart::run`]'s Medusa restore from MAF2 bytes (tensor-parallel
/// path, overlapped, warm container) replayed as public calls in the
/// builder's order, each inside its own span.
fn replay_restore(cx: Scope<'_>, t: &Target, prompt: u32, seed: u64) -> MedusaResult<Replayed> {
    let reader = cx.span("artifact.maf2_open_validate", |_| -> MedusaResult<_> {
        let reader = Maf2Reader::open(&t.bytes)?;
        for (_, report) in ArtifactValidator::for_target(&t.spec, &gpu()).validate_bundle(&reader) {
            report.ok()?;
        }
        Ok(reader)
    })?;
    let decoded = cx.span("artifact.shard_decode", |_| reader.materialize_all())?;
    let bytes_read_pct = reader.bytes_read() as f64 / reader.file_len() as f64 * 100.0;
    let ranks = par_map((0..t.tp).collect(), |rank| {
        let rank_seed = seed ^ (RESTORE_SEED_SALT + u64::from(rank));
        replay_rank(
            cx.on_lane(2 * rank),
            t,
            &decoded[rank as usize],
            rank,
            prompt,
            rank_seed,
        )
    });
    let mut via_enumeration = 0;
    for (rank, r) in ranks.into_iter().enumerate() {
        let n = r?;
        if rank == 0 {
            via_enumeration = n;
        }
    }
    Ok(Replayed {
        bytes_read_pct,
        via_enumeration,
    })
}

/// One rank of [`replay_restore`]; returns the kernels resolved by
/// module enumeration.
fn replay_rank(
    cx: Scope<'_>,
    t: &Target,
    art: &MaterializedState,
    rank: u32,
    prompt: u32,
    seed: u64,
) -> MedusaResult<usize> {
    let (spec, tp) = (&t.spec, t.tp);
    let mut rt = ProcessRuntime::new(build_catalog(spec), gpu(), CostModel::default(), seed);
    let mut inst = cx.span("model.structure_init", |_| {
        ModelInstance::initialize_sharded(&mut rt, spec, rank, tp)
    })?;
    art.check_target(spec.name(), rt.spec().name(), rank, tp)?;
    let layout = cx.span("core.replay", |_| -> MedusaResult<_> {
        let (layout, _) = replay_allocations(&mut rt, art)?;
        inst.bind_workspace(layout.workspace()?);
        inst.bind_magic(layout.magic_pairs(spec.layers())?);
        Ok(layout)
    })?;
    let kv = cx.span("kvcache.restore", |_| -> MedusaResult<_> {
        let view = layout.kv_view(16)?;
        let config = KvCacheConfig::for_shard(spec, tp);
        let blocks = config.blocks_for(art.kv_free_bytes);
        Ok(KvCache::from_restored(
            config,
            view.kcache,
            view.vcache,
            view.block_table,
            blocks,
        ))
    })?;
    cx.span("model.weights", |_| apply_weights(&mut rt, &inst))?;
    let kv_view = kv.view();
    let (vocab, tok_cost) = (spec.vocab(), rt.cost().clone());
    let tok_cx = cx.on_lane(2 * rank + 1);
    let (_tokenizer, restored) = host_pair(
        move || {
            tok_cx.span("model.tokenizer_load", |_| {
                Tokenizer::load(vocab, &tok_cost)
            })
        },
        || -> MedusaResult<(Vec<(u32, GraphExec)>, usize)> {
            let mut resolver = KernelResolver::new();
            cx.span("core.kernel_resolve", |_| {
                resolver.resolve_exported(&mut rt, art)
            })?;
            let mut graphs = Vec::with_capacity(art.graphs.len());
            for gspec in &art.graphs {
                cx.span("model.first_layer_trigger", |_| -> MedusaResult<()> {
                    warmup_first_layer(&mut rt, &mut inst, gspec.batch, &kv_view)?;
                    capture_first_layer_graph(&mut rt, &mut inst, gspec.batch, &kv_view)?;
                    Ok(())
                })?;
                cx.span("core.kernel_resolve", |_| {
                    match resolver.ensure_complete(art) {
                        Ok(()) => Ok(()),
                        Err(_) => resolver.resolve_by_enumeration(&mut rt, art),
                    }
                })?;
                let graph = cx.span("core.graph_restore", |_| {
                    restore_graph(gspec, &layout, resolver.addrs())
                })?;
                let exec = cx.span("graph.instantiate", |_| {
                    GraphExec::instantiate(&mut rt, graph)
                })?;
                graphs.push((gspec.batch, exec));
            }
            resolver.ensure_complete(art)?;
            Ok((graphs, resolver.stats().via_enumeration))
        },
    );
    let (_graphs, via_enumeration) = restored?;
    cx.span("model.first_token", |_| {
        let cfg = ForwardConfig::prefill(1, prompt);
        run_eager_forward_step(&mut rt, &mut inst, &cfg, Some(&kv_view), 1)
    })?;
    Ok(via_enumeration)
}

/// Runs the operation stream for `seconds`. With a recorder, every read is
/// also replayed with spans and every write runs as traced public calls.
pub fn run(st: &mut State, seconds: f64, rec: Option<&Recorder>) -> Report {
    let mut rng = Rng::new(st.seed ^ 0x0c01_d000);
    let mut reads = Stream::new(rng.next_u64());
    let mut writes = Stream::new(rng.next_u64());
    let mut store = ChunkStore::new();
    let mut report = Report::default();
    let mut restored: Vec<Restored> = Vec::new();
    let mut write_ms: Vec<f64> = Vec::new();
    let mut replays: Vec<Replayed> = Vec::new();
    let start = Instant::now();
    let mut busy_s = 0.0;
    let mut op = 0u64;
    while op == 0 || start.elapsed().as_secs_f64() < seconds {
        let write = op % WRITE_EVERY == WRITE_EVERY - 1;
        let k = if write { writes.next() } else { reads.next() };
        let op_seed = clean_seed(&mut rng, &st.targets[k].spec, st.targets[k].tp);
        let op_start = Instant::now();
        report.attempted += 1;
        if write {
            let t = &st.targets[k];
            let written = match rec {
                None => rematerialize(t, op_seed, &mut store),
                Some(rec) => rec.root(op).span("coldstart.materialize", |cx| {
                    let t0 = Instant::now();
                    let (arts, bytes) = materialize_traced(Some(cx), &t.spec, t.tp, op_seed)?;
                    cx.span("artifact.cdc_pack", |_| store.pack(&bytes))?;
                    let host_ms = ms(t0.elapsed());
                    cx.span("artifact.store_seal", |_| store.encode());
                    Ok((host_ms, arts, bytes))
                }),
            };
            match written {
                Ok((host_ms, arts, bytes)) => {
                    let bad = check_decode(t, &arts, &bytes);
                    if bad.is_empty() {
                        write_ms.push(host_ms);
                        st.targets[k].bytes = bytes;
                    }
                    report.fail(bad);
                }
                Err(e) => report.fail(vec![format!(
                    "{} tp={}: materialize: {e}",
                    t.spec.name(),
                    t.tp
                )]),
            }
        } else {
            let t = &st.targets[k];
            let prompt =
                (PROMPT_TOKENS.0 + rng.below(PROMPT_TOKENS.1 - PROMPT_TOKENS.0 + 1)) as u32;
            match restore(t, k, prompt, op_seed) {
                Ok(r) => restored.push(r),
                Err(bad) => report.fail(bad),
            }
            if let Some(rec) = rec {
                let replayed = rec.root(op).span("coldstart.restore", |cx| {
                    replay_restore(cx, t, prompt, op_seed)
                });
                match replayed {
                    Ok(r) => replays.push(r),
                    Err(e) => {
                        report.fail(vec![format!("{} tp={}: replay: {e}", t.spec.name(), t.tp)])
                    }
                }
            }
        }
        op += 1;
        busy_s += op_start.elapsed().as_secs_f64();
        crate::calibrate(&mut report.calibration_ms);
    }

    let host = sorted(restored.iter().map(|r| r.host_ms).collect());
    let ttft = sorted(restored.iter().map(|r| r.ttft_ms).collect());
    let loading_s = mean(&restored.iter().map(|r| r.loading_s).collect::<Vec<_>>());
    report.set("host_ms_p50", quantile(&host, 0.5));
    report.set("req_per_s", report.attempted as f64 / busy_s);
    report.set("sim_ttft_ms_mean", mean(&ttft));
    report.set("sim_ttft_ms_p99", quantile(&ttft, 0.99));
    let met = ttft.iter().filter(|&&v| v <= SLO_TTFT_MS).count();
    report.set(
        "slo_attained_pct",
        100.0 * met as f64 / ttft.len().max(1) as f64,
    );
    report.set("coldstart.host_ms_p90", quantile(&host, 0.9));
    report.set("sim.loading_s_mean", loading_s);
    for (i, name) in [
        "sim.stage.kv_cache_init_ms",
        "sim.stage.weights_ms",
        "sim.stage.tokenizer_ms",
        "sim.stage.restore_ms",
    ]
    .into_iter()
    .enumerate()
    {
        report.set(
            name,
            mean(&restored.iter().map(|r| r.stages_ms[i]).collect::<Vec<_>>()),
        );
    }
    let mem = |f: &dyn Fn(&MemoryStats) -> f64| {
        mean(&restored.iter().map(|r| f(&r.mem)).collect::<Vec<_>>())
    };
    report.set("gpu.allocations", mem(&|s| s.total_allocations as f64));
    report.set(
        "gpu.alloc_reuse_pct",
        mem(&|s| 100.0 * s.reused_allocations as f64 / s.total_allocations.max(1) as f64),
    );
    report.set(
        "gpu.device_peak_pct",
        mem(&|s| 100.0 * s.peak as f64 / s.capacity.max(1) as f64),
    );
    report.set("artifact.store_dedup_ratio", store.dedup_stats().ratio());
    report.notes.push(format!(
        "ops {} (restores {}, writes {}) in {busy_s:.2} s",
        report.attempted,
        restored.len(),
        report.attempted / WRITE_EVERY
    ));
    for (k, &(name, tp)) in TARGETS.iter().enumerate() {
        let mine: Vec<f64> = restored
            .iter()
            .filter(|r| r.target == k)
            .map(|r| r.host_ms)
            .collect();
        report.notes.push(format!(
            "{name} tp={tp}: {} restores, host p50 {:.2} ms, sim loading {}",
            mine.len(),
            median(&mine),
            st.targets[k].reference_loading
        ));
    }
    report.notes.push(format!(
        "coldstart_ms_p90 {:.3} ms over {} restores; materialize_ms_p50 {:.3} ms over {} writes; sim_loading_s_mean {:.6} s",
        quantile(&host, 0.9),
        host.len(),
        median(&write_ms),
        write_ms.len(),
        loading_s
    ));
    report.set("coldstart.materialize_ms_p50", median(&write_ms));
    if let Some(rec) = rec {
        finish_traced(&mut report, rec, &host, &replays);
    }
    report
}

/// Per-layer metrics of the traced run: mean self time per operation of
/// each replayed call, plus the tracing sanity checks.
fn finish_traced(report: &mut Report, rec: &Recorder, host: &[f64], replays: &[Replayed]) {
    let spans = rec.snapshot();
    let by_name = crate::spans::by_name(&spans);
    let roots = |name: &str| by_name.get(name).map_or(0, |&(_, n)| n).max(1) as f64;
    let (reads, writes) = (roots("coldstart.restore"), roots("coldstart.materialize"));
    for (name, &(self_ns, _)) in &by_name {
        let per = if name.starts_with("core.offline")
            || matches!(
                *name,
                "artifact.maf2_encode" | "artifact.cdc_pack" | "artifact.store_seal"
            ) {
            writes
        } else {
            reads
        };
        report.set(format!("{name}_ms"), self_ns as f64 / 1e6 / per);
    }
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    };
    report.set(
        "core.kernels_via_enumeration",
        mean(
            &replays
                .iter()
                .map(|r| r.via_enumeration as f64)
                .collect::<Vec<_>>(),
        ),
    );
    report.set(
        "artifact.bytes_read_pct",
        mean(&replays.iter().map(|r| r.bytes_read_pct).collect::<Vec<_>>()),
    );
    report.set("trace.coverage_pct", crate::spans::coverage_pct(&spans));
    report.set(
        "trace.overhead_pct",
        100.0 * (median(&durations("coldstart.restore")) / quantile(host, 0.5) - 1.0),
    );
}
