//! The unified cold-start entry point.
//!
//! [`ColdStart`] is the one way to run a cold start — single-rank or
//! tensor-parallel, with or without telemetry — and
//! [`ColdStart::materialize`] runs the matching offline phase:
//!
//! ```
//! use medusa::{ColdStart, Strategy};
//! use medusa_model::ModelSpec;
//!
//! let spec = ModelSpec::by_name("Qwen1.5-0.5B").unwrap();
//! let (artifacts, _offline) = ColdStart::new(&spec).materialize(41).unwrap();
//! let outcome = ColdStart::new(&spec)
//!     .strategy(Strategy::Medusa)
//!     .artifacts(&artifacts)
//!     .seed(7)
//!     .run()
//!     .unwrap();
//! assert_eq!(outcome.strategy_used(), Strategy::Medusa);
//! assert!(outcome.fallback().is_none());
//! ```
//!
//! Beyond ergonomics, the builder owns the **degradation ladder** (§7): when
//! a Medusa artifact fails validation ([`crate::validator::ArtifactValidator`])
//! or the restore path errors at runtime, the cold start is downgraded to
//! [`Strategy::Vanilla`], the reason is recorded on the outcome and in
//! telemetry (`coldstart_fallback_{kind}_total`), and serving still starts.
//! Fault injection plugs in through [`ColdStart::faults`]: artifact-level
//! faults tamper a *copy* of the artifact before validation, runtime faults
//! fire inside the pipeline. The fallback attempt runs clean — an injected
//! fault fires at most once.
//!
//! Every cold start runs a group of `tp` ranks: the degree is
//! [`ColdStart::tp`], else the degree of [`ColdStart::artifacts`], else 1 —
//! a single GPU is simply `tp = 1`. One seed rule holds for every degree:
//! rank `r` of a restore runs with `seed ^ (0x9a_0000 + r)`, and rank `r`
//! of [`ColdStart::materialize`] with `seed ^ (0x7a_0000 + r)`.

use crate::artifact::maf2::Maf2Reader;
use crate::artifact::{MaterializedState, ShardRead};
use crate::engine::par_map;
use crate::error::{MedusaError, MedusaResult};
use crate::faults::FaultPlan;
use crate::pipeline::{
    cold_start_impl, is_serial, materialize_offline_shard_impl, ColdStartOptions, ColdStartReport,
    OfflineReport, Parallelism, ReadyEngine, Strategy, TriggeringMode,
};
use crate::tp::TpArtifacts;
use crate::validator::ArtifactValidator;
use medusa_gpu::{CostModel, GpuSpec, SimDuration};
use medusa_model::{ModelSpec, Tokenizer};
use medusa_telemetry::Registry;
use std::borrow::Cow;

/// Why a cold start was downgraded to the vanilla path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fallback {
    /// The strategy originally requested.
    pub from: Strategy,
    /// Stable error kind that triggered the downgrade
    /// ([`MedusaError::kind`]).
    pub reason: &'static str,
    /// Human-readable detail (the error's display).
    pub detail: String,
}

/// What a [`ColdStart::run`] produced: per-rank engines and reports plus
/// the degradation record.
#[derive(Debug)]
pub struct ColdStartOutcome {
    /// Serving-ready engines, rank order (one entry for `tp = 1`).
    pub engines: Vec<ReadyEngine>,
    /// Per-rank timing reports.
    pub reports: Vec<ColdStartReport>,
    /// The parallelism mode the instance restored under.
    pub parallelism: Parallelism,
    /// End-of-loading synchronization across ranks (zero for `tp = 1`).
    pub sync: SimDuration,
    requested: Strategy,
    used: Strategy,
    fallback: Option<Fallback>,
}

impl ColdStartOutcome {
    /// The strategy that was requested.
    pub fn strategy_requested(&self) -> Strategy {
        self.requested
    }

    /// The strategy that actually served (differs from the request after a
    /// fallback).
    pub fn strategy_used(&self) -> Strategy {
        self.used
    }

    /// The degradation record, if the cold start fell back to vanilla.
    pub fn fallback(&self) -> Option<&Fallback> {
        self.fallback.as_ref()
    }

    /// The first (or only) rank's report.
    pub fn report(&self) -> &ColdStartReport {
        &self.reports[0]
    }

    /// Consumes a single-rank outcome into `(engine, report)`.
    ///
    /// # Panics
    ///
    /// Panics if the outcome has more than one rank.
    pub fn into_single(mut self) -> (ReadyEngine, ColdStartReport) {
        assert_eq!(self.engines.len(), 1, "into_single on a tp>1 outcome");
        (self.engines.remove(0), self.reports.remove(0))
    }

    /// The instance's loading-phase duration (rank rollup per the
    /// parallelism mode, plus the cross-rank barrier).
    pub fn loading(&self) -> SimDuration {
        self.rollup(|r| r.loading) + self.sync
    }

    /// The instance's full cold-start duration, rolled up like
    /// [`ColdStartOutcome::loading`].
    pub fn total(&self) -> SimDuration {
        self.rollup(|r| r.total) + self.sync
    }

    /// Aggregate loading-phase work across ranks (resource-time consumed
    /// regardless of overlap).
    pub fn aggregate_work(&self) -> SimDuration {
        self.reports.iter().map(ColdStartReport::work).sum()
    }

    fn rollup(&self, f: impl Fn(&ColdStartReport) -> SimDuration) -> SimDuration {
        if self.parallelism == Parallelism::Serial {
            self.reports.iter().map(f).sum()
        } else {
            self.reports
                .iter()
                .map(f)
                .max()
                .unwrap_or(SimDuration::ZERO)
        }
    }

    /// A stable, deterministic one-line JSON summary of the outcome —
    /// same-seed runs (faulty or not) produce byte-identical strings.
    pub fn summary_json(&self) -> String {
        let fb = match &self.fallback {
            None => "null".to_string(),
            Some(f) => format!(
                "{{\"from\":\"{}\",\"reason\":\"{}\",\"detail\":\"{}\"}}",
                f.from,
                f.reason,
                f.detail.replace('\\', "\\\\").replace('"', "\\\"")
            ),
        };
        format!(
            "{{\"requested\":\"{}\",\"used\":\"{}\",\"fallback\":{},\"ranks\":{},\"loading_ns\":{},\"total_ns\":{}}}",
            self.requested,
            self.used,
            fb,
            self.reports.len(),
            self.loading().as_nanos(),
            self.total().as_nanos()
        )
    }
}

enum ArtifactSource<'a> {
    /// Per-rank artifacts, rank order.
    Ranks(Vec<&'a MaterializedState>),
    /// MAF2-encoded bundle bytes: each rank verifies and restores its own
    /// shard in place.
    Bytes(&'a [u8]),
}

/// Why an attempt produced no outcome.
enum Failure {
    /// An artifact was rejected before any rank restored: it could not be
    /// opened or read, or a shard failed validation.
    Rejected(MedusaError),
    /// The cold start itself failed.
    Runtime(MedusaError),
}

/// Builder for cold starts: strategy, target, options, artifacts,
/// telemetry, and fault injection in one place, with graceful degradation
/// to the vanilla path on any validation or restore failure.
pub struct ColdStart<'a> {
    spec: &'a ModelSpec,
    strategy: Strategy,
    gpu: GpuSpec,
    cost: CostModel,
    opts: ColdStartOptions,
    tp: Option<u32>,
    artifact: Option<ArtifactSource<'a>>,
    tele: Option<&'a Registry>,
    faults: Option<FaultPlan>,
    validate_artifact: bool,
}

impl<'a> ColdStart<'a> {
    /// Starts a builder for `spec` with defaults: [`Strategy::Vanilla`] on
    /// an A100-40GB with the default cost model and options, artifact
    /// validation on, no faults, no telemetry, one GPU.
    pub fn new(spec: &'a ModelSpec) -> Self {
        ColdStart {
            spec,
            strategy: Strategy::Vanilla,
            gpu: GpuSpec::a100_40gb(),
            cost: CostModel::default(),
            opts: ColdStartOptions::default(),
            tp: None,
            artifact: None,
            tele: None,
            faults: None,
            validate_artifact: true,
        }
    }

    /// Sets the cold-start strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the GPU the instance restores onto.
    pub fn gpu(mut self, gpu: GpuSpec) -> Self {
        self.gpu = gpu;
        self
    }

    /// Sets the simulation cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the process seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.opts.seed = seed;
        self
    }

    /// Starts from a warm container (no runtime init).
    pub fn warm(mut self, warm: bool) -> Self {
        self.opts.warm_container = warm;
        self
    }

    /// Runs validation forwardings on every restored graph (Medusa only).
    pub fn validate_graphs(mut self, validate: bool) -> Self {
        self.opts.validate = validate;
        self
    }

    /// Enables/disables pre-restore artifact validation (on by default).
    pub fn validate_artifact(mut self, validate: bool) -> Self {
        self.validate_artifact = validate;
        self
    }

    /// Sets the triggering mode for hidden kernel modules.
    pub fn triggering(mut self, mode: TriggeringMode) -> Self {
        self.opts.triggering = mode;
        self
    }

    /// Sets the stage/rank parallelism mode.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.opts.parallelism = parallelism;
        self
    }

    /// Sets the first-token prompt length.
    pub fn first_token_prompt(mut self, tokens: u32) -> Self {
        self.opts.first_token_prompt = tokens;
        self
    }

    /// Runs as a `tp`-way tensor-parallel instance (default: the degree of
    /// [`ColdStart::artifacts`], else 1).
    pub fn tp(mut self, tp: u32) -> Self {
        self.tp = Some(tp);
        self
    }

    /// Supplies the materialized artifact of a single-GPU (`tp = 1`)
    /// instance.
    pub fn artifact(mut self, artifact: &'a MaterializedState) -> Self {
        self.artifact = Some(ArtifactSource::Ranks(vec![artifact]));
        self
    }

    /// Supplies per-rank artifacts; implies `tp(artifacts.tp())` unless
    /// [`ColdStart::tp`] was called explicitly.
    pub fn artifacts(mut self, artifacts: &'a TpArtifacts) -> Self {
        self.tp.get_or_insert(artifacts.tp());
        self.artifact = Some(ArtifactSource::Ranks(artifacts.iter().collect()));
        self
    }

    /// Supplies a MAF2-encoded artifact bundle (see
    /// [`TpArtifacts::to_maf2`]) — the path a registry fetch feeds. The
    /// bundle is opened once; each rank then verifies its own shard on its
    /// worker, in one pass that yields a borrowed view of the shard's
    /// records, and restores from that view in place. Every artifact class
    /// of a fault plan ([`FaultPlan::apply_to_maf2`]) tampers the byte
    /// stream before open.
    pub fn artifact_bytes(mut self, bytes: &'a [u8]) -> Self {
        self.artifact = Some(ArtifactSource::Bytes(bytes));
        self
    }

    /// Records spans and metrics into `tele` (validation outcomes and
    /// fallbacks included).
    pub fn telemetry(mut self, tele: &'a Registry) -> Self {
        self.tele = Some(tele);
        self
    }

    /// Arms deterministic fault injection for this cold start — the only
    /// way to arm a plan. Its artifact classes tamper a copy of the
    /// artifact, from either source, before validation; its runtime
    /// classes fire inside the first attempt only.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Runs the offline materialization phase for this builder's target:
    /// one artifact per rank, rank `r` capturing with
    /// `seed ^ (0x7a_0000 + r)`. Under [`Parallelism::Serial`] ranks
    /// materialize one after another (the reported durations are the sum);
    /// otherwise every rank runs on its own worker thread — real host
    /// parallelism — and the reported durations are the slowest rank's.
    ///
    /// The offline phase has its own process, hence its own `seed` —
    /// artifacts must restore across *different* process seeds.
    ///
    /// # Errors
    ///
    /// Propagates capture/analysis failures.
    pub fn materialize(&self, seed: u64) -> MedusaResult<(TpArtifacts, OfflineReport)> {
        let tp = self.degree();
        let parallelism = self.opts.parallelism;
        let results = for_each_rank((0..tp).collect(), parallelism, |rank| {
            materialize_offline_shard_impl(
                self.spec,
                rank,
                tp,
                self.gpu.clone(),
                self.cost.clone(),
                seed ^ (0x7a_0000 + rank as u64),
            )
        });
        let mut ranks = Vec::with_capacity(tp as usize);
        let mut report = OfflineReport {
            capture: SimDuration::ZERO,
            analysis: SimDuration::ZERO,
        };
        for result in results {
            let (artifact, r) = result?;
            if parallelism == Parallelism::Serial {
                report.capture += r.capture;
                report.analysis += r.analysis;
            } else {
                report.capture = report.capture.max(r.capture);
                report.analysis = report.analysis.max(r.analysis);
            }
            ranks.push(artifact);
        }
        Ok((TpArtifacts::sealed(ranks)?, report))
    }

    /// Runs the cold start.
    ///
    /// The ladder: artifact-level faults tamper a copy of the artifact;
    /// each rank's worker verifies its own shard, and no rank restores
    /// unless every shard verified; a rejected artifact or a runtime
    /// failure on the Medusa path downgrades to a clean
    /// [`Strategy::Vanilla`] attempt, recorded on the outcome and in
    /// telemetry. A rejection names the first failing rank in rank order.
    /// Errors with nothing to degrade to (vanilla failures,
    /// [`MedusaError::ArtifactRequired`]) surface as typed errors.
    ///
    /// # Errors
    ///
    /// * [`MedusaError::ArtifactRequired`] for [`Strategy::Medusa`] with no
    ///   artifact supplied.
    /// * [`MedusaError::ArtifactMismatch`] when the artifacts' degree is
    ///   not the group's and the strategy cannot degrade.
    /// * Propagated errors from non-degradable attempts.
    pub fn run(self) -> MedusaResult<ColdStartOutcome> {
        let requested = self.strategy;
        let result = match &self.artifact {
            None => self.attempt_without_artifact(requested, self.faults),
            Some(ArtifactSource::Bytes(raw)) => self.attempt_from_bytes(raw),
            Some(ArtifactSource::Ranks(arts)) => self.attempt_from_artifacts(arts),
        };
        match result {
            Ok(outcome) => Ok(self.stamp(outcome, requested, requested, None)),
            // Pre-restore rejection (§7): record the reason and degrade.
            Err(Failure::Rejected(err)) if requested == Strategy::Medusa => {
                if let Some(t) = self.tele {
                    t.inc_labeled("artifact_validation_failed", err.kind(), 1);
                }
                self.finish_fallback(requested, &err)
            }
            Err(Failure::Runtime(err))
                if requested == Strategy::Medusa
                    && self.artifact.is_some()
                    && !matches!(err, MedusaError::ArtifactRequired) =>
            {
                self.finish_fallback(requested, &err)
            }
            Err(Failure::Rejected(err) | Failure::Runtime(err)) => Err(err),
        }
    }

    /// The group's tensor-parallel degree: [`ColdStart::tp`], else the
    /// degree of [`ColdStart::artifacts`] (which sets it), else 1.
    fn degree(&self) -> u32 {
        let tp = self.tp.unwrap_or(1);
        assert!(tp > 0, "tensor-parallel degree must be positive");
        tp
    }

    /// Whether the artifact is validated before the restore.
    fn checks_artifact(&self) -> bool {
        self.validate_artifact && self.strategy == Strategy::Medusa
    }

    /// Counts the shards about to be validated.
    fn count_validations(&self, shards: usize) {
        if let Some(t) = self.tele.filter(|_| self.checks_artifact()) {
            t.inc("artifact_validation_total", shards as u64);
        }
    }

    /// An attempt from a MAF2 bundle: artifact-level faults tamper the
    /// bytes, the bundle is opened once (O(header + index)), and each rank
    /// validates its own shard with [`ArtifactValidator::validate_maf2`]
    /// against its declared rank and the bundle's tp — or, with validation
    /// off, only reads it — and restores from the shard's
    /// [`Maf2Reader::view`].
    fn attempt_from_bytes(&self, raw: &[u8]) -> Result<ColdStartOutcome, Failure> {
        let tampered = self
            .faults
            .filter(|p| !p.is_empty())
            .map(|p| p.apply_to_maf2(raw));
        let reader =
            Maf2Reader::open(tampered.as_deref().unwrap_or(raw)).map_err(Failure::Rejected)?;
        let ranks = reader.shard_ranks();
        self.count_validations(ranks.len());
        let validator = self
            .checks_artifact()
            .then(|| ArtifactValidator::for_target(self.spec, &self.gpu));
        self.attempt(
            self.strategy,
            Some(&ranks),
            |&rank| {
                if let Some(v) = &validator {
                    v.clone()
                        .shard(rank, reader.tp())
                        .validate_maf2(&reader)
                        .ok()?;
                }
                reader.view(rank)
            },
            self.faults,
        )
    }

    /// An attempt from in-memory artifacts: artifact-level faults tamper
    /// copies (healthy artifacts are borrowed), and each rank validates its
    /// own artifact against `(rank, tp)` before any rank restores.
    fn attempt_from_artifacts(
        &self,
        arts: &[&'a MaterializedState],
    ) -> Result<ColdStartOutcome, Failure> {
        let ranks: Vec<Cow<'a, MaterializedState>> = match self.faults.filter(|p| !p.is_empty()) {
            Some(p) => arts
                .iter()
                .map(|a| Cow::Owned(p.apply_to_artifact(a)))
                .collect(),
            None => arts.iter().map(|&a| Cow::Borrowed(a)).collect(),
        };
        self.count_validations(ranks.len());
        let validator = self
            .checks_artifact()
            .then(|| ArtifactValidator::for_target(self.spec, &self.gpu));
        let tp = self.degree();
        let indexed: Vec<(u32, &MaterializedState)> =
            (0..).zip(ranks.iter().map(|a| a.as_ref())).collect();
        self.attempt(
            self.strategy,
            Some(&indexed),
            |&(rank, artifact)| {
                if let Some(v) = &validator {
                    v.clone().shard(rank, tp).validate(artifact).ok()?;
                }
                Ok(artifact)
            },
            self.faults,
        )
    }

    /// An attempt with no artifact.
    fn attempt_without_artifact(
        &self,
        strategy: Strategy,
        fault: Option<FaultPlan>,
    ) -> Result<ColdStartOutcome, Failure> {
        self.attempt::<(), MaterializedState>(
            strategy,
            None,
            |_| Err(MedusaError::ArtifactRequired),
            fault,
        )
    }

    /// Runs the clean vanilla attempt after a degradation and stamps the
    /// fallback record (from `err`) onto the outcome.
    fn finish_fallback(
        &self,
        requested: Strategy,
        err: &MedusaError,
    ) -> MedusaResult<ColdStartOutcome> {
        let fb = Fallback {
            from: requested,
            reason: err.kind(),
            detail: err.to_string(),
        };
        if let Some(t) = self.tele {
            t.inc("coldstart_fallback_total", 1);
            t.inc_labeled("coldstart_fallback", fb.reason, 1);
        }
        // Injected faults fire at most once: the fallback attempt is clean.
        let outcome = match self.attempt_without_artifact(Strategy::Vanilla, None) {
            Ok(outcome) => outcome,
            Err(Failure::Rejected(err) | Failure::Runtime(err)) => return Err(err),
        };
        Ok(self.stamp(outcome, requested, Strategy::Vanilla, Some(fb)))
    }

    fn stamp(
        &self,
        mut outcome: ColdStartOutcome,
        requested: Strategy,
        used: Strategy,
        fallback: Option<Fallback>,
    ) -> ColdStartOutcome {
        outcome.requested = requested;
        outcome.used = used;
        outcome.fallback = fallback;
        outcome
    }

    /// One attempt with the given strategy: cold-starts ranks `0..tp`, rank
    /// `r` with process seed `seed ^ (0x9a_0000 + r)` and `fault`'s runtime
    /// classes armed, then accounts the cross-rank barrier (`tp_sync_us`).
    ///
    /// In the verify phase every input shard runs through `verify` on its
    /// rank's worker; only when every shard verified does the restore
    /// phase run, on per-rank workers, from the verified shards. Where the
    /// stage graph has a host lane, each rank's tokenizer loads on its own
    /// host thread from the start of the restore phase, so it overlaps the
    /// rank's whole restore: the thread opens the process's vocabulary file
    /// ([`Tokenizer::vocab_file`], written once per vocabulary size) and
    /// verifies every byte of it, and shares no built tokenizer with any
    /// other load. A serial start opens it in line.
    ///
    /// With telemetry, every rank shares the registry: per-rank stage spans
    /// land under `rank{r}/`-prefixed names when `tp > 1`; the registry is
    /// internally synchronized and every write is commutative or
    /// rank-keyed, so concurrent rank threads still produce a deterministic
    /// snapshot.
    fn attempt<'v, T: Sync, S: ShardRead + Sync + ?Sized + 'v>(
        &self,
        strategy: Strategy,
        inputs: Option<&'v [T]>,
        verify: impl Fn(&'v T) -> MedusaResult<&'v S> + Sync,
        fault: Option<FaultPlan>,
    ) -> Result<ColdStartOutcome, Failure> {
        let (tp, opts) = (self.degree(), self.opts);
        let (vocab, cost) = (self.spec.vocab(), &self.cost);
        std::thread::scope(|scope| {
            let shards = match inputs {
                None => None,
                Some(inputs) => Some(
                    for_each_rank(inputs.iter().collect(), opts.parallelism, &verify)
                        .into_iter()
                        .collect::<MedusaResult<Vec<&S>>>()
                        .map_err(Failure::Rejected)?,
                ),
            };
            if let Some(shards) = &shards {
                if shards.len() != tp as usize {
                    return Err(Failure::Runtime(MedusaError::ArtifactMismatch {
                        artifact: format!("tp={}", shards.len()),
                        target: format!("tp={tp}"),
                    }));
                }
            }
            // A serial start has no host lane: it loads the tokenizer in
            // line.
            let host_lane = !is_serial(strategy, opts.parallelism);
            let tokenizers = (0..tp)
                .map(|_| host_lane.then(|| scope.spawn(move || Tokenizer::load(vocab, cost).0)));
            let results = for_each_rank(
                (0..tp).zip(tokenizers).collect(),
                opts.parallelism,
                |(rank, tokenizer)| {
                    let rank_opts = ColdStartOptions {
                        seed: opts.seed ^ (0x9a_0000 + rank as u64),
                        ..opts
                    };
                    cold_start_impl(
                        strategy,
                        self.spec,
                        self.gpu.clone(),
                        self.cost.clone(),
                        shards.as_ref().map(|s| s[rank as usize]),
                        (rank, tp),
                        rank_opts,
                        fault,
                        self.tele,
                        || match tokenizer {
                            Some(thread) => thread.join().expect("tokenizer thread panicked"),
                            None => Tokenizer::load(vocab, cost).0,
                        },
                    )
                },
            );
            let (engines, reports) = results
                .into_iter()
                .collect::<MedusaResult<Vec<_>>>()
                .map_err(Failure::Runtime)?
                .into_iter()
                .unzip();
            let sync = if tp > 1 {
                SimDuration::from_nanos(self.cost.sync_ns * tp as u64)
            } else {
                SimDuration::ZERO
            };
            if let Some(t) = self.tele {
                t.inc("tp_cold_starts_total", 1);
                t.observe_us("tp_sync_us", sync.as_nanos() / 1_000);
            }
            Ok(ColdStartOutcome {
                engines,
                reports,
                parallelism: opts.parallelism,
                sync,
                requested: strategy,
                used: strategy,
                fallback: None,
            })
        })
    }
}

/// Runs `f` over one item per rank: one after another under
/// [`Parallelism::Serial`], otherwise on worker threads. Each rank owns an
/// independent process runtime, so simulated results never observe host
/// scheduling.
fn for_each_rank<T: Send, R: Send>(
    items: Vec<T>,
    parallelism: Parallelism,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    if parallelism == Parallelism::Serial {
        items.into_iter().map(f).collect()
    } else {
        par_map(items, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultKind;
    use crate::pipeline::test_tokenizer;

    fn spec() -> ModelSpec {
        ModelSpec::by_name("Qwen1.5-0.5B").unwrap()
    }

    fn arts() -> TpArtifacts {
        ColdStart::new(&spec()).materialize(41).unwrap().0
    }

    #[test]
    fn builder_single_path_matches_the_free_function() {
        let s = spec();
        // A single GPU is rank 0 of a tp = 1 group: it runs on the derived
        // rank seed, not on the raw one.
        let (direct_engine, direct) = cold_start_impl(
            Strategy::Vanilla,
            &s,
            GpuSpec::a100_40gb(),
            CostModel::default(),
            None::<&MaterializedState>,
            (0, 1),
            ColdStartOptions {
                seed: 7 ^ 0x9a_0000,
                ..Default::default()
            },
            None,
            None,
            test_tokenizer(&s),
        )
        .unwrap();
        let outcome = ColdStart::new(&s).seed(7).run().unwrap();
        assert_eq!(outcome.report(), &direct);
        assert_eq!(outcome.loading(), direct.loading);
        assert_eq!(outcome.total(), direct.total);
        assert_eq!(outcome.sync, SimDuration::ZERO);
        assert!(outcome.fallback().is_none());
        let (engine, report) = outcome.into_single();
        assert_eq!(report, direct);
        assert_eq!(engine.rt.seed(), direct_engine.rt.seed());
        assert_eq!(engine.rt.seed(), 7 ^ 0x9a_0000);
    }

    #[test]
    fn healthy_medusa_does_not_fall_back() {
        let s = spec();
        let a = arts();
        let outcome = ColdStart::new(&s)
            .strategy(Strategy::Medusa)
            .artifacts(&a)
            .seed(9)
            .run()
            .unwrap();
        assert_eq!(outcome.strategy_used(), Strategy::Medusa);
        assert!(outcome.fallback().is_none());
        assert_eq!(outcome.engines.len(), 1);
    }

    #[test]
    fn corrupt_artifact_degrades_to_vanilla_with_reason() {
        let s = spec();
        let a = arts();
        let tele = Registry::new();
        let outcome = ColdStart::new(&s)
            .strategy(Strategy::Medusa)
            .artifacts(&a)
            .telemetry(&tele)
            .faults(FaultPlan::single(FaultKind::CorruptArtifact, 13))
            .run()
            .unwrap();
        assert_eq!(outcome.strategy_requested(), Strategy::Medusa);
        assert_eq!(outcome.strategy_used(), Strategy::Vanilla);
        let fb = outcome.fallback().unwrap();
        assert_eq!(fb.reason, "checksum_mismatch");
        let snap = tele.snapshot();
        assert_eq!(snap.counter("coldstart_fallback_total"), Some(1));
        assert_eq!(
            snap.counter("coldstart_fallback_checksum_mismatch_total"),
            Some(1)
        );
        assert_eq!(
            snap.counter("artifact_validation_failed_checksum_mismatch_total"),
            Some(1)
        );
    }

    #[test]
    fn runtime_fault_on_medusa_degrades_but_vanilla_errors() {
        let s = spec();
        let a = arts();
        let outcome = ColdStart::new(&s)
            .strategy(Strategy::Medusa)
            .artifacts(&a)
            .faults(FaultPlan::single(FaultKind::TruncatedWeights, 21))
            .run()
            .unwrap();
        assert_eq!(outcome.strategy_used(), Strategy::Vanilla);
        assert_eq!(
            outcome.fallback().unwrap().reason,
            "weight_stream_truncated"
        );
        // Vanilla has nothing to degrade to: the fault surfaces typed.
        let err = ColdStart::new(&s)
            .faults(FaultPlan::single(FaultKind::TruncatedWeights, 21))
            .run()
            .unwrap_err();
        assert_eq!(err.kind(), "weight_stream_truncated");
    }

    #[test]
    fn medusa_without_artifact_is_still_a_hard_error() {
        let err = ColdStart::new(&spec())
            .strategy(Strategy::Medusa)
            .run()
            .unwrap_err();
        assert!(matches!(err, MedusaError::ArtifactRequired));
    }

    #[test]
    fn binary_bundle_cold_start_matches_decoded_artifacts() {
        let s = spec();
        let a = arts();
        let bytes = a.to_maf2().unwrap();
        let from_arts = ColdStart::new(&s)
            .strategy(Strategy::Medusa)
            .artifacts(&a)
            .seed(9)
            .run()
            .unwrap();
        let from_bytes = ColdStart::new(&s)
            .strategy(Strategy::Medusa)
            .tp(a.tp())
            .artifact_bytes(&bytes)
            .seed(9)
            .run()
            .unwrap();
        assert_eq!(from_bytes.strategy_used(), Strategy::Medusa);
        assert!(from_bytes.fallback().is_none());
        assert_eq!(from_bytes.reports, from_arts.reports);
    }

    #[test]
    fn tampered_binary_bundle_degrades_to_vanilla() {
        let s = spec();
        let a = arts();
        let bytes = a.to_maf2().unwrap();
        let tele = Registry::new();
        let outcome = ColdStart::new(&s)
            .strategy(Strategy::Medusa)
            .tp(a.tp())
            .artifact_bytes(&bytes)
            .telemetry(&tele)
            .faults(FaultPlan::single(FaultKind::TruncatedWeights, 17))
            .run()
            .unwrap();
        assert_eq!(outcome.strategy_used(), Strategy::Vanilla);
        let fb = outcome.fallback().unwrap();
        assert_eq!(fb.reason, "artifact_corrupt");
        let snap = tele.snapshot();
        assert_eq!(snap.counter("coldstart_fallback_total"), Some(1));
        assert_eq!(
            snap.counter("artifact_validation_failed_artifact_corrupt_total"),
            Some(1)
        );
    }

    #[test]
    fn same_seed_fault_runs_are_reproducible() {
        let s = spec();
        let a = arts();
        let run = || {
            ColdStart::new(&s)
                .strategy(Strategy::Medusa)
                .artifacts(&a)
                .seed(3)
                .faults(FaultPlan::matrix(77))
                .run()
                .unwrap()
                .summary_json()
        };
        assert_eq!(run(), run());
    }
}
