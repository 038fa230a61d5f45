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
//! Seed semantics: the single-instance path (no [`ColdStart::tp`] call)
//! consumes `opts.seed` directly, while the tensor-parallel path (any
//! `tp(n)` call, including `n = 1`) derives a seed per rank from it.

use crate::artifact::MaterializedState;
use crate::error::{MedusaError, MedusaResult};
use crate::faults::FaultPlan;
use crate::pipeline::{
    cold_start_impl, materialize_offline_shard_impl, ColdStartOptions, ColdStartReport,
    OfflineReport, Parallelism, ReadyEngine, Strategy, TriggeringMode,
};
use crate::tp::{cold_start_tp_impl, TpArtifacts, TpColdStart};
use crate::validator::ArtifactValidator;
use medusa_gpu::{CostModel, GpuSpec, SimDuration};
use medusa_model::ModelSpec;
use medusa_telemetry::Registry;

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
    /// Serving-ready engines, rank order (one entry on the single path).
    pub engines: Vec<ReadyEngine>,
    /// Per-rank timing reports.
    pub reports: Vec<ColdStartReport>,
    /// The parallelism mode the instance restored under.
    pub parallelism: Parallelism,
    /// End-of-loading synchronization across ranks (zero on the single
    /// path and for `tp = 1`).
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

    /// Mutable access to the first (or only) rank's engine.
    pub fn engine_mut(&mut self) -> &mut ReadyEngine {
        &mut self.engines[0]
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

impl From<TpColdStart> for ColdStartOutcome {
    fn from(tp: TpColdStart) -> Self {
        ColdStartOutcome {
            engines: tp.engines,
            reports: tp.reports,
            parallelism: tp.parallelism,
            sync: tp.sync,
            requested: Strategy::Vanilla,
            used: Strategy::Vanilla,
            fallback: None,
        }
    }
}

enum ArtifactSource<'a> {
    Single(&'a MaterializedState),
    Tp(&'a TpArtifacts),
    /// MAF2-encoded bundle bytes, validated header-first and materialized
    /// lazily (only the ranks this cold start restores).
    Bytes(&'a [u8]),
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
    /// validation on, no faults, no telemetry, single instance.
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

    /// Replaces the full option block (for callers that already hold one).
    pub fn options(mut self, opts: ColdStartOptions) -> Self {
        self.opts = opts;
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

    /// Runs as a `tp`-way tensor-parallel instance. Calling `tp(1)` still
    /// routes through the tensor-parallel path (per-rank seed derivation
    /// and barrier accounting); *not* calling it runs the plain
    /// single-process path that consumes the seed directly.
    pub fn tp(mut self, tp: u32) -> Self {
        self.tp = Some(tp);
        self
    }

    /// Supplies the materialized artifact for the single-instance path.
    pub fn artifact(mut self, artifact: &'a MaterializedState) -> Self {
        self.artifact = Some(ArtifactSource::Single(artifact));
        self
    }

    /// Supplies per-rank artifacts; implies `tp(artifacts.tp())` unless
    /// [`ColdStart::tp`] was called explicitly.
    pub fn artifacts(mut self, artifacts: &'a TpArtifacts) -> Self {
        if self.tp.is_none() {
            self.tp = Some(artifacts.tp());
        }
        self.artifact = Some(ArtifactSource::Tp(artifacts));
        self
    }

    /// Supplies a MAF2-encoded artifact bundle (see
    /// [`TpArtifacts::to_maf2`]) — the path a registry fetch feeds. The
    /// bundle is validated header-first against the shared section index
    /// and only the ranks this cold start restores are materialized; on the
    /// single-instance path that means reading one shard's sections, not
    /// the whole file. Binary fault classes
    /// ([`FaultPlan::apply_to_maf2`]) tamper the byte stream before open.
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

    /// Arms deterministic fault injection for this cold start.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Runs the offline materialization phase for this builder's target:
    /// one artifact per rank (a single rank without [`ColdStart::tp`]),
    /// using the builder's parallelism mode for cross-rank scheduling.
    ///
    /// The offline phase has its own process, hence its own `seed` —
    /// artifacts must restore across *different* process seeds.
    ///
    /// # Errors
    ///
    /// Propagates capture/analysis failures.
    pub fn materialize(&self, seed: u64) -> MedusaResult<(TpArtifacts, OfflineReport)> {
        let tp = self.tp.unwrap_or(1);
        match self.tp {
            None => {
                let (artifact, report) = materialize_offline_shard_impl(
                    self.spec,
                    0,
                    1,
                    self.gpu.clone(),
                    self.cost.clone(),
                    seed,
                )?;
                Ok((TpArtifacts::new(vec![artifact])?, report))
            }
            Some(_) => crate::tp::materialize_offline_tp_with(
                self.spec,
                tp,
                self.gpu.clone(),
                self.cost.clone(),
                seed,
                self.opts.parallelism,
            ),
        }
    }

    /// Runs the cold start.
    ///
    /// The ladder: artifact-level faults tamper a copy of the artifact;
    /// the validator rejects untrustworthy artifacts; a rejected artifact
    /// or a runtime failure on the Medusa path downgrades to a clean
    /// [`Strategy::Vanilla`] attempt, recorded on the outcome and in
    /// telemetry. Errors with nothing to degrade to (vanilla failures,
    /// [`MedusaError::ArtifactRequired`]) surface as typed errors.
    ///
    /// # Errors
    ///
    /// * [`MedusaError::ArtifactRequired`] for [`Strategy::Medusa`] with no
    ///   artifact supplied.
    /// * Propagated errors from non-degradable attempts.
    pub fn run(self) -> MedusaResult<ColdStartOutcome> {
        let requested = self.strategy;
        let mut opts = self.opts;
        if let Some(plan) = self.faults {
            opts.fault = Some(plan);
        }
        // A binary source is opened header-first and materialized lazily;
        // decode/validation failures degrade like any validation failure.
        // Binary fault classes tamper the byte stream before open, so the
        // decoded-artifact tampering below never applies to this path.
        if let Some(ArtifactSource::Bytes(raw)) = &self.artifact {
            let tampered_bytes: Option<Vec<u8>> = match self.faults {
                Some(plan) if !plan.is_empty() => Some(plan.apply_to_maf2(raw)),
                _ => None,
            };
            let bytes: &[u8] = tampered_bytes.as_deref().unwrap_or(raw);
            let decoded = match self.decode_validated(bytes, &opts) {
                Ok(ranks) => ranks,
                Err(err) if requested == Strategy::Medusa => {
                    if let Some(t) = self.tele {
                        t.inc_labeled("artifact_validation_failed", err.kind(), 1);
                    }
                    let fb = Fallback {
                        from: requested,
                        reason: err.kind(),
                        detail: err.to_string(),
                    };
                    return self.finish_fallback(requested, fb, opts);
                }
                Err(err) => return Err(err),
            };
            let refs: Vec<&MaterializedState> = decoded.iter().collect();
            return self.finish_attempt(requested, Some(&refs), opts);
        }

        // Artifact-level faults tamper copies; healthy runs borrow.
        let tampered: Option<Vec<MaterializedState>> = match (&self.artifact, self.faults) {
            (Some(src), Some(plan)) if !plan.is_empty() => {
                let ranks: Vec<MaterializedState> = match src {
                    ArtifactSource::Single(a) => vec![plan.apply_to_artifact(a)],
                    ArtifactSource::Tp(arts) => {
                        arts.iter().map(|a| plan.apply_to_artifact(a)).collect()
                    }
                    ArtifactSource::Bytes(_) => unreachable!("handled above"),
                };
                Some(ranks)
            }
            _ => None,
        };
        let rank_artifacts: Option<Vec<&MaterializedState>> = match (&tampered, &self.artifact) {
            (Some(t), _) => Some(t.iter().collect()),
            (None, Some(ArtifactSource::Single(a))) => Some(vec![a]),
            (None, Some(ArtifactSource::Tp(arts))) => Some(arts.iter().collect()),
            (None, Some(ArtifactSource::Bytes(_))) | (None, None) => None,
        };

        // Pre-restore validation (Medusa only): any failing check records
        // the reason and downgrades to the vanilla path (§7).
        let mut fallback: Option<Fallback> = None;
        if requested == Strategy::Medusa && self.validate_artifact {
            if let Some(ranks) = &rank_artifacts {
                if let Some(t) = self.tele {
                    t.inc("artifact_validation_total", ranks.len() as u64);
                }
                let base = ArtifactValidator::for_target(self.spec, &self.gpu);
                for (rank, artifact) in ranks.iter().enumerate() {
                    let validator = match self.tp {
                        Some(n) => base.clone().shard(rank as u32, n),
                        None => base.clone().shard(opts.rank, opts.tp),
                    };
                    if let Err(err) = validator.validate(artifact).ok() {
                        if let Some(t) = self.tele {
                            t.inc_labeled("artifact_validation_failed", err.kind(), 1);
                        }
                        fallback = Some(Fallback {
                            from: requested,
                            reason: err.kind(),
                            detail: err.to_string(),
                        });
                        break;
                    }
                }
            }
        }

        if let Some(fb) = fallback {
            // Degraded before the attempt: run vanilla, clean.
            return self.finish_fallback(requested, fb, opts);
        }

        self.finish_attempt(requested, rank_artifacts.as_deref(), opts)
    }

    /// The shared run tail: attempt the requested strategy, degrading a
    /// failed Medusa attempt (that had an artifact) to a clean vanilla run.
    fn finish_attempt(
        &self,
        requested: Strategy,
        rank_artifacts: Option<&[&MaterializedState]>,
        opts: ColdStartOptions,
    ) -> MedusaResult<ColdStartOutcome> {
        match self.attempt(requested, rank_artifacts, opts) {
            Ok(outcome) => Ok(self.stamp(outcome, requested, requested, None)),
            Err(err)
                if requested == Strategy::Medusa
                    && self.artifact.is_some()
                    && !matches!(err, MedusaError::ArtifactRequired) =>
            {
                let fb = Fallback {
                    from: requested,
                    reason: err.kind(),
                    detail: err.to_string(),
                };
                self.finish_fallback(requested, fb, opts)
            }
            Err(err) => Err(err),
        }
    }

    /// Opens a MAF2 bundle and validates it header-first against the shared
    /// section index (one open, per-rank ShardMeta reads — validation work
    /// no longer scales with tp), then materializes only the ranks this
    /// cold start restores: every rank on the tensor-parallel path, exactly
    /// `opts.rank`'s sections on the single path.
    fn decode_validated(
        &self,
        bytes: &[u8],
        opts: &ColdStartOptions,
    ) -> MedusaResult<Vec<MaterializedState>> {
        let reader = crate::artifact::maf2::Maf2Reader::open(bytes)?;
        if self.validate_artifact && self.strategy == Strategy::Medusa {
            if let Some(t) = self.tele {
                t.inc("artifact_validation_total", reader.shard_count() as u64);
            }
            let base = ArtifactValidator::for_target(self.spec, &self.gpu);
            match self.tp {
                Some(_) => {
                    for (_rank, report) in base.validate_bundle(&reader) {
                        report.ok()?;
                    }
                }
                None => {
                    base.shard(opts.rank, opts.tp).validate_maf2(&reader).ok()?;
                }
            }
        }
        match self.tp {
            Some(_) => reader.materialize_all(),
            None => Ok(vec![reader.shard(opts.rank)?.clone()]),
        }
    }

    /// Runs the clean vanilla attempt after a degradation and stamps the
    /// fallback record onto the outcome.
    fn finish_fallback(
        &self,
        requested: Strategy,
        fb: Fallback,
        mut opts: ColdStartOptions,
    ) -> MedusaResult<ColdStartOutcome> {
        if let Some(t) = self.tele {
            t.inc("coldstart_fallback_total", 1);
            t.inc_labeled("coldstart_fallback", fb.reason, 1);
        }
        // Injected faults fire at most once: the fallback attempt is clean.
        opts.fault = None;
        let outcome = self.attempt(Strategy::Vanilla, None, opts)?;
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

    /// One attempt with the given strategy: routes to the single-process
    /// impl (no `tp()` call) or the tensor-parallel impl.
    fn attempt(
        &self,
        strategy: Strategy,
        rank_artifacts: Option<&[&MaterializedState]>,
        opts: ColdStartOptions,
    ) -> MedusaResult<ColdStartOutcome> {
        match self.tp {
            None => {
                let art = rank_artifacts.and_then(|r| r.first().copied());
                let (engine, report) = cold_start_impl(
                    strategy,
                    self.spec,
                    self.gpu.clone(),
                    self.cost.clone(),
                    art,
                    opts,
                    self.tele,
                )?;
                Ok(ColdStartOutcome {
                    engines: vec![engine],
                    reports: vec![report],
                    parallelism: opts.parallelism,
                    sync: SimDuration::ZERO,
                    requested: strategy,
                    used: strategy,
                    fallback: None,
                })
            }
            Some(tp) => {
                let owned_tp: Option<TpArtifacts> = match rank_artifacts {
                    None => None,
                    Some(ranks) => Some(TpArtifacts::new(
                        ranks.iter().map(|a| (*a).clone()).collect(),
                    )?),
                };
                let out = cold_start_tp_impl(
                    strategy,
                    self.spec,
                    tp,
                    self.gpu.clone(),
                    self.cost.clone(),
                    owned_tp.as_ref(),
                    opts,
                    self.tele,
                )?;
                Ok(ColdStartOutcome::from(out))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultKind;

    fn spec() -> ModelSpec {
        ModelSpec::by_name("Qwen1.5-0.5B").unwrap()
    }

    fn arts() -> TpArtifacts {
        ColdStart::new(&spec()).materialize(41).unwrap().0
    }

    #[test]
    fn builder_single_path_matches_the_free_function() {
        let s = spec();
        let opts = ColdStartOptions {
            seed: 7,
            ..Default::default()
        };
        let (_e, direct) = cold_start_impl(
            Strategy::Vanilla,
            &s,
            GpuSpec::a100_40gb(),
            CostModel::default(),
            None,
            opts,
            None,
        )
        .unwrap();
        let outcome = ColdStart::new(&s).options(opts).run().unwrap();
        assert_eq!(outcome.report(), &direct);
        assert_eq!(outcome.loading(), direct.loading);
        assert_eq!(outcome.total(), direct.total);
        assert!(outcome.fallback().is_none());
        let (_engine, report) = outcome.into_single();
        assert_eq!(report, direct);
    }

    #[test]
    fn builder_tp_path_matches_the_tp_function() {
        let s = spec();
        let direct = cold_start_tp_impl(
            Strategy::NoCudaGraph,
            &s,
            2,
            GpuSpec::a100_40gb(),
            CostModel::default(),
            None,
            ColdStartOptions::default(),
            None,
        )
        .unwrap();
        let outcome = ColdStart::new(&s)
            .strategy(Strategy::NoCudaGraph)
            .tp(2)
            .run()
            .unwrap();
        assert_eq!(outcome.reports, direct.reports);
        assert_eq!(outcome.sync, direct.sync);
        assert_eq!(outcome.loading(), direct.loading());
        assert_eq!(outcome.aggregate_work(), direct.aggregate_work());
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
