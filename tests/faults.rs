//! Fault-injection properties (paper §7: graceful degradation).
//!
//! The contract pinned here: under **every** fault class in the
//! deterministic [`FaultPlan`] matrix — corrupt artifact, version skew,
//! missing library, truncated weights, mid-stage abort — a cold start
//! either completes via a recorded Vanilla fallback or returns a typed
//! [`medusa::MedusaError`]. Never a panic. And a faulty run is exactly as
//! reproducible as a healthy one: same seed ⇒ byte-identical reports.

use medusa::{materialize_offline, ColdStart, FaultKind, FaultPlan, MaterializedState, Strategy};
use medusa_gpu::{CostModel, GpuSpec};
use medusa_model::ModelSpec;
use proptest::prelude::*;
use std::sync::OnceLock;

fn spec() -> ModelSpec {
    ModelSpec::by_name("Qwen1.5-0.5B").expect("catalog model")
}

/// The offline phase is the expensive part — materialize once and share.
fn artifact() -> &'static MaterializedState {
    static ARTIFACT: OnceLock<MaterializedState> = OnceLock::new();
    ARTIFACT.get_or_init(|| {
        materialize_offline(&spec(), GpuSpec::a100_40gb(), CostModel::default(), 19)
            .expect("offline phase")
            .0
    })
}

/// Builds a plan from a non-empty 5-bit mask over [`FaultKind::ALL`].
fn plan_from_mask(mask: u8, seed: u64) -> FaultPlan {
    FaultKind::ALL
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .fold(FaultPlan::new(seed), |p, (_, &k)| p.with(k))
}

/// Every single fault class, exhaustively: a Medusa cold start degrades to
/// a completed Vanilla fallback with the failure recorded — no panics, no
/// lost cold starts.
#[test]
fn each_fault_class_degrades_medusa_to_a_completed_vanilla_fallback() {
    let s = spec();
    for kind in FaultKind::ALL {
        for seed in [1, 17, 4242] {
            let outcome = ColdStart::new(&s)
                .strategy(Strategy::Medusa)
                .artifact(artifact())
                .seed(5)
                .faults(FaultPlan::single(kind, seed))
                .run()
                .unwrap_or_else(|e| panic!("{kind:?}/{seed}: must degrade, got error {e}"));
            assert_eq!(
                outcome.strategy_used(),
                Strategy::Vanilla,
                "{kind:?}/{seed}"
            );
            let fb = outcome
                .fallback()
                .unwrap_or_else(|| panic!("{kind:?}/{seed}: fallback not recorded"));
            assert!(!fb.reason.is_empty() && !fb.detail.is_empty());
            assert_eq!(outcome.engines.len(), 1, "the fallback still serves");
        }
    }
}

/// Runtime faults on the vanilla path have nothing to degrade to: they
/// surface as typed errors with stable kinds — never a panic.
#[test]
fn runtime_faults_on_vanilla_surface_typed_errors() {
    let s = spec();
    for (kind, expect) in [
        (FaultKind::TruncatedWeights, "weight_stream_truncated"),
        (FaultKind::MidStageAbort, "stage_aborted"),
    ] {
        for seed in [3, 999] {
            let err = ColdStart::new(&s)
                .seed(5)
                .faults(FaultPlan::single(kind, seed))
                .run()
                .expect_err("vanilla runtime fault must error");
            assert_eq!(err.kind(), expect, "{kind:?}/{seed}");
        }
    }
}

/// A plan means one thing whichever source the artifact comes from: armed
/// through `.faults()`, each artifact-level class degrades a restore from
/// decoded artifacts and one from their MAF2 bytes to the same strategy,
/// for the same reason.
#[test]
fn artifact_faults_agree_across_artifact_sources() {
    let s = spec();
    let (arts, _) = ColdStart::new(&s).materialize(19).expect("offline phase");
    let bytes = arts.to_maf2().expect("encode");
    for kind in [FaultKind::MissingLibrary, FaultKind::VersionSkew] {
        for seed in [1, 4242] {
            let run = |b: ColdStart| {
                let out = b
                    .strategy(Strategy::Medusa)
                    .seed(5)
                    .faults(FaultPlan::single(kind, seed))
                    .run()
                    .unwrap_or_else(|e| panic!("{kind:?}/{seed}: must degrade, got error {e}"));
                (out.strategy_used(), out.fallback().map(|f| f.reason))
            };
            let decoded = run(ColdStart::new(&s).artifacts(&arts));
            let encoded = run(ColdStart::new(&s).tp(arts.tp()).artifact_bytes(&bytes));
            assert_eq!(decoded.0, Strategy::Vanilla, "{kind:?}/{seed}");
            assert_eq!(encoded, decoded, "{kind:?}/{seed}: bytes vs artifacts");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary fault combinations never panic: Medusa with an artifact
    /// always completes via Vanilla fallback (or a typed error), and the
    /// same seed reproduces the outcome byte-for-byte.
    #[test]
    fn fault_combinations_degrade_deterministically(
        mask in 1u8..32,
        fault_seed in 0u64..10_000,
        online_seed in 0u64..10_000,
    ) {
        let s = spec();
        let plan = plan_from_mask(mask, fault_seed);
        let run = || {
            ColdStart::new(&s)
                .strategy(Strategy::Medusa)
                .artifact(artifact())
                .seed(online_seed)
                .faults(plan)
                .run()
        };
        match run() {
            Ok(outcome) => {
                let fb = outcome.fallback().expect("armed fault must be recorded");
                prop_assert_eq!(outcome.strategy_used(), Strategy::Vanilla);
                prop_assert!(!fb.reason.is_empty());
                // Reproducibility: the re-run takes the same path and
                // reports the same timings, to the byte.
                let again = run().expect("same seed, same result");
                prop_assert_eq!(outcome.summary_json(), again.summary_json());
                prop_assert_eq!(
                    serde_json::to_string(&outcome.reports).expect("encode"),
                    serde_json::to_string(&again.reports).expect("encode")
                );
            }
            Err(err) => prop_assert!(!err.kind().is_empty(), "typed, never a panic"),
        }
    }

    /// Tampering is a pure function of the plan seed; different seeds pick
    /// different corruption targets but the checksum always catches an
    /// armed corruption.
    #[test]
    fn corruption_is_always_caught_by_the_checksum(fault_seed in 0u64..10_000) {
        let tampered = FaultPlan::single(FaultKind::CorruptArtifact, fault_seed)
            .apply_to_artifact(artifact());
        prop_assert!(tampered.verify_checksum().is_err());
        let again = FaultPlan::single(FaultKind::CorruptArtifact, fault_seed)
            .apply_to_artifact(artifact());
        prop_assert_eq!(tampered, again);
    }
}
