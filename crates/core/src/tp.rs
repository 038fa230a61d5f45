//! Multi-GPU (tensor-parallel) materialization and restoration — the
//! paper's §8 extension.
//!
//! "Regarding multi-GPU support, Medusa's core concepts remain applicable
//! [...] One potential future exploration is constructing the indirect
//! index pointer table across multiple GPU instances."
//!
//! A `tp`-way instance runs one process per GPU. Each rank's control flow
//! is deterministic *per rank*, so each rank gets its **own** indirect
//! index pointer table, replay sequence and kernel name table: the offline
//! phase ([`crate::ColdStart::materialize`]) produces one artifact per
//! rank, and the online phase ([`crate::ColdStart::run`]) restores all
//! ranks (conceptually in parallel — cold-start loading is the slowest
//! rank's loading). A single GPU is the `tp = 1` case of the same path.

use crate::artifact::MaterializedState;
use crate::error::MedusaResult;

/// The per-rank artifacts of one `<GPU type, model type, tp>` combination.
#[derive(Debug, Clone, PartialEq)]
pub struct TpArtifacts {
    ranks: Vec<MaterializedState>,
}

impl TpArtifacts {
    /// Wraps per-rank artifacts (ascending rank).
    ///
    /// # Errors
    ///
    /// Returns [`crate::MedusaError::ArtifactMismatch`] if the ranks
    /// disagree on model, GPU or degree, or are out of order.
    pub fn new(ranks: Vec<MaterializedState>) -> MedusaResult<Self> {
        let tp = ranks.len() as u32;
        for (i, a) in ranks.iter().enumerate() {
            a.check_target(&ranks[0].model, &ranks[0].gpu, i as u32, tp)?;
        }
        Ok(TpArtifacts { ranks })
    }

    /// Tensor-parallel degree.
    pub fn tp(&self) -> u32 {
        self.ranks.len() as u32
    }

    /// The artifact of `rank`.
    pub fn rank(&self, rank: u32) -> &MaterializedState {
        &self.ranks[rank as usize]
    }

    /// Iterates over per-rank artifacts in rank order.
    pub fn iter(&self) -> impl Iterator<Item = &MaterializedState> {
        self.ranks.iter()
    }

    /// Encodes every rank into one MAF2 bundle — the persistence format a
    /// registry would store per `<GPU type, model type, tp>`. A restoring
    /// rank opens the bundle with [`crate::Maf2Reader`] and lazily
    /// materializes only its own sections.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MedusaError::ArtifactCorrupt`] on encoder failure.
    pub fn to_maf2(&self) -> MedusaResult<Vec<u8>> {
        let refs: Vec<&MaterializedState> = self.ranks.iter().collect();
        crate::artifact::maf2::encode_bundle(&refs)
    }

    /// Eagerly decodes a MAF2 bundle into per-rank artifacts.
    ///
    /// # Errors
    ///
    /// Propagates open/decode failures and rank-consistency violations.
    pub fn from_maf2(bytes: &[u8]) -> MedusaResult<Self> {
        let reader = crate::artifact::maf2::Maf2Reader::open(bytes)?;
        TpArtifacts::new(reader.materialize_all()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ColdStart;
    use crate::error::MedusaError;
    use crate::pipeline::{
        cold_start_impl, test_tokenizer, ColdStartOptions, Parallelism, Stage, Strategy,
    };
    use medusa_gpu::{CostModel, GpuSpec, SimDuration};
    use medusa_model::ModelSpec;

    fn spec() -> ModelSpec {
        ModelSpec::by_name("Qwen1.5-0.5B").unwrap()
    }

    fn arts(seed: u64) -> TpArtifacts {
        ColdStart::new(&spec()).tp(2).materialize(seed).unwrap().0
    }

    #[test]
    fn tp_offline_produces_per_rank_artifacts() {
        let (arts, report) = ColdStart::new(&spec()).tp(2).materialize(501).unwrap();
        assert_eq!(arts.tp(), 2);
        assert_eq!(arts.rank(0).rank, 0);
        assert_eq!(arts.rank(1).rank, 1);
        // Each rank's graphs carry the 2 extra all-reduce nodes per layer.
        let l = spec().layers() as u64;
        let single_base = medusa_model::schedule::base_nodes_per_graph(&spec());
        let g0 = arts.rank(0).graphs[0].nodes.len() as u64;
        assert_eq!(
            g0,
            single_base + 2 * l + medusa_model::schedule::aux_pad_for_graph(&spec(), 0),
            "tp graphs add two all-reduces per layer"
        );
        assert!(arts.rank(0).graphs[0]
            .nodes
            .iter()
            .any(|n| n.kernel.contains("all_reduce")));
        assert!(report.total() > SimDuration::ZERO);
        // Per-rank control flow is identical, so per-rank artifacts agree on
        // everything but raw values (which are gone after analysis) and rank.
        assert_eq!(
            arts.rank(0).replay_prefix_allocs,
            arts.rank(1).replay_prefix_allocs
        );
        assert_eq!(arts.rank(0).kv_free_bytes, arts.rank(1).kv_free_bytes);
    }

    #[test]
    fn tp_medusa_cold_start_restores_all_ranks() {
        let s = spec();
        let arts = arts(502);
        let medusa = || {
            ColdStart::new(&s)
                .strategy(Strategy::Medusa)
                .artifacts(&arts)
        };
        // Validation correctness first (timing-independent)...
        let validated = medusa().validate_graphs(true).run().unwrap();
        assert!(validated.fallback().is_none());
        // ...then the timing comparison without the validation forwardings.
        let medusa = medusa().run().unwrap();
        let vanilla = ColdStart::new(&s).tp(2).run().unwrap();
        assert!(medusa.fallback().is_none());
        assert_eq!(medusa.engines.len(), 2);
        assert!(
            medusa.loading() < vanilla.loading(),
            "Medusa wins per rank too"
        );
        for r in &medusa.reports {
            assert!(r.stage(Stage::KvCacheInit) < vanilla.reports[0].stage(Stage::KvCacheInit));
        }
        // Each rank serves through its restored graphs.
        for engine in &medusa.engines {
            assert_eq!(engine.graphs.len(), 35);
        }
    }

    #[test]
    fn tp_rank_artifacts_cannot_cross_restore() {
        let s = spec();
        let arts = arts(503);
        // Restoring rank 1's artifact into rank 0 must be rejected.
        let err = cold_start_impl(
            Strategy::Medusa,
            &s,
            GpuSpec::a100_40gb(),
            CostModel::default(),
            Some(arts.rank(1)),
            (0, 2),
            ColdStartOptions::default(),
            None,
            test_tokenizer(&s),
        )
        .unwrap_err();
        assert!(matches!(err, MedusaError::ArtifactMismatch { .. }));
    }

    #[test]
    fn tp_degree_mismatch_rejected() {
        let s = spec();
        let arts = arts(504);
        // A Medusa start degrades: the validator rejects the degree.
        let medusa = ColdStart::new(&s)
            .strategy(Strategy::Medusa)
            .tp(4)
            .artifacts(&arts)
            .run()
            .unwrap();
        assert_eq!(medusa.strategy_used(), Strategy::Vanilla);
        assert_eq!(medusa.fallback().unwrap().reason, "artifact_mismatch");
        // A start with nothing to degrade to surfaces the typed error.
        let err = ColdStart::new(&s)
            .strategy(Strategy::NoCudaGraph)
            .tp(4)
            .artifacts(&arts)
            .run()
            .unwrap_err();
        assert!(matches!(err, MedusaError::ArtifactMismatch { .. }));
    }

    #[test]
    fn parallel_modes_beat_serial_and_preserve_work() {
        let s = spec();
        let arts = arts(505);
        let run = |mode: Parallelism| {
            ColdStart::new(&s)
                .strategy(Strategy::Medusa)
                .artifacts(&arts)
                .parallelism(mode)
                .run()
                .unwrap()
        };
        let serial = run(Parallelism::Serial);
        let overlapped = run(Parallelism::Overlapped);
        let pipelined = run(Parallelism::PipelinedTp);
        // Overlapped+tp-pipelined strictly beats serial simulated loading
        // for tp >= 2.
        assert!(
            pipelined.loading() < serial.loading(),
            "pipelined {} must beat serial {}",
            pipelined.loading(),
            serial.loading()
        );
        assert!(overlapped.loading() < serial.loading());
        assert!(pipelined.loading() <= overlapped.loading());
        // Serial mode is a contiguous chain: its wall-clock IS its work.
        assert_eq!(serial.loading(), serial.aggregate_work() + serial.sync);
        // Staggered streams run at full bandwidth, so pipelining moves
        // wall-clock without changing the work done...
        assert_eq!(pipelined.aggregate_work(), serial.aggregate_work());
        // ...while interleaved overlapped streams pay storage contention.
        assert!(overlapped.aggregate_work() > serial.aggregate_work());
        // The cross-rank barrier is accounted once per instance.
        assert!(pipelined.sync > SimDuration::ZERO);
        assert_eq!(pipelined.parallelism, Parallelism::PipelinedTp);
    }

    #[test]
    fn sharded_weights_shrink_per_rank() {
        let s = spec();
        let run = |tp: u32| {
            ColdStart::new(&s)
                .strategy(Strategy::NoCudaGraph)
                .tp(tp)
                .run()
                .unwrap()
        };
        let v1 = run(1);
        let v4 = run(4);
        let w1 = v1.engines[0].inst.weight_bytes();
        let w4 = v4.engines[0].inst.weight_bytes();
        assert!(
            w4 * 3 < w1,
            "4-way shards must be much smaller: {w4} vs {w1}"
        );
        assert!(v4.reports[0].stage(Stage::WeightsLoad) < v1.reports[0].stage(Stage::WeightsLoad));
    }
}
