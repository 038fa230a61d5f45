//! Deterministic, seed-driven fault injection for the cold-start pipeline.
//!
//! Serverless platforms live on the unhappy path: artifacts rot in caches,
//! library upgrades skew kernel name tables, registry transfers tear, and
//! nodes die mid-cold-start. The paper's §7 answer is graceful degradation —
//! when the materialized state cannot be trusted, fall back to the vanilla
//! path rather than crash. This module provides the *injection* half of that
//! story: a [`FaultPlan`] enumerates which fault classes to arm, and every
//! derived quantity (which field gets corrupted, where the weight stream
//! tears, which stage aborts) is a pure function of the plan's seed, so a
//! faulty run is exactly as reproducible as a healthy one.
//!
//! Artifact-level faults ([`FaultKind::CorruptArtifact`],
//! [`FaultKind::VersionSkew`], [`FaultKind::MissingLibrary`]) tamper with a
//! *copy* of the artifact before validation, whether it arrives decoded
//! ([`FaultPlan::apply_to_artifact`]) or as MAF2 bytes
//! ([`FaultPlan::apply_to_maf2`]); runtime faults
//! ([`FaultKind::TruncatedWeights`], [`FaultKind::MidStageAbort`]) fire
//! inside the pipeline itself. Registry and node failures are fleet-level
//! concerns and live in `medusa-serving`'s `ClusterFaults`.

use crate::artifact::registry::ChunkStore;
use crate::artifact::{maf2, MaterializedState};
use medusa_gpu::splitmix64;

/// The injectable fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Flip payload bits after the artifact was sealed, so the stored
    /// checksum no longer matches the content.
    CorruptArtifact,
    /// Stamp a future format version on the artifact (a registry serving
    /// entries written by a newer materializer).
    VersionSkew,
    /// Rename one materialized kernel's library to one absent from the
    /// process catalog (a library upgrade that dropped the `.so`), then
    /// re-seal — the artifact is internally consistent but unrestorable.
    MissingLibrary,
    /// Tear the weight stream partway through the loading stage.
    TruncatedWeights,
    /// Abort the cold start mid-flight at a seed-chosen stage boundary
    /// (node preemption / OOM-kill).
    MidStageAbort,
}

impl FaultKind {
    /// All fault classes, in matrix order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::CorruptArtifact,
        FaultKind::VersionSkew,
        FaultKind::MissingLibrary,
        FaultKind::TruncatedWeights,
        FaultKind::MidStageAbort,
    ];

    /// Stable name, used in CLI specs and telemetry labels.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::CorruptArtifact => "corrupt",
            FaultKind::VersionSkew => "version_skew",
            FaultKind::MissingLibrary => "missing_library",
            FaultKind::TruncatedWeights => "truncated_weights",
            FaultKind::MidStageAbort => "abort",
        }
    }
}

/// Where a [`FaultKind::MidStageAbort`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortPoint {
    /// Right after model structure initialization, before any strategy work.
    AfterStructureInit,
    /// After all loading completed, just before the first-token prefill.
    BeforeFirstToken,
}

/// A deterministic plan of which faults to inject into one cold start.
///
/// Armed on a cold start through [`crate::ColdStart::faults`], the only way
/// to arm one. An all-`false` plan (the `Default`) injects nothing and
/// leaves the pipeline byte-identical to a run without a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed every derived quantity is a pure function of.
    pub seed: u64,
    /// Arm [`FaultKind::CorruptArtifact`].
    pub corrupt_artifact: bool,
    /// Arm [`FaultKind::VersionSkew`].
    pub version_skew: bool,
    /// Arm [`FaultKind::MissingLibrary`].
    pub missing_library: bool,
    /// Arm [`FaultKind::TruncatedWeights`].
    pub truncated_weights: bool,
    /// Arm [`FaultKind::MidStageAbort`].
    pub mid_stage_abort: bool,
}

impl FaultPlan {
    /// An empty plan with the given seed; arm faults with [`FaultPlan::with`].
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// A plan arming exactly one fault class.
    pub fn single(kind: FaultKind, seed: u64) -> Self {
        FaultPlan::new(seed).with(kind)
    }

    /// A plan arming every fault class — the CI fault matrix.
    pub fn matrix(seed: u64) -> Self {
        FaultKind::ALL
            .iter()
            .fold(FaultPlan::new(seed), |p, &k| p.with(k))
    }

    /// Arms one fault class.
    pub fn with(mut self, kind: FaultKind) -> Self {
        match kind {
            FaultKind::CorruptArtifact => self.corrupt_artifact = true,
            FaultKind::VersionSkew => self.version_skew = true,
            FaultKind::MissingLibrary => self.missing_library = true,
            FaultKind::TruncatedWeights => self.truncated_weights = true,
            FaultKind::MidStageAbort => self.mid_stage_abort = true,
        }
        self
    }

    /// Whether the given class is armed.
    pub fn enabled(&self, kind: FaultKind) -> bool {
        match kind {
            FaultKind::CorruptArtifact => self.corrupt_artifact,
            FaultKind::VersionSkew => self.version_skew,
            FaultKind::MissingLibrary => self.missing_library,
            FaultKind::TruncatedWeights => self.truncated_weights,
            FaultKind::MidStageAbort => self.mid_stage_abort,
        }
    }

    /// Whether no fault is armed.
    pub fn is_empty(&self) -> bool {
        FaultKind::ALL.iter().all(|&k| !self.enabled(k))
    }

    /// Parses a comma-separated fault spec (`"corrupt,abort"`). Accepts the
    /// [`FaultKind::name`] strings plus `all` for the full matrix; `-` is
    /// accepted in place of `_`.
    ///
    /// # Errors
    ///
    /// Returns the unknown token.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut plan = FaultPlan::new(seed);
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let canon = token.replace('-', "_");
            if canon == "all" {
                plan = FaultPlan::matrix(seed);
                continue;
            }
            match FaultKind::ALL.iter().find(|k| k.name() == canon) {
                Some(&k) => plan = plan.with(k),
                None => return Err(token.to_string()),
            }
        }
        Ok(plan)
    }

    /// Applies the armed *artifact-level* faults to a copy of `artifact`.
    ///
    /// Corruption flips payload bits without re-sealing (a storage/transit
    /// error the checksum catches); version skew stamps a future version;
    /// a missing library renames a seed-chosen node's library and re-seals
    /// (an internally consistent artifact that no longer resolves).
    pub fn apply_to_artifact(&self, artifact: &MaterializedState) -> MaterializedState {
        let mut a = artifact.clone();
        if self.missing_library {
            let total: usize = a.graphs.iter().map(|g| g.nodes.len()).sum();
            if total > 0 {
                let mut pick = (splitmix64(self.seed ^ 0xfa_0001) as usize) % total;
                'outer: for g in &mut a.graphs {
                    for n in &mut g.nodes {
                        if pick == 0 {
                            n.library = format!("libghost-{}.so.0", self.seed & 0xffff).into();
                            break 'outer;
                        }
                        pick -= 1;
                    }
                }
                a.seal();
            }
        }
        if self.corrupt_artifact {
            // Bit-flip after sealing: pick the field from the seed.
            match splitmix64(self.seed ^ 0xfa_0002) % 3 {
                0 => a.kv_free_bytes ^= 1 << (splitmix64(self.seed ^ 0xfa_0003) % 32),
                1 => a.replay_prefix_allocs ^= 1,
                _ => {
                    if let Some(op) = a.replay_ops.first_mut() {
                        match op {
                            crate::artifact::ReplayOp::Malloc { size } => *size ^= 0x40,
                            crate::artifact::ReplayOp::Free { alloc_seq } => *alloc_seq ^= 0x1,
                        }
                    } else {
                        a.kv_free_bytes ^= 0x2;
                    }
                }
            }
        }
        if self.version_skew {
            a.version += 1 + (splitmix64(self.seed ^ 0xfa_0004) % 3) as u32;
        }
        a
    }

    /// Applies the armed artifact-level faults to a copy of MAF2-encoded
    /// artifact bytes — the binary analogue of
    /// [`FaultPlan::apply_to_artifact`], arming every artifact class.
    ///
    /// * [`FaultKind::MissingLibrary`] runs first: it decodes every shard,
    ///   renames a library in each as [`FaultPlan::apply_to_artifact`] does
    ///   and re-encodes the bundle (bytes that do not decode are left as
    ///   they are), so the byte classes below tamper the re-encoded file.
    /// * [`FaultKind::CorruptArtifact`] picks, from the seed, one of three
    ///   binary corruption shapes: a section-payload byte flip (caught
    ///   lazily by the section digest on first materialization), a
    ///   section-digest flip inside the index (caught at open by the sealed
    ///   index digest), or an index offset rewritten out of bounds with the
    ///   index digest re-sealed (caught by the open-time bounds check).
    /// * [`FaultKind::VersionSkew`] stamps a future format version and
    ///   re-seals the index digest, so the skew is the only inconsistency.
    /// * [`FaultKind::TruncatedWeights`] tears the byte stream: inside the
    ///   header, just before the section index, or at a seed-chosen payload
    ///   fraction.
    ///
    /// Every resulting file is rejected with a *typed* error —
    /// [`Maf2Reader::open`](maf2::Maf2Reader::open), shard materialization
    /// and validation never panic on tampered input.
    pub fn apply_to_maf2(&self, bytes: &[u8]) -> Vec<u8> {
        let renamed = self
            .missing_library
            .then(|| maf2::Maf2Reader::open(bytes).and_then(|r| r.materialize_all()))
            .and_then(Result::ok)
            .and_then(|shards| {
                let ghost = FaultPlan::single(FaultKind::MissingLibrary, self.seed);
                let shards: Vec<_> = shards.iter().map(|a| ghost.apply_to_artifact(a)).collect();
                maf2::encode_bundle(&shards.iter().collect::<Vec<_>>()).ok()
            });
        let mut b = renamed.unwrap_or_else(|| bytes.to_vec());
        if self.corrupt_artifact {
            match maf2::header_layout(&b) {
                Some(layout) => match splitmix64(self.seed ^ 0xfa_0010) % 3 {
                    0 if layout.payload_len > 0 => {
                        let off = layout.payload_off
                            + (splitmix64(self.seed ^ 0xfa_0011) as usize) % layout.payload_len;
                        b[off] ^= 0x20;
                    }
                    1 if layout.section_count > 0 => {
                        let i = (splitmix64(self.seed ^ 0xfa_0012) as usize) % layout.section_count;
                        // Byte 24 of an entry is its digest field.
                        b[layout.index_off + i * 32 + 24] ^= 0x01;
                    }
                    _ if layout.section_count > 0 => {
                        let i = (splitmix64(self.seed ^ 0xfa_0013) as usize) % layout.section_count;
                        let off_field = layout.index_off + i * 32 + 8;
                        let oob = (b.len() as u64) + 1 + splitmix64(self.seed ^ 0xfa_0015) % 1024;
                        b[off_field..off_field + 8].copy_from_slice(&oob.to_le_bytes());
                        maf2::reseal_index_digest(&mut b);
                    }
                    _ => {
                        if let Some(last) = b.last_mut() {
                            *last ^= 0x20;
                        }
                    }
                },
                None => {
                    if let Some(last) = b.last_mut() {
                        *last ^= 0x20;
                    }
                }
            }
        }
        if self.version_skew && b.len() >= 12 {
            let old = u32::from_le_bytes([b[8], b[9], b[10], b[11]]);
            let new = old
                .wrapping_add(1)
                .wrapping_add((splitmix64(self.seed ^ 0xfa_0004) % 3) as u32);
            b[8..12].copy_from_slice(&new.to_le_bytes());
            maf2::reseal_index_digest(&mut b);
        }
        if self.truncated_weights {
            let cut = match splitmix64(self.seed ^ 0xfa_0014) % 3 {
                // Header truncation: fewer bytes than the fixed header.
                0 => (splitmix64(self.seed ^ 0xfa_0016) as usize) % maf2::MAF2_HEADER_LEN,
                // Tear off the tail: the section index goes missing.
                1 => b
                    .len()
                    .saturating_sub(1 + (splitmix64(self.seed ^ 0xfa_0017) as usize) % 32),
                // Tear at a payload fraction.
                _ => {
                    let frac = (splitmix64(self.seed ^ 0xfa_0018) % 10_000) as f64 / 10_000.0;
                    maf2::MAF2_HEADER_LEN
                        + ((b.len().saturating_sub(maf2::MAF2_HEADER_LEN)) as f64 * frac) as usize
                }
            };
            b.truncate(cut.min(b.len()));
        }
        b
    }

    /// Applies the armed chunk-level faults to a chunk store in place — the
    /// content-addressed analogue of [`FaultPlan::apply_to_maf2`].
    ///
    /// * [`FaultKind::CorruptArtifact`] flips one byte inside a seed-chosen
    ///   non-empty chunk (caught by the per-chunk digest check);
    /// * [`FaultKind::TruncatedWeights`] tears a seed-chosen chunk short at
    ///   a seed-chosen length (caught by the per-chunk length check).
    ///
    /// Returns the tampered digests (empty when nothing was armed or the
    /// store holds no non-empty chunks). Assembly and validation over a
    /// tampered store fail with *typed* errors — they never panic.
    pub fn apply_to_store(&self, store: &mut ChunkStore) -> Vec<u64> {
        let digests: Vec<u64> = store
            .chunk_digests()
            .into_iter()
            .filter(|&d| store.get(d).is_some_and(|b| !b.is_empty()))
            .collect();
        let mut hit = Vec::new();
        if digests.is_empty() {
            return hit;
        }
        if self.corrupt_artifact {
            let d = digests[(splitmix64(self.seed ^ 0xfa_0020) as usize) % digests.len()];
            let mut b = store.get(d).expect("digest just listed").to_vec();
            let off = (splitmix64(self.seed ^ 0xfa_0021) as usize) % b.len();
            b[off] ^= 0x40;
            store.tamper_chunk(d, b);
            hit.push(d);
        }
        if self.truncated_weights {
            let d = digests[(splitmix64(self.seed ^ 0xfa_0022) as usize) % digests.len()];
            let len = store.get(d).expect("digest just listed").len();
            let keep = (splitmix64(self.seed ^ 0xfa_0023) as usize) % len;
            let mut b = store.get(d).expect("digest just listed").to_vec();
            b.truncate(keep);
            store.tamper_chunk(d, b);
            if !hit.contains(&d) {
                hit.push(d);
            }
        }
        hit
    }

    /// For an armed [`FaultKind::TruncatedWeights`]: the fraction of the
    /// weight payload delivered before the stream tears, in `[0.25, 0.90]`.
    pub fn weight_truncation(&self) -> Option<f64> {
        if !self.truncated_weights {
            return None;
        }
        let u = splitmix64(self.seed ^ 0xfa_0005) % 10_000;
        Some(0.25 + 0.65 * (u as f64 / 10_000.0))
    }

    /// For an armed [`FaultKind::MidStageAbort`]: where the abort fires.
    pub fn abort_point(&self) -> Option<AbortPoint> {
        if !self.mid_stage_abort {
            return None;
        }
        if splitmix64(self.seed ^ 0xfa_0006).is_multiple_of(2) {
            Some(AbortPoint::AfterStructureInit)
        } else {
            Some(AbortPoint::BeforeFirstToken)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::materialize_offline;
    use medusa_gpu::{CostModel, GpuSpec};
    use medusa_model::ModelSpec;

    fn artifact() -> MaterializedState {
        let spec = ModelSpec::by_name("Qwen1.5-0.5B").unwrap();
        materialize_offline(&spec, GpuSpec::a100_40gb(), CostModel::default(), 41)
            .unwrap()
            .0
    }

    #[test]
    fn parse_accepts_names_aliases_and_all() {
        let p = FaultPlan::parse("corrupt, abort", 7).unwrap();
        assert!(p.corrupt_artifact && p.mid_stage_abort);
        assert!(!p.version_skew);
        let m = FaultPlan::parse("all", 7).unwrap();
        assert!(FaultKind::ALL.iter().all(|&k| m.enabled(k)));
        let d = FaultPlan::parse("missing-library,version-skew", 7).unwrap();
        assert!(d.missing_library && d.version_skew);
        assert_eq!(FaultPlan::parse("bogus", 7).unwrap_err(), "bogus");
        assert!(FaultPlan::parse("", 7).unwrap().is_empty());
    }

    #[test]
    fn tampering_is_deterministic_per_seed() {
        let a = artifact();
        let p = FaultPlan::matrix(99);
        let x = p.apply_to_artifact(&a);
        let y = p.apply_to_artifact(&a);
        assert_eq!(x, y, "same seed, same tampering");
        let z = FaultPlan::matrix(100).apply_to_artifact(&a);
        assert!(z == x || z.version != x.version || z != x);
        assert_eq!(p.weight_truncation(), p.weight_truncation());
        assert_eq!(p.abort_point(), p.abort_point());
    }

    #[test]
    fn corruption_breaks_the_checksum_but_skew_does_not() {
        let a = artifact();
        let c = FaultPlan::single(FaultKind::CorruptArtifact, 3).apply_to_artifact(&a);
        assert!(c.verify_checksum().is_err(), "bit flip must break the seal");
        let v = FaultPlan::single(FaultKind::VersionSkew, 3).apply_to_artifact(&a);
        assert!(v.verify_checksum().is_ok(), "skew is a version-only change");
        assert!(v.version > a.version);
        let m = FaultPlan::single(FaultKind::MissingLibrary, 3).apply_to_artifact(&a);
        assert!(
            m.verify_checksum().is_ok(),
            "missing-library artifact re-seals: consistent but unrestorable"
        );
        assert!(m
            .graphs
            .iter()
            .flat_map(|g| g.nodes.iter())
            .any(|n| n.library.starts_with("libghost-")));
    }

    #[test]
    fn binary_faults_always_yield_typed_errors() {
        let a = artifact();
        let bytes = a.to_maf2().unwrap();
        for kind in [
            FaultKind::CorruptArtifact,
            FaultKind::VersionSkew,
            FaultKind::TruncatedWeights,
        ] {
            for seed in 0..24 {
                let plan = FaultPlan::single(kind, seed);
                let bad = plan.apply_to_maf2(&bytes);
                assert_ne!(bad, bytes, "{kind:?} seed {seed} must alter the file");
                assert_eq!(bad, plan.apply_to_maf2(&bytes), "deterministic per seed");
                // Open + eager materialization must fail with a typed error
                // (never panic) on every seed of every binary fault class.
                let err = maf2::Maf2Reader::open(&bad)
                    .and_then(|r| r.materialize_all().map(|_| ()))
                    .expect_err(&format!("{kind:?} seed {seed} must be detected"));
                assert!(
                    matches!(err.kind(), "artifact_corrupt" | "checksum_mismatch"),
                    "{kind:?} seed {seed}: unexpected error kind {}",
                    err.kind()
                );
            }
        }
    }

    #[test]
    fn binary_version_skew_is_the_only_inconsistency() {
        let a = artifact();
        let bytes = a.to_maf2().unwrap();
        let bad = FaultPlan::single(FaultKind::VersionSkew, 11).apply_to_maf2(&bytes);
        // The header re-seals, so open succeeds and the skew is observable;
        // only materialization rejects it.
        let r = maf2::Maf2Reader::open(&bad).unwrap();
        assert!(r.version() > a.version);
        r.verify_content_checksum().unwrap();
        assert_eq!(r.shard(a.rank).unwrap_err().kind(), "artifact_corrupt");
    }

    #[test]
    fn runtime_fault_parameters_are_bounded() {
        for seed in 0..50 {
            let p = FaultPlan::matrix(seed);
            let frac = p.weight_truncation().unwrap();
            assert!((0.25..=0.90).contains(&frac), "{frac}");
            assert!(p.abort_point().is_some());
        }
        let none = FaultPlan::new(1);
        assert!(none.weight_truncation().is_none());
        assert!(none.abort_point().is_none());
        assert!(none.is_empty());
    }

    #[test]
    fn chunk_faults_yield_typed_errors_and_are_deterministic() {
        use crate::artifact::registry::ChunkStore;
        let bytes = artifact().to_maf2().unwrap();
        for kind in [FaultKind::CorruptArtifact, FaultKind::TruncatedWeights] {
            for seed in 0..20u64 {
                let plan = FaultPlan::single(kind, seed);
                let mut store = ChunkStore::default();
                let manifest = store.pack(&bytes).unwrap();
                let hit = plan.apply_to_store(&mut store);
                assert_eq!(hit.len(), 1, "{kind:?} seed {seed} must tamper one chunk");

                // Same plan, fresh store: identical victim.
                let mut again = ChunkStore::default();
                again.pack(&bytes).unwrap();
                assert_eq!(plan.apply_to_store(&mut again), hit);
                assert_eq!(store, again, "same seed, same tampering");

                // Assembly over a tampered store fails with a typed error —
                // never a panic, never silent success.
                let err = store
                    .assemble(&manifest)
                    .expect_err(&format!("{kind:?} seed {seed} must be detected"));
                assert!(
                    matches!(
                        err.kind(),
                        "checksum_mismatch" | "weight_stream_truncated" | "artifact_corrupt"
                    ),
                    "{kind:?} seed {seed}: unexpected error kind {}",
                    err.kind()
                );
            }
        }
    }

    #[test]
    fn chunk_faults_are_noops_when_unarmed_or_store_is_empty() {
        use crate::artifact::registry::ChunkStore;
        let bytes = artifact().to_maf2().unwrap();
        let mut store = ChunkStore::default();
        let manifest = store.pack(&bytes).unwrap();
        let before = store.clone();
        assert!(FaultPlan::new(3).apply_to_store(&mut store).is_empty());
        assert_eq!(store, before);
        assert_eq!(store.assemble(&manifest).unwrap(), bytes);

        let mut empty = ChunkStore::default();
        let plan = FaultPlan::single(FaultKind::CorruptArtifact, 3);
        assert!(plan.apply_to_store(&mut empty).is_empty());
    }
}
