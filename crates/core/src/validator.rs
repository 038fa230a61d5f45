//! Pre-restore artifact validation.
//!
//! A materialized artifact is only trustworthy for the exact
//! `<GPU type, model type>` it was built for, against the exact library set
//! the online process loads (§5 — raw kernel addresses rot, which is why the
//! artifact stores kernel *names*; those names rot too when a library
//! upgrade removes a symbol). The [`ArtifactValidator`] runs every integrity
//! check that can be answered *before* touching the device:
//!
//! 1. **format version** — the artifact's layout version matches this
//!    build's [`ARTIFACT_VERSION`];
//! 2. **content checksum** — the sealed FNV fold still matches the payload
//!    (storage/transit corruption);
//! 3. **target key** — `<model, GPU, rank, tp>` match the restoring process;
//! 4. **kernel name table** — every materialized `(library, kernel)` pair
//!    resolves against the process's library catalog;
//! 5. **pointer bounds** — the replay sequence is well-formed (frees hit
//!    live allocations) and every indirect index pointer, semantic label,
//!    permanent buffer, and pointer-table entry references an allocation
//!    that is live once replay completes.
//!
//! Any failure downgrades the cold start to the vanilla path (§7); the
//! report records which check rejected the artifact and why.

use crate::artifact::maf2::{self, Maf2Reader};
use crate::artifact::registry::{ChunkManifest, ChunkStore, MANIFEST_VERSION};
use crate::artifact::{
    GraphRead, MaterializedState, ParamRef, ReplayOp, ShardRead, ARTIFACT_VERSION,
};
use crate::error::{MedusaError, MedusaResult};
use medusa_gpu::{GpuSpec, LibraryCatalog};
use medusa_model::{build_catalog, ModelSpec};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The individual checks run by [`ArtifactValidator::validate`], in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidationCheck {
    /// Artifact layout version equals [`ARTIFACT_VERSION`].
    FormatVersion,
    /// Sealed content checksum matches a recomputation.
    Checksum,
    /// `<model, GPU, rank, tp>` key matches the restoring process.
    TargetKey,
    /// Every materialized kernel name resolves in the library catalog.
    KernelTable,
    /// Replay sequence and index pointers are in-bounds and live.
    PointerBounds,
}

impl ValidationCheck {
    /// All checks in execution order.
    pub const ALL: [ValidationCheck; 5] = [
        ValidationCheck::FormatVersion,
        ValidationCheck::Checksum,
        ValidationCheck::TargetKey,
        ValidationCheck::KernelTable,
        ValidationCheck::PointerBounds,
    ];

    /// Stable name for reports and CLI output.
    pub fn name(&self) -> &'static str {
        match self {
            ValidationCheck::FormatVersion => "format_version",
            ValidationCheck::Checksum => "checksum",
            ValidationCheck::TargetKey => "target_key",
            ValidationCheck::KernelTable => "kernel_table",
            ValidationCheck::PointerBounds => "pointer_bounds",
        }
    }
}

/// Outcome of validating one artifact: every check's verdict.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// `(check, failure)` per check, in execution order; `None` = passed.
    pub checks: Vec<(ValidationCheck, Option<MedusaError>)>,
}

impl ValidationReport {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|(_, e)| e.is_none())
    }

    /// The first failing check and its error, if any.
    pub fn first_failure(&self) -> Option<(&ValidationCheck, &MedusaError)> {
        self.checks
            .iter()
            .find_map(|(c, e)| e.as_ref().map(|e| (c, e)))
    }

    /// Converts the report into a result: `Ok` iff every check passed.
    ///
    /// # Errors
    ///
    /// Returns the first failing check's error, wrapped with the check name
    /// as context.
    pub fn ok(&self) -> MedusaResult<()> {
        match self.first_failure() {
            None => Ok(()),
            Some((check, err)) => Err(err
                .clone()
                .with_context(format!("artifact validation ({})", check.name()))),
        }
    }
}

/// Validates materialized artifacts against one restoring target.
#[derive(Debug, Clone)]
pub struct ArtifactValidator {
    model: String,
    gpu: String,
    rank: u32,
    tp: u32,
    catalog: Arc<LibraryCatalog>,
}

impl ArtifactValidator {
    /// Builds a validator for the `<model, GPU>` pair a process would
    /// restore into, at rank 0 of tp 1. The kernel-name-table check runs
    /// against the same simulated library catalog the online process loads.
    pub fn for_target(spec: &ModelSpec, gpu: &GpuSpec) -> Self {
        ArtifactValidator {
            model: spec.name().to_string(),
            gpu: gpu.name().to_string(),
            rank: 0,
            tp: 1,
            catalog: build_catalog(spec),
        }
    }

    /// Retargets the validator at a tensor-parallel shard.
    pub fn shard(mut self, rank: u32, tp: u32) -> Self {
        self.rank = rank;
        self.tp = tp;
        self
    }

    /// Runs every check against `artifact`. All checks always run, so a CLI
    /// report can show each verdict; use [`ValidationReport::ok`] for the
    /// pass/fail decision.
    pub fn validate(&self, artifact: &MaterializedState) -> ValidationReport {
        let mut report = ValidationReport {
            checks: vec![
                (
                    ValidationCheck::FormatVersion,
                    self.check_version(artifact).err(),
                ),
                (ValidationCheck::Checksum, artifact.verify_checksum().err()),
                (
                    ValidationCheck::TargetKey,
                    artifact
                        .check_target(&self.model, &self.gpu, self.rank, self.tp)
                        .err(),
                ),
            ],
        };
        self.deep_checks(artifact, &mut report);
        report
    }

    /// Validates raw artifact bytes in either encoding, auto-detected by
    /// magic: MAF2 files take the header-first path ([`Self::validate_maf2`]),
    /// anything else is treated as the JSON debug encoding.
    ///
    /// When the bytes cannot even be opened, the report carries the open
    /// error on the check it maps to (`checksum` for digest mismatches,
    /// `format_version` for structural corruption) and omits checks that
    /// could not run.
    pub fn validate_bytes(&self, bytes: &[u8]) -> ValidationReport {
        if maf2::is_maf2(bytes) {
            match Maf2Reader::open(bytes) {
                Ok(reader) => self.validate_maf2(&reader),
                Err(err) => ValidationReport {
                    checks: vec![(Self::check_for_open_error(&err), Some(err))],
                },
            }
        } else {
            let parsed = std::str::from_utf8(bytes)
                .map_err(|_| MedusaError::ArtifactCorrupt {
                    detail: "artifact is neither MAF2 (no magic) nor UTF-8 JSON".into(),
                })
                .and_then(MaterializedState::from_json);
            match parsed {
                Ok(artifact) => self.validate(&artifact),
                Err(err) => ValidationReport {
                    checks: vec![(ValidationCheck::FormatVersion, Some(err))],
                },
            }
        }
    }

    fn check_for_open_error(err: &MedusaError) -> ValidationCheck {
        if err.kind() == "checksum_mismatch" {
            ValidationCheck::Checksum
        } else {
            ValidationCheck::FormatVersion
        }
    }

    /// Header-first fast path over an opened MAF2 reader: format version,
    /// streaming checksum-of-section-digests, and the target key (header
    /// strings + this shard's fixed-width ShardMeta). O(header + index) —
    /// section payloads other than the 104-byte ShardMeta are never read,
    /// and repeated calls for different ranks reuse the same parsed section
    /// index instead of re-walking the artifact.
    pub fn validate_maf2_header(&self, reader: &Maf2Reader<'_>) -> ValidationReport {
        let version_err =
            (reader.version() != ARTIFACT_VERSION).then(|| MedusaError::ArtifactCorrupt {
                detail: format!(
                    "format version {} != supported {}",
                    reader.version(),
                    ARTIFACT_VERSION
                ),
            });
        let meta = reader.shard_meta(self.rank);
        let checksum_err = reader
            .verify_content_checksum()
            .err()
            .or_else(|| match &meta {
                Err(e) if e.kind() == "checksum_mismatch" => Some(e.clone()),
                _ => None,
            });
        let target_err = match &meta {
            Ok(m) => {
                if reader.model() != self.model
                    || reader.gpu() != self.gpu
                    || m.rank != self.rank
                    || m.tp != self.tp
                {
                    Some(MedusaError::ArtifactMismatch {
                        artifact: format!(
                            "{}/{} r{}/{}",
                            reader.model(),
                            reader.gpu(),
                            m.rank,
                            m.tp
                        ),
                        target: format!("{}/{} r{}/{}", self.model, self.gpu, self.rank, self.tp),
                    })
                } else {
                    None
                }
            }
            Err(e) => Some(e.clone()),
        };
        ValidationReport {
            checks: vec![
                (ValidationCheck::FormatVersion, version_err),
                (ValidationCheck::Checksum, checksum_err),
                (ValidationCheck::TargetKey, target_err),
            ],
        }
    }

    /// Full validation of one shard of an opened MAF2 reader, in one pass
    /// over the shard's sections: the header-first checks, then
    /// [`Maf2Reader::view`] (every section digest and the records'
    /// structure), the sealed content checksum folded over the view, and
    /// the deep kernel-table and pointer-bounds checks on the view. The
    /// reader keeps the view, so a restore that follows reads the verified
    /// records in place. When the view cannot be built the deep checks are
    /// omitted (the failure is already attributed to `format_version` or
    /// `checksum`).
    pub fn validate_maf2(&self, reader: &Maf2Reader<'_>) -> ValidationReport {
        let mut report = self.validate_maf2_header(reader);
        if reader.version() != ARTIFACT_VERSION {
            // The view would reject the skew with the same error already on
            // the format_version check; don't touch payloads.
            return report;
        }
        match reader.view(self.rank) {
            Ok(view) => {
                // The sealed per-shard fold is part of the checksum verdict.
                if report.checks[1].1.is_none() {
                    report.checks[1].1 = view.verify_checksum().err();
                }
                self.deep_checks(view, &mut report);
            }
            Err(err) => {
                let slot = match Self::check_for_open_error(&err) {
                    ValidationCheck::Checksum => 1,
                    _ => 0,
                };
                if report.checks[slot].1.is_none() {
                    report.checks[slot].1 = Some(err);
                }
            }
        }
        report
    }

    /// Appends the kernel-table and pointer-bounds verdicts.
    fn deep_checks<S: ShardRead + ?Sized>(&self, shard: &S, report: &mut ValidationReport) {
        report.checks.push((
            ValidationCheck::KernelTable,
            self.check_kernel_table(shard).err(),
        ));
        report.checks.push((
            ValidationCheck::PointerBounds,
            check_pointer_bounds(shard).err(),
        ));
    }

    /// Validates every shard in a MAF2 bundle, reusing one opened reader:
    /// the O(header + index) open happens once and each rank adds only its
    /// own ShardMeta read plus one pass over its own sections —
    /// validating a tp=8 bundle no longer re-walks the whole artifact per
    /// rank. Shards are checked against this validator's `<model, GPU>` at
    /// their own declared rank and the bundle's tp.
    pub fn validate_bundle(&self, reader: &Maf2Reader<'_>) -> Vec<(u32, ValidationReport)> {
        reader
            .shard_ranks()
            .into_iter()
            .map(|rank| {
                let v = self.clone().shard(rank, reader.tp());
                (rank, v.validate_maf2(reader))
            })
            .collect()
    }

    /// O(manifest) validation of a content-addressed manifest against its
    /// chunk store: format version, target key, and digest checks of *only*
    /// the chunks the requested `(rank, tp)` shard touches (its own
    /// sections plus the shared framing chunks) — mirroring the MAF2
    /// lazy-restore invariant that a rank never reads another rank's
    /// payload. Chunks outside the shard's footprint are never hashed.
    pub fn validate_manifest(
        &self,
        manifest: &ChunkManifest,
        store: &ChunkStore,
    ) -> ValidationReport {
        let version_err =
            (manifest.version != MANIFEST_VERSION).then(|| MedusaError::ArtifactCorrupt {
                detail: format!(
                    "manifest version {} != supported {MANIFEST_VERSION}",
                    manifest.version
                ),
            });
        let mut checksum_err = None;
        for i in manifest.shard_chunk_indices(self.rank) {
            if let Err(err) = store.verify(&manifest.chunks[i as usize]) {
                checksum_err = Some(err.with_context(format!("chunk #{i}")));
                break;
            }
        }
        let target_err = if manifest.model != self.model
            || manifest.gpu != self.gpu
            || manifest.tp != self.tp
            || !manifest.shard_ranks().contains(&self.rank)
        {
            Some(MedusaError::ArtifactMismatch {
                artifact: format!(
                    "{}/{} ranks {:?}/{}",
                    manifest.model,
                    manifest.gpu,
                    manifest.shard_ranks(),
                    manifest.tp
                ),
                target: format!("{}/{} r{}/{}", self.model, self.gpu, self.rank, self.tp),
            })
        } else {
            None
        };
        ValidationReport {
            checks: vec![
                (ValidationCheck::FormatVersion, version_err),
                (ValidationCheck::Checksum, checksum_err),
                (ValidationCheck::TargetKey, target_err),
            ],
        }
    }

    /// Validates every shard of a content-addressed manifest, each in
    /// O(manifest): the per-rank reports digest-check only that rank's
    /// chunks, against this validator's `<model, GPU>` at the manifest's tp.
    pub fn validate_cas_bundle(
        &self,
        manifest: &ChunkManifest,
        store: &ChunkStore,
    ) -> Vec<(u32, ValidationReport)> {
        manifest
            .shard_ranks()
            .into_iter()
            .map(|rank| {
                let v = self.clone().shard(rank, manifest.tp);
                (rank, v.validate_manifest(manifest, store))
            })
            .collect()
    }

    fn check_version(&self, artifact: &MaterializedState) -> MedusaResult<()> {
        if artifact.version != ARTIFACT_VERSION {
            return Err(MedusaError::ArtifactCorrupt {
                detail: format!(
                    "format version {} != supported {}",
                    artifact.version, ARTIFACT_VERSION
                ),
            });
        }
        Ok(())
    }

    /// §5: every `(library, kernel)` pair the graphs reference must exist in
    /// the catalog — export status does not matter here (hidden kernels are
    /// reachable via triggering), existence does. Each distinct pair is
    /// looked up once, in first-use order.
    fn check_kernel_table<S: ShardRead + ?Sized>(&self, shard: &S) -> MedusaResult<()> {
        for k in shard.kernels() {
            if self.catalog.find_kernel(k.library, k.kernel).is_err() {
                return Err(MedusaError::KernelUnresolved {
                    library: k.library.to_string(),
                    kernel: k.kernel.to_string(),
                });
            }
        }
        Ok(())
    }
}

/// Which allocations are live once a shard's replay sequence completes:
/// the natural prefix `[0, prefix)` minus the prefix allocations the
/// sequence frees, plus the replayed allocations it leaves live. Sized by
/// the sequence, never by the (untrusted) prefix length.
struct Liveness {
    prefix: u64,
    freed_prefix: BTreeSet<u64>,
    /// Per replayed allocation, in sequence order: still live.
    replayed: Vec<bool>,
}

impl Liveness {
    /// Walks the replay sequence.
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::ReplayDanglingFree`] for a free of an
    /// allocation that is not live at that point.
    fn replay<S: ShardRead + ?Sized>(shard: &S) -> MedusaResult<Self> {
        let ops = shard.replay_ops();
        let mut live = Liveness {
            prefix: shard.replay_prefix_allocs(),
            freed_prefix: BTreeSet::new(),
            replayed: Vec::with_capacity(ops.len()),
        };
        for op in ops {
            match op {
                ReplayOp::Malloc { .. } => live.replayed.push(true),
                ReplayOp::Free { alloc_seq } => {
                    let freed = if alloc_seq < live.prefix {
                        live.freed_prefix.insert(alloc_seq)
                    } else {
                        live.slot(alloc_seq)
                            .is_some_and(|slot| std::mem::replace(slot, false))
                    };
                    if !freed {
                        return Err(MedusaError::ReplayDanglingFree { alloc_seq });
                    }
                }
            }
        }
        Ok(live)
    }

    fn slot(&mut self, seq: u64) -> Option<&mut bool> {
        let i = usize::try_from(seq.checked_sub(self.prefix)?).ok()?;
        self.replayed.get_mut(i)
    }

    fn contains(&self, seq: u64) -> bool {
        if seq < self.prefix {
            return !self.freed_prefix.contains(&seq);
        }
        usize::try_from(seq - self.prefix)
            .ok()
            .and_then(|i| self.replayed.get(i))
            .is_some_and(|&live| live)
    }
}

/// §4.1/§4.2: walk the replay sequence tracking liveness, then require
/// every indirect reference to land on an allocation that is live once
/// replay completes.
fn check_pointer_bounds<S: ShardRead + ?Sized>(shard: &S) -> MedusaResult<()> {
    let live = Liveness::replay(shard)?;
    let require = |seq: u64, what: &dyn Fn() -> String| -> MedusaResult<()> {
        if live.contains(seq) {
            Ok(())
        } else {
            Err(MedusaError::ArtifactCorrupt {
                detail: format!("{} references dead allocation #{seq}", what()),
            })
        }
    };
    for (label, seq) in shard.labels() {
        require(seq, &|| format!("label `{label}`"))?;
    }
    for (seq, _) in shard.permanent_contents() {
        require(seq, &|| "permanent buffer".to_string())?;
    }
    for (seq, entries) in shard.ptr_tables() {
        require(seq, &|| "pointer table".to_string())?;
        for (i, e) in entries.enumerate() {
            if !live.contains(e.alloc_seq) {
                return Err(MedusaError::UnmatchedTableEntry {
                    table_seq: seq,
                    index: i,
                    addr: e.alloc_seq,
                });
            }
        }
    }
    for g in shard.graphs() {
        for (node, (_, params)) in g.nodes().enumerate() {
            for (param, p) in params.enumerate() {
                if let ParamRef::Ptr { alloc_seq, raw, .. } = p {
                    if !live.contains(alloc_seq) {
                        return Err(MedusaError::UnmatchedPointer {
                            batch: g.batch(),
                            node,
                            param,
                            addr: raw,
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, FaultPlan};
    use crate::pipeline::materialize_offline;
    use medusa_gpu::CostModel;

    fn target() -> (ModelSpec, GpuSpec) {
        (
            ModelSpec::by_name("Qwen1.5-0.5B").unwrap(),
            GpuSpec::a100_40gb(),
        )
    }

    fn artifact() -> MaterializedState {
        let (spec, gpu) = target();
        materialize_offline(&spec, gpu, CostModel::default(), 41)
            .unwrap()
            .0
    }

    #[test]
    fn healthy_artifact_passes_every_check() {
        let (spec, gpu) = target();
        let report = ArtifactValidator::for_target(&spec, &gpu).validate(&artifact());
        assert!(report.passed(), "{:?}", report.first_failure());
        assert!(report.ok().is_ok());
        assert_eq!(report.checks.len(), ValidationCheck::ALL.len());
    }

    #[test]
    fn each_fault_class_trips_its_check() {
        let (spec, gpu) = target();
        let v = ArtifactValidator::for_target(&spec, &gpu);
        let a = artifact();

        let corrupt = FaultPlan::single(FaultKind::CorruptArtifact, 5).apply_to_artifact(&a);
        let r = v.validate(&corrupt);
        assert!(!r.passed());
        assert_eq!(r.first_failure().unwrap().1.kind(), "checksum_mismatch");

        let skewed = FaultPlan::single(FaultKind::VersionSkew, 5).apply_to_artifact(&a);
        let r = v.validate(&skewed);
        assert_eq!(r.first_failure().unwrap().0.name(), "format_version");
        assert_eq!(r.first_failure().unwrap().1.kind(), "artifact_corrupt");

        let ghost = FaultPlan::single(FaultKind::MissingLibrary, 5).apply_to_artifact(&a);
        let r = v.validate(&ghost);
        assert_eq!(r.first_failure().unwrap().0.name(), "kernel_table");
        assert_eq!(r.first_failure().unwrap().1.kind(), "kernel_unresolved");
    }

    #[test]
    fn wrong_target_and_bad_replay_are_rejected() {
        let (spec, gpu) = target();
        let v = ArtifactValidator::for_target(&spec, &gpu);
        let mut a = artifact();
        a.gpu = "H100-80GB".into();
        a.seal();
        let r = v.validate(&a);
        assert_eq!(r.first_failure().unwrap().1.kind(), "artifact_mismatch");

        let mut b = artifact();
        b.replay_ops.push(ReplayOp::Free { alloc_seq: 1 << 40 });
        b.seal();
        let r = v.validate(&b);
        assert_eq!(r.first_failure().unwrap().1.kind(), "replay_dangling_free");
        assert!(r.ok().unwrap_err().to_string().contains("pointer_bounds"));
    }

    #[test]
    fn shard_retargets_the_key() {
        let (spec, gpu) = target();
        let v = ArtifactValidator::for_target(&spec, &gpu).shard(1, 2);
        let r = v.validate(&artifact());
        assert_eq!(r.first_failure().unwrap().1.kind(), "artifact_mismatch");
    }

    #[test]
    fn validate_bytes_auto_detects_both_formats() {
        let (spec, gpu) = target();
        let v = ArtifactValidator::for_target(&spec, &gpu);
        let a = artifact();

        let json = a.to_json().unwrap();
        let r = v.validate_bytes(json.as_bytes());
        assert!(r.passed(), "{:?}", r.first_failure());
        assert_eq!(r.checks.len(), ValidationCheck::ALL.len());

        let bin = a.to_maf2().unwrap();
        let r = v.validate_bytes(&bin);
        assert!(r.passed(), "{:?}", r.first_failure());
        assert_eq!(r.checks.len(), ValidationCheck::ALL.len());

        let r = v.validate_bytes(b"{not an artifact");
        assert_eq!(r.first_failure().unwrap().0.name(), "format_version");

        let r = v.validate_bytes(&bin[..40]);
        assert_eq!(r.first_failure().unwrap().1.kind(), "artifact_corrupt");
    }

    #[test]
    fn maf2_header_path_catches_wrong_target() {
        let (_spec, gpu) = target();
        let a = artifact();
        let bin = a.to_maf2().unwrap();
        let reader = crate::artifact::maf2::Maf2Reader::open(&bin).unwrap();
        let other = ModelSpec::by_name("Qwen1.5-4B").unwrap();
        let v = ArtifactValidator::for_target(&other, &gpu);
        let r = v.validate_maf2_header(&reader);
        assert_eq!(r.first_failure().unwrap().1.kind(), "artifact_mismatch");
        assert_eq!(r.checks.len(), 3, "header path runs only O(header) checks");
    }

    #[test]
    fn bundle_validation_reuses_the_section_index() {
        let (spec, gpu) = target();
        let tp = 8u32;
        let shards: Vec<_> = (0..tp)
            .map(|rank| {
                let mut s = artifact();
                s.rank = rank;
                s.tp = tp;
                s.seal();
                s
            })
            .collect();
        let refs: Vec<&MaterializedState> = shards.iter().collect();
        let bin = crate::artifact::maf2::encode_bundle(&refs).unwrap();
        let reader = crate::artifact::maf2::Maf2Reader::open(&bin).unwrap();
        let v = ArtifactValidator::for_target(&spec, &gpu);

        // Header-first pass for every rank: one shared open, per-rank cost
        // is a 104-byte ShardMeta read — total bytes touched must not scale
        // with the payload, i.e. stay far below the file size even at tp=8.
        let opened = reader.bytes_read();
        for rank in 0..tp {
            let r = v.clone().shard(rank, tp).validate_maf2_header(&reader);
            assert!(r.passed(), "rank {rank}: {:?}", r.first_failure());
        }
        let header_pass = reader.bytes_read() - opened;
        assert!(
            header_pass <= u64::from(tp) * 104,
            "header-first pass read {header_pass} payload bytes"
        );
        assert!(reader.bytes_read() < reader.file_len() / 4);

        // Full bundle validation materializes each shard exactly once.
        let reports = v.validate_bundle(&reader);
        assert_eq!(reports.len(), tp as usize);
        for (rank, r) in &reports {
            assert!(r.passed(), "rank {rank}: {:?}", r.first_failure());
        }
    }

    fn cas_bundle(tp: u32) -> (ChunkStore, ChunkManifest) {
        let shards: Vec<_> = (0..tp)
            .map(|rank| {
                let mut s = artifact();
                s.rank = rank;
                s.tp = tp;
                s.seal();
                s
            })
            .collect();
        let refs: Vec<&MaterializedState> = shards.iter().collect();
        let bin = crate::artifact::maf2::encode_bundle(&refs).unwrap();
        let mut store = ChunkStore::default();
        let manifest = store.pack(&bin).unwrap();
        (store, manifest)
    }

    #[test]
    fn cas_manifest_validation_passes_and_scopes_to_the_shard() {
        let (spec, gpu) = target();
        let tp = 4u32;
        let (store, manifest) = cas_bundle(tp);
        let v = ArtifactValidator::for_target(&spec, &gpu);

        for (rank, r) in v.validate_cas_bundle(&manifest, &store) {
            assert!(r.passed(), "rank {rank}: {:?}", r.first_failure());
            // O(manifest) promise: each shard digest-checks a strict subset
            // of the chunk list, not the whole artifact.
            assert!(
                manifest.shard_chunk_indices(rank).len() < manifest.chunks.len(),
                "rank {rank} touches every chunk"
            );
        }
    }

    #[test]
    fn cas_chunk_corruption_only_fails_the_owning_shard() {
        let (spec, gpu) = target();
        let tp = 4u32;
        let (mut store, manifest) = cas_bundle(tp);

        // Corrupt a chunk that rank 1 owns and rank 0 never touches.
        let r0: std::collections::BTreeSet<u32> =
            manifest.shard_chunk_indices(0).into_iter().collect();
        let victim = manifest
            .shard_chunk_indices(1)
            .into_iter()
            .find(|i| !r0.contains(i))
            .expect("rank 1 must own chunks rank 0 does not");
        let d = manifest.chunks[victim as usize].digest;
        let mut bad = store.get(d).unwrap().to_vec();
        bad[0] ^= 0x40;
        store.tamper_chunk(d, bad);

        let v = ArtifactValidator::for_target(&spec, &gpu);
        let ok = v.clone().shard(0, tp).validate_manifest(&manifest, &store);
        assert!(ok.passed(), "rank 0: {:?}", ok.first_failure());
        let r = v.clone().shard(1, tp).validate_manifest(&manifest, &store);
        assert_eq!(r.first_failure().unwrap().0.name(), "checksum");
        assert_eq!(r.first_failure().unwrap().1.kind(), "checksum_mismatch");
    }

    #[test]
    fn cas_manifest_validation_catches_version_and_target_skew() {
        let (spec, gpu) = target();
        let (store, mut manifest) = cas_bundle(2);
        let v = ArtifactValidator::for_target(&spec, &gpu).shard(0, 2);

        let other = ModelSpec::by_name("Qwen1.5-4B").unwrap();
        let w = ArtifactValidator::for_target(&other, &gpu).shard(0, 2);
        let r = w.validate_manifest(&manifest, &store);
        assert_eq!(r.first_failure().unwrap().0.name(), "target_key");
        assert_eq!(r.first_failure().unwrap().1.kind(), "artifact_mismatch");

        manifest.version += 1;
        let r = v.validate_manifest(&manifest, &store);
        assert_eq!(r.first_failure().unwrap().0.name(), "format_version");
        assert_eq!(r.first_failure().unwrap().1.kind(), "artifact_corrupt");
    }
}
