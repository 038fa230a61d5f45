//! Template artifacts: factor a model family's shared capture out of its
//! per-model artifacts.
//!
//! Foundry's observation (PAPERS.md) is that most of a captured serving
//! context is a *template* shared across a model family: the graph topology,
//! kernel name tables, and (de)allocation replay depend on the architecture
//! and engine, not on which fine-tune's weights are loaded. This module
//! factors a captured [`MaterializedState`] bundle accordingly:
//!
//! * an [`ArtifactTemplate`] holds the family-shared sections — replay
//!   sequence, semantic labels, pointer tables, materialized graphs, and
//!   analysis stats, per rank;
//! * a [`ModelDelta`] holds what distinguishes one member — its name, KV
//!   budget, and permanent-buffer contents (the weight-adjacent bytes) —
//!   and pins the template it instantiates against by digest;
//! * [`ArtifactTemplate::instantiate`] rebuilds the member's full sealed
//!   bundle at restore time; the result is field-identical to the directly
//!   captured artifact, so its [`content_checksum`] matches exactly.
//!
//! [`content_checksum`]: MaterializedState::content_checksum

use super::maf2;
use super::{AnalysisStats, GraphSpec, MaterializedState, PtrTableEntry, ReplayOp};
use crate::error::{MedusaError, MedusaResult};
use medusa_gpu::splitmix64;
use medusa_gpu::Digest;
use std::collections::{BTreeSet, HashMap};

fn corrupt(detail: impl Into<String>) -> MedusaError {
    MedusaError::ArtifactCorrupt {
        detail: detail.into(),
    }
}

/// The family-shared half of one shard's capture.
#[derive(Debug, Clone, PartialEq)]
struct TemplateShard {
    rank: u32,
    replay_prefix_allocs: u64,
    replay_ops: Vec<ReplayOp>,
    labels: HashMap<String, u64>,
    permanent_ptr_tables: Vec<(u64, Vec<PtrTableEntry>)>,
    graphs: Vec<GraphSpec>,
    stats: AnalysisStats,
}

/// The per-model half of one shard's capture.
#[derive(Debug, Clone, PartialEq)]
struct DeltaShard {
    rank: u32,
    kv_free_bytes: u64,
    permanent_contents: Vec<(u64, Digest)>,
}

/// A model family's shared capture: everything in a
/// [`MaterializedState`] bundle that does not depend on which member's
/// weights are loaded.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactTemplate {
    /// Family name (free-form; stamped into telemetry and store listings).
    pub family: String,
    /// GPU the family was captured on.
    pub gpu: String,
    /// Tensor-parallel degree.
    pub tp: u32,
    /// Artifact format version the capture was sealed under.
    pub version: u32,
    shards: Vec<TemplateShard>,
}

/// One family member's instantiation parameters on top of a template.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelDelta {
    /// The member's model name.
    pub model: String,
    /// Digest of the [`ArtifactTemplate`] this delta instantiates against.
    pub template: u64,
    shards: Vec<DeltaShard>,
}

impl ArtifactTemplate {
    /// Factors a captured bundle (one [`MaterializedState`] per rank) into
    /// its family template and the capturing member's delta.
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::ArtifactCorrupt`] when the bundle is empty,
    /// shards disagree on `<model, gpu, tp, version>`, or ranks repeat.
    pub fn extract(
        shards: &[MaterializedState],
        family: &str,
    ) -> MedusaResult<(ArtifactTemplate, ModelDelta)> {
        let first = shards
            .first()
            .ok_or_else(|| corrupt("cannot extract a template from an empty bundle"))?;
        let mut ordered: Vec<&MaterializedState> = shards.iter().collect();
        ordered.sort_by_key(|s| s.rank);
        let mut seen = BTreeSet::new();
        for s in &ordered {
            if s.model != first.model
                || s.gpu != first.gpu
                || s.tp != first.tp
                || s.version != first.version
            {
                return Err(corrupt(format!(
                    "bundle shards disagree: {}/{} tp{} v{} vs {}/{} tp{} v{}",
                    s.model,
                    s.gpu,
                    s.tp,
                    s.version,
                    first.model,
                    first.gpu,
                    first.tp,
                    first.version
                )));
            }
            if !seen.insert(s.rank) {
                return Err(corrupt(format!("duplicate rank {} in bundle", s.rank)));
            }
        }
        let template = ArtifactTemplate {
            family: family.to_string(),
            gpu: first.gpu.clone(),
            tp: first.tp,
            version: first.version,
            shards: ordered
                .iter()
                .map(|s| TemplateShard {
                    rank: s.rank,
                    replay_prefix_allocs: s.replay_prefix_allocs,
                    replay_ops: s.replay_ops.clone(),
                    labels: s.labels.clone(),
                    permanent_ptr_tables: s.permanent_ptr_tables.clone(),
                    graphs: s.graphs.clone(),
                    stats: s.stats.clone(),
                })
                .collect(),
        };
        let delta = ModelDelta {
            model: first.model.clone(),
            template: template.digest(),
            shards: ordered
                .iter()
                .map(|s| DeltaShard {
                    rank: s.rank,
                    kv_free_bytes: s.kv_free_bytes,
                    permanent_contents: s.permanent_contents.clone(),
                })
                .collect(),
        };
        Ok((template, delta))
    }

    /// The template's canonical fingerprint: the [`maf2::digest`] of the
    /// family name, the version and each shard's content checksum computed
    /// over a *canonical instantiation* (empty model name, zero KV budget,
    /// no permanent contents). Reuses the artifact fold, so two templates agree iff every
    /// shared field agrees.
    pub fn digest(&self) -> u64 {
        let mut body = Vec::with_capacity(self.family.len() + self.shards.len() * 8 + 8);
        body.extend_from_slice(self.family.as_bytes());
        body.extend_from_slice(&u64::from(self.version).to_le_bytes());
        for shard in &self.shards {
            let canonical = self.build_state(shard, "", 0, Vec::new());
            body.extend_from_slice(&canonical.content_checksum().to_le_bytes());
        }
        maf2::digest(&body)
    }

    /// Ranks present in the template, ascending.
    pub fn shard_ranks(&self) -> Vec<u32> {
        self.shards.iter().map(|s| s.rank).collect()
    }

    fn build_state(
        &self,
        shard: &TemplateShard,
        model: &str,
        kv_free_bytes: u64,
        permanent_contents: Vec<(u64, Digest)>,
    ) -> MaterializedState {
        MaterializedState {
            version: self.version,
            model: model.to_string(),
            gpu: self.gpu.clone(),
            rank: shard.rank,
            tp: self.tp,
            kv_free_bytes,
            replay_prefix_allocs: shard.replay_prefix_allocs,
            replay_ops: shard.replay_ops.clone(),
            labels: shard.labels.clone(),
            permanent_contents,
            permanent_ptr_tables: shard.permanent_ptr_tables.clone(),
            graphs: shard.graphs.clone(),
            stats: shard.stats.clone(),
            checksum: 0,
        }
    }

    /// Factors another captured bundle against *this* template, returning
    /// its delta — the membership check for adding a family member.
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::ArtifactMismatch`] when the bundle's shared
    /// sections differ from this template (it is not a family member), plus
    /// the [`ArtifactTemplate::extract`] structural errors.
    pub fn delta_for(&self, shards: &[MaterializedState]) -> MedusaResult<ModelDelta> {
        let (other, delta) = ArtifactTemplate::extract(shards, &self.family)?;
        if other.digest() != self.digest() {
            return Err(MedusaError::ArtifactMismatch {
                artifact: format!("captured bundle for {}", delta.model),
                target: format!("family template {} ({:#018x})", self.family, self.digest()),
            });
        }
        Ok(delta)
    }

    /// Instantiates a family member: template + delta → the member's full
    /// sealed bundle, field-identical to a direct capture (equal
    /// [`content_checksum`](MaterializedState::content_checksum)).
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::ArtifactMismatch`] when the delta references
    /// a different template digest, and [`MedusaError::ArtifactCorrupt`]
    /// when the delta's ranks do not match the template's.
    pub fn instantiate(&self, delta: &ModelDelta) -> MedusaResult<Vec<MaterializedState>> {
        let digest = self.digest();
        if delta.template != digest {
            return Err(MedusaError::ArtifactMismatch {
                artifact: format!(
                    "delta for {} (template {:#018x})",
                    delta.model, delta.template
                ),
                target: format!("template {} ({digest:#018x})", self.family),
            });
        }
        if delta.shards.len() != self.shards.len()
            || delta
                .shards
                .iter()
                .zip(&self.shards)
                .any(|(d, t)| d.rank != t.rank)
        {
            return Err(corrupt(format!(
                "delta ranks {:?} do not match template ranks {:?}",
                delta.shards.iter().map(|s| s.rank).collect::<Vec<_>>(),
                self.shard_ranks()
            )));
        }
        Ok(delta
            .shards
            .iter()
            .zip(&self.shards)
            .map(|(d, t)| {
                let mut s = self.build_state(
                    t,
                    &delta.model,
                    d.kv_free_bytes,
                    d.permanent_contents.clone(),
                );
                s.seal();
                s
            })
            .collect())
    }
}

impl ModelDelta {
    /// Derives a synthetic family member from this delta: a new model name,
    /// a seed-perturbed KV budget, and seed-perturbed permanent-buffer
    /// contents — the "fine-tune of the same base" generator used by the
    /// registry bench, CLI, and tests. Deterministic per `(name, seed)`.
    pub fn derive_variant(&self, name: &str, seed: u64) -> ModelDelta {
        ModelDelta {
            model: name.to_string(),
            template: self.template,
            shards: self
                .shards
                .iter()
                .map(|s| DeltaShard {
                    rank: s.rank,
                    kv_free_bytes: s.kv_free_bytes
                        ^ (splitmix64(seed ^ u64::from(s.rank)) & 0x3f_ffff),
                    permanent_contents: s
                        .permanent_contents
                        .iter()
                        .enumerate()
                        .map(|(i, (seq, d))| {
                            let mut d = *d;
                            let r = splitmix64(seed ^ (i as u64) << 8 ^ u64::from(s.rank));
                            d[0] ^= (r & 0xff) as u8;
                            d[1] ^= ((r >> 8) & 0xff) as u8;
                            (*seq, d)
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::tests_support::tiny_sealed;

    fn bundle(tp: u32) -> Vec<MaterializedState> {
        (0..tp)
            .map(|rank| {
                let mut s = tiny_sealed();
                s.rank = rank;
                s.tp = tp;
                s.kv_free_bytes += u64::from(rank);
                s.seal();
                s
            })
            .collect()
    }

    #[test]
    fn extract_then_instantiate_reproduces_the_capture() {
        let shards = bundle(2);
        let (template, delta) = ArtifactTemplate::extract(&shards, "qwen-fam").unwrap();
        let rebuilt = template.instantiate(&delta).unwrap();
        assert_eq!(rebuilt, shards, "instantiation is field-identical");
        for (a, b) in rebuilt.iter().zip(&shards) {
            assert_eq!(a.content_checksum(), b.content_checksum());
            a.verify_checksum().unwrap();
        }
    }

    #[test]
    fn digest_pins_shared_fields_only() {
        let shards = bundle(1);
        let (template, delta) = ArtifactTemplate::extract(&shards, "fam").unwrap();
        // A different member (new name/KV/contents) shares the template.
        let other = template.delta_for(
            &template
                .instantiate(&delta.derive_variant("fam-ft1", 9))
                .unwrap(),
        );
        assert_eq!(other.unwrap().template, template.digest());
        // A changed shared field (graphs) is a different template.
        let mut skewed = shards.clone();
        skewed[0].graphs.pop();
        skewed[0].seal();
        let err = template.delta_for(&skewed).unwrap_err();
        assert_eq!(err.kind(), "artifact_mismatch");
    }

    #[test]
    fn instantiate_rejects_wrong_template_and_ranks() {
        let shards = bundle(2);
        let (template, delta) = ArtifactTemplate::extract(&shards, "fam").unwrap();
        let mut wrong = delta.clone();
        wrong.template ^= 1;
        assert_eq!(
            template.instantiate(&wrong).unwrap_err().kind(),
            "artifact_mismatch"
        );
        let (solo_template, _) = ArtifactTemplate::extract(&bundle(1), "fam").unwrap();
        let mut cross = delta.clone();
        cross.template = solo_template.digest();
        assert_eq!(
            solo_template.instantiate(&cross).unwrap_err().kind(),
            "artifact_corrupt"
        );
    }

    #[test]
    fn extract_rejects_inconsistent_bundles() {
        assert_eq!(
            ArtifactTemplate::extract(&[], "fam").unwrap_err().kind(),
            "artifact_corrupt"
        );
        let mut shards = bundle(2);
        shards[1].model = "other".into();
        shards[1].seal();
        assert_eq!(
            ArtifactTemplate::extract(&shards, "fam")
                .unwrap_err()
                .kind(),
            "artifact_corrupt"
        );
        let dup = vec![shards[0].clone(), shards[0].clone()];
        assert_eq!(
            ArtifactTemplate::extract(&dup, "fam").unwrap_err().kind(),
            "artifact_corrupt"
        );
    }

    #[test]
    fn derived_variants_are_deterministic_and_distinct() {
        let shards = bundle(1);
        let (template, delta) = ArtifactTemplate::extract(&shards, "fam").unwrap();
        let v1 = delta.derive_variant("fam-ft1", 7);
        assert_eq!(v1, delta.derive_variant("fam-ft1", 7));
        let v2 = delta.derive_variant("fam-ft2", 8);
        assert_ne!(v1.shards, v2.shards);
        let s1 = template.instantiate(&v1).unwrap();
        let s2 = template.instantiate(&v2).unwrap();
        assert_ne!(
            s1[0].content_checksum(),
            s2[0].content_checksum(),
            "variants are distinct artifacts"
        );
    }
}
