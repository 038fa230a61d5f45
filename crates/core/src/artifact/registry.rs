//! Content-addressed chunk registry over MAF2 artifacts.
//!
//! Medusa captures one artifact per `<GPU type, model type>`, so a naive
//! registry re-transfers every byte of an artifact even when the fetching
//! node already holds most of them — and a model *family* (fine-tunes of one
//! base, or size variants sharing an architecture) stores near-identical
//! graph/kernel-table/replay sections once per member. This module closes
//! both gaps the way content-addressed stores do:
//!
//! * a MAF2 file is split into **content-defined chunks** (Gear-hash CDC
//!   with boundaries *forced* at section seams, so a section shared by two
//!   artifacts chunks identically regardless of where it lands in the file);
//! * each chunk is keyed by its **XXH64 digest** ([`maf2::digest`]) and
//!   stored once in a
//!   [`ChunkStore`];
//! * each artifact is described by a [`ChunkManifest`] — the ordered chunk
//!   digests whose concatenation reproduces the original bytes exactly,
//!   plus a **section map** recording which chunks each `(kind, shard)`
//!   section covers, which is what makes O(manifest) shard-scoped
//!   validation and lazy per-shard fetches possible;
//! * a family's common chunks factor into a [`TemplateManifest`] that
//!   per-model manifests reference by digest, so registry storage for a
//!   4-model family collapses to ~1 template + 4 small deltas.
//!
//! Every encoding here is canonical and seed-free: packing the same bytes
//! always yields the same chunk boundaries, digests, and manifest encoding,
//! so manifests fingerprint exactly like artifacts and goldens stay stable.

use super::maf2::{self, Maf2Reader, SectionKind};
use crate::error::{MedusaError, MedusaResult};
use medusa_gpu::splitmix64;
use std::collections::{BTreeMap, BTreeSet};

/// Manifest layout version, bumped on breaking changes to the canonical
/// encoding (v2: every digest and seal is [`maf2::digest`]).
pub const MANIFEST_VERSION: u32 = 2;

/// Minimum content-defined chunk length in bytes (regions shorter than this
/// become a single chunk).
pub const CHUNK_MIN: usize = 1 << 10;

/// Maximum chunk length in bytes; a boundary is forced at this span.
pub const CHUNK_MAX: usize = 1 << 15;

/// Average-size mask width: a chunk boundary fires when the low
/// `CHUNK_AVG_BITS` bits of the rolling Gear hash are zero (~4 KiB mean).
pub const CHUNK_AVG_BITS: u32 = 12;

/// Magic prefix of a canonically encoded [`ChunkManifest`].
pub const MANIFEST_MAGIC: [u8; 4] = *b"MCM1";

/// Magic prefix of a canonically encoded [`ChunkStore`].
pub const STORE_MAGIC: [u8; 4] = *b"MCS1";

fn corrupt(detail: impl Into<String>) -> MedusaError {
    MedusaError::ArtifactCorrupt {
        detail: detail.into(),
    }
}

/// A reference to one deduplicated chunk: its content digest and length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRef {
    /// [`maf2::digest`] of the chunk bytes.
    pub digest: u64,
    /// Chunk length in bytes.
    pub len: u32,
}

/// One entry of a manifest's section map: the contiguous run of manifest
/// chunks that carries one MAF2 section's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionSpan {
    /// Section kind.
    pub kind: SectionKind,
    /// Owning shard rank.
    pub shard: u32,
    /// Index of the first covering chunk in [`ChunkManifest::chunks`].
    pub first_chunk: u32,
    /// Number of covering chunks.
    pub chunk_count: u32,
}

/// The manifest of one packed artifact: ordered chunk references whose
/// concatenation reproduces the original MAF2 bytes, plus the section map.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkManifest {
    /// Manifest layout version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// Model name from the artifact's target key.
    pub model: String,
    /// GPU name from the artifact's target key.
    pub gpu: String,
    /// Tensor-parallel degree of the bundle.
    pub tp: u32,
    /// Total artifact length in bytes (sum of chunk lengths).
    pub total_bytes: u64,
    /// Ordered chunk references.
    pub chunks: Vec<ChunkRef>,
    /// Section map: which chunks carry each `(kind, shard)` section.
    pub sections: Vec<SectionSpan>,
    /// Digest of the [`TemplateManifest`] this artifact's family factors
    /// through, once [`ChunkStore::factor_family`] ran.
    pub template: Option<u64>,
}

impl ChunkManifest {
    /// Canonical byte encoding: fixed little-endian layout sealed by a
    /// trailing [`maf2::digest`]. Same manifest, same bytes — always.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MANIFEST_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.tp.to_le_bytes());
        out.extend_from_slice(&(self.model.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.gpu.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        out.extend_from_slice(&u32::from(self.template.is_some()).to_le_bytes());
        out.extend_from_slice(&self.template.unwrap_or(0).to_le_bytes());
        out.extend_from_slice(&self.total_bytes.to_le_bytes());
        out.extend_from_slice(self.model.as_bytes());
        out.extend_from_slice(self.gpu.as_bytes());
        for c in &self.chunks {
            out.extend_from_slice(&c.digest.to_le_bytes());
            out.extend_from_slice(&c.len.to_le_bytes());
        }
        for s in &self.sections {
            out.extend_from_slice(&s.kind.code().to_le_bytes());
            out.extend_from_slice(&s.shard.to_le_bytes());
            out.extend_from_slice(&s.first_chunk.to_le_bytes());
            out.extend_from_slice(&s.chunk_count.to_le_bytes());
        }
        let seal = maf2::digest(&out);
        out.extend_from_slice(&seal.to_le_bytes());
        out
    }

    /// Decodes a canonical manifest encoding.
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::ArtifactCorrupt`] for truncation, bad magic,
    /// an unsupported version, a field [`ChunkManifest::encode`] never
    /// writes (a template flag other than 0 or 1, a template digest without
    /// the flag), or a `total_bytes` other than the sum of the chunk
    /// lengths, and [`MedusaError::ChecksumMismatch`] when the trailing
    /// seal disagrees.
    pub fn decode(bytes: &[u8]) -> MedusaResult<ChunkManifest> {
        if bytes.len() < 48 + 8 {
            return Err(corrupt(format!(
                "manifest truncated: {} bytes",
                bytes.len()
            )));
        }
        if bytes[..4] != MANIFEST_MAGIC {
            return Err(corrupt("bad magic: not a chunk manifest"));
        }
        let body = &bytes[..bytes.len() - 8];
        let mut seal = [0u8; 8];
        seal.copy_from_slice(&bytes[bytes.len() - 8..]);
        let expected = u64::from_le_bytes(seal);
        let actual = maf2::digest(body);
        if actual != expected {
            return Err(MedusaError::ChecksumMismatch { expected, actual });
        }
        let le32 =
            |o: usize| u32::from_le_bytes([bytes[o], bytes[o + 1], bytes[o + 2], bytes[o + 3]]);
        let le64 = |o: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[o..o + 8]);
            u64::from_le_bytes(b)
        };
        let version = le32(4);
        if version != MANIFEST_VERSION {
            return Err(corrupt(format!(
                "manifest version {version} != supported {MANIFEST_VERSION}"
            )));
        }
        let tp = le32(8);
        let model_len = le32(12) as usize;
        let gpu_len = le32(16) as usize;
        let chunk_count = le32(20) as usize;
        let section_count = le32(24) as usize;
        // Exactly one encoding per state: an absent template is flag 0 with
        // a zero digest.
        let template = match (le32(28), le64(32)) {
            (0, 0) => None,
            (1, digest) => Some(digest),
            (0, _) => return Err(corrupt("manifest has a template digest but no template")),
            (flag, _) => return Err(corrupt(format!("manifest template flag is {flag}"))),
        };
        let total_bytes = le64(40);
        let need = 48 + model_len + gpu_len + chunk_count * 12 + section_count * 16;
        if body.len() != need {
            return Err(corrupt(format!(
                "manifest body is {} bytes, layout requires {need}",
                body.len()
            )));
        }
        let model = std::str::from_utf8(&bytes[48..48 + model_len])
            .map_err(|_| corrupt("manifest model name is not valid UTF-8"))?
            .to_string();
        let gpu = std::str::from_utf8(&bytes[48 + model_len..48 + model_len + gpu_len])
            .map_err(|_| corrupt("manifest gpu name is not valid UTF-8"))?
            .to_string();
        let mut off = 48 + model_len + gpu_len;
        let mut chunks = Vec::with_capacity(chunk_count);
        for _ in 0..chunk_count {
            chunks.push(ChunkRef {
                digest: le64(off),
                len: le32(off + 8),
            });
            off += 12;
        }
        let chunk_bytes: u64 = chunks.iter().map(|c| u64::from(c.len)).sum();
        if total_bytes != chunk_bytes {
            return Err(corrupt(format!(
                "manifest total_bytes is {total_bytes}, its chunks hold {chunk_bytes}"
            )));
        }
        let mut sections = Vec::with_capacity(section_count);
        for i in 0..section_count {
            let kind = SectionKind::from_code(le32(off))
                .ok_or_else(|| corrupt(format!("section span {i} has unknown kind")))?;
            let span = SectionSpan {
                kind,
                shard: le32(off + 4),
                first_chunk: le32(off + 8),
                chunk_count: le32(off + 12),
            };
            let end = span.first_chunk as usize + span.chunk_count as usize;
            if end > chunks.len() {
                return Err(corrupt(format!(
                    "section span {i} covers chunks [{}, {end}) of {}",
                    span.first_chunk,
                    chunks.len()
                )));
            }
            sections.push(span);
            off += 16;
        }
        Ok(ChunkManifest {
            version,
            model,
            gpu,
            tp,
            total_bytes,
            chunks,
            sections,
            template,
        })
    }

    /// Canonical fingerprint of the manifest: the seal of its encoding.
    pub fn digest(&self) -> u64 {
        let encoded = self.encode();
        let mut b = [0u8; 8];
        b.copy_from_slice(&encoded[encoded.len() - 8..]);
        u64::from_le_bytes(b)
    }

    /// Encoded manifest size in bytes — what a registry fetch transfers
    /// before any chunk moves.
    pub fn encoded_len(&self) -> u64 {
        (48 + self.model.len()
            + self.gpu.len()
            + self.chunks.len() * 12
            + self.sections.len() * 16
            + 8) as u64
    }

    /// Chunk indices the `(rank)` shard touches: every chunk of a section
    /// owned by `rank`, plus the framing chunks (header, target key, section
    /// index) not covered by any section span. This is the O(manifest)
    /// footprint a shard-scoped validation or lazy fetch must verify —
    /// mirroring the MAF2 lazy-restore invariant that a rank reads only its
    /// own sections.
    pub fn shard_chunk_indices(&self, rank: u32) -> Vec<u32> {
        let mut covered: BTreeSet<u32> = BTreeSet::new();
        let mut wanted: BTreeSet<u32> = BTreeSet::new();
        for s in &self.sections {
            for i in s.first_chunk..s.first_chunk + s.chunk_count {
                covered.insert(i);
                if s.shard == rank {
                    wanted.insert(i);
                }
            }
        }
        for i in 0..self.chunks.len() as u32 {
            if !covered.contains(&i) {
                wanted.insert(i);
            }
        }
        wanted.into_iter().collect()
    }

    /// Ranks that own at least one section in this manifest.
    pub fn shard_ranks(&self) -> Vec<u32> {
        let ranks: BTreeSet<u32> = self.sections.iter().map(|s| s.shard).collect();
        ranks.into_iter().collect()
    }
}

/// A factored family template: the chunks every member of a model family
/// shares, referenced by per-model manifests via [`ChunkManifest::template`].
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateManifest {
    /// Family name the template was factored for.
    pub family: String,
    /// The shared chunks, in first-member manifest order.
    pub chunks: Vec<ChunkRef>,
    /// Total shared bytes.
    pub bytes: u64,
    /// Canonical fingerprint of the template ([`maf2::digest`] over family +
    /// chunk refs).
    pub digest: u64,
}

impl TemplateManifest {
    fn seal(family: &str, chunks: &[ChunkRef]) -> u64 {
        let mut body = Vec::with_capacity(family.len() + chunks.len() * 12);
        body.extend_from_slice(family.as_bytes());
        for c in chunks {
            body.extend_from_slice(&c.digest.to_le_bytes());
            body.extend_from_slice(&c.len.to_le_bytes());
        }
        maf2::digest(&body)
    }
}

/// Deduplication statistics over a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DedupStats {
    /// Number of packed manifests.
    pub manifests: usize,
    /// Sum of manifest `total_bytes` — what a whole-artifact registry
    /// stores and transfers.
    pub logical_bytes: u64,
    /// Bytes actually stored after deduplication.
    pub stored_bytes: u64,
    /// Distinct chunks in the store.
    pub unique_chunks: usize,
}

impl DedupStats {
    /// Deduplication ratio `logical / stored` (1.0 when the store is empty).
    pub fn ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            1.0
        } else {
            self.logical_bytes as f64 / self.stored_bytes as f64
        }
    }
}

/// A deduplicated chunk store plus the manifests packed into it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChunkStore {
    chunks: BTreeMap<u64, Vec<u8>>,
    manifests: Vec<ChunkManifest>,
    templates: Vec<TemplateManifest>,
}

/// Content-defined chunk boundaries over `data`: Gear-hash CDC
/// ([`CHUNK_MIN`], ~2^[`CHUNK_AVG_BITS`] mean, [`CHUNK_MAX`]) with extra
/// boundaries forced at `forced` offsets. Returns half-open spans covering
/// `data` exactly; deterministic for given content.
pub fn chunk_spans(data: &[u8], forced: &[usize]) -> Vec<(usize, usize)> {
    let mut gear = [0u64; 256];
    for (i, g) in gear.iter_mut().enumerate() {
        *g = splitmix64(0x6765_6172 ^ i as u64);
    }
    let mask: u64 = (1 << CHUNK_AVG_BITS) - 1;

    let mut cuts: BTreeSet<usize> = forced
        .iter()
        .copied()
        .filter(|&o| o > 0 && o < data.len())
        .collect();
    cuts.insert(0);
    cuts.insert(data.len());
    let regions: Vec<usize> = cuts.into_iter().collect();

    let mut spans = Vec::new();
    for w in regions.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let mut start = lo;
        let mut h: u64 = 0;
        for (pos, &b) in data[lo..hi].iter().enumerate() {
            let at = lo + pos;
            h = (h << 1).wrapping_add(gear[b as usize]);
            let span = at + 1 - start;
            if span >= CHUNK_MAX || (span >= CHUNK_MIN && h & mask == 0) {
                spans.push((start, at + 1));
                start = at + 1;
                h = 0;
            }
        }
        if start < hi {
            spans.push((start, hi));
        }
    }
    spans
}

impl ChunkStore {
    /// An empty store.
    pub fn new() -> Self {
        ChunkStore::default()
    }

    /// Packs one MAF2 artifact into the store: opens and validates the
    /// header + index, splits the file into content-defined chunks with
    /// boundaries forced at section seams, deduplicates them against the
    /// store, and records (and returns) the manifest.
    ///
    /// # Errors
    ///
    /// Returns the [`Maf2Reader::open`] error for malformed input, and
    /// [`MedusaError::ArtifactCorrupt`] on a chunk digest collision.
    pub fn pack(&mut self, bytes: &[u8]) -> MedusaResult<ChunkManifest> {
        let reader = Maf2Reader::open(bytes)?;
        let extents = reader.section_extents();
        let mut forced: Vec<usize> = extents.iter().map(|e| e.offset as usize).collect();
        if let Some(last) = extents.iter().map(|e| (e.offset + e.len) as usize).max() {
            // The section index begins right after the last payload byte.
            forced.push(last);
        }
        let spans = chunk_spans(bytes, &forced);

        let mut chunks = Vec::with_capacity(spans.len());
        for &(lo, hi) in &spans {
            let slice = &bytes[lo..hi];
            let digest = maf2::digest(slice);
            match self.chunks.get(&digest) {
                Some(existing) if existing.as_slice() != slice => {
                    return Err(corrupt(format!(
                        "chunk digest collision on {digest:#018x}: {} vs {} bytes",
                        existing.len(),
                        slice.len()
                    )));
                }
                Some(_) => {}
                None => {
                    self.chunks.insert(digest, slice.to_vec());
                }
            }
            chunks.push(ChunkRef {
                digest,
                len: (hi - lo) as u32,
            });
        }

        // Section map: seams were forced at every extent boundary, so each
        // extent covers a whole number of consecutive chunks.
        let mut sections = Vec::with_capacity(extents.len());
        for e in &extents {
            let first = spans
                .iter()
                .position(|&(lo, _)| lo as u64 == e.offset)
                .or_else(|| (e.len == 0).then_some(0));
            let Some(first) = first else {
                return Err(corrupt(format!(
                    "no chunk seam at section offset {} ({:?} shard {})",
                    e.offset, e.kind, e.shard
                )));
            };
            let mut count = 0u32;
            let mut covered = 0u64;
            while covered < e.len {
                let (lo, hi) = spans[first + count as usize];
                covered += (hi - lo) as u64;
                count += 1;
            }
            if covered != e.len {
                return Err(corrupt(format!(
                    "chunk seams straddle section {:?} shard {}",
                    e.kind, e.shard
                )));
            }
            sections.push(SectionSpan {
                kind: e.kind,
                shard: e.shard,
                first_chunk: if e.len == 0 { 0 } else { first as u32 },
                chunk_count: count,
            });
        }

        let manifest = ChunkManifest {
            version: MANIFEST_VERSION,
            model: reader.model().to_string(),
            gpu: reader.gpu().to_string(),
            tp: reader.tp(),
            total_bytes: bytes.len() as u64,
            chunks,
            sections,
            template: None,
        };
        self.manifests.push(manifest.clone());
        Ok(manifest)
    }

    /// The raw bytes of one chunk, if present.
    pub fn get(&self, digest: u64) -> Option<&[u8]> {
        self.chunks.get(&digest).map(Vec::as_slice)
    }

    /// Verifies one chunk against its reference: present, right length,
    /// digest matches a recomputation.
    ///
    /// # Errors
    ///
    /// [`MedusaError::ArtifactCorrupt`] when the chunk is missing,
    /// [`MedusaError::WeightStreamTruncated`] when it is shorter or longer
    /// than the manifest says, [`MedusaError::ChecksumMismatch`] when the
    /// bytes do not hash back to the digest they are stored under.
    pub fn verify(&self, r: &ChunkRef) -> MedusaResult<&[u8]> {
        let bytes = self
            .chunks
            .get(&r.digest)
            .ok_or_else(|| corrupt(format!("chunk {:#018x} missing from store", r.digest)))?;
        if bytes.len() != r.len as usize {
            return Err(MedusaError::WeightStreamTruncated {
                loaded: bytes.len() as u64,
                expected: u64::from(r.len),
            });
        }
        let actual = maf2::digest(bytes);
        if actual != r.digest {
            return Err(MedusaError::ChecksumMismatch {
                expected: r.digest,
                actual,
            });
        }
        Ok(bytes)
    }

    /// Fetches (and verifies) every referenced chunk, in order.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ChunkStore::verify`] failure.
    pub fn fetch(&self, refs: &[ChunkRef]) -> MedusaResult<Vec<&[u8]>> {
        refs.iter().map(|r| self.verify(r)).collect()
    }

    /// Reassembles the original artifact bytes from a manifest —
    /// `pack → fetch-all → reassemble` is byte-identical to the input.
    ///
    /// # Errors
    ///
    /// Propagates chunk verification failures; returns
    /// [`MedusaError::ArtifactCorrupt`] when the assembled length disagrees
    /// with the manifest.
    pub fn assemble(&self, manifest: &ChunkManifest) -> MedusaResult<Vec<u8>> {
        let mut out = Vec::with_capacity(manifest.total_bytes as usize);
        for r in &manifest.chunks {
            out.extend_from_slice(self.verify(r)?);
        }
        if out.len() as u64 != manifest.total_bytes {
            return Err(corrupt(format!(
                "assembled {} bytes, manifest declares {}",
                out.len(),
                manifest.total_bytes
            )));
        }
        Ok(out)
    }

    /// Every manifest packed so far, in pack order.
    pub fn manifests(&self) -> &[ChunkManifest] {
        &self.manifests
    }

    /// Every factored template.
    pub fn templates(&self) -> &[TemplateManifest] {
        &self.templates
    }

    /// Deduplication statistics over the current store contents.
    pub fn dedup_stats(&self) -> DedupStats {
        DedupStats {
            manifests: self.manifests.len(),
            logical_bytes: self.manifests.iter().map(|m| m.total_bytes).sum(),
            stored_bytes: self.chunks.values().map(|c| c.len() as u64).sum(),
            unique_chunks: self.chunks.len(),
        }
    }

    /// Factors the chunks shared by *every* packed manifest into a
    /// [`TemplateManifest`] and stamps each manifest's
    /// [`template`](ChunkManifest::template) reference — the "1 template +
    /// N small deltas" storage shape for a model family.
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::ArtifactCorrupt`] when the store holds no
    /// manifests.
    pub fn factor_family(&mut self, family: &str) -> MedusaResult<TemplateManifest> {
        let first = self
            .manifests
            .first()
            .ok_or_else(|| corrupt("cannot factor a family from an empty store"))?;
        let mut shared: BTreeSet<u64> = first.chunks.iter().map(|c| c.digest).collect();
        for m in &self.manifests[1..] {
            let digests: BTreeSet<u64> = m.chunks.iter().map(|c| c.digest).collect();
            shared = shared.intersection(&digests).copied().collect();
        }
        let mut seen = BTreeSet::new();
        let chunks: Vec<ChunkRef> = first
            .chunks
            .iter()
            .filter(|c| shared.contains(&c.digest) && seen.insert(c.digest))
            .copied()
            .collect();
        let bytes = chunks.iter().map(|c| u64::from(c.len)).sum();
        let digest = TemplateManifest::seal(family, &chunks);
        let template = TemplateManifest {
            family: family.to_string(),
            chunks,
            bytes,
            digest,
        };
        for m in &mut self.manifests {
            m.template = Some(digest);
        }
        self.templates.push(template.clone());
        Ok(template)
    }

    /// Bytes of `manifest` *not* covered by `template` — the per-model delta
    /// a family member adds on top of the shared template.
    pub fn delta_bytes(manifest: &ChunkManifest, template: &TemplateManifest) -> u64 {
        let shared: BTreeSet<u64> = template.chunks.iter().map(|c| c.digest).collect();
        manifest
            .chunks
            .iter()
            .filter(|c| !shared.contains(&c.digest))
            .map(|c| u64::from(c.len))
            .sum()
    }

    /// Canonical single-file encoding of the whole store (manifests,
    /// templates, deduplicated chunks), sealed by a trailing digest — the
    /// `medusa-cli registry` on-disk format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&STORE_MAGIC);
        out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.manifests.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.templates.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        for m in &self.manifests {
            let enc = m.encode();
            out.extend_from_slice(&(enc.len() as u32).to_le_bytes());
            out.extend_from_slice(&enc);
        }
        for t in &self.templates {
            out.extend_from_slice(&(t.family.len() as u32).to_le_bytes());
            out.extend_from_slice(&(t.chunks.len() as u32).to_le_bytes());
            out.extend_from_slice(&t.bytes.to_le_bytes());
            out.extend_from_slice(&t.digest.to_le_bytes());
            out.extend_from_slice(t.family.as_bytes());
            for c in &t.chunks {
                out.extend_from_slice(&c.digest.to_le_bytes());
                out.extend_from_slice(&c.len.to_le_bytes());
            }
        }
        for (digest, bytes) in &self.chunks {
            out.extend_from_slice(&digest.to_le_bytes());
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        let seal = maf2::digest(&out);
        out.extend_from_slice(&seal.to_le_bytes());
        out
    }

    /// Decodes a store file written by [`ChunkStore::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::ArtifactCorrupt`] for truncation, structural
    /// damage, bytes [`ChunkStore::encode`] never writes (a nonzero pad
    /// word, chunks out of ascending digest order or repeated), or a
    /// template whose `bytes` is not the sum of its chunk lengths or whose
    /// `digest` is not the seal of its family and chunks, and
    /// [`MedusaError::ChecksumMismatch`] when the trailing seal disagrees.
    pub fn decode(bytes: &[u8]) -> MedusaResult<ChunkStore> {
        if bytes.len() < 24 + 8 {
            return Err(corrupt(format!("store truncated: {} bytes", bytes.len())));
        }
        if bytes[..4] != STORE_MAGIC {
            return Err(corrupt("bad magic: not a chunk store"));
        }
        let body = &bytes[..bytes.len() - 8];
        let mut seal = [0u8; 8];
        seal.copy_from_slice(&bytes[bytes.len() - 8..]);
        let expected = u64::from_le_bytes(seal);
        let actual = maf2::digest(body);
        if actual != expected {
            return Err(MedusaError::ChecksumMismatch { expected, actual });
        }
        let take = |off: &mut usize, n: usize| -> MedusaResult<&[u8]> {
            let end = off.checked_add(n).filter(|&e| e <= body.len());
            match end {
                Some(end) => {
                    let s = &body[*off..end];
                    *off = end;
                    Ok(s)
                }
                None => Err(corrupt(format!(
                    "store truncated: need {n} bytes at offset {off}"
                ))),
            }
        };
        let le32 = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let le64 = |b: &[u8]| {
            let mut a = [0u8; 8];
            a.copy_from_slice(b);
            u64::from_le_bytes(a)
        };
        let mut off = 4;
        let version = le32(take(&mut off, 4)?);
        if version != MANIFEST_VERSION {
            return Err(corrupt(format!(
                "store version {version} != supported {MANIFEST_VERSION}"
            )));
        }
        let manifest_count = le32(take(&mut off, 4)?) as usize;
        let template_count = le32(take(&mut off, 4)?) as usize;
        let chunk_count = le32(take(&mut off, 4)?) as usize;
        if le32(take(&mut off, 4)?) != 0 {
            return Err(corrupt("store header pad word is nonzero"));
        }
        let mut store = ChunkStore::new();
        for _ in 0..manifest_count {
            let len = le32(take(&mut off, 4)?) as usize;
            store
                .manifests
                .push(ChunkManifest::decode(take(&mut off, len)?)?);
        }
        for _ in 0..template_count {
            let family_len = le32(take(&mut off, 4)?) as usize;
            let tchunks = le32(take(&mut off, 4)?) as usize;
            let bytes_total = le64(take(&mut off, 8)?);
            let digest = le64(take(&mut off, 8)?);
            let family = std::str::from_utf8(take(&mut off, family_len)?)
                .map_err(|_| corrupt("template family name is not valid UTF-8"))?
                .to_string();
            // 12 bytes per chunk reference: never size from the count alone.
            let mut chunks = Vec::with_capacity(tchunks.min((body.len() - off) / 12));
            for _ in 0..tchunks {
                let digest = le64(take(&mut off, 8)?);
                let len = le32(take(&mut off, 4)?);
                chunks.push(ChunkRef { digest, len });
            }
            let chunk_bytes: u64 = chunks.iter().map(|c| u64::from(c.len)).sum();
            if bytes_total != chunk_bytes {
                return Err(corrupt(format!(
                    "template `{family}` bytes is {bytes_total}, its chunks hold {chunk_bytes}"
                )));
            }
            if digest != TemplateManifest::seal(&family, &chunks) {
                return Err(corrupt(format!(
                    "template `{family}` digest is not the seal of its chunks"
                )));
            }
            store.templates.push(TemplateManifest {
                family,
                chunks,
                bytes: bytes_total,
                digest,
            });
        }
        for i in 0..chunk_count {
            let digest = le64(take(&mut off, 8)?);
            // Encoded in ascending digest order, each once.
            if store
                .chunks
                .last_key_value()
                .is_some_and(|(&last, _)| last >= digest)
            {
                return Err(corrupt(format!(
                    "store chunk {i} is out of ascending digest order"
                )));
            }
            let len = le32(take(&mut off, 4)?) as usize;
            store.chunks.insert(digest, take(&mut off, len)?.to_vec());
        }
        if off != body.len() {
            return Err(corrupt(format!(
                "store has {} trailing bytes",
                body.len() - off
            )));
        }
        Ok(store)
    }

    /// Test/fault-injection access: replaces one chunk's bytes in place.
    /// Returns `false` when the digest is absent.
    pub(crate) fn tamper_chunk(&mut self, digest: u64, bytes: Vec<u8>) -> bool {
        match self.chunks.get_mut(&digest) {
            Some(slot) => {
                *slot = bytes;
                true
            }
            None => false,
        }
    }

    /// Digests currently stored, in ascending order.
    pub fn chunk_digests(&self) -> Vec<u64> {
        self.chunks.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::tests_support::tiny_sealed;
    use crate::artifact::MaterializedState;
    use crate::pipeline::materialize_offline;
    use medusa_gpu::{CostModel, GpuSpec};
    use medusa_model::ModelSpec;

    fn base() -> MaterializedState {
        let spec = ModelSpec::by_name("Qwen1.5-0.5B").unwrap();
        materialize_offline(&spec, GpuSpec::a100_40gb(), CostModel::default(), 41)
            .unwrap()
            .0
    }

    /// A family member: same architecture capture, its own name, KV budget,
    /// and permanent-buffer contents.
    fn variant(base: &MaterializedState, m: u64) -> MaterializedState {
        let mut a = base.clone();
        if m > 0 {
            a.model = format!("{}-ft{m}", base.model);
            a.kv_free_bytes ^= m << 20;
            for (i, (_, d)) in a.permanent_contents.iter_mut().enumerate() {
                d[0] ^= (m as u8).wrapping_add(i as u8);
            }
            a.seal();
        }
        a
    }

    #[test]
    fn chunk_spans_cover_exactly_and_respect_forced_seams() {
        let data: Vec<u8> = (0..200_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 8) as u8)
            .collect();
        let forced = vec![0, 777, 100_000, data.len()];
        let spans = chunk_spans(&data, &forced);
        let mut pos = 0;
        for &(lo, hi) in &spans {
            assert_eq!(lo, pos, "spans must tile the input");
            assert!(hi > lo && hi - lo <= CHUNK_MAX);
            pos = hi;
        }
        assert_eq!(pos, data.len());
        assert!(spans.iter().any(|&(lo, _)| lo == 777), "forced seam kept");
        assert!(spans.iter().any(|&(lo, _)| lo == 100_000));
        assert_eq!(spans, chunk_spans(&data, &forced), "deterministic");
    }

    #[test]
    fn pack_assemble_round_trips_byte_identically() {
        let bytes = tiny_sealed().to_maf2().unwrap();
        let mut store = ChunkStore::new();
        let manifest = store.pack(&bytes).unwrap();
        assert_eq!(manifest.total_bytes, bytes.len() as u64);
        assert_eq!(store.assemble(&manifest).unwrap(), bytes);
        let decoded = MaterializedState::from_maf2(&store.assemble(&manifest).unwrap()).unwrap();
        decoded.verify_checksum().unwrap();
    }

    #[test]
    fn manifest_encoding_round_trips_and_fingerprints() {
        let bytes = tiny_sealed().to_maf2().unwrap();
        let mut store = ChunkStore::new();
        let m = store.pack(&bytes).unwrap();
        let enc = m.encode();
        assert_eq!(enc.len() as u64, m.encoded_len());
        let back = ChunkManifest::decode(&enc).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.digest(), m.digest());
        // Tampering trips the seal with a typed error.
        let mut bad = enc.clone();
        bad[20] ^= 1;
        assert_eq!(
            ChunkManifest::decode(&bad).unwrap_err().kind(),
            "checksum_mismatch"
        );
        assert_eq!(
            ChunkManifest::decode(&enc[..30]).unwrap_err().kind(),
            "artifact_corrupt"
        );
    }

    #[test]
    fn family_members_dedup_and_factor_into_a_template() {
        let b = base();
        let mut store = ChunkStore::new();
        for m in 0..4 {
            store.pack(&variant(&b, m).to_maf2().unwrap()).unwrap();
        }
        let stats = store.dedup_stats();
        assert_eq!(stats.manifests, 4);
        assert!(
            stats.ratio() >= 2.0,
            "4 family members must dedup >= 2x, got {:.2} ({} logical / {} stored)",
            stats.ratio(),
            stats.logical_bytes,
            stats.stored_bytes
        );
        let template = store.factor_family("fam").unwrap();
        assert!(template.bytes > 0);
        for m in store.manifests() {
            assert_eq!(m.template, Some(template.digest));
            let delta = ChunkStore::delta_bytes(m, &template);
            assert!(
                delta + template.bytes >= m.total_bytes,
                "template + delta must cover the artifact"
            );
            assert!(
                delta * 2 < m.total_bytes,
                "family delta must be small: {delta} of {}",
                m.total_bytes
            );
        }
    }

    #[test]
    fn store_encoding_round_trips() {
        let mut a = tiny_sealed();
        let mut store = ChunkStore::new();
        store.pack(&a.to_maf2().unwrap()).unwrap();
        a.model = "Qwen1.5-4B-ft1".into();
        a.seal();
        store.pack(&a.to_maf2().unwrap()).unwrap();
        store.factor_family("fam").unwrap();
        let enc = store.encode();
        let back = ChunkStore::decode(&enc).unwrap();
        assert_eq!(back, store);
        assert_eq!(back.encode(), enc, "canonical: re-encode reproduces bytes");
        let mut bad = enc.clone();
        let n = bad.len();
        bad[n / 2] ^= 0x10;
        assert_eq!(
            ChunkStore::decode(&bad).unwrap_err().kind(),
            "checksum_mismatch"
        );
        assert_eq!(
            ChunkStore::decode(&enc[..10]).unwrap_err().kind(),
            "artifact_corrupt"
        );
    }

    #[test]
    fn a_template_chunk_count_past_the_payload_is_a_typed_error() {
        let mut store = ChunkStore::new();
        store.pack(&tiny_sealed().to_maf2().unwrap()).unwrap();
        store.factor_family("fam").unwrap();
        let enc = store.encode();
        // Header (24 bytes), the manifest (length-prefixed), then the
        // template's family length and chunk count.
        let manifest_len = u32::from_le_bytes(enc[24..28].try_into().unwrap()) as usize;
        let at = 24 + 4 + manifest_len + 4;
        for count in [u32::MAX, u32::MAX / 12] {
            let mut bad = enc.clone();
            bad[at..at + 4].copy_from_slice(&count.to_le_bytes());
            let body = bad.len() - 8;
            let seal = maf2::digest(&bad[..body]);
            bad[body..].copy_from_slice(&seal.to_le_bytes());
            let err = ChunkStore::decode(&bad).unwrap_err();
            assert_eq!(err.kind(), "artifact_corrupt", "count {count}: {err}");
        }
    }

    #[test]
    fn shard_chunks_are_a_strict_subset_for_multi_shard_bundles() {
        let tp = 4u32;
        let shards: Vec<MaterializedState> = (0..tp)
            .map(|rank| {
                let mut s = tiny_sealed();
                s.rank = rank;
                s.tp = tp;
                s.seal();
                s
            })
            .collect();
        let refs: Vec<&MaterializedState> = shards.iter().collect();
        let bytes = maf2::encode_bundle(&refs).unwrap();
        let mut store = ChunkStore::new();
        let m = store.pack(&bytes).unwrap();
        assert_eq!(m.shard_ranks(), vec![0, 1, 2, 3]);
        let all: u64 = m.chunks.iter().map(|c| u64::from(c.len)).sum();
        for rank in 0..tp {
            let idx = m.shard_chunk_indices(rank);
            let touched: u64 = idx
                .iter()
                .map(|&i| u64::from(m.chunks[i as usize].len))
                .sum();
            assert!(touched < all, "rank {rank} must not touch the whole file");
        }
    }
}
