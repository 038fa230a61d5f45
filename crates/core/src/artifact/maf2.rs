//! MAF2: the Medusa Artifact Format v2 — a zero-copy binary container for
//! [`MaterializedState`] bundles.
//!
//! The JSON encoding (kept as a debug import/export, see
//! [`MaterializedState::to_json`]) must be parsed in full before a single
//! field can be read, so open + validate is O(file). ServerlessLLM showed
//! that a loading-optimized checkpoint layout is itself a first-order
//! cold-start lever; MAF2 applies the same idea to the materialization
//! artifact:
//!
//! * a fixed-width 64-byte **header** (magic, format version, target key
//!   lengths, file length, section-index offset, a checksum over the
//!   section digests, and an index digest sealing the header + target
//!   key + section index), every digest one word-wide XXH64 ([`digest`]);
//! * a fixed-width **section index** — 32-byte entries `(kind, shard,
//!   offset, length, digest)` — that addresses every per-shard section
//!   without touching payload bytes;
//! * fixed-width **tables** for the allocation/replay sequence, labels,
//!   permanent contents, pointer tables, and graph nodes/params/edges;
//! * each graph **skeleton** (nodes, parameter kinds and widths, edges)
//!   stored once, and each graph as its skeleton id, per-node work and
//!   the parameter values in which it differs from the first graph of
//!   its skeleton, so a restore patches that graph instead of rebuilding;
//! * an **address-free graph body**: a pointer record holds its allocation
//!   index and offset only, and one small per-shard base table holds each
//!   referenced allocation's offline address, so two captures of the same
//!   `<GPU, model>` differ in that table and not in the graphs;
//! * an offset-indexed, deduplicated **string table** per shard for kernel,
//!   library, and label names;
//! * one group of sections per `(rank, tp)` shard, **read lazily** on first
//!   touch, so a rank restores by reading only its own sections, and
//!   **sealed** by its ShardMeta: a digest of the shard's scalars and of
//!   its other sections' digests.
//!
//! Opening a MAF2 file therefore costs O(header + index): length, magic,
//! bounds, and index-digest checks — never a payload scan. A shard's
//! sections are read in one pass into a borrowed [`ShardView`], which checks
//! each section against the digest sealed in the index, bounds every
//! record count by the bytes that remain and checks the shard seal; each
//! byte is hashed once. The logical content checksum is checked against
//! the content where the file is written ([`encode_bundle`]), not folded
//! again on read. The restore reads the view's records in place, and the
//! owned [`MaterializedState`] is built from the view. See DESIGN.md §13
//! for the byte-level layout.
//!
//! All integers are little-endian. The format is deliberately *not*
//! self-describing: the layout is pinned by `format_version` and the
//! decoder rejects anything it does not understand with a typed error.

use super::{
    spec_of, AnalysisStats, GraphRead, GraphSpec, KernelName, MaterializedState, Names, NodeRef,
    ParamPatch, ParamRef, ParamSpec, PtrTableEntry, ReplayOp, ShardRead, ARTIFACT_VERSION,
};
use crate::engine::par_map;
use crate::error::{MedusaError, MedusaResult};
use medusa_gpu::{Digest, Work};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// MAF2 magic: `MAF2` followed by the PNG-style `\r\n\x1a\n` transfer-
/// corruption canary (detects CRLF translation and EOF truncation).
pub const MAF2_MAGIC: [u8; 8] = *b"MAF2\x0d\x0a\x1a\x0a";

/// Fixed header length in bytes.
pub const MAF2_HEADER_LEN: usize = 64;

/// Length of one section-index entry in bytes.
pub const MAF2_INDEX_ENTRY_LEN: usize = 32;

/// Fixed byte length of a ShardMeta section payload.
const SHARD_META_LEN: usize = 112;

/// Bytes of a ShardMeta payload before its seal, all covered by it.
const SEALED_META_LEN: usize = SHARD_META_LEN - 8;

/// Section kinds, one group per shard. The `kind` discriminant is part of
/// the on-disk format and must never be renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SectionKind {
    /// Shard scalars: rank, tp, kv bytes, replay prefix, content checksum,
    /// analysis stats, and the shard seal over them and the digests of the
    /// shard's other sections. Fixed 112 bytes.
    ShardMeta,
    /// The (de)allocation replay sequence, 16 bytes per op.
    Replay,
    /// Deduplicated string table (kernel/library/label names).
    Strings,
    /// Semantic labels, 16 bytes per entry, sorted by name.
    Labels,
    /// Permanent buffer contents, 24 bytes per entry.
    PermContents,
    /// Permanent pointer tables (variable-width, sequentially decoded).
    PtrTables,
    /// Materialized graphs: each skeleton's fixed node/param/edge records
    /// once, then per graph its work and parameter patches, plus a spill
    /// blob for oversized constants. Address-free: pointer records carry
    /// no offline address.
    Graphs,
    /// Offline base address of every allocation a graph pointer refers
    /// to, 16 bytes per entry after a count, ascending `alloc_seq`. The
    /// only per-capture addresses in a shard; a pointer's offline value is
    /// its allocation's base plus its offset.
    PtrBases,
}

impl SectionKind {
    /// All kinds in per-shard encode order.
    pub const ALL: [SectionKind; 8] = [
        SectionKind::ShardMeta,
        SectionKind::Replay,
        SectionKind::Strings,
        SectionKind::Labels,
        SectionKind::PermContents,
        SectionKind::PtrTables,
        SectionKind::Graphs,
        SectionKind::PtrBases,
    ];

    pub(crate) fn code(self) -> u32 {
        match self {
            SectionKind::ShardMeta => 0,
            SectionKind::Replay => 1,
            SectionKind::Strings => 2,
            SectionKind::Labels => 3,
            SectionKind::PermContents => 4,
            SectionKind::PtrTables => 5,
            SectionKind::Graphs => 6,
            SectionKind::PtrBases => 7,
        }
    }

    pub(crate) fn from_code(c: u32) -> Option<SectionKind> {
        SectionKind::ALL.into_iter().find(|k| k.code() == c)
    }
}

/// XXH64 (seed 0), the one byte-level digest of the artifact formats. It
/// seals MAF2 sections, the section index, the header's
/// checksum-of-digests and each shard, and the registry's chunks,
/// manifests, stores and templates. The shard's logical
/// [`content_checksum`](MaterializedState::content_checksum) is a separate
/// fold over fields, not over these bytes.
pub use medusa_gpu::xxh64 as digest;

/// The digest of the concatenation of `parts`.
fn digest_of(parts: &[&[u8]]) -> u64 {
    digest(&parts.concat())
}

/// The header's checksum-of-digests: the digest of every section digest,
/// little-endian, in index order.
fn digest_fold(digests: impl Iterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = digests.flat_map(u64::to_le_bytes).collect();
    digest(&bytes)
}

/// A shard's seal: the digest of its ShardMeta fields before the seal and
/// of the sealed digests of its other seven sections, in kind order.
fn shard_seal(meta_fields: &[u8], digests: &[u64; 7]) -> u64 {
    let mut bytes = Vec::with_capacity(SEALED_META_LEN + 7 * 8);
    bytes.extend_from_slice(meta_fields);
    for d in digests {
        bytes.extend_from_slice(&d.to_le_bytes());
    }
    digest(&bytes)
}

fn corrupt(detail: impl Into<String>) -> MedusaError {
    MedusaError::ArtifactCorrupt {
        detail: detail.into(),
    }
}

/// The error for nonzero bytes where the encoder writes zeros.
fn padding(what: &str) -> MedusaError {
    corrupt(format!("{what} has nonzero reserved bytes"))
}

/// Returns `true` when `bytes` begin with the MAF2 magic — the format
/// auto-detection used by `medusa-cli` and the validator.
pub fn is_maf2(bytes: &[u8]) -> bool {
    bytes.len() >= MAF2_MAGIC.len() && bytes[..MAF2_MAGIC.len()] == MAF2_MAGIC
}

/// Coarse region map parsed from a header, used by fault injection to aim
/// tampering at a specific region without a full open.
pub(crate) struct HeaderLayout {
    /// First byte past the target-key strings (= first payload byte).
    pub payload_off: usize,
    /// Bytes between the target key and the section index.
    pub payload_len: usize,
    /// Section-index offset.
    pub index_off: usize,
    /// Number of index entries.
    pub section_count: usize,
}

/// Parses the region map from a (possibly tampered) header; `None` when the
/// header is too short or internally inconsistent to locate the regions.
pub(crate) fn header_layout(bytes: &[u8]) -> Option<HeaderLayout> {
    if bytes.len() < MAF2_HEADER_LEN || !is_maf2(bytes) {
        return None;
    }
    let le32 = |o: usize| u32::from_le_bytes([bytes[o], bytes[o + 1], bytes[o + 2], bytes[o + 3]]);
    let model_len = le32(24) as usize;
    let gpu_len = le32(28) as usize;
    let section_count = le32(20) as usize;
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[40..48]);
    let index_off = u64::from_le_bytes(b) as usize;
    let payload_off = MAF2_HEADER_LEN
        .checked_add(model_len)?
        .checked_add(gpu_len)?;
    let index_end = index_off.checked_add(section_count.checked_mul(MAF2_INDEX_ENTRY_LEN)?)?;
    if payload_off > index_off || index_end > bytes.len() {
        return None;
    }
    Some(HeaderLayout {
        payload_off,
        payload_len: index_off - payload_off,
        index_off,
        section_count,
    })
}

/// Recomputes and re-stamps the sealed index digest from the current header
/// fields. Fault injection uses this to craft files that are self-consistent
/// *except* for one targeted inconsistency (e.g. a version skew or an
/// out-of-bounds index offset), so the tampering is caught by the check
/// under test rather than masked by the digest seal. No-op when the header
/// is too mangled to locate the regions.
pub(crate) fn reseal_index_digest(bytes: &mut [u8]) {
    let Some(layout) = header_layout(bytes) else {
        return;
    };
    let index_end = layout.index_off + layout.section_count * MAF2_INDEX_ENTRY_LEN;
    let digest = digest_of(&[
        &bytes[..56],
        &bytes[MAF2_HEADER_LEN..layout.payload_off],
        &bytes[layout.index_off..index_end],
    ]);
    bytes[56..64].copy_from_slice(&digest.to_le_bytes());
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Little-endian append helpers over a `Vec<u8>` payload buffer.
trait PutLe {
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
}

impl PutLe for Vec<u8> {
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
}

/// Per-shard deduplicated string table: indices are assigned in sorted
/// order so encoding is deterministic for a given content.
struct StringTable {
    index: BTreeMap<String, u32>,
}

impl StringTable {
    fn build(shard: &MaterializedState) -> Self {
        let mut names: BTreeSet<&str> = BTreeSet::new();
        for label in shard.labels.keys() {
            names.insert(label);
        }
        for g in &shard.graphs {
            for n in &g.nodes {
                names.insert(&n.kernel);
                names.insert(&n.library);
            }
        }
        let index = names
            .into_iter()
            .enumerate()
            .map(|(i, s)| (s.to_string(), i as u32))
            .collect();
        StringTable { index }
    }

    fn id(&self, s: &str) -> u32 {
        // Every string was inserted by `build`; absence is an encoder bug.
        self.index[s]
    }

    fn encode(&self) -> Vec<u8> {
        let mut blob = Vec::new();
        let mut entries = Vec::with_capacity(self.index.len() * 8);
        for s in self.index.keys() {
            entries.put_u32(blob.len() as u32);
            entries.put_u32(s.len() as u32);
            blob.extend_from_slice(s.as_bytes());
        }
        let mut out = Vec::with_capacity(8 + entries.len() + blob.len());
        out.put_u32(self.index.len() as u32);
        out.put_u32(0); // pad to 8-byte entry alignment
        out.extend_from_slice(&entries);
        out.extend_from_slice(&blob);
        out
    }
}

/// The ShardMeta payload of `s`, sealed over `digests`, those of the
/// shard's other sections in kind order.
fn encode_shard_meta(s: &MaterializedState, digests: &[u64; 7]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SHARD_META_LEN);
    out.put_u32(s.rank);
    out.put_u32(s.tp);
    out.put_u64(s.kv_free_bytes);
    out.put_u64(s.replay_prefix_allocs);
    out.put_u64(s.checksum);
    for v in [
        s.stats.nodes,
        s.stats.pointer_params,
        s.stats.const_params,
        s.stats.multi_match_pointers,
        s.stats.dlsym_restorable_nodes,
        s.stats.hidden_kernel_nodes,
        s.stats.param_buffers,
        s.stats.temp_buffers,
        s.stats.permanent_buffers,
    ] {
        out.put_u64(v);
    }
    out.put_u64(shard_seal(&out, digests));
    debug_assert_eq!(out.len(), SHARD_META_LEN);
    out
}

fn encode_replay(s: &MaterializedState) -> Vec<u8> {
    let mut out = Vec::with_capacity(s.replay_ops.len() * 16);
    for op in &s.replay_ops {
        match op {
            ReplayOp::Malloc { size } => {
                out.put_u64(0);
                out.put_u64(*size);
            }
            ReplayOp::Free { alloc_seq } => {
                out.put_u64(1);
                out.put_u64(*alloc_seq);
            }
        }
    }
    out
}

fn encode_labels(s: &MaterializedState, strings: &StringTable) -> Vec<u8> {
    let mut labels: Vec<(&String, &u64)> = s.labels.iter().collect();
    labels.sort_by(|a, b| a.0.cmp(b.0));
    let mut out = Vec::with_capacity(labels.len() * 16);
    for (name, seq) in labels {
        out.put_u32(strings.id(name));
        out.put_u32(0);
        out.put_u64(*seq);
    }
    out
}

fn encode_perm_contents(s: &MaterializedState) -> Vec<u8> {
    let mut out = Vec::with_capacity(s.permanent_contents.len() * 24);
    for (seq, digest) in &s.permanent_contents {
        out.put_u64(*seq);
        out.extend_from_slice(digest);
    }
    out
}

fn encode_ptr_tables(s: &MaterializedState) -> Vec<u8> {
    let mut out = Vec::new();
    out.put_u64(s.permanent_ptr_tables.len() as u64);
    for (seq, entries) in &s.permanent_ptr_tables {
        out.put_u64(*seq);
        out.put_u64(entries.len() as u64);
        for e in entries {
            out.put_u64(e.alloc_seq);
            out.put_u64(e.offset);
        }
    }
    out
}

/// Constants longer than the 24-byte inline window of a param record spill
/// into a blob at the end of the Graphs section.
const PARAM_INLINE_LEN: usize = 24;

/// Appends `p`'s 32-byte parameter record, spilling a long constant.
fn put_param(out: &mut Vec<u8>, spill: &mut Vec<u8>, p: &ParamSpec) {
    match p {
        ParamSpec::Const { bytes } => {
            out.put_u32(0);
            out.put_u32(bytes.len() as u32);
            if bytes.len() <= PARAM_INLINE_LEN {
                let mut inline = [0u8; PARAM_INLINE_LEN];
                inline[..bytes.len()].copy_from_slice(bytes);
                out.extend_from_slice(&inline);
            } else {
                out.put_u64(spill.len() as u64);
                out.put_u64(0);
                out.put_u64(0);
                spill.extend_from_slice(bytes);
            }
        }
        ParamSpec::IndirectPtr {
            alloc_seq, offset, ..
        } => {
            out.put_u32(1);
            out.put_u32(0);
            out.put_u64(*alloc_seq);
            out.put_u64(*offset);
            out.put_u64(0); // reserved: the raw value lives in PtrBases
        }
    }
}

/// The kind and width of a parameter: what a skeleton keeps of it.
fn param_shape(p: &ParamSpec) -> (bool, usize) {
    match p {
        ParamSpec::Const { bytes } => (false, bytes.len()),
        ParamSpec::IndirectPtr { .. } => (true, 0),
    }
}

/// Whether `a` and `b` share a skeleton: the same edges and, node by node,
/// the same kernel, library, exported flag, stream and parameter kinds and
/// widths.
fn same_skeleton(a: &GraphSpec, b: &GraphSpec) -> bool {
    a.edges == b.edges
        && a.nodes.len() == b.nodes.len()
        && a.nodes.iter().zip(&b.nodes).all(|(m, n)| {
            (&m.kernel, &m.library, m.exported, m.stream)
                == (&n.kernel, &n.library, n.exported, n.stream)
                && m.params.len() == n.params.len()
                && m.params
                    .iter()
                    .zip(&n.params)
                    .all(|(p, q)| param_shape(p) == param_shape(q))
        })
}

/// The Graphs section: every distinct skeleton once, as the node records
/// (without work), parameter records and edges of the first graph that
/// has it; then per graph its batch, skeleton id, per-node work and the
/// `(node, param, value)` patches in which its parameters differ from
/// that first graph; then the spill blob.
fn encode_graphs(s: &MaterializedState, strings: &StringTable) -> Vec<u8> {
    // Skeleton ids in first-use order, each found by comparing a graph
    // with the first graph of every skeleton seen so far.
    let mut firsts: Vec<&GraphSpec> = Vec::new();
    let mut skeleton_of = Vec::with_capacity(s.graphs.len());
    for g in &s.graphs {
        let id = match firsts.iter().position(|f| same_skeleton(f, g)) {
            Some(id) => id,
            None => {
                firsts.push(g);
                firsts.len() - 1
            }
        };
        skeleton_of.push(id);
    }
    let mut out = Vec::new();
    let mut spill: Vec<u8> = Vec::new();
    out.put_u64(firsts.len() as u64);
    out.put_u64(s.graphs.len() as u64);
    for g in &firsts {
        let total_params: usize = g.nodes.iter().map(|n| n.params.len()).sum();
        out.put_u32(g.nodes.len() as u32);
        out.put_u32(g.edges.len() as u32);
        out.put_u32(total_params as u32);
        out.put_u32(0);
        for n in &g.nodes {
            out.put_u32(strings.id(&n.kernel));
            out.put_u32(strings.id(&n.library));
            out.put_u32(u32::from(n.exported));
            out.put_u32(n.stream);
            out.put_u32(n.params.len() as u32);
            out.put_u32(0);
        }
        for p in g.nodes.iter().flat_map(|n| &n.params) {
            put_param(&mut out, &mut spill, p);
        }
        for (a, b) in &g.edges {
            out.put_u32(*a);
            out.put_u32(*b);
        }
    }
    for (g, &id) in s.graphs.iter().zip(&skeleton_of) {
        let patches: Vec<(usize, usize, &ParamSpec)> = g
            .nodes
            .iter()
            .zip(&firsts[id].nodes)
            .enumerate()
            .flat_map(|(ni, (n, f))| {
                n.params
                    .iter()
                    .zip(&f.params)
                    .enumerate()
                    .filter(|(_, (p, q))| ParamRef::from(*p) != ParamRef::from(*q))
                    .map(move |(pi, (p, _))| (ni, pi, p))
            })
            .collect();
        out.put_u32(g.batch);
        out.put_u32(id as u32);
        out.put_u32(patches.len() as u32);
        out.put_u32(0);
        for n in &g.nodes {
            out.put_u64(n.work.flops.to_bits());
            out.put_u64(n.work.bytes.to_bits());
        }
        for (ni, pi, p) in patches {
            out.put_u32(ni as u32);
            out.put_u32(pi as u32);
            put_param(&mut out, &mut spill, p);
        }
    }
    out.extend_from_slice(&spill);
    out
}

/// The PtrBases section: one `(alloc_seq, base)` per allocation the graphs
/// point into, where `base = raw - offset` of every pointer to it.
///
/// # Errors
///
/// Returns [`MedusaError::ArtifactCorrupt`] when two pointers to one
/// allocation imply different bases, which no capture produces.
fn encode_ptr_bases(s: &MaterializedState) -> MedusaResult<Vec<u8>> {
    let mut bases: BTreeMap<u64, u64> = BTreeMap::new();
    for g in &s.graphs {
        for p in g.nodes.iter().flat_map(|n| &n.params) {
            let ParamSpec::IndirectPtr {
                alloc_seq,
                offset,
                raw,
            } = *p
            else {
                continue;
            };
            let base = raw.wrapping_sub(offset);
            match bases.insert(alloc_seq, base) {
                Some(prev) if prev != base => {
                    return Err(corrupt(format!(
                        "pointers to allocation #{alloc_seq} imply two offline bases \
                         {prev:#x} and {base:#x}"
                    )));
                }
                _ => {}
            }
        }
    }
    let mut out = Vec::with_capacity(8 + bases.len() * 16);
    out.put_u64(bases.len() as u64);
    for (seq, base) in bases {
        out.put_u64(seq);
        out.put_u64(base);
    }
    Ok(out)
}

/// One encoded section: its kind, shard, payload and digest.
type Section = (SectionKind, u32, Vec<u8>, u64);

/// One shard's sections with their digests, in kind order, after checking
/// its content checksum against its content when `check` is set.
fn encode_shard(s: &MaterializedState, check: bool) -> MedusaResult<Vec<Section>> {
    if check {
        s.verify_checksum()?;
    }
    let strings = StringTable::build(s);
    let rest = [
        encode_replay(s),
        strings.encode(),
        encode_labels(s, &strings),
        encode_perm_contents(s),
        encode_ptr_tables(s),
        encode_graphs(s, &strings),
        encode_ptr_bases(s)?,
    ];
    let digests = rest.each_ref().map(|p| digest(p));
    let meta = encode_shard_meta(s, &digests);
    let meta_digest = digest(&meta);
    let mut sections = vec![(SectionKind::ShardMeta, s.rank, meta, meta_digest)];
    for ((payload, d), kind) in rest.into_iter().zip(digests).zip(&SectionKind::ALL[1..]) {
        sections.push((*kind, s.rank, payload, d));
    }
    Ok(sections)
}

/// Encodes a bundle of shards (one [`MaterializedState`] per rank) into a
/// single MAF2 file. Shards must agree on `<model, gpu, tp, version>` and
/// carry distinct ranks; they are written in ascending rank order so
/// encoding is deterministic — re-encoding a decoded bundle reproduces the
/// bytes exactly.
///
/// # Errors
///
/// Returns [`MedusaError::ArtifactCorrupt`] when the bundle is empty, the
/// shards disagree on the target key, or a shard's pointers imply two
/// offline bases for one allocation, and [`MedusaError::ChecksumMismatch`]
/// when a shard's content checksum disagrees with its content: the reader
/// trusts the shard seal, so the checksum is checked where it is written.
pub fn encode_bundle(shards: &[&MaterializedState]) -> MedusaResult<Vec<u8>> {
    encode_bundle_checked(shards, true)
}

/// [`encode_bundle`], checking each shard's content checksum only when
/// `check` is set. Only shards whose checksums their analysis has just
/// stamped, and that nothing could change since, skip the check.
pub(crate) fn encode_bundle_checked(
    shards: &[&MaterializedState],
    check: bool,
) -> MedusaResult<Vec<u8>> {
    let first = shards
        .first()
        .ok_or_else(|| corrupt("cannot encode an empty artifact bundle"))?;
    let mut ordered: Vec<&MaterializedState> = shards.to_vec();
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
                s.model, s.gpu, s.tp, s.version, first.model, first.gpu, first.tp, first.version
            )));
        }
        if !seen.insert(s.rank) {
            return Err(corrupt(format!("duplicate rank {} in bundle", s.rank)));
        }
    }

    // Section payloads with their digests, in rank order then kind order.
    // Each shard is checked and encoded on its own worker; its meta is
    // sealed over its other sections' digests.
    let mut sections: Vec<Section> = Vec::new();
    for shard in par_map(ordered.clone(), |s| encode_shard(s, check)) {
        sections.extend(shard?);
    }

    let model = first.model.as_bytes();
    let gpu = first.gpu.as_bytes();
    let payload_base = MAF2_HEADER_LEN + model.len() + gpu.len();
    let payload_len: usize = sections.iter().map(|(_, _, p, _)| p.len()).sum();
    let index_off = payload_base + payload_len;
    let file_len = index_off + sections.len() * MAF2_INDEX_ENTRY_LEN;

    // Section index: (kind, shard, off, len, digest) per section.
    let mut index = Vec::with_capacity(sections.len() * MAF2_INDEX_ENTRY_LEN);
    let mut off = payload_base as u64;
    for (kind, shard, payload, digest) in &sections {
        index.put_u32(kind.code());
        index.put_u32(*shard);
        index.put_u64(off);
        index.put_u64(payload.len() as u64);
        index.put_u64(*digest);
        off += payload.len() as u64;
    }

    let mut out = Vec::with_capacity(file_len);
    out.extend_from_slice(&MAF2_MAGIC);
    out.put_u32(first.version);
    out.put_u32(first.tp);
    out.put_u32(ordered.len() as u32);
    out.put_u32(sections.len() as u32);
    out.put_u32(model.len() as u32);
    out.put_u32(gpu.len() as u32);
    out.put_u64(file_len as u64);
    out.put_u64(index_off as u64);
    out.put_u64(digest_fold(sections.iter().map(|&(_, _, _, d)| d)));
    out.put_u64(0); // index_digest, patched below
    debug_assert_eq!(out.len(), MAF2_HEADER_LEN);
    out.extend_from_slice(model);
    out.extend_from_slice(gpu);
    for (_, _, payload, _) in &sections {
        out.extend_from_slice(payload);
    }
    out.extend_from_slice(&index);
    debug_assert_eq!(out.len(), file_len);

    // index_digest seals header scalars, target key, and the whole index.
    let index_digest = digest_of(&[&out[..56], model, gpu, &index]);
    out[56..64].copy_from_slice(&index_digest.to_le_bytes());
    Ok(out)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian cursor over a section payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8], what: &'static str) -> Self {
        Cursor {
            bytes,
            pos: 0,
            what,
        }
    }

    fn take(&mut self, n: usize) -> MedusaResult<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(corrupt(format!(
                "{} section truncated: need {} bytes at offset {} of {}",
                self.what,
                n,
                self.pos,
                self.bytes.len()
            ))),
        }
    }

    fn u32(&mut self) -> MedusaResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> MedusaResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes `count` records of `width` bytes, each made of 8-byte fields,
    /// failing where a field-by-field read would first run out of bytes.
    fn u64_records(&mut self, count: u64, width: usize) -> MedusaResult<&'a [u8]> {
        let rem = self.remaining();
        match count.checked_mul(width as u64).filter(|&n| n <= rem as u64) {
            Some(n) => self.take(n as usize),
            None => {
                self.pos += rem / 8 * 8;
                self.take(8)
            }
        }
    }

    fn done(&self) -> MedusaResult<()> {
        if self.pos != self.bytes.len() {
            return Err(corrupt(format!(
                "{} section has {} trailing bytes",
                self.what,
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// One parsed section-index entry.
#[derive(Debug, Clone, Copy)]
struct SectionEntry {
    kind: SectionKind,
    shard: u32,
    off: u64,
    len: u64,
    digest: u64,
}

/// Public view of one section-index entry: where a section's payload lives
/// in the file and the digest it is sealed under. The content-addressed
/// registry forces chunk boundaries at these seams so family-shared sections
/// deduplicate chunk-for-chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionExtent {
    /// Section kind.
    pub kind: SectionKind,
    /// Owning shard rank.
    pub shard: u32,
    /// Byte offset of the payload within the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// Sealed [`digest`] of the payload.
    pub digest: u64,
}

/// Parsed ShardMeta section: the per-shard scalars readable in O(1) without
/// materializing the shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMeta {
    /// Tensor-parallel rank.
    pub rank: u32,
    /// Tensor-parallel degree.
    pub tp: u32,
    /// Materialized KV cache initialization bytes.
    pub kv_free_bytes: u64,
    /// Natural allocation prefix length.
    pub replay_prefix_allocs: u64,
    /// The shard's content checksum, checked against its content when the
    /// file was written.
    pub checksum: u64,
    /// Analysis statistics.
    pub stats: AnalysisStats,
    /// The shard seal: the [`digest`] of the fields above and of the
    /// sealed digests of the shard's other seven sections.
    pub seal: u64,
}

/// Little-endian `u32` at `at` of a bounds-checked record.
fn le32(b: &[u8], at: usize) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[at..at + 4]);
    u32::from_le_bytes(a)
}

/// Little-endian `u64` at `at` of a bounds-checked record.
fn le64(b: &[u8], at: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(a)
}

/// Record widths of the fixed-width sections, in bytes.
const REPLAY_REC: usize = 16;
const LABEL_REC: usize = 16;
const PERM_REC: usize = 24;
const PTR_REC: usize = 16;
const NODE_REC: usize = 24;
const PARAM_REC: usize = 32;
const EDGE_REC: usize = 8;
const WORK_REC: usize = 16;
const PATCH_REC: usize = 8 + PARAM_REC;

/// One reader slot per ShardMeta entry: the shard's view, read on first
/// touch, and its owned form once asked for.
struct ShardSlot<'a> {
    rank: u32,
    view: OnceLock<ShardView<'a>>,
    state: OnceLock<MaterializedState>,
}

/// A zero-copy reader over an in-memory MAF2 file.
///
/// [`Maf2Reader::open`] performs only O(header + index) work: length, magic,
/// bounds, and index-digest verification. Shard payloads stay untouched
/// until [`Maf2Reader::view`] reads them on first use, verifying each
/// section's digest as it is read. [`Maf2Reader::bytes_read`] counts every
/// payload byte the reader has actually consumed, which tests and the
/// size-sweep benchmark use to prove the lazy-restore bound (a single shard
/// reads < 1/tp of the file). A reader is `Sync`: the ranks of one restore
/// read their shards through one reader, each on its own worker.
pub struct Maf2Reader<'a> {
    bytes: &'a [u8],
    version: u32,
    tp: u32,
    model: &'a str,
    gpu: &'a str,
    content_checksum: u64,
    index: Vec<SectionEntry>,
    /// One slot per ShardMeta entry, in index order.
    shards: Vec<ShardSlot<'a>>,
    bytes_read: AtomicU64,
}

impl<'a> Maf2Reader<'a> {
    /// Opens a MAF2 file, validating the fixed header, the target-key
    /// strings, and the section index (bounds + sealed index digest) — an
    /// O(header + index) operation that never reads section payloads.
    ///
    /// A format-version skew is *not* rejected here so the validator can
    /// report it as the `format_version` check; reading a shard rejects it.
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::ArtifactCorrupt`] for truncation, bad magic,
    /// or malformed index entries, and [`MedusaError::ChecksumMismatch`]
    /// when the sealed index digest does not match.
    pub fn open(bytes: &'a [u8]) -> MedusaResult<Maf2Reader<'a>> {
        if bytes.len() < MAF2_HEADER_LEN {
            return Err(corrupt(format!(
                "truncated: {} bytes < {MAF2_HEADER_LEN}-byte header",
                bytes.len()
            )));
        }
        if bytes[..8] != MAF2_MAGIC {
            return Err(corrupt("bad magic: not a MAF2 artifact"));
        }
        let version = le32(bytes, 8);
        let tp = le32(bytes, 12);
        let shard_count = le32(bytes, 16) as usize;
        let section_count = le32(bytes, 20) as usize;
        let model_len = le32(bytes, 24) as usize;
        let gpu_len = le32(bytes, 28) as usize;
        let file_len = le64(bytes, 32);
        let index_off = le64(bytes, 40) as usize;
        let content_checksum = le64(bytes, 48);
        let index_digest = le64(bytes, 56);

        if file_len != bytes.len() as u64 {
            return Err(corrupt(format!(
                "truncated: header declares {file_len} bytes, have {}",
                bytes.len()
            )));
        }
        let key_end = MAF2_HEADER_LEN
            .checked_add(model_len)
            .and_then(|e| e.checked_add(gpu_len))
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| corrupt("target-key strings exceed file bounds"))?;
        let model_bytes = &bytes[MAF2_HEADER_LEN..MAF2_HEADER_LEN + model_len];
        let gpu_bytes = &bytes[MAF2_HEADER_LEN + model_len..key_end];
        let model = std::str::from_utf8(model_bytes)
            .map_err(|_| corrupt("model name is not valid UTF-8"))?;
        let gpu =
            std::str::from_utf8(gpu_bytes).map_err(|_| corrupt("gpu name is not valid UTF-8"))?;

        let index_len = section_count
            .checked_mul(MAF2_INDEX_ENTRY_LEN)
            .ok_or_else(|| corrupt("section count overflows"))?;
        let index_end = index_off
            .checked_add(index_len)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| {
                corrupt(format!(
                    "section index [{index_off}, +{index_len}) exceeds file bounds"
                ))
            })?;
        let index_bytes = &bytes[index_off..index_end];

        let actual = digest_of(&[&bytes[..56], model_bytes, gpu_bytes, index_bytes]);
        if actual != index_digest {
            return Err(MedusaError::ChecksumMismatch {
                expected: index_digest,
                actual,
            });
        }

        let mut index = Vec::with_capacity(section_count);
        let mut shards = Vec::new();
        for (i, entry) in index_bytes.chunks_exact(MAF2_INDEX_ENTRY_LEN).enumerate() {
            let kind_code = le32(entry, 0);
            let kind = SectionKind::from_code(kind_code)
                .ok_or_else(|| corrupt(format!("index entry {i} has unknown kind {kind_code}")))?;
            let shard = le32(entry, 4);
            let off = le64(entry, 8);
            let len = le64(entry, 16);
            let digest = le64(entry, 24);
            let end = off.checked_add(len).filter(|&e| e <= file_len);
            if end.is_none() || off < key_end as u64 {
                return Err(corrupt(format!(
                    "index entry {i} ({kind:?} shard {shard}) [{off}, +{len}) is out of bounds"
                )));
            }
            if kind == SectionKind::ShardMeta {
                shards.push(ShardSlot {
                    rank: shard,
                    view: OnceLock::new(),
                    state: OnceLock::new(),
                });
            }
            index.push(SectionEntry {
                kind,
                shard,
                off,
                len,
                digest,
            });
        }
        if shards.len() != shard_count {
            return Err(corrupt(format!(
                "header declares {shard_count} shards, index has {}",
                shards.len()
            )));
        }

        Ok(Maf2Reader {
            bytes,
            version,
            tp,
            model,
            gpu,
            content_checksum,
            index,
            shards,
            bytes_read: AtomicU64::new((key_end + index_len) as u64),
        })
    }

    /// Declared format version (may differ from [`ARTIFACT_VERSION`]; see
    /// [`Maf2Reader::open`]).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Model name from the header's target key.
    pub fn model(&self) -> &'a str {
        self.model
    }

    /// GPU name from the header's target key.
    pub fn gpu(&self) -> &'a str {
        self.gpu
    }

    /// Tensor-parallel degree of the bundle.
    pub fn tp(&self) -> u32 {
        self.tp
    }

    /// Number of shards stored in this file (a file may carry a subset of
    /// the tp ranks).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Ranks present in the file, in index order.
    pub fn shard_ranks(&self) -> Vec<u32> {
        self.shards.iter().map(|s| s.rank).collect()
    }

    /// Total file length in bytes.
    pub fn file_len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// The section extents in index order — O(index), never touches
    /// payloads. The registry's chunker aligns chunk seams to these.
    pub fn section_extents(&self) -> Vec<SectionExtent> {
        self.index
            .iter()
            .map(|e| SectionExtent {
                kind: e.kind,
                shard: e.shard,
                offset: e.off,
                len: e.len,
                digest: e.digest,
            })
            .collect()
    }

    /// Payload bytes actually consumed so far (header + index + every
    /// section read), the observable cost of lazy restoration.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Verifies the header's checksum-of-digests: the [`digest`] of every
    /// section digest in index order. O(index); never touches payloads.
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::ChecksumMismatch`] on disagreement.
    pub fn verify_content_checksum(&self) -> MedusaResult<()> {
        let h = digest_fold(self.index.iter().map(|e| e.digest));
        if h != self.content_checksum {
            return Err(MedusaError::ChecksumMismatch {
                expected: self.content_checksum,
                actual: h,
            });
        }
        Ok(())
    }

    /// Locates one section's payload and its sealed digest, without
    /// reading the payload.
    fn locate(&self, kind: SectionKind, rank: u32) -> MedusaResult<(&'a [u8], u64)> {
        let entry = self
            .index
            .iter()
            .find(|e| e.kind == kind && e.shard == rank)
            .ok_or_else(|| corrupt(format!("no {kind:?} section for rank {rank}")))?;
        let payload = &self.bytes[entry.off as usize..(entry.off + entry.len) as usize];
        Ok((payload, entry.digest))
    }

    /// Fetches one section's payload, verifying its sealed digest and
    /// counting it against [`Maf2Reader::bytes_read`].
    fn section(&self, kind: SectionKind, rank: u32) -> MedusaResult<&'a [u8]> {
        let (payload, sealed) = self.locate(kind, rank)?;
        let actual = digest(payload);
        if actual != sealed {
            return Err(MedusaError::ChecksumMismatch {
                expected: sealed,
                actual,
            });
        }
        self.bytes_read
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        Ok(payload)
    }

    /// Reads and verifies one shard's ShardMeta section — O(1) in file
    /// size, used by the header-first validator for per-shard target and
    /// checksum checks without reading the rest of the shard.
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::ArtifactCorrupt`] when absent or malformed,
    /// [`MedusaError::ChecksumMismatch`] when the section digest disagrees.
    pub fn shard_meta(&self, rank: u32) -> MedusaResult<ShardMeta> {
        let payload = self.section(SectionKind::ShardMeta, rank)?;
        if payload.len() != SHARD_META_LEN {
            return Err(corrupt(format!(
                "ShardMeta section is {} bytes, expected {SHARD_META_LEN}",
                payload.len()
            )));
        }
        let mut c = Cursor::new(payload, "ShardMeta");
        let meta = ShardMeta {
            rank: c.u32()?,
            tp: c.u32()?,
            kv_free_bytes: c.u64()?,
            replay_prefix_allocs: c.u64()?,
            checksum: c.u64()?,
            stats: AnalysisStats {
                nodes: c.u64()?,
                pointer_params: c.u64()?,
                const_params: c.u64()?,
                multi_match_pointers: c.u64()?,
                dlsym_restorable_nodes: c.u64()?,
                hidden_kernel_nodes: c.u64()?,
                param_buffers: c.u64()?,
                temp_buffers: c.u64()?,
                permanent_buffers: c.u64()?,
            },
            seal: c.u64()?,
        };
        c.done()?;
        Ok(meta)
    }

    /// Checks `rank`'s shard seal against its ShardMeta fields and the
    /// sealed digests of its other sections, all of which the caller has
    /// accepted.
    fn check_seal(&self, rank: u32, meta: &ShardMeta) -> MedusaResult<()> {
        let (fields, _) = self.locate(SectionKind::ShardMeta, rank)?;
        let mut digests = [0u64; 7];
        for (d, &kind) in digests.iter_mut().zip(&SectionKind::ALL[1..]) {
            *d = self.locate(kind, rank)?.1;
        }
        let actual = shard_seal(&fields[..SEALED_META_LEN], &digests);
        if actual != meta.seal {
            return Err(MedusaError::ChecksumMismatch {
                expected: meta.seal,
                actual,
            });
        }
        Ok(())
    }

    fn slot(&self, rank: u32) -> MedusaResult<&ShardSlot<'a>> {
        self.shards
            .iter()
            .find(|s| s.rank == rank)
            .ok_or_else(|| corrupt(format!("no shard for rank {rank} in artifact")))
    }

    /// Reads one shard's sections into a borrowed [`ShardView`], reading
    /// only that shard's sections: each is verified against its sealed
    /// digest, every record is checked for structure, and the shard seal
    /// is checked last, in one pass. Subsequent calls return the same view
    /// without re-reading. The deep checks are the validator's
    /// ([`crate::ArtifactValidator::validate_maf2`]).
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::ArtifactCorrupt`] on format-version skew or
    /// malformed sections, [`MedusaError::ChecksumMismatch`] on a section
    /// digest or shard seal mismatch.
    pub fn view(&self, rank: u32) -> MedusaResult<&ShardView<'a>> {
        let slot = self.slot(rank)?;
        if let Some(view) = slot.view.get() {
            return Ok(view);
        }
        if self.version != ARTIFACT_VERSION {
            return Err(corrupt(format!(
                "format version {} != supported {ARTIFACT_VERSION}",
                self.version
            )));
        }
        let view = self.read_view(rank)?;
        Ok(slot.view.get_or_init(|| view))
    }

    /// The owned form of one shard, built from its [`Maf2Reader::view`] on
    /// first use and kept; subsequent calls return the kept state.
    ///
    /// # Errors
    ///
    /// As [`Maf2Reader::view`].
    pub fn shard(&self, rank: u32) -> MedusaResult<&MaterializedState> {
        let slot = self.slot(rank)?;
        if let Some(state) = slot.state.get() {
            return Ok(state);
        }
        let state = self.view(rank)?.to_state();
        Ok(slot.state.get_or_init(|| state))
    }

    /// Like [`Maf2Reader::shard`], but moves the owned shard out of the
    /// reader instead of lending it. A later access builds it again.
    ///
    /// # Errors
    ///
    /// As [`Maf2Reader::view`].
    pub fn take_shard(&mut self, rank: u32) -> MedusaResult<MaterializedState> {
        let kept = self
            .shards
            .iter_mut()
            .find(|s| s.rank == rank)
            .and_then(|s| s.state.take());
        match kept {
            Some(state) => Ok(state),
            None => Ok(self.view(rank)?.to_state()),
        }
    }

    /// Builds the owned form of every shard in the file, in index order.
    ///
    /// # Errors
    ///
    /// Propagates the first shard failure (see [`Maf2Reader::view`]).
    pub fn materialize_all(&self) -> MedusaResult<Vec<MaterializedState>> {
        self.shards
            .iter()
            .map(|slot| match slot.state.get() {
                Some(state) => Ok(state.clone()),
                None => Ok(self.view(slot.rank)?.to_state()),
            })
            .collect()
    }

    /// The one pass behind [`Maf2Reader::view`]: sections in a fixed order
    /// (meta, strings, replay, labels, permanent contents, pointer tables,
    /// pointer bases, graphs), each digest-checked and structure-checked
    /// before the next is judged, then the shard seal. Every count is
    /// bounded by the bytes that remain before anything is sized from it.
    fn read_view(&self, rank: u32) -> MedusaResult<ShardView<'a>> {
        let meta = self.shard_meta(rank)?;
        let strings = self.read_strings(rank)?;

        let replay = self.section(SectionKind::Replay, rank)?;
        if replay.len() % REPLAY_REC != 0 {
            return Err(corrupt(format!(
                "Replay section length {} is not a multiple of 16",
                replay.len()
            )));
        }
        if let Some(t) = replay
            .chunks_exact(REPLAY_REC)
            .map(|op| le64(op, 0))
            .find(|&t| t > 1)
        {
            return Err(corrupt(format!("replay op has unknown tag {t}")));
        }

        let labels_payload = self.section(SectionKind::Labels, rank)?;
        if labels_payload.len() % LABEL_REC != 0 {
            return Err(corrupt(format!(
                "Labels section length {} is not a multiple of 16",
                labels_payload.len()
            )));
        }
        let mut labels = labels_payload
            .chunks_exact(LABEL_REC)
            .map(|l| Ok((string(&strings, le32(l, 0), "label")?, le64(l, 8))))
            .collect::<MedusaResult<Vec<(&str, u64)>>>()?;
        // One entry per name, the last one read winning (as a map insert
        // would), in name order.
        labels.reverse();
        labels.sort_by_key(|&(name, _)| name);
        labels.dedup_by_key(|&mut (name, _)| name);

        let perm = self.section(SectionKind::PermContents, rank)?;
        if perm.len() % PERM_REC != 0 {
            return Err(corrupt(format!(
                "PermContents section length {} is not a multiple of 24",
                perm.len()
            )));
        }

        let tables_payload = self.section(SectionKind::PtrTables, rank)?;
        let mut c = Cursor::new(tables_payload, "PtrTables");
        let table_count = c.u64()?;
        let mut ptr_tables = Vec::with_capacity(bounded(table_count, c.remaining(), 16));
        for _ in 0..table_count {
            let seq = c.u64()?;
            let entry_count = c.u64()?;
            ptr_tables.push((seq, c.u64_records(entry_count, PTR_REC)?));
        }
        c.done()?;

        let bases = self.read_ptr_bases(rank)?;
        let view = ShardView {
            model: self.model,
            gpu: self.gpu,
            meta,
            strings,
            replay,
            labels,
            perm,
            ptr_tables,
            bases,
            skeletons: Vec::new(),
            graphs: Vec::new(),
            spill: &[],
            kernels: Vec::new(),
        }
        .with_graphs(self.section(SectionKind::Graphs, rank)?)?;
        self.check_seal(rank, &view.meta)?;
        Ok(view)
    }

    /// Reads the Strings section: a count, `(offset, len)` entries, and the
    /// blob they point into.
    fn read_strings(&self, rank: u32) -> MedusaResult<Vec<&'a str>> {
        let payload = self.section(SectionKind::Strings, rank)?;
        let mut c = Cursor::new(payload, "Strings");
        let count = c.u32()?;
        let _pad = c.u32()?;
        let mut entries = Vec::with_capacity(bounded(u64::from(count), c.remaining(), 8));
        for _ in 0..count {
            let off = c.u32()? as usize;
            let len = c.u32()? as usize;
            entries.push((off, len));
        }
        let blob = &payload[c.pos..];
        entries
            .into_iter()
            .enumerate()
            .map(|(i, (off, len))| {
                let end = off.checked_add(len).filter(|&e| e <= blob.len());
                let end = end.ok_or_else(|| {
                    corrupt(format!(
                        "string #{i} [{off}, +{len}) exceeds blob of {} bytes",
                        blob.len()
                    ))
                })?;
                std::str::from_utf8(&blob[off..end])
                    .map_err(|_| corrupt(format!("string #{i} is not valid UTF-8")))
            })
            .collect()
    }

    /// Reads the PtrBases section: a count, then `(alloc_seq, base)` pairs
    /// strictly ascending in `alloc_seq`. Returns the pairs.
    fn read_ptr_bases(&self, rank: u32) -> MedusaResult<&'a [u8]> {
        let payload = self.section(SectionKind::PtrBases, rank)?;
        let mut c = Cursor::new(payload, "PtrBases");
        let count = c.u64()?;
        if count.checked_mul(16) != Some(payload.len() as u64 - 8) {
            return Err(corrupt(format!(
                "PtrBases declares {count} entries in a {}-byte section",
                payload.len()
            )));
        }
        let entries = c.u64_records(count, 16)?;
        let mut prev = None;
        for e in entries.chunks_exact(16) {
            let seq = le64(e, 0);
            if prev.is_some_and(|p| p >= seq) {
                return Err(corrupt(format!(
                    "PtrBases entry for allocation #{seq} is duplicate or out of order"
                )));
            }
            prev = Some(seq);
        }
        c.done()?;
        Ok(entries)
    }
}

/// A capacity for `count` records read from `remaining` bytes at no fewer
/// than `width` bytes each: never more than the bytes can hold.
fn bounded(count: u64, remaining: usize, width: usize) -> usize {
    count.min((remaining / width) as u64) as usize
}

/// String `id` of a shard's string table.
fn string<'a>(strings: &[&'a str], id: u32, what: &str) -> MedusaResult<&'a str> {
    strings.get(id as usize).copied().ok_or_else(|| {
        corrupt(format!(
            "{what} references string #{id} out of bounds ({} strings)",
            strings.len()
        ))
    })
}

/// One skeleton's records within the Graphs section: the nodes, the
/// parameters of the first graph that has it and the edges.
#[derive(Debug)]
struct SkeletonRecords<'a> {
    /// 24-byte node records, without work.
    nodes: &'a [u8],
    /// The nodes' 32-byte parameter records, in node order.
    params: &'a [u8],
    /// 8-byte edge records.
    edges: &'a [u8],
    /// Index of each node's first parameter record, then the total.
    param_starts: Vec<u32>,
}

/// One graph's records within the Graphs section.
#[derive(Debug)]
struct GraphRecords<'a> {
    batch: u32,
    /// Index of its skeleton.
    skeleton: usize,
    /// Index of the first graph of its skeleton, unless it is that graph.
    base: Option<usize>,
    /// One 16-byte `(flops, bytes)` work record per node.
    work: &'a [u8],
    /// 40-byte `(node, param, parameter record)` patches, ascending.
    patches: &'a [u8],
}

/// One shard of a MAF2 file, read in place: the records of its sections
/// borrowed from the file bytes, with names as `&str` slices of the shard's
/// string table. Built by [`Maf2Reader::view`], which has checked every
/// section digest and every record's structure; the restore reads it
/// through [`ShardRead`], and [`ShardView::to_state`] builds the owned form.
#[derive(Debug)]
pub struct ShardView<'a> {
    model: &'a str,
    gpu: &'a str,
    meta: ShardMeta,
    strings: Vec<&'a str>,
    /// 16-byte `(tag, value)` replay ops.
    replay: &'a [u8],
    /// One `(name, alloc_seq)` per name, in name order.
    labels: Vec<(&'a str, u64)>,
    /// 24-byte `(alloc_seq, digest)` records.
    perm: &'a [u8],
    /// Per table: its allocation and its 16-byte `(alloc_seq, offset)`
    /// entries.
    ptr_tables: Vec<(u64, &'a [u8])>,
    /// 16-byte `(alloc_seq, base)` records, ascending `alloc_seq`.
    bases: &'a [u8],
    skeletons: Vec<SkeletonRecords<'a>>,
    graphs: Vec<GraphRecords<'a>>,
    /// Constants too long for a parameter record's inline window.
    spill: &'a [u8],
    /// The kernel table, listed once when the view was read.
    kernels: Vec<KernelName<'a>>,
}

impl<'a> ShardView<'a> {
    /// Adds the Graphs section's records (`payload`), checks their
    /// structure and lists the kernel table of the completed view.
    fn with_graphs(mut self, payload: &'a [u8]) -> MedusaResult<Self> {
        let mut c = Cursor::new(payload, "Graphs");
        let skeleton_count = c.u64()?;
        let graph_count = c.u64()?;
        let mut skeletons = Vec::with_capacity(bounded(skeleton_count, c.remaining(), 16));
        for i in 0..skeleton_count {
            let node_count = c.u32()? as usize;
            let edge_count = c.u32()? as usize;
            let param_count = c.u32()? as usize;
            if c.u32()? != 0 {
                return Err(padding(&format!("skeleton #{i}")));
            }
            let nodes = node_count * NODE_REC;
            let params = param_count * PARAM_REC;
            let body = c.take(nodes + params + edge_count * EDGE_REC)?;
            skeletons.push(SkeletonRecords {
                nodes: &body[..nodes],
                params: &body[nodes..nodes + params],
                edges: &body[nodes + params..],
                param_starts: Vec::new(),
            });
        }
        let mut graphs = Vec::with_capacity(bounded(graph_count, c.remaining(), 16));
        // The first graph of each skeleton, in skeleton order: a graph
        // names a skeleton seen before or the next one.
        let mut firsts: Vec<usize> = Vec::new();
        for _ in 0..graph_count {
            let batch = c.u32()?;
            let skeleton = c.u32()? as usize;
            let patch_count = c.u32()? as usize;
            if c.u32()? != 0 {
                return Err(padding(&format!("graph batch {batch}")));
            }
            let base = match skeleton.cmp(&firsts.len()) {
                std::cmp::Ordering::Less => Some(firsts[skeleton]),
                std::cmp::Ordering::Equal if skeleton < skeletons.len() => {
                    firsts.push(graphs.len());
                    None
                }
                _ => {
                    return Err(corrupt(format!(
                        "graph batch {batch} names skeleton #{skeleton}, expected one of the \
                         {} seen or the next of {}",
                        firsts.len(),
                        skeletons.len()
                    )))
                }
            };
            let node_count = skeletons[skeleton].nodes.len() / NODE_REC;
            graphs.push(GraphRecords {
                batch,
                skeleton,
                base,
                work: c.take(node_count * WORK_REC)?,
                patches: c.take(patch_count * PATCH_REC)?,
            });
        }
        if firsts.len() != skeletons.len() {
            return Err(corrupt(format!(
                "{} of {} skeletons are used by no graph",
                skeletons.len() - firsts.len(),
                skeletons.len()
            )));
        }
        self.spill = &payload[c.pos..];
        for sk in &mut skeletons {
            sk.param_starts = self.check_skeleton(sk)?;
        }
        self.skeletons = skeletons;
        self.check_graph_records(&graphs)?;
        self.graphs = graphs;
        self.kernels = self.kernel_table();
        Ok(self)
    }

    /// The distinct `(library, kernel)` names of the skeletons, in
    /// first-use order. Nodes are told apart by their string-id pair;
    /// names are compared only for a pair not seen before, so one kernel
    /// under two ids is listed once.
    fn kernel_table(&self) -> Vec<KernelName<'a>> {
        // The id pairs seen so far, ascending.
        let mut seen: Vec<u64> = Vec::new();
        let mut out: Vec<KernelName<'a>> = Vec::new();
        for rec in self
            .skeletons
            .iter()
            .flat_map(|s| s.nodes.chunks_exact(NODE_REC))
        {
            let ids = u64::from(le32(rec, 0)) << 32 | u64::from(le32(rec, 4));
            let Err(at) = seen.binary_search(&ids) else {
                continue;
            };
            seen.insert(at, ids);
            let k = KernelName {
                library: self.str(le32(rec, 4)),
                kernel: self.str(le32(rec, 0)),
                exported: le32(rec, 8) & 1 != 0,
            };
            if !out
                .iter()
                .any(|o| (o.library, o.kernel) == (k.library, k.kernel))
            {
                out.push(k);
            }
        }
        out
    }

    /// The shard's ShardMeta scalars.
    pub fn meta(&self) -> &ShardMeta {
        &self.meta
    }

    /// Every graph as an owned [`GraphSpec`]: a later graph of a skeleton
    /// is its base graph's spec with its own batch, work and patches.
    fn graph_specs(&self) -> Vec<GraphSpec> {
        let mut specs: Vec<GraphSpec> = Vec::with_capacity(self.graphs.len());
        let mut names = Names::default();
        for g in self.graphs() {
            let Some(mut spec) = g.base().and_then(|i| specs.get(i)).cloned() else {
                specs.push(spec_of(&g, &mut names, |alloc_seq, offset| {
                    self.raw(alloc_seq, offset)
                }));
                continue;
            };
            spec.batch = g.batch();
            for (n, work) in spec.nodes.iter_mut().zip(g.works()) {
                n.work = work;
            }
            for p in g.patches() {
                let param = spec
                    .nodes
                    .get_mut(p.node as usize)
                    .and_then(|n| n.params.get_mut(p.param as usize));
                if let Some(param) = param {
                    *param = p.value.to_spec(|seq, offset| self.raw(seq, offset));
                }
            }
            specs.push(spec);
        }
        specs
    }

    /// The owned form of the shard.
    pub fn to_state(&self) -> MaterializedState {
        MaterializedState {
            version: ARTIFACT_VERSION,
            model: self.model.to_string(),
            gpu: self.gpu.to_string(),
            rank: self.meta.rank,
            tp: self.meta.tp,
            kv_free_bytes: self.meta.kv_free_bytes,
            replay_prefix_allocs: self.meta.replay_prefix_allocs,
            replay_ops: self.replay_ops().collect(),
            labels: self
                .labels
                .iter()
                .map(|&(name, seq)| (name.to_string(), seq))
                .collect(),
            permanent_contents: self.permanent_contents().collect(),
            permanent_ptr_tables: self
                .ptr_tables()
                .map(|(seq, entries)| (seq, entries.collect()))
                .collect(),
            graphs: self.graph_specs(),
            stats: self.meta.stats.clone(),
            checksum: self.meta.checksum,
        }
    }

    fn str(&self, id: u32) -> &'a str {
        self.strings.get(id as usize).copied().unwrap_or_default()
    }

    /// The offline base of allocation `alloc_seq`, from the base table.
    fn base(&self, alloc_seq: u64) -> Option<u64> {
        let (mut lo, mut hi) = (0, self.bases.len() / 16);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let seq = le64(self.bases, mid * 16);
            match seq.cmp(&alloc_seq) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(le64(self.bases, mid * 16 + 8)),
            }
        }
        None
    }

    /// A pointer's raw offline value: its allocation's base plus `offset`.
    fn raw(&self, alloc_seq: u64, offset: u64) -> u64 {
        self.base(alloc_seq).unwrap_or(0).wrapping_add(offset)
    }

    /// One parameter record, read in place. Only called on records
    /// [`ShardView::check_param`] accepted.
    fn param(&self, rec: &'a [u8]) -> ParamRef<'a> {
        let aux = le32(rec, 4) as usize;
        if le32(rec, 0) == 1 {
            return ParamRef::Ptr {
                alloc_seq: le64(rec, 8),
                offset: le64(rec, 16),
            };
        }
        if aux <= PARAM_INLINE_LEN {
            return ParamRef::Const(&rec[8..8 + aux]);
        }
        let off = le64(rec, 8) as usize;
        let spilled = off
            .checked_add(aux)
            .and_then(|end| self.spill.get(off..end));
        ParamRef::Const(spilled.unwrap_or_default())
    }

    /// The structure checks of one skeleton's records: every node's
    /// string ids, `exported` flag and reserved word, the declared
    /// parameter total, then every parameter record (see
    /// [`ShardView::check_param`]). Returns the index of each node's first
    /// parameter, then the total.
    fn check_skeleton(&self, sk: &SkeletonRecords<'a>) -> MedusaResult<Vec<u32>> {
        let mut starts = Vec::with_capacity(sk.nodes.len() / NODE_REC + 1);
        let mut declared = 0u64;
        for rec in sk.nodes.chunks_exact(NODE_REC) {
            let kernel = string(&self.strings, le32(rec, 0), "graph node kernel")?;
            string(&self.strings, le32(rec, 4), "graph node library")?;
            if le32(rec, 8) > 1 {
                return Err(corrupt(format!(
                    "graph node `{kernel}` has exported flag {}",
                    le32(rec, 8)
                )));
            }
            if le32(rec, 20) != 0 {
                return Err(padding(&format!("graph node `{kernel}`")));
            }
            starts.push(declared as u32);
            declared += u64::from(le32(rec, 16));
        }
        let param_count = sk.params.len() / PARAM_REC;
        if declared != param_count as u64 {
            return Err(corrupt(format!(
                "skeleton nodes declare {declared} params, header says {param_count}"
            )));
        }
        starts.push(declared as u32);
        for rec in sk.params.chunks_exact(PARAM_REC) {
            self.check_param(rec)?;
        }
        Ok(starts)
    }

    /// The structure checks of one parameter record: its tag, spill
    /// extent, offline base and the bytes its reader ignores. The encoder
    /// writes zeros in every byte no reader looks at, so a nonzero one is
    /// corruption: one state has exactly one encoding.
    fn check_param(&self, rec: &[u8]) -> MedusaResult<()> {
        let aux = le32(rec, 4) as usize;
        match le32(rec, 0) {
            0 if aux <= PARAM_INLINE_LEN => {
                if rec[8 + aux..].iter().any(|&b| b != 0) {
                    return Err(padding(&format!("inline constant of {aux} bytes")));
                }
            }
            0 => {
                let off = le64(rec, 8) as usize;
                if rec[16..] != [0; 16] {
                    return Err(padding(&format!("spilled constant at {off}")));
                }
                if off
                    .checked_add(aux)
                    .filter(|&e| e <= self.spill.len())
                    .is_none()
                {
                    return Err(corrupt(format!(
                        "const spill [{off}, +{aux}) exceeds blob of {} bytes",
                        self.spill.len()
                    )));
                }
            }
            1 => {
                let alloc_seq = le64(rec, 8);
                if aux != 0 || rec[24..32] != [0; 8] {
                    return Err(padding(&format!("pointer to allocation #{alloc_seq}")));
                }
                if self.base(alloc_seq).is_none() {
                    return Err(corrupt(format!(
                        "pointer to allocation #{alloc_seq} has no offline base"
                    )));
                }
            }
            t => return Err(corrupt(format!("param has unknown tag {t}"))),
        }
        Ok(())
    }

    /// The checks of every graph's own records: each work value is finite
    /// and not negative; the first graph of a skeleton has no patches, and
    /// every patch of a later one names a parameter of its skeleton,
    /// strictly after the previous patch, of that parameter's kind and
    /// width, passes [`ShardView::check_param`] and changes its value.
    fn check_graph_records(&self, graphs: &[GraphRecords<'a>]) -> MedusaResult<()> {
        for g in graphs {
            for (i, w) in g.work.chunks_exact(8).enumerate() {
                let v = f64::from_bits(le64(w, 0));
                if !(v.is_finite() && v >= 0.0) {
                    return Err(corrupt(format!(
                        "graph batch {} node {} has work {v}",
                        g.batch,
                        i / 2
                    )));
                }
            }
            if g.base.is_none() && !g.patches.is_empty() {
                return Err(corrupt(format!(
                    "graph batch {} is the first of skeleton #{} but carries {} patches",
                    g.batch,
                    g.skeleton,
                    g.patches.len() / PATCH_REC
                )));
            }
            let sk = &self.skeletons[g.skeleton];
            let mut next = 0usize;
            for p in g.patches.chunks_exact(PATCH_REC) {
                let (node, param) = (le32(p, 0) as usize, le32(p, 4) as usize);
                let at = sk
                    .param_starts
                    .get(node..node + 2)
                    .map(|s| (s[0] as usize + param, s[1] as usize))
                    .filter(|&(at, end)| at < end)
                    .map(|(at, _)| at)
                    .ok_or_else(|| {
                        corrupt(format!(
                            "graph batch {} patches node {node} param {param}, \
                             which its skeleton does not have",
                            g.batch
                        ))
                    })?;
                if at < next {
                    return Err(corrupt(format!(
                        "graph batch {} patches node {node} param {param} out of order or twice",
                        g.batch
                    )));
                }
                next = at + 1;
                let was = &sk.params[at * PARAM_REC..at * PARAM_REC + 8];
                if p[8..16] != *was {
                    return Err(corrupt(format!(
                        "graph batch {} patches node {node} param {param} with another kind \
                         or width",
                        g.batch
                    )));
                }
                self.check_param(&p[8..])?;
                if self.param(&p[8..]) == self.param(&sk.params[at * PARAM_REC..][..PARAM_REC]) {
                    return Err(corrupt(format!(
                        "graph batch {} patches node {node} param {param} with the value it has",
                        g.batch
                    )));
                }
            }
        }
        Ok(())
    }
}

/// One graph of a [`ShardView`], read in place: its skeleton's records
/// with its own work and patches.
#[derive(Debug, Clone, Copy)]
pub struct GraphView<'v, 'a> {
    shard: &'v ShardView<'a>,
    records: &'v GraphRecords<'a>,
}

impl<'v, 'a> GraphView<'v, 'a> {
    fn skeleton(&self) -> &'v SkeletonRecords<'a> {
        &self.shard.skeletons[self.records.skeleton]
    }
}

impl GraphRead for GraphView<'_, '_> {
    fn batch(&self) -> u32 {
        self.records.batch
    }

    fn node_count(&self) -> usize {
        self.skeleton().nodes.len() / NODE_REC
    }

    /// The skeleton's parameters, each patched one replaced.
    fn nodes(
        &self,
    ) -> impl Iterator<
        Item = (
            NodeRef<'_>,
            impl ExactSizeIterator<Item = ParamRef<'_>> + '_,
        ),
    > + '_ {
        let (shard, sk) = (self.shard, self.skeleton());
        let mut patches = self.records.patches;
        sk.nodes
            .chunks_exact(NODE_REC)
            .zip(self.works())
            .zip(sk.param_starts.windows(2))
            .enumerate()
            .map(move |(ni, ((rec, work), span))| {
                let params = sk
                    .params
                    .get(span[0] as usize * PARAM_REC..span[1] as usize * PARAM_REC)
                    .unwrap_or_default();
                // Patches are ascending, so this node's lead the rest.
                let own = patches
                    .chunks_exact(PATCH_REC)
                    .take_while(|p| le32(p, 0) as usize == ni)
                    .count();
                let (mut own, rest) = patches.split_at(own * PATCH_REC);
                patches = rest;
                let node = NodeRef {
                    kernel: shard.str(le32(rec, 0)),
                    library: shard.str(le32(rec, 4)),
                    exported: le32(rec, 8) & 1 != 0,
                    work,
                    stream: le32(rec, 12),
                };
                let params = params
                    .chunks_exact(PARAM_REC)
                    .enumerate()
                    .map(move |(pi, rec)| match own.get(..PATCH_REC) {
                        Some(p) if le32(p, 4) as usize == pi => {
                            own = &own[PATCH_REC..];
                            shard.param(&p[8..])
                        }
                        _ => shard.param(rec),
                    });
                (node, params)
            })
    }

    fn edges(&self) -> impl ExactSizeIterator<Item = (u32, u32)> + '_ {
        self.skeleton()
            .edges
            .chunks_exact(EDGE_REC)
            .map(|e| (le32(e, 0), le32(e, 4)))
    }

    /// Each pointer's offline base from the base table, plus its offset.
    fn ptr_raws(&self) -> impl Iterator<Item = u64> + '_ {
        self.nodes()
            .flat_map(|(_, params)| params)
            .filter_map(|p| match p {
                ParamRef::Ptr { alloc_seq, offset } => Some(self.shard.raw(alloc_seq, offset)),
                ParamRef::Const(_) => None,
            })
    }

    fn base(&self) -> Option<usize> {
        self.records.base
    }

    fn works(&self) -> impl Iterator<Item = Work> + '_ {
        self.records.work.chunks_exact(WORK_REC).map(|w| Work {
            flops: f64::from_bits(le64(w, 0)),
            bytes: f64::from_bits(le64(w, 8)),
        })
    }

    /// One pass, each pointer's raw value from the base table.
    fn to_spec(&self) -> GraphSpec {
        spec_of(self, &mut Names::default(), |alloc_seq, offset| {
            self.shard.raw(alloc_seq, offset)
        })
    }

    fn patches(&self) -> impl Iterator<Item = ParamPatch<'_>> + '_ {
        self.records
            .patches
            .chunks_exact(PATCH_REC)
            .map(|p| ParamPatch {
                node: le32(p, 0),
                param: le32(p, 4),
                value: self.shard.param(&p[8..]),
            })
    }
}

impl<'a> ShardRead for ShardView<'a> {
    type Graph<'g>
        = GraphView<'g, 'a>
    where
        Self: 'g;

    fn model(&self) -> &str {
        self.model
    }

    fn gpu(&self) -> &str {
        self.gpu
    }

    fn rank(&self) -> u32 {
        self.meta.rank
    }

    fn tp(&self) -> u32 {
        self.meta.tp
    }

    fn kv_free_bytes(&self) -> u64 {
        self.meta.kv_free_bytes
    }

    fn replay_prefix_allocs(&self) -> u64 {
        self.meta.replay_prefix_allocs
    }

    fn checksum(&self) -> u64 {
        self.meta.checksum
    }

    fn stats(&self) -> &AnalysisStats {
        &self.meta.stats
    }

    fn replay_ops(&self) -> impl ExactSizeIterator<Item = ReplayOp> + '_ {
        self.replay
            .chunks_exact(REPLAY_REC)
            .map(|op| match le64(op, 0) {
                0 => ReplayOp::Malloc { size: le64(op, 8) },
                _ => ReplayOp::Free {
                    alloc_seq: le64(op, 8),
                },
            })
    }

    fn labels(&self) -> impl ExactSizeIterator<Item = (&str, u64)> + '_ {
        self.labels.iter().copied()
    }

    fn permanent_contents(&self) -> impl ExactSizeIterator<Item = (u64, Digest)> + '_ {
        self.perm.chunks_exact(PERM_REC).map(|r| {
            let mut digest = Digest::default();
            digest.copy_from_slice(&r[8..24]);
            (le64(r, 0), digest)
        })
    }

    fn ptr_tables(
        &self,
    ) -> impl ExactSizeIterator<Item = (u64, impl ExactSizeIterator<Item = PtrTableEntry> + '_)> + '_
    {
        self.ptr_tables.iter().map(|&(seq, entries)| {
            let entries = entries.chunks_exact(PTR_REC).map(|e| PtrTableEntry {
                alloc_seq: le64(e, 0),
                offset: le64(e, 8),
            });
            (seq, entries)
        })
    }

    fn graphs(&self) -> impl ExactSizeIterator<Item = GraphView<'_, 'a>> + '_ {
        self.graphs.iter().map(move |records| GraphView {
            shard: self,
            records,
        })
    }

    /// Listed once, when the view was read.
    fn kernels(&self) -> Vec<KernelName<'_>> {
        self.kernels.clone()
    }
}

impl std::fmt::Debug for Maf2Reader<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Maf2Reader")
            .field("version", &self.version)
            .field("model", &self.model)
            .field("gpu", &self.gpu)
            .field("tp", &self.tp)
            .field("shards", &self.shard_ranks())
            .field("file_len", &self.file_len())
            .field("bytes_read", &self.bytes_read())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::tests_support::tiny_sealed;

    fn tiny() -> MaterializedState {
        tiny_sealed()
    }

    fn shard_for(rank: u32, tp: u32) -> MaterializedState {
        let mut s = tiny();
        s.rank = rank;
        s.tp = tp;
        s.kv_free_bytes ^= u64::from(rank) << 32;
        s.seal();
        s
    }

    #[test]
    fn roundtrip_single_shard() {
        let a = tiny();
        let bytes = encode_bundle(&[&a]).unwrap();
        assert!(is_maf2(&bytes));
        let r = Maf2Reader::open(&bytes).unwrap();
        assert_eq!(r.model(), a.model);
        assert_eq!(r.gpu(), a.gpu);
        assert_eq!(r.tp(), 1);
        assert_eq!(r.shard_count(), 1);
        r.verify_content_checksum().unwrap();
        let b = r.shard(0).unwrap();
        assert_eq!(&a, b);
        assert_eq!(b.content_checksum(), b.checksum);
    }

    #[test]
    fn reencode_is_byte_identical() {
        let a = tiny();
        let bytes = encode_bundle(&[&a]).unwrap();
        let r = Maf2Reader::open(&bytes).unwrap();
        let decoded = r.shard(0).unwrap().clone();
        let again = encode_bundle(&[&decoded]).unwrap();
        assert_eq!(bytes, again);
    }

    #[test]
    fn multi_shard_lazy_reads_fraction() {
        let tp = 4;
        let shards: Vec<MaterializedState> = (0..tp).map(|r| shard_for(r, tp)).collect();
        let refs: Vec<&MaterializedState> = shards.iter().collect();
        let bytes = encode_bundle(&refs).unwrap();
        let r = Maf2Reader::open(&bytes).unwrap();
        assert_eq!(r.shard_ranks(), vec![0, 1, 2, 3]);
        let opened = r.bytes_read();
        let s2 = r.shard(2).unwrap();
        assert_eq!(s2.rank, 2);
        let after = r.bytes_read();
        assert!(
            after - opened < r.file_len() / u64::from(tp) + 1,
            "single-shard restore read {} of {} file bytes",
            after - opened,
            r.file_len()
        );
        // Cached: a second access reads nothing.
        let _ = r.shard(2).unwrap();
        assert_eq!(r.bytes_read(), after);
    }

    #[test]
    fn open_rejects_truncation_and_bad_magic() {
        let bytes = encode_bundle(&[&tiny()]).unwrap();
        for cut in [0, 7, 63, bytes.len() - 1] {
            let err = Maf2Reader::open(&bytes[..cut]).unwrap_err();
            assert_eq!(err.kind(), "artifact_corrupt", "cut at {cut}: {err}");
        }
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(
            Maf2Reader::open(&bad).unwrap_err().kind(),
            "artifact_corrupt"
        );
    }

    #[test]
    fn open_detects_index_tampering() {
        let bytes = encode_bundle(&[&tiny()]).unwrap();
        // Flip a byte inside the index region (covered by index_digest).
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 1] ^= 1;
        assert_eq!(
            Maf2Reader::open(&bad).unwrap_err().kind(),
            "checksum_mismatch"
        );
    }

    #[test]
    fn payload_corruption_is_caught_lazily() {
        let a = tiny();
        let bytes = encode_bundle(&[&a]).unwrap();
        let mut bad = bytes.clone();
        // Corrupt one payload byte just past the target-key strings.
        let off = MAF2_HEADER_LEN + a.model.len() + a.gpu.len() + 3;
        bad[off] ^= 0x40;
        let r = Maf2Reader::open(&bad).unwrap();
        assert_eq!(r.shard(0).unwrap_err().kind(), "checksum_mismatch");
    }

    #[test]
    fn a_graphs_digest_mismatch_outranks_the_records_it_breaks() {
        // The Graphs digest is judged before the graph records: a count
        // the flip breaks reads as the section's checksum mismatch.
        let bytes = encode_bundle(&[&tiny()]).unwrap();
        let e = Maf2Reader::open(&bytes)
            .unwrap()
            .section_extents()
            .into_iter()
            .find(|e| e.kind == SectionKind::Graphs)
            .unwrap();
        let mut bad = bytes.clone();
        bad[e.offset as usize + 7] = 0xff; // graph count past the payload
        let r = Maf2Reader::open(&bad).unwrap();
        assert_eq!(r.view(0).unwrap_err().kind(), "checksum_mismatch");
        // Every other section was read; the rejected one is not counted.
        let good = Maf2Reader::open(&bytes).unwrap();
        good.view(0).unwrap();
        assert_eq!(r.bytes_read() + e.len, good.bytes_read());
    }

    #[test]
    fn version_skew_opens_but_does_not_materialize() {
        let bytes = encode_bundle(&[&tiny()]).unwrap();
        let mut skewed = bytes.clone();
        skewed[8..12].copy_from_slice(&999u32.to_le_bytes());
        // Re-seal the index digest so the skew is the only inconsistency.
        reseal_index_digest(&mut skewed);
        let r = Maf2Reader::open(&skewed).unwrap();
        assert_eq!(r.version(), 999);
        let err = r.shard(0).unwrap_err();
        assert_eq!(err.kind(), "artifact_corrupt");
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn bundle_consistency_is_enforced() {
        assert!(encode_bundle(&[]).is_err());
        let a = tiny();
        let mut b = tiny();
        b.gpu = "H100".into();
        b.seal();
        assert_eq!(
            encode_bundle(&[&a, &b]).unwrap_err().kind(),
            "artifact_corrupt"
        );
        assert_eq!(
            encode_bundle(&[&a, &a]).unwrap_err().kind(),
            "artifact_corrupt"
        );
    }

    /// The tiny artifact with pointers into three allocations, so its base
    /// table has three entries.
    fn three_bases() -> MaterializedState {
        let mut a = tiny();
        for (seq, base) in [(5u64, 0x7000u64), (6, 0x9000)] {
            a.graphs[0].nodes[0].params.push(ParamSpec::IndirectPtr {
                alloc_seq: seq,
                offset: 8,
                raw: base + 8,
            });
        }
        a.seal();
        a
    }

    /// Rewrites rank 0's `kind` payload in place through `edit` (see
    /// [`tamper_rank_section`]).
    fn tamper_section(
        bytes: &[u8],
        kind: SectionKind,
        edit: impl FnOnce(&mut [u8]) -> usize,
    ) -> Vec<u8> {
        tamper_rank_section(bytes, 0, kind, edit)
    }

    /// Rewrites `rank`'s `kind` payload in place through `edit`, which
    /// returns the payload's new (not larger) length, then reseals the
    /// file and the shard through [`reseal`], so the edit is its only
    /// inconsistency.
    fn tamper_rank_section(
        bytes: &[u8],
        rank: u32,
        kind: SectionKind,
        edit: impl FnOnce(&mut [u8]) -> usize,
    ) -> Vec<u8> {
        let mut out = edited(bytes, rank, kind, edit);
        reseal(&mut out, Some(rank));
        out
    }

    /// `bytes` with `rank`'s `kind` payload rewritten through `edit` (see
    /// [`tamper_rank_section`]) and its new length in the index, unsealed.
    fn edited(
        bytes: &[u8],
        rank: u32,
        kind: SectionKind,
        edit: impl FnOnce(&mut [u8]) -> usize,
    ) -> Vec<u8> {
        let e = Maf2Reader::open(bytes)
            .unwrap()
            .section_extents()
            .into_iter()
            .find(|e| e.kind == kind && e.shard == rank)
            .unwrap();
        let mut out = bytes.to_vec();
        let (off, len) = (e.offset as usize, e.len as usize);
        let new_len = edit(&mut out[off..off + len]);
        assert!(new_len <= len);
        let entry = index_entries(&out)
            .find(|&(_, k, shard)| (k, shard) == (kind, rank))
            .unwrap()
            .0;
        out[entry + 16..entry + 24].copy_from_slice(&(new_len as u64).to_le_bytes());
        out
    }

    /// `(offset, kind, shard)` of every section-index entry of `bytes`.
    fn index_entries(bytes: &[u8]) -> impl Iterator<Item = (usize, SectionKind, u32)> + '_ {
        let layout = header_layout(bytes).unwrap();
        (0..layout.section_count).map(move |k| {
            let at = layout.index_off + k * MAF2_INDEX_ENTRY_LEN;
            let kind = SectionKind::from_code(le32(bytes, at)).unwrap();
            (at, kind, le32(bytes, at + 4))
        })
    }

    /// Recomputes every section digest in the index, then, for
    /// `Some(rank)`, that shard's seal and its ShardMeta digest, then the
    /// header's checksum-of-digests and the index digest. Without a rank
    /// the shard seals stay as they were: the resealing an edit in
    /// transit would get.
    fn reseal(out: &mut [u8], rank: Option<u32>) {
        let payload = |out: &[u8], at: usize| {
            let (off, len) = (le64(out, at + 8) as usize, le64(out, at + 16) as usize);
            off..off + len
        };
        let entries: Vec<_> = index_entries(out).collect();
        for &(at, _, _) in &entries {
            let d = digest(&out[payload(out, at)]);
            out[at + 24..at + 32].copy_from_slice(&d.to_le_bytes());
        }
        if let Some(rank) = rank {
            let sealed = |kind| {
                let &(at, _, _) = entries
                    .iter()
                    .find(|&&(_, k, shard)| (k, shard) == (kind, rank))
                    .unwrap();
                at
            };
            let digests = SectionKind::ALL[1..]
                .iter()
                .map(|&k| le64(out, sealed(k) + 24))
                .collect::<Vec<_>>()
                .try_into()
                .unwrap();
            let meta_at = sealed(SectionKind::ShardMeta);
            let meta = payload(out, meta_at);
            if meta.len() == SHARD_META_LEN {
                let seal = shard_seal(&out[meta.start..meta.start + SEALED_META_LEN], &digests);
                out[meta.start + SEALED_META_LEN..meta.end].copy_from_slice(&seal.to_le_bytes());
                let d = digest(&out[meta]);
                out[meta_at + 24..meta_at + 32].copy_from_slice(&d.to_le_bytes());
            }
        }
        let fold = digest_fold(entries.iter().map(|&(at, _, _)| le64(out, at + 24)));
        out[48..56].copy_from_slice(&fold.to_le_bytes());
        reseal_index_digest(out);
    }

    fn le64_at(payload: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(payload[at..at + 8].try_into().unwrap())
    }

    #[test]
    fn graph_records_are_address_free() {
        let a = three_bases();
        let mut b = a.clone();
        for p in b.graphs[0].nodes[0].params.iter_mut() {
            if let ParamSpec::IndirectPtr { raw, .. } = p {
                *raw += 0x10_0000; // the same layout at other addresses
            }
        }
        b.seal();
        let (ea, eb) = (encode_bundle(&[&a]).unwrap(), encode_bundle(&[&b]).unwrap());
        let graphs = |bytes: &[u8]| {
            let r = Maf2Reader::open(bytes).unwrap();
            let e = r
                .section_extents()
                .into_iter()
                .find(|e| e.kind == SectionKind::Graphs)
                .unwrap();
            bytes[e.offset as usize..(e.offset + e.len) as usize].to_vec()
        };
        assert_eq!(graphs(&ea), graphs(&eb), "graph records carry no address");
        assert_ne!(ea, eb, "the base tables differ");
        let r = Maf2Reader::open(&eb).unwrap();
        assert_eq!(r.shard(0).unwrap(), &b, "raw values are rebuilt exactly");
    }

    #[test]
    fn conflicting_bases_are_an_encoder_error() {
        let mut a = three_bases();
        a.graphs[0].nodes[0].params.push(ParamSpec::IndirectPtr {
            alloc_seq: 5,
            offset: 0,
            raw: 0x1234,
        });
        a.seal();
        let err = encode_bundle(&[&a]).unwrap_err();
        assert_eq!(err.kind(), "artifact_corrupt");
        assert!(err.to_string().contains("#5"), "{err}");
    }

    #[test]
    fn base_table_corruption_is_a_typed_error() {
        let bytes = encode_bundle(&[&three_bases()]).unwrap();
        // Payload: count, then (alloc_seq, base) for allocations 4, 5, 6.
        let cases: Vec<(&str, Vec<u8>)> = vec![
            (
                "truncated mid-entry",
                tamper_section(&bytes, SectionKind::PtrBases, |p| p.len() - 3),
            ),
            (
                "truncated by one entry",
                tamper_section(&bytes, SectionKind::PtrBases, |p| p.len() - 16),
            ),
            (
                "empty section",
                tamper_section(&bytes, SectionKind::PtrBases, |_| 0),
            ),
            (
                "duplicate alloc_seq",
                tamper_section(&bytes, SectionKind::PtrBases, |p| {
                    let first = le64_at(p, 8);
                    p[24..32].copy_from_slice(&first.to_le_bytes());
                    p.len()
                }),
            ),
            (
                "pointer without a base",
                tamper_section(&bytes, SectionKind::PtrBases, |p| {
                    p[40..48].copy_from_slice(&u64::MAX.to_le_bytes());
                    p.len()
                }),
            ),
            (
                "count larger than the payload",
                tamper_section(&bytes, SectionKind::PtrBases, |p| {
                    p[..8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
                    p.len()
                }),
            ),
        ];
        for (what, bad) in cases {
            let r = Maf2Reader::open(&bad).unwrap_or_else(|e| panic!("{what}: open: {e}"));
            let err = r.shard(0).expect_err(what);
            assert_eq!(err.kind(), "artifact_corrupt", "{what}: {err}");
        }
    }

    #[test]
    fn nonzero_reserved_pointer_slot_is_rejected() {
        let bytes = encode_bundle(&[&tiny()]).unwrap();
        let bad = tamper_section(&bytes, SectionKind::Graphs, |p| {
            // The pointer record's last 8 bytes are reserved.
            p[PTR_AT + 24] = 1;
            p.len()
        });
        let err = Maf2Reader::open(&bad).unwrap().shard(0).unwrap_err();
        assert_eq!(err.kind(), "artifact_corrupt");
        assert!(err.to_string().contains("reserved"), "{err}");
    }

    /// Sets byte `at` of rank 0's Graphs payload of `a`'s encoding to `value`,
    /// resealed, and returns the shard's error.
    fn graphs_byte_error(a: &MaterializedState, at: usize, value: u8) -> MedusaError {
        let bytes = encode_bundle(&[a]).unwrap();
        let bad = tamper_section(&bytes, SectionKind::Graphs, |p| {
            p[at] = value;
            p.len()
        });
        Maf2Reader::open(&bad).unwrap().shard(0).unwrap_err()
    }

    // Offsets into tiny()'s Graphs payload: skeleton and graph counts (16)
    // and the skeleton header (16), then the node record at 32, the 4-byte
    // constant's record at 56 and the pointer record at 88; the graph
    // header at 120 and its node's work at 136.
    const NODE_AT: usize = 32;
    const CONST_AT: usize = 56;
    const PTR_AT: usize = 88;
    const GRAPH_AT: usize = 120;

    #[test]
    fn inline_constant_window_past_its_length_is_rejected() {
        let err = graphs_byte_error(&tiny(), CONST_AT + 8 + 4, 1);
        assert_eq!(err.kind(), "artifact_corrupt", "{err}");
        assert!(err.to_string().contains("inline constant"), "{err}");
    }

    #[test]
    fn spilled_constant_reserved_words_are_rejected() {
        let mut a = tiny();
        a.graphs[0].nodes[0].params.push(ParamSpec::Const {
            bytes: vec![3; PARAM_INLINE_LEN + 1].into(),
        });
        a.seal();
        // The spilled record follows the pointer record; its two reserved
        // words follow the spill offset.
        for at in [PTR_AT + 32 + 16, PTR_AT + 32 + 31] {
            let err = graphs_byte_error(&a, at, 1);
            assert_eq!(err.kind(), "artifact_corrupt", "{err}");
            assert!(err.to_string().contains("spilled constant"), "{err}");
        }
    }

    #[test]
    fn nonzero_pointer_aux_is_rejected() {
        let err = graphs_byte_error(&tiny(), PTR_AT + 4, 1);
        assert_eq!(err.kind(), "artifact_corrupt", "{err}");
        assert!(err.to_string().contains("allocation #4"), "{err}");
    }

    #[test]
    fn nonzero_node_reserved_word_is_rejected() {
        let err = graphs_byte_error(&tiny(), NODE_AT + 20, 1);
        assert_eq!(err.kind(), "artifact_corrupt", "{err}");
        assert!(err.to_string().contains("graph node `k`"), "{err}");
    }

    #[test]
    fn exported_bits_above_bit_0_are_rejected() {
        let err = graphs_byte_error(&tiny(), NODE_AT + 8, 3);
        assert_eq!(err.kind(), "artifact_corrupt", "{err}");
        assert!(err.to_string().contains("exported flag 3"), "{err}");
    }

    #[test]
    fn take_shard_moves_the_decoded_state_out() {
        let a = tiny();
        let bytes = encode_bundle(&[&a]).unwrap();
        let mut r = Maf2Reader::open(&bytes).unwrap();
        assert_eq!(r.take_shard(0).unwrap(), a);
        assert_eq!(r.shard(0).unwrap(), &a, "a later access decodes again");
        assert!(r.take_shard(1).is_err());
    }

    #[test]
    fn oversized_const_spills_and_restores() {
        let mut a = tiny();
        a.graphs[0].nodes[0].params.push(ParamSpec::Const {
            bytes: (0..=255).collect(),
        });
        a.seal();
        let bytes = encode_bundle(&[&a]).unwrap();
        let r = Maf2Reader::open(&bytes).unwrap();
        assert_eq!(r.shard(0).unwrap(), &a);
    }

    /// A validator for the tiny artifact's target.
    fn validator() -> crate::ArtifactValidator {
        let spec = medusa_model::ModelSpec::by_name("Qwen1.5-4B").unwrap();
        crate::ArtifactValidator::for_target(&spec, &medusa_gpu::GpuSpec::a100_40gb())
    }

    #[test]
    fn counts_past_the_payload_are_typed_errors_not_allocations() {
        let bytes = encode_bundle(&[&tiny()]).unwrap();
        let set = |at: usize, v: &[u8]| {
            let v = v.to_vec();
            move |p: &mut [u8]| {
                p[at..at + v.len()].copy_from_slice(&v);
                p.len()
            }
        };
        let max64 = u64::MAX.to_le_bytes();
        let max32 = u32::MAX.to_le_bytes();
        let cases = [
            ("pointer table count", SectionKind::PtrTables, 0, &max64[..]),
            (
                "pointer table entries",
                SectionKind::PtrTables,
                16,
                &max64[..],
            ),
            ("skeleton count", SectionKind::Graphs, 0, &max64[..]),
            ("graph count", SectionKind::Graphs, 8, &max64[..]),
            ("skeleton node count", SectionKind::Graphs, 16, &max32[..]),
            (
                "node parameter count",
                SectionKind::Graphs,
                NODE_AT + 16,
                &max32[..],
            ),
            ("patch count", SectionKind::Graphs, GRAPH_AT + 8, &max32[..]),
            ("string count", SectionKind::Strings, 0, &max32[..]),
        ];
        for (what, kind, at, value) in cases {
            let bad = tamper_section(&bytes, kind, set(at, value));
            let reader = Maf2Reader::open(&bad).unwrap();
            let err = reader.shard(0).expect_err(what);
            assert_eq!(err.kind(), "artifact_corrupt", "{what}: {err}");
            let err = reader.view(0).expect_err(what);
            assert_eq!(err.kind(), "artifact_corrupt", "{what}: {err}");
            let report = validator().validate_maf2(&reader);
            let (_, err) = report.first_failure().expect(what);
            assert_eq!(err.kind(), "artifact_corrupt", "{what}: {err}");
        }
    }

    /// A richer shard for fuzzing: three graphs with edges over two
    /// skeletons, the third patching a constant, a pointer and a spilled
    /// constant of the second, one kernel name under two libraries, three
    /// bases and two pointer tables.
    fn rich(rank: u32, tp: u32) -> MaterializedState {
        let mut a = three_bases();
        a.rank = rank;
        a.tp = tp;
        a.kv_free_bytes ^= u64::from(rank) << 32;
        a.labels.insert("ws.ids".into(), 5);
        a.permanent_ptr_tables.push((
            6,
            vec![PtrTableEntry {
                alloc_seq: 5,
                offset: 8,
            }],
        ));
        let mut g = a.graphs[0].clone();
        g.batch = 2;
        let mut twin = g.nodes[0].clone();
        twin.library = "l2".into();
        twin.params.push(ParamSpec::Const {
            bytes: (0..40).collect(),
        });
        let mut other = g.nodes[0].clone();
        other.kernel = "k2".into();
        other.exported = false;
        g.nodes.extend([twin, other]);
        g.edges = vec![(0, 1), (1, 2)];
        let mut patched = g.clone();
        patched.batch = 4;
        patched.nodes[0].params[0] = ParamSpec::Const {
            bytes: vec![2, 0, 0, 0].into(),
        };
        patched.nodes[1].params[1] = ParamSpec::IndirectPtr {
            alloc_seq: 4,
            offset: 24,
            raw: 83 + 24,
        };
        patched.nodes[1].params[4] = ParamSpec::Const {
            bytes: (1..41).collect(),
        };
        for n in &mut patched.nodes {
            n.work = Work::new(2.0, 3.0);
        }
        a.graphs.extend([g, patched]);
        a.seal();
        a
    }

    // Offsets into rich(_, 1)'s Graphs payload: skeleton 0 (one node, four
    // params) at 16, skeleton 1 (three nodes, 13 params, two edges) at
    // 184, graph 0 at 704, graph 1 (first of skeleton 1) at 736, graph 2
    // (three patches) at 800 with its patches at 864, the spill at 984.
    const RICH_SK1_AT: usize = 184;
    const RICH_G0_AT: usize = 704;
    const RICH_G1_AT: usize = 736;
    const RICH_G2_AT: usize = 800;
    const RICH_PATCHES_AT: usize = 864;

    #[test]
    fn later_graphs_of_a_skeleton_are_stored_as_patches() {
        let bytes = rich_bundle(1);
        let reader = Maf2Reader::open(&bytes).unwrap();
        let graphs = reader.locate(SectionKind::Graphs, 0).unwrap().0;
        assert_eq!(le64(graphs, 0), 2, "two skeletons");
        assert_eq!(le32(graphs, RICH_SK1_AT), 3, "skeleton 1 has three nodes");
        assert_eq!(le32(graphs, RICH_G2_AT + 4), 1, "graph 2 has skeleton 1");
        assert_eq!(le32(graphs, RICH_G2_AT + 8), 3, "graph 2 has three patches");
        assert_eq!(graphs.len(), RICH_PATCHES_AT + 3 * PATCH_REC + 80);
        let view = reader.view(0).unwrap();
        let bases: Vec<_> = view.graphs().map(|g| g.base()).collect();
        assert_eq!(bases, [None, None, Some(1)]);
        let g2 = view.graphs().nth(2).unwrap();
        let at: Vec<_> = g2.patches().map(|p| (p.node, p.param)).collect();
        assert_eq!(at, [(0, 0), (1, 1), (1, 4)]);
        assert_eq!(g2.to_spec(), rich(0, 1).graphs[2]);
        assert!(g2.works().all(|w| w == Work::new(2.0, 3.0)));
        assert_eq!(view.to_state(), rich(0, 1));
    }

    /// Every malformed skeleton, work or patch record of a resealed file
    /// is a typed error of the view, of the owned form and of the
    /// validator.
    #[test]
    fn malformed_skeletons_and_patches_are_typed_errors() {
        let bytes = rich_bundle(1);
        let set = |at: usize, v: &[u8]| {
            let v = v.to_vec();
            move |p: &mut [u8]| {
                p[at..at + v.len()].copy_from_slice(&v);
                p.len()
            }
        };
        let one = 1u32.to_le_bytes();
        let patch = |k: usize| RICH_PATCHES_AT + k * PATCH_REC;
        let graphs = Maf2Reader::open(&bytes)
            .unwrap()
            .locate(SectionKind::Graphs, 0)
            .unwrap()
            .0
            .to_vec();
        let cases: Vec<(&str, Vec<u8>, &str)> = vec![
            (
                "skeleton id past the count",
                tamper_section(
                    &bytes,
                    SectionKind::Graphs,
                    set(RICH_G2_AT + 4, &[7, 0, 0, 0]),
                ),
                "names skeleton #7",
            ),
            (
                "skeleton id ahead of first use",
                tamper_section(&bytes, SectionKind::Graphs, set(RICH_G0_AT + 4, &one)),
                "names skeleton #1",
            ),
            (
                "patch of a node past the skeleton",
                tamper_section(&bytes, SectionKind::Graphs, set(patch(0), &[3, 0, 0, 0])),
                "does not have",
            ),
            (
                "patch of a param past the node",
                tamper_section(
                    &bytes,
                    SectionKind::Graphs,
                    set(patch(0) + 4, &[4, 0, 0, 0]),
                ),
                "does not have",
            ),
            (
                "patch of another kind",
                tamper_section(&bytes, SectionKind::Graphs, set(patch(0) + 8, &one)),
                "another kind or width",
            ),
            (
                "patch of another width",
                tamper_section(
                    &bytes,
                    SectionKind::Graphs,
                    set(patch(0) + 12, &[8, 0, 0, 0]),
                ),
                "another kind or width",
            ),
            (
                "unsorted patches",
                tamper_section(
                    &bytes,
                    SectionKind::Graphs,
                    set(patch(1), &graphs[patch(2)..patch(3)]),
                ),
                "out of order or twice",
            ),
            (
                "duplicate patches",
                tamper_section(
                    &bytes,
                    SectionKind::Graphs,
                    set(patch(1), &graphs[patch(0)..patch(1)]),
                ),
                "out of order or twice",
            ),
            (
                "patch that repeats the skeleton's value",
                tamper_section(&bytes, SectionKind::Graphs, set(patch(0) + 16, &one)),
                "with the value it has",
            ),
            (
                "work that is not a number",
                tamper_section(
                    &bytes,
                    SectionKind::Graphs,
                    set(RICH_G2_AT + 16, &u64::MAX.to_le_bytes()),
                ),
                "has work NaN",
            ),
            (
                "negative work",
                tamper_section(
                    &bytes,
                    SectionKind::Graphs,
                    set(RICH_G2_AT + 24, &(-1f64).to_bits().to_le_bytes()),
                ),
                "has work -1",
            ),
            (
                "nonzero skeleton header padding",
                tamper_section(&bytes, SectionKind::Graphs, set(RICH_SK1_AT + 12, &one)),
                "reserved",
            ),
            (
                "nonzero graph header padding",
                tamper_section(&bytes, SectionKind::Graphs, set(RICH_G2_AT + 12, &one)),
                "reserved",
            ),
            (
                "nonzero patch padding",
                tamper_section(&bytes, SectionKind::Graphs, set(patch(0) + 8 + 8 + 4, &one)),
                "inline constant",
            ),
            (
                "forged skeleton count, one more",
                tamper_section(&bytes, SectionKind::Graphs, set(0, &3u64.to_le_bytes())),
                "",
            ),
            (
                "forged skeleton count, one fewer",
                tamper_section(&bytes, SectionKind::Graphs, set(0, &1u64.to_le_bytes())),
                "",
            ),
            (
                "forged skeleton count, the largest",
                tamper_section(&bytes, SectionKind::Graphs, set(0, &u64::MAX.to_le_bytes())),
                "",
            ),
            (
                "forged graph count leaving a skeleton unused",
                tamper_section(&bytes, SectionKind::Graphs, set(8, &1u64.to_le_bytes())),
                "used by no graph",
            ),
            (
                "patches on the first graph of a skeleton",
                // Graph 2's records before graph 1's: the same bytes, with
                // the patched graph now the first of its skeleton.
                tamper_section(&bytes, SectionKind::Graphs, |p| {
                    p[RICH_G1_AT..RICH_PATCHES_AT + 3 * PATCH_REC]
                        .rotate_left(RICH_G2_AT - RICH_G1_AT);
                    p.len()
                }),
                "first of skeleton #1 but carries 3 patches",
            ),
        ];
        for (what, bad, needle) in cases {
            let reader = Maf2Reader::open(&bad).unwrap_or_else(|e| panic!("{what}: open: {e}"));
            let err = reader.view(0).expect_err(what);
            assert_eq!(err.kind(), "artifact_corrupt", "{what}: {err}");
            assert!(err.to_string().contains(needle), "{what}: {err}");
            assert_eq!(reader.shard(0).expect_err(what).kind(), "artifact_corrupt");
            let report = validator().validate_maf2(&reader);
            let (_, err) = report.first_failure().expect(what);
            assert_eq!(err.kind(), "artifact_corrupt", "{what}: {err}");
        }
    }

    fn rich_bundle(tp: u32) -> Vec<u8> {
        let shards: Vec<MaterializedState> = (0..tp).map(|r| rich(r, tp)).collect();
        let refs: Vec<&MaterializedState> = shards.iter().collect();
        encode_bundle(&refs).unwrap()
    }

    #[test]
    fn the_view_lists_kernels_by_name_in_first_use_order() {
        let bytes = rich_bundle(1);
        let reader = Maf2Reader::open(&bytes).unwrap();
        let view = reader.view(0).unwrap();
        let names: Vec<(&str, &str)> = view
            .kernels()
            .iter()
            .map(|k| (k.library, k.kernel))
            .collect();
        assert_eq!(names, [("l", "k"), ("l2", "k"), ("l", "k2")]);
        let owned = reader.shard(0).unwrap();
        assert_eq!(owned, &rich(0, 1));
        assert_eq!(owned.kernels(), view.kernels());
        assert_eq!(view.content_checksum(), owned.checksum);
    }

    /// The encoder writes each string once, but a sealed file may name one
    /// kernel under two string ids: the view lists it once, as the owned
    /// form does, and a resolver resolves it once, whichever form it is
    /// handed first.
    #[test]
    fn one_kernel_under_two_string_ids_is_one_kernel() {
        use crate::online::kernels::KernelResolver;
        use medusa_gpu::{
            CostClass, CostModel, GpuSpec, KernelDef, KernelSig, LibraryCatalog, LibrarySpec,
            ModuleSpec, ProcessRuntime,
        };
        let mut expected = rich(0, 1);
        expected.graphs[1].nodes[2].kernel = "k".into();
        expected.graphs[2].nodes[2].kernel = "k".into();
        expected.seal();
        // `rich` numbers its strings k, k2, kv.key, l, l2, ws.ids: point
        // string #1 at the bytes of string #0 and seal the result.
        let bytes = tamper_section(&rich_bundle(1), SectionKind::Strings, |p| {
            p[16..24].copy_from_slice(&[0, 0, 0, 0, 1, 0, 0, 0]);
            p.len()
        });
        let bytes = tamper_section(&bytes, SectionKind::ShardMeta, |p| {
            p[24..32].copy_from_slice(&expected.checksum.to_le_bytes());
            p.len()
        });
        let reader = Maf2Reader::open(&bytes).unwrap();
        let view = reader.view(0).unwrap();
        assert_eq!(view.to_state(), expected);
        assert_eq!(view.kernels(), expected.kernels());
        assert_eq!(view.kernels().len(), 2);

        let lib = |name: &str| {
            let k = KernelDef::new("k", true, KernelSig::new(vec![]), CostClass::MemoryBound);
            LibrarySpec::new(name, false, vec![ModuleSpec::new("m", vec![k])])
        };
        let catalog = LibraryCatalog::new(vec![lib("l"), lib("l2")]);
        let owned = reader.shard(0).unwrap();
        for order in [[true, false], [false, true]] {
            let mut rt = ProcessRuntime::new(
                catalog.clone(),
                GpuSpec::new("t", 1 << 30),
                CostModel::default(),
                7,
            );
            let mut res = KernelResolver::new();
            for from_view in order {
                if from_view {
                    res.resolve_exported(&mut rt, view).unwrap();
                    res.ensure_complete(view).unwrap();
                } else {
                    res.resolve_exported(&mut rt, owned).unwrap();
                    res.ensure_complete(owned).unwrap();
                }
            }
            assert_eq!(res.stats().via_dlsym, 2);
            for (g, o) in view.graphs().zip(&owned.graphs) {
                let view_addrs: Vec<_> = g
                    .nodes()
                    .map(|(n, _)| res.addrs().get(n.library, n.kernel))
                    .collect();
                let owned_addrs: Vec<_> = o
                    .nodes
                    .iter()
                    .map(|n| res.addrs().get(&n.library, &n.kernel))
                    .collect();
                assert!(view_addrs.iter().all(Option::is_some));
                assert_eq!(view_addrs, owned_addrs);
            }
        }
    }

    /// The forgery the v3 content fold caught: the ShardMeta checksum
    /// edited alone, with every section digest, the header's
    /// checksum-of-digests and the index digest resealed. The shard seal
    /// rejects it, and the validator reports it on its checksum check.
    #[test]
    fn a_checksum_edit_resealed_in_transit_breaks_the_shard_seal() {
        let bytes = rich_bundle(2);
        for rank in 0..2 {
            let mut bad = edited(&bytes, rank, SectionKind::ShardMeta, |p| {
                p[24] ^= 1;
                p.len()
            });
            reseal(&mut bad, None);
            let reader = Maf2Reader::open(&bad).unwrap();
            reader.verify_content_checksum().unwrap();
            assert_eq!(reader.view(rank).unwrap_err().kind(), "checksum_mismatch");
            reader.view(1 - rank).unwrap();
            let report = validator().shard(rank, 2).validate_maf2(&reader);
            let (check, err) = report.first_failure().unwrap();
            assert_eq!(*check, crate::ValidationCheck::Checksum, "{err}");
        }
    }

    /// The reader trusts the shard seal, so the writer checks the content
    /// checksum: a shard whose checksum disagrees with its content is not
    /// encoded.
    #[test]
    fn encoding_refuses_a_checksum_that_disagrees_with_the_content() {
        let mut a = rich(0, 1);
        a.checksum ^= 1;
        assert_eq!(
            encode_bundle(&[&a]).unwrap_err().kind(),
            "checksum_mismatch"
        );
        let mut b = rich(1, 2);
        b.graphs[0].nodes[0].stream += 1;
        let err = encode_bundle(&[&rich(0, 2), &b]).unwrap_err();
        assert_eq!(err.kind(), "checksum_mismatch");
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Structure-aware fuzzing past the seal: one aligned field of one
        /// section of a sealed bundle is overwritten with an edge or a
        /// random value, and the bundle resealed. With `forge_seal` the
        /// shard seal is resealed too. Reading never panics and fails only
        /// with a typed error; without `forge_seal`, an edit that changed
        /// a shard never reads. When a shard reads, its owned form is the
        /// reader's, and the view's verification and the owned validation
        /// reach the same verdict on every check but the checksum: the
        /// reader's is the shard seal's, and the owned form's is its fold,
        /// which the view's own fold matches.
        #[test]
        fn resealed_field_edits_read_or_fail_typed(
            tp in 1u32..3,
            pick in any::<u64>(),
            at in any::<u64>(),
            wide in any::<bool>(),
            edge in 0u8..6,
            random in any::<u64>(),
            forge_seal in any::<bool>(),
        ) {
            let bytes = rich_bundle(tp);
            let extents = Maf2Reader::open(&bytes).unwrap().section_extents();
            let e = extents[(pick % extents.len() as u64) as usize];
            let width = if wide { 8 } else { 4 };
            if (e.len as usize) < width {
                return Ok(());
            }
            let off = (at % ((e.len as usize - width) / 4 + 1) as u64) as usize * 4;
            let value = match edge {
                0 => 0,
                1 => 1,
                2 => e.len,
                3 => u64::from(u32::MAX),
                4 => u64::MAX,
                _ => random,
            };
            let mut bad = edited(&bytes, e.shard, e.kind, |p| {
                p[off..off + width].copy_from_slice(&value.to_le_bytes()[..width]);
                p.len()
            });
            let changed = bad != bytes;
            reseal(&mut bad, forge_seal.then_some(e.shard));
            let reader = Maf2Reader::open(&bad).expect("a resealed edit still opens");
            for rank in reader.shard_ranks() {
                match reader.view(rank) {
                    Ok(view) => {
                        prop_assert!(
                            forge_seal || !changed || rank != e.shard,
                            "an edit of {:?} passed the shard seal", e.kind
                        );
                        let owned = reader.shard(rank).expect("the view read");
                        prop_assert_eq!(&view.to_state(), owned);
                        let v = validator().shard(rank, reader.tp());
                        let report = v.validate_maf2(&reader);
                        let mut want = v.validate(owned);
                        let fold = want.checks[1].1.take();
                        prop_assert_eq!(
                            format!("{fold:?}"),
                            format!("{:?}", view.verify_checksum().err())
                        );
                        prop_assert_eq!(
                            format!("{:?}", report.checks),
                            format!("{:?}", want.checks)
                        );
                    }
                    Err(err) => {
                        prop_assert!(
                            matches!(err.kind(), "artifact_corrupt" | "checksum_mismatch"),
                            "{err}"
                        );
                        prop_assert_eq!(err.kind(), reader.shard(rank).unwrap_err().kind());
                    }
                }
            }
        }
    }
}
