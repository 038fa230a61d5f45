//! The materialization artifact: everything Medusa's offline phase saves and
//! its online phase restores (paper Figure 5).
//!
//! One artifact exists per `<GPU type, model type>` pair. It contains:
//!
//! * the materialized **KV cache initialization** — the profiled available
//!   free GPU memory (§6);
//! * the **(de)allocation replay sequence** — every `cudaMalloc`/`cudaFree`
//!   the offline loading phase performed after model structure
//!   initialization, so the online phase can recreate the buffer layout (§4.2);
//! * one **materialized graph** per captured batch size: nodes with
//!   constants stored by value and data pointers stored as *indirect index
//!   pointers* into the replay sequence (§4.1), kernels stored by mangled
//!   name + library (§5), and the dependency edges;
//! * the contents of **permanent buffers** only (copy-free buffer contents
//!   restoration, §4.3);
//! * **semantic labels** binding engine-level buffers (KV cache, workspace,
//!   magic pairs) to allocation indices so the online engine can address
//!   them.

use crate::error::{MedusaError, MedusaResult};
use medusa_gpu::{Digest, Work};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

pub mod maf2;
pub mod registry;
pub mod template;

/// Format version, bumped on breaking layout changes (v2 added the sealed
/// content checksum; v3 made MAF2 graph records address-free, with the
/// offline addresses in a per-shard base table).
pub const ARTIFACT_VERSION: u32 = 3;

/// One materialized kernel parameter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParamSpec {
    /// A constant: restored by copying the plain value (§4).
    Const {
        /// Raw little-endian bytes (4 or 8).
        bytes: Vec<u8>,
    },
    /// A data pointer: restored through the indirect index pointer table
    /// (§4.1/§4.2).
    IndirectPtr {
        /// Index in the (prefix + replayed) allocation sequence.
        alloc_seq: u64,
        /// Byte offset of the pointer within the matched buffer.
        offset: u64,
        /// The raw offline value (for diagnostics and for correction of
        /// false positives back to a constant, §4). Always the offline base
        /// of `alloc_seq` plus `offset`; MAF2 stores the base once per
        /// allocation rather than this value per pointer.
        raw: u64,
    },
}

/// One materialized CUDA graph node (paper Fig. 4, with addresses replaced
/// by restorable references).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// The kernel's mangled name (§5).
    pub kernel: String,
    /// The dynamic library the kernel belongs to (§5).
    pub library: String,
    /// Whether the offline phase found the kernel in the library's dynamic
    /// symbol table (determines the dlsym vs. triggering-kernel path).
    pub exported: bool,
    /// Materialized parameters, in signature order.
    pub params: Vec<ParamSpec>,
    /// Recorded work size (grid-dim equivalent).
    pub work: Work,
    /// Capture-time stream.
    pub stream: u32,
}

/// One materialized graph (a single batch size).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphSpec {
    /// The decode batch size the graph was captured for.
    pub batch: u32,
    /// Materialized nodes in capture order.
    pub nodes: Vec<NodeSpec>,
    /// Dependency edges `(src, dst)`.
    pub edges: Vec<(u32, u32)>,
}

/// One step of the (de)allocation replay sequence (§4.2). Allocation ops
/// implicitly number themselves in sequence order continuing after the
/// natural prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplayOp {
    /// `cudaMalloc(size)`.
    Malloc {
        /// Rounded allocation size.
        size: u64,
    },
    /// `cudaFree` of the buffer created by allocation `alloc_seq`.
    Free {
        /// Allocation-sequence index of the freed buffer.
        alloc_seq: u64,
    },
}

/// One entry of a materialized pointer table (indirect pointers, §8): the
/// buffer's stored pointers re-expressed as indirect indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PtrTableEntry {
    /// Allocation-sequence index of the target buffer.
    pub alloc_seq: u64,
    /// Byte offset of the stored pointer within the target buffer.
    pub offset: u64,
}

/// Statistics recorded by the analysis stage (reported in EXPERIMENTS.md and
/// used by tests to pin paper-claimed proportions).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AnalysisStats {
    /// Total materialized nodes across all graphs.
    pub nodes: u64,
    /// Parameters classified as data pointers.
    pub pointer_params: u64,
    /// Parameters classified as constants.
    pub const_params: u64,
    /// Pointer params whose address matched more than one historical
    /// allocation — the Fig. 6 false-positive hazard that trace-based
    /// matching disambiguates.
    pub multi_match_pointers: u64,
    /// Nodes whose kernel is restorable via `dlsym` (paper: 69.2 % for
    /// Llama2 13B @ batch 1).
    pub dlsym_restorable_nodes: u64,
    /// Nodes needing the triggering-kernel path.
    pub hidden_kernel_nodes: u64,
    /// Distinct buffers classified as model parameters (contents skipped).
    pub param_buffers: u64,
    /// Distinct buffers classified as temporary (contents skipped).
    pub temp_buffers: u64,
    /// Distinct buffers classified as permanent (contents materialized;
    /// paper: ~9 % of kernels need two 4-byte permanent buffers).
    pub permanent_buffers: u64,
}

/// The complete materialized state for one `<GPU type, model type>`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MaterializedState {
    /// Format version.
    pub version: u32,
    /// Model name the artifact was built for.
    pub model: String,
    /// GPU name the artifact was built for.
    pub gpu: String,
    /// Tensor-parallel rank this artifact belongs to (0 for single GPU).
    pub rank: u32,
    /// Tensor-parallel degree (1 for single GPU). Multi-GPU support is the
    /// paper's §8 extension: one artifact per rank.
    pub tp: u32,
    /// Materialized KV cache initialization: available free GPU memory (§6).
    pub kv_free_bytes: u64,
    /// Number of allocations the online process performs naturally (model
    /// structure initialization) before replay begins.
    pub replay_prefix_allocs: u64,
    /// The replayed (de)allocation sequence (§4.2).
    pub replay_ops: Vec<ReplayOp>,
    /// Semantic buffer label → allocation-sequence index.
    pub labels: HashMap<String, u64>,
    /// Permanent buffer contents: allocation index → digest (§4.3).
    pub permanent_contents: Vec<(u64, Digest)>,
    /// Permanent pointer tables (indirect pointers, §8): allocation index →
    /// stored pointers as indirect indices, rebuilt with restored addresses
    /// online.
    pub permanent_ptr_tables: Vec<(u64, Vec<PtrTableEntry>)>,
    /// Materialized graphs, one per captured batch size, ascending batch.
    pub graphs: Vec<GraphSpec>,
    /// Analysis statistics.
    pub stats: AnalysisStats,
    /// Content checksum sealed at materialization time: an FNV-1a fold over
    /// every field except `version` and the checksum itself, with `labels`
    /// folded in sorted key order so the value is independent of hash-map
    /// iteration order. Registry transfers and caches verify it before any
    /// restore is attempted.
    pub checksum: u64,
}

/// FNV-1a 64-bit fold used for the artifact content checksum. Deliberately
/// *not* a hash of the JSON encoding: the encoder's map ordering is not part
/// of the artifact contract, the field fold below is.
struct ContentFold(u64);

impl ContentFold {
    fn new() -> Self {
        ContentFold(0xcbf2_9ce4_8422_2325)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }
    fn bytes(&mut self, bs: &[u8]) {
        self.u64(bs.len() as u64);
        for &b in bs {
            self.byte(b);
        }
    }
    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// One kernel parameter as a [`ShardRead`] lends it: a borrowed form of
/// [`ParamSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamRef<'a> {
    /// A constant's raw little-endian bytes.
    Const(&'a [u8]),
    /// An indirect index pointer (see [`ParamSpec::IndirectPtr`]).
    Ptr {
        /// Index in the (prefix + replayed) allocation sequence.
        alloc_seq: u64,
        /// Byte offset of the pointer within the matched buffer.
        offset: u64,
        /// The raw offline value.
        raw: u64,
    },
}

impl<'a> From<&'a ParamSpec> for ParamRef<'a> {
    fn from(p: &'a ParamSpec) -> Self {
        match p {
            ParamSpec::Const { bytes } => ParamRef::Const(bytes),
            &ParamSpec::IndirectPtr {
                alloc_seq,
                offset,
                raw,
            } => ParamRef::Ptr {
                alloc_seq,
                offset,
                raw,
            },
        }
    }
}

/// One graph node's scalars as a [`GraphRead`] lends them: a borrowed form
/// of [`NodeSpec`] without its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeRef<'a> {
    /// The kernel's mangled name.
    pub kernel: &'a str,
    /// The dynamic library the kernel belongs to.
    pub library: &'a str,
    /// Whether the kernel is in the library's dynamic symbol table.
    pub exported: bool,
    /// Recorded work size.
    pub work: Work,
    /// Capture-time stream.
    pub stream: u32,
}

/// One entry of a shard's kernel table: a distinct `(library, kernel)`
/// pair, with the export flag of its first use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelName<'a> {
    /// The dynamic library.
    pub library: &'a str,
    /// The kernel's mangled name.
    pub kernel: &'a str,
    /// Whether the first node using the pair marks it exported.
    pub exported: bool,
}

/// Read access to one materialized graph, owned ([`GraphSpec`]) or
/// borrowed from MAF2 bytes ([`maf2::GraphView`]).
pub trait GraphRead {
    /// The decode batch size the graph was captured for.
    fn batch(&self) -> u32;

    /// Number of nodes.
    fn node_count(&self) -> usize;

    /// The nodes in capture order, each with its parameters in signature
    /// order.
    fn nodes(
        &self,
    ) -> impl Iterator<
        Item = (
            NodeRef<'_>,
            impl ExactSizeIterator<Item = ParamRef<'_>> + '_,
        ),
    > + '_;

    /// Dependency edges `(src, dst)`.
    fn edges(&self) -> impl ExactSizeIterator<Item = (u32, u32)> + '_;

    /// The graph as an owned, mutable [`GraphSpec`].
    fn to_spec(&self) -> GraphSpec {
        GraphSpec {
            batch: self.batch(),
            nodes: self
                .nodes()
                .map(|(n, params)| NodeSpec {
                    kernel: n.kernel.to_string(),
                    library: n.library.to_string(),
                    exported: n.exported,
                    params: params
                        .map(|p| match p {
                            ParamRef::Const(bytes) => ParamSpec::Const {
                                bytes: bytes.to_vec(),
                            },
                            ParamRef::Ptr {
                                alloc_seq,
                                offset,
                                raw,
                            } => ParamSpec::IndirectPtr {
                                alloc_seq,
                                offset,
                                raw,
                            },
                        })
                        .collect(),
                    work: n.work,
                    stream: n.stream,
                })
                .collect(),
            edges: self.edges().collect(),
        }
    }
}

impl GraphRead for GraphSpec {
    fn batch(&self) -> u32 {
        self.batch
    }

    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn nodes(
        &self,
    ) -> impl Iterator<
        Item = (
            NodeRef<'_>,
            impl ExactSizeIterator<Item = ParamRef<'_>> + '_,
        ),
    > + '_ {
        self.nodes.iter().map(|n| {
            let node = NodeRef {
                kernel: &n.kernel,
                library: &n.library,
                exported: n.exported,
                work: n.work,
                stream: n.stream,
            };
            (node, n.params.iter().map(ParamRef::from))
        })
    }

    fn edges(&self) -> impl ExactSizeIterator<Item = (u32, u32)> + '_ {
        self.edges.iter().copied()
    }

    fn to_spec(&self) -> GraphSpec {
        self.clone()
    }
}

impl<G: GraphRead + ?Sized> GraphRead for &G {
    fn batch(&self) -> u32 {
        (**self).batch()
    }

    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn nodes(
        &self,
    ) -> impl Iterator<
        Item = (
            NodeRef<'_>,
            impl ExactSizeIterator<Item = ParamRef<'_>> + '_,
        ),
    > + '_ {
        (**self).nodes()
    }

    fn edges(&self) -> impl ExactSizeIterator<Item = (u32, u32)> + '_ {
        (**self).edges()
    }

    fn to_spec(&self) -> GraphSpec {
        (**self).to_spec()
    }
}

/// Read access to one shard of a materialized artifact — the interface the
/// online restore, the deep validation checks and the content checksum
/// read a shard through. The owned [`MaterializedState`] implements it,
/// and so does [`maf2::ShardView`], which reads the records of MAF2 bytes
/// in place.
pub trait ShardRead {
    /// The shard's graph type.
    type Graph<'g>: GraphRead
    where
        Self: 'g;

    /// Model name of the target key.
    fn model(&self) -> &str;
    /// GPU name of the target key.
    fn gpu(&self) -> &str;
    /// Tensor-parallel rank.
    fn rank(&self) -> u32;
    /// Tensor-parallel degree.
    fn tp(&self) -> u32;
    /// Materialized KV cache initialization: available free GPU memory.
    fn kv_free_bytes(&self) -> u64;
    /// Natural allocations before replay begins.
    fn replay_prefix_allocs(&self) -> u64;
    /// The sealed content checksum.
    fn checksum(&self) -> u64;
    /// Analysis statistics.
    fn stats(&self) -> &AnalysisStats;
    /// The (de)allocation replay sequence.
    fn replay_ops(&self) -> impl ExactSizeIterator<Item = ReplayOp> + '_;
    /// Semantic labels, one per name, in name order.
    fn labels(&self) -> impl ExactSizeIterator<Item = (&str, u64)> + '_;
    /// Permanent buffer contents.
    fn permanent_contents(&self) -> impl ExactSizeIterator<Item = (u64, Digest)> + '_;
    /// Permanent pointer tables.
    fn ptr_tables(
        &self,
    ) -> impl ExactSizeIterator<Item = (u64, impl ExactSizeIterator<Item = PtrTableEntry> + '_)> + '_;
    /// Materialized graphs, ascending batch.
    fn graphs(&self) -> impl ExactSizeIterator<Item = Self::Graph<'_>> + '_;
    /// The distinct `(library, kernel)` names of the graphs, in first-use
    /// order.
    fn kernels(&self) -> Vec<KernelName<'_>>;

    /// Checks the shard matches the restoring `<GPU, model>` pair and
    /// shard.
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::ArtifactMismatch`] when it does not.
    fn check_target(&self, model: &str, gpu: &str, rank: u32, tp: u32) -> MedusaResult<()> {
        if self.model() != model || self.gpu() != gpu || self.rank() != rank || self.tp() != tp {
            return Err(MedusaError::ArtifactMismatch {
                artifact: format!(
                    "{}/{} r{}/{}",
                    self.model(),
                    self.gpu(),
                    self.rank(),
                    self.tp()
                ),
                target: format!("{model}/{gpu} r{rank}/{tp}"),
            });
        }
        Ok(())
    }

    /// Recomputes the content checksum: an FNV-1a fold over every field
    /// except the version and the checksum itself, in a fixed order
    /// (struct field order, labels by name), so same-content shards agree
    /// however they were produced or transported.
    fn content_checksum(&self) -> u64 {
        content_fold(self)
    }

    /// Verifies the sealed checksum against a recomputation.
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::ChecksumMismatch`] when the content no longer
    /// matches what was sealed.
    fn verify_checksum(&self) -> MedusaResult<()> {
        let actual = self.content_checksum();
        if self.checksum() != actual {
            return Err(MedusaError::ChecksumMismatch {
                expected: self.checksum(),
                actual,
            });
        }
        Ok(())
    }
}

/// The content checksum of a shard (see [`ShardRead::content_checksum`]).
pub(crate) fn content_fold<S: ShardRead + ?Sized>(s: &S) -> u64 {
    let mut f = ContentFold::new();
    f.str(s.model());
    f.str(s.gpu());
    f.u64(u64::from(s.rank()));
    f.u64(u64::from(s.tp()));
    f.u64(s.kv_free_bytes());
    f.u64(s.replay_prefix_allocs());
    let ops = s.replay_ops();
    f.u64(ops.len() as u64);
    for op in ops {
        match op {
            ReplayOp::Malloc { size } => {
                f.byte(0);
                f.u64(size);
            }
            ReplayOp::Free { alloc_seq } => {
                f.byte(1);
                f.u64(alloc_seq);
            }
        }
    }
    let labels = s.labels();
    f.u64(labels.len() as u64);
    for (k, v) in labels {
        f.str(k);
        f.u64(v);
    }
    let perm = s.permanent_contents();
    f.u64(perm.len() as u64);
    for (seq, digest) in perm {
        f.u64(seq);
        f.bytes(&digest);
    }
    let tables = s.ptr_tables();
    f.u64(tables.len() as u64);
    for (seq, entries) in tables {
        f.u64(seq);
        f.u64(entries.len() as u64);
        for e in entries {
            f.u64(e.alloc_seq);
            f.u64(e.offset);
        }
    }
    let graphs = s.graphs();
    f.u64(graphs.len() as u64);
    for g in graphs {
        f.u64(u64::from(g.batch()));
        f.u64(g.node_count() as u64);
        for (n, params) in g.nodes() {
            f.str(n.kernel);
            f.str(n.library);
            f.byte(u8::from(n.exported));
            f.u64(params.len() as u64);
            for p in params {
                match p {
                    ParamRef::Const(bytes) => {
                        f.byte(0);
                        f.bytes(bytes);
                    }
                    ParamRef::Ptr {
                        alloc_seq,
                        offset,
                        raw,
                    } => {
                        f.byte(1);
                        f.u64(alloc_seq);
                        f.u64(offset);
                        f.u64(raw);
                    }
                }
            }
            f.u64(n.work.flops.to_bits());
            f.u64(n.work.bytes.to_bits());
            f.u64(u64::from(n.stream));
        }
        let edges = g.edges();
        f.u64(edges.len() as u64);
        for (a, b) in edges {
            f.u64(u64::from(a));
            f.u64(u64::from(b));
        }
    }
    let st = s.stats();
    for v in [
        st.nodes,
        st.pointer_params,
        st.const_params,
        st.multi_match_pointers,
        st.dlsym_restorable_nodes,
        st.hidden_kernel_nodes,
        st.param_buffers,
        st.temp_buffers,
        st.permanent_buffers,
    ] {
        f.u64(v);
    }
    f.0
}

impl ShardRead for MaterializedState {
    type Graph<'g> = &'g GraphSpec;

    fn model(&self) -> &str {
        &self.model
    }

    fn gpu(&self) -> &str {
        &self.gpu
    }

    fn rank(&self) -> u32 {
        self.rank
    }

    fn tp(&self) -> u32 {
        self.tp
    }

    fn kv_free_bytes(&self) -> u64 {
        self.kv_free_bytes
    }

    fn replay_prefix_allocs(&self) -> u64 {
        self.replay_prefix_allocs
    }

    fn checksum(&self) -> u64 {
        self.checksum
    }

    fn stats(&self) -> &AnalysisStats {
        &self.stats
    }

    fn replay_ops(&self) -> impl ExactSizeIterator<Item = ReplayOp> + '_ {
        self.replay_ops.iter().copied()
    }

    fn labels(&self) -> impl ExactSizeIterator<Item = (&str, u64)> + '_ {
        let mut labels: Vec<(&str, u64)> =
            self.labels.iter().map(|(k, &v)| (k.as_str(), v)).collect();
        labels.sort_unstable_by_key(|&(k, _)| k);
        labels.into_iter()
    }

    fn permanent_contents(&self) -> impl ExactSizeIterator<Item = (u64, Digest)> + '_ {
        self.permanent_contents.iter().copied()
    }

    fn ptr_tables(
        &self,
    ) -> impl ExactSizeIterator<Item = (u64, impl ExactSizeIterator<Item = PtrTableEntry> + '_)> + '_
    {
        self.permanent_ptr_tables
            .iter()
            .map(|(seq, entries)| (*seq, entries.iter().copied()))
    }

    fn graphs(&self) -> impl ExactSizeIterator<Item = &GraphSpec> + '_ {
        self.graphs.iter()
    }

    fn kernels(&self) -> Vec<KernelName<'_>> {
        let mut seen = HashSet::new();
        self.graphs
            .iter()
            .flat_map(|g| &g.nodes)
            .filter(|n| seen.insert((n.library.as_str(), n.kernel.as_str())))
            .map(|n| KernelName {
                library: &n.library,
                kernel: &n.kernel,
                exported: n.exported,
            })
            .collect()
    }
}

impl MaterializedState {
    /// Total node count across graphs.
    pub fn total_nodes(&self) -> u64 {
        self.graphs.iter().map(|g| g.nodes.len() as u64).sum()
    }

    /// Recomputes the content checksum over the artifact's fields (see
    /// [`ShardRead::content_checksum`]).
    pub fn content_checksum(&self) -> u64 {
        ShardRead::content_checksum(self)
    }

    /// Seals the artifact: stamps the content checksum over the current
    /// field values. Called once by the offline analysis stage.
    pub fn seal(&mut self) {
        self.checksum = self.content_checksum();
    }

    /// Verifies the sealed checksum against a recomputation.
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::ChecksumMismatch`] when the payload no longer
    /// matches what was sealed.
    pub fn verify_checksum(&self) -> MedusaResult<()> {
        ShardRead::verify_checksum(self)
    }

    /// Checks the artifact matches the restoring `<GPU, model>` pair and
    /// shard.
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::ArtifactMismatch`] when it does not.
    pub fn check_target(&self, model: &str, gpu: &str, rank: u32, tp: u32) -> MedusaResult<()> {
        ShardRead::check_target(self, model, gpu, rank, tp)
    }

    /// Looks up a semantic label.
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::MissingLabel`] when absent.
    pub fn label(&self, name: &str) -> MedusaResult<u64> {
        self.labels
            .get(name)
            .copied()
            .ok_or_else(|| MedusaError::MissingLabel {
                label: name.to_string(),
            })
    }

    /// Serializes the artifact (the format a deployment would persist per
    /// `<GPU type, model type>`).
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::ArtifactCorrupt`] on encoder failure.
    pub fn to_json(&self) -> MedusaResult<String> {
        serde_json::to_string(self).map_err(|e| MedusaError::ArtifactCorrupt {
            detail: e.to_string(),
        })
    }

    /// Deserializes an artifact, validating the version.
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::ArtifactCorrupt`] on decode failure or version
    /// mismatch.
    pub fn from_json(s: &str) -> MedusaResult<Self> {
        let v: MaterializedState =
            serde_json::from_str(s).map_err(|e| MedusaError::ArtifactCorrupt {
                detail: e.to_string(),
            })?;
        if v.version != ARTIFACT_VERSION {
            return Err(MedusaError::ArtifactCorrupt {
                detail: format!("version {} != {}", v.version, ARTIFACT_VERSION),
            });
        }
        Ok(v)
    }

    /// Encodes this artifact as a single-shard MAF2 binary file (the
    /// production persistence format; JSON remains the debug encoding).
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::ArtifactCorrupt`] on encoder failure.
    pub fn to_maf2(&self) -> MedusaResult<Vec<u8>> {
        maf2::encode_bundle(&[self])
    }

    /// Decodes a single-shard MAF2 file eagerly, validating the version.
    /// For bundles or lazy per-shard access use [`maf2::Maf2Reader`].
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::ArtifactCorrupt`] on decode failure, version
    /// mismatch, or when the file holds more than one shard, and
    /// [`MedusaError::ChecksumMismatch`] on digest disagreement.
    pub fn from_maf2(bytes: &[u8]) -> MedusaResult<Self> {
        let mut reader = maf2::Maf2Reader::open(bytes)?;
        if reader.version() != ARTIFACT_VERSION {
            return Err(MedusaError::ArtifactCorrupt {
                detail: format!("version {} != {}", reader.version(), ARTIFACT_VERSION),
            });
        }
        let ranks = reader.shard_ranks();
        match ranks.as_slice() {
            [rank] => reader.take_shard(*rank),
            _ => Err(MedusaError::ArtifactCorrupt {
                detail: format!(
                    "expected a single-shard artifact, file holds {} shards",
                    ranks.len()
                ),
            }),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;

    /// A tiny sealed artifact exercising every field, shared by the JSON
    /// and MAF2 unit tests.
    pub(crate) fn tiny_sealed() -> MaterializedState {
        let mut a = MaterializedState {
            version: ARTIFACT_VERSION,
            model: "Qwen1.5-4B".into(),
            gpu: "A100-40GB-SXM4".into(),
            rank: 0,
            tp: 1,
            kv_free_bytes: 123,
            replay_prefix_allocs: 4,
            replay_ops: vec![
                ReplayOp::Malloc { size: 256 },
                ReplayOp::Free { alloc_seq: 4 },
            ],
            labels: [("kv.key".to_string(), 4u64)].into_iter().collect(),
            permanent_contents: vec![(5, [7; 16])],
            permanent_ptr_tables: vec![(
                6,
                vec![PtrTableEntry {
                    alloc_seq: 4,
                    offset: 0,
                }],
            )],
            graphs: vec![GraphSpec {
                batch: 1,
                nodes: vec![NodeSpec {
                    kernel: "k".into(),
                    library: "l".into(),
                    exported: true,
                    params: vec![
                        ParamSpec::Const {
                            bytes: vec![1, 0, 0, 0],
                        },
                        ParamSpec::IndirectPtr {
                            alloc_seq: 4,
                            offset: 16,
                            raw: 99,
                        },
                    ],
                    work: Work::NONE,
                    stream: 0,
                }],
                edges: vec![],
            }],
            stats: AnalysisStats::default(),
            checksum: 0,
        };
        a.seal();
        a
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::tiny_sealed as tiny;
    use super::*;

    #[test]
    fn json_roundtrip() {
        let a = tiny();
        let s = a.to_json().unwrap();
        let b = MaterializedState::from_json(&s).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.total_nodes(), 1);
    }

    #[test]
    fn version_is_checked() {
        let mut a = tiny();
        a.version = 999;
        let s = serde_json::to_string(&a).unwrap();
        assert!(matches!(
            MaterializedState::from_json(&s),
            Err(MedusaError::ArtifactCorrupt { .. })
        ));
    }

    #[test]
    fn corrupt_json_is_reported() {
        assert!(matches!(
            MaterializedState::from_json("{not json"),
            Err(MedusaError::ArtifactCorrupt { .. })
        ));
    }

    #[test]
    fn target_check() {
        let a = tiny();
        assert!(a.check_target("Qwen1.5-4B", "A100-40GB-SXM4", 0, 1).is_ok());
        assert!(matches!(
            a.check_target("Llama2-7B", "A100-40GB-SXM4", 0, 1),
            Err(MedusaError::ArtifactMismatch { .. })
        ));
        assert!(matches!(
            a.check_target("Qwen1.5-4B", "H100", 0, 1),
            Err(MedusaError::ArtifactMismatch { .. })
        ));
        assert!(matches!(
            a.check_target("Qwen1.5-4B", "A100-40GB-SXM4", 1, 2),
            Err(MedusaError::ArtifactMismatch { .. })
        ));
    }

    #[test]
    fn checksum_seals_and_detects_tampering() {
        let a = tiny();
        assert!(a.verify_checksum().is_ok());
        assert_eq!(a.checksum, a.content_checksum(), "seal stamps the fold");
        let mut b = tiny();
        assert_eq!(a.checksum, b.checksum, "same content, same checksum");
        b.kv_free_bytes ^= 1;
        assert!(matches!(
            b.verify_checksum(),
            Err(MedusaError::ChecksumMismatch { .. })
        ));
        // Label-map iteration order must not affect the fold.
        let mut c = tiny();
        c.labels.insert("zz.extra".into(), 9);
        c.labels.insert("aa.extra".into(), 8);
        let mut d = tiny();
        d.labels.insert("aa.extra".into(), 8);
        d.labels.insert("zz.extra".into(), 9);
        assert_eq!(c.content_checksum(), d.content_checksum());
    }

    #[test]
    fn label_lookup() {
        let a = tiny();
        assert_eq!(a.label("kv.key").unwrap(), 4);
        assert!(matches!(
            a.label("nope"),
            Err(MedusaError::MissingLabel { .. })
        ));
    }
}
