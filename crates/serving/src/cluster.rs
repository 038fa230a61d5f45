//! Multi-node serverless cluster simulator with cold-start-aware
//! scheduling — the one serving simulator of this crate, from the paper's
//! 4-GPU trace testbed ([`ClusterSpec::paper_testbed`]) up to
//! thousand-node fleets.
//!
//! The paper evaluates Medusa per GPU, but its payoff is fleet-level:
//! materialization makes cold starts cheap enough that a serverless
//! scheduler can scale instances up and down aggressively. This module
//! models that layer: `N` simulated GPU workers serve one shared request
//! stream; each worker's cold start replays the measured cost of the
//! *real* per-instance pipeline (see [`FleetProfile::measure`], which runs
//! the [`medusa::ColdStart`] builder under the configured
//! [`Parallelism`] knob), and on top sits a pluggable
//! [`Scheduler`] plus an autoscaler with keep-alive and scale-to-zero.
//!
//! The fleet also models the paper's §7 degradation story at registry
//! scale: fetches run under a [`FetchPolicy`] (timeout, bounded
//! exponential backoff, retry budget), an exhausted budget degrades that
//! cold start to the vanilla path instead of failing it, and nodes can
//! crash mid-cold-start ([`ClusterFaults`]) with their queued requests
//! re-routed by the scheduler. All fault decisions are seed-derived from
//! the simulated state, so faulty runs are as deterministic as clean ones.
//!
//! *What* a fetch moves is decided by the [`Registry`] backend behind
//! [`RegistryMode`]: the default [`WholeArtifact`] transfers the entire
//! `<GPU type, model type>` entry (the legacy behavior — committed golden
//! reports are byte-identical), while [`ContentAddressed`] resolves the
//! per-model chunk manifest of a [`RegistryCatalog`] against the node's
//! chunk-level residency and transfers only the missing chunks — family
//! models sharing template chunks fetch only their deltas, and the
//! [`RegistryReport`] counters expose the byte savings.
//!
//! Artifact locality follows the paper's §6 sharing model: materialized
//! state is keyed by `<GPU type, model type>` and lives in a registry; a
//! node whose **local cache** already holds the entry cold-starts at the
//! Medusa loading cost, while a cache miss additionally pays the registry
//! fetch before restoring (the fetch then populates the cache, so
//! scale-to-zero followed by re-warm is cheap). Vanilla fleets never pay a
//! fetch — they have nothing materialized to fetch — but reload from
//! scratch every time.
//!
//! The whole layer runs on the discrete-event core in [`crate::event`]:
//! one [`EventQueue`] keyed by `(sim_time, seq)` drives every state
//! transition through a typed [`FleetEvent`], same-timestamp events fire
//! in insertion order, and retractable futures (keep-alive expiries,
//! crashed starts' stage completions) are cancelled instead of firing
//! stale. Trace arrivals stream past the queue from an [`ArrivalCursor`]
//! and win same-nanosecond ties, so the queue holds only pending work.
//! The deterministic event order makes same-trace runs produce
//! **byte-identical** reports and telemetry exports — which is what lets
//! CI gate this layer. Routing never scans the fleet: every decision
//! queries an incrementally maintained index of the nodes (see
//! [`FleetQuery`]), so the per-event cost stays near-flat as the fleet
//! grows and thousand-node, multi-million-event fleets simulate in
//! wall-clock seconds.

mod index;

pub use index::FleetQuery;

use crate::event::{ArrivalCursor, EventQueue, EventToken, FleetEvent};
use crate::params::PerfModel;
use crate::predict::{PrewarmConfig, PrewarmEstimator};
use index::{FleetIndex, RouteCtx};
use medusa::{
    materialize_offline, ColdStart, ColdStartOptions, MedusaResult, Parallelism, Strategy,
};
use medusa_gpu::{CostModel, GpuSpec, SimDuration};
use medusa_model::ModelSpec;
use medusa_telemetry::Registry as TelemetryRegistry;
use medusa_workload::{fingerprint, Request};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::VecDeque;

/// Modeled fabric bandwidth for registry fetches, bytes/second (100 Gb/s,
/// a stock ML-cluster NIC — the materialized `<GPU type, model type>`
/// entry streams weights plus graph state to the node's local cache on a
/// miss, so a miss costs a fetch on top of the restore but still undercuts
/// a vanilla from-scratch load).
const FETCH_BANDWIDTH_BPS: f64 = 1.25e10;

// ---------------------------------------------------------------------
// Cluster shape.

/// One simulated GPU worker of the fleet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// GPU type — one half of the paper's §6 artifact cache key.
    pub gpu: String,
    /// Tensor-parallel degree of the instance this worker hosts. Serving
    /// iterations and cold starts consume `tp`× their wall-clock in
    /// aggregate rank *work* (every rank executes every iteration).
    pub tp: u32,
    /// Whether the node-local artifact cache holds the
    /// `<GPU type, model type>` materialized state at `t = 0`.
    pub cached: bool,
}

/// Autoscaler knobs: when to start nodes beyond explicit routing, and when
/// to scale idle ones back to zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalerConfig {
    /// A warm node idle for this long is scaled to zero (its instance is
    /// torn down; the local artifact cache survives, so re-warming costs
    /// only the loading phase).
    pub keep_alive_s: f64,
    /// Whether keep-alive expiry actually tears instances down. `false`
    /// pins warm nodes forever (a reserved-capacity fleet).
    pub scale_to_zero: bool,
    /// Unplaced backlog per live node above which the autoscaler starts
    /// the cheapest cold node.
    pub target_queue_depth: usize,
    /// Optional periodic autoscaler cadence, seconds: when set, a
    /// recurring [`FleetEvent::ScaleDecision`] re-evaluates the backlog on
    /// this interval, decoupling scale-up from arrival events. `None`
    /// (the default) keeps the purely reactive behavior — the event
    /// schedule, and therefore the report, is byte-identical to the
    /// pre-event-core simulator.
    pub eval_interval_s: Option<f64>,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig {
            keep_alive_s: 60.0,
            scale_to_zero: true,
            target_queue_depth: 4,
            eval_interval_s: None,
        }
    }
}

/// Resilience knobs for registry fetches (§6): a fetch attempt that the
/// registry fails costs a timeout, retries back off exponentially (bounded),
/// and an exhausted retry budget **degrades** that cold start to the
/// vanilla path (§7) instead of failing it — the node still comes up, just
/// without the materialized artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FetchPolicy {
    /// Wall-clock charged per failed fetch attempt, seconds.
    pub timeout_s: f64,
    /// Retries after the initial attempt before degrading.
    pub retry_budget: u32,
    /// First retry's backoff, seconds; doubles per retry.
    pub backoff_base_s: f64,
    /// Backoff ceiling, seconds.
    pub backoff_max_s: f64,
}

impl Default for FetchPolicy {
    fn default() -> Self {
        FetchPolicy {
            timeout_s: 2.0,
            retry_budget: 3,
            backoff_base_s: 0.25,
            backoff_max_s: 4.0,
        }
    }
}

// ---------------------------------------------------------------------
// Registry backends: what a cache-miss fetch actually moves.

/// One transfer unit of a registry fetch: a content-addressed chunk for
/// [`ContentAddressed`], the entire artifact for [`WholeArtifact`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchUnit {
    /// Content digest (FNV-1a over the chunk bytes for real manifests).
    pub digest: u64,
    /// Unit size, bytes.
    pub bytes: u64,
}

/// The resolved fetch plan of one cold start: which units must move given
/// the node's chunk-level residency, and the byte accounting behind them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FetchPlan {
    /// Units that must transfer (missing from the node).
    pub missing: Vec<FetchUnit>,
    /// Bytes the missing units total.
    pub bytes_needed: u64,
    /// Bytes already resident on the node (resolved without a transfer).
    pub bytes_resolved: u64,
    /// Resident unit count — the chunk hits of this resolution.
    pub chunk_hits: u64,
}

/// A registry backend: resolves what a cold start of `model` must fetch
/// and prices the transfer. The fleet consults the backend selected by
/// [`ClusterSpec::registry_mode`] on every cache-miss cold start; retry
/// and degradation behavior stays with [`FetchPolicy`] regardless of the
/// backend.
pub trait Registry {
    /// Backend name (reports and telemetry).
    fn name(&self) -> &'static str;

    /// Resolves the fetch plan of `model` against the chunk digests
    /// already resident on the fetching node.
    fn resolve(
        &self,
        model: u32,
        resident: &std::collections::BTreeSet<u64>,
        profile: &FleetProfile,
    ) -> FetchPlan;

    /// Simulated transfer duration of `plan`'s missing units. Backends
    /// scale the profile's measured per-model fetch cost by the fraction
    /// of bytes that actually move.
    fn fetch(&self, model: u32, plan: &FetchPlan, profile: &FleetProfile) -> SimDuration;
}

/// Legacy whole-artifact registry: every cache miss transfers the entire
/// `<GPU type, model type>` entry at exactly the profile's measured fetch
/// cost. This is the default backend; fleets running it produce reports
/// byte-identical to the pre-registry-trait simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WholeArtifact;

impl Registry for WholeArtifact {
    fn name(&self) -> &'static str {
        "whole"
    }

    fn resolve(
        &self,
        model: u32,
        _resident: &std::collections::BTreeSet<u64>,
        profile: &FleetProfile,
    ) -> FetchPlan {
        let bytes = profile.artifact_bytes_for(model);
        FetchPlan {
            missing: vec![FetchUnit {
                digest: mix(0x4a01_e0a7 ^ u64::from(model)),
                bytes,
            }],
            bytes_needed: bytes,
            bytes_resolved: 0,
            chunk_hits: 0,
        }
    }

    fn fetch(&self, model: u32, _plan: &FetchPlan, profile: &FleetProfile) -> SimDuration {
        profile.fetch_for(model)
    }
}

/// Per-model chunk list of a [`RegistryCatalog`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModelManifest {
    /// Ordered transfer units (chunk digest + length) of this model's
    /// artifact.
    pub units: Vec<FetchUnit>,
}

impl ModelManifest {
    /// Total artifact bytes across the manifest's units.
    pub fn total_bytes(&self) -> u64 {
        self.units.iter().map(|u| u.bytes).sum()
    }
}

/// Chunk manifests of every model the fleet serves, indexed by model id —
/// the content-addressed registry's view of the artifact store. Models
/// beyond the catalog (or with an empty manifest) fall back to a single
/// synthetic whole-artifact unit so partially-cataloged fleets still run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegistryCatalog {
    /// Per-model manifests, model id order.
    pub models: Vec<ModelManifest>,
}

impl RegistryCatalog {
    /// Builds a catalog from a packed [`medusa::ChunkStore`]: manifest `m`
    /// becomes model `m`'s chunk list.
    pub fn from_store(store: &medusa::ChunkStore) -> Self {
        RegistryCatalog {
            models: store
                .manifests()
                .iter()
                .map(|m| ModelManifest {
                    units: m
                        .chunks
                        .iter()
                        .map(|c| FetchUnit {
                            digest: c.digest,
                            bytes: u64::from(c.len),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// A catalog where each model is one monolithic unit of the given
    /// size — chunk-granularity accounting with whole-artifact transfer
    /// behavior (the control row of registry benchmarks).
    pub fn monolithic(bytes_per_model: &[u64]) -> Self {
        RegistryCatalog {
            models: bytes_per_model
                .iter()
                .enumerate()
                .map(|(m, &bytes)| ModelManifest {
                    units: vec![FetchUnit {
                        digest: mix(0x6d01_0f1c ^ m as u64),
                        bytes,
                    }],
                })
                .collect(),
        }
    }

    /// The transfer units of `model`: its cataloged manifest, or the
    /// synthetic whole-artifact fallback for out-of-catalog models.
    pub fn units_for(&self, model: u32, profile: &FleetProfile) -> Vec<FetchUnit> {
        match self.models.get(model as usize) {
            Some(m) if !m.units.is_empty() => m.units.clone(),
            _ => vec![FetchUnit {
                digest: mix(0xca7a_1070 ^ u64::from(model)),
                bytes: profile.artifact_bytes_for(model),
            }],
        }
    }
}

/// Content-addressed registry: resolves each fetch against the node's
/// resident chunk set and transfers only the missing chunks, priced as the
/// missing fraction of the model's measured whole-artifact fetch cost.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ContentAddressed {
    /// Per-model chunk manifests.
    pub catalog: RegistryCatalog,
}

impl Registry for ContentAddressed {
    fn name(&self) -> &'static str {
        "cas"
    }

    fn resolve(
        &self,
        model: u32,
        resident: &std::collections::BTreeSet<u64>,
        profile: &FleetProfile,
    ) -> FetchPlan {
        let mut plan = FetchPlan::default();
        for u in self.catalog.units_for(model, profile) {
            if resident.contains(&u.digest) {
                plan.bytes_resolved += u.bytes;
                plan.chunk_hits += 1;
            } else {
                plan.bytes_needed += u.bytes;
                plan.missing.push(u);
            }
        }
        plan
    }

    fn fetch(&self, model: u32, plan: &FetchPlan, profile: &FleetProfile) -> SimDuration {
        let total = plan.bytes_needed + plan.bytes_resolved;
        if plan.bytes_needed == 0 || total == 0 {
            return SimDuration::ZERO;
        }
        let base = profile.fetch_for(model).as_nanos() as u128;
        SimDuration::from_nanos((base * plan.bytes_needed as u128 / total as u128) as u64)
    }
}

/// Which [`Registry`] backend the fleet fetches through.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum RegistryMode {
    /// [`WholeArtifact`] — the legacy, golden-pinned default.
    #[default]
    Whole,
    /// [`ContentAddressed`] over the given catalog: chunk-level residency,
    /// delta-only transfers, and [`RegistryReport`] counters.
    ContentAddressed(RegistryCatalog),
}

impl RegistryMode {
    /// Instantiates the backend.
    pub fn build(&self) -> Box<dyn Registry> {
        match self {
            RegistryMode::Whole => Box::new(WholeArtifact),
            RegistryMode::ContentAddressed(catalog) => Box::new(ContentAddressed {
                catalog: catalog.clone(),
            }),
        }
    }
}

/// Chunk-level registry counters of one content-addressed fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RegistryReport {
    /// Bytes actually transferred from the registry.
    pub bytes_fetched: u64,
    /// Bytes resolved from chunks already resident (never transferred).
    pub bytes_resolved: u64,
    /// Chunk-level residency hits across all fetch resolutions.
    pub chunk_hits: u64,
    /// Chunks that had to transfer.
    pub chunk_misses: u64,
}

impl RegistryReport {
    /// Dedup ratio of the run's fetch traffic: logical bytes resolved per
    /// byte actually transferred (1.0 when nothing deduplicated).
    pub fn dedup_ratio(&self) -> f64 {
        if self.bytes_fetched == 0 {
            1.0
        } else {
            (self.bytes_fetched + self.bytes_resolved) as f64 / self.bytes_fetched as f64
        }
    }
}

/// Deterministic fleet-level fault injection. All-zero (the default)
/// injects nothing and leaves the simulation byte-identical to a fault-free
/// build; every decision is derived from `seed` plus simulated state, never
/// from host randomness.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClusterFaults {
    /// Seed all fault decisions derive from.
    pub seed: u64,
    /// Per-mille probability that one registry fetch attempt fails.
    pub registry_fail_per_mille: u32,
    /// Per-mille probability that a cold start crashes its node midway.
    pub node_crash_per_mille: u32,
}

/// Eviction policy of the bounded node-local artifact cache (§6). All
/// tie-breaks are deterministic (by model id), so cache churn is as
/// reproducible as everything else in the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvictionPolicy {
    /// Evict the least-recently-used artifact.
    Lru,
    /// Evict the least-frequently-used artifact (ties by recency).
    Lfu,
    /// Evict the artifact that is cheapest to re-materialize — the one
    /// with the smallest fetch + restore cost — keeping expensive (large)
    /// artifacts resident even when they are touched rarely.
    CostAware,
}

impl EvictionPolicy {
    /// All built-in eviction policies.
    pub const ALL: [EvictionPolicy; 3] = [
        EvictionPolicy::Lru,
        EvictionPolicy::Lfu,
        EvictionPolicy::CostAware,
    ];

    /// Stable CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            EvictionPolicy::Lru => "lru",
            EvictionPolicy::Lfu => "lfu",
            EvictionPolicy::CostAware => "cost-aware",
        }
    }

    /// Parses a CLI eviction-policy name.
    pub fn parse(s: &str) -> Option<EvictionPolicy> {
        match s {
            "lru" => Some(EvictionPolicy::Lru),
            "lfu" => Some(EvictionPolicy::Lfu),
            "cost-aware" => Some(EvictionPolicy::CostAware),
            _ => None,
        }
    }
}

/// Capacity bound of the node-local artifact cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheCapacity {
    /// No bound — the pre-multi-tenant behavior (nothing is ever evicted).
    Unlimited,
    /// At most this many materialized artifacts per node.
    Artifacts(u32),
    /// At most this many artifact bytes per node.
    Bytes(u64),
}

/// Node-local artifact cache configuration: capacity bound plus eviction
/// policy. The default (unlimited, LRU) never evicts, which reproduces the
/// single-model fleet byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Capacity bound.
    pub capacity: CacheCapacity,
    /// Eviction policy applied when an insert exceeds the bound.
    pub eviction: EvictionPolicy,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: CacheCapacity::Unlimited,
            eviction: EvictionPolicy::Lru,
        }
    }
}

/// Shape of the simulated fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// The fleet's workers.
    pub nodes: Vec<NodeSpec>,
    /// Maximum concurrently admitted sequences per node.
    pub max_running: u32,
    /// Horizon after the last arrival at which the simulation stops
    /// (drains stragglers), in seconds.
    pub drain_s: f64,
    /// Autoscaler configuration.
    pub autoscaler: AutoscalerConfig,
    /// Registry-fetch resilience policy (timeout/retry/backoff).
    pub fetch_policy: FetchPolicy,
    /// Registry backend: what a cache-miss fetch actually moves. The
    /// default [`RegistryMode::Whole`] reproduces the legacy whole-artifact
    /// transfers byte-identically.
    pub registry_mode: RegistryMode,
    /// Fault injection (defaults to none).
    pub faults: ClusterFaults,
    /// Node-local artifact cache bound + eviction policy.
    pub cache: CacheConfig,
    /// Per-tenant TTFT SLO threshold, seconds: a request whose TTFT lands
    /// at or under this counts toward its tenant's SLO attainment.
    pub slo_ttft_s: f64,
    /// Optional predictive prewarming: when set, every arrival feeds a
    /// [`PrewarmEstimator`] whose decisions schedule prewarm-tagged
    /// [`FleetEvent::ScaleDecision`] events ahead of forecast bursts.
    /// `None` (the default) keeps the purely reactive fleet and a
    /// byte-identical event schedule.
    pub prewarm: Option<PrewarmConfig>,
    /// Optional pipeline-parallel cold starts: shard one model's restore
    /// across up to `k` nodes, each restoring a contiguous MAF2 shard
    /// range, serving the first token when the first stage is live.
    /// `None` (the default) keeps single-node cold starts; it also
    /// defaults to 2 when the [`Policy::Pipeline`] scheduler is selected.
    pub pipeline_k: Option<u32>,
}

impl ClusterSpec {
    /// A fleet of `n` identical single-GPU A100 workers with cold local
    /// artifact caches.
    pub fn uniform(n: usize) -> Self {
        ClusterSpec {
            nodes: (0..n)
                .map(|_| NodeSpec {
                    gpu: "A100-40GB".to_string(),
                    tp: 1,
                    cached: false,
                })
                .collect(),
            max_running: 32,
            drain_s: 600.0,
            autoscaler: AutoscalerConfig::default(),
            fetch_policy: FetchPolicy::default(),
            registry_mode: RegistryMode::Whole,
            faults: ClusterFaults::default(),
            cache: CacheConfig::default(),
            slo_ttft_s: 2.5,
            prewarm: None,
            pipeline_k: None,
        }
    }

    /// The paper's §7.5 trace testbed (Fig. 10/11): 4 single-GPU A100
    /// workers with their artifact caches seeded, 32 running sequences per
    /// instance, a 600 s drain, a 60 s keep-alive, and an autoscaler that
    /// starts a node as soon as the backlog exceeds one request per live
    /// node. Run it with [`FleetProfile::from_perf`] (zero fetch, launch
    /// cost equal to `perf.loading`: the warm-container pool, where a
    /// cold start is exactly the loading phase) and
    /// [`Policy::ColdStartAware`].
    pub fn paper_testbed() -> Self {
        let mut spec = ClusterSpec::uniform(4).with_cached_prefix(4);
        spec.autoscaler.target_queue_depth = 1;
        spec
    }

    /// Marks the first `k` nodes' local caches as pre-populated (builder
    /// style).
    pub fn with_cached_prefix(mut self, k: usize) -> Self {
        for node in self.nodes.iter_mut().take(k) {
            node.cached = true;
        }
        self
    }

    /// Sets every node's tensor-parallel degree (builder style).
    pub fn with_tp(mut self, tp: u32) -> Self {
        for node in &mut self.nodes {
            node.tp = tp;
        }
        self
    }

    /// Sets the autoscaler configuration (builder style).
    pub fn with_autoscaler(mut self, autoscaler: AutoscalerConfig) -> Self {
        self.autoscaler = autoscaler;
        self
    }

    /// Sets the registry-fetch resilience policy (builder style).
    pub fn with_fetch_policy(mut self, fetch_policy: FetchPolicy) -> Self {
        self.fetch_policy = fetch_policy;
        self
    }

    /// Selects the registry backend (builder style).
    pub fn with_registry_mode(mut self, mode: RegistryMode) -> Self {
        self.registry_mode = mode;
        self
    }

    /// Arms fleet-level fault injection (builder style).
    pub fn with_faults(mut self, faults: ClusterFaults) -> Self {
        self.faults = faults;
        self
    }

    /// Bounds the node-local artifact caches (builder style).
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the per-tenant TTFT SLO threshold (builder style).
    pub fn with_slo_ttft(mut self, slo_ttft_s: f64) -> Self {
        self.slo_ttft_s = slo_ttft_s;
        self
    }

    /// Sets the idle keep-alive window (builder style).
    pub fn with_keep_alive(mut self, keep_alive_s: f64) -> Self {
        self.autoscaler.keep_alive_s = keep_alive_s;
        self
    }

    /// Arms predictive prewarming (builder style).
    pub fn with_prewarm(mut self, prewarm: PrewarmConfig) -> Self {
        self.prewarm = Some(prewarm);
        self
    }

    /// Shards cold starts pipeline-parallel across up to `k` nodes
    /// (builder style). `k < 2` keeps single-node starts.
    pub fn with_pipeline(mut self, k: u32) -> Self {
        self.pipeline_k = Some(k);
        self
    }
}

// ---------------------------------------------------------------------
// Fleet cost profile.

/// The measured cost model every node of a fleet replays: serving tables
/// plus the cold-start costs of the per-instance pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetProfile {
    /// Strategy each node's cold start runs.
    pub strategy: Strategy,
    /// Serving tables; `perf.loading` is the **cache-hit** cold-start
    /// makespan (for Medusa: restoring a locally cached artifact).
    pub perf: PerfModel,
    /// Aggregate loading-phase work across ranks of one cold start (equal
    /// to `perf.loading` at `tp = 1`; the sum of per-rank stage durations
    /// at `tp > 1`).
    pub coldstart_work: SimDuration,
    /// Registry-fetch penalty a Medusa cold start pays when the node-local
    /// cache misses. Zero for non-materialized strategies.
    pub fetch: SimDuration,
    /// Loading makespan of the **degraded** (vanilla-path) cold start a
    /// node falls back to when its registry fetch budget is exhausted
    /// (§7). Equal to `perf.loading` for non-materialized strategies.
    pub degraded_loading: SimDuration,
    /// Per-model cold-start cost overrides, indexed by model id. Empty
    /// (the default) makes every model cost the base `perf.loading` /
    /// `fetch` — the single-model fleet. Multi-tenant fleets populate
    /// this so artifacts differ in fetch and restore cost, which is what
    /// gives eviction policy a signal to weigh.
    pub model_costs: Vec<ModelCost>,
    /// Measured registry-entry size in bytes: the MAF2-encoded artifact
    /// bundle plus the weight payload it restores. Zero for profiles built
    /// without measurement ([`FleetProfile::from_perf`]), in which case
    /// byte-bounded caches fall back to a fetch-derived estimate — see
    /// [`FleetProfile::artifact_bytes_for`].
    pub artifact_bytes: u64,
}

/// Cold-start costs of one model's materialized artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelCost {
    /// Registry-fetch penalty on a node-local cache miss.
    pub fetch: SimDuration,
    /// Cache-hit cold-start (restore) makespan.
    pub loading: SimDuration,
    /// Artifact size, for byte-bounded caches.
    pub artifact_bytes: u64,
}

impl FleetProfile {
    /// Builds a profile from an explicit [`PerfModel`] (tests/analysis).
    /// `coldstart_work` and `degraded_loading` default to the loading
    /// makespan (a `tp = 1` instance); `fetch` defaults to zero.
    pub fn from_perf(strategy: Strategy, perf: PerfModel) -> Self {
        FleetProfile {
            strategy,
            coldstart_work: perf.loading,
            degraded_loading: perf.loading,
            perf,
            fetch: SimDuration::ZERO,
            model_costs: Vec::new(),
            artifact_bytes: 0,
        }
    }

    /// Sets the measured registry-entry byte size (builder style); byte-
    /// bounded caches and fetch accounting use it instead of the
    /// fetch-derived estimate.
    pub fn with_artifact_bytes(mut self, bytes: u64) -> Self {
        self.artifact_bytes = bytes;
        self
    }

    /// Sets the cache-miss fetch penalty (builder style).
    pub fn with_fetch(mut self, fetch: SimDuration) -> Self {
        self.fetch = fetch;
        self
    }

    /// Sets the aggregate per-rank cold-start work (builder style).
    pub fn with_coldstart_work(mut self, work: SimDuration) -> Self {
        self.coldstart_work = work;
        self
    }

    /// Sets the degraded (vanilla-path) loading makespan (builder style).
    pub fn with_degraded_loading(mut self, loading: SimDuration) -> Self {
        self.degraded_loading = loading;
        self
    }

    /// Sets explicit per-model cold-start costs (builder style).
    pub fn with_model_costs(mut self, model_costs: Vec<ModelCost>) -> Self {
        self.model_costs = model_costs;
        self
    }

    /// Derives a heterogeneous `models`-way cost table from the base
    /// profile (builder style): model `m` scales the base fetch, loading,
    /// and artifact size by `(4 + m) / 4`, so model 0 costs exactly the
    /// base profile and each higher id is 25% larger — rare tail models
    /// are the expensive ones, the shape that makes cost-aware eviction
    /// diverge from pure recency.
    pub fn with_scaled_models(mut self, models: u32) -> Self {
        // Real measured bytes when available, fetch-derived estimate
        // otherwise (identical to the historical derivation for synthetic
        // profiles, so committed goldens are unaffected).
        let base_bytes = if self.artifact_bytes > 0 {
            self.artifact_bytes
        } else {
            self.fetch.as_nanos().saturating_mul(5) / 4
        };
        let base_fetch = self.fetch.as_nanos();
        let base_loading = self.perf.loading.as_nanos();
        self.model_costs = (0..models)
            .map(|m| {
                let num = 4 + m as u64;
                ModelCost {
                    fetch: SimDuration::from_nanos(base_fetch * num / 4),
                    loading: SimDuration::from_nanos(base_loading * num / 4),
                    artifact_bytes: base_bytes * num / 4,
                }
            })
            .collect();
        self
    }

    /// Cache-miss fetch penalty of `model` (base `fetch` when no per-model
    /// cost is configured).
    pub fn fetch_for(&self, model: u32) -> SimDuration {
        self.model_costs
            .get(model as usize)
            .map_or(self.fetch, |c| c.fetch)
    }

    /// Cache-hit loading makespan of `model`.
    pub fn loading_for(&self, model: u32) -> SimDuration {
        self.model_costs
            .get(model as usize)
            .map_or(self.perf.loading, |c| c.loading)
    }

    /// Artifact size of `model`, bytes: the per-model override when one is
    /// configured, else the measured registry-entry size
    /// ([`FleetProfile::artifact_bytes`]), else — for synthetic profiles
    /// that never measured a real artifact — an estimate derived from the
    /// fetch penalty at the modeled fabric bandwidth.
    pub fn artifact_bytes_for(&self, model: u32) -> u64 {
        let base = if self.artifact_bytes > 0 {
            self.artifact_bytes
        } else {
            self.fetch.as_nanos().saturating_mul(5) / 4
        };
        self.model_costs
            .get(model as usize)
            .map_or(base, |c| c.artifact_bytes)
    }

    /// Aggregate per-rank cold-start work of `model`: the base work scaled
    /// by the model's loading ratio.
    fn coldstart_work_for(&self, model: u32) -> SimDuration {
        match self.model_costs.get(model as usize) {
            None => self.coldstart_work,
            Some(c) => {
                // u128 intermediate: work × loading both in nanoseconds
                // overflows u64 for 100×-scale artifact profiles.
                let base = self.perf.loading.as_nanos().max(1) as u128;
                let scaled =
                    self.coldstart_work.as_nanos() as u128 * c.loading.as_nanos() as u128 / base;
                SimDuration::from_nanos(scaled.min(u64::MAX as u128) as u64)
            }
        }
    }

    /// Measures a fleet profile by running the **real** per-instance
    /// pipelines: serving tables via [`PerfModel::measure`] and the
    /// cold-start makespan/work via a `tp`-way [`medusa::ColdStart`] run
    /// under the requested [`Parallelism`] knob — the fleet simulator then
    /// replays those numbers at queueing scale. For Medusa the degraded
    /// (vanilla-path) loading makespan is measured alongside, so the
    /// simulator can price registry-budget-exhausted cold starts.
    ///
    /// The cache-miss fetch penalty models streaming the materialized
    /// `<GPU type, model type>` entry (dominated by the weights) over a
    /// 100 Gb/s fabric; non-Medusa strategies fetch nothing.
    ///
    /// # Errors
    ///
    /// Propagates materialization and cold-start errors.
    pub fn measure(
        strategy: Strategy,
        spec: &ModelSpec,
        gpu: GpuSpec,
        cost: CostModel,
        tp: u32,
        parallelism: Parallelism,
        seed: u64,
    ) -> MedusaResult<Self> {
        // Serving tables are per-GPU; measure them on a single-GPU
        // instance (with its own tp=1 artifact for Medusa).
        let serving_artifact = match strategy {
            Strategy::Medusa => Some(materialize_offline(spec, gpu.clone(), cost.clone(), seed)?.0),
            _ => None,
        };
        let mut perf = PerfModel::measure(
            strategy,
            spec,
            gpu.clone(),
            cost.clone(),
            serving_artifact.as_ref(),
            seed,
        )?;
        // Loading replays the real tp-way pipeline under the knob.
        let opts = ColdStartOptions {
            seed: seed ^ 0x5eed,
            warm_container: true,
            parallelism,
            ..Default::default()
        };
        let builder = || {
            ColdStart::new(spec)
                .gpu(gpu.clone())
                .cost(cost.clone())
                .options(opts)
                .tp(tp)
        };
        let tp_artifacts = match strategy {
            Strategy::Medusa => Some(
                ColdStart::new(spec)
                    .gpu(gpu.clone())
                    .cost(cost.clone())
                    .parallelism(parallelism)
                    .tp(tp)
                    .materialize(seed)?
                    .0,
            ),
            _ => None,
        };
        let cold = match &tp_artifacts {
            Some(arts) => builder().strategy(strategy).artifacts(arts).run()?,
            None => builder().strategy(strategy).run()?,
        };
        perf.loading = cold.loading();
        let (fetch, degraded_loading, artifact_bytes) = match strategy {
            Strategy::Medusa => {
                // The registry entry a cache-missing node streams is the
                // MAF2-encoded bundle plus the weight payload it restores;
                // encoding the real artifacts prices both the fetch and the
                // byte-bounded cache accounting off the actual format.
                let maf2_bytes = tp_artifacts
                    .as_ref()
                    .map(|arts| arts.to_maf2().map(|b| b.len() as u64))
                    .transpose()?
                    .unwrap_or(0);
                let entry_bytes = spec.param_bytes() + maf2_bytes;
                (
                    SimDuration::from_secs_f64(entry_bytes as f64 / FETCH_BANDWIDTH_BPS),
                    builder().strategy(Strategy::Vanilla).run()?.loading(),
                    entry_bytes,
                )
            }
            _ => (SimDuration::ZERO, perf.loading, 0),
        };
        Ok(FleetProfile {
            strategy,
            perf,
            coldstart_work: cold.aggregate_work(),
            fetch,
            degraded_loading,
            model_costs: Vec::new(),
            artifact_bytes,
        })
    }

    /// Cold-start makespan of `model` on a node whose local cache state
    /// for that model is `cached`.
    fn coldstart_makespan(&self, cached: bool, model: u32) -> SimDuration {
        let loading = self.loading_for(model);
        if cached || self.strategy != Strategy::Medusa {
            loading
        } else {
            loading + self.fetch_for(model)
        }
    }
}

// ---------------------------------------------------------------------
// Scheduler policies.

/// Lifecycle state of one node — the state machine is
/// `Cold → Starting → Warm → (keep-alive expiry) → Cold`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeState {
    /// Scaled to zero: no instance. Routing here triggers a cold start.
    Cold,
    /// Cold start in flight; queued requests wait for readiness.
    Starting,
    /// Instance live and serving.
    Warm,
}

/// A routing decision for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Route to node `i`, cold-starting it first when necessary.
    Node(usize),
    /// No placement — leave the request in the global queue.
    Queue,
}

/// A pluggable routing policy.
///
/// [`Scheduler::route`] places one request; [`Scheduler::pick_cold`] is
/// consulted by the autoscaler whenever backlog (or an empty fleet) calls
/// for waking a scaled-to-zero node — this is where a policy accounts the
/// Medusa vs vanilla cold-start cost difference. Both read the fleet
/// through a [`FleetQuery`] for one request: its candidate sets answer
/// in time independent of the fleet's size, and start costs are priced
/// only for the nodes a policy asks about.
pub trait Scheduler {
    /// Policy name (embedded in reports and telemetry).
    fn name(&self) -> &'static str;

    /// Routes one request.
    fn route(&mut self, fleet: &FleetQuery<'_>) -> Decision;

    /// Picks which cold node the autoscaler should start for a request of
    /// the query's model. The default is cold-start-cost-oblivious: the
    /// first cold node by index.
    fn pick_cold(&mut self, fleet: &FleetQuery<'_>) -> Option<usize> {
        fleet.first_cold()
    }
}

/// Rotates over nodes, skipping ones that cannot accept; wakes cold nodes
/// as the rotation reaches them.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl Scheduler for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn route(&mut self, fleet: &FleetQuery<'_>) -> Decision {
        let n = fleet.node_count();
        // The first accepting node at or after `next`, cyclically: every
        // cold node accepts, so only the next cold one can compete with
        // the accepting live nodes.
        let next = self.next;
        let pick = fleet
            .next_cold(next)
            .into_iter()
            .chain(fleet.accepting(NodeState::Warm))
            .chain(fleet.accepting(NodeState::Starting))
            .min_by_key(|&i| (i + n - next) % n);
        match pick {
            Some(i) => {
                self.next = (i + 1) % n;
                Decision::Node(i)
            }
            None => Decision::Queue,
        }
    }
}

/// Routes to the least-loaded node that can accept, **oblivious to
/// cold-start cost**: a cold node counts as load zero, so bursts fan out
/// across the fleet and wake every worker — the classic serverless
/// anti-pattern Medusa's cheap cold starts paper over.
#[derive(Debug, Default)]
pub struct LeastLoaded;

impl Scheduler for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn route(&mut self, fleet: &FleetQuery<'_>) -> Decision {
        fleet
            .least_loaded(NodeState::Warm)
            .into_iter()
            .chain(fleet.least_loaded(NodeState::Starting))
            .chain(fleet.first_cold())
            .min_by_key(|&i| (fleet.load(i), i))
            .map_or(Decision::Queue, Decision::Node)
    }
}

/// Cold-start-aware routing (§6-informed): warm instances first (packed by
/// load), then instances whose cold start is already in flight; it never
/// wakes a cold node just to spread load — scale-out is left to the
/// autoscaler's backlog threshold, and when the fleet *must* start a node
/// this policy picks the one whose local artifact cache already holds the
/// `<GPU type, model type>` entry, i.e. the cheapest Medusa cold start
/// (no registry fetch).
#[derive(Debug, Default)]
pub struct ColdStartAware;

impl Scheduler for ColdStartAware {
    fn name(&self) -> &'static str {
        "coldstart-aware"
    }

    fn route(&mut self, fleet: &FleetQuery<'_>) -> Decision {
        fleet
            .least_loaded(NodeState::Warm)
            .or_else(|| fleet.least_loaded(NodeState::Starting))
            .map_or(Decision::Queue, Decision::Node)
    }

    fn pick_cold(&mut self, fleet: &FleetQuery<'_>) -> Option<usize> {
        // Cheapest start first: a node whose cache holds this model's
        // artifact skips the registry fetch — a warm-cache node always
        // wins over an empty one.
        fleet.first_cold_cached().or_else(|| fleet.first_cold())
    }
}

/// ServerlessLLM-style locality routing: every candidate node — warm,
/// starting, or cold — is scored by its **estimated start cost**
/// ([`FleetQuery::start_cost`]: cache-hit restore vs registry-fetch
/// bytes at real MAF2 sizes, queue drain, warm state) and the request
/// goes to the cheapest, instead of to the shortest queue. An idle warm
/// node (cost ~0) always wins; once warm queues drain slower than a
/// cached cold start, the policy wakes the node whose artifact cache
/// makes that start cheapest.
///
/// With `pipeline` set (the [`Policy::Pipeline`] flavor) routing is
/// identical but the fleet shards each cold start across
/// [`ClusterSpec::pipeline_k`] nodes (default 2).
#[derive(Debug, Default)]
pub struct ServerlessLlmLocality {
    /// Whether this is the pipeline-parallel flavor (affects only the
    /// reported policy name; the sharding itself is a fleet-level knob).
    pub pipeline: bool,
}

impl Scheduler for ServerlessLlmLocality {
    fn name(&self) -> &'static str {
        if self.pipeline {
            "pipeline"
        } else {
            "locality"
        }
    }

    fn route(&mut self, fleet: &FleetQuery<'_>) -> Decision {
        // Starting nodes differ in their remaining start, so each is
        // priced; warm and cold nodes come pre-ranked.
        fleet
            .cheapest_warm()
            .into_iter()
            .chain(fleet.accepting(NodeState::Starting))
            .chain(fleet.cheapest_cold())
            .min_by_key(|&i| (fleet.start_cost(i), fleet.load(i), i))
            .map_or(Decision::Queue, Decision::Node)
    }

    fn pick_cold(&mut self, fleet: &FleetQuery<'_>) -> Option<usize> {
        fleet.cheapest_cold()
    }
}

/// The built-in policies, nameable from the CLI and benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Policy {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`LeastLoaded`].
    LeastLoaded,
    /// [`ColdStartAware`].
    ColdStartAware,
    /// [`ServerlessLlmLocality`] — start-cost locality routing.
    Locality,
    /// [`ServerlessLlmLocality`] plus pipeline-parallel cold starts
    /// (defaults [`ClusterSpec::pipeline_k`] to 2 when unset).
    Pipeline,
}

impl Policy {
    /// The legacy built-in policies. Deliberately **excludes**
    /// [`Policy::Locality`] and [`Policy::Pipeline`]: the golden
    /// differential matrix ([`crate::scenarios`]) iterates this constant,
    /// and the committed golden reports must stay byte-identical — the
    /// predictive policies race in [`Policy::PREDICTIVE`] and the
    /// policy-race bench gate instead.
    pub const ALL: [Policy; 3] = [
        Policy::RoundRobin,
        Policy::LeastLoaded,
        Policy::ColdStartAware,
    ];

    /// The predictive/parallel policies raced by the policy-race gate.
    pub const PREDICTIVE: [Policy; 2] = [Policy::Locality, Policy::Pipeline];

    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn Scheduler> {
        match self {
            Policy::RoundRobin => Box::new(RoundRobin::default()),
            Policy::LeastLoaded => Box::new(LeastLoaded),
            Policy::ColdStartAware => Box::new(ColdStartAware),
            Policy::Locality => Box::new(ServerlessLlmLocality { pipeline: false }),
            Policy::Pipeline => Box::new(ServerlessLlmLocality { pipeline: true }),
        }
    }

    /// Parses a CLI policy name.
    pub fn parse(s: &str) -> Option<Policy> {
        match s {
            "round-robin" => Some(Policy::RoundRobin),
            "least-loaded" => Some(Policy::LeastLoaded),
            "coldstart-aware" => Some(Policy::ColdStartAware),
            "locality" => Some(Policy::Locality),
            "pipeline" => Some(Policy::Pipeline),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Reports.

/// Per-node accounting of one fleet run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeReport {
    /// GPU type.
    pub gpu: String,
    /// Tensor-parallel degree.
    pub tp: u32,
    /// Cold starts this node paid.
    pub cold_starts: u32,
    /// Simulated time spent cold-starting, ns.
    pub cold_ns: u64,
    /// First tokens produced (requests prefilled here).
    pub served: u32,
    /// Busy (iterating) wall-clock, ns.
    pub busy_ns: u64,
    /// Aggregate per-rank work, ns: cold-start work plus `tp`× the busy
    /// wall-clock (every rank executes every serving iteration).
    pub work_ns: u64,
    /// Whether the local artifact cache holds the entry after the run.
    pub cached_at_end: bool,
}

/// Per-tenant (per-model) accounting of one multi-tenant fleet run.
///
/// Only present in reports of traces that actually carry nonzero model
/// ids — single-tenant reports serialize byte-identically to the
/// pre-multi-tenant format.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantReport {
    /// Model/tenant id.
    pub model: u32,
    /// Requests this tenant offered.
    pub offered: usize,
    /// Requests fully completed before the drain horizon.
    pub completed: usize,
    /// Cold starts paid for this tenant's model.
    pub cold_starts: u32,
    /// Median time-to-first-token, µs.
    pub ttft_p50_us: u64,
    /// 99th-percentile time-to-first-token, µs.
    pub ttft_p99_us: u64,
    /// Per-mille of this tenant's prefilled requests whose TTFT met the
    /// cluster's [`ClusterSpec::slo_ttft_s`] threshold.
    pub slo_attained_pm: u32,
}

/// Fleet-wide artifact-cache counters (bounded-cache or multi-tenant runs
/// only — hit/miss is accounted per Medusa cold start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheReport {
    /// Cold starts whose node-local cache already held the model.
    pub hits: u64,
    /// Cold starts that had to fetch from the registry.
    pub misses: u64,
    /// Artifacts evicted under the capacity bound.
    pub evictions: u64,
}

/// Predictive-prewarm counters (prewarm-enabled runs only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrewarmReport {
    /// Prewarm cold starts the estimator issued.
    pub issued: u64,
    /// Prewarmed nodes that never served a request before scaling back
    /// down (or before the run ended) — the waste metric the policy-race
    /// gate bounds.
    pub unused: u64,
}

/// Deterministic summary of one fleet simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterReport {
    /// Scheduler policy name.
    pub policy: String,
    /// Fleet-wide cold-start strategy.
    pub strategy: Strategy,
    /// Requests in the trace.
    pub offered: usize,
    /// Requests fully completed before the drain horizon.
    pub completed: usize,
    /// Total cold starts across the fleet.
    pub cold_starts: u32,
    /// Scale-to-zero (keep-alive expiry) events.
    pub scale_to_zero_events: u32,
    /// Registry-fetch retries across the fleet (failed attempts that were
    /// re-tried within the budget).
    pub fetch_retries: u32,
    /// Cold starts degraded to the vanilla path after exhausting the
    /// registry retry budget (§7 at fleet scale).
    pub degraded_cold_starts: u32,
    /// Nodes crashed mid-cold-start.
    pub node_failures: u32,
    /// Requests re-routed off a crashed node back through the scheduler.
    pub reroutes: u32,
    /// Time of the last completion, ns.
    pub makespan_ns: u64,
    /// Median time-to-first-token, µs.
    pub ttft_p50_us: u64,
    /// 99th-percentile time-to-first-token, µs.
    pub ttft_p99_us: u64,
    /// Mean time-to-first-token, µs.
    pub ttft_mean_us: u64,
    /// Order-sensitive fingerprint of the replayed trace
    /// ([`medusa_workload::fingerprint`]).
    pub trace_fingerprint: u64,
    /// Predictive-prewarm counters; `None` (omitted from the JSON)
    /// unless [`ClusterSpec::prewarm`] was set, keeping the committed
    /// goldens byte-identical.
    pub prewarm: Option<PrewarmReport>,
    /// Cold starts that actually sharded across ≥ 2 nodes; `None`
    /// (omitted) unless pipeline mode was active.
    pub pipeline_starts: Option<u64>,
    /// Per-tenant accounting, ascending model id. Empty for single-tenant
    /// traces (and then omitted from the serialized report, keeping the
    /// committed goldens byte-identical).
    pub tenants: Vec<TenantReport>,
    /// Artifact-cache counters; `None` (omitted) for unbounded
    /// single-tenant runs.
    pub cache: Option<CacheReport>,
    /// Chunk-level registry counters; `None` (omitted) unless the fleet
    /// ran under [`RegistryMode::ContentAddressed`], keeping the committed
    /// goldens byte-identical.
    pub registry: Option<RegistryReport>,
    /// Per-node accounting, node order.
    pub nodes: Vec<NodeReport>,
}

// Serialization is hand-written (the vendored serde stub has no
// `skip_serializing_if`): `tenants`/`cache` appear in the JSON only when
// populated, so pre-multi-tenant reports — including every committed
// golden — serialize byte-identically.
impl serde::Serialize for ClusterReport {
    fn to_value(&self) -> serde::Value {
        let mut m: Vec<(String, serde::Value)> = vec![
            ("policy".into(), self.policy.to_value()),
            ("strategy".into(), self.strategy.to_value()),
            ("offered".into(), self.offered.to_value()),
            ("completed".into(), self.completed.to_value()),
            ("cold_starts".into(), self.cold_starts.to_value()),
            (
                "scale_to_zero_events".into(),
                self.scale_to_zero_events.to_value(),
            ),
            ("fetch_retries".into(), self.fetch_retries.to_value()),
            (
                "degraded_cold_starts".into(),
                self.degraded_cold_starts.to_value(),
            ),
            ("node_failures".into(), self.node_failures.to_value()),
            ("reroutes".into(), self.reroutes.to_value()),
            ("makespan_ns".into(), self.makespan_ns.to_value()),
            ("ttft_p50_us".into(), self.ttft_p50_us.to_value()),
            ("ttft_p99_us".into(), self.ttft_p99_us.to_value()),
            ("ttft_mean_us".into(), self.ttft_mean_us.to_value()),
            (
                "trace_fingerprint".into(),
                self.trace_fingerprint.to_value(),
            ),
        ];
        if let Some(prewarm) = &self.prewarm {
            m.push(("prewarm".into(), prewarm.to_value()));
        }
        if let Some(pipeline_starts) = self.pipeline_starts {
            m.push(("pipeline_starts".into(), pipeline_starts.to_value()));
        }
        if !self.tenants.is_empty() {
            m.push(("tenants".into(), self.tenants.to_value()));
        }
        if let Some(cache) = &self.cache {
            m.push(("cache".into(), cache.to_value()));
        }
        if let Some(registry) = &self.registry {
            m.push(("registry".into(), registry.to_value()));
        }
        m.push(("nodes".into(), self.nodes.to_value()));
        serde::Value::Map(m)
    }
}

impl serde::Deserialize for ClusterReport {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let ctx = "ClusterReport";
        Ok(ClusterReport {
            policy: String::from_value(serde::field(v, "policy", ctx)?)?,
            strategy: Strategy::from_value(serde::field(v, "strategy", ctx)?)?,
            offered: usize::from_value(serde::field(v, "offered", ctx)?)?,
            completed: usize::from_value(serde::field(v, "completed", ctx)?)?,
            cold_starts: u32::from_value(serde::field(v, "cold_starts", ctx)?)?,
            scale_to_zero_events: u32::from_value(serde::field(v, "scale_to_zero_events", ctx)?)?,
            fetch_retries: u32::from_value(serde::field(v, "fetch_retries", ctx)?)?,
            degraded_cold_starts: u32::from_value(serde::field(v, "degraded_cold_starts", ctx)?)?,
            node_failures: u32::from_value(serde::field(v, "node_failures", ctx)?)?,
            reroutes: u32::from_value(serde::field(v, "reroutes", ctx)?)?,
            makespan_ns: u64::from_value(serde::field(v, "makespan_ns", ctx)?)?,
            ttft_p50_us: u64::from_value(serde::field(v, "ttft_p50_us", ctx)?)?,
            ttft_p99_us: u64::from_value(serde::field(v, "ttft_p99_us", ctx)?)?,
            ttft_mean_us: u64::from_value(serde::field(v, "ttft_mean_us", ctx)?)?,
            trace_fingerprint: u64::from_value(serde::field(v, "trace_fingerprint", ctx)?)?,
            prewarm: match v.get("prewarm") {
                Some(p) => Some(PrewarmReport::from_value(p)?),
                None => None,
            },
            pipeline_starts: match v.get("pipeline_starts") {
                Some(p) => Some(u64::from_value(p)?),
                None => None,
            },
            tenants: match v.get("tenants") {
                Some(t) => Vec::<TenantReport>::from_value(t)?,
                None => Vec::new(),
            },
            cache: match v.get("cache") {
                Some(c) => Some(CacheReport::from_value(c)?),
                None => None,
            },
            registry: match v.get("registry") {
                Some(r) => Some(RegistryReport::from_value(r)?),
                None => None,
            },
            nodes: Vec::<NodeReport>::from_value(serde::field(v, "nodes", ctx)?)?,
        })
    }
}

impl ClusterReport {
    /// Encodes the report as one stable JSON line.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("plain struct encodes")
    }

    /// Decodes a report from JSON.
    ///
    /// # Errors
    ///
    /// Returns the parse error message.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

/// Execution statistics of one fleet simulation — *not* part of the
/// serialized [`ClusterReport`] (so the byte-identity contract is
/// unaffected), but useful for throughput gates and conservation checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetStats {
    /// Events the simulation loop processed.
    pub events_processed: u64,
    /// Events retracted before firing (cancelled keep-alives, crashed
    /// starts' stage completions).
    pub events_cancelled: u64,
    /// Arrival events handled before the horizon (≤ `offered`).
    pub arrived: usize,
    /// Requests still in the global queue when the simulation stopped.
    pub queued_at_end: usize,
    /// Requests pending or running on nodes when the simulation stopped.
    pub in_flight_at_end: usize,
    /// Nodes still mid-cold-start when the simulation stopped.
    pub starting_nodes_at_end: usize,
    /// Whether the run stopped at the drain horizon with events still
    /// pending (as opposed to draining the queue dry).
    pub horizon_truncated: bool,
}

/// Full outcome of one fleet simulation: the serializable report plus the
/// raw per-request TTFT samples (completion order) for analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// The deterministic summary.
    pub report: ClusterReport,
    /// Per-request TTFT samples.
    pub ttfts: Vec<SimDuration>,
    /// Execution statistics (event counts etc.).
    pub stats: FleetStats,
}

impl FleetOutcome {
    /// Request-conservation residual: arrivals minus completions minus
    /// everything still queued or in flight at the end. Zero iff no
    /// request was lost or double-counted — the fuzz harness asserts this
    /// over adversarial workloads.
    pub fn conservation_residual(&self) -> i64 {
        self.stats.arrived as i64
            - self.report.completed as i64
            - self.stats.queued_at_end as i64
            - self.stats.in_flight_at_end as i64
    }
}

// ---------------------------------------------------------------------
// The simulator.

/// splitmix64 — the fleet's deterministic fault-decision hash.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-mille roll for one fault decision, keyed by the fleet fault seed
/// plus simulated state (node, start ordinal, attempt).
fn roll_per_mille(seed: u64, node: usize, start: u32, attempt: u32) -> u32 {
    let key = seed ^ ((node as u64) << 48) ^ ((start as u64) << 16) ^ (attempt as u64);
    (mix(key) % 1000) as u32
}

#[derive(Debug)]
struct RunningSeq {
    remaining: u32,
    kv_reserved: u64,
    model: u32,
}

/// One resident artifact of a node-local cache.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    model: u32,
    bytes: u64,
    /// Simulated time of the last touch (placement or cold-start hit).
    last_used: u64,
    /// Touch count, for LFU.
    uses: u64,
}

struct Node {
    spec: NodeSpec,
    state: NodeState,
    busy: bool,
    pending: VecDeque<usize>,
    running: Vec<RunningSeq>,
    kv_tokens: u64,
    idle_since: Option<u64>,
    cold_starts: u32,
    cold_ns: u64,
    served: u32,
    busy_ns: u64,
    work_ns: u64,
    /// Model the live (Warm/Starting) instance hosts; `None` when cold.
    /// The node-local artifact cache outlives the instance — it survives
    /// scale-to-zero — so it lives in `cache`, not here.
    model: Option<u32>,
    /// Node-local §6 artifact cache (linear scan: capacities are small).
    cache: Vec<CacheEntry>,
    /// Chunk-level residency under [`RegistryMode::ContentAddressed`]:
    /// the digests of every chunk backing a resident cache entry. Always
    /// empty in whole-artifact mode. Replaced only through
    /// [`Node::set_chunks`], which drops `fetch_memo`.
    chunks: std::collections::BTreeSet<u64>,
    /// Memoised content-addressed fetch estimates against `chunks`,
    /// `(model, ns)`; filled on demand by routing queries.
    fetch_memo: RefCell<Vec<(u32, u64)>>,
    /// Bumped on every crash; stale stage events are ignored (and
    /// retracted via their tokens, so they normally never even fire).
    epoch: u32,
    /// Whether the in-flight cold start degraded to the vanilla path
    /// (registry budget exhausted) — a degraded start populates no cache.
    degraded_start: bool,
    /// Pending [`FleetEvent::KeepAliveExpiry`]; retracted the moment work
    /// lands on the node, so a cancelled expiry never fires.
    keep_alive: Option<EventToken>,
    /// Pending [`FleetEvent::RegistryFetchDone`] of the in-flight cold
    /// start (Medusa cache-miss starts only); retracted on crash.
    stage_fetch: Option<EventToken>,
    /// Pending [`FleetEvent::ColdStartStageDone`] of the in-flight cold
    /// start; retracted on crash. For a pipeline shard helper this holds
    /// the pending [`FleetEvent::PipelineShardDone`] instead.
    stage_ready: Option<EventToken>,
    /// Whether the live instance was started predictively by the prewarm
    /// estimator and has not yet served a request — cleared on first
    /// placement; still set at scale-down (or run end) it counts as
    /// prewarm waste.
    prewarmed: bool,
    /// `Some(head)` while this node is a pipeline shard helper restoring
    /// one contiguous MAF2 shard range for `head`'s cold start. Helpers
    /// never accept work; they release back to cold when the shard lands.
    pipeline_head: Option<usize>,
    /// Helper nodes currently restoring shards for *this* node's
    /// pipeline-parallel cold start (this node is the head).
    pipeline_members: Vec<usize>,
}

impl Node {
    /// Builds a node; a pre-seeded spec (`spec.cached`) starts with model
    /// 0's artifact resident (`seed_bytes` sizes it for byte-bounded
    /// caches).
    fn new(spec: NodeSpec, seed_bytes: u64) -> Self {
        let cache = if spec.cached {
            vec![CacheEntry {
                model: 0,
                bytes: seed_bytes,
                last_used: 0,
                uses: 0,
            }]
        } else {
            Vec::new()
        };
        Node {
            spec,
            state: NodeState::Cold,
            busy: false,
            pending: VecDeque::new(),
            running: Vec::new(),
            kv_tokens: 0,
            idle_since: None,
            cold_starts: 0,
            cold_ns: 0,
            served: 0,
            busy_ns: 0,
            work_ns: 0,
            model: None,
            cache,
            chunks: std::collections::BTreeSet::new(),
            fetch_memo: RefCell::new(Vec::new()),
            epoch: 0,
            degraded_start: false,
            keep_alive: None,
            stage_fetch: None,
            stage_ready: None,
            prewarmed: false,
            pipeline_head: None,
            pipeline_members: Vec::new(),
        }
    }

    fn load(&self) -> usize {
        self.pending.len() + self.running.len()
    }

    fn cache_holds(&self, model: u32) -> bool {
        self.cache.iter().any(|e| e.model == model)
    }

    /// Touches `model`'s cache entry (recency + frequency), if resident.
    fn cache_touch(&mut self, model: u32, t: u64) {
        if let Some(e) = self.cache.iter_mut().find(|e| e.model == model) {
            e.last_used = t;
            e.uses += 1;
        }
    }

    /// Replaces the chunk residency, invalidating the fetch estimates
    /// priced against the old set.
    fn set_chunks(&mut self, chunks: std::collections::BTreeSet<u64>) {
        self.chunks = chunks;
        self.fetch_memo.get_mut().clear();
    }

    /// The fetch estimate of `model` against this node's chunk set,
    /// computed by `price` on first use.
    fn fetch_estimate(&self, model: u32, price: impl FnOnce() -> u64) -> u64 {
        if let Some(&(_, ns)) = self.fetch_memo.borrow().iter().find(|e| e.0 == model) {
            return ns;
        }
        let ns = price();
        self.fetch_memo.borrow_mut().push((model, ns));
        ns
    }
}

/// Worst-case KV reservation of a request (prompt + all output tokens).
fn kv_need(r: &Request) -> u64 {
    r.prompt_tokens as u64 + r.output_tokens as u64
}

/// The fleet simulator's mutable state. Every transition happens inside
/// the handler of exactly one [`FleetEvent`]; handlers communicate only
/// by scheduling further events on `events`.
struct FleetSim<'a> {
    profile: &'a FleetProfile,
    cluster: &'a ClusterSpec,
    trace: &'a [Request],
    tele: Option<&'a TelemetryRegistry>,
    nodes: Vec<Node>,
    /// Candidate sets over `nodes`, re-filed after every node transition.
    index: FleetIndex,
    /// Admission limits, cost tables, and the registry backend routing
    /// and cold starts price with.
    ctx: RouteCtx<'a>,
    /// The pre-index scan, stepped in lockstep with the scheduler: every
    /// indexed decision must equal its decision.
    #[cfg(debug_assertions)]
    reference: index::reference::ReferenceScan,
    queue: VecDeque<usize>,
    events: EventQueue<FleetEvent>,
    keep_alive_ns: u64,
    arrived: usize,
    ttfts: Vec<SimDuration>,
    completed: usize,
    makespan_ns: u64,
    cold_starts: u32,
    scale_to_zero_events: u32,
    fetch_retries: u32,
    degraded_cold_starts: u32,
    node_failures: u32,
    reroutes: u32,
    /// Whether the trace carries any nonzero model id. Per-tenant
    /// bookkeeping is skipped entirely for single-tenant traces, so the
    /// hot path (and the report) is unchanged from the single-model fleet.
    multi_tenant: bool,
    slo_ns: u64,
    tenant_stats: std::collections::BTreeMap<u32, TenantStat>,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    reg_bytes_fetched: u64,
    reg_bytes_resolved: u64,
    reg_chunk_hits: u64,
    reg_chunk_misses: u64,
    /// Prewarm estimator fed by arrivals; `None` unless
    /// [`ClusterSpec::prewarm`] is set (the default), keeping the event
    /// schedule byte-identical for legacy runs.
    estimator: Option<PrewarmEstimator>,
    prewarms_issued: u64,
    prewarms_unused: u64,
    /// Effective pipeline degree: cold starts shard across up to this
    /// many nodes when ≥ 2 (and the strategy materializes artifacts).
    pipeline_k: u32,
    pipeline_starts: u64,
}

/// Per-tenant accumulator (multi-tenant traces only).
#[derive(Debug, Default)]
struct TenantStat {
    offered: usize,
    completed: usize,
    cold_starts: u32,
    ttfts_us: Vec<u64>,
    slo_attained: usize,
}

impl FleetSim<'_> {
    /// The routing query for a request of `model` needing `need` KV
    /// tokens.
    fn query(&self, need: u64, model: u32) -> FleetQuery<'_> {
        FleetQuery::new(&self.nodes, &self.index, &self.ctx, model, need)
    }

    /// Re-files node `i` in the index after a transition.
    fn sync(&mut self, i: usize) {
        self.index.sync(i, &self.nodes[i]);
    }

    /// The policy's routing decision for request `r`.
    fn route(&mut self, sched: &mut dyn Scheduler, r: usize) -> Decision {
        let (need, model) = (kv_need(&self.trace[r]), self.trace[r].model);
        let decision = sched.route(&self.query(need, model));
        #[cfg(debug_assertions)]
        {
            let views = index::reference::views(&self.nodes, &self.ctx, need, model);
            let expected = self.reference.route(&views);
            debug_assert_eq!(decision, expected, "indexed route diverged from the scan");
        }
        decision
    }

    /// The policy's pick of a cold node to start for a request of
    /// `model` needing `need` KV tokens.
    fn pick_cold(&mut self, sched: &mut dyn Scheduler, need: u64, model: u32) -> Option<usize> {
        let pick = sched.pick_cold(&self.query(need, model));
        #[cfg(debug_assertions)]
        {
            let views = index::reference::views(&self.nodes, &self.ctx, need, model);
            let expected = self.reference.pick_cold(&views);
            debug_assert_eq!(pick, expected, "indexed pick_cold diverged from the scan");
        }
        pick
    }

    /// Inserts `model` into node `i`'s artifact cache at time `t` (or
    /// touches the resident entry), evicting under the capacity bound.
    /// The just-inserted model is never its own victim.
    fn cache_insert(&mut self, t: u64, i: usize, model: u32) {
        let profile = self.profile;
        let cfg = self.cluster.cache;
        let tele = self.tele;
        let node = &mut self.nodes[i];
        if node.cache_holds(model) {
            node.cache_touch(model, t);
            return;
        }
        node.cache.push(CacheEntry {
            model,
            bytes: profile.artifact_bytes_for(model),
            last_used: t,
            uses: 1,
        });
        loop {
            let over = match cfg.capacity {
                CacheCapacity::Unlimited => false,
                CacheCapacity::Artifacts(n) => node.cache.len() > n as usize,
                CacheCapacity::Bytes(b) => node.cache.iter().map(|e| e.bytes).sum::<u64>() > b,
            };
            if !over {
                break;
            }
            // Deterministic victim: metric, then recency, then model id.
            let victim = node
                .cache
                .iter()
                .enumerate()
                .filter(|(_, e)| e.model != model)
                .min_by_key(|(_, e)| match cfg.eviction {
                    EvictionPolicy::Lru => (e.last_used, 0, e.model),
                    EvictionPolicy::Lfu => (e.uses, e.last_used, e.model),
                    EvictionPolicy::CostAware => {
                        let cost = profile.fetch_for(e.model).as_nanos()
                            + profile.loading_for(e.model).as_nanos();
                        (cost, e.last_used, e.model)
                    }
                })
                .map(|(idx, _)| idx);
            match victim {
                Some(idx) => {
                    node.cache.remove(idx);
                    self.cache_evictions += 1;
                    if let Some(tl) = tele {
                        tl.inc("cluster_cache_evictions_total", 1);
                    }
                }
                None => break,
            }
        }
        // Content-addressed residency tracks the cache: the resident chunk
        // set is exactly the union of the resident models' manifests, so
        // an eviction drops the victim's unshared chunks but keeps the
        // template chunks other residents still reference.
        if let RegistryMode::ContentAddressed(catalog) = &self.cluster.registry_mode {
            let chunks = node
                .cache
                .iter()
                .flat_map(|e| catalog.units_for(e.model, profile))
                .map(|u| u.digest)
                .collect();
            node.set_chunks(chunks);
        }
    }

    /// Begins a cold start of `model` on node `i` at time `t`.
    fn start_cold(&mut self, t: u64, i: usize, model: u32) {
        if self.pipeline_k >= 2 && self.profile.strategy == Strategy::Medusa {
            // Pipeline mode shards the materialized restore; only the
            // Medusa strategy has an artifact to shard.
            self.start_cold_pipeline(t, i, model);
            return;
        }
        let faults = self.cluster.faults;
        let reg = self.cluster.fetch_policy;
        let node = &mut self.nodes[i];
        debug_assert_eq!(node.state, NodeState::Cold);
        let cached = node.cache_holds(model);
        let needs_fetch = self.profile.strategy == Strategy::Medusa && !cached;
        node.state = NodeState::Starting;
        node.model = Some(model);
        node.cold_starts += 1;
        self.cold_starts += 1;
        self.sync(i);
        if self.profile.strategy == Strategy::Medusa {
            if needs_fetch {
                self.cache_misses += 1;
            } else {
                self.cache_hits += 1;
                self.nodes[i].cache_touch(model, t);
            }
            if let Some(tl) = self.tele {
                tl.inc(
                    if needs_fetch {
                        "cluster_cache_misses_total"
                    } else {
                        "cluster_cache_hits_total"
                    },
                    1,
                );
            }
        }
        if self.multi_tenant {
            self.tenant_stats.entry(model).or_default().cold_starts += 1;
        }
        // Resolve what this fetch must move through the registry backend:
        // the whole artifact, or only the chunks the node's residency lacks.
        let plan = needs_fetch.then(|| {
            self.ctx
                .registry
                .resolve(model, &self.nodes[i].chunks, self.profile)
        });
        let node = &mut self.nodes[i];

        // Registry fetch under the resilience policy: each failed attempt
        // costs a timeout, retries back off exponentially (bounded), and an
        // exhausted budget degrades this start to the vanilla path (§7).
        // Whole-artifact mode rolls once per attempt on the legacy key
        // schedule; content-addressed mode retries **per chunk**, each
        // chunk salted by its digest and granted its own budget.
        let mut retry_ns: u64 = 0;
        let mut retries: u32 = 0;
        let mut degraded = false;
        if needs_fetch && faults.registry_fail_per_mille > 0 {
            if self.ctx.cas {
                let units = plan.as_ref().map_or(&[][..], |p| &p.missing[..]);
                'units: for u in units {
                    let salt = mix(0x5a17_c4a5 ^ u.digest);
                    let mut failures: u32 = 0;
                    loop {
                        let roll =
                            roll_per_mille(faults.seed ^ salt, i, node.cold_starts, failures);
                        if roll >= faults.registry_fail_per_mille {
                            break;
                        }
                        failures += 1;
                        retry_ns += (reg.timeout_s * 1e9) as u64;
                        if failures > reg.retry_budget {
                            degraded = true;
                            break 'units;
                        }
                        let backoff = (reg.backoff_base_s * 2f64.powi(failures as i32 - 1))
                            .min(reg.backoff_max_s);
                        retry_ns += (backoff * 1e9) as u64;
                        retries += 1;
                    }
                }
            } else {
                let mut failures: u32 = 0;
                loop {
                    let roll = roll_per_mille(faults.seed, i, node.cold_starts, failures);
                    if roll >= faults.registry_fail_per_mille {
                        break;
                    }
                    failures += 1;
                    retry_ns += (reg.timeout_s * 1e9) as u64;
                    if failures > reg.retry_budget {
                        degraded = true;
                        break;
                    }
                    let backoff = (reg.backoff_base_s * 2f64.powi(failures as i32 - 1))
                        .min(reg.backoff_max_s);
                    retry_ns += (backoff * 1e9) as u64;
                    retries += 1;
                }
            }
        }
        node.degraded_start = degraded;

        let fetch_ns = match (&plan, degraded) {
            (Some(p), false) => self.ctx.registry.fetch(model, p, self.profile).as_nanos(),
            _ => 0,
        };
        let makespan_ns = if degraded {
            // No artifact to restore: vanilla-path loading, cache stays
            // cold so the next start tries the registry again.
            self.profile.degraded_loading.as_nanos()
        } else {
            self.profile.loading_for(model).as_nanos() + fetch_ns
        };
        if self.ctx.cas && !degraded {
            if let Some(p) = &plan {
                self.reg_bytes_fetched += p.bytes_needed;
                self.reg_bytes_resolved += p.bytes_resolved;
                self.reg_chunk_hits += p.chunk_hits;
                self.reg_chunk_misses += p.missing.len() as u64;
                if let Some(tl) = self.tele {
                    tl.inc("cluster_registry_bytes_fetched_total", p.bytes_needed);
                    tl.inc("cluster_registry_chunk_hits_total", p.chunk_hits);
                    tl.inc(
                        "cluster_registry_chunk_misses_total",
                        p.missing.len() as u64,
                    );
                }
            }
        }
        let node = &mut self.nodes[i];
        node.cold_ns += retry_ns + makespan_ns;
        // Aggregate rank work: every rank restores; fetch attempts and the
        // fetch itself occupy the node once (the cache is shared across
        // local ranks).
        let restore_work = if degraded {
            self.profile.degraded_loading.as_nanos() * node.spec.tp as u64
        } else {
            self.profile.coldstart_work_for(model).as_nanos()
        };
        node.work_ns += restore_work + retry_ns + fetch_ns;
        self.fetch_retries += retries;
        if degraded {
            self.degraded_cold_starts += 1;
        }
        let epoch = node.epoch;
        let ready = t + retry_ns + makespan_ns;
        if let Some(tl) = self.tele {
            tl.inc("cluster_cold_starts_total", 1);
            tl.inc(&format!("cluster_node{i}_cold_starts_total"), 1);
            if retries > 0 {
                tl.inc("cluster_fetch_retries_total", retries as u64);
            }
            if degraded {
                tl.inc("cluster_degraded_coldstarts_total", 1);
            }
            tl.span(
                format!("coldstart/n{i}/m{model}"),
                format!("node{i}"),
                t / 1_000,
                ready / 1_000,
            );
        }
        // A crashing start schedules its crash midway; the crash bumps the
        // epoch and retracts the stage events below.
        if faults.node_crash_per_mille > 0 {
            let roll = roll_per_mille(faults.seed ^ 0xc7a5_11fe, i, self.nodes[i].cold_starts, 0);
            if roll < faults.node_crash_per_mille {
                let crash_at = t + (retry_ns + makespan_ns) / 2;
                self.events
                    .schedule(crash_at, FleetEvent::NodeCrash { node: i, epoch });
            }
        }
        // The start's whole stage timeline is determined here (every fault
        // roll happens at start time), so both stages go on the queue now:
        // the registry fetch (cache-miss Medusa starts only), then the
        // restore whose completion makes the node ready.
        let fetch_tok = (needs_fetch && !degraded).then(|| {
            self.events.schedule(
                t + retry_ns + fetch_ns,
                FleetEvent::RegistryFetchDone { node: i, epoch },
            )
        });
        let ready_tok = self
            .events
            .schedule(ready, FleetEvent::ColdStartStageDone { node: i, epoch });
        let node = &mut self.nodes[i];
        node.stage_fetch = fetch_tok;
        node.stage_ready = Some(ready_tok);
    }

    /// Begins a **pipeline-parallel** cold start of `model` headed by
    /// node `i`: the head plus up to `pipeline_k − 1` recruited cold
    /// helpers each restore a contiguous MAF2 shard range (the lazy
    /// reader restores per-shard, so the split is free). The head serves
    /// the first token as soon as its own first stage lands — after
    /// `total / k` instead of the full restore — while helpers stream
    /// their shards to it and release back to cold
    /// ([`FleetEvent::PipelineShardDone`]). The last helper lands exactly
    /// on the single-node total, so sharding never inflates the full
    /// restore. Falls back to the single-node timeline when the start
    /// degrades (no artifact to shard) or no helper is free. The head's
    /// registry rolls use the same key schedule as the single-node path;
    /// helper crash rolls get their own attempt lane so fates stay
    /// independent. On completion the head caches the whole artifact
    /// (the shards reassemble on the head — a documented approximation).
    fn start_cold_pipeline(&mut self, t: u64, i: usize, model: u32) {
        let faults = self.cluster.faults;
        let reg = self.cluster.fetch_policy;
        let node = &mut self.nodes[i];
        debug_assert_eq!(node.state, NodeState::Cold);
        let cached = node.cache_holds(model);
        let needs_fetch = !cached;
        node.state = NodeState::Starting;
        node.model = Some(model);
        node.cold_starts += 1;
        self.cold_starts += 1;
        self.sync(i);
        if needs_fetch {
            self.cache_misses += 1;
        } else {
            self.cache_hits += 1;
            self.nodes[i].cache_touch(model, t);
        }
        if let Some(tl) = self.tele {
            tl.inc(
                if needs_fetch {
                    "cluster_cache_misses_total"
                } else {
                    "cluster_cache_hits_total"
                },
                1,
            );
        }
        if self.multi_tenant {
            self.tenant_stats.entry(model).or_default().cold_starts += 1;
        }
        let node = &mut self.nodes[i];

        // Registry fetch under the resilience policy — the head owns the
        // registry connection, so the rolls are keyed exactly like the
        // single-node path.
        let mut retry_ns: u64 = 0;
        let mut retries: u32 = 0;
        let mut degraded = false;
        if needs_fetch && faults.registry_fail_per_mille > 0 {
            let mut failures: u32 = 0;
            loop {
                let roll = roll_per_mille(faults.seed, i, node.cold_starts, failures);
                if roll >= faults.registry_fail_per_mille {
                    break;
                }
                failures += 1;
                retry_ns += (reg.timeout_s * 1e9) as u64;
                if failures > reg.retry_budget {
                    degraded = true;
                    break;
                }
                let backoff =
                    (reg.backoff_base_s * 2f64.powi(failures as i32 - 1)).min(reg.backoff_max_s);
                retry_ns += (backoff * 1e9) as u64;
                retries += 1;
            }
        }
        node.degraded_start = degraded;
        self.fetch_retries += retries;
        if degraded {
            self.degraded_cold_starts += 1;
        }

        // Recruit helpers: other cold nodes, ascending index (a degraded
        // start has no artifact to shard).
        let head_cold_starts = self.nodes[i].cold_starts;
        let helpers: Vec<usize> = if degraded {
            Vec::new()
        } else {
            self.index
                .cold()
                .take(self.pipeline_k as usize - 1)
                .collect()
        };
        let k_eff = 1 + helpers.len() as u64;
        if k_eff > 1 {
            self.pipeline_starts += 1;
        }

        // Resolve through the registry backend (delta-only transfer in
        // content-addressed mode); the head owns the registry connection,
        // so the retry rolls above keep the whole-fetch key schedule even
        // under chunked transfers.
        let plan = (needs_fetch && !degraded).then(|| {
            self.ctx
                .registry
                .resolve(model, &self.nodes[i].chunks, self.profile)
        });
        let fetch_ns = match &plan {
            Some(p) => self.ctx.registry.fetch(model, p, self.profile).as_nanos(),
            None => 0,
        };
        let total_ns = if degraded {
            self.profile.degraded_loading.as_nanos()
        } else {
            self.profile.loading_for(model).as_nanos() + fetch_ns
        };
        if self.ctx.cas {
            if let Some(p) = &plan {
                self.reg_bytes_fetched += p.bytes_needed;
                self.reg_bytes_resolved += p.bytes_resolved;
                self.reg_chunk_hits += p.chunk_hits;
                self.reg_chunk_misses += p.missing.len() as u64;
                if let Some(tl) = self.tele {
                    tl.inc("cluster_registry_bytes_fetched_total", p.bytes_needed);
                    tl.inc("cluster_registry_chunk_hits_total", p.chunk_hits);
                    tl.inc(
                        "cluster_registry_chunk_misses_total",
                        p.missing.len() as u64,
                    );
                }
            }
        }
        let stage_span = total_ns / k_eff;
        let ready = t + retry_ns + stage_span;

        // Work split: every participant restores 1/k of the artifact;
        // the head additionally owns the retry attempts, the registry
        // fetch, and the division remainder.
        let restore_work = if degraded {
            self.profile.degraded_loading.as_nanos() * self.nodes[i].spec.tp as u64
        } else {
            self.profile.coldstart_work_for(model).as_nanos()
        };
        let share = restore_work / k_eff;
        let epoch = {
            let node = &mut self.nodes[i];
            node.cold_ns += retry_ns + stage_span;
            node.work_ns += restore_work - share * (k_eff - 1) + retry_ns + fetch_ns;
            node.epoch
        };
        if let Some(tl) = self.tele {
            tl.inc("cluster_cold_starts_total", 1);
            tl.inc(&format!("cluster_node{i}_cold_starts_total"), 1);
            if retries > 0 {
                tl.inc("cluster_fetch_retries_total", retries as u64);
            }
            if degraded {
                tl.inc("cluster_degraded_coldstarts_total", 1);
            }
            if k_eff > 1 {
                tl.inc("cluster_pipeline_starts_total", 1);
            }
            tl.span(
                format!("coldstart/n{i}/m{model}"),
                format!("node{i}"),
                t / 1_000,
                ready / 1_000,
            );
        }
        // Head crash roll: same key schedule as the single-node path, at
        // the midpoint of the head's own stage.
        if faults.node_crash_per_mille > 0 {
            let roll = roll_per_mille(faults.seed ^ 0xc7a5_11fe, i, head_cold_starts, 0);
            if roll < faults.node_crash_per_mille {
                let crash_at = t + (retry_ns + stage_span) / 2;
                self.events
                    .schedule(crash_at, FleetEvent::NodeCrash { node: i, epoch });
            }
        }
        let fetch_tok = (needs_fetch && !degraded).then(|| {
            self.events.schedule(
                t + retry_ns + fetch_ns / k_eff,
                FleetEvent::RegistryFetchDone { node: i, epoch },
            )
        });
        let ready_tok = self
            .events
            .schedule(ready, FleetEvent::ColdStartStageDone { node: i, epoch });
        {
            let node = &mut self.nodes[i];
            node.stage_fetch = fetch_tok;
            node.stage_ready = Some(ready_tok);
        }
        // Helper stages: helper j restores shard range j+1, landing at
        // (j+2)·span after the retries.
        for (j, &h) in helpers.iter().enumerate() {
            let done = t + retry_ns + (j as u64 + 2) * stage_span;
            let hep = {
                let helper = &mut self.nodes[h];
                helper.state = NodeState::Starting;
                helper.model = Some(model);
                helper.idle_since = None;
                helper.pipeline_head = Some(i);
                helper.work_ns += share;
                helper.epoch
            };
            let tok = self.events.schedule(
                done,
                FleetEvent::PipelineShardDone {
                    node: h,
                    head: i,
                    epoch: hep,
                },
            );
            self.nodes[h].stage_ready = Some(tok);
            self.nodes[i].pipeline_members.push(h);
            self.sync(h);
            // Helper crash roll: attempt lane j+1 keeps helper fates
            // independent of the head's roll (attempt 0).
            if faults.node_crash_per_mille > 0 {
                let roll =
                    roll_per_mille(faults.seed ^ 0xc7a5_11fe, h, head_cold_starts, j as u32 + 1);
                if roll < faults.node_crash_per_mille {
                    let mid = t + retry_ns + (j as u64 + 1) * stage_span + stage_span / 2;
                    self.events.schedule(
                        mid,
                        FleetEvent::NodeCrash {
                            node: h,
                            epoch: hep,
                        },
                    );
                }
            }
        }
    }

    /// Places request `r` on node `i` at time `t` (cold-starting first
    /// when needed), retracts the node's keep-alive countdown, and records
    /// the scheduler-decision span.
    fn place(&mut self, t: u64, r: usize, i: usize) {
        let model = self.trace[r].model;
        if self.nodes[i].state == NodeState::Cold {
            self.start_cold(t, i, model);
        }
        let need = kv_need(&self.trace[r]);
        let node = &mut self.nodes[i];
        node.cache_touch(model, t);
        node.kv_tokens += need;
        node.idle_since = None;
        // A predictively started node just got real work: the prewarm
        // paid off, so it no longer counts toward the waste metric.
        node.prewarmed = false;
        node.pending.push_back(r);
        // Work landed: the pending keep-alive expiry (if any) must never
        // fire.
        if let Some(tok) = node.keep_alive.take() {
            self.events.cancel(tok);
        }
        self.sync(i);
        if let Some(tl) = self.tele {
            tl.span(
                format!("route/r{}/m{model}->n{i}", self.trace[r].id),
                "scheduler".to_string(),
                self.trace[r].arrival_ns / 1_000,
                t / 1_000,
            );
        }
        let node = &self.nodes[i];
        if node.state == NodeState::Warm && !node.busy {
            self.events.schedule(t, FleetEvent::Route { node: i });
        }
    }

    /// Routes as much of the global queue as the policy will place, then
    /// lets the autoscaler start nodes for any remaining backlog.
    ///
    /// Single-tenant traces keep the legacy strict-FIFO discipline: the
    /// queue head either routes or blocks everything behind it (which is
    /// harmless when every node can serve every request — only capacity
    /// blocks the head, and capacity frees in arrival order).
    /// Multi-tenant traces route with skip-ahead instead: a head whose
    /// model has no live affine node must not stall tenants whose warm
    /// nodes sit idle behind it.
    fn drain(&mut self, t: u64, sched: &mut dyn Scheduler) {
        if self.multi_tenant {
            // One sweep in queue order: placed requests drop out, the
            // rest keep their relative order.
            let mut queue = std::mem::take(&mut self.queue);
            queue.retain(|&r| match self.route(sched, r) {
                Decision::Node(i) => {
                    self.place(t, r, i);
                    false
                }
                Decision::Queue => true,
            });
            self.queue = queue;
        } else {
            while let Some(&r) = self.queue.front() {
                match self.route(sched, r) {
                    Decision::Node(i) => {
                        self.queue.pop_front();
                        self.place(t, r, i);
                    }
                    Decision::Queue => break,
                }
            }
        }
        // Autoscaler scale-up: an empty fleet, backlog beyond the
        // per-live-node target, or (multi-tenant) a starved tenant — a
        // queued model with no live affine node — wakes a cold node; the
        // *policy* picks which one (ColdStartAware prefers artifact-cached
        // nodes). Single-model traces never see the starvation clause:
        // every live node is affine to model 0.
        while let Some(&head) = self.queue.front() {
            // The request the next cold start is for: the first queued one
            // whose model is starved, else the queue head.
            let starved = |r: &usize| self.index.live(self.trace[*r].model) == 0;
            let r = if self.multi_tenant {
                self.queue.iter().copied().find(starved).unwrap_or(head)
            } else {
                head
            };
            let model = self.trace[r].model;
            let live = self.nodes.len() - self.index.cold_count();
            let limit = self.cluster.autoscaler.target_queue_depth * live.max(1);
            if live > 0 && !starved(&r) && self.queue.len() <= limit {
                break;
            }
            match self.pick_cold(sched, kv_need(&self.trace[r]), model) {
                Some(i) => self.start_cold(t, i, model),
                None => break,
            }
        }
    }

    // -----------------------------------------------------------------
    // Event handlers. One per [`FleetEvent`] variant; the dispatch loop in
    // [`simulate_fleet_traced`] is the only caller.

    /// [`FleetEvent::Arrival`]: the request joins the global queue and the
    /// scheduler immediately tries to drain it.
    fn on_arrival(&mut self, t: u64, r: usize, sched: &mut dyn Scheduler) {
        self.arrived += 1;
        // Feed the prewarm estimator; a forecast schedules a predictive
        // [`FleetEvent::ScaleDecision`] ahead of the next expected
        // arrival (re-anchored on every observation).
        if let Some(est) = self.estimator.as_mut() {
            if let Some(d) = est.observe(t, self.trace[r].model) {
                self.events.schedule(
                    d.t_ns,
                    FleetEvent::ScaleDecision {
                        prewarm: Some(d.model),
                    },
                );
            }
        }
        self.queue.push_back(r);
        self.drain(t, sched);
    }

    /// [`FleetEvent::RegistryFetchDone`]: the fetch stage of the in-flight
    /// cold start finished; the restore stage is already on the queue, so
    /// this only closes out the stage bookkeeping.
    fn on_fetch_done(&mut self, i: usize, epoch: u32) {
        let node = &mut self.nodes[i];
        if node.epoch != epoch {
            // A crash retracted this start; the token was cancelled, so a
            // stale fetch normally never fires.
            return;
        }
        node.stage_fetch = None;
        debug_assert!(
            node.state == NodeState::Starting && node.stage_ready.is_some(),
            "the fetch stage completes mid-start, before the restore stage"
        );
    }

    /// [`FleetEvent::ColdStartStageDone`]: the restore (terminal) stage
    /// finished — the node is warm and may populate its artifact cache.
    fn on_stage_done(&mut self, t: u64, i: usize, epoch: u32, sched: &mut dyn Scheduler) {
        let node = &mut self.nodes[i];
        if node.epoch != epoch {
            // This start crashed before finishing; the event is stale.
            return;
        }
        node.stage_ready = None;
        node.state = NodeState::Warm;
        // The cold start populated the local cache (Medusa fetch or
        // in-place materialization reuse) — unless it degraded to the
        // vanilla path, which materializes nothing.
        let populate = self.profile.strategy == Strategy::Medusa && !node.degraded_start;
        let model = node.model.unwrap_or(0);
        if populate {
            self.cache_insert(t, i, model);
        }
        self.sync(i);
        self.events.schedule(t, FleetEvent::Route { node: i });
        self.drain(t, sched);
    }

    /// [`FleetEvent::NodeCrash`]: crash mid-cold-start — the node scales
    /// back to cold, its pending stage events are retracted, and its
    /// queued requests go back through the scheduler. Crashing any
    /// *still-starting* participant of a pipeline-parallel start tears
    /// the whole still-starting group down (the shard stream is broken);
    /// a head that already went warm keeps serving and only the helpers
    /// release.
    fn on_crash(&mut self, t: u64, i: usize, epoch: u32, sched: &mut dyn Scheduler) {
        {
            let node = &self.nodes[i];
            if node.epoch != epoch || node.state != NodeState::Starting {
                return;
            }
        }
        let head = self.nodes[i].pipeline_head.unwrap_or(i);
        let mut group = vec![head];
        group.extend(self.nodes[head].pipeline_members.iter().copied());
        let mut rerouted: Vec<usize> = Vec::new();
        for &m in &group {
            let node = &mut self.nodes[m];
            if node.state != NodeState::Starting {
                continue;
            }
            node.epoch += 1;
            node.state = NodeState::Cold;
            node.model = None;
            node.idle_since = None;
            node.kv_tokens = 0;
            node.pipeline_head = None;
            node.prewarmed = false;
            rerouted.extend(node.pending.drain(..));
            let toks = [node.stage_fetch.take(), node.stage_ready.take()];
            for tok in toks.into_iter().flatten() {
                self.events.cancel(tok);
            }
            self.sync(m);
        }
        self.nodes[head].pipeline_members.clear();
        self.node_failures += 1;
        self.reroutes += rerouted.len() as u32;
        if let Some(tl) = self.tele {
            tl.inc("cluster_node_failures_total", 1);
            if !rerouted.is_empty() {
                tl.inc("cluster_reroutes_total", rerouted.len() as u64);
            }
            tl.span(
                format!("nodefail/n{i}"),
                format!("node{i}"),
                t / 1_000,
                t / 1_000,
            );
        }
        // Front of the queue, original order: the crashed node's requests
        // have been waiting longest.
        for r in rerouted.into_iter().rev() {
            self.queue.push_front(r);
        }
        self.drain(t, sched);
    }

    /// [`FleetEvent::KeepAliveExpiry`]: the keep-alive countdown ran out
    /// without being retracted — scale the node to zero. The local
    /// artifact cache survives, so re-warming is cheap.
    fn on_keep_alive_expiry(&mut self, t: u64, i: usize) {
        let scale = self.cluster.autoscaler.scale_to_zero;
        let keep_alive_ns = self.keep_alive_ns;
        let node = &mut self.nodes[i];
        node.keep_alive = None;
        // An un-retracted expiry implies the node sat idle the whole
        // countdown; the full predicate stays as a guard so the report is
        // exactly what the predicate says even if retraction ever missed a
        // path.
        if scale
            && node.state == NodeState::Warm
            && !node.busy
            && node.pending.is_empty()
            && node.running.is_empty()
            && node
                .idle_since
                .is_some_and(|since| t.saturating_sub(since) >= keep_alive_ns)
        {
            node.state = NodeState::Cold;
            node.model = None;
            node.idle_since = None;
            let wasted = std::mem::take(&mut node.prewarmed);
            self.sync(i);
            self.scale_to_zero_events += 1;
            if wasted {
                // Prewarmed, never served, scaled back down: pure waste.
                self.prewarms_unused += 1;
                if let Some(tl) = self.tele {
                    tl.inc("cluster_prewarms_unused_total", 1);
                }
            }
            if let Some(tl) = self.tele {
                tl.inc("cluster_scale_to_zero_total", 1);
            }
            // Orphaned shard helpers still streaming to this head release
            // immediately — their target is gone.
            let members = std::mem::take(&mut self.nodes[i].pipeline_members);
            for m in members {
                let helper = &mut self.nodes[m];
                if helper.state != NodeState::Starting || helper.pipeline_head != Some(i) {
                    continue;
                }
                helper.epoch += 1;
                helper.state = NodeState::Cold;
                helper.model = None;
                helper.idle_since = None;
                helper.pipeline_head = None;
                if let Some(tok) = helper.stage_ready.take() {
                    self.events.cancel(tok);
                }
                self.sync(m);
            }
        }
    }

    /// [`FleetEvent::ScaleDecision`]: either a predictive prewarm
    /// (`prewarm: Some(model)`) — start a node for the forecast model
    /// *before* its burst, unless one is already live — or the periodic
    /// autoscaler tick (`prewarm: None`), which re-runs the drain and
    /// re-arms the next tick.
    fn on_scale_decision(&mut self, t: u64, prewarm: Option<u32>, sched: &mut dyn Scheduler) {
        match prewarm {
            Some(model) => {
                if self.index.live(model) == 0 {
                    if let Some(i) = self.pick_cold(sched, 0, model) {
                        self.start_cold(t, i, model);
                        self.nodes[i].prewarmed = true;
                        self.prewarms_issued += 1;
                        if let Some(tl) = self.tele {
                            tl.inc("cluster_prewarms_issued_total", 1);
                        }
                    }
                }
                self.drain(t, sched);
            }
            None => {
                self.drain(t, sched);
                if let Some(interval_s) = self.cluster.autoscaler.eval_interval_s {
                    let step = (interval_s * 1e9) as u64;
                    if step > 0 {
                        self.events
                            .schedule(t + step, FleetEvent::ScaleDecision { prewarm: None });
                    }
                }
            }
        }
    }

    /// [`FleetEvent::PipelineShardDone`]: a shard helper's contiguous
    /// range landed on the head — the helper releases back to cold (its
    /// capacity is free again, so the drain gets a chance to use it).
    fn on_pipeline_shard_done(
        &mut self,
        t: u64,
        i: usize,
        head: usize,
        epoch: u32,
        sched: &mut dyn Scheduler,
    ) {
        {
            let node = &mut self.nodes[i];
            if node.epoch != epoch || node.pipeline_head != Some(head) {
                // The group crashed or the head scaled away; the token
                // was cancelled, so a stale shard normally never fires.
                return;
            }
            node.stage_ready = None;
            node.state = NodeState::Cold;
            node.model = None;
            node.idle_since = None;
            node.pipeline_head = None;
        }
        self.sync(i);
        self.nodes[head].pipeline_members.retain(|&m| m != i);
        self.drain(t, sched);
    }

    /// [`FleetEvent::Route`]: the node re-examines its run queue and
    /// starts an iteration unless one is already in flight.
    fn on_route(&mut self, t: u64, i: usize) {
        if !self.nodes[i].busy {
            self.iteration(t, i);
        }
    }

    /// [`FleetEvent::IterationDone`]: the iteration's time elapsed; give
    /// the scheduler a chance to top the node up, then iterate again.
    fn on_iteration_done(&mut self, t: u64, i: usize, sched: &mut dyn Scheduler) {
        self.nodes[i].busy = false;
        self.drain(t, sched);
        self.iteration(t, i);
    }

    /// One serving iteration on node `i` at time `t`: prefill one pending
    /// request, else run one batched decode step, else go idle and arm the
    /// keep-alive countdown.
    fn iteration(&mut self, t: u64, i: usize) {
        let profile = self.profile;
        let trace = self.trace;
        let tele = self.tele;
        let perf = &profile.perf;
        let node = &mut self.nodes[i];
        if node.state != NodeState::Warm {
            return;
        }
        if let Some(r) = node.pending.pop_front() {
            // Prefill: produces the request's first token.
            let req = &trace[r];
            let dur = perf.prefill_duration(req.prompt_tokens).as_nanos();
            let end = t + dur;
            self.ttfts
                .push(SimDuration::from_nanos(end - req.arrival_ns));
            if self.multi_tenant {
                let ttft_ns = end - req.arrival_ns;
                let stat = self.tenant_stats.entry(req.model).or_default();
                stat.ttfts_us.push(ttft_ns / 1_000);
                if ttft_ns <= self.slo_ns {
                    stat.slo_attained += 1;
                }
            }
            node.served += 1;
            if let Some(tl) = tele {
                tl.observe_us("cluster_ttft_us", (end - req.arrival_ns) / 1_000);
                tl.observe_us(
                    &format!("cluster_node{i}_ttft_us"),
                    (end - req.arrival_ns) / 1_000,
                );
                tl.observe_us(
                    &format!("cluster_node{i}_queue_delay_us"),
                    (t - req.arrival_ns) / 1_000,
                );
            }
            if req.output_tokens > 1 {
                node.running.push(RunningSeq {
                    remaining: req.output_tokens - 1,
                    kv_reserved: kv_need(req),
                    model: req.model,
                });
            } else {
                node.kv_tokens = node.kv_tokens.saturating_sub(kv_need(req));
                self.completed += 1;
                if self.multi_tenant {
                    self.tenant_stats.entry(req.model).or_default().completed += 1;
                }
                self.makespan_ns = self.makespan_ns.max(end);
            }
            node.busy = true;
            node.busy_ns += dur;
            node.work_ns += dur * node.spec.tp as u64;
            self.events
                .schedule(end, FleetEvent::IterationDone { node: i });
            self.sync(i);
        } else if !node.running.is_empty() {
            // Batched decode step.
            let dur = perf.decode_duration(node.running.len() as u32).as_nanos();
            let end = t + dur;
            for s in &mut node.running {
                s.remaining -= 1;
            }
            let released: u64 = node
                .running
                .iter()
                .filter(|s| s.remaining == 0)
                .map(|s| s.kv_reserved)
                .sum();
            let before = node.running.len();
            if self.multi_tenant {
                for s in node.running.iter().filter(|s| s.remaining == 0) {
                    self.tenant_stats.entry(s.model).or_default().completed += 1;
                }
            }
            node.running.retain(|s| s.remaining > 0);
            let finished = before - node.running.len();
            if finished > 0 {
                node.kv_tokens = node.kv_tokens.saturating_sub(released);
                self.completed += finished;
                self.makespan_ns = self.makespan_ns.max(end);
            }
            node.busy = true;
            node.busy_ns += dur;
            node.work_ns += dur * node.spec.tp as u64;
            self.events
                .schedule(end, FleetEvent::IterationDone { node: i });
            self.sync(i);
        } else {
            // Idle: arm the keep-alive countdown. When scale-to-zero is
            // off the expiry could never fire anyway, so don't schedule
            // one at all.
            node.idle_since = Some(t);
            if self.cluster.autoscaler.scale_to_zero {
                let tok = self.events.schedule(
                    t + self.keep_alive_ns,
                    FleetEvent::KeepAliveExpiry { node: i },
                );
                self.nodes[i].keep_alive = Some(tok);
            }
        }
    }
}

/// Nearest-rank quantile over an already-sorted slice of microsecond
/// samples (0 when empty) — shared by the aggregate and per-tenant
/// report paths so both round identically.
fn quantile_us(sorted: &[u64], f: f64) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        sorted[((sorted.len() as f64 - 1.0) * f).round() as usize]
    }
}

/// Runs `trace` through a fleet shaped by `cluster` whose nodes replay
/// `profile`, routed by `policy`.
pub fn simulate_fleet(
    profile: &FleetProfile,
    cluster: &ClusterSpec,
    policy: Policy,
    trace: &[Request],
) -> FleetOutcome {
    simulate_fleet_traced(profile, cluster, policy, trace, None)
}

/// [`simulate_fleet`] with telemetry: per-node TTFT/queue-delay
/// histograms, fleet and per-node cold-start counters, scale-to-zero
/// counters, and scheduler-decision + cold-start spans. All values derive
/// from the simulated clock, so same-trace runs export byte-identically.
pub fn simulate_fleet_traced(
    profile: &FleetProfile,
    cluster: &ClusterSpec,
    policy: Policy,
    trace: &[Request],
    tele: Option<&TelemetryRegistry>,
) -> FleetOutcome {
    let mut sched = policy.build();
    let multi_tenant = trace.iter().any(|r| r.model != 0);
    let seed_bytes = profile.artifact_bytes_for(0);
    // Pipeline-parallel cold starts: explicit `pipeline_k` wins; the
    // pipeline policy flavor defaults to degree 2; everything else runs
    // the single-node timeline (degree 1).
    let pipeline_k = cluster
        .pipeline_k
        .unwrap_or(if policy == Policy::Pipeline { 2 } else { 1 })
        .max(1);
    // Pre-seeded caches hold model 0's artifact; in content-addressed mode
    // that means its chunks are resident too.
    let seeded_chunks: std::collections::BTreeSet<u64> = match &cluster.registry_mode {
        RegistryMode::ContentAddressed(catalog) => catalog
            .units_for(0, profile)
            .iter()
            .map(|u| u.digest)
            .collect(),
        RegistryMode::Whole => Default::default(),
    };
    let nodes: Vec<Node> = cluster
        .nodes
        .iter()
        .map(|spec| {
            let mut node = Node::new(spec.clone(), seed_bytes);
            if spec.cached {
                node.set_chunks(seeded_chunks.clone());
            }
            node
        })
        .collect();
    let mut sim = FleetSim {
        profile,
        cluster,
        trace,
        tele,
        index: FleetIndex::new(&nodes),
        nodes,
        ctx: RouteCtx::new(
            profile,
            cluster.registry_mode.build(),
            matches!(cluster.registry_mode, RegistryMode::ContentAddressed(_)),
            cluster.max_running,
            trace.len(),
        ),
        #[cfg(debug_assertions)]
        reference: index::reference::ReferenceScan::new(policy),
        queue: VecDeque::new(),
        events: EventQueue::new(),
        keep_alive_ns: (cluster.autoscaler.keep_alive_s * 1e9) as u64,
        arrived: 0,
        ttfts: Vec::new(),
        completed: 0,
        makespan_ns: 0,
        cold_starts: 0,
        scale_to_zero_events: 0,
        fetch_retries: 0,
        degraded_cold_starts: 0,
        node_failures: 0,
        reroutes: 0,
        multi_tenant,
        slo_ns: (cluster.slo_ttft_s * 1e9) as u64,
        tenant_stats: std::collections::BTreeMap::new(),
        cache_hits: 0,
        cache_misses: 0,
        cache_evictions: 0,
        reg_bytes_fetched: 0,
        reg_bytes_resolved: 0,
        reg_chunk_hits: 0,
        reg_chunk_misses: 0,
        estimator: cluster
            .prewarm
            .map(|cfg| PrewarmEstimator::new(cfg, cluster.faults.seed)),
        prewarms_issued: 0,
        prewarms_unused: 0,
        pipeline_k,
        pipeline_starts: 0,
    };
    if multi_tenant {
        // Pre-populate so tenants whose every request times out still show
        // up in the report with `completed: 0`.
        for r in trace {
            sim.tenant_stats.entry(r.model).or_default().offered += 1;
        }
    }
    // Arrivals stream from the trace; the queue holds only pending work.
    let mut arrivals = ArrivalCursor::new(trace.iter().map(|r| r.arrival_ns));
    if let Some(interval_s) = cluster.autoscaler.eval_interval_s {
        let step = (interval_s * 1e9) as u64;
        if step > 0 {
            sim.events
                .schedule(step, FleetEvent::ScaleDecision { prewarm: None });
        }
    }
    // The horizon runs from the latest arrival, which need not be the
    // trace's last entry.
    let horizon = arrivals.last_ns().unwrap_or(0) + (cluster.drain_s * 1e9) as u64;

    let mut events_processed: u64 = 0;
    let mut truncated = false;
    let mut last_t = 0;
    loop {
        let Some((t, ev)) = arrivals.pop_merged(&mut sim.events, |i| trace[i].arrival_ns) else {
            // No arrival or event is left, yet requests still wait: a
            // starved tenant's requests wait for a cold node, and the last
            // node hosting another model just scaled to zero without any
            // later event to re-run the autoscaler. Re-run it once at the
            // last event's time; stop when it has nothing to start or
            // place.
            if sim.queue.is_empty() {
                break;
            }
            sim.drain(last_t, sched.as_mut());
            if sim.events.is_empty() {
                break;
            }
            continue;
        };
        last_t = t;
        if t > horizon {
            truncated = true;
            break;
        }
        events_processed += 1;
        match ev {
            FleetEvent::Arrival { req } => sim.on_arrival(t, req, sched.as_mut()),
            FleetEvent::Route { node } => sim.on_route(t, node),
            FleetEvent::RegistryFetchDone { node, epoch } => sim.on_fetch_done(node, epoch),
            FleetEvent::ColdStartStageDone { node, epoch } => {
                sim.on_stage_done(t, node, epoch, sched.as_mut());
            }
            FleetEvent::KeepAliveExpiry { node } => sim.on_keep_alive_expiry(t, node),
            FleetEvent::NodeCrash { node, epoch } => sim.on_crash(t, node, epoch, sched.as_mut()),
            FleetEvent::ScaleDecision { prewarm } => {
                sim.on_scale_decision(t, prewarm, sched.as_mut());
            }
            FleetEvent::PipelineShardDone { node, head, epoch } => {
                sim.on_pipeline_shard_done(t, node, head, epoch, sched.as_mut());
            }
            FleetEvent::IterationDone { node } => sim.on_iteration_done(t, node, sched.as_mut()),
        }
    }
    #[cfg(debug_assertions)]
    sim.index.check(&sim.nodes);
    let truncated = truncated || !sim.events.is_empty() || arrivals.remaining() > 0;
    // Prewarmed nodes that never got work by the end of the run count as
    // waste too (a node a request landed on cleared the flag).
    sim.prewarms_unused += sim.nodes.iter().filter(|n| n.prewarmed).count() as u64;

    let mut sorted: Vec<u64> = sim.ttfts.iter().map(|d| d.as_nanos() / 1_000).collect();
    sorted.sort_unstable();
    let q = |f: f64| -> u64 { quantile_us(&sorted, f) };
    let mean = if sorted.is_empty() {
        0
    } else {
        sorted.iter().sum::<u64>() / sorted.len() as u64
    };
    if let Some(tl) = tele {
        tl.inc("cluster_requests_offered_total", trace.len() as u64);
        tl.inc("cluster_requests_completed_total", sim.completed as u64);
        tl.gauge_max("cluster_makespan_us", sim.makespan_ns / 1_000);
    }
    let report = ClusterReport {
        policy: sched.name().to_string(),
        strategy: profile.strategy,
        offered: trace.len(),
        completed: sim.completed,
        cold_starts: sim.cold_starts,
        scale_to_zero_events: sim.scale_to_zero_events,
        fetch_retries: sim.fetch_retries,
        degraded_cold_starts: sim.degraded_cold_starts,
        node_failures: sim.node_failures,
        reroutes: sim.reroutes,
        makespan_ns: sim.makespan_ns,
        ttft_p50_us: q(0.5),
        ttft_p99_us: q(0.99),
        ttft_mean_us: mean,
        trace_fingerprint: fingerprint(trace),
        prewarm: cluster.prewarm.is_some().then_some(PrewarmReport {
            issued: sim.prewarms_issued,
            unused: sim.prewarms_unused,
        }),
        pipeline_starts: (pipeline_k >= 2).then_some(sim.pipeline_starts),
        tenants: sim
            .tenant_stats
            .iter_mut()
            .map(|(&model, stat)| {
                stat.ttfts_us.sort_unstable();
                TenantReport {
                    model,
                    offered: stat.offered,
                    completed: stat.completed,
                    cold_starts: stat.cold_starts,
                    ttft_p50_us: quantile_us(&stat.ttfts_us, 0.5),
                    ttft_p99_us: quantile_us(&stat.ttfts_us, 0.99),
                    slo_attained_pm: if stat.offered == 0 {
                        0
                    } else {
                        (stat.slo_attained as u64 * 1_000 / stat.offered as u64) as u32
                    },
                }
            })
            .collect(),
        cache: (sim.multi_tenant || cluster.cache.capacity != CacheCapacity::Unlimited).then_some(
            CacheReport {
                hits: sim.cache_hits,
                misses: sim.cache_misses,
                evictions: sim.cache_evictions,
            },
        ),
        registry: sim.ctx.cas.then_some(RegistryReport {
            bytes_fetched: sim.reg_bytes_fetched,
            bytes_resolved: sim.reg_bytes_resolved,
            chunk_hits: sim.reg_chunk_hits,
            chunk_misses: sim.reg_chunk_misses,
        }),
        nodes: sim
            .nodes
            .iter()
            .map(|n| NodeReport {
                gpu: n.spec.gpu.clone(),
                tp: n.spec.tp,
                cold_starts: n.cold_starts,
                cold_ns: n.cold_ns,
                served: n.served,
                busy_ns: n.busy_ns,
                work_ns: n.work_ns,
                cached_at_end: !n.cache.is_empty(),
            })
            .collect(),
    };
    let in_flight_at_end: usize = sim.nodes.iter().map(Node::load).sum();
    let starting_nodes_at_end = sim
        .nodes
        .iter()
        .filter(|n| n.state == NodeState::Starting)
        .count();
    FleetOutcome {
        report,
        stats: FleetStats {
            events_processed,
            events_cancelled: sim.events.cancelled_total(),
            arrived: sim.arrived,
            queued_at_end: sim.queue.len(),
            in_flight_at_end,
            starting_nodes_at_end,
            horizon_truncated: truncated,
        },
        ttfts: sim.ttfts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medusa_workload::{ArrivalPattern, TraceConfig};

    fn perf(loading_ms: u64) -> PerfModel {
        PerfModel::from_tables(
            Strategy::Vanilla,
            "toy",
            SimDuration::from_millis(loading_ms),
            vec![1, 8, 32],
            vec![
                SimDuration::from_millis(5),
                SimDuration::from_millis(6),
                SimDuration::from_millis(8),
            ],
            vec![
                (100, SimDuration::from_millis(20)),
                (200, SimDuration::from_millis(40)),
            ],
        )
    }

    fn medusa_profile(loading_ms: u64, fetch_ms: u64) -> FleetProfile {
        let mut p = perf(loading_ms);
        p.strategy = Strategy::Medusa;
        FleetProfile::from_perf(Strategy::Medusa, p).with_fetch(SimDuration::from_millis(fetch_ms))
    }

    fn req(id: u64, arrival_ms: u64, prompt: u32, output: u32) -> Request {
        Request {
            id,
            arrival_ns: arrival_ms * 1_000_000,
            prompt_tokens: prompt,
            output_tokens: output,
            model: 0,
        }
    }

    fn mt_req(id: u64, arrival_ms: u64, model: u32) -> Request {
        Request {
            id,
            arrival_ns: arrival_ms * 1_000_000,
            prompt_tokens: 100,
            output_tokens: 1,
            model,
        }
    }

    #[test]
    fn single_request_pays_fetch_plus_loading_plus_prefill_on_cache_miss() {
        let profile = medusa_profile(500, 300);
        let spec = ClusterSpec::uniform(2);
        let out = simulate_fleet(
            &profile,
            &spec,
            Policy::ColdStartAware,
            &[req(0, 0, 100, 1)],
        );
        assert_eq!(out.ttfts.len(), 1);
        // fetch 300 + loading 500 + prefill 20.
        assert_eq!(out.ttfts[0], SimDuration::from_millis(820));
        assert_eq!(out.report.cold_starts, 1);
        assert!(out.report.nodes[0].cached_at_end);
        assert!(!out.report.nodes[1].cached_at_end, "only node 0 started");
    }

    #[test]
    fn cached_node_skips_the_fetch() {
        let profile = medusa_profile(500, 300);
        let spec = ClusterSpec::uniform(2).with_cached_prefix(1);
        let out = simulate_fleet(
            &profile,
            &spec,
            Policy::ColdStartAware,
            &[req(0, 0, 100, 1)],
        );
        assert_eq!(out.ttfts[0], SimDuration::from_millis(520));
    }

    #[test]
    fn coldstart_aware_prefers_the_cached_cold_node() {
        let profile = medusa_profile(500, 300);
        // Node 1 (not 0) holds the artifact: the policy must pick it.
        let mut spec = ClusterSpec::uniform(3);
        spec.nodes[1].cached = true;
        let out = simulate_fleet(
            &profile,
            &spec,
            Policy::ColdStartAware,
            &[req(0, 0, 100, 1)],
        );
        assert_eq!(out.report.nodes[1].cold_starts, 1);
        assert_eq!(out.report.nodes[0].cold_starts, 0);
        assert_eq!(out.ttfts[0], SimDuration::from_millis(520));
    }

    #[test]
    fn vanilla_fleet_never_fetches() {
        let profile = FleetProfile::from_perf(Strategy::Vanilla, perf(800))
            .with_fetch(SimDuration::from_millis(300));
        let spec = ClusterSpec::uniform(1);
        let out = simulate_fleet(&profile, &spec, Policy::LeastLoaded, &[req(0, 0, 100, 1)]);
        assert_eq!(out.ttfts[0], SimDuration::from_millis(820));
        assert!(
            !out.report.nodes[0].cached_at_end,
            "vanilla materializes nothing"
        );
    }

    #[test]
    fn round_robin_rotates_over_the_fleet() {
        let profile = medusa_profile(100, 0);
        let spec = ClusterSpec::uniform(3);
        let trace: Vec<Request> = (0..3).map(|i| req(i, 0, 100, 1)).collect();
        let out = simulate_fleet(&profile, &spec, Policy::RoundRobin, &trace);
        assert_eq!(out.report.cold_starts, 3, "rotation wakes each node once");
        for n in &out.report.nodes {
            assert_eq!(n.served, 1);
        }
    }

    #[test]
    fn least_loaded_wakes_the_fleet_on_a_burst_but_coldstart_aware_packs() {
        let profile = medusa_profile(500, 200);
        let spec = ClusterSpec::uniform(4);
        // 8 simultaneous short requests fit comfortably on one node.
        let trace: Vec<Request> = (0..8).map(|i| req(i, 0, 100, 2)).collect();
        let ll = simulate_fleet(&profile, &spec, Policy::LeastLoaded, &trace);
        let ca = simulate_fleet(&profile, &spec, Policy::ColdStartAware, &trace);
        assert_eq!(ll.report.cold_starts, 4, "least-loaded fans out");
        assert_eq!(ca.report.cold_starts, 1, "coldstart-aware packs");
        assert_eq!(ll.report.completed, 8);
        assert_eq!(ca.report.completed, 8);
    }

    #[test]
    fn autoscaler_starts_nodes_when_backlog_exceeds_target_depth() {
        let profile = medusa_profile(500, 0);
        let mut spec = ClusterSpec::uniform(4);
        spec.autoscaler.target_queue_depth = 2;
        spec.max_running = 2; // routing saturates fast → global backlog
        let trace: Vec<Request> = (0..24).map(|i| req(i, 0, 100, 5)).collect();
        let out = simulate_fleet(&profile, &spec, Policy::ColdStartAware, &trace);
        assert!(
            out.report.cold_starts >= 2,
            "backlog must wake extra nodes: {:?}",
            out.report
        );
        assert_eq!(out.report.completed, 24);
    }

    #[test]
    fn keep_alive_expiry_scales_to_zero_and_rewarm_skips_the_fetch() {
        let profile = medusa_profile(500, 300);
        let mut spec = ClusterSpec::uniform(1);
        spec.autoscaler.keep_alive_s = 5.0;
        let trace = vec![req(0, 0, 100, 1), req(1, 30_000, 100, 1)];
        let out = simulate_fleet(&profile, &spec, Policy::ColdStartAware, &trace);
        assert_eq!(out.report.cold_starts, 2, "node retired between requests");
        // One expiry between the requests, one after the second completes.
        assert_eq!(out.report.scale_to_zero_events, 2);
        // First start: fetch 300 + load 500 + prefill 20. Re-warm: the
        // cache survived scale-to-zero, so only load 500 + prefill 20.
        assert_eq!(out.ttfts[0], SimDuration::from_millis(820));
        assert_eq!(out.ttfts[1], SimDuration::from_millis(520));

        // On the paper's testbed (warm-container pool, launch = loading):
        // a 10 s keep-alive retires the instance inside the 30 s gap, so
        // the second request pays exactly cold start 1000 + prefill 20;
        // the default 60 s keep-alive survives the gap and it pays only
        // the prefill.
        let vanilla = FleetProfile::from_perf(Strategy::Vanilla, perf(1000));
        let short = ClusterSpec::paper_testbed().with_keep_alive(10.0);
        let out = simulate_fleet(&vanilla, &short, Policy::ColdStartAware, &trace);
        assert_eq!(out.report.cold_starts, 2, "scale-down forces a new start");
        assert_eq!(out.ttfts[1], SimDuration::from_millis(1020));
        let long = ClusterSpec::paper_testbed();
        let out = simulate_fleet(&vanilla, &long, Policy::ColdStartAware, &trace);
        assert_eq!(out.report.cold_starts, 1);
        assert_eq!(out.ttfts[1], SimDuration::from_millis(20));
    }

    #[test]
    fn paper_testbed_batches_decode_across_sequences() {
        let profile = FleetProfile::from_perf(Strategy::Vanilla, perf(100));
        let trace = vec![req(0, 0, 100, 10), req(1, 0, 100, 10)];
        let out = simulate_fleet(
            &profile,
            &ClusterSpec::paper_testbed(),
            Policy::ColdStartAware,
            &trace,
        );
        assert_eq!(out.report.completed, 2);
        assert_eq!(out.report.cold_starts, 1, "both fit one instance");
        // Cold start 100, two prefills of 20, then the 9 remaining tokens
        // of both sequences as 9 batch-2 decode steps of 6 ms. Decoding
        // per sequence would end 45 ms later.
        let expected_ms = 100 + 20 + 20 + 9 * 6;
        assert_eq!(out.report.makespan_ns, expected_ms * 1_000_000);
    }

    #[test]
    fn kv_capacity_serialises_admission() {
        // Each request reserves 150 KV tokens; a 300-token node admits two
        // at a time, so later admissions wait for releases.
        let trace: Vec<Request> = (0..8).map(|i| req(i, 0, 100, 50)).collect();
        let spec = ClusterSpec::uniform(1);
        let run = |p: PerfModel| {
            let profile = FleetProfile::from_perf(Strategy::Vanilla, p);
            simulate_fleet(&profile, &spec, Policy::ColdStartAware, &trace)
        };
        let tight = run(perf(100).with_kv_capacity(300));
        assert_eq!(tight.report.completed, 8, "everything eventually completes");
        let max = |o: &FleetOutcome| *o.ttfts.iter().max().unwrap();
        let min = |o: &FleetOutcome| *o.ttfts.iter().min().unwrap();
        assert!(
            max(&tight).as_nanos() - min(&tight).as_nanos()
                > SimDuration::from_millis(200).as_nanos(),
            "admission must serialise"
        );
        let roomy = run(perf(100));
        assert!(
            max(&roomy) < max(&tight),
            "kv pressure must raise tail TTFT"
        );
    }

    #[test]
    fn burst_scale_up_stops_at_the_node_count() {
        let profile = FleetProfile::from_perf(Strategy::Vanilla, perf(500));
        let trace: Vec<Request> = (0..200).map(|i| req(i, 0, 100, 50)).collect();
        let out = simulate_fleet(
            &profile,
            &ClusterSpec::paper_testbed(),
            Policy::ColdStartAware,
            &trace,
        );
        assert_eq!(out.report.cold_starts, 4, "one start per node, no more");
        assert_eq!(out.report.completed, 200);
    }

    #[test]
    fn faster_cold_start_lowers_the_tail() {
        let trace: Vec<Request> = (0..120).map(|i| req(i, i * 30, 150, 40)).collect();
        let run = |loading_ms| {
            let profile = FleetProfile::from_perf(Strategy::Vanilla, perf(loading_ms));
            let spec = ClusterSpec::paper_testbed();
            simulate_fleet(&profile, &spec, Policy::ColdStartAware, &trace).report
        };
        let (slow, fast) = (run(3000), run(800));
        assert!(
            fast.ttft_p99_us < slow.ttft_p99_us,
            "p99 {} !< {}",
            fast.ttft_p99_us,
            slow.ttft_p99_us
        );
        assert!(fast.ttft_mean_us <= slow.ttft_mean_us);
    }

    #[test]
    fn scale_to_zero_disabled_pins_warm_nodes() {
        let profile = medusa_profile(500, 300);
        let mut spec = ClusterSpec::uniform(1);
        spec.autoscaler.keep_alive_s = 5.0;
        spec.autoscaler.scale_to_zero = false;
        let trace = vec![req(0, 0, 100, 1), req(1, 30_000, 100, 1)];
        let out = simulate_fleet(&profile, &spec, Policy::ColdStartAware, &trace);
        assert_eq!(out.report.cold_starts, 1);
        assert_eq!(out.ttfts[1], SimDuration::from_millis(20), "warm hit");
    }

    #[test]
    fn tp_nodes_aggregate_per_rank_work() {
        let base = medusa_profile(500, 0);
        let tp2 = base
            .clone()
            .with_coldstart_work(SimDuration::from_millis(1000)); // 2 ranks × 500ms
        let trace = vec![req(0, 0, 100, 3)];
        let out1 = simulate_fleet(
            &base,
            &ClusterSpec::uniform(1),
            Policy::ColdStartAware,
            &trace,
        );
        let out2 = simulate_fleet(
            &tp2,
            &ClusterSpec::uniform(1).with_tp(2),
            Policy::ColdStartAware,
            &trace,
        );
        let n1 = &out1.report.nodes[0];
        let n2 = &out2.report.nodes[0];
        assert_eq!(n1.cold_ns, n2.cold_ns, "same wall-clock makespan");
        assert_eq!(
            n2.work_ns,
            2 * n1.work_ns,
            "tp=2 consumes twice the rank work"
        );
        assert_eq!(out1.ttfts, out2.ttfts, "wall-clock TTFT is tp-invariant");
    }

    #[test]
    fn reports_and_telemetry_are_deterministic_per_trace() {
        let profile = medusa_profile(400, 150);
        let spec = ClusterSpec::uniform(4).with_cached_prefix(2);
        let trace = TraceConfig::sharegpt(6.0, 40.0)
            .with_seed(42)
            .with_pattern(ArrivalPattern::sharegpt_bursty())
            .generate();
        let run = || {
            let tele = TelemetryRegistry::new();
            let out =
                simulate_fleet_traced(&profile, &spec, Policy::ColdStartAware, &trace, Some(&tele));
            (
                out.report.to_json(),
                medusa_telemetry::export::prometheus::render(&tele.snapshot()),
            )
        };
        assert_eq!(run(), run(), "same trace must export byte-identically");
    }

    #[test]
    fn report_json_round_trips() {
        let profile = medusa_profile(400, 150);
        let spec = ClusterSpec::uniform(2);
        let trace: Vec<Request> = (0..5).map(|i| req(i, i * 100, 100, 3)).collect();
        let out = simulate_fleet(&profile, &spec, Policy::LeastLoaded, &trace);
        let back = ClusterReport::from_json(&out.report.to_json()).expect("parse");
        assert_eq!(back, out.report);
        assert_eq!(back.trace_fingerprint, fingerprint(&trace));
    }

    #[test]
    fn telemetry_records_decisions_and_per_node_histograms() {
        let profile = medusa_profile(400, 0);
        let spec = ClusterSpec::uniform(2);
        let trace: Vec<Request> = (0..4).map(|i| req(i, 0, 100, 1)).collect();
        let tele = TelemetryRegistry::new();
        let out =
            simulate_fleet_traced(&profile, &spec, Policy::ColdStartAware, &trace, Some(&tele));
        let snap = tele.snapshot();
        assert_eq!(
            snap.counter("cluster_cold_starts_total"),
            Some(out.report.cold_starts as u64)
        );
        assert_eq!(snap.counter("cluster_requests_offered_total"), Some(4));
        let routes = snap
            .spans
            .iter()
            .filter(|s| s.name.starts_with("route/"))
            .count();
        assert_eq!(routes, 4, "one scheduler-decision span per request");
        assert!(snap.histogram("cluster_node0_ttft_us").is_some());
        assert!(snap.histogram("cluster_node0_queue_delay_us").is_some());
    }

    #[test]
    fn empty_trace_is_handled() {
        let profile = medusa_profile(400, 0);
        let out = simulate_fleet(&profile, &ClusterSpec::uniform(2), Policy::LeastLoaded, &[]);
        assert_eq!(out.report.offered, 0);
        assert_eq!(out.report.ttft_p99_us, 0);
        assert_eq!(out.report.cold_starts, 0);
    }

    fn flaky_registry() -> FetchPolicy {
        FetchPolicy {
            timeout_s: 1.0,
            retry_budget: 3,
            backoff_base_s: 0.5,
            backoff_max_s: 2.0,
        }
    }

    #[test]
    fn exhausted_registry_budget_degrades_to_vanilla_without_caching() {
        let profile = medusa_profile(500, 300).with_degraded_loading(SimDuration::from_millis(800));
        let spec = ClusterSpec::uniform(1)
            .with_fetch_policy(flaky_registry())
            .with_faults(ClusterFaults {
                seed: 1,
                registry_fail_per_mille: 1000,
                node_crash_per_mille: 0,
            });
        let out = simulate_fleet(
            &profile,
            &spec,
            Policy::ColdStartAware,
            &[req(0, 0, 100, 1)],
        );
        // 4 failed attempts × 1 s timeout, backoffs 0.5 + 1 + 2 s, then the
        // degraded vanilla load 800 ms + prefill 20 ms.
        assert_eq!(out.ttfts[0], SimDuration::from_millis(8320));
        assert_eq!(out.report.degraded_cold_starts, 1);
        assert_eq!(out.report.fetch_retries, 3);
        assert!(
            !out.report.nodes[0].cached_at_end,
            "a degraded start materializes nothing"
        );
    }

    #[test]
    fn transient_registry_failure_retries_with_backoff_and_still_fetches() {
        // A seed whose first attempt fails and whose retry succeeds.
        let seed = (0..1000u64)
            .find(|&s| roll_per_mille(s, 0, 1, 0) < 500 && roll_per_mille(s, 0, 1, 1) >= 500)
            .expect("such a seed exists");
        let profile = medusa_profile(500, 300);
        let spec = ClusterSpec::uniform(1)
            .with_fetch_policy(flaky_registry())
            .with_faults(ClusterFaults {
                seed,
                registry_fail_per_mille: 500,
                node_crash_per_mille: 0,
            });
        let out = simulate_fleet(
            &profile,
            &spec,
            Policy::ColdStartAware,
            &[req(0, 0, 100, 1)],
        );
        // Timeout 1 s + backoff 0.5 s, then fetch 300 + load 500 + prefill
        // 20 ms as usual.
        assert_eq!(out.ttfts[0], SimDuration::from_millis(2320));
        assert_eq!(out.report.fetch_retries, 1);
        assert_eq!(out.report.degraded_cold_starts, 0);
        assert!(out.report.nodes[0].cached_at_end);
    }

    #[test]
    fn node_crash_mid_cold_start_reroutes_and_restarts() {
        // A seed whose first start crashes and whose second survives.
        let crash = |s: u64, start: u32| roll_per_mille(s ^ 0xc7a5_11fe, 0, start, 0);
        let seed = (0..1000u64)
            .find(|&s| crash(s, 1) < 500 && crash(s, 2) >= 500)
            .expect("such a seed exists");
        let profile = medusa_profile(500, 300);
        let spec = ClusterSpec::uniform(1).with_faults(ClusterFaults {
            seed,
            registry_fail_per_mille: 0,
            node_crash_per_mille: 500,
        });
        // LeastLoaded places the request on the starting node (ColdStartAware
        // would hold it in the global queue), so the crash must re-route it.
        let out = simulate_fleet(&profile, &spec, Policy::LeastLoaded, &[req(0, 0, 100, 1)]);
        assert_eq!(out.report.node_failures, 1);
        assert_eq!(out.report.reroutes, 1);
        assert_eq!(out.report.cold_starts, 2, "crashed start plus the retry");
        assert_eq!(out.report.completed, 1);
        // Crash at 400 ms (half of fetch 300 + load 500), restart pays the
        // full 800 ms again (the crashed fetch cached nothing), prefill 20.
        assert_eq!(out.ttfts[0], SimDuration::from_millis(1220));
    }

    #[test]
    fn faulty_runs_are_deterministic_per_seed() {
        let profile = medusa_profile(400, 150).with_degraded_loading(SimDuration::from_millis(700));
        let spec = ClusterSpec::uniform(4)
            .with_fetch_policy(flaky_registry())
            .with_faults(ClusterFaults {
                seed: 9,
                registry_fail_per_mille: 400,
                node_crash_per_mille: 100,
            });
        let trace = TraceConfig::sharegpt(6.0, 40.0)
            .with_seed(42)
            .with_pattern(ArrivalPattern::sharegpt_bursty())
            .generate();
        let run = || {
            let tele = TelemetryRegistry::new();
            let out =
                simulate_fleet_traced(&profile, &spec, Policy::ColdStartAware, &trace, Some(&tele));
            (
                out.report.to_json(),
                medusa_telemetry::export::prometheus::render(&tele.snapshot()),
            )
        };
        let (report, prom) = run();
        assert_eq!((report.clone(), prom.clone()), run());
        let parsed = ClusterReport::from_json(&report).expect("parse");
        assert_eq!(parsed.offered, trace.len());
    }

    #[test]
    fn policy_parse_round_trips() {
        for p in Policy::ALL {
            let name = p.build().name();
            assert_eq!(Policy::parse(name), Some(p));
        }
        assert_eq!(Policy::parse("nope"), None);
    }

    #[test]
    fn eviction_policy_parse_round_trips() {
        for e in EvictionPolicy::ALL {
            assert_eq!(EvictionPolicy::parse(e.name()), Some(e));
        }
        assert_eq!(EvictionPolicy::parse("random"), None);
    }

    #[test]
    fn single_tenant_report_json_has_no_tenant_or_cache_fields() {
        let profile = medusa_profile(500, 300);
        let spec = ClusterSpec::uniform(2);
        let out = simulate_fleet(
            &profile,
            &spec,
            Policy::ColdStartAware,
            &[req(0, 0, 100, 1)],
        );
        let json = out.report.to_json();
        assert!(
            !json.contains("\"tenants\"") && !json.contains("\"cache\""),
            "single-tenant reports must stay byte-compatible: {json}"
        );
        let parsed = ClusterReport::from_json(&json).expect("parse");
        assert!(parsed.tenants.is_empty());
        assert!(parsed.cache.is_none());
    }

    #[test]
    fn multi_tenant_report_json_round_trips_tenants_and_cache() {
        let profile = medusa_profile(500, 300).with_scaled_models(4);
        let spec = ClusterSpec::uniform(2).with_cache(CacheConfig {
            capacity: CacheCapacity::Artifacts(1),
            eviction: EvictionPolicy::Lru,
        });
        let trace = vec![mt_req(0, 0, 1), mt_req(1, 3_000, 2), mt_req(2, 6_000, 1)];
        let out = simulate_fleet(&profile, &spec, Policy::ColdStartAware, &trace);
        let json = out.report.to_json();
        let parsed = ClusterReport::from_json(&json).expect("parse");
        assert_eq!(parsed.tenants.len(), 2, "{json}");
        assert_eq!(parsed.tenants[0].model, 1);
        assert_eq!(parsed.tenants[0].offered, 2);
        assert_eq!(parsed.tenants[1].model, 2);
        let cache = parsed.cache.expect("cache report present");
        assert_eq!(cache.hits + cache.misses, out.report.cold_starts as u64);
        assert_eq!(parsed, out.report);
    }

    #[test]
    fn per_model_costs_price_cold_starts_differently() {
        let profile = medusa_profile(500, 300).with_scaled_models(4);
        let spec = ClusterSpec::uniform(1);
        // Model 0 is the base table exactly; model 3 costs (4+3)/4 = 1.75x.
        let base = simulate_fleet(&profile, &spec, Policy::ColdStartAware, &[mt_req(0, 0, 0)]);
        let tail = simulate_fleet(&profile, &spec, Policy::ColdStartAware, &[mt_req(0, 0, 3)]);
        // fetch 300 + loading 500 + prefill 20.
        assert_eq!(base.ttfts[0], SimDuration::from_millis(820));
        // fetch 525 + loading 875 + prefill 20.
        assert_eq!(tail.ttfts[0], SimDuration::from_millis(1420));
    }

    #[test]
    fn bounded_cache_evicts_lru_victim_and_counts_it() {
        let profile = medusa_profile(400, 200).with_scaled_models(3);
        let spec = ClusterSpec::uniform(1)
            .with_cache(CacheConfig {
                capacity: CacheCapacity::Artifacts(1),
                eviction: EvictionPolicy::Lru,
            })
            .with_keep_alive(0.5);
        // Sequential one-shot requests with 10s gaps: the single node
        // scales to zero between each, and the 1-artifact cache can only
        // retain the most recent model.
        let trace = vec![mt_req(0, 0, 0), mt_req(1, 10_000, 1), mt_req(2, 20_000, 0)];
        let out = simulate_fleet(&profile, &spec, Policy::ColdStartAware, &trace);
        assert_eq!(out.report.cold_starts, 3);
        let cache = out.report.cache.expect("bounded cache reports counters");
        // Every start misses: model 1 evicts model 0, model 0 evicts 1.
        assert_eq!(cache.hits, 0);
        assert_eq!(cache.misses, 3);
        assert_eq!(cache.evictions, 2);
    }

    #[test]
    fn unbounded_cache_turns_repeat_models_into_hits() {
        let profile = medusa_profile(400, 200).with_scaled_models(3);
        let spec = ClusterSpec::uniform(1).with_keep_alive(0.5);
        let trace = vec![mt_req(0, 0, 0), mt_req(1, 10_000, 1), mt_req(2, 20_000, 0)];
        let out = simulate_fleet(&profile, &spec, Policy::ColdStartAware, &trace);
        assert_eq!(out.report.cold_starts, 3);
        let cache = out.report.cache.expect("multi-tenant run reports cache");
        assert_eq!(cache.misses, 2, "models 0 and 1 fetch once each");
        assert_eq!(cache.hits, 1, "model 0 re-warm hits the cache");
        assert_eq!(cache.evictions, 0);
    }

    #[test]
    fn cost_aware_eviction_keeps_the_expensive_artifact() {
        // Capacity 1 forces an eviction choice between the resident model
        // and the incoming one... but the incoming model is never its own
        // victim, so capacity 2 with three models exercises the policy:
        // after models 2 (expensive) and 0 (cheap) are resident, model 1's
        // insert must evict — Lru evicts model 2 (oldest), CostAware
        // evicts model 0 (cheapest to rematerialize).
        let profile = medusa_profile(400, 200).with_scaled_models(3);
        let trace = vec![
            mt_req(0, 0, 2),
            mt_req(1, 10_000, 0),
            mt_req(2, 20_000, 1),
            mt_req(3, 30_000, 2),
        ];
        let run = |eviction| {
            let spec = ClusterSpec::uniform(1)
                .with_cache(CacheConfig {
                    capacity: CacheCapacity::Artifacts(2),
                    eviction,
                })
                .with_keep_alive(0.5);
            simulate_fleet(&profile, &spec, Policy::ColdStartAware, &trace)
        };
        let lru = run(EvictionPolicy::Lru).report;
        let cost = run(EvictionPolicy::CostAware).report;
        let (lru_c, cost_c) = (lru.cache.unwrap(), cost.cache.unwrap());
        assert_eq!(lru_c.hits, 0, "Lru evicted model 2 before its return");
        assert_eq!(cost_c.hits, 1, "CostAware kept model 2 resident");
        // Keeping the expensive artifact resident shaves model 2's second
        // cold start by the saved registry fetch, so the aggregate mean
        // TTFT is strictly lower (the compulsory first miss keeps the
        // worst case — and thus p99-of-4 — identical).
        assert!(
            cost.ttft_mean_us < lru.ttft_mean_us,
            "cost-aware mean {} !< lru mean {}",
            cost.ttft_mean_us,
            lru.ttft_mean_us
        );
    }

    #[test]
    fn warm_nodes_only_accept_their_resident_model() {
        let profile = medusa_profile(400, 200).with_scaled_models(2);
        // Two models arriving together on a two-node fleet: affinity must
        // fan them out to separate nodes rather than queueing both behind
        // one warm instance.
        let spec = ClusterSpec::uniform(2);
        let trace = vec![mt_req(0, 0, 0), mt_req(1, 10, 1)];
        let out = simulate_fleet(&profile, &spec, Policy::ColdStartAware, &trace);
        assert_eq!(out.report.cold_starts, 2, "one start per model");
        let served: Vec<u32> = out.report.nodes.iter().map(|n| n.served).collect();
        assert_eq!(served, vec![1, 1], "each node serves exactly one model");
    }

    #[test]
    fn multi_tenant_runs_are_deterministic_per_seed() {
        let profile = medusa_profile(400, 150).with_scaled_models(6);
        let spec = ClusterSpec::uniform(4)
            .with_cache(CacheConfig {
                capacity: CacheCapacity::Artifacts(2),
                eviction: EvictionPolicy::CostAware,
            })
            .with_faults(ClusterFaults {
                seed: 9,
                registry_fail_per_mille: 300,
                node_crash_per_mille: 100,
            })
            .with_fetch_policy(flaky_registry());
        let trace = TraceConfig::sharegpt(6.0, 40.0)
            .with_seed(42)
            .with_models(medusa_workload::ModelMix::Zipf { models: 6, s: 1.0 })
            .with_pattern(ArrivalPattern::sharegpt_bursty())
            .generate();
        assert!(trace.iter().any(|r| r.model != 0), "trace is multi-tenant");
        let a = simulate_fleet(&profile, &spec, Policy::ColdStartAware, &trace);
        let b = simulate_fleet(&profile, &spec, Policy::ColdStartAware, &trace);
        assert_eq!(a.report.to_json(), b.report.to_json());
        assert_eq!(a.conservation_residual(), 0);
        let offered: usize = a.report.tenants.iter().map(|t| t.offered).sum();
        assert_eq!(offered, trace.len(), "tenant offered counts partition");
    }

    #[test]
    fn pick_cold_lets_a_warm_cache_node_beat_an_empty_one() {
        let profile = medusa_profile(500, 300);
        // Node 1 holds the artifact; node 0 is empty but earlier by index.
        let mut spec = ClusterSpec::uniform(2);
        spec.nodes[1].cached = true;
        let nodes: Vec<Node> = spec.nodes.iter().map(|s| Node::new(s.clone(), 1)).collect();
        let index = FleetIndex::new(&nodes);
        let ctx = RouteCtx::new(&profile, Box::new(WholeArtifact), false, 32, 1);
        let fleet = FleetQuery::new(&nodes, &index, &ctx, 0, 0);
        assert_eq!(fleet.start_cost(0), 800_000_000, "fetch + restore");
        assert_eq!(fleet.start_cost(1), 500_000_000, "restore only");
        assert_eq!(ColdStartAware.pick_cold(&fleet), Some(1));
        assert_eq!(ServerlessLlmLocality::default().pick_cold(&fleet), Some(1));
        // The trait's default impl stays index-first and cost-oblivious on
        // purpose: the committed goldens pin RoundRobin/LeastLoaded to it.
        struct Oblivious;
        impl Scheduler for Oblivious {
            fn name(&self) -> &'static str {
                "oblivious"
            }
            fn route(&mut self, _: &FleetQuery<'_>) -> Decision {
                Decision::Queue
            }
        }
        assert_eq!(Oblivious.pick_cold(&fleet), Some(0));
    }

    #[test]
    fn locality_routes_to_the_cheapest_estimated_start() {
        let profile = medusa_profile(500, 300);
        // Node 2 (not 0) holds the artifact: the cache-hit start is the
        // cheapest estimated first token, so locality must pick it.
        let mut spec = ClusterSpec::uniform(3);
        spec.nodes[2].cached = true;
        let out = simulate_fleet(&profile, &spec, Policy::Locality, &[req(0, 0, 100, 1)]);
        assert_eq!(out.report.policy, "locality");
        assert_eq!(out.report.nodes[2].cold_starts, 1);
        assert_eq!(out.ttfts[0], SimDuration::from_millis(520));
        // And on a simultaneous burst, a start already in flight is
        // cheaper than waking another cold node: locality packs where
        // least-loaded would fan out across the fleet.
        let burst: Vec<Request> = (0..8).map(|i| req(i, 0, 100, 2)).collect();
        let packed = simulate_fleet(&profile, &ClusterSpec::uniform(4), Policy::Locality, &burst);
        assert_eq!(packed.report.cold_starts, 1, "locality packs the burst");
        assert_eq!(packed.report.completed, 8);
    }

    #[test]
    fn prewarm_estimator_warms_the_node_ahead_of_periodic_arrivals() {
        let profile = medusa_profile(500, 300);
        // Keep-alive (2 s) far shorter than the 10 s arrival period: the
        // reactive fleet pays a cold start on every arrival.
        let base = ClusterSpec::uniform(1).with_keep_alive(2.0);
        let trace: Vec<Request> = (0..5).map(|i| req(i, i * 10_000, 100, 1)).collect();
        let reactive = simulate_fleet(&profile, &base, Policy::Locality, &trace);
        let spec = base.clone().with_prewarm(PrewarmConfig::default());
        let predictive = simulate_fleet(&profile, &spec, Policy::Locality, &trace);
        let counters = predictive.report.prewarm.expect("prewarm counters");
        assert!(counters.issued >= 3, "estimator fired: {counters:?}");
        assert!(counters.unused <= counters.issued);
        // One gap of history suffices: every arrival from the third on
        // lands on a predictively warmed node and pays prefill only.
        assert_eq!(predictive.ttfts[2], SimDuration::from_millis(20));
        let sum = |out: &FleetOutcome| out.ttfts.iter().map(|d| d.as_nanos()).sum::<u64>();
        assert!(sum(&predictive) < sum(&reactive));
        assert_eq!(reactive.report.prewarm, None, "knob off ⇒ field omitted");
        assert_eq!(predictive.conservation_residual(), 0);
    }

    #[test]
    fn pipeline_cold_start_halves_time_to_first_token() {
        // A 100×-class artifact: fetch 2 s + restore 4 s dominates TTFT.
        let profile = medusa_profile(4000, 2000);
        let one = req(0, 0, 100, 1);
        let single = simulate_fleet(&profile, &ClusterSpec::uniform(2), Policy::Locality, &[one]);
        let piped = simulate_fleet(&profile, &ClusterSpec::uniform(2), Policy::Pipeline, &[one]);
        assert_eq!(single.ttfts[0], SimDuration::from_millis(6020));
        // Two stages of (2000 + 4000) / 2 = 3000 ms each; the first token
        // ships as soon as the head's own stage lands.
        assert_eq!(piped.ttfts[0], SimDuration::from_millis(3020));
        assert_eq!(piped.report.policy, "pipeline");
        assert_eq!(piped.report.pipeline_starts, Some(1));
        assert_eq!(single.report.pipeline_starts, None, "knob off ⇒ omitted");
        assert_eq!(piped.report.cold_starts, 1, "helpers are not cold starts");
        assert_eq!(piped.report.nodes[1].served, 0, "helper released to cold");
        assert_eq!(piped.conservation_residual(), 0);
        // With no helper available the pipeline degenerates to the
        // single-node timeline instead of stalling.
        let solo = simulate_fleet(&profile, &ClusterSpec::uniform(1), Policy::Pipeline, &[one]);
        assert_eq!(solo.ttfts[0], SimDuration::from_millis(6020));
        assert_eq!(solo.report.pipeline_starts, Some(0));
    }

    #[test]
    fn pipeline_crash_tears_down_the_group_and_reroutes() {
        // A seed whose first (pipelined) head start crashes and whose
        // retry — head roll (node 0, start 2, attempt 0) and helper roll
        // (node 1, start 2, attempt 1) — survives.
        let crash =
            |s: u64, n: usize, start: u32, att: u32| roll_per_mille(s ^ 0xc7a5_11fe, n, start, att);
        let seed = (0..4000u64)
            .find(|&s| {
                crash(s, 0, 1, 0) < 500 && crash(s, 0, 2, 0) >= 500 && crash(s, 1, 2, 1) >= 500
            })
            .expect("such a seed exists");
        let profile = medusa_profile(500, 300);
        let spec = ClusterSpec::uniform(2).with_faults(ClusterFaults {
            seed,
            registry_fail_per_mille: 0,
            node_crash_per_mille: 500,
        });
        let out = simulate_fleet(&profile, &spec, Policy::Pipeline, &[req(0, 0, 100, 1)]);
        assert_eq!(out.report.node_failures, 1, "one failure per group crash");
        assert_eq!(out.report.reroutes, 1);
        assert_eq!(out.report.cold_starts, 2, "crashed head start plus retry");
        assert_eq!(out.report.pipeline_starts, Some(2));
        assert_eq!(out.report.completed, 1);
        // Head stage span (300 + 500) / 2 = 400 ms, crash at its midpoint
        // (200 ms); the retry pays the full sharded start again: first
        // token at 200 + 400 + 20 prefill.
        assert_eq!(out.ttfts[0], SimDuration::from_millis(620));
        // The teardown retracted the head's pending ready stage and the
        // helper's shard event via their tokens (the pipelined fetch had
        // already landed at 150 ms, before the crash).
        assert!(
            out.stats.events_cancelled >= 2,
            "stages must be retracted, not left to fire stale: {:?}",
            out.stats
        );
        assert_eq!(out.conservation_residual(), 0);
    }

    /// Two-model catalog sharing chunk `0xA0`: model 0 = {A0, B0},
    /// model 1 = {A0, C0}, 1000 bytes each.
    fn shared_chunk_catalog() -> RegistryCatalog {
        let unit = |digest: u64| FetchUnit {
            digest,
            bytes: 1000,
        };
        RegistryCatalog {
            models: vec![
                ModelManifest {
                    units: vec![unit(0xA0), unit(0xB0)],
                },
                ModelManifest {
                    units: vec![unit(0xA0), unit(0xC0)],
                },
            ],
        }
    }

    #[test]
    fn cas_fleet_transfers_only_the_missing_chunks_and_reports_counters() {
        let profile = medusa_profile(500, 300);
        let spec = ClusterSpec::uniform(1)
            .with_registry_mode(RegistryMode::ContentAddressed(shared_chunk_catalog()))
            .with_keep_alive(0.5);
        // Model 0 then model 1 with a scale-to-zero gap between: the second
        // start resolves shared chunk A0 from the node's residency and only
        // transfers C0, so its fetch costs half the whole-artifact penalty.
        let trace = vec![mt_req(0, 0, 0), mt_req(1, 10_000, 1)];
        let out = simulate_fleet(&profile, &spec, Policy::ColdStartAware, &trace);
        // fetch 300 (2000/2000 bytes) + loading 500 + prefill 20.
        assert_eq!(out.ttfts[0], SimDuration::from_millis(820));
        // fetch 150 (1000/2000 bytes) + loading 500 + prefill 20.
        assert_eq!(out.ttfts[1], SimDuration::from_millis(670));
        let reg = out.report.registry.expect("cas run reports counters");
        assert_eq!(reg.bytes_fetched, 3000, "A0+B0 then C0 only");
        assert_eq!(reg.bytes_resolved, 1000, "A0 deduplicated");
        assert_eq!(reg.chunk_hits, 1);
        assert_eq!(reg.chunk_misses, 3);
        assert!((reg.dedup_ratio() - 4.0 / 3.0).abs() < 1e-9);
        // The counters survive the report's JSON round trip.
        let json = out.report.to_json();
        assert!(json.contains("\"registry\""), "{json}");
        let parsed = ClusterReport::from_json(&json).expect("parse");
        assert_eq!(parsed.registry, Some(reg));
        assert_eq!(parsed, out.report);
    }

    #[test]
    fn whole_mode_report_omits_registry_counters() {
        let profile = medusa_profile(500, 300);
        let out = simulate_fleet(
            &profile,
            &ClusterSpec::uniform(2),
            Policy::ColdStartAware,
            &[req(0, 0, 100, 1)],
        );
        assert_eq!(out.report.registry, None);
        let json = out.report.to_json();
        assert!(
            !json.contains("\"registry\""),
            "whole-mode reports must stay byte-compatible: {json}"
        );
    }

    #[test]
    fn cas_monolithic_catalog_matches_whole_mode_timing() {
        // One monolithic unit per model: chunk accounting on, transfer
        // behavior identical — the control row of registry benchmarks.
        let profile = medusa_profile(500, 300);
        let catalog = RegistryCatalog::monolithic(&[profile.artifact_bytes_for(0)]);
        let trace = vec![req(0, 0, 100, 1), req(1, 10_000, 100, 1)];
        let whole = simulate_fleet(
            &profile,
            &ClusterSpec::uniform(1).with_keep_alive(0.5),
            Policy::ColdStartAware,
            &trace,
        );
        let cas = simulate_fleet(
            &profile,
            &ClusterSpec::uniform(1)
                .with_keep_alive(0.5)
                .with_registry_mode(RegistryMode::ContentAddressed(catalog)),
            Policy::ColdStartAware,
            &trace,
        );
        assert_eq!(cas.ttfts, whole.ttfts);
        assert_eq!(cas.report.cold_starts, whole.report.cold_starts);
        let reg = cas.report.registry.expect("counters still present");
        // The second start re-warms the resident artifact without a fetch.
        assert_eq!(reg.bytes_fetched, profile.artifact_bytes_for(0));
        assert_eq!(reg.chunk_misses, 1);
    }

    #[test]
    fn cas_retries_per_chunk_and_a_transient_chunk_failure_recovers() {
        let catalog = shared_chunk_catalog();
        let salt = |digest: u64| mix(0x5a17_c4a5 ^ digest);
        // A seed where chunk A0's first attempt fails and its retry
        // succeeds, while chunk B0 fetches cleanly on the first try.
        let seed = (0..4000u64)
            .find(|&s| {
                roll_per_mille(s ^ salt(0xA0), 0, 1, 0) < 500
                    && roll_per_mille(s ^ salt(0xA0), 0, 1, 1) >= 500
                    && roll_per_mille(s ^ salt(0xB0), 0, 1, 0) >= 500
            })
            .expect("such a seed exists");
        let profile = medusa_profile(500, 300);
        let spec = ClusterSpec::uniform(1)
            .with_registry_mode(RegistryMode::ContentAddressed(catalog))
            .with_fetch_policy(flaky_registry())
            .with_faults(ClusterFaults {
                seed,
                registry_fail_per_mille: 500,
                node_crash_per_mille: 0,
            });
        let out = simulate_fleet(
            &profile,
            &spec,
            Policy::ColdStartAware,
            &[req(0, 0, 100, 1)],
        );
        // One timeout (1 s) + one backoff (0.5 s) on chunk A0, then the
        // full 2-chunk fetch 300 + loading 500 + prefill 20.
        assert_eq!(out.ttfts[0], SimDuration::from_millis(2320));
        assert_eq!(out.report.fetch_retries, 1);
        assert_eq!(out.report.degraded_cold_starts, 0);
        assert!(out.report.nodes[0].cached_at_end);
    }

    #[test]
    fn cas_exhausted_chunk_budget_degrades_the_whole_start() {
        let profile = medusa_profile(500, 300).with_degraded_loading(SimDuration::from_millis(800));
        let spec = ClusterSpec::uniform(1)
            .with_registry_mode(RegistryMode::ContentAddressed(shared_chunk_catalog()))
            .with_fetch_policy(flaky_registry())
            .with_faults(ClusterFaults {
                seed: 1,
                registry_fail_per_mille: 1000,
                node_crash_per_mille: 0,
            });
        let out = simulate_fleet(
            &profile,
            &spec,
            Policy::ColdStartAware,
            &[req(0, 0, 100, 1)],
        );
        // The first chunk alone burns the whole budget (4 timeouts × 1 s,
        // backoffs 0.5 + 1 + 2 s), the remaining chunks are never tried,
        // and the start degrades: vanilla load 800 + prefill 20.
        assert_eq!(out.ttfts[0], SimDuration::from_millis(8320));
        assert_eq!(out.report.degraded_cold_starts, 1);
        assert_eq!(out.report.fetch_retries, 3, "per-chunk budget is bounded");
        assert_eq!(out.report.registry, Some(RegistryReport::default()));
        assert!(
            !out.report.nodes[0].cached_at_end,
            "a degraded start materializes no chunks"
        );
    }
}
