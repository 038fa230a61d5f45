//! The fleet's routing index: every scheduling decision queries it instead
//! of scanning every node.
//!
//! [`FleetIndex`] files each node under the candidate sets a policy can
//! draw from and re-files it at every transition that changes its set or
//! its position: Cold ↔ Starting ↔ Warm, a node becoming or leaving a
//! pipeline helper, a load change. Every set is a bitset over node
//! indices, so re-filing a node costs O(1). Cache inserts and evictions
//! happen only while a node is warm, so a cold node's cache — and with it
//! its cold-by-model sets — is fixed until it leaves Cold. A decision touches
//! only the few candidates that can win, so its cost depends on the live
//! part of the fleet, not on its size.
//!
//! [`FleetQuery`] is the read-only view a [`Scheduler`](super::Scheduler)
//! routes over; start costs are priced on demand for the candidates a
//! policy inspects. Under `cfg(any(test, debug_assertions))` the
//! [`reference`] module keeps the O(nodes) scan the index replaced, and
//! debug builds check every decision against it.

use super::bitset::{self, BitSet};
use super::{ChunkRegistry, FleetProfile, Node, NodeState, Strategy};

/// Per-run constants every routing decision reads: admission limits, the
/// profile and registry that start costs are priced with, and the
/// queue-drain table.
pub(super) struct RouteCtx<'a> {
    pub(super) profile: &'a FleetProfile,
    /// The registry fetches resolve through.
    pub(super) registry: ChunkRegistry,
    pub(super) max_running: usize,
    pub(super) kv_capacity: u64,
    /// `drain_ns[l]` = `l × decode(max(l, 1))`: the queue-drain estimate
    /// of a live node at load `l`, for every load a node can reach.
    drain_ns: Vec<u64>,
    /// The admissible loads (`< max_running`) in `(drain, load)` order —
    /// the order [`FleetQuery::cheapest_warm`] ranks warm nodes in. `None`
    /// when that is plain load order, which it is whenever the measured
    /// decode table makes the drain non-decreasing in load.
    loads_by_drain: Option<Vec<usize>>,
}

impl<'a> RouteCtx<'a> {
    /// Builds the context; `max_load` bounds the loads the drain table
    /// must cover (a node never holds more requests than the trace has).
    pub(super) fn new(
        profile: &'a FleetProfile,
        registry: ChunkRegistry,
        max_running: u32,
        max_load: usize,
    ) -> Self {
        let max_running = max_running as usize;
        let drain_ns: Vec<u64> = (0..=max_running.min(max_load))
            .map(|l| drain_for(profile, l))
            .collect();
        // The loads an admitting node can hold.
        let mut order: Vec<usize> = (0..max_running.min(max_load + 1)).collect();
        order.sort_by_key(|&l| (drain_ns[l], l));
        let monotone = order.iter().enumerate().all(|(rank, &l)| rank == l);
        RouteCtx {
            profile,
            registry,
            max_running,
            kv_capacity: profile.perf.kv_capacity_tokens,
            drain_ns,
            loads_by_drain: (!monotone).then_some(order),
        }
    }

    /// Queue-drain estimate of a live node holding `load` requests.
    pub(super) fn drain(&self, load: usize) -> u64 {
        match self.drain_ns.get(load) {
            Some(&ns) => ns,
            None => drain_for(self.profile, load),
        }
    }

    /// Estimated cold-start makespan of `model` on node `n`: the restore,
    /// plus on a Medusa cache miss the fetch resolved against the node's
    /// chunk residency — which is what lets locality routing prefer a node
    /// already holding most of a family's template chunks. The resolved
    /// fetch is memoised per node until its chunk set changes.
    fn est_cold_ns(&self, n: &Node, model: u32) -> u64 {
        let loading = self.profile.loading_for(model).as_nanos();
        if n.cache_holds(model) || self.profile.strategy != Strategy::Medusa {
            return loading;
        }
        loading
            + n.fetch_estimate(model, || {
                let plan = self.registry.resolve(model, &n.chunks, self.profile);
                self.registry.fetch(model, &plan, self.profile).as_nanos()
            })
    }
}

fn drain_for(profile: &FleetProfile, load: usize) -> u64 {
    let batch = u32::try_from(load).unwrap_or(u32::MAX).max(1);
    load as u64 * profile.perf.decode_duration(batch).as_nanos()
}

/// Where a node is filed; a node is re-filed only when this changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Not filed yet (construction only).
    None,
    /// In `cold`, in `cold_stocked` when `stocked`, and in the
    /// `cold_holding` set of every model its cache holds.
    Cold { stocked: bool },
    /// Counted in its model's `live`; in its model's `warm`/`starting`
    /// set at `(load, index)` unless it is a pipeline helper. `kv_tokens`
    /// files nothing, but with it every routing input of a live node is
    /// in its slot.
    Live {
        model: u32,
        state: NodeState,
        load: usize,
        kv_tokens: u64,
        helper: bool,
    },
}

/// Nodes filed by load: `at[l]` holds the nodes at load `l`, and `loads`
/// the loads whose set is non-empty. Walking `loads` ascending and each
/// load's nodes ascending visits the nodes in `(load, index)` order. A
/// load whose set empties gives its words back.
#[derive(Debug, Clone, Default)]
struct ByLoad {
    at: Vec<BitSet>,
    loads: BitSet,
}

impl ByLoad {
    fn insert(&mut self, load: usize, i: usize) {
        if self.at.len() <= load {
            self.at.resize_with(load + 1, BitSet::default);
        }
        self.at[load].insert(i);
        self.loads.insert(load);
    }

    fn remove(&mut self, load: usize, i: usize) {
        let nodes = &mut self.at[load];
        nodes.remove(i);
        if nodes.is_empty() {
            *nodes = BitSet::default();
            self.loads.remove(load);
        }
    }

    /// The nodes at `load`, ascending.
    fn at(&self, load: usize) -> bitset::Iter<'_> {
        self.at.get(load).map(BitSet::iter).unwrap_or_default()
    }

    /// The nodes at loads below `limit`, in `(load, index)` order.
    fn below(&self, limit: usize) -> Below<'_> {
        Below {
            at: &self.at,
            loads: self.loads.iter(),
            limit,
            nodes: bitset::Iter::default(),
        }
    }
}

/// Iterator of [`ByLoad::below`]: each load's nodes, then the next load's.
#[derive(Default)]
struct Below<'a> {
    at: &'a [BitSet],
    loads: bitset::Iter<'a>,
    limit: usize,
    nodes: bitset::Iter<'a>,
}

impl Iterator for Below<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if let Some(i) = self.nodes.next() {
                return Some(i);
            }
            let load = self.loads.next().filter(|&l| l < self.limit)?;
            self.nodes = self.at[load].iter();
        }
    }
}

/// Equal when the same nodes sit at the same loads, however far `at` grew.
impl PartialEq for ByLoad {
    fn eq(&self, other: &Self) -> bool {
        self.loads == other.loads && self.loads.iter().all(|l| self.at[l] == other.at[l])
    }
}

impl Eq for ByLoad {}

/// The candidate sets of one model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ModelSets {
    /// Warm nodes hosting the model that may take work, by `(load, index)`.
    warm: ByLoad,
    /// Starting nodes hosting the model that may take work, by
    /// `(load, index)`.
    starting: ByLoad,
    /// Warm or Starting nodes hosting the model, pipeline helpers
    /// included — the autoscaler's "is this tenant served" check.
    live: usize,
    /// Cold nodes whose artifact cache holds the model.
    cold_holding: BitSet,
}

/// Incrementally maintained candidate sets of the fleet. Invariants, for
/// every node `i` (checked against a rebuild by [`FleetIndex::check`]):
///
/// * `i ∈ cold` iff `i` is Cold; `i ∈ cold_stocked` iff additionally its
///   cache or chunk set is non-empty; `i ∈ cold_holding[m]` iff it is
///   Cold and its cache holds `m`.
/// * `(load, i) ∈ warm[m]` (`starting[m]`) iff `i` is Warm (Starting),
///   hosts `m`, holds `load` requests, and is not a pipeline helper.
/// * `live[m]` counts the Warm or Starting nodes hosting `m`.
///
/// The node sets hold at most `(2 + models + 2 × models × (max_running +
/// 1)) × ⌈nodes / 64⌉` words, all in non-empty sets (a node's load never
/// exceeds `max_running`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct FleetIndex {
    /// Model ids with candidate sets, ascending; `per_model[k]` belongs to
    /// `models[k]`.
    models: Vec<u32>,
    per_model: Vec<ModelSets>,
    /// Cold nodes.
    cold: BitSet,
    /// Cold nodes with a non-empty cache or chunk set.
    cold_stocked: BitSet,
    slots: Vec<Slot>,
}

impl FleetIndex {
    /// Files every node of a fleet.
    pub(super) fn new(nodes: &[Node]) -> Self {
        let mut index = FleetIndex {
            models: Vec::new(),
            per_model: Vec::new(),
            cold: BitSet::default(),
            cold_stocked: BitSet::default(),
            slots: vec![Slot::None; nodes.len()],
        };
        for (i, n) in nodes.iter().enumerate() {
            index.sync(i, n);
        }
        index
    }

    /// Re-files node `i` after any change to its state, model, load, KV
    /// reservation, helper role, or (while warm) cache. A no-op when its
    /// slot is unchanged; returns whether it re-filed the node.
    pub(super) fn sync(&mut self, i: usize, n: &Node) -> bool {
        let slot = match n.state {
            NodeState::Cold => {
                debug_assert!(
                    n.load() == 0 && n.model.is_none() && n.pipeline_head.is_none(),
                    "a cold node holds no work, model, or helper role"
                );
                Slot::Cold {
                    stocked: !n.cache.is_empty() || !n.chunks.is_empty(),
                }
            }
            state => Slot::Live {
                model: n.model.expect("a live node hosts a model"),
                state,
                load: n.load(),
                kv_tokens: n.kv_tokens,
                helper: n.pipeline_head.is_some(),
            },
        };
        let old = self.slots[i];
        if old == slot {
            return false;
        }
        match old {
            Slot::None => {}
            Slot::Cold { stocked } => {
                self.cold.remove(i);
                if stocked {
                    self.cold_stocked.remove(i);
                }
                for e in &n.cache {
                    let k = self.model_slot(e.model);
                    let was_filed = self.per_model[k].cold_holding.remove(i);
                    debug_assert!(was_filed, "a cold node's cache changed while cold");
                }
            }
            Slot::Live {
                model,
                state,
                load,
                helper,
                ..
            } => {
                let k = self.model_slot(model);
                let sets = &mut self.per_model[k];
                sets.live -= 1;
                if !helper {
                    sets.by_state(state).remove(load, i);
                }
            }
        }
        match slot {
            Slot::None => {}
            Slot::Cold { stocked } => {
                self.cold.insert(i);
                if stocked {
                    self.cold_stocked.insert(i);
                }
                for e in &n.cache {
                    let k = self.model_slot(e.model);
                    self.per_model[k].cold_holding.insert(i);
                }
            }
            Slot::Live {
                model,
                state,
                load,
                helper,
                ..
            } => {
                let k = self.model_slot(model);
                let sets = &mut self.per_model[k];
                sets.live += 1;
                if !helper {
                    sets.by_state(state).insert(load, i);
                }
            }
        }
        self.slots[i] = slot;
        true
    }

    /// The candidate-set slot of `model`, created on first use.
    fn model_slot(&mut self, model: u32) -> usize {
        match self.models.binary_search(&model) {
            Ok(k) => k,
            Err(k) => {
                self.models.insert(k, model);
                self.per_model.insert(k, ModelSets::default());
                k
            }
        }
    }

    fn sets(&self, model: u32) -> Option<&ModelSets> {
        self.models
            .binary_search(&model)
            .ok()
            .map(|k| &self.per_model[k])
    }

    /// Warm or Starting nodes hosting `model`, pipeline helpers included.
    pub(super) fn live(&self, model: u32) -> usize {
        self.sets(model).map_or(0, |s| s.live)
    }

    /// Nodes that are Cold.
    pub(super) fn cold_count(&self) -> usize {
        self.cold.len()
    }

    /// Cold nodes, ascending index.
    pub(super) fn cold(&self) -> impl Iterator<Item = usize> + '_ {
        self.cold.iter()
    }

    /// Panics unless the incrementally maintained index equals a rebuild
    /// from `nodes` (debug builds and tests).
    #[cfg(any(test, debug_assertions))]
    pub(super) fn check(&self, nodes: &[Node]) {
        let mut fresh = FleetIndex::new(nodes);
        // A model whose sets emptied keeps its (empty) slot; align the
        // rebuild's model list before comparing.
        for &m in &self.models {
            fresh.model_slot(m);
        }
        assert_eq!(*self, fresh, "fleet index diverged from the node states");
    }
}

impl ModelSets {
    fn by_state(&mut self, state: NodeState) -> &mut ByLoad {
        match state {
            NodeState::Warm => &mut self.warm,
            NodeState::Starting => &mut self.starting,
            NodeState::Cold => unreachable!("cold nodes are filed by index"),
        }
    }
}

/// The read-only fleet view one routing decision queries: the candidate
/// sets of the fleet's incrementally maintained node index for the
/// request's model, plus on-demand per-node facts (load, admission,
/// estimated start cost).
///
/// Every candidate method breaks ties by node index, so indexed decisions
/// reproduce the node-by-node scan exactly.
pub struct FleetQuery<'a> {
    nodes: &'a [Node],
    index: &'a FleetIndex,
    ctx: &'a RouteCtx<'a>,
    model: u32,
    need: u64,
}

impl<'a> FleetQuery<'a> {
    pub(super) fn new(
        nodes: &'a [Node],
        index: &'a FleetIndex,
        ctx: &'a RouteCtx<'a>,
        model: u32,
        need: u64,
    ) -> Self {
        FleetQuery {
            nodes,
            index,
            ctx,
            model,
            need,
        }
    }

    /// Model of the request being placed.
    pub fn model(&self) -> u32 {
        self.model
    }

    /// Number of nodes in the fleet.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Lifecycle state of node `i`.
    pub fn state(&self, i: usize) -> NodeState {
        self.nodes[i].state
    }

    /// Pending plus running sequences on node `i`.
    pub fn load(&self, i: usize) -> usize {
        self.nodes[i].load()
    }

    /// Whether node `i`'s artifact cache holds the request's model (so a
    /// cold start there skips the registry fetch).
    pub fn cached(&self, i: usize) -> bool {
        self.nodes[i].cache_holds(self.model)
    }

    /// Whether node `i` can admit this request: always for a cold node
    /// (it starts empty and can start any model); for a live node, when
    /// it hosts the request's model, has a free batch slot and KV room,
    /// and is not a pipeline shard helper (helpers release back to cold,
    /// so work must never queue on them).
    pub fn accepts(&self, i: usize) -> bool {
        let n = &self.nodes[i];
        match n.state {
            NodeState::Cold => true,
            NodeState::Starting | NodeState::Warm => {
                n.load() < self.ctx.max_running
                    && n.kv_tokens + self.need <= self.ctx.kv_capacity
                    && n.model == Some(self.model)
                    && n.pipeline_head.is_none()
            }
        }
    }

    /// Estimated time until node `i` could produce the request's first
    /// token, ns: a warm node's queue-drain estimate, a cold node's full
    /// start cost (registry-fetch bytes over the fabric when its cache
    /// misses, plus the restore), a starting node's expected remaining
    /// start plus drain. Priced on demand.
    pub fn start_cost(&self, i: usize) -> u64 {
        let n = &self.nodes[i];
        match n.state {
            NodeState::Warm => self.ctx.drain(n.load()),
            NodeState::Cold => self.ctx.est_cold_ns(n, self.model),
            NodeState::Starting => {
                self.ctx.est_cold_ns(n, self.model) / 2 + self.ctx.drain(n.load())
            }
        }
    }

    /// The lowest-index cold node.
    pub fn first_cold(&self) -> Option<usize> {
        self.index.cold.first()
    }

    /// The first cold node at or after index `from`, wrapping around.
    pub fn next_cold(&self, from: usize) -> Option<usize> {
        let cold = &self.index.cold;
        cold.next_from(from).or_else(|| cold.first())
    }

    /// The lowest-index cold node whose cache holds the request's model.
    pub fn first_cold_cached(&self) -> Option<usize> {
        self.index
            .sets(self.model)
            .and_then(|s| s.cold_holding.first())
    }

    /// Nodes in `state` (Warm or Starting) that accept the request, in
    /// `(load, index)` order. Cold nodes are not listed (see
    /// [`FleetQuery::first_cold`]).
    pub fn accepting(&self, state: NodeState) -> impl Iterator<Item = usize> + '_ {
        let set = self.index.sets(self.model).and_then(|s| match state {
            NodeState::Warm => Some(&s.warm),
            NodeState::Starting => Some(&s.starting),
            NodeState::Cold => None,
        });
        set.map(|s| s.below(self.ctx.max_running))
            .unwrap_or_default()
            .filter(move |&i| self.accepts(i))
    }

    /// The accepting node in `state` with the least `(load, index)`.
    pub fn least_loaded(&self, state: NodeState) -> Option<usize> {
        self.accepting(state).next()
    }

    /// The accepting warm node with the least `(start_cost, load, index)`.
    /// Warm start cost is the measured queue drain, which need not grow
    /// with load, so loads are visited in the run's `(drain, load)` rank
    /// order.
    pub fn cheapest_warm(&self) -> Option<usize> {
        let Some(by_drain) = &self.ctx.loads_by_drain else {
            return self.least_loaded(NodeState::Warm);
        };
        let warm = &self.index.sets(self.model)?.warm;
        by_drain
            .iter()
            .find_map(|&l| warm.at(l).find(|&i| self.accepts(i)))
    }

    /// The cold node with the least `(start_cost, index)`. Costs depend on
    /// each node's chunk set: holders and bare nodes each share one cost,
    /// so only their first members and the stocked non-holders are priced.
    pub fn cheapest_cold(&self) -> Option<usize> {
        let first = self.first_cold()?;
        if self.ctx.profile.strategy != Strategy::Medusa {
            return Some(first);
        }
        let stocked = &self.index.cold_stocked;
        let bare = self.index.cold().find(|&i| !stocked.contains(i));
        let others = stocked.iter().filter(|&i| !self.cached(i));
        self.first_cold_cached()
            .into_iter()
            .chain(bare)
            .chain(others)
            .min_by_key(|&i| (self.start_cost(i), i))
    }
}

/// The O(nodes) scan routing did before the index: one [`NodeView`] per
/// node per decision and the policies' original bodies over them, with
/// content-addressed fetches resolved against digest sets instead of
/// numbered chunks. Debug builds check every indexed decision against it;
/// the index proptests compare the two on random fleet states.
#[cfg(any(test, debug_assertions))]
pub(super) mod reference {
    use super::super::{
        Decision, FetchPlan, FleetProfile, Node, NodeState, Policy, RegistryCatalog, Strategy,
    };
    use super::RouteCtx;
    use std::collections::BTreeSet;

    /// Resolves the fetch plan of `model` against a node's resident chunk
    /// digests: a [`ChunkRegistry`](super::super::ChunkRegistry)
    /// resolution over the matching chunk ids must equal it.
    pub(in super::super) fn resolve(
        catalog: &RegistryCatalog,
        model: u32,
        resident: &BTreeSet<u64>,
        profile: &FleetProfile,
    ) -> FetchPlan {
        let mut plan = FetchPlan::default();
        for u in catalog.units_for(model, profile) {
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

    /// Read-only view of one node for one request.
    #[derive(Debug, Clone, Copy)]
    pub(in super::super) struct NodeView {
        pub(in super::super) state: NodeState,
        pub(in super::super) load: usize,
        pub(in super::super) cached: bool,
        pub(in super::super) accepts: bool,
        pub(in super::super) start_cost_ns: u64,
    }

    /// Builds every node's view for a request of `model` needing `need`
    /// KV tokens. Start costs resolve `catalog` (empty in whole mode)
    /// against `resident(i)`, the chunk digests resident on node `i`.
    pub(in super::super) fn views(
        nodes: &[Node],
        ctx: &RouteCtx<'_>,
        need: u64,
        model: u32,
        catalog: &RegistryCatalog,
        resident: impl Fn(usize) -> BTreeSet<u64>,
    ) -> Vec<NodeView> {
        nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let load = n.load();
                let cached = n.cache_holds(model);
                let live_accepts = load < ctx.max_running
                    && n.kv_tokens + need <= ctx.kv_capacity
                    && n.model == Some(model);
                let drain = load as u64
                    * ctx
                        .profile
                        .perf
                        .decode_duration((load as u32).max(1))
                        .as_nanos();
                let est_cold = || {
                    let loading = ctx.profile.loading_for(model).as_nanos();
                    if cached || ctx.profile.strategy != Strategy::Medusa {
                        return loading;
                    }
                    let plan = resolve(catalog, model, &resident(i), ctx.profile);
                    loading + ctx.registry.fetch(model, &plan, ctx.profile).as_nanos()
                };
                NodeView {
                    state: n.state,
                    load,
                    cached,
                    accepts: match n.state {
                        NodeState::Cold => true,
                        NodeState::Starting | NodeState::Warm => {
                            live_accepts && n.pipeline_head.is_none()
                        }
                    },
                    start_cost_ns: match n.state {
                        NodeState::Warm => drain,
                        NodeState::Cold => est_cold(),
                        NodeState::Starting => est_cold() / 2 + drain,
                    },
                }
            })
            .collect()
    }

    /// One built-in policy as a scan over [`NodeView`]s, stepped in
    /// lockstep with the indexed scheduler it checks.
    #[derive(Debug)]
    pub(in super::super) struct ReferenceScan {
        policy: Policy,
        /// Round-robin rotation pointer.
        pub(in super::super) next: usize,
    }

    impl ReferenceScan {
        pub(in super::super) fn new(policy: Policy) -> Self {
            ReferenceScan { policy, next: 0 }
        }

        pub(in super::super) fn route(&mut self, nodes: &[NodeView]) -> Decision {
            let least = |state: Option<NodeState>| {
                nodes
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| n.accepts && state.is_none_or(|s| n.state == s))
                    .min_by_key(|(i, n)| (n.load, *i))
                    .map(|(i, _)| i)
            };
            let pick = match self.policy {
                Policy::RoundRobin => {
                    let hit = (0..nodes.len())
                        .map(|off| (self.next + off) % nodes.len())
                        .find(|&i| nodes[i].accepts);
                    if let Some(i) = hit {
                        self.next = (i + 1) % nodes.len();
                    }
                    hit
                }
                Policy::LeastLoaded => least(None),
                Policy::ColdStartAware => {
                    least(Some(NodeState::Warm)).or_else(|| least(Some(NodeState::Starting)))
                }
                Policy::Locality | Policy::Pipeline => nodes
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| n.accepts)
                    .min_by_key(|(i, n)| (n.start_cost_ns, n.load, *i))
                    .map(|(i, _)| i),
            };
            pick.map_or(Decision::Queue, Decision::Node)
        }

        pub(in super::super) fn pick_cold(&self, nodes: &[NodeView]) -> Option<usize> {
            let cold = nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.state == NodeState::Cold);
            match self.policy {
                Policy::RoundRobin | Policy::LeastLoaded => cold.map(|(i, _)| i).next(),
                Policy::ColdStartAware => cold.min_by_key(|(i, n)| (!n.cached, *i)).map(|(i, _)| i),
                Policy::Locality | Policy::Pipeline => cold
                    .min_by_key(|(i, n)| (n.start_cost_ns, *i))
                    .map(|(i, _)| i),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{
        fallback_unit, CacheEntry, ChunkRegistry, ColdStartAware, Decision, FetchUnit,
        ModelManifest, Node, NodeSpec, Policy, RegistryCatalog, RegistryMode, RoundRobin,
        Scheduler, ServerlessLlmLocality,
    };
    use super::reference::{resolve, views, ReferenceScan};
    use super::{BitSet, FleetIndex, FleetProfile, FleetQuery, NodeState, RouteCtx};
    use crate::params::PerfModel;
    use medusa::Strategy;
    use medusa_gpu::SimDuration;
    use proptest::prelude::*;
    use proptest::TestRng;
    use std::collections::BTreeSet;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// A profile whose decode table is `decode_ms` at batches 1, 2, 4, 8:
    /// any order, zeros allowed, so the drain can tie or fall with load.
    fn profile(medusa: bool, fetch_ms: u64, decode_ms: [u64; 4], models: u32) -> FleetProfile {
        let strategy = if medusa {
            Strategy::Medusa
        } else {
            Strategy::Vanilla
        };
        let perf = PerfModel::from_tables(
            strategy,
            "index-props",
            ms(500),
            vec![1, 2, 4, 8],
            decode_ms.iter().map(|&d| ms(d)).collect(),
            vec![(100, ms(20)), (400, ms(60))],
        );
        let p = FleetProfile::from_perf(strategy, perf).with_fetch(ms(fetch_ms));
        if models > 1 {
            p.with_scaled_models(models)
        } else {
            p
        }
    }

    /// A catalog whose models draw their chunks from a shared pool of six
    /// digests, so residency overlaps across models; the last model id
    /// is left out (it prices with the whole-artifact fallback unit).
    fn catalog(rng: &mut TestRng, models: u32) -> RegistryCatalog {
        RegistryCatalog {
            models: (0..models.saturating_sub(1))
                .map(|_| {
                    let mut units = Vec::new();
                    for d in 0..6u64 {
                        if rng.next_u64().is_multiple_of(2) {
                            let bytes = 1 + rng.next_u64() % 4000;
                            units.push(FetchUnit {
                                digest: 0xc0 + d,
                                bytes,
                            });
                        }
                    }
                    ModelManifest { units }
                })
                .collect(),
        }
    }

    /// The chunk ids of `digests` under `reg`'s numbering: the cataloged
    /// digests, plus the fallback unit of every model up to `models` whose
    /// digest is listed.
    fn chunk_set(
        reg: &ChunkRegistry,
        digests: &BTreeSet<u64>,
        models: u32,
        profile: &FleetProfile,
    ) -> BitSet {
        let mut set = BitSet::default();
        for d in digests {
            if let Ok(id) = reg.digests.binary_search(d) {
                set.insert(id);
            }
        }
        for m in 0..=models {
            if digests.contains(&fallback_unit(m, profile).digest) {
                set.insert(reg.fallback_id(m));
            }
        }
        set
    }

    /// A random node: cache, chunk residency, state, load, KV, helper
    /// role. The node's chunks are filed from its cache under `catalog`
    /// as `reg` numbers it, with now and then a stray chunk when `stray`,
    /// and returned as digests for the reference scan.
    fn node(
        rng: &mut TestRng,
        profile: &FleetProfile,
        (catalog, reg): (&RegistryCatalog, &ChunkRegistry),
        stray: bool,
        models: u32,
        max_running: u32,
        n_nodes: usize,
    ) -> (Node, BTreeSet<u64>) {
        let spec = NodeSpec {
            gpu: "A100-40GB".to_string(),
            tp: 1,
            cached: false,
        };
        let mut n = Node::new(spec, 0);
        for m in (0..models).filter(|_| rng.next_u64() % 5 < 2) {
            n.cache.push(CacheEntry {
                model: m,
                bytes: 1,
                last_used: 0,
                uses: 0,
            });
        }
        let mut digests: BTreeSet<u64> = n
            .cache
            .iter()
            .flat_map(|e| catalog.units_for(e.model, profile))
            .map(|u| u.digest)
            .collect();
        // Now and then a stray chunk that no cache entry explains.
        if stray && rng.next_u64().is_multiple_of(4) {
            digests.insert(0xc0 + rng.next_u64() % 6);
        }
        n.set_chunks(chunk_set(reg, &digests, models, profile));
        match rng.next_u64() % 3 {
            0 => {}
            roll => {
                n.state = if roll == 1 {
                    NodeState::Starting
                } else {
                    NodeState::Warm
                };
                n.model = Some((rng.next_u64() % u64::from(models)) as u32);
                let load = rng.next_u64() % (u64::from(max_running) + 1);
                n.pending.extend(0..load as usize);
                n.kv_tokens = rng.next_u64() % 1200;
                if n.state == NodeState::Starting && rng.next_u64().is_multiple_of(4) {
                    n.pending.clear();
                    n.pipeline_head = Some(rng.next_u64() as usize % n_nodes);
                }
            }
        }
        (n, digests)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// On random fleet states — loads, KV, caches, chunk residency,
        /// pipeline helpers, measured decode tables that tie or fall with
        /// load — every policy's indexed `route` and `pick_cold` equal the
        /// node-by-node scan, in both registry modes (whole mode is the
        /// empty catalog), and every start cost the query prices from
        /// numbered chunks equals the scan's price from digest sets.
        #[test]
        fn indexed_decisions_match_the_scan(
            seed in any::<u64>(),
            n_nodes in 1usize..150,
            models in 1u32..5,
            cas in any::<bool>(),
            medusa in any::<bool>(),
            fetch_ms in 0u64..3,
            max_running in 1u32..9,
            decode_ms in [0u64..40, 0u64..40, 0u64..40, 0u64..40],
        ) {
            let mut rng = TestRng::for_case("fleet", (seed % 1_000_000) as u32);
            // fetch 0 ms makes hit and miss cost the same.
            let profile = profile(medusa, fetch_ms * 150, decode_ms, models);
            // Whole mode is the registry over the empty catalog.
            let catalog = if cas {
                catalog(&mut rng, models)
            } else {
                RegistryCatalog::default()
            };
            let dense = ChunkRegistry::new(&catalog, cas);
            let (mut nodes, mut resident): (Vec<Node>, Vec<BTreeSet<u64>>) = (0..n_nodes)
                .map(|_| {
                    node(&mut rng, &profile, (&catalog, &dense), cas, models, max_running, n_nodes)
                })
                .unzip();
            let mut ctx = RouteCtx::new(
                &profile,
                dense.clone(),
                max_running,
                max_running as usize,
            );
            ctx.kv_capacity = 1000;

            // File the fleet cold, then move each node to its drawn state
            // through `sync`, and check the result against a rebuild.
            let cold: Vec<Node> = nodes
                .iter()
                .map(|n| {
                    let mut c = Node::new(n.spec.clone(), 0);
                    c.cache = n.cache.clone();
                    c.set_chunks(n.chunks.clone());
                    c
                })
                .collect();
            let mut index = FleetIndex::new(&cold);
            for (i, n) in nodes.iter().enumerate() {
                index.sync(i, n);
            }
            index.check(&nodes);

            for round in 0..2 {
                if round == 1 {
                    // A chunk-residency change must drop the memoised
                    // fetch estimates priced against the old set.
                    let i = rng.next_u64() as usize % n_nodes;
                    let chunks = (0..6u64).filter(|_| rng.next_u64().is_multiple_of(2)).map(|d| 0xc0 + d);
                    resident[i] = chunks.collect();
                    nodes[i].set_chunks(chunk_set(&dense, &resident[i], models, &profile));
                    index.sync(i, &nodes[i]);
                    index.check(&nodes);
                }
                // Model `models` is never hosted or cached anywhere.
                for model in 0..=models {
                    let need = rng.next_u64() % 400;
                    let fleet = FleetQuery::new(&nodes, &index, &ctx, model, need);
                    let scan = views(&nodes, &ctx, need, model, &catalog, |i| resident[i].clone());
                    for (i, v) in scan.iter().enumerate() {
                        prop_assert_eq!(fleet.start_cost(i), v.start_cost_ns, "start cost of node {}", i);
                        prop_assert_eq!(fleet.accepts(i), v.accepts, "admission of node {}", i);
                    }
                    let next = rng.next_u64() as usize % n_nodes;
                    for policy in Policy::ALL.into_iter().chain(Policy::PREDICTIVE) {
                        let mut reference = ReferenceScan::new(policy);
                        reference.next = next;
                        let mut sched: Box<dyn Scheduler> = match policy {
                            Policy::RoundRobin => Box::new(RoundRobin { next }),
                            p => p.build(),
                        };
                        // Twice: the rotation state must advance in step.
                        for _ in 0..2 {
                            prop_assert_eq!(
                                sched.route(&fleet),
                                reference.route(&scan),
                                "{:?} route, model {}", policy, model
                            );
                        }
                        prop_assert_eq!(
                            sched.pick_cold(&fleet),
                            reference.pick_cold(&scan),
                            "{:?} pick_cold, model {}", policy, model
                        );
                    }
                }
            }
        }

        /// Resolving against numbered chunks equals resolving against
        /// digest sets (and `fetch` prices only the plan) on random
        /// catalogs:
        /// manifests that repeat a digest, empty manifests, models past
        /// the catalog, and a cataloged digest equal to an out-of-catalog
        /// model's fallback unit. Marking cached models resident equals
        /// numbering the union of their units.
        #[test]
        fn chunk_ids_resolve_like_digest_sets(
            seed in any::<u64>(),
            models in 0u32..6,
            pool in 1u64..10,
        ) {
            let mut rng = TestRng::for_case("resolve", (seed % 1_000_000) as u32);
            let profile = profile(true, 300, [5, 5, 5, 5], 3);
            let past = models + 3;
            // The pool's last digest is the fallback unit of a model past
            // the catalog.
            let digest = |d: u64| {
                if d + 1 == pool {
                    fallback_unit(models + 1, &profile).digest
                } else {
                    0xc0 + d
                }
            };
            let catalog = RegistryCatalog {
                models: (0..models)
                    .map(|_| ModelManifest {
                        units: (0..rng.next_u64() % 8)
                            .map(|_| FetchUnit {
                                digest: digest(rng.next_u64() % pool),
                                bytes: rng.next_u64() % 3000,
                            })
                            .collect(),
                    })
                    .collect(),
            };
            let reg = ChunkRegistry::new(&catalog, true);
            for _ in 0..4 {
                let mut digests: BTreeSet<u64> = (0..pool)
                    .filter(|_| rng.next_u64().is_multiple_of(2))
                    .map(digest)
                    .collect();
                let cached: Vec<u32> = (0..past).filter(|_| rng.next_u64().is_multiple_of(3)).collect();
                let mut marked = BitSet::default();
                for &m in &cached {
                    reg.add_resident(m, &mut marked);
                }
                let union: BTreeSet<u64> = cached
                    .iter()
                    .flat_map(|&m| catalog.units_for(m, &profile))
                    .map(|u| u.digest)
                    .collect();
                digests.extend(&union);
                let bits = chunk_set(&reg, &digests, past, &profile);
                let union_bits = chunk_set(&reg, &union, past, &profile);
                for model in 0..past {
                    let plan = reg.resolve(model, &bits, &profile);
                    let expected = resolve(&catalog, model, &digests, &profile);
                    prop_assert_eq!(&plan, &expected, "model {}", model);
                    prop_assert_eq!(
                        reg.resolve(model, &marked, &profile),
                        reg.resolve(model, &union_bits, &profile),
                        "cached {:?}, model {}", &cached, model
                    );
                }
            }
        }
    }

    /// A warm node at a higher load can drain sooner when the measured
    /// decode step is faster at the larger batch: locality ranks by the
    /// drain estimate, not by load.
    #[test]
    fn locality_ranks_warm_nodes_by_measured_drain() {
        // drain(1) = 1 × 30 ms; drain(2) = 2 × 5 ms.
        let profile = profile(true, 300, [30, 5, 5, 5], 1);
        let mut nodes: Vec<Node> = (0..2)
            .map(|_| {
                let spec = NodeSpec {
                    gpu: "A100-40GB".to_string(),
                    tp: 1,
                    cached: false,
                };
                Node::new(spec, 0)
            })
            .collect();
        for (i, n) in nodes.iter_mut().enumerate() {
            n.state = NodeState::Warm;
            n.model = Some(0);
            n.pending.extend(0..=i);
        }
        let index = FleetIndex::new(&nodes);
        let ctx = RouteCtx::new(&profile, RegistryMode::Whole.build(), 8, 8);
        let fleet = FleetQuery::new(&nodes, &index, &ctx, 0, 0);
        assert_eq!(
            ColdStartAware.route(&fleet),
            Decision::Node(0),
            "least load"
        );
        assert_eq!(fleet.cheapest_warm(), Some(1));
        assert_eq!(
            ServerlessLlmLocality::default().route(&fleet),
            Decision::Node(1),
            "least drain"
        );
    }
}
