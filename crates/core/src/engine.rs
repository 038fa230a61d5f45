//! The parallel cold-start engine: a stage dependency graph with a
//! deterministic critical-path scheduler, plus real worker-thread helpers.
//!
//! The paper's online phase (§6, Fig. 8c) is a small static dataflow
//! graph: weight streaming runs on the storage→H2D lane, tokenizer
//! loading is pure host work, and KV/graph restoration occupies the
//! device. [`StageGraph`] models exactly that — each stage is a node with
//! a measured (or analytically derived) duration, a [`Lane`] it occupies,
//! and explicit dependency edges — and [`StageGraph::schedule`] computes
//! the resulting timeline: per-stage spans, the makespan, and the binding
//! critical path. Timings are **computed from the graph, never from host
//! thread timing**, so two runs with the same seed produce byte-identical
//! reports regardless of host scheduling.
//!
//! Real parallelism is separate and wall-clock only: [`host_pair`] and
//! [`par_map`] run independent host-side work (tokenizer construction,
//! per-rank restoration) on `std::thread` scoped threads.

use crate::pipeline::{Stage, StageSpan};
use medusa_gpu::{SimDuration, SimTime};

/// The execution lane a stage occupies. Stages on the same lane serialize
/// in insertion order; stages on different lanes overlap freely (subject
/// to dependency edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// The GPU + its driver thread (restoration, capture, profiling).
    Device,
    /// Pure host CPU work (tokenizer parsing, artifact decoding).
    Host,
    /// The storage → host → device weight-streaming pipeline.
    Storage,
}

impl Lane {
    /// Stable lowercase lane name, used as the telemetry lane label (the
    /// Chrome trace exporter turns each lane into one thread row).
    pub fn name(self) -> &'static str {
        match self {
            Lane::Device => "device",
            Lane::Host => "host",
            Lane::Storage => "storage",
        }
    }
}

/// Node id inside a [`StageGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeId(usize);

#[derive(Debug, Clone)]
struct StageNode {
    stage: Stage,
    lane: Lane,
    duration: SimDuration,
    deps: Vec<NodeId>,
    /// Earliest permitted start (models cross-rank staggering).
    floor: SimTime,
}

/// A cold-start stage dependency graph.
#[derive(Debug, Clone, Default)]
pub struct StageGraph {
    nodes: Vec<StageNode>,
}

impl StageGraph {
    /// Empty graph.
    pub fn new() -> Self {
        StageGraph::default()
    }

    /// Adds a stage with `duration` on `lane`, starting no earlier than
    /// the end of every node in `deps`.
    pub fn add(
        &mut self,
        stage: Stage,
        lane: Lane,
        duration: SimDuration,
        deps: &[NodeId],
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(StageNode {
            stage,
            lane,
            duration,
            deps: deps.to_vec(),
            floor: SimTime::ZERO,
        });
        id
    }

    /// Constrains `node` to start no earlier than `floor` (used for
    /// tensor-parallel weight-stream staggering).
    pub fn set_floor(&mut self, node: NodeId, floor: SimTime) {
        self.nodes[node.0].floor = floor;
    }

    /// Schedules the graph: every node starts at the latest of `origin`,
    /// its floor, its dependencies' ends, and its lane's availability
    /// (lanes serialize in insertion order). Deterministic list scheduling
    /// — no host timing is consulted.
    pub fn schedule(&self, origin: SimTime) -> Schedule {
        let mut starts = Vec::with_capacity(self.nodes.len());
        let mut ends: Vec<SimTime> = Vec::with_capacity(self.nodes.len());
        let mut lane_free: Vec<(Lane, SimTime)> = Vec::new();
        for node in &self.nodes {
            let mut start = origin.max(node.floor);
            for dep in &node.deps {
                assert!(dep.0 < ends.len(), "dependency on a later node");
                start = start.max(ends[dep.0]);
            }
            if let Some((_, free)) = lane_free.iter().find(|(l, _)| *l == node.lane) {
                start = start.max(*free);
            }
            let end = start + node.duration;
            match lane_free.iter_mut().find(|(l, _)| *l == node.lane) {
                Some(slot) => slot.1 = end,
                None => lane_free.push((node.lane, end)),
            }
            starts.push(start);
            ends.push(end);
        }
        Schedule {
            graph: self.clone(),
            starts,
            ends,
            origin,
        }
    }
}

/// The scheduled timeline of a [`StageGraph`].
#[derive(Debug, Clone)]
pub struct Schedule {
    graph: StageGraph,
    starts: Vec<SimTime>,
    ends: Vec<SimTime>,
    origin: SimTime,
}

impl Schedule {
    /// The scheduled span of `node`.
    pub fn span(&self, node: NodeId) -> StageSpan {
        StageSpan {
            stage: self.graph.nodes[node.0].stage,
            start: self.starts[node.0],
            end: self.ends[node.0],
        }
    }

    /// All spans, in insertion order.
    pub fn spans(&self) -> Vec<StageSpan> {
        (0..self.graph.nodes.len())
            .map(|i| self.span(NodeId(i)))
            .collect()
    }

    /// The makespan end: when every lane has drained.
    pub fn makespan_end(&self) -> SimTime {
        self.ends.iter().copied().max().unwrap_or(self.origin)
    }

    /// The constraint that bound `node`'s start: the dependency edge or
    /// lane predecessor whose end equals the node's start, if any (`None`
    /// means the node started at the origin or its floor). This is the
    /// single step of the critical-path walk, exposed so telemetry can
    /// attach the same causal parent to each span that
    /// [`Schedule::critical_path`] reports.
    pub fn binder(&self, node: NodeId) -> Option<NodeId> {
        let start = self.starts[node.0];
        let n = &self.graph.nodes[node.0];
        let lane_pred = (0..node.0)
            .rev()
            .find(|&i| self.graph.nodes[i].lane == n.lane);
        n.deps
            .iter()
            .map(|d| d.0)
            .chain(lane_pred)
            .filter(|&i| self.ends[i] == start)
            .max()
            .map(NodeId)
    }

    /// The binding critical path, in start order: walks back from the
    /// latest-ending node through whichever constraint (dependency edge or
    /// lane predecessor) bound each node's start.
    pub fn critical_path(&self) -> Vec<Stage> {
        let Some(mut at) = (0..self.graph.nodes.len()).max_by_key(|&i| (self.ends[i], i)) else {
            return Vec::new();
        };
        let mut path = vec![self.graph.nodes[at].stage];
        while let Some(prev) = self.binder(NodeId(at)) {
            path.push(self.graph.nodes[prev.0].stage);
            at = prev.0;
        }
        path.reverse();
        path
    }
}

/// Runs two independent host-side computations on real threads (scoped;
/// no detached state) and returns both results. Used to overlap pure host
/// work — e.g. tokenizer construction — with device-side restoration.
/// Wall-clock only: simulated timings never observe thread interleaving.
pub fn host_pair<A, B, FA, FB>(a: FA, b: FB) -> (A, B)
where
    A: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B,
{
    std::thread::scope(|scope| {
        let ha = scope.spawn(a);
        let rb = b();
        (ha.join().expect("host worker panicked"), rb)
    })
}

/// Maps `f` over `items` on scoped worker threads, preserving order. Used
/// for per-rank tensor-parallel restoration: each rank owns its own
/// `ProcessRuntime`, so ranks share nothing mutable.
///
/// Worker count is capped at the host's available parallelism: with fewer
/// cores than items, contiguous chunks run per worker instead of
/// oversubscribing the cores with memory-heavy rank working sets (on a
/// single-core host this degrades to a plain sequential map). Results are
/// identical either way — only wall-clock changes.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk_size = items.len().div_ceil(cores);
    std::thread::scope(|scope| {
        let f = &f;
        let mut handles = Vec::new();
        let mut iter = items.into_iter();
        loop {
            let chunk: Vec<T> = iter.by_ref().take(chunk_size).collect();
            if chunk.is_empty() {
                break;
            }
            handles.push(scope.spawn(move || chunk.into_iter().map(f).collect::<Vec<R>>()));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("rank worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn lanes_overlap_and_serialize() {
        let mut g = StageGraph::new();
        let s = g.add(Stage::StructureInit, Lane::Device, ms(10), &[]);
        let w = g.add(Stage::WeightsLoad, Lane::Storage, ms(100), &[s]);
        let t = g.add(Stage::TokenizerLoad, Lane::Host, ms(30), &[s]);
        let k = g.add(Stage::KvCacheInit, Lane::Device, ms(20), &[s]);
        let c = g.add(Stage::Capture, Lane::Device, ms(40), &[k]);
        let sched = g.schedule(SimTime::ZERO);
        // Storage and host lanes start right after structure init, together.
        assert_eq!(sched.span(w).start, SimTime::from_nanos(10_000_000));
        assert_eq!(sched.span(t).start, sched.span(w).start);
        // Device lane serializes: kv then capture.
        assert_eq!(sched.span(k).start, sched.span(w).start);
        assert_eq!(sched.span(c).start, sched.span(k).end);
        // Makespan is the weights lane (10 + 100), not the sum (200).
        assert_eq!(sched.makespan_end(), SimTime::ZERO + ms(110));
        let work: SimDuration = sched.spans().iter().map(StageSpan::duration).sum();
        assert_eq!(work, ms(200));
        assert_eq!(
            sched.critical_path(),
            vec![Stage::StructureInit, Stage::WeightsLoad]
        );
    }

    #[test]
    fn dependencies_create_gaps_on_a_lane() {
        let mut g = StageGraph::new();
        let s = g.add(Stage::StructureInit, Lane::Device, ms(5), &[]);
        let w = g.add(Stage::WeightsLoad, Lane::Storage, ms(50), &[s]);
        let k = g.add(Stage::KvCacheInit, Lane::Device, ms(10), &[s]);
        // Capture needs both the device lane and the weights.
        let c = g.add(Stage::Capture, Lane::Device, ms(20), &[k, w]);
        let sched = g.schedule(SimTime::ZERO);
        assert_eq!(
            sched.span(c).start,
            sched.span(w).end,
            "capture waits for weights"
        );
        assert_eq!(sched.makespan_end(), SimTime::ZERO + ms(75));
        assert_eq!(
            sched.critical_path(),
            vec![Stage::StructureInit, Stage::WeightsLoad, Stage::Capture]
        );
    }

    #[test]
    fn floors_delay_starts() {
        let mut g = StageGraph::new();
        let w = g.add(Stage::WeightsLoad, Lane::Storage, ms(10), &[]);
        g.set_floor(w, SimTime::from_nanos(7_000_000));
        let sched = g.schedule(SimTime::ZERO);
        assert_eq!(sched.span(w).start, SimTime::from_nanos(7_000_000));
        assert_eq!(sched.makespan_end(), SimTime::ZERO + ms(17));
    }

    #[test]
    fn schedule_is_deterministic() {
        let build = || {
            let mut g = StageGraph::new();
            let s = g.add(Stage::StructureInit, Lane::Device, ms(3), &[]);
            let w = g.add(Stage::WeightsLoad, Lane::Storage, ms(17), &[s]);
            g.add(Stage::Capture, Lane::Device, ms(9), &[s, w]);
            g.schedule(SimTime::from_nanos(123)).spans()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn binder_reports_the_constraint_that_critical_path_walks() {
        let mut g = StageGraph::new();
        let s = g.add(Stage::StructureInit, Lane::Device, ms(5), &[]);
        let w = g.add(Stage::WeightsLoad, Lane::Storage, ms(50), &[s]);
        let k = g.add(Stage::KvCacheInit, Lane::Device, ms(10), &[s]);
        let c = g.add(Stage::Capture, Lane::Device, ms(20), &[k, w]);
        let sched = g.schedule(SimTime::ZERO);
        assert_eq!(sched.binder(s), None, "root starts at the origin");
        assert_eq!(sched.binder(w), Some(s));
        assert_eq!(sched.binder(k), Some(s));
        assert_eq!(sched.binder(c), Some(w), "capture was gated by weights");
    }

    #[test]
    fn lane_names_are_stable() {
        assert_eq!(Lane::Device.name(), "device");
        assert_eq!(Lane::Host.name(), "host");
        assert_eq!(Lane::Storage.name(), "storage");
    }

    #[test]
    fn host_pair_returns_both_results() {
        let (a, b) = host_pair(|| 6 * 7, || "device".to_string());
        assert_eq!(a, 42);
        assert_eq!(b, "device");
    }

    #[test]
    fn par_map_preserves_order() {
        let out = par_map((0..16).collect::<Vec<u32>>(), |x| x * x);
        assert_eq!(out, (0..16).map(|x| x * x).collect::<Vec<u32>>());
    }
}
