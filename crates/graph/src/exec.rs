//! Graph instantiation and replay.
//!
//! [`GraphExec`] is the executable form of a [`CudaGraph`]
//! (`cudaGraphInstantiate` / `cudaGraphLaunch` analogues). Replay is the
//! *self-replaying* behaviour of paper §2.2: the whole DAG of kernels runs
//! from a single CPU launch, reading and writing through the data pointers
//! recorded in the nodes — so the pointers must still reference live buffers
//! holding the intended data, which is exactly what Medusa's restoration
//! has to guarantee.

use crate::error::{GraphError, GraphResult};
use crate::graph::CudaGraph;
use medusa_gpu::{ProcessRuntime, SimDuration, SimTime, StreamId};

/// An instantiated, launchable CUDA graph.
#[derive(Debug, Clone)]
pub struct GraphExec {
    graph: CudaGraph,
    topo: Vec<usize>,
}

impl GraphExec {
    /// Instantiates `graph` on `rt`, validating that every node's kernel
    /// address resolves to a loaded device function, and charging the
    /// (calibrated, substantial) instantiation cost.
    ///
    /// # Errors
    ///
    /// * [`GraphError::Cyclic`] for cyclic dependency edges.
    /// * [`GraphError::Gpu`] with
    ///   [`medusa_gpu::GpuError::InvalidDeviceFunction`] when a node's
    ///   kernel address is stale or its module was never loaded — the
    ///   failure mode a restored graph hits without triggering-kernels.
    pub fn instantiate(rt: &mut ProcessRuntime, graph: CudaGraph) -> GraphResult<Self> {
        Self::instantiate_like(rt, graph, None)
    }

    /// [`GraphExec::instantiate`], reusing the work of an earlier
    /// instantiation on the same `rt` where it applies: when `graph` has
    /// `base`'s edges and, node by node, `base`'s kernel addresses — a
    /// copy of `base`'s graph with other parameter values and work, as
    /// `cudaGraphExecUpdate` accepts — its topological order and
    /// device-function checks are `base`'s. Loaded modules stay loaded, so
    /// the checks still hold. The instantiation cost charged is the same.
    ///
    /// # Errors
    ///
    /// As [`GraphExec::instantiate`].
    pub fn instantiate_like(
        rt: &mut ProcessRuntime,
        graph: CudaGraph,
        base: Option<&GraphExec>,
    ) -> GraphResult<Self> {
        let same_shape = |b: &GraphExec| {
            b.graph.edges() == graph.edges()
                && b.graph.node_count() == graph.node_count()
                && b.graph
                    .iter()
                    .zip(graph.iter())
                    .all(|(m, n)| m.kernel_addr() == n.kernel_addr())
        };
        let topo = match base.filter(|b| same_shape(b)) {
            Some(b) => b.topo.clone(),
            None => {
                let topo = graph.topo_order()?;
                for node in graph.iter() {
                    let addr = node.kernel_addr();
                    let kref = rt
                        .resolve_addr(addr)
                        .ok_or(medusa_gpu::GpuError::InvalidDeviceFunction { addr })?;
                    if !rt.is_module_loaded(kref) {
                        return Err(GraphError::Gpu(
                            medusa_gpu::GpuError::InvalidDeviceFunction { addr },
                        ));
                    }
                }
                topo
            }
        };
        rt.advance(SimDuration::from_nanos(
            rt.cost().graph_instantiate_per_node_ns * graph.node_count() as u64,
        ));
        Ok(GraphExec { graph, topo })
    }

    /// The underlying graph (inspection).
    pub fn graph(&self) -> &CudaGraph {
        &self.graph
    }

    /// Launches the graph on `stream`: one CPU-side launch, then the whole
    /// DAG executes on the GPU with inter-branch concurrency bounded by the
    /// cost model's execution lanes. Returns the graph's GPU makespan.
    ///
    /// The caller observes asynchronous semantics: the CPU clock advances
    /// only by the launch overhead; the stream drains at launch + makespan.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Gpu`] if any node's kernel address no longer
    /// resolves or a node dereferences a dead pointer (illegal memory
    /// access on replay, paper §2.2).
    pub fn launch(&self, rt: &mut ProcessRuntime, stream: StreamId) -> GraphResult<SimDuration> {
        self.launch_traced(rt, stream, None)
    }

    /// [`GraphExec::launch`] with an optional telemetry registry: each
    /// replay increments `graph_replay_launches_total`, adds the graph's
    /// node count to `graph_replay_nodes_total`, and records the GPU
    /// makespan into the `graph_replay_makespan_us` histogram.
    ///
    /// # Errors
    ///
    /// Same as [`GraphExec::launch`].
    pub fn launch_traced(
        &self,
        rt: &mut ProcessRuntime,
        stream: StreamId,
        tele: Option<&medusa_telemetry::Registry>,
    ) -> GraphResult<SimDuration> {
        rt.advance(SimDuration::from_nanos(rt.cost().graph_launch_cpu_ns));
        let base: SimTime = rt.now().max(rt.streams().free_at(stream)?);

        let lanes = rt.cost().graph_exec_lanes.max(1) as usize;
        let mut lane_free = vec![base; lanes];
        let preds = self.graph.predecessors();
        let mut finish = vec![base; self.graph.node_count()];

        for &i in &self.topo {
            let node = self.graph.node(i);
            let exec = rt.execute_kernel_raw(node.kernel_addr(), node.params(), node.work())?;
            let ready = preds[i].iter().map(|&p| finish[p]).max().unwrap_or(base);
            // Earliest-free lane (list scheduling).
            let (li, &lane_at) = lane_free
                .iter()
                .enumerate()
                .min_by_key(|(_, &t)| t)
                .expect("at least one lane");
            let start = ready.max(lane_at);
            let end = start + exec;
            lane_free[li] = end;
            finish[i] = end;
        }

        let makespan = finish.iter().copied().max().unwrap_or(base) - base;
        rt.streams_mut().set_free_at(stream, base + makespan)?;
        if let Some(t) = tele {
            t.inc("graph_replay_launches_total", 1);
            t.inc("graph_replay_nodes_total", self.graph.node_count() as u64);
            t.observe_us("graph_replay_makespan_us", makespan.as_nanos() / 1_000);
        }
        Ok(makespan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::capture_graph;
    use medusa_gpu::{
        AllocTag, CostClass, CostModel, DevicePtr, GpuError, GpuSpec, KernelDef, KernelRef,
        KernelSig, LibraryCatalog, LibrarySpec, ModuleSpec, ParamKind, ProcessRuntime, Work,
    };
    use std::sync::Arc;

    fn catalog() -> Arc<LibraryCatalog> {
        LibraryCatalog::new(vec![LibrarySpec::new(
            "lib.so",
            false,
            vec![ModuleSpec::new(
                "m",
                vec![KernelDef::new(
                    "k",
                    true,
                    KernelSig::new(vec![ParamKind::PtrIn, ParamKind::PtrOut]),
                    CostClass::MemoryBound,
                )],
            )],
        )])
    }

    struct Fixture {
        rt: ProcessRuntime,
        addr: u64,
        a: DevicePtr,
        b: DevicePtr,
        c: DevicePtr,
    }

    fn fixture() -> Fixture {
        let mut rt = ProcessRuntime::new(
            catalog(),
            GpuSpec::new("t", 1 << 30),
            CostModel::default(),
            7,
        );
        rt.dlopen("lib.so").unwrap();
        let addr = rt
            .kernel_address(KernelRef {
                lib: 0,
                module: 0,
                kernel: 0,
            })
            .unwrap();
        let a = rt.cuda_malloc(256, AllocTag::Activation).unwrap();
        let b = rt.cuda_malloc(256, AllocTag::Activation).unwrap();
        let c = rt.cuda_malloc(256, AllocTag::Activation).unwrap();
        rt.memory_mut().write_digest(a.addr(), [5; 16]).unwrap();
        // Warm up: loads the module.
        rt.launch_kernel(addr, &[a.addr(), b.addr()], Work::NONE, 0)
            .unwrap();
        Fixture { rt, addr, a, b, c }
    }

    /// Replaying a captured graph must produce the same buffer contents as
    /// running the same kernels eagerly — the paper's validation criterion.
    #[test]
    fn replay_matches_eager_outputs() {
        let Fixture {
            mut rt,
            addr,
            a,
            b,
            c,
        } = fixture();
        let g = capture_graph(&mut rt, 0, |p| {
            p.launch_kernel(addr, &[a.addr(), b.addr()], Work::NONE, 0)?;
            p.launch_kernel(addr, &[b.addr(), c.addr()], Work::NONE, 0)?;
            Ok(())
        })
        .unwrap();
        let exec = GraphExec::instantiate(&mut rt, g).unwrap();
        exec.launch(&mut rt, 0).unwrap();
        rt.device_synchronize().unwrap();
        let replay_c = rt.memory().read_digest(c.addr()).unwrap();

        // Fresh process, same control flow, eager execution.
        let f2 = fixture();
        let mut rt2 = f2.rt;
        rt2.launch_kernel(f2.addr, &[f2.a.addr(), f2.b.addr()], Work::NONE, 0)
            .unwrap();
        rt2.launch_kernel(f2.addr, &[f2.b.addr(), f2.c.addr()], Work::NONE, 0)
            .unwrap();
        rt2.device_synchronize().unwrap();
        let eager_c = rt2.memory().read_digest(f2.c.addr()).unwrap();
        assert_eq!(replay_c, eager_c);
    }

    #[test]
    fn replay_costs_single_cpu_launch() {
        let Fixture {
            mut rt, addr, a, b, ..
        } = fixture();
        let n = 50;
        let g = capture_graph(&mut rt, 0, |p| {
            for _ in 0..n {
                p.launch_kernel(addr, &[a.addr(), b.addr()], Work::NONE, 0)?;
            }
            Ok(())
        })
        .unwrap();
        let exec = GraphExec::instantiate(&mut rt, g).unwrap();
        let t0 = rt.now();
        exec.launch(&mut rt, 0).unwrap();
        let cpu_cost = rt.now().since(t0);
        assert_eq!(
            cpu_cost.as_nanos(),
            rt.cost().graph_launch_cpu_ns,
            "CPU pays one launch for the whole graph"
        );
        // Eager would pay n per-kernel launches.
        let eager_cpu = rt.cost().eager_launch_cpu_ns * n;
        assert!(eager_cpu > cpu_cost.as_nanos() * 10);
    }

    #[test]
    fn chained_nodes_serialize_on_gpu() {
        let Fixture {
            mut rt, addr, a, b, ..
        } = fixture();
        let w = Work::new(0.0, rt.cost().mem_bandwidth); // exactly 1 s each
        let g = capture_graph(&mut rt, 0, |p| {
            p.launch_kernel(addr, &[a.addr(), b.addr()], w, 0)?;
            p.launch_kernel(addr, &[b.addr(), a.addr()], w, 0)?;
            Ok(())
        })
        .unwrap();
        let exec = GraphExec::instantiate(&mut rt, g).unwrap();
        let makespan = exec.launch(&mut rt, 0).unwrap();
        assert!(
            makespan.as_secs_f64() > 1.9,
            "dependent kernels cannot overlap"
        );
    }

    #[test]
    fn independent_branches_overlap_up_to_lane_count() {
        let Fixture {
            mut rt,
            addr,
            a,
            b,
            c,
        } = fixture();
        let w = Work::new(0.0, rt.cost().mem_bandwidth); // 1 s each
                                                         // Two independent chains on different streams.
        let g = capture_graph(&mut rt, 0, |p| {
            p.launch_kernel(addr, &[a.addr(), b.addr()], w, 0)?;
            p.launch_kernel(addr, &[a.addr(), c.addr()], w, 1)?;
            Ok(())
        })
        .unwrap();
        assert!(
            g.edges().is_empty(),
            "different streams, no event: independent"
        );
        let exec = GraphExec::instantiate(&mut rt, g).unwrap();
        let makespan = exec.launch(&mut rt, 0).unwrap();
        assert!(
            makespan.as_secs_f64() < 1.5,
            "independent branches should run on parallel lanes, got {makespan}"
        );
    }

    #[test]
    fn instantiate_rejects_stale_kernel_addresses() {
        let Fixture {
            mut rt, addr, a, b, ..
        } = fixture();
        let mut g = capture_graph(&mut rt, 0, |p| {
            p.launch_kernel(addr, &[a.addr(), b.addr()], Work::NONE, 0)
        })
        .unwrap();
        // Simulate a blindly-dumped graph from another process: bogus addr.
        g.node_mut(0).set_kernel_addr(addr ^ 0x5550_0000);
        let err = GraphExec::instantiate(&mut rt, g).unwrap_err();
        assert!(matches!(
            err,
            GraphError::Gpu(GpuError::InvalidDeviceFunction { .. })
        ));
    }

    #[test]
    fn replay_with_dangling_pointer_faults() {
        let Fixture {
            mut rt, addr, a, b, ..
        } = fixture();
        let g = capture_graph(&mut rt, 0, |p| {
            p.launch_kernel(addr, &[a.addr(), b.addr()], Work::NONE, 0)
        })
        .unwrap();
        let exec = GraphExec::instantiate(&mut rt, g).unwrap();
        // Free a buffer the graph still references (PyTorch prevents this by
        // never freeing capture-time buffers; paper §2.2).
        rt.cuda_free(b).unwrap();
        let err = exec.launch(&mut rt, 0).unwrap_err();
        assert!(matches!(
            err,
            GraphError::Gpu(GpuError::DanglingWrite { .. })
        ));
    }

    #[test]
    fn empty_graph_instantiates_and_launches_trivially() {
        let Fixture { mut rt, .. } = fixture();
        let g = capture_graph(&mut rt, 0, |_| Ok(())).unwrap();
        let exec = GraphExec::instantiate(&mut rt, g).unwrap();
        let makespan = exec.launch(&mut rt, 0).unwrap();
        assert_eq!(makespan.as_nanos(), 0);
    }

    #[test]
    fn graph_accessor_exposes_nodes_for_inspection() {
        let Fixture {
            mut rt, addr, a, b, ..
        } = fixture();
        let g = capture_graph(&mut rt, 0, |p| {
            p.launch_kernel(addr, &[a.addr(), b.addr()], Work::NONE, 0)
        })
        .unwrap();
        let exec = GraphExec::instantiate(&mut rt, g).unwrap();
        assert_eq!(exec.graph().node_count(), 1);
        assert_eq!(exec.graph().node(0).params().value(0), a.addr());
        assert_eq!(exec.graph().stream_of(0), 0);
    }

    #[test]
    fn relaunching_same_exec_is_self_replaying() {
        let Fixture {
            mut rt, addr, a, b, ..
        } = fixture();
        let g = capture_graph(&mut rt, 0, |p| {
            p.launch_kernel(addr, &[a.addr(), b.addr()], Work::NONE, 0)
        })
        .unwrap();
        let exec = GraphExec::instantiate(&mut rt, g).unwrap();
        exec.launch(&mut rt, 0).unwrap();
        rt.device_synchronize().unwrap();
        let first = rt.memory().read_digest(b.addr()).unwrap();
        exec.launch(&mut rt, 0).unwrap();
        rt.device_synchronize().unwrap();
        // Same inputs, same kernel: replay is idempotent on contents.
        assert_eq!(rt.memory().read_digest(b.addr()).unwrap(), first);
    }

    #[test]
    fn traced_launch_counts_replays_and_nodes() {
        let Fixture {
            mut rt, addr, a, b, ..
        } = fixture();
        let g = capture_graph(&mut rt, 0, |p| {
            for _ in 0..3 {
                p.launch_kernel(addr, &[a.addr(), b.addr()], Work::NONE, 0)?;
            }
            Ok(())
        })
        .unwrap();
        let exec = GraphExec::instantiate(&mut rt, g).unwrap();
        let tele = medusa_telemetry::Registry::new();
        exec.launch_traced(&mut rt, 0, Some(&tele)).unwrap();
        exec.launch_traced(&mut rt, 0, Some(&tele)).unwrap();
        let snap = tele.snapshot();
        assert_eq!(snap.counter("graph_replay_launches_total"), Some(2));
        assert_eq!(snap.counter("graph_replay_nodes_total"), Some(6));
        assert_eq!(snap.histogram("graph_replay_makespan_us").unwrap().count, 2);
    }

    #[test]
    fn instantiation_cost_scales_with_nodes() {
        let Fixture {
            mut rt, addr, a, b, ..
        } = fixture();
        let g = capture_graph(&mut rt, 0, |p| {
            for _ in 0..10 {
                p.launch_kernel(addr, &[a.addr(), b.addr()], Work::NONE, 0)?;
            }
            Ok(())
        })
        .unwrap();
        let t0 = rt.now();
        let _exec = GraphExec::instantiate(&mut rt, g).unwrap();
        let d = rt.now().since(t0);
        assert_eq!(d.as_nanos(), rt.cost().graph_instantiate_per_node_ns * 10);
    }

    /// A patched copy of an instantiated graph is instantiated like it, at
    /// the same cost; a copy whose kernel address moved is checked afresh.
    #[test]
    fn a_patched_copy_instantiates_like_its_base() {
        let Fixture {
            mut rt,
            addr,
            a,
            b,
            c,
        } = fixture();
        let g = capture_graph(&mut rt, 0, |p| {
            p.launch_kernel(addr, &[a.addr(), b.addr()], Work::NONE, 0)?;
            p.launch_kernel(addr, &[b.addr(), c.addr()], Work::NONE, 0)?;
            Ok(())
        })
        .unwrap();
        let base = GraphExec::instantiate(&mut rt, g.clone()).unwrap();
        let mut copy = g.clone();
        copy.node_mut(1).params_mut().set_value(1, a.addr());
        copy.node_mut(1).set_work(Work::new(1.0, 2.0));
        let t0 = rt.now();
        let exec = GraphExec::instantiate_like(&mut rt, copy.clone(), Some(&base)).unwrap();
        assert_eq!(
            rt.now().since(t0).as_nanos(),
            rt.cost().graph_instantiate_per_node_ns * 2
        );
        assert_eq!(exec.graph(), &copy);
        assert_eq!(exec.topo, base.topo);

        let mut stale = g;
        stale.node_mut(0).set_kernel_addr(addr + 1);
        assert!(matches!(
            GraphExec::instantiate_like(&mut rt, stale, Some(&base)),
            Err(GraphError::Gpu(GpuError::InvalidDeviceFunction { .. }))
        ));
    }
}
