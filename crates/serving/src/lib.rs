//! # medusa-serving
//!
//! Discrete-event serverless serving cluster simulator for the Medusa
//! (ASPLOS'25) reproduction — the substrate behind the paper's application
//! trace experiments (Figures 10 and 11) and the fleet experiments beyond
//! them.
//!
//! Performance numbers come from *measured* runs of the real pipelines and
//! forward passes ([`PerfModel::measure`]); the simulator replays them at
//! queueing scale: Poisson arrivals, a global queue, reactive scale-up with
//! cold starts, iteration-level batched serving, and TTFT tail metrics.
//!
//! One simulator ([`cluster`]) covers every scale: `N` simulated GPU
//! workers, a pluggable [`Scheduler`] (round-robin, least-loaded,
//! cold-start-aware with §6 artifact-cache locality, and a
//! ServerlessLLM-style start-cost locality policy), and an autoscaler with
//! keep-alive, scale-to-zero, and backlog-triggered scale-up. The paper's
//! 4-GPU testbed is one configuration of it
//! ([`ClusterSpec::paper_testbed`]). Schedulers
//! decide over a [`FleetQuery`]: candidate sets of an incrementally
//! maintained node index plus start costs priced on demand, so a routing
//! decision does not scan the fleet. The
//! [`predict`] module adds the proactive side: keep-alive/prewarm
//! estimators fed by per-model arrival history that start nodes *before*
//! a forecast burst, and [`ClusterSpec::pipeline_k`] shards one cold
//! start across several nodes pipeline-parallel (HydraServe/ParaServe
//! style), serving the first token when the first stage is live.
//!
//! ## Example
//!
//! ```rust,no_run
//! use medusa::Strategy;
//! use medusa_gpu::{CostModel, GpuSpec};
//! use medusa_model::ModelSpec;
//! use medusa_serving::{simulate_fleet, ClusterSpec, FleetProfile, PerfModel, Policy};
//! use medusa_workload::TraceConfig;
//!
//! # fn main() -> Result<(), medusa::MedusaError> {
//! let spec = ModelSpec::by_name("Qwen1.5-4B").expect("catalog model");
//! let perf = PerfModel::measure(
//!     Strategy::Vanilla,
//!     &spec,
//!     GpuSpec::a100_40gb(),
//!     CostModel::default(),
//!     None,
//!     1,
//! )?;
//! let trace = TraceConfig::sharegpt(2.0, 60.0).with_seed(1).generate();
//! let out = simulate_fleet(
//!     &FleetProfile::from_perf(Strategy::Vanilla, perf),
//!     &ClusterSpec::paper_testbed(),
//!     Policy::ColdStartAware,
//!     &trace,
//! );
//! println!("p99 TTFT: {} us", out.report.ttft_p99_us);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod cluster;
pub mod event;
mod params;
pub mod predict;
pub mod scenarios;

pub use cluster::{
    simulate_fleet, simulate_fleet_traced, AutoscalerConfig, CacheCapacity, CacheConfig,
    CacheReport, ClusterFaults, ClusterReport, ClusterSpec, ColdStartAware, Decision,
    EvictionPolicy, FetchPolicy, FetchUnit, FleetOutcome, FleetProfile, FleetQuery, FleetStats,
    LeastLoaded, ModelCost, ModelManifest, NodeReport, NodeSpec, NodeState, Policy, PrewarmReport,
    RegistryCatalog, RegistryMode, RegistryReport, RoundRobin, Scheduler, ServerlessLlmLocality,
    TenantReport, BUSIEST_NODES, ROUTE_SPANS,
};
pub use event::{ArrivalCursor, EventQueue, EventToken, FleetEvent};
pub use params::PerfModel;
pub use predict::{PrewarmConfig, PrewarmDecision, PrewarmEstimator, PrewarmPolicy};
