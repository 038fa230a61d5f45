//! What a fleet run records, and what the fleet derives from the records
//! when the run ends.
//!
//! The event handlers record each request, cold start and crash once, in
//! plain fields that traced and untraced runs keep alike. The report's
//! tenant table ([`tenant_table`]) and every fleet metric and span
//! ([`publish`]) are read from them when the run ends, so this module is
//! the only place that knows the telemetry schema.

use super::{quantile_us, CacheReport, FleetOutcome, TenantReport};
use crate::params::PerfModel;
use medusa_gpu::SimDuration;
use medusa_telemetry::{HistogramSnapshot, Registry as TelemetryRegistry};
use medusa_workload::Request;
use std::cmp::Reverse;

/// How many placed requests keep a `route/…` span in a fleet's telemetry:
/// the slowest by TTFT.
pub const ROUTE_SPANS: usize = 64;

/// What one run recorded about each request, cold start and crash.
#[derive(Debug, Default)]
pub(super) struct Records {
    /// Per request, trace order.
    pub(super) requests: Vec<RequestRecord>,
    /// Per cold start, start order.
    pub(super) cold_starts: Vec<ColdStartRecord>,
    /// Per crash: the node whose crash fired and the instant, ns.
    pub(super) crashes: Vec<(usize, u64)>,
}

impl Records {
    /// The records of a run over `requests` requests, before it starts.
    pub(super) fn new(requests: usize) -> Self {
        assert!(
            requests < RequestRecord::NO_TOKEN as usize,
            "a fleet trace holds fewer than 2^31 - 1 requests"
        );
        Records {
            requests: vec![RequestRecord::NEW; requests],
            ..Records::default()
        }
    }

    /// The requests that completed.
    pub(super) fn completed(&self) -> usize {
        self.requests.iter().filter(|r| r.completed()).count()
    }

    /// Per node of `nodes`, the requests it served: the first tokens it
    /// produced.
    pub(super) fn served(&self, nodes: usize) -> Vec<u32> {
        let mut served = vec![0; nodes];
        for r in self.requests.iter().filter(|r| r.slot().is_some()) {
            served[r.node as usize] += 1;
        }
        served
    }
}

/// One request's record, 16 B: the placement that holds it, its first
/// token, and whether it completed.
#[derive(Debug, Clone, Copy)]
pub(super) struct RequestRecord {
    /// Instant of the placement, ns; `UNPLACED` before the first one and
    /// after a crash sends the request back to the queue.
    placed_ns: u64,
    /// Node of the placement.
    node: u32,
    /// Index of the request's TTFT in the run's `ttfts` (`NO_TOKEN` before
    /// its first token), with `DONE` set once it completes.
    token: u32,
}

// Every run keeps one per request, traced or not.
const _: () = assert!(std::mem::size_of::<RequestRecord>() == 16);

impl RequestRecord {
    const UNPLACED: u64 = u64::MAX;
    const DONE: u32 = 1 << 31;
    const NO_TOKEN: u32 = RequestRecord::DONE - 1;
    const NEW: RequestRecord = RequestRecord {
        placed_ns: RequestRecord::UNPLACED,
        node: 0,
        token: RequestRecord::NO_TOKEN,
    };

    /// Records the request's placement on `node` at `t`.
    pub(super) fn place(&mut self, node: usize, t: u64) {
        self.placed_ns = t;
        self.node = node as u32;
    }

    /// Records that a crash sent the request back to the queue.
    pub(super) fn unplace(&mut self) {
        self.placed_ns = RequestRecord::UNPLACED;
    }

    /// Records the request's first token, whose TTFT is `ttfts[slot]`.
    pub(super) fn first_token(&mut self, slot: usize) {
        self.token = slot as u32;
    }

    /// Records that the request completed.
    pub(super) fn complete(&mut self) {
        self.token |= RequestRecord::DONE;
    }

    /// The node and instant of the placement that holds the request.
    pub(super) fn placement(self) -> Option<(usize, u64)> {
        (self.placed_ns != RequestRecord::UNPLACED).then_some((self.node as usize, self.placed_ns))
    }

    /// The index of the request's TTFT in the run's `ttfts`, once it has
    /// a first token.
    fn slot(self) -> Option<usize> {
        let slot = self.token & !RequestRecord::DONE;
        (slot != RequestRecord::NO_TOKEN).then_some(slot as usize)
    }

    /// The request's TTFT, read from the run's `ttfts`, once it has a
    /// first token.
    pub(super) fn ttft(self, ttfts: &[SimDuration]) -> Option<SimDuration> {
        self.slot().map(|slot| ttfts[slot])
    }

    fn completed(self) -> bool {
        self.token & RequestRecord::DONE != 0
    }
}

/// One cold start: the head node, the model, and the instants it began
/// and was due ready, ns.
#[derive(Debug, Clone, Copy)]
pub(super) struct ColdStartRecord {
    pub(super) node: usize,
    pub(super) model: u32,
    pub(super) start_ns: u64,
    pub(super) ready_ns: u64,
}

/// The report's per-tenant table, ascending model id: one row per model of
/// the trace, from its requests' and cold starts' records.
pub(super) fn tenant_table(
    trace: &[Request],
    records: &Records,
    ttfts: &[SimDuration],
    slo_ns: u64,
) -> Vec<TenantReport> {
    let mut by_model: Vec<usize> = (0..trace.len()).collect();
    by_model.sort_by_key(|&r| trace[r].model);
    by_model
        .chunk_by(|&a, &b| trace[a].model == trace[b].model)
        .map(|reqs| {
            let model = trace[reqs[0]].model;
            let recs = reqs.iter().map(|&r| records.requests[r]);
            let mut ttfts_ns: Vec<u64> = recs
                .clone()
                .filter_map(|rec| Some(rec.ttft(ttfts)?.as_nanos()))
                .collect();
            ttfts_ns.sort_unstable();
            let slo_attained = ttfts_ns.partition_point(|&ns| ns <= slo_ns);
            TenantReport {
                model,
                offered: reqs.len(),
                completed: recs.filter(|rec| rec.completed()).count(),
                cold_starts: records
                    .cold_starts
                    .iter()
                    .filter(|c| c.model == model)
                    .count() as u32,
                ttft_p50_us: quantile_us(&ttfts_ns, 0.5) / 1_000,
                ttft_p99_us: quantile_us(&ttfts_ns, 0.99) / 1_000,
                slo_attained_pm: (slo_attained * 1_000 / reqs.len()) as u32,
            }
        })
        .collect()
}

/// Publishes a finished run into `tele`, from its outcome and records:
///
/// - each fleet event counter that is nonzero, read from the report (the
///   cache counts from `cache`, which the report leaves out of unbounded
///   single-tenant runs), and the run totals, always;
/// - the fleet TTFT histogram;
/// - per node, TTFT and queue-delay histograms and the cold-start count,
///   each only if nonempty: under its own name for the
///   [`super::BUSIEST_NODES`], summed into one `cluster_node_other_*`
///   series for the rest;
/// - a span per cold start (`coldstart/…`, start to due ready) and per
///   crash (`nodefail/…`), and one (`route/…`, arrival to placement) for
///   each of the [`ROUTE_SPANS`] slowest placed requests by TTFT, where
///   one without a first token counts as slowest and ties go by request
///   index.
pub(super) fn publish(
    tele: &TelemetryRegistry,
    trace: &[Request],
    perf: &PerfModel,
    out: &FleetOutcome,
    cache: &CacheReport,
    records: &Records,
) {
    let report = &out.report;
    let registry = report.registry.unwrap_or_default();
    let prewarm = report.prewarm.map_or((0, 0), |p| (p.issued, p.unused));
    let counters: [(&str, u64); 15] = [
        ("cluster_cold_starts_total", report.cold_starts.into()),
        (
            "cluster_scale_to_zero_total",
            report.scale_to_zero_events.into(),
        ),
        ("cluster_fetch_retries_total", report.fetch_retries.into()),
        (
            "cluster_degraded_coldstarts_total",
            report.degraded_cold_starts.into(),
        ),
        ("cluster_node_failures_total", report.node_failures.into()),
        ("cluster_reroutes_total", report.reroutes.into()),
        ("cluster_cache_hits_total", cache.hits),
        ("cluster_cache_misses_total", cache.misses),
        ("cluster_cache_evictions_total", cache.evictions),
        (
            "cluster_registry_bytes_fetched_total",
            registry.bytes_fetched,
        ),
        ("cluster_registry_chunk_hits_total", registry.chunk_hits),
        ("cluster_registry_chunk_misses_total", registry.chunk_misses),
        ("cluster_prewarms_issued_total", prewarm.0),
        ("cluster_prewarms_unused_total", prewarm.1),
        (
            "cluster_pipeline_starts_total",
            report.pipeline_starts.unwrap_or(0),
        ),
    ];
    for (name, n) in counters.into_iter().filter(|&(_, n)| n > 0) {
        tele.inc(name, n);
    }
    tele.inc("cluster_requests_offered_total", report.offered as u64);
    tele.inc("cluster_requests_completed_total", report.completed as u64);
    tele.gauge_max("cluster_makespan_us", report.makespan_ns / 1_000);

    // Per-node series: one per busiest node, then `other`.
    let busiest = report.busiest_nodes();
    let series = |node: usize| busiest.binary_search(&node).unwrap_or(busiest.len());
    let names = |metric: &str| {
        let mut names: Vec<String> = busiest
            .iter()
            .map(|i| format!("cluster_node{i}_{metric}"))
            .collect();
        names.push(format!("cluster_node_other_{metric}"));
        names
    };
    let mut cold_starts = vec![0u64; busiest.len() + 1];
    for (i, node) in report.nodes.iter().enumerate() {
        cold_starts[series(i)] += u64::from(node.cold_starts);
    }
    for (name, n) in names("cold_starts_total").iter().zip(cold_starts) {
        if n > 0 {
            tele.inc(name, n);
        }
    }
    let mut fleet_ttft = HistogramSnapshot::default();
    let mut ttft = vec![HistogramSnapshot::default(); busiest.len() + 1];
    let mut queue_delay = ttft.clone();
    for (req, rec) in trace.iter().zip(&records.requests) {
        let (Some((node, _)), Some(d)) = (rec.placement(), rec.ttft(&out.ttfts)) else {
            continue;
        };
        let ns = d.as_nanos();
        let s = series(node);
        fleet_ttft.observe(ns / 1_000);
        ttft[s].observe(ns / 1_000);
        queue_delay[s].observe((ns - perf.prefill_duration(req.prompt_tokens).as_nanos()) / 1_000);
    }
    tele.merge_histogram("cluster_ttft_us", &fleet_ttft);
    for (metric, hists) in [("ttft_us", ttft), ("queue_delay_us", queue_delay)] {
        for (name, h) in names(metric).iter().zip(&hists) {
            if h.count > 0 {
                tele.merge_histogram(name, h);
            }
        }
    }

    // Keyed by (TTFT, slowest first; request index); the placement rides
    // along.
    let mut slowest: Vec<_> = records
        .requests
        .iter()
        .enumerate()
        .filter_map(|(r, rec)| {
            let ttft = rec.ttft(&out.ttfts).map_or(u64::MAX, |d| d.as_nanos());
            Some((Reverse(ttft), r, rec.placement()?))
        })
        .collect();
    if slowest.len() > ROUTE_SPANS {
        slowest.select_nth_unstable(ROUTE_SPANS);
        slowest.truncate(ROUTE_SPANS);
    }
    for (_, r, (node, placed_ns)) in slowest {
        let req = &trace[r];
        tele.span(
            format!("route/r{}/m{}->n{node}", req.id, req.model),
            "scheduler",
            req.arrival_ns / 1_000,
            placed_ns / 1_000,
        );
    }
    for c in &records.cold_starts {
        tele.span(
            format!("coldstart/n{}/m{}", c.node, c.model),
            format!("node{}", c.node),
            c.start_ns / 1_000,
            c.ready_ns / 1_000,
        );
    }
    for &(node, t) in &records.crashes {
        tele.span(
            format!("nodefail/n{node}"),
            format!("node{node}"),
            t / 1_000,
            t / 1_000,
        );
    }
}
