//! Measured per-strategy performance models.
//!
//! The cluster simulator needs three numbers per `<model, strategy>`:
//! cold-start loading duration, decode-step duration per batch size, and
//! prefill duration per prompt length. All three are **measured** by
//! running the real pipelines and forward passes on the simulated stack —
//! the simulator then replays them at queueing scale without re-executing
//! tens of millions of kernel digests.

use medusa::{ColdStart, MaterializedState, MedusaResult, Strategy};
use medusa_gpu::{CostModel, GpuSpec, SimDuration};
use medusa_model::ModelSpec;
use serde::{Deserialize, Serialize};

/// Prompt lengths at which prefill is measured; queries interpolate.
const PREFILL_POINTS: [u32; 9] = [16, 32, 64, 128, 161, 256, 512, 1024, 2048];

/// The measured serving performance of one `<model, strategy>` pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfModel {
    /// Strategy the measurements belong to.
    pub strategy: Strategy,
    /// Model name.
    pub model: String,
    /// Loading-phase duration of a (warm-container) cold start.
    pub loading: SimDuration,
    /// Batch sizes of the decode table, ascending.
    pub decode_batches: Vec<u32>,
    /// Decode-step duration per table batch size.
    pub decode: Vec<SimDuration>,
    /// `(tokens, duration)` prefill measurements, ascending tokens.
    pub prefill: Vec<(u32, SimDuration)>,
    /// KV cache capacity in tokens (bounds concurrent context).
    pub kv_capacity_tokens: u64,
}

impl PerfModel {
    /// Builds a performance model from explicit tables (tests/analysis).
    ///
    /// # Panics
    ///
    /// Panics on empty or mismatched tables.
    pub fn from_tables(
        strategy: Strategy,
        model: impl Into<String>,
        loading: SimDuration,
        decode_batches: Vec<u32>,
        decode: Vec<SimDuration>,
        prefill: Vec<(u32, SimDuration)>,
    ) -> Self {
        assert!(!decode_batches.is_empty() && decode_batches.len() == decode.len());
        assert!(!prefill.is_empty());
        assert!(decode_batches.windows(2).all(|w| w[0] < w[1]));
        assert!(prefill.windows(2).all(|w| w[0].0 < w[1].0));
        PerfModel {
            strategy,
            model: model.into(),
            loading,
            decode_batches,
            decode,
            prefill,
            kv_capacity_tokens: u64::MAX,
        }
    }

    /// Sets the KV capacity (builder style; tests).
    pub fn with_kv_capacity(mut self, tokens: u64) -> Self {
        self.kv_capacity_tokens = tokens;
        self
    }

    /// Measures a performance model by running a real cold start and timing
    /// real forward passes on the resulting engine.
    ///
    /// The cold start runs from a warm container with the builder's default
    /// [`medusa::Parallelism`], i.e. the overlapped parallel cold-start
    /// engine — the cluster simulator automatically sees the faster
    /// (dependency-graph-scheduled) loading times rather than the serial
    /// linear sum.
    ///
    /// # Errors
    ///
    /// Propagates cold-start and forwarding errors.
    pub fn measure(
        strategy: Strategy,
        spec: &ModelSpec,
        gpu: GpuSpec,
        cost: CostModel,
        artifact: Option<&MaterializedState>,
        seed: u64,
    ) -> MedusaResult<Self> {
        let mut builder = ColdStart::new(spec)
            .strategy(strategy)
            .gpu(gpu)
            .cost(cost)
            .seed(seed)
            .warm(true);
        if let Some(a) = artifact {
            builder = builder.artifact(a);
        }
        let (mut engine, report) = builder.run()?.into_single();
        let decode_batches = ModelSpec::capture_batch_sizes();
        // Warm each batch bucket once: the first eager decode of a bucket
        // pays one-time GEMM module loads, and the table should reflect
        // steady-state serving.
        for b in [1, 8, 64, 256] {
            engine.decode_step(b)?;
        }
        let mut decode = Vec::with_capacity(decode_batches.len());
        for &b in &decode_batches {
            decode.push(engine.decode_step(b)?);
        }
        let mut prefill = Vec::with_capacity(PREFILL_POINTS.len());
        for &tokens in &PREFILL_POINTS {
            prefill.push((tokens, engine.prefill(1, tokens)?));
        }
        Ok(PerfModel {
            strategy,
            model: spec.name().to_string(),
            loading: report.loading,
            decode_batches,
            decode,
            prefill,
            kv_capacity_tokens: engine.kv.capacity_tokens(),
        })
    }

    /// Decode-step duration at `batch` (rounded up to the next table entry;
    /// clamped to the largest).
    pub fn decode_duration(&self, batch: u32) -> SimDuration {
        let idx = self
            .decode_batches
            .iter()
            .position(|&b| b >= batch)
            .unwrap_or(self.decode_batches.len() - 1);
        self.decode[idx]
    }

    /// Prefill duration for a `tokens`-token prompt (piecewise-linear
    /// interpolation; linear extrapolation past the last point).
    pub fn prefill_duration(&self, tokens: u32) -> SimDuration {
        let pts = &self.prefill;
        if tokens <= pts[0].0 {
            return pts[0].1;
        }
        for w in pts.windows(2) {
            let ((x0, y0), (x1, y1)) = (w[0], w[1]);
            if tokens <= x1 {
                let f = (tokens - x0) as f64 / (x1 - x0) as f64;
                let ns = y0.as_nanos() as f64 + f * (y1.as_nanos() as f64 - y0.as_nanos() as f64);
                return SimDuration::from_nanos(ns as u64);
            }
        }
        // Extrapolate from the last segment's slope.
        let (&(x0, y0), &(x1, y1)) = (&pts[pts.len() - 2], &pts[pts.len() - 1]);
        let slope = (y1.as_nanos() as f64 - y0.as_nanos() as f64) / (x1 - x0) as f64;
        SimDuration::from_nanos((y1.as_nanos() as f64 + slope * (tokens - x1) as f64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> PerfModel {
        PerfModel::from_tables(
            Strategy::Vanilla,
            "toy",
            SimDuration::from_millis(1000),
            vec![1, 2, 4, 8],
            vec![
                SimDuration::from_millis(3),
                SimDuration::from_millis(4),
                SimDuration::from_millis(5),
                SimDuration::from_millis(6),
            ],
            vec![
                (100, SimDuration::from_millis(10)),
                (200, SimDuration::from_millis(20)),
            ],
        )
    }

    #[test]
    fn measure_uses_the_overlapped_cold_start_engine() {
        use medusa::Parallelism;
        let spec = ModelSpec::by_name("Qwen1.5-0.5B").expect("catalog model");
        let perf = PerfModel::measure(
            Strategy::VanillaAsync,
            &spec,
            GpuSpec::a100_40gb(),
            CostModel::default(),
            None,
            77,
        )
        .expect("measure");
        let loading_with = |parallelism| {
            let outcome = medusa::ColdStart::new(&spec)
                .strategy(Strategy::VanillaAsync)
                .seed(77)
                .warm(true)
                .parallelism(parallelism)
                .run()
                .expect("cold start");
            outcome.report().loading
        };
        // The builder's default runs the overlapped engine, so the simulator's
        // loading time is the scheduled makespan, not the serial sum.
        assert_eq!(perf.loading, loading_with(Parallelism::Overlapped));
        assert!(perf.loading < loading_with(Parallelism::Serial));
    }

    #[test]
    fn decode_rounds_up_and_clamps() {
        let p = synthetic();
        assert_eq!(p.decode_duration(1), SimDuration::from_millis(3));
        assert_eq!(p.decode_duration(3), SimDuration::from_millis(5));
        assert_eq!(p.decode_duration(8), SimDuration::from_millis(6));
        assert_eq!(
            p.decode_duration(99),
            SimDuration::from_millis(6),
            "clamped"
        );
    }

    #[test]
    fn prefill_interpolates_and_extrapolates() {
        let p = synthetic();
        assert_eq!(p.prefill_duration(50), SimDuration::from_millis(10));
        assert_eq!(p.prefill_duration(150), SimDuration::from_millis(15));
        assert_eq!(p.prefill_duration(300), SimDuration::from_millis(30));
    }

    #[test]
    fn measured_models_preserve_strategy_ordering() {
        let spec = ModelSpec::by_name("Qwen1.5-0.5B").unwrap();
        let (artifact, _) =
            medusa::materialize_offline(&spec, GpuSpec::a100_40gb(), CostModel::default(), 61)
                .unwrap();
        let measure = |s: Strategy, art: Option<&MaterializedState>| {
            PerfModel::measure(
                s,
                &spec,
                GpuSpec::a100_40gb(),
                CostModel::default(),
                art,
                62,
            )
            .unwrap()
        };
        let vanilla = measure(Strategy::Vanilla, None);
        let nograph = measure(Strategy::NoCudaGraph, None);
        let medusa = measure(Strategy::Medusa, Some(&artifact));
        // Loading: Medusa and NoCudaGraph both beat vanilla (Fig. 7 / §7.5).
        // (For this smallest model NoCudaGraph's loading can undercut
        // Medusa's — its penalty is eager serving, covered below; on the
        // trace-experiment models Medusa also wins end-to-end, see the
        // fig10 harness.)
        assert!(medusa.loading < vanilla.loading);
        assert!(nograph.loading < vanilla.loading);
        // Decoding: graph strategies beat eager (Fig. 3).
        assert!(medusa.decode_duration(1) < nograph.decode_duration(1));
        assert_eq!(vanilla.decode_duration(1), vanilla.decode[0]);
        // Medusa's restored graphs decode exactly as fast as vanilla's.
        let ratio =
            medusa.decode_duration(1).as_secs_f64() / vanilla.decode_duration(1).as_secs_f64();
        assert!(
            (0.95..1.05).contains(&ratio),
            "restored graph decode ratio {ratio}"
        );
        // Prefill grows with prompt length.
        assert!(vanilla.prefill_duration(1024) > vanilla.prefill_duration(64));
    }
}
