//! # medusa-workload
//!
//! ShareGPT-like synthetic workload traces for the Medusa (ASPLOS'25)
//! reproduction's serving experiments (paper §7.5).
//!
//! The paper replays the ShareGPT dataset with Poisson request arrivals.
//! The evaluation consumes only two aspects of the dataset — the prompt and
//! output *length distributions* (average 161 prompt / 338 output tokens,
//! §2.2) — so this crate generates length samples from a log-normal fit to
//! those means plus a seeded Poisson arrival process.
//!
//! Beyond the single-model ramp, the crate models multi-tenant serverless
//! traffic: every [`Request`] carries a `model` id, a [`ModelMix`] draws
//! model popularity from a Zipf distribution (production serverless
//! platforms see heavily skewed per-function popularity), arrivals can
//! follow Poisson, square-wave bursty, 2-state MMPP, or diurnal processes,
//! and [`InvocationTrace`] imports Azure-Functions-style per-minute
//! invocation-count tables as replayable traces. Everything is
//! seed-deterministic: same config + seed ⇒ byte-identical trace.
//!
//! ## Example
//!
//! ```rust
//! use medusa_workload::TraceConfig;
//!
//! let trace = TraceConfig::sharegpt(2.0, 60.0).with_seed(7).generate();
//! assert!(!trace.is_empty());
//! let avg_prompt: f64 =
//!     trace.iter().map(|r| r.prompt_tokens as f64).sum::<f64>() / trace.len() as f64;
//! assert!((100.0..230.0).contains(&avg_prompt));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Mean ShareGPT prompt length in tokens (paper §2.2).
pub const SHAREGPT_MEAN_PROMPT: f64 = 161.0;
/// Mean ShareGPT output length in tokens (paper §2.2).
pub const SHAREGPT_MEAN_OUTPUT: f64 = 338.0;

/// One inference request of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Request {
    /// Monotonic request id.
    pub id: u64,
    /// Arrival time in nanoseconds since trace start.
    pub arrival_ns: u64,
    /// Prompt length in tokens.
    pub prompt_tokens: u32,
    /// Output length in tokens.
    pub output_tokens: u32,
    /// Tenant/model id this request targets (0 in single-tenant traces).
    pub model: u32,
}

// Hand-written so pre-multi-tenant request JSON (no `model` field) still
// decodes: a missing model id defaults to 0. The vendored serde stub has
// no `#[serde(default)]`.
impl serde::Deserialize for Request {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Request {
            id: u64::from_value(serde::field(v, "id", "Request")?)?,
            arrival_ns: u64::from_value(serde::field(v, "arrival_ns", "Request")?)?,
            prompt_tokens: u32::from_value(serde::field(v, "prompt_tokens", "Request")?)?,
            output_tokens: u32::from_value(serde::field(v, "output_tokens", "Request")?)?,
            model: match v.get("model") {
                Some(m) => u32::from_value(m)?,
                None => 0,
            },
        })
    }
}

/// Order-sensitive FNV-1a fingerprint of a trace.
///
/// Embedded in cluster reports so two runs can assert (cheaply, without
/// storing the trace) that they replayed the same request stream.
///
/// The model id is packed into the high half of the prompt word, so
/// single-tenant traces (`model == 0`) hash to exactly the value the
/// pre-multi-tenant fingerprint produced — committed baselines stay valid —
/// while any nonzero model id perturbs the digest.
pub fn fingerprint(trace: &[Request]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in trace {
        for v in [
            r.id,
            r.arrival_ns,
            r.prompt_tokens as u64 | ((r.model as u64) << 32),
            r.output_tokens as u64,
        ] {
            h ^= v;
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// Per-model arrival history extracted from a trace — the feed of the
/// serving layer's predictive prewarm estimators.
///
/// The history is the minimal signal a keep-alive/prewarm policy needs:
/// for every model id, the ordered arrival instants (ns). Estimators
/// derive inter-arrival distributions or windowed rates from it; the
/// export is deterministic (sorted by model id, arrivals in trace order)
/// so estimator decisions seeded from the same trace are byte-identical.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ArrivalHistory {
    /// Arrival instants (ns since trace start) per model id, ascending
    /// model id, arrivals in trace (time) order.
    pub per_model: std::collections::BTreeMap<u32, Vec<u64>>,
}

impl ArrivalHistory {
    /// Extracts the per-model arrival history from a request trace.
    pub fn from_requests(trace: &[Request]) -> Self {
        let mut per_model: std::collections::BTreeMap<u32, Vec<u64>> =
            std::collections::BTreeMap::new();
        for r in trace {
            per_model.entry(r.model).or_default().push(r.arrival_ns);
        }
        ArrivalHistory { per_model }
    }

    /// Number of distinct models with at least one arrival.
    pub fn models(&self) -> usize {
        self.per_model.len()
    }

    /// Consecutive inter-arrival gaps (ns) of `model`; empty when the
    /// model has fewer than two arrivals.
    pub fn inter_arrivals(&self, model: u32) -> Vec<u64> {
        self.per_model.get(&model).map_or_else(Vec::new, |a| {
            a.windows(2).map(|w| w[1].saturating_sub(w[0])).collect()
        })
    }

    /// Encodes the history as a stable `model,arrival_ns` CSV (header
    /// row included) — the on-disk export format `medusa-cli cluster
    /// --arrivals-out` writes for offline estimator studies.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("model,arrival_ns\n");
        for (model, arrivals) in &self.per_model {
            for t in arrivals {
                out.push_str(&format!("{model},{t}\n"));
            }
        }
        out
    }

    /// Parses the CSV format written by [`ArrivalHistory::to_csv`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed line.
    pub fn parse_csv(text: &str) -> Result<Self, String> {
        let mut per_model: std::collections::BTreeMap<u32, Vec<u64>> =
            std::collections::BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || (i == 0 && line.starts_with("model")) {
                continue;
            }
            let (m, t) = line
                .split_once(',')
                .ok_or_else(|| format!("line {}: expected `model,arrival_ns`", i + 1))?;
            let model: u32 = m
                .trim()
                .parse()
                .map_err(|e| format!("line {}: bad model id `{m}`: {e}", i + 1))?;
            let t_ns: u64 = t
                .trim()
                .parse()
                .map_err(|e| format!("line {}: bad arrival `{t}`: {e}", i + 1))?;
            per_model.entry(model).or_default().push(t_ns);
        }
        Ok(ArrivalHistory { per_model })
    }
}

/// A seeded log-normal sampler for token lengths.
#[derive(Debug, Clone)]
pub struct LengthSampler {
    mu: f64,
    sigma: f64,
    min: u32,
    max: u32,
}

impl LengthSampler {
    /// A sampler whose distribution has the given arithmetic `mean`, with
    /// shape `sigma` and clamped to `[min, max]`.
    pub fn new(mean: f64, sigma: f64, min: u32, max: u32) -> Self {
        assert!(mean > 0.0 && sigma > 0.0 && min <= max);
        // E[lognormal(mu, sigma)] = exp(mu + sigma^2 / 2).
        let mu = mean.ln() - sigma * sigma / 2.0;
        LengthSampler {
            mu,
            sigma,
            min,
            max,
        }
    }

    /// The ShareGPT prompt-length sampler.
    pub fn sharegpt_prompt() -> Self {
        LengthSampler::new(SHAREGPT_MEAN_PROMPT, 0.9, 4, 2048)
    }

    /// The ShareGPT output-length sampler.
    pub fn sharegpt_output() -> Self {
        LengthSampler::new(SHAREGPT_MEAN_OUTPUT, 0.8, 4, 2048)
    }

    /// Draws one length.
    pub fn sample(&self, rng: &mut SmallRng) -> u32 {
        // Box-Muller standard normal.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (self.mu + self.sigma * z).exp();
        (v.round() as u64).clamp(self.min as u64, self.max as u64) as u32
    }
}

/// How requests are spread across models/tenants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelMix {
    /// Every request targets the one given model id (the single-tenant
    /// default; draws no randomness, so traces are byte-identical to the
    /// pre-multi-tenant generator).
    Single(u32),
    /// Zipf-skewed popularity over models `0..models`: model `k` is drawn
    /// with probability ∝ `1 / (k + 1)^s`. Model 0 is the most popular.
    Zipf {
        /// Number of distinct models (ids `0..models`).
        models: u32,
        /// Skew exponent (`s = 0` is uniform; production serverless
        /// popularity is typically `s ≈ 1`).
        s: f64,
    },
}

impl Default for ModelMix {
    fn default() -> Self {
        ModelMix::Single(0)
    }
}

impl ModelMix {
    /// A Zipf mix over `models` models with exponent `s`.
    pub fn zipf(models: u32, s: f64) -> Self {
        assert!(models >= 1, "zipf mix needs at least one model");
        assert!(s >= 0.0, "zipf exponent must be non-negative");
        ModelMix::Zipf { models, s }
    }

    /// Precomputed inverse-CDF table for sampling (empty for `Single`).
    fn cdf(&self) -> Vec<f64> {
        match *self {
            ModelMix::Single(_) => Vec::new(),
            ModelMix::Zipf { models, s } => {
                let mut cdf: Vec<f64> = Vec::with_capacity(models as usize);
                let mut acc = 0.0f64;
                for k in 0..models {
                    acc += 1.0 / ((k + 1) as f64).powf(s);
                    cdf.push(acc);
                }
                let total = acc;
                for c in &mut cdf {
                    *c /= total;
                }
                cdf
            }
        }
    }
}

/// The request arrival pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// Homogeneous Poisson arrivals at the configured rate.
    Poisson,
    /// Bursty arrivals: a square-wave-modulated Poisson process. The paper
    /// motivates serverless serving with traffic "fluctuating by 10-20
    /// times within a 30-second window" (§1, citing Mooncake) — this
    /// pattern reproduces that shape while keeping the configured rate as
    /// the long-run average.
    Bursty {
        /// Peak-to-trough rate ratio (10–20 per the paper).
        factor: f64,
        /// Burst cycle length in seconds (~30 per the paper).
        period_s: f64,
        /// Fraction of each cycle spent at the peak rate, in `(0, 1)`.
        duty: f64,
    },
    /// 2-state Markov-modulated Poisson process: the rate alternates
    /// between a burst regime (`factor×` the idle rate) and an idle regime,
    /// with exponentially distributed sojourn times. Unlike `Bursty`, the
    /// regime changes are *random* (seeded off the trace seed), which is
    /// the classic model for serverless invocation burstiness. The
    /// long-run mean rate is normalized to the configured `rps`.
    Mmpp {
        /// Burst-to-idle rate ratio (> 1).
        factor: f64,
        /// Mean sojourn time in the burst regime, seconds.
        mean_burst_s: f64,
        /// Mean sojourn time in the idle regime, seconds.
        mean_idle_s: f64,
    },
    /// Diurnal arrivals: a sinusoidal rate
    /// `rps · (1 + amplitude · sin(2πt / period_s))`, mean-preserving.
    /// Scale runs use a compressed `period_s` so a "day" fits in a trace.
    Diurnal {
        /// Cycle length in seconds.
        period_s: f64,
        /// Relative swing in `[0, 1]` (1.0 ⇒ rate touches zero).
        amplitude: f64,
    },
}

/// Seed salt for the MMPP regime timeline, so regime switches come from an
/// RNG stream disjoint from the arrival/length stream.
const MMPP_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

impl ArrivalPattern {
    /// The paper's motivating burstiness: 15× swings on a 30 s cycle.
    pub fn sharegpt_bursty() -> Self {
        ArrivalPattern::Bursty {
            factor: 15.0,
            period_s: 30.0,
            duty: 0.2,
        }
    }

    /// A serverless-flavored MMPP default: 12× bursts averaging 5 s,
    /// separated by ~20 s idle stretches.
    pub fn serverless_mmpp() -> Self {
        ArrivalPattern::Mmpp {
            factor: 12.0,
            mean_burst_s: 5.0,
            mean_idle_s: 20.0,
        }
    }

    /// A compressed diurnal cycle: 80% swing on a 120 s "day".
    pub fn compressed_diurnal() -> Self {
        ArrivalPattern::Diurnal {
            period_s: 120.0,
            amplitude: 0.8,
        }
    }

    /// Instantaneous rate multiplier at time `t` for analytic patterns
    /// (mean 1.0 over a cycle). MMPP is not analytic — its multiplier
    /// comes from the sampled [`RegimeTimeline`].
    fn multiplier(&self, t: f64) -> f64 {
        match *self {
            ArrivalPattern::Poisson => 1.0,
            ArrivalPattern::Bursty {
                factor,
                period_s,
                duty,
            } => {
                // Peak and trough chosen so the cycle average is 1.0.
                let mean = duty * factor + (1.0 - duty);
                let phase = (t / period_s).fract();
                let raw = if phase < duty { factor } else { 1.0 };
                raw / mean
            }
            ArrivalPattern::Diurnal {
                period_s,
                amplitude,
            } => 1.0 + amplitude * (2.0 * std::f64::consts::PI * t / period_s).sin(),
            ArrivalPattern::Mmpp { .. } => {
                unreachable!("MMPP multiplier comes from the sampled regime timeline")
            }
        }
    }

    /// Peak multiplier for Lewis–Shedler thinning.
    fn peak_multiplier(&self) -> f64 {
        match *self {
            ArrivalPattern::Poisson => 1.0,
            ArrivalPattern::Bursty { factor, duty, .. } => factor / (duty * factor + (1.0 - duty)),
            ArrivalPattern::Mmpp {
                factor,
                mean_burst_s,
                mean_idle_s,
            } => {
                let pb = mean_burst_s / (mean_burst_s + mean_idle_s);
                factor / (pb * factor + (1.0 - pb))
            }
            ArrivalPattern::Diurnal { amplitude, .. } => 1.0 + amplitude,
        }
    }
}

/// Piecewise-constant rate-multiplier timeline sampled for MMPP traces.
/// `segments[k] = (start_s, multiplier)`; segments are sorted by start.
struct RegimeTimeline {
    segments: Vec<(f64, f64)>,
    cursor: usize,
}

impl RegimeTimeline {
    /// Samples the regime-switch timeline over `[0, duration_s)` with its
    /// own RNG stream so arrival thinning draws stay independent of it.
    fn sample(pattern: &ArrivalPattern, seed: u64, duration_s: f64) -> Option<Self> {
        let ArrivalPattern::Mmpp {
            factor,
            mean_burst_s,
            mean_idle_s,
        } = *pattern
        else {
            return None;
        };
        assert!(factor > 1.0, "MMPP burst factor must exceed 1");
        assert!(
            mean_burst_s > 0.0 && mean_idle_s > 0.0,
            "MMPP sojourn means must be positive"
        );
        // Normalize so the *stationary* mean multiplier is 1.0.
        let pb = mean_burst_s / (mean_burst_s + mean_idle_s);
        let mean = pb * factor + (1.0 - pb);
        let mut rng = SmallRng::seed_from_u64(seed ^ MMPP_SALT);
        let mut segments = Vec::new();
        let mut t = 0.0f64;
        let mut bursting = false; // deterministic start: idle regime
        while t < duration_s {
            let mult = if bursting { factor } else { 1.0 } / mean;
            segments.push((t, mult));
            let mean_sojourn = if bursting { mean_burst_s } else { mean_idle_s };
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() * mean_sojourn;
            bursting = !bursting;
        }
        Some(RegimeTimeline {
            segments,
            cursor: 0,
        })
    }

    /// Multiplier at `t`. Callers pass monotonically increasing `t`, so the
    /// lookup is an amortized-O(1) cursor walk.
    fn multiplier(&mut self, t: f64) -> f64 {
        while self.cursor + 1 < self.segments.len() && self.segments[self.cursor + 1].0 <= t {
            self.cursor += 1;
        }
        self.segments[self.cursor].1
    }
}

/// Configuration of a synthetic trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Mean requests per second of the arrival process.
    pub rps: f64,
    /// Trace duration in seconds.
    pub duration_s: f64,
    /// RNG seed.
    pub seed: u64,
    /// Arrival pattern.
    pub pattern: ArrivalPattern,
    /// Prompt-length distribution.
    pub prompt: LengthSampler,
    /// Output-length distribution.
    pub output: LengthSampler,
    /// Model/tenant popularity mix.
    pub models: ModelMix,
}

impl TraceConfig {
    /// A ShareGPT-shaped trace at `rps` requests/s for `duration_s` seconds
    /// (the paper's §7.5 setting).
    pub fn sharegpt(rps: f64, duration_s: f64) -> Self {
        TraceConfig {
            rps,
            duration_s,
            seed: 0,
            pattern: ArrivalPattern::Poisson,
            prompt: LengthSampler::sharegpt_prompt(),
            output: LengthSampler::sharegpt_output(),
            models: ModelMix::default(),
        }
    }

    /// Sets the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the arrival pattern (builder style).
    pub fn with_pattern(mut self, pattern: ArrivalPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Sets the model/tenant mix (builder style).
    pub fn with_models(mut self, models: ModelMix) -> Self {
        self.models = models;
        self
    }

    /// Sets both length distributions (builder style). Large-fleet scale
    /// runs use short interactive completions so simulated hours stay
    /// dominated by arrivals rather than decode iterations.
    pub fn with_lengths(mut self, prompt: LengthSampler, output: LengthSampler) -> Self {
        self.prompt = prompt;
        self.output = output;
        self
    }

    /// An interactive chat-completion shape for scale runs: short prompts
    /// (mean 64 tokens) and short outputs (mean 8 tokens), Poisson
    /// arrivals at `rps` for `duration_s` seconds.
    pub fn interactive(rps: f64, duration_s: f64) -> Self {
        TraceConfig::sharegpt(rps, duration_s).with_lengths(
            LengthSampler::new(64.0, 0.6, 8, 256),
            LengthSampler::new(8.0, 0.5, 1, 32),
        )
    }

    /// Generates the trace: (possibly modulated) Poisson arrivals with
    /// per-request sampled lengths and model ids, sorted by arrival time.
    ///
    /// Non-homogeneous arrivals use Lewis–Shedler thinning against the
    /// pattern's peak rate. The MMPP regime timeline and the model mix
    /// draw from streams layered on the same seed, so `Single`-mix
    /// Poisson/Bursty traces are byte-identical to the pre-multi-tenant
    /// generator.
    pub fn generate(&self) -> Vec<Request> {
        assert!(self.rps > 0.0 && self.duration_s > 0.0);
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0xa076_1d64_78bd_642f);
        let mut regimes = RegimeTimeline::sample(&self.pattern, self.seed, self.duration_s);
        let peak_multiplier = self.pattern.peak_multiplier();
        let peak_rate = self.rps * peak_multiplier;
        let cdf = self.models.cdf();
        let fixed_model = match self.models {
            ModelMix::Single(m) => Some(m),
            ModelMix::Zipf { .. } => None,
        };
        let mut out = Vec::new();
        let mut t = 0.0f64;
        let mut id = 0u64;
        loop {
            // Candidate arrival at the peak rate...
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / peak_rate;
            if t >= self.duration_s {
                break;
            }
            // ...thinned by the instantaneous rate multiplier.
            let mult = match &mut regimes {
                Some(tl) => tl.multiplier(t),
                None => self.pattern.multiplier(t),
            };
            let accept: f64 = rng.gen_range(0.0..1.0);
            if accept >= mult / peak_multiplier {
                continue;
            }
            let prompt_tokens = self.prompt.sample(&mut rng);
            let output_tokens = self.output.sample(&mut rng);
            // `Single` draws nothing: the default path consumes exactly
            // the RNG stream the pre-multi-tenant generator did.
            let model = match fixed_model {
                Some(m) => m,
                None => {
                    let u: f64 = rng.gen_range(0.0..1.0);
                    cdf.partition_point(|&c| c <= u) as u32
                }
            };
            out.push(Request {
                id,
                arrival_ns: (t * 1e9) as u64,
                prompt_tokens,
                output_tokens,
                model,
            });
            id += 1;
        }
        out
    }
}

/// One row of an [`InvocationTrace`]: per-bin invocation counts for one
/// model/tenant (one "function" in the Azure Functions trace sense).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvocationRow {
    /// Model/tenant id.
    pub model: u32,
    /// Invocation count per time bin.
    pub counts: Vec<u32>,
}

/// An Azure-Functions-style invocation table: per-model arrival counts
/// binned at a fixed interval (per-minute in the original dataset).
///
/// The CSV wire format is self-describing and round-trips byte-identically
/// through [`InvocationTrace::to_csv`] / [`InvocationTrace::parse_csv`]:
///
/// ```text
/// # comment lines and blanks are ignored
/// bin_s,60
/// 0,5,3,0,2
/// 1,0,1,4,0
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InvocationTrace {
    /// Bin width in seconds (60 for the Azure per-minute tables).
    pub bin_s: f64,
    /// Per-model count rows.
    pub rows: Vec<InvocationRow>,
}

impl InvocationTrace {
    /// Parses the CSV wire format described on [`InvocationTrace`].
    pub fn parse_csv(text: &str) -> Result<Self, String> {
        let mut bin_s = None;
        let mut rows = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split(',');
            let head = fields.next().unwrap().trim();
            if bin_s.is_none() {
                if head != "bin_s" {
                    return Err(format!(
                        "line {}: expected `bin_s,<seconds>` header, got `{line}`",
                        lineno + 1
                    ));
                }
                let v: f64 = fields
                    .next()
                    .ok_or_else(|| format!("line {}: missing bin_s value", lineno + 1))?
                    .trim()
                    .parse()
                    .map_err(|e| format!("line {}: bad bin_s: {e}", lineno + 1))?;
                if v <= 0.0 || v.is_nan() {
                    return Err(format!("line {}: bin_s must be positive", lineno + 1));
                }
                bin_s = Some(v);
                continue;
            }
            let model: u32 = head
                .parse()
                .map_err(|e| format!("line {}: bad model id `{head}`: {e}", lineno + 1))?;
            let counts: Vec<u32> = fields
                .map(|f| {
                    f.trim()
                        .parse()
                        .map_err(|e| format!("line {}: bad count `{f}`: {e}", lineno + 1))
                })
                .collect::<Result<_, _>>()?;
            rows.push(InvocationRow { model, counts });
        }
        Ok(InvocationTrace {
            bin_s: bin_s.ok_or("missing `bin_s,<seconds>` header")?,
            rows,
        })
    }

    /// Serializes back to the CSV wire format (inverse of
    /// [`InvocationTrace::parse_csv`]).
    pub fn to_csv(&self) -> String {
        let mut out = format!("bin_s,{}\n", self.bin_s);
        for row in &self.rows {
            out.push_str(&row.model.to_string());
            for c in &row.counts {
                out.push(',');
                out.push_str(&c.to_string());
            }
            out.push('\n');
        }
        out
    }

    /// Total invocations across every model and bin.
    pub fn total_invocations(&self) -> u64 {
        self.rows
            .iter()
            .map(|r| r.counts.iter().map(|&c| c as u64).sum::<u64>())
            .sum()
    }

    /// Trace duration implied by the widest row, in seconds.
    pub fn duration_s(&self) -> f64 {
        let bins = self.rows.iter().map(|r| r.counts.len()).max().unwrap_or(0);
        bins as f64 * self.bin_s
    }

    /// Expands the count table into a replayable request trace: each
    /// counted invocation lands uniformly at random inside its bin, rows
    /// are merged and sorted by arrival time, ids reassigned in arrival
    /// order, and lengths drawn per request. Deterministic in `seed`.
    pub fn generate(
        &self,
        seed: u64,
        prompt: &LengthSampler,
        output: &LengthSampler,
    ) -> Vec<Request> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x51ce_b00c_1e55_f00d);
        let mut out: Vec<Request> = Vec::with_capacity(self.total_invocations() as usize);
        for row in &self.rows {
            for (bin, &count) in row.counts.iter().enumerate() {
                let start = bin as f64 * self.bin_s;
                for _ in 0..count {
                    let dt: f64 = rng.gen_range(0.0..1.0) * self.bin_s;
                    out.push(Request {
                        id: 0,
                        arrival_ns: ((start + dt) * 1e9) as u64,
                        prompt_tokens: prompt.sample(&mut rng),
                        output_tokens: output.sample(&mut rng),
                        model: row.model,
                    });
                }
            }
        }
        out.sort_by_key(|r| (r.arrival_ns, r.model));
        for (i, r) in out.iter_mut().enumerate() {
            r.id = i as u64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_per_seed() {
        let a = TraceConfig::sharegpt(5.0, 30.0).with_seed(1).generate();
        let b = TraceConfig::sharegpt(5.0, 30.0).with_seed(1).generate();
        let c = TraceConfig::sharegpt(5.0, 30.0).with_seed(2).generate();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn arrival_rate_approximates_rps() {
        let trace = TraceConfig::sharegpt(10.0, 120.0).with_seed(3).generate();
        let rate = trace.len() as f64 / 120.0;
        assert!(
            (8.0..12.0).contains(&rate),
            "rate {rate} too far from 10 rps"
        );
        assert!(trace.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
    }

    #[test]
    fn length_means_match_sharegpt() {
        let trace = TraceConfig::sharegpt(50.0, 120.0).with_seed(4).generate();
        let n = trace.len() as f64;
        let p: f64 = trace.iter().map(|r| r.prompt_tokens as f64).sum::<f64>() / n;
        let o: f64 = trace.iter().map(|r| r.output_tokens as f64).sum::<f64>() / n;
        assert!((130.0..200.0).contains(&p), "prompt mean {p}");
        assert!((280.0..410.0).contains(&o), "output mean {o}");
    }

    #[test]
    fn arrival_history_round_trips_and_orders_models() {
        let trace = TraceConfig::sharegpt(4.0, 30.0)
            .with_seed(6)
            .with_models(ModelMix::zipf(4, 1.0))
            .generate();
        let hist = ArrivalHistory::from_requests(&trace);
        assert!(hist.models() >= 2, "zipf(4) trace should hit >=2 models");
        let total: usize = hist.per_model.values().map(Vec::len).sum();
        assert_eq!(total, trace.len());
        for arrivals in hist.per_model.values() {
            assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        }
        let parsed = ArrivalHistory::parse_csv(&hist.to_csv()).unwrap();
        assert_eq!(parsed, hist);
    }

    #[test]
    fn arrival_history_inter_arrivals_are_consecutive_gaps() {
        let reqs: Vec<Request> = [10u64, 30, 70]
            .iter()
            .enumerate()
            .map(|(i, &t)| Request {
                id: i as u64,
                arrival_ns: t,
                prompt_tokens: 1,
                output_tokens: 1,
                model: 3,
            })
            .collect();
        let hist = ArrivalHistory::from_requests(&reqs);
        assert_eq!(hist.inter_arrivals(3), vec![20, 40]);
        assert!(hist.inter_arrivals(0).is_empty());
    }

    #[test]
    fn lengths_respect_clamps() {
        let s = LengthSampler::new(100.0, 2.0, 16, 64);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..1000 {
            let v = s.sample(&mut rng);
            assert!((16..=64).contains(&v));
        }
    }

    #[test]
    fn higher_rps_means_more_requests() {
        let low = TraceConfig::sharegpt(2.0, 60.0).with_seed(5).generate();
        let high = TraceConfig::sharegpt(10.0, 60.0).with_seed(5).generate();
        assert!(high.len() > low.len() * 3);
    }

    #[test]
    #[should_panic]
    fn zero_rps_rejected() {
        TraceConfig::sharegpt(0.0, 1.0).generate();
    }

    #[test]
    fn bursty_pattern_preserves_mean_rate() {
        let base = TraceConfig::sharegpt(10.0, 300.0).with_seed(8);
        let poisson = base.clone().generate();
        let bursty = base
            .with_pattern(ArrivalPattern::sharegpt_bursty())
            .generate();
        let r_p = poisson.len() as f64 / 300.0;
        let r_b = bursty.len() as f64 / 300.0;
        assert!(
            (r_b / r_p - 1.0).abs() < 0.2,
            "mean rate must be preserved: {r_p} vs {r_b}"
        );
    }

    #[test]
    fn bursty_pattern_fluctuates_by_the_paper_factor() {
        let trace = TraceConfig::sharegpt(5.0, 300.0)
            .with_seed(9)
            .with_pattern(ArrivalPattern::Bursty {
                factor: 15.0,
                period_s: 30.0,
                duty: 0.2,
            })
            .generate();
        // Count arrivals per 6-second bucket; peak buckets must dwarf
        // trough buckets (paper §1: 10-20x within 30 s).
        let mut buckets = [0u32; 50];
        for r in &trace {
            buckets[(r.arrival_ns as f64 / 6e9) as usize] += 1;
        }
        let peak = *buckets.iter().max().unwrap() as f64;
        let trough_avg = buckets
            .iter()
            .filter(|&&b| b > 0)
            .map(|&b| b as f64)
            .fold(f64::INFINITY, f64::min);
        assert!(
            peak / trough_avg.max(1.0) >= 5.0,
            "peak {peak} vs trough {trough_avg}"
        );
    }

    /// Re-implementation of the pre-multi-tenant fingerprint: the live
    /// `fingerprint` must reproduce it exactly on model-0 traces so
    /// committed baseline JSONs keep their `trace_fingerprint` values.
    fn legacy_fingerprint(trace: &[Request]) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for r in trace {
            for v in [
                r.id,
                r.arrival_ns,
                r.prompt_tokens as u64,
                r.output_tokens as u64,
            ] {
                h ^= v;
                h = h.wrapping_mul(PRIME);
            }
        }
        h
    }

    #[test]
    fn fingerprint_matches_legacy_on_single_tenant_traces() {
        let trace = TraceConfig::sharegpt(8.0, 45.0).with_seed(42).generate();
        assert!(trace.iter().all(|r| r.model == 0));
        assert_eq!(fingerprint(&trace), legacy_fingerprint(&trace));
    }

    #[test]
    fn fingerprint_is_sensitive_to_model_id() {
        let base = TraceConfig::sharegpt(5.0, 20.0).with_seed(6).generate();
        let mut retagged = base.clone();
        retagged[0].model = 3;
        assert_ne!(fingerprint(&base), fingerprint(&retagged));
    }

    #[test]
    fn zipf_mix_is_deterministic_and_rank_ordered() {
        let cfg = TraceConfig::sharegpt(60.0, 120.0)
            .with_seed(11)
            .with_models(ModelMix::zipf(8, 1.0));
        let a = cfg.clone().generate();
        let b = cfg.generate();
        assert_eq!(a, b);
        let mut counts = [0u64; 8];
        for r in &a {
            counts[r.model as usize] += 1;
        }
        // Every model appears, and popularity is (weakly) rank-ordered for
        // the head of the distribution.
        assert!(counts.iter().all(|&c| c > 0), "counts {counts:?}");
        assert!(counts[0] > counts[2] && counts[1] > counts[4], "{counts:?}");
    }

    #[test]
    fn zipf_rank_frequency_within_tolerance() {
        // s = 1.0 over 8 models: P(model k) ∝ 1/(k+1). With ~18k samples
        // each empirical share must land within 20% of the analytic share.
        let trace = TraceConfig::sharegpt(150.0, 120.0)
            .with_seed(12)
            .with_models(ModelMix::zipf(8, 1.0))
            .generate();
        let mut counts = [0f64; 8];
        for r in &trace {
            counts[r.model as usize] += 1.0;
        }
        let n: f64 = counts.iter().sum();
        let hn: f64 = (1..=8).map(|k| 1.0 / k as f64).sum();
        for (k, &c) in counts.iter().enumerate() {
            let want = 1.0 / ((k + 1) as f64 * hn);
            let got = c / n;
            assert!(
                (got / want - 1.0).abs() < 0.2,
                "model {k}: share {got:.4} vs analytic {want:.4}"
            );
        }
    }

    #[test]
    fn single_mix_draws_no_extra_randomness() {
        // Tagging every request with a fixed nonzero model must not perturb
        // arrivals or lengths relative to the default model-0 trace.
        let base = TraceConfig::sharegpt(6.0, 30.0).with_seed(13).generate();
        let tagged = TraceConfig::sharegpt(6.0, 30.0)
            .with_seed(13)
            .with_models(ModelMix::Single(5))
            .generate();
        assert_eq!(base.len(), tagged.len());
        for (a, b) in base.iter().zip(&tagged) {
            assert_eq!(
                (a.arrival_ns, a.prompt_tokens, a.output_tokens),
                (b.arrival_ns, b.prompt_tokens, b.output_tokens)
            );
            assert_eq!(b.model, 5);
        }
    }

    #[test]
    fn mmpp_preserves_mean_rate_and_is_deterministic() {
        let cfg = TraceConfig::sharegpt(10.0, 600.0)
            .with_seed(14)
            .with_pattern(ArrivalPattern::serverless_mmpp());
        let a = cfg.clone().generate();
        let b = cfg.generate();
        assert_eq!(a, b);
        let rate = a.len() as f64 / 600.0;
        assert!((rate / 10.0 - 1.0).abs() < 0.25, "MMPP mean rate {rate}");
    }

    #[test]
    fn mmpp_switches_between_burst_and_idle_regimes() {
        let trace = TraceConfig::sharegpt(8.0, 600.0)
            .with_seed(15)
            .with_pattern(ArrivalPattern::Mmpp {
                factor: 12.0,
                mean_burst_s: 5.0,
                mean_idle_s: 20.0,
            })
            .generate();
        // 2-second buckets: an MMPP run must show both near-idle buckets
        // and buckets far above the mean rate — and sustain each regime.
        let buckets = 300;
        let mut counts = vec![0u32; buckets];
        for r in &trace {
            counts[((r.arrival_ns as f64 / 2e9) as usize).min(buckets - 1)] += 1;
        }
        let mean = trace.len() as f64 / buckets as f64;
        let hot = counts.iter().filter(|&&c| (c as f64) > 2.5 * mean).count();
        let cold = counts.iter().filter(|&&c| (c as f64) < 0.5 * mean).count();
        assert!(hot >= 10, "no sustained burst regime (hot buckets: {hot})");
        assert!(
            cold >= 10,
            "no sustained idle regime (cold buckets: {cold})"
        );
    }

    #[test]
    fn diurnal_pattern_shows_the_configured_period() {
        let period = 120.0;
        let trace = TraceConfig::sharegpt(20.0, 600.0)
            .with_seed(16)
            .with_pattern(ArrivalPattern::Diurnal {
                period_s: period,
                amplitude: 0.8,
            })
            .generate();
        // Fold arrivals by phase: the half-cycle where sin > 0 must carry
        // (1 + 2A/π) / (1 - 2A/π) ≈ 3× the arrivals of the other half.
        let mut up = 0u64;
        let mut down = 0u64;
        for r in &trace {
            let phase = (r.arrival_ns as f64 / 1e9 / period).fract();
            if phase < 0.5 {
                up += 1;
            } else {
                down += 1;
            }
        }
        let ratio = up as f64 / down.max(1) as f64;
        assert!(
            (2.0..5.0).contains(&ratio),
            "diurnal phase ratio {ratio} (up {up} down {down})"
        );
        let rate = trace.len() as f64 / 600.0;
        assert!((rate / 20.0 - 1.0).abs() < 0.15, "diurnal mean rate {rate}");
    }

    #[test]
    fn invocation_trace_csv_round_trips() {
        let trace = InvocationTrace {
            bin_s: 60.0,
            rows: vec![
                InvocationRow {
                    model: 0,
                    counts: vec![5, 3, 0, 2],
                },
                InvocationRow {
                    model: 3,
                    counts: vec![0, 1, 4, 0],
                },
            ],
        };
        let csv = trace.to_csv();
        let parsed = InvocationTrace::parse_csv(&csv).unwrap();
        assert_eq!(parsed, trace);
        assert_eq!(parsed.to_csv(), csv, "CSV round-trip must be byte-stable");
        // Comments and blank lines are tolerated on the way in.
        let annotated = format!("# azure-style import\n\n{csv}");
        assert_eq!(InvocationTrace::parse_csv(&annotated).unwrap(), trace);
    }

    #[test]
    fn invocation_trace_generate_matches_binned_counts() {
        let trace = InvocationTrace {
            bin_s: 10.0,
            rows: vec![
                InvocationRow {
                    model: 0,
                    counts: vec![7, 0, 3],
                },
                InvocationRow {
                    model: 1,
                    counts: vec![2, 5, 0],
                },
            ],
        };
        let prompt = LengthSampler::sharegpt_prompt();
        let output = LengthSampler::sharegpt_output();
        let a = trace.generate(21, &prompt, &output);
        let b = trace.generate(21, &prompt, &output);
        assert_eq!(a, b, "importer must be seed-deterministic");
        assert_eq!(a.len() as u64, trace.total_invocations());
        assert!(a.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        assert!(a.windows(2).all(|w| w[1].id == w[0].id + 1) && a[0].id == 0);
        // Re-bin the generated arrivals: counts must match the table.
        let mut rebinned = [[0u32; 3]; 2];
        for r in &a {
            let bin = ((r.arrival_ns as f64 / 1e9) / trace.bin_s) as usize;
            rebinned[r.model as usize][bin] += 1;
        }
        assert_eq!(rebinned[0], [7, 0, 3]);
        assert_eq!(rebinned[1], [2, 5, 0]);
    }

    #[test]
    fn invocation_trace_rejects_malformed_csv() {
        assert!(InvocationTrace::parse_csv("0,1,2\n").is_err(), "no header");
        assert!(InvocationTrace::parse_csv("bin_s,0\n0,1\n").is_err());
        assert!(InvocationTrace::parse_csv("bin_s,60\nx,1\n").is_err());
        assert!(InvocationTrace::parse_csv("bin_s,60\n0,1,nope\n").is_err());
    }
}
