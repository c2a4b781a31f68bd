//! Eviction models (§5.1, "Eviction Model").
//!
//! "Without loss of generality, we assume that the eviction model provides
//! a cumulative distribution function (CDF) of the probability of being
//! revoked before reaching a certain uptime." The empirical model is derived
//! from a *historical* trace (the paper uses October 2016; we use an
//! independently seeded synthetic month) by sampling random start times and
//! measuring the time until the market price first exceeds the bid.
//!
//! Real transient offerings do not all behave like a price-crossing process:
//! some pools enforce hard lifetime caps (24 h-style), and measured
//! preemption hazards are often bathtub-shaped (infant mortality, a flat
//! useful-life phase, then wear-out). The [`EvictionProcess`] trait makes
//! the preemption layer pluggable: the empirical [`EvictionModel`], a
//! [`LifetimeCapped`] wrapper composable with any base process, and a
//! piecewise-Weibull [`BathtubModel`] (fit from trace history by
//! [`crate::fit`]) all present the same CDF/MTTF/sampling surface to the
//! decision layer.

use crate::trace::PriceTrace;
use crate::{CloudError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A preemption process: everything the decision layer needs to price a
/// transient deployment, plus conditional sampling for ground-truth
/// lifetime generation in scenario sweeps.
///
/// Implementations must keep `cdf` monotone non-decreasing with
/// `cdf(0) = 0` and `cdf(t) ≤ 1`, and keep `mttf` consistent with the
/// censoring convention: samples surviving past `window()` contribute
/// exactly `window()` seconds (i.e. `mttf = E[min(T, window)]`).
pub trait EvictionProcess: std::fmt::Debug + Send + Sync {
    /// `F(u)`: probability of being evicted before uptime `u` seconds.
    fn cdf(&self, uptime: f64) -> f64;

    /// Mean time to failure in seconds (censored at [`window`](Self::window)).
    fn mttf(&self) -> f64;

    /// The observation window (seconds); lifetimes are censored here.
    fn window(&self) -> f64;

    /// Probability mass of eviction inside `(from, to]` uptime.
    fn prob_between(&self, from: f64, to: f64) -> f64 {
        (self.cdf(to) - self.cdf(from)).max(0.0)
    }

    /// Inverse-CDF sample of the eviction uptime, conditional on having
    /// survived to `uptime` already. `u` is a uniform draw in `[0, 1)`.
    /// Returns `None` when the sampled lifetime is censored (the instance
    /// outlives the observation window).
    fn sample_next_eviction(&self, uptime: f64, u: f64) -> Option<f64>;
}

/// A shared, dynamically typed eviction process (one per candidate per
/// decision — `Arc` keeps cloning O(1)).
pub type DynEviction = Arc<dyn EvictionProcess>;

/// Empirical CDF of time-to-eviction for one market at one bid level.
#[derive(Debug, Clone)]
pub struct EvictionModel {
    /// Sorted uptimes (seconds) at which sampled launches were evicted.
    /// Shared so cloning a model is O(1).
    eviction_times: Arc<Vec<f64>>,
    /// Monotone cell index over `eviction_times` (see [`CellIndex`]).
    cells: Arc<CellIndex>,
    /// Total number of samples, including launches that survived the whole
    /// observation window (censored).
    total_samples: usize,
    /// Observation window (seconds); survivors are censored here.
    window: f64,
    /// Cached mean time to failure.
    mttf: f64,
    /// Start instants rejected during fitting because the market price
    /// already exceeded the bid (the instance could not have been acquired
    /// there, so counting it as an uptime-0 eviction would bias the CDF).
    rejected_starts: usize,
}

/// Equal-width cells over `[0, largest sample]`, each holding the range of
/// the sorted sample array that falls into it, so a CDF look-up searches
/// one cell (about one sample) instead of the whole array.
///
/// Exactness rests on one property only: `cell_of` is monotone
/// non-decreasing in its argument. Then every sample in a cell before
/// `cell_of(u)` is `< u` and every sample in a cell after it is `> u`, so
/// the partition point of `t <= u` lies inside `range(u)` and searching
/// there returns the very index a search of the whole array returns — for
/// every `u`, `NaN` and `±∞` included (`NaN` maps to cell 0, where the
/// predicate is false everywhere: index 0 either way).
#[derive(Debug)]
struct CellIndex {
    /// `starts[c]..starts[c + 1]` is cell `c`; at least two entries.
    starts: Vec<usize>,
    /// Cells per second: finite and non-negative.
    scale: f64,
}

impl CellIndex {
    /// One cell spanning all `len` samples: every look-up is the plain
    /// whole-array search. What sample sets without a usable span get
    /// (none, all `<= 0`, an infinite largest sample).
    fn single(len: usize) -> Self {
        CellIndex {
            starts: vec![0, len],
            scale: 0.0,
        }
    }

    /// Indexes `sorted` (ascending, no `NaN`) with one cell per sample.
    fn build(sorted: &[f64]) -> Self {
        let cells = sorted.len();
        let span = sorted.last().copied().unwrap_or(0.0);
        let scale = if span > 0.0 { cells as f64 / span } else { 0.0 };
        if !(scale > 0.0 && scale.is_finite()) {
            return Self::single(cells);
        }
        let mut index = CellIndex {
            starts: vec![0; cells + 1],
            scale,
        };
        // Count per cell (shifted by one), then prefix-sum into starts.
        for &t in sorted {
            let c = index.cell_of(t);
            index.starts[c + 1] += 1;
        }
        for c in 0..cells {
            index.starts[c + 1] += index.starts[c];
        }
        index
    }

    /// Monotone in `x`: the product by a non-negative finite scale, the
    /// saturating cast (negatives and `NaN` to 0) and the clamp all are.
    #[inline]
    fn cell_of(&self, x: f64) -> usize {
        ((x * self.scale) as usize).min(self.starts.len() - 2)
    }

    /// The sample range that holds the partition point of `t <= x`.
    #[inline]
    fn range(&self, x: f64) -> (usize, usize) {
        let c = self.cell_of(x);
        (self.starts[c], self.starts[c + 1])
    }
}

impl EvictionModel {
    /// Derives a model from a historical price trace.
    ///
    /// Samples `samples` uniformly random start times *at which the
    /// instance is acquirable* (market price ≤ `bid` — a launch cannot
    /// happen while the market is already above the bid, and counting such
    /// instants as uptime-0 evictions would bias `F` near zero); each
    /// launch is evicted when the price first exceeds `bid`, or censored
    /// at `window` seconds (or the trace end, whichever is sooner).
    /// Unacquirable start draws are rejected and resampled; the rejection
    /// count is kept for diagnostics ([`rejected_starts`](Self::rejected_starts)).
    pub fn from_trace(
        trace: &PriceTrace,
        bid: f64,
        window: f64,
        samples: usize,
        seed: u64,
    ) -> Result<Self> {
        if samples == 0 {
            return Err(CloudError::InvalidParameter(
                "need at least one sample".into(),
            ));
        }
        if window.is_nan() || window <= 0.0 {
            return Err(CloudError::InvalidParameter(
                "window must be positive".into(),
            ));
        }
        let horizon = trace.horizon();
        if horizon <= window {
            return Err(CloudError::InvalidParameter(format!(
                "trace horizon {horizon}s shorter than observation window {window}s"
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut eviction_times = Vec::new();
        let mut rejected_starts = 0usize;
        let mut accepted = 0usize;
        // Rejection sampling over acquirable starts; bounded so a bid the
        // market never dips under fails loudly instead of spinning.
        let max_attempts = samples.saturating_mul(1000);
        for _ in 0..max_attempts {
            if accepted == samples {
                break;
            }
            let start = rng.gen::<f64>() * (horizon - window);
            if trace.price_at(start)? > bid {
                rejected_starts += 1;
                continue;
            }
            accepted += 1;
            match trace.next_crossing_above(start, bid) {
                Some(t) if t - start <= window => eviction_times.push(t - start),
                _ => {} // Censored: survived the window.
            }
        }
        if accepted < samples {
            return Err(CloudError::InvalidParameter(format!(
                "bid {bid} is almost never acquirable: {accepted}/{samples} \
                 acquirable starts found in {max_attempts} draws"
            )));
        }
        eviction_times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mttf = Self::compute_mttf(&eviction_times, samples, window);
        Ok(EvictionModel {
            cells: Arc::new(CellIndex::build(&eviction_times)),
            eviction_times: Arc::new(eviction_times),
            total_samples: samples,
            window,
            mttf,
            rejected_starts,
        })
    }

    /// Builds a model directly from observed eviction times (used by tests
    /// and by what-if analyses).
    ///
    /// # Examples
    ///
    /// ```
    /// use hourglass_cloud::EvictionModel;
    ///
    /// // 2 evictions observed among 4 launches watched for 100 s.
    /// let m = EvictionModel::from_samples(vec![10.0, 30.0], 4, 100.0).unwrap();
    /// assert_eq!(m.cdf(20.0), 0.25);
    /// assert_eq!(m.survival_rate(), 0.5);
    /// ```
    pub fn from_samples(
        mut eviction_times: Vec<f64>,
        total_samples: usize,
        window: f64,
    ) -> Result<Self> {
        if total_samples == 0 || eviction_times.len() > total_samples {
            return Err(CloudError::InvalidParameter(
                "total_samples must cover all evictions".into(),
            ));
        }
        if window.is_nan() || window <= 0.0 {
            return Err(CloudError::InvalidParameter(
                "window must be positive".into(),
            ));
        }
        eviction_times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mttf = Self::compute_mttf(&eviction_times, total_samples, window);
        Ok(EvictionModel {
            cells: Arc::new(CellIndex::build(&eviction_times)),
            eviction_times: Arc::new(eviction_times),
            total_samples,
            window,
            mttf,
            rejected_starts: 0,
        })
    }

    fn compute_mttf(evictions: &[f64], total: usize, window: f64) -> f64 {
        // Censored samples contribute the full window (a lower bound on
        // their true lifetime, making the MTTF conservative).
        let survived = (total - evictions.len()) as f64;
        let sum: f64 = evictions.iter().sum::<f64>() + survived * window;
        sum / total as f64
    }

    /// `F(u)`: probability of being evicted before uptime `u` seconds.
    ///
    /// Monotone non-decreasing, `F(0) = 0` (no instantaneous evictions —
    /// guaranteed by fitting only on acquirable starts), `F(∞) ≤ 1`.
    pub fn cdf(&self, uptime: f64) -> f64 {
        if uptime <= 0.0 {
            return 0.0;
        }
        // Number of eviction samples <= uptime: a binary search inside the
        // one cell of the index that can hold the partition point.
        let (lo, hi) = self.cells.range(uptime);
        let idx = lo + self.eviction_times[lo..hi].partition_point(|&t| t <= uptime);
        idx as f64 / self.total_samples as f64
    }

    /// Probability mass of eviction inside `(from, to]` uptime.
    pub fn prob_between(&self, from: f64, to: f64) -> f64 {
        (self.cdf(to) - self.cdf(from)).max(0.0)
    }

    /// Mean time to failure in seconds (censored samples counted at the
    /// observation window).
    pub fn mttf(&self) -> f64 {
        self.mttf
    }

    /// Fraction of sampled launches that survived the whole window.
    pub fn survival_rate(&self) -> f64 {
        1.0 - self.eviction_times.len() as f64 / self.total_samples as f64
    }

    /// The observation window (seconds).
    pub fn window(&self) -> f64 {
        self.window
    }

    /// Sorted uptimes at which sampled launches were evicted (the
    /// empirical support; censored samples are not listed).
    pub fn eviction_times(&self) -> &[f64] {
        &self.eviction_times
    }

    /// Total number of samples, including censored survivors.
    pub fn total_samples(&self) -> usize {
        self.total_samples
    }

    /// Start draws rejected during fitting because the price already
    /// exceeded the bid (0 for models not fit from a trace).
    pub fn rejected_starts(&self) -> usize {
        self.rejected_starts
    }
}

impl EvictionProcess for EvictionModel {
    fn cdf(&self, uptime: f64) -> f64 {
        EvictionModel::cdf(self, uptime)
    }

    fn mttf(&self) -> f64 {
        EvictionModel::mttf(self)
    }

    fn window(&self) -> f64 {
        EvictionModel::window(self)
    }

    fn sample_next_eviction(&self, uptime: f64, u: f64) -> Option<f64> {
        // Inverse empirical CDF, conditioned on survival to `uptime`.
        let f0 = EvictionModel::cdf(self, uptime);
        let target = f0 + u.clamp(0.0, 1.0) * (1.0 - f0);
        let k = (target * self.total_samples as f64) as usize;
        if k >= self.eviction_times.len() {
            return None; // Censored: survives past the window.
        }
        Some(self.eviction_times[k].max(uptime))
    }
}

/// An eviction model for reliable (on-demand) resources: never evicts.
pub fn reliable() -> EvictionModel {
    EvictionModel {
        eviction_times: Arc::new(Vec::new()),
        cells: Arc::new(CellIndex::single(0)),
        total_samples: 1,
        window: f64::MAX,
        mttf: f64::MAX,
        rejected_starts: 0,
    }
}

/// Trapezoid-rule `∫₀^window S(t) dt` — the MTTF under the censoring
/// convention (`E[min(T, window)]`) for any CDF.
pub fn numeric_mttf(cdf: impl Fn(f64) -> f64, window: f64) -> f64 {
    if !window.is_finite() {
        return f64::MAX;
    }
    const STEPS: usize = 4096;
    let h = window / STEPS as f64;
    let mut sum = 0.0;
    let mut prev = 1.0 - cdf(0.0);
    for i in 1..=STEPS {
        let s = 1.0 - cdf(h * i as f64);
        sum += 0.5 * (prev + s) * h;
        prev = s;
    }
    sum.max(0.0)
}

/// Wraps any base process with a hard lifetime cap: the platform revokes
/// the instance at `cap` seconds of uptime no matter what the market does
/// (the 24 h maximum-lifetime contracts of Kadupitiya et al.).
#[derive(Debug, Clone)]
pub struct LifetimeCapped {
    base: DynEviction,
    cap: f64,
    mttf: f64,
}

impl LifetimeCapped {
    /// Caps `base` at `cap` seconds (must be positive and finite).
    pub fn new(base: DynEviction, cap: f64) -> Result<Self> {
        if !cap.is_finite() || cap <= 0.0 {
            return Err(CloudError::InvalidParameter(
                "lifetime cap must be positive and finite".into(),
            ));
        }
        let window = base.window().min(cap);
        let base_ref = &base;
        let mttf = numeric_mttf(
            |t| {
                if t >= cap {
                    1.0
                } else {
                    base_ref.cdf(t)
                }
            },
            window,
        );
        Ok(LifetimeCapped { base, cap, mttf })
    }

    /// The hard lifetime cap (seconds).
    pub fn cap(&self) -> f64 {
        self.cap
    }
}

impl EvictionProcess for LifetimeCapped {
    fn cdf(&self, uptime: f64) -> f64 {
        if uptime >= self.cap {
            1.0
        } else {
            self.base.cdf(uptime)
        }
    }

    fn mttf(&self) -> f64 {
        self.mttf
    }

    fn window(&self) -> f64 {
        self.base.window().min(self.cap)
    }

    fn sample_next_eviction(&self, uptime: f64, u: f64) -> Option<f64> {
        if uptime >= self.cap {
            return Some(uptime); // Already at the cap: immediate revocation.
        }
        match self.base.sample_next_eviction(uptime, u) {
            Some(t) if t < self.cap => Some(t),
            // Base process survives past the cap (or is censored): the
            // platform still revokes at the cap.
            _ => Some(self.cap),
        }
    }
}

/// One Weibull segment of a piecewise hazard, active from `start` onward
/// (local time `t - start`).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WeibullPhase {
    /// Uptime (seconds) at which this phase begins.
    pub start: f64,
    /// Weibull shape `k` (k < 1: decreasing hazard, k = 1: flat,
    /// k > 1: increasing).
    pub shape: f64,
    /// Weibull scale `λ` in seconds.
    pub scale: f64,
}

/// A bathtub-shaped hazard: piecewise Weibull with an infant-mortality
/// phase (k < 1), a flat useful-life phase (k ≈ 1) and a wear-out phase
/// (k > 1). The cumulative hazard is
/// `H(t) = Σ_p ((min(t, end_p) − start_p)/λ_p)^{k_p}` over the phases `t`
/// has entered, and `F(t) = 1 − exp(−H(t))`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BathtubModel {
    phases: Vec<WeibullPhase>,
    window: f64,
    mttf: f64,
}

impl BathtubModel {
    /// Builds a bathtub model from hazard phases. Phases must be non-empty,
    /// start at 0, have strictly increasing starts, and positive finite
    /// shapes and scales.
    pub fn new(phases: Vec<WeibullPhase>, window: f64) -> Result<Self> {
        if phases.is_empty() {
            return Err(CloudError::InvalidParameter(
                "bathtub model needs at least one hazard phase".into(),
            ));
        }
        if phases[0].start != 0.0 {
            return Err(CloudError::InvalidParameter(
                "first hazard phase must start at uptime 0".into(),
            ));
        }
        for w in phases.windows(2) {
            if w[1].start.is_nan() || w[1].start <= w[0].start {
                return Err(CloudError::InvalidParameter(
                    "hazard phase starts must be strictly increasing".into(),
                ));
            }
        }
        for p in &phases {
            if !(p.shape > 0.0 && p.shape.is_finite() && p.scale > 0.0 && p.scale.is_finite()) {
                return Err(CloudError::InvalidParameter(format!(
                    "invalid Weibull phase shape={} scale={}",
                    p.shape, p.scale
                )));
            }
        }
        if !window.is_finite() || window <= 0.0 {
            return Err(CloudError::InvalidParameter(
                "window must be positive and finite".into(),
            ));
        }
        let mut m = BathtubModel {
            phases,
            window,
            mttf: 0.0,
        };
        m.mttf = numeric_mttf(|t| m.cdf_inner(t), window);
        Ok(m)
    }

    /// The hazard phases.
    pub fn phases(&self) -> &[WeibullPhase] {
        &self.phases
    }

    /// Cumulative hazard `H(t)`.
    pub fn cumulative_hazard(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        let mut h = 0.0;
        for (i, p) in self.phases.iter().enumerate() {
            if t <= p.start {
                break;
            }
            let end = self
                .phases
                .get(i + 1)
                .map(|n| n.start)
                .unwrap_or(f64::INFINITY);
            let local = (t.min(end) - p.start).max(0.0);
            h += (local / p.scale).powf(p.shape);
        }
        h
    }

    /// Solves `H(t) = h` analytically segment by segment.
    fn inverse_hazard(&self, h: f64) -> f64 {
        if h <= 0.0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for (i, p) in self.phases.iter().enumerate() {
            let end = self
                .phases
                .get(i + 1)
                .map(|n| n.start)
                .unwrap_or(f64::INFINITY);
            let span = end - p.start;
            let full = if span.is_finite() {
                (span / p.scale).powf(p.shape)
            } else {
                f64::INFINITY
            };
            if acc + full >= h {
                let local = ((h - acc).max(0.0)).powf(1.0 / p.shape) * p.scale;
                return p.start + local;
            }
            acc += full;
        }
        f64::INFINITY
    }

    fn cdf_inner(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        1.0 - (-self.cumulative_hazard(t)).exp()
    }
}

impl EvictionProcess for BathtubModel {
    fn cdf(&self, uptime: f64) -> f64 {
        self.cdf_inner(uptime)
    }

    fn mttf(&self) -> f64 {
        self.mttf
    }

    fn window(&self) -> f64 {
        self.window
    }

    fn sample_next_eviction(&self, uptime: f64, u: f64) -> Option<f64> {
        // Conditional on survival to `uptime`: solve
        // H(T) = H(uptime) − ln(1 − u).
        let u = u.clamp(0.0, 1.0);
        let extra = -(1.0 - u).max(1e-300).ln();
        let target = self.cumulative_hazard(uptime.max(0.0)) + extra;
        let t = self.inverse_hazard(target);
        if t > self.window {
            return None; // Censored at the observation window.
        }
        Some(t.max(uptime))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracegen::{generate_trace, TraceGenConfig};
    use crate::InstanceType;

    #[test]
    fn cdf_monotone_and_bounded() {
        let m = EvictionModel::from_samples(vec![10.0, 20.0, 30.0], 6, 100.0).expect("valid");
        assert_eq!(m.cdf(0.0), 0.0);
        assert_eq!(m.cdf(5.0), 0.0);
        assert!((m.cdf(10.0) - 1.0 / 6.0).abs() < 1e-12);
        assert!((m.cdf(25.0) - 2.0 / 6.0).abs() < 1e-12);
        assert!((m.cdf(1e9) - 0.5).abs() < 1e-12);
        let mut last = 0.0;
        for u in [0.0, 1.0, 10.0, 15.0, 20.0, 99.0, 1e6] {
            let c = m.cdf(u);
            assert!(c >= last);
            last = c;
        }
    }

    /// `cdf` as it was before the cell index: one search of all samples.
    fn plain_cdf(m: &EvictionModel, uptime: f64) -> f64 {
        if uptime <= 0.0 {
            return 0.0;
        }
        let idx = m.eviction_times().partition_point(|&t| t <= uptime);
        idx as f64 / m.total_samples() as f64
    }

    /// Every sample, its two neighbouring floats, and the values a caller
    /// can get wrong.
    fn probes(m: &EvictionModel, rng: &mut StdRng) -> Vec<f64> {
        let mut probes = vec![
            0.0,
            -0.0,
            -1.0,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NAN,
            f64::MAX,
            f64::MIN_POSITIVE,
            m.window(),
            m.window().next_down(),
            m.window().next_up(),
        ];
        for &t in m.eviction_times() {
            probes.extend([t, t.next_down(), t.next_up()]);
        }
        let top = m.eviction_times().last().copied().unwrap_or(1.0).abs() * 1.5 + 1.0;
        if top.is_finite() {
            probes.extend((0..500).map(|_| rng.gen_range(0.0..top)));
        }
        probes
    }

    #[test]
    fn indexed_cdf_equals_plain_search_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0xCDF1);
        let window = 86_400.0;
        let mut sets: Vec<Vec<f64>> = vec![
            vec![],
            vec![1234.5],
            vec![0.0],
            vec![window],
            vec![777.0; 300],
            vec![window; 40],
            vec![window.next_down(), window, window.next_up()],
            // Hostile: nothing positive, an infinite sample, subnormal and
            // astronomically large spans.
            vec![-5.0, -1.0, 0.0],
            vec![-3.0, 10.0, 20.0, f64::INFINITY],
            vec![f64::MIN_POSITIVE, 5e-324, 1e-310],
            vec![1.0, f64::MAX],
        ];
        for n in [2, 3, 17, 2000] {
            // Uniform, then skewed toward 0 the way fitted lifetimes are,
            // then a few distinct values repeated many times.
            sets.push((0..n).map(|_| rng.gen_range(0.0..window)).collect());
            sets.push(
                (0..n)
                    .map(|_| -rng.gen_range(1e-9..1.0f64).ln() * 1800.0)
                    .collect(),
            );
            sets.push(
                (0..n)
                    .map(|_| f64::from(rng.gen_range(0..5u32)) * 600.0)
                    .collect(),
            );
        }
        let mut checked = 0usize;
        for samples in sets {
            let total = samples.len() + rng.gen_range(1..4usize);
            let m = EvictionModel::from_samples(samples, total, window).expect("valid");
            for u in probes(&m, &mut rng) {
                assert_eq!(
                    m.cdf(u).to_bits(),
                    plain_cdf(&m, u).to_bits(),
                    "cdf({u:e}) over {:?}…",
                    &m.eviction_times()[..m.eviction_times().len().min(4)]
                );
                checked += 1;
            }
        }
        assert!(checked > 20_000, "only {checked} probes");
    }

    #[test]
    fn reliable_takes_the_single_cell() {
        let m = reliable();
        assert_eq!(m.cells.starts, vec![0, 0]);
        assert_eq!(m.cells.scale, 0.0);
        for u in [0.0, 1.0, f64::MAX, f64::INFINITY, f64::NAN, -1.0] {
            assert_eq!(m.cdf(u), 0.0, "cdf({u})");
        }
        // So does a fitted model whose every launch survived.
        let none = EvictionModel::from_samples(vec![], 5, 100.0).expect("valid");
        assert_eq!(none.cells.starts, vec![0, 0]);
        assert_eq!(none.cdf(f64::INFINITY), 0.0);
    }

    #[test]
    fn mttf_with_censoring() {
        let m = EvictionModel::from_samples(vec![50.0], 2, 100.0).expect("valid");
        // One eviction at 50 s plus one survivor censored at 100 s.
        assert!((m.mttf() - 75.0).abs() < 1e-12);
        assert!((m.survival_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prob_between() {
        let m = EvictionModel::from_samples(vec![10.0, 20.0], 4, 100.0).expect("valid");
        assert!((m.prob_between(5.0, 15.0) - 0.25).abs() < 1e-12);
        assert_eq!(m.prob_between(50.0, 40.0), 0.0);
    }

    #[test]
    fn from_trace_matches_spike_frequency() {
        let cfg = TraceGenConfig::default();
        let t = generate_trace(InstanceType::R48xlarge, &cfg, 5).expect("gen");
        let bid = InstanceType::R48xlarge.on_demand_price();
        let m = EvictionModel::from_trace(&t, bid, 6.0 * 3600.0, 2000, 1).expect("model");
        // With ~2.4 spikes/day, a 6-hour window should often contain one.
        let f6h = m.cdf(6.0 * 3600.0);
        assert!(
            (0.2..0.95).contains(&f6h),
            "6-hour eviction probability {f6h:.3} implausible"
        );
        assert!(m.mttf() > 1800.0, "MTTF {} too small", m.mttf());
    }

    #[test]
    fn from_trace_conditions_on_acquirable_starts() {
        // Regression: the fit used to sample start instants uniformly,
        // *including* instants where the price already exceeded the bid;
        // `next_crossing_above` then returned the start itself, recording a
        // phantom eviction at uptime 0.0 and violating F(0) = 0.
        let cfg = TraceGenConfig {
            spikes_per_day: 6.0,
            spike_duration_mean: 4000.0,
            ..TraceGenConfig::default()
        };
        let t = generate_trace(InstanceType::R48xlarge, &cfg, 5).expect("gen");
        let bid = InstanceType::R48xlarge.on_demand_price();
        let m = EvictionModel::from_trace(&t, bid, 6.0 * 3600.0, 2000, 1).expect("model");
        assert_eq!(m.cdf(0.0), 0.0);
        // The detectable symptom: with the bias, uptime-0.0 samples put
        // mass at (or epsilon above) zero.
        assert_eq!(
            m.cdf(1e-9),
            0.0,
            "found probability mass at uptime ~0: 0-uptime eviction samples leaked into the fit"
        );
        assert!(
            m.eviction_times().iter().all(|&t| t > 0.0),
            "no eviction sample may have uptime 0"
        );
        // A long-spike config must actually reject unacquirable starts.
        assert!(
            m.rejected_starts() > 0,
            "spiky trace should reject some start draws"
        );
    }

    #[test]
    fn from_trace_rejects_never_acquirable_bid() {
        let t = PriceTrace::new(60.0, vec![5.0; 200_000]).expect("valid");
        // Price is 5.0 everywhere; a bid of 1.0 is never acquirable.
        assert!(EvictionModel::from_trace(&t, 1.0, 6000.0, 10, 0).is_err());
    }

    #[test]
    fn higher_bid_means_fewer_evictions() {
        let cfg = TraceGenConfig::default();
        let t = generate_trace(InstanceType::R44xlarge, &cfg, 9).expect("gen");
        let od = InstanceType::R44xlarge.on_demand_price();
        let low = EvictionModel::from_trace(&t, od * 0.4, 4.0 * 3600.0, 1000, 2).expect("model");
        let high = EvictionModel::from_trace(&t, od * 2.0, 4.0 * 3600.0, 1000, 2).expect("model");
        assert!(low.cdf(4.0 * 3600.0) > high.cdf(4.0 * 3600.0));
    }

    #[test]
    fn reliable_never_evicts() {
        let m = reliable();
        assert_eq!(m.cdf(1e12), 0.0);
        assert_eq!(m.mttf(), f64::MAX);
        assert_eq!(m.sample_next_eviction(0.0, 0.99), None);
    }

    #[test]
    fn empirical_sampling_matches_cdf() {
        let m = EvictionModel::from_samples(vec![10.0, 20.0, 30.0], 4, 100.0).expect("valid");
        // u in [0, 0.25) -> first sample, ..., u in [0.75, 1) -> censored.
        assert_eq!(m.sample_next_eviction(0.0, 0.1), Some(10.0));
        assert_eq!(m.sample_next_eviction(0.0, 0.3), Some(20.0));
        assert_eq!(m.sample_next_eviction(0.0, 0.6), Some(30.0));
        assert_eq!(m.sample_next_eviction(0.0, 0.9), None);
        // Conditional on survival to 15 s, the first sample is excluded and
        // the draw never lands below the conditioning uptime.
        for u in [0.0, 0.2, 0.5, 0.8, 0.999] {
            if let Some(t) = m.sample_next_eviction(15.0, u) {
                assert!(t >= 15.0);
            }
        }
        assert_eq!(m.sample_next_eviction(15.0, 0.0), Some(20.0));
    }

    #[test]
    fn lifetime_cap_composes() {
        let base: DynEviction =
            Arc::new(EvictionModel::from_samples(vec![100.0, 5000.0], 4, 10_000.0).expect("valid"));
        let capped = LifetimeCapped::new(base.clone(), 1000.0).expect("valid");
        // Below the cap the base CDF applies; at/after the cap F = 1.
        assert_eq!(EvictionProcess::cdf(&capped, 50.0), base.cdf(50.0));
        assert_eq!(EvictionProcess::cdf(&capped, 1000.0), 1.0);
        assert_eq!(EvictionProcess::cdf(&capped, 2000.0), 1.0);
        assert_eq!(EvictionProcess::window(&capped), 1000.0);
        // MTTF is strictly below the cap and below the base MTTF.
        assert!(EvictionProcess::mttf(&capped) < 1000.0);
        assert!(EvictionProcess::mttf(&capped) < base.mttf());
        // Sampling: base eviction before the cap passes through; base
        // survival becomes an eviction exactly at the cap.
        assert_eq!(capped.sample_next_eviction(0.0, 0.1), Some(100.0));
        assert_eq!(capped.sample_next_eviction(0.0, 0.9), Some(1000.0));
        assert_eq!(capped.sample_next_eviction(1500.0, 0.5), Some(1500.0));
        // A cap above the base window changes nothing below it.
        let loose = LifetimeCapped::new(base.clone(), 50_000.0).expect("valid");
        assert_eq!(EvictionProcess::cdf(&loose, 5000.0), base.cdf(5000.0));
        assert!(LifetimeCapped::new(base, f64::INFINITY).is_err());
    }

    #[test]
    fn capped_reliable_evicts_exactly_at_cap() {
        let capped = LifetimeCapped::new(Arc::new(reliable()), 24.0 * 3600.0).expect("valid");
        assert_eq!(EvictionProcess::cdf(&capped, 23.0 * 3600.0), 0.0);
        assert_eq!(EvictionProcess::cdf(&capped, 24.0 * 3600.0), 1.0);
        assert_eq!(capped.sample_next_eviction(0.0, 0.5), Some(24.0 * 3600.0));
        // MTTF of a deterministic lifetime is the lifetime itself.
        let rel = (EvictionProcess::mttf(&capped) - 24.0 * 3600.0).abs() / (24.0 * 3600.0);
        assert!(rel < 1e-3, "capped-reliable MTTF off by {rel:.5}");
    }

    #[test]
    fn bathtub_hazard_shape() {
        let m = BathtubModel::new(
            vec![
                WeibullPhase {
                    start: 0.0,
                    shape: 0.5,
                    scale: 20_000.0,
                },
                WeibullPhase {
                    start: 3600.0,
                    shape: 1.0,
                    scale: 40_000.0,
                },
                WeibullPhase {
                    start: 50_000.0,
                    shape: 3.0,
                    scale: 30_000.0,
                },
            ],
            86_400.0,
        )
        .expect("valid");
        assert_eq!(EvictionProcess::cdf(&m, 0.0), 0.0);
        // Monotone, bounded CDF.
        let mut last = 0.0;
        for i in 0..=100 {
            let c = EvictionProcess::cdf(&m, 864.0 * i as f64);
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= last);
            last = c;
        }
        // Infant mortality: hazard over the first hour exceeds hazard over
        // the same-length interval in the flat phase.
        let infant = m.cumulative_hazard(1800.0);
        let flat = m.cumulative_hazard(10_000.0) - m.cumulative_hazard(8200.0);
        assert!(infant > flat, "infant {infant:.5} vs flat {flat:.5}");
        // Wear-out: hazard accumulates faster late than in the flat phase.
        let wear = m.cumulative_hazard(80_000.0) - m.cumulative_hazard(78_200.0);
        assert!(wear > flat, "wear {wear:.5} vs flat {flat:.5}");
        // MTTF is finite, positive and below the window.
        assert!(EvictionProcess::mttf(&m) > 0.0);
        assert!(EvictionProcess::mttf(&m) < 86_400.0);
    }

    #[test]
    fn bathtub_inverse_hazard_roundtrips() {
        let m = BathtubModel::new(
            vec![
                WeibullPhase {
                    start: 0.0,
                    shape: 0.6,
                    scale: 10_000.0,
                },
                WeibullPhase {
                    start: 2000.0,
                    shape: 1.0,
                    scale: 30_000.0,
                },
                WeibullPhase {
                    start: 40_000.0,
                    shape: 2.5,
                    scale: 25_000.0,
                },
            ],
            86_400.0,
        )
        .expect("valid");
        for t in [1.0, 100.0, 1999.0, 2000.0, 10_000.0, 40_000.0, 80_000.0] {
            let h = m.cumulative_hazard(t);
            let back = m.inverse_hazard(h);
            assert!(
                (back - t).abs() < 1e-6 * t.max(1.0),
                "inverse_hazard(H({t})) = {back}"
            );
        }
        // Sampling is conditional and censored at the window.
        assert_eq!(m.sample_next_eviction(0.0, 0.999_999_999), None);
        let t = m
            .sample_next_eviction(5000.0, 0.5)
            .expect("mid draw lands inside the window");
        assert!(t >= 5000.0);
    }

    #[test]
    fn bathtub_validation() {
        let p = |start, shape, scale| WeibullPhase {
            start,
            shape,
            scale,
        };
        assert!(BathtubModel::new(vec![], 100.0).is_err());
        assert!(BathtubModel::new(vec![p(1.0, 1.0, 1.0)], 100.0).is_err());
        assert!(BathtubModel::new(vec![p(0.0, 1.0, 1.0), p(0.0, 1.0, 1.0)], 100.0).is_err());
        assert!(BathtubModel::new(vec![p(0.0, -1.0, 1.0)], 100.0).is_err());
        assert!(BathtubModel::new(vec![p(0.0, 1.0, 0.0)], 100.0).is_err());
        assert!(BathtubModel::new(vec![p(0.0, 1.0, 1.0)], 0.0).is_err());
    }

    #[test]
    fn validation() {
        assert!(EvictionModel::from_samples(vec![1.0], 0, 10.0).is_err());
        assert!(EvictionModel::from_samples(vec![1.0, 2.0], 1, 10.0).is_err());
        let t = PriceTrace::new(60.0, vec![1.0; 10]).expect("valid");
        assert!(EvictionModel::from_trace(&t, 2.0, 6000.0, 10, 0).is_err());
    }
}
