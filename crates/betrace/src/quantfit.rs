//! Duration distributions fit to published quartiles.
//!
//! The paper characterizes each BE-DCI trace by the quartiles of its node
//! availability and unavailability interval lengths (Table 2). The original
//! trace files are not available, so we sample interval durations from a
//! monotone piecewise log-linear inverse CDF anchored at those quartiles,
//! with extrapolated tails. By construction the sampled quartiles reproduce
//! the published ones (checked by `repro_all table2`), which is the property
//! the tail-effect mechanics depend on.

use simcore::Prng;
use std::sync::Arc;

/// Published quartiles of a duration distribution, in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuartileSpec {
    /// 25th percentile (seconds).
    pub q25: f64,
    /// Median (seconds).
    pub q50: f64,
    /// 75th percentile (seconds).
    pub q75: f64,
}

impl QuartileSpec {
    /// Convenience constructor.
    pub const fn new(q25: f64, q50: f64, q75: f64) -> Self {
        QuartileSpec { q25, q50, q75 }
    }
}

/// Sampler for positive durations whose quartiles match a [`QuartileSpec`].
///
/// The inverse CDF is piecewise linear in `log(duration)` through anchor
/// points at cumulative probabilities 0, 0.25, 0.5, 0.75, 0.95 and 1.0. The
/// sub-`q25` head extends down to `q25/4` and the tail extrapolates the
/// `q50→q75` log-slope, capped at 8× per segment, mimicking the heavy upper
/// tails of the Failure Trace Archive distributions.
#[derive(Clone, Debug)]
pub struct DurationSampler {
    /// Anchor cumulative probabilities (ascending).
    ps: [f64; 6],
    /// `log` of anchor duration values (non-decreasing).
    log_vs: [f64; 6],
    /// Shared quantile grid for mean and length-biased sampling (`Arc` so
    /// per-node sampler clones stay a few words).
    grid: Arc<QuantileGrid>,
}

/// Discretized quantile grid: plain values for the mean, and cumulative
/// length-biased weights for sampling the interval that contains a
/// stationary observation point (longer intervals are proportionally more
/// likely to cover it).
#[derive(Debug)]
struct QuantileGrid {
    vals: Vec<f64>,
    length_biased_cum: Vec<f64>,
    /// Midpoint-rule mean, cached at build time: `mean()` sits on trace
    /// construction hot paths (stationary initialization touches it twice
    /// per node) and must not re-sum the grid every call.
    mean: f64,
}

impl QuantileGrid {
    const N: usize = 4096;

    fn build(ps: &[f64; 6], log_vs: &[f64; 6]) -> Self {
        let vals: Vec<f64> = (0..Self::N)
            .map(|i| inverse_cdf_raw(ps, log_vs, (i as f64 + 0.5) / Self::N as f64))
            .collect();
        let total: f64 = vals.iter().sum();
        let mut acc = 0.0;
        let length_biased_cum = vals
            .iter()
            .map(|v| {
                acc += v / total;
                acc
            })
            .collect();
        QuantileGrid {
            mean: total / Self::N as f64,
            vals,
            length_biased_cum,
        }
    }

    /// The midpoint-rule mean of the anchor geometry *without* building a
    /// grid: bit-identical to `build(..).mean` (same evaluation points,
    /// same summation order), at none of the allocation cost. This is what
    /// makes the tail-anchor bisection cheap — each probe needs only the
    /// mean, not a full sampler.
    fn mean_only(ps: &[f64; 6], log_vs: &[f64; 6]) -> f64 {
        let total: f64 = (0..Self::N)
            .map(|i| inverse_cdf_raw(ps, log_vs, (i as f64 + 0.5) / Self::N as f64))
            .sum();
        total / Self::N as f64
    }
}

fn inverse_cdf_raw(ps: &[f64; 6], log_vs: &[f64; 6], u: f64) -> f64 {
    let u = u.clamp(0.0, 1.0);
    let mut seg = ps.len() - 2;
    for i in 0..ps.len() - 1 {
        if u <= ps[i + 1] {
            seg = i;
            break;
        }
    }
    let (p0, p1) = (ps[seg], ps[seg + 1]);
    let (l0, l1) = (log_vs[seg], log_vs[seg + 1]);
    let frac = if p1 > p0 { (u - p0) / (p1 - p0) } else { 0.0 };
    (l0 + (l1 - l0) * frac).exp()
}

impl DurationSampler {
    /// Builds a sampler from quartiles with the default tail (the
    /// `q50→q75` log-slope extrapolated past q75, clamped to [1.5, 8]×).
    ///
    /// # Panics
    /// Panics unless `0 < q25 ≤ q50 ≤ q75`.
    pub fn from_quartiles(spec: QuartileSpec) -> Self {
        let QuartileSpec { q50, q75, .. } = spec;
        // Tail slope from the upper half of the body, clamped so degenerate
        // specs (q50 == q75) still get some spread.
        let slope = (q75 / q50).clamp(1.5, 8.0);
        Self::with_tail_anchor(spec, q75 * slope)
    }

    /// Builds a sampler from quartiles with an explicit 95th-percentile
    /// anchor `v_hi` (the maximum is pinned at `4·v_hi`). Used by the
    /// count-calibrated traces: the published quartiles fix the body and
    /// the published node counts fix the tail (see `TraceSpec`).
    ///
    /// # Panics
    /// Panics unless `0 < q25 ≤ q50 ≤ q75`.
    pub fn with_tail_anchor(spec: QuartileSpec, v_hi: f64) -> Self {
        let (ps, log_vs) = Self::anchor_geometry(spec, v_hi);
        let grid = Arc::new(QuantileGrid::build(&ps, &log_vs));
        DurationSampler { ps, log_vs, grid }
    }

    /// The anchor probabilities and log-durations shared by
    /// [`DurationSampler::with_tail_anchor`] and the mean-only probes of
    /// the tail bisection.
    ///
    /// # Panics
    /// Panics unless `0 < q25 ≤ q50 ≤ q75`.
    fn anchor_geometry(spec: QuartileSpec, v_hi: f64) -> ([f64; 6], [f64; 6]) {
        let QuartileSpec { q25, q50, q75 } = spec;
        assert!(
            q25 > 0.0 && q25 <= q50 && q50 <= q75,
            "quartiles must be positive and non-decreasing: {spec:?}"
        );
        let v_min = (q25 / 4.0).max(1.0).min(q25);
        let v_hi = v_hi.max(q75);
        let v_max = v_hi * 4.0;
        let vs = [v_min, q25, q50, q75, v_hi, v_max];
        let mut log_vs = [0.0; 6];
        let mut prev = f64::NEG_INFINITY;
        for (slot, &v) in log_vs.iter_mut().zip(&vs) {
            let lv = v.ln().max(prev + 1e-9); // enforce strict monotonicity
            *slot = lv;
            prev = lv;
        }
        let ps = [0.0, 0.25, 0.5, 0.75, 0.95, 1.0];
        (ps, log_vs)
    }

    /// The mean [`DurationSampler::with_tail_anchor`] would report for this
    /// anchor, without building the sampler.
    fn mean_for_anchor(spec: QuartileSpec, v_hi: f64) -> f64 {
        let (ps, log_vs) = Self::anchor_geometry(spec, v_hi);
        QuantileGrid::mean_only(&ps, &log_vs)
    }

    /// Builds a sampler whose mean matches `target_mean` by solving for
    /// the 95th-percentile tail anchor (bisection; the mean is monotone in
    /// the anchor). The quartiles are preserved exactly. Falls back to the
    /// nearest achievable bound when the target lies outside
    /// `[q75, 10⁶·q75]` anchors.
    pub fn solve_tail_for_mean(spec: QuartileSpec, target_mean: f64) -> Self {
        let mut lo = spec.q75;
        let mut hi = spec.q75 * 1e6;
        if Self::mean_for_anchor(spec, lo) >= target_mean {
            return Self::with_tail_anchor(spec, lo);
        }
        if Self::mean_for_anchor(spec, hi) <= target_mean {
            return Self::with_tail_anchor(spec, hi);
        }
        for _ in 0..60 {
            let mid = (lo * hi).sqrt(); // bisect in log space
            if Self::mean_for_anchor(spec, mid) < target_mean {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Self::with_tail_anchor(spec, (lo * hi).sqrt())
    }

    /// Inverse CDF: duration (seconds) at cumulative probability `u ∈ [0,1]`.
    pub fn inverse_cdf(&self, u: f64) -> f64 {
        inverse_cdf_raw(&self.ps, &self.log_vs, u)
    }

    /// Draws one duration in seconds.
    pub fn sample(&self, rng: &mut Prng) -> f64 {
        self.inverse_cdf(rng.next_f64())
    }

    /// Draws the length of the interval *covering a stationary observation
    /// point* (length-biased: an interval of length ℓ is ℓ-times more
    /// likely to cover the point). Used to initialize node phases so the
    /// trace is stationary from t = 0.
    pub fn sample_length_biased(&self, rng: &mut Prng) -> f64 {
        let u = rng.next_f64();
        let idx = self.grid.length_biased_cum.partition_point(|&c| c < u);
        self.grid.vals[idx.min(self.grid.vals.len() - 1)]
    }

    /// Numerical estimate of the distribution mean (midpoint rule over the
    /// quantile grid, cached at construction; exact enough for tail
    /// calibration).
    pub fn mean(&self) -> f64 {
        self.grid.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// SETI@home availability quartiles from Table 2.
    const SETI_AV: QuartileSpec = QuartileSpec::new(61.0, 531.0, 5407.0);

    #[test]
    fn inverse_cdf_hits_anchor_quartiles() {
        let s = DurationSampler::from_quartiles(SETI_AV);
        assert!((s.inverse_cdf(0.25) - 61.0).abs() < 1e-6);
        assert!((s.inverse_cdf(0.50) - 531.0).abs() < 1e-6);
        assert!((s.inverse_cdf(0.75) - 5407.0).abs() < 1e-6);
    }

    #[test]
    fn sampled_quartiles_match_spec() {
        let s = DurationSampler::from_quartiles(SETI_AV);
        let mut rng = Prng::seed_from(11);
        let mut v: Vec<f64> = (0..100_000).map(|_| s.sample(&mut rng)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = |p: f64| simcore::quantile_sorted(&v, p);
        assert!((q(0.25) - 61.0).abs() / 61.0 < 0.05, "q25 {}", q(0.25));
        assert!((q(0.50) - 531.0).abs() / 531.0 < 0.05, "q50 {}", q(0.50));
        assert!((q(0.75) - 5407.0).abs() / 5407.0 < 0.05, "q75 {}", q(0.75));
    }

    #[test]
    fn degenerate_spec_is_handled() {
        // Grid'5000 Lyon unavailability has tight quartiles.
        let s = DurationSampler::from_quartiles(QuartileSpec::new(21.0, 21.0, 21.0));
        let mut rng = Prng::seed_from(3);
        for _ in 0..1000 {
            let d = s.sample(&mut rng);
            assert!(d > 0.0 && d.is_finite());
        }
    }

    #[test]
    fn mean_is_between_min_and_max() {
        let s = DurationSampler::from_quartiles(SETI_AV);
        let m = s.mean();
        assert!(m > s.inverse_cdf(0.0) && m < s.inverse_cdf(1.0));
        // Heavy tail pulls the mean above the median.
        assert!(m > 531.0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_unordered_quartiles() {
        DurationSampler::from_quartiles(QuartileSpec::new(10.0, 5.0, 20.0));
    }

    #[test]
    fn solve_tail_hits_target_mean() {
        // Grid'5000 Lyon availability: tight body (21/51/63 s) but the
        // infrastructure statistics require a mean of several minutes —
        // the tail must carry it.
        let spec = QuartileSpec::new(21.0, 51.0, 63.0);
        for target in [100.0, 330.0, 2000.0] {
            let s = DurationSampler::solve_tail_for_mean(spec, target);
            let m = s.mean();
            assert!(
                (m - target).abs() / target < 0.01,
                "target {target}, got {m}"
            );
            // Body quartiles unchanged.
            assert!((s.inverse_cdf(0.5) - 51.0).abs() < 1e-6);
            assert!((s.inverse_cdf(0.75) - 63.0).abs() < 1e-6);
        }
    }

    #[test]
    fn solve_tail_clamps_unreachable_targets() {
        let spec = QuartileSpec::new(21.0, 51.0, 63.0);
        // Target below the body mean: the shortest admissible tail.
        let s = DurationSampler::solve_tail_for_mean(spec, 1.0);
        assert!(s.mean() > 1.0);
        assert!((s.inverse_cdf(0.5) - 51.0).abs() < 1e-6);
    }

    proptest! {
        /// The inverse CDF is monotone and positive for any valid spec.
        #[test]
        fn prop_inverse_cdf_monotone(
            q25 in 1.0f64..1e4,
            d1 in 0.0f64..1e4,
            d2 in 0.0f64..1e4,
            u1 in 0.0f64..=1.0,
            u2 in 0.0f64..=1.0,
        ) {
            let spec = QuartileSpec::new(q25, q25 + d1, q25 + d1 + d2);
            let s = DurationSampler::from_quartiles(spec);
            let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
            let (vlo, vhi) = (s.inverse_cdf(lo), s.inverse_cdf(hi));
            prop_assert!(vlo > 0.0);
            prop_assert!(vhi >= vlo * (1.0 - 1e-12));
        }
    }
}
