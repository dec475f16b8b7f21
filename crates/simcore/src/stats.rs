//! Statistics utilities: streaming moments, quantiles, histograms and
//! empirical CDFs — used both to calibrate synthetic traces against the
//! paper's Table 2 and to report every experiment's distributions
//! (Figs. 2, 4, 7).

/// Streaming mean/variance/min/max using Welford's algorithm.
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n−1 denominator; 0 for fewer than two points).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (+∞ if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Quantile of *sorted* data by linear interpolation (R-7, the default of R
/// and NumPy). `q` in `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty data");
    assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0,1]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// First, second and third quartiles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    /// 25th percentile.
    pub q25: f64,
    /// Median.
    pub q50: f64,
    /// 75th percentile.
    pub q75: f64,
}

impl Quartiles {
    /// Computes quartiles of unsorted data.
    pub fn of(data: &[f64]) -> Quartiles {
        let mut v = data.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quartile data"));
        Quartiles {
            q25: quantile_sorted(&v, 0.25),
            q50: quantile_sorted(&v, 0.50),
            q75: quantile_sorted(&v, 0.75),
        }
    }
}

/// Fixed-range histogram with equal-width bins plus under/overflow counters.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0);
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + w * (i as f64 + 0.5)
    }

    /// Raw count of bin `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Fraction of all observations falling in bin `i`.
    pub fn fraction(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }

    /// Total observations pushed (including out-of-range).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
}

/// Empirical cumulative distribution function over a finite sample.
#[derive(Clone, Debug)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds the ECDF of `samples` (NaNs are rejected).
    pub fn new(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        assert!(
            sorted.iter().all(|x| !x.is_nan()),
            "NaN sample in CDF input"
        );
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("checked non-NaN"));
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the sample set is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x`.
    pub fn fraction_leq(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Fraction of samples ≥ `x`.
    pub fn fraction_geq(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v < x);
        (self.sorted.len() - idx) as f64 / self.sorted.len() as f64
    }

    /// `p`-quantile of the sample (linear interpolation).
    pub fn quantile(&self, p: f64) -> f64 {
        quantile_sorted(&self.sorted, p)
    }

    /// Sorted samples (ascending).
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// `n` evenly spaced `(x, F(x))` points spanning the sample range,
    /// suitable for plotting or textual output.
    pub fn curve(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return vec![];
        }
        let lo = *self.sorted.first().expect("non-empty");
        let hi = *self.sorted.last().expect("non-empty");
        if n == 1 || hi == lo {
            return vec![(hi, 1.0)];
        }
        (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                (x, self.fraction_leq(x))
            })
            .collect()
    }
}

/// Mean of a slice (0 if empty).
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        0.0
    } else {
        data.iter().sum::<f64>() / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic dataset is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        data.iter().for_each(|&x| all.push(x));
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        data[..37].iter().for_each(|&x| a.push(x));
        data[37..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        let q = Quartiles::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(q.q50, 2.5);
        assert_eq!(q.q25, 1.75);
        assert_eq!(q.q75, 3.25);
    }

    #[test]
    fn histogram_bins_and_fractions() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        h.push(-1.0);
        h.push(42.0);
        assert_eq!(h.total(), 12);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        for i in 0..10 {
            assert_eq!(h.count(i), 1);
            assert!((h.fraction(i) - 1.0 / 12.0).abs() < 1e-12);
            assert!((h.bin_center(i) - (i as f64 + 0.5)).abs() < 1e-12);
        }
    }

    #[test]
    fn cdf_fractions() {
        let c = Cdf::new([1.0, 2.0, 2.0, 3.0]);
        assert_eq!(c.fraction_leq(0.5), 0.0);
        assert_eq!(c.fraction_leq(2.0), 0.75);
        assert_eq!(c.fraction_leq(3.0), 1.0);
        assert_eq!(c.fraction_geq(2.0), 0.75);
        assert_eq!(c.quantile(0.5), 2.0);
    }

    #[test]
    fn cdf_curve_spans_range() {
        let c = Cdf::new((0..101).map(|i| i as f64));
        let pts = c.curve(11);
        assert_eq!(pts.len(), 11);
        assert_eq!(pts[0].0, 0.0);
        assert_eq!(pts[10].0, 100.0);
        assert_eq!(pts[10].1, 1.0);
        for w in pts.windows(2) {
            assert!(w[1].1 >= w[0].1, "CDF must be monotone");
        }
    }

    proptest! {
        #[test]
        fn prop_cdf_monotone(samples in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let c = Cdf::new(samples.clone());
            let mut xs = samples;
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut prev = 0.0;
            for &x in &xs {
                let f = c.fraction_leq(x);
                prop_assert!(f >= prev - 1e-12);
                prop_assert!((0.0..=1.0).contains(&f));
                prev = f;
            }
        }

        #[test]
        fn prop_quantile_within_range(samples in proptest::collection::vec(-1e6f64..1e6, 1..100), p in 0.0f64..=1.0) {
            let c = Cdf::new(samples);
            let q = c.quantile(p);
            prop_assert!(q >= c.samples()[0] && q <= *c.samples().last().unwrap());
        }

        #[test]
        fn prop_welford_matches_naive(samples in proptest::collection::vec(-1e3f64..1e3, 2..200)) {
            let mut s = OnlineStats::new();
            samples.iter().for_each(|&x| s.push(x));
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
                / (samples.len() - 1) as f64;
            prop_assert!((s.mean() - mean).abs() < 1e-6);
            prop_assert!((s.variance() - var).abs() < 1e-6);
        }
    }
}
