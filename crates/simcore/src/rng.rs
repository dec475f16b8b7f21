//! Seeded pseudo-random number generation and distribution sampling.
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — small, fast and
//! stable across library versions, which matters because every experiment in
//! the reproduction must replay bit-identically from its seed (the paper
//! keeps the same seed to compare executions with and without SpeQuloS,
//! §4.1.3).
//!
//! Independent *named streams* are derived from one master seed so that,
//! e.g., cloud-worker power sampling cannot perturb the BE-DCI availability
//! traces between a paired run with SpeQuloS and one without.
//!
//! Distribution samplers (normal, Weibull) are implemented here instead of
//! pulling in `rand_distr`, which is not on the offline dependency list
//! (see DESIGN.md §6).

/// SplitMix64 step: used for seeding and stream derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a byte string; used to turn stream names into seed salt.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A deterministic xoshiro256++ generator.
#[derive(Clone, Debug)]
pub struct Prng {
    s: [u64; 4],
    /// Cached second output of the Box-Muller transform.
    gauss_spare: Option<f64>,
}

impl Prng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro must not start from the all-zero state.
        if s == [0, 0, 0, 0] {
            s = [0x9E37_79B9, 0x7F4A_7C15, 0xDEAD_BEEF, 0x0BAD_F00D];
        }
        Prng {
            s,
            gauss_spare: None,
        }
    }

    /// Derives an independent generator for the component named `name`.
    ///
    /// The derivation is stable: the same `(seed, name)` pair always yields
    /// the same stream, and distinct names yield decorrelated streams.
    pub fn stream(master_seed: u64, name: &str) -> Self {
        Prng::seed_from(master_seed ^ fnv1a(name.as_bytes()))
    }

    /// Derives an independent generator for the `index`-th entity of the
    /// component named `name` (e.g. one stream per simulated node, so a
    /// node's availability timeline is independent of global event order).
    pub fn substream(master_seed: u64, name: &str, index: u64) -> Self {
        let mut salt = fnv1a(name.as_bytes()) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Prng::seed_from(master_seed ^ splitmix64(&mut salt))
    }

    /// Next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` (Lemire's multiply-shift with
    /// rejection; unbiased).
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Uniform usize in `[0, bound)`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli trial with success probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal deviate (Box-Muller, with the spare cached).
    pub fn gauss(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Sample u1 in (0, 1] to keep ln() finite.
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal deviate with mean `mu` and standard deviation `sigma`.
    pub fn normal(&mut self, mu: f64, sigma: f64) -> f64 {
        mu + sigma * self.gauss()
    }

    /// Normal deviate truncated to `[lo, hi]` by resampling (falls back to
    /// clamping after 64 rejections, which only triggers for degenerate
    /// bounds).
    pub fn normal_clamped(&mut self, mu: f64, sigma: f64, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        for _ in 0..64 {
            let x = self.normal(mu, sigma);
            if x >= lo && x <= hi {
                return x;
            }
        }
        mu.clamp(lo, hi)
    }

    /// Weibull deviate with scale `lambda` and shape `k` (inverse-CDF).
    ///
    /// The paper's RANDOM BoT uses `weib(λ=91.98, k=0.57)` for task
    /// inter-arrival times (Table 3).
    pub fn weibull(&mut self, lambda: f64, k: f64) -> f64 {
        assert!(lambda > 0.0 && k > 0.0);
        let u = 1.0 - self.next_f64(); // (0, 1]
        lambda * (-u.ln()).powf(1.0 / k)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Prng::seed_from(42);
        let mut b = Prng::seed_from(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Prng::seed_from(1);
        let mut b = Prng::seed_from(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn substreams_are_stable_and_distinct() {
        let mut a0 = Prng::substream(7, "trace", 0);
        let mut a0b = Prng::substream(7, "trace", 0);
        let mut a1 = Prng::substream(7, "trace", 1);
        let x = a0.next_u64();
        assert_eq!(x, a0b.next_u64());
        assert_ne!(x, a1.next_u64());
    }

    #[test]
    fn streams_are_stable_and_distinct() {
        let mut t1 = Prng::stream(7, "traces");
        let mut t2 = Prng::stream(7, "traces");
        let mut c = Prng::stream(7, "cloud");
        let x1 = t1.next_u64();
        assert_eq!(x1, t2.next_u64());
        assert_ne!(x1, c.next_u64());
    }

    #[test]
    fn unit_interval_bounds() {
        let mut r = Prng::seed_from(9);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gauss_moments() {
        let mut r = Prng::seed_from(1234);
        let n = 200_000;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.gauss();
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn weibull_mean_matches_closed_form() {
        // mean = lambda * Gamma(1 + 1/k); for k=1 it's exponential: mean = lambda.
        let mut r = Prng::seed_from(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.weibull(91.98, 1.0)).sum::<f64>() / n as f64;
        assert!((mean - 91.98).abs() / 91.98 < 0.02, "mean {mean}");
    }

    #[test]
    fn normal_clamped_respects_bounds() {
        let mut r = Prng::seed_from(8);
        for _ in 0..10_000 {
            let x = r.normal_clamped(1000.0, 250.0, 50.0, 2000.0);
            assert!((50.0..=2000.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Prng::seed_from(3);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "50 elements should move");
    }

    proptest! {
        #[test]
        fn prop_below_in_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
            let mut r = Prng::seed_from(seed);
            for _ in 0..100 {
                prop_assert!(r.below(bound) < bound);
            }
        }

        #[test]
        fn prop_range_in_bounds(seed in any::<u64>(), lo in 0u64..1000, width in 1u64..1000) {
            let mut r = Prng::seed_from(seed);
            let x = r.range_u64(lo, lo + width);
            prop_assert!(x >= lo && x < lo + width);
        }

        #[test]
        fn prop_positive_samplers(seed in any::<u64>()) {
            let mut r = Prng::seed_from(seed);
            prop_assert!(r.weibull(91.98, 0.57) >= 0.0);
        }
    }
}
