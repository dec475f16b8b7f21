//! Time series of sampled values.
//!
//! SpeQuloS's Information module stores BoT progress as a time series of
//! `(time, completed, assigned, queued)` samples (paper §3.2). The generic
//! container here provides the two queries everything else is built on:
//! the value at a time, and the first time a value is reached — the paper's
//! `tc(x)` ("elapsed time when x% of the BoT is completed").

use crate::time::SimTime;

/// A series of `(time, value)` samples with non-decreasing timestamps.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Creates an empty series with capacity for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        TimeSeries {
            points: Vec::with_capacity(n),
        }
    }

    /// Appends a sample.
    ///
    /// # Panics
    /// Panics if `t` is earlier than the last sample's timestamp.
    pub fn push(&mut self, t: SimTime, value: f64) {
        if let Some(&(last_t, _)) = self.points.last() {
            assert!(t >= last_t, "time series must be sampled in order");
        }
        self.points.push((t, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All samples, in time order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Last sample, if any.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.points.last().copied()
    }

    /// First sample, if any.
    pub fn first(&self) -> Option<(SimTime, f64)> {
        self.points.first().copied()
    }

    /// Value at time `t` by step interpolation (value of the latest sample
    /// at or before `t`); `None` before the first sample.
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        let idx = self.points.partition_point(|&(pt, _)| pt <= t);
        if idx == 0 {
            None
        } else {
            Some(self.points[idx - 1].1)
        }
    }

    /// First time the series reaches `target`, linearly interpolating
    /// between the bracketing samples. Returns `None` if the series never
    /// reaches `target`.
    ///
    /// For a completion-count series sampled every minute this reconstructs
    /// the paper's `tc(x)` with sub-sample resolution.
    pub fn time_to_reach(&self, target: f64) -> Option<SimTime> {
        let mut prev: Option<(SimTime, f64)> = None;
        for &(t, v) in &self.points {
            if v >= target {
                return Some(match prev {
                    Some((pt, pv)) if v > pv && target > pv => {
                        let frac = (target - pv) / (v - pv);
                        let span = t.since(pt).as_secs_f64();
                        pt + crate::time::SimDuration::from_secs_f64(span * frac)
                    }
                    _ => t,
                });
            }
            prev = Some((t, v));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn series(pts: &[(u64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new();
        for &(t, v) in pts {
            s.push(SimTime::from_secs(t), v);
        }
        s
    }

    #[test]
    fn value_at_steps() {
        let s = series(&[(10, 1.0), (20, 2.0), (30, 3.0)]);
        assert_eq!(s.value_at(SimTime::from_secs(5)), None);
        assert_eq!(s.value_at(SimTime::from_secs(10)), Some(1.0));
        assert_eq!(s.value_at(SimTime::from_secs(15)), Some(1.0));
        assert_eq!(s.value_at(SimTime::from_secs(20)), Some(2.0));
        assert_eq!(s.value_at(SimTime::from_secs(99)), Some(3.0));
    }

    #[test]
    fn time_to_reach_interpolates() {
        let s = series(&[(0, 0.0), (100, 50.0), (200, 100.0)]);
        assert_eq!(s.time_to_reach(0.0), Some(SimTime::ZERO));
        assert_eq!(s.time_to_reach(50.0), Some(SimTime::from_secs(100)));
        // 75 is halfway between 50 (t=100) and 100 (t=200).
        assert_eq!(s.time_to_reach(75.0), Some(SimTime::from_secs(150)));
        assert_eq!(s.time_to_reach(100.5), None);
    }

    #[test]
    fn time_to_reach_handles_plateaus() {
        let s = series(&[(0, 0.0), (10, 5.0), (20, 5.0), (30, 8.0)]);
        // The target is hit exactly at the first sample that reaches it.
        assert_eq!(s.time_to_reach(5.0), Some(SimTime::from_secs(10)));
        // Interpolation happens between t=20 (5.0) and t=30 (8.0).
        assert_eq!(s.time_to_reach(6.5), Some(SimTime::from_secs(25)));
    }

    #[test]
    #[should_panic(expected = "sampled in order")]
    fn out_of_order_push_panics() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_secs(10), 1.0);
        s.push(SimTime::from_secs(5), 2.0);
    }

    proptest! {
        /// For monotone series, `time_to_reach` is consistent with
        /// `value_at`: the value just before the returned time is below the
        /// target, the value at/after is at or above.
        #[test]
        fn prop_reach_consistent(increments in proptest::collection::vec(0.0f64..10.0, 2..50), target_frac in 0.01f64..0.99) {
            let mut s = TimeSeries::new();
            let mut v = 0.0;
            for (i, inc) in increments.iter().enumerate() {
                v += inc;
                s.push(SimTime::from_secs(60 * (i as u64 + 1)), v);
            }
            let target = v * target_frac;
            if let Some(t) = s.time_to_reach(target) {
                let after = s.value_at(t + crate::time::SimDuration::from_secs(60)).unwrap_or(v);
                prop_assert!(after >= target - 1e-9);
            }
        }
    }
}
