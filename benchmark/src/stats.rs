//! Order statistics over small samples: every reported timing is a
//! median with its minimum, maximum and sample count.

/// Median, extremes and size of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summary of `values`; an empty slice summarises to all-zero (a
    /// metric the workload does not produce).
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                median: 0.0,
                min: 0.0,
                max: 0.0,
                n: 0,
            };
        }
        let sorted = sorted(values);
        Summary {
            median: simcore::quantile_sorted(&sorted, 0.5),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            n: sorted.len(),
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// Quantile `q` of latencies recorded in nanoseconds, in microseconds.
/// Sorts in place: the recorder is done with the samples by then.
pub fn quantile_us(nanos: &mut [u64], q: f64) -> f64 {
    if nanos.is_empty() {
        return 0.0;
    }
    nanos.sort_unstable();
    let idx = (q.clamp(0.0, 1.0) * (nanos.len() - 1) as f64).round() as usize;
    nanos[idx] as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_five_is_the_middle_value() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (3.0, 1.0, 5.0, 5));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(Summary::of(&[]).n, 0);
    }

    #[test]
    fn latency_quantiles_pick_the_nearest_rank() {
        let mut ns: Vec<u64> = (1..=101).map(|i| i * 1_000).collect();
        assert_eq!(quantile_us(&mut ns, 0.5), 51.0);
        assert_eq!(quantile_us(&mut ns, 0.99), 100.0);
        assert_eq!(quantile_us(&mut [], 0.5), 0.0);
    }
}
