//! The speed probe: how fast this machine is running right now.
//!
//! The sandbox's two vCPUs change speed by a quarter for seconds at a
//! time (a fixed integer loop takes 1.45 ms in one spell and 1.85 ms in
//! the next, with nothing else running), so that two runs of the same
//! code, a minute apart, differ by 25 % on every timing. A run cannot
//! average that away: a spell lasts longer than a phase.
//!
//! So every timed phase is bracketed by probes — the best of a few runs
//! of that fixed loop, a couple of milliseconds each — and its times are
//! expressed *at reference speed*: multiplied by the reference duration
//! of the probe over its measured duration around the phase (rates are
//! divided by it). A phase that ran while the machine was a quarter
//! faster reads as it would have read at reference speed. The factors are
//! printed, and reported as `host.speed_factor`.
//!
//! The probe is pure integer arithmetic in registers. It tracks clock
//! speed, which is what varies here; it does not track memory or disk.

use std::time::Instant;

/// The probe's duration at reference speed: the slower of the two speeds
/// this sandbox alternates between, where it spends most of its time.
const REFERENCE_NS: f64 = 1_850_000.0;
const PROBE_ITERATIONS: u64 = 3_000_000;
const PROBE_RUNS: usize = 5;

/// Best of [`PROBE_RUNS`] runs of the fixed loop, in nanoseconds. The
/// best, because a neighbour can only make a run slower.
fn probe_ns() -> f64 {
    (0..PROBE_RUNS)
        .map(|_| {
            let start = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15_u64;
            for i in 0..PROBE_ITERATIONS {
                x = x.rotate_left(5) ^ i.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            }
            std::hint::black_box(x);
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Probes at the boundaries of consecutive phases.
pub struct Speed {
    last_ns: f64,
    /// Every factor handed out, for the run's report.
    pub factors: Vec<f64>,
}

impl Speed {
    /// Probes now: the start of the first phase.
    pub fn start() -> Speed {
        Speed {
            last_ns: probe_ns(),
            factors: Vec::new(),
        }
    }

    /// Probes again and returns the factor of the phase that ran since
    /// the previous probe: multiply its times by it, divide its rates.
    pub fn lap(&mut self) -> f64 {
        let now_ns = probe_ns();
        let factor = REFERENCE_NS / ((self.last_ns + now_ns) / 2.0);
        self.last_ns = now_ns;
        self.factors.push(factor);
        factor
    }

    /// Probes without closing a phase: what ran since the last probe is
    /// not measured work.
    pub fn skip(&mut self) {
        self.last_ns = probe_ns();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_machine_at_reference_speed_has_factor_one_and_a_faster_one_more() {
        let mut speed = Speed {
            last_ns: REFERENCE_NS,
            factors: Vec::new(),
        };
        // Whatever this machine's speed, the factor is the reference over
        // the mean of the two probes around the phase.
        let factor = speed.lap();
        let expected = REFERENCE_NS / ((REFERENCE_NS + speed.last_ns) / 2.0);
        assert!((factor - expected).abs() < 1e-12);
        assert_eq!(speed.factors, vec![factor]);
        // Two probes back to back agree: the probe itself is steady.
        let (a, b) = (probe_ns(), probe_ns());
        assert!((a - b).abs() / a.min(b) < 0.5, "{a} vs {b}");
    }
}
