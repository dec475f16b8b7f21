//! Measured statistics of a generated trace — the reproduction of Table 2.
//!
//! `repro_all table2` builds each preset, measures it with this module, and
//! prints measured-vs-published rows so the calibration of the synthetic
//! generators is auditable.

use crate::catalog::{Dci, TraceSpec};
use simcore::{OnlineStats, Quartiles, SimDuration, SimTime};

/// Statistics measured from a generated trace over an observation window.
#[derive(Clone, Debug)]
pub struct TraceStats {
    /// Observation window used.
    pub window: SimDuration,
    /// Mean simultaneously-available node count.
    pub nodes_mean: f64,
    /// Standard deviation of the available node count.
    pub nodes_std: f64,
    /// Minimum available node count observed.
    pub nodes_min: f64,
    /// Maximum available node count observed.
    pub nodes_max: f64,
    /// Quartiles of availability interval durations (seconds), over
    /// complete intervals inside the window.
    pub avail_quartiles: Option<Quartiles>,
    /// Quartiles of unavailability interval durations (seconds).
    pub unavail_quartiles: Option<Quartiles>,
    /// Mean node power.
    pub power_mean: f64,
    /// Standard deviation of node power.
    pub power_std: f64,
}

/// Measures a built infrastructure over `[0, window)`.
///
/// The node-count series is evaluated by an event sweep over all toggle
/// times and sampled at `sample_period` for the mean/std/min/max columns.
pub fn measure(dci: &Dci, window: SimDuration, sample_period: SimDuration) -> TraceStats {
    let horizon = SimTime::ZERO + window;
    let mut up_durations: Vec<f64> = Vec::new();
    let mut down_durations: Vec<f64> = Vec::new();
    // (time, +1/-1) deltas of the available-node count.
    let mut deltas: Vec<(SimTime, i64)> = Vec::new();
    let mut initial_count = 0i64;

    for tl in &dci.timelines {
        let initially_up = tl.initial_up();
        if initially_up {
            initial_count += 1;
        }
        let ups = tl.clone().up_intervals(horizon);
        let mut prev_end: Option<SimTime> = None;
        for &(s, e) in &ups {
            // Complete availability intervals only (not clipped at either
            // boundary of the window).
            if s > SimTime::ZERO && e < horizon {
                up_durations.push(e.since(s).as_secs_f64());
            }
            if let Some(pe) = prev_end {
                down_durations.push(s.since(pe).as_secs_f64());
            }
            prev_end = Some(e);
            if s > SimTime::ZERO {
                deltas.push((s, 1));
            }
            if e < horizon {
                deltas.push((e, -1));
            }
        }
    }

    deltas.sort_by_key(|&(t, _)| t);

    // Sample the count at a fixed cadence.
    let mut count_stats = OnlineStats::new();
    let mut count = initial_count;
    let mut di = 0;
    let mut t = SimTime::ZERO;
    while t < horizon {
        while di < deltas.len() && deltas[di].0 <= t {
            count += deltas[di].1;
            di += 1;
        }
        count_stats.push(count as f64);
        t += sample_period;
    }

    let mut power_stats = OnlineStats::new();
    for &p in &dci.powers {
        power_stats.push(p);
    }

    TraceStats {
        window,
        nodes_mean: count_stats.mean(),
        nodes_std: count_stats.std_dev(),
        nodes_min: count_stats.min(),
        nodes_max: count_stats.max(),
        avail_quartiles: (!up_durations.is_empty()).then(|| Quartiles::of(&up_durations)),
        unavail_quartiles: (!down_durations.is_empty()).then(|| Quartiles::of(&down_durations)),
        power_mean: power_stats.mean(),
        power_std: power_stats.std_dev(),
    }
}

/// Builds a preset's infrastructure and measures it in one call.
pub fn measure_spec(spec: &TraceSpec, seed: u64, scale: f64, window: SimDuration) -> TraceStats {
    let dci = spec.build(seed, scale);
    measure(&dci, window, SimDuration::from_secs(60))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Preset;
    use crate::timeline::NodeTimeline;

    #[test]
    fn measures_fixed_single_node() {
        let s = SimTime::from_secs;
        let dci = Dci {
            name: "unit".into(),
            kind: crate::catalog::DciKind::DesktopGrid,
            timelines: vec![NodeTimeline::fixed(&[(s(10), s(40)), (s(60), s(90))])],
            powers: vec![1000.0],
        };
        let stats = measure(&dci, SimDuration::from_secs(100), SimDuration::from_secs(1));
        // Up 30 + 30 of 100 seconds; sampled on integer seconds.
        assert!(
            (stats.nodes_mean - 0.6).abs() < 0.02,
            "{}",
            stats.nodes_mean
        );
        assert_eq!(stats.nodes_min, 0.0);
        assert_eq!(stats.nodes_max, 1.0);
        let av = stats.avail_quartiles.expect("two complete up intervals");
        assert_eq!(av.q50, 30.0);
        let unav = stats.unavail_quartiles.expect("one gap");
        assert_eq!(unav.q50, 20.0);
        assert_eq!(stats.power_mean, 1000.0);
    }

    #[test]
    fn renewal_preset_count_matches_published_mean() {
        // Scaled-down Notre Dame; the mean available count should land near
        // scale × published mean.
        let spec = Preset::NotreDame.spec();
        let stats = measure_spec(&spec, 3, 1.0, SimDuration::from_days(5));
        let rel = (stats.nodes_mean - spec.nodes_mean).abs() / spec.nodes_mean;
        assert!(
            rel < 0.15,
            "measured {} vs published {}",
            stats.nodes_mean,
            spec.nodes_mean
        );
    }

    #[test]
    fn renewal_quartiles_track_spec() {
        let spec = Preset::G5kLyon.spec();
        let stats = measure_spec(&spec, 5, 1.0, SimDuration::from_days(3));
        let av = stats.avail_quartiles.expect("intervals measured");
        // Median availability should be within 25% of the published 51 s.
        assert!(
            (av.q50 - spec.avail.q50).abs() / spec.avail.q50 < 0.25,
            "measured q50 {} vs {}",
            av.q50,
            spec.avail.q50
        );
    }
}
