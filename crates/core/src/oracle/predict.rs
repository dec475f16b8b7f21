//! Completion-time prediction (§3.4).
//!
//! When a user asks for a prediction, SpeQuloS reads the BoT's current
//! completion ratio `r` and the elapsed time `tc(r)`, and returns
//! `tp = α · tc(r) / r` — a constant-rate extrapolation corrected by a
//! per-environment factor `α` learned from archived executions. The
//! returned uncertainty is the historical success rate of this predictor
//! at ±20% tolerance.

use crate::info::ArchivedExecution;

/// Tolerance of a "successful" prediction: actual completion within ±20%
/// of the predicted time (§3.4, §4.3.3).
pub const PREDICTION_TOLERANCE: f64 = 0.20;

/// A completion-time prediction returned to the user.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prediction {
    /// Predicted completion time, in seconds since BoT submission.
    pub completion_secs: f64,
    /// Historical success rate of this predictor in the same environment
    /// (`None` when no history exists).
    pub success_rate: Option<f64>,
    /// The α factor used.
    pub alpha: f64,
}

/// Checks the paper's success criterion: actual within ±20% of predicted.
pub fn prediction_successful(predicted_secs: f64, actual_secs: f64) -> bool {
    if predicted_secs <= 0.0 {
        return false;
    }
    let lo = predicted_secs * (1.0 - PREDICTION_TOLERANCE);
    let hi = predicted_secs * (1.0 + PREDICTION_TOLERANCE);
    (lo..=hi).contains(&actual_secs)
}

/// The uncorrected constant-rate extrapolation `tc(r)/r`.
pub fn raw_estimate(tc_r_secs: f64, r: f64) -> Option<f64> {
    if r <= 0.0 || tc_r_secs <= 0.0 {
        None
    } else {
        Some(tc_r_secs / r)
    }
}

/// Learns `α` for an environment from archived executions, evaluated at
/// completion ratio `r`: the median of `actual / (tc_i(r)/r)` ratios,
/// which minimizes the average absolute correction error. Returns 1.0
/// (the initialization value, §3.4) without history.
pub fn learn_alpha(history: &[ArchivedExecution], r: f64) -> f64 {
    let mut ratios: Vec<f64> = history
        .iter()
        .filter_map(|exec| {
            let tc = exec.tc(r)?.as_secs_f64();
            let raw = raw_estimate(tc, r)?;
            Some(exec.completion.as_secs_f64() / raw)
        })
        .filter(|x| x.is_finite() && *x > 0.0)
        .collect();
    if ratios.is_empty() {
        return 1.0;
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    simcore::quantile_sorted(&ratios, 0.5)
}

/// Historical success rate: fraction of archived executions whose actual
/// completion falls within ±20% of `α·tc_i(r)/r`.
pub fn historical_success_rate(history: &[ArchivedExecution], r: f64, alpha: f64) -> Option<f64> {
    let mut total = 0u32;
    let mut ok = 0u32;
    for exec in history {
        let Some(tc) = exec.tc(r) else { continue };
        let Some(raw) = raw_estimate(tc.as_secs_f64(), r) else {
            continue;
        };
        total += 1;
        if prediction_successful(alpha * raw, exec.completion.as_secs_f64()) {
            ok += 1;
        }
    }
    (total > 0).then(|| ok as f64 / total as f64)
}

/// Full prediction pipeline: learn α from `history` at ratio `r`, apply it
/// to the live observation `tc(r) = tc_r_secs`, attach the historical
/// success rate.
pub fn predict(history: &[ArchivedExecution], tc_r_secs: f64, r: f64) -> Option<Prediction> {
    let raw = raw_estimate(tc_r_secs, r)?;
    let alpha = learn_alpha(history, r);
    Some(Prediction {
        completion_secs: alpha * raw,
        success_rate: historical_success_rate(history, r, alpha),
        alpha,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{SimTime, TimeSeries};

    /// An archived run completing `size` tasks linearly over
    /// `linear_span` seconds, then stalling until `completion` (a tail).
    fn archived(size: u32, linear_span: u64, completion: u64) -> ArchivedExecution {
        let mut s = TimeSeries::new();
        s.push(SimTime::ZERO, 0.0);
        // Linear to 90% over linear_span.
        s.push(SimTime::from_secs(linear_span), 0.9 * size as f64);
        s.push(SimTime::from_secs(completion), size as f64);
        ArchivedExecution {
            completed: s.into(),
            size,
            completion: SimTime::from_secs(completion),
        }
    }

    #[test]
    fn success_criterion() {
        assert!(prediction_successful(100.0, 100.0));
        assert!(prediction_successful(100.0, 80.0));
        assert!(prediction_successful(100.0, 120.0));
        assert!(!prediction_successful(100.0, 79.9));
        assert!(!prediction_successful(100.0, 121.0));
        assert!(!prediction_successful(0.0, 0.0));
    }

    #[test]
    fn alpha_defaults_to_one() {
        assert_eq!(learn_alpha(&[], 0.5), 1.0);
    }

    #[test]
    fn alpha_learns_tail_correction() {
        // Runs progress linearly to 90% in 900s and finish at 1800s: the
        // raw estimate at r=0.5 is tc(0.5)/0.5 = 500/0.5 = 1000s, so
        // α ≈ 1.8 corrects for the tail.
        let history: Vec<_> = (0..5).map(|_| archived(100, 900, 1800)).collect();
        let alpha = learn_alpha(&history, 0.5);
        assert!((alpha - 1.8).abs() < 0.05, "alpha {alpha}");
    }

    #[test]
    fn corrected_predictions_succeed_on_history() {
        let history: Vec<_> = (0..10).map(|i| archived(100, 900, 1700 + i * 20)).collect();
        let alpha = learn_alpha(&history, 0.5);
        let rate = historical_success_rate(&history, 0.5, alpha).expect("history");
        assert!(rate > 0.9, "rate {rate}");
        // Without correction (α = 1) the predictor misses the tail.
        let raw_rate = historical_success_rate(&history, 0.5, 1.0).expect("history");
        assert!(raw_rate < 0.5, "raw rate {raw_rate}");
    }

    #[test]
    fn predict_combines_alpha_and_live_observation() {
        let history: Vec<_> = (0..5).map(|_| archived(100, 900, 1800)).collect();
        // Live run at r=0.5 with tc(0.5)=600s (a bit slower than history).
        let p = predict(&history, 600.0, 0.5).expect("valid inputs");
        assert!((p.alpha - 1.8).abs() < 0.05);
        assert!((p.completion_secs - 1.8 * 1200.0).abs() < 60.0);
        assert!(p.success_rate.expect("has history") > 0.9);
    }

    #[test]
    fn predict_rejects_zero_progress() {
        assert!(predict(&[], 100.0, 0.0).is_none());
        assert!(predict(&[], 0.0, 0.5).is_none());
    }
}
