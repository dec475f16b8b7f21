//! Prediction-quality evaluation (Table 4).
//!
//! The paper measures, per execution environment, the fraction of
//! executions whose completion time falls within ±20% of the prediction
//! made at 50% completion, with the α factor learned from all executions
//! of that environment ("we assume perfect knowledge of the history of
//! previous BoT executions", §4.3.3).

use crate::runner::ExecutionMetrics;
use simcore::SimTime;
use spequlos::info::ArchivedExecution;
use spequlos::oracle::{historical_success_rate, learn_alpha};
use std::sync::Arc;

/// Converts completed runs into the Information module's archive format.
pub fn archive_of(runs: &[ExecutionMetrics]) -> Vec<ArchivedExecution> {
    runs.iter().filter(|m| m.completed).map(archived).collect()
}

/// A completed run as the Information module archives it.
fn archived(m: &ExecutionMetrics) -> ArchivedExecution {
    ArchivedExecution {
        completed: Arc::new(m.completed_series.clone()),
        size: m.bot_size,
        completion: SimTime::from_secs_f64(m.completion_secs),
    }
}

/// Success rate of predictions made at completion ratio `r` over a set of
/// runs from one environment. Returns `None` when no run reaches `r`.
pub fn prediction_success_rate(runs: &[ExecutionMetrics], r: f64) -> Option<f64> {
    let archive = archive_of(runs);
    if archive.is_empty() {
        return None;
    }
    let alpha = learn_alpha(&archive, r);
    historical_success_rate(&archive, r, alpha)
}

/// Per-run prediction outcomes `(successes, total)` at ratio `r`, with α
/// learned *per environment* (runs are grouped by their `env` label, as
/// the paper prescribes: "the α factor is computed using all available
/// BoT executions with same BE-DCI trace, middleware, and BoT category").
/// Mixed success rates across environments are obtained by summing these
/// counts — never by learning a single α across environments.
pub fn prediction_outcomes(runs: &[ExecutionMetrics], r: f64) -> (u32, u32) {
    use spequlos::oracle::{prediction_successful, raw_estimate};
    use std::collections::BTreeMap;

    let mut by_env: BTreeMap<&str, Vec<ArchivedExecution>> = BTreeMap::new();
    for m in runs.iter().filter(|m| m.completed) {
        by_env.entry(&m.env).or_default().push(archived(m));
    }
    let (mut ok, mut total) = (0u32, 0u32);
    for archive in by_env.values() {
        let alpha = learn_alpha(archive, r);
        for exec in archive {
            let Some(tc) = exec.tc(r) else { continue };
            let Some(raw) = raw_estimate(tc.as_secs_f64(), r) else {
                continue;
            };
            total += 1;
            if prediction_successful(alpha * raw, exec.completion.as_secs_f64()) {
                ok += 1;
            }
        }
    }
    (ok, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::TimeSeries;
    use spequlos::StrategyCombo;

    fn run(linear_span: u64, completion: u64) -> ExecutionMetrics {
        let mut s = TimeSeries::new();
        s.push(SimTime::ZERO, 0.0);
        s.push(SimTime::from_secs(linear_span), 90.0);
        s.push(SimTime::from_secs(completion), 100.0);
        ExecutionMetrics {
            env: "test".into(),
            strategy: Some(StrategyCombo::paper_default()),
            seed: 0,
            completed: true,
            completion_secs: completion as f64,
            tail: None,
            credits_provisioned: 0.0,
            credits_spent: 0.0,
            cloud: Default::default(),
            events: 0,
            completed_series: s,
            bot_size: 100,
            cloud_work_fraction: 0.0,
        }
    }

    #[test]
    fn consistent_tails_predict_well() {
        let runs: Vec<_> = (0..10).map(|i| run(900, 1800 + i * 10)).collect();
        let rate = prediction_success_rate(&runs, 0.5).expect("has history");
        assert!(rate > 0.9, "rate {rate}");
    }

    #[test]
    fn erratic_tails_predict_poorly() {
        // Completion times spanning 2–20× the linear phase defeat any
        // single α.
        let runs: Vec<_> = (0..10).map(|i| run(900, 2000 + i * 2000)).collect();
        let rate = prediction_success_rate(&runs, 0.5).expect("has history");
        assert!(rate < 0.8, "rate {rate}");
    }

    #[test]
    fn empty_input_is_none() {
        assert_eq!(prediction_success_rate(&[], 0.5), None);
    }
}
