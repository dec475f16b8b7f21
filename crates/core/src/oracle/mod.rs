//! Oracle module: QoS estimation and cloud-provisioning decisions (§3.4,
//! §3.5).
//!
//! The Oracle answers the Scheduler's two questions — *should cloud
//! workers start now?* and *how many?* — and the user's question — *when
//! will my BoT finish?* — using nothing but the Information module's
//! progress history.

pub mod predict;
pub mod strategy;

use crate::info::BotRecord;
use botwork::BotId;
use simcore::{IdMap, SimTime};

pub use predict::{
    historical_success_rate, learn_alpha, predict, prediction_successful, raw_estimate, Prediction,
    PREDICTION_TOLERANCE,
};
pub use strategy::{DeployMode, Provisioning, StrategyCombo, Trigger};

/// Per-BoT trigger state (the Execution-Variance strategy needs the
/// maximum variance observed during the first half of the execution).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct VarianceState {
    pub(crate) max_first_half: f64,
}

/// The Oracle: stateless strategies plus the small amount of per-BoT
/// state the Execution-Variance trigger requires.
#[derive(Clone, Debug, Default)]
pub struct Oracle {
    pub(crate) variance: IdMap<VarianceState>,
}

impl Oracle {
    /// Creates an Oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Execution variance `var(x) = tc(x) − ta(x)` evaluated at the
    /// current completion ratio: how far completion lags behind
    /// assignment. A sudden growth signals the system left steady state
    /// (§3.5).
    pub fn execution_variance(record: &BotRecord, now: SimTime) -> Option<f64> {
        let ratio = record.completion_ratio();
        if ratio <= 0.0 {
            return None;
        }
        let ta = record.ta(ratio)?;
        // tc(ratio) is "now": the BoT just reached this completion ratio.
        Some(now.since(ta).as_secs_f64())
    }

    /// Decides whether cloud workers should be started for this BoT
    /// (`Oracle.shouldUseCloud` in Algorithm 1).
    pub fn should_start_cloud(
        &mut self,
        bot: BotId,
        record: &BotRecord,
        now: SimTime,
        trigger: Trigger,
    ) -> bool {
        match trigger {
            Trigger::CompletionThreshold(thr) => record.completion_ratio() >= thr,
            Trigger::AssignmentThreshold(thr) => {
                let dispatched = record.dispatched.last().map(|(_, v)| v).unwrap_or(0.0);
                record.size > 0 && dispatched >= thr * record.size as f64
            }
            Trigger::ExecutionVariance => {
                let Some(var_now) = Self::execution_variance(record, now) else {
                    return false;
                };
                let ratio = record.completion_ratio();
                let state = self.variance.entry(bot.0).or_default();
                if ratio <= 0.5 {
                    state.max_first_half = state.max_first_half.max(var_now);
                    false
                } else {
                    state.max_first_half > 0.0 && var_now >= 2.0 * state.max_first_half
                }
            }
            Trigger::RateDrop { fraction } => {
                Self::rate_drop(record, now).is_some_and(|drop| drop <= fraction)
            }
        }
    }

    /// Ratio of the *recent* completion rate (last quarter of elapsed
    /// time) to the average rate since submission; `None` before half the
    /// BoT is complete (too early to call a rate collapse a tail). Values
    /// well below 1 anticipate the tail (§7 future work).
    pub fn rate_drop(record: &BotRecord, now: SimTime) -> Option<f64> {
        if record.completion_ratio() < 0.5 || record.size == 0 {
            return None;
        }
        let elapsed = now.since(record.submitted_at).as_secs_f64();
        if elapsed <= 0.0 {
            return None;
        }
        let (_, completed_now) = record.completed.last()?;
        let avg_rate = completed_now / elapsed;
        if avg_rate <= 0.0 {
            return None;
        }
        // Recent window: the last quarter of the elapsed time.
        let window = elapsed / 4.0;
        let window_start =
            record.submitted_at + simcore::SimDuration::from_secs_f64(elapsed - window);
        let completed_then = record.completed.value_at(window_start)?;
        let recent_rate = (completed_now - completed_then).max(0.0) / window;
        Some(recent_rate / avg_rate)
    }

    /// Estimated remaining execution time assuming a constant completion
    /// rate (the Conservative sizing formula of §3.5):
    /// `tr = tc(xe)/xe − tc(xe)`.
    pub fn estimated_remaining(record: &BotRecord, now: SimTime) -> Option<f64> {
        let ratio = record.completion_ratio();
        if ratio <= 0.0 {
            return None;
        }
        let elapsed = now.since(record.submitted_at).as_secs_f64();
        Some((elapsed / ratio - elapsed).max(0.0))
    }

    /// How many cloud workers to start (`Oracle.cloudWorkersToStart`).
    ///
    /// `credits_remaining` is converted to `S` CPU·hours at the fixed
    /// exchange rate. *Greedy* starts `S` workers at once; *Conservative*
    /// starts `min(S, S/tr)` so the fleet can run for the whole estimated
    /// remaining time `tr` (the paper prints `max`, but the accompanying
    /// text — "ensuring that there will be enough credits for them to run
    /// during the estimated time" — requires `min`; see DESIGN.md).
    pub fn workers_to_start(
        &self,
        record: &BotRecord,
        now: SimTime,
        provisioning: Provisioning,
        credits_remaining: f64,
    ) -> u32 {
        let s_cpu_hours = credits_remaining / crate::credit::CREDITS_PER_CPU_HOUR;
        if s_cpu_hours < 1e-9 {
            return 0;
        }
        match provisioning {
            Provisioning::Greedy => (s_cpu_hours.floor() as u32).max(1),
            Provisioning::Conservative => {
                let tr_hours = Self::estimated_remaining(record, now)
                    .map(|secs| secs / 3600.0)
                    .unwrap_or(1.0);
                let affordable = s_cpu_hours / tr_hours.max(1.0);
                (affordable.min(s_cpu_hours).floor() as u32).max(1)
            }
        }
    }

    /// Completion-time prediction for the user (`getQoSInformation`,
    /// Fig. 3): `tp = α·tc(r)/r` with α learned from the environment's
    /// archived executions.
    pub fn predict_completion(
        record: &BotRecord,
        history: &[crate::info::ArchivedExecution],
        now: SimTime,
    ) -> Option<Prediction> {
        let r = record.completion_ratio();
        let elapsed = now.since(record.submitted_at).as_secs_f64();
        predict(history, elapsed, r)
    }

    /// Clears per-BoT state after completion.
    pub fn forget(&mut self, bot: BotId) {
        self.variance.remove(&bot.0);
    }
}

/// The Oracle is the default [`crate::OracleStrategy`]: it honors the
/// per-BoT [`StrategyCombo`] exactly as §3.4–3.5 specify.
impl crate::modules::OracleStrategy for Oracle {
    fn should_start_cloud(
        &mut self,
        bot: BotId,
        record: &BotRecord,
        now: SimTime,
        trigger: Trigger,
    ) -> bool {
        Oracle::should_start_cloud(self, bot, record, now, trigger)
    }

    fn workers_to_start(
        &self,
        record: &BotRecord,
        now: SimTime,
        provisioning: Provisioning,
        credits_remaining: f64,
    ) -> u32 {
        Oracle::workers_to_start(self, record, now, provisioning, credits_remaining)
    }

    fn predict(
        &self,
        record: &BotRecord,
        history: &[crate::info::ArchivedExecution],
        now: SimTime,
    ) -> Option<Prediction> {
        Oracle::predict_completion(record, history, now)
    }

    fn forget(&mut self, bot: BotId) {
        Oracle::forget(self, bot);
    }

    fn clone_box(&self) -> Box<dyn crate::modules::OracleStrategy> {
        Box::new(self.clone())
    }

    fn snapshot_state(
        &self,
        w: &mut simcore::json::Writer<'_>,
    ) -> Result<(), crate::SnapshotError> {
        crate::protocol::codec::Stored::store(self, w, "oracle")
    }

    fn restore_state(&mut self, r: &mut simcore::json::Reader<'_>) -> Result<(), String> {
        *self = crate::protocol::codec::Stored::load(r, "oracle")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::info::Information;
    use crate::progress::BotProgress;

    fn feed(info: &mut Information, bot: BotId, samples: &[(u64, u32, u32)]) {
        for &(t, completed, dispatched) in samples {
            info.sample(
                bot,
                &BotProgress {
                    now: SimTime::from_secs(t),
                    size: 100,
                    completed,
                    dispatched,
                    queued: 0,
                    running: 0,
                    cloud_running: 0,
                },
            );
        }
    }

    #[test]
    fn completion_threshold_trigger() {
        let mut info = Information::new();
        let bot = BotId(1);
        info.register(bot, "env", 100, SimTime::ZERO);
        feed(&mut info, bot, &[(0, 0, 50), (60, 89, 100)]);
        let mut oracle = Oracle::new();
        let rec = info.record(bot).unwrap();
        let trig = Trigger::CompletionThreshold(0.9);
        assert!(!oracle.should_start_cloud(bot, rec, SimTime::from_secs(60), trig));
        feed(&mut info, bot, &[(120, 90, 100)]);
        let rec = info.record(bot).unwrap();
        assert!(oracle.should_start_cloud(bot, rec, SimTime::from_secs(120), trig));
    }

    #[test]
    fn assignment_threshold_trigger() {
        let mut info = Information::new();
        let bot = BotId(2);
        info.register(bot, "env", 100, SimTime::ZERO);
        feed(&mut info, bot, &[(0, 0, 89)]);
        let mut oracle = Oracle::new();
        let trig = Trigger::AssignmentThreshold(0.9);
        assert!(!oracle.should_start_cloud(bot, info.record(bot).unwrap(), SimTime::ZERO, trig));
        feed(&mut info, bot, &[(60, 5, 90)]);
        assert!(oracle.should_start_cloud(
            bot,
            info.record(bot).unwrap(),
            SimTime::from_secs(60),
            trig
        ));
    }

    #[test]
    fn variance_trigger_fires_on_doubling() {
        let mut info = Information::new();
        let bot = BotId(3);
        info.register(bot, "env", 100, SimTime::ZERO);
        let mut oracle = Oracle::new();
        let trig = Trigger::ExecutionVariance;
        // Steady first half: assignment leads completion by ~60s.
        for i in 1..=50u64 {
            feed(
                &mut info,
                bot,
                &[(i * 60, i as u32, (i as u32 + 1).min(100))],
            );
            let fired = oracle.should_start_cloud(
                bot,
                info.record(bot).unwrap(),
                SimTime::from_secs(i * 60),
                trig,
            );
            assert!(!fired, "must not fire during first half (i={i})");
        }
        // Second half: completion stalls at 60% while assignment finished
        // long ago — variance explodes.
        feed(&mut info, bot, &[(6000, 60, 100)]);
        let mut fired = false;
        for t in [9000u64, 12000, 20000] {
            feed(&mut info, bot, &[(t, 60, 100)]);
            fired |= oracle.should_start_cloud(
                bot,
                info.record(bot).unwrap(),
                SimTime::from_secs(t),
                trig,
            );
        }
        assert!(fired, "variance trigger must eventually fire");
    }

    #[test]
    fn rate_drop_trigger_anticipates_the_tail() {
        let mut info = Information::new();
        let bot = BotId(8);
        info.register(bot, "env", 100, SimTime::ZERO);
        let mut oracle = Oracle::new();
        let trig = Trigger::RateDrop { fraction: 0.5 };
        // Steady completion: 1 task per minute.
        for i in 1..=70u64 {
            feed(&mut info, bot, &[(i * 60, i as u32, 100)]);
            assert!(
                !oracle.should_start_cloud(
                    bot,
                    info.record(bot).unwrap(),
                    SimTime::from_secs(i * 60),
                    trig
                ),
                "steady rate must not fire (i={i})"
            );
        }
        // Rate collapses: no completions for a long stretch.
        for i in 1..=40u64 {
            feed(&mut info, bot, &[(4200 + i * 60, 70, 100)]);
        }
        let rec = info.record(bot).unwrap();
        let now = SimTime::from_secs(4200 + 40 * 60);
        let drop = Oracle::rate_drop(rec, now).expect("past 50%");
        assert!(drop < 0.5, "rate collapsed, got {drop}");
        assert!(oracle.should_start_cloud(bot, rec, now, trig));
        // The anticipative trigger fires well before 90% completion.
        assert!(rec.completion_ratio() < 0.9);
    }

    #[test]
    fn greedy_starts_s_workers() {
        let mut info = Information::new();
        let bot = BotId(4);
        info.register(bot, "env", 100, SimTime::ZERO);
        feed(&mut info, bot, &[(0, 0, 0), (3600, 90, 100)]);
        let oracle = Oracle::new();
        let rec = info.record(bot).unwrap();
        // 150 credits = 10 CPU·hours → 10 workers.
        let n = oracle.workers_to_start(rec, SimTime::from_secs(3600), Provisioning::Greedy, 150.0);
        assert_eq!(n, 10);
        // Tiny credit still starts one worker.
        let n = oracle.workers_to_start(rec, SimTime::from_secs(3600), Provisioning::Greedy, 10.0);
        assert_eq!(n, 1);
        // No credits, no workers.
        let n = oracle.workers_to_start(rec, SimTime::from_secs(3600), Provisioning::Greedy, 0.0);
        assert_eq!(n, 0);
    }

    #[test]
    fn conservative_scales_by_remaining_time() {
        let mut info = Information::new();
        let bot = BotId(5);
        info.register(bot, "env", 100, SimTime::ZERO);
        // At t=2h, 50% complete → estimated remaining = 2h.
        feed(&mut info, bot, &[(0, 0, 100), (7200, 50, 100)]);
        let oracle = Oracle::new();
        let rec = info.record(bot).unwrap();
        let now = SimTime::from_secs(7200);
        assert!((Oracle::estimated_remaining(rec, now).unwrap() - 7200.0).abs() < 1.0);
        // S = 10 CPU·hours, tr = 2h → 5 workers sustained for 2h.
        let n = oracle.workers_to_start(rec, now, Provisioning::Conservative, 150.0);
        assert_eq!(n, 5);
        // Greedy would start 10.
        let n = oracle.workers_to_start(rec, now, Provisioning::Greedy, 150.0);
        assert_eq!(n, 10);
    }

    #[test]
    fn conservative_caps_at_s_for_short_remaining() {
        let mut info = Information::new();
        let bot = BotId(6);
        info.register(bot, "env", 100, SimTime::ZERO);
        // At t=1h, 95% complete → remaining ≈ 3.2 min ≪ 1h.
        feed(&mut info, bot, &[(0, 0, 100), (3600, 95, 100)]);
        let oracle = Oracle::new();
        let rec = info.record(bot).unwrap();
        // S = 4 CPU·hours; S/tr would be ~76 — the cap keeps it at 4.
        let n = oracle.workers_to_start(
            rec,
            SimTime::from_secs(3600),
            Provisioning::Conservative,
            60.0,
        );
        assert_eq!(n, 4);
    }

    #[test]
    fn prediction_uses_live_ratio() {
        let mut info = Information::new();
        let bot = BotId(7);
        info.register(bot, "env", 100, SimTime::ZERO);
        feed(&mut info, bot, &[(0, 0, 100), (600, 50, 100)]);
        let rec = info.record(bot).unwrap();
        let p = Oracle::predict_completion(rec, info.history("env"), SimTime::from_secs(600))
            .expect("r > 0");
        // No history: α = 1, prediction = 600/0.5 = 1200 s.
        assert_eq!(p.alpha, 1.0);
        assert!((p.completion_secs - 1200.0).abs() < 1.0);
        assert_eq!(p.success_rate, None);
    }
}
