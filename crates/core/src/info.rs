//! Information module: monitoring and archiving of BoT executions (§3.2).
//!
//! Two jobs: (1) keep real-time progress history per BoT — the time series
//! of completed / assigned / queued counts all QoS decisions read from —
//! and (2) archive finished executions per *environment* (BE-DCI trace ×
//! middleware × BoT class) so the Oracle can learn the `α` correction
//! factor and report a historical success rate with its predictions
//! (§3.4).

use crate::progress::BotProgress;
use botwork::BotId;
use simcore::{IdMap, SimTime, TimeSeries};
use std::collections::HashMap;

/// Live monitoring record of one BoT execution.
#[derive(Clone, Debug)]
pub struct BotRecord {
    /// Environment label (e.g. `"seti/XWHEP/SMALL"`) used as the archive
    /// key.
    pub env: String,
    /// Total BoT size.
    pub size: u32,
    /// Registration (submission) time.
    pub submitted_at: SimTime,
    /// Completed-count samples.
    pub completed: TimeSeries,
    /// Cumulative dispatched-count samples.
    pub dispatched: TimeSeries,
    /// Queued-count samples.
    pub queued: TimeSeries,
    /// Completion time once the BoT finished.
    pub completion: Option<SimTime>,
}

impl BotRecord {
    /// `tc(x)`: elapsed time when fraction `x` of the BoT was completed
    /// (linear interpolation between samples). `None` if not reached yet.
    pub fn tc(&self, x: f64) -> Option<SimTime> {
        self.completed.time_to_reach(x * self.size as f64)
    }

    /// `ta(x)`: elapsed time when fraction `x` of the BoT had been
    /// assigned to workers.
    pub fn ta(&self, x: f64) -> Option<SimTime> {
        self.dispatched.time_to_reach(x * self.size as f64)
    }

    /// Latest known completion ratio.
    pub fn completion_ratio(&self) -> f64 {
        match self.completed.last() {
            Some((_, v)) if self.size > 0 => v / self.size as f64,
            _ => 0.0,
        }
    }
}

/// A finished execution, archived for prediction learning.
#[derive(Clone, Debug)]
pub struct ArchivedExecution {
    /// Completed-count samples of the whole run.
    pub completed: TimeSeries,
    /// BoT size.
    pub size: u32,
    /// Actual completion time.
    pub completion: SimTime,
}

impl ArchivedExecution {
    /// `tc(x)` of the archived run.
    pub fn tc(&self, x: f64) -> Option<SimTime> {
        self.completed.time_to_reach(x * self.size as f64)
    }
}

/// The Information module: live records plus the execution archive.
#[derive(Clone, Debug, Default)]
pub struct Information {
    pub(crate) live: IdMap<BotRecord>,
    pub(crate) archive: HashMap<String, Vec<ArchivedExecution>>,
}

impl Information {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a BoT for monitoring.
    ///
    /// # Panics
    /// Panics if the BoT is already registered.
    pub fn register(&mut self, bot: BotId, env: &str, size: u32, now: SimTime) {
        let prev = self.live.insert(
            bot.0,
            BotRecord {
                env: env.to_string(),
                size,
                submitted_at: now,
                completed: TimeSeries::new(),
                dispatched: TimeSeries::new(),
                queued: TimeSeries::new(),
                completion: None,
            },
        );
        assert!(prev.is_none(), "BoT {bot} registered twice");
    }

    /// Stores one monitoring sample (called every minute in the real
    /// deployment).
    pub fn sample(&mut self, bot: BotId, p: &BotProgress) {
        let rec = self.live.get_mut(&bot.0).expect("BoT not registered");
        rec.completed.push(p.now, p.completed as f64);
        rec.dispatched.push(p.now, p.dispatched as f64);
        rec.queued.push(p.now, p.queued as f64);
    }

    /// Marks a BoT complete and archives its execution trace under its
    /// environment key.
    pub fn mark_complete(&mut self, bot: BotId, now: SimTime) {
        let rec = self.live.get_mut(&bot.0).expect("BoT not registered");
        if rec.completion.is_some() {
            return;
        }
        rec.completion = Some(now);
        let exec = ArchivedExecution {
            completed: rec.completed.clone(),
            size: rec.size,
            completion: now,
        };
        self.archive.entry(rec.env.clone()).or_default().push(exec);
    }

    /// Live record of a BoT.
    pub fn record(&self, bot: BotId) -> Option<&BotRecord> {
        self.live.get(&bot.0)
    }

    /// Archived executions for an environment.
    pub fn history(&self, env: &str) -> &[ArchivedExecution] {
        self.archive.get(env).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Injects a pre-recorded execution into the archive (used to bootstrap
    /// the learning phase from external history, as the paper does when it
    /// "assumes perfect knowledge of the history", §4.3.3).
    pub fn archive_execution(&mut self, env: &str, exec: ArchivedExecution) {
        self.archive.entry(env.to_string()).or_default().push(exec);
    }

    /// Number of BoTs currently monitored.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn progress(now: u64, completed: u32, dispatched: u32) -> BotProgress {
        BotProgress {
            now: SimTime::from_secs(now),
            size: 100,
            completed,
            dispatched,
            queued: 100 - dispatched,
            running: dispatched - completed,
            cloud_running: 0,
        }
    }

    #[test]
    fn records_and_queries_tc_ta() {
        let mut info = Information::new();
        let bot = BotId(1);
        info.register(bot, "seti/XWHEP/SMALL", 100, SimTime::ZERO);
        info.sample(bot, &progress(0, 0, 0));
        info.sample(bot, &progress(60, 10, 40));
        info.sample(bot, &progress(120, 50, 90));
        info.sample(bot, &progress(180, 90, 100));
        let rec = info.record(bot).expect("registered");
        // tc(0.5) = 120 s exactly (50 tasks at the 120 s sample).
        assert_eq!(rec.tc(0.5), Some(SimTime::from_secs(120)));
        // ta(0.9) = 120 s (90 dispatched at 120 s).
        assert_eq!(rec.ta(0.9), Some(SimTime::from_secs(120)));
        // Not reached yet.
        assert_eq!(rec.tc(0.95), None);
        assert!((rec.completion_ratio() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn completion_archives_by_env() {
        let mut info = Information::new();
        let bot = BotId(2);
        info.register(bot, "nd/BOINC/BIG", 100, SimTime::ZERO);
        info.sample(bot, &progress(0, 0, 100));
        info.sample(bot, &progress(600, 100, 100));
        info.mark_complete(bot, SimTime::from_secs(600));
        assert_eq!(info.history("nd/BOINC/BIG").len(), 1);
        assert!(info.history("other").is_empty());
        let exec = &info.history("nd/BOINC/BIG")[0];
        assert_eq!(exec.completion, SimTime::from_secs(600));
        assert_eq!(exec.tc(1.0), Some(SimTime::from_secs(600)));
        // Double-completion is idempotent.
        info.mark_complete(bot, SimTime::from_secs(700));
        assert_eq!(info.history("nd/BOINC/BIG").len(), 1);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_registration_panics() {
        let mut info = Information::new();
        info.register(BotId(1), "x", 10, SimTime::ZERO);
        info.register(BotId(1), "x", 10, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn sampling_unregistered_panics() {
        let mut info = Information::new();
        info.sample(BotId(9), &progress(0, 0, 0));
    }
}
