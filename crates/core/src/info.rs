//! Information module: monitoring and archiving of BoT executions (§3.2).
//!
//! Two jobs: (1) keep real-time progress history per BoT — the time series
//! of completed / assigned / queued counts all QoS decisions read from —
//! and (2) archive finished executions per *environment* (BE-DCI trace ×
//! middleware × BoT class) so the Oracle can learn the `α` correction
//! factor and report a historical success rate with its predictions
//! (§3.4).
//!
//! A finished BoT's completed-count history is held once: the archived
//! execution shares the live record's series ([`Arc`]) instead of copying
//! it. Samples are pushed copy-on-write ([`Arc::make_mut`]), so a report
//! that arrives after completion un-shares the live series and the
//! archive keeps the points it had at completion. A snapshot writes each
//! holder's points; restoring one shares equal series again
//! (`Information::share_completed_series`).

use crate::progress::BotProgress;
use crate::protocol::codec::Map;
use botwork::BotId;
use simcore::{IdMap, SimTime, TimeSeries};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

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
    /// Completed-count samples; once the BoT completed, shared with its
    /// archived execution until the next sample.
    pub completed: Arc<TimeSeries>,
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
    pub completed: Arc<TimeSeries>,
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
                completed: Arc::default(),
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
        Arc::make_mut(&mut rec.completed).push(p.now, p.completed as f64);
        rec.dispatched.push(p.now, p.dispatched as f64);
        rec.queued.push(p.now, p.queued as f64);
    }

    /// Marks a BoT complete and archives its execution trace under its
    /// environment key, sharing the live completed series.
    pub fn mark_complete(&mut self, bot: BotId, now: SimTime) {
        let rec = self.live.get_mut(&bot.0).expect("BoT not registered");
        if rec.completion.is_some() {
            return;
        }
        rec.completion = Some(now);
        let exec = ArchivedExecution {
            completed: Arc::clone(&rec.completed),
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

    /// Makes each completed live record share its series with its
    /// archived execution again, as [`Information::mark_complete`] left
    /// them: a restored store holds each history once, like the one that
    /// was snapshotted. A record and an execution of its environment pair
    /// up when size, completion time and every point agree bit for bit
    /// (`-0.0` is not `0.0`), so no value changes. One pass over the
    /// archive, one over the live records, each walked in key order; a
    /// series is read in full only to confirm a pair.
    pub(crate) fn share_completed_series(&mut self) {
        let envs = self.archive.sorted();
        let executions = envs.iter().map(|(_, execs)| execs.len()).sum();
        let mut archived = HashMap::with_capacity(executions);
        for (env, execs) in envs {
            for exec in execs {
                let key = Pairing::new(env, exec.size, exec.completion, &exec.completed);
                archived.entry(key).or_insert(&exec.completed);
            }
        }
        let shared: Vec<(u64, Arc<TimeSeries>)> = (self.live.sorted().into_iter())
            .filter_map(|(&bot, rec)| {
                let key = Pairing::new(&rec.env, rec.size, rec.completion?, &rec.completed);
                Some((bot, Arc::clone(archived.get(&key)?)))
            })
            .collect();
        for (bot, series) in shared {
            if let Some(rec) = self.live.get_mut(&bot) {
                rec.completed = series;
            }
        }
    }
}

/// What pairs a completed record with its archived execution: equal
/// environment, size, completion time and points, compared by their
/// bits. Hashed by the length and the first, middle and last points
/// only, so building and probing the map reads a few words of each
/// series: the match stays linear unless many executions of one
/// environment agree on all of those and differ elsewhere.
struct Pairing<'a> {
    /// Environment, size, completion time, length, and the first, middle
    /// and last points.
    head: (&'a str, u32, SimTime, usize, [Option<Bits>; 3]),
    series: &'a TimeSeries,
}

/// A point as `(t_ms, value bits)`.
type Bits = (u64, u64);

impl<'a> Pairing<'a> {
    fn new(env: &'a str, size: u32, completion: SimTime, series: &'a TimeSeries) -> Self {
        let (points, len) = (series.points(), series.len());
        let probe = |i: usize| points.get(i).map(point_bits);
        let probes = [probe(0), probe(len / 2), probe(len.wrapping_sub(1))];
        Pairing {
            head: (env, size, completion, len, probes),
            series,
        }
    }
}

fn point_bits(&(t, v): &(SimTime, f64)) -> Bits {
    (t.as_millis(), v.to_bits())
}

impl PartialEq for Pairing<'_> {
    fn eq(&self, other: &Self) -> bool {
        let bits = |p: &Self| p.series.points().iter().map(point_bits);
        self.head == other.head && bits(self).eq(bits(other))
    }
}

impl Eq for Pairing<'_> {}

impl Hash for Pairing<'_> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.head.hash(h);
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

    /// A store with one BoT of `env` sampled at 0, 60 and 120 s, then
    /// completed.
    fn completed(env: &str) -> Information {
        let mut info = Information::new();
        let bot = BotId(3);
        info.register(bot, env, 100, SimTime::ZERO);
        info.sample(bot, &progress(0, 0, 40));
        info.sample(bot, &progress(60, 40, 90));
        info.sample(bot, &progress(120, 100, 100));
        info.mark_complete(bot, SimTime::from_secs(120));
        info
    }

    fn shared(info: &Information, bot: BotId) -> bool {
        let rec = info.record(bot).expect("registered");
        let exec = &info.history(&rec.env)[0];
        Arc::ptr_eq(&rec.completed, &exec.completed)
    }

    #[test]
    fn completion_shares_the_series_with_the_archive() {
        let info = completed("seti/BOINC/BIG");
        assert!(shared(&info, BotId(3)));
        assert_eq!(info.history("seti/BOINC/BIG")[0].completed.len(), 3);
    }

    #[test]
    fn a_sample_after_completion_leaves_the_archive_as_it_was() {
        let mut info = completed("seti/BOINC/BIG");
        info.sample(BotId(3), &progress(180, 100, 100));
        assert!(!shared(&info, BotId(3)));
        let rec = info.record(BotId(3)).expect("registered");
        let exec = &info.history("seti/BOINC/BIG")[0];
        assert_eq!(rec.completed.len(), 4);
        assert_eq!(exec.completed.points(), &rec.completed.points()[..3]);
        assert_eq!(exec.tc(1.0), Some(SimTime::from_secs(120)));
    }

    #[test]
    fn series_equal_bit_for_bit_are_shared_again() {
        // Un-share by hand, as a restore leaves them: equal bits share.
        let mut info = completed("env");
        let exec = &mut info.archive.get_mut("env").expect("archived")[0];
        exec.completed = Arc::new(TimeSeries::clone(&exec.completed));
        assert!(!shared(&info, BotId(3)));
        info.share_completed_series();
        assert!(shared(&info, BotId(3)));

        // `-0.0 == 0.0`, but a series holding one is not the other's.
        let exec = &mut info.archive.get_mut("env").expect("archived")[0];
        let mut signed = TimeSeries::new();
        for &(t, v) in exec.completed.points() {
            signed.push(t, if v == 0.0 { -0.0 } else { v });
        }
        exec.completed = Arc::new(signed);
        let rec = info.record(BotId(3)).expect("registered");
        let exec = &info.history("env")[0];
        assert_eq!(rec.completed.points(), exec.completed.points());
        info.share_completed_series();
        assert!(!shared(&info, BotId(3)));
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
