//! BoT progress snapshots: the single, middleware-agnostic currency of
//! information inside SpeQuloS.
//!
//! "Because we monitor the BoT execution progress, a single QoS mechanism
//! can be applied to a variety of different infrastructures" (§3.2). A
//! snapshot is a handful of counters — fewer than a hundred bytes per
//! minute per BoT, which is what lets one SpeQuloS server watch many BoTs
//! and infrastructures at once.

use simcore::SimTime;

/// One monitoring sample of a BoT execution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BotProgress {
    /// Sample time.
    pub now: SimTime,
    /// Total BoT size (tasks that will eventually be submitted).
    pub size: u32,
    /// Tasks completed.
    pub completed: u32,
    /// Distinct tasks assigned to workers at least once (cumulative).
    pub dispatched: u32,
    /// Task instances waiting in scheduler queues.
    pub queued: u32,
    /// Tasks currently executing.
    pub running: u32,
    /// Cloud workers currently provisioned for this BoT.
    pub cloud_running: u32,
}

impl BotProgress {
    /// Completed fraction of the BoT in `[0, 1]`.
    pub fn completion_ratio(&self) -> f64 {
        if self.size == 0 {
            0.0
        } else {
            self.completed as f64 / self.size as f64
        }
    }

    /// True once every task has completed.
    pub fn is_complete(&self) -> bool {
        self.size > 0 && self.completed >= self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(completed: u32, dispatched: u32) -> BotProgress {
        BotProgress {
            now: SimTime::from_secs(600),
            size: 200,
            completed,
            dispatched,
            queued: 10,
            running: 5,
            cloud_running: 0,
        }
    }

    #[test]
    fn ratios() {
        let p = sample(90, 180);
        assert!((p.completion_ratio() - 0.45).abs() < 1e-12);
        assert!(!p.is_complete());
        assert!(sample(200, 200).is_complete());
    }

    #[test]
    fn empty_bot_is_never_complete() {
        let p = BotProgress {
            now: SimTime::ZERO,
            size: 0,
            completed: 0,
            dispatched: 0,
            queued: 0,
            running: 0,
            cloud_running: 0,
        };
        assert_eq!(p.completion_ratio(), 0.0);
        assert!(!p.is_complete());
    }
}
