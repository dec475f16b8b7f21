//! Pluggable module seams: the trait boundaries between the SpeQuloS
//! service and its four modules (Fig. 3).
//!
//! The paper describes SpeQuloS as a *protocol* between swappable modules:
//! Information, Credit System, Oracle and Scheduler each "can be easily
//! replaced" as long as they speak the module interfaces. This module
//! makes those seams explicit as object-safe traits, so a
//! [`crate::SpeQuloS`] assembled by [`crate::SpeQuloS::builder`] can mix
//! the paper's implementations with alternatives — a persistent
//! Information store, a learned Oracle, a deadline-aware Scheduler — while
//! the service façade and the wire protocol ([`crate::protocol`]) stay
//! unchanged.
//!
//! The default implementations are the paper's concrete modules:
//!
//! | seam | default | role |
//! |------|---------|------|
//! | [`InfoBackend`] | [`Information`] | progress history + execution archive (§3.2) |
//! | [`OracleStrategy`] | [`crate::Oracle`] | triggers, fleet sizing, predictions (§3.4–3.5) |
//! | [`SchedulingPolicy`] | [`crate::Scheduler`] | Algorithms 1 & 2 (§3.6) |
//!
//! A further implementation, [`crate::GreedyUntilTc`], ships as proof of
//! the scheduling seam: a deadline-aware policy the paper never evaluated.
//!
//! All three traits require `Debug + Send` and provide `clone_box`, so
//! boxed modules keep the service `Clone + Debug` (harness reports carry
//! the final service state by value) and `Send` (the `spq-server`
//! dispatch loop owns the service on its own thread).

use crate::credit::CreditSystem;
use crate::info::{ArchivedExecution, BotRecord, Information};
use crate::oracle::{Prediction, Provisioning, StrategyCombo, Trigger};
use crate::progress::BotProgress;
use crate::protocol::codec::Stored;
use crate::scheduler::CloudAction;
use crate::snapshot::SnapshotError;
use botwork::BotId;
use simcore::json::{Reader, Writer};
use simcore::SimTime;
use std::fmt::Debug;

/// The Information-module seam (§3.2): per-BoT progress history plus the
/// per-environment archive predictions learn from.
///
/// The default implementation is the in-memory [`Information`] store; a
/// deployment-scale service would back this with a database without
/// touching the rest of the service.
pub trait InfoBackend: Debug + Send {
    /// Registers a BoT for monitoring.
    fn register(&mut self, bot: BotId, env: &str, size: u32, now: SimTime);

    /// Stores one monitoring sample.
    fn sample(&mut self, bot: BotId, progress: &BotProgress);

    /// Marks a BoT complete and archives its execution trace.
    fn mark_complete(&mut self, bot: BotId, now: SimTime);

    /// Live record of a BoT (`None` if never registered).
    fn record(&self, bot: BotId) -> Option<&BotRecord>;

    /// Archived executions for an environment.
    fn history(&self, env: &str) -> &[ArchivedExecution];

    /// Injects a pre-recorded execution into the archive.
    fn archive_execution(&mut self, env: &str, exec: ArchivedExecution);

    /// Number of BoTs currently monitored.
    fn live_count(&self) -> usize;

    /// Boxed clone (keeps `Box<dyn InfoBackend>` — and therefore the
    /// service — cloneable).
    fn clone_box(&self) -> Box<dyn InfoBackend>;

    /// Writes the module's state, one JSON value, into a durability
    /// snapshot ([`crate::snapshot`]), or refuses a state it cannot
    /// write exactly (a non-finite float is [`SnapshotError::NonFinite`]).
    /// The default writes nothing and opts the module out with
    /// [`SnapshotError::UnsupportedModule`]: a service containing it
    /// cannot be snapshotted, and durable recovery falls back to
    /// replaying the whole write-ahead log.
    fn snapshot_state(&self, _w: &mut Writer<'_>) -> Result<(), SnapshotError> {
        Err(SnapshotError::UnsupportedModule("info"))
    }

    /// Restores [`InfoBackend::snapshot_state`]'s value from `r`,
    /// consuming exactly that value whatever it returns. The default
    /// skips it and rejects restoration (matching the opt-out).
    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        r.skip_value();
        Err("this InfoBackend does not support snapshot restore".into())
    }
}

impl Clone for Box<dyn InfoBackend> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The Oracle-module seam (§3.4–3.5): the two questions the Scheduler asks
/// — *should cloud workers start?* and *how many?* — plus the user-facing
/// completion-time prediction.
///
/// The per-BoT [`StrategyCombo`] selected at `orderQoS` time is passed in
/// piecewise ([`Trigger`] / [`Provisioning`]); implementations are free to
/// honor it (the paper's [`crate::Oracle`] does) or substitute their own
/// decision procedure.
pub trait OracleStrategy: Debug + Send {
    /// Whether cloud workers should start for this BoT now
    /// (`Oracle.shouldUseCloud`, Algorithm 1).
    fn should_start_cloud(
        &mut self,
        bot: BotId,
        record: &BotRecord,
        now: SimTime,
        trigger: Trigger,
    ) -> bool;

    /// How many cloud workers to start (`Oracle.cloudWorkersToStart`).
    fn workers_to_start(
        &self,
        record: &BotRecord,
        now: SimTime,
        provisioning: Provisioning,
        credits_remaining: f64,
    ) -> u32;

    /// Completion-time prediction for the user (`getQoSInformation`).
    fn predict(
        &self,
        record: &BotRecord,
        history: &[ArchivedExecution],
        now: SimTime,
    ) -> Option<Prediction>;

    /// Clears per-BoT state after completion.
    fn forget(&mut self, bot: BotId);

    /// Boxed clone.
    fn clone_box(&self) -> Box<dyn OracleStrategy>;

    /// Writes the module's state, as [`InfoBackend::snapshot_state`];
    /// the default opts out and forces full-log replay on recovery.
    fn snapshot_state(&self, _w: &mut Writer<'_>) -> Result<(), SnapshotError> {
        Err(SnapshotError::UnsupportedModule("oracle"))
    }

    /// Restores [`OracleStrategy::snapshot_state`]'s value, as [`InfoBackend::restore_state`].
    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        r.skip_value();
        Err("this OracleStrategy does not support snapshot restore".into())
    }
}

impl Clone for Box<dyn OracleStrategy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The Scheduler-module seam (§3.6): one monitoring period for one BoT.
///
/// A policy receives the collaborating modules exactly as Fig. 3 draws the
/// arrows — it reads progress from the [`InfoBackend`], consults the
/// [`OracleStrategy`], and bills the [`CreditSystem`] — and answers with a
/// [`CloudAction`]. The default implementation is the paper's
/// [`crate::Scheduler`] (Algorithms 1 & 2); [`crate::GreedyUntilTc`] is a
/// deadline-aware alternative.
pub trait SchedulingPolicy: Debug + Send {
    /// One scheduling period: billing followed by the provisioning
    /// decision. `tick_hours` is the billing granularity.
    // One parameter per collaborating module (Fig. 3); bundling them into
    // a context struct would only obscure the Algorithm 1/2 call shape.
    #[allow(clippy::too_many_arguments)]
    fn tick(
        &mut self,
        bot: BotId,
        progress: &BotProgress,
        info: &dyn InfoBackend,
        oracle: &mut dyn OracleStrategy,
        credits: &mut CreditSystem,
        strategy: StrategyCombo,
        tick_hours: f64,
    ) -> CloudAction;

    /// Whether the fleet has been provisioned for this BoT.
    fn cloud_started(&self, bot: BotId) -> bool;

    /// Clears the fleet-started flag so a later tick re-evaluates the
    /// provisioning decision (used by the multi-tenant arbiter after a
    /// denied or partial grant; see [`crate::Scheduler::reset_start`]).
    fn reset_start(&mut self, bot: BotId);

    /// Drops per-BoT state after completion.
    fn forget(&mut self, bot: BotId);

    /// Boxed clone.
    fn clone_box(&self) -> Box<dyn SchedulingPolicy>;

    /// Writes the module's state, as [`InfoBackend::snapshot_state`];
    /// the default opts out and forces full-log replay on recovery.
    fn snapshot_state(&self, _w: &mut Writer<'_>) -> Result<(), SnapshotError> {
        Err(SnapshotError::UnsupportedModule("scheduler"))
    }

    /// Restores [`SchedulingPolicy::snapshot_state`]'s value, as [`InfoBackend::restore_state`].
    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        r.skip_value();
        Err("this SchedulingPolicy does not support snapshot restore".into())
    }
}

impl Clone for Box<dyn SchedulingPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl InfoBackend for Information {
    fn register(&mut self, bot: BotId, env: &str, size: u32, now: SimTime) {
        Information::register(self, bot, env, size, now);
    }

    fn sample(&mut self, bot: BotId, progress: &BotProgress) {
        Information::sample(self, bot, progress);
    }

    fn mark_complete(&mut self, bot: BotId, now: SimTime) {
        Information::mark_complete(self, bot, now);
    }

    fn record(&self, bot: BotId) -> Option<&BotRecord> {
        Information::record(self, bot)
    }

    fn history(&self, env: &str) -> &[ArchivedExecution] {
        Information::history(self, env)
    }

    fn archive_execution(&mut self, env: &str, exec: ArchivedExecution) {
        Information::archive_execution(self, env, exec);
    }

    fn live_count(&self) -> usize {
        Information::live_count(self)
    }

    fn clone_box(&self) -> Box<dyn InfoBackend> {
        Box::new(self.clone())
    }

    fn snapshot_state(&self, w: &mut Writer<'_>) -> Result<(), SnapshotError> {
        self.store(w, "info")
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        *self = Stored::load(r, "info")?;
        self.share_completed_series();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use crate::scheduler::Scheduler;

    #[test]
    fn boxed_modules_clone_and_debug() {
        let info: Box<dyn InfoBackend> = Box::new(Information::new());
        let oracle: Box<dyn OracleStrategy> = Box::new(Oracle::new());
        let sched: Box<dyn SchedulingPolicy> = Box::new(Scheduler::new());
        let info2 = info.clone();
        let _ = oracle.clone();
        let _ = sched.clone();
        assert_eq!(info2.live_count(), 0);
        assert!(format!("{info:?}").contains("Information"));
    }

    #[test]
    fn info_backend_delegates_to_information() {
        let mut info: Box<dyn InfoBackend> = Box::new(Information::new());
        let bot = BotId(1);
        info.register(bot, "env", 10, SimTime::ZERO);
        info.sample(
            bot,
            &BotProgress {
                now: SimTime::from_secs(60),
                size: 10,
                completed: 10,
                dispatched: 10,
                queued: 0,
                running: 0,
                cloud_running: 0,
            },
        );
        info.mark_complete(bot, SimTime::from_secs(60));
        assert_eq!(info.history("env").len(), 1);
        assert_eq!(info.live_count(), 1);
        assert!(info.record(bot).is_some());
        assert!(info.record(BotId(99)).is_none());
    }
}
