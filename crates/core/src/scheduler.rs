//! Scheduler module: BoT and cloud-worker management (§3.6).
//!
//! The scheduler loop of Algorithm 1 — for each QoS-supported BoT, ask the
//! Credit System whether credits remain, ask the Oracle whether and how
//! many cloud workers to start — and the cloud-worker loop of Algorithm 2
//! — bill running workers each period, stop them when the BoT completes
//! or the credits run out.

use crate::credit::{CreditSystem, CREDITS_PER_CPU_HOUR};
use crate::modules::{InfoBackend, OracleStrategy, SchedulingPolicy};
use crate::oracle::{Provisioning, StrategyCombo};
use crate::progress::BotProgress;
use botwork::BotId;
use simcore::{IdMap, IdSet, SimDuration};

/// Action the Scheduler orders after a monitoring tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CloudAction {
    /// Nothing to do.
    None,
    /// Start this many additional cloud workers.
    Start(u32),
    /// Stop every cloud worker of this BoT.
    StopAll,
}

#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct BotSchedState {
    /// The trigger fired and the fleet was sized; the paper's strategies
    /// size the cloud fleet once.
    pub(crate) cloud_started: bool,
}

/// The Scheduler module.
#[derive(Clone, Debug, Default)]
pub struct Scheduler {
    pub(crate) state: IdMap<BotSchedState>,
    /// Allow re-provisioning on later ticks if workers stopped while
    /// credits remain (off by default: the paper sizes the fleet once;
    /// used by ablation experiments).
    pub allow_topup: bool,
}

impl Scheduler {
    /// Creates a scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// One scheduling period for one BoT: Algorithm 2's billing followed
    /// by Algorithm 1's provisioning decision.
    ///
    /// `tick_hours` is the period length in hours (billing granularity).
    /// The Information and Oracle modules come in behind their seams
    /// ([`InfoBackend`] / [`OracleStrategy`]); concrete
    /// [`crate::Information`] / [`crate::Oracle`] references coerce.
    // One parameter per collaborating module (Fig. 3); bundling them into
    // a context struct would only obscure the Algorithm 1/2 call shape.
    #[allow(clippy::too_many_arguments)]
    pub fn tick(
        &mut self,
        bot: BotId,
        progress: &BotProgress,
        info: &dyn InfoBackend,
        oracle: &mut dyn OracleStrategy,
        credits: &mut CreditSystem,
        strategy: StrategyCombo,
        tick_hours: f64,
    ) -> CloudAction {
        // --- Algorithm 2: monitor cloud workers -------------------------
        if progress.cloud_running > 0 {
            let bill = progress.cloud_running as f64 * tick_hours * CREDITS_PER_CPU_HOUR;
            // Billing failure means no order — treat as exhausted.
            let _ = credits.bill(bot, bill);
            if progress.is_complete() || !credits.has_credits(bot) {
                return CloudAction::StopAll;
            }
        }
        if progress.is_complete() {
            return CloudAction::None;
        }

        // --- Algorithm 1: monitor the BoT -------------------------------
        let state = self.state.entry(bot.0).or_default();
        if state.cloud_started && !self.allow_topup {
            return CloudAction::None;
        }
        if !credits.has_credits(bot) {
            return CloudAction::None;
        }
        let Some(record) = info.record(bot) else {
            return CloudAction::None;
        };
        if !oracle.should_start_cloud(bot, record, progress.now, strategy.trigger) {
            return CloudAction::None;
        }
        let desired = oracle.workers_to_start(
            record,
            progress.now,
            strategy.provisioning,
            credits.remaining(bot),
        );
        let delta = desired.saturating_sub(progress.cloud_running);
        if delta == 0 {
            return CloudAction::None;
        }
        state.cloud_started = true;
        CloudAction::Start(delta)
    }

    /// Whether the fleet has been provisioned for this BoT.
    pub fn cloud_started(&self, bot: BotId) -> bool {
        self.state
            .get(&bot.0)
            .map(|s| s.cloud_started)
            .unwrap_or(false)
    }

    /// Clears the fleet-started flag so a later tick re-evaluates the
    /// provisioning decision. Used by the multi-tenant arbiter whenever a
    /// `Start` was granted only partially or not at all (shared pool
    /// contended): without the reset the paper's size-the-fleet-once rule
    /// would turn a transient denial into permanent starvation, and a
    /// partial grant into a permanently undersized fleet even after other
    /// tenants return capacity.
    pub fn reset_start(&mut self, bot: BotId) {
        if let Some(s) = self.state.get_mut(&bot.0) {
            s.cloud_started = false;
        }
    }

    /// Drops per-BoT state after completion.
    pub fn forget(&mut self, bot: BotId) {
        self.state.remove(&bot.0);
    }
}

/// The paper's Scheduler is the default [`SchedulingPolicy`].
impl SchedulingPolicy for Scheduler {
    fn tick(
        &mut self,
        bot: BotId,
        progress: &BotProgress,
        info: &dyn InfoBackend,
        oracle: &mut dyn OracleStrategy,
        credits: &mut CreditSystem,
        strategy: StrategyCombo,
        tick_hours: f64,
    ) -> CloudAction {
        Scheduler::tick(
            self, bot, progress, info, oracle, credits, strategy, tick_hours,
        )
    }

    fn cloud_started(&self, bot: BotId) -> bool {
        Scheduler::cloud_started(self, bot)
    }

    fn reset_start(&mut self, bot: BotId) {
        Scheduler::reset_start(self, bot);
    }

    fn forget(&mut self, bot: BotId) {
        Scheduler::forget(self, bot);
    }

    fn clone_box(&self) -> Box<dyn SchedulingPolicy> {
        Box::new(self.clone())
    }

    fn snapshot_state(
        &self,
        w: &mut simcore::json::Writer<'_>,
    ) -> Result<(), crate::SnapshotError> {
        crate::protocol::codec::Stored::store(self, w, "scheduler")
    }

    fn restore_state(&mut self, r: &mut simcore::json::Reader<'_>) -> Result<(), String> {
        *self = crate::protocol::codec::Stored::load(r, "scheduler")?;
        Ok(())
    }
}

/// A deadline-aware [`SchedulingPolicy`] the paper never evaluated —
/// proof that the scheduling seam opens new scenarios.
///
/// Where the paper's [`Scheduler`] waits for the strategy trigger and
/// sizes the fleet *once*, `GreedyUntilTc` watches the constant-rate
/// completion estimate `tc = elapsed / completion_ratio` and provisions
/// greedily — topping the fleet up every tick — for as long as the BoT is
/// projected to miss its target completion time `tc_target`. Once the
/// estimate comes back under the target the policy stops adding workers
/// (running ones keep billing until completion or exhaustion, Algorithm 2
/// unchanged). Useful for deadline-driven tenants who would rather burn
/// their whole credit order than finish late.
///
/// Select it through the builder:
///
/// ```
/// use simcore::SimDuration;
/// use spequlos::{GreedyUntilTc, SpeQuloS};
///
/// let spq = SpeQuloS::builder()
///     .policy(GreedyUntilTc::new(SimDuration::from_hours(2)))
///     .build();
/// # let _ = spq;
/// ```
#[derive(Clone, Debug)]
pub struct GreedyUntilTc {
    /// Target completion time, measured from each BoT's submission.
    pub target: SimDuration,
    /// BoTs for which at least one `Start` was issued.
    pub(crate) started: IdSet,
}

impl GreedyUntilTc {
    /// A policy aiming every BoT at completing within `target` of its
    /// submission.
    pub fn new(target: SimDuration) -> Self {
        GreedyUntilTc {
            target,
            started: IdSet::default(),
        }
    }
}

impl SchedulingPolicy for GreedyUntilTc {
    fn tick(
        &mut self,
        bot: BotId,
        progress: &BotProgress,
        info: &dyn InfoBackend,
        oracle: &mut dyn OracleStrategy,
        credits: &mut CreditSystem,
        _strategy: StrategyCombo,
        tick_hours: f64,
    ) -> CloudAction {
        // --- Algorithm 2 (unchanged): bill and stop running workers -----
        if progress.cloud_running > 0 {
            let bill = progress.cloud_running as f64 * tick_hours * CREDITS_PER_CPU_HOUR;
            let _ = credits.bill(bot, bill);
            if progress.is_complete() || !credits.has_credits(bot) {
                return CloudAction::StopAll;
            }
        }
        if progress.is_complete() {
            return CloudAction::None;
        }

        // --- Deadline watch: provision while projected to miss tc -------
        if !credits.has_credits(bot) {
            return CloudAction::None;
        }
        let Some(record) = info.record(bot) else {
            return CloudAction::None;
        };
        let elapsed = progress.now.since(record.submitted_at).as_secs_f64();
        let ratio = record.completion_ratio();
        // Constant-rate projection; before any completion the projection is
        // unbounded, so act only once the deadline itself has passed.
        let projected = if ratio > 0.0 {
            elapsed / ratio
        } else if elapsed >= self.target.as_secs_f64() {
            f64::INFINITY
        } else {
            return CloudAction::None;
        };
        if projected <= self.target.as_secs_f64() {
            return CloudAction::None; // on track
        }
        // Greedy sizing, re-evaluated every tick: the whole remaining
        // order, converted to workers, minus what already runs.
        let desired = oracle.workers_to_start(
            record,
            progress.now,
            Provisioning::Greedy,
            credits.remaining(bot),
        );
        let delta = desired.saturating_sub(progress.cloud_running);
        if delta == 0 {
            return CloudAction::None;
        }
        self.started.insert(bot.0);
        CloudAction::Start(delta)
    }

    fn cloud_started(&self, bot: BotId) -> bool {
        self.started.contains(&bot.0)
    }

    fn reset_start(&mut self, _bot: BotId) {
        // Nothing to reset: the policy re-evaluates provisioning every
        // tick, so a denied grant is retried naturally.
    }

    fn forget(&mut self, bot: BotId) {
        self.started.remove(&bot.0);
    }

    fn clone_box(&self) -> Box<dyn SchedulingPolicy> {
        Box::new(self.clone())
    }

    fn snapshot_state(
        &self,
        w: &mut simcore::json::Writer<'_>,
    ) -> Result<(), crate::SnapshotError> {
        crate::protocol::codec::Stored::store(self, w, "scheduler")
    }

    fn restore_state(&mut self, r: &mut simcore::json::Reader<'_>) -> Result<(), String> {
        *self = crate::protocol::codec::Stored::load(r, "scheduler")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::credit::UserId;
    use crate::info::Information;
    use crate::oracle::{Oracle, Trigger};
    use simcore::SimTime;

    const BOT: BotId = BotId(1);
    const USER: UserId = UserId(1);

    struct Fixture {
        info: Information,
        oracle: Oracle,
        credits: CreditSystem,
        sched: Scheduler,
    }

    fn fixture(provision: f64) -> Fixture {
        let mut info = Information::new();
        info.register(BOT, "env", 100, SimTime::ZERO);
        let mut credits = CreditSystem::new();
        credits.deposit(USER, provision);
        credits.order_qos(BOT, USER, provision).unwrap();
        Fixture {
            info,
            oracle: Oracle::new(),
            credits,
            sched: Scheduler::new(),
        }
    }

    fn progress(now_s: u64, completed: u32, cloud_running: u32) -> BotProgress {
        BotProgress {
            now: SimTime::from_secs(now_s),
            size: 100,
            completed,
            dispatched: 100,
            queued: 0,
            running: 100 - completed,
            cloud_running,
        }
    }

    fn feed(f: &mut Fixture, p: &BotProgress) {
        f.info.sample(BOT, p);
    }

    fn combo() -> StrategyCombo {
        StrategyCombo::paper_default() // 9C-C-R
    }

    #[test]
    fn starts_fleet_when_trigger_fires() {
        let mut f = fixture(150.0); // 10 CPU·hours
        let p = progress(3600, 89, 0);
        feed(&mut f, &p);
        let a = f.sched.tick(
            BOT,
            &p,
            &f.info,
            &mut f.oracle,
            &mut f.credits,
            combo(),
            1.0 / 60.0,
        );
        assert_eq!(a, CloudAction::None, "below threshold");

        let p = progress(7200, 90, 0);
        feed(&mut f, &p);
        let a = f.sched.tick(
            BOT,
            &p,
            &f.info,
            &mut f.oracle,
            &mut f.credits,
            combo(),
            1.0 / 60.0,
        );
        // 90% at 2h → remaining ≈ 13.3 min < 1h → Conservative caps at S = 10.
        assert_eq!(a, CloudAction::Start(10));
        assert!(f.sched.cloud_started(BOT));
    }

    #[test]
    fn fleet_sized_once() {
        let mut f = fixture(150.0);
        let p = progress(7200, 90, 0);
        feed(&mut f, &p);
        let a = f.sched.tick(
            BOT,
            &p,
            &f.info,
            &mut f.oracle,
            &mut f.credits,
            combo(),
            1.0 / 60.0,
        );
        assert!(matches!(a, CloudAction::Start(_)));
        // Next tick with the fleet running: billing only, no new starts.
        let p = progress(7260, 91, 10);
        feed(&mut f, &p);
        let a = f.sched.tick(
            BOT,
            &p,
            &f.info,
            &mut f.oracle,
            &mut f.credits,
            combo(),
            1.0 / 60.0,
        );
        assert_eq!(a, CloudAction::None);
    }

    #[test]
    fn bills_running_workers_each_tick() {
        let mut f = fixture(150.0);
        let spent_before = f.credits.spent(BOT);
        let p = progress(7200, 95, 4);
        feed(&mut f, &p);
        let _ = f.sched.tick(
            BOT,
            &p,
            &f.info,
            &mut f.oracle,
            &mut f.credits,
            combo(),
            1.0 / 60.0,
        );
        // 4 workers × 1 minute = 4/60 CPU·hour = 1 credit.
        let billed = f.credits.spent(BOT) - spent_before;
        assert!((billed - 1.0).abs() < 1e-9, "billed {billed}");
    }

    #[test]
    fn stops_fleet_when_credits_exhausted() {
        let mut f = fixture(1.0); // 4 worker-minutes of credits
        let p = progress(7200, 95, 10);
        feed(&mut f, &p);
        let a = f.sched.tick(
            BOT,
            &p,
            &f.info,
            &mut f.oracle,
            &mut f.credits,
            combo(),
            1.0 / 60.0,
        );
        // 10 workers × 1 min = 2.5 credits > 1 provisioned → exhausted.
        assert_eq!(a, CloudAction::StopAll);
        assert!(!f.credits.has_credits(BOT));
    }

    #[test]
    fn stops_fleet_on_completion() {
        let mut f = fixture(150.0);
        let p = progress(9000, 100, 3);
        feed(&mut f, &p);
        let a = f.sched.tick(
            BOT,
            &p,
            &f.info,
            &mut f.oracle,
            &mut f.credits,
            combo(),
            1.0 / 60.0,
        );
        assert_eq!(a, CloudAction::StopAll);
    }

    #[test]
    fn no_start_without_credits() {
        let mut f = fixture(150.0);
        // Consume the whole order first.
        f.credits.bill(BOT, 150.0).unwrap();
        let p = progress(7200, 95, 0);
        feed(&mut f, &p);
        let a = f.sched.tick(
            BOT,
            &p,
            &f.info,
            &mut f.oracle,
            &mut f.credits,
            combo(),
            1.0 / 60.0,
        );
        assert_eq!(a, CloudAction::None);
    }

    #[test]
    fn greedy_starts_full_s() {
        let mut f = fixture(150.0);
        let mut c = combo();
        c.trigger = Trigger::CompletionThreshold(0.9);
        c.provisioning = crate::oracle::Provisioning::Greedy;
        let p = progress(7200, 90, 0);
        feed(&mut f, &p);
        let a = f.sched.tick(
            BOT,
            &p,
            &f.info,
            &mut f.oracle,
            &mut f.credits,
            c,
            1.0 / 60.0,
        );
        assert_eq!(a, CloudAction::Start(10));
    }
}
