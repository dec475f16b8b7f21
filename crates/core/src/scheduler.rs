//! Scheduler module: BoT and cloud-worker management (§3.6).
//!
//! The scheduler loop of Algorithm 1 — for each QoS-supported BoT, ask the
//! Credit System whether credits remain, ask the Oracle whether and how
//! many cloud workers to start — and the cloud-worker loop of Algorithm 2
//! — bill running workers each period, stop them when the BoT completes
//! or the credits run out.

use crate::credit::{CreditSystem, CREDITS_PER_CPU_HOUR};
use crate::info::Information;
use crate::oracle::{Oracle, Provisioning, StrategyCombo};
use crate::progress::BotProgress;
use crate::protocol::{codec::Stored, read_members};
use crate::snapshot::SnapshotError;
use botwork::BotId;
use simcore::json::{Reader, Writer};
use simcore::{IdMap, IdSet, SimDuration};
use std::fmt::Debug;

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

/// The Scheduler-module seam (§3.6): one monitoring period for one BoT.
///
/// A policy receives the collaborating modules exactly as Fig. 3 draws the
/// arrows — it reads progress from the [`Information`] module, consults
/// the [`Oracle`], and bills the [`CreditSystem`] — and answers with a
/// [`CloudAction`]. Two policies ship: the paper's [`Scheduler`]
/// (Algorithms 1 & 2) and the deadline-aware [`GreedyUntilTc`].
///
/// Policies require `Debug + Send` and provide `clone_box`, so the boxed
/// policy keeps the service `Clone + Debug` (harness reports carry the
/// final service state by value) and `Send` (the `spq-server` dispatch
/// loop owns the service on its own thread).
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
        info: &Information,
        oracle: &mut Oracle,
        credits: &mut CreditSystem,
        strategy: StrategyCombo,
        tick_hours: f64,
    ) -> CloudAction;

    /// Whether the fleet has been provisioned for this BoT.
    fn cloud_started(&self, bot: BotId) -> bool;

    /// Clears the fleet-started flag so a later tick re-evaluates the
    /// provisioning decision. Used by the multi-tenant arbiter whenever a
    /// `Start` was granted only partially or not at all (shared pool
    /// contended): without the reset the paper's size-the-fleet-once rule
    /// would turn a transient denial into permanent starvation, and a
    /// partial grant into a permanently undersized fleet even after other
    /// tenants return capacity.
    fn reset_start(&mut self, bot: BotId);

    /// Drops per-BoT state after completion.
    fn forget(&mut self, bot: BotId);

    /// Boxed clone.
    fn clone_box(&self) -> Box<dyn SchedulingPolicy>;

    /// Writes the policy's state, one JSON value, into a durability
    /// snapshot ([`crate::snapshot`]).
    fn snapshot_state(&self, w: &mut Writer<'_>) -> Result<(), SnapshotError>;

    /// Restores [`SchedulingPolicy::snapshot_state`]'s value from `r`,
    /// consuming exactly that value whatever it returns.
    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError>;
}

impl Clone for Box<dyn SchedulingPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The snapshot tags of the policies this crate ships.
const POLICIES: [&str; 2] = ["scheduler", "greedy_until_tc"];

/// Loads policy `P`, whose snapshot tag is `tag`, from the value `r`
/// stands at. A value tagged as the other shipped policy was written by
/// a service of another configuration, not corrupted: replaying the log
/// under this policy instead would silently diverge, so it is a
/// [`SnapshotError::ConfigMismatch`]. The tag is looked up only when
/// loading failed.
fn restore_policy<P: Stored>(r: &mut Reader<'_>, tag: &str) -> Result<P, SnapshotError> {
    let mut value = r.clone();
    P::load(r, "scheduler").map_err(|e| {
        match read_members(&mut value, ["module"], |_, _| false).str("module") {
            Ok(found) if found != tag && POLICIES.contains(&found) => {
                let msg = format!("snapshot scheduling policy `{found}` vs template `{tag}`");
                SnapshotError::ConfigMismatch(msg)
            }
            _ => SnapshotError::Decode(e),
        }
    })
}

#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct BotSchedState {
    /// The trigger fired and the fleet was sized; the paper's strategies
    /// size the cloud fleet once.
    pub(crate) cloud_started: bool,
}

/// The Scheduler module: the paper's [`SchedulingPolicy`].
#[derive(Clone, Debug, Default)]
pub struct Scheduler {
    pub(crate) state: IdMap<BotSchedState>,
    /// Allow re-provisioning on later ticks if workers stopped while
    /// credits remain (off by default: the paper sizes the fleet once).
    pub allow_topup: bool,
}

impl Scheduler {
    /// Creates a scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SchedulingPolicy for Scheduler {
    /// Algorithm 2's billing followed by Algorithm 1's provisioning
    /// decision.
    fn tick(
        &mut self,
        bot: BotId,
        progress: &BotProgress,
        info: &Information,
        oracle: &mut Oracle,
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

    fn cloud_started(&self, bot: BotId) -> bool {
        self.state
            .get(&bot.0)
            .map(|s| s.cloud_started)
            .unwrap_or(false)
    }

    fn reset_start(&mut self, bot: BotId) {
        if let Some(s) = self.state.get_mut(&bot.0) {
            s.cloud_started = false;
        }
    }

    fn forget(&mut self, bot: BotId) {
        self.state.remove(&bot.0);
    }

    fn clone_box(&self) -> Box<dyn SchedulingPolicy> {
        Box::new(self.clone())
    }

    fn snapshot_state(&self, w: &mut Writer<'_>) -> Result<(), SnapshotError> {
        self.store(w, "scheduler")
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        *self = restore_policy(r, "scheduler")?;
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
        info: &Information,
        oracle: &mut Oracle,
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

    fn snapshot_state(&self, w: &mut Writer<'_>) -> Result<(), SnapshotError> {
        self.store(w, "scheduler")
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        *self = restore_policy(r, "greedy_until_tc")?;
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

    /// The contract both shipped policies keep: boxed, the policy leaves
    /// the service `Clone + Debug`, and the service's snapshot restores
    /// into a template of the same policy byte for byte.
    #[test]
    fn both_policies_clone_debug_and_round_trip_a_snapshot() {
        use crate::service::SpeQuloS;
        use crate::snapshot::{encode_state_json, restore_state_json};

        let greedy = || {
            let policy = GreedyUntilTc::new(SimDuration::from_hours(1));
            SpeQuloS::builder().policy(policy).build()
        };
        let templates: [fn() -> SpeQuloS; 2] = [SpeQuloS::new, greedy];
        for (template, name) in templates.into_iter().zip(["Scheduler", "GreedyUntilTc"]) {
            let mut spq = template();
            spq.credits.deposit(USER, 150.0);
            let bot = spq.register_qos("env", 100, USER, SimTime::ZERO);
            spq.order_qos(bot, 150.0, combo(), SimTime::ZERO).unwrap();
            let action = spq.on_progress(bot, &progress(7200, 90, 0), 1.0 / 60.0);
            assert!(
                matches!(action, CloudAction::Start(_)),
                "{name}: {action:?}"
            );

            let copy = spq.clone();
            assert!(format!("{copy:?}").contains(name), "{name}");
            let text = encode_state_json(&copy).unwrap();
            let restored = restore_state_json(template(), &text).unwrap();
            assert!(restored.scheduler.cloud_started(bot), "{name}");
            assert_eq!(encode_state_json(&restored).unwrap(), text, "{name}");
        }
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
