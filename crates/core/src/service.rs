//! The SpeQuloS service façade: the module wiring of Fig. 3.
//!
//! One [`SpeQuloS`] instance is the multi-user, multi-BoT, multi-DCI
//! service of §3.1: it owns the Information, Credit System, Oracle and
//! Scheduler modules and exposes the user-facing protocol
//! (`registerQoS` → `orderQoS` → monitoring → billing → `pay`). Every
//! cross-module interaction is appended to a protocol log so the
//! quickstart example can replay the paper's sequence diagram.
//!
//! When constructed with [`SpeQuloS::with_pool`], the service additionally
//! arbitrates all tenants over a bounded shared cloud-worker pool: QoS
//! orders pass admission control and every `Start` the Scheduler emits is
//! clamped to the tenant's credit-proportional fair share (see
//! [`crate::tenancy`]). Without a pool the service behaves exactly as the
//! single-tenant protocol above — existing runs are bit-identical.

use crate::credit::{CreditError, CreditSystem, FavorLedger, UserId};
use crate::info::Information;
use crate::oracle::{Oracle, Prediction, StrategyCombo};
use crate::progress::BotProgress;
use crate::scheduler::{CloudAction, Scheduler, SchedulingPolicy};
use crate::tenancy::{CloudPool, PoolLease, PoolLedger, TenantMetrics};
use botwork::BotId;
use simcore::{IdMap, SimDuration, SimTime};

// The log is a message table of its own: JSON only (a snapshot stores
// it), its field errors bare.
crate::protocol::codec::messages! {
    /// One entry of the protocol log (the arrows of Fig. 3).
    #[derive(Clone, Debug, PartialEq)]
    pub enum LogEvent: "event", "log event" bare {
        /// User registered a BoT for QoS; the service returned its id.
        RegisterQos = "register_qos" {
            /// Assigned BoT id.
            bot: BotId,
            /// Environment label.
            env: String,
        }
        /// User provisioned credits for the BoT.
        OrderQos = "order_qos" {
            /// The BoT.
            bot: BotId,
            /// Credits provisioned.
            credits: f64,
        }
        /// User asked for a completion-time prediction.
        Predicted = "predicted" {
            /// The BoT.
            bot: BotId,
            /// Predicted completion, seconds since submission.
            completion_secs: f64,
            /// Historical success rate attached to the prediction.
            success_rate: Option<f64>,
        }
        /// The Scheduler started cloud workers.
        StartCloudWorkers = "start_cloud_workers" {
            /// The BoT.
            bot: BotId,
            /// Number of workers started.
            count: u32,
        }
        /// The Scheduler stopped all cloud workers.
        StopCloudWorkers = "stop_cloud_workers" {
            /// The BoT.
            bot: BotId,
        }
        /// The BoT completed.
        Completed = "completed" {
            /// The BoT.
            bot: BotId,
        }
        /// The order was paid and remaining credits refunded.
        Paid = "paid" {
            /// The BoT.
            bot: BotId,
            /// Refund returned to the user.
            refund: f64,
        }
        /// The shared-pool arbiter granted fewer cloud workers than the
        /// Scheduler requested (only emitted by pooled services).
        Throttled = "throttled" {
            /// The BoT.
            bot: BotId,
            /// Workers the Scheduler asked for.
            requested: u32,
            /// Workers actually granted (< requested; the Scheduler retries
            /// the shortfall on later ticks).
            granted: u32,
        }
    } with {}
}

/// The assembled SpeQuloS service.
///
/// # Example
///
/// The front-door protocol of Fig. 3, end to end (this is the
/// `examples/quickstart.rs` flow in miniature — there the progress
/// snapshots come from a simulated desktop grid instead of a closure):
///
/// ```
/// use simcore::SimTime;
/// use spequlos::{BotProgress, CloudAction, SpeQuloS, StrategyCombo, UserId};
///
/// let mut spq = SpeQuloS::new();
/// let user = UserId(1);
/// spq.credits.deposit(user, 1_000.0);
///
/// // registerQoS → orderQoS: 150 credits back the 9C-C-R strategy.
/// let bot = spq.register_qos("seti/XWHEP/SMALL", 100, user, SimTime::ZERO);
/// spq.order_qos(bot, 150.0, StrategyCombo::paper_default(), SimTime::ZERO)?;
/// assert_eq!(spq.credits.balance(user), 850.0);
///
/// // Each monitoring minute: feed a progress snapshot, apply the action.
/// let progress = |secs: u64, done: u32, cloud: u32| BotProgress {
///     now: SimTime::from_secs(secs),
///     size: 100,
///     completed: done,
///     dispatched: 100,
///     queued: 0,
///     running: 100 - done,
///     cloud_running: cloud,
/// };
/// for minute in 1..=89u64 {
///     let action = spq.on_progress(bot, &progress(minute * 60, minute as u32, 0), 1.0 / 60.0);
///     assert_eq!(action, CloudAction::None, "steady progress: no cloud");
/// }
///
/// // 90 % completion fires the trigger: the tail goes to the cloud.
/// let CloudAction::Start(n) = spq.on_progress(bot, &progress(5_400, 90, 0), 1.0 / 60.0) else {
///     panic!("expected a cloud burst at 90 %");
/// };
/// assert!(n >= 1);
///
/// // Completion stops the fleet; `pay` refunds the unspent credits.
/// let action = spq.on_progress(bot, &progress(5_520, 100, n), 1.0 / 60.0);
/// assert_eq!(action, CloudAction::StopAll);
/// spq.on_complete(bot, SimTime::from_secs(5_520));
/// assert!(spq.credits.balance(user) > 850.0, "refund returned");
/// # Ok::<(), spequlos::CreditError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SpeQuloS {
    /// Information module (monitoring + archive).
    pub(crate) info: Information,
    /// Credit System module (accounts + orders).
    pub credits: CreditSystem,
    /// Oracle module (prediction + strategies).
    pub(crate) oracle: Oracle,
    /// Scheduler module, the one module behind a trait: the paper's
    /// [`Scheduler`] (Algorithms 1 & 2) unless the builder was given
    /// another [`SchedulingPolicy`].
    pub(crate) scheduler: Box<dyn SchedulingPolicy>,
    /// Network-of-favors ledger (§3.3): the arbiter's tie-breaker. The
    /// service records cloud consumption here at `pay` time; donations are
    /// recorded by the operator (or harness) for peers that contribute
    /// computation to others.
    pub favors: FavorLedger,
    /// Strategy used when a protocol `OrderQos` request names none.
    pub(crate) default_strategy: StrategyCombo,
    /// Clock granularity: the monitoring/billing period assumed by the
    /// wire protocol's `ReportProgress` requests.
    pub(crate) tick: SimDuration,
    pub(crate) strategies: IdMap<StrategyCombo>,
    pub(crate) users: IdMap<UserId>,
    pub(crate) next_bot: u64,
    /// Stride between successive BoT ids. `1` (the default) allocates
    /// densely; a shard `i` of `n` allocates `i, i+n, i+2n, …` so that
    /// `bot.0 % n` names the owning shard
    /// ([`crate::tenancy::shard_of_bot`]).
    pub(crate) bot_stride: u64,
    pub(crate) log: Vec<(SimTime, LogEvent)>,
    /// Shared cloud-worker pool; `None` (the default) disables arbitration
    /// entirely and preserves single-tenant behaviour bit-for-bit.
    pub(crate) pool: Option<CloudPool>,
    pub(crate) tenants: IdMap<TenantMetrics>,
}

impl Default for SpeQuloS {
    /// The builder's default assembly: the paper's modules, no pool.
    fn default() -> Self {
        Self::builder().build()
    }
}

/// Assembles a [`SpeQuloS`] service: its scheduling policy and
/// configuration.
///
/// Obtained from [`SpeQuloS::builder`]; every knob has the paper's
/// default, so `SpeQuloS::builder().build()` equals [`SpeQuloS::new`].
///
/// ```
/// use simcore::SimDuration;
/// use spequlos::{GreedyUntilTc, SpeQuloS, StrategyCombo};
///
/// let spq = SpeQuloS::builder()
///     .pool(16)                                            // shared cloud pool
///     .default_strategy(StrategyCombo::parse("9A-G-D").unwrap())
///     .policy(GreedyUntilTc::new(SimDuration::from_hours(4)))
///     .tick(SimDuration::from_secs(30))                    // clock granularity
///     .build();
/// assert_eq!(spq.pool().unwrap().capacity(), 16);
/// assert_eq!(spq.default_strategy().to_string(), "9A-G-D");
/// ```
#[derive(Debug)]
pub struct SpeQuloSBuilder {
    scheduler: Box<dyn SchedulingPolicy>,
    pool: Option<u32>,
    default_strategy: StrategyCombo,
    tick: SimDuration,
    shard: Option<(u64, u64)>,
}

impl Default for SpeQuloSBuilder {
    fn default() -> Self {
        SpeQuloSBuilder {
            scheduler: Box::new(Scheduler::new()),
            pool: None,
            default_strategy: StrategyCombo::paper_default(),
            tick: SimDuration::from_secs(60),
            shard: None,
        }
    }
}

impl SpeQuloSBuilder {
    /// Arbitrates all tenants over a shared pool of `capacity` cloud
    /// workers (see [`crate::tenancy`]). Without this the cloud is
    /// unbounded — the paper's single-BoT evaluation setting.
    pub fn pool(mut self, capacity: u32) -> Self {
        self.pool = Some(capacity);
        self
    }

    /// Replaces the Scheduler module (e.g. with
    /// [`crate::GreedyUntilTc`]).
    pub fn policy(mut self, policy: impl SchedulingPolicy + 'static) -> Self {
        self.scheduler = Box::new(policy);
        self
    }

    /// Strategy combination applied when a protocol `OrderQos` request
    /// names none (default: the paper's `9C-C-R`).
    pub fn default_strategy(mut self, strategy: StrategyCombo) -> Self {
        self.default_strategy = strategy;
        self
    }

    /// Clock granularity: the monitoring/billing period the wire
    /// protocol's `ReportProgress` requests are billed at (default: the
    /// paper's one minute).
    pub fn tick(mut self, tick: SimDuration) -> Self {
        self.tick = tick;
        self
    }

    /// Makes the service shard `index` of an `of`-way partition: BoT
    /// ids start at `index` and advance by `of`, so
    /// [`crate::tenancy::shard_of_bot`] (`bot.0 % of`) names the owning
    /// shard without any routing table. `shard(0, 1)` is the default
    /// dense allocation.
    ///
    /// # Panics
    /// Panics when `of` is zero or `index >= of`.
    pub fn shard(mut self, index: u64, of: u64) -> Self {
        assert!(of >= 1, "shard count must be at least 1");
        assert!(index < of, "shard index {index} out of range for {of}");
        self.shard = Some((index, of));
        self
    }

    /// Assembles the service.
    pub fn build(self) -> SpeQuloS {
        let (first_bot, stride) = self.shard.unwrap_or((0, 1));
        SpeQuloS {
            info: Information::new(),
            credits: CreditSystem::new(),
            oracle: Oracle::new(),
            scheduler: self.scheduler,
            favors: FavorLedger::new(),
            default_strategy: self.default_strategy,
            tick: self.tick,
            strategies: IdMap::default(),
            users: IdMap::default(),
            next_bot: first_bot,
            bot_stride: stride,
            log: Vec::new(),
            pool: self.pool.map(CloudPool::new),
            tenants: IdMap::default(),
        }
    }
}

impl SpeQuloS {
    /// Creates an empty service with an unbounded cloud (the paper's
    /// single-BoT evaluation setting).
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder assembling the service (pool capacity, default
    /// strategy, scheduling policy, clock granularity).
    pub fn builder() -> SpeQuloSBuilder {
        SpeQuloSBuilder::default()
    }

    /// Creates a service arbitrating all tenants over a shared pool of
    /// `capacity` cloud workers (see [`crate::tenancy`]).
    pub fn with_pool(capacity: u32) -> Self {
        Self::builder().pool(capacity).build()
    }

    /// The Information module.
    pub fn info(&self) -> &Information {
        &self.info
    }

    /// Strategy used when a protocol `OrderQos` request names none.
    pub fn default_strategy(&self) -> StrategyCombo {
        self.default_strategy
    }

    /// Clock granularity (the `ReportProgress` billing period).
    pub fn tick_granularity(&self) -> SimDuration {
        self.tick
    }

    /// The shared cloud pool, if this service arbitrates one.
    pub fn pool(&self) -> Option<&CloudPool> {
        self.pool.as_ref()
    }

    /// Stride between successive BoT ids (`1` unless the service is a
    /// shard of a partition — see [`SpeQuloSBuilder::shard`]).
    pub fn bot_stride(&self) -> u64 {
        self.bot_stride
    }

    /// Re-points the pool at a new capacity — the sharding hook that
    /// syncs a shard's `CloudPool` to its [`crate::tenancy::PoolLease`]
    /// quota before admission. A no-op for pool-less services.
    pub fn set_pool_capacity(&mut self, capacity: u32) {
        if let Some(pool) = self.pool.as_mut() {
            pool.set_capacity(capacity);
        }
    }

    /// Splits a freshly built template service into `shards`
    /// independent shard services: shard `i` clones the template's
    /// modules, allocates BoT ids `i, i+n, i+2n, …`, and (when the
    /// template has a pool) owns a `CloudPool` sized to its
    /// [`crate::tenancy::PoolLedger`] quota. Returns the shards plus
    /// the ledger and per-shard leases when a pool is configured.
    ///
    /// # Panics
    /// Panics when `shards` is zero or the template already holds state
    /// (registered BoTs or log entries) — sharding splits a
    /// configuration, not a live service.
    pub fn into_shards(
        self,
        shards: u32,
        floor: u32,
    ) -> (Vec<SpeQuloS>, Option<(PoolLedger, Vec<PoolLease>)>) {
        assert!(shards >= 1, "need at least one shard");
        assert!(
            self.next_bot == 0 && self.log.is_empty(),
            "into_shards splits a fresh template, not a live service"
        );
        let ledger = self
            .pool
            .as_ref()
            .map(|p| PoolLedger::split(p.capacity(), shards, floor));
        let services = (0..shards)
            .map(|i| {
                let mut svc = self.clone();
                svc.next_bot = u64::from(i);
                svc.bot_stride = u64::from(shards);
                if let (Some(pool), Some((ledger, _))) = (svc.pool.as_mut(), ledger.as_ref()) {
                    pool.set_capacity(ledger.quotas()[i as usize]);
                }
                svc
            })
            .collect();
        (services, ledger)
    }

    /// Arbitration counters for a BoT (zeros if it never went through
    /// pool arbitration).
    pub fn tenant_metrics(&self, bot: BotId) -> TenantMetrics {
        self.tenants.get(&bot.0).copied().unwrap_or_default()
    }

    /// The user that registered a BoT.
    pub fn user_of(&self, bot: BotId) -> Option<UserId> {
        self.users.get(&bot.0).copied()
    }

    /// `registerQoS(BoT)`: registers a BoT execution in environment `env`
    /// and returns the `BoTId` the user must tag submissions with.
    pub fn register_qos(&mut self, env: &str, size: u32, user: UserId, now: SimTime) -> BotId {
        let bot = BotId(self.next_bot);
        self.next_bot += self.bot_stride;
        self.info.register(bot, env, size, now);
        self.users.insert(bot.0, user);
        self.log.push((
            now,
            LogEvent::RegisterQos {
                bot,
                env: env.to_string(),
            },
        ));
        bot
    }

    /// `orderQoS(BoTId, credit)`: provisions credits and selects the
    /// provisioning strategy for this BoT.
    ///
    /// On a pooled service ([`SpeQuloS::with_pool`]) the order first passes
    /// admission control: it is refused with
    /// [`CreditError::PoolSaturated`] while as many orders are open as the
    /// pool has workers, because an admitted tenant must be guaranteeable
    /// at least one cloud worker. Rejected tenants keep their credits and
    /// may retry once another BoT completes.
    pub fn order_qos(
        &mut self,
        bot: BotId,
        credits: f64,
        strategy: StrategyCombo,
        now: SimTime,
    ) -> Result<(), CreditError> {
        let user = *self.users.get(&bot.0).ok_or(CreditError::NoOrder)?;
        if let Some(pool) = &self.pool {
            if self.credits.open_order_count() as u64 >= u64::from(pool.capacity()) {
                return Err(CreditError::PoolSaturated);
            }
        }
        self.credits.order_qos(bot, user, credits)?;
        self.strategies.insert(bot.0, strategy);
        self.log.push((now, LogEvent::OrderQos { bot, credits }));
        Ok(())
    }

    /// `getQoSInformation(BoTId)`: predicted completion time with its
    /// historical success rate (§3.4).
    pub fn predict(&mut self, bot: BotId, now: SimTime) -> Option<Prediction> {
        let record = self.info.record(bot)?;
        let history = self.info.history(&record.env);
        let p = Oracle::predict_completion(record, history, now)?;
        self.log.push((
            now,
            LogEvent::Predicted {
                bot,
                completion_secs: p.completion_secs,
                success_rate: p.success_rate,
            },
        ));
        Some(p)
    }

    /// One monitoring period: stores the progress sample and runs the
    /// scheduler loops. `tick_hours` is the billing granularity.
    ///
    /// On a pooled service, a `Start` emitted by the Scheduler is clamped
    /// to the tenant's fair share of the shared pool before it reaches the
    /// infrastructure (see [`crate::tenancy`] for the policy); the
    /// difference is recorded in the tenant's [`TenantMetrics`] and, when
    /// non-zero, logged as [`LogEvent::Throttled`].
    pub fn on_progress(
        &mut self,
        bot: BotId,
        progress: &BotProgress,
        tick_hours: f64,
    ) -> CloudAction {
        self.info.sample(bot, progress);
        // Leases shrink as a tenant's workers retire on their own (Greedy
        // provisioning stops idle workers without a StopAll).
        if let Some(pool) = &mut self.pool {
            pool.sync(bot, progress.cloud_running);
        }
        let Some(&strategy) = self.strategies.get(&bot.0) else {
            return CloudAction::None; // monitored but no QoS ordered
        };
        let action = self.scheduler.tick(
            bot,
            progress,
            &self.info,
            &mut self.oracle,
            &mut self.credits,
            strategy,
            tick_hours,
        );
        let action = match action {
            CloudAction::Start(want) if self.pool.is_some() => {
                let granted = self.arbitrate(bot, want);
                let m = self.tenants.entry(bot.0).or_default();
                m.requested += u64::from(want);
                m.granted += u64::from(granted);
                m.denied += u64::from(want - granted);
                if granted < want {
                    if granted == 0 {
                        m.throttled_ticks += 1;
                    }
                    // A denied or partial grant must not consume the
                    // Scheduler's size-the-fleet-once budget: the tenant
                    // re-requests on later ticks, so capacity freed by
                    // other tenants is eventually put to work
                    // (work conservation) instead of idling.
                    self.scheduler.reset_start(bot);
                    self.log.push((
                        progress.now,
                        LogEvent::Throttled {
                            bot,
                            requested: want,
                            granted,
                        },
                    ));
                }
                if granted == 0 {
                    CloudAction::None
                } else {
                    CloudAction::Start(granted)
                }
            }
            other => other,
        };
        match action {
            CloudAction::Start(n) => {
                self.log
                    .push((progress.now, LogEvent::StartCloudWorkers { bot, count: n }));
            }
            CloudAction::StopAll => {
                if let Some(pool) = &mut self.pool {
                    pool.release(bot);
                }
                self.log
                    .push((progress.now, LogEvent::StopCloudWorkers { bot }));
            }
            CloudAction::None => {}
        }
        action
    }

    /// Fair-share arbitration over the shared pool (pooled services only):
    /// the tenant's share is `capacity × remaining_i / Σ remaining`,
    /// rounded down — or up for tenants with positive net favor in
    /// [`SpeQuloS::favors`], the network-of-favors tie-breaker — and never
    /// below one worker. The grant extends the tenant's lease by at most
    /// `share − leased`, bounded by what the pool has left. Returns the
    /// workers granted (and leases them).
    fn arbitrate(&mut self, bot: BotId, want: u32) -> u32 {
        let Some(pool) = self.pool.as_mut() else {
            return want;
        };
        let total = self.credits.open_remaining();
        let remaining = self.credits.remaining(bot);
        let capacity = pool.capacity();
        // The Scheduler emits Start only while `has_credits` holds, so the
        // requesting order — and hence the sum over open orders — always
        // has credits remaining.
        debug_assert!(
            remaining > 0.0 && total >= remaining,
            "Start without credits"
        );
        let raw = f64::from(capacity) * remaining / total;
        let favored = self
            .users
            .get(&bot.0)
            .map(|&u| self.favors.net_favor(u) > 0.0)
            .unwrap_or(false);
        let rounded = if favored { raw.ceil() } else { raw.floor() };
        let share = (rounded as u32).max(1);
        let headroom = share.saturating_sub(pool.leased(bot));
        let granted = want.min(headroom).min(pool.available());
        if granted > 0 {
            pool.grant(bot, granted);
        }
        granted
    }

    /// BoT completion: archives the execution, closes the order (refunding
    /// unspent credits), returns any pool lease, books the tenant's cloud
    /// consumption into the favors ledger, and clears per-BoT state.
    pub fn on_complete(&mut self, bot: BotId, now: SimTime) {
        self.info.mark_complete(bot, now);
        self.log.push((now, LogEvent::Completed { bot }));
        self.oracle.forget(bot);
        self.scheduler.forget(bot);
        if let Some(pool) = &mut self.pool {
            pool.release(bot);
        }
        let spent = self.credits.spent(bot);
        if let Ok(refund) = self.credits.pay(bot) {
            self.log.push((now, LogEvent::Paid { bot, refund }));
            if self.pool.is_some() && spent > 0.0 {
                if let Some(&user) = self.users.get(&bot.0) {
                    self.favors
                        .record_consumption(user, spent / crate::credit::CREDITS_PER_CPU_HOUR);
                }
            }
        }
    }

    /// The protocol log (Fig. 3).
    pub fn log(&self) -> &[(SimTime, LogEvent)] {
        &self.log
    }

    /// The strategy selected for a BoT, if QoS was ordered.
    pub fn strategy(&self, bot: BotId) -> Option<StrategyCombo> {
        self.strategies.get(&bot.0).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::credit::CREDITS_PER_CPU_HOUR;

    fn progress(now_s: u64, size: u32, completed: u32, cloud: u32) -> BotProgress {
        BotProgress {
            now: SimTime::from_secs(now_s),
            size,
            completed,
            dispatched: size,
            queued: 0,
            running: size - completed,
            cloud_running: cloud,
        }
    }

    #[test]
    fn full_protocol_cycle() {
        let mut spq = SpeQuloS::new();
        let user = UserId(1);
        spq.credits.deposit(user, 1000.0);

        let bot = spq.register_qos("seti/XWHEP/SMALL", 100, user, SimTime::ZERO);
        spq.order_qos(bot, 150.0, StrategyCombo::paper_default(), SimTime::ZERO)
            .expect("credits available");
        assert_eq!(spq.credits.balance(user), 850.0);

        // Steady progress; no cloud action yet.
        for i in 1..=89u64 {
            let a = spq.on_progress(bot, &progress(i * 60, 100, i as u32, 0), 1.0 / 60.0);
            assert_eq!(a, CloudAction::None, "tick {i}");
        }
        // Prediction mid-run.
        let p = spq.predict(bot, SimTime::from_secs(3000)).expect("r > 0");
        assert!(p.completion_secs > 0.0);

        // 90% completion triggers the fleet.
        let a = spq.on_progress(bot, &progress(5400, 100, 90, 0), 1.0 / 60.0);
        let CloudAction::Start(n) = a else {
            panic!("expected Start, got {a:?}");
        };
        assert!(n >= 1);

        // Billing while running.
        let spent0 = spq.credits.spent(bot);
        let _ = spq.on_progress(bot, &progress(5460, 100, 95, n), 1.0 / 60.0);
        assert!(spq.credits.spent(bot) > spent0);

        // Completion: stop + pay + refund.
        let a = spq.on_progress(bot, &progress(5520, 100, 100, n), 1.0 / 60.0);
        assert_eq!(a, CloudAction::StopAll);
        spq.on_complete(bot, SimTime::from_secs(5520));
        assert!(spq.credits.balance(user) > 850.0, "refund returned");
        assert_eq!(spq.info().history("seti/XWHEP/SMALL").len(), 1);

        // Log contains the Fig. 3 protocol sequence in order.
        let kinds: Vec<&'static str> = spq
            .log()
            .iter()
            .map(|(_, e)| match e {
                LogEvent::RegisterQos { .. } => "register",
                LogEvent::OrderQos { .. } => "order",
                LogEvent::Predicted { .. } => "predict",
                LogEvent::StartCloudWorkers { .. } => "start",
                LogEvent::StopCloudWorkers { .. } => "stop",
                LogEvent::Completed { .. } => "complete",
                LogEvent::Paid { .. } => "pay",
                LogEvent::Throttled { .. } => "throttle",
            })
            .collect();
        let order = [
            "register", "order", "predict", "start", "stop", "complete", "pay",
        ];
        let mut last = 0;
        for k in order {
            let pos = kinds
                .iter()
                .position(|&x| x == k)
                .unwrap_or_else(|| panic!("{k} missing"));
            assert!(pos >= last, "{k} out of order");
            last = pos;
        }
    }

    #[test]
    fn monitoring_without_order_is_passive() {
        let mut spq = SpeQuloS::new();
        let bot = spq.register_qos("env", 10, UserId(2), SimTime::ZERO);
        let a = spq.on_progress(bot, &progress(60, 10, 9, 0), 1.0 / 60.0);
        assert_eq!(a, CloudAction::None);
        assert_eq!(spq.strategy(bot), None);
    }

    /// A pooled service with `n` funded tenants, each with an admitted
    /// order of `credits`.
    fn pooled(capacity: u32, n: u64, credits: f64) -> (SpeQuloS, Vec<BotId>) {
        let mut spq = SpeQuloS::with_pool(capacity);
        let mut bots = vec![];
        for i in 0..n {
            let user = UserId(i);
            spq.credits.deposit(user, credits);
            let bot = spq.register_qos("env", 100, user, SimTime::ZERO);
            spq.order_qos(bot, credits, StrategyCombo::paper_default(), SimTime::ZERO)
                .expect("admitted");
            bots.push(bot);
        }
        (spq, bots)
    }

    #[test]
    fn admission_control_rejects_oversubscription() {
        // Pool of 2 workers: the third concurrent order is refused, keeps
        // its credits, and is admitted once an earlier BoT completes.
        let (mut spq, bots) = pooled(2, 2, 100.0);
        let late = UserId(9);
        spq.credits.deposit(late, 100.0);
        let b3 = spq.register_qos("env", 100, late, SimTime::ZERO);
        assert_eq!(
            spq.order_qos(b3, 100.0, StrategyCombo::paper_default(), SimTime::ZERO),
            Err(CreditError::PoolSaturated)
        );
        assert_eq!(spq.credits.balance(late), 100.0, "credits kept");
        assert_eq!(spq.strategy(b3), None);

        // Tenant 0 completes → a slot frees → the retry is admitted.
        spq.on_complete(bots[0], SimTime::from_secs(60));
        spq.order_qos(
            b3,
            100.0,
            StrategyCombo::paper_default(),
            SimTime::from_secs(60),
        )
        .expect("slot freed by completion");
    }

    #[test]
    fn concurrent_orders_cannot_exceed_the_pool() {
        // Both tenants hit the trigger on the same tick wanting 10 workers
        // each from a pool of 8: grants must sum to ≤ 8 and respect the
        // credit-proportional split (equal credits → 4 each).
        let (mut spq, bots) = pooled(8, 2, 150.0);
        let p = progress(7200, 100, 90, 0);
        let a0 = spq.on_progress(bots[0], &p, 1.0 / 60.0);
        let a1 = spq.on_progress(bots[1], &p, 1.0 / 60.0);
        let granted = |a| match a {
            CloudAction::Start(n) => n,
            _ => 0,
        };
        assert_eq!(granted(a0), 4);
        assert_eq!(granted(a1), 4);
        let pool = spq.pool().expect("pooled");
        assert_eq!(pool.in_use(), 8);
        assert_eq!(pool.peak_in_use(), 8);
        assert!(pool.in_use() <= pool.capacity());
        let m = spq.tenant_metrics(bots[0]);
        assert_eq!(m.requested, 10);
        assert_eq!(m.granted, 4);
        assert_eq!(m.denied, 6);
        assert!(spq.log().iter().any(|(_, e)| matches!(
            e,
            LogEvent::Throttled {
                requested: 10,
                granted: 4,
                ..
            }
        )));
    }

    #[test]
    fn fair_share_follows_remaining_credits() {
        // Tenant 0 provisioned 3× the credits of tenant 1: with a pool of
        // 8 it is entitled to 6 workers, tenant 1 to 2.
        let mut spq = SpeQuloS::with_pool(8);
        let mut bots = vec![];
        for (i, credits) in [(0u64, 300.0), (1, 100.0)] {
            let user = UserId(i);
            spq.credits.deposit(user, credits);
            let bot = spq.register_qos("env", 100, user, SimTime::ZERO);
            spq.order_qos(bot, credits, StrategyCombo::paper_default(), SimTime::ZERO)
                .unwrap();
            bots.push(bot);
        }
        let p = progress(7200, 100, 90, 0);
        let CloudAction::Start(n0) = spq.on_progress(bots[0], &p, 1.0 / 60.0) else {
            panic!("tenant 0 should start");
        };
        let CloudAction::Start(n1) = spq.on_progress(bots[1], &p, 1.0 / 60.0) else {
            panic!("tenant 1 should start");
        };
        assert_eq!(n0, 6);
        assert_eq!(n1, 2);
    }

    #[test]
    fn favor_ledger_breaks_rounding_ties() {
        // Three equal tenants over a pool of 8: shares are 8/3 = 2.67 →
        // floor 2, but a tenant with positive net favor rounds up to 3.
        let (mut spq, bots) = pooled(8, 3, 150.0);
        spq.favors.record_donation(UserId(1), 5.0);
        let p = progress(7200, 100, 90, 0);
        let grants: Vec<u32> = bots
            .iter()
            .map(|&b| match spq.on_progress(b, &p, 1.0 / 60.0) {
                CloudAction::Start(n) => n,
                _ => 0,
            })
            .collect();
        assert_eq!(grants, vec![2, 3, 2], "donor rounds up");
        assert!(spq.pool().unwrap().in_use() <= 8);
    }

    #[test]
    fn denied_tenant_retries_and_recovers_capacity() {
        // Tenant 0 triggers while alone and takes the whole pool. Tenant 1
        // arrives later, is denied in full (its share is entirely leased
        // out), but must not be starved: when tenant 0 completes, the
        // freed capacity goes to tenant 1 on its next tick.
        let (mut spq, bots) = pooled(4, 1, 1500.0);
        let p = progress(7200, 100, 90, 0);
        let CloudAction::Start(4) = spq.on_progress(bots[0], &p, 1.0 / 60.0) else {
            panic!("lone tenant takes the pool");
        };
        let late = UserId(9);
        spq.credits.deposit(late, 1500.0);
        let b1 = spq.register_qos("env", 100, late, SimTime::from_secs(7200));
        spq.order_qos(
            b1,
            1500.0,
            StrategyCombo::paper_default(),
            SimTime::from_secs(7200),
        )
        .expect("one open order of four: admitted");
        // Tenant 1 triggers: pool exhausted ⇒ denial, no Start.
        spq.info.sample(b1, &p); // it needs a progress history to trigger
        let a1 = spq.on_progress(b1, &progress(7260, 100, 90, 0), 1.0 / 60.0);
        assert_eq!(a1, CloudAction::None);
        assert_eq!(spq.tenant_metrics(b1).throttled_ticks, 1);

        // Tenant 0 completes; its lease returns to the pool.
        spq.on_complete(bots[0], SimTime::from_secs(7320));
        assert_eq!(spq.pool().unwrap().in_use(), 0);

        // Tenant 1 retries on its next tick and now gets workers.
        let CloudAction::Start(n) = spq.on_progress(b1, &progress(7380, 100, 90, 0), 1.0 / 60.0)
        else {
            panic!("retry after denial must succeed once capacity frees");
        };
        assert!(n >= 1);
    }

    #[test]
    fn partial_grant_tops_up_when_capacity_frees() {
        // Work conservation: a tenant cut short by fair share keeps
        // re-requesting, so capacity returned by a finishing tenant is put
        // to work instead of idling for the rest of the run.
        let (mut spq, bots) = pooled(8, 2, 150.0);
        let p = progress(7200, 100, 90, 0);
        // Equal credits → share 4 each; both want 10, get 4.
        let CloudAction::Start(4) = spq.on_progress(bots[0], &p, 1.0 / 60.0) else {
            panic!("expected fair-share grant");
        };
        let CloudAction::Start(4) = spq.on_progress(bots[1], &p, 1.0 / 60.0) else {
            panic!("expected fair-share grant");
        };
        // Tenant 1 completes and returns its lease …
        spq.on_complete(bots[1], SimTime::from_secs(7260));
        assert_eq!(spq.pool().unwrap().in_use(), 4);
        // … so tenant 0's next tick tops its fleet up to its (now larger)
        // share instead of staying frozen at 4 workers.
        let CloudAction::Start(n) =
            spq.on_progress(bots[0], &progress(7320, 100, 92, 4), 1.0 / 60.0)
        else {
            panic!("partial grant must be re-requested once capacity frees");
        };
        assert!(n >= 1, "top-up grant expected");
        let pool = spq.pool().unwrap();
        assert!(pool.in_use() <= pool.capacity());
    }

    #[test]
    fn completion_books_cloud_consumption_as_favor_debt() {
        let (mut spq, bots) = pooled(4, 1, 150.0);
        spq.favors.record_donation(UserId(0), 10.0);
        let p = progress(7200, 100, 90, 0);
        assert!(matches!(
            spq.on_progress(bots[0], &p, 1.0 / 60.0),
            CloudAction::Start(_)
        ));
        // Bill a tick with 4 running workers, then complete.
        let _ = spq.on_progress(bots[0], &progress(7260, 100, 95, 4), 1.0 / 60.0);
        let spent = spq.credits.spent(bots[0]);
        assert!(spent > 0.0);
        spq.on_complete(bots[0], SimTime::from_secs(7320));
        let expected = 10.0 - spent / CREDITS_PER_CPU_HOUR;
        assert!((spq.favors.net_favor(UserId(0)) - expected).abs() < 1e-9);
    }

    #[test]
    fn unpooled_service_never_throttles() {
        // The single-tenant configuration must not even touch the arbiter:
        // no Throttled events, no tenant metrics, full grants.
        let mut spq = SpeQuloS::new();
        let user = UserId(1);
        spq.credits.deposit(user, 1500.0);
        let bot = spq.register_qos("env", 100, user, SimTime::ZERO);
        spq.order_qos(bot, 1500.0, StrategyCombo::paper_default(), SimTime::ZERO)
            .unwrap();
        let a = spq.on_progress(bot, &progress(7200, 100, 90, 0), 1.0 / 60.0);
        assert!(matches!(a, CloudAction::Start(_)));
        assert!(spq.pool().is_none());
        assert_eq!(spq.tenant_metrics(bot), TenantMetrics::default());
        assert!(!spq
            .log()
            .iter()
            .any(|(_, e)| matches!(e, LogEvent::Throttled { .. })));
    }

    #[test]
    fn builder_swaps_in_the_deadline_policy() {
        use crate::scheduler::GreedyUntilTc;

        // A service assembled with the deadline-aware policy bursts as
        // soon as the BoT is projected to miss its target — long before
        // the paper's 90% trigger would fire.
        let mut spq = SpeQuloS::builder()
            .policy(GreedyUntilTc::new(SimDuration::from_hours(1)))
            .build();
        let user = UserId(1);
        spq.credits.deposit(user, 1500.0);
        let bot = spq.register_qos("env", 100, user, SimTime::ZERO);
        spq.order_qos(bot, 1500.0, StrategyCombo::paper_default(), SimTime::ZERO)
            .unwrap();
        // t = 30 min, 10% done → projected completion 5 h ≫ 1 h target.
        let p = progress(1800, 100, 10, 0);
        let a = spq.on_progress(bot, &p, 1.0 / 60.0);
        let CloudAction::Start(n) = a else {
            panic!("deadline policy must burst early, got {a:?}");
        };
        assert_eq!(n, 100, "greedy: the whole 100 CPU·h order at once");
        assert!(spq.scheduler.cloud_started(bot));

        // The paper's default policy sees the same snapshot and does
        // nothing — the seam, not the data, changed the behaviour.
        let mut paper = SpeQuloS::new();
        paper.credits.deposit(user, 1500.0);
        let b = paper.register_qos("env", 100, user, SimTime::ZERO);
        paper
            .order_qos(b, 1500.0, StrategyCombo::paper_default(), SimTime::ZERO)
            .unwrap();
        assert_eq!(paper.on_progress(b, &p, 1.0 / 60.0), CloudAction::None);
    }

    #[test]
    fn multiple_bots_are_independent() {
        let mut spq = SpeQuloS::new();
        let u1 = UserId(1);
        let u2 = UserId(2);
        spq.credits.deposit(u1, 100.0);
        spq.credits.deposit(u2, 100.0);
        let b1 = spq.register_qos("envA", 10, u1, SimTime::ZERO);
        let b2 = spq.register_qos("envB", 10, u2, SimTime::ZERO);
        assert_ne!(b1, b2);
        spq.order_qos(b1, 50.0, StrategyCombo::paper_default(), SimTime::ZERO)
            .unwrap();
        // b2 has no order; progress on b2 never starts workers.
        let a = spq.on_progress(b2, &progress(60, 10, 9, 0), 1.0 / 60.0);
        assert_eq!(a, CloudAction::None);
        assert_eq!(spq.credits.balance(u2), 100.0);
    }
}
