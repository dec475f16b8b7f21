//! Execution plumbing shared by every run mode: the protocol-driven QoS
//! hooks bridging the simulator to any [`SpqService`] endpoint, and the
//! per-run metric types.
//!
//! Since the transport redesign the hooks do not touch a [`SpeQuloS`]
//! directly: each monitoring tick becomes a `Request::ReportProgress`
//! through [`SpqService::handle`], and each returned `Response::Action`
//! becomes a simulator [`CloudCommand`]. The endpoint is a type
//! parameter, so the *same* hook drives
//!
//! * a local [`SpeQuloS`] (single-tenant runs),
//! * a [`Shared`] service — one in-process instance shared by many tenants,
//! * a `spq-server` `RemoteService` — the service behind loopback/LAN TCP,
//! * or any `&mut dyn SpqService` (the blanket impls in
//!   `spequlos::protocol` make references and boxes endpoints too).
//!
//! Runs are driven through [`Experiment`](crate::Experiment)
//! (`Experiment::new(scenario).paired().run()`); the pre-builder free
//! functions (`run_baseline` & co.) were removed after a deprecation
//! cycle — see the README migration table.

use crate::scenario::Scenario;
use botwork::{generate, Bot, BotId};
use dgrid::{CloudCommand, CloudUsage, QosHook, TickView};
use simcore::{SimDuration, SimTime, TimeSeries};
use spequlos::protocol::{Request, Response, SpqService};
use spequlos::{
    tail_stats, BotProgress, CloudAction, SpeQuloS, StrategyCombo, TailStats, TenantMetrics, UserId,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Translates the simulator's tick view into the protocol's progress
/// snapshot (the only data that crosses the monitoring boundary, §3.2).
fn progress_of(view: &TickView) -> BotProgress {
    BotProgress {
        now: view.now,
        size: view.bot_size,
        completed: view.completed,
        dispatched: view.dispatched,
        queued: view.ready,
        running: view.running,
        cloud_running: view.cloud_running,
    }
}

/// Maps a protocol response onto the simulator command for this tick.
/// Anything but an explicit `Action` — including transport errors from a
/// remote endpoint — means "touch nothing": the hook contract forbids
/// panicking mid-simulation.
fn command_of(response: Response) -> CloudCommand {
    match response {
        Response::Action { action, .. } => match action {
            CloudAction::None => CloudCommand::None,
            CloudAction::Start(n) => CloudCommand::Start(n),
            CloudAction::StopAll => CloudCommand::StopAll,
        },
        _ => CloudCommand::None,
    }
}

/// Adapter: drives one BoT's QoS through a protocol endpoint from the
/// simulator's hook seam. Generic over the endpoint (see the
/// [module docs](self)); `SpqHook` with no parameter is the plain local
/// service.
pub struct SpqHook<S: SpqService = SpeQuloS> {
    /// The protocol endpoint (recovered after the run — for a local
    /// service this carries billing/archive/favor state).
    pub service: S,
    bot: BotId,
    /// Ask the Oracle for a completion-time prediction once this
    /// completion ratio is reached (the `getQoSInformation` arrow of
    /// Fig. 3; also what Table 4 scores).
    predict_at: Option<f64>,
    predicted: bool,
    billing: Option<(f64, f64)>,
}

impl<S: SpqService> SpqHook<S> {
    /// Wraps an endpoint around one registered BoT; a prediction is
    /// requested once at 50% completion, as in the paper's evaluation.
    pub fn new(service: S, bot: BotId) -> Self {
        SpqHook {
            service,
            bot,
            predict_at: Some(0.5),
            predicted: false,
            billing: None,
        }
    }

    /// The BoT this hook monitors.
    pub fn bot(&self) -> BotId {
        self.bot
    }

    /// Credits billed against the BoT's order, from the `Completed`
    /// billing summary (0 before the run finished).
    pub fn spent(&self) -> f64 {
        self.billing.map(|(spent, _)| spent).unwrap_or(0.0)
    }

    /// Unspent credits refunded at `pay` time (0 before the run
    /// finished).
    pub fn refund(&self) -> f64 {
        self.billing.map(|(_, refund)| refund).unwrap_or(0.0)
    }

    /// Consumes the hook, returning the endpoint.
    pub fn into_service(self) -> S {
        self.service
    }
}

impl<S: SpqService> QosHook for SpqHook<S> {
    fn on_tick(&mut self, view: &TickView) -> CloudCommand {
        let progress = progress_of(view);
        if let Some(ratio) = self.predict_at {
            if !self.predicted && progress.completion_ratio() >= ratio {
                self.predicted = true;
                let _ = self
                    .service
                    .handle(Request::Predict { bot: self.bot }, view.now);
            }
        }
        command_of(self.service.handle(
            Request::ReportProgress {
                bot: self.bot,
                progress,
            },
            view.now,
        ))
    }

    fn on_finish(&mut self, now: SimTime) {
        if let Response::Completed { spent, refund, .. } = self
            .service
            .handle(Request::Complete { bot: self.bot }, now)
        {
            self.billing = Some((spent, refund));
        }
    }
}

/// An in-process endpoint many hooks can share: one service — a
/// [`SpeQuloS`], or a [`RoutedService`](crate::RoutedService) of several —
/// behind `Rc<RefCell>`, one handle per tenant. The single-threaded
/// interleaved driver ([`dgrid::run_many`]) calls at most one hook at a
/// time, so the `borrow_mut` in [`SpqService::handle`] never contends.
#[derive(Debug)]
pub struct Shared<S>(Rc<RefCell<S>>);

impl<S> Shared<S> {
    /// Wraps a service for sharing; [`Shared::clone`] hands out further
    /// endpoints to the same instance.
    pub fn new(service: S) -> Self {
        Shared(Rc::new(RefCell::new(service)))
    }

    /// Recovers the service once every clone is dropped; `Err(self)`
    /// while other endpoints are still alive.
    pub fn into_inner(self) -> Result<S, Shared<S>> {
        Rc::try_unwrap(self.0)
            .map(RefCell::into_inner)
            .map_err(Shared)
    }
}

impl<S> Clone for Shared<S> {
    fn clone(&self) -> Self {
        Shared(Rc::clone(&self.0))
    }
}

impl<S: SpqService> SpqService for Shared<S> {
    fn handle(&mut self, request: Request, now: SimTime) -> Response {
        self.0.borrow_mut().handle(request, now)
    }
}

/// Shared transcript sink for [`SessionRecorder`]: the `(service time,
/// request)` pairs in exact service-arrival order. `Arc<Mutex<…>>`
/// rather than `Rc` so experiments carrying a sink stay `Send` for the
/// sweep runner.
pub type SessionSink = std::sync::Arc<std::sync::Mutex<Vec<(SimTime, Request)>>>;

/// An endpoint wrapper that records every request it forwards — the seam
/// the durability tests use to capture a full experiment transcript and
/// feed it through the write-ahead log ([`spequlos::wal`]).
///
/// All endpoints of one run share a single [`SessionSink`]; because the
/// simulator drives tenants on one thread (and remote endpoints answer
/// one request per call), the recording order *is* the order the service
/// observed — replaying the sink into an identically configured fresh
/// service reproduces the final state bit-for-bit.
///
/// ```
/// use simcore::SimTime;
/// use spequlos::protocol::{Request, SpqService};
/// use spequlos::{SpeQuloS, UserId};
/// use spq_harness::{SessionRecorder, SessionSink};
///
/// let sink = SessionSink::default();
/// let mut endpoint = SessionRecorder::new(SpeQuloS::new(), sink.clone());
/// let deposit = Request::Deposit { user: UserId(1), credits: 10.0 };
/// endpoint.handle(deposit.clone(), SimTime::ZERO);
/// assert_eq!(*sink.lock().unwrap(), [(SimTime::ZERO, deposit)]);
/// ```
#[derive(Debug)]
pub struct SessionRecorder<S> {
    inner: S,
    sink: SessionSink,
}

impl<S> SessionRecorder<S> {
    /// Wraps `inner`, recording into `sink` (shared across endpoints).
    pub fn new(inner: S, sink: SessionSink) -> Self {
        SessionRecorder { inner, sink }
    }

    /// Unwraps the endpoint, leaving the transcript in the sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: SpqService> SpqService for SessionRecorder<S> {
    fn handle(&mut self, request: Request, now: SimTime) -> Response {
        self.sink
            .lock()
            .expect("session sink poisoned")
            .push((now, request.clone()));
        self.inner.handle(request, now)
    }
}

/// Everything measured about one executed scenario.
#[derive(Clone, Debug)]
pub struct ExecutionMetrics {
    /// Environment label (`trace/middleware/class`).
    pub env: String,
    /// Strategy used (`None` = baseline).
    pub strategy: Option<StrategyCombo>,
    /// Seed.
    pub seed: u64,
    /// Whether the BoT completed within the simulation cap.
    pub completed: bool,
    /// Completion time in seconds (cap value if not completed).
    pub completion_secs: f64,
    /// Tail statistics (requires completion past the 90% mark).
    pub tail: Option<TailStats>,
    /// Credits provisioned for the run (0 for baselines).
    pub credits_provisioned: f64,
    /// Credits actually spent.
    pub credits_spent: f64,
    /// Cloud usage counters.
    pub cloud: CloudUsage,
    /// Simulation events processed.
    pub events: u64,
    /// Completed-count time series (for `tc(x)` and predictions).
    pub completed_series: TimeSeries,
    /// BoT size.
    pub bot_size: u32,
    /// Fraction of completed work executed in the cloud.
    pub cloud_work_fraction: f64,
}

impl ExecutionMetrics {
    /// `tc(x)`: time at which fraction `x` of the BoT was complete.
    pub fn tc(&self, x: f64) -> Option<SimTime> {
        self.completed_series
            .time_to_reach(x * self.bot_size as f64)
    }
}

/// Generates the BoT of a scenario (deterministic in `(class, seed)`).
pub fn bot_of(scenario: &Scenario) -> Bot {
    generate(scenario.class, BotId(0), scenario.seed)
}

pub(crate) fn metrics_from(
    scenario: &Scenario,
    result: &dgrid::RunResult,
    credits_provisioned: f64,
    credits_spent: f64,
    bot_size: u32,
) -> ExecutionMetrics {
    let completion = result
        .completion_time
        .unwrap_or(SimTime::ZERO + scenario.max_sim_time);
    let tail = result
        .completion_time
        .and_then(|t| tail_stats(&result.completed_series, &result.completion_times, t));
    ExecutionMetrics {
        env: scenario.env(),
        strategy: scenario.strategy,
        seed: scenario.seed,
        completed: result.completed,
        completion_secs: completion.as_secs_f64(),
        tail,
        credits_provisioned,
        credits_spent,
        cloud: result.cloud,
        events: result.events,
        completed_series: result.completed_series.clone(),
        bot_size,
        cloud_work_fraction: result.cloud_work_fraction(),
    }
}

/// A seed-paired baseline + SpeQuloS comparison (§4.2.1: "using the same
/// seed value allows a fair comparison").
#[derive(Clone, Debug)]
pub struct PairedRun {
    /// The run without SpeQuloS.
    pub baseline: ExecutionMetrics,
    /// The run with SpeQuloS.
    pub speq: ExecutionMetrics,
    /// Tail Removal Efficiency (`None` if the baseline had no tail or
    /// either run did not complete).
    pub tre: Option<f64>,
    /// Completion-time speed-up `t_baseline / t_speq`.
    pub speedup: f64,
}

/// QoS adapter for one tenant of a shared service: like [`SpqHook`] but
/// the order is deferred. The BoT is registered up front (at its
/// submission time, so the Oracle's elapsed-time estimates are anchored
/// correctly), but the `orderQoS` request is sent at the first
/// monitoring tick at or after the tenant's arrival — admission control
/// therefore sees the pool as it is *then*, so an order rejected at a
/// busy moment differs from one arriving after earlier tenants completed
/// and freed their slots.
///
/// Generic over the endpoint: [`Shared`] clones for the in-process
/// multi-tenant run, one `RemoteService` connection per tenant when the
/// shared service lives behind `spq-server`.
pub struct SharedSpqHook<S: SpqService = Shared<SpeQuloS>> {
    service: S,
    bot: BotId,
    submit_at: SimTime,
    credits: f64,
    strategy: StrategyCombo,
    /// Admission-control verdict, once the order was placed.
    admitted: Option<bool>,
    billing: Option<(f64, f64)>,
}

impl<S: SpqService> SharedSpqHook<S> {
    /// A tenant whose (already registered) BoT `bot` arrives at
    /// `submit_at`, ordering `credits` of QoS under `strategy`.
    pub fn new(
        service: S,
        bot: BotId,
        submit_at: SimTime,
        credits: f64,
        strategy: StrategyCombo,
    ) -> Self {
        SharedSpqHook {
            service,
            bot,
            submit_at,
            credits,
            strategy,
            admitted: None,
            billing: None,
        }
    }

    /// The tenant's BoT id.
    pub fn bot(&self) -> BotId {
        self.bot
    }

    /// Whether the QoS order passed admission control (`None` before the
    /// order was placed).
    pub fn admitted(&self) -> Option<bool> {
        self.admitted
    }

    /// Credits billed against the tenant's order, from the `Completed`
    /// billing summary (0 before the run finished).
    pub fn spent(&self) -> f64 {
        self.billing.map(|(spent, _)| spent).unwrap_or(0.0)
    }

    /// Consumes the hook, returning the endpoint.
    pub fn into_service(self) -> S {
        self.service
    }
}

impl<S: SpqService> QosHook for SharedSpqHook<S> {
    fn on_tick(&mut self, view: &TickView) -> CloudCommand {
        if self.admitted.is_none() {
            if view.now < self.submit_at {
                return CloudCommand::None; // tenant has not arrived yet
            }
            let verdict = self.service.handle(
                Request::OrderQos {
                    bot: self.bot,
                    credits: self.credits,
                    strategy: Some(self.strategy),
                },
                view.now,
            );
            self.admitted = Some(matches!(verdict, Response::Ordered { .. }));
        }
        command_of(self.service.handle(
            Request::ReportProgress {
                bot: self.bot,
                progress: progress_of(view),
            },
            view.now,
        ))
    }

    fn on_finish(&mut self, now: SimTime) {
        if let Response::Completed { spent, refund, .. } = self
            .service
            .handle(Request::Complete { bot: self.bot }, now)
        {
            self.billing = Some((spent, refund));
        }
    }
}

/// Everything measured about one tenant of a multi-tenant run.
#[derive(Clone, Debug)]
pub struct TenantOutcome {
    /// Tenant index (0-based).
    pub tenant: u32,
    /// The tenant's user account.
    pub user: UserId,
    /// The BoT id the service assigned.
    pub bot: BotId,
    /// Whether the QoS order passed admission control.
    pub admitted: bool,
    /// Submission offset on the shared clock.
    pub offset: SimDuration,
    /// Per-execution metrics (same shape as single-tenant runs).
    pub metrics: ExecutionMetrics,
    /// The arbiter's per-tenant counters.
    pub qos: TenantMetrics,
}

/// Result of a multi-tenant run
/// ([`Experiment::run_multi_tenant`](crate::Experiment::run_multi_tenant)).
#[derive(Clone, Debug)]
pub struct MultiTenantReport {
    /// Per-tenant outcomes, in tenant order.
    pub tenants: Vec<TenantOutcome>,
    /// Configured pool capacity.
    pub pool_capacity: u32,
    /// High-water mark of leased cloud workers across all tenants. On an
    /// unsharded run this is by construction never above
    /// `pool_capacity`; on a sharded run
    /// ([`Experiment::shards`](crate::Experiment::shards)) it is the sum
    /// of per-shard peaks — an upper bound on concurrent use, which may
    /// exceed `pool_capacity` because quotas move between the peaks.
    pub peak_pool_in_use: u32,
    /// Total simulation events across all tenants.
    pub events: u64,
    /// The final service state (credit accounts, archive, favors
    /// ledger). On a sharded run, shard 0; the rest are in
    /// [`MultiTenantReport::extra_shards`].
    pub service: SpeQuloS,
    /// Shards 1.. of a sharded run, in shard order (empty otherwise).
    pub extra_shards: Vec<SpeQuloS>,
}

impl MultiTenantReport {
    /// Tenants whose QoS order was admitted.
    pub fn admitted(&self) -> impl Iterator<Item = &TenantOutcome> {
        self.tenants.iter().filter(|t| t.admitted)
    }

    /// Every shard's final service, in shard order — `[service]` itself
    /// on an unsharded run.
    pub fn shard_services(&self) -> impl Iterator<Item = &SpeQuloS> {
        std::iter::once(&self.service).chain(self.extra_shards.iter())
    }

    /// Number of shards the run partitioned state into (1 = unsharded).
    pub fn shards(&self) -> u32 {
        1 + self.extra_shards.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spequlos::protocol::RequestError;

    fn view(secs: u64, done: u32) -> TickView {
        TickView {
            now: SimTime::from_secs(secs),
            bot_size: 100,
            arrived: 100,
            completed: done,
            dispatched: 100,
            ready: 0,
            running: 100 - done,
            cloud_running: 0,
        }
    }

    /// An endpoint that answers everything with a transport error — the
    /// worst a remote connection can degrade to.
    #[derive(Debug)]
    struct DeadEndpoint;

    impl SpqService for DeadEndpoint {
        fn handle(&mut self, _request: Request, _now: SimTime) -> Response {
            Response::Error(RequestError::Transport("gone".into()))
        }
    }

    #[test]
    fn hooks_swallow_endpoint_failures_as_no_commands() {
        // The QosHook contract: never panic mid-simulation, whatever the
        // endpoint does. A dead transport degrades to "no cloud".
        let mut hook = SpqHook::new(DeadEndpoint, BotId(0));
        assert_eq!(hook.on_tick(&view(60, 10)), CloudCommand::None);
        hook.on_finish(SimTime::from_secs(120));
        assert_eq!(hook.spent(), 0.0);

        let mut shared = SharedSpqHook::new(
            DeadEndpoint,
            BotId(0),
            SimTime::ZERO,
            100.0,
            StrategyCombo::paper_default(),
        );
        assert_eq!(shared.on_tick(&view(60, 10)), CloudCommand::None);
        assert_eq!(shared.admitted(), Some(false), "error order = not admitted");
        shared.on_finish(SimTime::from_secs(120));
        assert_eq!(shared.spent(), 0.0);
    }

    #[test]
    fn shared_service_recovers_the_instance_when_unshared() {
        let shared = Shared::new(SpeQuloS::new());
        let clone = shared.clone();
        let still_shared = shared.into_inner().expect_err("a clone is alive");
        drop(clone);
        assert!(still_shared.into_inner().is_ok(), "last handle unwraps");
    }

    #[test]
    fn spq_hook_runs_the_protocol_cycle_against_a_local_service() {
        let mut spq = SpeQuloS::new();
        let user = UserId(1);
        spq.credits.deposit(user, 1_000.0);
        let bot = spq.register_qos("env", 100, user, SimTime::ZERO);
        spq.order_qos(bot, 150.0, StrategyCombo::paper_default(), SimTime::ZERO)
            .expect("funded");
        let mut hook = SpqHook::new(spq, bot);
        for minute in 1..=89u64 {
            assert_eq!(
                hook.on_tick(&view(minute * 60, minute as u32)),
                CloudCommand::None,
                "minute {minute}"
            );
        }
        // The 90% trigger crosses the protocol boundary as a Start.
        let CloudCommand::Start(n) = hook.on_tick(&view(5_400, 90)) else {
            panic!("trigger at 90% must start the fleet");
        };
        assert!(n >= 1);
        hook.on_finish(SimTime::from_secs(5_520));
        let spent = hook.spent();
        let service = hook.into_service();
        assert_eq!(spent, service.credits.spent(bot), "wire == ledger");
        assert!(service.credits.balance(user) > 850.0, "refund returned");
    }
}
