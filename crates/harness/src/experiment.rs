//! The unified experiment API: one builder for every run mode and every
//! transport.
//!
//! Historically the harness exposed four unrelated free functions —
//! `run_baseline`, `run_with_spequlos`, `run_paired`, `run_multi_tenant` —
//! and every repro binary, bench and example wired them up by hand. An
//! [`Experiment`] replaces all four behind one builder:
//!
//! ```
//! use betrace::Preset;
//! use botwork::BotClass;
//! use spequlos::StrategyCombo;
//! use spq_harness::{Experiment, MwKind, Scenario};
//!
//! let mut sc = Scenario::new(Preset::G5kLyon, MwKind::Xwhep, BotClass::Big, 7)
//!     .with_strategy(StrategyCombo::paper_default());
//! sc.scale = 0.3; // shrink the cluster for a quick run
//!
//! // Seed-paired baseline + SpeQuloS comparison (§4.2.1):
//! let paired = Experiment::new(sc.clone()).paired().run_paired();
//! assert!(paired.baseline.completed && paired.speq.completed);
//!
//! // Multi-tenant: 4 concurrent BoTs over a shared 8-worker pool:
//! let report = Experiment::new(sc).tenants(4).pool(8).run_multi_tenant();
//! assert_eq!(report.tenants.len(), 4);
//! ```
//!
//! The run mode is inferred: `.tenants(n)` selects a multi-tenant run,
//! `.paired()` a seed-paired comparison, otherwise the scenario runs alone
//! — with SpeQuloS when it carries a strategy, bare baseline when not.
//! `run()` returns the mode-tagged [`Outcome`]; the typed `run_*`
//! shortcuts skip the match when the mode is statically known.
//!
//! Since the transport redesign the SpeQuloS side of every run is driven
//! through the wire protocol ([`spequlos::protocol`]), so the service can
//! live anywhere:
//!
//! * [`Transport::InProcess`] (default) — the service is a local value,
//!   requests are plain calls;
//! * [`Transport::Loopback`] — the experiment spawns a `spq-server` on
//!   `127.0.0.1`, drives the whole run through `RemoteService`
//!   connections, then shuts the server down and recovers the service.
//!   Results are bit-identical to the in-process transport (pinned by
//!   `tests/remote.rs`);
//! * [`Experiment::run_qos_with`] / [`Experiment::service_dyn`] — bring
//!   your own endpoint (`&mut dyn SpqService` works) for anything beyond
//!   loopback.
//!
//! Where the service lives (transport × [`Experiment::shards`]) and
//! whether its traffic is recorded ([`Experiment::record_into`]) are each
//! decided in exactly one private place — `Experiment::deploy` and
//! `run_on` — so every combination is the same code, not a copy of it.

use crate::routed::RoutedService;
use crate::runner::{
    metrics_from, ExecutionMetrics, MultiTenantReport, PairedRun, SessionRecorder, SessionSink,
    Shared, SharedSpqHook, SpqHook, TenantOutcome,
};
use crate::scenario::{MultiTenantScenario, Scenario, TenantArrivals};
use botwork::{generate, Bot, BotId};
use dgrid::{run_many, GridSim, NoQos};
use simcore::{SimDuration, SimTime};
use spequlos::protocol::{Request, Response, SpqService};
use spequlos::{tail_removal_efficiency, SpeQuloS, StrategyCombo, UserId, CREDITS_PER_CPU_HOUR};
use spq_server::{Codec, RemoteService, Server, ShardConfig, ShardedServer};
use std::net::SocketAddr;

/// Deterministic ledger-rebalance cadence for sharded multi-tenant runs:
/// one [`spequlos::tenancy::PoolLedger::rebalance`] pass per this many
/// handled requests, on both transports — part of what keeps the
/// in-process [`RoutedService`] and the loopback
/// [`ShardedServer`] bit-identical.
const SHARD_REBALANCE_EVERY: u64 = 64;

/// Where the SpeQuloS service lives during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Transport {
    /// The service is an in-process value; protocol requests are plain
    /// method calls. The default.
    #[default]
    InProcess,
    /// The service runs behind a `spq-server` on a loopback TCP port,
    /// spawned and torn down by the experiment; every request crosses
    /// the framed wire through a `RemoteService` connection (one per
    /// tenant in multi-tenant mode). Bit-identical to
    /// [`Transport::InProcess`].
    Loopback,
}

/// A runnable experiment: one scenario plus the run-mode knobs.
///
/// Built with [`Experiment::new`], configured with the chained setters,
/// executed with [`Experiment::run`] (or a typed `run_*` shortcut). See
/// the [module docs](self) for examples and the migration map from the
/// removed free functions.
#[derive(Clone, Debug)]
pub struct Experiment {
    scenario: Scenario,
    paired: bool,
    tenants: Option<u32>,
    pool: Option<u32>,
    shards: u32,
    arrivals: TenantArrivals,
    service: Option<SpeQuloS>,
    transport: Transport,
    codec: Codec,
    record: Option<SessionSink>,
}

/// What an [`Experiment::run`] produced, tagged by run mode.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// A bare BE-DCI execution (no strategy on the scenario).
    Baseline(ExecutionMetrics),
    /// A single QoS-supported execution, with the final service state
    /// (billing, archive, favors).
    Qos {
        /// The execution's metrics.
        metrics: ExecutionMetrics,
        /// The service after the run (boxed: the service carries the
        /// whole execution archive).
        service: Box<SpeQuloS>,
    },
    /// A seed-paired baseline + SpeQuloS comparison.
    Paired(PairedRun),
    /// A multi-tenant run over a shared service and pool.
    MultiTenant(MultiTenantReport),
}

impl Outcome {
    /// The execution metrics of a single-run outcome (the SpeQuloS side
    /// of a paired run).
    ///
    /// # Panics
    /// Panics on a multi-tenant outcome — use [`Outcome::into_multi_tenant`].
    pub fn into_metrics(self) -> ExecutionMetrics {
        match self {
            Outcome::Baseline(m) => m,
            Outcome::Qos { metrics, .. } => metrics,
            Outcome::Paired(p) => p.speq,
            Outcome::MultiTenant(_) => {
                panic!("multi-tenant outcome has per-tenant metrics; use into_multi_tenant()")
            }
        }
    }

    /// The paired comparison.
    ///
    /// # Panics
    /// Panics unless the experiment ran `.paired()`.
    pub fn into_paired(self) -> PairedRun {
        match self {
            Outcome::Paired(p) => p,
            other => panic!("expected a paired outcome, got {}", other.mode_name()),
        }
    }

    /// The multi-tenant report.
    ///
    /// # Panics
    /// Panics unless the experiment ran `.tenants(n)`.
    pub fn into_multi_tenant(self) -> MultiTenantReport {
        match self {
            Outcome::MultiTenant(r) => r,
            other => panic!("expected a multi-tenant outcome, got {}", other.mode_name()),
        }
    }

    fn mode_name(&self) -> &'static str {
        match self {
            Outcome::Baseline(_) => "baseline",
            Outcome::Qos { .. } => "qos",
            Outcome::Paired(_) => "paired",
            Outcome::MultiTenant(_) => "multi-tenant",
        }
    }
}

/// Per-tenant bookkeeping carried from setup to report assembly.
type TenantMeta = (u32, UserId, SimDuration, Scenario, f64, u32);

/// What one tenant's simulation produced, with the endpoint already
/// dropped (so shared in-process services can be unwrapped).
struct TenantRun {
    result: dgrid::RunResult,
    bot: BotId,
    admitted: bool,
    spent: f64,
}

/// A run mode, generic over the endpoints its deployment hands out — a
/// trait because a closure cannot be generic, and the endpoint type
/// differs per deployment (and once more when it is recorded).
trait Drive {
    /// What the run measured, the service's own state aside.
    type Out;

    /// Runs to completion over endpoints from `connect`, dropping every
    /// one of them before returning.
    fn drive<E: SpqService>(self, connect: impl FnMut() -> E) -> Self::Out;
}

/// The single-tenant QoS run of a scenario.
impl Drive for &Scenario {
    type Out = ExecutionMetrics;

    fn drive<E: SpqService>(self, mut connect: impl FnMut() -> E) -> ExecutionMetrics {
        Experiment::drive_qos(self, connect()).0
    }
}

/// The multi-tenant run of a scenario under one strategy.
struct Tenants<'a>(&'a MultiTenantScenario, StrategyCombo);

impl Drive for Tenants<'_> {
    type Out = (Vec<TenantRun>, Vec<TenantMeta>);

    fn drive<E: SpqService>(self, connect: impl FnMut() -> E) -> Self::Out {
        Experiment::drive_multi_tenant(self.0, self.1, connect)
    }
}

/// The one place that decides whether endpoints are recorded: drives
/// `run` over endpoints from `connect`, each inside a [`SessionRecorder`]
/// when the experiment carries a sink.
fn run_on<E: SpqService, R: Drive>(
    mut connect: impl FnMut() -> E,
    record: Option<SessionSink>,
    run: R,
) -> R::Out {
    match record {
        Some(sink) => run.drive(|| SessionRecorder::new(connect(), sink.clone())),
        None => run.drive(connect),
    }
}

fn unshare<S>(shared: Shared<S>) -> S {
    shared
        .into_inner()
        .unwrap_or_else(|_| panic!("all tenant endpoints dropped with their sims"))
}

impl Experiment {
    /// An experiment over one scenario. The run mode defaults to a single
    /// execution — with SpeQuloS when the scenario carries a strategy,
    /// bare baseline otherwise — on the in-process transport.
    pub fn new(scenario: Scenario) -> Self {
        Experiment {
            scenario,
            paired: false,
            tenants: None,
            pool: None,
            shards: 1,
            arrivals: TenantArrivals::Simultaneous,
            service: None,
            transport: Transport::InProcess,
            codec: Codec::Json,
            record: None,
        }
    }

    /// A multi-tenant experiment from an explicit [`MultiTenantScenario`].
    pub fn from_multi_tenant(mt: MultiTenantScenario) -> Self {
        Experiment::new(mt.base)
            .tenants(mt.tenants)
            .pool(mt.pool_capacity)
            .arrivals(mt.arrivals)
    }

    /// Runs the same seed with and without SpeQuloS (§4.2.1's fair
    /// comparison). Requires a strategy on the scenario.
    pub fn paired(mut self) -> Self {
        self.paired = true;
        self
    }

    /// Runs `n` concurrent tenants against one shared service; pair with
    /// [`Experiment::pool`]. Tenant `i` runs the scenario with seed
    /// `base.seed + i` (see [`MultiTenantScenario`]).
    pub fn tenants(mut self, n: u32) -> Self {
        self.tenants = Some(n);
        self
    }

    /// Caps the shared cloud-worker pool at `capacity` (multi-tenant
    /// runs; on a single QoS run it builds a pooled service).
    pub fn pool(mut self, capacity: u32) -> Self {
        self.pool = Some(capacity);
        self
    }

    /// Tenant arrival pattern (multi-tenant runs; default simultaneous).
    pub fn arrivals(mut self, arrivals: TenantArrivals) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Partitions a multi-tenant run's service state into `n` shards
    /// (default 1, unsharded): tenants route by stable hash, the pool
    /// becomes per-shard quotas under a deterministic rebalancing ledger
    /// (one pass per `SHARD_REBALANCE_EVERY` = 64 requests). In-process
    /// runs drive a [`RoutedService`]; loopback runs spawn a real
    /// `spq_server::ShardedServer`. Results are pinned per shard count:
    /// the same experiment at the same `n` is bit-identical on either
    /// transport, but a different `n` partitions the pool differently
    /// and is a *different* experiment. Single-tenant runs reject `n > 1`.
    pub fn shards(mut self, n: u32) -> Self {
        assert!(n >= 1, "an experiment needs at least one shard");
        self.shards = n;
        self
    }

    /// Selects where the service lives during the run (default
    /// [`Transport::InProcess`]); see [`Experiment::loopback`].
    pub fn transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Runs the experiment end-to-end over loopback TCP: the service is
    /// served by a `spq-server` the experiment spawns, every protocol
    /// request crosses the framed wire, and the service state is
    /// recovered at shutdown — results are bit-identical to the default
    /// in-process transport.
    ///
    /// ```no_run
    /// use betrace::Preset;
    /// use botwork::BotClass;
    /// use spequlos::StrategyCombo;
    /// use spq_harness::{Experiment, MwKind, Scenario};
    ///
    /// let sc = Scenario::new(Preset::G5kLyon, MwKind::Xwhep, BotClass::Big, 7)
    ///     .with_strategy(StrategyCombo::paper_default());
    /// let (remote, _service) = Experiment::new(sc).loopback().run_qos();
    /// assert!(remote.completed);
    /// ```
    pub fn loopback(self) -> Self {
        self.transport(Transport::Loopback)
    }

    /// Selects the frame codec loopback connections negotiate
    /// (PROTOCOL.md §2; default [`Codec::Json`]). No effect on the
    /// in-process transport — and none on results either: both codecs
    /// carry the same values, so runs stay bit-identical (pinned by
    /// `tests/remote.rs`).
    pub fn codec(mut self, codec: Codec) -> Self {
        self.codec = codec;
        self
    }

    /// Seeds a single QoS run with an existing service — credits, archive
    /// and favor state carry over (e.g. to accumulate prediction history
    /// across runs). Only meaningful for QoS and paired runs (the QoS
    /// half); baseline and multi-tenant modes reject a configured service
    /// instead of silently discarding its state. The carried service's
    /// clock granularity must match the scenario's tick — billing runs at
    /// the service's granularity since the protocol redesign.
    pub fn service(mut self, service: SpeQuloS) -> Self {
        self.service = Some(service);
        self
    }

    /// Overrides the scenario's strategy.
    pub fn strategy(mut self, strategy: spequlos::StrategyCombo) -> Self {
        self.scenario.strategy = Some(strategy);
        self
    }

    /// Records every protocol request the run sends — with its simulated
    /// timestamp, in service arrival order — into `sink`, by wrapping
    /// each endpoint in a [`SessionRecorder`]. The recorded transcript
    /// replayed through a fresh service of the same configuration
    /// rebuilds the final state bit-for-bit (the WAL-replay determinism
    /// leg pins this), which is what makes the write-ahead log in
    /// `spequlos::wal` a complete durability story.
    pub fn record_into(mut self, sink: SessionSink) -> Self {
        self.record = Some(sink);
        self
    }

    /// Executes the experiment in its configured mode.
    pub fn run(self) -> Outcome {
        if self.tenants.is_some() {
            Outcome::MultiTenant(self.run_multi_tenant())
        } else if self.paired {
            Outcome::Paired(self.run_paired())
        } else if self.scenario.strategy.is_some() {
            let (metrics, service) = self.run_qos();
            Outcome::Qos {
                metrics,
                service: Box::new(service),
            }
        } else {
            assert!(
                self.service.is_none(),
                "a .service(…) was configured but the scenario has no strategy: \
                 a baseline run would silently discard the carried service state \
                 — add a strategy or drop the .service() call"
            );
            Outcome::Baseline(self.run_baseline())
        }
    }

    /// Generates the experiment's BoT (deterministic in `(class, seed)`).
    pub fn bot(&self) -> Bot {
        generate(self.scenario.class, BotId(0), self.scenario.seed)
    }

    /// Runs the scenario without SpeQuloS (the paper's baseline),
    /// ignoring any strategy it carries. No service is involved, so the
    /// transport setting is irrelevant here.
    pub fn run_baseline(&self) -> ExecutionMetrics {
        let mut sc = self.scenario.clone();
        sc.strategy = None;
        let bot = generate(sc.class, BotId(0), sc.seed);
        let dci = sc.preset.spec().build(sc.seed, sc.scale);
        let sim = GridSim::new(dci, &bot, sc.sim_config(), sc.seed, NoQos);
        let (result, _) = sim.run();
        metrics_from(&sc, &result, 0.0, 0.0, bot.size() as u32)
    }

    /// Runs the scenario with SpeQuloS over the configured transport.
    /// Uses the service from [`Experiment::service`] if one was provided
    /// (fresh otherwise — pooled via [`Experiment::pool`] when set, clock
    /// granularity matching the scenario tick), and returns the service
    /// back with the metrics.
    ///
    /// # Panics
    /// Panics if the scenario has no strategy, if a carried service's
    /// clock granularity disagrees with the scenario's tick, or if
    /// `.shards(n)` asked for more than one shard (one tenant cannot be
    /// partitioned; silently running unsharded would hide the mistake).
    pub fn run_qos(mut self) -> (ExecutionMetrics, SpeQuloS) {
        assert_eq!(
            self.shards, 1,
            "a single-tenant run has no tenants to partition: .shards(n) would \
             be silently dropped — shard a .tenants(n) run, or drop the call"
        );
        let service = match self.service.take() {
            Some(service) => {
                assert_eq!(
                    service.tick_granularity(),
                    self.scenario.tick,
                    "the carried service bills ReportProgress at its own clock \
                     granularity; assemble it with SpeQuloS::builder().tick(…) \
                     matching the scenario's tick"
                );
                service
            }
            None => Self::service_for(&self.scenario, self.pool),
        };
        if self.transport == Transport::InProcess {
            // One tenant shares with nobody: the hook owns the service
            // itself and hands it back, no deployment in between.
            return match self.record {
                Some(sink) => {
                    let (metrics, recorder) =
                        Self::drive_qos(&self.scenario, SessionRecorder::new(service, sink));
                    (metrics, recorder.into_inner())
                }
                None => Self::drive_qos(&self.scenario, service),
            };
        }
        let (metrics, mut services) = self.deploy(service, &self.scenario);
        (metrics, services.pop().expect("one shard"))
    }

    /// The one place a run meets its deployment. Where `service` lives —
    /// in-process behind [`Shared`] handles or a `spq-server` on a
    /// loopback port, whole or split across `shards` — is decided here
    /// and nowhere else: each arm hands `run` a way to open endpoints,
    /// then shuts down into the shard services, in shard order.
    fn deploy<R: Drive>(&self, service: SpeQuloS, run: R) -> (R::Out, Vec<SpeQuloS>) {
        let (record, codec) = (self.record.clone(), self.codec);
        let remote = |addr: SocketAddr| {
            move || RemoteService::connect_with(addr, codec).expect("connect to loopback server")
        };
        match (self.transport, self.shards) {
            (Transport::InProcess, 1) => {
                let shared = Shared::new(service);
                let out = run_on(|| shared.clone(), record, run);
                (out, vec![unshare(shared)])
            }
            (Transport::InProcess, n) => {
                let routed = RoutedService::new(service, n, 1, SHARD_REBALANCE_EVERY);
                let shared = Shared::new(routed);
                let out = run_on(|| shared.clone(), record, run);
                (out, unshare(shared).into_services())
            }
            // The plain server takes `service` as it is, carried state
            // included; the sharded one splits a fresh template.
            (Transport::Loopback, 1) => {
                let server = Server::spawn_loopback(service).expect("bind loopback server");
                let out = run_on(remote(server.addr()), record, run);
                (out, vec![server.into_service()])
            }
            (Transport::Loopback, n) => {
                let config = ShardConfig::deterministic(n, SHARD_REBALANCE_EVERY);
                let server = ShardedServer::spawn_loopback(service, config)
                    .expect("bind sharded loopback server");
                let out = run_on(remote(server.addr()), record, run);
                (out, server.into_services())
            }
        }
    }

    /// Runs the QoS scenario against a caller-provided protocol endpoint
    /// — the transport-agnostic seam under [`Experiment::run_qos`]. The
    /// endpoint must be empty of prior state for this scenario (the run
    /// opens its own deposit → register → order session); billing comes
    /// back through the `Completed` response, so the metrics are complete
    /// even when the service's internals are unreachable.
    ///
    /// **Contract:** the service behind the endpoint must bill at the
    /// scenario's monitoring tick (`SpeQuloS::builder().tick(…)`), since
    /// `ReportProgress` billing runs at the *service's* clock
    /// granularity. Unlike [`Experiment::service`], this cannot be
    /// asserted here — a remote endpoint's granularity is not observable
    /// through the protocol — so a mismatch silently mis-bills.
    pub fn run_qos_with<S: SpqService>(&self, endpoint: S) -> (ExecutionMetrics, S) {
        Self::drive_qos(&self.scenario, endpoint)
    }

    /// [`Experiment::run_qos_with`] behind `&mut dyn SpqService`: drives
    /// the scenario through any object-safe endpoint (an in-process
    /// service, a `RemoteService`, a test double) without knowing its
    /// type. The same clock-granularity contract applies.
    pub fn service_dyn(&self, endpoint: &mut dyn SpqService) -> ExecutionMetrics {
        let (metrics, _) = Self::drive_qos(&self.scenario, endpoint);
        metrics
    }

    /// Runs the same scenario with and without SpeQuloS on the same seed
    /// and scores the Tail Removal Efficiency.
    ///
    /// # Panics
    /// Panics if the scenario has no strategy.
    pub fn run_paired(self) -> PairedRun {
        let baseline = self.run_baseline();
        let (speq, _service) = self.run_qos();
        let tre = match (&baseline.tail, baseline.completed, speq.completed) {
            (Some(tail), true, true) => tail_removal_efficiency(
                tail.ideal,
                SimTime::from_secs_f64(baseline.completion_secs),
                SimTime::from_secs_f64(speq.completion_secs),
            ),
            _ => None,
        };
        let speedup = if speq.completion_secs > 0.0 {
            baseline.completion_secs / speq.completion_secs
        } else {
            1.0
        };
        PairedRun {
            baseline,
            speq,
            tre,
            speedup,
        }
    }

    /// Runs `tenants` concurrent BoT executions against one shared
    /// SpeQuloS service with a bounded cloud-worker pool, over the
    /// configured transport (in-process sharing, or one `RemoteService`
    /// connection per tenant to a spawned loopback server).
    /// Deterministic: the same experiment reproduces the same report
    /// bit-for-bit, on either transport.
    ///
    /// With [`Experiment::shards`] above 1 the shared state is split
    /// across that many services under a rebalancing quota ledger —
    /// in-process behind a [`RoutedService`], over loopback behind a real
    /// [`ShardedServer`] — and stays bit-identical across the two
    /// transports at a fixed shard count (the driver issues one request
    /// at a time, so every shard sees the same arrival order either way).
    ///
    /// # Panics
    /// Panics if the scenario has no strategy, if `.tenants(n)` /
    /// `.pool(capacity)` were not both configured, or if a `.service(…)`
    /// was configured (multi-tenant runs build their own pooled service;
    /// silently discarding a carried one would lose its state).
    pub fn run_multi_tenant(self) -> MultiTenantReport {
        let tenants = self
            .tenants
            .expect("a multi-tenant experiment requires .tenants(n)");
        let pool_capacity = self
            .pool
            .expect("a multi-tenant experiment requires .pool(capacity)");
        assert!(
            self.service.is_none(),
            "multi-tenant experiments build their own pooled service; \
             a carried .service(…) would be silently discarded"
        );
        let mt = MultiTenantScenario {
            base: self.scenario.clone(),
            tenants,
            arrivals: self.arrivals,
            pool_capacity,
        };
        let strategy = mt
            .base
            .strategy
            .expect("a multi-tenant experiment requires a strategy on the scenario");
        let service = SpeQuloS::builder()
            .pool(mt.pool_capacity)
            .tick(mt.base.tick)
            .build();
        let ((runs, meta), services) = self.deploy(service, Tenants(&mt, strategy));
        Self::assemble_report(&mt, runs, meta, services)
    }

    /// A fresh service assembled for this scenario: pooled when
    /// requested, billing at the scenario's monitoring tick.
    fn service_for(scenario: &Scenario, pool: Option<u32>) -> SpeQuloS {
        let mut builder = SpeQuloS::builder().tick(scenario.tick);
        if let Some(capacity) = pool {
            builder = builder.pool(capacity);
        }
        builder.build()
    }

    /// Opens the Fig. 3 session for one funded BoT on any endpoint —
    /// deposit → `registerQoS` → `orderQoS` — and returns the assigned
    /// BoT id.
    fn open_session<S: SpqService>(
        endpoint: &mut S,
        user: UserId,
        env: &str,
        size: u32,
        credits: f64,
        strategy: StrategyCombo,
        now: SimTime,
    ) -> BotId {
        match endpoint.handle(Request::Deposit { user, credits }, now) {
            Response::Deposited { .. } => {}
            other => panic!("deposit refused: {other:?}"),
        }
        let bot = match endpoint.handle(
            Request::RegisterQos {
                user,
                env: env.to_string(),
                size,
            },
            now,
        ) {
            Response::Registered { bot } => bot,
            other => panic!("registration refused: {other:?}"),
        };
        match endpoint.handle(
            Request::OrderQos {
                bot,
                credits,
                strategy: Some(strategy),
            },
            now,
        ) {
            Response::Ordered { .. } => {}
            other => panic!("freshly deposited credits must cover the order: {other:?}"),
        }
        bot
    }

    /// The single-tenant QoS run against an arbitrary endpoint.
    fn drive_qos<S: SpqService>(scenario: &Scenario, mut endpoint: S) -> (ExecutionMetrics, S) {
        let strategy = scenario
            .strategy
            .expect("a QoS experiment requires a strategy on the scenario");
        let bot = generate(scenario.class, BotId(0), scenario.seed);
        let dci = scenario.preset.spec().build(scenario.seed, scenario.scale);

        // Credits worth `credit_fraction` of the BoT workload (§4.1.3).
        let credits = scenario.credit_fraction * bot.workload_cpu_hours() * CREDITS_PER_CPU_HOUR;
        let user = UserId(0);
        let bot_id = Self::open_session(
            &mut endpoint,
            user,
            &scenario.env(),
            bot.size() as u32,
            credits,
            strategy,
            SimTime::ZERO,
        );

        let hook = SpqHook::new(endpoint, bot_id);
        let sim = GridSim::new(dci, &bot, scenario.sim_config(), scenario.seed, hook);
        let (result, hook) = sim.run();
        let spent = hook.spent();
        let metrics = metrics_from(scenario, &result, credits, spent, bot.size() as u32);
        (metrics, hook.into_service())
    }

    /// Sets up and runs all tenant simulations against per-tenant
    /// endpoints from `connect`, registering each tenant through one more
    /// (the administrator's) first. Endpoints are dropped before
    /// returning, so a shared in-process service can be unwrapped by the
    /// caller.
    fn drive_multi_tenant<E: SpqService>(
        mt: &MultiTenantScenario,
        strategy: StrategyCombo,
        mut connect: impl FnMut() -> E,
    ) -> (Vec<TenantRun>, Vec<TenantMeta>) {
        let mut admin = connect();
        let offsets = mt.arrivals.offsets(mt.tenants);
        let mut sims = Vec::with_capacity(mt.tenants as usize);
        let mut meta = Vec::with_capacity(mt.tenants as usize);
        for i in 0..mt.tenants {
            let sc = mt.tenant_scenario(i);
            let mut bot = generate(sc.class, BotId(0), sc.seed);
            let offset = offsets[i as usize];
            for task in &mut bot.tasks {
                task.arrival += offset;
            }
            let dci = sc.preset.spec().build(sc.seed, sc.scale);
            let credits = sc.credit_fraction * bot.workload_cpu_hours() * CREDITS_PER_CPU_HOUR;
            let user = UserId(u64::from(i));
            let at = SimTime::ZERO + offset;
            match admin.handle(Request::Deposit { user, credits }, at) {
                Response::Deposited { .. } => {}
                other => panic!("tenant {i} deposit refused: {other:?}"),
            }
            let bot_id = match admin.handle(
                Request::RegisterQos {
                    user,
                    env: sc.env(),
                    size: bot.size() as u32,
                },
                at,
            ) {
                Response::Registered { bot } => bot,
                other => panic!("tenant {i} registration refused: {other:?}"),
            };
            // The order itself is deferred to the tenant's arrival tick —
            // placed by the hook, through the tenant's own endpoint.
            let hook = SharedSpqHook::new(connect(), bot_id, at, credits, strategy);
            sims.push(GridSim::new(dci, &bot, sc.sim_config(), sc.seed, hook));
            meta.push((i, user, offset, sc, credits, bot.size() as u32));
        }
        let runs = run_many(sims)
            .into_iter()
            .map(|(result, hook)| TenantRun {
                result,
                bot: hook.bot(),
                admitted: hook.admitted().unwrap_or(false),
                spent: hook.spent(),
            })
            .collect();
        (runs, meta)
    }

    /// Folds tenant runs and the recovered shard services into the
    /// report. Each tenant's QoS metrics come from the shard owning its
    /// BoT (ids are strided, so `bot mod N` names it), and the pool
    /// high-water mark is the *sum of per-shard peaks* — an upper bound
    /// on concurrent use, since quotas move between the peaks. An
    /// unsharded run is the one-element case.
    fn assemble_report(
        mt: &MultiTenantScenario,
        runs: Vec<TenantRun>,
        meta: Vec<TenantMeta>,
        mut services: Vec<SpeQuloS>,
    ) -> MultiTenantReport {
        let n = services.len() as u64;
        let mut tenants = Vec::with_capacity(runs.len());
        let mut events = 0u64;
        for (run, (i, user, offset, sc, credits, size)) in runs.into_iter().zip(meta) {
            events += run.result.events;
            let provisioned = if run.admitted { credits } else { 0.0 };
            let metrics = metrics_from(&sc, &run.result, provisioned, run.spent, size);
            let owner = &services[(run.bot.0 % n) as usize];
            tenants.push(TenantOutcome {
                tenant: i,
                user,
                bot: run.bot,
                admitted: run.admitted,
                offset,
                metrics,
                qos: owner.tenant_metrics(run.bot),
            });
        }
        let peak = services
            .iter()
            .map(|s| s.pool().map(|p| p.peak_in_use()).unwrap_or_default())
            .sum();
        let extra_shards = services.split_off(1);
        let service = services.pop().expect("a deployment has at least one shard");
        MultiTenantReport {
            tenants,
            pool_capacity: mt.pool_capacity,
            peak_pool_in_use: peak,
            events,
            service,
            extra_shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::MwKind;
    use betrace::Preset;
    use botwork::BotClass;
    use spequlos::StrategyCombo;

    fn quick_scenario(seed: u64) -> Scenario {
        let mut s = Scenario::new(Preset::G5kLyon, MwKind::Xwhep, BotClass::Big, seed);
        s.scale = 0.5;
        s
    }

    #[test]
    fn baseline_completes_and_uses_no_cloud() {
        let m = Experiment::new(quick_scenario(1)).run_baseline();
        assert!(m.completed);
        assert_eq!(m.cloud.workers_started, 0);
        assert_eq!(m.credits_spent, 0.0);
        assert!(m.completion_secs > 0.0);
        assert_eq!(m.env, "g5klyo/XWHEP/BIG");
    }

    #[test]
    fn qos_run_bills_credits_within_provision() {
        let sc = quick_scenario(2).with_strategy(StrategyCombo::paper_default());
        let env = sc.env();
        let (m, service) = Experiment::new(sc).run_qos();
        assert!(m.completed);
        assert!(m.credits_provisioned > 0.0);
        assert!(m.credits_spent <= m.credits_provisioned + 1e-9);
        // The service archived the execution for future predictions.
        assert_eq!(service.info().history(&env).len(), 1);
    }

    #[test]
    fn run_infers_the_mode() {
        let base = Experiment::new(quick_scenario(3)).run();
        assert!(matches!(base, Outcome::Baseline(_)));
        let sc = quick_scenario(3).with_strategy(StrategyCombo::paper_default());
        let qos = Experiment::new(sc.clone()).run();
        assert!(matches!(qos, Outcome::Qos { .. }));
        let paired = Experiment::new(sc.clone()).paired().run();
        assert!(matches!(paired, Outcome::Paired(_)));
        let mt = Experiment::new(sc).tenants(2).pool(8).run();
        assert!(matches!(mt, Outcome::MultiTenant(_)));
    }

    #[test]
    fn paired_run_baseline_not_slower_much() {
        // SpeQuloS must never make the execution dramatically worse; on a
        // churny trace it should usually help.
        let sc = quick_scenario(3).with_strategy(StrategyCombo::paper_default());
        let p = Experiment::new(sc).paired().run_paired();
        assert!(p.baseline.completed && p.speq.completed);
        assert!(
            p.speq.completion_secs <= p.baseline.completion_secs * 1.05,
            "speq {} vs baseline {}",
            p.speq.completion_secs,
            p.baseline.completion_secs
        );
        if let Some(tre) = p.tre {
            assert!(tre <= 1.0);
        }
    }

    #[test]
    fn multi_tenant_run_is_deterministic() {
        let base = quick_scenario(7).with_strategy(StrategyCombo::paper_default());
        let exp = Experiment::new(base).tenants(3).pool(6);
        let a = exp.clone().run_multi_tenant();
        let b = exp.run_multi_tenant();
        assert_eq!(a.events, b.events);
        assert_eq!(a.peak_pool_in_use, b.peak_pool_in_use);
        for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(ta.metrics.completion_secs, tb.metrics.completion_secs);
            assert_eq!(ta.metrics.credits_spent, tb.metrics.credits_spent);
            assert_eq!(ta.qos, tb.qos);
        }
    }

    #[test]
    fn single_tenant_pool_run_matches_unpooled_run_when_uncontended() {
        // One tenant over a pool far larger than any request: arbitration
        // must be invisible — the execution equals the plain SpeQuloS run.
        let sc = quick_scenario(5).with_strategy(StrategyCombo::paper_default());
        let (solo, _) = Experiment::new(sc.clone()).run_qos();
        let report = Experiment::new(sc)
            .tenants(1)
            .pool(10_000)
            .run_multi_tenant();
        let t = &report.tenants[0];
        assert!(t.admitted);
        assert_eq!(t.metrics.completion_secs, solo.completion_secs);
        assert_eq!(t.metrics.events, solo.events);
        assert_eq!(t.metrics.credits_spent, solo.credits_spent);
        assert_eq!(t.metrics.cloud, solo.cloud);
        assert_eq!(t.qos.denied, 0);
    }

    #[test]
    fn paired_runs_share_the_pre_trigger_trajectory() {
        // Same seed ⇒ identical completion curve up to (shortly before)
        // the trigger point: compare tc(0.5) of both runs.
        let sc = quick_scenario(4).with_strategy(StrategyCombo::paper_default());
        let p = Experiment::new(sc).paired().run_paired();
        let b = p.baseline.tc(0.5).expect("baseline reaches 50%");
        let s = p.speq.tc(0.5).expect("speq reaches 50%");
        assert_eq!(b, s, "pre-trigger trajectories must match");
    }

    #[test]
    fn service_state_carries_across_runs() {
        let sc = quick_scenario(6).with_strategy(StrategyCombo::paper_default());
        let env = sc.env();
        let (_, service) = Experiment::new(sc.clone()).run_qos();
        let mut sc2 = sc;
        sc2.seed = 60;
        let (_, service) = Experiment::new(sc2).service(service).run_qos();
        assert_eq!(
            service.info().history(&env).len(),
            2,
            "archive accumulates across .service() chaining"
        );
    }

    #[test]
    fn service_dyn_drives_any_endpoint_to_the_same_result() {
        // The same scenario through the typed path and through a
        // `&mut dyn SpqService` must agree exactly.
        let sc = quick_scenario(8).with_strategy(StrategyCombo::paper_default());
        let (typed, _) = Experiment::new(sc.clone()).run_qos();
        let mut endpoint = SpeQuloS::builder().tick(sc.tick).build();
        let dynamic = Experiment::new(sc).service_dyn(&mut endpoint);
        assert_eq!(typed.completion_secs, dynamic.completion_secs);
        assert_eq!(typed.events, dynamic.events);
        assert_eq!(typed.credits_spent, dynamic.credits_spent);
        assert_eq!(typed.cloud, dynamic.cloud);
    }

    #[test]
    #[should_panic(expected = ".shards(n) would be silently dropped")]
    fn single_tenant_runs_reject_shards() {
        let sc = quick_scenario(3).with_strategy(StrategyCombo::paper_default());
        let _ = Experiment::new(sc).shards(4).run_qos();
    }

    /// Every way the deployment seam can be asked to run an experiment.
    fn arms() -> impl Iterator<Item = (Transport, Codec, Option<SessionSink>)> {
        [
            (Transport::InProcess, Codec::Json),
            (Transport::Loopback, Codec::Json),
            (Transport::Loopback, Codec::Binary),
        ]
        .into_iter()
        .flat_map(|(t, c)| [(t, c, None), (t, c, Some(SessionSink::default()))])
    }

    fn on_arm(
        exp: Experiment,
        (t, c, sink): &(Transport, Codec, Option<SessionSink>),
    ) -> Experiment {
        let exp = exp.transport(*t).codec(*c);
        match sink {
            Some(sink) => exp.record_into(sink.clone()),
            None => exp,
        }
    }

    /// The state a recorded transcript rebuilds in `fresh`.
    fn replayed(mut fresh: SpeQuloS, sink: &SessionSink) -> String {
        spequlos::protocol::replay(&mut fresh, &sink.lock().expect("sink"));
        spequlos::encode_state_json(&fresh).expect("state encodes")
    }

    #[test]
    fn every_deployment_arm_is_bit_identical_per_shard_count() {
        // {in-process, loopback} × {1, 4 shards} × {recorded, unrecorded}
        // × {JSON, binary}: one seam builds them all, so they must all
        // tell the same story — equal reports, equal per-shard state, and
        // a transcript that replays to that state.
        let base = quick_scenario(10).with_strategy(StrategyCombo::paper_default());
        let state = |s: &SpeQuloS| spequlos::encode_state_json(s).expect("state encodes");
        for shards in [1, 4] {
            let mut reference = None;
            for arm in arms() {
                let what = format!("{shards} shard(s), {:?}/{}, {:?}", arm.0, arm.1, arm.2);
                let exp = Experiment::new(base.clone())
                    .tenants(2)
                    .pool(4)
                    .shards(shards);
                let report = on_arm(exp, &arm).run_multi_tenant();
                let tenants: Vec<_> = report
                    .tenants
                    .iter()
                    .map(|t| {
                        (
                            t.admitted,
                            t.metrics.completion_secs,
                            t.metrics.credits_spent,
                            t.qos,
                        )
                    })
                    .collect();
                let states: Vec<String> = report.shard_services().map(state).collect();
                assert_eq!(states.len(), shards as usize, "{what}");
                if let (1, Some(sink)) = (shards, &arm.2) {
                    let fresh = SpeQuloS::builder().pool(4).tick(base.tick).build();
                    assert_eq!(vec![replayed(fresh, sink)], states, "{what}");
                }
                let seen = (tenants, report.events, report.peak_pool_in_use, states);
                assert_eq!(
                    reference.get_or_insert_with(|| seen.clone()),
                    &seen,
                    "{what}"
                );
            }
        }
        // The single-tenant run: the same seam over loopback, the hook
        // owning the service in-process.
        let mut reference = None;
        for arm in arms() {
            let what = format!("single tenant, {:?}/{}, {:?}", arm.0, arm.1, arm.2);
            let (m, service) = on_arm(Experiment::new(base.clone()), &arm).run_qos();
            if let Some(sink) = &arm.2 {
                let fresh = SpeQuloS::builder().tick(base.tick).build();
                assert_eq!(replayed(fresh, sink), state(&service), "{what}");
            }
            let seen = (
                m.completion_secs,
                m.events,
                m.credits_spent,
                m.cloud,
                state(&service),
            );
            assert_eq!(
                reference.get_or_insert_with(|| seen.clone()),
                &seen,
                "{what}"
            );
        }
    }
}
