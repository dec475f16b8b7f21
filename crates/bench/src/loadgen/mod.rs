//! `spq-load`: an open-loop, rate-controlled load generator for the
//! SpeQuloS TCP service, with latency-SLO telemetry.
//!
//! # Open loop, or why the obvious benchmark lies
//!
//! A *closed-loop* client (send, wait for the reply, send the next)
//! measures a server that is never allowed to fall behind: when the
//! server slows down, the client slows down with it, the offered load
//! silently drops, and the recorded latencies only cover the requests
//! the client deigned to send — the classic *coordinated omission*
//! trap. This generator is *open-loop*: every request's send instant is
//! fixed up front by a deterministic [`ArrivalPlan`], and a request is
//! sent at its scheduled instant whether or not earlier responses have
//! returned. If the server saturates, requests queue — in the kernel's
//! socket buffers and the server's mailbox — and the measured tail
//! grows without bound, which is exactly the queueing collapse an SLO
//! gate needs to see.
//!
//! Latency is measured from the request's *scheduled* send instant (not
//! the moment the `write` call happened to return), so time a request
//! spends stuck behind a backed-up socket counts against the server.
//!
//! # Anatomy of a run
//!
//! 1. [`ArrivalPlan::generate`] turns `(rate, connections, duration,
//!    seed)` plus a recorded [`RequestMix`] into the full schedule.
//! 2. [`run`] primes each connection (deposits credits, registers the
//!    BoT pools the planned `OrderQos`/`Complete` requests will consume)
//!    and then drives the plan: one writer thread per connection sleeps
//!    until each arrival's instant and fires the frame; one reader
//!    thread per connection pairs FIFO responses with their scheduled
//!    instants and records latency into a per-connection
//!    [`LatencyHistogram`].
//! 3. Per-connection histograms [`LatencyHistogram::merge`] into one
//!    [`LoadReport`], which the `repro_load` binary turns into the
//!    `latency` object of `BENCH_repro_load.json` (see
//!    [`crate::telemetry`]).
//!
//! A rate sweep ([`max_sustained_rate`]) reruns the plan at a ladder of
//! offered rates against a fresh server each and reports the highest
//! rate whose p99 still met the SLO with no timeouts.
//!
//! ```no_run
//! use spequlos::SpeQuloS;
//! use spq_bench::loadgen::{self, ArrivalPlan, ArrivalSpec};
//! use spq_server::Server;
//!
//! let mix = loadgen::recorded_mix();
//! let plan = ArrivalPlan::generate(
//!     ArrivalSpec { rate: 500.0, connections: 2, warmup_secs: 0.2, measured_secs: 1.0, seed: 7 },
//!     &mix,
//! );
//! let handle = Server::spawn_loopback(SpeQuloS::new())?;
//! let report = loadgen::run(handle.addr(), &plan)?;
//! println!("p99 = {:.3} ms over {} requests", report.p99_ms(), report.sent);
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod hist;
pub mod plan;

pub use hist::LatencyHistogram;
pub use plan::{Arrival, ArrivalPlan, ArrivalSpec};

use betrace::Preset;
use botwork::{BotClass, BotId};
use simcore::SimTime;
use spequlos::protocol::{Request, Response, SpqService};
use spequlos::{BotProgress, StrategyCombo, UserId};
use spq_harness::workload::{RequestKind, RequestMix};
use spq_harness::{Experiment, MwKind, Scenario, SessionSink};
use spq_server::{ClientCore, Codec, FrameError, RemoteService};

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// BoT size used for the synthetic bots a run registers; progress
/// reports keep `completed < LIVE_SIZE` so a live bot never looks done.
const LIVE_SIZE: u32 = 1_000;
/// Monitoring bots each connection cycles `ReportProgress`/`Predict`
/// requests over.
const LIVE_BOTS: usize = 4;
/// Credits provisioned per QoS order during priming and the run.
const ORDER_CREDITS: f64 = 2.0;
/// Upper bound on the per-connection pools of pre-registered bots that
/// planned `OrderQos`/`Complete` requests consume. Plans wanting more
/// than this have the excess substituted with `ReportProgress` (counted
/// in [`LoadReport::substituted`]).
const POOL_CAP: usize = 256;
/// Priming requests are pipelined in batches of this many sub-requests.
const PRIME_BATCH: usize = 64;
/// Reader-side wait for the next response frame before the remaining
/// in-flight requests are declared timed out.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// The merged result of one open-loop run. Counters cover the whole run
/// (warmup included); the histogram holds only post-warmup responses.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// The rate the plan offered (requests/second over the full span).
    pub offered_rate: f64,
    /// Answered requests divided by wall-clock elapsed — the throughput
    /// the server actually achieved, which falls below `offered_rate`
    /// exactly when the server cannot keep up.
    pub achieved_rate: f64,
    /// Requests sent (`= ok + errors + timeouts`).
    pub sent: u64,
    /// Responses received (`ok + errors`).
    pub answered: u64,
    /// Non-error responses.
    pub ok: u64,
    /// [`Response::Error`] responses.
    pub errors: u64,
    /// Requests never answered before the reader gave up.
    pub timeouts: u64,
    /// Planned `OrderQos`/`Complete` arrivals sent as `ReportProgress`
    /// because the pre-registered pool (capped at 256 per connection)
    /// ran dry.
    pub substituted: u64,
    /// Wall-clock seconds from first scheduled send to last response.
    pub elapsed_secs: f64,
    /// Measured (post-warmup) latencies, nanoseconds; merged across
    /// connections. Errors are included — an error reply still has a
    /// latency.
    pub hist: LatencyHistogram,
}

impl LoadReport {
    /// Median latency, milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.hist.quantile_ms(0.50)
    }

    /// 95th-percentile latency, milliseconds.
    pub fn p95_ms(&self) -> f64 {
        self.hist.quantile_ms(0.95)
    }

    /// 99th-percentile latency, milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.hist.quantile_ms(0.99)
    }

    /// 99.9th-percentile latency, milliseconds.
    pub fn p999_ms(&self) -> f64 {
        self.hist.quantile_ms(0.999)
    }

    /// Maximum observed latency, milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.hist.max_nanos() as f64 / 1e6
    }
}

/// Records a short real experiment session and distills its request mix
/// — the workload shape the plan samples kinds from. One deposit /
/// registration / order / completion and a monitoring report per tick,
/// exactly as a middleware-attached SpeQuloS sees (paper Fig. 3).
pub fn recorded_mix() -> RequestMix {
    let mut sc = Scenario::new(Preset::G5kLyon, MwKind::Xwhep, BotClass::Big, 11)
        .with_strategy(StrategyCombo::paper_default());
    sc.scale = 0.5;
    let sink = SessionSink::default();
    Experiment::new(sc).record_into(sink.clone()).run_qos();
    let session = sink.lock().expect("session sink poisoned");
    RequestMix::from_session(&session)
}

/// Per-connection request-building state: the user account, the live
/// monitoring bots, and the pools planned `OrderQos`/`Complete`
/// arrivals consume.
struct ConnState {
    user: UserId,
    live: Vec<BotId>,
    reports: Vec<u32>,
    orderable: Vec<BotId>,
    completable: Vec<BotId>,
    cursor: usize,
    substituted: u64,
}

impl ConnState {
    /// Materializes an abstract request kind into a concrete request,
    /// substituting `ReportProgress` when a pool has run dry.
    fn build(&mut self, kind: RequestKind, at_nanos: u64) -> Request {
        match kind {
            RequestKind::Deposit => Request::Deposit {
                user: self.user,
                credits: 1.0,
            },
            RequestKind::RegisterQos => Request::RegisterQos {
                user: self.user,
                env: "load/synthetic/big".into(),
                size: LIVE_SIZE,
            },
            RequestKind::Predict => Request::Predict {
                bot: self.next_live(),
            },
            RequestKind::ReportProgress => self.report(at_nanos),
            RequestKind::OrderQos => match self.orderable.pop() {
                Some(bot) => Request::OrderQos {
                    bot,
                    credits: ORDER_CREDITS,
                    strategy: None,
                },
                None => {
                    self.substituted += 1;
                    self.report(at_nanos)
                }
            },
            RequestKind::Complete => match self.completable.pop() {
                Some(bot) => Request::Complete { bot },
                None => {
                    self.substituted += 1;
                    self.report(at_nanos)
                }
            },
        }
    }

    fn next_live(&mut self) -> BotId {
        let bot = self.live[self.cursor % self.live.len()];
        self.cursor += 1;
        bot
    }

    /// A monitoring snapshot for the next live bot: progress advances
    /// monotonically with every report but never reaches completion.
    fn report(&mut self, at_nanos: u64) -> Request {
        let slot = self.cursor % self.live.len();
        let bot = self.live[slot];
        self.cursor += 1;
        self.reports[slot] += 1;
        let completed = self.reports[slot].min(LIVE_SIZE - 1);
        Request::ReportProgress {
            bot,
            progress: BotProgress {
                now: SimTime::from_millis(at_nanos / 1_000_000),
                size: LIVE_SIZE,
                completed,
                dispatched: (completed + 8).min(LIVE_SIZE),
                queued: LIVE_SIZE - (completed + 8).min(LIVE_SIZE),
                running: 4,
                cloud_running: 0,
            },
        }
    }
}

fn other_err(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

/// Registers `n` bots for `user` (ordering each when `order` is set)
/// through one priming connection, pipelining in batches.
fn prime_bots(
    remote: &mut RemoteService,
    user: UserId,
    n: usize,
    order: bool,
) -> io::Result<Vec<BotId>> {
    let mut bots = Vec::with_capacity(n);
    for chunk in 0..n.div_ceil(PRIME_BATCH) {
        let count = PRIME_BATCH.min(n - chunk * PRIME_BATCH);
        let batch: Vec<Request> = (0..count)
            .map(|_| Request::RegisterQos {
                user,
                env: "load/synthetic/big".into(),
                size: LIVE_SIZE,
            })
            .collect();
        let responses = remote.handle_batch(batch, SimTime::ZERO);
        let mut fresh = Vec::with_capacity(count);
        for r in responses {
            match r {
                Response::Registered { bot } => fresh.push(bot),
                other => return Err(other_err(format!("priming register failed: {other:?}"))),
            }
        }
        if order {
            let orders: Vec<Request> = fresh
                .iter()
                .map(|&bot| Request::OrderQos {
                    bot,
                    credits: ORDER_CREDITS,
                    strategy: None,
                })
                .collect();
            for r in remote.handle_batch(orders, SimTime::ZERO) {
                if let Response::Error(e) = r {
                    return Err(other_err(format!("priming order failed: {e}")));
                }
            }
        }
        bots.extend(fresh);
    }
    Ok(bots)
}

/// Builds one connection's [`ConnState`]: deposits credits, registers
/// the live monitoring bots and the pools its planned `OrderQos` /
/// `Complete` arrivals will consume.
fn prime_connection(addr: SocketAddr, conn: u32, arrivals: &[Arrival]) -> io::Result<ConnState> {
    let user = UserId(1_000 + u64::from(conn));
    let want_orders = arrivals
        .iter()
        .filter(|a| a.kind == RequestKind::OrderQos)
        .count()
        .min(POOL_CAP);
    let want_completes = arrivals
        .iter()
        .filter(|a| a.kind == RequestKind::Complete)
        .count()
        .min(POOL_CAP);
    let mut remote = RemoteService::connect(addr)?;
    let budget = ORDER_CREDITS * (LIVE_BOTS + want_orders + want_completes) as f64 + 100.0;
    match remote.handle(
        Request::Deposit {
            user,
            credits: budget,
        },
        SimTime::ZERO,
    ) {
        Response::Deposited { .. } => {}
        other => return Err(other_err(format!("priming deposit failed: {other:?}"))),
    }
    let live = prime_bots(&mut remote, user, LIVE_BOTS, true)?;
    let orderable = prime_bots(&mut remote, user, want_orders, false)?;
    let completable = prime_bots(&mut remote, user, want_completes, true)?;
    Ok(ConnState {
        user,
        reports: vec![0; live.len()],
        live,
        orderable,
        completable,
        cursor: 0,
        substituted: 0,
    })
}

/// What one connection's reader thread hands back.
struct ConnResult {
    hist: LatencyHistogram,
    ok: u64,
    errors: u64,
    timeouts: u64,
}

/// Drives one connection: the writer half of the thread pair. Sends
/// every arrival at its scheduled instant (immediately when behind —
/// that is the open loop) and half-closes the socket so the server
/// drains the pipeline and EOFs the reader.
fn drive_writer(
    mut stream: TcpStream,
    base: Instant,
    arrivals: &[Arrival],
    mut state: ConnState,
    inflight: &Mutex<VecDeque<(Instant, bool)>>,
) -> io::Result<u64> {
    // This half of the connection only ever encodes; the reader's core
    // is the one that sent the hello and is owed the ack.
    let mut encoder = ClientCore::new(Codec::Json);
    let mut wire = Vec::new();
    for arrival in arrivals {
        let target = base + Duration::from_nanos(arrival.at_nanos);
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        let request = state.build(arrival.kind, arrival.at_nanos);
        // Enqueue before writing so the reader can never see a response
        // it has no scheduled instant for. Latency counts from `target`,
        // the *scheduled* instant: time spent blocked on a backed-up
        // socket is the server's fault and must show in the tail.
        inflight
            .lock()
            .expect("inflight queue poisoned")
            .push_back((target, arrival.warmup));
        wire.clear();
        let at = SimTime::from_millis(arrival.at_nanos / 1_000_000);
        encoder.queue_request(&mut wire, request, at);
        stream.write_all(&wire)?;
    }
    stream.flush()?;
    stream.shutdown(Shutdown::Write)?;
    Ok(state.substituted)
}

/// The reader half: pairs FIFO responses — read through `core`, which
/// sent the connection's hello and so takes the ack first — with their
/// scheduled instants and records measured latencies. Exits once all
/// `expected` responses arrived (the server handle keeps the socket open
/// for teardown, so EOF cannot be relied on); anything still unanswered
/// when the stream ends or the read times out is a timeout.
fn drive_reader(
    mut stream: TcpStream,
    mut core: ClientCore,
    inflight: &Mutex<VecDeque<(Instant, bool)>>,
    expected: u64,
) -> ConnResult {
    let mut result = ConnResult {
        hist: LatencyHistogram::new(),
        ok: 0,
        errors: 0,
        timeouts: 0,
    };
    stream.set_read_timeout(Some(READ_TIMEOUT)).ok();
    while result.ok + result.errors < expected {
        let is_error = match core.read_reply(&mut stream) {
            Ok(Some(reply)) => matches!(reply.response, Response::Error(_)),
            // A well-framed reply that is not an envelope still answered
            // its request: an error, with a latency.
            Err(FrameError::BadEnvelope(_)) => true,
            // Clean EOF after the server drained the pipeline, or a
            // timeout/transport failure: stop; leftovers are timeouts.
            Ok(None) | Err(_) => break,
        };
        let Some((scheduled, warmup)) = inflight
            .lock()
            .expect("inflight queue poisoned")
            .pop_front()
        else {
            break; // response with no matching request: desynchronized
        };
        let latency = Instant::now().saturating_duration_since(scheduled);
        if is_error {
            result.errors += 1;
        } else {
            result.ok += 1;
        }
        if !warmup {
            result.hist.record(latency.as_nanos() as u64);
        }
    }
    result.timeouts = inflight.lock().expect("inflight queue poisoned").len() as u64;
    result
}

/// Executes an [`ArrivalPlan`] open-loop against a running `spq-server`
/// at `addr` and returns the merged [`LoadReport`].
///
/// Primes every connection first (credits, bot pools), then starts the
/// shared clock: each connection gets a writer thread (fires arrivals
/// at their scheduled instants) and a reader thread (records latencies
/// from scheduled instant to response). The call blocks until every
/// connection drains or times out.
pub fn run(addr: SocketAddr, plan: &ArrivalPlan) -> io::Result<LoadReport> {
    let spec = plan.spec();
    let mut primed = Vec::with_capacity(spec.connections as usize);
    for conn in 0..spec.connections {
        let arrivals = plan.for_connection(conn);
        let state = prime_connection(addr, conn, &arrivals)?;
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut core = ClientCore::new(Codec::Json);
        let mut hello = Vec::new();
        core.queue_hello(&mut hello);
        stream.write_all(&hello)?;
        primed.push((arrivals, state, stream, core));
    }

    let started = Instant::now();
    // Scheduled instants are relative to one shared clock so that all
    // connections offer load simultaneously.
    let base = started;
    let mut handles = Vec::new();
    for (arrivals, state, stream, core) in primed {
        let reader_stream = stream.try_clone()?;
        let inflight = Arc::new(Mutex::new(VecDeque::new()));
        let writer_queue = Arc::clone(&inflight);
        let expected = arrivals.len() as u64;
        let writer =
            std::thread::spawn(move || drive_writer(stream, base, &arrivals, state, &writer_queue));
        let reader =
            std::thread::spawn(move || drive_reader(reader_stream, core, &inflight, expected));
        handles.push((writer, reader));
    }

    let mut report = LoadReport {
        offered_rate: plan.offered_rate(),
        achieved_rate: 0.0,
        sent: plan.len() as u64,
        answered: 0,
        ok: 0,
        errors: 0,
        timeouts: 0,
        substituted: 0,
        elapsed_secs: 0.0,
        hist: LatencyHistogram::new(),
    };
    for (writer, reader) in handles {
        let substituted = writer
            .join()
            .map_err(|_| other_err("writer thread panicked"))??;
        let conn = reader
            .join()
            .map_err(|_| other_err("reader thread panicked"))?;
        report.substituted += substituted;
        report.ok += conn.ok;
        report.errors += conn.errors;
        report.timeouts += conn.timeouts;
        report.hist.merge(&conn.hist);
    }
    report.answered = report.ok + report.errors;
    report.elapsed_secs = started.elapsed().as_secs_f64();
    report.achieved_rate = if report.elapsed_secs > 0.0 {
        report.answered as f64 / report.elapsed_secs
    } else {
        0.0
    };
    Ok(report)
}

/// The highest offered rate whose run met the SLO — p99 at or under
/// `slo_p99_ms` with zero timeouts — across a stepped sweep, or `None`
/// when every step missed it. `steps` pairs each offered rate with the
/// [`LoadReport`] measured at that rate (fresh server per step).
pub fn max_sustained_rate(steps: &[(f64, LoadReport)], slo_p99_ms: f64) -> Option<f64> {
    steps
        .iter()
        .filter(|(_, report)| report.p99_ms() <= slo_p99_ms && report.timeouts == 0)
        .map(|&(rate, _)| rate)
        .fold(None, |best, rate| {
            Some(best.map_or(rate, |b: f64| b.max(rate)))
        })
}

/// The default rate ladder for a sweep: fractions of the base rate from
/// one quarter to double, so the SLO knee is visible on both sides.
pub fn sweep_ladder(base_rate: f64, steps: usize) -> Vec<f64> {
    const FRACTIONS: [f64; 5] = [0.25, 0.5, 1.0, 1.5, 2.0];
    FRACTIONS
        .iter()
        .take(steps)
        .map(|f| base_rate * f)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spequlos::SpeQuloS;
    use spq_server::Server;

    fn small_mix() -> RequestMix {
        RequestMix::from_weights(&[
            (RequestKind::ReportProgress, 85),
            (RequestKind::Predict, 5),
            (RequestKind::Deposit, 4),
            (RequestKind::RegisterQos, 2),
            (RequestKind::OrderQos, 2),
            (RequestKind::Complete, 2),
        ])
    }

    #[test]
    fn open_loop_run_accounts_for_every_request() {
        let handle = Server::spawn_loopback(SpeQuloS::new()).expect("spawn");
        let plan = ArrivalPlan::generate(
            ArrivalSpec {
                rate: 400.0,
                connections: 2,
                warmup_secs: 0.1,
                measured_secs: 0.5,
                seed: 21,
            },
            &small_mix(),
        );
        let report = run(handle.addr(), &plan).expect("run");
        assert_eq!(report.sent, plan.len() as u64);
        assert_eq!(report.ok + report.errors, report.answered);
        assert_eq!(report.answered + report.timeouts, report.sent);
        assert_eq!(report.timeouts, 0, "loopback at 400/s must not time out");
        assert_eq!(report.errors, 0, "priming must make every request valid");
        // Histogram only holds measured responses.
        assert_eq!(report.hist.count(), plan.measured_len() as u64);
        assert!(report.p50_ms() <= report.p99_ms());
        assert!(report.p99_ms() <= report.max_ms() + 1e-9);
        drop(handle.into_service());
    }

    #[test]
    fn sustained_rate_picks_the_highest_passing_step() {
        let mut fast = LoadReport {
            offered_rate: 0.0,
            achieved_rate: 0.0,
            sent: 0,
            answered: 0,
            ok: 0,
            errors: 0,
            timeouts: 0,
            substituted: 0,
            elapsed_secs: 0.0,
            hist: LatencyHistogram::new(),
        };
        fast.hist.record(1_000_000); // 1 ms
        let mut slow = fast.clone();
        slow.hist.record(90_000_000); // 90 ms tail
        slow.hist.record(90_000_000);
        let mut timed_out = fast.clone();
        timed_out.timeouts = 3;
        let steps = vec![
            (100.0, fast.clone()),
            (200.0, fast.clone()),
            (400.0, slow),
            (800.0, timed_out),
        ];
        assert_eq!(max_sustained_rate(&steps, 50.0), Some(200.0));
        assert_eq!(max_sustained_rate(&steps[2..], 50.0), None);
    }

    #[test]
    fn sweep_ladder_brackets_the_base_rate() {
        let ladder = sweep_ladder(1_000.0, 5);
        assert_eq!(ladder, vec![250.0, 500.0, 1_000.0, 1_500.0, 2_000.0]);
        assert_eq!(sweep_ladder(1_000.0, 2), vec![250.0, 500.0]);
    }
}
