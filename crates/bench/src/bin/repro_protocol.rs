//! Protocol throughput: requests/sec through `SpqService::handle` —
//! in-process (batched vs. unbatched) and over real loopback sockets
//! across a connection ladder.
//!
//! The wire deployment (`spq-server`) funnels every middleware
//! interaction through the typed protocol, so `handle` throughput bounds
//! how many monitoring ticks a deployed service can absorb per second.
//! This binary measures two things:
//!
//! 1. **In-process**: a synthetic multi-BoT monitoring workload through
//!    `SpqService::handle` two ways — one request per call, and whole
//!    ticks pipelined as `Request::Batch` frames. This is the historical
//!    measurement the CI gate has always tracked.
//! 2. **Wire ladder**: pipelined request/response exchanges over real
//!    loopback TCP at {1, 64, 1024, 4096} concurrent connections, under
//!    three server/codec combinations — the single-shard server with the
//!    negotiated binary codec (PROTOCOL.md §4–§5), the sharded server
//!    ([`LADDER_SHARDS`] shard reactors behind the accept-and-route
//!    layer, binary codec), and the single-shard server with the JSON
//!    codec (§3). (The thread-per-connection baseline the reactor
//!    replaced — 20× slower at 1024 connections — is recorded in
//!    CHANGES.md PR 8 and no longer exists as code.)
//!
//! Each ladder connection deposits as its own user (user = global
//! connection index), so on the sharded rung the connections spread
//! evenly across shards and every request stays shard-local. Honesty
//! note on the sharded rung: shard parallelism needs cores — on a
//! single-core host the shard reactors time-slice one CPU and
//! `c<conns>_sharded_speedup` lands ≈1.0 (slightly below, paying for
//! the router hop); the ≥3× figure is only observable on a multi-core
//! host. See BENCHMARKS.md § Sharded ladder.
//!
//! Emits `BENCH_repro_protocol.json` for the `spq-bench compare` CI
//! gate; the per-rung req/s and sharded-vs-single speedups land in the
//! telemetry `config` map (keys `c<conns>_<mode>_rps`,
//! `c<conns>_sharded_speedup`).
//!
//! `--scale` multiplies the number of concurrent BoTs in the in-process
//! phase (default 200 at scale 1.0); `--seeds` repeats that workload to
//! lengthen the measurement. The ladder runs once regardless of
//! `--seeds` (socket wall time dominates; repetition belongs to the
//! in-process phase). `--threads` overrides the ladder's client thread
//! count (0 = min(8, connections)).

use simcore::SimTime;
use spequlos::protocol::{Request, Response, SpqService};
use spequlos::{BotProgress, SpeQuloS, StrategyCombo, UserId};
use spq_bench::{telemetry, Opts};
use spq_server::{
    Codec, RemoteService, Server, ServerConfig, ServerHandle, ShardConfig, ShardedHandle,
    ShardedServer,
};
use std::io;
use std::net::SocketAddr;
use std::time::Instant;

/// Monitoring minutes simulated per BoT.
const TICKS: u64 = 400;

fn progress(minute: u64, size: u32) -> BotProgress {
    // A steady linear burn that crosses the 90% trigger near the end, so
    // the workload exercises the scheduler paths too, deterministically.
    let completed = ((minute * u64::from(size)) / TICKS).min(u64::from(size)) as u32;
    BotProgress {
        now: SimTime::from_secs(minute * 60),
        size,
        completed,
        dispatched: size,
        queued: 0,
        running: size - completed,
        cloud_running: 0,
    }
}

/// Registers and orders `bots` BoTs on a fresh service; returns it with
/// the assigned ids.
fn primed_service(bots: u64) -> (SpeQuloS, Vec<botwork::BotId>) {
    let mut spq = SpeQuloS::new();
    let mut ids = Vec::with_capacity(bots as usize);
    for b in 0..bots {
        let user = UserId(b);
        spq.credits.deposit(user, 10_000.0);
        let bot = spq.register_qos("bench/XWHEP/SMALL", 1_000, user, SimTime::ZERO);
        spq.order_qos(bot, 1_500.0, StrategyCombo::paper_default(), SimTime::ZERO)
            .expect("funded");
        ids.push(bot);
    }
    (spq, ids)
}

/// One request per `handle` call. Returns (requests served, wall secs).
fn unbatched(bots: u64) -> (u64, f64) {
    let (mut spq, ids) = primed_service(bots);
    let start = Instant::now();
    let mut served = 0u64;
    for minute in 1..=TICKS {
        let now = SimTime::from_secs(minute * 60);
        for &bot in &ids {
            let r = spq.handle(
                Request::ReportProgress {
                    bot,
                    progress: progress(minute, 1_000),
                },
                now,
            );
            assert!(!matches!(r, Response::Error(_)), "{r:?}");
            served += 1;
        }
    }
    (served, start.elapsed().as_secs_f64())
}

/// Whole ticks pipelined: one `Request::Batch` per minute carrying every
/// BoT's report. Returns (sub-requests served, wall secs).
fn batched(bots: u64) -> (u64, f64) {
    let (mut spq, ids) = primed_service(bots);
    let start = Instant::now();
    let mut served = 0u64;
    for minute in 1..=TICKS {
        let now = SimTime::from_secs(minute * 60);
        let tick: Vec<Request> = ids
            .iter()
            .map(|&bot| Request::ReportProgress {
                bot,
                progress: progress(minute, 1_000),
            })
            .collect();
        let Response::Batch(responses) = spq.handle(Request::Batch(tick), now) else {
            panic!("a batch answers with a batch");
        };
        assert_eq!(responses.len(), ids.len());
        served += responses.len() as u64;
    }
    (served, start.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------------
// Wire ladder: loopback sockets at 1 → 4096 connections
// ---------------------------------------------------------------------------

/// Connection counts the ladder climbs.
const LADDER: [usize; 4] = [1, 64, 1024, 4096];

/// Frames pipelined per connection per round: write the whole window,
/// flush once, then read the window of replies. Well under the server's
/// 256 KiB write high-water mark (PROTOCOL.md §9).
const WINDOW: usize = 16;

/// Approximate requests per (rung × mode); rounds are derived from it so
/// every connection sends at least one window.
const RUNG_TARGET: usize = 32_000;

/// Shard count of the sharded ladder rung. Four keeps the rung honest
/// on small hosts (thread oversubscription stays mild) while still
/// exercising the router + per-shard reactors end to end.
const LADDER_SHARDS: u32 = 4;

/// Keeps whichever server a rung spawned alive for the rung's duration.
enum LadderServer {
    Single(ServerHandle),
    Sharded(ShardedHandle),
}

impl LadderServer {
    fn addr(&self) -> SocketAddr {
        match self {
            LadderServer::Single(h) => h.addr(),
            LadderServer::Sharded(h) => h.addr(),
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum WireMode {
    /// Poll reactor, negotiated binary codec (§4–§5).
    ReactorBin,
    /// Sharded server: [`LADDER_SHARDS`] shard reactors behind the
    /// accept-and-route layer, negotiated binary codec.
    ShardedBin,
    /// Poll reactor, negotiated JSON codec (§3).
    ReactorJson,
}

impl WireMode {
    fn key(self) -> &'static str {
        match self {
            WireMode::ReactorBin => "reactor_bin",
            WireMode::ShardedBin => "sharded_bin",
            WireMode::ReactorJson => "reactor_json",
        }
    }

    fn spawn(self) -> io::Result<LadderServer> {
        match self {
            WireMode::ShardedBin => {
                ShardedServer::spawn_loopback(SpeQuloS::new(), ShardConfig::new(LADDER_SHARDS))
                    .map(LadderServer::Sharded)
            }
            _ => Server::spawn(SpeQuloS::new(), "127.0.0.1:0", ServerConfig::default())
                .map(LadderServer::Single),
        }
    }

    fn codec(self) -> Codec {
        match self {
            WireMode::ReactorBin | WireMode::ShardedBin => Codec::Binary,
            WireMode::ReactorJson => Codec::Json,
        }
    }
}

/// One ladder client: a negotiated connection and the account it
/// deposits into — the global connection index, so the sharded rung
/// spreads connections across shards and every request stays local to
/// the shard that owns the connection.
struct Conn {
    remote: RemoteService,
    user: u64,
    /// Replies read so far: ids count up from 0, so also the next id due.
    answered: u64,
}

/// Sends one pipelined window (`WINDOW` deposits, one write) without
/// waiting for replies, so a client thread can put its whole hand of
/// connections in flight before it starts reading.
fn write_window(conn: &mut Conn) -> io::Result<()> {
    for _ in 0..WINDOW {
        let deposit = Request::Deposit {
            user: UserId(conn.user),
            credits: 1.0,
        };
        conn.remote.send(deposit, SimTime::ZERO);
    }
    conn.remote.flush().map_err(io::Error::other)
}

/// Receives the window of correlated replies sent by [`write_window`].
/// Returns requests served.
fn read_window(conn: &mut Conn) -> io::Result<usize> {
    for _ in 0..WINDOW {
        let reply = conn.remote.recv().map_err(io::Error::other)?;
        assert_eq!(reply.id, conn.answered, "FIFO correlation");
        conn.answered += 1;
        assert!(
            matches!(reply.response, Response::Deposited { .. }),
            "{:?}",
            reply.response
        );
    }
    Ok(WINDOW)
}

/// One ladder rung: `conns` connections driven by `client_threads`
/// threads, every connection exchanging `rounds` pipelined windows.
/// Returns (requests served, exchange wall seconds) — connection setup
/// and teardown are excluded from the measurement.
fn rung(mode: WireMode, conns: usize, client_threads: usize) -> io::Result<(u64, f64)> {
    let handle = mode.spawn()?;
    let addr = handle.addr();
    // At least a few rounds per connection, so per-connection setup costs
    // (hello, slab slot, buffer growth) amortize out of the steady-state
    // rate even on the widest rungs.
    let rounds = (RUNG_TARGET / (conns * WINDOW)).max(4);
    let mut endpoints = Vec::with_capacity(conns);
    for user in 0..conns as u64 {
        endpoints.push(Conn {
            remote: RemoteService::connect_with(addr, mode.codec())?,
            user,
            answered: 0,
        });
    }
    // Deal connections round-robin into per-thread hands.
    let mut hands: Vec<Vec<Conn>> = (0..client_threads).map(|_| Vec::new()).collect();
    for (i, conn) in endpoints.into_iter().enumerate() {
        hands[i % client_threads].push(conn);
    }
    let start = Instant::now();
    let served: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = hands
            .into_iter()
            .map(|mut hand| {
                scope.spawn(move || -> io::Result<u64> {
                    let mut served = 0u64;
                    for _ in 0..rounds {
                        // Put the whole hand in flight before reading
                        // anything back: the reactor then sees hundreds
                        // of ready connections per poll() wait, which is
                        // what the ladder is there to exercise.
                        for conn in &mut hand {
                            write_window(conn)?;
                        }
                        for conn in &mut hand {
                            served += read_window(conn)? as u64;
                        }
                    }
                    Ok(served)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("ladder client panicked"))
            .sum::<io::Result<u64>>()
    })?;
    let wall = start.elapsed().as_secs_f64();
    drop(handle);
    Ok((served, wall))
}

fn main() {
    let opts = Opts::from_args();
    let bots = ((200.0 * opts.scale).round() as u64).max(1);

    // (conns, mode key, req/s) for every rung that ran; hoisted out of
    // the measured closure so the telemetry config can carry the curve.
    let mut curve: Vec<(usize, &'static str, f64)> = Vec::new();

    let (report, tele) = telemetry::measure("repro_protocol", &opts, |o| {
        let mut text = String::new();
        text.push_str("Protocol throughput — requests/sec through SpqService::handle\n");
        text.push_str(&format!(
            "{bots} BoTs x {TICKS} monitoring minutes, {} repetition(s)\n\n",
            o.seeds
        ));
        let mut total = 0u64;
        let (mut un_req, mut un_wall) = (0u64, 0.0f64);
        let (mut ba_req, mut ba_wall) = (0u64, 0.0f64);
        for _ in 0..o.seeds.max(1) {
            let (r, w) = unbatched(bots);
            un_req += r;
            un_wall += w;
            let (r, w) = batched(bots);
            ba_req += r;
            ba_wall += w;
        }
        total += un_req + ba_req;
        text.push_str(&format!(
            "unbatched : {:>12.0} req/s  ({un_req} requests in {un_wall:.3}s)\n",
            un_req as f64 / un_wall.max(1e-9),
        ));
        text.push_str(&format!(
            "batched   : {:>12.0} req/s  ({ba_req} requests in {ba_wall:.3}s)\n",
            ba_req as f64 / ba_wall.max(1e-9),
        ));

        text.push_str(&format!(
            "\nWire ladder — pipelined loopback exchanges, window {WINDOW}\n\
             (reactor = one shard, no router; sharded = {LADDER_SHARDS} shard reactors behind the router)\n\n"
        ));
        text.push_str(
            "conns    reactor+bin req/s   sharded+bin req/s   reactor+json req/s   shard speedup\n",
        );
        for &conns in &LADDER {
            let client_threads = if o.threads > 0 {
                o.threads
            } else {
                conns.min(8)
            };
            let mut row: Vec<String> = vec![format!("{conns:<8}")];
            let mut bin_rps = None;
            let mut sharded_rps = None;
            for mode in [
                WireMode::ReactorBin,
                WireMode::ShardedBin,
                WireMode::ReactorJson,
            ] {
                match rung(mode, conns, client_threads) {
                    Ok((served, wall)) => {
                        let rps = served as f64 / wall.max(1e-9);
                        total += served;
                        curve.push((conns, mode.key(), rps));
                        match mode {
                            WireMode::ReactorBin => bin_rps = Some(rps),
                            WireMode::ShardedBin => sharded_rps = Some(rps),
                            WireMode::ReactorJson => {}
                        }
                        row.push(format!("{rps:>21.0}"));
                    }
                    Err(e) => {
                        eprintln!("ladder: {} at {conns} conns failed: {e}", mode.key());
                        row.push(format!("{:>21}", "(failed)"));
                    }
                }
            }
            match (sharded_rps, bin_rps) {
                (Some(s), Some(b)) if b > 0.0 => row.push(format!("{:>14.2}x", s / b)),
                _ => row.push(format!("{:>15}", "—")),
            }
            text.push_str(&row.join(""));
            text.push('\n');
        }
        (text, Some(total))
    });
    print!("{report}");
    spq_harness::write_file(opts.out_dir.join("protocol.txt"), &report).expect("write report");

    let mut tele = tele
        .with_config("bots", bots)
        .with_config("ladder_shards", LADDER_SHARDS);
    /// Per-rung throughput by mode: (reactor_bin, sharded_bin).
    type RungRates = (Option<f64>, Option<f64>);
    let mut by_rung: std::collections::BTreeMap<usize, RungRates> =
        std::collections::BTreeMap::new();
    for &(conns, key, rps) in &curve {
        tele = tele.with_config(&format!("c{conns}_{key}_rps"), format!("{rps:.0}"));
        let entry = by_rung.entry(conns).or_default();
        match key {
            "reactor_bin" => entry.0 = Some(rps),
            "sharded_bin" => entry.1 = Some(rps),
            _ => {}
        }
    }
    for (conns, (bin, sharded)) in by_rung {
        if let (Some(s), Some(b)) = (sharded, bin) {
            if b > 0.0 {
                tele = tele.with_config(
                    &format!("c{conns}_sharded_speedup"),
                    format!("{:.2}", s / b),
                );
            }
        }
    }
    tele.write_or_warn();
}
