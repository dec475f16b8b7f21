//! The connection ladder: requests/sec through a live `spq-server`
//! over real loopback sockets at 1 → 4 096 concurrent connections.
//!
//! Pipelined request/response exchanges over loopback TCP at {1, 64,
//! 1024, 4096} concurrent connections, under three server/codec
//! combinations — the single-shard server with the negotiated binary
//! codec (PROTOCOL.md §4–§5), the sharded server ([`LADDER_SHARDS`]
//! shard reactors behind the accept-and-route layer, binary codec), and
//! the single-shard server with the JSON codec (§3). This is the one
//! throughput measurement the repository's benchmark (`benchmark/`: two
//! load-bearing connections, one reactor) cannot host; what a request
//! costs inside `SpqService::handle` is its `service.handle_ns*`.
//!
//! Each ladder connection deposits as its own user (user = global
//! connection index), so on the sharded rung the connections spread
//! evenly across shards and every request stays shard-local. Honesty
//! note on the sharded rung: shard parallelism needs cores — on a
//! single-core host the shard reactors time-slice one CPU and the
//! `shard speedup` column lands ≈1.0 (slightly below, paying for the
//! router hop); the ≥3× figure is only observable on a multi-core host.
//! See BENCHMARKS.md § Sharded ladder.
//!
//! Emits `BENCH_repro_protocol.json` for the `spq-bench compare` CI
//! gate: every rung's req/s is one key of the record's numeric `metrics`
//! object (`c<conns>_<mode>_rps`), gated on its own; a rung that fails
//! writes no key, which the gate reports as a regression. The speedup
//! column is text only — a ratio of two gated rungs, never gated itself.
//!
//! The ladder is climbed [`PASSES`] times — a rung's rate is the median
//! of its passes — regardless of `--seeds` and `--scale`. `--threads`
//! overrides the ladder's client thread count (0 = min(8,
//! connections)).

use simcore::SimTime;
use spequlos::protocol::{Request, Response};
use spequlos::{SpeQuloS, UserId};
use spq_bench::{telemetry, Opts};
use spq_server::{
    Codec, RemoteService, Server, ServerConfig, ServerHandle, ShardConfig, ShardedHandle,
    ShardedServer,
};
use std::io;
use std::net::SocketAddr;
use std::time::Instant;

/// Connection counts the ladder climbs.
const LADDER: [usize; 4] = [1, 64, 1024, 4096];

/// Frames pipelined per connection per round: write the whole window,
/// flush once, then read the window of replies. Well under the server's
/// 256 KiB write high-water mark (PROTOCOL.md §9).
const WINDOW: usize = 16;

/// Approximate requests per (rung × mode × pass); rounds are derived
/// from it so every connection sends at least one window. Sized so a
/// rung measures for about a second; a 30 ms rung's rate moves ±50 %
/// between runs (BENCHMARKS.md § The connection ladder has the measured
/// spreads).
const RUNG_TARGET: usize = 1_000_000;

/// Times the whole ladder is climbed. A rung's rate is the median over
/// its passes: the host's vCPUs change speed — and, on the
/// one-connection rungs, wake latency — for seconds at a time, which a
/// longer rung cannot average out but passes a ladder apart can.
const PASSES: usize = 3;

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

/// Median of a rung's passes; `None` when any pass failed.
fn median(mut passes: Vec<f64>) -> Option<f64> {
    passes.sort_by(f64::total_cmp);
    (passes.len() == PASSES).then(|| passes[PASSES / 2])
}

fn main() {
    let opts = Opts::from_args();
    const MODES: [WireMode; 3] = [
        WireMode::ReactorBin,
        WireMode::ShardedBin,
        WireMode::ReactorJson,
    ];

    // (metric key, req/s) for every rung that ran; hoisted out of the
    // measured closure so the telemetry record can carry the curve.
    let mut curve: Vec<(String, f64)> = Vec::new();

    let (report, mut tele) = telemetry::measure("repro_protocol", &opts, |o| {
        // rates[rung][mode]: one sample per pass that succeeded.
        let mut rates = vec![[const { Vec::new() }; MODES.len()]; LADDER.len()];
        for _ in 0..PASSES {
            for (&conns, rung_rates) in LADDER.iter().zip(&mut rates) {
                let client_threads = if o.threads > 0 {
                    o.threads
                } else {
                    conns.min(8)
                };
                for (mode, samples) in MODES.iter().zip(rung_rates) {
                    match rung(*mode, conns, client_threads) {
                        Ok((served, wall)) => samples.push(served as f64 / wall.max(1e-9)),
                        Err(e) => eprintln!("ladder: {} at {conns} conns failed: {e}", mode.key()),
                    }
                }
            }
        }

        let mut text = format!(
            "Wire ladder — pipelined loopback exchanges, window {WINDOW}, median of {PASSES} passes\n\
             (reactor = one shard, no router; sharded = {LADDER_SHARDS} shard reactors behind the router)\n\n"
        );
        text.push_str(
            "conns    reactor+bin req/s   sharded+bin req/s   reactor+json req/s   shard speedup\n",
        );
        for (&conns, rung_rates) in LADDER.iter().zip(rates) {
            let [bin, sharded, json] = rung_rates.map(median);
            text.push_str(&format!("{conns:<8}"));
            for (mode, rps) in MODES.iter().zip([bin, sharded, json]) {
                match rps {
                    Some(rps) => {
                        curve.push((format!("c{conns}_{}_rps", mode.key()), rps.round()));
                        text.push_str(&format!("{rps:>21.0}"));
                    }
                    None => text.push_str(&format!("{:>21}", "(failed)")),
                }
            }
            match (sharded, bin) {
                (Some(sharded), Some(bin)) if bin > 0.0 => {
                    text.push_str(&format!("{:>14.2}x\n", sharded / bin));
                }
                _ => text.push_str(&format!("{:>15}\n", "—")),
            }
        }
        (text, None)
    });
    print!("{report}");
    spq_harness::write_file(opts.out_dir.join("protocol.txt"), &report).expect("write report");

    tele.metrics = curve;
    tele.with_config("ladder_shards", LADDER_SHARDS)
        .with_config("passes", PASSES)
        .write_or_warn();
}
