//! The four wire workloads: a reactor thread (in-process `Server::spawn*`)
//! and this thread as the only load generator, over loopback TCP.
//!
//! Every repeat sets up from nothing — script, oracle, server,
//! connections, priming — so `setup_s` has one sample per repeat and a
//! repeat never inherits state from the one before.

use crate::args::Args;
use crate::layers::Replayer;
use crate::loadgen::{self, Conn, PhaseStats};
use crate::metrics::Samples;
use crate::procfs::{self, ThreadUsage};
use crate::script::{self, Frames, Script, Spec, Traffic};
use crate::speed::Speed;
use crate::stats::quantile_us;
use crate::trace::Recorder;
use spequlos::wal::{FsyncPolicy, WalStore};
use spequlos::{encode_state_json, SpeQuloS};
use spq_server::{Codec, DurabilityConfig, Server, ServerConfig, ServerHandle};
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

// Sizing: requests (or frames) per second of a phase, so that a phase
// lasts about its share of a repeat's budget at the speed of the commit
// that introduced the benchmark (README.md, "Sizing").
const BIN_PIPELINED_RPS: f64 = 1_800_000.0;
const BIN_ROUND_TRIPS_PS: f64 = 130_000.0;
const BIN_OPEN_RATE: f64 = 50_000.0;
const JSON_BATCH_FPS: f64 = 900.0;
const DURABLE_PIPELINED_RPS: f64 = 40_000.0;
const DURABLE_ROUND_TRIPS_PS: f64 = 20_000.0;
const DURABLE_OPEN_RATE: f64 = 5_000.0;
const DURABLE_ALWAYS_RPS: f64 = 3_500.0;
const IDLE_ROUND_TRIPS_PS: f64 = 1_700.0;

/// Requests the durable server has logged when it is restarted. Kept
/// small because recovery parses the newest snapshot, and today that
/// costs time quadratic in the snapshot's size.
const DURABLE_RESTART_AFTER: usize = 5_000;
/// Silent, hello-negotiated connections the idle fan-in holds open.
const IDLE_CONNS: usize = 2_048;
/// Server instances one repeat of the idle fan-in runs.
const IDLE_INSTANCES: usize = 6;
/// The load-bearing connections of every wire workload.
const CONNS: usize = 2;
/// Frames per window and windows in flight, single-request traffic.
const WINDOW: usize = 32;
const DEPTH: usize = 2;

/// How one repeat of a workload spends its frames: per connection, in
/// the order the phases run.
pub struct Plan {
    pub spec: Spec,
    /// Untimed pipelined frames before the durable server's restart.
    pub before: usize,
    /// The pipelined closed loop: throughput and server CPU.
    pub pipelined: usize,
    /// One request in flight: the fan-in's only phase; elsewhere round
    /// trips for the traced run.
    pub single: usize,
    /// Open loop; the traced run only.
    pub open: usize,
}

/// The plan of workload `name` for the run's `--seconds` and `--repeats`.
pub fn plan(args: &Args, name: &str) -> Plan {
    let frames = |share: f64, per_second: f64| {
        let total = args.repeat_budget() * share * per_second;
        ((total / CONNS as f64).ceil() as usize).max(1)
    };
    let traced = |frames: usize| if args.trace { frames } else { 0 };
    let (codec, traffic, before, pipelined, single, open) = match name {
        "wire_bin" => (
            Codec::Binary,
            Traffic::Sessions,
            0,
            frames(0.55, BIN_PIPELINED_RPS),
            traced(frames(0.2, BIN_ROUND_TRIPS_PS)),
            traced(frames(0.2, BIN_OPEN_RATE)),
        ),
        "wire_json_batch" => (
            Codec::Json,
            Traffic::BatchTicks,
            0,
            frames(0.9, JSON_BATCH_FPS),
            0,
            0,
        ),
        "wire_durable" => (
            Codec::Binary,
            Traffic::Sessions,
            DURABLE_RESTART_AFTER / CONNS,
            frames(0.6, DURABLE_PIPELINED_RPS),
            traced(frames(0.15, DURABLE_ROUND_TRIPS_PS)),
            traced(frames(0.15, DURABLE_OPEN_RATE)),
        ),
        "wire_idle_fanin" => (
            Codec::Binary,
            Traffic::Sessions,
            0,
            0,
            frames(0.9 / IDLE_INSTANCES as f64, IDLE_ROUND_TRIPS_PS),
            0,
        ),
        other => panic!("{other} is not a wire workload"),
    };
    Plan {
        spec: Spec {
            codec,
            traffic,
            conns: CONNS,
            frames_per_conn: before + pipelined + single + open,
        },
        before,
        pipelined,
        single,
        open,
    }
}

/// What a workload run accumulates over its repeats.
pub struct Run<'a> {
    pub args: &'a Args,
    pub samples: Samples,
    pub rec: Recorder,
    pub attempted: u64,
    pub failed: u64,
    /// The in-process stage replay of the traced run.
    pub replayer: Option<Replayer>,
    /// Probes around every measured phase; see [`crate::speed`].
    pub speed: Speed,
    generator: u32,
}

impl<'a> Run<'a> {
    pub fn new(args: &'a Args, name: &str) -> Run<'a> {
        Run {
            args,
            samples: Samples::default(),
            rec: Recorder::new(args.trace),
            attempted: 0,
            failed: 0,
            replayer: args.trace.then(|| Replayer::new(args, name)),
            speed: Speed::start(),
            generator: procfs::current_tid(),
        }
    }

    /// What precedes every repeat: in the traced run, one replay round.
    fn before_repeat(&mut self) -> io::Result<()> {
        if let Some(replayer) = self.replayer.as_mut() {
            replayer.round(&mut self.samples, &mut self.rec)?;
        }
        self.speed.skip();
        Ok(())
    }
}

/// A server with primed connections and the script they will send.
struct Rig {
    script: Script,
    server: ServerHandle,
    conns: Vec<Conn>,
    /// Next timed frame of every connection.
    at: usize,
}

impl Rig {
    /// Builds the script and its oracle, spawns the server, connects and
    /// primes. Everything here is set-up time.
    fn new(
        run: &Run<'_>,
        spec: Spec,
        spawn: impl FnOnce() -> io::Result<ServerHandle>,
    ) -> io::Result<Rig> {
        let mut script = script::build(run.args.seed, &spec, &mut SpeQuloS::new());
        assert_eq!(
            script.oracle_errors, 0,
            "the script must not provoke errors"
        );
        if run.args.corrupt_oracle {
            for conn in &mut script.conns {
                conn.expected_crc ^= 1;
            }
        }
        let server = spawn()?;
        let mut conns = Vec::with_capacity(spec.conns);
        for _ in 0..spec.conns {
            conns.push(Conn::connect(server.addr(), spec.codec)?);
        }
        // One connection after the other: BoT ids are minted in this order.
        for (conn, part) in conns.iter_mut().zip(&script.conns) {
            conn.exchange(&part.prime, 64)?;
        }
        Ok(Rig {
            script,
            server,
            conns,
            at: 0,
        })
    }

    /// The next `frames` timed frames of every connection, as the
    /// arguments of a load-generator call.
    fn next(&mut self, frames: usize) -> (&mut [Conn], Vec<&Frames>, Vec<Range<usize>>) {
        let range = self.at..self.at + frames;
        self.at += frames;
        (
            &mut self.conns,
            self.script.conns.iter().map(|c| &c.timed).collect(),
            vec![range; CONNS],
        )
    }

    /// Compares every connection with the oracle; returns the failures:
    /// error or out-of-order replies, missing replies, CRC mismatches.
    fn verify(&self) -> u64 {
        let mut failed = 0;
        for (c, (conn, part)) in self.conns.iter().zip(&self.script.conns).enumerate() {
            let expected = (part.prime.len() + part.timed.len()) as u64;
            failed += conn.bad_replies + expected.saturating_sub(conn.next_id);
            if conn.crc.value() != part.expected_crc {
                eprintln!(
                    "connection {c}: reply CRC {:08x}, oracle expected {:08x}",
                    conn.crc.value(),
                    part.expected_crc
                );
                failed += 1;
            }
        }
        failed
    }

    /// Checks the outputs and stops the server.
    fn finish(self, run: &mut Run<'_>) -> SpeQuloS {
        assert_eq!(
            self.at, self.script.spec.frames_per_conn,
            "every frame was sent"
        );
        run.failed += self.verify();
        drop(self.conns);
        self.server.into_service()
    }
}

fn spawn_plain() -> io::Result<ServerHandle> {
    Server::spawn(SpeQuloS::new(), "127.0.0.1:0", ServerConfig::default())
}

/// A phase with the CPU its two sides used: every thread but the
/// generator is the server.
struct Metered {
    phase: PhaseStats,
    server: ThreadUsage,
    generator: ThreadUsage,
    /// The phase's speed factor: times × it, rates ÷ it.
    factor: f64,
}

/// Runs a phase that starts right after a probe, and probes after it.
fn metered(
    generator: u32,
    speed: &mut Speed,
    f: impl FnOnce() -> io::Result<PhaseStats>,
) -> io::Result<Metered> {
    let server0 = procfs::usage_except(generator);
    let gen0 = procfs::thread_usage(generator);
    let phase = f()?;
    Ok(Metered {
        phase,
        server: procfs::usage_except(generator).since(server0),
        generator: procfs::thread_usage(generator).since(gen0),
        factor: speed.lap(),
    })
}

/// How a closed-loop phase's rate is taken.
#[derive(Clone, Copy, PartialEq)]
enum Rate {
    /// Median over the phase's chunks: stalls of the sandbox drop out.
    Steady,
    /// Frames over wall time: for a server with periodic work of its own
    /// (snapshots), which a median over chunks would drop out too.
    Whole,
}

/// What closed-loop phases say about the server, summed over the
/// instances a repeat runs.
#[derive(Default)]
struct Closed {
    ops: f64,
    wall: f64,
    /// Sum of the instances' rates, in operations per second at
    /// reference speed.
    rates: f64,
    instances: f64,
    server: ThreadUsage,
    /// The server's CPU time at reference speed.
    server_cpu_ns: f64,
    generator: ThreadUsage,
}

impl Closed {
    fn add(&mut self, m: &Metered, ops_per_frame: usize, rate: Rate) {
        let ops = (m.phase.frames * ops_per_frame as u64) as f64;
        let wall = m.phase.wall.as_secs_f64();
        self.ops += ops;
        self.wall += wall;
        self.rates += match rate {
            Rate::Steady => m.phase.steady_rate * ops_per_frame as f64,
            Rate::Whole => ops / wall,
        } / m.factor;
        self.instances += 1.0;
        self.server_cpu_ns += m.server.cpu_ns as f64 * m.factor;
        self.server.cpu_ns += m.server.cpu_ns;
        self.server.voluntary_switches += m.server.voluntary_switches;
        self.generator.cpu_ns += m.generator.cpu_ns;
    }
}

impl Run<'_> {
    /// A pipelined closed-loop phase over the next `frames` frames of
    /// every connection: the workload's throughput and server CPU.
    fn pipelined(
        &mut self,
        rig: &mut Rig,
        frames: usize,
        (window, depth): (usize, usize),
        rate: Rate,
        round_trips: Option<&mut Vec<u64>>,
    ) -> io::Result<f64> {
        let ops_per_frame = rig.script.spec.requests_per_frame();
        let (conns, scripts, ranges) = rig.next(frames);
        let (rec, speed) = (&mut self.rec, &mut self.speed);
        let m = metered(self.generator, speed, || {
            loadgen::run_closed(conns, &scripts, &ranges, window, depth, rec, round_trips)
        })?;
        let mut closed = Closed::default();
        closed.add(&m, ops_per_frame, rate);
        self.push_closed(&closed);
        Ok(m.factor)
    }

    /// One request in flight at a time, alternating over the
    /// connections; pushes the round trips to `nanos`.
    fn round_trips(
        &mut self,
        rig: &mut Rig,
        frames: usize,
        nanos: &mut Vec<u64>,
    ) -> io::Result<Metered> {
        let (conns, scripts, ranges) = rig.next(frames);
        let (rec, speed) = (&mut self.rec, &mut self.speed);
        metered(self.generator, speed, || {
            loadgen::run_alternating(conns, &scripts, &ranges, rec, nanos)
        })
    }

    /// The one-in-flight phase of a pipelined workload; the traced run
    /// only.
    fn rtt_phase(&mut self, rig: &mut Rig, frames: usize) -> io::Result<()> {
        let mut nanos = Vec::with_capacity(frames * CONNS);
        let m = self.round_trips(rig, frames, &mut nanos)?;
        self.attempted += m.phase.frames;
        self.push_rtt(
            quantile_us(&mut nanos, 0.25) * m.factor,
            quantile_us(&mut nanos, 0.5) * m.factor,
        );
        Ok(())
    }

    /// Open loop at `rate`: reported by the traced run only, because its
    /// percentiles measure this sandbox's scheduler (README.md).
    fn open_loop(&mut self, rig: &mut Rig, frames: usize, rate: f64) -> io::Result<()> {
        let (conns, scripts, ranges) = rig.next(frames);
        let mut open = loadgen::run_open(conns, &scripts, &ranges, rate)?;
        self.attempted += open.phase.frames;
        let nanos = &mut open.sojourn_ns;
        self.samples
            .push("loadgen.open_p50_us", quantile_us(nanos, 0.5));
        self.samples
            .push("loadgen.p99_us", quantile_us(nanos, 0.99));
        self.samples
            .push("loadgen.p999_us", quantile_us(nanos, 0.999));
        self.samples
            .push("loadgen.max_late_ms", open.max_late.as_secs_f64() * 1e3);
        Ok(())
    }

    fn push_closed(&mut self, c: &Closed) {
        let throughput = c.rates / c.instances;
        let cpu_us_per_op = c.server_cpu_ns / 1e3 / c.ops;
        if self.args.trace {
            self.samples.push("trace.throughput_per_s", throughput);
            self.samples.push("trace.cpu_us_per_op", cpu_us_per_op);
            self.samples
                .push("reactor.cpu_share", c.server.cpu_ns as f64 / 1e9 / c.wall);
            self.samples.push(
                "reactor.ctxsw_per_req",
                c.server.voluntary_switches as f64 / c.ops,
            );
            self.samples.push(
                "loadgen.busy_share",
                c.generator.cpu_ns as f64 / 1e9 / c.wall,
            );
        } else {
            self.samples.push("throughput_per_s", throughput);
            self.samples.push("cpu_us_per_op", cpu_us_per_op);
        }
        self.attempted += c.ops as u64;
    }

    /// The end-to-end latency: the lower quartile of the round trips of
    /// the closed loop that gives the workload its throughput.
    fn push_latency(&mut self, nanos: &mut [u64], factor: f64) {
        if !self.args.trace {
            self.samples
                .push("latency_p25_us", quantile_us(nanos, 0.25) * factor);
        }
    }

    /// Round trips with one request in flight, as layer metrics: on two
    /// descriptors they time this sandbox's wake-up of a halted vCPU
    /// (6 µs in one spell, 47 µs in another), not the server.
    fn push_rtt(&mut self, p25_us: f64, p50_us: f64) {
        if self.args.trace {
            self.samples.push("loadgen.rtt_p25_us", p25_us);
            self.samples.push("loadgen.rtt_p50_us", p50_us);
        }
    }

    /// Ends a set-up that began at `since`, right after a probe.
    fn push_setup(&mut self, since: Instant) {
        let setup = since.elapsed().as_secs_f64() * self.speed.lap();
        if !self.args.trace {
            self.samples.push("setup_s", setup);
        }
    }
}

/// `wire_bin`: binary codec, single-request frames. Pipelined closed
/// loop (two connections, each two 32-frame windows in flight), then one
/// request in flight at a time; the traced run adds the same traffic open
/// loop at 50 000 req/s.
pub fn wire_bin(run: &mut Run<'_>) -> io::Result<()> {
    let plan = plan(run.args, "wire_bin");
    for _ in 0..run.args.repeats {
        run.before_repeat()?;
        let t0 = Instant::now();
        let mut rig = Rig::new(run, plan.spec, spawn_plain)?;
        run.push_setup(t0);
        let mut nanos = Vec::new();
        let factor = run.pipelined(
            &mut rig,
            plan.pipelined,
            (WINDOW, DEPTH),
            Rate::Steady,
            Some(&mut nanos),
        )?;
        run.push_latency(&mut nanos, factor);
        if plan.single > 0 {
            run.rtt_phase(&mut rig, plan.single)?;
        }
        if plan.open > 0 {
            run.open_loop(&mut rig, plan.open, BIN_OPEN_RATE)?;
        }
        rig.finish(run);
    }
    Ok(())
}

/// `wire_json_batch`: JSON codec, every frame a batch of 64
/// `ReportProgress`, two frames in flight per connection; latency is the
/// round trip of a frame in that closed loop.
pub fn wire_json_batch(run: &mut Run<'_>) -> io::Result<()> {
    let plan = plan(run.args, "wire_json_batch");
    for _ in 0..run.args.repeats {
        run.before_repeat()?;
        let t0 = Instant::now();
        let mut rig = Rig::new(run, plan.spec, spawn_plain)?;
        run.push_setup(t0);
        let mut nanos = Vec::with_capacity(plan.pipelined * CONNS);
        let factor = run.pipelined(
            &mut rig,
            plan.pipelined,
            (1, 2),
            Rate::Steady,
            Some(&mut nanos),
        )?;
        run.push_latency(&mut nanos, factor);
        rig.finish(run);
    }
    Ok(())
}

/// Scratch directory of one durable repeat, removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(out: &Path, label: &str) -> io::Result<ScratchDir> {
        let dir = out.join(format!("tmp-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn is_snapshot(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "json")
}

fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

fn wal_error(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

fn spawn_durable(dir: &Path, fsync: FsyncPolicy) -> io::Result<ServerHandle> {
    let mut durability = DurabilityConfig::new(dir);
    durability.fsync = fsync;
    let config = ServerConfig::default();
    Server::spawn_durable(SpeQuloS::new(), "127.0.0.1:0", config, durability)
        .map(|(handle, _report)| handle)
        .map_err(wal_error)
}

/// `wire_durable`: `wire_bin`'s traffic against `Server::spawn_durable`
/// with fsync off and the default snapshot period. The server is
/// restarted early, after 5 000 requests — the timed recovery — and the
/// recovered server serves the pipelined closed loop and the
/// one-in-flight round trips. The traced run adds an open loop at
/// 5 000 req/s and the closed loop with fsync on every append.
pub fn wire_durable(run: &mut Run<'_>) -> io::Result<()> {
    let Plan {
        spec,
        before,
        pipelined,
        single,
        open,
    } = plan(run.args, "wire_durable");
    for rep in 0..run.args.repeats {
        run.before_repeat()?;
        let t0 = Instant::now();
        let scratch = ScratchDir::new(&run.args.out, &format!("durable-{rep}"))?;
        let dir = scratch.0.as_path();
        let mut rig = Rig::new(run, spec, || spawn_durable(dir, FsyncPolicy::Never))?;
        run.push_setup(t0);
        {
            let (conns, scripts, ranges) = rig.next(before);
            let mut silent = Recorder::new(false);
            let phase =
                loadgen::run_closed(conns, &scripts, &ranges, WINDOW, DEPTH, &mut silent, None)?;
            run.attempted += phase.frames;
        }

        // Restart: what an operator waits for after a crash or an upgrade.
        drop(rig.server.into_service());
        let t_recover = Instant::now();
        rig.server = spawn_durable(dir, FsyncPolicy::Never)?;
        let recovery = t_recover.elapsed().as_secs_f64();
        for conn in &mut rig.conns {
            conn.reconnect(rig.server.addr())?;
        }

        run.speed.skip();
        let mut nanos = Vec::new();
        let rate = Rate::Whole;
        let factor = run.pipelined(&mut rig, pipelined, (WINDOW, DEPTH), rate, Some(&mut nanos))?;
        run.push_latency(&mut nanos, factor);
        if single > 0 {
            run.rtt_phase(&mut rig, single)?;
        }
        if open > 0 {
            run.open_loop(&mut rig, open, DURABLE_OPEN_RATE)?;
        }
        let acknowledged: u64 = rig.conns.iter().map(|c| c.next_id).sum();
        let served = rig.finish(run);

        let disk_bytes_per_req = dir_bytes(dir)? as f64 / acknowledged as f64;
        if run.args.trace {
            run.samples.push("durable.recovery_s", recovery);
            run.samples
                .push("durable.disk_bytes_per_req", disk_bytes_per_req);
        } else {
            println!(
                "  recovery_s {recovery:.6} s, disk_bytes_per_req {disk_bytes_per_req:.2} B \
                 (layer metrics of the traced run)"
            );
        }

        // Acknowledged ⇒ durable: the log alone rebuilds the state the
        // server held, byte for byte. (The server itself came back from
        // a snapshot plus the log's tail, so that path is covered too;
        // replaying the whole log here avoids parsing the final, largest
        // snapshot.)
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if is_snapshot(&path) {
                std::fs::remove_file(path)?;
            }
        }
        let (_, log) = WalStore::open(dir, FsyncPolicy::Never).map_err(wal_error)?;
        let (replayed, _) = log.recover(SpeQuloS::new()).map_err(wal_error)?;
        let same = encode_state_json(&served).map_err(wal_error)?
            == encode_state_json(&replayed).map_err(wal_error)?;
        run.attempted += 1;
        if !same {
            eprintln!("the log replays to a state other than the one the server held");
            run.failed += 1;
        }
    }
    if run.args.trace {
        fsync_always(run)?;
    }
    Ok(())
}

/// The closed loop again with `FsyncPolicy::Always`: a layer metric only
/// — on this sandbox's disk identical sets gave medians 20 % apart.
fn fsync_always(run: &mut Run<'_>) -> io::Result<()> {
    let frames = ((run.args.repeat_budget() * 0.25 * DURABLE_ALWAYS_RPS) as usize / CONNS).max(1);
    let spec = Spec {
        codec: Codec::Binary,
        traffic: Traffic::Sessions,
        conns: CONNS,
        frames_per_conn: frames,
    };
    for rep in 0..run.args.repeats {
        let scratch = ScratchDir::new(&run.args.out, &format!("always-{rep}"))?;
        let dir = scratch.0.as_path();
        let mut rig = Rig::new(run, spec, || spawn_durable(dir, FsyncPolicy::Always))?;
        let (conns, scripts, ranges) = rig.next(frames);
        let mut silent = Recorder::new(false);
        let phase =
            loadgen::run_closed(conns, &scripts, &ranges, WINDOW, DEPTH, &mut silent, None)?;
        run.samples.push(
            "wal.fsync_always_rps",
            phase.frames as f64 / phase.wall.as_secs_f64(),
        );
        run.attempted += phase.frames;
        rig.finish(run);
    }
    Ok(())
}

/// `wire_idle_fanin`: 2 048 silent connections held open while one
/// request at a time alternates over the two load-bearing ones, so every
/// request pays a full readiness wait over ~2 050 descriptors.
///
/// What such a wait costs depends on where the kernel happened to put
/// those 2 050 sockets — between one server instance and the next it
/// differs by 15 % and more — so a repeat runs six instances and
/// reports their mean.
pub fn wire_idle_fanin(run: &mut Run<'_>) -> io::Result<()> {
    const INSTANCES: usize = IDLE_INSTANCES;
    let Plan {
        spec,
        single: frames,
        ..
    } = plan(run.args, "wire_idle_fanin");
    // Both ends of every connection live in this process.
    let budget = (procfs::max_open_files() as usize).saturating_sub(64) / 2;
    let idle = IDLE_CONNS.min(budget.saturating_sub(CONNS));
    if idle < IDLE_CONNS {
        eprintln!(
            "warning: the descriptor limit allows only {idle} of {IDLE_CONNS} idle connections; \
             results are not comparable with a full run"
        );
    }
    for _ in 0..run.args.repeats {
        run.before_repeat()?;
        let mut setup = 0.0;
        let mut closed = Closed::default();
        let (mut p25, mut p50) = (0.0, 0.0);
        let mut all = Vec::new();
        for _ in 0..INSTANCES {
            run.speed.skip();
            let t0 = Instant::now();
            let mut rig = Rig::new(run, spec, spawn_plain)?;
            let silent = loadgen::handshake_many(rig.server.addr(), Codec::Binary, idle)?;
            setup += t0.elapsed().as_secs_f64() * run.speed.lap();
            let mut nanos = Vec::with_capacity(frames * CONNS);
            let m = run.round_trips(&mut rig, frames, &mut nanos)?;
            closed.add(&m, 1, Rate::Steady);
            p25 += quantile_us(&mut nanos, 0.25) * m.factor / INSTANCES as f64;
            p50 += quantile_us(&mut nanos, 0.5) * m.factor / INSTANCES as f64;
            all.extend(nanos.iter().map(|&ns| (ns as f64 * m.factor) as u64));
            drop(silent);
            rig.finish(run);
        }
        if !run.args.trace {
            run.samples.push("setup_s", setup);
        }
        run.push_closed(&closed);
        run.push_latency(&mut all, 1.0);
        run.push_rtt(p25, p50);
    }
    Ok(())
}
