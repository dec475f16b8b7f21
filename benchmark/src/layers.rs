//! Per-layer costs of a wire workload, from outside the layers.
//!
//! The traced run replays a prefix of the workload's script in-process,
//! in blocks of 1 024 requests, calling each layer's public functions in
//! the order the reactor does and timing each stage over the whole block
//! (so the timer is not the cost). What the reactor spends beyond these
//! stages — syscalls, readiness waits, buffer management — is the
//! residual: the traced wire run's CPU per request minus the stage sum.
//! Layers a workload is the only one to exercise get micro-probes here
//! too (write-ahead log, snapshots, the poller, the routed service).

use crate::args::Args;

use crate::metrics::Samples;
use crate::procfs;
use crate::script::{self, Frames, Spec};
use crate::speed::Speed;
use crate::stats::median;
use crate::trace::{Open, Recorder, ROOT};
use crate::wire;
use polling::{Event, Poller};
use simcore::SimTime;
use spequlos::protocol::{encode_session_entry, Request, SpqService};
use spequlos::wal::{FsyncPolicy, WalStore};
use spequlos::{encode_state, restore_state, SpeQuloS};
use spq_harness::RoutedService;
use spq_server::frame::{decode_binary_frame, decode_json_frame, MAX_FRAME_BYTES};
use spq_server::{binary, Codec, RequestEnvelope, ResponseEnvelope};
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Requests per timed block.
const BLOCK: usize = 1_024;
/// The durable server's default snapshot period.
const SNAPSHOT_EVERY: usize = 4_096;
/// The stages whose per-request costs, summed, are compared with the
/// server's CPU per request. `wal.encode_ns` is not among them: the
/// encoding happens inside `WalStore::append`.
const STAGES: [&str; 9] = [
    "frame.bin_split_ns",
    "frame.json_split_ns",
    "binary.decode_req_ns",
    "wire.decode_req_ns",
    "wal.append_ns",
    "service.handle_ns",
    "snapshot.cpu_ns_per_req",
    "binary.encode_resp_ns",
    "wire.encode_resp_ns",
];

/// Stage totals of one replay, in nanoseconds over `requests` requests.
#[derive(Default)]
struct Stages {
    requests: u64,
    split: Duration,
    decode: Duration,
    wal_append: Duration,
    handle: Duration,
    /// CPU time of the snapshot writes (`schedstat`, tick granularity),
    /// and their wall time.
    snapshot: Duration,
    snapshot_wall: Duration,
    snapshots: u64,
    encode: Duration,
    errors: u64,
    request_bytes: u64,
    reply_bytes: u64,
}

impl Stages {
    fn per_req(&self, d: Duration) -> f64 {
        d.as_nanos() as f64 / self.requests as f64
    }
}

/// Where a stage's span goes: the recorder, the enclosing span, the
/// block's id.
struct Scope<'a> {
    rec: &'a mut Recorder,
    parent: Open,
    block: u32,
}

impl Scope<'_> {
    /// Runs `f` as the stage `name`: one span, its wall time added to
    /// `total`.
    fn stage<T>(&mut self, total: &mut Duration, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = self.rec.time(name, self.parent, self.block, f);
        *total += start.elapsed();
        out
    }
}

/// Cuts `bytes` into payloads with `next`, which takes one frame off the
/// front.
fn split_all<P>(bytes: &[u8], next: impl Fn(&[u8]) -> Option<(P, usize)>) -> Vec<P> {
    let mut payloads = Vec::new();
    let mut at = 0;
    while let Some((payload, used)) = next(&bytes[at..]) {
        payloads.push(payload);
        at += used;
    }
    payloads
}

/// Splits and decodes the frames in `bytes` the way the reactor does.
fn decode_frames(
    codec: Codec,
    bytes: &[u8],
    stages: &mut Stages,
    scope: &mut Scope<'_>,
) -> Vec<RequestEnvelope> {
    stages.request_bytes += bytes.len() as u64;
    match codec {
        Codec::Binary => {
            let payloads = scope.stage(&mut stages.split, "frame.split", || {
                split_all(bytes, |rest| {
                    decode_binary_frame(rest, MAX_FRAME_BYTES)
                        .expect("the script's own frames decode")
                })
            });
            scope.stage(&mut stages.decode, "binary.decode", || {
                payloads
                    .iter()
                    .map(|p| binary::decode_request(p).expect("the script's own payloads decode"))
                    .collect()
            })
        }
        Codec::Json => {
            let payloads = scope.stage(&mut stages.split, "frame.split", || {
                split_all(bytes, |rest| {
                    decode_json_frame(rest, MAX_FRAME_BYTES)
                        .expect("the script's own frames decode")
                })
            });
            scope.stage(&mut stages.decode, "wire.decode", || {
                payloads
                    .iter()
                    .map(|p| {
                        RequestEnvelope::from_json(p).expect("the script's own payloads decode")
                    })
                    .collect()
            })
        }
    }
}

fn encode_replies(codec: Codec, replies: &[ResponseEnvelope]) -> u64 {
    let mut bytes = 0;
    for reply in replies {
        bytes += match codec {
            Codec::Binary => std::hint::black_box(binary::encode_response(reply)).len() + 4,
            Codec::Json => {
                let text = std::hint::black_box(reply.to_json());
                text.len() + text.len().to_string().len() + 2
            }
        };
    }
    bytes as u64
}

/// Replays `script`'s single connection through the layers. With `wal`
/// the requests are also appended, and the state snapshotted every
/// [`SNAPSHOT_EVERY`] requests, as `spawn_durable` does.
fn replay(
    script: &script::Script,
    prefix: usize,
    mut wal: Option<&mut WalStore>,
    rec: &mut Recorder,
) -> (Stages, SpeQuloS) {
    let codec = script.spec.codec;
    let part = &script.conns[0];
    let mut service = SpeQuloS::new();
    let mut silent = Recorder::new(false);
    // Priming and the first `prefix` frames build the state the measured
    // phase starts from; their costs go to `warm_up` and are dropped.
    let (mut stages, mut warm_up) = (Stages::default(), Stages::default());
    let primed = decode_frames(
        codec,
        &part.prime.bytes,
        &mut warm_up,
        &mut Scope {
            rec: &mut silent,
            parent: ROOT,
            block: 0,
        },
    );
    for env in primed {
        if let Some(wal) = wal.as_deref_mut() {
            wal.append(env.at, &env.request)
                .expect("scratch log appends");
        }
        service.handle(env.request, env.at);
    }
    let per_frame = script.spec.requests_per_frame();
    let frames_per_block = (BLOCK / per_frame).max(1);
    let me = procfs::current_tid();
    let mut since_snapshot = part.prime.len();
    let mut from = 0;
    let mut block = 0u32;
    while from < part.timed.len() {
        let measured = from >= prefix;
        let end = if measured { part.timed.len() } else { prefix };
        let to = (from + frames_per_block).min(end);
        let (stages, rec) = if measured {
            (&mut stages, &mut *rec)
        } else {
            (&mut warm_up, &mut silent)
        };
        let span = rec.open("block", ROOT, block);
        let mut scope = Scope {
            rec,
            parent: span,
            block,
        };
        let bytes = part.timed.slice(from, to);
        let envelopes = decode_frames(codec, bytes, stages, &mut scope);
        if let Some(wal) = wal.as_deref_mut() {
            scope.stage(&mut stages.wal_append, "wal.append", || {
                for env in &envelopes {
                    wal.append(env.at, &env.request)
                        .expect("scratch log appends");
                }
            });
        }
        let replies: Vec<ResponseEnvelope> =
            scope.stage(&mut stages.handle, "service.handle", || {
                envelopes
                    .into_iter()
                    .map(|env| ResponseEnvelope {
                        id: env.id,
                        response: service.handle(env.request, env.at),
                    })
                    .collect()
            });
        stages.errors += replies
            .iter()
            .map(|r| script::count_errors(&r.response))
            .sum::<u64>();
        since_snapshot += (to - from) * per_frame;
        if let Some(wal) = wal.as_deref_mut() {
            if since_snapshot >= SNAPSHOT_EVERY {
                // A snapshot waits for the disk; the budget is in CPU.
                let cpu0 = procfs::thread_usage(me).cpu_ns;
                scope.stage(&mut stages.snapshot_wall, "snapshot.write", || {
                    wal.snapshot(&service).expect("scratch snapshot writes")
                });
                stages.snapshot +=
                    Duration::from_nanos(procfs::thread_usage(me).cpu_ns.saturating_sub(cpu0));
                stages.snapshots += 1;
                since_snapshot = 0;
            }
        }
        let encode = match codec {
            Codec::Binary => "binary.encode",
            Codec::Json => "wire.encode",
        };
        stages.reply_bytes += scope.stage(&mut stages.encode, encode, || {
            encode_replies(codec, &replies)
        });
        stages.requests += ((to - from) * per_frame) as u64;
        scope.rec.close(span);
        from = to;
        block += 1;
    }
    (stages, service)
}

/// Requests with their service times, in order.
type Session = Vec<(SimTime, Request)>;

/// Decodes a script's single connection: its priming and its timed part.
fn requests_of(script: &script::Script) -> (Session, Session) {
    let mut silent = Recorder::new(false);
    let mut untimed = Stages::default();
    let part = &script.conns[0];
    let mut decode = |frames: &Frames| {
        let mut scope = Scope {
            rec: &mut silent,
            parent: ROOT,
            block: 0,
        };
        decode_frames(script.spec.codec, &frames.bytes, &mut untimed, &mut scope)
            .into_iter()
            .map(|env| (env.at, env.request))
            .collect::<Session>()
    };
    (decode(&part.prime), decode(&part.timed))
}

/// Cost of two back-to-back `Instant::now` calls, subtracted from
/// per-request timings.
fn timer_overhead() -> Duration {
    let mut samples: Vec<f64> = (0..1_000)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(t).elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    Duration::from_nanos(median(&samples) as u64)
}

/// `service.handle_ns.<kind>`: every request timed on its own, in script
/// order on a fresh service, less the timer's own cost.
fn handle_by_kind(script: &script::Script, samples: &mut Samples) {
    const KINDS: [(&str, &str); 6] = [
        ("deposit", "service.handle_ns.deposit"),
        ("register_qos", "service.handle_ns.register_qos"),
        ("order_qos", "service.handle_ns.order_qos"),
        ("predict", "service.handle_ns.predict"),
        ("report_progress", "service.handle_ns.report_progress"),
        ("complete", "service.handle_ns.complete"),
    ];
    let overhead = timer_overhead();
    let (prime, timed) = requests_of(script);
    let mut service = SpeQuloS::new();
    let mut totals = [(Duration::ZERO, 0u64); 6];
    for (at, request) in prime.into_iter().chain(timed) {
        // A batch is timed whole and booked per item under its items' kind.
        let (kind, items) = match &request {
            Request::Batch(items) => (items.first().map_or("batch", Request::kind), items.len()),
            other => (other.kind(), 1),
        };
        let t = Instant::now();
        std::hint::black_box(service.handle(request, at));
        let took = t.elapsed().saturating_sub(overhead);
        if let Some(i) = KINDS.iter().position(|(k, _)| *k == kind) {
            totals[i].0 += took;
            totals[i].1 += items as u64;
        }
    }
    for ((_, metric), (total, n)) in KINDS.iter().zip(totals) {
        if n > 0 {
            samples.push(metric, total.as_nanos() as f64 / n as f64);
        }
    }
}

/// `Poller::wait` with one ready source among `fds` registered ones, and
/// `Poller::modify` (the oneshot re-arm), as the reactor uses them.
fn polling_probe(fds: usize, rounds: usize) -> io::Result<(f64, f64)> {
    let poller = Poller::new()?;
    let mut pairs = Vec::with_capacity(fds);
    for key in 0..fds {
        let (ours, theirs) = UnixStream::pair()?;
        poller.add(&ours, Event::readable(key))?;
        pairs.push((ours, theirs));
    }
    let mut events = Vec::new();
    let mut waits = Vec::with_capacity(rounds);
    let mut rearm = Duration::ZERO;
    let mut byte = [0u8; 1];
    for round in 0..rounds {
        let key = (round * 7919) % fds;
        let (ours, theirs) = &mut pairs[key];
        theirs.write_all(b"x")?;
        events.clear();
        let t = Instant::now();
        poller.wait(&mut events, Some(Duration::from_secs(5)))?;
        waits.push(t.elapsed().as_nanos() as f64 / 1e3);
        assert_eq!(events.len(), 1, "exactly the written source is ready");
        ours.read_exact(&mut byte)?;
        let t = Instant::now();
        poller.modify(&*ours, Event::readable(key))?;
        rearm += t.elapsed();
    }
    Ok((median(&waits), rearm.as_nanos() as f64 / rounds as f64))
}

/// Write-ahead-log and snapshot probes on the state the replay left.
fn durable_probes(
    args: &Args,
    script: &script::Script,
    stages: &Stages,
    service: &SpeQuloS,
    dir: &std::path::Path,
    samples: &mut Samples,
) -> io::Result<()> {
    let wal_err = |e: spequlos::wal::WalError| io::Error::other(e.to_string());
    let (prime, timed) = requests_of(script);
    let records = (prime.len() + timed.len()) as f64;

    let t = Instant::now();
    for (at, request) in &timed {
        std::hint::black_box(encode_session_entry(*at, request));
    }
    samples.push(
        "wal.encode_ns",
        t.elapsed().as_nanos() as f64 / timed.len() as f64,
    );
    let log_bytes = std::fs::metadata(dir.join("wal.log"))?.len();
    samples.push("wal.bytes_per_record", log_bytes as f64 / records);

    // Snapshots: the end-of-script state, encoded, written, restored.
    samples.push("snapshot.count", stages.snapshots as f64);
    if stages.snapshots > 0 {
        samples.push(
            "snapshot.write_ms",
            stages.snapshot_wall.as_secs_f64() * 1e3 / stages.snapshots as f64,
        );
    }
    let t = Instant::now();
    let state = encode_state(service).map_err(|e| io::Error::other(e.to_string()))?;
    let text = state.to_json();
    samples.push("snapshot.encode_ms", t.elapsed().as_secs_f64() * 1e3);
    samples.push("snapshot.bytes", text.len() as f64);
    let t = Instant::now();
    let restored =
        restore_state(SpeQuloS::new(), &state).map_err(|e| io::Error::other(e.to_string()))?;
    samples.push("snapshot.restore_ms", t.elapsed().as_secs_f64() * 1e3);
    std::hint::black_box(restored);

    // Full-log replay: snapshots out of the way, open and recover.
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "json") {
            std::fs::remove_file(path)?;
        }
    }
    let t = Instant::now();
    let (_, recovery) = WalStore::open(dir, FsyncPolicy::Never).map_err(wal_err)?;
    let (recovered, report) = recovery.recover(SpeQuloS::new()).map_err(wal_err)?;
    samples.push(
        "wal.replay_ns_per_record",
        t.elapsed().as_nanos() as f64 / report.replayed.max(1) as f64,
    );
    std::hint::black_box(recovered);

    // What one fsync costs: single appends with and without it.
    let mut medians = [0.0; 2];
    for (slot, policy) in [FsyncPolicy::Never, FsyncPolicy::Always]
        .into_iter()
        .enumerate()
    {
        let probe_dir = args
            .out
            .join(format!("tmp-{}-fsync-{slot}", std::process::id()));
        let _ = std::fs::remove_dir_all(&probe_dir);
        let (mut wal, _) = WalStore::open(&probe_dir, policy).map_err(wal_err)?;
        let mut each = Vec::with_capacity(200);
        for (at, request) in timed.iter().take(200) {
            let t = Instant::now();
            wal.append(*at, request).map_err(wal_err)?;
            each.push(t.elapsed().as_secs_f64() * 1e3);
        }
        medians[slot] = median(&each);
        drop(wal);
        std::fs::remove_dir_all(&probe_dir)?;
    }
    samples.push("wal.fsync_ms_p50", (medians[1] - medians[0]).max(0.0));
    Ok(())
}

/// `routed.overhead_ns_per_req`: the same traffic through a two-shard
/// `RoutedService` against a plain service, per request of `handle`.
fn routed_overhead(seed: u64, spec: &Spec) -> f64 {
    fn handle_ns<S: SpqService>(service: &mut S, script: &script::Script) -> f64 {
        let (prime, timed) = requests_of(script);
        for (at, request) in prime {
            service.handle(request, at);
        }
        let n = timed.len();
        let t = Instant::now();
        for (at, request) in timed {
            std::hint::black_box(service.handle(request, at));
        }
        t.elapsed().as_nanos() as f64 / n as f64
    }
    let routed = || RoutedService::new(SpeQuloS::new(), 2, 1, 64);
    // BoT ids are strided per shard, so the routed service gets a script
    // generated against itself.
    let plain_script = script::build(seed, spec, &mut SpeQuloS::new());
    let routed_script = script::build(seed, spec, &mut routed());
    assert_eq!(routed_script.oracle_errors, 0);
    handle_ns(&mut routed(), &routed_script) - handle_ns(&mut SpeQuloS::new(), &plain_script)
}

/// The in-process replay of a wire workload, run one round at a time by
/// the traced wire run: one round before every repeat, so that stage
/// costs and the server's CPU are sampled over the same stretch of time
/// and the sandbox's slow and fast spells hit both alike.
pub struct Replayer {
    name: String,
    script: script::Script,
    /// Timed frames served before the measured ones, untimed.
    prefix: usize,
    dir: PathBuf,
    last: Option<(Stages, SpeQuloS)>,
}

impl Replayer {
    pub fn new(args: &Args, name: &str) -> Replayer {
        // Replay what the server serves in its measured phase — as many
        // requests from the same starting state — because a request's
        // cost grows with the state the server has accumulated.
        let plan = wire::plan(args, name);
        let (prefix, timed) = match name {
            "wire_durable" => (
                plan.before * plan.spec.conns,
                plan.pipelined * plan.spec.conns,
            ),
            // A fan-in instance serves a few hundred requests; its stages
            // are taken over more of them, for steadier figures.
            "wire_idle_fanin" => (0, 64 * BLOCK),
            _ => (0, plan.pipelined * plan.spec.conns),
        };
        let spec = Spec {
            conns: 1,
            frames_per_conn: prefix + timed,
            ..plan.spec
        };
        Replayer {
            name: name.to_string(),
            script: script::build(args.seed, &spec, &mut SpeQuloS::new()),
            prefix,
            dir: args.out.join(format!("tmp-{}-layers", std::process::id())),
            last: None,
        }
    }

    fn durable(&self) -> bool {
        self.name == "wire_durable"
    }

    /// One replay on a fresh service, pushing the stage costs. It runs on
    /// a thread of its own, as the reactor does: a thread's first
    /// allocations come from a fresh arena, whereas this process's main
    /// thread, after churning through hundreds of MiB of scripts, runs
    /// the same replay up to 1.7x slower.
    pub fn round(&mut self, samples: &mut Samples, rec: &mut Recorder) -> io::Result<()> {
        let _ = std::fs::remove_dir_all(&self.dir);
        let mut wal = if self.durable() {
            let (wal, _) = WalStore::open(&self.dir, FsyncPolicy::Never)
                .map_err(|e| io::Error::other(e.to_string()))?;
            Some(wal)
        } else {
            None
        };
        // Spans of the first round only: the rounds are identical.
        let mut silent = Recorder::new(false);
        let rec = if self.last.is_none() {
            rec
        } else {
            &mut silent
        };
        let (script, prefix) = (&self.script, self.prefix);
        let mut speed = Speed::start();
        let (stages, service) = std::thread::scope(|s| {
            s.spawn(|| replay(script, prefix, wal.as_mut(), rec))
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        // Stage costs at reference speed, like the server CPU they are
        // subtracted from.
        let factor = speed.lap();
        let per_req = |d: Duration| stages.per_req(d) * factor;
        let (split, decode, encode) = match script.spec.codec {
            Codec::Binary => (
                "frame.bin_split_ns",
                "binary.decode_req_ns",
                "binary.encode_resp_ns",
            ),
            Codec::Json => (
                "frame.json_split_ns",
                "wire.decode_req_ns",
                "wire.encode_resp_ns",
            ),
        };
        samples.push(split, per_req(stages.split));
        samples.push(decode, per_req(stages.decode));
        samples.push(encode, per_req(stages.encode));
        samples.push("service.handle_ns", per_req(stages.handle));
        samples.push("service.errors", stages.errors as f64);
        if self.durable() {
            samples.push("wal.append_ns", per_req(stages.wal_append));
            samples.push("snapshot.cpu_ns_per_req", per_req(stages.snapshot));
        }
        samples.push(
            "frame.bytes_per_req",
            (stages.request_bytes + stages.reply_bytes) as f64 / stages.requests as f64,
        );
        self.last = Some((stages, service));
        Ok(())
    }

    /// After the last round: the residual, and the probes of the layers
    /// this workload is the one to exercise.
    pub fn finish(self, args: &Args, samples: &mut Samples) -> io::Result<()> {
        let stage_sum: f64 = STAGES.iter().map(|s| samples.summary(s).median).sum();
        let wire_cpu_ns = samples.summary("trace.cpu_us_per_op").median * 1e3;
        samples.push("reactor.residual_ns_per_req", wire_cpu_ns - stage_sum);

        handle_by_kind(&self.script, samples);
        match self.name.as_str() {
            "wire_bin" => {
                let (wait_us, rearm_ns) = polling_probe(2, 20_000)?;
                samples.push("polling.wait_us.fds2", wait_us);
                samples.push("polling.rearm_ns", rearm_ns);
                // Two more scripts are built for this; a part of the
                // phase is enough for a difference of handle costs.
                let spec = Spec {
                    frames_per_conn: self.script.spec.frames_per_conn.min(128 * BLOCK),
                    ..self.script.spec
                };
                samples.push(
                    "routed.overhead_ns_per_req",
                    routed_overhead(args.seed, &spec),
                );
            }
            "wire_idle_fanin" => {
                let (wait_us, rearm_ns) = polling_probe(2_048, 4_000)?;
                samples.push("polling.wait_us.fds2048", wait_us);
                samples.push("polling.rearm_ns", rearm_ns);
                samples.push("polling.wait_us.fds2", polling_probe(2, 20_000)?.0);
            }
            "wire_durable" => {
                let (stages, service) = self.last.as_ref().expect("a round was run");
                durable_probes(args, &self.script, stages, service, &self.dir, samples)?;
            }
            _ => {}
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::response_frame_into;
    use crate::script::Traffic;
    use crate::trace::self_times;

    #[test]
    fn the_replay_serves_the_script_without_errors_and_accounts_every_request() {
        for (codec, traffic, frames) in [
            (Codec::Binary, Traffic::Sessions, 3 * BLOCK + 17),
            (Codec::Json, Traffic::BatchTicks, 40),
        ] {
            let spec = Spec {
                codec,
                traffic,
                conns: 1,
                frames_per_conn: frames,
            };
            let script = script::build(5, &spec, &mut SpeQuloS::new());
            let mut rec = Recorder::new(true);
            let (stages, _) = replay(&script, 0, None, &mut rec);
            assert_eq!(stages.requests, script.timed_requests());
            assert_eq!(stages.errors, 0);
            assert_eq!(
                stages.request_bytes,
                script.conns[0].timed.bytes.len() as u64
            );

            // The replay's encoder produces the bytes the oracle expected:
            // same reply stream, so the stages time the real work.
            let mut expected = Vec::new();
            let mut service = SpeQuloS::new();
            let (prime, timed) = requests_of(&script);
            for (id, (at, request)) in prime.into_iter().chain(timed).enumerate() {
                let reply = ResponseEnvelope {
                    id: id as u64,
                    response: service.handle(request, at),
                };
                response_frame_into(codec, &reply, &mut expected);
            }
            let mut crc = crate::crc::Crc32::default();
            crc.update(&expected);
            assert_eq!(crc.value(), script.conns[0].expected_crc);

            // Stage spans nest in block spans and carry the block's id.
            let spans = rec.spans();
            let blocks = spans.iter().filter(|s| s.name == "block").count();
            assert_eq!(
                blocks,
                frames.div_ceil((BLOCK / spec.requests_per_frame()).max(1))
            );
            for s in spans.iter().filter(|s| s.name != "block") {
                let parent = &spans[s.parent.expect("stages have a parent") as usize];
                assert_eq!((parent.name, parent.block), ("block", s.block));
            }
            let total: u64 = self_times(spans).iter().map(|(_, ns)| ns).sum();
            let roots: u64 = spans
                .iter()
                .filter(|s| s.parent.is_none())
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            assert_eq!(total, roots);
        }
    }

    #[test]
    fn one_ready_source_among_many_is_delivered() {
        let (wait_us, rearm_ns) = polling_probe(16, 50).expect("probe runs");
        assert!(wait_us > 0.0 && rearm_ns > 0.0);
    }
}
