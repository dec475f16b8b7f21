//! Request scripts: everything a wire workload sends, as bytes.
//!
//! A script is a pure function of the seed. It is generated and encoded
//! to wire frames during set-up, so the timed loop only writes bytes; the
//! same pass runs every request through an in-process service and the
//! server's own response encoder, folding the bytes the server must send
//! back into one expected CRC per connection (the correctness oracle).
//!
//! Each connection is its own user with its own environment strings, on
//! a service without a shared pool, so a connection's reply stream does
//! not depend on how the connections interleave.

use crate::codec::{request_frame_into, response_frame_into};
use crate::crc::Crc32;
use botwork::BotId;
use simcore::{Prng, SimTime};
use spequlos::protocol::{Request, Response, SpqService};
use spequlos::{BotProgress, StrategyCombo, UserId};
use spq_server::{Codec, RequestEnvelope, ResponseEnvelope};

/// Monitoring ticks per BoT session (one per simulated minute).
const TICKS: u32 = 60;
/// A `Predict` follows every this many ticks.
const PREDICT_EVERY: u32 = 16;
/// Requests of one session: deposit, order, ticks, predicts, complete.
pub const SESSION_REQUESTS: usize = 2 + (TICKS + TICKS / PREDICT_EVERY) as usize + 1;
/// BoT sessions a connection keeps open at once.
const LANES: usize = 8;
/// Sessions that share one environment string. `Predict` scans the
/// environment's archive of completed executions, so a bounded group
/// keeps a request's cost independent of its position in the script.
const SESSIONS_PER_ENV: usize = 8;
/// Tasks of a session's BoT.
const SESSION_BOT_SIZE: u32 = 1_000;
/// Sub-requests of one batch frame: a whole monitoring tick
/// (PROTOCOL.md §8).
pub const BATCH_ITEMS: usize = 64;
/// Tasks of a batch-traffic BoT: large, so it never completes.
const BATCH_BOT_SIZE: u32 = 1_000_000;

/// What the connections say.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Traffic {
    /// Single-request frames: interleaved per-BoT sessions of deposit →
    /// order → 60 `ReportProgress` ticks (a `Predict` every 16) →
    /// complete, over BoTs registered in the priming pass.
    Sessions,
    /// Each frame one `Request::Batch` of 64 `ReportProgress`: the
    /// monitoring tick of 64 BoTs registered and ordered while priming.
    BatchTicks,
}

/// Shape of a script; with the seed it determines every byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Spec {
    pub codec: Codec,
    pub traffic: Traffic,
    pub conns: usize,
    /// Timed frames per connection.
    pub frames_per_conn: usize,
}

impl Spec {
    /// Requests the service answers per timed frame.
    pub fn requests_per_frame(&self) -> usize {
        match self.traffic {
            Traffic::Sessions => 1,
            Traffic::BatchTicks => BATCH_ITEMS,
        }
    }
}

/// Frames back to back, with the offset just past each one.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Frames {
    pub bytes: Vec<u8>,
    pub ends: Vec<u32>,
}

impl Frames {
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Offset of the first byte of frame `i` (`i == len()` is the end).
    pub fn start(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.ends[i - 1] as usize
        }
    }

    /// The bytes of frames `from..to`.
    pub fn slice(&self, from: usize, to: usize) -> &[u8] {
        &self.bytes[self.start(from)..self.start(to)]
    }

    fn push(&mut self, codec: Codec, envelope: &RequestEnvelope) {
        request_frame_into(codec, envelope, &mut self.bytes);
        self.ends
            .push(u32::try_from(self.bytes.len()).expect("a script stays below 4 GiB"));
    }
}

/// One connection's part of a script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConnScript {
    /// Untimed frames sent first, one connection after the other:
    /// deposits, registrations, for batch traffic also the orders.
    pub prime: Frames,
    /// The timed frames.
    pub timed: Frames,
    /// CRC of every reply byte the server must send for `prime` then
    /// `timed`, in order.
    pub expected_crc: u32,
}

/// A generated script and its oracle results.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Script {
    pub spec: Spec,
    pub conns: Vec<ConnScript>,
    /// Error responses the oracle service gave; a script is built so
    /// that this is 0.
    pub oracle_errors: u64,
}

#[cfg(test)]
impl Script {
    /// Requests answered over all timed frames.
    pub fn timed_requests(&self) -> u64 {
        (self.spec.conns * self.spec.frames_per_conn * self.spec.requests_per_frame()) as u64
    }
}

/// Runs requests through the oracle service and accumulates, per
/// connection, the frames to send and the CRC of the frames to expect.
struct Emitter<'a, S> {
    codec: Codec,
    oracle: &'a mut S,
    next_id: u64,
    crc: Crc32,
    errors: u64,
    reply: Vec<u8>,
}

impl<S: SpqService> Emitter<'_, S> {
    fn emit(&mut self, frames: &mut Frames, at: SimTime, request: Request) -> Response {
        let id = self.next_id;
        self.next_id += 1;
        let envelope = RequestEnvelope { id, at, request };
        frames.push(self.codec, &envelope);
        let response = self.oracle.handle(envelope.request, at);
        self.errors += count_errors(&response);
        let reply = ResponseEnvelope { id, response };
        self.reply.clear();
        response_frame_into(self.codec, &reply, &mut self.reply);
        self.crc.update(&self.reply);
        reply.response
    }
}

/// Error responses in `response`, looking inside a batch.
pub fn count_errors(response: &Response) -> u64 {
    match response {
        Response::Error(_) => 1,
        Response::Batch(items) => items.iter().map(count_errors).sum(),
        _ => 0,
    }
}

/// Per-connection generator state between the priming and timed passes.
struct ConnGen {
    user: UserId,
    rng: Prng,
    bots: Vec<BotId>,
    prime: Frames,
    next_id: u64,
    crc: Crc32,
}

/// Builds the script of `spec` for `seed`, using `oracle` — a fresh
/// service configured like the one the server will run — to learn BoT ids
/// and expected replies.
pub fn build<S: SpqService>(seed: u64, spec: &Spec, oracle: &mut S) -> Script {
    let mut errors = 0;
    // Priming happens on the wire one connection after the other, so the
    // oracle sees it in that order too: BoT ids depend on it.
    let mut gens: Vec<ConnGen> = (0..spec.conns)
        .map(|c| {
            let mut gen = ConnGen {
                user: UserId(c as u64 + 1),
                rng: Prng::substream(seed, "spq-benchmark/conn", c as u64),
                bots: Vec::new(),
                prime: Frames::default(),
                next_id: 0,
                crc: Crc32::default(),
            };
            errors += prime_conn(spec, c, &mut gen, oracle);
            gen
        })
        .collect();
    let conns = gens
        .drain(..)
        .map(|mut gen| {
            let mut timed = Frames::default();
            let mut emitter = Emitter {
                codec: spec.codec,
                oracle: &mut *oracle,
                next_id: gen.next_id,
                crc: gen.crc,
                errors: 0,
                reply: Vec::new(),
            };
            match spec.traffic {
                Traffic::Sessions => sessions(spec, &mut gen, &mut emitter, &mut timed),
                Traffic::BatchTicks => batch_ticks(spec, &mut gen, &mut emitter, &mut timed),
            }
            errors += emitter.errors;
            ConnScript {
                prime: gen.prime,
                timed,
                expected_crc: emitter.crc.value(),
            }
        })
        .collect();
    Script {
        spec: *spec,
        conns,
        oracle_errors: errors,
    }
}

fn sessions_needed(spec: &Spec) -> usize {
    spec.frames_per_conn.div_ceil(SESSION_REQUESTS) + LANES
}

fn prime_conn<S: SpqService>(spec: &Spec, conn: usize, gen: &mut ConnGen, oracle: &mut S) -> u64 {
    let mut prime = Frames::default();
    let mut emitter = Emitter {
        codec: spec.codec,
        oracle,
        next_id: 0,
        crc: Crc32::default(),
        errors: 0,
        reply: Vec::new(),
    };
    let user = gen.user;
    let at = SimTime::ZERO;
    let (bots, size) = match spec.traffic {
        Traffic::Sessions => (sessions_needed(spec), SESSION_BOT_SIZE),
        Traffic::BatchTicks => (BATCH_ITEMS, BATCH_BOT_SIZE),
    };
    for i in 0..bots {
        let env = format!("bench/c{conn}/g{}", i / SESSIONS_PER_ENV);
        let request = Request::RegisterQos { user, env, size };
        match emitter.emit(&mut prime, at, request) {
            Response::Registered { bot } => gen.bots.push(bot),
            other => panic!("the oracle refused a registration: {other:?}"),
        }
    }
    if spec.traffic == Traffic::BatchTicks {
        let credits = 1_000.0 + gen.rng.below(1_000) as f64;
        let deposit = Request::Deposit {
            user,
            credits: credits * bots as f64,
        };
        emitter.emit(&mut prime, at, deposit);
        for i in 0..bots {
            let order = Request::OrderQos {
                bot: gen.bots[i],
                credits,
                strategy: Some(StrategyCombo::paper_default()),
            };
            emitter.emit(&mut prime, at, order);
        }
    }
    gen.prime = prime;
    gen.next_id = emitter.next_id;
    gen.crc = emitter.crc;
    emitter.errors
}

/// Where one lane's session stands.
struct Lane {
    bot: BotId,
    /// Index into the session plan of the next request.
    step: usize,
    start_ms: u64,
    credits: f64,
    /// Last tick reported and the completed count it carried.
    tick: u32,
    completed: u32,
}

#[derive(Clone, Copy)]
enum Step {
    Deposit,
    Order,
    Report(u32),
    Predict,
    Complete,
}

fn session_plan() -> Vec<Step> {
    let mut plan = vec![Step::Deposit, Step::Order];
    for tick in 1..=TICKS {
        plan.push(Step::Report(tick));
        if tick % PREDICT_EVERY == 0 {
            plan.push(Step::Predict);
        }
    }
    plan.push(Step::Complete);
    debug_assert_eq!(plan.len(), SESSION_REQUESTS);
    plan
}

fn sessions<S: SpqService>(
    spec: &Spec,
    gen: &mut ConnGen,
    emitter: &mut Emitter<'_, S>,
    timed: &mut Frames,
) {
    let plan = session_plan();
    let mut next_session = 0usize;
    let mut open = |rng: &mut Prng, bots: &[BotId]| {
        let lane = Lane {
            bot: bots[next_session],
            step: 0,
            start_ms: next_session as u64 * 1_000,
            credits: 50.0 + rng.below(100) as f64 * 0.5,
            tick: 0,
            completed: 0,
        };
        next_session += 1;
        lane
    };
    let mut lanes: Vec<Lane> = (0..LANES).map(|_| open(&mut gen.rng, &gen.bots)).collect();
    while timed.len() < spec.frames_per_conn {
        let which = gen.rng.index(LANES);
        let lane = &mut lanes[which];
        let (at_ms, request) = match plan[lane.step] {
            Step::Deposit => (
                lane.start_ms,
                Request::Deposit {
                    user: gen.user,
                    credits: lane.credits,
                },
            ),
            Step::Order => (
                lane.start_ms,
                Request::OrderQos {
                    bot: lane.bot,
                    credits: lane.credits,
                    strategy: Some(StrategyCombo::paper_default()),
                },
            ),
            Step::Report(tick) => {
                let now_ms = lane.start_ms + u64::from(tick) * 60_000;
                lane.tick = tick;
                let target = SESSION_BOT_SIZE * tick / TICKS;
                lane.completed = if tick == TICKS {
                    SESSION_BOT_SIZE
                } else {
                    // Monotone: a tick adds ~16 tasks, the jitter takes
                    // away fewer than 8.
                    target
                        .saturating_sub(gen.rng.below(8) as u32)
                        .max(lane.completed)
                };
                let running = (gen.rng.below(50) as u32).min(SESSION_BOT_SIZE - lane.completed);
                let dispatched = lane.completed + running;
                (
                    now_ms,
                    Request::ReportProgress {
                        bot: lane.bot,
                        progress: BotProgress {
                            now: SimTime::from_millis(now_ms),
                            size: SESSION_BOT_SIZE,
                            completed: lane.completed,
                            dispatched,
                            queued: SESSION_BOT_SIZE - dispatched,
                            running,
                            cloud_running: 0,
                        },
                    },
                )
            }
            Step::Predict => (
                lane.start_ms + u64::from(lane.tick) * 60_000 + 1_000,
                Request::Predict { bot: lane.bot },
            ),
            Step::Complete => (
                lane.start_ms + u64::from(TICKS + 1) * 60_000,
                Request::Complete { bot: lane.bot },
            ),
        };
        lane.step += 1;
        if lane.step == plan.len() {
            *lane = open(&mut gen.rng, &gen.bots);
        }
        emitter.emit(timed, SimTime::from_millis(at_ms), request);
    }
}

fn batch_ticks<S: SpqService>(
    spec: &Spec,
    gen: &mut ConnGen,
    emitter: &mut Emitter<'_, S>,
    timed: &mut Frames,
) {
    let frames = spec.frames_per_conn as u64;
    let mut completed = vec![0u32; gen.bots.len()];
    for tick in 1..=frames {
        let now = SimTime::from_secs(tick * 60);
        let items = gen
            .bots
            .iter()
            .zip(&mut completed)
            .map(|(&bot, completed)| {
                // Progress climbs to at most half the BoT over the script,
                // so no BoT crosses a cloud-start threshold mid-run.
                let step = u64::from(BATCH_BOT_SIZE / 2) / frames;
                *completed += gen.rng.below(step.max(1)) as u32;
                let running = 100 + gen.rng.below(100) as u32;
                let dispatched = *completed + running;
                Request::ReportProgress {
                    bot,
                    progress: BotProgress {
                        now,
                        size: BATCH_BOT_SIZE,
                        completed: *completed,
                        dispatched,
                        queued: BATCH_BOT_SIZE - dispatched,
                        running,
                        cloud_running: 0,
                    },
                }
            })
            .collect();
        emitter.emit(timed, now, Request::Batch(items));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spequlos::SpeQuloS;

    fn spec(traffic: Traffic, codec: Codec) -> Spec {
        Spec {
            codec,
            traffic,
            conns: 2,
            frames_per_conn: match traffic {
                Traffic::Sessions => 5 * SESSION_REQUESTS * LANES,
                Traffic::BatchTicks => 40,
            },
        }
    }

    #[test]
    fn the_same_seed_gives_byte_identical_scripts_and_another_seed_does_not() {
        for (traffic, codec) in [
            (Traffic::Sessions, Codec::Binary),
            (Traffic::BatchTicks, Codec::Json),
        ] {
            let spec = spec(traffic, codec);
            let a = build(7, &spec, &mut SpeQuloS::new());
            let b = build(7, &spec, &mut SpeQuloS::new());
            let c = build(8, &spec, &mut SpeQuloS::new());
            assert_eq!(a, b, "{traffic:?}");
            assert_ne!(
                a.conns[0].timed.bytes, c.conns[0].timed.bytes,
                "{traffic:?}"
            );
            assert_eq!(a.oracle_errors, 0, "{traffic:?}");
            for conn in &a.conns {
                assert_eq!(conn.timed.len(), spec.frames_per_conn);
                assert_eq!(
                    conn.timed.start(conn.timed.len()),
                    conn.timed.bytes.len(),
                    "the last end is the end of the bytes"
                );
            }
            assert_ne!(a.conns[0].expected_crc, a.conns[1].expected_crc);
        }
    }

    #[test]
    fn every_session_kind_appears_and_sessions_run_to_completion() {
        let spec = spec(Traffic::Sessions, Codec::Binary);
        let mut oracle = SpeQuloS::new();
        let script = build(1, &spec, &mut oracle);
        assert_eq!(script.timed_requests(), 2 * spec.frames_per_conn as u64);
        let mut kinds = std::collections::BTreeMap::new();
        for conn in &script.conns {
            for i in 0..conn.timed.len() {
                let frame = conn.timed.slice(i, i + 1);
                let env = spq_server::binary::decode_request(&frame[4..]).expect("decodes");
                assert_eq!(env.id, (conn.prime.len() + i) as u64, "ids are sequential");
                *kinds.entry(env.request.kind()).or_insert(0u32) += 1;
            }
        }
        let names: Vec<&str> = kinds.keys().copied().collect();
        assert_eq!(
            names,
            [
                "complete",
                "deposit",
                "order_qos",
                "predict",
                "report_progress"
            ]
        );
        assert!(kinds["complete"] >= 2 * 4, "sessions complete: {kinds:?}");
        assert!(kinds["report_progress"] > 10 * kinds["predict"]);
    }

    #[test]
    fn a_connections_replies_do_not_depend_on_how_connections_interleave() {
        // The oracle serves connection 0's timed script before connection
        // 1's; a server interleaves them. Replay the frames alternating
        // between the connections and expect the same reply bytes.
        for (traffic, codec) in [
            (Traffic::Sessions, Codec::Binary),
            (Traffic::BatchTicks, Codec::Json),
        ] {
            let spec = spec(traffic, codec);
            let script = build(3, &spec, &mut SpeQuloS::new());
            let mut service = SpeQuloS::new();
            let mut crcs = [Crc32::default(); 2];
            let mut serve = |conn: usize, frame: &[u8], service: &mut SpeQuloS| {
                let env = match codec {
                    Codec::Binary => spq_server::binary::decode_request(&frame[4..]).unwrap(),
                    Codec::Json => {
                        let text = std::str::from_utf8(frame).unwrap();
                        let payload = text.split_once('\n').unwrap().1.trim_end();
                        RequestEnvelope::from_json(payload).unwrap()
                    }
                };
                let reply = ResponseEnvelope {
                    id: env.id,
                    response: service.handle(env.request, env.at),
                };
                let mut bytes = Vec::new();
                response_frame_into(codec, &reply, &mut bytes);
                crcs[conn].update(&bytes);
            };
            for (c, conn) in script.conns.iter().enumerate() {
                for i in 0..conn.prime.len() {
                    serve(c, conn.prime.slice(i, i + 1), &mut service);
                }
            }
            for i in 0..spec.frames_per_conn {
                for c in [1, 0] {
                    serve(c, script.conns[c].timed.slice(i, i + 1), &mut service);
                }
            }
            for (c, conn) in script.conns.iter().enumerate() {
                assert_eq!(crcs[c].value(), conn.expected_crc, "{traffic:?} conn {c}");
            }
        }
    }
}
