//! The compact binary envelope encoding (PROTOCOL.md §5).
//!
//! This is the payload format of binary frames ([`crate::frame`] §4): a
//! hand-rolled, dependency-free encoding of [`RequestEnvelope`] /
//! [`ResponseEnvelope`] built from five primitives (§5.1) — `u8` tags,
//! little-endian `u32`/`u64`, IEEE-754 `f64` bit patterns, and
//! length-prefixed UTF-8 strings. No field names travel on the wire;
//! layout is fixed per tag, which is what makes it roughly an order of
//! magnitude cheaper to encode/decode than the JSON path.
//!
//! Equivalence contract: for every envelope the JSON codec can carry,
//! `decode(encode(x)) == x`, and the decoded value re-encodes through
//! the JSON path **bit-identically** to the original's JSON — the
//! `codec_fuzz` suite pins this. The one divergence is deliberate:
//! binary `f64`s preserve exact bits, so non-finite floats survive here
//! while the JSON path turns them into `null` (§5.1); the service
//! rejects them either way.
//!
//! Every malformed input is a typed [`BinError`] — truncation, unknown
//! tags, trailing bytes, over-deep batch nesting — never a panic: this
//! decoder sits on the listening side of the wire.

use crate::wire::{RequestEnvelope, ResponseEnvelope};
use botwork::BotId;
use simcore::SimTime;
use spequlos::credit::CreditError;
use spequlos::oracle::{DeployMode, Prediction, Provisioning, StrategyCombo, Trigger};
use spequlos::protocol::{Request, RequestError, Response};
use spequlos::{BotProgress, UserId};
use std::fmt;

/// Batch nesting depth the decoder accepts (§5.3). The service rejects
/// any nested batch at dispatch, but the decoder must bound recursion
/// *before* dispatch so a hostile frame cannot overflow the stack.
pub const MAX_BATCH_DEPTH: usize = 8;

/// Why a binary envelope could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinError {
    /// The payload ended inside the named field.
    Truncated(&'static str),
    /// An unknown tag byte in the named position.
    BadTag(&'static str, u8),
    /// A string field is not valid UTF-8.
    NotUtf8(&'static str),
    /// Bytes remain after a complete envelope (§5.2: a frame carries
    /// exactly one envelope).
    Trailing(usize),
    /// Batches nest deeper than [`MAX_BATCH_DEPTH`].
    TooDeep,
    /// A declared length or count exceeds the payload that carries it.
    Oversized(&'static str),
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinError::Truncated(ctx) => write!(f, "payload ended inside {ctx}"),
            BinError::BadTag(ctx, tag) => write!(f, "unknown {ctx} tag 0x{tag:02x}"),
            BinError::NotUtf8(ctx) => write!(f, "{ctx} is not UTF-8"),
            BinError::Trailing(n) => write!(f, "{n} trailing bytes after the envelope"),
            BinError::TooDeep => write!(f, "batches nest deeper than {MAX_BATCH_DEPTH}"),
            BinError::Oversized(ctx) => {
                write!(f, "{ctx} declares more bytes than the payload holds")
            }
        }
    }
}

impl std::error::Error for BinError {}

// ---------------------------------------------------------------------------
// Primitive writers (§5.1)
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Primitive reader (§5.1)
// ---------------------------------------------------------------------------

struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn new(buf: &'a [u8]) -> Rd<'a> {
        Rd { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize, ctx: &'static str) -> Result<&'a [u8], BinError> {
        let end = self.pos.checked_add(n).ok_or(BinError::Truncated(ctx))?;
        let out = self
            .buf
            .get(self.pos..end)
            .ok_or(BinError::Truncated(ctx))?;
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self, ctx: &'static str) -> Result<u8, BinError> {
        self.bytes(1, ctx)?
            .first()
            .copied()
            .ok_or(BinError::Truncated(ctx))
    }

    fn u32(&mut self, ctx: &'static str) -> Result<u32, BinError> {
        let b: [u8; 4] = self
            .bytes(4, ctx)?
            .try_into()
            .map_err(|_| BinError::Truncated(ctx))?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self, ctx: &'static str) -> Result<u64, BinError> {
        let b: [u8; 8] = self
            .bytes(8, ctx)?
            .try_into()
            .map_err(|_| BinError::Truncated(ctx))?;
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self, ctx: &'static str) -> Result<f64, BinError> {
        Ok(f64::from_bits(self.u64(ctx)?))
    }

    fn str(&mut self, ctx: &'static str) -> Result<String, BinError> {
        let len = self.u32(ctx)? as usize;
        if len > self.buf.len() - self.pos {
            return Err(BinError::Oversized(ctx));
        }
        String::from_utf8(self.bytes(len, ctx)?.to_vec()).map_err(|_| BinError::NotUtf8(ctx))
    }

    /// A sequence count, sanity-bounded by the bytes that remain: every
    /// element costs at least one byte, so a count beyond that is a lie
    /// and is refused before any allocation sized by it.
    fn count(&mut self, ctx: &'static str) -> Result<usize, BinError> {
        let n = self.u32(ctx)? as usize;
        if n > self.buf.len() - self.pos {
            return Err(BinError::Oversized(ctx));
        }
        Ok(n)
    }

    fn finish(&self) -> Result<(), BinError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(BinError::Trailing(n)),
        }
    }
}

// ---------------------------------------------------------------------------
// Request tags (§5.3) and response tags (§5.5)
// ---------------------------------------------------------------------------

const REQ_DEPOSIT: u8 = 0x01;
const REQ_REGISTER_QOS: u8 = 0x02;
const REQ_ORDER_QOS: u8 = 0x03;
const REQ_PREDICT: u8 = 0x04;
const REQ_REPORT_PROGRESS: u8 = 0x05;
const REQ_COMPLETE: u8 = 0x06;
const REQ_BATCH: u8 = 0x07;

const RESP_DEPOSITED: u8 = 0x81;
const RESP_REGISTERED: u8 = 0x82;
const RESP_ORDERED: u8 = 0x83;
const RESP_PREDICTED: u8 = 0x84;
const RESP_ACTION: u8 = 0x85;
const RESP_COMPLETED: u8 = 0x86;
const RESP_BATCH: u8 = 0x87;
const RESP_ERROR: u8 = 0x88;

const ERR_CREDIT: u8 = 0x00;
const ERR_UNKNOWN_BOT: u8 = 0x01;
const ERR_INVALID: u8 = 0x02;
const ERR_TRANSPORT: u8 = 0x03;

// ---------------------------------------------------------------------------
// Composites (§5.6)
// ---------------------------------------------------------------------------

fn put_opt<T>(out: &mut Vec<u8>, v: &Option<T>, put: impl FnOnce(&mut Vec<u8>, &T)) {
    match v {
        None => out.push(0x00),
        Some(inner) => {
            out.push(0x01);
            put(out, inner);
        }
    }
}

fn read_opt<T>(
    rd: &mut Rd<'_>,
    ctx: &'static str,
    read: impl FnOnce(&mut Rd<'_>) -> Result<T, BinError>,
) -> Result<Option<T>, BinError> {
    match rd.u8(ctx)? {
        0x00 => Ok(None),
        0x01 => Ok(Some(read(rd)?)),
        tag => Err(BinError::BadTag(ctx, tag)),
    }
}

fn put_strategy(out: &mut Vec<u8>, s: &StrategyCombo) {
    match s.trigger {
        Trigger::CompletionThreshold(t) => {
            out.push(0x00);
            put_f64(out, t);
        }
        Trigger::AssignmentThreshold(t) => {
            out.push(0x01);
            put_f64(out, t);
        }
        Trigger::ExecutionVariance => out.push(0x02),
        Trigger::RateDrop { fraction } => {
            out.push(0x03);
            put_f64(out, fraction);
        }
    }
    out.push(match s.provisioning {
        Provisioning::Greedy => 0x00,
        Provisioning::Conservative => 0x01,
    });
    out.push(match s.deployment {
        DeployMode::Flat => 0x00,
        DeployMode::Reschedule => 0x01,
        DeployMode::CloudDuplication => 0x02,
    });
}

fn read_strategy(rd: &mut Rd<'_>) -> Result<StrategyCombo, BinError> {
    let trigger = match rd.u8("strategy trigger")? {
        0x00 => Trigger::CompletionThreshold(rd.f64("completion threshold")?),
        0x01 => Trigger::AssignmentThreshold(rd.f64("assignment threshold")?),
        0x02 => Trigger::ExecutionVariance,
        0x03 => Trigger::RateDrop {
            fraction: rd.f64("rate-drop fraction")?,
        },
        tag => return Err(BinError::BadTag("strategy trigger", tag)),
    };
    let provisioning = match rd.u8("provisioning")? {
        0x00 => Provisioning::Greedy,
        0x01 => Provisioning::Conservative,
        tag => return Err(BinError::BadTag("provisioning", tag)),
    };
    let deployment = match rd.u8("deployment")? {
        0x00 => DeployMode::Flat,
        0x01 => DeployMode::Reschedule,
        0x02 => DeployMode::CloudDuplication,
        tag => return Err(BinError::BadTag("deployment", tag)),
    };
    Ok(StrategyCombo {
        trigger,
        provisioning,
        deployment,
    })
}

fn put_progress(out: &mut Vec<u8>, p: &BotProgress) {
    put_u64(out, p.now.as_millis());
    put_u32(out, p.size);
    put_u32(out, p.completed);
    put_u32(out, p.dispatched);
    put_u32(out, p.queued);
    put_u32(out, p.running);
    put_u32(out, p.cloud_running);
}

fn read_progress(rd: &mut Rd<'_>) -> Result<BotProgress, BinError> {
    Ok(BotProgress {
        now: SimTime::from_millis(rd.u64("progress.now")?),
        size: rd.u32("progress.size")?,
        completed: rd.u32("progress.completed")?,
        dispatched: rd.u32("progress.dispatched")?,
        queued: rd.u32("progress.queued")?,
        running: rd.u32("progress.running")?,
        cloud_running: rd.u32("progress.cloud_running")?,
    })
}

fn put_prediction(out: &mut Vec<u8>, p: &Prediction) {
    put_f64(out, p.completion_secs);
    put_f64(out, p.alpha);
    put_opt(out, &p.success_rate, |out, &rate| put_f64(out, rate));
}

fn read_prediction(rd: &mut Rd<'_>) -> Result<Prediction, BinError> {
    Ok(Prediction {
        completion_secs: rd.f64("prediction.completion_secs")?,
        alpha: rd.f64("prediction.alpha")?,
        success_rate: read_opt(rd, "prediction.success_rate", |rd| {
            rd.f64("prediction.success_rate")
        })?,
    })
}

// ---------------------------------------------------------------------------
// Requests (§5.3)
// ---------------------------------------------------------------------------

fn put_request(out: &mut Vec<u8>, request: &Request) {
    match request {
        Request::Deposit { user, credits } => {
            out.push(REQ_DEPOSIT);
            put_u64(out, user.0);
            put_f64(out, *credits);
        }
        Request::RegisterQos { user, env, size } => {
            out.push(REQ_REGISTER_QOS);
            put_u64(out, user.0);
            put_str(out, env);
            put_u32(out, *size);
        }
        Request::OrderQos {
            bot,
            credits,
            strategy,
        } => {
            out.push(REQ_ORDER_QOS);
            put_u64(out, bot.0);
            put_f64(out, *credits);
            put_opt(out, strategy, put_strategy);
        }
        Request::Predict { bot } => {
            out.push(REQ_PREDICT);
            put_u64(out, bot.0);
        }
        Request::ReportProgress { bot, progress } => {
            out.push(REQ_REPORT_PROGRESS);
            put_u64(out, bot.0);
            put_progress(out, progress);
        }
        Request::Complete { bot } => {
            out.push(REQ_COMPLETE);
            put_u64(out, bot.0);
        }
        Request::Batch(items) => {
            out.push(REQ_BATCH);
            put_u32(out, items.len() as u32);
            for item in items {
                put_request(out, item);
            }
        }
    }
}

fn read_request(rd: &mut Rd<'_>, depth: usize) -> Result<Request, BinError> {
    if depth > MAX_BATCH_DEPTH {
        return Err(BinError::TooDeep);
    }
    let parsed = match rd.u8("request")? {
        REQ_DEPOSIT => Request::Deposit {
            user: UserId(rd.u64("deposit.user")?),
            credits: rd.f64("deposit.credits")?,
        },
        REQ_REGISTER_QOS => Request::RegisterQos {
            user: UserId(rd.u64("register_qos.user")?),
            env: rd.str("register_qos.env")?,
            size: rd.u32("register_qos.size")?,
        },
        REQ_ORDER_QOS => Request::OrderQos {
            bot: BotId(rd.u64("order_qos.bot")?),
            credits: rd.f64("order_qos.credits")?,
            strategy: read_opt(rd, "order_qos.strategy", read_strategy)?,
        },
        REQ_PREDICT => Request::Predict {
            bot: BotId(rd.u64("predict.bot")?),
        },
        REQ_REPORT_PROGRESS => Request::ReportProgress {
            bot: BotId(rd.u64("report_progress.bot")?),
            progress: read_progress(rd)?,
        },
        REQ_COMPLETE => Request::Complete {
            bot: BotId(rd.u64("complete.bot")?),
        },
        REQ_BATCH => {
            let n = rd.count("batch.items")?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(read_request(rd, depth + 1)?);
            }
            Request::Batch(items)
        }
        tag => return Err(BinError::BadTag("request", tag)),
    };
    Ok(parsed)
}

// ---------------------------------------------------------------------------
// Responses (§5.5)
// ---------------------------------------------------------------------------

fn put_response(out: &mut Vec<u8>, response: &Response) {
    match response {
        Response::Deposited { user, balance } => {
            out.push(RESP_DEPOSITED);
            put_u64(out, user.0);
            put_f64(out, *balance);
        }
        Response::Registered { bot } => {
            out.push(RESP_REGISTERED);
            put_u64(out, bot.0);
        }
        Response::Ordered { bot } => {
            out.push(RESP_ORDERED);
            put_u64(out, bot.0);
        }
        Response::Predicted { bot, prediction } => {
            out.push(RESP_PREDICTED);
            put_u64(out, bot.0);
            put_opt(out, prediction, put_prediction);
        }
        Response::Action { bot, action } => {
            out.push(RESP_ACTION);
            put_u64(out, bot.0);
            match action {
                spequlos::scheduler::CloudAction::None => out.push(0x00),
                spequlos::scheduler::CloudAction::Start(n) => {
                    out.push(0x01);
                    put_u32(out, *n);
                }
                spequlos::scheduler::CloudAction::StopAll => out.push(0x02),
            }
        }
        Response::Completed { bot, spent, refund } => {
            out.push(RESP_COMPLETED);
            put_u64(out, bot.0);
            put_f64(out, *spent);
            put_f64(out, *refund);
        }
        Response::Batch(items) => {
            out.push(RESP_BATCH);
            put_u32(out, items.len() as u32);
            for item in items {
                put_response(out, item);
            }
        }
        Response::Error(e) => {
            out.push(RESP_ERROR);
            match e {
                RequestError::Credit(ce) => {
                    out.push(ERR_CREDIT);
                    out.push(match ce {
                        CreditError::InsufficientCredits => 0x00,
                        CreditError::NoOrder => 0x01,
                        CreditError::DuplicateOrder => 0x02,
                        CreditError::OrderClosed => 0x03,
                        CreditError::PoolSaturated => 0x04,
                    });
                }
                RequestError::UnknownBot(bot) => {
                    out.push(ERR_UNKNOWN_BOT);
                    put_u64(out, bot.0);
                }
                RequestError::Invalid(msg) => {
                    out.push(ERR_INVALID);
                    put_str(out, msg);
                }
                RequestError::Transport(msg) => {
                    out.push(ERR_TRANSPORT);
                    put_str(out, msg);
                }
            }
        }
    }
}

fn read_response(rd: &mut Rd<'_>, depth: usize) -> Result<Response, BinError> {
    if depth > MAX_BATCH_DEPTH {
        return Err(BinError::TooDeep);
    }
    let parsed = match rd.u8("response")? {
        RESP_DEPOSITED => Response::Deposited {
            user: UserId(rd.u64("deposited.user")?),
            balance: rd.f64("deposited.balance")?,
        },
        RESP_REGISTERED => Response::Registered {
            bot: BotId(rd.u64("registered.bot")?),
        },
        RESP_ORDERED => Response::Ordered {
            bot: BotId(rd.u64("ordered.bot")?),
        },
        RESP_PREDICTED => Response::Predicted {
            bot: BotId(rd.u64("predicted.bot")?),
            prediction: read_opt(rd, "predicted.prediction", read_prediction)?,
        },
        RESP_ACTION => Response::Action {
            bot: BotId(rd.u64("action.bot")?),
            action: match rd.u8("cloud action")? {
                0x00 => spequlos::scheduler::CloudAction::None,
                0x01 => spequlos::scheduler::CloudAction::Start(rd.u32("action.start")?),
                0x02 => spequlos::scheduler::CloudAction::StopAll,
                tag => return Err(BinError::BadTag("cloud action", tag)),
            },
        },
        RESP_COMPLETED => Response::Completed {
            bot: BotId(rd.u64("completed.bot")?),
            spent: rd.f64("completed.spent")?,
            refund: rd.f64("completed.refund")?,
        },
        RESP_BATCH => {
            let n = rd.count("batch.items")?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(read_response(rd, depth + 1)?);
            }
            Response::Batch(items)
        }
        RESP_ERROR => Response::Error(match rd.u8("error code")? {
            ERR_CREDIT => RequestError::Credit(match rd.u8("credit error")? {
                0x00 => CreditError::InsufficientCredits,
                0x01 => CreditError::NoOrder,
                0x02 => CreditError::DuplicateOrder,
                0x03 => CreditError::OrderClosed,
                0x04 => CreditError::PoolSaturated,
                tag => return Err(BinError::BadTag("credit error", tag)),
            }),
            ERR_UNKNOWN_BOT => RequestError::UnknownBot(BotId(rd.u64("unknown_bot.bot")?)),
            ERR_INVALID => RequestError::Invalid(rd.str("invalid.message")?),
            ERR_TRANSPORT => RequestError::Transport(rd.str("transport.message")?),
            tag => return Err(BinError::BadTag("error code", tag)),
        }),
        tag => return Err(BinError::BadTag("response", tag)),
    };
    Ok(parsed)
}

// ---------------------------------------------------------------------------
// Envelopes (§5.2, §5.4)
// ---------------------------------------------------------------------------

/// Appends one request envelope to `out`: `id:u64 · t:u64 (ms) ·
/// request` (§5.2).
pub fn encode_request_into(out: &mut Vec<u8>, envelope: &RequestEnvelope) {
    put_u64(out, envelope.id);
    put_u64(out, envelope.at.as_millis());
    put_request(out, &envelope.request);
}

/// [`encode_request_into`] a fresh buffer.
pub fn encode_request(envelope: &RequestEnvelope) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    encode_request_into(&mut out, envelope);
    out
}

/// Decodes a request envelope; the payload must hold exactly one (§5.2).
pub fn decode_request(payload: &[u8]) -> Result<RequestEnvelope, BinError> {
    let mut rd = Rd::new(payload);
    let envelope = RequestEnvelope {
        id: rd.u64("envelope.id")?,
        at: SimTime::from_millis(rd.u64("envelope.t")?),
        request: read_request(&mut rd, 0)?,
    };
    rd.finish()?;
    Ok(envelope)
}

/// Appends one response envelope to `out`: `id:u64 · response` (§5.4).
/// The server encodes replies through this straight into a connection's
/// write buffer ([`crate::frame::write_binary_frame_with`]).
pub fn encode_response_into(out: &mut Vec<u8>, envelope: &ResponseEnvelope) {
    put_u64(out, envelope.id);
    put_response(out, &envelope.response);
}

/// [`encode_response_into`] a fresh buffer.
pub fn encode_response(envelope: &ResponseEnvelope) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    encode_response_into(&mut out, envelope);
    out
}

/// Decodes a response envelope; the payload must hold exactly one (§5.4).
pub fn decode_response(payload: &[u8]) -> Result<ResponseEnvelope, BinError> {
    let mut rd = Rd::new(payload);
    let envelope = ResponseEnvelope {
        id: rd.u64("envelope.id")?,
        response: read_response(&mut rd, 0)?,
    };
    rd.finish()?;
    Ok(envelope)
}

/// Best-effort correlation id of a binary payload that failed to decode
/// — the envelope id travels first (§5.2), so eight readable bytes are
/// enough. The binary twin of [`crate::wire::peek_id`].
pub fn peek_id(payload: &[u8]) -> Option<u64> {
    payload.first_chunk::<8>().map(|b| u64::from_le_bytes(*b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Deposit {
                user: UserId(1),
                credits: 1000.5,
            },
            Request::RegisterQos {
                user: UserId(u64::MAX),
                env: "g5klyo/XWHEP/BIG ünïcodé".into(),
                size: 1000,
            },
            Request::OrderQos {
                bot: BotId(0),
                credits: 150.0,
                strategy: Some(StrategyCombo::parse("9A-G-D").unwrap()),
            },
            Request::OrderQos {
                bot: BotId(1),
                credits: 10.0,
                strategy: None,
            },
            Request::Predict { bot: BotId(0) },
            Request::ReportProgress {
                bot: BotId(3),
                progress: BotProgress {
                    now: SimTime::from_secs(61),
                    size: 100,
                    completed: 7,
                    dispatched: 100,
                    queued: 2,
                    running: 91,
                    cloud_running: 2,
                },
            },
            Request::Complete { bot: BotId(0) },
            Request::Batch(vec![
                Request::Predict { bot: BotId(0) },
                Request::Complete { bot: BotId(1) },
            ]),
            Request::Batch(vec![]),
        ]
    }

    fn sample_responses() -> Vec<Response> {
        use spequlos::scheduler::CloudAction;
        vec![
            Response::Deposited {
                user: UserId(1),
                balance: 3.25,
            },
            Response::Registered { bot: BotId(7) },
            Response::Ordered { bot: BotId(7) },
            Response::Predicted {
                bot: BotId(7),
                prediction: Some(Prediction {
                    completion_secs: 1234.5,
                    success_rate: Some(0.75),
                    alpha: 1.1,
                }),
            },
            Response::Predicted {
                bot: BotId(7),
                prediction: None,
            },
            Response::Action {
                bot: BotId(7),
                action: CloudAction::Start(5),
            },
            Response::Action {
                bot: BotId(7),
                action: CloudAction::StopAll,
            },
            Response::Action {
                bot: BotId(7),
                action: CloudAction::None,
            },
            Response::Completed {
                bot: BotId(7),
                spent: 62.5,
                refund: 87.5,
            },
            Response::Batch(vec![
                Response::Ordered { bot: BotId(7) },
                Response::Error(RequestError::Credit(CreditError::NoOrder)),
            ]),
            Response::Batch(vec![]),
            Response::Error(RequestError::Credit(CreditError::PoolSaturated)),
            Response::Error(RequestError::UnknownBot(BotId(9))),
            Response::Error(RequestError::Invalid("bad".into())),
            Response::Error(RequestError::Transport("connection reset".into())),
        ]
    }

    #[test]
    fn request_envelopes_roundtrip() {
        for (i, request) in sample_requests().into_iter().enumerate() {
            let envelope = RequestEnvelope {
                id: i as u64 * 7919,
                at: SimTime::from_millis(i as u64 * 61_000),
                request,
            };
            let bytes = encode_request(&envelope);
            let back = decode_request(&bytes).expect("decodes");
            assert_eq!(back, envelope);
            assert_eq!(encode_request(&back), bytes, "re-encode bit-identical");
        }
    }

    #[test]
    fn response_envelopes_roundtrip() {
        for (i, response) in sample_responses().into_iter().enumerate() {
            let envelope = ResponseEnvelope {
                id: i as u64,
                response,
            };
            let bytes = encode_response(&envelope);
            let back = decode_response(&bytes).expect("decodes");
            assert_eq!(back, envelope);
            assert_eq!(encode_response(&back), bytes, "re-encode bit-identical");
        }
    }

    #[test]
    fn decoded_binary_reencodes_json_identically() {
        // The §5 equivalence contract: going through the binary codec
        // must not perturb what the JSON codec would have carried.
        for (i, request) in sample_requests().into_iter().enumerate() {
            let envelope = RequestEnvelope {
                id: i as u64,
                at: SimTime::from_secs(i as u64),
                request,
            };
            let json_direct = envelope.to_json();
            let through_binary = decode_request(&encode_request(&envelope)).expect("decodes");
            assert_eq!(through_binary.to_json(), json_direct);
        }
        for (i, response) in sample_responses().into_iter().enumerate() {
            let envelope = ResponseEnvelope {
                id: i as u64,
                response,
            };
            let json_direct = envelope.to_json();
            let through_binary = decode_response(&encode_response(&envelope)).expect("decodes");
            assert_eq!(through_binary.to_json(), json_direct);
        }
    }

    #[test]
    fn layout_is_the_documented_bytes() {
        // §5.2/§5.3 worked example: Deposit{user:2, credits:1.0} at id 1,
        // t 1000 ms. 8 id bytes, 8 t bytes, tag 0x01, 8 user bytes,
        // 8 credit bytes = 33 bytes total.
        let envelope = RequestEnvelope {
            id: 1,
            at: SimTime::from_millis(1000),
            request: Request::Deposit {
                user: UserId(2),
                credits: 1.0,
            },
        };
        let bytes = encode_request(&envelope);
        assert_eq!(bytes.len(), 33);
        assert_eq!(&bytes[..8], &1u64.to_le_bytes());
        assert_eq!(&bytes[8..16], &1000u64.to_le_bytes());
        assert_eq!(bytes[16], REQ_DEPOSIT);
        assert_eq!(&bytes[17..25], &2u64.to_le_bytes());
        assert_eq!(&bytes[25..33], &1.0f64.to_bits().to_le_bytes());
    }

    #[test]
    fn truncations_error_never_panic() {
        for request in sample_requests() {
            let bytes = encode_request(&RequestEnvelope {
                id: 9,
                at: SimTime::from_secs(1),
                request,
            });
            for cut in 0..bytes.len() {
                assert!(decode_request(&bytes[..cut]).is_err(), "cut {cut}");
            }
        }
        for response in sample_responses() {
            let bytes = encode_response(&ResponseEnvelope { id: 9, response });
            for cut in 0..bytes.len() {
                assert!(decode_response(&bytes[..cut]).is_err(), "cut {cut}");
            }
        }
    }

    #[test]
    fn trailing_bytes_unknown_tags_and_lying_counts_are_rejected() {
        let mut bytes = encode_request(&RequestEnvelope {
            id: 1,
            at: SimTime::ZERO,
            request: Request::Predict { bot: BotId(2) },
        });
        bytes.push(0x00);
        assert_eq!(decode_request(&bytes), Err(BinError::Trailing(1)));

        let mut bad_tag = vec![0u8; 16];
        bad_tag.push(0xee);
        assert_eq!(
            decode_request(&bad_tag),
            Err(BinError::BadTag("request", 0xee))
        );

        // A batch claiming 4 billion items is refused before allocation.
        let mut lying = vec![0u8; 16];
        lying.push(REQ_BATCH);
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_request(&lying),
            Err(BinError::Oversized("batch.items"))
        );
    }

    #[test]
    fn over_deep_batch_nesting_is_refused() {
        // A hostile frame of nested batch tags must hit the depth cap,
        // not the stack guard (§5.3).
        let mut bytes = vec![0u8; 16];
        for _ in 0..(MAX_BATCH_DEPTH + 2) {
            bytes.push(REQ_BATCH);
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        bytes.push(REQ_PREDICT);
        bytes.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(decode_request(&bytes), Err(BinError::TooDeep));
    }

    #[test]
    fn peek_id_reads_the_leading_eight_bytes() {
        let envelope = RequestEnvelope {
            id: 0xDEAD_BEEF,
            at: SimTime::ZERO,
            request: Request::Predict { bot: BotId(0) },
        };
        assert_eq!(peek_id(&encode_request(&envelope)), Some(0xDEAD_BEEF));
        assert_eq!(peek_id(&[1, 2, 3]), None);
    }

    #[test]
    fn non_finite_floats_survive_binary_but_not_json() {
        // §5.1: binary carries exact bits; the JSON path nulls them out.
        let envelope = RequestEnvelope {
            id: 1,
            at: SimTime::ZERO,
            request: Request::Deposit {
                user: UserId(1),
                credits: f64::INFINITY,
            },
        };
        let back = decode_request(&encode_request(&envelope)).expect("decodes");
        assert_eq!(back, envelope);
        assert!(RequestEnvelope::from_json(&envelope.to_json()).is_err());
    }
}
