//! The SpeQuloS wire protocol: typed, serializable requests and
//! responses (Fig. 3 as data).
//!
//! The paper defines SpeQuloS by the message sequence between users and
//! the service — `registerQoS` → `orderQoS` → `getQoSInformation` →
//! monitoring → billing → `pay`. This module reifies that sequence as a
//! [`Request`]/[`Response`] enum pair plus one entry point,
//! [`SpqService::handle`], so a session is *data*: it can be encoded to
//! dependency-free JSON (via the shared [`simcore::json`] module, the
//! same implementation the bench telemetry uses), stored, diffed, and
//! [`replay`]ed against any service assembly built by
//! [`crate::SpeQuloS::builder`]. The wire server (`spq-server`) plugs in
//! at exactly this seam: it decodes a request, calls `handle` and encodes
//! the response.
//!
//! Each message is declared once, as a row of the message table below
//! (`messages!`): variant, JSON tag, binary tag, ordered fields. The
//! enums, [`Request::kind`], the JSON codec and the binary body codec
//! (PROTOCOL.md §5, [`Binary`]) are all derived from it,
//! and `spq-lint`'s `spec-protocol-tags` checks its tags against
//! PROTOCOL.md. Adding a message is one row plus its arm in
//! [`SpqService::handle`].
//!
//! | request | response on success | protocol arrow |
//! |---------|--------------------|----------------|
//! | [`Request::Deposit`] | [`Response::Deposited`] | administrator credit policy (§3.3) |
//! | [`Request::RegisterQos`] | [`Response::Registered`] | `registerQoS(BoT)` |
//! | [`Request::OrderQos`] | [`Response::Ordered`] | `orderQoS(BoTId, credit)` |
//! | [`Request::Predict`] | [`Response::Predicted`] | `getQoSInformation(BoTId)` |
//! | [`Request::ReportProgress`] | [`Response::Action`] | monitoring tick → start/stop cloud workers |
//! | [`Request::Complete`] | [`Response::Completed`] | completion → billing → `pay` |
//! | [`Request::Batch`] | [`Response::Batch`] | pipelining: one frame, many arrows |
//!
//! Failures come back as [`Response::Error`] wrapping a typed
//! [`RequestError`] — never a panic, whatever the request stream.
//! [`Request::Batch`] bundles several requests into one exchange (e.g. a
//! whole monitoring tick across many BoTs); the service answers with a
//! [`Response::Batch`] carrying one response per sub-request, in order,
//! so a batched session replays to exactly the transcript of its
//! unbatched form. Batches do not nest — a nested batch answers with
//! [`RequestError::Invalid`] in its slot — and both decoders refuse
//! messages more than [`MAX_BATCH_DEPTH`] batches deep.
//!
//! Encoding guarantees: [`encode_session`] / [`decode_session`] round-trip
//! bit-identically (encode → decode → re-encode yields the same bytes),
//! and the existing [`LogEvent`] protocol log serializes the same way via
//! [`encode_log`] / [`decode_log`]. Limits: ids and millisecond
//! timestamps travel as JSON numbers (`f64`), so values must stay below
//! 2⁵³ — ample for the service's sequential BoT ids and simulated clocks,
//! but a frontend minting hash-derived 64-bit user ids would need its own
//! id mapping. Non-finite floats encode as `null` and come back as a
//! decode error, never an unreadable document.

pub(crate) mod codec;

use crate::credit::{CreditError, UserId};
use crate::oracle::{Prediction, StrategyCombo};
use crate::progress::BotProgress;
use crate::scheduler::CloudAction;
use crate::service::{LogEvent, SpeQuloS};
use botwork::BotId;
use codec::{coded, messages};
pub use codec::{BinError, Binary, Message, Rd, MAX_BATCH_DEPTH};
use simcore::json::{self, Reader, Token, Writer};
use simcore::SimTime;
use std::fmt;

messages! {
    /// A user-facing request of the SpeQuloS protocol (Fig. 3).
    #[derive(Clone, Debug, PartialEq)]
    pub enum Request: "req", "request" {
        /// Administrator operation: deposit credits into a user account.
        Deposit = "deposit", 0x01 {
            /// The account.
            user: UserId,
            /// Credits to add (must be finite and non-negative).
            credits: f64,
        }
        /// `registerQoS(BoT)`: register a BoT execution for monitoring.
        RegisterQos = "register_qos", 0x02 {
            /// The registering user.
            user: UserId,
            /// Environment label (`trace/middleware/class`).
            env: String,
            /// BoT size in tasks.
            size: u32,
        }
        /// `orderQoS(BoTId, credit)`: provision credits for a BoT.
        OrderQos = "order_qos", 0x03 {
            /// The BoT (from [`Response::Registered`]).
            bot: BotId,
            /// Credits to provision (must be finite and non-negative).
            credits: f64,
            /// Strategy combination; `None` uses the service's
            /// [`crate::SpeQuloS::default_strategy`].
            strategy: Option<StrategyCombo>,
        }
        /// `getQoSInformation(BoTId)`: ask for a completion-time prediction.
        Predict = "predict", 0x04 {
            /// The BoT.
            bot: BotId,
        }
        /// One monitoring period: report a progress snapshot; the response
        /// carries the scheduler's cloud action.
        ReportProgress = "report_progress", 0x05 {
            /// The BoT.
            bot: BotId,
            /// The snapshot (its `now` field is the authoritative sample
            /// time).
            progress: BotProgress,
        }
        /// BoT completion: archive, stop billing, `pay` the order.
        Complete = "complete", 0x06 {
            /// The BoT.
            bot: BotId,
        }
    } with {
        /// A pipelined bundle: the sub-requests are served in order at the
        /// batch's service time and answered by one [`Response::Batch`] with
        /// one response per sub-request. Lets a client ship a whole
        /// monitoring tick (N tenants' `ReportProgress`) in one frame
        /// instead of N round trips. Batches do not nest.
        Batch(items: Vec<Request>) = "batch", 0x07;
    }
}

messages! {
    /// The service's answer to a [`Request`].
    #[derive(Clone, Debug, PartialEq)]
    pub enum Response: "resp", "response" {
        /// Credits deposited; reports the new balance.
        Deposited = "deposited", 0x81 {
            /// The account.
            user: UserId,
            /// Balance after the deposit.
            balance: f64,
        }
        /// BoT registered; submissions must be tagged with this id.
        Registered = "registered", 0x82 {
            /// The assigned BoT id.
            bot: BotId,
        }
        /// QoS order accepted.
        Ordered = "ordered", 0x83 {
            /// The BoT.
            bot: BotId,
        }
        /// Prediction result (`None` when too little progress exists to
        /// extrapolate from).
        Predicted = "predicted", 0x84 {
            /// The BoT.
            bot: BotId,
            /// The prediction, if one could be made.
            prediction: Option<Prediction>,
        }
        /// Cloud action ordered by the Scheduler for this monitoring period.
        Action = "action", 0x85 {
            /// The BoT.
            bot: BotId,
            /// The action the infrastructure must apply.
            action: CloudAction,
        }
        /// Completion acknowledged; the order was paid. Carries the billing
        /// summary of the `pay` arrow so a remote caller can settle accounts
        /// without reaching into the service.
        Completed = "completed", 0x86 {
            /// The BoT.
            bot: BotId,
            /// Credits billed against the order over the whole execution.
            spent: f64,
            /// Unspent credits returned to the user by `pay` (0 when the
            /// order was already closed or never existed).
            refund: f64,
        }
    } with {
        /// One response per sub-request of a [`Request::Batch`], in order.
        Batch(items: Vec<Response>) = "batch", 0x87;
        /// The request failed; no state was changed.
        Error(error: RequestError) = "error", 0x88;
    }
}

/// Typed failure of a protocol request.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestError {
    /// A Credit System error ([`CreditError`]), e.g. insufficient
    /// credits, a duplicate order, or admission control refusing the
    /// order on a saturated pool.
    Credit(CreditError),
    /// The request names a BoT the service never registered.
    UnknownBot(BotId),
    /// The request is malformed (e.g. a negative credit amount).
    Invalid(String),
    /// The request never reached the service: connection lost, frame
    /// malformed, or the reply did not correlate. Only produced by
    /// transport clients (e.g. `spq-server`'s `RemoteService`) — an
    /// in-process service never returns it.
    Transport(String),
}

// Error codes under `Response::Error` (PROTOCOL.md §5.5). In JSON a
// credit error is spelled by its own name in place of `credit`.
coded!(RequestError {
    Credit {0: credit "credit error"} = "credit", 0x00;
    UnknownBot {0: bot "unknown_bot.bot"} = "unknown_bot", 0x01;
    Invalid {0: message "invalid.message"} = "invalid", 0x02;
    Transport {0: message "transport.message"} = "transport", 0x03;
});

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Credit(e) => write!(f, "credit system: {e}"),
            RequestError::UnknownBot(bot) => write!(f, "unknown BoT {bot}"),
            RequestError::Invalid(msg) => write!(f, "invalid request: {msg}"),
            RequestError::Transport(msg) => write!(f, "transport failure: {msg}"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<CreditError> for RequestError {
    fn from(e: CreditError) -> Self {
        RequestError::Credit(e)
    }
}

/// The protocol entry point: anything that can serve SpeQuloS requests.
///
/// [`SpeQuloS`] implements this over its assembled modules; a transport
/// client (e.g. `spq-server`'s `RemoteService`) implements it over a
/// connection, so callers written against `&mut dyn SpqService` swap
/// local for remote without code changes. The blanket impls for
/// `&mut S` and `Box<S>` keep both spellings usable at every seam.
pub trait SpqService {
    /// Serves one request at service time `now`. Must never panic on any
    /// request stream — failures are [`Response::Error`].
    fn handle(&mut self, request: Request, now: SimTime) -> Response;
}

impl<S: SpqService + ?Sized> SpqService for &mut S {
    fn handle(&mut self, request: Request, now: SimTime) -> Response {
        (**self).handle(request, now)
    }
}

impl<S: SpqService + ?Sized> SpqService for Box<S> {
    fn handle(&mut self, request: Request, now: SimTime) -> Response {
        (**self).handle(request, now)
    }
}

impl SpqService for SpeQuloS {
    fn handle(&mut self, request: Request, now: SimTime) -> Response {
        match request {
            Request::Deposit { user, credits } => {
                if !credits.is_finite() || credits < 0.0 {
                    return Response::Error(RequestError::Invalid(format!(
                        "deposit of {credits} credits"
                    )));
                }
                self.credits.deposit(user, credits);
                Response::Deposited {
                    user,
                    balance: self.credits.balance(user),
                }
            }
            Request::RegisterQos { user, env, size } => Response::Registered {
                bot: self.register_qos(&env, size, user, now),
            },
            Request::OrderQos {
                bot,
                credits,
                strategy,
            } => {
                if !credits.is_finite() || credits < 0.0 {
                    return Response::Error(RequestError::Invalid(format!(
                        "order of {credits} credits"
                    )));
                }
                // A snapshot stores the threshold, and JSON cannot carry a
                // non-finite one back.
                if let Some(t) = strategy.and_then(|s| s.trigger.threshold()) {
                    if !t.is_finite() {
                        let msg = format!("strategy threshold {t}");
                        return Response::Error(RequestError::Invalid(msg));
                    }
                }
                if self.user_of(bot).is_none() {
                    return Response::Error(RequestError::UnknownBot(bot));
                }
                let strategy = strategy.unwrap_or_else(|| self.default_strategy());
                match self.order_qos(bot, credits, strategy, now) {
                    Ok(()) => Response::Ordered { bot },
                    Err(e) => Response::Error(e.into()),
                }
            }
            Request::Predict { bot } => {
                if self.info().record(bot).is_none() {
                    return Response::Error(RequestError::UnknownBot(bot));
                }
                Response::Predicted {
                    bot,
                    prediction: self.predict(bot, now),
                }
            }
            Request::ReportProgress { bot, progress } => {
                if self.info().record(bot).is_none() {
                    return Response::Error(RequestError::UnknownBot(bot));
                }
                let tick_hours = self.tick_granularity().as_hours_f64();
                Response::Action {
                    bot,
                    action: self.on_progress(bot, &progress, tick_hours),
                }
            }
            Request::Complete { bot } => {
                if self.info().record(bot).is_none() {
                    return Response::Error(RequestError::UnknownBot(bot));
                }
                // Billing summary read before `pay` closes the order:
                // `remaining` is exactly the refund `pay` will return for
                // an open order, and 0 for a closed or never-ordered one.
                let spent = self.credits.spent(bot);
                let refund = self.credits.remaining(bot);
                self.on_complete(bot, now);
                Response::Completed { bot, spent, refund }
            }
            Request::Batch(items) => Response::Batch(
                items
                    .into_iter()
                    .map(|item| match item {
                        // One level only: nesting would allow unbounded
                        // recursion from the wire.
                        Request::Batch(_) => Response::Error(RequestError::Invalid(
                            "batches do not nest".to_string(),
                        )),
                        item => self.handle(item, now),
                    })
                    .collect(),
            ),
        }
    }
}

/// Replays a session — `(service time, request)` pairs, e.g. from
/// [`decode_session`] — through a service, returning one response per
/// request.
pub fn replay<S: SpqService + ?Sized>(
    service: &mut S,
    session: &[(SimTime, Request)],
) -> Vec<Response> {
    session
        .iter()
        .map(|(now, req)| service.handle(req.clone(), *now))
        .collect()
}

// ---------------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------------

pub(crate) fn missing(key: &str) -> String {
    format!("missing or invalid `{key}`")
}

/// What [`read_object`] found under the scalar keys it was given — the
/// first member of each name — with one message for a member that is
/// missing or not of the kind asked for.
pub(crate) struct Scalars<'a, const N: usize> {
    keys: [&'static str; N],
    found: [Option<Token<'a>>; N],
}

impl<const N: usize> Scalars<'_, N> {
    pub(crate) fn get(&self, key: &str) -> Option<&Token<'_>> {
        let slot = self.keys.iter().position(|k| *k == key)?;
        self.found.get(slot)?.as_ref()
    }

    pub(crate) fn u64(&self, key: &str) -> Result<u64, String> {
        let n = self.get(key).and_then(Token::as_u64);
        n.ok_or_else(|| missing(key))
    }

    pub(crate) fn u32(&self, key: &str) -> Result<u32, String> {
        let n = self.u64(key).ok().and_then(|n| u32::try_from(n).ok());
        n.ok_or_else(|| missing(key))
    }

    pub(crate) fn f64(&self, key: &str) -> Result<f64, String> {
        let n = self.get(key).and_then(Token::as_f64);
        n.ok_or_else(|| missing(key))
    }

    pub(crate) fn str(&self, key: &str) -> Result<&str, String> {
        let s = self.get(key).and_then(Token::as_str);
        s.ok_or_else(|| missing(key))
    }
}

/// One pass over a message object whose `head` has just been read.
/// Members may come in any order, so nothing is judged before the object
/// is closed: the values of the scalar `keys` are collected, every other
/// member is offered to `nested`, which reads it and returns `true` or
/// leaves it to be skipped. The first of duplicated members wins; a value
/// that is not an object reads as one without members. Syntax errors stay
/// with the reader and [`json::read`] reports them first — so the
/// decoders built on this return field errors only, and a malformed
/// document is reported as the document parser would have.
pub(crate) fn read_object<'a, const N: usize>(
    r: &mut Reader<'a>,
    head: Token<'a>,
    keys: [&'static str; N],
    mut nested: impl FnMut(&str, &mut Reader<'a>) -> bool,
) -> Scalars<'a, N> {
    let mut found = [const { None }; N];
    if head != Token::Obj {
        r.skip_from(&head);
        return Scalars { keys, found };
    }
    while let Some(key) = r.next_key() {
        let slot = keys.iter().position(|k| *k == key);
        match slot.and_then(|i| found.get_mut(i)) {
            Some(slot @ None) => *slot = Some(r.scalar()),
            _ if nested(&key, r) => {}
            _ => r.skip_value(),
        }
    }
    Scalars { keys, found }
}

/// [`read_object`] of the value `r` stands at.
pub(crate) fn read_members<'a, const N: usize>(
    r: &mut Reader<'a>,
    keys: [&'static str; N],
    nested: impl FnMut(&str, &mut Reader<'a>) -> bool,
) -> Scalars<'a, N> {
    let head = r.token();
    read_object(r, head, keys, nested)
}

/// Fills `slot` from `read` if this is the first member of its name.
pub(crate) fn first<T>(slot: &mut Option<T>, read: impl FnOnce() -> T) -> bool {
    let first = slot.is_none();
    if first {
        *slot = Some(read());
    }
    first
}

/// Claims envelope members (`"id"`, `"t"`) a flattened message does not
/// own: reads the value and returns `true`, or leaves it and returns
/// `false`.
pub type Extra<'x, 'a> = &'x mut dyn FnMut(&str, &mut Reader<'a>) -> bool;

pub(crate) fn no_extra(_: &str, _: &mut Reader<'_>) -> bool {
    false
}

/// An [`Extra`]'s building block: reads a whole-number head member into
/// `slot` if it is the first of its name (`true`), else leaves it.
pub fn claim_whole(slot: &mut Option<Option<u64>>, r: &mut Reader<'_>) -> bool {
    first(slot, || r.scalar().as_u64())
}

/// What [`claim_whole`] collected under `key`, or the usual message.
pub fn claimed_whole(slot: Option<Option<u64>>, key: &str) -> Result<u64, String> {
    slot.flatten().ok_or_else(|| missing(key))
}

/// An array's elements, or the first one that failed, with its index.
pub(crate) type Items<T> = Result<Vec<T>, (usize, String)>;

/// Every element of the array `r` stands at through `item`, walked to
/// its end whatever fails. `None` when the value is not an array.
pub(crate) fn read_array<'a, T>(
    r: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T, String>,
) -> Option<Items<T>> {
    let head = r.token();
    if head != Token::Arr {
        r.skip_from(&head);
        return None;
    }
    let mut out = Ok(Vec::new());
    let mut index = 0;
    while r.next_item() {
        let decoded = item(r);
        if let Ok(items) = &mut out {
            match decoded {
                Ok(x) => items.push(x),
                Err(e) => out = Err((index, e)),
            }
        }
        index += 1;
    }
    Some(out)
}

impl Request {
    /// The request's wire tag (`"deposit"`, `"report_progress"`, …) —
    /// the same string the JSON encoding carries in its `"req"` field.
    /// Stable, so per-kind accounting (server-side request timing, the
    /// benchmark's per-kind counts) can key on it without decoding
    /// anything.
    pub fn kind(&self) -> &'static str {
        self.tag()
    }
}

fn encode_entries(lines: impl Iterator<Item = String>) -> String {
    // One entry per line keeps transcripts line-diffable.
    let lines: Vec<String> = lines.collect();
    if lines.is_empty() {
        "[]\n".to_string()
    } else {
        format!("[\n{}\n]\n", lines.join(",\n"))
    }
}

/// Decodes a document that is one array of entries; the first entry
/// that fails is reported as it stands.
fn decode_entries<'a, T>(
    text: &'a str,
    what: &str,
    entry: impl FnMut(&mut Reader<'a>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let entries = json::read(text, |r| read_array(r, entry))?;
    let entries = entries.ok_or_else(|| format!("{what} must be a JSON array"))?;
    entries.map_err(|(_, e)| e)
}

/// Encodes a session — `(service time, request)` pairs — as a JSON array,
/// one request object per line. The encoding round-trips bit-identically
/// through [`decode_session`].
pub fn encode_session(session: &[(SimTime, Request)]) -> String {
    encode_entries(session.iter().map(|(t, r)| encode_session_entry(*t, r)))
}

/// Encodes one `(service time, request)` pair as a single JSON object —
/// exactly the per-line entry of [`encode_session`]. It was the payload
/// of the write-ahead log's earlier record format, which [`crate::wal`]
/// still reads.
pub fn encode_session_entry(t: SimTime, request: &Request) -> String {
    let mut entry = String::with_capacity(256);
    write_entry(&mut Writer::new(&mut entry), t, request);
    entry
}

/// Writes one entry of a session or a log: its time `t`, then the
/// message's members, as one object.
pub(crate) fn write_entry(w: &mut Writer<'_>, t: SimTime, message: &impl Message) {
    w.begin_object().key("t").num(t.as_millis() as f64);
    message.write_members(w);
    w.end_object();
}

/// Decodes one entry written by [`write_entry`].
pub(crate) fn read_entry<M: Message>(r: &mut Reader<'_>) -> Result<(SimTime, M), String> {
    let mut t = None;
    let message = M::read(r, &mut |key, r| key == "t" && claim_whole(&mut t, r));
    Ok((SimTime::from_millis(claimed_whole(t, "t")?), message?))
}

/// Decodes a single session entry produced by [`encode_session_entry`].
pub fn decode_session_entry(text: &str) -> Result<(SimTime, Request), String> {
    json::read(text, read_entry)?
}

/// Decodes a session produced by [`encode_session`].
pub fn decode_session(text: &str) -> Result<Vec<(SimTime, Request)>, String> {
    decode_entries(text, "session", read_entry)
}

/// Encodes the responses of a replayed session, one per line.
pub fn encode_responses(responses: &[Response]) -> String {
    encode_entries(responses.iter().map(Response::to_json))
}

/// Decodes responses produced by [`encode_responses`].
pub fn decode_responses(text: &str) -> Result<Vec<Response>, String> {
    decode_entries(text, "responses", |r| Response::read(r, &mut no_extra))
}

/// Encodes a protocol log (e.g. [`SpeQuloS::log`]) as a JSON array, one
/// event object per line.
pub fn encode_log(log: &[(SimTime, LogEvent)]) -> String {
    encode_entries(log.iter().map(|(t, e)| {
        let mut line = String::new();
        write_entry(&mut Writer::new(&mut line), *t, e);
        line
    }))
}

/// Decodes a protocol log produced by [`encode_log`].
pub fn decode_log(text: &str) -> Result<Vec<(SimTime, LogEvent)>, String> {
    decode_entries(text, "log", read_entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::credit::CreditError;

    fn progress(secs: u64, done: u32, cloud: u32) -> BotProgress {
        BotProgress {
            now: SimTime::from_secs(secs),
            size: 100,
            completed: done,
            dispatched: 100,
            queued: 0,
            running: 100 - done,
            cloud_running: cloud,
        }
    }

    #[test]
    fn handle_runs_the_fig3_cycle() {
        let mut spq = SpeQuloS::new();
        let user = UserId(1);
        let r = spq.handle(
            Request::Deposit {
                user,
                credits: 1000.0,
            },
            SimTime::ZERO,
        );
        assert_eq!(
            r,
            Response::Deposited {
                user,
                balance: 1000.0
            }
        );
        let Response::Registered { bot } = spq.handle(
            Request::RegisterQos {
                user,
                env: "seti/XWHEP/SMALL".into(),
                size: 100,
            },
            SimTime::ZERO,
        ) else {
            panic!("registration must succeed");
        };
        assert_eq!(
            spq.handle(
                Request::OrderQos {
                    bot,
                    credits: 150.0,
                    strategy: None,
                },
                SimTime::ZERO,
            ),
            Response::Ordered { bot }
        );
        assert_eq!(spq.strategy(bot), Some(StrategyCombo::paper_default()));

        for minute in 1..=89u64 {
            let r = spq.handle(
                Request::ReportProgress {
                    bot,
                    progress: progress(minute * 60, minute as u32, 0),
                },
                SimTime::from_secs(minute * 60),
            );
            assert_eq!(
                r,
                Response::Action {
                    bot,
                    action: CloudAction::None
                },
                "minute {minute}"
            );
        }
        let Response::Predicted {
            prediction: Some(p),
            ..
        } = spq.handle(Request::Predict { bot }, SimTime::from_secs(5_340))
        else {
            panic!("prediction must exist past 50%");
        };
        assert!(p.completion_secs > 0.0);

        let Response::Action {
            action: CloudAction::Start(n),
            ..
        } = spq.handle(
            Request::ReportProgress {
                bot,
                progress: progress(5_400, 90, 0),
            },
            SimTime::from_secs(5_400),
        )
        else {
            panic!("trigger at 90% must start the fleet");
        };
        assert!(n >= 1);

        assert_eq!(
            spq.handle(
                Request::ReportProgress {
                    bot,
                    progress: progress(5_520, 100, n),
                },
                SimTime::from_secs(5_520),
            ),
            Response::Action {
                bot,
                action: CloudAction::StopAll
            }
        );
        let Response::Completed {
            bot: done,
            spent,
            refund,
        } = spq.handle(Request::Complete { bot }, SimTime::from_secs(5_520))
        else {
            panic!("completion must be acknowledged");
        };
        assert_eq!(done, bot);
        assert!(spent > 0.0, "the burst was billed");
        assert_eq!(spent, spq.credits.spent(bot), "wire spent == ledger spent");
        assert_eq!(spent + refund, 150.0, "order fully settled");
        assert!(spq.credits.balance(user) > 850.0, "refund returned");
    }

    #[test]
    fn unknown_bot_errors_do_not_panic() {
        let mut spq = SpeQuloS::new();
        let ghost = BotId(42);
        for req in [
            Request::OrderQos {
                bot: ghost,
                credits: 10.0,
                strategy: None,
            },
            Request::Predict { bot: ghost },
            Request::ReportProgress {
                bot: ghost,
                progress: progress(60, 1, 0),
            },
            Request::Complete { bot: ghost },
        ] {
            assert_eq!(
                spq.handle(req, SimTime::ZERO),
                Response::Error(RequestError::UnknownBot(ghost))
            );
        }
    }

    #[test]
    fn invalid_amounts_are_rejected() {
        let mut spq = SpeQuloS::new();
        let user = UserId(3);
        assert!(matches!(
            spq.handle(
                Request::Deposit {
                    user,
                    credits: -5.0
                },
                SimTime::ZERO
            ),
            Response::Error(RequestError::Invalid(_))
        ));
        let Response::Registered { bot } = spq.handle(
            Request::RegisterQos {
                user,
                env: "env".into(),
                size: 10,
            },
            SimTime::ZERO,
        ) else {
            panic!();
        };
        assert!(matches!(
            spq.handle(
                Request::OrderQos {
                    bot,
                    credits: f64::NAN,
                    strategy: None
                },
                SimTime::ZERO
            ),
            Response::Error(RequestError::Invalid(_))
        ));
    }

    #[test]
    fn a_non_finite_strategy_threshold_is_invalid() {
        use crate::oracle::Trigger;
        let mut spq = SpeQuloS::new();
        let user = UserId(4);
        spq.handle(
            Request::Deposit {
                user,
                credits: 100.0,
            },
            SimTime::ZERO,
        );
        let Response::Registered { bot } = spq.handle(
            Request::RegisterQos {
                user,
                env: "env".into(),
                size: 10,
            },
            SimTime::ZERO,
        ) else {
            panic!();
        };
        for trigger in [
            Trigger::CompletionThreshold(f64::NAN),
            Trigger::AssignmentThreshold(f64::INFINITY),
            Trigger::RateDrop {
                fraction: f64::NEG_INFINITY,
            },
        ] {
            let strategy = StrategyCombo {
                trigger,
                ..StrategyCombo::paper_default()
            };
            let order = Request::OrderQos {
                bot,
                credits: 10.0,
                strategy: Some(strategy),
            };
            // The binary codec carries any bits, so this is what a frame
            // decodes to.
            let mut body = Vec::new();
            order.encode_binary(&mut body);
            let decoded = Request::decode_binary(&mut Rd::new(&body)).unwrap();
            assert!(matches!(
                spq.handle(decoded, SimTime::ZERO),
                Response::Error(RequestError::Invalid(_))
            ));
        }
        assert_eq!(spq.strategy(bot), None, "no order was placed");
    }

    #[test]
    fn credit_errors_surface_typed() {
        let mut spq = SpeQuloS::new();
        let user = UserId(5);
        let Response::Registered { bot } = spq.handle(
            Request::RegisterQos {
                user,
                env: "env".into(),
                size: 10,
            },
            SimTime::ZERO,
        ) else {
            panic!();
        };
        // No deposit: ordering fails with InsufficientCredits, typed.
        assert_eq!(
            spq.handle(
                Request::OrderQos {
                    bot,
                    credits: 10.0,
                    strategy: None
                },
                SimTime::ZERO
            ),
            Response::Error(RequestError::Credit(CreditError::InsufficientCredits))
        );
    }

    #[test]
    fn requests_roundtrip_through_json() {
        let requests = vec![
            Request::Deposit {
                user: UserId(1),
                credits: 1000.5,
            },
            Request::RegisterQos {
                user: UserId(1),
                env: "g5klyo/XWHEP/BIG".into(),
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
                bot: BotId(0),
                progress: progress(61, 7, 2),
            },
            Request::Complete { bot: BotId(0) },
            Request::Batch(vec![
                Request::Predict { bot: BotId(0) },
                Request::Complete { bot: BotId(1) },
            ]),
            Request::Batch(vec![]),
        ];
        for req in &requests {
            let text = req.to_json();
            let back = Request::from_json(&text).expect("parses");
            assert_eq!(&back, req, "{text}");
            assert_eq!(back.to_json(), text, "re-encode bit-identical");
        }
    }

    #[test]
    fn responses_roundtrip_through_json() {
        let responses = vec![
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
        ];
        for resp in &responses {
            let text = resp.to_json();
            let back = Response::from_json(&text).expect("parses");
            assert_eq!(&back, resp, "{text}");
            assert_eq!(back.to_json(), text, "re-encode bit-identical");
        }
    }

    #[test]
    fn session_encoding_roundtrips() {
        let session = vec![
            (
                SimTime::ZERO,
                Request::Deposit {
                    user: UserId(1),
                    credits: 500.0,
                },
            ),
            (
                SimTime::from_secs(1),
                Request::RegisterQos {
                    user: UserId(1),
                    env: "env".into(),
                    size: 10,
                },
            ),
            (
                SimTime::from_secs(60),
                Request::ReportProgress {
                    bot: BotId(0),
                    progress: progress(60, 1, 0),
                },
            ),
        ];
        let text = encode_session(&session);
        let decoded = decode_session(&text).expect("decodes");
        assert_eq!(decoded, session);
        assert_eq!(encode_session(&decoded), text, "bit-identical");
        assert_eq!(decode_session("[]\n").expect("empty"), vec![]);
    }

    #[test]
    fn log_encoding_roundtrips() {
        let mut spq = SpeQuloS::new();
        let user = UserId(1);
        spq.credits.deposit(user, 500.0);
        let bot = spq.register_qos("env", 10, user, SimTime::ZERO);
        spq.order_qos(bot, 100.0, StrategyCombo::paper_default(), SimTime::ZERO)
            .unwrap();
        let text = encode_log(spq.log());
        let decoded = decode_log(&text).expect("decodes");
        assert_eq!(decoded, spq.log());
        assert_eq!(encode_log(&decoded), text);
    }

    #[test]
    fn replay_reproduces_a_session() {
        let session = vec![
            (
                SimTime::ZERO,
                Request::Deposit {
                    user: UserId(1),
                    credits: 500.0,
                },
            ),
            (
                SimTime::ZERO,
                Request::RegisterQos {
                    user: UserId(1),
                    env: "env".into(),
                    size: 10,
                },
            ),
            (
                SimTime::ZERO,
                Request::OrderQos {
                    bot: BotId(0),
                    credits: 100.0,
                    strategy: None,
                },
            ),
        ];
        let mut a = SpeQuloS::new();
        let mut b = SpeQuloS::new();
        let ra = replay(&mut a, &session);
        let rb = replay(&mut b, &session);
        assert_eq!(ra, rb, "same session, same responses");
        assert_eq!(a.log(), b.log(), "same protocol log");
    }

    #[test]
    fn batch_equals_its_unbatched_form() {
        let user = UserId(1);
        let requests = vec![
            Request::Deposit {
                user,
                credits: 500.0,
            },
            Request::RegisterQos {
                user,
                env: "env".into(),
                size: 10,
            },
            Request::OrderQos {
                bot: BotId(0),
                credits: 100.0,
                strategy: None,
            },
            Request::Predict { bot: BotId(9) }, // errors travel in batches too
        ];

        let mut unbatched = SpeQuloS::new();
        let singles: Vec<Response> = requests
            .iter()
            .map(|r| unbatched.handle(r.clone(), SimTime::ZERO))
            .collect();

        let mut batched = SpeQuloS::new();
        let Response::Batch(grouped) = batched.handle(Request::Batch(requests), SimTime::ZERO)
        else {
            panic!("a batch answers with a batch");
        };
        assert_eq!(grouped, singles, "response per sub-request, in order");
        assert_eq!(batched.log(), unbatched.log(), "identical protocol log");
    }

    #[test]
    fn nested_batches_are_rejected_in_place() {
        let mut spq = SpeQuloS::new();
        let r = spq.handle(
            Request::Batch(vec![
                Request::Deposit {
                    user: UserId(1),
                    credits: 1.0,
                },
                Request::Batch(vec![Request::Predict { bot: BotId(0) }]),
            ]),
            SimTime::ZERO,
        );
        let Response::Batch(items) = r else {
            panic!("batch response expected");
        };
        assert_eq!(items.len(), 2);
        assert!(matches!(items[0], Response::Deposited { .. }));
        assert!(
            matches!(&items[1], Response::Error(RequestError::Invalid(m)) if m.contains("nest")),
            "{:?}",
            items[1]
        );
    }

    #[test]
    fn decode_errors_carry_the_field_path() {
        // Response paths: a `completed` missing its billing summary, and
        // an `action` whose payload is garbage.
        let err = Response::from_json(r#"{"resp":"completed","bot":7.0}"#).unwrap_err();
        assert_eq!(err, "response `completed`: missing or invalid `spent`");
        let err = Response::from_json(r#"{"resp":"action","bot":7.0,"action":42.0}"#).unwrap_err();
        assert!(
            err.starts_with("response `action`: action:"),
            "path missing: {err}"
        );
        // Request paths, including one nested inside a batch.
        let err = Request::from_json(r#"{"req":"order_qos","bot":1.0}"#).unwrap_err();
        assert_eq!(err, "request `order_qos`: missing or invalid `credits`");
        let err = Request::from_json(
            r#"{"req":"batch","items":[{"req":"report_progress","bot":0.0,"progress":{"now":1.0}}]}"#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            "request `batch`: items[0]: request `report_progress`: progress: missing or invalid `size`"
        );
    }
}
