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
//! [`crate::SpeQuloS::builder`]. A future network frontend plugs in at
//! exactly this seam: deserialize a request, call `handle`, serialize the
//! response.
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
//! [`RequestError::Invalid`] in its slot.
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

use crate::credit::{CreditError, UserId};
use crate::oracle::{DeployMode, Prediction, Provisioning, StrategyCombo, Trigger};
use crate::progress::BotProgress;
use crate::scheduler::CloudAction;
use crate::service::{LogEvent, SpeQuloS};
use botwork::BotId;
use simcore::json::{self, Reader, Token, Writer};
use simcore::SimTime;
use std::fmt;

/// A user-facing request of the SpeQuloS protocol (Fig. 3).
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Administrator operation: deposit credits into a user account.
    Deposit {
        /// The account.
        user: UserId,
        /// Credits to add (must be finite and non-negative).
        credits: f64,
    },
    /// `registerQoS(BoT)`: register a BoT execution for monitoring.
    RegisterQos {
        /// The registering user.
        user: UserId,
        /// Environment label (`trace/middleware/class`).
        env: String,
        /// BoT size in tasks.
        size: u32,
    },
    /// `orderQoS(BoTId, credit)`: provision credits for a BoT.
    OrderQos {
        /// The BoT (from [`Response::Registered`]).
        bot: BotId,
        /// Credits to provision (must be finite and non-negative).
        credits: f64,
        /// Strategy combination; `None` uses the service's
        /// [`crate::SpeQuloS::default_strategy`].
        strategy: Option<StrategyCombo>,
    },
    /// `getQoSInformation(BoTId)`: ask for a completion-time prediction.
    Predict {
        /// The BoT.
        bot: BotId,
    },
    /// One monitoring period: report a progress snapshot; the response
    /// carries the scheduler's cloud action.
    ReportProgress {
        /// The BoT.
        bot: BotId,
        /// The snapshot (its `now` field is the authoritative sample
        /// time).
        progress: BotProgress,
    },
    /// BoT completion: archive, stop billing, `pay` the order.
    Complete {
        /// The BoT.
        bot: BotId,
    },
    /// A pipelined bundle: the sub-requests are served in order at the
    /// batch's service time and answered by one [`Response::Batch`] with
    /// one response per sub-request. Lets a client ship a whole
    /// monitoring tick (N tenants' `ReportProgress`) in one frame
    /// instead of N round trips. Batches do not nest.
    Batch(Vec<Request>),
}

/// The service's answer to a [`Request`].
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Credits deposited; reports the new balance.
    Deposited {
        /// The account.
        user: UserId,
        /// Balance after the deposit.
        balance: f64,
    },
    /// BoT registered; submissions must be tagged with this id.
    Registered {
        /// The assigned BoT id.
        bot: BotId,
    },
    /// QoS order accepted.
    Ordered {
        /// The BoT.
        bot: BotId,
    },
    /// Prediction result (`None` when too little progress exists to
    /// extrapolate from).
    Predicted {
        /// The BoT.
        bot: BotId,
        /// The prediction, if one could be made.
        prediction: Option<Prediction>,
    },
    /// Cloud action ordered by the Scheduler for this monitoring period.
    Action {
        /// The BoT.
        bot: BotId,
        /// The action the infrastructure must apply.
        action: CloudAction,
    },
    /// Completion acknowledged; the order was paid. Carries the billing
    /// summary of the `pay` arrow so a remote caller can settle accounts
    /// without reaching into the service.
    Completed {
        /// The BoT.
        bot: BotId,
        /// Credits billed against the order over the whole execution.
        spent: f64,
        /// Unspent credits returned to the user by `pay` (0 when the
        /// order was already closed or never existed).
        refund: f64,
    },
    /// One response per sub-request of a [`Request::Batch`], in order.
    Batch(Vec<Response>),
    /// The request failed; no state was changed.
    Error(RequestError),
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

// A strategy and a log event are the protocol types a snapshot stores
// too: one field list per direction each, here, which `crate::snapshot`
// embeds.
pub(crate) fn write_strategy(w: &mut Writer<'_>, s: &StrategyCombo) {
    let (kind, threshold) = match s.trigger {
        Trigger::CompletionThreshold(t) => ("completion", Some(t)),
        Trigger::AssignmentThreshold(t) => ("assignment", Some(t)),
        Trigger::ExecutionVariance => ("variance", None),
        Trigger::RateDrop { fraction } => ("rate_drop", Some(fraction)),
    };
    w.begin_object().key("trigger").str(kind);
    if let Some(t) = threshold {
        w.key("threshold").num(t);
    }
    w.key("provisioning").str(match s.provisioning {
        Provisioning::Greedy => "greedy",
        Provisioning::Conservative => "conservative",
    });
    w.key("deployment").str(match s.deployment {
        DeployMode::Flat => "flat",
        DeployMode::Reschedule => "reschedule",
        DeployMode::CloudDuplication => "cloud_duplication",
    });
    w.end_object();
}

/// Decodes what [`write_strategy`] wrote.
pub(crate) fn read_strategy(r: &mut Reader<'_>) -> Result<StrategyCombo, String> {
    let keys = ["trigger", "threshold", "provisioning", "deployment"];
    let m = read_members(r, keys, no_extra);
    let kind = m.str("trigger").map_err(|_| "strategy needs a `trigger`")?;
    let trigger = match (kind, m.f64("threshold").ok()) {
        ("completion", Some(t)) => Trigger::CompletionThreshold(t),
        ("assignment", Some(t)) => Trigger::AssignmentThreshold(t),
        ("variance", _) => Trigger::ExecutionVariance,
        ("rate_drop", Some(t)) => Trigger::RateDrop { fraction: t },
        (k, None) => return Err(format!("trigger `{k}` needs a `threshold`")),
        (k, _) => return Err(format!("unknown trigger `{k}`")),
    };
    let provisioning = match m.str("provisioning").ok() {
        Some("greedy") => Provisioning::Greedy,
        Some("conservative") => Provisioning::Conservative,
        other => return Err(format!("unknown provisioning {other:?}")),
    };
    let deployment = match m.str("deployment").ok() {
        Some("flat") => DeployMode::Flat,
        Some("reschedule") => DeployMode::Reschedule,
        Some("cloud_duplication") => DeployMode::CloudDuplication,
        other => return Err(format!("unknown deployment {other:?}")),
    };
    Ok(StrategyCombo {
        trigger,
        provisioning,
        deployment,
    })
}

fn missing(key: &str) -> String {
    format!("missing or invalid `{key}`")
}

// Decode errors name the enclosing message, so a bad frame in a stored
// transcript (or off the wire) pinpoints its field path instead of
// reporting a bare "missing `bot`" with no context.
fn in_request(tag: &str, e: String) -> String {
    format!("request `{tag}`: {e}")
}

fn in_response(tag: &str, e: String) -> String {
    format!("response `{tag}`: {e}")
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

    pub(crate) fn bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            Some(Token::Bool(b)) => Ok(*b),
            _ => Err(missing(key)),
        }
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
type Items<T> = Result<Vec<T>, (usize, String)>;

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

/// Resolves a batch's `"items"` member.
fn batch_items<T>(items: Option<Option<Items<T>>>) -> Result<Vec<T>, String> {
    let items = items.flatten().ok_or_else(|| missing("items"))?;
    items.map_err(|(i, e)| format!("items[{i}]: {e}"))
}

fn write_progress(w: &mut Writer<'_>, p: &BotProgress) {
    w.begin_object();
    w.key("now").num(p.now.as_millis() as f64);
    w.key("size").num(p.size.into());
    w.key("completed").num(p.completed.into());
    w.key("dispatched").num(p.dispatched.into());
    w.key("queued").num(p.queued.into());
    w.key("running").num(p.running.into());
    w.key("cloud_running").num(p.cloud_running.into());
    w.end_object();
}

const PROGRESS_KEYS: [&str; 7] = [
    "now",
    "size",
    "completed",
    "dispatched",
    "queued",
    "running",
    "cloud_running",
];

fn read_progress(r: &mut Reader<'_>) -> Result<BotProgress, String> {
    let m = read_members(r, PROGRESS_KEYS, no_extra);
    Ok(BotProgress {
        now: SimTime::from_millis(m.u64("now")?),
        size: m.u32("size")?,
        completed: m.u32("completed")?,
        dispatched: m.u32("dispatched")?,
        queued: m.u32("queued")?,
        running: m.u32("running")?,
        cloud_running: m.u32("cloud_running")?,
    })
}

fn write_action(w: &mut Writer<'_>, a: CloudAction) {
    match a {
        CloudAction::None => w.str("none"),
        CloudAction::Start(n) => w.begin_object().key("start").num(n.into()).end_object(),
        CloudAction::StopAll => w.str("stop_all"),
    };
}

fn read_action(r: &mut Reader<'_>) -> Result<CloudAction, String> {
    match r.token() {
        Token::Str(s) if s == "none" => Ok(CloudAction::None),
        Token::Str(s) if s == "stop_all" => Ok(CloudAction::StopAll),
        Token::Obj => {
            let m = read_object(r, Token::Obj, ["start"], no_extra);
            Ok(CloudAction::Start(m.u32("start")?))
        }
        other => Err(format!("invalid cloud action {:?}", r.value_from(other))),
    }
}

fn write_prediction(w: &mut Writer<'_>, p: &Prediction) {
    w.begin_object();
    w.key("completion_secs").num(p.completion_secs);
    w.key("alpha").num(p.alpha);
    if let Some(rate) = p.success_rate {
        w.key("success_rate").num(rate);
    }
    w.end_object();
}

/// `null` is "no prediction yet"; anything else must hold one.
fn read_prediction(r: &mut Reader<'_>) -> Result<Option<Prediction>, String> {
    let head = r.token();
    if head == Token::Null {
        return Ok(None);
    }
    let keys = ["completion_secs", "alpha", "success_rate"];
    let m = read_object(r, head, keys, no_extra);
    Ok(Some(Prediction {
        completion_secs: m.f64("completion_secs")?,
        alpha: m.f64("alpha")?,
        success_rate: m.f64("success_rate").ok(),
    }))
}

impl Request {
    /// The request's wire tag (`"deposit"`, `"report_progress"`, …) —
    /// the same string the JSON encoding carries in its `"req"` field.
    /// Stable, so per-kind accounting (workload mixes, server-side
    /// request timing) can key on it without decoding anything.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Deposit { .. } => "deposit",
            Request::RegisterQos { .. } => "register_qos",
            Request::OrderQos { .. } => "order_qos",
            Request::Predict { .. } => "predict",
            Request::ReportProgress { .. } => "report_progress",
            Request::Complete { .. } => "complete",
            Request::Batch(_) => "batch",
        }
    }

    /// Writes the request's members, `"req"` first, into the object `w`
    /// has open — so an envelope or a session entry can flatten its own
    /// head in front of them.
    pub fn write_members(&self, w: &mut Writer<'_>) {
        w.key("req").str(self.kind());
        match self {
            Request::Deposit { user, credits } => {
                w.key("user").num(user.0 as f64);
                w.key("credits").num(*credits);
            }
            Request::RegisterQos { user, env, size } => {
                w.key("user").num(user.0 as f64);
                w.key("env").str(env);
                w.key("size").num((*size).into());
            }
            Request::OrderQos {
                bot,
                credits,
                strategy,
            } => {
                w.key("bot").num(bot.0 as f64);
                w.key("credits").num(*credits);
                if let Some(s) = strategy {
                    write_strategy(w.key("strategy"), s);
                }
            }
            Request::Predict { bot } | Request::Complete { bot } => {
                w.key("bot").num(bot.0 as f64);
            }
            Request::ReportProgress { bot, progress } => {
                w.key("bot").num(bot.0 as f64);
                write_progress(w.key("progress"), progress);
            }
            Request::Batch(items) => {
                w.key("items").begin_array();
                for item in items {
                    item.write_members(w.begin_object());
                    w.end_object();
                }
                w.end_array();
            }
        }
    }

    /// Serializes the request as one JSON object.
    pub fn to_json(&self) -> String {
        json::object(|w| self.write_members(w))
    }

    /// Decodes the value `r` stands at as a request object; members the
    /// request does not own are offered to `extra` before they are
    /// skipped. Error messages carry the offending field path (e.g.
    /// ``request `order_qos`: missing or invalid `credits` ``); syntax
    /// errors are [`json::read`]'s to report and come first.
    pub fn read<'a>(r: &mut Reader<'a>, extra: Extra<'_, 'a>) -> Result<Request, String> {
        let (mut strategy, mut progress, mut items) = (None, None, None);
        let keys = ["req", "user", "credits", "env", "size", "bot"];
        let m = read_members(r, keys, |key, r| match key {
            "strategy" => first(&mut strategy, || read_strategy(r)),
            "progress" => first(&mut progress, || read_progress(r)),
            "items" => first(&mut items, || {
                read_array(r, |r| Request::read(r, &mut no_extra))
            }),
            _ => extra(key, r),
        });
        let tag = m.str("req")?;
        let at = |e| in_request(tag, e);
        Ok(match tag {
            "deposit" => Request::Deposit {
                user: UserId(m.u64("user").map_err(at)?),
                credits: m.f64("credits").map_err(at)?,
            },
            "register_qos" => Request::RegisterQos {
                user: UserId(m.u64("user").map_err(at)?),
                env: m.str("env").map_err(at)?.to_string(),
                size: m.u32("size").map_err(at)?,
            },
            "order_qos" => Request::OrderQos {
                bot: BotId(m.u64("bot").map_err(at)?),
                credits: m.f64("credits").map_err(at)?,
                strategy: strategy
                    .transpose()
                    .map_err(|e| at(format!("strategy: {e}")))?,
            },
            "predict" => Request::Predict {
                bot: BotId(m.u64("bot").map_err(at)?),
            },
            "report_progress" => Request::ReportProgress {
                bot: BotId(m.u64("bot").map_err(at)?),
                progress: progress
                    .unwrap_or_else(|| Err("missing `progress`".into()))
                    .map_err(|e| at(format!("progress: {e}")))?,
            },
            "complete" => Request::Complete {
                bot: BotId(m.u64("bot").map_err(at)?),
            },
            "batch" => Request::Batch(batch_items(items).map_err(at)?),
            other => return Err(format!("unknown request `{other}`")),
        })
    }

    /// Parses one JSON-encoded request.
    pub fn from_json(text: &str) -> Result<Request, String> {
        json::read(text, |r| Request::read(r, &mut no_extra))?
    }
}

impl Response {
    fn tag(&self) -> &'static str {
        match self {
            Response::Deposited { .. } => "deposited",
            Response::Registered { .. } => "registered",
            Response::Ordered { .. } => "ordered",
            Response::Predicted { .. } => "predicted",
            Response::Action { .. } => "action",
            Response::Completed { .. } => "completed",
            Response::Batch(_) => "batch",
            Response::Error(_) => "error",
        }
    }

    /// Writes the response's members, `"resp"` first, into the object
    /// `w` has open (see [`Request::write_members`]).
    pub fn write_members(&self, w: &mut Writer<'_>) {
        w.key("resp").str(self.tag());
        match self {
            Response::Deposited { user, balance } => {
                w.key("user").num(user.0 as f64);
                w.key("balance").num(*balance);
            }
            Response::Registered { bot } | Response::Ordered { bot } => {
                w.key("bot").num(bot.0 as f64);
            }
            Response::Predicted { bot, prediction } => {
                w.key("bot").num(bot.0 as f64);
                match prediction {
                    Some(p) => write_prediction(w.key("prediction"), p),
                    None => _ = w.key("prediction").null(),
                }
            }
            Response::Action { bot, action } => {
                w.key("bot").num(bot.0 as f64);
                write_action(w.key("action"), *action);
            }
            Response::Completed { bot, spent, refund } => {
                w.key("bot").num(bot.0 as f64);
                w.key("spent").num(*spent);
                w.key("refund").num(*refund);
            }
            Response::Batch(items) => {
                w.key("items").begin_array();
                for item in items {
                    item.write_members(w.begin_object());
                    w.end_object();
                }
                w.end_array();
            }
            Response::Error(RequestError::Credit(e)) => {
                w.key("error").str(match e {
                    CreditError::InsufficientCredits => "insufficient_credits",
                    CreditError::NoOrder => "no_order",
                    CreditError::DuplicateOrder => "duplicate_order",
                    CreditError::OrderClosed => "order_closed",
                    CreditError::PoolSaturated => "pool_saturated",
                });
            }
            Response::Error(RequestError::UnknownBot(bot)) => {
                w.key("error").str("unknown_bot");
                w.key("bot").num(bot.0 as f64);
            }
            Response::Error(RequestError::Invalid(msg)) => {
                w.key("error").str("invalid");
                w.key("message").str(msg);
            }
            Response::Error(RequestError::Transport(msg)) => {
                w.key("error").str("transport");
                w.key("message").str(msg);
            }
        }
    }

    /// Serializes the response as one JSON object.
    pub fn to_json(&self) -> String {
        json::object(|w| self.write_members(w))
    }

    /// Decodes the value `r` stands at as a response object, under
    /// [`Request::read`]'s contract. Error messages carry the offending
    /// field path (e.g. ``response `action`: missing or invalid `bot` ``).
    pub fn read<'a>(r: &mut Reader<'a>, extra: Extra<'_, 'a>) -> Result<Response, String> {
        let (mut prediction, mut action, mut items) = (None, None, None);
        let keys = [
            "resp", "user", "balance", "bot", "spent", "refund", "error", "message",
        ];
        let m = read_members(r, keys, |key, r| match key {
            "prediction" => first(&mut prediction, || read_prediction(r)),
            "action" => first(&mut action, || read_action(r)),
            "items" => first(&mut items, || {
                read_array(r, |r| Response::read(r, &mut no_extra))
            }),
            _ => extra(key, r),
        });
        let tag = m.str("resp")?;
        let at = |e| in_response(tag, e);
        Ok(match tag {
            "deposited" => Response::Deposited {
                user: UserId(m.u64("user").map_err(at)?),
                balance: m.f64("balance").map_err(at)?,
            },
            "registered" => Response::Registered {
                bot: BotId(m.u64("bot").map_err(at)?),
            },
            "ordered" => Response::Ordered {
                bot: BotId(m.u64("bot").map_err(at)?),
            },
            "predicted" => Response::Predicted {
                bot: BotId(m.u64("bot").map_err(at)?),
                prediction: prediction
                    .transpose()
                    .map_err(|e| at(format!("prediction: {e}")))?
                    .flatten(),
            },
            "action" => Response::Action {
                bot: BotId(m.u64("bot").map_err(at)?),
                action: action
                    .unwrap_or_else(|| Err("missing `action`".into()))
                    .map_err(|e| at(format!("action: {e}")))?,
            },
            "completed" => Response::Completed {
                bot: BotId(m.u64("bot").map_err(at)?),
                spent: m.f64("spent").map_err(at)?,
                refund: m.f64("refund").map_err(at)?,
            },
            "batch" => Response::Batch(batch_items(items).map_err(at)?),
            "error" => Response::Error(match m.str("error").map_err(at)? {
                "insufficient_credits" => RequestError::Credit(CreditError::InsufficientCredits),
                "no_order" => RequestError::Credit(CreditError::NoOrder),
                "duplicate_order" => RequestError::Credit(CreditError::DuplicateOrder),
                "order_closed" => RequestError::Credit(CreditError::OrderClosed),
                "pool_saturated" => RequestError::Credit(CreditError::PoolSaturated),
                "unknown_bot" => RequestError::UnknownBot(BotId(m.u64("bot").map_err(at)?)),
                "invalid" => RequestError::Invalid(m.str("message").map_err(at)?.to_string()),
                "transport" => RequestError::Transport(m.str("message").map_err(at)?.to_string()),
                other => return Err(format!("unknown error code `{other}`")),
            }),
            other => return Err(format!("unknown response `{other}`")),
        })
    }

    /// Parses one JSON-encoded response.
    pub fn from_json(text: &str) -> Result<Response, String> {
        json::read(text, |r| Response::read(r, &mut no_extra))?
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
/// exactly the per-line entry of [`encode_session`]. This is the payload
/// format of the write-ahead log ([`crate::wal`]): a durable session is
/// one such entry per record, and concatenating the decoded entries
/// reproduces the [`encode_session`] transcript bit-identically.
pub fn encode_session_entry(t: SimTime, request: &Request) -> String {
    let mut entry = String::with_capacity(256);
    write_session_entry(&mut Writer::new(&mut entry), t, request);
    entry
}

/// [`encode_session_entry`] into a writer — the write-ahead log stages
/// records through a buffer it keeps.
pub(crate) fn write_session_entry(w: &mut Writer<'_>, t: SimTime, request: &Request) {
    w.begin_object().key("t").num(t.as_millis() as f64);
    request.write_members(w);
    w.end_object();
}

fn read_session_entry(r: &mut Reader<'_>) -> Result<(SimTime, Request), String> {
    let mut t = None;
    let request = Request::read(r, &mut |key, r| key == "t" && claim_whole(&mut t, r));
    Ok((SimTime::from_millis(claimed_whole(t, "t")?), request?))
}

/// Decodes a single session entry produced by [`encode_session_entry`].
pub fn decode_session_entry(text: &str) -> Result<(SimTime, Request), String> {
    json::read(text, read_session_entry)?
}

/// Decodes a session produced by [`encode_session`].
pub fn decode_session(text: &str) -> Result<Vec<(SimTime, Request)>, String> {
    decode_entries(text, "session", read_session_entry)
}

/// Encodes the responses of a replayed session, one per line.
pub fn encode_responses(responses: &[Response]) -> String {
    encode_entries(responses.iter().map(Response::to_json))
}

/// Decodes responses produced by [`encode_responses`].
pub fn decode_responses(text: &str) -> Result<Vec<Response>, String> {
    decode_entries(text, "responses", |r| Response::read(r, &mut no_extra))
}

/// Writes one log entry — its time, then the event's members — as an
/// object.
pub(crate) fn write_log_entry(w: &mut Writer<'_>, t: SimTime, e: &LogEvent) {
    w.begin_object().key("t").num(t.as_millis() as f64);
    let mut tagged = |name: &str, bot: &BotId| {
        w.key("event").str(name);
        w.key("bot").num(bot.0 as f64);
    };
    match e {
        LogEvent::RegisterQos { bot, env } => {
            tagged("register_qos", bot);
            w.key("env").str(env);
        }
        LogEvent::OrderQos { bot, credits } => {
            tagged("order_qos", bot);
            w.key("credits").num(*credits);
        }
        LogEvent::Predicted {
            bot,
            completion_secs,
            success_rate,
        } => {
            tagged("predicted", bot);
            w.key("completion_secs").num(*completion_secs);
            if let Some(rate) = success_rate {
                w.key("success_rate").num(*rate);
            }
        }
        LogEvent::StartCloudWorkers { bot, count } => {
            tagged("start_cloud_workers", bot);
            w.key("count").num((*count).into());
        }
        LogEvent::StopCloudWorkers { bot } => tagged("stop_cloud_workers", bot),
        LogEvent::Completed { bot } => tagged("completed", bot),
        LogEvent::Paid { bot, refund } => {
            tagged("paid", bot);
            w.key("refund").num(*refund);
        }
        LogEvent::Throttled {
            bot,
            requested,
            granted,
        } => {
            tagged("throttled", bot);
            w.key("requested").num((*requested).into());
            w.key("granted").num((*granted).into());
        }
    }
    w.end_object();
}

const LOG_KEYS: [&str; 11] = [
    "t",
    "event",
    "bot",
    "env",
    "credits",
    "completion_secs",
    "success_rate",
    "count",
    "refund",
    "requested",
    "granted",
];

/// Decodes one entry written by [`write_log_entry`].
pub(crate) fn read_log_entry(r: &mut Reader<'_>) -> Result<(SimTime, LogEvent), String> {
    let m = read_members(r, LOG_KEYS, no_extra);
    let t = SimTime::from_millis(m.u64("t")?);
    let bot = || m.u64("bot").map(BotId);
    let event = match m.str("event")? {
        "register_qos" => LogEvent::RegisterQos {
            bot: bot()?,
            env: m.str("env")?.to_string(),
        },
        "order_qos" => LogEvent::OrderQos {
            bot: bot()?,
            credits: m.f64("credits")?,
        },
        "predicted" => LogEvent::Predicted {
            bot: bot()?,
            completion_secs: m.f64("completion_secs")?,
            success_rate: m.f64("success_rate").ok(),
        },
        "start_cloud_workers" => LogEvent::StartCloudWorkers {
            bot: bot()?,
            count: m.u32("count")?,
        },
        "stop_cloud_workers" => LogEvent::StopCloudWorkers { bot: bot()? },
        "completed" => LogEvent::Completed { bot: bot()? },
        "paid" => LogEvent::Paid {
            bot: bot()?,
            refund: m.f64("refund")?,
        },
        "throttled" => LogEvent::Throttled {
            bot: bot()?,
            requested: m.u32("requested")?,
            granted: m.u32("granted")?,
        },
        other => return Err(format!("unknown log event `{other}`")),
    };
    Ok((t, event))
}

/// Encodes a protocol log (e.g. [`SpeQuloS::log`]) as a JSON array, one
/// event object per line.
pub fn encode_log(log: &[(SimTime, LogEvent)]) -> String {
    encode_entries(log.iter().map(|(t, e)| {
        let mut line = String::new();
        write_log_entry(&mut Writer::new(&mut line), *t, e);
        line
    }))
}

/// Decodes a protocol log produced by [`encode_log`].
pub fn decode_log(text: &str) -> Result<Vec<(SimTime, LogEvent)>, String> {
    decode_entries(text, "log", read_log_entry)
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
