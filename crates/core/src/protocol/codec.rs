//! Both codecs of the protocol, driven by one description per message,
//! and the snapshot codec, driven by one field list per stored type.
//!
//! A message is a row of `messages!`: its variant, JSON tag, binary tag
//! and ordered fields. Every field type implements [`Field`], which
//! spells that type in both codecs, so a row is all the codec code a
//! message needs. A nested record ([`BotProgress`], [`Prediction`]) is
//! one field list (`record!`); an enum-coded value is one
//! `(variant, JSON name, byte)` list (`coded!`). A type a snapshot
//! stores is one field list too (`stored!`), over the JSON-only
//! [`Stored`] spelling of each field type and the [`Kind`]s of field
//! that a type alone cannot describe (id-keyed maps).
//!
//! The binary encoding (PROTOCOL.md §5) is built from five primitives:
//! `u8` tags, little-endian `u32`/`u64`, IEEE-754 `f64` bit patterns and
//! length-prefixed UTF-8 strings. No field names travel; layout is fixed
//! per tag. Every malformed input is a typed [`BinError`] — truncation,
//! unknown tags, trailing bytes, lying counts, over-deep batch nesting —
//! never a panic: this decoder sits on the listening side of the wire.

use super::{read_array, read_entry, write_entry, RequestError};
// What the table macros' expansions use, wherever they are invoked.
pub(crate) use super::{first, missing, no_extra, read_members, read_object, Extra, Scalars};
use crate::credit::{CreditError, UserId};
use crate::oracle::{DeployMode, Prediction, Provisioning, StrategyCombo, Trigger};
use crate::progress::BotProgress;
use crate::scheduler::CloudAction;
use crate::snapshot::SnapshotError;
use botwork::BotId;
pub(crate) use simcore::json::{Reader, Token, Writer};
use simcore::{IdSet, SimDuration, SimTime, TimeSeries};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

/// Batch nesting depth both decoders accept (PROTOCOL.md §5.3, §8).
/// The service rejects any nested batch at dispatch, but a decoder must
/// bound recursion *before* dispatch so a hostile frame cannot overflow
/// the stack.
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

/// A cursor over a binary payload (§5.1).
pub struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Rd<'a> {
        Rd { buf, pos: 0 }
    }

    fn bytes<const N: usize>(&mut self, ctx: &'static str) -> Result<[u8; N], BinError> {
        let rest = self.buf.get(self.pos..).unwrap_or_default();
        let out = rest.first_chunk::<N>().ok_or(BinError::Truncated(ctx))?;
        self.pos += N;
        Ok(*out)
    }

    /// One tag byte.
    pub(crate) fn u8(&mut self, ctx: &'static str) -> Result<u8, BinError> {
        let [byte] = self.bytes(ctx)?;
        Ok(byte)
    }

    /// A little-endian `u32`.
    pub(crate) fn u32(&mut self, ctx: &'static str) -> Result<u32, BinError> {
        self.bytes(ctx).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, ctx: &'static str) -> Result<u64, BinError> {
        self.bytes(ctx).map(u64::from_le_bytes)
    }

    /// A length or count, refused when it exceeds the bytes that remain:
    /// every element costs at least one byte, so a larger count is a lie
    /// and is refused before any allocation sized by it.
    fn count(&mut self, ctx: &'static str) -> Result<usize, BinError> {
        let n = self.u32(ctx)? as usize;
        if n > self.buf.len() - self.pos {
            return Err(BinError::Oversized(ctx));
        }
        Ok(n)
    }

    fn str(&mut self, ctx: &'static str) -> Result<String, BinError> {
        let len = self.count(ctx)?;
        let bytes = self.buf.get(self.pos..self.pos + len).unwrap_or_default();
        self.pos += len;
        String::from_utf8(bytes.to_vec()).map_err(|_| BinError::NotUtf8(ctx))
    }

    /// `Ok` when the payload held exactly what was read (§5.2).
    pub fn finish(&self) -> Result<(), BinError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(BinError::Trailing(n)),
        }
    }
}

/// `Option<T>` on the wire (§5.1): `0x00`, or `0x01` and the value.
fn read_opt<T>(
    rd: &mut Rd<'_>,
    ctx: &'static str,
    read: impl FnOnce(&mut Rd<'_>) -> Result<T, BinError>,
) -> Result<Option<T>, BinError> {
    match rd.u8(ctx)? {
        0x00 => Ok(None),
        0x01 => read(rd).map(Some),
        tag => Err(BinError::BadTag(ctx, tag)),
    }
}

fn put_opt<T>(out: &mut Vec<u8>, v: Option<&T>, put: impl FnOnce(&T, &mut Vec<u8>)) {
    out.push(v.is_some().into());
    if let Some(v) = v {
        put(v, out);
    }
}

/// A value the protocol carries under a member key (JSON) or at a fixed
/// position (binary). A JSON object is read order-free: the first member
/// of each field's name is read as it comes, and judged once the object
/// is closed, in field order.
pub(crate) trait Field: Sized {
    /// Writes `key` and the value, or nothing for an absent optional.
    fn write(&self, w: &mut Writer<'_>, key: &str);
    /// The value spelled as one JSON token, for a scalar.
    fn from_token(_: Token<'_>) -> Option<Self> {
        None
    }
    /// Reads member `key`'s value, `depth` batches deep.
    fn read_json(r: &mut Reader<'_>, key: &str, _depth: usize) -> Result<Self, String> {
        Self::from_token(r.scalar()).ok_or_else(|| missing(key))
    }
    /// The value of member `key` when the object has none.
    fn absent(key: &str) -> Result<Self, String> {
        Err(missing(key))
    }
    /// Reads an object whose one field this is, under `key`: a tuple
    /// variant's body. Members it does not own go to `extra`.
    fn read_flat<'a>(
        r: &mut Reader<'a>,
        key: &str,
        extra: Extra<'_, 'a>,
        depth: usize,
        at: impl Fn(String) -> String,
    ) -> Result<Self, String> {
        let mut slot = None;
        read_members(r, [], |k, r| {
            (k == key && first(&mut slot, || Self::read_json(r, key, depth))) || extra(k, r)
        });
        slot.unwrap_or_else(|| Self::absent(key)).map_err(at)
    }
    fn put(&self, out: &mut Vec<u8>);
    /// Reads the binary encoding; `ctx` names the field in errors.
    fn read(rd: &mut Rd<'_>, ctx: &'static str, depth: usize) -> Result<Self, BinError>;
}

/// Scalars: one JSON token, one fixed binary primitive.
macro_rules! scalar {
    ($($ty:ty: |$w:ident, $v:ident| $json:expr, |$t:ident| $from:expr,
        |$o:ident| $put:expr, |$rd:ident, $c:ident| $read:expr;)*) => {$(
        impl Field for $ty {
            fn write(&self, w: &mut Writer<'_>, key: &str) {
                let ($w, $v) = (w.key(key), self);
                $json;
            }
            fn from_token($t: Token<'_>) -> Option<Self> {
                $from
            }
            fn put(&self, $o: &mut Vec<u8>) {
                let $v = self;
                $put
            }
            fn read($rd: &mut Rd<'_>, $c: &'static str, _: usize) -> Result<Self, BinError> {
                $read
            }
        }
    )*};
}

scalar! {
    UserId: |w, v| w.num(v.0 as f64), |t| t.as_u64().map(UserId),
        |o| o.extend_from_slice(&v.0.to_le_bytes()), |rd, c| rd.u64(c).map(UserId);
    BotId: |w, v| w.num(v.0 as f64), |t| t.as_u64().map(BotId),
        |o| o.extend_from_slice(&v.0.to_le_bytes()), |rd, c| rd.u64(c).map(BotId);
    SimTime: |w, v| w.num(v.as_millis() as f64), |t| t.as_u64().map(SimTime::from_millis),
        |o| o.extend_from_slice(&v.as_millis().to_le_bytes()),
        |rd, c| rd.u64(c).map(SimTime::from_millis);
    f64: |w, v| w.num(*v), |t| t.as_f64(),
        |o| o.extend_from_slice(&v.to_bits().to_le_bytes()), |rd, c| rd.u64(c).map(f64::from_bits);
    u32: |w, v| w.num((*v).into()), |t| t.as_u64().and_then(|n| n.try_into().ok()),
        |o| o.extend_from_slice(&v.to_le_bytes()), |rd, c| rd.u32(c);
    String: |w, v| w.str(v), |t| match t { Token::Str(s) => Some(s.into_owned()), _ => None },
        |o| { o.extend_from_slice(&(v.len() as u32).to_le_bytes()); o.extend_from_slice(v.as_bytes()) },
        |rd, c| rd.str(c);
    CreditError: |w, v| w.str(v.name()), |t| named(t.as_str()),
        |o| Coded::put(v, o), |rd, c| Coded::read(rd, c);
}

/// An optional scalar: omitted from JSON when absent, and read leniently
/// — a member of the wrong kind reads as absent.
impl Field for Option<f64> {
    fn write(&self, w: &mut Writer<'_>, key: &str) {
        if let Some(v) = self {
            v.write(w, key);
        }
    }
    fn read_json(r: &mut Reader<'_>, _: &str, _: usize) -> Result<Self, String> {
        Ok(r.scalar().as_f64())
    }
    fn absent(_: &str) -> Result<Self, String> {
        Ok(None)
    }
    fn put(&self, out: &mut Vec<u8>) {
        put_opt(out, self.as_ref(), f64::put);
    }
    fn read(rd: &mut Rd<'_>, ctx: &'static str, _: usize) -> Result<Self, BinError> {
        read_opt(rd, ctx, |rd| f64::read(rd, ctx, 0))
    }
}

/// A value that is not one JSON token; as a field, an error names the
/// member it is in.
pub(crate) trait Nested: Sized {
    /// `None` travels as JSON `null` (else the member is omitted).
    const NULLABLE: bool = false;
    fn json(&self, w: &mut Writer<'_>);
    /// Reads the value whose `head` was just read.
    fn parse<'a>(r: &mut Reader<'a>, head: Token<'a>) -> Result<Self, String>;
    fn encode(&self, out: &mut Vec<u8>);
    fn decode(rd: &mut Rd<'_>) -> Result<Self, BinError>;
}

/// The [`Nested`] value `r` stands at, its errors bare.
pub(crate) fn read_nested<T: Nested>(r: &mut Reader<'_>) -> Result<T, String> {
    let head = r.token();
    T::parse(r, head)
}

impl<T: Nested> Field for T {
    fn write(&self, w: &mut Writer<'_>, key: &str) {
        self.json(w.key(key));
    }
    fn read_json(r: &mut Reader<'_>, key: &str, _: usize) -> Result<Self, String> {
        read_nested(r).map_err(|e| format!("{key}: {e}"))
    }
    fn absent(key: &str) -> Result<Self, String> {
        Err(format!("{key}: missing `{key}`"))
    }
    fn put(&self, out: &mut Vec<u8>) {
        self.encode(out);
    }
    fn read(rd: &mut Rd<'_>, _: &'static str, _: usize) -> Result<Self, BinError> {
        T::decode(rd)
    }
}

/// Absent (or `null`, when [`Nested::NULLABLE`]) is `None`; any other
/// value must decode.
impl<T: Nested> Field for Option<T> {
    fn write(&self, w: &mut Writer<'_>, key: &str) {
        match self {
            Some(v) => v.json(w.key(key)),
            None if T::NULLABLE => _ = w.key(key).null(),
            None => {}
        }
    }
    fn read_json(r: &mut Reader<'_>, key: &str, _: usize) -> Result<Self, String> {
        match r.token() {
            Token::Null if T::NULLABLE => Ok(None),
            head => T::parse(r, head)
                .map(Some)
                .map_err(|e| format!("{key}: {e}")),
        }
    }
    fn absent(_: &str) -> Result<Self, String> {
        Ok(None)
    }
    fn put(&self, out: &mut Vec<u8>) {
        put_opt(out, self.as_ref(), T::encode);
    }
    fn read(rd: &mut Rd<'_>, ctx: &'static str, _: usize) -> Result<Self, BinError> {
        read_opt(rd, ctx, T::decode)
    }
}

/// A record: its fields in order, each binary error under
/// `"<name>.<field>"`; in JSON an object whose field errors are bare.
macro_rules! record {
    ($ty:ident $name:literal $(nullable $null:literal)? { $($f:ident: $fty:ty),* $(,)? }) => {
        impl Nested for $ty {
            $(const NULLABLE: bool = $null;)?
            fn json(&self, w: &mut Writer<'_>) {
                w.begin_object();
                $(Field::write(&self.$f, w, stringify!($f));)*
                w.end_object();
            }
            fn parse<'a>(r: &mut Reader<'a>, head: Token<'a>) -> Result<Self, String> {
                $(let mut $f = None;)*
                read_object(r, head, [], |key, r| {
                    false $(|| (key == stringify!($f) && first(&mut $f, || <$fty>::read_json(r, key, 0))))*
                });
                Ok($ty { $($f: $f.unwrap_or_else(|| Field::absent(stringify!($f)))?,)* })
            }
            fn encode(&self, out: &mut Vec<u8>) {
                $(Field::put(&self.$f, out);)*
            }
            fn decode(rd: &mut Rd<'_>) -> Result<Self, BinError> {
                Ok($ty { $($f: Field::read(rd, concat!($name, ".", stringify!($f)), 0)?,)* })
            }
        }
    };
}

record!(BotProgress "progress" {
    now: SimTime,
    size: u32,
    completed: u32,
    dispatched: u32,
    queued: u32,
    running: u32,
    cloud_running: u32,
});

record!(Prediction "prediction" nullable true {
    completion_secs: f64,
    alpha: f64,
    success_rate: Option<f64>,
});

/// An enum written as a name (JSON) or a byte (binary), each variant
/// with at most one payload field.
pub(crate) trait Coded: Sized {
    fn name(&self) -> &'static str;
    /// The variant named `name`, if there is one, its payload read from
    /// the members `m` holds.
    fn from_name<const N: usize>(name: &str, m: &Scalars<'_, N>) -> Result<Option<Self>, String>;
    /// Writes the payload, if any, under its member key.
    fn write_payload(&self, w: &mut Writer<'_>);
    fn put(&self, out: &mut Vec<u8>);
    /// Reads the tag byte, named `ctx` in errors, and the payload.
    fn read(rd: &mut Rd<'_>, ctx: &'static str) -> Result<Self, BinError>;
}

/// The payload member `key` of a coded variant.
pub(crate) fn payload<T: Field, const N: usize>(
    m: &Scalars<'_, N>,
    key: &str,
) -> Result<T, String> {
    let token = m.get(key).cloned();
    token.and_then(T::from_token).ok_or_else(|| missing(key))
}

/// The payload-free variant named `name`, if there is one.
fn named<C: Coded>(name: Option<&str>) -> Option<C> {
    let none = Scalars::<0> {
        keys: [],
        found: [],
    };
    C::from_name(name?, &none).ok().flatten()
}

/// One `(variant, JSON name, byte)` list per enum. A payload is
/// `{member: json_key "binary context"}`.
macro_rules! coded {
    ($ty:ident { $($v:ident $({$m:tt: $key:ident $ctx:literal})? = $name:literal, $byte:literal;)* }) => {
        const _: () = {
        use $crate::protocol::codec::*;

        impl Coded for $ty {
            fn name(&self) -> &'static str {
                match self { $($ty::$v { .. } => $name,)* }
            }
            fn from_name<const N: usize>(name: &str, m: &Scalars<'_, N>) -> Result<Option<Self>, String> {
                let _ = m;
                Ok(Some(match name {
                    $($name => $ty::$v { $($m: payload(m, stringify!($key))?)? },)*
                    _ => return Ok(None),
                }))
            }
            fn write_payload(&self, w: &mut Writer<'_>) {
                let _ = &w;
                match self { $($ty::$v { $($m: p,)? .. } => { $(Field::write(p, w, stringify!($key));)? })* }
            }
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$v { $($m: p,)? .. } => { out.push($byte); $(Field::put(p, out); let _ = $ctx;)? })*
                }
            }
            fn read(rd: &mut Rd<'_>, ctx: &'static str) -> Result<Self, BinError> {
                Ok(match rd.u8(ctx)? {
                    $($byte => $ty::$v { $($m: Field::read(rd, $ctx, 0)?)? },)*
                    tag => return Err(BinError::BadTag(ctx, tag)),
                })
            }
        }
        };
    };
}

coded!(Trigger {
    CompletionThreshold {0: threshold "completion threshold"} = "completion", 0x00;
    AssignmentThreshold {0: threshold "assignment threshold"} = "assignment", 0x01;
    ExecutionVariance = "variance", 0x02;
    RateDrop {fraction: threshold "rate-drop fraction"} = "rate_drop", 0x03;
});

coded!(Provisioning {
    Greedy = "greedy", 0x00;
    Conservative = "conservative", 0x01;
});

coded!(DeployMode {
    Flat = "flat", 0x00;
    Reschedule = "reschedule", 0x01;
    CloudDuplication = "cloud_duplication", 0x02;
});

coded!(CloudAction {
    None = "none", 0x00;
    Start {0: start "action.start"} = "start", 0x01;
    StopAll = "stop_all", 0x02;
});

coded!(CreditError {
    InsufficientCredits = "insufficient_credits", 0x00;
    NoOrder = "no_order", 0x01;
    DuplicateOrder = "duplicate_order", 0x02;
    OrderClosed = "order_closed", 0x03;
    PoolSaturated = "pool_saturated", 0x04;
});

/// `{"trigger", "threshold"?, "provisioning", "deployment"}`.
impl Nested for StrategyCombo {
    fn json(&self, w: &mut Writer<'_>) {
        w.begin_object().key("trigger").str(self.trigger.name());
        self.trigger.write_payload(w);
        w.key("provisioning").str(self.provisioning.name());
        w.key("deployment").str(self.deployment.name());
        w.end_object();
    }

    fn parse<'a>(r: &mut Reader<'a>, head: Token<'a>) -> Result<Self, String> {
        let keys = ["trigger", "threshold", "provisioning", "deployment"];
        let m = read_object(r, head, keys, no_extra);
        let kind = m.str("trigger").map_err(|_| "strategy needs a `trigger`")?;
        let needs = || format!("trigger `{kind}` needs a `threshold`");
        let trigger = match Trigger::from_name(kind, &m).map_err(|_| needs())? {
            Some(trigger) => trigger,
            None if m.f64("threshold").is_ok() => return Err(format!("unknown trigger `{kind}`")),
            None => return Err(needs()),
        };
        let (provisioning, deployment) = (m.str("provisioning").ok(), m.str("deployment").ok());
        Ok(StrategyCombo {
            trigger,
            provisioning: named(provisioning)
                .ok_or_else(|| format!("unknown provisioning {provisioning:?}"))?,
            deployment: named(deployment)
                .ok_or_else(|| format!("unknown deployment {deployment:?}"))?,
        })
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.trigger.put(out);
        self.provisioning.put(out);
        self.deployment.put(out);
    }

    fn decode(rd: &mut Rd<'_>) -> Result<Self, BinError> {
        Ok(StrategyCombo {
            trigger: Coded::read(rd, "strategy trigger")?,
            provisioning: Coded::read(rd, "provisioning")?,
            deployment: Coded::read(rd, "deployment")?,
        })
    }
}

/// `"none"`, `"stop_all"` or `{"start": n}`.
impl Nested for CloudAction {
    fn json(&self, w: &mut Writer<'_>) {
        match self {
            CloudAction::Start(_) => _ = w.begin_object(),
            _ => _ = w.str(self.name()),
        }
        if let CloudAction::Start(_) = self {
            self.write_payload(w);
            w.end_object();
        }
    }

    fn parse<'a>(r: &mut Reader<'a>, head: Token<'a>) -> Result<Self, String> {
        let action = head.as_str().and_then(|name| named(Some(name)));
        match (action, head) {
            (Some(action), _) => Ok(action),
            (None, Token::Obj) => {
                let m = read_object(r, Token::Obj, ["start"], no_extra);
                Ok(CloudAction::Start(m.u32("start")?))
            }
            (None, other) => Err(format!("invalid cloud action {:?}", r.value_from(other))),
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        Coded::put(self, out);
    }

    fn decode(rd: &mut Rd<'_>) -> Result<Self, BinError> {
        Coded::read(rd, "cloud action")
    }
}

/// Flattened into the response: `"error"` holds the code — a credit
/// error by its own name — and the payload member stands beside it.
impl Field for RequestError {
    fn write(&self, w: &mut Writer<'_>, key: &str) {
        match self {
            RequestError::Credit(e) => _ = w.key(key).str(e.name()),
            e => {
                w.key(key).str(e.name());
                e.write_payload(w);
            }
        }
    }

    fn read_flat<'a>(
        r: &mut Reader<'a>,
        key: &str,
        extra: Extra<'_, 'a>,
        _: usize,
        at: impl Fn(String) -> String,
    ) -> Result<Self, String> {
        let m = read_members(r, ["error", "bot", "message"], extra);
        let code = m.str(key).map_err(&at)?;
        if let Some(e) = named(Some(code)) {
            return Ok(RequestError::Credit(e));
        }
        // `credit` names the binary code only: JSON spells the credit
        // error itself.
        let error = match code {
            "credit" => None,
            code => RequestError::from_name(code, &m).map_err(at)?,
        };
        error.ok_or_else(|| format!("unknown error code `{code}`"))
    }

    fn put(&self, out: &mut Vec<u8>) {
        Coded::put(self, out);
    }

    fn read(rd: &mut Rd<'_>, _: &'static str, _: usize) -> Result<Self, BinError> {
        Coded::read(rd, "error code")
    }
}

/// A message enum of a message table: its JSON codec.
pub trait Message: Sized {
    /// Writes the message's members, its tag first, into the object `w`
    /// has open — so an envelope or a session entry can flatten its own
    /// head in front of them.
    fn write_members(&self, w: &mut Writer<'_>);

    /// Decodes the value `r` stands at as a message object; members the
    /// message does not own are offered to `extra` before they are
    /// skipped. Error messages carry the offending field path (e.g.
    /// ``request `order_qos`: missing or invalid `credits` ``); syntax
    /// errors are [`simcore::json::read`]'s to report and come first.
    /// Batches nested deeper than [`MAX_BATCH_DEPTH`] are refused.
    fn read<'a>(r: &mut Reader<'a>, extra: Extra<'_, 'a>) -> Result<Self, String> {
        Self::read_at(r, extra, 0)
    }

    /// [`Message::read`] of a message `depth` batches deep.
    fn read_at<'a>(r: &mut Reader<'a>, extra: Extra<'_, 'a>, depth: usize) -> Result<Self, String>;
}

/// A message with a binary body (PROTOCOL.md §5): its tag byte, then
/// its fields in order.
pub trait Binary: Sized {
    /// Appends the binary body.
    fn encode_binary(&self, out: &mut Vec<u8>);

    /// Reads one binary body.
    fn decode_binary(rd: &mut Rd<'_>) -> Result<Self, BinError> {
        Self::read_bin(rd, 0)
    }

    /// [`Binary::decode_binary`] of a body `depth` batches deep.
    fn read_bin(rd: &mut Rd<'_>, depth: usize) -> Result<Self, BinError>;
}

/// A batch's items, each one batch deeper than the batch.
impl<M: Message + Binary> Field for Vec<M> {
    fn write(&self, w: &mut Writer<'_>, key: &str) {
        w.key(key).begin_array();
        for item in self {
            item.write_members(w.begin_object());
            w.end_object();
        }
        w.end_array();
    }

    fn read_json(r: &mut Reader<'_>, key: &str, depth: usize) -> Result<Self, String> {
        let items = read_array(r, |r| M::read_at(r, &mut no_extra, depth + 1));
        let items = items.ok_or_else(|| missing(key))?;
        items.map_err(|(i, e)| format!("{key}[{i}]: {e}"))
    }

    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for item in self {
            item.encode_binary(out);
        }
    }

    fn read(rd: &mut Rd<'_>, ctx: &'static str, depth: usize) -> Result<Self, BinError> {
        let n = rd.count(ctx)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(M::read_bin(rd, depth + 1)?);
        }
        Ok(items)
    }
}

/// The first `key` member of the object `r` stands at, if it is a string
/// — found on a copy of the reader, so that the object is then read
/// knowing its tag, wherever the tag stands.
pub(crate) fn peek_tag<'a>(r: &Reader<'a>, key: &str) -> Option<Cow<'a, str>> {
    let mut scan = r.clone();
    if scan.token() != Token::Obj {
        return None;
    }
    while let Some(k) = scan.next_key() {
        if k == key {
            return match scan.scalar() {
                Token::Str(tag) => Some(tag),
                _ => None,
            };
        }
        scan.skip_value();
    }
    None
}

/// The message table: declares a message enum and its codecs. A row is
/// `Variant = "json tag", 0xTAG { fields }`; after `with` come the
/// one-field tuple variants, `Variant(key: Type) = "json tag", 0xTAG;`.
/// A field travels under its name in JSON, and in order in binary, where
/// its errors read `"<json tag>.<field>"`. A table whose rows have no
/// binary tag has only the JSON codec; with `bare`, its field errors do
/// not name the message.
macro_rules! messages {
    (@bare) => {
        false
    };
    (@bare bare) => {
        true
    };
    (
        $(#[$meta:meta])*
        pub enum $E:ident: $key:literal, $word:literal {
            $($(#[$vm:meta])* $V:ident = $json:literal, $byte:literal {
                $($(#[$fm:meta])* $f:ident: $ty:ty),* $(,)?
            })*
        } with {
            $($(#[$tm:meta])* $T:ident($tf:ident: $tty:ty) = $tjson:literal, $tbyte:literal;)*
        }
    ) => {
        $crate::protocol::codec::messages! {
            $(#[$meta])*
            pub enum $E: $key, $word {
                $($(#[$vm])* $V = $json { $($(#[$fm])* $f: $ty),* })*
            } with {
                $($(#[$tm])* $T($tf: $tty) = $tjson;)*
            }
        }

        const _: () = {
            use $crate::protocol::codec::*;

            impl Binary for $E {
                fn encode_binary(&self, out: &mut Vec<u8>) {
                    match self {
                        $($E::$V { $($f),* } => {
                            out.push($byte);
                            $(Field::put($f, out);)*
                        })*
                        $($E::$T($tf) => {
                            out.push($tbyte);
                            Field::put($tf, out);
                        })*
                    }
                }

                fn read_bin(rd: &mut Rd<'_>, depth: usize) -> Result<$E, BinError> {
                    if depth > MAX_BATCH_DEPTH {
                        return Err(BinError::TooDeep);
                    }
                    Ok(match rd.u8($word)? {
                        $($byte => $E::$V {
                            $($f: Field::read(rd, concat!($json, ".", stringify!($f)), depth)?,)*
                        },)*
                        $($tbyte => $E::$T(
                            Field::read(rd, concat!($tjson, ".", stringify!($tf)), depth)?,
                        ),)*
                        tag => return Err(BinError::BadTag($word, tag)),
                    })
                }
            }
        };
    };
    (
        $(#[$meta:meta])*
        pub enum $E:ident: $key:literal, $word:literal $($bare:ident)? {
            $($(#[$vm:meta])* $V:ident = $json:literal {
                $($(#[$fm:meta])* $f:ident: $ty:ty),* $(,)?
            })*
        } with {
            $($(#[$tm:meta])* $T:ident($tf:ident: $tty:ty) = $tjson:literal;)*
        }
    ) => {
        $(#[$meta])*
        pub enum $E {
            $($(#[$vm])* $V { $($(#[$fm])* $f: $ty,)* },)*
            $($(#[$tm])* $T($tty),)*
        }

        const _: () = {
            use $crate::protocol::codec::*;

            impl $E {
                /// Serializes the message as one JSON object.
                pub fn to_json(&self) -> String {
                    simcore::json::object(|w| self.write_members(w))
                }

                /// Parses one JSON-encoded message.
                pub fn from_json(text: &str) -> Result<$E, String> {
                    simcore::json::read(text, |r| $E::read(r, &mut no_extra))?
                }

                pub(crate) fn tag(&self) -> &'static str {
                    match self {
                        $($E::$V { .. } => $json,)*
                        $($E::$T(..) => $tjson,)*
                    }
                }
            }

            impl Message for $E {
                fn write_members(&self, w: &mut Writer<'_>) {
                    w.key($key).str(self.tag());
                    match self {
                        $($E::$V { $($f),* } => { $(Field::write($f, w, stringify!($f));)* })*
                        $($E::$T($tf) => Field::write($tf, w, stringify!($tf)),)*
                    }
                }

                fn read_at<'a>(r: &mut Reader<'a>, extra: Extra<'_, 'a>, depth: usize) -> Result<$E, String> {
                    if depth > MAX_BATCH_DEPTH {
                        r.skip_value();
                        return Err(BinError::TooDeep.to_string());
                    }
                    let bare = $crate::protocol::codec::messages!(@bare $($bare)?);
                    let tag = peek_tag(r, $key);
                    match tag.as_deref() {
                        $(Some($json) => {
                            let at = |e| if bare { e } else { format!(concat!($word, " `", $json, "`: {}"), e) };
                            $(let mut $f = None;)*
                            read_members(r, [], |key, r| {
                                $((key == stringify!($f)
                                    && first(&mut $f, || <$ty as Field>::read_json(r, key, depth))) ||)*
                                extra(key, r)
                            });
                            Ok($E::$V { $($f: $f.unwrap_or_else(|| Field::absent(stringify!($f))).map_err(at)?,)* })
                        })*
                        $(Some($tjson) => {
                            let at = |e| if bare { e } else { format!(concat!($word, " `", $tjson, "`: {}"), e) };
                            Field::read_flat(r, stringify!($tf), extra, depth, at).map($E::$T)
                        })*
                        _ => {
                            read_members(r, [], extra);
                            Err(match tag {
                                Some(tag) => format!(concat!("unknown ", $word, " `{}`"), tag),
                                None => missing($key),
                            })
                        }
                    }
                }
            }
        };
    };
}

// ---------------------------------------------------------------------------
// Snapshots: one field list per stored type, JSON only
// ---------------------------------------------------------------------------

/// A value a snapshot stores. Unlike the wire's [`Field`], a non-finite
/// float is refused at encode ([`SnapshotError::NonFinite`], naming its
/// member) instead of written as `null`, an absent option is an explicit
/// `null`, and a nested value's errors are bare. There is no binary half.
pub(crate) trait Stored: Sized {
    /// Writes the value of member `key`, whose key is written already.
    fn store(&self, w: &mut Writer<'_>, key: &'static str) -> Result<(), SnapshotError>;
    /// Reads member `key`'s value.
    fn load(r: &mut Reader<'_>, key: &str) -> Result<Self, String>;
    /// The value of member `key` when the object has none.
    fn absent(key: &str) -> Result<Self, String> {
        Err(format!("missing `{key}`"))
    }
}

/// `v`, or the refusal naming member `key` when it is not finite.
fn finite(v: f64, key: &'static str) -> Result<f64, SnapshotError> {
    v.is_finite()
        .then_some(v)
        .ok_or(SnapshotError::NonFinite(key))
}

/// Scalars: one JSON token each, ``missing or invalid `key` `` otherwise.
macro_rules! stored_scalar {
    ($($ty:ty: |$t:ident| $from:expr, |$w:ident, $v:ident, $k:pat_param| $json:expr;)*) => {$(
        impl Stored for $ty {
            fn store(&self, $w: &mut Writer<'_>, $k: &'static str) -> Result<(), SnapshotError> {
                let $v = self;
                $json;
                Ok(())
            }
            fn load(r: &mut Reader<'_>, key: &str) -> Result<Self, String> {
                let $t = r.scalar();
                $from.ok_or_else(|| missing(key))
            }
            fn absent(key: &str) -> Result<Self, String> {
                Err(missing(key))
            }
        }
    )*};
}

stored_scalar! {
    u64: |t| t.as_u64(), |w, v, _| w.num(*v as f64);
    u32: |t| u32::from_token(t), |w, v, _| w.num((*v).into());
    f64: |t| t.as_f64(), |w, v, key| w.num(finite(*v, key)?);
    bool: |t| match t { Token::Bool(b) => Some(b), _ => None }, |w, v, _| w.bool(*v);
    String: |t| String::from_token(t), |w, v, _| w.str(v);
    UserId: |t| UserId::from_token(t), |w, v, _| w.num(v.0 as f64);
    SimTime: |t| SimTime::from_token(t), |w, v, _| w.num(v.as_millis() as f64);
    SimDuration: |t| t.as_u64().map(SimDuration::from_millis), |w, v, _| w.num(v.as_millis() as f64);
}

/// `null` when `None`.
impl<T: Stored> Stored for Option<T> {
    fn store(&self, w: &mut Writer<'_>, key: &'static str) -> Result<(), SnapshotError> {
        match self {
            Some(v) => v.store(w, key),
            None => {
                w.null();
                Ok(())
            }
        }
    }
    fn load(r: &mut Reader<'_>, key: &str) -> Result<Self, String> {
        if r.clone().token() == Token::Null {
            r.skip_value();
            return Ok(None);
        }
        T::load(r, key).map(Some)
    }
}

/// `[[t_ms, value], …]`. Points out of order are refused: a corrupted
/// snapshot must decode to an error, not panic in `TimeSeries::push`.
impl Stored for TimeSeries {
    fn store(&self, w: &mut Writer<'_>, key: &'static str) -> Result<(), SnapshotError> {
        w.begin_array();
        for &(t, v) in self.points() {
            let v = finite(v, key)?;
            w.begin_array().num(t.as_millis() as f64).num(v).end_array();
        }
        w.end_array();
        Ok(())
    }
    fn load(r: &mut Reader<'_>, _: &str) -> Result<Self, String> {
        let mut series = TimeSeries::new();
        let points = read_array(r, |r| {
            let (mut n, mut t, mut value) = (0, None, None);
            read_array(r, |r| {
                let item = r.scalar();
                (t, value) = match n {
                    0 => (Some(item.as_u64()), value),
                    1 => (t, Some(item.as_f64())),
                    _ => (t, value),
                };
                n += 1;
                Ok(())
            });
            let (2, Some(t), Some(value)) = (n, t, value) else {
                return Err("series point must be a [t_ms, value] pair".to_string());
            };
            let t = t.ok_or("series point time must be integer milliseconds")?;
            let value = value.ok_or("series point value must be finite")?;
            if series.last().is_some_and(|(prev, _)| t < prev.as_millis()) {
                return Err("series points out of order".into());
            }
            series.push(SimTime::from_millis(t), value);
            Ok(())
        });
        points
            .ok_or("series must be an array")?
            .map_err(|(_, e)| e)?;
        Ok(series)
    }
}

/// A shared series, as the series: each holder writes its own copy, and
/// each reads back its own ([`crate::Information`] shares them again).
impl Stored for Arc<TimeSeries> {
    fn store(&self, w: &mut Writer<'_>, key: &'static str) -> Result<(), SnapshotError> {
        TimeSeries::store(self, w, key)
    }
    fn load(r: &mut Reader<'_>, key: &str) -> Result<Self, String> {
        TimeSeries::load(r, key).map(Arc::new)
    }
}

/// A set of ids, as an array in id order.
impl Stored for IdSet {
    fn store(&self, w: &mut Writer<'_>, key: &'static str) -> Result<(), SnapshotError> {
        let mut ids: Vec<u64> = self.iter().copied().collect();
        ids.sort_unstable();
        ids.store(w, key)
    }
    fn load(r: &mut Reader<'_>, key: &str) -> Result<Self, String> {
        Ok(Vec::<u64>::load(r, key)?.into_iter().collect())
    }
}

/// An array; the first value that fails is reported as it stands.
impl<T: Stored> Stored for Vec<T> {
    fn store(&self, w: &mut Writer<'_>, key: &'static str) -> Result<(), SnapshotError> {
        w.begin_array();
        for v in self {
            v.store(w, key)?;
        }
        w.end_array();
        Ok(())
    }
    fn load(r: &mut Reader<'_>, key: &str) -> Result<Self, String> {
        array(r, key, |r| T::load(r, key))
    }
}

/// Every item of the array member `key` that `r` stands at, or the first
/// that failed.
fn array<'a, T>(
    r: &mut Reader<'a>,
    key: &str,
    item: impl FnMut(&mut Reader<'a>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let items = read_array(r, item).ok_or_else(|| format!("`{key}` must be an array"))?;
    items.map_err(|(_, e)| e)
}

/// A log entry: its time `t` and the message's members, one object.
impl<M: Message> Stored for (SimTime, M) {
    fn store(&self, w: &mut Writer<'_>, _: &'static str) -> Result<(), SnapshotError> {
        write_entry(w, self.0, &self.1);
        Ok(())
    }
    fn load(r: &mut Reader<'_>, _: &str) -> Result<Self, String> {
        read_entry(r)
    }
}

/// The wire's spelling, its threshold refused when not finite.
impl Stored for StrategyCombo {
    fn store(&self, w: &mut Writer<'_>, key: &'static str) -> Result<(), SnapshotError> {
        if let Some(t) = self.trigger.threshold() {
            finite(t, key)?;
        }
        self.json(w);
        Ok(())
    }
    fn load(r: &mut Reader<'_>, _: &str) -> Result<Self, String> {
        read_nested(r)
    }
}

/// A type a snapshot stores as one object of its fields (`stored!`).
pub(crate) trait Record: Sized {
    /// Writes the members into the object `w` has open.
    fn store_members(&self, w: &mut Writer<'_>) -> Result<(), SnapshotError>;
    /// Reads the object whose `head` was just read; members the record
    /// does not own go to `extra`.
    fn load_from<'a>(
        r: &mut Reader<'a>,
        head: Token<'a>,
        extra: Extra<'_, 'a>,
    ) -> Result<Self, String>;
}

impl<T: Record> Stored for T {
    fn store(&self, w: &mut Writer<'_>, _: &'static str) -> Result<(), SnapshotError> {
        self.store_members(w.begin_object())?;
        w.end_object();
        Ok(())
    }
    fn load(r: &mut Reader<'_>, _: &str) -> Result<Self, String> {
        let head = r.token();
        T::load_from(r, head, &mut no_extra)
    }
}

/// How a record's field is stored: [`Plain`] is its type's own
/// [`Stored`] spelling; the other kinds say what a type cannot.
pub(crate) trait Kind<T> {
    fn store(&self, v: &T, w: &mut Writer<'_>, key: &'static str) -> Result<(), SnapshotError>;
    fn load(&self, r: &mut Reader<'_>, key: &str) -> Result<T, String>;
    fn absent(&self, key: &str) -> Result<T, String> {
        Err(format!("missing `{key}`"))
    }
}

pub(crate) struct Plain;

impl<T: Stored> Kind<T> for Plain {
    fn store(&self, v: &T, w: &mut Writer<'_>, key: &'static str) -> Result<(), SnapshotError> {
        v.store(w, key)
    }
    fn load(&self, r: &mut Reader<'_>, key: &str) -> Result<T, String> {
        T::load(r, key)
    }
    fn absent(&self, key: &str) -> Result<T, String> {
        T::absent(key)
    }
}

/// A boolean that is ``missing `key` `` when absent and
/// `` `key` must be a boolean `` when of another kind.
pub(crate) struct Flag;

impl Kind<bool> for Flag {
    fn store(&self, v: &bool, w: &mut Writer<'_>, key: &'static str) -> Result<(), SnapshotError> {
        v.store(w, key)
    }
    fn load(&self, r: &mut Reader<'_>, key: &str) -> Result<bool, String> {
        match r.scalar() {
            Token::Bool(b) => Ok(b),
            _ => Err(format!("`{key}` must be a boolean")),
        }
    }
}

/// An option that is `None` when missing too, and ``invalid `key` ``
/// when neither `null` nor a value.
pub(crate) struct Nullable;

impl<T: Stored> Kind<Option<T>> for Nullable {
    fn store(
        &self,
        v: &Option<T>,
        w: &mut Writer<'_>,
        key: &'static str,
    ) -> Result<(), SnapshotError> {
        v.store(w, key)
    }
    fn load(&self, r: &mut Reader<'_>, key: &str) -> Result<Option<T>, String> {
        Stored::load(r, key).map_err(|_| format!("invalid `{key}`"))
    }
    fn absent(&self, _: &str) -> Result<Option<T>, String> {
        Ok(None)
    }
}

/// A map a snapshot stores, hashed or ordered: written in key order.
pub(crate) trait Map: FromIterator<(Self::K, Self::V)> {
    type K: Stored + Ord + Hash + Clone + fmt::Display;
    type V;
    fn sorted(&self) -> Vec<(&Self::K, &Self::V)>;
}

impl<K, V, S> Map for HashMap<K, V, S>
where
    K: Stored + Ord + Hash + Clone + fmt::Display,
    S: BuildHasher + Default,
{
    type K = K;
    type V = V;
    fn sorted(&self) -> Vec<(&K, &V)> {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries
    }
}

impl<K: Stored + Ord + Hash + Clone + fmt::Display, V> Map for BTreeMap<K, V> {
    type K = K;
    type V = V;
    fn sorted(&self) -> Vec<(&K, &V)> {
        self.iter().collect()
    }
}

/// A map of records, `Keyed(id, duplicate)`: an array in key order of
/// entries `{<id>: key, …the record's members}`. A key seen twice is the
/// `duplicate` message, `{}` standing for the key.
pub(crate) struct Keyed(pub &'static str, pub &'static str);

/// A map of values, `Paired(id, value, duplicate)`: as [`Keyed`], with
/// entries `{<id>: key, <value>: value}`.
pub(crate) struct Paired(pub &'static str, pub &'static str, pub &'static str);

impl<M: Map<V: Record>> Kind<M> for Keyed {
    fn store(&self, map: &M, w: &mut Writer<'_>, _: &'static str) -> Result<(), SnapshotError> {
        store_map(map, w, self.0, |v, w| v.store_members(w))
    }
    fn load(&self, r: &mut Reader<'_>, key: &str) -> Result<M, String> {
        load_map(r, key, self.0, self.1, M::V::load_from)
    }
}

impl<M: Map<V: Stored>> Kind<M> for Paired {
    fn store(&self, map: &M, w: &mut Writer<'_>, _: &'static str) -> Result<(), SnapshotError> {
        store_map(map, w, self.0, |v, w| v.store(w.key(self.1), self.1))
    }
    fn load(&self, r: &mut Reader<'_>, key: &str) -> Result<M, String> {
        load_map(r, key, self.0, self.2, |r, head, extra| {
            let mut v = None;
            read_object(r, head, [], |k, r| {
                (k == self.1 && first(&mut v, || M::V::load(r, k))) || extra(k, r)
            });
            v.unwrap_or_else(|| M::V::absent(self.1))
        })
    }
}

fn store_map<M: Map>(
    map: &M,
    w: &mut Writer<'_>,
    id: &'static str,
    mut value: impl FnMut(&M::V, &mut Writer<'_>) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    w.begin_array();
    for (k, v) in map.sorted() {
        k.store(w.begin_object().key(id), id)?;
        value(v, w)?;
        w.end_object();
    }
    w.end_array();
    Ok(())
}

/// A map's entries: `value` reads an entry's object, offering the
/// members it does not own to the `id` reader it is handed.
fn load_map<'a, M: Map>(
    r: &mut Reader<'a>,
    key: &str,
    id: &'static str,
    duplicate: &str,
    mut value: impl FnMut(&mut Reader<'a>, Token<'a>, Extra<'_, 'a>) -> Result<M::V, String>,
) -> Result<M, String> {
    let mut seen = HashSet::new();
    let entries = array(r, key, |r| {
        let (head, mut k) = (r.token(), None);
        let v = value(r, head, &mut |name, r| {
            name == id && first(&mut k, || M::K::load(r, name))
        });
        let (k, v) = (k.unwrap_or_else(|| M::K::absent(id))?, v?);
        match seen.insert(k.clone()) {
            true => Ok((k, v)),
            false => Err(duplicate.replace("{}", &k.to_string())),
        }
    })?;
    Ok(entries.into_iter().collect())
}

/// A module's `module` tag, which must be `tag`.
pub(crate) fn module_tag(r: &mut Reader<'_>, tag: &str) -> Result<(), String> {
    match r.scalar().as_str() {
        None => Err(missing("module")),
        Some(t) if t == tag => Ok(()),
        Some(_) => Err(format!("module tag is not `{tag}`")),
    }
}

/// What restoring module `name` in place came to.
pub(crate) fn restored(module: Option<Result<(), String>>, name: &str) -> Result<(), String> {
    let module = module.ok_or_else(|| format!("missing `{name}`"))?;
    module.map_err(|e| format!("{name} module: {e}"))
}

/// A type a snapshot stores, declared once: `Type { field, … }`, or
/// `Type module "tag" { … }` for a module, whose state starts with its
/// `module` tag. A field is a member under its name, in order, spelled as
/// its type says ([`Stored`]) or, as `field = Kind`, as the [`Kind`]
/// says. An object's members are read in any order, the first of a name
/// wins, unknown ones are skipped, and the fields are judged in order
/// once it is closed.
///
/// `Type in place { … } modules { … }` is the service: its fields are
/// restored into it, and the listed modules write and restore themselves
/// through their seams, their errors under ``<name> module:``.
macro_rules! stored {
    (@kind) => { Plain };
    (@kind $kind:expr) => { $kind };
    (@load $r:ident, $key:ident, $f:ident $(= $kind:expr)?) => {
        $key == stringify!($f) && first(&mut $f, || {
            Kind::load(&$crate::protocol::codec::stored!(@kind $($kind)?), $r, $key)
        })
    };
    (@absent $f:ident $(= $kind:expr)?) => {
        $f.unwrap_or_else(|| {
            Kind::absent(&$crate::protocol::codec::stored!(@kind $($kind)?), stringify!($f))
        })?
    };
    (@store $self:ident, $w:ident, $($f:ident $(= $kind:expr)?),*) => {$(
        let kind = $crate::protocol::codec::stored!(@kind $($kind)?);
        Kind::store(&kind, &$self.$f, $w.key(stringify!($f)), stringify!($f))?;
    )*};
    ($ty:ident $(module $tag:literal)? { $($f:ident $(= $kind:expr)?),* $(,)? }) => {
        const _: () = {
            use $crate::protocol::codec::*;
            use $crate::snapshot::SnapshotError;

            impl Record for $ty {
                fn store_members(&self, w: &mut Writer<'_>) -> Result<(), SnapshotError> {
                    $(w.key("module").str($tag);)?
                    $crate::protocol::codec::stored!(@store self, w, $($f $(= $kind)?),*);
                    Ok(())
                }

                fn load_from<'a>(
                    r: &mut Reader<'a>,
                    head: Token<'a>,
                    extra: Extra<'_, 'a>,
                ) -> Result<Self, String> {
                    $(let mut tag = None; let _ = $tag;)?
                    $(let mut $f = None;)*
                    read_object(r, head, [], |key, r| {
                        $((key == "module" && first(&mut tag, || module_tag(r, $tag))) ||)?
                        $($crate::protocol::codec::stored!(@load r, key, $f $(= $kind)?) ||)*
                        extra(key, r)
                    });
                    $(tag.unwrap_or_else(|| Err(missing("module")))?; let _ = $tag;)?
                    Ok($ty { $($f: $crate::protocol::codec::stored!(@absent $f $(= $kind)?),)* })
                }
            }
        };
    };
    ($ty:ident in place { $($f:ident $(= $kind:expr)?),* $(,)? } modules { $($m:ident),* }) => {
        const _: () = {
            use $crate::protocol::codec::*;
            use $crate::snapshot::SnapshotError;

            impl $ty {
                /// Writes the members into the object `w` has open.
                fn store_members(&self, w: &mut Writer<'_>) -> Result<(), SnapshotError> {
                    $crate::protocol::codec::stored!(@store self, w, $($f $(= $kind)?),*);
                    $(self.$m.snapshot_state(w.key(stringify!($m)))?;)*
                    Ok(())
                }

                /// Restores the members of the object `r` stands at: the
                /// modules as they are read, the rest once it is closed.
                /// Members it does not own go to `extra`.
                fn restore_members<'a>(
                    &mut self,
                    r: &mut Reader<'a>,
                    extra: Extra<'_, 'a>,
                ) -> Result<(), String> {
                    $(let mut $f = None;)*
                    $(let mut $m = None;)*
                    read_members(r, [], |key, r| {
                        $($crate::protocol::codec::stored!(@load r, key, $f $(= $kind)?) ||)*
                        $((key == stringify!($m) && first(&mut $m, || self.$m.restore_state(r))) ||)*
                        extra(key, r)
                    });
                    $(self.$f = $crate::protocol::codec::stored!(@absent $f $(= $kind)?);)*
                    $(restored($m, stringify!($m))?;)*
                    Ok(())
                }
            }
        };
    };
}

pub(crate) use {coded, messages, stored};
