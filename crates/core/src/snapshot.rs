//! Durable snapshots of the full service state.
//!
//! A snapshot is a deterministic JSON encoding of everything a
//! [`SpeQuloS`] instance knows — credit accounts and orders, the favor
//! ledger, QoS registrations, the event log, pool occupancy, tenant
//! counters, and the internal state of the three pluggable modules —
//! with one field list per type and direction: a `write_*` on the shared
//! [`simcore::json`] writer and a `read_*` on its pull reader, which
//! builds no document tree. The write-ahead log ([`crate::wal`])
//! persists a snapshot once the log's tail outweighs the last one;
//! recovery restores the newest valid snapshot into a freshly assembled
//! template service and replays only the log tail through
//! [`crate::protocol::SpqService::handle`].
//!
//! Determinism rules:
//!
//! * every hash map — SipHash or [`simcore::IdMap`] — is emitted sorted
//!   by key: map iteration order must never leak into the bytes;
//! * floats go through the shortest-round-trip formatter (`fmt_f64`),
//!   so `encode → decode → encode` is bit-identical;
//! * non-finite floats are a typed [`SnapshotError::NonFinite`] at
//!   encode time (the JSON writer would emit an unrestorable `null`).
//!
//! Decoding reads members in any order, the first of a repeated name,
//! and skips unknown ones; a missing or ill-typed member and a repeated
//! map key are a typed [`SnapshotError::Decode`] naming them.
//!
//! Module state crosses the [`crate::modules`] seams via
//! `snapshot_state` / `restore_state`; a third-party module that opts
//! out (the default) makes the whole service unsnapshottable —
//! [`SnapshotError::UnsupportedModule`] — and durable recovery falls
//! back to replaying the entire log from genesis, which is equally
//! exact, just slower.
//!
//! Restoration is *template-based*: trait objects cannot be rebuilt from
//! bytes alone, so [`restore_state_json`] takes a service assembled with
//! the **same builder configuration** (tick, default strategy, pool
//! capacity, module types) as the one that was snapshotted, validates
//! the recorded configuration against it, and replaces its state. A
//! mismatch is a typed [`SnapshotError::ConfigMismatch`], never a
//! silently diverging service.

use crate::credit::{CreditSystem, FavorLedger, Order};
use crate::info::{ArchivedExecution, BotRecord, Information};
use crate::oracle::{Oracle, StrategyCombo, VarianceState};
use crate::protocol::{
    first, no_extra, read_array, read_entry, read_members, read_nested, read_object, write_entry,
    Nested, Scalars,
};
use crate::scheduler::{BotSchedState, GreedyUntilTc, Scheduler};
use crate::service::SpeQuloS;
use crate::tenancy::{CloudPool, TenantMetrics};
use crate::UserId;
use simcore::json::{self, Reader, Token, Value, Writer};
use simcore::{SimDuration, SimTime, TimeSeries};
use std::collections::{HashMap, HashSet};
use std::fmt::Display;
use std::hash::Hash;

/// Snapshot format version; bumped on incompatible layout changes.
pub const SNAPSHOT_FORMAT: u64 = 1;

/// Why a snapshot could not be taken or restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// A pluggable module opted out of snapshotting (its
    /// `snapshot_state` returned `None`); recovery must replay the full
    /// log instead.
    UnsupportedModule(&'static str),
    /// A state field holds a non-finite float the JSON encoding cannot
    /// round-trip (e.g. an account balance driven to infinity).
    NonFinite(&'static str),
    /// The snapshot bytes are malformed or inconsistent.
    Decode(String),
    /// The snapshot was taken from a service with a different
    /// configuration than the restore template.
    ConfigMismatch(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::UnsupportedModule(m) => {
                write!(f, "module `{m}` does not support snapshots")
            }
            SnapshotError::NonFinite(field) => {
                write!(f, "non-finite float in `{field}` cannot be snapshotted")
            }
            SnapshotError::Decode(msg) => write!(f, "snapshot decode: {msg}"),
            SnapshotError::ConfigMismatch(msg) => {
                write!(f, "snapshot/template configuration mismatch: {msg}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<String> for SnapshotError {
    fn from(msg: String) -> Self {
        SnapshotError::Decode(msg)
    }
}

/// Writes a finite float, or fails with a typed error naming the field.
fn fin(w: &mut Writer<'_>, field: &'static str, v: f64) -> Result<(), SnapshotError> {
    if !v.is_finite() {
        return Err(SnapshotError::NonFinite(field));
    }
    w.num(v);
    Ok(())
}

/// A hash map's entries in key order, whatever it hashes with.
fn sorted<K: Ord, V, S>(map: &HashMap<K, V, S>) -> Vec<(&K, &V)> {
    // spq-lint: allow(det-unordered-iter) — entries are sorted on the next line
    let mut entries: Vec<(&K, &V)> = map.iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    entries
}

/// What reading a member the decoder cannot do without came to.
fn present<T>(member: Option<Result<T, String>>, key: &str) -> Result<T, String> {
    member.unwrap_or_else(|| Err(format!("missing `{key}`")))
}

/// Every entry of the array member `key` that `r` stands at, or the
/// first that failed.
fn entries<'a, T>(
    r: &mut Reader<'a>,
    key: &str,
    entry: impl FnMut(&mut Reader<'a>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let items = read_array(r, entry).ok_or_else(|| format!("`{key}` must be an array"))?;
    items.map_err(|(_, e)| e)
}

/// [`entries`] that are a map's key-value pairs, collected into the map;
/// a key seen twice fails with `duplicate(key)`.
fn keyed<'a, K: Eq + Hash + Clone, V, M: FromIterator<(K, V)>>(
    r: &mut Reader<'a>,
    key: &str,
    mut entry: impl FnMut(&mut Reader<'a>) -> Result<(K, V), String>,
    duplicate: impl Fn(&K) -> String,
) -> Result<M, String> {
    let mut seen = HashSet::new();
    let pairs = entries(r, key, |r| {
        let (k, v) = entry(r)?;
        if !seen.insert(k.clone()) {
            return Err(duplicate(&k));
        }
        Ok((k, v))
    })?;
    Ok(pairs.into_iter().collect())
}

/// ``duplicate {what} {key}``, [`keyed`]'s usual message.
fn dup<K: Display>(what: &'static str) -> impl Fn(&K) -> String {
    move |key| format!("duplicate {what} {key}")
}

/// A map written as `[{<id>: …, <field>: …}, …]`: `value` judges each
/// entry's `field`; an id seen twice is ``duplicate {what} {id}``.
fn id_map<'a, V, M: FromIterator<(u64, V)>>(
    r: &mut Reader<'a>,
    key: &str,
    [id, field, what]: [&'static str; 3],
    value: impl Fn(&Scalars<'a, 2>, &str) -> Result<V, String>,
) -> Result<M, String> {
    let entry = |r: &mut Reader<'a>| {
        let m = read_members(r, [id, field], no_extra);
        Ok((m.u64(id)?, value(&m, field)?))
    };
    keyed(r, key, entry, dup(what))
}

// ---------------------------------------------------------------------------
// Time series
// ---------------------------------------------------------------------------

fn write_series(w: &mut Writer<'_>, series: &TimeSeries) {
    w.begin_array();
    for &(t, v) in series.points() {
        w.begin_array().num(t.as_millis() as f64).num(v).end_array();
    }
    w.end_array();
}

fn read_series(r: &mut Reader<'_>) -> Result<TimeSeries, String> {
    let mut series = TimeSeries::new();
    let points = read_array(r, |r| {
        let (mut pair, mut n) = ([None, None], 0);
        read_array(r, |r| {
            let item = r.scalar();
            if let Some(slot) = pair.get_mut(n) {
                *slot = Some(item);
            }
            n += 1;
            Ok(())
        });
        let (2, [Some(t), Some(value)]) = (n, pair) else {
            return Err("series point must be a [t_ms, value] pair".to_string());
        };
        let t = t
            .as_u64()
            .ok_or("series point time must be integer milliseconds")?;
        let value = value.as_f64().ok_or("series point value must be finite")?;
        // `TimeSeries::push` asserts monotone time; a corrupted snapshot
        // must decode to an error, not a panic.
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

// ---------------------------------------------------------------------------
// Module state: Information
// ---------------------------------------------------------------------------

/// Writes the in-memory [`Information`] store (live records sorted by
/// bot id, archive sorted by environment).
pub(crate) fn write_info(w: &mut Writer<'_>, info: &Information) {
    w.begin_object().key("live").begin_array();
    for (&bot, rec) in sorted(&info.live) {
        w.begin_object().key("bot").num(bot as f64);
        w.key("env").str(&rec.env);
        w.key("size").num(f64::from(rec.size));
        w.key("submitted_at")
            .num(rec.submitted_at.as_millis() as f64);
        write_series(w.key("completed"), &rec.completed);
        write_series(w.key("dispatched"), &rec.dispatched);
        write_series(w.key("queued"), &rec.queued);
        match rec.completion {
            Some(t) => w.key("completion").num(t.as_millis() as f64),
            None => w.key("completion").null(),
        };
        w.end_object();
    }
    w.end_array().key("archive").begin_array();
    for (env, executions) in sorted(&info.archive) {
        w.begin_object().key("env").str(env);
        w.key("executions").begin_array();
        for e in executions {
            w.begin_object().key("size").num(f64::from(e.size));
            w.key("completion").num(e.completion.as_millis() as f64);
            write_series(w.key("completed"), &e.completed);
            w.end_object();
        }
        w.end_array().end_object();
    }
    w.end_array().end_object();
}

/// Decodes what [`write_info`] wrote. Every member is required: one read
/// as empty when missing would restore another state than the one
/// written.
pub(crate) fn read_info(r: &mut Reader<'_>) -> Result<Information, String> {
    let (mut live, mut archive) = (None, None);
    read_members(r, [], |key, r| match key {
        "live" => first(&mut live, || {
            keyed(r, key, read_bot_record, dup("live record for bot"))
        }),
        "archive" => first(&mut archive, || {
            let duplicate = |env: &String| format!("duplicate archive env `{env}`");
            keyed(r, key, read_archived, duplicate)
        }),
        _ => false,
    });
    let (live, archive) = (present(live, "live")?, present(archive, "archive")?);
    Ok(Information { live, archive })
}

fn read_bot_record(r: &mut Reader<'_>) -> Result<(u64, BotRecord), String> {
    let (mut completed, mut dispatched, mut queued) = (None, None, None);
    let keys = ["bot", "env", "size", "submitted_at", "completion"];
    let m = read_members(r, keys, |key, r| match key {
        "completed" => first(&mut completed, || read_series(r)),
        "dispatched" => first(&mut dispatched, || read_series(r)),
        "queued" => first(&mut queued, || read_series(r)),
        _ => false,
    });
    let bot = m.u64("bot")?;
    let completion = match m.get("completion") {
        None | Some(Token::Null) => None,
        Some(c) => Some(c.as_u64().ok_or("invalid `completion`")?),
    };
    let record = BotRecord {
        env: m.str("env")?.to_string(),
        size: m.u32("size")?,
        submitted_at: SimTime::from_millis(m.u64("submitted_at")?),
        completed: present(completed, "completed")?,
        dispatched: present(dispatched, "dispatched")?,
        queued: present(queued, "queued")?,
        completion: completion.map(SimTime::from_millis),
    };
    Ok((bot, record))
}

fn read_archived(r: &mut Reader<'_>) -> Result<(String, Vec<ArchivedExecution>), String> {
    let mut executions = None;
    let m = read_members(r, ["env"], |key, r| {
        key == "executions" && first(&mut executions, || entries(r, key, read_execution))
    });
    let env = m.str("env")?.to_string();
    Ok((env, present(executions, "executions")?))
}

fn read_execution(r: &mut Reader<'_>) -> Result<ArchivedExecution, String> {
    let mut completed = None;
    let m = read_members(r, ["size", "completion"], |key, r| {
        key == "completed" && first(&mut completed, || read_series(r))
    });
    Ok(ArchivedExecution {
        size: m.u32("size")?,
        completion: SimTime::from_millis(m.u64("completion")?),
        completed: present(completed, "completed")?,
    })
}

// ---------------------------------------------------------------------------
// Module state: Oracle
// ---------------------------------------------------------------------------

/// Writes the paper [`Oracle`]'s per-BoT variance state.
pub(crate) fn write_oracle(w: &mut Writer<'_>, oracle: &Oracle) {
    w.begin_object().key("module").str("oracle");
    w.key("variance").begin_array();
    for (&bot, state) in sorted(&oracle.variance) {
        w.begin_object().key("bot").num(bot as f64);
        w.key("max_first_half").num(state.max_first_half);
        w.end_object();
    }
    w.end_array().end_object();
}

/// The `module` tag a module's state starts with.
fn module_tag<const N: usize>(m: &Scalars<'_, N>, tag: &str) -> Result<(), String> {
    if m.str("module")? != tag {
        return Err(format!("module tag is not `{tag}`"));
    }
    Ok(())
}

/// Decodes what [`write_oracle`] wrote.
pub(crate) fn read_oracle(r: &mut Reader<'_>) -> Result<Oracle, String> {
    let mut variance = None;
    let m = read_members(r, ["module"], |key, r| match key {
        "variance" => first(&mut variance, || {
            let shape = ["bot", "max_first_half", "variance state for bot"];
            id_map(r, key, shape, |m, k| {
                m.f64(k)
                    .map(|max_first_half| VarianceState { max_first_half })
            })
        }),
        _ => false,
    });
    module_tag(&m, "oracle")?;
    let variance = present(variance, "variance")?;
    Ok(Oracle { variance })
}

// ---------------------------------------------------------------------------
// Module state: schedulers
// ---------------------------------------------------------------------------

/// Writes the paper [`Scheduler`]'s per-BoT fleet flags.
pub(crate) fn write_scheduler(w: &mut Writer<'_>, scheduler: &Scheduler) {
    w.begin_object().key("module").str("scheduler");
    w.key("allow_topup").bool(scheduler.allow_topup);
    w.key("state").begin_array();
    for (&bot, state) in sorted(&scheduler.state) {
        w.begin_object().key("bot").num(bot as f64);
        w.key("cloud_started").bool(state.cloud_started);
        w.end_object();
    }
    w.end_array().end_object();
}

/// Decodes what [`write_scheduler`] wrote.
pub(crate) fn read_scheduler(r: &mut Reader<'_>) -> Result<Scheduler, String> {
    let mut state = None;
    let m = read_members(r, ["module", "allow_topup"], |key, r| match key {
        "state" => first(&mut state, || {
            let shape = ["bot", "cloud_started", "scheduler state for bot"];
            id_map(r, key, shape, |m, k| {
                m.bool(k)
                    .map(|cloud_started| BotSchedState { cloud_started })
            })
        }),
        _ => false,
    });
    module_tag(&m, "scheduler")?;
    let allow_topup = m.bool("allow_topup")?;
    let state = present(state, "state")?;
    Ok(Scheduler { state, allow_topup })
}

/// Writes the deadline-aware [`GreedyUntilTc`] policy.
pub(crate) fn write_greedy(w: &mut Writer<'_>, policy: &GreedyUntilTc) {
    let mut bots: Vec<u64> = policy.started.iter().copied().collect();
    bots.sort_unstable();
    w.begin_object().key("module").str("greedy_until_tc");
    w.key("target").num(policy.target.as_millis() as f64);
    w.key("started").begin_array();
    for bot in bots {
        w.num(bot as f64);
    }
    w.end_array().end_object();
}

/// Decodes what [`write_greedy`] wrote.
pub(crate) fn read_greedy(r: &mut Reader<'_>) -> Result<GreedyUntilTc, String> {
    let mut started = None;
    let bot = |r: &mut Reader<'_>| {
        r.scalar()
            .as_u64()
            .ok_or("`started` entries must be bot ids")
    };
    let m = read_members(r, ["module", "target"], |key, r| {
        key == "started" && first(&mut started, || entries(r, key, |r| Ok(bot(r)?)))
    });
    module_tag(&m, "greedy_until_tc")?;
    let target = SimDuration::from_millis(m.u64("target")?);
    let started = present(started, "started")?.into_iter().collect();
    Ok(GreedyUntilTc { target, started })
}

// ---------------------------------------------------------------------------
// Service state
// ---------------------------------------------------------------------------

fn write_credits(w: &mut Writer<'_>, credits: &CreditSystem) -> Result<(), SnapshotError> {
    // The credit maps are BTreeMaps: iteration is already key-sorted.
    w.begin_object().key("accounts").begin_array();
    for (&user, &balance) in &credits.accounts {
        w.begin_object().key("user").num(user as f64);
        fin(w.key("balance"), "balance", balance)?;
        w.end_object();
    }
    w.end_array().key("orders").begin_array();
    for (&bot, order) in &credits.orders {
        w.begin_object().key("bot").num(bot as f64);
        w.key("user").num(order.user.0 as f64);
        fin(w.key("provisioned"), "provisioned", order.provisioned)?;
        fin(w.key("spent"), "spent", order.spent)?;
        w.key("closed").bool(order.closed);
        w.end_object();
    }
    w.end_array().end_object();
    Ok(())
}

fn read_credits(r: &mut Reader<'_>) -> Result<CreditSystem, String> {
    let (mut accounts, mut orders) = (None, None);
    read_members(r, [], |key, r| match key {
        "accounts" => first(&mut accounts, || {
            let shape = ["user", "balance", "account for user"];
            id_map(r, key, shape, Scalars::f64)
        }),
        "orders" => first(&mut orders, || {
            keyed(r, key, read_order, dup("order for bot"))
        }),
        _ => false,
    });
    let accounts = present(accounts, "accounts")?;
    let orders = present(orders, "orders")?;
    Ok(CreditSystem { accounts, orders })
}

fn read_order(r: &mut Reader<'_>) -> Result<(u64, Order), String> {
    let keys = ["bot", "user", "provisioned", "spent", "closed"];
    let m = read_members(r, keys, no_extra);
    let bot = m.u64("bot")?;
    let order = Order {
        user: UserId(m.u64("user")?),
        provisioned: m.f64("provisioned")?,
        spent: m.f64("spent")?,
        closed: match m.get("closed") {
            Some(Token::Bool(closed)) => *closed,
            Some(_) => return Err("`closed` must be a boolean".into()),
            None => return Err("missing `closed`".into()),
        },
    };
    Ok((bot, order))
}

fn write_favor_map<S>(
    w: &mut Writer<'_>,
    field_name: &'static str,
    map: &HashMap<u64, f64, S>,
) -> Result<(), SnapshotError> {
    w.begin_array();
    for (&user, &hours) in sorted(map) {
        w.begin_object().key("user").num(user as f64);
        fin(w.key("cpu_hours"), field_name, hours)?;
        w.end_object();
    }
    w.end_array();
    Ok(())
}

fn read_favors(r: &mut Reader<'_>) -> Result<FavorLedger, String> {
    let (mut donated, mut consumed) = (None, None);
    let favor_map = |r: &mut Reader<'_>, key: &str| {
        let shape = ["user", "cpu_hours", "favor entry for"];
        id_map(r, key, shape, Scalars::f64)
    };
    read_members(r, [], |key, r| match key {
        "donated" => first(&mut donated, || favor_map(r, key)),
        "consumed" => first(&mut consumed, || favor_map(r, key)),
        _ => false,
    });
    let donated = present(donated, "donated")?;
    let consumed = present(consumed, "consumed")?;
    Ok(FavorLedger { donated, consumed })
}

fn write_pool(w: &mut Writer<'_>, pool: &CloudPool) {
    w.begin_object()
        .key("capacity")
        .num(f64::from(pool.capacity));
    w.key("peak_in_use").num(f64::from(pool.peak_in_use));
    w.key("leases").begin_array();
    for (&bot, &workers) in sorted(&pool.leases) {
        w.begin_object().key("bot").num(bot as f64);
        w.key("workers").num(f64::from(workers));
        w.end_object();
    }
    w.end_array().end_object();
}

/// `null` is a service without a pool.
fn read_pool(r: &mut Reader<'_>) -> Result<Option<CloudPool>, String> {
    let head = r.token();
    if head == Token::Null {
        return Ok(None);
    }
    let mut leases = None;
    let m = read_object(r, head, ["capacity", "peak_in_use"], |key, r| match key {
        "leases" => first(&mut leases, || {
            id_map(r, key, ["bot", "workers", "lease for bot"], Scalars::u32)
        }),
        _ => false,
    });
    let (capacity, peak_in_use) = (m.u32("capacity")?, m.u32("peak_in_use")?);
    let leases = present(leases, "leases")?;
    Ok(Some(CloudPool {
        capacity,
        leases,
        peak_in_use,
    }))
}

fn read_tenant(r: &mut Reader<'_>) -> Result<(u64, TenantMetrics), String> {
    let keys = ["bot", "requested", "granted", "denied", "throttled_ticks"];
    let m = read_members(r, keys, no_extra);
    let bot = m.u64("bot")?;
    let metrics = TenantMetrics {
        requested: m.u64("requested")?,
        granted: m.u64("granted")?,
        denied: m.u64("denied")?,
        throttled_ticks: m.u64("throttled_ticks")?,
    };
    Ok((bot, metrics))
}

/// Writes the full state of `service` as one deterministic JSON object:
/// the one field list per type that [`encode_state_json`], [`encode_state`]
/// and the write-ahead log's snapshot files all come from. On an error
/// the writer's text is left unfinished and is to be discarded.
pub(crate) fn write_state(w: &mut Writer<'_>, service: &SpeQuloS) -> Result<(), SnapshotError> {
    w.begin_object().key("config").begin_object();
    w.key("tick").num(service.tick.as_millis() as f64);
    service.default_strategy.json(w.key("default_strategy"));
    match service.pool.as_ref() {
        Some(pool) => w.key("pool_capacity").num(f64::from(pool.capacity)),
        None => w.key("pool_capacity").null(),
    };
    // Recorded only for sharded services: omitting the default keeps
    // every pre-sharding snapshot byte-identical.
    if service.bot_stride != 1 {
        w.key("bot_stride").num(service.bot_stride as f64);
    }
    w.end_object();
    write_credits(w.key("credits"), &service.credits)?;
    w.key("favors").begin_object();
    write_favor_map(w.key("donated"), "donated", &service.favors.donated)?;
    write_favor_map(w.key("consumed"), "consumed", &service.favors.consumed)?;
    w.end_object();
    w.key("strategies").begin_array();
    for (&bot, strategy) in sorted(&service.strategies) {
        w.begin_object().key("bot").num(bot as f64);
        strategy.json(w.key("strategy"));
        w.end_object();
    }
    w.end_array().key("users").begin_array();
    for (&bot, user) in sorted(&service.users) {
        w.begin_object().key("bot").num(bot as f64);
        w.key("user").num(user.0 as f64);
        w.end_object();
    }
    w.end_array().key("next_bot").num(service.next_bot as f64);
    w.key("log").begin_array();
    for (t, event) in &service.log {
        write_entry(w, *t, event);
    }
    w.end_array();
    match service.pool.as_ref() {
        Some(pool) => write_pool(w.key("pool"), pool),
        None => {
            w.key("pool").null();
        }
    }
    w.key("tenants").begin_array();
    for (&bot, m) in sorted(&service.tenants) {
        w.begin_object().key("bot").num(bot as f64);
        w.key("requested").num(m.requested as f64);
        w.key("granted").num(m.granted as f64);
        w.key("denied").num(m.denied as f64);
        w.key("throttled_ticks").num(m.throttled_ticks as f64);
        w.end_object();
    }
    w.end_array();
    if !service.info.snapshot_state(w.key("info")) {
        return Err(SnapshotError::UnsupportedModule("info"));
    }
    if !service.oracle.snapshot_state(w.key("oracle")) {
        return Err(SnapshotError::UnsupportedModule("oracle"));
    }
    if !service.scheduler.snapshot_state(w.key("scheduler")) {
        return Err(SnapshotError::UnsupportedModule("scheduler"));
    }
    w.end_object();
    Ok(())
}

/// Restores what [`write_state`] wrote, at the value `r` stands at, into
/// `service`: its modules restore themselves as their members are read,
/// the rest is judged once the object is closed, in the order
/// [`write_state`] writes it — the recorded configuration first. On an
/// error `service` is left half restored and is to be discarded.
fn read_state(r: &mut Reader<'_>, service: &mut SpeQuloS) -> Result<(), SnapshotError> {
    let (mut config, mut credits, mut favors, mut strategies) = (None, None, None, None);
    let (mut users, mut log, mut pool, mut tenants) = (None, None, None, None);
    let (mut info, mut oracle, mut scheduler) = (None, None, None);
    let state = read_members(r, ["next_bot"], |key, r| match key {
        "config" => first(&mut config, || {
            let mut default_strategy = None;
            let keys = ["tick", "pool_capacity", "bot_stride"];
            let m = read_members(r, keys, |key, r| {
                key == "default_strategy"
                    && first(&mut default_strategy, || read_nested::<StrategyCombo>(r))
            });
            (m, default_strategy)
        }),
        "credits" => first(&mut credits, || read_credits(r)),
        "favors" => first(&mut favors, || read_favors(r)),
        "strategies" => first(&mut strategies, || {
            let entry = |r: &mut Reader<'_>| {
                let mut strategy = None;
                let m = read_members(r, ["bot"], |key, r| {
                    key == "strategy" && first(&mut strategy, || read_nested(r))
                });
                Ok((m.u64("bot")?, present(strategy, "strategy")?))
            };
            keyed(r, key, entry, dup("strategy for bot"))
        }),
        "users" => first(&mut users, || {
            id_map(r, key, ["bot", "user", "user mapping for bot"], |m, k| {
                m.u64(k).map(UserId)
            })
        }),
        "log" => first(&mut log, || entries(r, key, read_entry)),
        "pool" => first(&mut pool, || read_pool(r)),
        "tenants" => first(&mut tenants, || {
            keyed(r, key, read_tenant, dup("tenant metrics for"))
        }),
        "info" => first(&mut info, || service.info.restore_state(r)),
        "oracle" => first(&mut oracle, || service.oracle.restore_state(r)),
        "scheduler" => first(&mut scheduler, || service.scheduler.restore_state(r)),
        _ => false,
    });

    let (config, default_strategy) = config.ok_or_else(|| "missing `config`".to_string())?;
    let tick = config.u64("tick")?;
    if tick != service.tick.as_millis() {
        return Err(SnapshotError::ConfigMismatch(format!(
            "snapshot tick {tick} ms vs template {} ms",
            service.tick.as_millis()
        )));
    }
    if present(default_strategy, "default_strategy")? != service.default_strategy {
        return Err(SnapshotError::ConfigMismatch(
            "snapshot default strategy differs from template".into(),
        ));
    }
    let pool_capacity = match config.get("pool_capacity") {
        None => return Err("missing `pool_capacity`".to_string().into()),
        Some(Token::Null) => None,
        Some(v) => Some(
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or("invalid `pool_capacity`".to_string())?,
        ),
    };
    let bot_stride = match config.get("bot_stride") {
        None => 1,
        Some(v) => v
            .as_u64()
            .filter(|&s| s >= 1)
            .ok_or("invalid `bot_stride`".to_string())?,
    };
    if bot_stride != service.bot_stride {
        return Err(SnapshotError::ConfigMismatch(format!(
            "snapshot bot stride {bot_stride} vs template {}",
            service.bot_stride
        )));
    }
    let template_capacity = service.pool.as_ref().map(|p| p.capacity);
    // A shard's pool capacity is its PoolLedger quota, which the
    // rebalancer moves at runtime — so for sharded templates only the
    // pool's presence must match; the recorded quota is restored as-is.
    // Unsharded services keep the strict capacity check.
    let capacity_ok = if service.bot_stride != 1 {
        pool_capacity.is_some() == template_capacity.is_some()
    } else {
        pool_capacity == template_capacity
    };
    if !capacity_ok {
        return Err(SnapshotError::ConfigMismatch(format!(
            "snapshot pool capacity {pool_capacity:?} vs template {template_capacity:?}"
        )));
    }

    service.credits = present(credits, "credits")?;
    service.favors = present(favors, "favors")?;
    service.strategies = present(strategies, "strategies")?;
    service.users = present(users, "users")?;
    service.next_bot = state.u64("next_bot")?;
    service.log = present(log, "log")?;
    service.pool = present(pool, "pool")?;
    if service.pool.as_ref().map(|p| p.capacity) != pool_capacity {
        let msg = "pool state capacity disagrees with recorded configuration";
        return Err(msg.to_string().into());
    }
    service.tenants = present(tenants, "tenants")?;
    for (module, name) in [(info, "info"), (oracle, "oracle"), (scheduler, "scheduler")] {
        let module = module.map(|m| m.map_err(|e| format!("{name} module: {e}")));
        present(module, name)?;
    }
    Ok(())
}

/// Encodes the full state of `service` as deterministic JSON text.
///
/// The same service state always produces the same bytes (maps are
/// sorted, floats use the shortest-round-trip form), so byte equality of
/// two encodings is state equality — the property the crash-injection
/// suite asserts on. Streamed: no document tree is built.
pub fn encode_state_json(service: &SpeQuloS) -> Result<String, SnapshotError> {
    let mut text = String::new();
    write_state(&mut Writer::new(&mut text), service)?;
    Ok(text)
}

/// Restores state text produced by [`encode_state_json`] into
/// `template` — a service assembled with the same builder configuration
/// (tick, default strategy, pool capacity, module types) as the
/// snapshotted one — in one pass. On any inconsistency the template is
/// dropped and a typed error returned.
pub fn restore_state_json(mut template: SpeQuloS, text: &str) -> Result<SpeQuloS, SnapshotError> {
    json::read(text, |r| read_state(r, &mut template)).map_err(SnapshotError::Decode)??;
    Ok(template)
}

/// [`encode_state_json`] parsed into a document tree. Kept only while
/// `benchmark/README.md` § Frozen API lists it.
pub fn encode_state(service: &SpeQuloS) -> Result<Value, SnapshotError> {
    json::parse(&encode_state_json(service)?).map_err(SnapshotError::Decode)
}

/// [`restore_state_json`] of a document tree, such as [`encode_state`]
/// returns. Kept only while `benchmark/README.md` § Frozen API lists it.
pub fn restore_state(template: SpeQuloS, state: &Value) -> Result<SpeQuloS, SnapshotError> {
    restore_state_json(template, &state.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::StrategyCombo;
    use crate::protocol::{Request, SpqService};
    use botwork::BotId;

    fn exercised_service() -> SpeQuloS {
        // Drive a pooled service through every state-bearing code path:
        // deposits, registrations, orders, progress (billing + pool
        // leases), completion (pay + favors), plus a denied order.
        let mut spq = SpeQuloS::builder()
            .pool(2)
            .tick(SimDuration::from_mins(1))
            .build();
        let strategy = StrategyCombo::paper_default();
        for user in 0..3u64 {
            spq.handle(
                Request::Deposit {
                    user: UserId(user),
                    credits: 500.0,
                },
                SimTime::ZERO,
            );
            spq.handle(
                Request::RegisterQos {
                    user: UserId(user),
                    env: format!("env-{}", user % 2),
                    size: 10,
                },
                SimTime::ZERO,
            );
        }
        for bot in 0..3u64 {
            spq.handle(
                Request::OrderQos {
                    bot: BotId(bot),
                    credits: 150.0,
                    strategy: Some(strategy),
                },
                SimTime::ZERO,
            );
        }
        // Progress ticks past the 90% trigger so cloud workers start,
        // bill, and contend for the 2-worker pool.
        for tick in 1..=30u64 {
            let now = SimTime::from_mins(tick);
            for bot in 0..3u64 {
                let done = (tick * 10 / 30).min(10) as u32;
                spq.handle(
                    Request::ReportProgress {
                        bot: BotId(bot),
                        progress: crate::BotProgress {
                            now,
                            size: 10,
                            completed: done.min(9),
                            dispatched: 10,
                            queued: 10 - done,
                            running: 1,
                            cloud_running: if tick > 27 { 1 } else { 0 },
                        },
                    },
                    now,
                );
            }
        }
        let end = SimTime::from_mins(31);
        spq.handle(Request::Complete { bot: BotId(0) }, end);
        spq
    }

    #[test]
    fn encode_decode_reencode_is_bit_identical() {
        let service = exercised_service();
        let encoded = encode_state(&service).expect("encode");
        let template = SpeQuloS::builder()
            .pool(2)
            .tick(SimDuration::from_mins(1))
            .build();
        let restored = restore_state(template, &encoded).expect("restore");
        let reencoded = encode_state(&restored).expect("re-encode");
        assert_eq!(
            encoded.to_json(),
            reencoded.to_json(),
            "snapshot round-trip must be bit-identical"
        );
    }

    #[test]
    fn restored_service_behaves_identically() {
        let mut original = exercised_service();
        let encoded = encode_state(&original).expect("encode");
        let template = SpeQuloS::builder()
            .pool(2)
            .tick(SimDuration::from_mins(1))
            .build();
        let mut restored = restore_state(template, &encoded).expect("restore");
        // The next requests must produce identical responses and state.
        let now = SimTime::from_mins(32);
        for req in [
            Request::Complete { bot: BotId(1) },
            Request::Predict { bot: BotId(2) },
            Request::Deposit {
                user: UserId(9),
                credits: 1.5,
            },
        ] {
            let a = original.handle(req.clone(), now);
            let b = restored.handle(req, now);
            assert_eq!(a, b, "diverging response after restore");
        }
        assert_eq!(
            encode_state(&original).unwrap().to_json(),
            encode_state(&restored).unwrap().to_json(),
        );
    }

    #[test]
    fn config_mismatch_is_typed() {
        let service = exercised_service();
        let encoded = encode_state(&service).expect("encode");
        // Wrong tick.
        let template = SpeQuloS::builder()
            .pool(2)
            .tick(SimDuration::from_mins(5))
            .build();
        assert!(matches!(
            restore_state(template, &encoded),
            Err(SnapshotError::ConfigMismatch(_))
        ));
        // Missing pool.
        let template = SpeQuloS::builder().tick(SimDuration::from_mins(1)).build();
        assert!(matches!(
            restore_state(template, &encoded),
            Err(SnapshotError::ConfigMismatch(_))
        ));
    }

    #[test]
    fn non_finite_balances_fail_typed() {
        let mut spq = SpeQuloS::new();
        // Two maximal deposits overflow the balance to infinity; the
        // snapshot must refuse rather than emit an unrestorable null.
        spq.handle(
            Request::Deposit {
                user: UserId(1),
                credits: f64::MAX,
            },
            SimTime::ZERO,
        );
        spq.handle(
            Request::Deposit {
                user: UserId(1),
                credits: f64::MAX,
            },
            SimTime::ZERO,
        );
        assert_eq!(
            encode_state(&spq).unwrap_err(),
            SnapshotError::NonFinite("balance")
        );
    }

    #[test]
    fn corrupted_snapshots_decode_to_errors_not_panics() {
        let service = exercised_service();
        let text = encode_state_json(&service).expect("encode");
        // Truncations must come back as typed decode errors — a syntax
        // error or a mangled field — never a panic.
        for cut in [0, 1, text.len() / 2, text.len() - 1] {
            let template = SpeQuloS::builder()
                .pool(2)
                .tick(SimDuration::from_mins(1))
                .build();
            assert!(matches!(
                restore_state_json(template, &text[..cut]),
                Err(SnapshotError::Decode(_))
            ));
        }
    }

    #[test]
    fn greedy_policy_snapshots_through_the_seam() {
        let mut spq = SpeQuloS::builder()
            .policy(GreedyUntilTc::new(SimDuration::from_hours(2)))
            .build();
        spq.handle(
            Request::Deposit {
                user: UserId(1),
                credits: 10.0,
            },
            SimTime::ZERO,
        );
        let encoded = encode_state(&spq).expect("encode");
        let template = SpeQuloS::builder()
            .policy(GreedyUntilTc::new(SimDuration::from_hours(2)))
            .build();
        let restored = restore_state(template, &encoded).expect("restore");
        assert_eq!(
            encode_state(&restored).unwrap().to_json(),
            encoded.to_json()
        );
    }
}
