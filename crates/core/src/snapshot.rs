//! Durable snapshots of the full service state.
//!
//! A snapshot is a deterministic JSON encoding of everything a
//! [`SpeQuloS`] instance knows — credit accounts and orders, the favor
//! ledger, QoS registrations, the event log, pool occupancy, tenant
//! counters, and the internal state of the three pluggable modules —
//! written with the shared [`simcore::json`] writer so the same state
//! always produces the same bytes. The write-ahead log ([`crate::wal`])
//! persists a snapshot once the log's tail outweighs the last one;
//! recovery restores the newest valid snapshot into a freshly assembled
//! template service and replays only the log tail through
//! [`crate::protocol::SpqService::handle`].
//!
//! Determinism rules:
//!
//! * every `HashMap` is emitted sorted by key — map iteration order must
//!   never leak into the bytes;
//! * floats go through the shortest-round-trip formatter (`fmt_f64`),
//!   so `encode → decode → encode` is bit-identical;
//! * non-finite floats are a typed [`SnapshotError::NonFinite`] at
//!   encode time (the JSON writer would emit an unrestorable `null`).
//!
//! Module state crosses the [`crate::modules`] seams via
//! `snapshot_state` / `restore_state`; a third-party module that opts
//! out (the default) makes the whole service unsnapshottable —
//! [`SnapshotError::UnsupportedModule`] — and durable recovery falls
//! back to replaying the entire log from genesis, which is equally
//! exact, just slower.
//!
//! Restoration is *template-based*: trait objects cannot be rebuilt from
//! bytes alone, so [`restore_state`] takes a service assembled with the
//! **same builder configuration** (tick, default strategy, pool
//! capacity, module types) as the one that was snapshotted, validates
//! the recorded configuration against it, and replaces its state. A
//! mismatch is a typed [`SnapshotError::ConfigMismatch`], never a
//! silently diverging service.

use crate::credit::{CreditSystem, FavorLedger, Order};
use crate::info::{ArchivedExecution, BotRecord, Information};
use crate::oracle::{Oracle, StrategyCombo, VarianceState};
use crate::protocol::{
    entry_time, f64_field, log_event_from_value, str_field, strategy_from_value, u32_field,
    u64_field, write_log_entry, write_strategy,
};
use crate::scheduler::{BotSchedState, GreedyUntilTc, Scheduler};
use crate::service::SpeQuloS;
use crate::tenancy::{CloudPool, TenantMetrics};
use simcore::json::{self, Value, Writer};
use simcore::{SimDuration, SimTime, TimeSeries};
use std::collections::{HashMap, HashSet};

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

fn decode_err(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Decode(msg.into())
}

/// Writes a finite float, or fails with a typed error naming the field.
fn fin(w: &mut Writer<'_>, field: &'static str, v: f64) -> Result<(), SnapshotError> {
    if !v.is_finite() {
        return Err(SnapshotError::NonFinite(field));
    }
    w.num(v);
    Ok(())
}

fn sorted_keys<T>(map: &HashMap<u64, T>) -> Vec<u64> {
    // spq-lint: allow(det-unordered-iter) — keys are sorted on the next line
    let mut keys: Vec<u64> = map.keys().copied().collect();
    keys.sort_unstable();
    keys
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, SnapshotError> {
    v.get(key)
        .ok_or_else(|| decode_err(format!("missing `{key}`")))
}

fn array_field<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], SnapshotError> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| decode_err(format!("`{key}` must be an array")))
}

fn bool_field(v: &Value, key: &str) -> Result<bool, SnapshotError> {
    match field(v, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(decode_err(format!("`{key}` must be a boolean"))),
    }
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

fn series_from_value(v: &Value) -> Result<TimeSeries, String> {
    let items = v.as_array().ok_or("series must be an array")?;
    let mut out = TimeSeries::with_capacity(items.len());
    let mut last: Option<u64> = None;
    for point in items {
        let pair = point
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or("series point must be a [t_ms, value] pair")?;
        let t = pair[0]
            .as_u64()
            .ok_or("series point time must be integer milliseconds")?;
        let value = pair[1]
            .as_f64()
            .ok_or("series point value must be finite")?;
        // `TimeSeries::push` asserts monotone time; a corrupted snapshot
        // must decode to an error, not a panic.
        if last.is_some_and(|prev| t < prev) {
            return Err("series points out of order".into());
        }
        last = Some(t);
        out.push(SimTime::from_millis(t), value);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Module state: Information
// ---------------------------------------------------------------------------

/// Writes the in-memory [`Information`] store (live records sorted by
/// bot id, archive sorted by environment).
pub(crate) fn write_info(w: &mut Writer<'_>, info: &Information) {
    w.begin_object().key("live").begin_array();
    for bot in sorted_keys(&info.live) {
        let rec = &info.live[&bot];
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
    w.end_array();
    // spq-lint: allow(det-unordered-iter) — keys are sorted on the next line
    let mut envs: Vec<&String> = info.archive.keys().collect();
    envs.sort();
    w.key("archive").begin_array();
    for env in envs {
        w.begin_object().key("env").str(env);
        w.key("executions").begin_array();
        for e in &info.archive[env] {
            w.begin_object().key("size").num(f64::from(e.size));
            w.key("completion").num(e.completion.as_millis() as f64);
            write_series(w.key("completed"), &e.completed);
            w.end_object();
        }
        w.end_array().end_object();
    }
    w.end_array().end_object();
}

/// Decodes a value written by [`write_info`].
pub(crate) fn info_from_value(v: &Value) -> Result<Information, String> {
    let mut live = HashMap::new();
    for rec in v.get("live").and_then(Value::as_array).unwrap_or(&[]) {
        let bot = u64_field(rec, "bot")?;
        let completion = match rec.get("completion") {
            None | Some(Value::Null) => None,
            Some(c) => Some(SimTime::from_millis(
                c.as_u64().ok_or("invalid `completion`")?,
            )),
        };
        let record = BotRecord {
            env: str_field(rec, "env")?.to_string(),
            size: u32_field(rec, "size")?,
            submitted_at: SimTime::from_millis(u64_field(rec, "submitted_at")?),
            completed: series_from_value(rec.get("completed").ok_or("missing `completed`")?)?,
            dispatched: series_from_value(rec.get("dispatched").ok_or("missing `dispatched`")?)?,
            queued: series_from_value(rec.get("queued").ok_or("missing `queued`")?)?,
            completion,
        };
        if live.insert(bot, record).is_some() {
            return Err(format!("duplicate live record for bot {bot}"));
        }
    }
    let mut archive: HashMap<String, Vec<ArchivedExecution>> = HashMap::new();
    for entry in v.get("archive").and_then(Value::as_array).unwrap_or(&[]) {
        let env = str_field(entry, "env")?.to_string();
        let mut execs = Vec::new();
        for e in entry
            .get("executions")
            .and_then(Value::as_array)
            .ok_or("missing `executions`")?
        {
            execs.push(ArchivedExecution {
                size: u32_field(e, "size")?,
                completion: SimTime::from_millis(u64_field(e, "completion")?),
                completed: series_from_value(e.get("completed").ok_or("missing `completed`")?)?,
            });
        }
        if archive.insert(env.clone(), execs).is_some() {
            return Err(format!("duplicate archive env `{env}`"));
        }
    }
    Ok(Information { live, archive })
}

// ---------------------------------------------------------------------------
// Module state: Oracle
// ---------------------------------------------------------------------------

/// Writes the paper [`Oracle`]'s per-BoT variance state.
pub(crate) fn write_oracle(w: &mut Writer<'_>, oracle: &Oracle) {
    w.begin_object().key("module").str("oracle");
    w.key("variance").begin_array();
    for bot in sorted_keys(&oracle.variance) {
        w.begin_object().key("bot").num(bot as f64);
        w.key("max_first_half")
            .num(oracle.variance[&bot].max_first_half);
        w.end_object();
    }
    w.end_array().end_object();
}

/// Decodes a value written by [`write_oracle`].
pub(crate) fn oracle_from_value(v: &Value) -> Result<Oracle, String> {
    if str_field(v, "module")? != "oracle" {
        return Err("module tag is not `oracle`".into());
    }
    let mut variance = HashMap::new();
    for entry in v.get("variance").and_then(Value::as_array).unwrap_or(&[]) {
        let bot = u64_field(entry, "bot")?;
        let state = VarianceState {
            max_first_half: f64_field(entry, "max_first_half")?,
        };
        if variance.insert(bot, state).is_some() {
            return Err(format!("duplicate variance state for bot {bot}"));
        }
    }
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
    for bot in sorted_keys(&scheduler.state) {
        w.begin_object().key("bot").num(bot as f64);
        w.key("cloud_started")
            .bool(scheduler.state[&bot].cloud_started);
        w.end_object();
    }
    w.end_array().end_object();
}

/// Decodes a value written by [`write_scheduler`].
pub(crate) fn scheduler_from_value(v: &Value) -> Result<Scheduler, String> {
    if str_field(v, "module")? != "scheduler" {
        return Err("module tag is not `scheduler`".into());
    }
    let allow_topup = match v.get("allow_topup") {
        Some(Value::Bool(b)) => *b,
        _ => return Err("missing or invalid `allow_topup`".into()),
    };
    let mut state = HashMap::new();
    for entry in v.get("state").and_then(Value::as_array).unwrap_or(&[]) {
        let bot = u64_field(entry, "bot")?;
        let cloud_started = match entry.get("cloud_started") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("missing or invalid `cloud_started`".into()),
        };
        if state.insert(bot, BotSchedState { cloud_started }).is_some() {
            return Err(format!("duplicate scheduler state for bot {bot}"));
        }
    }
    Ok(Scheduler { state, allow_topup })
}

/// Writes the deadline-aware [`GreedyUntilTc`] policy.
pub(crate) fn write_greedy(w: &mut Writer<'_>, policy: &GreedyUntilTc) {
    // spq-lint: allow(det-unordered-iter) — set members are sorted on the next line
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

/// Decodes a value written by [`write_greedy`].
pub(crate) fn greedy_from_value(v: &Value) -> Result<GreedyUntilTc, String> {
    if str_field(v, "module")? != "greedy_until_tc" {
        return Err("module tag is not `greedy_until_tc`".into());
    }
    let target = SimDuration::from_millis(u64_field(v, "target")?);
    let mut started = HashSet::new();
    for entry in v.get("started").and_then(Value::as_array).unwrap_or(&[]) {
        let bot = entry.as_u64().ok_or("`started` entries must be bot ids")?;
        started.insert(bot);
    }
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

fn credits_from_value(v: &Value) -> Result<CreditSystem, SnapshotError> {
    let mut accounts = std::collections::BTreeMap::new();
    for entry in array_field(v, "accounts")? {
        let user = u64_field(entry, "user").map_err(decode_err)?;
        let balance = f64_field(entry, "balance").map_err(decode_err)?;
        if accounts.insert(user, balance).is_some() {
            return Err(decode_err(format!("duplicate account for user {user}")));
        }
    }
    let mut orders = std::collections::BTreeMap::new();
    for entry in array_field(v, "orders")? {
        let bot = u64_field(entry, "bot").map_err(decode_err)?;
        let order = Order {
            user: crate::UserId(u64_field(entry, "user").map_err(decode_err)?),
            provisioned: f64_field(entry, "provisioned").map_err(decode_err)?,
            spent: f64_field(entry, "spent").map_err(decode_err)?,
            closed: bool_field(entry, "closed")?,
        };
        if orders.insert(bot, order).is_some() {
            return Err(decode_err(format!("duplicate order for bot {bot}")));
        }
    }
    Ok(CreditSystem { accounts, orders })
}

fn write_favor_map(
    w: &mut Writer<'_>,
    field_name: &'static str,
    map: &HashMap<u64, f64>,
) -> Result<(), SnapshotError> {
    w.begin_array();
    for user in sorted_keys(map) {
        w.begin_object().key("user").num(user as f64);
        fin(w.key("cpu_hours"), field_name, map[&user])?;
        w.end_object();
    }
    w.end_array();
    Ok(())
}

fn favor_map_from_value(v: &[Value]) -> Result<HashMap<u64, f64>, SnapshotError> {
    let mut map = HashMap::new();
    for entry in v {
        let user = u64_field(entry, "user").map_err(decode_err)?;
        let hours = f64_field(entry, "cpu_hours").map_err(decode_err)?;
        if map.insert(user, hours).is_some() {
            return Err(decode_err(format!("duplicate favor entry for {user}")));
        }
    }
    Ok(map)
}

fn write_pool(w: &mut Writer<'_>, pool: &CloudPool) {
    w.begin_object()
        .key("capacity")
        .num(f64::from(pool.capacity));
    w.key("peak_in_use").num(f64::from(pool.peak_in_use));
    w.key("leases").begin_array();
    for bot in sorted_keys(&pool.leases) {
        w.begin_object().key("bot").num(bot as f64);
        w.key("workers").num(f64::from(pool.leases[&bot]));
        w.end_object();
    }
    w.end_array().end_object();
}

fn pool_from_value(v: &Value) -> Result<CloudPool, SnapshotError> {
    let capacity = u32_field(v, "capacity").map_err(decode_err)?;
    let peak_in_use = u32_field(v, "peak_in_use").map_err(decode_err)?;
    let mut leases = HashMap::new();
    for entry in array_field(v, "leases")? {
        let bot = u64_field(entry, "bot").map_err(decode_err)?;
        let workers = u32_field(entry, "workers").map_err(decode_err)?;
        if leases.insert(bot, workers).is_some() {
            return Err(decode_err(format!("duplicate lease for bot {bot}")));
        }
    }
    Ok(CloudPool {
        capacity,
        leases,
        peak_in_use,
    })
}

/// Writes the full state of `service` as one deterministic JSON object:
/// the one field list per type that [`encode_state_json`], [`encode_state`]
/// and the write-ahead log's snapshot files all come from. On an error
/// the writer's text is left unfinished and is to be discarded.
pub(crate) fn write_state(w: &mut Writer<'_>, service: &SpeQuloS) -> Result<(), SnapshotError> {
    w.begin_object().key("config").begin_object();
    w.key("tick").num(service.tick.as_millis() as f64);
    write_strategy(w.key("default_strategy"), &service.default_strategy);
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
    for bot in sorted_keys(&service.strategies) {
        w.begin_object().key("bot").num(bot as f64);
        write_strategy(w.key("strategy"), &service.strategies[&bot]);
        w.end_object();
    }
    w.end_array().key("users").begin_array();
    for bot in sorted_keys(&service.users) {
        w.begin_object().key("bot").num(bot as f64);
        w.key("user").num(service.users[&bot].0 as f64);
        w.end_object();
    }
    w.end_array().key("next_bot").num(service.next_bot as f64);
    w.key("log").begin_array();
    for (t, event) in &service.log {
        write_log_entry(w, *t, event);
    }
    w.end_array();
    match service.pool.as_ref() {
        Some(pool) => write_pool(w.key("pool"), pool),
        None => {
            w.key("pool").null();
        }
    }
    w.key("tenants").begin_array();
    for bot in sorted_keys(&service.tenants) {
        let m = &service.tenants[&bot];
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

/// [`encode_state_json`] as a document tree — what [`restore_state`]
/// takes.
pub fn encode_state(service: &SpeQuloS) -> Result<Value, SnapshotError> {
    json::parse(&encode_state_json(service)?).map_err(SnapshotError::Decode)
}

/// Restores a state value produced by [`encode_state`] into `template` —
/// a service assembled with the same builder configuration (tick,
/// default strategy, pool capacity, module types) as the snapshotted
/// one. Validates the recorded configuration and every field; on any
/// inconsistency the template is dropped and a typed error returned.
pub fn restore_state(mut template: SpeQuloS, state: &Value) -> Result<SpeQuloS, SnapshotError> {
    let config = field(state, "config")?;
    let tick = u64_field(config, "tick").map_err(decode_err)?;
    if tick != template.tick.as_millis() {
        return Err(SnapshotError::ConfigMismatch(format!(
            "snapshot tick {tick} ms vs template {} ms",
            template.tick.as_millis()
        )));
    }
    let default_strategy: StrategyCombo =
        strategy_from_value(field(config, "default_strategy")?).map_err(decode_err)?;
    if default_strategy != template.default_strategy {
        return Err(SnapshotError::ConfigMismatch(
            "snapshot default strategy differs from template".into(),
        ));
    }
    let pool_capacity = match field(config, "pool_capacity")? {
        Value::Null => None,
        v => Some(
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| decode_err("invalid `pool_capacity`"))?,
        ),
    };
    let bot_stride = match config.get("bot_stride") {
        None => 1,
        Some(v) => v
            .as_u64()
            .filter(|&s| s >= 1)
            .ok_or_else(|| decode_err("invalid `bot_stride`"))?,
    };
    if bot_stride != template.bot_stride {
        return Err(SnapshotError::ConfigMismatch(format!(
            "snapshot bot stride {bot_stride} vs template {}",
            template.bot_stride
        )));
    }
    let template_capacity = template.pool.as_ref().map(|p| p.capacity);
    // A shard's pool capacity is its PoolLedger quota, which the
    // rebalancer moves at runtime — so for sharded templates only the
    // pool's presence must match; the recorded quota is restored as-is.
    // Unsharded services keep the strict capacity check.
    let capacity_ok = if template.bot_stride != 1 {
        pool_capacity.is_some() == template_capacity.is_some()
    } else {
        pool_capacity == template_capacity
    };
    if !capacity_ok {
        return Err(SnapshotError::ConfigMismatch(format!(
            "snapshot pool capacity {pool_capacity:?} vs template {template_capacity:?}"
        )));
    }

    let credits = credits_from_value(field(state, "credits")?)?;
    let favors_value = field(state, "favors")?;
    let favors = FavorLedger {
        donated: favor_map_from_value(array_field(favors_value, "donated")?)?,
        consumed: favor_map_from_value(array_field(favors_value, "consumed")?)?,
    };
    let mut strategies = HashMap::new();
    for entry in array_field(state, "strategies")? {
        let bot = u64_field(entry, "bot").map_err(decode_err)?;
        let strategy = strategy_from_value(field(entry, "strategy")?).map_err(decode_err)?;
        if strategies.insert(bot, strategy).is_some() {
            return Err(decode_err(format!("duplicate strategy for bot {bot}")));
        }
    }
    let mut users = HashMap::new();
    for entry in array_field(state, "users")? {
        let bot = u64_field(entry, "bot").map_err(decode_err)?;
        let user = crate::UserId(u64_field(entry, "user").map_err(decode_err)?);
        if users.insert(bot, user).is_some() {
            return Err(decode_err(format!("duplicate user mapping for bot {bot}")));
        }
    }
    let next_bot = u64_field(state, "next_bot").map_err(decode_err)?;
    let mut log = Vec::new();
    for entry in array_field(state, "log")? {
        let t = entry_time(entry).map_err(decode_err)?;
        let event = log_event_from_value(entry).map_err(decode_err)?;
        log.push((t, event));
    }
    let pool = match field(state, "pool")? {
        Value::Null => None,
        v => Some(pool_from_value(v)?),
    };
    if pool.as_ref().map(|p| p.capacity) != pool_capacity {
        return Err(decode_err(
            "pool state capacity disagrees with recorded configuration",
        ));
    }
    let mut tenants = HashMap::new();
    for entry in array_field(state, "tenants")? {
        let bot = u64_field(entry, "bot").map_err(decode_err)?;
        let metrics = TenantMetrics {
            requested: u64_field(entry, "requested").map_err(decode_err)?,
            granted: u64_field(entry, "granted").map_err(decode_err)?,
            denied: u64_field(entry, "denied").map_err(decode_err)?,
            throttled_ticks: u64_field(entry, "throttled_ticks").map_err(decode_err)?,
        };
        if tenants.insert(bot, metrics).is_some() {
            return Err(decode_err(format!("duplicate tenant metrics for {bot}")));
        }
    }

    template
        .info
        .restore_state(field(state, "info")?)
        .map_err(|e| decode_err(format!("info module: {e}")))?;
    template
        .oracle
        .restore_state(field(state, "oracle")?)
        .map_err(|e| decode_err(format!("oracle module: {e}")))?;
    template
        .scheduler
        .restore_state(field(state, "scheduler")?)
        .map_err(|e| decode_err(format!("scheduler module: {e}")))?;

    template.credits = credits;
    template.favors = favors;
    template.strategies = strategies;
    template.users = users;
    template.next_bot = next_bot;
    template.log = log;
    template.pool = pool;
    template.tenants = tenants;
    Ok(template)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Request, SpqService};
    use crate::UserId;
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
        let encoded = encode_state(&service).expect("encode");
        let text = encoded.to_json();
        // Truncations and bit flips must never panic the decoder.
        for cut in [0, 1, text.len() / 2, text.len() - 1] {
            let template = SpeQuloS::builder()
                .pool(2)
                .tick(SimDuration::from_mins(1))
                .build();
            // A parse error is fine; a parsed-but-mangled value must
            // come back as a typed restore error, never a panic.
            if let Ok(v) = simcore::json::parse(&text[..cut]) {
                let _ = restore_state(template, &v);
            }
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
