//! Durable snapshots of the full service state.
//!
//! A snapshot is a deterministic JSON encoding of everything a
//! [`SpeQuloS`] instance knows — credit accounts and orders, the favor
//! ledger, QoS registrations, the event log, pool occupancy, tenant
//! counters, and the internal state of the Information, Oracle and
//! Scheduler modules. Each type it stores is declared once, below, as a
//! field list (`stored!`, from [`crate::protocol`]'s codec): the writer
//! on the shared [`simcore::json`] writer and the reader on its pull
//! reader, which builds no document tree, both come from that one list.
//! Only `config` is written by hand. The write-ahead log
//! ([`crate::wal`]) persists a snapshot once the log's tail outweighs
//! the last one; recovery restores the newest valid snapshot into a
//! freshly assembled template service and replays only the log tail
//! through [`crate::protocol::SpqService::handle`].
//!
//! Determinism rules:
//!
//! * every map — SipHash, [`simcore::IdMap`] or B-tree — is an array of
//!   entries sorted by key: map iteration order must never leak into the
//!   bytes;
//! * floats go through the shortest-round-trip formatter (`fmt_f64`),
//!   so `encode → decode → encode` is bit-identical;
//! * every stored float that is not finite is a typed
//!   [`SnapshotError::NonFinite`] at encode time (the JSON writer would
//!   emit an unrestorable `null`).
//!
//! Decoding reads members in any order, the first of a repeated name,
//! and skips unknown ones; a missing or ill-typed member and a repeated
//! map key are a typed [`SnapshotError::Decode`] naming them.
//!
//! Restoration is *template-based*: the scheduling policy is a trait
//! object ([`crate::SchedulingPolicy`]), which cannot be rebuilt from
//! bytes alone, so [`restore_state_json`] takes a service assembled with
//! the **same builder configuration** (tick, default strategy, pool
//! capacity, scheduling policy) as the one that was snapshotted,
//! validates the recorded configuration against it, and replaces its
//! state. A mismatch — a snapshot of the other shipped policy, or of a
//! `GreedyUntilTc` with another target, included — is a typed [`SnapshotError::ConfigMismatch`], never a silently
//! diverging service.

use crate::credit::{CreditSystem, FavorLedger, Order};
use crate::info::{ArchivedExecution, BotRecord, Information};
use crate::oracle::{Oracle, StrategyCombo, VarianceState};
use crate::protocol::codec::{first, read_members, stored, Stored};
use crate::scheduler::{BotSchedState, GreedyUntilTc, Scheduler};
use crate::service::SpeQuloS;
use crate::tenancy::{CloudPool, TenantMetrics};
use simcore::json::{self, Reader, Token, Value, Writer};

/// Snapshot format version; bumped on incompatible layout changes.
pub const SNAPSHOT_FORMAT: u64 = 1;

/// Why a snapshot could not be taken or restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// A state field holds a non-finite float the JSON encoding cannot
    /// round-trip (e.g. an account balance driven to infinity); names the
    /// member that holds it.
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

// ---------------------------------------------------------------------------
// The stored types, one field list each
// ---------------------------------------------------------------------------

stored! {
    SpeQuloS in place {
        credits,
        favors,
        strategies = Paired("bot", "strategy", "duplicate strategy for bot {}"),
        users = Paired("bot", "user", "duplicate user mapping for bot {}"),
        next_bot,
        log,
        pool,
        tenants = Keyed("bot", "duplicate tenant metrics for {}"),
        info = Module,
        oracle = Module,
    } policy scheduler
}

stored! {
    CreditSystem {
        accounts = Paired("user", "balance", "duplicate account for user {}"),
        orders = Keyed("bot", "duplicate order for bot {}"),
    }
}
stored! { Order { user, provisioned, spent, closed = Flag } }
stored! {
    FavorLedger {
        donated = Paired("user", "cpu_hours", "duplicate favor entry for {}"),
        consumed = Paired("user", "cpu_hours", "duplicate favor entry for {}"),
    }
}

stored! {
    CloudPool {
        capacity,
        peak_in_use,
        leases = Paired("bot", "workers", "duplicate lease for bot {}"),
    }
}
stored! { TenantMetrics { requested, granted, denied, throttled_ticks } }

stored! {
    Information {
        live = Keyed("bot", "duplicate live record for bot {}"),
        archive = Paired("env", "executions", "duplicate archive env `{}`"),
    }
}
stored! {
    BotRecord { env, size, submitted_at, completed, dispatched, queued, completion = Nullable }
}
stored! { ArchivedExecution { size, completion, completed } }

stored! { Oracle module "oracle" { variance = Keyed("bot", "duplicate variance state for bot {}") } }
stored! { VarianceState { max_first_half } }

stored! {
    Scheduler module "scheduler" {
        allow_topup,
        state = Keyed("bot", "duplicate scheduler state for bot {}"),
    }
}
stored! { BotSchedState { cloud_started } }
stored! { GreedyUntilTc module "greedy_until_tc" { target, started } }

// ---------------------------------------------------------------------------
// The configuration, by hand, and the state
// ---------------------------------------------------------------------------

/// Writes `config`, the builder configuration a restore template must
/// match. By hand: `bot_stride` is written only for sharded services, so
/// every pre-sharding snapshot keeps its bytes, and reading it is judged
/// against the template ([`read_state`]).
fn write_config(w: &mut Writer<'_>, service: &SpeQuloS) -> Result<(), SnapshotError> {
    w.begin_object()
        .key("tick")
        .num(service.tick.as_millis() as f64);
    let default_strategy = w.key("default_strategy");
    service
        .default_strategy
        .store(default_strategy, "default_strategy")?;
    match service.pool.as_ref() {
        Some(pool) => w.key("pool_capacity").num(f64::from(pool.capacity)),
        None => w.key("pool_capacity").null(),
    };
    if service.bot_stride != 1 {
        w.key("bot_stride").num(service.bot_stride as f64);
    }
    w.end_object();
    Ok(())
}

/// Writes the full state of `service` as one deterministic JSON object:
/// the one field list per type that [`encode_state_json`], [`encode_state`]
/// and the write-ahead log's snapshot files all come from. On an error
/// the writer's text is left unfinished and is to be discarded.
pub(crate) fn write_state(w: &mut Writer<'_>, service: &SpeQuloS) -> Result<(), SnapshotError> {
    write_config(w.begin_object().key("config"), service)?;
    service.store_members(w)?;
    w.end_object();
    Ok(())
}

/// Restores what [`write_state`] wrote, at the value `r` stands at, into
/// `service`: its scheduling policy restores itself as its member is
/// read, the rest is judged once the object is closed — the recorded
/// configuration first — and the Information module then shares each
/// completed series with its archived execution again. On an error
/// `service` is left half restored and is to be discarded.
fn read_state(r: &mut Reader<'_>, service: &mut SpeQuloS) -> Result<(), SnapshotError> {
    let template_capacity = service.pool.as_ref().map(|p| p.capacity);
    let mut config = None;
    let state = service.restore_members(r, &mut |key, r| {
        key == "config"
            && first(&mut config, || {
                let mut default_strategy = None;
                let keys = ["tick", "pool_capacity", "bot_stride"];
                let m = read_members(r, keys, |key, r| {
                    key == "default_strategy"
                        && first(&mut default_strategy, || StrategyCombo::load(r, key))
                });
                (m, default_strategy)
            })
    });

    let (config, default_strategy) = config.ok_or_else(|| "missing `config`".to_string())?;
    let tick = config.u64("tick")?;
    if tick != service.tick.as_millis() {
        return Err(SnapshotError::ConfigMismatch(format!(
            "snapshot tick {tick} ms vs template {} ms",
            service.tick.as_millis()
        )));
    }
    let default_strategy =
        default_strategy.unwrap_or_else(|| StrategyCombo::absent("default_strategy"))?;
    if default_strategy != service.default_strategy {
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

    state?;
    if service.pool.as_ref().map(|p| p.capacity) != pool_capacity {
        let msg = "pool state capacity disagrees with recorded configuration";
        return Err(msg.to_string().into());
    }
    service.info.share_completed_series();
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
/// (tick, default strategy, pool capacity, scheduling policy) as the
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
    use crate::oracle::Trigger;
    use crate::protocol::{Request, Response, SpqService};
    use crate::UserId;
    use botwork::BotId;
    use simcore::{SimDuration, SimTime};
    use std::sync::Arc;

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

    /// Whether BoT `bot`'s live completed series is its archived one.
    fn shares_series(spq: &SpeQuloS, bot: u64) -> bool {
        let rec = spq.info().record(BotId(bot)).expect("registered");
        (spq.info().history(&rec.env).iter())
            .any(|exec| Arc::ptr_eq(&exec.completed, &rec.completed))
    }

    fn template() -> SpeQuloS {
        SpeQuloS::builder()
            .pool(2)
            .tick(SimDuration::from_mins(1))
            .build()
    }

    #[test]
    fn restore_shares_each_completed_series_again() {
        let mut service = exercised_service();
        // BoT 1 completes, then reports once more: its live series no
        // longer is the archived one.
        let now = SimTime::from_mins(32);
        service.handle(Request::Complete { bot: BotId(1) }, now);
        let progress = crate::BotProgress {
            now,
            size: 10,
            completed: 10,
            dispatched: 10,
            queued: 0,
            running: 0,
            cloud_running: 0,
        };
        let report = Request::ReportProgress {
            bot: BotId(1),
            progress,
        };
        assert!(!matches!(service.handle(report, now), Response::Error(_)));
        assert!(shares_series(&service, 0) && !shares_series(&service, 1));

        let text = encode_state_json(&service).expect("encode");
        let restored = restore_state_json(template(), &text).expect("restore");
        assert!(shares_series(&restored, 0), "equal series share again");
        assert!(
            !shares_series(&restored, 1),
            "a later sample keeps them apart"
        );
        let archived = &restored.info().history("env-1")[0].completed;
        assert_eq!(
            archived.len() + 1,
            restored.info().record(BotId(1)).unwrap().completed.len()
        );
        assert_eq!(encode_state_json(&restored).expect("re-encode"), text);
    }

    #[test]
    fn restore_keeps_a_signed_zero_apart() {
        // BoT 0's archived series, its first point `-0.0` instead of `0.0`:
        // equal under `==`, different bits, so not shared after a restore,
        // and each written back as it was.
        let mut service = exercised_service();
        let mut info = Information::new();
        info.register(BotId(0), "env", 10, SimTime::ZERO);
        for (t, done) in [(0, 0), (60, 10)] {
            let progress = crate::BotProgress {
                now: SimTime::from_secs(t),
                size: 10,
                completed: done,
                dispatched: 10,
                queued: 0,
                running: 10 - done,
                cloud_running: 0,
            };
            info.sample(BotId(0), &progress);
        }
        info.mark_complete(BotId(0), SimTime::from_secs(60));
        let exec = &mut info.archive.get_mut("env").expect("archived")[0];
        let mut signed = simcore::TimeSeries::new();
        signed.push(SimTime::ZERO, -0.0);
        signed.push(SimTime::from_secs(60), 10.0);
        exec.completed = Arc::new(signed);
        service.info = info;

        let text = encode_state_json(&service).expect("encode");
        assert!(
            text.contains("[0.0,-0.0]") && text.contains("[0.0,0.0]"),
            "{text}"
        );
        let restored = restore_state_json(template(), &text).expect("restore");
        assert!(!shares_series(&restored, 0));
        assert_eq!(encode_state_json(&restored).expect("re-encode"), text);
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
    fn non_finite_floats_fail_typed() {
        // Every float a snapshot stores, set non-finite one at a time:
        // the snapshot must refuse, naming the member that holds it,
        // rather than emit an unrestorable `null`.
        type Poison = fn(&mut SpeQuloS);
        let cases: [(&str, Poison); 9] = [
            ("balance", |spq| {
                // Two maximal deposits overflow the balance to infinity.
                for _ in 0..2 {
                    let deposit = Request::Deposit {
                        user: UserId(1),
                        credits: f64::MAX,
                    };
                    spq.handle(deposit, SimTime::ZERO);
                }
            }),
            ("provisioned", |spq| {
                let orders = spq.credits.orders.values_mut();
                orders.for_each(|o| o.provisioned = f64::NAN);
            }),
            ("spent", |spq| {
                let orders = spq.credits.orders.values_mut();
                orders.for_each(|o| o.spent = f64::INFINITY);
            }),
            ("cpu_hours", |spq| {
                _ = spq.favors.donated.insert(7, f64::NAN)
            }),
            ("cpu_hours", |spq| {
                _ = spq.favors.consumed.insert(7, f64::NEG_INFINITY);
            }),
            ("strategy", |spq| {
                let fraction = f64::INFINITY;
                let strategies = spq.strategies.values_mut();
                strategies.for_each(|s| s.trigger = Trigger::RateDrop { fraction });
            }),
            ("default_strategy", |spq| {
                spq.default_strategy.trigger = Trigger::CompletionThreshold(f64::NAN);
            }),
            ("max_first_half", |spq| {
                let state = VarianceState {
                    max_first_half: f64::NAN,
                };
                let variance = [(0, state)].into_iter().collect();
                spq.oracle.variance = variance;
            }),
            ("completed", |spq| {
                let mut info = Information::new();
                info.register(BotId(0), "env", 10, SimTime::ZERO);
                if let Some(record) = info.live.get_mut(&0) {
                    Arc::make_mut(&mut record.completed).push(SimTime::ZERO, f64::INFINITY);
                }
                spq.info = info;
            }),
        ];
        for (name, poison) in cases {
            let mut spq = exercised_service();
            assert!(encode_state_json(&spq).is_ok(), "{name}");
            poison(&mut spq);
            assert_eq!(encode_state_json(&spq), Err(SnapshotError::NonFinite(name)));
        }
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
