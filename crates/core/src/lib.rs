//! # spequlos — QoS service for Bag-of-Tasks on best-effort infrastructures
//!
//! Rust implementation of **SpeQuloS** (Delamare, Fedak, Kondo,
//! Lodygensky — HPDC 2012): a service that enhances the QoS of BoT
//! applications executed on Best-Effort Distributed Computing
//! Infrastructures by monitoring BoT progress, predicting completion
//! times, and dynamically provisioning stable cloud workers to execute the
//! *tail* — the last fraction of the BoT that otherwise dominates the
//! makespan (§2.2).
//!
//! The crate mirrors the paper's module decomposition (§3.1, Fig. 3):
//!
//! * [`info`] — **Information**: per-BoT progress history and the archive
//!   predictions learn from;
//! * [`credit`] — **Credit System**: banking-like accounting of cloud
//!   usage (15 credits per CPU·hour);
//! * [`oracle`] — **Oracle**: completion-time prediction
//!   (`tp = α·tc(r)/r`) and the cloud provisioning strategies of §3.5
//!   (9C/9A/D triggers × Greedy/Conservative sizing × Flat/Reschedule/
//!   Cloud-Duplication deployment);
//! * [`scheduler`] — **Scheduler**: the monitoring loops of
//!   Algorithms 1–2;
//! * [`service`] — the assembled multi-BoT service façade;
//! * [`tenancy`] — shared cloud-worker pool: admission control and
//!   credit-proportional fair-share arbitration across concurrent tenants;
//! * [`metrics`] — tail-effect metrics (slowdown, Tail Removal
//!   Efficiency) used by the evaluation.
//!
//! The service is deliberately middleware-agnostic: it consumes only
//! [`BotProgress`] snapshots and emits only start/stop-cloud-workers
//! commands, so the same code drives BOINC, XtremWeb-HEP, or anything
//! else that can report four counters a minute.
//!
//! ```
//! use botwork::BotId;
//! use simcore::SimTime;
//! use spequlos::{BotProgress, CloudAction, SpeQuloS, StrategyCombo, UserId};
//!
//! let mut spq = SpeQuloS::new();
//! let user = UserId(7);
//! spq.credits.deposit(user, 500.0);
//! let bot = spq.register_qos("g5klyo/XWHEP/BIG", 1000, user, SimTime::ZERO);
//! spq.order_qos(bot, 150.0, StrategyCombo::paper_default(), SimTime::ZERO).unwrap();
//! // ... each minute, feed progress and apply the returned action ...
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod credit;
pub mod info;
pub mod metrics;
pub mod oracle;
pub mod progress;
pub mod protocol;
pub mod scheduler;
pub mod service;
pub mod snapshot;
pub mod tenancy;
pub mod wal;

pub use credit::{
    CreditError, CreditSystem, DepositPolicy, FavorLedger, UserId, CREDITS_PER_CPU_HOUR,
};
pub use info::{ArchivedExecution, BotRecord, Information};
pub use metrics::{
    ideal_time, speedup, tail_removal_efficiency, tail_slowdown, tail_stats, TailStats,
    IDEAL_FRACTION,
};
pub use oracle::{
    learn_alpha, prediction_successful, DeployMode, Oracle, Prediction, Provisioning,
    StrategyCombo, Trigger, PREDICTION_TOLERANCE,
};
pub use progress::BotProgress;
pub use protocol::{Request, RequestError, Response, SpqService};
pub use scheduler::{CloudAction, GreedyUntilTc, Scheduler, SchedulingPolicy};
pub use service::{LogEvent, SpeQuloS, SpeQuloSBuilder};
pub use snapshot::{encode_state, encode_state_json, restore_state, SnapshotError};
pub use tenancy::{
    route_request, shard_of_bot, shard_of_user, CloudPool, PoolLease, PoolLedger, TenantMetrics,
};
pub use wal::{FsyncPolicy, Recovery, RecoveryReport, WalError, WalStore};
