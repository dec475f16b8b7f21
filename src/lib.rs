//! # spequlos-repro — umbrella crate for the SpeQuloS reproduction
//!
//! Re-exports every crate of the workspace so the examples and
//! integration tests (and downstream users who want the whole stack) can
//! depend on a single package. See the individual crates for the real
//! APIs:
//!
//! * [`spequlos`] — the paper's contribution: the QoS service itself;
//! * [`spq_server`] — the wire deployment: framed TCP transport serving
//!   the protocol, plus the `RemoteService` client;
//! * [`spq_bench`] — `repro_all`'s report table
//!   (`spq_bench::experiments::REPORTS`) and perf telemetry;
//! * [`dgrid`] — BOINC / XtremWeb-HEP middleware simulators;
//! * [`betrace`] — BE-DCI availability trace generators (Table 2);
//! * [`botwork`] — Bag-of-Tasks workloads (Table 3);
//! * [`unicloud`] — IaaS cloud simulator (libcloud counterpart);
//! * [`simcore`] — deterministic discrete-event kernel;
//! * [`spq_harness`] — scenario runner, paired executions, sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use betrace;
pub use botwork;
pub use dgrid;
pub use simcore;
pub use spequlos;
pub use spq_bench;
pub use spq_harness;
pub use spq_server;
pub use unicloud;
