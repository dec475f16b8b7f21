//! # spq-harness — experiment harness for the SpeQuloS reproduction
//!
//! Composes the substrates (traces, workloads, middleware, clouds) and the
//! SpeQuloS service into runnable scenarios, mirroring the paper's
//! evaluation methodology (§4.1): seed-paired executions with and without
//! SpeQuloS, parallel sweeps over the (trace × middleware × BoT class ×
//! strategy) space, prediction-quality scoring, and the EDGI composite
//! deployment of §5.
//!
//! Every run mode goes through one [`Experiment`] builder:
//!
//! ```
//! use betrace::Preset;
//! use botwork::BotClass;
//! use spq_harness::{Experiment, MwKind, Scenario};
//! use spequlos::StrategyCombo;
//!
//! let mut sc = Scenario::new(Preset::G5kLyon, MwKind::Xwhep, BotClass::Big, 7)
//!     .with_strategy(StrategyCombo::paper_default());
//! sc.scale = 0.3; // shrink the cluster for a quick run
//! let paired = Experiment::new(sc).paired().run_paired();
//! assert!(paired.baseline.completed && paired.speq.completed);
//! ```
//!
//! The service side of every run speaks the wire protocol
//! ([`spequlos::protocol`]) through the hooks in [`runner`], so an
//! experiment can also run end-to-end over loopback TCP
//! (`Experiment::new(sc).loopback()`, served by `spq-server`) or against
//! any `&mut dyn SpqService` ([`Experiment::service_dyn`]) — with results
//! bit-identical to the in-process transport.
//!
//! The pre-builder free functions (`run_baseline`, `run_with_spequlos`,
//! `run_paired`, `run_multi_tenant`) completed their deprecation cycle
//! and were removed; see the README's migration note for the one-line
//! mapping onto [`Experiment`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod edgi;
pub mod experiment;
pub mod prediction;
pub mod report;
pub mod routed;
pub mod runner;
pub mod scenario;
pub mod sweep;

pub use edgi::{run_edgi, EdgiReport};
pub use experiment::{Experiment, Outcome, Transport};
pub use prediction::{archive_of, prediction_outcomes, prediction_success_rate};
pub use report::{pct, secs, write_file, Table};
pub use routed::RoutedService;
pub use runner::{
    bot_of, ExecutionMetrics, MultiTenantReport, PairedRun, SessionRecorder, SessionSink, Shared,
    SharedSpqHook, SpqHook, TenantOutcome,
};
pub use scenario::{deployment_of, MultiTenantScenario, MwKind, Scenario, TenantArrivals};
pub use sweep::parallel_map;
