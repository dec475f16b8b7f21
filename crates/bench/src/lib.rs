//! # spq-bench — reproduction harness for every table and figure
//!
//! `repro_all [name …]` writes the paper's tables, figures and the
//! ablations into `results/`; [`experiments::REPORTS`] is the name table.
//! `repro_protocol` and `repro_multitenant` are the two measurements
//! `benchmark/` cannot host (BENCHMARKS.md), and `spq-bench` compares
//! their `BENCH_*.json` records.
//!
//! All binaries accept `--seeds N --scale F --threads N --out DIR --full`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod grid;
pub mod opts;
pub mod telemetry;

pub use grid::{all_envs, baseline_metrics, baseline_scenarios, paired_metrics, strategy_sweep};
pub use opts::Opts;
pub use telemetry::Telemetry;
