//! # betrace — Best-Effort DCI availability traces
//!
//! The infrastructure substrate of the SpeQuloS reproduction: per-node
//! availability timelines for the three BE-DCI families the paper studies
//! (§2.1) — desktop grids, best-effort grid queues and cloud spot
//! instances — calibrated to the statistics the paper publishes in
//! Table 2.
//!
//! The original trace files (Failure Trace Archive, Grid'5000 Gantt charts,
//! EC2 2011 price history) are not redistributable; DESIGN.md §3 documents
//! the substitution. The load-bearing property — churn statistics that
//! produce the paper's tail effect — is preserved and auditable via
//! [`stats::measure`] and `repro_all table2`.
//!
//! ```
//! use betrace::{Preset, SimTime};
//!
//! // Build a 10%-scale SETI@home-like desktop grid from seed 42.
//! let dci = Preset::Seti.spec().build(42, 0.1);
//! assert!(dci.node_count() > 1000);
//! // Each node has an availability timeline and a power.
//! let mut tl = dci.timelines[0].clone();
//! let first_toggle = tl.next_toggle().unwrap();
//! assert!(first_toggle > SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod fta;
pub mod power;
pub mod quantfit;
pub mod renewal;
pub mod spot;
pub mod stats;
pub mod timeline;

pub use catalog::{Dci, DciKind, Preset, TraceModel, TraceSpec};
pub use power::PowerModel;
pub use quantfit::{DurationSampler, QuartileSpec};
pub use renewal::RenewalSampler;
pub use simcore::{SimDuration, SimTime};
pub use spot::{BidLadder, MarketParams, PricePath, SpotTimeline};
pub use stats::{measure, measure_spec, TraceStats};
pub use timeline::NodeTimeline;
