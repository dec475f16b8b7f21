//! # simcore — deterministic discrete-event simulation kernel
//!
//! The substrate under the whole SpeQuloS reproduction (HPDC 2012,
//! Delamare et al.): a minimal, allocation-conscious discrete-event engine
//! with a totally ordered event queue, integer-millisecond simulation time,
//! a version-stable seeded PRNG with the distribution samplers the paper's
//! workloads need, and the statistics containers used to calibrate traces
//! and report results.
//!
//! Design requirements inherited from the paper's methodology (§4.1.3):
//!
//! * **Bit-level reproducibility** — "using the same seed value allows a
//!   fair comparison between a BoT execution where SpeQuloS is used and the
//!   same execution without SpeQuloS". Everything here is deterministic:
//!   the queue breaks timestamp ties by insertion order and the PRNG is a
//!   fixed xoshiro256++ implementation with named sub-streams.
//! * **Throughput** — the evaluation campaign simulates >25 000 BoT
//!   executions; the kernel keeps per-event cost to a constant-time
//!   radix-heap push, a pop that never touches far-future events, and the
//!   world's handler.
//!
//! ## Example
//!
//! ```
//! use simcore::{Control, EventQueue, SimDuration, SimTime, World, run};
//!
//! struct Ping(u32);
//! impl World for Ping {
//!     type Event = ();
//!     fn handle(&mut self, _: SimTime, _: (), q: &mut EventQueue<()>) -> Control {
//!         if self.0 == 0 { return Control::Stop; }
//!         self.0 -= 1;
//!         q.schedule_after(SimDuration::from_secs(60), ());
//!         Control::Continue
//!     }
//! }
//!
//! let mut world = Ping(10);
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::ZERO, ());
//! let stats = run(&mut world, &mut queue, None);
//! assert_eq!(stats.end_time, SimTime::from_secs(600));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod idmap;
pub mod json;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use engine::{
    run, run_interleaved, run_interleaved_each, run_interleaved_each_reusing, Control,
    InterleaveScratch, RunOutcome, RunStats, World,
};
pub use event::EventQueue;
pub use idmap::{IdMap, IdSet};
pub use rng::Prng;
pub use series::TimeSeries;
pub use stats::{mean, quantile_sorted, Cdf, Histogram, OnlineStats, Quartiles};
pub use time::{SimDuration, SimTime};
