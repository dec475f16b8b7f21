//! Session-transcript-to-workload extraction for the open-loop load
//! generator.
//!
//! The paper's deployed SpeQuloS (§5) served a *request stream* — months
//! of `registerQoS` / `orderQoS` / monitoring / billing traffic from real
//! BoT users — and the load generator (`spq-bench::loadgen`) must offer
//! the server a mix that looks like that stream, not a synthetic
//! single-kind hammer. This module turns any recorded protocol session
//! into such a mix:
//!
//! 1. [`Experiment::record_into`](crate::Experiment::record_into) (or a
//!    [`SessionRecorder`](crate::SessionRecorder) around any endpoint)
//!    records every request, with its service time, as it passes through
//!    — run a normal harness experiment and the transcript falls out, in
//!    exactly the `Vec<(SimTime, Request)>` shape
//!    [`spequlos::protocol::encode_session`] understands.
//! 2. [`RequestMix::from_session`] reduces a transcript to per-kind
//!    frequencies (batches are flattened — a pipelined tick of N reports
//!    counts as N `report_progress` requests, which is what the server's
//!    dispatch loop actually serves).
//! 3. [`RequestMix::sample`] draws request kinds from those frequencies
//!    deterministically (seeded [`Prng`]), so a load generator driven by
//!    the same seed offers bit-identical request schedules run after run.
//!
//! The mix is plain data that serializes into bench telemetry config.

use simcore::{Prng, SimTime};
use spequlos::protocol::Request;

/// The request kinds of the SpeQuloS protocol, in wire-tag order.
///
/// `Batch` is deliberately absent: a batch is a *framing* construct, not
/// a workload kind — [`RequestMix::from_session`] flattens batches into
/// their constituent requests before counting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// `deposit` — administrator credit policy.
    Deposit,
    /// `register_qos` — BoT registration.
    RegisterQos,
    /// `order_qos` — credit provisioning for a BoT.
    OrderQos,
    /// `predict` — completion-time prediction query.
    Predict,
    /// `report_progress` — one monitoring tick.
    ReportProgress,
    /// `complete` — completion, billing, `pay`.
    Complete,
}

/// All kinds, in the canonical order used by [`RequestMix`] weights.
pub const REQUEST_KINDS: [RequestKind; 6] = [
    RequestKind::Deposit,
    RequestKind::RegisterQos,
    RequestKind::OrderQos,
    RequestKind::Predict,
    RequestKind::ReportProgress,
    RequestKind::Complete,
];

impl RequestKind {
    /// The kind of a concrete request (`None` for [`Request::Batch`] —
    /// flatten it first).
    pub fn of(request: &Request) -> Option<RequestKind> {
        Some(match request {
            Request::Deposit { .. } => RequestKind::Deposit,
            Request::RegisterQos { .. } => RequestKind::RegisterQos,
            Request::OrderQos { .. } => RequestKind::OrderQos,
            Request::Predict { .. } => RequestKind::Predict,
            Request::ReportProgress { .. } => RequestKind::ReportProgress,
            Request::Complete { .. } => RequestKind::Complete,
            Request::Batch(_) => return None,
        })
    }

    /// The wire tag, matching [`Request::kind`].
    pub fn tag(self) -> &'static str {
        match self {
            RequestKind::Deposit => "deposit",
            RequestKind::RegisterQos => "register_qos",
            RequestKind::OrderQos => "order_qos",
            RequestKind::Predict => "predict",
            RequestKind::ReportProgress => "report_progress",
            RequestKind::Complete => "complete",
        }
    }

    fn index(self) -> usize {
        REQUEST_KINDS.iter().position(|k| *k == self).expect("kind")
    }
}

/// Per-kind request frequencies extracted from a recorded session
/// transcript; the workload model the open-loop load generator samples
/// from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestMix {
    counts: [u64; REQUEST_KINDS.len()],
}

impl RequestMix {
    /// An empty mix (sampling panics; fill it first).
    pub fn empty() -> Self {
        RequestMix {
            counts: [0; REQUEST_KINDS.len()],
        }
    }

    /// Counts request kinds over a recorded session transcript,
    /// flattening batches (nested batches are protocol-invalid and are
    /// skipped rather than counted).
    pub fn from_session(session: &[(SimTime, Request)]) -> Self {
        let mut mix = RequestMix::empty();
        for (_, request) in session {
            match request {
                Request::Batch(items) => {
                    for item in items {
                        if let Some(kind) = RequestKind::of(item) {
                            mix.counts[kind.index()] += 1;
                        }
                    }
                }
                other => {
                    let kind = RequestKind::of(other).expect("non-batch request has a kind");
                    mix.counts[kind.index()] += 1;
                }
            }
        }
        mix
    }

    /// Builds a mix from explicit `(kind, weight)` pairs (weights of the
    /// same kind accumulate).
    pub fn from_weights(weights: &[(RequestKind, u64)]) -> Self {
        let mut mix = RequestMix::empty();
        for &(kind, w) in weights {
            mix.counts[kind.index()] += w;
        }
        mix
    }

    /// Occurrences of `kind` in the recorded session.
    pub fn count(&self, kind: RequestKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total requests counted.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The fraction of the mix that is `kind` (0 for an empty mix).
    pub fn share(&self, kind: RequestKind) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(kind) as f64 / total as f64
        }
    }

    /// Draws a request kind with probability proportional to its recorded
    /// frequency. Deterministic in the RNG state: the same seeded
    /// [`Prng`] yields the same kind sequence.
    ///
    /// # Panics
    /// Panics on an empty mix — there is nothing to sample.
    pub fn sample(&self, rng: &mut Prng) -> RequestKind {
        let total = self.total();
        assert!(total > 0, "cannot sample an empty RequestMix");
        let mut ticket = rng.below(total);
        for kind in REQUEST_KINDS {
            let c = self.count(kind);
            if ticket < c {
                return kind;
            }
            ticket -= c;
        }
        unreachable!("ticket < total is covered by the cumulative walk")
    }

    /// One-line human-readable summary, e.g.
    /// `report_progress 92.1% predict 3.4% …` (kinds with zero share are
    /// omitted). Stable formatting, so it can ride in telemetry config.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for kind in REQUEST_KINDS {
            let share = self.share(kind);
            if share > 0.0 {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(&format!("{} {:.1}%", kind.tag(), share * 100.0));
            }
        }
        if out.is_empty() {
            out.push_str("(empty)");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Experiment, MwKind, Scenario, SessionSink};
    use betrace::Preset;
    use botwork::{BotClass, BotId};
    use spequlos::{StrategyCombo, UserId};

    fn sample_session() -> Vec<(SimTime, Request)> {
        vec![
            (
                SimTime::ZERO,
                Request::Deposit {
                    user: UserId(1),
                    credits: 10.0,
                },
            ),
            (
                SimTime::ZERO,
                Request::Batch(vec![
                    Request::Predict { bot: BotId(0) },
                    Request::ReportProgress {
                        bot: BotId(0),
                        progress: spequlos::BotProgress {
                            now: SimTime::ZERO,
                            size: 10,
                            completed: 1,
                            dispatched: 10,
                            queued: 0,
                            running: 9,
                            cloud_running: 0,
                        },
                    },
                ]),
            ),
            (SimTime::from_secs(60), Request::Complete { bot: BotId(0) }),
        ]
    }

    #[test]
    fn mix_counts_kinds_and_flattens_batches() {
        let mix = RequestMix::from_session(&sample_session());
        assert_eq!(mix.count(RequestKind::Deposit), 1);
        assert_eq!(mix.count(RequestKind::Predict), 1);
        assert_eq!(mix.count(RequestKind::ReportProgress), 1);
        assert_eq!(mix.count(RequestKind::Complete), 1);
        assert_eq!(mix.count(RequestKind::RegisterQos), 0);
        assert_eq!(mix.total(), 4);
        assert!((mix.share(RequestKind::Deposit) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sampling_is_deterministic_and_respects_support() {
        let mix = RequestMix::from_weights(&[
            (RequestKind::ReportProgress, 90),
            (RequestKind::Predict, 10),
        ]);
        let draw = |seed: u64| -> Vec<RequestKind> {
            let mut rng = Prng::seed_from(seed);
            (0..500).map(|_| mix.sample(&mut rng)).collect()
        };
        assert_eq!(draw(7), draw(7), "same seed, same kind sequence");
        let kinds = draw(7);
        assert!(kinds
            .iter()
            .all(|k| matches!(k, RequestKind::ReportProgress | RequestKind::Predict)));
        let reports = kinds
            .iter()
            .filter(|k| **k == RequestKind::ReportProgress)
            .count();
        // 90% nominal; leave wide room for small-sample noise.
        assert!((400..=490).contains(&reports), "reports {reports}");
    }

    #[test]
    fn empty_mix_describes_but_does_not_sample() {
        let mix = RequestMix::empty();
        assert_eq!(mix.total(), 0);
        assert_eq!(mix.describe(), "(empty)");
    }

    #[test]
    fn recorder_captures_a_real_experiment_session() {
        let mut sc = Scenario::new(Preset::G5kLyon, MwKind::Xwhep, BotClass::Big, 11)
            .with_strategy(StrategyCombo::paper_default());
        sc.scale = 0.5;
        let sink = SessionSink::default();
        let (metrics, _) = Experiment::new(sc).record_into(sink.clone()).run_qos();
        assert!(metrics.completed);
        let session = sink.lock().expect("sink").clone();
        let mix = RequestMix::from_session(&session);
        // The Fig. 3 session shape: exactly one deposit / registration /
        // order / completion, a monitoring report per tick in between.
        assert_eq!(mix.count(RequestKind::Deposit), 1);
        assert_eq!(mix.count(RequestKind::RegisterQos), 1);
        assert_eq!(mix.count(RequestKind::OrderQos), 1);
        assert_eq!(mix.count(RequestKind::Complete), 1);
        assert!(mix.count(RequestKind::ReportProgress) > 10);
        assert!(
            mix.share(RequestKind::ReportProgress) > 0.8,
            "monitoring dominates a real session: {}",
            mix.describe()
        );
        // The transcript round-trips through the protocol encoding.
        let text = spequlos::protocol::encode_session(&session);
        let decoded = spequlos::protocol::decode_session(&text).expect("decodes");
        assert_eq!(decoded, session);
    }
}
