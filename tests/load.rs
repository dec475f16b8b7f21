//! Open-loop load generator integration: the full `spq-load` path —
//! arrival plan → loopback `spq-server` → latency histogram → telemetry
//! record — end to end, plus the determinism and telemetry-schema pins
//! the CI gate relies on. Latency *values* are deliberately never
//! pinned (they depend on the machine); the pins cover the schedule,
//! the accounting identities, and the JSON schema.

use spequlos::SpeQuloS;
use spq_bench::loadgen::{self, ArrivalPlan, ArrivalSpec};
use spq_bench::telemetry::{compare, LatencyTelemetry, Telemetry};
use spq_harness::workload::{RequestKind, RequestMix};
use spq_server::Server;

fn mix() -> RequestMix {
    RequestMix::from_weights(&[
        (RequestKind::ReportProgress, 88),
        (RequestKind::Predict, 4),
        (RequestKind::Deposit, 3),
        (RequestKind::RegisterQos, 2),
        (RequestKind::OrderQos, 2),
        (RequestKind::Complete, 1),
    ])
}

#[test]
fn identical_seeds_produce_identical_arrival_plans() {
    let spec = ArrivalSpec {
        rate: 750.0,
        connections: 3,
        warmup_secs: 0.25,
        measured_secs: 1.5,
        seed: 1234,
    };
    let a = ArrivalPlan::generate(spec, &mix());
    let b = ArrivalPlan::generate(spec, &mix());
    assert_eq!(a, b, "same seed must reproduce the schedule bit for bit");
    assert!(
        (a.offered_rate() - 750.0).abs() / 750.0 < 0.01,
        "offered rate {} strays from the 750/s target",
        a.offered_rate()
    );
    let c = ArrivalPlan::generate(ArrivalSpec { seed: 1235, ..spec }, &mix());
    assert_ne!(a, c, "a different seed must produce a different schedule");
}

#[test]
fn open_loop_run_against_a_live_server_accounts_for_every_request() {
    let handle = Server::spawn_loopback(SpeQuloS::new()).expect("bind loopback");
    let plan = ArrivalPlan::generate(
        ArrivalSpec {
            rate: 300.0,
            connections: 2,
            warmup_secs: 0.1,
            measured_secs: 0.6,
            seed: 99,
        },
        &mix(),
    );
    let report = loadgen::run(handle.addr(), &plan).expect("load run");
    // The accounting identities the telemetry schema promises.
    assert_eq!(report.sent, plan.len() as u64);
    assert_eq!(report.answered, report.ok + report.errors);
    assert_eq!(report.sent, report.answered + report.timeouts);
    assert_eq!(report.hist.count(), plan.measured_len() as u64);
    assert_eq!(report.errors, 0, "priming must make every request valid");
    assert_eq!(report.timeouts, 0, "loopback at 300/s must not time out");
    // Quantiles are monotone and bounded by the observed maximum.
    assert!(report.p50_ms() <= report.p95_ms());
    assert!(report.p95_ms() <= report.p99_ms());
    assert!(report.p99_ms() <= report.p999_ms());
    assert!(report.p999_ms() <= report.max_ms() + 1e-9);
    drop(handle.into_service());
}

#[test]
fn load_report_feeds_the_telemetry_gate() {
    // A LoadReport → LatencyTelemetry → JSON → compare round trip: the
    // path CI takes from a run to a verdict, without pinning latencies.
    let handle = Server::spawn_loopback(SpeQuloS::new()).expect("bind loopback");
    let plan = ArrivalPlan::generate(
        ArrivalSpec {
            rate: 200.0,
            connections: 1,
            warmup_secs: 0.05,
            measured_secs: 0.4,
            seed: 5,
        },
        &mix(),
    );
    let report = loadgen::run(handle.addr(), &plan).expect("load run");
    drop(handle.into_service());

    let record = Telemetry {
        name: "repro_load".into(),
        git_sha: "test".into(),
        wall_secs: report.elapsed_secs,
        events: Some(report.sent),
        events_per_sec: Some(report.sent as f64 / report.elapsed_secs.max(1e-9)),
        peak_rss_bytes: 0,
        metrics: Vec::new(),
        latency: Some(LatencyTelemetry {
            p50_ms: report.p50_ms(),
            p95_ms: report.p95_ms(),
            p99_ms: report.p99_ms(),
            p999_ms: report.p999_ms(),
            max_ms: report.max_ms(),
            requests: report.sent,
            errors: report.errors,
            timeouts: report.timeouts,
            offered_rate: report.offered_rate,
            achieved_rate: report.achieved_rate,
            max_sustained_rate: Some(report.offered_rate),
            slo_p99_ms: 50.0,
        }),
        config: vec![("rate".into(), "200".into())],
    };
    let parsed = Telemetry::from_json(&record.to_json()).expect("schema round trip");
    assert_eq!(parsed, record);
    // A record never regresses against itself.
    let outcome = compare(&record, &parsed, 0.25);
    assert!(!outcome.regressed, "{}", outcome.report);
}
