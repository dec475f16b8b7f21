//! Reproducibility guarantees: the paper's methodology replays the same
//! seed with and without SpeQuloS for fair comparison (§4.1.3). These
//! tests pin that property across the whole stack.

use betrace::Preset;
use botwork::BotClass;
use simcore::SimDuration;
use spequlos::snapshot::encode_state_json;
use spequlos::wal::{FsyncPolicy, RecoveryReport, WalStore};
use spequlos::{SpeQuloS, StrategyCombo};
use spq_harness::{Experiment, MwKind, Scenario, SessionSink, TenantArrivals};

fn scenario(seed: u64) -> Scenario {
    let mut sc = Scenario::new(Preset::G5kLyon, MwKind::Xwhep, BotClass::Big, seed);
    sc.scale = 0.4;
    sc
}

#[test]
fn baseline_runs_are_bit_identical() {
    let a = Experiment::new(scenario(11)).run_baseline();
    let b = Experiment::new(scenario(11)).run_baseline();
    assert_eq!(a.completion_secs, b.completion_secs);
    assert_eq!(a.events, b.events);
    assert_eq!(a.completed_series.points(), b.completed_series.points());
}

#[test]
fn spequlos_runs_are_bit_identical() {
    let sc = scenario(12).with_strategy(StrategyCombo::paper_default());
    let (a, _) = Experiment::new(sc.clone()).run_qos();
    let (b, _) = Experiment::new(sc).run_qos();
    assert_eq!(a.completion_secs, b.completion_secs);
    assert_eq!(a.credits_spent, b.credits_spent);
    assert_eq!(a.cloud, b.cloud);
    assert_eq!(a.events, b.events);
}

#[test]
fn same_seed_matrix_is_bit_identical() {
    // Bit-identical replay must hold across infrastructures and
    // middlewares, not just the default configuration: 2 presets × 2
    // middlewares, each paired run repeated with the same seed.
    for preset in [Preset::G5kLyon, Preset::NotreDame] {
        for mw in [MwKind::Xwhep, MwKind::Boinc] {
            let mut sc = Scenario::new(preset, mw, BotClass::Big, 31)
                .with_strategy(StrategyCombo::paper_default());
            sc.scale = 0.4;
            let a = Experiment::new(sc.clone()).paired().run_paired();
            let b = Experiment::new(sc).paired().run_paired();
            let ctx = format!("{preset:?}/{mw:?}");
            assert_eq!(
                a.baseline.completion_secs, b.baseline.completion_secs,
                "{ctx} baseline"
            );
            assert_eq!(
                a.baseline.events, b.baseline.events,
                "{ctx} baseline events"
            );
            assert_eq!(a.speq.completion_secs, b.speq.completion_secs, "{ctx} speq");
            assert_eq!(a.speq.events, b.speq.events, "{ctx} speq events");
            assert_eq!(a.speq.credits_spent, b.speq.credits_spent, "{ctx} credits");
            assert_eq!(a.speq.cloud, b.speq.cloud, "{ctx} cloud usage");
            assert_eq!(
                a.speq.completed_series.points(),
                b.speq.completed_series.points(),
                "{ctx} progress curve"
            );
        }
    }
}

#[test]
fn single_tenant_runs_match_pre_multitenant_golden_output() {
    // Golden values captured from the tree *before* the multi-tenant
    // service layer landed (PR 2): the pool-less code path must remain
    // bit-identical — same completion second, same event count, same
    // credits billed, same fleet size. If an intentional change to the
    // single-tenant semantics ever invalidates these, re-capture them and
    // say so in the PR.
    struct Golden {
        preset: Preset,
        mw: MwKind,
        baseline: (f64, u64),
        speq: (f64, u64, f64, u32),
    }
    let goldens = [
        Golden {
            preset: Preset::G5kLyon,
            mw: MwKind::Xwhep,
            baseline: (7724.372, 23_729),
            speq: (5765.857, 23_143, 62.5, 50),
        },
        Golden {
            preset: Preset::NotreDame,
            mw: MwKind::Boinc,
            baseline: (24_331.737, 40_507),
            speq: (22_669.979, 40_515, 175.0, 50),
        },
    ];
    for g in goldens {
        let mut sc = Scenario::new(g.preset, g.mw, BotClass::Big, 2024);
        sc.scale = 0.4;
        let b = Experiment::new(sc.clone()).run_baseline();
        let ctx = format!("{:?}/{:?}", g.preset, g.mw);
        assert_eq!(b.completion_secs, g.baseline.0, "{ctx} baseline time");
        assert_eq!(b.events, g.baseline.1, "{ctx} baseline events");
        let sc = sc.with_strategy(StrategyCombo::paper_default());
        let (s, _) = Experiment::new(sc).run_qos();
        assert_eq!(s.completion_secs, g.speq.0, "{ctx} speq time");
        assert_eq!(s.events, g.speq.1, "{ctx} speq events");
        assert_eq!(s.credits_spent, g.speq.2, "{ctx} credits");
        assert_eq!(s.cloud.workers_started, g.speq.3, "{ctx} fleet size");
    }
}

#[test]
fn wal_replay_of_the_multitenant_golden_is_bit_identical() {
    // The write-ahead log's whole durability argument is "the service is
    // deterministic, so replaying the request transcript rebuilds the
    // state". This leg proves it at full scale on the multi-tenant golden
    // (seed 1, scale 1.0, 32 tenants over a 16-worker pool, tail-heavy
    // arrivals — pinned here and, as `sim_multitenant`'s seed-1 cluster 0,
    // in benchmark/src/sim.rs): record every protocol request the run
    // makes, feed the transcript through an on-disk WAL (append → reopen →
    // recover), and require the recovered service to encode
    // byte-identically to the directly-run one — from the log alone, and
    // again from a snapshot of the whole log.
    let mut sc = Scenario::new(Preset::G5kLyon, MwKind::Xwhep, BotClass::Big, 1)
        .with_strategy(StrategyCombo::paper_default());
    sc.scale = 1.0;
    let tick = sc.tick;
    let sink = SessionSink::default();
    let report = Experiment::new(sc)
        .tenants(32)
        .pool(16)
        .arrivals(TenantArrivals::TailHeavy {
            window: SimDuration::from_hours(2),
        })
        .record_into(sink.clone())
        .run_multi_tenant();
    // Any drift in the simulation itself shows up here before it shows
    // up as a perf diff.
    assert_eq!(report.events, 869_375, "multi-tenant golden event count");
    let direct = encode_state_json(&report.service).expect("direct state encodes");

    let transcript = std::mem::take(
        &mut *sink
            .lock()
            .expect("no other thread holds the transcript sink"),
    );
    assert_eq!(
        transcript.len(),
        2_010,
        "recorded protocol transcript length (update alongside the event golden)"
    );

    let dir = std::env::temp_dir().join(format!("spq-determinism-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let (mut wal, recovery) = WalStore::open(&dir, FsyncPolicy::Never).expect("open fresh wal");
        assert!(recovery.records().is_empty());
        for (t, request) in &transcript {
            wal.append(*t, request).expect("append");
        }
    }
    let template = || SpeQuloS::builder().pool(16).tick(tick).build();
    let (mut wal, recovery) = WalStore::open(&dir, FsyncPolicy::Never).expect("reopen wal");
    let (recovered, recovery_report) = recovery.recover(template()).expect("recover");
    assert_eq!(recovery_report.replayed, transcript.len() as u64);
    assert_eq!(
        encode_state_json(&recovered).expect("recovered state encodes"),
        direct,
        "WAL append-then-replay diverged from the directly-run service"
    );

    // Snapshot restore at the same scale: nothing left to replay, same bytes.
    wal.snapshot(&recovered)
        .expect("snapshot the recovered state");
    drop(wal);
    let (_, recovery) = WalStore::open(&dir, FsyncPolicy::Never).expect("reopen after snapshot");
    let (restored, recovery_report) = recovery.recover(template()).expect("restore");
    assert_eq!(
        recovery_report,
        RecoveryReport {
            snapshot_applied: 2_010,
            replayed: 0,
            truncated_bytes: 0,
            snapshots_discarded: 0,
        }
    );
    assert_eq!(
        encode_state_json(&restored).expect("restored state encodes"),
        direct,
        "snapshot restore diverged from the directly-run service"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn different_seeds_differ() {
    let a = Experiment::new(scenario(13)).run_baseline();
    let b = Experiment::new(scenario(14)).run_baseline();
    assert_ne!(a.completion_secs, b.completion_secs);
}

#[test]
fn boinc_is_deterministic_too() {
    let mut sc = Scenario::new(Preset::NotreDame, MwKind::Boinc, BotClass::Big, 15);
    sc.scale = 1.0;
    let a = Experiment::new(sc.clone()).run_baseline();
    let b = Experiment::new(sc).run_baseline();
    assert_eq!(a.completion_secs, b.completion_secs);
    assert_eq!(a.events, b.events);
}

#[test]
fn paired_runs_share_infrastructure_behaviour() {
    // The baseline and the SpeQuloS run must see identical BE-DCI
    // behaviour before the cloud trigger: their completion curves agree
    // at 25%, 50% and 75% (the 9C trigger fires at 90%).
    for seed in [21, 22, 23] {
        let sc = scenario(seed).with_strategy(StrategyCombo::paper_default());
        let p = Experiment::new(sc).paired().run_paired();
        for frac in [0.25, 0.5, 0.75] {
            let b = p.baseline.tc(frac);
            let s = p.speq.tc(frac);
            assert_eq!(b, s, "seed {seed}: tc({frac}) diverged before the trigger");
        }
    }
}

#[test]
fn trace_generation_is_stable_across_calls() {
    // Regenerating the same preset from the same seed yields the same
    // infrastructure — required for paired runs and for reproducing the
    // published tables from a seed.
    for preset in Preset::ALL {
        let a = preset.spec().build(99, 0.2);
        let b = preset.spec().build(99, 0.2);
        assert_eq!(a.powers, b.powers, "{}", preset.spec().name);
        let horizon = betrace::SimTime::from_hours(12);
        for i in [0usize, a.node_count() / 2] {
            assert_eq!(
                a.timelines[i].clone().up_intervals(horizon),
                b.timelines[i].clone().up_intervals(horizon),
                "{} node {i}",
                preset.spec().name
            );
        }
    }
}
