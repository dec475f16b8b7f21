//! On-disk compatibility of the durable path: `tests/fixtures/wal_pr20/`
//! holds a write-ahead log, the snapshot taken two thirds of the way in
//! and the recovered state, all written by the commit *before* WAL
//! records and snapshots moved onto `simcore::json`'s streaming writer
//! (PR 21). Both directions are pinned byte for byte:
//!
//! * today's code, serving the same session, writes the same `wal.log`
//!   and the same snapshot — a record is still the session-entry JSON
//!   behind `len | crc32`, a snapshot still the `Value` tree's text;
//! * today's code, opening those files, recovers — from the snapshot
//!   plus the log's tail, and from the log alone — the very state the
//!   old code recovered.
//!
//! A PR that changes the record or snapshot format on purpose replaces
//! the fixture and says so; one that changes it by accident fails here.

use botwork::BotId;
use simcore::{SimDuration, SimTime};
use spequlos::protocol::{Request, SpqService};
use spequlos::wal::{FsyncPolicy, WalStore, WAL_FILE};
use spequlos::{
    encode_state_json, BotProgress, DeployMode, Provisioning, SpeQuloS, StrategyCombo, Trigger,
    UserId,
};
use std::path::{Path, PathBuf};

const SNAPSHOT_AFTER: usize = 16;
const SNAPSHOT_FILE: &str = "snap-16.json";
const STATE_FILE: &str = "recovered_state.json";

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wal_pr20")
}

fn template() -> SpeQuloS {
    SpeQuloS::builder()
        .pool(4)
        .tick(SimDuration::from_mins(1))
        .build()
}

/// Every request kind, both strategy arms, a batch, an error path, and
/// strings and numbers that exercise the writer's escapes and formats.
fn session() -> Vec<(SimTime, Request)> {
    let progress = |secs: u64, completed: u32, cloud_running: u32| BotProgress {
        now: SimTime::from_secs(secs),
        size: 40,
        completed,
        dispatched: 40,
        queued: 0,
        running: 40 - completed,
        cloud_running,
    };
    let at = SimTime::from_secs;
    let mut session = vec![
        (
            at(0),
            Request::Deposit {
                user: UserId(1),
                credits: 1000.5,
            },
        ),
        (
            at(0),
            Request::Deposit {
                user: UserId(1 << 60),
                credits: 0.1 + 0.2,
            },
        ),
        (
            at(1),
            Request::RegisterQos {
                user: UserId(1),
                env: "seti/XWHEP/\"BIG\"\t⊕ 😀\u{1}".into(),
                size: 40,
            },
        ),
        (
            at(1),
            Request::RegisterQos {
                user: UserId(1 << 60),
                env: "g5klyo\\BOINC/SMALL".into(),
                size: 40,
            },
        ),
        (
            at(2),
            Request::OrderQos {
                bot: BotId(0),
                credits: 150.0,
                strategy: Some(StrategyCombo {
                    trigger: Trigger::CompletionThreshold(0.5),
                    provisioning: Provisioning::Greedy,
                    deployment: DeployMode::Reschedule,
                }),
            },
        ),
        (
            at(2),
            Request::OrderQos {
                bot: BotId(1),
                credits: 0.25,
                strategy: None,
            },
        ),
        // Refused (insufficient credits) — logged all the same.
        (
            at(2),
            Request::OrderQos {
                bot: BotId(1),
                credits: 1e9,
                strategy: Some(StrategyCombo::paper_default()),
            },
        ),
    ];
    for minute in 1..=12u64 {
        let done = (minute * 3) as u32;
        session.push((
            at(minute * 60),
            Request::Batch(vec![
                Request::ReportProgress {
                    bot: BotId(0),
                    progress: progress(minute * 60, done, (minute % 3) as u32),
                },
                Request::ReportProgress {
                    bot: BotId(1),
                    progress: progress(minute * 60, done / 2, 0),
                },
            ]),
        ));
        if minute % 4 == 0 {
            session.push((at(minute * 60 + 1), Request::Predict { bot: BotId(0) }));
        }
    }
    session.push((at(800), Request::Complete { bot: BotId(0) }));
    session.push((at(801), Request::Predict { bot: BotId(7) }));
    session
}

/// Serves the session durably in `dir`, snapshotting on the way.
fn serve(dir: &Path) -> SpeQuloS {
    let (mut store, _) = WalStore::open(dir, FsyncPolicy::Never).expect("open");
    let mut service = template();
    for (i, (t, request)) in session().into_iter().enumerate() {
        store.append(t, &request).expect("append");
        service.handle(request, t);
        if i + 1 == SNAPSHOT_AFTER {
            store.snapshot(&service).expect("snapshot");
        }
    }
    service
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spq-wal-compat-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read(path: PathBuf) -> Vec<u8> {
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn todays_code_writes_the_bytes_the_fixture_holds() {
    let dir = scratch("write");
    let service = serve(&dir);
    assert!(session().len() > SNAPSHOT_AFTER + 4, "a tail to replay");
    for file in [WAL_FILE, SNAPSHOT_FILE] {
        assert!(
            read(dir.join(file)) == read(fixture().join(file)),
            "{file} differs from the bytes written before PR 21"
        );
    }
    assert_eq!(
        encode_state_json(&service).expect("encodes").into_bytes(),
        read(fixture().join(STATE_FILE)),
        "served state"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_fixture_recovers_to_the_state_its_writer_recovered() {
    let expected = read(fixture().join(STATE_FILE));
    for with_snapshot in [true, false] {
        let dir = scratch(if with_snapshot { "snap" } else { "log" });
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::copy(fixture().join(WAL_FILE), dir.join(WAL_FILE)).expect("copy log");
        if with_snapshot {
            std::fs::copy(fixture().join(SNAPSHOT_FILE), dir.join(SNAPSHOT_FILE)).expect("copy");
        }
        let (_, recovery) = WalStore::open(&dir, FsyncPolicy::Never).expect("open");
        assert_eq!(recovery.records(), &session()[..], "the log decodes");
        let (service, report) = recovery.recover(template()).expect("recovers");
        let applied = if with_snapshot { SNAPSHOT_AFTER } else { 0 } as u64;
        assert_eq!(report.snapshot_applied, applied);
        assert_eq!(report.replayed, session().len() as u64 - applied);
        assert_eq!(
            encode_state_json(&service).expect("encodes").into_bytes(),
            expected,
            "recovered state (snapshot: {with_snapshot})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
