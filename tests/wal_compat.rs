//! On-disk compatibility of the durable path, in both directions.
//!
//! `tests/fixtures/wal_pr20/` holds a write-ahead log, the snapshot taken
//! two thirds of the way in and the recovered state, all written by the
//! commit *before* WAL records and snapshots moved onto `simcore::json`'s
//! streaming writer (PR 21). Its records are JSON session entries, the
//! format every log had before records became binary; it is the **read**
//! pin. Today's code, opening those files, recovers — from the snapshot
//! plus the log's tail, and from the log alone — the very state the old
//! code recovered, and a log of that format grows in today's format
//! behind its old records and still recovers.
//!
//! `tests/fixtures/wal_bin/wal.log` is the same session in today's binary
//! records; it is the **write** pin. Today's code, serving that session,
//! writes that log and PR 20's snapshot byte for byte.
//!
//! A PR that changes the record or snapshot format on purpose replaces
//! the write pin and says so; one that changes it by accident fails here.

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

/// The log today's code writes for [`session`].
fn binary_log() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wal_bin/wal.log")
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
    assert!(
        read(dir.join(WAL_FILE)) == read(binary_log()),
        "{WAL_FILE} differs from the binary records of tests/fixtures/wal_bin"
    );
    assert!(
        read(dir.join(SNAPSHOT_FILE)) == read(fixture().join(SNAPSHOT_FILE)),
        "{SNAPSHOT_FILE} differs from the bytes written before PR 21"
    );
    assert_eq!(
        encode_state_json(&service).expect("encodes").into_bytes(),
        read(fixture().join(STATE_FILE)),
        "served state"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scratch WAL directory holding `log` and, if asked, PR 20's snapshot.
fn copied(tag: &str, log: &Path, with_snapshot: bool) -> PathBuf {
    let dir = scratch(tag);
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::copy(log, dir.join(WAL_FILE)).expect("copy log");
    if with_snapshot {
        std::fs::copy(fixture().join(SNAPSHOT_FILE), dir.join(SNAPSHOT_FILE)).expect("copy");
    }
    dir
}

/// Recovers each fixture log, with and without PR 20's snapshot, to the
/// state PR 20 recovered.
fn recovers_to_the_fixture_state(log: &Path, tag: &str) {
    let expected = read(fixture().join(STATE_FILE));
    for with_snapshot in [true, false] {
        let dir = copied(&format!("{tag}-{with_snapshot}"), log, with_snapshot);
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

#[test]
fn the_fixture_recovers_to_the_state_its_writer_recovered() {
    recovers_to_the_fixture_state(&fixture().join(WAL_FILE), "log");
}

#[test]
fn the_binary_fixture_recovers_to_the_same_state() {
    recovers_to_the_fixture_state(&binary_log(), "bin");
}

/// What a server restarted on PR 20's directory goes on to serve: more
/// of the same BoTs, a new one, and requests whose floats JSON cannot
/// carry.
fn continuation() -> Vec<(SimTime, Request)> {
    let at = SimTime::from_secs;
    vec![
        (
            at(900),
            Request::Deposit {
                user: UserId(1),
                credits: f64::NAN,
            },
        ),
        (
            at(900),
            Request::Deposit {
                user: UserId(2),
                credits: 75.5,
            },
        ),
        (
            at(901),
            Request::RegisterQos {
                user: UserId(2),
                env: "g5klyo/BOINC/SMALL".into(),
                size: 10,
            },
        ),
        (
            at(902),
            Request::OrderQos {
                bot: BotId(2),
                credits: f64::INFINITY,
                strategy: None,
            },
        ),
        (
            at(902),
            Request::OrderQos {
                bot: BotId(2),
                credits: 20.0,
                strategy: Some(StrategyCombo::paper_default()),
            },
        ),
        (
            at(960),
            Request::ReportProgress {
                bot: BotId(1),
                progress: BotProgress {
                    now: at(960),
                    size: 40,
                    completed: 30,
                    dispatched: 40,
                    queued: 0,
                    running: 10,
                    cloud_running: 0,
                },
            },
        ),
        (at(961), Request::Predict { bot: BotId(1) }),
        (at(962), Request::Complete { bot: BotId(1) }),
    ]
}

#[test]
fn a_pr20_log_grows_in_binary_and_recovers_the_whole_session() {
    let whole: Vec<(SimTime, Request)> = session().into_iter().chain(continuation()).collect();
    let mut served = template();
    for (t, request) in whole.clone() {
        served.handle(request, t);
    }
    let expected = encode_state_json(&served).expect("encodes");
    for with_snapshot in [true, false] {
        let dir = copied(
            &format!("mixed-{with_snapshot}"),
            &fixture().join(WAL_FILE),
            with_snapshot,
        );
        {
            let (mut store, recovery) = WalStore::open(&dir, FsyncPolicy::Never).expect("open");
            assert_eq!(recovery.records(), &session()[..]);
            for (t, request) in &continuation() {
                store.append(*t, request).expect("append");
            }
        }
        let log = read(dir.join(WAL_FILE));
        let old = read(fixture().join(WAL_FILE));
        assert!(log.starts_with(&old), "the old records stay as they were");
        let (_, recovery) = WalStore::open(&dir, FsyncPolicy::Never).expect("reopen");
        assert_eq!(recovery.records().len(), whole.len());
        let (service, report) = recovery.recover(template()).expect("recovers");
        let applied = if with_snapshot { SNAPSHOT_AFTER } else { 0 } as u64;
        assert_eq!(report.snapshot_applied, applied);
        assert_eq!(
            encode_state_json(&service).expect("encodes"),
            expected,
            "mixed-format recovery (snapshot: {with_snapshot})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
