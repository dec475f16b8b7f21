//! Snapshot restore, pinned verdict by verdict: `tests/fixtures/
//! snapshot_verdicts.txt` holds what restoring each of a few thousand
//! deterministic mutations of two services' snapshot state came to —
//! `Ok(crc32 of the re-encoded state)`, `ConfigMismatch` or
//! `Decode(message)` — recorded from the document-tree decoder that
//! restored snapshots before the streaming one, which must agree with it
//! row for row. Each row is restored twice: from its text, and from a
//! write-ahead log directory whose newest snapshot it is, where an
//! undecodable state falls back to replaying the log and a configuration
//! mismatch is refused.
//!
//! The mutations, at every object of the state: members reversed, the
//! first member duplicated (the copy, with another value, in front),
//! each member dropped, each scalar member replaced by a string, `null`,
//! `-1` and `1.5`, and an unknown member added; at every array of
//! objects, the first entry duplicated; at every series, the first and
//! last points swapped.
//!
//! On a mismatch the rows this code produces are written to
//! `snapshot_verdicts.actual.txt` in the system temp directory, for a
//! `diff` against the fixture.

use botwork::BotId;
use simcore::json::{self, Value};
use simcore::{SimDuration, SimTime};
use spequlos::protocol::{Request, SpqService};
use spequlos::snapshot::{encode_state_json, restore_state_json, SnapshotError};
use spequlos::wal::{crc32, FsyncPolicy, WalError, WalStore};
use spequlos::{
    BotProgress, DeployMode, GreedyUntilTc, Provisioning, SpeQuloS, StrategyCombo, Trigger, UserId,
};
use std::path::{Path, PathBuf};

const FIXTURE: &str = "tests/fixtures/snapshot_verdicts.txt";

/// One of the two services the rows mutate: how to assemble its
/// template, the session that fills it, and what is set beside the
/// session.
struct Subject {
    name: &'static str,
    template: fn() -> SpeQuloS,
    session: fn() -> Vec<(SimTime, Request)>,
    extra: fn(&mut SpeQuloS),
}

fn pooled_template() -> SpeQuloS {
    SpeQuloS::builder()
        .pool(3)
        .tick(SimDuration::from_mins(1))
        .build()
}

fn progress(now: SimTime, size: u32, completed: u32, cloud_running: u32) -> BotProgress {
    BotProgress {
        now,
        size,
        completed,
        dispatched: size,
        queued: size - completed,
        running: 1,
        cloud_running,
    }
}

/// Three tenants on a two-worker pool — so arbitration throttles — with
/// the three trigger families, one completed BoT (archive, closed order,
/// `Paid`), a prediction that has history to learn from, and cloud
/// workers still leased at the end.
fn pooled_session() -> Vec<(SimTime, Request)> {
    let at = SimTime::from_mins;
    let mut session = Vec::new();
    for user in 0..3u64 {
        let deposit = Request::Deposit {
            user: UserId(user),
            credits: 400.0 + user as f64 / 4.0,
        };
        let register = Request::RegisterQos {
            user: UserId(user),
            env: format!("env-{}", user % 2),
            size: 12,
        };
        session.extend([(at(0), deposit), (at(0), register)]);
    }
    let strategies = [
        StrategyCombo::paper_default(),
        StrategyCombo {
            trigger: Trigger::ExecutionVariance,
            provisioning: Provisioning::Conservative,
            deployment: DeployMode::Reschedule,
        },
        StrategyCombo {
            trigger: Trigger::RateDrop { fraction: 0.5 },
            provisioning: Provisioning::Greedy,
            deployment: DeployMode::CloudDuplication,
        },
    ];
    for (bot, strategy) in strategies.into_iter().enumerate() {
        let order = Request::OrderQos {
            bot: BotId(bot as u64),
            credits: 150.0,
            strategy: Some(strategy),
        };
        session.push((at(0), order));
    }
    for tick in 1..=24u64 {
        for bot in 0..3u64 {
            let done = ((tick * 12) / 16).min(11) as u32;
            let report = Request::ReportProgress {
                bot: BotId(bot),
                progress: progress(at(tick), 12, done, u32::from(tick > 16) * 2),
            };
            session.push((at(tick), report));
        }
    }
    let finished = Request::ReportProgress {
        bot: BotId(0),
        progress: progress(at(25), 12, 12, 2),
    };
    session.push((at(25), finished));
    session.push((at(25), Request::Complete { bot: BotId(0) }));
    session.push((at(25), Request::Predict { bot: BotId(2) }));
    session
}

fn favors(service: &mut SpeQuloS) {
    service.favors.record_donation(UserId(1), 3.5);
}

fn greedy_template() -> SpeQuloS {
    SpeQuloS::builder()
        .policy(GreedyUntilTc::new(SimDuration::from_mins(10)))
        .build()
}

/// Two BoTs falling behind a ten-minute deadline, so the policy has
/// started fleets to remember.
fn greedy_session() -> Vec<(SimTime, Request)> {
    let at = SimTime::from_mins;
    let mut session = vec![(
        at(0),
        Request::Deposit {
            user: UserId(0),
            credits: 500.0,
        },
    )];
    for bot in 0..2u64 {
        let register = Request::RegisterQos {
            user: UserId(0),
            env: "greedy".into(),
            size: 20,
        };
        let order = Request::OrderQos {
            bot: BotId(bot),
            credits: 100.0,
            strategy: None,
        };
        session.extend([(at(0), register), (at(0), order)]);
    }
    for tick in 1..=12u64 {
        for bot in 0..2u64 {
            let report = Request::ReportProgress {
                bot: BotId(bot),
                progress: progress(at(tick), 20, (tick / 4) as u32, 0),
            };
            session.push((at(tick), report));
        }
    }
    session
}

const SUBJECTS: [Subject; 2] = [
    Subject {
        name: "pooled",
        template: pooled_template,
        session: pooled_session,
        extra: favors,
    },
    Subject {
        name: "greedy",
        template: greedy_template,
        session: greedy_session,
        extra: |_| {},
    },
];

fn served(subject: &Subject) -> SpeQuloS {
    let mut service = (subject.template)();
    for (t, request) in (subject.session)() {
        service.handle(request, t);
    }
    (subject.extra)(&mut service);
    service
}

// ---------------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Step {
    Member(usize),
    Item(usize),
}

fn node_mut<'v>(v: &'v mut Value, path: &[Step]) -> &'v mut Value {
    path.iter().fold(v, |v, step| match (v, step) {
        (Value::Obj(members), Step::Member(i)) => &mut members[*i].1,
        (Value::Arr(items), Step::Item(i)) => &mut items[*i],
        _ => unreachable!("paths are taken from the same tree"),
    })
}

/// Every object and array under `v`, with its path and its label.
fn containers(v: &Value, path: &mut Vec<Step>, label: String, out: &mut Vec<(Vec<Step>, String)>) {
    match v {
        Value::Obj(members) => {
            out.push((path.clone(), label.clone()));
            for (i, (key, child)) in members.iter().enumerate() {
                path.push(Step::Member(i));
                containers(child, path, format!("{label}.{key}"), out);
                path.pop();
            }
        }
        Value::Arr(items) => {
            out.push((path.clone(), label.clone()));
            for (i, child) in items.iter().enumerate() {
                path.push(Step::Item(i));
                containers(child, path, format!("{label}[{i}]"), out);
                path.pop();
            }
        }
        _ => {}
    }
}

/// A value of the same kind that differs from `v`.
fn other(v: &Value) -> Value {
    match v {
        Value::Null => Value::Num(0.0),
        Value::Bool(b) => Value::Bool(!b),
        Value::Num(n) => Value::Num(n + 1.0),
        Value::Str(s) => Value::Str(format!("{s}~")),
        Value::Arr(_) => Value::Arr(Vec::new()),
        Value::Obj(_) => Value::Obj(Vec::new()),
    }
}

/// What each scalar member is replaced by, and the row's name for it.
fn replacements() -> [(&'static str, Value); 4] {
    [
        ("str", Value::Str("s".into())),
        ("null", Value::Null),
        ("-1", Value::Num(-1.0)),
        ("1.5", Value::Num(1.5)),
    ]
}

/// Every mutation of `state`, labelled `<path> <mutation>`.
fn mutants(state: &Value) -> Vec<(String, Value)> {
    let mut nodes = Vec::new();
    containers(state, &mut Vec::new(), "$".into(), &mut nodes);
    let mut out = Vec::new();
    for (path, label) in nodes {
        let mut edit = |name: String, f: &dyn Fn(&mut Value)| {
            let mut doc = state.clone();
            f(node_mut(&mut doc, &path));
            out.push((format!("{label} {name}"), doc));
        };
        let mut copy = state.clone();
        match node_mut(&mut copy, &path) {
            Value::Obj(members) => {
                edit("reverse".into(), &|v| {
                    if let Value::Obj(m) = v {
                        m.reverse();
                    }
                });
                if let Some((key, value)) = members.first() {
                    let dup = (key.clone(), other(value));
                    edit(format!("dup-first:{key}"), &|v| {
                        if let Value::Obj(m) = v {
                            m.insert(0, dup.clone());
                        }
                    });
                }
                for (i, (key, value)) in members.iter().enumerate() {
                    edit(format!("drop:{key}"), &|v| {
                        if let Value::Obj(m) = v {
                            m.remove(i);
                        }
                    });
                    if matches!(value, Value::Obj(_) | Value::Arr(_)) {
                        continue;
                    }
                    for (name, replacement) in replacements() {
                        edit(format!("set:{key}={name}"), &|v| {
                            if let Value::Obj(m) = v {
                                m[i].1 = replacement.clone();
                            }
                        });
                    }
                }
                edit("unknown".into(), &|v| {
                    if let Value::Obj(m) = v {
                        m.push(("unknown".into(), Value::Num(1.0)));
                    }
                });
            }
            Value::Arr(items) => match items.first() {
                Some(Value::Obj(_)) => edit("dup-entry".into(), &|v| {
                    if let Value::Arr(a) = v {
                        a.insert(1, a[0].clone());
                    }
                }),
                Some(Value::Arr(_)) if items.len() >= 2 => edit("swap".into(), &|v| {
                    if let Value::Arr(a) = v {
                        let last = a.len() - 1;
                        a.swap(0, last);
                    }
                }),
                _ => {}
            },
            _ => unreachable!("only containers are collected"),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Verdicts
// ---------------------------------------------------------------------------

fn verdict(restored: Result<SpeQuloS, SnapshotError>) -> String {
    match restored {
        Ok(service) => {
            let text = encode_state_json(&service).expect("a restored state encodes");
            format!("Ok({:08x})", crc32(text.as_bytes()))
        }
        Err(SnapshotError::ConfigMismatch(_)) => "ConfigMismatch".into(),
        Err(SnapshotError::Decode(msg)) => format!("Decode({msg})"),
        Err(other) => panic!("restore cannot fail with {other:?}"),
    }
}

/// The verdict kind — `Decode` without its message — that recovering a
/// log directory whose newest snapshot holds `state` comes to.
fn recovered_verdict(dir: &Path, subject: &Subject, records: u64, state: &str) -> String {
    let snapshot = dir.join(format!("snap-{records}.json"));
    let text = format!("{{\"format\":1,\"applied\":{records},\"state\":{state}}}\n");
    std::fs::write(&snapshot, text).expect("write snapshot");
    let (_, recovery) = WalStore::open(dir, FsyncPolicy::Never).expect("open");
    assert_eq!(recovery.snapshot_applied(), Some(records), "parses at open");
    let verdict = match recovery.recover((subject.template)()) {
        Ok((service, report)) if report.snapshot_applied == records => {
            assert_eq!(report.replayed, 0);
            verdict(Ok(service))
        }
        Ok((_, report)) => {
            assert_eq!(
                (report.snapshot_applied, report.snapshots_discarded),
                (0, 1)
            );
            "Decode".into()
        }
        Err(WalError::Snapshot(SnapshotError::ConfigMismatch(_))) => "ConfigMismatch".into(),
        Err(other) => panic!("recovery cannot fail with {other:?}"),
    };
    std::fs::remove_file(&snapshot).expect("remove snapshot");
    verdict
}

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("spq-snapshot-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_mutation_restores_to_its_recorded_verdict() {
    let mut rows = String::new();
    for subject in &SUBJECTS {
        let state =
            json::parse(&encode_state_json(&served(subject)).expect("encodes")).expect("parses");
        let dir = scratch(subject.name);
        {
            let (mut store, _) = WalStore::open(&dir, FsyncPolicy::Never).expect("open");
            for (t, request) in (subject.session)() {
                store.stage(t, &request).expect("stage");
            }
            store.commit().expect("commit");
        }
        let records = (subject.session)().len() as u64;
        let mutants = mutants(&state);
        assert!(
            mutants.len() > 500,
            "{}: {} rows",
            subject.name,
            mutants.len()
        );
        for (label, doc) in mutants {
            let text = doc.to_json();
            let direct = verdict(restore_state_json((subject.template)(), &text));
            let kind = direct.split('(').next().unwrap_or_default();
            let on_disk = recovered_verdict(&dir, subject, records, &text);
            let expected_on_disk = if kind == "Decode" { kind } else { &direct };
            assert_eq!(on_disk, expected_on_disk, "{} {label}", subject.name);
            rows.push_str(&format!("{} {label} {direct}\n", subject.name));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    let expected = std::fs::read_to_string(&fixture).unwrap_or_default();
    if rows != expected {
        let actual = std::env::temp_dir().join("snapshot_verdicts.actual.txt");
        std::fs::write(&actual, &rows).expect("write actual rows");
        let first = rows
            .lines()
            .zip(expected.lines())
            .find(|(a, e)| a != e)
            .map(|(a, e)| format!("\n  now:      {a}\n  recorded: {e}"))
            .unwrap_or_default();
        panic!(
            "verdicts differ from {FIXTURE} ({} rows now, {} recorded); all rows in {}{first}",
            rows.lines().count(),
            expected.lines().count(),
            actual.display()
        );
    }
}
