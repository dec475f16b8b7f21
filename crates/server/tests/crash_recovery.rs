//! Crash-injection suite: `SIGKILL` the durable server mid-run, restart
//! it against the same WAL directory, and prove the recovered
//! billing/credit state is byte-identical to an uninterrupted golden run.
//!
//! The test drives the real `durable_server` binary as a subprocess over
//! TCP — the same deployment shape an operator runs — and kills it with
//! `SIGKILL` (never a graceful shutdown) at fixed acknowledgement counts
//! plus once at an arbitrary wall-clock moment mid-flood, in two legs.
//! The serial leg sends one request at a time, so after `k`
//! acknowledgements the log holds either `k` or `k+1` records (at most
//! one request was in flight). The pipelined leg keeps 32 in flight, so
//! the server commits them in groups and the kill lands inside one: the
//! log then holds every acknowledged request and no more than were sent
//! — `acked ≤ N ≤ sent` — and is an exact prefix of the workload. Either
//! way the suite reads the log to learn the exact count `N`, checks the
//! recovered state equals an in-process replay of the first `N` golden
//! requests, then finishes the remaining workload against the restarted
//! server and checks the final state equals the golden run — all
//! comparisons on the full deterministic snapshot encoding
//! ([`spequlos::snapshot::encode_state_json`]), so "equal" means every
//! account balance, order, favor, log line, lease and counter.

use simcore::{SimDuration, SimTime};
use spequlos::protocol::{Request, Response, SpqService};
use spequlos::snapshot::encode_state_json;
use spequlos::wal::{FsyncPolicy, WalStore};
use spequlos::{BotProgress, SpeQuloS, StrategyCombo, UserId};
use spq_server::RemoteService;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const POOL: u32 = 8;
const TICK_MS: u64 = 60_000;
const SNAPSHOT_EVERY: u64 = 50;
const USERS: u64 = 4;

/// The template every recovery validates against — must match the flags
/// [`spawn_server`] passes to the binary.
fn template() -> SpeQuloS {
    SpeQuloS::builder()
        .pool(POOL)
        .tick(SimDuration::from_millis(TICK_MS))
        .build()
}

/// The golden workload: a deterministic ~300-request mix of deposits,
/// registrations, QoS orders, seventy minutes of per-minute progress for
/// four BoTs (crossing the cloud-provisioning trigger, so billing and
/// pool leases are live), and completions with refunds.
fn golden_workload() -> Vec<(SimTime, Request)> {
    let mut requests = Vec::new();
    for user in 0..USERS {
        requests.push((
            SimTime::ZERO,
            Request::Deposit {
                user: UserId(user),
                credits: 400.0 + user as f64,
            },
        ));
        requests.push((
            SimTime::ZERO,
            Request::RegisterQos {
                user: UserId(user),
                env: format!("env-{}", user % 2),
                size: 20,
            },
        ));
    }
    for bot in 0..USERS {
        requests.push((
            SimTime::ZERO,
            Request::OrderQos {
                bot: botwork::BotId(bot),
                credits: 120.0 + bot as f64,
                strategy: Some(StrategyCombo::paper_default()),
            },
        ));
    }
    for tick in 1..=70u64 {
        let now = SimTime::from_mins(tick);
        for bot in 0..USERS {
            let done = ((tick * 20) / 70).min(20) as u32;
            requests.push((
                now,
                Request::ReportProgress {
                    bot: botwork::BotId(bot),
                    progress: BotProgress {
                        now,
                        size: 20,
                        completed: done.min(19),
                        dispatched: 20,
                        queued: 20 - done,
                        running: 2,
                        cloud_running: u32::from(tick > 63),
                    },
                },
            ));
        }
    }
    let end = SimTime::from_mins(71);
    for bot in 0..USERS {
        requests.push((
            end,
            Request::Predict {
                bot: botwork::BotId(bot),
            },
        ));
        requests.push((
            end,
            Request::Complete {
                bot: botwork::BotId(bot),
            },
        ));
    }
    requests
}

/// The uninterrupted run the recovered state must match, after `n`
/// requests (deterministic: same requests, same times, same code path).
fn golden_state_after(n: usize) -> String {
    let mut service = template();
    for (t, request) in &golden_workload()[..n] {
        service.handle(request.clone(), *t);
    }
    encode_state_json(&service).expect("golden state encodes")
}

struct ServerProc {
    child: Child,
    addr: SocketAddr,
}

fn spawn_server(dir: &Path) -> ServerProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_durable_server"))
        .args([
            "--dir",
            dir.to_str().expect("utf-8 dir"),
            "--pool",
            &POOL.to_string(),
            "--tick-ms",
            &TICK_MS.to_string(),
            "--snapshot-every",
            &SNAPSHOT_EVERY.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn durable_server");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read LISTENING line");
    let addr = line
        .strip_prefix("LISTENING ")
        .and_then(|a| a.trim().parse().ok())
        .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"));
    ServerProc { child, addr }
}

impl ServerProc {
    /// `SIGKILL` — no destructors, no flushes, nothing graceful.
    fn kill(mut self) {
        self.child.kill().expect("SIGKILL");
        self.child.wait().expect("reap");
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spq-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// How many records the WAL holds, without disturbing recovery (the
/// scan is read-validate only; reopening later is idempotent).
fn wal_record_count(dir: &Path) -> usize {
    let (_, recovery) = WalStore::open(dir, FsyncPolicy::Never).expect("wal readable after kill");
    recovery.records().len()
}

/// Kill after exactly `kill_after_acks` acknowledged requests, verify
/// the recovered state against the golden prefix, then finish the
/// workload on a restarted server and verify the final state.
fn crash_at(kill_after_acks: usize, tag: &str) {
    let dir = temp_dir(tag);
    let workload = golden_workload();
    assert!(kill_after_acks < workload.len(), "injection point in range");

    let server = spawn_server(&dir);
    let mut client = RemoteService::connect(server.addr).expect("connect");
    for (t, request) in &workload[..kill_after_acks] {
        let response = client.handle(request.clone(), *t);
        assert!(
            !matches!(
                response,
                Response::Error(spequlos::RequestError::Transport(_))
            ),
            "durability failure surfaced to client: {response:?}"
        );
    }
    drop(client);
    server.kill();

    // The log must hold exactly the acknowledged requests (the client
    // had none in flight when it stopped) — and recovery must rebuild
    // the exact state the golden run has after that many requests.
    let persisted = wal_record_count(&dir);
    assert_eq!(
        persisted, kill_after_acks,
        "every acknowledged request is durable, none invented"
    );
    {
        let (_, recovery) = WalStore::open(&dir, FsyncPolicy::Never).expect("reopen wal");
        let (recovered, report) = recovery.recover(template()).expect("recover");
        if kill_after_acks as u64 >= SNAPSHOT_EVERY {
            assert!(
                report.snapshot_applied > 0,
                "past the snapshot cadence, recovery must use a snapshot"
            );
        }
        assert_eq!(
            encode_state_json(&recovered).expect("recovered encodes"),
            golden_state_after(persisted),
            "recovered state diverges from the golden prefix"
        );
    }

    // Restart against the same directory, finish the workload, kill
    // again, and compare the final recovered state to the full golden
    // run — the crash must leave no trace in the billing state.
    let server = spawn_server(&dir);
    let mut client = RemoteService::connect(server.addr).expect("reconnect");
    for (t, request) in &workload[persisted..] {
        client.handle(request.clone(), *t);
    }
    drop(client);
    server.kill();

    assert_eq!(wal_record_count(&dir), workload.len());
    let (_, recovery) = WalStore::open(&dir, FsyncPolicy::Never).expect("final wal");
    let (recovered, _) = recovery.recover(template()).expect("final recover");
    assert_eq!(
        encode_state_json(&recovered).expect("final encodes"),
        golden_state_after(workload.len()),
        "final state after crash + restart diverges from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_during_registration_phase_recovers_exactly() {
    crash_at(17, "early"); // mid deposits/registrations/orders
}

#[test]
fn sigkill_during_billing_recovers_exactly() {
    crash_at(101, "billing"); // inside the progress/billing stream
}

#[test]
fn sigkill_after_snapshots_recovers_exactly() {
    crash_at(223, "late"); // several snapshots on disk, long tail
}

/// Kill at an arbitrary wall-clock moment while the client floods
/// requests — the ack count is whatever it is, possibly with one request
/// in flight and a torn record on disk. Whatever prefix `N` the log
/// holds, recovery must equal the golden prefix replay of exactly `N`.
#[test]
fn sigkill_at_an_arbitrary_moment_recovers_a_prefix() {
    let dir = temp_dir("timed");
    let workload = golden_workload();
    let server = spawn_server(&dir);
    let addr = server.addr;

    let feeder = std::thread::spawn(move || {
        let mut client = RemoteService::connect(addr).expect("connect");
        let mut acked = 0usize;
        for (t, request) in &golden_workload() {
            let response = client.handle(request.clone(), *t);
            if matches!(
                response,
                Response::Error(spequlos::RequestError::Transport(_))
            ) {
                break; // server died mid-exchange
            }
            acked += 1;
        }
        acked
    });
    std::thread::sleep(std::time::Duration::from_millis(15));
    server.kill();
    let acked = feeder.join().expect("feeder");

    let (_, recovery) = WalStore::open(&dir, FsyncPolicy::Never).expect("wal after timed kill");
    let persisted = recovery.records().len();
    assert!(
        persisted >= acked,
        "acknowledged requests must be durable: acked {acked}, persisted {persisted}"
    );
    assert!(
        persisted <= acked + 1,
        "at most one un-acked request was in flight: acked {acked}, persisted {persisted}"
    );
    assert!(persisted <= workload.len());
    let (recovered, _) = recovery.recover(template()).expect("recover");
    assert_eq!(
        encode_state_json(&recovered).expect("encodes"),
        golden_state_after(persisted),
        "recovered state is not the exact golden prefix"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The pipelined leg: the kill lands inside a group commit
// ---------------------------------------------------------------------------

/// Requests the pipelined client keeps in flight.
const WINDOW: usize = 32;

/// Pipelines `workload` with [`WINDOW`] requests in flight until
/// `stop_after` of them are acknowledged or the server is gone; returns
/// how many were sent and how many acknowledged.
fn pipeline(
    client: &mut RemoteService,
    workload: &[(SimTime, Request)],
    stop_after: usize,
) -> (usize, usize) {
    let (mut sent, mut acked) = (0, 0);
    while acked < stop_after.min(workload.len()) {
        while sent < workload.len() && sent - acked < WINDOW {
            let (t, request) = &workload[sent];
            client.send(request.clone(), *t);
            sent += 1;
        }
        if client.flush().is_err() {
            break; // server died mid-write
        }
        let Ok(reply) = client.recv() else {
            break; // server died mid-exchange
        };
        assert!(
            !matches!(
                reply.response,
                Response::Error(spequlos::RequestError::Transport(_))
            ),
            "durability failure surfaced to client: {reply:?}"
        );
        acked += 1;
    }
    (sent, acked)
}

/// What a kill with `sent` requests written and `acked` acknowledged
/// must leave behind: a log that is an exact prefix of the workload,
/// holds every acknowledged request and none that was never sent, and
/// recovers to the golden state after that many requests. Returns the
/// log's record count.
fn assert_recovers_a_sent_prefix(dir: &Path, sent: usize, acked: usize) -> usize {
    let (_, recovery) = WalStore::open(dir, FsyncPolicy::Never).expect("wal readable after kill");
    let persisted = recovery.records().len();
    assert!(
        acked <= persisted && persisted <= sent,
        "acknowledged ⇒ durable, none invented: acked {acked}, persisted {persisted}, sent {sent}"
    );
    assert_eq!(
        recovery.records(),
        &golden_workload()[..persisted],
        "the log is not a prefix of what was sent"
    );
    let (recovered, _) = recovery.recover(template()).expect("recover");
    assert_eq!(
        encode_state_json(&recovered).expect("recovered encodes"),
        golden_state_after(persisted),
        "recovered state diverges from the golden prefix"
    );
    persisted
}

/// Restarts on `dir`, pipelines the rest of the workload, kills again
/// and compares with the uninterrupted run.
fn finish_pipelined_and_compare(dir: &Path, persisted: usize) {
    let workload = golden_workload();
    let server = spawn_server(dir);
    let mut client = RemoteService::connect(server.addr).expect("reconnect");
    let rest = &workload[persisted..];
    assert_eq!(
        pipeline(&mut client, rest, rest.len()),
        (rest.len(), rest.len())
    );
    drop(client);
    server.kill();
    assert_eq!(
        assert_recovers_a_sent_prefix(dir, workload.len(), workload.len()),
        workload.len()
    );
    let _ = std::fs::remove_dir_all(dir);
}

fn pipelined_crash_at(kill_after_acks: usize, tag: &str) {
    let dir = temp_dir(tag);
    let workload = golden_workload();
    let server = spawn_server(&dir);
    let mut client = RemoteService::connect(server.addr).expect("connect");
    let (sent, acked) = pipeline(&mut client, &workload, kill_after_acks);
    assert_eq!(acked, kill_after_acks);
    assert!(sent > acked, "the kill must find requests in flight");
    server.kill();
    drop(client);
    let persisted = assert_recovers_a_sent_prefix(&dir, sent, acked);
    finish_pipelined_and_compare(&dir, persisted);
}

#[test]
fn pipelined_sigkill_during_registration_phase_recovers_a_sent_prefix() {
    pipelined_crash_at(5, "pipe-early");
}

#[test]
fn pipelined_sigkill_during_billing_recovers_a_sent_prefix() {
    pipelined_crash_at(101, "pipe-billing");
}

#[test]
fn pipelined_sigkill_after_snapshots_recovers_a_sent_prefix() {
    pipelined_crash_at(223, "pipe-late");
}

#[test]
fn pipelined_sigkill_at_an_arbitrary_moment_recovers_a_sent_prefix() {
    let dir = temp_dir("pipe-timed");
    let server = spawn_server(&dir);
    let addr = server.addr;
    let feeder = std::thread::spawn(move || {
        let mut client = RemoteService::connect(addr).expect("connect");
        let workload = golden_workload();
        pipeline(&mut client, &workload, workload.len())
    });
    std::thread::sleep(std::time::Duration::from_millis(15));
    server.kill();
    let (sent, acked) = feeder.join().expect("feeder");
    let persisted = assert_recovers_a_sent_prefix(&dir, sent, acked);
    finish_pipelined_and_compare(&dir, persisted);
}
