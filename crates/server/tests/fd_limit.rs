//! The reactor at the descriptor limit.
//!
//! When `accept` fails with `EMFILE` the pending connection stays in the
//! listen backlog, so the listener stays readable. A reactor that re-arms
//! it at once wakes straight back up and spins a core. This test fills
//! the process's descriptor table around a running server, checks the
//! server idles, then closes a connection and checks the waiting client
//! gets served.
//!
//! The table is small only in a child: the test re-executes its own
//! binary under `prlimit --nofile=64:64`, with [`CHILD`] set in the
//! environment to select the child's half.

#![cfg(target_os = "linux")]

use simcore::SimTime;
use spequlos::protocol::{Request, Response, SpqService};
use spequlos::{SpeQuloS, UserId};
use spq_server::client::ClientCore;
use spq_server::frame::Codec;
use spq_server::{RemoteService, Server};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::net::TcpStream;
use std::process::Command;
use std::time::Duration;

/// Set in the child's environment; its presence selects the child half.
const CHILD: &str = "SPQ_FD_LIMIT_CHILD";

/// The descriptor limit the child runs under.
const NOFILE: u32 = 64;

/// `utime + stime` of the whole process, in clock ticks, re-read from an
/// already open `/proc/self/stat` (the full table leaves no descriptor
/// to open it with).
fn cpu_ticks(stat: &mut File) -> u64 {
    let mut text = String::new();
    stat.seek(SeekFrom::Start(0)).expect("seek stat");
    stat.read_to_string(&mut text).expect("read stat");
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    let after = &text[text.rfind(')').expect("comm") + 2..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

fn deposit(user: u64) -> Request {
    Request::Deposit {
        user: UserId(user),
        credits: 10.0,
    }
}

/// The child's half: runs with a `NOFILE`-entry descriptor table.
fn at_the_limit() {
    let mut stat = File::open("/proc/self/stat").expect("open stat");
    let handle = Server::spawn_loopback(SpeQuloS::new()).expect("spawn");
    let mut held = RemoteService::connect(handle.addr()).expect("connect");
    assert!(matches!(
        held.handle(deposit(1), SimTime::ZERO),
        Response::Deposited { .. }
    ));

    // Fill the table, then free exactly one entry for the client socket:
    // the server's accept of it fails with EMFILE.
    let mut filler = Vec::new();
    loop {
        match File::open("/dev/null") {
            Ok(file) => filler.push(file),
            Err(e) if e.raw_os_error() == Some(24) => break,
            Err(e) => panic!("unexpected open error: {e}"),
        }
    }
    assert!(filler.len() < NOFILE as usize, "the limit applies");
    filler.pop();
    let mut waiting = TcpStream::connect(handle.addr()).expect("backlog connect");
    waiting
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut client = ClientCore::new(Codec::Json);
    let mut out = Vec::new();
    client.queue_hello(&mut out);
    client.queue_request(&mut out, deposit(2), SimTime::ZERO);
    waiting.write_all(&out).expect("send hello and request");

    // The server has seen the listener readable and failed to accept;
    // from here on it must idle.
    std::thread::sleep(Duration::from_millis(100));
    let before = cpu_ticks(&mut stat);
    std::thread::sleep(Duration::from_millis(500));
    let spent = cpu_ticks(&mut stat) - before;
    // Clock ticks are 10 ms; 10 % of a core over 500 ms is 5 of them.
    assert!(
        spent < 5,
        "the reactor burned {spent} ticks in 500 ms with accept failing"
    );

    // A closed connection frees a descriptor: the waiting client is
    // accepted and served.
    drop(held);
    let reply = client
        .read_reply(&mut waiting)
        .expect("reply after a close")
        .expect("not end of stream");
    assert!(
        matches!(reply.response, Response::Deposited { .. }),
        "{reply:?}"
    );
    drop(filler);
    handle.into_service();
}

#[test]
fn a_full_descriptor_table_parks_the_listener_instead_of_spinning() {
    if std::env::var_os(CHILD).is_some() {
        return at_the_limit();
    }
    let exe = std::env::current_exe().expect("test binary");
    let output = Command::new("prlimit")
        .arg(format!("--nofile={NOFILE}:{NOFILE}"))
        .arg("--")
        .arg(exe)
        .args([
            "a_full_descriptor_table_parks_the_listener_instead_of_spinning",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(CHILD, "1")
        .output()
        .expect("run prlimit (util-linux)");
    assert!(
        output.status.success(),
        "child failed: {}\n{}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        String::from_utf8_lossy(&output.stdout).contains("1 passed"),
        "the child ran the test"
    );
}
