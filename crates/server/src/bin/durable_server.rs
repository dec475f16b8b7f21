//! A standalone durable SpeQuloS server — the process the crash-injection
//! suite starts, `SIGKILL`s mid-run, and restarts against the same WAL
//! directory (`tests/crash_recovery.rs`).
//!
//! ```text
//! durable_server --dir <wal-dir> [--addr 127.0.0.1:0] [--pool N]
//!                [--tick-ms N] [--snapshot-every N] [--no-fsync]
//! ```
//!
//! `--snapshot-every N` snapshots at least every `N` requests apart (and
//! no sooner than the log has grown by the last snapshot's size; see
//! `DurabilityConfig::snapshot_every`).
//!
//! Prints `LISTENING <addr>` on stdout once the socket is bound (the
//! test harness parses this line for the ephemeral port), then serves
//! until killed. The service template is assembled from the command-line
//! flags; a restart must pass the same flags so recovery validates
//! against an identically configured template.

use simcore::SimDuration;
use spequlos::wal::FsyncPolicy;
use spequlos::SpeQuloS;
use spq_server::server::DurabilityConfig;
use spq_server::{Server, ServerConfig};
use std::io::Write;

fn usage(msg: &str) -> ! {
    eprintln!("durable_server: {msg}");
    eprintln!(
        "usage: durable_server --dir <wal-dir> [--addr HOST:PORT] [--pool N] \
         [--tick-ms N] [--snapshot-every N] [--no-fsync]"
    );
    std::process::exit(2);
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a valid value")))
}

fn main() {
    let mut dir: Option<String> = None;
    let mut addr = "127.0.0.1:0".to_string();
    let mut pool: Option<u32> = None;
    let mut tick_ms: Option<u64> = None;
    let mut snapshot_every: u64 = 4096;
    let mut fsync = FsyncPolicy::Always;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dir" => dir = Some(parse_value("--dir", args.next())),
            "--addr" => addr = parse_value("--addr", args.next()),
            "--pool" => pool = Some(parse_value("--pool", args.next())),
            "--tick-ms" => tick_ms = Some(parse_value("--tick-ms", args.next())),
            "--snapshot-every" => {
                snapshot_every = parse_value("--snapshot-every", args.next());
            }
            "--no-fsync" => fsync = FsyncPolicy::Never,
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    let Some(dir) = dir else {
        usage("--dir is required");
    };

    // The template must be assembled identically on every start of the
    // same WAL directory; recovery validates tick / strategy / pool
    // against the snapshot and refuses a mismatch.
    let mut builder = SpeQuloS::builder();
    if let Some(capacity) = pool {
        builder = builder.pool(capacity);
    }
    if let Some(ms) = tick_ms {
        builder = builder.tick(SimDuration::from_millis(ms));
    }
    let template = builder.build();

    let durability = DurabilityConfig {
        dir: dir.into(),
        fsync,
        snapshot_every,
    };
    let (handle, report) =
        match Server::spawn_durable(template, &addr, ServerConfig::default(), durability) {
            Ok(started) => started,
            Err(e) => {
                eprintln!("durable_server: failed to start: {e}");
                std::process::exit(1);
            }
        };
    eprintln!(
        "recovered: snapshot_applied={} replayed={} truncated_bytes={} snapshots_discarded={}",
        report.snapshot_applied,
        report.replayed,
        report.truncated_bytes,
        report.snapshots_discarded
    );
    println!("LISTENING {}", handle.addr());
    let _ = std::io::stdout().flush();

    // Serve until killed: the crash suite terminates this process with
    // SIGKILL, never gracefully.
    loop {
        std::thread::park();
    }
}
