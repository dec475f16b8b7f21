//! `spq-bench` — telemetry tooling for the reproduction.
//!
//! ```text
//! spq-bench compare <baseline.json> <current.json> [--threshold F]
//! spq-bench show <telemetry.json>
//! ```
//!
//! `compare` diffs two `BENCH_*.json` records and exits 1 when the
//! current run regressed — the CI perf gate. Every key of the baseline's
//! `metrics` (the ladder's rungs; a missing key regresses) — or, for
//! records without `metrics`, throughput (events/sec when both records
//! carry it, wall time otherwise) — is gated by `--threshold` (default
//! 0.25 = 25 %). Records whose `name` or `config` differ are not
//! comparable and fail. `show` pretty-prints one record. Usage errors
//! and unreadable files exit 2.

use spq_bench::telemetry::{compare, Telemetry};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("show") => run_show(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!(
                "usage:\n  spq-bench compare <baseline.json> <current.json> \
                 [--threshold F]\n  \
                 spq-bench show <telemetry.json>"
            );
            std::process::exit(if args.is_empty() { 2 } else { 0 });
        }
        Some(other) => fail(&format!("unknown subcommand `{other}`")),
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\nrun with --help for usage");
    std::process::exit(2);
}

fn load(path: &str) -> Telemetry {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    Telemetry::from_json(&text).unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")))
}

fn run_compare(args: &[String]) {
    let mut paths: Vec<&String> = Vec::new();
    let mut threshold = 0.25f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg != "--threshold" {
            paths.push(arg);
            continue;
        }
        threshold = it
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| fail("--threshold needs a number"));
        if !(0.0..10.0).contains(&threshold) {
            fail("--threshold must be in [0, 10)");
        }
    }
    let [baseline, current] = paths.as_slice() else {
        fail("compare needs exactly two telemetry files");
    };
    let outcome = compare(&load(baseline), &load(current), threshold);
    print!("{}", outcome.report);
    std::process::exit(i32::from(outcome.regressed));
}

fn run_show(args: &[String]) {
    let [path] = args else {
        fail("show needs exactly one telemetry file");
    };
    let tele = load(path);
    print!("{}", tele.to_json());
}
