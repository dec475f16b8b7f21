//! `spq-benchmark` — the repository's benchmark (see `README.md` beside
//! the manifest, and `BENCHMARK.json` at the repository root).
//!
//! With `--workload <name>` the process runs that workload: `k` repeats
//! against fresh servers, every metric reported as the median of the
//! repeats, outputs checked against the oracle, and as its last line of
//! standard output one JSON object for the driver. Without it, the
//! process runs every workload, each in a child process of its own so
//! that set-up time and peak memory belong to one workload alone.

#![forbid(unsafe_code)]

mod args;
mod codec;
mod crc;
mod layers;
mod loadgen;
mod metrics;
mod procfs;
mod script;
mod sim;
mod speed;
mod stats;
mod suite;
mod trace;
mod wire;

use args::Args;
use metrics::{Samples, END_TO_END, PER_LAYER};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(name) => run_workload(&args, name),
        None => suite::run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("spq-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload in this process; `Ok(false)` when an output was
/// wrong.
fn run_workload(args: &Args, name: &str) -> std::io::Result<bool> {
    std::fs::create_dir_all(&args.out)?;
    println!(
        "workload {name}: seed {}, {} repeats sized for {} s, trace {}",
        args.seed,
        args.repeats,
        args.seconds,
        u8::from(args.trace)
    );
    let (mut samples, rec, attempted, failed) = if name.starts_with("wire_") {
        let mut run = wire::Run::new(args, name);
        match name {
            "wire_bin" => wire::wire_bin(&mut run)?,
            "wire_json_batch" => wire::wire_json_batch(&mut run)?,
            "wire_durable" => wire::wire_durable(&mut run)?,
            _ => wire::wire_idle_fanin(&mut run)?,
        }
        if let Some(replayer) = run.replayer.take() {
            replayer.finish(args, &mut run.samples)?;
        }
        report_speed(args, &mut run.samples, &run.speed);
        (run.samples, run.rec, run.attempted, run.failed)
    } else {
        let mut run = sim::Run::new(args);
        match name {
            "sim_campaign" => sim::sim_campaign(&mut run),
            _ => sim::sim_multitenant(&mut run),
        }
        report_speed(args, &mut run.samples, &run.speed);
        (run.samples, run.rec, run.attempted, run.failed)
    };
    finish(args, name, &mut samples, &rec, attempted, failed)
}

/// Prints the speed factors the run's timings were scaled by.
fn report_speed(args: &Args, samples: &mut Samples, speed: &speed::Speed) {
    let factors = stats::Summary::of(&speed.factors);
    println!(
        "  speed factor of the measured phases: median {:.4}, min {:.4}, max {:.4}, n={} \
         (times are multiplied by it, rates divided)",
        factors.median, factors.min, factors.max, factors.n
    );
    if args.trace {
        samples.push("host.speed_factor", factors.median);
    }
}

fn finish(
    args: &Args,
    name: &str,
    samples: &mut Samples,
    rec: &trace::Recorder,
    attempted: u64,
    failed: u64,
) -> std::io::Result<bool> {
    let defs = if args.trace {
        samples.push("trace.spans", rec.spans().len() as f64);
        std::fs::write(args.out.join(format!("trace-{name}.jsonl")), rec.to_jsonl())?;
        if rec.is_full() {
            println!("  the span recorder reached its cap; later spans were not recorded");
        }
        println!("  self time by span (span minus its children), ms:");
        for (span, ns) in trace::self_times(rec.spans()) {
            println!("    {span:<34} {:>12.3}", ns as f64 / 1e6);
        }
        PER_LAYER
    } else {
        samples.push("peak_rss_mb", procfs::peak_rss_mib());
        END_TO_END
    };
    metrics::print_table(samples);
    println!(
        "  failed_share {failed}/{attempted} = {}",
        failed as f64 / attempted.max(1) as f64
    );
    println!("{}", metrics::result_line(defs, samples, attempted, failed));
    Ok(failed == 0)
}
