//! Open-loop load generation against a real loopback `spq-server`, with
//! latency-SLO telemetry (`spq-load`).
//!
//! Fires the recorded request mix at a live TCP server on a fixed,
//! seeded schedule (see [`spq_bench::loadgen`] for why open-loop), then
//! emits `BENCH_repro_load.json` carrying the `latency` object — p50 /
//! p95 / p99 / p999, error and timeout counts, offered vs achieved rate
//! and, when the stepped rate sweep runs, the max sustained rate under
//! the p99 SLO. The checked-in `BENCH_repro_load.json` baseline plus
//! `spq-bench compare --latency-threshold` turn those numbers into the
//! CI tail-latency gate.
//!
//! Binary-specific flags (on top of the shared `--seeds/--scale/...`):
//!
//! ```text
//! --rate R          offered requests/second for the primary run (default 1000)
//! --connections N   client connections (default 4)
//! --secs S          measured seconds per run (default 2.0)
//! --warmup S        warmup seconds excluded from the histogram (default 0.5)
//! --slo-ms MS       p99 budget in milliseconds (default 50)
//! --seed N          arrival-plan seed (default 1; same seed = same plan)
//! --sweep-steps N   rate-ladder steps for max-sustained-rate (default 5, 0 = off)
//! --gate            exit 1 when the primary run misses the SLO or times out
//! --shards M        also run the plan against an M-shard ShardedServer
//! ```
//!
//! With `--shards M` the same arrival plan (and, when the sweep runs,
//! the same rate ladder) is replayed against a `ShardedServer`: each
//! load connection's user hashes to one shard and every bot it
//! registers is allocated by that shard, so the whole workload is
//! shard-local — this measures the accept-and-route layer plus N
//! independent reactors, not cross-shard forwarding. The summary
//! `shard_speedup` config key is the ratio of sharded to single-server
//! max sustained rate (achieved-rate ratio when the sweep is off).
//! Honesty note: at an unsaturated offered rate the ratio is ≈1.0 *by
//! construction* (both servers answer everything they are offered), and
//! on a single-core host it stays ≈1.0 even at saturation — the shard
//! reactors time-slice one CPU. The CI gate therefore thresholds the
//! latency and throughput metrics, never `shard_speedup` itself; see
//! BENCHMARKS.md § Sharded ladder.

use spequlos::SpeQuloS;
use spq_bench::loadgen::{
    self, max_sustained_rate, sweep_ladder, ArrivalPlan, ArrivalSpec, LoadReport,
};
use spq_bench::telemetry::LatencyTelemetry;
use spq_bench::{telemetry, Opts};
use spq_harness::workload::RequestMix;
use spq_server::{Server, ServerConfig, ShardConfig, ShardedServer};

/// One run: the plan of `spec` against a fresh server — single-shard, or
/// `shards` shards behind the router — and the client-side sojourn
/// times. (What `SpqService::handle` itself costs per request kind is
/// `service.handle_ns.<kind>` in `BENCHMARK.json`.)
fn run_at(shards: Option<u32>, spec: ArrivalSpec, mix: &RequestMix) -> std::io::Result<LoadReport> {
    let plan = ArrivalPlan::generate(spec, mix);
    match shards {
        None => {
            let handle = Server::spawn(SpeQuloS::new(), "127.0.0.1:0", ServerConfig::default())?;
            let report = loadgen::run(handle.addr(), &plan);
            drop(handle.into_service());
            report
        }
        Some(shards) => {
            let config = ShardConfig::new(shards);
            let handle = ShardedServer::spawn_loopback(SpeQuloS::new(), config)?;
            let report = loadgen::run(handle.addr(), &plan);
            drop(handle.into_services());
            report
        }
    }
}

/// The rate ladder around an already-run `primary`: every other step
/// against a fresh server, one text line per step. Returns the steps
/// and the requests the reruns sent.
fn sweep(
    shards: Option<u32>,
    primary: &LoadReport,
    spec: ArrivalSpec,
    ladder: &[f64],
    mix: &RequestMix,
    text: &mut String,
) -> (Vec<(f64, LoadReport)>, u64) {
    let (mut steps, mut sent) = (Vec::new(), 0);
    for &rate in ladder {
        let report = if (rate - spec.rate).abs() < 1e-9 {
            primary.clone()
        } else {
            let report =
                run_at(shards, ArrivalSpec { rate, ..spec }, mix).expect("sweep step failed");
            sent += report.sent;
            report
        };
        text.push_str("  ");
        text.push_str(&line(rate, &report));
        steps.push((rate, report));
    }
    (steps, sent)
}

fn line(rate: f64, r: &LoadReport) -> String {
    format!(
        "{rate:>8.0} req/s | p50 {:>8.3} ms | p99 {:>8.3} ms | p999 {:>8.3} ms | \
         achieved {:>8.0} req/s | err {} | timeout {}\n",
        r.p50_ms(),
        r.p99_ms(),
        r.p999_ms(),
        r.achieved_rate,
        r.errors,
        r.timeouts,
    )
}

fn main() {
    let mut rate = 1_000.0f64;
    let mut connections = 4u32;
    let mut secs = 2.0f64;
    let mut warmup = 0.5f64;
    let mut slo_ms = 50.0f64;
    let mut seed = 1u64;
    let mut sweep_steps = 5usize;
    let mut gate = false;
    let mut shards: Option<u32> = None;
    let opts = Opts::from_args_with(|flag, rest| {
        let mut num = |name: &str| -> f64 {
            rest.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| spq_bench::opts::usage(&format!("{name} needs a number")))
        };
        match flag {
            "--rate" => rate = num("--rate"),
            "--connections" => connections = num("--connections") as u32,
            "--secs" => secs = num("--secs"),
            "--warmup" => warmup = num("--warmup"),
            "--slo-ms" => slo_ms = num("--slo-ms"),
            "--seed" => seed = num("--seed") as u64,
            "--sweep-steps" => sweep_steps = num("--sweep-steps") as usize,
            "--shards" => shards = Some(num("--shards") as u32),
            "--gate" => gate = true,
            _ => return false,
        }
        true
    });
    if rate <= 0.0 || secs <= 0.0 || connections == 0 {
        spq_bench::opts::usage("--rate/--secs must be positive, --connections nonzero");
    }

    let mix = loadgen::recorded_mix();
    let ladder = sweep_ladder(rate, sweep_steps);
    let spec = ArrivalSpec {
        rate,
        connections,
        warmup_secs: warmup,
        measured_secs: secs,
        seed,
    };

    let (value, mut tele) = telemetry::measure("repro_load", &opts, |_| {
        let mut text = String::new();
        text.push_str("Open-loop load against a loopback spq-server\n");
        text.push_str(&format!(
            "{connections} connections, {secs}s measured after {warmup}s warmup, \
             SLO p99 <= {slo_ms} ms, seed {seed}\n"
        ));
        text.push_str(&format!("request mix: {}\n\n", mix.describe()));

        let primary = run_at(None, spec, &mix)
            .expect("load run failed — is something else bound to loopback?");
        text.push_str("primary: ");
        text.push_str(&line(rate, &primary));

        if !ladder.is_empty() {
            text.push_str("\nrate sweep:\n");
        }
        let (steps, sent) = sweep(None, &primary, spec, &ladder, &mix, &mut text);
        let mut events = primary.sent + sent;
        let sustained = max_sustained_rate(&steps, slo_ms);
        match sustained {
            Some(r) => text.push_str(&format!(
                "\nmax sustained rate under the SLO: {r:.0} req/s\n"
            )),
            None if steps.is_empty() => text.push_str("\n(no sweep: --sweep-steps 0)\n"),
            None => text.push_str("\nno swept rate met the SLO\n"),
        }

        // The sharded rung: same plan, same ladder, N-shard server.
        let mut speedup = None;
        if let Some(shards) = shards {
            text.push_str(&format!("\nsharded rung ({shards} shards):\n"));
            let sharded_primary =
                run_at(Some(shards), spec, &mix).expect("sharded load run failed");
            text.push_str("  primary: ");
            text.push_str(&line(rate, &sharded_primary));
            let (sharded_steps, sent) = sweep(
                Some(shards),
                &sharded_primary,
                spec,
                &ladder,
                &mix,
                &mut text,
            );
            events += sharded_primary.sent + sent;
            let sharded_sustained = max_sustained_rate(&sharded_steps, slo_ms);
            // Sustained-rate ratio when both sweeps produced one;
            // achieved-rate ratio otherwise (≈1.0 below saturation by
            // construction — see the module docs).
            let ratio = match (sustained, sharded_sustained) {
                (Some(single), Some(sharded)) => sharded / single.max(1e-9),
                _ => sharded_primary.achieved_rate / primary.achieved_rate.max(1e-9),
            };
            text.push_str(&format!(
                "shard speedup ({shards} shards vs single dispatch): {ratio:.3}x\n\
                 (single-core host: ≈1.0x expected — the shard reactors \
                 time-slice one CPU; see BENCHMARKS.md § Sharded ladder)\n",
            ));
            speedup = Some(ratio);
        }
        ((text, primary, sustained, speedup), Some(events))
    });

    let (text, primary, sustained, shard_speedup) = value;
    tele.latency = Some(LatencyTelemetry {
        p50_ms: primary.p50_ms(),
        p95_ms: primary.p95_ms(),
        p99_ms: primary.p99_ms(),
        p999_ms: primary.p999_ms(),
        max_ms: primary.max_ms(),
        requests: primary.sent,
        errors: primary.errors,
        timeouts: primary.timeouts,
        offered_rate: primary.offered_rate,
        achieved_rate: primary.achieved_rate,
        max_sustained_rate: sustained,
        slo_p99_ms: slo_ms,
    });

    print!("{text}");
    spq_harness::write_file(opts.out_dir.join("load.txt"), &text).expect("write report");
    let mut tele = tele
        .with_config("rate", rate)
        .with_config("connections", connections)
        .with_config("secs", secs)
        .with_config("warmup", warmup)
        .with_config("slo_ms", slo_ms)
        .with_config("seed", seed)
        .with_config("sweep_steps", sweep_steps);
    if let (Some(shards), Some(speedup)) = (shards, shard_speedup) {
        tele = tele
            .with_config("shards", shards)
            .with_config("shard_speedup", format!("{speedup:.3}"));
    }
    tele.write_or_warn();

    let missed = primary.p99_ms() > slo_ms || primary.timeouts > 0;
    if missed {
        eprintln!(
            "SLO MISSED: p99 {:.3} ms (budget {slo_ms} ms), {} timeouts",
            primary.p99_ms(),
            primary.timeouts
        );
    }
    if gate && missed {
        std::process::exit(1);
    }
}
