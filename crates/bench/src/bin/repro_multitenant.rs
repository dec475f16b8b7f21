//! Multi-tenant service report: per-tenant completion/credit tables for
//! 2, 8 and 32 concurrent tenants sharing one SpeQuloS instance and a
//! bounded cloud-worker pool (the §5 deployed-service regime).
//!
//! Accepts `--tenants N` on top of the shared options to run a single
//! tenant count (`--tenants 32` at the default seed and scale is the
//! 869 375-event golden). The report is not a measurement: what the
//! simulation costs is `sim_multitenant` in `BENCHMARK.json`.
//!
//! With `--shards M` the binary switches to the sharded tenant storm
//! (`multitenant::storm`): a `ShardedServer` over loopback, one worker
//! thread per shard, every tenant streamed through a full protocol
//! session with O(shards × chunk) client memory — the shape the CI
//! `sharded-scale` job runs at `--tenants 100000 --shards 8`. The storm
//! emits a `BENCH_repro_multitenant_sharded.json` record (events =
//! requests served) for that job's compare gate.
use spq_bench::experiments::multitenant;
use spq_bench::{opts, telemetry, Opts};
use spq_harness::write_file;

/// Tenant count the storm defaults to when `--shards` is given without
/// `--tenants` — large enough to exercise chunk streaming, small enough
/// for a laptop smoke run.
const DEFAULT_STORM_TENANTS: u32 = 10_000;

fn main() {
    let mut tenants: Option<u32> = None;
    let mut shards: Option<u32> = None;
    let options = Opts::from_args_with(|arg, rest| match arg {
        "--tenants" => {
            tenants = Some(
                rest.next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| opts::usage("--tenants needs a number")),
            );
            true
        }
        "--shards" => {
            shards = Some(
                rest.next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| opts::usage("--shards needs a number >= 1")),
            );
            true
        }
        _ => false,
    });
    if let Some(shards) = shards {
        let tenants = tenants.unwrap_or(DEFAULT_STORM_TENANTS);
        let (text, tele) = telemetry::measure("repro_multitenant_sharded", &options, |_| {
            let (text, requests) = multitenant::storm(tenants, shards);
            (text, Some(requests))
        });
        print!("{text}");
        write_file(options.out_dir.join("multitenant_sharded.txt"), &text).expect("write report");
        tele.with_config("tenants", tenants)
            .with_config("shards", shards)
            .write_or_warn();
        return;
    }
    let counts: Vec<u32> = match tenants {
        Some(n) => vec![n],
        None => multitenant::TENANT_COUNTS.to_vec(),
    };
    let text = multitenant::report_for_counts(&options, &counts);
    print!("{text}");
    write_file(options.out_dir.join("multitenant.txt"), &text).expect("write report");
}
