//! Multi-tenant service experiment: N concurrent BoTs from distinct users
//! arbitrated over one shared credit economy and a bounded cloud-worker
//! pool — the deployed-service regime of §5 that the paper's single-BoT
//! campaign (§4) never exercises. For each tenant count the report shows
//! per-tenant completion and credit accounting plus the pool's contention
//! counters, and a summary line with aggregate simulation throughput.

use betrace::Preset;
use botwork::BotClass;
use simcore::{SimDuration, SimTime};
use spequlos::StrategyCombo;
use spq_harness::{pct, secs, Experiment, MwKind, Scenario, Table, TenantArrivals};

use crate::Opts;

/// Tenant counts the report sweeps (the acceptance points of the
/// multi-tenant scenario family).
pub const TENANT_COUNTS: [u32; 3] = [2, 8, 32];

/// Shared pool capacity: fixed while demand scales, so 2 tenants are
/// uncontended, 8 contend on fair shares, and 32 additionally hit
/// admission control.
pub const POOL_CAPACITY: u32 = 16;

fn base_scenario(opts: &Opts, seed: u64) -> Scenario {
    let mut sc = Scenario::new(Preset::G5kLyon, MwKind::Xwhep, BotClass::Big, seed)
        .with_strategy(StrategyCombo::paper_default());
    sc.scale = opts.scale;
    sc
}

/// One multi-tenant table for `tenants` concurrent users.
pub fn table_for(opts: &Opts, tenants: u32) -> String {
    let seed = opts.seed_list().first().copied().unwrap_or(1);
    let exp = Experiment::new(base_scenario(opts, seed))
        .tenants(tenants)
        .pool(POOL_CAPACITY)
        .arrivals(TenantArrivals::TailHeavy {
            window: SimDuration::from_hours(2),
        });
    let started = std::time::Instant::now();
    let report = exp.run_multi_tenant();
    let wall = started.elapsed().as_secs_f64();

    let mut out = format!(
        "== {tenants} tenants over a {POOL_CAPACITY}-worker pool \
         (tail-heavy arrivals, 2 h window) ==\n",
    );
    let mut table = Table::new([
        "tenant",
        "arrives",
        "admitted",
        "completed",
        "makespan",
        "provisioned",
        "spent",
        "refunded",
        "granted",
        "denied",
        "grant%",
    ]);
    for t in &report.tenants {
        let refund = (t.metrics.credits_provisioned - t.metrics.credits_spent).max(0.0);
        // Makespan is per-tenant: completion on the shared clock minus the
        // tenant's own arrival (completion_secs is absolute sim time).
        let makespan = (t.metrics.completion_secs - t.offset.as_secs_f64()).max(0.0);
        table.row([
            format!("{}", t.tenant),
            secs(t.offset.as_secs_f64()),
            if t.admitted { "yes" } else { "REJECTED" }.to_string(),
            if t.metrics.completed { "yes" } else { "NO" }.to_string(),
            secs(makespan),
            format!("{:.0}", t.metrics.credits_provisioned),
            format!("{:.1}", t.metrics.credits_spent),
            format!("{refund:.1}"),
            format!("{}", t.qos.granted),
            format!("{}", t.qos.denied),
            pct(t.qos.grant_ratio()),
        ]);
    }
    out.push_str(&table.render());
    let admitted = report.admitted().count();
    let completed = report
        .tenants
        .iter()
        .filter(|t| t.metrics.completed)
        .count();
    out.push_str(&format!(
        "admitted {admitted}/{tenants}, completed {completed}/{tenants}, \
         pool peak {peak}/{cap} workers, {events} events in {wall:.2} s \
         ({rate:.0} events/s)\n\n",
        peak = report.peak_pool_in_use,
        cap = report.pool_capacity,
        events = report.events,
        rate = report.events as f64 / wall.max(1e-9),
    ));
    assert!(
        report.peak_pool_in_use <= report.pool_capacity,
        "pool invariant violated"
    );
    out
}

/// The full multi-tenant report over [`TENANT_COUNTS`].
pub fn report(opts: &Opts) -> String {
    report_for_counts(opts, &TENANT_COUNTS)
}

/// The multi-tenant report for explicit tenant counts (the binary's
/// `--tenants N` selects a single count).
pub fn report_for_counts(opts: &Opts, counts: &[u32]) -> String {
    let mut out = String::from(
        "Multi-tenant QoS service: concurrent BoT arbitration over a shared \
         credit pool\n(one SpeQuloS instance; per-tenant BE-DCIs; \
         credit-proportional fair share; favors tie-break)\n\n",
    );
    for &tenants in counts {
        out.push_str(&table_for(opts, tenants));
    }
    out
}

// ---------------------------------------------------------------------------
// Sharded tenant storm (`repro_multitenant --shards N`)
// ---------------------------------------------------------------------------

/// `ReportProgress` waves each storm tenant sends between order and
/// completion — one monitoring tick per wave, 60 s apart.
pub const STORM_TICKS: u32 = 4;

/// Concurrent sessions each per-shard worker keeps open. Together with
/// the streamed arrival plan ([`TenantArrivals::offset_of`] is O(1) per
/// tenant) this bounds client memory at O(shards × chunk) — independent
/// of `--tenants`, which is what lets the storm run at 100 000 tenants.
pub const STORM_CHUNK: usize = 16;

/// Cloud-worker quota the pool grants each shard at spawn; the ledger
/// rebalances it as load shifts, never below the floor.
pub const STORM_QUOTA_PER_SHARD: u32 = 32;

/// Tasks per storm BoT (what each progress wave reports against).
const STORM_BOT_SIZE: u32 = 20;

/// Credits each storm tenant deposits and then orders.
const STORM_CREDITS: f64 = 100.0;

/// Per-shard tallies from one storm worker.
#[derive(Clone, Copy, Default)]
struct ShardTally {
    tenants: u64,
    requests: u64,
    admitted: u64,
    refused: u64,
    errors: u64,
}

/// Drives every tenant owned by `shard` through a full protocol session
/// — deposit, register, order, [`STORM_TICKS`] progress waves, complete
/// — over one negotiated binary connection, [`STORM_CHUNK`] sessions at
/// a time. All of a worker's requests are local to its shard (tenants
/// are partitioned by [`shard_of_user`], and the bots a shard registers
/// route back to it), so the router forwards nothing and each shard's
/// reactor runs its own tenants in parallel with the others.
fn storm_worker(addr: std::net::SocketAddr, shard: u32, shards: u32, tenants: u32) -> ShardTally {
    use spequlos::tenancy::shard_of_user;
    use spequlos::{BotProgress, Request, RequestError, Response, UserId};
    use spq_server::{Codec, RemoteService};

    let arrivals = TenantArrivals::TailHeavy {
        window: SimDuration::from_hours(2),
    };
    let mut remote = RemoteService::connect_with(addr, Codec::Binary).expect("storm connect");
    let mut tally = ShardTally::default();
    // Service time never runs backwards on a connection: each chunk
    // advances to the latest arrival it contains, then ticks forward.
    let mut clock = SimTime::ZERO;
    let tick = SimDuration::from_secs(60);
    let mut ids = (0..u64::from(tenants))
        .map(UserId)
        .filter(|u| shard_of_user(*u, shards) == shard)
        .peekable();
    while ids.peek().is_some() {
        let chunk: Vec<UserId> = ids.by_ref().take(STORM_CHUNK).collect();
        tally.tenants += chunk.len() as u64;
        let arrive = SimTime::ZERO + arrivals.offset_of(chunk[chunk.len() - 1].0 as u32, tenants);
        if arrive > clock {
            clock = arrive;
        }

        // Open wave: one frame deposits and registers the whole chunk.
        let open: Vec<Request> = chunk
            .iter()
            .flat_map(|&user| {
                [
                    Request::Deposit {
                        user,
                        credits: STORM_CREDITS,
                    },
                    Request::RegisterQos {
                        user,
                        env: "t/XWHEP/STORM".into(),
                        size: STORM_BOT_SIZE,
                    },
                ]
            })
            .collect();
        tally.requests += open.len() as u64;
        let mut bots = Vec::with_capacity(chunk.len());
        for reply in remote.handle_batch(open, clock) {
            match reply {
                Response::Deposited { .. } => {}
                Response::Registered { bot } => bots.push(bot),
                Response::Error(RequestError::Transport(e)) => panic!("storm transport: {e}"),
                other => {
                    let _ = other;
                    tally.errors += 1;
                }
            }
        }

        // Order wave: admission verdicts under the shard's live quota.
        let orders: Vec<Request> = bots
            .iter()
            .map(|&bot| Request::OrderQos {
                bot,
                credits: STORM_CREDITS,
                strategy: Some(StrategyCombo::paper_default()),
            })
            .collect();
        tally.requests += orders.len() as u64;
        for reply in remote.handle_batch(orders, clock) {
            match reply {
                Response::Ordered { .. } => tally.admitted += 1,
                Response::Error(RequestError::Credit(_)) => tally.refused += 1,
                Response::Error(RequestError::Transport(e)) => panic!("storm transport: {e}"),
                _ => tally.errors += 1,
            }
        }

        // Monitoring ticks: one batched wave per period, 60 s apart.
        for wave in 1..=STORM_TICKS {
            clock += tick;
            let completed = STORM_BOT_SIZE * wave / (STORM_TICKS + 1);
            let reports: Vec<Request> = bots
                .iter()
                .map(|&bot| Request::ReportProgress {
                    bot,
                    progress: BotProgress {
                        now: clock,
                        size: STORM_BOT_SIZE,
                        completed,
                        dispatched: STORM_BOT_SIZE,
                        queued: 0,
                        running: STORM_BOT_SIZE - completed,
                        cloud_running: 0,
                    },
                })
                .collect();
            tally.requests += reports.len() as u64;
            for reply in remote.handle_batch(reports, clock) {
                match reply {
                    Response::Action { .. } => {}
                    Response::Error(RequestError::Transport(e)) => panic!("storm transport: {e}"),
                    _ => tally.errors += 1,
                }
            }
        }

        // Completion wave: close the chunk, releasing pool admissions.
        clock += tick;
        let completes: Vec<Request> = bots.iter().map(|&bot| Request::Complete { bot }).collect();
        tally.requests += completes.len() as u64;
        for reply in remote.handle_batch(completes, clock) {
            match reply {
                Response::Completed { .. } => {}
                Response::Error(RequestError::Transport(e)) => panic!("storm transport: {e}"),
                _ => tally.errors += 1,
            }
        }
    }
    tally
}

/// Tenant storm against a sharded server (`--tenants N --shards M`): a
/// scale demonstration, not a pinned-determinism artifact. Spawns a
/// [`spq_server::ShardedServer`] over loopback, partitions the tenants across one
/// worker thread per shard, and streams every tenant through a full
/// protocol session. Reports per-shard and aggregate request counts;
/// the returned event count is the total requests served (feeding the
/// `events_per_sec` telemetry the CI scale job gates on).
pub fn storm(tenants: u32, shards: u32) -> (String, u64) {
    use spequlos::SpeQuloS;
    use spq_server::{ShardConfig, ShardedServer};

    assert!(shards >= 1, "--shards must be at least 1");
    let pool = shards * STORM_QUOTA_PER_SHARD;
    let template = SpeQuloS::builder().pool(pool).build();
    let handle =
        ShardedServer::spawn_loopback(template, ShardConfig::new(shards)).expect("spawn storm");
    let addr = handle.addr();

    let started = std::time::Instant::now();
    let tallies: Vec<ShardTally> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..shards)
            .map(|s| scope.spawn(move || storm_worker(addr, s, shards, tenants)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let services = handle.into_services();

    let mut out = format!(
        "== tenant storm: {tenants} tenants across {shards} shard(s) \
         (pool {pool}, chunk {STORM_CHUNK}, {STORM_TICKS} ticks/tenant) ==\n"
    );
    let mut table = Table::new([
        "shard",
        "tenants",
        "requests",
        "admitted",
        "refused",
        "errors",
        "outstanding",
    ]);
    let mut total = ShardTally::default();
    for (i, t) in tallies.iter().enumerate() {
        table.row([
            format!("{i}"),
            format!("{}", t.tenants),
            format!("{}", t.requests),
            format!("{}", t.admitted),
            format!("{}", t.refused),
            format!("{}", t.errors),
            format!("{:.1}", services[i].credits.total_outstanding()),
        ]);
        total.tenants += t.tenants;
        total.requests += t.requests;
        total.admitted += t.admitted;
        total.refused += t.refused;
        total.errors += t.errors;
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "total: {req} requests in {wall:.2} s ({rate:.0} req/s), \
         admitted {adm}/{ten}, refused {refv}, errors {err}\n\n",
        req = total.requests,
        rate = total.requests as f64 / wall.max(1e-9),
        adm = total.admitted,
        ten = total.tenants,
        refv = total.refused,
        err = total.errors,
    ));
    assert_eq!(total.tenants, u64::from(tenants), "every tenant must run");
    assert_eq!(total.errors, 0, "storm sessions must not error");
    assert_eq!(total.refused, 0, "the pool must admit every storm order");
    assert_eq!(total.admitted, total.tenants, "every order admitted");
    (out, total.requests)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_runs_every_tenant_exactly_once() {
        // Small enough for a unit test, uneven enough to exercise the
        // chunking (50 tenants over 3 shards never divides evenly).
        let (text, requests) = storm(50, 3);
        assert!(text.contains("50 tenants across 3 shard(s)"), "{text}");
        // Each tenant's session is deposit + register + order +
        // STORM_TICKS reports + complete.
        assert_eq!(requests, 50 * (3 + u64::from(STORM_TICKS) + 1));
        assert!(text.contains("admitted 50/50"), "{text}");
    }

    #[test]
    fn small_multitenant_report_renders() {
        let opts = Opts {
            scale: 0.25,
            ..Opts::default()
        };
        let text = table_for(&opts, 2);
        assert!(text.contains("2 tenants"));
        assert!(text.contains("events/s"));
        // Two tenant rows plus header/summary.
        assert!(text.lines().count() >= 5);
    }
}
