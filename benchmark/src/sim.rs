//! The two simulator workloads: no socket, no codec — trace build → event
//! queue → middleware model → QoS hook → in-process `handle`.
//!
//! Host time is what is measured (simulated events per second of wall);
//! simulated results must not move at all: event totals and a checksum
//! of completion times and credits are compared between repeats, and
//! with the stored goldens when the seed has one.

use crate::args::Args;
use crate::crc::Crc32;
use crate::metrics::Samples;
use crate::procfs;
use crate::speed::Speed;
use crate::stats::quantile_us;
use crate::trace::{Recorder, ROOT};
use betrace::Preset;
use botwork::BotClass;
use simcore::{EventQueue, SimDuration, SimTime};
use spequlos::protocol::{Request, Response, SpqService};
use spequlos::{SpeQuloS, StrategyCombo};
use spq_harness::{ExecutionMetrics, Experiment, MwKind, Scenario, TenantArrivals};
use std::time::{Duration, Instant};

/// Infrastructure scale of the campaign's scenarios: small enough that
/// all 36 environments fit a repeat several times over.
const CAMPAIGN_SCALE: f64 = 0.05;
/// Campaign seeds, and multi-tenant clusters, per second of a repeat's
/// budget (README.md, "Sizing").
const CAMPAIGN_SEEDS_PER_S: f64 = 3.0;
const CLUSTERS_PER_S: f64 = 5.0;
/// Tenants of one multi-tenant cluster.
const TENANTS: u32 = 32;

/// Event total and result checksum of one unit of simulated work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Outcome {
    events: u64,
    checksum: u32,
}

const fn golden(events: u64, checksum: u32) -> Outcome {
    Outcome { events, checksum }
}

/// Seed-1 goldens of the first units, by unit index (campaign seed `i`,
/// cluster `j`), as measured at the commit that introduced the
/// benchmark. A unit beyond the stored ones is checked against the first
/// repeat only, and printed so that it can be stored.
const CAMPAIGN_GOLDEN_SEED_1: &[Outcome] = &[
    golden(1_340_085, 1348373625),
    golden(1_353_711, 1076126227),
    golden(1_391_128, 3533433863),
    golden(1_426_544, 1790374049),
    golden(1_450_885, 924364599),
    golden(1_387_251, 3907331509),
    golden(1_369_768, 1036663086),
    golden(1_398_862, 2071122157),
];
/// Cluster 0 is the repository's 32-tenant golden (`tests/determinism.rs`,
/// `BENCH_repro_multitenant.json`): 869 375 events.
const MULTITENANT_GOLDEN_SEED_1: &[Outcome] = &[
    golden(869_375, 360273592),
    golden(867_377, 866109619),
    golden(862_390, 3163811663),
    golden(866_478, 477053476),
    golden(865_648, 1936172802),
    golden(861_988, 3223646253),
    golden(866_187, 3583201203),
    golden(864_443, 3853549845),
    golden(869_277, 1239039001),
    golden(866_745, 56440465),
    golden(865_063, 3017103667),
    golden(865_353, 11298816),
];

/// What a simulator run accumulates.
pub struct Run<'a> {
    pub args: &'a Args,
    pub samples: Samples,
    pub rec: Recorder,
    pub attempted: u64,
    pub failed: u64,
    /// Probes around every unit of work; see [`crate::speed`].
    pub speed: Speed,
}

/// Host time of one repeat, at reference speed.
#[derive(Default)]
struct HostTime {
    wall_s: f64,
    cpu_ns: f64,
    /// Wall time of every unit (execution, cluster), in nanoseconds.
    unit_walls_ns: Vec<u64>,
}

impl HostTime {
    /// Books the units that ran since the last probe: `walls_ns` each,
    /// `cpu_ns` together, at the speed factor `factor`.
    fn book(&mut self, walls_ns: &[u64], cpu_ns: u64, factor: f64) {
        self.wall_s += walls_ns.iter().sum::<u64>() as f64 / 1e9 * factor;
        self.cpu_ns += cpu_ns as f64 * factor;
        self.unit_walls_ns
            .extend(walls_ns.iter().map(|&ns| (ns as f64 * factor) as u64));
    }
}

impl<'a> Run<'a> {
    pub fn new(args: &'a Args) -> Run<'a> {
        Run {
            args,
            samples: Samples::default(),
            rec: Recorder::new(args.trace),
            attempted: 0,
            failed: 0,
            speed: Speed::start(),
        }
    }

    fn units(&self, per_second: f64) -> usize {
        ((self.args.repeat_budget() * per_second).round() as usize).max(1)
    }

    /// Checks one repeat's outcomes against the first repeat's and the
    /// goldens; every unit is one attempted operation.
    fn check(&mut self, first: &mut Vec<Outcome>, got: Vec<Outcome>, golden: &[Outcome]) {
        self.attempted += got.len() as u64;
        if first.is_empty() {
            if self.args.seed == 1 {
                for (i, (g, o)) in golden.iter().zip(&got).enumerate() {
                    let g = Outcome {
                        checksum: g.checksum ^ u32::from(self.args.corrupt_oracle),
                        ..*g
                    };
                    if g != *o {
                        eprintln!("unit {i}: got {o:?}, golden {g:?}");
                        self.failed += 1;
                    }
                }
                for (i, o) in got.iter().enumerate().skip(golden.len()) {
                    println!("  unit {i} has no stored golden: {o:?}");
                }
            }
            *first = got;
            return;
        }
        for (i, (a, b)) in first.iter().zip(&got).enumerate() {
            if a != b {
                eprintln!("unit {i}: repeat gave {b:?}, first repeat {a:?}");
                self.failed += 1;
            }
        }
    }

    fn push_host_time(&mut self, events: u64, mut time: HostTime) {
        let throughput = events as f64 / time.wall_s;
        let cpu_us_per_op = time.cpu_ns / 1e3 / events as f64;
        if self.args.trace {
            self.samples.push("trace.throughput_per_s", throughput);
            self.samples.push("trace.cpu_us_per_op", cpu_us_per_op);
        } else {
            self.samples.push("throughput_per_s", throughput);
            self.samples.push("cpu_us_per_op", cpu_us_per_op);
            self.samples
                .push("latency_p25_us", quantile_us(&mut time.unit_walls_ns, 0.25));
        }
    }

    /// Ends a set-up that began at `since`, right after a probe.
    fn push_setup(&mut self, since: Instant) {
        let setup = since.elapsed().as_secs_f64() * self.speed.lap();
        if !self.args.trace {
            self.samples.push("setup_s", setup);
        }
    }
}

fn fold(crc: &mut Crc32, m: &ExecutionMetrics) {
    crc.update(&m.completion_secs.to_bits().to_le_bytes());
    crc.update(&m.credits_spent.to_bits().to_le_bytes());
    crc.update(&m.events.to_le_bytes());
}

fn campaign_scenarios(seed: u64) -> Vec<Scenario> {
    let mut scenarios = Vec::with_capacity(36);
    for preset in Preset::ALL {
        for mw in MwKind::ALL {
            for class in BotClass::ALL {
                let mut sc = Scenario::new(preset, mw, class, seed)
                    .with_strategy(StrategyCombo::paper_default());
                sc.scale = CAMPAIGN_SCALE;
                scenarios.push(sc);
            }
        }
    }
    scenarios
}

/// Set-up of one scenario: builds its trace and its BoT once and throws
/// them away, so that what the trace catalogue computes lazily and keeps
/// (the per-preset calibration) is paid before the timed section, which
/// builds both again inside `Experiment`.
fn warm_up(sc: &Scenario) {
    std::hint::black_box(sc.preset.spec().build(sc.seed, sc.scale));
    std::hint::black_box(Experiment::new(sc.clone()).bot());
}

/// A service that times itself: how much of a QoS run is `handle`.
struct TimedService {
    inner: SpeQuloS,
    calls: u64,
    busy: Duration,
}

impl SpqService for TimedService {
    fn handle(&mut self, request: Request, now: SimTime) -> Response {
        let start = Instant::now();
        let response = self.inner.handle(request, now);
        self.busy += start.elapsed();
        self.calls += 1;
        response
    }
}

/// `sim_campaign`: `Experiment::run_paired` over all 36 (trace ×
/// middleware × class) environments, for a few seeds derived from
/// `--seed`, on one thread.
pub fn sim_campaign(run: &mut Run<'_>) {
    let seeds = run.units(CAMPAIGN_SEEDS_PER_S);
    let me = procfs::current_tid();
    let mut first = Vec::new();
    for _ in 0..run.args.repeats {
        run.speed.skip();
        let t0 = Instant::now();
        let scenarios: Vec<Vec<Scenario>> = (0..seeds as u64)
            .map(|i| campaign_scenarios(run.args.seed.wrapping_mul(1_000).wrapping_add(i)))
            .collect();
        scenarios.iter().flatten().for_each(warm_up);
        run.push_setup(t0);
        let mut time = HostTime::default();
        let mut outcomes = Vec::with_capacity(seeds);
        let mut layers = CampaignLayers::default();
        for (i, per_seed) in scenarios.iter().enumerate() {
            let mut crc = Crc32::default();
            let mut events = 0;
            let cpu0 = procfs::thread_usage(me);
            let mut unit_walls = Vec::with_capacity(per_seed.len());
            for sc in per_seed {
                let unit = Instant::now();
                let (baseline, speq) = if run.args.trace {
                    layers.run(&mut run.rec, sc, i as u32)
                } else {
                    let paired = Experiment::new(sc.clone()).paired().run_paired();
                    (paired.baseline, paired.speq)
                };
                unit_walls.push(unit.elapsed().as_nanos() as u64);
                fold(&mut crc, &baseline);
                fold(&mut crc, &speq);
                events += baseline.events + speq.events;
            }
            let cpu = procfs::thread_usage(me).since(cpu0);
            time.book(&unit_walls, cpu.cpu_ns, run.speed.lap());
            outcomes.push(Outcome {
                events,
                checksum: crc.value(),
            });
        }
        let events: u64 = outcomes.iter().map(|o| o.events).sum();
        run.push_host_time(events, time);
        if run.args.trace {
            layers.push(&mut run.samples, events);
        }
        run.check(&mut first, outcomes, CAMPAIGN_GOLDEN_SEED_1);
    }
    if run.args.trace {
        run.samples
            .push("simcore.queue_ns_per_op", queue_ns_per_op());
    }
}

/// The campaign taken apart for the traced run: baseline and QoS halves
/// timed separately, the service timing itself.
#[derive(Default)]
struct CampaignLayers {
    build: Duration,
    builds: u64,
    baseline: Duration,
    baseline_events: u64,
    qos: Duration,
    qos_events: u64,
    service: Duration,
    service_calls: u64,
}

impl CampaignLayers {
    fn run(
        &mut self,
        rec: &mut Recorder,
        sc: &Scenario,
        block: u32,
    ) -> (ExecutionMetrics, ExecutionMetrics) {
        let exp = Experiment::new(sc.clone());
        let execution = rec.open("execution", ROOT, block);

        let t = Instant::now();
        let dci = rec.time("betrace.build", execution, block, || {
            sc.preset.spec().build(sc.seed, sc.scale)
        });
        self.build += t.elapsed();
        self.builds += 1;
        std::hint::black_box(dci);

        let t = Instant::now();
        let baseline = rec.time("dgrid.baseline", execution, block, || exp.run_baseline());
        self.baseline += t.elapsed();
        self.baseline_events += baseline.events;

        let service = TimedService {
            inner: SpeQuloS::builder().tick(sc.tick).build(),
            calls: 0,
            busy: Duration::ZERO,
        };
        let t = Instant::now();
        let (speq, service) = rec.time("dgrid.qos", execution, block, || exp.run_qos_with(service));
        self.qos += t.elapsed();
        self.qos_events += speq.events;
        self.service += service.busy;
        self.service_calls += service.calls;

        rec.close(execution);
        (baseline, speq)
    }

    fn push(&self, samples: &mut Samples, events: u64) {
        samples.push(
            "betrace.build_ms",
            self.build.as_secs_f64() * 1e3 / self.builds as f64,
        );
        samples.push(
            "dgrid.baseline_ns_per_event",
            self.baseline.as_nanos() as f64 / self.baseline_events as f64,
        );
        samples.push(
            "dgrid.qos_ns_per_event",
            self.qos.as_nanos() as f64 / self.qos_events as f64,
        );
        samples.push("sim.service_calls", self.service_calls as f64);
        samples.push(
            "sim.service_share",
            self.service.as_secs_f64() / self.qos.as_secs_f64(),
        );
        samples.push("sim.events", events as f64);
    }
}

/// `EventQueue::schedule` + `pop` at a steady depth of 4 096 pending
/// events — the order of a campaign scenario's queue — per operation.
fn queue_ns_per_op() -> f64 {
    const DEPTH: u64 = 4_096;
    const OPS: u64 = 2_000_000;
    let mut queue: EventQueue<u64> = EventQueue::with_capacity(DEPTH as usize);
    let mut rng = simcore::Prng::seed_from(42);
    for i in 0..DEPTH {
        queue.schedule(SimTime::from_millis(rng.below(60_000)), i);
    }
    let start = Instant::now();
    let mut acc = 0u64;
    for _ in 0..OPS {
        let (now, event) = queue.pop().expect("the queue stays at its depth");
        acc = acc.wrapping_add(event);
        queue.schedule(now + SimDuration::from_millis(1 + rng.below(60_000)), event);
    }
    std::hint::black_box(acc);
    start.elapsed().as_nanos() as f64 / (2 * OPS) as f64
}

/// `sim_multitenant`: clusters of 32 tenants over a 16-worker pool with
/// tail-heavy arrivals over 2 h (G5kLyon / XWHEP / BIG); cluster `j`
/// bases its tenant seeds on `--seed + 1000·j`, so seed 1's first cluster
/// is the repository's 869 375-event golden.
pub fn sim_multitenant(run: &mut Run<'_>) {
    let clusters = run.units(CLUSTERS_PER_S);
    let me = procfs::current_tid();
    let mut first = Vec::new();
    for _ in 0..run.args.repeats {
        run.speed.skip();
        let t0 = Instant::now();
        let experiments: Vec<Experiment> = (0..clusters as u64)
            .map(|j| {
                let seed = run.args.seed.wrapping_add(1_000 * j);
                let sc = Scenario::new(Preset::G5kLyon, MwKind::Xwhep, BotClass::Big, seed)
                    .with_strategy(StrategyCombo::paper_default());
                // Tenant `i` runs the template on seed `base + i`.
                for tenant in 0..TENANTS {
                    let mut tenant_sc = sc.clone();
                    tenant_sc.seed = seed.wrapping_add(u64::from(tenant));
                    warm_up(&tenant_sc);
                }
                Experiment::new(sc)
                    .tenants(TENANTS)
                    .pool(16)
                    .arrivals(TenantArrivals::TailHeavy {
                        window: SimDuration::from_hours(2),
                    })
            })
            .collect();
        run.push_setup(t0);
        let mut time = HostTime::default();
        let mut outcomes = Vec::with_capacity(clusters);
        for (j, exp) in experiments.into_iter().enumerate() {
            let cpu0 = procfs::thread_usage(me);
            let unit = Instant::now();
            let report = run
                .rec
                .time("cluster", ROOT, j as u32, || exp.run_multi_tenant());
            let wall_ns = unit.elapsed().as_nanos() as u64;
            let cpu = procfs::thread_usage(me).since(cpu0);
            time.book(&[wall_ns], cpu.cpu_ns, run.speed.lap());
            let mut crc = Crc32::default();
            for tenant in &report.tenants {
                fold(&mut crc, &tenant.metrics);
            }
            outcomes.push(Outcome {
                events: report.events,
                checksum: crc.value(),
            });
        }
        let events: u64 = outcomes.iter().map(|o| o.events).sum();
        let ns_per_event = time.wall_s * 1e9 / events as f64;
        run.push_host_time(events, time);
        if run.args.trace {
            run.samples.push("sim.mt_ns_per_event", ns_per_event);
            run.samples.push("sim.events", events as f64);
        }
        run.check(&mut first, outcomes, MULTITENANT_GOLDEN_SEED_1);
    }
}
