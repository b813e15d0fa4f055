//! A/B + scaling benchmark for the fleet supervision tree. Both parts
//! run their legs in interleaved rounds ([`mcfi_bench::timing`]) and
//! write one report, `BENCH_fleet.json`.
//!
//! Part 1 (A/B): aggregate guest throughput and shed rate versus fleet
//! size, with and without a chaos storm blowing through every tenant.
//!
//! For each fleet size the same dlopen-heavy tenants are driven through
//! the same request budget in two legs:
//!
//! - **plain**: no chaos armed — every request serves;
//! - **storm**: a seeded [`Storm`] fans an independent fault plan across
//!   each tenant; the restart/breaker machinery eats some of the budget
//!   in sheds and reboots.
//!
//! Exits non-zero if storm throughput's median per-round share of plain
//! drops below a fixed fraction at any size — chaos must degrade the
//! fleet, not collapse it.
//!
//! Part 2 (thread sweep): the same tenant set, now attached to one
//! [`SharedImage`], is driven by the fleet's worker pool at 1/2/4/8
//! threads, one leg per thread count. Reports aggregate steps/sec per
//! thread count beside the requests served and shed and the restarts,
//! plus the p50/p99 latency of TxChecks sampled by a probe shard
//! attached to the same image while the fleet storms around it. The
//! rows do not serve equal work (see EXPERIMENTS.md), so steps/sec
//! across them is not a scaling figure. On hosts with ≥ 4 available
//! cores, exits non-zero if the median per-round 4-thread aggregate
//! throughput is below 2× the single-thread run's; on smaller hosts the
//! ratio is reported but the gate cannot physically hold and is
//! recorded as skipped.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use mcfi::{
    compile_module, Backoff, BuildOptions, Fleet, FleetOptions, FleetStats, Id, Module,
    ProcessOptions, RecoveryPolicy, RestartStrategy, Schedule, SharedImage, Storm, StormKind,
    TenantSpec, ViolationPolicy,
};
use mcfi_bench::timing::{cores, quantile, ratio, rounds, Bound, Report};

const SIZES: [usize; 3] = [2, 4, 8];
const REQUESTS_PER_TENANT: u64 = 40;
const STORM_SEED: u64 = 2014;
const FAULTS_PER_TENANT: usize = 4;
/// Storm throughput below this fraction of plain fails the bench.
const FLOOR: f64 = 0.20;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const MT_TENANTS: usize = 8;
const MT_REQUESTS_PER_TENANT: u64 = 24;
/// 4-thread aggregate throughput below this multiple of single-thread
/// fails the bench (only enforced when the host has ≥ 4 cores).
const MT_SPEEDUP_FLOOR: f64 = 2.0;

/// The guest: one loader round-trip (dlopen/dlsym, with a clean
/// fallback when a storm denies the load) plus a compute loop, so
/// throughput measures guest work, not just syscall dispatch.
const GUEST: &str = "int dlopen(char* name);\n\
     void* dlsym(char* name);\n\
     int main(void) {\n\
       int ok = dlopen(\"util\");\n\
       int (*f)(int) = (int(*)(int))dlsym(\"util_fn\");\n\
       int s = 0; int i = 0;\n\
       while (i < 2000) { s = s + i * 3 - (s / 7); i = i + 1; }\n\
       if (f) { return (s + f(ok)) % 97; }\n\
       return (s + 33) % 97;\n\
     }";

/// One tenant per fleet runs this instead: an enforced CFI violation
/// every request, driving the restart → intensity-ban → shed pipeline
/// so the bench exercises (and prices) the supervision tree itself, in
/// both the plain and storm variants.
const CRASHER: &str = "float fsq(float x) { return x * x; }\n\
     int main(void) {\n\
       void* raw = (void*)&fsq;\n\
       int (*f)(int) = (int(*)(int))raw;\n\
       return f(3);\n\
     }";

struct Prebuilt {
    base: Vec<Module>,
    crasher: Vec<Module>,
    util: Module,
}

fn prebuild() -> Prebuilt {
    let build = BuildOptions::default();
    let [stubs, libms, start] = mcfi::standard_modules(&build).expect("standard modules");
    let prog = compile_module("prog", GUEST, &build).expect("guest compiles");
    let bad = compile_module("prog", CRASHER, &build).expect("crasher compiles");
    let util = compile_module(
        "util",
        "int util_fn(int x) { return x * 3 + 1; }",
        &build,
    )
    .expect("library compiles");
    Prebuilt {
        base: vec![stubs.clone(), libms.clone(), prog, start.clone()],
        crasher: vec![stubs, libms, bad, start],
        util,
    }
}

fn specs(n: usize, pre: &Prebuilt) -> Vec<TenantSpec> {
    let recover =
        ProcessOptions { violation_policy: ViolationPolicy::Recover, ..Default::default() };
    let enforce =
        ProcessOptions { violation_policy: ViolationPolicy::Enforce, ..Default::default() };
    (0..n)
        .map(|i| {
            // The last tenant of every fleet is the crasher, so restart,
            // intensity-ban, and shed costs show up in both variants.
            if i == n - 1 {
                TenantSpec {
                    name: "crasher".to_string(),
                    image: None,
                    modules: pre.crasher.clone(),
                    libraries: Vec::new(),
                    entry: "__start".to_string(),
                    options: enforce,
                    recovery: RecoveryPolicy::default(),
                }
            } else {
                TenantSpec {
                    name: format!("tenant{i}"),
                    image: None,
                    modules: pre.base.clone(),
                    libraries: vec![("util".to_string(), pre.util.clone())],
                    entry: "__start".to_string(),
                    options: recover,
                    recovery: RecoveryPolicy::default(),
                }
            }
        })
        .collect()
}

fn opts() -> FleetOptions {
    FleetOptions {
        schedule: Schedule::RoundRobin,
        restart: RestartStrategy {
            max_restarts: 3,
            window: 60,
            backoff: Backoff::new(0x5eed, 2),
        },
        shed_threshold_pct: 50,
        max_steps_per_request: 1_000_000,
        record_results: false,
        threads: 1,
    }
}

/// One storm-sweep run: steps/sec and the fleet's stats.
fn drive(n: usize, pre: &Prebuilt, storm: Option<Storm>) -> (f64, FleetStats) {
    let mut fleet = Fleet::new(specs(n, pre), opts()).expect("fleet boots");
    if let Some(storm) = storm {
        fleet.arm_storm(storm);
    }
    let t = Instant::now();
    fleet.run_requests(n as u64 * REQUESTS_PER_TENANT);
    let elapsed = t.elapsed().as_secs_f64();
    let s = fleet.stats();
    (s.steps as f64 / elapsed.max(1e-9), s)
}

/// What one thread-sweep run measures, in [`mt_drive`]'s order.
const MT_ROWS: [(&str, &str); 7] = [
    ("throughput", "steps/s"),
    ("served", "requests"),
    ("shed", "requests"),
    ("restarts", "count"),
    ("TxCheck p50", "ns"),
    ("TxCheck p99", "ns"),
    ("TxChecks sampled", "count"),
];

/// One thread-scaling drive: `MT_TENANTS` tenants attached to a single
/// [`SharedImage`], a mild storm on top, and a probe shard on the same
/// image timing TxChecks while the fleet runs. Returns the [`MT_ROWS`].
fn mt_drive(threads: usize, pre: &Prebuilt) -> [f64; 7] {
    let recover =
        ProcessOptions { violation_policy: ViolationPolicy::Recover, ..Default::default() };
    let image = SharedImage::build(pre.base.clone(), recover).expect("image builds");
    let tenant_specs: Vec<TenantSpec> = (0..MT_TENANTS)
        .map(|i| TenantSpec {
            name: format!("tenant{i}"),
            image: Some(image.clone()),
            modules: Vec::new(),
            libraries: vec![("util".to_string(), pre.util.clone())],
            entry: "__start".to_string(),
            options: recover,
            recovery: RecoveryPolicy::default(),
        })
        .collect();
    let mut o = opts();
    o.threads = threads;
    let mut fleet = Fleet::new(tenant_specs, o).expect("fleet boots");
    fleet.arm_storm(Storm {
        seed: STORM_SEED,
        kind: StormKind::Random { faults: FAULTS_PER_TENANT },
    });
    let budget = MT_TENANTS as u64 * MT_REQUESTS_PER_TENANT;

    // The probe's check edge: a real (branch slot, target) pair from the
    // image policy, checked through a delta shard of its own.
    let base = image.tables().base();
    let (addr, id) = base.tary_view().targets().next().expect("the image has targets");
    let slot = (0..base.bary_len())
        .find(|&s| Id::from_word(base.bary_word(s)).is_some_and(|x| x.ecn() == id.ecn()))
        .expect("some branch shares the target's class");
    let probe_tables = image.tables().attach();

    let done = AtomicBool::new(false);
    let (elapsed, mut latencies) = std::thread::scope(|scope| {
        let probe = scope.spawn(|| {
            let mut lat = Vec::with_capacity(1 << 16);
            while !done.load(Ordering::Acquire) {
                let t0 = Instant::now();
                let ok = probe_tables.check(slot, addr).is_ok();
                lat.push(t0.elapsed().as_nanos() as f64);
                assert!(ok, "the probe edge is always in policy");
                // Don't starve the fleet on small hosts.
                if lat.len() % 64 == 0 {
                    std::thread::yield_now();
                }
            }
            lat
        });
        let t0 = Instant::now();
        fleet.run_requests(budget);
        let elapsed = t0.elapsed().as_secs_f64();
        done.store(true, Ordering::Release);
        (elapsed, probe.join().expect("probe thread"))
    });

    latencies.sort_by(f64::total_cmp);
    let s = fleet.stats();
    [
        s.steps as f64 / elapsed.max(1e-9),
        s.served as f64,
        s.shed as f64,
        s.restarts as f64,
        quantile(&latencies, 0.50),
        quantile(&latencies, 0.99),
        latencies.len() as f64,
    ]
}

fn main() {
    println!("fleet A/B (plain vs chaos storm, {REQUESTS_PER_TENANT} requests/tenant)\n");
    let pre = prebuild();
    let storm = Storm { seed: STORM_SEED, kind: StormKind::Random { faults: FAULTS_PER_TENANT } };
    let mut report = Report::new("fleet");
    for n in SIZES {
        let runs = rounds(2, |leg| drive(n, &pre, (leg == 1).then_some(storm)));
        let sps: Vec<Vec<f64>> = runs.iter().map(|leg| leg.iter().map(|r| r.0).collect()).collect();
        report.row(format!("{n} tenants/plain"), "steps/s", &sps[0]);
        report.row(format!("{n} tenants/storm"), "steps/s", &sps[1]);
        let s = &runs[1][0].1;
        for (counter, value) in [
            ("shed rate", s.shed as f64 / s.requests.max(1) as f64),
            ("restarts", s.restarts as f64),
            ("bans", s.bans as f64),
            ("faults fired", s.faults_fired as f64),
        ] {
            report.fact(format!("{n} tenants/storm {counter}"), value);
        }
        let r = report.row(format!("{n} tenants/storm÷plain"), "x", &ratio(&sps[1], &sps[0]));
        let gate = format!("{n}-tenant storm/plain steps/s");
        report.gate(&gate, r.median, Bound::AtLeast(FLOOR), true);
    }

    println!(
        "\nfleet thread scaling ({MT_TENANTS} shared-image tenants, \
         {MT_REQUESTS_PER_TENANT} requests/tenant)\n"
    );
    let runs = rounds(THREAD_COUNTS.len(), |leg| mt_drive(THREAD_COUNTS[leg], &pre));
    for (threads, leg) in THREAD_COUNTS.iter().zip(&runs) {
        for (i, (metric, unit)) in MT_ROWS.iter().enumerate() {
            let values: Vec<f64> = leg.iter().map(|r| r[i]).collect();
            report.row(format!("{threads} threads/{metric}"), unit, &values);
        }
    }
    let sps = |leg: usize| runs[leg].iter().map(|r| r[0]).collect::<Vec<f64>>();
    let quad = THREAD_COUNTS.iter().position(|&t| t == 4).expect("the sweep includes 4 threads");
    let speedup = report.row("4 threads÷1 thread", "x", &ratio(&sps(quad), &sps(0)));
    report.gate(
        "4-thread/1-thread steps/s",
        speedup.median,
        Bound::AtLeast(MT_SPEEDUP_FLOOR),
        cores() >= 4,
    );
    report.finish();
}
