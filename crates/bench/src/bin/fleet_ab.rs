//! A/B + scaling benchmark for the fleet supervision tree.
//!
//! Part 1 (A/B, `BENCH_fleet.json`): aggregate guest throughput and
//! shed rate versus fleet size, with and without a chaos storm blowing
//! through every tenant.
//!
//! For each fleet size the same dlopen-heavy tenants are driven through
//! the same request budget twice:
//!
//! - **plain**: no chaos armed — every request serves;
//! - **storm**: a seeded [`Storm`] fans an independent fault plan across
//!   each tenant; the restart/breaker machinery eats some of the budget
//!   in sheds and reboots.
//!
//! Exits non-zero if storm throughput drops below a fixed fraction of
//! the plain baseline at any size — chaos must degrade the fleet, not
//! collapse it.
//!
//! Part 2 (thread sweep, `BENCH_fleet_mt.json`): the same tenant set,
//! now attached to one [`SharedImage`], is driven by the fleet's worker
//! pool at 1/2/4/8 threads. Reports aggregate steps/sec per thread count
//! beside the requests served and shed and the restarts, plus the
//! p50/p99 latency of TxChecks sampled by a probe shard attached to the
//! same image while the fleet storms around it. The rows do not serve
//! equal work (see EXPERIMENTS.md), so steps/sec across them is not a
//! scaling figure. On hosts with ≥ 4 available cores, exits non-zero if
//! the 4-thread aggregate throughput is below 2× the single-thread run;
//! on smaller hosts the ratio is reported but the gate cannot physically
//! hold and is recorded as unenforced.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use mcfi::{
    compile_module, Backoff, BuildOptions, Fleet, FleetOptions, Id, Module, ProcessOptions,
    RecoveryPolicy, RestartStrategy, Schedule, SharedImage, Storm, StormKind, TenantSpec,
    ViolationPolicy, WorkerStats,
};
use serde::Serialize;

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

#[derive(Serialize)]
struct Row {
    tenants: u64,
    variant: String,
    requests: u64,
    served: u64,
    shed: u64,
    restarts: u64,
    bans: u64,
    steps: u64,
    faults_fired: u64,
    elapsed_s: f64,
    steps_per_sec: f64,
    shed_rate: f64,
}

#[derive(Serialize)]
struct Report {
    storm_seed: u64,
    faults_per_tenant: u64,
    requests_per_tenant: u64,
    floor: f64,
    rows: Vec<Row>,
}

#[derive(Serialize)]
struct MtRow {
    threads: u64,
    requests: u64,
    served: u64,
    shed: u64,
    restarts: u64,
    steps: u64,
    faults_fired: u64,
    elapsed_s: f64,
    steps_per_sec: f64,
    checks_sampled: u64,
    p50_check_ns: u64,
    p99_check_ns: u64,
    workers: Vec<WorkerStats>,
}

#[derive(Serialize)]
struct MtReport {
    tenants: u64,
    requests_per_tenant: u64,
    storm_seed: u64,
    thread_counts: Vec<u64>,
    speedup_floor: f64,
    host_parallelism: u64,
    gate_enforced: bool,
    speedup_4t: f64,
    rows: Vec<MtRow>,
}

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

fn drive(n: usize, pre: &Prebuilt, storm: Option<Storm>) -> Row {
    let mut fleet = Fleet::new(specs(n, pre), opts()).expect("fleet boots");
    if let Some(storm) = storm {
        fleet.arm_storm(storm);
    }
    let budget = n as u64 * REQUESTS_PER_TENANT;
    let t = Instant::now();
    fleet.run_requests(budget);
    let elapsed = t.elapsed().as_secs_f64();
    let s = fleet.stats();
    Row {
        tenants: s.tenants,
        variant: if storm.is_some() { "storm" } else { "plain" }.to_string(),
        requests: s.requests,
        served: s.served,
        shed: s.shed,
        restarts: s.restarts,
        bans: s.bans,
        steps: s.steps,
        faults_fired: s.faults_fired,
        elapsed_s: elapsed,
        steps_per_sec: s.steps as f64 / elapsed.max(1e-9),
        shed_rate: s.shed as f64 / s.requests.max(1) as f64,
    }
}

/// One thread-scaling drive: `MT_TENANTS` tenants attached to a single
/// [`SharedImage`], a mild storm on top, and a probe shard on the same
/// image timing TxChecks while the fleet runs.
fn mt_drive(threads: usize, pre: &Prebuilt) -> MtRow {
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
                lat.push(t0.elapsed().as_nanos() as u64);
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

    latencies.sort_unstable();
    let pct = |p: usize| latencies[(latencies.len() - 1) * p / 100];
    let s = fleet.stats();
    MtRow {
        threads: threads as u64,
        requests: s.requests,
        served: s.served,
        shed: s.shed,
        restarts: s.restarts,
        steps: s.steps,
        faults_fired: s.faults_fired,
        elapsed_s: elapsed,
        steps_per_sec: s.steps as f64 / elapsed.max(1e-9),
        checks_sampled: latencies.len() as u64,
        p50_check_ns: pct(50),
        p99_check_ns: pct(99),
        workers: s.workers,
    }
}

fn main() {
    println!("fleet A/B (plain vs chaos storm, {REQUESTS_PER_TENANT} requests/tenant)\n");
    let pre = prebuild();
    let storm = Storm { seed: STORM_SEED, kind: StormKind::Random { faults: FAULTS_PER_TENANT } };

    let mut rows = Vec::new();
    let mut worst_ratio = f64::INFINITY;
    for n in SIZES {
        let plain = drive(n, &pre, None);
        let stormy = drive(n, &pre, Some(storm));
        let ratio = stormy.steps_per_sec / plain.steps_per_sec.max(1e-9);
        worst_ratio = worst_ratio.min(ratio);
        println!(
            "{n} tenants: plain {:>12.0} steps/s | storm {:>12.0} steps/s ({:.0}% of plain, \
             shed rate {:.1}%, {} restarts, {} bans, {} faults)",
            plain.steps_per_sec,
            stormy.steps_per_sec,
            100.0 * ratio,
            100.0 * stormy.shed_rate,
            stormy.restarts,
            stormy.bans,
            stormy.faults_fired,
        );
        rows.push(plain);
        rows.push(stormy);
    }

    let report = Report {
        storm_seed: STORM_SEED,
        faults_per_tenant: FAULTS_PER_TENANT as u64,
        requests_per_tenant: REQUESTS_PER_TENANT,
        floor: FLOOR,
        rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_fleet.json", format!("{json}\n")).expect("write BENCH_fleet.json");
    println!("\nwrote BENCH_fleet.json");

    println!(
        "\nfleet thread scaling ({MT_TENANTS} shared-image tenants, \
         {MT_REQUESTS_PER_TENANT} requests/tenant)\n"
    );
    let mut mt_rows = Vec::new();
    for threads in THREAD_COUNTS {
        let row = mt_drive(threads, &pre);
        println!(
            "{threads} thread(s): {:>12.0} steps/s | served {:>3}/{} shed {:>3} \
             restarts {:>2} | TxCheck p50 {:>6} ns p99 {:>7} ns ({} checks sampled)",
            row.steps_per_sec,
            row.served,
            row.requests,
            row.shed,
            row.restarts,
            row.p50_check_ns,
            row.p99_check_ns,
            row.checks_sampled,
        );
        mt_rows.push(row);
    }
    let single = mt_rows[0].steps_per_sec;
    let quad = mt_rows
        .iter()
        .find(|r| r.threads == 4)
        .expect("the sweep includes 4 threads")
        .steps_per_sec;
    let speedup_4t = quad / single.max(1e-9);
    let host_parallelism =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as u64;
    let gate_enforced = host_parallelism >= 4;

    let mt_report = MtReport {
        tenants: MT_TENANTS as u64,
        requests_per_tenant: MT_REQUESTS_PER_TENANT,
        storm_seed: STORM_SEED,
        thread_counts: THREAD_COUNTS.iter().map(|&t| t as u64).collect(),
        speedup_floor: MT_SPEEDUP_FLOOR,
        host_parallelism,
        gate_enforced,
        speedup_4t,
        rows: mt_rows,
    };
    let json = serde_json::to_string_pretty(&mt_report).expect("mt report serializes");
    std::fs::write("BENCH_fleet_mt.json", format!("{json}\n"))
        .expect("write BENCH_fleet_mt.json");
    println!("\nwrote BENCH_fleet_mt.json");

    let mut failed = false;
    if worst_ratio < FLOOR {
        eprintln!(
            "\nFAIL: storm throughput fell to {:.0}% of plain (floor {:.0}%)",
            100.0 * worst_ratio,
            100.0 * FLOOR
        );
        failed = true;
    } else {
        println!(
            "\nPASS: storm throughput stayed at or above {:.0}% of plain everywhere \
             (worst {:.0}%)",
            100.0 * FLOOR,
            100.0 * worst_ratio
        );
    }
    if gate_enforced && speedup_4t < MT_SPEEDUP_FLOOR {
        eprintln!(
            "FAIL: 4-thread throughput is {speedup_4t:.2}× single-thread \
             (floor {MT_SPEEDUP_FLOOR:.1}×)"
        );
        failed = true;
    } else if gate_enforced {
        println!(
            "PASS: 4-thread throughput is {speedup_4t:.2}× single-thread \
             (floor {MT_SPEEDUP_FLOOR:.1}×)"
        );
    } else {
        println!(
            "SKIP: 4-thread speedup gate needs ≥ 4 cores (host has {host_parallelism}); \
             measured {speedup_4t:.2}×"
        );
    }
    if failed {
        std::process::exit(1);
    }
}
