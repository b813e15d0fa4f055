//! Multithreaded fleet battery: conservation laws under worker-pool
//! storm drives, byte-for-byte equivalence of `threads = 1` with the
//! deterministic driver, per-tenant trajectory invariance across thread
//! counts, and concurrent dlopen storms over one shared image.
//!
//! Wall-clock interleaving at `threads > 1` is nondeterministic, so
//! these tests assert what *must* survive any interleaving: every
//! scheduled request is served or shed exactly once, restarts are
//! neither lost nor double counted, and each tenant's local trajectory
//! (it depends only on its own tick sequence once overload coupling is
//! disabled) is identical to the single-threaded run's.

use mcfi::{
    compile_module, standard_modules, BuildOptions, FaultPlan, FaultPoint, Fleet, FleetOptions,
    FleetStats, Module, ProcessOptions, RecoveryPolicy, RestartStrategy, Schedule, SharedImage,
    Storm, StormKind, TenantHealth, TenantSpec, ViolationPolicy,
};
use mcfi::Backoff;

/// See tests/fleet.rs: first request of a process lifetime exits 17,
/// later ones 16, denied-load ones 33 — all deterministic.
const DLOPEN_GUEST: &str = "int dlopen(char* name);\n\
     void* dlsym(char* name);\n\
     int main(void) {\n\
       int ok = dlopen(\"util\");\n\
       int (*f)(int) = (int(*)(int))dlsym(\"util_fn\");\n\
       if (f) {\n\
         return f(5) + ok;\n\
       }\n\
       return 33;\n\
     }";

/// Violates under `Enforce`: every request is a terminal failure.
const CRASHER: &str = "float fsq(float x) { return x * x; }\n\
     int main(void) {\n\
       void* raw = (void*)&fsq;\n\
       int (*f)(int) = (int(*)(int))raw;\n\
       return f(3);\n\
     }";

struct Prebuilt {
    dlopen: Vec<Module>,
    crasher: Vec<Module>,
    util: Module,
}

fn prebuild() -> Prebuilt {
    let build = BuildOptions::default();
    let [stubs, libms, start] = standard_modules(&build).expect("standard modules compile");
    let prog = compile_module("prog", DLOPEN_GUEST, &build).expect("guest compiles");
    let bad = compile_module("prog", CRASHER, &build).expect("crasher compiles");
    let util = compile_module("util", "int util_fn(int x) { return x * 3 + 1; }", &build)
        .expect("library compiles");
    Prebuilt {
        dlopen: vec![stubs.clone(), libms.clone(), prog, start.clone()],
        crasher: vec![stubs, libms, bad, start],
        util,
    }
}

fn dlopen_spec(name: &str, pre: &Prebuilt) -> TenantSpec {
    TenantSpec {
        name: name.to_string(),
        image: None,
        modules: pre.dlopen.clone(),
        libraries: vec![("util".to_string(), pre.util.clone())],
        entry: "__start".to_string(),
        options: ProcessOptions {
            violation_policy: ViolationPolicy::Recover,
            ..Default::default()
        },
        recovery: RecoveryPolicy::default(),
    }
}

fn crasher_spec(name: &str, pre: &Prebuilt) -> TenantSpec {
    TenantSpec {
        name: name.to_string(),
        image: None,
        modules: pre.crasher.clone(),
        libraries: Vec::new(),
        entry: "__start".to_string(),
        options: ProcessOptions {
            violation_policy: ViolationPolicy::Enforce,
            ..Default::default()
        },
        recovery: RecoveryPolicy::default(),
    }
}

fn opts(threads: usize) -> FleetOptions {
    FleetOptions {
        schedule: Schedule::RoundRobin,
        restart: RestartStrategy {
            max_restarts: 2,
            window: 40,
            backoff: Backoff::new(0xbeef, 2),
        },
        // Overload shedding is the one cross-tenant coupling; disabling
        // it makes every tenant's trajectory a pure function of its own
        // tick sequence, in any drive mode.
        shed_threshold_pct: 100,
        max_steps_per_request: 2_000_000,
        record_results: false,
        threads,
    }
}

/// The conservation laws every pool drive must satisfy: requests are
/// served or shed exactly once, restarts never exceed failures, the
/// rollup agrees with the per-tenant breakdown, and the workers claimed
/// every tenant with a budget and drove every request exactly once
/// between them.
fn assert_conserved(s: &FleetStats, budget: u64) {
    assert_eq!(s.requests, budget, "every scheduled request was accounted");
    let mut requests = 0u64;
    let mut restarts = 0u64;
    for t in &s.per_tenant {
        assert_eq!(
            t.requests,
            t.served + t.banned_sheds + t.breaker_sheds + t.overload_sheds,
            "tenant {} leaked or double-counted a request: {t:?}",
            t.name
        );
        assert!(t.failures <= t.served, "{}: failures happen on served requests", t.name);
        assert!(t.restarts <= t.failures, "{}: a restart needs a failure", t.name);
        requests += t.requests;
        restarts += t.restarts;
    }
    assert_eq!(s.requests, requests, "rollup matches the per-tenant sum");
    assert_eq!(s.served + s.shed, s.requests, "served + shed covers everything");
    assert_eq!(s.restarts, restarts, "no lost or double-counted restarts");
    assert_eq!(
        s.workers.iter().map(|w| w.requests).sum::<u64>(),
        budget,
        "the workers drove every request exactly once between them: {:?}",
        s.workers
    );
    assert_eq!(
        s.workers.iter().map(|w| w.tenants).sum::<u64>(),
        s.per_tenant.iter().filter(|t| t.requests > 0).count() as u64,
        "every tenant with a budget was claimed exactly once: {:?}",
        s.workers
    );
}

#[test]
fn a_multithreaded_storm_conserves_every_counter() {
    let pre = prebuild();
    const N: usize = 8;
    const PER_TENANT: u64 = 10;
    let mut specs: Vec<TenantSpec> =
        (0..N - 2).map(|i| dlopen_spec(&format!("t{i}"), &pre)).collect();
    specs.push(crasher_spec("bad0", &pre));
    specs.push(crasher_spec("bad1", &pre));
    let mut o = opts(4);
    o.shed_threshold_pct = 50; // let overload shedding race too
    o.restart.backoff = Backoff::new(7, 0); // immediate probes: bans land in-budget
    let mut fleet = Fleet::new(specs, o).expect("boots");
    fleet.arm_storm(Storm { seed: 7, kind: StormKind::AllPoints });
    let budget = N as u64 * PER_TENANT;
    fleet.run_requests(budget);

    let s = fleet.stats();
    assert_conserved(&s, budget);
    assert!(s.faults_fired > 0, "the storm bit: {s:?}");
    assert_eq!(s.workers.len(), 4, "one stats row per worker");

    // The crashers hit the intensity ban with *exact* restart
    // accounting: max_restarts reboots, then the (max_restarts + 1)-th
    // failure inside the window bans — under 4 racing workers too.
    for name in ["bad0", "bad1"] {
        let t = s.per_tenant.iter().find(|t| t.name == name).expect("crasher row");
        assert_eq!(t.health, TenantHealth::Banned, "{t:?}");
        assert_eq!(t.restarts, 2, "no lost or double restart: {t:?}");
        assert_eq!(t.failures, 3, "{t:?}");
    }
}

#[test]
fn threads_one_is_byte_identical_to_the_deterministic_driver() {
    let pre = prebuild();
    let drive = |threads: usize| {
        let specs = vec![
            dlopen_spec("t0", &pre),
            dlopen_spec("t1", &pre),
            crasher_spec("bad", &pre),
        ];
        let mut o = opts(threads);
        o.record_results = true;
        o.schedule = Schedule::Seeded(0xfeed);
        let mut fleet = Fleet::new(specs, o).expect("boots");
        fleet.arm_storm(Storm { seed: 3, kind: StormKind::Random { faults: 4 } });
        fleet.run_requests(36);
        fleet
    };
    // threads = 0 and threads = 1 both mean "the deterministic loop";
    // their stats must match byte-for-byte through the JSON artifact
    // encoding, results included.
    let (a, b) = (drive(1), drive(0));
    assert_eq!(
        serde_json::to_string(&a.stats()).expect("serializes"),
        serde_json::to_string(&b.stats()).expect("serializes"),
        "threads=1 reproduces the deterministic fixture byte-for-byte"
    );
    for i in 0..3 {
        assert_eq!(a.results(i), b.results(i), "tenant {i} results");
    }
}

#[test]
fn per_tenant_trajectories_match_the_deterministic_run_at_any_thread_count() {
    let pre = prebuild();
    const N: usize = 6;
    const PER_TENANT: u64 = 8;
    let drive = |threads: usize| {
        let mut specs: Vec<TenantSpec> =
            (0..N - 1).map(|i| dlopen_spec(&format!("t{i}"), &pre)).collect();
        specs.push(crasher_spec("bad", &pre));
        let mut fleet = Fleet::new(specs, opts(threads)).expect("boots");
        fleet.arm_storm(Storm { seed: 11, kind: StormKind::Random { faults: 3 } });
        fleet.run_requests(N as u64 * PER_TENANT);
        fleet.stats()
    };
    let st = drive(1);
    for threads in [2usize, 4] {
        let mt = drive(threads);
        // With overload coupling disabled, a tenant's counters — digest
        // included, which folds every served RunResult byte — are a
        // pure function of its local tick sequence, so which worker
        // claims a tenant must not change a single one of them.
        assert_eq!(
            st.per_tenant, mt.per_tenant,
            "{threads}-thread drive perturbed a tenant trajectory"
        );
        assert_conserved(&mt, N as u64 * PER_TENANT);
    }
}

#[test]
fn concurrent_dlopen_storms_heal_across_shared_image_tenants() {
    // Twelve tenants attached to ONE shared image, each request doing a
    // dlopen round-trip: per-process loads commit update transactions
    // against the shared protocol core while every other tenant runs
    // check transactions, from four racing workers, under an all-points
    // storm that makes loads fail and processes restart (re-attach).
    let pre = prebuild();
    const N: usize = 12;
    const PER_TENANT: u64 = 8;
    let image = SharedImage::build(
        pre.dlopen.clone(),
        ProcessOptions { violation_policy: ViolationPolicy::Recover, ..Default::default() },
    )
    .expect("image builds");
    let specs: Vec<TenantSpec> = (0..N)
        .map(|i| TenantSpec {
            name: format!("t{i}"),
            image: Some(image.clone()),
            modules: Vec::new(),
            libraries: vec![("util".to_string(), pre.util.clone())],
            entry: "__start".to_string(),
            options: image.options(),
            recovery: RecoveryPolicy::default(),
        })
        .collect();
    let mut fleet = Fleet::new(specs, opts(4)).expect("boots");
    fleet.arm_storm(Storm { seed: 21, kind: StormKind::AllPoints });
    let budget = N as u64 * PER_TENANT;
    let epoch_before = image.epoch();
    fleet.run_requests(budget);

    let s = fleet.stats();
    assert_conserved(&s, budget);
    assert!(s.served > 0, "{s:?}");
    assert!(s.faults_fired > 0, "{s:?}");
    assert_eq!(image.attached(), N, "every tenant (restarts included) is attached");
    assert!(
        image.epoch() > epoch_before,
        "the dlopen traffic committed image-wide transactions"
    );

    // The image is still healthy enough for a batched retarget of every
    // surviving tenant: re-publish the current policy in one update.
    let stats = image.bump_all();
    assert!(stats.completed, "{stats:?}");
}

#[test]
fn scheduler_chaos_perturbs_scheduling_but_not_tenant_results() {
    // WorkerStall parks a worker on the tenant it just claimed, which
    // reshuffles *which worker* serves the other tenants; that must not
    // change *what* any tenant computes.
    let pre = prebuild();
    const N: usize = 4;
    const PER_TENANT: u64 = 8;
    let specs = |pre: &Prebuilt| -> Vec<TenantSpec> {
        (0..N).map(|i| dlopen_spec(&format!("t{i}"), pre)).collect()
    };
    let mut baseline = Fleet::new(specs(&pre), opts(1)).expect("boots");
    baseline.run_requests(N as u64 * PER_TENANT);
    let base_stats = baseline.stats();

    let mut fleet = Fleet::new(specs(&pre), opts(3)).expect("boots");
    for i in 0..N {
        fleet.arm_tenant_plan(i, FaultPlan::new().with(FaultPoint::WorkerStall, 1, 2_000));
    }
    fleet.run_requests(N as u64 * PER_TENANT);
    let s = fleet.stats();
    assert_conserved(&s, N as u64 * PER_TENANT);
    assert_eq!(
        s.workers.iter().map(|w| w.stalls).sum::<u64>(),
        N as u64,
        "each armed tenant stalled its worker once, on its one claim: {:?}",
        s.workers
    );
    for (a, b) in base_stats.per_tenant.iter().zip(&s.per_tenant) {
        assert_eq!(a.digest, b.digest, "tenant {} served different bytes", a.name);
        assert_eq!(a.served, b.served, "tenant {}", a.name);
        assert_eq!(a.requests, b.requests, "tenant {}", a.name);
    }
}
