//! Self-healing supervisor integration tests: a supervised process must
//! reach the **same final outcome** under seeded fault plans as it does
//! fault-free, recovering via checkpoints, module quarantine, and the
//! updater-lease watchdog along the way.
//!
//! These are the acceptance tests for the recovery subsystem: the first
//! sweeps the randomized seed matrix (`MCFI_CHAOS_SEED`), the second
//! walks an explicit plan that fires **every** fault point at least once.

use mcfi::{
    compile_module, BuildOptions, FaultPlan, FaultPoint, Outcome, ProcessOptions, QuarantineConfig,
    RecoveryPolicy, Supervisor, System, ViolationPolicy,
};

fn opts() -> BuildOptions {
    BuildOptions::default()
}

fn chaos_seed() -> u64 {
    std::env::var("MCFI_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42)
}

/// A dlopen-heavy guest that *retries* failed loads, spinning between
/// rounds so quarantine backoff windows can expire. With every library
/// eventually loaded it returns 7 (`a*4 + b*2 + c`); anything else means
/// a load was permanently lost.
const RETRY_HOST: &str = r#"
    int dlopen(char* name);
    int main(void) {
        int a = 0; int b = 0; int c = 0; int tries = 0;
        while (tries < 12) {
            if (a == 0) { a = dlopen("l1"); }
            if (b == 0) { b = dlopen("l2"); }
            if (c == 0) { c = dlopen("l3"); }
            int i = 0;
            while (i < 200) { i = i + 1; }
            tries = tries + 1;
        }
        return a * 4 + b * 2 + c;
    }
"#;

fn boot_retry_host(plan: Option<FaultPlan>) -> (Supervisor, Option<std::sync::Arc<mcfi::ChaosInjector>>) {
    let proc_opts =
        ProcessOptions { max_steps: 400_000, checkpoint_interval: 2_000, ..Default::default() };
    let mut sys = System::boot_source_with(RETRY_HOST, &opts(), proc_opts).expect("boots");
    for i in 1..=3 {
        let lib = compile_module(
            &format!("l{i}"),
            &format!("int lib{i}_fn(int v) {{ return v + {i}; }}"),
            &opts(),
        )
        .expect("lib compiles");
        sys.register_library(&format!("l{i}"), lib);
    }
    let injector = plan.map(|p| sys.process().arm_chaos(p));
    let policy = RecoveryPolicy {
        quarantine: QuarantineConfig { max_failures: 10, base_backoff: 64, seed: 5 },
        ..Default::default()
    };
    (Supervisor::new(sys.into_process(), policy), injector)
}

/// The seed-matrix acceptance test: under a randomized four-fault plan a
/// supervised retrying guest converges to the exact outcome of its
/// fault-free twin. Rejected loads back off and retry; the stray
/// checkpoint/restore faults in the plan stay harmless because no
/// restore is ever needed.
#[test]
fn seeded_chaos_plans_converge_to_the_fault_free_outcome() {
    let (mut clean, _) = boot_retry_host(None);
    let baseline = clean.run("__start").expect("runs");
    assert_eq!(baseline.outcome, Outcome::Exit { code: 7 }, "stdout: {}", baseline.stdout);

    let seed = chaos_seed();
    let (mut sup, injector) = boot_retry_host(Some(FaultPlan::random(seed, 4)));
    let r = sup.run("__start").expect("runs");
    assert_eq!(r.outcome, baseline.outcome, "seed {seed} must converge");
    assert!(r.checkpoints >= 1, "the supervisor checkpointed the run");
    assert!(!sup.stats().escalated, "no violation, no escalation");

    // Replay determinism: the same seed fires the same faults.
    let (mut again, injector2) = boot_retry_host(Some(FaultPlan::random(seed, 4)));
    let r2 = again.run("__start").expect("runs");
    assert_eq!(r2.outcome, r.outcome);
    assert_eq!(injector.unwrap().fired(), injector2.unwrap().fired());
}

/// Every fault point the chaos layer knows, fired once, in one process
/// lifetime — load-time rejections, a stalled-then-warped update, a
/// corrupted checkpoint, an injected restore failure, a torn Tary
/// stream, and a crashed updater — and the supervised process still
/// lands on the fault-free outcome every time.
#[test]
fn every_fault_point_fires_and_the_supervised_outcome_still_converges() {
    // `evil` exports a float function the host calls through an int
    // pointer: loading it is fine, calling it is a CFI violation.
    let evil_src = "float evil_fn(float x) { return x * 2.0; }";
    let host = r#"
        int dlopen(char* name);
        void* dlsym(char* name);
        int main(void) {
            int tries = 0;
            while (tries < 8) {
                int ok = dlopen("evil");
                if (ok == 1) {
                    int (*f)(int) = (int(*)(int))dlsym("evil_fn");
                    return f(3);
                }
                int i = 0;
                while (i < 500) { i = i + 1; }
                tries = tries + 1;
            }
            return 77;
        }
    "#;
    let policy = RecoveryPolicy {
        lease_duration: 5_000,
        quarantine: QuarantineConfig { max_failures: 4, base_backoff: 50, seed: 9 },
        ..Default::default()
    };
    let boot = |plan: Option<FaultPlan>| {
        let proc_opts = ProcessOptions {
            max_steps: 400_000,
            violation_policy: ViolationPolicy::Recover,
            checkpoint_interval: 2_000,
            ..Default::default()
        };
        let mut sys = System::boot_source_with(host, &opts(), proc_opts).expect("boots");
        let lib = compile_module("evil", evil_src, &opts()).expect("lib compiles");
        sys.register_library("evil", lib);
        let injector = plan.map(|p| sys.process().arm_chaos(p));
        (Supervisor::new(sys.into_process(), policy), injector)
    };

    // Fault-free twin: `evil` loads first try, the wrongly-typed call
    // violates, the supervisor quarantines it and rolls back, and the
    // re-run (dlopen now denied) exits 77.
    let (mut clean, _) = boot(None);
    let baseline = clean.run("__start").expect("runs");
    assert_eq!(baseline.outcome, Outcome::Exit { code: 77 }, "stdout: {}", baseline.stdout);
    assert!(clean.stats().recoveries >= 1);

    let plan = FaultPlan::new()
        .with(FaultPoint::VerifierReject, 1, 0) // 1st dlopen attempt fails
        .with(FaultPoint::CfgRegenFail, 1, 0) // 2nd attempt fails after verify
        .with(FaultPoint::UpdaterStall, 1, 5) // 3rd attempt's update stalls 5µs
        .with(FaultPoint::VersionWarp, 1, 3) // ...and warps near the wrap
        .with(FaultPoint::CheckpointCorrupt, 1, 0) // baseline checkpoint corrupted
        .with(FaultPoint::RestoreFail, 1, 0) // first restore attempt refused
        .with(FaultPoint::UpdaterCrash, 1, 0) // re-stamp leg: post-fence crash
        .with(FaultPoint::TornTary, 2, 3); // re-stamp leg: torn Tary write
    let (mut sup, injector) = boot(Some(plan));
    let injector = injector.expect("armed");

    // Leg 1 — load-path faults, then the violation: two rejected loads
    // back off and retry, the third succeeds (stalled + warped update),
    // the call violates, quarantine + restore converge on 77 even with
    // the corrupted baseline checkpoint and the injected restore
    // failure in the way.
    let r = sup.run("__start").expect("runs");
    assert_eq!(r.outcome, baseline.outcome, "leg 1 converges");
    let rollbacks = sup.process().load_rollbacks();
    assert!(rollbacks >= 2, "both rejected loads rolled back: {rollbacks}");
    assert!(r.quarantines >= 1, "the violating module was quarantined");
    assert!(r.checkpoints >= 2);
    assert!(r.restores >= 1, "a pre-load checkpoint was restored despite the injected failures");
    {
        let report = sup.process().quarantine_report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].library, "evil");
        assert!(report[0].banned);
    }

    // Leg 2 — the updater dies between the Tary and Bary phases: the
    // whole table is version-skewed, the guest stalls to its step limit,
    // and the lease watchdog (not a direct repair) heals the tables.
    let crashed = sup.process_mut().tables().bump_version();
    assert!(!crashed.completed, "the planned crash aborts the re-stamp");
    let r = sup.run("__start").expect("runs");
    assert_eq!(r.outcome, baseline.outcome, "leg 2 converges");
    assert!(r.tx_lease_repairs >= 1, "the watchdog repaired the abandoned lease");

    // Leg 3 — a torn Tary stream (the crash occurrence is spent) re-stamps
    // the three lowest Tary IDs and tears: those carry the new version,
    // every other ID the old one. A check that reaches one of the three
    // retries until the tables are repaired; whether or not the guest's
    // hot entries are among them, the supervised outcome must not change.
    let torn = sup.process_mut().tables().bump_version();
    assert!(!torn.completed, "the planned tear aborts the re-stamp");
    let r = sup.run("__start").expect("runs");
    assert_eq!(r.outcome, baseline.outcome, "leg 3 converges");

    let stats = *sup.stats();
    assert!(stats.watchdog_heals >= 1, "the crash healed via the lease: {stats:?}");
    assert!(!stats.escalated);

    let fired = injector.fired();
    for point in [
        FaultPoint::VerifierReject,
        FaultPoint::CfgRegenFail,
        FaultPoint::UpdaterStall,
        FaultPoint::VersionWarp,
        FaultPoint::CheckpointCorrupt,
        FaultPoint::RestoreFail,
        FaultPoint::TornTary,
        FaultPoint::UpdaterCrash,
    ] {
        assert!(
            fired.iter().any(|f| f.point == point),
            "{point:?} never fired; fired = {fired:?}"
        );
    }
}
