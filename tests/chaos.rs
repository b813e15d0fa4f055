//! Fault-injection (chaos) integration tests: the runtime's behavior when
//! the trusted updater misbehaves — crashes between table phases, stalls
//! holding the update lock, tears the Tary stream, rejects a module
//! mid-`dlopen` — and when enforcement itself is relaxed to auditing.
//!
//! Everything here is deterministic: faults come from a serializable
//! [`FaultPlan`] (override the seed-matrix tests with `MCFI_CHAOS_SEED`),
//! and outcomes are compared against unfaulted runs of the same program.

use mcfi::{
    compile_module, BuildOptions, FaultPlan, FaultPoint, Outcome, ProcessOptions, System,
    ViolationLog, ViolationPolicy,
};

fn opts() -> BuildOptions {
    BuildOptions::default()
}

fn chaos_seed() -> u64 {
    std::env::var("MCFI_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42)
}

/// A program that funnels control through an indirect call thousands of
/// times — every iteration runs a check transaction, so table faults
/// injected mid-run are guaranteed to be observed.
const SPIN_SRC: &str = "int w(int x) { return x * 2 + 1; }\n\
     int main(void) {\n\
       int (*f)(int) = &w;\n\
       int acc = 0; int i = 0;\n\
       while (i < 3000) { acc = acc + f(i) % 11; i = i + 1; }\n\
       return acc % 100;\n\
     }";

/// An updater that dies between the Tary and Bary phases strands the
/// tables in the mixed-version window: the guest's check sequence loops
/// on version skew (visibly — the run ends in `StepLimit`, not a wrong
/// transfer), and one repair pass restores full progress with the exact
/// same program result. No livelock, no policy corruption.
#[test]
fn abandoned_update_stalls_the_guest_until_repair() {
    let proc_opts = ProcessOptions { max_steps: 400_000, ..Default::default() };
    let mut sys = System::boot_source_with(SPIN_SRC, &opts(), proc_opts).expect("boots");
    let baseline = sys.run().expect("runs");
    assert!(matches!(baseline.outcome, Outcome::Exit { .. }), "{:?}", baseline.outcome);

    let injector = sys
        .process()
        .arm_chaos(FaultPlan::new().with(FaultPoint::UpdaterCrash, 1, 0));
    let tables = sys.process().tables();
    let crashed = tables.bump_version();
    assert!(!crashed.completed, "the planned crash aborts the re-stamp");
    assert!(tables.has_abandoned());
    assert_eq!(injector.fired().len(), 1);

    // The guest cannot make progress across the abandoned window — and
    // it cannot be tricked into a wrong transfer either: it spins in the
    // check retry loop until the step budget runs out.
    let stalled = sys.run().expect("runs");
    assert_eq!(stalled.outcome, Outcome::StepLimit, "checks retry, never mis-decide");
    assert!(stalled.check_retries > 0, "the VM observed the version skew");

    // One repair pass (complete the Bary phase under the update lock)
    // makes the tables consistent again; the program then runs to the
    // same result as before the fault.
    assert!(tables.repair_abandoned());
    assert!(!tables.has_abandoned());
    let recovered = sys.run().expect("runs");
    assert_eq!(recovered.outcome, baseline.outcome);
    assert_eq!(recovered.check_retries, 0);
}

/// A torn Tary stream tears inside the loaded code: the tear index
/// counts the words a re-stamp walks (the ones that may hold an ID), not
/// every entry from address 0, which lies below the code. So
/// `torn-tary@1(3)` leaves exactly three Tary IDs at the new version, and
/// one repair brings every ID to one version.
#[test]
fn a_torn_tary_stream_skews_exactly_the_ids_before_the_tear() {
    let mut sys = System::boot_source(SPIN_SRC, &opts()).expect("boots");
    let baseline = sys.run().expect("runs");
    sys.process().arm_chaos(FaultPlan::new().with(FaultPoint::TornTary, 1, 3));
    let tables = sys.process().tables();
    let versions =
        || -> Vec<_> { tables.tary_view().targets().map(|(_, id)| id.version()).collect() };
    assert!(versions().len() > 3, "the process has more targets than the tear skews");

    let torn = tables.bump_version();
    assert!(!torn.completed, "the planned tear aborts the re-stamp");
    assert!(tables.has_abandoned());
    let current = tables.current_version();
    let skewed = versions().into_iter().filter(|&v| v == current).count();
    assert_eq!(skewed, 3, "the IDs before the tear carry the new version, the rest the old");

    assert!(tables.repair_abandoned());
    assert!(versions().into_iter().all(|v| v == current), "the repair re-stamps every ID");
    let recovered = sys.run().expect("runs");
    assert_eq!(recovered.outcome, baseline.outcome);
}

/// A module the verifier rejects mid-`dlopen` is rolled back completely:
/// the guest sees `dlopen` fail, retries, and the second attempt (the
/// planned fault is spent) succeeds — same process, no restart.
#[test]
fn rejected_dlopen_rolls_back_and_a_retry_succeeds() {
    let lib = compile_module("libx", "int x_worker(int v) { return v * 2; }", &opts())
        .expect("lib compiles");
    let host = r#"
        int dlopen(char* name);
        void* dlsym(char* name);
        int main(void) {
            int first = dlopen("libx");
            int second = dlopen("libx");
            int (*w)(int) = (int(*)(int))dlsym("x_worker");
            int r = w(20);
            return r + second * 100 + first * 10000;
        }
    "#;
    let mut sys = System::boot_source(host, &opts()).expect("boots");
    sys.register_library("libx", lib);
    let injector = sys
        .process()
        .arm_chaos(FaultPlan::new().with(FaultPoint::VerifierReject, 1, 0));

    let r = sys.run().expect("runs");
    // first = 0 (rejected), second = 1, w(20) = 40.
    assert_eq!(r.outcome, Outcome::Exit { code: 140 }, "stdout: {}", r.stdout);
    assert_eq!(r.load_rollbacks, 1);
    assert!(r.updates >= 1, "the retry's update transaction committed");
    assert!(injector
        .fired()
        .iter()
        .any(|f| f.point == FaultPoint::VerifierReject));
}

/// A CFG-regeneration failure mid-`dlopen` likewise rolls back; the
/// process continues under its pre-load CFG, with the library fully
/// unloaded and the policy bit-for-bit unchanged.
#[test]
fn cfg_regen_failure_leaves_the_preload_cfg_enforced() {
    let lib = compile_module("liby", "int y_fn(int v) { return v + 9; }", &opts())
        .expect("lib compiles");
    let host = r#"
        int dlopen(char* name);
        int main(void) {
            int ok = dlopen("liby");
            return ok;
        }
    "#;
    let mut sys = System::boot_source(host, &opts()).expect("boots");
    sys.register_library("liby", lib);
    let before = sys.process().current_policy();
    sys.process()
        .arm_chaos(FaultPlan::new().with(FaultPoint::CfgRegenFail, 1, 0));

    let r = sys.run().expect("runs");
    assert_eq!(r.outcome, Outcome::Exit { code: 0 }, "the guest saw dlopen fail");
    assert_eq!(r.load_rollbacks, 1);
    assert_eq!(r.updates, 0, "no update transaction ran");
    let after = sys.process().current_policy();
    assert_eq!(before.stats.ibts, after.stats.ibts, "policy unchanged after rollback");
    assert!(sys.process().symbol("y_fn").is_none(), "the module is fully unloaded");
}

/// The wrongly-typed indirect call of the K2 case: under the default
/// `Enforce` policy it halts exactly as always; under `Audit` the same
/// program records the violation and keeps its availability.
#[test]
fn enforce_halts_where_audit_logs_and_continues() {
    const WRONG_TYPE_SRC: &str = "float fsq(float x) { return x * x; }\n\
         int main(void) {\n\
           void* raw = (void*)&fsq;\n\
           int (*f)(int) = (int(*)(int))raw;\n\
           int r = f(3);\n\
           return 55;\n\
         }";

    let mut enforce = System::boot_source(WRONG_TYPE_SRC, &opts()).expect("boots");
    let r = enforce.run().expect("runs");
    assert!(matches!(r.outcome, Outcome::CfiViolation { .. }), "{:?}", r.outcome);
    assert_eq!(r.audited_violations, 0);
    assert!(enforce.process().violation_log().records().is_empty());

    let audit_opts =
        ProcessOptions { violation_policy: ViolationPolicy::Audit, ..Default::default() };
    let mut audit = System::boot_source_with(WRONG_TYPE_SRC, &opts(), audit_opts).expect("boots");
    let r = audit.run().expect("runs");
    assert_eq!(r.outcome, Outcome::Exit { code: 55 }, "stdout: {}", r.stdout);
    assert!(r.audited_violations >= 1, "the hijacked call was recorded");
    let log = audit.process().violation_log();
    assert_eq!(log.total(), r.audited_violations);
    assert!(log.records()[0].kind.is_some(), "the tables explain the violation");
}

/// A violating branch in a hot loop must not grow the audit log without
/// bound: the first `CAPACITY` records are kept, the rest only counted.
#[test]
fn audit_log_is_rate_limited_by_capacity() {
    let src = "float g(float x) { return x; }\n\
         int main(void) {\n\
           void* raw = (void*)&g;\n\
           int (*f)(int) = (int(*)(int))raw;\n\
           int i = 0;\n\
           while (i < 100) { int r = f(i); i = i + 1; }\n\
           return 3;\n\
         }";
    let audit_opts =
        ProcessOptions { violation_policy: ViolationPolicy::Audit, ..Default::default() };
    let mut sys = System::boot_source_with(src, &opts(), audit_opts).expect("boots");
    let r = sys.run().expect("runs");
    assert_eq!(r.outcome, Outcome::Exit { code: 3 }, "stdout: {}", r.stdout);
    assert!(r.audited_violations >= 100, "one per iteration at least: {}", r.audited_violations);
    let log = sys.process().violation_log();
    assert_eq!(log.records().len(), ViolationLog::CAPACITY);
    assert!(log.dropped() > 0);
    assert_eq!(log.total(), r.audited_violations);
}

/// An injected version warp parks the global version next to the 14-bit
/// wrap; the scripted-update run then wraps mid-execution. The guest
/// cannot tell: outcome and cycle count are identical to the unwarped
/// run (versions only ever feed equality comparisons).
#[test]
fn version_wrap_during_scripted_updates_is_invisible_to_the_guest() {
    let run = |plan: Option<FaultPlan>| {
        let mut sys = System::boot_source(SPIN_SRC, &opts()).expect("boots");
        if let Some(p) = plan {
            sys.process().arm_chaos(p);
        }
        sys.process().run_with_updates("__start", 50_000, 2_000).expect("runs")
    };
    let plain = run(None);
    let warped = run(Some(FaultPlan::new().with(FaultPoint::VersionWarp, 1, 3)));
    assert!(matches!(plain.outcome, Outcome::Exit { .. }), "{:?}", plain.outcome);
    assert_eq!(plain.outcome, warped.outcome);
    assert_eq!(plain.cycles, warped.cycles, "the wrap is architecturally invisible");
    assert!(warped.updates >= 1, "updates actually fired: {}", warped.updates);
}

/// Chaos disabled must be free: a run on a process that never armed a
/// plan and a run on one that armed and disarmed are cycle-identical.
#[test]
fn disarmed_chaos_is_zero_cost() {
    let mut a = System::boot_source(SPIN_SRC, &opts()).expect("boots");
    let ra = a.run().expect("runs");

    let mut b = System::boot_source(SPIN_SRC, &opts()).expect("boots");
    b.process().arm_chaos(FaultPlan::random(chaos_seed(), 4));
    b.process().disarm_chaos();
    let rb = b.run().expect("runs");

    assert_eq!(ra.outcome, rb.outcome);
    assert_eq!(ra.cycles, rb.cycles, "disarmed chaos must not perturb timing");
    assert_eq!(ra.checks, rb.checks);
    assert_eq!(rb.tx_retries, 0);
}

/// Plans survive the wire format and identical seeds yield identical
/// plans — the two properties the CI seed matrix relies on.
#[test]
fn plans_roundtrip_through_the_wire_format() {
    let seed = chaos_seed();
    let plan = FaultPlan::random(seed, 4);
    let parsed = FaultPlan::parse(&plan.wire()).expect("round trip");
    assert_eq!(plan, parsed);
    assert_eq!(FaultPlan::random(seed, 4), plan, "same seed, same plan");
    assert!(FaultPlan::parse("seed=1;no-such-fault@1(0)").is_err());
}

/// The seed-matrix smoke test: a randomized plan over a dlopen-heavy
/// program replays to the identical outcome, fired-fault log, and
/// rollback count — and the guest's exit code always accounts exactly
/// for the loads the plan rejected.
#[test]
fn random_plans_replay_deterministically() {
    let seed = chaos_seed();
    let host = r#"
        int dlopen(char* name);
        int main(void) {
            int n = 0;
            n = n + dlopen("l1");
            n = n + dlopen("l2");
            n = n + dlopen("l3");
            n = n + dlopen("l4");
            return n;
        }
    "#;
    let run_once = |plan: FaultPlan| {
        let mut sys = System::boot_source(host, &opts()).expect("boots");
        for i in 1..=4 {
            let lib = compile_module(
                &format!("l{i}"),
                &format!("int lib{i}_fn(int v) {{ return v + {i}; }}"),
                &opts(),
            )
            .expect("lib compiles");
            sys.register_library(&format!("l{i}"), lib);
        }
        let injector = sys.process().arm_chaos(plan);
        let r = sys.run().expect("runs");
        (r, injector.fired())
    };

    let plan = FaultPlan::random(seed, 3);
    let (a, fired_a) = run_once(plan.clone());
    let (b, fired_b) = run_once(plan);
    assert_eq!(a.outcome, b.outcome, "seed {seed} must replay");
    assert_eq!(fired_a, fired_b);
    assert_eq!(a.load_rollbacks, b.load_rollbacks);
    let Outcome::Exit { code } = a.outcome else {
        panic!("seed {seed}: non-exit outcome {:?}", a.outcome)
    };
    assert_eq!(
        code,
        4 - a.load_rollbacks as i64,
        "every failed dlopen was rolled back and reported to the guest"
    );
}

/// Repeated load failures must not leak: every rejected `dlopen` bumps
/// `load_rollbacks` by exactly one, moves the sandbox generation
/// strictly forward (so stale icache entries die), and leaves the
/// GOT/PLT area byte-for-byte untouched — after which a clean attempt
/// still succeeds.
#[test]
fn repeated_rejections_roll_back_completely_every_time() {
    let mut sys = System::boot_source("int main(void) { return 0; }", &opts()).expect("boots");
    let data_base = ProcessOptions::default().layout.data_base as usize;
    let got_area = |p: &mcfi::Process| p.mem().raw()[data_base..data_base + 0x1000].to_vec();

    let p = sys.process();
    p.arm_chaos(
        FaultPlan::new()
            .with(FaultPoint::VerifierReject, 1, 0)
            .with(FaultPoint::VerifierReject, 2, 0)
            // Site occurrences count per point: the first two attempts die
            // in the verifier, so attempt 3 is this site's first visit.
            .with(FaultPoint::CfgRegenFail, 1, 0),
    );
    for attempt in 1..=3u64 {
        let lib = compile_module("libz", "int z_fn(int v) { return v + 1; }", &opts())
            .expect("lib compiles");
        let gen_before = p.mem().generation();
        let got_before = got_area(p);
        p.load(lib).expect_err("the planned fault rejects this attempt");
        assert_eq!(p.load_rollbacks(), attempt, "one rollback per failure, monotonically");
        assert!(
            p.mem().generation() > gen_before,
            "rollback {attempt} must advance the sandbox generation"
        );
        assert_eq!(got_area(p), got_before, "rollback {attempt} left GOT/PLT bytes behind");
        assert!(p.symbol("z_fn").is_none(), "the module is fully unloaded");
    }

    let lib = compile_module("libz", "int z_fn(int v) { return v + 1; }", &opts())
        .expect("lib compiles");
    p.load(lib).expect("the plan is spent; a clean attempt loads");
    assert_eq!(p.load_rollbacks(), 3, "the successful load adds no rollback");
    assert!(p.symbol("z_fn").is_some());
}
