//! Differential predecode tests: every synthetic SPEC-like workload
//! runs twice — predecode cache on and predecode cache off — with the
//! *same* randomized fault plan armed and the scripted updater opening
//! mixed-version windows mid-run. The cache is a pure fetch
//! memoization, so the two runs must be observationally identical down
//! to the audit log and the exact sequence of faults that fired.
//!
//! Seeds 1–3 are fixed (the ISSUE's contract); `MCFI_CHAOS_SEED` shifts
//! the whole matrix for CI soak runs.

use mcfi::{
    compile_module, standard_modules, BuildOptions, FaultPlan, FetchMode, Outcome, ProcessOptions,
    RunResult, SharedImage, System, ViolationPolicy,
};
use mcfi_workloads::{source, Variant, BENCHMARKS};

/// Matrix shift for CI: seed k becomes `base + k`.
fn seed_base() -> u64 {
    std::env::var("MCFI_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// Scripted-updater cadence: frequent enough that every benchmark's
/// check transactions race several update windows.
const UPDATE_INTERVAL: u64 = 25_000;
const UPDATE_WINDOW: u64 = 1_000;

/// Generous for every workload (the largest, hmmer/libquantum, takes
/// ~8M steps with the updater interleaved), small enough that a
/// chaos-stalled run (abandoned update, guest spinning in check
/// retries) still ends promptly.
const STEP_BUDGET: u64 = 12_000_000;

/// One instrumented run: boot, arm the plan, run with scripted updates
/// under the given fetch mode, return the report plus the two
/// chaos-visible logs.
fn observe(src: &str, fetch: FetchMode, plan: FaultPlan) -> (RunResult, Vec<String>, Vec<String>) {
    let proc_opts = ProcessOptions {
        fetch,
        max_steps: STEP_BUDGET,
        violation_policy: ViolationPolicy::Audit,
        ..Default::default()
    };
    let mut sys =
        System::boot_source_with(src, &BuildOptions::default(), proc_opts).expect("boots");
    let injector = sys.process().arm_chaos(plan);
    let r = sys
        .process()
        .run_with_updates("__start", UPDATE_INTERVAL, UPDATE_WINDOW)
        .expect("runs");
    let fired = injector.fired().iter().map(|f| format!("{f:?}")).collect();
    let log = sys.process().violation_log();
    let mut records: Vec<String> = log.records().iter().map(|v| format!("{v:?}")).collect();
    records.push(format!("dropped={}", log.dropped()));
    records.push(format!("total={}", log.total()));
    (r, records, fired)
}

/// The equality contract. Everything the guest, the auditor, or the
/// chaos harness can observe must match; only the cache counters may
/// (and must) differ.
fn assert_differential(what: &str, src: &str, seed: u64) {
    let plan = FaultPlan::random(seed, 4);
    let (on, log_on, fired_on) = observe(src, FetchMode::Predecode, plan.clone());
    let (off, log_off, fired_off) = observe(src, FetchMode::Decode, plan);

    assert_eq!(on.outcome, off.outcome, "{what}: outcome");
    assert_eq!(on.stdout, off.stdout, "{what}: stdout");
    assert_eq!(on.steps, off.steps, "{what}: steps");
    assert_eq!(on.cycles, off.cycles, "{what}: cycles");
    assert_eq!(on.checks, off.checks, "{what}: checks");
    assert_eq!(on.indirect_taken, off.indirect_taken, "{what}: indirect branches");
    assert_eq!(on.updates, off.updates, "{what}: updates");
    assert_eq!(on.check_retries, off.check_retries, "{what}: guest check retries");
    assert_eq!(on.audited_violations, off.audited_violations, "{what}: audited violations");
    assert_eq!(log_on, log_off, "{what}: violation log");
    assert_eq!(fired_on, fired_off, "{what}: fired faults");

    assert_eq!(off.icache_hits, 0, "{what}: uncached run must not touch the cache");
    assert!(on.icache_hits > 0, "{what}: cached run must actually hit");
}

/// The translation equality contract: same observables as
/// [`assert_differential`], with the cache clause swapped for the
/// tier's — the interpreted arm must never dispatch a translated block,
/// the translated arm must actually run on the tier. Both arms fetch
/// through the predecode cache, so the only variable is translation.
fn assert_translation_differential(what: &str, src: &str, seed: u64) {
    let plan = FaultPlan::random(seed, 4);
    let (trans, log_t, fired_t) = observe(src, FetchMode::Translate, plan.clone());
    let (interp, log_i, fired_i) = observe(src, FetchMode::Predecode, plan);

    assert_eq!(trans.outcome, interp.outcome, "{what}: outcome");
    assert_eq!(trans.stdout, interp.stdout, "{what}: stdout");
    assert_eq!(trans.steps, interp.steps, "{what}: steps");
    assert_eq!(trans.cycles, interp.cycles, "{what}: cycles");
    assert_eq!(trans.checks, interp.checks, "{what}: checks");
    assert_eq!(trans.indirect_taken, interp.indirect_taken, "{what}: indirect branches");
    assert_eq!(trans.updates, interp.updates, "{what}: updates");
    assert_eq!(trans.check_retries, interp.check_retries, "{what}: guest check retries");
    assert_eq!(trans.audited_violations, interp.audited_violations, "{what}: audited violations");
    assert_eq!(log_t, log_i, "{what}: violation log");
    assert_eq!(fired_t, fired_i, "{what}: fired faults");

    assert_eq!(interp.trans_dispatches, 0, "{what}: interpreted run must not use the tier");
    assert!(trans.trans_dispatches > 0, "{what}: translated run must dispatch blocks");
}

/// Like [`observe`], but attached to a [`SharedImage`]: the same module
/// set ([stubs, libms, program, start], matching
/// `System::boot_modules_with` order) is published once into a shared
/// base, and the instrumented process runs through a copy-on-write
/// delta shard layered over it. Everything else — chaos plan, scripted
/// updater, audit policy — is identical to the private arm.
fn observe_shared(src: &str, plan: FaultPlan) -> (RunResult, Vec<String>, Vec<String>) {
    let build = BuildOptions::default();
    let [stubs, libms, start] = standard_modules(&build).expect("standard modules compile");
    let program = compile_module("program", src, &build).expect("guest compiles");
    let proc_opts = ProcessOptions {
        max_steps: STEP_BUDGET,
        violation_policy: ViolationPolicy::Audit,
        ..Default::default()
    };
    let image = SharedImage::build(vec![stubs, libms, program, start], proc_opts)
        .expect("image builds");
    let mut p = image.attach().expect("attaches");
    assert_eq!(image.attached(), 1, "the run must go through an attached delta");
    let epoch0 = image.epoch();
    let injector = p.arm_chaos(plan);
    let r = p.run_with_updates("__start", UPDATE_INTERVAL, UPDATE_WINDOW).expect("runs");
    assert!(
        image.epoch() - epoch0 >= r.updates,
        "every scripted update must commit an image-wide publication"
    );
    let fired = injector.fired().iter().map(|f| format!("{f:?}")).collect();
    let log = p.violation_log();
    let mut records: Vec<String> = log.records().iter().map(|v| format!("{v:?}")).collect();
    records.push(format!("dropped={}", log.dropped()));
    records.push(format!("total={}", log.total()));
    (r, records, fired)
}

/// The sharing equality contract: a process attached to a shared image
/// must be observationally indistinguishable from one owning private
/// tables — same steps, cycles, checks, audit log, and fired-fault
/// sequence — because the delta shard falls through to base words that
/// are byte-for-byte the private table's words, and the scripted
/// updater's image-wide sweeps restamp exactly the same ID sequence.
fn assert_shared_differential(what: &str, src: &str, seed: u64) {
    let plan = FaultPlan::random(seed, 4);
    let (shared, log_s, fired_s) = observe_shared(src, plan.clone());
    let (private, log_p, fired_p) = observe(src, ProcessOptions::default().fetch, plan);

    assert_eq!(shared.outcome, private.outcome, "{what}: outcome");
    assert_eq!(shared.stdout, private.stdout, "{what}: stdout");
    assert_eq!(shared.steps, private.steps, "{what}: steps");
    assert_eq!(shared.cycles, private.cycles, "{what}: cycles");
    assert_eq!(shared.checks, private.checks, "{what}: checks");
    assert_eq!(shared.indirect_taken, private.indirect_taken, "{what}: indirect branches");
    assert_eq!(shared.updates, private.updates, "{what}: updates");
    assert_eq!(shared.check_retries, private.check_retries, "{what}: guest check retries");
    assert_eq!(
        shared.audited_violations, private.audited_violations,
        "{what}: audited violations"
    );
    assert_eq!(log_s, log_p, "{what}: violation log");
    assert_eq!(fired_s, fired_p, "{what}: fired faults");
}

/// The shared-vs-private sweep: all twelve workloads under seeds 1–3,
/// each with a random fault plan armed and scripted update windows
/// opening mid-run, once through private tables and once attached to a
/// [`SharedImage`] — byte-identical observables prove the delta
/// layering exact under chaos.
#[test]
fn workloads_are_sharing_invariant_under_chaos() {
    for bench in BENCHMARKS {
        let src = source(bench, Variant::Fixed);
        for k in 1..=3u64 {
            assert_shared_differential(
                &format!("{bench} seed {k} (shared image)"),
                &src,
                seed_base() + k,
            );
        }
    }
}

/// The violating program through a shared image: non-empty audit logs
/// must still match record for record, so the sharing sweep above is
/// not vacuously comparing empty logs.
#[test]
fn violating_program_audit_logs_are_sharing_invariant() {
    let src = "float g(float x) { return x; }\n\
         int main(void) {\n\
           void* raw = (void*)&g;\n\
           int (*f)(int) = (int(*)(int))raw;\n\
           int acc = 0; int i = 0;\n\
           while (i < 60) { acc = acc + f(i); i = i + 1; }\n\
           return 7;\n\
         }";
    for k in 1..=3u64 {
        let seed = seed_base() + k;
        let plan = FaultPlan::random(seed, 4);
        let (shared, log_s, fired_s) = observe_shared(src, plan.clone());
        let (private, log_p, fired_p) =
            observe(src, ProcessOptions::default().fetch, plan);
        assert_eq!(shared.outcome, private.outcome, "seed {seed}: outcome");
        assert_eq!(shared.audited_violations, private.audited_violations, "seed {seed}");
        assert!(shared.audited_violations >= 60, "seed {seed}: every hijacked call audited");
        assert_eq!(log_s, log_p, "seed {seed}: violation log");
        assert_eq!(fired_s, fired_p, "seed {seed}: fired faults");
    }
}

/// The full matrix: all twelve workloads under seeds 1–3 each. The
/// workloads are the `Fixed` variant (clean under MCFI), so the audit
/// logs stay empty unless a fault corrupts a table — which is exactly
/// what the chaos plan arranges and what both runs must agree on.
#[test]
fn workloads_are_predecode_invariant_under_chaos() {
    for bench in BENCHMARKS {
        let src = source(bench, Variant::Fixed);
        for k in 1..=3u64 {
            assert_differential(
                &format!("{bench} seed {k}"),
                &src,
                seed_base() + k,
            );
        }
    }
}

/// The translated-tier sweep: the same twelve workloads under seeds
/// 1–3, baseline-compiled vs interpreted. Scripted update windows force
/// specialized TxChecks onto the slow path mid-run, and the random
/// fault plans corrupt tables under both arms identically (they draw
/// from the runtime points only, so a plan never force-deopts the tier
/// asymmetrically). Byte-identical observables prove the tier exact.
#[test]
fn workloads_are_translation_invariant_under_chaos() {
    for bench in BENCHMARKS {
        let src = source(bench, Variant::Fixed);
        for k in 1..=3u64 {
            assert_translation_differential(
                &format!("{bench} seed {k} (translated)"),
                &src,
                seed_base() + k,
            );
        }
    }
}

/// A program whose every loop iteration commits a CFI violation (a
/// call through a pointer bound to an incompatibly-typed function):
/// under the audit policy its logs are non-empty, so this case proves
/// the record-for-record comparison above is not vacuous.
#[test]
fn violating_program_audit_logs_are_predecode_invariant() {
    let src = "float g(float x) { return x; }\n\
         int main(void) {\n\
           void* raw = (void*)&g;\n\
           int (*f)(int) = (int(*)(int))raw;\n\
           int acc = 0; int i = 0;\n\
           while (i < 60) { acc = acc + f(i); i = i + 1; }\n\
           return 7;\n\
         }";
    for k in 1..=3u64 {
        let seed = seed_base() + k;
        let plan = FaultPlan::random(seed, 4);
        let (on, log_on, fired_on) = observe(src, FetchMode::Predecode, plan.clone());
        let (off, log_off, fired_off) = observe(src, FetchMode::Decode, plan);
        assert_eq!(on.outcome, off.outcome, "seed {seed}: outcome");
        assert_eq!(on.audited_violations, off.audited_violations, "seed {seed}");
        assert!(on.audited_violations >= 60, "seed {seed}: every hijacked call audited");
        assert_eq!(log_on, log_off, "seed {seed}: violation log");
        assert_eq!(fired_on, fired_off, "seed {seed}: fired faults");
    }
}

/// The violating program again, baseline-compiled vs interpreted: the
/// tier's specialized fast path must reject exactly the calls the
/// interpreter's full TxCheck rejects, record for record. (The hijacked
/// calls miss the fast path — bary and tary words disagree — so every
/// violation is observed by the interpreter's slow path in both arms.)
#[test]
fn violating_program_audit_logs_are_translation_invariant() {
    let src = "float g(float x) { return x; }\n\
         int main(void) {\n\
           void* raw = (void*)&g;\n\
           int (*f)(int) = (int(*)(int))raw;\n\
           int acc = 0; int i = 0;\n\
           while (i < 60) { acc = acc + f(i); i = i + 1; }\n\
           return 7;\n\
         }";
    for k in 1..=3u64 {
        let seed = seed_base() + k;
        assert_translation_differential(&format!("violating seed {seed} (translated)"), src, seed);
    }
}

/// Unfaulted sanity anchor: with no chaos armed the matrix members
/// finish normally, so the differential matrix above is not merely
/// comparing two identically-stalled runs.
#[test]
fn unfaulted_workloads_exit_within_the_differential_budget() {
    for bench in ["mcf", "lbm", "bzip2", "libquantum"] {
        let src = source(bench, Variant::Fixed);
        let proc_opts = ProcessOptions {
            max_steps: STEP_BUDGET,
            violation_policy: ViolationPolicy::Audit,
            ..Default::default()
        };
        let mut sys =
            System::boot_source_with(&src, &BuildOptions::default(), proc_opts).expect("boots");
        let r = sys
            .process()
            .run_with_updates("__start", UPDATE_INTERVAL, UPDATE_WINDOW)
            .expect("runs");
        assert!(matches!(r.outcome, Outcome::Exit { .. }), "{bench}: {:?}", r.outcome);
        assert!(r.updates > 0, "{bench}: scripted updates must fire");
    }
}
