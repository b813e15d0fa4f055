//! Self-healing supervision for an MCFI process.
//!
//! The paper's runtime (§7) trusts the updater and halts the guest on any
//! CFI violation. This crate adds the layer a production deployment wraps
//! around that runtime: a [`Supervisor`] drives a [`Process`] under a
//! declarative [`RecoveryPolicy`] and turns three classes of partial
//! failure into forward progress instead of a dead process:
//!
//! * **Checkpoint/restore** — the supervisor takes a baseline checkpoint
//!   before every run (the process adds periodic in-run checkpoints when
//!   its `ProcessOptions::checkpoint_interval` is set) and rolls the process
//!   back to the newest *safe* checkpoint after a violation. Restores
//!   verify a content digest first, so a corrupted checkpoint is skipped,
//!   never resumed from.
//! * **Module quarantine with backoff** — a library whose `dlopen` keeps
//!   failing verification backs off exponentially and is eventually
//!   banned; a module implicated in a CFI violation is banned outright.
//!   The guest simply sees `dlopen` fail, exactly like a missing library.
//! * **Updater watchdog** — with a lease installed on the tables' update
//!   lock, an updater that dies mid-transaction leaves an expired
//!   deadline behind; the watchdog detects it and heals the tables with
//!   the repair pass, and the supervisor re-runs the stalled guest.
//!
//! Recovery is budgeted: after [`RecoveryPolicy::violation_retries`]
//! recoveries the supervisor escalates the process from
//! [`ViolationPolicy::Recover`] to `Enforce` and reports the violation,
//! exactly as an unsupervised run would have.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::Ordering;

use mcfi_runtime::{
    Checkpoint, LoadError, Outcome, Process, QuarantineConfig, RestoreError, RunResult,
    ViolationPolicy,
};
use mcfi_tables::WatchdogVerdict;
use serde::Serialize;

pub use mcfi_chaos::Backoff;

/// Why a supervised run could not produce a [`RunResult`].
#[derive(Clone, PartialEq, Debug)]
pub enum SupervisorError {
    /// The entry symbol did not resolve to an exported function of a
    /// loaded module (the only way [`Process::run`] itself fails).
    Load(LoadError),
    /// The updater is *wedged*: its lease expired but it still holds the
    /// update lock, so the watchdog cannot repair the tables safely and
    /// the guest's check transactions can never commit. Unlike a crashed
    /// updater (healed and re-run transparently) this is a live external
    /// actor — only the operator can resolve it, so the supervisor
    /// surfaces it instead of burning the recovery budget on re-runs
    /// that are guaranteed to stall again.
    Wedged {
        /// The expired lease deadline, in simulated cycles.
        lease_deadline: u64,
        /// The watchdog's clock when the wedge was detected.
        now: u64,
        /// Steps the stalled run burned before hitting its ceiling.
        steps: u64,
    },
}

impl fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupervisorError::Load(e) => write!(f, "{e}"),
            SupervisorError::Wedged { lease_deadline, now, steps } => write!(
                f,
                "updater wedged: lease expired at cycle {lease_deadline} (clock {now}) \
                 with the update lock still held; the guest stalled after {steps} steps"
            ),
        }
    }
}

impl std::error::Error for SupervisorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SupervisorError::Load(e) => Some(e),
            SupervisorError::Wedged { .. } => None,
        }
    }
}

impl From<LoadError> for SupervisorError {
    fn from(e: LoadError) -> Self {
        SupervisorError::Load(e)
    }
}

/// Declarative recovery policy for a supervised process.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPolicy {
    /// Recoveries (violation rollbacks or watchdog re-runs) before the
    /// supervisor escalates to [`ViolationPolicy::Enforce`] and gives up.
    pub violation_retries: u32,
    /// Total restore attempts per recovery before falling back to a
    /// plain re-run. Injected restore refusals are transient (the next
    /// attempt may succeed); corrupt checkpoints are dropped for good.
    pub max_restore_attempts: u32,
    /// Quarantine policy installed on the process (failures before a
    /// ban, backoff base, jitter seed).
    pub quarantine: QuarantineConfig,
    /// Updater-lease duration in simulated cycles (0 = no lease, the
    /// watchdog falls back to direct repair).
    pub lease_duration: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            violation_retries: 3,
            max_restore_attempts: 8,
            quarantine: QuarantineConfig::default(),
            lease_duration: 0,
        }
    }
}

/// What the supervisor did across [`Supervisor::run`] calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct SupervisorStats {
    /// Process runs driven (re-runs included).
    pub runs: u64,
    /// Recoveries performed (violation rollbacks + stall re-runs).
    pub recoveries: u64,
    /// Restore attempts that failed (injected refusal or corrupt
    /// checkpoint) before a fallback succeeded.
    pub failed_restores: u64,
    /// Abandoned update transactions healed through the lease watchdog.
    pub watchdog_heals: u64,
    /// Abandoned update transactions healed by direct repair (no lease
    /// installed, or the lease had not expired yet).
    pub direct_repairs: u64,
    /// Whether the supervisor escalated `Recover` to `Enforce`.
    pub escalated: bool,
}

/// Drives a [`Process`] under a [`RecoveryPolicy`] (see the crate docs).
pub struct Supervisor {
    process: Process,
    policy: RecoveryPolicy,
    stats: SupervisorStats,
}

impl Supervisor {
    /// Wraps `process`, installing the policy's quarantine config and
    /// (if configured) the updater lease. The in-run checkpoint cadence
    /// stays the process's own (`ProcessOptions::checkpoint_interval`).
    pub fn new(mut process: Process, policy: RecoveryPolicy) -> Self {
        process.set_quarantine(policy.quarantine);
        if policy.lease_duration > 0 {
            process.enable_update_lease(policy.lease_duration);
        }
        Supervisor { process, policy, stats: SupervisorStats::default() }
    }

    /// The supervised process.
    pub fn process(&self) -> &Process {
        &self.process
    }

    /// Mutable access to the supervised process (registering libraries,
    /// arming chaos plans).
    pub fn process_mut(&mut self) -> &mut Process {
        &mut self.process
    }

    /// What the supervisor has done so far.
    pub fn stats(&self) -> &SupervisorStats {
        &self.stats
    }

    /// Unwraps the supervised process.
    pub fn into_process(self) -> Process {
        self.process
    }

    /// Runs `entry` to completion, recovering along the way.
    ///
    /// A baseline checkpoint is taken first. Then, until the recovery
    /// budget runs out:
    ///
    /// * a run ending in a CFI violation (under
    ///   [`ViolationPolicy::Recover`]) quarantines the implicated module
    ///   — the one owning the branch's illegal *target* when the
    ///   violation log can name it, else the one owning the faulting
    ///   branch — restores the newest checkpoint that does not contain
    ///   it, and re-runs;
    /// * a run that stalls at the step limit against abandoned tables is
    ///   healed (watchdog lease repair, or direct repair without a
    ///   lease) and re-run.
    ///
    /// Anything else — normal exits, faults, honest step-limit ends — is
    /// returned as-is. Once the budget is spent the supervisor escalates
    /// the process to `Enforce` and returns the violating result.
    ///
    /// # Errors
    ///
    /// [`SupervisorError::Load`] if `entry` is not an exported function
    /// of a loaded module; [`SupervisorError::Wedged`] if a run stalls
    /// at the step limit against a wedged updater — lease expired, lock
    /// still held — which no amount of re-running can heal.
    pub fn run(&mut self, entry: &str) -> Result<RunResult, SupervisorError> {
        self.process.checkpoint_now();
        let mut budget = self.policy.violation_retries;
        loop {
            let r = self.process.run(entry)?;
            self.stats.runs += 1;
            match r.outcome {
                Outcome::CfiViolation { pc }
                    if self.process.violation_policy() == ViolationPolicy::Recover =>
                {
                    if budget == 0 {
                        self.process.set_violation_policy(ViolationPolicy::Enforce);
                        self.stats.escalated = true;
                        return Ok(r);
                    }
                    budget -= 1;
                    self.stats.recoveries += 1;
                    let culprit = self.culprit_of(pc);
                    if let Some(name) = &culprit {
                        self.process
                            .quarantine_module(name, &format!("cfi violation at pc {pc:#x}"));
                    }
                    // A failed restore is not fatal: a plain re-run from
                    // the entry point with the quarantine active is the
                    // moral equivalent of a process restart.
                    self.restore_best(culprit.as_deref());
                }
                Outcome::StepLimit if self.process.tables().has_abandoned() => {
                    if budget == 0 {
                        return Ok(r);
                    }
                    budget -= 1;
                    self.stats.recoveries += 1;
                    self.heal();
                }
                // A stall with the tables *not* abandoned but a lease
                // stamp left behind: poll the watchdog. `Wedged` (lock
                // still held past the deadline) is unhealable from here
                // — surface it instead of returning a bare step-limit
                // result the caller would misread as a slow guest.
                Outcome::StepLimit
                    if self.policy.lease_duration > 0
                        && self.process.watchdog_poll() == WatchdogVerdict::Wedged =>
                {
                    let tables = self.process.tables();
                    return Err(SupervisorError::Wedged {
                        lease_deadline: tables.lease_deadline(),
                        now: self.process.cycle_counter().load(Ordering::Relaxed),
                        steps: r.steps,
                    });
                }
                _ => return Ok(r),
            }
        }
    }

    /// The module to quarantine for a violation halted at `pc`: prefer
    /// the module owning the illegal *target* recorded in the violation
    /// log (the code the hijacked branch tried to reach), falling back
    /// to the module owning the faulting branch itself.
    fn culprit_of(&self, pc: u64) -> Option<String> {
        let by_target = self
            .process
            .violation_log()
            .records()
            .last()
            .and_then(|rec| self.process.module_at(rec.target));
        by_target.or_else(|| self.process.module_at(pc)).map(str::to_string)
    }

    /// Restores the newest checkpoint that does not contain `culprit`,
    /// skipping corrupt checkpoints for good and retrying transient
    /// (injected) refusals up to the attempt budget. Returns whether any
    /// restore succeeded.
    fn restore_best(&mut self, culprit: Option<&str>) -> bool {
        let mut candidates: Vec<Checkpoint> = self
            .process
            .checkpoints()
            .iter()
            .rev()
            .filter(|cp| {
                culprit.is_none_or(|name| !cp.module_names().iter().any(|n| n == name))
            })
            .cloned()
            .collect();
        let mut attempts = 0;
        while !candidates.is_empty() && attempts < self.policy.max_restore_attempts {
            let mut i = 0;
            while i < candidates.len() && attempts < self.policy.max_restore_attempts {
                attempts += 1;
                match self.process.restore(&candidates[i]) {
                    Ok(()) => return true,
                    Err(RestoreError::Corrupt { .. }) => {
                        self.stats.failed_restores += 1;
                        candidates.remove(i);
                    }
                    Err(RestoreError::Injected(_)) => {
                        self.stats.failed_restores += 1;
                        i += 1;
                    }
                }
            }
        }
        false
    }

    /// Heals abandoned tables: through the lease watchdog when a lease
    /// is installed and expired, by direct repair otherwise.
    fn heal(&mut self) {
        if self.policy.lease_duration > 0 {
            if let WatchdogVerdict::Healed { .. } = self.process.watchdog_poll() {
                self.stats.watchdog_heals += 1;
                return;
            }
        }
        if self.process.tables().repair_abandoned() {
            self.stats.direct_repairs += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfi_chaos::{ChaosInjector, FaultPlan, FaultPoint};
    use mcfi_codegen::{compile_source, CodegenOptions};
    use mcfi_runtime::{stdlib, synth, ProcessOptions};

    fn compile(name: &str, src: &str) -> mcfi_module::Module {
        compile_source(name, src, &CodegenOptions::default()).unwrap_or_else(|e| panic!("{e}"))
    }

    fn boot(src: &str, popts: ProcessOptions) -> Process {
        let mut p = Process::new(popts).expect("valid layout");
        let stubs = synth::syscall_module();
        let libms = compile("libms", stdlib::LIBMS_SRC);
        let start = compile("start", stdlib::START_SRC);
        let prog = compile("prog", src);
        p.load_all(vec![stubs, libms, start, prog]).unwrap_or_else(|e| panic!("{e}"));
        p
    }

    const EVIL_HOST: &str = "int dlopen(char* name);\n\
         void* dlsym(char* name);\n\
         int main(void) {\n\
           int ok = dlopen(\"evil\");\n\
           if (ok) {\n\
             int (*f)(int) = (int(*)(int))dlsym(\"evil_fn\");\n\
             return f(1);\n\
           }\n\
           return 77;\n\
         }";

    fn evil_lib() -> mcfi_module::Module {
        compile("evil", "float evil_fn(float x) { return x * 2.0; }")
    }

    #[test]
    fn violation_in_a_dlopened_module_is_recovered_by_quarantine() {
        let popts = ProcessOptions {
            violation_policy: ViolationPolicy::Recover,
            ..Default::default()
        };
        let mut p = boot(EVIL_HOST, popts);
        p.register_library("evil", evil_lib());
        let mut sup = Supervisor::new(p, RecoveryPolicy::default());
        let r = sup.run("__start").expect("entry resolves");
        // First run: dlopen succeeds, the wrongly-typed call through the
        // evil module violates; the supervisor quarantines `evil`,
        // restores the pre-load baseline, and the re-run's dlopen is
        // denied — the guest takes its failure path.
        assert_eq!(r.outcome, Outcome::Exit { code: 77 }, "stdout: {}", r.stdout);
        assert_eq!(sup.stats().recoveries, 1);
        assert_eq!(sup.stats().runs, 2);
        assert!(!sup.stats().escalated);
        assert!(r.restores >= 1, "the rollback is visible in the run result");
        assert!(r.quarantines >= 1);
        assert!(r.checkpoints >= 1);
        let report = sup.process().quarantine_report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].library, "evil");
        assert!(report[0].banned);
        assert!(report[0].last_error.contains("cfi violation"));
    }

    #[test]
    fn supervision_keeps_the_process_checkpoint_cadence() {
        let src = "int main(void) {\n\
             int acc = 0; int i = 0;\n\
             while (i < 3000) { acc = acc + i; i = i + 1; }\n\
             return acc % 101;\n\
           }";
        let popts = ProcessOptions { checkpoint_interval: 2_000, ..Default::default() };
        let mut sup = Supervisor::new(boot(src, popts), RecoveryPolicy::default());
        let r = sup.run("__start").expect("entry resolves");
        assert!(matches!(r.outcome, Outcome::Exit { .. }), "{:?}", r.outcome);
        assert!(r.steps > 4_000, "the run spans two cadence intervals: {} steps", r.steps);
        let in_run = sup.process().checkpoints().iter().filter(|cp| cp.resumable()).count();
        assert!(in_run >= 2, "the default policy dropped the cadence: {in_run} in-run checkpoints");
    }

    #[test]
    fn unrecoverable_violation_escalates_to_enforce_after_the_budget() {
        // The violating branch lives in the main program: every
        // checkpoint contains it, so recovery can only re-run — and the
        // violation recurs until the budget is spent.
        let src = "float fsq(float x) { return x * x; }\n\
             int main(void) {\n\
               void* raw = (void*)&fsq;\n\
               int (*f)(int) = (int(*)(int))raw;\n\
               return f(3);\n\
             }";
        let popts = ProcessOptions {
            violation_policy: ViolationPolicy::Recover,
            ..Default::default()
        };
        let p = boot(src, popts);
        let policy = RecoveryPolicy { violation_retries: 2, ..Default::default() };
        let mut sup = Supervisor::new(p, policy);
        let r = sup.run("__start").expect("entry resolves");
        assert!(matches!(r.outcome, Outcome::CfiViolation { .. }), "{:?}", r.outcome);
        assert_eq!(sup.stats().recoveries, 2);
        assert_eq!(sup.stats().runs, 3, "initial run + one per retry");
        assert!(sup.stats().escalated);
        assert_eq!(sup.process().violation_policy(), ViolationPolicy::Enforce);
    }

    #[test]
    fn watchdog_heals_a_crashed_updater_and_the_guest_reruns_to_the_same_result() {
        const SPIN: &str = "int w(int x) { return x * 2 + 1; }\n\
             int main(void) {\n\
               int (*f)(int) = &w;\n\
               int acc = 0; int i = 0;\n\
               while (i < 3000) { acc = acc + f(i) % 11; i = i + 1; }\n\
               return acc % 100;\n\
             }";
        let popts = ProcessOptions {
            max_steps: 400_000,
            violation_policy: ViolationPolicy::Recover,
            ..Default::default()
        };
        let policy = RecoveryPolicy { lease_duration: 5_000, ..Default::default() };
        let mut sup = Supervisor::new(boot(SPIN, popts), policy);
        let baseline = sup.run("__start").expect("runs");
        let Outcome::Exit { code } = baseline.outcome else {
            panic!("{:?}", baseline.outcome)
        };

        // An updater crashes between the Tary and Bary phases. The lease
        // it stamped at lock acquire stays behind as the death notice.
        let tables = sup.process().tables();
        tables.arm_chaos(ChaosInjector::arm(
            FaultPlan::new().with(FaultPoint::UpdaterCrash, 1, 0),
        ));
        assert!(!tables.bump_version().completed);
        assert!(tables.has_abandoned());
        tables.disarm_chaos();

        // The supervised re-run stalls at the step limit (checks retry
        // on the version skew, never mis-decide), the watchdog sees the
        // expired lease, heals the tables, and the re-run completes with
        // the exact same program result.
        let healed = sup.run("__start").expect("runs");
        assert_eq!(healed.outcome, Outcome::Exit { code });
        assert_eq!(sup.stats().watchdog_heals, 1);
        assert_eq!(sup.stats().direct_repairs, 0, "the lease path did the healing");
        assert!(healed.tx_lease_repairs >= 1, "the repair is visible in the run result");
        assert!(!tables.has_abandoned());
    }

    #[test]
    fn an_honest_step_limit_after_a_completed_update_is_not_a_stall() {
        // An updater dies between the phases, then a later transaction
        // completes and resyncs every word. A guest that loops forever
        // then ends at the step limit on consistent tables: that is the
        // guest's own result, with nothing to heal and nothing to re-run.
        let popts = ProcessOptions { max_steps: 20_000, ..Default::default() };
        let looping = "int main(void) { while (1) { } return 0; }";
        let mut sup = Supervisor::new(boot(looping, popts), RecoveryPolicy::default());
        let tables = sup.process().tables();
        drop(tables.bump_version_split());
        assert!(tables.bump_version().completed);
        let r = sup.run("__start").expect("runs");
        assert_eq!(r.outcome, Outcome::StepLimit);
        assert_eq!(sup.stats().runs, 1, "the step limit was taken for a stall and re-run");
        assert_eq!(sup.stats().recoveries, 0);
    }

    #[test]
    fn repeated_dlopen_failures_back_off_and_eventually_ban() {
        // The guest retries dlopen in a loop; the verifier (via fault
        // injection) rejects the library every time. With a quarantine
        // budget of 2 the third attempt is never even made: the library
        // is banned and every later dlopen is denied without a load.
        let host = "int dlopen(char* name);\n\
             int main(void) {\n\
               int wins = 0; int i = 0;\n\
               while (i < 6) { wins = wins + dlopen(\"flaky\"); i = i + 1; }\n\
               return wins;\n\
             }";
        let popts = ProcessOptions {
            violation_policy: ViolationPolicy::Recover,
            ..Default::default()
        };
        let mut p = boot(host, popts);
        p.register_library("flaky", compile("flaky", "int flaky_fn(int v) { return v; }"));
        // Reject every load attempt this run could possibly make.
        p.arm_chaos(
            (1u64..=6).fold(FaultPlan::new(), |pl, i| pl.with(FaultPoint::VerifierReject, i, 0)),
        );
        let policy = RecoveryPolicy {
            quarantine: QuarantineConfig { max_failures: 2, base_backoff: 0, seed: 7 },
            ..Default::default()
        };
        let mut sup = Supervisor::new(p, policy);
        let r = sup.run("__start").expect("runs");
        assert_eq!(r.outcome, Outcome::Exit { code: 0 }, "stdout: {}", r.stdout);
        assert_eq!(r.load_rollbacks, 2, "only the pre-ban attempts reached the loader");
        assert_eq!(r.quarantines, 1);
        let report = sup.process().quarantine_report();
        assert_eq!(report.len(), 1);
        assert!(report[0].banned);
        assert_eq!(report[0].failures, 2);
        assert!(sup.process().quarantine_denials() >= 4, "later dlopens were denied outright");
    }

    #[test]
    fn backoff_delays_the_retry_but_allows_it_later() {
        // One rejection, then a spin long enough to outlive the backoff
        // window: the retry after the wait succeeds.
        let host = "int dlopen(char* name);\n\
             int main(void) {\n\
               int first = dlopen(\"lib\");\n\
               int early = dlopen(\"lib\");\n\
               int i = 0;\n\
               while (i < 2000) { i = i + 1; }\n\
               int late = dlopen(\"lib\");\n\
               return first * 100 + early * 10 + late;\n\
             }";
        let popts = ProcessOptions {
            violation_policy: ViolationPolicy::Recover,
            ..Default::default()
        };
        let mut p = boot(host, popts);
        p.register_library("lib", compile("lib", "int lib_fn(int v) { return v; }"));
        p.arm_chaos(FaultPlan::new().with(FaultPoint::VerifierReject, 1, 0));
        let policy = RecoveryPolicy {
            quarantine: QuarantineConfig { max_failures: 5, base_backoff: 500, seed: 3 },
            ..Default::default()
        };
        let mut sup = Supervisor::new(p, policy);
        let r = sup.run("__start").expect("runs");
        // first = 0 (rejected), early = 0 (still backing off, denied
        // without a load), late = 1 (the backoff expired).
        assert_eq!(r.outcome, Outcome::Exit { code: 1 }, "stdout: {}", r.stdout);
        assert_eq!(r.load_rollbacks, 1, "the early retry never reached the loader");
        assert_eq!(sup.process().quarantine_denials(), 1);
        assert!(sup.process().quarantine_report().is_empty(), "success clears the entry");
    }

    #[test]
    fn a_wedged_updater_surfaces_as_a_structured_error() {
        // An updater that *holds* the update lock past its lease (as
        // opposed to crashing and dropping it) leaves nothing abandoned
        // to repair: the guest stalls at the step limit and, before this
        // error existed, the supervisor returned the bare `StepLimit`
        // result as if the guest were merely slow.
        const SPIN: &str = "int w(int x) { return x * 2 + 1; }\n\
             int main(void) {\n\
               int (*f)(int) = &w;\n\
               int acc = 0; int i = 0;\n\
               while (i < 3000) { acc = acc + f(i) % 11; i = i + 1; }\n\
               return acc % 100;\n\
             }";
        let popts = ProcessOptions {
            max_steps: 400_000,
            violation_policy: ViolationPolicy::Recover,
            ..Default::default()
        };
        let policy = RecoveryPolicy { lease_duration: 1_000, ..Default::default() };
        let mut sup = Supervisor::new(boot(SPIN, popts), policy);
        let baseline = sup.run("__start").expect("runs");
        assert!(matches!(baseline.outcome, Outcome::Exit { .. }), "{:?}", baseline.outcome);

        // The updater opens a split transaction (Tary bumped, Bary not)
        // and wedges: the lease is stamped, the lock stays held, and
        // nothing is abandoned — `heal()` has no purchase here.
        let tables = sup.process().tables();
        let split = tables.bump_version_split();
        assert!(!tables.has_abandoned());
        let err = sup.run("__start").expect_err("a wedge is not healable by re-running");
        match err {
            SupervisorError::Wedged { lease_deadline, now, steps } => {
                assert!(lease_deadline > 0, "the stamp is the evidence");
                assert!(now >= lease_deadline, "detected only after expiry");
                assert!(steps > 0, "the stalled run is counted");
            }
            other => panic!("expected Wedged, got {other:?}"),
        }

        // Once the wedged updater finally commits, supervision resumes
        // and the guest reproduces its baseline result.
        split.finish();
        let after = sup.run("__start").expect("runs after the updater commits");
        assert_eq!(after.outcome, baseline.outcome);
    }
}
