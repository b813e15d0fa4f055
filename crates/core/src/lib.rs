//! # MCFI — Modular Control-Flow Integrity
//!
//! A from-scratch Rust reproduction of *Modular Control-Flow Integrity*
//! (Ben Niu and Gang Tan, PLDI 2014): the first fine-grained CFI
//! instrumentation supporting separate compilation, with dynamic linking
//! of multithreaded code made safe by transactional ID-table updates.
//!
//! This crate is the facade over the whole system:
//!
//! | piece | crate |
//! |-------|-------|
//! | ID tables, TxCheck/TxUpdate, STM baselines | [`mcfi_tables`] |
//! | MiniC front end (lexer/parser/types/checker) | [`mcfi_minic`] |
//! | C1/C2 condition analyzer (Tables 1–2) | [`mcfi_analyzer`] |
//! | basic-block IR + lowering | [`mcfi_ir`] |
//! | SimX64 ISA, encoder/decoder, cost model | [`mcfi_machine`] |
//! | instrumenting code generator | [`mcfi_codegen`] |
//! | module format + auxiliary type info | [`mcfi_module`] |
//! | type-matching CFG generation | [`mcfi_cfggen`] |
//! | static linker + PLT stubs | [`mcfi_linker`] |
//! | sandboxed runtime, loader, dynamic linker, VM | [`mcfi_runtime`] |
//! | self-healing supervisor (checkpoint/restore, quarantine, watchdog) | [`mcfi_supervisor`] |
//! | fleet supervision tree (fault domains, restarts, load shedding) | [`mcfi_fleet`] |
//! | modular verifier | [`mcfi_verifier`] |
//! | classic/coarse/chunk baselines, AIR | [`mcfi_baselines`] |
//! | ROP gadgets + attack case studies | [`mcfi_security`] |
//! | SPEC-like synthetic workloads | [`mcfi_workloads`] |
//!
//! # Quick start
//!
//! ```
//! use mcfi::{BuildOptions, System};
//!
//! let mut system = System::boot_source(
//!     "int double_it(int x) { return x * 2; }\n\
//!      int main(void) {\n\
//!        int (*f)(int) = &double_it;\n\
//!        return f(21);\n\
//!      }",
//!     &BuildOptions::default(),
//! )?;
//! let result = system.run()?;
//! assert_eq!(result.outcome, mcfi::Outcome::Exit { code: 42 });
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub use mcfi_baselines::PolicyKind;
pub use mcfi_cfggen::{CfgStats, ControlFlowPolicy, Placed};
pub use mcfi_chaos::{ChaosInjector, FaultPlan, FaultPoint};
pub use mcfi_codegen::{CodegenOptions, Policy};
pub use mcfi_module::{AdmissionError, DecodeLimits, Module, WireError, WireErrorKind};
pub use mcfi_runtime::{
    Checkpoint, FaultKind, FetchMode, LoadError, Outcome, Process, ProcessOptions,
    QuarantineConfig, QuarantineReason, QuarantineStatus, RestoreError, RunResult, SharedImage,
    ViolationLog, ViolationPolicy, ViolationRecord,
};
pub use mcfi_chaos::Backoff;
pub use mcfi_fleet::{
    solo_replay, tenant_plan, Fleet, FleetError, FleetOptions, FleetStats, FleetVerdict,
    RestartStrategy, Schedule, Storm, StormKind, TenantHealth, TenantSpec, TenantStats,
    WorkerStats,
};
pub use mcfi_netsim::{
    tenant_spec as net_tenant_spec, NetConfig, NetOutcome, NetServer, NetStats, NetVerdict,
    PacketGen, Segment, TrafficSpec,
};
pub use mcfi_supervisor::{RecoveryPolicy, Supervisor, SupervisorError, SupervisorStats};
pub use mcfi_tables::{Ecn, Id, SharedTables, WatchdogVerdict};

/// Target architecture flavor. The paper evaluates x86-32 and x86-64;
/// the observable difference in this reproduction is LLVM-style tail-call
/// optimization (on for x86-64), which shrinks Table 3's EQC counts.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Arch {
    /// 64-bit mode: tail calls compile to jumps.
    #[default]
    X86_64,
    /// 32-bit mode: tail calls stay calls.
    X86_32,
}

/// Build options for the end-to-end pipeline.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BuildOptions {
    /// Instrumentation policy ([`Policy::Mcfi`] or [`Policy::NoCfi`]).
    pub policy: Policy,
    /// Target flavor.
    pub arch: Arch,
    /// Verify each module before loading (the §7 verifier); a verification
    /// failure aborts the build.
    pub verify: bool,
}

impl BuildOptions {
    fn codegen(&self) -> CodegenOptions {
        CodegenOptions {
            policy: self.policy,
            tail_calls: self.arch == Arch::X86_64,
        }
    }
}

/// A pipeline error.
#[derive(Debug)]
pub enum Error {
    /// Front-end, lowering, or codegen failure.
    Compile(String),
    /// The verifier rejected a module.
    Verify(String),
    /// Loading/linking failed.
    Load(String),
    /// Running failed before producing an outcome.
    Run(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Compile(m) => write!(f, "compile error: {m}"),
            Error::Verify(m) => write!(f, "verification failed: {m}"),
            Error::Load(m) => write!(f, "load error: {m}"),
            Error::Run(m) => write!(f, "run error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Compiles one MiniC source into an instrumented MCFI module.
///
/// # Errors
///
/// Propagates front-end, lowering, and codegen errors; if
/// `opts.verify` is set and the module fails verification, returns
/// [`Error::Verify`].
pub fn compile_module(name: &str, src: &str, opts: &BuildOptions) -> Result<Module, Error> {
    let module = mcfi_codegen::compile_source(name, src, &opts.codegen())
        .map_err(|e| Error::Compile(e.to_string()))?;
    if opts.verify && opts.policy == Policy::Mcfi {
        let report = mcfi_verifier::verify(&module);
        if !report.ok() {
            return Err(Error::Verify(format!(
                "{name}: {} violations, first: {}",
                report.violations.len(),
                report.violations[0]
            )));
        }
    }
    Ok(module)
}

/// A booted MCFI system: a process with the syscall stubs, `libms`, the
/// startup module, and user modules loaded, ready to run.
pub struct System {
    process: Process,
}

impl System {
    /// Boots a process from a set of user modules.
    ///
    /// # Errors
    ///
    /// Fails if the standard modules or user modules do not load.
    pub fn boot_modules(user: Vec<Module>, opts: &BuildOptions) -> Result<System, Error> {
        System::boot_modules_with(user, opts, ProcessOptions::default())
    }

    /// Like [`System::boot_modules`], with explicit process options
    /// (violation policy, step budget, fetch mode, layout).
    ///
    /// # Errors
    ///
    /// Fails if the standard modules or user modules do not load.
    pub fn boot_modules_with(
        user: Vec<Module>,
        opts: &BuildOptions,
        proc_opts: ProcessOptions,
    ) -> Result<System, Error> {
        let mut process = Process::new(proc_opts).map_err(|e| Error::Load(e.to_string()))?;
        let [stubs, libms, start] = standard_modules(opts)?;
        // The startup module loads *after* the user modules so that its
        // direct call to `main` resolves without a PLT detour.
        let mut modules = vec![stubs, libms];
        modules.extend(user);
        modules.push(start);
        process.load_all(modules).map_err(|e| Error::Load(e.to_string()))?;
        Ok(System { process })
    }

    /// Compiles `src` and boots a system around it.
    ///
    /// # Errors
    ///
    /// Propagates compilation and loading failures.
    pub fn boot_source(src: &str, opts: &BuildOptions) -> Result<System, Error> {
        let program = compile_module("program", src, opts)?;
        System::boot_modules(vec![program], opts)
    }

    /// Compiles `src` and boots a system with explicit process options.
    ///
    /// # Errors
    ///
    /// Propagates compilation and loading failures.
    pub fn boot_source_with(
        src: &str,
        opts: &BuildOptions,
        proc_opts: ProcessOptions,
    ) -> Result<System, Error> {
        let program = compile_module("program", src, opts)?;
        System::boot_modules_with(vec![program], opts, proc_opts)
    }

    /// Registers a library for `dlopen`.
    pub fn register_library(&mut self, file_name: &str, module: Module) {
        self.process.register_library(file_name, module);
    }

    /// Registers an *untrusted* serialized module image for `dlopen`; it
    /// passes through the full admission pipeline at load time (see
    /// [`Process::register_library_image`]).
    pub fn register_library_image(&mut self, file_name: &str, image: Vec<u8>) {
        self.process.register_library_image(file_name, image);
    }

    /// Runs the program from `__start`.
    ///
    /// # Errors
    ///
    /// Fails only if the startup symbol is missing (a boot bug).
    pub fn run(&mut self) -> Result<RunResult, Error> {
        self.process.run("__start").map_err(|e| Error::Run(e.to_string()))
    }

    /// Access to the underlying process (tables, symbols, policies).
    pub fn process(&mut self) -> &mut Process {
        &mut self.process
    }

    /// Unwraps the booted process — e.g. to hand it to a
    /// [`Supervisor`] for self-healing runs.
    pub fn into_process(self) -> Process {
        self.process
    }
}

/// The standard modules every program links against: syscall stubs,
/// `libms`, and the `__start` module.
///
/// # Errors
///
/// Fails if the bundled sources fail to compile (a bug).
pub fn standard_modules(opts: &BuildOptions) -> Result<[Module; 3], Error> {
    let stubs = mcfi_runtime::synth::syscall_module_with(opts.policy == Policy::Mcfi);
    let libms = compile_module("libms", mcfi_runtime::stdlib::LIBMS_SRC, opts)?;
    let start = compile_module("__start_mod", mcfi_runtime::stdlib::START_SRC, opts)?;
    Ok([stubs, libms, start])
}

/// Compiles and runs a benchmark workload, returning its result.
///
/// # Errors
///
/// Propagates compile/load/run failures.
pub fn run_workload(
    bench: &str,
    variant: mcfi_workloads::Variant,
    opts: &BuildOptions,
) -> Result<RunResult, Error> {
    let src = mcfi_workloads::source(bench, variant);
    let mut system = System::boot_source(&src, opts)?;
    system.run()
}

/// Measures the Fig. 5 instrumentation overhead for one benchmark:
/// simulated cycles under full MCFI over cycles without CFI, minus one.
///
/// # Errors
///
/// Propagates pipeline failures; also fails if the two builds disagree on
/// the program result (they must compute the same thing).
pub fn measure_overhead(bench: &str, arch: Arch) -> Result<OverheadSample, Error> {
    let mcfi_opts = BuildOptions { policy: Policy::Mcfi, arch, verify: false };
    let plain_opts = BuildOptions { policy: Policy::NoCfi, arch, verify: false };
    let hardened = run_workload(bench, mcfi_workloads::Variant::Fixed, &mcfi_opts)?;
    let plain = run_workload(bench, mcfi_workloads::Variant::Fixed, &plain_opts)?;
    let (Outcome::Exit { code: a }, Outcome::Exit { code: b }) =
        (&hardened.outcome, &plain.outcome)
    else {
        return Err(Error::Run(format!(
            "{bench}: non-exit outcomes hardened={:?} plain={:?}",
            hardened.outcome, plain.outcome
        )));
    };
    if a != b {
        return Err(Error::Run(format!("{bench}: result mismatch {a} vs {b}")));
    }
    Ok(OverheadSample {
        bench: bench.to_string(),
        plain_cycles: plain.cycles,
        hardened_cycles: hardened.cycles,
        checks: hardened.checks,
    })
}

/// One bar of Fig. 5/6.
#[derive(Clone, Debug)]
pub struct OverheadSample {
    /// Benchmark name.
    pub bench: String,
    /// Cycles without CFI.
    pub plain_cycles: u64,
    /// Cycles with MCFI instrumentation.
    pub hardened_cycles: u64,
    /// Check transactions executed in the hardened run.
    pub checks: u64,
}

impl OverheadSample {
    /// The percentage overhead (`hardened/plain − 1`, in percent).
    pub fn percent(&self) -> f64 {
        100.0 * (self.hardened_cycles as f64 / self.plain_cycles as f64 - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfi_workloads::Variant;

    #[test]
    fn boot_and_run_a_program() {
        let mut sys = System::boot_source(
            "int main(void) { return 7; }",
            &BuildOptions::default(),
        )
        .unwrap();
        let r = sys.run().unwrap();
        assert_eq!(r.outcome, Outcome::Exit { code: 7 });
    }

    #[test]
    fn verification_gate_accepts_instrumented_modules() {
        let opts = BuildOptions { verify: true, ..Default::default() };
        let m = compile_module("m", "int f(int x) { return x + 1; }", &opts).unwrap();
        assert!(m.defines_function("f"));
    }

    #[test]
    fn a_small_workload_runs_under_both_policies() {
        let s = measure_overhead("mcf", Arch::X86_64).unwrap();
        assert!(s.hardened_cycles > s.plain_cycles, "{s:?}");
        assert!(s.percent() > 0.0 && s.percent() < 60.0, "{:.2}%", s.percent());
    }

    #[test]
    fn workload_results_are_deterministic() {
        let opts = BuildOptions::default();
        let a = run_workload("lbm", Variant::Fixed, &opts).unwrap();
        let b = run_workload("lbm", Variant::Fixed, &opts).unwrap();
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn arch_changes_codegen() {
        let o64 = BuildOptions { arch: Arch::X86_64, ..Default::default() };
        let o32 = BuildOptions { arch: Arch::X86_32, ..Default::default() };
        let src = "int h(int x) { return x; }\nint g(int y) { return h(y); }";
        let m64 = compile_module("m", src, &o64).unwrap();
        let m32 = compile_module("m", src, &o32).unwrap();
        // x86-32 mode has one more return site (the tail call becomes a
        // call+return).
        assert!(m32.aux.return_sites.len() > m64.aux.return_sites.len());
    }
}
