//! The MCFI runtime: sandboxed loader, dynamic linker, VM, and syscall
//! interposition (paper §4, §6, §7).
//!
//! A [`Process`] owns a W^X-enforcing [`mem::Sandbox`], the shared
//! [`mcfi_tables::IdTables`], and the set of loaded modules. Libraries
//! registered with [`Process::register_library`] can be loaded at runtime
//! through the `dlopen` syscall: the loader maps the code writable,
//! relocates and patches it, flips it executable, regenerates the CFG by
//! type matching over *all* loaded modules, and installs the new policy
//! with a single update transaction — GOT entries are adjusted between
//! the Tary and Bary phases, exactly as §5.2 prescribes.
//!
//! The VM executes instrumented SimX64 code against the *real* shared
//! tables, so a concurrent updater thread (Fig. 6's experiment) races
//! with check transactions exactly as on hardware, including retries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod icache;
pub mod image;
pub mod mem;
pub mod process;
pub mod stdlib;
pub mod synth;
pub mod trans;
pub mod vm;

pub use icache::PredecodeCache;
pub use image::SharedImage;
pub use mem::SandboxSnapshot;
pub use process::{
    Checkpoint, FaultKind, FetchMode, Layout, LoadError, Outcome, Process, ProcessOptions,
    QuarantineConfig, QuarantineReason, QuarantineStatus, RestoreError, RunResult, ViolationLog,
    ViolationPolicy, ViolationRecord,
};
pub use vm::{Event, Vm, VmError, VmState, VmStats};

#[cfg(test)]
mod tests {
    use super::*;
    use mcfi_codegen::{compile_source, CodegenOptions, Policy};
    use mcfi_module::Module;

    fn compile(name: &str, src: &str) -> Module {
        compile_source(name, src, &CodegenOptions::default()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a process with syscall stubs, libms, the startup module,
    /// and the given program source.
    fn boot(src: &str) -> Process {
        boot_with(src, &CodegenOptions::default())
    }

    fn boot_with(src: &str, opts: &CodegenOptions) -> Process {
        boot_full(src, opts, ProcessOptions::default())
    }

    fn boot_full(src: &str, opts: &CodegenOptions, popts: ProcessOptions) -> Process {
        let mut p = Process::new(popts).expect("valid layout");
        let stubs = synth::syscall_module();
        let libms = compile_source("libms", stdlib::LIBMS_SRC, opts).unwrap();
        let start = compile_source("start", stdlib::START_SRC, opts).unwrap();
        let prog = compile_source("prog", src, opts).unwrap_or_else(|e| panic!("{e}"));
        p.load_all(vec![stubs, libms, start, prog]).unwrap_or_else(|e| panic!("{e}"));
        p
    }

    fn run(src: &str) -> RunResult {
        let mut p = boot(src);
        p.run("__start").unwrap()
    }

    #[test]
    fn runs_a_trivial_program() {
        let r = run("int main(void) { return 42; }");
        assert_eq!(r.outcome, Outcome::Exit { code: 42 });
        assert!(r.cycles > 0);
    }

    #[test]
    fn arithmetic_and_loops_compute() {
        let r = run(
            "int main(void) {\n\
               int sum = 0; int i = 1;\n\
               while (i <= 10) { sum = sum + i; i = i + 1; }\n\
               return sum;\n\
             }",
        );
        assert_eq!(r.outcome, Outcome::Exit { code: 55 });
    }

    #[test]
    fn recursion_works_through_instrumented_returns() {
        let r = run(
            "int fib(int n) { if (n < 2) { return n; } int a = fib(n - 1); int b = fib(n - 2); return a + b; }\n\
             int main(void) { return fib(12); }",
        );
        assert_eq!(r.outcome, Outcome::Exit { code: 144 });
        assert!(r.checks > 100, "every return runs a check transaction");
    }

    #[test]
    fn indirect_calls_execute_when_types_match() {
        let r = run(
            "int twice(int x) { return x * 2; }\n\
             int thrice(int x) { return x * 3; }\n\
             int main(void) {\n\
               int (*f)(int);\n\
               f = &twice;\n\
               int a = f(10);\n\
               f = &thrice;\n\
               int b = f(10);\n\
               return a + b;\n\
             }",
        );
        assert_eq!(r.outcome, Outcome::Exit { code: 50 });
    }

    #[test]
    fn stdout_is_captured() {
        let r = run(
            "int puts(char* s);\n\
             int main(void) { puts(\"hello mcfi\"); return 0; }",
        );
        assert_eq!(r.outcome, Outcome::Exit { code: 0 });
        assert_eq!(r.stdout, "hello mcfi\n");
    }

    #[test]
    fn print_int_formats_numbers() {
        let r = run(
            "int print_int(int x);\nint puts(char* s);\n\
             int main(void) { print_int(-12345); puts(\"\"); print_int(0); return 0; }",
        );
        assert_eq!(r.stdout, "-12345\n0");
    }

    #[test]
    fn malloc_provides_usable_memory() {
        let r = run(
            "void* malloc(int n);\n\
             int main(void) {\n\
               int* a = (int*)malloc(80);\n\
               int i = 0;\n\
               while (i < 10) { a[i] = i * i; i = i + 1; }\n\
               return a[7];\n\
             }",
        );
        assert_eq!(r.outcome, Outcome::Exit { code: 49 });
    }

    #[test]
    fn structs_and_function_pointer_fields() {
        let r = run(
            "struct ops { int (*apply)(int); int bias; };\n\
             void* malloc(int n);\n\
             int inc(int x) { return x + 1; }\n\
             int main(void) {\n\
               struct ops* o = (struct ops*)malloc(16);\n\
               o->apply = &inc;\n\
               o->bias = 5;\n\
               int r = o->apply(10);\n\
               return r + o->bias;\n\
             }",
        );
        assert_eq!(r.outcome, Outcome::Exit { code: 16 });
    }

    #[test]
    fn switch_dispatch_via_jump_table() {
        let r = run(
            "int classify(int x) {\n\
               switch (x) {\n\
                 case 0: return 10;\n\
                 case 1: return 20;\n\
                 case 2: return 30;\n\
                 case 3: return 40;\n\
                 default: return -1;\n\
               }\n\
               return 0;\n\
             }\n\
             int main(void) { return classify(2) + classify(9); }",
        );
        assert_eq!(r.outcome, Outcome::Exit { code: 29 });
    }

    #[test]
    fn setjmp_longjmp_transfers_control() {
        let r = run(
            "int buf[8];\n\
             void leap(void) { longjmp(buf, 7); }\n\
             int main(void) {\n\
               int v = setjmp(buf);\n\
               if (v) { return v; }\n\
               leap();\n\
               return 0;\n\
             }",
        );
        assert_eq!(r.outcome, Outcome::Exit { code: 7 });
    }

    #[test]
    fn float_arithmetic_round_trips() {
        let r = run("int main(void) { float x = 2.5; float y = x * 4.0; return (int)y; }");
        assert_eq!(r.outcome, Outcome::Exit { code: 10 });
    }

    #[test]
    fn cfi_blocks_wrongly_typed_indirect_call() {
        // K2-style round trip through void*: the call through an int(int)
        // pointer actually targeting a float(float) function violates the
        // type-matched CFG.
        let r = run(
            "float fsq(float x) { return x * x; }\n\
             int main(void) {\n\
               void* raw = (void*)&fsq;\n\
               int (*f)(int) = (int(*)(int))raw;\n\
               return f(3);\n\
             }",
        );
        assert!(
            matches!(r.outcome, Outcome::CfiViolation { .. }),
            "expected violation, got {:?}",
            r.outcome
        );
    }

    #[test]
    fn nocfi_allows_the_same_wrongly_typed_call() {
        let opts = CodegenOptions { policy: Policy::NoCfi, tail_calls: true };
        let mut p = boot_with(
            "float fsq(float x) { return x * x; }\n\
             int main(void) {\n\
               void* raw = (void*)&fsq;\n\
               int (*f)(int) = (int(*)(int))raw;\n\
               int r = f(3);\n\
               return 1;\n\
             }",
            &opts,
        );
        let r = p.run("__start").unwrap();
        assert_eq!(r.outcome, Outcome::Exit { code: 1 }, "{:?}", r.outcome);
    }

    #[test]
    fn attacker_corrupting_return_address_is_caught() {
        // The concurrent attacker overwrites the saved return address on
        // the stack with a function entry (a classic ROP pivot). Under
        // MCFI the return's check transaction halts the program.
        let src = "int victim(int x) { return x + 1; }\n\
                   int main(void) { int r = victim(1); int s = victim(r); return s; }";
        let mut p = boot(src);
        let target = p.symbol("main").unwrap();
        let stack_lo = 0x40_0000 - 0x1_0000;
        let r = p
            .run_with_attacker("__start", move |_step, mem, regs| {
                // Scribble over the top of the stack on every step: any
                // saved return address becomes a pointer to main's entry.
                let rsp = regs[mcfi_machine::Reg::Rsp.index()] as usize;
                if rsp >= stack_lo && rsp + 64 <= mem.len() {
                    for w in (rsp..rsp + 64).step_by(8) {
                        mem[w..w + 8].copy_from_slice(&target.to_le_bytes());
                    }
                }
            })
            .unwrap();
        // main's entry is never a legal return target; MCFI halts.
        assert!(
            matches!(r.outcome, Outcome::CfiViolation { .. }),
            "expected violation, got {:?}",
            r.outcome
        );
    }

    #[test]
    fn dlopen_loads_library_and_updates_policy() {
        let lib = compile("libplug", "int plug_value(int x) { return x * 11; }");
        let src = "int dlopen(char* name);\n\
                   void* dlsym(char* name);\n\
                   int main(void) {\n\
                     int ok = dlopen(\"libplug\");\n\
                     if (!ok) { return -1; }\n\
                     int (*f)(int) = (int(*)(int))dlsym(\"plug_value\");\n\
                     if (!f) { return -2; }\n\
                     return f(4);\n\
                   }";
        let mut p = boot(src);
        p.register_library("libplug", lib);
        let r = p.run("__start").unwrap();
        assert_eq!(r.outcome, Outcome::Exit { code: 44 }, "stdout: {}", r.stdout);
        assert!(r.updates >= 1, "dlopen must run an update transaction");
    }

    /// Every Tary entry and Bary slot of `p`'s tables holds exactly what
    /// `policy` gives it: its ECN, or no ID.
    fn assert_tables_hold(p: &Process, policy: &mcfi_cfggen::ControlFlowPolicy) {
        let t = p.tables();
        let view = t.tary_view();
        for addr in (0..t.tary_len() as u64 * 4).step_by(4) {
            let ecn = view.id_at(addr).map(|id| id.ecn().raw());
            assert_eq!(ecn, policy.tary.get(&addr).copied(), "Tary entry at {addr:#x}");
        }
        for slot in 0..t.bary_len() {
            let ecn = mcfi_tables::Id::from_word(t.bary_word(slot)).map(|id| id.ecn().raw());
            assert_eq!(ecn, policy.bary.get(slot).map(|b| b.ecn), "Bary slot {slot}");
        }
    }

    #[test]
    fn installs_write_exactly_the_policy() {
        let mut p = boot(
            "int twice(int x) { return 2 * x; }\n\
             int main(void) { int (*f)(int) = twice; return f(21); }",
        );
        let policy = p.current_policy();
        assert!(!policy.tary.is_empty() && !policy.bary.is_empty());
        assert_tables_hold(&p, &policy);
        // A policy with nothing in it clears every word the last one
        // wrote; reinstalling the generated one brings them all back.
        let empty = mcfi_cfggen::ControlFlowPolicy::from_branches(Vec::new());
        p.install_custom_policy(&empty);
        assert_tables_hold(&p, &empty);
        p.install_custom_policy(&policy);
        assert_tables_hold(&p, &policy);
        assert_eq!(p.run("__start").unwrap().outcome, Outcome::Exit { code: 42 });
    }

    #[test]
    fn dlopen_of_missing_library_fails_cleanly() {
        let src = "int dlopen(char* name);\n\
                   int main(void) { return dlopen(\"nope\"); }";
        let r = {
            let mut p = boot(src);
            p.run("__start").unwrap()
        };
        assert_eq!(r.outcome, Outcome::Exit { code: 0 });
    }

    #[test]
    fn plt_routed_call_works_after_dlopen() {
        // The program calls an undefined function directly; the loader
        // routes it through an instrumented PLT entry whose GOT slot is
        // bound during dlopen's update transaction.
        let lib = compile("libm2", "int provided(int x) { return x + 100; }");
        let src = "int provided(int x);\n\
                   int dlopen(char* name);\n\
                   int main(void) {\n\
                     int ok = dlopen(\"libm2\");\n\
                     if (!ok) { return -1; }\n\
                     int r = provided(5);\n\
                     return r;\n\
                   }";
        let mut p = boot(src);
        p.register_library("libm2", lib);
        let r = p.run("__start").unwrap();
        assert_eq!(r.outcome, Outcome::Exit { code: 105 }, "stdout: {}", r.stdout);
    }

    #[test]
    fn plt_call_before_binding_is_a_violation() {
        let src = "int provided(int x);\n\
                   int main(void) { int r = provided(5); return r; }";
        let mut p = boot(src);
        let r = p.run("__start").unwrap();
        assert!(matches!(r.outcome, Outcome::CfiViolation { .. }), "{:?}", r.outcome);
    }

    #[test]
    fn execve_probe_records_reachability() {
        let r = run(
            "int execve(char* path);\n\
             int main(void) { int r = execve(\"/bin/sh\"); return r; }",
        );
        assert!(r.execve_reached);
    }

    #[test]
    fn concurrent_updater_thread_does_not_break_execution() {
        // Fig. 6's mechanism: a real thread re-stamps all ID versions
        // while the VM executes check transactions against the same
        // atomics. Execution must stay correct (retries, not corruption).
        let src = "int work(int x) { return x * 2 + 1; }\n\
                   int main(void) {\n\
                     int acc = 0; int i = 0;\n\
                     int (*f)(int) = &work;\n\
                     while (i < 20000) { acc = acc + f(i); i = i + 1; }\n\
                     return acc % 97;\n\
                   }";
        let mut p = boot(src);
        let tables = p.tables();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = std::sync::Arc::clone(&stop);
        let updater = std::thread::spawn(move || {
            let mut n = 0u64;
            while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                tables.bump_version();
                n += 1;
                std::thread::yield_now();
            }
            n
        });
        let r = p.run("__start").unwrap();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let updates = updater.join().unwrap();
        assert!(matches!(r.outcome, Outcome::Exit { .. }), "{:?}", r.outcome);
        assert!(updates > 0);
    }

    #[test]
    fn tail_call_heavy_code_executes_correctly() {
        let r = run(
            "int even(int n);\n\
             int odd(int n) { if (n == 0) { return 0; } return even(n - 1); }\n\
             int even(int n) { if (n == 0) { return 1; } return odd(n - 1); }\n\
             int main(void) { return even(100) + odd(99); }",
        );
        assert_eq!(r.outcome, Outcome::Exit { code: 2 });
    }

    #[test]
    fn for_loops_run_with_c_continue_semantics() {
        let r = run(
            "int main(void) {\n\
               int s = 0;\n\
               for (int i = 0; i < 10; i = i + 1) {\n\
                 if (i % 2 == 0) { continue; }\n\
                 s = s + i;\n\
               }\n\
               return s;\n\
             }",
        );
        // 1 + 3 + 5 + 7 + 9 = 25: `continue` must still run the step.
        assert_eq!(r.outcome, Outcome::Exit { code: 25 });
    }

    #[test]
    fn loader_rejects_oversized_code() {
        let mut opts = ProcessOptions::default();
        opts.layout.code_limit = opts.layout.code_base + 256; // tiny code region
        let mut p = Process::new(opts).expect("valid layout");
        let libms = compile("libms", stdlib::LIBMS_SRC);
        let err = p.load(libms).unwrap_err();
        assert!(matches!(err, LoadError::OutOfSpace("code")), "{err}");
    }

    #[test]
    fn a_second_definition_of_a_loaded_function_is_refused() {
        let mut p = boot(
            "void* dlsym(char* name);\n\
             int main(void) {\n\
               int (*f)(int) = (int(*)(int))dlsym(\"dup\");\n\
               if (!f) { return -1; }\n\
               return f(1);\n\
             }",
        );
        p.load(compile("liba", "int dup(int x) { return x + 10; }")).unwrap();
        let (loaded, policy) = (p.loaded(), format!("{:?}", p.current_policy()));
        let err = p.load(compile("libb", "int dup(int x) { return x + 20; }")).unwrap_err();
        assert_eq!(err, LoadError::DuplicateSymbol("dup".into()));
        assert_eq!(p.loaded(), loaded);
        assert_eq!(format!("{:?}", p.current_policy()), policy);
        // `dlsym` hands out liba's entry, and the policy lets the host
        // call it.
        let r = p.run("__start").unwrap();
        assert_eq!(r.outcome, Outcome::Exit { code: 11 }, "stdout: {}", r.stdout);
    }

    #[test]
    fn loader_rejects_bary_overflow() {
        let mut p = Process::new(ProcessOptions { bary_capacity: 1, ..Default::default() }).expect("valid layout");
        let m = compile("m", "int a(void) { return 1; }\nint b(void) { return 2; }");
        let err = p.load(m).unwrap_err();
        assert!(matches!(err, LoadError::BaryOverflow), "{err}");
    }

    #[test]
    fn loader_rejects_unresolved_address_taken_import() {
        // Taking the address of a function no loaded module defines cannot
        // be deferred (there is no PLT for data relocations): load fails.
        let mut p = Process::new(ProcessOptions::default()).expect("valid layout");
        let m = compile(
            "m",
            "int ghost(int x);\nint (*g)(int) = ghost;\nint main(void) { return 0; }",
        );
        let err = p.load(m).unwrap_err();
        assert!(matches!(err, LoadError::Unresolved(ref n) if n == "ghost"), "{err}");
    }

    /// Every observable field of a run must be byte-identical with the
    /// predecode cache on and off — the cache is a pure fetch memo.
    fn assert_observably_identical(cached: &RunResult, uncached: &RunResult, what: &str) {
        assert_eq!(cached.outcome, uncached.outcome, "{what}: outcome");
        assert_eq!(cached.steps, uncached.steps, "{what}: steps");
        assert_eq!(cached.cycles, uncached.cycles, "{what}: cycles");
        assert_eq!(cached.checks, uncached.checks, "{what}: checks");
        assert_eq!(cached.indirect_taken, uncached.indirect_taken, "{what}: indirect_taken");
        assert_eq!(cached.stdout, uncached.stdout, "{what}: stdout");
        assert_eq!(cached.updates, uncached.updates, "{what}: updates");
        assert_eq!(uncached.icache_hits, 0, "{what}: uncached runs must not touch the cache");
        assert!(cached.icache_hits > 0, "{what}: cached runs must actually hit");
    }

    #[test]
    fn cached_and_uncached_runs_are_observably_identical() {
        let programs: &[(&str, &str)] = &[
            ("trivial", "int main(void) { return 42; }"),
            (
                "fib",
                "int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }\n\
                 int main(void) { return fib(12); }",
            ),
            (
                "indirect",
                "int twice(int x) { return x * 2; }\n\
                 int main(void) { int (*f)(int); f = &twice; return f(21); }",
            ),
            (
                "switch",
                "int classify(int x) {\n\
                   switch (x) { case 0: return 10; case 1: return 20; default: return -1; }\n\
                   return 0;\n\
                 }\n\
                 int main(void) { return classify(1) + classify(7); }",
            ),
            (
                "stdout",
                "int puts(char* s);\nint main(void) { puts(\"hello mcfi\"); return 0; }",
            ),
            (
                "violation",
                "float fsq(float x) { return x * x; }\n\
                 int main(void) {\n\
                   void* raw = (void*)&fsq;\n\
                   int (*f)(int) = (int(*)(int))raw;\n\
                   return f(3);\n\
                 }",
            ),
        ];
        for (name, src) in programs {
            let opts = CodegenOptions::default();
            let cached = boot_full(src, &opts, ProcessOptions::default()).run("__start").unwrap();
            let decode = ProcessOptions { fetch: FetchMode::Decode, ..Default::default() };
            let uncached = boot_full(src, &opts, decode).run("__start").unwrap();
            assert_observably_identical(&cached, &uncached, name);
        }
    }

    #[test]
    fn dlopen_code_patching_is_identical_cached_and_uncached() {
        // The invalidation stress: dlopen maps code writable, patches it
        // (relocations, Bary-slot immediates, GOT binding during the
        // update transaction), and flips it executable — all after the
        // cache has been built and PLT code has already executed. The
        // cached run must re-decode everything the loader touched.
        let src = "int provided(int x);\n\
                   int dlopen(char* name);\n\
                   int main(void) {\n\
                     int ok = dlopen(\"libm2\");\n\
                     if (!ok) { return -1; }\n\
                     int r = provided(5);\n\
                     return r;\n\
                   }";
        let run_mode = |fetch: FetchMode| {
            let lib = compile("libm2", "int provided(int x) { return x + 100; }");
            let mut p = boot_full(
                src,
                &CodegenOptions::default(),
                ProcessOptions { fetch, ..Default::default() },
            );
            p.register_library("libm2", lib);
            p.run("__start").unwrap()
        };
        let cached = run_mode(FetchMode::Predecode);
        let uncached = run_mode(FetchMode::Decode);
        assert_eq!(cached.outcome, Outcome::Exit { code: 105 }, "stdout: {}", cached.stdout);
        assert_observably_identical(&cached, &uncached, "plt-after-dlopen");
        assert!(
            cached.icache_invalidations >= 2,
            "the initial build plus the dlopen must each rebuild, got {}",
            cached.icache_invalidations
        );
    }

    #[test]
    fn run_with_updates_is_identical_cached_and_uncached() {
        let src = "int work(int x) { return x * 2 + 1; }\n\
                   int main(void) {\n\
                     int acc = 0; int i = 0;\n\
                     int (*f)(int) = &work;\n\
                     while (i < 500) { acc = acc + f(i); i = i + 1; }\n\
                     return acc % 97;\n\
                   }";
        let run_mode = |fetch: FetchMode| {
            boot_full(
                src,
                &CodegenOptions::default(),
                ProcessOptions { fetch, ..Default::default() },
            )
            .run_with_updates("__start", 5_000, 200)
            .unwrap()
        };
        let cached = run_mode(FetchMode::Predecode);
        let uncached = run_mode(FetchMode::Decode);
        assert!(cached.updates > 0, "the scripted updater must fire");
        assert_observably_identical(&cached, &uncached, "scripted-updates");
    }

    /// The architectural-equality contract for the baseline-compiled
    /// tier: everything the guest or a profiler can observe must match
    /// the interpreter exactly; only the tier's own counters differ.
    fn assert_arch_identical(translated: &RunResult, interpreted: &RunResult, what: &str) {
        assert_eq!(translated.outcome, interpreted.outcome, "{what}: outcome");
        assert_eq!(translated.steps, interpreted.steps, "{what}: steps");
        assert_eq!(translated.cycles, interpreted.cycles, "{what}: cycles");
        assert_eq!(translated.checks, interpreted.checks, "{what}: checks");
        assert_eq!(translated.indirect_taken, interpreted.indirect_taken, "{what}: indirect");
        assert_eq!(translated.stdout, interpreted.stdout, "{what}: stdout");
        assert_eq!(translated.updates, interpreted.updates, "{what}: updates");
        assert_eq!(translated.check_retries, interpreted.check_retries, "{what}: check retries");
        assert_eq!(
            interpreted.trans_dispatches, 0,
            "{what}: interpreter runs must not touch the translated tier"
        );
        assert!(translated.trans_dispatches > 0, "{what}: translated runs must dispatch blocks");
        assert!(translated.trans_translations > 0, "{what}: blocks must actually be lowered");
    }

    #[test]
    fn translated_and_interpreted_runs_are_observably_identical() {
        let programs: &[(&str, &str)] = &[
            ("trivial", "int main(void) { return 42; }"),
            (
                "fib",
                "int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }\n\
                 int main(void) { return fib(12); }",
            ),
            (
                "indirect",
                "int twice(int x) { return x * 2; }\n\
                 int main(void) { int (*f)(int); f = &twice; return f(21); }",
            ),
            (
                "switch",
                "int classify(int x) {\n\
                   switch (x) { case 0: return 10; case 1: return 20; default: return -1; }\n\
                   return 0;\n\
                 }\n\
                 int main(void) { return classify(1) + classify(7); }",
            ),
            (
                "stdout",
                "int puts(char* s);\nint main(void) { puts(\"hello mcfi\"); return 0; }",
            ),
            (
                "violation",
                "float fsq(float x) { return x * x; }\n\
                 int main(void) {\n\
                   void* raw = (void*)&fsq;\n\
                   int (*f)(int) = (int(*)(int))raw;\n\
                   return f(3);\n\
                 }",
            ),
            // Faults in the middle of a translated block: the machine
            // must stop where the interpreter stops, pc included.
            (
                "fault-divide",
                "int main(void) {\n\
                   int zero = 0; int acc = 0; int i = 0;\n\
                   while (i < 100) {\n\
                     acc = acc + i; if (i == 60) { acc = acc / zero; } i = i + 1;\n\
                   }\n\
                   return acc;\n\
                 }",
            ),
            (
                "fault-code-store",
                "int target(int x) { return x + 1; }\n\
                 int main(void) {\n\
                   void* raw = (void*)&target;\n\
                   int* code = (int*)raw;\n\
                   int acc = 0; int i = 0;\n\
                   while (i < 100) { acc = acc + i; if (i == 60) { *code = acc; } i = i + 1; }\n\
                   return acc;\n\
                 }",
            ),
        ];
        for (name, src) in programs {
            let opts = CodegenOptions::default();
            let translate = ProcessOptions { fetch: FetchMode::Translate, ..Default::default() };
            let translated = boot_full(src, &opts, translate).run("__start").unwrap();
            let interpreted = boot_full(src, &opts, ProcessOptions::default())
                .run("__start")
                .unwrap();
            assert_arch_identical(&translated, &interpreted, name);
            if name.starts_with("fault") {
                assert!(
                    matches!(translated.outcome, Outcome::Fault(_)),
                    "{name}: the program must fault, got {:?}",
                    translated.outcome
                );
            }
        }
    }

    #[test]
    fn translated_scripted_updates_are_identical_to_interpreted() {
        // Version churn is the TxCheck fast path's worst case: inside
        // every update window the Bary and Tary words disagree, the
        // specialized check misses, and the slow path (single-step
        // interpretation, guest retry loop) must replay exactly.
        let src = "int work(int x) { return x * 2 + 1; }\n\
                   int main(void) {\n\
                     int acc = 0; int i = 0;\n\
                     int (*f)(int) = &work;\n\
                     while (i < 500) { acc = acc + f(i); i = i + 1; }\n\
                     return acc % 97;\n\
                   }";
        let run_mode = |fetch: FetchMode| {
            boot_full(
                src,
                &CodegenOptions::default(),
                ProcessOptions { fetch, ..Default::default() },
            )
            .run_with_updates("__start", 5_000, 200)
            .unwrap()
        };
        let translated = run_mode(FetchMode::Translate);
        let interpreted = run_mode(FetchMode::Predecode);
        assert!(translated.updates > 0, "the scripted updater must fire");
        assert_arch_identical(&translated, &interpreted, "scripted-updates");
        assert!(
            translated.trans_fallbacks > 0,
            "update windows must force specialized-check misses"
        );
    }

    #[test]
    fn dlopen_mid_run_deopts_and_lazily_retranslates() {
        // The deopt boundary: dlopen bumps the sandbox generation while
        // translated blocks are live, which must retire them all; the
        // post-load code (PLT re-binding included) then retranslates
        // lazily — and the whole thing stays byte-identical to the
        // interpreter.
        let src = "int provided(int x);\n\
                   int dlopen(char* name);\n\
                   int spin(int n) { int a = 0; int i = 0;\n\
                     while (i < n) { a = a + i; i = i + 1; } return a; }\n\
                   int main(void) {\n\
                     int warm = spin(200);\n\
                     int ok = dlopen(\"libm2\");\n\
                     if (!ok) { return -1; }\n\
                     int r = provided(5) + spin(100) - warm;\n\
                     return r % 125;\n\
                   }";
        let run_mode = |fetch: FetchMode| {
            let lib = compile("libm2", "int provided(int x) { return x + 100; }");
            let mut p = boot_full(
                src,
                &CodegenOptions::default(),
                ProcessOptions { fetch, ..Default::default() },
            );
            p.register_library("libm2", lib);
            p.run("__start").unwrap()
        };
        let translated = run_mode(FetchMode::Translate);
        let interpreted = run_mode(FetchMode::Predecode);
        assert_arch_identical(&translated, &interpreted, "dlopen-deopt");
        assert!(
            translated.trans_deopts >= 1,
            "dlopen must retire live translated blocks, got {} deopts",
            translated.trans_deopts
        );
        assert!(
            translated.trans_retranslations >= 1,
            "post-dlopen execution must retranslate lazily, got {}",
            translated.trans_retranslations
        );
    }

    #[test]
    fn trans_invalidate_chaos_point_forces_mid_run_deopt() {
        use mcfi_chaos::{FaultPlan, FaultPoint};
        // The `puts` in the middle is load-bearing: its syscall breaks
        // the dispatch chain, so the run has a second translated
        // loop-top where the armed fault can fire with blocks live.
        let src = "int puts(char* s);\n\
                   int main(void) {\n\
                     int acc = 0; int i = 0;\n\
                     while (i < 150) { acc = acc + i; i = i + 1; }\n\
                     puts(\"mid\");\n\
                     while (i < 300) { acc = acc + i; i = i + 1; }\n\
                     return acc % 89;\n\
                   }";
        let run_mode = |fetch: FetchMode| {
            let mut p = boot_full(
                src,
                &CodegenOptions::default(),
                ProcessOptions { fetch, ..Default::default() },
            );
            // Force-deopt on the second translated loop-top: after the
            // first chain has translated blocks, so they are live.
            p.arm_chaos(FaultPlan::new().with(FaultPoint::TransInvalidate, 2, 0));
            p.run("__start").unwrap()
        };
        let translated = run_mode(FetchMode::Translate);
        let interpreted = run_mode(FetchMode::Predecode);
        assert_arch_identical(&translated, &interpreted, "trans-invalidate");
        assert!(
            translated.trans_deopts >= 1,
            "the chaos point must retire live blocks, got {} deopts",
            translated.trans_deopts
        );
        assert!(
            translated.trans_retranslations >= 1,
            "the loop must retranslate after the forced deopt, got {}",
            translated.trans_retranslations
        );
    }

    #[test]
    fn restored_uncached_run_reports_zero_cache_counters() {
        // Regression: a checkpoint captured during a cached run stores
        // the VM stats — icache counters included — inside its VmState.
        // Restoring it and resuming under a configuration that never
        // touches a cache (here the always-uncached attacker driver)
        // used to report the stale counters; the run loop must zero
        // whatever its own configuration cannot produce.
        let src = "int main(void) {\n\
                     int acc = 0; int i = 0;\n\
                     while (i < 2000) { acc = acc + i; i = i + 1; }\n\
                     return acc % 101;\n\
                   }";
        let mut p = boot_full(
            src,
            &CodegenOptions::default(),
            ProcessOptions { checkpoint_interval: 1_000, ..Default::default() },
        );
        let first = p.run("__start").unwrap();
        assert!(first.icache_hits > 0, "the cached run must hit");
        assert!(p.checkpoints_taken() > 0, "the run must checkpoint");
        let cp = p.checkpoints().last().expect("checkpoint captured").clone();
        p.restore(&cp).expect("restore succeeds");
        let resumed = p.run_with_attacker("__start", |_, _, _| {}).unwrap();
        assert_eq!(resumed.outcome, first.outcome, "resumed run finishes the program");
        assert_eq!(resumed.icache_hits, 0, "uncached resumption must report zero hits");
        assert_eq!(resumed.icache_misses, 0, "uncached resumption must report zero misses");
        assert_eq!(resumed.trans_dispatches, 0, "untranslated resumption: zero dispatches");
    }

    #[test]
    fn retained_checkpoints_restore_out_of_order_and_rollbacks_are_exact() {
        use mcfi_chaos::{FaultPlan, FaultPoint};
        // Every run bumps a global and recurses one level deeper, so each
        // capture holds a different image and each run a different result.
        let src = "int runs = 0;\n\
                   int depth(int n) { if (n == 0) { return runs; } return depth(n - 1) + 1; }\n\
                   int main(void) { runs = runs + 1; return depth(runs * 3) % 256; }";
        // Uncached, so a run's cache counters do not depend on whether a
        // restore (which bumps the generation) came before it.
        let mut p = boot_full(
            src,
            &CodegenOptions::default(),
            ProcessOptions { fetch: FetchMode::Decode, ..Default::default() },
        );
        let (mut images, mut results) = (Vec::new(), Vec::new());
        for _ in 0..6 {
            p.checkpoint_now();
            images.push(p.mem().raw().to_vec());
            results.push(p.run("__start").unwrap());
        }
        assert!(images.windows(2).all(|w| w[0] != w[1]), "every run writes memory");
        let retained = p.checkpoints().to_vec();
        assert_eq!(retained.len(), 4, "the ring keeps the newest four");
        // The lifetime totals are the only fields a restore may change.
        let comparable = |r: &RunResult| RunResult { checkpoints: 0, restores: 0, ..r.clone() };
        // Second, oldest, newest, third of the retained captures 2..=5.
        for k in [1, 0, 3, 2] {
            let capture = k + 2;
            p.restore(&retained[k]).expect("restore succeeds");
            assert!(p.mem().raw() == &images[capture][..], "capture {capture}: memory differs");
            let r = p.run("__start").unwrap();
            assert_eq!(comparable(&r), comparable(&results[capture]), "capture {capture}");
        }

        p.checkpoint_now();
        let (bytes, regions) = (p.mem().raw().to_vec(), p.mem().regions().to_vec());
        p.arm_chaos(FaultPlan::new().with(FaultPoint::VerifierReject, 1, 0));
        let lib = compile("libextra", "int extra(int x) { return x + 1; }");
        assert!(p.load(lib).is_err(), "the injected reject fails the load");
        assert_eq!(p.load_rollbacks(), 1);
        assert!(p.mem().raw() == &bytes[..], "the rollback restores every byte");
        assert_eq!(p.mem().regions(), &regions[..], "and every mapping");
    }

    #[test]
    fn checkpoints_share_modules_and_keep_them_unmarked() {
        // `plugged` becomes address-taken only when `dlsym` hands it out,
        // which widens the policy with an update transaction.
        let src = "void* dlsym(char* name);\n\
                   int plugged(int x) { return x * 3 + 1; }\n\
                   int main(void) {\n\
                     int (*f)(int) = (int(*)(int))dlsym(\"plugged\");\n\
                     if (!f) { return -1; }\n\
                     return f(13);\n\
                   }";
        // Uncached, so the run after the restore (which bumps the
        // generation) reports the same cache counters as the first.
        let mut p = boot_full(
            src,
            &CodegenOptions::default(),
            ProcessOptions { fetch: FetchMode::Decode, ..Default::default() },
        );
        let plugged = p.symbol("plugged").expect("plugged is exported");
        let before = p.current_policy();
        assert!(!before.tary.contains_key(&plugged), "plugged is not yet address-taken");
        let cp = p.checkpoint_now().clone();
        assert!(p.shares_modules_with(&cp), "the checkpoint copied a module");

        let first = p.run("__start").unwrap();
        assert_eq!(first.outcome, Outcome::Exit { code: 40 });
        assert!(first.updates >= 1, "the dlsym installs the widened policy");
        assert!(p.current_policy().tary.contains_key(&plugged), "the dlsym marks plugged");
        assert!(!p.shares_modules_with(&cp), "the mark copies the module it edits");

        p.restore(&cp).expect("restore succeeds");
        assert!(p.shares_modules_with(&cp), "the restore copied a module");
        let policy = p.current_policy();
        assert!(format!("{policy:?}") == format!("{before:?}"), "the restore unmarks plugged");
        let comparable = |r: &RunResult| RunResult { checkpoints: 0, restores: 0, ..r.clone() };
        let second = p.run("__start").unwrap();
        assert_eq!(comparable(&second), comparable(&first), "the rerun marks plugged again");
    }

    /// The host of the loader-trace tests: it `dlopen`s `libl` and calls
    /// into it. Its `struct Shape` is what the type-clash stage collides
    /// with; its heap write lands where the restored `brk` says.
    const TRACE_HOST: &str = "struct Shape { int a; };\n\
        int dlopen(char* name);\n\
        void* dlsym(char* name);\n\
        void* malloc(int n);\n\
        int main(void) {\n\
          struct Shape s; s.a = 2;\n\
          char* heap = (char*)malloc(16);\n\
          heap[0] = 5;\n\
          if (!dlopen(\"libl\")) { return -2; }\n\
          int (*f)(int) = (int(*)(int))dlsym(\"l_entry\");\n\
          return f(4) + s.a + heap[0];\n\
        }";

    /// `libl`. Each part shows a piece of loader state that an undone
    /// load of [`TRACE_F`] must not leave behind: its typedef clashes with
    /// `TRACE_F`'s (the type union), it defines `f_only`, which `TRACE_F`
    /// imports (the GOT map), it imports `f_plt` as `TRACE_F` does (the
    /// PLT map and the GOT cursor), and its code embeds its global's
    /// address, its stub's and its Bary slot numbers (the data and code
    /// cursors and the slot count).
    const TRACE_LIB: &str = "typedef char Meters;\n\
        int f_plt(int v);\n\
        int l_counter = 5;\n\
        int f_only(int v) { return v * 3; }\n\
        int l_entry(int v) {\n\
          Meters c = 1;\n\
          l_counter = l_counter + v;\n\
          if (v < 0) { return f_plt(v); }\n\
          return f_only(v) + l_counter + c;\n\
        }";

    /// A module that loads on its own: a typedef, two imports routed
    /// through fresh PLT stubs and GOT slots, and code.
    const TRACE_F: &str = "typedef int Meters;\n\
        int f_only(int v);\n\
        int f_plt(int v);\n\
        int f_uses(int v) { Meters m = v; return f_only(m) + f_plt(m); }";

    /// The trace host with `libl` registered, uncached so that a
    /// restore's generation bump leaves the cache counters alone.
    fn trace_host() -> Process {
        let popts = ProcessOptions { fetch: FetchMode::Decode, ..Default::default() };
        let mut p = boot_full(TRACE_HOST, &CodegenOptions::default(), popts);
        p.register_library("libl", compile("libl", TRACE_LIB));
        p
    }

    /// What a later load can see of a process, taken after one run of
    /// the trace host: the module list, the memory image and its
    /// mappings, the enforced policy, and the run (lifetime counters
    /// aside).
    struct Trace {
        loaded: Vec<(String, u64)>,
        image: Vec<u8>,
        regions: Vec<mem::Region>,
        policy: String,
        run: RunResult,
    }

    fn trace(p: &mut Process) -> Trace {
        let run = RunResult { checkpoints: 0, restores: 0, ..p.run("__start").unwrap() };
        Trace {
            loaded: p.loaded(),
            image: p.mem().raw().to_vec(),
            regions: p.mem().regions().to_vec(),
            policy: format!("{:?}", p.current_policy()),
            run,
        }
    }

    fn assert_same_trace(got: &Trace, want: &Trace, what: &str) {
        assert_eq!(got.loaded, want.loaded, "{what}: loaded modules");
        assert!(got.image == want.image, "{what}: memory image");
        assert_eq!(got.regions, want.regions, "{what}: mappings");
        assert!(got.policy == want.policy, "{what}: enforced policy");
        assert_eq!(got.run, want.run, "{what}: run result");
    }

    #[test]
    fn a_failed_load_leaves_no_trace_in_the_next_load() {
        use mcfi_chaos::{FaultPlan, FaultPoint};
        let clean = trace(&mut trace_host());
        assert_eq!(clean.run.outcome, Outcome::Exit { code: 29 });
        assert!(clean.loaded.iter().any(|(m, _)| m == "__plt_f_plt"), "libl made a PLT stub");
        // The typedef merges before the struct clashes.
        let clash = "typedef int Meters;\n\
                     struct Shape { int a; int b; };\n\
                     int f_shape(struct Shape* s) { return s->a; }";
        // The data relocation fails after the code's PLT stubs and GOT
        // slots were made.
        let unresolved = format!("{TRACE_F}\nint ghost(int x);\nint (*g)(int) = ghost;");
        type Stage<'a> = (&'a str, &'a str, Option<FaultPoint>, fn(&LoadError) -> bool);
        let stages: [Stage<'_>; 4] = [
            ("type clash", clash, None, |e| matches!(e, LoadError::TypeClash(_))),
            ("unresolved", &unresolved, None, |e| matches!(e, LoadError::Unresolved(_))),
            ("verifier-reject", TRACE_F, Some(FaultPoint::VerifierReject), |e| {
                matches!(e, LoadError::Rejected(_))
            }),
            ("cfg-regen-fail", TRACE_F, Some(FaultPoint::CfgRegenFail), |e| {
                matches!(e, LoadError::CfgRegen(_))
            }),
        ];
        for (stage, src, fault, expected) in stages {
            let mut p = trace_host();
            if let Some(point) = fault {
                p.arm_chaos(FaultPlan::new().with(point, 1, 0));
            }
            let err = p.load(compile("f", src)).expect_err(stage);
            p.disarm_chaos();
            assert!(expected(&err), "{stage}: {err}");
            assert_eq!(p.load_rollbacks(), 1, "{stage}");
            assert_same_trace(&trace(&mut p), &clean, stage);
        }
    }

    #[test]
    fn a_restore_leaves_no_trace_in_the_next_load() {
        let mut p = trace_host();
        let cp = p.checkpoint_now().clone();
        let first = trace(&mut p);
        assert_eq!(first.run.outcome, Outcome::Exit { code: 29 });
        p.restore(&cp).expect("restore succeeds");
        assert_same_trace(&trace(&mut p), &first, "a dlopen after a restore");

        // Once a restore has undone `libl`, a module whose types clash
        // with it loads as into the host that never had it.
        p.restore(&cp).expect("restore succeeds");
        p.load(compile("f", TRACE_F)).expect("loads once libl is undone");
        let mut fresh = trace_host();
        fresh.load(compile("f", TRACE_F)).expect("loads into a fresh host");
        assert_same_trace(&trace(&mut p), &trace(&mut fresh), "a load after a restore");
    }

    #[test]
    fn a_resumed_restore_puts_back_the_run_visible_output() {
        // The run's first line and its execve come before a long loop,
        // its audited violation and second line after it; the oldest
        // retained in-run checkpoint falls inside the loop.
        let src = "int puts(char* s);\n\
                   int execve(char* path);\n\
                   float fsq(float x) { return x * x; }\n\
                   int go = 1;\n\
                   int main(void) {\n\
                     puts(\"first\");\n\
                     if (go) { execve(\"/bin/sh\"); }\n\
                     int i = 0;\n\
                     while (i < 2000) { i = i + 1; }\n\
                     void* raw = (void*)&fsq;\n\
                     int (*f)(int) = (int(*)(int))raw;\n\
                     int r = f(3);\n\
                     puts(\"second\");\n\
                     return 7;\n\
                   }";
        let popts = ProcessOptions {
            fetch: FetchMode::Decode,
            violation_policy: ViolationPolicy::Audit,
            checkpoint_interval: 1_000,
            ..Default::default()
        };
        let mut p = boot_full(src, &CodegenOptions::default(), popts);
        let comparable = |r: RunResult| RunResult { checkpoints: 0, restores: 0, ..r };
        let whole = comparable(p.run("__start").unwrap());
        assert_eq!(whole.stdout, "first\nsecond\n");
        assert!(whole.execve_reached && whole.audited_violations > 0, "{whole:?}");
        let cp = p.checkpoints()[0].clone();
        assert!(cp.resumable());
        // A second run without the execve leaves the live process
        // holding a different stdout, violation log and execve flag from
        // the checkpoint's.
        assert!(p.poke_global_int("go", 0));
        let second = p.run("__start").unwrap();
        assert!(!second.execve_reached && second.audited_violations > 0);
        p.restore(&cp).expect("restore succeeds");
        let resumed = comparable(p.run("__start").unwrap());
        assert_eq!(resumed, whole, "the resumed run finishes the first run");
    }

    #[test]
    fn attached_processes_load_the_image_modules_themselves() {
        let modules = vec![
            synth::syscall_module(),
            compile("libms", stdlib::LIBMS_SRC),
            compile("start", stdlib::START_SRC),
            compile("prog", "int main(void) { return 7; }"),
        ];
        let image = SharedImage::build(modules, ProcessOptions::default()).expect("image builds");
        for _ in 0..2 {
            let mut p = image.attach().expect("attach");
            let loaded: Vec<_> =
                p.loaded_modules().filter(|m| !m.name.starts_with("__plt_")).collect();
            assert_eq!(loaded.len(), image.modules().len());
            for (m, shared) in loaded.into_iter().zip(image.modules()) {
                assert!(std::sync::Arc::ptr_eq(m, shared), "{} was copied", m.name);
            }
            assert_eq!(p.run("__start").unwrap().outcome, Outcome::Exit { code: 7 });
        }
    }

    #[test]
    fn step_limit_terminates_infinite_loops() {
        let mut p = Process::new(ProcessOptions { max_steps: 10_000, ..Default::default() })
            .expect("valid layout");
        let stubs = synth::syscall_module();
        let libms = compile("libms", stdlib::LIBMS_SRC);
        let start = compile("start", stdlib::START_SRC);
        let prog = compile("prog", "int main(void) { while (1) { } return 0; }");
        p.load_all(vec![stubs, libms, start, prog]).unwrap();
        let r = p.run("__start").unwrap();
        assert_eq!(r.outcome, Outcome::StepLimit);
    }
}
