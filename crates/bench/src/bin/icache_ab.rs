//! A/B benchmark for the runtime's predecoded-instruction cache.
//!
//! Runs the same workloads twice — once fetching through the predecode
//! cache (the default) and once decoding every step from raw sandbox
//! bytes — and reports host-clock steps/second for each, the speedup,
//! and the cache counters. Also cross-checks that both modes report
//! identical outcome, steps, and checks: the cache must be
//! architecturally invisible.
//!
//! Exits non-zero if fib-recursion speeds up by less than 2x, the
//! acceptance floor for the cache.

use std::time::Instant;

use mcfi_codegen::{compile_source, CodegenOptions};
use mcfi_runtime::{stdlib, synth, FetchMode, Process, ProcessOptions, RunResult};

struct Workload {
    name: &'static str,
    src: &'static str,
    /// Optional dlopen-able library: (file name, source).
    lib: Option<(&'static str, &'static str)>,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fib-recursion",
        src: "int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }\n\
              int main(void) { return fib(24) % 100; }",
        lib: None,
    },
    Workload {
        name: "tight-loop",
        src: "int main(void) {\n\
                int s = 0; int i = 0;\n\
                while (i < 400000) { s = s + i * 3 - (s / 7); i = i + 1; }\n\
                return s % 97;\n\
              }",
        lib: None,
    },
    Workload {
        name: "dlopen-plt",
        src: "int provided(int x);\n\
              int dlopen(char* name);\n\
              int main(void) {\n\
                int ok = dlopen(\"libplug\");\n\
                if (!ok) { return -1; }\n\
                int s = 0; int i = 0;\n\
                while (i < 60000) { s = s + provided(i); i = i + 1; }\n\
                return s % 97;\n\
              }",
        lib: Some(("libplug", "int provided(int x) { return x * 2 + 1; }")),
    },
];

fn boot(w: &Workload, fetch: FetchMode) -> Process {
    let copts = CodegenOptions::default();
    let mut p =
        Process::new(ProcessOptions { fetch, ..Default::default() }).expect("valid layout");
    let stubs = synth::syscall_module();
    let libms = compile_source("libms", stdlib::LIBMS_SRC, &copts).expect("libms compiles");
    let start = compile_source("start", stdlib::START_SRC, &copts).expect("start compiles");
    let prog = compile_source("prog", w.src, &copts).unwrap_or_else(|e| panic!("{}: {e}", w.name));
    p.load_all(vec![stubs, libms, start, prog]).unwrap_or_else(|e| panic!("{}: {e}", w.name));
    if let Some((file, src)) = w.lib {
        let lib = compile_source(file, src, &copts).unwrap_or_else(|e| panic!("{file}: {e}"));
        p.register_library(file, lib);
    }
    p
}

fn run_once(w: &Workload, fetch: FetchMode) -> (RunResult, f64) {
    let mut p = boot(w, fetch);
    let t = Instant::now();
    let r = p.run("__start").unwrap_or_else(|e| panic!("{}: {e}", w.name));
    (r, t.elapsed().as_secs_f64())
}

/// Runs `w` in both modes `reps` times, interleaved so host noise hits
/// both sides alike; returns each mode's result and best (minimum)
/// wall-clock seconds — the usual noise-resistant statistic.
fn measure(w: &Workload, reps: u32) -> ((RunResult, f64), (RunResult, f64)) {
    let mut best_c = f64::INFINITY;
    let mut best_u = f64::INFINITY;
    let mut res_c = None;
    let mut res_u = None;
    for _ in 0..reps {
        let (rc, tc) = run_once(w, FetchMode::Predecode);
        best_c = best_c.min(tc);
        res_c = Some(rc);
        let (ru, tu) = run_once(w, FetchMode::Decode);
        best_u = best_u.min(tu);
        res_u = Some(ru);
    }
    ((res_c.expect("reps >= 1"), best_c), (res_u.expect("reps >= 1"), best_u))
}

fn main() {
    println!("predecode-cache A/B (cached vs per-step decode)\n");
    println!(
        "{:<14} {:>12} {:>14} {:>14} {:>8}  {:>10} {:>8} {:>6} {:>8} {:>6}",
        "workload",
        "steps",
        "cached st/s",
        "uncached st/s",
        "speedup",
        "hits",
        "misses",
        "inval",
        "retries",
        "escal"
    );
    let mut fib_speedup = None;
    for w in WORKLOADS {
        let ((rc, tc), (ru, tu)) = measure(w, 5);
        assert_eq!(rc.outcome, ru.outcome, "{}: outcomes diverge", w.name);
        assert_eq!(rc.steps, ru.steps, "{}: step counts diverge", w.name);
        assert_eq!(rc.checks, ru.checks, "{}: check counts diverge", w.name);
        let cached_sps = rc.steps as f64 / tc;
        let uncached_sps = ru.steps as f64 / tu;
        let speedup = cached_sps / uncached_sps;
        if w.name == "fib-recursion" {
            fib_speedup = Some(speedup);
        }
        println!(
            "{:<14} {:>12} {:>14.3e} {:>14.3e} {:>7.2}x  {:>10} {:>8} {:>6} {:>8} {:>6}",
            w.name,
            rc.steps,
            cached_sps,
            uncached_sps,
            speedup,
            rc.icache_hits,
            rc.icache_misses,
            rc.icache_invalidations,
            rc.check_retries + rc.tx_retries,
            rc.tx_escalations,
        );
    }
    let fib = fib_speedup.expect("fib-recursion ran");
    if fib < 2.0 {
        eprintln!("\nFAIL: fib-recursion speedup {fib:.2}x is below the 2x floor");
        std::process::exit(1);
    }
    println!("\nPASS: fib-recursion speedup {fib:.2}x (floor: 2x)");
}
