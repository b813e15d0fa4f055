//! A/B benchmark for the runtime's predecoded-instruction cache.
//!
//! Runs the same workloads in two legs — fetching through the predecode
//! cache (the default), and decoding every step from raw sandbox bytes —
//! in interleaved rounds ([`mcfi_bench::timing`]), and reports
//! host-clock steps/second for each, the per-round speedup, and the
//! cache counters. Also cross-checks that every run of both modes reports
//! identical outcome, steps, and checks: the cache must be
//! architecturally invisible.
//!
//! Writes `BENCH_icache.json` and exits non-zero if fib-recursion's
//! median speedup is under 2x, the acceptance floor for the cache.

use std::time::Instant;

use mcfi_bench::timing::{ratio, rounds, Bound, Report};
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

fn main() {
    println!("predecode-cache A/B (cached vs per-step decode)\n");
    let mut report = Report::new("icache");
    let mut fib_speedup = None;
    for w in WORKLOADS {
        let runs = rounds(2, |leg| run_once(w, [FetchMode::Predecode, FetchMode::Decode][leg]));
        let rc = &runs[0][0].0;
        for (r, _) in runs.iter().flatten() {
            assert_eq!(r.outcome, rc.outcome, "{}: outcomes diverge", w.name);
            assert_eq!(r.steps, rc.steps, "{}: step counts diverge", w.name);
            assert_eq!(r.checks, rc.checks, "{}: check counts diverge", w.name);
        }
        let sps: Vec<Vec<f64>> =
            runs.iter().map(|leg| leg.iter().map(|(r, t)| r.steps as f64 / t).collect()).collect();
        report.row(format!("{}/cached", w.name), "steps/s", &sps[0]);
        report.row(format!("{}/uncached", w.name), "steps/s", &sps[1]);
        let speedup = report.row(format!("{}/speedup", w.name), "x", &ratio(&sps[0], &sps[1]));
        for (counter, value) in [
            ("steps", rc.steps),
            ("hits", rc.icache_hits),
            ("misses", rc.icache_misses),
            ("invalidations", rc.icache_invalidations),
            ("retries", rc.check_retries + rc.tx_retries),
            ("escalations", rc.tx_escalations),
        ] {
            report.fact(format!("{}/{counter}", w.name), value as f64);
        }
        if w.name == "fib-recursion" {
            fib_speedup = Some(speedup.median);
        }
    }
    let fib = fib_speedup.expect("fib-recursion ran");
    report.gate("fib-recursion speedup", fib, Bound::AtLeast(2.0), true);
    report.finish();
}
