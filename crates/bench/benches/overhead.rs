//! Host-time version of the Fig. 5 measurement on a small benchmark:
//! wall-clock time to execute the `mcf` workload with and without MCFI
//! instrumentation (the printed simulated-cycle ratio is what Fig. 5
//! reports; this bench tracks the harness itself), and the time to
//! compile the `gcc` workload. Writes `BENCH_overhead.json`.

use std::hint::black_box;
use std::time::Instant;

use mcfi::{Arch, BuildOptions, Policy};
use mcfi_bench::timing::{rounds, Report};
use mcfi_workloads::Variant;

fn main() {
    let mut report = Report::new("overhead");
    let legs = [("mcfi", Policy::Mcfi), ("nocfi", Policy::NoCfi)];
    let secs = rounds(legs.len(), |leg| {
        let opts = BuildOptions { policy: legs[leg].1, arch: Arch::X86_64, verify: false };
        let t = Instant::now();
        let r = mcfi::run_workload("mcf", Variant::Fixed, &opts).expect("runs");
        black_box(r.cycles);
        t.elapsed().as_secs_f64()
    });
    for ((label, _), leg) in legs.iter().zip(&secs) {
        report.row(format!("run_mcf/{label}"), "s", leg);
    }

    let src = mcfi_workloads::source("gcc", Variant::Fixed);
    let opts = BuildOptions::default();
    let secs = rounds(1, |_| {
        let t = Instant::now();
        let m = mcfi::compile_module("gcc", black_box(&src), &opts).expect("compiles");
        black_box(m.code.len());
        t.elapsed().as_secs_f64()
    });
    report.row("compile_gcc_workload", "s", &secs[0]);
    report.finish();
}
