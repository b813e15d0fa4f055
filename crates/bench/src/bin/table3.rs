//! Regenerates **Table 3**: CFG statistics — instrumented indirect
//! branches (IBs), possible indirect-branch targets (IBTs), and
//! equivalence classes (EQCs) — for each benchmark, on x86-32 and
//! x86-64.
//!
//! On x86-64 tail-call optimization replaces returns with jumps, which
//! the paper observes yields *fewer* equivalence classes.

use mcfi::Arch;
use mcfi_bench::cfg_stats;
use mcfi_workloads::BENCHMARKS;

fn main() {
    println!("Table 3 — CFG statistics (statically linked with libms)\n");
    println!(
        "{:>12} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6}",
        "", "x86-32", "", "", "x86-64", "", ""
    );
    println!(
        "{:>12} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6}",
        "benchmark", "IBs", "IBTs", "EQCs", "IBs", "IBTs", "EQCs"
    );
    for b in BENCHMARKS {
        let s32 = cfg_stats(b, Arch::X86_32);
        let s64 = cfg_stats(b, Arch::X86_64);
        println!(
            "{:>12} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6}",
            b, s32.ibs, s32.ibts, s32.eqcs, s64.ibs, s64.ibts, s64.eqcs
        );
        assert!(
            s64.eqcs <= s32.eqcs,
            "{b}: tail-call optimization must not increase EQCs"
        );
    }
    println!("\n(paper: hundreds-to-thousands of classes — 2-3 orders of magnitude");
    println!(" more than coarse-grained CFI's handful; x86-64 slightly fewer EQCs)");
}
