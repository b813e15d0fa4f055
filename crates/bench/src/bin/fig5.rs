//! Regenerates **Fig. 5**: MCFI execution overhead on the SPEC-like
//! benchmarks, statically linked, with no concurrent update transactions.
//!
//! The paper reports 4–6% average overhead on x86-32/64.

use mcfi::Arch;
use mcfi_bench::{average, bar, fig5_overheads};

fn main() {
    println!("Fig. 5 — MCFI overhead, no concurrent update transactions");
    println!("(percent execution-time increase over the uninstrumented build)\n");
    for (arch, label) in [(Arch::X86_64, "x86-64"), (Arch::X86_32, "x86-32")] {
        println!("== {label} ==");
        let rows = fig5_overheads(arch);
        for o in &rows {
            let percent = o.percent();
            println!("{:>12} {percent:>6.2}% {}", o.bench, bar(percent, 4.0));
        }
        let avg = average(rows.iter().map(|o| o.percent()));
        println!("{:>12} {avg:>6.2}%  (paper: ~4-6%)\n", "average");
    }
}
