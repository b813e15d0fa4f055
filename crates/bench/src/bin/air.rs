//! Regenerates the **§8.3 AIR table**: the Average Indirect-target
//! Reduction metric for MCFI, classic CFI, coarse CFI (binCFI/CCFIR),
//! and chunk-based CFI (NaCl/MIP), averaged over the benchmarks.
//!
//! Paper values (x86-32 / x86-64): binCFI 98.86/99.13, classic CFI
//! 99.16/99.25, MCFI 99.99/99.99. The reproducible claim is the ordering:
//! MCFI produces the best AIR, coarse policies the worst (among CFI).

use mcfi::Arch;
use mcfi_bench::air_percents;

fn main() {
    println!("§8.3 — Average Indirect-target Reduction (AIR), percent\n");
    for (arch, label) in [(Arch::X86_32, "x86-32"), (Arch::X86_64, "x86-64")] {
        println!("== {label} ==");
        let rows = air_percents(arch);
        for (p, v) in &rows {
            println!("{:>18} {v:>8.3}%", p.name());
        }
        // The paper's ordering must hold.
        let get = |k: &str| rows.iter().find(|(p, _)| p.name() == k).expect("present").1;
        assert!(get("MCFI") > get("classic CFI"));
        assert!(get("classic CFI") >= get("binCFI/CCFIR"));
        assert!(get("binCFI/CCFIR") > get("NaCl/MIP (chunk)"));
        println!();
    }
    println!("(paper: binCFI 98.86/99.13, classic 99.16/99.25, MCFI 99.99/99.99)");
}
