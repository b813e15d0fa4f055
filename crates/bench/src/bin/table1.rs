//! Regenerates **Table 1**: C1 violations in the (synthetic) SPECCPU2006
//! benchmarks, before and after false-positive elimination.
//!
//! Columns: SLOC, VBE (violations before elimination), UC, DC, MF, SU,
//! NF (eliminated false positives), VAE (violations after elimination).
//! The workloads are calibrated so the *shape* matches the paper:
//! mcf/gobmk/sjeng/lbm report zero, perlbench and gcc dominate.

use mcfi_bench::analyses;

fn main() {
    println!("Table 1 — C1 violations and false-positive elimination\n");
    println!(
        "{:>12} {:>8} {:>5} {:>4} {:>4} {:>4} {:>4} {:>4} {:>5}",
        "benchmark", "SLOC", "VBE", "UC", "DC", "MF", "SU", "NF", "VAE"
    );
    let mut totals = (0usize, 0usize);
    for (b, r) in analyses() {
        println!(
            "{:>12} {:>8} {:>5} {:>4} {:>4} {:>4} {:>4} {:>4} {:>5}",
            b, r.sloc, r.vbe, r.uc, r.dc, r.mf, r.su, r.nf, r.vae
        );
        totals.0 += r.vbe;
        totals.1 += r.vae;
        assert_eq!(r.vbe, r.uc + r.dc + r.mf + r.su + r.nf + r.vae, "{b}: rows must add up");
    }
    println!(
        "\ntotal: VBE {} -> VAE {} ({}% eliminated as false positives)",
        totals.0,
        totals.1,
        (100 * (totals.0 - totals.1)).checked_div(totals.0).unwrap_or(0)
    );
    println!("(paper: workloads are scaled ~10x down; zero rows and ordering match)");
}
