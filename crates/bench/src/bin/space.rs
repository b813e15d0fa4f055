//! Regenerates the **§8.1 space-overhead** numbers: static code-size
//! increase from instrumentation (paper: ~17% average) and the runtime
//! table footprint (Bary+Tary ≈ the code-region size, but negligible
//! against heap-dominated runtime memory).

use mcfi_bench::code_sizes;

fn main() {
    println!("§8.1 — space overhead\n");
    println!("{:>12} {:>10} {:>10} {:>8}", "benchmark", "plain B", "mcfi B", "increase");
    let mut incs = Vec::new();
    for (b, plain, hardened) in code_sizes() {
        let inc = 100.0 * (hardened as f64 / plain as f64 - 1.0);
        println!("{b:>12} {plain:>10} {hardened:>10} {inc:>7.2}%");
        incs.push(inc);
    }
    let avg = incs.iter().sum::<f64>() / incs.len() as f64;
    println!("\naverage code-size increase: {avg:.2}%  (paper: ~17%)");
    println!("table region: one 4-byte Tary entry per 4 code bytes = 1.0x code size,");
    println!("plus one Bary slot per indirect branch — as designed in §5.1.");
}
