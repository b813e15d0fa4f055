//! Regenerates the **§8.3 ROP-gadget elimination** measurement: unique
//! gadgets in the plain build vs. gadgets still reachable in the
//! MCFI-hardened build (only 4-byte-aligned Tary targets can start a
//! gadget under MCFI).
//!
//! Paper: 96.93% (x86-32) / 95.75% (x86-64) of gadgets eliminated.

use mcfi_bench::gadget_reports;

fn main() {
    println!("§8.3 — ROP gadget elimination under MCFI\n");
    println!(
        "{:>12} {:>8} {:>10} {:>10} {:>9}",
        "benchmark", "plain", "hardened", "surviving", "elim%"
    );
    let mut elims = Vec::new();
    for (b, r) in gadget_reports() {
        println!(
            "{:>12} {:>8} {:>10} {:>10} {:>8.2}%",
            b, r.plain_unique, r.hardened_unique, r.surviving_unique, r.eliminated_percent
        );
        elims.push(r.eliminated_percent);
    }
    let avg = elims.iter().sum::<f64>() / elims.len() as f64;
    println!("\naverage elimination: {avg:.2}%  (paper: 96.93% x86-32 / 95.75% x86-64)");
    assert!(avg > 90.0, "elimination should be >90%, got {avg:.2}%");
}
