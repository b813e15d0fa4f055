//! Regenerates the **§8.3 GnuPG case study** (CVE-2006-6235): an
//! attacker-controlled function pointer redirected at `execve`, run under
//! MCFI, classic CFI, and coarse CFI over the *same* binary.
//!
//! Paper: "under coarse-grained CFI, the vulnerability … allows a remote
//! attacker to control a function pointer and jump to execve … If
//! protected by MCFI, the function pointer cannot be used to jump to
//! execve because their types do not match."

use mcfi_baselines::PolicyKind;
use mcfi_bench::case_study;

fn main() {
    println!("§8.3 — function-pointer hijack to execve (CVE-2006-6235 analogue)\n");
    let rows = case_study();
    for (policy, r) in &rows {
        println!(
            "{:>14}: execve reached = {:<5}  blocked by CFI = {:<5}  ({:?})",
            policy.name(),
            r.execve_reached,
            r.blocked,
            r.outcome
        );
    }
    let get = |k: PolicyKind| &rows.iter().find(|(p, _)| *p == k).expect("present").1;
    let (mcfi, coarse) = (get(PolicyKind::Mcfi), get(PolicyKind::Coarse));
    assert!(mcfi.blocked && !mcfi.execve_reached);
    assert!(coarse.execve_reached);
    println!("\nMCFI blocks the hijack (type mismatch); coarse CFI lets it through.");
}
