//! Pins every paper number the repo reproduces against the committed
//! reference `paper_artifacts.txt`: Tables 1–3, the §8.3 AIR table,
//! gadget elimination and case study, and §8.1 code sizes here; the
//! Fig. 5 and Fig. 6 cycle counts in an ignored test, since they run
//! every workload several times (CI runs it in release).
//!
//! Each line of the reference is `<section> <row> <values>`, rendered
//! from the same `mcfi_bench` functions the binaries print. On a
//! mismatch the rendered lines are written to cargo's temporary
//! directory for integration tests (`target/tmp`), where they can be
//! compared with the reference.

use std::fmt::Write as _;

use mcfi::Arch;
use mcfi_bench::{
    air_percents, analyses, case_study, cfg_stats, code_sizes, fig5_overheads, fig6_overheads,
    gadget_reports,
};
use mcfi_workloads::BENCHMARKS;

const REFERENCE: &str = include_str!("paper_artifacts.txt");

const ARCHES: [(Arch, &str); 2] = [(Arch::X86_32, "x86-32"), (Arch::X86_64, "x86-64")];

/// Compares `rendered` with the reference lines of `sections`.
fn assert_matches_reference(name: &str, sections: &[&str], rendered: &str) {
    let in_sections = |l: &&str| sections.contains(&l.split(' ').next().unwrap_or(""));
    let expected: Vec<&str> = REFERENCE.lines().filter(in_sections).collect();
    let actual: Vec<&str> = rendered.lines().collect();
    if expected == actual {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.txt"));
    std::fs::write(&path, rendered).expect("writes the rendered lines");
    let first = (0..expected.len().max(actual.len()))
        .find(|&i| expected.get(i) != actual.get(i))
        .expect("the two differ somewhere");
    panic!(
        "{name}: line {} differs from the reference\n  reference: {:?}\n  rendered:  {:?}\n\
         ({} reference lines, {} rendered; all rendered lines are in {})",
        first + 1,
        expected.get(first),
        actual.get(first),
        expected.len(),
        actual.len(),
        path.display()
    );
}

#[test]
fn paper_artifacts_match_the_reference() {
    let mut out = String::new();
    let rows = analyses();
    for (b, r) in &rows {
        let (sloc, vbe, uc, dc, mf, su, nf, vae) =
            (r.sloc, r.vbe, r.uc, r.dc, r.mf, r.su, r.nf, r.vae);
        let eliminated = format!("uc={uc} dc={dc} mf={mf} su={su} nf={nf}");
        writeln!(out, "table1 {b} sloc={sloc} vbe={vbe} {eliminated} vae={vae}").unwrap();
    }
    for (b, r) in rows.iter().filter(|(_, r)| r.vae > 0) {
        writeln!(out, "table2 {b} k1={} k2={} k1_fixed={}", r.k1, r.k2, r.k1_fixed).unwrap();
    }
    for b in BENCHMARKS {
        for (arch, label) in ARCHES {
            let s = cfg_stats(b, arch);
            writeln!(out, "table3 {b} {label} ibs={} ibts={} eqcs={}", s.ibs, s.ibts, s.eqcs)
                .unwrap();
        }
    }
    for (arch, label) in ARCHES {
        for (p, v) in air_percents(arch) {
            writeln!(out, "air {label} {} {v:.6}", p.name()).unwrap();
        }
    }
    for (b, r) in gadget_reports() {
        let (plain, hardened) = (r.plain_unique, r.hardened_unique);
        let (surviving, elim) = (r.surviving_unique, r.eliminated_percent);
        let counts = format!("plain={plain} hardened={hardened} surviving={surviving}");
        writeln!(out, "gadgets {b} {counts} elim={elim:.6}").unwrap();
    }
    for (p, r) in case_study() {
        let (name, reached, blocked) = (p.name(), r.execve_reached, r.blocked);
        let outcome = &r.outcome;
        writeln!(out, "case_study {name} execve_reached={reached} blocked={blocked} {outcome:?}")
            .unwrap();
    }
    for (b, plain, hardened) in code_sizes() {
        writeln!(out, "space {b} plain={plain} mcfi={hardened}").unwrap();
    }
    let sections = ["table1", "table2", "table3", "air", "gadgets", "case_study", "space"];
    assert_matches_reference("paper_artifacts", &sections, &out);
}

/// Fig. 5's plain and hardened cycles under both settings, and Fig. 6's
/// hardened cycles, update transactions and check retries.
#[test]
#[ignore = "runs every workload five times; CI runs it in release"]
fn figures_match_the_reference() {
    let mut out = String::new();
    for (arch, label) in ARCHES {
        for o in fig5_overheads(arch) {
            let (b, plain, hardened) = (&o.bench, o.plain_cycles, o.hardened_cycles);
            writeln!(out, "fig5 {label} {b} plain={plain} hardened={hardened}").unwrap();
        }
    }
    for (o, r) in fig6_overheads(Arch::X86_64) {
        let (b, cycles, updates, retries) = (&o.bench, r.cycles, r.updates, r.check_retries);
        writeln!(out, "fig6 x86-64 {b} cycles={cycles} updates={updates} check_retries={retries}")
            .unwrap();
    }
    assert_matches_reference("figures", &["fig5", "fig6"], &out);
}
