//! Workload end-to-end tests: the synthetic SPEC-like programs compile,
//! verify, run deterministically under both policies with matching
//! results, and their analyzer rows satisfy the Table 1 invariants.

use mcfi::{Arch, BuildOptions, Outcome, Policy};
use mcfi_analyzer::analyze;
use mcfi_workloads::{source, spec, Variant, BENCHMARKS};

/// Small benchmarks only — full Fig. 5 runs belong to the bench harness.
const QUICK: [&str; 4] = ["mcf", "lbm", "bzip2", "libquantum"];

#[test]
fn quick_workloads_run_and_match_across_policies() {
    for b in QUICK {
        let mcfi_r = mcfi::run_workload(
            b,
            Variant::Fixed,
            &BuildOptions { policy: Policy::Mcfi, arch: Arch::X86_64, verify: true },
        )
        .unwrap_or_else(|e| panic!("{b} (mcfi): {e}"));
        let plain_r = mcfi::run_workload(
            b,
            Variant::Fixed,
            &BuildOptions { policy: Policy::NoCfi, arch: Arch::X86_64, verify: false },
        )
        .unwrap_or_else(|e| panic!("{b} (plain): {e}"));
        let (Outcome::Exit { code: a }, Outcome::Exit { code: c }) =
            (&mcfi_r.outcome, &plain_r.outcome)
        else {
            panic!("{b}: outcomes {:?} / {:?}", mcfi_r.outcome, plain_r.outcome);
        };
        assert_eq!(a, c, "{b}: instrumentation must not change results");
        assert!(mcfi_r.cycles > plain_r.cycles, "{b}: checks cost cycles");
        assert!(mcfi_r.checks > 0);
    }
}

#[test]
fn workloads_run_on_x86_32_mode_too() {
    let r = mcfi::run_workload(
        "mcf",
        Variant::Fixed,
        &BuildOptions { policy: Policy::Mcfi, arch: Arch::X86_32, verify: true },
    )
    .expect("runs");
    assert!(matches!(r.outcome, Outcome::Exit { .. }), "{:?}", r.outcome);
}

#[test]
fn analyzer_rows_satisfy_table1_invariants() {
    for b in BENCHMARKS {
        let src = source(b, Variant::Original);
        let tp = mcfi_minic::parse_and_check(&src).unwrap_or_else(|e| panic!("{b}: {e}"));
        let r = analyze(&tp, &src);
        assert_eq!(
            r.vbe,
            r.uc + r.dc + r.mf + r.su + r.nf + r.vae,
            "{b}: VBE must decompose exactly"
        );
        assert_eq!(r.vae, r.k1 + r.k2, "{b}: VAE = K1 + K2");
        assert!(r.k1_fixed <= r.k1, "{b}: fixed K1 is a subset of K1");
        let c = spec(b).casts;
        // Zero-violation benchmarks stay zero, as in the paper.
        if c.uc + c.dc + c.mf + c.su + c.nf + c.k1_fixed + c.k1_dead + c.k2 == 0 {
            assert_eq!(r.vbe, 0, "{b} must be clean");
        }
        // K1-fixed calibration is exact: each injected unit is found.
        assert_eq!(r.k1_fixed, c.k1_fixed, "{b}: K1-fixed count");
    }
}

/// The 12 workloads under both tail-call settings, plus every other
/// module the repo ships instrumented: the startup module, the syscall
/// stubs and the network service's guest builds.
#[test]
fn every_workload_module_passes_the_verifier() {
    use mcfi_netsim::guest::{server_source, HANDLERS_V1_SRC, HANDLERS_V2_SRC};
    let compile = |name: &str, src: &str, arch: Arch| {
        let opts = BuildOptions { arch, ..BuildOptions::default() };
        mcfi::compile_module(name, src, &opts).unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let mut modules = Vec::new();
    for arch in [Arch::X86_64, Arch::X86_32] {
        modules.extend(BENCHMARKS.map(|b| compile(b, &source(b, Variant::Fixed), arch)));
    }
    let [stubs, _, start] = mcfi::standard_modules(&BuildOptions::default()).expect("builds");
    modules.extend([
        stubs,
        start,
        compile("nethandlers", HANDLERS_V1_SRC, Arch::X86_64),
        compile("nethandlers_v2", HANDLERS_V2_SRC, Arch::X86_64),
        compile("netserver", &server_source(false), Arch::X86_64),
        compile("netserver", &server_source(true), Arch::X86_64),
    ]);
    for (i, m) in modules.iter().enumerate() {
        let report = mcfi_verifier::verify(m);
        assert!(report.ok(), "{}: {:?}", m.name, report.violations);
        let floor = if i < 2 * BENCHMARKS.len() { 10 } else { 0 };
        assert!(report.checks > floor, "{}: instrumented branches present", m.name);
    }
}

#[test]
fn table3_shape_big_benchmarks_have_more_of_everything() {
    let stats = |b: &str| {
        let src = source(b, Variant::Fixed);
        let m = mcfi::compile_module(b, &src, &BuildOptions::default()).expect("compiles");
        let p = mcfi_cfggen::generate_single(&m, 0);
        p.stats
    };
    let gcc = stats("gcc");
    let mcf = stats("mcf");
    assert!(gcc.ibs > 4 * mcf.ibs, "gcc {} vs mcf {}", gcc.ibs, mcf.ibs);
    assert!(gcc.ibts > 4 * mcf.ibts);
    assert!(gcc.eqcs >= mcf.eqcs);
}

#[test]
fn tail_call_mode_reduces_equivalence_classes() {
    // Table 3's x86-64 vs x86-32 contrast on a full workload.
    let p = |tail: bool| {
        let src = source("sjeng", Variant::Fixed);
        let m = mcfi_codegen::compile_source(
            "s",
            &src,
            &mcfi_codegen::CodegenOptions { policy: mcfi_codegen::Policy::Mcfi, tail_calls: tail },
        )
        .expect("compiles");
        mcfi_cfggen::generate_single(&m, 0).stats
    };
    let s64 = p(true);
    let s32 = p(false);
    assert!(s64.eqcs <= s32.eqcs, "x86-64 {} vs x86-32 {}", s64.eqcs, s32.eqcs);
    assert!(s64.ibs <= s32.ibs);
}
