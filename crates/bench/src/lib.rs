//! Shared harness utilities for regenerating every table and figure of
//! *Modular Control-Flow Integrity* (PLDI 2014).
//!
//! Each `src/bin/*.rs` binary regenerates one artifact:
//!
//! | binary       | paper artifact |
//! |--------------|----------------|
//! | `table1`     | Table 1 — C1 violations & false-positive elimination |
//! | `table2`     | Table 2 — residual K1/K2 kinds |
//! | `table3`     | Table 3 — IBs / IBTs / EQCs per benchmark |
//! | `fig5`       | Fig. 5 — execution overhead, no concurrent updates |
//! | `fig6`       | Fig. 6 — overhead with 50 Hz update transactions |
//! | `stm_table`  | §8.1 — normalized TxCheck time: MCFI/TML/RWL/Mutex |
//! | `space`      | §8.1 — static code-size increase & table footprint |
//! | `air`        | §8.3 — AIR metric across policies |
//! | `gadgets`    | §8.3 — ROP gadget elimination |
//! | `case_study` | §8.3 — the GnuPG/`execve` function-pointer hijack |
//!
//! The paper-artifact binaries compute their rows through the functions
//! below, which `tests/paper_artifacts.rs` pins against a committed
//! reference. The host-timed binaries (`stm_table` and the `*_ab` A/Bs)
//! and the `cargo bench` mains measure through one core, [`timing`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod timing;

use mcfi::{
    Arch, BuildOptions, CfgStats, Module, Outcome, OverheadSample, Policy, PolicyKind, RunResult,
    System,
};
use mcfi_analyzer::{analyze, AnalysisReport};
use mcfi_security::{gadget_report, run_fptr_hijack, AttackResult, GadgetReport};
use mcfi_workloads::{source, Variant, BENCHMARKS};

/// The simulated clock frequency: "execution time" is cycles / CLOCK_HZ.
///
/// The interpreter retires a few million simulated cycles per host
/// second, so the simulated core is declared to run at 50 MHz. At that
/// clock a 50 Hz updater fires every 1M cycles — over a dozen times per
/// benchmark — and each update transaction overlaps enough in-flight
/// check transactions for the retry cost to be visible, as in the
/// paper's Fig. 6 setup.
pub const CLOCK_HZ: u64 = 50_000_000;

/// The Fig. 6 update frequency (measured from Google V8 by the paper).
pub const UPDATE_HZ: u64 = 50;

/// One overhead measurement.
#[derive(Clone, Debug)]
pub struct Overhead {
    /// Benchmark name.
    pub bench: String,
    /// Percent execution-time increase over the uninstrumented build.
    pub percent: f64,
}

/// Tables 1 and 2: the C1/C2 analysis of each benchmark's original
/// source, before the K1 fixes.
pub fn analyses() -> Vec<(&'static str, AnalysisReport)> {
    BENCHMARKS
        .iter()
        .map(|&b| {
            let src = source(b, Variant::Original);
            let tp = mcfi_minic::parse_and_check(&src).unwrap_or_else(|e| panic!("{b}: {e}"));
            (b, analyze(&tp, &src))
        })
        .collect()
}

/// Table 3: the CFG statistics of one benchmark statically linked with
/// libms and booted under MCFI.
pub fn cfg_stats(bench: &str, arch: Arch) -> CfgStats {
    let opts = BuildOptions { policy: Policy::Mcfi, arch, verify: false };
    let src = source(bench, Variant::Fixed);
    let mut system = System::boot_source(&src, &opts).unwrap_or_else(|e| panic!("{bench}: {e}"));
    system.process().current_policy().stats
}

/// The policies of §8.3's AIR table, from least to most precise.
const AIR_POLICIES: [PolicyKind; 5] = [
    PolicyKind::NoCfi,
    PolicyKind::Chunk { size: 32 },
    PolicyKind::Coarse,
    PolicyKind::Classic,
    PolicyKind::Mcfi,
];

/// §8.3's AIR table: no CFI, chunk, coarse, classic and MCFI, from least
/// to most precise, each with its AIR in percent averaged over the
/// benchmarks.
pub fn air_percents(arch: Arch) -> Vec<(PolicyKind, f64)> {
    let mut sums = [0.0f64; AIR_POLICIES.len()];
    for b in BENCHMARKS {
        let opts = BuildOptions { policy: Policy::Mcfi, arch, verify: false };
        let src = source(b, Variant::Fixed);
        let mut system = System::boot_source(&src, &opts).unwrap_or_else(|e| panic!("{b}: {e}"));
        let placed = system.process().placed_modules();
        for (sum, p) in sums.iter_mut().zip(AIR_POLICIES) {
            *sum += mcfi_baselines::air(&placed, p);
        }
    }
    let n = BENCHMARKS.len() as f64;
    AIR_POLICIES.into_iter().zip(sums).map(|(p, s)| (p, 100.0 * s / n)).collect()
}

/// A benchmark's fixed source compiled for x86-64 without and with MCFI.
fn plain_and_hardened(bench: &str) -> (Module, Module) {
    let src = source(bench, Variant::Fixed);
    let build = |policy| {
        let opts = BuildOptions { policy, arch: Arch::X86_64, verify: false };
        mcfi::compile_module(bench, &src, &opts).unwrap_or_else(|e| panic!("{bench}: {e}"))
    };
    (build(Policy::NoCfi), build(Policy::Mcfi))
}

/// §8.3's ROP-gadget elimination for each benchmark.
pub fn gadget_reports() -> Vec<(&'static str, GadgetReport)> {
    BENCHMARKS
        .iter()
        .map(|&b| {
            let (plain, hardened) = plain_and_hardened(b);
            (b, gadget_report(&plain, &hardened))
        })
        .collect()
}

/// §8.1's static code sizes: each benchmark's plain and MCFI code bytes.
pub fn code_sizes() -> Vec<(&'static str, usize, usize)> {
    BENCHMARKS
        .iter()
        .map(|&b| {
            let (plain, hardened) = plain_and_hardened(b);
            (b, plain.code.len(), hardened.code.len())
        })
        .collect()
}

/// §8.3's case study: the function-pointer hijack run under MCFI,
/// classic CFI and coarse CFI over the same binary.
pub fn case_study() -> Vec<(PolicyKind, AttackResult)> {
    [PolicyKind::Mcfi, PolicyKind::Classic, PolicyKind::Coarse]
        .into_iter()
        .map(|p| (p, run_fptr_hijack(p)))
        .collect()
}

/// Measures Fig. 5 overhead for every benchmark on one architecture.
pub fn fig5_overheads(arch: Arch) -> Vec<OverheadSample> {
    BENCHMARKS
        .iter()
        .map(|b| mcfi::measure_overhead(b, arch).unwrap_or_else(|e| panic!("{b}: {e}")))
        .collect()
}

/// Simulated cost of one update transaction's table rewrite: the Tary
/// region (1 MiB = 262144 entries) streamed at 16 entries per cycle with
/// `movnti`-style stores — the paper's parallel memory-copy mechanism.
/// It models the paper's updater, which rewrites the whole table, so it
/// stays fixed although the runtime's own re-stamps stop at each
/// table's high-water mark; Fig. 6 stays comparable with the paper.
pub const UPDATE_COST_CYCLES: u64 = 262_144 / 16;

/// Runs one benchmark under MCFI with update transactions scripted at
/// 50 Hz of simulated time (the paper's Fig. 6 experiment: "at a fixed
/// interval, it performs an update transaction that updates the version
/// numbers of all IDs in the ID tables (but preserving the ECNs)").
///
/// Each update holds the mixed-version window open for
/// [`UPDATE_COST_CYCLES`], during which in-flight check transactions
/// retry — deterministically, so results are host-independent.
///
/// Returns `(result, updates_performed)`.
///
/// # Panics
///
/// Panics if the benchmark fails to build or load.
pub fn run_with_updater(bench: &str, arch: Arch) -> (RunResult, u64) {
    let opts = BuildOptions { policy: Policy::Mcfi, arch, verify: false };
    let src = mcfi_workloads::source(bench, Variant::Fixed);
    let mut system = mcfi::System::boot_source(&src, &opts)
        .unwrap_or_else(|e| panic!("{bench}: {e}"));
    let interval = CLOCK_HZ / UPDATE_HZ;
    let result = system
        .process()
        .run_with_updates("__start", interval, UPDATE_COST_CYCLES)
        .unwrap_or_else(|e| panic!("{bench}: {e}"));
    let updates = result.updates;
    (result, updates)
}

/// Fig. 6: overhead with the 50 Hz updater running. The returned
/// [`RunResult`] carries the TxCheck contention counters
/// (`check_retries`, `tx_retries`, `tx_escalations`) alongside
/// `updates`, so callers can report how much of the overhead is
/// retry cost.
pub fn fig6_overheads(arch: Arch) -> Vec<(Overhead, RunResult)> {
    mcfi_workloads::BENCHMARKS
        .iter()
        .map(|b| {
            let plain = mcfi::run_workload(
                b,
                Variant::Fixed,
                &BuildOptions { policy: Policy::NoCfi, arch, verify: false },
            )
            .unwrap_or_else(|e| panic!("{b}: {e}"));
            let (hardened, _updates) = run_with_updater(b, arch);
            assert!(
                matches!(hardened.outcome, Outcome::Exit { .. }),
                "{b}: {:?}",
                hardened.outcome
            );
            let percent =
                100.0 * (hardened.cycles as f64 / plain.cycles as f64 - 1.0);
            (Overhead { bench: (*b).to_string(), percent }, hardened)
        })
        .collect()
}

/// Geometric-mean-free average (the paper reports arithmetic averages).
pub fn average(xs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Renders a simple ASCII bar for figure-style output.
pub fn bar(percent: f64, scale: f64) -> String {
    let n = ((percent * scale).round().max(0.0)) as usize;
    "#".repeat(n.min(70))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_and_bar_behave() {
        assert_eq!(average([2.0, 4.0].into_iter()), 3.0);
        assert_eq!(average(std::iter::empty()), 0.0);
        assert_eq!(bar(5.0, 2.0), "##########");
        assert_eq!(bar(-1.0, 2.0), "");
    }

    #[test]
    fn updater_harness_runs_one_small_benchmark() {
        let (result, _updates) = run_with_updater("lbm", Arch::X86_64);
        assert!(matches!(result.outcome, Outcome::Exit { .. }), "{:?}", result.outcome);
    }
}
