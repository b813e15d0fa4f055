//! A/B benchmark for the baseline-compiled execution tier.
//!
//! Runs every Fig. 5 workload in two legs — through the translated tier
//! (`FetchMode::Translate`, superblocks with per-site-specialized TxChecks)
//! and on the predecoded interpreter it falls back to — in interleaved
//! rounds ([`mcfi_bench::timing`]), and reports host-clock steps/second
//! for each, the per-round speedup, and the tier's counters. Both arms
//! fetch through the predecode cache, so the measured delta is
//! translation alone, not decode memoisation. Also cross-checks that
//! every run of both arms reports identical outcome, steps, cycles, and
//! checks: the tier must be architecturally invisible.
//!
//! Writes `BENCH_trans.json` and exits non-zero if the geometric mean of
//! the workloads' median speedups lands under 2x (the CI floor; the
//! tier's design target is 3x over the predecoded interpreter).

use std::time::Instant;

use mcfi::{BuildOptions, FetchMode, ProcessOptions, RunResult, System};
use mcfi_bench::timing::{ratio, rounds, Bound, Report};
use mcfi_workloads::{source, Variant, BENCHMARKS};

/// Per-run step ceiling, matching the differential suite's budget.
const STEP_BUDGET: u64 = 12_000_000;

fn boot(src: &str, fetch: FetchMode) -> System {
    let opts = ProcessOptions {
        fetch,
        max_steps: STEP_BUDGET,
        ..Default::default()
    };
    System::boot_source_with(src, &BuildOptions::default(), opts)
        .unwrap_or_else(|e| panic!("workload boots: {e}"))
}

fn run_once(src: &str, fetch: FetchMode) -> (RunResult, f64) {
    let mut sys = boot(src, fetch);
    let t = Instant::now();
    let r = sys.process().run("__start").unwrap_or_else(|e| panic!("workload runs: {e}"));
    (r, t.elapsed().as_secs_f64())
}

fn main() {
    println!("baseline-compiled tier A/B (translated vs predecoded interpreter)\n");
    let mut report = Report::new("trans");
    let mut log_sum = 0.0f64;
    for bench in BENCHMARKS {
        let src = source(bench, Variant::Fixed);
        let arms = [FetchMode::Translate, FetchMode::Predecode];
        let runs = rounds(2, |leg| run_once(&src, arms[leg]));
        let rt = &runs[0][0].0;
        for (ri, _) in runs.iter().flatten() {
            assert_eq!(rt.outcome, ri.outcome, "{bench}: outcomes diverge");
            assert_eq!(rt.steps, ri.steps, "{bench}: step counts diverge");
            assert_eq!(rt.cycles, ri.cycles, "{bench}: cycle counts diverge");
            assert_eq!(rt.checks, ri.checks, "{bench}: check counts diverge");
        }
        for (ri, _) in &runs[1] {
            assert_eq!(ri.trans_dispatches, 0, "{bench}: interpreter arm must not translate");
        }
        assert!(rt.trans_dispatches > 0, "{bench}: translated arm must dispatch blocks");
        let sps: Vec<Vec<f64>> =
            runs.iter().map(|leg| leg.iter().map(|(r, t)| r.steps as f64 / t).collect()).collect();
        report.row(format!("{bench}/translated"), "steps/s", &sps[0]);
        report.row(format!("{bench}/interpreted"), "steps/s", &sps[1]);
        let speedup = report.row(format!("{bench}/speedup"), "x", &ratio(&sps[0], &sps[1]));
        log_sum += speedup.median.ln();
        for (counter, value) in [
            ("steps", rt.steps),
            ("dispatches", rt.trans_dispatches),
            ("translations", rt.trans_translations),
            ("fallbacks", rt.trans_fallbacks),
        ] {
            report.fact(format!("{bench}/{counter}"), value as f64);
        }
    }
    let geomean = (log_sum / BENCHMARKS.len() as f64).exp();
    report.gate("geomean of median speedups", geomean, Bound::AtLeast(2.0), true);
    report.finish();
}
