//! A/B benchmark for the baseline-compiled execution tier.
//!
//! Runs every Fig. 5 workload twice — once through the translated tier
//! (`FetchMode::Translate`, superblocks with per-site-specialized TxChecks)
//! and once on the predecoded interpreter it falls back to — and
//! reports host-clock steps/second for each, the speedup, and the
//! tier's counters. Both arms fetch through the predecode cache, so the
//! measured delta is translation alone, not decode memoisation. Also
//! cross-checks that both arms report identical outcome, steps, cycles,
//! and checks: the tier must be architecturally invisible.
//!
//! Emits `BENCH_trans.json` for CI artifacts and exits non-zero if the
//! geometric-mean speedup lands under 2x (the CI floor; the tentpole
//! target is 3x over the predecoded interpreter).

use std::fmt::Write as _;
use std::time::Instant;

use mcfi::{BuildOptions, FetchMode, ProcessOptions, RunResult, System};
use mcfi_workloads::{source, Variant, BENCHMARKS};

/// Per-run step ceiling, matching the differential suite's budget.
const STEP_BUDGET: u64 = 12_000_000;

/// Interleaved repetitions per arm; best-of wall clock is reported.
const REPS: u32 = 3;

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

/// Interleaves the two arms so host noise hits both alike; returns each
/// arm's result and best (minimum) wall-clock seconds.
fn measure(src: &str) -> ((RunResult, f64), (RunResult, f64)) {
    let mut best_t = f64::INFINITY;
    let mut best_i = f64::INFINITY;
    let mut res_t = None;
    let mut res_i = None;
    for _ in 0..REPS {
        let (rt, tt) = run_once(src, FetchMode::Translate);
        best_t = best_t.min(tt);
        res_t = Some(rt);
        let (ri, ti) = run_once(src, FetchMode::Predecode);
        best_i = best_i.min(ti);
        res_i = Some(ri);
    }
    ((res_t.expect("reps >= 1"), best_t), (res_i.expect("reps >= 1"), best_i))
}

fn main() {
    println!("baseline-compiled tier A/B (translated vs predecoded interpreter)\n");
    println!(
        "{:<12} {:>10} {:>14} {:>14} {:>8}  {:>9} {:>7} {:>9}",
        "workload", "steps", "trans st/s", "interp st/s", "speedup", "dispatch", "blocks", "fallback"
    );
    let mut log_sum = 0.0f64;
    let mut rows = String::new();
    for bench in BENCHMARKS {
        let src = source(bench, Variant::Fixed);
        let ((rt, tt), (ri, ti)) = measure(&src);
        assert_eq!(rt.outcome, ri.outcome, "{bench}: outcomes diverge");
        assert_eq!(rt.steps, ri.steps, "{bench}: step counts diverge");
        assert_eq!(rt.cycles, ri.cycles, "{bench}: cycle counts diverge");
        assert_eq!(rt.checks, ri.checks, "{bench}: check counts diverge");
        assert_eq!(ri.trans_dispatches, 0, "{bench}: interpreter arm must not translate");
        assert!(rt.trans_dispatches > 0, "{bench}: translated arm must dispatch blocks");
        let trans_sps = rt.steps as f64 / tt;
        let interp_sps = ri.steps as f64 / ti;
        let speedup = trans_sps / interp_sps;
        log_sum += speedup.ln();
        println!(
            "{:<12} {:>10} {:>14.3e} {:>14.3e} {:>7.2}x  {:>9} {:>7} {:>9}",
            bench,
            rt.steps,
            trans_sps,
            interp_sps,
            speedup,
            rt.trans_dispatches,
            rt.trans_translations,
            rt.trans_fallbacks,
        );
        let _ = writeln!(
            rows,
            "    {{\"workload\": \"{bench}\", \"steps\": {}, \"translated_sps\": {trans_sps:.1}, \
             \"interpreted_sps\": {interp_sps:.1}, \"speedup\": {speedup:.3}, \
             \"dispatches\": {}, \"translations\": {}, \"fallbacks\": {}}},",
            rt.steps, rt.trans_dispatches, rt.trans_translations, rt.trans_fallbacks
        );
    }
    let geomean = (log_sum / BENCHMARKS.len() as f64).exp();
    let rows = rows.trim_end().trim_end_matches(',');
    let json = format!(
        "{{\n  \"geomean_speedup\": {geomean:.3},\n  \"floor\": 2.0,\n  \"target\": 3.0,\n  \
         \"workloads\": [\n{rows}\n  ]\n}}\n"
    );
    std::fs::write("BENCH_trans.json", json).expect("write BENCH_trans.json");
    println!("\nwrote BENCH_trans.json");

    if geomean < 2.0 {
        eprintln!("\nFAIL: geomean speedup {geomean:.2}x is below the 2x floor");
        std::process::exit(1);
    }
    println!("PASS: geomean speedup {geomean:.2}x (floor: 2x, target: 3x)");
}
