//! Micro-benchmark of the §8.1 synchronization strategies: one check
//! transaction, and one update transaction, under MCFI's single-word
//! scheme vs. TML vs. a readers-writer lock vs. a CAS mutex. Writes
//! `BENCH_stm.json`.

use std::hint::black_box;

use mcfi_bench::timing::{ns_per_iter, rounds, Report};
use mcfi_tables::stm::all_strategies;
use mcfi_tables::TablesConfig;

/// Checks per timed run.
const CHECKS: u64 = 1 << 20;
/// Update transactions per timed run.
const UPDATES: u64 = 8;

fn main() {
    let mut report = Report::new("stm");
    let strategies = all_strategies(TablesConfig { code_size: 1024, bary_slots: 64 });
    for strategy in &strategies {
        strategy.update(
            &|a| (a % 16 == 0).then_some((a / 16 % 64) as u32),
            &|s| Some((s % 64) as u32),
        );
    }
    let ns = rounds(strategies.len(), |leg| {
        let mut addr = 0u64;
        ns_per_iter(CHECKS, || {
            let r = strategies[leg].check(black_box((addr / 16 % 64) as usize), black_box(addr));
            addr = (addr + 16) % 1024;
            r.is_ok()
        })
    });
    for (strategy, leg) in strategies.iter().zip(&ns) {
        report.row(format!("txcheck/{}", strategy.name()), "ns", leg);
    }

    let strategies = all_strategies(TablesConfig { code_size: 64 * 1024, bary_slots: 1024 });
    let ns = rounds(strategies.len(), |leg| {
        ns_per_iter(UPDATES, || {
            strategies[leg].update(
                &|a| (a % 16 == 0).then_some((a / 16 % 512) as u32),
                &|s| Some((s % 512) as u32),
            )
        })
    });
    for (strategy, leg) in strategies.iter().zip(&ns) {
        report.row(format!("txupdate/{}", strategy.name()), "ns", leg);
    }
    report.finish();
}
