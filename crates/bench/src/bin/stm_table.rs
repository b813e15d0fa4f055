//! Regenerates the **§8.1 micro-benchmark table**: normalized execution
//! time of check transactions under MCFI's custom algorithm vs. TML,
//! a readers-writer lock, and a CAS mutex.
//!
//! Paper: `MCFI 1 | TML 2 | RWL 29 | Mutex 22`. The ordering MCFI < TML
//! ≪ {RWL, Mutex} is the reproducible claim: TML pays two sequence-lock
//! reads per check, while RWL/Mutex pay LOCK-prefixed read-modify-writes.
//!
//! The schemes run in interleaved rounds ([`mcfi_bench::timing`]); a
//! scheme's normalized time is its median per-round ratio to MCFI's.
//! Writes `BENCH_stm_table.json`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mcfi_bench::timing::{ratio, rounds, Report};
use mcfi_tables::stm::{all_strategies, CheckStrategy};
use mcfi_tables::TablesConfig;

const CHECKS: u64 = 16_000_000;
const READER_THREADS: usize = 4;

fn bench_strategy(strategy: &Arc<dyn CheckStrategy>, contended: bool) -> f64 {
    strategy.update(&|a| (a % 16 == 0).then_some((a / 16 % 64) as u32), &|s| {
        Some((s % 64) as u32)
    });
    let stop = Arc::new(AtomicBool::new(false));
    let updater = contended.then(|| {
        let s = Arc::clone(strategy);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                s.update(&|a| (a % 16 == 0).then_some((a / 16 % 64) as u32), &|sl| {
                    Some((sl % 64) as u32)
                });
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        })
    });
    let start = Instant::now();
    let readers: Vec<_> = (0..READER_THREADS)
        .map(|t| {
            let s = Arc::clone(strategy);
            std::thread::spawn(move || {
                let mut addr = (t as u64 % 64) * 16;
                for _ in 0..CHECKS / READER_THREADS as u64 {
                    let _ = s.check((addr / 16 % 64) as usize, addr);
                    addr = (addr + 16) % 1024;
                }
            })
        })
        .collect();
    for r in readers {
        r.join().expect("reader joins");
    }
    let elapsed = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    if let Some(u) = updater {
        u.join().expect("updater joins");
    }
    elapsed
}

fn main() {
    println!("§8.1 — normalized TxCheck execution time (lower is better)\n");
    println!("fast-path cost per check (instructions, LOCK-prefixed ops):");
    println!("  MCFI : 4 (2 plain loads, 1 cmp, 1 jcc)          0 locked");
    println!("  TML  : 8 (2 seq-lock loads bracket 2 data loads) 0 locked");
    println!("  RWL  : 8                                         2 locked rmw");
    println!("  Mutex: 7                                         1 locked rmw + store");
    println!("(a single-socket host bench underestimates TML's penalty: the");
    println!(" sequence word stays in L1 here, while the paper's 2x reflects");
    println!(" real cross-core traffic; the lock-based schemes' order-of-");
    println!(" magnitude penalty reproduces directly)\n");
    let config = TablesConfig { code_size: 1024, bary_slots: 64 };
    let mut report = Report::new("stm_table");
    for contended in [false, true] {
        let mode = if contended { "periodic updater" } else { "no updater" };
        println!("== {READER_THREADS} readers, {mode} ==");
        let strategies: Vec<Arc<dyn CheckStrategy>> =
            all_strategies(config).into_iter().map(Arc::from).collect();
        let secs = rounds(strategies.len(), |leg| bench_strategy(&strategies[leg], contended));
        let mcfi = strategies.iter().position(|s| s.name() == "MCFI").expect("MCFI measured");
        for (s, leg) in strategies.iter().zip(&secs) {
            report.row(format!("{mode}/{}", s.name()), "s", leg);
            report.row(format!("{mode}/{} normalized", s.name()), "x", &ratio(leg, &secs[mcfi]));
        }
        println!("(paper: MCFI 1, TML 2, RWL 29, Mutex 22)\n");
    }
    report.finish();
}
