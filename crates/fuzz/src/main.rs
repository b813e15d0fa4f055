//! CLI driver for the admission-pipeline fuzzer.
//!
//! ```text
//! cargo run --release -p mcfi-fuzz -- --seed 1 --iters 10000 [--dump-dir DIR]
//! ```
//!
//! Exits 0 when the run finds no oracle violations; exits 1 and (with
//! `--dump-dir`) writes each failing input to
//! `DIR/seed<seed>-iter<iteration>.bin` otherwise. Runs are
//! deterministic across processes: the corpus compiles to the same bytes
//! every time, so re-running with the same seed and iteration count
//! prints the same summary and reproduces every failure byte-for-byte.

use std::process::ExitCode;

use mcfi_fuzz::{default_corpus, run_fuzz};
use mcfi_module::DecodeLimits;

fn usage() -> ! {
    eprintln!("usage: mcfi-fuzz --seed <u64> --iters <u64> [--dump-dir <dir>]");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut seed: u64 = 1;
    let mut iters: u64 = 1000;
    let mut dump_dir: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--seed" => {
                seed = value(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--iters" => {
                iters = value(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--dump-dir" => {
                dump_dir = Some(value(i));
                i += 2;
            }
            _ => usage(),
        }
    }

    let corpus = default_corpus();
    let limits = DecodeLimits::admission();
    let report = run_fuzz(seed, iters, &corpus, &limits);

    println!(
        "mcfi-fuzz seed={seed} iters={} | decode-rejects={} verifier-rejects={} \
         load-rejects={} admitted={} violations={}",
        report.iters,
        report.decode_rejects,
        report.verifier_rejects,
        report.load_rejects,
        report.admitted,
        report.failures.len(),
    );

    if report.ok() {
        return ExitCode::SUCCESS;
    }

    for f in &report.failures {
        eprintln!(
            "VIOLATION at seed={} iter={} mutations={:?}: {}",
            f.seed, f.iteration, f.mutations, f.violation
        );
        if let Some(dir) = &dump_dir {
            let _ = std::fs::create_dir_all(dir);
            let path = format!("{dir}/seed{}-iter{}.bin", f.seed, f.iteration);
            match std::fs::write(&path, &f.input) {
                Ok(()) => eprintln!("  input dumped to {path}"),
                Err(e) => eprintln!("  failed to dump input: {e}"),
            }
        }
        eprintln!("  replay: cargo run --release -p mcfi-fuzz -- --seed {} --iters {}", f.seed, f.iteration + 1);
    }
    ExitCode::FAILURE
}
