//! `spread --workload <name> --runs <n> --seconds <s> [--first-seed <k>]`
//!
//! Runs one workload `n` times, each in a fresh `perfbench` process with
//! its own seed (`k`, `k + 1`, ...), and prints each reported metric's
//! median, quartiles, interquartile range and (max − min) as shares of the
//! median. Every line carries the host descriptor: core count, git
//! revision and rustc version.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use perfbench::stats::spread;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str, default: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| default.to_string())
    };
    let workload = get("--workload", "");
    let (Ok(runs), Ok(seconds), Ok(first)) = (
        get("--runs", "5").parse::<u64>(),
        get("--seconds", "10").parse::<f64>(),
        get("--first-seed", "1").parse::<u64>(),
    ) else {
        eprintln!("usage: spread --workload <name> --runs <n> --seconds <s> [--first-seed <k>]");
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let host = format!(
        "nproc={nproc} rev={} rustc=\"{}\"",
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["--version"])
    );
    let bench = std::env::current_exe()
        .expect("own path is known")
        .with_file_name(format!("perfbench{}", std::env::consts::EXE_SUFFIX));

    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut all_correct = true;
    for seed in first..first + runs {
        let out = Command::new(&bench)
            .args(["--workload", &workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("spread: cannot run {}: {e}", bench.display());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let correct = out.status.success()
            && stdout
                .lines()
                .last()
                .is_some_and(|l| l.contains("\"correct\": true"));
        all_correct &= correct;
        let mut row = Vec::new();
        for line in stdout.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            if let ["metric", name, value, unit, ..] = f[..] {
                if let Ok(v) = value.parse::<f64>() {
                    values
                        .entry(name.to_string())
                        .or_insert((unit.to_string(), Vec::new()))
                        .1
                        .push(v);
                    row.push(format!("{name}={v:.6}"));
                }
            }
        }
        println!(
            "run {workload} seed={seed} correct={correct} {} host {host}",
            row.join(" ")
        );
    }
    for (name, (unit, v)) in &values {
        let s = spread(v);
        println!(
            "spread {workload} {name} median={:.6} q1={:.6} q3={:.6} {unit} iqr/median={:.4} (max-min)/median={:.4} runs={} host {host}",
            s.median, s.q1, s.q3, s.iqr_share, s.range_share, v.len()
        );
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
