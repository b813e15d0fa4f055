//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload at one seed, checks every output against its
//! reference, prints a report with sample counts, and ends with one JSON
//! line: the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits non-zero if any request failed.

use std::collections::BTreeMap;
use std::process::ExitCode;

use perfbench::stats::{beyond, median, p90, pool};
use perfbench::trace::Tracer;
use perfbench::{
    layer_metrics, peak_rss_mb, run_workload, Outcome, Params, Scale, BORROWED, PER_LAYER,
    WORKLOADS,
};

/// The end-to-end metrics of one pass, with units and sample counts.
fn end_to_end(out: &Outcome) -> Vec<(&'static str, f64, &'static str, usize)> {
    let lat = pool(&out.latencies_us);
    let n = lat.len();
    vec![
        ("setup_s", median(&out.setups_s), "s", out.setups_s.len()),
        ("latency_p50_us", median(&lat), "us", n),
        ("latency_p90_us", p90(&lat), "us", n),
        ("throughput_per_s", n as f64 / out.busy_s, "1/s", n),
        ("peak_rss_mb", peak_rss_mb(), "MB", 1),
    ]
}

fn report(workload: &str, out: &Outcome, e2e: &[(&str, f64, &str, usize)]) {
    let lat = pool(&out.latencies_us);
    for (name, v, unit, n) in e2e {
        println!("metric {name} {v} {unit} n={n}");
    }
    println!(
        "info latency samples beyond p90: {} over {} instance(s)",
        beyond(&lat, 0.9),
        out.latencies_us.len()
    );
    let wall = &out.wall_latencies_us;
    if !wall.is_empty() {
        println!(
            "info wall clock (the metrics use CPU time): latency p50 {} us, p90 {} us, setup median {} s",
            median(wall),
            p90(wall),
            median(&out.wall_setups_s)
        );
    }
    let fail_pct = 100.0 * out.failed as f64 / out.attempted.max(1) as f64;
    println!("metric fail_pct {fail_pct} % n={}", out.attempted);
    if let Some(o) = out.sim_overhead_pct {
        println!("metric sim_overhead_pct {o} % n=1 ({workload}, simulated cycles, deterministic)");
    }
    for f in &out.failures {
        println!("failure {f}");
    }
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() {
                v.to_string()
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Writes a pass's spans under the build directory.
fn write_spans(tr: &Tracer, file: &str) {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()),
    )
    .join("perfbench-spans");
    let path = dir.join(file);
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|mut f| tr.write_to(&mut f));
    match written {
        Ok(()) => println!(
            "info {} spans written to {}",
            tr.spans().len(),
            path.display()
        ),
        Err(e) => println!("info spans not written ({}): {e}", path.display()),
    }
}

fn parse_args() -> Result<(String, u64, f64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok((workload, seed, seconds, trace))
}

fn main() -> ExitCode {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("host nproc={nproc}");
    println!(
        "run workload={workload} seed={seed} seconds={seconds} trace={}",
        u8::from(trace)
    );

    // End-to-end metrics always come from an untraced pass; a traced run
    // splits its time between that pass and the traced one.
    let pass_seconds = if trace { seconds / 2.0 } else { seconds };
    let params = Params {
        seed,
        seconds: pass_seconds,
        scale: Scale::Full,
    };
    let untraced = run_workload(&workload, &params, &mut Tracer::off());
    let e2e = end_to_end(&untraced);
    report(&workload, &untraced, &e2e);
    let (mut attempted, mut failed) = (untraced.attempted, untraced.failed);

    let metrics: Vec<(&str, f64, &str)> = if trace {
        let mut tr = Tracer::on();
        let traced = run_workload(&workload, &params, &mut tr);
        println!("tracing overhead (traced pass vs untraced pass, same length):");
        for ((name, plain, unit, _), (_, traced_v, _, _)) in e2e.iter().zip(end_to_end(&traced)) {
            let diff = traced_v - plain;
            let share = 100.0 * diff / plain;
            println!("overhead {name} untraced={plain} traced={traced_v} diff={diff} {unit} ({share:+.2}%)");
        }
        for f in &traced.failures {
            println!("failure traced: {f}");
        }
        attempted += traced.attempted;
        failed += traced.failed;
        write_spans(&tr, &format!("{workload}-seed{seed}.tsv"));
        let mut layers: BTreeMap<&str, (f64, String)> = layer_metrics(&tr.totals(), &traced.counts)
            .into_iter()
            .map(|(k, v)| (k, (v, workload.clone())))
            .collect();
        // Layers this workload never reaches are measured on a short pass
        // of the workload that does reach them.
        for other in BORROWED.iter().filter(|w| **w != workload) {
            if PER_LAYER.iter().all(|(m, _)| layers.contains_key(m)) {
                break;
            }
            let mut tr = Tracer::on();
            let mini = Params {
                seed,
                seconds: 0.0,
                scale: Scale::Mini,
            };
            let borrowed = run_workload(other, &mini, &mut tr);
            for f in &borrowed.failures {
                println!("failure borrowed {other}: {f}");
            }
            attempted += borrowed.attempted;
            failed += borrowed.failed;
            for (k, v) in layer_metrics(&tr.totals(), &borrowed.counts) {
                layers
                    .entry(k)
                    .or_insert((v, format!("{other} (borrowed pass)")));
            }
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (v, from) = layers
                    .get(name)
                    .cloned()
                    .unwrap_or((f64::NAN, "missing".into()));
                println!("layer {name} {v} {unit} from {from}");
                (name, v, unit)
            })
            .collect()
    } else {
        e2e.iter()
            .map(|&(name, v, unit, _)| (name, v, unit))
            .collect()
    };

    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        println!("failure a metric has no measured value");
    }
    let correct = failed == 0 && finite;
    println!("{}", json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
