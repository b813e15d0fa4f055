//! `spec`: each request boots one of the twelve calibrated fig5 programs
//! from its compiled modules and runs it to exit. The seed sets the order
//! of the program stream; every round runs each program once, so every
//! run sees the same mix.

use mcfi_codegen::Policy;
use mcfi_module::Module;
use mcfi_runtime::{Outcome as Exit, RunResult};
use mcfi_workloads::{Variant, BENCHMARKS};

use crate::reference;
use crate::stats::fnv64;
use crate::trace::Tracer;
use crate::{boot, compile, count_run, probe_checkpoint, probe_tables, standard_modules};
use crate::{for_seconds, Outcome, Params, Rng, Scale, Stopwatch};

/// Timed rounds a run makes at least, however slow the host: nine
/// rounds of twelve put at least ten samples beyond the p90.
const MIN_ROUNDS: u64 = 9;

/// Compiles the standard modules and each program into its boot image.
fn build(tr: &mut Tracer, out: &mut Outcome, names: &[&str], policy: Policy) -> Vec<Vec<Module>> {
    let (lead, start) = standard_modules(tr, out, policy);
    names
        .iter()
        .map(|name| {
            let src = mcfi_workloads::source(name, Variant::Fixed);
            let mut modules = lead.clone();
            modules.push(compile(tr, out, "program", &src, policy));
            modules.push(start.clone());
            modules
        })
        .collect()
}

fn run_program(tr: &mut Tracer, modules: Vec<Module>) -> (RunResult, mcfi_runtime::Process) {
    let mut p = boot(tr, modules);
    let r = tr
        .span("runtime.run", || p.run("__start"))
        .expect("__start is exported");
    (r, p)
}

fn output(r: &RunResult) -> String {
    match r.outcome {
        Exit::Exit { code } => format!("{code}:{:016x}", fnv64(r.stdout.as_bytes())),
        ref other => format!("{other:?}"),
    }
}

/// Runs the workload. Every layer spec reaches, the other workloads reach
/// too, so no traced run borrows a pass of it.
pub fn run(p: &Params, tr: &mut Tracer) -> Outcome {
    assert_eq!(p.scale, Scale::Full, "spec is never borrowed");
    let mut out = Outcome::default();
    let names = BENCHMARKS;
    // A cold set-up compiles every program. One precedes the run and one
    // more follows each round, so set-ups sample the whole run as the
    // requests do.
    let setup = |tr: &mut Tracer, out: &mut Outcome| {
        let t = Stopwatch::start();
        let images = build(tr, out, &names, Policy::Mcfi);
        out.setup(t.read());
        images
    };
    let images = setup(tr, &mut out);

    // The NoCfi build of every program on the same inputs: the output
    // every MCFI run must reproduce, and the cycle base of Fig. 5.
    let mut quiet = Tracer::off();
    let plain: Vec<RunResult> = build(&mut quiet, &mut Outcome::default(), &names, Policy::NoCfi)
        .into_iter()
        .map(|m| run_program(&mut quiet, m).0)
        .collect();
    let mut hardened_cycles: Vec<Option<u64>> = vec![None; names.len()];

    let mut rng = Rng::new(p.seed);
    let mut order: Vec<usize> = (0..names.len()).collect();
    let mut request = 0u64;
    let mut serve = |out: &mut Outcome, tr: &mut Tracer, i: usize, timed: bool| {
        request += 1;
        let modules = images[i].clone();
        tr.set_request(request);
        let t = Stopwatch::start();
        let root = tr.begin("spec.request");
        let (r, mut proc) = run_program(tr, modules);
        tr.end(root);
        let latency = t.read();
        let got = output(&r);
        let want = output(&plain[i]);
        let earlier = hardened_cycles[i].replace(r.cycles);
        let checked = reference::matches("spec", names[i], &got).and_then(|()| match earlier {
            _ if got != want => Err(format!("{}: MCFI output {got}, NoCfi {want}", names[i])),
            Some(c) if c != r.cycles => Err(format!(
                "{}: {} simulated cycles, earlier {c}",
                names[i], r.cycles
            )),
            _ => Ok(()),
        });
        out.request(checked.is_ok(), || checked.unwrap_err());
        if timed {
            out.timed(0, latency, t.read());
        }
        if tr.enabled() {
            count_run(tr, out, &r);
            out.add(
                "first_request_updates",
                proc.tables().updates_since_reset() as f64,
            );
            out.add("first_requests", 1.0);
            if request <= names.len() as u64 {
                probe_tables(tr, out, &proc);
                probe_checkpoint(tr, &mut proc);
            }
        }
    };

    // Warm-up: one untimed round, so allocator and cache state is that of
    // a long-running host when timing starts.
    out.latencies_us.push(Vec::new());
    for i in 0..names.len() {
        serve(&mut out, tr, i, false);
    }
    for_seconds(p.seconds, MIN_ROUNDS, |_| {
        rng.shuffle(&mut order);
        for &i in &order {
            serve(&mut out, tr, i, true);
        }
        setup(tr, &mut out);
    });

    let overheads: Vec<f64> = hardened_cycles
        .iter()
        .zip(&plain)
        .filter_map(|(h, pl)| h.map(|h| 100.0 * (h as f64 / pl.cycles as f64 - 1.0)))
        .collect();
    out.sim_overhead_pct = Some(overheads.iter().sum::<f64>() / overheads.len().max(1) as f64);
    out
}
