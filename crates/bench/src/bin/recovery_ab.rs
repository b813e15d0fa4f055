//! A/B benchmark for crash recovery: restoring a checkpoint and
//! resuming versus restarting the process from scratch, on a
//! dlopen-heavy workload.
//!
//! The workload pays an expensive prologue — six `dlopen`s, each a
//! verifier pass, a CFG regeneration, and a full table-update
//! transaction — before its main loop. A "crash" late in the run is
//! then recovered two ways:
//!
//! - **checkpointed**: restore the latest mid-run
//!   [`Checkpoint`](mcfi_runtime::Checkpoint) (sandbox snapshot + VM
//!   registers + module set) and resume — the prologue is never repaid;
//! - **from-scratch**: boot a fresh process (reload every module) and
//!   re-run the whole program.
//!
//! Both paths must produce the baseline outcome; the checkpointed path
//! must be faster. Emits `BENCH_recovery.json` for CI artifacts and
//! exits non-zero if the checkpointed restart fails to beat the
//! from-scratch one.

use std::time::Instant;

use mcfi_codegen::{compile_source, CodegenOptions};
use mcfi_module::Module;
use mcfi_runtime::{stdlib, synth, Outcome, Process, ProcessOptions};

const HOST_SRC: &str = "int dlopen(char* name);\n\
     int main(void) {\n\
       int n = 0;\n\
       n = n + dlopen(\"p1\");\n\
       n = n + dlopen(\"p2\");\n\
       n = n + dlopen(\"p3\");\n\
       n = n + dlopen(\"p4\");\n\
       n = n + dlopen(\"p5\");\n\
       n = n + dlopen(\"p6\");\n\
       int s = 0; int i = 0;\n\
       while (i < 150000) { s = s + i * 3 - (s / 7) + n; i = i + 1; }\n\
       return s % 97;\n\
     }";

const CHECKPOINT_INTERVAL: u64 = 25_000;
const REPS: u32 = 7;

struct Prebuilt {
    base: Vec<Module>,
    libs: Vec<(String, Module)>,
}

fn prebuild() -> Prebuilt {
    let copts = CodegenOptions::default();
    let base = vec![
        synth::syscall_module(),
        compile_source("libms", stdlib::LIBMS_SRC, &copts).expect("libms compiles"),
        compile_source("start", stdlib::START_SRC, &copts).expect("start compiles"),
        compile_source("prog", HOST_SRC, &copts).expect("host compiles"),
    ];
    let libs = (1..=6)
        .map(|i| {
            let name = format!("p{i}");
            let src = format!(
                "int p{i}_a(int x) {{ return x + {i}; }}\n\
                 int p{i}_b(int x) {{ return x * {i} + 2; }}"
            );
            let m = compile_source(&name, &src, &copts).expect("plugin compiles");
            (name, m)
        })
        .collect();
    Prebuilt { base, libs }
}

/// Boots a fresh process from the prebuilt modules. Loading (not
/// compiling) is what a real restart would repay, so callers time this.
fn boot(pre: &Prebuilt, checkpoint_interval: u64) -> Process {
    let mut p =
        Process::new(ProcessOptions { checkpoint_interval, ..Default::default() })
            .expect("valid layout");
    p.load_all(pre.base.clone()).expect("base modules load");
    for (name, m) in &pre.libs {
        p.register_library(name, m.clone());
    }
    p
}

fn main() {
    println!("recovery A/B (checkpointed resume vs from-scratch restart)\n");
    let pre = prebuild();

    // Baseline run: establishes the expected outcome and leaves the
    // checkpoint ring holding late-run, resumable checkpoints — the
    // state a supervisor would recover from after a crash.
    let mut p = boot(&pre, CHECKPOINT_INTERVAL);
    let baseline = p.run("__start").expect("baseline runs");
    assert!(matches!(baseline.outcome, Outcome::Exit { .. }), "{:?}", baseline.outcome);
    let cp = p
        .checkpoints()
        .iter()
        .rev()
        .find(|c| c.resumable())
        .expect("the run outlived at least one checkpoint interval")
        .clone();
    println!(
        "workload: {} steps total, recovering from the checkpoint at step {}",
        baseline.steps,
        cp.steps()
    );

    // A: restore the checkpoint and resume. Repay only the tail of the
    // run plus the restore itself (snapshot copy-back + one forward
    // table-update transaction).
    let mut best_restore = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        p.restore(&cp).expect("checkpoint restores");
        let r = p.run("__start").expect("resumed run");
        best_restore = best_restore.min(t.elapsed().as_secs_f64());
        assert_eq!(r.outcome, baseline.outcome, "resume must converge on the baseline");
        assert_eq!(r.steps, baseline.steps, "the resumed run continues the crashed one");
    }

    // B: from-scratch restart. Reload all four base modules, then re-run
    // everything — including the six-dlopen prologue.
    let mut best_scratch = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        let mut fresh = boot(&pre, 0);
        let r = fresh.run("__start").expect("restarted run");
        best_scratch = best_scratch.min(t.elapsed().as_secs_f64());
        assert_eq!(r.outcome, baseline.outcome, "restart must converge on the baseline");
    }

    let speedup = best_scratch / best_restore;
    println!("checkpointed resume:  {:>10.3} ms", best_restore * 1e3);
    println!("from-scratch restart: {:>10.3} ms", best_scratch * 1e3);
    println!("speedup:              {speedup:>10.2}x");

    let json = format!(
        "{{\n  \"workload\": \"dlopen-heavy\",\n  \"total_steps\": {},\n  \
         \"checkpoint_step\": {},\n  \"checkpointed_resume_s\": {:.6},\n  \
         \"from_scratch_restart_s\": {:.6},\n  \"speedup\": {:.3}\n}}\n",
        baseline.steps,
        cp.steps(),
        best_restore,
        best_scratch,
        speedup
    );
    std::fs::write("BENCH_recovery.json", json).expect("write BENCH_recovery.json");
    println!("wrote BENCH_recovery.json");

    if speedup <= 1.0 {
        eprintln!("\nFAIL: checkpointed resume ({best_restore:.4}s) did not beat the from-scratch restart ({best_scratch:.4}s)");
        std::process::exit(1);
    }
    println!("\nPASS: checkpointed resume beats the from-scratch restart ({speedup:.2}x)");
}
