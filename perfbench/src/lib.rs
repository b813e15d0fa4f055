//! The repository's benchmark: four closed-loop workloads over the MCFI
//! system, each run with one client and one request outstanding, measured
//! from outside the program through its public API.
//!
//! An untraced run reports the end-to-end metrics; a traced run wraps each
//! of the benchmark's calls into a layer's public function in a span
//! ([`trace`]) and reports per-layer metrics. See `README.md` beside this
//! crate for why each workload exists and which layer metric should move
//! which end-to-end metric.

pub mod stats;
pub mod trace;

mod dlopen;
mod fleet;
mod net;
mod reference;
mod spec;

use std::collections::BTreeMap;
use std::time::Instant;

use mcfi_codegen::{CodegenOptions, Policy};
use mcfi_module::Module;
use mcfi_runtime::Process;

use trace::{Totals, Tracer};

/// The workloads.
pub const WORKLOADS: [&str; 4] = ["spec", "net", "dlopen", "fleet"];

/// The workloads a traced run borrows short passes of, in order, for the
/// layers its own workload never reaches: admission (dlopen), netsim
/// (net), supervisor and fleet (fleet).
pub const BORROWED: [&str; 3] = ["dlopen", "net", "fleet"];

/// How much of a workload to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The measured run: set-ups, warm-up, then the timed phase.
    Full,
    /// A short pass that a traced run of another workload borrows for the
    /// layers its own workload never reaches.
    Mini,
}

/// What one workload run is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Full run or borrowed pass.
    pub scale: Scale,
}

/// What one workload run measured. Timings are CPU time of the client
/// thread (see [`Stopwatch`]); the wall-clock twins are for the report.
#[derive(Default, Debug)]
pub struct Outcome {
    /// Seconds per cold set-up (sources to ready to serve).
    pub setups_s: Vec<f64>,
    /// Wall-clock seconds per cold set-up.
    pub wall_setups_s: Vec<f64>,
    /// Timed-phase request latencies in µs, one vector per instance.
    pub latencies_us: Vec<Vec<f64>>,
    /// Wall-clock latencies of the same requests, pooled.
    pub wall_latencies_us: Vec<f64>,
    /// Time of the timed phase: requests plus the client's own work on
    /// them, without set-ups and traced-run probes.
    pub busy_s: f64,
    /// Requests attempted, warm-up included.
    pub attempted: u64,
    /// Requests whose output differed from the reference, or that failed.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
    /// Simulated-cycle overhead of MCFI over NoCfi on the same inputs.
    pub sim_overhead_pct: Option<f64>,
    /// Sums counted at layer boundaries in a traced run (see
    /// [`layer_metrics`]).
    pub counts: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one request, failed unless `ok`.
    pub(crate) fn request(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(describe());
        }
    }

    /// Counts a failure of an already-counted request.
    pub(crate) fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Adds `v` to the boundary count `name`.
    pub(crate) fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// Records one cold set-up.
    pub(crate) fn setup(&mut self, took: Lap) {
        self.setups_s.push(took.cpu_s);
        self.wall_setups_s.push(took.wall_s);
    }

    /// Records one timed request of `instance`: its latency, and the
    /// client's whole iteration (request plus checks) toward throughput.
    pub(crate) fn timed(&mut self, instance: usize, latency: Lap, iteration: Lap) {
        self.latencies_us[instance].push(latency.cpu_s * 1e6);
        self.wall_latencies_us.push(latency.wall_s * 1e6);
        self.busy_s += iteration.cpu_s;
    }
}

/// Time since a [`Stopwatch`] started, on both clocks, in seconds.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lap {
    /// CPU time of the calling thread.
    pub cpu_s: f64,
    /// Wall-clock time.
    pub wall_s: f64,
}

/// Times work on the calling thread's CPU clock and on the wall clock.
///
/// The metrics use CPU time. Every request is single-threaded CPU work
/// that never blocks, so its CPU time is its latency on a host that does
/// not take the CPU away. On shared virtual machines the hypervisor takes
/// several percent of the CPU in bursts, which the wall clock adds to
/// whichever requests it hits.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Stopwatch {
    cpu_ns: u64,
    wall: Instant,
}

impl Stopwatch {
    /// Starts both clocks.
    pub(crate) fn start() -> Self {
        Stopwatch {
            cpu_ns: thread_cpu_ns(),
            wall: Instant::now(),
        }
    }

    /// Time since the start.
    pub(crate) fn read(&self) -> Lap {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpu_s = thread_cpu_ns().saturating_sub(self.cpu_ns) as f64 / 1e9;
        Lap { cpu_s, wall_s }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed by the calling thread, in ns.
fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the clock id is a
    // constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "Linux always provides the thread CPU clock");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Runs `workload` once.
///
/// # Panics
///
/// Panics on an unknown workload name (the CLI checks names first).
pub fn run_workload(workload: &str, p: &Params, tr: &mut Tracer) -> Outcome {
    match workload {
        "spec" => spec::run(p, tr),
        "net" => net::run(p, tr),
        "dlopen" => dlopen::run(p, tr),
        "fleet" => fleet::run(p, tr),
        other => panic!("unknown workload {other}"),
    }
}

/// Every per-layer metric a traced run reports, with its unit.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("minic.parse_check_us", "us"),
    ("ir.lower_us", "us"),
    ("codegen.compile_us", "us"),
    ("codegen.code_bytes", "bytes"),
    ("cfggen.ibs", "count"),
    ("cfggen.ibts", "count"),
    ("cfggen.eqcs", "count"),
    ("runtime.process_new_us", "us"),
    ("runtime.load_all_us", "us"),
    ("runtime.run_us", "us"),
    ("runtime.steps", "count"),
    ("runtime.ns_per_step", "ns"),
    ("runtime.icache_hit_pct", "%"),
    ("runtime.checks", "count"),
    ("runtime.check_retries", "count"),
    ("tables.check_ns", "ns"),
    ("runtime.updates", "count"),
    ("cfggen.generate_us", "us"),
    ("tables.update_us", "us"),
    ("runtime.icache_invalidations", "count"),
    ("module.decode_image_us", "us"),
    ("verifier.verify_us", "us"),
    ("runtime.load_image_us", "us"),
    ("netsim.boot_us", "us"),
    ("netsim.first_drive_us", "us"),
    ("netsim.drive_us", "us"),
    ("netsim.client_us", "us"),
    ("netsim.attempts_per_segment", "count"),
    ("supervisor.run_us", "us"),
    ("supervisor.checkpoint_us", "us"),
    ("fleet.new_us", "us"),
    ("fleet.request_us", "us"),
    ("fleet.driver_us", "us"),
    ("fleet.served_pct", "%"),
];

/// Turns span totals and boundary counts into the per-layer metrics that
/// this run's spans and counts support; metrics without inputs are left
/// out.
pub fn layer_metrics(
    totals: &BTreeMap<&'static str, Totals>,
    counts: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let span = |name: &str| totals.get(name).filter(|t| t.count > 0);
    let count = |name: &str| counts.get(name).copied();
    for (metric, name) in [
        ("minic.parse_check_us", "minic.parse_check"),
        ("ir.lower_us", "ir.lower"),
        ("codegen.compile_us", "codegen.compile"),
        ("runtime.process_new_us", "runtime.process_new"),
        ("runtime.load_all_us", "runtime.load_all"),
        ("runtime.run_us", "runtime.run"),
        ("cfggen.generate_us", "cfggen.generate"),
        ("tables.update_us", "tables.update"),
        ("module.decode_image_us", "module.decode_image"),
        ("verifier.verify_us", "verifier.verify"),
        ("runtime.load_image_us", "runtime.load_image"),
        ("netsim.boot_us", "netsim.boot"),
        ("netsim.first_drive_us", "netsim.first_drive"),
        ("netsim.drive_us", "netsim.drive"),
        ("supervisor.run_us", "supervisor.run"),
        ("supervisor.checkpoint_us", "supervisor.checkpoint"),
        ("fleet.new_us", "fleet.new"),
        ("fleet.request_us", "fleet.request"),
    ] {
        if let Some(t) = span(name) {
            m.insert(metric, t.mean_self_us());
        }
    }
    // Means per call of the span the count was read at.
    for (metric, sum, per) in [
        ("codegen.code_bytes", "code_bytes", "codegen.compile"),
        ("cfggen.ibs", "ibs", "cfggen.generate"),
        ("cfggen.ibts", "ibts", "cfggen.generate"),
        ("cfggen.eqcs", "eqcs", "cfggen.generate"),
        ("runtime.steps", "steps", "runtime.run"),
        ("runtime.checks", "checks", "runtime.run"),
        ("runtime.check_retries", "check_retries", "runtime.run"),
        (
            "runtime.icache_invalidations",
            "icache_invalidations",
            "runtime.run",
        ),
    ] {
        if let (Some(s), Some(t)) = (count(sum), span(per)) {
            m.insert(metric, s / t.count as f64);
        }
    }
    if let (Some(run), Some(steps)) = (span("runtime.run"), count("steps")) {
        m.insert("runtime.ns_per_step", run.total_ns as f64 / steps.max(1.0));
    }
    if let (Some(hits), Some(misses)) = (count("icache_hits"), count("icache_misses")) {
        m.insert(
            "runtime.icache_hit_pct",
            100.0 * hits / (hits + misses).max(1.0),
        );
    }
    if let (Some(t), Some(n)) = (span("tables.check"), count("table_checks")) {
        m.insert("tables.check_ns", t.total_ns as f64 / n.max(1.0));
    }
    if let (Some(u), Some(n)) = (count("first_request_updates"), count("first_requests")) {
        m.insert("runtime.updates", u / n.max(1.0));
    }
    if let (Some(a), Some(s)) = (count("net_attempts"), count("net_segments")) {
        m.insert("netsim.attempts_per_segment", a / s.max(1.0));
    }
    // Drive time of the mirrored instance minus the side instance's
    // `Process::run` on the same bytes: the client and harness share.
    if let (Some(d), Some(n), Some(run)) = (
        count("mirrored_drive_us"),
        count("mirrored_drives"),
        span("runtime.run"),
    ) {
        m.insert("netsim.client_us", d / n.max(1.0) - run.mean_self_us());
    }
    if let (Some(req), Some(sup)) = (span("fleet.request"), span("supervisor.run")) {
        m.insert("fleet.driver_us", req.mean_self_us() - sup.mean_self_us());
    }
    if let Some(v) = count("served_pct") {
        m.insert("fleet.served_pct", v);
    }
    m
}

/// MiniC source → module through the three front-end layers, each in its
/// span, counting emitted code bytes.
///
/// # Panics
///
/// Panics if the bundled source fails to compile (a bug).
pub(crate) fn compile(
    tr: &mut Tracer,
    out: &mut Outcome,
    name: &str,
    src: &str,
    policy: Policy,
) -> Module {
    let opts = CodegenOptions {
        policy,
        ..CodegenOptions::default()
    };
    let tp = tr
        .span("minic.parse_check", || mcfi_minic::parse_and_check(src))
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let ir = tr
        .span("ir.lower", || mcfi_ir::lower(&tp, name))
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let m = tr
        .span("codegen.compile", || mcfi_codegen::compile(&ir, &opts))
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    if tr.enabled() {
        out.add("code_bytes", m.code.len() as f64);
    }
    m
}

/// The standard modules every program links against, in load order
/// around the user modules: syscall stubs and `libms` first, the
/// `__start` module last so its direct call to `main` needs no PLT stub.
pub(crate) fn standard_modules(
    tr: &mut Tracer,
    out: &mut Outcome,
    policy: Policy,
) -> (Vec<Module>, Module) {
    let stubs = mcfi_runtime::synth::syscall_module_with(policy == Policy::Mcfi);
    let libms = compile(tr, out, "libms", mcfi_runtime::stdlib::LIBMS_SRC, policy);
    let start = compile(tr, out, "start", mcfi_runtime::stdlib::START_SRC, policy);
    (vec![stubs, libms], start)
}

/// Boots a process from compiled modules under default options, with
/// `Process::new` and `Process::load_all` in their spans.
///
/// # Panics
///
/// Panics if the modules fail to load (a bug in the benchmark's inputs).
pub(crate) fn boot(tr: &mut Tracer, modules: Vec<Module>) -> Process {
    let mut p = tr
        .span("runtime.process_new", || {
            Process::new(mcfi_runtime::ProcessOptions::default())
        })
        .expect("default layout is valid");
    tr.span("runtime.load_all", || p.load_all(modules))
        .expect("benchmark modules load");
    p
}

/// Records a finished run's counters against the `runtime.run` span.
pub(crate) fn count_run(tr: &Tracer, out: &mut Outcome, r: &mcfi_runtime::RunResult) {
    if tr.enabled() {
        out.add("steps", r.steps as f64);
        out.add("checks", r.checks as f64);
        out.add("check_retries", r.check_retries as f64);
        out.add("icache_hits", r.icache_hits as f64);
        out.add("icache_misses", r.icache_misses as f64);
        out.add("icache_invalidations", r.icache_invalidations as f64);
    }
}

/// Traced-run probes that repeat a layer's work on a live process:
/// `cfggen::generate` over its placed modules, `IdTables::update` with
/// that same policy (the call `install_policy` makes), and
/// `IdTables::check` over legal (slot, target) pairs of it. Re-installing
/// the live policy leaves every check outcome unchanged.
pub(crate) fn probe_tables(tr: &mut Tracer, out: &mut Outcome, p: &Process) {
    let policy = tr.span("cfggen.generate", || {
        mcfi_cfggen::generate(&p.placed_modules())
    });
    out.add("ibs", policy.stats.ibs as f64);
    out.add("ibts", policy.stats.ibts as f64);
    out.add("eqcs", policy.stats.eqcs as f64);
    let tables = p.tables();
    let tary = |addr: u64| policy.tary.get(&addr).copied();
    let bary = |slot: usize| policy.bary.get(slot).map(|b| b.ecn);
    tr.span("tables.update", || tables.update(tary, bary));
    let pairs: Vec<(usize, u64)> = policy
        .bary
        .iter()
        .enumerate()
        .filter_map(|(slot, b)| b.targets.iter().next().map(|&t| (slot, t)))
        .collect();
    if pairs.is_empty() {
        return;
    }
    // Enough repetitions that one span is far longer than the clock read.
    let reps = (20_000 / pairs.len()).max(1);
    let mut legal = 0u64;
    tr.span("tables.check", || {
        for _ in 0..reps {
            for &(slot, target) in &pairs {
                legal += u64::from(std::hint::black_box(tables.check(slot, target)).is_ok());
            }
        }
    });
    let n = (reps * pairs.len()) as u64;
    out.add("table_checks", n as f64);
    if legal != n {
        out.fail(format!("tables.check refused {} legal pairs", n - legal));
    }
}

/// Traced-run probe: one between-run checkpoint of a process that no
/// checked output depends on.
pub(crate) fn probe_checkpoint(tr: &mut Tracer, p: &mut Process) {
    tr.span("supervisor.checkpoint", || {
        std::hint::black_box(p.checkpoint_now().digest());
    });
}

/// Calls `f(round)` for rounds 0, 1, ... until `seconds` of wall time
/// have passed and at least `min_rounds` rounds have run.
pub(crate) fn for_seconds(seconds: f64, min_rounds: u64, mut f: impl FnMut(u64)) {
    let start = Instant::now();
    let mut round = 0;
    loop {
        f(round);
        round += 1;
        if round >= min_rounds && start.elapsed().as_secs_f64() >= seconds {
            return;
        }
    }
}

/// A small seeded generator (splitmix64) for the benchmark's inputs.
pub(crate) struct Rng(u64);

impl Rng {
    /// A generator over `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n`.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub(crate) fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
