//! A supervision tree over a fleet of MCFI processes.
//!
//! One [`Supervisor`] heals a single process; this crate composes N of
//! them into a [`Fleet`] of *independent fault domains* — one per
//! tenant — and adds the layer a multi-tenant deployment needs on top
//! of per-process self-healing:
//!
//! * **One-for-one restarts with an intensity window** — a tenant whose
//!   request fails terminally (a fault, an enforced violation, a blown
//!   step ceiling, a wedged updater) is restarted alone, Erlang-style:
//!   its process is rebooted from its [`TenantSpec`] while every other
//!   tenant keeps serving. More than [`RestartStrategy::max_restarts`]
//!   restarts inside [`RestartStrategy::window`] ticks escalates the
//!   tenant to [`TenantHealth::Banned`] — the supervision tree gives up
//!   on that child for good.
//! * **Per-tenant circuit breaker** — a freshly restarted tenant is
//!   [`TenantHealth::Quarantined`]: its requests are shed (counted, not
//!   served) until a seeded [`Backoff`] delay expires, then a single
//!   half-open probe is let through. A clean probe steps the tenant back
//!   up through [`TenantHealth::Degraded`] to healthy; a failed probe
//!   re-trips the breaker with a longer delay.
//! * **Fleet-wide load shedding** — when more than
//!   [`FleetOptions::shed_threshold_pct`] percent of tenants are
//!   unhealthy the fleet is *overloaded*: requests to `Degraded` tenants
//!   are shed too, reserving capacity for the healthy majority.
//!   Breaker probes are exempt — they are the only path out of
//!   overload.
//!
//! Everything is deterministic under a seed: the request driver
//! ([`Schedule`]), the per-tenant chaos plans a [`Storm`] derives, and
//! the breaker's jittered backoff all run off explicit seeds, so the
//! same configuration replays to bit-identical [`FleetStats`].
//!
//! At [`FleetOptions::threads`] > 1 the same request budget is driven
//! by a pool of real OS threads. The pick sequence is drained into
//! per-tenant budgets first; then each worker claims the next unserved
//! tenant and serves its whole budget, so a tenant's requests stay
//! ordered and only the worker that claimed it ever touches it.
//! Wall-clock interleaving across tenants is no longer deterministic —
//! what survives, and what `tests/fleet_concurrent.rs` asserts, are the
//! conservation laws (every scheduled request is served or shed exactly
//! once, restarts are neither lost nor double counted) plus each
//! tenant's *local* trajectory, which depends only on its own tick
//! sequence. `threads = 1` keeps the original deterministic tick loop
//! byte-for-byte.
//!
//! Isolation falls out of construction: tenants share no tables, no
//! sandbox, and no clocks, and every cross-tenant decision (scheduling,
//! overload) only *sheds* requests — it never touches a process. A
//! tenant's served-request trajectory is therefore a pure function of
//! its own spec, plan, and local tick sequence, which is what
//! [`solo_replay`] exploits to prove storm isolation byte-for-byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use mcfi_chaos::{
    Backoff, ChaosInjector, FaultPlan, FaultPoint, XorShift64, ALL_POINTS, RUNTIME_POINTS,
};
use mcfi_module::Module;
use mcfi_runtime::{LoadError, Outcome, Process, ProcessOptions, RunResult, SharedImage};
use mcfi_supervisor::{RecoveryPolicy, Supervisor, SupervisorError, SupervisorStats};
use serde::Serialize;

/// Everything needed to (re)boot one tenant's process from scratch.
#[derive(Clone)]
pub struct TenantSpec {
    /// Tenant name (stats key, backoff jitter key).
    pub name: String,
    /// When set, the tenant boots by *attaching* to this [`SharedImage`]
    /// instead of loading `modules` privately: its ID tables become a
    /// delta shard over the image base, so one batched image update
    /// retargets this tenant together with every other attachee — and a
    /// restart re-attaches to the same image. `modules` is ignored (the
    /// image carries the module set).
    pub image: Option<SharedImage>,
    /// Modules loaded at boot (trusted boot set). Ignored when `image`
    /// is set.
    pub modules: Vec<Module>,
    /// Libraries registered for the guest to `dlopen` later.
    pub libraries: Vec<(String, Module)>,
    /// Entry symbol each request runs.
    pub entry: String,
    /// Process construction options.
    pub options: ProcessOptions,
    /// Per-process recovery policy (checkpointing, quarantine, lease).
    pub recovery: RecoveryPolicy,
}

/// A tenant's position in the health ladder.
///
/// `Healthy ⇄ Degraded ⇄ Quarantined → Banned`: clean requests climb
/// one rung, recovered requests hold at `Degraded`, terminal failures
/// restart the process and trip the breaker to `Quarantined`, and
/// blowing the restart-intensity window is a one-way trip to `Banned`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum TenantHealth {
    /// Serving normally.
    Healthy,
    /// Serving, but the last request needed supervisor recovery (or the
    /// tenant is climbing back from quarantine). Shed under overload.
    Degraded,
    /// Breaker open after a restart: requests shed until the backoff
    /// expires, then one half-open probe.
    Quarantined,
    /// Restart intensity exceeded: permanently shed, never rebooted.
    Banned,
}

/// One-for-one restart policy: how many restarts a tenant gets inside a
/// sliding window before the tree gives up on it.
#[derive(Clone, Copy, Debug)]
pub struct RestartStrategy {
    /// Restarts tolerated within `window` before the tenant is banned.
    pub max_restarts: u32,
    /// Intensity window, in tenant-local ticks.
    pub window: u64,
    /// Seeded backoff for the circuit breaker's retry delay (ticks);
    /// attempt number = the tenant's consecutive-failure count.
    pub backoff: Backoff,
}

impl Default for RestartStrategy {
    fn default() -> Self {
        RestartStrategy {
            max_restarts: 3,
            window: 64,
            backoff: Backoff::new(0x6d2e_37a9, 4),
        }
    }
}

/// How the request driver picks the next tenant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Schedule {
    /// Tenant `tick % n`: every tenant gets exactly `total / n` ticks.
    RoundRobin,
    /// Seeded xorshift draw per tick (deterministic, uneven).
    Seeded(u64),
}

/// Fleet-level configuration.
#[derive(Clone, Copy, Debug)]
pub struct FleetOptions {
    /// Request-driver schedule.
    pub schedule: Schedule,
    /// One-for-one restart policy shared by all tenants.
    pub restart: RestartStrategy,
    /// Percent of tenants that may be unhealthy (non-`Healthy`) before
    /// the fleet enters overload and sheds `Degraded` tenants too.
    pub shed_threshold_pct: u32,
    /// Per-request step ceiling applied to every tenant process
    /// (0 = keep each spec's own `max_steps`). A livelocked request
    /// times out with [`Outcome::StepLimit`] instead of starving the
    /// driver.
    pub max_steps_per_request: u64,
    /// Keep every served [`RunResult`] per tenant (isolation proofs;
    /// costs memory on long drives).
    pub record_results: bool,
    /// Worker threads driving requests. `0` or `1` keeps the original
    /// deterministic single-threaded tick loop; above that, a pool of
    /// real OS threads serves the same per-tenant request budget
    /// concurrently, each worker claiming whole tenants (see the crate
    /// docs for what stays deterministic).
    pub threads: usize,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            schedule: Schedule::RoundRobin,
            restart: RestartStrategy::default(),
            shed_threshold_pct: 50,
            max_steps_per_request: 0,
            record_results: false,
            threads: 1,
        }
    }
}

/// A fleet-wide chaos storm: a seed plus a shape, fanned out into one
/// independent [`FaultPlan`] per tenant by [`tenant_plan`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Storm {
    /// Storm seed; each tenant's plan is derived from it and the
    /// tenant's index, so plans are decorrelated but replayable.
    pub seed: u64,
    /// The storm's shape.
    pub kind: StormKind,
}

/// The shape of a [`Storm`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StormKind {
    /// `faults` random faults per tenant, drawn from the runtime-
    /// reachable points (exactly [`FaultPlan::random`]).
    Random {
        /// Faults per tenant plan.
        faults: usize,
    },
    /// Every runtime-reachable fault point armed once per tenant, with
    /// seed-derived occurrence counts and parameters.
    AllPoints,
}

/// The per-tenant [`FaultPlan`] a storm fans out to tenant `index`.
///
/// Pure and public so a solo replay can arm the *exact* plan a fleet
/// tenant saw.
pub fn tenant_plan(storm: &Storm, index: usize) -> FaultPlan {
    let seed = splitmix64(storm.seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    match storm.kind {
        StormKind::Random { faults } => FaultPlan::random(seed, faults),
        StormKind::AllPoints => ALL_POINTS[..RUNTIME_POINTS]
            .iter()
            .enumerate()
            .fold(FaultPlan { seed, faults: Vec::new() }, |plan, (k, &point)| {
                let draw = splitmix64(seed.wrapping_add(k as u64));
                let nth = 1 + draw % 3;
                let param = match point {
                    FaultPoint::UpdaterStall => draw % 500,
                    FaultPoint::TornTary => draw % 8,
                    FaultPoint::VersionWarp => 1 + draw % 8,
                    FaultPoint::MalformedImage => draw % 4096,
                    _ => 0,
                };
                plan.with(point, nth, param)
            }),
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Why a fleet could not be built.
#[derive(Clone, PartialEq, Debug)]
pub enum FleetError {
    /// A fleet needs at least one tenant.
    NoTenants,
    /// A tenant's initial boot failed (bad layout, unresolved symbol…).
    Boot {
        /// The tenant that failed to boot.
        tenant: String,
        /// The underlying load failure.
        error: LoadError,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::NoTenants => write!(f, "a fleet needs at least one tenant"),
            FleetError::Boot { tenant, error } => {
                write!(f, "tenant `{tenant}` failed to boot: {error}")
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// Per-tenant counters (all deterministic under the fleet's seeds).
#[derive(Clone, PartialEq, Debug, Serialize)]
pub struct TenantStats {
    /// Tenant name.
    pub name: String,
    /// Health at the time the stats were taken.
    pub health: TenantHealth,
    /// Requests scheduled to this tenant (served + shed).
    pub requests: u64,
    /// Requests that actually ran on the tenant's process.
    pub served: u64,
    /// Requests shed because the tenant is banned.
    pub banned_sheds: u64,
    /// Requests shed by the open circuit breaker.
    pub breaker_sheds: u64,
    /// Requests shed by fleet-wide overload.
    pub overload_sheds: u64,
    /// Served requests that ended in a terminal failure.
    pub failures: u64,
    /// One-for-one restarts performed.
    pub restarts: u64,
    /// Wedged-updater errors surfaced by the tenant's supervisor.
    pub wedges: u64,
    /// Guest steps executed across all served requests.
    pub steps: u64,
    /// Simulated cycles across all served requests.
    pub cycles: u64,
    /// Chaos faults fired against this tenant (all process lifetimes).
    pub faults_fired: u64,
    /// Order-sensitive FNV fold of every served [`RunResult`].
    pub digest: u64,
    /// The tenant's supervisor counters, accumulated across restarts.
    pub supervisor: SupervisorStats,
}

/// Fleet-level health verdict, derived from the counters: work that was
/// dropped is named as such instead of vanishing into a served/requests
/// gap. The `SupervisorError::Wedged`-style contract, lifted to the
/// fleet: load shedding is a *verdict*, not a silent subtraction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum FleetVerdict {
    /// Every scheduled request was served and every tenant ended healthy.
    Healthy,
    /// No fleet-wide load shedding, but some work was shed by bans or
    /// open circuit breakers, or some tenant ended below
    /// [`TenantHealth::Healthy`].
    Degraded,
    /// Fleet-wide load shedding activated: at least one request was
    /// dropped because too many tenants were unhealthy at once.
    Shedding,
}

/// Fleet-level rollup plus the per-tenant breakdown.
#[derive(Clone, PartialEq, Debug, Serialize)]
pub struct FleetStats {
    /// Tenants in the fleet.
    pub tenants: u64,
    /// Total requests driven.
    pub requests: u64,
    /// Requests served (ran on some tenant's process).
    pub served: u64,
    /// Requests shed, all causes.
    pub shed: u64,
    /// One-for-one restarts across the fleet.
    pub restarts: u64,
    /// Tenants escalated to [`TenantHealth::Banned`].
    pub bans: u64,
    /// Guest steps executed fleet-wide.
    pub steps: u64,
    /// Chaos faults fired fleet-wide.
    pub faults_fired: u64,
    /// Order-sensitive fold of the per-tenant digests.
    pub digest: u64,
    /// Whether the fleet served everything, degraded, or load-shed work
    /// (see [`FleetVerdict`]).
    pub verdict: FleetVerdict,
    /// Per-tenant breakdown, in tenant order.
    pub per_tenant: Vec<TenantStats>,
    /// Per-worker breakdown of the most recent multithreaded drive
    /// (empty after single-threaded drives).
    pub workers: Vec<WorkerStats>,
}

/// Per-worker counters from one multithreaded drive
/// ([`FleetOptions::threads`] > 1).
#[derive(Clone, PartialEq, Debug, Default, Serialize)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: u64,
    /// Tenants this worker claimed (each with its whole budget).
    pub tenants: u64,
    /// Requests this worker drove.
    pub requests: u64,
    /// Chaos-injected worker stalls served
    /// ([`FaultPoint::WorkerStall`]).
    pub stalls: u64,
}

/// Order-sensitive fold of a served run into a tenant digest. Hashes
/// the full `Debug` rendering of the [`RunResult`], so *every* field —
/// outcome, stdout, counters — participates; two tenants diverge in the
/// digest iff they diverge byte-for-byte in some served result.
fn fold_digest(acc: u64, r: &RunResult) -> u64 {
    acc.rotate_left(13) ^ mcfi_chaos::fnv64(format!("{r:?}").as_bytes())
}

struct Tenant {
    spec: TenantSpec,
    sup: Supervisor,
    health: TenantHealth,
    /// This tenant's own request clock (breaker and intensity window
    /// both run on it, so the tenant's trajectory is independent of how
    /// the fleet interleaves other tenants).
    local_tick: u64,
    /// Local tick at which the open breaker admits a half-open probe.
    retry_at: u64,
    /// Consecutive terminal failures (backoff attempt number).
    failures_streak: u32,
    /// Local ticks of recent restarts, pruned to the intensity window.
    restart_ticks: VecDeque<u64>,
    /// The chaos plan re-armed on every reboot (storms survive
    /// restarts: a restarted process faces the same weather).
    plan: Option<FaultPlan>,
    injector: Option<Arc<ChaosInjector>>,
    /// Faults fired in *previous* process lifetimes.
    faults_fired_past: u64,
    /// Supervisor counters from previous lifetimes.
    sup_past: SupervisorStats,
    stats: TenantStats,
    results: Vec<RunResult>,
}

impl Tenant {
    fn faults_fired(&self) -> u64 {
        self.faults_fired_past
            + self.injector.as_ref().map_or(0, |i| i.fired().len() as u64)
    }

    fn supervisor_stats(&self) -> SupervisorStats {
        let cur = self.sup.stats();
        let past = &self.sup_past;
        SupervisorStats {
            runs: past.runs + cur.runs,
            recoveries: past.recoveries + cur.recoveries,
            failed_restores: past.failed_restores + cur.failed_restores,
            watchdog_heals: past.watchdog_heals + cur.watchdog_heals,
            direct_repairs: past.direct_repairs + cur.direct_repairs,
            escalated: past.escalated || cur.escalated,
        }
    }
}

fn health_code(h: TenantHealth) -> u8 {
    match h {
        TenantHealth::Healthy => 0,
        TenantHealth::Degraded => 1,
        TenantHealth::Quarantined => 2,
        TenantHealth::Banned => 3,
    }
}

/// Whether more than the threshold fraction of tenants is unhealthy,
/// judged from the lock-free health mirror.
fn overloaded_mirror(health: &[AtomicU8], shed_threshold_pct: u32) -> bool {
    let unhealthy = health.iter().filter(|h| h.load(Ordering::Relaxed) != 0).count();
    unhealthy * 100 > shed_threshold_pct as usize * health.len()
}

/// The supervision tree: N tenants, each an independent fault domain,
/// plus the deterministic request driver (see the crate docs).
pub struct Fleet {
    tenants: Vec<Tenant>,
    /// `health_code` of each tenant, readable while pool workers hold
    /// other tenants, so overload decisions never wait on a tenant.
    health: Vec<AtomicU8>,
    opts: FleetOptions,
    global_tick: u64,
    /// The [`Schedule::Seeded`] draw (unused under round robin).
    sched: XorShift64,
    workers: Vec<WorkerStats>,
}

impl Fleet {
    /// Boots every tenant. No chaos is armed yet — see
    /// [`Fleet::arm_storm`] / [`Fleet::arm_tenant_plan`].
    pub fn new(specs: Vec<TenantSpec>, opts: FleetOptions) -> Result<Fleet, FleetError> {
        if specs.is_empty() {
            return Err(FleetError::NoTenants);
        }
        let sched = match opts.schedule {
            Schedule::Seeded(seed) => XorShift64::new(seed),
            Schedule::RoundRobin => XorShift64::new(0),
        };
        let mut tenants = Vec::with_capacity(specs.len());
        for spec in specs {
            let sup = boot(&spec, opts.max_steps_per_request)
                .map_err(|error| FleetError::Boot { tenant: spec.name.clone(), error })?;
            let stats = TenantStats {
                name: spec.name.clone(),
                health: TenantHealth::Healthy,
                requests: 0,
                served: 0,
                banned_sheds: 0,
                breaker_sheds: 0,
                overload_sheds: 0,
                failures: 0,
                restarts: 0,
                wedges: 0,
                steps: 0,
                cycles: 0,
                faults_fired: 0,
                digest: 0,
                supervisor: SupervisorStats::default(),
            };
            tenants.push(Tenant {
                spec,
                sup,
                health: TenantHealth::Healthy,
                local_tick: 0,
                retry_at: 0,
                failures_streak: 0,
                restart_ticks: VecDeque::new(),
                plan: None,
                injector: None,
                faults_fired_past: 0,
                sup_past: SupervisorStats::default(),
                stats,
                results: Vec::new(),
            });
        }
        let health =
            tenants.iter().map(|_| AtomicU8::new(health_code(TenantHealth::Healthy))).collect();
        Ok(Fleet { tenants, health, opts, global_tick: 0, sched, workers: Vec::new() })
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the fleet has no tenants (never true: construction
    /// requires at least one).
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Arms `plan` on tenant `index`, now and after every restart of
    /// that tenant.
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn arm_tenant_plan(&mut self, index: usize, plan: FaultPlan) {
        let t = &mut self.tenants[index];
        let injector = t.sup.process_mut().arm_chaos(plan.clone());
        t.plan = Some(plan);
        t.injector = Some(injector);
    }

    /// Fans `storm` out across the whole fleet: every tenant gets its
    /// own derived plan (see [`tenant_plan`]).
    pub fn arm_storm(&mut self, storm: Storm) {
        for i in 0..self.tenants.len() {
            self.arm_tenant_plan(i, tenant_plan(&storm, i));
        }
    }

    /// The health of tenant `index`.
    pub fn health(&self, index: usize) -> TenantHealth {
        self.tenants[index].health
    }

    /// The served [`RunResult`]s of tenant `index` (empty unless
    /// [`FleetOptions::record_results`] is set).
    pub fn results(&self, index: usize) -> &[RunResult] {
        &self.tenants[index].results
    }

    /// Drives `total` requests through the schedule — the deterministic
    /// tick loop at [`FleetOptions::threads`] ≤ 1, the claiming pool
    /// above that.
    pub fn run_requests(&mut self, total: u64) {
        if self.opts.threads > 1 {
            self.run_requests_mt(total);
            return;
        }
        for _ in 0..total {
            let i = self.pick();
            self.global_tick += 1;
            let overloaded = overloaded_mirror(&self.health, self.opts.shed_threshold_pct);
            let t = &mut self.tenants[i];
            tick_tenant(&self.opts, t, overloaded);
            self.health[i].store(health_code(t.health), Ordering::Relaxed);
        }
    }

    /// The pool drive: the *same* pick sequence as the deterministic
    /// driver is drained up front into per-tenant request budgets (so
    /// every tenant sees the identical local-tick trajectory), then a
    /// scoped pool of real OS threads takes tenants from one shared
    /// claim queue, each worker serving a claimed tenant's whole budget
    /// before it claims the next.
    fn run_requests_mt(&mut self, total: u64) {
        let mut budget = vec![0u64; self.tenants.len()];
        for _ in 0..total {
            let i = self.pick();
            self.global_tick += 1;
            budget[i] += 1;
        }

        let opts = &self.opts;
        let health = &self.health;
        let claims = Mutex::new(
            self.tenants.iter_mut().zip(health).zip(budget).filter(|&(_, n)| n > 0),
        );
        let claims = &claims;
        self.workers = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..opts.threads)
                .map(|w| {
                    scope.spawn(move || {
                        let mut ws =
                            WorkerStats { worker: w as u64, ..WorkerStats::default() };
                        loop {
                            // Its own statement, so the guard drops before
                            // the budget runs.
                            let claim = claims.lock().expect("claim lock").next();
                            let Some(((t, mirror), n)) = claim else { break };
                            ws.tenants += 1;
                            if let Some(stall) = t
                                .injector
                                .as_ref()
                                .and_then(|i| i.fire(FaultPoint::WorkerStall))
                            {
                                // A descheduled worker: burn the planned
                                // quantum while holding the tenant.
                                ws.stalls += 1;
                                for _ in 0..stall.min(10_000) {
                                    std::hint::spin_loop();
                                }
                                std::thread::yield_now();
                            }
                            for _ in 0..n {
                                let overloaded =
                                    overloaded_mirror(health, opts.shed_threshold_pct);
                                tick_tenant(opts, t, overloaded);
                                mirror.store(health_code(t.health), Ordering::Relaxed);
                            }
                            ws.requests += n;
                        }
                        ws
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fleet worker thread panicked"))
                .collect()
        });
    }

    fn pick(&mut self) -> usize {
        let n = self.tenants.len() as u64;
        match self.opts.schedule {
            Schedule::RoundRobin => (self.global_tick % n) as usize,
            Schedule::Seeded(_) => (self.sched.next_u64() % n) as usize,
        }
    }

    /// Snapshot of every counter, per tenant and rolled up.
    pub fn stats(&self) -> FleetStats {
        let per_tenant: Vec<TenantStats> = self
            .tenants
            .iter()
            .map(|t| {
                let mut s = t.stats.clone();
                s.health = t.health;
                s.faults_fired = t.faults_fired();
                s.supervisor = t.supervisor_stats();
                s
            })
            .collect();
        let mut roll = FleetStats {
            tenants: per_tenant.len() as u64,
            requests: 0,
            served: 0,
            shed: 0,
            restarts: 0,
            bans: 0,
            steps: 0,
            faults_fired: 0,
            digest: 0,
            verdict: FleetVerdict::Healthy,
            per_tenant,
            workers: self.workers.clone(),
        };
        let mut overload_shed = 0u64;
        for s in &roll.per_tenant {
            roll.requests += s.requests;
            roll.served += s.served;
            roll.shed += s.banned_sheds + s.breaker_sheds + s.overload_sheds;
            overload_shed += s.overload_sheds;
            roll.restarts += s.restarts;
            roll.bans += u64::from(s.health == TenantHealth::Banned);
            roll.steps += s.steps;
            roll.faults_fired += s.faults_fired;
            roll.digest = roll.digest.rotate_left(13) ^ s.digest;
        }
        let all_healthy =
            roll.per_tenant.iter().all(|s| s.health == TenantHealth::Healthy);
        roll.verdict = if overload_shed > 0 {
            FleetVerdict::Shedding
        } else if roll.shed > 0 || !all_healthy {
            FleetVerdict::Degraded
        } else {
            FleetVerdict::Healthy
        };
        roll
    }
}

/// One scheduled request against one tenant. Shared verbatim by the
/// deterministic tick loop and the pool workers: a request is
/// shed or served based only on the tenant's own state plus the
/// `overloaded` snapshot the caller took.
fn tick_tenant(opts: &FleetOptions, t: &mut Tenant, overloaded: bool) {
    t.local_tick += 1;
    t.stats.requests += 1;
    match t.health {
        TenantHealth::Banned => t.stats.banned_sheds += 1,
        TenantHealth::Quarantined if t.local_tick < t.retry_at => {
            t.stats.breaker_sheds += 1;
        }
        // Overload sheds Degraded tenants; Quarantined tenants past
        // their backoff still get their half-open probe (the only
        // path that can shrink the unhealthy set), and Healthy
        // tenants always serve.
        TenantHealth::Degraded if overloaded => t.stats.overload_sheds += 1,
        _ => serve_tenant(opts, t),
    }
}

fn serve_tenant(opts: &FleetOptions, t: &mut Tenant) {
    let recoveries_before = t.sup.stats().recoveries;
    let res = t.sup.run(&t.spec.entry);
    match res {
        Ok(r) => {
            t.stats.served += 1;
            t.stats.steps += r.steps;
            t.stats.cycles += r.cycles;
            t.stats.digest = fold_digest(t.stats.digest, &r);
            if opts.record_results {
                t.results.push(r.clone());
            }
            if matches!(r.outcome, Outcome::Exit { .. }) {
                t.failures_streak = 0;
                let recovered = t.sup.stats().recoveries > recoveries_before;
                t.health = match (t.health, recovered) {
                    // A recovery mid-request caps the climb at
                    // Degraded; a clean request climbs one rung.
                    (_, true) => TenantHealth::Degraded,
                    (TenantHealth::Quarantined, false) => TenantHealth::Degraded,
                    (_, false) => TenantHealth::Healthy,
                };
            } else {
                // Fault, enforced violation, or step-limit timeout:
                // terminal for this process lifetime.
                fail_tenant(opts, t);
            }
        }
        Err(SupervisorError::Load(_)) | Err(SupervisorError::Wedged { .. }) => {
            if matches!(res, Err(SupervisorError::Wedged { .. })) {
                t.stats.wedges += 1;
            }
            fail_tenant(opts, t);
        }
    }
}

/// One-for-one restart of a tenant, with intensity accounting.
fn fail_tenant(opts: &FleetOptions, t: &mut Tenant) {
    let restart = opts.restart;
    t.stats.failures += 1;
    t.failures_streak = t.failures_streak.saturating_add(1);
    let now = t.local_tick;
    t.restart_ticks.push_back(now);
    while let Some(&front) = t.restart_ticks.front() {
        if front + restart.window <= now {
            t.restart_ticks.pop_front();
        } else {
            break;
        }
    }
    if t.restart_ticks.len() as u64 > u64::from(restart.max_restarts) {
        // Intensity exceeded: the tree gives up on this child. The
        // dead process is not even rebooted — a banned tenant costs
        // the fleet nothing but a shed counter.
        t.health = TenantHealth::Banned;
        return;
    }
    t.sup_past = t.supervisor_stats();
    t.faults_fired_past = t.faults_fired();
    match boot(&t.spec, opts.max_steps_per_request) {
        Ok(mut sup) => {
            if let Some(plan) = &t.plan {
                t.injector = Some(sup.process_mut().arm_chaos(plan.clone()));
            }
            t.sup = sup;
            t.stats.restarts += 1;
            t.health = TenantHealth::Quarantined;
            t.retry_at =
                now + 1 + restart.backoff.delay(&t.spec.name, t.failures_streak);
        }
        // The spec booted once, so a reboot failure means the spec
        // itself has become unbootable — ban rather than retry a
        // boot loop forever.
        Err(_) => t.health = TenantHealth::Banned,
    }
}

/// Boots one tenant process — privately from its module list, or
/// attached to its [`SharedImage`] — and wraps it in a supervisor.
fn boot(spec: &TenantSpec, max_steps_per_request: u64) -> Result<Supervisor, LoadError> {
    let mut p = match &spec.image {
        Some(image) => image.attach_with(spec.options)?,
        None => {
            let mut p = Process::new(spec.options)?;
            p.load_all(spec.modules.clone())?;
            p
        }
    };
    for (name, module) in &spec.libraries {
        p.register_library(name, module.clone());
    }
    if max_steps_per_request > 0 {
        p.set_max_steps(max_steps_per_request);
    }
    Ok(Supervisor::new(p, spec.recovery))
}

/// Replays one tenant *alone*: a single-tenant fleet with the same
/// options, optionally armed with exactly `plan`, driven for `requests`
/// ticks (results recorded).
///
/// Because a tenant's served trajectory depends only on its own spec,
/// plan, and local tick sequence, a fleet tenant scheduled `requests`
/// times must produce byte-identical served [`RunResult`]s — the
/// cross-tenant isolation proof used by the storm tests.
pub fn solo_replay(
    spec: &TenantSpec,
    opts: &FleetOptions,
    plan: Option<FaultPlan>,
    requests: u64,
) -> Result<Fleet, FleetError> {
    let mut solo_opts = *opts;
    solo_opts.schedule = Schedule::RoundRobin;
    solo_opts.record_results = true;
    // Replays are a determinism proof: always the deterministic loop.
    solo_opts.threads = 1;
    let mut fleet = Fleet::new(vec![spec.clone()], solo_opts)?;
    if let Some(plan) = plan {
        fleet.arm_tenant_plan(0, plan);
    }
    fleet.run_requests(requests);
    Ok(fleet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfi_codegen::{compile_source, CodegenOptions};
    use mcfi_runtime::{stdlib, synth, ViolationPolicy};

    fn compile(name: &str, src: &str) -> Module {
        compile_source(name, src, &CodegenOptions::default()).unwrap_or_else(|e| panic!("{e}"))
    }

    fn spec(name: &str, src: &str, popts: ProcessOptions, recovery: RecoveryPolicy) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            image: None,
            modules: vec![
                synth::syscall_module(),
                compile("libms", stdlib::LIBMS_SRC),
                compile("start", stdlib::START_SRC),
                compile("prog", src),
            ],
            libraries: Vec::new(),
            entry: "__start".to_string(),
            options: popts,
            recovery,
        }
    }

    const OK_GUEST: &str = "int main(void) { int i = 0; int acc = 0;\n\
         while (i < 50) { acc = acc + i; i = i + 1; } return acc % 97; }";

    /// Violates under `Enforce`: every request is a terminal failure.
    const CRASHER: &str = "float fsq(float x) { return x * x; }\n\
         int main(void) {\n\
           void* raw = (void*)&fsq;\n\
           int (*f)(int) = (int(*)(int))raw;\n\
           return f(3);\n\
         }";

    fn healthy_spec(name: &str) -> TenantSpec {
        spec(name, OK_GUEST, ProcessOptions::default(), RecoveryPolicy::default())
    }

    fn crasher_spec(name: &str) -> TenantSpec {
        let popts =
            ProcessOptions { violation_policy: ViolationPolicy::Enforce, ..Default::default() };
        spec(name, CRASHER, popts, RecoveryPolicy::default())
    }

    #[test]
    fn a_healthy_fleet_serves_every_request() {
        let specs = (0..3).map(|i| healthy_spec(&format!("t{i}"))).collect();
        let mut fleet = Fleet::new(specs, FleetOptions::default()).expect("boots");
        fleet.run_requests(30);
        let s = fleet.stats();
        assert_eq!(s.requests, 30);
        assert_eq!(s.served, 30);
        assert_eq!(s.shed, 0);
        assert_eq!(s.restarts, 0);
        assert_eq!(s.bans, 0);
        assert_eq!(s.verdict, FleetVerdict::Healthy);
        for t in &s.per_tenant {
            assert_eq!(t.health, TenantHealth::Healthy);
            assert_eq!(t.requests, 10, "round-robin splits evenly");
            assert_ne!(t.digest, 0);
        }
        // All three tenants ran the same guest: identical digests.
        assert_eq!(s.per_tenant[0].digest, s.per_tenant[1].digest);
    }

    #[test]
    fn a_crashing_tenant_is_restarted_then_banned_without_blocking_others() {
        let specs = vec![healthy_spec("good"), crasher_spec("bad")];
        let opts = FleetOptions {
            restart: RestartStrategy {
                max_restarts: 2,
                window: 100,
                backoff: Backoff::new(7, 0), // no delay: probe immediately
            },
            ..Default::default()
        };
        let mut fleet = Fleet::new(specs, opts).expect("boots");
        fleet.run_requests(40);
        let s = fleet.stats();
        let good = &s.per_tenant[0];
        let bad = &s.per_tenant[1];
        assert_eq!(good.health, TenantHealth::Healthy);
        assert_eq!(good.served, 20, "the ban never cost the good tenant a tick");
        assert_eq!(bad.health, TenantHealth::Banned);
        // 2 restarts allowed; the 3rd failure inside the window bans.
        assert_eq!(bad.restarts, 2);
        assert_eq!(bad.failures, 3);
        assert!(bad.banned_sheds > 0, "post-ban requests shed, not served");
        assert_eq!(bad.served, bad.failures as u64, "every served request violated");
        assert_eq!(s.bans, 1);
        assert_eq!(s.verdict, FleetVerdict::Degraded, "bans degrade the fleet without overload");
    }

    #[test]
    fn the_circuit_breaker_sheds_then_probes_half_open() {
        let specs = vec![crasher_spec("flappy")];
        let opts = FleetOptions {
            restart: RestartStrategy {
                max_restarts: 10,
                window: 5, // short window: never two failures inside it
                backoff: Backoff::new(11, 4),
            },
            ..Default::default()
        };
        let mut fleet = Fleet::new(specs, opts).expect("boots");
        fleet.run_requests(60);
        let s = fleet.stats();
        let t = &s.per_tenant[0];
        assert!(t.restarts >= 2, "restarted repeatedly: {t:?}");
        assert!(t.breaker_sheds > 0, "the open breaker shed requests");
        assert_eq!(
            t.served,
            t.failures,
            "between restarts only half-open probes reached the process"
        );
        assert_eq!(t.requests, 60);
        assert_eq!(t.served + t.breaker_sheds + t.banned_sheds, 60);
    }

    #[test]
    fn overload_sheds_degraded_tenants_until_pressure_drops() {
        // Three tenants: one healthy, one whose every request needs a
        // supervisor recovery (pinned Degraded), one banned-bound
        // crasher. Once the crasher is banned, 2 of 3 tenants are
        // unhealthy (> 50%): the Degraded tenant's requests shed.
        let evil_host = "int dlopen(char* name);\n\
             void* dlsym(char* name);\n\
             int main(void) {\n\
               int ok = dlopen(\"evil\");\n\
               if (ok) {\n\
                 int (*f)(int) = (int(*)(int))dlsym(\"evil_fn\");\n\
                 return f(1);\n\
               }\n\
               return 77;\n\
             }";
        let popts =
            ProcessOptions { violation_policy: ViolationPolicy::Recover, ..Default::default() };
        let mut degraded = spec("degraded", evil_host, popts, RecoveryPolicy::default());
        degraded.libraries.push((
            "evil".to_string(),
            compile("evil", "float evil_fn(float x) { return x * 2.0; }"),
        ));
        let specs = vec![healthy_spec("good"), degraded, crasher_spec("bad")];
        let opts = FleetOptions {
            shed_threshold_pct: 50,
            restart: RestartStrategy {
                max_restarts: 0, // first failure bans
                window: 100,
                backoff: Backoff::new(3, 0),
            },
            ..Default::default()
        };
        let mut fleet = Fleet::new(specs, opts).expect("boots");
        fleet.run_requests(30);
        let s = fleet.stats();
        assert_eq!(s.per_tenant[0].health, TenantHealth::Healthy);
        assert_eq!(s.per_tenant[0].served, 10, "healthy tenants serve through overload");
        assert_eq!(s.per_tenant[2].health, TenantHealth::Banned);
        let deg = &s.per_tenant[1];
        assert_eq!(deg.health, TenantHealth::Degraded);
        assert!(deg.supervisor.recoveries > 0, "{deg:?}");
        assert!(deg.overload_sheds > 0, "overload shed the degraded tenant: {deg:?}");
        assert!(deg.served > 0, "it served before the fleet overloaded");
        assert_eq!(s.verdict, FleetVerdict::Shedding, "load shedding is a verdict, not a silent drop");
    }

    #[test]
    fn seeded_schedule_and_storms_replay_identically() {
        let mk = || {
            let specs = (0..4).map(|i| healthy_spec(&format!("t{i}"))).collect();
            let opts = FleetOptions {
                schedule: Schedule::Seeded(0xfeed),
                record_results: true,
                ..Default::default()
            };
            let mut fleet = Fleet::new(specs, opts).expect("boots");
            fleet.arm_storm(Storm { seed: 42, kind: StormKind::Random { faults: 3 } });
            fleet.run_requests(100);
            fleet
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.stats(), b.stats());
        for i in 0..a.len() {
            assert_eq!(a.results(i), b.results(i), "tenant {i} replays byte-identically");
        }
        // The storm decorrelates tenants: not all plans are equal.
        let storm = Storm { seed: 42, kind: StormKind::Random { faults: 3 } };
        assert_ne!(tenant_plan(&storm, 0), tenant_plan(&storm, 1));
        // And the all-points shape covers every runtime point.
        let all = tenant_plan(&Storm { seed: 7, kind: StormKind::AllPoints }, 0);
        assert_eq!(all.faults.len(), RUNTIME_POINTS);
    }

    #[test]
    fn stats_serialize_to_json() {
        // FleetStats is a JSON artifact (`fleet_ab` emits it); make sure
        // every nested piece — tenant vec, health enum, supervisor
        // stats — drives the serializer without loss.
        let specs = vec![healthy_spec("t0")];
        let mut fleet = Fleet::new(specs, FleetOptions::default()).expect("boots");
        fleet.run_requests(3);
        let s = fleet.stats();
        let json = serde_json::to_string(&s).expect("serializes");
        assert!(json.contains("\"tenants\":1"), "{json}");
        assert!(json.contains("\"per_tenant\":[{"), "{json}");
        assert!(json.contains("\"health\":\"Healthy\""), "{json}");
        assert!(json.contains("\"verdict\":\"Healthy\""), "{json}");
        assert!(json.contains("\"supervisor\":{\"runs\":3"), "{json}");
    }
}
