//! The controlled-schedule executor (`Sched`).
//!
//! One *execution* runs each model thread on a real OS thread, but only
//! one thread is ever allowed to make progress: before every shadow
//! synchronization operation the thread reaches a **schedule point**,
//! where the scheduler decides which runnable thread proceeds next. The
//! decision sequence fully determines the interleaving, so an execution
//! is replayable from its decision list alone, and a DFS over decision
//! alternatives enumerates interleavings exhaustively.
//!
//! Schedule points come **before** the operation they precede, so every
//! state the protocol passes through is observed by the invariant oracle
//! and every memory effect can be separated from its neighbours by a
//! context switch. Preemption bounding (Musuvathi & Qadeer, PLDI 2007)
//! keeps the search tractable: switching away from a *runnable* thread
//! costs one preemption from a small budget, while forced switches
//! (the current thread blocked or finished) are free. Once the budget
//! is spent the current thread runs on without branching, which is the
//! standard sound way to bound the search.

use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once};

use mcfi_chaos::{ChaosInjector, FaultPlan, FaultPoint, XorShift64};

/// Sentinel panic payload: the crash-site sweep killed this thread.
pub(crate) struct McKill;

/// Sentinel panic payload: the execution is being torn down (budget
/// exhausted, deadlock, or a failure elsewhere).
pub(crate) struct McAbort;

/// Sentinel panic payload: an oracle failed with a message. Use
/// [`fail`] from scenario bodies instead of `panic!` so counterexample
/// executions do not spam the default panic hook.
pub(crate) struct McFail(pub String);

/// Aborts the current model execution with an oracle-failure message,
/// which becomes the counterexample's diagnosis.
pub fn fail(msg: String) -> ! {
    panic::panic_any(McFail(msg))
}

/// A scheduling decision at a branch point: which of `options` eligible
/// threads was chosen (`choice` indexes the eligible list, current
/// thread first, then the other runnable threads by ascending id).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Decision {
    /// The chosen index into the eligible list.
    pub choice: u8,
    /// How many threads were eligible (always ≥ 2; single-option points
    /// are not recorded — they cannot branch).
    pub options: u8,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TState {
    Runnable,
    /// Waiting for the shadow mutex with this id.
    Blocked(u64),
    Finished,
}

struct Core {
    states: Vec<TState>,
    current: usize,
    abort: bool,
    failure: Option<String>,
    livelock: bool,
    deadlock: bool,
    steps: u64,
    preemptions: u32,
    decisions: Vec<Decision>,
    /// Decision prefix to follow before falling back to the default
    /// source (DFS: first option; random: the seeded RNG).
    prescribed: Vec<u8>,
    cursor: usize,
    rng: Option<XorShift64>,
}

impl Core {
    /// Picks among `eligible` (len ≥ 1); records a [`Decision`] only
    /// when there is a real branch.
    fn decide(&mut self, eligible: &[usize]) -> usize {
        if eligible.len() <= 1 {
            return 0;
        }
        let options = eligible.len() as u8;
        let choice = if self.cursor < self.prescribed.len() {
            self.prescribed[self.cursor].min(options - 1)
        } else if let Some(rng) = &mut self.rng {
            (rng.next_u64() % u64::from(options)) as u8
        } else {
            0
        };
        self.cursor += 1;
        self.decisions.push(Decision { choice, options });
        usize::from(choice)
    }
}

struct KillState {
    victim: String,
    injector: Arc<ChaosInjector>,
}

/// The invariant oracle: called at every schedule point with the shadow
/// primitives in pass-through mode, so it can read table state freely.
pub type InvariantFn = Box<dyn Fn() -> Result<(), String> + Send + Sync>;

/// The controlled scheduler for one execution.
pub struct Sched {
    core: Mutex<Core>,
    cv: Condvar,
    names: Vec<String>,
    invariant: Option<InvariantFn>,
    kill: Option<KillState>,
    preemption_bound: u32,
    max_steps: u64,
}

struct Ctx {
    sched: Arc<Sched>,
    tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
    static IN_ORACLE: Cell<bool> = const { Cell::new(false) };
}

/// The schedule point every shadow operation passes through. A no-op
/// outside an execution (the driver thread sets up and inspects table
/// state without scheduling) and inside the invariant oracle.
pub(crate) fn schedule_point() {
    let ctx = CTX.with(|c| c.borrow().as_ref().map(|x| (Arc::clone(&x.sched), x.tid)));
    if let Some((sched, tid)) = ctx {
        if IN_ORACLE.with(Cell::get) {
            return;
        }
        sched.point(tid);
    }
}

/// Blocks the current model thread on shadow mutex `mid` until woken.
pub(crate) fn block_current_on(mid: u64) {
    let ctx = CTX.with(|c| c.borrow().as_ref().map(|x| (Arc::clone(&x.sched), x.tid)));
    match ctx {
        Some((sched, tid)) => sched.block_on(tid, mid),
        // The driver thread never contends a shadow mutex: executions
        // release every lock (RAII, even on kill unwinds) before join
        // returns. Reaching here means a scenario bug.
        None => panic!("shadow mutex contended outside a model execution"),
    }
}

/// Wakes every thread blocked on shadow mutex `mid` (they become
/// runnable; they run when next scheduled). Quiet — not a schedule
/// point — so unlock-on-unwind can never double-panic.
pub(crate) fn wake_blocked_on(mid: u64) {
    let ctx = CTX.with(|c| c.borrow().as_ref().map(|x| Arc::clone(&x.sched)));
    if let Some(sched) = ctx {
        sched.wake_blocked(mid);
    }
}

/// A fair-yield point: the current thread declares it cannot make
/// progress until someone else runs (a spin-retry iteration). Handing
/// the core to another runnable thread here is *free* — it costs no
/// preemption — which is what keeps spin loops from monopolizing the
/// schedule once the preemption budget is spent (the CHESS treatment of
/// `sched_yield`). No-op outside an execution.
pub(crate) fn yield_hint() {
    let ctx = CTX.with(|c| c.borrow().as_ref().map(|x| (Arc::clone(&x.sched), x.tid)));
    if let Some((sched, tid)) = ctx {
        if IN_ORACLE.with(Cell::get) {
            return;
        }
        sched.yield_point(tid);
    }
}

impl Sched {
    fn lock_core(&self) -> MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// One schedule point for thread `tid`: crash-site kill check, then
    /// the invariant oracle, then the scheduling decision.
    fn point(&self, tid: usize) {
        if let Some(kill) = &self.kill {
            if self.names[tid] == kill.victim
                && kill.injector.fire(FaultPoint::SchedPoint).is_some()
            {
                // The victim dies *here*, mid-transaction: unwinding
                // drops its lock guards (a crashed updater's lock is
                // released, as when a SplitBump is dropped), leaving
                // the tables wherever the previous stores put them.
                panic::panic_any(McKill);
            }
        }
        if let Some(inv) = &self.invariant {
            let res = IN_ORACLE.with(|f| {
                f.set(true);
                let res = inv();
                f.set(false);
                res
            });
            if let Err(msg) = res {
                panic::panic_any(McFail(msg));
            }
        }
        let mut core = self.lock_core();
        if core.abort {
            drop(core);
            panic::panic_any(McAbort);
        }
        core.steps += 1;
        if core.steps > self.max_steps {
            core.livelock = true;
            self.fail_locked(
                &mut core,
                format!("livelock: no progress within {} schedule points", self.max_steps),
            );
            drop(core);
            panic::panic_any(McAbort);
        }
        let mut eligible = vec![tid];
        if core.preemptions < self.preemption_bound {
            let states = &core.states;
            eligible.extend(
                (0..states.len()).filter(|&t| t != tid && states[t] == TState::Runnable),
            );
        }
        let idx = core.decide(&eligible);
        let chosen = eligible[idx];
        if chosen != tid {
            core.preemptions += 1;
            core.current = chosen;
            self.cv.notify_all();
            self.wait_for_turn(core, tid);
        }
    }

    /// A fair yield from `tid`: hand the core to the *cyclically next*
    /// runnable thread without charging a preemption. Deliberately NOT
    /// a branch point: a spinning thread re-reads unchanged state, so
    /// branching here would let the DFS walk unfair spinner-ping-pong
    /// paths to the step budget and misreport them as livelocks, while
    /// adding no protocol states the real schedule points can't reach.
    /// Round-robin order guarantees every runnable thread gets the core
    /// within `n` yields, so spinners can never starve the one thread
    /// whose progress would release them.
    fn yield_point(&self, tid: usize) {
        let mut core = self.lock_core();
        if core.abort {
            drop(core);
            panic::panic_any(McAbort);
        }
        core.steps += 1;
        if core.steps > self.max_steps {
            core.livelock = true;
            self.fail_locked(
                &mut core,
                format!("livelock: no progress within {} schedule points", self.max_steps),
            );
            drop(core);
            panic::panic_any(McAbort);
        }
        let n = core.states.len();
        let next = (1..n)
            .map(|d| (tid + d) % n)
            .find(|&t| core.states[t] == TState::Runnable);
        if let Some(next) = next {
            core.current = next;
            self.cv.notify_all();
            self.wait_for_turn(core, tid);
        }
    }

    fn wait_for_turn(&self, mut core: MutexGuard<'_, Core>, tid: usize) {
        loop {
            if core.abort {
                drop(core);
                panic::panic_any(McAbort);
            }
            if core.current == tid {
                return;
            }
            core = self.cv.wait(core).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn block_on(&self, tid: usize, mid: u64) {
        let mut core = self.lock_core();
        if core.abort {
            drop(core);
            panic::panic_any(McAbort);
        }
        core.states[tid] = TState::Blocked(mid);
        self.pick_next_locked(&mut core, tid);
        loop {
            if core.abort {
                drop(core);
                panic::panic_any(McAbort);
            }
            if core.current == tid && core.states[tid] == TState::Runnable {
                return;
            }
            core = self.cv.wait(core).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn wake_blocked(&self, mid: u64) {
        let mut core = self.lock_core();
        for st in &mut core.states {
            if *st == TState::Blocked(mid) {
                *st = TState::Runnable;
            }
        }
        // No scheduling change: the woken threads compete at the next
        // schedule point, so unlocking itself never branches the search.
    }

    /// Hands the core to another thread after `tid` can no longer run
    /// (blocked or finished). This switch is forced — free of preemption
    /// charge — but still a branch point when several threads could go.
    fn pick_next_locked(&self, core: &mut MutexGuard<'_, Core>, tid: usize) {
        if core.abort {
            self.cv.notify_all();
            return;
        }
        debug_assert_eq!(core.current, tid, "only the current thread yields the core");
        let runnable: Vec<usize> =
            (0..core.states.len()).filter(|&t| core.states[t] == TState::Runnable).collect();
        if runnable.is_empty() {
            if core.states.iter().any(|s| matches!(s, TState::Blocked(_))) {
                core.deadlock = true;
                self.fail_locked(core, "deadlock: every live thread is blocked".to_string());
            }
            self.cv.notify_all();
            return;
        }
        let idx = core.decide(&runnable);
        core.current = runnable[idx];
        self.cv.notify_all();
    }

    fn fail_locked(&self, core: &mut Core, msg: String) {
        if core.failure.is_none() {
            core.failure = Some(msg);
        }
        core.abort = true;
        self.cv.notify_all();
    }

    fn thread_finished(&self, tid: usize, failure: Option<String>) {
        let mut core = self.lock_core();
        core.states[tid] = TState::Finished;
        if let Some(msg) = failure {
            self.fail_locked(&mut core, msg);
        }
        if core.current == tid {
            self.pick_next_locked(&mut core, tid);
        }
        self.cv.notify_all();
    }
}

/// One model thread: a name (the crash-site sweep targets threads by
/// name) and a body run under the controlled scheduler.
pub struct ThreadSpec {
    /// The thread's name; `"updater"` is the conventional kill target.
    pub name: String,
    /// The thread body. All its table traffic must go through
    /// `IdTablesAt<McSync>` for the scheduler to see it.
    pub body: Box<dyn FnOnce() + Send>,
}

impl ThreadSpec {
    /// Builds a named model thread.
    pub fn new(name: &str, body: impl FnOnce() + Send + 'static) -> Self {
        ThreadSpec { name: name.to_string(), body: Box::new(body) }
    }
}

/// Everything one execution runs: the model threads, an optional
/// invariant checked at every schedule point, and an optional finale
/// oracle run on the driver thread after every thread has finished.
pub struct ExecSpec {
    /// The model threads, spawned in order (thread 0 runs first — the
    /// first schedule point can immediately switch away, so starting
    /// order costs no coverage).
    pub threads: Vec<ThreadSpec>,
    /// State predicate over the shadow tables, checked before every
    /// operation; `Err` aborts the execution as a counterexample.
    pub invariant: Option<InvariantFn>,
    /// Post-execution oracle (runs unscheduled, on the driver).
    pub finale: Option<Box<dyn FnOnce() -> Result<(), String>>>,
}

/// How an execution ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExecOutcome {
    /// Every thread finished and every oracle passed.
    Ok,
    /// An oracle failed or a thread panicked; the message diagnoses it.
    Fail(String),
    /// The per-execution step budget ran out — no thread made progress.
    Livelock,
    /// Every live thread was blocked on a shadow mutex.
    Deadlock,
}

/// The record of one execution.
#[derive(Clone, Debug)]
pub struct ExecResult {
    /// How it ended.
    pub outcome: ExecOutcome,
    /// Every branch-point decision taken, in order — the replayable
    /// schedule.
    pub decisions: Vec<Decision>,
    /// Whether the planned crash-site kill fired.
    pub kill_fired: bool,
    /// How many schedule points the kill victim passed (0 when no kill
    /// was planned); the sweep stops when this falls below the planned
    /// site index.
    pub victim_points: u64,
}

/// Schedule-source and budget parameters for one execution.
pub(crate) struct RunParams {
    pub prescribed: Vec<u8>,
    pub rng_seed: Option<u64>,
    pub preemption_bound: u32,
    pub max_steps: u64,
    /// Kill thread `name` at its `nth` schedule point.
    pub kill: Option<(String, u64)>,
}

/// Runs one complete execution of `spec` under `params`.
pub(crate) fn run_one(spec: ExecSpec, params: RunParams) -> ExecResult {
    install_quiet_hook();
    let n = spec.threads.len();
    assert!(n > 0, "an execution needs at least one thread");
    let injector = params.kill.as_ref().map(|(_, nth)| {
        ChaosInjector::arm(FaultPlan::new().with(FaultPoint::SchedPoint, *nth, 0))
    });
    let sched = Arc::new(Sched {
        core: Mutex::new(Core {
            states: vec![TState::Runnable; n],
            current: 0,
            abort: false,
            failure: None,
            livelock: false,
            deadlock: false,
            steps: 0,
            preemptions: 0,
            decisions: Vec::new(),
            prescribed: params.prescribed,
            cursor: 0,
            rng: params.rng_seed.map(XorShift64::new),
        }),
        cv: Condvar::new(),
        names: spec.threads.iter().map(|t| t.name.clone()).collect(),
        invariant: spec.invariant,
        kill: params.kill.as_ref().map(|(victim, _)| KillState {
            victim: victim.clone(),
            injector: Arc::clone(injector.as_ref().expect("armed alongside kill")),
        }),
        preemption_bound: params.preemption_bound,
        max_steps: params.max_steps,
    });

    let handles: Vec<_> = spec
        .threads
        .into_iter()
        .enumerate()
        .map(|(tid, t)| {
            let sched = Arc::clone(&sched);
            std::thread::Builder::new()
                .name(format!("mc-{}", t.name))
                .spawn(move || {
                    CTX.with(|c| {
                        *c.borrow_mut() = Some(Ctx { sched: Arc::clone(&sched), tid });
                    });
                    // Wait for the scheduler to hand this thread the core
                    // (thread 0 holds it from the start).
                    let should_run = {
                        let mut core = sched.lock_core();
                        loop {
                            if core.abort {
                                break false;
                            }
                            if core.current == tid {
                                break true;
                            }
                            core = sched
                                .cv
                                .wait(core)
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
                        }
                    };
                    let failure = if should_run {
                        match panic::catch_unwind(AssertUnwindSafe(t.body)) {
                            Ok(()) => None,
                            // `&*` reborrows the boxed payload itself —
                            // `&payload` would coerce the *Box* into the
                            // trait object and every downcast would miss.
                            Err(payload) => classify_payload(&*payload),
                        }
                    } else {
                        None
                    };
                    sched.thread_finished(tid, failure);
                    CTX.with(|c| *c.borrow_mut() = None);
                })
                .expect("spawn model thread")
        })
        .collect();
    for h in handles {
        let _ = h.join();
    }

    let (mut outcome, decisions) = {
        let core = sched.lock_core();
        let outcome = if core.livelock {
            ExecOutcome::Livelock
        } else if core.deadlock {
            ExecOutcome::Deadlock
        } else if let Some(msg) = core.failure.clone() {
            ExecOutcome::Fail(msg)
        } else {
            ExecOutcome::Ok
        };
        (outcome, core.decisions.clone())
    };
    if outcome == ExecOutcome::Ok {
        if let Some(finale) = spec.finale {
            if let Err(msg) = finale() {
                outcome = ExecOutcome::Fail(msg);
            }
        }
    }
    ExecResult {
        outcome,
        decisions,
        kill_fired: injector.as_ref().is_some_and(|i| !i.fired().is_empty()),
        victim_points: injector.map_or(0, |i| i.hit_count(FaultPoint::SchedPoint)),
    }
}

fn classify_payload(payload: &(dyn std::any::Any + Send)) -> Option<String> {
    if payload.downcast_ref::<McKill>().is_some() || payload.downcast_ref::<McAbort>().is_some() {
        return None;
    }
    if let Some(f) = payload.downcast_ref::<McFail>() {
        return Some(f.0.clone());
    }
    if let Some(s) = payload.downcast_ref::<&str>() {
        return Some((*s).to_string());
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return Some(s.clone());
    }
    Some("model thread panicked with a non-string payload".to_string())
}

/// Installs (once, process-wide) a panic hook that silences the
/// scheduler's sentinel payloads — kill sweeps unwind thousands of
/// threads per test run — and delegates every real panic to the
/// previous hook untouched.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.downcast_ref::<McKill>().is_some()
                || p.downcast_ref::<McAbort>().is_some()
                || p.downcast_ref::<McFail>().is_some()
            {
                return;
            }
            prev(info);
        }));
    });
}
