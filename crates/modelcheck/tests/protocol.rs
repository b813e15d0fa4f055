//! Model-checking the ID-table protocol: linearizability, the
//! Tary-before-Bary crash invariant at every schedule point, and
//! liveness, over bounded-exhaustive, random, and crash-site-sweep
//! schedule exploration.
//!
//! Every scenario rebuilds its tables from scratch per execution (the
//! `make` closure), so executions are pure functions of their decision
//! lists and every counterexample replays exactly.
//!
//! The exhausted DFS spaces and full crash sweeps are pinned to exact
//! sizes. Those count the transactions' schedule points (every facade
//! operation, in order), so a refactor of the table code keeps them; a
//! deliberate protocol change updates the pins in its own commit.

use std::sync::Arc;

use mcfi_modelcheck::{
    crash_sweep, explore, explore_random, fail, replay, ExecOutcome, ExecSpec, ExploreConfig,
    McMutex, McTables, ScheduleTrace, ThreadSpec,
};
use mcfi_tables::sync::MutexOps;
use mcfi_tables::{CheckError, Id, RetryConfig, TablesConfig, ViolationKind};

/// The scenario CFGs: code addresses 8 and 16 are the two targets, Bary
/// slot 0 the one branch. Under the OLD CFG the branch and address 8
/// share ECN 1 while address 16 has ECN 2; the NEW CFG swaps the ECNs
/// and moves the branch to ECN 2. The edge 0→8 is legal in *both* CFGs
/// and the edge 0→16 in *neither*, so a checker may never admit 0→16
/// regardless of where an update is in flight — that is the
/// linearizability oracle in executable form.
const CODE_SIZE: usize = 32;

fn old_tary(addr: u64) -> Option<u32> {
    match addr {
        8 => Some(1),
        16 => Some(2),
        _ => None,
    }
}

fn new_tary(addr: u64) -> Option<u32> {
    match addr {
        8 => Some(2),
        16 => Some(1),
        _ => None,
    }
}

fn fresh_tables_sized(code_size: usize) -> Arc<McTables> {
    let t = Arc::new(McTables::new(TablesConfig { code_size, bary_slots: 1 }));
    // Driver-thread setup: no scheduler registered, every shadow op is
    // a plain pass-through.
    t.update(old_tary, |_| Some(1));
    t
}

fn fresh_tables() -> Arc<McTables> {
    fresh_tables_sized(CODE_SIZE)
}

/// The Fig. 3 phase invariant, checkable at *every* schedule point: the
/// Bary table only ever advances to the current version after the whole
/// Tary table has (Tary phase, barrier, Bary phase). Holds mid-update,
/// mid-repair, and after a crash at any site; violated the moment an
/// updater stamps Bary first.
fn phase_invariant(t: &McTables) -> Result<(), String> {
    let current = t.current_version();
    let bary_advanced = (0..t.bary_len())
        .any(|s| Id::from_word(t.bary_word(s)).is_some_and(|id| id.version() == current));
    if !bary_advanced {
        return Ok(());
    }
    for addr in (0..(t.tary_len() * 4) as u64).step_by(4) {
        if let Some(id) = Id::from_word(t.tary_word(addr)) {
            if id.version() != current {
                return Err(format!(
                    "phase order violated: a Bary slot already carries version {} while \
                     Tary address {addr} still carries {}",
                    current.raw(),
                    id.version().raw(),
                ));
            }
        }
    }
    Ok(())
}

fn invariant_for(t: &Arc<McTables>) -> mcfi_modelcheck::InvariantFn {
    let t = Arc::clone(t);
    Box::new(move || phase_invariant(&t))
}

/// A checker thread body asserting the linearizability oracle for one
/// legal and one illegal edge, with a bounded retry budget so the
/// thread terminates even when the updater has been crash-killed.
fn checker_body(t: Arc<McTables>) -> impl FnOnce() + Send {
    let config = RetryConfig { escalate_after: 2, max_retries: 24 };
    move || {
        match t.check_bounded(0, 8, &config) {
            Ok(_) => {}
            Err(CheckError::Violation(v)) => {
                fail(format!("legal edge 0→8 rejected: {v:?}"));
            }
            // Retry-budget exhaustion is a liveness report, not a
            // protocol violation; the liveness oracle below asserts it
            // cannot happen while the updater stays alive.
            Err(CheckError::Stalled(_)) => {}
        }
        match t.check_bounded(0, 16, &config) {
            Ok(ecn) => fail(format!("forbidden edge 0→16 admitted with ECN {}", ecn.raw())),
            Err(CheckError::Violation(_)) | Err(CheckError::Stalled(_)) => {}
        }
    }
}

/// Like [`checker_body`] but with the paper's unbounded `TxCheck` and a
/// strict liveness stance: with a live (never-crashed) updater the
/// check must terminate (the DFS would report a livelock otherwise) and
/// the illegal edge must produce an ECN-mismatch violation.
fn strict_checker_body(t: Arc<McTables>) -> impl FnOnce() + Send {
    move || {
        match t.check(0, 8) {
            Ok(_) => {}
            Err(v) => fail(format!("legal edge 0→8 rejected: {v:?}")),
        }
        match t.check(0, 16) {
            Ok(ecn) => fail(format!("forbidden edge 0→16 admitted with ECN {}", ecn.raw())),
            Err(v) => {
                if !matches!(v.kind, ViolationKind::EcnMismatch { .. }) {
                    fail(format!("forbidden edge 0→16 rejected for the wrong reason: {v:?}"));
                }
            }
        }
    }
}

fn two_checkers_one_updater(strict: bool, code_size: usize) -> ExecSpec {
    let t = fresh_tables_sized(code_size);
    let (c1, c2, u) = (Arc::clone(&t), Arc::clone(&t), Arc::clone(&t));
    let mk = |arc: Arc<McTables>, name: &str| {
        if strict {
            ThreadSpec::new(name, strict_checker_body(arc))
        } else {
            ThreadSpec::new(name, checker_body(arc))
        }
    };
    let finale_t = Arc::clone(&t);
    ExecSpec {
        threads: vec![
            mk(c1, "checker-1"),
            mk(c2, "checker-2"),
            ThreadSpec::new("updater", move || {
                u.update(new_tary, |_| Some(2));
            }),
        ],
        invariant: Some(invariant_for(&t)),
        finale: Some(Box::new(move || {
            match finale_t.check(0, 8) {
                Ok(_) => {}
                Err(v) => return Err(format!("post-quiescence legal edge rejected: {v:?}")),
            }
            if finale_t.check(0, 16).is_ok() {
                return Err("post-quiescence forbidden edge admitted".to_string());
            }
            Ok(())
        })),
    }
}

#[test]
fn dfs_bound_2_verifies_linearizability_and_liveness() {
    let report = explore(
        ExploreConfig { preemption_bound: 2, max_steps: 5_000, max_schedules: 200_000 },
        || two_checkers_one_updater(true, CODE_SIZE),
    );
    assert!(
        report.counterexample.is_none(),
        "protocol counterexample:\n{}",
        report.counterexample.unwrap()
    );
    assert!(report.exhausted, "bounded space not exhausted within the schedule cap");
    assert_eq!(report.ok_executions, report.schedules);
    assert_eq!(report.schedules, 612, "the bound-2 schedule space moved (see the module docs)");
}

/// The ISSUE acceptance bar: the 2-checker/1-updater scenario yields at
/// least 10,000 distinct schedules under preemption bound 2 (the DFS
/// enumerates schedules without repetition, so `schedules` counts
/// distinct interleavings), all passing, in well under the CI budget.
#[test]
fn dfs_bound_2_covers_ten_thousand_distinct_schedules() {
    let report = explore(
        ExploreConfig { preemption_bound: 2, max_steps: 5_000, max_schedules: 12_000 },
        // A 512-byte code region gives the updater's Tary phase 128
        // entries — enough schedule points that the bound-2 space
        // clears the 10,000-distinct-schedule acceptance bar.
        || two_checkers_one_updater(false, 512),
    );
    assert!(
        report.counterexample.is_none(),
        "protocol counterexample:\n{}",
        report.counterexample.unwrap()
    );
    assert!(
        report.schedules >= 10_000,
        "only {} schedules under bound 2 (exhausted={})",
        report.schedules,
        report.exhausted
    );
}

#[test]
fn random_walk_finds_no_violation_and_covers_distinct_schedules() {
    let report = explore_random(
        ExploreConfig { preemption_bound: 8, max_steps: 5_000, ..Default::default() },
        0x00C0_FFEE,
        300,
        || two_checkers_one_updater(false, CODE_SIZE),
    );
    assert!(
        report.counterexample.is_none(),
        "random-walk counterexample:\n{}",
        report.counterexample.unwrap()
    );
    assert!(
        report.distinct_schedules > 100,
        "random walk collapsed to {} distinct schedules",
        report.distinct_schedules
    );
}

/// Crash the updater at **every** one of its schedule points in turn
/// (full DFS per site): the phase invariant must hold through the kill,
/// surviving checkers must still never admit the forbidden edge, and a
/// post-crash `repair_abandoned` must restore full consistency.
#[test]
fn crash_sweep_holds_phase_invariant_at_every_kill_site() {
    let make = || {
        let t = fresh_tables();
        let (c1, u) = (Arc::clone(&t), Arc::clone(&t));
        let finale_t = Arc::clone(&t);
        ExecSpec {
            threads: vec![
                ThreadSpec::new("checker-1", checker_body(c1)),
                // A version re-stamp: the one transaction the repair
                // path guarantees it can complete after a crash (a
                // crashed CFG *change* loses the not-yet-applied part
                // of the new CFG and is not mechanically repairable).
                ThreadSpec::new("updater", move || {
                    u.bump_version();
                }),
            ],
            invariant: Some(invariant_for(&t)),
            finale: Some(Box::new(move || {
                // The updater may have died mid-transaction; repair must
                // always restore a fully consistent table.
                finale_t.repair_abandoned();
                let current = finale_t.current_version();
                for addr in (0..CODE_SIZE as u64).step_by(4) {
                    if let Some(id) = Id::from_word(finale_t.tary_word(addr)) {
                        if id.version() != current {
                            return Err(format!(
                                "post-repair Tary address {addr} stuck at version {}",
                                id.version().raw()
                            ));
                        }
                    }
                }
                match finale_t.check(0, 8) {
                    Ok(_) => {}
                    Err(v) => return Err(format!("post-repair legal edge rejected: {v:?}")),
                }
                if finale_t.check(0, 16).is_ok() {
                    return Err("post-repair forbidden edge admitted".to_string());
                }
                Ok(())
            })),
        }
    };
    let sweep = crash_sweep(
        ExploreConfig { preemption_bound: 1, max_steps: 5_000, max_schedules: 50_000 },
        "updater",
        make,
    );
    assert!(
        sweep.counterexample.is_none(),
        "crash-site counterexample:\n{}",
        sweep.counterexample.unwrap()
    );
    // The updater passes over a dozen schedule points (lock, version,
    // the 2 listed Tary words, fence, Bary, commit) — the sweep must
    // actually have walked them rather than stopping at the door.
    assert_eq!(sweep.sites, 12, "the updater's crash sites moved (see the module docs)");
    assert!(sweep.schedules > sweep.sites, "sweep must run many schedules per site");
}

/// Seeded bug #1: an updater that runs the Bary phase *before* the Tary
/// phase. The per-schedule-point phase invariant must catch it, and the
/// counterexample trace must replay to the same failure.
#[test]
fn seeded_bary_first_bug_is_caught_with_replayable_trace() {
    let make = || {
        let t = fresh_tables();
        let u = Arc::clone(&t);
        ExecSpec {
            threads: vec![
                ThreadSpec::new("checker-1", checker_body(Arc::clone(&t))),
                ThreadSpec::new("updater", move || {
                    u.bump_version_bary_first_for_tests();
                }),
            ],
            invariant: Some(invariant_for(&t)),
            finale: None,
        }
    };
    let config = ExploreConfig { preemption_bound: 2, max_steps: 5_000, max_schedules: 50_000 };
    let report = explore(config, make);
    let cx = report.counterexample.expect("the bary-first bug must be caught");
    match &cx.outcome {
        ExecOutcome::Fail(msg) => {
            assert!(msg.contains("phase order violated"), "unexpected diagnosis: {msg}")
        }
        other => panic!("expected an invariant failure, got {other:?}"),
    }

    // The trace survives its wire round trip and replays to the exact
    // same failing outcome.
    let wire = cx.trace.wire();
    let parsed = ScheduleTrace::parse(&wire).expect("trace wire format round-trips");
    assert_eq!(parsed, cx.trace);
    let replayed = replay(config, &parsed, make);
    assert_eq!(replayed.outcome, cx.outcome, "replay must reproduce the counterexample");
}

/// Seeded bug #2: a CFG update that skips the version bump. No torn
/// state, no phase violation — but a checker racing the two phases can
/// observe the old branch ID against a new target ID with *matching*
/// words and admit an edge forbidden by both CFGs. Only the
/// linearizability oracle (the checker body itself) catches this one.
#[test]
fn seeded_unversioned_update_bug_is_caught_by_linearizability_oracle() {
    let make = || {
        let t = fresh_tables();
        let u = Arc::clone(&t);
        ExecSpec {
            threads: vec![
                ThreadSpec::new("checker-1", checker_body(Arc::clone(&t))),
                ThreadSpec::new("updater", move || {
                    u.update_unversioned_for_tests(new_tary, |_| Some(2));
                }),
            ],
            invariant: Some(invariant_for(&t)),
            finale: None,
        }
    };
    let config = ExploreConfig { preemption_bound: 2, max_steps: 5_000, max_schedules: 50_000 };
    let report = explore(config, make);
    let cx = report.counterexample.expect("the unversioned-update bug must be caught");
    match &cx.outcome {
        ExecOutcome::Fail(msg) => {
            assert!(msg.contains("forbidden edge 0→16 admitted"), "unexpected diagnosis: {msg}")
        }
        other => panic!("expected a checker-oracle failure, got {other:?}"),
    }
    let replayed = replay(config, &cx.trace, make);
    assert_eq!(replayed.outcome, cx.outcome, "replay must reproduce the counterexample");
}

/// The deadlock oracle: two shadow mutexes acquired in opposite orders
/// must be reported as a deadlock counterexample, not a hang.
#[test]
fn deadlock_is_detected_and_reported() {
    let make = || {
        let a: Arc<McMutex<u32>> = Arc::new(McMutex::new(0));
        let b: Arc<McMutex<u32>> = Arc::new(McMutex::new(0));
        let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        ExecSpec {
            threads: vec![
                ThreadSpec::new("forward", move || {
                    let _g1 = a1.lock();
                    let _g2 = b1.lock();
                }),
                ThreadSpec::new("backward", move || {
                    let _g2 = b2.lock();
                    let _g1 = a2.lock();
                }),
            ],
            invariant: None,
            finale: None,
        }
    };
    let report = explore(
        ExploreConfig { preemption_bound: 2, max_steps: 1_000, max_schedules: 10_000 },
        make,
    );
    let cx = report.counterexample.expect("opposite-order locking must deadlock somewhere");
    assert_eq!(cx.outcome, ExecOutcome::Deadlock);
}

/// The livelock oracle: a thread that spins forever on state nobody
/// will ever change must be reported as a livelock, not a hang.
#[test]
fn livelock_is_detected_and_reported() {
    let make = || {
        let t = fresh_tables();
        let s = Arc::clone(&t);
        // A split bump parks the tables mid-window (Tary new, Bary old)
        // and *abandons* them: the paper-model unbounded check then
        // retries forever.
        ExecSpec {
            threads: vec![ThreadSpec::new("checker-1", move || {
                drop(s.bump_version_split());
                let _ = s.check(0, 8);
            })],
            invariant: None,
            finale: None,
        }
    };
    let report = explore(
        ExploreConfig { preemption_bound: 2, max_steps: 500, max_schedules: 1_000 },
        make,
    );
    let cx = report.counterexample.expect("an abandoned window must livelock TxCheck");
    assert_eq!(cx.outcome, ExecOutcome::Livelock);
}

/// Same abandoned-window scenario, but with the deployable
/// `check_bounded`: escalation repairs the abandoned transaction and
/// every schedule terminates cleanly — the exact resilience property
/// the bounded variant exists to provide.
#[test]
fn check_bounded_escapes_the_abandoned_window_in_every_schedule() {
    let make = || {
        let t = fresh_tables();
        let (s, c) = (Arc::clone(&t), Arc::clone(&t));
        ExecSpec {
            threads: vec![
                ThreadSpec::new("abandoner", move || {
                    drop(s.bump_version_split());
                }),
                ThreadSpec::new("checker-1", move || {
                    let config = RetryConfig { escalate_after: 2, max_retries: 24 };
                    match c.check_bounded(0, 8, &config) {
                        Ok(_) => {}
                        Err(e) => fail(format!("bounded check failed to recover: {e:?}")),
                    }
                }),
            ],
            invariant: Some(invariant_for(&t)),
            finale: None,
        }
    };
    let report = explore(
        ExploreConfig { preemption_bound: 2, max_steps: 5_000, max_schedules: 50_000 },
        make,
    );
    assert!(
        report.counterexample.is_none(),
        "recovery counterexample:\n{}",
        report.counterexample.unwrap()
    );
    assert!(report.exhausted);
}

/// Deep run for nightly/budgeted CI: preemption bound 3 and a long
/// random walk. Gated behind `MCFI_MC_BUDGET` (any non-empty value) so
/// the default test pass stays fast.
#[test]
fn deep_exploration_under_budget_gate() {
    if std::env::var("MCFI_MC_BUDGET").map_or(true, |v| v.is_empty()) {
        return;
    }
    let report = explore(
        ExploreConfig { preemption_bound: 3, max_steps: 10_000, max_schedules: 400_000 },
        || two_checkers_one_updater(false, CODE_SIZE),
    );
    assert!(
        report.counterexample.is_none(),
        "bound-3 counterexample:\n{}",
        report.counterexample.unwrap()
    );
    let walk = explore_random(
        ExploreConfig { preemption_bound: 16, max_steps: 10_000, ..Default::default() },
        0xDEE9,
        5_000,
        || two_checkers_one_updater(false, CODE_SIZE),
    );
    assert!(
        walk.counterexample.is_none(),
        "deep random-walk counterexample:\n{}",
        walk.counterexample.unwrap()
    );
}

/// The updater-lease watchdog, swept over every kill site: with the
/// stamp-at-acquire discipline, *any* crash that left the tables skewed
/// also left an expired lease behind, so one post-quiescence
/// `watchdog_poll` heals the tables completely — no guest check ever
/// had to trip over the window first.
#[test]
fn crash_sweep_watchdog_heals_every_kill_site() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use mcfi_tables::{LeaseConfig, WatchdogVerdict};

    let heals = Arc::new(AtomicU64::new(0));
    let make = {
        let heals = Arc::clone(&heals);
        move || {
            let t = fresh_tables();
            t.set_lease(LeaseConfig { clock: Arc::new(AtomicU64::new(0)), duration: 10 });
            let (c1, u) = (Arc::clone(&t), Arc::clone(&t));
            let finale_t = Arc::clone(&t);
            let heals = Arc::clone(&heals);
            ExecSpec {
                threads: vec![
                    ThreadSpec::new("checker-1", checker_body(c1)),
                    ThreadSpec::new("updater", move || {
                        u.bump_version();
                    }),
                ],
                invariant: Some(invariant_for(&t)),
                finale: Some(Box::new(move || {
                    // Quiescence: the updater is dead (killed or done).
                    // An expired stamp means it died mid-transaction;
                    // the watchdog must be able to heal unaided.
                    match finale_t.watchdog_poll(u64::MAX) {
                        WatchdogVerdict::Healed { .. } => {
                            heals.fetch_add(1, Ordering::Relaxed);
                        }
                        // No stamp: the kill landed before the stamp
                        // (nothing written yet) or after the commit.
                        WatchdogVerdict::Clean => {}
                        other => {
                            return Err(format!("watchdog verdict {other:?} after quiescence"))
                        }
                    }
                    let current = finale_t.current_version();
                    for addr in (0..CODE_SIZE as u64).step_by(4) {
                        if let Some(id) = Id::from_word(finale_t.tary_word(addr)) {
                            if id.version() != current {
                                return Err(format!(
                                    "post-watchdog Tary address {addr} stuck at version {}",
                                    id.version().raw()
                                ));
                            }
                        }
                    }
                    match finale_t.check(0, 8) {
                        Ok(_) => {}
                        Err(v) => return Err(format!("post-watchdog legal edge rejected: {v:?}")),
                    }
                    if finale_t.check(0, 16).is_ok() {
                        return Err("post-watchdog forbidden edge admitted".to_string());
                    }
                    Ok(())
                })),
            }
        }
    };
    let sweep = crash_sweep(
        ExploreConfig { preemption_bound: 1, max_steps: 5_000, max_schedules: 50_000 },
        "updater",
        make,
    );
    assert!(
        sweep.counterexample.is_none(),
        "watchdog counterexample:\n{}",
        sweep.counterexample.unwrap()
    );
    assert_eq!(sweep.sites, 14, "the leased updater's crash sites moved (see the module docs)");
    assert!(
        heals.load(Ordering::Relaxed) > 0,
        "no kill site ever left an expired lease for the watchdog to heal"
    );
}

/// Seeded bug #3: an updater that stamps its lease *after* the Tary
/// phase instead of at lock acquire. A crash anywhere in the Tary phase
/// then leaves skewed tables with no stamp — the watchdog reads
/// `Clean` and never heals. The crash-site sweep must find such a site,
/// and the counterexample must replay.
#[test]
fn crash_sweep_catches_the_late_lease_stamp_bug() {
    use std::sync::atomic::AtomicU64;
    use mcfi_tables::LeaseConfig;

    let make = || {
        let t = fresh_tables();
        t.set_lease(LeaseConfig { clock: Arc::new(AtomicU64::new(0)), duration: 10 });
        let u = Arc::clone(&t);
        let finale_t = Arc::clone(&t);
        ExecSpec {
            threads: vec![ThreadSpec::new("updater", move || {
                u.bump_version_late_lease_for_tests();
            })],
            invariant: None,
            finale: Some(Box::new(move || {
                let _ = finale_t.watchdog_poll(u64::MAX);
                let current = finale_t.current_version();
                for addr in (0..CODE_SIZE as u64).step_by(4) {
                    if let Some(id) = Id::from_word(finale_t.tary_word(addr)) {
                        if id.version() != current {
                            return Err(format!(
                                "watchdog-blind skew: Tary address {addr} stuck at version {} \
                                 after the lease poll",
                                id.version().raw()
                            ));
                        }
                    }
                }
                Ok(())
            })),
        }
    };
    let config = ExploreConfig { preemption_bound: 1, max_steps: 5_000, max_schedules: 50_000 };
    let sweep = crash_sweep(config, "updater", make);
    let cx = sweep.counterexample.expect("the late-stamp bug must be caught");
    match &cx.outcome {
        ExecOutcome::Fail(msg) => {
            assert!(msg.contains("watchdog-blind skew"), "unexpected diagnosis: {msg}")
        }
        other => panic!("expected a finale failure, got {other:?}"),
    }
    let replayed = replay(config, &cx.trace, make);
    assert_eq!(replayed.outcome, cx.outcome, "replay must reproduce the counterexample");
}
