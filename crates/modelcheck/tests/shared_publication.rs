//! Model-checking the shared-image publication protocol: bounded-
//! exhaustive DFS over attach / batched-update / detach interleavings,
//! a crash-site sweep of the batched retarget, and the stale-epoch
//! seeded-bug canary (an attach that reads the image version without
//! the update lock) caught with a replayable trace.
//!
//! The oracle is *publication coherence*: after quiescence, every live
//! shard's effective words — what its check transactions actually
//! consume, through the delta layering — carry the image's current
//! version. A shard that missed a batched retarget surfaces here as a
//! stale-version word masking the freshly restamped base.
//!
//! As in `protocol.rs`, the exhausted DFS space and the full crash sweep
//! are pinned to exact sizes: a refactor of the table code keeps them, and
//! a deliberate protocol change updates the pins in its own commit.

use std::sync::Arc;

use mcfi_modelcheck::{
    crash_sweep, explore, fail, replay, ExecOutcome, ExecSpec, ExploreConfig, McMutex,
    McSharedTables, McTables, ScheduleTrace, ThreadSpec,
};
use mcfi_tables::sync::MutexOps;
use mcfi_tables::{CheckError, Id, RetryConfig, TablesConfig};

/// Same scenario CFGs as `protocol.rs`: the edge 0→8 is legal under
/// both, 0→16 under neither, so checkers may assert them at any point
/// relative to an in-flight batched update.
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

fn fresh_image() -> McSharedTables {
    let img = McSharedTables::new(TablesConfig { code_size: CODE_SIZE, bary_slots: 1 });
    // Driver-thread setup: no scheduler registered, every shadow op is
    // a plain pass-through.
    img.base().update(old_tary, |_| Some(1));
    img
}

/// A mid-flight drop box: model-checked threads park their attached
/// shard here (a scheduled store) so the finale can audit it after
/// quiescence.
type ShardSlot = Arc<McMutex<Option<Arc<McTables>>>>;

/// The publication-coherence oracle (finale-only — mid-transaction the
/// image is legitimately skewed): every effective word the shard
/// publishes must carry the image's current version.
fn coherent(label: &str, shard: &McTables) -> Result<(), String> {
    let current = shard.current_version();
    for addr in (0..(shard.tary_len() * 4) as u64).step_by(4) {
        if let Some(id) = Id::from_word(shard.tary_word(addr)) {
            if id.version() != current {
                return Err(format!(
                    "stale-epoch skew: {label} Tary address {addr} carries version {} while \
                     the image is at {} — the batched retarget missed this shard",
                    id.version().raw(),
                    current.raw(),
                ));
            }
        }
    }
    for slot in 0..shard.bary_len() {
        if let Some(id) = Id::from_word(shard.bary_word(slot)) {
            if id.version() != current {
                return Err(format!(
                    "stale-epoch skew: {label} Bary slot {slot} carries version {} while \
                     the image is at {} — the batched retarget missed this shard",
                    id.version().raw(),
                    current.raw(),
                ));
            }
        }
    }
    Ok(())
}

/// The Fig. 3 phase invariant on the image base, checkable at every
/// schedule point: base Bary words only advance to the current version
/// after the whole base Tary table has.
fn base_phase_invariant(img: &McSharedTables) -> mcfi_modelcheck::InvariantFn {
    let base = Arc::clone(img.base());
    Box::new(move || {
        let current = base.current_version();
        let bary_advanced = (0..base.bary_len())
            .any(|s| Id::from_word(base.bary_word(s)).is_some_and(|id| id.version() == current));
        if !bary_advanced {
            return Ok(());
        }
        for addr in (0..(base.tary_len() * 4) as u64).step_by(4) {
            if let Some(id) = Id::from_word(base.tary_word(addr)) {
                if id.version() != current {
                    return Err(format!(
                        "phase order violated on the image base: a Bary slot already carries \
                         version {} while Tary address {addr} still carries {}",
                        current.raw(),
                        id.version().raw(),
                    ));
                }
            }
        }
        Ok(())
    })
}

/// The linearizability oracle through one shard, bounded so the thread
/// terminates even if the updater has been crash-killed.
fn bounded_checks(label: &'static str, shard: &Arc<McTables>) {
    let config = RetryConfig { escalate_after: 2, max_retries: 24 };
    match shard.check_bounded(0, 8, &config) {
        Ok(_) | Err(CheckError::Stalled(_)) => {}
        Err(CheckError::Violation(v)) => {
            fail(format!("legal edge 0→8 rejected through {label}: {v:?}"));
        }
    }
    if let Ok(ecn) = shard.check_bounded(0, 16, &config) {
        fail(format!("forbidden edge 0→16 admitted through {label} with ECN {}", ecn.raw()));
    }
}

/// The publication protocol proper: a process attaching (and checking
/// through its fresh delta), a batched base update sweeping the image,
/// and a resident process detaching — every interleaving under
/// preemption bound 2 must leave all surviving shards coherent, the
/// detached shard pruned, and exactly one committed publication epoch.
#[test]
fn attach_update_detach_interleavings_keep_every_shard_coherent() {
    let make = || {
        let img = fresh_image();
        let resident = img.attach();
        let epoch0 = img.epoch();
        let attached: ShardSlot = Arc::new(McMutex::new(None));
        let (a_img, a_out) = (img.clone(), Arc::clone(&attached));
        let u_img = img.clone();
        let (finale_img, finale_slot) = (img.clone(), Arc::clone(&attached));
        ExecSpec {
            threads: vec![
                ThreadSpec::new("attacher", move || {
                    let shard = a_img.attach();
                    bounded_checks("a fresh delta", &shard);
                    *a_out.lock() = Some(shard);
                }),
                ThreadSpec::new("updater", move || {
                    u_img.base().update(new_tary, |_| Some(2));
                }),
                ThreadSpec::new("detacher", move || {
                    bounded_checks("the resident delta", &resident);
                    drop(resident); // detach: the next sweep must not miss a beat
                }),
            ],
            invariant: Some(base_phase_invariant(&img)),
            finale: Some(Box::new(move || {
                coherent("the image base", finale_img.base())?;
                let shard =
                    finale_slot.lock().take().expect("the attacher ran to completion");
                coherent("the attached delta", &shard)?;
                if finale_img.attached() != 1 {
                    return Err(format!(
                        "the detached shard was not pruned: {} live deltas",
                        finale_img.attached()
                    ));
                }
                if finale_img.epoch() != epoch0 + 1 {
                    return Err(format!(
                        "expected exactly one committed publication: epoch moved {} → {}",
                        epoch0,
                        finale_img.epoch()
                    ));
                }
                // The retarget reached every survivor.
                for (label, t) in [("base", finale_img.base()), ("attached delta", &shard)] {
                    if let Err(v) = t.check(0, 8) {
                        return Err(format!(
                            "post-quiescence legal edge rejected through the {label}: {v:?}"
                        ));
                    }
                    if t.check(0, 16).is_ok() {
                        return Err(format!(
                            "post-quiescence forbidden edge admitted through the {label}"
                        ));
                    }
                }
                Ok(())
            })),
        }
    };
    let report = explore(
        ExploreConfig { preemption_bound: 2, max_steps: 5_000, max_schedules: 200_000 },
        make,
    );
    assert!(
        report.counterexample.is_none(),
        "publication counterexample:\n{}",
        report.counterexample.unwrap()
    );
    assert!(report.exhausted, "bounded space not exhausted within the schedule cap");
    assert_eq!(report.schedules, 1_683, "the publication schedule space moved (see module docs)");
}

/// The batched retarget killed at **every** one of its schedule points
/// in turn: the base phase invariant must hold through the kill, and a
/// post-crash repair must restore image-wide coherence — including a
/// delta override (ECN 7 at address 8) that the sweep was mid-restamp
/// on.
#[test]
fn crash_sweep_of_the_batched_retarget_leaves_a_repairable_image() {
    let make = || {
        let img = fresh_image();
        let resident = img.attach();
        // Driver-thread setup: the resident process masks address 8 with
        // its own class and revokes 16 — nonzero delta words for the
        // crashed sweep to strand.
        resident.update(|addr| (addr == 8).then_some(7), |_| Some(7));
        let checker = Arc::clone(&resident);
        let u_base = Arc::clone(img.base());
        let (finale_img, finale_res) = (img.clone(), resident);
        ExecSpec {
            threads: vec![
                ThreadSpec::new("checker", move || {
                    bounded_checks("the resident delta", &checker);
                }),
                ThreadSpec::new("updater", move || {
                    u_base.bump_version();
                }),
            ],
            invariant: Some(base_phase_invariant(&img)),
            finale: Some(Box::new(move || {
                finale_img.base().repair_abandoned();
                coherent("the image base", finale_img.base())?;
                coherent("the resident delta", &finale_res)?;
                if let Err(v) = finale_img.base().check(0, 8) {
                    return Err(format!("post-repair legal edge rejected on the base: {v:?}"));
                }
                match finale_res.check(0, 8) {
                    Ok(ecn) if ecn.raw() == 7 => {}
                    other => {
                        return Err(format!(
                            "post-repair delta override lost: check(0, 8) = {other:?}"
                        ))
                    }
                }
                if finale_res.check(0, 16).is_ok() {
                    return Err("post-repair revoked target admitted through the delta".into());
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
        "batched-retarget crash counterexample:\n{}",
        sweep.counterexample.unwrap()
    );
    assert_eq!(sweep.sites, 17, "the batched retarget's crash sites moved (see the module docs)");
    assert!(sweep.schedules > sweep.sites, "sweep must run many schedules per site");
}

/// The seeded-bug canary: an attach that reads the image version
/// *without* the update lock, prestamps its delta from the base at that
/// version, and registers late. The DFS must find the interleaving
/// where a batched update commits inside that window — the late
/// registration then publishes stale-version words masking the
/// restamped base — and the counterexample trace must replay.
#[test]
fn the_stale_epoch_attach_canary_is_caught_with_a_replayable_trace() {
    let make = || {
        let img = fresh_image();
        let attached: ShardSlot = Arc::new(McMutex::new(None));
        let (a_img, a_out) = (img.clone(), Arc::clone(&attached));
        let u_img = img.clone();
        let (finale_img, finale_slot) = (img.clone(), Arc::clone(&attached));
        ExecSpec {
            threads: vec![
                ThreadSpec::new("attacher", move || {
                    *a_out.lock() = Some(a_img.attach_prestamped_stale_for_tests());
                }),
                ThreadSpec::new("updater", move || {
                    u_img.base().update(new_tary, |_| Some(2));
                }),
            ],
            invariant: Some(base_phase_invariant(&img)),
            finale: Some(Box::new(move || {
                coherent("the image base", finale_img.base())?;
                let shard =
                    finale_slot.lock().take().expect("the attacher ran to completion");
                coherent("the prestamped delta", &shard)
            })),
        }
    };
    let config = ExploreConfig { preemption_bound: 2, max_steps: 5_000, max_schedules: 50_000 };
    let report = explore(config, make);
    let cx = report.counterexample.expect("the stale-epoch attach bug must be caught");
    match &cx.outcome {
        ExecOutcome::Fail(msg) => {
            assert!(msg.contains("stale-epoch skew"), "unexpected diagnosis: {msg}")
        }
        other => panic!("expected a finale failure, got {other:?}"),
    }

    // The trace survives its wire round trip and replays to the exact
    // same failing outcome.
    let wire = cx.trace.wire();
    let parsed = ScheduleTrace::parse(&wire).expect("trace wire format round-trips");
    assert_eq!(parsed, cx.trace);
    let replayed = replay(config, &parsed, make);
    assert_eq!(replayed.outcome, cx.outcome, "replay must reproduce the counterexample");
}
