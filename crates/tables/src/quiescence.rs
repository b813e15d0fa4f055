//! Quiescence tracking for the version-number ABA mitigation (§5.2).
//!
//! The 14-bit version space could in principle be exhausted: security is
//! violated only if at least `2^14` update transactions complete while a
//! single check transaction is in flight. The paper's mitigation is to
//! maintain a counter of executed update transactions and reset it to zero
//! once every thread has been observed at a quiescent point (e.g. when each
//! thread invokes a system call), because a thread at a quiescent point
//! cannot be in the middle of a check transaction.
//!
//! [`QuiescenceTracker`] implements the bookkeeping of that scheme: a
//! caller registers every executing thread, marks its quiescent points,
//! and consults [`QuiescenceTracker::all_quiescent_since`] to decide when
//! [`mcfi_tables::IdTables::reset_update_count`] is safe. The runtime
//! does not drive it yet: no runtime path registers threads, marks
//! quiescent points or resets the count, so a process's update count
//! only grows. Only the tests (`tests/concurrency.rs`) exercise the
//! tracker and the reset.
//!
//! [`mcfi_tables::IdTables::reset_update_count`]: crate::IdTables::reset_update_count

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Identifier the runtime assigns to each executing thread.
pub type ThreadToken = u64;

/// Tracks which threads have passed a quiescent point since the last epoch
/// advance.
#[derive(Debug, Default)]
pub struct QuiescenceTracker {
    epoch: AtomicU64,
    next_token: AtomicU64,
    threads: Mutex<HashMap<ThreadToken, u64>>,
}

impl QuiescenceTracker {
    /// Creates a tracker with no registered threads.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new executing thread; the thread starts quiescent.
    pub fn register(&self) -> ThreadToken {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let epoch = self.epoch.load(Ordering::Acquire);
        self.threads.lock().insert(token, epoch);
        token
    }

    /// Removes a terminated thread from consideration.
    pub fn unregister(&self, token: ThreadToken) {
        self.threads.lock().remove(&token);
    }

    /// Records that `token` is at a quiescent point (e.g. inside a system
    /// call), hence not inside any check transaction.
    pub fn quiescent_point(&self, token: ThreadToken) {
        let epoch = self.epoch.load(Ordering::Acquire);
        if let Some(e) = self.threads.lock().get_mut(&token) {
            *e = epoch;
        }
    }

    /// Starts a new observation epoch. Called by the dynamic linker after
    /// an update transaction completes.
    pub fn advance_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Whether every registered thread has hit a quiescent point in the
    /// current epoch — i.e. no thread can still be using old-version IDs,
    /// so the update counter may be reset.
    pub fn all_quiescent_since(&self, epoch: u64) -> bool {
        self.threads.lock().values().all(|&e| e >= epoch)
    }

    /// The current epoch.
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Number of registered threads.
    pub fn thread_count(&self) -> usize {
        self.threads.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_threads_are_quiescent() {
        let q = QuiescenceTracker::new();
        let _a = q.register();
        assert!(q.all_quiescent_since(0));
    }

    #[test]
    fn epoch_advance_requires_fresh_quiescent_points() {
        let q = QuiescenceTracker::new();
        let a = q.register();
        let b = q.register();
        let epoch = q.advance_epoch();
        assert!(!q.all_quiescent_since(epoch));
        q.quiescent_point(a);
        assert!(!q.all_quiescent_since(epoch), "b has not quiesced");
        q.quiescent_point(b);
        assert!(q.all_quiescent_since(epoch));
    }

    #[test]
    fn unregistering_a_stuck_thread_unblocks_reset() {
        let q = QuiescenceTracker::new();
        let a = q.register();
        let stuck = q.register();
        let epoch = q.advance_epoch();
        q.quiescent_point(a);
        assert!(!q.all_quiescent_since(epoch));
        q.unregister(stuck);
        assert!(q.all_quiescent_since(epoch));
    }

    #[test]
    fn counter_reset_after_quiescence_defuses_version_warp() {
        // The ABA mitigation end to end, under an injected version warp:
        // updates push the tables toward the 14-bit wrap, the update
        // counter records how many completed, and once every thread has
        // quiesced the runtime may reset the counter — the wrap hazard
        // requires 2^14 updates during ONE in-flight check, which a reset
        // at a quiescent point rules out.
        use crate::{IdTables, TablesConfig, VERSION_LIMIT};
        use mcfi_chaos::{ChaosInjector, FaultPlan, FaultPoint};

        let t = IdTables::new(TablesConfig { code_size: 16, bary_slots: 1 });
        t.update(|a| (a == 4).then_some(0), |_| Some(0));
        // Park the version 2 short of the wrap before the next update.
        t.arm_chaos(ChaosInjector::arm(
            FaultPlan::new().with(FaultPoint::VersionWarp, 1, 2),
        ));

        let q = QuiescenceTracker::new();
        let checker = q.register();
        let before = t.updates_since_reset();
        for _ in 0..4 {
            let stats = t.bump_version();
            assert!(stats.completed);
            assert!(t.check(0, 4).is_ok(), "checks survive the wrap");
        }
        assert_eq!(t.updates_since_reset(), before + 4);
        assert!(t.current_version().raw() < 4, "version wrapped past 2^14");
        assert!(u64::from(VERSION_LIMIT) > t.updates_since_reset());

        // The checker thread hits a syscall (quiescent point): the epoch
        // it observed is current, so the counter reset is safe.
        let epoch = q.advance_epoch();
        q.quiescent_point(checker);
        assert!(q.all_quiescent_since(epoch));
        t.reset_update_count();
        assert_eq!(t.updates_since_reset(), 0);
    }

    #[test]
    fn tokens_are_unique() {
        let q = QuiescenceTracker::new();
        let a = q.register();
        let b = q.register();
        assert_ne!(a, b);
        assert_eq!(q.thread_count(), 2);
    }
}
