//! The Bary/Tary ID tables and the two table transactions (paper §5).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use mcfi_chaos::{ChaosInjector, FaultPoint};
use parking_lot::Mutex;

use crate::error::{CfiViolation, CheckError, CheckStalled, ViolationKind};
use crate::id::{Ecn, Id, Version, VERSION_LIMIT};
use crate::sync::{
    new_mutex, AtomicBoolOps, AtomicU32Ops, AtomicU64Ops, LockGuard, MutexOps, StdSync,
    SyncFacade,
};

/// Sizing for a pair of ID tables.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TablesConfig {
    /// Size of the code region in bytes. The Tary table has one 4-byte
    /// entry per 4-byte-aligned code address, so it is exactly as large as
    /// the code region (the paper's space optimization, §5.1).
    pub code_size: usize,
    /// Number of Bary slots: one per indirect-branch location. The loader
    /// patches the constant slot index into each branch's check sequence,
    /// so the Bary table needs no entries for non-branch addresses.
    pub bary_slots: usize,
}

/// Statistics returned by an update transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct UpdateStats {
    /// Version installed by this update.
    pub version: u32,
    /// Number of Tary entries holding a valid ID after the update.
    pub tary_targets: usize,
    /// Number of Bary slots holding a valid ID after the update.
    pub bary_branches: usize,
    /// Total update transactions executed so far (ABA mitigation counter).
    pub updates_since_reset: u64,
    /// Whether the transaction ran to completion. `false` only when an
    /// armed fault plan aborted it partway (the updater "crashed"),
    /// leaving the tables in the mixed-version window.
    pub completed: bool,
}

/// Retry discipline for [`IdTables::check_bounded`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetryConfig {
    /// After every `escalate_after` fruitless retries the checker stops
    /// trusting the updater: it attempts the update lock and, if it gets
    /// it, repairs any abandoned transaction itself.
    pub escalate_after: u64,
    /// Total retry budget before the check gives up with
    /// [`CheckStalled`]. A live updater's mixed-version window lasts one
    /// Bary phase, far below this.
    pub max_retries: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig { escalate_after: 64, max_retries: 4096 }
    }
}

/// Snapshot of the check-transaction resilience counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TxCounters {
    /// Check retries caused by version skew (a concurrent update).
    pub retries: u64,
    /// Escalations: a bounded check exceeded `escalate_after` retries and
    /// reached for the update lock.
    pub escalations: u64,
    /// Abandoned transactions repaired by completing the Bary phase.
    pub repairs: u64,
    /// Repairs initiated by the updater-lease watchdog: an expired lease
    /// detected by [`IdTablesAt::watchdog_poll`] whose repair pass ran.
    pub lease_repairs: u64,
}

/// An updater lease: how update transactions stamp their deadline.
///
/// When configured via [`IdTablesAt::set_lease`], every update path
/// stamps `clock + duration` into the lease-deadline word *immediately
/// after acquiring the update lock* and clears it on completion. A
/// crashed or wedged updater leaves the stamp behind, so a watchdog can
/// detect the abandoned transaction by deadline expiry — without
/// waiting for a checker to trip over the mixed-version window.
///
/// The clock is a plain monotonic counter supplied by the embedder (the
/// runtime uses its simulated cycle counter), so lease expiry is as
/// deterministic as the rest of the system.
#[derive(Clone, Debug)]
pub struct LeaseConfig {
    /// The monotonic clock deadlines are stamped against.
    pub clock: Arc<AtomicU64>,
    /// Lease duration, in ticks of `clock`.
    pub duration: u64,
}

/// What [`IdTablesAt::watchdog_poll`] found.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WatchdogVerdict {
    /// No lease outstanding: no update transaction is in flight.
    Clean,
    /// A lease is outstanding and has not expired — a live updater is
    /// (presumably) mid-transaction; leave it alone.
    LeaseActive,
    /// The lease expired and the update lock was free: the updater died
    /// mid-transaction. The watchdog ran the repair pass; `repaired`
    /// reports whether any entry was actually stale.
    Healed {
        /// Whether the repair pass found (and fixed) stale IDs.
        repaired: bool,
    },
    /// The lease expired but the update lock is still held — a wedged
    /// (stalled, not dead) updater. The watchdog cannot safely repair;
    /// callers should escalate (e.g. keep polling, or give up with a
    /// stall diagnosis as bounded checks do).
    Wedged,
}

/// The MCFI runtime ID tables, generic over the [`SyncFacade`] whose
/// primitives carry the table protocol.
///
/// Production code uses the [`IdTables`] alias (`S = `[`StdSync`]),
/// which monomorphizes to exactly the pre-facade code. The
/// `mcfi-modelcheck` crate instantiates the same protocol over shadow
/// primitives whose every access is a schedule point.
///
/// Shared between executing threads (which run check transactions) and the
/// dynamic linker (which runs update transactions); all methods take
/// `&self` and the type is `Sync`.
#[derive(Debug)]
pub struct IdTablesAt<S: SyncFacade = StdSync> {
    tary: Vec<S::AtomicU32>,
    bary: Vec<S::AtomicU32>,
    /// The transaction-protocol head (version, update lock, lease,
    /// publication epoch, shard registry). Private tables own their core
    /// exclusively; every shard of a shared image — the base and all
    /// per-process deltas — holds the *same* core, so one version space
    /// and one update lock govern the whole image.
    core: Arc<ProtocolCore<S>>,
    /// The shared-image base these tables layer over, if any. `None`
    /// for private tables and for an image's base itself. When set, a
    /// zero word in this shard falls through to the base's word at the
    /// same index — the entry-granularity copy-on-write delta.
    base: Option<Arc<IdTablesAt<S>>>,
    /// Count of check-transaction retries, for instrumentation/benchmarks.
    ///
    /// This and the three counters below are instrumentation, not
    /// protocol state — no check or update *decision* reads them — so
    /// they stay on plain `std` atomics (never schedule points under the
    /// model checker) and they stay *per shard*: each attached process
    /// observes its own retry/escalation/repair activity even though the
    /// protocol state is image-wide.
    retries: AtomicU64,
    /// Count of bounded-check escalations to the update lock.
    escalations: AtomicU64,
    /// Count of abandoned transactions repaired by a checker.
    repairs: AtomicU64,
    /// Count of repairs initiated by the lease watchdog.
    lease_repairs: AtomicU64,
    /// Fast disarmed-path gate for fault injection: a single relaxed load
    /// on the *update* paths (check fast paths are never instrumented).
    /// Per shard, so fleet tenants attached to one image keep independent
    /// fault plans.
    chaos_armed: AtomicBool,
    /// The armed fault plan, if any.
    chaos: Mutex<Option<Arc<ChaosInjector>>>,
}

/// The protocol head one update transaction serializes on: shared via
/// `Arc` between every shard of a shared image (base + deltas), owned
/// exclusively by a private table.
#[derive(Debug)]
pub(crate) struct ProtocolCore<S: SyncFacade> {
    /// Global version, bumped (mod 2^14) by every update transaction.
    version: S::AtomicU32,
    /// Serializes update transactions (they are rare; concurrency among
    /// updates buys nothing — paper §5.2).
    update_lock: S::Mutex<()>,
    /// Set when an update transaction was abandoned between its phases
    /// (updater crash / poisoned `SplitBump`); cleared by repair.
    abandoned: S::AtomicBool,
    /// The updater-lease deadline (0 = no lease outstanding). Stamped on
    /// lock acquire and cleared on completion by every update path when a
    /// [`LeaseConfig`] is installed; protocol state (the watchdog's
    /// heal/leave-alone decision reads it), so it lives on the facade and
    /// is a schedule point under the model checker.
    lease_deadline: S::AtomicU64,
    /// Publication epoch: a 64-bit monotonic count of *committed*
    /// transactions against this core (it never wraps, unlike the 14-bit
    /// version). Attached processes compare it against the value they
    /// cached to notice that a batched update has retargeted them.
    epoch: S::AtomicU64,
    /// Count of updates since the last quiescent reset, for ABA
    /// detection. Core-wide: the 2^14-updates-per-check hazard counts
    /// every transaction in the shared version space, whichever shard
    /// ran it.
    update_count: AtomicU64,
    /// The installed lease configuration, if any. Like `chaos`, this is
    /// configuration (read under a plain mutex, never a schedule point);
    /// only the deadline word above is protocol state.
    lease: Mutex<Option<LeaseConfig>>,
    /// Every live shard stamped by this core's transactions: the image
    /// base first, then per-process deltas in attach order. Empty for a
    /// private table (transactions then write just their own arrays).
    /// Mutated only under the update lock (plain mutex: registry edits
    /// are bookkeeping, not schedule points — the *lock acquisition*
    /// racing an update is what the model checker explores).
    shards: Mutex<Vec<Weak<IdTablesAt<S>>>>,
}

impl<S: SyncFacade> ProtocolCore<S> {
    pub(crate) fn new() -> Self {
        ProtocolCore {
            version: <S::AtomicU32 as AtomicU32Ops>::new(0),
            update_lock: new_mutex::<S, ()>(()),
            abandoned: <S::AtomicBool as AtomicBoolOps>::new(false),
            lease_deadline: <S::AtomicU64 as AtomicU64Ops>::new(0),
            epoch: <S::AtomicU64 as AtomicU64Ops>::new(0),
            update_count: AtomicU64::new(0),
            lease: Mutex::new(None),
            shards: Mutex::new(Vec::new()),
        }
    }
}

/// The copy-on-write revocation sentinel a delta shard stores where its
/// process's policy has *no* target but the shared base has one. Nonzero
/// (so it does not fall through to the base) yet an invalid ID (byte 0's
/// reserved bit is 0), so a check lands on [`ViolationKind::NotATarget`]
/// — exactly what a private table's all-zero entry produces. Version
/// re-stamps skip it like any other invalid word.
///
/// The value keeps the reserved bit (bit 0) of *every* byte clear, not
/// just byte 0's: a misaligned Tary read straddles two entries, and the
/// straddle-proof ("unaligned reads cannot forge validity", see
/// `crate::id` proptests) rests on aligned byte 0 of a valid ID being
/// the only byte in the region with its low bit set. A sentinel like
/// `0x0000_0100` would break that — its `0x01` byte could land at
/// straddle position 0 next to zero bytes and reconstruct the valid
/// word `0x0000_0001`.
pub(crate) const TOMBSTONE: u32 = 0x0000_0002;

/// The shard list one update transaction writes, resolved under the
/// update lock: just the transacting table itself for a private table,
/// or every live registered shard (base first, then deltas in attach
/// order) for a shared image.
enum TxShards<'a, S: SyncFacade> {
    Own(&'a IdTablesAt<S>),
    Shared(Vec<Arc<IdTablesAt<S>>>),
}

impl<S: SyncFacade> TxShards<'_, S> {
    fn list(&self) -> Vec<&IdTablesAt<S>> {
        match self {
            TxShards::Own(t) => vec![t],
            TxShards::Shared(v) => v.iter().map(|a| &**a).collect(),
        }
    }
}

/// The production MCFI runtime ID tables (see [`IdTablesAt`]).
pub type IdTables = IdTablesAt<StdSync>;

impl<S: SyncFacade> IdTablesAt<S> {
    /// Allocates zeroed tables: initially *no* address is a legal
    /// indirect-branch target, matching a freshly reserved table region.
    pub fn new(config: TablesConfig) -> Self {
        Self::with_core(config, Arc::new(ProtocolCore::new()), None)
    }

    /// Allocates a zeroed shard bound to an existing protocol core —
    /// the constructor [`crate::SharedTablesAt`] uses for the image base
    /// and for per-process deltas.
    pub(crate) fn with_core(
        config: TablesConfig,
        core: Arc<ProtocolCore<S>>,
        base: Option<Arc<IdTablesAt<S>>>,
    ) -> Self {
        let entries = config.code_size.div_ceil(4);
        IdTablesAt {
            tary: (0..entries).map(|_| <S::AtomicU32 as AtomicU32Ops>::new(0)).collect(),
            bary: (0..config.bary_slots)
                .map(|_| <S::AtomicU32 as AtomicU32Ops>::new(0))
                .collect(),
            core,
            base,
            retries: AtomicU64::new(0),
            escalations: AtomicU64::new(0),
            repairs: AtomicU64::new(0),
            lease_repairs: AtomicU64::new(0),
            chaos_armed: AtomicBool::new(false),
            chaos: Mutex::new(None),
        }
    }

    /// Whether these tables are a per-process delta attached to a shared
    /// image base (as opposed to a private table or the base itself).
    pub fn is_delta(&self) -> bool {
        self.base.is_some()
    }

    /// The publication epoch: a 64-bit monotonic count of committed
    /// transactions against this table's protocol core. For shared-image
    /// shards the count is image-wide, so an attached process can detect
    /// a batched retarget by comparing against a cached value.
    pub fn publication_epoch(&self) -> u64 {
        self.core.epoch.load(Ordering::Acquire)
    }

    /// The sizing these tables were allocated with.
    pub fn config(&self) -> TablesConfig {
        TablesConfig { code_size: self.tary.len() * 4, bary_slots: self.bary.len() }
    }

    /// Resolves the shard set a transaction must write; callers hold the
    /// update lock (so the registry cannot change underneath). Dead
    /// shards (detached processes) are pruned on the way.
    fn tx_shards(&self) -> TxShards<'_, S> {
        let mut reg = self.core.shards.lock();
        if reg.is_empty() {
            return TxShards::Own(self);
        }
        reg.retain(|w| w.strong_count() > 0);
        let live: Vec<Arc<IdTablesAt<S>>> = reg.iter().filter_map(Weak::upgrade).collect();
        drop(reg);
        if live.is_empty() {
            TxShards::Own(self)
        } else {
            TxShards::Shared(live)
        }
    }

    /// Registers `shard` with this table's core. Callers hold the update
    /// lock except the deliberately buggy stale-attach test seam.
    pub(crate) fn register_shard(self: &Arc<Self>) {
        self.core.shards.lock().push(Arc::downgrade(self));
    }

    /// Number of live shards registered with the core (0 for a private
    /// table: its registry is empty and transactions write only itself).
    pub(crate) fn live_shards(&self) -> usize {
        self.core.shards.lock().iter().filter(|w| w.strong_count() > 0).count()
    }

    /// Marks one committed transaction: bumps the core-wide update count
    /// (ABA mitigation) and the publication epoch.
    fn commit_tx(&self) -> u64 {
        let updates = self.core.update_count.fetch_add(1, Ordering::Relaxed) + 1;
        self.core.epoch.fetch_add(1, Ordering::Release);
        updates
    }

    /// Attaches a fresh all-zero delta shard layered over `self` (the
    /// image base): every entry falls through, so the new shard observes
    /// exactly the base policy from its first load. The registration is
    /// serialized against update transactions by the update lock — the
    /// publication protocol's correctness hinges on this (see the
    /// deliberately buggy seam below for what the race costs).
    pub(crate) fn attach_delta(self: &Arc<Self>) -> Arc<IdTablesAt<S>> {
        let _guard = self.core.update_lock.lock();
        let delta = Arc::new(IdTablesAt::with_core(
            self.config(),
            Arc::clone(&self.core),
            Some(Arc::clone(self)),
        ));
        delta.register_shard();
        delta
    }

    /// **Deliberately buggy** attach that reads the image version
    /// *without* the update lock, materializes the base's policy into the
    /// delta stamped with that version, and only then registers. An
    /// update transaction completing between the unlocked version read
    /// and the registration sweeps the registry without this shard — the
    /// delta then publishes stale-version words that *mask* the freshly
    /// restamped base, so the attached process silently missed a batched
    /// retarget. Test seam for the model checker's stale-epoch seeded-bug
    /// canary; nothing else may call it.
    #[doc(hidden)]
    pub fn attach_prestamped_stale_for_tests(self: &Arc<Self>) -> Arc<IdTablesAt<S>> {
        // BUG: no update lock held across the read + copy + register.
        let stale =
            Version::new(self.core.version.load(Ordering::Acquire) % VERSION_LIMIT);
        let delta = Arc::new(IdTablesAt::with_core(
            self.config(),
            Arc::clone(&self.core),
            Some(Arc::clone(self)),
        ));
        for (i, slot) in delta.tary.iter().enumerate() {
            if let Some(id) = Id::from_word(self.raw_tary_word(i)) {
                slot.store(Id::encode(id.ecn(), stale).word(), Ordering::Relaxed);
            }
        }
        for (s, slot) in delta.bary.iter().enumerate() {
            if let Some(id) = Id::from_word(self.raw_bary_word(s)) {
                slot.store(Id::encode(id.ecn(), stale).word(), Ordering::Release);
            }
        }
        delta.register_shard();
        delta
    }

    /// Arms a fault-injection plan: subsequent update transactions pass
    /// through the plan's instrumented points. Testing machinery —
    /// production configurations never call this, and the disarmed cost
    /// is one relaxed atomic load per *update* transaction.
    pub fn arm_chaos(&self, injector: Arc<ChaosInjector>) {
        *self.chaos.lock() = Some(injector);
        self.chaos_armed.store(true, Ordering::Release);
    }

    /// Disarms fault injection.
    pub fn disarm_chaos(&self) {
        self.chaos_armed.store(false, Ordering::Release);
        *self.chaos.lock() = None;
    }

    /// Reaches instrumented point `point`; returns the planned fault's
    /// parameter when one fires on this occurrence.
    #[inline]
    fn chaos_fire(&self, point: FaultPoint) -> Option<u64> {
        if !self.chaos_armed.load(Ordering::Relaxed) {
            return None;
        }
        self.chaos.lock().as_ref().and_then(|c| c.fire(point))
    }

    /// Warps the global version counter close to the 14-bit limit when a
    /// `version-warp` fault fires. Called at the head of every update
    /// path, under the update lock and *before* the version bump — the
    /// update then restamps every entry, so no skew is introduced, but
    /// the next few updates exercise the wraparound.
    fn chaos_warp_version(&self) {
        if let Some(distance) = self.chaos_fire(FaultPoint::VersionWarp) {
            let warped = (VERSION_LIMIT - 1).saturating_sub(distance as u32 % VERSION_LIMIT);
            self.core.version.store(warped, Ordering::Release);
        }
    }

    /// The current global version number.
    pub fn current_version(&self) -> Version {
        Version::new(self.core.version.load(Ordering::Acquire) % VERSION_LIMIT)
    }

    /// Number of Tary entries (4-byte-aligned code addresses covered).
    pub fn tary_len(&self) -> usize {
        self.tary.len()
    }

    /// Number of Bary slots.
    pub fn bary_len(&self) -> usize {
        self.bary.len()
    }

    /// Total check-transaction retries observed (version-mismatch loops).
    pub fn retry_count(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Total bounded-check escalations to the update lock.
    pub fn escalation_count(&self) -> u64 {
        self.escalations.load(Ordering::Relaxed)
    }

    /// Total abandoned transactions repaired by checkers or
    /// [`IdTables::repair_abandoned`].
    pub fn repair_count(&self) -> u64 {
        self.repairs.load(Ordering::Relaxed)
    }

    /// Total repairs initiated by the lease watchdog
    /// ([`IdTablesAt::watchdog_poll`] on an expired lease).
    pub fn lease_repair_count(&self) -> u64 {
        self.lease_repairs.load(Ordering::Relaxed)
    }

    /// Snapshot of all resilience counters at once.
    pub fn tx_counters(&self) -> TxCounters {
        TxCounters {
            retries: self.retries.load(Ordering::Relaxed),
            escalations: self.escalations.load(Ordering::Relaxed),
            repairs: self.repairs.load(Ordering::Relaxed),
            lease_repairs: self.lease_repairs.load(Ordering::Relaxed),
        }
    }

    /// Installs an updater lease: from now on every update transaction
    /// stamps `clock + duration` into the lease-deadline word on lock
    /// acquire and clears it on completion, making an abandoned
    /// transaction detectable by deadline expiry
    /// ([`IdTablesAt::watchdog_poll`]). Without a configured lease the
    /// deadline word is never touched, so the disarmed cost is one plain
    /// mutex check per (rare) update transaction.
    pub fn set_lease(&self, config: LeaseConfig) {
        *self.core.lease.lock() = Some(config);
    }

    /// Removes the lease configuration and clears any outstanding stamp.
    pub fn clear_lease(&self) {
        let was = self.core.lease.lock().take();
        if was.is_some() {
            self.core.lease_deadline.store(0, Ordering::Release);
        }
    }

    /// The currently stamped lease deadline (0 = no lease outstanding).
    pub fn lease_deadline(&self) -> u64 {
        self.core.lease_deadline.load(Ordering::Acquire)
    }

    /// The updater watchdog: checks the lease stamp against `now` and
    /// heals an expired (abandoned) transaction via the repair pass.
    ///
    /// * no stamp → [`WatchdogVerdict::Clean`];
    /// * unexpired stamp → [`WatchdogVerdict::LeaseActive`] (a live
    ///   updater is mid-transaction — leave it alone);
    /// * expired stamp, lock free → the updater died: run
    ///   [`IdTablesAt::repair_abandoned`]'s repair pass under the lock,
    ///   clear the stamp, count a lease repair →
    ///   [`WatchdogVerdict::Healed`];
    /// * expired stamp, lock held → the updater is wedged (e.g. an
    ///   injected `updater-stall`): repair is not safe while it may still
    ///   write → [`WatchdogVerdict::Wedged`].
    ///
    /// This is how a supervisor detects a crashed updater *proactively* —
    /// the pre-existing escalation path in [`IdTablesAt::check_bounded`]
    /// only fires once a guest check actually trips over the skewed
    /// window.
    pub fn watchdog_poll(&self, now: u64) -> WatchdogVerdict {
        let deadline = self.core.lease_deadline.load(Ordering::Acquire);
        if deadline == 0 {
            return WatchdogVerdict::Clean;
        }
        if now < deadline {
            return WatchdogVerdict::LeaseActive;
        }
        match self.core.update_lock.try_lock() {
            Some(guard) => {
                let repaired = self.repair_locked(&guard);
                self.lease_repairs.fetch_add(1, Ordering::Relaxed);
                WatchdogVerdict::Healed { repaired }
            }
            None => WatchdogVerdict::Wedged,
        }
    }

    /// Stamps the lease deadline; called immediately after every update
    /// path acquires the update lock. No-op without a [`LeaseConfig`].
    fn stamp_lease(&self) {
        let config = self.core.lease.lock().clone();
        if let Some(config) = config {
            let deadline =
                config.clock.load(Ordering::Relaxed).saturating_add(config.duration).max(1);
            self.core.lease_deadline.store(deadline, Ordering::Release);
        }
    }

    /// Clears the lease stamp; called when an update path completes (still
    /// under the update lock). Crash paths deliberately skip this — the
    /// surviving stamp is what the watchdog detects.
    fn clear_lease_stamp(&self) {
        if self.core.lease.lock().is_some() {
            self.core.lease_deadline.store(0, Ordering::Release);
        }
    }

    /// Whether an update transaction is known to have been abandoned
    /// between its phases and not yet repaired.
    pub fn has_abandoned(&self) -> bool {
        self.core.abandoned.load(Ordering::Acquire)
    }

    /// The effective Bary word at `slot`: this shard's own entry, or —
    /// when the entry is 0 and a shared base is attached — the base's.
    /// Panics on an out-of-range slot like direct indexing does.
    #[inline]
    fn bary_word_at(&self, slot: usize) -> u32 {
        let own = self.bary[slot].load(Ordering::Acquire);
        if own != 0 {
            return own;
        }
        match &self.base {
            Some(b) => b.bary.get(slot).map_or(0, |s| s.load(Ordering::Acquire)),
            None => 0,
        }
    }

    /// The effective aligned Tary word at entry `idx` (covering code
    /// address `4*idx`): own entry, or the base's when own is 0. Returns
    /// 0 out of range.
    #[inline]
    fn tary_word_at(&self, idx: usize) -> u32 {
        let own = match self.tary.get(idx) {
            Some(slot) => slot.load(Ordering::Acquire),
            None => return 0,
        };
        if own != 0 {
            return own;
        }
        match &self.base {
            Some(b) => b.tary.get(idx).map_or(0, |s| s.load(Ordering::Acquire)),
            None => 0,
        }
    }

    /// The `TxCheck` transaction (paper Fig. 4) for the indirect branch
    /// whose constant Bary slot is `bary_slot`, attempting to transfer
    /// control to `target`.
    ///
    /// Mirrors the machine sequence case by case:
    /// 1. equal words → transfer allowed (validity + version + ECN in one
    ///    comparison);
    /// 2. invalid target ID (unaligned target or all-zero entry) → `hlt`;
    /// 3. valid target ID, version differs → retry (a concurrent update);
    /// 4. valid, same version, different ECN → `hlt`.
    ///
    /// # Errors
    ///
    /// Returns the [`CfiViolation`] corresponding to cases 2 and 4.
    ///
    /// # Panics
    ///
    /// Panics if `bary_slot` is out of range — the loader embeds constant
    /// slot indexes, so an out-of-range slot is a loader bug, not a
    /// runtime condition.
    pub fn check(&self, bary_slot: usize, target: u64) -> Result<Ecn, CfiViolation> {
        loop {
            let branch_word = self.bary_word_at(bary_slot);
            let target_word = self.load_tary_word(target);
            if branch_word == target_word {
                // Case 1: single comparison completes all three checks.
                let id = Id::from_word(branch_word).expect("bary slots always hold valid ids");
                return Ok(id.ecn());
            }
            let Some(target_id) = Id::from_word(target_word) else {
                // Case 2: invalid target ID.
                let kind = if !target.is_multiple_of(4) {
                    ViolationKind::UnalignedTarget
                } else {
                    ViolationKind::NotATarget
                };
                return Err(CfiViolation { bary_slot, target, kind });
            };
            let branch_id =
                Id::from_word(branch_word).expect("bary slots always hold valid ids");
            if branch_id.version() != target_id.version() {
                // Case 3: an update transaction is in flight; retry.
                self.retries.fetch_add(1, Ordering::Relaxed);
                S::spin_hint();
                continue;
            }
            // Case 4: same version, different equivalence class.
            return Err(CfiViolation {
                bary_slot,
                target,
                kind: ViolationKind::EcnMismatch {
                    branch: branch_id.ecn(),
                    target: target_id.ecn(),
                },
            });
        }
    }

    /// The `TxCheck` transaction with a *bounded* retry loop (the
    /// deployable variant of [`IdTables::check`]).
    ///
    /// [`IdTables::check`] encodes the paper's trust model: update
    /// transactions are run by the trusted dynamic linker and always
    /// finish, so retrying forever on version skew is fine. This variant
    /// drops that assumption. On version skew it:
    ///
    /// 1. retries with exponential backoff (capped at 2^10 spin hints),
    ///    which is all a live updater ever needs;
    /// 2. every `escalate_after` retries, *escalates*: it tries the
    ///    update lock, and — if the lock is free but the tables are still
    ///    skewed — repairs the abandoned transaction by completing its
    ///    Bary phase (see [`IdTables::repair_abandoned`]);
    /// 3. after `max_retries` total retries (lock still held by a wedged
    ///    updater), gives up with a diagnosable
    ///    [`CheckStalled`] instead of livelocking.
    ///
    /// # Errors
    ///
    /// [`CheckError::Violation`] mirrors [`IdTables::check`]'s error;
    /// [`CheckError::Stalled`] reports retry-budget exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if `bary_slot` is out of range, like [`IdTables::check`].
    pub fn check_bounded(
        &self,
        bary_slot: usize,
        target: u64,
        config: &RetryConfig,
    ) -> Result<Ecn, CheckError> {
        let mut retries: u64 = 0;
        loop {
            match self.check_once(bary_slot, target) {
                Some(Ok(ecn)) => return Ok(ecn),
                Some(Err(violation)) => return Err(CheckError::Violation(violation)),
                None => {}
            }
            retries += 1;
            if retries >= config.max_retries {
                return Err(CheckError::Stalled(CheckStalled { bary_slot, target, retries }));
            }
            if config.escalate_after > 0 && retries.is_multiple_of(config.escalate_after) {
                self.escalations.fetch_add(1, Ordering::Relaxed);
                if let Some(guard) = self.core.update_lock.try_lock() {
                    self.repair_locked(&guard);
                    continue; // re-check immediately after a repair pass
                }
                // Lock held: a (possibly stalled) updater is in flight.
            }
            for _ in 0..(1u64 << retries.min(10)) {
                S::spin_hint();
            }
        }
    }

    /// Detects and repairs an abandoned update transaction, returning
    /// whether any entry needed repair.
    ///
    /// An updater that dies between the Tary and Bary phases (a dropped,
    /// unfinished [`SplitBump`]; an injected `updater-crash`; a torn Tary
    /// stream) strands the tables in the mixed-version window: every
    /// check sees version skew forever. Because the in-flight transaction
    /// was a version re-stamp, its ECNs are intact — completing it is
    /// purely mechanical: re-stamp every stale ID (Tary, then a barrier,
    /// then Bary, the same phase discipline as the original transaction)
    /// with the already-installed global version. Checkers then see the
    /// wholly-new CFG, exactly as if the updater had finished, so
    /// linearizability is preserved.
    ///
    /// Blocks on the update lock; returns `false` without touching
    /// anything when the tables are already consistent.
    pub fn repair_abandoned(&self) -> bool {
        let guard = self.core.update_lock.lock();
        self.repair_locked(&guard)
    }

    /// The repair pass proper; requires the update lock. On a shared
    /// image the abandoned transaction had been sweeping *every* shard,
    /// so the repair sweeps them all too — same phase discipline.
    fn repair_locked(&self, _guard: &LockGuard<'_, S, ()>) -> bool {
        let version = Version::new(self.core.version.load(Ordering::Acquire) % VERSION_LIMIT);
        let shards = self.tx_shards();
        let shards = shards.list();
        let mut repaired = false;
        // Phase 1: finish the Tary side (a torn stream leaves stale
        // entries here too), preserving ECNs.
        for shard in &shards {
            for slot in &shard.tary {
                let word = slot.load(Ordering::Relaxed);
                if let Some(id) = Id::from_word(word) {
                    if id.version() != version {
                        repaired = true;
                        slot.store(Id::encode(id.ecn(), version).word(), Ordering::Relaxed);
                    }
                }
            }
        }
        S::fence(Ordering::SeqCst);
        // Phase 2: finish the Bary side.
        for shard in &shards {
            for slot in &shard.bary {
                let word = slot.load(Ordering::Relaxed);
                if let Some(id) = Id::from_word(word) {
                    if id.version() != version {
                        repaired = true;
                        slot.store(Id::encode(id.ecn(), version).word(), Ordering::Release);
                    }
                }
            }
        }
        if repaired {
            self.repairs.fetch_add(1, Ordering::Relaxed);
            self.commit_tx();
        }
        self.core.abandoned.store(false, Ordering::Release);
        // The repair completed the abandoned transaction, so its lease —
        // the stamp of the updater that died — is discharged too.
        self.clear_lease_stamp();
        repaired
    }

    /// Performs a *single* speculative check attempt without retrying.
    ///
    /// Returns `None` when the two IDs disagree only in version (the caller
    /// — e.g. a PLT-entry check that must reload its target from the GOT
    /// between retries, paper §5.2 — decides how to retry).
    pub fn check_once(
        &self,
        bary_slot: usize,
        target: u64,
    ) -> Option<Result<Ecn, CfiViolation>> {
        let branch_word = self.bary_word_at(bary_slot);
        let target_word = self.load_tary_word(target);
        if branch_word == target_word {
            let id = Id::from_word(branch_word).expect("bary slots always hold valid ids");
            return Some(Ok(id.ecn()));
        }
        let Some(target_id) = Id::from_word(target_word) else {
            let kind = if !target.is_multiple_of(4) {
                ViolationKind::UnalignedTarget
            } else {
                ViolationKind::NotATarget
            };
            return Some(Err(CfiViolation { bary_slot, target, kind }));
        };
        let branch_id = Id::from_word(branch_word).expect("bary slots always hold valid ids");
        if branch_id.version() != target_id.version() {
            self.retries.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        Some(Err(CfiViolation {
            bary_slot,
            target,
            kind: ViolationKind::EcnMismatch {
                branch: branch_id.ecn(),
                target: target_id.ecn(),
            },
        }))
    }

    /// The raw 4-byte word the hardware would load from the Tary region
    /// for `target` — what the VM's `TaryLoad` instruction reads.
    /// Misaligned targets observe a word straddling two IDs.
    #[inline]
    pub fn tary_word(&self, target: u64) -> u32 {
        self.load_tary_word(target)
    }

    /// The raw word in Bary slot `slot` — what `BaryLoad` reads (through
    /// the delta layering when attached to a shared image). Returns 0
    /// (an invalid ID) for out-of-range slots.
    #[inline]
    pub fn bary_word(&self, slot: usize) -> u32 {
        if slot >= self.bary.len() {
            return 0;
        }
        self.bary_word_at(slot)
    }

    /// The `TxUpdate` transaction (paper Fig. 3).
    ///
    /// `tary_ecn(addr)` plays the paper's `getTaryECN`: the ECN of code
    /// address `addr` under the *new* CFG, or `None` if `addr` is not a
    /// possible indirect-branch target. `bary_ecn(slot)` plays
    /// `getBaryECN` for Bary slot indexes.
    ///
    /// The transaction acquires the global update lock, increments the
    /// global version, rewrites every Tary entry (the `movnti` parallel
    /// copy), issues a memory barrier, and only then rewrites the Bary
    /// table — so a concurrent check observes either the old version in
    /// both tables or the new version in both, never a mix that validates.
    pub fn update(
        &self,
        tary_ecn: impl Fn(u64) -> Option<u32>,
        bary_ecn: impl Fn(usize) -> Option<u32>,
    ) -> UpdateStats {
        self.update_with(tary_ecn, bary_ecn, || {})
    }

    /// Like [`IdTables::update`], but runs `between` after the Tary phase
    /// and its barrier, before the Bary phase. The dynamic linker uses
    /// this to adjust GOT entries: "such GOT entry updates are inserted
    /// between line 5 and 6 in Fig. 3 and serialized by another memory
    /// write barrier" (paper §5.2).
    pub fn update_with(
        &self,
        tary_ecn: impl Fn(u64) -> Option<u32>,
        bary_ecn: impl Fn(usize) -> Option<u32>,
        between: impl FnOnce(),
    ) -> UpdateStats {
        let _guard = self.core.update_lock.lock();
        self.stamp_lease();
        self.chaos_warp_version();
        let next = (self.core.version.load(Ordering::Relaxed) + 1) % VERSION_LIMIT;
        self.core.version.store(next, Ordering::Release);
        let version = Version::new(next);
        let shards = self.tx_shards();
        let shards = shards.list();

        // Phase 1: construct and install the new Tary table. Entry i
        // covers code address 4*i. Plain per-entry atomic stores model the
        // weak-ordered movnti copy: each ID update is individually atomic.
        // On a shared image this is the batched half of the transaction:
        // the transacting shard installs its new policy (delta-diffed
        // against the base when attached), every sibling shard is
        // re-stamped in place — one version bump retargets them all. The
        // base is always first in the shard list, so a delta's diff
        // compares against already-restamped base words.
        let mut tary_targets = 0;
        for shard in &shards {
            if std::ptr::eq(*shard, self) {
                tary_targets = self.install_tary(&tary_ecn, version);
            } else {
                shard.restamp_tary(version);
            }
        }

        // The memory write barrier separating the two phases (Fig. 3 line
        // 5): all Tary writes become visible before any Bary write.
        S::fence(Ordering::SeqCst);

        // GOT adjustments and similar linker work, serialized by another
        // write barrier (§5.2).
        between();
        S::fence(Ordering::SeqCst);

        // An injected `updater-stall` wedges the updater here — lock
        // held, tables version-skewed — for `param` microseconds.
        // Concurrent bounded checks must ride it out by retrying.
        if let Some(micros) = self.chaos_fire(FaultPoint::UpdaterStall) {
            std::thread::sleep(std::time::Duration::from_micros(micros));
        }

        // Phase 2: rewrite the Bary table.
        let mut bary_branches = 0;
        for shard in &shards {
            if std::ptr::eq(*shard, self) {
                bary_branches = self.install_bary(&bary_ecn, version);
            } else {
                shard.restamp_bary(version);
            }
        }

        self.clear_lease_stamp();
        let updates = self.commit_tx();
        UpdateStats {
            version: next,
            tary_targets,
            bary_branches,
            updates_since_reset: updates,
            completed: true,
        }
    }

    /// The Tary install loop of an update transaction: writes this
    /// shard's new policy words. A private table (or the image base)
    /// stores the encoded IDs directly; a delta shard diffs against the
    /// base — equal words compress to 0 (fall through), revoked base
    /// targets get the [`TOMBSTONE`]. Returns the policy's target count.
    fn install_tary(&self, tary_ecn: &impl Fn(u64) -> Option<u32>, version: Version) -> usize {
        let mut targets = 0;
        for (i, slot) in self.tary.iter().enumerate() {
            let word = match tary_ecn((i as u64) * 4) {
                Some(ecn) => {
                    targets += 1;
                    let encoded = Id::encode(Ecn::new(ecn), version).word();
                    match &self.base {
                        Some(b) if b.raw_tary_word(i) == encoded => 0,
                        _ => encoded,
                    }
                }
                None => match &self.base {
                    Some(b) if b.raw_tary_word(i) != 0 => TOMBSTONE,
                    _ => 0,
                },
            };
            slot.store(word, Ordering::Relaxed);
        }
        targets
    }

    /// The Bary install loop (phase 2 counterpart of
    /// [`IdTablesAt::install_tary`]); Release stores as in Fig. 3.
    fn install_bary(&self, bary_ecn: &impl Fn(usize) -> Option<u32>, version: Version) -> usize {
        let mut branches = 0;
        for (slot_idx, slot) in self.bary.iter().enumerate() {
            let word = match bary_ecn(slot_idx) {
                Some(ecn) => {
                    branches += 1;
                    let encoded = Id::encode(Ecn::new(ecn), version).word();
                    match &self.base {
                        Some(b) if b.raw_bary_word(slot_idx) == encoded => 0,
                        _ => encoded,
                    }
                }
                None => match &self.base {
                    Some(b) if b.raw_bary_word(slot_idx) != 0 => TOMBSTONE,
                    _ => 0,
                },
            };
            slot.store(word, Ordering::Release);
        }
        branches
    }

    /// Re-stamps this shard's existing valid Tary IDs to `version`
    /// (preserving ECNs); zeros and tombstones pass through untouched.
    fn restamp_tary(&self, version: Version) -> usize {
        let mut stamped = 0;
        for slot in &self.tary {
            if let Some(id) = Id::from_word(slot.load(Ordering::Relaxed)) {
                stamped += 1;
                slot.store(Id::encode(id.ecn(), version).word(), Ordering::Relaxed);
            }
        }
        stamped
    }

    /// Bary-side counterpart of [`IdTablesAt::restamp_tary`].
    fn restamp_bary(&self, version: Version) -> usize {
        let mut stamped = 0;
        for slot in &self.bary {
            if let Some(id) = Id::from_word(slot.load(Ordering::Relaxed)) {
                stamped += 1;
                slot.store(Id::encode(id.ecn(), version).word(), Ordering::Release);
            }
        }
        stamped
    }

    /// This shard's *own* stored Tary word (no delta fallthrough); 0 out
    /// of range. What a delta's install diff reads from the base.
    #[inline]
    fn raw_tary_word(&self, idx: usize) -> u32 {
        self.tary.get(idx).map_or(0, |s| s.load(Ordering::Relaxed))
    }

    /// This shard's *own* stored Bary word; 0 out of range.
    #[inline]
    fn raw_bary_word(&self, slot: usize) -> u32 {
        self.bary.get(slot).map_or(0, |s| s.load(Ordering::Relaxed))
    }

    /// Re-stamps every existing ID with a fresh version, preserving ECNs.
    ///
    /// This is exactly the simulation workload of the paper's Fig. 6
    /// experiment: the 50 Hz updater thread "performs an update transaction
    /// that updates the version numbers of all IDs in the ID tables (but
    /// preserving the ECNs)".
    pub fn bump_version(&self) -> UpdateStats {
        self.restamp(0, std::time::Duration::ZERO)
    }

    /// Like [`IdTables::bump_version`], but paced: sleeps `pause` after
    /// every `chunk` entries. This models an updater running at the same
    /// (simulated) clock as the checking threads rather than at native
    /// host speed — the table rewrite of the paper's Fig. 6 experiment
    /// takes time proportional to the table size *on the same machine*,
    /// so checks genuinely overlap the mixed-version window and retry.
    pub fn bump_version_paced(&self, chunk: usize, pause: std::time::Duration) -> UpdateStats {
        self.restamp(chunk, pause)
    }

    /// The version re-stamp all bump variants share. This is the path the
    /// crash-shaped faults (`updater-crash`, `torn-tary`) instrument:
    /// because a re-stamp preserves ECNs by construction, an abandoned one
    /// is always repairable by completing the Bary phase
    /// ([`IdTables::repair_abandoned`]) — unlike a CFG-changing
    /// [`IdTables::update`], whose unfinished half cannot be reconstructed.
    fn restamp(&self, chunk: usize, pause: std::time::Duration) -> UpdateStats {
        let _guard = self.core.update_lock.lock();
        self.stamp_lease();
        self.chaos_warp_version();
        let next = (self.core.version.load(Ordering::Relaxed) + 1) % VERSION_LIMIT;
        self.core.version.store(next, Ordering::Release);
        let version = Version::new(next);
        let torn_after = self.chaos_fire(FaultPoint::TornTary);
        let shards = self.tx_shards();
        let shards = shards.list();
        let mut tary_targets = 0;
        // `flat` indexes the concatenated Tary stream across shards, so a
        // `torn-tary` fault parameter addresses a tear point anywhere in
        // a shared image's sweep (and degenerates to the plain entry
        // index for a private table).
        let mut flat: u64 = 0;
        for shard in &shards {
            for (i, slot) in shard.tary.iter().enumerate() {
                if torn_after == Some(flat) {
                    // The Tary stream tears here: entries before `flat`
                    // carry the new version, the rest (and all of Bary)
                    // the old one.
                    self.core.abandoned.store(true, Ordering::Release);
                    return self.aborted_stats(next, tary_targets, 0);
                }
                flat += 1;
                let word = slot.load(Ordering::Relaxed);
                if let Some(id) = Id::from_word(word) {
                    tary_targets += 1;
                    slot.store(Id::encode(id.ecn(), version).word(), Ordering::Relaxed);
                }
                if chunk > 0 && i % chunk == chunk - 1 {
                    // Yield the core: on few-core hosts this is what lets
                    // the checking threads actually observe the mixed-
                    // version window, as they would on the paper's
                    // multicore machine.
                    std::thread::sleep(pause);
                }
            }
        }
        S::fence(Ordering::SeqCst);
        if self.chaos_fire(FaultPoint::UpdaterCrash).is_some() {
            // The updater dies between the phases: Tary wholly new,
            // Bary wholly old. The lock is released when the guard drops,
            // so an escalating checker can get in and repair.
            self.core.abandoned.store(true, Ordering::Release);
            return self.aborted_stats(next, tary_targets, 0);
        }
        if let Some(micros) = self.chaos_fire(FaultPoint::UpdaterStall) {
            std::thread::sleep(std::time::Duration::from_micros(micros));
        }
        let mut bary_branches = 0;
        for shard in &shards {
            bary_branches += shard.restamp_bary(version);
        }
        self.clear_lease_stamp();
        let updates = self.commit_tx();
        UpdateStats {
            version: next,
            tary_targets,
            bary_branches,
            updates_since_reset: updates,
            completed: true,
        }
    }

    /// Stats for a fault-aborted transaction (not counted as an update:
    /// it never committed).
    fn aborted_stats(&self, next: u32, tary_targets: usize, bary_branches: usize) -> UpdateStats {
        UpdateStats {
            version: next,
            tary_targets,
            bary_branches,
            updates_since_reset: self.core.update_count.load(Ordering::Relaxed),
            completed: false,
        }
    }

    /// Installs `raw % 2^14` as the global version and re-stamps every
    /// existing ID to it, preserving ECNs — both phases under the update
    /// lock with the usual barrier between them.
    ///
    /// This is the test seam for exercising version wraparound without
    /// executing 2^14 real transactions (the wide tables' 2^28 space
    /// makes that approach outright infeasible — see
    /// [`crate::wide::WideIdTables::force_version`]).
    pub fn force_version(&self, raw: u32) {
        let _guard = self.core.update_lock.lock();
        self.stamp_lease();
        let forced = raw % VERSION_LIMIT;
        self.core.version.store(forced, Ordering::Release);
        let version = Version::new(forced);
        let shards = self.tx_shards();
        let shards = shards.list();
        for shard in &shards {
            shard.restamp_tary(version);
        }
        S::fence(Ordering::SeqCst);
        for shard in &shards {
            shard.restamp_bary(version);
        }
        self.clear_lease_stamp();
        self.commit_tx();
    }

    /// Begins a version re-stamp and returns after the **Tary phase**:
    /// all target IDs carry the new version while branch IDs still carry
    /// the old one, so every check transaction retries. Call
    /// [`SplitBump::finish`] to run the Bary phase and commit.
    ///
    /// The update lock is held by the returned guard, exactly as the real
    /// update transaction holds it across both phases.
    pub fn bump_version_split(&self) -> SplitBump<'_, S> {
        let guard = self.core.update_lock.lock();
        self.stamp_lease();
        self.chaos_warp_version();
        let next = (self.core.version.load(Ordering::Relaxed) + 1) % VERSION_LIMIT;
        self.core.version.store(next, Ordering::Release);
        let version = Version::new(next);
        // The registry cannot change while `guard` is held, so finish()
        // resolving the shard list again sees the same set.
        let shards = self.tx_shards();
        for shard in &shards.list() {
            shard.restamp_tary(version);
        }
        S::fence(Ordering::SeqCst);
        SplitBump { tables: self, version, finished: false, _guard: guard }
    }

    /// Number of update transactions since the last quiescent reset.
    ///
    /// Security is violated only if 2^14 updates complete during a single
    /// check transaction (§5.2); the runtime monitors this counter and
    /// resets it at quiescent points via [`IdTables::reset_update_count`].
    pub fn updates_since_reset(&self) -> u64 {
        self.core.update_count.load(Ordering::Relaxed)
    }

    /// Resets the ABA update counter once every thread has been observed at
    /// a quiescent point (e.g. a system call — paper §5.2).
    pub fn reset_update_count(&self) {
        self.core.update_count.store(0, Ordering::Relaxed);
    }

    /// Loads the 4-byte word the hardware would fetch from the Tary region
    /// for `target`, including the misaligned case where the word straddles
    /// two IDs (which is what defeats mid-ID targets).
    #[inline]
    fn load_tary_word(&self, target: u64) -> u32 {
        let byte = target as usize;
        let idx = byte / 4;
        let off = byte % 4;
        if idx >= self.tary.len() {
            return 0; // outside the code region: never a valid ID
        }
        // Each straddled entry resolves through the delta layering
        // *independently* — the hardware analogue is a copy-on-write
        // page mapping, where adjacent words can come from different
        // physical pages.
        let lo = self.tary_word_at(idx);
        if off == 0 {
            return lo;
        }
        let hi = self.tary_word_at(idx + 1);
        let mut bytes = [0u8; 8];
        bytes[..4].copy_from_slice(&lo.to_le_bytes());
        bytes[4..].copy_from_slice(&hi.to_le_bytes());
        u32::from_le_bytes(bytes[off..off + 4].try_into().expect("fixed width"))
    }

    /// A read-only snapshot view of the Tary table for diagnostics.
    pub fn tary_view(&self) -> TaryView<'_, S> {
        TaryView { tables: self }
    }

    /// **Deliberately buggy** version re-stamp that runs the **Bary phase
    /// first** — the phase-order inversion the Fig. 3 barrier exists to
    /// prevent. Test seam for the model checker's seeded-bug acceptance
    /// test (the phase-invariant oracle must catch it with a replayable
    /// trace); nothing else may call it.
    #[doc(hidden)]
    pub fn bump_version_bary_first_for_tests(&self) -> UpdateStats {
        let _guard = self.core.update_lock.lock();
        let next = (self.core.version.load(Ordering::Relaxed) + 1) % VERSION_LIMIT;
        self.core.version.store(next, Ordering::Release);
        let version = Version::new(next);
        let mut bary_branches = 0;
        for slot in &self.bary {
            if let Some(id) = Id::from_word(slot.load(Ordering::Relaxed)) {
                bary_branches += 1;
                slot.store(Id::encode(id.ecn(), version).word(), Ordering::Release);
            }
        }
        S::fence(Ordering::SeqCst);
        let mut tary_targets = 0;
        for slot in &self.tary {
            if let Some(id) = Id::from_word(slot.load(Ordering::Relaxed)) {
                tary_targets += 1;
                slot.store(Id::encode(id.ecn(), version).word(), Ordering::Relaxed);
            }
        }
        let updates = self.commit_tx();
        UpdateStats {
            version: next,
            tary_targets,
            bary_branches,
            updates_since_reset: updates,
            completed: true,
        }
    }

    /// **Deliberately buggy** CFG-changing update that **skips the version
    /// bump**: new ECNs are stamped with the *current* version, so a
    /// concurrent check can pair an old-CFG branch ID with a new-CFG
    /// target ID and validate an edge neither CFG allows. Test seam for
    /// the model checker's linearizability oracle; nothing else may call
    /// it.
    #[doc(hidden)]
    pub fn update_unversioned_for_tests(
        &self,
        tary_ecn: impl Fn(u64) -> Option<u32>,
        bary_ecn: impl Fn(usize) -> Option<u32>,
    ) -> UpdateStats {
        let _guard = self.core.update_lock.lock();
        let version = Version::new(self.core.version.load(Ordering::Relaxed) % VERSION_LIMIT);
        let mut tary_targets = 0;
        for (i, slot) in self.tary.iter().enumerate() {
            let word = match tary_ecn((i as u64) * 4) {
                Some(ecn) => {
                    tary_targets += 1;
                    Id::encode(Ecn::new(ecn), version).word()
                }
                None => 0,
            };
            slot.store(word, Ordering::Relaxed);
        }
        S::fence(Ordering::SeqCst);
        let mut bary_branches = 0;
        for (slot_idx, slot) in self.bary.iter().enumerate() {
            let word = match bary_ecn(slot_idx) {
                Some(ecn) => {
                    bary_branches += 1;
                    Id::encode(Ecn::new(ecn), version).word()
                }
                None => 0,
            };
            slot.store(word, Ordering::Release);
        }
        let updates = self.commit_tx();
        UpdateStats {
            version: version.raw(),
            tary_targets,
            bary_branches,
            updates_since_reset: updates,
            completed: true,
        }
    }

    /// **Deliberately buggy** version re-stamp that stamps the lease
    /// deadline only *after* the Tary phase instead of at lock acquire.
    /// An updater killed anywhere inside the Tary loop leaves skewed
    /// tables behind with *no* lease stamp, so the watchdog sees
    /// [`WatchdogVerdict::Clean`] and never heals — the wedge the
    /// stamp-at-acquire discipline exists to make detectable. Test seam
    /// for the model checker's lease seeded-bug canary (the crash-site
    /// sweep must catch it); nothing else may call it.
    #[doc(hidden)]
    pub fn bump_version_late_lease_for_tests(&self) -> UpdateStats {
        let _guard = self.core.update_lock.lock();
        let next = (self.core.version.load(Ordering::Relaxed) + 1) % VERSION_LIMIT;
        self.core.version.store(next, Ordering::Release);
        let version = Version::new(next);
        let mut tary_targets = 0;
        for slot in &self.tary {
            if let Some(id) = Id::from_word(slot.load(Ordering::Relaxed)) {
                tary_targets += 1;
                slot.store(Id::encode(id.ecn(), version).word(), Ordering::Relaxed);
            }
        }
        // BUG: the stamp lands here, after the Tary writes — a crash
        // above this line is invisible to the watchdog.
        self.stamp_lease();
        S::fence(Ordering::SeqCst);
        let mut bary_branches = 0;
        for slot in &self.bary {
            if let Some(id) = Id::from_word(slot.load(Ordering::Relaxed)) {
                bary_branches += 1;
                slot.store(Id::encode(id.ecn(), version).word(), Ordering::Release);
            }
        }
        self.clear_lease_stamp();
        let updates = self.commit_tx();
        UpdateStats {
            version: next,
            tary_targets,
            bary_branches,
            updates_since_reset: updates,
            completed: true,
        }
    }
}

/// An in-flight version re-stamp paused between its Tary and Bary
/// phases (see [`IdTables::bump_version_split`]). While this exists,
/// concurrent check transactions observe version skew and retry — the
/// deterministic harness for the paper's Fig. 6 experiment.
pub struct SplitBump<'a, S: SyncFacade = StdSync> {
    tables: &'a IdTablesAt<S>,
    version: Version,
    finished: bool,
    _guard: LockGuard<'a, S, ()>,
}

impl<S: SyncFacade> std::fmt::Debug for SplitBump<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SplitBump({})", self.version)
    }
}

impl<S: SyncFacade> SplitBump<'_, S> {
    /// Runs the Bary phase, committing the new version.
    pub fn finish(mut self) {
        let shards = self.tables.tx_shards();
        for shard in &shards.list() {
            shard.restamp_bary(self.version);
        }
        self.tables.clear_lease_stamp();
        self.tables.commit_tx();
        self.finished = true;
    }
}

impl<S: SyncFacade> Drop for SplitBump<'_, S> {
    /// Dropping an unfinished split bump models an updater crash between
    /// the phases: the tables are flagged abandoned (every target ID
    /// carries the new version, every branch ID the old one) so checkers
    /// and [`IdTables::repair_abandoned`] can diagnose and repair the
    /// wedge. The update lock is released as the guard drops — a *leaked*
    /// (`mem::forget`) split bump keeps the lock forever instead, which is
    /// the stall that bounded checks report as `CheckStalled`.
    fn drop(&mut self) {
        if !self.finished {
            self.tables.core.abandoned.store(true, Ordering::Release);
        }
    }
}

/// Read-only diagnostic view over the Tary table.
#[derive(Debug)]
pub struct TaryView<'a, S: SyncFacade = StdSync> {
    tables: &'a IdTablesAt<S>,
}

impl<S: SyncFacade> TaryView<'_, S> {
    /// The decoded ID for 4-byte-aligned code address `addr`, if any —
    /// through the delta layering, so this is the *effective* policy.
    pub fn id_at(&self, addr: u64) -> Option<Id> {
        if !addr.is_multiple_of(4) {
            return None;
        }
        let idx = (addr / 4) as usize;
        if idx >= self.tables.tary.len() {
            return None;
        }
        Id::from_word(self.tables.tary_word_at(idx))
    }

    /// Iterates over `(address, id)` pairs for all current effective
    /// targets (delta entries layered over the base; tombstoned entries
    /// are invalid and skipped).
    pub fn targets(&self) -> impl Iterator<Item = (u64, Id)> + '_ {
        (0..self.tables.tary.len()).filter_map(|i| {
            Id::from_word(self.tables.tary_word_at(i)).map(|id| ((i as u64) * 4, id))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::{Arc, Barrier};

    /// Raises `stop` only once every checker has run a whole loop
    /// iteration that began after this call, so a checker's progress
    /// never depends on how the OS scheduled it before then.
    fn stop_after_one_more_iteration(progress: &[AtomicU64], stop: &AtomicU32) {
        let seen: Vec<u64> = progress.iter().map(|p| p.load(Ordering::Relaxed)).collect();
        for (p, seen) in progress.iter().zip(seen) {
            while p.load(Ordering::Relaxed) < seen + 2 {
                std::thread::yield_now();
            }
        }
        stop.store(1, Ordering::Relaxed);
    }

    fn demo_tables() -> IdTables {
        let t = IdTables::new(TablesConfig { code_size: 64, bary_slots: 2 });
        // Branch 0 in class 1 targeting {8}; branch 1 in class 2 targeting {16, 20}.
        t.update(
            |addr| match addr {
                8 => Some(1),
                16 | 20 => Some(2),
                _ => None,
            },
            |slot| match slot {
                0 => Some(1),
                1 => Some(2),
                _ => None,
            },
        );
        t
    }

    #[test]
    fn allowed_edges_pass() {
        let t = demo_tables();
        assert_eq!(t.check(0, 8).unwrap(), Ecn::new(1));
        assert_eq!(t.check(1, 16).unwrap(), Ecn::new(2));
        assert_eq!(t.check(1, 20).unwrap(), Ecn::new(2));
    }

    #[test]
    fn cross_class_edges_are_violations() {
        let t = demo_tables();
        let err = t.check(0, 16).unwrap_err();
        assert_eq!(
            err.kind,
            ViolationKind::EcnMismatch { branch: Ecn::new(1), target: Ecn::new(2) }
        );
    }

    #[test]
    fn non_target_addresses_are_violations() {
        let t = demo_tables();
        assert_eq!(t.check(0, 12).unwrap_err().kind, ViolationKind::NotATarget);
        // Outside the code region entirely.
        assert_eq!(t.check(0, 4096).unwrap_err().kind, ViolationKind::NotATarget);
    }

    #[test]
    fn unaligned_targets_are_violations() {
        let t = demo_tables();
        for off in 1..4 {
            let err = t.check(0, 8 + off).unwrap_err();
            assert_eq!(err.kind, ViolationKind::UnalignedTarget, "offset {off}");
        }
    }

    #[test]
    fn update_bumps_version_and_replaces_policy() {
        let t = demo_tables();
        assert_eq!(t.current_version(), Version::new(1));
        // New CFG: branch 0 may now also reach 12 (class 1 grew).
        t.update(
            |addr| match addr {
                8 | 12 => Some(1),
                16 | 20 => Some(2),
                _ => None,
            },
            |slot| match slot {
                0 => Some(1),
                1 => Some(2),
                _ => None,
            },
        );
        assert_eq!(t.current_version(), Version::new(2));
        assert!(t.check(0, 12).is_ok());
        assert!(t.check(0, 16).is_err());
    }

    #[test]
    fn bump_version_preserves_ecns() {
        let t = demo_tables();
        let before: Vec<_> = t.tary_view().targets().map(|(a, id)| (a, id.ecn())).collect();
        let stats = t.bump_version();
        assert_eq!(stats.tary_targets, 3);
        assert_eq!(stats.bary_branches, 2);
        let after: Vec<_> = t.tary_view().targets().map(|(a, id)| (a, id.ecn())).collect();
        assert_eq!(before, after);
        assert!(t.check(0, 8).is_ok());
    }

    #[test]
    fn check_once_reports_version_skew_as_retry() {
        let t = demo_tables();
        // Manually skew: bump only the Tary side by simulating an interrupted
        // update (direct store through the public API is not possible, so we
        // run a full bump and then a half-check against a stale branch word).
        // Instead verify that check_once returns Some on a settled table.
        assert!(t.check_once(0, 8).unwrap().is_ok());
        assert!(t.check_once(0, 16).unwrap().is_err());
    }

    #[test]
    fn concurrent_checks_never_observe_mixed_policies() {
        // Linearizability witness: class assignment alternates between
        // {8->1, 16->2} and {8->2, 16->1}; bary slot 0 always matches 8 and
        // mismatches 16. A torn update would let a check(0, 16) succeed.
        let t = Arc::new(IdTables::new(TablesConfig { code_size: 64, bary_slots: 1 }));
        t.update(
            |a| match a {
                8 => Some(1),
                16 => Some(2),
                _ => None,
            },
            |_| Some(1),
        );
        const CHECKERS: usize = 3;
        let stop = Arc::new(AtomicU32::new(0));
        let start = Arc::new(Barrier::new(CHECKERS + 1));
        let progress: Arc<[AtomicU64]> = (0..CHECKERS).map(|_| AtomicU64::new(0)).collect();
        let mut handles = Vec::new();
        for c in 0..CHECKERS {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            let start = Arc::clone(&start);
            let progress = Arc::clone(&progress);
            handles.push(std::thread::spawn(move || {
                let mut ok = 0u64;
                start.wait();
                while stop.load(Ordering::Relaxed) == 0 {
                    // 8 must always be legal, 16 must never be.
                    t.check(0, 8).expect("8 is always in the branch's class");
                    assert!(t.check(0, 16).is_err(), "16 must never match slot 0");
                    ok += 1;
                    progress[c].fetch_add(1, Ordering::Relaxed);
                }
                ok
            }));
        }
        start.wait();
        let updater = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for round in 0..200 {
                    let (c8, c16) = if round % 2 == 0 { (2, 1) } else { (1, 2) };
                    t.update(
                        move |a| match a {
                            8 => Some(c8),
                            16 => Some(c16),
                            _ => None,
                        },
                        move |_| Some(c8),
                    );
                }
            })
        };
        updater.join().unwrap();
        stop_after_one_more_iteration(&progress, &stop);
        for h in handles {
            assert!(h.join().unwrap() > 0);
        }
    }

    #[test]
    fn update_counter_tracks_and_resets() {
        let t = demo_tables();
        assert_eq!(t.updates_since_reset(), 1);
        t.bump_version();
        t.bump_version();
        assert_eq!(t.updates_since_reset(), 3);
        t.reset_update_count();
        assert_eq!(t.updates_since_reset(), 0);
    }

    #[test]
    fn bounded_check_matches_unbounded_on_settled_tables() {
        let t = demo_tables();
        let cfg = RetryConfig::default();
        assert_eq!(t.check_bounded(0, 8, &cfg).unwrap(), Ecn::new(1));
        assert_eq!(
            t.check_bounded(0, 16, &cfg),
            Err(CheckError::Violation(t.check(0, 16).unwrap_err()))
        );
        assert_eq!(
            t.check_bounded(0, 9, &cfg),
            Err(CheckError::Violation(t.check(0, 9).unwrap_err()))
        );
    }

    #[test]
    fn abandoned_split_bump_is_repaired_by_bounded_check() {
        let t = demo_tables();
        drop(t.bump_version_split()); // updater "crashes" between phases
        assert!(t.has_abandoned());
        // An unbounded check would livelock here. The bounded check
        // escalates, repairs, and completes.
        let cfg = RetryConfig { escalate_after: 4, max_retries: 256 };
        assert_eq!(t.check_bounded(0, 8, &cfg).unwrap(), Ecn::new(1));
        assert!(!t.has_abandoned());
        assert_eq!(t.repair_count(), 1);
        assert!(t.escalation_count() >= 1);
        // The repaired tables enforce the original policy.
        assert!(t.check(1, 16).is_ok());
        assert!(t.check(0, 16).is_err());
    }

    #[test]
    fn leaked_split_bump_stalls_bounded_checks_diagnosably() {
        let t = demo_tables();
        std::mem::forget(t.bump_version_split()); // lock held forever
        let cfg = RetryConfig { escalate_after: 4, max_retries: 64 };
        let err = t.check_bounded(0, 8, &cfg).unwrap_err();
        assert_eq!(
            err,
            CheckError::Stalled(CheckStalled { bary_slot: 0, target: 8, retries: 64 })
        );
        // Violations still short-circuit: an invalid target never needs
        // version agreement, so it is reported even under the stall.
        assert!(matches!(t.check_bounded(0, 12, &cfg), Err(CheckError::Violation(_))));
    }

    #[test]
    fn torn_tary_fault_is_repaired_preserving_ecns() {
        let t = demo_tables();
        let before: Vec<_> = t.tary_view().targets().map(|(a, id)| (a, id.ecn())).collect();
        t.arm_chaos(ChaosInjector::arm(
            mcfi_chaos::FaultPlan::new().with(FaultPoint::TornTary, 1, 3),
        ));
        let stats = t.bump_version();
        assert!(!stats.completed, "the bump must abort at the tear");
        assert!(t.has_abandoned());
        assert!(t.repair_abandoned(), "skewed entries must need repair");
        assert!(!t.has_abandoned());
        let after: Vec<_> = t.tary_view().targets().map(|(a, id)| (a, id.ecn())).collect();
        assert_eq!(before, after, "repair preserves every ECN");
        assert!(t.check(0, 8).is_ok());
        assert!(t.check(1, 20).is_ok());
        assert!(t.check(1, 8).is_err());
        t.disarm_chaos();
    }

    #[test]
    fn updater_crash_fault_is_recovered_by_checkers() {
        let t = demo_tables();
        t.arm_chaos(ChaosInjector::arm(
            mcfi_chaos::FaultPlan::new().with(FaultPoint::UpdaterCrash, 1, 0),
        ));
        let stats = t.bump_version();
        assert!(!stats.completed);
        assert!(t.has_abandoned());
        let cfg = RetryConfig { escalate_after: 4, max_retries: 256 };
        assert_eq!(t.check_bounded(1, 16, &cfg).unwrap(), Ecn::new(2));
        assert_eq!(t.repair_count(), 1);
        // Once repaired, the next bump completes normally (the plan's
        // single fault is spent).
        assert!(t.bump_version().completed);
    }

    #[test]
    fn version_warp_fault_drives_the_wrap() {
        let t = demo_tables();
        t.arm_chaos(ChaosInjector::arm(
            mcfi_chaos::FaultPlan::new().with(FaultPoint::VersionWarp, 1, 1),
        ));
        let s1 = t.bump_version(); // warped to LIMIT-2, bumps to LIMIT-1
        assert_eq!(s1.version, VERSION_LIMIT - 1);
        assert!(t.check(0, 8).is_ok());
        let s2 = t.bump_version(); // wraps to 0
        assert_eq!(s2.version, 0);
        assert!(t.check(0, 8).is_ok());
        assert!(t.check(0, 16).is_err());
    }

    #[test]
    fn updater_stall_fault_delays_but_completes() {
        let t = demo_tables();
        t.arm_chaos(ChaosInjector::arm(
            mcfi_chaos::FaultPlan::new().with(FaultPoint::UpdaterStall, 1, 50),
        ));
        let stats = t.update(
            |a| matches!(a, 8 | 16 | 20).then_some(1),
            |_| Some(1),
        );
        assert!(stats.completed);
        assert!(t.check(0, 16).is_ok(), "post-stall policy is installed");
    }

    #[test]
    fn force_version_restamps_both_tables() {
        let t = demo_tables();
        t.force_version(VERSION_LIMIT - 2);
        assert_eq!(t.current_version(), Version::new(VERSION_LIMIT - 2));
        assert!(t.check(0, 8).is_ok(), "no skew after forcing");
        assert!(t.bump_version().completed);
        assert!(t.bump_version().completed); // wraps to 0
        assert_eq!(t.current_version(), Version::new(0));
        assert!(t.check(0, 8).is_ok());
    }

    #[test]
    fn repair_is_a_no_op_on_consistent_tables() {
        let t = demo_tables();
        assert!(!t.repair_abandoned());
        assert_eq!(t.repair_count(), 0);
        assert_eq!(t.updates_since_reset(), 1, "no phantom update recorded");
    }

    #[test]
    fn concurrent_bounded_checks_survive_an_updater_crash() {
        // The linearizability property under the crash fault: checkers
        // using the bounded transaction recover from an abandoned
        // re-stamp without ever validating a cross-class edge.
        let t = Arc::new(IdTables::new(TablesConfig { code_size: 64, bary_slots: 1 }));
        t.update(
            |a| match a {
                8 => Some(1),
                16 => Some(2),
                _ => None,
            },
            |_| Some(1),
        );
        t.arm_chaos(ChaosInjector::arm(
            mcfi_chaos::FaultPlan::new().with(FaultPoint::UpdaterCrash, 2, 0),
        ));
        const CHECKERS: usize = 3;
        let stop = Arc::new(AtomicU32::new(0));
        let start = Arc::new(Barrier::new(CHECKERS + 1));
        let progress: Arc<[AtomicU64]> = (0..CHECKERS).map(|_| AtomicU64::new(0)).collect();
        let cfg = RetryConfig { escalate_after: 8, max_retries: 1 << 20 };
        let mut handles = Vec::new();
        for c in 0..CHECKERS {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            let start = Arc::clone(&start);
            let progress = Arc::clone(&progress);
            handles.push(std::thread::spawn(move || {
                let mut ok = 0u64;
                start.wait();
                while stop.load(Ordering::Relaxed) == 0 {
                    t.check_bounded(0, 8, &cfg).expect("8 is always legal");
                    assert!(
                        matches!(
                            t.check_bounded(0, 16, &cfg),
                            Err(CheckError::Violation(_))
                        ),
                        "16 must never match slot 0"
                    );
                    ok += 1;
                    progress[c].fetch_add(1, Ordering::Relaxed);
                }
                ok
            }));
        }
        start.wait();
        assert!(t.bump_version().completed);
        let crashed = t.bump_version(); // planned crash between phases
        assert!(!crashed.completed);
        // The updater is now dead and the tables are skewed. Progress
        // depends entirely on a checker escalating and repairing.
        while t.repair_count() == 0 {
            std::thread::yield_now();
        }
        stop_after_one_more_iteration(&progress, &stop);
        for h in handles {
            assert!(h.join().unwrap() > 0);
        }
        assert!(!t.has_abandoned());
    }

    fn lease_on(t: &IdTables, duration: u64) -> Arc<AtomicU64> {
        let clock = Arc::new(AtomicU64::new(0));
        t.set_lease(LeaseConfig { clock: Arc::clone(&clock), duration });
        clock
    }

    #[test]
    fn lease_is_stamped_across_a_transaction_and_cleared_on_commit() {
        let t = demo_tables();
        let clock = lease_on(&t, 100);
        clock.store(7, Ordering::Relaxed);
        assert_eq!(t.lease_deadline(), 0, "no transaction in flight");
        let split = t.bump_version_split();
        assert_eq!(t.lease_deadline(), 107, "stamped at acquire");
        split.finish();
        assert_eq!(t.lease_deadline(), 0, "cleared on commit");
        assert!(t.bump_version().completed);
        assert_eq!(t.lease_deadline(), 0);
    }

    #[test]
    fn watchdog_heals_a_crashed_updater_on_lease_expiry() {
        let t = demo_tables();
        let clock = lease_on(&t, 50);
        t.arm_chaos(ChaosInjector::arm(
            mcfi_chaos::FaultPlan::new().with(FaultPoint::UpdaterCrash, 1, 0),
        ));
        assert!(!t.bump_version().completed);
        assert!(t.has_abandoned());
        assert_eq!(t.lease_deadline(), 50, "the crash left the stamp behind");
        // Before expiry the watchdog must leave a (possibly live) updater
        // alone; after expiry it repairs and clears the lease.
        assert_eq!(t.watchdog_poll(10), WatchdogVerdict::LeaseActive);
        assert!(t.has_abandoned());
        assert_eq!(t.watchdog_poll(50), WatchdogVerdict::Healed { repaired: true });
        assert!(!t.has_abandoned());
        assert_eq!(t.lease_deadline(), 0);
        assert_eq!(t.lease_repair_count(), 1);
        assert_eq!(t.tx_counters().lease_repairs, 1);
        assert!(t.check(0, 8).is_ok(), "the healed tables enforce the policy");
        assert!(t.check(0, 16).is_err());
        let _ = clock;
    }

    #[test]
    fn watchdog_reports_a_wedged_updater_without_touching_the_tables() {
        let t = demo_tables();
        lease_on(&t, 10);
        std::mem::forget(t.bump_version_split()); // lock held forever
        assert_eq!(t.watchdog_poll(u64::MAX), WatchdogVerdict::Wedged);
        assert_eq!(t.lease_repair_count(), 0);
    }

    #[test]
    fn watchdog_is_blind_without_a_lease() {
        let t = demo_tables();
        t.arm_chaos(ChaosInjector::arm(
            mcfi_chaos::FaultPlan::new().with(FaultPoint::UpdaterCrash, 1, 0),
        ));
        assert!(!t.bump_version().completed);
        // No lease configured: the crash left no stamp, so the watchdog
        // has nothing to go on (only a checker's escalation can heal).
        assert_eq!(t.watchdog_poll(u64::MAX), WatchdogVerdict::Clean);
        assert!(t.has_abandoned());
    }

    #[test]
    fn late_lease_seam_misses_mid_tary_crashes() {
        // The seeded bug in miniature (the model checker's crash-site
        // sweep proves the general case): a torn Tary under the *buggy*
        // stamping leaves no lease, because the tear precedes the stamp.
        let t = demo_tables();
        lease_on(&t, 10);
        assert!(t.bump_version_late_lease_for_tests().completed);
        assert_eq!(t.lease_deadline(), 0, "the buggy path still clears on commit");
    }

    #[test]
    fn version_wraparound_is_survivable() {
        // Drive the version counter past 2^14 and confirm checks still work
        // (the ABA hazard requires a check *in flight* across the wrap).
        let t = IdTables::new(TablesConfig { code_size: 16, bary_slots: 1 });
        for _ in 0..VERSION_LIMIT + 5 {
            t.update(|a| (a == 4).then_some(0), |_| Some(0));
        }
        assert!(t.check(0, 4).is_ok());
        assert_eq!(t.current_version(), Version::new((VERSION_LIMIT + 5) % VERSION_LIMIT));
    }
}
