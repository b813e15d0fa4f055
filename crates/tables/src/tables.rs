//! The Bary/Tary ID tables and the two table transactions (paper §5).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
    /// The high-water marks, Tary then Bary: one past the last word of
    /// each table that may be nonzero, so every word from the mark on is
    /// 0. Transactions scan a table only up to its mark (and an install
    /// also up to its new policy's end). Written only under the update
    /// lock, or before the shard is registered; bookkeeping that no check
    /// reads, so plain `std` atomics, never schedule points.
    marks: [AtomicUsize; 2],
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
    /// (updater crash / poisoned `SplitBump`); cleared by repair and by
    /// the next committed transaction, which rewrites every ID.
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

    /// Re-stamps `side` of every shard in list order (see
    /// [`IdTablesAt::restamp`]); returns how many IDs it wrote.
    fn restamp(&self, side: Side, version: Version, stale_only: bool) -> usize {
        self.list().iter().map(|shard| shard.restamp(side, version, stale_only)).sum()
    }
}

/// Which of a shard's two tables a per-table helper walks. The side also
/// fixes its phase's store ordering: Tary stores are relaxed (the
/// weak-ordered `movnti` copy of Fig. 3), Bary stores are Release.
#[derive(Clone, Copy)]
enum Side {
    Tary,
    Bary,
}

impl Side {
    /// The side's index into a shard's marks.
    fn index(self) -> usize {
        match self {
            Side::Tary => 0,
            Side::Bary => 1,
        }
    }

    fn order(self) -> Ordering {
        match self {
            Side::Tary => Ordering::Relaxed,
            Side::Bary => Ordering::Release,
        }
    }

    /// Re-stamps the ID in `slot` to `version` with this side's store
    /// ordering, preserving its ECN. Zeros and tombstones pass through
    /// untouched, and so, when `stale_only` (the repair pass), does an
    /// ID already at `version`. Returns whether it wrote.
    fn restamp<A: AtomicU32Ops>(self, slot: &A, version: Version, stale_only: bool) -> bool {
        match Id::from_word(slot.load(Ordering::Relaxed)) {
            Some(id) if !stale_only || id.version() != version => {
                slot.store(Id::encode(id.ecn(), version).word(), self.order());
                true
            }
            _ => false,
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
        IdTablesAt {
            tary: S::alloc_words(config.code_size.div_ceil(4)),
            bary: S::alloc_words(config.bary_slots),
            marks: [AtomicUsize::new(0), AtomicUsize::new(0)],
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

    /// The opener every update transaction shares (Fig. 3 lines 1–2):
    /// takes the update lock, stamps the lease, lets a `version-warp`
    /// fault fire and installs the next version — or `forced % 2^14`,
    /// which skips the warp. The lock is held until the guard drops.
    fn begin_tx(&self, forced: Option<u32>) -> (LockGuard<'_, S, ()>, Version) {
        let guard = self.core.update_lock.lock();
        self.stamp_lease();
        let raw = match forced {
            Some(raw) => raw % VERSION_LIMIT,
            None => {
                self.chaos_warp_version();
                (self.core.version.load(Ordering::Relaxed) + 1) % VERSION_LIMIT
            }
        };
        self.core.version.store(raw, Ordering::Release);
        (guard, Version::new(raw))
    }

    /// The commit every completed update transaction shares. The
    /// transaction rewrote every live ID at its version, which completes
    /// any transaction abandoned before it too, so the abandoned flag
    /// clears along with the lease stamp; then the commit is counted.
    fn commit_tx(
        &self,
        version: Version,
        tary_targets: usize,
        bary_branches: usize,
    ) -> UpdateStats {
        self.core.abandoned.store(false, Ordering::Release);
        self.clear_lease_stamp();
        UpdateStats {
            version: version.raw(),
            tary_targets,
            bary_branches,
            updates_since_reset: self.count_commit(),
            completed: true,
        }
    }

    /// Counts one committed transaction: bumps the core-wide update count
    /// (ABA mitigation) and the publication epoch. Returns the count.
    fn count_commit(&self) -> u64 {
        let updates = self.core.update_count.fetch_add(1, Ordering::Relaxed) + 1;
        self.core.epoch.fetch_add(1, Ordering::Release);
        updates
    }

    /// Ends a transaction an injected fault killed mid-flight: flags the
    /// tables abandoned and reports it uncommitted (and uncounted).
    fn abandon_tx(&self, version: Version, tary_targets: usize) -> UpdateStats {
        self.core.abandoned.store(true, Ordering::Release);
        UpdateStats {
            version: version.raw(),
            tary_targets,
            bary_branches: 0,
            updates_since_reset: self.core.update_count.load(Ordering::Relaxed),
            completed: false,
        }
    }

    /// This shard's `side` table.
    fn words(&self, side: Side) -> &[S::AtomicU32] {
        match side {
            Side::Tary => &self.tary,
            Side::Bary => &self.bary,
        }
    }

    /// This shard's *own* stored `side` word at index `i` (no delta
    /// fallthrough); 0 out of range. What a delta's install diff reads
    /// from the base.
    #[inline]
    fn raw_word(&self, side: Side, i: usize) -> u32 {
        self.words(side).get(i).map_or(0, |slot| slot.load(Ordering::Relaxed))
    }

    /// This shard's `side` mark: every word from it on is 0.
    fn mark(&self, side: Side) -> usize {
        self.marks[side.index()].load(Ordering::Relaxed)
    }

    fn set_mark(&self, side: Side, mark: usize) {
        self.marks[side.index()].store(mark, Ordering::Relaxed);
    }

    /// The words of this shard's `side` table that may be nonzero: the
    /// part re-stamps and repairs scan.
    fn marked(&self, side: Side) -> &[S::AtomicU32] {
        &self.words(side)[..self.mark(side)]
    }

    /// The install loop of one phase: writes this shard's new `side`
    /// policy, `ecn_of(i)` being entry `i`'s ECN or `None`, asked once
    /// per entry in index order. The policy has no entry from `extent`
    /// on, so the loop stops at the larger of `extent` and the words that
    /// may be nonzero — this shard's mark and, for a delta, the base's —
    /// and every word past it is 0 before and after. A private table (or
    /// the image base) stores the encoded IDs directly; a delta shard
    /// diffs against the base — equal words compress to 0 (fall
    /// through), revoked base targets get the [`TOMBSTONE`]. Sets the
    /// mark and returns the policy's entry count.
    fn install(
        &self,
        side: Side,
        extent: usize,
        mut ecn_of: impl FnMut(usize) -> Option<u32>,
        version: Version,
    ) -> usize {
        let words = self.words(side);
        let base_mark = self.base.as_ref().map_or(0, |b| b.mark(side));
        let end = extent.max(self.mark(side)).max(base_mark).min(words.len());
        // Until the loop ends, any word below `end` may be nonzero.
        self.set_mark(side, end);
        let (mut installed, mut mark) = (0, 0);
        for (i, slot) in words[..end].iter().enumerate() {
            let word = match ecn_of(i) {
                Some(ecn) => {
                    installed += 1;
                    let encoded = Id::encode(Ecn::new(ecn), version).word();
                    match &self.base {
                        Some(b) if b.raw_word(side, i) == encoded => 0,
                        _ => encoded,
                    }
                }
                None => match &self.base {
                    Some(b) if b.raw_word(side, i) != 0 => TOMBSTONE,
                    _ => 0,
                },
            };
            if word != 0 {
                mark = i + 1;
            }
            slot.store(word, side.order());
        }
        self.set_mark(side, mark);
        installed
    }

    /// Re-stamps the words of this shard's `side` table below its mark
    /// (see [`Side::restamp`]); returns how many IDs it wrote.
    fn restamp(&self, side: Side, version: Version, stale_only: bool) -> usize {
        self.marked(side).iter().filter(|slot| side.restamp(*slot, version, stale_only)).count()
    }

    /// One phase of a CFG-changing transaction: this shard installs its
    /// new `side` policy (see [`IdTablesAt::install`]) and every sibling
    /// shard is re-stamped in place, so one version bump retargets a
    /// whole shared image. Returns the policy's entry count.
    fn install_phase(
        &self,
        shards: &TxShards<'_, S>,
        side: Side,
        extent: usize,
        mut ecn_of: impl FnMut(usize) -> Option<u32>,
        version: Version,
    ) -> usize {
        let mut installed = 0;
        for shard in shards.list() {
            if std::ptr::eq(shard, self) {
                installed = self.install(side, extent, &mut ecn_of, version);
            } else {
                shard.restamp(side, version, false);
            }
        }
        installed
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
        let stale = self.current_version();
        let delta = Arc::new(IdTablesAt::with_core(
            self.config(),
            Arc::clone(&self.core),
            Some(Arc::clone(self)),
        ));
        for side in [Side::Tary, Side::Bary] {
            for (i, slot) in delta.words(side)[..self.mark(side)].iter().enumerate() {
                if let Some(id) = Id::from_word(self.raw_word(side, i)) {
                    slot.store(Id::encode(id.ecn(), stale).word(), side.order());
                }
            }
            delta.set_mark(side, self.mark(side));
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

    /// An injected `updater-stall` wedges the updater here — lock held,
    /// tables version-skewed — for `param` microseconds. Concurrent
    /// bounded checks must ride it out by retrying.
    fn chaos_stall(&self) {
        if let Some(micros) = self.chaos_fire(FaultPoint::UpdaterStall) {
            std::thread::sleep(std::time::Duration::from_micros(micros));
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
    /// between its phases and neither repaired nor followed by a
    /// committed transaction.
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
    /// 1. equal valid words → transfer allowed (validity + version + ECN
    ///    in one comparison);
    /// 2. invalid target ID (unaligned target or all-zero entry) → `hlt`;
    /// 3. valid target ID, version differs → retry (a concurrent update);
    /// 4. valid, same version, different ECN → `hlt`.
    ///
    /// A valid target against a Bary slot that holds no ID (never filled,
    /// or revoked by a delta) is a [`ViolationKind::EmptyBranchSlot`]
    /// violation: the branch may reach nothing.
    ///
    /// # Errors
    ///
    /// Returns the [`CfiViolation`] corresponding to cases 2 and 4, and
    /// to an empty Bary slot.
    ///
    /// # Panics
    ///
    /// Panics only if `bary_slot` is out of range — the loader embeds
    /// constant slot indexes, so an out-of-range slot is a loader bug,
    /// not a runtime condition.
    pub fn check(&self, bary_slot: usize, target: u64) -> Result<Ecn, CfiViolation> {
        loop {
            if let Some(verdict) = self.check_once(bary_slot, target) {
                return verdict;
            }
            S::spin_hint();
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
    /// Panics only if `bary_slot` is out of range, like
    /// [`IdTables::check`].
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
        let version = self.current_version();
        let shards = self.tx_shards();
        // Phase 1: finish the Tary side (a torn stream leaves stale
        // entries here too), preserving ECNs.
        let mut stale = shards.restamp(Side::Tary, version, true);
        S::fence(Ordering::SeqCst);
        // Phase 2: finish the Bary side.
        stale += shards.restamp(Side::Bary, version, true);
        let repaired = stale > 0;
        if repaired {
            self.repairs.fetch_add(1, Ordering::Relaxed);
            self.count_commit();
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
    /// between retries, paper §5.2 — decides how to retry). Otherwise
    /// returns [`IdTables::check`]'s verdict.
    ///
    /// # Panics
    ///
    /// Panics only if `bary_slot` is out of range, like
    /// [`IdTables::check`].
    pub fn check_once(
        &self,
        bary_slot: usize,
        target: u64,
    ) -> Option<Result<Ecn, CfiViolation>> {
        let branch_word = self.bary_word_at(bary_slot);
        let target_word = self.load_tary_word(target);
        let branch_id = Id::from_word(branch_word);
        if branch_word == target_word {
            if let Some(id) = branch_id {
                // Case 1: single comparison completes all three checks.
                return Some(Ok(id.ecn()));
            }
        }
        let Some(target_id) = Id::from_word(target_word) else {
            // Case 2: invalid target ID.
            let kind = if !target.is_multiple_of(4) {
                ViolationKind::UnalignedTarget
            } else {
                ViolationKind::NotATarget
            };
            return Some(Err(CfiViolation { bary_slot, target, kind }));
        };
        let Some(branch_id) = branch_id else {
            // A valid target, but the branch's slot holds no ID (a slot
            // no policy filled, or a delta's revoked branch).
            let kind = ViolationKind::EmptyBranchSlot;
            return Some(Err(CfiViolation { bary_slot, target, kind }));
        };
        if branch_id.version() != target_id.version() {
            // Case 3: an update transaction is in flight; retry.
            self.retries.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        // Case 4: same version, different equivalence class.
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
    ///
    /// This closure-based form asks about every entry of both tables: it
    /// is the full-scan reference for [`IdTablesAt::update_sorted`], which
    /// the runtime's policy installs use.
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
        self.update_tx(
            (self.tary.len(), |i| tary_ecn(i as u64 * 4)),
            (self.bary.len(), bary_ecn),
            between,
        )
    }

    /// The `TxUpdate` transaction of [`IdTablesAt::update_with`] over a
    /// policy given as sorted entries: `tary` holds each target's code
    /// address and ECN in ascending address order, and `bary[s]` is the
    /// ECN of Bary slot `s` (slots past its end get none). It leaves the
    /// same words and returns the same statistics as `update_with` with
    /// the matching lookups, but walks `tary` with a cursor, and scans
    /// each table only up to the larger of the new policy's end and the
    /// words that may still hold an old entry (the shard's high-water
    /// mark, and for a delta the base's); sibling shards are re-stamped
    /// up to their own marks. So the transaction costs the loaded code,
    /// not the reserved region.
    pub fn update_sorted(
        &self,
        tary: &[(u64, u32)],
        bary: &[u32],
        between: impl FnOnce(),
    ) -> UpdateStats {
        debug_assert!(tary.is_sorted_by_key(|&(addr, _)| addr), "tary entries ascend");
        let extent = tary.last().map_or(0, |&(addr, _)| (addr / 4) as usize + 1);
        let mut cursor = tary.iter().peekable();
        let tary_ecn = move |i: usize| {
            let addr = i as u64 * 4;
            // Entries the aligned scan never asks about (unaligned ones)
            // are passed over, as the full scan never sees them.
            while cursor.next_if(|&&(a, _)| a < addr).is_some() {}
            cursor.next_if(|&&(a, _)| a == addr).map(|&(_, ecn)| ecn)
        };
        self.update_tx((extent, tary_ecn), (bary.len(), |s| bary.get(s).copied()), between)
    }

    /// The body every CFG-changing update shares: each side is the new
    /// policy's extent (no entry from it on) and the ECN of each entry
    /// index, asked in index order.
    fn update_tx(
        &self,
        (tary_extent, tary_ecn): (usize, impl FnMut(usize) -> Option<u32>),
        (bary_extent, bary_ecn): (usize, impl FnMut(usize) -> Option<u32>),
        between: impl FnOnce(),
    ) -> UpdateStats {
        let (_guard, version) = self.begin_tx(None);
        let shards = self.tx_shards();

        // Phase 1: construct and install the new Tary table. Entry i
        // covers code address 4*i. Plain per-entry atomic stores model the
        // weak-ordered movnti copy: each ID update is individually atomic.
        // On a shared image this is the batched half of the transaction:
        // the transacting shard installs its new policy (delta-diffed
        // against the base when attached), every sibling shard is
        // re-stamped in place — one version bump retargets them all. The
        // base is always first in the shard list, so a delta's diff
        // compares against already-restamped base words.
        let tary_targets =
            self.install_phase(&shards, Side::Tary, tary_extent, tary_ecn, version);

        // The memory write barrier separating the two phases (Fig. 3 line
        // 5): all Tary writes become visible before any Bary write.
        S::fence(Ordering::SeqCst);

        // GOT adjustments and similar linker work, serialized by another
        // write barrier (§5.2).
        between();
        S::fence(Ordering::SeqCst);
        self.chaos_stall();

        // Phase 2: rewrite the Bary table.
        let bary_branches =
            self.install_phase(&shards, Side::Bary, bary_extent, bary_ecn, version);
        self.commit_tx(version, tary_targets, bary_branches)
    }

    /// Re-stamps every existing ID with a fresh version, preserving ECNs.
    ///
    /// This is exactly the simulation workload of the paper's Fig. 6
    /// experiment: the 50 Hz updater thread "performs an update transaction
    /// that updates the version numbers of all IDs in the ID tables (but
    /// preserving the ECNs)".
    pub fn bump_version(&self) -> UpdateStats {
        self.bump_version_paced(0, std::time::Duration::ZERO)
    }

    /// Like [`IdTables::bump_version`], but paced: sleeps `pause` after
    /// every `chunk` entries (never, for a `chunk` of 0). This models an
    /// updater running at the same (simulated) clock as the checking
    /// threads rather than at native host speed — the table rewrite of
    /// the paper's Fig. 6 experiment takes time proportional to the table
    /// size *on the same machine*, so checks genuinely overlap the
    /// mixed-version window and retry.
    ///
    /// Every bump variant runs this re-stamp, and it is the path the
    /// crash-shaped faults (`updater-crash`, `torn-tary`) instrument:
    /// because a re-stamp preserves ECNs by construction, an abandoned one
    /// is always repairable by completing the Bary phase
    /// ([`IdTables::repair_abandoned`]) — unlike a CFG-changing
    /// [`IdTables::update`], whose unfinished half cannot be reconstructed.
    pub fn bump_version_paced(&self, chunk: usize, pause: std::time::Duration) -> UpdateStats {
        let (_guard, version) = self.begin_tx(None);
        let torn_after = self.chaos_fire(FaultPoint::TornTary);
        let shards = self.tx_shards();
        let mut tary_targets = 0;
        // `flat` indexes the concatenated Tary stream across shards (each
        // scanned from entry 0 up to its mark), so a `torn-tary` fault
        // parameter addresses a tear point anywhere in a shared image's
        // sweep (and degenerates to the plain entry index for a private
        // table).
        let mut flat: u64 = 0;
        for shard in shards.list() {
            for (i, slot) in shard.marked(Side::Tary).iter().enumerate() {
                if torn_after == Some(flat) {
                    // The Tary stream tears here: entries before `flat`
                    // carry the new version, the rest (and all of Bary)
                    // the old one.
                    return self.abandon_tx(version, tary_targets);
                }
                flat += 1;
                tary_targets += usize::from(Side::Tary.restamp(slot, version, false));
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
            return self.abandon_tx(version, tary_targets);
        }
        self.chaos_stall();
        let bary_branches = shards.restamp(Side::Bary, version, false);
        self.commit_tx(version, tary_targets, bary_branches)
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
        let (_guard, version) = self.begin_tx(Some(raw));
        let shards = self.tx_shards();
        let tary_targets = shards.restamp(Side::Tary, version, false);
        S::fence(Ordering::SeqCst);
        let bary_branches = shards.restamp(Side::Bary, version, false);
        self.commit_tx(version, tary_targets, bary_branches);
    }

    /// Begins a version re-stamp and returns after the **Tary phase**:
    /// all target IDs carry the new version while branch IDs still carry
    /// the old one, so every check transaction retries. Call
    /// [`SplitBump::finish`] to run the Bary phase and commit.
    ///
    /// The update lock is held by the returned guard, exactly as the real
    /// update transaction holds it across both phases.
    pub fn bump_version_split(&self) -> SplitBump<'_, S> {
        let (guard, version) = self.begin_tx(None);
        // The registry cannot change while `guard` is held, so finish()
        // resolving the shard list again sees the same set.
        self.tx_shards().restamp(Side::Tary, version, false);
        S::fence(Ordering::SeqCst);
        SplitBump { tables: self, version, finished: false, _guard: guard }
    }

    /// Number of update transactions since the tables were created or
    /// last reset by [`IdTables::reset_update_count`].
    ///
    /// Security is violated only if 2^14 updates complete during a single
    /// check transaction (§5.2), and the paper resets such a counter at
    /// quiescent points. The runtime does not reset it: no runtime path
    /// calls `reset_update_count`, so in a running process this is the
    /// total number of update transactions.
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
        let (_guard, version) = self.begin_tx(None);
        // BUG: the Bary phase runs before the Tary phase.
        let bary_branches = self.restamp(Side::Bary, version, false);
        S::fence(Ordering::SeqCst);
        let tary_targets = self.restamp(Side::Tary, version, false);
        self.commit_tx(version, tary_targets, bary_branches)
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
        // BUG: no version bump.
        let version = self.current_version();
        let tary_targets =
            self.install(Side::Tary, self.tary.len(), |i| tary_ecn(i as u64 * 4), version);
        S::fence(Ordering::SeqCst);
        let bary_branches = self.install(Side::Bary, self.bary.len(), bary_ecn, version);
        self.commit_tx(version, tary_targets, bary_branches)
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
        let tary_targets = self.restamp(Side::Tary, version, false);
        // BUG: the stamp lands here, after the Tary writes — a crash
        // above this line is invisible to the watchdog.
        self.stamp_lease();
        S::fence(Ordering::SeqCst);
        let bary_branches = self.restamp(Side::Bary, version, false);
        self.commit_tx(version, tary_targets, bary_branches)
    }
}

impl<S: SyncFacade> Drop for IdTablesAt<S> {
    /// Hands both tables' words back to the facade, which may reuse them
    /// for a later table: only the words below each mark can be nonzero.
    fn drop(&mut self) {
        for side in [Side::Tary, Side::Bary] {
            let mark = self.mark(side);
            let words = match side {
                Side::Tary => &mut self.tary,
                Side::Bary => &mut self.bary,
            };
            S::free_words(std::mem::take(words), mark);
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
        self.tables.tx_shards().restamp(Side::Bary, self.version, false);
        self.tables.commit_tx(self.version, 0, 0); // a split bump reports no stats
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
    use proptest::prelude::*;
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
    fn an_empty_branch_slot_is_a_violation_not_a_panic() {
        // The demo policy over three slots: slot 2 is never filled.
        let t = IdTables::new(TablesConfig { code_size: 64, bary_slots: 3 });
        t.update(
            |addr| match addr {
                8 => Some(1),
                16 | 20 => Some(2),
                _ => None,
            },
            |slot| (slot < 2).then_some(slot as u32 + 1),
        );
        assert_eq!(t.bary_word(2), 0);
        let kind = |target| t.check(2, target).unwrap_err().kind;
        // A zero target word equals the empty slot's word, but is no ID.
        assert_eq!(t.tary_word(12), 0);
        assert_eq!(kind(12), ViolationKind::NotATarget);
        assert_eq!(kind(8), ViolationKind::EmptyBranchSlot);
        // Bytes 2..6 straddle two all-zero entries.
        assert_eq!(t.tary_word(2), 0);
        assert_eq!(kind(2), ViolationKind::UnalignedTarget);
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
        assert!(t.check_once(0, 8).unwrap().is_ok());
        assert!(t.check_once(0, 16).unwrap().is_err());
        // Between the split bump's Tary and Bary phases the target's word
        // carries the new version and the branch's the old one.
        let split = t.bump_version_split();
        let retries = t.retry_count();
        assert!(t.check_once(0, 8).is_none(), "a skewed check is retried, not decided");
        assert!(t.retry_count() > retries, "the skew counts as a retry");
        split.finish();
        assert!(matches!(t.check_once(0, 8), Some(Ok(_))));
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
    fn a_committed_transaction_clears_the_abandoned_flag() {
        let t = demo_tables();
        for commit in 0..4 {
            drop(t.bump_version_split()); // updater "crashes" between phases
            assert!(t.has_abandoned());
            // Any later completed transaction rewrites every ID at a fresh
            // version, so nothing is left abandoned.
            match commit {
                0 => {
                    let stats = t.update(|a| matches!(a, 8 | 16 | 20).then_some(2), |_| Some(2));
                    assert!(stats.completed);
                }
                1 => assert!(t.bump_version().completed),
                2 => t.force_version(VERSION_LIMIT - 1),
                _ => t.bump_version_split().finish(),
            }
            assert!(!t.has_abandoned(), "commit kind {commit} left the flag set");
            assert!(!t.repair_abandoned(), "nothing was left to repair");
        }
        assert_eq!(t.repair_count(), 0);
        assert_eq!(t.check(0, 16), Ok(Ecn::new(2)), "the update's policy holds");
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

    /// What one table entry holds in the reference model, version aside.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Cell {
        Zero,
        Tomb,
        Id(u32),
    }

    impl Cell {
        fn word(self, version: u32) -> u32 {
            match self {
                Cell::Zero => 0,
                Cell::Tomb => TOMBSTONE,
                Cell::Id(ecn) => Id::encode(Ecn::new(ecn), Version::new(version)).word(),
            }
        }
    }

    #[derive(Clone)]
    struct ModelShard {
        tary: Vec<Cell>,
        bary: Vec<Cell>,
        repairs: u64,
    }

    /// The flat reference model: one version and commit count for the
    /// whole image, and the cells of every shard (index 0 is the private
    /// table or the image base, 1 and 2 the deltas; `None` is detached).
    struct Model {
        version: u32,
        commits: u64,
        shards: Vec<Option<ModelShard>>,
    }

    impl Model {
        fn live(&self) -> impl Iterator<Item = &ModelShard> {
            self.shards.iter().flatten()
        }

        fn commit(&mut self, version: u32) {
            self.version = version % VERSION_LIMIT;
            self.commits += 1;
        }

        /// The cell a check reads: the shard's own, or the base's where a
        /// delta holds 0.
        fn effective(&self, k: usize, side: usize, i: usize) -> Option<Cell> {
            let cells = |k: usize| {
                let s = self.shards[k].as_ref().expect("live shard");
                if side == 0 { &s.tary } else { &s.bary }
            };
            match cells(k).get(i)? {
                Cell::Zero if k > 0 => Some(cells(0)[i]),
                own => Some(*own),
            }
        }
    }

    const MODEL_TABLES: TablesConfig = TablesConfig { code_size: 64, bary_slots: 4 };

    /// A sparse random policy over `len` entries: about one entry in
    /// `1 << sparsity` gets one of three ECNs, so a delta's policy often
    /// repeats or revokes a base entry.
    fn sparse_policy(rng: &mut u64, len: usize, sparsity: u32) -> Vec<Option<u32>> {
        (0..len)
            .map(|_| {
                *rng ^= *rng << 13;
                *rng ^= *rng >> 7;
                *rng ^= *rng << 17;
                rng.is_multiple_of(1 << sparsity).then_some((*rng >> 8) as u32 % 3)
            })
            .collect()
    }

    /// Checks every live shard against the model: raw words (0 where a
    /// delta matches the base, the tombstone where it revokes a base
    /// target), effective words, every `check` verdict (empty and revoked
    /// Bary slots included) and the counters.
    fn verify(model: &Model, shards: &[Option<Arc<IdTables>>]) -> Result<(), TestCaseError> {
        for (k, (t, m)) in shards.iter().zip(&model.shards).enumerate() {
            prop_assert_eq!(t.is_some(), m.is_some());
            let (Some(t), Some(m)) = (t, m) else { continue };
            prop_assert_eq!(t.current_version(), Version::new(model.version));
            prop_assert_eq!(t.updates_since_reset(), model.commits);
            prop_assert_eq!(t.publication_epoch(), model.commits);
            prop_assert!(!t.has_abandoned());
            prop_assert_eq!(t.repair_count(), m.repairs);
            for (side, words, cells) in [(0, &t.tary, &m.tary), (1, &t.bary, &m.bary)] {
                for (i, (word, cell)) in words.iter().zip(cells).enumerate() {
                    let raw = cell.word(model.version);
                    let stored = word.load(Ordering::Relaxed);
                    prop_assert_eq!(stored, raw, "shard {} side {} raw {}", k, side, i);
                    let eff = model.effective(k, side, i).expect("in range").word(model.version);
                    let read = if side == 0 { t.tary_word(4 * i as u64) } else { t.bary_word(i) };
                    prop_assert_eq!(read, eff, "shard {} side {} effective {}", k, side, i);
                }
            }
            for slot in 0..MODEL_TABLES.bary_slots {
                let branch = match model.effective(k, 1, slot) {
                    Some(Cell::Id(ecn)) => Some(ecn),
                    _ => None,
                };
                for target in 0..MODEL_TABLES.code_size as u64 + 4 {
                    let expected = if target % 4 != 0 {
                        Err(ViolationKind::UnalignedTarget)
                    } else {
                        match (model.effective(k, 0, target as usize / 4), branch) {
                            (Some(Cell::Id(ecn)), Some(b)) if ecn == b => Ok(Ecn::new(ecn)),
                            (Some(Cell::Id(ecn)), Some(b)) => Err(ViolationKind::EcnMismatch {
                                branch: Ecn::new(b),
                                target: Ecn::new(ecn),
                            }),
                            (Some(Cell::Id(_)), None) => Err(ViolationKind::EmptyBranchSlot),
                            _ => Err(ViolationKind::NotATarget),
                        }
                    };
                    let verdict = t.check(slot, target).map_err(|v| v.kind);
                    prop_assert_eq!(verdict, expected, "shard {} check({}, {})", k, slot, target);
                }
            }
        }
        Ok(())
    }

    /// Runs `ops` on a private table or on a shared image with two
    /// deltas, checking the tables against the model after every step.
    fn run_model(shared: bool, ops: &[(u8, u64)]) -> Result<(), TestCaseError> {
        let image = shared.then(|| crate::SharedTables::new(MODEL_TABLES));
        let mut shards: Vec<Option<Arc<IdTables>>> = match &image {
            Some(img) => vec![Some(Arc::clone(img.base())), Some(img.attach()), Some(img.attach())],
            None => vec![Some(Arc::new(IdTables::new(MODEL_TABLES)))],
        };
        let blank = ModelShard {
            tary: vec![Cell::Zero; MODEL_TABLES.code_size / 4],
            bary: vec![Cell::Zero; MODEL_TABLES.bary_slots],
            repairs: 0,
        };
        let mut model =
            Model { version: 0, commits: 0, shards: vec![Some(blank.clone()); shards.len()] };
        for &(op, seed) in ops {
            let live: Vec<usize> = (0..shards.len()).filter(|&k| shards[k].is_some()).collect();
            let k = live[seed as usize % live.len()];
            let t = Arc::clone(shards[k].as_ref().expect("live"));
            let next = model.version + 1;
            match op {
                // A CFG-changing update from shard `k`.
                0 | 1 => {
                    let mut rng = seed | 1;
                    let tary = sparse_policy(&mut rng, blank.tary.len(), 1 + u32::from(op));
                    let bary = sparse_policy(&mut rng, blank.bary.len(), 1);
                    let stats = t.update(|a| tary[a as usize / 4], |s| bary[s]);
                    model.commit(next);
                    let count = |p: &[Option<u32>]| p.iter().flatten().count();
                    prop_assert_eq!(stats, UpdateStats {
                        version: model.version,
                        tary_targets: count(&tary),
                        bary_branches: count(&bary),
                        updates_since_reset: model.commits,
                        completed: true,
                    });
                    let base = model.shards[0].clone().expect("the base never detaches");
                    let cells = |policy: &[Option<u32>], base: &[Cell]| -> Vec<Cell> {
                        policy
                            .iter()
                            .zip(base)
                            .map(|(p, b)| match (*p, k) {
                                (Some(ecn), 0) => Cell::Id(ecn),
                                (None, 0) => Cell::Zero,
                                (Some(ecn), _) if *b == Cell::Id(ecn) => Cell::Zero,
                                (Some(ecn), _) => Cell::Id(ecn),
                                (None, _) if *b != Cell::Zero => Cell::Tomb,
                                (None, _) => Cell::Zero,
                            })
                            .collect()
                    };
                    let m = model.shards[k].as_mut().expect("live");
                    m.tary = cells(&tary, &base.tary);
                    m.bary = cells(&bary, &base.bary);
                }
                2 => {
                    let stats = t.bump_version();
                    model.commit(next);
                    let ids =
                        |cells: &[Cell]| cells.iter().filter(|c| matches!(c, Cell::Id(_))).count();
                    prop_assert_eq!(stats, UpdateStats {
                        version: model.version,
                        tary_targets: model.live().map(|m| ids(&m.tary)).sum(),
                        bary_branches: model.live().map(|m| ids(&m.bary)).sum(),
                        updates_since_reset: model.commits,
                        completed: true,
                    });
                }
                3 => {
                    // Half the time close below the limit, so the version wraps.
                    let raw = if seed & 1 == 0 {
                        (seed >> 8) as u32
                    } else {
                        VERSION_LIMIT - 1 - (seed >> 8) as u32 % 4
                    };
                    t.force_version(raw);
                    model.commit(raw);
                }
                4 => {
                    t.bump_version_split().finish();
                    model.commit(next);
                }
                5 => {
                    // The split re-stamp is dropped between its phases; a
                    // random live shard repairs it.
                    drop(t.bump_version_split());
                    prop_assert!(t.has_abandoned());
                    model.version = next % VERSION_LIMIT;
                    let r = live[(seed >> 32) as usize % live.len()];
                    let stale =
                        model.live().any(|m| m.bary.iter().any(|c| matches!(c, Cell::Id(_))));
                    let repairer = Arc::clone(shards[r].as_ref().expect("live"));
                    prop_assert_eq!(repairer.repair_abandoned(), stale);
                    if stale {
                        model.commits += 1;
                        model.shards[r].as_mut().expect("live").repairs += 1;
                    }
                }
                6 => {
                    if let (Some(img), Some(free)) =
                        (&image, (1..shards.len()).find(|&d| shards[d].is_none()))
                    {
                        shards[free] = Some(img.attach());
                        model.shards[free] = Some(blank.clone());
                    }
                }
                _ => {
                    if k > 0 {
                        shards[k] = None;
                        model.shards[k] = None;
                    }
                }
            }
            drop(t);
            verify(&model, &shards)?;
            if let Some(img) = &image {
                prop_assert_eq!(img.attached(), model.live().count() - 1);
            }
        }
        Ok(())
    }

    const SORTED_TABLES: TablesConfig = TablesConfig { code_size: 256, bary_slots: 8 };

    /// A random policy in the sorted form: sparse Tary entries over a
    /// random prefix of the table, and an ECN for each of a random number
    /// of Bary slots — as the runtime gives one to every allocated slot.
    fn sorted_policy(rng: &mut u64) -> (Vec<(u64, u32)>, Vec<u32>) {
        let entries = SORTED_TABLES.code_size / 4;
        let extent = (*rng >> 20) as usize % (entries + 1);
        let sparsity = 1 + (*rng >> 40) as u32 % 3;
        let tary = sparse_policy(rng, extent, sparsity)
            .into_iter()
            .enumerate()
            .filter_map(|(i, ecn)| Some((4 * i as u64, ecn?)))
            .collect();
        let slots = (*rng >> 24) as usize % (SORTED_TABLES.bary_slots + 1);
        let bary = sparse_policy(rng, slots, 0).into_iter().flatten().collect();
        (tary, bary)
    }

    /// Each table's mark is one past its last nonzero word.
    fn marks_hold(t: &IdTables) -> Result<(), TestCaseError> {
        for side in [Side::Tary, Side::Bary] {
            let words: Vec<u32> = t.words(side).iter().map(|w| w.load(Ordering::Relaxed)).collect();
            let last = words.iter().rposition(|&w| w != 0);
            prop_assert_eq!(t.mark(side), last.map_or(0, |i| i + 1));
        }
        Ok(())
    }

    /// Runs `ops` on two copies of one set-up — a private table, or a
    /// shared image with two deltas — installing each policy through the
    /// full-scan `update` on the first and `update_sorted` on the second.
    /// After every step both must hold the same words and report the same
    /// statistics, each mark must sit one past its table's last nonzero
    /// word, and every Bary slot the policy covers must hold a valid ID.
    fn run_sorted_against_full_scan(shared: bool, ops: &[(u8, u64)]) -> Result<(), TestCaseError> {
        let set_up = || match shared {
            true => {
                let img = crate::SharedTables::new(SORTED_TABLES);
                let shards = vec![Arc::clone(img.base()), img.attach(), img.attach()];
                (Some(img), shards)
            }
            false => (None, vec![Arc::new(IdTables::new(SORTED_TABLES))]),
        };
        let (full_img, mut full) = set_up();
        let (sorted_img, mut sorted) = set_up();
        for &(op, seed) in ops {
            let k = seed as usize % full.len();
            match op {
                0..=3 => {
                    let mut rng = seed | 1;
                    let (tary, bary) = sorted_policy(&mut rng);
                    let lookup: std::collections::BTreeMap<u64, u32> = tary.iter().copied().collect();
                    let want = full[k].update(|a| lookup.get(&a).copied(), |s| bary.get(s).copied());
                    let got = sorted[k].update_sorted(&tary, &bary, || {});
                    prop_assert_eq!(got, want);
                    for slot in 0..bary.len() {
                        prop_assert!(Id::from_word(sorted[k].bary_word(slot)).is_some(), "slot {}", slot);
                    }
                }
                4 => prop_assert_eq!(sorted[k].bump_version(), full[k].bump_version()),
                5 => {
                    drop(full[k].bump_version_split());
                    drop(sorted[k].bump_version_split());
                    prop_assert_eq!(sorted[k].repair_abandoned(), full[k].repair_abandoned());
                }
                _ => {
                    // A delta detaches and a fresh one, maybe on reused
                    // words, attaches in its place.
                    if let (Some(fi), Some(si), true) = (&full_img, &sorted_img, k > 0) {
                        full[k] = fi.attach();
                        sorted[k] = si.attach();
                        let zero = |w: &AtomicU32| w.load(Ordering::Relaxed) == 0;
                        prop_assert!(sorted[k].tary.iter().chain(&sorted[k].bary).all(zero));
                    }
                }
            }
            for (f, s) in full.iter().zip(&sorted) {
                marks_hold(f)?;
                marks_hold(s)?;
                for side in [Side::Tary, Side::Bary] {
                    let words = |t: &IdTables| -> Vec<u32> {
                        t.words(side).iter().map(|w| w.load(Ordering::Relaxed)).collect()
                    };
                    prop_assert_eq!(words(s), words(f));
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn transactions_match_a_flat_model(
            ops in proptest::collection::vec((0u8..8, any::<u64>()), 1..40)
        ) {
            run_model(false, &ops)?;
            run_model(true, &ops)?;
        }

        #[test]
        fn sorted_bounded_updates_match_the_full_scan(
            ops in proptest::collection::vec((0u8..8, any::<u64>()), 1..40)
        ) {
            run_sorted_against_full_scan(false, &ops)?;
            run_sorted_against_full_scan(true, &ops)?;
        }
    }
}
