//! Alternative synchronization strategies for the ID tables.
//!
//! The paper micro-benchmarks its custom transaction algorithm against
//! three generic designs (§8.1, "Evaluating MCFI's transaction algorithm"):
//!
//! | strategy | normalized TxCheck time |
//! |----------|-------------------------|
//! | MCFI     | 1                       |
//! | TML      | 2                       |
//! | RWL      | 29                      |
//! | Mutex    | 22                      |
//!
//! All four are implemented here behind [`CheckStrategy`] so the benchmark
//! harness can drive them uniformly. MCFI's advantage comes from packing
//! meta-data (the version) and real data (the ECN) into a single word: one
//! load retrieves both, and one comparison checks both. TML must bracket
//! its reads with two sequence-lock loads; RWL and the CAS mutex pay a
//! LOCK-prefixed read-modify-write on every check.

use std::sync::atomic::Ordering;

use crate::error::{CfiViolation, ViolationKind};
use crate::sync::{
    new_mutex, AtomicU32Ops, AtomicU64Ops, MutexOps, StdSync, SyncFacade,
};
use crate::tables::{IdTablesAt, TablesConfig};

/// A synchronization strategy for checking indirect branches against a
/// mutable table-resident CFG.
pub trait CheckStrategy: Send + Sync {
    /// Short human-readable name ("MCFI", "TML", "RWL", "Mutex").
    fn name(&self) -> &'static str;

    /// Checks whether the branch in `bary_slot` may transfer to `target`.
    ///
    /// # Errors
    ///
    /// Returns a [`CfiViolation`] when the edge is not in the current CFG.
    fn check(&self, bary_slot: usize, target: u64) -> Result<(), CfiViolation>;

    /// Installs a new CFG, replacing ECN assignments wholesale.
    fn update(
        &self,
        tary_ecn: &dyn Fn(u64) -> Option<u32>,
        bary_ecn: &dyn Fn(usize) -> Option<u32>,
    );
}

/// MCFI's own single-word transactional tables, generic over the
/// [`SyncFacade`] (see [`crate::sync`]).
#[derive(Debug)]
pub struct McfiStrategyAt<S: SyncFacade = StdSync> {
    tables: IdTablesAt<S>,
}

/// The production MCFI strategy (see [`McfiStrategyAt`]).
pub type McfiStrategy = McfiStrategyAt<StdSync>;

impl<S: SyncFacade> McfiStrategyAt<S> {
    /// Creates MCFI tables of the given shape.
    pub fn new(config: TablesConfig) -> Self {
        McfiStrategyAt { tables: IdTablesAt::new(config) }
    }

    /// Access to the underlying tables.
    pub fn tables(&self) -> &IdTablesAt<S> {
        &self.tables
    }
}

impl<S: SyncFacade> CheckStrategy for McfiStrategyAt<S> {
    fn name(&self) -> &'static str {
        "MCFI"
    }

    /// The exact machine sequence of Fig. 4, one operation per hardware
    /// instruction: two loads, one full-word compare (fast path), then
    /// the validity test and the 16-bit version compare (slow path).
    /// The slow path also tests the branch's word, which Fig. 4 need not
    /// (every Bary slot of a loaded module holds an ID): against an empty
    /// slot, the version compare would retry forever.
    fn check(&self, bary_slot: usize, target: u64) -> Result<(), CfiViolation> {
        loop {
            let branch = self.tables.bary_word(bary_slot); // movl %gs:IDX, %edi
            let tgt = self.tables.tary_word(target); //        movl %gs:(%rcx), %esi
            if branch == tgt {
                return Ok(()); //                              cmpl; jne not taken
            }
            if tgt & 0x0101_0101 != 1 {
                // testb $1, %sil; jz Halt
                let kind = if !target.is_multiple_of(4) {
                    ViolationKind::UnalignedTarget
                } else {
                    ViolationKind::NotATarget
                };
                return Err(CfiViolation { bary_slot, target, kind });
            }
            if branch & 0x0101_0101 != 1 {
                // A valid target, but the branch's slot holds no ID.
                let kind = ViolationKind::EmptyBranchSlot;
                return Err(CfiViolation { bary_slot, target, kind });
            }
            if branch as u16 != tgt as u16 {
                // cmpw %di, %si; jne Try
                S::spin_hint();
                continue;
            }
            return Err(CfiViolation {
                bary_slot,
                target,
                kind: ViolationKind::EcnMismatch {
                    branch: crate::Id::from_word(branch)
                        .expect("validity checked above")
                        .ecn(),
                    target: crate::Id::from_word(tgt)
                        .expect("validity checked above")
                        .ecn(),
                },
            });
        }
    }

    fn update(
        &self,
        tary_ecn: &dyn Fn(u64) -> Option<u32>,
        bary_ecn: &dyn Fn(usize) -> Option<u32>,
    ) {
        self.tables.update(tary_ecn, bary_ecn);
    }
}

/// Plain (version-free) ECN tables used by the generic strategies.
///
/// Entries store `ecn + 1`, with `0` meaning "not a target" — the meta-data
/// needed for synchronization lives *outside* the word, which is exactly
/// what makes these designs slower.
#[derive(Debug)]
struct PlainTables<S: SyncFacade = StdSync> {
    tary: Vec<S::AtomicU32>,
    bary: Vec<S::AtomicU32>,
}

impl<S: SyncFacade> PlainTables<S> {
    fn new(config: TablesConfig) -> Self {
        let entries = config.code_size.div_ceil(4);
        PlainTables {
            tary: (0..entries).map(|_| <S::AtomicU32 as AtomicU32Ops>::new(0)).collect(),
            bary: (0..config.bary_slots)
                .map(|_| <S::AtomicU32 as AtomicU32Ops>::new(0))
                .collect(),
        }
    }

    fn write_all(
        &self,
        tary_ecn: &dyn Fn(u64) -> Option<u32>,
        bary_ecn: &dyn Fn(usize) -> Option<u32>,
    ) {
        for (i, slot) in self.tary.iter().enumerate() {
            let v = tary_ecn((i as u64) * 4).map_or(0, |e| e + 1);
            slot.store(v, Ordering::Relaxed);
        }
        for (i, slot) in self.bary.iter().enumerate() {
            let v = bary_ecn(i).map_or(0, |e| e + 1);
            slot.store(v, Ordering::Relaxed);
        }
    }

    /// Raw unsynchronized read of both IDs; the caller provides the
    /// synchronization envelope.
    fn read_pair(&self, bary_slot: usize, target: u64) -> (u32, u32) {
        let branch = self.bary[bary_slot].load(Ordering::Relaxed);
        let idx = (target / 4) as usize;
        let tgt = if !target.is_multiple_of(4) || idx >= self.tary.len() {
            0
        } else {
            self.tary[idx].load(Ordering::Relaxed)
        };
        (branch, tgt)
    }
}

fn classify(bary_slot: usize, target: u64, branch: u32, tgt: u32) -> Result<(), CfiViolation> {
    if tgt == 0 {
        let kind = if !target.is_multiple_of(4) {
            ViolationKind::UnalignedTarget
        } else {
            ViolationKind::NotATarget
        };
        return Err(CfiViolation { bary_slot, target, kind });
    }
    if branch == 0 {
        let kind = ViolationKind::EmptyBranchSlot;
        return Err(CfiViolation { bary_slot, target, kind });
    }
    if branch == tgt {
        Ok(())
    } else {
        Err(CfiViolation {
            bary_slot,
            target,
            kind: ViolationKind::EcnMismatch {
                branch: crate::Ecn::new(branch - 1),
                target: crate::Ecn::new(tgt - 1),
            },
        })
    }
}

/// Transactional Mutex Locks (Dalessandro et al., Euro-Par 2010): a global
/// sequence lock. Readers are invisible but must read the sequence word
/// before *and* after their data reads — twice the loads of MCFI's scheme.
#[derive(Debug)]
pub struct TmlStrategyAt<S: SyncFacade = StdSync> {
    seq: S::AtomicU64,
    writer: S::Mutex<()>,
    tables: PlainTables<S>,
}

/// The production TML strategy (see [`TmlStrategyAt`]).
pub type TmlStrategy = TmlStrategyAt<StdSync>;

impl<S: SyncFacade> TmlStrategyAt<S> {
    /// Creates TML-guarded tables of the given shape.
    pub fn new(config: TablesConfig) -> Self {
        TmlStrategyAt {
            seq: <S::AtomicU64 as AtomicU64Ops>::new(0),
            writer: new_mutex::<S, ()>(()),
            tables: PlainTables::new(config),
        }
    }
}

impl<S: SyncFacade> CheckStrategy for TmlStrategyAt<S> {
    fn name(&self) -> &'static str {
        "TML"
    }

    fn check(&self, bary_slot: usize, target: u64) -> Result<(), CfiViolation> {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 % 2 == 1 {
                S::spin_hint();
                continue; // a writer is active
            }
            let (branch, tgt) = self.tables.read_pair(bary_slot, target);
            let s2 = self.seq.load(Ordering::Acquire);
            if s1 == s2 {
                return classify(bary_slot, target, branch, tgt);
            }
            S::spin_hint();
        }
    }

    fn update(
        &self,
        tary_ecn: &dyn Fn(u64) -> Option<u32>,
        bary_ecn: &dyn Fn(usize) -> Option<u32>,
    ) {
        let _guard = self.writer.lock();
        self.seq.fetch_add(1, Ordering::AcqRel); // now odd: readers wait
        self.tables.write_all(tary_ecn, bary_ecn);
        self.seq.fetch_add(1, Ordering::AcqRel); // even again
    }
}

/// A simple, non-scalable reader-preference readers-writer spin lock
/// (the paper's RWL baseline, reference 2): every check performs a LOCK-prefixed
/// read-modify-write to enter and leave the read side.
#[derive(Debug)]
pub struct RwlStrategyAt<S: SyncFacade = StdSync> {
    /// Bit 31 = writer active; low bits = reader count.
    state: S::AtomicU32,
    tables: PlainTables<S>,
}

/// The production RWL strategy (see [`RwlStrategyAt`]).
pub type RwlStrategy = RwlStrategyAt<StdSync>;

const WRITER_BIT: u32 = 1 << 31;

impl<S: SyncFacade> RwlStrategyAt<S> {
    /// Creates RW-lock-guarded tables of the given shape.
    pub fn new(config: TablesConfig) -> Self {
        RwlStrategyAt {
            state: <S::AtomicU32 as AtomicU32Ops>::new(0),
            tables: PlainTables::new(config),
        }
    }
}

impl<S: SyncFacade> CheckStrategy for RwlStrategyAt<S> {
    fn name(&self) -> &'static str {
        "RWL"
    }

    fn check(&self, bary_slot: usize, target: u64) -> Result<(), CfiViolation> {
        // Reader entry: fetch_add, then back off while a writer holds it.
        loop {
            let prev = self.state.fetch_add(1, Ordering::AcqRel);
            if prev & WRITER_BIT == 0 {
                break;
            }
            self.state.fetch_sub(1, Ordering::AcqRel);
            while self.state.load(Ordering::Relaxed) & WRITER_BIT != 0 {
                S::spin_hint();
            }
        }
        let (branch, tgt) = self.tables.read_pair(bary_slot, target);
        self.state.fetch_sub(1, Ordering::AcqRel);
        classify(bary_slot, target, branch, tgt)
    }

    fn update(
        &self,
        tary_ecn: &dyn Fn(u64) -> Option<u32>,
        bary_ecn: &dyn Fn(usize) -> Option<u32>,
    ) {
        // Writer entry: set the writer bit, then wait for readers to drain.
        loop {
            let prev = self.state.fetch_or(WRITER_BIT, Ordering::AcqRel);
            if prev & WRITER_BIT == 0 {
                break;
            }
            S::spin_hint();
        }
        while self.state.load(Ordering::Acquire) & !WRITER_BIT != 0 {
            S::spin_hint();
        }
        self.tables.write_all(tary_ecn, bary_ecn);
        self.state.fetch_and(!WRITER_BIT, Ordering::AcqRel);
    }
}

/// A mutual-exclusion lock implemented with atomic compare-and-swap: every
/// check transaction acquires and releases the lock.
#[derive(Debug)]
pub struct MutexStrategyAt<S: SyncFacade = StdSync> {
    locked: S::AtomicU32,
    tables: PlainTables<S>,
}

/// The production CAS-mutex strategy (see [`MutexStrategyAt`]).
pub type MutexStrategy = MutexStrategyAt<StdSync>;

impl<S: SyncFacade> MutexStrategyAt<S> {
    /// Creates mutex-guarded tables of the given shape.
    pub fn new(config: TablesConfig) -> Self {
        MutexStrategyAt {
            locked: <S::AtomicU32 as AtomicU32Ops>::new(0),
            tables: PlainTables::new(config),
        }
    }

    fn lock(&self) {
        while self
            .locked
            .compare_exchange_weak(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            S::spin_hint();
        }
    }

    fn unlock(&self) {
        self.locked.store(0, Ordering::Release);
    }
}

impl<S: SyncFacade> CheckStrategy for MutexStrategyAt<S> {
    fn name(&self) -> &'static str {
        "Mutex"
    }

    fn check(&self, bary_slot: usize, target: u64) -> Result<(), CfiViolation> {
        self.lock();
        let (branch, tgt) = self.tables.read_pair(bary_slot, target);
        self.unlock();
        classify(bary_slot, target, branch, tgt)
    }

    fn update(
        &self,
        tary_ecn: &dyn Fn(u64) -> Option<u32>,
        bary_ecn: &dyn Fn(usize) -> Option<u32>,
    ) {
        self.lock();
        self.tables.write_all(tary_ecn, bary_ecn);
        self.unlock();
    }
}

/// Constructs all four strategies over the same table shape, for benchmarks.
pub fn all_strategies(config: TablesConfig) -> Vec<Box<dyn CheckStrategy>> {
    vec![
        Box::new(McfiStrategy::new(config)),
        Box::new(TmlStrategy::new(config)),
        Box::new(RwlStrategy::new(config)),
        Box::new(MutexStrategy::new(config)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    fn simple_policy() -> (
        impl Fn(u64) -> Option<u32> + Copy,
        impl Fn(usize) -> Option<u32> + Copy,
    ) {
        (
            |addr| match addr {
                8 => Some(1),
                16 => Some(2),
                _ => None,
            },
            |slot| match slot {
                0 => Some(1),
                1 => Some(2),
                _ => None,
            },
        )
    }

    fn exercise(strategy: Arc<dyn CheckStrategy>) {
        let (t, b) = simple_policy();
        strategy.update(&t, &b);
        assert!(strategy.check(0, 8).is_ok(), "{}", strategy.name());
        assert!(strategy.check(1, 16).is_ok(), "{}", strategy.name());
        assert!(strategy.check(0, 16).is_err(), "{}", strategy.name());
        assert!(strategy.check(0, 12).is_err(), "{}", strategy.name());
        assert!(strategy.check(0, 9).is_err(), "{}", strategy.name());
        // Slot 2 is never filled. The check runs on a helper thread under
        // a deadline, so a strategy that spins on the empty slot fails
        // instead of hanging; such a thread cannot be joined and is left
        // detached.
        let (tx, rx) = std::sync::mpsc::channel();
        let s = Arc::clone(&strategy);
        std::thread::spawn(move || tx.send(s.check(2, 8)));
        let verdict = rx.recv_timeout(std::time::Duration::from_secs(10));
        let kind = verdict.map(|r| r.map_err(|v| v.kind));
        assert_eq!(kind, Ok(Err(ViolationKind::EmptyBranchSlot)), "{}", strategy.name());
    }

    #[test]
    fn every_strategy_enforces_the_same_policy() {
        let config = TablesConfig { code_size: 64, bary_slots: 3 };
        for s in all_strategies(config) {
            exercise(Arc::from(s));
        }
    }

    #[test]
    fn strategies_survive_concurrent_reads_and_updates() {
        let config = TablesConfig { code_size: 64, bary_slots: 1 };
        for strategy in all_strategies(config) {
            let strategy: Arc<dyn CheckStrategy> = Arc::from(strategy);
            strategy.update(&|a| (a == 8).then_some(0), &|_| Some(0));
            let stop = Arc::new(AtomicU32::new(0));
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let s = Arc::clone(&strategy);
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        while stop.load(Ordering::Relaxed) == 0 {
                            s.check(0, 8).expect("edge stays legal across updates");
                            assert!(s.check(0, 12).is_err());
                        }
                    })
                })
                .collect();
            for _ in 0..100 {
                strategy.update(&|a| (a == 8).then_some(0), &|_| Some(0));
            }
            stop.store(1, Ordering::Relaxed);
            for r in readers {
                r.join().unwrap();
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        let config = TablesConfig { code_size: 16, bary_slots: 1 };
        let names: Vec<_> = all_strategies(config).iter().map(|s| s.name()).collect();
        assert_eq!(names, ["MCFI", "TML", "RWL", "Mutex"]);
    }
}
