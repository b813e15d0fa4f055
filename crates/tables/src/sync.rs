//! The synchronization facade the table transactions are written against.
//!
//! Everything in this crate that participates in the table protocol —
//! atomic table words, the global version, the update lock, the
//! inter-phase barriers — goes through the [`SyncFacade`] trait instead
//! of naming `std::sync::atomic` directly. Production code instantiates
//! the tables with [`StdSync`], whose methods are `#[inline]` one-liners
//! over the real primitives, so monomorphization produces byte-for-byte
//! the same fast path as before the facade existed (no extra branches,
//! no extra atomics — verified by the fig5/fig6 benchmarks).
//!
//! The `mcfi-modelcheck` crate provides a second implementation whose
//! primitives report every access to a deterministic scheduler as a
//! *schedule point*, which is what lets a bounded-exhaustive model
//! checker explore all small interleavings of `TxCheck`/`TxUpdate`
//! instead of the lucky ones a wall-clock stress test happens to hit.
//!
//! The facade is a generic parameter rather than a `cfg`: a `--cfg`
//! switch would rebuild this crate for the whole workspace (cargo
//! unifies features across a workspace build), whereas a generic lets
//! the production `IdTables` alias and the model-checked instantiation
//! coexist in one compilation with zero interference.

use core::fmt;
use std::ops::DerefMut;
use std::sync::atomic::Ordering;

/// Operations the tables need from a 32-bit atomic (table words, the
/// global version).
pub trait AtomicU32Ops: Send + Sync + fmt::Debug {
    /// Creates the atomic holding `value`.
    fn new(value: u32) -> Self;
    /// Atomic load.
    fn load(&self, order: Ordering) -> u32;
    /// Atomic store.
    fn store(&self, value: u32, order: Ordering);
    /// Atomic add; returns the previous value.
    fn fetch_add(&self, value: u32, order: Ordering) -> u32;
    /// Atomic subtract; returns the previous value.
    fn fetch_sub(&self, value: u32, order: Ordering) -> u32;
    /// Atomic bitwise OR; returns the previous value.
    fn fetch_or(&self, value: u32, order: Ordering) -> u32;
    /// Atomic bitwise AND; returns the previous value.
    fn fetch_and(&self, value: u32, order: Ordering) -> u32;
    /// Weak compare-and-swap (may fail spuriously).
    ///
    /// # Errors
    ///
    /// Returns the observed value when it differs from `current` (or on
    /// a spurious failure, as `std`'s weak variant allows).
    fn compare_exchange_weak(
        &self,
        current: u32,
        new: u32,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u32, u32>;
}

/// Operations the tables need from a 64-bit atomic (wide table words,
/// counters).
pub trait AtomicU64Ops: Send + Sync + fmt::Debug {
    /// Creates the atomic holding `value`.
    fn new(value: u64) -> Self;
    /// Atomic load.
    fn load(&self, order: Ordering) -> u64;
    /// Atomic store.
    fn store(&self, value: u64, order: Ordering);
    /// Atomic add; returns the previous value.
    fn fetch_add(&self, value: u64, order: Ordering) -> u64;
}

/// Operations the tables need from an atomic flag (the abandoned-window
/// marker).
pub trait AtomicBoolOps: Send + Sync + fmt::Debug {
    /// Creates the atomic holding `value`.
    fn new(value: bool) -> Self;
    /// Atomic load.
    fn load(&self, order: Ordering) -> bool;
    /// Atomic store.
    fn store(&self, value: bool, order: Ordering);
}

/// Operations the tables need from a mutex (the update lock).
pub trait MutexOps<T: Send + fmt::Debug>: Send + Sync + fmt::Debug {
    /// The RAII guard; dropping it releases the lock.
    type Guard<'a>: DerefMut<Target = T>
    where
        Self: 'a,
        T: 'a;

    /// Creates the mutex around `value`.
    fn new(value: T) -> Self;
    /// Acquires the lock, blocking until available.
    fn lock(&self) -> Self::Guard<'_>;
    /// Attempts to acquire without blocking.
    fn try_lock(&self) -> Option<Self::Guard<'_>>;
}

/// A complete family of synchronization primitives.
///
/// [`StdSync`] is the production family; `mcfi-modelcheck` supplies a
/// shadow family whose every operation is a schedule point.
pub trait SyncFacade: 'static + fmt::Debug {
    /// 32-bit atomic.
    type AtomicU32: AtomicU32Ops;
    /// 64-bit atomic.
    type AtomicU64: AtomicU64Ops;
    /// Atomic flag.
    type AtomicBool: AtomicBoolOps;
    /// Mutex (`T: Debug` so lock-based types can derive `Debug`).
    type Mutex<T: Send + fmt::Debug>: MutexOps<T>;

    /// A memory fence (the Fig. 3 inter-phase write barrier).
    fn fence(order: Ordering);

    /// A busy-wait pacing hint (`pause` on x86). Not a schedule point in
    /// the model-checked family — spin *iterations* carry no protocol
    /// state, only the atomic re-reads around them do.
    fn spin_hint();

    /// Allocates `len` table words, every one 0. By default a plain
    /// allocation; [`StdSync`] reuses the words of dropped tables.
    fn alloc_words(len: usize) -> Vec<Self::AtomicU32> {
        (0..len).map(|_| <Self::AtomicU32 as AtomicU32Ops>::new(0)).collect()
    }

    /// Takes back the words of a dropped table, of which only those at
    /// the indices `written` may be nonzero. By default they are freed.
    fn free_words(words: Vec<Self::AtomicU32>, written: &[usize]) {
        let _ = (words, written);
    }
}

/// The guard type of facade `S`'s mutex over `T`.
pub type LockGuard<'a, S, T> = <<S as SyncFacade>::Mutex<T> as MutexOps<T>>::Guard<'a>;

/// The production facade: `std::sync::atomic` + `parking_lot`, all
/// `#[inline]` pass-throughs.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdSync;

impl AtomicU32Ops for std::sync::atomic::AtomicU32 {
    #[inline]
    fn new(value: u32) -> Self {
        std::sync::atomic::AtomicU32::new(value)
    }
    #[inline]
    fn load(&self, order: Ordering) -> u32 {
        self.load(order)
    }
    #[inline]
    fn store(&self, value: u32, order: Ordering) {
        self.store(value, order);
    }
    #[inline]
    fn fetch_add(&self, value: u32, order: Ordering) -> u32 {
        self.fetch_add(value, order)
    }
    #[inline]
    fn fetch_sub(&self, value: u32, order: Ordering) -> u32 {
        self.fetch_sub(value, order)
    }
    #[inline]
    fn fetch_or(&self, value: u32, order: Ordering) -> u32 {
        self.fetch_or(value, order)
    }
    #[inline]
    fn fetch_and(&self, value: u32, order: Ordering) -> u32 {
        self.fetch_and(value, order)
    }
    #[inline]
    fn compare_exchange_weak(
        &self,
        current: u32,
        new: u32,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u32, u32> {
        self.compare_exchange_weak(current, new, success, failure)
    }
}

impl AtomicU64Ops for std::sync::atomic::AtomicU64 {
    #[inline]
    fn new(value: u64) -> Self {
        std::sync::atomic::AtomicU64::new(value)
    }
    #[inline]
    fn load(&self, order: Ordering) -> u64 {
        self.load(order)
    }
    #[inline]
    fn store(&self, value: u64, order: Ordering) {
        self.store(value, order);
    }
    #[inline]
    fn fetch_add(&self, value: u64, order: Ordering) -> u64 {
        self.fetch_add(value, order)
    }
}

impl AtomicBoolOps for std::sync::atomic::AtomicBool {
    #[inline]
    fn new(value: bool) -> Self {
        std::sync::atomic::AtomicBool::new(value)
    }
    #[inline]
    fn load(&self, order: Ordering) -> bool {
        self.load(order)
    }
    #[inline]
    fn store(&self, value: bool, order: Ordering) {
        self.store(value, order);
    }
}

impl<T: Send + fmt::Debug> MutexOps<T> for parking_lot::Mutex<T> {
    type Guard<'a>
        = parking_lot::MutexGuard<'a, T>
    where
        Self: 'a,
        T: 'a;

    #[inline]
    fn new(value: T) -> Self {
        parking_lot::Mutex::new(value)
    }
    #[inline]
    fn lock(&self) -> Self::Guard<'_> {
        self.lock()
    }
    #[inline]
    fn try_lock(&self) -> Option<Self::Guard<'_>> {
        self.try_lock()
    }
}

/// The words of dropped production tables, each array zeroed, for
/// [`StdSync::alloc_words`] to hand out again. Only the words a table
/// lists as possibly nonzero are zeroed on the way in, where a fresh zeroed
/// allocation of a size the allocator recycles would be zeroed whole, so
/// a new table costs the pages its own policies write.
static FREE_WORDS: std::sync::Mutex<Vec<Vec<std::sync::atomic::AtomicU32>>> =
    std::sync::Mutex::new(Vec::new());

/// The free-word pool, also after a panic elsewhere while it was held:
/// every array in it is zeroed before it goes in, so it is always valid.
fn word_pool() -> std::sync::MutexGuard<'static, Vec<Vec<std::sync::atomic::AtomicU32>>> {
    FREE_WORDS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl SyncFacade for StdSync {
    type AtomicU32 = std::sync::atomic::AtomicU32;
    type AtomicU64 = std::sync::atomic::AtomicU64;
    type AtomicBool = std::sync::atomic::AtomicBool;
    type Mutex<T: Send + fmt::Debug> = parking_lot::Mutex<T>;

    #[inline]
    fn fence(order: Ordering) {
        std::sync::atomic::fence(order);
    }

    #[inline]
    fn spin_hint() {
        std::hint::spin_loop();
    }

    fn alloc_words(len: usize) -> Vec<Self::AtomicU32> {
        let reused = {
            let mut pool = word_pool();
            pool.iter().position(|w| w.len() == len).map(|i| pool.swap_remove(i))
        };
        // A fresh array comes from a zeroed allocation converted in
        // place, which an optimized build compiles to nothing, so its
        // pages stay untouched until a policy writes them.
        reused.unwrap_or_else(|| vec![0; len].into_iter().map(Self::AtomicU32::new).collect())
    }

    fn free_words(words: Vec<Self::AtomicU32>, written: &[usize]) {
        // The pool's mutex publishes the zeros to whichever thread takes
        // the array next.
        for &i in written {
            words[i].store(0, Ordering::Relaxed);
        }
        word_pool().push(words);
    }
}

/// Constructs facade `S`'s mutex over `value` (helper for the verbose
/// fully-qualified GAT syntax).
pub fn new_mutex<S: SyncFacade, T: Send + fmt::Debug>(value: T) -> S::Mutex<T> {
    <S::Mutex<T> as MutexOps<T>>::new(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_facade_round_trips_every_op() {
        let a = <StdSync as SyncFacade>::AtomicU32::new(5);
        assert_eq!(a.load(Ordering::Acquire), 5);
        a.store(9, Ordering::Release);
        assert_eq!(a.fetch_add(1, Ordering::AcqRel), 9);
        assert_eq!(a.fetch_sub(2, Ordering::AcqRel), 10);
        assert_eq!(a.fetch_or(0x10, Ordering::AcqRel), 8);
        assert_eq!(a.fetch_and(!0x10, Ordering::AcqRel), 0x18);
        assert_eq!(a.compare_exchange_weak(8, 3, Ordering::AcqRel, Ordering::Relaxed), Ok(8));

        let c = <StdSync as SyncFacade>::AtomicU64::new(1);
        assert_eq!(c.fetch_add(2, Ordering::Relaxed), 1);
        assert_eq!(c.load(Ordering::Relaxed), 3);

        let b = <StdSync as SyncFacade>::AtomicBool::new(false);
        b.store(true, Ordering::Release);
        assert!(b.load(Ordering::Acquire));

        let m = new_mutex::<StdSync, u32>(7);
        {
            let mut g = m.lock();
            *g += 1;
            assert!(m.try_lock().is_none(), "held lock must not double-acquire");
        }
        assert_eq!(*m.lock(), 8);
        StdSync::fence(Ordering::SeqCst);
        StdSync::spin_hint();
    }
}
