//! Wide (8-byte) IDs — the §5.2 extension.
//!
//! The paper notes that if version-space exhaustion (the ABA problem)
//! were a concern, "MCFI could use a larger space for version numbers
//! such as 8-byte IDs on x86-64". This module implements that design:
//! the same single-word transactional scheme over `AtomicU64` entries,
//! with a 28-bit ECN, a 28-bit version, and the same per-byte reserved
//! validity bits (`0,0,0,0,0,0,0,1` from high to low byte). Exhausting
//! 2^28 versions during a single in-flight check is out of reach for any
//! realistic attacker, so the quiescence counter becomes unnecessary.
//!
//! The table doubles in size relative to the 4-byte scheme (one 8-byte
//! entry per 8-byte-aligned code address, so targets must be 8-aligned) —
//! the space/assurance trade-off the paper leaves to the implementer.

use std::sync::atomic::Ordering;

use crate::error::{CfiViolation, ViolationKind};
use crate::sync::{new_mutex, AtomicU64Ops, MutexOps, StdSync, SyncFacade};
use crate::Ecn;

/// Maximum ECNs under the wide encoding (`2^28`).
pub const WIDE_ECN_LIMIT: u64 = 1 << 28;

/// Maximum versions under the wide encoding (`2^28`).
pub const WIDE_VERSION_LIMIT: u64 = 1 << 28;

const RESERVED_MASK: u64 = 0x0101_0101_0101_0101;
const RESERVED_VALUE: u64 = 0x0000_0000_0000_0001;

/// A valid 8-byte ID.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct WideId(u64);

impl WideId {
    /// Packs a 28-bit ECN (upper four bytes) and a 28-bit version (lower
    /// four bytes), with the LSB of each byte reserved.
    ///
    /// # Panics
    ///
    /// Panics if either component exceeds 28 bits.
    pub fn encode(ecn: u64, version: u64) -> Self {
        assert!(ecn < WIDE_ECN_LIMIT, "wide ECN {ecn} exceeds 28 bits");
        assert!(version < WIDE_VERSION_LIMIT, "wide version {version} exceeds 28 bits");
        let mut word = 0u64;
        // Spread each 28-bit value over four bytes, 7 bits per byte,
        // leaving bit 0 of every byte for the reserved pattern.
        for i in 0..4 {
            let vbits = (version >> (7 * i)) & 0x7f;
            word |= (vbits << 1) << (8 * i);
            let ebits = (ecn >> (7 * i)) & 0x7f;
            word |= (ebits << 1) << (8 * (i + 4));
        }
        WideId(word | RESERVED_VALUE)
    }

    /// Reinterprets a raw word, if its reserved bits are valid.
    pub fn from_word(word: u64) -> Option<Self> {
        (word & RESERVED_MASK == RESERVED_VALUE).then_some(WideId(word))
    }

    /// The raw table word.
    pub fn word(self) -> u64 {
        self.0
    }

    /// The 28-bit ECN.
    pub fn ecn(self) -> u64 {
        let mut e = 0u64;
        for i in 0..4 {
            let b = (self.0 >> (8 * (i + 4))) & 0xff;
            e |= (b >> 1) << (7 * i);
        }
        e
    }

    /// The 28-bit version.
    pub fn version(self) -> u64 {
        let mut v = 0u64;
        for i in 0..4 {
            let b = (self.0 >> (8 * i)) & 0xff;
            v |= (b >> 1) << (7 * i);
        }
        v
    }
}

/// ID tables with 8-byte entries (one per 8-byte-aligned code address),
/// generic over the [`SyncFacade`] like [`crate::IdTablesAt`].
#[derive(Debug)]
pub struct WideIdTablesAt<S: SyncFacade = StdSync> {
    tary: Vec<S::AtomicU64>,
    bary: Vec<S::AtomicU64>,
    version: S::AtomicU64,
    update_lock: S::Mutex<()>,
}

/// The production wide ID tables (see [`WideIdTablesAt`]).
pub type WideIdTables = WideIdTablesAt<StdSync>;

impl<S: SyncFacade> WideIdTablesAt<S> {
    /// Allocates zeroed wide tables covering `code_size` bytes of code and
    /// `bary_slots` indirect branches.
    pub fn new(code_size: usize, bary_slots: usize) -> Self {
        WideIdTablesAt {
            tary: (0..code_size.div_ceil(8))
                .map(|_| <S::AtomicU64 as AtomicU64Ops>::new(0))
                .collect(),
            bary: (0..bary_slots).map(|_| <S::AtomicU64 as AtomicU64Ops>::new(0)).collect(),
            version: <S::AtomicU64 as AtomicU64Ops>::new(0),
            update_lock: new_mutex::<S, ()>(()),
        }
    }

    /// The wide `TxCheck`: identical structure to the 4-byte scheme, but
    /// targets must be 8-byte aligned and versions wrap at `2^28`.
    ///
    /// # Errors
    ///
    /// Returns a [`CfiViolation`] on invalid targets or ECN mismatch.
    pub fn check(&self, bary_slot: usize, target: u64) -> Result<Ecn, CfiViolation> {
        loop {
            let branch = self.bary[bary_slot].load(Ordering::Acquire);
            let tgt = self.load_tary_word(target);
            let branch_id = WideId::from_word(branch);
            if branch == tgt {
                if let Some(id) = branch_id {
                    return Ok(Ecn::new((id.ecn() % u64::from(crate::ECN_LIMIT)) as u32));
                }
            }
            let Some(tid) = WideId::from_word(tgt) else {
                let kind = if !target.is_multiple_of(8) {
                    ViolationKind::UnalignedTarget
                } else {
                    ViolationKind::NotATarget
                };
                return Err(CfiViolation { bary_slot, target, kind });
            };
            let Some(bid) = branch_id else {
                let kind = ViolationKind::EmptyBranchSlot;
                return Err(CfiViolation { bary_slot, target, kind });
            };
            if bid.version() != tid.version() {
                S::spin_hint();
                continue;
            }
            return Err(CfiViolation {
                bary_slot,
                target,
                kind: ViolationKind::EcnMismatch {
                    branch: Ecn::new((bid.ecn() % u64::from(crate::ECN_LIMIT)) as u32),
                    target: Ecn::new((tid.ecn() % u64::from(crate::ECN_LIMIT)) as u32),
                },
            });
        }
    }

    /// The wide `TxUpdate` (same Tary-then-Bary discipline).
    pub fn update(
        &self,
        tary_ecn: impl Fn(u64) -> Option<u64>,
        bary_ecn: impl Fn(usize) -> Option<u64>,
    ) {
        let _guard = self.update_lock.lock();
        let next = (self.version.load(Ordering::Relaxed) + 1) % WIDE_VERSION_LIMIT;
        self.version.store(next, Ordering::Release);
        for (i, slot) in self.tary.iter().enumerate() {
            let word = tary_ecn((i as u64) * 8).map_or(0, |e| WideId::encode(e, next).word());
            slot.store(word, Ordering::Relaxed);
        }
        S::fence(Ordering::SeqCst);
        for (i, slot) in self.bary.iter().enumerate() {
            let word = bary_ecn(i).map_or(0, |e| WideId::encode(e, next).word());
            slot.store(word, Ordering::Release);
        }
    }

    /// The current raw global version (wraps at `2^28`).
    pub fn current_version(&self) -> u64 {
        self.version.load(Ordering::Acquire) % WIDE_VERSION_LIMIT
    }

    /// Installs `raw % 2^28` as the global version and re-stamps every
    /// existing ID to it, preserving ECNs, under the usual two-phase
    /// discipline (Tary, barrier, Bary) and the update lock.
    ///
    /// Executing 2^28 real transactions to reach the wraparound would
    /// take hours even in a release build; this seam lets fault-injection
    /// tests park the counter just below the limit and then drive real
    /// updates across it. Both tables are re-stamped to the forced
    /// version — warping the counter alone would strand the tables in
    /// permanent version skew.
    pub fn force_version(&self, raw: u64) {
        let _guard = self.update_lock.lock();
        let forced = raw % WIDE_VERSION_LIMIT;
        self.version.store(forced, Ordering::Release);
        for slot in &self.tary {
            if let Some(id) = WideId::from_word(slot.load(Ordering::Relaxed)) {
                slot.store(WideId::encode(id.ecn(), forced).word(), Ordering::Relaxed);
            }
        }
        S::fence(Ordering::SeqCst);
        for slot in &self.bary {
            if let Some(id) = WideId::from_word(slot.load(Ordering::Relaxed)) {
                slot.store(WideId::encode(id.ecn(), forced).word(), Ordering::Release);
            }
        }
    }

    fn load_tary_word(&self, target: u64) -> u64 {
        let byte = target as usize;
        let idx = byte / 8;
        let off = byte % 8;
        if idx >= self.tary.len() {
            return 0;
        }
        let lo = self.tary[idx].load(Ordering::Acquire);
        if off == 0 {
            return lo;
        }
        let hi = if idx + 1 < self.tary.len() {
            self.tary[idx + 1].load(Ordering::Acquire)
        } else {
            0
        };
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&lo.to_le_bytes());
        bytes[8..].copy_from_slice(&hi.to_le_bytes());
        u64::from_le_bytes(bytes[off..off + 8].try_into().expect("fixed width"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn wide_encode_round_trips_extremes() {
        for (e, v) in [(0, 0), (WIDE_ECN_LIMIT - 1, WIDE_VERSION_LIMIT - 1), (12345, 67890)] {
            let id = WideId::encode(e, v);
            assert_eq!(id.ecn(), e);
            assert_eq!(id.version(), v);
            assert!(WideId::from_word(id.word()).is_some());
        }
    }

    #[test]
    fn zero_is_not_a_valid_wide_id() {
        assert!(WideId::from_word(0).is_none());
    }

    #[test]
    fn wide_tables_enforce_the_policy() {
        let t = WideIdTables::new(128, 2);
        t.update(
            |a| match a {
                16 => Some(1),
                32 | 40 => Some(2),
                _ => None,
            },
            |s| Some([1, 2][s]),
        );
        assert!(t.check(0, 16).is_ok());
        assert!(t.check(1, 32).is_ok());
        assert!(t.check(0, 32).is_err());
        assert!(t.check(0, 24).is_err());
        assert!(t.check(0, 20).is_err(), "8-byte alignment required");
    }

    #[test]
    fn an_empty_wide_branch_slot_is_a_violation_not_a_panic() {
        // The policy above over three slots: slot 2 is never filled.
        let t = WideIdTables::new(128, 3);
        t.update(
            |a| match a {
                16 => Some(1),
                32 | 40 => Some(2),
                _ => None,
            },
            |s| [Some(1), Some(2), None][s],
        );
        let kind = |target| t.check(2, target).unwrap_err().kind;
        // A zero target word equals the empty slot's word, but is no ID.
        assert_eq!(kind(24), ViolationKind::NotATarget);
        assert_eq!(kind(16), ViolationKind::EmptyBranchSlot);
        assert_eq!(kind(20), ViolationKind::UnalignedTarget);
    }

    #[test]
    fn version_space_vastly_exceeds_narrow_ids() {
        assert!(WIDE_VERSION_LIMIT / u64::from(crate::VERSION_LIMIT) == 1 << 14);
    }

    #[test]
    fn wide_version_wraparound_is_survivable() {
        // The wide-ID analogue of the narrow wraparound test (DESIGN.md
        // §5): park the counter just below 2^28 via the fault-injection
        // seam, then drive real updates across the wrap.
        let t = WideIdTables::new(64, 1);
        let install = |tables: &WideIdTables| {
            tables.update(|a| (a == 8).then_some(7), |_| Some(7));
        };
        install(&t);
        t.force_version(WIDE_VERSION_LIMIT - 3);
        assert!(t.check(0, 8).is_ok(), "forced version must not skew the tables");
        for step in 0..6 {
            install(&t);
            assert!(t.check(0, 8).is_ok(), "step {step} across the wrap");
            assert!(t.check(0, 16).is_err(), "step {step}: policy still enforced");
        }
        assert_eq!(t.current_version(), 3, "counter wrapped through zero");
    }

    #[test]
    fn ecn_space_supports_huge_programs() {
        // gcc in the paper needs ~2000 classes; 2^28 leaves five orders
        // of magnitude of headroom.
        let t = WideIdTables::new(64, 1);
        t.update(|a| (a == 8).then_some(WIDE_ECN_LIMIT - 1), |_| Some(WIDE_ECN_LIMIT - 1));
        assert!(t.check(0, 8).is_ok());
    }

    proptest! {
        #[test]
        fn wide_round_trip(e in 0u64..WIDE_ECN_LIMIT, v in 0u64..WIDE_VERSION_LIMIT) {
            let id = WideId::encode(e, v);
            prop_assert_eq!(id.ecn(), e);
            prop_assert_eq!(id.version(), v);
        }

        #[test]
        fn wide_misaligned_reads_never_validate(
            e1 in 0u64..WIDE_ECN_LIMIT, v1 in 0u64..WIDE_VERSION_LIMIT,
            e2 in 0u64..WIDE_ECN_LIMIT, v2 in 0u64..WIDE_VERSION_LIMIT,
            shift in 1usize..8,
        ) {
            let lo = WideId::encode(e1, v1).word().to_le_bytes();
            let hi = WideId::encode(e2, v2).word().to_le_bytes();
            let both = [lo, hi].concat();
            let w = u64::from_le_bytes(both[shift..shift + 8].try_into().unwrap());
            prop_assert!(WideId::from_word(w).is_none());
        }
    }
}
