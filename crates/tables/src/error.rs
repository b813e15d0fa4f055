//! CFI violation reporting.

use core::fmt;

use crate::id::Ecn;

/// Why a check transaction rejected an indirect branch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ViolationKind {
    /// The target address is not 4-byte aligned, so the word loaded from the
    /// Tary table straddles IDs and fails the reserved-bit validity test.
    UnalignedTarget,
    /// The target address is aligned but is not a possible indirect-branch
    /// target under the current CFG (its Tary entry is all zeros).
    NotATarget,
    /// The target's ID is valid, but the branch's Bary slot holds no ID:
    /// no policy filled the slot, or a delta revoked the branch. The
    /// branch may reach nothing.
    EmptyBranchSlot,
    /// Both IDs are valid and same-version, but belong to different
    /// equivalence classes: a genuine control-flow policy violation.
    EcnMismatch {
        /// Equivalence class the branch is allowed to jump into.
        branch: Ecn,
        /// Equivalence class the actual target belongs to.
        target: Ecn,
    },
}

/// A control-flow-integrity violation detected by a check transaction.
///
/// Corresponds to the `hlt` exits of the paper's Fig. 4 sequence.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CfiViolation {
    /// The Bary-table slot of the offending indirect branch.
    pub bary_slot: usize,
    /// The address the branch attempted to reach.
    pub target: u64,
    /// The specific failure.
    pub kind: ViolationKind,
}

impl fmt::Display for CfiViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ViolationKind::UnalignedTarget => write!(
                f,
                "cfi violation: branch {} targets unaligned address {:#x}",
                self.bary_slot, self.target
            ),
            ViolationKind::NotATarget => write!(
                f,
                "cfi violation: branch {} targets non-target address {:#x}",
                self.bary_slot, self.target
            ),
            ViolationKind::EmptyBranchSlot => write!(
                f,
                "cfi violation: branch {} has no ID and may not reach {:#x}",
                self.bary_slot, self.target
            ),
            ViolationKind::EcnMismatch { branch, target } => write!(
                f,
                "cfi violation: branch {} ({}) may not reach {:#x} ({})",
                self.bary_slot, branch, self.target, target
            ),
        }
    }
}

impl std::error::Error for CfiViolation {}

/// A check transaction that exhausted its retry budget without ever
/// observing version-consistent tables.
///
/// Under a live updater this cannot happen: the mixed-version window is
/// bounded by the Bary phase of the in-flight update. A stall therefore
/// diagnoses a *dead or wedged updater* — one that abandoned the
/// transaction while the tables were skewed and whose damage could not
/// be repaired (e.g. it still holds the update lock).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CheckStalled {
    /// The Bary-table slot of the stalled indirect branch.
    pub bary_slot: usize,
    /// The address the branch attempted to reach.
    pub target: u64,
    /// How many retries were spent before giving up.
    pub retries: u64,
}

impl fmt::Display for CheckStalled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "check stalled: branch {} -> {:#x} saw version skew for {} retries (updater dead?)",
            self.bary_slot, self.target, self.retries
        )
    }
}

impl std::error::Error for CheckStalled {}

/// Failure modes of a bounded check transaction
/// ([`IdTables::check_bounded`]).
///
/// [`IdTables::check_bounded`]: crate::IdTables::check_bounded
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckError {
    /// The transfer violates the CFG — the `hlt` outcome.
    Violation(CfiViolation),
    /// The retry budget ran out while the tables stayed version-skewed.
    Stalled(CheckStalled),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Violation(v) => v.fmt(f),
            CheckError::Stalled(s) => s.fmt(f),
        }
    }
}

impl std::error::Error for CheckError {}

impl From<CfiViolation> for CheckError {
    fn from(v: CfiViolation) -> Self {
        CheckError::Violation(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let v = CfiViolation {
            bary_slot: 3,
            target: 0x40,
            kind: ViolationKind::NotATarget,
        };
        let s = v.to_string();
        assert!(s.contains("branch 3"));
        assert!(s.contains("0x40"));
    }

    #[test]
    fn ecn_mismatch_shows_both_classes() {
        let v = CfiViolation {
            bary_slot: 0,
            target: 0x10,
            kind: ViolationKind::EcnMismatch {
                branch: Ecn::new(1),
                target: Ecn::new(2),
            },
        };
        let s = v.to_string();
        assert!(s.contains("ecn#1") && s.contains("ecn#2"), "{s}");
    }
}
