//! Runtime ID tables and table-access transactions for MCFI.
//!
//! This crate implements Section 5 of *Modular Control-Flow Integrity*
//! (Niu & Tan, PLDI 2014): the `Bary` (branch-ID) and `Tary` (target-ID)
//! tables, the 4-byte ID encoding with reserved validity bits, and the two
//! kinds of table transactions:
//!
//! * [`IdTables::check`] — the `TxCheck` transaction executed before every
//!   indirect branch: a speculative, lock-free pair of table reads plus a
//!   single-word comparison. On a version mismatch (a concurrent
//!   [`IdTables::update`] is in flight) the check retries; on an ECN
//!   mismatch or an invalid target ID it reports a CFI violation.
//! * [`IdTables::update`] — the `TxUpdate` transaction executed during
//!   dynamic linking: serialized by a global update lock, it bumps the
//!   global version, rewrites the Tary table, issues a memory barrier, and
//!   then rewrites the Bary table, so concurrent checks observe either the
//!   wholly-old or wholly-new CFG (linearizability).
//!
//! Every write path — [`IdTables::update`], the `bump_version` variants,
//! `force_version` and `bump_version_split` — is one transaction routine:
//! a shared opener (update lock, lease stamp, version bump) and commit
//! (abandoned flag and lease stamp cleared, update count and publication
//! epoch advanced) around a Tary phase and a Bary phase. Both phases use
//! one set of per-table helpers (install a policy, re-stamp a version,
//! read a raw word), picked by the table side, which also fixes the
//! phase's store ordering. The crash-repair pass and the seeded-bug test
//! seams reuse the same helpers. On the check side, [`IdTables::check`]
//! is the retry loop around [`IdTables::check_once`], one speculative
//! attempt.
//!
//! Each shard lists, per table, the ascending indices of the words that
//! may be nonzero, so a transaction writes only those: an install walks
//! the merge of its new policy's entries, the shard's list and, for a
//! delta, the base's; every re-stamp walks the list.
//! [`IdTables::update_sorted`], which takes a policy as sorted entries,
//! is what the runtime installs with; the closure-based
//! [`IdTables::update`] asks about every entry, writes every word, and is
//! the reference the tests compare it against. Dropped tables hand their
//! words back to the sync facade, which production code reuses for the
//! next table after zeroing the listed words.
//!
//! The [`stm`] module contains the alternative synchronization strategies
//! the paper micro-benchmarks against (TML, a readers-writer lock, and a
//! compare-and-swap mutex), and [`quiescence`] implements the update-counter
//! mitigation for the 14-bit version-number ABA problem discussed in §5.2.
//!
//! # Example
//!
//! ```
//! use mcfi_tables::{IdTables, TablesConfig};
//!
//! // A 64-byte code region: one branch (bary index 0) that may target
//! // address 8, both in equivalence class 3.
//! let tables = IdTables::new(TablesConfig { code_size: 64, bary_slots: 1 });
//! tables.update(|addr| if addr == 8 { Some(3) } else { None },
//!               |slot| if slot == 0 { Some(3) } else { None });
//! assert!(tables.check(0, 8).is_ok());
//! assert!(tables.check(0, 12).is_err()); // not a target at all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod id;
pub mod quiescence;
mod shared;
pub mod stm;
pub mod sync;
mod tables;
pub mod wide;

pub use error::{CfiViolation, CheckError, CheckStalled, ViolationKind};
pub use id::{Ecn, Id, Version, ECN_LIMIT, VERSION_LIMIT};
pub use shared::{SharedTables, SharedTablesAt};
pub use sync::{StdSync, SyncFacade};
pub use tables::{
    IdTables, IdTablesAt, LeaseConfig, RetryConfig, SplitBump, TablesConfig, TaryView,
    TxCounters, UpdateStats, WatchdogVerdict,
};
