//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **single-word IDs vs. split metadata** — MCFI packs the version and
//!   the ECN into one word so a check is one load per table and one
//!   full-word compare (the Fig. 4 fast path); the ablation keeps them
//!   in two separate atomics (a TML-ish layout) and pays two loads per
//!   table and a compare for each half. Both legs are plain arrays with
//!   the same bounds test and version retry, so they differ only in the
//!   layout.
//! * **array Tary vs. hash-map Tary** — §5.1 discusses and rejects a hash
//!   map because of the extra instructions per lookup.
//! * **alignment no-ops vs. address masking** — footnote 1 considers
//!   masking the target's low bits instead of aligning targets; masking
//!   adds an instruction to the hot path.
//!
//! Each pair of legs runs in interleaved rounds ([`mcfi_bench::timing`]).
//! Writes `BENCH_ablations.json`.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU32, Ordering};

use mcfi_bench::timing::{ns_per_iter, rounds, Report};
use parking_lot::RwLock;

use mcfi_tables::{Ecn, Id, IdTables, TablesConfig, Version};

const CODE: usize = 4096;
const CLASSES: u32 = 64;
/// Calls per timed run.
const ITERS: u64 = 1 << 20;

const CONFIG: TablesConfig = TablesConfig { code_size: CODE, bary_slots: CLASSES as usize };

fn tary_ecn(a: u64) -> Option<u32> {
    a.is_multiple_of(16).then_some((a / 16) as u32 % CLASSES)
}

fn bary_ecn(s: usize) -> Option<u32> {
    Some(s as u32 % CLASSES)
}

fn filled_tables() -> IdTables {
    let t = IdTables::new(CONFIG);
    t.update(tary_ecn, bary_ecn);
    t
}

/// The paper's packed layout: one array of ID words per table, the
/// version and the ECN in each word.
struct PackedTables {
    tary: Vec<AtomicU32>,
    bary: Vec<AtomicU32>,
}

impl PackedTables {
    fn new() -> Self {
        let word = |ecn: Option<u32>| {
            let id = ecn.map(|e| Id::encode(Ecn::new(e), Version::new(1)));
            AtomicU32::new(id.map_or(0, Id::word))
        };
        PackedTables {
            tary: (0..CODE as u64 / 4).map(|i| word(tary_ecn(4 * i))).collect(),
            bary: (0..CLASSES as usize).map(|s| word(bary_ecn(s))).collect(),
        }
    }

    /// One load per table and one compare (Fig. 4's fast path); on a
    /// mismatch, two valid IDs of different versions retry.
    fn check(&self, slot: usize, addr: u64) -> bool {
        let idx = (addr / 4) as usize;
        if !addr.is_multiple_of(4) || idx >= self.tary.len() {
            return false;
        }
        loop {
            let branch = self.bary[slot].load(Ordering::Acquire);
            let target = self.tary[idx].load(Ordering::Acquire);
            if branch == target {
                return true;
            }
            match (Id::from_word(branch), Id::from_word(target)) {
                (Some(b), Some(t)) if b.version() != t.version() => std::hint::spin_loop(),
                _ => return false,
            }
        }
    }
}

/// Split-metadata layout: ECN and version in separate atomic arrays.
struct SplitTables {
    ecn: Vec<AtomicU32>,
    version: Vec<AtomicU32>,
    bary_ecn: Vec<AtomicU32>,
    bary_version: Vec<AtomicU32>,
}

impl SplitTables {
    fn new() -> Self {
        let n = CODE / 4;
        let s = SplitTables {
            ecn: (0..n).map(|_| AtomicU32::new(0)).collect(),
            version: (0..n).map(|_| AtomicU32::new(0)).collect(),
            bary_ecn: (0..CLASSES as usize).map(|_| AtomicU32::new(0)).collect(),
            bary_version: (0..CLASSES as usize).map(|_| AtomicU32::new(0)).collect(),
        };
        for i in 0..n {
            if (i * 4) % 16 == 0 {
                s.ecn[i].store((i as u32 / 4) % CLASSES + 1, Ordering::Relaxed);
                s.version[i].store(1, Ordering::Relaxed);
            }
        }
        for (i, e) in s.bary_ecn.iter().enumerate() {
            e.store(i as u32 % CLASSES + 1, Ordering::Relaxed);
        }
        for v in &s.bary_version {
            v.store(1, Ordering::Relaxed);
        }
        s
    }

    /// Two loads and two compares per side: the cost MCFI's packed IDs
    /// avoid.
    fn check(&self, slot: usize, addr: u64) -> bool {
        let idx = (addr / 4) as usize;
        if !addr.is_multiple_of(4) || idx >= self.ecn.len() {
            return false;
        }
        loop {
            let be = self.bary_ecn[slot].load(Ordering::Acquire);
            let bv = self.bary_version[slot].load(Ordering::Acquire);
            let te = self.ecn[idx].load(Ordering::Acquire);
            let tv = self.version[idx].load(Ordering::Acquire);
            if te == 0 {
                return false;
            }
            if bv != tv {
                std::hint::spin_loop();
                continue;
            }
            return be == te;
        }
    }
}

/// ns per call of `f` over [`ITERS`] calls, `f` taking the code
/// region's 16-byte-aligned targets in turn.
fn walk<R>(mut f: impl FnMut(u64) -> R) -> f64 {
    let mut addr = 0u64;
    ns_per_iter(ITERS, || {
        let r = f(black_box(addr));
        addr = (addr + 16) % CODE as u64;
        r
    })
}

/// Times one ablation: `run(leg)` times leg `legs[leg]` with [`walk`].
fn compare(report: &mut Report, group: &str, legs: [&str; 2], run: impl FnMut(usize) -> f64) {
    for (leg, ns) in legs.iter().zip(rounds(2, run)) {
        report.row(format!("{group}/{leg}"), "ns", &ns);
    }
}

fn slot(addr: u64) -> usize {
    (addr / 16) as usize % CLASSES as usize
}

fn main() {
    let mut report = Report::new("ablations");
    let packed = filled_tables();
    // Both legs are plain arrays over the same policy. `IdTables`' own
    // word loads add a bounds test, the shared-base fallback and the
    // straddle branch, which the split leg does not pay.
    let words = PackedTables::new();
    let split = SplitTables::new();
    for addr in (0..CODE as u64).step_by(4) {
        let (p, s) = (words.check(slot(addr), addr), split.check(slot(addr), addr));
        assert_eq!(p, s, "the layouts disagree at {addr:#x}");
        assert_eq!(p, addr.is_multiple_of(16), "check({addr:#x})");
    }
    compare(&mut report, "id_packing", ["packed_single_word", "split_metadata"], |leg| match leg {
        0 => walk(|addr| words.check(slot(addr), addr)),
        _ => walk(|addr| split.check(slot(addr), addr)),
    });

    // The rejected design: a hash map from address to ID, guarded by a
    // readers-writer lock so it can be updated at runtime.
    let map: RwLock<HashMap<u64, u32>> = RwLock::new(
        (0..CODE as u64)
            .step_by(16)
            .map(|a| {
                (a, Id::encode(Ecn::new((a / 16) as u32 % CLASSES), Version::new(1)).word())
            })
            .collect(),
    );
    compare(&mut report, "tary_repr", ["array", "hash_map"], |leg| match leg {
        0 => walk(|addr| packed.tary_word(addr)),
        _ => walk(|addr| map.read().get(&addr).copied().unwrap_or(0)),
    });

    // Footnote 1: instead of aligning targets with no-ops, mask the two
    // low bits of the target before the Tary lookup. The mask variant
    // adds an `and` to every check; its inputs are deliberately
    // misaligned.
    compare(&mut report, "align_vs_mask", ["aligned_targets", "masked_targets"], |leg| match leg {
        0 => walk(|addr| packed.check(slot(addr), addr).is_ok()),
        _ => walk(|addr| {
            let masked = black_box(addr + 1) & !3;
            packed.check(slot(masked), masked).is_ok()
        }),
    });
    report.finish();
}
