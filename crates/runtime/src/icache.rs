//! The code cache for the SimX64 hot path: predecoded instructions,
//! and the translated tier's blocks beside them.
//!
//! Uncached, every [`crate::vm::Vm::step`] pays two byte-level taxes: a
//! linear region scan (`check_exec`) and a full variable-length decode
//! of the instruction at `pc`. Verified MCFI code never changes between
//! a module being flipped executable and the next loader event, so both
//! answers are stable for long stretches — millions of steps for the
//! benchmark workloads. This module memoises them in a flat side-table
//! per executable region, built eagerly with one
//! [`mcfi_machine::decode_sweep`] pass when a region first becomes
//! visible and refreshed lazily for any pc the sweep did not reach
//! (e.g. mid-instruction gadget targets).
//!
//! The same per-region segments hold the baseline-compiled tier's block
//! index ([`crate::trans`]), allocated when the tier first translates in
//! a segment; translation reads its instructions from the slots. When
//! the tier cannot run a block at `pc`, execution takes one predecoded
//! step here ([`crate::vm::Vm::step_cached`]).
//!
//! # Invalidation
//!
//! Correctness hangs on one question: *when may a memoised decoding go
//! stale?* Only when the bytes an instruction fetch observes change, and
//! under W^X every such change funnels through four `Sandbox` methods —
//! `map`, `protect`, `load_image`, and `raw_mut` — each of which bumps
//! the sandbox's generation counter. `write8`/`write64` cannot touch
//! executable bytes (they fault on non-writable regions, and no region
//! is ever writable and executable), so they leave the generation alone
//! and the cache survives ordinary data traffic untouched. Every fetch
//! and every translated dispatch compares the cache's build generation
//! against the sandbox's; any mismatch throws the whole cache away —
//! slots and translated blocks alike — and rebuilds, so dlopen-style
//! loader patches (GOT slot rewrites, Bary-slot immediates) are
//! re-decoded before they can execute stale.
//!
//! # Why this cannot weaken the security model
//!
//! The cache never *invents* an answer: a hit replays exactly what
//! `check_exec` + `decode` returned against the same generation's bytes,
//! and every miss calls the real thing. Entries whose byte span crosses
//! their region boundary are never memoised (the spilled-into bytes
//! might be writable data), and the concurrent-attacker harness bypasses
//! the cache entirely — the attacker mutates raw memory between steps,
//! which both bumps the generation *and* uses the uncached [`Vm::step`]
//! fetch path, so TxCheck races are simulated against live memory.
//!
//! [`Vm::step`]: crate::vm::Vm::step

use mcfi_machine::{cost_of, decode, decode_sweep, DecodeError, Inst};
use mcfi_tables::IdTables;

use crate::mem::Sandbox;
use crate::trans::{translate, Block};
use crate::vm::{VmError, VmStats};

/// One predecoded fetch result. `len == 0` marks an empty slot — no
/// valid instruction length is zero, so no sentinel collision exists.
#[derive(Clone, Copy)]
struct Slot {
    inst: Inst,
    len: u8,
    cost: u32,
}

impl Slot {
    const EMPTY: Slot = Slot { inst: Inst::Hlt, len: 0, cost: 0 };
}

/// Block-index sentinel: pc not translated yet.
const UNVISITED: u32 = u32::MAX;
/// Block-index sentinel: translation at this pc produced nothing (the pc
/// starts at a `Hlt` or undecodable bytes); permanently interpreted.
const UNTRANSLATABLE: u32 = u32::MAX - 1;

/// The decoded view of one executable region, indexed by `pc - start`.
pub(crate) struct Segment {
    start: u64,
    end: u64,
    slots: Vec<Slot>,
    /// The translated tier's block index, `blocks[pc - start]`: an index
    /// into [`PredecodeCache::blocks`] or a sentinel. Empty until the
    /// tier first translates in this segment.
    blocks: Vec<u32>,
}

impl Segment {
    fn contains(&self, pc: u64) -> bool {
        self.start <= pc && pc < self.end
    }

    /// Decodes the instruction at `pc` (inside the segment) live and
    /// memoises it, unless its bytes spill past the segment: the tail
    /// might live in writable memory, whose mutation would not bump the
    /// generation, so such a pc stays a permanent (correct, just slow)
    /// miss.
    fn decode_into_slot(
        &mut self,
        mem: &Sandbox,
        pc: u64,
    ) -> Result<(Inst, u64, u64), DecodeError> {
        let (inst, len) = decode(mem.raw(), pc as usize)?;
        let cost = cost_of(&inst);
        if pc + len as u64 <= self.end {
            self.slots[(pc - self.start) as usize] =
                Slot { inst, len: len as u8, cost: cost as u32 };
        }
        Ok((inst, len as u64, cost))
    }

    /// The `(inst, len, cost)` at `pc` if the instruction lies — bytes
    /// included — inside the segment. Fills an empty slot the way a
    /// fetch miss does, but counts nothing: translation reads code
    /// through here.
    pub(crate) fn inst_within(&mut self, mem: &Sandbox, pc: u64) -> Option<(Inst, u64, u64)> {
        if !self.contains(pc) {
            return None;
        }
        let slot = self.slots[(pc - self.start) as usize];
        if slot.len != 0 {
            return Some((slot.inst, u64::from(slot.len), u64::from(slot.cost)));
        }
        let (inst, len, cost) = self.decode_into_slot(mem, pc).ok()?;
        (pc + len <= self.end).then_some((inst, len, cost))
    }
}

/// A per-process code cache: predecoded slots for every fetch path and
/// the translated tier's blocks (see the module docs).
pub struct PredecodeCache {
    /// The sandbox generation the segments were built against.
    /// `u64::MAX` is unreachable (generations start at 0 and increment),
    /// so a fresh cache always rebuilds on first use.
    generation: u64,
    segments: Vec<Segment>,
    /// Index of the segment that served the last hit — straight-line
    /// code stays inside one module for long runs, so this check almost
    /// always short-circuits the segment search.
    last_segment: usize,
    /// The translated tier's blocks, indexed by the segments' block
    /// indexes.
    blocks: Vec<Block>,
    /// Whether live blocks were ever retired — after which new
    /// translations count as *re*translations.
    deopted_once: bool,
}

impl Default for PredecodeCache {
    fn default() -> Self {
        PredecodeCache::new()
    }
}

impl PredecodeCache {
    /// An empty cache; the first fetch populates it.
    pub fn new() -> Self {
        PredecodeCache {
            generation: u64::MAX,
            segments: Vec::new(),
            last_segment: 0,
            blocks: Vec::new(),
            deopted_once: false,
        }
    }

    /// Fetches the instruction at `pc`, serving from the side-table when
    /// the sandbox generation proves the memoised decoding still valid.
    ///
    /// Returns `(inst, len, cost)` — bit-identical to what
    /// `mem.check_exec(pc)` + `decode(mem.raw(), pc)` + `cost_of` would
    /// produce right now.
    ///
    /// # Errors
    ///
    /// Exactly the faults the uncached fetch path raises: `Unmapped` or
    /// `ExecProtected` from the execute check, or a `DecodeError` at a
    /// genuinely undecodable pc.
    #[inline]
    pub fn fetch(
        &mut self,
        mem: &Sandbox,
        pc: u64,
        stats: &mut VmStats,
    ) -> Result<(Inst, u64, u64), VmError> {
        // Hot path, kept small enough to inline into the run loop: the
        // generation still matches, the pc is in the segment that served
        // the last fetch, and its slot is filled. The wrapping subtract
        // against the slot count is one unsigned compare doing double
        // duty as the range test and the bounds-check elision.
        if self.generation == mem.generation() {
            if let Some(seg) = self.segments.get(self.last_segment) {
                let off = pc.wrapping_sub(seg.start) as usize;
                if off < seg.slots.len() {
                    let slot = seg.slots[off];
                    if slot.len != 0 {
                        stats.icache_hits += 1;
                        return Ok((slot.inst, u64::from(slot.len), u64::from(slot.cost)));
                    }
                }
            }
        }
        self.fetch_slow(mem, pc, stats)
    }

    /// Everything the fast path could not serve: rebuilds after a
    /// generation change, cross-segment transfers, and empty slots.
    #[inline(never)]
    fn fetch_slow(
        &mut self,
        mem: &Sandbox,
        pc: u64,
        stats: &mut VmStats,
    ) -> Result<(Inst, u64, u64), VmError> {
        self.validate(mem, stats);
        if let Some(idx) = self.segment_index(pc) {
            self.last_segment = idx;
            let seg = &mut self.segments[idx];
            let slot = seg.slots[(pc - seg.start) as usize];
            if slot.len != 0 {
                stats.icache_hits += 1;
                return Ok((slot.inst, u64::from(slot.len), u64::from(slot.cost)));
            }
            // A pc the eager sweep walked over — typically mid-instruction.
            // The segment was built from an Rx region at the current
            // generation, so the execute check is already answered; decode
            // live and memoise for the next visit.
            stats.icache_misses += 1;
            return Ok(seg.decode_into_slot(mem, pc)?);
        }
        // Outside every executable region: defer to the real checks so the
        // caller sees the exact uncached fault (Unmapped/ExecProtected).
        stats.icache_misses += 1;
        mem.check_exec(pc)?;
        let (inst, len) = decode(mem.raw(), pc as usize)?;
        Ok((inst, len as u64, cost_of(&inst)))
    }

    /// The one invalidation rule for slots and blocks alike: a sandbox
    /// generation change rebuilds every segment (counted in
    /// `icache_invalidations`) and retires every translated block.
    pub(crate) fn validate(&mut self, mem: &Sandbox, stats: &mut VmStats) {
        if self.generation != mem.generation() {
            self.retire_blocks(stats);
            self.rebuild(mem);
            stats.icache_invalidations += 1;
        }
    }

    /// Retires every translated block, counting a deopt if any were
    /// live; the slots stay. The `trans-invalidate` chaos point calls
    /// this mid-run.
    pub(crate) fn retire_blocks(&mut self, stats: &mut VmStats) {
        if self.blocks.is_empty() {
            return;
        }
        stats.trans_deopts += 1;
        self.deopted_once = true;
        self.blocks.clear();
        for seg in &mut self.segments {
            seg.blocks.clear();
        }
    }

    /// The translated block at `pc`, translating it on the first visit
    /// (see [`crate::trans`]). `None` when `pc` lies outside every
    /// executable region or nothing there translates. The caller has
    /// already run [`PredecodeCache::validate`].
    pub(crate) fn block(
        &mut self,
        mem: &Sandbox,
        tables: &IdTables,
        pc: u64,
        stats: &mut VmStats,
    ) -> Option<&Block> {
        let idx = self.segment_index(pc)?;
        self.last_segment = idx;
        let seg = &mut self.segments[idx];
        if seg.blocks.is_empty() {
            seg.blocks.resize(seg.slots.len(), UNVISITED);
        }
        let off = (pc - seg.start) as usize;
        if seg.blocks[off] == UNVISITED {
            let translated = translate(seg, mem, tables, pc);
            seg.blocks[off] = match translated {
                Some(block) => {
                    stats.trans_translations += 1;
                    if self.deopted_once {
                        stats.trans_retranslations += 1;
                    }
                    self.blocks.push(block);
                    (self.blocks.len() - 1) as u32
                }
                None => UNTRANSLATABLE,
            };
        }
        match seg.blocks[off] {
            UNTRANSLATABLE => None,
            bi => Some(&self.blocks[bi as usize]),
        }
    }

    fn segment_index(&self, pc: u64) -> Option<usize> {
        if let Some(seg) = self.segments.get(self.last_segment) {
            if seg.contains(pc) {
                return Some(self.last_segment);
            }
        }
        self.segments.iter().position(|s| s.contains(pc))
    }

    /// Rebuilds every segment from the sandbox's current executable
    /// regions, eagerly sweeping each one into its side-table.
    fn rebuild(&mut self, mem: &Sandbox) {
        self.generation = mem.generation();
        self.segments.clear();
        self.last_segment = 0;
        for r in mem.regions().iter().filter(|r| r.perm.executable()) {
            let region_len = (r.end - r.start) as usize;
            let mut slots = vec![Slot::EMPTY; region_len];
            for (at, inst, len) in decode_sweep(mem.raw(), r.start as usize, r.end as usize) {
                // The spill rule of `Segment::decode_into_slot`.
                if at + len <= r.end as usize {
                    slots[at - r.start as usize] =
                        Slot { inst, len: len as u8, cost: cost_of(&inst) as u32 };
                }
            }
            self.segments.push(Segment { start: r.start, end: r.end, slots, blocks: Vec::new() });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{MemFault, Perm};
    use mcfi_machine::{encode, Reg};

    fn stats() -> VmStats {
        VmStats::default()
    }

    fn rx_sandbox(insts: &[Inst]) -> Sandbox {
        let mut mem = Sandbox::new(0x1000);
        mem.map(0, 0x100, Perm::Rw).unwrap();
        mem.load_image(0, &encode(insts)).unwrap();
        mem.protect(0, Perm::Rx).unwrap();
        mem
    }

    #[test]
    fn fetch_matches_pointwise_decode() {
        let insts =
            [Inst::MovImm { dst: Reg::Rax, imm: 7 }, Inst::Push { reg: Reg::Rax }, Inst::Ret];
        let mem = rx_sandbox(&insts);
        let mut cache = PredecodeCache::new();
        let mut st = stats();
        let mut pc = 0u64;
        for inst in insts {
            let (got, len, cost) = cache.fetch(&mem, pc, &mut st).unwrap();
            assert_eq!(got, inst);
            assert_eq!(cost, cost_of(&inst));
            pc += len;
        }
        assert_eq!(st.icache_invalidations, 1, "one eager build");
        assert_eq!(st.icache_hits, 3, "eager sweep prefilled every aligned pc");
    }

    #[test]
    fn mid_instruction_pc_is_a_miss_then_a_hit() {
        // pc 2 is inside the MovImm immediate; the eager sweep skips it,
        // but a gadget-hunting fetch there must still decode live.
        let mem = rx_sandbox(&[
            Inst::MovImm { dst: Reg::Rax, imm: 0x16 }, // 0x16 = Ret opcode
            Inst::Ret,
        ]);
        let mut cache = PredecodeCache::new();
        let mut st = stats();
        let (inst, _, _) = cache.fetch(&mem, 2, &mut st).unwrap();
        assert_eq!(inst, Inst::Ret, "decoding inside the immediate yields the gadget");
        assert_eq!(st.icache_misses, 1);
        let _ = cache.fetch(&mem, 2, &mut st).unwrap();
        assert_eq!(st.icache_hits, 1, "the lazy fill memoised the gadget pc");
    }

    #[test]
    fn generation_bump_rebuilds_and_sees_new_bytes() {
        let mut mem = rx_sandbox(&[Inst::Nop, Inst::Ret]);
        let mut cache = PredecodeCache::new();
        let mut st = stats();
        assert_eq!(cache.fetch(&mem, 0, &mut st).unwrap().0, Inst::Nop);

        // Loader-style patch: flip writable, rewrite, flip back.
        mem.protect(0, Perm::Rw).unwrap();
        mem.load_image(0, &encode(&[Inst::Ret])).unwrap();
        mem.protect(0, Perm::Rx).unwrap();

        let (inst, _, _) = cache.fetch(&mem, 0, &mut st).unwrap();
        assert_eq!(inst, Inst::Ret, "patched byte must be re-decoded");
        assert_eq!(st.icache_invalidations, 2);
    }

    #[test]
    fn faults_match_the_uncached_path() {
        let mut mem = Sandbox::new(0x1000);
        mem.map(0, 0x100, Perm::Rw).unwrap();
        let mut cache = PredecodeCache::new();
        let mut st = stats();
        assert!(matches!(
            cache.fetch(&mem, 0x10, &mut st),
            Err(VmError::Mem(MemFault::ExecProtected { .. }))
        ));
        assert!(matches!(
            cache.fetch(&mem, 0x800, &mut st),
            Err(VmError::Mem(MemFault::Unmapped { .. }))
        ));
    }

    #[test]
    fn data_writes_do_not_invalidate() {
        let mut mem = rx_sandbox(&[Inst::Nop, Inst::Ret]);
        mem.map(0x200, 0x100, Perm::Rw).unwrap();
        let mut cache = PredecodeCache::new();
        let mut st = stats();
        let _ = cache.fetch(&mem, 0, &mut st).unwrap();
        mem.write64(0x200, 0xdead).unwrap();
        let _ = cache.fetch(&mem, 1, &mut st).unwrap();
        assert_eq!(st.icache_invalidations, 1, "store to data must not rebuild the cache");
    }
}
