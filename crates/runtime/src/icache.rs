//! The code cache for the SimX64 hot path: predecoded instructions,
//! and the translated tier's blocks beside them.
//!
//! Uncached, every [`crate::vm::Vm::step`] pays two byte-level taxes: a
//! linear region scan (`check_exec`) and a full variable-length decode
//! of the instruction at `pc`. Verified MCFI code never changes between
//! a module being flipped executable and the next loader event, so both
//! answers are stable for long stretches — millions of steps for the
//! benchmark workloads. This module memoises them per executable region:
//! one slot per decoded instruction and a `u32` slot index per code byte,
//! built eagerly with one [`mcfi_machine::decode_sweep`] pass when a
//! region first becomes visible and refreshed lazily for any pc the
//! sweep did not reach (e.g. mid-instruction gadget targets).
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
//! under W^X every such change funnels through five `Sandbox` methods —
//! `map`, `protect`, `load_image`, `raw_mut` and `restore` — each of
//! which bumps the sandbox's generation counter and stamps the regions it
//! changed with the new generation. `write8`/`write64` cannot touch
//! executable bytes (they fault on non-writable regions, and no region
//! is ever writable and executable), so they leave the generation alone
//! and the cache survives ordinary data traffic untouched. Every fetch
//! and every translated dispatch compares the cache's build generation
//! against the sandbox's; any mismatch retires every translated block
//! and rebuilds the slots, so dlopen-style loader patches (GOT slot
//! rewrites, Bary-slot immediates) are re-decoded before they can
//! execute stale.
//!
//! A rebuild keeps a region's segment when the region has the same
//! bounds, its stamp predates the last build and no fetch filled a slot
//! the sweep did not; it sweeps every other executable region. A sweep's
//! slots are a function of the region's own bytes: an instruction that
//! spills past the end is never memoised, and a decode checks no byte
//! past an instruction's first operand byte, so bytes past the end cannot
//! change where the walk steps inside the region. A kept segment
//! therefore holds exactly what a fresh sweep would, and counts the same
//! hits and misses, so a dlopen sweeps only the code it adds.
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

use crate::mem::{Region, Sandbox};
use crate::trans::{translate, Block};
use crate::vm::{VmError, VmStats};

/// One predecoded fetch result.
#[derive(Clone, Copy)]
struct Slot {
    inst: Inst,
    len: u8,
    cost: u32,
}

impl Slot {
    fn new(inst: Inst, len: usize) -> Self {
        Slot { inst, len: len as u8, cost: cost_of(&inst) as u32 }
    }

    fn fetched(&self) -> (Inst, u64, u64) {
        (self.inst, u64::from(self.len), u64::from(self.cost))
    }
}

/// Slot-index sentinel: no instruction memoised at this pc.
const EMPTY: u32 = u32::MAX;

/// Block-index sentinel: pc not translated yet.
const UNVISITED: u32 = u32::MAX;
/// Block-index sentinel: translation at this pc produced nothing (the pc
/// starts at a `Hlt` or undecodable bytes); permanently interpreted.
const UNTRANSLATABLE: u32 = u32::MAX - 1;

/// The decoded view of one executable region.
pub(crate) struct Segment {
    start: u64,
    end: u64,
    /// The memoised instructions: the sweep's in address order, then
    /// those filled lazily.
    slots: Vec<Slot>,
    /// `index[pc - start]`: the slot of the instruction at `pc`, or
    /// [`EMPTY`].
    index: Vec<u32>,
    /// Whether a fetch filled a slot the sweep did not. A rebuild sweeps
    /// such a segment again, so the pc misses once more, as it would in a
    /// fresh cache.
    lazy: bool,
    /// The translated tier's block index, `blocks[pc - start]`: an index
    /// into [`PredecodeCache::blocks`] or a sentinel. Empty until the
    /// tier first translates in this segment.
    blocks: Vec<u32>,
}

impl Segment {
    /// Sweeps region `r` into a new segment.
    fn sweep(mem: &Sandbox, r: &Region) -> Segment {
        let (start, end) = (r.start as usize, r.end as usize);
        let mut index = vec![EMPTY; end - start];
        let mut slots = Vec::new();
        for (at, inst, len) in decode_sweep(mem.raw(), start, end) {
            // The spill rule of `Segment::decode_into_slot`.
            if at + len <= end {
                index[at - start] = slots.len() as u32;
                slots.push(Slot::new(inst, len));
            }
        }
        slots.shrink_to_fit();
        Segment { start: r.start, end: r.end, slots, index, lazy: false, blocks: Vec::new() }
    }

    fn contains(&self, pc: u64) -> bool {
        self.start <= pc && pc < self.end
    }

    /// The memoised instruction at `pc` (inside the segment), if any.
    fn slot(&self, pc: u64) -> Option<&Slot> {
        self.slots.get(self.index[(pc - self.start) as usize] as usize)
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
        let slot = Slot::new(inst, len);
        if pc + len as u64 <= self.end {
            self.index[(pc - self.start) as usize] = self.slots.len() as u32;
            self.slots.push(slot);
            self.lazy = true;
        }
        Ok(slot.fetched())
    }

    /// The `(inst, len, cost)` at `pc` if the instruction lies — bytes
    /// included — inside the segment. Fills an empty slot the way a
    /// fetch miss does, but counts nothing: translation reads code
    /// through here.
    pub(crate) fn inst_within(&mut self, mem: &Sandbox, pc: u64) -> Option<(Inst, u64, u64)> {
        if !self.contains(pc) {
            return None;
        }
        if let Some(slot) = self.slot(pc) {
            return Some(slot.fetched());
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
        // against the index length is one unsigned compare doing double
        // duty as the range test and the bounds-check elision, and the
        // `EMPTY` index fails the slot lookup's own bounds check.
        if self.generation == mem.generation() {
            if let Some(seg) = self.segments.get(self.last_segment) {
                let off = pc.wrapping_sub(seg.start) as usize;
                if let Some(&i) = seg.index.get(off) {
                    if let Some(slot) = seg.slots.get(i as usize) {
                        stats.icache_hits += 1;
                        return Ok(slot.fetched());
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
            if let Some(slot) = seg.slot(pc) {
                stats.icache_hits += 1;
                return Ok(slot.fetched());
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
    /// generation change rebuilds the segments (counted in
    /// `icache_invalidations`; see [`PredecodeCache::rebuild`]) and
    /// retires every translated block.
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
    pub(crate) fn block(&mut self, mem: &Sandbox, pc: u64, stats: &mut VmStats) -> Option<&Block> {
        let idx = self.segment_index(pc)?;
        self.last_segment = idx;
        let seg = &mut self.segments[idx];
        if seg.blocks.is_empty() {
            seg.blocks.resize(seg.index.len(), UNVISITED);
        }
        let off = (pc - seg.start) as usize;
        if seg.blocks[off] == UNVISITED {
            let translated = translate(seg, mem, pc);
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

    /// Rebuilds the segments from the sandbox's current executable
    /// regions: keeps each segment that still holds what a fresh sweep
    /// would (see the module docs) and sweeps every other region.
    fn rebuild(&mut self, mem: &Sandbox) {
        let built = self.generation;
        self.generation = mem.generation();
        self.last_segment = 0;
        // Segments are in region order and regions are only appended (a
        // restore stamps every region), so a kept segment is usually the
        // next one.
        let mut old: Vec<Option<Segment>> =
            std::mem::take(&mut self.segments).into_iter().map(Some).collect();
        let mut next = 0;
        for (r, &stamp) in mem.regions().iter().zip(mem.stamps()) {
            if !r.perm.executable() {
                continue;
            }
            let mut kept = None;
            if stamp <= built {
                let found = (next..old.len())
                    .chain(0..next)
                    .find(|&i| old[i].as_ref().is_some_and(|s| s.start == r.start));
                if let Some(at) = found {
                    next = at + 1;
                    kept = old[at].take().filter(|s| s.end == r.end && !s.lazy);
                }
            }
            self.segments.push(kept.unwrap_or_else(|| Segment::sweep(mem, r)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{MemFault, Perm};
    use mcfi_machine::{encode, Reg};
    use proptest::prelude::*;

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

    /// A few instructions from `seed`: immediates whose bytes decode as
    /// other instructions, so mid-instruction pcs hold gadgets.
    fn code(seed: u64, n: u64) -> Vec<u8> {
        let mut x = seed;
        let insts: Vec<Inst> = (0..1 + n % 8)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let r = x >> 24;
                match r % 5 {
                    0 => Inst::MovImm { dst: Reg::Rax, imm: (r >> 3) as i64 },
                    1 => Inst::Nop,
                    2 => Inst::Ret,
                    3 => Inst::Push { reg: Reg::Rbx },
                    _ => Inst::AddImm { dst: Reg::Rcx, imm: (r >> 8) as i32 },
                }
            })
            .collect();
        encode(&insts)
    }

    const MODEL_SIZE: u64 = 0x300;

    /// Code regions back to back, and a data region right after the
    /// first, so stores and images land next to code.
    fn code_sandbox() -> Sandbox {
        let mut mem = Sandbox::new(MODEL_SIZE as usize);
        let layout = [(0, 0x60, true), (0x60, 0x20, false), (0x80, 0x50, true), (0xd0, 0x40, true)];
        for (start, len, is_code) in layout {
            mem.map(start, len, Perm::Rw).unwrap();
            if is_code {
                let mut image = Vec::new();
                while image.len() < len as usize {
                    image.extend(code(start + image.len() as u64, 7));
                }
                mem.load_image(start, &image[..len as usize]).unwrap();
                mem.protect(start, Perm::Rx).unwrap();
            }
        }
        mem
    }

    proptest! {
        /// A cache kept across loader events serves every fetch as a
        /// cache renewed at each generation change does (what a rebuild
        /// did before it kept segments): the same instruction or fault,
        /// and the same hits, misses and invalidations.
        #[test]
        fn an_incrementally_rebuilt_cache_equals_a_fresh_one(
            ops in proptest::collection::vec(
                (0u8..12, any::<u64>(), any::<u64>(), any::<u64>()),
                1..60,
            )
        ) {
            let mut mem = code_sandbox();
            let mut snaps = Vec::new();
            let (mut kept, mut kept_stats) = (PredecodeCache::new(), stats());
            let (mut fresh, mut fresh_stats) = (PredecodeCache::new(), stats());
            let mut fresh_gen = mem.generation();
            for (op, a, b, v) in ops {
                let regions = mem.regions().to_vec();
                let r = regions[a as usize % regions.len()];
                let at = r.start + b % (r.end - r.start);
                match op {
                    0 => {
                        let perm = [Perm::R, Perm::Rw, Perm::Rx][v as usize % 3];
                        let _ = mem.map(a % MODEL_SIZE, 1 + b % 0x80, perm);
                    }
                    1 => {
                        let perm = [Perm::R, Perm::Rw, Perm::Rx, Perm::Rx][v as usize % 4];
                        let _ = mem.protect(r.start, perm);
                    }
                    2 | 3 => {
                        // Op 2 into a code region, op 3 into any other.
                        let target = regions
                            .iter()
                            .filter(|r| (op == 2) == r.perm.executable())
                            .nth(b as usize % 4);
                        let addr = target.map_or(at, |t| t.start + a % (t.end - t.start));
                        let _ = mem.load_image(addr, &code(v, a));
                    }
                    4 => {
                        let _ = mem.write64(at, v);
                    }
                    5 => {
                        for i in 0..1 + b % 4 {
                            mem.raw_mut()[((at + i) % MODEL_SIZE) as usize] = (v >> (8 * i)) as u8;
                        }
                    }
                    6 => snaps.push(mem.snapshot()),
                    7 if !snaps.is_empty() => mem.restore(&snaps[a as usize % snaps.len()]),
                    _ => {}
                }
                if mem.generation() != fresh_gen {
                    fresh = PredecodeCache::new();
                    fresh_gen = mem.generation();
                }
                // A pc near a region's start or end, so pcs repeat and
                // lazily filled slots are fetched again; now and then
                // anywhere.
                let pc = match v % 8 {
                    0 => v % (MODEL_SIZE + 0x10),
                    1 | 2 => (r.end - 1).saturating_sub((v >> 8) % 12),
                    _ => r.start + (v >> 8) % 24,
                };
                let got = format!("{:?}", kept.fetch(&mem, pc, &mut kept_stats));
                let want = format!("{:?}", fresh.fetch(&mem, pc, &mut fresh_stats));
                prop_assert_eq!(got, want, "pc {:#x}", pc);
                let counts = |s: &VmStats| (s.icache_hits, s.icache_misses, s.icache_invalidations);
                prop_assert_eq!(counts(&kept_stats), counts(&fresh_stats), "pc {:#x}", pc);
            }
        }
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
