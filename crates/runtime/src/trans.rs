//! The baseline-compiled execution tier: superblock translation with
//! per-site-specialized TxChecks.
//!
//! The predecode cache ([`crate::icache`]) removes the fetch taxes —
//! `check_exec` and the variable-length decode — but still dispatches
//! one instruction per run-loop iteration, paying the loop-top
//! bookkeeping (step budget, checkpoint cadence, driver hooks, event
//! match) on every step. This module lowers whole basic *superblocks*
//! into a compact op stream executed by a tight internal loop:
//!
//! - **Straight-line ops** run through stripped executor arms that
//!   accumulate step/cycle charges in locals (flushed at block exits)
//!   and never touch `vm.pc` until the block ends or faults.
//! - **Direct control flow** (`Jmp`/`Jcc`/`Call`) is chained through:
//!   translation continues at the statically known continuation, and at
//!   run time a divergence check (did the executed branch follow the
//!   chained edge?) ends the block early with `vm.pc` already correct.
//! - **The Fig. 4 check transaction** is recognized as a unit
//!   (`BaryLoad; TaryLoad; Cmp; Jcc Ne; [Nops]; CallReg|JmpReg`) and
//!   specialized per indirect-branch site into a `TxCheckOp`: the
//!   Bary slot, the success-path branch address, and the expected Bary
//!   word are baked in. The fast path performs one atomic Bary read and
//!   one atomic Tary read against the *live* shared tables — exactly
//!   the two loads the instrumented sequence performs — and on
//!   `bary == tary` replays the architectural effects of all five-plus
//!   instructions at once. A miss executes *nothing* and falls back to
//!   single-step interpretation, which runs the full slow path
//!   (`TestImm`/`Cmp16` validity-and-version diagnosis, the retry loop,
//!   ultimately `check_bounded`-equivalent behavior or the `Hlt`).
//!
//! # Invalidation: deopt on generation bump
//!
//! Translated blocks memoise decoded bytes, so they ride the same
//! correctness argument as the predecode cache: every code-byte
//! mutation funnels through `Sandbox::{map, protect, load_image,
//! raw_mut}`, each of which bumps the sandbox generation. The
//! dispatcher compares its build generation on every entry; a mismatch
//! *deoptimizes* — all blocks are discarded, execution falls back to
//! `step_cached`, and retranslation happens lazily (and is counted as
//! such) the next time a pc gets hot. The `trans-invalidate` chaos
//! point forces this mid-run without any loader activity.
//!
//! # Interpreter equivalence
//!
//! The tier must be architecturally invisible; the differential suite
//! (`tests/differential.rs`) holds it to byte-identical results. Three
//! properties carry the proof:
//!
//! 1. **Per-op equivalence**: straight-line ops are verbatim copies of
//!    the interpreter arms; chained/terminal ops call the real
//!    `Vm::execute`. The TxCheck fast path fires only when
//!    `bary_word == tary_word`, in which case the interpreted sequence
//!    provably takes the success path with exactly the replayed
//!    register/flag/statistic effects (`Cmp` equal ⇒ `flags = 0`,
//!    equal words ⇒ equal versions ⇒ no `check_retries` increment).
//! 2. **Boundary preservation**: a block is dispatched only if its
//!    *worst-case* step and cycle totals stay within the caller's
//!    limits, so every loop-top decision the interpreter would make at
//!    an interior step (step budget, checkpoint capture, scripted
//!    update windows) still happens at the identical instruction
//!    boundary — interior boundaries stay strictly below every
//!    threshold because all translated ops cost at least one step and
//!    one cycle (`Hlt`, the one zero-cost instruction, is never
//!    translated into a block).
//! 3. **Fault equivalence**: charges are applied before effects, ops
//!    record their own pc, and a faulting op restores `vm.pc` to it —
//!    so a mid-block fault leaves the machine exactly where the
//!    interpreter's would.
//!
//! The fallback ladder is translated → `step_cached` → `step`: every
//! dispatch that cannot run a block (untranslatable pc, limit
//! proximity, TxCheck miss) executes at least one interpreter step, so
//! the run loop always makes progress.

use std::cell::Cell;

use mcfi_machine::{cost_of, decode, Cond, Inst, Reg};
use mcfi_tables::IdTables;

use crate::mem::Sandbox;
use crate::vm::{Event, Vm, VmError};

/// Translation stops after this many ops; loops unroll up to the cap.
const MAX_BLOCK_OPS: usize = 256;

/// Index sentinel: pc not translated yet.
const EMPTY: u32 = u32::MAX;
/// Index sentinel: translation at this pc produced nothing (e.g. the pc
/// starts at a `Hlt` or undecodable bytes); permanently interpreted.
const UNTRANSLATABLE: u32 = u32::MAX - 1;

/// The Fig. 4 check transaction, specialized for one indirect-branch
/// site: slot id, expected Bary word, and success-path branch target
/// baked in at translation time.
struct TxCheckOp {
    /// Global Bary slot of the branch (the patched `BaryLoad` immediate).
    slot: u32,
    /// Register file index the `BaryLoad` writes (`%rdi` by convention).
    bary_dst: usize,
    /// Register file index the `TaryLoad` writes (`%rsi` by convention).
    tary_dst: usize,
    /// Register file index holding the branch target (`%rcx`).
    target: usize,
    /// `CallReg` (pushes a return address) vs `JmpReg`.
    is_call: bool,
    /// pc of the `BaryLoad` — where a miss resumes interpretation.
    check_pc: u64,
    /// pc of the success-path `CallReg`/`JmpReg`.
    branch_pc: u64,
    /// Byte length of the branch instruction (return address =
    /// `branch_pc + branch_len`).
    branch_len: u64,
    /// Steps the fast path replays (5 + alignment Nops).
    fast_steps: u64,
    /// Cycles the fast path replays (sum of the sequence's costs).
    fast_cycles: u64,
    /// The Bary word observed at translation time. Self-healing: a
    /// version re-stamp leaves it stale, and the next fast-path hit
    /// (which compares *live* table words) rewrites it. Purely a
    /// specialization record — correctness never reads it alone.
    expected: Cell<u32>,
}

/// One translated operation.
enum OpKind {
    /// A straight-line instruction: executed by the stripped arms in
    /// [`exec_straight`], charges accumulated locally.
    Straight(Inst),
    /// A direct jump chained through at translation time: the block
    /// simply continues at the static target, so only the cycle charge
    /// remains at run time.
    Jmp,
    /// A conditional jump whose fall-through edge is chained: a taken
    /// branch exits the block with `vm.pc = taken`, otherwise only the
    /// charge remains.
    Jcc {
        /// The branch condition.
        cc: Cond,
        /// The (divergent) taken-branch target.
        taken: u64,
    },
    /// A direct call chained into its callee: pushes the static return
    /// address and continues.
    Call {
        /// The return address (pc after the call instruction).
        ret: u64,
    },
    /// A block terminator with a dynamic or external continuation
    /// (`CallReg`/`JmpReg`/`JmpTable`/`Ret`/`Syscall`), executed by the
    /// real interpreter arm; its event ends the block.
    Term {
        /// The terminal instruction.
        inst: Inst,
        /// Its encoded length.
        len: u64,
    },
    /// A specialized check transaction (always the last op).
    Check(TxCheckOp),
}

struct Op {
    /// The instruction's own pc (restored on fault; base for `Flow`).
    pc: u64,
    /// Its cycle cost (pre-computed at translation time).
    cost: u64,
    kind: OpKind,
}

/// A translated superblock.
struct Block {
    ops: Box<[Op]>,
    /// Worst-case steps a full execution charges (each op's steps; the
    /// check op counts its whole fast path).
    total_steps: u64,
    /// Worst-case cycles, likewise.
    total_cycles: u64,
    /// pc after the last op when the block runs to completion without a
    /// terminator (translation hit the op cap or the segment edge).
    fallthrough: u64,
}

/// The per-segment block index: `index[pc - start]` is a slot into
/// [`TransCache::blocks`], or a sentinel.
struct TransSegment {
    start: u64,
    end: u64,
    index: Vec<u32>,
}

impl TransSegment {
    fn contains(&self, pc: u64) -> bool {
        self.start <= pc && pc < self.end
    }
}

/// What a dispatch produced.
pub(crate) enum Dispatch {
    /// No block ran (or a TxCheck fast path missed with nothing
    /// executed): the caller **must** take exactly one interpreter step
    /// before re-dispatching, so the loop always makes progress.
    Interp,
    /// A block ran to `Event` with `vm.pc` already correct.
    Ran(Event),
}

/// The translated-block cache of the baseline-compiled tier (see the
/// module docs). One per process, surviving across runs like the
/// predecode cache; any sandbox generation bump deoptimizes it whole.
pub struct TransCache {
    /// Sandbox generation the blocks were translated against.
    /// `u64::MAX` is unreachable by the sandbox (generations start at 0
    /// and increment), so a fresh — or force-deopted — cache always
    /// rebuilds on the next dispatch.
    generation: u64,
    segments: Vec<TransSegment>,
    blocks: Vec<Block>,
    /// Segment that served the last dispatch (hot-loop short-circuit).
    last_segment: usize,
    /// Whether a deopt ever retired live blocks — after which new
    /// translations count as *re*translations.
    deopted_once: bool,
}

impl Default for TransCache {
    fn default() -> Self {
        TransCache::new()
    }
}

impl TransCache {
    /// An empty cache; the first dispatch builds the segment index.
    pub fn new() -> Self {
        TransCache {
            generation: u64::MAX,
            segments: Vec::new(),
            blocks: Vec::new(),
            last_segment: 0,
            deopted_once: false,
        }
    }

    /// Force-deoptimizes: the next dispatch discards every translated
    /// block and lazily retranslates, exactly as if the sandbox
    /// generation had been bumped. The `trans-invalidate` chaos point
    /// calls this mid-run.
    pub(crate) fn force_deopt(&mut self) {
        self.generation = u64::MAX;
    }

    /// Runs translated blocks starting at `vm.pc`, chaining from one
    /// block into the next (translating lazily at fresh pcs) for as
    /// long as each block's *worst-case* charges fit under
    /// `step_limit`/`cycle_limit` — both *inclusive* ceilings the
    /// post-block totals may reach but not cross.
    ///
    /// Chaining is exact because every run-loop action between
    /// instructions is threshold-triggered: strictly below the
    /// ceilings, the loop-top is a no-op, so skipping it between
    /// chained blocks is unobservable. The chain breaks — returning
    /// `Ran(Continue)` so the caller's loop-top runs — as soon as the
    /// next block might reach a ceiling, or has no translation.
    ///
    /// # Errors
    ///
    /// Exactly the [`VmError`]s the interpreter would raise at the same
    /// instruction, with identical machine state.
    pub(crate) fn dispatch(
        &mut self,
        vm: &mut Vm,
        mem: &mut Sandbox,
        tables: &IdTables,
        step_limit: u64,
        cycle_limit: u64,
    ) -> Result<Dispatch, VmError> {
        if self.generation != mem.generation() {
            self.deopt_and_rebuild(mem, vm);
        }
        let mut chained = false;
        loop {
            let pc = vm.pc;
            let Some(si) = self.segment_index(pc) else {
                return Ok(self.chain_break(vm, chained));
            };
            self.last_segment = si;
            let off = (pc - self.segments[si].start) as usize;
            let mut bi = self.segments[si].index[off];
            if bi == EMPTY {
                let (start, end) = (self.segments[si].start, self.segments[si].end);
                let block = translate(mem, tables, start, end, pc);
                if block.ops.is_empty() {
                    self.segments[si].index[off] = UNTRANSLATABLE;
                    return Ok(self.chain_break(vm, chained));
                }
                vm.stats.trans_translations += 1;
                if self.deopted_once {
                    vm.stats.trans_retranslations += 1;
                }
                bi = self.blocks.len() as u32;
                self.blocks.push(block);
                self.segments[si].index[off] = bi;
            }
            if bi == UNTRANSLATABLE {
                return Ok(self.chain_break(vm, chained));
            }
            let block = &self.blocks[bi as usize];
            if vm.stats.steps.saturating_add(block.total_steps) > step_limit
                || vm.stats.cycles.saturating_add(block.total_cycles) > cycle_limit
            {
                return Ok(self.chain_break(vm, chained));
            }
            vm.stats.trans_dispatches += 1;
            match run_block(block, vm, mem, tables)? {
                Dispatch::Ran(Event::Continue) => chained = true,
                done => return Ok(done),
            }
        }
    }

    /// Ends a dispatch that cannot run a block at `vm.pc`. Mid-chain,
    /// control goes back to the caller's loop-top as a completed
    /// dispatch; on a cold entry it falls back to one interpreter step.
    fn chain_break(&self, vm: &mut Vm, chained: bool) -> Dispatch {
        if chained {
            Dispatch::Ran(Event::Continue)
        } else {
            vm.stats.trans_fallbacks += 1;
            Dispatch::Interp
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

    /// Discards every block (counting a deopt if any were live) and
    /// rebuilds the segment index from the current executable regions.
    fn deopt_and_rebuild(&mut self, mem: &Sandbox, vm: &mut Vm) {
        if !self.blocks.is_empty() {
            vm.stats.trans_deopts += 1;
            self.deopted_once = true;
            self.blocks.clear();
        }
        self.segments.clear();
        self.last_segment = 0;
        for r in mem.regions().iter().filter(|r| r.perm.executable()) {
            self.segments.push(TransSegment {
                start: r.start,
                end: r.end,
                index: vec![EMPTY; (r.end - r.start) as usize],
            });
        }
        self.generation = mem.generation();
    }
}

/// Lowers the superblock starting at `entry` within `[seg_start,
/// seg_end)`. Direct branches chain; the walk stops at a terminator, a
/// specialized check, the op cap, a decode failure, a `Hlt` (never
/// translated — see the module docs), or bytes spilling past the
/// segment (parity with the predecode cache's spill rule, since the
/// tail might be mutable data). An empty result marks the pc
/// untranslatable.
fn translate(mem: &Sandbox, tables: &IdTables, seg_start: u64, seg_end: u64, entry: u64) -> Block {
    let bytes = mem.raw();
    let mut ops: Vec<Op> = Vec::new();
    let mut total_steps = 0u64;
    let mut total_cycles = 0u64;
    let mut pc = entry;
    while ops.len() < MAX_BLOCK_OPS && pc >= seg_start && pc < seg_end {
        let Ok((inst, ilen)) = decode(bytes, pc as usize) else { break };
        let len = ilen as u64;
        if pc + len > seg_end {
            break;
        }
        let cost = cost_of(&inst);
        match inst {
            Inst::BaryLoad { dst, slot } => {
                if let Some(chk) = match_check(bytes, seg_end, pc, len, dst, slot, tables) {
                    total_steps += chk.fast_steps;
                    total_cycles += chk.fast_cycles;
                    ops.push(Op { pc, cost, kind: OpKind::Check(chk) });
                    return Block {
                        ops: ops.into_boxed_slice(),
                        total_steps,
                        total_cycles,
                        fallthrough: 0,
                    };
                }
                total_steps += 1;
                total_cycles += cost;
                ops.push(Op { pc, cost, kind: OpKind::Straight(inst) });
                pc += len;
            }
            Inst::Jmp { rel } => {
                total_steps += 1;
                total_cycles += cost;
                ops.push(Op { pc, cost, kind: OpKind::Jmp });
                pc = (pc + len).wrapping_add(rel as i64 as u64);
            }
            Inst::Jcc { cc, rel } => {
                // Chain the fall-through edge; a taken branch exits.
                let taken = (pc + len).wrapping_add(rel as i64 as u64);
                total_steps += 1;
                total_cycles += cost;
                ops.push(Op { pc, cost, kind: OpKind::Jcc { cc, taken } });
                pc += len;
            }
            Inst::Call { rel } => {
                total_steps += 1;
                total_cycles += cost;
                ops.push(Op { pc, cost, kind: OpKind::Call { ret: pc + len } });
                pc = (pc + len).wrapping_add(rel as i64 as u64);
            }
            Inst::CallReg { .. }
            | Inst::JmpReg { .. }
            | Inst::JmpTable { .. }
            | Inst::Ret
            | Inst::Syscall => {
                total_steps += 1;
                total_cycles += cost;
                ops.push(Op { pc, cost, kind: OpKind::Term { inst, len } });
                return Block {
                    ops: ops.into_boxed_slice(),
                    total_steps,
                    total_cycles,
                    fallthrough: 0,
                };
            }
            // Never translated: `Hlt` costs zero cycles, which would
            // let a block's interior boundary sit exactly *on* a cycle
            // threshold the interpreter acts at (see the module docs).
            // The single-step fallback executes it identically.
            Inst::Hlt => break,
            _ => {
                total_steps += 1;
                total_cycles += cost;
                ops.push(Op { pc, cost, kind: OpKind::Straight(inst) });
                pc += len;
            }
        }
    }
    Block { ops: ops.into_boxed_slice(), total_steps, total_cycles, fallthrough: pc }
}

/// Decodes the instruction at `pc` if it lies — bytes included — within
/// the segment.
fn decode_within(bytes: &[u8], pc: u64, seg_end: u64) -> Option<(Inst, u64)> {
    if pc >= seg_end {
        return None;
    }
    let (inst, len) = decode(bytes, pc as usize).ok()?;
    let len = len as u64;
    (pc + len <= seg_end).then_some((inst, len))
}

/// Recognizes the Fig. 4 fast-path sequence starting at a `BaryLoad`:
///
/// ```text
/// BaryLoad d1, slot ; TaryLoad d2, t ; Cmp d1, d2 ; Jcc Ne, slow ;
/// [Nop ×0..4 (call alignment)] ; CallReg t | JmpReg t
/// ```
///
/// with `d1`, `d2`, `t` pairwise distinct (so the replayed register
/// writes commute with the target read). Returns `None` — the sequence
/// translates as plain ops — on any mismatch.
fn match_check(
    bytes: &[u8],
    seg_end: u64,
    bary_pc: u64,
    bary_len: u64,
    bary_dst: Reg,
    slot: u32,
    tables: &IdTables,
) -> Option<TxCheckOp> {
    let mut steps = 1u64;
    let mut cycles = cost_of(&Inst::BaryLoad { dst: bary_dst, slot });
    let mut at = bary_pc + bary_len;

    let (inst, len) = decode_within(bytes, at, seg_end)?;
    let Inst::TaryLoad { dst: tary_dst, addr: target } = inst else { return None };
    if tary_dst == bary_dst || target == bary_dst || target == tary_dst {
        return None;
    }
    steps += 1;
    cycles += cost_of(&inst);
    at += len;

    let (inst, len) = decode_within(bytes, at, seg_end)?;
    let Inst::Cmp { a, b } = inst else { return None };
    if a != bary_dst || b != tary_dst {
        return None;
    }
    steps += 1;
    cycles += cost_of(&inst);
    at += len;

    let (inst, len) = decode_within(bytes, at, seg_end)?;
    let Inst::Jcc { cc: Cond::Ne, .. } = inst else { return None };
    steps += 1;
    cycles += cost_of(&inst);
    at += len;

    // Up to TARGET_ALIGN - 1 alignment Nops pad a call so its *end*
    // lands on an aligned (legal return-target) address.
    let mut nops = 0;
    loop {
        let (inst, len) = decode_within(bytes, at, seg_end)?;
        match inst {
            Inst::Nop if nops < 3 => {
                nops += 1;
                steps += 1;
                cycles += cost_of(&inst);
                at += len;
            }
            Inst::CallReg { reg } if reg == target => {
                steps += 1;
                cycles += cost_of(&inst);
                return Some(check_op(bary_pc, at, len, true, slot, bary_dst, tary_dst, target, steps, cycles, tables));
            }
            Inst::JmpReg { reg } if reg == target => {
                steps += 1;
                cycles += cost_of(&inst);
                return Some(check_op(bary_pc, at, len, false, slot, bary_dst, tary_dst, target, steps, cycles, tables));
            }
            _ => return None,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check_op(
    check_pc: u64,
    branch_pc: u64,
    branch_len: u64,
    is_call: bool,
    slot: u32,
    bary_dst: Reg,
    tary_dst: Reg,
    target: Reg,
    fast_steps: u64,
    fast_cycles: u64,
    tables: &IdTables,
) -> TxCheckOp {
    TxCheckOp {
        slot,
        bary_dst: bary_dst.nibble() as usize,
        tary_dst: tary_dst.nibble() as usize,
        target: target.nibble() as usize,
        is_call,
        check_pc,
        branch_pc,
        branch_len,
        fast_steps,
        fast_cycles,
        expected: Cell::new(tables.bary_word(slot as usize)),
    }
}

/// Executes `block` against the machine. Precondition (enforced by
/// [`TransCache::dispatch`]): the block's worst-case charges fit under
/// the caller's step/cycle limits.
fn run_block(
    block: &Block,
    vm: &mut Vm,
    mem: &mut Sandbox,
    tables: &IdTables,
) -> Result<Dispatch, VmError> {
    // Step/cycle charges accumulate in locals and flush at every exit
    // (including faults), so interior ops pay no memory traffic for
    // statistics. `vm.pc` is likewise only maintained at exits.
    let mut dsteps = 0u64;
    let mut dcycles = 0u64;
    macro_rules! flush {
        () => {
            vm.stats.steps += dsteps;
            vm.stats.cycles += dcycles;
        };
    }
    for op in &block.ops {
        match &op.kind {
            OpKind::Straight(inst) => {
                // Charges apply before effects, exactly like the
                // interpreter's `execute`.
                dsteps += 1;
                dcycles += op.cost;
                if let Err(e) = exec_straight(vm, mem, tables, inst, op.pc) {
                    vm.pc = op.pc;
                    flush!();
                    return Err(e);
                }
            }
            OpKind::Jmp => {
                // The target is chained statically; only the charge
                // remains.
                dsteps += 1;
                dcycles += op.cost;
            }
            OpKind::Jcc { cc, taken } => {
                dsteps += 1;
                dcycles += op.cost;
                if vm.cond(*cc) {
                    // Divergence from the chained fall-through edge:
                    // exit the block at the taken target.
                    flush!();
                    vm.pc = *taken;
                    return Ok(Dispatch::Ran(Event::Continue));
                }
            }
            OpKind::Call { ret } => {
                // Charges apply before the push, matching `execute`;
                // the callee is chained statically.
                dsteps += 1;
                dcycles += op.cost;
                if let Err(e) = vm.push(mem, *ret) {
                    vm.pc = op.pc;
                    flush!();
                    return Err(e);
                }
            }
            OpKind::Term { inst, len } => {
                flush!();
                vm.pc = op.pc;
                let ev = vm.execute(mem, tables, *inst, *len, op.cost)?;
                return Ok(Dispatch::Ran(ev));
            }
            OpKind::Check(chk) => {
                flush!();
                return run_check(chk, vm, mem, tables);
            }
        }
    }
    flush!();
    vm.pc = block.fallthrough;
    Ok(Dispatch::Ran(Event::Continue))
}

/// The specialized TxCheck fast path. One live Bary read, one live Tary
/// read; on `bary == tary` the whole instrumented sequence provably
/// takes its success path, so its architectural effects are replayed in
/// one go. On a miss **nothing** has executed: the caller resumes
/// single-step interpretation at the `BaryLoad`, which runs the full
/// slow path (validity test, version comparison, retry loop, `Hlt`).
fn run_check(
    chk: &TxCheckOp,
    vm: &mut Vm,
    mem: &mut Sandbox,
    tables: &IdTables,
) -> Result<Dispatch, VmError> {
    let bary = tables.bary_word(chk.slot as usize);
    let target = vm.regs[chk.target];
    let tary = tables.tary_word(target);
    if bary != tary {
        vm.pc = chk.check_pc;
        vm.stats.trans_fallbacks += 1;
        return Ok(Dispatch::Interp);
    }
    // Heal the baked expectation after version re-stamps.
    if chk.expected.get() != bary {
        chk.expected.set(bary);
    }
    // Replay the sequence: BaryLoad, TaryLoad (checks += 1; equal words
    // mean equal versions, so no retry is counted), Cmp (equal ⇒ flags
    // = 0), Jcc Ne (not taken), Nops, then the branch itself.
    vm.stats.steps += chk.fast_steps;
    vm.stats.cycles += chk.fast_cycles;
    vm.stats.checks += 1;
    vm.regs[chk.bary_dst] = u64::from(bary);
    vm.regs[chk.tary_dst] = u64::from(tary);
    vm.flags = 0;
    vm.last_bary = Some(chk.slot as usize);
    vm.last_check = Some((chk.slot as usize, target));
    vm.pc = chk.branch_pc;
    if chk.is_call {
        // A push fault leaves the machine exactly as the interpreter's
        // would at the `CallReg`: everything before it executed (all
        // charges applied first, matching `execute`'s charge order),
        // pc at the branch, last_check still armed.
        vm.push(mem, chk.branch_pc + chk.branch_len)?;
    }
    vm.stats.indirect_taken += 1;
    vm.last_check = None;
    vm.pc = target;
    Ok(Dispatch::Ran(Event::Continue))
}

/// Verbatim copies of the interpreter's straight-line arms (see
/// [`Vm::execute`]), minus everything a non-control instruction never
/// does: no `next` computation, no pc store, no step/cycle charge (the
/// block loop accumulates those locally).
fn exec_straight(
    vm: &mut Vm,
    mem: &mut Sandbox,
    tables: &IdTables,
    inst: &Inst,
    pc: u64,
) -> Result<(), VmError> {
    use mcfi_machine::AluOp;
    use mcfi_tables::Id;
    match *inst {
        Inst::MovImm { dst, imm } => vm.set_reg(dst, imm as u64),
        Inst::MovReg { dst, src } => vm.set_reg(dst, vm.reg(src)),
        Inst::Load { dst, base, offset } => {
            let addr = vm.reg(base).wrapping_add(offset as i64 as u64);
            let v = mem.read64(addr)?;
            vm.set_reg(dst, v);
        }
        Inst::Store { base, offset, src } => {
            let addr = vm.reg(base).wrapping_add(offset as i64 as u64);
            mem.write64(addr, vm.reg(src))?;
        }
        Inst::Load8 { dst, base, offset } => {
            let addr = vm.reg(base).wrapping_add(offset as i64 as u64);
            let v = mem.read8(addr)?;
            vm.set_reg(dst, u64::from(v));
        }
        Inst::Store8 { base, offset, src } => {
            let addr = vm.reg(base).wrapping_add(offset as i64 as u64);
            mem.write8(addr, vm.reg(src) as u8)?;
        }
        Inst::Lea { dst, base, offset } => {
            vm.set_reg(dst, vm.reg(base).wrapping_add(offset as i64 as u64));
        }
        Inst::Alu { op, dst, src } => {
            let a = vm.reg(dst) as i64;
            let b = vm.reg(src) as i64;
            let r = match op {
                AluOp::Add => a.wrapping_add(b),
                AluOp::Sub => a.wrapping_sub(b),
                AluOp::Mul => a.wrapping_mul(b),
                AluOp::Div => {
                    if b == 0 {
                        return Err(VmError::DivideByZero { pc });
                    }
                    a.wrapping_div(b)
                }
                AluOp::Rem => {
                    if b == 0 {
                        return Err(VmError::DivideByZero { pc });
                    }
                    a.wrapping_rem(b)
                }
                AluOp::And => a & b,
                AluOp::Or => a | b,
                AluOp::Xor => a ^ b,
                AluOp::Shl => a.wrapping_shl(b as u32 & 63),
                AluOp::Shr => a.wrapping_shr(b as u32 & 63),
            };
            vm.set_reg(dst, r as u64);
        }
        Inst::AddImm { dst, imm } => {
            vm.set_reg(dst, vm.reg(dst).wrapping_add(imm as i64 as u64));
        }
        Inst::AndImm { dst, imm } => {
            vm.set_reg(dst, vm.reg(dst) & imm);
        }
        Inst::Cmp { a, b } => {
            vm.flags = (vm.reg(a) as i64).wrapping_sub(vm.reg(b) as i64).signum();
        }
        Inst::Cmp16 { a, b } => {
            vm.flags = i64::from((vm.reg(a) as u16) != (vm.reg(b) as u16));
        }
        Inst::CmpImm { a, imm } => {
            vm.flags = (vm.reg(a) as i64).wrapping_sub(imm as i64).signum();
        }
        Inst::TestImm { a, imm } => {
            vm.flags = i64::from(vm.reg(a) & (imm as i64 as u64) != 0);
        }
        Inst::SetCc { cc, dst } => {
            let v = u64::from(vm.cond(cc));
            vm.set_reg(dst, v);
        }
        Inst::Push { reg } => vm.push(mem, vm.reg(reg))?,
        Inst::Pop { reg } => {
            let v = vm.pop(mem)?;
            vm.set_reg(reg, v);
        }
        Inst::Trunc32 { reg } => {
            vm.set_reg(reg, vm.reg(reg) & 0xffff_ffff);
        }
        Inst::TaryLoad { dst, addr } => {
            let target = vm.reg(addr);
            let word = tables.tary_word(target);
            vm.set_reg(dst, u64::from(word));
            vm.stats.checks += 1;
            if let Some(slot) = vm.last_bary {
                if let (Some(b), Some(t)) =
                    (Id::from_word(tables.bary_word(slot)), Id::from_word(word))
                {
                    if b.version() != t.version() {
                        vm.stats.check_retries += 1;
                    }
                }
                vm.last_check = Some((slot, target));
            }
        }
        Inst::BaryLoad { dst, slot } => {
            let word = tables.bary_word(slot as usize);
            vm.set_reg(dst, u64::from(word));
            vm.last_bary = Some(slot as usize);
        }
        Inst::FAlu { op, dst, src } => {
            use mcfi_machine::FaluOp;
            let a = f64::from_bits(vm.reg(dst));
            let b = f64::from_bits(vm.reg(src));
            let r = match op {
                FaluOp::Add => a + b,
                FaluOp::Sub => a - b,
                FaluOp::Mul => a * b,
                FaluOp::Div => a / b,
            };
            vm.set_reg(dst, r.to_bits());
        }
        Inst::FCmp { a, b } => {
            let x = f64::from_bits(vm.reg(a));
            let y = f64::from_bits(vm.reg(b));
            vm.flags = match x.partial_cmp(&y) {
                Some(std::cmp::Ordering::Less) => -1,
                Some(std::cmp::Ordering::Equal) => 0,
                _ => 1, // Greater or unordered (NaN)
            };
        }
        Inst::CvtIF { dst, src } => {
            let v = vm.reg(src) as i64 as f64;
            vm.set_reg(dst, v.to_bits());
        }
        Inst::CvtFI { dst, src } => {
            let v = f64::from_bits(vm.reg(src)) as i64;
            vm.set_reg(dst, v as u64);
        }
        Inst::Nop => {}
        // The translator classifies every control-flow instruction as
        // Flow/Term/Check; its match is compiler-exhaustive.
        _ => unreachable!("control flow classified as straight-line"),
    }
    Ok(())
}
