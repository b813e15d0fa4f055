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
//! - **Straight-line ops** run the interpreter's own semantics
//!   (`Vm::apply`, given each op's pc) while the block accumulates
//!   step/cycle charges in locals (flushed at block exits) and never
//!   touches `vm.pc` until the block ends or faults.
//! - **Direct control flow** (`Jmp`/`Jcc`/`Call`) is chained through:
//!   translation continues at the statically known continuation, and at
//!   run time a divergence check (did the executed branch follow the
//!   chained edge?) ends the block early with `vm.pc` already correct.
//! - **The Fig. 4 check transaction** is recognized as a unit (its fast
//!   path, `BaryLoad` through `CallReg|JmpReg`, read by
//!   [`mcfi_machine::check::recognize`]) and
//!   specialized per indirect-branch site into a `TxCheckOp`: the
//!   Bary slot, the registers and the success-path branch address are
//!   baked in. The fast path performs one atomic Bary read and
//!   one atomic Tary read against the *live* shared tables — exactly
//!   the two loads the instrumented sequence performs — and on
//!   `bary == tary` replays the architectural effects of all five-plus
//!   instructions at once. A miss executes *nothing* and falls back to
//!   single-step interpretation, which runs the full slow path
//!   (`TestImm`/`Cmp16` validity-and-version diagnosis, the retry loop,
//!   ultimately `check_bounded`-equivalent behavior or the `Hlt`).
//!
//! # One code cache, one invalidation rule
//!
//! Blocks live in the predecode cache's per-region segments, beside the
//! slots translation reads its instructions from, so they ride the same
//! correctness argument: every code-byte mutation funnels through
//! `Sandbox::{map, protect, load_image, raw_mut, restore}`, each of
//! which bumps the sandbox generation. Every dispatch runs the cache's one
//! generation compare; a mismatch rebuilds the slots and *deoptimizes*
//! — all blocks are retired and retranslation happens lazily (and is
//! counted as such) the next time a pc is dispatched. The
//! `trans-invalidate` chaos point retires the blocks alone, mid-run,
//! without any loader activity.
//!
//! # Interpreter equivalence
//!
//! The tier must be architecturally invisible; the differential suite
//! (`tests/differential.rs`) holds it to byte-identical results. Three
//! properties carry the proof:
//!
//! 1. **Per-op equivalence**: straight-line ops run the interpreter's
//!    one copy of the instruction semantics (`Vm::apply`); terminal
//!    ops run the real `Vm::execute`. The TxCheck fast path fires only when
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
//! The fallback ladder is translated → `step_cached`: every dispatch
//! that cannot run a block (untranslatable pc, limit proximity, TxCheck
//! miss) executes one predecoded interpreter step, so the run loop
//! always makes progress.

use mcfi_machine::check::{self, Check, Transfer};
use mcfi_machine::{Cond, Inst};
use mcfi_tables::IdTables;

use crate::icache::{PredecodeCache, Segment};
use crate::mem::Sandbox;
use crate::vm::{Event, Vm, VmError};

/// Translation stops after this many ops; loops unroll up to the cap.
const MAX_BLOCK_OPS: usize = 256;

/// The Fig. 4 check transaction, specialized for one indirect-branch
/// site: slot id, registers and success-path branch target baked in at
/// translation time.
struct TxCheckOp {
    /// The recognized fast path: slot, registers, the `BaryLoad`'s pc
    /// (where a miss resumes interpretation) and the branch's.
    check: Check,
    /// Steps the fast path replays (5 + alignment Nops).
    fast_steps: u64,
    /// Cycles the fast path replays (sum of the sequence's costs).
    fast_cycles: u64,
}

/// One translated operation.
enum OpKind {
    /// A straight-line instruction, run through the interpreter's own
    /// semantics ([`Vm::apply`]) with its charges accumulated locally.
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
    /// real interpreter step; its event ends the block.
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
pub(crate) struct Block {
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

/// Runs translated blocks starting at `vm.pc`, chaining from one block
/// into the next (translating lazily at fresh pcs) for as long as each
/// block's *worst-case* charges fit under `step_limit`/`cycle_limit` —
/// both *inclusive* ceilings the post-block totals may reach but not
/// cross. A dispatch that cannot run a block at its entry pc takes one
/// interpreter step instead, so the run loop always makes progress.
///
/// Chaining is exact because every run-loop action between
/// instructions is threshold-triggered: strictly below the ceilings,
/// the loop-top is a no-op, so skipping it between chained blocks is
/// unobservable. The chain breaks — returning `Continue` so the
/// caller's loop-top runs — as soon as the next block might reach a
/// ceiling, or has no translation.
///
/// # Errors
///
/// Exactly the [`VmError`]s the interpreter would raise at the same
/// instruction, with identical machine state.
pub(crate) fn dispatch(
    cache: &mut PredecodeCache,
    vm: &mut Vm,
    mem: &mut Sandbox,
    tables: &IdTables,
    step_limit: u64,
    cycle_limit: u64,
) -> Result<Event, VmError> {
    cache.validate(mem, &mut vm.stats);
    let mut chained = false;
    while let Some(block) = cache.block(mem, vm.pc, &mut vm.stats) {
        if vm.stats.steps.saturating_add(block.total_steps) > step_limit
            || vm.stats.cycles.saturating_add(block.total_cycles) > cycle_limit
        {
            break;
        }
        vm.stats.trans_dispatches += 1;
        match run_block(block, vm, mem, tables)? {
            Some(Event::Continue) => chained = true,
            Some(event) => return Ok(event),
            // A specialized check missed having executed nothing: its
            // slow path is the interpreter's, chained or not.
            None => {
                chained = false;
                break;
            }
        }
    }
    // Mid-chain, control goes back to the caller's loop-top as a
    // completed dispatch; otherwise one predecoded interpreter step.
    if chained {
        return Ok(Event::Continue);
    }
    vm.stats.trans_fallbacks += 1;
    vm.step_cached(mem, tables, cache)
}

/// Lowers the superblock starting at `entry`, reading instructions from
/// the segment's predecoded slots. Direct branches chain; the walk
/// stops at a terminator, a specialized check, the op cap, an
/// undecodable pc, a `Hlt` (never translated — see the module docs), or
/// bytes spilling past the segment (the predecode cache's spill rule,
/// since the tail might be mutable data). `None` marks the pc
/// untranslatable.
pub(crate) fn translate(seg: &mut Segment, mem: &Sandbox, entry: u64) -> Option<Block> {
    let mut ops: Vec<Op> = Vec::new();
    let mut total_steps = 0u64;
    let mut total_cycles = 0u64;
    let mut pc = entry;
    while ops.len() < MAX_BLOCK_OPS {
        let Some((inst, len, cost)) = seg.inst_within(mem, pc) else { break };
        let fall = pc + len;
        let (kind, next) = match inst {
            Inst::BaryLoad { .. } => {
                if let Some(chk) = match_check(seg, mem, pc) {
                    total_steps += chk.fast_steps;
                    total_cycles += chk.fast_cycles;
                    ops.push(Op { pc, cost, kind: OpKind::Check(chk) });
                    break;
                }
                (OpKind::Straight(inst), Some(fall))
            }
            Inst::Jmp { rel } => (OpKind::Jmp, Some(fall.wrapping_add(rel as i64 as u64))),
            // Chain the fall-through edge; a taken branch exits.
            Inst::Jcc { cc, rel } => {
                (OpKind::Jcc { cc, taken: fall.wrapping_add(rel as i64 as u64) }, Some(fall))
            }
            Inst::Call { rel } => {
                (OpKind::Call { ret: fall }, Some(fall.wrapping_add(rel as i64 as u64)))
            }
            Inst::CallReg { .. }
            | Inst::JmpReg { .. }
            | Inst::JmpTable { .. }
            | Inst::Ret
            | Inst::Syscall => (OpKind::Term { inst, len }, None),
            // Never translated: `Hlt` costs zero cycles, which would
            // let a block's interior boundary sit exactly *on* a cycle
            // threshold the interpreter acts at (see the module docs).
            // The single-step fallback executes it identically.
            Inst::Hlt => break,
            _ => (OpKind::Straight(inst), Some(fall)),
        };
        total_steps += 1;
        total_cycles += cost;
        ops.push(Op { pc, cost, kind });
        match next {
            Some(next) => pc = next,
            None => break,
        }
    }
    // `pc` is where a block without a terminator falls through to.
    (!ops.is_empty()).then(|| Block {
        ops: ops.into_boxed_slice(),
        total_steps,
        total_cycles,
        fallthrough: pc,
    })
}

/// Specializes the Fig. 4 sequence whose `BaryLoad` is at `check_pc`,
/// read through [`check::recognize`] under the tier's own rule: any
/// pairwise-distinct registers (so the replayed register writes commute
/// with the target read), and no slow-path requirement, since a miss
/// runs the interpreter's. Returns `None` — the sequence translates as
/// plain ops — on any mismatch.
fn match_check(seg: &mut Segment, mem: &Sandbox, check_pc: u64) -> Option<TxCheckOp> {
    // Recognition fetches each fast-path instruction once, so a hit
    // replays exactly the charges fetched here.
    let (mut fast_steps, mut fast_cycles) = (0, 0);
    let fetch = |at: usize| {
        let (inst, len, cost) = seg.inst_within(mem, at as u64)?;
        fast_steps += 1;
        fast_cycles += cost;
        Some((inst, len as usize))
    };
    let chk = check::recognize(fetch, check_pc as usize).ok()?;
    let distinct = chk.bary != chk.tary && chk.bary != chk.target && chk.tary != chk.target;
    distinct.then_some(TxCheckOp { check: chk, fast_steps, fast_cycles })
}

/// Executes `block` against the machine. Precondition (enforced by
/// [`dispatch`]): the block's worst-case charges fit under the caller's
/// step/cycle limits. Returns the event that ended the block, or `None`
/// when its specialized check missed with nothing executed.
fn run_block(
    block: &Block,
    vm: &mut Vm,
    mem: &mut Sandbox,
    tables: &IdTables,
) -> Result<Option<Event>, VmError> {
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
                // interpreter's `execute`. The block walks on to its
                // next op whatever `next` says: straight-line
                // instructions never redirect it.
                dsteps += 1;
                dcycles += op.cost;
                let mut next = op.pc;
                if let Err(e) = vm.apply(mem, tables, *inst, op.pc, &mut next) {
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
                    return Ok(Some(Event::Continue));
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
                return vm.execute(mem, tables, *inst, *len, op.cost).map(Some);
            }
            OpKind::Check(chk) => {
                flush!();
                return run_check(chk, vm, mem, tables);
            }
        }
    }
    flush!();
    vm.pc = block.fallthrough;
    Ok(Some(Event::Continue))
}

/// The specialized TxCheck fast path. One live Bary read, one live Tary
/// read; on `bary == tary` the whole instrumented sequence provably
/// takes its success path, so its architectural effects are replayed in
/// one go. On a miss **nothing** has executed: `None` sends the caller
/// to single-step interpretation at the `BaryLoad`, which runs the full
/// slow path (validity test, version comparison, retry loop, `Hlt`).
fn run_check(
    chk: &TxCheckOp,
    vm: &mut Vm,
    mem: &mut Sandbox,
    tables: &IdTables,
) -> Result<Option<Event>, VmError> {
    let c = &chk.check;
    let bary = tables.bary_word(c.slot as usize);
    let target = vm.regs[c.target.index()];
    let tary = tables.tary_word(target);
    if bary != tary {
        vm.pc = c.start as u64;
        return Ok(None);
    }
    // Replay the sequence: BaryLoad, TaryLoad (checks += 1; equal words
    // mean equal versions, so no retry is counted), Cmp (equal ⇒ flags
    // = 0), Jcc Ne (not taken), Nops, then the branch itself.
    vm.stats.steps += chk.fast_steps;
    vm.stats.cycles += chk.fast_cycles;
    vm.stats.checks += 1;
    vm.regs[c.bary.index()] = u64::from(bary);
    vm.regs[c.tary.index()] = u64::from(tary);
    vm.flags = 0;
    vm.last_bary = Some(c.slot as usize);
    vm.last_check = Some((c.slot as usize, target));
    vm.pc = c.branch as u64;
    if c.transfer == Transfer::Call {
        // A push fault leaves the machine exactly as the interpreter's
        // would at the `CallReg`: everything before it executed (all
        // charges applied first, matching `execute`'s charge order),
        // pc at the branch, last_check still armed.
        vm.push(mem, c.end() as u64)?;
    }
    vm.stats.indirect_taken += 1;
    vm.last_check = None;
    vm.pc = target;
    Ok(Some(Event::Continue))
}
