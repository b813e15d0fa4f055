//! The SimX64 interpreter.
//!
//! Executes instrumented code in the sandbox, accumulating the cycle
//! charges from [`mcfi_machine::cost_of`] — the "execution time" of
//! Figs. 5/6. The check-transaction instructions (`BaryLoad`/`TaryLoad`)
//! read the *real* shared [`IdTables`], so concurrent update transactions
//! from other host threads genuinely race with checks, retries included:
//! the retry loop is instrumented code, and the VM simply executes it
//! again (charging cycles) exactly as hardware would.

use std::fmt;

use mcfi_machine::{cost_of, decode, AluOp, Cond, DecodeError, FaluOp, Inst, Reg};
use mcfi_tables::{Id, IdTables};

use crate::icache::PredecodeCache;
use crate::mem::{MemFault, Sandbox};

/// A VM-level execution error (distinct from a clean exit or a CFI halt).
#[derive(Clone, Debug)]
pub enum VmError {
    /// Memory fault.
    Mem(MemFault),
    /// Undecodable instruction.
    Decode(DecodeError),
    /// Integer division by zero.
    DivideByZero {
        /// Faulting pc.
        pc: u64,
    },
    /// Jump-table index out of bounds (cannot happen in verified code).
    TableIndex {
        /// Faulting pc.
        pc: u64,
    },
    /// The step budget was exhausted.
    StepLimit,
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Mem(m) => write!(f, "memory fault: {m}"),
            VmError::Decode(d) => write!(f, "decode fault: {d}"),
            VmError::DivideByZero { pc } => write!(f, "division by zero at {pc:#x}"),
            VmError::TableIndex { pc } => write!(f, "jump-table index out of range at {pc:#x}"),
            VmError::StepLimit => write!(f, "step limit exhausted"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<MemFault> for VmError {
    fn from(m: MemFault) -> Self {
        VmError::Mem(m)
    }
}

impl From<DecodeError> for VmError {
    fn from(d: DecodeError) -> Self {
        VmError::Decode(d)
    }
}

/// What a single step produced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Event {
    /// Keep going.
    Continue,
    /// A `Syscall` instruction fired; the runtime must service it.
    Syscall,
    /// A `Hlt` executed — a CFI violation (or deliberate stop) at `pc`.
    Halt {
        /// Address of the `Hlt`.
        pc: u64,
    },
}

/// Execution statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct VmStats {
    /// Instructions executed.
    pub steps: u64,
    /// Simulated cycles charged.
    pub cycles: u64,
    /// Check transactions started (`TaryLoad` executions; includes
    /// retries of the same logical check).
    pub checks: u64,
    /// Indirect branches actually taken.
    pub indirect_taken: u64,
    /// Predecode-cache hits (fetches served from the side-table).
    pub icache_hits: u64,
    /// Predecode-cache misses (fetches that fell back to a live decode).
    pub icache_misses: u64,
    /// Predecode-cache rebuilds forced by a sandbox generation change
    /// (module loads, reprotections, loader patches).
    pub icache_invalidations: u64,
    /// Guest-level check retries: `TaryLoad` executions that observed a
    /// version differing from the branch ID's (the instrumented retry
    /// loop re-executes the load until the versions agree). The
    /// instrumented code spins invisibly to the host tables' own retry
    /// counter, so the VM counts these itself.
    pub check_retries: u64,
    /// Translated blocks dispatched by the baseline-compiled tier
    /// (zero on untranslated runs; see [`crate::trans`]).
    pub trans_dispatches: u64,
    /// Basic blocks lowered to threaded-code form.
    pub trans_translations: u64,
    /// Translations performed after at least one deoptimization — the
    /// lazy re-translation work a generation bump forces.
    pub trans_retranslations: u64,
    /// Deoptimization events: sandbox generation bumps that retired
    /// live translated blocks back to the `step_cached` interpreter.
    pub trans_deopts: u64,
    /// Dispatches that fell back to single-step interpretation (no
    /// block at pc, a block would cross an interpreter-visible boundary,
    /// or a specialized TxCheck fast path missed).
    pub trans_fallbacks: u64,
}

/// The machine state.
#[derive(Debug)]
pub struct Vm {
    /// General-purpose registers.
    pub regs: [u64; 16],
    /// Program counter.
    pub pc: u64,
    /// Signed comparison result: `<0`, `0`, `>0`.
    pub(crate) flags: i64,
    /// Statistics.
    pub stats: VmStats,
    /// Bary slot of the most recent `BaryLoad` (the check sequence loads
    /// the branch ID first).
    pub(crate) last_bary: Option<usize>,
    /// `(bary_slot, target)` of the most recent completed check-sequence
    /// load pair. Cleared by every successful indirect transfer, so at a
    /// `Hlt` it identifies the *failed* check — `None` at a `Hlt` means a
    /// deliberate halt, not a violation.
    pub(crate) last_check: Option<(usize, u64)>,
}

/// An opaque snapshot of the complete machine state ([`Vm::snapshot`]).
///
/// Captures the private parts too — comparison flags live across a
/// `Cmp`/`Jcc` pair and the last-check bookkeeping across a check
/// sequence — so a checkpoint taken between any two instructions
/// resumes bit-exactly. Only [`Vm::restore_state`] can consume one.
#[derive(Clone, Debug)]
pub struct VmState {
    regs: [u64; 16],
    pc: u64,
    flags: i64,
    stats: VmStats,
    last_bary: Option<usize>,
    last_check: Option<(usize, u64)>,
}

impl VmState {
    /// The program counter the snapshot resumes at.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// The statistics as of the snapshot.
    pub fn stats(&self) -> VmStats {
        self.stats
    }
}

impl Vm {
    /// A machine with zeroed registers starting at `pc`.
    pub fn new(pc: u64) -> Self {
        Vm {
            regs: [0; 16],
            pc,
            flags: 0,
            stats: VmStats::default(),
            last_bary: None,
            last_check: None,
        }
    }

    /// Captures the complete machine state, private flags included.
    pub fn snapshot(&self) -> VmState {
        VmState {
            regs: self.regs,
            pc: self.pc,
            flags: self.flags,
            stats: self.stats,
            last_bary: self.last_bary,
            last_check: self.last_check,
        }
    }

    /// Restores a [`Vm::snapshot`], making the machine bit-identical to
    /// the captured one.
    pub fn restore_state(&mut self, state: &VmState) {
        self.regs = state.regs;
        self.pc = state.pc;
        self.flags = state.flags;
        self.stats = state.stats;
        self.last_bary = state.last_bary;
        self.last_check = state.last_check;
    }

    /// Takes the `(bary_slot, target)` of the check whose failure led to
    /// the current `Hlt`, if the halt came from a check sequence. The
    /// runtime's `Audit` violation policy uses this to diagnose the
    /// violation and resume execution at the target.
    pub fn take_last_check(&mut self) -> Option<(usize, u64)> {
        self.last_check.take()
    }

    pub(crate) fn reg(&self, r: Reg) -> u64 {
        self.regs[r.nibble() as usize]
    }

    pub(crate) fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs[r.nibble() as usize] = v;
    }

    pub(crate) fn cond(&self, cc: Cond) -> bool {
        match cc {
            Cond::Eq => self.flags == 0,
            Cond::Ne => self.flags != 0,
            Cond::Lt => self.flags < 0,
            Cond::Le => self.flags <= 0,
            Cond::Gt => self.flags > 0,
            Cond::Ge => self.flags >= 0,
        }
    }

    pub(crate) fn push(&mut self, mem: &mut Sandbox, v: u64) -> Result<(), VmError> {
        let sp = self.reg(Reg::Rsp).wrapping_sub(8);
        mem.write64(sp, v)?;
        self.set_reg(Reg::Rsp, sp);
        Ok(())
    }

    pub(crate) fn pop(&mut self, mem: &Sandbox) -> Result<u64, VmError> {
        let sp = self.reg(Reg::Rsp);
        let v = mem.read64(sp)?;
        self.set_reg(Reg::Rsp, sp + 8);
        Ok(v)
    }

    /// Executes one instruction, decoding it from memory every step.
    ///
    /// This is the fetch path the concurrent-attacker harness must use:
    /// the attacker mutates raw memory between steps, so nothing about
    /// the code bytes may be assumed stable.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on faults; CFI violations surface as
    /// [`Event::Halt`] (the `hlt` of the check sequence), not as errors.
    pub fn step(&mut self, mem: &mut Sandbox, tables: &IdTables) -> Result<Event, VmError> {
        mem.check_exec(self.pc)?;
        let (inst, len) = decode(mem.raw(), self.pc as usize)?;
        let cost = cost_of(&inst);
        self.execute(mem, tables, inst, len as u64, cost)
    }

    /// Executes one instruction, fetching through the predecode cache.
    ///
    /// Produces exactly the same architectural effects as [`Vm::step`]
    /// for any pc: the cache memoises `check_exec` + `decode` results
    /// keyed by the sandbox's code generation, falling back to a live
    /// decode whenever it cannot prove the memoised answer still holds.
    ///
    /// # Errors
    ///
    /// Identical to [`Vm::step`].
    #[inline]
    pub fn step_cached(
        &mut self,
        mem: &mut Sandbox,
        tables: &IdTables,
        cache: &mut PredecodeCache,
    ) -> Result<Event, VmError> {
        let (inst, len, cost) = cache.fetch(mem, self.pc, &mut self.stats)?;
        self.execute(mem, tables, inst, len, cost)
    }

    /// Applies one already-fetched instruction to the machine state:
    /// the charges, the instruction's semantics ([`Vm::apply`]), then
    /// the pc store.
    #[inline]
    pub(crate) fn execute(
        &mut self,
        mem: &mut Sandbox,
        tables: &IdTables,
        inst: Inst,
        len: u64,
        cost: u64,
    ) -> Result<Event, VmError> {
        self.stats.steps += 1;
        self.stats.cycles += cost;
        let mut next = self.pc + len;
        let event = self.apply(mem, tables, inst, self.pc, &mut next)?;
        self.pc = next;
        Ok(event)
    }

    /// The semantics of every instruction: the one copy both the
    /// interpreter ([`Vm::execute`]) and the translated tier's
    /// straight-line ops run. `pc` is the instruction's own address —
    /// inside a translated block `self.pc` is not kept current — and
    /// `next` enters as the fall-through address and leaves as the
    /// successor. Charges nothing and leaves `self.pc` alone; returns
    /// the event that ends a step early (`Syscall`, `Halt`).
    #[inline(always)]
    pub(crate) fn apply(
        &mut self,
        mem: &mut Sandbox,
        tables: &IdTables,
        inst: Inst,
        pc: u64,
        next: &mut u64,
    ) -> Result<Event, VmError> {
        match inst {
            Inst::MovImm { dst, imm } => self.set_reg(dst, imm as u64),
            Inst::MovReg { dst, src } => self.set_reg(dst, self.reg(src)),
            Inst::Load { dst, base, offset } => {
                let addr = self.reg(base).wrapping_add(offset as i64 as u64);
                let v = mem.read64(addr)?;
                self.set_reg(dst, v);
            }
            Inst::Store { base, offset, src } => {
                let addr = self.reg(base).wrapping_add(offset as i64 as u64);
                mem.write64(addr, self.reg(src))?;
            }
            Inst::Load8 { dst, base, offset } => {
                let addr = self.reg(base).wrapping_add(offset as i64 as u64);
                let v = mem.read8(addr)?;
                self.set_reg(dst, u64::from(v));
            }
            Inst::Store8 { base, offset, src } => {
                let addr = self.reg(base).wrapping_add(offset as i64 as u64);
                mem.write8(addr, self.reg(src) as u8)?;
            }
            Inst::Lea { dst, base, offset } => {
                self.set_reg(dst, self.reg(base).wrapping_add(offset as i64 as u64));
            }
            Inst::Alu { op, dst, src } => {
                let a = self.reg(dst) as i64;
                let b = self.reg(src) as i64;
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
                self.set_reg(dst, r as u64);
            }
            Inst::AddImm { dst, imm } => {
                self.set_reg(dst, self.reg(dst).wrapping_add(imm as i64 as u64));
            }
            Inst::AndImm { dst, imm } => {
                self.set_reg(dst, self.reg(dst) & imm);
            }
            Inst::Cmp { a, b } => {
                self.flags = (self.reg(a) as i64).wrapping_sub(self.reg(b) as i64).signum();
            }
            Inst::Cmp16 { a, b } => {
                // The version comparison: equality of the low 16 bits.
                self.flags = i64::from((self.reg(a) as u16) != (self.reg(b) as u16));
            }
            Inst::CmpImm { a, imm } => {
                self.flags = (self.reg(a) as i64).wrapping_sub(imm as i64).signum();
            }
            Inst::TestImm { a, imm } => {
                self.flags = i64::from(self.reg(a) & (imm as i64 as u64) != 0);
            }
            Inst::SetCc { cc, dst } => {
                let v = u64::from(self.cond(cc));
                self.set_reg(dst, v);
            }
            Inst::Jmp { rel } => {
                *next = next.wrapping_add(rel as i64 as u64);
            }
            Inst::Jcc { cc, rel } => {
                if self.cond(cc) {
                    *next = next.wrapping_add(rel as i64 as u64);
                }
            }
            Inst::Call { rel } => {
                self.push(mem, *next)?;
                *next = next.wrapping_add(rel as i64 as u64);
            }
            Inst::CallReg { reg } => {
                self.push(mem, *next)?;
                *next = self.reg(reg);
                self.stats.indirect_taken += 1;
                self.last_check = None;
            }
            Inst::JmpReg { reg } => {
                *next = self.reg(reg);
                self.stats.indirect_taken += 1;
                self.last_check = None;
            }
            Inst::JmpTable { index, table, len } => {
                let idx = self.reg(index);
                if idx >= u64::from(len) {
                    return Err(VmError::TableIndex { pc });
                }
                // Jump tables live in the read-only code region.
                *next = mem.read64(u64::from(table) + idx * 8)?;
                self.stats.indirect_taken += 1;
                self.last_check = None;
            }
            Inst::Ret => {
                *next = self.pop(mem)?;
                self.stats.indirect_taken += 1;
                self.last_check = None;
            }
            Inst::Push { reg } => self.push(mem, self.reg(reg))?,
            Inst::Pop { reg } => {
                let v = self.pop(mem)?;
                self.set_reg(reg, v);
            }
            Inst::Trunc32 { reg } => {
                self.set_reg(reg, self.reg(reg) & 0xffff_ffff);
            }
            Inst::TaryLoad { dst, addr } => {
                // Reads the shared ID tables — outside the sandbox, exactly
                // like the segment-based %gs access of the paper.
                let target = self.reg(addr);
                let word = tables.tary_word(target);
                self.set_reg(dst, u64::from(word));
                self.stats.checks += 1;
                if let Some(slot) = self.last_bary {
                    if let (Some(b), Some(t)) = (
                        Id::from_word(tables.bary_word(slot)),
                        Id::from_word(word),
                    ) {
                        if b.version() != t.version() {
                            self.stats.check_retries += 1;
                        }
                    }
                    self.last_check = Some((slot, target));
                }
            }
            Inst::BaryLoad { dst, slot } => {
                let word = tables.bary_word(slot as usize);
                self.set_reg(dst, u64::from(word));
                self.last_bary = Some(slot as usize);
            }
            Inst::FAlu { op, dst, src } => {
                let a = f64::from_bits(self.reg(dst));
                let b = f64::from_bits(self.reg(src));
                let r = match op {
                    FaluOp::Add => a + b,
                    FaluOp::Sub => a - b,
                    FaluOp::Mul => a * b,
                    FaluOp::Div => a / b,
                };
                self.set_reg(dst, r.to_bits());
            }
            Inst::FCmp { a, b } => {
                let x = f64::from_bits(self.reg(a));
                let y = f64::from_bits(self.reg(b));
                self.flags = match x.partial_cmp(&y) {
                    Some(std::cmp::Ordering::Less) => -1,
                    Some(std::cmp::Ordering::Equal) => 0,
                    _ => 1, // Greater or unordered (NaN)
                };
            }
            Inst::CvtIF { dst, src } => {
                let v = self.reg(src) as i64 as f64;
                self.set_reg(dst, v.to_bits());
            }
            Inst::CvtFI { dst, src } => {
                let v = f64::from_bits(self.reg(src)) as i64;
                self.set_reg(dst, v as u64);
            }
            Inst::Syscall => return Ok(Event::Syscall),
            Inst::Hlt => {
                *next = pc;
                return Ok(Event::Halt { pc });
            }
            Inst::Nop => {}
        }
        Ok(Event::Continue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Perm;
    use mcfi_machine::encode;
    use mcfi_tables::TablesConfig;

    fn setup(insts: &[Inst]) -> (Vm, Sandbox, IdTables) {
        let code = encode(insts);
        let mut mem = Sandbox::new(0x10000);
        mem.map(0, 0x1000, Perm::Rx).unwrap();
        mem.load_image(0, &code).unwrap();
        mem.map(0x1000, 0x1000, Perm::Rw).unwrap(); // stack/data
        let tables = IdTables::new(TablesConfig { code_size: 0x1000, bary_slots: 8 });
        let mut vm = Vm::new(0);
        vm.set_reg(Reg::Rsp, 0x2000);
        (vm, mem, tables)
    }

    fn run(vm: &mut Vm, mem: &mut Sandbox, tables: &IdTables, max: usize) -> Event {
        for _ in 0..max {
            match vm.step(mem, tables).unwrap() {
                Event::Continue => {}
                other => return other,
            }
        }
        panic!("did not finish in {max} steps");
    }

    #[test]
    fn arithmetic_executes() {
        let (mut vm, mut mem, tables) = setup(&[
            Inst::MovImm { dst: Reg::Rax, imm: 20 },
            Inst::MovImm { dst: Reg::Rbx, imm: 22 },
            Inst::Alu { op: AluOp::Add, dst: Reg::Rax, src: Reg::Rbx },
            Inst::Hlt,
        ]);
        run(&mut vm, &mut mem, &tables, 10);
        assert_eq!(vm.reg(Reg::Rax), 42);
        assert_eq!(vm.stats.steps, 4);
    }

    #[test]
    fn push_pop_round_trip() {
        let (mut vm, mut mem, tables) = setup(&[
            Inst::MovImm { dst: Reg::Rax, imm: 99 },
            Inst::Push { reg: Reg::Rax },
            Inst::MovImm { dst: Reg::Rax, imm: 0 },
            Inst::Pop { reg: Reg::Rbx },
            Inst::Hlt,
        ]);
        run(&mut vm, &mut mem, &tables, 10);
        assert_eq!(vm.reg(Reg::Rbx), 99);
        assert_eq!(vm.reg(Reg::Rsp), 0x2000);
    }

    #[test]
    fn conditional_jumps_follow_flags() {
        let (mut vm, mut mem, tables) = setup(&[
            Inst::MovImm { dst: Reg::Rax, imm: 5 },
            Inst::CmpImm { a: Reg::Rax, imm: 5 },
            Inst::Jcc { cc: Cond::Eq, rel: 10 }, // skip the next MovImm
            Inst::MovImm { dst: Reg::Rbx, imm: 1 },
            Inst::Hlt,
        ]);
        run(&mut vm, &mut mem, &tables, 10);
        assert_eq!(vm.reg(Reg::Rbx), 0, "MovImm must be skipped");
    }

    #[test]
    fn division_by_zero_faults() {
        let (mut vm, mut mem, tables) = setup(&[
            Inst::MovImm { dst: Reg::Rax, imm: 1 },
            Inst::MovImm { dst: Reg::Rbx, imm: 0 },
            Inst::Alu { op: AluOp::Div, dst: Reg::Rax, src: Reg::Rbx },
        ]);
        vm.step(&mut mem, &tables).unwrap();
        vm.step(&mut mem, &tables).unwrap();
        assert!(matches!(
            vm.step(&mut mem, &tables),
            Err(VmError::DivideByZero { .. })
        ));
    }

    #[test]
    fn float_ops_use_bit_patterns() {
        let (mut vm, mut mem, tables) = setup(&[
            Inst::MovImm { dst: Reg::Rax, imm: 1.5f64.to_bits() as i64 },
            Inst::MovImm { dst: Reg::Rbx, imm: 2.25f64.to_bits() as i64 },
            Inst::FAlu { op: FaluOp::Add, dst: Reg::Rax, src: Reg::Rbx },
            Inst::Hlt,
        ]);
        run(&mut vm, &mut mem, &tables, 10);
        assert_eq!(f64::from_bits(vm.reg(Reg::Rax)), 3.75);
    }

    #[test]
    fn executing_data_faults() {
        let (mut vm, mut mem, tables) = setup(&[Inst::Hlt]);
        vm.pc = 0x1800; // inside the Rw region
        assert!(matches!(
            vm.step(&mut mem, &tables),
            Err(VmError::Mem(MemFault::ExecProtected { .. }))
        ));
    }

    #[test]
    fn writing_code_faults() {
        let (mut vm, mut mem, tables) = setup(&[
            Inst::MovImm { dst: Reg::Rdx, imm: 0x10 },
            Inst::MovImm { dst: Reg::Rax, imm: 1 },
            Inst::Store { base: Reg::Rdx, offset: 0, src: Reg::Rax },
        ]);
        vm.step(&mut mem, &tables).unwrap();
        vm.step(&mut mem, &tables).unwrap();
        assert!(matches!(
            vm.step(&mut mem, &tables),
            Err(VmError::Mem(MemFault::WriteProtected { .. }))
        ));
    }

    #[test]
    fn check_sequence_halts_on_bad_target() {
        // A raw check sequence with empty tables: target ID 0 is invalid,
        // so the fast compare fails, the validity test fails, halt.
        let (mut vm, mut mem, tables) = setup(&[
            Inst::MovImm { dst: Reg::Rcx, imm: 0x100 },
            Inst::Trunc32 { reg: Reg::Rcx },
            Inst::BaryLoad { dst: Reg::Rdi, slot: 0 },
            Inst::TaryLoad { dst: Reg::Rsi, addr: Reg::Rcx },
            Inst::Cmp { a: Reg::Rdi, b: Reg::Rsi },
            Inst::Jcc { cc: Cond::Ne, rel: 2 }, // skip JmpReg
            Inst::JmpReg { reg: Reg::Rcx },
            Inst::TestImm { a: Reg::Rsi, imm: 1 },
            Inst::Jcc { cc: Cond::Eq, rel: 0 }, // fall through to Hlt either way
            Inst::Hlt,
        ]);
        // Note: with both IDs zero the fast-path compare *succeeds* (0 == 0)
        // — which is why MCFI guarantees Bary slots always hold valid IDs.
        // Install a valid branch ID so the comparison fails as on hardware.
        tables.update(|_| None, |s| (s == 0).then_some(1));
        let ev = run(&mut vm, &mut mem, &tables, 20);
        assert!(matches!(ev, Event::Halt { .. }));
        assert_eq!(vm.stats.checks, 1);
    }

    #[test]
    fn check_sequence_passes_on_good_target() {
        let (mut vm, mut mem, tables) = setup(&[
            Inst::MovImm { dst: Reg::Rcx, imm: 0x100 },
            Inst::Trunc32 { reg: Reg::Rcx },
            Inst::BaryLoad { dst: Reg::Rdi, slot: 0 },
            Inst::TaryLoad { dst: Reg::Rsi, addr: Reg::Rcx },
            Inst::Cmp { a: Reg::Rdi, b: Reg::Rsi },
            Inst::Jcc { cc: Cond::Ne, rel: 2 },
            Inst::JmpReg { reg: Reg::Rcx },
            Inst::Hlt,
        ]);
        tables.update(|a| (a == 0x100).then_some(3), |s| (s == 0).then_some(3));
        // Put a Hlt at 0x100 so execution stops after the transfer.
        mem.protect(0, Perm::Rw).unwrap();
        mem.load_image(0x100, &encode(&[Inst::Hlt])).unwrap();
        mem.protect(0, Perm::Rx).unwrap();
        let ev = run(&mut vm, &mut mem, &tables, 20);
        assert_eq!(ev, Event::Halt { pc: 0x100 });
        assert_eq!(vm.stats.indirect_taken, 1);
    }

    #[test]
    fn syscall_surfaces_to_the_runtime() {
        let (mut vm, mut mem, tables) = setup(&[Inst::Syscall, Inst::Hlt]);
        assert_eq!(vm.step(&mut mem, &tables).unwrap(), Event::Syscall);
        // pc advanced past the syscall.
        assert_eq!(vm.pc, 1);
    }

    #[test]
    fn jump_table_dispatch() {
        // Table at 0x200 with 2 entries; index 1 -> 0x40.
        let (mut vm, mut mem, tables) = setup(&[
            Inst::MovImm { dst: Reg::Rax, imm: 1 },
            Inst::JmpTable { index: Reg::Rax, table: 0x200, len: 2 },
        ]);
        mem.protect(0, Perm::Rw).unwrap();
        let mut table = Vec::new();
        table.extend_from_slice(&0x30u64.to_le_bytes());
        table.extend_from_slice(&0x40u64.to_le_bytes());
        mem.load_image(0x200, &table).unwrap();
        mem.load_image(0x40, &encode(&[Inst::Hlt])).unwrap();
        mem.protect(0, Perm::Rx).unwrap();
        let ev = run(&mut vm, &mut mem, &tables, 10);
        assert_eq!(ev, Event::Halt { pc: 0x40 });
    }

    #[test]
    fn jump_table_bounds_are_enforced() {
        let (mut vm, mut mem, tables) = setup(&[
            Inst::MovImm { dst: Reg::Rax, imm: 9 },
            Inst::JmpTable { index: Reg::Rax, table: 0x200, len: 2 },
        ]);
        vm.step(&mut mem, &tables).unwrap();
        assert!(matches!(vm.step(&mut mem, &tables), Err(VmError::TableIndex { .. })));
    }
}
