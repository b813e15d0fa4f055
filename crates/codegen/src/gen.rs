//! IR → SimX64 code generation with MCFI instrumentation.
//!
//! This is the reproduction of the paper's rewriter (§7): three conceptual
//! backend passes are folded into one emission pass —
//!
//! 1. **scratch-register reservation**: `%rcx`, `%rdi`, `%rsi` are never
//!    allocated by ordinary code and are free for check transactions;
//! 2. **instrumentation**: returns are rewritten to `Pop`/checked-`JmpReg`
//!    sequences (paper Fig. 4); indirect calls and indirect tail calls get
//!    the same check inlined; memory writes through computed addresses are
//!    masked into the sandbox (`AndImm %rdx, 0xffff_ffff`);
//! 3. **type-information dumping**: function signatures, indirect-branch
//!    sites, return sites, and jump tables are recorded as the module's
//!    auxiliary information.
//!
//! Function entries, return sites, and `setjmp` landing points — every
//! possible Tary target — are 4-byte aligned with `Nop` padding (§5.1).

use std::collections::BTreeMap;
use std::fmt;

use mcfi_ir::{
    BlockId, CmpOp, GlobalInit, IrBinOp, IrFBinOp, IrFunction, IrInst, IrModule, Terminator,
    Value, VReg, Width,
};
use mcfi_machine::check::{self, Transfer};
use mcfi_machine::{AluOp, Cond, FaluOp, Inst, Reg, SANDBOX_MASK};
use mcfi_module::{
    BranchKind, CalleeKind, FunctionSym, GlobalSym, Import, IndirectBranchInfo, JumpTableInfo,
    Module, Reloc, RelocKind, ReturnSiteInfo,
};

use crate::asm::{Asm, Label};

/// Instrumentation policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Policy {
    /// Full MCFI instrumentation (checks, sandboxing, alignment).
    #[default]
    Mcfi,
    /// No CFI: raw returns and indirect branches, unmasked stores. The
    /// baseline for overhead measurements (Fig. 5/6).
    NoCfi,
}

/// Code-generation options.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CodegenOptions {
    /// Instrumentation policy.
    pub policy: Policy,
    /// Emit tail calls as jumps. The paper notes LLVM's tail-call
    /// optimization fires on x86-64 and not on x86-32, producing fewer
    /// equivalence classes on x86-64 (Table 3); `true` models x86-64.
    pub tail_calls: bool,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions { policy: Policy::Mcfi, tail_calls: true }
    }
}

/// A code-generation failure.
#[derive(Clone, Debug)]
pub struct CodegenError {
    /// Description.
    pub message: String,
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codegen error: {}", self.message)
    }
}

impl std::error::Error for CodegenError {}

/// Maximum register-passed arguments (no stack arguments in SimX64).
const MAX_ARGS: usize = Reg::ARGS.len();

/// Switch ranges up to this density become jump tables; sparser switches
/// compile to compare chains.
const MAX_TABLE_RANGE: i64 = 1024;

/// Compiles an [`IrModule`] into an instrumented MCFI [`Module`].
///
/// # Errors
///
/// Fails on functions that exceed the register-argument limit.
pub fn compile(ir: &IrModule, opts: &CodegenOptions) -> Result<Module, CodegenError> {
    let mut gen = Generator {
        opts: *opts,
        asm: Asm::new(),
        branches: Vec::new(),
        return_sites: Vec::new(),
        tables: Vec::new(),
        functions: BTreeMap::new(),
        tail_calls: Vec::new(),
    };
    for f in &ir.functions {
        gen.compile_function(ir, f)?;
    }
    // Jump tables live in the (read-only) code region after all bodies.
    let mut table_infos = Vec::new();
    for pt in std::mem::take(&mut gen.tables) {
        gen.asm.align_to(8);
        let table_offset = gen.asm.reserve(8 * pt.entries.len());
        let entries = pt
            .entries
            .iter()
            .map(|l| gen.asm.offset_of(*l).expect("all switch targets bound"))
            .collect();
        table_infos.push((pt.index, JumpTableInfo {
            table_offset,
            entries,
            function: pt.function,
        }));
    }
    table_infos.sort_by_key(|(i, _)| *i);

    let (code, relocs) = gen.asm.finish();

    let mut module = Module::new(ir.name.clone());
    module.code = code;
    module.relocs = relocs;
    module.functions = gen.functions;
    module.aux.env = ir.env.clone();
    module.aux.indirect_branches = gen.branches;
    module.aux.return_sites = gen.return_sites;
    module.aux.jump_tables = table_infos.into_iter().map(|(_, t)| t).collect();
    module.aux.tail_calls = gen.tail_calls;
    module.aux.imports = ir
        .extern_funcs
        .iter()
        .map(|(name, sig)| Import { name: clone_str(name), sig: sig.clone() })
        .collect();

    layout_data(ir, &mut module);
    Ok(module)
}

fn clone_str(s: &str) -> String {
    s.to_string()
}

/// Lays out globals, then string literals, into the data image.
fn layout_data(ir: &IrModule, module: &mut Module) {
    let mut data = Vec::new();
    for g in &ir.globals {
        let off = round_up(data.len(), 8);
        data.resize(off + g.size.max(8), 0);
        match &g.init {
            Some(GlobalInit::Int(v)) => {
                data[off..off + 8].copy_from_slice(&v.to_le_bytes());
            }
            Some(GlobalInit::Float(v)) => {
                data[off..off + 8].copy_from_slice(&v.to_bits().to_le_bytes());
            }
            Some(GlobalInit::Str(idx)) => {
                module.data_relocs.push(Reloc {
                    patch_at: off,
                    kind: RelocKind::GlobalAbs(string_name(*idx)),
                });
            }
            Some(GlobalInit::FuncAddr(name)) => {
                module.data_relocs.push(Reloc {
                    patch_at: off,
                    kind: RelocKind::FuncAbs(name.clone()),
                });
            }
            None => {}
        }
        module.globals.insert(g.name.clone(), GlobalSym { offset: off, size: g.size });
    }
    for (i, s) in ir.strings.iter().enumerate() {
        let off = data.len();
        data.extend_from_slice(s.as_bytes());
        data.push(0);
        module
            .globals
            .insert(string_name(i as u32), GlobalSym { offset: off, size: s.len() + 1 });
    }
    module.data = data;
}

/// The hidden global name of string-pool entry `idx`.
pub fn string_name(idx: u32) -> String {
    format!("__str{idx}")
}

fn round_up(n: usize, align: usize) -> usize {
    n.div_ceil(align) * align
}

struct PendingTable {
    index: usize,
    entries: Vec<Label>,
    function: String,
}

struct Generator {
    opts: CodegenOptions,
    asm: Asm,
    branches: Vec<IndirectBranchInfo>,
    return_sites: Vec<ReturnSiteInfo>,
    tables: Vec<PendingTable>,
    functions: BTreeMap<String, FunctionSym>,
    tail_calls: Vec<(String, String)>,
}

/// Per-function emission state.
struct FuncCtx {
    name: String,
    /// rbp-relative offsets (positive distances below rbp) per local.
    local_offsets: Vec<i32>,
    /// Base offset below rbp where vreg spill slots start.
    vreg_base: i32,
    frame_size: i32,
    block_labels: Vec<Label>,
}

impl FuncCtx {
    fn vreg_off(&self, v: VReg) -> i32 {
        self.vreg_base + 8 * (v.0 as i32 + 1)
    }
}

impl Generator {
    fn mcfi(&self) -> bool {
        self.opts.policy == Policy::Mcfi
    }

    fn compile_function(&mut self, ir: &IrModule, f: &IrFunction) -> Result<(), CodegenError> {
        if f.param_count > MAX_ARGS {
            return Err(CodegenError {
                message: format!(
                    "`{}` has {} parameters; SimX64 passes at most {MAX_ARGS}",
                    f.name, f.param_count
                ),
            });
        }
        // Function entries are indirect-branch targets: align them.
        if self.mcfi() {
            self.asm.align_to(4);
        }
        let entry = self.asm.here();

        // Frame layout.
        let mut local_offsets = Vec::with_capacity(f.locals.len());
        let mut off = 0i32;
        for l in &f.locals {
            off += round_up(l.size.max(1), 8) as i32;
            local_offsets.push(off);
        }
        let vreg_base = off;
        let frame_size = round_up((vreg_base + 8 * f.vreg_count as i32) as usize, 16) as i32;
        let mut cx = FuncCtx {
            name: f.name.clone(),
            local_offsets,
            vreg_base,
            frame_size,
            block_labels: (0..f.blocks.len()).map(|_| self.asm.label()).collect(),
        };

        // Prologue.
        self.asm.emit(Inst::Push { reg: Reg::Rbp });
        self.asm.emit(Inst::MovReg { dst: Reg::Rbp, src: Reg::Rsp });
        self.asm.emit(Inst::AddImm { dst: Reg::Rsp, imm: -cx.frame_size });
        for (i, _) in f.locals.iter().take(f.param_count).enumerate() {
            self.asm.emit(Inst::Store {
                base: Reg::Rbp,
                offset: -cx.local_offsets[i],
                src: Reg::ARGS[i],
            });
        }

        for (bb, block) in f.iter_blocks() {
            let label = cx.block_labels[bb.0 as usize];
            self.asm.bind(label);
            for inst in &block.insts {
                self.emit_inst(&mut cx, inst)?;
            }
            let term = block.term.as_ref().expect("lowering terminates every block");
            self.emit_term(&mut cx, term)?;
        }

        let size = self.asm.here() - entry;
        self.functions.insert(
            f.name.clone(),
            FunctionSym {
                offset: entry,
                size,
                sig: f.sig.clone(),
                is_static: f.is_static,
                address_taken: ir.address_taken.contains(&f.name),
            },
        );
        Ok(())
    }

    // ---------------- operand plumbing ----------------

    fn load_val(&mut self, cx: &FuncCtx, v: Value, reg: Reg) {
        match v {
            Value::ImmI(i) => {
                self.asm.emit(Inst::MovImm { dst: reg, imm: i });
            }
            Value::ImmF(f) => {
                self.asm.emit(Inst::MovImm { dst: reg, imm: f.to_bits() as i64 });
            }
            Value::Reg(vr) => {
                self.asm.emit(Inst::Load {
                    dst: reg,
                    base: Reg::Rbp,
                    offset: -cx.vreg_off(vr),
                });
            }
        }
    }

    fn store_vreg(&mut self, cx: &FuncCtx, vr: VReg, reg: Reg) {
        self.asm.emit(Inst::Store { base: Reg::Rbp, offset: -cx.vreg_off(vr), src: reg });
    }

    fn load_args(&mut self, cx: &FuncCtx, name: &str, args: &[Value]) -> Result<(), CodegenError> {
        if args.len() > MAX_ARGS {
            return Err(CodegenError {
                message: format!(
                    "call to `{name}` passes {} arguments; SimX64 passes at most {MAX_ARGS}",
                    args.len()
                ),
            });
        }
        for (i, a) in args.iter().enumerate() {
            self.load_val(cx, *a, Reg::ARGS[i]);
        }
        Ok(())
    }

    // ---------------- instructions ----------------

    fn emit_inst(&mut self, cx: &mut FuncCtx, inst: &IrInst) -> Result<(), CodegenError> {
        match inst {
            IrInst::Copy { dst, src } => {
                self.load_val(cx, *src, Reg::Rax);
                self.store_vreg(cx, *dst, Reg::Rax);
            }
            IrInst::Bin { op, dst, a, b } => {
                self.load_val(cx, *a, Reg::Rax);
                self.load_val(cx, *b, Reg::Rbx);
                let aop = match op {
                    IrBinOp::Add => AluOp::Add,
                    IrBinOp::Sub => AluOp::Sub,
                    IrBinOp::Mul => AluOp::Mul,
                    IrBinOp::Div => AluOp::Div,
                    IrBinOp::Rem => AluOp::Rem,
                    IrBinOp::And => AluOp::And,
                    IrBinOp::Or => AluOp::Or,
                    IrBinOp::Xor => AluOp::Xor,
                    IrBinOp::Shl => AluOp::Shl,
                    IrBinOp::Shr => AluOp::Shr,
                };
                self.asm.emit(Inst::Alu { op: aop, dst: Reg::Rax, src: Reg::Rbx });
                self.store_vreg(cx, *dst, Reg::Rax);
            }
            IrInst::FBin { op, dst, a, b } => {
                self.load_val(cx, *a, Reg::Rax);
                self.load_val(cx, *b, Reg::Rbx);
                let fop = match op {
                    IrFBinOp::Add => FaluOp::Add,
                    IrFBinOp::Sub => FaluOp::Sub,
                    IrFBinOp::Mul => FaluOp::Mul,
                    IrFBinOp::Div => FaluOp::Div,
                };
                self.asm.emit(Inst::FAlu { op: fop, dst: Reg::Rax, src: Reg::Rbx });
                self.store_vreg(cx, *dst, Reg::Rax);
            }
            IrInst::Cmp { op, dst, a, b } => {
                self.load_val(cx, *a, Reg::Rax);
                self.load_val(cx, *b, Reg::Rbx);
                self.asm.emit(Inst::Cmp { a: Reg::Rax, b: Reg::Rbx });
                self.asm.emit(Inst::SetCc { cc: cond_of(*op), dst: Reg::Rax });
                self.store_vreg(cx, *dst, Reg::Rax);
            }
            IrInst::FCmp { op, dst, a, b } => {
                self.load_val(cx, *a, Reg::Rax);
                self.load_val(cx, *b, Reg::Rbx);
                self.asm.emit(Inst::FCmp { a: Reg::Rax, b: Reg::Rbx });
                self.asm.emit(Inst::SetCc { cc: cond_of(*op), dst: Reg::Rax });
                self.store_vreg(cx, *dst, Reg::Rax);
            }
            IrInst::CvtIF { dst, src } => {
                self.load_val(cx, *src, Reg::Rax);
                self.asm.emit(Inst::CvtIF { dst: Reg::Rax, src: Reg::Rax });
                self.store_vreg(cx, *dst, Reg::Rax);
            }
            IrInst::CvtFI { dst, src } => {
                self.load_val(cx, *src, Reg::Rax);
                self.asm.emit(Inst::CvtFI { dst: Reg::Rax, src: Reg::Rax });
                self.store_vreg(cx, *dst, Reg::Rax);
            }
            IrInst::Load { dst, addr, width } => {
                self.load_val(cx, *addr, Reg::Rax);
                match width {
                    Width::W64 => {
                        self.asm.emit(Inst::Load { dst: Reg::Rax, base: Reg::Rax, offset: 0 });
                    }
                    Width::W8 => {
                        self.asm.emit(Inst::Load8 { dst: Reg::Rax, base: Reg::Rax, offset: 0 });
                    }
                }
                self.store_vreg(cx, *dst, Reg::Rax);
            }
            IrInst::Store { addr, src, width } => {
                self.load_val(cx, *src, Reg::Rax);
                self.load_val(cx, *addr, Reg::Rdx);
                if self.mcfi() {
                    // The sandboxing pass: writes are confined to [0, 4 GiB).
                    // The mask immediately precedes the store so the verifier
                    // can check the pairing locally.
                    self.asm.emit(Inst::AndImm { dst: Reg::Rdx, imm: SANDBOX_MASK });
                }
                match width {
                    Width::W64 => {
                        self.asm.emit(Inst::Store { base: Reg::Rdx, offset: 0, src: Reg::Rax });
                    }
                    Width::W8 => {
                        self.asm.emit(Inst::Store8 { base: Reg::Rdx, offset: 0, src: Reg::Rax });
                    }
                }
            }
            IrInst::AddrLocal { dst, local } => {
                let off = cx.local_offsets[local.0 as usize];
                self.asm.emit(Inst::Lea { dst: Reg::Rax, base: Reg::Rbp, offset: -off });
                self.store_vreg(cx, *dst, Reg::Rax);
            }
            IrInst::AddrGlobal { dst, name } => {
                self.asm.mov_reloc(Reg::Rax, RelocKind::GlobalAbs(name.clone()));
                self.store_vreg(cx, *dst, Reg::Rax);
            }
            IrInst::AddrFunc { dst, name } => {
                self.asm.mov_reloc(Reg::Rax, RelocKind::FuncAbs(name.clone()));
                self.store_vreg(cx, *dst, Reg::Rax);
            }
            IrInst::AddrString { dst, idx } => {
                self.asm.mov_reloc(Reg::Rax, RelocKind::GlobalAbs(string_name(*idx)));
                self.store_vreg(cx, *dst, Reg::Rax);
            }
            IrInst::CallDirect { dst, callee, args } => {
                self.load_args(cx, callee, args)?;
                if self.mcfi() {
                    // Return sites are Tary targets: align the call's end.
                    self.asm.align_end_of_next(5, 4);
                }
                let at = self.asm.call_reloc(callee, false);
                self.return_sites.push(ReturnSiteInfo {
                    offset: at + 5,
                    in_function: cx.name.clone(),
                    callee: CalleeKind::Direct(callee.clone()),
                });
                if let Some(d) = dst {
                    self.store_vreg(cx, *d, Reg::Rax);
                }
            }
            IrInst::CallIndirect { dst, fptr, args, sig } => {
                self.load_args(cx, "<indirect>", args)?;
                self.load_val(cx, *fptr, Reg::Rcx);
                let kind = BranchKind::IndirectCall { sig: sig.clone() };
                let site = self.emit_check(cx, kind, Transfer::Call);
                self.return_sites.push(ReturnSiteInfo {
                    offset: site,
                    in_function: cx.name.clone(),
                    callee: CalleeKind::Indirect(sig.clone()),
                });
                if let Some(d) = dst {
                    self.store_vreg(cx, *d, Reg::Rax);
                }
            }
            IrInst::SetJmp { dst, env } => {
                self.load_val(cx, *env, Reg::Rdx);
                if self.mcfi() {
                    self.asm.emit(Inst::AndImm { dst: Reg::Rdx, imm: SANDBOX_MASK });
                }
                let reloc_idx = self.asm.mov_code_abs(Reg::Rbx);
                self.asm.emit(Inst::Store { base: Reg::Rdx, offset: 0, src: Reg::Rbx });
                self.asm.emit(Inst::Store { base: Reg::Rdx, offset: 8, src: Reg::Rsp });
                self.asm.emit(Inst::Store { base: Reg::Rdx, offset: 16, src: Reg::Rbp });
                self.asm.emit(Inst::MovImm { dst: Reg::Rax, imm: 0 });
                if self.mcfi() {
                    self.asm.align_to(4);
                }
                let landing = self.asm.here();
                self.asm.set_code_abs(reloc_idx, landing as u64);
                self.return_sites.push(ReturnSiteInfo {
                    offset: landing,
                    in_function: cx.name.clone(),
                    callee: CalleeKind::SetJmp,
                });
                self.store_vreg(cx, *dst, Reg::Rax);
            }
            IrInst::LongJmp { env, val } => {
                self.load_val(cx, *env, Reg::Rax);
                self.load_val(cx, *val, Reg::R15);
                self.asm.emit(Inst::Load { dst: Reg::Rcx, base: Reg::Rax, offset: 0 });
                self.asm.emit(Inst::Load { dst: Reg::R14, base: Reg::Rax, offset: 8 });
                self.asm.emit(Inst::Load { dst: Reg::Rbp, base: Reg::Rax, offset: 16 });
                self.asm.emit(Inst::MovReg { dst: Reg::Rsp, src: Reg::R14 });
                self.asm.emit(Inst::MovReg { dst: Reg::Rax, src: Reg::R15 });
                self.emit_check(cx, BranchKind::LongJmp, Transfer::Jump);
            }
        }
        Ok(())
    }

    // ---------------- terminators ----------------

    fn emit_term(&mut self, cx: &mut FuncCtx, term: &Terminator) -> Result<(), CodegenError> {
        match term {
            Terminator::Jmp(bb) => {
                let l = cx.block_labels[bb.0 as usize];
                self.asm.jmp(l);
            }
            Terminator::Br { cond, then_bb, else_bb } => {
                self.load_val(cx, *cond, Reg::Rax);
                self.asm.emit(Inst::CmpImm { a: Reg::Rax, imm: 0 });
                let lt = cx.block_labels[then_bb.0 as usize];
                let le = cx.block_labels[else_bb.0 as usize];
                self.asm.jcc(Cond::Ne, lt);
                self.asm.jmp(le);
            }
            Terminator::Switch { scrutinee, cases, default } => {
                self.emit_switch(cx, *scrutinee, cases, *default)?;
            }
            Terminator::Ret(v) => {
                if let Some(v) = v {
                    self.load_val(cx, *v, Reg::Rax);
                }
                self.emit_epilogue();
                self.emit_return(cx);
            }
            Terminator::TailCallDirect { callee, args } => {
                if self.opts.tail_calls {
                    self.load_args(cx, callee, args)?;
                    self.emit_epilogue();
                    self.asm.call_reloc(callee, true);
                    self.tail_calls.push((cx.name.clone(), callee.clone()));
                } else {
                    // x86-32 mode: an ordinary call followed by a return.
                    self.emit_inst(
                        cx,
                        &IrInst::CallDirect {
                            dst: Some(VReg(0)),
                            callee: callee.clone(),
                            args: args.clone(),
                        },
                    )?;
                    self.load_val(cx, Value::Reg(VReg(0)), Reg::Rax);
                    self.emit_epilogue();
                    self.emit_return(cx);
                }
            }
            Terminator::TailCallIndirect { fptr, args, sig } => {
                if self.opts.tail_calls {
                    self.load_args(cx, "<indirect>", args)?;
                    self.load_val(cx, *fptr, Reg::Rcx);
                    self.emit_epilogue();
                    let kind = BranchKind::IndirectTailCall { sig: sig.clone() };
                    self.emit_check(cx, kind, Transfer::Jump);
                } else {
                    self.emit_inst(
                        cx,
                        &IrInst::CallIndirect {
                            dst: Some(VReg(0)),
                            fptr: *fptr,
                            args: args.clone(),
                            sig: sig.clone(),
                        },
                    )?;
                    self.load_val(cx, Value::Reg(VReg(0)), Reg::Rax);
                    self.emit_epilogue();
                    self.emit_return(cx);
                }
            }
            Terminator::Unreachable => {
                self.asm.emit(Inst::Hlt);
            }
        }
        Ok(())
    }

    fn emit_epilogue(&mut self) {
        self.asm.emit(Inst::MovReg { dst: Reg::Rsp, src: Reg::Rbp });
        self.asm.emit(Inst::Pop { reg: Reg::Rbp });
    }

    /// Emits the (instrumented) return. Under MCFI this is the Fig. 4
    /// sequence: the `ret` is rewritten to `pop %rcx` + checked `jmp *%rcx`
    /// so a concurrent attacker cannot modify the return address between
    /// the check and the transfer.
    fn emit_return(&mut self, cx: &FuncCtx) {
        if !self.mcfi() {
            self.asm.emit(Inst::Ret);
            return;
        }
        self.asm.emit(Inst::Pop { reg: Reg::Rcx });
        self.emit_check(cx, BranchKind::Return { function: cx.name.clone() }, Transfer::Jump);
    }

    /// Emits the check-transaction instruction sequence (paper Fig. 4,
    /// [`mcfi_machine::check`]) for the indirect branch whose target is
    /// in `%rcx`. Returns the code offset immediately after the branch
    /// instruction (the return site, for calls).
    ///
    /// Under `Policy::NoCfi` only the raw branch is emitted.
    fn emit_check(&mut self, cx: &FuncCtx, kind: BranchKind, transfer: Transfer) -> usize {
        if !self.mcfi() {
            let raw = match transfer {
                Transfer::Call => Inst::CallReg { reg: Reg::Rcx },
                Transfer::Jump => Inst::JmpReg { reg: Reg::Rcx },
            };
            return self.asm.emit(raw) + 2;
        }
        let slot = self.branches.len() as u32;
        let check = self.asm.append(|code| check::emit(code, slot, transfer, None));
        self.branches.push(IndirectBranchInfo {
            local_slot: slot,
            check_offset: check.start,
            branch_offset: check.branch,
            in_function: cx.name.clone(),
            kind,
        });
        check.end()
    }

    fn emit_switch(
        &mut self,
        cx: &mut FuncCtx,
        scrutinee: Value,
        cases: &[(i64, BlockId)],
        default: BlockId,
    ) -> Result<(), CodegenError> {
        self.load_val(cx, scrutinee, Reg::Rax);
        let l_default = cx.block_labels[default.0 as usize];
        if cases.is_empty() {
            self.asm.jmp(l_default);
            return Ok(());
        }
        let min = cases.iter().map(|(v, _)| *v).min().expect("nonempty");
        let max = cases.iter().map(|(v, _)| *v).max().expect("nonempty");
        let range = max - min + 1;
        if range > MAX_TABLE_RANGE || cases.len() < 3 {
            // Sparse or tiny: a compare chain.
            for (v, bb) in cases {
                self.asm.emit(Inst::CmpImm { a: Reg::Rax, imm: *v as i32 });
                self.asm.jcc(Cond::Eq, cx.block_labels[bb.0 as usize]);
            }
            self.asm.jmp(l_default);
            return Ok(());
        }
        // Dense: a read-only jump table (the intraprocedural indirect jump).
        self.asm.emit(Inst::MovImm { dst: Reg::Rbx, imm: min });
        self.asm.emit(Inst::Cmp { a: Reg::Rax, b: Reg::Rbx });
        self.asm.jcc(Cond::Lt, l_default);
        self.asm.emit(Inst::MovImm { dst: Reg::Rbx, imm: max });
        self.asm.emit(Inst::Cmp { a: Reg::Rax, b: Reg::Rbx });
        self.asm.jcc(Cond::Gt, l_default);
        if min != 0 {
            self.asm.emit(Inst::AddImm { dst: Reg::Rax, imm: -(min as i32) });
        }
        let mut entry_labels = vec![l_default; range as usize];
        for (v, bb) in cases {
            entry_labels[(v - min) as usize] = cx.block_labels[bb.0 as usize];
        }
        let index = self.tables.len();
        self.asm.emit_reloc(
            Inst::JmpTable { index: Reg::Rax, table: 0, len: range as u32 },
            RelocKind::JumpTable(index as u32),
        );
        self.tables.push(PendingTable {
            index,
            entries: entry_labels,
            function: cx.name.clone(),
        });
        Ok(())
    }
}

fn cond_of(op: CmpOp) -> Cond {
    match op {
        CmpOp::Eq => Cond::Eq,
        CmpOp::Ne => Cond::Ne,
        CmpOp::Lt => Cond::Lt,
        CmpOp::Le => Cond::Le,
        CmpOp::Gt => Cond::Gt,
        CmpOp::Ge => Cond::Ge,
    }
}
