//! The independent MCFI module verifier (paper §7).
//!
//! "We have also implemented an independent verifier … that performs
//! modular verification of MCFI modules. The verifier takes an MCFI
//! module, disassembles the module, and checks whether indirect branches
//! are instrumented as required, memory writes stay in the sandbox (so
//! that the tables are protected), and no-ops are inserted to make
//! indirect-branch targets aligned." The verifier removes the rewriter
//! from the trusted computing base: a buggy or malicious compiler cannot
//! slip uninstrumented branches or unsandboxed writes past it.
//!
//! The auxiliary type information makes *complete* disassembly possible —
//! [`verify`] decodes every instruction byte of the module (jump tables
//! are data and are checked structurally instead).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeSet;
use std::fmt;

use mcfi_machine::check::{self, Check};
use mcfi_machine::{decode, Inst, Reg, SANDBOX_MASK, TARGET_ALIGN};
use mcfi_module::{CalleeKind, IndirectBranchInfo, Module, RelocKind, ReturnSiteInfo};

/// A single verification failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Violation {
    /// The code could not be fully disassembled.
    Undecodable {
        /// Offset of the failure.
        offset: usize,
        /// Decoder message.
        message: String,
    },
    /// A raw `ret` appears in instrumented code.
    RawReturn {
        /// Offset.
        offset: usize,
    },
    /// An indirect branch is not part of a recorded check sequence.
    UncheckedIndirectBranch {
        /// Offset.
        offset: usize,
    },
    /// A recorded check sequence is not laid out as the emitter lays it
    /// out (paper Fig. 4, [`mcfi_machine::check`]).
    MalformedCheck {
        /// Offset of the `BaryLoad`.
        offset: usize,
        /// What was wrong.
        message: String,
    },
    /// A recorded check sequence's own branch goes where Fig. 4 does not
    /// send it: the `jne` after the compare to anything but the slow
    /// path's test, the `jz` to anything but the `hlt`, the version
    /// `jne` to anything but the `BaryLoad`, or a call's `jmp` to
    /// anything but the offset just past the `hlt`.
    MisdirectedCheck {
        /// Offset of the `BaryLoad`.
        offset: usize,
        /// Which branch.
        what: &'static str,
        /// Where it goes.
        target: usize,
    },
    /// A direct branch or a declared target (function entry, return
    /// site, setjmp landing, jump-table entry) lands where no transfer
    /// may: off the linear disassembly's instruction boundaries (inside
    /// an instruction, in jump-table data or outside the code), or
    /// strictly inside a guarded sequence — a check after its
    /// `BaryLoad`, or a masked store after its `AndImm`.
    StrayTarget {
        /// Where it lands.
        target: usize,
        /// What lands there.
        what: &'static str,
        /// The branch's offset, for a direct branch.
        from: Option<usize>,
    },
    /// A store's address register is not masked into the sandbox
    /// immediately before the write (and is not frame-relative).
    UnsandboxedWrite {
        /// Offset of the store.
        offset: usize,
    },
    /// A function entry, return site, or setjmp landing is misaligned.
    MisalignedTarget {
        /// The target offset.
        offset: usize,
        /// Which kind of target.
        what: &'static str,
    },
    /// A jump-table entry points outside its owning function.
    JumpTableEscape {
        /// Table offset.
        table: usize,
        /// The offending entry.
        entry: usize,
    },
    /// Recorded metadata points outside the module's code image — the
    /// kind of inconsistency only a corrupt or hostile image exhibits.
    OutOfBounds {
        /// The offending offset.
        offset: usize,
        /// Which kind of metadata.
        what: &'static str,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Undecodable { offset, message } => {
                write!(f, "undecodable code at {offset:#x}: {message}")
            }
            Violation::RawReturn { offset } => write!(f, "raw ret at {offset:#x}"),
            Violation::UncheckedIndirectBranch { offset } => {
                write!(f, "unchecked indirect branch at {offset:#x}")
            }
            Violation::MalformedCheck { offset, message } => {
                write!(f, "malformed check at {offset:#x}: {message}")
            }
            Violation::MisdirectedCheck { offset, what, target } => {
                write!(f, "check at {offset:#x} sends its {what} to {target:#x}")
            }
            Violation::StrayTarget { target, what, from } => {
                write!(f, "{what}")?;
                if let Some(from) = from {
                    write!(f, " at {from:#x}")?;
                }
                write!(f, " lands at {target:#x}, where no transfer may land")
            }
            Violation::UnsandboxedWrite { offset } => {
                write!(f, "unsandboxed memory write at {offset:#x}")
            }
            Violation::MisalignedTarget { offset, what } => {
                write!(f, "misaligned {what} at {offset:#x}")
            }
            Violation::JumpTableEscape { table, entry } => {
                write!(f, "jump table at {table:#x} escapes its function via {entry:#x}")
            }
            Violation::OutOfBounds { offset, what } => {
                write!(f, "{what} at {offset:#x} is outside the code image")
            }
        }
    }
}

/// The verification report.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All violations found (empty = the module verifies).
    pub violations: Vec<Violation>,
    /// Instructions disassembled.
    pub instructions: usize,
    /// Check sequences validated.
    pub checks: usize,
    /// Stores validated.
    pub stores: usize,
}

impl Report {
    /// Whether the module passed.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Verifies an MCFI module.
///
/// Checks performed:
/// 1. the entire code image (minus jump-table data) disassembles;
/// 2. no raw `Ret` instructions remain;
/// 3. every `CallReg`/`JmpReg` is the branch of a recorded check sequence
///    laid out exactly as [`mcfi_machine::check::emit`] writes it, with
///    `%rdi`/`%rsi`/`%rcx`, read along the linear disassembly, and whose
///    own branches go where Fig. 4 sends them;
/// 4. every `Store`/`Store8` either goes through the frame/stack
///    registers or its base register is masked by
///    `AndImm reg, SANDBOX_MASK` that dominates the store in the same
///    straight-line run, with no intervening redefinition of the base
///    (multi-word writes like the setjmp buffer save share one mask);
/// 5. function entries, return sites, and setjmp landings are 4-byte
///    aligned;
/// 6. jump-table entries stay within their owning function;
/// 7. every direct `Jmp`/`Jcc`/`Call` target and every declared target
///    (function entry, return site, setjmp landing, jump-table entry)
///    is an instruction boundary of the linear disassembly, outside
///    jump-table data, and not strictly inside a guarded sequence: a
///    check from its `TaryLoad` through its branch
///    ([`mcfi_machine::check::Check::guarded`]), or a mask from the
///    instruction after its `AndImm` through the last store it covers.
///    A branch whose displacement carries a `CallRel` relocation is
///    exempt: the loader aims it at a function entry or a PLT stub.
pub fn verify(module: &Module) -> Report {
    let mut report = Report::default();

    // Jump tables are read-only data inside the code region; skip them
    // during linear disassembly.
    // Saturating: a hostile table span must clamp, not overflow.
    let table_ranges: Vec<(usize, usize)> = module
        .aux
        .jump_tables
        .iter()
        .map(|t| {
            (t.table_offset, t.table_offset.saturating_add(t.entries.len().saturating_mul(8)))
        })
        .collect();
    let in_table = |off: usize| table_ranges.iter().any(|(s, e)| off >= *s && off < *e);

    let branch_offsets: BTreeSet<usize> =
        module.aux.indirect_branches.iter().map(|b| b.branch_offset).collect();

    // Pass 1: linear disassembly with local pattern checks.
    let mut insts: Vec<(usize, Inst, usize)> = Vec::new();
    let mut off = 0;
    while off < module.code.len() {
        if in_table(off) {
            off += 1;
            continue;
        }
        match decode(&module.code, off) {
            Ok((inst, len)) => {
                insts.push((off, inst, len));
                off += len;
            }
            Err(e) => {
                report
                    .violations
                    .push(Violation::Undecodable { offset: off, message: e.to_string() });
                off += 1;
            }
        }
    }
    report.instructions = insts.len();
    // Where a transfer may land: every instruction boundary, less the
    // insides of guarded sequences, cleared as they are found.
    let mut landing = vec![false; module.code.len()];
    for &(off, ..) in &insts {
        landing[off] = true;
    }

    for (i, (off, inst, _)) in insts.iter().enumerate() {
        match inst {
            Inst::Ret => report.violations.push(Violation::RawReturn { offset: *off }),
            Inst::CallReg { .. } | Inst::JmpReg { .. }
                if !branch_offsets.contains(off) => {
                    report
                        .violations
                        .push(Violation::UncheckedIndirectBranch { offset: *off });
                }
            Inst::Store { base, .. } | Inst::Store8 { base, .. } => {
                report.stores += 1;
                if matches!(base, Reg::Rsp | Reg::Rbp) {
                    continue; // frame-relative
                }
                match mask_of(&insts, i, *base) {
                    // A transfer past the mask would store unmasked.
                    Some(mask) => landing[mask + 1..=*off].fill(false),
                    None => report.violations.push(Violation::UnsandboxedWrite { offset: *off }),
                }
            }
            _ => {}
        }
    }

    // Pass 2: each recorded check sequence is the emitter's, read
    // along the linear disassembly.
    let fetch = |at: usize| {
        let i = insts.binary_search_by_key(&at, |&(off, ..)| off).ok()?;
        Some((insts[i].1, insts[i].2))
    };
    for b in &module.aux.indirect_branches {
        report.checks += 1;
        match check_sequence(fetch, b) {
            Ok(chk) => landing[chk.guarded()].fill(false),
            Err(v) => report.violations.push(v),
        }
    }

    // Pass 3: alignment and bounds of every possible Tary target.
    for (name, f) in &module.functions {
        if f.size == 0 {
            continue; // declaration: no trusted offset
        }
        let _ = name;
        if !(f.offset as u64).is_multiple_of(TARGET_ALIGN) {
            report
                .violations
                .push(Violation::MisalignedTarget { offset: f.offset, what: "function entry" });
        }
        match f.offset.checked_add(f.size) {
            Some(end) if end <= module.code.len() => {}
            _ => report
                .violations
                .push(Violation::OutOfBounds { offset: f.offset, what: "function entry" }),
        }
    }
    for s in &module.aux.return_sites {
        if !(s.offset as u64).is_multiple_of(TARGET_ALIGN) {
            let what = site_kind(s);
            report.violations.push(Violation::MisalignedTarget { offset: s.offset, what });
        }
        if s.offset > module.code.len() {
            report
                .violations
                .push(Violation::OutOfBounds { offset: s.offset, what: "return site" });
        }
    }

    // Pass 4: jump tables stay inside their owning functions.
    for t in &module.aux.jump_tables {
        if let Some(f) = module.functions.get(&t.function) {
            let end = f.offset.saturating_add(f.size);
            for e in &t.entries {
                if *e < f.offset || *e >= end {
                    report
                        .violations
                        .push(Violation::JumpTableEscape { table: t.table_offset, entry: *e });
                }
            }
        }
    }

    // Pass 5: every transfer lands where one may. The loader aims a
    // branch whose displacement (its last four bytes) carries a
    // `CallRel` relocation.
    let mut call_relocs: Vec<usize> = module
        .relocs
        .iter()
        .filter(|r| matches!(r.kind, RelocKind::CallRel(_)))
        .map(|r| r.patch_at)
        .collect();
    call_relocs.sort_unstable();
    let relocated = |off: usize, len: usize| call_relocs.binary_search(&(off + len - 4)).is_ok();
    let lands = |target: usize| landing.get(target) == Some(&true);
    for &(off, inst, len) in &insts {
        let (Inst::Jmp { rel } | Inst::Jcc { rel, .. } | Inst::Call { rel }) = inst else {
            continue;
        };
        let target = (off + len).wrapping_add_signed(rel as isize);
        if !lands(target) && !relocated(off, len) {
            let what = "direct branch";
            report.violations.push(Violation::StrayTarget { target, what, from: Some(off) });
        }
    }
    let entries = module.functions.values().filter(|f| f.size > 0);
    let tables = module.aux.jump_tables.iter();
    let declared = entries
        .map(|f| (f.offset, "function entry"))
        .chain(module.aux.return_sites.iter().map(|s| (s.offset, site_kind(s))))
        .chain(tables.flat_map(|t| t.entries.iter().map(|&e| (e, "jump-table entry"))));
    for (target, what) in declared {
        if !lands(target) {
            report.violations.push(Violation::StrayTarget { target, what, from: None });
        }
    }

    report
}

/// What a return-site record marks.
fn site_kind(s: &ReturnSiteInfo) -> &'static str {
    match s.callee {
        CalleeKind::SetJmp => "setjmp landing",
        _ => "return site",
    }
}

/// The offset of the mask that confines the base register of the store
/// at instruction index `i` to the sandbox, if there is one. The mask
/// must dominate the store with no intervening instruction that could
/// change the base: only other stores (which write memory, not
/// registers) may sit between the `AndImm` and this store — the pattern
/// of multi-word writes such as the setjmp buffer save.
fn mask_of(insts: &[(usize, Inst, usize)], i: usize, base: Reg) -> Option<usize> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let inst = &insts[j].1;
        if let Inst::AndImm { dst, imm } = inst {
            if *dst == base && *imm == SANDBOX_MASK {
                return Some(insts[j].0);
            }
        }
        // Control flow invalidates the straight-line dominance argument;
        // so does any instruction that could redefine the base register.
        let is_control = matches!(
            inst,
            Inst::Jmp { .. }
                | Inst::Jcc { .. }
                | Inst::Call { .. }
                | Inst::CallReg { .. }
                | Inst::JmpReg { .. }
                | Inst::JmpTable { .. }
                | Inst::Ret
                | Inst::Syscall
                | Inst::Hlt
        );
        if is_control || writes_reg(inst, base) {
            return None;
        }
    }
    None
}

/// Whether `inst` writes register `r`.
fn writes_reg(inst: &Inst, r: Reg) -> bool {
    match inst {
        Inst::MovImm { dst, .. }
        | Inst::MovReg { dst, .. }
        | Inst::Load { dst, .. }
        | Inst::Load8 { dst, .. }
        | Inst::Lea { dst, .. }
        | Inst::Alu { dst, .. }
        | Inst::AddImm { dst, .. }
        | Inst::AndImm { dst, .. }
        | Inst::SetCc { dst, .. }
        | Inst::TaryLoad { dst, .. }
        | Inst::BaryLoad { dst, .. }
        | Inst::FAlu { dst, .. }
        | Inst::CvtIF { dst, .. }
        | Inst::CvtFI { dst, .. } => *dst == r,
        Inst::Pop { reg } | Inst::Trunc32 { reg } => *reg == r,
        Inst::Push { .. }
        | Inst::Store { .. }
        | Inst::Store8 { .. }
        | Inst::Cmp { .. }
        | Inst::Cmp16 { .. }
        | Inst::CmpImm { .. }
        | Inst::TestImm { .. }
        | Inst::FCmp { .. }
        | Inst::Nop => false,
        // Control-flow instructions are handled by the caller.
        _ => true,
    }
}

/// Holds the check sequence that branch record `b` points at to the
/// emitter's layout — the registers it writes, the branch offset the
/// record names, the slow path after it — and its own branches to the
/// targets Fig. 4 gives them.
fn check_sequence(
    fetch: impl Fn(usize) -> Option<(Inst, usize)> + Copy,
    b: &IndirectBranchInfo,
) -> Result<Check, Violation> {
    let malformed = |message| Violation::MalformedCheck { offset: b.check_offset, message };
    let chk = check::recognize(fetch, b.check_offset).map_err(malformed)?;
    if (chk.bary, chk.tary, chk.target) != (Reg::Rdi, Reg::Rsi, Reg::Rcx) {
        let regs = format!("{}/{}/{}", chk.bary, chk.tary, chk.target);
        return Err(malformed(format!("check uses {regs}, not %rdi/%rsi/%rcx")));
    }
    if chk.branch != b.branch_offset {
        return Err(malformed(format!(
            "branch at {:#x} does not match recorded offset {:#x}",
            chk.branch, b.branch_offset
        )));
    }
    let slow = chk.slow_path(fetch).map_err(malformed)?;
    let aims = [
        ("jne to the slow path", chk.miss, slow.test),
        ("jz to the hlt", slow.invalid, slow.hlt),
        ("version jne to the BaryLoad", slow.retry, chk.start),
        ("jmp past the slow path", slow.skip.unwrap_or(slow.end), slow.end),
    ];
    match aims.into_iter().find(|&(_, to, want)| to != want) {
        Some((what, target, _)) => {
            Err(Violation::MisdirectedCheck { offset: b.check_offset, what, target })
        }
        None => Ok(chk),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfi_codegen::{compile_source, CodegenOptions, Policy};
    use mcfi_machine::{encode, encode_into, Cond};
    use mcfi_module::BranchKind;

    fn build(src: &str) -> Module {
        compile_source("t", src, &CodegenOptions::default()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Aims the direct branch at `at` at `to`.
    fn retarget(m: &mut Module, at: usize, to: usize) {
        let (inst, len) = decode(&m.code, at).unwrap();
        let rel = (to as i64 - (at + len) as i64) as i32;
        let inst = match inst {
            Inst::Jmp { .. } => Inst::Jmp { rel },
            Inst::Jcc { cc, .. } => Inst::Jcc { cc, rel },
            other => panic!("{other} is not a direct branch"),
        };
        m.code[at..at + len].copy_from_slice(&encode(&[inst]));
    }

    /// Whether a fresh process refuses `m`'s serialized image at the
    /// in-transaction verifier.
    fn refused_on_admission(m: &Module) -> bool {
        let mut p = mcfi_runtime::Process::new(Default::default()).unwrap();
        let err = p.load_image(m.to_bytes().unwrap());
        matches!(
            err,
            Err(mcfi_runtime::LoadError::Admission(
                mcfi_module::AdmissionError::VerifierReject { .. }
            ))
        )
    }

    fn has(r: &Report, want: fn(&Violation) -> bool) -> bool {
        r.violations.iter().any(want)
    }

    const DEMO: &str = "int id(int x) { return x; }\n\
                        int apply(int (*f)(int), int x) { int r = f(x); return r; }\n\
                        int main(void) { int r = apply(&id, 5); return r; }";

    #[test]
    fn instrumented_modules_verify() {
        let m = build(DEMO);
        let r = verify(&m);
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert!(r.checks >= 3);
        assert!(r.instructions > 10);
    }

    #[test]
    fn switch_modules_verify() {
        let m = build(
            "int f(int x) { switch (x) { case 0: return 1; case 1: return 2; case 2: return 3; \
             case 3: return 4; default: return 0; } return 0; }",
        );
        let r = verify(&m);
        assert!(r.ok(), "violations: {:?}", r.violations);
    }

    #[test]
    fn uninstrumented_module_fails() {
        let m = compile_source(
            "t",
            DEMO,
            &CodegenOptions { policy: Policy::NoCfi, tail_calls: true },
        )
        .unwrap();
        let r = verify(&m);
        assert!(!r.ok());
        assert!(r.violations.iter().any(|v| matches!(v, Violation::RawReturn { .. })));
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UncheckedIndirectBranch { .. })));
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UnsandboxedWrite { .. })));
    }

    #[test]
    fn stripping_the_mask_is_caught() {
        // Take a valid module and overwrite an AndImm with Nops: the
        // following store becomes unsandboxed.
        let mut m = build("void f(int* p) { *p = 7; }");
        let insts = mcfi_machine::decode_all(&m.code).unwrap();
        let (mask_off, mask_len) = insts
            .iter()
            .zip(insts.iter().skip(1))
            .find_map(|((o, i), _)| match i {
                Inst::AndImm { .. } => Some((*o, encode(&[*i]).len())),
                _ => None,
            })
            .expect("masked store present");
        let mut nops = Vec::new();
        for _ in 0..mask_len {
            encode_into(&Inst::Nop, &mut nops);
        }
        m.code[mask_off..mask_off + mask_len].copy_from_slice(&nops);
        let r = verify(&m);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UnsandboxedWrite { .. })));
    }

    #[test]
    fn corrupted_check_sequence_is_caught() {
        // Replace the TaryLoad of the first check with Nops.
        let mut m = build("int f(int x) { return x; }");
        let b = m.aux.indirect_branches[0].clone();
        let (inst, len) = decode(&m.code, b.check_offset).unwrap();
        assert!(matches!(inst, Inst::BaryLoad { .. }));
        let tary_off = b.check_offset + len;
        let (tl, tl_len) = decode(&m.code, tary_off).unwrap();
        assert!(matches!(tl, Inst::TaryLoad { .. }));
        for i in 0..tl_len {
            m.code[tary_off + i] = 0x22; // Nop
        }
        let r = verify(&m);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::MalformedCheck { .. })));
    }

    /// The quickstart's type-confused call with both of its check's
    /// `jne`s aimed at its own branch: every instruction is where the
    /// layout wants it, but the check can no longer fail.
    #[test]
    fn misdirected_check_branches_are_caught() {
        let mut m = build(
            "float nearly(float x) { return x + 0.5; }\n\
             int main(void) { void* laundered = (void*)&nearly; \
             int (*f)(int) = (int(*)(int))laundered; return f(1); }",
        );
        assert!(verify(&m).ok());
        let call = |b: &&IndirectBranchInfo| !matches!(b.kind, BranchKind::Return { .. });
        let b = m.aux.indirect_branches.iter().find(call).unwrap().clone();
        let insts = mcfi_machine::decode_all(&m.code).unwrap();
        let jnes: Vec<usize> = insts
            .iter()
            .filter(|(o, i)| *o > b.check_offset && matches!(i, Inst::Jcc { cc: Cond::Ne, .. }))
            .map(|(o, _)| *o)
            .take(2)
            .collect();
        for at in jnes {
            retarget(&mut m, at, b.branch_offset);
        }
        let r = verify(&m);
        assert!(has(&r, |v| matches!(v, Violation::MisdirectedCheck { .. })), "{:?}", r.violations);
        assert!(refused_on_admission(&m));
    }

    /// The offsets of the `Jmp`s the loader does not aim (no `CallRel`
    /// relocation in their bytes): the module's own direct jumps.
    fn plain_jmps(m: &Module) -> Vec<usize> {
        let relocated = |at: usize| m.relocs.iter().any(|r| r.patch_at == at + 1);
        let insts = mcfi_machine::decode_all(&m.code).unwrap();
        insts
            .into_iter()
            .filter(|&(at, i)| matches!(i, Inst::Jmp { .. }) && !relocated(at))
            .map(|(at, _)| at)
            .collect()
    }

    fn is_stray(v: &Violation) -> bool {
        matches!(v, Violation::StrayTarget { .. })
    }

    const LOOP: &str = "int sum(int n) { int s = 0; while (n > 0) { s = s + n; n = n - 1; } \
                        return s; }\n";

    #[test]
    fn a_jump_into_an_instruction_is_caught() {
        let mut m = build(LOOP);
        assert!(verify(&m).ok() && !refused_on_admission(&m));
        let at = plain_jmps(&m)[0];
        let (Inst::Jmp { rel }, len) = decode(&m.code, at).unwrap() else { unreachable!() };
        let target = (at + len).wrapping_add_signed(rel as isize);
        assert!(decode(&m.code, target).unwrap().1 > 1, "the edit lands inside an instruction");
        retarget(&mut m, at, target + 1);
        let r = verify(&m);
        assert!(has(&r, is_stray), "{:?}", r.violations);
        assert!(refused_on_admission(&m));
    }

    #[test]
    fn a_jump_onto_a_checks_branch_is_caught() {
        let mut m = build(&format!("{LOOP}{DEMO}"));
        let call = |b: &&IndirectBranchInfo| matches!(b.kind, BranchKind::IndirectCall { .. });
        let branch = m.aux.indirect_branches.iter().find(call).unwrap().branch_offset;
        let at = plain_jmps(&m)[0];
        retarget(&mut m, at, branch);
        let r = verify(&m);
        assert!(has(&r, is_stray), "{:?}", r.violations);
        assert!(refused_on_admission(&m));
    }

    /// A jump-table entry aimed at the owning function's own return
    /// `JmpReg` stays inside the function, so only the landing rule sees
    /// the unchecked jump it makes.
    #[test]
    fn a_jump_table_entry_onto_a_checks_branch_is_caught() {
        let mut m = build(
            "int f(int x) { switch (x) { case 0: return 1; case 1: return 2; case 2: return 3; \
             case 3: return 4; default: return 0; } return 0; }",
        );
        let ret = |b: &&IndirectBranchInfo| matches!(b.kind, BranchKind::Return { .. });
        let branch = m.aux.indirect_branches.iter().find(ret).unwrap().branch_offset;
        m.aux.jump_tables[0].entries[0] = branch;
        let r = verify(&m);
        assert!(has(&r, is_stray), "{:?}", r.violations);
        assert!(!has(&r, |v| matches!(v, Violation::JumpTableEscape { .. })));
        assert!(refused_on_admission(&m));
    }

    #[test]
    fn a_jump_past_a_mask_onto_its_store_is_caught() {
        let mut m = build(&format!("{LOOP}void put(int* p) {{ *p = 7; }}"));
        let insts = mcfi_machine::decode_all(&m.code).unwrap();
        let store = insts
            .windows(2)
            .find(|w| matches!((w[0].1, w[1].1), (Inst::AndImm { .. }, Inst::Store { .. })))
            .map(|w| w[1].0)
            .unwrap();
        let at = plain_jmps(&m)[0];
        retarget(&mut m, at, store);
        let r = verify(&m);
        assert!(has(&r, is_stray), "{:?}", r.violations);
        assert!(refused_on_admission(&m));
    }

    #[test]
    fn misreported_branch_offset_is_caught() {
        let mut m = build("int f(int x) { return x; }");
        m.aux.indirect_branches[0].branch_offset += 2;
        let r = verify(&m);
        assert!(!r.ok());
    }

    #[test]
    fn misaligned_function_entry_is_caught() {
        let mut m = build("int f(int x) { return x; }");
        let sym = m.functions.get_mut("f").unwrap();
        sym.offset += 1; // misreport
        let r = verify(&m);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::MisalignedTarget { what: "function entry", .. })));
    }

    #[test]
    fn escaping_jump_table_is_caught() {
        let mut m = build(
            "int f(int x) { switch (x) { case 0: return 1; case 1: return 2; case 2: return 3; \
             case 3: return 4; default: return 0; } return 0; }\nint g(void) { return 7; }",
        );
        // Redirect a table entry into g.
        let g_off = m.functions["g"].offset;
        m.aux.jump_tables[0].entries[0] = g_off;
        let r = verify(&m);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::JumpTableEscape { .. })));
    }

    #[test]
    fn undecodable_bytes_are_reported() {
        let mut m = build("int f(int x) { return x; }");
        m.code.push(0xff);
        let r = verify(&m);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Undecodable { .. })));
    }

    #[test]
    fn verifier_accepts_the_whole_stdlib() {
        let m = compile_source(
            "libms",
            mcfi_runtime::stdlib::LIBMS_SRC,
            &CodegenOptions::default(),
        )
        .unwrap();
        let r = verify(&m);
        assert!(r.ok(), "violations: {:?}", r.violations);
    }
}
