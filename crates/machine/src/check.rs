//! The check-transaction sequence of paper Fig. 4: its one emitter and
//! its one recognizer.
//!
//! Every instrumented indirect branch — codegen's returns, indirect
//! calls and indirect jumps, the runtime's syscall stubs and the PLT
//! stubs — is this sequence, written by [`emit`]. The verifier and the
//! translated tier read it back through [`recognize`] and
//! [`Check::slow_path`], each applying its own rule to the parts, and
//! the static linker and the loader write a sequence's Bary slot at
//! [`slot_bytes`].
//!
//! | paper (x86-64)              | SimX64                      |
//! |-----------------------------|-----------------------------|
//! | `popq %rcx`                 | `Pop rcx`                   |
//! | `movl %ecx, %ecx`           | `Trunc32 rcx`               |
//! | `movl %gs:IDX, %edi`        | `BaryLoad rdi, IDX`         |
//! | `movl %gs:(%rcx), %esi`     | `TaryLoad rsi, rcx`         |
//! | `cmpl %edi, %esi`           | `Cmp rdi, rsi`              |
//! | `testb $1, %sil`            | `TestImm rsi, 1`            |
//! | `cmpw %di, %si`             | `Cmp16 rdi, rsi`            |
//! | `jmpq *%rcx`                | `JmpReg rcx`                |
//! | `hlt`                       | `Hlt`                       |
//!
//! The layout, with the target already in `%rcx`:
//!
//! ```text
//!         Trunc32  rcx
//! Try:    BaryLoad rdi, slot       start: the sequence's one entry
//!         TaryLoad rsi, (rcx)  ┐
//!         Cmp      rdi, rsi    │   guarded: no transfer may land
//!         Jcc ne   Check       │   strictly inside the sequence,
//!         [Nop ×0..3]          │   or it would skip the compare
//!         CallReg rcx | JmpReg rcx ┘
//!         [Jmp     Cont]           after a CallReg only
//! Check:  TestImm  rsi, 1          an invalid target ID halts
//!         Jcc eq   Halt
//!         Cmp16    rdi, rsi        version skew retries
//!         Jcc ne   Try             (a PLT stub retries at its GOT reload)
//! Halt:   Hlt
//! Cont:
//! ```
//!
//! The `Nop`s put a call's return site, right after the `CallReg`, on a
//! [`TARGET_ALIGN`] boundary. The recognizer starts at the `BaryLoad`:
//! a retry enters there, past the `Trunc32`, so nothing is gained by
//! requiring it.

use core::ops::Range;

use crate::encode::{decode, encode_into};
use crate::inst::{Cond, Inst};
use crate::reg::Reg;
use crate::TARGET_ALIGN;

/// At most this many alignment `Nop`s precede the checked branch.
const MAX_NOPS: usize = TARGET_ALIGN as usize - 1;

/// The encoded length of `CallReg` and `JmpReg`.
const BRANCH_LEN: usize = 2;

/// Whether the checked branch calls or jumps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Transfer {
    /// `CallReg`: an indirect call. A `Jmp` past the slow path follows
    /// it, so the call returns to the code after the sequence.
    Call,
    /// `JmpReg`: a return, an indirect jump or an indirect tail call.
    Jump,
}

/// The fast path of one sequence, `BaryLoad` through the checked
/// branch: what a check that passes executes. Offsets are those of the
/// fetch function (or of the buffer [`emit`] wrote).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Check {
    /// The Bary slot the `BaryLoad` reads.
    pub slot: u32,
    /// The register the `BaryLoad` writes (`%rdi` as emitted).
    pub bary: Reg,
    /// The register the `TaryLoad` writes (`%rsi` as emitted).
    pub tary: Reg,
    /// The register holding the branch target (`%rcx` as emitted).
    pub target: Reg,
    /// Whether the checked branch calls or jumps.
    pub transfer: Transfer,
    /// Offset of the `BaryLoad`.
    pub start: usize,
    /// Where the `jne` after the compare goes (the slow path's
    /// `TestImm`, as emitted).
    pub miss: usize,
    /// Offset of the checked `CallReg`/`JmpReg`.
    pub branch: usize,
}

/// The slow path after a check's branch, as [`Check::slow_path`] reads
/// it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SlowPath {
    /// Where the `Jmp` after a `CallReg` goes (`end`, as emitted);
    /// `None` after a `JmpReg`.
    pub skip: Option<usize>,
    /// Offset of the `TestImm` validity test.
    pub test: usize,
    /// Where its `jz` goes (the `Hlt`, as emitted).
    pub invalid: usize,
    /// Where the version `jne` goes (the `BaryLoad`, or an earlier
    /// reload point).
    pub retry: usize,
    /// Offset of the `Hlt`.
    pub hlt: usize,
    /// The offset just past the `Hlt`.
    pub end: usize,
}

impl Check {
    /// The offset just past the checked branch: a call's return site.
    pub fn end(&self) -> usize {
        self.branch + BRANCH_LEN
    }

    /// The offsets strictly inside the fast path — after the `BaryLoad`
    /// up to the end of the branch — where no transfer may land.
    pub fn guarded(&self) -> Range<usize> {
        self.start + 1..self.end()
    }

    /// Reads the slow path that follows the branch.
    ///
    /// # Errors
    ///
    /// Names the first instruction that departs from the layout.
    pub fn slow_path(
        &self,
        fetch: impl FnMut(usize) -> Option<(Inst, usize)>,
    ) -> Result<SlowPath, String> {
        let mut r = Reader { fetch, at: self.end() };
        let skip = match self.transfer {
            Transfer::Call => Some(r.branch("jmp past the slow path", None)?),
            Transfer::Jump => None,
        };
        let test = r.at;
        r.exactly("testb $1 of the target ID", Inst::TestImm { a: self.tary, imm: 1 })?;
        let invalid = r.branch("jz to the hlt", Some(Cond::Eq))?;
        r.exactly("cmpw of the versions", Inst::Cmp16 { a: self.bary, b: self.tary })?;
        let retry = r.branch("jne to the retry", Some(Cond::Ne))?;
        let hlt = r.exactly("hlt", Inst::Hlt)?;
        Ok(SlowPath { skip, test, invalid, retry, hlt, end: r.at })
    }
}

/// Recognizes the fast path of the sequence whose `BaryLoad` is at
/// `start`, reading instructions as `(inst, len)` through `fetch`. The
/// registers may be any that the parts use consistently; callers apply
/// their own rule to them. `fetch` is called once for each instruction
/// of the fast path, in order, and never past the branch.
///
/// # Errors
///
/// Names the first instruction that departs from the layout.
pub fn recognize(
    fetch: impl FnMut(usize) -> Option<(Inst, usize)>,
    start: usize,
) -> Result<Check, String> {
    let mut r = Reader { fetch, at: start };
    let ((bary, slot), ..) = r.take("BaryLoad", |i| match i {
        Inst::BaryLoad { dst, slot } => Some((dst, slot)),
        _ => None,
    })?;
    let ((tary, target), ..) = r.take("TaryLoad", |i| match i {
        Inst::TaryLoad { dst, addr } => Some((dst, addr)),
        _ => None,
    })?;
    r.exactly("cmp of the two IDs", Inst::Cmp { a: bary, b: tary })?;
    let miss = r.branch("jne to the slow path", Some(Cond::Ne))?;
    let mut nops = 0;
    let (transfer, branch) = loop {
        match r.take("at most 3 Nops, then the checked branch", |i| match i {
            Inst::Nop if nops < MAX_NOPS => Some(None),
            Inst::CallReg { reg } if reg == target => Some(Some(Transfer::Call)),
            Inst::JmpReg { reg } if reg == target => Some(Some(Transfer::Jump)),
            _ => None,
        })? {
            (Some(transfer), at, _) => break (transfer, at),
            (None, ..) => nops += 1,
        }
    };
    Ok(Check { slot, bary, tary, target, transfer, start, miss, branch })
}

/// Appends the sequence for the branch whose target is in `%rcx`, with
/// Bary slot `slot`, to `code`. A version-skew retry goes to the
/// sequence's own `BaryLoad`, or to `retry` (an earlier offset, such as
/// a PLT stub's GOT reload).
pub fn emit(code: &mut Vec<u8>, slot: u32, transfer: Transfer, retry: Option<usize>) -> Check {
    fn put(code: &mut Vec<u8>, inst: Inst) -> usize {
        let at = code.len();
        encode_into(&inst, code);
        at
    }
    let (bary, tary, target) = (Reg::Rdi, Reg::Rsi, Reg::Rcx);
    put(code, Inst::Trunc32 { reg: target });
    let start = put(code, Inst::BaryLoad { dst: bary, slot });
    put(code, Inst::TaryLoad { dst: tary, addr: target });
    put(code, Inst::Cmp { a: bary, b: tary });
    let to_slow = put(code, Inst::Jcc { cc: Cond::Ne, rel: 0 });
    let (branch, skip) = match transfer {
        Transfer::Call => {
            while !(code.len() + BRANCH_LEN).is_multiple_of(TARGET_ALIGN as usize) {
                put(code, Inst::Nop);
            }
            (put(code, Inst::CallReg { reg: target }), Some(put(code, Inst::Jmp { rel: 0 })))
        }
        Transfer::Jump => (put(code, Inst::JmpReg { reg: target }), None),
    };
    let test = put(code, Inst::TestImm { a: tary, imm: 1 });
    let to_halt = put(code, Inst::Jcc { cc: Cond::Eq, rel: 0 });
    put(code, Inst::Cmp16 { a: bary, b: tary });
    let to_retry = put(code, Inst::Jcc { cc: Cond::Ne, rel: 0 });
    let hlt = put(code, Inst::Hlt);
    let end = code.len();
    aim(code, to_slow, test);
    aim(code, to_halt, hlt);
    aim(code, to_retry, retry.unwrap_or(start));
    if let Some(skip) = skip {
        aim(code, skip, end);
    }
    Check { slot, bary, tary, target, transfer, start, miss: test, branch }
}

/// The bytes of the slot immediate of a `BaryLoad` at `start`: where
/// the static linker and the loader write the sequence's Bary slot
/// (§5.1). Saturating, so a hostile offset yields a range past any
/// image rather than an overflow.
pub fn slot_bytes(start: usize) -> Range<usize> {
    start.saturating_add(2)..start.saturating_add(6)
}

/// Points the `Jmp` or `Jcc` the emitter wrote at `at` to `to`: its
/// displacement is its last four bytes, relative to its end.
fn aim(code: &mut [u8], at: usize, to: usize) {
    let (_, len) = decode(code, at).expect("the emitter wrote a branch here");
    let end = at + len;
    let rel = (to as i64 - end as i64) as i32;
    code[end - 4..end].copy_from_slice(&rel.to_le_bytes());
}

/// Reads a sequence one instruction at a time.
struct Reader<F> {
    fetch: F,
    at: usize,
}

impl<F: FnMut(usize) -> Option<(Inst, usize)>> Reader<F> {
    /// The next instruction, if `accept` takes it: what `accept` made of
    /// it, its offset and its length.
    fn take<T>(
        &mut self,
        expected: &str,
        accept: impl FnOnce(Inst) -> Option<T>,
    ) -> Result<(T, usize, usize), String> {
        let at = self.at;
        let fetched = (self.fetch)(at);
        let (value, len) = fetched.and_then(|(inst, len)| Some((accept(inst)?, len))).ok_or_else(
            || match fetched {
                Some((inst, _)) => format!("expected {expected} at {at:#x}, found {inst}"),
                None => format!("expected {expected} at {at:#x}, found no instruction"),
            },
        )?;
        self.at += len;
        Ok((value, at, len))
    }

    /// The next instruction if it is `want`; its offset.
    fn exactly(&mut self, expected: &str, want: Inst) -> Result<usize, String> {
        Ok(self.take(expected, |i| (i == want).then_some(()))?.1)
    }

    /// The next instruction if it is a `Jcc` on `cc` (a `Jmp` for
    /// `None`); where it goes.
    fn branch(&mut self, expected: &str, cc: Option<Cond>) -> Result<usize, String> {
        let (rel, at, len) = self.take(expected, |i| match (i, cc) {
            (Inst::Jmp { rel }, None) => Some(rel),
            (Inst::Jcc { cc, rel }, Some(want)) if cc == want => Some(rel),
            _ => None,
        })?;
        Ok((at + len).wrapping_add_signed(rel as isize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{decode_all, encode};

    fn fetch(code: &[u8]) -> impl Fn(usize) -> Option<(Inst, usize)> + Copy + '_ {
        move |at| decode(code, at).ok()
    }

    /// Emits one sequence after `pad` bytes of `Nop`s. The PLT form
    /// reloads its target before the sequence and retries there.
    fn emitted(pad: usize, transfer: Transfer, plt: bool) -> (Vec<u8>, Check, Option<usize>) {
        let mut code = encode(&vec![Inst::Nop; pad]);
        let reload = plt.then(|| {
            let at = code.len();
            encode_into(&Inst::Load { dst: Reg::Rcx, base: Reg::Rbx, offset: 0 }, &mut code);
            at
        });
        let check = emit(&mut code, 7, transfer, reload);
        (code, check, reload)
    }

    /// The alignment `Nop`s between a check's `BaryLoad` and its branch.
    fn nops(code: &[u8], check: &Check) -> usize {
        let inside = |at: &usize| check.start < *at && *at < check.branch;
        decode_all(code).unwrap().iter().filter(|(at, i)| inside(at) && *i == Inst::Nop).count()
    }

    fn read(code: &[u8], start: usize) -> Result<(Check, SlowPath), String> {
        let check = recognize(fetch(code), start)?;
        Ok((check, check.slow_path(fetch(code))?))
    }

    #[test]
    fn every_emitted_form_parses_back_at_every_alignment() {
        let forms = [(Transfer::Call, false), (Transfer::Jump, false), (Transfer::Jump, true)];
        for (transfer, plt) in forms {
            for pad in 0..4 {
                let (code, check, reload) = emitted(pad, transfer, plt);
                let (parsed, slow) = read(&code, check.start).expect("the emitter's layout");
                assert_eq!(parsed, check, "{transfer:?} plt={plt} pad={pad}");
                let hlt = code.len() - 1;
                assert_eq!(
                    slow,
                    SlowPath {
                        skip: (transfer == Transfer::Call).then_some(code.len()),
                        test: check.miss,
                        invalid: hlt,
                        retry: reload.unwrap_or(check.start),
                        hlt,
                        end: code.len(),
                    }
                );
                match transfer {
                    Transfer::Call => assert_eq!(check.end() % TARGET_ALIGN as usize, 0),
                    Transfer::Jump => assert_eq!(nops(&code, &check), 0),
                }
                assert!(nops(&code, &check) <= MAX_NOPS);
            }
        }
    }

    /// The linker, the loader and admission write or bound the slot
    /// immediate where [`slot_bytes`] says it is; pin the bytes around it.
    #[test]
    fn the_jump_form_has_pinned_bytes() {
        let mut code = Vec::new();
        let check = emit(&mut code, 0x0403_0201, Transfer::Jump, None);
        #[rustfmt::skip]
        let want: &[u8] = &[
            0x19, 0x02,                         // Trunc32 rcx
            0x1b, 0x07, 0x01, 0x02, 0x03, 0x04, // BaryLoad rdi, 0x04030201
            0x1a, 0x62,                         // TaryLoad rsi, (rcx)
            0x0b, 0x76,                         // Cmp rdi, rsi
            0x11, 0x01, 0x02, 0x00, 0x00, 0x00, // jne +2, to the TestImm
            0x14, 0x02,                         // JmpReg rcx
            0x0e, 0x06, 0x01, 0x00, 0x00, 0x00, // TestImm rsi, 1
            0x11, 0x00, 0x08, 0x00, 0x00, 0x00, // jz +8, to the Hlt
            0x0c, 0x76,                         // Cmp16 rdi, rsi
            0x11, 0x01, 0xda, 0xff, 0xff, 0xff, // jne -38, to the BaryLoad
            0x21,                               // Hlt
        ];
        assert_eq!(code, want);
        assert_eq!(check.start, 2);
        assert_eq!(code[slot_bytes(check.start)], 0x0403_0201u32.to_le_bytes());
    }

    /// Every single edit of a canonical sequence is refused by the
    /// recognizer or shows in the parts it reports.
    #[test]
    fn single_edits_are_refused_or_reported() {
        // pad 1 gives a call three alignment Nops.
        let (code, canonical, _) = emitted(1, Transfer::Call, false);
        assert_eq!(nops(&code, &canonical), MAX_NOPS);
        let insts: Vec<Inst> = decode_all(&code).unwrap().into_iter().map(|(_, i)| i).collect();
        let canonical = read(&code, canonical.start).unwrap();
        let position = |want: fn(&Inst) -> bool| insts.iter().position(want).unwrap();
        let edit = |f: &dyn Fn(&mut Vec<Inst>)| {
            let mut edited = insts.clone();
            f(&mut edited);
            read(&encode(&edited), canonical.0.start)
        };

        // A swapped register.
        let cmp = position(|i| matches!(i, Inst::Cmp { .. }));
        assert!(edit(&|e| e[cmp] = Inst::Cmp { a: Reg::Rsi, b: Reg::Rdi }).is_err());
        // A flipped condition.
        let jne = position(|i| matches!(i, Inst::Jcc { cc: Cond::Ne, .. }));
        assert!(edit(&|e| {
            let Inst::Jcc { rel, .. } = e[jne] else { unreachable!() };
            e[jne] = Inst::Jcc { cc: Cond::Eq, rel };
        })
        .is_err());
        // A moved internal target: the jz now lands past the Hlt.
        let jz = position(|i| matches!(i, Inst::Jcc { cc: Cond::Eq, .. }));
        let (_, slow) = edit(&|e| {
            let Inst::Jcc { cc, rel } = e[jz] else { unreachable!() };
            e[jz] = Inst::Jcc { cc, rel: rel + 1 };
        })
        .expect("a moved target still parses");
        assert_eq!(slow.invalid, canonical.1.invalid + 1);
        assert_ne!(slow.invalid, slow.hlt);
        // A missing slow-path instruction.
        let cmp16 = position(|i| matches!(i, Inst::Cmp16 { .. }));
        assert!(edit(&|e| {
            e.remove(cmp16);
        })
        .is_err());
        // A fourth Nop.
        let branch = position(|i| matches!(i, Inst::CallReg { .. }));
        assert!(edit(&|e| e.insert(branch, Inst::Nop)).is_err());
    }

    #[test]
    fn a_mismatch_names_what_the_layout_wants() {
        let code = encode(&[Inst::Nop, Inst::Ret]);
        assert_eq!(recognize(fetch(&code), 0).unwrap_err(), "expected BaryLoad at 0x0, found nop");
        let past = recognize(fetch(&code), 9).unwrap_err();
        assert_eq!(past, "expected BaryLoad at 0x9, found no instruction");
    }
}
