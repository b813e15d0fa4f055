//! Variable-length byte encoding of SimX64 instructions.
//!
//! The encoding is deliberately variable-length (1–10 bytes) so that the
//! mid-instruction ROP-gadget phenomenon of real x86 exists in the
//! simulation: decoding the same bytes from a misaligned offset can yield
//! a different — and possibly still valid — instruction stream (§8.3).

use core::fmt;
use core::ops::Range;

use crate::inst::{AluOp, Cond, FaluOp, Inst};
use crate::reg::Reg;

/// A decoding failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The opcode byte does not denote any instruction.
    BadOpcode {
        /// The offending byte.
        byte: u8,
        /// Offset within the decoded buffer.
        offset: usize,
    },
    /// A condition or ALU sub-opcode byte is invalid.
    BadSubOpcode {
        /// The offending byte.
        byte: u8,
        /// Offset.
        offset: usize,
    },
    /// The buffer ends in the middle of an instruction.
    Truncated {
        /// Offset of the instruction start.
        offset: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadOpcode { byte, offset } => {
                write!(f, "invalid opcode {byte:#04x} at offset {offset}")
            }
            DecodeError::BadSubOpcode { byte, offset } => {
                write!(f, "invalid sub-opcode {byte:#04x} at offset {offset}")
            }
            DecodeError::Truncated { offset } => {
                write!(f, "truncated instruction at offset {offset}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

macro_rules! opcodes {
    ($($name:ident = $val:expr;)*) => {
        $(const $name: u8 = $val;)*
    };
}

opcodes! {
    OP_MOV_IMM = 0x01;
    OP_MOV_REG = 0x02;
    OP_LOAD = 0x03;
    OP_STORE = 0x04;
    OP_LOAD8 = 0x05;
    OP_STORE8 = 0x06;
    OP_LEA = 0x07;
    OP_ALU = 0x08;
    OP_ADD_IMM = 0x09;
    OP_AND_IMM = 0x0a;
    OP_CMP = 0x0b;
    OP_CMP16 = 0x0c;
    OP_CMP_IMM = 0x0d;
    OP_TEST_IMM = 0x0e;
    OP_SETCC = 0x0f;
    OP_JMP = 0x10;
    OP_JCC = 0x11;
    OP_CALL = 0x12;
    OP_CALL_REG = 0x13;
    OP_JMP_REG = 0x14;
    OP_JMP_TABLE = 0x15;
    OP_RET = 0x16;
    OP_PUSH = 0x17;
    OP_POP = 0x18;
    OP_TRUNC32 = 0x19;
    OP_TARY_LOAD = 0x1a;
    OP_BARY_LOAD = 0x1b;
    OP_FALU = 0x1c;
    OP_FCMP = 0x1d;
    OP_CVT_IF = 0x1e;
    OP_CVT_FI = 0x1f;
    OP_SYSCALL = 0x20;
    OP_HLT = 0x21;
    OP_NOP = 0x22;
}

/// Appends the encoding of `inst` to `out`, returning the encoded length.
pub fn encode_into(inst: &Inst, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    match *inst {
        Inst::MovImm { dst, imm } => {
            out.push(OP_MOV_IMM);
            out.push(dst.nibble());
            out.extend_from_slice(&imm.to_le_bytes());
        }
        Inst::MovReg { dst, src } => {
            out.push(OP_MOV_REG);
            out.push(pack(dst, src));
        }
        Inst::Load { dst, base, offset } => {
            out.push(OP_LOAD);
            out.push(pack(dst, base));
            out.extend_from_slice(&offset.to_le_bytes());
        }
        Inst::Store { base, offset, src } => {
            out.push(OP_STORE);
            out.push(pack(base, src));
            out.extend_from_slice(&offset.to_le_bytes());
        }
        Inst::Load8 { dst, base, offset } => {
            out.push(OP_LOAD8);
            out.push(pack(dst, base));
            out.extend_from_slice(&offset.to_le_bytes());
        }
        Inst::Store8 { base, offset, src } => {
            out.push(OP_STORE8);
            out.push(pack(base, src));
            out.extend_from_slice(&offset.to_le_bytes());
        }
        Inst::Lea { dst, base, offset } => {
            out.push(OP_LEA);
            out.push(pack(dst, base));
            out.extend_from_slice(&offset.to_le_bytes());
        }
        Inst::Alu { op, dst, src } => {
            out.push(OP_ALU);
            out.push(op as u8);
            out.push(pack(dst, src));
        }
        Inst::AddImm { dst, imm } => {
            out.push(OP_ADD_IMM);
            out.push(dst.nibble());
            out.extend_from_slice(&imm.to_le_bytes());
        }
        Inst::AndImm { dst, imm } => {
            out.push(OP_AND_IMM);
            out.push(dst.nibble());
            out.extend_from_slice(&imm.to_le_bytes());
        }
        Inst::Cmp { a, b } => {
            out.push(OP_CMP);
            out.push(pack(a, b));
        }
        Inst::Cmp16 { a, b } => {
            out.push(OP_CMP16);
            out.push(pack(a, b));
        }
        Inst::CmpImm { a, imm } => {
            out.push(OP_CMP_IMM);
            out.push(a.nibble());
            out.extend_from_slice(&imm.to_le_bytes());
        }
        Inst::TestImm { a, imm } => {
            out.push(OP_TEST_IMM);
            out.push(a.nibble());
            out.extend_from_slice(&imm.to_le_bytes());
        }
        Inst::SetCc { cc, dst } => {
            out.push(OP_SETCC);
            out.push(((cc as u8) << 4) | dst.nibble());
        }
        Inst::Jmp { rel } => {
            out.push(OP_JMP);
            out.extend_from_slice(&rel.to_le_bytes());
        }
        Inst::Jcc { cc, rel } => {
            out.push(OP_JCC);
            out.push(cc as u8);
            out.extend_from_slice(&rel.to_le_bytes());
        }
        Inst::Call { rel } => {
            out.push(OP_CALL);
            out.extend_from_slice(&rel.to_le_bytes());
        }
        Inst::CallReg { reg } => {
            out.push(OP_CALL_REG);
            out.push(reg.nibble());
        }
        Inst::JmpReg { reg } => {
            out.push(OP_JMP_REG);
            out.push(reg.nibble());
        }
        Inst::JmpTable { index, table, len } => {
            out.push(OP_JMP_TABLE);
            out.push(index.nibble());
            out.extend_from_slice(&table.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
        Inst::Ret => out.push(OP_RET),
        Inst::Push { reg } => {
            out.push(OP_PUSH);
            out.push(reg.nibble());
        }
        Inst::Pop { reg } => {
            out.push(OP_POP);
            out.push(reg.nibble());
        }
        Inst::Trunc32 { reg } => {
            out.push(OP_TRUNC32);
            out.push(reg.nibble());
        }
        Inst::TaryLoad { dst, addr } => {
            out.push(OP_TARY_LOAD);
            out.push(pack(dst, addr));
        }
        Inst::BaryLoad { dst, slot } => {
            out.push(OP_BARY_LOAD);
            out.push(dst.nibble());
            out.extend_from_slice(&slot.to_le_bytes());
        }
        Inst::FAlu { op, dst, src } => {
            out.push(OP_FALU);
            out.push(op as u8);
            out.push(pack(dst, src));
        }
        Inst::FCmp { a, b } => {
            out.push(OP_FCMP);
            out.push(pack(a, b));
        }
        Inst::CvtIF { dst, src } => {
            out.push(OP_CVT_IF);
            out.push(pack(dst, src));
        }
        Inst::CvtFI { dst, src } => {
            out.push(OP_CVT_FI);
            out.push(pack(dst, src));
        }
        Inst::Syscall => out.push(OP_SYSCALL),
        Inst::Hlt => out.push(OP_HLT),
        Inst::Nop => out.push(OP_NOP),
    }
    out.len() - start
}

impl Inst {
    /// The bytes of this instruction's patchable operand, relative to its
    /// first byte: the one field a relocation, the linker, the loader or
    /// an emitter's fixup writes after encoding. `None` for an
    /// instruction without one.
    ///
    /// | instruction          | operand                                 |
    /// |----------------------|-----------------------------------------|
    /// | `MovImm`             | the 8-byte immediate                    |
    /// | `Call`, `Jmp`, `Jcc` | the rel32 displacement, its last 4 bytes |
    /// | `JmpTable`           | the 4-byte table address                |
    /// | `BaryLoad`           | the 4-byte Bary slot                    |
    pub fn operand(&self) -> Option<Range<usize>> {
        match self {
            Inst::MovImm { .. } => Some(2..10),
            Inst::Call { .. } | Inst::Jmp { .. } => Some(1..5),
            Inst::Jcc { .. } | Inst::JmpTable { .. } | Inst::BaryLoad { .. } => Some(2..6),
            _ => None,
        }
    }
}

/// Encodes a sequence of instructions into a fresh byte vector.
pub fn encode(insts: &[Inst]) -> Vec<u8> {
    let mut out = Vec::with_capacity(insts.len() * 4);
    for i in insts {
        encode_into(i, &mut out);
    }
    out
}

fn pack(hi: Reg, lo: Reg) -> u8 {
    (hi.nibble() << 4) | lo.nibble()
}

fn unpack(b: u8) -> (Reg, Reg) {
    (
        Reg::from_nibble(b >> 4).expect("4-bit values are always valid registers"),
        Reg::from_nibble(b & 0x0f).expect("4-bit values are always valid registers"),
    )
}

/// Decodes one instruction at `offset` in `bytes`.
///
/// Returns the instruction and its encoded length.
///
/// # Errors
///
/// Returns a [`DecodeError`] for invalid opcodes, invalid sub-opcodes, or
/// a truncated buffer — exactly the failures a misaligned gadget scan
/// hits.
pub fn decode(bytes: &[u8], offset: usize) -> Result<(Inst, usize), DecodeError> {
    let take = |n: usize| -> Result<&[u8], DecodeError> {
        bytes
            .get(offset + 1..offset + 1 + n)
            .ok_or(DecodeError::Truncated { offset })
    };
    let i32_at = |s: &[u8], i: usize| i32::from_le_bytes(s[i..i + 4].try_into().expect("4"));
    let u32_at = |s: &[u8], i: usize| u32::from_le_bytes(s[i..i + 4].try_into().expect("4"));

    let op = *bytes.get(offset).ok_or(DecodeError::Truncated { offset })?;
    let (inst, operand_len) = match op {
        OP_MOV_IMM => {
            let s = take(9)?;
            let dst = reg_at(s, 0, offset)?;
            let imm = i64::from_le_bytes(s[1..9].try_into().expect("8"));
            (Inst::MovImm { dst, imm }, 9)
        }
        OP_MOV_REG => {
            let s = take(1)?;
            let (dst, src) = unpack(s[0]);
            (Inst::MovReg { dst, src }, 1)
        }
        OP_LOAD | OP_STORE | OP_LOAD8 | OP_STORE8 | OP_LEA => {
            let s = take(5)?;
            let (a, b) = unpack(s[0]);
            let offset_imm = i32_at(s, 1);
            let inst = match op {
                OP_LOAD => Inst::Load { dst: a, base: b, offset: offset_imm },
                OP_STORE => Inst::Store { base: a, src: b, offset: offset_imm },
                OP_LOAD8 => Inst::Load8 { dst: a, base: b, offset: offset_imm },
                OP_STORE8 => Inst::Store8 { base: a, src: b, offset: offset_imm },
                _ => Inst::Lea { dst: a, base: b, offset: offset_imm },
            };
            (inst, 5)
        }
        OP_ALU => {
            let s = take(2)?;
            let aop = AluOp::ALL
                .get(s[0] as usize)
                .copied()
                .ok_or(DecodeError::BadSubOpcode { byte: s[0], offset })?;
            let (dst, src) = unpack(s[1]);
            (Inst::Alu { op: aop, dst, src }, 2)
        }
        OP_ADD_IMM => {
            let s = take(5)?;
            (Inst::AddImm { dst: reg_at(s, 0, offset)?, imm: i32_at(s, 1) }, 5)
        }
        OP_AND_IMM => {
            let s = take(9)?;
            let dst = reg_at(s, 0, offset)?;
            let imm = u64::from_le_bytes(s[1..9].try_into().expect("8"));
            (Inst::AndImm { dst, imm }, 9)
        }
        OP_CMP => {
            let s = take(1)?;
            let (a, b) = unpack(s[0]);
            (Inst::Cmp { a, b }, 1)
        }
        OP_CMP16 => {
            let s = take(1)?;
            let (a, b) = unpack(s[0]);
            (Inst::Cmp16 { a, b }, 1)
        }
        OP_CMP_IMM => {
            let s = take(5)?;
            (Inst::CmpImm { a: reg_at(s, 0, offset)?, imm: i32_at(s, 1) }, 5)
        }
        OP_TEST_IMM => {
            let s = take(5)?;
            (Inst::TestImm { a: reg_at(s, 0, offset)?, imm: i32_at(s, 1) }, 5)
        }
        OP_SETCC => {
            let s = take(1)?;
            let cc = Cond::from_byte(s[0] >> 4)
                .ok_or(DecodeError::BadSubOpcode { byte: s[0], offset })?;
            let dst = Reg::from_nibble(s[0] & 0x0f).expect("nibble");
            (Inst::SetCc { cc, dst }, 1)
        }
        OP_JMP => {
            let s = take(4)?;
            (Inst::Jmp { rel: i32_at(s, 0) }, 4)
        }
        OP_JCC => {
            let s = take(5)?;
            let cc = Cond::from_byte(s[0])
                .ok_or(DecodeError::BadSubOpcode { byte: s[0], offset })?;
            (Inst::Jcc { cc, rel: i32_at(s, 1) }, 5)
        }
        OP_CALL => {
            let s = take(4)?;
            (Inst::Call { rel: i32_at(s, 0) }, 4)
        }
        OP_CALL_REG => {
            let s = take(1)?;
            (Inst::CallReg { reg: reg_at(s, 0, offset)? }, 1)
        }
        OP_JMP_REG => {
            let s = take(1)?;
            (Inst::JmpReg { reg: reg_at(s, 0, offset)? }, 1)
        }
        OP_JMP_TABLE => {
            let s = take(9)?;
            let index = reg_at(s, 0, offset)?;
            (Inst::JmpTable { index, table: u32_at(s, 1), len: u32_at(s, 5) }, 9)
        }
        OP_RET => (Inst::Ret, 0),
        OP_PUSH => {
            let s = take(1)?;
            (Inst::Push { reg: reg_at(s, 0, offset)? }, 1)
        }
        OP_POP => {
            let s = take(1)?;
            (Inst::Pop { reg: reg_at(s, 0, offset)? }, 1)
        }
        OP_TRUNC32 => {
            let s = take(1)?;
            (Inst::Trunc32 { reg: reg_at(s, 0, offset)? }, 1)
        }
        OP_TARY_LOAD => {
            let s = take(1)?;
            let (dst, addr) = unpack(s[0]);
            (Inst::TaryLoad { dst, addr }, 1)
        }
        OP_BARY_LOAD => {
            let s = take(5)?;
            (Inst::BaryLoad { dst: reg_at(s, 0, offset)?, slot: u32_at(s, 1) }, 5)
        }
        OP_FALU => {
            let s = take(2)?;
            let fop = FaluOp::ALL
                .get(s[0] as usize)
                .copied()
                .ok_or(DecodeError::BadSubOpcode { byte: s[0], offset })?;
            let (dst, src) = unpack(s[1]);
            (Inst::FAlu { op: fop, dst, src }, 2)
        }
        OP_FCMP => {
            let s = take(1)?;
            let (a, b) = unpack(s[0]);
            (Inst::FCmp { a, b }, 1)
        }
        OP_CVT_IF => {
            let s = take(1)?;
            let (dst, src) = unpack(s[0]);
            (Inst::CvtIF { dst, src }, 1)
        }
        OP_CVT_FI => {
            let s = take(1)?;
            let (dst, src) = unpack(s[0]);
            (Inst::CvtFI { dst, src }, 1)
        }
        OP_SYSCALL => (Inst::Syscall, 0),
        OP_HLT => (Inst::Hlt, 0),
        OP_NOP => (Inst::Nop, 0),
        byte => return Err(DecodeError::BadOpcode { byte, offset }),
    };
    Ok((inst, operand_len + 1))
}

fn reg_at(s: &[u8], i: usize, offset: usize) -> Result<Reg, DecodeError> {
    Reg::from_nibble(s[i]).ok_or(DecodeError::BadSubOpcode { byte: s[i], offset })
}

/// A linear decode sweep over `[start, end)` of a byte buffer.
///
/// Produced by [`decode_sweep`]; yields `(offset, instruction, length)`
/// for every offset at which a decode succeeds along one forward walk.
/// After a successful decode the walk advances by the instruction
/// length; on a decode failure (padding, embedded table data, a
/// truncated tail) it advances one byte and retries, so a single bad
/// byte cannot hide the rest of the region.
pub struct DecodeSweep<'a> {
    bytes: &'a [u8],
    pos: usize,
    end: usize,
}

impl Iterator for DecodeSweep<'_> {
    type Item = (usize, Inst, usize);

    fn next(&mut self) -> Option<Self::Item> {
        while self.pos < self.end {
            match decode(self.bytes, self.pos) {
                Ok((inst, len)) => {
                    let at = self.pos;
                    self.pos += len;
                    return Some((at, inst, len));
                }
                Err(_) => self.pos += 1,
            }
        }
        None
    }
}

/// Sweeps `[start, end)` decoding instructions in one forward pass.
///
/// Only the *start* offset of each yielded instruction is confined to
/// the window; decoding itself reads from the full `bytes` buffer, so
/// an instruction beginning on the window's last byte decodes exactly
/// as [`decode`] would at that offset. This is the batch primitive the
/// runtime's predecode cache uses to fill a region's side-table in one
/// pass instead of re-decoding on every fetch.
pub fn decode_sweep(bytes: &[u8], start: usize, end: usize) -> DecodeSweep<'_> {
    DecodeSweep { bytes, pos: start, end: end.min(bytes.len()) }
}

/// Decodes an entire code buffer into `(offset, instruction)` pairs.
///
/// # Errors
///
/// Fails if any instruction is invalid — which for verified MCFI modules
/// never happens: the auxiliary type information makes complete
/// disassembly possible (§7).
pub fn decode_all(bytes: &[u8]) -> Result<Vec<(usize, Inst)>, DecodeError> {
    let mut out = Vec::new();
    let mut offset = 0;
    while offset < bytes.len() {
        let (inst, len) = decode(bytes, offset)?;
        out.push((offset, inst));
        offset += len;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_instructions() -> Vec<Inst> {
        use Reg::*;
        vec![
            Inst::MovImm { dst: Rax, imm: -42 },
            Inst::MovReg { dst: Rbx, src: R14 },
            Inst::Load { dst: Rax, base: Rbp, offset: -16 },
            Inst::Store { base: Rdx, offset: 8, src: Rax },
            Inst::Load8 { dst: Rax, base: Rbx, offset: 3 },
            Inst::Store8 { base: Rdx, offset: 0, src: Rax },
            Inst::Lea { dst: Rax, base: Rsp, offset: 24 },
            Inst::Alu { op: AluOp::Add, dst: Rax, src: Rbx },
            Inst::Alu { op: AluOp::Shr, dst: R15, src: Rbx },
            Inst::AddImm { dst: Rsp, imm: -32 },
            Inst::AndImm { dst: Rdx, imm: crate::SANDBOX_MASK },
            Inst::Cmp { a: Rdi, b: Rsi },
            Inst::Cmp16 { a: Rdi, b: Rsi },
            Inst::CmpImm { a: Rax, imm: 7 },
            Inst::TestImm { a: Rsi, imm: 1 },
            Inst::SetCc { cc: Cond::Lt, dst: Rax },
            Inst::Jmp { rel: -9 },
            Inst::Jcc { cc: Cond::Ne, rel: 100 },
            Inst::Call { rel: 1234 },
            Inst::CallReg { reg: Rax },
            Inst::JmpReg { reg: Rcx },
            Inst::JmpTable { index: Rbx, table: 0x1000, len: 5 },
            Inst::Ret,
            Inst::Push { reg: Rbp },
            Inst::Pop { reg: Rcx },
            Inst::Trunc32 { reg: Rcx },
            Inst::TaryLoad { dst: Rsi, addr: Rcx },
            Inst::BaryLoad { dst: Rdi, slot: 17 },
            Inst::FAlu { op: FaluOp::Mul, dst: Rax, src: Rbx },
            Inst::FCmp { a: Rax, b: Rbx },
            Inst::CvtIF { dst: Rax, src: Rbx },
            Inst::CvtFI { dst: Rbx, src: Rax },
            Inst::Syscall,
            Inst::Hlt,
            Inst::Nop,
        ]
    }

    #[test]
    fn every_instruction_round_trips() {
        for inst in sample_instructions() {
            let bytes = encode(&[inst]);
            let (decoded, len) = decode(&bytes, 0).unwrap_or_else(|e| panic!("{inst}: {e}"));
            assert_eq!(decoded, inst);
            assert_eq!(len, bytes.len(), "{inst}");
        }
    }

    /// Each operand range holds exactly the field it names: writing the
    /// field's value moves those bytes and no others.
    #[test]
    fn operands_are_the_patchable_fields() {
        let fields = |inst: Inst| match inst {
            Inst::MovImm { imm, .. } => imm.to_le_bytes().to_vec(),
            Inst::Call { rel } | Inst::Jmp { rel } | Inst::Jcc { rel, .. } => {
                rel.to_le_bytes().to_vec()
            }
            Inst::JmpTable { table, .. } => table.to_le_bytes().to_vec(),
            Inst::BaryLoad { slot, .. } => slot.to_le_bytes().to_vec(),
            other => panic!("{other} has no operand"),
        };
        let mut with_operand = 0;
        for inst in sample_instructions() {
            let Some(field) = inst.operand() else { continue };
            with_operand += 1;
            let bytes = encode(&[inst]);
            assert_eq!(bytes[field.clone()], fields(inst), "{inst}");
            if matches!(inst, Inst::Call { .. } | Inst::Jmp { .. } | Inst::Jcc { .. }) {
                assert_eq!(field.end, bytes.len(), "{inst}: the displacement ends the branch");
            }
            let mut moved = bytes.clone();
            moved[field.clone()].iter_mut().for_each(|b| *b ^= 0xff);
            let (other, _) = decode(&moved, 0).unwrap();
            assert_eq!(encode(&[other])[..field.start], bytes[..field.start], "{inst}");
            assert_eq!(encode(&[other])[field.end..], bytes[field.end..], "{inst}");
        }
        assert_eq!(with_operand, 6);
    }

    #[test]
    fn sequences_round_trip_with_offsets() {
        let insts = sample_instructions();
        let bytes = encode(&insts);
        let decoded = decode_all(&bytes).unwrap();
        assert_eq!(decoded.len(), insts.len());
        let mut expected_offset = 0;
        for ((off, inst), orig) in decoded.iter().zip(&insts) {
            assert_eq!(*off, expected_offset);
            assert_eq!(inst, orig);
            expected_offset += encode(&[*orig]).len();
        }
    }

    #[test]
    fn encoding_is_variable_length() {
        let short = encode(&[Inst::Ret]);
        let long = encode(&[Inst::MovImm { dst: Reg::Rax, imm: 0 }]);
        assert_eq!(short.len(), 1);
        assert_eq!(long.len(), 10);
    }

    #[test]
    fn invalid_opcode_is_reported() {
        assert!(matches!(
            decode(&[0xff], 0),
            Err(DecodeError::BadOpcode { byte: 0xff, offset: 0 })
        ));
        assert!(matches!(decode(&[0x00], 0), Err(DecodeError::BadOpcode { .. })));
    }

    #[test]
    fn truncated_input_is_reported() {
        // MovImm needs 10 bytes.
        let bytes = encode(&[Inst::MovImm { dst: Reg::Rax, imm: 1 }]);
        assert!(matches!(
            decode(&bytes[..5], 0),
            Err(DecodeError::Truncated { offset: 0 })
        ));
        assert!(matches!(decode(&[], 0), Err(DecodeError::Truncated { .. })));
    }

    #[test]
    fn invalid_condition_is_reported() {
        // Jcc with cc byte 9.
        let bytes = [0x11, 9, 0, 0, 0, 0];
        assert!(matches!(decode(&bytes, 0), Err(DecodeError::BadSubOpcode { .. })));
    }

    #[test]
    fn misaligned_decoding_differs_from_aligned() {
        // Decoding from inside a MovImm immediate can produce entirely
        // different instructions — the gadget phenomenon.
        let insts = [
            Inst::MovImm { dst: Reg::Rax, imm: 0x16 }, // 0x16 = Ret opcode
            Inst::Ret,
        ];
        let bytes = encode(&insts);
        // Offset 2 is inside the immediate: first byte there is 0x16 (Ret).
        let (gadget, _) = decode(&bytes, 2).unwrap();
        assert_eq!(gadget, Inst::Ret);
    }

    #[test]
    fn sweep_matches_decode_all_on_clean_code() {
        let insts = sample_instructions();
        let bytes = encode(&insts);
        let swept: Vec<(usize, Inst)> =
            decode_sweep(&bytes, 0, bytes.len()).map(|(off, inst, _)| (off, inst)).collect();
        assert_eq!(swept, decode_all(&bytes).unwrap());
    }

    #[test]
    fn sweep_skips_undecodable_bytes_one_at_a_time() {
        // 0x00 is an invalid opcode; the sweep must step over each junk
        // byte and resynchronise on the Ret that follows.
        let mut bytes = vec![0x00, 0x00, 0x00];
        let ret_at = bytes.len();
        bytes.extend(encode(&[Inst::Ret, Inst::Nop]));
        let swept: Vec<(usize, Inst, usize)> = decode_sweep(&bytes, 0, bytes.len()).collect();
        assert_eq!(swept.len(), 2);
        assert_eq!(swept[0], (ret_at, Inst::Ret, 1));
        assert_eq!(swept[1].1, Inst::Nop);
    }

    #[test]
    fn sweep_window_bounds_starts_not_spans() {
        // A MovImm beginning on the window's final byte decodes past the
        // window end, exactly like a plain decode() at that offset.
        let bytes = encode(&[Inst::Ret, Inst::MovImm { dst: Reg::Rax, imm: 7 }]);
        let swept: Vec<(usize, Inst, usize)> = decode_sweep(&bytes, 0, 2).collect();
        assert_eq!(swept.len(), 2);
        assert_eq!(swept[1], (1, Inst::MovImm { dst: Reg::Rax, imm: 7 }, 10));
        // No starts at or past the window end.
        assert!(decode_sweep(&bytes, 2, 2).next().is_none());
    }

    proptest! {
        #[test]
        fn decode_never_panics_on_junk(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = decode(&bytes, 0);
            let _ = decode_all(&bytes);
            let _ = decode_sweep(&bytes, 0, bytes.len()).count();
        }

        #[test]
        fn sweep_agrees_with_pointwise_decode(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            // Every instruction the sweep yields must be exactly what a
            // pointwise decode at that offset produces — the property
            // the predecode cache's correctness rests on.
            for (off, inst, len) in decode_sweep(&bytes, 0, bytes.len()) {
                let (pointwise, plen) = decode(&bytes, off).unwrap();
                prop_assert_eq!(inst, pointwise);
                prop_assert_eq!(len, plen);
            }
        }

        #[test]
        fn round_trip_mov_imm(imm in any::<i64>(), reg in 0u8..16) {
            let inst = Inst::MovImm { dst: Reg::from_nibble(reg).unwrap(), imm };
            let bytes = encode(&[inst]);
            let (decoded, len) = decode(&bytes, 0).unwrap();
            prop_assert_eq!(decoded, inst);
            prop_assert_eq!(len, 10);
        }

        #[test]
        fn round_trip_branches(rel in any::<i32>()) {
            for inst in [Inst::Jmp { rel }, Inst::Call { rel }, Inst::Jcc { cc: Cond::Le, rel }] {
                let bytes = encode(&[inst]);
                let (decoded, _) = decode(&bytes, 0).unwrap();
                prop_assert_eq!(decoded, inst);
            }
        }
    }
}
