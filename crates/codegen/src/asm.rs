//! An assembling buffer with labels, branch fixups, relocations, and the
//! alignment machinery MCFI needs (4-byte-aligned indirect-branch
//! targets, §5.1).

use std::collections::HashMap;

use mcfi_machine::{encode_into, Inst};
use mcfi_module::{Reloc, RelocKind};

/// An abstract code label, resolved to an offset during emission.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Label(pub u32);

/// An assembling code buffer.
#[derive(Default, Debug)]
pub struct Asm {
    bytes: Vec<u8>,
    labels: HashMap<Label, usize>,
    next_label: u32,
    /// `(patch_pos, inst_end, label)` — write `label_offset - inst_end`
    /// as an `i32` at `patch_pos`.
    fixups: Vec<(usize, usize, Label)>,
    /// Relocations accumulated for the module.
    pub relocs: Vec<Reloc>,
}

impl Asm {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current offset.
    pub fn here(&self) -> usize {
        self.bytes.len()
    }

    /// Allocates a fresh unbound label.
    pub fn label(&mut self) -> Label {
        self.next_label += 1;
        Label(self.next_label - 1)
    }

    /// Binds `label` to the current offset.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound (an emitter bug).
    pub fn bind(&mut self, label: Label) {
        let prev = self.labels.insert(label, self.bytes.len());
        assert!(prev.is_none(), "label bound twice");
    }

    /// Emits one instruction, returning its offset.
    pub fn emit(&mut self, inst: Inst) -> usize {
        let at = self.bytes.len();
        encode_into(&inst, &mut self.bytes);
        at
    }

    /// Lets `write` append bytes directly, for sequences that lay
    /// themselves out (the check sequence of [`mcfi_machine::check`]).
    pub(crate) fn append<R>(&mut self, write: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        write(&mut self.bytes)
    }

    /// Emits `Nop`s until the current offset is a multiple of `align`.
    pub fn align_to(&mut self, align: usize) {
        while !self.bytes.len().is_multiple_of(align) {
            self.emit(Inst::Nop);
        }
    }

    /// Emits `Nop`s so that the *end* of an instruction of `inst_len`
    /// bytes emitted next lands on a multiple of `align` — used to align
    /// return sites, which follow call instructions (§5.1).
    pub fn align_end_of_next(&mut self, inst_len: usize, align: usize) {
        while !(self.bytes.len() + inst_len).is_multiple_of(align) {
            self.emit(Inst::Nop);
        }
    }

    /// Emits an unconditional jump to `label` (fixed up later).
    pub fn jmp(&mut self, label: Label) {
        let at = self.emit(Inst::Jmp { rel: 0 });
        self.fixups.push((at + 1, at + 5, label));
    }

    /// Emits a conditional jump to `label`.
    pub fn jcc(&mut self, cc: mcfi_machine::Cond, label: Label) {
        let at = self.emit(Inst::Jcc { cc, rel: 0 });
        self.fixups.push((at + 2, at + 6, label));
    }

    /// Emits a direct call whose target is resolved by the linker.
    ///
    /// Also used for direct tail-call jumps: `is_jmp` selects the opcode.
    /// Returns the offset of the instruction.
    pub fn call_reloc(&mut self, callee: &str, is_jmp: bool) -> usize {
        let at = if is_jmp {
            self.emit(Inst::Jmp { rel: 0 })
        } else {
            self.emit(Inst::Call { rel: 0 })
        };
        self.relocs.push(Reloc {
            patch_at: at + 1,
            kind: RelocKind::CallRel(callee.to_string()),
        });
        at
    }

    /// Emits `MovImm dst, 0` with a relocation of the given kind on the
    /// 8-byte immediate. Returns the instruction offset.
    pub fn mov_reloc(&mut self, dst: mcfi_machine::Reg, kind: RelocKind) -> usize {
        let at = self.emit(Inst::MovImm { dst, imm: 0 });
        self.relocs.push(Reloc { patch_at: at + 2, kind });
        at
    }

    /// The bound offset of `label`, if any.
    pub fn offset_of(&self, label: Label) -> Option<usize> {
        self.labels.get(&label).copied()
    }

    /// Emits `MovImm dst, 0` with a `CodeAbs` relocation whose value is
    /// filled in later via [`Asm::set_code_abs`]. Returns the relocation
    /// index.
    pub fn mov_code_abs(&mut self, dst: mcfi_machine::Reg) -> usize {
        let at = self.emit(Inst::MovImm { dst, imm: 0 });
        self.relocs.push(Reloc { patch_at: at + 2, kind: RelocKind::CodeAbs(0) });
        self.relocs.len() - 1
    }

    /// Sets the code offset of a pending `CodeAbs` relocation.
    ///
    /// # Panics
    ///
    /// Panics if `idx` does not refer to a `CodeAbs` relocation.
    pub fn set_code_abs(&mut self, idx: usize, offset: u64) {
        match &mut self.relocs[idx].kind {
            RelocKind::CodeAbs(v) => *v = offset,
            other => panic!("relocation {idx} is {other:?}, not CodeAbs"),
        }
    }

    /// Resolves all fixups and returns the finished bytes and relocations.
    ///
    /// # Panics
    ///
    /// Panics if a fixup references an unbound label (an emitter bug).
    pub fn finish(mut self) -> (Vec<u8>, Vec<Reloc>) {
        for (patch, end, label) in &self.fixups {
            let target = *self.labels.get(label).expect("all labels bound before finish");
            let rel = (target as i64 - *end as i64) as i32;
            self.bytes[*patch..*patch + 4].copy_from_slice(&rel.to_le_bytes());
        }
        (self.bytes, self.relocs)
    }

    /// Reserves `n` zero bytes (for jump tables), returning their offset.
    pub fn reserve(&mut self, n: usize) -> usize {
        let at = self.bytes.len();
        self.bytes.extend(std::iter::repeat_n(0u8, n));
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfi_machine::{decode, decode_all, Cond, Inst, Reg};

    #[test]
    fn forward_and_backward_jumps_resolve() {
        let mut a = Asm::new();
        let top = a.label();
        let out = a.label();
        a.bind(top);
        a.emit(Inst::Nop);
        a.jcc(Cond::Eq, out);
        a.jmp(top);
        a.bind(out);
        a.emit(Inst::Hlt);
        let (bytes, _) = a.finish();
        let insts = decode_all(&bytes).unwrap();
        // jcc at offset 1 (6 bytes) -> target 12 (after the 5-byte jmp).
        assert_eq!(insts[1].1, Inst::Jcc { cc: Cond::Eq, rel: 5 });
        // jmp at offset 7 (5 bytes), end 12 -> target 0: rel -12.
        assert_eq!(insts[2].1, Inst::Jmp { rel: -12 });
    }

    #[test]
    fn align_end_of_next_places_following_offset_on_boundary() {
        let mut a = Asm::new();
        a.emit(Inst::Nop); // offset 1 now
        let call_len = 5;
        a.align_end_of_next(call_len, 4);
        let at = a.emit(Inst::Call { rel: 0 });
        assert_eq!((at + call_len) % 4, 0);
    }

    #[test]
    fn align_to_pads_with_nops() {
        let mut a = Asm::new();
        a.emit(Inst::Ret);
        a.align_to(4);
        assert_eq!(a.here() % 4, 0);
        let (bytes, _) = a.finish();
        let insts = decode_all(&bytes).unwrap();
        assert!(insts[1..].iter().all(|(_, i)| *i == Inst::Nop));
    }

    #[test]
    fn relocated_mov_records_patch_position() {
        let mut a = Asm::new();
        let at = a.mov_reloc(Reg::Rax, RelocKind::FuncAbs("f".into()));
        let (bytes, relocs) = a.finish();
        assert_eq!(relocs.len(), 1);
        assert_eq!(relocs[0].patch_at, at + 2);
        let (inst, _) = decode(&bytes, at).unwrap();
        assert_eq!(inst, Inst::MovImm { dst: Reg::Rax, imm: 0 });
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_binding_is_a_bug() {
        let mut a = Asm::new();
        let l = a.label();
        a.bind(l);
        a.bind(l);
    }
}
