//! The MCFI rewriter: compiles MiniC (via the IR) into instrumented
//! SimX64 modules.
//!
//! This crate stands in for the paper's modified LLVM backend (§7): it
//! reserves the check-transaction scratch registers, inlines the TxCheck
//! sequence before every indirect branch, sandboxes memory writes,
//! 4-byte-aligns every possible indirect-branch target, and dumps the
//! auxiliary type information into the emitted [`mcfi_module::Module`].
//!
//! # Example
//!
//! ```
//! use mcfi_codegen::{compile_source, CodegenOptions};
//!
//! let module = compile_source(
//!     "demo",
//!     "int id(int x) { return x; }\n\
//!      int main(void) { int (*f)(int); f = &id; return f(7); }",
//!     &CodegenOptions::default(),
//! )?;
//! // `id`'s rewritten return, plus `main`'s indirect tail call
//! // (`return f(7)` compiles to a checked indirect jump).
//! assert_eq!(module.aux.indirect_branches.len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
mod gen;

pub use gen::{compile, string_name, CodegenError, CodegenOptions, Policy};

use mcfi_module::Module;

/// Convenience: parse, check, lower, and compile MiniC source.
///
/// # Errors
///
/// Propagates front-end, lowering, and code-generation errors.
pub fn compile_source(
    module_name: &str,
    src: &str,
    opts: &CodegenOptions,
) -> Result<Module, Box<dyn std::error::Error>> {
    let tp = mcfi_minic::parse_and_check(src)?;
    let ir = mcfi_ir::lower(&tp, module_name)?;
    Ok(compile(&ir, opts)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfi_machine::{decode_all, Inst, Reg, SANDBOX_MASK, TARGET_ALIGN};
    use mcfi_module::BranchKind;

    fn build(src: &str) -> Module {
        compile_source("t", src, &CodegenOptions::default()).unwrap_or_else(|e| panic!("{e}"))
    }

    fn build_with(src: &str, opts: CodegenOptions) -> Module {
        compile_source("t", src, &opts).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn code_is_fully_decodable() {
        let m = build(
            "int add(int a, int b) { return a + b; }\n\
             int main(void) { return add(1, 2); }",
        );
        // Jump tables at the end may be zero bytes (invalid opcodes), so
        // decode only the instruction part: up to the first table offset
        // or the whole image when no tables exist.
        let end = m.aux.jump_tables.iter().map(|t| t.table_offset).min().unwrap_or(m.code.len());
        decode_all(&m.code[..end]).expect("instrumented code must disassemble completely");
    }

    #[test]
    fn returns_are_rewritten_not_raw() {
        let m = build("int f(int x) { return x; }");
        let insts = decode_all(&m.code).unwrap();
        assert!(
            !insts.iter().any(|(_, i)| *i == Inst::Ret),
            "MCFI code must not contain raw returns"
        );
        assert!(insts.iter().any(|(_, i)| matches!(i, Inst::JmpReg { reg: Reg::Rcx })));
        assert_eq!(m.aux.indirect_branches.len(), 1);
        assert!(matches!(
            m.aux.indirect_branches[0].kind,
            BranchKind::Return { ref function } if function == "f"
        ));
    }

    #[test]
    fn nocfi_keeps_raw_returns() {
        let m = build_with(
            "int f(int x) { return x; }",
            CodegenOptions { policy: Policy::NoCfi, tail_calls: true },
        );
        let insts = decode_all(&m.code).unwrap();
        assert!(insts.iter().any(|(_, i)| *i == Inst::Ret));
        assert!(m.aux.indirect_branches.is_empty());
    }

    #[test]
    fn function_entries_are_aligned() {
        let m = build(
            "int a(void) { return 1; }\nint b(void) { return 2; }\nint c(void) { return 3; }",
        );
        for (name, sym) in &m.functions {
            assert_eq!(sym.offset as u64 % TARGET_ALIGN, 0, "{name} entry unaligned");
        }
    }

    #[test]
    fn return_sites_are_aligned() {
        let m = build(
            "int h(int x) { return x + 1; }\n\
             int main(void) { int a = h(1); int b = h(a); return a + b; }",
        );
        assert!(!m.aux.return_sites.is_empty());
        for site in &m.aux.return_sites {
            assert_eq!(site.offset as u64 % TARGET_ALIGN, 0, "return site unaligned");
        }
    }

    #[test]
    fn stores_are_masked_under_mcfi() {
        let m = build("void f(int* p) { *p = 7; }");
        let insts = decode_all(&m.code).unwrap();
        let mut masked = false;
        for w in insts.windows(2) {
            if let (Inst::AndImm { dst: Reg::Rdx, imm }, Inst::Store { base: Reg::Rdx, .. }) =
                (&w[0].1, &w[1].1)
            {
                assert_eq!(*imm, SANDBOX_MASK);
                masked = true;
            }
        }
        assert!(masked, "computed store must be preceded by a sandbox mask");
    }

    #[test]
    fn stores_are_unmasked_without_cfi() {
        let m = build_with(
            "void f(int* p) { *p = 7; }",
            CodegenOptions { policy: Policy::NoCfi, tail_calls: true },
        );
        let insts = decode_all(&m.code).unwrap();
        assert!(!insts.iter().any(|(_, i)| matches!(i, Inst::AndImm { .. })));
    }

    #[test]
    fn check_sequence_matches_figure_four() {
        let m = build("int f(int x) { return x; }");
        let b = &m.aux.indirect_branches[0];
        let fetch = |at| mcfi_machine::decode(&m.code, at).ok();
        let check = mcfi_machine::check::recognize(fetch, b.check_offset).unwrap();
        assert_eq!((check.bary, check.tary, check.target), (Reg::Rdi, Reg::Rsi, Reg::Rcx));
        assert_eq!((check.slot, check.branch), (0, b.branch_offset));
        let slow = check.slow_path(fetch).unwrap();
        assert_eq!((check.miss, slow.invalid, slow.retry), (slow.test, slow.hlt, check.start));
    }

    #[test]
    fn indirect_calls_carry_their_signature() {
        let m = build(
            "int id(int x) { return x; }\n\
             int main(void) { int (*f)(int); f = &id; int r = f(7); return r; }",
        );
        let call = m
            .aux
            .indirect_branches
            .iter()
            .find(|b| matches!(b.kind, BranchKind::IndirectCall { .. }))
            .expect("indirect call instrumented");
        let BranchKind::IndirectCall { sig } = &call.kind else { unreachable!() };
        assert_eq!(sig.params.len(), 1);
    }

    #[test]
    fn tail_calls_become_jumps_on_x64() {
        let m = build("int h(int x) { return x; }\nint g(int y) { return h(y); }");
        // g ends with a direct jmp (relocated), not a call.
        let g = &m.functions["g"];
        let insts = decode_all(&m.code).unwrap();
        let in_g: Vec<_> = insts
            .iter()
            .filter(|(o, _)| *o >= g.offset && *o < g.offset + g.size)
            .collect();
        assert!(
            !in_g.iter().any(|(_, i)| matches!(i, Inst::Call { .. })),
            "tail call must not use Call in x86-64 mode"
        );
    }

    #[test]
    fn tail_calls_stay_calls_on_x86_32_mode() {
        let m = build_with(
            "int h(int x) { return x; }\nint g(int y) { return h(y); }",
            CodegenOptions { policy: Policy::Mcfi, tail_calls: false },
        );
        let g = &m.functions["g"];
        let insts = decode_all(&m.code[..m.code.len()]).unwrap();
        let has_call = insts
            .iter()
            .any(|(o, i)| *o >= g.offset && *o < g.offset + g.size && matches!(i, Inst::Call { .. }));
        assert!(has_call);
    }

    #[test]
    fn switch_emits_jump_table() {
        let m = build(
            "int f(int x) { switch (x) { case 0: return 1; case 1: return 2; case 2: return 3; \
             case 3: return 4; default: return 0; } return 0; }",
        );
        assert_eq!(m.aux.jump_tables.len(), 1);
        let t = &m.aux.jump_tables[0];
        assert_eq!(t.entries.len(), 4);
        assert_eq!(t.table_offset % 8, 0);
        // Table entries point inside f.
        let f = &m.functions["f"];
        for e in &t.entries {
            assert!(*e >= f.offset && *e < f.offset + f.size);
        }
    }

    #[test]
    fn sparse_switch_uses_compare_chain() {
        let m = build(
            "int f(int x) { switch (x) { case 0: return 1; case 9000: return 2; case 12345: \
             return 3; default: return 0; } return 0; }",
        );
        assert!(m.aux.jump_tables.is_empty());
    }

    #[test]
    fn globals_and_strings_land_in_data() {
        let m = build("int counter = 7;\nchar* msg = \"hi\";\nint main(void) { return counter; }");
        assert!(m.globals.contains_key("counter"));
        assert!(m.globals.contains_key("msg"));
        let s0 = &m.globals[&string_name(0)];
        assert_eq!(&m.data[s0.offset..s0.offset + 3], b"hi\0");
        let c = &m.globals["counter"];
        assert_eq!(m.data[c.offset], 7);
        // msg needs a data relocation to the string.
        assert!(m.data_relocs.iter().any(|r| r.patch_at == m.globals["msg"].offset));
    }

    #[test]
    fn imports_are_recorded() {
        let m = build("int puts(char* s);\nvoid f(void) { puts(\"x\"); }");
        assert_eq!(m.aux.imports.len(), 1);
        assert_eq!(m.aux.imports[0].name, "puts");
        // The call needs a CallRel relocation.
        assert!(m
            .relocs
            .iter()
            .any(|r| matches!(&r.kind, mcfi_module::RelocKind::CallRel(n) if n == "puts")));
    }

    #[test]
    fn setjmp_creates_aligned_landing_site() {
        let m = build(
            "int run(int* env) { if (setjmp(env)) { return 1; } return 0; }",
        );
        let landing = m
            .aux
            .return_sites
            .iter()
            .find(|s| matches!(s.callee, mcfi_module::CalleeKind::SetJmp))
            .expect("setjmp landing registered");
        assert_eq!(landing.offset % 4, 0);
        // And a CodeAbs relocation points at it.
        assert!(m
            .relocs
            .iter()
            .any(|r| matches!(r.kind, mcfi_module::RelocKind::CodeAbs(o) if o == landing.offset as u64)));
    }

    #[test]
    fn longjmp_is_an_instrumented_indirect_jump() {
        let m = build("void f(int* env) { longjmp(env, 3); }");
        assert!(m
            .aux
            .indirect_branches
            .iter()
            .any(|b| matches!(b.kind, BranchKind::LongJmp)));
    }

    #[test]
    fn too_many_arguments_is_an_error() {
        let r = compile_source(
            "t",
            "int f(int a, int b, int c, int d, int e, int g, int h) { return a; }",
            &CodegenOptions::default(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn bary_slots_are_dense_and_match_indices() {
        let m = build(
            "int a(void) { return 1; }\nint b(void) { return 2; }\n\
             int main(void) { return a() + b(); }",
        );
        for (i, b) in m.aux.indirect_branches.iter().enumerate() {
            assert_eq!(b.local_slot as usize, i);
        }
    }
}
