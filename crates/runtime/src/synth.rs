//! Synthesized runtime-provided modules: the system-call stubs.
//!
//! The MCFI runtime "does not allow modules to directly invoke native
//! system calls. Instead, it wraps system calls as API functions and
//! checks their arguments" (paper §7). These wrappers are themselves MCFI
//! modules: instrumented, typed (so type-matching CFG generation sees
//! them), and loaded into the sandbox like any other code.

use mcfi_machine::check::{self, Transfer};
use mcfi_machine::{encode_into, Inst, Reg};
use mcfi_minic::types::{FuncType, Type};
use mcfi_module::{BranchKind, FunctionSym, IndirectBranchInfo, Module};

/// Syscall numbers understood by the runtime.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u64)]
#[allow(missing_docs)]
pub enum Sys {
    Exit = 0,
    Write = 1,
    Sbrk = 2,
    Mmap = 3,
    Mprotect = 4,
    Dlopen = 5,
    Dlsym = 6,
    Cycles = 7,
    Execve = 8,
}

fn sig(params: Vec<Type>, ret: Type) -> FuncType {
    FuncType { params, ret: Box::new(ret), variadic: false }
}

/// The stub table: `(exported name, syscall number, signature)`.
///
/// `execve` is exported under its real name — it is the "dangerous
/// library function" of the paper's GnuPG case study (§8.3).
pub fn stub_specs() -> Vec<(&'static str, Sys, FuncType)> {
    vec![
        ("__sys_exit", Sys::Exit, sig(vec![Type::Int], Type::Void)),
        (
            "__sys_write",
            Sys::Write,
            sig(vec![Type::Int, Type::Char.ptr(), Type::Int], Type::Int),
        ),
        ("__sys_sbrk", Sys::Sbrk, sig(vec![Type::Int], Type::Void.ptr())),
        ("__sys_mmap", Sys::Mmap, sig(vec![Type::Int, Type::Int], Type::Void.ptr())),
        (
            "__sys_mprotect",
            Sys::Mprotect,
            sig(vec![Type::Void.ptr(), Type::Int], Type::Int),
        ),
        ("__sys_dlopen", Sys::Dlopen, sig(vec![Type::Char.ptr()], Type::Int)),
        ("__sys_dlsym", Sys::Dlsym, sig(vec![Type::Char.ptr()], Type::Void.ptr())),
        ("__sys_cycles", Sys::Cycles, sig(vec![], Type::Int)),
        ("execve", Sys::Execve, sig(vec![Type::Char.ptr()], Type::Int)),
    ]
}

/// Builds the syscall-stub module. Each stub is:
///
/// ```text
/// entry:  mov  %rax, $N        ; syscall number
///         syscall              ; dispatched to the trusted runtime
///         pop  %rcx            ; instrumented return (Fig. 4)
///         <check transaction>
///         jmp  *%rcx
/// ```
pub fn syscall_module() -> Module {
    syscall_module_with(true)
}

/// Like [`syscall_module`], but lets the caller request *uninstrumented*
/// stubs (raw `ret`) for no-CFI baseline measurements — an instrumented
/// stub returning into unaligned baseline code would otherwise halt.
pub fn syscall_module_with(instrumented: bool) -> Module {
    let mut m = Module::new("__syscalls");
    let mut code = Vec::new();
    for (name, num, fsig) in stub_specs() {
        while code.len() % 4 != 0 {
            encode_into(&Inst::Nop, &mut code);
        }
        let entry = code.len();
        encode_into(&Inst::MovImm { dst: Reg::Rax, imm: num as i64 }, &mut code);
        encode_into(&Inst::Syscall, &mut code);
        if instrumented {
            // The instrumented return: pop the target, then Fig. 4.
            encode_into(&Inst::Pop { reg: Reg::Rcx }, &mut code);
            let slot = m.aux.indirect_branches.len() as u32;
            let check = check::emit(&mut code, slot, Transfer::Jump, None);
            m.aux.indirect_branches.push(IndirectBranchInfo {
                local_slot: slot,
                check_offset: check.start,
                branch_offset: check.branch,
                in_function: name.to_string(),
                kind: BranchKind::Return { function: name.to_string() },
            });
        } else {
            encode_into(&Inst::Ret, &mut code);
        }
        m.functions.insert(
            name.to_string(),
            FunctionSym {
                offset: entry,
                size: code.len() - entry,
                sig: fsig,
                is_static: false,
                address_taken: false,
            },
        );
    }
    m.code = code;
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfi_machine::decode_all;

    #[test]
    fn stub_module_decodes_completely() {
        let m = syscall_module();
        decode_all(&m.code).expect("stub code disassembles");
        assert_eq!(m.functions.len(), stub_specs().len());
        assert_eq!(m.aux.indirect_branches.len(), stub_specs().len());
    }

    #[test]
    fn stub_entries_are_aligned() {
        let m = syscall_module();
        for (name, f) in &m.functions {
            assert_eq!(f.offset % 4, 0, "{name}");
        }
    }

    #[test]
    fn stubs_carry_signatures_for_type_matching() {
        let m = syscall_module();
        let execve = &m.functions["execve"];
        assert_eq!(execve.sig.params, vec![Type::Char.ptr()]);
        assert_eq!(*execve.sig.ret, Type::Int);
    }

    #[test]
    fn each_stub_has_an_instrumented_return() {
        let m = syscall_module();
        for b in &m.aux.indirect_branches {
            assert!(matches!(b.kind, BranchKind::Return { .. }));
            let (inst, _) = mcfi_machine::decode(&m.code, b.check_offset)
                .expect("stub check_offset decodes inside the emitted code");
            assert!(matches!(inst, Inst::BaryLoad { .. }));
            let (inst, _) = mcfi_machine::decode(&m.code, b.branch_offset)
                .expect("stub branch_offset decodes inside the emitted code");
            assert!(matches!(inst, Inst::JmpReg { reg: Reg::Rcx }));
        }
    }
}
