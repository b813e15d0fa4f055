//! The MCFI module format.
//!
//! "An MCFI module not only contains code and data, but also auxiliary
//! information" (paper §6). A [`Module`] bundles:
//!
//! * the instrumented **code** bytes (SimX64 encoding) with read-only jump
//!   tables appended,
//! * the initialized **data** image,
//! * **symbols** — function entries (with signatures, the heart of the
//!   auxiliary type information) and globals,
//! * **relocations** the (static or dynamic) linker patches,
//! * **aux** info: the module's type environment, every instrumented
//!   indirect branch with its module-local Bary slot, every return site,
//!   jump tables, setjmp sites, and imported symbols.
//!
//! Merging two modules' auxiliary information is a union (performed by the
//! linker crate), exactly as the paper prescribes. Modules serialize to a
//! compact binary object format (the [`wire`] module) so libraries can be
//! "instrumented once and reused across programs" — the motivation for
//! separate compilation in the first place (§1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod wire;

pub use admission::AdmissionError;
pub use wire::{DecodeLimits, WireError, WireErrorKind};

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use serde::{Deserialize, Serialize};

use mcfi_minic::types::{FuncType, TypeEnv};

/// A function symbol.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct FunctionSym {
    /// Offset of the (4-byte-aligned) entry within the module's code.
    pub offset: usize,
    /// Size of the function body in bytes (0 for a declaration).
    pub size: usize,
    /// The function's signature — the auxiliary type information used for
    /// type-matching CFG generation.
    pub sig: FuncType,
    /// Module-local (`static`) functions are not linkable by name.
    pub is_static: bool,
    /// Whether the module takes this function's address anywhere.
    pub address_taken: bool,
}

/// A global-variable symbol.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct GlobalSym {
    /// Offset within the module's data image.
    pub offset: usize,
    /// Size in bytes.
    pub size: usize,
}

/// What a relocation patches the code with.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum RelocKind {
    /// 8-byte absolute address of a function (by name).
    FuncAbs(String),
    /// 8-byte absolute address of a global (by name).
    GlobalAbs(String),
    /// 4-byte absolute address of jump table `n` of this module.
    JumpTable(u32),
    /// 4-byte pc-relative displacement to a function, for direct calls.
    /// The displacement is relative to the end of the `Call` instruction.
    CallRel(String),
    /// 8-byte absolute address of the GOT slot for an imported symbol
    /// (used by PLT stubs).
    GotSlot(String),
    /// 8-byte absolute address of an offset within this module's own code
    /// (used for `setjmp` landing points).
    CodeAbs(u64),
}

impl RelocKind {
    /// Width in bytes of the field this relocation writes.
    pub fn width(&self) -> usize {
        match self {
            RelocKind::FuncAbs(_)
            | RelocKind::GlobalAbs(_)
            | RelocKind::GotSlot(_)
            | RelocKind::CodeAbs(_) => 8,
            RelocKind::JumpTable(_) | RelocKind::CallRel(_) => 4,
        }
    }
}

/// A relocation: patch `kind` into the code at byte offset `patch_at`.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Reloc {
    /// Byte offset of the immediate field to patch.
    pub patch_at: usize,
    /// What to write there.
    pub kind: RelocKind,
}

/// The kind of an instrumented indirect branch.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum BranchKind {
    /// A rewritten `return` in the named function.
    Return {
        /// The returning function.
        function: String,
    },
    /// An indirect call through a pointer of this signature.
    IndirectCall {
        /// Pointer signature.
        sig: FuncType,
    },
    /// An interprocedural indirect jump (indirect tail call, §6).
    IndirectTailCall {
        /// Pointer signature.
        sig: FuncType,
    },
    /// The indirect jump inside a PLT entry for an imported symbol.
    PltEntry {
        /// Imported symbol name.
        symbol: String,
    },
    /// The indirect jump implementing `longjmp` (may target any address
    /// set up by a `setjmp`, §6).
    LongJmp,
}

/// One instrumented indirect branch.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct IndirectBranchInfo {
    /// Module-local Bary index. The loader patches the `BaryLoad` at
    /// `check_offset` with the process-global slot (§5.1).
    pub local_slot: u32,
    /// Offset of the `BaryLoad` instruction within the code.
    pub check_offset: usize,
    /// Offset of the final `JmpReg`/`CallReg` of the check sequence.
    pub branch_offset: usize,
    /// Function containing the branch (used for tail-call transitivity in
    /// CFG generation, §6).
    pub in_function: String,
    /// What the branch implements.
    pub kind: BranchKind,
}

/// Who is called at a return site.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum CalleeKind {
    /// Direct call to a named function.
    Direct(String),
    /// Indirect call through a pointer of this signature.
    Indirect(FuncType),
    /// A `setjmp` invocation — `longjmp` may return here too (§6).
    SetJmp,
}

/// A possible indirect-branch target following a call instruction.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct ReturnSiteInfo {
    /// 4-byte-aligned code offset of the instruction after the call.
    pub offset: usize,
    /// Function containing the call.
    pub in_function: String,
    /// The callee.
    pub callee: CalleeKind,
}

/// A read-only jump table compiled from a `switch` (§6: intraprocedural
/// indirect jumps are statically analyzed via their jump tables).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct JumpTableInfo {
    /// Offset of the table within the code section (8-byte entries).
    pub table_offset: usize,
    /// Code offsets of the table's targets.
    pub entries: Vec<usize>,
    /// The function the switch belongs to.
    pub function: String,
}

/// An imported symbol (resolved by the linker, possibly via PLT).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Import {
    /// Symbol name.
    pub name: String,
    /// Expected signature.
    pub sig: FuncType,
}

/// The auxiliary information attached to a module (paper §6).
#[derive(Clone, Default, PartialEq, Debug, Serialize, Deserialize)]
pub struct AuxInfo {
    /// The module's typedefs and composite definitions.
    pub env: TypeEnv,
    /// All instrumented indirect branches, indexed by `local_slot`.
    pub indirect_branches: Vec<IndirectBranchInfo>,
    /// All return sites (possible targets of returns).
    pub return_sites: Vec<ReturnSiteInfo>,
    /// Jump tables.
    pub jump_tables: Vec<JumpTableInfo>,
    /// Imported symbols.
    pub imports: Vec<Import>,
    /// Direct tail calls `(caller, callee)` — jumps, so they produce no
    /// return site; CFG generation chases them transitively (§6).
    pub tail_calls: Vec<(String, String)>,
}

/// An MCFI module: instrumented code, data, symbols, relocations and
/// auxiliary type information.
#[derive(Clone, Default, PartialEq, Debug, Serialize, Deserialize)]
pub struct Module {
    /// Module name (for diagnostics).
    pub name: String,
    /// Instrumented SimX64 code, with jump tables appended.
    pub code: Vec<u8>,
    /// Initialized data image.
    pub data: Vec<u8>,
    /// Function symbols.
    pub functions: BTreeMap<String, FunctionSym>,
    /// Global symbols.
    pub globals: BTreeMap<String, GlobalSym>,
    /// Relocations applied to the code image.
    pub relocs: Vec<Reloc>,
    /// Relocations applied to the data image (e.g. a global initialized
    /// with a function address).
    pub data_relocs: Vec<Reloc>,
    /// Auxiliary information.
    pub aux: AuxInfo,
}

/// Errors from module operations.
#[derive(Clone, Debug)]
pub enum ModuleError {
    /// A symbol is defined by both modules being merged/linked.
    DuplicateSymbol(String),
    /// Type environments clash.
    TypeClash(String),
    /// An import could not be resolved.
    UnresolvedImport(String),
}

impl fmt::Display for ModuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModuleError::DuplicateSymbol(s) => write!(f, "duplicate symbol `{s}`"),
            ModuleError::TypeClash(s) => write!(f, "type clash: {s}"),
            ModuleError::UnresolvedImport(s) => write!(f, "unresolved import `{s}`"),
        }
    }
}

impl std::error::Error for ModuleError {}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module { name: name.into(), ..Default::default() }
    }

    /// All functions whose addresses are taken — candidate indirect-call
    /// targets under the type-matching policy.
    pub fn address_taken_functions(&self) -> impl Iterator<Item = (&String, &FunctionSym)> {
        self.functions.iter().filter(|(_, f)| f.address_taken)
    }

    /// Names of symbols this module exports (non-static defined functions
    /// and globals).
    pub fn exports(&self) -> BTreeSet<String> {
        self.functions
            .iter()
            .filter(|(_, f)| !f.is_static && f.size > 0)
            .map(|(n, _)| n.clone())
            .chain(self.globals.keys().cloned())
            .collect()
    }

    /// Whether `name` is defined (as a function) in this module with a body.
    pub fn defines_function(&self, name: &str) -> bool {
        self.functions.get(name).is_some_and(|f| f.size > 0)
    }

    /// Serializes the module to bytes (the `.mcfi` object format).
    ///
    /// # Errors
    ///
    /// Propagates encoder failures (only possible for pathological data
    /// such as non-string map keys, which this type does not contain).
    pub fn to_bytes(&self) -> Result<Vec<u8>, wire::WireError> {
        wire::to_bytes(self)
    }

    /// Deserializes a module written by [`Module::to_bytes`].
    ///
    /// # Errors
    ///
    /// Fails on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, wire::WireError> {
        wire::from_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfi_minic::types::Type;

    fn sig(params: Vec<Type>, ret: Type) -> FuncType {
        FuncType { params, ret: Box::new(ret), variadic: false }
    }

    fn sample_module() -> Module {
        let mut m = Module::new("libdemo");
        m.code = vec![0x16, 0x22, 0x22]; // ret, nop, nop
        m.data = vec![1, 2, 3, 4];
        m.functions.insert(
            "f".into(),
            FunctionSym {
                offset: 0,
                size: 1,
                sig: sig(vec![Type::Int], Type::Int),
                is_static: false,
                address_taken: true,
            },
        );
        m.functions.insert(
            "helper".into(),
            FunctionSym {
                offset: 4,
                size: 0,
                sig: sig(vec![], Type::Void),
                is_static: true,
                address_taken: false,
            },
        );
        m.globals.insert("g".into(), GlobalSym { offset: 0, size: 8 });
        m.relocs.push(Reloc { patch_at: 2, kind: RelocKind::FuncAbs("f".into()) });
        m.aux.indirect_branches.push(IndirectBranchInfo {
            local_slot: 0,
            check_offset: 0,
            branch_offset: 2,
            in_function: "f".into(),
            kind: BranchKind::Return { function: "f".into() },
        });
        m.aux.return_sites.push(ReturnSiteInfo {
            offset: 8,
            in_function: "f".into(),
            callee: CalleeKind::Direct("helper".into()),
        });
        m.aux
            .imports
            .push(Import { name: "puts".into(), sig: sig(vec![Type::Char.ptr()], Type::Int) });
        m
    }

    #[test]
    fn exports_exclude_static_functions() {
        let m = sample_module();
        let e = m.exports();
        assert!(e.contains("f"));
        assert!(e.contains("g"));
        assert!(!e.contains("helper"));
    }

    #[test]
    fn address_taken_iteration() {
        let m = sample_module();
        let at: Vec<_> = m.address_taken_functions().map(|(n, _)| n.clone()).collect();
        assert_eq!(at, ["f"]);
    }

    #[test]
    fn defines_function_requires_a_body() {
        let m = sample_module();
        assert!(m.defines_function("f"));
        assert!(!m.defines_function("helper")); // size 0: declaration only
        assert!(!m.defines_function("missing"));
    }

    #[test]
    fn serialization_round_trips() {
        let m = sample_module();
        let bytes = m.to_bytes().unwrap();
        let m2 = Module::from_bytes(&bytes).unwrap();
        assert_eq!(m.name, m2.name);
        assert_eq!(m.code, m2.code);
        assert_eq!(m.data, m2.data);
        assert_eq!(m.functions, m2.functions);
        assert_eq!(m.globals, m2.globals);
        assert_eq!(m.relocs, m2.relocs);
        assert_eq!(m.aux.indirect_branches, m2.aux.indirect_branches);
        assert_eq!(m.aux.return_sites, m2.aux.return_sites);
        assert_eq!(m.aux.imports, m2.aux.imports);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(Module::from_bytes(&[0xde, 0xad]).is_err());
    }
}
