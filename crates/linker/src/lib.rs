//! MCFI's linkers.
//!
//! * [`static_link`] merges separately compiled and instrumented modules
//!   into one module — code and data are concatenated, symbols resolved,
//!   Bary slots renumbered (and the `BaryLoad` immediates in the code
//!   patched accordingly), and the auxiliary information **unioned**
//!   (paper §6: "their auxiliary information is also merged into the
//!   combined module"). The paper's static linker also emits
//!   MCFI-instrumented PLT entries in lieu of the standard unsafe ones;
//!   here [`build_plt_stub`] produces those stubs and the runtime's
//!   dynamic linker installs them.
//! * PLT entries (paper §5.2/§6): a PLT stub loads its target from the
//!   GOT and performs a full check transaction. Because the GOT entry is
//!   adjusted by update transactions, the stub **reloads the target from
//!   the GOT when the transaction retries** — the subtle point the paper
//!   calls out for PLT instrumentation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use mcfi_machine::check::{self, Transfer};
use mcfi_machine::{encode_into, Inst, Reg};
use mcfi_module::{
    AuxInfo, BranchKind, CalleeKind, FunctionSym, GlobalSym, Import, IndirectBranchInfo,
    Module, Reloc, RelocKind,
};

/// A linking failure.
#[derive(Clone, Debug)]
pub enum LinkError {
    /// A non-static function is defined by two modules.
    DuplicateSymbol(String),
    /// Clashing type definitions.
    TypeClash(String),
    /// An import remained unresolved and `allow_unresolved` was false.
    Unresolved(String),
    /// A module carries metadata that does not fit its own images
    /// (offsets out of bounds or overflowing) — hostile or corrupt input.
    Malformed {
        /// The offending module's name.
        module: String,
        /// What is inconsistent.
        what: String,
    },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::DuplicateSymbol(s) => write!(f, "duplicate symbol `{s}`"),
            LinkError::TypeClash(s) => write!(f, "type clash: {s}"),
            LinkError::Unresolved(s) => write!(f, "unresolved symbol `{s}`"),
            LinkError::Malformed { module, what } => {
                write!(f, "malformed module `{module}`: {what}")
            }
        }
    }
}

impl std::error::Error for LinkError {}

/// Options for static linking.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkOptions {
    /// Leave unresolved imports in the output (they will be bound by the
    /// dynamic linker via PLT entries). When `false`, unresolved imports
    /// are an error.
    pub allow_unresolved: bool,
}

/// Statically links `modules` into a single module named `name`.
///
/// # Errors
///
/// Fails on duplicate exported symbols, clashing type definitions, or
/// (unless allowed) unresolved imports.
pub fn static_link(
    name: &str,
    modules: &[Module],
    opts: &LinkOptions,
) -> Result<Module, LinkError> {
    let mut out = Module::new(name);
    let mut slot_base: u32 = 0;
    let mut table_base: u32 = 0;

    // Pre-compute static-function renames to avoid collisions.
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut renames: Vec<HashMap<String, String>> = Vec::with_capacity(modules.len());
    for (mi, m) in modules.iter().enumerate() {
        let mut map = HashMap::new();
        for (fname, sym) in &m.functions {
            if sym.is_static && seen.contains(fname) {
                map.insert(fname.clone(), format!("{fname}.{mi}"));
            }
        }
        // String-pool globals are per-module and always renamed.
        for gname in m.globals.keys() {
            if gname.starts_with("__str") {
                map.insert(gname.clone(), format!("{gname}.{mi}"));
            } else if m.functions.contains_key(gname) {
                // impossible: functions and globals share no names in MiniC
            }
            if seen.contains(gname) && !gname.starts_with("__str") {
                return Err(LinkError::DuplicateSymbol(gname.clone()));
            }
        }
        for (fname, sym) in &m.functions {
            if sym.size > 0 {
                seen.insert(map.get(fname).cloned().unwrap_or_else(|| fname.clone()));
            }
        }
        for gname in m.globals.keys() {
            seen.insert(map.get(gname).cloned().unwrap_or_else(|| gname.clone()));
        }
        renames.push(map);
    }

    for (mi, m) in modules.iter().enumerate() {
        let rn = &renames[mi];
        let rename = |n: &str| -> String { rn.get(n).cloned().unwrap_or_else(|| n.to_string()) };
        let malformed = |what: String| LinkError::Malformed { module: m.name.clone(), what };
        let shift = |off: usize, base: usize, what: &str| {
            off.checked_add(base)
                .ok_or_else(|| malformed(format!("{what} offset {off} overflows")))
        };

        // --- code ---
        while !out.code.len().is_multiple_of(4) {
            out.code.push(0x22); // Nop keeps inter-module padding decodable
        }
        let code_off = out.code.len();
        out.code.extend_from_slice(&m.code);

        // --- data ---
        while !out.data.len().is_multiple_of(8) {
            out.data.push(0);
        }
        let data_off = out.data.len();
        out.data.extend_from_slice(&m.data);

        // --- env ---
        out.aux
            .env
            .merge(&m.aux.env)
            .map_err(|e| LinkError::TypeClash(e.to_string()))?;

        // --- functions ---
        for (fname, sym) in &m.functions {
            let new_name = rename(fname);
            if sym.size == 0 {
                continue; // declarations dissolve into the merged module
            }
            if let Some(prev) = out.functions.get(&new_name) {
                if prev.size > 0 {
                    return Err(LinkError::DuplicateSymbol(new_name));
                }
            }
            out.functions.insert(new_name, FunctionSym {
                offset: shift(sym.offset, code_off, "function")?,
                ..sym.clone()
            });
        }

        // --- globals ---
        for (gname, g) in &m.globals {
            let new_name = rename(gname);
            out.globals.insert(
                new_name,
                GlobalSym { offset: shift(g.offset, data_off, "global")?, size: g.size },
            );
        }

        // --- relocations ---
        for r in &m.relocs {
            out.relocs.push(Reloc {
                patch_at: shift(r.patch_at, code_off, "reloc")?,
                kind: shift_reloc(&r.kind, &rename, table_base, code_off as u64),
            });
        }
        for r in &m.data_relocs {
            out.data_relocs.push(Reloc {
                patch_at: shift(r.patch_at, data_off, "data reloc")?,
                kind: shift_reloc(&r.kind, &rename, table_base, code_off as u64),
            });
        }

        // --- aux: indirect branches (renumber slots, patch BaryLoads) ---
        for b in &m.aux.indirect_branches {
            let new_slot = b
                .local_slot
                .checked_add(slot_base)
                .ok_or_else(|| malformed(format!("Bary slot {} overflows", b.local_slot)))?;
            let check_offset = shift(b.check_offset, code_off, "check sequence")?;
            // Patch the BaryLoad immediate in the merged code image.
            out.code
                .get_mut(check::slot_bytes(check_offset))
                .ok_or_else(|| {
                    malformed(format!(
                        "check sequence at {} does not fit the code image",
                        b.check_offset
                    ))
                })?
                .copy_from_slice(&new_slot.to_le_bytes());
            out.aux.indirect_branches.push(IndirectBranchInfo {
                local_slot: new_slot,
                check_offset,
                branch_offset: shift(b.branch_offset, code_off, "indirect branch")?,
                in_function: rename(&b.in_function),
                kind: match &b.kind {
                    BranchKind::Return { function } => {
                        BranchKind::Return { function: rename(function) }
                    }
                    other => other.clone(),
                },
            });
        }
        slot_base = u32::try_from(m.aux.indirect_branches.len())
            .ok()
            .and_then(|n| slot_base.checked_add(n))
            .ok_or_else(|| malformed("Bary slot count overflows".into()))?;

        // --- aux: return sites, jump tables, tail calls ---
        for s in &m.aux.return_sites {
            out.aux.return_sites.push(mcfi_module::ReturnSiteInfo {
                offset: shift(s.offset, code_off, "return site")?,
                in_function: rename(&s.in_function),
                callee: match &s.callee {
                    CalleeKind::Direct(n) => CalleeKind::Direct(rename(n)),
                    other => other.clone(),
                },
            });
        }
        for t in &m.aux.jump_tables {
            out.aux.jump_tables.push(mcfi_module::JumpTableInfo {
                table_offset: shift(t.table_offset, code_off, "jump table")?,
                entries: t
                    .entries
                    .iter()
                    .map(|&e| shift(e, code_off, "jump table entry"))
                    .collect::<Result<_, _>>()?,
                function: rename(&t.function),
            });
        }
        table_base = u32::try_from(m.aux.jump_tables.len())
            .ok()
            .and_then(|n| table_base.checked_add(n))
            .ok_or_else(|| malformed("jump table count overflows".into()))?;
        for (from, to) in &m.aux.tail_calls {
            out.aux.tail_calls.push((rename(from), rename(to)));
        }
        for imp in &m.aux.imports {
            out.aux.imports.push(imp.clone());
        }
    }

    // Imports satisfied by merged definitions dissolve.
    let defined: BTreeSet<String> = out
        .functions
        .iter()
        .filter(|(_, f)| f.size > 0)
        .map(|(n, _)| n.clone())
        .collect();
    let mut remaining: Vec<Import> = Vec::new();
    let mut seen_imports = BTreeSet::new();
    for imp in std::mem::take(&mut out.aux.imports) {
        if !defined.contains(&imp.name) && seen_imports.insert(imp.name.clone()) {
            remaining.push(imp);
        }
    }
    if !opts.allow_unresolved {
        if let Some(imp) = remaining.first() {
            return Err(LinkError::Unresolved(imp.name.clone()));
        }
    }
    out.aux.imports = remaining;
    Ok(out)
}

fn shift_reloc(
    kind: &RelocKind,
    rename: &impl Fn(&str) -> String,
    table_base: u32,
    code_off: u64,
) -> RelocKind {
    match kind {
        RelocKind::FuncAbs(n) => RelocKind::FuncAbs(rename(n)),
        RelocKind::GlobalAbs(n) => RelocKind::GlobalAbs(rename(n)),
        RelocKind::CallRel(n) => RelocKind::CallRel(rename(n)),
        RelocKind::GotSlot(n) => RelocKind::GotSlot(rename(n)),
        // Saturating: a hostile index cannot panic here; an out-of-range
        // table index is caught when the relocation is applied.
        RelocKind::JumpTable(i) => RelocKind::JumpTable(i.saturating_add(table_base)),
        RelocKind::CodeAbs(o) => RelocKind::CodeAbs(o.saturating_add(code_off)),
    }
}

/// A synthesized, MCFI-instrumented PLT stub.
///
/// Offsets inside [`PltStub::branch`] are relative to the stub start.
#[derive(Clone, Debug)]
pub struct PltStub {
    /// Encoded stub code.
    pub code: Vec<u8>,
    /// The stub's instrumented indirect jump (kind `PltEntry`). Its
    /// `local_slot` is meaningless until the loader assigns one.
    pub branch: IndirectBranchInfo,
}

/// Builds the instrumented PLT entry for `symbol`, whose GOT slot lives at
/// absolute address `got_slot_addr`.
///
/// The stub reloads the target address from the GOT on every transaction
/// retry, because the GOT entry itself is adjusted by the same update
/// transaction that bumps the ID versions (§5.2).
pub fn build_plt_stub(symbol: &str, got_slot_addr: u64) -> PltStub {
    let mut code = Vec::new();
    encode_into(&Inst::MovImm { dst: Reg::Rbx, imm: got_slot_addr as i64 }, &mut code);
    // Reload point: the transaction retry loops back *here*, not to the
    // BaryLoad, so a GOT update is observed.
    let reload = code.len();
    encode_into(&Inst::Load { dst: Reg::Rcx, base: Reg::Rbx, offset: 0 }, &mut code);
    let check = check::emit(&mut code, 0, Transfer::Jump, Some(reload));
    PltStub {
        code,
        branch: IndirectBranchInfo {
            local_slot: 0,
            check_offset: check.start,
            branch_offset: check.branch,
            in_function: format!("__plt_{symbol}"),
            kind: BranchKind::PltEntry { symbol: symbol.to_string() },
        },
    }
}

/// Returns the merged auxiliary information of `modules` without linking
/// their code — used by the dynamic linker, which keeps modules separate
/// in memory but needs the combined view for CFG generation.
///
/// # Errors
///
/// Fails on clashing type definitions.
pub fn merge_aux(modules: &[&Module]) -> Result<AuxInfo, LinkError> {
    let mut aux = AuxInfo::default();
    for m in modules {
        aux.env
            .merge(&m.aux.env)
            .map_err(|e| LinkError::TypeClash(e.to_string()))?;
    }
    Ok(aux)
}

/// Builds the map from `(module index, local slot)` to global Bary slot for
/// dynamically linked modules (slots are assigned in load order).
pub fn global_slots(modules: &[&Module]) -> BTreeMap<(usize, u32), usize> {
    let mut map = BTreeMap::new();
    let mut next = 0usize;
    for (mi, m) in modules.iter().enumerate() {
        for b in &m.aux.indirect_branches {
            map.insert((mi, b.local_slot), next);
            next += 1;
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfi_codegen::{compile_source, CodegenOptions};
    use mcfi_machine::decode_all;

    fn build(name: &str, src: &str) -> Module {
        compile_source(name, src, &CodegenOptions::default()).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn links_two_modules_resolving_imports() {
        let lib = build("lib", "int twice(int x) { return x * 2; }");
        let main = build(
            "main",
            "int twice(int x);\nint main(void) { int r = twice(21); return r; }",
        );
        let linked = static_link("prog", &[lib, main], &LinkOptions::default()).unwrap();
        assert!(linked.defines_function("twice"));
        assert!(linked.defines_function("main"));
        assert!(linked.aux.imports.is_empty());
    }

    #[test]
    fn unresolved_import_is_an_error_by_default() {
        let main = build("main", "int missing(int x);\nint main(void) { int r = missing(1); return r; }");
        let err = static_link("prog", std::slice::from_ref(&main), &LinkOptions::default()).unwrap_err();
        assert!(matches!(err, LinkError::Unresolved(n) if n == "missing"));
        let ok = static_link("prog", &[main], &LinkOptions { allow_unresolved: true }).unwrap();
        assert_eq!(ok.aux.imports.len(), 1);
    }

    #[test]
    fn duplicate_exports_are_rejected() {
        let a = build("a", "int f(void) { return 1; }");
        let b = build("b", "int f(void) { return 2; }");
        assert!(matches!(
            static_link("prog", &[a, b], &LinkOptions::default()),
            Err(LinkError::DuplicateSymbol(n)) if n == "f"
        ));
    }

    #[test]
    fn static_functions_do_not_collide() {
        let a = build("a", "static int helper(void) { return 1; }\nint fa(void) { int r = helper(); return r; }");
        let b = build("b", "static int helper(void) { return 2; }\nint fb(void) { int r = helper(); return r; }");
        let linked = static_link("prog", &[a, b], &LinkOptions::default()).unwrap();
        // Both helpers survive under distinct names.
        let helpers: Vec<_> = linked
            .functions
            .keys()
            .filter(|n| n.starts_with("helper"))
            .collect();
        assert_eq!(helpers.len(), 2);
    }

    #[test]
    fn bary_slots_are_renumbered_and_patched_in_code() {
        let a = build("a", "int fa(void) { return 1; }"); // 1 return branch
        let b = build("b", "int fb(void) { return 2; }"); // 1 return branch
        let linked = static_link("prog", &[a, b], &LinkOptions::default()).unwrap();
        assert_eq!(linked.aux.indirect_branches.len(), 2);
        for (i, br) in linked.aux.indirect_branches.iter().enumerate() {
            assert_eq!(br.local_slot as usize, i);
            // The BaryLoad instruction in the merged image carries the slot.
            let (inst, _) = mcfi_machine::decode(&linked.code, br.check_offset).unwrap();
            assert!(
                matches!(inst, Inst::BaryLoad { slot, .. } if slot == br.local_slot),
                "patched BaryLoad at {}: {inst}",
                br.check_offset
            );
        }
    }

    #[test]
    fn function_offsets_shift_with_module_placement() {
        let a = build("a", "int fa(void) { return 1; }");
        let b = build("b", "int fb(void) { return 2; }");
        let a_len = a.code.len();
        let linked = static_link("prog", &[a, b], &LinkOptions::default()).unwrap();
        assert!(linked.functions["fb"].offset >= a_len);
        assert_eq!(linked.functions["fb"].offset % 4, 0);
    }

    #[test]
    fn string_pools_are_kept_separate() {
        let a = build("a", "char* fa(void) { return \"alpha\"; }");
        let b = build("b", "char* fb(void) { return \"beta\"; }");
        let linked = static_link("prog", &[a, b], &LinkOptions::default()).unwrap();
        let strs: Vec<_> = linked.globals.keys().filter(|n| n.starts_with("__str")).collect();
        assert_eq!(strs.len(), 2);
    }

    #[test]
    fn merged_code_is_decodable() {
        let a = build("a", "int fa(int x) { return x + 1; }");
        let b = build(
            "b",
            "int fa(int x);\nint main(void) { int r = fa(4); return r; }",
        );
        let linked = static_link("prog", &[a, b], &LinkOptions::default()).unwrap();
        let end = linked
            .aux
            .jump_tables
            .iter()
            .map(|t| t.table_offset)
            .min()
            .unwrap_or(linked.code.len());
        decode_all(&linked.code[..end]).expect("merged code disassembles");
    }

    #[test]
    fn plt_stub_decodes_and_reloads_on_retry() {
        let stub = build_plt_stub("qsort", 0x40_1000);
        let insts = decode_all(&stub.code).unwrap();
        // First instruction: the GOT slot address.
        assert!(matches!(
            insts[0].1,
            Inst::MovImm { dst: Reg::Rbx, imm } if imm == 0x40_1000
        ));
        // The retry jump targets the GOT reload, not the BaryLoad.
        let fetch = |at| mcfi_machine::decode(&stub.code, at).ok();
        let check = check::recognize(fetch, stub.branch.check_offset).unwrap();
        assert_eq!(check.branch, stub.branch.branch_offset);
        let slow = check.slow_path(fetch).unwrap();
        assert_eq!(slow.retry, insts[1].0, "retry must reload from the GOT");
        assert!(matches!(stub.branch.kind, BranchKind::PltEntry { ref symbol } if symbol == "qsort"));
    }

    #[test]
    fn global_slot_assignment_is_load_ordered() {
        let a = build("a", "int fa(void) { return 1; }");
        let b = build("b", "int fb(void) { return 2; }");
        let map = global_slots(&[&a, &b]);
        assert_eq!(map[&(0, 0)], 0);
        assert_eq!(map[&(1, 0)], 1);
    }
}
