//! Admission of untrusted module images.
//!
//! A guest hands `dlopen` arbitrary bytes; everything the runtime does
//! with them afterwards — linking, verification, table generation —
//! assumes the [`Module`] invariants hold (offsets inside the code/data
//! images, branch metadata pointing at real check sequences, a coherent
//! type environment). [`Module::decode_image`]
//! re-establishes those invariants at the trust boundary: it decodes
//! under a [`DecodeLimits`] budget and then structurally validates every
//! offset the loader or verifier will later trust, so downstream code can
//! index without panicking.

use std::fmt;

use mcfi_machine::check;
use mcfi_minic::types::{Type, TypeEnv};

use crate::wire::{self, DecodeLimits, WireError, WireErrorKind};
use crate::{Module, Reloc, RelocKind};

/// Why an untrusted module image was refused admission.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AdmissionError {
    /// The image is structurally invalid: undecodable bytes, or decoded
    /// metadata whose offsets do not fit the code/data images. `offset`
    /// is the byte offset of the failure (within the wire image for
    /// decode errors, within the referenced section for structural ones).
    Malformed {
        /// Byte offset of the failure.
        offset: usize,
        /// Human-readable description of what is wrong.
        what: String,
    },
    /// A [`DecodeLimits`] budget axis was exceeded.
    LimitExceeded {
        /// Which axis: `"input-bytes"`, `"length"`, `"depth"` or `"alloc"`.
        which: &'static str,
        /// The configured limit.
        limit: u64,
        /// The offending value.
        actual: u64,
    },
    /// The module's type environment is internally inconsistent (e.g. a
    /// typedef cycle) and cannot be merged into a process.
    TypeEnvInconsistent {
        /// What is inconsistent.
        what: String,
    },
    /// The module decoded and validated but the CFI verifier refused it.
    VerifierReject {
        /// The verifier's first reported violation.
        reason: String,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::Malformed { offset, what } => {
                write!(f, "malformed module image at offset {offset}: {what}")
            }
            AdmissionError::LimitExceeded { which, limit, actual } => {
                write!(f, "module image exceeds {which} limit: {actual} > {limit}")
            }
            AdmissionError::TypeEnvInconsistent { what } => {
                write!(f, "inconsistent type environment: {what}")
            }
            AdmissionError::VerifierReject { reason } => {
                write!(f, "verifier rejected module: {reason}")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

impl From<WireError> for AdmissionError {
    fn from(e: WireError) -> Self {
        match *e.kind() {
            WireErrorKind::LimitExceeded { which, limit, actual } => {
                AdmissionError::LimitExceeded { which, limit, actual }
            }
            WireErrorKind::Malformed => AdmissionError::Malformed {
                offset: e.offset().unwrap_or(0),
                what: if e.context().is_empty() {
                    e.message().to_string()
                } else {
                    format!("{} (while decoding {})", e.message(), e.context())
                },
            },
        }
    }
}

fn malformed(offset: usize, what: impl Into<String>) -> AdmissionError {
    AdmissionError::Malformed { offset, what: what.into() }
}

/// Checks `offset + width <= size`, overflow-safe.
fn check_span(
    offset: usize,
    width: usize,
    size: usize,
    section: &str,
    what: &str,
) -> Result<(), AdmissionError> {
    match offset.checked_add(width) {
        Some(end) if end <= size => Ok(()),
        _ => Err(malformed(
            offset,
            format!("{what} spans [{offset}, {offset}+{width}) beyond {section} size {size}"),
        )),
    }
}

fn check_relocs(relocs: &[Reloc], size: usize, section: &str) -> Result<(), AdmissionError> {
    for (i, r) in relocs.iter().enumerate() {
        check_span(r.patch_at, r.kind.width(), size, section, &format!("reloc #{i}"))?;
    }
    Ok(())
}

/// Walks a type checking that every `Named` reference resolves to a
/// non-`Named` head (no typedef cycles) within the environment's fuel.
fn check_type(env: &TypeEnv, ty: &Type, what: &str) -> Result<(), AdmissionError> {
    match ty {
        Type::Named(n) => {
            if env.typedef(n).is_some() && matches!(env.resolve(ty), Type::Named(_)) {
                return Err(AdmissionError::TypeEnvInconsistent {
                    what: format!("typedef `{n}` (in {what}) does not resolve to a concrete type"),
                });
            }
            Ok(())
        }
        Type::Ptr(inner) | Type::Array(inner, _) => check_type(env, inner, what),
        Type::Func(sig) => {
            check_type(env, &sig.ret, what)?;
            for p in &sig.params {
                check_type(env, p, what)?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

impl Module {
    /// Structurally validates a decoded module: every offset the loader,
    /// linker or verifier will later trust must fit the image it points
    /// into, branch metadata must be indexable, and the type environment
    /// must be internally consistent.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Malformed`] naming the first inconsistent field,
    /// or [`AdmissionError::TypeEnvInconsistent`] for typedef cycles.
    pub fn validate(&self) -> Result<(), AdmissionError> {
        let code = self.code.len();
        let data = self.data.len();

        for (name, f) in &self.functions {
            // Declarations (size 0) carry no trusted offset.
            if f.size > 0 {
                check_span(f.offset, f.size, code, "code", &format!("function `{name}`"))?;
            }
        }
        for (name, g) in &self.globals {
            check_span(g.offset, g.size, data, "data", &format!("global `{name}`"))?;
        }
        check_relocs(&self.relocs, code, "code")?;
        check_relocs(&self.data_relocs, data, "data")?;
        // Data holds only the addresses codegen stores in initializers;
        // the loader has no meaning for a code-only kind there.
        for (i, r) in self.data_relocs.iter().enumerate() {
            if !matches!(r.kind, RelocKind::FuncAbs(_) | RelocKind::GlobalAbs(_)) {
                return Err(malformed(
                    r.patch_at,
                    format!("data reloc #{i} has kind {:?}, which only code may carry", r.kind),
                ));
            }
        }

        for (i, b) in self.aux.indirect_branches.iter().enumerate() {
            if b.local_slot as usize != i {
                return Err(malformed(
                    b.check_offset,
                    format!("indirect branch #{i} carries local slot {}", b.local_slot),
                ));
            }
            // The loader patches the slot immediate, so it must be in
            // bounds.
            let imm = check::slot_bytes(b.check_offset);
            check_span(imm.start, imm.len(), code, "code", &format!("check sequence #{i}"))?;
            if b.branch_offset >= code {
                return Err(malformed(
                    b.branch_offset,
                    format!("indirect branch #{i} is outside the code image (size {code})"),
                ));
            }
        }
        for (i, r) in self.aux.return_sites.iter().enumerate() {
            if r.offset > code {
                return Err(malformed(
                    r.offset,
                    format!("return site #{i} is outside the code image (size {code})"),
                ));
            }
        }
        for (i, t) in self.aux.jump_tables.iter().enumerate() {
            let span = t
                .entries
                .len()
                .checked_mul(8)
                .ok_or_else(|| malformed(t.table_offset, format!("jump table #{i} overflows")))?;
            check_span(t.table_offset, span, code, "code", &format!("jump table #{i}"))?;
            for (j, &e) in t.entries.iter().enumerate() {
                if e >= code {
                    return Err(malformed(
                        e,
                        format!(
                            "jump table #{i} entry #{j} is outside the code image (size {code})"
                        ),
                    ));
                }
            }
        }

        let env = &self.aux.env;
        for (name, f) in &self.functions {
            check_type(env, &Type::Func(f.sig.clone()), &format!("function `{name}`"))?;
        }
        for imp in &self.aux.imports {
            check_type(env, &Type::Func(imp.sig.clone()), &format!("import `{}`", imp.name))?;
        }
        for c in env.composites() {
            for field in &c.fields {
                check_type(env, &field.ty, &format!("composite `{}`", c.name))?;
            }
        }

        Ok(())
    }

    /// Decodes and validates an **untrusted** module image.
    ///
    /// This is the trust-boundary entry point used by the runtime's
    /// `dlopen` path: it decodes under `limits` (never panicking, never
    /// allocating beyond the budget) and then runs [`Module::validate`].
    ///
    /// # Errors
    ///
    /// Any [`AdmissionError`]; the caller is expected to fail the load
    /// and quarantine the image's source.
    pub fn decode_image(bytes: &[u8], limits: &DecodeLimits) -> Result<Self, AdmissionError> {
        let module: Module = wire::from_bytes_limited(bytes, limits)?;
        module.validate()?;
        Ok(module)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FunctionSym, GlobalSym, IndirectBranchInfo, JumpTableInfo, RelocKind};
    use mcfi_minic::types::FuncType;

    fn int_sig() -> FuncType {
        FuncType { params: vec![], ret: Box::new(Type::Int), variadic: false }
    }

    fn valid_module() -> Module {
        let mut m = Module::new("lib");
        m.code = vec![0x22; 64];
        m.data = vec![0; 32];
        m.functions.insert(
            "f".into(),
            FunctionSym {
                offset: 0,
                size: 16,
                sig: int_sig(),
                is_static: false,
                address_taken: true,
            },
        );
        m.globals.insert("g".into(), GlobalSym { offset: 8, size: 8 });
        m.aux.indirect_branches.push(IndirectBranchInfo {
            local_slot: 0,
            check_offset: 4,
            branch_offset: 12,
            in_function: "f".into(),
            kind: crate::BranchKind::Return { function: "f".into() },
        });
        m.aux.jump_tables.push(JumpTableInfo {
            table_offset: 32,
            entries: vec![0, 4],
            function: "f".into(),
        });
        m
    }

    #[test]
    fn valid_module_is_admitted() {
        let m = valid_module();
        m.validate().unwrap();
        let bytes = m.to_bytes().unwrap();
        Module::decode_image(&bytes, &DecodeLimits::admission()).unwrap();
    }

    #[test]
    fn function_beyond_code_is_rejected() {
        let mut m = valid_module();
        m.functions.get_mut("f").unwrap().size = 65;
        assert!(matches!(m.validate(), Err(AdmissionError::Malformed { .. })));
    }

    #[test]
    fn function_offset_overflow_is_rejected() {
        let mut m = valid_module();
        m.functions.get_mut("f").unwrap().offset = usize::MAX;
        assert!(matches!(m.validate(), Err(AdmissionError::Malformed { .. })));
    }

    #[test]
    fn global_beyond_data_is_rejected() {
        let mut m = valid_module();
        m.globals.get_mut("g").unwrap().offset = 31;
        assert!(matches!(m.validate(), Err(AdmissionError::Malformed { .. })));
    }

    #[test]
    fn reloc_beyond_code_is_rejected() {
        let mut m = valid_module();
        m.relocs.push(Reloc { patch_at: 60, kind: RelocKind::FuncAbs("f".into()) });
        assert!(matches!(m.validate(), Err(AdmissionError::Malformed { .. })));
    }

    #[test]
    fn only_address_relocs_may_patch_data() {
        let mut m = valid_module();
        for kind in [RelocKind::FuncAbs("f".into()), RelocKind::GlobalAbs("g".into())] {
            m.data_relocs = vec![Reloc { patch_at: 8, kind }];
            m.validate().unwrap();
        }
        for kind in [
            RelocKind::CallRel("f".into()),
            RelocKind::JumpTable(0),
            RelocKind::GotSlot("f".into()),
            RelocKind::CodeAbs(4),
        ] {
            let name = format!("{kind:?}");
            m.data_relocs = vec![Reloc { patch_at: 8, kind }];
            match m.validate() {
                Err(AdmissionError::Malformed { offset: 8, what }) => {
                    assert!(what.contains("data reloc #0") && what.contains(&name), "{what}");
                }
                other => panic!("{name} in data: {other:?}"),
            }
        }
    }

    #[test]
    fn check_sequence_beyond_code_is_rejected() {
        let mut m = valid_module();
        m.aux.indirect_branches[0].check_offset = 59;
        assert!(matches!(m.validate(), Err(AdmissionError::Malformed { .. })));
    }

    #[test]
    fn branch_slot_mismatch_is_rejected() {
        let mut m = valid_module();
        m.aux.indirect_branches[0].local_slot = 7;
        assert!(matches!(m.validate(), Err(AdmissionError::Malformed { .. })));
    }

    #[test]
    fn jump_table_escape_is_rejected() {
        let mut m = valid_module();
        m.aux.jump_tables[0].entries.push(64);
        assert!(matches!(m.validate(), Err(AdmissionError::Malformed { .. })));
    }

    #[test]
    fn typedef_cycle_is_rejected() {
        let mut m = valid_module();
        m.aux.env.add_typedef("a", Type::Named("b".into())).unwrap();
        m.aux.env.add_typedef("b", Type::Named("a".into())).unwrap();
        *m.functions.get_mut("f").unwrap().sig.ret = Type::Named("a".into());
        assert!(matches!(m.validate(), Err(AdmissionError::TypeEnvInconsistent { .. })));
    }

    #[test]
    fn decode_errors_map_to_admission_errors() {
        let err = Module::decode_image(&[0xde, 0xad], &DecodeLimits::admission()).unwrap_err();
        assert!(matches!(err, AdmissionError::Malformed { .. }), "{err}");

        let huge = vec![0u8; (16 << 20) + 1];
        let err = Module::decode_image(&huge, &DecodeLimits::admission()).unwrap_err();
        assert!(
            matches!(err, AdmissionError::LimitExceeded { which: "input-bytes", .. }),
            "{err}"
        );
    }
}
