//! The C1/C2 condition analyzer (paper §6, Tables 1 and 2).
//!
//! MCFI's type-matching CFG generation is sound for C programs that
//! satisfy two conditions:
//!
//! * **C1** — no type cast to or from function-pointer types (including
//!   implicit casts, and casts of structs/unions *containing* function
//!   pointers);
//! * **C2** — no inline assembly (unless annotated with types).
//!
//! The paper's analyzer, built on Clang's StaticChecker, over-approximates
//! violations and then eliminates five patterns of false positives:
//!
//! | code | pattern |
//! |------|---------|
//! | UC   | upcast to a physical supertype (C's inheritance emulation)   |
//! | DC   | downcast guarded by a declared type-tag association          |
//! | MF   | casts at `malloc`/`free` call sites                          |
//! | SU   | function pointers updated with literals (e.g. `NULL`)        |
//! | NF   | cast result used only through non-function-pointer fields    |
//!
//! Violations remaining After Elimination (VAE) fall into two kinds:
//!
//! * **K1** — a function pointer initialized with the address of a
//!   function of incompatible type (may need a source fix: a wrapper
//!   function or a type adjustment);
//! * **K2** — a function pointer cast to another type and cast back
//!   later, or a downcast without a dynamic tag check (no fix needed).
//!
//! This crate reimplements that classification over MiniC's recorded
//! casts. [`analyze`] regenerates the per-benchmark rows of Tables 1/2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use mcfi_minic::ast::Span;
use mcfi_minic::types::{Type, TypeEnv};
use mcfi_minic::{CastContext, CastRecord, TypedProgram};

/// Final classification of one C1-violation candidate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Classification {
    /// Upcast false positive.
    Uc,
    /// Safe (tag-checked) downcast false positive.
    Dc,
    /// Malloc/free false positive.
    Mf,
    /// Safe update (literal) false positive.
    Su,
    /// Non-function-pointer access false positive.
    Nf,
    /// Residual kind K1: incompatible function address into a pointer.
    K1 {
        /// Whether the case requires a source fix (the pointer's type is
        /// actually invoked somewhere; dead pointers need no patch).
        needs_fix: bool,
    },
    /// Residual kind K2: round-trip casts / untagged downcasts.
    K2,
}

impl fmt::Display for Classification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Classification::Uc => write!(f, "UC"),
            Classification::Dc => write!(f, "DC"),
            Classification::Mf => write!(f, "MF"),
            Classification::Su => write!(f, "SU"),
            Classification::Nf => write!(f, "NF"),
            Classification::K1 { needs_fix: true } => write!(f, "K1 (needs fix)"),
            Classification::K1 { needs_fix: false } => write!(f, "K1 (dead)"),
            Classification::K2 => write!(f, "K2"),
        }
    }
}

/// One classified violation candidate.
#[derive(Clone, Debug)]
pub struct ClassifiedCast {
    /// Location in the source.
    pub span: Span,
    /// Enclosing function.
    pub in_function: String,
    /// Source type of the cast.
    pub from: Type,
    /// Destination type.
    pub to: Type,
    /// The verdict.
    pub classification: Classification,
}

/// The per-module analysis report: one row of Tables 1 and 2.
#[derive(Clone, Debug, Default)]
pub struct AnalysisReport {
    /// Source lines of code (non-blank, non-comment).
    pub sloc: usize,
    /// Violations Before false-positive Elimination.
    pub vbe: usize,
    /// Upcast eliminations.
    pub uc: usize,
    /// Safe-downcast eliminations.
    pub dc: usize,
    /// Malloc/free eliminations.
    pub mf: usize,
    /// Safe-update eliminations.
    pub su: usize,
    /// Non-fp-access eliminations.
    pub nf: usize,
    /// Violations After Elimination.
    pub vae: usize,
    /// K1 cases among VAE.
    pub k1: usize,
    /// K1 cases that require a source fix.
    pub k1_fixed: usize,
    /// K2 cases among VAE.
    pub k2: usize,
    /// C2 violations: inline assembly without type annotations.
    pub c2: usize,
    /// Per-cast details.
    pub details: Vec<ClassifiedCast>,
}

impl AnalysisReport {
    /// Renders the Table 1 row: `SLOC VBE UC DC MF SU NF VAE`.
    pub fn table1_row(&self) -> String {
        format!(
            "{:>8} {:>5} {:>4} {:>4} {:>4} {:>4} {:>4} {:>5}",
            self.sloc, self.vbe, self.uc, self.dc, self.mf, self.su, self.nf, self.vae
        )
    }

    /// Renders the Table 2 row: `K1 K2 K1-fixed`.
    pub fn table2_row(&self) -> String {
        format!("{:>4} {:>4} {:>8}", self.k1, self.k2, self.k1_fixed)
    }
}

/// Counts non-blank, non-comment source lines.
pub fn count_sloc(src: &str) -> usize {
    let mut in_block = false;
    src.lines()
        .filter(|line| {
            let mut t = line.trim();
            if in_block {
                if let Some(end) = t.find("*/") {
                    in_block = false;
                    t = t[end + 2..].trim();
                } else {
                    return false;
                }
            }
            if let Some(start) = t.find("/*") {
                if !t[start..].contains("*/") {
                    in_block = true;
                }
                t = t[..start].trim();
            }
            if let Some(slash) = t.find("//") {
                t = t[..slash].trim();
            }
            !t.is_empty()
        })
        .count()
}

/// Runs the C1/C2 analysis over a checked module.
///
/// Pass the original source text to populate the SLOC column; an empty
/// string leaves it zero.
pub fn analyze(tp: &TypedProgram, src: &str) -> AnalysisReport {
    let mut report = AnalysisReport { sloc: count_sloc(src), ..Default::default() };
    report.vbe = tp.casts.len();
    report.c2 = tp.asm_functions.iter().filter(|(_, annotated)| !annotated).count();

    for cast in &tp.casts {
        let classification = classify(tp, cast);
        match classification {
            Classification::Uc => report.uc += 1,
            Classification::Dc => report.dc += 1,
            Classification::Mf => report.mf += 1,
            Classification::Su => report.su += 1,
            Classification::Nf => report.nf += 1,
            Classification::K1 { needs_fix } => {
                report.k1 += 1;
                if needs_fix {
                    report.k1_fixed += 1;
                }
            }
            Classification::K2 => report.k2 += 1,
        }
        report.details.push(ClassifiedCast {
            span: cast.span,
            in_function: cast.in_function.clone(),
            from: cast.from.clone(),
            to: cast.to.clone(),
            classification,
        });
    }
    report.vae = report.k1 + report.k2;
    report
}

fn classify(tp: &TypedProgram, cast: &CastRecord) -> Classification {
    let env = &tp.env;
    match cast.context {
        CastContext::MallocResult | CastContext::FreeArg => return Classification::Mf,
        CastContext::LiteralSource => return Classification::Su,
        CastContext::NonFpFieldAccess => return Classification::Nf,
        CastContext::FnAddrToFnPtr { compatible } => {
            if compatible {
                // A round-trip through a compatible pointer is harmless but
                // still a recorded cast; treat as K2 (no fix needed).
                return Classification::K2;
            }
            return Classification::K1 { needs_fix: k1_needs_fix(tp, cast) };
        }
        CastContext::Plain => {}
    }

    // Struct-pointer casts: upcast / tagged downcast / untagged downcast.
    if let (Some(from_tag), Some(to_tag)) =
        (struct_ptr_tag(env, &cast.from), struct_ptr_tag(env, &cast.to))
    {
        if env.physical_subtype(&from_tag, &to_tag) {
            // concrete -> abstract prefix: upcast.
            return Classification::Uc;
        }
        if env.physical_subtype(&to_tag, &from_tag) {
            // abstract -> concrete: downcast. Safe if a tag association is
            // declared between the abstract struct and this concrete one.
            let tagged = tp
                .tag_assocs
                .iter()
                .any(|(abs, _, conc)| *abs == from_tag && *conc == to_tag);
            return if tagged { Classification::Dc } else { Classification::K2 };
        }
    }

    // A function pointer flowing from a named function into an incompatible
    // pointer type without the FnAddrToFnPtr context (e.g. explicit cast of
    // `f` to a different fn-ptr type) is still K1-shaped.
    if cast.src_function.is_some() && cast.to.is_func_ptr() {
        let compatible = match (cast.from.func_sig(), cast.to.func_sig()) {
            (Some(a), Some(b)) => {
                env.structurally_equal(&Type::Func(a.clone()), &Type::Func(b.clone()))
            }
            _ => false,
        };
        if !compatible {
            return Classification::K1 { needs_fix: k1_needs_fix(tp, cast) };
        }
        return Classification::K2;
    }

    // Everything else — fn-ptr ↔ void* round trips, opaque stores — is K2.
    Classification::K2
}

/// A K1 case needs a source fix when the destination pointer type is
/// actually invoked somewhere in the module: the generated CFG would then
/// miss the edge to the incompatibly-typed function. If no indirect call
/// uses that signature the pointer is dead code (the paper's 14 unpatched
/// gcc cases) and no change is needed.
fn k1_needs_fix(tp: &TypedProgram, cast: &CastRecord) -> bool {
    let Some(ptr_sig) = cast.to.func_sig() else { return true };
    tp.indirect_calls.iter().any(|ic| {
        tp.env
            .structurally_equal(&Type::Func(ic.sig.clone()), &Type::Func(ptr_sig.clone()))
    })
}

fn struct_ptr_tag(env: &TypeEnv, ty: &Type) -> Option<String> {
    match env.resolve(ty) {
        Type::Ptr(inner) => match env.resolve(inner) {
            Type::Struct(tag) => Some(tag.clone()),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfi_minic::parse_and_check;

    fn report(src: &str) -> AnalysisReport {
        let tp = parse_and_check(src).unwrap_or_else(|e| panic!("{e}"));
        analyze(&tp, src)
    }

    const OPS: &str = "struct ops { int tag; void (*run)(int); };\n";

    #[test]
    fn clean_module_reports_nothing() {
        let r = report("int f(int x) { return x * 2; }");
        assert_eq!(r.vbe, 0);
        assert_eq!(r.vae, 0);
        assert_eq!(r.c2, 0);
    }

    #[test]
    fn malloc_and_free_are_mf() {
        let src = format!(
            "{OPS}void* malloc(int n);\nvoid free(void* p);\n\
             void g(void) {{ struct ops* o = (struct ops*)malloc(16); free((void*)o); }}"
        );
        let r = report(&src);
        assert_eq!(r.mf, 2, "details: {:?}", r.details);
        assert_eq!(r.vae, 0);
    }

    #[test]
    fn null_update_is_su() {
        let r = report("void g(void) { void (*p)(int); p = 0; }");
        assert_eq!(r.su, 1);
        assert_eq!(r.vae, 0);
    }

    #[test]
    fn upcast_is_uc() {
        let src = "struct base { int tag; void (*v)(int); };\n\
                   struct derived2 { int tag; void (*v)(int); float extra; };\n\
                   void takes_base(struct base* b);\n\
                   void g(struct derived2* d) { takes_base((struct base*)d); }";
        let r = report(src);
        assert_eq!(r.uc, 1, "details: {:?}", r.details);
        assert_eq!(r.vae, 0);
    }

    #[test]
    fn tagged_downcast_is_dc_untagged_is_k2() {
        let base = "struct base { int tag; void (*v)(int); };\n\
                    struct derived2 { int tag; void (*v)(int); float extra; };\n";
        let tagged = format!(
            "{base}__tag_assoc(base, 1, derived2);\n\
             void g(struct base* b) {{ struct derived2* d = (struct derived2*)b; }}"
        );
        let r = report(&tagged);
        assert_eq!(r.dc, 1, "details: {:?}", r.details);
        assert_eq!(r.vae, 0);

        let untagged = format!(
            "{base}void g(struct base* b) {{ struct derived2* d = (struct derived2*)b; }}"
        );
        let r = report(&untagged);
        assert_eq!(r.dc, 0);
        assert_eq!(r.k2, 1);
        assert_eq!(r.vae, 1);
    }

    #[test]
    fn nf_access_is_eliminated() {
        let src = "struct xpvlv { int xlv_targlen; void (*hook)(int); };\n\
                   struct sv { void* sv_any; };\n\
                   int g(struct sv* sv) { return ((struct xpvlv*)(sv->sv_any))->xlv_targlen; }";
        let r = report(src);
        assert_eq!(r.nf, 1);
        assert_eq!(r.vae, 0);
    }

    #[test]
    fn incompatible_fn_address_used_is_k1_needing_fix() {
        // The paper's gcc splay-tree strcmp case: incompatible init AND the
        // pointer signature is invoked, so a wrapper is required.
        let src = "int strcmp(char* a, char* b);\n\
                   int g(int a, int b) {\n\
                     int (*cmp)(int, int);\n\
                     cmp = (int(*)(int, int))strcmp;\n\
                     return cmp(a, b);\n\
                   }";
        let r = report(src);
        assert_eq!(r.k1, 1, "details: {:?}", r.details);
        assert_eq!(r.k1_fixed, 1);
        assert_eq!(r.vae, 1);
    }

    #[test]
    fn incompatible_fn_address_dead_is_k1_without_fix() {
        let src = "int strcmp(char* a, char* b);\n\
                   void g(void) {\n\
                     int (*cmp)(int, int);\n\
                     cmp = (int(*)(int, int))strcmp;\n\
                   }";
        let r = report(src);
        assert_eq!(r.k1, 1);
        assert_eq!(r.k1_fixed, 0);
    }

    #[test]
    fn round_trip_through_void_ptr_is_k2() {
        // The perlbench pattern: fn ptr stored in void*, cast back later.
        let src = "int h(int x) { return x; }\n\
                   int g(void) {\n\
                     void* slot;\n\
                     int (*p)(int);\n\
                     slot = (void*)&h;\n\
                     p = (int(*)(int))slot;\n\
                     return p(1);\n\
                   }";
        let r = report(src);
        assert_eq!(r.k1, 0, "details: {:?}", r.details);
        assert!(r.k2 >= 1);
        assert_eq!(r.uc + r.dc + r.mf + r.su + r.nf, 0);
    }

    #[test]
    fn unannotated_asm_is_c2() {
        let r = report("void* cpy(void* d) __asm__(\"rep movsb\");");
        assert_eq!(r.c2, 1);
        let r = report("__annotated void* cpy(void* d) __asm__(\"rep movsb\");");
        assert_eq!(r.c2, 0);
    }

    #[test]
    fn vae_equals_vbe_minus_eliminations() {
        let src = "struct ops { int tag; void (*run)(int); };\n\
                   void* malloc(int n);\n\
                   int strcmp(char* a, char* b);\n\
                   void g(void) {\n\
                     struct ops* o = (struct ops*)malloc(16);\n\
                     o->run = 0;\n\
                     int (*cmp)(int, int);\n\
                     cmp = (int(*)(int, int))strcmp;\n\
                   }";
        let r = report(src);
        assert_eq!(r.vbe, r.uc + r.dc + r.mf + r.su + r.nf + r.vae);
        assert_eq!(r.vae, r.k1 + r.k2);
    }

    #[test]
    fn union_with_function_pointer_field_is_a_c1_candidate() {
        // C1 "includes implicit type casts involving function pointers,
        // for example, when a union type includes a function pointer
        // field" (paper §6).
        let src = "union carrier { int tag; void (*h)(int); };\n\
                   void g(union carrier* c) { void* p = (void*)c; union carrier* back = (union carrier*)p; }";
        let r = report(src);
        assert!(r.vbe >= 2, "both casts involve the fp-carrying union: {:?}", r.details);
    }

    #[test]
    fn incompatible_struct_to_struct_cast_is_not_an_upcast() {
        // Casting between structs whose fn-ptr fields have *incompatible*
        // types is not a UC/DC false positive: it stays in VAE.
        let src = "struct s1 { int tag; void (*h)(int); };\n\
                   struct s2 { int tag; int (*h)(char*); };\n\
                   void g(struct s1* a) { struct s2* b = (struct s2*)a; b->tag = 1; }";
        let r = report(src);
        assert_eq!(r.uc + r.dc, 0, "{:?}", r.details);
        assert_eq!(r.vae, 1);
    }

    #[test]
    fn sloc_ignores_comments_and_blanks() {
        let src = "int f(void) { return 1; }\n\n// comment\n/* block\n   comment */\nint g(void) { return 2; }\n";
        assert_eq!(count_sloc(src), 2);
    }

    #[test]
    fn table_rows_render() {
        let r = report("void g(void) { void (*p)(int); p = 0; }");
        assert!(r.table1_row().contains(" 1"));
        assert!(!r.table2_row().is_empty());
    }
}
