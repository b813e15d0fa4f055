//! Baseline CFI policies the paper compares against (§3, §8.2, §8.3).
//!
//! MCFI's evaluation contrasts its type-matched, fine-grained CFGs with:
//!
//! * **classic CFI** (Abadi et al.): fine-grained return edges from the
//!   call graph, but "for implementation convenience its CFG generation
//!   also allows all indirect calls to target any function whose address
//!   is taken" — one equivalence class for all function entries;
//! * **coarse-grained CFI** (CCFIR / binCFI): two-ish classes — any
//!   indirect call may reach any address-taken function, and any return
//!   may reach any instruction following a call;
//! * **chunk-based CFI** (PittSFIeld / NaCl / MIP): indirect branches may
//!   target any chunk-aligned code address;
//! * **no CFI**: every code byte is a possible target.
//!
//! All policies are expressed as per-branch target sets over the same
//! loaded modules. The table-enforced ones (MCFI, classic, coarse) are
//! merged into equivalence classes by the same routine as MCFI's,
//! [`ControlFlowPolicy::from_branches`], and measured by the same
//! per-branch class size, so Table 3-style statistics and the AIR metric
//! (§8.3) are directly comparable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};

use mcfi_cfggen::{generate, BranchPolicy, CfgStats, ControlFlowPolicy, Placed};
use mcfi_module::{BranchKind, CalleeKind};

/// Which policy to evaluate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PolicyKind {
    /// MCFI's type-matching policy (delegates to [`mcfi_cfggen`]).
    Mcfi,
    /// Classic CFI: call-graph returns, but one class of function entries.
    Classic,
    /// Coarse CFI (CCFIR/binCFI): AT-entries class + return-sites class.
    Coarse,
    /// Chunk-based CFI with the given chunk size (NaCl: 32, MIP: variable;
    /// 16 and 32 are the paper's cited granularities).
    Chunk {
        /// Chunk size in bytes.
        size: u64,
    },
    /// No protection at all.
    NoCfi,
}

impl PolicyKind {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Mcfi => "MCFI",
            PolicyKind::Classic => "classic CFI",
            PolicyKind::Coarse => "binCFI/CCFIR",
            PolicyKind::Chunk { .. } => "NaCl/MIP (chunk)",
            PolicyKind::NoCfi => "no CFI",
        }
    }
}

/// Per-branch target-set sizes *after* equivalence-class merging, plus
/// class statistics, for a policy over a set of loaded modules.
#[derive(Clone, Debug, Default)]
pub struct PolicyEval {
    /// For each indirect branch, the number of addresses it may reach.
    pub branch_target_counts: Vec<u64>,
    /// Table 3-style statistics under this policy.
    pub stats: CfgStats,
}

/// Evaluates a policy over loaded modules.
pub fn evaluate(placed: &[Placed<'_>], policy: PolicyKind) -> PolicyEval {
    let code_bytes: u64 = placed.iter().map(|p| p.module.code.len() as u64).sum();
    match policy {
        PolicyKind::Mcfi | PolicyKind::Classic | PolicyKind::Coarse => {
            let p = generate_policy(placed, policy);
            PolicyEval { branch_target_counts: p.class_sizes(), stats: p.stats }
        }
        PolicyKind::Chunk { size } => {
            let branches = count_branches(placed);
            let targets = code_bytes / size.max(1);
            PolicyEval {
                branch_target_counts: vec![targets; branches],
                stats: CfgStats { ibs: branches, ibts: targets as usize, eqcs: 1 },
            }
        }
        PolicyKind::NoCfi => {
            let branches = count_branches(placed);
            PolicyEval {
                branch_target_counts: vec![code_bytes; branches],
                stats: CfgStats { ibs: branches, ibts: code_bytes as usize, eqcs: 1 },
            }
        }
    }
}

fn count_branches(placed: &[Placed<'_>]) -> usize {
    placed.iter().map(|p| p.module.aux.indirect_branches.len()).sum()
}

/// Generates an *installable* [`ControlFlowPolicy`] under a baseline
/// policy, so the runtime's ID tables can enforce classic or coarse CFI
/// for head-to-head attack experiments (§8.3's case study).
///
/// # Panics
///
/// Panics for [`PolicyKind::Chunk`] and [`PolicyKind::NoCfi`], which are
/// not table-enforced policies.
pub fn generate_policy(placed: &[Placed<'_>], policy: PolicyKind) -> ControlFlowPolicy {
    match policy {
        PolicyKind::Mcfi => generate(placed),
        PolicyKind::Classic | PolicyKind::Coarse => {
            ControlFlowPolicy::from_branches(raw_sets(placed, policy))
        }
        other => panic!("{other:?} is not a table-enforced policy"),
    }
}

/// Raw (pre-merge) target sets per branch, in global slot order, with
/// their ECNs unset.
fn raw_sets(placed: &[Placed<'_>], policy: PolicyKind) -> Vec<BranchPolicy> {
    // Address-taken function entries (all types merged).
    let mut at_entries: BTreeSet<u64> = BTreeSet::new();
    // Names taken via relocations anywhere (cross-module address taking).
    let mut taken_names: BTreeSet<&str> = BTreeSet::new();
    for p in placed {
        for r in p.module.relocs.iter().chain(&p.module.data_relocs) {
            if let mcfi_module::RelocKind::FuncAbs(n) = &r.kind {
                taken_names.insert(n);
            }
        }
    }
    let mut fn_entries: BTreeMap<&str, u64> = BTreeMap::new();
    for p in placed {
        for (name, f) in &p.module.functions {
            if f.size == 0 {
                continue;
            }
            if f.address_taken || taken_names.contains(name.as_str()) {
                at_entries.insert(p.code_base + f.offset as u64);
            }
            if !f.is_static {
                fn_entries.insert(name.as_str(), p.code_base + f.offset as u64);
            }
        }
    }
    // All return sites (including setjmp landings).
    let mut all_sites: BTreeSet<u64> = BTreeSet::new();
    let mut direct_sites: BTreeMap<String, BTreeSet<u64>> = BTreeMap::new();
    let mut indirect_sites: BTreeSet<u64> = BTreeSet::new();
    let mut setjmp_sites: BTreeSet<u64> = BTreeSet::new();
    for p in placed {
        for s in &p.module.aux.return_sites {
            let addr = p.code_base + s.offset as u64;
            all_sites.insert(addr);
            match &s.callee {
                CalleeKind::Direct(n) => {
                    direct_sites.entry(n.clone()).or_default().insert(addr);
                }
                CalleeKind::Indirect(_) => {
                    indirect_sites.insert(addr);
                }
                CalleeKind::SetJmp => {
                    setjmp_sites.insert(addr);
                }
            }
        }
    }

    // Per-branch raw target sets.
    let mut bary = Vec::new();
    for (mi, p) in placed.iter().enumerate() {
        for b in &p.module.aux.indirect_branches {
            let targets = match (&b.kind, policy) {
                (
                    BranchKind::IndirectCall { .. } | BranchKind::IndirectTailCall { .. },
                    _,
                ) => at_entries.clone(),
                (BranchKind::PltEntry { symbol }, _) => {
                    // PLT stubs jump to function entries: the merged entry
                    // class, plus the named target itself (which may not be
                    // address-taken).
                    let mut s = at_entries.clone();
                    if let Some(e) = fn_entries.get(symbol.as_str()) {
                        s.insert(*e);
                    }
                    s
                }
                (BranchKind::LongJmp, _) => setjmp_sites.clone(),
                (BranchKind::Return { function }, PolicyKind::Classic) => {
                    // Fine-grained returns from the call graph: direct call
                    // sites by name, plus every indirect call site if the
                    // function's address is taken anywhere.
                    let mut s = direct_sites.get(function).cloned().unwrap_or_default();
                    let entry_taken = placed.iter().any(|pp| {
                        pp.module.functions.get(function).is_some_and(|f| {
                            f.address_taken || taken_names.contains(function.as_str())
                        })
                    });
                    if entry_taken {
                        s.extend(indirect_sites.iter().copied());
                    }
                    s
                }
                (BranchKind::Return { .. }, _) => all_sites.clone(),
            };
            bary.push(BranchPolicy { module: mi, local_slot: b.local_slot, ecn: 0, targets });
        }
    }
    bary
}

/// The Average Indirect-target Reduction metric (binCFI, reference 26 of
/// the paper; used in §8.3): `AIR = (1/n) Σ (1 - |T_j| / S)` where `S` is the number of
/// possible targets without protection (every code byte).
pub fn air(placed: &[Placed<'_>], policy: PolicyKind) -> f64 {
    let s: u64 = placed.iter().map(|p| p.module.code.len() as u64).sum();
    if s == 0 {
        return 0.0;
    }
    let eval = evaluate(placed, policy);
    if eval.branch_target_counts.is_empty() {
        return 0.0;
    }
    let n = eval.branch_target_counts.len() as f64;
    eval.branch_target_counts
        .iter()
        .map(|t| 1.0 - (*t as f64 / s as f64))
        .sum::<f64>()
        / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfi_codegen::{compile_source, CodegenOptions};
    use mcfi_module::Module;

    fn build(src: &str) -> Module {
        compile_source("t", src, &CodegenOptions::default()).unwrap_or_else(|e| panic!("{e}"))
    }

    const PROGRAM: &str = "int add1(int x) { return x + 1; }\n\
        int add2(int x) { return x + 2; }\n\
        float scale(float x) { return x * 2.0; }\n\
        int main(void) {\n\
          int (*f)(int); float (*g)(float);\n\
          f = &add1; g = &scale;\n\
          int a = f(1);\n\
          f = &add2;\n\
          int b = f(2);\n\
          float c = g(3.0);\n\
          return a + b + (int)c;\n\
        }";

    fn placed(m: &Module) -> Vec<Placed<'_>> {
        vec![Placed { module: m, code_base: 0 }]
    }

    #[test]
    fn mcfi_has_more_classes_than_coarse() {
        let m = build(PROGRAM);
        let p = placed(&m);
        let mcfi = evaluate(&p, PolicyKind::Mcfi);
        let coarse = evaluate(&p, PolicyKind::Coarse);
        assert!(
            mcfi.stats.eqcs > coarse.stats.eqcs,
            "MCFI {} vs coarse {}",
            mcfi.stats.eqcs,
            coarse.stats.eqcs
        );
    }

    #[test]
    fn classic_merges_function_entries_only() {
        let m = build(PROGRAM);
        let p = placed(&m);
        let mcfi = evaluate(&p, PolicyKind::Mcfi);
        let classic = evaluate(&p, PolicyKind::Classic);
        // Under MCFI the int(int) and float(float) entries are in separate
        // classes; classic merges them, so it has fewer classes.
        assert!(classic.stats.eqcs < mcfi.stats.eqcs);
        // But classic still distinguishes return sites per function, so it
        // has more classes than coarse.
        let coarse = evaluate(&p, PolicyKind::Coarse);
        assert!(classic.stats.eqcs >= coarse.stats.eqcs);
    }

    #[test]
    fn air_ordering_matches_the_paper() {
        // MCFI > classic >= coarse > chunk > none (paper §8.3 table).
        let m = build(PROGRAM);
        let p = placed(&m);
        let a_mcfi = air(&p, PolicyKind::Mcfi);
        let a_classic = air(&p, PolicyKind::Classic);
        let a_coarse = air(&p, PolicyKind::Coarse);
        let a_chunk = air(&p, PolicyKind::Chunk { size: 32 });
        let a_none = air(&p, PolicyKind::NoCfi);
        assert!(a_mcfi > a_classic, "{a_mcfi} vs {a_classic}");
        assert!(a_classic >= a_coarse, "{a_classic} vs {a_coarse}");
        assert!(a_coarse > a_chunk, "{a_coarse} vs {a_chunk}");
        assert!(a_chunk > a_none, "{a_chunk} vs {a_none}");
        assert_eq!(a_none, 0.0);
        assert!(a_mcfi > 0.95, "MCFI AIR should be near 1, got {a_mcfi}");
    }

    #[test]
    fn chunk_policy_counts_chunks() {
        let m = build(PROGRAM);
        let p = placed(&m);
        let e16 = evaluate(&p, PolicyKind::Chunk { size: 16 });
        let e32 = evaluate(&p, PolicyKind::Chunk { size: 32 });
        assert!(e16.branch_target_counts[0] > e32.branch_target_counts[0]);
    }

    #[test]
    fn names_are_informative() {
        assert_eq!(PolicyKind::Mcfi.name(), "MCFI");
        assert!(PolicyKind::Chunk { size: 32 }.name().contains("chunk"));
    }

    #[test]
    fn branch_counts_are_consistent_across_policies() {
        let m = build(PROGRAM);
        let p = placed(&m);
        let n = m.aux.indirect_branches.len();
        for policy in [
            PolicyKind::Mcfi,
            PolicyKind::Classic,
            PolicyKind::Coarse,
            PolicyKind::Chunk { size: 32 },
            PolicyKind::NoCfi,
        ] {
            assert_eq!(evaluate(&p, policy).branch_target_counts.len(), n, "{policy:?}");
        }
    }
}
