//! Type-matching CFG generation (paper §6) and equivalence-class
//! construction (paper §2).
//!
//! Given a set of loaded modules (code base + auxiliary type information),
//! [`generate`] produces the [`ControlFlowPolicy`] the runtime installs
//! into the ID tables:
//!
//! * an **indirect call** through a pointer of type `τ*` may target any
//!   address-taken function whose type structurally matches `τ`
//!   (variadic pointers match on return type + fixed-parameter prefix);
//! * a **return** in function `f` may target the return site after any
//!   call that can reach `f` — direct calls by name, indirect calls by
//!   signature match, and transitively through tail calls;
//! * an **indirect tail call** is handled like an indirect call;
//! * a **PLT entry** targets exactly the function with the matching name;
//! * **`longjmp`** may target any `setjmp` landing site;
//! * `switch` jump tables are *not* in the policy: they are read-only and
//!   statically verified instead.
//!
//! Target addresses are then partitioned into equivalence classes by
//! [`ControlFlowPolicy::from_branches`]: two addresses are equivalent if
//! some branch can jump to both, so branches with overlapping target sets
//! have their sets merged (the precision loss the paper accepts for a
//! single-comparison check). Each class gets an ECN; Table 3's
//! `IBs`/`IBTs`/`EQCs` come from [`CfgStats`]. The baseline policies
//! (`mcfi_baselines`) build their classes through the same routine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet, HashMap};

use mcfi_minic::types::{FuncType, TypeEnv};
use mcfi_module::{BranchKind, CalleeKind, Module};

/// One module placed in the address space.
#[derive(Clone, Copy, Debug)]
pub struct Placed<'a> {
    /// The module.
    pub module: &'a Module,
    /// Where its code was loaded.
    pub code_base: u64,
}

/// Policy for one indirect branch (one global Bary slot).
#[derive(Clone, Debug)]
pub struct BranchPolicy {
    /// Index of the owning module in the input order.
    pub module: usize,
    /// The branch's module-local slot.
    pub local_slot: u32,
    /// Assigned equivalence-class number.
    pub ecn: u32,
    /// The branch's raw target set (before class merging), absolute.
    pub targets: BTreeSet<u64>,
}

/// Aggregate statistics — one row of the paper's Table 3.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CfgStats {
    /// Instrumented indirect branches.
    pub ibs: usize,
    /// Possible indirect-branch targets.
    pub ibts: usize,
    /// Equivalence classes of addresses.
    pub eqcs: usize,
}

/// The generated control-flow policy: what the ID tables enforce.
#[derive(Clone, Debug, Default)]
pub struct ControlFlowPolicy {
    /// ECN for every possible indirect-branch target address.
    pub tary: BTreeMap<u64, u32>,
    /// Per-branch policy, indexed by *global* Bary slot.
    pub bary: Vec<BranchPolicy>,
    /// Table 3 statistics.
    pub stats: CfgStats,
}

impl ControlFlowPolicy {
    /// Merges per-branch target sets into equivalence classes (paper §2),
    /// the one class construction every table-enforced policy goes
    /// through. `bary` holds each branch's raw target set in global slot
    /// order; its ECNs are ignored and assigned here.
    ///
    /// Two addresses share a class if some branch can reach both
    /// (union-find over the sorted target addresses); classes are numbered
    /// densely in address order, a branch takes its targets' class, and a
    /// branch with no targets gets a fresh, empty class of its own.
    pub fn from_branches(mut bary: Vec<BranchPolicy>) -> Self {
        let all_targets: Vec<u64> = {
            let mut s = BTreeSet::new();
            for b in &bary {
                s.extend(b.targets.iter().copied());
            }
            s.into_iter().collect()
        };
        let index_of: HashMap<u64, usize> =
            all_targets.iter().enumerate().map(|(i, a)| (*a, i)).collect();
        let mut uf = UnionFind::new(all_targets.len());
        for b in &bary {
            let mut iter = b.targets.iter();
            if let Some(first) = iter.next() {
                let fi = index_of[first];
                for t in iter {
                    uf.union(fi, index_of[t]);
                }
            }
        }

        // Dense ECN numbering per class root.
        let mut ecn_of_root: HashMap<usize, u32> = HashMap::new();
        let mut tary = BTreeMap::new();
        for (i, addr) in all_targets.iter().enumerate() {
            let root = uf.find(i);
            let next = ecn_of_root.len() as u32;
            let ecn = *ecn_of_root.entry(root).or_insert(next);
            tary.insert(*addr, ecn);
        }
        let mut next_ecn = ecn_of_root.len() as u32;
        for b in &mut bary {
            b.ecn = match b.targets.iter().next() {
                Some(t) => tary[t],
                None => {
                    // A branch with no legal targets gets a fresh, empty class:
                    // every transfer through it is a violation.
                    let e = next_ecn;
                    next_ecn += 1;
                    e
                }
            };
        }

        let stats = CfgStats {
            ibs: bary.len(),
            ibts: all_targets.len(),
            eqcs: ecn_of_root.len(),
        };
        ControlFlowPolicy { tary, bary, stats }
    }

    /// For each branch in global slot order, the number of addresses in its
    /// equivalence class: what the branch may reach once classes are
    /// merged (0 for a branch with no targets).
    pub fn class_sizes(&self) -> Vec<u64> {
        let mut class_size: BTreeMap<u32, u64> = BTreeMap::new();
        for ecn in self.tary.values() {
            *class_size.entry(*ecn).or_insert(0) += 1;
        }
        self.bary.iter().map(|b| class_size.get(&b.ecn).copied().unwrap_or(0)).collect()
    }

    /// The global Bary slot of a module-local branch.
    pub fn global_slot(&self, module: usize, local_slot: u32) -> Option<usize> {
        self.bary
            .iter()
            .position(|b| b.module == module && b.local_slot == local_slot)
    }
}

/// A resolved function: where it lives and what the policy knows about it.
#[derive(Clone, Debug)]
struct FuncInfo {
    entry: u64,
    sig: FuncType,
    address_taken: bool,
}

/// Key for functions: static functions are module-scoped, exported ones
/// are global.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
enum FuncKey {
    Global(String),
    Local(usize, String),
}

/// Generates the control-flow policy for a set of linked modules.
///
/// The merged type environment is the union of the modules' environments
/// ("combining type information of multiple modules during linking is a
/// simple union operation", §6).
///
/// # Panics
///
/// Panics if two modules export clashing type definitions — the linker
/// rejects such inputs before calling this.
pub fn generate(placed: &[Placed<'_>]) -> ControlFlowPolicy {
    let mut env = TypeEnv::new();
    for p in placed {
        env.merge(&p.module.aux.env)
            .expect("linker verified type environments before CFG generation");
    }

    // ---- resolve functions ----
    let mut funcs: BTreeMap<FuncKey, FuncInfo> = BTreeMap::new();
    for (mi, p) in placed.iter().enumerate() {
        for (name, sym) in &p.module.functions {
            if sym.size == 0 {
                continue; // declaration only
            }
            let key = if sym.is_static {
                FuncKey::Local(mi, name.clone())
            } else {
                FuncKey::Global(name.clone())
            };
            funcs.insert(key, FuncInfo {
                entry: p.code_base + sym.offset as u64,
                sig: sym.sig.clone(),
                address_taken: sym.address_taken,
            });
        }
    }
    // Address-taken-ness is a whole-program property: a module may export a
    // function whose address is taken by *another* module's code. The
    // per-module flag is unioned here via imports + FuncAbs relocations.
    let mut taken_names: BTreeSet<String> = BTreeSet::new();
    for p in placed {
        for r in p.module.relocs.iter().chain(&p.module.data_relocs) {
            if let mcfi_module::RelocKind::FuncAbs(n) = &r.kind {
                taken_names.insert(n.clone());
            }
        }
    }
    for (key, info) in &mut funcs {
        let name = match key {
            FuncKey::Global(n) | FuncKey::Local(_, n) => n,
        };
        if taken_names.contains(name) && matches!(key, FuncKey::Global(_)) {
            info.address_taken = true;
        }
    }

    let resolve = |mi: usize, name: &str| -> Option<FuncKey> {
        let local = FuncKey::Local(mi, name.to_string());
        if funcs.contains_key(&local) {
            return Some(local);
        }
        let global = FuncKey::Global(name.to_string());
        funcs.contains_key(&global).then_some(global)
    };

    // ---- call sites (return-site map) ----
    // sites[k] = aligned return addresses following calls to function k.
    let mut direct_sites: HashMap<FuncKey, BTreeSet<u64>> = HashMap::new();
    let mut indirect_sites: Vec<(FuncType, u64)> = Vec::new();
    let mut setjmp_sites: BTreeSet<u64> = BTreeSet::new();
    for (mi, p) in placed.iter().enumerate() {
        for site in &p.module.aux.return_sites {
            let addr = p.code_base + site.offset as u64;
            match &site.callee {
                CalleeKind::Direct(name) => {
                    if let Some(key) = resolve(mi, name) {
                        direct_sites.entry(key).or_default().insert(addr);
                    }
                }
                CalleeKind::Indirect(sig) => indirect_sites.push((sig.clone(), addr)),
                CalleeKind::SetJmp => {
                    setjmp_sites.insert(addr);
                }
            }
        }
    }

    // ---- tail-call graph (callee -> tail-callers) ----
    let mut tail_preds: HashMap<FuncKey, Vec<FuncKey>> = HashMap::new();
    let mut indirect_tail_callers: Vec<(FuncType, FuncKey)> = Vec::new();
    for (mi, p) in placed.iter().enumerate() {
        for (from, to) in &p.module.aux.tail_calls {
            if let (Some(fk), Some(tk)) = (resolve(mi, from), resolve(mi, to)) {
                tail_preds.entry(tk).or_default().push(fk);
            }
        }
        for b in &p.module.aux.indirect_branches {
            if let BranchKind::IndirectTailCall { sig } = &b.kind {
                if let Some(fk) = resolve(mi, &b.in_function) {
                    indirect_tail_callers.push((sig.clone(), fk));
                }
            }
        }
    }

    // Return targets of `f`: sites after calls to any member of the
    // tail-caller closure of f (including f itself).
    let return_targets = |fkey: &FuncKey| -> BTreeSet<u64> {
        let mut closure: BTreeSet<FuncKey> = BTreeSet::new();
        let mut work = vec![fkey.clone()];
        while let Some(k) = work.pop() {
            if !closure.insert(k.clone()) {
                continue;
            }
            if let Some(preds) = tail_preds.get(&k) {
                work.extend(preds.iter().cloned());
            }
            // Indirect tail calls reach k when k is address-taken and the
            // pointer signature matches.
            let kinfo = &funcs[&k];
            if kinfo.address_taken {
                for (sig, caller) in &indirect_tail_callers {
                    if env.call_compatible(sig, &kinfo.sig) {
                        work.push(caller.clone());
                    }
                }
            }
        }
        let mut out = BTreeSet::new();
        for k in &closure {
            if let Some(sites) = direct_sites.get(k) {
                out.extend(sites.iter().copied());
            }
            let kinfo = &funcs[k];
            if kinfo.address_taken {
                for (sig, addr) in &indirect_sites {
                    if env.call_compatible(sig, &kinfo.sig) {
                        out.insert(*addr);
                    }
                }
            }
        }
        out
    };

    // Matching AT functions for a pointer signature.
    let matching_entries = |sig: &FuncType| -> BTreeSet<u64> {
        funcs
            .values()
            .filter(|f| f.address_taken && env.call_compatible(sig, &f.sig))
            .map(|f| f.entry)
            .collect()
    };

    // ---- per-branch target sets, global slot order ----
    let mut bary = Vec::new();
    for (mi, p) in placed.iter().enumerate() {
        for b in &p.module.aux.indirect_branches {
            let targets = match &b.kind {
                BranchKind::Return { function } => match resolve(mi, function) {
                    Some(key) => return_targets(&key),
                    None => BTreeSet::new(),
                },
                BranchKind::IndirectCall { sig } | BranchKind::IndirectTailCall { sig } => {
                    matching_entries(sig)
                }
                BranchKind::PltEntry { symbol } => {
                    match funcs.get(&FuncKey::Global(symbol.clone())) {
                        Some(f) => [f.entry].into_iter().collect(),
                        None => BTreeSet::new(),
                    }
                }
                BranchKind::LongJmp => setjmp_sites.clone(),
            };
            bary.push(BranchPolicy { module: mi, local_slot: b.local_slot, ecn: 0, targets });
        }
    }
    ControlFlowPolicy::from_branches(bary)
}

/// Convenience for single-module programs.
pub fn generate_single(module: &Module, code_base: u64) -> ControlFlowPolicy {
    generate(&[Placed { module, code_base }])
}

/// A plain union-find over dense indices.
#[derive(Clone, Debug)]
struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton sets.
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect(), rank: vec![0; n] }
    }

    /// Representative of `x`'s set (with path compression).
    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`; returns the new root.
    fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] { (ra, rb) } else { (rb, ra) };
        self.parent[lo] = hi;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfi_codegen::{compile_source, CodegenOptions};

    fn policy_of(src: &str) -> ControlFlowPolicy {
        let m = compile_source("t", src, &CodegenOptions::default())
            .unwrap_or_else(|e| panic!("{e}"));
        generate_single(&m, 0)
    }

    #[test]
    fn union_find_merges_transitively() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(1, 2);
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(3));
        uf.union(3, 4);
        uf.union(2, 3);
        assert_eq!(uf.find(0), uf.find(4));
    }

    #[test]
    fn indirect_call_targets_type_matched_functions_only() {
        let p = policy_of(
            "int good(int x) { return x; }\n\
             int also_good(int x) { return x + 1; }\n\
             float wrong(float x) { return x; }\n\
             int main(void) {\n\
               int (*f)(int); float (*g)(float);\n\
               f = &good; f = &also_good; g = &wrong;\n\
               int r = f(1); float s = g(2.0);\n\
               return r;\n\
             }",
        );
        let call = p
            .bary
            .iter()
            .find(|b| b.targets.len() == 2)
            .expect("int(int) call should have exactly the two int(int) entries");
        // And the float call has exactly one target.
        assert!(p.bary.iter().any(|b| b.targets.len() == 1));
        assert_eq!(call.targets.len(), 2);
    }

    #[test]
    fn returns_target_their_callers_sites() {
        let p = policy_of(
            "int h(int x) { return x; }\n\
             int main(void) { int a = h(1); int b = h(2); return a + b; }",
        );
        // h's return has two return sites (the two calls).
        let ret = p
            .bary
            .iter()
            .find(|b| b.targets.len() == 2)
            .expect("h's return targets both sites");
        assert_eq!(ret.targets.len(), 2);
        for t in &ret.targets {
            assert_eq!(t % 4, 0, "return sites are aligned");
        }
    }

    #[test]
    fn tail_calls_extend_return_targets_transitively() {
        // main calls g; g tail-calls h; so h's return may return to main's
        // site after the call to g.
        let p = policy_of(
            "int h(int x) { return x; }\n\
             int g(int y) { return h(y); }\n\
             int main(void) { int a = g(5); return a; }",
        );
        // h's return must include the return site after `g(5)` in main.
        // Find h's return branch: it is a Return branch whose target set is
        // non-empty (g's return was turned into a tail jump, so g has no
        // return branch of its own; main's return has no callers).
        let returns: Vec<_> = p.bary.iter().filter(|b| !b.targets.is_empty()).collect();
        assert!(
            returns.iter().any(|b| b.targets.len() == 1),
            "h returns to main's single call site via the tail-call edge"
        );
    }

    #[test]
    fn overlapping_target_sets_merge_classes() {
        // Two pointers of the same type: their target sets coincide, one
        // class. A third pointer of a different type: separate class.
        let p = policy_of(
            "int a(int x) { return x; }\n\
             int b(int x) { return x; }\n\
             float c(float x) { return x; }\n\
             int main(void) {\n\
               int (*f)(int); int (*g)(int); float (*h)(float);\n\
               f = &a; g = &b; h = &c;\n\
               int r = f(1); r = r + g(2); float s = h(3.0);\n\
               return r;\n\
             }",
        );
        // Branches with identical target sets must share an ECN; branches
        // with disjoint sets must not.
        for x in &p.bary {
            for y in &p.bary {
                if x.targets.is_empty() || y.targets.is_empty() {
                    continue;
                }
                if x.targets == y.targets {
                    assert_eq!(x.ecn, y.ecn);
                } else if x.targets.is_disjoint(&y.targets) {
                    assert_ne!(x.ecn, y.ecn);
                }
            }
        }
        // Classes: {a,b} entries; {c} entry; {f(1),g(2)} return sites
        // (a's and b's returns, merged); {h(3.0)} return site (c's return).
        assert_eq!(p.stats.eqcs, 4);
    }

    #[test]
    fn stats_count_branches_targets_classes() {
        let p = policy_of(
            "int h(int x) { return x; }\n\
             int main(void) { int a = h(1); return a; }",
        );
        assert!(p.stats.ibs >= 2, "h's return and main's return");
        assert!(p.stats.ibts >= 1);
        assert!(p.stats.eqcs >= 1);
        assert_eq!(p.stats.ibts, p.tary.len());
    }

    #[test]
    fn longjmp_targets_all_setjmp_sites() {
        let p = policy_of(
            "int run(int* env) {\n\
               if (setjmp(env)) { return 1; }\n\
               longjmp(env, 2);\n\
               return 0;\n\
             }",
        );
        // The longjmp branch targets exactly the setjmp landing site.
        let lj = p
            .bary
            .iter()
            .find(|b| b.targets.len() == 1 && b.targets.iter().all(|t| t % 4 == 0))
            .expect("longjmp branch present");
        assert_eq!(lj.targets.len(), 1);
    }

    #[test]
    fn unused_function_address_is_not_a_target() {
        let p = policy_of(
            "int lonely(int x) { return x; }\n\
             int main(void) { int r = lonely(1); return r + 1; }",
        );
        // lonely is called directly and never address-taken, so its entry
        // is not an indirect-branch target: the only targets in the policy
        // are return sites.
        let entries: Vec<u64> = p.tary.keys().copied().collect();
        // lonely's return branch targets the single return site in main.
        let ret = p.bary.iter().find(|b| b.targets.len() == 1).expect("lonely's return");
        assert!(entries.contains(ret.targets.iter().next().unwrap()));
        // Two returns total (lonely's and main's), no indirect calls.
        assert_eq!(p.bary.len(), 2);
        // main's return has no callers -> empty target set.
        assert!(p.bary.iter().any(|b| b.targets.is_empty()));
    }

    #[test]
    fn cross_module_linking_unions_policies() {
        // Module A defines and exports f; module B takes f's address and
        // calls it indirectly.
        let a = compile_source(
            "a",
            "int f(int x) { return x + 1; }",
            &CodegenOptions::default(),
        )
        .unwrap();
        let b = compile_source(
            "b",
            "int f(int x);\n\
             int main(void) { int (*p)(int); p = &f; int r = p(1); return r; }",
            &CodegenOptions::default(),
        )
        .unwrap();
        let policy = generate(&[
            Placed { module: &a, code_base: 0x0 },
            Placed { module: &b, code_base: 0x10000 },
        ]);
        // B's indirect call targets f's entry in module A's range.
        let call = policy
            .bary
            .iter()
            .find(|br| br.module == 1 && !br.targets.is_empty() && br.targets.iter().all(|t| *t < 0x10000))
            .expect("indirect call in B targeting A");
        assert_eq!(call.targets.len(), 1);
        // And f's return (module 0) targets the return site in B (>= 0x10000).
        let ret = policy
            .bary
            .iter()
            .find(|br| br.module == 0 && br.targets.iter().any(|t| *t >= 0x10000))
            .expect("f's return reaches B's call site");
        assert!(!ret.targets.is_empty());
    }

    #[test]
    fn empty_target_branches_get_fresh_classes() {
        // main's return has no callers: empty target set, unique ECN.
        let p = policy_of("int main(void) { return 0; }");
        assert_eq!(p.bary.len(), 1);
        assert!(p.bary[0].targets.is_empty());
        // Its ECN is outside the target classes.
        assert!(p.tary.values().all(|e| *e != p.bary[0].ecn));
    }
}
