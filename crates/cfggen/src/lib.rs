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

#[cfg(test)]
mod reference;

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

/// A function's index in [`Graph::funcs`].
type FnId = usize;
/// An interned signature's index in [`Types::sigs`].
type SigId = usize;

/// The merged type environment and every signature the modules mention,
/// each interned once, with `call_compatible` memoized per pair.
struct Types<'m> {
    env: TypeEnv,
    sigs: Vec<&'m FuncType>,
    ids: HashMap<&'m FuncType, SigId>,
    compatible: HashMap<(SigId, SigId), bool>,
}

impl<'m> Types<'m> {
    fn intern(&mut self, sig: &'m FuncType) -> SigId {
        let next = self.sigs.len();
        let id = *self.ids.entry(sig).or_insert(next);
        if id == next {
            self.sigs.push(sig);
        }
        id
    }

    /// [`TypeEnv::call_compatible`] of a pointer and a function
    /// signature, computed once per pair.
    fn compatible(&mut self, ptr: SigId, func: SigId) -> bool {
        *self
            .compatible
            .entry((ptr, func))
            .or_insert_with(|| self.env.call_compatible(self.sigs[ptr], self.sigs[func]))
    }
}

/// A resolved function: where it lives and what the policy knows about it.
struct Func {
    entry: u64,
    sig: SigId,
    address_taken: bool,
}

/// The call graph the policy is read from, over dense function ids.
/// Static functions are module-scoped, exported ones global; a later
/// definition of a name replaces an earlier one.
struct Graph<'m> {
    funcs: Vec<Func>,
    globals: HashMap<&'m str, FnId>,
    /// Each module's static functions.
    locals: Vec<HashMap<&'m str, FnId>>,
    /// Aligned return addresses following direct calls to each function.
    direct_sites: Vec<Vec<u64>>,
    /// Return addresses following indirect calls, by pointer signature.
    indirect_sites: BTreeMap<SigId, Vec<u64>>,
    /// Tail callers of each function.
    tail_preds: Vec<Vec<FnId>>,
    /// Functions making an indirect tail call, by pointer signature.
    indirect_tail_callers: BTreeMap<SigId, Vec<FnId>>,
}

impl<'m> Graph<'m> {
    /// A module's own static function of that name, else the global one.
    fn resolve(&self, mi: usize, name: &str) -> Option<FnId> {
        self.locals[mi].get(name).or_else(|| self.globals.get(name)).copied()
    }

    /// Return targets of `f`: sites after calls to any member of the
    /// tail-caller closure of `f` (including `f` itself). `seen` is all
    /// `false` on entry and on return.
    fn return_targets(&self, types: &mut Types<'m>, f: FnId, seen: &mut [bool]) -> BTreeSet<u64> {
        let mut closure = Vec::new();
        let mut work = vec![f];
        while let Some(k) = work.pop() {
            if std::mem::replace(&mut seen[k], true) {
                continue;
            }
            closure.push(k);
            work.extend(&self.tail_preds[k]);
            // Indirect tail calls reach k when k is address-taken and the
            // pointer signature matches.
            if self.funcs[k].address_taken {
                for (&sig, callers) in &self.indirect_tail_callers {
                    if types.compatible(sig, self.funcs[k].sig) {
                        work.extend(callers);
                    }
                }
            }
        }
        let mut out = BTreeSet::new();
        for k in closure {
            seen[k] = false;
            out.extend(&self.direct_sites[k]);
            if self.funcs[k].address_taken {
                for (&sig, sites) in &self.indirect_sites {
                    if types.compatible(sig, self.funcs[k].sig) {
                        out.extend(sites);
                    }
                }
            }
        }
        out
    }
}

/// Generates the control-flow policy for a set of linked modules.
///
/// The merged type environment is the union of the modules' environments
/// ("combining type information of multiple modules during linking is a
/// simple union operation", §6). The policy is a function of `placed`
/// alone; functions are resolved through tables keyed by the modules' own
/// names, signatures are matched once per pair, and each function's
/// return targets and each pointer signature's entries are computed once.
///
/// # Panics
///
/// Panics if two modules export clashing type definitions — the linker
/// rejects such inputs before calling this.
pub fn generate<'m>(placed: &[Placed<'m>]) -> ControlFlowPolicy {
    let mut types = Types {
        env: TypeEnv::new(),
        sigs: Vec::new(),
        ids: HashMap::new(),
        compatible: HashMap::new(),
    };
    for p in placed {
        types
            .env
            .merge(&p.module.aux.env)
            .expect("linker verified type environments before CFG generation");
    }

    // ---- resolve functions ----
    let mut g = Graph {
        funcs: Vec::new(),
        globals: HashMap::new(),
        locals: vec![HashMap::new(); placed.len()],
        direct_sites: Vec::new(),
        indirect_sites: BTreeMap::new(),
        tail_preds: Vec::new(),
        indirect_tail_callers: BTreeMap::new(),
    };
    for (mi, p) in placed.iter().enumerate() {
        for (name, sym) in &p.module.functions {
            if sym.size == 0 {
                continue; // declaration only
            }
            let func = Func {
                entry: p.code_base + sym.offset as u64,
                sig: types.intern(&sym.sig),
                address_taken: sym.address_taken,
            };
            let names = if sym.is_static { &mut g.locals[mi] } else { &mut g.globals };
            let next = g.funcs.len();
            let id = *names.entry(name.as_str()).or_insert(next);
            if id == next {
                g.funcs.push(func);
            } else {
                g.funcs[id] = func;
            }
        }
    }
    // Address-taken-ness is a whole-program property: a module may export a
    // function whose address is taken by *another* module's code. The
    // per-module flag is unioned here via imports + FuncAbs relocations.
    for p in placed {
        for r in p.module.relocs.iter().chain(&p.module.data_relocs) {
            if let mcfi_module::RelocKind::FuncAbs(n) = &r.kind {
                if let Some(&f) = g.globals.get(n.as_str()) {
                    g.funcs[f].address_taken = true;
                }
            }
        }
    }

    // ---- call sites (return-site map) ----
    g.direct_sites.resize(g.funcs.len(), Vec::new());
    let mut setjmp_sites: BTreeSet<u64> = BTreeSet::new();
    for (mi, p) in placed.iter().enumerate() {
        for site in &p.module.aux.return_sites {
            let addr = p.code_base + site.offset as u64;
            match &site.callee {
                CalleeKind::Direct(name) => {
                    if let Some(f) = g.resolve(mi, name) {
                        g.direct_sites[f].push(addr);
                    }
                }
                CalleeKind::Indirect(sig) => {
                    g.indirect_sites.entry(types.intern(sig)).or_default().push(addr);
                }
                CalleeKind::SetJmp => {
                    setjmp_sites.insert(addr);
                }
            }
        }
    }

    // ---- tail-call graph (callee -> tail-callers) ----
    g.tail_preds.resize(g.funcs.len(), Vec::new());
    for (mi, p) in placed.iter().enumerate() {
        for (from, to) in &p.module.aux.tail_calls {
            if let (Some(f), Some(t)) = (g.resolve(mi, from), g.resolve(mi, to)) {
                g.tail_preds[t].push(f);
            }
        }
        for b in &p.module.aux.indirect_branches {
            if let BranchKind::IndirectTailCall { sig } = &b.kind {
                if let Some(f) = g.resolve(mi, &b.in_function) {
                    g.indirect_tail_callers.entry(types.intern(sig)).or_default().push(f);
                }
            }
        }
    }

    // Address-taken entries by signature, for pointer-signature matching.
    let mut entries_by_sig: BTreeMap<SigId, Vec<u64>> = BTreeMap::new();
    for f in g.funcs.iter().filter(|f| f.address_taken) {
        entries_by_sig.entry(f.sig).or_default().push(f.entry);
    }

    // ---- per-branch target sets, global slot order ----
    let mut returns: Vec<Option<BTreeSet<u64>>> = vec![None; g.funcs.len()];
    let mut entries: HashMap<SigId, BTreeSet<u64>> = HashMap::new();
    let mut seen = vec![false; g.funcs.len()];
    let mut bary = Vec::new();
    for (mi, p) in placed.iter().enumerate() {
        for b in &p.module.aux.indirect_branches {
            let targets = match &b.kind {
                BranchKind::Return { function } => match g.resolve(mi, function) {
                    Some(f) => returns[f]
                        .get_or_insert_with(|| g.return_targets(&mut types, f, &mut seen))
                        .clone(),
                    None => BTreeSet::new(),
                },
                BranchKind::IndirectCall { sig } | BranchKind::IndirectTailCall { sig } => {
                    let ptr = types.intern(sig);
                    entries
                        .entry(ptr)
                        .or_insert_with(|| {
                            let mut out = BTreeSet::new();
                            for (&sig, at) in &entries_by_sig {
                                if types.compatible(ptr, sig) {
                                    out.extend(at);
                                }
                            }
                            out
                        })
                        .clone()
                }
                BranchKind::PltEntry { symbol } => match g.globals.get(symbol.as_str()) {
                    Some(&f) => [g.funcs[f].entry].into_iter().collect(),
                    None => BTreeSet::new(),
                },
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
    use proptest::prelude::*;

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

    /// A dlopen-style plugin like the benchmark's: `funcs` exported
    /// `int(int)` functions, each a loop over its own constants.
    fn plugin(k: usize, funcs: usize) -> Module {
        let mut src = String::new();
        for j in 0..funcs {
            src.push_str(&format!(
                "int p{k}_f{j}(int x) {{ int a = {}; int i = 0; \
                 while (i < {}) {{ a = (a * {} + x + i) % 65521; i = i + 1; }} return a; }}\n",
                k * 7 + j,
                k % 5,
                2 + j,
            ));
        }
        compile_source(&format!("plugin{k}"), &src, &CodegenOptions::default()).unwrap()
    }

    /// The PLT stub the loader places for `symbol`, as a one-branch
    /// pseudo-module.
    fn plt_stub(symbol: &str, got_slot: u64) -> Module {
        let stub = mcfi_linker::build_plt_stub(symbol, got_slot);
        let mut m = Module::new(format!("__plt_{symbol}"));
        m.code = stub.code;
        let mut branch = stub.branch;
        branch.local_slot = 0;
        m.aux.indirect_branches.push(branch);
        m
    }

    /// The shipped modules (the 12 workloads in both tail-call settings,
    /// the syscall stubs, libms, start and PLT stubs), a dlopen host and
    /// generated plugins.
    fn module_pool() -> &'static [Module] {
        static POOL: std::sync::OnceLock<Vec<Module>> = std::sync::OnceLock::new();
        POOL.get_or_init(|| {
            use mcfi_workloads::{source, Variant, BENCHMARKS};
            let mut pool = Vec::new();
            for tail_calls in [true, false] {
                let opts = CodegenOptions { tail_calls, ..CodegenOptions::default() };
                let compile = |name: &str, src: &str| compile_source(name, src, &opts).unwrap();
                pool.extend(BENCHMARKS.map(|b| compile(b, &source(b, Variant::Fixed))));
                pool.push(compile("libms", mcfi_runtime::stdlib::LIBMS_SRC));
                pool.push(compile("__start_mod", mcfi_runtime::stdlib::START_SRC));
            }
            pool.push(mcfi_runtime::synth::syscall_module());
            pool.push(
                compile_source(
                    "host",
                    "void* dlsym(char* name);\nchar plugin_sym[32];\nint plugin_arg = 0;\n\
                     int main(void) {\n  int (*f)(int) = (int(*)(int))dlsym(plugin_sym);\n\
                     if (!f) { return -1; }\n  return f(plugin_arg);\n}\n",
                    &CodegenOptions::default(),
                )
                .unwrap(),
            );
            pool.extend((0..8).map(|k| plugin(k, 1 + k % 4)));
            let imports = ["qsort", "never_defined_anywhere", "p3_f0", "dlsym"];
            for (i, symbol) in imports.iter().enumerate() {
                pool.push(plt_stub(symbol, 0x40_0000 + 8 * i as u64));
            }
            pool
        })
    }

    proptest! {
        /// The indexed generation gives today's policy on any sequence of
        /// modules whose type environments merge, placed one after the
        /// other, with random functions flipped to address-taken or not.
        #[test]
        fn indexed_generation_matches_the_reference(
            picks in proptest::collection::vec((0usize..1000, any::<u64>()), 1..14)
        ) {
            let pool = module_pool();
            let mut env = TypeEnv::new();
            let mut modules = Vec::new();
            for (i, flips) in picks {
                let mut m = pool[i % pool.len()].clone();
                let mut merged = env.clone();
                if merged.merge(&m.aux.env).is_err() {
                    continue; // the linker refuses this set
                }
                env = merged;
                for (j, f) in m.functions.values_mut().enumerate() {
                    if flips >> (2 * j % 64) & 3 == 0 {
                        f.address_taken = !f.address_taken;
                    }
                }
                modules.push(m);
            }
            let mut next = 0x1000u64;
            let placed: Vec<Placed<'_>> = modules
                .iter()
                .map(|module| {
                    let code_base = (next + 15) & !15;
                    next = code_base + module.code.len().max(4) as u64;
                    Placed { module, code_base }
                })
                .collect();
            let (want, got) = (reference::generate(&placed), generate(&placed));
            prop_assert_eq!(&got.tary, &want.tary);
            prop_assert_eq!(got.stats, want.stats);
            let slots = |p: &ControlFlowPolicy| -> Vec<(usize, u32, u32, BTreeSet<u64>)> {
                p.bary.iter().map(|b| (b.module, b.local_slot, b.ecn, b.targets.clone())).collect()
            };
            prop_assert_eq!(slots(&got), slots(&want));
        }
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
