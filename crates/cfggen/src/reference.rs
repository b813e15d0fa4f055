//! The string-keyed CFG generation that [`crate::generate`] replaced,
//! kept as the reference its equivalence property compares against:
//! every function is keyed by an owned name, every lookup allocates one,
//! and every target set re-runs `call_compatible` over all candidates.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use mcfi_minic::types::{FuncType, TypeEnv};
use mcfi_module::{BranchKind, CalleeKind};

use crate::{BranchPolicy, ControlFlowPolicy, Placed};

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

/// [`crate::generate`] as it was: the same policy from string-keyed maps.
pub(crate) fn generate(placed: &[Placed<'_>]) -> ControlFlowPolicy {
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
