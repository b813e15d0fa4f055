//! The MiniC type system and structural equivalence.
//!
//! MCFI's CFG generation matches an indirect call through a pointer of type
//! `τ*` against every address-taken function whose type is structurally
//! equivalent to `τ` (paper §6). Structural equivalence replaces named
//! types (typedefs, struct/union tags) by their definitions; recursive
//! types are handled coinductively with an assume-equal set.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A MiniC type.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Type {
    /// `void` — only meaningful as a return type or behind a pointer.
    Void,
    /// 64-bit signed integer (`int`/`long`).
    Int,
    /// 8-bit character.
    Char,
    /// 64-bit float (`float`/`double`).
    Float,
    /// Pointer to a pointee type. `Ptr(Func(..))` is a function pointer.
    Ptr(Box<Type>),
    /// A function type (appears behind `Ptr` for function pointers, or as
    /// the type of a named function).
    Func(FuncType),
    /// A typedef name, resolved through the [`TypeEnv`].
    Named(String),
    /// A struct by tag, resolved through the [`TypeEnv`].
    Struct(String),
    /// A union by tag, resolved through the [`TypeEnv`].
    Union(String),
    /// Fixed-size array.
    Array(Box<Type>, usize),
}

/// A function signature.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct FuncType {
    /// Fixed parameter types.
    pub params: Vec<Type>,
    /// Return type.
    pub ret: Box<Type>,
    /// Whether the function accepts variable arguments (`...`).
    pub variadic: bool,
}

impl Type {
    /// Convenience: pointer to `self`.
    #[must_use]
    pub fn ptr(self) -> Type {
        Type::Ptr(Box::new(self))
    }

    /// Whether this is a function-pointer type.
    pub fn is_func_ptr(&self) -> bool {
        matches!(self, Type::Ptr(inner) if matches!(**inner, Type::Func(_)))
    }

    /// Whether this type is any pointer.
    pub fn is_ptr(&self) -> bool {
        matches!(self, Type::Ptr(_))
    }

    /// Whether this type is arithmetic (int/char/float).
    pub fn is_arith(&self) -> bool {
        matches!(self, Type::Int | Type::Char | Type::Float)
    }

    /// The function signature, if this is a function or function pointer.
    pub fn func_sig(&self) -> Option<&FuncType> {
        match self {
            Type::Func(f) => Some(f),
            Type::Ptr(inner) => match &**inner {
                Type::Func(f) => Some(f),
                _ => None,
            },
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Int => write!(f, "int"),
            Type::Char => write!(f, "char"),
            Type::Float => write!(f, "float"),
            Type::Ptr(inner) => write!(f, "{inner}*"),
            Type::Func(sig) => {
                write!(f, "{}(", sig.ret)?;
                for (i, p) in sig.params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                if sig.variadic {
                    if !sig.params.is_empty() {
                        write!(f, ", ")?;
                    }
                    write!(f, "...")?;
                }
                write!(f, ")")
            }
            Type::Named(n) => write!(f, "{n}"),
            Type::Struct(n) => write!(f, "struct {n}"),
            Type::Union(n) => write!(f, "union {n}"),
            Type::Array(inner, n) => write!(f, "{inner}[{n}]"),
        }
    }
}

/// A named field of a struct or union.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Type,
}

/// A struct or union definition.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Composite {
    /// Tag name.
    pub name: String,
    /// Fields in declaration order.
    pub fields: Vec<Field>,
    /// `true` for unions (all fields overlap).
    pub is_union: bool,
}

/// The type environment of a module: typedefs plus struct/union tags.
///
/// Merging the environments of two modules during linking is the "simple
/// union operation" of paper §6; [`TypeEnv::merge`] implements it. Both
/// maps are ordered, so a module's serialized bytes do not depend on the
/// process that wrote them.
#[derive(Clone, Default, PartialEq, Debug, Serialize, Deserialize)]
pub struct TypeEnv {
    typedefs: BTreeMap<String, Type>,
    composites: BTreeMap<String, Composite>,
}

impl TypeEnv {
    /// An empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a typedef. Re-registering the same name with a different
    /// definition is rejected.
    pub fn add_typedef(&mut self, name: &str, ty: Type) -> Result<(), TypeError> {
        if let Some(prev) = self.typedefs.get(name) {
            if *prev != ty {
                return Err(TypeError::ConflictingTypedef(name.to_string()));
            }
        }
        self.typedefs.insert(name.to_string(), ty);
        Ok(())
    }

    /// Registers a struct or union definition.
    pub fn add_composite(&mut self, def: Composite) -> Result<(), TypeError> {
        if let Some(prev) = self.composites.get(&def.name) {
            if *prev != def {
                return Err(TypeError::ConflictingComposite(def.name));
            }
        }
        self.composites.insert(def.name.clone(), def);
        Ok(())
    }

    /// Looks up a typedef.
    pub fn typedef(&self, name: &str) -> Option<&Type> {
        self.typedefs.get(name)
    }

    /// Looks up a struct/union definition.
    pub fn composite(&self, name: &str) -> Option<&Composite> {
        self.composites.get(name)
    }

    /// Iterates over composite definitions.
    pub fn composites(&self) -> impl Iterator<Item = &Composite> {
        self.composites.values()
    }

    /// Resolves typedef indirections until a non-`Named` head constructor.
    pub fn resolve<'a>(&'a self, ty: &'a Type) -> &'a Type {
        let mut t = ty;
        let mut fuel = 64;
        while let Type::Named(n) = t {
            match self.typedefs.get(n) {
                Some(next) if fuel > 0 => {
                    t = next;
                    fuel -= 1;
                }
                _ => break,
            }
        }
        t
    }

    /// Unions another environment into this one (module linking).
    ///
    /// # Errors
    ///
    /// Fails when both environments define the same name incompatibly —
    /// the modules were compiled against clashing headers.
    pub fn merge(&mut self, other: &TypeEnv) -> Result<(), TypeError> {
        for (name, ty) in &other.typedefs {
            self.add_typedef(name, ty.clone())?;
        }
        for def in other.composites.values() {
            self.add_composite(def.clone())?;
        }
        Ok(())
    }

    /// Structural equivalence of two types (paper §6): named types are
    /// replaced by their definitions; recursive composites are compared
    /// coinductively.
    pub fn structurally_equal(&self, a: &Type, b: &Type) -> bool {
        let mut assumed = Vec::new();
        self.eq_rec(a, b, &mut assumed)
    }

    fn eq_rec(&self, a: &Type, b: &Type, assumed: &mut Vec<(String, String)>) -> bool {
        let a = self.resolve(a);
        let b = self.resolve(b);
        match (a, b) {
            (Type::Void, Type::Void)
            | (Type::Int, Type::Int)
            | (Type::Char, Type::Char)
            | (Type::Float, Type::Float) => true,
            (Type::Ptr(x), Type::Ptr(y)) => self.eq_rec(x, y, assumed),
            (Type::Array(x, n), Type::Array(y, m)) => n == m && self.eq_rec(x, y, assumed),
            (Type::Func(fa), Type::Func(fb)) => {
                fa.variadic == fb.variadic
                    && fa.params.len() == fb.params.len()
                    && self.eq_rec(&fa.ret, &fb.ret, assumed)
                    && fa
                        .params
                        .iter()
                        .zip(&fb.params)
                        .all(|(x, y)| self.eq_rec(x, y, assumed))
            }
            (Type::Struct(x), Type::Struct(y)) | (Type::Union(x), Type::Union(y)) => {
                if x == y {
                    return true;
                }
                let key = if x <= y {
                    (x.clone(), y.clone())
                } else {
                    (y.clone(), x.clone())
                };
                if assumed.contains(&key) {
                    return true; // coinductive hypothesis
                }
                let (Some(da), Some(db)) = (self.composites.get(x), self.composites.get(y))
                else {
                    return false; // opaque tags equal only nominally
                };
                if da.is_union != db.is_union || da.fields.len() != db.fields.len() {
                    return false;
                }
                assumed.push(key);
                let ok = da
                    .fields
                    .iter()
                    .zip(&db.fields)
                    .all(|(fa, fb)| self.eq_rec(&fa.ty, &fb.ty, assumed));
                assumed.pop();
                ok
            }
            _ => false,
        }
    }

    /// Whether an indirect call through a pointer with signature `ptr` may
    /// invoke an address-taken function with signature `func` (paper §6):
    /// exact structural match for non-variadic pointers; for variadic
    /// pointers, the return type and the fixed parameter prefix must match.
    pub fn call_compatible(&self, ptr: &FuncType, func: &FuncType) -> bool {
        if !ptr.variadic {
            let mut assumed = Vec::new();
            return self.eq_rec(
                &Type::Func(ptr.clone()),
                &Type::Func(func.clone()),
                &mut assumed,
            );
        }
        if !self.structurally_equal(&ptr.ret, &func.ret) {
            return false;
        }
        if func.params.len() < ptr.params.len() {
            return false;
        }
        ptr.params
            .iter()
            .zip(&func.params)
            .all(|(a, b)| self.structurally_equal(a, b))
    }

    /// Whether `ty` contains a function pointer anywhere in its definition
    /// (through typedefs, composites, arrays, and non-function pointers).
    ///
    /// Casts involving such types are C1-violation candidates (paper §6).
    pub fn contains_func_ptr(&self, ty: &Type) -> bool {
        let mut seen = Vec::new();
        self.contains_fp_rec(ty, &mut seen)
    }

    fn contains_fp_rec(&self, ty: &Type, seen: &mut Vec<String>) -> bool {
        match self.resolve(ty) {
            Type::Void | Type::Int | Type::Char | Type::Float => false,
            Type::Func(_) => true,
            Type::Ptr(inner) => match self.resolve(inner) {
                Type::Func(_) => true,
                // Do not chase arbitrary pointer indirections: `struct S*`
                // fields inside S would otherwise recurse unboundedly and a
                // pointer-to-struct-with-fp is itself flagged at its use.
                Type::Struct(n) | Type::Union(n) => {
                    if seen.contains(n) {
                        false
                    } else {
                        seen.push(n.clone());
                        let r = self
                            .composites
                            .get(n)
                            .is_some_and(|d| d.fields.iter().any(|f| self.contains_fp_rec(&f.ty, seen)));
                        seen.pop();
                        r
                    }
                }
                _ => false,
            },
            Type::Array(inner, _) => self.contains_fp_rec(inner, seen),
            Type::Struct(n) | Type::Union(n) => {
                if seen.contains(n) {
                    return false;
                }
                seen.push(n.to_string());
                let r = self
                    .composites
                    .get(n)
                    .is_some_and(|d| d.fields.iter().any(|f| self.contains_fp_rec(&f.ty, seen)));
                seen.pop();
                r
            }
            Type::Named(_) => false, // unresolvable typedef
        }
    }

    /// Whether struct `sub` is a *physical subtype* of struct `sup`: `sup`'s
    /// fields are a structural prefix of `sub`'s fields. This is the
    /// upcast (UC) pattern of paper §6 — C's emulation of inheritance.
    pub fn physical_subtype(&self, sub: &str, sup: &str) -> bool {
        let (Some(dsub), Some(dsup)) = (self.composites.get(sub), self.composites.get(sup))
        else {
            return false;
        };
        if dsub.is_union || dsup.is_union || dsup.fields.len() > dsub.fields.len() {
            return false;
        }
        dsup.fields
            .iter()
            .zip(&dsub.fields)
            .all(|(a, b)| self.structurally_equal(&a.ty, &b.ty))
    }
}

/// Errors raised while building or merging type environments.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TypeError {
    /// The same typedef name bound to two different types.
    ConflictingTypedef(String),
    /// The same struct/union tag defined incompatibly.
    ConflictingComposite(String),
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::ConflictingTypedef(n) => write!(f, "conflicting typedef `{n}`"),
            TypeError::ConflictingComposite(n) => {
                write!(f, "conflicting struct/union definition `{n}`")
            }
        }
    }
}

impl std::error::Error for TypeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn func(params: Vec<Type>, ret: Type, variadic: bool) -> FuncType {
        FuncType { params, ret: Box::new(ret), variadic }
    }

    #[test]
    fn primitives_are_structurally_distinct() {
        let env = TypeEnv::new();
        assert!(env.structurally_equal(&Type::Int, &Type::Int));
        assert!(!env.structurally_equal(&Type::Int, &Type::Char));
        assert!(!env.structurally_equal(&Type::Int, &Type::Float));
    }

    #[test]
    fn typedefs_are_transparent() {
        let mut env = TypeEnv::new();
        env.add_typedef("word", Type::Int).unwrap();
        env.add_typedef("machine_word", Type::Named("word".into())).unwrap();
        assert!(env.structurally_equal(&Type::Named("machine_word".into()), &Type::Int));
        assert!(env.structurally_equal(
            &Type::Named("word".into()).ptr(),
            &Type::Int.ptr()
        ));
    }

    #[test]
    fn conflicting_typedef_is_rejected() {
        let mut env = TypeEnv::new();
        env.add_typedef("t", Type::Int).unwrap();
        assert!(env.add_typedef("t", Type::Char).is_err());
        assert!(env.add_typedef("t", Type::Int).is_ok()); // idempotent
    }

    #[test]
    fn structs_compare_by_definition() {
        let mut env = TypeEnv::new();
        env.add_composite(Composite {
            name: "a".into(),
            fields: vec![Field { name: "x".into(), ty: Type::Int }],
            is_union: false,
        })
        .unwrap();
        env.add_composite(Composite {
            name: "b".into(),
            fields: vec![Field { name: "y".into(), ty: Type::Int }],
            is_union: false,
        })
        .unwrap();
        // Same shape, different tags and field names: structurally equal.
        assert!(env.structurally_equal(&Type::Struct("a".into()), &Type::Struct("b".into())));
    }

    #[test]
    fn recursive_structs_terminate_and_match() {
        let mut env = TypeEnv::new();
        for tag in ["list1", "list2"] {
            env.add_composite(Composite {
                name: tag.into(),
                fields: vec![
                    Field { name: "v".into(), ty: Type::Int },
                    Field { name: "next".into(), ty: Type::Struct(tag.into()).ptr() },
                ],
                is_union: false,
            })
            .unwrap();
        }
        assert!(env.structurally_equal(
            &Type::Struct("list1".into()),
            &Type::Struct("list2".into())
        ));
    }

    #[test]
    fn function_types_match_exactly() {
        let env = TypeEnv::new();
        let f1 = Type::Func(func(vec![Type::Int], Type::Int, false));
        let f2 = Type::Func(func(vec![Type::Int], Type::Int, false));
        let f3 = Type::Func(func(vec![Type::Char], Type::Int, false));
        let f4 = Type::Func(func(vec![Type::Int], Type::Int, true));
        assert!(env.structurally_equal(&f1, &f2));
        assert!(!env.structurally_equal(&f1, &f3));
        assert!(!env.structurally_equal(&f1, &f4));
    }

    #[test]
    fn the_gcc_strcmp_case_does_not_match() {
        // int (*)(unsigned long, unsigned long) vs strcmp's
        // int (*)(const char*, const char*) — the paper's K1 example.
        let env = TypeEnv::new();
        let cmp_ptr = func(vec![Type::Int, Type::Int], Type::Int, false);
        let strcmp = func(vec![Type::Char.ptr(), Type::Char.ptr()], Type::Int, false);
        assert!(!env.call_compatible(&cmp_ptr, &strcmp));
        // The wrapper fix: identical signature, direct call inside.
        let wrapper = func(vec![Type::Int, Type::Int], Type::Int, false);
        assert!(env.call_compatible(&cmp_ptr, &wrapper));
    }

    #[test]
    fn variadic_pointers_match_on_fixed_prefix() {
        // Pointer type int(*)(int, ...) invokes any AT function whose return
        // type is int and whose first parameter is int (paper §6).
        let env = TypeEnv::new();
        let ptr = func(vec![Type::Int], Type::Int, true);
        assert!(env.call_compatible(&ptr, &func(vec![Type::Int], Type::Int, true)));
        assert!(env.call_compatible(&ptr, &func(vec![Type::Int, Type::Char], Type::Int, false)));
        assert!(!env.call_compatible(&ptr, &func(vec![Type::Char], Type::Int, false)));
        assert!(!env.call_compatible(&ptr, &func(vec![Type::Int], Type::Void, false)));
        assert!(!env.call_compatible(&ptr, &func(vec![], Type::Int, false)));
    }

    #[test]
    fn contains_func_ptr_sees_through_layers() {
        let mut env = TypeEnv::new();
        env.add_composite(Composite {
            name: "ops".into(),
            fields: vec![Field {
                name: "handler".into(),
                ty: Type::Func(func(vec![Type::Int], Type::Void, false)).ptr(),
            }],
            is_union: false,
        })
        .unwrap();
        env.add_typedef("ops_t", Type::Struct("ops".into())).unwrap();
        assert!(env.contains_func_ptr(&Type::Named("ops_t".into())));
        assert!(env.contains_func_ptr(&Type::Struct("ops".into()).ptr()));
        assert!(env.contains_func_ptr(&Type::Array(
            Box::new(Type::Struct("ops".into())),
            4
        )));
        assert!(!env.contains_func_ptr(&Type::Int.ptr()));
    }

    #[test]
    fn recursive_struct_without_fp_is_not_flagged() {
        let mut env = TypeEnv::new();
        env.add_composite(Composite {
            name: "node".into(),
            fields: vec![Field {
                name: "next".into(),
                ty: Type::Struct("node".into()).ptr(),
            }],
            is_union: false,
        })
        .unwrap();
        assert!(!env.contains_func_ptr(&Type::Struct("node".into())));
    }

    #[test]
    fn physical_subtyping_detects_prefixes() {
        let mut env = TypeEnv::new();
        env.add_composite(Composite {
            name: "base".into(),
            fields: vec![Field { name: "tag".into(), ty: Type::Int }],
            is_union: false,
        })
        .unwrap();
        env.add_composite(Composite {
            name: "derived".into(),
            fields: vec![
                Field { name: "tag".into(), ty: Type::Int },
                Field { name: "extra".into(), ty: Type::Float },
            ],
            is_union: false,
        })
        .unwrap();
        assert!(env.physical_subtype("derived", "base"));
        assert!(!env.physical_subtype("base", "derived"));
    }

    #[test]
    fn merge_unions_environments() {
        let mut a = TypeEnv::new();
        a.add_typedef("t", Type::Int).unwrap();
        let mut b = TypeEnv::new();
        b.add_typedef("u", Type::Char).unwrap();
        a.merge(&b).unwrap();
        assert!(a.typedef("t").is_some() && a.typedef("u").is_some());
        let mut c = TypeEnv::new();
        c.add_typedef("t", Type::Float).unwrap();
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn display_renders_function_pointers() {
        let t = Type::Func(func(vec![Type::Int, Type::Char.ptr()], Type::Void, true)).ptr();
        assert_eq!(t.to_string(), "void(int, char*, ...)*");
    }
}
