//! Minimal in-tree stand-in for the `proptest` property-testing API.
//!
//! Covers exactly the surface this workspace's tests use: the `proptest!`
//! macro, `prop_assert!`/`prop_assert_eq!`, integer-range and `any::<T>()`
//! strategies, tuple composition, `prop_map`, `collection::vec`, and simple
//! `"[class]{m,n}"` string patterns. Generation is a deterministic
//! xorshift64* stream seeded from the test name, so failures reproduce
//! run-to-run; there is no shrinking — a failing case reports its index and
//! message and panics.
//!
//! Like the real crate, the default case count honors the
//! `PROPTEST_CASES` environment variable, and the runner honors
//! `<source>.proptest-regressions` files: persisted `cc <hex>` seeds are
//! replayed *before* any fresh cases, and a fresh failure prints the `cc`
//! line to persist (see the [`regression`] module for the format this
//! shim reads and writes).

#![forbid(unsafe_code)]

use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;
use std::path::Path;

/// Why a single test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// An assertion failed; the property does not hold.
    Fail(String),
    /// The input was rejected (unused by this workspace, kept for parity).
    Reject(String),
}

impl TestCaseError {
    /// Builds a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
            TestCaseError::Reject(m) => write!(f, "input rejected: {m}"),
        }
    }
}

/// Runner configuration; only `cases` is consulted.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
    /// Accepted for source compatibility with the real crate; this shim
    /// does not shrink failing inputs.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    /// 64 cases, unless the `PROPTEST_CASES` environment variable holds
    /// another count: as in the real crate, it sets the default, and a
    /// property that names its own `cases` keeps them.
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES").ok().and_then(|n| n.parse().ok());
        ProptestConfig { cases: cases.unwrap_or(64), max_shrink_iters: 1024 }
    }
}

/// Deterministic xorshift64* generator.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    fn new(seed: u64) -> Self {
        TestRng { state: seed | 1 }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform-ish value in `[0, bound)`; `bound` must be non-zero.
    fn below(&mut self, bound: u128) -> u128 {
        u128::from(self.next_u64()) % bound
    }
}

fn fnv_seed(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A source of random values of one type.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Types with a canonical "whole domain" strategy.
pub trait Arbitrary: Sized {
    /// Samples one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// The whole-domain strategy for `T` (see [`any`]).
pub struct Any<T>(PhantomData<T>);

/// Returns a strategy over all values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! int_arbitrary {
    ($($ty:ty)*) => {$(
        impl Arbitrary for $ty {
            fn arbitrary(rng: &mut TestRng) -> $ty {
                rng.next_u64() as $ty
            }
        }

        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                let width = (self.end as i128) - (self.start as i128);
                assert!(width > 0, "empty range strategy");
                ((self.start as i128) + rng.below(width as u128) as i128) as $ty
            }
        }
    )*};
}

int_arbitrary!(u8 u16 u32 u64 usize i8 i16 i32 i64 isize);

macro_rules! tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A: 0);
tuple_strategy!(A: 0, B: 1);
tuple_strategy!(A: 0, B: 1, C: 2);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8, J: 9);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec<T>` with length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------------------
// String pattern strategies: "[class]{m,n}"
// ---------------------------------------------------------------------------

fn unsupported_pattern(pattern: &str) -> ! {
    panic!("string strategy shim supports only \"[class]{{m,n}}\" patterns, got {pattern:?}")
}

/// Reads one class atom, handling `\n`-style escapes; `None` at `]` or end.
fn read_class_atom(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<char> {
    match chars.next() {
        Some('\\') => match chars.next() {
            Some('n') => Some('\n'),
            Some('t') => Some('\t'),
            other => other,
        },
        Some(']') => None,
        other => other,
    }
}

fn parse_char_class(pattern: &str) -> (Vec<char>, Range<usize>) {
    let mut chars = pattern.chars().peekable();
    if chars.next() != Some('[') {
        unsupported_pattern(pattern);
    }
    let mut alphabet = Vec::new();
    while let Some(lo) = read_class_atom(&mut chars) {
        // A dash forms a range unless it is the last char before `]`.
        if chars.peek() == Some(&'-') {
            let mut ahead = chars.clone();
            ahead.next();
            if ahead.peek() != Some(&']') {
                chars.next();
                let Some(hi) = read_class_atom(&mut chars) else {
                    unsupported_pattern(pattern)
                };
                alphabet.extend(lo..=hi);
                continue;
            }
        }
        alphabet.push(lo);
    }
    if alphabet.is_empty() {
        unsupported_pattern(pattern);
    }
    let rest: String = chars.collect();
    let Some(counts) = rest.strip_prefix('{').and_then(|r| r.strip_suffix('}')) else {
        unsupported_pattern(pattern)
    };
    let size = match counts.split_once(',') {
        Some((m, n)) => {
            let m: usize = m.trim().parse().unwrap_or_else(|_| unsupported_pattern(pattern));
            let n: usize = n.trim().parse().unwrap_or_else(|_| unsupported_pattern(pattern));
            m..n + 1
        }
        None => {
            let n: usize = counts.trim().parse().unwrap_or_else(|_| unsupported_pattern(pattern));
            n..n + 1
        }
    };
    (alphabet, size)
}

impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (alphabet, size) = parse_char_class(self);
        let len = size.generate(rng);
        (0..len)
            .map(|_| alphabet[rng.below(alphabet.len() as u128) as usize])
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Persisted-regression support: the `cc <hex>` seed files the real
/// proptest writes next to a test source (`foo.rs` →
/// `foo.proptest-regressions`).
///
/// The shim treats the first 16 hex digits of a `cc` hash as an RNG
/// seed: replaying a seed regenerates the input that failed under this
/// shim, and seeds persisted by the real crate still replay as
/// deterministic (if not bit-identical) extra cases. Lines starting
/// with `#` and blank lines are ignored, matching the upstream format.
pub mod regression {
    use std::path::{Path, PathBuf};

    /// Parses the seeds out of a regressions file's contents.
    pub fn seeds_from_str(contents: &str) -> Vec<u64> {
        contents
            .lines()
            .filter_map(|line| {
                let rest = line.trim().strip_prefix("cc ")?;
                let hex: String = rest.chars().take_while(char::is_ascii_hexdigit).collect();
                u64::from_str_radix(hex.get(..16).unwrap_or(&hex), 16).ok()
            })
            .collect()
    }

    /// The `cc` line to persist for a failing seed — 64 hex digits like
    /// upstream, with the seed in the leading 16.
    pub fn cc_line(seed: u64) -> String {
        format!("cc {seed:016x}{:048}", 0)
    }

    /// Locates `<source_file>.proptest-regressions`. `source_file` is a
    /// `file!()` path, which rustc renders relative to the *workspace*
    /// root while the test binary runs from the *package* root — so the
    /// lookup walks up from the current directory until the relative
    /// path resolves (mirrors how cargo itself finds workspace files).
    pub fn locate(source_file: &str) -> Option<PathBuf> {
        let rel = Path::new(source_file).with_extension("proptest-regressions");
        if rel.is_absolute() {
            return rel.exists().then_some(rel);
        }
        let mut dir = std::env::current_dir().ok()?;
        loop {
            let candidate = dir.join(&rel);
            if candidate.exists() {
                return Some(candidate);
            }
            if !dir.pop() {
                return None;
            }
        }
    }

    /// Loads the persisted seeds for a test source file, if any.
    pub fn persisted_seeds(source_file: &str) -> Vec<u64> {
        if source_file.is_empty() {
            return Vec::new();
        }
        locate(source_file)
            .and_then(|p| std::fs::read_to_string(p).ok())
            .map(|s| seeds_from_str(&s))
            .unwrap_or_default()
    }
}

/// Runs `config.cases` generated cases of `f`, after first replaying any
/// seeds persisted in `<source_file>.proptest-regressions`; panics on
/// the first failure. A fresh failure reports the `cc` line to persist.
///
/// Used by the `proptest!` macro; not intended to be called directly.
pub fn run_cases_persisted<S, F>(
    config: ProptestConfig,
    strategy: S,
    mut f: F,
    name: &str,
    source_file: &str,
) where
    S: Strategy,
    F: FnMut(S::Value) -> Result<(), TestCaseError>,
{
    for seed in regression::persisted_seeds(source_file) {
        let mut rng = TestRng::new(seed);
        if let Err(e) = f(strategy.generate(&mut rng)) {
            panic!(
                "property `{name}` failed on persisted regression `{}`: {e}",
                regression::cc_line(seed)
            );
        }
    }
    let mut rng = TestRng::new(fnv_seed(name));
    for case in 0..config.cases {
        // Snapshot the stream position so this exact case can be
        // replayed standalone from a persisted `cc` seed.
        let case_seed = rng.state;
        if let Err(e) = f(strategy.generate(&mut rng)) {
            panic!(
                "property `{name}` failed at case {case}/{}: {e}\n\
                 to persist this case, add to {}:\n{}",
                config.cases,
                Path::new(source_file)
                    .with_extension("proptest-regressions")
                    .display(),
                regression::cc_line(case_seed),
            );
        }
    }
}

/// Runs `config.cases` generated cases of `f` with no regression file;
/// panics on the first failure. Kept for direct callers — the
/// `proptest!` macro uses [`run_cases_persisted`].
pub fn run_cases<S, F>(config: ProptestConfig, strategy: S, f: F, name: &str)
where
    S: Strategy,
    F: FnMut(S::Value) -> Result<(), TestCaseError>,
{
    run_cases_persisted(config, strategy, f, name, "");
}

/// Declares property tests: `fn name(arg in strategy, ...) { body }` items,
/// optionally preceded by `#![proptest_config(expr)]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg ($cfg:expr)) => {};
    (@cfg ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::run_cases_persisted(
                $cfg,
                ($($strat,)+),
                |($($arg,)+)| {
                    $body
                    ::core::result::Result::Ok(())
                },
                stringify!($name),
                file!(),
            );
        }
        $crate::__proptest_impl! { @cfg ($cfg) $($rest)* }
    };
}

/// Asserts a condition inside a `proptest!` body, failing the case (not
/// panicking) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: {:?} != {:?}", left, right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(left == right, $($fmt)*);
    }};
}

/// The glob-importable API surface, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{any, Arbitrary, ProptestConfig, Strategy, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn determinism() {
        let mut a = super::TestRng::new(super::fnv_seed("x"));
        let mut b = super::TestRng::new(super::fnv_seed("x"));
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn char_class_parses_ranges_and_trailing_dash() {
        let (alphabet, size) = super::parse_char_class("[a-z0-9=-]{0,5}");
        assert!(alphabet.contains(&'a') && alphabet.contains(&'9'));
        assert!(alphabet.contains(&'-') && alphabet.contains(&'='));
        assert_eq!(size, 0..6);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in -5i64..5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5..5).contains(&y));
        }

        #[test]
        fn vec_lengths_respect_size(v in crate::collection::vec(any::<u8>(), 2..9)) {
            prop_assert!((2..9).contains(&v.len()));
        }

        #[test]
        fn string_patterns_draw_from_class(s in "[a-c]{1,4}") {
            prop_assert!(!s.is_empty() && s.len() <= 4);
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }

        #[test]
        fn prop_map_applies(x in (0u32..10, 0u32..10).prop_map(|(a, b)| a + b)) {
            prop_assert!(x < 19);
        }
    }
}
