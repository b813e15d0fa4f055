//! A deterministic, dependency-free mutational fuzzer for the module
//! admission pipeline.
//!
//! The attack surface under test is everything a hostile `dlopen`
//! reaches: the budgeted wire decoder ([`mcfi_module::DecodeLimits`]),
//! the structural validator ([`Module::validate`] via
//! [`Module::decode_image`]), the machine-code verifier, and the
//! transactional loader. The corpus is a set of *real* serialized module
//! images (compiled from MiniC sources, including a generated SPEC-like
//! workload); each iteration applies a short stack of structure-aware
//! byte mutations and feeds the result through the whole pipeline.
//!
//! The oracle accepts exactly two behaviors:
//!
//! 1. the pipeline returns an error (the image is rejected), or
//! 2. the image decodes to a semantically valid module — one whose
//!    re-encoding decodes back to an *equal* module (the round-trip
//!    differential `decode(to_bytes(decode(x))) == decode(x)`) and
//!    which the verifier and loader handle without panicking.
//!
//! The oracle compares modules, not bytes. The byte fixpoint
//! `to_bytes(decode(x)) == x` holds for every image `to_bytes` writes
//! (`tests/module_bytes.rs` checks it on every shipped module), but not
//! for every image the decoder accepts: a mutant may list map entries
//! out of order, which decode to the same module and re-encode sorted.
//!
//! Anything else — a panic anywhere, a budget the decoder failed to
//! enforce, a round-trip mismatch — is a [`Violation`].
//!
//! Everything is seeded, and a module serializes to the same bytes in
//! every process (its type environment keeps ordered maps), so the
//! corpus, and with it every mutant, is the same from run to run:
//! `run_fuzz(seed, iters, ..)` replays byte-for-byte, in this process or
//! another, and a CI failure reproduces locally with
//! `cargo run -p mcfi-fuzz -- --seed N --iters M`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use mcfi_codegen::{compile_source, CodegenOptions};
use mcfi_module::{DecodeLimits, Module, Reloc, RelocKind};
use mcfi_runtime::{Process, ProcessOptions};
use mcfi_workloads::Variant;

/// xorshift64* PRNG: deterministic, seedable, no external dependencies.
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator; nearby seeds are scrambled apart.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 scramble so seeds 1, 2, 3 yield uncorrelated streams.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift64 { state: (z ^ (z >> 31)) | 1 }
    }

    /// The next 64 random bits.
    pub fn gen(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform value in `0..bound` (`bound` must be non-zero).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.gen() % bound.max(1) as u64) as usize
    }
}

/// The mutation operators, mirroring how real images go wrong: random
/// corruption, hostile length prefixes, truncated downloads, cross-image
/// splices, and out-of-range enum tags.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mutation {
    /// Flip 1–8 random bits.
    BitFlip,
    /// Overwrite 8 bytes at a random offset with a hostile length
    /// (`u64::MAX`, `2^32`, or a large multiple of the image size) —
    /// wherever it lands, some length prefix or offset field may absorb
    /// it.
    LengthWarp,
    /// Cut the image to a random prefix.
    Truncate,
    /// Copy a random chunk of a donor image over a random offset.
    Splice,
    /// Overwrite 4 bytes with an out-of-range value (enum variant tags
    /// and many counts are `u32`).
    TagWarp,
}

/// All mutation operators, for iteration and reporting.
pub const MUTATIONS: [Mutation; 5] = [
    Mutation::BitFlip,
    Mutation::LengthWarp,
    Mutation::Truncate,
    Mutation::Splice,
    Mutation::TagWarp,
];

/// Applies one mutation to `bytes` (in place except truncation),
/// drawing randomness and the donor image from the arguments.
pub fn mutate(bytes: &mut Vec<u8>, m: Mutation, donor: &[u8], rng: &mut XorShift64) {
    if bytes.is_empty() {
        return;
    }
    match m {
        Mutation::BitFlip => {
            let flips = 1 + rng.below(8);
            for _ in 0..flips {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
        }
        Mutation::LengthWarp => {
            if bytes.len() < 8 {
                return;
            }
            let at = rng.below(bytes.len() - 7);
            let warp = match rng.below(3) {
                0 => u64::MAX,
                1 => 1 << 32,
                _ => (bytes.len() as u64).saturating_mul(1 + rng.gen() % 1024),
            };
            bytes[at..at + 8].copy_from_slice(&warp.to_le_bytes());
        }
        Mutation::Truncate => {
            let keep = rng.below(bytes.len());
            bytes.truncate(keep);
        }
        Mutation::Splice => {
            if donor.is_empty() {
                return;
            }
            let from = rng.below(donor.len());
            let len = (1 + rng.below(64)).min(donor.len() - from);
            let at = rng.below(bytes.len());
            let len = len.min(bytes.len() - at);
            bytes[at..at + len].copy_from_slice(&donor[from..from + len]);
        }
        Mutation::TagWarp => {
            if bytes.len() < 4 {
                return;
            }
            let at = rng.below(bytes.len() - 3);
            let tag: u32 = if rng.below(2) == 0 { u32::MAX } else { rng.gen() as u32 };
            bytes[at..at + 4].copy_from_slice(&tag.to_le_bytes());
        }
    }
}

/// An oracle violation: the one thing the admission pipeline must never
/// do with a hostile image.
#[derive(Clone, Debug)]
pub enum Violation {
    /// A pipeline stage panicked instead of returning an error.
    Panic {
        /// Which stage: `decode`, `reencode`, `redecode`, `verify`, `load`.
        stage: &'static str,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// An admitted module failed the round-trip differential:
    /// `to_bytes(decode(x))` must decode back to an equal module.
    RoundTrip {
        /// What broke: `reencode-failed`, `redecode-failed`, or
        /// `module-mismatch`.
        what: &'static str,
        /// Details for the report.
        detail: String,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Panic { stage, message } => write!(f, "panic in {stage}: {message}"),
            Violation::RoundTrip { what, detail } => write!(f, "round-trip {what}: {detail}"),
        }
    }
}

/// Where an image that did not violate the oracle ended up.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Disposition {
    /// The budgeted decoder or structural validator refused it.
    DecodeRejected,
    /// It decoded, but the machine-code verifier refused it.
    VerifierRejected,
    /// It decoded and verified, but the loader refused it (region
    /// exhaustion, unresolved symbols, type clashes, …).
    LoadRejected,
    /// The full pipeline admitted it.
    Admitted,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn guarded<T>(stage: &'static str, f: impl FnOnce() -> T) -> Result<T, Violation> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|p| Violation::Panic { stage, message: panic_message(p) })
}

/// Runs one image through the whole admission pipeline and applies the
/// oracle. Used by the fuzz loop and, directly, by the fixed regression
/// corpus in the integration tests.
///
/// # Errors
///
/// Returns the [`Violation`] when the pipeline panics or an admitted
/// module fails the round-trip differential.
pub fn check_image(bytes: &[u8], limits: &DecodeLimits) -> Result<Disposition, Violation> {
    // Stage 1: budgeted decode + structural validation.
    let module = match guarded("decode", || Module::decode_image(bytes, limits))? {
        Ok(m) => m,
        Err(_) => return Ok(Disposition::DecodeRejected),
    };

    // Stage 2: the round-trip differential. A module that passed
    // validation is semantically valid, so its re-encoding must decode
    // back to an equal module under the same budget.
    let canonical = match guarded("reencode", || module.to_bytes())? {
        Ok(b) => b,
        Err(e) => {
            return Err(Violation::RoundTrip { what: "reencode-failed", detail: e.to_string() })
        }
    };
    let redecoded = match guarded("redecode", || Module::decode_image(&canonical, limits))? {
        Ok(m) => m,
        Err(e) => {
            return Err(Violation::RoundTrip { what: "redecode-failed", detail: e.to_string() })
        }
    };
    if redecoded != module {
        return Err(Violation::RoundTrip {
            what: "module-mismatch",
            detail: format!("`{}` re-decoded as `{}`", module.name, redecoded.name),
        });
    }

    // Stage 3: the machine-code verifier must never panic on a decoded
    // module, however mangled its code image is.
    let verified = guarded("verify", || mcfi_verifier::verify(&module).ok())?;

    // Stage 4: the transactional loader (which re-runs the verifier
    // in-transaction) must reject or admit without panicking, and a
    // reject must leave the fresh process loadable state untouched —
    // rollback correctness is asserted end-to-end in tests/admission.rs;
    // here the oracle is "no panic".
    let loaded = guarded("load", || {
        let Ok(mut p) = Process::new(ProcessOptions::default()) else {
            return false;
        };
        p.load_untrusted(module).is_ok()
    })?;

    Ok(match (verified, loaded) {
        (false, _) => Disposition::VerifierRejected,
        (true, false) => Disposition::LoadRejected,
        (true, true) => Disposition::Admitted,
    })
}

/// One oracle failure, with everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The seed of the run that found it.
    pub seed: u64,
    /// The iteration within that run.
    pub iteration: u64,
    /// The mutations applied this iteration, in order.
    pub mutations: Vec<Mutation>,
    /// The exact input that triggered the violation.
    pub input: Vec<u8>,
    /// What went wrong.
    pub violation: Violation,
}

/// Summary of a fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Iterations executed.
    pub iters: u64,
    /// Images refused by decode/validation.
    pub decode_rejects: u64,
    /// Images refused by the verifier.
    pub verifier_rejects: u64,
    /// Images refused by the loader.
    pub load_rejects: u64,
    /// Images admitted end-to-end.
    pub admitted: u64,
    /// Oracle violations (empty = the run passed).
    pub failures: Vec<Failure>,
}

impl FuzzReport {
    /// Whether the run found no violations.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compiles the default corpus: real module images spanning the feature
/// surface (indirect calls, jump tables, data relocations, imports,
/// setjmp, floats) plus a generated SPEC-like workload module.
pub fn default_corpus() -> Vec<Vec<u8>> {
    let opts = CodegenOptions::default();
    let sources: Vec<(&str, String)> = vec![
        ("tiny", "int main(void) { return 42; }".to_string()),
        (
            "indirect",
            "int twice(int x) { return x * 2; }\n\
             int thrice(int x) { return x * 3; }\n\
             int main(void) { int (*f)(int); f = &twice; int a = f(1); f = &thrice; return a + f(2); }"
                .to_string(),
        ),
        (
            "features",
            "int buf[8];\n\
             void* malloc(int n);\n\
             int imported(int x);\n\
             float fma(float x) { return x * 2.5; }\n\
             struct ops { int (*apply)(int); int bias; };\n\
             int inc(int x) { return x + 1; }\n\
             int classify(int x) {\n\
               switch (x) { case 0: return 10; case 1: return 20; case 2: return 30; default: return -1; }\n\
               return 0;\n\
             }\n\
             int main(void) {\n\
               struct ops* o = (struct ops*)malloc(16);\n\
               o->apply = &inc;\n\
               if (setjmp(buf)) { return 1; }\n\
               int v = o->apply(classify(1));\n\
               return v + (int)fma(2.0) + imported(v);\n\
             }"
                .to_string(),
        ),
        ("workload", mcfi_workloads::source("lbm", Variant::Fixed)),
    ];
    sources
        .into_iter()
        .map(|(name, src)| {
            let module = compile_source(name, &src, &opts)
                .unwrap_or_else(|e| panic!("corpus source `{name}` must compile: {e}"));
            module.to_bytes().unwrap_or_else(|e| panic!("corpus `{name}` must serialize: {e}"))
        })
        .collect()
}

/// Runs `iters` mutational iterations from `seed` over `corpus`,
/// checking every mutant against the oracle. Deterministic: the same
/// (seed, iters, corpus, limits) replays byte-for-byte, and
/// [`default_corpus`] builds the same images in every process.
///
/// Panic output from the guarded stages is suppressed for the duration
/// of the run (a fuzzer expects to *catch* panics, not print 10 000
/// backtraces); the process-global hook is restored before returning.
pub fn run_fuzz(seed: u64, iters: u64, corpus: &[Vec<u8>], limits: &DecodeLimits) -> FuzzReport {
    assert!(!corpus.is_empty(), "fuzzing needs at least one corpus image");
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut rng = XorShift64::new(seed);
    let mut report = FuzzReport::default();
    for iteration in 0..iters {
        let base = rng.below(corpus.len());
        let donor = &corpus[rng.below(corpus.len())];
        let mut bytes = corpus[base].clone();
        let stack = 1 + rng.below(3);
        let mut mutations = Vec::with_capacity(stack);
        for _ in 0..stack {
            let m = MUTATIONS[rng.below(MUTATIONS.len())];
            mutate(&mut bytes, m, donor, &mut rng);
            mutations.push(m);
        }
        report.iters += 1;
        match check_image(&bytes, limits) {
            Ok(Disposition::DecodeRejected) => report.decode_rejects += 1,
            Ok(Disposition::VerifierRejected) => report.verifier_rejects += 1,
            Ok(Disposition::LoadRejected) => report.load_rejects += 1,
            Ok(Disposition::Admitted) => report.admitted += 1,
            Err(violation) => {
                report.failures.push(Failure { seed, iteration, mutations, input: bytes, violation });
            }
        }
    }

    std::panic::set_hook(prev_hook);
    report
}

/// Hand-written regression mutants: the attack shapes that motivated
/// each hardening, applied to the first corpus image or, where that
/// image lacks the part a shape attacks, to a module built for it. Kept
/// fixed (not random) so they run as plain tests forever.
pub fn regression_mutants(corpus: &[Vec<u8>]) -> Vec<(&'static str, Vec<u8>)> {
    let base = corpus.first().cloned().unwrap_or_default();
    let mut out: Vec<(&'static str, Vec<u8>)> = Vec::new();

    // A 2^64-ish element count in the first length prefix: must be
    // refused in O(1), not allocated or looped over.
    let mut huge = base.clone();
    if huge.len() >= 16 {
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    }
    out.push(("huge-length-prefix", huge));

    // Truncations at structurally interesting points.
    out.push(("empty", Vec::new()));
    out.push(("one-byte", base.get(..1).unwrap_or_default().to_vec()));
    out.push(("half", base.get(..base.len() / 2).unwrap_or_default().to_vec()));
    out.push(("minus-one", base.get(..base.len().saturating_sub(1)).unwrap_or_default().to_vec()));

    // An out-of-range u32 enum tag stamped across the image tail (where
    // relocation kinds and type tags live).
    let mut tag = base.clone();
    let at = tag.len().saturating_mul(3) / 4;
    if at + 4 <= tag.len() {
        tag[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    }
    out.push(("enum-tag-warp", tag));

    // A self-splice: the image's own header bytes stamped mid-body.
    let mut splice = base.clone();
    if splice.len() >= 64 {
        let chunk: Vec<u8> = splice[..32].to_vec();
        let mid = splice.len() / 2;
        splice[mid..mid + 32].copy_from_slice(&chunk);
    }
    out.push(("header-self-splice", splice));

    // A direct-call relocation in data (`int g = 5;` patched at data
    // offset 0): the loader has no meaning for it there, so admission
    // must refuse it rather than reach the loader.
    let mut module = compile_source(
        "data-call",
        "int g = 5;\nint id(int x) { return x; }\nint main(void) { return id(g); }",
        &CodegenOptions::default(),
    )
    .expect("the data-call source compiles");
    module.data_relocs.push(Reloc { patch_at: 0, kind: RelocKind::CallRel("id".into()) });
    out.push(("call-reloc-in-data", module.to_bytes().expect("the data-call module serializes")));

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_images_pass_the_pipeline_unmutated() {
        let limits = DecodeLimits::admission();
        for (i, image) in default_corpus().iter().enumerate() {
            match check_image(image, &limits) {
                Ok(Disposition::Admitted) => {}
                other => panic!("corpus image {i} must be admitted, got {other:?}"),
            }
        }
    }

    #[test]
    fn same_seed_replays_identically() {
        let corpus = default_corpus();
        let limits = DecodeLimits::admission();
        let a = run_fuzz(7, 50, &corpus, &limits);
        let b = run_fuzz(7, 50, &corpus, &limits);
        assert_eq!(a.decode_rejects, b.decode_rejects);
        assert_eq!(a.verifier_rejects, b.verifier_rejects);
        assert_eq!(a.load_rejects, b.load_rejects);
        assert_eq!(a.admitted, b.admitted);
        assert_eq!(a.failures.len(), b.failures.len());
    }

    #[test]
    fn different_seeds_diverge() {
        let corpus = default_corpus();
        let limits = DecodeLimits::admission();
        let a = run_fuzz(1, 50, &corpus, &limits);
        let b = run_fuzz(2, 50, &corpus, &limits);
        // Extremely unlikely to tie on every counter if the streams differ.
        let fingerprint = |r: &FuzzReport| (r.decode_rejects, r.verifier_rejects, r.load_rejects, r.admitted);
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn short_runs_on_three_ci_seeds_find_no_violations() {
        let corpus = default_corpus();
        let limits = DecodeLimits::admission();
        for seed in [1, 2, 3] {
            let r = run_fuzz(seed, 200, &corpus, &limits);
            assert!(r.ok(), "seed {seed}: {:?}", r.failures.first().map(|f| f.violation.clone()));
        }
    }

    #[test]
    fn regression_mutants_never_violate_the_oracle() {
        let corpus = default_corpus();
        let limits = DecodeLimits::admission();
        for (name, bytes) in regression_mutants(&corpus) {
            let r = check_image(&bytes, &limits);
            assert!(r.is_ok(), "mutant `{name}` violated the oracle: {:?}", r.err());
        }
    }
}
