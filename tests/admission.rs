//! End-to-end tests of the hostile-module admission pipeline: untrusted
//! serialized images registered via `register_library_image` must either
//! load exactly like trusted modules or be rejected with `dlopen`
//! returning 0 and the process state byte-for-byte intact — no panics,
//! no partial loads, no policy drift.

use mcfi::{
    compile_module, AdmissionError, BuildOptions, CodegenOptions, DecodeLimits, FaultPlan,
    FaultPoint, LoadError, Module, Outcome, Policy, Process, ProcessOptions, QuarantineConfig,
    QuarantineReason, System, WireErrorKind,
};
use mcfi_fuzz::{check_image, default_corpus, regression_mutants, run_fuzz, Disposition};

fn opts() -> BuildOptions {
    BuildOptions::default()
}

fn lib_image(name: &str, src: &str) -> Vec<u8> {
    compile_module(name, src, &opts())
        .expect("library compiles")
        .to_bytes()
        .expect("library serializes")
}

const DLOPEN_TWICE_SRC: &str = r#"
    int dlopen(char* name);
    void* dlsym(char* name);
    int main(void) {
        int first = dlopen("libu");
        int second = dlopen("libu");
        int r = 0;
        int (*w)(int) = (int(*)(int))dlsym("u_fn");
        if (w) { r = w(20); }
        return r + second * 100 + first * 10000;
    }
"#;

/// The happy path: a clean untrusted image passes budgeted decode,
/// validation, and the in-transaction verifier, and behaves exactly like
/// a trusted `register_library` module.
#[test]
fn clean_image_is_admitted_and_runs() {
    let image = lib_image("libu", "int u_fn(int v) { return v + 3; }");
    let mut sys = System::boot_source(
        r#"
        int dlopen(char* name);
        void* dlsym(char* name);
        int main(void) {
            int ok = dlopen("libu");
            if (!ok) { return -1; }
            int (*w)(int) = (int(*)(int))dlsym("u_fn");
            if (!w) { return -2; }
            return w(39);
        }
    "#,
        &opts(),
    )
    .expect("boots");
    sys.register_library_image("libu", image);
    let r = sys.run().expect("runs");
    assert_eq!(r.outcome, Outcome::Exit { code: 42 }, "stdout: {}", r.stdout);
    assert_eq!(r.admission_rejects, 0);
    assert!(r.updates >= 1, "the admitted image ran an update transaction");
}

/// A corrupt image is refused before any loader state changes: `dlopen`
/// returns 0, the GOT area, symbol table, and sandbox generation are
/// untouched, and a later clean image still loads in the same process.
#[test]
fn malformed_image_rejects_with_process_state_intact() {
    let good = lib_image("libu", "int u_fn(int v) { return v + 1; }");
    let mut bad = good.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0xff;
    bad.truncate(bad.len() - bad.len() / 8);

    let mut sys = System::boot_source(DLOPEN_TWICE_SRC, &opts()).expect("boots");
    sys.register_library_image("libu", bad);

    let data_base = ProcessOptions::default().layout.data_base as usize;
    let p = sys.process();
    let got_before = p.mem().raw()[data_base..data_base + 0x1000].to_vec();
    let gen_before = p.mem().generation();

    let r = sys.run().expect("runs");
    // Both dlopens fail (the image stays registered, and stays corrupt):
    // first = 0, second = 0, w = null so r = 0.
    assert_eq!(r.outcome, Outcome::Exit { code: 0 }, "stdout: {}", r.stdout);
    assert!(r.admission_rejects >= 2, "every attempt was refused by admission");
    assert_eq!(r.load_rollbacks, 0, "decode rejects never even open a load transaction");
    assert_eq!(r.updates, 0, "no update transaction ran");

    let p = sys.process();
    assert_eq!(
        p.mem().raw()[data_base..data_base + 0x1000],
        got_before[..],
        "GOT/PLT bytes untouched"
    );
    assert_eq!(p.mem().generation(), gen_before, "no sandbox churn on a decode reject");
    assert!(p.symbol("u_fn").is_none(), "nothing of the module was linked");

    // The same process still admits a clean image afterwards: the first
    // dlopen succeeds (and consumes the registry entry), the second
    // finds nothing, and the symbol resolves.
    p.register_library_image("libu", good);
    let r = sys.run().expect("runs");
    assert_eq!(r.outcome, Outcome::Exit { code: 10021 }, "stdout: {}", r.stdout);
}

/// A direct-call relocation placed in data: `int g = 5;` with a
/// `CallRel("id")` patching data offset 0. Codegen puts only function
/// and global addresses in data, and the loader has no meaning for a
/// code-only kind there, so admission refuses the image as malformed,
/// naming the relocation and its kind, before any loader state changes.
#[test]
fn a_code_only_relocation_in_data_is_refused_with_state_intact() {
    let mut module = compile_module(
        "libu",
        "int g = 5;\nint id(int x) { return x; }\nint u_fn(int v) { return id(v) + g; }",
        &opts(),
    )
    .expect("library compiles");
    assert_eq!(module.globals["g"].offset, 0, "g sits at data offset 0");
    module.data_relocs.push(mcfi_module::Reloc {
        patch_at: 0,
        kind: mcfi_module::RelocKind::CallRel("id".into()),
    });
    let image = module.to_bytes().expect("serializes");

    match Module::decode_image(&image, &DecodeLimits::admission()) {
        Err(AdmissionError::Malformed { offset: 0, what }) => {
            assert!(what.contains("data reloc") && what.contains("CallRel(\"id\")"), "{what}");
        }
        other => panic!("a CallRel in data must be malformed, got {other:?}"),
    }

    let mut sys = System::boot_source(DLOPEN_TWICE_SRC, &opts()).expect("boots");
    let data_base = ProcessOptions::default().layout.data_base as usize;
    let p = sys.process();
    let got_before = p.mem().raw()[data_base..data_base + 0x1000].to_vec();
    let gen_before = p.mem().generation();
    let err = p.load_image(image.clone()).expect_err("a CallRel in data must be refused");
    assert!(
        matches!(err, LoadError::Admission(AdmissionError::Malformed { .. })),
        "{err}"
    );
    sys.register_library_image("libu", image);
    let r = sys.run().expect("runs");
    assert_eq!(r.outcome, Outcome::Exit { code: 0 }, "stdout: {}", r.stdout);
    assert!(r.admission_rejects >= 3, "the direct load and both dlopens were refused");
    assert_eq!(r.updates, 0, "no update transaction ran");
    let p = sys.process();
    assert_eq!(p.mem().raw()[data_base..data_base + 0x1000], got_before[..], "GOT untouched");
    assert_eq!(p.mem().generation(), gen_before, "no sandbox churn on an admission reject");
    assert!(p.symbol("u_fn").is_none() && p.symbol("id").is_none(), "nothing was linked");
}

/// A wire-valid but *uninstrumented* module decodes fine and fails the
/// machine-code verifier inside the load transaction: the reject is a
/// real rollback (generation advances, GOT unchanged), surfaced as
/// `AdmissionError::VerifierReject`.
#[test]
fn uninstrumented_module_is_rejected_by_the_in_transaction_verifier() {
    let nocfi = CodegenOptions { policy: Policy::NoCfi, tail_calls: true };
    let module = mcfi_codegen::compile_source("libraw", "int raw_fn(int v) { return v; }", &nocfi)
        .expect("compiles");
    let image = module.to_bytes().expect("serializes");

    let mut sys = System::boot_source(DLOPEN_TWICE_SRC, &opts()).expect("boots");
    let data_base = ProcessOptions::default().layout.data_base as usize;
    let p = sys.process();
    let got_before = p.mem().raw()[data_base..data_base + 0x1000].to_vec();
    let gen_before = p.mem().generation();

    let err = p.load_image(image).expect_err("an uninstrumented module must not verify");
    assert!(
        matches!(err, LoadError::Admission(AdmissionError::VerifierReject { .. })),
        "{err}"
    );
    assert_eq!(p.load_rollbacks(), 1, "the verifier reject rolled back a real transaction");
    assert_eq!(p.admission_rejects(), 1);
    assert!(p.mem().generation() > gen_before, "rollback advances the sandbox generation");
    assert_eq!(p.mem().raw()[data_base..data_base + 0x1000], got_before[..]);
    assert!(p.symbol("raw_fn").is_none(), "the module is fully unloaded");
}

/// An import that no loaded module defines makes the load place a PLT
/// stub after the plugin. The verifier must still check the plugin it
/// was handed: an uninstrumented plugin with such an import is refused,
/// and the rollback removes both the plugin and its stub.
#[test]
fn a_fresh_import_does_not_hide_a_plugin_from_the_verifier() {
    let nocfi = CodegenOptions { policy: Policy::NoCfi, tail_calls: true };
    let src = "int never_defined_anywhere(int x);\n\
               int evil(int* p, int (*f)(int)) { *p = 1; int r = f(2); return r; }\n\
               int bounce(int x) { int r = never_defined_anywhere(x); return r; }";
    let module = mcfi_codegen::compile_source("evil_import", src, &nocfi).expect("compiles");
    let image = module.to_bytes().expect("serializes");

    let mut sys = System::boot_source("int main(void) { return 0; }", &opts()).expect("boots");
    let p = sys.process();
    let loaded_before = p.loaded();
    let err = p.load_image(image).expect_err("an uninstrumented plugin must not verify");
    assert!(
        matches!(err, LoadError::Admission(AdmissionError::VerifierReject { .. })),
        "{err}"
    );
    assert_eq!(p.admission_rejects(), 1);
    assert_eq!(p.load_rollbacks(), 1);
    assert_eq!(p.loaded(), loaded_before, "neither the plugin nor its PLT stub stays loaded");
    assert!(p.symbol("bounce").is_none());
}

/// Every truncation of a real image is rejected without a panic — the
/// decoder validates each length prefix against the remaining input, so
/// there is no cut point that allocates or loops before failing.
#[test]
fn every_truncation_of_a_real_image_is_rejected_cleanly() {
    let image = lib_image("libt", "int t_fn(int v) { return v * 5; }");
    let limits = DecodeLimits::admission();
    for cut in 0..image.len() {
        match Module::decode_image(&image[..cut], &limits) {
            Ok(_) => panic!("truncation to {cut} bytes decoded a whole module"),
            Err(AdmissionError::Malformed { offset, .. }) => {
                assert!(offset <= cut, "error offset {offset} past the {cut}-byte input")
            }
            Err(AdmissionError::LimitExceeded { .. }) => {}
            Err(e) => panic!("truncation to {cut}: unexpected error class {e}"),
        }
    }
}

/// The decode budgets are exact at the boundary, end-to-end: a process
/// whose admission limits equal the image's demands admits it, and
/// shrinking any axis by one rejects it with the matching
/// `LimitExceeded` axis.
#[test]
fn decode_limits_are_exact_at_the_boundary_end_to_end() {
    let image = lib_image("libb", "int b_fn(int v) { return v - 7; }");
    let exact = DecodeLimits { max_input_bytes: image.len(), ..DecodeLimits::admission() };
    let mut p = Process::new(ProcessOptions { admission: exact, ..Default::default() })
        .expect("valid layout");
    p.load_image(image.clone()).expect("the exact input budget admits the image");

    let tight =
        DecodeLimits { max_input_bytes: image.len() - 1, ..DecodeLimits::admission() };
    let mut p = Process::new(ProcessOptions { admission: tight, ..Default::default() })
        .expect("valid layout");
    let err = p.load_image(image).expect_err("one byte under must reject");
    match err {
        LoadError::Admission(AdmissionError::LimitExceeded { which, limit, actual }) => {
            assert_eq!(which, "input-bytes");
            assert_eq!(actual, limit + 1);
        }
        other => panic!("expected an input-bytes limit reject, got {other}"),
    }
    assert_eq!(p.admission_rejects(), 1);
}

/// A hostile length prefix deep inside the image must die on the length
/// budget (or as malformed), never by attempting the allocation.
#[test]
fn huge_length_prefix_is_refused_on_the_budget() {
    let mut image = lib_image("libh", "int h_fn(int v) { return v; }");
    // The first field after the name-length prefix: stamp a 2^64-ish
    // count where the code-vector length lives.
    let name_len = 8 + 4; // u64 prefix + "libh"
    if image.len() >= name_len + 8 {
        image[name_len..name_len + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    }
    let err = Module::decode_image(&image, &DecodeLimits::admission())
        .expect_err("a 2^64 length must be refused");
    match err {
        AdmissionError::LimitExceeded { which, .. } => assert_eq!(which, "length"),
        AdmissionError::Malformed { .. } => {}
        other => panic!("unexpected error class: {other}"),
    }
}

/// The fixed regression corpus — the attack shapes each hardening was
/// built for — runs through the full pipeline oracle on every test run.
#[test]
fn fixed_regression_mutants_never_violate_the_oracle() {
    let corpus = default_corpus();
    let limits = DecodeLimits::admission();
    for (name, bytes) in regression_mutants(&corpus) {
        match check_image(&bytes, &limits) {
            Ok(_) => {}
            Err(v) => panic!("regression mutant `{name}` violated the oracle: {v}"),
        }
    }
    // And the unmutated corpus is admitted end-to-end.
    for (i, image) in corpus.iter().enumerate() {
        assert_eq!(
            check_image(image, &limits).unwrap_or_else(|v| panic!("corpus {i}: {v}")),
            Disposition::Admitted,
            "corpus image {i}"
        );
    }
}

/// The `malformed-image` chaos point corrupts a live load: the guest
/// sees the first `dlopen` fail, quarantine records the failure, and the
/// retry (plan spent, image pristine) succeeds in the same process.
#[test]
fn malformed_image_chaos_fault_rejects_then_retry_succeeds() {
    let image = lib_image("libu", "int u_fn(int v) { return v + 1; }");
    let mut sys = System::boot_source(DLOPEN_TWICE_SRC, &opts()).expect("boots");
    sys.register_library_image("libu", image);
    sys.process().set_quarantine(QuarantineConfig { base_backoff: 0, ..Default::default() });
    let injector = sys
        .process()
        .arm_chaos(FaultPlan::new().with(FaultPoint::MalformedImage, 1, 97));

    let r = sys.run().expect("runs");
    // first = 0 (corrupted in flight), second = 1, w(20) = 21.
    assert_eq!(r.outcome, Outcome::Exit { code: 121 }, "stdout: {}", r.stdout);
    assert_eq!(r.admission_rejects, 1);
    assert!(injector.fired().iter().any(|f| f.point == FaultPoint::MalformedImage));
}

/// Repeated admission failures feed the quarantine machinery with the
/// `MalformedImage` reason: past the failure budget the library is
/// banned and `dlopen` is refused without touching the image again.
#[test]
fn repeated_admission_failures_quarantine_the_library() {
    let mut bad = lib_image("libu", "int u_fn(int v) { return v; }");
    bad.truncate(bad.len() / 2);

    let guest = r#"
        int dlopen(char* name);
        int main(void) {
            int n = 0;
            n = n + dlopen("libu");
            n = n + dlopen("libu");
            n = n + dlopen("libu");
            return n;
        }
    "#;
    let mut sys = System::boot_source(guest, &opts()).expect("boots");
    sys.register_library_image("libu", bad);
    sys.process().set_quarantine(QuarantineConfig {
        max_failures: 2,
        base_backoff: 0,
        seed: 1,
    });

    let r = sys.run().expect("runs");
    assert_eq!(r.outcome, Outcome::Exit { code: 0 }, "every dlopen failed");
    assert_eq!(r.quarantines, 1, "the second failure banned the library");
    assert_eq!(r.admission_rejects, 2, "the third attempt was refused without a decode");

    let report = sys.process().quarantine_report();
    assert_eq!(report.len(), 1);
    assert_eq!(report[0].library, "libu");
    assert!(report[0].banned);
    assert_eq!(report[0].reason, QuarantineReason::MalformedImage);
    assert!(report[0].last_error.contains("admission"), "{}", report[0].last_error);
    assert_eq!(sys.process().quarantine_denials(), 1);
}

/// The acceptance fuzz run, kept short enough for the test suite: three
/// fixed seeds over the real corpus with zero oracle violations. (CI's
/// `fuzz-smoke` job runs the full 10 000 iterations per seed in release
/// mode; override locally with `MCFI_FUZZ_ITERS`.)
#[test]
fn fuzz_seeds_one_two_three_find_no_violations() {
    let iters: u64 = std::env::var("MCFI_FUZZ_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000);
    let corpus = default_corpus();
    let limits = DecodeLimits::admission();
    for seed in [1, 2, 3] {
        let report = run_fuzz(seed, iters, &corpus, &limits);
        assert!(
            report.ok(),
            "seed {seed}: {} violations, first: {}",
            report.failures.len(),
            report.failures[0].violation
        );
        let total = report.decode_rejects
            + report.verifier_rejects
            + report.load_rejects
            + report.admitted;
        assert_eq!(total, iters, "every iteration reached a disposition");
        assert!(report.decode_rejects > 0, "mutations actually exercised the decoder");
    }
}

/// Decode errors carry the byte offset and field path to the hostile
/// byte — the debugging contract for admission failures.
#[test]
fn decode_errors_locate_the_hostile_byte() {
    let image = lib_image("libe", "int e_fn(int v) { return v; }");
    let err = Module::decode_image(&image[..image.len() / 3], &DecodeLimits::admission())
        .expect_err("truncation rejects");
    match err {
        AdmissionError::Malformed { offset, what } => {
            assert!(offset <= image.len() / 3);
            assert!(what.contains("Module"), "path names the root struct: {what}");
        }
        other => panic!("expected Malformed with location, got {other}"),
    }
    // The same location flows through the wire-level error type.
    let wire_err = mcfi_module::wire::from_bytes_limited::<Module>(
        &image[..image.len() / 3],
        &DecodeLimits::admission(),
    )
    .expect_err("truncation rejects");
    assert_eq!(*wire_err.kind(), WireErrorKind::Malformed);
    assert!(wire_err.offset().is_some());
}
