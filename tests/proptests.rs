//! Property-based integration tests: randomized workload specs drive the
//! entire pipeline — generate MiniC, compile under both policies, verify,
//! run, and compare results.

use proptest::prelude::*;

use mcfi::{Arch, BuildOptions, Outcome, Policy, PolicyKind, System};
use mcfi_workloads::{generate, CastCounts, Spec, Variant};

fn small_spec_strategy() -> impl Strategy<Value = Spec> {
    (
        1usize..5,
        1usize..4,
        1usize..3,
        1usize..3,
        1usize..3,
        0usize..3,   // helpers
        20u64..120,  // iters
        0u64..6,     // compute
        0usize..2,   // k2 casts
        any::<bool>(),
    )
        .prop_map(|(f0, f1, f2, f3, f4, helpers, iters, compute, k2, unconventional)| Spec {
            name: "propwl",
            families: [f0, f1, f2, f3, f4],
            helpers,
            iters,
            compute,
            casts: CastCounts { k2, ..Default::default() },
            unconventional,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The central soundness property: for programs satisfying C1/C2 (which
    /// the generator guarantees), MCFI instrumentation never changes the
    /// result — same exit code, just more cycles.
    #[test]
    fn instrumentation_preserves_program_results(spec in small_spec_strategy()) {
        let src = generate(&spec, Variant::Fixed);
        let run = |policy: Policy| {
            let opts = BuildOptions { policy, arch: Arch::X86_64, verify: false };
            let mut system = System::boot_source(&src, &opts).expect("boots");
            system.run().expect("runs")
        };
        let hardened = run(Policy::Mcfi);
        let plain = run(Policy::NoCfi);
        let (Outcome::Exit { code: a }, Outcome::Exit { code: b }) =
            (&hardened.outcome, &plain.outcome) else {
            panic!("non-exit outcomes: {:?} / {:?}", hardened.outcome, plain.outcome);
        };
        prop_assert_eq!(a, b, "results must match");
        prop_assert!(hardened.cycles >= plain.cycles);
    }

    /// Every generated module passes the independent verifier — the
    /// rewriter stays out of the TCB because this holds for *all* inputs.
    #[test]
    fn generated_modules_always_verify(spec in small_spec_strategy()) {
        let src = generate(&spec, Variant::Fixed);
        let m = mcfi::compile_module("propwl", &src, &BuildOptions::default())
            .expect("compiles");
        let report = mcfi_verifier::verify(&m);
        prop_assert!(report.ok(), "violations: {:?}", report.violations);
    }

    /// CFG statistics are internally consistent for arbitrary modules,
    /// under MCFI's policy and the classic and coarse baselines alike:
    /// every branch's ECN is coherent with the Tary map, and merged
    /// classes partition the target set.
    #[test]
    fn policies_partition_targets(spec in small_spec_strategy()) {
        let src = generate(&spec, Variant::Fixed);
        let m = mcfi::compile_module("propwl", &src, &BuildOptions::default())
            .expect("compiles");
        let placed = [mcfi_cfggen::Placed { module: &m, code_base: 0 }];
        for kind in [PolicyKind::Mcfi, PolicyKind::Classic, PolicyKind::Coarse] {
            let p = mcfi_baselines::generate_policy(&placed, kind);
            // Every target of a branch carries the branch's own ECN.
            for b in &p.bary {
                for t in &b.targets {
                    prop_assert_eq!(p.tary.get(t).copied(), Some(b.ecn), "{:?}", kind);
                }
            }
            // Class count never exceeds target count; stats agree with maps.
            prop_assert_eq!(p.stats.ibts, p.tary.len());
            prop_assert!(p.stats.eqcs <= p.stats.ibts.max(1));
            prop_assert_eq!(p.stats.ibs, p.bary.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Attacker-model property: whatever single 8-byte stack corruption
    /// the attacker performs, the program either computes the correct
    /// result, halts with a CFI violation, or faults in the sandbox — it
    /// never silently computes a *wrong* result via a hijacked branch to
    /// a wrong-class target, and never escapes the sandbox.
    #[test]
    fn single_stack_corruption_never_escapes(step in 0u64..4000, word in any::<u64>()) {
        let src = "int f(int x) { return x * 3 + 1; }\n\
                   int main(void) { int a = f(4); int b = f(a); return b; }";
        let mut system = System::boot_source(src, &BuildOptions::default()).expect("boots");
        let mut fired = false;
        let r = system
            .process()
            .run_with_attacker("__start", move |s, mem, regs| {
                if s == step && !fired {
                    fired = true;
                    let rsp = regs[mcfi_machine::Reg::Rsp.index()] as usize;
                    if rsp + 8 <= mem.len() {
                        mem[rsp..rsp + 8].copy_from_slice(&word.to_le_bytes());
                    }
                }
            })
            .expect("runs");
        match r.outcome {
            // Either the corruption missed anything live...
            Outcome::Exit { code } => prop_assert_eq!(code, 40),
            // ...or MCFI caught the redirected branch...
            Outcome::CfiViolation { .. } => {}
            // ...or the corrupted value faulted inside the sandbox.
            Outcome::Fault(_) => {}
            Outcome::StepLimit => prop_assert!(false, "must terminate"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Encode/decode round trip over the full 14-bit × 14-bit domain:
    /// the word form loses nothing.
    #[test]
    fn id_encoding_round_trips(ecn in 0u32..mcfi_tables::ECN_LIMIT,
                               version in 0u32..mcfi_tables::VERSION_LIMIT) {
        use mcfi_tables::{Ecn, Id, Version};
        let id = Id::encode(Ecn::new(ecn), Version::new(version));
        prop_assert_eq!(id.ecn().raw(), ecn);
        prop_assert_eq!(id.version().raw(), version);
        let reparsed = Id::from_word(id.word());
        prop_assert_eq!(reparsed, Some(id), "a valid word must re-parse to itself");
    }

    /// Every encoded ID carries the reserved-bit pattern `0,0,0,1` (high
    /// byte to low byte) in the least-significant bit of each byte — the
    /// Fig. 2 validity pattern a misaligned word cannot exhibit.
    #[test]
    fn id_reserved_bits_follow_fig2(ecn in 0u32..mcfi_tables::ECN_LIMIT,
                                    version in 0u32..mcfi_tables::VERSION_LIMIT) {
        use mcfi_tables::{Ecn, Id, Version};
        let word = Id::encode(Ecn::new(ecn), Version::new(version)).word();
        prop_assert_eq!(word & 0x0101_0101, 0x0000_0001);
        prop_assert!(Id::word_is_valid(word));
    }

    /// The two 14-bit fields are fully isolated: re-encoding with one
    /// field changed leaves the other field's bits untouched.
    #[test]
    fn id_fields_do_not_bleed(ecn_a in 0u32..mcfi_tables::ECN_LIMIT,
                              ecn_b in 0u32..mcfi_tables::ECN_LIMIT,
                              version_a in 0u32..mcfi_tables::VERSION_LIMIT,
                              version_b in 0u32..mcfi_tables::VERSION_LIMIT) {
        use mcfi_tables::{Ecn, Id, Version};
        // Same ECN, different versions: upper halves match exactly.
        let v1 = Id::encode(Ecn::new(ecn_a), Version::new(version_a)).word();
        let v2 = Id::encode(Ecn::new(ecn_a), Version::new(version_b)).word();
        prop_assert_eq!(v1 >> 16, v2 >> 16, "version change leaked into ECN bytes");
        // Same version, different ECNs: lower halves match exactly.
        let e1 = Id::encode(Ecn::new(ecn_a), Version::new(version_a)).word();
        let e2 = Id::encode(Ecn::new(ecn_b), Version::new(version_a)).word();
        prop_assert_eq!(e1 & 0xffff, e2 & 0xffff, "ECN change leaked into version bytes");
        // And words are equal exactly when both fields are.
        prop_assert_eq!(v1 == v2, version_a == version_b);
        prop_assert_eq!(e1 == e2, ecn_a == ecn_b);
    }

    /// Corrupting any reserved bit of a valid word makes it invalid, and
    /// `from_word` rejects every invalid word — including the all-zero
    /// "not a target" sentinel.
    #[test]
    fn id_corrupted_words_are_rejected(ecn in 0u32..mcfi_tables::ECN_LIMIT,
                                       version in 0u32..mcfi_tables::VERSION_LIMIT,
                                       reserved_byte in 0u32..4,
                                       raw in any::<u32>()) {
        use mcfi_tables::Id;
        use mcfi_tables::{Ecn, Version};
        let word = Id::encode(Ecn::new(ecn), Version::new(version)).word();
        let corrupted = word ^ (1 << (reserved_byte * 8));
        prop_assert!(!Id::word_is_valid(corrupted));
        prop_assert_eq!(Id::from_word(corrupted), None);
        prop_assert_eq!(Id::from_word(0), None, "the zero word is never a valid ID");
        // An arbitrary word parses exactly when its reserved bits match.
        prop_assert_eq!(Id::from_word(raw).is_some(), raw & 0x0101_0101 == 0x0000_0001);
    }
}
