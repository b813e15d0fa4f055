//! Fleet supervision-tree tests: determinism of storm-stressed fleets
//! across seeds and fleet sizes, cross-tenant isolation proved
//! byte-for-byte against solo replays, and the banned-tenant /
//! load-shed guarantees.

use mcfi::{
    compile_module, net_tenant_spec, solo_replay, standard_modules, tenant_plan, Backoff,
    BuildOptions, Fleet, FleetOptions, Outcome, ProcessOptions, RecoveryPolicy, RestartStrategy,
    Schedule, Storm, StormKind, TenantHealth, TenantSpec, ViolationPolicy,
};

fn spec_for(name: &str, src: &str, popts: ProcessOptions) -> TenantSpec {
    let build = BuildOptions::default();
    let [stubs, libms, start] = standard_modules(&build).expect("standard modules compile");
    let prog = compile_module("prog", src, &build).expect("guest compiles");
    TenantSpec {
        name: name.to_string(),
        image: None,
        modules: vec![stubs, libms, prog, start],
        libraries: Vec::new(),
        entry: "__start".to_string(),
        options: popts,
        recovery: RecoveryPolicy::default(),
    }
}

/// A guest that exercises the loader each request: dlopen (a no-op
/// returning 0 once the library is in — a load rolls it out of the
/// registry), then a typed call through `dlsym`, with a clean fallback
/// when the symbol is absent (storm-injected verifier rejections land
/// here, and the library stays registered for the next request's
/// retry). First request of a lifetime exits 17, later ones 16,
/// denied-load ones 33 — all deterministic.
const DLOPEN_GUEST: &str = "int dlopen(char* name);\n\
     void* dlsym(char* name);\n\
     int main(void) {\n\
       int ok = dlopen(\"util\");\n\
       int (*f)(int) = (int(*)(int))dlsym(\"util_fn\");\n\
       if (f) {\n\
         return f(5) + ok;\n\
       }\n\
       return 33;\n\
     }";

/// Violates under `Enforce`: every request is a terminal failure.
const CRASHER: &str = "float fsq(float x) { return x * x; }\n\
     int main(void) {\n\
       void* raw = (void*)&fsq;\n\
       int (*f)(int) = (int(*)(int))raw;\n\
       return f(3);\n\
     }";

fn dlopen_spec(name: &str) -> TenantSpec {
    let popts =
        ProcessOptions { violation_policy: ViolationPolicy::Recover, ..Default::default() };
    let mut s = spec_for(name, DLOPEN_GUEST, popts);
    let util = compile_module(
        "util",
        "int util_fn(int x) { return x * 3 + 1; }",
        &BuildOptions::default(),
    )
    .expect("library compiles");
    s.libraries.push(("util".to_string(), util));
    s
}

fn crasher_spec(name: &str) -> TenantSpec {
    let popts =
        ProcessOptions { violation_policy: ViolationPolicy::Enforce, ..Default::default() };
    spec_for(name, CRASHER, popts)
}

fn storm_opts() -> FleetOptions {
    FleetOptions {
        schedule: Schedule::RoundRobin,
        restart: RestartStrategy {
            max_restarts: 2,
            window: 40,
            backoff: Backoff::new(0xbeef, 2),
        },
        // Overload shedding is the one deliberate cross-tenant coupling;
        // the isolation proofs below disable it so *every* tenant —
        // healthy or not — replays byte-identically solo.
        shed_threshold_pct: 100,
        max_steps_per_request: 2_000_000,
        record_results: true,
        threads: 1,
    }
}

#[test]
fn storm_stressed_fleets_are_deterministic_across_the_seed_matrix() {
    // 3 storm seeds × 2 fleet sizes, each fleet holding a crasher (the
    // restart/ban machinery participates) among dlopen tenants. Same
    // configuration ⇒ bit-identical FleetStats, twice over.
    for seed in [1u64, 2, 3] {
        for n in [2usize, 5] {
            let run = || {
                let mut specs: Vec<TenantSpec> =
                    (0..n - 1).map(|i| dlopen_spec(&format!("t{i}"))).collect();
                specs.push(crasher_spec("crasher"));
                let mut fleet = Fleet::new(specs, storm_opts()).expect("boots");
                fleet.arm_storm(Storm { seed, kind: StormKind::Random { faults: 4 } });
                fleet.run_requests((n as u64) * 12);
                fleet.stats()
            };
            let (a, b) = (run(), run());
            assert_eq!(a, b, "seed {seed} × {n} tenants replays identically");
            assert_eq!(a.requests, (n as u64) * 12);
            assert!(a.served > 0);
        }
    }
}

#[test]
fn an_all_points_storm_replays_identically() {
    let run = || {
        let specs = (0..4).map(|i| dlopen_spec(&format!("t{i}"))).collect();
        let mut fleet = Fleet::new(specs, storm_opts()).expect("boots");
        fleet.arm_storm(Storm { seed: 9, kind: StormKind::AllPoints });
        fleet.run_requests(48);
        fleet
    };
    let (a, b) = (run(), run());
    assert_eq!(a.stats(), b.stats());
    for i in 0..4 {
        assert_eq!(a.results(i), b.results(i));
    }
    assert!(
        a.stats().faults_fired > 0,
        "the storm actually bit: {:?}",
        a.stats()
    );
}

#[test]
fn storm_stressed_tenants_are_isolated_byte_for_byte() {
    // An 8-tenant fleet; the storm targets tenants 1, 3, and 5 only.
    // Every tenant — stormed or not — must produce exactly the served
    // RunResults its solo replay produces: tenants share no state, and
    // scheduling/shedding never touches a process.
    const N: usize = 8;
    const PER_TENANT: u64 = 12;
    let storm = Storm { seed: 0xa11ce, kind: StormKind::Random { faults: 4 } };
    let targeted = [1usize, 3, 5];
    let specs: Vec<TenantSpec> = (0..N).map(|i| dlopen_spec(&format!("t{i}"))).collect();
    let opts = storm_opts();
    let mut fleet = Fleet::new(specs.clone(), opts).expect("boots");
    for &i in &targeted {
        fleet.arm_tenant_plan(i, tenant_plan(&storm, i));
    }
    fleet.run_requests(N as u64 * PER_TENANT);

    let stats = fleet.stats();
    assert!(
        stats.faults_fired > 0,
        "the storm fired against the targeted tenants: {stats:?}"
    );
    for (i, spec) in specs.iter().enumerate() {
        let plan = targeted.contains(&i).then(|| tenant_plan(&storm, i));
        let solo = solo_replay(spec, &opts, plan, PER_TENANT).expect("solo boots");
        assert_eq!(
            fleet.results(i),
            solo.results(0),
            "tenant {i} diverged from its solo replay"
        );
        // Non-targeted tenants stayed healthy and served every tick:
        // util_fn(5)+1 on the lifetime's first request, util_fn(5) after.
        if !targeted.contains(&i) {
            assert_eq!(fleet.health(i), TenantHealth::Healthy);
            assert_eq!(fleet.results(i).len(), PER_TENANT as usize);
            for (k, r) in fleet.results(i).iter().enumerate() {
                let want = if k == 0 { 17 } else { 16 };
                assert_eq!(r.outcome, Outcome::Exit { code: want }, "request {k}");
            }
        }
    }
}

#[test]
fn a_banned_tenant_sheds_instead_of_blocking_the_fleet() {
    // 8 tenants, one a crasher with a tight intensity window: it is
    // banned early and every later tick costs the fleet exactly one
    // shed counter — the other 7 tenants serve their full quota.
    const N: usize = 8;
    const PER_TENANT: u64 = 10;
    let mut specs: Vec<TenantSpec> =
        (0..N - 1).map(|i| dlopen_spec(&format!("t{i}"))).collect();
    specs.insert(3, crasher_spec("crasher"));
    let opts = FleetOptions {
        restart: RestartStrategy {
            max_restarts: 1,
            window: 50,
            backoff: Backoff::new(5, 0),
        },
        max_steps_per_request: 2_000_000,
        ..Default::default()
    };
    let mut fleet = Fleet::new(specs, opts).expect("boots");
    fleet.run_requests(N as u64 * PER_TENANT);
    let stats = fleet.stats();
    let crasher = &stats.per_tenant[3];
    assert_eq!(crasher.health, TenantHealth::Banned);
    assert_eq!(crasher.restarts, 1, "one restart allowed, then the ban");
    assert!(crasher.banned_sheds > 0, "{crasher:?}");
    assert_eq!(
        crasher.requests,
        crasher.served + crasher.banned_sheds + crasher.breaker_sheds,
        "every scheduled tick is accounted for"
    );
    for (i, t) in stats.per_tenant.iter().enumerate() {
        if i != 3 {
            assert_eq!(t.health, TenantHealth::Healthy);
            assert_eq!(
                t.served, PER_TENANT,
                "tenant {i} never lost a tick to the banned neighbour"
            );
        }
    }
    assert_eq!(stats.bans, 1);
}

#[test]
fn fleet_stats_serialize_as_a_json_artifact() {
    let specs = vec![dlopen_spec("t0"), crasher_spec("c")];
    let opts = FleetOptions {
        restart: RestartStrategy {
            max_restarts: 0,
            window: 10,
            backoff: Backoff::new(1, 0),
        },
        ..Default::default()
    };
    let mut fleet = Fleet::new(specs, opts).expect("boots");
    fleet.run_requests(20);
    let stats = fleet.stats();
    let json = serde_json::to_string_pretty(&stats).expect("serializes");
    assert!(json.contains("\"per_tenant\""), "{json}");
    assert!(json.contains("\"health\": \"Banned\""), "{json}");
    assert!(json.contains("\"supervisor\""), "{json}");
    let compact = serde_json::to_string(&stats).expect("serializes");
    assert!(compact.contains("\"health\":\"Banned\""), "{compact}");
    assert!(compact.contains(&format!("\"bans\":{}", stats.bans)), "{compact}");
}


/// Tier-1's guard on default-mode results: one self-driving network
/// tenant's digest after its n-th served request must equal the
/// `fleet servedN` line of the benchmark's reference file. The digest
/// hashes each `RunResult`'s `Debug` string, so any changed field of a
/// default-mode run — a counter included — fails here. The reference
/// file stays the single source: a benchmark re-baseline updates both
/// checks at once.
#[test]
fn net_tenant_digests_match_the_benchmark_reference() {
    const EXPECTED: &str = include_str!("../perfbench/expected.txt");
    let reference: Vec<(u64, &str)> = EXPECTED
        .lines()
        .filter_map(|line| {
            let (served, digest) = line.strip_prefix("fleet served")?.split_once(' ')?;
            Some((served.parse().ok()?, digest))
        })
        .collect();
    let points: Vec<u64> = reference.iter().map(|&(n, _)| n).collect();
    assert_eq!(points, [1, 2, 4, 16, 17, 18, 32], "the reference points moved");

    let mut fleet =
        Fleet::new(vec![net_tenant_spec("t0")], FleetOptions::default()).expect("fleet boots");
    for _ in 0..32 {
        fleet.run_requests(1);
        let tenant = &fleet.stats().per_tenant[0];
        if let Some(&(served, want)) = reference.iter().find(|&&(n, _)| n == tenant.served) {
            assert_eq!(format!("{:016x}", tenant.digest), want, "digest after {served} served");
        }
    }
    assert_eq!(fleet.stats().per_tenant[0].served, 32, "every request served");
}
