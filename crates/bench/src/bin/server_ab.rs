//! A/B benchmark for the network-service workload (`BENCH_net.json`):
//! requests/sec through the TCP-style MiniC server under four legs —
//!
//! - **plain**: the whole pipeline compiled without CFI (the baseline);
//! - **mcfi**: full enforcement, every handler dispatch a TxCheck;
//! - **audit**: MCFI instrumentation with the violation policy relaxed
//!   to record-and-continue (detection without enforcement);
//! - **mcfi-storm**: full enforcement plus a seeded network fault plan,
//!   pricing the retransmission discipline on top of the checks.
//!
//! The legs run in interleaved rounds ([`mcfi_bench::timing`]). Every
//! run drives the same seeded benign traffic script and must produce the
//! byte-identical settled response stream — the bench measures
//! overhead, not answers, and panics if a stream diverges. Exits
//! non-zero if MCFI's median per-round throughput falls below a fixed
//! fraction of plain's.

use std::time::Instant;

use mcfi::{
    FaultPlan, NetConfig, NetServer, NetStats, NetVerdict, PacketGen, Policy, ProcessOptions,
    Segment, TrafficSpec, ViolationPolicy,
};
use mcfi_bench::timing::{ratio, rounds, Bound, Report};

/// Drives of the traffic script per leg run.
const DRIVES: usize = 8;
const TRAFFIC_SEED: u64 = 2014;
const STORM_SEED: u64 = 7;
const FAULTS: usize = 6;
/// MCFI requests/sec below this fraction of plain fails the bench.
const FLOOR: f64 = 0.02;

const LEGS: [(&str, Policy, ViolationPolicy, bool); 4] = [
    ("plain", Policy::NoCfi, ViolationPolicy::Enforce, false),
    ("mcfi", Policy::Mcfi, ViolationPolicy::Enforce, false),
    ("audit", Policy::Mcfi, ViolationPolicy::Audit, false),
    ("mcfi-storm", Policy::Mcfi, ViolationPolicy::Enforce, true),
];

/// The per-leg counters the report records, in [`counters`]' order.
const COUNTERS: [&str; 6] =
    ["requests", "attempts", "retries", "checks", "steps", "faults absorbed"];

fn counters(s: &NetStats) -> [u64; 6] {
    let faults = s.drops + s.corrupts + s.reorders + s.aborts_injected + s.stalls;
    [s.segments as u64, s.attempts, s.retries, s.checks, s.steps, faults]
}

/// One leg run: a fresh server driven `DRIVES` times through `script`.
/// Returns requests/sec, the settled response stream, and the counters
/// summed over the drives.
fn drive(leg: usize, script: &[Segment]) -> (f64, Vec<u8>, [u64; 6]) {
    let (name, policy, vp, chaos) = LEGS[leg];
    let popts = ProcessOptions { violation_policy: vp, ..Default::default() };
    let mut srv =
        NetServer::boot_with(policy, NetConfig::default(), popts).expect("server boots");
    if chaos {
        srv.arm_chaos(FaultPlan::random_net(STORM_SEED, FAULTS));
    }
    let mut totals = [0u64; 6];
    let mut stream = Vec::new();
    let t = Instant::now();
    for drive in 0..DRIVES {
        let out = srv.drive(script).expect("drive settles");
        assert_eq!(out.verdict, NetVerdict::Healthy, "{name}: benign traffic degraded");
        for (total, c) in totals.iter_mut().zip(counters(&out.stats)) {
            *total += c;
        }
        if drive == 0 {
            stream = out.stream;
        } else {
            assert_eq!(stream, out.stream, "{name}: drives must repeat identically");
        }
    }
    let elapsed = t.elapsed().as_secs_f64();
    (totals[0] as f64 / elapsed.max(1e-9), stream, totals)
}

fn main() {
    let spec = TrafficSpec { seed: TRAFFIC_SEED, adversarial: false, ..TrafficSpec::default() };
    let script = PacketGen::new(spec.seed).script(&spec);
    println!(
        "network server A/B ({} segments/drive, {DRIVES} drives/run, \
         traffic seed {TRAFFIC_SEED})\n",
        script.len()
    );
    let mut report = Report::new("net");
    let runs = rounds(LEGS.len(), |leg| drive(leg, &script));
    let plain_stream = &runs[0][0].1;
    let rps: Vec<Vec<f64>> = runs.iter().map(|leg| leg.iter().map(|r| r.0).collect()).collect();
    for ((name, ..), (leg_rps, leg)) in LEGS.iter().zip(rps.iter().zip(&runs)) {
        for (_, stream, _) in leg {
            assert_eq!(stream, plain_stream, "{name} settled to a different response stream");
        }
        report.row(*name, "req/s", leg_rps);
        for (counter, value) in COUNTERS.iter().zip(leg[0].2) {
            report.fact(format!("{name}/{counter}"), value as f64);
        }
    }
    report.row("audit/plain", "x", &ratio(&rps[2], &rps[0]));
    let mcfi = report.row("mcfi/plain", "x", &ratio(&rps[1], &rps[0]));
    report.gate("MCFI throughput / plain", mcfi.median, Bound::AtLeast(FLOOR), true);
    report.finish();
}
