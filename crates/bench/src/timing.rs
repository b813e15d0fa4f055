//! The one timing core behind every host-timed measurement in this
//! crate: the A/B binaries, `stm_table` and the `cargo bench` mains.
//!
//! A measurement runs one warm-up round, whose values are dropped, then
//! [`ROUNDS`] measured rounds ([`rounds`]). Every round runs every leg
//! once, and the leg that starts a round rotates from round to round,
//! so host drift and cache warmth reach every leg alike. A leg's figure
//! is its median over the rounds with the quartiles ([`Stats`]). A ratio
//! between legs is taken per round, between legs timed in the same
//! round ([`ratio`]), and summarised the same way.
//!
//! A binary collects its rows and gates in one [`Report`]: the gate
//! routine ([`Report::gate`]) prints PASS, FAIL or SKIP, and
//! [`Report::finish`] writes `BENCH_<name>.json` (every row's summary and
//! per-round samples, with the host's core count and git revision), then
//! exits non-zero if a gate failed.

use std::collections::BTreeMap;
use std::fmt;
use std::hint::black_box;
use std::time::Instant;

use serde::Serialize;

/// Measured rounds per measurement, after one warm-up round. A multiple
/// of every leg count in this crate (1, 2 and 4), so each leg starts
/// equally many rounds.
pub const ROUNDS: usize = 8;

/// Runs `legs` legs through one warm-up round and [`ROUNDS`] measured
/// rounds; `run(leg)` runs leg `leg` once and returns its value. Round
/// `r` runs the legs in the order `r, r + 1, …` (mod `legs`). Returns
/// each leg's measured values in round order (`out[leg][round]`), so a
/// per-round ratio pairs legs timed in the same round.
pub fn rounds<T>(legs: usize, mut run: impl FnMut(usize) -> T) -> Vec<Vec<T>> {
    for leg in 0..legs {
        run(leg);
    }
    let mut out: Vec<Vec<T>> = (0..legs).map(|_| Vec::with_capacity(ROUNDS)).collect();
    for round in 0..ROUNDS {
        for i in 0..legs {
            let leg = (round + i) % legs;
            out[leg].push(run(leg));
        }
    }
    out
}

/// Nanoseconds per call over `iters` back-to-back calls of `f`: one run
/// of a leg too short to time call by call.
pub fn ns_per_iter<O>(iters: u64, mut f: impl FnMut() -> O) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// `num[r] / den[r]` for every round `r`.
pub fn ratio(num: &[f64], den: &[f64]) -> Vec<f64> {
    num.iter().zip(den).map(|(n, d)| n / d).collect()
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of ascending `sorted`, interpolated
/// linearly between the two nearest ranks.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "a quantile needs at least one sample");
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// A sample's median and quartiles.
#[derive(Clone, Copy, PartialEq, Debug, Serialize)]
pub struct Stats {
    /// The median.
    pub median: f64,
    /// The first quartile.
    pub q1: f64,
    /// The third quartile.
    pub q3: f64,
    /// The sample count.
    pub n: usize,
}

impl Stats {
    /// Summarises `samples` (any order; at least one).
    pub fn of(samples: &[f64]) -> Stats {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Stats {
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            n: sorted.len(),
        }
    }
}

impl fmt::Display for Stats {
    /// `median [q1, q3]`, each to four significant digits.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let num = |x: f64| {
            let mag = if x == 0.0 { 0 } else { x.abs().log10().floor() as i32 };
            if mag >= 4 { format!("{x:.3e}") } else { format!("{:.*}", (3 - mag) as usize, x) }
        };
        write!(f, "{} [{}, {}]", num(self.median), num(self.q1), num(self.q3))
    }
}

/// How a gate's value must compare with its bound.
#[derive(Clone, Copy, PartialEq, Debug, Serialize)]
pub enum Bound {
    /// `value ≥ bound`.
    AtLeast(f64),
    /// `value > bound`.
    Above(f64),
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::AtLeast(b) => write!(f, "≥ {b}"),
            Bound::Above(b) => write!(f, "> {b}"),
        }
    }
}

/// A gate's outcome.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum Verdict {
    /// Enforced, and the value meets the bound.
    Pass,
    /// Enforced, and the value misses the bound.
    Fail,
    /// Not enforced on this host.
    Skip,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Pass => "PASS",
            Verdict::Fail => "FAIL",
            Verdict::Skip => "SKIP",
        })
    }
}

/// The verdict on `value` against `bound`: [`Verdict::Skip`] when the
/// gate is not `enforced`.
pub fn verdict(value: f64, bound: Bound, enforced: bool) -> Verdict {
    let holds = match bound {
        Bound::AtLeast(b) => value >= b,
        Bound::Above(b) => value > b,
    };
    match (enforced, holds) {
        (false, _) => Verdict::Skip,
        (true, true) => Verdict::Pass,
        (true, false) => Verdict::Fail,
    }
}

/// The host's available parallelism.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The machine and source a report was measured on.
#[derive(Serialize)]
struct Host {
    cores: usize,
    git_rev: String,
}

#[derive(Serialize)]
struct Row {
    name: String,
    unit: &'static str,
    stats: Stats,
    /// The per-round values, in round order.
    samples: Vec<f64>,
}

#[derive(Serialize)]
struct Gate {
    name: String,
    value: f64,
    bound: Bound,
    verdict: Verdict,
}

/// One binary's measurements, written as `BENCH_<name>.json`.
#[derive(Serialize)]
pub struct Report {
    name: &'static str,
    host: Host,
    warmup_rounds: usize,
    rounds: usize,
    rows: Vec<Row>,
    facts: BTreeMap<String, f64>,
    gates: Vec<Gate>,
}

impl Report {
    /// An empty report named `name`, stamped with this host's core count
    /// and the git revision of the source tree this crate was built from.
    pub fn new(name: &'static str) -> Report {
        let git_rev = std::process::Command::new("git")
            .args(["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        Report {
            name,
            host: Host { cores: cores(), git_rev },
            warmup_rounds: 1,
            rounds: ROUNDS,
            rows: Vec::new(),
            facts: BTreeMap::new(),
            gates: Vec::new(),
        }
    }

    /// Records and prints `samples` (one per round) as the row `name`,
    /// in `unit`, and returns their summary.
    pub fn row(&mut self, name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Stats {
        let (name, stats) = (name.into(), Stats::of(samples));
        println!("{name}: {stats} {unit}");
        self.rows.push(Row { name, unit, stats, samples: samples.to_vec() });
        stats
    }

    /// Records and prints a value that does not vary by round, such as a
    /// counter of a deterministic run.
    pub fn fact(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        println!("{name}: {value}");
        self.facts.insert(name, value);
    }

    /// The gate routine: judges `value` against `bound` (a
    /// [`Verdict::Skip`] unless `enforced`), prints the verdict and
    /// records it; a failed gate makes [`Report::finish`] exit non-zero.
    pub fn gate(&mut self, name: &str, value: f64, bound: Bound, enforced: bool) {
        let verdict = verdict(value, bound, enforced);
        let note =
            if enforced { String::new() } else { format!("; not enforced on {} cores", cores()) };
        println!("{verdict}: {name} = {value:.3} (bound {bound}{note})");
        self.gates.push(Gate { name: name.to_string(), value, bound, verdict });
    }

    /// Writes `BENCH_<name>.json` to the working directory, then exits
    /// with status 1 if any gate failed.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn finish(self) {
        let path = format!("BENCH_{}.json", self.name);
        let json = serde_json::to_string_pretty(&self).expect("reports serialize");
        std::fs::write(&path, json + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
        if self.gates.iter().any(|g| g.verdict == Verdict::Fail) {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_hand_computed_values() {
        // Five samples: ranks 1, 2 and 3 of 0..=4 land on samples.
        let odd = Stats::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(odd, Stats { median: 3.0, q1: 2.0, q3: 4.0, n: 5 });
        // Four samples: ranks 0.75, 1.5 and 2.25 interpolate.
        let even = Stats::of(&[40.0, 10.0, 30.0, 20.0]);
        assert_eq!(even, Stats { median: 25.0, q1: 17.5, q3: 32.5, n: 4 });
        assert_eq!(Stats::of(&[7.0]), Stats { median: 7.0, q1: 7.0, q3: 7.0, n: 1 });
        let sorted: Vec<f64> = (1..=11).map(f64::from).collect();
        assert!((quantile(&sorted, 0.99) - 10.9).abs() < 1e-9);
        assert_eq!(even.to_string(), "25.00 [17.50, 32.50]");
    }

    #[test]
    fn every_leg_starts_a_round_equally_often() {
        for legs in [1, 2, 4] {
            let mut order = Vec::new();
            let out = rounds(legs, |leg| {
                order.push(leg);
                leg
            });
            assert_eq!(order.len(), legs * (ROUNDS + 1), "a warm-up round, then ROUNDS");
            let mut starts = vec![0; legs];
            for round in order.chunks(legs) {
                let mut seen = round.to_vec();
                seen.sort_unstable();
                assert_eq!(seen, (0..legs).collect::<Vec<_>>(), "every round runs every leg once");
            }
            for round in order[legs..].chunks(legs) {
                starts[round[0]] += 1;
            }
            assert_eq!(starts, vec![ROUNDS / legs; legs], "{legs} legs");
            for (leg, values) in out.iter().enumerate() {
                assert_eq!(values, &vec![leg; ROUNDS], "values are returned per leg");
            }
        }
    }

    #[test]
    fn gates_pass_fail_and_skip() {
        assert_eq!(verdict(2.31, Bound::AtLeast(2.0), true), Verdict::Pass);
        assert_eq!(verdict(2.0, Bound::AtLeast(2.0), true), Verdict::Pass);
        assert_eq!(verdict(1.94, Bound::AtLeast(2.0), true), Verdict::Fail);
        assert_eq!(verdict(36.2, Bound::Above(1.0), true), Verdict::Pass);
        assert_eq!(verdict(1.0, Bound::Above(1.0), true), Verdict::Fail);
        // The fleet's 4-thread gate on a host with fewer than 4 cores.
        assert_eq!(verdict(0.95, Bound::AtLeast(2.0), false), Verdict::Skip);
        assert_eq!(verdict(2.5, Bound::AtLeast(2.0), false), Verdict::Skip);
        let mut report = Report::new("unit");
        report.gate("held", 3.0, Bound::AtLeast(2.0), true);
        report.gate("missed", 1.0, Bound::AtLeast(2.0), true);
        let verdicts: Vec<Verdict> = report.gates.iter().map(|g| g.verdict).collect();
        assert_eq!(verdicts, [Verdict::Pass, Verdict::Fail]);
    }
}
