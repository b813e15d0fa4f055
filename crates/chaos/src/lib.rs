//! `mcfi-chaos`: deterministic fault injection for the MCFI runtime.
//!
//! The paper's central runtime claim is that the Bary/Tary tables stay
//! linearizable while a *trusted, well-behaved* dynamic linker updates
//! them (§5). A deployable CFI runtime additionally has to survive an
//! updater that misbehaves: crashes between the two table phases, stalls
//! while holding the update lock, tears the Tary stream partway through,
//! or exhausts the 14-bit version space. This crate provides the plan
//! language for injecting exactly those faults at named, instrumented
//! points inside `mcfi-tables` and `mcfi-runtime`:
//!
//! * [`FaultPoint`] names each instrumented site.
//! * [`FaultPlan`] is a **seeded, serializable, replayable** list of
//!   planned faults ("the 2nd time the updater reaches the
//!   between-phases point, crash"). Plans round-trip through a compact
//!   wire string so a failing CI seed can be replayed locally verbatim.
//! * [`ChaosInjector`] is the armed form: it counts how often each site
//!   is reached and fires the planned fault on the matching occurrence,
//!   recording every shot for test assertions.
//!
//! When no injector is armed the instrumented code paths check a single
//! relaxed atomic bool and fall through — the disarmed cost is one
//! branch on the *update* paths only; check-transaction fast paths are
//! never instrumented.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A named fault-injection site in the tables/runtime.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultPoint {
    /// The updater "crashes" after the Tary phase and its barrier,
    /// before the Bary phase: the transaction is abandoned mid-window
    /// (param unused).
    UpdaterCrash,
    /// The updater stalls between the two phases while holding the
    /// update lock for `param` microseconds.
    UpdaterStall,
    /// The Tary rewrite stops ("tears") after `param` entries, then the
    /// updater crashes, leaving a partially written Tary table.
    TornTary,
    /// The global version counter is warped to `VERSION_LIMIT - param`
    /// before the next update, forcing a 14-bit wraparound.
    VersionWarp,
    /// The module verifier rejects the library during `dlopen`, after
    /// module preparation has already mutated process state.
    VerifierReject,
    /// CFG regeneration fails during `dlopen`, after the module has
    /// been mapped, relocated, and made executable.
    CfgRegenFail,
    /// A checkpoint capture silently corrupts its payload: the stored
    /// digest no longer matches the snapshot bytes, so a later restore
    /// must detect the damage and fall back (param unused). Only
    /// reached when a supervisor takes checkpoints.
    CheckpointCorrupt,
    /// A checkpoint restore fails outright (the snapshot is refused
    /// before any state is touched), forcing the supervisor onto an
    /// older checkpoint or a from-scratch re-run (param unused).
    RestoreFail,
    /// The module image handed to `dlopen` is corrupted in flight: the
    /// byte at offset `param % len` is xored with `0xa5` before
    /// admission decoding, exercising the reject→rollback→quarantine
    /// path on a live load.
    MalformedImage,
    /// A *schedule point* under the `mcfi-modelcheck` deterministic
    /// scheduler: every shadow atomic/lock operation reaches this site,
    /// so `sched-point@k` kills the updater at its `k`-th operation —
    /// crash-site *enumeration* (all sites) instead of the fixed,
    /// hand-chosen crash sites above. Never reached in production or
    /// wall-clock test builds.
    SchedPoint,
    /// Force-deoptimizes the baseline-compiled execution tier mid-run:
    /// every translated block is retired back to the interpreter with
    /// no loader activity, exercising the deopt/lazy-retranslation path
    /// in isolation (param unused). Only reached on translated runs, so
    /// it sits past [`RUNTIME_POINTS`] — random plans must stay
    /// meaningful (and identical, seed for seed) on interpreter-tier
    /// runs; arm it explicitly with [`FaultPlan::with`].
    TransInvalidate,
    /// A fleet pool worker stalls (spin-yields `param` times) right
    /// after it claims a tenant and before it serves that tenant's
    /// budget, simulating a descheduled or page-faulting worker thread.
    /// Reached once per claim, so only by the multithreaded fleet pool;
    /// it sits past [`RUNTIME_POINTS`]. Arm it explicitly with
    /// [`FaultPlan::with`].
    WorkerStall,
    /// A network segment is dropped in flight: the server never sees
    /// the delivery attempt and the client waits out its deadline, then
    /// retries with backoff (param unused). Only reached by the
    /// `mcfi-netsim` delivery path (past [`RUNTIME_POINTS`]); draw it
    /// with [`FaultPlan::random_net`] or arm it with [`FaultPlan::with`].
    NetDrop,
    /// A network segment is corrupted in flight: the byte at offset
    /// `param % len` of the encoded segment is xored with `0x5a`, so the
    /// server's checksum rejects it and the client retransmits a clean
    /// copy. Netsim-only (past [`RUNTIME_POINTS`]).
    NetCorrupt,
    /// Two adjacent segments swap delivery order: the current segment is
    /// held back and delivered *after* the next one, exercising the
    /// server's out-of-order rejection and the client's go-back-N
    /// retransmission. Netsim-only (past [`RUNTIME_POINTS`]).
    NetReorder,
    /// An adversarial peer injects a blind RST for connection
    /// `param % conns` before the real segment is delivered. The forged
    /// reset carries a sequence number that can never match an
    /// established connection's window, so the server must challenge and
    /// ignore it (RFC 5961-style) rather than tear the connection down.
    /// Netsim-only (past [`RUNTIME_POINTS`]).
    PeerAbort,
    /// A slowloris peer stalls mid-request: delivery of the segment is
    /// delayed by `param` virtual ticks while the connection is held
    /// open, burning the client's deadline budget and forcing a retry
    /// when the stall exceeds it. Netsim-only (past [`RUNTIME_POINTS`]).
    SlowlorisStall,
}

/// Every fault point, in wire-format order.
pub const ALL_POINTS: [FaultPoint; 17] = [
    FaultPoint::UpdaterCrash,
    FaultPoint::UpdaterStall,
    FaultPoint::TornTary,
    FaultPoint::VersionWarp,
    FaultPoint::VerifierReject,
    FaultPoint::CfgRegenFail,
    FaultPoint::CheckpointCorrupt,
    FaultPoint::RestoreFail,
    FaultPoint::MalformedImage,
    FaultPoint::SchedPoint,
    FaultPoint::TransInvalidate,
    FaultPoint::WorkerStall,
    FaultPoint::NetDrop,
    FaultPoint::NetCorrupt,
    FaultPoint::NetReorder,
    FaultPoint::PeerAbort,
    FaultPoint::SlowlorisStall,
];

/// The network-layer fault points, in wire-format order: the sites the
/// `mcfi-netsim` delivery path fires while perturbing traffic. Kept past
/// [`RUNTIME_POINTS`] so table-layer random plans replay identically
/// whether or not a network harness is attached; [`FaultPlan::random_net`]
/// draws from exactly this set.
pub const NET_POINTS: [FaultPoint; 5] = [
    FaultPoint::NetDrop,
    FaultPoint::NetCorrupt,
    FaultPoint::NetReorder,
    FaultPoint::PeerAbort,
    FaultPoint::SlowlorisStall,
];

/// The number of leading [`ALL_POINTS`] entries that [`FaultPlan::random`]
/// draws from: the sites reachable on *any* wall-clock run. The trailing
/// points are excluded — `sched-point` only fires under the model
/// checker's deterministic scheduler, `trans-invalidate` only on
/// translated-tier runs, `worker-stall` only when a multithreaded fleet
/// worker claims a tenant, and the [`NET_POINTS`] only on the
/// `mcfi-netsim` delivery path (a random plan must fire identically,
/// seed for seed, whichever execution tier, thread count, or traffic
/// harness replays it). Arm those explicitly with [`FaultPlan::with`],
/// or draw network plans from [`FaultPlan::random_net`].
pub const RUNTIME_POINTS: usize = 9;

impl FaultPoint {
    fn index(self) -> usize {
        ALL_POINTS.iter().position(|p| *p == self).expect("point is listed")
    }

    /// The stable wire-format name.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::UpdaterCrash => "updater-crash",
            FaultPoint::UpdaterStall => "updater-stall",
            FaultPoint::TornTary => "torn-tary",
            FaultPoint::VersionWarp => "version-warp",
            FaultPoint::VerifierReject => "verifier-reject",
            FaultPoint::CfgRegenFail => "cfg-regen-fail",
            FaultPoint::CheckpointCorrupt => "checkpoint-corrupt",
            FaultPoint::RestoreFail => "restore-fail",
            FaultPoint::MalformedImage => "malformed-image",
            FaultPoint::SchedPoint => "sched-point",
            FaultPoint::TransInvalidate => "trans-invalidate",
            FaultPoint::WorkerStall => "worker-stall",
            FaultPoint::NetDrop => "net-drop",
            FaultPoint::NetCorrupt => "net-corrupt",
            FaultPoint::NetReorder => "net-reorder",
            FaultPoint::PeerAbort => "peer-abort",
            FaultPoint::SlowlorisStall => "slowloris-stall",
        }
    }
}

impl fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for FaultPoint {
    type Err = PlanParseError;

    fn from_str(s: &str) -> Result<Self, PlanParseError> {
        ALL_POINTS
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| PlanParseError(format!("unknown fault point `{s}`")))
    }
}

/// One planned fault: fire at the `nth` time (1-based) execution reaches
/// `point`, with a point-specific `param`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PlannedFault {
    /// Where to inject.
    pub point: FaultPoint,
    /// Which occurrence of the site triggers the fault (1-based).
    pub nth: u64,
    /// Point-specific knob (stall microseconds, torn-entry count,
    /// version-warp distance; unused for the rest).
    pub param: u64,
}

/// A deterministic, replayable fault-injection plan.
///
/// The `seed` is carried along so a randomly generated plan prints its
/// provenance; [`FaultPlan::wire`] / [`FaultPlan::parse`] round-trip the
/// whole plan as a single line suitable for CI logs and env vars.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FaultPlan {
    /// The seed this plan was generated from (0 for hand-written plans).
    pub seed: u64,
    /// The planned faults, in no particular order.
    pub faults: Vec<PlannedFault>,
}

/// A malformed wire string.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlanParseError(String);

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault plan: {}", self.0)
    }
}

impl std::error::Error for PlanParseError {}

impl FaultPlan {
    /// An empty plan (no faults fire; useful as a base for [`Self::with`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a planned fault, builder-style.
    #[must_use]
    pub fn with(mut self, point: FaultPoint, nth: u64, param: u64) -> Self {
        self.faults.push(PlannedFault { point, nth, param });
        self
    }

    /// Generates a random plan of `count` faults from `seed`.
    ///
    /// Deterministic: the same seed always yields the same plan, on any
    /// host. Parameters are drawn from ranges that keep every fault
    /// survivable (stalls of at most 500 µs, warps of at most 8
    /// versions, tears within small tables).
    pub fn random(seed: u64, count: usize) -> Self {
        let mut rng = XorShift64::new(seed);
        let faults = (0..count)
            .map(|_| {
                let point = ALL_POINTS[(rng.next() % RUNTIME_POINTS as u64) as usize];
                let nth = 1 + rng.next() % 3;
                let param = match point {
                    FaultPoint::UpdaterStall => rng.next() % 500,
                    FaultPoint::TornTary => rng.next() % 8,
                    FaultPoint::VersionWarp => 1 + rng.next() % 8,
                    // Byte offset to corrupt, reduced mod the image
                    // length at the injection site.
                    FaultPoint::MalformedImage => rng.next() % 4096,
                    _ => 0,
                };
                PlannedFault { point, nth, param }
            })
            .collect();
        FaultPlan { seed, faults }
    }

    /// Generates a random *network* plan of `count` faults from `seed`,
    /// drawing only from [`NET_POINTS`].
    ///
    /// Deterministic like [`Self::random`], and deliberately a separate
    /// stream: table-layer seeds keep their historical plans, and a
    /// network seed yields the same traffic perturbation on every host.
    /// Parameters stay survivable — stalls of at most 12 virtual ticks
    /// (so a bounded retry budget always outlasts them), corrupt offsets
    /// reduced mod the segment length at the injection site, and abort
    /// targets reduced mod the connection count.
    pub fn random_net(seed: u64, count: usize) -> Self {
        let mut rng = XorShift64::new(seed ^ 0x6e65_7473_696d_u64); // "netsim"
        let faults = (0..count)
            .map(|_| {
                let point = NET_POINTS[(rng.next() % NET_POINTS.len() as u64) as usize];
                let nth = 1 + rng.next() % 6;
                let param = match point {
                    FaultPoint::NetCorrupt => rng.next() % 256,
                    FaultPoint::PeerAbort => rng.next() % 64,
                    FaultPoint::SlowlorisStall => 1 + rng.next() % 12,
                    _ => 0,
                };
                PlannedFault { point, nth, param }
            })
            .collect();
        FaultPlan { seed, faults }
    }

    /// Serializes the plan to its one-line wire format, e.g.
    /// `seed=42;updater-crash@1(0);torn-tary@2(5)`.
    pub fn wire(&self) -> String {
        let mut s = format!("seed={}", self.seed);
        for f in &self.faults {
            s.push_str(&format!(";{}@{}({})", f.point, f.nth, f.param));
        }
        s
    }

    /// Parses the wire format produced by [`Self::wire`].
    ///
    /// # Errors
    ///
    /// Returns [`PlanParseError`] on any malformed field.
    pub fn parse(wire: &str) -> Result<Self, PlanParseError> {
        let mut parts = wire.split(';');
        let head = parts.next().unwrap_or_default();
        let seed = head
            .strip_prefix("seed=")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| PlanParseError(format!("expected `seed=N`, got `{head}`")))?;
        let mut faults = Vec::new();
        for part in parts {
            let (name, rest) = part
                .split_once('@')
                .ok_or_else(|| PlanParseError(format!("expected `point@nth(param)`, got `{part}`")))?;
            let (nth, param) = rest
                .strip_suffix(')')
                .and_then(|r| r.split_once('('))
                .ok_or_else(|| PlanParseError(format!("expected `nth(param)`, got `{rest}`")))?;
            faults.push(PlannedFault {
                point: name.parse()?,
                nth: nth
                    .parse()
                    .map_err(|_| PlanParseError(format!("bad occurrence `{nth}`")))?,
                param: param
                    .parse()
                    .map_err(|_| PlanParseError(format!("bad param `{param}`")))?,
            });
        }
        Ok(FaultPlan { seed, faults })
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.wire())
    }
}

/// A fault that actually fired during execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FiredFault {
    /// The site that fired.
    pub point: FaultPoint,
    /// Which occurrence of the site it was.
    pub occurrence: u64,
    /// The planned parameter.
    pub param: u64,
}

/// The armed form of a [`FaultPlan`]: counts site occurrences and fires
/// planned faults on the matching hit.
///
/// Shared (`Arc`) between the test harness and the instrumented
/// subsystems; all methods take `&self`.
#[derive(Debug)]
pub struct ChaosInjector {
    plan: FaultPlan,
    hits: [AtomicU64; ALL_POINTS.len()],
    fired: Mutex<Vec<FiredFault>>,
}

impl ChaosInjector {
    /// Arms a plan.
    pub fn arm(plan: FaultPlan) -> Arc<Self> {
        Arc::new(ChaosInjector {
            plan,
            hits: Default::default(),
            fired: Mutex::new(Vec::new()),
        })
    }

    /// Records that execution reached `point`; returns `Some(param)` when
    /// a planned fault fires on this occurrence.
    ///
    /// Each site's occurrence counter is independent, so plans compose:
    /// `torn-tary@2` fires on the second update regardless of how many
    /// times other sites were reached.
    pub fn fire(&self, point: FaultPoint) -> Option<u64> {
        let occurrence = self.hits[point.index()].fetch_add(1, Ordering::Relaxed) + 1;
        let hit = self
            .plan
            .faults
            .iter()
            .find(|f| f.point == point && f.nth == occurrence)?;
        self.fired
            .lock()
            .expect("chaos log lock is never poisoned")
            .push(FiredFault { point, occurrence, param: hit.param });
        Some(hit.param)
    }

    /// How many times `point` has been reached (fired or not).
    pub fn hit_count(&self, point: FaultPoint) -> u64 {
        self.hits[point.index()].load(Ordering::Relaxed)
    }

    /// Every fault that fired so far, in firing order.
    pub fn fired(&self) -> Vec<FiredFault> {
        self.fired.lock().expect("chaos log lock is never poisoned").clone()
    }

    /// The plan this injector was armed with.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

/// Seeded exponential backoff with deterministic jitter.
///
/// One policy, shared by every subsystem that retries a failing
/// component: the runtime's dlopen quarantine backs off a flaky library
/// with it, and the fleet supervision tree uses the identical sequence
/// to hold a restarting tenant's circuit breaker open. The `attempt`-th
/// delay (1-based) is
///
/// ```text
/// (base << (attempt - 1)) + jitter(seed, key, attempt)
/// ```
///
/// where the jitter is a xorshift64 draw in `0..base`, keyed by the
/// backoff seed, an FNV-1a hash of `key` (a library or tenant name),
/// and the attempt number — so herds of simultaneously failing
/// components decorrelate, yet every (seed, key, attempt) triple yields
/// the same delay on every host. A `base` of 0 disables both the delay
/// and the jitter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Backoff {
    /// Seed mixed into every jitter draw.
    pub seed: u64,
    /// Base delay; doubles per attempt. 0 disables backoff entirely.
    pub base: u64,
}

impl Backoff {
    /// A backoff policy from a jitter seed and a base delay.
    pub fn new(seed: u64, base: u64) -> Self {
        Backoff { seed, base }
    }

    /// The delay before retry number `attempt` (1-based): exponential in
    /// the attempt with a deterministic per-`key` jitter. Saturates
    /// instead of overflowing for absurd attempt counts.
    pub fn delay(&self, key: &str, attempt: u32) -> u64 {
        if self.base == 0 {
            return 0;
        }
        let exp = self.base.checked_shl(attempt.saturating_sub(1)).unwrap_or(u64::MAX);
        exp.saturating_add(self.jitter(key, attempt))
    }

    /// The jitter component alone: a xorshift64 draw in `0..base` over
    /// `(seed, key, attempt)`.
    pub fn jitter(&self, key: &str, attempt: u32) -> u64 {
        if self.base == 0 {
            return 0;
        }
        let mut x = self.seed ^ fnv64(key.as_bytes()) ^ u64::from(attempt);
        x |= 1; // xorshift state must be non-zero
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % self.base
    }
}

/// FNV-1a over `bytes` (deterministic per-key jitter seeds).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The xorshift64 PRNG used for plan generation — tiny, seedable, and
/// identical on every host.
struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64(seed | 1) // xorshift state must be non-zero
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trips() {
        let plan = FaultPlan::new()
            .with(FaultPoint::UpdaterCrash, 1, 0)
            .with(FaultPoint::TornTary, 2, 5)
            .with(FaultPoint::UpdaterStall, 3, 250);
        let parsed = FaultPlan::parse(&plan.wire()).unwrap();
        assert_eq!(parsed, plan);
    }

    #[test]
    fn random_plans_are_deterministic_and_round_trip() {
        for seed in [1u64, 42, 0xC0FFEE, u64::MAX] {
            let a = FaultPlan::random(seed, 4);
            let b = FaultPlan::random(seed, 4);
            assert_eq!(a, b, "seed {seed} must be deterministic");
            assert_eq!(FaultPlan::parse(&a.wire()).unwrap(), a);
        }
        assert_ne!(FaultPlan::random(1, 4), FaultPlan::random(2, 4));
    }

    #[test]
    fn malformed_wires_are_rejected() {
        for bad in ["", "seed=x", "seed=1;nope@1(0)", "seed=1;torn-tary@x(0)",
                    "seed=1;torn-tary@1", "seed=1;torn-tary@1(y)"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn injector_fires_on_the_planned_occurrence_only() {
        let inj = ChaosInjector::arm(FaultPlan::new().with(FaultPoint::UpdaterCrash, 2, 7));
        assert_eq!(inj.fire(FaultPoint::UpdaterCrash), None);
        assert_eq!(inj.fire(FaultPoint::UpdaterCrash), Some(7));
        assert_eq!(inj.fire(FaultPoint::UpdaterCrash), None);
        assert_eq!(inj.hit_count(FaultPoint::UpdaterCrash), 3);
        let fired = inj.fired();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0], FiredFault { point: FaultPoint::UpdaterCrash, occurrence: 2, param: 7 });
    }

    #[test]
    fn sites_count_independently() {
        let inj = ChaosInjector::arm(
            FaultPlan::new()
                .with(FaultPoint::TornTary, 1, 3)
                .with(FaultPoint::VerifierReject, 1, 0),
        );
        assert_eq!(inj.fire(FaultPoint::UpdaterCrash), None);
        assert_eq!(inj.fire(FaultPoint::TornTary), Some(3));
        assert_eq!(inj.fire(FaultPoint::VerifierReject), Some(0));
        assert_eq!(inj.fired().len(), 2);
    }

    #[test]
    fn backoff_sequence_is_exact_per_seed() {
        // The contract the quarantine and the fleet restart strategies
        // both rely on: for a fixed (seed, base, key), the delay
        // sequence is a host-independent constant. These values are the
        // sequence itself — any change to the mixing breaks replay of
        // recorded fault schedules and must show up here.
        let b = Backoff::new(7, 1_000);
        let delays: Vec<u64> = (1..=4).map(|a| b.delay("evil", a)).collect();
        let again: Vec<u64> = (1..=4).map(|a| b.delay("evil", a)).collect();
        assert_eq!(delays, again, "delays are pure functions of (seed, key, attempt)");
        for (i, d) in delays.iter().enumerate() {
            let attempt = i as u32 + 1;
            let exp = 1_000u64 << (attempt - 1);
            assert!(*d >= exp && *d < exp + 1_000, "attempt {attempt}: {d} vs base {exp}");
            assert_eq!(*d - exp, b.jitter("evil", attempt));
        }
        // Different seeds and different keys decorrelate the jitter.
        assert_ne!(
            (1..=4).map(|a| Backoff::new(8, 1_000).delay("evil", a)).collect::<Vec<_>>(),
            delays
        );
        assert_ne!(
            (1..=4).map(|a| b.delay("good", a)).collect::<Vec<_>>(),
            delays
        );
    }

    #[test]
    fn backoff_edge_cases() {
        // base 0 disables backoff entirely.
        let off = Backoff::new(3, 0);
        assert_eq!(off.delay("x", 1), 0);
        assert_eq!(off.jitter("x", 9), 0);
        // Absurd attempt counts saturate instead of overflowing.
        assert_eq!(Backoff::new(3, 1 << 62).delay("x", 200), u64::MAX);
        // Attempt 0 is treated like attempt 1's exponent.
        let b = Backoff::new(3, 16);
        assert_eq!(b.delay("x", 0) & !15, 16);
    }

    #[test]
    fn random_net_plans_draw_only_net_points() {
        for seed in [1u64, 2, 3, 42] {
            let a = FaultPlan::random_net(seed, 6);
            let b = FaultPlan::random_net(seed, 6);
            assert_eq!(a, b, "seed {seed} must be deterministic");
            assert_eq!(a.faults.len(), 6);
            assert!(a.faults.iter().all(|f| NET_POINTS.contains(&f.point)));
            assert_eq!(FaultPlan::parse(&a.wire()).unwrap(), a);
            // The network stream is independent of the table stream:
            // same seed, disjoint point sets.
            assert!(FaultPlan::random(seed, 6)
                .faults
                .iter()
                .all(|f| !NET_POINTS.contains(&f.point)));
        }
        assert_ne!(FaultPlan::random_net(1, 6), FaultPlan::random_net(2, 6));
    }

    #[test]
    fn seeded_plans_replay_their_historical_wires() {
        // Adding or removing a point past RUNTIME_POINTS must not shift
        // the seeded streams: recorded CI seeds replay these exact plans.
        let random = [
            "seed=1;checkpoint-corrupt@3(0);checkpoint-corrupt@3(0);cfg-regen-fail@2(0);\
             updater-crash@1(0);version-warp@3(5);verifier-reject@3(0)",
            "seed=2;updater-crash@1(0);checkpoint-corrupt@2(0);torn-tary@3(6);\
             version-warp@1(4);updater-stall@3(318);torn-tary@3(6)",
            "seed=3;updater-crash@1(0);checkpoint-corrupt@2(0);torn-tary@3(6);\
             version-warp@1(4);updater-stall@3(318);torn-tary@3(6)",
        ];
        let net = [
            "seed=1;net-drop@3(0);net-corrupt@4(124);peer-abort@2(63);\
             slowloris-stall@4(12);net-drop@4(0);net-reorder@4(0)",
            "seed=2;slowloris-stall@2(12);slowloris-stall@5(2);slowloris-stall@4(6);\
             net-reorder@3(0);peer-abort@4(58);net-corrupt@1(211)",
            "seed=3;slowloris-stall@2(12);slowloris-stall@5(2);slowloris-stall@4(6);\
             net-reorder@3(0);peer-abort@4(58);net-corrupt@1(211)",
        ];
        for (s, (random, net)) in (1u64..=3).zip(random.into_iter().zip(net)) {
            assert_eq!(FaultPlan::random(s, 6).wire(), random, "random seed {s}");
            assert_eq!(FaultPlan::random_net(s, 6).wire(), net, "random_net seed {s}");
        }
    }

    #[test]
    fn point_names_round_trip() {
        for p in ALL_POINTS {
            assert_eq!(p.name().parse::<FaultPoint>().unwrap(), p);
        }
        assert!("bogus".parse::<FaultPoint>().is_err());
    }
}
