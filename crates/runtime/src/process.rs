//! The MCFI process: loader, dynamic linker, syscall interposition, and
//! the execution loop.
//!
//! Loading a library follows the paper's three dynamic-linking steps
//! (§6): **module preparation** (code mapped writable, relocated, Bary
//! slots patched, then flipped to executable — W^X throughout), **new
//! CFG generation** (type-matching over the union of all loaded modules'
//! auxiliary information), and **ID-table updates** (one `TxUpdate`, with
//! GOT adjustments between the Tary and Bary phases).

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mcfi_cfggen::{generate, ControlFlowPolicy, Placed};
use mcfi_chaos::{Backoff, ChaosInjector, FaultPlan, FaultPoint};
use serde::Serialize;
use mcfi_machine::{check, DecodeError};
use mcfi_minic::types::TypeEnv;
use mcfi_linker::build_plt_stub;
use mcfi_module::{AdmissionError, DecodeLimits, Module, RelocKind};
use mcfi_tables::{
    CheckError, IdTables, LeaseConfig, RetryConfig, TablesConfig, TxCounters, ViolationKind,
    WatchdogVerdict,
};

use crate::icache::PredecodeCache;
use crate::mem::{MemFault, Perm, Sandbox, SandboxSnapshot};
use crate::synth::Sys;
use crate::trans;
use crate::vm::{Event, Vm, VmError, VmState};

/// Installs `policy` into `tables` with one sorted update transaction
/// ([`IdTables::update_sorted`]: the policy's targets in ascending
/// address order, and one ECN per Bary slot), running `between` between
/// its Tary and Bary phases. Every runtime policy install goes through
/// here.
pub(crate) fn install(tables: &IdTables, policy: &ControlFlowPolicy, between: impl FnOnce()) {
    let tary: Vec<(u64, u32)> = policy.tary.iter().map(|(&addr, &ecn)| (addr, ecn)).collect();
    let bary: Vec<u32> = policy.bary.iter().map(|b| b.ecn).collect();
    tables.update_sorted(&tary, &bary, between);
}

/// Address-space layout of a process.
#[derive(Clone, Copy, Debug)]
pub struct Layout {
    /// First code address.
    pub code_base: u64,
    /// Exclusive end of the code region (also sizes the Tary table).
    pub code_limit: u64,
    /// First data address.
    pub data_base: u64,
    /// Exclusive end of static data + GOT area; heap begins here.
    pub heap_base: u64,
    /// Exclusive end of the heap.
    pub heap_limit: u64,
    /// Stack top (stack grows down from here).
    pub stack_top: u64,
    /// Stack size in bytes.
    pub stack_size: u64,
}

impl Default for Layout {
    fn default() -> Self {
        Layout {
            code_base: 0x1000,
            code_limit: 0x10_0000,  // 1 MiB of code
            data_base: 0x10_0000,
            heap_base: 0x18_0000,
            heap_limit: 0x3e_0000,
            stack_top: 0x40_0000, // 4 MiB sandbox
            stack_size: 0x1_0000,
        }
    }
}

/// Process construction options.
#[derive(Clone, Copy, Debug)]
pub struct ProcessOptions {
    /// Address-space layout.
    pub layout: Layout,
    /// Maximum executed instructions before aborting.
    pub max_steps: u64,
    /// Maximum Bary slots (indirect branches) across all loaded modules.
    pub bary_capacity: usize,
    /// How [`Process::run`] and [`Process::run_with_updates`] fetch and
    /// execute instructions (see [`FetchMode`]). Architecturally
    /// invisible either way; only the cache and tier counters differ.
    /// [`Process::run_with_attacker`] always decodes per step, since the
    /// attacker rewrites raw memory between steps.
    pub fetch: FetchMode,
    /// What to do when a check transaction halts the program.
    pub violation_policy: ViolationPolicy,
    /// Steps between automatic in-run checkpoints (0 = disabled). When
    /// enabled, the run loop captures a full [`Checkpoint`] — resumable
    /// VM state included — every `checkpoint_interval` executed
    /// instructions, keeping the most recent few
    /// ([`Process::checkpoints`]).
    pub checkpoint_interval: u64,
    /// Decode budgets applied when admitting untrusted serialized module
    /// images ([`Process::register_library_image`] /
    /// [`Process::load_image`]). Defaults to
    /// [`DecodeLimits::admission`]; trusted in-memory [`Module`]s loaded
    /// via [`Process::load`] are not subject to these limits.
    pub admission: DecodeLimits,
}

impl Default for ProcessOptions {
    fn default() -> Self {
        ProcessOptions {
            layout: Layout::default(),
            max_steps: 500_000_000,
            bary_capacity: 1 << 16,
            fetch: FetchMode::Predecode,
            violation_policy: ViolationPolicy::Enforce,
            checkpoint_interval: 0,
            admission: DecodeLimits::admission(),
        }
    }
}

/// The instruction-fetch path of a run ([`ProcessOptions::fetch`]).
/// Each mode is observationally identical to the others; they differ in
/// speed and in which of the `icache_*`/`trans_*` counters move.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FetchMode {
    /// Decode every instruction from memory on every step — the A/B
    /// baseline for the code cache.
    Decode,
    /// Fetch through the predecoded-instruction cache (see
    /// [`crate::icache`]; the default).
    #[default]
    Predecode,
    /// Execute through the baseline-compiled tier (see [`crate::trans`]):
    /// basic blocks are lowered to threaded-code form with the Fig. 4
    /// check transaction specialized per indirect-branch site, over the
    /// same code cache, whose generation bumps deoptimize them. Off by
    /// default so the interpreter's counters keep their meaning.
    Translate,
}

/// What the runtime does when an indirect branch fails its check
/// transaction — how production CFI deployments stage a rollout.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ViolationPolicy {
    /// Halt the program at the `hlt` (the paper's behavior; the default).
    #[default]
    Enforce,
    /// Record the violation in a bounded log and let the transfer
    /// proceed. Detection without enforcement: the run reports every
    /// would-be violation, but the program keeps its availability.
    Audit,
    /// Halt at the `hlt` like `Enforce`, but signal that a supervisor
    /// intends to *recover*: roll the process back to its last good
    /// checkpoint, quarantine the module that owns the faulting branch,
    /// and re-run (see `mcfi-supervisor`). At the process level this
    /// behaves exactly like `Enforce` — the difference is the layer
    /// above, which escalates to `Enforce` once its retry budget is
    /// spent.
    Recover,
}

/// One audited CFI violation (see [`ViolationPolicy::Audit`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ViolationRecord {
    /// Address of the `hlt` that would have fired.
    pub pc: u64,
    /// Bary slot of the offending indirect branch.
    pub bary_slot: usize,
    /// The address the branch transferred to anyway.
    pub target: u64,
    /// The diagnosed policy failure, when the tables could still explain
    /// it at audit time (`None` if a concurrent update already settled
    /// the skew that produced the halt).
    pub kind: Option<ViolationKind>,
}

/// A bounded log of audited violations.
///
/// Rate-limited by capacity rather than time: a hijacked indirect branch
/// in a hot loop would otherwise grow the log without bound. The first
/// [`ViolationLog::CAPACITY`] records are kept verbatim; everything after
/// is counted in [`ViolationLog::dropped`]. Exactly at the boundary: the
/// `CAPACITY`-th violation is *retained* (`dropped() == 0`), and only the
/// `CAPACITY + 1`-st onward are dropped.
#[derive(Clone, Debug, Default)]
pub struct ViolationLog {
    records: Vec<ViolationRecord>,
    dropped: u64,
}

impl ViolationLog {
    /// The number of records kept verbatim.
    pub const CAPACITY: usize = 64;

    fn push(&mut self, rec: ViolationRecord) {
        if self.records.len() < Self::CAPACITY {
            self.records.push(rec);
        } else {
            self.dropped += 1;
        }
    }

    fn clear(&mut self) {
        self.records.clear();
        self.dropped = 0;
    }

    /// The retained records, in occurrence order.
    pub fn records(&self) -> &[ViolationRecord] {
        &self.records
    }

    /// Violations observed after the log filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total violations observed (retained + dropped).
    pub fn total(&self) -> u64 {
        self.records.len() as u64 + self.dropped
    }
}

/// Why a run ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// The program called `exit`.
    Exit {
        /// Exit code.
        code: i64,
    },
    /// A check transaction halted the program: a CFI violation.
    CfiViolation {
        /// Address of the `hlt`.
        pc: u64,
    },
    /// A hardware-level fault (memory, decode, division).
    Fault(FaultKind),
    /// The step budget ran out.
    StepLimit,
}

/// A structured fault identity (replacing the former free-form string),
/// so fault-injection tests can assert on *which* fault occurred rather
/// than on message substrings. The `Display` output of each variant is
/// byte-identical to the string the corresponding path used to produce.
#[derive(Clone, PartialEq, Debug)]
pub enum FaultKind {
    /// A memory fault raised by the VM (fetch/load/store).
    Mem(MemFault),
    /// An undecodable instruction.
    Decode(DecodeError),
    /// Integer division by zero.
    DivideByZero {
        /// Faulting pc.
        pc: u64,
    },
    /// Jump-table index out of bounds.
    TableIndex {
        /// Faulting pc.
        pc: u64,
    },
    /// A memory fault raised while servicing a syscall (reading guest
    /// buffers or strings).
    SysMem(MemFault),
    /// A syscall number the runtime does not interpose.
    UnknownSyscall(u64),
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Mem(m) => write!(f, "memory fault: {m}"),
            FaultKind::Decode(d) => write!(f, "decode fault: {d}"),
            FaultKind::DivideByZero { pc } => write!(f, "division by zero at {pc:#x}"),
            FaultKind::TableIndex { pc } => {
                write!(f, "jump-table index out of range at {pc:#x}")
            }
            FaultKind::SysMem(m) => m.fmt(f),
            FaultKind::UnknownSyscall(num) => write!(f, "unknown syscall {num}"),
        }
    }
}

impl std::error::Error for FaultKind {}

/// Maps a stepping error to the outcome the run loop reports.
fn vm_outcome(e: VmError) -> Outcome {
    match e {
        VmError::StepLimit => Outcome::StepLimit,
        VmError::Mem(m) => Outcome::Fault(FaultKind::Mem(m)),
        VmError::Decode(d) => Outcome::Fault(FaultKind::Decode(d)),
        VmError::DivideByZero { pc } => Outcome::Fault(FaultKind::DivideByZero { pc }),
        VmError::TableIndex { pc } => Outcome::Fault(FaultKind::TableIndex { pc }),
    }
}

/// The result of running a program.
#[derive(Clone, PartialEq, Debug)]
pub struct RunResult {
    /// Why execution ended.
    pub outcome: Outcome,
    /// Everything written to fd 1.
    pub stdout: String,
    /// Instructions executed.
    pub steps: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Check transactions started (retries included).
    pub checks: u64,
    /// Indirect branches taken.
    pub indirect_taken: u64,
    /// Predecode-cache hits (zero on uncached runs).
    pub icache_hits: u64,
    /// Predecode-cache misses (zero on uncached runs).
    pub icache_misses: u64,
    /// Predecode-cache rebuilds forced by loader activity.
    pub icache_invalidations: u64,
    /// Whether control ever reached `execve` (the §8.3 case study probe).
    pub execve_reached: bool,
    /// Update transactions executed during the run (dlopens).
    pub updates: u64,
    /// Guest-level check retries observed by the VM (TaryLoads that saw
    /// version skew; see [`crate::vm::VmStats::check_retries`]).
    pub check_retries: u64,
    /// Host-side table check retries during the run (the shared tables'
    /// counter, as a delta — external updater threads contribute too).
    pub tx_retries: u64,
    /// Bounded-check escalations to the update lock during the run.
    pub tx_escalations: u64,
    /// Abandoned update transactions repaired during the run.
    pub tx_repairs: u64,
    /// Violations recorded (not halted) under the `Audit` policy.
    pub audited_violations: u64,
    /// Dynamic loads rolled back during the run (failed `dlopen`s that
    /// restored the pre-load state).
    pub load_rollbacks: u64,
    /// Checkpoints captured, as a process-lifetime total. Lifetime, not
    /// a delta: supervisor recovery (restore, quarantine, watchdog
    /// repair) happens *between* runs, so the final run's result must
    /// report everything the recovery consumed to get there.
    pub checkpoints: u64,
    /// Checkpoint restores performed (process-lifetime total; see
    /// [`RunResult::checkpoints`]).
    pub restores: u64,
    /// Libraries quarantined — banned after repeated failures or a
    /// supervisor decision (process-lifetime total).
    pub quarantines: u64,
    /// Untrusted module images refused by the admission pipeline —
    /// decode-budget violations, malformed wire bytes, metadata whose
    /// offsets escape the images, or verifier rejects (process-lifetime
    /// total; see [`RunResult::checkpoints`]).
    pub admission_rejects: u64,
    /// Abandoned update transactions healed by the lease watchdog
    /// (tables-lifetime total; see [`RunResult::checkpoints`]).
    pub tx_lease_repairs: u64,
    /// Translated blocks dispatched by the baseline-compiled tier
    /// (zero on untranslated runs; see [`crate::trans`]).
    pub trans_dispatches: u64,
    /// Basic blocks lowered to threaded-code form during the run.
    pub trans_translations: u64,
    /// Translations performed after at least one deoptimization — the
    /// lazy re-translation work a generation bump forces.
    pub trans_retranslations: u64,
    /// Deoptimization events: generation bumps (dlopen, chaos) that
    /// retired live translated blocks back to the interpreter.
    pub trans_deopts: u64,
    /// Dispatches that fell back to single-step interpretation.
    pub trans_fallbacks: u64,
}

/// A loading/linking failure.
#[derive(Clone, PartialEq, Debug)]
pub enum LoadError {
    /// The configured [`Layout`] is inconsistent (overlapping or
    /// inverted regions, GOT area outside the data region): rejected at
    /// [`Process::new`] instead of panicking mid-construction.
    Layout(&'static str),
    /// The regions are exhausted.
    OutOfSpace(&'static str),
    /// An absolute-address relocation referenced an undefined symbol.
    Unresolved(String),
    /// Type environments of modules clash.
    TypeClash(String),
    /// Too many indirect branches for the configured Bary capacity.
    BaryOverflow,
    /// A memory operation failed during loading.
    Mem(String),
    /// The module verifier rejected the prepared image (in this
    /// reproduction, raised by fault injection mid-`dlopen`).
    Rejected(String),
    /// Control-flow-graph regeneration over the loaded modules failed
    /// (likewise raised by fault injection).
    CfgRegen(String),
    /// The admission pipeline refused an untrusted module image: the
    /// wire bytes were malformed, a decode budget was exceeded, decoded
    /// metadata did not fit the images, or the machine-code verifier
    /// rejected the prepared module.
    Admission(AdmissionError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Layout(what) => write!(f, "inconsistent layout: {what}"),
            LoadError::OutOfSpace(what) => write!(f, "{what} region exhausted"),
            LoadError::Unresolved(s) => write!(f, "unresolved symbol `{s}`"),
            LoadError::TypeClash(s) => write!(f, "type clash: {s}"),
            LoadError::BaryOverflow => write!(f, "bary capacity exceeded"),
            LoadError::Mem(s) => write!(f, "loader memory fault: {s}"),
            LoadError::Rejected(s) => write!(f, "module verifier rejected the image: {s}"),
            LoadError::CfgRegen(s) => write!(f, "cfg regeneration failed: {s}"),
            LoadError::Admission(e) => write!(f, "admission rejected the image: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// A module in the process's load order. Checkpoints share the module
/// itself; the only edit a loaded module takes, an address-taken mark,
/// copies it first.
#[derive(Clone)]
struct LoadedModule {
    module: Arc<Module>,
    code_base: u64,
    data_base: u64,
}

/// A registered library awaiting `dlopen`. Trusted callers hand the
/// runtime an already-decoded [`Module`]; untrusted images stay as raw
/// bytes and pass through the hardened admission pipeline (budgeted
/// decode, structural validation, machine-code verification) at load
/// time.
#[derive(Clone)]
enum LibraryEntry {
    Decoded(Arc<Module>),
    Image(Arc<[u8]>),
}

/// Everything a restore puts back besides memory and VM registers: the
/// loader's placement state, the library registry, and run-visible
/// output. A checkpoint holds one copy and a load transaction another;
/// modules and registered images sit behind `Arc`s, so a copy moves
/// pointers, never module or image bytes.
#[derive(Clone)]
struct LoaderState {
    modules: Vec<LoadedModule>,
    registry: HashMap<String, LibraryEntry>,
    /// symbol -> GOT slot address (for PLT-routed imports).
    got: BTreeMap<String, u64>,
    /// symbol -> PLT stub entry address.
    plt: BTreeMap<String, u64>,
    next_code: u64,
    next_data: u64,
    got_next: u64,
    brk: u64,
    total_slots: usize,
    /// Union of all loaded modules' type environments, grown at load time
    /// so clashes surface as load errors (not CFG-generation panics).
    env: TypeEnv,
    stdout: Vec<u8>,
    execve_reached: bool,
    /// Violations recorded under [`ViolationPolicy::Audit`].
    violations: ViolationLog,
}

/// A restorable snapshot of a process: memory image, loader state, the
/// library registry, run-visible output, and (for in-run checkpoints)
/// the VM's register state.
///
/// The ID tables are deliberately *not* captured: restoring replays a
/// fresh update transaction over the restored module set
/// ([`Process::restore`] calls the same policy-installation path a load
/// does), so concurrent checkers never observe a table rollback — table
/// versions only move forward, exactly as during dynamic linking.
/// Likewise excluded: quarantine state (a recovery must remember *why*
/// it recovered), armed fault plans, and lifetime counters.
#[derive(Clone)]
pub struct Checkpoint {
    mem: SandboxSnapshot,
    /// Digest of `mem` recorded at capture; verified before restore.
    digest: u64,
    /// VM register state for resumable in-run checkpoints (`None` for
    /// between-run checkpoints — restore then re-runs from the entry).
    vm: Option<VmState>,
    state: LoaderState,
    /// Table version at capture (diagnostic only — never restored).
    table_version: u32,
}

impl Checkpoint {
    /// Names of the modules loaded when the checkpoint was taken.
    pub fn module_names(&self) -> Vec<String> {
        self.state.modules.iter().map(|m| m.module.name.clone()).collect()
    }

    /// Whether the checkpoint captured resumable VM state (an in-run
    /// checkpoint) rather than a between-run snapshot.
    pub fn resumable(&self) -> bool {
        self.vm.is_some()
    }

    /// Executed-instruction count at capture (0 for between-run
    /// checkpoints).
    pub fn steps(&self) -> u64 {
        self.vm.as_ref().map_or(0, |v| v.stats().steps)
    }

    /// The memory-image digest recorded at capture.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The table version at capture (diagnostic — restore never rolls
    /// the tables back to it).
    pub fn table_version(&self) -> u32 {
        self.table_version
    }
}

/// Why a [`Process::restore`] refused to restore a checkpoint. Both
/// variants leave the process state completely untouched — the failure
/// is detected before anything is written.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RestoreError {
    /// Fault injection refused the restore ([`FaultPoint::RestoreFail`]).
    Injected(u64),
    /// The snapshot's recomputed digest no longer matches the digest
    /// recorded at capture: the checkpoint is corrupt.
    Corrupt {
        /// Digest recorded when the checkpoint was taken.
        expected: u64,
        /// Digest recomputed from the stored snapshot.
        actual: u64,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Injected(p) => {
                write!(f, "restore refused by injected fault (parameter {p})")
            }
            RestoreError::Corrupt { expected, actual } => write!(
                f,
                "checkpoint corrupt: digest {actual:#018x} != recorded {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

/// Quarantine policy for repeatedly failing dynamic loads (opt-in via
/// [`Process::set_quarantine`]).
///
/// Each `dlopen` failure for a library backs off its next retry through
/// the shared seeded [`Backoff`] helper (exponential in the failure
/// count, plus deterministic per-library jitter so herds of retries
/// decorrelate). After `max_failures` failures the library is banned
/// outright: `dlopen` reports failure to the guest without even
/// attempting the load.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct QuarantineConfig {
    /// Failures before a permanent ban.
    pub max_failures: u32,
    /// Base backoff in simulated cycles (doubles per failure).
    pub base_backoff: u64,
    /// Seed for the deterministic retry jitter.
    pub seed: u64,
}

impl Default for QuarantineConfig {
    fn default() -> Self {
        QuarantineConfig { max_failures: 3, base_backoff: 1_000, seed: 1 }
    }
}

impl QuarantineConfig {
    /// The [`Backoff`] policy this config induces.
    pub fn backoff(&self) -> Backoff {
        Backoff::new(self.seed, self.base_backoff)
    }
}

/// Why a library entered quarantine (the machine-readable side of
/// [`QuarantineStatus::last_error`], for supervisor policy decisions).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum QuarantineReason {
    /// A load attempt failed inside the transactional loader (region
    /// exhaustion, unresolved symbols, type clashes, injected faults).
    LoadFailed,
    /// The admission pipeline refused the image itself: malformed wire
    /// bytes, a decode-budget violation, metadata that escapes the
    /// code/data images, or a machine-code verifier reject.
    MalformedImage,
    /// A supervisor attributed a CFI violation to the module and banned
    /// it outright.
    CfiViolation,
}

/// Per-library quarantine state (see [`Process::quarantine_report`]).
#[derive(Clone, Debug, Serialize)]
pub struct QuarantineStatus {
    /// The library's registry name (or module name, for violation bans).
    pub library: String,
    /// Load failures observed so far.
    pub failures: u32,
    /// Earliest cycle at which the next load attempt is allowed.
    pub retry_at: u64,
    /// Whether the library is permanently banned.
    pub banned: bool,
    /// Why the most recent failure quarantined the library.
    pub reason: QuarantineReason,
    /// Human-readable reason for the most recent failure.
    pub last_error: String,
}

/// An MCFI process: sandboxed memory, shared ID tables, loaded modules,
/// GOT/PLT state, and the trusted runtime services.
pub struct Process {
    opts: ProcessOptions,
    mem: Sandbox,
    tables: Arc<IdTables>,
    state: LoaderState,
    updates: u64,
    /// Published cycle counter (for external updater threads).
    cycles_shared: Arc<AtomicU64>,
    /// The code cache — predecoded slots and translated blocks — of the
    /// cached and translated run loops. Kept on the process so it
    /// survives across consecutive runs.
    icache: PredecodeCache,
    /// Armed fault injector, shared with the tables (see [`mcfi_chaos`]).
    chaos: Option<Arc<ChaosInjector>>,
    /// Dynamic loads rolled back after a mid-`dlopen` failure.
    load_rollbacks: u64,
    /// Recent checkpoints, oldest first (bounded; see `MAX_CHECKPOINTS`).
    checkpoints: Vec<Checkpoint>,
    /// Checkpoints captured over the process lifetime.
    checkpoints_taken: u64,
    /// Successful restores over the process lifetime.
    restores: u64,
    /// VM state to resume from on the next run (set by a restore of an
    /// in-run checkpoint; consumed by `start_vm`).
    pending_resume: Option<VmState>,
    /// Quarantine policy (None = quarantine disabled, failed loads
    /// retry freely — the pre-supervisor behavior).
    quarantine: Option<QuarantineConfig>,
    /// Per-library quarantine state, by library name.
    quarantine_entries: BTreeMap<String, QuarantineStatus>,
    /// Libraries banned so far (process lifetime total).
    quarantines: u64,
    /// `dlopen`s refused without a load attempt (backoff or ban).
    quarantine_denials: u64,
    /// Untrusted images refused by admission (process lifetime total).
    admission_rejects: u64,
}

/// A sandbox fault met by the loader.
fn mem_err(e: MemFault) -> LoadError {
    LoadError::Mem(e.to_string())
}

/// Runs the machine-code verifier over the module an untrusted load was
/// handed — not over whatever the load placed last, which is a PLT stub
/// when the module imports a symbol no loaded module defines. The image
/// is pristine: relocations patch the sandbox copy, not the `Module`.
fn verify_untrusted(module: &Module) -> Result<(), LoadError> {
    let report = mcfi_verifier::verify(module);
    if report.ok() {
        return Ok(());
    }
    let reason = report
        .violations
        .iter()
        .take(4)
        .map(std::string::ToString::to_string)
        .collect::<Vec<_>>()
        .join("; ");
    Err(LoadError::Admission(AdmissionError::VerifierReject { reason }))
}

/// Rejects inconsistent [`Layout`]s before any of their arithmetic runs:
/// every subtraction below is used unchecked by the constructor and the
/// loader, and the GOT reservation (`data_base .. data_base + 0x1000`)
/// must sit inside the mapped data region so `install_policy`'s GOT
/// writes are infallible by construction.
fn validate_layout(l: &Layout) -> Result<(), LoadError> {
    if l.code_base > l.code_limit {
        return Err(LoadError::Layout("code_base above code_limit"));
    }
    if l.code_limit > l.data_base {
        return Err(LoadError::Layout("code region overlaps the data region"));
    }
    if l.data_base.checked_add(0x1000).is_none_or(|got_end| got_end > l.heap_base) {
        return Err(LoadError::Layout("no room for the GOT area below heap_base"));
    }
    if l.heap_base > l.heap_limit {
        return Err(LoadError::Layout("heap_base above heap_limit"));
    }
    if l.stack_size > l.stack_top {
        return Err(LoadError::Layout("stack_size exceeds stack_top"));
    }
    if l.heap_limit > l.stack_top - l.stack_size {
        return Err(LoadError::Layout("heap overlaps the stack region"));
    }
    Ok(())
}

impl Process {
    /// Creates an empty process.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError::Layout`] when the configured [`Layout`] is
    /// inconsistent (inverted or overlapping regions, no room for the
    /// GOT inside the data region) and [`LoadError::Mem`] when the
    /// sandbox refuses a region mapping — a mis-laid-out process is an
    /// admission failure, not a host abort.
    pub fn new(opts: ProcessOptions) -> Result<Self, LoadError> {
        Self::with_tables(opts, None)
    }

    /// Like [`Process::new`], but instead of allocating private ID
    /// tables the process adopts `tables` — a per-process delta shard
    /// attached to a [`crate::SharedImage`]'s base. All table traffic
    /// (checks, policy installs, repairs) goes through the shard's
    /// copy-on-write layering; update transactions sweep the whole
    /// image.
    ///
    /// # Errors
    ///
    /// [`LoadError::Layout`] when the shard's sizing disagrees with this
    /// process's layout/`bary_capacity` — the tables must cover exactly
    /// the same code region and slot space.
    pub fn new_attached(opts: ProcessOptions, tables: Arc<IdTables>) -> Result<Self, LoadError> {
        let want = TablesConfig {
            code_size: opts.layout.code_limit as usize,
            bary_slots: opts.bary_capacity,
        };
        if tables.config() != want {
            return Err(LoadError::Layout("attached tables sized for a different image layout"));
        }
        Self::with_tables(opts, Some(tables))
    }

    fn with_tables(
        opts: ProcessOptions,
        tables: Option<Arc<IdTables>>,
    ) -> Result<Self, LoadError> {
        let l = opts.layout;
        validate_layout(&l)?;
        let mut mem = Sandbox::new(l.stack_top as usize);
        mem.map(l.data_base, l.heap_limit - l.data_base, Perm::Rw)
            .map_err(|e| LoadError::Mem(format!("mapping the data region: {e}")))?;
        mem.map(l.stack_top - l.stack_size, l.stack_size, Perm::Rw)
            .map_err(|e| LoadError::Mem(format!("mapping the stack region: {e}")))?;
        let tables = tables.unwrap_or_else(|| {
            Arc::new(IdTables::new(TablesConfig {
                code_size: l.code_limit as usize,
                bary_slots: opts.bary_capacity,
            }))
        });
        // Reserve a GOT area at the start of the data region.
        let got_area = l.data_base;
        Ok(Process {
            opts,
            mem,
            tables,
            state: LoaderState {
                modules: Vec::new(),
                registry: HashMap::new(),
                got: BTreeMap::new(),
                plt: BTreeMap::new(),
                next_code: l.code_base,
                next_data: got_area + 0x1000, // 4 KiB of GOT slots
                got_next: got_area,
                brk: l.heap_base,
                total_slots: 0,
                env: TypeEnv::new(),
                stdout: Vec::new(),
                execve_reached: false,
                violations: ViolationLog::default(),
            },
            updates: 0,
            cycles_shared: Arc::new(AtomicU64::new(0)),
            icache: PredecodeCache::new(),
            chaos: None,
            load_rollbacks: 0,
            checkpoints: Vec::new(),
            checkpoints_taken: 0,
            restores: 0,
            pending_resume: None,
            quarantine: None,
            quarantine_entries: BTreeMap::new(),
            quarantines: 0,
            quarantine_denials: 0,
            admission_rejects: 0,
        })
    }

    /// Arms deterministic fault injection over this process and its ID
    /// tables. The returned injector reports which faults actually fired
    /// (see [`ChaosInjector::fired`]).
    pub fn arm_chaos(&mut self, plan: FaultPlan) -> Arc<ChaosInjector> {
        let injector = ChaosInjector::arm(plan);
        self.tables.arm_chaos(Arc::clone(&injector));
        self.chaos = Some(Arc::clone(&injector));
        injector
    }

    /// Disarms fault injection on the process and its tables.
    pub fn disarm_chaos(&mut self) {
        self.tables.disarm_chaos();
        self.chaos = None;
    }

    fn chaos_fire(&self, point: FaultPoint) -> Option<u64> {
        self.chaos.as_ref().and_then(|c| c.fire(point))
    }

    /// The violations recorded by the most recent run under
    /// [`ViolationPolicy::Audit`] (empty under `Enforce`).
    pub fn violation_log(&self) -> &ViolationLog {
        &self.state.violations
    }

    /// Dynamic loads rolled back so far (process lifetime total).
    pub fn load_rollbacks(&self) -> u64 {
        self.load_rollbacks
    }

    /// Most recent checkpoints, at most `MAX_CHECKPOINTS` (4).
    const MAX_CHECKPOINTS: usize = 4;

    /// Checkpoints currently retained, oldest first.
    pub fn checkpoints(&self) -> &[Checkpoint] {
        &self.checkpoints
    }

    /// Checkpoints captured so far (process lifetime total).
    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpoints_taken
    }

    /// Successful restores so far (process lifetime total).
    pub fn restores(&self) -> u64 {
        self.restores
    }

    /// Captures a between-run checkpoint (no VM state: a restore re-runs
    /// from an entry point) and retains it. Returns a reference to the
    /// stored checkpoint.
    pub fn checkpoint_now(&mut self) -> &Checkpoint {
        let cp = self.capture_checkpoint(None);
        self.push_checkpoint(cp);
        self.checkpoints.last().expect("just pushed")
    }

    fn capture_checkpoint(&mut self, vm: Option<&Vm>) -> Checkpoint {
        let mem = self.mem.snapshot();
        let mut digest = mem.capture_digest();
        // A corrupt checkpoint is modeled by skewing the *recorded*
        // digest: the snapshot payload is opaque to this layer, and an
        // unverifiable checkpoint is exactly what storage corruption
        // produces — `restore` detects the mismatch and refuses.
        if let Some(p) = self.chaos_fire(FaultPoint::CheckpointCorrupt) {
            digest ^= p | 1;
        }
        self.checkpoints_taken += 1;
        Checkpoint {
            mem,
            digest,
            vm: vm.map(Vm::snapshot),
            state: self.state.clone(),
            table_version: self.tables.current_version().raw(),
        }
    }

    /// Whether `cp` holds the process's loaded modules themselves, none
    /// of them copied.
    #[cfg(test)]
    pub(crate) fn shares_modules_with(&self, cp: &Checkpoint) -> bool {
        let (ours, theirs) = (&self.state.modules, &cp.state.modules);
        ours.len() == theirs.len()
            && ours.iter().zip(theirs).all(|(a, b)| Arc::ptr_eq(&a.module, &b.module))
    }

    /// The loaded modules, PLT stubs included, in load order.
    #[cfg(test)]
    pub(crate) fn loaded_modules(&self) -> impl Iterator<Item = &Arc<Module>> {
        self.state.modules.iter().map(|lm| &lm.module)
    }

    fn push_checkpoint(&mut self, cp: Checkpoint) {
        if self.checkpoints.len() == Self::MAX_CHECKPOINTS {
            self.checkpoints.remove(0);
        }
        self.checkpoints.push(cp);
    }

    /// Restores the process to `cp`: memory image, loader state, library
    /// registry, and run-visible output all return to their captured
    /// values. The ID tables are *re-synchronized*, not rolled back — a
    /// fresh update transaction installs the CFG of the restored module
    /// set, so table versions keep moving forward and the predecode
    /// cache invalidates itself via the sandbox generation bump.
    ///
    /// If `cp` captured VM state, the next run resumes from exactly that
    /// state (the entry argument is ignored); otherwise the next run
    /// starts from its entry point as usual.
    ///
    /// # Errors
    ///
    /// Refuses — leaving the process untouched — when fault injection
    /// fails the restore or the checkpoint's digest no longer matches.
    pub fn restore(&mut self, cp: &Checkpoint) -> Result<(), RestoreError> {
        if let Some(p) = self.chaos_fire(FaultPoint::RestoreFail) {
            return Err(RestoreError::Injected(p));
        }
        let actual = cp.mem.digest();
        if actual != cp.digest {
            return Err(RestoreError::Corrupt { expected: cp.digest, actual });
        }
        self.mem.restore(&cp.mem);
        self.state = cp.state.clone();
        self.pending_resume = cp.vm.clone();
        // Re-sync the tables to the restored module set with a forward
        // update transaction (never a rollback).
        self.install_policy();
        self.restores += 1;
        Ok(())
    }

    /// Enables quarantine-with-backoff for failing dynamic loads.
    pub fn set_quarantine(&mut self, config: QuarantineConfig) {
        self.quarantine = Some(config);
    }

    /// The active violation policy.
    pub fn violation_policy(&self) -> ViolationPolicy {
        self.opts.violation_policy
    }

    /// Changes the violation policy between runs (supervisor use:
    /// escalating [`ViolationPolicy::Recover`] to `Enforce` once the
    /// recovery budget is spent).
    pub fn set_violation_policy(&mut self, policy: ViolationPolicy) {
        self.opts.violation_policy = policy;
    }

    /// Changes the step budget for subsequent runs (fleet use: a
    /// per-request deadline, so one livelocked request times out with
    /// [`Outcome::StepLimit`] instead of starving its host's loop).
    pub fn set_max_steps(&mut self, steps: u64) {
        self.opts.max_steps = steps;
    }

    /// Bans `name` outright (supervisor use: the module owned a faulting
    /// branch). Counts as a quarantine regardless of its failure history.
    pub fn quarantine_module(&mut self, name: &str, reason: &str) {
        self.note_failure(name, QuarantineReason::CfiViolation, reason.to_string(), 0);
    }

    /// The quarantine state of every library that has ever failed,
    /// sorted by name.
    pub fn quarantine_report(&self) -> Vec<QuarantineStatus> {
        self.quarantine_entries.values().cloned().collect()
    }

    /// Counts one failure of `name` in the quarantine ledger and bans the
    /// library once its failures reach `ban_at`, counting each ban once.
    /// Returns the entry while the library stays unbanned by this call.
    fn note_failure(
        &mut self,
        name: &str,
        reason: QuarantineReason,
        last_error: String,
        ban_at: u32,
    ) -> Option<&mut QuarantineStatus> {
        let entry = self.quarantine_entries.entry(name.to_string()).or_insert_with(|| {
            QuarantineStatus {
                library: name.to_string(),
                failures: 0,
                retry_at: 0,
                banned: false,
                reason,
                last_error: String::new(),
            }
        });
        entry.failures += 1;
        entry.reason = reason;
        entry.last_error = last_error;
        if entry.failures < ban_at {
            return Some(entry);
        }
        if !entry.banned {
            entry.banned = true;
            self.quarantines += 1;
        }
        None
    }

    /// `dlopen`s refused without a load attempt (backoff or ban).
    pub fn quarantine_denials(&self) -> u64 {
        self.quarantine_denials
    }

    /// Whether a `dlopen` of `name` at cycle `now` should be refused
    /// without attempting the load.
    fn quarantine_denied(&self, name: &str, now: u64) -> bool {
        match self.quarantine_entries.get(name) {
            Some(e) => e.banned || now < e.retry_at,
            None => false,
        }
    }

    /// Records a load failure for `name`, arming backoff (and, past the
    /// budget, a permanent ban). No-op unless quarantine is enabled.
    fn note_load_failure(&mut self, name: &str, now: u64, err: &LoadError) {
        let Some(cfg) = self.quarantine else { return };
        let reason = match err {
            LoadError::Admission(_) => QuarantineReason::MalformedImage,
            _ => QuarantineReason::LoadFailed,
        };
        if let Some(entry) = self.note_failure(name, reason, err.to_string(), cfg.max_failures) {
            entry.retry_at = now.saturating_add(cfg.backoff().delay(name, entry.failures));
        }
    }

    /// Clears quarantine state after a successful load.
    fn note_load_success(&mut self, name: &str) {
        self.quarantine_entries.remove(name);
    }

    /// The name of the loaded module whose code region contains `pc`
    /// (supervisor use: attributing a CFI violation to a module).
    pub fn module_at(&self, pc: u64) -> Option<&str> {
        self.state.modules.iter().find_map(|lm| {
            let len = lm.module.code.len().max(4) as u64;
            (lm.code_base <= pc && pc < lm.code_base + len).then_some(lm.module.name.as_str())
        })
    }

    /// Arms an updater lease on the shared tables, with deadlines stamped
    /// against this process's simulated cycle counter. Once armed, every
    /// update transaction advertises `acquire-cycle + duration` while it
    /// holds the update lock; a watchdog that sees the deadline expired
    /// with the lock free knows the updater died mid-transaction.
    pub fn enable_update_lease(&mut self, duration: u64) {
        self.tables.set_lease(LeaseConfig { clock: self.cycle_counter(), duration });
    }

    /// Polls the updater watchdog at the current simulated cycle (see
    /// [`mcfi_tables::IdTablesAt::watchdog_poll`]). Healing an abandoned
    /// transaction counts into [`RunResult::tx_lease_repairs`].
    pub fn watchdog_poll(&self) -> WatchdogVerdict {
        self.tables.watchdog_poll(self.cycles_shared.load(Ordering::Relaxed))
    }

    /// The shared ID tables (hand these to an updater thread to exercise
    /// concurrent update transactions, as in Fig. 6).
    pub fn tables(&self) -> Arc<IdTables> {
        Arc::clone(&self.tables)
    }

    /// A live view of the VM's cycle counter, updated during runs.
    pub fn cycle_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.cycles_shared)
    }

    /// Registers a module that `dlopen` can load later (the "file system"
    /// of loadable libraries). The module is trusted: it skips the
    /// admission pipeline and loads through [`Process::load`]. A module
    /// passed as `Arc<Module>` is registered, checkpointed and loaded
    /// without a copy.
    pub fn register_library(&mut self, file_name: &str, module: impl Into<Arc<Module>>) {
        self.state.registry.insert(file_name.to_string(), LibraryEntry::Decoded(module.into()));
    }

    /// Registers an *untrusted* serialized module image that `dlopen`
    /// can attempt to load later. The bytes are kept verbatim; at load
    /// time they pass through the full admission pipeline —
    /// budget-limited decode ([`ProcessOptions::admission`]), structural
    /// validation, and the machine-code verifier — inside the usual load
    /// transaction, so a hostile image is rejected with `dlopen`
    /// returning 0 and the process state untouched.
    pub fn register_library_image(&mut self, file_name: &str, image: Vec<u8>) {
        self.state.registry.insert(file_name.to_string(), LibraryEntry::Image(image.into()));
    }

    /// Untrusted images refused by the admission pipeline (process
    /// lifetime total).
    pub fn admission_rejects(&self) -> u64 {
        self.admission_rejects
    }

    /// Loaded modules' names and code bases (diagnostics).
    pub fn loaded(&self) -> Vec<(String, u64)> {
        self.state.modules.iter().map(|m| (m.module.name.clone(), m.code_base)).collect()
    }

    /// The sandbox (for verifier access and attack simulations).
    pub fn mem(&self) -> &Sandbox {
        &self.mem
    }

    /// Resolves a global variable to its absolute data address.
    pub fn global(&self, name: &str) -> Option<u64> {
        for lm in &self.state.modules {
            if let Some(g) = lm.module.globals.get(name) {
                return Some(lm.data_base + g.offset as u64);
            }
        }
        None
    }

    /// Reads `len` guest bytes at `addr` through the sandbox's permission
    /// checks — the host side of a shared-memory mailbox (e.g. a network
    /// harness peeking a response buffer the guest filled).
    pub fn peek(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemFault> {
        (0..len as u64).map(|i| self.mem.read8(addr + i)).collect()
    }

    /// Writes `bytes` into guest data memory at `addr` through the
    /// sandbox's permission checks — the host side of a shared-memory
    /// mailbox (e.g. a network harness delivering a packet into the
    /// guest's receive buffer between runs). Data writes never touch code
    /// pages, so the predecode/translation caches stay valid.
    pub fn poke(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        for (i, &b) in bytes.iter().enumerate() {
            self.mem.write8(addr + i as u64, b)?;
        }
        Ok(())
    }

    /// Reads a guest `int` (8 bytes, as MiniC lays them out) at the
    /// address of global `name`.
    pub fn peek_global_int(&self, name: &str) -> Option<i64> {
        let addr = self.global(name)?;
        self.mem.read64(addr).ok().map(|v| v as i64)
    }

    /// Writes a guest `int` global by `name`; returns `false` when the
    /// global does not exist or the write faults.
    pub fn poke_global_int(&mut self, name: &str, value: i64) -> bool {
        match self.global(name) {
            Some(addr) => self.mem.write64(addr, value as u64).is_ok(),
            None => false,
        }
    }

    /// The loaded modules with their code bases, for policy generation by
    /// external tooling (e.g. installing a baseline policy).
    pub fn placed_modules(&self) -> Vec<Placed<'_>> {
        self.state.modules
            .iter()
            .map(|lm| Placed { module: &lm.module, code_base: lm.code_base })
            .collect()
    }

    /// Replaces the enforced policy with an externally generated one via
    /// a fresh update transaction — used to run the same binary under
    /// classic or coarse CFI for the §8.3 comparisons.
    pub fn install_custom_policy(&mut self, policy: &ControlFlowPolicy) {
        install(&self.tables, policy, || {});
        self.updates += 1;
    }

    /// Resolves an exported function to its absolute address.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        for lm in &self.state.modules {
            if let Some(f) = lm.module.functions.get(name) {
                if f.size > 0 && !f.is_static {
                    return Some(lm.code_base + f.offset as u64);
                }
            }
        }
        None
    }

    fn resolve_func(&self, module_idx: usize, name: &str) -> Option<u64> {
        let own = &self.state.modules[module_idx];
        match own.module.functions.get(name) {
            Some(f) if f.size > 0 => Some(own.code_base + f.offset as u64),
            _ => self.symbol(name),
        }
    }

    fn resolve_global(&self, module_idx: usize, name: &str) -> Option<u64> {
        let own = &self.state.modules[module_idx];
        if let Some(g) = own.module.globals.get(name) {
            return Some(own.data_base + g.offset as u64);
        }
        if name.starts_with("__str") {
            return None; // string-pool globals are module-private
        }
        self.global(name)
    }

    /// Loads a module into the process and installs the new CFG.
    ///
    /// The load is transactional: if any step fails — region exhaustion,
    /// an unresolved relocation, a type clash, or an injected verifier /
    /// CFG-regeneration fault — the sandbox mappings and loader state are
    /// restored to their pre-load values and the process keeps executing
    /// under the CFG it had before the call.
    ///
    /// # Errors
    ///
    /// Fails on exhausted regions, unresolved absolute relocations, or
    /// type clashes.
    pub fn load(&mut self, module: impl Into<Arc<Module>>) -> Result<(), LoadError> {
        self.load_all([module])
    }

    /// Loads several modules, then installs the CFG once. Transactional
    /// as a unit: a failure anywhere rolls back every module in the batch.
    /// Modules passed as `Arc<Module>` are loaded without a copy.
    ///
    /// # Errors
    ///
    /// See [`Process::load`].
    pub fn load_all(
        &mut self,
        modules: impl IntoIterator<Item = impl Into<Arc<Module>>>,
    ) -> Result<(), LoadError> {
        self.load_tx(|p| modules.into_iter().try_for_each(|m| p.load_no_update(m.into())))
    }

    /// Admits an *untrusted* serialized module image: decodes it under
    /// the process's [`DecodeLimits`] budget, validates the decoded
    /// metadata against the images, then loads it through
    /// [`Process::load_untrusted`] (which additionally runs the
    /// machine-code verifier inside the load transaction).
    ///
    /// The `malformed-image` chaos point corrupts one byte of the image
    /// here — before decoding — so fault-injection tests exercise the
    /// full reject → rollback → quarantine path on live loads.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError::Admission`] when the image is refused (also
    /// counted in [`Process::admission_rejects`]), or any ordinary
    /// [`LoadError`] from the transactional load.
    pub fn load_image(&mut self, mut bytes: Vec<u8>) -> Result<(), LoadError> {
        if let Some(p) = self.chaos_fire(FaultPoint::MalformedImage) {
            if !bytes.is_empty() {
                let at = (p as usize) % bytes.len();
                bytes[at] ^= 0xa5;
            }
        }
        let module = match Module::decode_image(&bytes, &self.opts.admission) {
            Ok(m) => m,
            Err(e) => {
                self.admission_rejects += 1;
                return Err(LoadError::Admission(e));
            }
        };
        self.load_untrusted(module)
    }

    /// Loads an already-decoded but *untrusted* module: like
    /// [`Process::load`], but the machine-code verifier runs inside the
    /// load transaction (after preparation, before the CFG install), so
    /// an uninstrumented or malformed module is rejected and every state
    /// change is rolled back.
    ///
    /// # Errors
    ///
    /// See [`Process::load`]; verifier rejects surface as
    /// [`LoadError::Admission`] with
    /// [`AdmissionError::VerifierReject`] and count into
    /// [`Process::admission_rejects`].
    pub fn load_untrusted(&mut self, module: Module) -> Result<(), LoadError> {
        let module = Arc::new(module);
        self.load_tx(|p| {
            p.load_no_update(Arc::clone(&module))?;
            verify_untrusted(&module)
        })
    }

    /// The load transaction behind [`Process::load_all`] and
    /// [`Process::load_untrusted`] (§6's three steps as one unit): runs
    /// `prepare`, then [`Process::finish_load`]; on any failure puts the
    /// memory image and the loader state back and counts the rollback
    /// (and an admission reject). The ID tables need no snapshot: every
    /// load path mutates them only in the final, infallible update
    /// transaction.
    fn load_tx(
        &mut self,
        prepare: impl FnOnce(&mut Self) -> Result<(), LoadError>,
    ) -> Result<(), LoadError> {
        let (mem, state) = (self.mem.snapshot(), self.state.clone());
        let result = prepare(self).and_then(|()| self.finish_load());
        if let Err(e) = &result {
            self.mem.restore(&mem);
            self.state = state;
            self.load_rollbacks += 1;
            if matches!(e, LoadError::Admission(_)) {
                self.admission_rejects += 1;
            }
        }
        result
    }

    /// The fallible tail of a load: the verifier pass and CFG
    /// regeneration (both of which fault injection can fail), then the
    /// infallible table-update transaction.
    fn finish_load(&mut self) -> Result<(), LoadError> {
        if let Some(p) = self.chaos_fire(FaultPoint::VerifierReject) {
            return Err(LoadError::Rejected(format!("injected fault (parameter {p})")));
        }
        if let Some(p) = self.chaos_fire(FaultPoint::CfgRegenFail) {
            return Err(LoadError::CfgRegen(format!("injected fault (parameter {p})")));
        }
        self.install_policy();
        Ok(())
    }

    fn alloc_code(&mut self, len: usize) -> Result<u64, LoadError> {
        let base = (self.state.next_code + 15) & !15;
        let end = base + len as u64;
        if end > self.opts.layout.code_limit {
            return Err(LoadError::OutOfSpace("code"));
        }
        self.state.next_code = end;
        Ok(base)
    }

    fn load_no_update(&mut self, module: Arc<Module>) -> Result<(), LoadError> {
        // The union of auxiliary type information must be consistent
        // before any state changes (paper §6: merging is a union).
        self.state.env.merge(&module.aux.env).map_err(|e| LoadError::TypeClash(e.to_string()))?;

        // --- step 1: module preparation ---
        let code_base = self.alloc_code(module.code.len().max(4))?;
        let data_base = (self.state.next_data + 15) & !15;
        let data_end = data_base + module.data.len() as u64;
        if data_end > self.opts.layout.heap_base {
            return Err(LoadError::OutOfSpace("data"));
        }
        self.state.next_data = data_end;
        if !module.data.is_empty() {
            self.mem.load_image(data_base, &module.data).map_err(mem_err)?;
        }
        self.place(Arc::clone(&module), code_base, data_base, |p, module_idx| {
            // Apply code relocations.
            for r in &module.relocs {
                p.apply_reloc(module_idx, code_base, r.patch_at, &r.kind, false)?;
            }
            // Fill jump tables with absolute entry addresses.
            for t in &module.aux.jump_tables {
                for (i, entry) in t.entries.iter().enumerate() {
                    let at = code_base + t.table_offset as u64 + (i as u64) * 8;
                    p.write64_loader(at, code_base + *entry as u64)?;
                }
            }
            // Apply data relocations.
            for r in &module.data_relocs {
                p.apply_reloc(module_idx, data_base, r.patch_at, &r.kind, true)?;
            }
            Ok(())
        })
    }

    /// Places a module's code at `code_base`, for loaded modules and PLT
    /// stubs alike: maps the pages writable but not executable (§6 step
    /// 1), writes the code, assigns the module's global Bary slots and
    /// patches its `BaryLoad` immediates ("the loader patches the code to
    /// embed constant Bary table indexes", §5.1), lets `link` relocate
    /// the still-writable code, then makes the pages executable and
    /// non-writable.
    fn place(
        &mut self,
        module: Arc<Module>,
        code_base: u64,
        data_base: u64,
        link: impl FnOnce(&mut Self, usize) -> Result<(), LoadError>,
    ) -> Result<(), LoadError> {
        self.mem.map(code_base, module.code.len().max(4) as u64, Perm::Rw).map_err(mem_err)?;
        self.mem.load_image(code_base, &module.code).map_err(mem_err)?;
        let branches = &module.aux.indirect_branches;
        if self.state.total_slots + branches.len() > self.opts.bary_capacity {
            return Err(LoadError::BaryOverflow);
        }
        for (bi, branch) in branches.iter().enumerate() {
            let slot = (self.state.total_slots + bi) as u32;
            for (at, byte) in check::slot_bytes(branch.check_offset).zip(slot.to_le_bytes()) {
                self.mem.write8(code_base + at as u64, byte).map_err(mem_err)?;
            }
        }
        self.state.total_slots += branches.len();
        let module_idx = self.state.modules.len();
        self.state.modules.push(LoadedModule { module, code_base, data_base });
        link(self, module_idx)?;
        self.mem.protect(code_base, Perm::Rx).map_err(mem_err)
    }

    fn write64_loader(&mut self, addr: u64, v: u64) -> Result<(), LoadError> {
        self.mem.load_image(addr, &v.to_le_bytes()).map_err(mem_err)
    }

    fn apply_reloc(
        &mut self,
        module_idx: usize,
        base: u64,
        patch_at: usize,
        kind: &RelocKind,
        is_data: bool,
    ) -> Result<(), LoadError> {
        let at = base + patch_at as u64;
        match kind {
            RelocKind::FuncAbs(n) => {
                let addr = self
                    .resolve_func(module_idx, n)
                    .ok_or_else(|| LoadError::Unresolved(n.clone()))?;
                self.write64_loader(at, addr)?;
            }
            RelocKind::GlobalAbs(n) => {
                let addr = self
                    .resolve_global(module_idx, n)
                    .ok_or_else(|| LoadError::Unresolved(n.clone()))?;
                self.write64_loader(at, addr)?;
            }
            RelocKind::CodeAbs(o) => {
                let code_base = self.state.modules[module_idx].code_base;
                self.write64_loader(at, code_base + o)?;
            }
            RelocKind::JumpTable(i) => {
                let lm = &self.state.modules[module_idx];
                let t = lm
                    .module
                    .aux
                    .jump_tables
                    .get(*i as usize)
                    .ok_or_else(|| LoadError::Unresolved(format!("jump table {i}")))?;
                let addr = (lm.code_base + t.table_offset as u64) as u32;
                self.mem.load_image(at, &addr.to_le_bytes()).map_err(mem_err)?;
            }
            RelocKind::GotSlot(n) => {
                let slot = self.got_slot(n)?;
                self.write64_loader(at, slot)?;
            }
            RelocKind::CallRel(n) => {
                debug_assert!(!is_data, "direct calls cannot live in data");
                let target = match self.resolve_func(module_idx, n) {
                    Some(t) => t,
                    None => self.plt_entry(n)?, // route through the PLT
                };
                let rel = (target as i64 - (at as i64 + 4)) as i32;
                self.mem.load_image(at, &rel.to_le_bytes()).map_err(mem_err)?;
            }
        }
        Ok(())
    }

    fn got_slot(&mut self, symbol: &str) -> Result<u64, LoadError> {
        if let Some(&s) = self.state.got.get(symbol) {
            return Ok(s);
        }
        let slot = self.state.got_next;
        if slot + 8 > self.opts.layout.data_base + 0x1000 {
            return Err(LoadError::OutOfSpace("GOT"));
        }
        self.state.got_next += 8;
        self.state.got.insert(symbol.to_string(), slot);
        Ok(slot)
    }

    /// Synthesizes (or reuses) the MCFI-instrumented PLT entry for an
    /// unresolved import.
    fn plt_entry(&mut self, symbol: &str) -> Result<u64, LoadError> {
        if let Some(&addr) = self.state.plt.get(symbol) {
            return Ok(addr);
        }
        let got = self.got_slot(symbol)?;
        let stub = build_plt_stub(symbol, got);
        let code_base = self.alloc_code(stub.code.len())?;
        // The stub is a one-branch pseudo-module participating in CFG
        // generation like any other module.
        let mut m = Module::new(format!("__plt_{symbol}"));
        m.code = stub.code;
        let mut branch = stub.branch;
        branch.local_slot = 0;
        m.aux.indirect_branches.push(branch);
        self.place(Arc::new(m), code_base, 0, |_, _| Ok(()))?;
        self.state.plt.insert(symbol.to_string(), code_base);
        Ok(code_base)
    }

    /// Marks an exported function as address-taken (e.g. after `dlsym`
    /// hands out its address). Returns whether anything changed.
    ///
    /// The mark is copy-on-write: a checkpoint that shares the module
    /// keeps it unmarked.
    fn mark_address_taken(&mut self, name: &str) -> bool {
        for lm in &mut self.state.modules {
            if let Some(f) = lm.module.functions.get(name) {
                if f.size > 0 && !f.is_static && !f.address_taken {
                    let module = Arc::make_mut(&mut lm.module);
                    module.functions.get_mut(name).expect("found above").address_taken = true;
                    return true;
                }
            }
        }
        false
    }

    /// Regenerates the CFG over all loaded modules and runs the update
    /// transaction, adjusting GOT entries between the two table phases.
    fn install_policy(&mut self) {
        let policy = self.current_policy();
        // Every allocated Bary slot gets an ECN: Fig. 4's fast path would
        // pass an empty slot against any non-target.
        debug_assert_eq!(policy.bary.len(), self.state.total_slots, "a Bary slot without a policy");

        // GOT bindings resolvable now.
        let mut got_writes: Vec<(u64, u64)> = Vec::new();
        for (symbol, slot) in &self.state.got {
            if let Some(addr) = self.symbol(symbol) {
                got_writes.push((*slot, addr));
            }
        }

        let mem = &mut self.mem;
        install(&self.tables, &policy, || {
            for (slot, addr) in &got_writes {
                // Infallible by construction: `validate_layout` pins the
                // GOT area inside the mapped data region and `got_slot`
                // bounds every slot within it. A failure here would be a
                // runtime bug, not hostile input — tolerate it (the slot
                // keeps its previous binding) rather than aborting the
                // host mid-update-transaction.
                let wrote = mem.load_image(*slot, &addr.to_le_bytes()).is_ok();
                debug_assert!(wrote, "GOT slot escaped the mapped data region");
            }
        });
        self.updates += 1;
    }

    /// The current control-flow policy (regenerated on demand, for
    /// statistics and the security metrics).
    pub fn current_policy(&self) -> ControlFlowPolicy {
        generate(&self.placed_modules())
    }

    /// Prepares a VM positioned at exported function `entry` and resets
    /// the per-run process state.
    fn start_vm(&mut self, entry: &str) -> Result<Vm, LoadError> {
        // A pending restore resumes mid-program: the VM comes back at
        // the checkpointed pc with the checkpointed registers and stats,
        // and the run-visible state (stdout, violations, execve flag)
        // keeps the restored values so the completed run is
        // indistinguishable from one that never failed.
        if let Some(state) = self.pending_resume.take() {
            let mut vm = Vm::new(0);
            vm.restore_state(&state);
            return Ok(vm);
        }
        let pc = self.symbol(entry).ok_or_else(|| LoadError::Unresolved(entry.to_string()))?;
        let mut vm = Vm::new(pc);
        vm.regs[mcfi_machine::Reg::Rsp.index()] = self.opts.layout.stack_top;
        self.state.stdout.clear();
        self.state.execve_reached = false;
        self.state.violations.clear();
        Ok(vm)
    }

    fn finish_run(
        &self,
        outcome: Outcome,
        vm: &Vm,
        start_updates: u64,
        start_tx: TxCounters,
        start_rollbacks: u64,
    ) -> RunResult {
        self.cycles_shared.store(vm.stats.cycles, Ordering::Relaxed);
        let tx = self.tables.tx_counters();
        RunResult {
            outcome,
            stdout: String::from_utf8_lossy(&self.state.stdout).into_owned(),
            steps: vm.stats.steps,
            cycles: vm.stats.cycles,
            checks: vm.stats.checks,
            indirect_taken: vm.stats.indirect_taken,
            icache_hits: vm.stats.icache_hits,
            icache_misses: vm.stats.icache_misses,
            icache_invalidations: vm.stats.icache_invalidations,
            execve_reached: self.state.execve_reached,
            updates: self.updates - start_updates,
            check_retries: vm.stats.check_retries,
            tx_retries: tx.retries.saturating_sub(start_tx.retries),
            tx_escalations: tx.escalations.saturating_sub(start_tx.escalations),
            tx_repairs: tx.repairs.saturating_sub(start_tx.repairs),
            audited_violations: self.state.violations.total(),
            load_rollbacks: self.load_rollbacks - start_rollbacks,
            checkpoints: self.checkpoints_taken,
            restores: self.restores,
            quarantines: self.quarantines,
            admission_rejects: self.admission_rejects,
            tx_lease_repairs: tx.lease_repairs,
            trans_dispatches: vm.stats.trans_dispatches,
            trans_translations: vm.stats.trans_translations,
            trans_retranslations: vm.stats.trans_retranslations,
            trans_deopts: vm.stats.trans_deopts,
            trans_fallbacks: vm.stats.trans_fallbacks,
        }
    }

    /// Runs exported function `entry` (typically `__start`).
    ///
    /// Instruction fetch follows [`ProcessOptions::fetch`]; the
    /// observable result — outcome, stdout, steps, cycles, checks — is
    /// identical whichever mode runs.
    ///
    /// # Errors
    ///
    /// Fails if `entry` is not an exported function of a loaded module.
    pub fn run(&mut self, entry: &str) -> Result<RunResult, LoadError> {
        self.run_loop(entry, Driver::Plain)
    }

    /// Runs `entry` under the paper's concurrent-attacker model (§4): the
    /// `attacker` callback fires between consecutive instructions and may
    /// corrupt any writable sandbox memory (it is given the raw backing
    /// store, the registers, and the step count). Registers themselves
    /// are not directly modifiable — exactly the paper's threat model.
    ///
    /// Always decodes per step ([`FetchMode::Decode`]), since the
    /// attacker rewrites raw memory between steps.
    ///
    /// # Errors
    ///
    /// Fails if `entry` is not an exported function of a loaded module.
    pub fn run_with_attacker(
        &mut self,
        entry: &str,
        mut attacker: impl FnMut(u64, &mut [u8], &[u64; 16]),
    ) -> Result<RunResult, LoadError> {
        self.run_loop(entry, Driver::Attacker(&mut attacker))
    }

    /// Runs `entry` with update transactions scripted at exact simulated
    /// intervals: every `interval` cycles, a version re-stamp performs its
    /// Tary phase, the VM executes `duration` further cycles against the
    /// mixed-version tables (check transactions retry, exactly as in the
    /// paper's Fig. 6 experiment), and then the Bary phase commits.
    ///
    /// Deterministic: the same program yields the same cycle count on any
    /// host, unlike a free-running updater thread.
    ///
    /// # Errors
    ///
    /// Fails if `entry` is not an exported function of a loaded module.
    pub fn run_with_updates(
        &mut self,
        entry: &str,
        interval: u64,
        duration: u64,
    ) -> Result<RunResult, LoadError> {
        self.run_loop(entry, Driver::Scripted { interval, duration })
    }

    /// The single execution loop behind [`Process::run`],
    /// [`Process::run_with_attacker`], and [`Process::run_with_updates`];
    /// the `driver` supplies whatever happens between instructions.
    fn run_loop(&mut self, entry: &str, mut driver: Driver<'_>) -> Result<RunResult, LoadError> {
        let mut vm = self.start_vm(entry)?;
        let start_updates = self.updates;
        let start_rollbacks = self.load_rollbacks;
        let start_tx = self.tables.tx_counters();

        // Table version churn never touches code bytes, so the code cache
        // stays valid under scripted updates; only the attacker (who
        // rewrites raw memory between steps) forces per-step decoding.
        let fetch = match driver {
            Driver::Attacker(_) => FetchMode::Decode,
            _ => self.opts.fetch,
        };

        // A checkpoint restore hands `start_vm` the stats of the run
        // that *captured* it — including cache/tier counters a
        // differently-configured resumption never touches. Zero whatever
        // this run's configuration cannot produce, so an uncached run
        // reports 0 hits/misses instead of a stale snapshot.
        if fetch == FetchMode::Decode {
            vm.stats.icache_hits = 0;
            vm.stats.icache_misses = 0;
            vm.stats.icache_invalidations = 0;
        }
        if fetch != FetchMode::Translate {
            vm.stats.trans_dispatches = 0;
            vm.stats.trans_translations = 0;
            vm.stats.trans_retranslations = 0;
            vm.stats.trans_deopts = 0;
            vm.stats.trans_fallbacks = 0;
        }

        let tables = Arc::clone(&self.tables);
        let mut in_flight: Option<mcfi_tables::SplitBump<'_>> = None;
        let mut next_update = match driver {
            Driver::Scripted { interval, .. } => interval,
            _ => 0,
        };
        let mut commit_at = 0u64;
        let cp_interval = self.opts.checkpoint_interval;
        let mut next_checkpoint = vm.stats.steps.saturating_add(cp_interval);
        // Publication epoch for `cycles_shared` (steps / 1024). Epoch
        // comparison rather than `is_multiple_of`, because translated
        // blocks advance `steps` by more than one and would otherwise
        // skip over the exact multiples.
        let mut pub_epoch = u64::MAX;

        let outcome = loop {
            if vm.stats.steps >= self.opts.max_steps {
                break Outcome::StepLimit;
            }
            if cp_interval > 0 && vm.stats.steps >= next_checkpoint {
                let cp = self.capture_checkpoint(Some(&vm));
                self.push_checkpoint(cp);
                next_checkpoint = vm.stats.steps.saturating_add(cp_interval);
            }
            match &mut driver {
                Driver::Plain => {}
                Driver::Attacker(attacker) => {
                    attacker(vm.stats.steps, self.mem.raw_mut(), &vm.regs);
                }
                Driver::Scripted { interval, duration } => {
                    if in_flight.is_some() {
                        if vm.stats.cycles >= commit_at {
                            in_flight.take().expect("checked is_some").finish();
                            self.updates += 1;
                            next_update += *interval;
                        }
                    } else if vm.stats.cycles >= next_update {
                        in_flight = Some(tables.bump_version_split());
                        commit_at = vm.stats.cycles + *duration;
                    }
                }
            }
            let epoch = vm.stats.steps >> 10;
            if epoch != pub_epoch {
                pub_epoch = epoch;
                self.cycles_shared.store(vm.stats.cycles, Ordering::Relaxed);
            }
            let stepped = if fetch == FetchMode::Translate {
                // The chaos point that forces a mid-run deopt with no
                // loader activity (`trans-invalidate`).
                if self.chaos_fire(FaultPoint::TransInvalidate).is_some() {
                    self.icache.retire_blocks(&mut vm.stats);
                }
                // Ceilings that keep every loop-top decision above on
                // its exact instruction boundary: a block may finish
                // *on* a threshold (the next loop-top acts, exactly as
                // the interpreter's would) but never cross one.
                let step_limit = if cp_interval > 0 {
                    self.opts.max_steps.min(next_checkpoint)
                } else {
                    self.opts.max_steps
                };
                let cycle_limit = match &driver {
                    Driver::Scripted { .. } => {
                        if in_flight.is_some() {
                            commit_at
                        } else {
                            next_update
                        }
                    }
                    _ => u64::MAX,
                };
                // A dispatch that cannot run a block takes one predecoded
                // interpreter step, so the loop always makes progress.
                let cache = &mut self.icache;
                trans::dispatch(cache, &mut vm, &mut self.mem, &tables, step_limit, cycle_limit)
            } else if fetch == FetchMode::Predecode {
                vm.step_cached(&mut self.mem, &self.tables, &mut self.icache)
            } else {
                vm.step(&mut self.mem, &self.tables)
            };
            match stepped {
                Ok(Event::Continue) => {}
                Ok(Event::Halt { pc }) => {
                    match self.opts.violation_policy {
                        ViolationPolicy::Audit => {
                            if let Some(resume) = self.audit_resume(&mut vm, pc) {
                                vm.pc = resume;
                                continue;
                            }
                        }
                        ViolationPolicy::Recover => {
                            // Record the violation like an audit would —
                            // the supervisor reads the log to attribute
                            // the halt to a module — but do not resume:
                            // `Recover` halts exactly like `Enforce`.
                            let _ = self.audit_resume(&mut vm, pc);
                        }
                        ViolationPolicy::Enforce => {}
                    }
                    break Outcome::CfiViolation { pc };
                }
                Ok(Event::Syscall) => match self.syscall(&mut vm) {
                    SysOutcome::Continue => {}
                    SysOutcome::Exit(code) => break Outcome::Exit { code },
                    SysOutcome::Fault(kind) => break Outcome::Fault(kind),
                },
                Err(e) => break vm_outcome(e),
            }
        };
        if let Some(b) = in_flight.take() {
            b.finish();
            self.updates += 1;
        }
        Ok(self.finish_run(outcome, &vm, start_updates, start_tx, start_rollbacks))
    }

    /// Handles a check-transaction `hlt` under [`ViolationPolicy::Audit`]:
    /// records the violation and returns the address of the branch's
    /// success-path `CallReg`/`JmpReg` so the run loop can resume there —
    /// the branch then executes for real (return address pushed, target
    /// still in the register), exactly as if the check had passed.
    /// Returns `None` — halt anyway — when the `hlt` did not come from a
    /// check sequence (a stray halt is not a policy decision).
    fn audit_resume(&mut self, vm: &mut Vm, pc: u64) -> Option<u64> {
        let (bary_slot, target) = vm.take_last_check()?;
        let resume = self.branch_addr_for_slot(bary_slot)?;
        // Diagnose the failure from the live tables. A bounded re-check
        // can disagree with the guest's verdict (a concurrent update may
        // have settled the skew since); record `kind: None` then.
        let kind = match self.tables.check_bounded(bary_slot, target, &RetryConfig::default()) {
            Err(CheckError::Violation(v)) => Some(v.kind),
            _ => None,
        };
        self.state.violations.push(ViolationRecord { pc, bary_slot, target, kind });
        Some(resume)
    }

    /// The absolute address of the raw branch instruction behind global
    /// Bary slot `bary_slot` (slots are assigned sequentially in module
    /// load order).
    fn branch_addr_for_slot(&self, bary_slot: usize) -> Option<u64> {
        let mut base = 0usize;
        for lm in &self.state.modules {
            let branches = &lm.module.aux.indirect_branches;
            if bary_slot < base + branches.len() {
                let b = &branches[bary_slot - base];
                return Some(lm.code_base + b.branch_offset as u64);
            }
            base += branches.len();
        }
        None
    }

    fn syscall(&mut self, vm: &mut Vm) -> SysOutcome {
        use mcfi_machine::Reg;
        let num = vm.regs[Reg::Rax.nibble() as usize];
        let a = vm.regs[Reg::R8.nibble() as usize];
        let b = vm.regs[Reg::R9.nibble() as usize];
        let c = vm.regs[Reg::R10.nibble() as usize];
        let ret = if num == Sys::Exit as u64 {
            return SysOutcome::Exit(a as i64);
        } else if num == Sys::Write as u64 {
            if a == 1 {
                for i in 0..c {
                    match self.mem.read8(b + i) {
                        Ok(byte) => self.state.stdout.push(byte),
                        Err(e) => return SysOutcome::Fault(FaultKind::SysMem(e)),
                    }
                }
                c
            } else {
                u64::MAX // only stdout exists
            }
        } else if num == Sys::Sbrk as u64 {
            let delta = a as i64;
            let new = self.state.brk.wrapping_add(delta as u64);
            if new > self.opts.layout.heap_limit || new < self.opts.layout.heap_base {
                0
            } else {
                let old = self.state.brk;
                self.state.brk = new;
                old
            }
        } else if num == Sys::Mmap as u64 {
            // Interposition check: "the newly mapped memory cannot be both
            // writable and executable" (§7). Prot bits: 1=R 2=W 4=X.
            let prot = b;
            if prot & 0x2 != 0 && prot & 0x4 != 0 {
                u64::MAX // refused: W^X
            } else {
                // Only plain RW anonymous mappings are provided, carved
                // from the heap like sbrk.
                let len = (a + 4095) & !4095;
                let new = self.state.brk + len;
                if new > self.opts.layout.heap_limit {
                    u64::MAX
                } else {
                    let old = self.state.brk;
                    self.state.brk = new;
                    old
                }
            }
        } else if num == Sys::Mprotect as u64 {
            // A similar restriction is placed on mprotect (§7): requests
            // that would make memory writable and executable are refused.
            let prot = b;
            if prot & 0x2 != 0 && prot & 0x4 != 0 {
                u64::MAX
            } else {
                0
            }
        } else if num == Sys::Dlopen as u64 {
            match self.mem.read_cstr(a) {
                Ok(name) => match self.state.registry.get(&name).cloned() {
                    // A failed load has already been rolled back; the
                    // library stays registered for a later retry, dlopen
                    // reports failure to the guest, and the process keeps
                    // running under its pre-load CFG. Under quarantine, a
                    // banned or backing-off library is refused before the
                    // load is even attempted.
                    Some(entry) => {
                        let now = vm.stats.cycles;
                        if self.quarantine_denied(&name, now) {
                            self.quarantine_denials += 1;
                            0
                        } else {
                            let result = match entry {
                                LibraryEntry::Decoded(module) => self.load(module),
                                LibraryEntry::Image(bytes) => self.load_image(bytes.to_vec()),
                            };
                            match result {
                                Ok(()) => {
                                    self.note_load_success(&name);
                                    self.state.registry.remove(&name);
                                    1
                                }
                                Err(e) => {
                                    self.note_load_failure(&name, now, &e);
                                    0
                                }
                            }
                        }
                    }
                    None => 0,
                },
                Err(e) => return SysOutcome::Fault(FaultKind::SysMem(e)),
            }
        } else if num == Sys::Dlsym as u64 {
            match self.mem.read_cstr(a) {
                Ok(name) => match self.symbol(&name) {
                    Some(addr) => {
                        // Handing out a function's address makes it an
                        // indirect-call target: mark it address-taken and
                        // install the (possibly) widened CFG with a fresh
                        // update transaction.
                        if self.mark_address_taken(&name) {
                            self.install_policy();
                        }
                        addr
                    }
                    None => 0,
                },
                Err(e) => return SysOutcome::Fault(FaultKind::SysMem(e)),
            }
        } else if num == Sys::Cycles as u64 {
            vm.stats.cycles
        } else if num == Sys::Execve as u64 {
            // The dangerous syscall of the GnuPG case study: the runtime
            // records that control reached it, then refuses.
            self.state.execve_reached = true;
            u64::MAX
        } else {
            return SysOutcome::Fault(FaultKind::UnknownSyscall(num));
        };
        vm.regs[Reg::Rax.nibble() as usize] = ret;
        SysOutcome::Continue
    }
}

/// A §4 concurrent attacker: gets the pc, writable memory, and the
/// register file between consecutive instructions.
type AttackerFn<'a> = dyn FnMut(u64, &mut [u8], &[u64; 16]) + 'a;

/// What happens between consecutive instructions of the unified run
/// loop (see [`Process::run_loop`]).
enum Driver<'a> {
    /// Nothing: plain execution.
    Plain,
    /// The §4 concurrent attacker mutates writable memory between steps.
    Attacker(&'a mut AttackerFn<'a>),
    /// Scripted split update transactions at exact cycle intervals.
    Scripted {
        /// Cycles between the starts of consecutive updates.
        interval: u64,
        /// Cycles each update's mixed-version window stays open.
        duration: u64,
    },
}

enum SysOutcome {
    Continue,
    Exit(i64),
    Fault(FaultKind),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_log_is_exact_at_the_capacity_boundary() {
        let rec = |i: usize| ViolationRecord { pc: 0, bary_slot: 0, target: i as u64, kind: None };
        let mut log = ViolationLog::default();
        for i in 0..ViolationLog::CAPACITY {
            log.push(rec(i));
        }
        assert_eq!(log.records().len(), ViolationLog::CAPACITY);
        assert_eq!(log.dropped(), 0, "nothing dropped at exact capacity");
        log.push(rec(ViolationLog::CAPACITY));
        assert_eq!(log.records().len(), ViolationLog::CAPACITY);
        assert_eq!(log.dropped(), 1, "exactly the boundary record is dropped");
        assert_eq!(log.total(), ViolationLog::CAPACITY as u64 + 1);
        let targets: Vec<u64> = log.records().iter().map(|r| r.target).collect();
        assert_eq!(targets, (0..ViolationLog::CAPACITY as u64).collect::<Vec<_>>(), "first kept");
    }
}
