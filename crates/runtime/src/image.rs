//! Shared module images: one immutable module set whose policy is
//! published once into a [`SharedTables`] base, with N processes
//! attached through per-process copy-on-write delta shards.
//!
//! This is the multi-tenant half of the paper's story: the module
//! *bytes* and the version-stamped base tables are built once, every
//! attached [`Process`] gets its own sandbox and GOT but layers its ID
//! tables over the shared base, and a single batched `TxUpdate` —
//! whichever shard runs it — retargets the base and every attached
//! process in one version bump (see [`mcfi_tables::SharedTablesAt`]).
//!
//! Attachment is observable without locks via the publication epoch:
//! [`SharedImage::epoch`] counts committed image-wide transactions, so
//! a process comparing its cached epoch against
//! [`mcfi_tables::IdTablesAt::publication_epoch`] notices a batched
//! retarget the moment it commits.

use std::sync::Arc;

use mcfi_cfggen::policy_lookups;
use mcfi_module::Module;
use mcfi_tables::{SharedTables, TablesConfig, UpdateStats};

use crate::process::{LoadError, Process, ProcessOptions};

/// An immutable module image plus its published base tables.
///
/// Cloning is shallow: clones share the module set and the tables, so a
/// fleet can hand one image to many tenants.
#[derive(Clone)]
pub struct SharedImage {
    modules: Arc<[Arc<Module>]>,
    tables: SharedTables,
    opts: ProcessOptions,
}

impl std::fmt::Debug for SharedImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedImage")
            .field("modules", &self.modules.len())
            .field("attached", &self.tables.attached())
            .field("epoch", &self.tables.epoch())
            .finish()
    }
}

impl SharedImage {
    /// Builds an image from a module set (in load order): boots a
    /// throwaway prototype process to prove the set loads, asks it for
    /// its control-flow policy, then publishes that policy into a fresh
    /// shared base with one update transaction.
    ///
    /// # Errors
    ///
    /// Any [`LoadError`] the prototype boot reports — a module set that
    /// cannot load privately cannot be shared either.
    pub fn build(modules: Vec<Module>, opts: ProcessOptions) -> Result<Self, LoadError> {
        let modules: Arc<[Arc<Module>]> = modules.into_iter().map(Arc::new).collect();
        let mut proto = Process::new(opts)?;
        proto.load_all(modules.iter().cloned())?;
        let tables = SharedTables::new(TablesConfig {
            code_size: opts.layout.code_limit as usize,
            bary_slots: opts.bary_capacity,
        });
        let policy = proto.current_policy();
        let (tary, bary) = policy_lookups(&policy);
        tables.base().update(tary, bary);
        Ok(SharedImage { modules, tables, opts })
    }

    /// Attaches a new process with the image's canonical options: a
    /// fresh sandbox loading the shared module set, its ID tables a
    /// delta shard over the image base.
    pub fn attach(&self) -> Result<Process, LoadError> {
        self.attach_with(self.opts)
    }

    /// Like [`SharedImage::attach`] with per-process options (violation
    /// policy, step ceilings, …). The layout and `bary_capacity` must
    /// match the image's, since they size the shared tables. The process
    /// loads the image's modules themselves, not copies.
    pub fn attach_with(&self, opts: ProcessOptions) -> Result<Process, LoadError> {
        let delta = self.tables.attach();
        let mut p = Process::new_attached(opts, delta)?;
        p.load_all(self.modules.iter().cloned())?;
        Ok(p)
    }

    /// One batched `TxUpdate` against the image base: installs a new
    /// base policy and re-stamps every attached process's delta in the
    /// same transaction — the one-update-many-processes operation the
    /// sharing refactor exists for. Per-process overrides (delta-owned
    /// words) survive; everything a process didn't override follows the
    /// new base policy.
    pub fn retarget_all(
        &self,
        tary_ecn: impl Fn(u64) -> Option<u32>,
        bary_ecn: impl Fn(usize) -> Option<u32>,
    ) -> UpdateStats {
        self.tables.base().update(tary_ecn, bary_ecn)
    }

    /// The Fig. 6 workload as a batched image operation: re-stamps every
    /// ID in every shard with one version bump.
    pub fn bump_all(&self) -> UpdateStats {
        self.tables.base().bump_version()
    }

    /// The image's shared tables (base + attach surface).
    pub fn tables(&self) -> &SharedTables {
        &self.tables
    }

    /// The image-wide publication epoch.
    pub fn epoch(&self) -> u64 {
        self.tables.epoch()
    }

    /// Number of currently attached processes.
    pub fn attached(&self) -> usize {
        self.tables.attached()
    }

    /// The canonical process options the image was built with.
    pub fn options(&self) -> ProcessOptions {
        self.opts
    }

    /// The immutable module set (in load order).
    pub fn modules(&self) -> &[Arc<Module>] {
        &self.modules
    }
}
