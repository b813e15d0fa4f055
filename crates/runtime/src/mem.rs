//! Sandboxed process memory with W^X region permissions.
//!
//! The MCFI runtime "enforces the invariant that no memory regions are
//! both writable and executable at the same time" (paper §4). The
//! sandbox models the low `[0, 4 GiB)` region the instrumentation masks
//! writes into; in this reproduction its backing store is a smaller
//! configurable buffer, with every access bounds- and permission-checked.

use core::cell::Cell;
use core::fmt;
use core::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Bytes per snapshot page: the unit a dirty bit covers and
/// [`Sandbox::snapshot`] compares, copies, hashes and shares.
const PAGE_SIZE: usize = 4096;

/// Region permissions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Perm {
    /// Readable only.
    R,
    /// Readable and writable (never executable).
    Rw,
    /// Readable and executable (never writable).
    Rx,
}

impl Perm {
    /// Whether data writes are allowed.
    pub fn writable(self) -> bool {
        matches!(self, Perm::Rw)
    }

    /// Whether instruction fetch is allowed.
    pub fn executable(self) -> bool {
        matches!(self, Perm::Rx)
    }
}

/// A permissioned address range `[start, end)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Region {
    /// Inclusive start.
    pub start: u64,
    /// Exclusive end.
    pub end: u64,
    /// Permission.
    pub perm: Perm,
}

/// A memory fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemFault {
    /// Access outside any mapped region.
    Unmapped {
        /// Faulting address.
        addr: u64,
    },
    /// Write to a non-writable region.
    WriteProtected {
        /// Faulting address.
        addr: u64,
    },
    /// Instruction fetch from a non-executable region.
    ExecProtected {
        /// Faulting address.
        addr: u64,
    },
    /// The requested mapping would be writable and executable.
    WxViolation,
    /// The backing store is exhausted.
    OutOfMemory,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemFault::Unmapped { addr } => write!(f, "unmapped access at {addr:#x}"),
            MemFault::WriteProtected { addr } => write!(f, "write to protected {addr:#x}"),
            MemFault::ExecProtected { addr } => write!(f, "execute from non-code {addr:#x}"),
            MemFault::WxViolation => write!(f, "mapping would be writable and executable"),
            MemFault::OutOfMemory => write!(f, "sandbox memory exhausted"),
        }
    }
}

impl std::error::Error for MemFault {}

/// The sandboxed memory image.
#[derive(Debug)]
pub struct Sandbox {
    bytes: Vec<u8>,
    regions: Vec<Region>,
    /// One change stamp per region: the generation at which the region's
    /// bounds, permission or bytes last changed — set by `map`,
    /// `protect`, `load_image` (on each region it overlaps), `raw_mut`
    /// and `restore` (on every region). The predecode cache keeps a
    /// region's decoded view across a generation change when its stamp
    /// predates the view.
    stamps: Vec<u64>,
    /// Code-visibility generation: bumped by every operation that can
    /// change what an instruction fetch observes — mapping or
    /// reprotecting regions, loader image writes, and raw mutable
    /// access. Ordinary `write8`/`write64` do *not* bump it: W^X
    /// guarantees they can never touch executable bytes, so cached
    /// decodings stay valid across them. Consumers (the predecode
    /// cache) compare this against the generation they were built at.
    generation: u64,
    /// Index of the region that served the last data access. Data
    /// traffic clusters on the stack, so this short-circuits the linear
    /// region scan almost every time. Regions are only ever appended
    /// (never removed, never resized), so the hint can go stale —
    /// costing one full scan — but never wrong.
    data_hint: Cell<usize>,
    /// The pages of the latest snapshot or restore, one per `PAGE_SIZE`
    /// chunk of `bytes` (the last may be shorter).
    base: Vec<Page>,
    /// One bit per page of `bytes`, set by every writer that may have
    /// changed the page since the latest snapshot or restore. A clean
    /// page's bytes equal its `base` page, so the next snapshot looks at
    /// dirty pages only. [`Sandbox::raw_mut`] also sets the bits past the
    /// last page.
    dirty: Vec<u64>,
    /// The write window: stores that fall inside it skip the region
    /// check and the marking. It lies inside one dirty page and one `Rw`
    /// region, or is empty; every `map`, `protect`, `snapshot` and
    /// `restore` empties it.
    window: Range<u64>,
}

/// The images of dropped sandboxes, every byte zero, for
/// [`Sandbox::new`] to reuse. A reused image has been zeroed only where
/// its last owner wrote, so a new sandbox touches only the pages it uses,
/// where a fresh zeroed allocation of a size the allocator recycles would
/// be zeroed whole.
static IMAGES: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

/// The image pool, also after a panic elsewhere while it was held: every
/// image is zeroed before it goes in, so the pool is always valid.
fn images() -> MutexGuard<'static, Vec<Vec<u8>>> {
    IMAGES.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Sandbox {
    /// Creates a sandbox backed by `size` bytes (all initially unmapped
    /// and zero), on a dropped sandbox's image of that size if there is
    /// one.
    pub fn new(size: usize) -> Self {
        let mut base = vec![Page::Zero { len: PAGE_SIZE }; size / PAGE_SIZE];
        if !size.is_multiple_of(PAGE_SIZE) {
            base.push(Page::Zero { len: size % PAGE_SIZE });
        }
        let reused = {
            let mut pool = images();
            pool.iter().position(|image| image.len() == size).map(|i| pool.swap_remove(i))
        };
        Sandbox {
            bytes: reused.unwrap_or_else(|| vec![0; size]),
            regions: Vec::new(),
            stamps: Vec::new(),
            generation: 0,
            data_hint: Cell::new(usize::MAX),
            dirty: vec![0; base.len().div_ceil(64)],
            base,
            window: 0..0,
        }
    }

    /// The current code-visibility generation (see the field docs).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total backing size.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Maps `[start, start+len)` with `perm`.
    ///
    /// # Errors
    ///
    /// Fails if the range exceeds the backing store or overlaps an
    /// existing region.
    pub fn map(&mut self, start: u64, len: u64, perm: Perm) -> Result<(), MemFault> {
        let end = start.checked_add(len).ok_or(MemFault::OutOfMemory)?;
        if end > self.bytes.len() as u64 {
            return Err(MemFault::OutOfMemory);
        }
        if self.regions.iter().any(|r| start < r.end && r.start < end) {
            return Err(MemFault::Unmapped { addr: start });
        }
        self.regions.push(Region { start, end, perm });
        self.generation += 1;
        self.stamps.push(self.generation);
        self.window = 0..0;
        Ok(())
    }

    /// Changes the permission of an exactly matching region, enforcing
    /// W^X (this is the `mprotect` interposition check of §7 — a region
    /// can never become writable and executable). It closes the write
    /// window, which may lie in the region: the loader patches code with
    /// `write8` before it flips the code to `Rx`.
    ///
    /// # Errors
    ///
    /// Fails if no region matches exactly.
    pub fn protect(&mut self, start: u64, perm: Perm) -> Result<(), MemFault> {
        let i = self
            .regions
            .iter()
            .position(|r| r.start == start)
            .ok_or(MemFault::Unmapped { addr: start })?;
        self.regions[i].perm = perm;
        self.generation += 1;
        self.stamps[i] = self.generation;
        self.window = 0..0;
        Ok(())
    }

    /// The region containing `addr`.
    pub fn region_of(&self, addr: u64) -> Option<Region> {
        self.regions.iter().copied().find(|r| r.start <= addr && addr < r.end)
    }

    /// All regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The change stamp of each region, in [`Sandbox::regions`] order
    /// (see the field docs).
    pub(crate) fn stamps(&self) -> &[u64] {
        &self.stamps
    }

    /// Region lookup through a last-hit hint cell.
    #[inline]
    fn find_region(&self, addr: u64, hint: &Cell<usize>) -> Option<Region> {
        if let Some(r) = self.regions.get(hint.get()) {
            if r.start <= addr && addr < r.end {
                return Some(*r);
            }
        }
        let idx = self.regions.iter().position(|r| r.start <= addr && addr < r.end)?;
        hint.set(idx);
        Some(self.regions[idx])
    }

    /// The region that holds all of `[addr, addr + len)`.
    #[inline]
    fn check(&self, addr: u64, len: u64) -> Result<Region, MemFault> {
        let end = addr.checked_add(len).ok_or(MemFault::Unmapped { addr })?;
        let r = self.find_region(addr, &self.data_hint).ok_or(MemFault::Unmapped { addr })?;
        if end > r.end {
            return Err(MemFault::Unmapped { addr: r.end });
        }
        Ok(r)
    }

    /// Whether the write window holds all of `[addr, addr + len)`.
    #[inline]
    fn in_window(&self, addr: u64, len: u64) -> bool {
        self.window.start <= addr && addr < self.window.end.saturating_sub(len - 1)
    }

    /// The store slow path, for a store outside the write window: checks
    /// that one writable region holds `[addr, addr + len)`, marks the
    /// page or pages it touches dirty, and opens the window over the
    /// part of `addr`'s page that lies in the region.
    #[cold]
    #[inline(never)]
    fn open_window(&mut self, addr: u64, len: u64) -> Result<(), MemFault> {
        let r = self.check(addr, len)?;
        if !r.perm.writable() {
            return Err(MemFault::WriteProtected { addr });
        }
        self.mark(addr as usize..(addr + len) as usize);
        let page = addr & !(PAGE_SIZE as u64 - 1);
        self.window = r.start.max(page)..r.end.min(page + PAGE_SIZE as u64);
        Ok(())
    }

    /// Marks dirty every page that `bytes` touches.
    fn mark(&mut self, bytes: Range<usize>) {
        for p in bytes.start / PAGE_SIZE..bytes.end.div_ceil(PAGE_SIZE) {
            self.dirty[p / 64] |= 1 << (p % 64);
        }
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns a fault on unmapped access.
    #[inline]
    pub fn read8(&self, addr: u64) -> Result<u8, MemFault> {
        self.check(addr, 1)?;
        Ok(self.bytes[addr as usize])
    }

    /// Reads a little-endian u64.
    ///
    /// # Errors
    ///
    /// Returns a fault on unmapped access.
    #[inline]
    pub fn read64(&self, addr: u64) -> Result<u64, MemFault> {
        self.check(addr, 8)?;
        let a = addr as usize;
        Ok(u64::from_le_bytes(self.bytes[a..a + 8].try_into().expect("8 bytes")))
    }

    /// Writes one byte (permission-checked).
    ///
    /// # Errors
    ///
    /// Returns a fault on unmapped or protected access.
    #[inline]
    pub fn write8(&mut self, addr: u64, v: u8) -> Result<(), MemFault> {
        if !self.in_window(addr, 1) {
            self.open_window(addr, 1)?;
        }
        self.bytes[addr as usize] = v;
        Ok(())
    }

    /// Writes a little-endian u64 (permission-checked).
    ///
    /// # Errors
    ///
    /// Returns a fault on unmapped or protected access.
    #[inline]
    pub fn write64(&mut self, addr: u64, v: u64) -> Result<(), MemFault> {
        if !self.in_window(addr, 8) {
            self.open_window(addr, 8)?;
        }
        let a = addr as usize;
        self.bytes[a..a + 8].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Verifies `addr` may be fetched as code.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::ExecProtected`] for data addresses.
    pub fn check_exec(&self, addr: u64) -> Result<(), MemFault> {
        let r = self.region_of(addr).ok_or(MemFault::Unmapped { addr })?;
        if !r.perm.executable() {
            return Err(MemFault::ExecProtected { addr });
        }
        Ok(())
    }

    /// Copies bytes in, bypassing permissions — loader-only (the runtime
    /// writes code while the region is still `Rw`, then flips it to `Rx`).
    pub fn load_image(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        let end = addr as usize + bytes.len();
        if end > self.bytes.len() {
            return Err(MemFault::OutOfMemory);
        }
        self.bytes[addr as usize..end].copy_from_slice(bytes);
        self.mark(addr as usize..end);
        self.generation += 1;
        let written = addr..end as u64;
        for (r, stamp) in self.regions.iter().zip(&mut self.stamps) {
            if r.start < written.end && written.start < r.end {
                *stamp = self.generation;
            }
        }
        Ok(())
    }

    /// Reads a NUL-terminated string (for syscall arguments).
    ///
    /// # Errors
    ///
    /// Returns a fault on unmapped access or strings longer than 4 KiB.
    pub fn read_cstr(&self, addr: u64) -> Result<String, MemFault> {
        let mut out = Vec::new();
        let mut a = addr;
        loop {
            let b = self.read8(a)?;
            if b == 0 {
                break;
            }
            out.push(b);
            a += 1;
            if out.len() > 4096 {
                return Err(MemFault::Unmapped { addr: a });
            }
        }
        Ok(String::from_utf8_lossy(&out).into_owned())
    }

    /// Captures the memory image and region table, for checkpoints and
    /// transactional operations (a dynamic load that may have to be
    /// undone).
    ///
    /// Only dirty pages are compared with the latest snapshot or
    /// restore, and copied and hashed if they differ; every other page
    /// is shared with it. Every page is clean afterwards.
    pub fn snapshot(&mut self) -> SandboxSnapshot {
        self.window = 0..0;
        for (w, word) in self.dirty.iter_mut().enumerate() {
            let mut bits = core::mem::take(word);
            while bits != 0 {
                let p = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // `raw_mut` marks the bits past the last page too.
                let Some(page) = self.base.get_mut(p) else { break };
                let live = &self.bytes[p * PAGE_SIZE..][..page.bytes().len()];
                if page.bytes() != live {
                    *page = Page::copy(live);
                }
            }
        }
        SandboxSnapshot { pages: self.base.clone(), regions: self.regions.clone() }
    }

    /// Restores a [`Sandbox::snapshot`], discarding every mapping and
    /// byte written since it was taken. Every page is compared, since the
    /// snapshot need not be the latest one; only pages whose live bytes
    /// differ from the snapshot's are written back. The snapshot's pages
    /// become the base of the next one, and every page is clean.
    ///
    /// The generation counter is *not* restored: it keeps counting
    /// forward, and every region is stamped with the new generation, so
    /// predecode caches built against the discarded state can never
    /// validate against the restored one, nor keep any part of it.
    ///
    /// # Panics
    ///
    /// If `snap` was taken from a sandbox of another size.
    pub fn restore(&mut self, snap: &SandboxSnapshot) {
        assert_eq!(snap.pages.len(), self.base.len(), "snapshot of a differently sized sandbox");
        for (live, page) in self.bytes.chunks_mut(PAGE_SIZE).zip(&snap.pages) {
            if *live != *page.bytes() {
                live.copy_from_slice(page.bytes());
            }
        }
        self.base.clone_from(&snap.pages);
        self.regions.clone_from(&snap.regions);
        self.generation += 1;
        self.stamps.clear();
        self.stamps.resize(self.regions.len(), self.generation);
        self.data_hint.set(usize::MAX);
        self.dirty.fill(0);
        self.window = 0..0;
    }

    /// Raw view of the backing store (used by the attacker thread in the
    /// threat model: "the attacker can corrupt writable memory between
    /// any two instructions", §4).
    pub fn raw_mut(&mut self) -> &mut [u8] {
        // The caller may rewrite any byte, executable ones included, so
        // every cached decoding is suspect afterwards, and every page is
        // dirty.
        self.generation += 1;
        self.stamps.fill(self.generation);
        self.dirty.fill(!0);
        &mut self.bytes
    }

    /// Raw read-only view.
    pub fn raw(&self) -> &[u8] {
        &self.bytes
    }
}

impl Drop for Sandbox {
    /// Zeroes every page that may hold a nonzero byte — a dirty page, or
    /// a clean one whose base page holds copied bytes (a clean page
    /// equals its base page, and a zero base page is zeros) — and hands
    /// the image to the pool for the next [`Sandbox::new`] of its size.
    fn drop(&mut self) {
        for (p, (live, page)) in self.bytes.chunks_mut(PAGE_SIZE).zip(&self.base).enumerate() {
            let dirty = self.dirty[p / 64] >> (p % 64) & 1 == 1;
            if dirty || matches!(page, Page::Copied { .. }) {
                live.fill(0);
            }
        }
        images().push(std::mem::take(&mut self.bytes));
    }
}

/// One immutable page of a snapshot, shared by every snapshot (and the
/// sandbox's base) taken while the live page did not change.
#[derive(Clone, Debug)]
enum Page {
    /// A page never written since [`Sandbox::new`]: the first `len` bytes
    /// of [`ZERO_PAGE`]. It holds no allocation, so cloning and dropping
    /// it touch no reference count.
    Zero { len: usize },
    /// Bytes copied by a snapshot.
    Copied {
        bytes: Arc<[u8]>,
        /// [`fnv1a_words`] of `bytes`, computed once when the page was
        /// copied.
        digest: u64,
    },
}

impl Page {
    fn copy(bytes: &[u8]) -> Self {
        Page::Copied { digest: fnv1a_words(bytes), bytes: bytes.into() }
    }

    fn bytes(&self) -> &[u8] {
        match self {
            Page::Zero { len } => &ZERO_PAGE[..*len],
            Page::Copied { bytes, .. } => bytes,
        }
    }

    /// The digest of the page's bytes: cached for a copied page, and
    /// fixed by the length for a zero page.
    fn digest(&self) -> u64 {
        match self {
            Page::Zero { len: PAGE_SIZE } => ZERO_PAGE_DIGEST,
            Page::Zero { len } => fnv1a_words(&ZERO_PAGE[..*len]),
            Page::Copied { digest, .. } => *digest,
        }
    }
}

/// The bytes of every [`Page::Zero`].
static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const ZERO_PAGE_DIGEST: u64 = fnv1a_words(&[0; PAGE_SIZE]);

/// FNV-1a over `bytes` taken as little-endian 64-bit words, one [`mix`]
/// step per word; a tail shorter than a word is zero-padded.
const fn fnv1a_words(bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    let mut h = FNV_OFFSET;
    let mut i = 0;
    while i < words.len() {
        h = mix(h, u64::from_le_bytes(words[i]));
        i += 1;
    }
    if !tail.is_empty() {
        let mut word = [0; 8];
        word.split_at_mut(tail.len()).0.copy_from_slice(tail);
        h = mix(h, u64::from_le_bytes(word));
    }
    h
}

/// One FNV-1a step that takes a whole 64-bit word where FNV-1a takes a
/// byte.
const fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// A sandbox's memory image, as a table of immutable pages, and its
/// region table (see [`Sandbox::snapshot`]). Cloning one shares the
/// pages.
#[derive(Clone, Debug)]
pub struct SandboxSnapshot {
    pages: Vec<Page>,
    regions: Vec<Region>,
}

impl SandboxSnapshot {
    /// A content digest for integrity-checking stored snapshots,
    /// recomputed from the page bytes. It is a function of the bytes and
    /// the region table alone: each page's index and digest, then each
    /// region's start, end and permission, folded in as 64-bit words, one
    /// FNV-1a step per word. A page's digest is the same step over its
    /// bytes taken as little-endian 64-bit words. A checkpoint records
    /// the same digest at capture, folded from the page digests cached
    /// then, and verifies this one against it before restoring, so a
    /// corrupted checkpoint is detected instead of silently resuming from
    /// garbage. Only pages that hold copied bytes are hashed again; a
    /// zero page stores none.
    pub fn digest(&self) -> u64 {
        self.fold(self.pages.iter().map(|p| match p {
            Page::Zero { .. } => p.digest(),
            Page::Copied { bytes, .. } => fnv1a_words(bytes),
        }))
    }

    /// The same digest folded from the page digests cached when each
    /// page was copied: cheap to take at capture, and equal to
    /// [`SandboxSnapshot::digest`] as long as the page bytes are intact.
    pub(crate) fn capture_digest(&self) -> u64 {
        self.fold(self.pages.iter().map(Page::digest))
    }

    fn fold(&self, page_digests: impl Iterator<Item = u64>) -> u64 {
        let mut h = FNV_OFFSET;
        for (i, d) in page_digests.enumerate() {
            h = mix(mix(h, i as u64), d);
        }
        for r in &self.regions {
            let perm = match r.perm {
                Perm::R => 0,
                Perm::Rw => 1,
                Perm::Rx => 2,
            };
            h = mix(mix(mix(h, r.start), r.end), perm);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn snapshot_restore_undoes_mappings_and_writes() {
        let mut m = Sandbox::new(0x1000);
        m.map(0, 0x100, Perm::Rw).unwrap();
        m.write64(0x10, 7).unwrap();
        let snap = m.snapshot();
        let g_snap = m.generation();
        m.write64(0x10, 99).unwrap();
        m.map(0x200, 0x100, Perm::Rx).unwrap();
        m.load_image(0x200, &[1, 2, 3]).unwrap();
        m.restore(&snap);
        assert_eq!(m.read64(0x10).unwrap(), 7, "bytes roll back");
        assert!(m.region_of(0x200).is_none(), "mappings roll back");
        assert!(
            m.generation() > g_snap,
            "generation must keep counting so stale caches rebuild"
        );
    }

    #[test]
    fn mapping_and_rw_round_trip() {
        let mut m = Sandbox::new(0x1000);
        m.map(0x100, 0x100, Perm::Rw).unwrap();
        m.write64(0x100, 0xdead_beef).unwrap();
        assert_eq!(m.read64(0x100).unwrap(), 0xdead_beef);
        m.write8(0x1ff, 7).unwrap();
        assert_eq!(m.read8(0x1ff).unwrap(), 7);
    }

    #[test]
    fn unmapped_access_faults() {
        let m = Sandbox::new(0x1000);
        assert!(matches!(m.read8(0x10), Err(MemFault::Unmapped { .. })));
    }

    #[test]
    fn writes_to_code_fault() {
        let mut m = Sandbox::new(0x1000);
        m.map(0, 0x100, Perm::Rx).unwrap();
        assert!(matches!(m.write8(0x10, 1), Err(MemFault::WriteProtected { .. })));
        assert!(m.check_exec(0x10).is_ok());
    }

    #[test]
    fn execution_from_data_faults() {
        let mut m = Sandbox::new(0x1000);
        m.map(0, 0x100, Perm::Rw).unwrap();
        assert!(matches!(m.check_exec(0x10), Err(MemFault::ExecProtected { .. })));
    }

    #[test]
    fn regions_cannot_overlap() {
        let mut m = Sandbox::new(0x1000);
        m.map(0, 0x100, Perm::Rw).unwrap();
        assert!(m.map(0x80, 0x100, Perm::R).is_err());
    }

    #[test]
    fn access_straddling_region_end_faults() {
        let mut m = Sandbox::new(0x1000);
        m.map(0, 0x10, Perm::Rw).unwrap();
        assert!(m.read64(0xc).is_err());
        assert!(m.write64(0xc, 1).is_err());
    }

    #[test]
    fn protect_flips_permissions() {
        let mut m = Sandbox::new(0x1000);
        m.map(0, 0x100, Perm::Rw).unwrap();
        m.load_image(0, &[1, 2, 3]).unwrap();
        m.protect(0, Perm::Rx).unwrap();
        assert!(m.check_exec(0).is_ok());
        assert!(m.write8(0, 9).is_err());
    }

    #[test]
    fn cstr_reading() {
        let mut m = Sandbox::new(0x1000);
        m.map(0, 0x100, Perm::Rw).unwrap();
        m.load_image(0x10, b"hello\0").unwrap();
        assert_eq!(m.read_cstr(0x10).unwrap(), "hello");
    }

    #[test]
    fn generation_tracks_code_visible_changes() {
        let mut m = Sandbox::new(0x1000);
        let g0 = m.generation();
        m.map(0, 0x100, Perm::Rw).unwrap();
        let g1 = m.generation();
        assert!(g1 > g0, "map must bump the generation");
        m.load_image(0, &[1, 2, 3]).unwrap();
        let g2 = m.generation();
        assert!(g2 > g1, "load_image must bump the generation");
        m.protect(0, Perm::Rx).unwrap();
        let g3 = m.generation();
        assert!(g3 > g2, "protect must bump the generation");
        let _ = m.raw_mut();
        let g4 = m.generation();
        assert!(g4 > g3, "raw_mut must bump the generation");

        // Data writes cannot touch executable bytes (W^X), so they do
        // not invalidate cached decodings.
        m.map(0x200, 0x100, Perm::Rw).unwrap();
        let g5 = m.generation();
        m.write64(0x200, 42).unwrap();
        m.write8(0x208, 7).unwrap();
        assert_eq!(m.generation(), g5, "data writes must not bump the generation");
    }

    #[test]
    fn out_of_backing_mapping_fails() {
        let mut m = Sandbox::new(0x100);
        assert!(matches!(m.map(0x80, 0x100, Perm::Rw), Err(MemFault::OutOfMemory)));
    }

    #[test]
    fn digest_checks_the_page_bytes_not_the_cached_page_digests() {
        let mut m = Sandbox::new(2 * PAGE_SIZE);
        m.map(0, 0x100, Perm::Rw).unwrap();
        m.write64(0x10, 7).unwrap();
        let mut snap = m.snapshot();
        let captured = snap.capture_digest();
        assert_eq!(snap.digest(), captured);
        // Other bytes behind the page's cached digest: the capture digest
        // cannot see it, the recomputed one (what restore checks) must.
        snap.pages[0] =
            Page::Copied { bytes: vec![0xa5; PAGE_SIZE].into(), digest: snap.pages[0].digest() };
        assert_eq!(snap.capture_digest(), captured);
        assert_ne!(snap.digest(), captured);
    }

    #[test]
    fn a_page_written_back_to_zeros_hashes_like_a_never_written_page() {
        let mut m = Sandbox::new(2 * PAGE_SIZE);
        m.map(0, 0x100, Perm::Rw).unwrap();
        let never = m.snapshot();
        m.write64(0x10, 7).unwrap();
        let written = m.snapshot();
        m.write64(0x10, 0).unwrap();
        let zeroed = m.snapshot();
        assert!(matches!(never.pages[0], Page::Zero { .. }));
        assert!(matches!(zeroed.pages[0], Page::Copied { .. }), "the zeroed page was copied");
        assert_ne!(written.digest(), never.digest());
        assert_eq!(zeroed.digest(), never.digest());
        assert_eq!(zeroed.capture_digest(), never.capture_digest());
        for snap in [&never, &zeroed] {
            m.restore(&written);
            m.restore(snap);
            assert!(m.raw().iter().all(|&b| b == 0), "restoring either gives zeros");
            assert_eq!(m.regions(), never.regions.as_slice());
        }
    }

    #[test]
    fn protect_closes_the_write_window() {
        let mut m = Sandbox::new(2 * PAGE_SIZE);
        m.map(0, 0x100, Perm::Rw).unwrap();
        // The loader's order: patch code with stores, then flip it to Rx.
        m.write8(0x10, 1).unwrap();
        m.write64(0x20, 2).unwrap();
        assert!(m.in_window(0x10, 8), "the first store opened the window over its page");
        m.protect(0, Perm::Rx).unwrap();
        assert_eq!(m.write8(0x10, 9), Err(MemFault::WriteProtected { addr: 0x10 }));
        assert_eq!(m.write64(0x20, 9), Err(MemFault::WriteProtected { addr: 0x20 }));
        assert_eq!((m.read8(0x10), m.read64(0x20)), (Ok(1), Ok(2)));
    }

    #[test]
    fn a_snapshot_copies_exactly_the_pages_written_since_the_last() {
        const PAGES: usize = 8;
        let mut m = Sandbox::new(PAGES * PAGE_SIZE);
        m.map(0, (PAGES * PAGE_SIZE) as u64, Perm::Rw).unwrap();
        m.load_image(0, &[0x5a; PAGES * PAGE_SIZE]).unwrap();
        let before = m.snapshot();
        let page = |p: u64| p * PAGE_SIZE as u64;
        m.write8(page(1) + 7, 1).unwrap();
        m.write64(page(3) + 0x100, 2).unwrap();
        m.write64(page(6) - 4, 3).unwrap(); // straddles pages 5 and 6
        let written = [1, 3, 5, 6];
        let dirty: Vec<usize> =
            (0..PAGES).filter(|p| m.dirty[p / 64] >> (p % 64) & 1 == 1).collect();
        assert_eq!(dirty, written);
        let after = m.snapshot();
        for (p, pages) in before.pages.iter().zip(&after.pages).enumerate() {
            let (Page::Copied { bytes: old, .. }, Page::Copied { bytes: new, .. }) = pages else {
                panic!("page {p} holds bytes");
            };
            assert_eq!(Arc::ptr_eq(old, new), !written.contains(&p), "page {p}");
            assert_eq!(**new, m.raw()[p * PAGE_SIZE..][..PAGE_SIZE]);
        }
        assert!(m.dirty.iter().all(|&w| w == 0), "a snapshot leaves every page clean");
    }

    /// A flat reference model of a [`Sandbox`]: its bytes and regions.
    #[derive(Clone)]
    struct Model {
        bytes: Vec<u8>,
        regions: Vec<Region>,
    }

    impl Model {
        /// Whether one region holds `[addr, addr + len)` and allows the
        /// access.
        fn allows(&self, addr: u64, len: u64, write: bool) -> bool {
            self.regions.iter().any(|r| {
                r.start <= addr && addr + len <= r.end && (!write || r.perm.writable())
            })
        }

        /// [`SandboxSnapshot::digest`]'s definition, from the flat bytes
        /// and regions alone.
        fn digest(&self) -> u64 {
            let mut h = FNV_OFFSET;
            for (i, page) in self.bytes.chunks(PAGE_SIZE).enumerate() {
                h = mix(mix(h, i as u64), fnv1a_words(page));
            }
            for r in &self.regions {
                let perm = match r.perm {
                    Perm::R => 0,
                    Perm::Rw => 1,
                    Perm::Rx => 2,
                };
                h = mix(mix(mix(h, r.start), r.end), perm);
            }
            h
        }
    }

    /// Not a whole number of pages, so the short last page is exercised.
    /// No other test makes a sandbox of this size, so the image pool
    /// holds at most the one this test dropped last.
    const MODEL_SIZE: u64 = 3 * PAGE_SIZE as u64 + 0x100;

    /// A sandbox of the model's size with one writable region across the
    /// first page boundary, so most writes land, and its model.
    fn fresh_model() -> (Sandbox, Model) {
        let mut m = Sandbox::new(MODEL_SIZE as usize);
        m.map(0x800, 0x1800, Perm::Rw).unwrap();
        let region = Region { start: 0x800, end: 0x2000, perm: Perm::Rw };
        (m, Model { bytes: vec![0; MODEL_SIZE as usize], regions: vec![region] })
    }

    proptest! {
        #[test]
        fn snapshots_restore_a_flat_model(
            ops in proptest::collection::vec(
                (0u8..11, 0..MODEL_SIZE, 0u64..0x2000, any::<u64>()),
                1..80,
            )
        ) {
            let (mut m, mut model) = fresh_model();
            let mut snaps: Vec<(SandboxSnapshot, Model)> = Vec::new();
            let mut generation = m.generation();
            for (op, a, b, v) in ops {
                match op {
                    0 => {
                        let len = 1 + b % 0x1000;
                        let perm = [Perm::R, Perm::Rw, Perm::Rx][v as usize % 3];
                        let end = a + len;
                        let ok = end <= MODEL_SIZE
                            && !model.regions.iter().any(|r| a < r.end && r.start < end);
                        prop_assert_eq!(m.map(a, len, perm).is_ok(), ok);
                        if ok {
                            model.regions.push(Region { start: a, end, perm });
                        }
                    }
                    1 => {
                        let ok = model.allows(a, 1, true);
                        prop_assert_eq!(m.write8(a, v as u8).is_ok(), ok);
                        if ok {
                            model.bytes[a as usize] = v as u8;
                        }
                    }
                    2 | 3 => {
                        // Op 3 straddles one of the page boundaries.
                        let addr =
                            if op == 2 { a } else { PAGE_SIZE as u64 * (1 + a % 3) - 1 - b % 7 };
                        let ok = model.allows(addr, 8, true);
                        prop_assert_eq!(m.write64(addr, v).is_ok(), ok);
                        if ok {
                            let at = addr as usize;
                            model.bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
                        }
                    }
                    4 => {
                        let image: Vec<u8> =
                            (0..1 + b).map(|i| (v >> (i % 8 * 8)) as u8 ^ i as u8).collect();
                        let end = a as usize + image.len();
                        let ok = end <= model.bytes.len();
                        prop_assert_eq!(m.load_image(a, &image).is_ok(), ok);
                        if ok {
                            model.bytes[a as usize..end].copy_from_slice(&image);
                        }
                    }
                    5 => {
                        for i in 0..b % 64 {
                            let at = ((a + i * 61) % MODEL_SIZE) as usize;
                            m.raw_mut()[at] = v as u8;
                            model.bytes[at] = v as u8;
                        }
                    }
                    6 => {
                        // Mostly an existing region's start, so most calls
                        // land, and `Rw` half the time, so writes keep
                        // landing too.
                        let start = if b % 4 == 0 {
                            a
                        } else {
                            model.regions[a as usize % model.regions.len()].start
                        };
                        let perm = [Perm::R, Perm::Rw, Perm::Rx, Perm::Rw][v as usize % 4];
                        let r = model.regions.iter_mut().find(|r| r.start == start);
                        prop_assert_eq!(m.protect(start, perm).is_ok(), r.is_some());
                        if let Some(r) = r {
                            r.perm = perm;
                        }
                    }
                    7 => {
                        let snap = m.snapshot();
                        prop_assert_eq!(snap.capture_digest(), snap.digest());
                        prop_assert_eq!(snap.digest(), model.digest());
                        snaps.push((snap, model.clone()));
                    }
                    10 => {
                        // The sandbox is dropped and its successor takes
                        // the image from the pool: all zeros, whatever
                        // was written, restored or snapshotted before.
                        // The snapshots taken so far restore into it.
                        let image = m.raw().as_ptr();
                        drop(m);
                        (m, model) = fresh_model();
                        prop_assert_eq!(m.raw().as_ptr(), image, "the image came from the pool");
                        prop_assert!(m.raw() == &model.bytes[..], "a pooled image is zeroed");
                        generation = m.generation();
                    }
                    _ => {
                        if snaps.is_empty() {
                            continue;
                        }
                        let (snap, at_capture) = &snaps[a as usize % snaps.len()];
                        m.restore(snap);
                        model = at_capture.clone();
                        prop_assert!(m.raw() == &model.bytes[..], "restored bytes differ");
                        prop_assert_eq!(m.regions(), &model.regions[..]);
                        prop_assert_eq!(m.size(), MODEL_SIZE as usize);
                        prop_assert!(m.generation() > generation, "restore bumps the generation");
                    }
                }
                prop_assert!(m.generation() >= generation, "the generation only grows");
                generation = m.generation();
            }
            for (snap, at_capture) in &snaps {
                prop_assert_eq!(snap.capture_digest(), snap.digest());
                prop_assert_eq!(snap.digest(), at_capture.digest());
            }
        }
    }
}
