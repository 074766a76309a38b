//! A disk-oriented B+tree over slotted pages and a buffer pool.
//!
//! The repository's one B+tree: an ordered dictionary (byte-string keys,
//! point lookups, range and prefix scans, sorted bulk load) with nodes
//! stored in fixed-size pages behind a [`BufferPool`], so the index can be
//! larger than memory and its I/O behaviour can be measured — the dimension
//! the paper's companion work (reference \[14\]) studies.
//!
//! Layout:
//!
//! * **page 0** is the metadata page (root id, height, entry count, and the
//!   first link of the root blob — see below);
//! * **blob pages** continue the root blob when it outgrows the meta page;
//! * **leaf pages** hold `[key_len u16 | key | val_len u16 | value]` cells in
//!   key order (deliberately *unchained* — see below);
//! * **internal pages** hold `[key_len u16 | key | child u32]` cells; the
//!   leftmost child lives in the page header's `next` field, and the cell
//!   `(k, c)` routes keys `≥ k` (and smaller than the following cell's key)
//!   to child `c`;
//! * **free pages** are every other page. Nothing on disk marks them: the
//!   writer keeps their ids in memory, and [`PagedBTree::open`] derives them
//!   as the pages neither the root nor the blob chain reaches.
//!
//! Structural changes rewrite whole nodes (read cells → modify → compact
//! rewrite), which keeps the split logic simple and pages always compacted.
//! Inserts split overflowing leaves and internal nodes top-down; deletes
//! merge or rebalance underflowing nodes bottom-up (freed pages join the
//! writer's free set, lowest id reused first by later splits), so a live,
//! update-heavy index neither leaks pages nor degrades into half-empty
//! chains. Freeing a page neither reads nor writes it, and reusing one
//! rewrites it without reading it.
//!
//! ## Page-level copy-on-write and snapshots
//!
//! [`PagedBTree::share`] publishes a **snapshot**: a read handle pinned to
//! the root (and entry count) at share time. While any snapshot is alive, the
//! writer never overwrites a page a snapshot could reach — mutations allocate
//! a fresh page version, rewrite the modified node there, and propagate the
//! new page id up the ancestor path (shadow paging). Superseded pages are
//! *retired*, tagged with the write epoch that replaced them, and only move
//! to the reusable free set once no live snapshot is old enough to reference
//! them — so a snapshot keeps answering bit-identically no matter how many
//! batches the writer absorbs after it, at a cost proportional to the pages
//! the writer actually dirties. With no snapshots alive the tree mutates in
//! place exactly as before: copy-on-write is pay-as-you-go.
//!
//! Leaves are deliberately **not** chained through sibling pointers (a
//! relocated leaf cannot update its predecessor without cascading copies);
//! range scans instead keep a cursor stack of internal positions.
//!
//! ## The root blob
//!
//! A tree carries one opaque byte string that describes its root — the
//! paged k-path index keeps its per-path tally there — set with
//! [`PagedBTree::set_root_blob`] and persisted by the next flush together
//! with the root. Its encoding is a chain of links: each link is a page whose
//! `next` field names the following link (none at the end) and whose payload
//! holds the next slice of the blob. The first link is the meta page (the
//! blob's length and first slice follow its fixed fields); the others are
//! **blob pages**, allocated only when the blob outgrows the meta page. Every
//! flush writes the overflow links to fresh pages in the data phase and
//! retires the previous chain like any page a copy-on-write supersedes, so
//! under [`PagedBTree::enable_durable_writeback`] the meta page flips root
//! and blob in one write: a crash never pairs one flush's root with
//! another's blob.

use crate::buffer::BufferPool;
use crate::page::{get_u32, get_u64, put_u32, put_u64, PageId, PAGE_SIZE};
use crate::slotted;
use pathix_audit::{AuditReport, StructuralAudit};
use pathix_storage::prefix_successor;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A leaf cell: key and value bytes.
type LeafEntry = (Vec<u8>, Vec<u8>);

/// An internal cell: separator key and child page.
type InternalCell = (Vec<u8>, PageId);

/// Leaf pages staged ahead of a range scan's cursor per read-ahead request.
const READ_AHEAD: usize = 4;

/// Outcome of pairing two underflow siblings: the possibly relocated left
/// page, plus — when redistributed rather than merged — the new separator and
/// the possibly relocated right page.
type RebalanceOutcome = (PageId, Option<(Vec<u8>, PageId)>);

/// Identifies the page-file format. "PXPT": index entries are bare keys and
/// the meta page opens the root blob. Files of the blob-less format ("PXPS",
/// 0x5058_5053) and of the walk-count format ("PXPI", 0x5058_5049), whose
/// entries carried an 8-byte value, fail [`PagedBTree::open`].
const META_MAGIC: u32 = 0x5058_5054;
const META_OFF_MAGIC: usize = 12;
const META_OFF_ROOT: usize = 16;
const META_OFF_HEIGHT: usize = 20;
const META_OFF_COUNT: usize = 24;
// Bytes 32..40 are reserved: written as zero and never read, so a file that
// holds a value there opens all the same.
/// Highest committed batch sequence number whose effects reached the pages —
/// the write-ahead log replays only records newer than this on reopen.
const META_OFF_SEQ: usize = 40;
/// Byte length of the root blob.
const META_OFF_BLOB_LEN: usize = 48;
/// Where the root blob's first slice starts; it runs to the end of the page.
const META_OFF_BLOB: usize = 52;

/// Payload offset of a root-blob link: past the meta page's fixed fields, or
/// past a blob page's slotted header.
fn blob_link_start(pid: PageId) -> usize {
    if pid == PageId(0) {
        META_OFF_BLOB
    } else {
        slotted::HEADER_SIZE
    }
}

fn invalid_data(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Largest key + value payload accepted by [`PagedBTree::insert`]; guarantees
/// that any page can hold at least four cells, so splits always succeed.
pub const MAX_ENTRY_SIZE: usize = (PAGE_SIZE - slotted::HEADER_SIZE) / 4 - slotted::SLOT_SIZE - 4;

/// A node whose occupied bytes fall below this threshold after a deletion is
/// merged with (or borrows from) an adjacent sibling.
pub const MIN_FILL: usize = PAGE_SIZE / 4;

/// Fill factor used by [`PagedBTree::bulk_load`]: leaves are filled to this
/// fraction of their capacity so that later inserts do not immediately split.
const BULK_FILL: f64 = 0.9;

/// Summary statistics of a [`PagedBTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagedTreeStats {
    /// Number of key/value entries.
    pub entries: u64,
    /// Tree height (1 = the root is a leaf).
    pub height: u32,
    /// Pages allocated in the backing store (including the meta page).
    pub pages: u32,
    /// Total bytes of the backing store.
    pub bytes_on_disk: u64,
}

/// Copy-on-write and snapshot-reclamation counters of a [`PagedBTree`]
/// (shared between the writer and every snapshot taken from it).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CowStats {
    /// Pages relocated because a live snapshot could still reference the old
    /// version.
    pub page_copies: u64,
    /// Superseded page versions parked until the snapshots referencing them
    /// are gone.
    pub pages_retired: u64,
    /// Retired pages that became reusable and rejoined the free set.
    pub pages_reclaimed: u64,
    /// Retired pages still pinned by live snapshots.
    pub retired_pending: u64,
    /// Snapshots ([`PagedBTree::share`] handles) currently alive.
    pub live_snapshots: u64,
}

/// One pinned share epoch: how many live snapshots pin it, plus the root and
/// height they answer from (recorded so the structural audit can verify that
/// no pinned snapshot reaches a freed or since-reclaimable page).
#[derive(Debug, Clone, Copy)]
struct PinnedEpoch {
    count: usize,
    root: PageId,
    height: u32,
}

/// Epoch pins of the live snapshots plus the shared copy-on-write counters.
#[derive(Debug, Default)]
struct SnapshotTable {
    /// `share epoch → live snapshots pinned to it (and their root)`.
    pins: Mutex<BTreeMap<u64, PinnedEpoch>>,
    page_copies: AtomicU64,
    pages_retired: AtomicU64,
    pages_reclaimed: AtomicU64,
    retired_pending: AtomicU64,
    /// Set (and never cleared) when any flush of this tree failed. Surfaced
    /// through [`PagedBTree::flush_failed`] so storage statistics can show
    /// that the page file may not hold the writer's last tree.
    flush_failed: std::sync::atomic::AtomicBool,
}

impl SnapshotTable {
    fn pins(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, PinnedEpoch>> {
        self.pins.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn register(self: &Arc<Self>, epoch: u64, root: PageId, height: u32) -> SnapshotPin {
        self.pins()
            .entry(epoch)
            .and_modify(|pin| pin.count += 1)
            .or_insert(PinnedEpoch {
                count: 1,
                root,
                height,
            });
        SnapshotPin {
            table: Arc::clone(self),
            epoch,
        }
    }

    /// `true` while at least one snapshot is alive (the writer must then
    /// copy-on-write every page it did not itself create this epoch).
    fn has_pins(&self) -> bool {
        !self.pins().is_empty()
    }

    /// The oldest pinned share epoch (pages retired at epoch `e` are
    /// reusable once `min_pinned() ≥ e` or no pins remain).
    fn min_pinned(&self) -> Option<u64> {
        self.pins().keys().next().copied()
    }

    fn live_snapshots(&self) -> u64 {
        self.pins().values().map(|pin| pin.count as u64).sum()
    }
}

/// Keeps one snapshot's share epoch registered for as long as the snapshot
/// handle lives; dropping the handle un-pins it.
#[derive(Debug)]
struct SnapshotPin {
    table: Arc<SnapshotTable>,
    epoch: u64,
}

impl Drop for SnapshotPin {
    fn drop(&mut self) {
        let mut pins = self.table.pins();
        if let Some(pin) = pins.get_mut(&self.epoch) {
            pin.count -= 1;
            if pin.count == 0 {
                pins.remove(&self.epoch);
            }
        }
    }
}

/// A B+tree whose nodes live in buffer-pool pages.
///
/// Dropping a handle performs no I/O. A writer's page file holds what its
/// last flush wrote; every page that tree does not reach is free on the
/// next [`PagedBTree::open`].
#[derive(Debug)]
pub struct PagedBTree {
    pool: BufferPool,
    root: PageId,
    height: u32,
    entries: u64,
    /// The writer's free pages (released by node merges and superseded blob
    /// chains, or reclaimed after their snapshots died), handed out lowest
    /// id first before the backing store is extended. Held in memory only:
    /// [`PagedBTree::open`] derives it.
    free: BTreeSet<u32>,
    /// Live-snapshot pins and CoW counters, shared with every share.
    snapshots: Arc<SnapshotTable>,
    /// The current write epoch: bumped by every [`PagedBTree::share`].
    epoch: u64,
    /// Pages written fresh since the last share — invisible to every
    /// snapshot, so they may be mutated in place within this epoch.
    fresh: HashSet<u32>,
    /// Superseded page versions: `(epoch that replaced them, page)`. Moved to
    /// the free set once no snapshot older than that epoch survives.
    retired: Vec<(u64, PageId)>,
    /// Highest committed batch sequence number applied to the pages,
    /// persisted in the meta page (see [`META_OFF_SEQ`]).
    applied_seq: u64,
    /// The root blob (see the module docs), persisted by the next flush.
    blob: Vec<u8>,
    /// The blob pages the last flush (or open) chained after the meta page,
    /// in chain order — live pages, like the tree's own.
    blob_pages: Vec<PageId>,
    /// Crash-atomic writeback pin (see
    /// [`PagedBTree::enable_durable_writeback`]): while set, no page of the
    /// last flushed tree is overwritten in place or recycled, so the page
    /// file always holds that tree intact until the next two-phase flush
    /// supersedes it.
    durable_pin: Option<SnapshotPin>,
    /// Present on snapshots only: keeps the share's epoch pinned.
    _pin: Option<SnapshotPin>,
}

impl PagedBTree {
    /// A writer handle over `pool` for the tree rooted at `root`, with no
    /// free pages, no blob and no sequence number yet.
    fn writer(pool: BufferPool, root: PageId, height: u32, entries: u64) -> Self {
        PagedBTree {
            pool,
            root,
            height,
            entries,
            free: BTreeSet::new(),
            snapshots: Arc::new(SnapshotTable::default()),
            epoch: 0,
            fresh: HashSet::new(),
            retired: Vec::new(),
            applied_seq: 0,
            blob: Vec::new(),
            blob_pages: Vec::new(),
            durable_pin: None,
            _pin: None,
        }
    }

    /// Creates a fresh, empty tree in `pool` (which must be empty).
    pub fn create(pool: BufferPool) -> io::Result<Self> {
        let meta = pool.allocate_page()?;
        assert_eq!(meta, PageId(0), "the meta page must be page 0");
        let root = pool.allocate_page()?;
        pool.with_page_mut(root, |p| slotted::init(p, slotted::KIND_LEAF))?;
        let mut tree = Self::writer(pool, root, 1, 0);
        tree.write_meta()?;
        Ok(tree)
    }

    /// Opens a tree previously persisted in `pool`'s backing store, root
    /// blob included, and derives its free pages: every page past the meta
    /// page that neither the root nor the blob chain reaches. The walk reads
    /// internal pages only (a leaf's id comes from its parent), so the open
    /// reads no leaf and no free page, and writes nothing. No free space is
    /// persisted, so a file a crash interrupted opens like a cleanly closed
    /// one: [`PagedBTree::enable_durable_writeback`] kept the last flushed
    /// tree and blob intact, and every other page is free. A file of another
    /// format, a blob chain that does not add up to the recorded length, or
    /// a walk that meets no internal node where it expects one is
    /// `InvalidData`.
    pub fn open(pool: BufferPool) -> io::Result<Self> {
        let (magic, root, height, entries, applied_seq) = pool.with_page(PageId(0), |p| {
            (
                get_u32(p, META_OFF_MAGIC),
                get_u32(p, META_OFF_ROOT),
                get_u32(p, META_OFF_HEIGHT),
                get_u64(p, META_OFF_COUNT),
                get_u64(p, META_OFF_SEQ),
            )
        })?;
        if magic != META_MAGIC {
            return Err(invalid_data(
                "not a pathix paged B+tree file of this format (bad magic)".into(),
            ));
        }
        let (blob, blob_pages) = Self::read_blob(&pool)?;
        let mut tree = Self::writer(pool, PageId(root), height, entries);
        tree.applied_seq = applied_seq;
        tree.blob = blob;
        tree.blob_pages = blob_pages;
        let mut live: HashSet<u32> = tree.blob_pages.iter().map(|pid| pid.0).collect();
        tree.reachable_pages(tree.root, tree.height, &mut live)?;
        tree.free = (1..tree.pool.num_pages())
            .filter(|pid| !live.contains(pid))
            .collect();
        Ok(tree)
    }

    /// Reads the root blob by following its chain from the meta page:
    /// returns the bytes and the blob pages they spanned. Every link past
    /// the meta page must be a distinct blob page inside the file, and the
    /// chain must end exactly where the recorded length does.
    fn read_blob(pool: &BufferPool) -> io::Result<(Vec<u8>, Vec<PageId>)> {
        let len = pool.with_page(PageId(0), |p| get_u32(p, META_OFF_BLOB_LEN))? as usize;
        let mut blob = Vec::with_capacity(len.min(PAGE_SIZE));
        let mut pages = Vec::new();
        let mut link = PageId(0);
        loop {
            let start = blob_link_start(link);
            let (kind, next) = pool.with_page(link, |p| {
                let take = (len - blob.len()).min(PAGE_SIZE - start);
                blob.extend_from_slice(&p[start..start + take]);
                (slotted::kind(p), PageId(slotted::next(p)))
            })?;
            if link != PageId(0) && kind != slotted::KIND_BLOB {
                return Err(invalid_data(format!(
                    "root blob link {link} has kind {kind}, not a blob page"
                )));
            }
            if blob.len() == len {
                if next.is_valid() {
                    return Err(invalid_data(format!(
                        "root blob chain runs on past its {len} byte(s) to {next}"
                    )));
                }
                return Ok((blob, pages));
            }
            if !next.is_valid()
                || next == PageId(0)
                || next.0 >= pool.num_pages()
                || pages.contains(&next)
            {
                return Err(invalid_data(format!(
                    "root blob chain breaks at {next} with {} of {len} byte(s) read",
                    blob.len()
                )));
            }
            pages.push(next);
            link = next;
        }
    }

    /// The root blob: the bytes last set with [`PagedBTree::set_root_blob`],
    /// or read back by [`PagedBTree::open`]. Empty on a snapshot
    /// ([`PagedBTree::share`]), which never flushes.
    pub fn root_blob(&self) -> &[u8] {
        &self.blob
    }

    /// Replaces the root blob. The next [`PagedBTree::flush`] persists it
    /// together with the root, in the same meta-page write; until then the
    /// page file keeps the blob of the last flush.
    pub fn set_root_blob(&mut self, blob: Vec<u8>) {
        assert!(
            u32::try_from(blob.len()).is_ok(),
            "a root blob of {} bytes does not fit its u32 length",
            blob.len()
        );
        self.blob = blob;
    }

    /// Collects every page reachable from `pid` at `level` (1 = leaf),
    /// reading internal pages only. A page at an internal level that is no
    /// internal node is `InvalidData`: its cells cannot be decoded safely.
    fn reachable_pages(&self, pid: PageId, level: u32, out: &mut HashSet<u32>) -> io::Result<()> {
        if !out.insert(pid.0) || level == 1 {
            return Ok(());
        }
        let kind = self.pool.with_page(pid, slotted::kind)?;
        if kind != slotted::KIND_INTERNAL {
            return Err(invalid_data(format!(
                "{pid} at level {level} has kind {kind}, not an internal node"
            )));
        }
        let (cells, leftmost) = self.read_internal(pid)?;
        self.reachable_pages(leftmost, level - 1, out)?;
        for (_, child) in &cells {
            self.reachable_pages(*child, level - 1, out)?;
        }
        Ok(())
    }

    /// Makes every flush crash-atomic: from now on the tree persisted by the
    /// last flush is never overwritten in place or recycled (a standing
    /// snapshot pin held by the writer itself forces copy-on-write), and
    /// [`PagedBTree::flush`] becomes two-phase — data pages are written and
    /// synced **before** the meta page flips the durable root. A crash at
    /// any point therefore leaves the page file holding the last flushed
    /// tree intact; the write-ahead log replays the batches since.
    ///
    /// Call on writer handles only, after the initial build/open flush.
    pub fn enable_durable_writeback(&mut self) {
        assert!(
            self._pin.is_none(),
            "snapshots cannot enable durable writeback"
        );
        if self.durable_pin.is_none() {
            self.pin_durable();
        }
    }

    /// Re-pins the durable snapshot at the current root, releasing the
    /// previous durable pin (whose pages then become reclaimable).
    fn pin_durable(&mut self) {
        let pin = self.snapshots.register(self.epoch, self.root, self.height);
        self.epoch += 1;
        // Everything written so far is now the durable tree: the next
        // mutation of any of these pages must relocate instead of overwrite.
        self.fresh.clear();
        self.durable_pin = Some(pin);
    }

    /// Publishes a **snapshot**: a read handle over the same buffer pool,
    /// pinned to the tree's root, height and entry count at call time.
    ///
    /// The snapshot is fully isolated. Taking it bumps the writer's epoch, so
    /// every later mutation copy-on-writes any page the snapshot could reach
    /// instead of overwriting it (see the module docs); the pages the
    /// snapshot references are only reclaimed after the snapshot handle is
    /// dropped. Shares are read handles — calling mutating methods on one is
    /// a contract violation (they would clobber the writer's pages).
    pub fn share(&mut self) -> PagedBTree {
        let pin = self.snapshots.register(self.epoch, self.root, self.height);
        self.epoch += 1;
        // Everything written so far is now visible to a snapshot: the next
        // mutation of any of these pages must relocate them.
        self.fresh.clear();
        PagedBTree {
            pool: self.pool.clone(),
            root: self.root,
            height: self.height,
            entries: self.entries,
            free: BTreeSet::new(),
            snapshots: Arc::clone(&self.snapshots),
            epoch: self.epoch,
            fresh: HashSet::new(),
            retired: Vec::new(),
            applied_seq: self.applied_seq,
            // Snapshots never flush: the blob and its chain stay the
            // writer's.
            blob: Vec::new(),
            blob_pages: Vec::new(),
            durable_pin: None,
            _pin: Some(pin),
        }
    }

    /// Copy-on-write and snapshot-reclamation counters (shared between the
    /// writer and its snapshots).
    pub fn cow_stats(&self) -> CowStats {
        CowStats {
            page_copies: self.snapshots.page_copies.load(Ordering::Relaxed),
            pages_retired: self.snapshots.pages_retired.load(Ordering::Relaxed),
            pages_reclaimed: self.snapshots.pages_reclaimed.load(Ordering::Relaxed),
            retired_pending: self.snapshots.retired_pending.load(Ordering::Relaxed),
            live_snapshots: self.snapshots.live_snapshots(),
        }
    }

    /// Writes the meta page: the root and its bookkeeping, then the root
    /// blob's length, first slice and first blob page (written by
    /// [`PagedBTree::write_blob_pages`] beforehand).
    fn write_meta(&mut self) -> io::Result<()> {
        let first_slice = &self.blob[..self.blob.len().min(PAGE_SIZE - META_OFF_BLOB)];
        let next = self.blob_pages.first().copied().unwrap_or(PageId::INVALID);
        self.pool.with_page_mut(PageId(0), |p| {
            slotted::init(p, slotted::KIND_META);
            put_u32(p, META_OFF_MAGIC, META_MAGIC);
            put_u32(p, META_OFF_ROOT, self.root.0);
            put_u32(p, META_OFF_HEIGHT, self.height);
            put_u64(p, META_OFF_COUNT, self.entries);
            put_u64(p, META_OFF_SEQ, self.applied_seq);
            put_u32(p, META_OFF_BLOB_LEN, self.blob.len() as u32);
            p[META_OFF_BLOB..META_OFF_BLOB + first_slice.len()].copy_from_slice(first_slice);
            slotted::set_next(p, next.0);
        })
    }

    /// Writes the part of the root blob the meta page cannot hold to fresh
    /// blob pages, chained in order, and retires the previous chain like any
    /// page a copy-on-write supersedes: under durable writeback the pin on
    /// the last flushed tree keeps that chain intact until the meta page
    /// that names it is superseded.
    fn write_blob_pages(&mut self) -> io::Result<()> {
        for pid in std::mem::take(&mut self.blob_pages) {
            self.retire_page(pid);
        }
        let in_meta = PAGE_SIZE - META_OFF_BLOB;
        let per_page = PAGE_SIZE - slotted::HEADER_SIZE;
        let overflow = self.blob.len().saturating_sub(in_meta);
        let pages = (0..overflow.div_ceil(per_page))
            .map(|_| self.alloc_page())
            .collect::<io::Result<Vec<_>>>()?;
        let slices = self
            .blob
            .get(in_meta..)
            .unwrap_or_default()
            .chunks(per_page);
        for (i, (&pid, slice)) in pages.iter().zip(slices).enumerate() {
            let next = pages.get(i + 1).copied().unwrap_or(PageId::INVALID);
            self.pool.with_page_mut(pid, |p| {
                slotted::init(p, slotted::KIND_BLOB);
                slotted::set_next(p, next.0);
                p[slotted::HEADER_SIZE..slotted::HEADER_SIZE + slice.len()].copy_from_slice(slice);
            })?;
        }
        self.blob_pages = pages;
        Ok(())
    }

    /// Reuses the lowest free page (reclaiming retired pages whose snapshots
    /// are gone first), extending the store only when none is free. Every
    /// caller rewrites the whole page, so a reused page is installed blank
    /// without reading its stale bytes. The returned page is *fresh*:
    /// invisible to every snapshot, so it may be rewritten in place until the
    /// next share.
    fn alloc_page(&mut self) -> io::Result<PageId> {
        self.reclaim_retired();
        let pid = match self.free.pop_first() {
            Some(pid) => {
                self.pool.reuse_page(PageId(pid))?;
                PageId(pid)
            }
            None => self.pool.allocate_page()?,
        };
        self.fresh.insert(pid.0);
        Ok(pid)
    }

    /// Releases a page the tree no longer references. A page no snapshot can
    /// reach (fresh this epoch, or no snapshots alive) joins the free set
    /// immediately; otherwise it is parked as retired-at-the-current-epoch
    /// and reclaimed once every snapshot that predates this epoch is gone.
    /// Neither reads nor writes the page.
    fn retire_page(&mut self, pid: PageId) {
        if self.fresh.remove(&pid.0) || !self.snapshots.has_pins() {
            self.free.insert(pid.0);
            return;
        }
        self.retired.push((self.epoch, pid));
        self.snapshots.pages_retired.fetch_add(1, Ordering::Relaxed);
        self.snapshots
            .retired_pending
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Moves every retired page whose blocking snapshots have died into the
    /// free set. A page retired at epoch `e` was reachable only by shares
    /// pinned at epochs `< e`, so it is reusable once the oldest live pin is
    /// `≥ e` (or none remain). `retired` is pushed in nondecreasing epoch
    /// order, so only a prefix can ever be reclaimable — when nothing is, a
    /// binary search bails out without touching the list (a long-lived
    /// snapshot must not make every page allocation rescan it).
    fn reclaim_retired(&mut self) {
        if self.retired.is_empty() {
            return;
        }
        let take = match self.snapshots.min_pinned() {
            None => self.retired.len(),
            Some(min_pin) => self.retired.partition_point(|&(epoch, _)| epoch <= min_pin),
        };
        if take == 0 {
            return;
        }
        self.free
            .extend(self.retired.drain(..take).map(|(_, pid)| pid.0));
        self.snapshots
            .pages_reclaimed
            .fetch_add(take as u64, Ordering::Relaxed);
        self.snapshots
            .retired_pending
            .store(self.retired.len() as u64, Ordering::Relaxed);
    }

    /// The page id a mutation of `pid` must write to. In-place (`pid`
    /// itself) when no snapshot can reference this page version; otherwise a
    /// fresh page — the caller rewrites the full node there and must
    /// propagate the relocation to the parent. The old version is retired.
    fn cow_target(&mut self, pid: PageId) -> io::Result<PageId> {
        if self.fresh.contains(&pid.0) || !self.snapshots.has_pins() {
            return Ok(pid);
        }
        let target = self.alloc_page()?;
        self.retire_page(pid);
        self.snapshots.page_copies.fetch_add(1, Ordering::Relaxed);
        Ok(target)
    }

    /// Number of pages parked as retired (awaiting snapshot death).
    pub fn retired_page_count(&self) -> usize {
        self.retired.len()
    }

    /// Number of pages in the writer's free set.
    pub fn free_page_count(&self) -> usize {
        self.free.len()
    }

    /// The buffer pool backing this tree.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Number of entries in the tree.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// `true` when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Size and shape statistics.
    pub fn stats(&self) -> PagedTreeStats {
        PagedTreeStats {
            entries: self.entries,
            height: self.height,
            pages: self.pool.num_pages(),
            bytes_on_disk: self.pool.size_bytes(),
        }
    }

    /// Flushes all dirty pages (and the metadata) to the backing store.
    /// Retired pages whose snapshots died are reclaimed first, so the free
    /// set is as large as possible when the flush returns.
    pub fn flush(&mut self) -> io::Result<()> {
        let result = self.try_flush();
        if result.is_err() {
            self.snapshots.flush_failed.store(true, Ordering::Relaxed);
        }
        result
    }

    fn try_flush(&mut self) -> io::Result<()> {
        self.reclaim_retired();
        self.write_blob_pages()?;
        if self.durable_pin.is_some() {
            // Two-phase, write-ahead order: data and blob pages first (the
            // on-disk meta page still describes the last durable tree and
            // blob, whose pages the durable pin kept intact), then the meta
            // page alone flips the durable root and blob. The meta page is
            // only ever dirtied here, so phase one cannot leak a
            // half-flipped root.
            self.pool.flush_all()?;
            self.write_meta()?;
            self.pool.flush_all()?;
            self.pin_durable();
            Ok(())
        } else {
            self.write_meta()?;
            self.pool.flush_all()
        }
    }

    /// `true` once any flush of this tree failed: the page file may not hold
    /// the writer's last tree or metadata. Shared between the writer and its
    /// snapshots; never cleared.
    pub fn flush_failed(&self) -> bool {
        self.snapshots.flush_failed.load(Ordering::Relaxed)
    }

    /// Highest committed batch sequence number whose effects reached the
    /// pages (persisted in the meta page on every flush).
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Records the batch sequence number the pages now reflect; persisted by
    /// the next [`PagedBTree::flush`].
    pub fn set_applied_seq(&mut self, seq: u64) {
        self.applied_seq = seq;
    }

    // ------------------------------------------------------------------
    // Cell encoding
    // ------------------------------------------------------------------

    fn encode_leaf_cell(key: &[u8], value: &[u8]) -> Vec<u8> {
        let mut cell = Vec::with_capacity(4 + key.len() + value.len());
        cell.extend_from_slice(&(key.len() as u16).to_le_bytes());
        cell.extend_from_slice(key);
        cell.extend_from_slice(&(value.len() as u16).to_le_bytes());
        cell.extend_from_slice(value);
        cell
    }

    fn encode_internal_cell(key: &[u8], child: PageId) -> Vec<u8> {
        let mut cell = Vec::with_capacity(6 + key.len());
        cell.extend_from_slice(&(key.len() as u16).to_le_bytes());
        cell.extend_from_slice(key);
        cell.extend_from_slice(&child.0.to_le_bytes());
        cell
    }

    fn decode_internal_cell(cell: &[u8]) -> (Vec<u8>, PageId) {
        let klen = u16::from_le_bytes([cell[0], cell[1]]) as usize;
        let key = cell[2..2 + klen].to_vec();
        let off = 2 + klen;
        let child = u32::from_le_bytes([cell[off], cell[off + 1], cell[off + 2], cell[off + 3]]);
        (key, PageId(child))
    }

    fn read_leaf(&self, pid: PageId) -> io::Result<Vec<LeafEntry>> {
        self.pool.with_page(pid, |p| {
            debug_assert_eq!(slotted::kind(p), slotted::KIND_LEAF, "{pid} is not a leaf");
            (0..slotted::cell_count(p))
                .map(|i| leaf_cell_parts(slotted::cell(p, i)))
                .map(|(key, value)| (key.to_vec(), value.to_vec()))
                .collect()
        })
    }

    fn read_internal(&self, pid: PageId) -> io::Result<(Vec<InternalCell>, PageId)> {
        self.pool.with_page(pid, |p| {
            debug_assert_eq!(
                slotted::kind(p),
                slotted::KIND_INTERNAL,
                "{pid} is not an internal node"
            );
            let cells = (0..slotted::cell_count(p))
                .map(|i| Self::decode_internal_cell(slotted::cell(p, i)))
                .collect();
            (cells, PageId(slotted::next(p)))
        })
    }

    fn write_leaf(&self, pid: PageId, entries: &[(Vec<u8>, Vec<u8>)]) -> io::Result<()> {
        let cells: Vec<Vec<u8>> = entries
            .iter()
            .map(|(k, v)| Self::encode_leaf_cell(k, v))
            .collect();
        self.pool.with_page_mut(pid, |p| {
            slotted::rewrite(p, slotted::KIND_LEAF, u32::MAX, &cells)
        })
    }

    fn write_internal(
        &self,
        pid: PageId,
        cells: &[(Vec<u8>, PageId)],
        leftmost: PageId,
    ) -> io::Result<()> {
        let encoded: Vec<Vec<u8>> = cells
            .iter()
            .map(|(k, c)| Self::encode_internal_cell(k, *c))
            .collect();
        self.pool.with_page_mut(pid, |p| {
            slotted::rewrite(p, slotted::KIND_INTERNAL, leftmost.0, &encoded)
        })
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// The child at `ordinal` of an internal node's cell list: ordinal 0 is
    /// the leftmost child, `j ≥ 1` is cell `j - 1`'s child.
    fn child_at(cells: &[InternalCell], leftmost: PageId, ordinal: usize) -> PageId {
        if ordinal == 0 {
            leftmost
        } else {
            cells[ordinal - 1].1
        }
    }

    /// Routes `key` one level down from an internal node's cell list,
    /// returning the chosen child's ordinal and page — the single source of
    /// truth for separator semantics (point lookups and range scans must
    /// descend identically).
    fn route(cells: &[InternalCell], leftmost: PageId, key: &[u8]) -> (usize, PageId) {
        // partition_point: number of cells whose key is <= search key.
        let ordinal = cells.partition_point(|(k, _)| k.as_slice() <= key);
        (ordinal, Self::child_at(cells, leftmost, ordinal))
    }

    /// Descends from the root to the leaf that owns `key`, recording the
    /// internal pages visited (for split propagation).
    fn descend(&self, key: &[u8]) -> io::Result<(PageId, Vec<PageId>)> {
        let mut path = Vec::with_capacity(self.height as usize);
        let mut current = self.root;
        for _ in 1..self.height {
            path.push(current);
            let (cells, leftmost) = self.read_internal(current)?;
            current = Self::route(&cells, leftmost, key).1;
        }
        Ok((current, path))
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        let (leaf, _) = self.descend(key)?;
        let entries = self.read_leaf(leaf)?;
        Ok(entries
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .ok()
            .map(|i| entries[i].1.clone()))
    }

    /// `true` when `key` is present.
    pub fn contains_key(&self, key: &[u8]) -> io::Result<bool> {
        Ok(self.get(key)?.is_some())
    }

    // ------------------------------------------------------------------
    // Insert / delete
    // ------------------------------------------------------------------

    /// Inserts `key → value`, returning the previous value if the key was
    /// already present.
    ///
    /// # Panics
    /// Panics if `key.len() + value.len()` exceeds [`MAX_ENTRY_SIZE`].
    pub fn insert(&mut self, key: Vec<u8>, value: Vec<u8>) -> io::Result<Option<Vec<u8>>> {
        assert!(
            key.len() + value.len() <= MAX_ENTRY_SIZE,
            "entry of {} bytes exceeds MAX_ENTRY_SIZE ({MAX_ENTRY_SIZE})",
            key.len() + value.len()
        );
        let (leaf, mut path) = self.descend(&key)?;
        let mut entries = self.read_leaf(leaf)?;
        let previous = match entries.binary_search_by(|(k, _)| k.as_slice().cmp(&key)) {
            Ok(i) => Some(std::mem::replace(&mut entries[i].1, value)),
            Err(i) => {
                entries.insert(i, (key, value));
                None
            }
        };

        let size = slotted::required_size(entries.iter().map(|(k, v)| 4 + k.len() + v.len()));
        if size <= PAGE_SIZE {
            let target = self.cow_target(leaf)?;
            self.write_leaf(target, &entries)?;
            self.fix_parents(&mut path, leaf, target)?;
        } else {
            // Split the leaf in half; the separator is the right sibling's
            // first key.
            let mid = entries.len() / 2;
            let right_entries = entries.split_off(mid);
            let right_pid = self.alloc_page()?;
            let separator = right_entries[0].0.clone();
            self.write_leaf(right_pid, &right_entries)?;
            let target = self.cow_target(leaf)?;
            self.write_leaf(target, &entries)?;
            self.insert_into_parent(path, leaf, target, separator, right_pid)?;
        }

        if previous.is_none() {
            self.entries += 1;
        }
        // The meta page is deliberately NOT updated here: it must only be
        // dirtied inside `try_flush`, after the data pages are written and
        // synced, or an eviction (or flush phase one) could persist a root
        // that points at pages not yet on disk. See `enable_durable_writeback`.
        Ok(previous)
    }

    /// Replaces the child pointer `old → new` in the recorded ancestor
    /// `path`, bottom-up, copy-on-writing each rewritten ancestor (which may
    /// relocate it in turn). Relocated ancestors are rewritten inside `path`
    /// so callers can keep using it; a relocated root updates
    /// [`PagedBTree::root`]. A no-op when `old == new`.
    fn fix_parents(
        &mut self,
        path: &mut [PageId],
        mut old: PageId,
        mut new: PageId,
    ) -> io::Result<()> {
        let mut level = path.len();
        while old != new {
            if level == 0 {
                self.root = new;
                return Ok(());
            }
            level -= 1;
            let parent = path[level];
            let (mut cells, mut leftmost) = self.read_internal(parent)?;
            if leftmost == old {
                leftmost = new;
            } else if let Some(cell) = cells.iter_mut().find(|(_, c)| *c == old) {
                cell.1 = new;
            } else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("relocated child {old} not found under {parent}"),
                ));
            }
            let target = self.cow_target(parent)?;
            self.write_internal(target, &cells, leftmost)?;
            path[level] = target;
            old = parent;
            new = target;
        }
        Ok(())
    }

    /// Propagates a split: `(separator, new_right)` must be inserted into the
    /// parent of the split node (whose pre-split id was `left_old`, possibly
    /// relocated to `left_new` by copy-on-write), splitting ancestors up to
    /// the root as needed.
    fn insert_into_parent(
        &mut self,
        mut path: Vec<PageId>,
        left_old: PageId,
        left_new: PageId,
        separator: Vec<u8>,
        right: PageId,
    ) -> io::Result<()> {
        let mut left_old = left_old;
        let mut left_new = left_new;
        let mut separator = separator;
        let mut right = right;
        loop {
            let Some(parent) = path.pop() else {
                // The root itself split: grow the tree by one level.
                let new_root = self.alloc_page()?;
                self.write_internal(new_root, &[(separator, right)], left_new)?;
                self.root = new_root;
                self.height += 1;
                return Ok(());
            };
            let (mut cells, mut leftmost) = self.read_internal(parent)?;
            if left_old != left_new {
                if leftmost == left_old {
                    leftmost = left_new;
                } else if let Some(cell) = cells.iter_mut().find(|(_, c)| *c == left_old) {
                    cell.1 = left_new;
                }
            }
            let idx = cells.partition_point(|(k, _)| k.as_slice() <= separator.as_slice());
            cells.insert(idx, (separator.clone(), right));

            let size = slotted::required_size(cells.iter().map(|(k, _)| 6 + k.len()));
            if size <= PAGE_SIZE {
                let target = self.cow_target(parent)?;
                self.write_internal(target, &cells, leftmost)?;
                return self.fix_parents(&mut path, parent, target);
            }
            // Split the internal node: the middle key moves up, it does not
            // stay in either half (B+tree internal split).
            let mid = cells.len() / 2;
            let mut right_cells = cells.split_off(mid);
            let (promoted, right_leftmost) = right_cells.remove(0);
            let right_pid = self.alloc_page()?;
            self.write_internal(right_pid, &right_cells, right_leftmost)?;
            let target = self.cow_target(parent)?;
            self.write_internal(target, &cells, leftmost)?;
            left_old = parent;
            left_new = target;
            separator = promoted;
            right = right_pid;
        }
    }

    /// Removes `key`, returning its value if it was present.
    ///
    /// A leaf that falls below [`MIN_FILL`] occupied bytes is merged with an
    /// adjacent sibling when both fit in one page (the freed page goes onto
    /// the free set), or rebalanced by redistributing entries otherwise.
    /// Merges cascade: an internal node that loses its last separators is
    /// merged in turn, and an internal root left with a single child is
    /// collapsed, shrinking the tree by one level.
    pub fn delete(&mut self, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        let (leaf, mut path) = self.descend(key)?;
        let mut entries = self.read_leaf(leaf)?;
        match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
            Ok(i) => {
                let (_, value) = entries.remove(i);
                let target = self.cow_target(leaf)?;
                self.write_leaf(target, &entries)?;
                self.fix_parents(&mut path, leaf, target)?;
                self.entries -= 1;
                let size =
                    slotted::required_size(entries.iter().map(|(k, v)| 4 + k.len() + v.len()));
                if size < MIN_FILL && self.height > 1 {
                    self.rebalance(path, target)?;
                }
                // No meta write here — see the matching comment in `insert`.
                Ok(Some(value))
            }
            Err(_) => Ok(None),
        }
    }

    /// Restores the fill invariant after a deletion left `node` (initially a
    /// leaf) below [`MIN_FILL`]. The node is paired with an adjacent sibling
    /// under the same parent: if their contents fit in one page they are
    /// merged (right into left, right page freed, parent separator dropped —
    /// which can underflow the parent and cascade upward); otherwise the
    /// contents are redistributed evenly and the parent separator updated.
    fn rebalance(&mut self, mut path: Vec<PageId>, mut node: PageId) -> io::Result<()> {
        // 1 = `node` is a leaf; grows as merges cascade toward the root.
        let mut level = 1u32;
        loop {
            let Some(parent) = path.pop() else {
                // `node` is the root. A root leaf may hold any number of
                // entries; an internal root without separators has exactly
                // one child left — collapse one level.
                if level > 1 {
                    let (cells, leftmost) = self.read_internal(node)?;
                    if cells.is_empty() {
                        self.retire_page(node);
                        self.root = leftmost;
                        self.height -= 1;
                    }
                }
                return Ok(());
            };
            let (mut pcells, mut pleftmost) = self.read_internal(parent)?;
            let children: Vec<PageId> = std::iter::once(pleftmost)
                .chain(pcells.iter().map(|&(_, c)| c))
                .collect();
            let Some(idx) = children.iter().position(|&c| c == node) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("rebalance: underflowed {node} is not a child of its parent {parent}"),
                ));
            };
            // Pair with the left neighbour (right neighbour for the leftmost
            // child); parent cell `sep_idx` separates the pair.
            let sep_idx = idx.saturating_sub(1);
            let left = children[sep_idx];
            let right = children[sep_idx + 1];

            let (new_left, redistributed) = if level == 1 {
                self.merge_or_split_leaves(left, right)?
            } else {
                let sep = pcells[sep_idx].0.clone();
                self.merge_or_split_internals(left, right, sep)?
            };
            // The left sibling may have been relocated by copy-on-write.
            if sep_idx == 0 {
                pleftmost = new_left;
            } else {
                pcells[sep_idx - 1].1 = new_left;
            }
            match redistributed {
                None => {
                    // Merged: the right page is gone, its separator with it.
                    pcells.remove(sep_idx);
                    let target = self.cow_target(parent)?;
                    self.write_internal(target, &pcells, pleftmost)?;
                    self.fix_parents(&mut path, parent, target)?;
                    let psize = slotted::required_size(pcells.iter().map(|(k, _)| 6 + k.len()));
                    if psize >= MIN_FILL {
                        return Ok(());
                    }
                    node = target;
                    level += 1;
                }
                Some((separator, new_right)) => {
                    // Redistributed: the separator between the two siblings
                    // (and their possibly relocated ids) changes. A longer
                    // separator can overflow a full parent — re-route through
                    // the splitting insert path in that (rare) case.
                    pcells[sep_idx].0 = separator;
                    pcells[sep_idx].1 = new_right;
                    let psize = slotted::required_size(pcells.iter().map(|(k, _)| 6 + k.len()));
                    if psize <= PAGE_SIZE {
                        let target = self.cow_target(parent)?;
                        self.write_internal(target, &pcells, pleftmost)?;
                        self.fix_parents(&mut path, parent, target)?;
                    } else {
                        let (separator, child) = pcells.remove(sep_idx);
                        let target = self.cow_target(parent)?;
                        self.write_internal(target, &pcells, pleftmost)?;
                        self.fix_parents(&mut path, parent, target)?;
                        path.push(target);
                        self.insert_into_parent(path, node, node, separator, child)?;
                    }
                    return Ok(());
                }
            }
        }
    }

    /// Merges leaf `right` into `left` when their contents fit in one page
    /// (retiring `right`), or redistributes the entries evenly by size.
    /// Returns the possibly relocated left page, plus — when redistributed —
    /// the new separator and the possibly relocated right page.
    fn merge_or_split_leaves(
        &mut self,
        left: PageId,
        right: PageId,
    ) -> io::Result<RebalanceOutcome> {
        let mut entries = self.read_leaf(left)?;
        let right_entries = self.read_leaf(right)?;
        entries.extend(right_entries);
        let cell = |(k, v): &LeafEntry| 4 + k.len() + v.len() + slotted::SLOT_SIZE;
        let total = slotted::required_size(entries.iter().map(|e| cell(e) - slotted::SLOT_SIZE));
        if total <= PAGE_SIZE {
            let new_left = self.cow_target(left)?;
            self.write_leaf(new_left, &entries)?;
            self.retire_page(right);
            return Ok((new_left, None));
        }
        let mid = balanced_split(&entries, cell);
        let right_entries = entries.split_off(mid);
        let separator = right_entries[0].0.clone();
        let new_left = self.cow_target(left)?;
        self.write_leaf(new_left, &entries)?;
        let new_right = self.cow_target(right)?;
        self.write_leaf(new_right, &right_entries)?;
        Ok((new_left, Some((separator, new_right))))
    }

    /// Merges internal node `right` into `left` (pulling the parent
    /// separator down as the cell routing to `right`'s leftmost child) when
    /// everything fits in one page, or redistributes the cells evenly and
    /// returns the promoted separator. Relocations mirror
    /// [`PagedBTree::merge_or_split_leaves`].
    fn merge_or_split_internals(
        &mut self,
        left: PageId,
        right: PageId,
        separator: Vec<u8>,
    ) -> io::Result<RebalanceOutcome> {
        let (mut cells, lleft) = self.read_internal(left)?;
        let (right_cells, rleft) = self.read_internal(right)?;
        cells.push((separator, rleft));
        cells.extend(right_cells);
        let cell = |(k, _): &InternalCell| 6 + k.len() + slotted::SLOT_SIZE;
        let total = slotted::required_size(cells.iter().map(|c| cell(c) - slotted::SLOT_SIZE));
        if total <= PAGE_SIZE {
            let new_left = self.cow_target(left)?;
            self.write_internal(new_left, &cells, lleft)?;
            self.retire_page(right);
            return Ok((new_left, None));
        }
        // Both sides must keep at least one cell; cells are bounded by
        // MAX_ENTRY_SIZE (≈ a quarter page), so an overflowing combination
        // always has enough of them.
        debug_assert!(cells.len() >= 3, "overflowing internal pair too small");
        let mid = balanced_split(&cells, cell).min(cells.len() - 2);
        let mut right_cells = cells.split_off(mid);
        let (promoted, right_leftmost) = right_cells.remove(0);
        let new_left = self.cow_target(left)?;
        self.write_internal(new_left, &cells, lleft)?;
        let new_right = self.cow_target(right)?;
        self.write_internal(new_right, &right_cells, right_leftmost)?;
        Ok((new_left, Some((promoted, new_right))))
    }

    // ------------------------------------------------------------------
    // Bulk load
    // ------------------------------------------------------------------

    /// Builds a tree from `pairs`, which must be sorted by key and free of
    /// duplicate keys. Far faster than repeated [`PagedBTree::insert`] and
    /// produces sequentially laid-out leaves.
    pub fn bulk_load(
        pool: BufferPool,
        pairs: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    ) -> io::Result<Self> {
        let meta = pool.allocate_page()?;
        assert_eq!(meta, PageId(0), "the meta page must be page 0");
        let budget = ((PAGE_SIZE - slotted::HEADER_SIZE) as f64 * BULK_FILL) as usize;

        // Level 0: pack leaves.
        let mut leaves: Vec<(Vec<u8>, PageId)> = Vec::new();
        let mut current: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut current_size = 0usize;
        let mut entries = 0u64;
        let mut prev_key: Option<Vec<u8>> = None;

        let flush_leaf = |current: &mut Vec<(Vec<u8>, Vec<u8>)>,
                          leaves: &mut Vec<(Vec<u8>, PageId)>|
         -> io::Result<()> {
            if current.is_empty() {
                return Ok(());
            }
            let pid = pool.allocate_page()?;
            let first_key = current[0].0.clone();
            let cells: Vec<Vec<u8>> = current
                .iter()
                .map(|(k, v)| Self::encode_leaf_cell(k, v))
                .collect();
            pool.with_page_mut(pid, |p| {
                slotted::rewrite(p, slotted::KIND_LEAF, u32::MAX, &cells)
            })?;
            leaves.push((first_key, pid));
            current.clear();
            Ok(())
        };

        for (key, value) in pairs {
            if let Some(prev) = &prev_key {
                assert!(
                    prev < &key,
                    "bulk_load input must be sorted by key and duplicate-free"
                );
            }
            assert!(
                key.len() + value.len() <= MAX_ENTRY_SIZE,
                "entry of {} bytes exceeds MAX_ENTRY_SIZE ({MAX_ENTRY_SIZE})",
                key.len() + value.len()
            );
            let cell_size = 4 + key.len() + value.len() + slotted::SLOT_SIZE;
            if current_size + cell_size > budget && !current.is_empty() {
                flush_leaf(&mut current, &mut leaves)?;
                current_size = 0;
            }
            prev_key = Some(key.clone());
            current_size += cell_size;
            current.push((key, value));
            entries += 1;
        }
        flush_leaf(&mut current, &mut leaves)?;

        // Empty input: single empty leaf root.
        if leaves.is_empty() {
            let pid = pool.allocate_page()?;
            pool.with_page_mut(pid, |p| slotted::init(p, slotted::KIND_LEAF))?;
            leaves.push((Vec::new(), pid));
        }

        // Build internal levels bottom-up until a single node remains.
        let mut level = leaves;
        let mut height = 1u32;
        while level.len() > 1 {
            height += 1;
            let mut parents: Vec<(Vec<u8>, PageId)> = Vec::new();
            let mut i = 0usize;
            while i < level.len() {
                // Greedily pack children into one internal node within budget.
                let first_key = level[i].0.clone();
                let leftmost = level[i].1;
                let mut cells: Vec<(Vec<u8>, PageId)> = Vec::new();
                let mut size = slotted::HEADER_SIZE;
                i += 1;
                while i < level.len() {
                    let extra = 6 + level[i].0.len() + slotted::SLOT_SIZE;
                    if size + extra > budget || cells.len() + 1 >= u16::MAX as usize {
                        break;
                    }
                    size += extra;
                    cells.push((level[i].0.clone(), level[i].1));
                    i += 1;
                }
                let pid = pool.allocate_page()?;
                let encoded: Vec<Vec<u8>> = cells
                    .iter()
                    .map(|(k, c)| Self::encode_internal_cell(k, *c))
                    .collect();
                pool.with_page_mut(pid, |p| {
                    slotted::rewrite(p, slotted::KIND_INTERNAL, leftmost.0, &encoded)
                })?;
                parents.push((first_key, pid));
            }
            level = parents;
        }

        let mut tree = Self::writer(pool, level[0].1, height, entries);
        tree.write_meta()?;
        Ok(tree)
    }

    // ------------------------------------------------------------------
    // Scans
    // ------------------------------------------------------------------

    /// Iterates entries with `start ≤ key < end` (unbounded when `end` is
    /// `None`) in key order, decoding each into an owned `(key, value)`.
    pub fn range(&self, start: &[u8], end: Option<&[u8]>) -> io::Result<PagedRangeIter<'_>> {
        Ok(PagedRangeIter {
            cursor: self.leaf_cursor(start, end)?,
            entries: Vec::new().into_iter(),
        })
    }

    /// Positions a [`LeafCursor`] on the leaf that owns `start`, for the
    /// range `start ≤ key < end` (unbounded when `end` is `None`).
    ///
    /// The cursor keeps a stack of internal positions instead of following
    /// leaf sibling pointers (leaves are not chained — a relocated
    /// copy-on-write leaf could not update its predecessor), so it always
    /// walks exactly the tree rooted at this handle's root.
    fn leaf_cursor(&self, start: &[u8], end: Option<&[u8]>) -> io::Result<LeafCursor<'_>> {
        let mut stack = Vec::with_capacity(self.height.saturating_sub(1) as usize);
        let mut current = self.root;
        for level in 1..self.height {
            let (cells, leftmost) = self.read_internal(current)?;
            let (ordinal, child) = Self::route(&cells, leftmost, start);
            if level + 1 == self.height {
                // `current` is a leaf parent: the scan will consume its leaf
                // children left to right, so stage the next few now.
                self.prefetch_leaves(&cells, leftmost, ordinal + 1);
            }
            stack.push((current, ordinal + 1));
            current = child;
        }
        Ok(LeafCursor {
            tree: self,
            stack,
            first: Some((current, start.to_vec())),
            end: end.map(<[u8]>::to_vec),
            done: false,
        })
    }

    /// Iterates every entry in key order.
    pub fn iter(&self) -> io::Result<PagedRangeIter<'_>> {
        self.range(&[], None)
    }

    /// Issues buffer-pool read-ahead for up to [`READ_AHEAD`] leaf children
    /// of a leaf-parent internal node, starting at child `from_ordinal`.
    ///
    /// Leaves are not sibling-chained (see [`Self::leaf_cursor`]), so
    /// sequential leaf prefetch goes through the parent's cells instead of a
    /// next pointer. Best effort: errors surface on the demand read.
    fn prefetch_leaves(&self, cells: &[InternalCell], leftmost: PageId, from_ordinal: usize) {
        // Valid ordinals are 0..=cells.len().
        if from_ordinal > cells.len() {
            return;
        }
        let upto = (from_ordinal + READ_AHEAD).min(cells.len() + 1);
        let pids: Vec<PageId> = (from_ordinal..upto)
            .map(|o| Self::child_at(cells, leftmost, o))
            .collect();
        self.pool.prefetch(&pids);
    }

    /// A [`LeafCursor`] over the entries whose key starts with `prefix`.
    pub(crate) fn prefix_cursor(&self, prefix: &[u8]) -> io::Result<LeafCursor<'_>> {
        let end = prefix_successor(prefix);
        self.leaf_cursor(prefix, end.as_deref())
    }

    // ------------------------------------------------------------------
    // Structural audit
    // ------------------------------------------------------------------

    /// The one recursive invariant walker: records every invariant
    /// evaluation into `report` and collects the reachable page set. A wrong
    /// page kind stops the descent into that node (its cells cannot be
    /// decoded safely), leaving the `node-kind` violation as the finding.
    #[allow(clippy::too_many_arguments)]
    fn audit_node(
        &self,
        report: &mut AuditReport,
        pid: PageId,
        level: u32,
        lower: Option<&[u8]>,
        upper: Option<&[u8]>,
        reachable: &mut HashSet<u32>,
        leaf_entries: &mut u64,
    ) -> io::Result<()> {
        let loc = pid.to_string();
        if !reachable.insert(pid.0) {
            report.violation(
                "page-shared",
                &loc,
                "page reached twice from the same root (cycle or aliased child)".into(),
            );
            return Ok(());
        }
        let kind = self.pool.with_page(pid, slotted::kind)?;
        // Expecting a leaf exactly at level 1 doubles as the depth-uniformity
        // check: a short or long branch hits the wrong kind at this level.
        let expected = if level == 1 {
            slotted::KIND_LEAF
        } else {
            slotted::KIND_INTERNAL
        };
        report.check("node-kind", &loc, kind == expected, || {
            format!("expected kind {expected} at level {level}, found kind {kind}")
        });
        if kind != expected {
            return Ok(());
        }
        if level == 1 {
            let entries = self.read_leaf(pid)?;
            let unsorted = entries.windows(2).filter(|w| w[0].0 >= w[1].0).count();
            report.check("leaf-sorted", &loc, unsorted == 0, || {
                format!("{unsorted} adjacent key pair(s) out of order")
            });
            let escaped = entries
                .iter()
                .filter(|(k, _)| {
                    lower.is_some_and(|lo| k.as_slice() < lo)
                        || upper.is_some_and(|hi| k.as_slice() >= hi)
                })
                .count();
            report.check("separator-bounds", &loc, escaped == 0, || {
                format!("{escaped} key(s) outside the separator window")
            });
            *leaf_entries += entries.len() as u64;
            return Ok(());
        }
        let (cells, leftmost) = self.read_internal(pid)?;
        report.check("internal-nonempty", &loc, !cells.is_empty(), || {
            "internal node holds no separators".into()
        });
        if cells.is_empty() {
            return Ok(());
        }
        let unsorted = cells.windows(2).filter(|w| w[0].0 >= w[1].0).count();
        report.check("internal-sorted", &loc, unsorted == 0, || {
            format!("{unsorted} adjacent separator pair(s) out of order")
        });
        self.audit_node(
            report,
            leftmost,
            level - 1,
            lower,
            Some(cells[0].0.as_slice()),
            reachable,
            leaf_entries,
        )?;
        for i in 0..cells.len() {
            let child_upper = if i + 1 < cells.len() {
                Some(cells[i + 1].0.as_slice())
            } else {
                upper
            };
            self.audit_node(
                report,
                cells[i].1,
                level - 1,
                Some(cells[i].0.as_slice()),
                child_upper,
                reachable,
                leaf_entries,
            )?;
        }
        Ok(())
    }

    /// Checks that every blob page is a blob page that no other live page
    /// aliases, and adds it to `reachable`: the chain is as live as the tree.
    fn audit_blob_pages(
        &self,
        report: &mut AuditReport,
        reachable: &mut HashSet<u32>,
    ) -> io::Result<()> {
        for &pid in &self.blob_pages {
            let kind = self.pool.with_page(pid, slotted::kind)?;
            let unshared = reachable.insert(pid.0);
            report.check(
                "blob-chain",
                &pid.to_string(),
                kind == slotted::KIND_BLOB && unshared,
                || format!("blob page has kind {kind} or is reached twice"),
            );
        }
        Ok(())
    }

    /// Whether a full [`PagedBTree::iter`] yields exactly `len()` entries in
    /// strictly ascending key order. The tree walk checks each node against
    /// its separators; this checks the cursor scans are actually served by.
    fn scan_is_ascending(&self) -> io::Result<bool> {
        let mut prev: Option<Vec<u8>> = None;
        let mut yielded = 0u64;
        for item in self.iter()? {
            let (key, _) = item?;
            if prev.is_some_and(|prev| prev >= key) {
                return Ok(false);
            }
            yielded += 1;
            prev = Some(key);
        }
        Ok(yielded == self.entries)
    }

    /// Writer-only page-lifecycle audit: the free set names only data pages
    /// inside the file and is disjoint from the live tree, retired pages are
    /// unreachable from the writer and from any pinned snapshot they could
    /// have been visible to, and every allocated page is accounted for (no
    /// leaks).
    fn audit_lifecycle(
        &self,
        report: &mut AuditReport,
        reachable: &HashSet<u32>,
    ) -> io::Result<()> {
        let num_pages = self.pool.num_pages();
        let free = &self.free;
        let stray: Vec<u32> = free
            .iter()
            .copied()
            .filter(|&pid| pid == 0 || pid >= num_pages || self.blob_pages.contains(&PageId(pid)))
            .collect();
        report.check("free-list-wellformed", "free-set", stray.is_empty(), || {
            format!(
                "{} free id(s) name the meta page, a blob page or a page past the file \
                 ({num_pages} pages): {:?}",
                stray.len(),
                &stray[..stray.len().min(8)]
            )
        });

        let free_reach = free.iter().filter(|pid| reachable.contains(pid)).count();
        report.check(
            "free-reachable-disjoint",
            "free-set",
            free_reach == 0,
            || format!("{free_reach} free page(s) still reachable from the writer root"),
        );

        let retired: HashSet<u32> = self.retired.iter().map(|&(_, pid)| pid.0).collect();
        let retired_reach = retired.intersection(reachable).count();
        report.check("retired-unreachable", "retired", retired_reach == 0, || {
            format!("{retired_reach} retired page(s) still reachable from the writer root")
        });
        let retired_free = retired.iter().filter(|pid| free.contains(pid)).count();
        report.check(
            "retired-free-disjoint",
            "retired",
            retired_free == 0,
            || format!("{retired_free} page(s) both retired and free"),
        );

        // Every pinned snapshot root must stay clear of freed pages and of
        // pages retired at or before its pin epoch (those become reclaimable
        // the moment the pin is the oldest survivor — see `reclaim_retired`).
        let pins: Vec<(u64, PinnedEpoch)> = self
            .snapshots
            .pins()
            .iter()
            .map(|(&e, &p)| (e, p))
            .collect();
        for (epoch, pin) in pins {
            let loc = format!("snapshot@{epoch}");
            // Only the page set: the snapshot's own handle audits contents.
            let mut snap = HashSet::new();
            match self.reachable_pages(pin.root, pin.height, &mut snap) {
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    report.violation("node-kind", &loc, e.to_string());
                }
                walk => walk?,
            }
            let in_free = snap.iter().filter(|pid| free.contains(pid)).count();
            report.check("snapshot-free-disjoint", &loc, in_free == 0, || {
                format!("{in_free} page(s) reachable from the pinned root are free")
            });
            let blocked = self
                .retired
                .iter()
                .filter(|&&(e, pid)| e <= epoch && snap.contains(&pid.0))
                .count();
            report.check("snapshot-retired-disjoint", &loc, blocked == 0, || {
                format!(
                    "{blocked} page(s) retired at or before the pin epoch are still reachable from it"
                )
            });
        }

        // Coverage: every page past the meta page is reachable, free, or
        // retired. (Snapshot-only pages are always retired, so they are
        // covered without consulting the pin walks.)
        let leaked: Vec<u32> = (1..num_pages)
            .filter(|p| !reachable.contains(p) && !free.contains(p) && !retired.contains(p))
            .collect();
        report.check("page-leak", "pool", leaked.is_empty(), || {
            format!(
                "{} page(s) neither reachable, free, nor retired: {:?}",
                leaked.len(),
                &leaked[..leaked.len().min(8)]
            )
        });
        Ok(())
    }
}

/// Full structural audit of the page graph.
///
/// Every handle audits the tree reachable from its own root: page kinds
/// (which doubles as depth uniformity), in-node key ordering, separator
/// bounds, child aliasing, the root blob's pages, the entry count, and that
/// the range cursor's full scan yields exactly that many keys in ascending
/// order. Writer handles
/// additionally audit the page lifecycle — the free set's ids, disjointness
/// of free and retired pages from the writer root and from every pinned
/// snapshot root, and full coverage of the page file.
impl StructuralAudit for PagedBTree {
    fn audit(&self, report: &mut AuditReport) {
        let mut reachable = HashSet::new();
        let mut leaf_entries = 0u64;
        let walk = self.audit_node(
            report,
            self.root,
            self.height,
            None,
            None,
            &mut reachable,
            &mut leaf_entries,
        );
        if let Err(e) = walk {
            report.violation("audit-io", "tree-walk", e.to_string());
            return;
        }
        if let Err(e) = self.audit_blob_pages(report, &mut reachable) {
            report.violation("audit-io", "blob-chain", e.to_string());
            return;
        }
        report.check("entry-count", "meta", leaf_entries == self.entries, || {
            format!(
                "meta says {} entries, leaves hold {leaf_entries}",
                self.entries
            )
        });
        match self.scan_is_ascending() {
            Ok(ascending) => report.check("scan-ascending", "cursor", ascending, || {
                format!(
                    "a full scan is not strictly ascending or does not yield {} entries",
                    self.entries
                )
            }),
            Err(e) => report.violation("audit-io", "cursor-scan", e.to_string()),
        }
        if self._pin.is_none() {
            if let Err(e) = self.audit_lifecycle(report, &reachable) {
                report.violation("audit-io", "lifecycle", e.to_string());
            }
        }
    }
}

/// Index of the smallest prefix of `items` whose cells reach half the total
/// size, clamped so both sides stay non-empty — the split point used when
/// rebalancing two siblings whose combined contents overflow one page.
fn balanced_split<T>(items: &[T], cell_size: impl Fn(&T) -> usize) -> usize {
    debug_assert!(items.len() >= 2, "cannot split fewer than two cells");
    let total: usize = items.iter().map(&cell_size).sum();
    let mut acc = 0usize;
    for (i, item) in items.iter().enumerate() {
        acc += cell_size(item);
        if acc * 2 >= total {
            return (i + 1).clamp(1, items.len() - 1);
        }
    }
    items.len() / 2
}

/// Splits a leaf cell into its key and value bytes, in place.
fn leaf_cell_parts(cell: &[u8]) -> (&[u8], &[u8]) {
    let klen = u16::from_le_bytes([cell[0], cell[1]]) as usize;
    let voff = 2 + klen;
    let vlen = u16::from_le_bytes([cell[voff], cell[voff + 1]]) as usize;
    (&cell[2..voff], &cell[voff + 2..voff + 2 + vlen])
}

/// The leaf cursor every range scan of a [`PagedBTree`] sits on: visits the
/// leaves of a key range in key order, one `with_page` per leaf, handing each
/// in-range cell's key and value bytes to the caller without copying them.
#[derive(Debug)]
pub(crate) struct LeafCursor<'a> {
    tree: &'a PagedBTree,
    /// `(internal page, next child ordinal to visit)` per level, root first.
    /// Ordinal 0 is the leftmost child, `j ≥ 1` is cell `j - 1`.
    stack: Vec<(PageId, usize)>,
    /// The leaf the descent ended on and the range's first key, until that
    /// leaf has been visited.
    first: Option<(PageId, Vec<u8>)>,
    end: Option<Vec<u8>>,
    done: bool,
}

impl LeafCursor<'_> {
    /// Moves to the next leaf in key order: pops exhausted internal levels,
    /// then descends the leftmost spine under the next unvisited child.
    /// Returns `None` when the tree is exhausted.
    fn advance_leaf(&mut self) -> io::Result<Option<PageId>> {
        loop {
            let Some((pid, ordinal)) = self.stack.pop() else {
                return Ok(None);
            };
            let (cells, leftmost) = self.tree.read_internal(pid)?;
            if ordinal > cells.len() {
                continue;
            }
            let child = PagedBTree::child_at(&cells, leftmost, ordinal);
            self.stack.push((pid, ordinal + 1));
            if self.stack.len() as u32 == self.tree.height - 1 {
                // Back at a leaf parent: stage its upcoming leaf children.
                self.tree.prefetch_leaves(&cells, leftmost, ordinal + 1);
            }
            let mut current = child;
            while (self.stack.len() as u32) < self.tree.height - 1 {
                let (spine_cells, child_leftmost) = self.tree.read_internal(current)?;
                self.stack.push((current, 1));
                if self.stack.len() as u32 == self.tree.height - 1 {
                    // A fresh leaf parent on the leftmost spine: its first
                    // child is read next, stage the ones after it.
                    self.tree.prefetch_leaves(&spine_cells, child_leftmost, 1);
                }
                current = child_leftmost;
            }
            return Ok(Some(current));
        }
    }

    /// Reads the next leaf of the range and calls `visit(key, value)` on each
    /// of its in-range cells, in key order. Returns `false` — from then on,
    /// without touching a page — once the range is exhausted: a key at or
    /// past `end` was seen, or the tree ran out of leaves. An error (from the
    /// pool or from `visit`) also ends the scan.
    pub(crate) fn visit_leaf(
        &mut self,
        mut visit: impl FnMut(&[u8], &[u8]) -> io::Result<()>,
    ) -> io::Result<bool> {
        if self.done {
            return Ok(false);
        }
        // Every early return below — an error, or no leaf left — ends the scan.
        self.done = true;
        let (leaf, start) = match self.first.take() {
            Some((leaf, start)) => (leaf, Some(start)),
            None => match self.advance_leaf()? {
                Some(leaf) => (leaf, None),
                None => return Ok(false),
            },
        };
        let end = self.end.as_deref();
        let ended = self.tree.pool.with_page(leaf, |p| -> io::Result<bool> {
            debug_assert_eq!(slotted::kind(p), slotted::KIND_LEAF, "{leaf} is not a leaf");
            for i in 0..slotted::cell_count(p) {
                let (key, value) = leaf_cell_parts(slotted::cell(p, i));
                // Only the first leaf can hold keys below the range.
                if start.as_deref().is_some_and(|start| key < start) {
                    continue;
                }
                if end.is_some_and(|end| key >= end) {
                    return Ok(true);
                }
                visit(key, value)?;
            }
            Ok(false)
        })??;
        self.done = ended;
        Ok(true)
    }
}

/// Ordered iterator over a key range of a [`PagedBTree`], decoding one leaf
/// at a time into owned entries.
///
/// Each item is `io::Result<(key, value)>`; an I/O error ends the iteration
/// after yielding the error once.
#[derive(Debug)]
pub struct PagedRangeIter<'a> {
    cursor: LeafCursor<'a>,
    entries: std::vec::IntoIter<LeafEntry>,
}

impl Iterator for PagedRangeIter<'_> {
    type Item = io::Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(entry) = self.entries.next() {
                return Some(Ok(entry));
            }
            let mut entries = Vec::new();
            let more = self.cursor.visit_leaf(|key, value| {
                entries.push((key.to_vec(), value.to_vec()));
                Ok(())
            });
            match more {
                Ok(true) => self.entries = entries.into_iter(),
                Ok(false) => return None,
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> Vec<u8> {
        format!("key-{i:08}").into_bytes()
    }

    fn val(i: u32) -> Vec<u8> {
        format!("value-{i}").into_bytes()
    }

    /// A tree holding `keys` with empty values.
    fn tree_of(keys: &[&[u8]]) -> PagedBTree {
        let mut tree = PagedBTree::create(BufferPool::in_memory(16)).unwrap();
        for key in keys {
            tree.insert(key.to_vec(), Vec::new()).unwrap();
        }
        tree
    }

    /// The keys under `prefix`, through the prefix cursor.
    fn keys_under(tree: &PagedBTree, prefix: &[u8]) -> Vec<Vec<u8>> {
        let mut cursor = tree.prefix_cursor(prefix).unwrap();
        let mut keys = Vec::new();
        while cursor
            .visit_leaf(|key, _| {
                keys.push(key.to_vec());
                Ok(())
            })
            .unwrap()
        {}
        keys
    }

    #[test]
    fn prefix_cursor_is_unbounded_above_when_the_prefix_has_no_successor() {
        let tree = tree_of(&[&[0xFE, 0xFF], &[0xFF], &[0xFF, 0x00], &[0xFF, 0xFF, 0x03]]);
        assert_eq!(prefix_successor(&[0xFF, 0xFF]), None);
        assert_eq!(
            keys_under(&tree, &[0xFF]),
            [vec![0xFF], vec![0xFF, 0x00], vec![0xFF, 0xFF, 0x03]]
        );
        assert_eq!(keys_under(&tree, &[0xFF, 0xFF]), [vec![0xFF, 0xFF, 0x03]]);
        assert_eq!(keys_under(&tree, &[]).len() as u64, tree.len());
    }

    #[test]
    fn prefix_cursor_with_a_carrying_successor_excludes_the_shorter_upper_bound() {
        // [0x01, 0xFF] carries to [0x02]: the upper bound is shorter than the
        // prefix, and both it and everything above it must stay out.
        let tree = tree_of(&[
            &[0x01, 0xFE, 0xFF],
            &[0x01, 0xFF],
            &[0x01, 0xFF, 0x00],
            &[0x01, 0xFF, 0xFF, 0xFF],
            &[0x02],
            &[0x02, 0x00],
        ]);
        assert_eq!(prefix_successor(&[0x01, 0xFF]), Some(vec![0x02]));
        assert_eq!(
            keys_under(&tree, &[0x01, 0xFF]),
            [
                vec![0x01, 0xFF],
                vec![0x01, 0xFF, 0x00],
                vec![0x01, 0xFF, 0xFF, 0xFF]
            ]
        );
    }

    #[test]
    fn empty_tree_behaviour() {
        let tree = PagedBTree::create(BufferPool::in_memory(16)).unwrap();
        assert!(tree.is_empty());
        assert_eq!(tree.len(), 0);
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.get(b"anything").unwrap(), None);
        assert_eq!(tree.iter().unwrap().count(), 0);
        assert_audit_clean(&tree);
    }

    #[test]
    fn insert_get_and_overwrite() {
        let mut tree = PagedBTree::create(BufferPool::in_memory(16)).unwrap();
        assert_eq!(tree.insert(b"b".to_vec(), b"2".to_vec()).unwrap(), None);
        assert_eq!(tree.insert(b"a".to_vec(), b"1".to_vec()).unwrap(), None);
        assert_eq!(tree.insert(b"c".to_vec(), b"3".to_vec()).unwrap(), None);
        assert_eq!(tree.len(), 3);
        assert_eq!(tree.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(
            tree.insert(b"a".to_vec(), b"one".to_vec()).unwrap(),
            Some(b"1".to_vec())
        );
        assert_eq!(tree.len(), 3, "overwrite must not grow the tree");
        assert_eq!(tree.get(b"a").unwrap(), Some(b"one".to_vec()));
        assert!(tree.contains_key(b"c").unwrap());
        assert!(!tree.contains_key(b"d").unwrap());
        assert_audit_clean(&tree);
    }

    #[test]
    fn many_inserts_split_leaves_and_internals() {
        let mut tree = PagedBTree::create(BufferPool::in_memory(64)).unwrap();
        let n = 5_000u32;
        // Insert in a scrambled but deterministic order.
        let mut order: Vec<u32> = (0..n).collect();
        order.reverse();
        order.sort_by_key(|i| (u64::from(*i) * 2_654_435_761) % u64::from(n));
        for i in &order {
            tree.insert(key(*i), val(*i)).unwrap();
        }
        assert_eq!(tree.len(), n as u64);
        assert!(tree.height() >= 2, "5k entries must split the root");
        for i in (0..n).step_by(97) {
            assert_eq!(tree.get(&key(i)).unwrap(), Some(val(i)), "key {i}");
        }
        // Full scan is sorted and complete.
        let all: Vec<_> = tree.iter().unwrap().map(Result::unwrap).collect();
        assert_eq!(all.len(), n as usize);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        assert_audit_clean(&tree);
    }

    #[test]
    fn bulk_load_matches_inserts() {
        let n = 3_000u32;
        let pairs: Vec<_> = (0..n).map(|i| (key(i), val(i))).collect();
        let loaded = PagedBTree::bulk_load(BufferPool::in_memory(64), pairs.clone()).unwrap();
        assert_audit_clean(&loaded);
        assert_eq!(loaded.len(), n as u64);

        let mut inserted = PagedBTree::create(BufferPool::in_memory(64)).unwrap();
        for (k, v) in pairs {
            inserted.insert(k, v).unwrap();
        }
        let a: Vec<_> = loaded.iter().unwrap().map(Result::unwrap).collect();
        let b: Vec<_> = inserted.iter().unwrap().map(Result::unwrap).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn bulk_load_empty_and_single() {
        let tree = PagedBTree::bulk_load(BufferPool::in_memory(8), Vec::new()).unwrap();
        assert!(tree.is_empty());
        assert_audit_clean(&tree);

        let tree = PagedBTree::bulk_load(BufferPool::in_memory(8), vec![(key(1), val(1))]).unwrap();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.get(&key(1)).unwrap(), Some(val(1)));
        assert_audit_clean(&tree);
    }

    #[test]
    fn range_and_prefix_scans() {
        let pairs: Vec<_> = (0..2_000u32).map(|i| (key(i), val(i))).collect();
        let tree = PagedBTree::bulk_load(BufferPool::in_memory(32), pairs).unwrap();

        let hits: Vec<_> = tree
            .range(&key(100), Some(&key(110)))
            .unwrap()
            .map(Result::unwrap)
            .collect();
        assert_eq!(hits.len(), 10);
        assert_eq!(hits[0].0, key(100));
        assert_eq!(hits[9].0, key(109));

        // All keys share the "key-0000" prefix for i in 0..10 … use a prefix
        // that selects exactly the 1000..1999 block.
        let mut hits = 0;
        let mut cursor = tree.prefix_cursor(b"key-00001").unwrap();
        let mut count = |_: &[u8], _: &[u8]| {
            hits += 1;
            Ok(())
        };
        while cursor.visit_leaf(&mut count).unwrap() {}
        assert_eq!(hits, 1000);

        // Range starting before the first key and ending after the last.
        let all = tree.range(b"", None).unwrap().count();
        assert_eq!(all, 2_000);

        // Empty range.
        assert_eq!(tree.range(&key(50), Some(&key(50))).unwrap().count(), 0);
    }

    #[test]
    fn interleaved_deletes_stay_correct() {
        let mut tree = PagedBTree::create(BufferPool::in_memory(32)).unwrap();
        for i in 0..500u32 {
            tree.insert(key(i), val(i)).unwrap();
        }
        for i in (0..500u32).step_by(2) {
            assert_eq!(tree.delete(&key(i)).unwrap(), Some(val(i)));
        }
        assert_eq!(tree.delete(&key(2)).unwrap(), None, "double delete");
        assert_eq!(tree.len(), 250);
        for i in 0..500u32 {
            let expected = if i % 2 == 0 { None } else { Some(val(i)) };
            assert_eq!(tree.get(&key(i)).unwrap(), expected, "key {i}");
        }
        assert_audit_clean(&tree);
    }

    #[test]
    fn deleting_everything_collapses_the_tree_and_frees_pages() {
        let mut tree = PagedBTree::create(BufferPool::in_memory(64)).unwrap();
        let n = 3_000u32;
        for i in 0..n {
            tree.insert(key(i), val(i)).unwrap();
        }
        assert!(tree.height() >= 2, "3k entries must grow internal levels");
        let grown_pages = tree.stats().pages;
        for i in 0..n {
            assert_eq!(tree.delete(&key(i)).unwrap(), Some(val(i)), "key {i}");
        }
        assert!(tree.is_empty());
        assert_eq!(
            tree.height(),
            1,
            "merges must cascade until the root is a single leaf"
        );
        assert_audit_clean(&tree);
        // Every page except the meta page and the root leaf is free —
        // nothing leaked.
        let free = tree.free_page_count();
        assert_eq!(free, grown_pages as usize - 2, "pages leaked by delete");
        // Re-inserting reuses freed pages instead of extending the store.
        for i in 0..n {
            tree.insert(key(i), val(i)).unwrap();
        }
        assert_eq!(
            tree.stats().pages,
            grown_pages,
            "inserts after deletes must recycle the free pages"
        );
        assert_audit_clean(&tree);
    }

    #[test]
    fn deletes_merge_and_borrow_under_random_churn() {
        // Random insert/delete churn against a BTreeMap oracle, with
        // structural invariants re-checked along the way. Key lengths vary so
        // separator replacement paths with differently sized keys run too.
        let mut tree = PagedBTree::create(BufferPool::in_memory(64)).unwrap();
        let mut oracle = std::collections::BTreeMap::new();
        let mut state = 0x5EEDu64;
        let mut step = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for round in 0..6_000u32 {
            let i = (step() % 900) as u32;
            let k = if i.is_multiple_of(3) {
                format!("{:0width$}", i, width = 8 + (i % 40) as usize).into_bytes()
            } else {
                key(i)
            };
            if step() % 3 == 0 {
                assert_eq!(tree.delete(&k).unwrap(), oracle.remove(&k), "round {round}");
            } else {
                let v = val(i);
                assert_eq!(
                    tree.insert(k.clone(), v.clone()).unwrap(),
                    oracle.insert(k, v),
                    "round {round}"
                );
            }
            if round % 500 == 0 {
                assert_audit_clean(&tree);
            }
        }
        assert_audit_clean(&tree);
        assert_eq!(tree.len() as usize, oracle.len());
        let scanned: Vec<_> = tree.iter().unwrap().map(Result::unwrap).collect();
        let expected: Vec<_> = oracle.into_iter().collect();
        assert_eq!(scanned, expected);
    }

    #[test]
    fn large_entries_force_splits_then_merges_at_tiny_fanout() {
        // Long keys leave room for only ~4 cells per page in leaves *and*
        // internal nodes, so every structural path (leaf and internal splits,
        // merges, borrows, root collapse) runs within a few dozen keys.
        let big_key = |i: u32| {
            let mut k = format!("key-{i:08}").into_bytes();
            k.resize(MAX_ENTRY_SIZE - 80, b'.');
            k
        };
        let big_val = vec![0xABu8; 16];
        let mut tree = PagedBTree::create(BufferPool::in_memory(64)).unwrap();
        let n = 48u32;
        for i in 0..n {
            tree.insert(big_key(i), big_val.clone()).unwrap();
        }
        assert!(
            tree.height() >= 3,
            "4-entry pages must grow several levels, got height {}",
            tree.height()
        );
        assert_audit_clean(&tree);
        for i in (0..n).rev() {
            assert_eq!(tree.delete(&big_key(i)).unwrap().as_ref(), Some(&big_val));
            assert_audit_clean(&tree);
        }
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
    }

    #[test]
    fn mutations_persist_across_flush_and_reopen() {
        // Crash consistency of the writeback path: after inserts, deletes
        // (with merges and freed pages) and a flush, reopening the file sees
        // exactly the committed keys and derives the freed pages.
        let dir = std::env::temp_dir().join(format!("pathix-pbt-mut-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mutated.pages");
        let n = 2_000u32;
        {
            let pool = BufferPool::new(crate::DiskManager::create(&path).unwrap(), 16);
            let mut tree = PagedBTree::bulk_load(pool, (0..n).map(|i| (key(i), val(i)))).unwrap();
            for i in 0..200u32 {
                tree.insert(key(n + i), val(n + i)).unwrap();
            }
            for i in (0..n).step_by(2) {
                tree.delete(&key(i)).unwrap();
            }
            tree.flush().unwrap();
        }
        {
            let pool = BufferPool::new(crate::DiskManager::open(&path).unwrap(), 16);
            let mut tree = PagedBTree::open(pool).unwrap();
            assert_eq!(tree.len() as u32, n / 2 + 200);
            for i in 0..n + 200 {
                let expected = if i < n && i % 2 == 0 {
                    None
                } else {
                    Some(val(i))
                };
                assert_eq!(tree.get(&key(i)).unwrap(), expected, "key {i}");
            }
            assert_audit_clean(&tree);
            // The derived free pages are usable after reopen.
            let pages_before = tree.stats().pages;
            let freed = tree.free_page_count();
            if freed > 0 {
                tree.insert(key(n + 200), val(n + 200)).unwrap();
                assert!(tree.stats().pages <= pages_before);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shares_observe_committed_state_and_pin_metadata() {
        let mut tree = PagedBTree::create(BufferPool::in_memory(32)).unwrap();
        for i in 0..100u32 {
            tree.insert(key(i), val(i)).unwrap();
        }
        let share = tree.share();
        assert_eq!(share.len(), 100);
        assert_eq!(share.get(&key(42)).unwrap(), Some(val(42)));
        assert_eq!(share.iter().unwrap().count(), 100);
        // The share pins the entry count it was taken at even as the original
        // keeps mutating (the pages themselves are shared).
        tree.insert(key(100), val(100)).unwrap();
        assert_eq!(share.len(), 100);
        assert_eq!(tree.len(), 101);
        let fresh = tree.share();
        assert_eq!(fresh.len(), 101);
        assert_eq!(fresh.get(&key(100)).unwrap(), Some(val(100)));
    }

    #[test]
    fn snapshots_are_isolated_under_heavy_churn() {
        let mut tree = PagedBTree::create(BufferPool::in_memory(64)).unwrap();
        for i in 0..1_500u32 {
            tree.insert(key(i), val(i)).unwrap();
        }
        let snapshot = tree.share();
        let frozen: Vec<_> = snapshot.iter().unwrap().map(Result::unwrap).collect();
        assert_eq!(frozen.len(), 1_500);

        // Heavy churn: overwrites, deletions (merges, borrows, root
        // collapse) and fresh inserts.
        for i in 0..1_500u32 {
            if i % 3 == 0 {
                tree.delete(&key(i)).unwrap();
            } else {
                tree.insert(key(i), format!("v2-{i}").into_bytes()).unwrap();
            }
        }
        for i in 1_500..1_800u32 {
            tree.insert(key(i), val(i)).unwrap();
        }
        assert_audit_clean(&tree);

        // The snapshot is bit-stable: same keys, same values, same order.
        let again: Vec<_> = snapshot.iter().unwrap().map(Result::unwrap).collect();
        assert_eq!(again, frozen, "snapshot content drifted under churn");
        assert_eq!(snapshot.get(&key(3)).unwrap(), Some(val(3)));
        assert_audit_clean(&snapshot);

        let stats = tree.cow_stats();
        assert!(stats.page_copies > 0, "churn must copy-on-write: {stats:?}");
        assert!(stats.pages_retired > 0, "{stats:?}");
        assert_eq!(stats.live_snapshots, 1, "{stats:?}");
    }

    #[test]
    fn retired_pages_reclaim_once_snapshots_die() {
        let mut tree = PagedBTree::create(BufferPool::in_memory(64)).unwrap();
        for i in 0..800u32 {
            tree.insert(key(i), val(i)).unwrap();
        }
        let snapshot = tree.share();
        for i in 0..800u32 {
            tree.insert(key(i), format!("v2-{i}").into_bytes()).unwrap();
        }
        let pending = tree.cow_stats().retired_pending;
        assert!(pending > 0, "overwrites under a snapshot must retire pages");
        assert_eq!(tree.cow_stats().pages_reclaimed, 0);

        drop(snapshot);
        // The next allocations drain the retired list back into the free
        // list; steady-state churn then reuses pages instead of growing the
        // store.
        tree.flush().unwrap();
        let stats = tree.cow_stats();
        assert_eq!(stats.retired_pending, 0, "{stats:?}");
        assert_eq!(stats.pages_reclaimed, stats.pages_retired, "{stats:?}");
        assert_eq!(stats.live_snapshots, 0);
        let pages_before = tree.stats().pages;
        for round in 0..3 {
            for i in 0..800u32 {
                tree.insert(key(i), format!("v{round}-{i}").into_bytes())
                    .unwrap();
            }
        }
        assert_eq!(
            tree.stats().pages,
            pages_before,
            "in-place churn without snapshots must not grow the store"
        );
        assert_audit_clean(&tree);
    }

    #[test]
    fn every_snapshot_pins_its_own_epoch() {
        let mut tree = PagedBTree::create(BufferPool::in_memory(64)).unwrap();
        for i in 0..300u32 {
            tree.insert(key(i), val(i)).unwrap();
        }
        let snap_a = tree.share();
        for i in 300..600u32 {
            tree.insert(key(i), val(i)).unwrap();
        }
        let snap_b = tree.share();
        for i in 0..600u32 {
            tree.delete(&key(i)).unwrap();
        }
        assert!(tree.is_empty());
        assert_eq!(snap_a.iter().unwrap().count(), 300);
        assert_eq!(snap_b.iter().unwrap().count(), 600);
        assert_eq!(tree.cow_stats().live_snapshots, 2);

        // Dropping the older snapshot frees its exclusive pages but leaves
        // the newer one untouched.
        drop(snap_a);
        tree.insert(key(9_999), val(9_999)).unwrap();
        let still: Vec<_> = snap_b.iter().unwrap().map(Result::unwrap).collect();
        assert_eq!(still.len(), 600);
        assert!(still.iter().all(|(k, _)| k != &key(9_999)));
        assert_eq!(tree.cow_stats().live_snapshots, 1);
    }

    #[test]
    fn a_reopen_hands_out_every_page_a_dropped_writer_released() {
        let dir = std::env::temp_dir().join(format!("pathix-pbt-drop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("drop-reclaim.pages");
        let released = {
            let pool = BufferPool::new(crate::DiskManager::create(&path).unwrap(), 16);
            let mut tree =
                PagedBTree::bulk_load(pool, (0..600u32).map(|i| (key(i), val(i)))).unwrap();
            let snapshot = tree.share();
            for i in 0..600u32 {
                tree.insert(key(i), format!("v2-{i}").into_bytes()).unwrap();
            }
            tree.flush().unwrap();
            // The snapshot still pins the old pages at flush time, and it
            // dies before the writer, which is dropped without another flush.
            assert!(tree.cow_stats().retired_pending > 0);
            drop(snapshot);
            tree.free_page_count() + tree.retired_page_count()
        };
        let pool = BufferPool::new(crate::DiskManager::open(&path).unwrap(), 16);
        let mut tree = PagedBTree::open(pool).unwrap();
        assert_audit_clean(&tree);
        assert_eq!(
            tree.free_page_count(),
            released,
            "the free and the still-retired pages are all free on reopen"
        );
        let pages = tree.stats().pages;
        tree.insert(key(9_000), val(9_000)).unwrap();
        assert_eq!(tree.stats().pages, pages, "reopen must reuse freed pages");
        assert_audit_clean(&tree);
        std::fs::remove_file(&path).ok();
    }

    /// Internal pages of the subtree rooted at `pid` at `level` (1 = leaf).
    fn internal_pages(tree: &PagedBTree, pid: PageId, level: u32) -> usize {
        if level == 1 {
            return 0;
        }
        let (cells, leftmost) = tree.read_internal(pid).unwrap();
        let children = std::iter::once(leftmost).chain(cells.into_iter().map(|(_, c)| c));
        1 + children
            .map(|child| internal_pages(tree, child, level - 1))
            .sum::<usize>()
    }

    #[test]
    fn open_derives_the_free_set_from_the_internal_pages_and_writes_nothing() {
        let dir = std::env::temp_dir().join(format!("pathix-pbt-derive-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("derive.pages");
        // Values wide enough for a tree of three levels.
        let wide = |i: u32| format!("{i:0>300}").into_bytes();
        let pool = BufferPool::new(crate::DiskManager::create(&path).unwrap(), 16);
        let mut tree =
            PagedBTree::bulk_load(pool, (0..3_000u32).map(|i| (key(i), wide(i)))).unwrap();
        tree.flush().unwrap();
        tree.enable_durable_writeback();
        let snapshot = tree.share();
        for round in 0..4u32 {
            for i in (round..3_000).step_by(5) {
                tree.delete(&key(i)).unwrap();
            }
            for i in 0..200 {
                let n = 3_000 + round * 200 + i;
                tree.insert(key(n), wide(n)).unwrap();
            }
            tree.set_root_blob(vec![round as u8; 2 * PAGE_SIZE]);
            tree.flush().unwrap();
        }
        let scan = |t: &PagedBTree| t.iter().unwrap().map(Result::unwrap).collect::<Vec<_>>();
        let flushed = scan(&tree);
        // Abandoned: no close, no flush, the snapshot still alive.
        std::mem::forget(snapshot);
        std::mem::forget(tree);

        let pool = BufferPool::new(crate::DiskManager::open(&path).unwrap(), 16);
        let mut tree = PagedBTree::open(pool).unwrap();
        let opened = tree.pool().stats();
        let internal = internal_pages(&tree, tree.root, tree.height);
        let blob = tree.blob_pages.len();
        assert!(internal > 1 && blob == 2, "{internal}, {blob}");
        assert_eq!(opened.misses, 1 + (internal + blob) as u64, "{opened:?}");
        assert_eq!((opened.write_backs, opened.read_ahead_pages), (0, 0));
        let mut reachable = HashSet::new();
        tree.reachable_pages(tree.root, tree.height, &mut reachable)
            .unwrap();
        let num_pages = tree.stats().pages as usize;
        assert_eq!(
            tree.free_page_count(),
            num_pages - 1 - reachable.len() - blob
        );
        assert!(tree.free_page_count() > 0, "churn must leave free pages");
        assert!(
            scan(&tree) == flushed,
            "the reopened tree is the flushed one"
        );
        assert_audit_clean(&tree);

        // The next batch takes the lowest free ids and does not grow the
        // file (inserts free no page of their own).
        tree.enable_durable_writeback();
        let before = tree.free.clone();
        for i in 0..300u32 {
            tree.insert(key(10_000 + i), val(i)).unwrap();
        }
        let taken: Vec<u32> = before.difference(&tree.free).copied().collect();
        assert!(!taken.is_empty());
        assert!(before.iter().take(taken.len()).eq(&taken), "{taken:?}");
        assert_eq!(tree.stats().pages as usize, num_pages);
        tree.flush().unwrap();
        assert_audit_clean(&tree);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn on_disk_snapshots_survive_eviction_pressure() {
        // A 3-frame pool over a file: the snapshot's pages are constantly
        // evicted and re-read from disk while the writer churns — the
        // re-read bytes must still be the snapshot's version.
        let dir = std::env::temp_dir().join(format!("pathix-pbt-cow-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cow.pages");
        {
            let pool = BufferPool::new(crate::DiskManager::create(&path).unwrap(), 3);
            let mut tree =
                PagedBTree::bulk_load(pool, (0..1_000u32).map(|i| (key(i), val(i)))).unwrap();
            let snapshot = tree.share();
            let frozen: Vec<_> = snapshot.iter().unwrap().map(Result::unwrap).collect();
            for i in (0..1_000u32).step_by(2) {
                tree.delete(&key(i)).unwrap();
            }
            for i in 1_000..1_200u32 {
                tree.insert(key(i), val(i)).unwrap();
            }
            tree.flush().unwrap();
            let again: Vec<_> = snapshot.iter().unwrap().map(Result::unwrap).collect();
            assert_eq!(again, frozen, "snapshot pages changed on disk");
            assert_eq!(tree.len(), 700);
            assert_audit_clean(&tree);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn persists_across_flush_and_reopen() {
        let dir = std::env::temp_dir().join(format!("pathix-pbt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tree.pages");
        let n = 1_200u32;
        {
            let pool = BufferPool::new(crate::DiskManager::create(&path).unwrap(), 16);
            let mut tree = PagedBTree::bulk_load(pool, (0..n).map(|i| (key(i), val(i)))).unwrap();
            tree.flush().unwrap();
        }
        {
            let pool = BufferPool::new(crate::DiskManager::open(&path).unwrap(), 16);
            let tree = PagedBTree::open(pool).unwrap();
            assert_eq!(tree.len(), n as u64);
            assert_eq!(tree.get(&key(777)).unwrap(), Some(val(777)));
            assert_eq!(tree.iter().unwrap().count(), n as usize);
            assert_audit_clean(&tree);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn range_scans_read_ahead_upcoming_leaves() {
        // More leaves than frames: the scan's read-ahead must stage pages
        // (counted separately) and the results must stay exact.
        let pairs: Vec<_> = (0..4_000u32).map(|i| (key(i), val(i))).collect();
        let tree = PagedBTree::bulk_load(BufferPool::in_memory(16), pairs).unwrap();
        assert!(tree.height() >= 2);
        tree.pool().reset_stats();
        assert_eq!(tree.iter().unwrap().count(), 4_000);
        let stats = tree.pool().stats();
        assert!(stats.read_ahead_pages > 0, "{stats:?}");
        // Read-ahead turned leaf loads into hits: demand misses stay below
        // the number of leaves visited.
        assert!(stats.hits > stats.misses, "{stats:?}");
    }

    #[test]
    fn open_rejects_non_tree_files() {
        let pool = BufferPool::in_memory(4);
        pool.allocate_page().unwrap();
        assert!(PagedBTree::open(pool).is_err());
        // A root that is no internal node although the height says so.
        let pairs = (0..2_000u32).map(|i| (key(i), val(i)));
        let tree = PagedBTree::bulk_load(BufferPool::in_memory(16), pairs).unwrap();
        let leaf = |p: &mut [u8]| slotted::init(p, slotted::KIND_LEAF);
        tree.pool.with_page_mut(tree.root, leaf).unwrap();
        let err = PagedBTree::open(tree.pool.clone()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn small_buffer_pool_still_serves_large_trees() {
        // The tree is much larger than the 4-frame pool: every descent causes
        // misses, but results stay correct.
        let pairs: Vec<_> = (0..4_000u32).map(|i| (key(i), val(i))).collect();
        let tree = PagedBTree::bulk_load(BufferPool::in_memory(4), pairs).unwrap();
        for i in (0..4_000u32).step_by(173) {
            assert_eq!(tree.get(&key(i)).unwrap(), Some(val(i)));
        }
        let stats = tree.pool().stats();
        assert!(stats.evictions > 0);
        assert!(
            stats.misses > stats.hits / 100,
            "pool is too small to mostly hit"
        );
    }

    /// The auditor finds nothing wrong with `tree`.
    fn assert_audit_clean(tree: &PagedBTree) {
        assert_eq!(violated(tree), Vec::<&str>::new());
    }

    /// Names of the invariants a full audit of `tree` finds violated.
    fn violated(tree: &PagedBTree) -> Vec<&'static str> {
        let mut report = AuditReport::new();
        report.run("paged-btree", tree);
        report.violations().iter().map(|v| v.invariant).collect()
    }

    #[test]
    fn audit_is_clean_through_snapshot_and_free_list_churn() {
        let mut tree = PagedBTree::create(BufferPool::in_memory(64)).unwrap();
        for i in 0..2_000u32 {
            tree.insert(key(i), val(i)).unwrap();
        }
        for i in (0..2_000u32).step_by(3) {
            tree.delete(&key(i)).unwrap();
        }
        let mut report = AuditReport::new();
        report.run("paged-btree", &tree);
        report.assert_clean("after delete churn");

        let snapshot = tree.share();
        for i in 2_000..2_600u32 {
            tree.insert(key(i), val(i)).unwrap();
        }
        assert!(tree.retired_page_count() > 0, "CoW must retire pages");
        let mut report = AuditReport::new();
        report.run("paged-btree", &tree);
        report.run("paged-btree-snapshot", &snapshot);
        report.assert_clean("with a live snapshot");
        assert!(report.checks() > 0);

        drop(snapshot);
        tree.flush().unwrap();
        let mut report = AuditReport::new();
        report.run("paged-btree", &tree);
        report.assert_clean("after reclaim");
    }

    #[test]
    fn seeded_corruption_trips_the_page_auditors() {
        let build = || {
            let mut tree = PagedBTree::create(BufferPool::in_memory(64)).unwrap();
            for i in 0..1_200u32 {
                tree.insert(key(i), val(i)).unwrap();
            }
            tree
        };
        assert!(violated(&build()).is_empty(), "baseline tree must be clean");

        // Leaf keys out of order.
        let tree = build();
        let (leaf, _) = tree.descend(&key(0)).unwrap();
        let mut entries = tree.read_leaf(leaf).unwrap();
        entries.swap(0, 1);
        tree.write_leaf(leaf, &entries).unwrap();
        assert!(violated(&tree).contains(&"leaf-sorted"));

        // Meta entry count drifts from what the leaves hold.
        let mut tree = build();
        tree.entries += 1;
        assert!(violated(&tree).contains(&"entry-count"));

        // A page still reachable from the writer marked retired.
        let mut tree = build();
        tree.retired.push((tree.epoch, tree.root));
        assert!(violated(&tree).contains(&"retired-unreachable"));

        // A page the snapshot still reads, backdated so the reclaimer would
        // free it out from under the pin.
        let mut tree = build();
        let snapshot = tree.share();
        let pin_epoch = tree.epoch - 1;
        for i in 1_200..1_400u32 {
            tree.insert(key(i), val(i)).unwrap();
        }
        assert!(tree.retired_page_count() > 0, "CoW must retire pages");
        for entry in tree.retired.iter_mut() {
            if entry.1 == snapshot.root {
                entry.0 = pin_epoch;
            }
        }
        assert!(violated(&tree).contains(&"snapshot-retired-disjoint"));
    }

    /// A tree whose deletes freed pages, the seed of the free-set auditors.
    fn tree_with_free_pages() -> PagedBTree {
        let mut tree = PagedBTree::create(BufferPool::in_memory(64)).unwrap();
        for i in 0..1_200u32 {
            tree.insert(key(i), val(i)).unwrap();
        }
        for i in 0..600u32 {
            tree.delete(&key(i)).unwrap();
        }
        assert!(tree.free_page_count() > 0, "deletes must free pages");
        assert!(violated(&tree).is_empty(), "baseline tree must be clean");
        tree
    }

    #[test]
    fn seeded_corruption_a_free_id_past_the_file_trips_free_list_wellformed() {
        let mut tree = tree_with_free_pages();
        tree.free.insert(tree.pool.num_pages());
        assert_eq!(violated(&tree), ["free-list-wellformed"]);
        // The meta page is no free page either.
        let mut tree = tree_with_free_pages();
        tree.free.insert(0);
        assert_eq!(violated(&tree), ["free-list-wellformed"]);
    }

    #[test]
    fn seeded_corruption_the_root_in_the_free_set_trips_free_reachable_disjoint() {
        let mut tree = tree_with_free_pages();
        tree.free.insert(tree.root.0);
        assert_eq!(violated(&tree), ["free-reachable-disjoint"]);
    }

    #[test]
    fn the_root_blob_persists_with_its_root_in_and_past_the_meta_page() {
        let dir = std::env::temp_dir().join(format!("pathix-pbt-blob-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob.pages");
        let blob = |len: usize| (0..len).map(|i| (i * 7 % 251) as u8).collect::<Vec<u8>>();
        let in_meta = PAGE_SIZE - META_OFF_BLOB;
        let per_page = PAGE_SIZE - slotted::HEADER_SIZE;
        let pool = BufferPool::new(crate::DiskManager::create(&path).unwrap(), 16);
        let mut tree = PagedBTree::bulk_load(pool, (0..500u32).map(|i| (key(i), val(i)))).unwrap();
        tree.flush().unwrap();
        tree.enable_durable_writeback();
        let mut peak_pages = 0;
        // Empty, in the meta page, exactly full, one byte over, several blob
        // pages, and back into the meta page.
        for (round, len) in [0, 100, in_meta, in_meta + 1, in_meta + 3 * per_page, 50]
            .into_iter()
            .enumerate()
        {
            let n = 500 + round as u32;
            tree.insert(key(n), val(n)).unwrap();
            tree.set_root_blob(blob(len));
            tree.flush().unwrap();
            assert_eq!(
                tree.blob_pages.len(),
                (len.saturating_sub(in_meta)).div_ceil(per_page)
            );
            assert_audit_clean(&tree);
            let pool = BufferPool::new(crate::DiskManager::open(&path).unwrap(), 16);
            let reopened = PagedBTree::open(pool).unwrap();
            assert_eq!(reopened.root_blob(), blob(len), "{len} bytes");
            assert_eq!(reopened.blob_pages, tree.blob_pages);
            assert_eq!(reopened.len(), tree.len());
            // The pages the durable pin retired are free in the reopened
            // tree.
            assert_audit_clean(&reopened);
            peak_pages = peak_pages.max(tree.stats().pages);
        }
        // Superseded chains are recycled, not leaked: rewriting the largest
        // blob again and again stays within the pages already allocated.
        for _ in 0..4 {
            tree.set_root_blob(blob(in_meta + 3 * per_page));
            tree.flush().unwrap();
        }
        assert!(
            tree.stats().pages <= peak_pages + 4,
            "{}",
            tree.stats().pages
        );
        assert_audit_clean(&tree);
        drop(tree);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_broken_blob_chain_is_refused_on_open_and_trips_the_auditor() {
        let dir = std::env::temp_dir().join(format!("pathix-pbt-chain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chain.pages");
        let pool = BufferPool::new(crate::DiskManager::create(&path).unwrap(), 16);
        let mut tree = PagedBTree::create(pool).unwrap();
        tree.set_root_blob(vec![9; 2 * PAGE_SIZE]);
        tree.flush().unwrap();
        let link = tree.blob_pages[0];
        assert_audit_clean(&tree);

        // A link that is no blob page: the auditor names it…
        tree.pool
            .with_page_mut(link, |p| slotted::init(p, slotted::KIND_LEAF))
            .unwrap();
        assert!(violated(&tree).contains(&"blob-chain"));
        drop(tree);
        let file = std::fs::read(&path).unwrap();
        let reopen = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            let pool = BufferPool::new(crate::DiskManager::open(&path).unwrap(), 16);
            PagedBTree::open(pool).map(|_| ()).unwrap_err().kind()
        };
        // …and open refuses the file, as it does a chain that ends early or
        // runs on past the recorded length.
        let mut bytes = file.clone();
        let at = link.0 as usize * PAGE_SIZE;
        bytes[at..at + 2].copy_from_slice(&slotted::KIND_LEAF.to_le_bytes());
        assert_eq!(reopen(&bytes), io::ErrorKind::InvalidData);
        let mut bytes = file.clone();
        bytes[META_OFF_BLOB_LEN..META_OFF_BLOB_LEN + 4]
            .copy_from_slice(&(4 * PAGE_SIZE as u32).to_le_bytes());
        assert_eq!(reopen(&bytes), io::ErrorKind::InvalidData);
        let mut bytes = file;
        bytes[META_OFF_BLOB_LEN..META_OFF_BLOB_LEN + 4].copy_from_slice(&10u32.to_le_bytes());
        assert_eq!(reopen(&bytes), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seeded_corruption_trips_scan_ascending() {
        let pairs: Vec<_> = (0..1_200u32).map(|i| (key(i), val(i))).collect();
        let tree = PagedBTree::bulk_load(BufferPool::in_memory(64), pairs).unwrap();
        assert!(tree.height() >= 2);
        assert!(violated(&tree).is_empty(), "baseline tree must be clean");

        // The root routes two ordinals to the same leaf: the tree walk refuses
        // to enter the alias, but the cursor scans are served from reads it
        // twice — its second visit restarts below the keys already yielded.
        let (mut cells, leftmost) = tree.read_internal(tree.root).unwrap();
        assert!(cells.len() >= 2);
        cells[1].1 = cells[0].1;
        tree.write_internal(tree.root, &cells, leftmost).unwrap();
        let names = violated(&tree);
        assert!(names.contains(&"scan-ascending"), "{names:?}");
        let keys: Vec<_> = tree.iter().unwrap().map(|e| e.unwrap().0).collect();
        assert!(keys.windows(2).any(|w| w[0] >= w[1]));
    }
}
