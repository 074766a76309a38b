//! A disk-resident k-path index: `I_{G,k}` stored in a [`PagedBTree`].
//!
//! This is the paged counterpart of [`pathix_index::SharedKPathIndex`] and the
//! B+tree of the paper's §3.1: the same search key
//! `⟨label path, sourceID, targetID⟩` and the same three lookup shapes
//! (Example 3.1 of the paper), but entries live in buffer-pool pages so the
//! index can be (much) larger than memory and its I/O behaviour can be
//! measured — the questions studied by the companion work the paper cites
//! (ref. \[14\]).
//!
//! The index implements [`PathIndexBackend`], so the whole query pipeline
//! (`pathix-exec` operators, every `pathix-plan` strategy, `PathDb`) runs
//! directly against it; scans decode one leaf page at a time straight into
//! the caller's batch and surface I/O errors as [`BackendError`]s instead of
//! materializing or panicking.
//!
//! The index is also **mutable** ([`MutablePathIndexBackend`]): the key
//! transitions of a live update batch — computed once, backend-agnostically,
//! by [`pathix_index::apply_op`], which walks the graph epochs around each
//! update and logs its transitions in key order — are replayed as B+tree key
//! inserts and deletes (page splits, merges and free-page recycling
//! included) and written back through the buffer pool, so an on-disk index
//! stays durable across batches. Entries are bare keys: the tree stores no
//! value with them.
//!
//! Recovery has no write path of its own: the log holds batches, not their
//! key transitions, and the opener rederives each record the tree has not
//! absorbed (its seq is above [`PagedPathIndex::applied_seq`]) and hands
//! the result to the same [`MutablePathIndexBackend::apply_delta_batch`] a
//! live apply calls, durable flush included.
//!
//! The per-path tally — the entry count of every indexed path, the paper's
//! stored k-path histogram of §3.2 — is kept exact by every key the tree
//! gains or loses and is persisted as the tree's root blob, in the same
//! flush as the root it describes (see the [`crate::btree`] module docs).
//! Opening therefore reads the meta page and the internal pages, never a
//! leaf; the structural audit's full-scan recount is the one check that the
//! stored tally matches the stored keys.

use crate::btree::{LeafCursor, PagedBTree, PagedTreeStats};
use crate::buffer::{BufferPool, PoolStats};
use crate::disk::DiskManager;
use pathix_audit::{AuditReport, StructuralAudit};
use pathix_graph::{Graph, NodeId, SignedLabel};
use pathix_index::backend::{
    check_scan_path, BackendBatchScan, BackendError, BackendResult, BackendStats, BatchScan,
    DeltaBatch, EntryChange, MutablePathIndexBackend, PairBatch, PathIndexBackend,
};
use pathix_index::enumerate_paths;
use pathix_index::pathkey::{
    decode_entry, decode_pair, encode_entry, encode_path_prefix, encode_path_source_prefix,
};
use std::collections::BTreeMap;
use std::io;

/// Construction and size statistics of a [`PagedPathIndex`].
#[derive(Debug, Clone, Copy)]
pub struct PagedIndexStats {
    /// Locality parameter k.
    pub k: usize,
    /// Number of `⟨p, a, b⟩` entries (pairs summed over all paths).
    pub entries: u64,
    /// Number of distinct label paths indexed.
    pub paths: usize,
    /// B+tree shape (pages, height, bytes on disk).
    pub tree: PagedTreeStats,
}

/// The k-path index stored on pages behind a buffer pool.
#[derive(Debug)]
pub struct PagedPathIndex {
    k: usize,
    node_count: usize,
    /// Entries per path, kept in step with the tree by every key the tree
    /// gains or loses (see [`PagedPathIndex::write_changes`]).
    per_path_counts: Vec<(Vec<SignedLabel>, u64)>,
    tree: PagedBTree,
}

impl PagedPathIndex {
    /// Builds the index for `graph` with locality `k` into a fresh in-memory
    /// page store with `pool_frames` buffer frames.
    pub fn build_in_memory(graph: &Graph, k: usize, pool_frames: usize) -> io::Result<Self> {
        Self::build(
            graph,
            k,
            BufferPool::new(DiskManager::in_memory(), pool_frames),
        )
    }

    /// Builds the index for `graph` with locality `k` into a page file at
    /// `path` (created or truncated) with `pool_frames` buffer frames.
    ///
    /// On-disk indexes come up in **durable writeback** mode: the tree keeps a
    /// standing snapshot pin on the last flushed root, so every later batch
    /// copy-on-writes its pages and a crash mid-writeback always leaves one
    /// complete tree on disk (see [`PagedBTree::enable_durable_writeback`]).
    pub fn build_on_disk<P: AsRef<std::path::Path>>(
        graph: &Graph,
        k: usize,
        path: P,
        pool_frames: usize,
    ) -> io::Result<Self> {
        let mut index = Self::build(
            graph,
            k,
            BufferPool::new(DiskManager::create(path)?, pool_frames),
        )?;
        index.tree.enable_durable_writeback();
        Ok(index)
    }

    /// Builds the index into the given (empty) buffer pool.
    pub fn build(graph: &Graph, k: usize, pool: BufferPool) -> io::Result<Self> {
        // Relations carry no duplicate pairs, and keys of different paths
        // never collide — entries only need one global sort for bulk_load's
        // key-order contract.
        let relations = enumerate_paths(graph, k);
        let mut per_path_counts = Vec::with_capacity(relations.len());
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for rel in &relations {
            per_path_counts.push((rel.path.clone(), rel.pairs.len() as u64));
            for &(a, b) in &rel.pairs {
                entries.push((encode_entry(&rel.path, a, b), Vec::new()));
            }
        }
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut index = PagedPathIndex {
            k,
            node_count: graph.node_count(),
            per_path_counts,
            tree: PagedBTree::bulk_load(pool, entries)?,
        };
        index.flush()?;
        Ok(index)
    }

    /// Opens a previously built (and possibly crash-interrupted) index from
    /// the page file at `path`.
    ///
    /// [`PagedBTree::open`] serves a clean and a crashed file alike: it
    /// reads the meta page and the internal pages, derives the free pages as
    /// every page the root and its blob do not reach, and writes nothing.
    /// Durable writeback is re-enabled, and the per-path cardinalities are
    /// decoded from the root blob the last flush wrote beside the root — no
    /// leaf is read. A malformed tally is `InvalidData`; `node_count` must
    /// come from the recovered graph the index belongs to.
    pub fn open<P: AsRef<std::path::Path>>(
        path: P,
        k: usize,
        pool_frames: usize,
        node_count: usize,
    ) -> io::Result<Self> {
        let pool = BufferPool::new(DiskManager::open(path)?, pool_frames);
        let mut tree = PagedBTree::open(pool)?;
        tree.enable_durable_writeback();
        Ok(PagedPathIndex {
            k,
            node_count,
            per_path_counts: decode_counts(tree.root_blob())?,
            tree,
        })
    }

    /// Flushes the tree with the tally that describes it as its root blob,
    /// so a reopen reads the counts instead of recounting the entries.
    fn flush(&mut self) -> io::Result<()> {
        self.tree
            .set_root_blob(encode_counts(&self.per_path_counts));
        self.tree.flush()
    }

    /// Replays a batch's key transitions as B+tree inserts and deletes in
    /// key order, one write per key for its net change: what a batch writes
    /// to which pages then follows from its keys, not from the order the log
    /// happened to record them in. A key's transitions alternate, so a key
    /// whose first and last transition differ (added and removed again, or
    /// removed and added back) ends where it started and writes no page.
    ///
    /// The per-path cardinalities follow the tree: a path gains an entry
    /// when an insert finds no previous key and loses one when a delete
    /// finds one, so they stay exact without a rescan. Fails with
    /// `InvalidData` on a key that is no `⟨p, a, b⟩` entry.
    fn write_changes(&mut self, changes: &[(Vec<u8>, EntryChange)]) -> io::Result<()> {
        let mut net: BTreeMap<&[u8], (EntryChange, EntryChange)> = BTreeMap::new();
        for (key, change) in changes {
            net.entry(key)
                .and_modify(|(_, last)| *last = *change)
                .or_insert((*change, *change));
        }
        for (key, (first, last)) in net {
            if first != last {
                continue;
            }
            let Some((path, _, _)) = decode_entry(key) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "logged key of {} byte(s) is not a ⟨path, source, target⟩ entry",
                        key.len()
                    ),
                ));
            };
            let slot = self
                .per_path_counts
                .binary_search_by(|(p, _)| (p.len(), p.as_slice()).cmp(&(path.len(), &path[..])));
            match last {
                EntryChange::Removed => {
                    if self.tree.delete(key)?.is_some() {
                        let Ok(i) = slot else {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!(
                                    "deleted an entry of path {path:?}, which counts no entries"
                                ),
                            ));
                        };
                        self.per_path_counts[i].1 -= 1;
                        if self.per_path_counts[i].1 == 0 {
                            self.per_path_counts.remove(i);
                        }
                    }
                }
                EntryChange::Added => {
                    if self.tree.insert(key.to_vec(), Vec::new())?.is_none() {
                        match slot {
                            Ok(i) => self.per_path_counts[i].1 += 1,
                            Err(i) => self.per_path_counts.insert(i, (path, 1)),
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Flushes the index for the last time; the handle must not be mutated
    /// afterwards. Dropping an index performs no I/O, so errors surface here
    /// (and set the sticky [`PagedPathIndex::flush_failed`] flag).
    pub fn close(&mut self) -> io::Result<()> {
        self.flush()
    }

    /// `true` once any flush of the backing tree has failed.
    pub fn flush_failed(&self) -> bool {
        self.tree.flush_failed()
    }

    /// Sequence number of the last durably applied update batch (0 =
    /// bulk-built, never updated).
    pub fn applied_seq(&self) -> u64 {
        self.tree.applied_seq()
    }

    /// A fully isolated snapshot of the index: the structural metadata (tree
    /// root and entry count, per-path cardinalities) is copied at call time and the underlying [`PagedBTree::share`] pins the
    /// pages reachable from that root.
    ///
    /// This is the snapshot a live database publishes after each update
    /// batch; it costs O(paths), not O(index). The view stays bit-stable
    /// across *later* batches: the writer copy-on-writes any page the view
    /// can reach and only reclaims superseded pages once the view is dropped
    /// (see the [`crate::btree`] module docs).
    pub fn reader_view(&mut self) -> PagedPathIndex {
        PagedPathIndex {
            k: self.k,
            node_count: self.node_count,
            per_path_counts: self.per_path_counts.clone(),
            tree: self.tree.share(),
        }
    }

    /// The locality parameter k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of nodes of the indexed graph.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of `⟨p, a, b⟩` entries.
    pub fn len(&self) -> u64 {
        self.tree.len()
    }

    /// `true` when the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Index statistics (entries, paths, tree shape, bytes on disk).
    pub fn stats(&self) -> PagedIndexStats {
        PagedIndexStats {
            k: self.k,
            entries: self.tree.len(),
            paths: self.per_path_counts.len(),
            tree: self.tree.stats(),
        }
    }

    /// Buffer-pool cache statistics accumulated so far.
    pub fn pool_stats(&self) -> PoolStats {
        self.tree.pool().stats()
    }

    /// Copy-on-write and snapshot-reclamation counters of the backing tree
    /// (shared between the writer and every published reader view).
    pub fn cow_stats(&self) -> crate::btree::CowStats {
        self.tree.cow_stats()
    }

    /// Resets the buffer-pool counters (useful before measuring one query).
    pub fn reset_pool_stats(&self) {
        self.tree.pool().reset_stats()
    }

    /// `I_{G,k}(p)`: every pair connected by label path `p`, materialized in
    /// `(source, target)` order — the batch scan, drained.
    pub fn scan_path(&self, path: &[SignedLabel]) -> io::Result<Vec<(NodeId, NodeId)>> {
        let prefix = encode_path_prefix(path);
        let mut scan = PagedBatchScan::open(&self.tree, &prefix, prefix.len() + 8)?;
        let mut batch = PairBatch::new();
        let mut out = Vec::new();
        while scan.fill(&mut batch)? > 0 {
            out.extend(batch.iter());
        }
        Ok(out)
    }

    /// `I_{G,k}(p, a)`: targets reachable from `source` via `p`, in order —
    /// the same scan over the `⟨p, source⟩` prefix.
    pub fn scan_path_from(&self, path: &[SignedLabel], source: NodeId) -> io::Result<Vec<NodeId>> {
        let prefix = encode_path_source_prefix(path, source);
        let mut scan = PagedBatchScan::open(&self.tree, &prefix, prefix.len() + 4)?;
        let mut batch = PairBatch::new();
        let mut out = Vec::new();
        while scan.fill(&mut batch)? > 0 {
            out.extend_from_slice(batch.targets());
        }
        Ok(out)
    }

    /// `I_{G,k}(p, a, b)`: membership test.
    pub fn contains(
        &self,
        path: &[SignedLabel],
        source: NodeId,
        target: NodeId,
    ) -> io::Result<bool> {
        self.tree.contains_key(&encode_entry(path, source, target))
    }
}

/// Batched scan over the entries under one key prefix of a
/// [`PagedPathIndex`]: each leaf is read once, and its cells' `(source,
/// target)` key tails are decoded inside the pool's page access straight
/// into the caller's batch — no per-entry allocation.
struct PagedBatchScan<'a> {
    cursor: LeafCursor<'a>,
    /// Length of a well-formed entry key under the scanned path.
    key_len: usize,
    /// The pairs of the last leaf read that did not fit the caller's batch
    /// (at most one leaf's worth); `spill[spilled..]` leads the next batch.
    spill: Vec<(NodeId, NodeId)>,
    spilled: usize,
}

impl<'a> PagedBatchScan<'a> {
    /// Opens the scan over the keys that start with `prefix` — `⟨p⟩` or
    /// `⟨p, source⟩` of a path whose entry keys are `key_len` bytes long —
    /// and reads its first leaf.
    fn open(tree: &'a PagedBTree, prefix: &[u8], key_len: usize) -> io::Result<Self> {
        let mut scan = PagedBatchScan {
            cursor: tree.prefix_cursor(prefix)?,
            key_len,
            spill: Vec::new(),
            spilled: 0,
        };
        scan.read_leaf(None)?;
        Ok(scan)
    }

    /// Decodes the next leaf of the range into `batch` while it has room and
    /// into the (drained) spill columns after that. `false` when the range is
    /// exhausted. A key of the wrong length cannot appear in a tree we built,
    /// but a corrupted page file could produce one: it ends the scan with
    /// `InvalidData`.
    fn read_leaf(&mut self, mut batch: Option<&mut PairBatch>) -> io::Result<bool> {
        let (key_len, spill) = (self.key_len, &mut self.spill);
        spill.clear();
        self.spilled = 0;
        let visit = |key: &[u8], _: &[u8]| {
            if key.len() != key_len {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "malformed k-path index key",
                ));
            }
            match &mut batch {
                Some(batch) if !batch.is_full() => batch.push(decode_pair(key)),
                _ => spill.push(decode_pair(key)),
            }
            Ok(())
        };
        self.cursor
            .visit_leaf(visit)
            .inspect_err(|_| self.spill.clear())
    }

    /// [`BatchScan::next_batch`] with the I/O error intact.
    fn fill(&mut self, batch: &mut PairBatch) -> io::Result<usize> {
        batch.clear();
        let take = (self.spill.len() - self.spilled).min(batch.capacity());
        batch.extend_from_pairs(&self.spill[self.spilled..self.spilled + take]);
        self.spilled += take;
        while !batch.is_full() && self.read_leaf(Some(batch))? {}
        Ok(batch.len())
    }
}

impl BatchScan for PagedBatchScan<'_> {
    fn next_batch(&mut self, batch: &mut PairBatch) -> BackendResult<usize> {
        self.fill(batch).map_err(|e| BackendError::io("paged", &e))
    }
}

/// Structural audit: the backing [`PagedBTree`] audits its page graph (and,
/// on the writer, the page lifecycle), then the index layer re-derives the
/// per-path statistics from a full key scan and compares them with what the
/// backend advertises to the planner.
impl StructuralAudit for PagedPathIndex {
    fn audit(&self, report: &mut AuditReport) {
        self.tree.audit(report);

        let mut per_path: Vec<(Vec<SignedLabel>, u64)> = Vec::new();
        let mut undecodable = 0u64;
        let iter = match self.tree.iter() {
            Ok(iter) => iter,
            Err(e) => {
                report.violation("audit-io", "index-scan", e.to_string());
                return;
            }
        };
        for item in iter {
            let (key, _) = match item {
                Ok(entry) => entry,
                Err(e) => {
                    report.violation("audit-io", "index-scan", e.to_string());
                    return;
                }
            };
            match decode_entry(&key) {
                Some((path, _, _)) => match per_path.last_mut() {
                    Some((p, n)) if *p == path => *n += 1,
                    _ => per_path.push((path, 1)),
                },
                None => undecodable += 1,
            }
        }
        report.check("entry-decodable", "tree", undecodable == 0, || {
            format!("{undecodable} key(s) failed to decode as ⟨path, source, target⟩")
        });
        // Key order is `(length, path)` order — the order per_path_counts
        // must be in for `path_cardinality`'s binary search.
        report.check(
            "counts-consistent",
            "per_path_counts",
            per_path == self.per_path_counts,
            || {
                format!(
                    "advertised {} path(s) differ from the {} recounted by a full scan",
                    self.per_path_counts.len(),
                    per_path.len()
                )
            },
        );
    }
}

impl PathIndexBackend for PagedPathIndex {
    fn backend_name(&self) -> &'static str {
        "paged"
    }

    fn k(&self) -> usize {
        self.k
    }

    fn node_count(&self) -> usize {
        self.node_count
    }

    fn scan_path_batches(&self, path: &[SignedLabel]) -> BackendResult<BackendBatchScan<'_>> {
        check_scan_path(self.backend_name(), self.k, path)?;
        let prefix = encode_path_prefix(path);
        let scan = PagedBatchScan::open(&self.tree, &prefix, prefix.len() + 8)
            .map_err(|e| BackendError::io(self.backend_name(), &e))?;
        Ok(Box::new(scan))
    }

    fn scan_path_from(&self, path: &[SignedLabel], source: NodeId) -> BackendResult<Vec<NodeId>> {
        check_scan_path(self.backend_name(), self.k, path)?;
        PagedPathIndex::scan_path_from(self, path, source)
            .map_err(|e| BackendError::io(self.backend_name(), &e))
    }

    fn contains(
        &self,
        path: &[SignedLabel],
        source: NodeId,
        target: NodeId,
    ) -> BackendResult<bool> {
        check_scan_path(self.backend_name(), self.k, path)?;
        PagedPathIndex::contains(self, path, source, target)
            .map_err(|e| BackendError::io(self.backend_name(), &e))
    }

    fn per_path_counts(&self) -> &[(Vec<SignedLabel>, u64)] {
        &self.per_path_counts
    }

    fn stats(&self) -> BackendStats {
        let s = PagedPathIndex::stats(self);
        BackendStats {
            backend: self.backend_name(),
            k: s.k,
            entries: s.entries,
            distinct_paths: s.paths,
            approx_bytes: s.tree.bytes_on_disk,
        }
    }
}

impl MutablePathIndexBackend for PagedPathIndex {
    /// Replays the batch's key transitions as B+tree inserts and deletes
    /// (splitting, merging and recycling pages as needed), adopts the
    /// batch's node count and commit sequence number, and flushes every
    /// dirty page through the buffer pool so an on-disk index is durable up
    /// to the end of the batch.
    fn apply_delta_batch(&mut self, batch: &DeltaBatch<'_>) -> BackendResult<()> {
        let io_err = |e: &io::Error| BackendError::io("paged", e);
        self.write_changes(batch.deltas.ops())
            .map_err(|e| io_err(&e))?;
        self.node_count = batch.node_count;
        self.tree.set_applied_seq(batch.seq);
        self.flush().map_err(|e| io_err(&e))
    }
}

/// The per-path tally as a root blob: the number of rows (u32 LE), then for
/// each path in key order its key prefix `⟨p⟩` (see
/// [`pathix_index::pathkey`]) and its entry count (u64 LE). At k = 2 over
/// three labels that is 42 rows of 13 bytes, well inside the meta page.
fn encode_counts(counts: &[(Vec<SignedLabel>, u64)]) -> Vec<u8> {
    let mut blob = (counts.len() as u32).to_le_bytes().to_vec();
    for (path, count) in counts {
        blob.extend_from_slice(&encode_path_prefix(path));
        blob.extend_from_slice(&count.to_le_bytes());
    }
    blob
}

/// Reads back what [`encode_counts`] wrote. Anything else — a short or
/// overlong blob, an empty path, a zero count, rows out of key order — is
/// `InvalidData`.
fn decode_counts(blob: &[u8]) -> io::Result<Vec<(Vec<SignedLabel>, u64)>> {
    let malformed = |what: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("per-path tally: {what}"),
        )
    };
    let (rows, mut rest) = blob
        .split_first_chunk::<4>()
        .ok_or_else(|| malformed("no row count"))?;
    let rows = u32::from_le_bytes(*rows) as usize;
    let mut counts: Vec<(Vec<SignedLabel>, u64)> = Vec::with_capacity(rows.min(blob.len()));
    let mut last_prefix: &[u8] = &[];
    for _ in 0..rows {
        let len = *rest.first().ok_or_else(|| malformed("truncated row"))? as usize;
        if len == 0 {
            return Err(malformed("empty path"));
        }
        let (prefix, count, tail) = rest
            .split_at_checked(1 + 2 * len)
            .and_then(|(prefix, tail)| {
                let (count, tail) = tail.split_first_chunk::<8>()?;
                Some((prefix, u64::from_le_bytes(*count), tail))
            })
            .ok_or_else(|| malformed("truncated row"))?;
        if count == 0 || prefix <= last_prefix {
            return Err(malformed("zero count or rows out of key order"));
        }
        let path = prefix[1..]
            .chunks_exact(2)
            .map(|code| SignedLabel::from_code(u16::from_be_bytes([code[0], code[1]])))
            .collect();
        counts.push((path, count));
        last_prefix = prefix;
        rest = tail;
    }
    if !rest.is_empty() {
        return Err(malformed("trailing bytes"));
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathix_datagen::paper_example_graph;
    use pathix_graph::EdgeOp;
    use pathix_index::SharedKPathIndex;
    use std::collections::BTreeSet;

    #[test]
    fn paged_index_matches_in_memory_index() {
        let g = paper_example_graph();
        let k = 2;
        let mem = SharedKPathIndex::build(&g, k);
        let paged = PagedPathIndex::build_in_memory(&g, k, 8).unwrap();
        assert_eq!(paged.k(), k);
        assert_eq!(paged.len(), mem.stats().entries);
        for (path, _) in mem.per_path_counts() {
            let expected: Vec<_> = mem.scan_path(path).collect();
            assert_eq!(paged.scan_path(path).unwrap(), expected, "path {path:?}");
            if let Some(&(src, dst)) = expected.first() {
                assert!(paged.contains(path, src, dst).unwrap());
                let targets = paged.scan_path_from(path, src).unwrap();
                assert_eq!(targets, mem.scan_path_from(path, src));
            }
        }
    }

    /// A 2 000-edge chain under one label: `l(G)` alone spans a dozen leaves.
    fn chain_index(pool_frames: usize) -> (Graph, PagedPathIndex, [SignedLabel; 1]) {
        let mut b = pathix_graph::GraphBuilder::new();
        for i in 0..2_000u32 {
            b.add_edge_named(&format!("n{i}"), "l", &format!("n{}", i + 1));
        }
        let g = b.build();
        let paged = PagedPathIndex::build_in_memory(&g, 1, pool_frames).unwrap();
        let path = [SignedLabel::forward(g.label_id("l").unwrap())];
        (g, paged, path)
    }

    #[test]
    fn batch_scan_over_many_leaves_matches_the_reference_at_every_capacity() {
        let (g, paged, path) = chain_index(8);
        let expected = pathix_index::naive_path_eval(&g, &path);

        // The relation really spans several leaves.
        let mut cursor = paged
            .tree
            .prefix_cursor(&encode_path_prefix(&path))
            .unwrap();
        let mut leaf_sizes = Vec::new();
        loop {
            let mut cells = 0;
            let more = cursor.visit_leaf(|_, _| {
                cells += 1;
                Ok(())
            });
            if !more.unwrap() {
                break;
            }
            leaf_sizes.push(cells);
        }
        assert!(leaf_sizes.len() >= 4, "{leaf_sizes:?}");
        // Leaves straddle batches at both capacities above 1.
        assert!(leaf_sizes[0] % 3 != 0 && 1024 % leaf_sizes[0] != 0);
        assert_eq!(leaf_sizes.iter().sum::<usize>(), expected.len());

        for capacity in [1, 3, 1024] {
            let mut scan = paged.scan_path_batches(&path).unwrap();
            let mut batch = PairBatch::with_capacity(capacity);
            let mut scanned = Vec::new();
            let mut sizes = Vec::new();
            loop {
                let n = scan.next_batch(&mut batch).unwrap();
                if n == 0 {
                    break;
                }
                sizes.push(n);
                scanned.extend(batch.iter());
            }
            // Delivered once and in order, spilled pairs leading the next
            // batch: every batch but the last is full.
            assert_eq!(scanned, expected, "capacity {capacity}");
            let (last, full) = sizes.split_last().unwrap();
            assert!(full.iter().all(|&n| n == capacity), "capacity {capacity}");
            assert!(*last <= capacity);

            // Exhaustion is sticky and touches no page.
            let before = paged.pool_stats();
            for _ in 0..3 {
                assert_eq!(scan.next_batch(&mut batch).unwrap(), 0);
                assert!(batch.is_empty());
            }
            let after = paged.pool_stats();
            assert_eq!(
                (after.hits, after.misses),
                (before.hits, before.misses),
                "capacity {capacity}"
            );
        }
        assert_eq!(paged.scan_path(&path).unwrap(), expected);
        for source in [0, 777, 1_999, 2_000, 9_999].map(NodeId) {
            let targets: Vec<_> = expected
                .iter()
                .filter(|&&(s, _)| s == source)
                .map(|&(_, t)| t)
                .collect();
            assert_eq!(paged.scan_path_from(&path, source).unwrap(), targets);
        }
    }

    #[test]
    fn a_malformed_key_under_a_scanned_prefix_is_a_backend_error() {
        // A ⟨p, source⟩-shaped key (no target) among the entries of p.
        let seeded = |source: u32| {
            let (g, mut paged, path) = chain_index(8);
            let key = encode_path_source_prefix(&path, NodeId(source));
            paged.tree.insert(key, Vec::new()).unwrap();
            (g, paged, path)
        };

        // Deep in the relation: the scan opens, delivers the true pairs that
        // precede the key, then fails — and stays ended.
        let (g, paged, path) = seeded(1_500);
        let expected = pathix_index::naive_path_eval(&g, &path);
        let mut scan = paged.scan_path_batches(&path).unwrap();
        let mut batch = PairBatch::with_capacity(64);
        let mut scanned = Vec::new();
        let error = loop {
            match scan.next_batch(&mut batch) {
                Ok(0) => panic!("the scan ran past a malformed key"),
                Ok(_) => scanned.extend(batch.iter()),
                Err(e) => break e,
            }
        };
        assert_eq!(error.backend(), "paged");
        assert!(error.message().contains("malformed"), "{error}");
        assert!(scanned.len() < expected.len());
        assert_eq!(scanned, expected[..scanned.len()]);
        assert_eq!(scan.next_batch(&mut batch).unwrap(), 0);
        assert!(paged.collect_path(&path).is_err());
        assert!(paged.scan_path(&path).is_err());
        // The bound probe whose prefix is the bad key itself reports it too;
        // its neighbours are untouched.
        assert!(PathIndexBackend::scan_path_from(&paged, &path, NodeId(1_500)).is_err());
        assert_eq!(paged.scan_path_from(&path, NodeId(3)).unwrap(), [NodeId(4)]);

        // In the first leaf: the eager first read fails the open itself.
        let (_, paged, path) = seeded(0);
        assert!(paged.scan_path_batches(&path).is_err());
    }

    #[test]
    fn backend_trait_view_matches_inherent_api() {
        let g = paper_example_graph();
        let paged = PagedPathIndex::build_in_memory(&g, 2, 8).unwrap();
        let backend: &dyn PathIndexBackend = &paged;
        assert_eq!(backend.backend_name(), "paged");
        assert_eq!(backend.k(), 2);
        assert_eq!(backend.node_count(), g.node_count());
        let (path, count) = &backend.per_path_counts()[0].clone();
        let via_trait = backend.collect_path(path).unwrap();
        assert_eq!(via_trait.len() as u64, *count);
        assert_eq!(backend.path_cardinality(path), Some(*count));
        assert_eq!(backend.stats().entries, paged.len());
        // Contract violations are errors, not panics.
        assert!(backend.collect_path(&[]).is_err());
    }

    #[test]
    fn on_disk_index_round_trips_through_a_file() {
        let dir = std::env::temp_dir().join(format!("pathix-pidx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kpath.pages");
        let g = paper_example_graph();
        let idx = PagedPathIndex::build_on_disk(&g, 2, &path, 8).unwrap();
        assert!(!idx.is_empty());
        let stats = idx.stats();
        assert!(stats.tree.pages > 1);
        assert_eq!(stats.k, 2);
        assert!(std::fs::metadata(&path).unwrap().len() >= stats.tree.bytes_on_disk);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn delta_batches_keep_the_paged_index_equal_to_a_rebuild() {
        use pathix_index::{apply_op, EntryDeltas};

        let g = paper_example_graph();
        let k = 2;
        let mut paged = PagedPathIndex::build_in_memory(&g, k, 8).unwrap();
        let mut graph = g.clone();

        // Delete a third of the edges, then re-insert them plus a new one.
        let edges: Vec<_> = g
            .labels()
            .flat_map(|l| g.edges(l).map(move |(s, d)| (s, l, d)))
            .step_by(3)
            .collect();
        let mut updates: Vec<EdgeOp> = edges
            .iter()
            .map(|&(src, label, dst)| EdgeOp::delete(src, label, dst))
            .collect();
        updates.extend(
            edges
                .iter()
                .map(|&(src, label, dst)| EdgeOp::insert(src, label, dst)),
        );
        let sue = g.node_id("sue").unwrap();
        let tim = g.node_id("tim").unwrap();
        let knows = g.label_id("knows").unwrap();
        updates.push(EdgeOp::insert(sue, knows, tim));

        let mut deltas = EntryDeltas::new();
        for &update in &updates {
            apply_op(&mut graph, k, update, &mut deltas);
        }
        let batch = DeltaBatch {
            deltas: &deltas,
            node_count: graph.node_count(),
            seq: 1,
        };
        paged.apply_delta_batch(&batch).unwrap();
        assert_eq!(
            (paged.applied_seq(), paged.node_count()),
            (1, graph.node_count())
        );

        // The mutated paged index equals a paged index rebuilt over the
        // mutated graph, path by path.
        let mut updated = g.clone();
        assert!(updated.insert_edge(sue, knows, tim));
        let rebuilt = PagedPathIndex::build_in_memory(&updated, k, 8).unwrap();
        assert_eq!(paged.len(), rebuilt.len());
        assert_eq!(paged.per_path_counts(), rebuilt.per_path_counts());
        for (path, _) in rebuilt.per_path_counts() {
            assert_eq!(
                paged.scan_path(path).unwrap(),
                rebuilt.scan_path(path).unwrap(),
                "path {path:?}"
            );
        }

        // A reader view shares the same answers.
        let mut paged = paged;
        let view = paged.reader_view();
        assert_eq!(view.len(), paged.len());
        let (path, _) = &rebuilt.per_path_counts()[0];
        assert_eq!(
            view.scan_path(path).unwrap(),
            paged.scan_path(path).unwrap()
        );
    }

    #[test]
    fn audit_is_clean_after_build_batches_and_views() {
        use pathix_index::{apply_op, EntryDeltas};

        let g = paper_example_graph();
        let mut paged = PagedPathIndex::build_in_memory(&g, 2, 8).unwrap();
        let mut graph = g.clone();
        let mut report = AuditReport::new();
        report.run("paged", &paged);
        report.assert_clean("after build");

        let view = paged.reader_view();
        let sue = g.node_id("sue").unwrap();
        let tim = g.node_id("tim").unwrap();
        let knows = g.label_id("knows").unwrap();
        let mut deltas = EntryDeltas::new();
        let applied = apply_op(&mut graph, 2, EdgeOp::insert(sue, knows, tim), &mut deltas);
        assert!(applied);
        paged
            .apply_delta_batch(&DeltaBatch {
                deltas: &deltas,
                node_count: graph.node_count(),
                seq: 1,
            })
            .unwrap();
        let mut report = AuditReport::new();
        report.run("paged", &paged);
        report.run("paged-view", &view);
        report.assert_clean("after a delta batch under a live view");
    }

    #[test]
    fn seeded_corruption_trips_the_paged_index_auditors() {
        let g = paper_example_graph();

        // Advertised statistics drift from the stored keys.
        let mut paged = PagedPathIndex::build_in_memory(&g, 2, 8).unwrap();
        paged.per_path_counts[0].1 += 1;
        let mut report = AuditReport::new();
        report.run("paged", &paged);
        let names: Vec<_> = report.violations().iter().map(|v| v.invariant).collect();
        assert!(names.contains(&"counts-consistent"), "{names:?}");

        // A key that does not decode as ⟨path, source, target⟩.
        let mut paged = PagedPathIndex::build_in_memory(&g, 2, 8).unwrap();
        paged.tree.insert(vec![0xFF], Vec::new()).unwrap();
        let mut report = AuditReport::new();
        report.run("paged", &paged);
        let names: Vec<_> = report.violations().iter().map(|v| v.invariant).collect();
        assert!(names.contains(&"entry-decodable"), "{names:?}");
    }

    #[test]
    fn on_disk_index_reopens_with_recovered_stats() {
        use pathix_index::{apply_op, EntryDeltas};

        let dir = std::env::temp_dir().join(format!("pathix-pidx-reopen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kpath.pages");
        let g = paper_example_graph();
        let k = 2;

        let mut graph = g.clone();
        let (len, per_path, entries) = {
            let mut idx = PagedPathIndex::build_on_disk(&g, k, &path, 8).unwrap();

            // One live batch so the reopened tree carries a non-zero seq.
            let sue = g.node_id("sue").unwrap();
            let tim = g.node_id("tim").unwrap();
            let knows = g.label_id("knows").unwrap();
            let mut deltas = EntryDeltas::new();
            assert!(apply_op(
                &mut graph,
                k,
                EdgeOp::insert(sue, knows, tim),
                &mut deltas,
            ));
            idx.apply_delta_batch(&DeltaBatch {
                deltas: &deltas,
                node_count: graph.node_count(),
                seq: 7,
            })
            .unwrap();
            idx.close().unwrap();
            assert!(!idx.flush_failed());
            (idx.len(), idx.per_path_counts().to_vec(), stored_keys(&idx))
        };

        let reopened = PagedPathIndex::open(&path, k, 8, graph.node_count()).unwrap();
        assert_eq!(reopened.applied_seq(), 7);
        assert_eq!(reopened.len(), len);
        let mut advertised = per_path;
        let mut recovered = reopened.per_path_counts().to_vec();
        advertised.sort();
        recovered.sort();
        assert_eq!(recovered, advertised);
        assert_eq!(stored_keys(&reopened), entries);

        // The recovered entries are the index of the updated graph.
        let rebuilt = PagedPathIndex::build_in_memory(&graph, k, 8).unwrap();
        assert_eq!(entries, stored_keys(&rebuilt));

        let mut report = AuditReport::new();
        report.run("paged-reopened", &reopened);
        report.assert_clean("after reopen");

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scans_stop_at_a_neighbour_differing_in_the_last_prefix_byte() {
        // Labels 0 and 1 give the signed steps +0, 0⁻, +1, 1⁻: the path
        // prefixes of adjacent steps differ only in their last byte, and so do
        // the source prefixes of adjacent node ids.
        let mut b = pathix_graph::GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..9).map(|n| b.add_node(&n.to_string())).collect();
        let (l0, l1) = (b.add_label("0"), b.add_label("1"));
        for src in [6, 7, 8] {
            for (label, dst) in [(l0, 1), (l0, 2), (l1, 3)] {
                b.add_edge(nodes[src], label, nodes[dst]);
            }
        }
        let paged = PagedPathIndex::build_in_memory(&b.build(), 1, 8).unwrap();
        let fwd0 = [SignedLabel::forward(l0)];
        let expected: Vec<_> = [6, 7, 8]
            .into_iter()
            .flat_map(|s| [(NodeId(s), NodeId(1)), (NodeId(s), NodeId(2))])
            .collect();
        assert_eq!(paged.scan_path(&fwd0).unwrap(), expected);
        assert_eq!(
            paged.scan_path_from(&fwd0, NodeId(7)).unwrap(),
            [NodeId(1), NodeId(2)]
        );
        assert_eq!(
            paged
                .scan_path_from(&[SignedLabel::forward(l1)], NodeId(7))
                .unwrap(),
            [NodeId(3)]
        );
    }

    #[test]
    fn scan_path_from_the_largest_node_id_carries_the_successor() {
        // The source prefix of NodeId(u32::MAX) ends in four 0xFF bytes, so
        // its successor must carry into the path bytes. No graph interns
        // that many nodes: the k = 1 entries of the edges max → 4, max → max
        // and (max − 1) → 5 are keyed directly.
        let l = pathix_graph::LabelId(0);
        let max = NodeId(u32::MAX);
        let (fwd, bwd) = ([SignedLabel::forward(l)], [SignedLabel::backward(l)]);
        let mut paged = PagedPathIndex::build_in_memory(&Graph::empty(), 1, 8).unwrap();
        for (a, b) in [
            (max, NodeId(4)),
            (max, max),
            (NodeId(u32::MAX - 1), NodeId(5)),
        ] {
            for key in [encode_entry(&fwd, a, b), encode_entry(&bwd, b, a)] {
                paged.tree.insert(key, Vec::new()).unwrap();
            }
        }
        let prefix = encode_path_source_prefix(&fwd, max);
        assert!(prefix.ends_with(&[0xFF; 4]));
        assert_eq!(paged.scan_path_from(&fwd, max).unwrap(), [NodeId(4), max]);
        assert_eq!(
            paged.scan_path_from(&fwd, NodeId(u32::MAX - 1)).unwrap(),
            [NodeId(5)]
        );
        // The next path in key order (0⁻) starts right after max's entries.
        assert_eq!(paged.scan_path_from(&bwd, NodeId(4)).unwrap(), [max]);
    }

    #[test]
    fn a_page_file_of_the_old_entry_format_is_refused() {
        let dir = std::env::temp_dir().join(format!("pathix-pidx-magic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kpath.pages");
        let g = paper_example_graph();
        let mut idx = PagedPathIndex::build_on_disk(&g, 2, &path, 8).unwrap();
        idx.close().unwrap();
        drop(idx);
        assert!(PagedPathIndex::open(&path, 2, 8, g.node_count()).is_ok());
        let built = std::fs::read(&path).unwrap();
        // The meta magics of the walk-count format ("PXPI") and of the
        // format without a root blob ("PXPS").
        for old in [0x5058_5049u32, 0x5058_5053] {
            let mut bytes = built.clone();
            bytes[12..16].copy_from_slice(&old.to_le_bytes());
            std::fs::write(&path, bytes).unwrap();
            let err = PagedPathIndex::open(&path, 2, 8, g.node_count()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{old:#x}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn per_path_counts_follow_batches_and_replays_without_a_rescan() {
        use pathix_index::{apply_op, EntryDeltas};

        let g = paper_example_graph();
        let k = 2;
        let mut paged = PagedPathIndex::build_in_memory(&g, k, 8).unwrap();
        let mut graph = g.clone();
        let [kim, liz, sue, tim] = ["kim", "liz", "sue", "tim"].map(|n| g.node_id(n).unwrap());
        let (supervisor, knows) = (
            g.label_id("supervisor").unwrap(),
            g.label_id("knows").unwrap(),
        );
        // The tally kept by the writes equals a full recount of the tree and
        // the counts of an index built over the same graph, and the batch's
        // flush wrote it beside the root.
        let assert_counts = |paged: &PagedPathIndex, graph: &Graph, when: &str| {
            let tallied = paged.per_path_counts().to_vec();
            assert_eq!(tallied, recounted(paged), "{when}: recount");
            let rebuilt = PagedPathIndex::build_in_memory(graph, k, 8).unwrap();
            assert_eq!(tallied, rebuilt.per_path_counts(), "{when}: rebuild");
            let persisted = decode_counts(paged.tree.root_blob()).unwrap();
            assert_eq!(tallied, persisted, "{when}: root blob");
        };

        // A live batch: the only supervisor edge goes, emptying every path
        // through it, and a knows edge fills new entries.
        let mut deltas = EntryDeltas::new();
        for op in [
            EdgeOp::delete(kim, supervisor, liz),
            EdgeOp::insert(sue, knows, tim),
        ] {
            assert!(apply_op(&mut graph, k, op, &mut deltas));
        }
        let supervised = [SignedLabel::forward(supervisor)];
        paged
            .apply_delta_batch(&DeltaBatch {
                deltas: &deltas,
                node_count: graph.node_count(),
                seq: 1,
            })
            .unwrap();
        assert_eq!(paged.path_cardinality(&supervised), None);
        assert_counts(&paged, &graph, "after apply_delta_batch");

        // The reverse batch, as recovery hands over a fresh record: the
        // same call, rederived from the logged ops.
        deltas.clear();
        for op in [
            EdgeOp::insert(kim, supervisor, liz),
            EdgeOp::delete(sue, knows, tim),
        ] {
            assert!(apply_op(&mut graph, k, op, &mut deltas));
        }
        paged
            .apply_delta_batch(&DeltaBatch {
                deltas: &deltas,
                node_count: graph.node_count(),
                seq: 2,
            })
            .unwrap();
        assert_eq!(paged.path_cardinality(&supervised), Some(1));
        assert_counts(&paged, &graph, "after a fresh replay");

        // The tree records the record's seq, so recovery leaves the same
        // record alone the next time; an empty batch moves no count.
        assert_eq!(paged.applied_seq(), 2);
        paged
            .apply_delta_batch(&DeltaBatch {
                deltas: &EntryDeltas::new(),
                node_count: graph.node_count(),
                seq: 2,
            })
            .unwrap();
        assert_counts(&paged, &graph, "after replaying an applied record");
    }

    /// The batch of raw `changes` at `seq` over `node_count` nodes, handed
    /// to `idx` the way a live apply hands its log over.
    fn apply_changes(
        idx: &mut PagedPathIndex,
        seq: u64,
        node_count: usize,
        changes: &[(Vec<u8>, EntryChange)],
    ) {
        let mut deltas = pathix_index::EntryDeltas::new();
        for (key, change) in changes {
            deltas.record(key, *change);
        }
        idx.apply_delta_batch(&DeltaBatch {
            deltas: &deltas,
            node_count,
            seq,
        })
        .unwrap();
    }

    #[test]
    fn pool_counters_reflect_scans() {
        let g = paper_example_graph();
        let idx = PagedPathIndex::build_in_memory(&g, 2, 4).unwrap();
        idx.reset_pool_stats();
        let knows = SignedLabel::forward(g.label_id("knows").unwrap());
        let _ = idx.scan_path(&[knows]).unwrap();
        let stats = idx.pool_stats();
        assert!(stats.hits + stats.misses > 0);
    }

    /// Every stored key, in key order.
    fn stored_keys(idx: &PagedPathIndex) -> Vec<Vec<u8>> {
        idx.tree
            .iter()
            .unwrap()
            .map(|item| item.unwrap().0)
            .collect()
    }

    /// The per-path tally recounted from every stored key, in key order.
    fn recounted(idx: &PagedPathIndex) -> Vec<(Vec<SignedLabel>, u64)> {
        let mut per_path: Vec<(Vec<SignedLabel>, u64)> = Vec::new();
        for key in stored_keys(idx) {
            let (path, _, _) = decode_entry(&key).unwrap();
            match per_path.last_mut() {
                Some((p, n)) if *p == path => *n += 1,
                _ => per_path.push((path, 1)),
            }
        }
        per_path
    }

    #[test]
    fn the_tally_codec_round_trips_and_refuses_malformed_blobs() {
        let g = paper_example_graph();
        let counts = PagedPathIndex::build_in_memory(&g, 2, 8)
            .unwrap()
            .per_path_counts()
            .to_vec();
        let blob = encode_counts(&counts);
        assert_eq!(decode_counts(&blob).unwrap(), counts);
        assert_eq!(decode_counts(&encode_counts(&[])).unwrap(), []);
        let first_count = 4 + 3;
        let mut zero = blob.clone();
        zero[first_count..first_count + 8].fill(0);
        let mut swapped = encode_counts(&counts[1..2]);
        swapped.extend_from_slice(&encode_counts(&counts[..1])[4..]);
        swapped[..4].copy_from_slice(&2u32.to_le_bytes());
        let mut empty_path = blob.clone();
        empty_path[4] = 0;
        for (what, bad) in [
            ("empty", Vec::new()),
            ("truncated", blob[..blob.len() - 1].to_vec()),
            ("trailing", [blob.as_slice(), &[0]].concat()),
            ("zero count", zero),
            ("out of order", swapped),
            ("empty path", empty_path),
        ] {
            let err = decode_counts(&bad).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }

    /// Three nodes and 16 labels, each with an edge n0 → n1 and n1 → n0 (and
    /// every third also n1 → n2): every one of the 32 + 32² signed label
    /// paths of length ≤ 2 is non-empty, so the tally's 1 056 rows of about
    /// 13 bytes need blob pages past the meta page.
    fn many_label_graph() -> Graph {
        let mut b = pathix_graph::GraphBuilder::new();
        for label in 0..16 {
            let name = format!("l{label}");
            b.add_edge_named("n0", &name, "n1");
            b.add_edge_named("n1", &name, "n0");
            if label % 3 == 0 {
                b.add_edge_named("n1", &name, "n2");
            }
        }
        b.build()
    }

    #[test]
    fn a_tally_past_the_meta_page_survives_abandoned_writers_and_reopens() {
        use pathix_index::{apply_op, EntryDeltas};

        let dir = std::env::temp_dir().join(format!("pathix-pidx-chain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kpath.pages");
        let (k, frames) = (2, 16);
        let mut graph = many_label_graph();
        let [n0, n1, n2] = ["n0", "n1", "n2"].map(|n| graph.node_id(n).unwrap());
        let l = |i: usize| graph.label_id(&format!("l{i}")).unwrap();
        let rounds = [
            vec![EdgeOp::delete(n0, l(0), n1), EdgeOp::insert(n2, l(5), n0)],
            vec![EdgeOp::delete(n1, l(3), n2), EdgeOp::insert(n2, l(7), n2)],
            vec![EdgeOp::insert(n0, l(0), n1), EdgeOp::delete(n1, l(9), n0)],
            vec![EdgeOp::delete(n2, l(5), n0), EdgeOp::insert(n0, l(11), n2)],
        ];
        // Checks an opened index against a rebuild: the tally, the chain and
        // a clean audit — page coverage and the free set included.
        let assert_reopened = |idx: &PagedPathIndex, graph: &Graph, when: &str| {
            let rebuilt = PagedPathIndex::build_in_memory(graph, k, frames).unwrap();
            assert!(rebuilt.per_path_counts().len() >= 1_000, "{when}");
            assert_eq!(idx.per_path_counts(), rebuilt.per_path_counts(), "{when}");
            assert_eq!(stored_keys(idx), stored_keys(&rebuilt), "{when}");
            let blob = idx.tree.root_blob().len();
            assert!(blob > 3 * crate::PAGE_SIZE, "{when}: a {blob}-byte tally");
            let mut report = AuditReport::new();
            report.run("paged-reopened", idx);
            report.assert_clean(when);
        };

        let mut idx = PagedPathIndex::build_on_disk(&graph, k, &path, frames).unwrap();
        let mut seq = 0;
        for (i, ops) in rounds.iter().enumerate() {
            let mut deltas = EntryDeltas::new();
            for &op in ops {
                assert!(apply_op(&mut graph, k, op, &mut deltas));
            }
            seq += 1;
            idx.apply_delta_batch(&DeltaBatch {
                deltas: &deltas,
                node_count: graph.node_count(),
                seq,
            })
            .unwrap();
            // Two batches per writer, then the writer dies without a close.
            if i % 2 == 1 {
                std::mem::forget(idx);
                idx = PagedPathIndex::open(&path, k, frames, graph.node_count()).unwrap();
                assert_eq!(idx.applied_seq(), seq);
                assert_reopened(&idx, &graph, &format!("reopen after batch {seq}"));
            }
        }
        idx.close().unwrap();
        drop(idx);
        let idx = PagedPathIndex::open(&path, k, frames, graph.node_count()).unwrap();
        assert_reopened(&idx, &graph, "reopen after close");
        drop(idx);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_tampered_persisted_count_opens_and_fails_the_audit() {
        let dir = std::env::temp_dir().join(format!("pathix-pidx-tamper-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kpath.pages");
        let g = paper_example_graph();
        let mut idx = PagedPathIndex::build_on_disk(&g, 2, &path, 8).unwrap();
        idx.close().unwrap();
        let counts = idx.per_path_counts().to_vec();
        drop(idx);

        // The tally sits in the meta page, page 0; its first row is a
        // length-1 path (3 prefix bytes) followed by its count.
        let mut bytes = std::fs::read(&path).unwrap();
        let blob = encode_counts(&counts);
        let at = bytes[..crate::PAGE_SIZE]
            .windows(blob.len())
            .position(|w| w == blob)
            .expect("the tally is in the meta page");
        let count = at + 4 + 3;
        bytes[count..count + 8].copy_from_slice(&(counts[0].1 + 1).to_le_bytes());
        std::fs::write(&path, bytes).unwrap();

        let reopened = PagedPathIndex::open(&path, 2, 8, g.node_count()).unwrap();
        assert_eq!(reopened.per_path_counts()[0].1, counts[0].1 + 1);
        let mut report = AuditReport::new();
        report.run("paged", &reopened);
        let names: Vec<_> = report.violations().iter().map(|v| v.invariant).collect();
        assert_eq!(names, ["counts-consistent"]);
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transitions_land_in_key_order_with_the_net_change_per_key() {
        use EntryChange::{Added, Removed};
        let g = paper_example_graph();
        let mut idx = PagedPathIndex::build_in_memory(&g, 2, 8).unwrap();
        let mut expected: BTreeSet<Vec<u8>> = stored_keys(&idx).into_iter().collect();
        let mut stored = expected.iter().cloned();
        let (removed, readded) = (stored.next().unwrap(), stored.next().unwrap());
        let knows = [SignedLabel::forward(g.label_id("knows").unwrap())];
        let (transient, added) = (
            encode_entry(&knows, NodeId(u32::MAX - 1), NodeId(0)),
            encode_entry(&knows, NodeId(u32::MAX - 2), NodeId(0)),
        );
        assert!(!expected.contains(&transient) && !expected.contains(&added));
        // Descending key order: a new key added then removed again, a new
        // key added, a stored key removed then added back, a stored key
        // removed.
        let changes = [
            (transient.clone(), Added),
            (added.clone(), Added),
            (readded.clone(), Removed),
            (removed.clone(), Removed),
            (transient.clone(), Removed),
            (readded.clone(), Added),
        ];
        apply_changes(&mut idx, 1, g.node_count(), &changes);
        expected.remove(&removed);
        expected.insert(added);
        assert_eq!(stored_keys(&idx), expected.into_iter().collect::<Vec<_>>());
        let mut report = AuditReport::new();
        report.run("paged", &idx);
        report.assert_clean("after the transitions");
    }

    #[test]
    fn transitions_that_cancel_within_a_batch_dirty_no_page() {
        use EntryChange::{Added, Removed};
        let g = paper_example_graph();
        let mut idx = PagedPathIndex::build_in_memory(&g, 2, 8).unwrap();
        let before = stored_keys(&idx);
        let stored = before[0].clone();
        let knows = [SignedLabel::forward(g.label_id("knows").unwrap())];
        let fresh = encode_entry(&knows, NodeId(u32::MAX - 1), NodeId(0));
        // Page write-backs of one batch's transitions and its flush.
        let write_backs = |idx: &mut PagedPathIndex, changes: &[(Vec<u8>, EntryChange)]| {
            let start = idx.pool_stats().write_backs;
            let seq = idx.applied_seq() + 1;
            apply_changes(idx, seq, g.node_count(), changes);
            idx.pool_stats().write_backs - start
        };
        let idle = write_backs(&mut idx, &[]);
        let cancelling = [
            (fresh.clone(), Added),
            (stored.clone(), Removed),
            (fresh.clone(), Removed),
            (stored, Added),
        ];
        assert_eq!(write_backs(&mut idx, &cancelling), idle);
        assert_eq!(stored_keys(&idx), before);
        // A key that stays added does write.
        assert!(write_backs(&mut idx, &[(fresh, Added)]) > idle);
    }
}
