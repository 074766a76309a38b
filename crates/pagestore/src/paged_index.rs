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
//! The index is also **mutable** ([`MutablePathIndexBackend`]): the key-level
//! deltas of a live update batch — computed once, backend-agnostically, by
//! the counting rules of [`pathix_index::IncrementalKPathIndex`], which walk
//! the graph epochs around each update and log its writes in key order —
//! are replayed as B+tree key inserts and deletes (page splits, merges and
//! free-list recycling included) and written back through the buffer pool,
//! so an on-disk index stays durable across batches.

use crate::btree::{LeafCursor, PagedBTree, PagedTreeStats};
use crate::buffer::{BufferPool, PoolStats};
use crate::disk::DiskManager;
use pathix_audit::{AuditReport, StructuralAudit};
use pathix_graph::{Graph, NodeId, SignedLabel};
use pathix_index::backend::{
    check_scan_path, BackendBatchScan, BackendError, BackendResult, BackendStats, BatchScan,
    DeltaBatch, MutablePathIndexBackend, PairBatch, PathIndexBackend,
};
use pathix_index::enumerate_counted_paths;
use pathix_index::pathkey::{
    decode_entry, decode_pair, encode_entry, encode_path_prefix, encode_path_source_prefix,
};
use std::collections::BTreeMap;
use std::io;

/// Walk counts are stored as the entry value: 8 bytes, little endian — the
/// counts [`pathix_index::IncrementalKPathIndex`] keeps in memory, so a
/// persisted tree can reseed a live writer without recomputation.
fn encode_walks(count: u64) -> Vec<u8> {
    count.to_le_bytes().to_vec()
}

/// Decodes a stored walk count; `None` when the value is not exactly 8 bytes.
fn decode_walks(value: &[u8]) -> Option<u64> {
    let bytes: [u8; 8] = value.try_into().ok()?;
    Some(u64::from_le_bytes(bytes))
}

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
    /// gains or loses (see [`PagedPathIndex::write_counts`]).
    per_path_counts: Vec<(Vec<SignedLabel>, u64)>,
    tree: PagedBTree,
    inserts_applied: u64,
    deletes_applied: u64,
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
        // Counted relations carry no duplicate pairs, and keys of different
        // paths never collide — entries only need one global sort for
        // bulk_load's key-order contract.
        let relations = enumerate_counted_paths(graph, k);
        let mut per_path_counts = Vec::with_capacity(relations.len());
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for (path, pairs) in &relations {
            per_path_counts.push((path.clone(), pairs.len() as u64));
            for &((a, b), walks) in pairs {
                entries.push((encode_entry(path, a, b), encode_walks(walks)));
            }
        }
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut tree = PagedBTree::bulk_load(pool, entries)?;
        tree.flush()?;
        Ok(PagedPathIndex {
            k,
            node_count: graph.node_count(),
            per_path_counts,
            tree,
            inserts_applied: 0,
            deletes_applied: 0,
        })
    }

    /// Opens a previously built (and possibly crash-interrupted) index from
    /// the page file at `path`.
    ///
    /// The tree is opened through [`PagedBTree::open_recovering`]: the
    /// persisted free list — which threads through page contents and is *not*
    /// crash-consistent — is discarded and rebuilt by a mark-and-sweep over
    /// the root-reachable pages. Durable writeback is re-enabled, and the
    /// per-path cardinalities are recounted from a full scan; `node_count`
    /// must come from the recovered graph the index belongs to.
    pub fn open<P: AsRef<std::path::Path>>(
        path: P,
        k: usize,
        pool_frames: usize,
        node_count: usize,
    ) -> io::Result<Self> {
        let pool = BufferPool::new(DiskManager::open(path)?, pool_frames);
        let mut tree = PagedBTree::open_recovering(pool)?;
        tree.enable_durable_writeback();
        let mut index = PagedPathIndex {
            k,
            node_count,
            per_path_counts: Vec::new(),
            tree,
            inserts_applied: 0,
            deletes_applied: 0,
        };
        index.refresh_derived_stats()?;
        Ok(index)
    }

    /// Recounts the per-path cardinalities from a full scan of the stored
    /// entries. Fails with `InvalidData` on malformed keys or walk counts —
    /// the symptoms of a corrupt page file.
    fn refresh_derived_stats(&mut self) -> io::Result<()> {
        let mut per_path: Vec<(Vec<SignedLabel>, u64)> = Vec::new();
        for item in self.tree.iter()? {
            let (key, value) = item?;
            let Some((path, _, _)) = decode_entry(&key) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "stored key of {} byte(s) is not a ⟨path, source, target⟩ entry",
                        key.len()
                    ),
                ));
            };
            if decode_walks(&value).is_none_or(|walks| walks == 0) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("stored entry for path {path:?} has an invalid walk count"),
                ));
            }
            match per_path.last_mut() {
                Some((p, n)) if *p == path => *n += 1,
                _ => per_path.push((path, 1)),
            }
        }
        self.per_path_counts = per_path;
        Ok(())
    }

    /// Replays one logged commit record against the stored entries during
    /// recovery. Records at or below the tree's persisted
    /// [`PagedPathIndex::applied_seq`] already reached the page file before
    /// the crash and change nothing but the node count; newer records
    /// replay their absolute `(key, walk count)` writes (0 deletes the key),
    /// advance the sequence number, and flush durably, so a crash *during*
    /// recovery resumes where it left off. Returns whether the record was
    /// fresh.
    pub fn replay_batch(
        &mut self,
        seq: u64,
        counts: &[(Vec<u8>, u64)],
        node_count: usize,
        inserted_edges: u64,
        deleted_edges: u64,
    ) -> io::Result<bool> {
        let fresh = seq > self.tree.applied_seq();
        if fresh {
            self.write_counts(counts)?;
            self.tree.set_applied_seq(seq);
            self.inserts_applied += inserted_edges;
            self.deletes_applied += deleted_edges;
        }
        self.node_count = node_count;
        if fresh {
            self.tree.flush()?;
        }
        Ok(fresh)
    }

    /// Replays absolute `(key, walk count)` writes as B+tree inserts and
    /// deletes (a count of 0 deletes the key) in key order, the last write
    /// per key winning: what a batch writes to which pages then follows from
    /// its keys, not from the order the log happened to record them in. A
    /// key added and removed again within the batch ends at 0 and deletes
    /// nothing.
    ///
    /// The per-path cardinalities follow the tree: a path gains an entry
    /// when an insert finds no previous value and loses one when a delete
    /// finds one, so they stay exact without a rescan. Fails with
    /// `InvalidData` on a key that is no `⟨p, a, b⟩` entry.
    fn write_counts(&mut self, counts: &[(Vec<u8>, u64)]) -> io::Result<()> {
        let last: BTreeMap<&[u8], u64> = counts.iter().map(|(k, c)| (k.as_slice(), *c)).collect();
        for (key, count) in last {
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
            if count == 0 {
                if self.tree.delete(key)?.is_some() {
                    let Ok(i) = slot else {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("deleted an entry of path {path:?}, which counts no entries"),
                        ));
                    };
                    self.per_path_counts[i].1 -= 1;
                    if self.per_path_counts[i].1 == 0 {
                        self.per_path_counts.remove(i);
                    }
                }
            } else if self
                .tree
                .insert(key.to_vec(), encode_walks(count))?
                .is_none()
            {
                match slot {
                    Ok(i) => self.per_path_counts[i].1 += 1,
                    Err(i) => self.per_path_counts.insert(i, (path, 1)),
                }
            }
        }
        Ok(())
    }

    /// Streams every stored `(entry key, walk count)` pair in key order —
    /// exactly what [`pathix_index::IncrementalKPathIndex::from_persisted_entries`]
    /// needs to reseed a live writer after a restart.
    pub fn counted_entries(&self) -> io::Result<Vec<(Vec<u8>, u64)>> {
        let mut out = Vec::with_capacity(self.tree.len() as usize);
        for item in self.tree.iter()? {
            let (key, value) = item?;
            let Some(walks) = decode_walks(&value) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stored entry value is not an 8-byte walk count",
                ));
            };
            out.push((key, walks));
        }
        Ok(out)
    }

    /// Flushes and marks the index cleanly closed; after `close`, dropping
    /// the index performs no I/O. Errors surface here (and set the sticky
    /// [`PagedPathIndex::flush_failed`] flag) instead of being swallowed by
    /// `Drop`.
    pub fn close(&mut self) -> io::Result<()> {
        self.tree.close()
    }

    /// `true` once any flush of the backing tree has failed (including one
    /// attempted by `Drop` as a last resort).
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
            inserts_applied: self.inserts_applied,
            deletes_applied: self.deletes_applied,
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
        let mut bad_counts = 0u64;
        let iter = match self.tree.iter() {
            Ok(iter) => iter,
            Err(e) => {
                report.violation("audit-io", "index-scan", e.to_string());
                return;
            }
        };
        for item in iter {
            let (key, value) = match item {
                Ok(entry) => entry,
                Err(e) => {
                    report.violation("audit-io", "index-scan", e.to_string());
                    return;
                }
            };
            if decode_walks(&value).is_none_or(|walks| walks == 0) {
                bad_counts += 1;
            }
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
        report.check("walk-count-encoded", "tree", bad_counts == 0, || {
            format!("{bad_counts} entry value(s) are not positive 8-byte walk counts")
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
    /// Replays the batch's absolute `(key, walk count)` writes as B+tree
    /// inserts and deletes (splitting, merging and recycling pages as
    /// needed; a count of 0 deletes the key), adopts the batch's node count
    /// and commit sequence number, and flushes every dirty page through the
    /// buffer pool so an on-disk index is durable up to the end of the
    /// batch.
    fn apply_delta_batch(&mut self, batch: &DeltaBatch<'_>) -> BackendResult<()> {
        let io_err = |e: &io::Error| BackendError::io("paged", e);
        self.write_counts(batch.deltas.counts())
            .map_err(|e| io_err(&e))?;
        self.node_count = batch.node_count;
        self.inserts_applied += batch.inserted_edges;
        self.deletes_applied += batch.deleted_edges;
        self.tree.set_applied_seq(batch.seq);
        self.tree.flush().map_err(|e| io_err(&e))
    }

    fn updates_applied(&self) -> (u64, u64) {
        (self.inserts_applied, self.deletes_applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathix_datagen::paper_example_graph;
    use pathix_graph::EdgeOp;
    use pathix_index::SharedKPathIndex;

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
            paged.tree.insert(key, encode_walks(1)).unwrap();
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
        use pathix_index::{EntryDeltas, IncrementalKPathIndex};

        let g = paper_example_graph();
        let k = 2;
        let mut paged = PagedPathIndex::build_in_memory(&g, k, 8).unwrap();
        let mut oracle = IncrementalKPathIndex::bulk_from_graph(&g, k);
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
        let mut inserted = 0;
        let mut deleted = 0;
        for &update in &updates {
            if oracle.apply_logged(&mut graph, update, &mut deltas) {
                if update.insert {
                    inserted += 1;
                } else {
                    deleted += 1;
                }
            }
        }
        let batch = DeltaBatch {
            deltas: &deltas,
            node_count: graph.node_count(),
            inserted_edges: inserted,
            deleted_edges: deleted,
            seq: 1,
        };
        paged.apply_delta_batch(&batch).unwrap();
        assert_eq!(
            MutablePathIndexBackend::updates_applied(&paged),
            (inserted, deleted)
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
        use pathix_index::{EntryDeltas, IncrementalKPathIndex};

        let g = paper_example_graph();
        let mut paged = PagedPathIndex::build_in_memory(&g, 2, 8).unwrap();
        let mut oracle = IncrementalKPathIndex::bulk_from_graph(&g, 2);
        let mut graph = g.clone();
        let mut report = AuditReport::new();
        report.run("paged", &paged);
        report.assert_clean("after build");

        let view = paged.reader_view();
        let sue = g.node_id("sue").unwrap();
        let tim = g.node_id("tim").unwrap();
        let knows = g.label_id("knows").unwrap();
        let mut deltas = EntryDeltas::new();
        let applied = oracle.apply_logged(&mut graph, EdgeOp::insert(sue, knows, tim), &mut deltas);
        assert!(applied);
        paged
            .apply_delta_batch(&DeltaBatch {
                deltas: &deltas,
                node_count: graph.node_count(),
                inserted_edges: 1,
                deleted_edges: 0,
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

        // A value that is not a positive 8-byte walk count.
        let mut paged = PagedPathIndex::build_in_memory(&g, 2, 8).unwrap();
        let (path, _) = paged.per_path_counts[0].clone();
        let key = encode_entry(&path, NodeId(1), NodeId(1));
        paged.tree.insert(key, encode_walks(0)).unwrap();
        let mut report = AuditReport::new();
        report.run("paged", &paged);
        let names: Vec<_> = report.violations().iter().map(|v| v.invariant).collect();
        assert!(names.contains(&"walk-count-encoded"), "{names:?}");
    }

    #[test]
    fn on_disk_index_reopens_with_recovered_stats() {
        use pathix_index::{EntryDeltas, IncrementalKPathIndex};

        let dir = std::env::temp_dir().join(format!("pathix-pidx-reopen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kpath.pages");
        let g = paper_example_graph();
        let k = 2;

        let mut oracle = IncrementalKPathIndex::bulk_from_graph(&g, k);

        let mut graph = g.clone();
        let (len, per_path, entries) = {
            let mut idx = PagedPathIndex::build_on_disk(&g, k, &path, 8).unwrap();

            // One live batch so the reopened tree carries a non-zero seq.
            let sue = g.node_id("sue").unwrap();
            let tim = g.node_id("tim").unwrap();
            let knows = g.label_id("knows").unwrap();
            let mut deltas = EntryDeltas::new();
            assert!(oracle.apply_logged(&mut graph, EdgeOp::insert(sue, knows, tim), &mut deltas,));
            idx.apply_delta_batch(&DeltaBatch {
                deltas: &deltas,
                node_count: graph.node_count(),
                inserted_edges: 1,
                deleted_edges: 0,
                seq: 7,
            })
            .unwrap();
            idx.close().unwrap();
            assert!(!idx.flush_failed());
            (
                idx.len(),
                idx.per_path_counts().to_vec(),
                idx.counted_entries().unwrap(),
            )
        };

        let reopened = PagedPathIndex::open(&path, k, 8, graph.node_count()).unwrap();
        assert_eq!(reopened.applied_seq(), 7);
        assert_eq!(reopened.len(), len);
        let mut advertised = per_path;
        let mut recovered = reopened.per_path_counts().to_vec();
        advertised.sort();
        recovered.sort();
        assert_eq!(recovered, advertised);
        assert_eq!(reopened.counted_entries().unwrap(), entries);

        // The recovered entries reseed a live writer identical to the oracle.
        let reseeded = IncrementalKPathIndex::from_persisted_entries(k, entries).unwrap();
        assert_eq!(reseeded.entry_count(), oracle.entry_count());
        assert_eq!(reseeded.entry_count() as u64, reopened.len());

        let mut report = AuditReport::new();
        report.run("paged-reopened", &reopened);
        report.assert_clean("after reopen");

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn per_path_counts_follow_batches_and_replays_without_a_rescan() {
        use pathix_index::{EntryDeltas, IncrementalKPathIndex};

        let g = paper_example_graph();
        let k = 2;
        let mut paged = PagedPathIndex::build_in_memory(&g, k, 8).unwrap();
        let mut oracle = IncrementalKPathIndex::bulk_from_graph(&g, k);
        let mut graph = g.clone();
        let [kim, liz, sue, tim] = ["kim", "liz", "sue", "tim"].map(|n| g.node_id(n).unwrap());
        let (supervisor, knows) = (
            g.label_id("supervisor").unwrap(),
            g.label_id("knows").unwrap(),
        );
        // The tally kept by the writes equals a full recount of the tree and
        // the counts of an index built over the same graph.
        let assert_counts = |paged: &mut PagedPathIndex, graph: &Graph, when: &str| {
            let tallied = paged.per_path_counts().to_vec();
            paged.refresh_derived_stats().unwrap();
            assert_eq!(tallied, paged.per_path_counts(), "{when}: recount");
            let rebuilt = PagedPathIndex::build_in_memory(graph, k, 8).unwrap();
            assert_eq!(tallied, rebuilt.per_path_counts(), "{when}: rebuild");
        };

        // A live batch: the only supervisor edge goes, emptying every path
        // through it, and a knows edge fills new entries.
        let mut deltas = EntryDeltas::new();
        for op in [
            EdgeOp::delete(kim, supervisor, liz),
            EdgeOp::insert(sue, knows, tim),
        ] {
            assert!(oracle.apply_logged(&mut graph, op, &mut deltas));
        }
        let supervised = [SignedLabel::forward(supervisor)];
        paged
            .apply_delta_batch(&DeltaBatch {
                deltas: &deltas,
                node_count: graph.node_count(),
                inserted_edges: 1,
                deleted_edges: 1,
                seq: 1,
            })
            .unwrap();
        assert_eq!(paged.path_cardinality(&supervised), None);
        assert_counts(&mut paged, &graph, "after apply_delta_batch");

        // The reverse batch replayed as recovery replays a fresh record.
        deltas.clear();
        for op in [
            EdgeOp::insert(kim, supervisor, liz),
            EdgeOp::delete(sue, knows, tim),
        ] {
            assert!(oracle.apply_logged(&mut graph, op, &mut deltas));
        }
        let node_count = graph.node_count();
        assert!(paged
            .replay_batch(2, deltas.counts(), node_count, 1, 1)
            .unwrap());
        assert_eq!(paged.path_cardinality(&supervised), Some(1));
        assert_counts(&mut paged, &graph, "after a fresh replay");

        // The same record again: the tree already holds it, nothing moves.
        assert!(!paged
            .replay_batch(2, deltas.counts(), node_count, 1, 1)
            .unwrap());
        assert_counts(&mut paged, &graph, "after replaying an applied record");
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

    #[test]
    fn count_writes_land_in_key_order_with_the_last_write_per_key() {
        let g = paper_example_graph();
        let mut idx = PagedPathIndex::build_in_memory(&g, 2, 8).unwrap();
        let mut expected: BTreeMap<Vec<u8>, u64> =
            idx.counted_entries().unwrap().into_iter().collect();
        let mut stored = expected.keys().cloned();
        let (rewritten, readded) = (stored.next().unwrap(), stored.next().unwrap());
        let knows = [SignedLabel::forward(g.label_id("knows").unwrap())];
        let transient = encode_entry(&knows, NodeId(u32::MAX - 1), NodeId(0));
        assert!(!expected.contains_key(&transient));
        // Descending key order, each key written twice: a stored key
        // rewritten, a new key added then removed again, a stored key
        // removed then added back.
        let counts = [
            (transient.clone(), 1),
            (readded.clone(), 0),
            (rewritten.clone(), 5),
            (transient.clone(), 0),
            (readded.clone(), 4),
            (rewritten.clone(), 7),
        ];
        assert!(idx.replay_batch(1, &counts, g.node_count(), 0, 0).unwrap());
        expected.insert(rewritten, 7);
        expected.insert(readded, 4);
        let entries: BTreeMap<Vec<u8>, u64> = idx.counted_entries().unwrap().into_iter().collect();
        assert_eq!(entries, expected);
        let mut report = AuditReport::new();
        report.run("paged", &idx);
        report.assert_clean("after the count writes");
    }
}
