//! The pluggable storage interface of the query pipeline.
//!
//! The paper's k-path index is storage-agnostic: the same search key
//! `⟨label path, sourceID, targetID⟩` and the same three lookup shapes
//! (Example 3.1) can be served by in-memory sorted chunk runs (plain or
//! delta/varint-encoded chunks) or a buffer-pool-backed paged B+tree — the
//! representations studied by the paper and its companion work (ref. \[14\]).
//!
//! [`PathIndexBackend`] captures exactly the contract the layers above
//! storage rely on: one batched forward prefix scan in `(source, target)`
//! order (the inverse-path trick for target-major order goes through the same
//! entry point) and two probes — targets of one source, point membership —
//! plus per-path cardinalities for the histogram and two structural numbers
//! (`k`, node count). Everything in `pathix-exec`,
//! `pathix-plan` and `pathix-core` is generic over this trait, so the
//! identical RPQ → rewrite → plan → execute pipeline runs unchanged on every
//! backend.
//!
//! Every batch is a `Result`: disk-resident backends can fail mid-scan, and
//! those failures must surface as query errors rather than panics.
//!
//! Live updates reach every backend the same way: [`crate::apply_op`] logs
//! which keys entered and left the index ([`EntryDeltas`]), and each
//! [`MutablePathIndexBackend`] replays that log against its own storage.
//! Entries are bare keys — no walk counts anywhere.

use pathix_graph::{NodeId, SignedLabel};
use std::fmt;

/// An error produced by an index backend (typically I/O on the paged path).
///
/// The error is self-contained text (not a wrapped [`std::io::Error`]) so
/// that query errors stay `Clone`/`PartialEq` — the pipeline compares and
/// replays them freely in tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendError {
    backend: &'static str,
    message: String,
}

impl BackendError {
    /// Creates an error attributed to `backend`.
    pub fn new(backend: &'static str, message: impl Into<String>) -> Self {
        BackendError {
            backend,
            message: message.into(),
        }
    }

    /// Converts an I/O error raised by `backend`.
    pub fn io(backend: &'static str, error: &std::io::Error) -> Self {
        BackendError::new(backend, error.to_string())
    }

    /// The backend that raised the error.
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// The error description.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} backend error: {}", self.backend, self.message)
    }
}

impl std::error::Error for BackendError {}

/// Result alias used throughout the backend-facing pipeline.
pub type BackendResult<T> = Result<T, BackendError>;

/// Default capacity of a [`PairBatch`]: the number of pairs moved per
/// operator call in the batch-at-a-time engine. Large enough to amortize
/// virtual dispatch and decode setup, small enough to stay cache-resident
/// (two 4 KiB columns).
pub const BATCH_CAPACITY: usize = 1024;

/// A reusable structure-of-arrays buffer of node pairs — the unit of data
/// movement of the batch-at-a-time execution engine.
///
/// Sources and targets are stored as two parallel columns so that operators
/// that only look at one side of a pair (merge-join key advancement, hash
/// probes, fence checks) scan a dense `&[NodeId]` instead of striding over
/// tuples. A batch has a fixed fill target (`capacity`); producers append up
/// to that many pairs per call and the buffer's allocations are reused across
/// refills.
///
/// ```
/// use pathix_graph::NodeId;
/// use pathix_index::PairBatch;
///
/// let mut batch = PairBatch::with_capacity(2);
/// batch.push((NodeId(1), NodeId(7)));
/// assert_eq!((batch.len(), batch.remaining_capacity(), batch.is_full()), (1, 1, false));
/// batch.push((NodeId(2), NodeId(5)));
/// assert!(batch.is_full());
/// assert_eq!(batch.sources(), [NodeId(1), NodeId(2)]);
/// assert_eq!(batch.targets(), [NodeId(7), NodeId(5)]);
///
/// // An inverse-path scan restores (source, target) orientation in O(1).
/// batch.swap_columns();
/// assert_eq!(batch.get(0), (NodeId(7), NodeId(1)));
/// assert_eq!(batch.iter().count(), 2);
/// batch.clear();
/// assert!(batch.is_empty() && batch.capacity() == 2);
/// ```
#[derive(Debug, Clone)]
pub struct PairBatch {
    sources: Vec<NodeId>,
    targets: Vec<NodeId>,
    capacity: usize,
}

impl Default for PairBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl PairBatch {
    /// An empty batch with the default [`BATCH_CAPACITY`] fill target.
    pub fn new() -> Self {
        Self::with_capacity(BATCH_CAPACITY)
    }

    /// An empty batch that fills up to `capacity` pairs (clamped to ≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        PairBatch {
            sources: Vec::with_capacity(capacity),
            targets: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// The fill target: producers stop appending once `len()` reaches this.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pairs currently buffered.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// `true` when no pairs are buffered.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// `true` once the batch reached its fill target.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Pairs that still fit before the batch is full.
    pub fn remaining_capacity(&self) -> usize {
        self.capacity.saturating_sub(self.len())
    }

    /// Empties the batch, keeping both column allocations.
    pub fn clear(&mut self) {
        self.sources.clear();
        self.targets.clear();
    }

    /// Appends one pair.
    pub fn push(&mut self, (source, target): (NodeId, NodeId)) {
        self.sources.push(source);
        self.targets.push(target);
    }

    /// The `i`-th buffered pair. Panics when `i ≥ len()`.
    pub fn get(&self, i: usize) -> (NodeId, NodeId) {
        (self.sources[i], self.targets[i])
    }

    /// The source column.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// The target column.
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// Iterates the buffered pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.sources
            .iter()
            .copied()
            .zip(self.targets.iter().copied())
    }

    /// Appends a slice of pairs (tuple layout), converting to columns.
    pub fn extend_from_pairs(&mut self, pairs: &[(NodeId, NodeId)]) {
        self.sources.extend(pairs.iter().map(|&(s, _)| s));
        self.targets.extend(pairs.iter().map(|&(_, t)| t));
    }

    /// Swaps the two columns in place — an O(1) whole-batch pair swap used by
    /// inverse-path scans to restore the semantic `(source, target)`
    /// orientation.
    pub fn swap_columns(&mut self) {
        std::mem::swap(&mut self.sources, &mut self.targets);
    }
}

/// A batched scan: repeatedly fills a [`PairBatch`] with the next pairs of
/// one label path, in ascending `(source, target)` order.
///
/// Every call clears the batch first, a short batch is not the end, and
/// `Ok(0)` is:
///
/// ```
/// use pathix_datagen::paper_example_graph;
/// use pathix_graph::SignedLabel;
/// use pathix_index::{BatchScan, PairBatch, PathIndexBackend, SharedKPathIndex};
///
/// let g = paper_example_graph();
/// let index = SharedKPathIndex::build(&g, 1);
/// let knows = [SignedLabel::forward(g.label_id("knows").unwrap())];
/// let total = index.path_cardinality(&knows).unwrap() as usize;
///
/// let mut scan = index.scan_path_batches(&knows).unwrap();
/// let mut batch = PairBatch::with_capacity(2);
/// let mut sizes = Vec::new();
/// loop {
///     let n = scan.next_batch(&mut batch).unwrap();
///     assert_eq!(n, batch.len());
///     if n == 0 {
///         break;
///     }
///     sizes.push(n);
/// }
/// assert!(sizes.iter().all(|&n| n <= 2));
/// assert_eq!(sizes.iter().sum::<usize>(), total);
/// ```
pub trait BatchScan {
    /// Clears `batch` and refills it with up to `batch.capacity()` pairs.
    /// Returns the number of pairs produced; `Ok(0)` means the scan is
    /// exhausted (producers may return short, non-empty batches mid-scan,
    /// e.g. at chunk boundaries).
    fn next_batch(&mut self, batch: &mut PairBatch) -> BackendResult<usize>;
}

/// Owned, dynamically dispatched batched scan tied to the backend it reads.
pub type BackendBatchScan<'a> = Box<dyn BatchScan + 'a>;

/// Structural statistics common to every backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendStats {
    /// A short, stable backend name (`"memory"`, `"paged"`, `"compressed"`).
    pub backend: &'static str,
    /// The locality parameter k.
    pub k: usize,
    /// Number of `⟨p, a, b⟩` entries stored.
    pub entries: u64,
    /// Number of distinct non-empty label paths indexed.
    pub distinct_paths: usize,
    /// Approximate resident or on-disk size in bytes.
    pub approx_bytes: u64,
}

/// A storage backend serving the k-path index `I_{G,k}`.
///
/// The trait is object-safe: `pathix-core` stores the selected backend behind
/// one enum, while `pathix-exec`/`pathix-plan` stay generic (`B: ?Sized`
/// bounds accept both concrete backends and `dyn PathIndexBackend`).
pub trait PathIndexBackend {
    /// A short, stable backend name used in errors and reports.
    fn backend_name(&self) -> &'static str;

    /// The locality parameter k the index was built with.
    fn k(&self) -> usize;

    /// Number of nodes of the indexed graph.
    fn node_count(&self) -> usize;

    /// `I_{G,k}(⟨p⟩)`: all pairs of `p(G)` in `(source, target)` order,
    /// delivered a [`PairBatch`] at a time — every backend copies or decodes
    /// whole slices of its physical layout (chunks, encoded chunks, leaf
    /// pages) per call.
    ///
    /// Paths of length 0 or longer than k are a planner contract violation
    /// and produce an error (never a panic), here and from both probes. A
    /// well-formed path that simply has no matches yields an empty scan.
    ///
    /// ```
    /// use pathix_datagen::paper_example_graph;
    /// use pathix_graph::SignedLabel;
    /// use pathix_index::{PairBatch, PathIndexBackend, SharedKPathIndex};
    ///
    /// let g = paper_example_graph();
    /// let index = SharedKPathIndex::build(&g, 2);
    /// let knows = SignedLabel::forward(g.label_id("knows").unwrap());
    /// let works_for = SignedLabel::forward(g.label_id("worksFor").unwrap());
    /// let path = [knows, works_for];
    ///
    /// let mut scan = index.scan_path_batches(&path).unwrap();
    /// let mut batch = PairBatch::new();
    /// let mut batched = Vec::new();
    /// while scan.next_batch(&mut batch).unwrap() > 0 {
    ///     batched.extend(batch.iter());
    /// }
    /// assert_eq!(batched, index.collect_path(&path).unwrap());
    /// assert_eq!(batched.len() as u64, index.path_cardinality(&path).unwrap());
    /// // Longer than k: an error, not a panic.
    /// assert!(index.scan_path_batches(&[knows, knows, knows]).is_err());
    /// ```
    fn scan_path_batches(&self, path: &[SignedLabel]) -> BackendResult<BackendBatchScan<'_>>;

    /// Drains [`scan_path_batches`](Self::scan_path_batches) into one
    /// vector: all of `p(G)` in `(source, target)` order.
    fn collect_path(&self, path: &[SignedLabel]) -> BackendResult<Vec<(NodeId, NodeId)>> {
        let mut scan = self.scan_path_batches(path)?;
        let mut batch = PairBatch::new();
        let mut pairs = Vec::new();
        while scan.next_batch(&mut batch)? > 0 {
            pairs.extend(batch.iter());
        }
        Ok(pairs)
    }

    /// `I_{G,k}(⟨p, source⟩)`: targets reachable from `source` via `p`, in
    /// ascending order.
    fn scan_path_from(&self, path: &[SignedLabel], source: NodeId) -> BackendResult<Vec<NodeId>>;

    /// `I_{G,k}(⟨p, source, target⟩)`: membership test.
    fn contains(&self, path: &[SignedLabel], source: NodeId, target: NodeId)
        -> BackendResult<bool>;

    /// Exact `|p(G)|` for an indexed path (`None` when `|p| > k` or the
    /// relation is empty): a binary search of
    /// [`per_path_counts`](Self::per_path_counts).
    fn path_cardinality(&self, path: &[SignedLabel]) -> Option<u64> {
        let counts = self.per_path_counts();
        counts
            .binary_search_by(|(p, _)| (p.len(), p.as_slice()).cmp(&(path.len(), path)))
            .ok()
            .map(|i| counts[i].1)
    }

    /// Exact per-path cardinalities `(p, |p(G)|)` of the non-empty indexed
    /// paths, strictly ascending by `(length, path)` — the raw material for
    /// the k-path histogram. Every backend counts them off its own storage.
    fn per_path_counts(&self) -> &[(Vec<SignedLabel>, u64)];

    /// Structural statistics of the backend.
    fn stats(&self) -> BackendStats;
}

/// Whether a `⟨p, a, b⟩` entry appeared or disappeared under an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryChange {
    /// The pair gained its first walk: the key now exists.
    Added,
    /// The pair lost its last walk: the key must be removed.
    Removed,
}

/// The key-level effect of a sequence of graph updates: which index entries
/// appeared and disappeared, in order.
///
/// The rederivation rule of [`crate::apply_op`] produces this log **once**
/// per batch, update after update; within one update the records come one
/// per key in ascending key order, so the same updates always log the same
/// bytes. Every storage backend then replays the same log against its own
/// representation — per-path chunk rebuilds for the chunk runs (memory and
/// compressed), B+tree key inserts/deletes for the paged index. The order of
/// the updates matters: a key can be added by one update and removed by a
/// later one within one batch, and replaying the updates out of order would
/// leave it behind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EntryDeltas {
    ops: Vec<(Vec<u8>, EntryChange)>,
}

impl EntryDeltas {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one key transition.
    pub fn record(&mut self, key: &[u8], change: EntryChange) {
        self.ops.push((key.to_vec(), change));
    }

    /// The recorded transitions: update after update, each update's in
    /// ascending key order.
    pub fn ops(&self) -> &[(Vec<u8>, EntryChange)] {
        &self.ops
    }

    /// Number of recorded transitions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Forgets all recorded transitions (keeps the allocations).
    pub fn clear(&mut self) {
        self.ops.clear();
    }
}

/// Everything a storage backend needs to absorb one effective update batch:
/// the ordered key changes [`crate::apply_op`] logged, and the size of the
/// graph they leave behind. Per-path cardinalities are not part of it: each
/// backend counts its own.
#[derive(Debug, Clone, Copy)]
pub struct DeltaBatch<'a> {
    /// Ordered `⟨p, a, b⟩` key transitions of the batch.
    pub deltas: &'a EntryDeltas,
    /// Node count of the committed graph after the batch.
    pub node_count: usize,
    /// Monotonic commit sequence number of the batch (0 for the bulk build).
    /// Durable backends record the highest applied sequence so that
    /// write-ahead-log replay after a crash can skip batches whose effects
    /// already reached the pages.
    pub seq: u64,
}

/// The mutable extension of [`PathIndexBackend`]: a backend that can absorb
/// the key-level effects of live edge updates while staying consistent with a
/// full rebuild over the updated graph.
///
/// The rederivation happens once, backend-agnostically, in
/// [`crate::apply_op`], which walks the graph epochs around each update;
/// implementors only replay the resulting
/// [`DeltaBatch`] against their own storage. Both physical
/// representations implement this: the chunk runs of the memory and the
/// compressed backend (rebuilding, and re-encoding, only the touched chunks)
/// and the paged B+tree (key inserts/deletes with page splits and merges).
pub trait MutablePathIndexBackend: PathIndexBackend {
    /// Replays one batch of key transitions, recounting the per-path
    /// cardinalities of the paths it touched. Returns an error (leaving the backend in need of a
    /// rebuild) only when the underlying storage fails, e.g. I/O trouble on
    /// a disk-resident tree.
    fn apply_delta_batch(&mut self, batch: &DeltaBatch<'_>) -> BackendResult<()>;
}

/// Checks the planner contract `1 ≤ |path| ≤ k`, producing the shared error.
pub fn check_scan_path(backend: &'static str, k: usize, path: &[SignedLabel]) -> BackendResult<()> {
    if path.is_empty() || path.len() > k {
        return Err(BackendError::new(
            backend,
            format!(
                "scan_path expects a path of length 1..={k}, got length {}",
                path.len()
            ),
        ));
    }
    Ok(())
}

impl<B: PathIndexBackend + ?Sized> PathIndexBackend for &B {
    fn backend_name(&self) -> &'static str {
        (**self).backend_name()
    }

    fn k(&self) -> usize {
        (**self).k()
    }

    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn scan_path_batches(&self, path: &[SignedLabel]) -> BackendResult<BackendBatchScan<'_>> {
        (**self).scan_path_batches(path)
    }

    fn scan_path_from(&self, path: &[SignedLabel], source: NodeId) -> BackendResult<Vec<NodeId>> {
        (**self).scan_path_from(path, source)
    }

    fn contains(
        &self,
        path: &[SignedLabel],
        source: NodeId,
        target: NodeId,
    ) -> BackendResult<bool> {
        (**self).contains(path, source, target)
    }

    fn per_path_counts(&self) -> &[(Vec<SignedLabel>, u64)] {
        (**self).per_path_counts()
    }

    fn stats(&self) -> BackendStats {
        (**self).stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_batch_push_swap_and_reuse() {
        let mut batch = PairBatch::with_capacity(2);
        assert!(batch.is_empty());
        assert_eq!(batch.remaining_capacity(), 2);
        batch.push((NodeId(1), NodeId(10)));
        batch.extend_from_pairs(&[(NodeId(2), NodeId(20))]);
        assert!(batch.is_full());
        assert_eq!(batch.get(0), (NodeId(1), NodeId(10)));
        assert_eq!(batch.sources(), &[NodeId(1), NodeId(2)]);
        assert_eq!(batch.targets(), &[NodeId(10), NodeId(20)]);
        batch.swap_columns();
        assert_eq!(
            batch.iter().collect::<Vec<_>>(),
            vec![(NodeId(10), NodeId(1)), (NodeId(20), NodeId(2))]
        );
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.capacity(), 2);
    }

    #[test]
    fn backend_error_display_and_accessors() {
        let e = BackendError::new("paged", "page 7 unreadable");
        assert_eq!(e.backend(), "paged");
        assert_eq!(e.message(), "page 7 unreadable");
        assert!(e.to_string().contains("paged backend error"));
        let io = std::io::Error::other("disk gone");
        let e2 = BackendError::io("paged", &io);
        assert!(e2.message().contains("disk gone"));
    }

    #[test]
    fn entry_deltas_record_in_order() {
        let mut log = EntryDeltas::new();
        assert!(log.is_empty());
        log.record(b"k1", EntryChange::Added);
        log.record(b"k1", EntryChange::Removed);
        log.record(b"k2", EntryChange::Added);
        assert_eq!(log.len(), 3);
        assert_eq!(
            log.ops(),
            &[
                (b"k1".to_vec(), EntryChange::Added),
                (b"k1".to_vec(), EntryChange::Removed),
                (b"k2".to_vec(), EntryChange::Added),
            ]
        );
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn scan_path_contract_is_checked() {
        assert!(check_scan_path("memory", 2, &[]).is_err());
        let l = SignedLabel::from_code(0);
        assert!(check_scan_path("memory", 2, &[l]).is_ok());
        assert!(check_scan_path("memory", 2, &[l, l]).is_ok());
        let err = check_scan_path("memory", 2, &[l, l, l]).unwrap_err();
        assert!(err.message().contains("1..=2"));
    }
}
