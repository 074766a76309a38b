//! [`PathDb`]: graph + pluggable k-path index backend + histogram + query
//! pipeline, with live edge updates on **every** backend.
//!
//! ## Concurrency model
//!
//! A database is a sequence of immutable **snapshots** ([`Snapshot`]): graph,
//! index and histogram bundled behind `Arc`s, tagged with a monotonically
//! increasing **epoch**. Readers clone the current snapshot (two atomic
//! refcounts) and never block writers; [`PathDb::apply`] routes edge updates
//! through the rederivation rule of [`apply_op`], publishes a fresh snapshot
//! and bumps the epoch. Compiled plans are tagged with the epoch they were
//! planned at and transparently replanned on mismatch, so a long-lived
//! [`PreparedQuery`] never serves a plan optimized for statistics that no
//! longer describe the data.
//!
//! ## Update path per backend
//!
//! The rederivation runs **once** per batch ([`apply_op`], walking the graph
//! epochs around each op — the writer keeps no copy of the index); what
//! differs is how each backend absorbs the resulting key transitions.
//! Publishing is **O(Δ)** everywhere — the cost is proportional to the
//! batch's touched neighborhood, never to the index — and snapshots are
//! fully isolated on every backend:
//!
//! * **memory** — the key deltas rebuild only the touched chunks of the
//!   structurally-shared [`SharedKPathIndex`]; everything untouched is
//!   re-shared behind `Arc`s, and old epochs keep theirs;
//! * **paged / on-disk** — the key deltas become B+tree inserts/deletes with
//!   page splits, merges and free-page recycling, written back through the
//!   buffer pool after every batch; pages a published snapshot can reach are
//!   **copy-on-write** — the writer relocates instead of overwriting them and
//!   reclaims superseded pages only after the snapshot dies (see
//!   [`PagedPathIndex::reader_view`]);
//! * **compressed** — the memory backend's index with delta/varint-encoded
//!   chunks ([`CompressedPathStore`]): the same publish, rebuilding (and
//!   re-encoding) only the touched chunks and re-sharing the rest.

use crate::durability;
use crate::error::QueryError;
use crate::options::QueryOptions;
use crate::prepared::{PlanCacheStats, PlanCounters, PreparedQuery};
use crate::result::QueryResult;
use pathix_audit::{AuditReport, StructuralAudit};
use pathix_baselines::{evaluate_automaton, evaluate_datalog};
use pathix_graph::{EdgeOp, Graph, GraphPublishStats, NodeId, SignedLabel, VocabBatch};
use pathix_index::{
    apply_op, BackendBatchScan, BackendError, BackendResult, BackendStats, DeltaBatch, EntryDeltas,
    EstimationMode, GraphUpdate, MutablePathIndexBackend, PathHistogram, PathIndexBackend,
    SharedKPathIndex,
};
use pathix_pagestore::{
    CommitRecord, CompressedPathStore, CowStats, PagedPathIndex, PoolStats, Wal,
};
use pathix_plan::{explain as explain_plan, plan_query, PhysicalPlan, PlannerContext, Strategy};
use pathix_rpq::{parse, to_disjuncts, BoundExpr, LabelPath, RewriteOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Which storage backend serves the k-path index of a [`PathDb`].
///
/// All variants expose the identical [`PathIndexBackend`] contract, so the
/// whole parse → bind → rewrite → plan → execute pipeline runs unchanged on
/// each; they differ in where the index entries live. Every variant supports
/// live updates via [`PathDb::apply`] (see the module docs for how each
/// absorbs them).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// The in-memory chunk-run index (`pathix-index`): fastest, bounded by RAM.
    #[default]
    Memory,
    /// The paged B+tree behind a buffer pool with an **in-memory** page
    /// store: exercises the full paging machinery without touching the
    /// filesystem (useful for tests and for measuring cache behaviour).
    PagedInMemory {
        /// Number of buffer-pool frames (pages kept resident).
        pool_frames: usize,
    },
    /// The paged B+tree stored in a page file on disk: the index can be far
    /// larger than RAM; only `pool_frames` pages are resident at a time.
    OnDisk {
        /// Page file path (created or truncated at build time).
        path: PathBuf,
        /// Number of buffer-pool frames (pages kept resident).
        pool_frames: usize,
    },
    /// The in-memory chunk-run index with every chunk delta/varint-encoded:
    /// smallest footprint, reads decode the chunks they touch.
    Compressed,
}

/// The selected index backend of a [`PathDb`].
///
/// One enum rather than a boxed trait object so the database stays a plain
/// value (no lifetime or allocation games), while still implementing
/// [`PathIndexBackend`] itself — the pipeline underneath is generic and never
/// looks inside. The same enum serves both sides of the database: published
/// snapshots hold a reader view, the writer holds the mutable original those
/// views were taken from.
///
/// ```
/// use pathix_core::{BackendChoice, PathDb, PathDbConfig, PathIndexBackend};
/// use pathix_datagen::paper_example_graph;
///
/// let compressed = PathDb::build(
///     paper_example_graph(),
///     PathDbConfig::with_k(2).with_backend(BackendChoice::Compressed),
/// );
/// let memory = PathDb::build(paper_example_graph(), PathDbConfig::with_k(2));
/// let (c, m) = (compressed.index(), memory.index());
///
/// // Exactly one accessor answers, per backend …
/// assert!(c.as_compressed().is_some() && c.as_memory().is_none() && c.as_paged().is_none());
/// assert!(m.as_memory().is_some() && m.as_compressed().is_none());
/// // … and the trait they all implement does not care which.
/// assert_eq!(c.per_path_counts(), m.per_path_counts());
/// assert!(c.stats().approx_bytes < m.stats().approx_bytes);
/// ```
#[derive(Debug)]
pub enum IndexBackend {
    /// In-memory chunked-run index with structural sharing across epochs.
    Memory(SharedKPathIndex),
    /// Buffer-pool-backed paged index (in-memory or on-disk page store).
    Paged(PagedPathIndex),
    /// The chunk-run index over delta/varint-encoded chunks.
    Compressed(CompressedPathStore),
}

impl IndexBackend {
    /// The in-memory index, when this backend is [`IndexBackend::Memory`].
    pub fn as_memory(&self) -> Option<&SharedKPathIndex> {
        match self {
            IndexBackend::Memory(index) => Some(index),
            _ => None,
        }
    }

    /// The paged index, when this backend is [`IndexBackend::Paged`].
    pub fn as_paged(&self) -> Option<&PagedPathIndex> {
        match self {
            IndexBackend::Paged(index) => Some(index),
            _ => None,
        }
    }

    /// The compressed store, when this backend is
    /// [`IndexBackend::Compressed`].
    pub fn as_compressed(&self) -> Option<&CompressedPathStore> {
        match self {
            IndexBackend::Compressed(store) => Some(store),
            _ => None,
        }
    }
}

macro_rules! delegate {
    ($self:ident, $inner:ident => $body:expr) => {
        match $self {
            IndexBackend::Memory($inner) => $body,
            IndexBackend::Paged($inner) => $body,
            IndexBackend::Compressed($inner) => $body,
        }
    };
}

impl PathIndexBackend for IndexBackend {
    fn backend_name(&self) -> &'static str {
        delegate!(self, b => b.backend_name())
    }

    fn k(&self) -> usize {
        delegate!(self, b => PathIndexBackend::k(b))
    }

    fn node_count(&self) -> usize {
        delegate!(self, b => PathIndexBackend::node_count(b))
    }

    fn scan_path_batches(&self, path: &[SignedLabel]) -> BackendResult<BackendBatchScan<'_>> {
        delegate!(self, b => PathIndexBackend::scan_path_batches(b, path))
    }

    fn scan_path_from(&self, path: &[SignedLabel], source: NodeId) -> BackendResult<Vec<NodeId>> {
        delegate!(self, b => PathIndexBackend::scan_path_from(b, path, source))
    }

    fn contains(
        &self,
        path: &[SignedLabel],
        source: NodeId,
        target: NodeId,
    ) -> BackendResult<bool> {
        delegate!(self, b => PathIndexBackend::contains(b, path, source, target))
    }

    fn per_path_counts(&self) -> &[(Vec<SignedLabel>, u64)] {
        delegate!(self, b => PathIndexBackend::per_path_counts(b))
    }

    fn stats(&self) -> BackendStats {
        delegate!(self, b => PathIndexBackend::stats(b))
    }
}

impl IndexBackend {
    /// Writer side: replays one delta batch into this backend and returns the
    /// reader view to publish — a view no later batch changes.
    fn publish(&mut self, batch: &DeltaBatch<'_>) -> BackendResult<IndexBackend> {
        delegate!(self, b => b.apply_delta_batch(batch))?;
        Ok(self.reader_view())
    }

    /// The payload's own `reader_view`, wrapped back into the enum.
    fn reader_view(&mut self) -> IndexBackend {
        match self {
            IndexBackend::Memory(index) => IndexBackend::Memory(index.reader_view()),
            IndexBackend::Paged(index) => IndexBackend::Paged(index.reader_view()),
            IndexBackend::Compressed(store) => IndexBackend::Compressed(store.reader_view()),
        }
    }
}

impl StructuralAudit for IndexBackend {
    fn audit(&self, report: &mut AuditReport) {
        delegate!(self, b => b.audit(report))
    }
}

/// When [`PathDb::apply`] rebuilds the k-path histogram from the live index's
/// exact per-path counts.
///
/// Stale statistics never make answers wrong — plans are answer-invariant and
/// always execute against the current snapshot — but they steer the
/// `minSupport`/`minJoin` cost model. The policy trades that plan quality
/// against the rebuild cost.
///
/// ```
/// use pathix_core::{GraphUpdate, HistogramRefresh, PathDb, PathDbConfig};
/// use pathix_datagen::paper_example_graph;
///
/// let update = [GraphUpdate::insert_named("sue", "knows", "tim")];
///
/// // The default keeps the statistics exact after every effective batch.
/// assert_eq!(HistogramRefresh::default(), HistogramRefresh::EveryUpdates(1));
/// let eager = PathDb::build(paper_example_graph(), PathDbConfig::with_k(2));
/// assert!(eager.apply(&update).unwrap().histogram_refreshed);
///
/// // Manual: the answer is fresh, the statistics wait for the owner.
/// let config = PathDbConfig::with_k(2).with_histogram_refresh(HistogramRefresh::Manual);
/// let lazy = PathDb::build(paper_example_graph(), config);
/// assert!(!lazy.apply(&update).unwrap().histogram_refreshed);
/// assert!(lazy.query("knows").unwrap().contains_named(&lazy, "sue", "tim"));
/// let epoch = lazy.epoch();
/// assert!(lazy.refresh_histogram());
/// assert_eq!(lazy.epoch(), epoch + 1); // prepared plans are replanned on next use
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramRefresh {
    /// Rebuild once at least `n` effective updates (no-ops excluded) have
    /// accumulated since the last rebuild; `EveryUpdates(1)` keeps the
    /// histogram exact after every batch. `n` is clamped to ≥ 1.
    EveryUpdates(u64),
    /// Never rebuild automatically; the owner calls
    /// [`PathDb::refresh_histogram`] at its own cadence.
    Manual,
}

impl Default for HistogramRefresh {
    fn default() -> Self {
        HistogramRefresh::EveryUpdates(1)
    }
}

/// Configuration of a [`PathDb`].
#[derive(Debug, Clone)]
pub struct PathDbConfig {
    /// Locality parameter k of the path index (the paper evaluates 1–3).
    pub k: usize,
    /// How the k-path histogram summarizes path cardinalities.
    pub estimation: EstimationMode,
    /// Bound substituted for unbounded recursion (`*`, `+`, `{i,}`). The
    /// paper replaces `R*` by `R^{0,n(G)}`; expanding to the full `n(G)` is
    /// usually overkill, so this is an explicit, configurable truncation.
    pub star_bound: u32,
    /// Maximum number of disjuncts a query may expand to.
    pub max_disjuncts: usize,
    /// Strategy used by [`PathDb::query`].
    pub default_strategy: Strategy,
    /// Storage backend serving the index.
    pub backend: BackendChoice,
    /// When [`PathDb::apply`] refreshes the histogram from the live index.
    pub histogram_refresh: HistogramRefresh,
    /// On the on-disk backend: committed batches between graph checkpoints.
    /// Every batch appends one commit record to the write-ahead log *before*
    /// any page writeback; after this many commits the log is folded into a
    /// fresh checkpoint and truncated. Smaller values bound recovery time,
    /// larger values amortize the checkpoint rewrite. Clamped to ≥ 1; ignored
    /// by the other backends.
    pub wal_checkpoint_every: u64,
}

impl Default for PathDbConfig {
    fn default() -> Self {
        PathDbConfig {
            k: 2,
            estimation: EstimationMode::default(),
            star_bound: 4,
            max_disjuncts: 4096,
            default_strategy: Strategy::MinSupport,
            backend: BackendChoice::Memory,
            histogram_refresh: HistogramRefresh::default(),
            wal_checkpoint_every: 256,
        }
    }
}

impl PathDbConfig {
    /// Default configuration with a specific k.
    pub fn with_k(k: usize) -> Self {
        PathDbConfig {
            k,
            ..Self::default()
        }
    }

    /// This configuration with a different storage backend.
    ///
    /// ```
    /// use pathix_core::{BackendChoice, PathDb, PathDbConfig};
    /// use pathix_datagen::paper_example_graph;
    ///
    /// let dir = std::env::temp_dir().join(format!("pathix-doc-backends-{}", std::process::id()));
    /// std::fs::create_dir_all(&dir).unwrap();
    /// let choices = [
    ///     (BackendChoice::Memory, "memory"),
    ///     (BackendChoice::PagedInMemory { pool_frames: 32 }, "paged"),
    ///     (BackendChoice::OnDisk { path: dir.join("index.pages"), pool_frames: 32 }, "paged"),
    ///     (BackendChoice::Compressed, "compressed"),
    /// ];
    /// for (choice, name) in choices {
    ///     let config = PathDbConfig::with_k(2).with_backend(choice.clone());
    ///     assert_eq!(config.backend, choice);
    ///     let db = PathDb::try_build(paper_example_graph(), config).unwrap();
    ///     assert_eq!(db.backend_name(), name);
    ///     // Same pipeline, same answer, wherever the entries live.
    ///     assert_eq!(db.query("supervisor/worksFor-").unwrap().len(), 1);
    /// }
    /// // The on-disk backend keeps a graph checkpoint and its log next to the page file.
    /// assert!(dir.join("index.pages.graph").exists() && dir.join("index.pages.wal").is_dir());
    /// std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn with_backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// This configuration with a different histogram refresh policy.
    pub fn with_histogram_refresh(mut self, policy: HistogramRefresh) -> Self {
        self.histogram_refresh = policy;
        self
    }

    /// This configuration with a different checkpoint cadence (on-disk
    /// backend only).
    pub fn with_wal_checkpoint_every(mut self, batches: u64) -> Self {
        self.wal_checkpoint_every = batches;
        self
    }
}

/// Storage-layer counters: buffer pool and copy-on-write behaviour (paged
/// backends) plus the scan bypass counters every backend maintains for its
/// bound probes.
#[derive(Debug, Clone, Copy)]
pub struct StorageStats {
    /// Buffer-pool hits, misses, evictions and write-backs. `None` on
    /// backends without a buffer pool (memory, compressed).
    pub pool: Option<PoolStats>,
    /// Page copies, retirements and reclamations of the copy-on-write tree,
    /// plus the number of live snapshots. `None` off the paged backends.
    pub cow: Option<CowStats>,
    /// Chunks the memory and compressed backends' bound probes bypassed via
    /// per-run bloom filters and per-chunk source fences (without decoding
    /// them, on the compressed backend).
    pub chunks_skipped: u64,
    /// Pages the paged backend's range scans staged via buffer-pool
    /// read-ahead before a demand read touched them.
    pub read_ahead_pages: u64,
    /// `true` once any flush of the paged tree has failed — including one a
    /// `Drop` attempted as a last resort. The flag is sticky: the page file
    /// may be missing acknowledged writes, and only recovery (reopening and
    /// replaying the write-ahead log) clears the doubt. Always `false` off
    /// the paged backends.
    pub flush_failed: bool,
}

/// Combined statistics of a database instance.
#[derive(Debug, Clone, Copy)]
pub struct DbStats {
    /// Number of graph nodes.
    pub nodes: usize,
    /// Number of graph edges.
    pub edges: usize,
    /// Number of edge labels.
    pub labels: usize,
    /// Statistics of the k-path index backend.
    pub index: BackendStats,
    /// Number of label paths the histogram summarizes.
    pub histogram_paths: usize,
    /// Number of histogram buckets.
    pub histogram_buckets: usize,
    /// Adjacency chunks across all labels and both directions of the current
    /// graph epoch.
    pub graph_chunks: usize,
    /// What the last committed graph epoch re-shared versus rebuilt — all
    /// zeros on a bulk-built database.
    pub graph_publish: GraphPublishStats,
    /// Storage-layer counters (buffer pool, copy-on-write, scan bypasses).
    pub storage: StorageStats,
}

/// What one [`PathDb::apply`] batch did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateStats {
    /// Edges actually inserted (duplicates excluded).
    pub inserted: u64,
    /// Edges actually deleted (absent edges excluded).
    pub deleted: u64,
    /// Updates that changed nothing (duplicate inserts, absent deletes).
    pub no_ops: u64,
    /// Index-entry transitions (keys appeared/disappeared) the batch caused —
    /// the Δ every backend's publish is proportional to.
    pub delta_entries: u64,
    /// The database epoch after the batch. Unchanged when the whole batch
    /// was a no-op.
    pub epoch: u64,
    /// Whether the histogram was rebuilt under the configured
    /// [`HistogramRefresh`] policy.
    pub histogram_refreshed: bool,
}

/// The immutable state one database epoch published: graph, index backend and
/// histogram behind shared pointers.
#[derive(Debug)]
struct DbState {
    graph: Arc<Graph>,
    backend: Arc<IndexBackend>,
    histogram: Arc<PathHistogram>,
    epoch: u64,
}

/// A consistent, immutable view of a [`PathDb`] at one epoch.
///
/// Cloning is two atomic increments; holding a snapshot never blocks readers
/// or writers — updates applied after the snapshot was taken simply publish
/// newer snapshots next to it. Every query execution (and every
/// [`crate::Cursor`]) runs against exactly one snapshot, which is what makes
/// answers consistent under concurrent updates.
#[derive(Debug, Clone)]
pub struct Snapshot {
    state: Arc<DbState>,
}

impl Snapshot {
    fn new(
        graph: Arc<Graph>,
        backend: Arc<IndexBackend>,
        histogram: Arc<PathHistogram>,
        epoch: u64,
    ) -> Self {
        Snapshot {
            state: Arc::new(DbState {
                graph,
                backend,
                histogram,
                epoch,
            }),
        }
    }

    /// The graph as of this snapshot.
    pub fn graph(&self) -> &Graph {
        &self.state.graph
    }

    /// The index backend as of this snapshot.
    pub fn index(&self) -> &IndexBackend {
        &self.state.backend
    }

    /// The histogram as of this snapshot.
    pub fn histogram(&self) -> &PathHistogram {
        &self.state.histogram
    }

    /// The epoch this snapshot was published at (0 = as built).
    pub fn epoch(&self) -> u64 {
        self.state.epoch
    }

    fn graph_arc(&self) -> Arc<Graph> {
        Arc::clone(&self.state.graph)
    }

    fn backend_arc(&self) -> Arc<IndexBackend> {
        Arc::clone(&self.state.backend)
    }

    fn histogram_arc(&self) -> Arc<PathHistogram> {
        Arc::clone(&self.state.histogram)
    }

    /// Plans `disjuncts` under `strategy` against this snapshot's index and
    /// histogram.
    pub(crate) fn plan_disjuncts(
        &self,
        strategy: Strategy,
        disjuncts: &[LabelPath],
    ) -> PhysicalPlan {
        let ctx = PlannerContext::new(self.index(), self.histogram());
        plan_query(strategy, disjuncts, &ctx)
    }
}

/// Writer-side state: the mutable physical backend, the reusable delta-log
/// allocation and the histogram-refresh bookkeeping.
#[derive(Debug)]
struct LiveState {
    /// Whether an update batch reached the writer since build or open; until
    /// one does, the built histogram is exact and a refresh does nothing.
    applied: bool,
    updates_since_refresh: u64,
    /// The key-transition log of the current batch, reused across batches so
    /// steady-state applies stop reallocating it.
    deltas: EntryDeltas,
    /// The mutable backend whose reader views the published snapshots hold.
    writer: IndexBackend,
    /// Set when a delta batch failed midway on a disk-resident backend: the
    /// tree may hold a partial batch, so later applies fail loudly until the
    /// database is rebuilt. Reads keep serving the last published snapshot.
    failed: Option<BackendError>,
    /// Sequence number of the last committed batch (0 = as built/opened with
    /// nothing replayed). Drives the write-ahead log on the on-disk backend
    /// and the paged tree's `applied_seq` metadata everywhere.
    commit_seq: u64,
    /// The write-ahead log and checkpoint machinery — `Some` only on the
    /// on-disk backend.
    durability: Option<Durability>,
}

/// Writer-side durability state of the on-disk backend: the open write-ahead
/// log, where its checkpoint lives, and the checkpoint cadence bookkeeping.
#[derive(Debug)]
struct Durability {
    wal: Wal,
    checkpoint_path: PathBuf,
    /// Committed batches since the last checkpoint.
    records_since_checkpoint: u64,
    /// Cadence from [`PathDbConfig::wal_checkpoint_every`], clamped to ≥ 1.
    checkpoint_every: u64,
}

impl Durability {
    /// Fresh durability state for a just-built database: any stale log is
    /// removed, a checkpoint of `graph` at sequence 0 is written, and an
    /// empty log is opened. Build itself is not crash-atomic — a database
    /// exists only once the build returns.
    fn create(page_path: &Path, graph: &Graph, checkpoint_every: u64) -> std::io::Result<Self> {
        let wal_path = durability::wal_dir(page_path);
        if wal_path.exists() {
            std::fs::remove_dir_all(&wal_path)?;
        }
        let checkpoint_path = durability::checkpoint_path(page_path);
        durability::write_checkpoint(&checkpoint_path, graph, 0)?;
        let wal = Wal::open(&wal_path)?;
        Ok(Durability {
            wal,
            checkpoint_path,
            records_since_checkpoint: 0,
            checkpoint_every: checkpoint_every.max(1),
        })
    }

    /// Folds the log into a checkpoint of `graph` at `seq`: the checkpoint
    /// is written (durably) *before* the log is truncated, so a crash in
    /// between leaves records the checkpoint already covers, which recovery
    /// skips, and never a gap.
    fn checkpoint(&mut self, graph: &Graph, seq: u64) -> std::io::Result<()> {
        durability::write_checkpoint(&self.checkpoint_path, graph, seq)?;
        self.wal.reset()?;
        self.records_since_checkpoint = 0;
        Ok(())
    }
}

/// What rederiving one batch produced: the committed graph epoch, the
/// effective ops in application order, and how many ops were effective
/// inserts, effective deletes and no-ops. The key transitions land in the
/// log [`rederive`] was handed.
struct Rederived {
    graph: Graph,
    effective: Vec<EdgeOp>,
    inserted: u64,
    deleted: u64,
    no_ops: u64,
}

/// The rederivation half of a batch, shared by [`PathDb::apply`] and the
/// replay of a logged record in [`PathDb::open`]: walks `adopted` — the
/// graph with the batch's vocabulary already interned — op by op through
/// [`apply_op`], logging every key transition into `deltas` (cleared
/// first), then commits the effective ops as one new epoch.
fn rederive(
    adopted: &Graph,
    k: usize,
    ops: impl IntoIterator<Item = EdgeOp>,
    deltas: &mut EntryDeltas,
) -> Rederived {
    // Each step of the scratch chain re-shares every untouched chunk of
    // the one before.
    let mut walked = adopted.clone();
    deltas.clear();
    let mut effective = Vec::new();
    let (mut inserted, mut deleted, mut no_ops) = (0, 0, 0);
    for op in ops {
        if !apply_op(&mut walked, k, op, deltas) {
            no_ops += 1;
            continue;
        }
        if op.insert {
            inserted += 1;
        } else {
            deleted += 1;
        }
        effective.push(op);
    }
    // The committed epoch is one commit of the effective ops, not the
    // scratch chain: O(Δ), untouched labels and chunks are re-shared by
    // refcount bump, never copied.
    let graph = adopted.commit_batch(adopted.vocab_batch(), &effective);
    Rederived {
        graph,
        effective,
        inserted,
        deleted,
        no_ops,
    }
}

/// An RPQ-queryable graph database backed by a localized k-path index.
///
/// The index lives behind the backend selected in
/// [`PathDbConfig::backend`]; queries run the same pipeline on every
/// backend and surface backend I/O failures as
/// [`QueryError::Backend`] instead of panicking.
///
/// Every database is **live**, regardless of backend: [`PathDb::apply`]
/// absorbs edge insertions and deletions through the rederivation rule of
/// [`apply_op`], hands the resulting key transitions to the selected
/// backend, and publishes a fresh [`Snapshot`]; concurrent readers keep
/// streaming from the snapshot they opened (see [`crate::Cursor`]).
#[derive(Debug)]
pub struct PathDb {
    /// The currently published snapshot. Writers swap it; readers clone it.
    state: RwLock<Snapshot>,
    /// Writer serialization point + the writer-side state.
    live: Mutex<LiveState>,
    config: PathDbConfig,
    /// Where [`PreparedQuery`] records its planning runs and plan reuses.
    pub(crate) plan_counters: PlanCounters,
    /// Cumulative pairs pulled from operator trees across every execution of
    /// this database, including cursors that terminated early (flushed on
    /// cursor drop).
    pulled_total: Arc<AtomicU64>,
    /// Process-unique id used to pin [`PreparedQuery`] handles to the
    /// database whose vocabulary they were compiled against.
    instance_id: u64,
}

/// Source of [`PathDb::instance_id`] values.
static NEXT_INSTANCE_ID: AtomicU64 = AtomicU64::new(1);

impl PathDb {
    /// Builds the index and histogram for `graph` under `config`.
    ///
    /// Backend construction for `PagedInMemory`/`OnDisk` performs I/O; any
    /// failure is reported as [`QueryError::Backend`].
    pub fn try_build(graph: Graph, config: PathDbConfig) -> Result<Self, QueryError> {
        let k = config.k;
        let writer = match &config.backend {
            BackendChoice::Memory => IndexBackend::Memory(SharedKPathIndex::build(&graph, k)),
            BackendChoice::PagedInMemory { pool_frames } => IndexBackend::Paged(
                PagedPathIndex::build_in_memory(&graph, k, *pool_frames)
                    .map_err(|e| BackendError::io("paged", &e))?,
            ),
            BackendChoice::OnDisk { path, pool_frames } => IndexBackend::Paged(
                PagedPathIndex::build_on_disk(&graph, k, path, *pool_frames)
                    .map_err(|e| BackendError::io("paged", &e))?,
            ),
            BackendChoice::Compressed => {
                IndexBackend::Compressed(CompressedPathStore::build_in(&graph, k))
            }
        };
        // The on-disk backend is durable from the first commit: checkpoint
        // the built graph and open an empty write-ahead log next to the page
        // file before any update can be accepted.
        let durable = match &config.backend {
            BackendChoice::OnDisk { path, .. } => Some(
                Durability::create(path, &graph, config.wal_checkpoint_every)
                    .map_err(|e| BackendError::io("wal", &e))?,
            ),
            _ => None,
        };
        Ok(Self::assemble(graph, writer, config, 0, durable))
    }

    /// The constructor tail [`PathDb::try_build`] and [`PathDb::open`] share:
    /// publishes the writer's first reader view with a histogram built from
    /// it, at epoch 0.
    fn assemble(
        graph: Graph,
        mut writer: IndexBackend,
        config: PathDbConfig,
        commit_seq: u64,
        durability: Option<Durability>,
    ) -> Self {
        let backend = writer.reader_view();
        let histogram =
            PathHistogram::build(backend.per_path_counts(), config.k, config.estimation);
        let snapshot = Snapshot::new(Arc::new(graph), Arc::new(backend), Arc::new(histogram), 0);
        PathDb {
            state: RwLock::new(snapshot),
            live: Mutex::new(LiveState {
                applied: false,
                updates_since_refresh: 0,
                deltas: EntryDeltas::new(),
                writer,
                failed: None,
                commit_seq,
                durability,
            }),
            config,
            plan_counters: PlanCounters::default(),
            pulled_total: Arc::new(AtomicU64::new(0)),
            instance_id: NEXT_INSTANCE_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Builds the index and histogram for `graph` under `config`.
    ///
    /// # Panics
    /// Panics if the configured backend fails to initialize (I/O on the
    /// paged backends). Use [`PathDb::try_build`] to handle that case.
    ///
    /// ```
    /// use pathix_core::{PathDb, PathDbConfig};
    /// use pathix_datagen::paper_example_graph;
    ///
    /// let db = PathDb::build(paper_example_graph(), PathDbConfig::with_k(2));
    /// assert_eq!((db.k(), db.epoch(), db.backend_name()), (2, 0, "memory"));
    /// // Section 2.2 of the paper: supervisor ∘ worksFor⁻ = {(kim, sue)}.
    /// let answer = db.query("supervisor/worksFor-").unwrap();
    /// assert_eq!(answer.named_pairs(&db), [("kim".to_string(), "sue".to_string())]);
    /// ```
    pub fn build(graph: Graph, config: PathDbConfig) -> Self {
        Self::try_build(graph, config).expect("index backend construction failed")
    }

    /// Builds with the default configuration (k = 2, equi-depth histogram,
    /// minSupport planning, in-memory backend).
    pub fn with_defaults(graph: Graph) -> Self {
        Self::build(graph, PathDbConfig::default())
    }

    /// A live database over an empty graph and an empty vocabulary — the
    /// entry point for pure-streaming ingest, where every node, label and
    /// edge arrives through [`PathDb::apply`] batches of name-based updates
    /// ([`GraphUpdate::InsertEdgeNamed`]).
    ///
    /// ```
    /// use pathix_core::{GraphUpdate, PathDb, PathDbConfig};
    ///
    /// let db = PathDb::empty(PathDbConfig::with_k(2)).unwrap();
    /// assert_eq!((db.stats().nodes, db.stats().labels), (0, 0));
    /// // Nothing is known yet, so nothing binds.
    /// assert!(db.query("knows").is_err());
    ///
    /// db.apply(&[
    ///     GraphUpdate::insert_named("ada", "knows", "jan"),
    ///     GraphUpdate::insert_named("jan", "worksFor", "acme"),
    /// ])
    /// .unwrap();
    /// assert_eq!((db.stats().nodes, db.stats().labels), (3, 2));
    /// assert!(db.query("knows/worksFor").unwrap().contains_named(&db, "ada", "acme"));
    /// ```
    pub fn empty(config: PathDbConfig) -> Result<Self, QueryError> {
        Self::try_build(Graph::empty(), config)
    }

    /// Opens a previously built **on-disk** database from its durable state:
    /// the page file, the graph checkpoint next to it, and the write-ahead
    /// log. The checkpoint is one framed *base record* — the graph as one
    /// [`CommitRecord`], every name new and every edge an insert — and the
    /// graph is built from it in bulk. Every committed batch past the
    /// checkpoint is replayed — its node and label names re-interned in the
    /// original id order, so the live vocabulary (and with it every index
    /// key) survives the crash — then folded into a fresh checkpoint so the
    /// next open starts clean. A log that holds nothing is left as it is: a
    /// clean reopen rewrites neither checkpoint nor log. The index comes back
    /// from the page file's roots — its per-path counts are stored beside the
    /// tree's root — without reading a leaf.
    ///
    /// Replay is apply: a record the page file already absorbed (its seq is
    /// at or below the tree's persisted sequence number) only advances the
    /// graph; a later one is rederived from its edge ops by the code
    /// [`PathDb::apply`] runs, on the epoch it was committed against, and
    /// handed to the tree through the same delta-batch call, flushed durably
    /// before the next. A logged op that changes nothing there means the log
    /// is corrupt. Replay is therefore idempotent and itself restartable:
    /// a crash at *any* point — mid-append, mid-writeback, mid-checkpoint,
    /// or mid-recovery — lands in a state this function repairs.
    /// With `PATHIX_AUDIT=1` in the environment, a full structural audit
    /// runs after every replayed batch.
    ///
    /// The base record and every logged record pass one check before
    /// anything is built from them: each name interns to the next id, the
    /// labels fit the label cap, and every op names interned ids; the base
    /// record also holds only inserts. A damaged log frame is dropped only
    /// as the log's torn tail, with nothing after it; anywhere else it would
    /// silently drop acknowledged batches. A page file whose applied
    /// sequence number is past the last replayed commit holds batches the
    /// log cannot rebuild the graph for.
    ///
    /// Requires [`BackendChoice::OnDisk`] in `config`; anything else (and any
    /// missing, torn or inconsistent durable state: a record that fails the
    /// check, a damaged frame before the log's tail, a page file ahead of
    /// the log, a logged op that is a no-op) is [`QueryError::Recovery`].
    ///
    /// ```
    /// use pathix_core::{BackendChoice, GraphUpdate, PathDb, PathDbConfig, QueryError};
    /// use pathix_datagen::paper_example_graph;
    ///
    /// let dir = std::env::temp_dir().join(format!("pathix-doc-open-{}", std::process::id()));
    /// std::fs::create_dir_all(&dir).unwrap();
    /// let config = PathDbConfig::with_k(2)
    ///     .with_backend(BackendChoice::OnDisk { path: dir.join("index.pages"), pool_frames: 32 });
    ///
    /// let db = PathDb::try_build(paper_example_graph(), config.clone()).unwrap();
    /// db.apply(&[GraphUpdate::insert_named("max", "knows", "ada")]).unwrap();
    /// let before = db.query("knows/knows").unwrap();
    /// // The process dies here: no close, no checkpoint, no destructor.
    /// std::mem::forget(db);
    ///
    /// // The acknowledged batch comes back from the log — interned name included.
    /// let reopened = PathDb::open(config).unwrap();
    /// assert!(reopened.graph().node_id("max").is_some());
    /// assert_eq!(reopened.query("knows/knows").unwrap().pairs(), before.pairs());
    /// assert!(reopened.audit().is_clean());
    /// reopened.close().unwrap();
    ///
    /// // Only the on-disk backend has durable state to open.
    /// let err = PathDb::open(PathDbConfig::with_k(2)).unwrap_err();
    /// assert!(matches!(err, QueryError::Recovery(_)));
    /// std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn open(config: PathDbConfig) -> Result<Self, QueryError> {
        let BackendChoice::OnDisk { path, pool_frames } = config.backend.clone() else {
            return Err(QueryError::Recovery(
                "PathDb::open requires BackendChoice::OnDisk; \
                 the other backends have no durable state to open"
                    .into(),
            ));
        };
        let checkpoint_path = durability::checkpoint_path(&path);
        let wal_path = durability::wal_dir(&path);
        let (mut graph, checkpoint_seq) = durability::load_checkpoint(&checkpoint_path)
            .map_err(|e| QueryError::Recovery(format!("loading the graph checkpoint: {e}")))?;
        let mut records = Vec::new();
        for payload in Wal::replay(&wal_path)
            .map_err(|e| QueryError::Recovery(format!("reading the write-ahead log: {e}")))?
        {
            records.push(
                CommitRecord::decode(&payload)
                    .map_err(|e| QueryError::Recovery(format!("decoding a commit record: {e}")))?,
            );
        }
        // A fresh record sets the index's node count the way a live batch
        // does. When every record is stale none does, so the index starts
        // at the node count the whole log leaves behind.
        let recovered_nodes = graph.node_count()
            + records
                .iter()
                .filter(|record| record.seq > checkpoint_seq)
                .map(|record| record.new_nodes.len())
                .sum::<usize>();
        let mut paged = PagedPathIndex::open(&path, config.k, pool_frames, recovered_nodes)
            .map_err(|e| QueryError::Recovery(format!("opening the page file: {e}")))?;
        let audit_each_batch = std::env::var("PATHIX_AUDIT").is_ok_and(|v| v == "1");
        let mut deltas = EntryDeltas::new();
        let mut seq = checkpoint_seq;
        for record in records {
            if record.seq <= checkpoint_seq {
                // An interrupted log truncation can leave records the
                // checkpoint already covers; they are fully absorbed.
                continue;
            }
            if record.seq != seq + 1 {
                return Err(QueryError::Recovery(format!(
                    "write-ahead log gap: expected commit {} next, found {}",
                    seq + 1,
                    record.seq
                )));
            }
            let replay_error = |what: String| {
                QueryError::Recovery(format!("replaying commit {}: {what}", record.seq))
            };
            // Re-intern the batch's names in id order, each to the next id:
            // this reproduces the pre-crash ids, and with them every index
            // key.
            let mut vocab = graph.vocab_batch();
            durability::check_record(
                &record,
                &mut vocab,
                (graph.node_count(), graph.label_count()),
                VocabBatch::intern_node,
                VocabBatch::intern_label,
            )
            .map_err(replay_error)?;
            let adopted = graph.commit_batch(vocab, &[]);
            graph = if record.seq <= paged.applied_seq() {
                // The tree absorbed this batch before the crash.
                adopted.commit_batch(adopted.vocab_batch(), &record.ops)
            } else {
                // The batch a live apply ran, rederived from its ops on the
                // epoch it was committed against, where each op is
                // effective.
                let batch = rederive(&adopted, config.k, record.ops, &mut deltas);
                if batch.no_ops > 0 {
                    return Err(replay_error(format!(
                        "{} logged op(s) change nothing on the recovered graph",
                        batch.no_ops
                    )));
                }
                paged
                    .apply_delta_batch(&DeltaBatch {
                        deltas: &deltas,
                        node_count: batch.graph.node_count(),
                        seq: record.seq,
                    })
                    .map_err(|e| replay_error(e.to_string()))?;
                batch.graph
            };
            seq = record.seq;
            if audit_each_batch {
                let mut report = AuditReport::new();
                report.run("graph", &graph);
                report.run("writer/paged", &paged);
                if !report.is_clean() {
                    return Err(QueryError::Recovery(format!(
                        "commit {} fails the structural audit after replay: {:?}",
                        record.seq,
                        report.violations()
                    )));
                }
            }
        }
        if paged.applied_seq() > seq {
            return Err(QueryError::Recovery(format!(
                "the page file holds commit {} but the log ends at commit {seq}",
                paged.applied_seq()
            )));
        }
        // Fold what replay recovered into a fresh checkpoint and start an
        // empty log: the next open replays only what comes after this one.
        // A log without a byte in it (no record to fold, no torn tail to
        // cut) is that state already: a clean reopen leaves both alone.
        let mut durability = Durability {
            wal: Wal::open(&wal_path)
                .map_err(|e| QueryError::Recovery(format!("reopening the write-ahead log: {e}")))?,
            checkpoint_path,
            records_since_checkpoint: 0,
            checkpoint_every: config.wal_checkpoint_every.max(1),
        };
        let log = durability.wal.stats();
        if log.segments > 1 || log.current_segment_bytes > 0 {
            durability.checkpoint(&graph, seq).map_err(|e| {
                QueryError::Recovery(format!("checkpointing the replayed log: {e}"))
            })?;
        }
        let writer = IndexBackend::Paged(paged);
        Ok(Self::assemble(graph, writer, config, seq, Some(durability)))
    }

    /// Flushes and closes the writer-side storage, surfacing any I/O failure
    /// that a drop-time flush would have had to swallow. On the on-disk
    /// backend this also folds the write-ahead log into a final checkpoint
    /// (unless the writer failed — then the log is preserved for the next
    /// [`PathDb::open`] to recover from). Reads keep working afterwards;
    /// this is meant as the last call before the database is dropped.
    pub fn close(&self) -> Result<(), QueryError> {
        // Closing a panicked writer is legitimate — recover the guard.
        let mut live = self
            .live
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let live_state = &mut *live;
        if let IndexBackend::Paged(index) = &mut live_state.writer {
            index
                .close()
                .map_err(|e| QueryError::Backend(BackendError::io("paged", &e)))?;
        }
        if let Some(durable) = live_state.durability.as_mut() {
            if live_state.failed.is_none() {
                // The tree is durably at `commit_seq`, so the log is
                // redundant: checkpoint and truncate it for a clean reopen.
                durable
                    .checkpoint(self.snapshot().graph(), live_state.commit_seq)
                    .map_err(|e| QueryError::Backend(BackendError::io("wal", &e)))?;
            }
        }
        Ok(())
    }

    /// A consistent view of the database as of now. All read accessors below
    /// are shorthands over this.
    ///
    /// ```
    /// use pathix_core::{GraphUpdate, PathDb, PathDbConfig, PathIndexBackend};
    /// use pathix_datagen::paper_example_graph;
    ///
    /// let db = PathDb::build(paper_example_graph(), PathDbConfig::with_k(2));
    /// let old = db.snapshot();
    /// db.apply(&[GraphUpdate::insert_named("sue", "knows", "tim")]).unwrap();
    /// let new = db.snapshot();
    ///
    /// // The old view is untouched by the batch published next to it.
    /// assert_eq!((old.epoch(), new.epoch()), (0, 1));
    /// assert_eq!(old.graph().edge_count() + 1, new.graph().edge_count());
    /// assert!(old.index().stats().entries < new.index().stats().entries);
    /// assert_eq!(old.index().k(), old.histogram().k());
    /// ```
    pub fn snapshot(&self) -> Snapshot {
        // Snapshots are immutable once published, so even a poisoned lock
        // (a writer panicked mid-swap of the `Snapshot` *pointer*, which is
        // a plain assignment and cannot leave it torn) guards valid data:
        // recover it instead of propagating the panic to every reader.
        self.state
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// The current graph (shared with the snapshot it came from).
    pub fn graph(&self) -> Arc<Graph> {
        self.snapshot().graph_arc()
    }

    /// The currently published k-path index backend.
    pub fn index(&self) -> Arc<IndexBackend> {
        self.snapshot().backend_arc()
    }

    /// The short name of the active backend (`"memory"`, `"paged"`,
    /// `"compressed"`).
    pub fn backend_name(&self) -> &'static str {
        self.snapshot().index().backend_name()
    }

    /// The current k-path histogram.
    pub fn histogram(&self) -> Arc<PathHistogram> {
        self.snapshot().histogram_arc()
    }

    /// The current database epoch: 0 as built, bumped by every effective
    /// [`PathDb::apply`] batch and every [`PathDb::refresh_histogram`].
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// The configuration the database was built with.
    pub fn config(&self) -> &PathDbConfig {
        &self.config
    }

    /// Counters of the query front end: compilations, planning runs and
    /// prepared executions served by an existing plan. The acceptance check
    /// for prepared queries — N executions, one compilation, at most one
    /// plan per strategy *per epoch* — is assertable from this snapshot.
    ///
    /// ```
    /// use pathix_core::{PathDb, PathDbConfig, PlanCacheStats, QueryOptions};
    /// use pathix_datagen::paper_example_graph;
    ///
    /// let db = PathDb::build(paper_example_graph(), PathDbConfig::with_k(2));
    /// // Ad hoc: every call compiles and plans.
    /// db.query("knows/knows").unwrap();
    /// db.query("knows/knows").unwrap();
    /// let ad_hoc = PlanCacheStats { hits: 0, compilations: 2, plans: 2 };
    /// assert_eq!(db.plan_cache_stats(), ad_hoc);
    /// // Prepared: one compilation, then the handle's plan serves each run.
    /// let prepared = db.prepare("knows/knows").unwrap();
    /// for _ in 0..3 {
    ///     prepared.run(&db, QueryOptions::new()).unwrap();
    /// }
    /// let both = PlanCacheStats { hits: 2, compilations: 3, plans: 3 };
    /// assert_eq!(db.plan_cache_stats(), both);
    /// ```
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_counters.stats()
    }

    /// The process-unique identity of this database instance.
    pub(crate) fn instance_id(&self) -> u64 {
        self.instance_id
    }

    /// Cumulative pairs pulled from operator trees across every execution on
    /// this database. Cursors flush their pull count here when dropped, so
    /// early-terminated `limit`/`exists` runs report the work they actually
    /// did rather than vanishing from the accounting.
    pub fn pairs_pulled_total(&self) -> u64 {
        self.pulled_total.load(Ordering::Relaxed)
    }

    /// The sink cursors flush into (shared so cursors can outlive no borrow).
    pub(crate) fn pulled_sink(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.pulled_total)
    }

    /// Records pulls from a batch (non-cursor) execution.
    pub(crate) fn record_pulled(&self, pulled: usize) {
        self.pulled_total
            .fetch_add(pulled as u64, Ordering::Relaxed);
    }

    /// The locality parameter k.
    pub fn k(&self) -> usize {
        self.config.k
    }

    /// Applies a batch of edge insertions and deletions, returning what the
    /// batch did. Works identically on **every** backend.
    ///
    /// Updates route through the rederivation rule of [`apply_op`], which
    /// walks the graph one op at a time on a scratch chain of epochs; the
    /// batch then commits its effective ops as one new graph epoch,
    /// refreshes the histogram under [`PathDbConfig::histogram_refresh`], and
    /// publishes a new [`Snapshot`] with a bumped epoch. Every backend
    /// replays the same key deltas against its own storage — chunk rebuilds
    /// with structural sharing on memory and compressed (re-encoding the
    /// rebuilt chunks there), copy-on-write B+tree inserts/deletes with page
    /// writeback on the paged backends — so publishing costs O(batch), not
    /// O(index). Readers are never blocked: queries and cursors opened before
    /// the batch keep answering **bit-identically** from their own snapshot
    /// on every backend, and a [`PreparedQuery`]'s plans from older epochs are
    /// transparently replanned on next use.
    ///
    /// Id-based updates must reference interned node and label ids
    /// ([`QueryError::InvalidUpdate`] otherwise); the whole batch is
    /// validated before anything is applied. Name-based updates
    /// ([`GraphUpdate::InsertEdgeNamed`] / [`GraphUpdate::DeleteEdgeNamed`])
    /// resolve against the live vocabulary: insertions intern unseen node
    /// and label names on the fly (streaming ingest — see [`PathDb::empty`]),
    /// while deletions of unknown names are no-ops that intern nothing. A
    /// batch that fails midway on a disk-resident backend
    /// ([`QueryError::Backend`]) rejects all further updates until the
    /// database is rebuilt; reads are unaffected on every backend —
    /// published snapshots pin their own pages, which the failed writer
    /// never touched.
    ///
    /// ```
    /// use pathix_core::{GraphUpdate, NodeId, PathDb, PathDbConfig, QueryError};
    /// use pathix_datagen::paper_example_graph;
    ///
    /// let db = PathDb::build(paper_example_graph(), PathDbConfig::with_k(2));
    /// let g = db.graph();
    /// let (kim, liz) = (g.node_id("kim").unwrap(), g.node_id("liz").unwrap());
    /// let supervisor = g.label_id("supervisor").unwrap();
    ///
    /// let stats = db
    ///     .apply(&[
    ///         GraphUpdate::delete(kim, supervisor, liz),
    ///         GraphUpdate::insert_named("liz", "supervisor", "kim"),
    ///         GraphUpdate::insert_named("liz", "supervisor", "kim"), // already there by now
    ///     ])
    ///     .unwrap();
    /// assert_eq!((stats.inserted, stats.deleted, stats.no_ops, stats.epoch), (1, 1, 1, 1));
    /// assert!(stats.delta_entries > 0);
    /// assert!(db.query("supervisor").unwrap().contains(liz, kim));
    /// // supervisor ∘ worksFor⁻ follows: it was {(kim, sue)}, now liz oversees kim's staff.
    /// let staff = db.query("supervisor/worksFor-").unwrap();
    /// assert!(!staff.contains_named(&db, "kim", "sue"));
    /// assert!(staff.contains_named(&db, "liz", "tim") && staff.contains_named(&db, "liz", "joe"));
    ///
    /// // An id nobody interned rejects the whole batch before anything is applied.
    /// let bad = [
    ///     GraphUpdate::insert_named("ada", "knows", "liz"),
    ///     GraphUpdate::insert(NodeId(999), supervisor, kim),
    /// ];
    /// assert!(matches!(db.apply(&bad), Err(QueryError::InvalidUpdate(_))));
    /// assert_eq!(db.epoch(), 1);
    /// ```
    pub fn apply(&self, updates: &[GraphUpdate]) -> Result<UpdateStats, QueryError> {
        // Writers serialize on the live-state lock; the snapshot lock is only
        // taken (briefly) to read the current state and to publish the result.
        // A poisoned lock means a previous writer panicked mid-apply: the
        // data behind it is still inspectable (recover the guard), but the
        // writer-side state cannot be trusted, so the write is rejected —
        // with the original backend error when one was recorded, and
        // [`QueryError::WriterPoisoned`] otherwise.
        let mut live = match self.live.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let guard = poisoned.into_inner();
                return Err(match &guard.failed {
                    Some(e) => QueryError::Backend(e.clone()),
                    None => QueryError::WriterPoisoned,
                });
            }
        };
        if let Some(e) = &live.failed {
            return Err(QueryError::Backend(e.clone()));
        }
        let current = self.snapshot();
        // Phase 1: validate the whole batch before touching any state.
        for update in updates {
            validate_update(current.graph(), update)?;
        }
        // Phase 2: resolve names to ids, interning new vocabulary (insertions
        // only — the one fallible step, the label-capacity check, ran above).
        let mut vocab = current.graph().vocab_batch();
        let mut resolved: Vec<Option<EdgeOp>> = Vec::with_capacity(updates.len());
        for update in updates {
            resolved.push(resolve_update(&mut vocab, update)?);
        }

        let live_state = &mut *live;
        live_state.applied = true;

        // The rule walks the graph epochs around each op: adopt the batch's
        // vocabulary once, then rederive (an unresolved name is a no-op).
        let adopted = current.graph().commit_batch(vocab, &[]);
        let unresolved = resolved.iter().filter(|op| op.is_none()).count() as u64;
        let Rederived {
            graph,
            effective,
            inserted,
            deleted,
            no_ops,
        } = rederive(
            &adopted,
            self.config.k,
            resolved.into_iter().flatten(),
            &mut live_state.deltas,
        );
        let no_ops = no_ops + unresolved;
        let vocab_grew = adopted.node_count() != current.graph().node_count()
            || adopted.label_count() != current.graph().label_count();
        if effective.is_empty() && !vocab_grew {
            // The whole batch was a no-op: nothing changed, nothing to
            // publish, plans stay valid.
            return Ok(UpdateStats {
                inserted: 0,
                deleted: 0,
                no_ops,
                delta_entries: 0,
                epoch: current.epoch(),
                histogram_refreshed: false,
            });
        }
        // The refresh decision is taken on the *pending* count, but the
        // counter itself only advances after the batch has durably committed
        // and published — a failed apply must not consume refresh budget for
        // updates that never landed.
        let pending_updates = live_state.updates_since_refresh + inserted + deleted;
        let refresh = match self.config.histogram_refresh {
            HistogramRefresh::EveryUpdates(n) => pending_updates >= n.max(1),
            HistogramRefresh::Manual => false,
        };

        // Durability (on-disk backend): the commit record — interned names
        // and effective ops — must be appended *and* synced before the
        // paged tree absorbs the batch, because the buffer pool may evict
        // (write back) pages at any point during the tree mutation. A
        // logged-but-never-applied batch is rederived on open; an
        // applied-but-never-logged batch would be unrecoverable.
        let seq = live_state.commit_seq + 1;
        if let Some(durable) = live_state.durability.as_mut() {
            let record = durability::commit_record(seq, current.graph(), &graph, effective);
            if let Err(e) = durable
                .wal
                .append(&record.encode())
                .and_then(|()| durable.wal.sync())
            {
                let e = BackendError::io("wal", &e);
                live_state.failed = Some(e.clone());
                return Err(QueryError::Backend(e));
            }
        }

        // Publish. The rederivation ran once above; each backend now
        // absorbs the same key transitions its own way — in O(Δ), never by
        // rebuilding or re-freezing the whole index.
        let batch = DeltaBatch {
            deltas: &live_state.deltas,
            node_count: graph.node_count(),
            seq,
        };
        let backend = match live_state.writer.publish(&batch) {
            Ok(backend) => backend,
            Err(e) => {
                // The physical backend may hold a partial batch that was
                // never published: poison the writer so every later apply
                // (and manual histogram refresh) fails loudly instead of
                // publishing diverged state.
                live_state.failed = Some(e.clone());
                return Err(QueryError::Backend(e));
            }
        };
        // The histogram summarizes the counts of the backend just published.
        let histogram = if refresh {
            Arc::new(PathHistogram::build(
                backend.per_path_counts(),
                self.config.k,
                self.config.estimation,
            ))
        } else {
            current.histogram_arc()
        };
        live_state.commit_seq = seq;
        live_state.updates_since_refresh = if refresh { 0 } else { pending_updates };
        let epoch = current.epoch() + 1;
        let graph = Arc::new(graph);
        *self
            .state
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) =
            Snapshot::new(Arc::clone(&graph), Arc::new(backend), histogram, epoch);

        // Checkpoint cadence: fold the log into a fresh graph checkpoint and
        // truncate it. The batch itself is already committed (logged,
        // applied, published); a failure here is pure log maintenance, but it
        // still poisons the writer — the next open recovers from the intact
        // log, and continuing to append to a log that can no longer be
        // truncated would hide the fault.
        if let Some(durable) = live_state.durability.as_mut() {
            durable.records_since_checkpoint += 1;
            if durable.records_since_checkpoint >= durable.checkpoint_every {
                if let Err(e) = durable.checkpoint(&graph, seq) {
                    let e = BackendError::io("wal", &e);
                    live_state.failed = Some(e.clone());
                    return Err(QueryError::Backend(e));
                }
            }
        }
        Ok(UpdateStats {
            inserted,
            deleted,
            no_ops,
            delta_entries: live_state.deltas.len() as u64,
            epoch,
            histogram_refreshed: refresh,
        })
    }

    /// Rebuilds the histogram from the published backend's exact per-path
    /// counts right now, regardless of the configured [`HistogramRefresh`]
    /// policy, and bumps the epoch so prepared plans re-cost themselves
    /// against the fresh statistics. Returns `false` (and does nothing) when
    /// no update was ever applied — the built histogram is still exact.
    pub fn refresh_histogram(&self) -> bool {
        // A poisoned writer lock means the writer may be ahead of the
        // published state — same reason as `failed` below, same answer.
        let Ok(mut live) = self.live.lock() else {
            return false;
        };
        let live_state = &mut *live;
        if live_state.failed.is_some() || !live_state.applied {
            // A failed writer refreshes nothing, as it applies nothing;
            // without any update the built histogram is still exact.
            return false;
        }
        let current = self.snapshot();
        let histogram = Arc::new(PathHistogram::build(
            current.index().per_path_counts(),
            self.config.k,
            self.config.estimation,
        ));
        live_state.updates_since_refresh = 0;
        *self
            .state
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Snapshot::new(
            current.graph_arc(),
            current.backend_arc(),
            histogram,
            current.epoch() + 1,
        );
        true
    }

    /// Parses and binds a query against this database's vocabulary.
    pub fn compile(&self, query: &str) -> Result<BoundExpr, QueryError> {
        Ok(parse(query)?.bind(self.snapshot().graph())?)
    }

    /// Rewrites a compiled query into its label-path disjuncts.
    pub fn disjuncts(&self, expr: &BoundExpr) -> Result<Vec<LabelPath>, QueryError> {
        let options = RewriteOptions {
            star_bound: self.config.star_bound,
            max_disjuncts: self.config.max_disjuncts,
        };
        Ok(to_disjuncts(expr, options)?)
    }

    /// Prepares a query: one parse → bind → rewrite, with physical plans
    /// planned lazily per strategy (and replanned per epoch — see
    /// [`PathDb::apply`]). The returned handle executes many times against
    /// this database via [`PreparedQuery::run`] / [`PreparedQuery::cursor`].
    pub fn prepare(&self, query: &str) -> Result<PreparedQuery, QueryError> {
        self.plan_counters.record_compilation();
        let disjuncts = self.disjuncts(&self.compile(query)?)?;
        Ok(PreparedQuery::new(
            query.to_owned(),
            disjuncts,
            self.instance_id,
        ))
    }

    /// Plans a query with the given strategy without executing it.
    /// Compiles and plans on every call.
    pub fn plan(&self, query: &str, strategy: Strategy) -> Result<PhysicalPlan, QueryError> {
        // The temporary handle drops its slot's reference at the end of the
        // statement, so the plan moves out without a deep clone.
        let plan = self.prepare(query)?.plan(self, strategy)?;
        Ok(Arc::try_unwrap(plan).unwrap_or_else(|shared| shared.as_ref().clone()))
    }

    /// Evaluates a query with the default strategy and options.
    ///
    /// Every call compiles and plans the text afresh (a few microseconds for
    /// a text of a few disjuncts); [`PathDb::prepare`] pays that once for a
    /// text run many times.
    pub fn query(&self, query: &str) -> Result<QueryResult, QueryError> {
        self.run(query, QueryOptions::new())
    }

    /// Evaluates a query under explicit [`QueryOptions`] (strategy, limit,
    /// bindings, count-only) — the single execution entry point. Like
    /// [`PathDb::query`], it compiles and plans on every call.
    ///
    /// ```
    /// use pathix_core::{PathDb, PathDbConfig, QueryOptions, Strategy};
    /// use pathix_datagen::paper_example_graph;
    ///
    /// let db = PathDb::build(paper_example_graph(), PathDbConfig::with_k(2));
    /// let full = db.run("knows/knows", QueryOptions::new()).unwrap();
    ///
    /// // Every strategy plans differently and answers identically.
    /// for strategy in Strategy::all() {
    ///     let result = db.run("knows/knows", QueryOptions::with_strategy(strategy)).unwrap();
    ///     assert_eq!((result.pairs(), result.strategy), (full.pairs(), strategy));
    /// }
    ///
    /// // Example 3.1's lookup shapes: bind the source, or just ask whether.
    /// let jan = db.graph().node_id("jan").unwrap();
    /// let from_jan = db.run("knows/knows", QueryOptions::new().source(jan)).unwrap();
    /// assert_eq!(from_jan.targets(), full.targets_of(jan));
    /// let probe = db.run("knows/knows", QueryOptions::new().source(jan).exists()).unwrap();
    /// assert_eq!((probe.stats.result_pairs, probe.len()), (1, 0));
    /// ```
    pub fn run(&self, query: &str, options: QueryOptions) -> Result<QueryResult, QueryError> {
        self.prepare(query)?.run(self, options)
    }

    /// Renders the physical plan of a query as an indented tree.
    pub fn explain(&self, query: &str, strategy: Strategy) -> Result<String, QueryError> {
        let prepared = self.prepare(query)?;
        let snapshot = self.snapshot();
        let plan = prepared.plan_on(self, &snapshot, strategy)?;
        let ctx = PlannerContext::new(snapshot.index(), snapshot.histogram());
        Ok(explain_plan(plan.as_ref(), snapshot.graph(), &ctx))
    }

    /// Evaluates a query with the automaton baseline (approach 1 of the
    /// paper's introduction). Unbounded recursion is handled exactly.
    pub fn query_automaton(&self, query: &str) -> Result<Vec<(NodeId, NodeId)>, QueryError> {
        let snapshot = self.snapshot();
        let expr = parse(query)?.bind(snapshot.graph())?;
        Ok(evaluate_automaton(snapshot.graph(), &expr))
    }

    /// Evaluates a query with the Datalog baseline (approach 2). Unbounded
    /// recursion becomes genuinely recursive rules.
    pub fn query_datalog(&self, query: &str) -> Result<Vec<(NodeId, NodeId)>, QueryError> {
        let snapshot = self.snapshot();
        let expr = parse(query)?.bind(snapshot.graph())?;
        Ok(evaluate_datalog(snapshot.graph(), &expr))
    }

    /// Aggregated statistics about the graph, index and histogram, plus —
    /// on the paged backends — the buffer-pool and copy-on-write counters of
    /// the storage layer.
    ///
    /// ```
    /// use pathix_core::{BackendChoice, PathDb, PathDbConfig};
    /// use pathix_datagen::paper_example_graph;
    ///
    /// let db = PathDb::build(paper_example_graph(), PathDbConfig::with_k(2));
    /// let stats = db.stats();
    /// assert_eq!((stats.nodes, stats.edges, stats.labels), (9, 16, 3));
    /// assert_eq!((stats.index.backend, stats.index.k), ("memory", 2));
    /// assert_eq!(stats.index.distinct_paths, stats.histogram_paths);
    /// assert!(stats.storage.pool.is_none() && !stats.storage.flush_failed);
    ///
    /// // The paged backends add their buffer-pool and copy-on-write counters.
    /// let config = PathDbConfig::with_k(2)
    ///     .with_backend(BackendChoice::PagedInMemory { pool_frames: 8 });
    /// let paged = PathDb::build(paper_example_graph(), config);
    /// paged.query("knows/knows/worksFor").unwrap();
    /// let storage = paged.stats().storage;
    /// assert!(storage.pool.is_some_and(|pool| pool.hits + pool.misses > 0));
    /// assert!(storage.cow.is_some());
    /// assert_eq!(paged.stats().index.entries, stats.index.entries);
    /// ```
    pub fn stats(&self) -> DbStats {
        let snapshot = self.snapshot();
        let index = snapshot.index();
        let pool = index.as_paged().map(|paged| paged.pool_stats());
        let storage = StorageStats {
            pool,
            cow: index.as_paged().map(|paged| paged.cow_stats()),
            chunks_skipped: match index {
                IndexBackend::Memory(index) => index.chunks_skipped(),
                IndexBackend::Compressed(store) => store.chunks_skipped(),
                IndexBackend::Paged(_) => 0,
            },
            read_ahead_pages: pool.map(|p| p.read_ahead_pages).unwrap_or(0),
            flush_failed: index.as_paged().map(|p| p.flush_failed()).unwrap_or(false),
        };
        DbStats {
            nodes: snapshot.graph().node_count(),
            edges: snapshot.graph().edge_count(),
            labels: snapshot.graph().label_count(),
            index: snapshot.index().stats(),
            histogram_paths: snapshot.histogram().path_count(),
            histogram_buckets: snapshot.histogram().buckets().len(),
            graph_chunks: snapshot.graph().chunk_count(),
            graph_publish: snapshot.graph().last_publish_stats(),
            storage,
        }
    }

    /// Full structural audit of the database: walks the published snapshot's
    /// backend and the writer-side backend (including the page-lifecycle
    /// checks only the writer can perform), recording every invariant
    /// evaluation.
    ///
    /// A clean report ([`AuditReport::is_clean`]) means every structural
    /// invariant the backends rely on for correctness held: sorted and
    /// fenced, decodable chunk storage, superset-preserving blooms, a
    /// copy-on-write page graph with no leaks and no snapshot-visible
    /// reclamation, and statistics that match a full recount. The
    /// differential test harnesses call this after every applied batch; the
    /// CLI exposes it as `\audit`.
    ///
    /// ```
    /// use pathix_core::{GraphUpdate, PathDb, PathDbConfig};
    /// use pathix_datagen::paper_example_graph;
    ///
    /// let db = PathDb::build(paper_example_graph(), PathDbConfig::with_k(2));
    /// let as_built = db.audit();
    /// assert!(as_built.is_clean(), "{:?}", as_built.violations());
    ///
    /// // Updates keep it clean.
    /// db.apply(&[GraphUpdate::insert_named("sue", "knows", "tim")]).unwrap();
    /// let live = db.audit();
    /// assert!(live.is_clean(), "{:?}", live.violations());
    /// assert!(live.checks() > 0);
    /// ```
    pub fn audit(&self) -> AuditReport {
        let mut report = AuditReport::new();
        let snapshot = self.snapshot();
        report.run("graph", snapshot.graph());
        report.run(
            &format!("snapshot/{}", snapshot.index().backend_name()),
            snapshot.index(),
        );
        // Auditing is read-only reporting: a poisoned lock still guards
        // auditable data, and an audit is exactly what one wants to run
        // against a writer that just panicked.
        let live = self
            .live
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        report.run(
            &format!("writer/{}", live.writer.backend_name()),
            &live.writer,
        );
        report.begin("node-count");
        let nodes = snapshot.graph().node_count();
        for (side, indexed) in [
            ("snapshot", snapshot.index().node_count()),
            ("writer", live.writer.node_count()),
        ] {
            report.check(
                "index spans the graph's nodes",
                side,
                indexed == nodes,
                || format!("the {side} index counts {indexed} node(s), the graph {nodes}"),
            );
        }
        report.end();
        // Durability health. `StorageStats::flush_failed` is sticky but was
        // previously only visible to callers polling `stats()`; surfacing it
        // here makes degraded state part of the structural audit, so harness
        // sweeps (and the CLI's `\audit`) report it instead of silently
        // serving from a database whose page file stopped taking writes.
        report.begin("durability");
        let flush_failed = snapshot
            .index()
            .as_paged()
            .map(|paged| paged.flush_failed())
            .unwrap_or(false);
        report.check("no page flush has failed", "storage", !flush_failed, || {
            "the paged backend latched a flush failure; durable state stopped \
             advancing and the database should be reopened from disk"
                .to_string()
        });
        report.check(
            "writer accepts further updates",
            "writer",
            live.failed.is_none(),
            || {
                let detail = live
                    .failed
                    .as_ref()
                    .map(|e| e.to_string())
                    .unwrap_or_default();
                format!("the writer latched a failure and rejects writes: {detail}")
            },
        );
        report.end();
        report
    }
}

/// The hard cap on distinct labels ([`pathix_graph::GraphBuilder::add_label`]
/// enforces the same bound at build time).
pub(crate) const MAX_LABELS: usize = 1 << 15;

/// Checks one update against the graph's interned vocabulary: id variants
/// must reference interned ids; named insertions must carry non-empty names
/// and fit under the label cap. Runs before anything is interned or applied,
/// so a rejected batch leaves no trace.
fn validate_update(graph: &Graph, update: &GraphUpdate) -> Result<(), QueryError> {
    match update {
        GraphUpdate::InsertEdge { src, label, dst }
        | GraphUpdate::DeleteEdge { src, label, dst } => {
            check_node(graph, *src)?;
            check_node(graph, *dst)?;
            if label.index() >= graph.label_count() {
                return Err(QueryError::InvalidUpdate(format!(
                    "label id {} was never interned (the graph has {} labels)",
                    label.0,
                    graph.label_count()
                )));
            }
            Ok(())
        }
        GraphUpdate::InsertEdgeNamed { src, label, dst } => {
            for (what, name) in [("source node", src), ("label", label), ("target node", dst)] {
                if name.is_empty() {
                    return Err(QueryError::InvalidUpdate(format!(
                        "named insertion carries an empty {what} name"
                    )));
                }
            }
            if graph.label_id(label).is_none() && graph.label_count() >= MAX_LABELS {
                return Err(QueryError::InvalidUpdate(format!(
                    "label vocabulary is full ({MAX_LABELS} labels): cannot intern {label:?}"
                )));
            }
            Ok(())
        }
        GraphUpdate::DeleteEdgeNamed { .. } => Ok(()),
    }
}

/// Resolves one validated update to an id-level edge op. Named insertions
/// intern unseen vocabulary into `vocab`; named deletions of unknown names
/// resolve to `None` (a no-op) without interning — a deletion cannot create
/// vocabulary. The only error is the label cap, re-checked against the
/// batch-local state because several insertions in one batch can each carry
/// a fresh label.
fn resolve_update(
    vocab: &mut VocabBatch,
    update: &GraphUpdate,
) -> Result<Option<EdgeOp>, QueryError> {
    Ok(match update {
        GraphUpdate::InsertEdge { .. } | GraphUpdate::DeleteEdge { .. } => update.as_op(),
        GraphUpdate::InsertEdgeNamed { src, label, dst } => {
            if vocab.label_id(label).is_none() && vocab.label_count() >= MAX_LABELS {
                return Err(QueryError::InvalidUpdate(format!(
                    "label vocabulary is full ({MAX_LABELS} labels): cannot intern {label:?}"
                )));
            }
            let s = vocab.intern_node(src);
            let l = vocab.intern_label(label);
            let d = vocab.intern_node(dst);
            Some(EdgeOp::insert(s, l, d))
        }
        GraphUpdate::DeleteEdgeNamed { src, label, dst } => {
            match (
                vocab.node_id(src),
                vocab.label_id(label),
                vocab.node_id(dst),
            ) {
                (Some(s), Some(l), Some(d)) => Some(EdgeOp::delete(s, l, d)),
                _ => None,
            }
        }
    })
}

fn check_node(graph: &Graph, node: NodeId) -> Result<(), QueryError> {
    if node.index() >= graph.node_count() {
        return Err(QueryError::InvalidUpdate(format!(
            "node id {} was never interned (the graph has {} nodes)",
            node.0,
            graph.node_count()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathix_datagen::paper_example_graph;
    use pathix_graph::{GraphBuilder, LabelId};

    fn example_db(k: usize) -> PathDb {
        PathDb::build(paper_example_graph(), PathDbConfig::with_k(k))
    }

    fn backend_choices() -> Vec<BackendChoice> {
        vec![
            BackendChoice::Memory,
            BackendChoice::PagedInMemory { pool_frames: 8 },
            BackendChoice::Compressed,
        ]
    }

    #[test]
    fn build_and_stats() {
        let db = example_db(2);
        let stats = db.stats();
        assert_eq!(stats.nodes, 9);
        assert_eq!(stats.labels, 3);
        assert_eq!(stats.index.k, 2);
        assert!(stats.index.entries > 0);
        assert!(stats.histogram_paths > 0);
        assert_eq!(db.k(), 2);
        assert_eq!(db.backend_name(), "memory");
        assert_eq!(db.epoch(), 0);
    }

    #[test]
    fn query_all_strategies_agree_with_baselines() {
        let db = example_db(3);
        for query in [
            "knows/worksFor",
            "supervisor/worksFor-",
            "(supervisor|worksFor|worksFor-){4,5}",
            "knows{0,2}",
        ] {
            let reference = db.query_automaton(query).unwrap();
            let datalog = db.query_datalog(query).unwrap();
            assert_eq!(reference, datalog, "baselines disagree on {query}");
            for strategy in Strategy::all() {
                let result = db
                    .run(query, QueryOptions::with_strategy(strategy))
                    .unwrap();
                assert_eq!(result.pairs(), &reference[..], "{strategy} on {query}");
            }
        }
    }

    #[test]
    fn every_backend_answers_the_worked_example() {
        for choice in backend_choices() {
            let config = PathDbConfig::with_k(2).with_backend(choice.clone());
            let db = PathDb::try_build(paper_example_graph(), config).unwrap();
            let result = db.query("supervisor/worksFor-").unwrap();
            assert_eq!(
                result.named_pairs(&db),
                vec![("kim".into(), "sue".into())],
                "backend {choice:?}"
            );
        }
    }

    /// A per-test scratch directory: unique across processes *and* test
    /// threads, removed (with everything in it) when the test ends — even on
    /// panic, since cleanup rides the `Drop` impl.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "pathix-db-{}-{}-{tag}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn path(&self, file: &str) -> PathBuf {
            self.0.join(file)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// On-disk tests serialize here: the fault registry
    /// ([`pathix_pagestore::fault`]) is process-global, so a test arming it
    /// must not overlap any other test doing real durable I/O.
    static DISK_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn a_published_view_is_not_changed_by_the_next_publish() {
        let _disk = DISK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = TempDir::new("publish-views");
        let g = paper_example_graph();
        let writers = [
            IndexBackend::Memory(SharedKPathIndex::build(&g, 2)),
            IndexBackend::Paged(PagedPathIndex::build_in_memory(&g, 2, 8).unwrap()),
            IndexBackend::Paged(
                PagedPathIndex::build_on_disk(&g, 2, dir.path("views.pages"), 8).unwrap(),
            ),
            IndexBackend::Compressed(CompressedPathStore::build_in(&g, 2)),
        ];
        let (sue, tim) = (g.node_id("sue").unwrap(), g.node_id("tim").unwrap());
        let (kim, liz) = (g.node_id("kim").unwrap(), g.node_id("liz").unwrap());
        let knows = g.label_id("knows").unwrap();
        let supervisor = g.label_id("supervisor").unwrap();
        let batches = [
            EdgeOp::insert(sue, knows, tim),
            EdgeOp::delete(kim, supervisor, liz),
        ];

        /// Everything a reader can ask a view.
        fn contents(view: &IndexBackend) -> Vec<(u64, Vec<(NodeId, NodeId)>)> {
            let mut all = Vec::new();
            for (path, count) in view.per_path_counts() {
                all.push((*count, view.collect_path(path).unwrap()));
            }
            all
        }

        for mut writer in writers {
            let name = writer.backend_name();
            let mut graph = g.clone();
            let mut views = vec![writer.reader_view()];
            for (seq, &op) in batches.iter().enumerate() {
                let mut deltas = EntryDeltas::new();
                assert!(apply_op(&mut graph, 2, op, &mut deltas));
                let batch = DeltaBatch {
                    deltas: &deltas,
                    node_count: graph.node_count(),
                    seq: seq as u64 + 1,
                };
                let before: Vec<_> = views.iter().map(contents).collect();
                views.push(writer.publish(&batch).unwrap());
                let after: Vec<_> = views.iter().map(contents).collect();
                assert_eq!(after[..before.len()], before[..], "{name}, batch {seq}");
                // The new view is the writer's state, and it did change.
                assert_eq!(after[before.len()], contents(&writer), "{name}");
                assert_ne!(after[before.len()], before[before.len() - 1], "{name}");
            }
            let mut report = AuditReport::new();
            report.run("writer", &writer);
            for view in &views {
                report.run("view", view);
            }
            report.assert_clean(name);
        }
    }

    #[test]
    fn on_disk_backend_runs_the_pipeline() {
        let _disk = DISK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = TempDir::new("on-disk-pipeline");
        let file = dir.path("example.pages");
        let config = PathDbConfig::with_k(2).with_backend(BackendChoice::OnDisk {
            path: file.clone(),
            pool_frames: 8,
        });
        let db = PathDb::try_build(paper_example_graph(), config).unwrap();
        assert_eq!(db.backend_name(), "paged");
        let result = db.query("supervisor/worksFor-").unwrap();
        assert_eq!(result.named_pairs(&db), vec![("kim".into(), "sue".into())]);
        assert!(std::fs::metadata(&file).unwrap().len() > 0);
    }

    #[test]
    fn on_disk_backend_build_failure_is_an_error_not_a_panic() {
        let config = PathDbConfig::with_k(2).with_backend(BackendChoice::OnDisk {
            path: PathBuf::from("/definitely/not/a/writable/dir/idx.pages"),
            pool_frames: 8,
        });
        match PathDb::try_build(paper_example_graph(), config) {
            Err(QueryError::Backend(e)) => assert_eq!(e.backend(), "paged"),
            other => panic!("expected a backend error, got {other:?}"),
        }
    }

    #[test]
    fn paper_section_2_2_first_example() {
        let db = example_db(2);
        let result = db.query("supervisor/worksFor-").unwrap();
        assert_eq!(result.named_pairs(&db), vec![("kim".into(), "sue".into())]);
    }

    #[test]
    fn errors_are_reported() {
        let db = example_db(1);
        assert!(matches!(db.query("///"), Err(QueryError::Parse(_))));
        assert!(matches!(db.query("likes"), Err(QueryError::Bind(_))));
        assert!(matches!(
            db.query("knows{5,2}"),
            Err(QueryError::Rewrite(_))
        ));
    }

    #[test]
    fn star_bound_is_respected() {
        let mut b = GraphBuilder::new();
        // A 6-node directed chain: full reachability needs 5 steps.
        for i in 0..5 {
            b.add_edge_named(&format!("n{i}"), "next", &format!("n{}", i + 1));
        }
        let graph = b.build();
        let small = PathDb::build(
            graph.clone(),
            PathDbConfig {
                star_bound: 2,
                ..PathDbConfig::with_k(2)
            },
        );
        let large = PathDb::build(
            graph,
            PathDbConfig {
                star_bound: 5,
                ..PathDbConfig::with_k(2)
            },
        );
        let q = "next+";
        assert!(small.query(q).unwrap().len() < large.query(q).unwrap().len());
        // With the bound at the chain length, the index answer matches the
        // automaton's exact (unbounded) evaluation.
        assert_eq!(
            large.query(q).unwrap().pairs(),
            &large.query_automaton(q).unwrap()[..]
        );
    }

    #[test]
    fn explain_is_available_from_the_facade() {
        let db = example_db(2);
        let text = db
            .explain("knows/(knows/worksFor){2,4}/worksFor", Strategy::MinJoin)
            .unwrap();
        assert!(text.contains("IndexScan"));
        assert!(text.contains("knows"));
    }

    #[test]
    fn default_strategy_is_used_by_query() {
        let db = example_db(2);
        let r = db.query("knows").unwrap();
        assert_eq!(r.strategy, Strategy::MinSupport);
        let r2 = db
            .run("knows", QueryOptions::with_strategy(Strategy::Naive))
            .unwrap();
        assert_eq!(r2.strategy, Strategy::Naive);
        assert_eq!(r.pairs(), r2.pairs());
    }

    #[test]
    fn config_is_borrowed_not_cloned() {
        let db = example_db(2);
        let a: &PathDbConfig = db.config();
        let b: &PathDbConfig = db.config();
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.k, 2);
    }

    #[test]
    fn ad_hoc_calls_compile_and_plan_per_call() {
        let db = example_db(2);
        db.query("supervisor/worksFor-").unwrap();
        db.query("supervisor/worksFor-").unwrap();
        db.plan("supervisor/worksFor-", Strategy::MinJoin).unwrap();
        db.explain("supervisor/worksFor-", Strategy::MinJoin)
            .unwrap();
        let stats = db.plan_cache_stats();
        assert_eq!(stats.compilations, 4, "{stats:?}");
        assert_eq!(stats.plans, 4, "{stats:?}");
        assert_eq!(stats.hits, 0, "{stats:?}");
    }

    #[test]
    fn prepared_queries_reject_foreign_databases() {
        let db = example_db(2);
        let other = example_db(2);
        let prepared = db.prepare("knows").unwrap();
        assert!(prepared.run(&db, QueryOptions::new()).is_ok());
        assert!(matches!(
            prepared.run(&other, QueryOptions::new()),
            Err(QueryError::DatabaseMismatch)
        ));
        assert!(matches!(
            prepared.cursor(&other, QueryOptions::new()),
            Err(QueryError::DatabaseMismatch)
        ));
    }

    #[test]
    fn bound_source_and_target_reproduce_example_3_1_lookups() {
        let db = example_db(2);
        let kim = db.graph().node_id("kim").unwrap();
        let sue = db.graph().node_id("sue").unwrap();
        let prepared = db.prepare("supervisor/worksFor-").unwrap();
        // (p, s, ·): which nodes does kim reach?
        let from_kim = prepared.run(&db, QueryOptions::new().source(kim)).unwrap();
        assert_eq!(from_kim.pairs(), &[(kim, sue)]);
        // (p, s, t): does kim reach sue? Does sue reach kim?
        assert!(prepared
            .exists(&db, QueryOptions::new().source(kim).target(sue))
            .unwrap());
        assert!(!prepared
            .exists(&db, QueryOptions::new().source(sue).target(kim))
            .unwrap());
        // (p, ·, t): who reaches sue?
        let to_sue = prepared
            .count(&db, QueryOptions::new().target(sue))
            .unwrap();
        assert_eq!(to_sue, 1);
    }

    #[test]
    fn count_only_reports_the_count_without_pairs() {
        let db = example_db(2);
        let result = db.run("knows", QueryOptions::new().count_only()).unwrap();
        assert!(result.pairs().is_empty());
        assert_eq!(result.stats.result_pairs, db.query("knows").unwrap().len());
    }

    // ---- live updates -----------------------------------------------------

    fn update(db: &PathDb, kind: &str, src: &str, label: &str, dst: &str) -> GraphUpdate {
        let graph = db.graph();
        let src = graph.node_id(src).unwrap();
        let dst = graph.node_id(dst).unwrap();
        let label = graph.label_id(label).unwrap();
        match kind {
            "insert" => GraphUpdate::InsertEdge { src, label, dst },
            _ => GraphUpdate::DeleteEdge { src, label, dst },
        }
    }

    #[test]
    fn apply_inserts_and_deletes_show_up_in_answers() {
        let db = example_db(2);
        assert_eq!(db.query("supervisor/worksFor-").unwrap().len(), 1);

        // sue gets a second supervisor: tim (who works for the same company
        // as sue does not — use existing names from the paper graph).
        let stats = db
            .apply(&[update(&db, "insert", "tim", "supervisor", "joe")])
            .unwrap();
        assert_eq!(stats.inserted, 1);
        assert_eq!(stats.epoch, 1);
        assert_eq!(db.epoch(), 1);
        let after_insert = db.query("supervisor/worksFor-").unwrap();
        assert!(!after_insert.is_empty());

        // Deleting the original supervisor edge removes the worked example's
        // answer.
        let stats = db
            .apply(&[update(&db, "delete", "kim", "supervisor", "liz")])
            .unwrap();
        assert_eq!(stats.deleted, 1);
        assert_eq!(db.epoch(), 2);
        let after_delete = db.query("supervisor/worksFor-").unwrap();
        assert!(!after_delete.contains_named(&db, "kim", "sue"));

        // Graph adjacency stayed in sync with the index.
        let graph = db.graph();
        let kim = graph.node_id("kim").unwrap();
        let ann = graph.node_id("liz").unwrap();
        let supervisor = graph.label_id("supervisor").unwrap();
        assert!(!graph.has_edge(kim, supervisor, ann));
    }

    #[test]
    fn apply_matches_a_rebuilt_database() {
        let db = example_db(2);
        let updates = vec![
            update(&db, "insert", "tim", "knows", "zoe"),
            update(&db, "delete", "jan", "knows", "kim"),
            update(&db, "insert", "sue", "worksFor", "kim"),
            update(&db, "insert", "tim", "knows", "zoe"), // duplicate: no-op
        ];
        let stats = db.apply(&updates).unwrap();
        assert_eq!(stats.inserted, 2);
        assert_eq!(stats.deleted, 1);
        assert_eq!(stats.no_ops, 1);

        let rebuilt = PathDb::build(db.graph().as_ref().clone(), PathDbConfig::with_k(2));
        for query in ["knows/worksFor", "knows-/knows", "worksFor/worksFor-"] {
            for strategy in Strategy::all() {
                let live = db
                    .run(query, QueryOptions::with_strategy(strategy))
                    .unwrap();
                let fresh = rebuilt
                    .run(query, QueryOptions::with_strategy(strategy))
                    .unwrap();
                assert_eq!(live.pairs(), fresh.pairs(), "{strategy} on {query}");
            }
        }
        // The published snapshot's statistics agree with the rebuild too.
        assert_eq!(db.stats().index.entries, rebuilt.stats().index.entries);
        assert_eq!(
            db.index().per_path_counts(),
            rebuilt.index().per_path_counts()
        );
    }

    #[test]
    fn every_backend_absorbs_updates_and_matches_a_rebuild() {
        let _disk = DISK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = TempDir::new("all-backends-apply");
        let choices = vec![
            BackendChoice::Memory,
            BackendChoice::PagedInMemory { pool_frames: 8 },
            BackendChoice::OnDisk {
                path: dir.path("apply.pages"),
                pool_frames: 8,
            },
            BackendChoice::Compressed,
        ];
        for choice in choices {
            let config = PathDbConfig::with_k(2).with_backend(choice.clone());
            let db = PathDb::try_build(paper_example_graph(), config).unwrap();
            let stats = db
                .apply(&[
                    update(&db, "insert", "tim", "supervisor", "joe"),
                    update(&db, "delete", "kim", "supervisor", "liz"),
                ])
                .unwrap();
            assert_eq!(stats.inserted, 1, "backend {choice:?}");
            assert_eq!(stats.deleted, 1, "backend {choice:?}");
            assert_eq!(db.epoch(), 1, "backend {choice:?}");

            let rebuilt = PathDb::build(db.graph().as_ref().clone(), PathDbConfig::with_k(2));
            for query in ["supervisor/worksFor-", "knows/worksFor", "knows-/knows"] {
                for strategy in Strategy::all() {
                    let live = db
                        .run(query, QueryOptions::with_strategy(strategy))
                        .unwrap();
                    let fresh = rebuilt
                        .run(query, QueryOptions::with_strategy(strategy))
                        .unwrap();
                    assert_eq!(
                        live.pairs(),
                        fresh.pairs(),
                        "backend {choice:?}, {strategy} on {query}"
                    );
                }
            }
            assert_eq!(
                db.stats().index.entries,
                rebuilt.stats().index.entries,
                "backend {choice:?}"
            );
            assert_eq!(
                db.index().per_path_counts(),
                rebuilt.index().per_path_counts(),
                "backend {choice:?}"
            );
        }
    }

    #[test]
    fn every_backend_refreshes_the_histogram_a_rebuild_builds() {
        let _disk = DISK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = TempDir::new("histogram-refresh");
        for refresh in [HistogramRefresh::EveryUpdates(1), HistogramRefresh::Manual] {
            let choices = vec![
                BackendChoice::Memory,
                BackendChoice::PagedInMemory { pool_frames: 8 },
                BackendChoice::OnDisk {
                    path: dir.path(&format!("{refresh:?}.pages")),
                    pool_frames: 8,
                },
                BackendChoice::Compressed,
            ];
            for choice in choices {
                let config = PathDbConfig::with_k(2)
                    .with_backend(choice.clone())
                    .with_histogram_refresh(refresh);
                let db = PathDb::try_build(paper_example_graph(), config).unwrap();
                // The only supervisor edge goes, emptying every path through
                // it, and a new node arrives with new knows paths.
                let stats = db
                    .apply(&[
                        GraphUpdate::delete_named("kim", "supervisor", "liz"),
                        GraphUpdate::insert_named("max", "knows", "ada"),
                    ])
                    .unwrap();
                let case = format!("{choice:?} under {refresh:?}");
                assert_eq!(
                    stats.histogram_refreshed,
                    refresh != HistogramRefresh::Manual,
                    "{case}"
                );
                if !stats.histogram_refreshed {
                    assert!(db.refresh_histogram(), "{case}");
                }
                let rebuilt = PathDb::build(db.graph().as_ref().clone(), PathDbConfig::with_k(2));
                assert_eq!(
                    db.index().per_path_counts(),
                    rebuilt.index().per_path_counts(),
                    "{case}"
                );
                assert_eq!(*db.histogram(), *rebuilt.histogram(), "{case}");
            }
        }
    }

    #[test]
    fn invalid_update_ids_are_rejected_before_anything_applies() {
        let db = example_db(2);
        let knows = db.graph().label_id("knows").unwrap();
        let bad_node = GraphUpdate::InsertEdge {
            src: NodeId(9999),
            label: knows,
            dst: NodeId(0),
        };
        assert!(matches!(
            db.apply(&[bad_node]),
            Err(QueryError::InvalidUpdate(_))
        ));
        let bad_label = GraphUpdate::InsertEdge {
            src: NodeId(0),
            label: LabelId(999),
            dst: NodeId(1),
        };
        let good = update(&db, "insert", "tim", "knows", "zoe");
        // A batch with one bad update applies nothing at all.
        assert!(matches!(
            db.apply(&[good, bad_label]),
            Err(QueryError::InvalidUpdate(_))
        ));
        assert_eq!(db.epoch(), 0);
        let tim = db.graph().node_id("tim").unwrap();
        let ann = db.graph().node_id("zoe").unwrap();
        assert!(!db.graph().has_edge(tim, knows, ann));
    }

    #[test]
    fn no_op_batches_do_not_bump_the_epoch() {
        let db = example_db(2);
        // Deleting an absent edge and re-inserting an existing one.
        let absent = update(&db, "delete", "tim", "knows", "zoe");
        let existing = update(&db, "insert", "kim", "supervisor", "liz");
        let stats = db.apply(&[absent, existing]).unwrap();
        assert_eq!(stats.inserted + stats.deleted, 0);
        assert_eq!(stats.no_ops, 2);
        assert_eq!(stats.epoch, 0);
        assert_eq!(db.epoch(), 0);
        assert!(!stats.histogram_refreshed);
    }

    #[test]
    fn cached_plans_recompile_after_an_update() {
        let db = example_db(2);
        let prepared = db.prepare("supervisor/worksFor-").unwrap();
        prepared.run(&db, QueryOptions::new()).unwrap();
        prepared.run(&db, QueryOptions::new()).unwrap();
        assert_eq!(db.plan_cache_stats().plans, 1);

        db.apply(&[update(&db, "insert", "tim", "supervisor", "joe")])
            .unwrap();
        // The next execution replans against the new epoch — exactly once.
        prepared.run(&db, QueryOptions::new()).unwrap();
        prepared.run(&db, QueryOptions::new()).unwrap();
        let stats = db.plan_cache_stats();
        assert_eq!(stats.plans, 2, "{stats:?}");
        assert_eq!(
            stats.compilations, 1,
            "disjuncts survive updates: {stats:?}"
        );
    }

    #[test]
    fn histogram_refresh_policy_every_n_and_manual() {
        let every2 = PathDb::build(
            paper_example_graph(),
            PathDbConfig::with_k(2).with_histogram_refresh(HistogramRefresh::EveryUpdates(2)),
        );
        let first = every2
            .apply(&[update(&every2, "insert", "tim", "knows", "zoe")])
            .unwrap();
        assert!(!first.histogram_refreshed, "1 < 2 accumulated updates");
        let second = every2
            .apply(&[update(&every2, "insert", "sue", "knows", "joe")])
            .unwrap();
        assert!(second.histogram_refreshed, "2 ≥ 2 accumulated updates");

        let manual = PathDb::build(
            paper_example_graph(),
            PathDbConfig::with_k(2).with_histogram_refresh(HistogramRefresh::Manual),
        );
        assert!(!manual.refresh_histogram(), "nothing applied yet");
        let knows_count_before = manual
            .histogram()
            .estimated_cardinality(&[SignedLabel::forward(
                manual.graph().label_id("knows").unwrap(),
            )])
            .unwrap();
        let stats = manual
            .apply(&[update(&manual, "insert", "tim", "knows", "zoe")])
            .unwrap();
        assert!(!stats.histogram_refreshed);
        // Data moved, statistics did not.
        assert_eq!(
            manual
                .histogram()
                .estimated_cardinality(&[SignedLabel::forward(
                    manual.graph().label_id("knows").unwrap(),
                )])
                .unwrap(),
            knows_count_before
        );
        let epoch_before = manual.epoch();
        assert!(manual.refresh_histogram());
        assert_eq!(manual.epoch(), epoch_before + 1);
        assert!(
            manual
                .histogram()
                .estimated_cardinality(&[SignedLabel::forward(
                    manual.graph().label_id("knows").unwrap(),
                )])
                .unwrap()
                > knows_count_before
        );
    }

    #[test]
    fn storage_stats_surface_pool_and_cow_counters_on_paged_backends() {
        let db = PathDb::build(
            paper_example_graph(),
            PathDbConfig::with_k(2).with_backend(BackendChoice::PagedInMemory { pool_frames: 8 }),
        );
        let storage = db.stats().storage;
        let pool = storage.pool.expect("paged backends report a pool");
        let cow = storage.cow.expect("paged backends report cow counters");
        assert!(pool.hits + pool.misses > 0);
        assert_eq!(cow.page_copies, 0, "no update ran yet");
        assert_eq!(cow.live_snapshots, 1, "the published reader view");

        // Keep the pre-update snapshot alive: the batch must copy pages.
        let before = db.snapshot();
        db.apply(&[update(&db, "insert", "tim", "supervisor", "joe")])
            .unwrap();
        let storage = db.stats().storage;
        let cow = storage.cow.unwrap();
        assert!(cow.page_copies > 0, "{storage:?}");
        assert!(cow.pages_retired > 0, "{storage:?}");
        drop(before);

        // Memory and compressed backends have no buffer pool to report, but
        // still carry the scan bypass counters.
        let memory = example_db(2);
        let storage = memory.stats().storage;
        assert!(storage.pool.is_none());
        assert!(storage.cow.is_none());

        // A compressed-backend probe of an absent source skips its chunks.
        let compressed = PathDb::build(
            paper_example_graph(),
            PathDbConfig::with_k(2).with_backend(BackendChoice::Compressed),
        );
        let snapshot = compressed.snapshot();
        let knows = snapshot.graph().label_id("knows").unwrap();
        snapshot
            .index()
            .scan_path_from(&[SignedLabel::forward(knows)], NodeId(u32::MAX - 1))
            .unwrap();
        assert!(compressed.stats().storage.chunks_skipped > 0);
    }

    #[test]
    fn memory_publishes_share_untouched_runs_across_epochs() {
        let db = example_db(2);
        let before = db.snapshot();
        db.apply(&[update(&db, "insert", "tim", "supervisor", "joe")])
            .unwrap();
        let after = db.snapshot();
        let published = after.index().as_memory().unwrap();
        let stats = published.last_publish_stats();
        assert!(stats.runs_shared > 0, "{stats:?}");
        assert!(stats.runs_rebuilt > 0, "{stats:?}");
        // The old snapshot still answers from its own runs.
        let knows = SignedLabel::forward(before.graph().label_id("supervisor").unwrap());
        let old: Vec<_> = before
            .index()
            .as_memory()
            .unwrap()
            .scan_path(&[knows])
            .collect();
        let new: Vec<_> = published.scan_path(&[knows]).collect();
        assert_eq!(new.len(), old.len() + 1);
    }

    #[test]
    fn snapshots_pin_the_state_they_were_taken_at() {
        let db = example_db(2);
        let before = db.snapshot();
        db.apply(&[update(&db, "delete", "kim", "supervisor", "liz")])
            .unwrap();
        let after = db.snapshot();
        assert_eq!(before.epoch(), 0);
        assert_eq!(after.epoch(), 1);
        // The old snapshot still sees the deleted edge.
        let kim = before.graph().node_id("kim").unwrap();
        let ann = before.graph().node_id("liz").unwrap();
        let supervisor = before.graph().label_id("supervisor").unwrap();
        assert!(before.graph().has_edge(kim, supervisor, ann));
        assert!(!after.graph().has_edge(kim, supervisor, ann));
    }

    // ---- durability -------------------------------------------------------

    #[test]
    fn failed_apply_does_not_consume_histogram_refresh_budget() {
        let _disk = DISK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = TempDir::new("refresh-budget");
        let config = PathDbConfig::with_k(2)
            .with_backend(BackendChoice::OnDisk {
                path: dir.path("idx.pages"),
                pool_frames: 8,
            })
            .with_histogram_refresh(HistogramRefresh::EveryUpdates(10));
        let db = PathDb::try_build(paper_example_graph(), config).unwrap();
        let stats = db
            .apply(&[update(&db, "insert", "tim", "supervisor", "joe")])
            .unwrap();
        assert!(!stats.histogram_refreshed);
        let counter = |db: &PathDb| {
            db.live
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .updates_since_refresh
        };
        assert_eq!(counter(&db), 1);

        // The next durable operation — the WAL append of the commit record —
        // fails; the batch must consume no refresh budget.
        pathix_pagestore::fault::arm(0);
        let err = db.apply(&[update(&db, "insert", "sue", "knows", "tim")]);
        let fired = pathix_pagestore::fault::disarm();
        assert!(matches!(err, Err(QueryError::Backend(_))), "{err:?}");
        assert_eq!(fired.as_deref(), Some("wal-append"));
        assert_eq!(counter(&db), 1);
        // The failure poisoned the writer: further applies fail loudly,
        // refreshes are refused, reads keep serving the last snapshot.
        assert!(matches!(
            db.apply(&[update(&db, "insert", "sue", "knows", "tim")]),
            Err(QueryError::Backend(_))
        ));
        assert!(!db.refresh_histogram());
        assert!(db.query("knows").is_ok());
    }

    #[test]
    fn writer_panic_poisons_writes_not_reads() {
        let db = example_db(2);
        let poisoned_update = update(&db, "insert", "tim", "supervisor", "joe");
        // Panic while holding the writer lock — the scenario a poisoned
        // mutex models.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = db.live.lock().unwrap();
            panic!("writer dies mid-apply");
        }));
        assert!(matches!(
            db.apply(&[poisoned_update]),
            Err(QueryError::WriterPoisoned)
        ));
        assert!(!db.refresh_histogram());
        // Read paths recover the data behind the poisoned locks instead of
        // propagating the panic.
        assert!(db.query("supervisor/worksFor-").is_ok());
        assert!(db.audit().is_clean());
    }

    #[test]
    fn on_disk_close_then_open_answers_identically() {
        let _disk = DISK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = TempDir::new("close-open");
        let config = PathDbConfig::with_k(2).with_backend(BackendChoice::OnDisk {
            path: dir.path("idx.pages"),
            pool_frames: 8,
        });
        let db = PathDb::try_build(paper_example_graph(), config.clone()).unwrap();
        db.apply(&[update(&db, "insert", "tim", "supervisor", "joe")])
            .unwrap();
        // A live-interned batch: the names only exist in the live vocabulary
        // and must survive the close/open cycle.
        db.apply(&[GraphUpdate::insert_named("zan", "mentors", "sue")])
            .unwrap();
        let queries = ["supervisor/worksFor-", "knows", "mentors"];
        let expected: Vec<Vec<_>> = queries
            .iter()
            .map(|q| db.query(q).unwrap().pairs().to_vec())
            .collect();
        assert!(!db.stats().storage.flush_failed);
        db.close().unwrap();
        drop(db);

        let reopened = PathDb::open(config).unwrap();
        for (q, want) in queries.iter().zip(&expected) {
            for strategy in Strategy::all() {
                let got = reopened
                    .run(q, QueryOptions::with_strategy(strategy))
                    .unwrap();
                assert_eq!(got.pairs(), &want[..], "{strategy} on {q}");
            }
        }
        // The reopened database keeps accepting updates — id-based ones
        // against the recovered vocabulary included — and stays audit-clean.
        reopened
            .apply(&[update(&reopened, "delete", "tim", "supervisor", "joe")])
            .unwrap();
        assert!(reopened.audit().is_clean());
        reopened.close().unwrap();
    }

    #[test]
    fn open_requires_the_on_disk_backend() {
        assert!(matches!(
            PathDb::open(PathDbConfig::with_k(2)),
            Err(QueryError::Recovery(_))
        ));
    }

    /// An on-disk config at k = 2 whose page file is `idx.pages` in `dir`.
    fn on_disk_config(dir: &TempDir) -> PathDbConfig {
        PathDbConfig::with_k(2).with_backend(BackendChoice::OnDisk {
            path: dir.path("idx.pages"),
            pool_frames: 8,
        })
    }

    #[test]
    fn a_page_file_of_the_old_entry_format_is_refused_on_open() {
        let _disk = DISK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = TempDir::new("old-magic");
        let config = on_disk_config(&dir);
        let db = PathDb::try_build(paper_example_graph(), config.clone()).unwrap();
        db.close().unwrap();
        drop(db);
        assert!(PathDb::open(config.clone()).is_ok());

        // The meta page's magic (bytes 12..16 of page 0) patched back to the
        // walk-count format's "PXPI", whose entries carried 8-byte values the
        // current reader would take for part of the key space, and to "PXPS",
        // whose meta page stored no per-path counts.
        let built = std::fs::read(dir.path("idx.pages")).unwrap();
        for old in [0x5058_5049u32, 0x5058_5053] {
            let mut bytes = built.clone();
            bytes[12..16].copy_from_slice(&old.to_le_bytes());
            std::fs::write(dir.path("idx.pages"), bytes).unwrap();
            let err = PathDb::open(config.clone()).unwrap_err();
            assert!(
                matches!(&err, QueryError::Recovery(m) if m.contains("magic")),
                "{old:#x}: {err:?}"
            );
        }
    }

    /// The segment files of the write-ahead log next to `page_file`.
    fn wal_segments(page_file: &Path) -> Vec<std::ffi::OsString> {
        let mut names: Vec<_> = std::fs::read_dir(durability::wal_dir(page_file))
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_clean_reopen_does_no_durable_work() {
        let _disk = DISK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = TempDir::new("clean-reopen");
        let config = on_disk_config(&dir);
        let db = PathDb::try_build(paper_example_graph(), config.clone()).unwrap();
        db.apply(&[GraphUpdate::insert_named("max", "knows", "ada")])
            .unwrap();
        let before = db.query("knows/knows").unwrap();
        db.close().unwrap();
        drop(db);
        let segments = wal_segments(&dir.path("idx.pages"));
        assert_eq!(segments.len(), 1);

        pathix_pagestore::fault::count_ops();
        let opened = PathDb::open(config.clone());
        let durable_ops = pathix_pagestore::fault::disarm_count();
        let db = opened.unwrap();
        assert_eq!(durable_ops, 0, "no checkpoint rewrite, no log reset");
        assert_eq!(wal_segments(&dir.path("idx.pages")), segments);
        assert_eq!(db.query("knows/knows").unwrap().pairs(), before.pairs());
        assert!(db.audit().is_clean());

        // The reopened log takes the next batch, and a crash after it
        // recovers it.
        db.apply(&[GraphUpdate::insert_named("ada", "knows", "max")])
            .unwrap();
        std::mem::forget(db);
        let db = PathDb::open(config).unwrap();
        let graph = db.graph();
        let [ada, max] = ["ada", "max"].map(|name| graph.node_id(name).unwrap());
        assert!(graph.has_edge(ada, graph.label_id("knows").unwrap(), max));
        db.close().unwrap();
    }

    #[test]
    fn a_torn_tail_without_a_record_is_cut_on_open() {
        let _disk = DISK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = TempDir::new("torn-tail");
        let config = on_disk_config(&dir);
        let db = PathDb::try_build(paper_example_graph(), config.clone()).unwrap();
        db.close().unwrap();
        drop(db);
        // An append the crash cut short: a frame header announcing more
        // bytes than follow, and no complete record before it.
        let page_file = dir.path("idx.pages");
        let [segment] = wal_segments(&page_file).try_into().unwrap();
        let segment = durability::wal_dir(&page_file).join(segment);
        std::fs::write(&segment, [40, 0, 0, 0, 1, 2, 3, 4, 5]).unwrap();

        // The open folds the torn bytes away, so the next record is not
        // appended behind them where replay would never reach it.
        let db = PathDb::open(config.clone()).unwrap();
        assert_ne!(wal_segments(&page_file), [segment.file_name().unwrap()]);
        db.apply(&[GraphUpdate::insert_named("max", "knows", "ada")])
            .unwrap();
        std::mem::forget(db);
        let db = PathDb::open(config).unwrap();
        assert!(db.graph().node_id("max").is_some());
        assert!(db.audit().is_clean());
        db.close().unwrap();
    }

    #[test]
    fn a_reopened_writer_applies_without_seeding_and_refreshes_only_after_an_apply() {
        let _disk = DISK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = TempDir::new("reopen-apply");
        let config = on_disk_config(&dir).with_histogram_refresh(HistogramRefresh::Manual);
        let db = PathDb::try_build(paper_example_graph(), config.clone()).unwrap();
        db.apply(&[update(&db, "insert", "tim", "knows", "zoe")])
            .unwrap();
        db.close().unwrap();
        drop(db);

        let db = PathDb::open(config).unwrap();
        // Nothing applied since open: the opened histogram is exact.
        assert!(!db.refresh_histogram());
        let batch = [
            update(&db, "delete", "kim", "supervisor", "liz"),
            update(&db, "insert", "sue", "knows", "tim"),
        ];
        let stats = db.apply(&batch).unwrap();
        assert_eq!((stats.inserted, stats.deleted), (1, 1));
        assert!(db.refresh_histogram());

        // The first apply after open answers like a rebuild of the graph it
        // left behind.
        let rebuilt = PathDb::build((*db.graph()).clone(), PathDbConfig::with_k(2));
        assert_eq!(
            db.index().per_path_counts(),
            rebuilt.index().per_path_counts()
        );
        for text in ["knows/knows", "supervisor/worksFor-", "knows-/knows"] {
            assert_eq!(
                db.query(text).unwrap().pairs(),
                rebuilt.query(text).unwrap().pairs(),
                "{text}"
            );
        }
        assert!(db.audit().is_clean());
        db.close().unwrap();
    }

    /// Three batches, each interning a node the graph has not seen.
    fn interning_batches() -> [Vec<GraphUpdate>; 3] {
        [
            vec![GraphUpdate::insert_named("max", "knows", "ada")],
            vec![
                GraphUpdate::insert_named("ada", "mentors", "zed"),
                GraphUpdate::insert_named("zed", "knows", "kim"),
            ],
            vec![
                GraphUpdate::insert_named("kim", "knows", "nia"),
                GraphUpdate::delete_named("kim", "supervisor", "liz"),
            ],
        ]
    }

    /// Reopens the database at `config` and demands a clean audit — the
    /// index's node count included — and the answers of a never-crashed
    /// twin that applied every batch.
    fn assert_reopens_like_a_twin(config: PathDbConfig, when: &str) {
        let twin = example_db(2);
        for batch in interning_batches() {
            twin.apply(&batch).unwrap();
        }
        let reopened = PathDb::open(config).unwrap();
        let report = reopened.audit();
        assert!(report.is_clean(), "{when}: {:?}", report.violations());
        assert_eq!(reopened.graph().node_count(), twin.graph().node_count());
        for text in [
            "knows/knows",
            "mentors/knows",
            "knows-/knows",
            "supervisor/worksFor-",
        ] {
            assert_eq!(
                reopened.query(text).unwrap().named_pairs(&reopened),
                twin.query(text).unwrap().named_pairs(&twin),
                "{when}: {text}"
            );
        }
        reopened.close().unwrap();
    }

    #[test]
    fn a_reopen_after_stale_records_that_intern_nodes_audits_clean() {
        let _disk = DISK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = TempDir::new("stale-names");
        let config = on_disk_config(&dir);
        let db = PathDb::try_build(paper_example_graph(), config.clone()).unwrap();
        for batch in interning_batches() {
            db.apply(&batch).unwrap();
        }
        // Killed after the last page flush: every record in the log is at
        // or below the tree's sequence number.
        std::mem::forget(db);
        assert_reopens_like_a_twin(config, "every record stale");
    }

    #[test]
    fn a_reopen_after_a_fresh_record_that_interns_nodes_audits_clean() {
        let _disk = DISK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = TempDir::new("fresh-names");
        let config = on_disk_config(&dir);
        let db = PathDb::try_build(paper_example_graph(), config.clone()).unwrap();
        let [first, second, last] = interning_batches();
        db.apply(&first).unwrap();
        db.apply(&second).unwrap();
        // Killed after the last batch's log append and sync, before its
        // pages reach the file: its record is fresh.
        pathix_pagestore::fault::arm(2);
        assert!(matches!(db.apply(&last), Err(QueryError::Backend(_))));
        drop(db);
        let fired = pathix_pagestore::fault::disarm();
        assert!(
            fired
                .as_deref()
                .is_some_and(|site| site.starts_with("page-")),
            "{fired:?}"
        );
        assert_reopens_like_a_twin(config, "one record fresh");
    }

    #[test]
    fn a_logged_op_that_cannot_apply_is_refused_on_open() {
        let _disk = DISK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = TempDir::new("no-op-record");
        let config = on_disk_config(&dir);
        let db = PathDb::try_build(paper_example_graph(), config.clone()).unwrap();
        db.apply(&[GraphUpdate::insert_named("max", "knows", "ada")])
            .unwrap();
        let graph = db.graph();
        db.close().unwrap();
        drop(db);

        // CRC-valid records past the page file's seq whose op inserts an
        // edge the recovered epoch already holds, or names a node it never
        // interned.
        let [kim, liz] = ["kim", "liz"].map(|name| graph.node_id(name).unwrap());
        let supervisor = graph.label_id("supervisor").unwrap();
        for (what, op) in [
            ("already held", EdgeOp::insert(kim, supervisor, liz)),
            ("uninterned", EdgeOp::insert(kim, supervisor, NodeId(999))),
        ] {
            let record = CommitRecord {
                seq: 2,
                ops: vec![op],
                ..CommitRecord::default()
            };
            let mut wal = Wal::open(durability::wal_dir(&dir.path("idx.pages"))).unwrap();
            wal.reset().unwrap();
            wal.append(&record.encode()).unwrap();
            wal.sync().unwrap();
            drop(wal);

            // Refused every time: the record is neither skipped nor consumed.
            for _ in 0..2 {
                let err = PathDb::open(config.clone()).unwrap_err();
                assert!(
                    matches!(&err, QueryError::Recovery(m) if m.contains("commit 2")),
                    "{what}: {err:?}"
                );
            }
        }
    }

    /// Builds and closes an on-disk database of the paper's graph, then puts
    /// `bytes` where its checkpoint was and opens it. The open must refuse.
    fn open_with_checkpoint(bytes: &[u8], what: &str) -> String {
        let _disk = DISK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = TempDir::new("bad-checkpoint");
        let config = on_disk_config(&dir);
        let db = PathDb::try_build(paper_example_graph(), config.clone()).unwrap();
        db.close().unwrap();
        drop(db);
        std::fs::write(durability::checkpoint_path(&dir.path("idx.pages")), bytes).unwrap();
        match PathDb::open(config) {
            Err(QueryError::Recovery(message)) => message,
            other => panic!("{what}: {other:?}"),
        }
    }

    /// A framed base record of `new_nodes`, the one label `knows` and `ops`.
    fn framed_base(new_nodes: &[&str], ops: Vec<EdgeOp>) -> Vec<u8> {
        let record = CommitRecord {
            seq: 0,
            new_nodes: new_nodes.iter().map(|name| name.to_string()).collect(),
            new_labels: vec!["knows".to_string()],
            ops,
        };
        pathix_pagestore::wal::frame(&record.encode())
    }

    #[test]
    fn a_checkpoint_edge_to_an_uninterned_node_is_refused_on_open() {
        let bytes = framed_base(
            &["ada", "jan"],
            vec![EdgeOp::insert(NodeId(0), LabelId(0), NodeId(7))],
        );
        let message = open_with_checkpoint(&bytes, "node 7 of 2");
        assert!(message.contains("never interned"), "{message}");
    }

    #[test]
    fn a_checkpoint_edge_with_an_uninterned_label_is_refused_on_open() {
        let bytes = framed_base(
            &["ada", "jan"],
            vec![EdgeOp::insert(NodeId(0), LabelId(3), NodeId(1))],
        );
        let message = open_with_checkpoint(&bytes, "label 3 of 1");
        assert!(message.contains("never interned"), "{message}");
    }

    #[test]
    fn a_checkpoint_that_repeats_a_name_is_refused_on_open() {
        // Interning `ada` twice would give `jan` id 1, and node 2 no name.
        let bytes = framed_base(
            &["ada", "ada", "jan"],
            vec![EdgeOp::insert(NodeId(0), LabelId(0), NodeId(2))],
        );
        let message = open_with_checkpoint(&bytes, "a repeated name");
        assert!(message.contains("interned twice"), "{message}");
    }

    #[test]
    fn a_checkpoint_that_deletes_an_edge_is_refused_on_open() {
        let bytes = framed_base(
            &["ada", "jan"],
            vec![
                EdgeOp::insert(NodeId(0), LabelId(0), NodeId(1)),
                EdgeOp::delete(NodeId(1), LabelId(0), NodeId(0)),
            ],
        );
        let message = open_with_checkpoint(&bytes, "a delete op");
        assert!(message.contains("deletes an edge"), "{message}");
    }

    #[test]
    fn a_checkpoint_in_the_snapshot_format_is_refused_on_open() {
        // The graph checkpoint's earlier payload, in the same frame: seq,
        // the node and label names (u32 count, then u32-length-prefixed
        // UTF-8 each), then the edges (u64 count, then label u16, source u32
        // and target u32 each).
        let graph = paper_example_graph();
        let put_names = |out: &mut Vec<u8>, names: Vec<&str>| {
            out.extend_from_slice(&(names.len() as u32).to_le_bytes());
            for name in names {
                out.extend_from_slice(&(name.len() as u32).to_le_bytes());
                out.extend_from_slice(name.as_bytes());
            }
        };
        // The low byte of 3, 259 and 515 is the record format byte.
        for seq in [0u64, 1, 3, 259, 515] {
            let mut payload = seq.to_le_bytes().to_vec();
            put_names(
                &mut payload,
                graph.nodes().map(|n| graph.node_name(n).unwrap()).collect(),
            );
            put_names(
                &mut payload,
                graph
                    .labels()
                    .map(|l| graph.label_name(l).unwrap())
                    .collect(),
            );
            payload.extend_from_slice(&(graph.edge_count() as u64).to_le_bytes());
            for label in graph.labels() {
                for (src, dst) in graph.edges(label) {
                    payload.extend_from_slice(&label.0.to_le_bytes());
                    payload.extend_from_slice(&src.0.to_le_bytes());
                    payload.extend_from_slice(&dst.0.to_le_bytes());
                }
            }
            let bytes = pathix_pagestore::wal::frame(&payload);
            let message = open_with_checkpoint(&bytes, &format!("seq {seq}"));
            assert!(message.contains("checkpoint"), "seq {seq}: {message}");
        }
    }

    /// Applies [`interning_batches`]' first two batches to a fresh on-disk
    /// database of the paper's graph and drops it without a close, as a
    /// crash would. Returns the config and the log's one segment.
    fn two_acknowledged_batches(dir: &TempDir) -> (PathDbConfig, PathBuf) {
        let config = on_disk_config(dir);
        let db = PathDb::try_build(paper_example_graph(), config.clone()).unwrap();
        let [first, second, _] = interning_batches();
        db.apply(&first).unwrap();
        db.apply(&second).unwrap();
        std::mem::forget(db);
        let page_file = dir.path("idx.pages");
        let [segment] = wal_segments(&page_file).try_into().unwrap();
        (config, durability::wal_dir(&page_file).join(segment))
    }

    #[test]
    fn a_flipped_byte_inside_an_early_record_is_refused_on_open() {
        let _disk = DISK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = TempDir::new("flipped-record");
        let (config, segment) = two_acknowledged_batches(&dir);
        // Offset 12 is inside the first record's payload; the second record
        // follows it intact.
        let mut bytes = std::fs::read(&segment).unwrap();
        bytes[12] ^= 0xFF;
        std::fs::write(&segment, &bytes).unwrap();
        for _ in 0..2 {
            let err = PathDb::open(config.clone()).unwrap_err();
            assert!(
                matches!(&err, QueryError::Recovery(m) if m.contains("write-ahead log")),
                "{err:?}"
            );
        }
        // Nothing was folded away: the damaged log is still there.
        assert_eq!(std::fs::read(&segment).unwrap(), bytes);
    }

    #[test]
    fn a_page_file_ahead_of_the_log_is_refused_on_open() {
        let _disk = DISK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = TempDir::new("pages-ahead");
        let (config, segment) = two_acknowledged_batches(&dir);
        // Keep the first record only: a clean log that ends at commit 1,
        // while the page file absorbed commit 2.
        let bytes = std::fs::read(&segment).unwrap();
        let first = 8 + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        std::fs::write(&segment, &bytes[..first]).unwrap();
        let err = PathDb::open(config).unwrap_err();
        assert!(
            matches!(&err, QueryError::Recovery(m) if m.contains("log ends at commit 1")),
            "{err:?}"
        );
    }
}
