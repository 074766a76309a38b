//! # pathix
//!
//! Regular path query (RPQ) evaluation over edge-labeled graphs using
//! localized **k-path indexes**, reproducing Fletcher, Peters and
//! Poulovassilis, *"Efficient regular path query evaluation using path
//! indexes"* (EDBT 2016).
//!
//! This umbrella crate re-exports the public API of the workspace:
//!
//! * [`PathDb`] — build an index over a graph and run RPQs with any of the
//!   paper's four strategies (`naive`, `semi-naive`, `minSupport`,
//!   `minJoin`); [`PathDb::prepare`] compiles a query once into a
//!   [`PreparedQuery`], [`QueryOptions`] configures each execution,
//!   [`Cursor`] streams answers with early termination, and an
//!   `Arc<PathDb>` shares a database across concurrent clients;
//! * [`graph`] — the graph substrate (builders, loaders, CSR adjacency);
//! * [`datagen`] — synthetic datasets (Advogato-like, Erdős–Rényi,
//!   Barabási–Albert, social networks) and RPQ workloads;
//! * [`rpq`] — the query language (parser, rewriter, automata);
//! * [`index`] — the k-path index and histogram;
//! * [`plan`] — planning strategies, cost model, executor and explain;
//! * [`baselines`] — the automaton and Datalog baselines the paper compares
//!   against;
//! * [`pagestore`] — disk-oriented storage (buffer pool, paged B+tree,
//!   compression) mirroring the companion study of index size;
//! * [`sql`] — the relational backend: the paper's RPQ-to-SQL translation
//!   over a `path_index` table, executed by a small SQL engine;
//! * [`serve`] — the worker-pool serving tier: admission control with
//!   backpressure, per-request deadlines with cooperative cancellation,
//!   read-only degraded modes and kill-anywhere restart.
//!
//! See the `examples/` directory for runnable walkthroughs and
//! `crates/bench` for the harness that regenerates the paper's figures.
//!
//! ```
//! use pathix::{PathDb, PathDbConfig, QueryOptions, Strategy};
//! use pathix::datagen::paper_example_graph;
//!
//! let db = PathDb::build(paper_example_graph(), PathDbConfig::with_k(2));
//!
//! // Compile once, execute many: parse/bind/rewrite happen a single time.
//! let prepared = db.prepare("supervisor/worksFor-").unwrap();
//! let answer = prepared
//!     .run(&db, QueryOptions::with_strategy(Strategy::MinSupport))
//!     .unwrap();
//! assert_eq!(answer.named_pairs(&db), vec![("kim".to_string(), "sue".to_string())]);
//!
//! // Ad-hoc calls compile (and plan) on every call.
//! assert_eq!(db.query("supervisor/worksFor-").unwrap().len(), 1);
//! assert_eq!(db.plan_cache_stats().compilations, 2);
//! ```
//!
//! ## Choosing an index backend
//!
//! The entire query pipeline is generic over the
//! [`PathIndexBackend`] trait, so the same parse → bind → rewrite → plan →
//! execute flow runs against any of the built-in index representations.
//! Select one with [`PathDbConfig::backend`] / [`BackendChoice`]:
//!
//! * [`BackendChoice::Memory`] (the default) — the in-memory chunk-run index;
//!   fastest scans, bounded by RAM.
//! * [`BackendChoice::PagedInMemory`] — the paged B+tree behind a
//!   clock-eviction buffer pool with an in-memory page store; exercises the
//!   full paging machinery (useful for tests and cache measurements).
//! * [`BackendChoice::OnDisk`] — the paged B+tree over a page file on disk;
//!   only `pool_frames` 4 KiB pages stay resident, so the index can be far
//!   larger than memory.
//! * [`BackendChoice::Compressed`] — the in-memory chunk-run index with
//!   delta/varint-encoded chunks; the smallest footprint, decoding on read.
//!
//! Backends answering a query never panic on I/O: failures surface as
//! [`QueryError::Backend`].
//!
//! ```
//! use pathix::{BackendChoice, PathDb, PathDbConfig};
//! use pathix::datagen::paper_example_graph;
//!
//! let config = PathDbConfig::with_k(2)
//!     .with_backend(BackendChoice::PagedInMemory { pool_frames: 32 });
//! let db = PathDb::try_build(paper_example_graph(), config).unwrap();
//! assert_eq!(db.backend_name(), "paged");
//! let answer = db.query("supervisor/worksFor-").unwrap();
//! assert_eq!(answer.len(), 1);
//! ```

pub use pathix_core::{
    AuditReport, AuditSection, AuditViolation, BackendChoice, BackendError, BackendStats, Cursor,
    DbStats, DeltaBatch, EntryChange, EntryDeltas, EstimationMode, ExecutionStats, Graph,
    GraphBuilder, GraphUpdate, HistogramRefresh, IndexBackend, LabelId, MutablePathIndexBackend,
    NodeId, PathDb, PathDbConfig, PathIndexBackend, PhysicalPlan, PlanCacheStats, PreparedQuery,
    QueryError, QueryOptions, QueryResult, SignedLabel, Snapshot, Strategy, StructuralAudit,
    UpdateStats,
};

/// The graph substrate crate.
pub use pathix_graph as graph;

/// Synthetic datasets and workloads.
pub use pathix_datagen as datagen;

/// The RPQ language: parser, AST, rewriter and automata.
pub use pathix_rpq as rpq;

/// The k-path index and histogram.
pub use pathix_index as index;

/// Planning strategies, cost model and executor.
pub use pathix_plan as plan;

/// Baseline evaluators (automaton product BFS, Datalog).
pub use pathix_baselines as baselines;

/// Disk-oriented storage: pager, buffer pool, paged B+tree, the
/// delta/varint chunk encoding of the compressed backend and the paged
/// k-path index.
pub use pathix_pagestore as pagestore;

/// Relational backend: the small SQL engine and the paper's RPQ-to-SQL
/// translation (plus the recursive-SQL-views baseline).
pub use pathix_sql as sql;

/// The worker-pool serving tier: admission control, deadlines + cooperative
/// cancellation, degraded (read-only) modes and kill-anywhere restart.
pub use pathix_serve as serve;
