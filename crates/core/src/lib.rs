//! # pathix-core
//!
//! The public facade of pathix: [`PathDb`] bundles a graph, its k-path index
//! and k-path histogram, and exposes parse → bind → rewrite → plan → execute
//! through a compile-once / execute-many API:
//!
//! * [`PathDb::prepare`] compiles a query once into a [`PreparedQuery`],
//!   which plans lazily, once per strategy and epoch;
//! * [`QueryOptions`] selects strategy, limits, cancellation and the
//!   paper's Example 3.1 source/target bindings for one execution;
//! * [`PreparedQuery::run`] materializes an answer, [`PreparedQuery::cursor`]
//!   streams it through a [`Cursor`] with early termination;
//! * [`PathDb::query`] / [`PathDb::run`] serve ad-hoc calls, compiling and
//!   planning on every call; an `Arc<PathDb>` and clones of one
//!   [`PreparedQuery`] serve concurrent clients;
//! * [`PathDb::apply`] absorbs live edge insertions and deletions on every
//!   backend by rederiving the k-paths each edge touches, publishing
//!   immutable epoch-tagged [`Snapshot`]s — prepared plans replan on epoch
//!   mismatch and open [`Cursor`]s keep streaming from the snapshot they
//!   opened on.
//!
//! ```
//! use pathix_core::{PathDb, PathDbConfig, QueryOptions, Strategy};
//! use pathix_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge_named("ada", "knows", "jan");
//! b.add_edge_named("jan", "worksFor", "acme");
//! b.add_edge_named("ada", "worksFor", "acme");
//! let db = PathDb::build(b.build(), PathDbConfig::with_k(2));
//!
//! // Colleagues of ada: people working for the same employer.
//! let colleagues = db.prepare("worksFor/worksFor-").unwrap();
//! let result = colleagues
//!     .run(&db, QueryOptions::with_strategy(Strategy::MinSupport))
//!     .unwrap();
//! assert!(result.contains_named(&db, "ada", "jan"));
//! ```

pub mod cursor;
pub mod db;
mod durability;
pub mod error;
pub mod options;
pub mod prepared;
pub mod result;

pub use cursor::Cursor;
pub use db::{
    BackendChoice, DbStats, HistogramRefresh, IndexBackend, PathDb, PathDbConfig, Snapshot,
    StorageStats, UpdateStats,
};
pub use error::QueryError;
pub use options::QueryOptions;
pub use prepared::{PlanCacheStats, PreparedQuery};
pub use result::QueryResult;

// Re-export the vocabulary a downstream user needs without adding every
// sub-crate as a direct dependency.
pub use pathix_audit::{AuditReport, AuditSection, AuditViolation, StructuralAudit};
pub use pathix_exec::CancelToken;
pub use pathix_graph::{Graph, GraphBuilder, LabelId, NodeId, SignedLabel};
pub use pathix_index::{
    BackendError, BackendStats, DeltaBatch, EntryChange, EntryDeltas, EstimationMode, GraphUpdate,
    MutablePathIndexBackend, PathIndexBackend, RunPublishStats, SharedKPathIndex,
};
pub use pathix_pagestore::{CowStats, PoolStats};
pub use pathix_plan::{ExecutionStats, PhysicalPlan, Strategy};
pub use pathix_rpq::{ParseError, RewriteOptions};
