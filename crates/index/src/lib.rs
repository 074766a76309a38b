//! # pathix-index
//!
//! The paper's primary data structures: the localized **k-path index**
//! `I_{G,k}` (Section 3.1) and the **k-path histogram** `sel_{G,k}`
//! (Section 3.2).
//!
//! The index materializes, for every label path `p` of length ≤ k over the
//! signed alphabet `{ℓ, ℓ⁻}`, every node pair `(a, b) ∈ p(G)`, and stores the
//! triples `⟨p, a, b⟩` in `(path, source, target)` order — as sorted,
//! `Arc`-shared chunk runs in memory ([`SharedKPathIndex`]) and as composite
//! [`pathkey`] keys in the paged B+tree of `pathix-pagestore` on disk. A scan
//! over `⟨p⟩` therefore yields `p(G)` ordered by `(source, target)`; a scan
//! over `⟨p, a⟩` yields the targets reachable from `a`; a point lookup over
//! `⟨p, a, b⟩` answers membership — exactly the three lookup shapes of
//! Example 3.1 in the paper.
//!
//! The histogram records (estimates of) `|p(G)|` for every indexed path and
//! is what the `minSupport` / `minJoin` planners use to pick the most
//! selective sub-paths.
//!
//! ```
//! use pathix_datagen::paper_example_graph;
//! use pathix_index::SharedKPathIndex;
//! use pathix_graph::SignedLabel;
//!
//! let g = paper_example_graph();
//! let index = SharedKPathIndex::build(&g, 2);
//! let knows = SignedLabel::forward(g.label_id("knows").unwrap());
//! let pairs: Vec<_> = index.scan_path(&[knows, knows]).collect();
//! assert!(!pairs.is_empty());
//! ```

pub mod backend;
pub mod enumerate;
pub mod estimate;
pub mod histogram;
pub mod incremental;
pub mod pathkey;
pub mod runs;

pub use backend::{
    BackendBatchScan, BackendError, BackendResult, BackendStats, BatchScan, DeltaBatch,
    EntryChange, EntryDeltas, MutablePathIndexBackend, PairBatch, PathIndexBackend, BATCH_CAPACITY,
};
pub use enumerate::{enumerate_paths, naive_path_eval, PathRelation};
pub use estimate::CardinalityEstimator;
pub use histogram::{EstimationMode, PathHistogram};
pub use incremental::{apply_op, GraphUpdate};
pub use runs::{RunPublishStats, SharedKPathIndex};
