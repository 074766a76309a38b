//! # pathix-graph
//!
//! Edge-labeled directed graph substrate used throughout pathix.
//!
//! The data model follows Section 2.1 of Fletcher, Peters and Poulovassilis,
//! *Efficient regular path query evaluation using path indexes* (EDBT 2016):
//! a graph over a vocabulary `L` assigns to every label `ℓ ∈ L` a finite
//! binary edge relation over atomic data objects. Nodes and labels are
//! interned into dense integer identifiers ([`NodeId`], [`LabelId`]) so that
//! the rest of the system can operate on compact numeric keys.
//!
//! The central type is [`Graph`], an immutable **epoch** over structurally
//! shared storage:
//!
//! * per-label edge relations (and their converses, so backwards navigation
//!   `ℓ⁻` is as cheap as forwards `ℓ`) each held in a [`PairRun`] — bounded
//!   immutable chunks behind `Arc`s with exact fences for chunk skipping,
//!   the same container the k-path index keeps its path relations in;
//! * an append-only shared vocabulary ([`dict`]) — each epoch resolves names
//!   lock-free through a frozen prefix view while a writer interns new
//!   nodes and labels live.
//!
//! Cloning a graph is a handful of refcount bumps, and
//! [`Graph::commit_batch`] publishes the next epoch in O(Δ): only chunks
//! containing a changed pair are rebuilt, everything else is re-shared.
//!
//! Graphs are constructed through [`GraphBuilder`], loaded from simple
//! whitespace-separated edge-list files via [`loader`], generated
//! synthetically by the `pathix-datagen` crate, or grown from
//! [`Graph::empty`] purely through update batches (streaming ingest).
//!
//! ```
//! use pathix_graph::{GraphBuilder, SignedLabel};
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge_named("ada", "knows", "jan");
//! b.add_edge_named("jan", "worksFor", "ada");
//! let g = b.build();
//!
//! assert_eq!(g.node_count(), 2);
//! assert_eq!(g.edge_count(), 2);
//! let knows = g.label_id("knows").unwrap();
//! let ada = g.node_id("ada").unwrap();
//! let out: Vec<_> = g.neighbors(ada, SignedLabel::forward(knows)).collect();
//! assert_eq!(out.len(), 1);
//! ```

pub mod builder;
pub mod dict;
pub mod graph;
pub mod ids;
pub mod loader;
pub mod runs;

pub use builder::GraphBuilder;
pub use dict::{DictView, Dictionary, SharedDictionary, Vocabulary};
pub use graph::{EdgeOp, Graph, VocabBatch};
pub use ids::{Direction, LabelId, NodeId, SignedLabel};
pub use loader::{load_edge_list, load_edge_list_str, LoadError};
pub use runs::{ChunkCodec, GraphPublishStats, PairRun, Plain};
