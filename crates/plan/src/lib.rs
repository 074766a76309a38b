//! # pathix-plan
//!
//! Query planning and execution for RPQs over the k-path index: the paper's
//! four evaluation strategies, the cost model that drives the
//! histogram-guided ones, and the executor that turns physical plans into
//! `pathix-exec` operator trees.
//!
//! A query arrives as its list of label-path **disjuncts** (the output of
//! `pathix_rpq::to_disjuncts`); each strategy turns one disjunct into a
//! [`PhysicalPlan`] of index scans and joins, and [`plan_query`] unions the
//! per-disjunct plans:
//!
//! | Strategy | Module | Paper description |
//! |----------|--------|-------------------|
//! | [`Strategy::Naive`] | [`naive`] | k fixed at 1: scans of single edge labels only (automaton-equivalent). |
//! | [`Strategy::SemiNaive`] | [`semi_naive`] | Left-to-right chunks of length k; merge join when the index sort order can be used, hash join otherwise. |
//! | [`Strategy::MinSupport`] | [`min_support`] | Recursive split on the most selective length-k sub-path (per the histogram), costing the alternative join orders. |
//! | [`Strategy::MinJoin`] | [`min_join`] | Minimal number of index lookups (⌈n/k⌉ chunks), segmentation and join order chosen by cost. |
//!
//! A lookup that binds an end of the answer (Example 3.1's `(p, s, ·)` and
//! `(p, s, t)` shapes) reads the same plan as a segmentation only:
//! [`open_stream_bound`] walks the frontier from the bound node through the
//! plan's leaves with the index's prefix and point probes ([`bound`]). A
//! drained unbound answer is that walk from every source in turn
//! ([`open_stream_walk`]): it comes out in `(s, t)` order, distinct, with no
//! final sort; a consumer that may stop early keeps the pipelined operator
//! tree ([`open_stream`]).
//!
//! ```
//! use pathix_datagen::paper_example_graph;
//! use pathix_index::{EstimationMode, PathHistogram, PathIndexBackend, SharedKPathIndex};
//! use pathix_plan::{plan_query, execute, PlannerContext, Strategy};
//! use pathix_rpq::{parse, to_disjuncts, RewriteOptions};
//!
//! let g = paper_example_graph();
//! let index = SharedKPathIndex::build(&g, 2);
//! let hist = PathHistogram::build(
//!     index.per_path_counts(), 2, EstimationMode::default());
//! let ctx = PlannerContext::new(&index, &hist);
//! let expr = parse("knows/worksFor").unwrap().bind(&g).unwrap();
//! let disjuncts = to_disjuncts(&expr, RewriteOptions::default()).unwrap();
//! let plan = plan_query(Strategy::MinSupport, &disjuncts, &ctx);
//! // Execution is fallible: disk-resident backends surface I/O errors.
//! let result = execute(&plan, &index).unwrap();
//! assert!(!result.is_empty());
//! ```

pub mod bound;
pub mod cost;
pub mod executor;
pub mod explain;
pub mod min_join;
pub mod min_support;
pub mod naive;
pub mod plan;
pub mod planner;
pub mod semi_naive;

pub use bound::{open_stream_bound, open_stream_walk, open_stream_walk_counted};
pub use cost::{cost_plan, PlanCost};
pub use executor::{
    execute, execute_pairwise, execute_with_stats, open_stream, open_stream_cancellable,
    ExecutionStats,
};
pub use explain::explain;
pub use plan::{JoinAlgorithm, PhysicalPlan};
pub use planner::{plan_disjunct, plan_query, PlannerContext, Strategy};
