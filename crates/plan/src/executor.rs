//! Turning physical plans into `pathix-exec` operator trees and running them.
//!
//! Execution is generic over the [`PathIndexBackend`], so the same physical
//! plan runs unchanged against the in-memory, paged or compressed index.
//! Every entry point returns a `Result`: disk-resident backends surface I/O
//! failures as [`pathix_index::BackendError`]s instead of panicking.

use crate::bound::{open_stream_walk, open_stream_walk_counted};
use crate::plan::{JoinAlgorithm, PhysicalPlan};
use pathix_exec::{
    BoxedPairStream, CancelGuard, CancelToken, DistinctOp, EpsilonScanOp, HashJoinOp, IndexScanOp,
    MergeJoinOp, Pair, PairBatch, PairStream, UnionAllOp,
};
use pathix_index::{BackendResult, PathIndexBackend};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Executes `plan` against `index`, returning the answer as a sorted,
/// duplicate-free pair list (the paper's set semantics).
pub fn execute<B: PathIndexBackend + ?Sized>(
    plan: &PhysicalPlan,
    index: &B,
) -> BackendResult<Vec<Pair>> {
    execute_with_stats(plan, index).map(|(pairs, _)| pairs)
}

/// Timing and size information recorded by [`execute_with_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionStats {
    /// Wall-clock time spent in the operator tree.
    pub elapsed: Duration,
    /// Number of result pairs after duplicate elimination.
    pub result_pairs: usize,
    /// Number of pairs pulled from the stream the run opened, before any
    /// consumer-side `limit`. A drained run walks every source in order
    /// ([`crate::open_stream_walk`]) and a run that binds an end walks from
    /// the bound node ([`crate::open_stream_bound`]): both emit answers
    /// only, so there it equals `result_pairs`. An unbound run under a
    /// `limit` pulls from the pipelined operator tree, whose join-rooted
    /// plans can emit duplicates; stopping early pulls fewer pairs than a
    /// full drain, which makes early termination observable.
    pub pairs_pulled: usize,
    /// Number of joins in the executed plan.
    pub joins: usize,
    /// How many of those were merge joins.
    pub merge_joins: usize,
    /// How many levels of a drained run's walk were held as bitmaps over
    /// the node range rather than as sorted lists
    /// ([`crate::open_stream_walk`]): each leaf expansion or union that came
    /// out dense. Always 0 for a run that binds an end, whose levels stay
    /// lists, and for one that pulls from the operator tree.
    pub bitmap_levels: usize,
}

/// Executes `plan` and reports execution statistics along with the result.
///
/// The answer is drained from [`open_stream_walk`], which emits it sorted
/// and distinct, so it is returned as pulled.
pub fn execute_with_stats<B: PathIndexBackend + ?Sized>(
    plan: &PhysicalPlan,
    index: &B,
) -> BackendResult<(Vec<Pair>, ExecutionStats)> {
    let start = Instant::now();
    let bitmap_levels = Arc::new(AtomicUsize::new(0));
    let mut stream = open_stream_walk_counted(plan, index, None, Arc::clone(&bitmap_levels))?;
    let mut result = Vec::new();
    let mut batch = PairBatch::new();
    while stream.next_batch(&mut batch)? > 0 {
        result.extend(batch.iter());
    }
    debug_assert!(is_set(&result), "the walk emitted an unsorted answer");
    let stats = ExecutionStats {
        elapsed: start.elapsed(),
        result_pairs: result.len(),
        pairs_pulled: result.len(),
        joins: plan.join_count(),
        merge_joins: plan.merge_join_count(),
        bitmap_levels: bitmap_levels.load(Ordering::Relaxed),
    };
    Ok((result, stats))
}

/// [`execute_with_stats`] pair-at-a-time (no batching anywhere above the
/// backend), returning the sorted, duplicate-free answer plus the number of
/// pairs pulled.
///
/// Kept as the reference `tests/vectorized_equivalence.rs` holds the batched
/// pull to.
pub fn execute_pairwise<B: PathIndexBackend + ?Sized>(
    plan: &PhysicalPlan,
    index: &B,
) -> BackendResult<(Vec<Pair>, usize)> {
    let mut stream = open_stream_walk(plan, index, None)?;
    let mut result = Vec::new();
    while let Some(pair) = stream.next_pair()? {
        result.push(pair);
    }
    debug_assert!(is_set(&result), "the walk emitted an unsorted answer");
    let pairs_pulled = result.len();
    Ok((result, pairs_pulled))
}

/// Whether `pairs` is strictly increasing: sorted and distinct.
fn is_set(pairs: &[Pair]) -> bool {
    pairs.windows(2).all(|w| w[0] < w[1])
}

/// Restores set semantics by sorting: for a sparse frontier level, and for
/// the reference answers tests compare against.
pub(crate) fn sort_dedup<T: Ord>(items: &mut Vec<T>) {
    items.sort_unstable();
    items.dedup();
}

/// Recursively builds the operator tree for a plan and returns its root as a
/// pull-based pair stream.
///
/// This is the pipelined entry point, for callers that may stop after a few
/// pairs (`limit`, `exists`): the first pair arrives after a few leaf
/// batches. The pairs come in operator order and a join-rooted plan can
/// repeat them. A caller that drains the whole answer wants
/// [`crate::open_stream_walk`] instead, which emits it sorted and distinct
/// and never pulls a duplicate. The stream borrows both the plan and the
/// index.
///
/// ```
/// use pathix_datagen::paper_example_graph;
/// use pathix_exec::{PairBatch, PairStream};
/// use pathix_index::{EstimationMode, PathHistogram, PathIndexBackend, SharedKPathIndex};
/// use pathix_plan::{execute, open_stream, plan_query, PlannerContext, Strategy};
/// use pathix_rpq::{parse, to_disjuncts, RewriteOptions};
///
/// let g = paper_example_graph();
/// let index = SharedKPathIndex::build(&g, 2);
/// let histogram = PathHistogram::build(
///     index.per_path_counts(), 2, EstimationMode::default());
/// let ctx = PlannerContext::new(&index, &histogram);
/// let expr = parse("knows/knows/worksFor").unwrap().bind(&g).unwrap();
/// let plan = plan_query(
///     Strategy::MinSupport, &to_disjuncts(&expr, RewriteOptions::default()).unwrap(), &ctx);
///
/// // Pull one pair and stop: nothing else is computed.
/// let mut stream = open_stream(&plan, &index).unwrap();
/// let first = stream.next_pair().unwrap().expect("the query has answers");
///
/// // Or drain batch-at-a-time; sorted and deduplicated this is `execute`
/// // (which drains the walk instead).
/// let mut stream = open_stream(&plan, &index).unwrap();
/// let mut batch = PairBatch::new();
/// let mut pairs = Vec::new();
/// while stream.next_batch(&mut batch).unwrap() > 0 {
///     pairs.extend(batch.iter());
/// }
/// assert!(pairs.contains(&first));
/// pairs.sort_unstable();
/// pairs.dedup();
/// assert_eq!(pairs, execute(&plan, &index).unwrap());
/// ```
pub fn open_stream<'a, B: PathIndexBackend + ?Sized>(
    plan: &'a PhysicalPlan,
    index: &'a B,
) -> BackendResult<BoxedPairStream<'a>> {
    build_stream(plan, index, None)
}

/// [`open_stream`] with cooperative cancellation: every operator in the tree
/// is wrapped in a [`CancelGuard`] sharing `token`, so a tripped token (or an
/// expired deadline) interrupts the stream at the next batch boundary — even
/// deep inside a selective join that pulls many child batches per output
/// pair. The cancellation surfaces as a backend error whose backend name is
/// [`pathix_exec::CANCEL_BACKEND`].
pub fn open_stream_cancellable<'a, B: PathIndexBackend + ?Sized>(
    plan: &'a PhysicalPlan,
    index: &'a B,
    token: &CancelToken,
) -> BackendResult<BoxedPairStream<'a>> {
    build_stream(plan, index, Some(token))
}

pub(crate) fn build_stream<'a, B: PathIndexBackend + ?Sized>(
    plan: &'a PhysicalPlan,
    index: &'a B,
    token: Option<&CancelToken>,
) -> BackendResult<BoxedPairStream<'a>> {
    let stream: BoxedPairStream<'a> = match plan {
        PhysicalPlan::IndexScan { path, orientation } => {
            Box::new(IndexScanOp::new(index, path, *orientation)?)
        }
        PhysicalPlan::Epsilon => Box::new(EpsilonScanOp::new(index.node_count())),
        PhysicalPlan::Join {
            algorithm,
            left,
            right,
        } => {
            let l = build_stream(left, index, token)?;
            let r = build_stream(right, index, token)?;
            match algorithm {
                JoinAlgorithm::Merge => Box::new(MergeJoinOp::new(l, r)),
                JoinAlgorithm::Hash => Box::new(HashJoinOp::new(l, r)),
            }
        }
        PhysicalPlan::Union(children) => {
            let streams: Vec<BoxedPairStream<'a>> = children
                .iter()
                .map(|child| build_stream(child, index, token))
                .collect::<BackendResult<_>>()?;
            Box::new(DistinctOp::new(Box::new(UnionAllOp::new(streams))))
        }
    };
    Ok(match token {
        Some(token) => Box::new(CancelGuard::new(stream, token.clone())),
        None => stream,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan_query, PlannerContext, Strategy};
    use pathix_datagen::paper_example_graph;
    use pathix_graph::{Graph, NodeId};
    use pathix_index::{naive_path_eval, EstimationMode, PathHistogram, SharedKPathIndex};
    use pathix_rpq::{parse, to_disjuncts, RewriteOptions};

    fn fixture(k: usize) -> (Graph, SharedKPathIndex, PathHistogram) {
        let g = paper_example_graph();
        let index = SharedKPathIndex::build(&g, k);
        let hist = PathHistogram::build(index.per_path_counts(), k, EstimationMode::default());
        (g, index, hist)
    }

    /// Reference answer: union of the per-disjunct reference evaluations.
    fn reference(g: &Graph, query: &str, star_bound: u32) -> Vec<Pair> {
        let expr = parse(query).unwrap().bind(g).unwrap();
        let disjuncts = to_disjuncts(&expr, RewriteOptions::with_star_bound(star_bound)).unwrap();
        let mut out = Vec::new();
        for d in disjuncts {
            out.extend(naive_path_eval(g, &d));
        }
        sort_dedup(&mut out);
        out
    }

    #[test]
    fn all_strategies_agree_with_the_reference_on_paper_queries() {
        let queries = [
            "knows",
            "knows/worksFor",
            "supervisor/worksFor-",
            "knows/(knows/worksFor){2,4}/worksFor",
            "(supervisor|worksFor|worksFor-){4,5}",
            "knows-/knows",
            "worksFor?",
            "knows{0,3}",
        ];
        for k in 1..=3 {
            let (g, index, hist) = fixture(k);
            let ctx = PlannerContext::new(&index, &hist);
            for query in queries {
                let expected = reference(&g, query, 4);
                let expr = parse(query).unwrap().bind(&g).unwrap();
                let disjuncts = to_disjuncts(&expr, RewriteOptions::with_star_bound(4)).unwrap();
                for strategy in Strategy::all() {
                    let plan = plan_query(strategy, &disjuncts, &ctx);
                    let result = execute(&plan, &index).unwrap();
                    assert_eq!(
                        result, expected,
                        "strategy {strategy} disagrees on {query:?} with k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn paper_worked_example_supervisor_works_for_inverse() {
        let (g, index, hist) = fixture(2);
        let ctx = PlannerContext::new(&index, &hist);
        let expr = parse("supervisor/worksFor-").unwrap().bind(&g).unwrap();
        let disjuncts = to_disjuncts(&expr, RewriteOptions::default()).unwrap();
        let plan = plan_query(Strategy::MinSupport, &disjuncts, &ctx);
        let result = execute(&plan, &index).unwrap();
        let kim = g.node_id("kim").unwrap();
        let sue = g.node_id("sue").unwrap();
        assert_eq!(result, vec![(kim, sue)]);
    }

    #[test]
    fn epsilon_query_returns_identity() {
        let (g, index, hist) = fixture(2);
        let ctx = PlannerContext::new(&index, &hist);
        let expr = parse("()").unwrap().bind(&g).unwrap();
        let disjuncts = to_disjuncts(&expr, RewriteOptions::default()).unwrap();
        let plan = plan_query(Strategy::SemiNaive, &disjuncts, &ctx);
        let result = execute(&plan, &index).unwrap();
        assert_eq!(result.len(), g.node_count());
        assert!(result.iter().all(|&(a, b)| a == b));
    }

    #[test]
    fn execute_with_stats_reports_plan_shape() {
        let (g, index, hist) = fixture(2);
        let ctx = PlannerContext::new(&index, &hist);
        let expr = parse("knows/worksFor/knows/worksFor")
            .unwrap()
            .bind(&g)
            .unwrap();
        let disjuncts = to_disjuncts(&expr, RewriteOptions::default()).unwrap();
        let plan = plan_query(Strategy::SemiNaive, &disjuncts, &ctx);
        let (result, stats) = execute_with_stats(&plan, &index).unwrap();
        assert_eq!(stats.result_pairs, result.len());
        assert!(stats.pairs_pulled >= stats.result_pairs);
        assert_eq!(stats.joins, 1);
        assert_eq!(stats.merge_joins, 1);
    }

    #[test]
    fn queries_with_no_matches_return_empty() {
        let (g, index, hist) = fixture(2);
        let ctx = PlannerContext::new(&index, &hist);
        // supervisor/supervisor has no 2-path in the example graph (only one
        // supervisor edge exists).
        let expr = parse("supervisor/supervisor").unwrap().bind(&g).unwrap();
        let disjuncts = to_disjuncts(&expr, RewriteOptions::default()).unwrap();
        for strategy in Strategy::all() {
            let plan = plan_query(strategy, &disjuncts, &ctx);
            assert!(
                execute(&plan, &index).unwrap().is_empty(),
                "strategy {strategy}"
            );
        }
    }

    #[test]
    fn execution_works_through_a_trait_object() {
        let (g, index, hist) = fixture(2);
        let dyn_index: &dyn PathIndexBackend = &index;
        let ctx = PlannerContext::new(dyn_index, &hist);
        let expr = parse("knows/worksFor").unwrap().bind(&g).unwrap();
        let disjuncts = to_disjuncts(&expr, RewriteOptions::default()).unwrap();
        let plan = plan_query(Strategy::MinJoin, &disjuncts, &ctx);
        let via_dyn = execute(&plan, dyn_index).unwrap();
        let via_concrete = execute(&plan, &index).unwrap();
        assert_eq!(via_dyn, via_concrete);
    }

    #[test]
    fn results_are_sorted_and_unique() {
        let (g, index, hist) = fixture(3);
        let ctx = PlannerContext::new(&index, &hist);
        let expr = parse("(knows|worksFor){1,3}").unwrap().bind(&g).unwrap();
        let disjuncts = to_disjuncts(&expr, RewriteOptions::default()).unwrap();
        let plan = plan_query(Strategy::MinJoin, &disjuncts, &ctx);
        let result = execute(&plan, &index).unwrap();
        assert!(result.windows(2).all(|w| w[0] < w[1]));
        assert!(result
            .iter()
            .all(|&(a, b)| a.0 < g.node_count() as u32 && b.0 < g.node_count() as u32));
        let _ = NodeId(0); // silence unused import lint paths in some cfgs
    }
}
