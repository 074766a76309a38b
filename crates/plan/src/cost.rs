//! The cost model driving the histogram-guided strategies.
//!
//! Costs are expressed in "pairs touched": an index scan costs its estimated
//! cardinality, a join costs its inputs plus its estimated output, and a hash
//! join additionally pays for building the hash table on its right input.
//! Cardinalities come from the k-path histogram via
//! [`pathix_index::CardinalityEstimator`].

use crate::plan::{JoinAlgorithm, PhysicalPlan};
use pathix_index::CardinalityEstimator;

/// Estimated cardinality and cumulative cost of a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCost {
    /// Estimated number of distinct output pairs.
    pub cardinality: f64,
    /// Estimated total work to produce them.
    pub cost: f64,
}

/// What one `⟨p, source⟩` prefix probe costs in this file's unit: about as
/// much as scanning 256 pairs (fence and bloom checks, one B+tree descent).
/// The benchmark's lookup mix has both sides of the choice it drives — hubs
/// reach a quarter of the graph after one segment, leaves a handful — and the
/// measured optimum is flat from 64 to 1 024 (CHANGES.md, PR 24).
const PROBE_COST: u64 = 256;

/// Whether expanding a frontier of `frontier` nodes through a relation of
/// `cardinality` pairs is cheaper as one prefix probe per node than as one
/// scan of the relation that keeps the frontier's sources.
pub(crate) fn probes_beat_scan(frontier: usize, cardinality: u64) -> bool {
    (frontier as u64).saturating_mul(PROBE_COST) < cardinality
}

/// How many `u64` words a bitmap over the ids `0..nodes` takes.
pub(crate) fn bitmap_words(nodes: usize) -> usize {
    nodes.div_ceil(64)
}

/// Whether a walk level of `ids` node ids (repeats counted) over the ids
/// `0..nodes` is held as a bitmap rather than a sorted list: once it holds at
/// least one id per bitmap word. From there the bitmap (8 bytes per 64 ids of
/// the range) takes at most twice the list's bytes (4 per id), and building it
/// — a mark per id, then a sweep of the words — costs two passes over the ids
/// where sorting them costs `log |F|`.
pub(crate) fn level_is_dense(ids: usize, nodes: usize) -> bool {
    ids > 0 && ids >= bitmap_words(nodes)
}

/// How many times the bytes of a relation's sorted targets (4 per pair) its
/// bitmap rows may take.
const BITMAP_ROWS_MEMORY: usize = 4;

/// Whether a bought relation of `pairs` pairs in `rows` rows also keeps each
/// row as a bitmap over the ids `0..nodes`: when the `rows · ⌈nodes / 64⌉`
/// words take at most [`BITMAP_ROWS_MEMORY`] times the bytes of its sorted
/// targets. That bounds the memory on any graph, and it holds only where an
/// average row has at least `⌈nodes / 64⌉ / 2` targets, so OR-ing a row's
/// words costs at most about twice marking its targets one by one. At
/// `n = 654` a row per node needs `|p(G)| ≥ 3 597`; the memory-parity rule
/// `|p(G)| · 32 ≥ n²` needed 13 366 and missed the leaves that carry the
/// Advogato card's cost (CHANGES.md has the measurement).
pub(crate) fn bitmap_rows_fit(rows: usize, nodes: usize, pairs: usize) -> bool {
    let bytes = rows.saturating_mul(bitmap_words(nodes)).saturating_mul(8);
    pairs > 0 && bytes <= pairs.saturating_mul(4 * BITMAP_ROWS_MEMORY)
}

/// Costs a physical plan bottom-up.
pub fn cost_plan(plan: &PhysicalPlan, estimator: &CardinalityEstimator<'_>) -> PlanCost {
    match plan {
        PhysicalPlan::IndexScan { path, .. } => {
            let cardinality = estimator.path_cardinality(path);
            PlanCost {
                cardinality,
                cost: cardinality,
            }
        }
        PhysicalPlan::Epsilon => {
            let n = estimator.node_count() as f64;
            PlanCost {
                cardinality: n,
                cost: n,
            }
        }
        PhysicalPlan::Join {
            algorithm,
            left,
            right,
        } => {
            let l = cost_plan(left, estimator);
            let r = cost_plan(right, estimator);
            let cardinality = estimator.join_cardinality(l.cardinality, r.cardinality);
            let mut cost = l.cost + r.cost + l.cardinality + r.cardinality + cardinality;
            if *algorithm == JoinAlgorithm::Hash {
                // Building the hash table touches the right input once more.
                cost += r.cardinality;
            }
            PlanCost { cardinality, cost }
        }
        PhysicalPlan::Union(children) => {
            let mut cardinality = 0.0;
            let mut cost = 0.0;
            for child in children {
                let c = cost_plan(child, estimator);
                cardinality += c.cardinality;
                cost += c.cost;
            }
            // Final duplicate elimination touches every produced pair.
            PlanCost {
                cardinality,
                cost: cost + cardinality,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathix_graph::SignedLabel;
    use pathix_index::{EstimationMode, PathHistogram};

    fn sl(code: u16) -> SignedLabel {
        SignedLabel::from_code(code)
    }

    fn estimator_fixture() -> (PathHistogram, usize) {
        let counts = vec![
            (vec![sl(0)], 100),
            (vec![sl(2)], 10),
            (vec![sl(0), sl(2)], 50),
            (vec![sl(2), sl(0)], 40),
        ];
        (PathHistogram::build(&counts, 2, EstimationMode::Exact), 100)
    }

    #[test]
    fn scan_cost_is_its_cardinality() {
        let (h, n) = estimator_fixture();
        let est = CardinalityEstimator::new(&h, n);
        let c = cost_plan(&PhysicalPlan::scan(vec![sl(0)]), &est);
        assert_eq!(c.cardinality, 100.0);
        assert_eq!(c.cost, 100.0);
    }

    #[test]
    fn hash_join_costs_more_than_merge_join() {
        let (h, n) = estimator_fixture();
        let est = CardinalityEstimator::new(&h, n);
        let merge = PhysicalPlan::Join {
            algorithm: JoinAlgorithm::Merge,
            left: Box::new(PhysicalPlan::scan(vec![sl(0)])),
            right: Box::new(PhysicalPlan::scan(vec![sl(2)])),
        };
        let hash = PhysicalPlan::Join {
            algorithm: JoinAlgorithm::Hash,
            left: Box::new(PhysicalPlan::scan(vec![sl(0)])),
            right: Box::new(PhysicalPlan::scan(vec![sl(2)])),
        };
        let cm = cost_plan(&merge, &est);
        let ch = cost_plan(&hash, &est);
        assert_eq!(cm.cardinality, ch.cardinality);
        assert!(ch.cost > cm.cost);
    }

    #[test]
    fn join_cardinality_uses_independence_assumption() {
        let (h, n) = estimator_fixture();
        let est = CardinalityEstimator::new(&h, n);
        let plan = PhysicalPlan::compose(
            PhysicalPlan::scan(vec![sl(0)]),
            PhysicalPlan::scan(vec![sl(2)]),
        );
        let c = cost_plan(&plan, &est);
        assert!((c.cardinality - 100.0 * 10.0 / 100.0).abs() < 1e-9);
    }

    #[test]
    fn selective_scans_produce_cheaper_plans() {
        let (h, n) = estimator_fixture();
        let est = CardinalityEstimator::new(&h, n);
        let cheap = cost_plan(&PhysicalPlan::scan(vec![sl(2)]), &est);
        let pricey = cost_plan(&PhysicalPlan::scan(vec![sl(0)]), &est);
        assert!(cheap.cost < pricey.cost);
    }

    #[test]
    fn union_cost_sums_children_plus_dedup() {
        let (h, n) = estimator_fixture();
        let est = CardinalityEstimator::new(&h, n);
        let union = PhysicalPlan::Union(vec![
            PhysicalPlan::scan(vec![sl(0)]),
            PhysicalPlan::scan(vec![sl(2)]),
        ]);
        let c = cost_plan(&union, &est);
        assert_eq!(c.cardinality, 110.0);
        assert_eq!(c.cost, 100.0 + 10.0 + 110.0);
    }

    /// Regression test for the zero-estimate degeneration: a label path
    /// absent from the histogram used to estimate 0, so every plan containing
    /// it cost ~0 and the `minSupport`/`minJoin` cost comparison could not
    /// tell candidates apart. With the floor of 1 the ordering stays strict.
    #[test]
    fn absent_paths_floor_at_one_so_cost_ordering_never_degenerates() {
        let (h, n) = estimator_fixture();
        let est = CardinalityEstimator::new(&h, n);
        // sl(9) is absent from the histogram.
        let absent = PhysicalPlan::scan(vec![sl(9)]);
        let c = cost_plan(&absent, &est);
        assert_eq!(c.cardinality, 1.0, "absent paths estimate the floor");
        assert!(c.cost >= 1.0);

        // A join involving the absent path still costs strictly more than the
        // bare scans it contains — zero estimates used to collapse this sum.
        let join = PhysicalPlan::compose(
            PhysicalPlan::scan(vec![sl(0)]),
            PhysicalPlan::scan(vec![sl(9)]),
        );
        let cj = cost_plan(&join, &est);
        let scan0 = cost_plan(&PhysicalPlan::scan(vec![sl(0)]), &est);
        assert!(cj.cost > scan0.cost, "{cj:?} vs {scan0:?}");
        assert!(cj.cardinality > 0.0);

        // And two candidates that differ only in a known sub-path keep their
        // strict cost order even when both contain the absent path.
        let cheap = PhysicalPlan::compose(
            PhysicalPlan::scan(vec![sl(2)]),
            PhysicalPlan::scan(vec![sl(9)]),
        );
        let pricey = PhysicalPlan::compose(
            PhysicalPlan::scan(vec![sl(0)]),
            PhysicalPlan::scan(vec![sl(9)]),
        );
        assert!(
            cost_plan(&cheap, &est).cost < cost_plan(&pricey, &est).cost,
            "cost ordering must not degenerate on paths with no statistics"
        );
    }

    #[test]
    fn a_frontier_is_probed_until_it_costs_a_scan() {
        assert!(probes_beat_scan(1, PROBE_COST + 1));
        assert!(!probes_beat_scan(1, PROBE_COST));
        assert!(probes_beat_scan(10, 10 * PROBE_COST + 1));
        // An empty relation is "scanned": nothing to read either way.
        assert!(!probes_beat_scan(1, 0));
        assert!(!probes_beat_scan(usize::MAX, u64::MAX));
    }

    #[test]
    fn a_level_is_a_bitmap_from_one_id_per_word() {
        // 654 nodes: 11 words.
        assert!(!level_is_dense(10, 654));
        assert!(level_is_dense(11, 654));
        assert!(level_is_dense(1, 64) && !level_is_dense(0, 64));
        assert!(!level_is_dense(0, 0));
    }

    #[test]
    fn bitmap_rows_take_at_most_four_times_the_targets() {
        // A row per node at n = 654: 654 · 11 words of 8 bytes against
        // 16 bytes a pair.
        assert!(!bitmap_rows_fit(654, 654, 3_596));
        assert!(bitmap_rows_fit(654, 654, 3_597));
        // Rows per source: only those with targets count.
        assert!(bitmap_rows_fit(300, 654, 1_650));
        assert!(!bitmap_rows_fit(300, 654, 1_649));
        // Nothing to hold, and no overflow at the extremes.
        assert!(!bitmap_rows_fit(0, 0, 0));
        assert!(!bitmap_rows_fit(usize::MAX, usize::MAX, 1));
    }

    #[test]
    fn epsilon_costs_node_count() {
        let (h, n) = estimator_fixture();
        let est = CardinalityEstimator::new(&h, n);
        let c = cost_plan(&PhysicalPlan::Epsilon, &est);
        assert_eq!(c.cardinality, n as f64);
    }
}
