//! The minJoin strategy: minimal number of index lookups.
//!
//! Section 5 of the paper describes minJoin as "similar to minSupport but
//! also aims to minimize the number of joins". We realize that as follows:
//!
//! 1. a disjunct of length `n` is cut into exactly `⌈n / k⌉` chunks (the
//!    minimum possible), each of length at most k;
//! 2. every such segmentation is enumerated, and for each one a join tree is
//!    built greedily starting from the most selective chunk and repeatedly
//!    absorbing the adjacent chunk whose estimated relation is smaller;
//! 3. the segmentation with the cheapest costed plan wins.
//!
//! With the minimal chunk count fixed, the histogram still decides *where*
//! the chunk boundaries fall and in which order the joins run — the
//! selectivity-awareness it shares with minSupport.

use crate::cost::cost_plan;
use crate::plan::PhysicalPlan;
use crate::planner::PlannerContext;
use crate::semi_naive;
use pathix_graph::SignedLabel;
use pathix_index::{CardinalityEstimator, PathIndexBackend};
use pathix_rpq::LabelPath;

/// Plans one non-empty disjunct with the minJoin strategy.
pub fn plan_disjunct<B: PathIndexBackend + ?Sized>(
    disjunct: &LabelPath,
    ctx: &PlannerContext<'_, B>,
) -> PhysicalPlan {
    debug_assert!(!disjunct.is_empty());
    let k = ctx.k();
    if disjunct.len() <= k {
        return PhysicalPlan::scan(disjunct.clone());
    }
    let estimator = ctx.estimator();
    let n = disjunct.len();
    let chunk_count = n.div_ceil(k);

    let mut best: Option<(f64, PhysicalPlan)> = None;
    for lens in segmentations(n, chunk_count, k) {
        let chunks = cut(disjunct, &lens);
        let plan = greedy_join_tree(&chunks, ctx, &estimator);
        let cost = cost_plan(&plan, &estimator).cost;
        let better = match &best {
            Some((best_cost, _)) => cost < *best_cost,
            None => true,
        };
        if better {
            best = Some((cost, plan));
        }
    }
    // A disjunct longer than k always has a segmentation (the left-to-right
    // one among them), so the fallback is never taken.
    let Some((_, plan)) = best else {
        return semi_naive::plan_disjunct(disjunct, ctx);
    };
    plan
}

/// All ways to write `n` as an ordered sum of exactly `parts` integers in
/// `1..=k`.
fn segmentations(n: usize, parts: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(parts);
    fn go(
        remaining: usize,
        parts_left: usize,
        k: usize,
        current: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if parts_left == 0 {
            if remaining == 0 {
                out.push(current.clone());
            }
            return;
        }
        for len in 1..=k.min(remaining) {
            // Prune: the rest must still be coverable.
            let rest = remaining - len;
            if rest > (parts_left - 1) * k {
                continue;
            }
            if rest < parts_left - 1 {
                continue;
            }
            current.push(len);
            go(rest, parts_left - 1, k, current, out);
            current.pop();
        }
    }
    go(n, parts, k, &mut current, &mut out);
    out
}

fn cut(disjunct: &[SignedLabel], lens: &[usize]) -> Vec<LabelPath> {
    let mut chunks = Vec::with_capacity(lens.len());
    let mut offset = 0;
    for &len in lens {
        chunks.push(disjunct[offset..offset + len].to_vec());
        offset += len;
    }
    debug_assert_eq!(offset, disjunct.len());
    chunks
}

/// Builds a join tree over adjacent chunks, starting from the most selective
/// chunk and expanding toward whichever neighbor is estimated smaller.
fn greedy_join_tree<B: PathIndexBackend + ?Sized>(
    chunks: &[LabelPath],
    ctx: &PlannerContext<'_, B>,
    estimator: &CardinalityEstimator<'_>,
) -> PhysicalPlan {
    debug_assert!(!chunks.is_empty());
    let histogram = ctx.histogram();
    let card = |chunk: &LabelPath| {
        histogram
            .estimated_cardinality(chunk)
            .unwrap_or(f64::INFINITY)
    };
    // Seed with the most selective chunk.
    let mut seed = 0;
    for (i, chunk) in chunks.iter().enumerate() {
        if card(chunk) < card(&chunks[seed]) {
            seed = i;
        }
    }
    let mut lo = seed;
    let mut hi = seed;
    let mut plan = PhysicalPlan::scan(chunks[seed].clone());
    let mut plan_card = card(&chunks[seed]);
    while lo > 0 || hi + 1 < chunks.len() {
        let left_candidate = (lo > 0).then(|| card(&chunks[lo - 1]));
        let right_candidate = (hi + 1 < chunks.len()).then(|| card(&chunks[hi + 1]));
        let take_left = match (left_candidate, right_candidate) {
            (Some(l), Some(r)) => l <= r,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => unreachable!("loop condition guarantees a neighbor"),
        };
        if take_left {
            lo -= 1;
            let chunk_card = card(&chunks[lo]);
            plan = PhysicalPlan::compose(PhysicalPlan::scan(chunks[lo].clone()), plan);
            plan_card = estimator.join_cardinality(chunk_card, plan_card);
        } else {
            hi += 1;
            let chunk_card = card(&chunks[hi]);
            plan = PhysicalPlan::compose(plan, PhysicalPlan::scan(chunks[hi].clone()));
            plan_card = estimator.join_cardinality(plan_card, chunk_card);
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathix_datagen::paper_example_graph;
    use pathix_graph::Graph;
    use pathix_index::{EstimationMode, PathHistogram, SharedKPathIndex};

    fn fixture(k: usize) -> (Graph, SharedKPathIndex, PathHistogram) {
        let g = paper_example_graph();
        let index = SharedKPathIndex::build(&g, k);
        let hist = PathHistogram::build(index.per_path_counts(), k, EstimationMode::Exact);
        (g, index, hist)
    }

    fn sl(g: &Graph, name: &str) -> SignedLabel {
        SignedLabel::forward(g.label_id(name).unwrap())
    }

    #[test]
    fn segmentations_enumerate_compositions() {
        assert_eq!(segmentations(6, 2, 3), vec![vec![3, 3]]);
        let mut s = segmentations(5, 2, 3);
        s.sort();
        assert_eq!(s, vec![vec![2, 3], vec![3, 2]]);
        let s = segmentations(7, 3, 3);
        assert_eq!(s.len(), 6); // 1+3+3, 3+1+3, 3+3+1, 2+2+3, 2+3+2, 3+2+2
        for lens in &s {
            assert_eq!(lens.iter().sum::<usize>(), 7);
            assert!(lens.iter().all(|&l| (1..=3).contains(&l)));
        }
    }

    #[test]
    fn uses_the_minimum_number_of_scans() {
        let (g, index, hist) = fixture(3);
        let ctx = PlannerContext::new(&index, &hist);
        let k = sl(&g, "knows");
        let w = sl(&g, "worksFor");
        for len in 1usize..=9 {
            let disjunct: LabelPath = (0..len).map(|i| if i % 2 == 0 { k } else { w }).collect();
            let plan = plan_disjunct(&disjunct, &ctx);
            assert_eq!(plan.scan_count(), len.div_ceil(3), "length {len}");
            assert_eq!(plan.join_count(), len.div_ceil(3) - 1, "length {len}");
        }
    }

    #[test]
    fn scanned_chunks_reassemble_the_disjunct() {
        let (g, index, hist) = fixture(2);
        let ctx = PlannerContext::new(&index, &hist);
        let k = sl(&g, "knows");
        let w = sl(&g, "worksFor");
        let s = sl(&g, "supervisor");
        let disjunct = vec![k, w, s, k, w];
        let plan = plan_disjunct(&disjunct, &ctx);

        fn collect(plan: &PhysicalPlan, out: &mut Vec<LabelPath>) {
            match plan {
                PhysicalPlan::IndexScan { path, .. } => out.push(path.clone()),
                PhysicalPlan::Join { left, right, .. } => {
                    collect(left, out);
                    collect(right, out);
                }
                _ => {}
            }
        }
        let mut chunks = Vec::new();
        collect(&plan, &mut chunks);
        assert_eq!(chunks.concat(), disjunct);
    }

    #[test]
    fn selective_chunks_are_joined_first() {
        let (g, index, hist) = fixture(2);
        let ctx = PlannerContext::new(&index, &hist);
        let k = sl(&g, "knows");
        let s = sl(&g, "supervisor");
        // The supervisor label is the rarest; the chunk containing it should
        // sit at the bottom of the join tree (joined first).
        let disjunct = vec![k, k, k, k, k, s];
        let plan = plan_disjunct(&disjunct, &ctx);
        fn scan_depths(plan: &PhysicalPlan, depth: usize, out: &mut Vec<(usize, LabelPath)>) {
            match plan {
                PhysicalPlan::IndexScan { path, .. } => out.push((depth, path.clone())),
                PhysicalPlan::Join { left, right, .. } => {
                    scan_depths(left, depth + 1, out);
                    scan_depths(right, depth + 1, out);
                }
                _ => {}
            }
        }
        let mut depths = Vec::new();
        scan_depths(&plan, 0, &mut depths);
        let max_depth = depths.iter().map(|(d, _)| *d).max().unwrap();
        let s_depth = depths
            .iter()
            .find(|(_, p)| p.contains(&s))
            .map(|(d, _)| *d)
            .expect("a chunk contains the supervisor label");
        assert_eq!(
            s_depth, max_depth,
            "most selective chunk should be joined first: {depths:?}"
        );
    }

    #[test]
    fn short_disjunct_is_a_single_scan() {
        let (g, index, hist) = fixture(3);
        let ctx = PlannerContext::new(&index, &hist);
        let plan = plan_disjunct(&vec![sl(&g, "knows")], &ctx);
        assert!(matches!(plan, PhysicalPlan::IndexScan { .. }));
    }
}
