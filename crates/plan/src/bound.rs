//! Bound lookups as a frontier walk over the plan's leaf segments.
//!
//! §3.1 gives `I_{G,k}` the search key `⟨label path, sourceID, targetID⟩` so
//! that Example 3.1's shapes `(p, s, ·)` and `(p, s, t)` are prefix lookups.
//! For a lookup that binds an end the join tree matters only as a
//! *segmentation*: composition is associative, so the in-order leaves of a
//! disjunct's plan are its label path cut into ≤ k-length pieces, whatever
//! the strategy, tree shape, scan orientation or join algorithm. `reach`
//! walks those pieces from the bound node, one frontier per level, and a
//! level costs what its frontier reaches — not what the unbound relation
//! holds.

use crate::cost::probes_beat_scan;
use crate::executor::{build_stream, sort_dedup};
use crate::plan::PhysicalPlan;
use pathix_exec::{BoxedPairStream, CancelToken, MaterializedOp, Pair, PairStream, Sortedness};
use pathix_graph::{NodeId, SignedLabel};
use pathix_index::{BackendError, BackendResult, PairBatch, PathIndexBackend};
use pathix_rpq::ast::inverse_path;
use std::borrow::Cow;

/// How many probes may pass between two token checks.
const PROBES_PER_CHECK: usize = 64;

/// Which end of the answer the walk starts from.
#[derive(Clone, Copy)]
enum Direction {
    /// From a bound source, through each leaf's path.
    Forward,
    /// From a bound target, through each leaf's inverse path, last leaf
    /// first (§5's "invert the sub-expression", one level at a time).
    Backward,
}

fn check(token: Option<&CancelToken>) -> BackendResult<()> {
    token.map_or(Ok(()), CancelToken::check)
}

/// The nodes the sorted, distinct `frontier` reaches through `plan`, sorted
/// and distinct. With a `goal` the answer is `[goal]` or nothing: the goal
/// travels only into the branch that ends the path, where the last leaf
/// answers with one probe ([`any_reaches`]) and a union stops at its first
/// hit.
fn reach<B: PathIndexBackend + ?Sized>(
    plan: &PhysicalPlan,
    index: &B,
    frontier: &[NodeId],
    direction: Direction,
    goal: Option<NodeId>,
    token: Option<&CancelToken>,
) -> BackendResult<Vec<NodeId>> {
    check(token)?;
    if frontier.is_empty() {
        return Ok(Vec::new());
    }
    match plan {
        PhysicalPlan::Epsilon => Ok(match goal {
            None => frontier.to_vec(),
            Some(goal) => Vec::from_iter(frontier.binary_search(&goal).is_ok().then_some(goal)),
        }),
        PhysicalPlan::IndexScan { path, .. } => {
            let path: Cow<'_, [SignedLabel]> = match direction {
                Direction::Forward => Cow::Borrowed(path),
                Direction::Backward => Cow::Owned(inverse_path(path)),
            };
            match goal {
                None => expand(index, &path, frontier, token),
                Some(goal) => {
                    let hit = any_reaches(index, &path, frontier, goal)?;
                    Ok(Vec::from_iter(hit.then_some(goal)))
                }
            }
        }
        PhysicalPlan::Join { left, right, .. } => {
            let (first, last) = match direction {
                Direction::Forward => (left, right),
                Direction::Backward => (right, left),
            };
            let middle = reach(first, index, frontier, direction, None, token)?;
            reach(last, index, &middle, direction, goal, token)
        }
        PhysicalPlan::Union(children) => {
            let mut reached = Vec::new();
            for child in children {
                reached.extend(reach(child, index, frontier, direction, goal, token)?);
                if goal.is_some() && !reached.is_empty() {
                    break;
                }
            }
            sort_dedup(&mut reached);
            Ok(reached)
        }
    }
}

/// One level: the targets of `path` from the nodes of `frontier`. Probes when
/// the frontier is small against the relation, one filtered scan otherwise —
/// decided from two exact numbers, `|F|` and `|p(G)|`.
fn expand<B: PathIndexBackend + ?Sized>(
    index: &B,
    path: &[SignedLabel],
    frontier: &[NodeId],
    token: Option<&CancelToken>,
) -> BackendResult<Vec<NodeId>> {
    // An empty relation has no cardinality: it takes the (empty) scan, which
    // also reports a path the index cannot hold as the error it is.
    let cardinality = index.path_cardinality(path).unwrap_or(0);
    if probes_beat_scan(frontier.len(), cardinality) {
        probe_expand(index, path, frontier, token)
    } else {
        scan_expand(index, path, frontier, token)
    }
}

/// `⟨p, y⟩` for each `y` of the frontier: fences, blooms, one descent each.
fn probe_expand<B: PathIndexBackend + ?Sized>(
    index: &B,
    path: &[SignedLabel],
    frontier: &[NodeId],
    token: Option<&CancelToken>,
) -> BackendResult<Vec<NodeId>> {
    let mut reached = Vec::new();
    for probes in frontier.chunks(PROBES_PER_CHECK) {
        check(token)?;
        for &node in probes {
            reached.extend(index.scan_path_from(path, node)?);
        }
    }
    sort_dedup(&mut reached);
    Ok(reached)
}

/// The sorted `rest` without its nodes below `node`: free while a merge stays
/// on one node, one binary search when it moves on.
fn skip_below(rest: &[NodeId], node: NodeId) -> &[NodeId] {
    match rest.first() {
        Some(&first) if first < node => &rest[rest.partition_point(|&n| n < node)..],
        _ => rest,
    }
}

/// One scan of `⟨p⟩` merged against the sorted frontier, keeping the targets
/// of its sources; the scan ends with the frontier's last node.
fn scan_expand<B: PathIndexBackend + ?Sized>(
    index: &B,
    path: &[SignedLabel],
    frontier: &[NodeId],
    token: Option<&CancelToken>,
) -> BackendResult<Vec<NodeId>> {
    let mut reached = Vec::new();
    let mut scan = index.scan_path_batches(path)?;
    let mut batch = PairBatch::new();
    let mut rest = frontier;
    'scan: while scan.next_batch(&mut batch)? > 0 {
        check(token)?;
        for (source, target) in batch.iter() {
            rest = skip_below(rest, source);
            match rest.first() {
                None => break 'scan,
                Some(&node) if node == source => reached.push(target),
                Some(_) => {}
            }
        }
    }
    sort_dedup(&mut reached);
    Ok(reached)
}

/// Whether some node of the frontier reaches `goal` through `path` — one
/// probe either way: the point key `⟨p, y, goal⟩` for a single candidate `y`,
/// the goal's own prefix `⟨p⁻, goal⟩` met with the frontier otherwise (a
/// point probe per candidate made a hub's frontier the slowest lookup there
/// was).
fn any_reaches<B: PathIndexBackend + ?Sized>(
    index: &B,
    path: &[SignedLabel],
    frontier: &[NodeId],
    goal: NodeId,
) -> BackendResult<bool> {
    if let [only] = frontier {
        return index.contains(path, *only, goal);
    }
    let mut rest = frontier;
    for node in index.scan_path_from(&inverse_path(path), goal)? {
        rest = skip_below(rest, node);
        match rest.first() {
            None => break,
            Some(&candidate) if candidate == node => return Ok(true),
            Some(_) => {}
        }
    }
    Ok(false)
}

/// The lazy stream behind [`open_stream_bound`]: the walk runs at the first
/// pull, and an error it met is what every later pull reports.
struct BoundStream<'a, B: ?Sized> {
    plan: &'a PhysicalPlan,
    index: &'a B,
    start: NodeId,
    direction: Direction,
    goal: Option<NodeId>,
    token: Option<CancelToken>,
    answer: Option<BackendResult<std::vec::IntoIter<NodeId>>>,
}

impl<B: PathIndexBackend + ?Sized> BoundStream<'_, B> {
    fn next_reached(&mut self) -> BackendResult<Option<NodeId>> {
        let answer = self.answer.get_or_insert_with(|| {
            reach(
                self.plan,
                self.index,
                &[self.start],
                self.direction,
                self.goal,
                self.token.as_ref(),
            )
            .map(Vec::into_iter)
        });
        match answer {
            Ok(reached) => Ok(reached.next()),
            Err(e) => Err(BackendError::clone(e)),
        }
    }
}

impl<B: PathIndexBackend + ?Sized> PairStream for BoundStream<'_, B> {
    fn next_pair(&mut self) -> BackendResult<Option<Pair>> {
        Ok(self.next_reached()?.map(|node| match self.direction {
            Direction::Forward => (self.start, node),
            Direction::Backward => (node, self.start),
        }))
    }

    fn sortedness(&self) -> Sortedness {
        // One end is constant and the other ascends.
        Sortedness::Both
    }
}

/// The answer of `plan` restricted to the pairs whose source is `source`
/// and/or whose target is `target`, as a lazy stream of distinct pairs.
///
/// A bound source walks forward from `{source}` and emits `(source, z)`; a
/// bound target alone walks backward from `{target}` and emits
/// `(x, target)`; both ends bound walk forward and finish with one
/// `⟨p, y, target⟩` or `⟨p⁻, target⟩` probe. Nothing is computed until the
/// first pull, and the cost follows the frontiers, not the unbound answer. The stream
/// owns a clone of `token` and checks it at every level, every scan batch
/// and every few probes; a tripped token surfaces as a backend error whose
/// backend name is [`pathix_exec::CANCEL_BACKEND`], as with
/// [`crate::open_stream_cancellable`]. A bound id the index does not know is
/// an empty answer; with neither end bound this is [`crate::open_stream`]
/// (or its cancellable twin).
///
/// ```
/// use pathix_datagen::paper_example_graph;
/// use pathix_exec::collect_pairs;
/// use pathix_index::{EstimationMode, PathHistogram, PathIndexBackend, SharedKPathIndex};
/// use pathix_plan::{execute, open_stream_bound, plan_query, PlannerContext, Strategy};
/// use pathix_rpq::{parse, to_disjuncts, RewriteOptions};
///
/// let g = paper_example_graph();
/// let index = SharedKPathIndex::build(&g, 2);
/// let histogram = PathHistogram::build(
///     index.per_path_counts(), index.paths_k_size(), 2, EstimationMode::default());
/// let ctx = PlannerContext::new(&index, &histogram);
/// let expr = parse("knows/knows/worksFor").unwrap().bind(&g).unwrap();
/// let plan = plan_query(
///     Strategy::MinSupport, &to_disjuncts(&expr, RewriteOptions::default()).unwrap(), &ctx);
///
/// let full = execute(&plan, &index).unwrap();
/// let (s, t) = full[0];
/// let from_s = collect_pairs(open_stream_bound(&plan, &index, Some(s), None, None).unwrap());
/// let expected: Vec<_> = full.iter().copied().filter(|p| p.0 == s).collect();
/// assert_eq!(from_s.unwrap(), expected);
/// let into_t = collect_pairs(open_stream_bound(&plan, &index, None, Some(t), None).unwrap());
/// let expected: Vec<_> = full.iter().copied().filter(|p| p.1 == t).collect();
/// assert_eq!(into_t.unwrap(), expected);
/// let both = collect_pairs(open_stream_bound(&plan, &index, Some(s), Some(t), None).unwrap());
/// assert_eq!(both.unwrap(), [(s, t)]);
/// ```
pub fn open_stream_bound<'a, B: PathIndexBackend + ?Sized>(
    plan: &'a PhysicalPlan,
    index: &'a B,
    source: Option<NodeId>,
    target: Option<NodeId>,
    token: Option<&CancelToken>,
) -> BackendResult<BoxedPairStream<'a>> {
    let (start, direction, goal) = match (source, target) {
        (None, None) => return build_stream(plan, index, token),
        (Some(source), goal) => (source, Direction::Forward, goal),
        (None, Some(target)) => (target, Direction::Backward, None),
    };
    // Checked once, here: no level below ever sees an id the index lacks.
    let known = |node: NodeId| (node.0 as usize) < index.node_count();
    if !known(start) || !goal.is_none_or(known) {
        return Ok(Box::new(MaterializedOp::new(Vec::new(), Sortedness::Both)));
    }
    Ok(Box::new(BoundStream {
        plan,
        index,
        start,
        direction,
        goal,
        token: token.cloned(),
        answer: None,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::JoinAlgorithm;
    use pathix_exec::{collect_pairs, ScanOrientation, CANCEL_BACKEND};
    use pathix_graph::{Graph, GraphBuilder};
    use pathix_index::{naive_path_eval, BackendBatchScan, BackendStats, SharedKPathIndex};

    /// 40 nodes, three labels, 150 edges drawn by a fixed linear congruence:
    /// sparse enough that frontiers differ by node and some nodes have no
    /// out-edge under a given label.
    fn fixture() -> (Graph, SharedKPathIndex, [SignedLabel; 3]) {
        let mut b = GraphBuilder::new();
        for node in 0..40 {
            b.add_node(&format!("n{node}"));
        }
        let mut state = 12345u64;
        let mut draw = |modulus: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % modulus
        };
        for _ in 0..150 {
            let (s, l, t) = (draw(40), draw(3), draw(40));
            b.add_edge_named(
                &format!("n{s}"),
                ["a", "b", "c"][l as usize],
                &format!("n{t}"),
            );
        }
        let g = b.build();
        let labels = ["a", "b", "c"].map(|name| SignedLabel::forward(g.label_id(name).unwrap()));
        let index = SharedKPathIndex::build(&g, 2);
        (g, index, labels)
    }

    /// The reference: the union of the disjuncts' direct evaluations.
    fn oracle(g: &Graph, disjuncts: &[&[SignedLabel]]) -> Vec<Pair> {
        let mut pairs: Vec<Pair> = disjuncts
            .iter()
            .flat_map(|d| naive_path_eval(g, d))
            .collect();
        sort_dedup(&mut pairs);
        pairs
    }

    /// Every binding of every node (and one id past the last) against the
    /// filtered oracle, through the public stream.
    fn assert_bound_lookups_filter(
        plan: &PhysicalPlan,
        index: &SharedKPathIndex,
        full: &[Pair],
        what: &str,
    ) {
        let ids: Vec<NodeId> = (0..=index.node_count() as u32).map(NodeId).collect();
        let bound = |source, target| {
            collect_pairs(open_stream_bound(plan, index, source, target, None).unwrap()).unwrap()
        };
        for &s in &ids {
            let expected: Vec<Pair> = full.iter().copied().filter(|p| p.0 == s).collect();
            assert_eq!(bound(Some(s), None), expected, "{what}: source {s:?}");
            let expected: Vec<Pair> = full.iter().copied().filter(|p| p.1 == s).collect();
            assert_eq!(bound(None, Some(s)), expected, "{what}: target {s:?}");
            for &t in &ids {
                let expected: Vec<Pair> = full.iter().copied().filter(|&p| p == (s, t)).collect();
                assert_eq!(bound(Some(s), Some(t)), expected, "{what}: {s:?} → {t:?}");
            }
        }
    }

    fn join(left: PhysicalPlan, right: PhysicalPlan) -> PhysicalPlan {
        PhysicalPlan::compose(left, right)
    }

    #[test]
    fn every_tree_shape_over_one_path_reaches_what_the_oracle_reaches() {
        let (g, index, [a, b, c]) = fixture();
        let path = [a, b.inverse(), c, a];
        let full = oracle(&g, &[&path]);
        assert!(full.len() > 20, "{} pairs", full.len());
        let leaf = |labels: &[SignedLabel]| PhysicalPlan::scan(labels.to_vec());
        let shapes = [
            (
                "left-deep",
                join(join(leaf(&path[..2]), leaf(&path[2..3])), leaf(&path[3..])),
            ),
            (
                "right-deep",
                join(leaf(&path[..1]), join(leaf(&path[1..2]), leaf(&path[2..]))),
            ),
            ("bushy", join(leaf(&path[..2]), leaf(&path[2..]))),
            (
                "singles",
                join(
                    join(leaf(&path[..1]), leaf(&path[1..2])),
                    join(leaf(&path[2..3]), leaf(&path[3..])),
                ),
            ),
            // Orientation and algorithm are the unbound executor's concern.
            (
                "hand-built",
                PhysicalPlan::Join {
                    algorithm: JoinAlgorithm::Hash,
                    left: Box::new(PhysicalPlan::IndexScan {
                        path: path[..2].to_vec(),
                        orientation: ScanOrientation::Forward,
                    }),
                    right: Box::new(PhysicalPlan::IndexScan {
                        path: path[2..].to_vec(),
                        orientation: ScanOrientation::Inverse,
                    }),
                },
            ),
        ];
        for (what, plan) in &shapes {
            assert_bound_lookups_filter(plan, &index, &full, what);
        }
    }

    #[test]
    fn unions_and_epsilons_anywhere_in_the_tree() {
        let (g, index, [a, b, c]) = fixture();
        let leaf = |labels: &[SignedLabel]| PhysicalPlan::scan(labels.to_vec());
        let cases = [
            (
                "a union (with ε) under a join's left",
                join(
                    PhysicalPlan::Union(vec![leaf(&[a]), leaf(&[b, c]), PhysicalPlan::Epsilon]),
                    leaf(&[c]),
                ),
                oracle(&g, &[&[a, c], &[b, c, c], &[c]]),
            ),
            (
                "a union under a join's right",
                join(
                    leaf(&[a, b]),
                    PhysicalPlan::Union(vec![leaf(&[c]), leaf(&[a.inverse()])]),
                ),
                oracle(&g, &[&[a, b, c], &[a, b, a.inverse()]]),
            ),
            (
                "ε left of a join",
                join(PhysicalPlan::Epsilon, leaf(&[a, b])),
                oracle(&g, &[&[a, b]]),
            ),
            (
                "ε right of a join",
                join(leaf(&[a, b]), PhysicalPlan::Epsilon),
                oracle(&g, &[&[a, b]]),
            ),
            ("ε alone", PhysicalPlan::Epsilon, oracle(&g, &[&[]])),
            (
                "a union whose disjuncts overlap",
                PhysicalPlan::Union(vec![
                    leaf(&[a]),
                    leaf(&[a]),
                    PhysicalPlan::Epsilon,
                    leaf(&[b]),
                ]),
                oracle(&g, &[&[a], &[], &[b]]),
            ),
        ];
        for (what, plan, full) in &cases {
            assert!(!full.is_empty(), "{what}");
            assert_bound_lookups_filter(plan, &index, full, what);
        }
    }

    #[test]
    fn probing_a_frontier_equals_scanning_for_it() {
        let (g, index, _) = fixture();
        let all: Vec<NodeId> = g.nodes().collect();
        let frontiers = [
            Vec::new(),
            vec![all[7]],
            all.iter().copied().step_by(10).collect(),
            all.clone(),
        ];
        assert!(index.per_path_counts().len() > 30);
        for (path, _) in index.per_path_counts() {
            let relation = naive_path_eval(&g, path);
            for frontier in &frontiers {
                let mut expected: Vec<NodeId> = relation
                    .iter()
                    .filter(|(s, _)| frontier.contains(s))
                    .map(|&(_, t)| t)
                    .collect();
                sort_dedup(&mut expected);
                let probed = probe_expand(&index, path, frontier, None).unwrap();
                let scanned = scan_expand(&index, path, frontier, None).unwrap();
                assert_eq!(probed, expected, "{path:?} from {frontier:?}");
                assert_eq!(scanned, expected, "{path:?} from {frontier:?}");
                assert_eq!(expand(&index, path, frontier, None).unwrap(), expected);
                for &goal in &all {
                    assert_eq!(
                        any_reaches(&index, path, frontier, goal).unwrap(),
                        expected.contains(&goal),
                        "{path:?} from {frontier:?} to {goal:?}"
                    );
                }
            }
        }
        // A relation the graph does not have: both sides say "nothing".
        let absent = [SignedLabel::from_code(40), SignedLabel::from_code(41)];
        assert_eq!(probe_expand(&index, &absent, &all, None).unwrap(), []);
        assert_eq!(scan_expand(&index, &absent, &all, None).unwrap(), []);
    }

    /// Ten nodes and an index that fails whatever is asked of it.
    struct Failing;

    impl PathIndexBackend for Failing {
        fn backend_name(&self) -> &'static str {
            "failing"
        }
        fn k(&self) -> usize {
            2
        }
        fn node_count(&self) -> usize {
            10
        }
        fn scan_path_batches(&self, _: &[SignedLabel]) -> BackendResult<BackendBatchScan<'_>> {
            Err(BackendError::new("failing", "scanned"))
        }
        fn scan_path_from(&self, _: &[SignedLabel], _: NodeId) -> BackendResult<Vec<NodeId>> {
            Err(BackendError::new("failing", "probed"))
        }
        fn contains(&self, _: &[SignedLabel], _: NodeId, _: NodeId) -> BackendResult<bool> {
            Err(BackendError::new("failing", "probed"))
        }
        fn per_path_counts(&self) -> &[(Vec<SignedLabel>, u64)] {
            &[]
        }
        fn paths_k_size(&self) -> u64 {
            0
        }
        fn stats(&self) -> BackendStats {
            BackendStats {
                backend: "failing",
                k: 2,
                entries: 0,
                distinct_paths: 0,
                paths_k_size: 0,
                approx_bytes: 0,
            }
        }
    }

    #[test]
    fn an_unknown_id_is_an_empty_answer_that_never_touches_the_index() {
        let plan = PhysicalPlan::scan(vec![SignedLabel::from_code(0)]);
        let (inside, outside) = (NodeId(3), NodeId(10));
        for (source, target) in [
            (Some(outside), None),
            (None, Some(outside)),
            (Some(outside), Some(inside)),
            (Some(inside), Some(outside)),
            (Some(NodeId(u32::MAX)), Some(NodeId(u32::MAX))),
        ] {
            let stream = open_stream_bound(&plan, &Failing, source, target, None).unwrap();
            assert_eq!(collect_pairs(stream).unwrap(), [], "{source:?} {target:?}");
        }
    }

    #[test]
    fn the_walk_waits_for_the_first_pull_and_its_error_sticks() {
        let plan = PhysicalPlan::scan(vec![SignedLabel::from_code(0)]);
        // Opening touches nothing, so even a failing index opens.
        let mut stream = open_stream_bound(&plan, &Failing, Some(NodeId(3)), None, None).unwrap();
        let first = stream.next_pair().unwrap_err();
        assert_eq!(first.backend(), "failing");
        assert_eq!(stream.next_pair().unwrap_err(), first);
        assert_eq!(stream.next_batch(&mut PairBatch::new()).unwrap_err(), first);

        // A token tripped between open and the first pull stops the walk
        // before it reaches the index.
        let token = CancelToken::new();
        let mut stream = open_stream_bound(
            &plan,
            &Failing,
            Some(NodeId(3)),
            Some(NodeId(4)),
            Some(&token),
        )
        .unwrap();
        token.cancel();
        assert_eq!(stream.next_pair().unwrap_err().backend(), CANCEL_BACKEND);
        assert_eq!(stream.next_pair().unwrap_err().backend(), CANCEL_BACKEND);
    }

    #[test]
    fn every_level_and_every_stretch_of_probes_checks_the_token() {
        let (g, index, [a, b, _]) = fixture();
        let all: Vec<NodeId> = g.nodes().collect();
        let tripped = CancelToken::new();
        tripped.cancel();
        let is_cancel = |e: BackendError| e.backend() == CANCEL_BACKEND;
        assert!(is_cancel(
            probe_expand(&index, &[a], &all, Some(&tripped)).unwrap_err()
        ));
        assert!(is_cancel(
            scan_expand(&index, &[a], &all, Some(&tripped)).unwrap_err()
        ));
        let plan = join(PhysicalPlan::scan(vec![a]), PhysicalPlan::scan(vec![b]));
        for direction in [Direction::Forward, Direction::Backward] {
            let stopped = reach(&plan, &index, &all, direction, None, Some(&tripped));
            assert!(is_cancel(stopped.unwrap_err()));
        }
        // Unbound, the function is `open_stream` / `open_stream_cancellable`.
        let full = collect_pairs(open_stream_bound(&plan, &index, None, None, None).unwrap());
        assert_eq!(full.unwrap(), oracle(&g, &[&[a, b]]));
        let stopped =
            collect_pairs(open_stream_bound(&plan, &index, None, None, Some(&tripped)).unwrap());
        assert!(is_cancel(stopped.unwrap_err()));
    }
}
