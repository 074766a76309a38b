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
//!
//! A drained unbound answer is the same walk from each of its sources in
//! ascending id order ([`open_stream_walk`]): each source's frontier comes
//! out sorted and distinct, so the answer does too, with no duplicate pulled
//! and no final sort — §5's "invert the sub-expression to obtain the correct
//! sort order" carried through to the output. The sources come from the
//! plan's cheaper end before the first walk. The two differ only in how a
//! leaf expands a frontier: per level for a lookup (and for finding the
//! sources), *rent or buy* for the walk.

use crate::cost::probes_beat_scan;
use crate::executor::{build_stream, sort_dedup};
use crate::plan::PhysicalPlan;
use pathix_exec::{
    BoxedPairStream, CancelToken, MaterializedOp, Pair, PairStream, ScanOrientation, Sortedness,
};
use pathix_graph::{NodeId, SignedLabel};
use pathix_index::{BackendError, BackendResult, PairBatch, PathIndexBackend};
use pathix_rpq::ast::inverse_path;
use std::borrow::Cow;
use std::collections::HashMap;

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

/// How a leaf expands a frontier through its path: the one rule in which a
/// bound lookup and a walk over every source differ. A lookup expands each
/// leaf once, so memoising and buying only cost it: a scratch copy that sent
/// bound lookups through [`Leaf`] raised `lookup_p95_ms` on `probe-disk`
/// from 0.436 to 0.656 ms (×1.50) and cut `lookups_per_s` from 8 241 to
/// 6 487, medians of four alternating pairs, seeds 3–6 (CHANGES.md, PR 26).
enum Leaves<'a, B: ?Sized> {
    /// One lookup, or the walk's search for its sources: each level probes
    /// or scans afresh ([`expand`]).
    Lookup(&'a B),
    /// Every source in turn: rent or buy per leaf path, for the stream's
    /// lifetime ([`Leaf`]).
    Walk(&'a B, HashMap<Vec<SignedLabel>, Leaf>),
}

impl<'a, B: PathIndexBackend + ?Sized> Leaves<'a, B> {
    fn index(&self) -> &'a B {
        match self {
            Leaves::Lookup(index) | Leaves::Walk(index, _) => index,
        }
    }

    /// The walk's leaf for `path`, priced on first use; none for a lookup.
    fn leaf(&mut self, path: &[SignedLabel]) -> Option<&mut Leaf> {
        let Leaves::Walk(index, leaves) = self else {
            return None;
        };
        if !leaves.contains_key(path) {
            let cardinality = index.path_cardinality(path).unwrap_or(0);
            leaves.insert(path.to_vec(), Leaf::new(cardinality));
        }
        leaves.get_mut(path)
    }

    fn expand(
        &mut self,
        path: &[SignedLabel],
        frontier: &[NodeId],
        token: Option<&CancelToken>,
    ) -> BackendResult<Vec<NodeId>> {
        let index = self.index();
        match self.leaf(path) {
            Some(leaf) => leaf.expand(index, path, frontier, token),
            None => expand(index, path, frontier, token),
        }
    }

    /// The distinct sources of `⟨p⟩`: a walk buys its leaf, whose rows its
    /// later expansions read; a lookup buys a leaf just for them.
    fn sources(
        &mut self,
        path: &[SignedLabel],
        token: Option<&CancelToken>,
    ) -> BackendResult<Vec<NodeId>> {
        let index = self.index();
        match self.leaf(path) {
            Some(leaf) => leaf.sources(index, path, token),
            None => Leaf::new(0).sources(index, path, token),
        }
    }
}

/// The nodes the sorted, distinct `frontier` reaches through `plan`, sorted
/// and distinct. With a `goal` the answer is `[goal]` or nothing: the goal
/// travels only into the branch that ends the path, where the last leaf
/// answers with one probe ([`any_reaches`]) and a union stops at its first
/// hit.
fn reach<B: PathIndexBackend + ?Sized>(
    plan: &PhysicalPlan,
    leaves: &mut Leaves<'_, B>,
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
                None => leaves.expand(&path, frontier, token),
                Some(goal) => {
                    let hit = any_reaches(leaves.index(), &path, frontier, goal)?;
                    Ok(Vec::from_iter(hit.then_some(goal)))
                }
            }
        }
        PhysicalPlan::Join { left, right, .. } => {
            let (first, last) = match direction {
                Direction::Forward => (left, right),
                Direction::Backward => (right, left),
            };
            let middle = reach(first, leaves, frontier, direction, None, token)?;
            reach(last, leaves, &middle, direction, goal, token)
        }
        PhysicalPlan::Union(children) => {
            let mut reached = Vec::new();
            for child in children {
                reached.extend(reach(child, leaves, frontier, direction, goal, token)?);
                if goal.is_some() && !reached.is_empty() {
                    break;
                }
            }
            normalise(&mut reached);
            Ok(reached)
        }
    }
}

/// Restores set semantics on a level: [`sort_dedup`] while the level is
/// sparse against its id range, one mark per id and a sweep over the marks
/// once it is dense (a walk's late levels hold most of the graph many times
/// over, and a sort of them cost more than all the expanding did).
fn normalise(level: &mut Vec<NodeId>) {
    let Some(last) = level.iter().map(|node| node.0 as usize).max() else {
        return;
    };
    let words = last / 64 + 1;
    if level.len() < words {
        sort_dedup(level);
        return;
    }
    let mut marks = vec![0u64; words];
    for node in level.iter() {
        marks[node.0 as usize / 64] |= 1 << (node.0 % 64);
    }
    level.clear();
    for (word, &bits) in marks.iter().enumerate() {
        let mut bits = bits;
        while bits != 0 {
            level.push(NodeId((word * 64) as u32 + bits.trailing_zeros()));
            bits &= bits - 1;
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
    normalise(&mut reached);
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
    normalise(&mut reached);
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

/// One leaf path's expansions over a whole walk, *rent or buy*: `⟨p, y⟩`
/// probes, each node's memoised, while one more probe still beats a scan of
/// `⟨p⟩`; after that one scan into rows that answer every later node. A leaf
/// therefore costs about twice the cheaper of "probe what is reached" and
/// "scan it all", and holds at most its relation.
struct Leaf {
    /// `|p(G)|`, against which the probes are priced.
    cardinality: u64,
    /// The targets of every node probed so far (while renting).
    rented: HashMap<NodeId, Vec<NodeId>>,
    /// The whole relation, once bought.
    bought: Option<Rows>,
}

/// A relation sorted by source as rows: row `r`'s targets are
/// `targets[starts[r]..starts[r + 1]]`. A node's row is the node itself while
/// the graph has no more nodes than the relation has pairs, so that lookups
/// are free and the rows cost about what the scan did; otherwise there is a
/// row per distinct source, found by binary search, because a row per node
/// made buying a rare label's leaf on a large graph cost as much as the
/// graph (CHANGES.md, PR 26).
struct Rows {
    /// Each row's source, when rows are per source rather than per node.
    sources: Option<Vec<NodeId>>,
    starts: Vec<usize>,
    targets: Vec<NodeId>,
}

impl Rows {
    fn row(&self, node: NodeId) -> &[NodeId] {
        let at = match &self.sources {
            None => node.0 as usize,
            Some(sources) => match sources.binary_search(&node) {
                Ok(at) => at,
                Err(_) => return &[],
            },
        };
        match self.starts.get(at..at + 2) {
            Some(&[start, end]) => &self.targets[start..end],
            _ => &[],
        }
    }

    /// The sources with a row that is not empty, in order.
    fn sources(&self) -> Vec<NodeId> {
        match &self.sources {
            Some(sources) => sources.clone(),
            None => (0..)
                .zip(self.starts.windows(2))
                .filter(|(_, row)| row[0] < row[1])
                .map(|(node, _)| NodeId(node))
                .collect(),
        }
    }
}

impl Leaf {
    fn new(cardinality: u64) -> Self {
        Leaf {
            cardinality,
            rented: HashMap::new(),
            bought: None,
        }
    }

    /// The targets of the sorted, distinct `frontier`, sorted and distinct.
    fn expand<B: PathIndexBackend + ?Sized>(
        &mut self,
        index: &B,
        path: &[SignedLabel],
        frontier: &[NodeId],
        token: Option<&CancelToken>,
    ) -> BackendResult<Vec<NodeId>> {
        let mut reached = Vec::new();
        for &node in frontier {
            reached.extend_from_slice(self.targets(index, path, node, token)?);
        }
        normalise(&mut reached);
        Ok(reached)
    }

    /// `node`'s targets: from the rows once bought, else from the memo, else
    /// from a fresh probe while probes beat a scan — and the first time they
    /// do not, by buying.
    fn targets<B: PathIndexBackend + ?Sized>(
        &mut self,
        index: &B,
        path: &[SignedLabel],
        node: NodeId,
        token: Option<&CancelToken>,
    ) -> BackendResult<&[NodeId]> {
        if self.bought.is_none() && !self.rented.contains_key(&node) {
            if probes_beat_scan(self.rented.len() + 1, self.cardinality) {
                self.rent(index, path, node, token)?;
            } else {
                self.buy(index, path, token)?;
            }
        }
        Ok(match &self.bought {
            Some(rows) => rows.row(node),
            None => &self.rented[&node],
        })
    }

    /// The relation's distinct sources, buying it if it is not yet bought.
    fn sources<B: PathIndexBackend + ?Sized>(
        &mut self,
        index: &B,
        path: &[SignedLabel],
        token: Option<&CancelToken>,
    ) -> BackendResult<Vec<NodeId>> {
        if self.bought.is_none() {
            self.buy(index, path, token)?;
        }
        Ok(self.bought.as_ref().map(Rows::sources).unwrap_or_default())
    }

    /// Probes `⟨p, node⟩` and memoises the answer.
    fn rent<B: PathIndexBackend + ?Sized>(
        &mut self,
        index: &B,
        path: &[SignedLabel],
        node: NodeId,
        token: Option<&CancelToken>,
    ) -> BackendResult<()> {
        if self.rented.len().is_multiple_of(PROBES_PER_CHECK) {
            check(token)?;
        }
        let targets = index.scan_path_from(path, node)?;
        self.rented.insert(node, targets);
        Ok(())
    }

    /// Scans `⟨p⟩` once into rows and drops the memo.
    fn buy<B: PathIndexBackend + ?Sized>(
        &mut self,
        index: &B,
        path: &[SignedLabel],
        token: Option<&CancelToken>,
    ) -> BackendResult<()> {
        let (mut sources, mut starts, mut targets) = (Vec::new(), Vec::new(), Vec::new());
        let mut scan = index.scan_path_batches(path)?;
        let mut batch = PairBatch::new();
        while scan.next_batch(&mut batch)? > 0 {
            check(token)?;
            for (source, target) in batch.iter() {
                if sources.last() != Some(&source) {
                    sources.push(source);
                    starts.push(targets.len());
                }
                targets.push(target);
            }
        }
        let nodes = index.node_count();
        let sources = if nodes as u64 <= self.cardinality {
            // A row per node: the empty rows before a source start where
            // its row does.
            let per_source = std::mem::take(&mut starts);
            for (source, start) in sources.iter().zip(per_source) {
                starts.resize(source.0 as usize + 1, start);
            }
            starts.resize(starts.len().max(nodes), targets.len());
            None
        } else {
            Some(sources)
        };
        starts.push(targets.len());
        self.bought = Some(Rows {
            sources,
            starts,
            targets,
        });
        self.rented = HashMap::new();
        Ok(())
    }
}

/// A sorted, distinct superset of the sources of `plan`'s answer. A join
/// answers with its left side's sources (every answer starts with a left
/// pair), unless probing back from the pairs of its last leaves beats
/// scanning its first ones: then with one walk backward through the left
/// side from the right side's sources, which finds exactly the sources. A
/// leaf's sources are the rows of the walk's bought leaf. Walking from every
/// id instead cost a selective answer one frontier walk per node of the
/// graph, however few of them reached anything (CHANGES.md, PR 26).
fn walk_sources<B: PathIndexBackend + ?Sized>(
    plan: &PhysicalPlan,
    leaves: &mut Leaves<'_, B>,
    token: Option<&CancelToken>,
) -> BackendResult<Vec<NodeId>> {
    check(token)?;
    let index = leaves.index();
    match plan {
        PhysicalPlan::Epsilon => Ok((0..index.node_count() as u32).map(NodeId).collect()),
        PhysicalPlan::IndexScan { path, .. } => leaves.sources(path, token),
        PhysicalPlan::Union(children) => {
            let mut sources = Vec::new();
            for child in children {
                sources.extend(walk_sources(child, leaves, token)?);
            }
            normalise(&mut sources);
            Ok(sources)
        }
        PhysicalPlan::Join { left, right, .. } => {
            let last = end_pairs(right, index, Direction::Backward) as usize;
            if !probes_beat_scan(last, end_pairs(left, index, Direction::Forward)) {
                return walk_sources(left, leaves, token);
            }
            let middle = walk_sources(right, leaves, token)?;
            let lookup = &mut Leaves::Lookup(index);
            reach(left, lookup, &middle, Direction::Backward, None, token)
        }
    }
}

/// How many pairs the leaves a walk in `direction` meets first hold: the
/// leftmost ones forward, the rightmost ones backward.
fn end_pairs<B: PathIndexBackend + ?Sized>(
    plan: &PhysicalPlan,
    index: &B,
    direction: Direction,
) -> u64 {
    match plan {
        PhysicalPlan::Epsilon => index.node_count() as u64,
        PhysicalPlan::IndexScan { path, .. } => index.path_cardinality(path).unwrap_or(0),
        PhysicalPlan::Join { left, right, .. } => match direction {
            Direction::Forward => end_pairs(left, index, direction),
            Direction::Backward => end_pairs(right, index, direction),
        },
        PhysicalPlan::Union(children) => children
            .iter()
            .map(|child| end_pairs(child, index, direction))
            .sum(),
    }
}

/// The lazy stream behind [`open_stream_walk`]: one source after another in
/// ascending id order, each emitted as `(s, z)` for its sorted, distinct
/// targets `z`. Nothing runs before the first pull, and an error the walk met
/// is what every later pull reports.
struct WalkStream<'a, B: ?Sized> {
    plan: &'a PhysicalPlan,
    leaves: Leaves<'a, B>,
    token: Option<CancelToken>,
    /// The sources still to walk from, found at the first pull.
    sources: Option<std::vec::IntoIter<NodeId>>,
    /// The source being emitted, and its targets still to emit.
    source: NodeId,
    targets: std::vec::IntoIter<NodeId>,
    error: Option<BackendError>,
}

impl<B: PathIndexBackend + ?Sized> WalkStream<'_, B> {
    /// Walks on until a source has targets left to emit; `false` once every
    /// source is walked.
    fn refill(&mut self) -> BackendResult<bool> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        self.walk_on().map_err(|e| self.error.insert(e).clone())
    }

    fn walk_on(&mut self) -> BackendResult<bool> {
        let token = self.token.as_ref();
        let sources = match &mut self.sources {
            Some(sources) => sources,
            None => {
                let sources = walk_sources(self.plan, &mut self.leaves, token)?;
                self.sources.insert(sources.into_iter())
            }
        };
        while self.targets.len() == 0 {
            let Some(source) = sources.next() else {
                return Ok(false);
            };
            let reached = reach(
                self.plan,
                &mut self.leaves,
                &[source],
                Direction::Forward,
                None,
                token,
            )?;
            (self.source, self.targets) = (source, reached.into_iter());
        }
        Ok(true)
    }
}

impl<B: PathIndexBackend + ?Sized> PairStream for WalkStream<'_, B> {
    fn next_pair(&mut self) -> BackendResult<Option<Pair>> {
        // Once every source is walked no target is left either.
        self.refill()?;
        Ok(self.targets.next().map(|target| (self.source, target)))
    }

    fn next_batch(&mut self, batch: &mut PairBatch) -> BackendResult<usize> {
        batch.clear();
        while !batch.is_full() && self.refill()? {
            let take = batch.remaining_capacity();
            for target in self.targets.by_ref().take(take) {
                batch.push((self.source, target));
            }
        }
        Ok(batch.len())
    }

    fn sortedness(&self) -> Sortedness {
        Sortedness::BySource
    }
}

/// The whole answer of `plan` as a lazy stream sorted by `(source, target)`
/// and distinct by construction: the frontier walk of
/// [`open_stream_bound`] from every source in ascending id order, so no
/// duplicate is ever pulled and nothing needs a final sort. This is the
/// stream for a consumer that drains the answer (`execute*`, a cursor with
/// no limit); one that may stop after a few pairs wants the pipelined
/// operator tree of [`crate::open_stream`], which does not first finish a
/// source's frontier.
///
/// The first pull finds the sources to walk from at the plan's cheaper end:
/// the sources of its first leaves, or those its last leaves' sources reach
/// backward, so a selective answer costs what its relations hold, not one
/// walk per node of the graph. A leaf path is then expanded *rent or buy*
/// for the stream's lifetime: `⟨p, y⟩` probes, memoised per node, while one
/// more probe still beats a scan of `⟨p⟩`, then one scan into rows. A lone
/// forward index scan or `ε` is already sorted and distinct and opens as the
/// tree. The stream owns a clone of `token` and checks it per source and
/// level, per scan batch and every few probes; a tripped token surfaces as a
/// backend error whose backend name is [`pathix_exec::CANCEL_BACKEND`].
/// Nothing touches the index before the first pull, and a backend error
/// sticks.
///
/// ```
/// use pathix_datagen::paper_example_graph;
/// use pathix_exec::{collect_pairs, PairBatch, PairStream};
/// use pathix_index::{EstimationMode, PathHistogram, PathIndexBackend, SharedKPathIndex};
/// use pathix_plan::{open_stream, open_stream_walk, plan_query, PlannerContext, Strategy};
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
/// let mut walk = open_stream_walk(&plan, &index, None).unwrap();
/// let mut batch = PairBatch::new();
/// let mut pairs = Vec::new();
/// while walk.next_batch(&mut batch).unwrap() > 0 {
///     pairs.extend(batch.iter());
/// }
/// // Strictly increasing: sorted and distinct as it comes, and the
/// // operator tree's answer once that is sorted and deduplicated.
/// assert!(pairs.windows(2).all(|w| w[0] < w[1]));
/// assert_eq!(pairs, collect_pairs(open_stream(&plan, &index).unwrap()).unwrap());
/// ```
pub fn open_stream_walk<'a, B: PathIndexBackend + ?Sized>(
    plan: &'a PhysicalPlan,
    index: &'a B,
    token: Option<&CancelToken>,
) -> BackendResult<BoxedPairStream<'a>> {
    if let PhysicalPlan::Epsilon
    | PhysicalPlan::IndexScan {
        orientation: ScanOrientation::Forward,
        ..
    } = plan
    {
        return build_stream(plan, index, token);
    }
    Ok(Box::new(WalkStream {
        plan,
        leaves: Leaves::Walk(index, HashMap::new()),
        token: token.cloned(),
        sources: None,
        source: NodeId(0),
        targets: Vec::new().into_iter(),
        error: None,
    }))
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
                &mut Leaves::Lookup(self.index),
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
///     index.per_path_counts(), 2, EstimationMode::default());
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

    /// The walk from every source is the whole answer, strictly increasing
    /// as it comes.
    fn assert_walk_is_the_answer(plan: &PhysicalPlan, index: &SharedKPathIndex, full: &[Pair]) {
        let mut walk = open_stream_walk(plan, index, None).unwrap();
        let mut pairs = Vec::new();
        while let Some(pair) = walk.next_pair().unwrap() {
            pairs.push(pair);
        }
        assert_eq!(pairs, full, "{plan:?}");
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
            assert_walk_is_the_answer(plan, &index, &full);
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
            assert_walk_is_the_answer(plan, &index, full);
            assert_bound_lookups_filter(plan, &index, full, what);
        }
    }

    #[test]
    fn renting_then_buying_returns_what_probes_and_scans_return() {
        let (g, index, _) = fixture();
        let all: Vec<NodeId> = g.nodes().collect();
        // Every node, and an id past the last.
        let ids: Vec<NodeId> = (0..=all.len() as u32).map(NodeId).collect();
        for (path, cardinality) in index.per_path_counts() {
            let probed: Vec<Vec<NodeId>> = ids
                .iter()
                .map(|&node| probe_expand(&index, path, &[node], None).unwrap())
                .collect();
            // Both branches, whatever a probe is priced at: one leaf that
            // only rents, one that buys at once, and one that rents a third
            // of the nodes and then buys. Both row layouts too: a leaf
            // priced at nothing has fewer pairs than the graph has nodes, so
            // a row per source; one priced at everything a row per node.
            let mut rent_only = Leaf::new(u64::MAX);
            let mut buy_only = Leaf::new(0);
            let mut rent_then_buy = Leaf::new(u64::MAX);
            for &node in all.iter().step_by(3) {
                rent_then_buy.rent(&index, path, node, None).unwrap();
            }
            rent_then_buy.buy(&index, path, None).unwrap();
            for leaf in [&mut rent_only, &mut buy_only, &mut rent_then_buy] {
                for (&node, expected) in ids.iter().zip(&probed) {
                    let targets = leaf.targets(&index, path, node, None).unwrap();
                    assert_eq!(targets, expected, "{path:?} from {node:?}");
                }
            }
            assert!(rent_only.bought.is_none() && buy_only.rented.is_empty());
            let per_source = |leaf: &Leaf| leaf.bought.as_ref().map(|rows| rows.sources.is_some());
            assert_eq!(per_source(&buy_only), Some(true));
            assert_eq!(per_source(&rent_then_buy), Some(false));
            // The sources a walk starts from: the nodes with targets, from
            // either layout, and from a leaf that must buy to answer.
            let sources: Vec<NodeId> = ids
                .iter()
                .zip(&probed)
                .filter(|(_, targets)| !targets.is_empty())
                .map(|(&node, _)| node)
                .collect();
            for leaf in [&mut rent_only, &mut buy_only, &mut rent_then_buy] {
                assert_eq!(
                    leaf.sources(&index, path, None).unwrap(),
                    sources,
                    "{path:?}"
                );
            }
            // Whole frontiers at the real price: what one scan keeps.
            let mut priced = Leaf::new(*cardinality);
            for frontier in [
                Vec::new(),
                all.iter().copied().step_by(7).collect(),
                all.clone(),
            ] {
                let expected = scan_expand(&index, path, &frontier, None).unwrap();
                let reached = priced.expand(&index, path, &frontier, None).unwrap();
                assert_eq!(reached, expected, "{path:?} from {frontier:?}");
            }
        }
    }

    #[test]
    fn a_level_is_normalised_alike_sparse_or_dense() {
        let ids = |raw: &[u32]| raw.iter().copied().map(NodeId).collect::<Vec<_>>();
        let levels = [
            ids(&[]),
            ids(&[5]),
            ids(&[3, 1, 3]),
            // Sparse against its id range: sorted.
            ids(&[100_000, 0, 100_000, 7]),
            // Dense, across word boundaries: marked.
            ids(&[64, 63, 0, 127, 128, 64, 1, 63, 0, 2, 128]),
            (0..500).map(|i| NodeId(i * 37 % 301)).collect(),
        ];
        for level in levels {
            let mut expected = level.clone();
            sort_dedup(&mut expected);
            let mut normalised = level;
            normalise(&mut normalised);
            assert_eq!(normalised, expected);
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
        fn stats(&self) -> BackendStats {
            BackendStats {
                backend: "failing",
                k: 2,
                entries: 0,
                distinct_paths: 0,
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
            let leaves = &mut Leaves::Lookup(&index);
            let stopped = reach(&plan, leaves, &all, direction, None, Some(&tripped));
            assert!(is_cancel(stopped.unwrap_err()));
        }
        // Unbound, the function is `open_stream` / `open_stream_cancellable`.
        let full = collect_pairs(open_stream_bound(&plan, &index, None, None, None).unwrap());
        assert_eq!(full.unwrap(), oracle(&g, &[&[a, b]]));
        let stopped =
            collect_pairs(open_stream_bound(&plan, &index, None, None, Some(&tripped)).unwrap());
        assert!(is_cancel(stopped.unwrap_err()));
    }

    #[test]
    fn the_walk_over_every_source_waits_for_the_first_pull_and_its_error_sticks() {
        let label = PhysicalPlan::scan(vec![SignedLabel::from_code(0)]);
        let plan = join(label.clone(), label);
        // Opening touches nothing, so even a failing index opens.
        let mut walk = open_stream_walk(&plan, &Failing, None).unwrap();
        let first = walk.next_pair().unwrap_err();
        assert_eq!(first.backend(), "failing");
        assert_eq!(walk.next_pair().unwrap_err(), first);
        assert_eq!(walk.next_batch(&mut PairBatch::new()).unwrap_err(), first);

        // A token tripped between open and the first pull stops the walk
        // before it reaches the index.
        let token = CancelToken::new();
        let mut walk = open_stream_walk(&plan, &Failing, Some(&token)).unwrap();
        token.cancel();
        assert_eq!(walk.next_pair().unwrap_err().backend(), CANCEL_BACKEND);
        assert_eq!(walk.next_pair().unwrap_err().backend(), CANCEL_BACKEND);
    }

    #[test]
    fn a_token_tripped_mid_walk_stops_it_at_the_next_source() {
        let (g, index, [a, b, c]) = fixture();
        let plan = PhysicalPlan::Union(vec![
            join(PhysicalPlan::scan(vec![a]), PhysicalPlan::scan(vec![b])),
            PhysicalPlan::scan(vec![c]),
        ]);
        let full = oracle(&g, &[&[a, b], &[c]]);
        let token = CancelToken::new();
        let mut walk = open_stream_walk(&plan, &index, Some(&token)).unwrap();
        let first = walk.next_pair().unwrap().unwrap();
        assert_eq!(first, full[0]);
        token.cancel();
        // The rest of the first source's frontier is already reached; the
        // next source is not.
        let error = loop {
            match walk.next_pair() {
                Ok(Some(pair)) => assert_eq!(pair.0, first.0, "walked on past {first:?}"),
                Ok(None) => panic!("the walk ran to the end"),
                Err(e) => break e,
            }
        };
        assert_eq!(error.backend(), CANCEL_BACKEND);
        assert_eq!(walk.next_batch(&mut PairBatch::new()).unwrap_err(), error);
        assert_eq!(walk.next_pair().unwrap_err(), error);
    }

    #[test]
    fn the_walk_starts_only_from_sources_its_cheaper_end_holds() {
        // 3 000 nodes, a common label on 3 000 edges and two rare ones on
        // five each: a selective answer on a graph with many more nodes.
        let mut b = GraphBuilder::new();
        for node in 0..3000 {
            b.add_node(&format!("n{node}"));
        }
        let mut state = 777u64;
        let mut draw = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % 3000
        };
        for (label, edges) in [("a", 3000), ("r", 5), ("s", 5)] {
            for _ in 0..edges {
                let (s, t) = (draw(), draw());
                b.add_edge_named(&format!("n{s}"), label, &format!("n{t}"));
            }
        }
        let g = b.build();
        let [a, r, s] = ["a", "r", "s"].map(|name| SignedLabel::forward(g.label_id(name).unwrap()));
        let index = SharedKPathIndex::build(&g, 1);
        let leaf = |label: SignedLabel| PhysicalPlan::scan(vec![label]);
        let sources_of = |pairs: &[Pair]| {
            let mut sources: Vec<NodeId> = pairs.iter().map(|p| p.0).collect();
            sort_dedup(&mut sources);
            sources
        };
        let rare = sources_of(&oracle(&g, &[&[r]]));
        let cases = [
            // The left end is the cheaper one: its sources, a superset.
            (join(leaf(r), leaf(a)), oracle(&g, &[&[r, a]]), Some(rare)),
            // The right end is: walked back to exactly the answer's sources.
            (join(leaf(a), leaf(r)), oracle(&g, &[&[a, r]]), None),
            (
                PhysicalPlan::Union(vec![leaf(r), leaf(s)]),
                oracle(&g, &[&[r], &[s]]),
                None,
            ),
            // ε on the left makes that end every node: walked back.
            (
                join(
                    PhysicalPlan::Union(vec![PhysicalPlan::Epsilon, leaf(r)]),
                    leaf(r),
                ),
                oracle(&g, &[&[r], &[r, r]]),
                None,
            ),
        ];
        for (plan, full, superset) in &cases {
            let exact = sources_of(full);
            let expected = superset.as_ref().unwrap_or(&exact);
            let walk = &mut Leaves::Walk(&index, HashMap::new());
            let sources = walk_sources(plan, walk, None).unwrap();
            assert_eq!(&sources, expected, "{plan:?}");
            let lookup = &mut Leaves::Lookup(&index);
            assert_eq!(&walk_sources(plan, lookup, None).unwrap(), expected);
            assert!(exact.iter().all(|node| sources.contains(node)), "{plan:?}");
            assert!(sources.len() <= 10, "{plan:?} walks from {sources:?}");
            assert_walk_is_the_answer(plan, &index, full);
        }
    }
}
