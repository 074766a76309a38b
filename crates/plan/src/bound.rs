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
//! plan's cheaper end before the first walk. The two differ in how a leaf
//! expands a frontier — per level for a lookup (and for finding the
//! sources), *rent or buy* for the walk — and in how a level is held. A
//! lookup's levels are sorted lists. A walk's level is a list while it is
//! sparse against the node range and a bitmap over the range once it holds
//! at least one id per 64 nodes, the bit-parallel frontier of MS-BFS (Then
//! et al., *The More the Merrier*, PVLDB 8(4), 2014). A dense level grows by
//! OR-ing the bitmap rows of a bought leaf whose relation keeps them (when
//! they take at most four times the bytes of its sorted targets), or by
//! marking targets straight into the next level's bitmap; a union is an OR;
//! and a source's targets are emitted from the bitmap in id order, so the
//! answer stays sorted. Both density rules are computed from exact numbers
//! — the node count, `|p(G)|`, the level's size — in [`crate::cost`].

use crate::cost::{bitmap_rows_fit, bitmap_words, level_is_dense, probes_beat_scan};
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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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
/// The walk also holds a dense level as a bitmap; a lookup's levels stay
/// lists, which cost what they hold however large the graph.
enum Leaves<'a, B: ?Sized> {
    /// One lookup, or the walk's search for its sources: each level probes
    /// or scans afresh ([`expand`]) into a list.
    Lookup(&'a B),
    /// Every source in turn: rent or buy per leaf path, for the stream's
    /// lifetime ([`Leaf`]), and a level a bitmap once it is dense.
    Walk {
        index: &'a B,
        leaves: HashMap<Vec<SignedLabel>, Leaf>,
        /// How many levels came out as bitmaps, shared with whoever opened
        /// the walk.
        bitmap_levels: Arc<AtomicUsize>,
    },
}

impl<'a, B: PathIndexBackend + ?Sized> Leaves<'a, B> {
    fn walk(index: &'a B, bitmap_levels: Arc<AtomicUsize>) -> Self {
        Leaves::Walk {
            index,
            leaves: HashMap::new(),
            bitmap_levels,
        }
    }

    fn index(&self) -> &'a B {
        match self {
            Leaves::Lookup(index) | Leaves::Walk { index, .. } => index,
        }
    }

    /// The walk's leaf for `path`, priced on first use; none for a lookup.
    fn leaf(&mut self, path: &[SignedLabel]) -> Option<&mut Leaf> {
        let Leaves::Walk { index, leaves, .. } = self else {
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
        frontier: &Level,
        token: Option<&CancelToken>,
    ) -> BackendResult<Level> {
        let index = self.index();
        let level = match self.leaf(path) {
            Some(leaf) => leaf.expand(index, path, frontier, token)?,
            None => Level::List(expand(index, path, &frontier.ids(), token)?),
        };
        Ok(self.counted(level))
    }

    /// The union of `levels`: a list for a lookup, and for a walk an OR once
    /// any of them is a bitmap.
    fn union(&self, levels: Vec<Level>) -> Level {
        let Leaves::Walk { index, .. } = self else {
            let mut ids: Vec<NodeId> = levels.into_iter().flat_map(Level::into_ids).collect();
            normalise(&mut ids);
            return Level::List(ids);
        };
        self.counted(Level::union(levels, index.node_count()))
    }

    /// `level`, counted if it is a walk's bitmap.
    fn counted(&self, level: Level) -> Level {
        if let (Leaves::Walk { bitmap_levels, .. }, Level::Bitmap { .. }) = (self, &level) {
            bitmap_levels.fetch_add(1, Ordering::Relaxed);
        }
        level
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

/// One level of a walk: the sorted, distinct ids a frontier holds. A walk
/// holds it as a bitmap over the node range once [`level_is_dense`] says so,
/// and as a list otherwise; a lookup always as a list.
#[derive(Clone, Debug, PartialEq)]
enum Level {
    /// Sorted and distinct.
    List(Vec<NodeId>),
    /// Node `i` is bit `i % 64` of word `i / 64`; `ones` bits are set.
    Bitmap { words: Vec<u64>, ones: usize },
}

impl Default for Level {
    fn default() -> Self {
        Level::List(Vec::new())
    }
}

/// Marks `ids` in the bitmap `words`.
fn mark(words: &mut [u64], ids: &[NodeId]) {
    for node in ids {
        words[node.0 as usize / 64] |= 1 << (node.0 % 64);
    }
}

impl Level {
    /// The level of `ids`, in any order and with repeats, over the ids
    /// `0..nodes`: sorted while sparse, marked into a bitmap once dense.
    fn from_list(mut ids: Vec<NodeId>, nodes: usize) -> Level {
        if !level_is_dense(ids.len(), nodes) {
            sort_dedup(&mut ids);
            return Level::List(ids);
        }
        let mut words = vec![0; bitmap_words(nodes)];
        mark(&mut words, &ids);
        Level::from_bitmap(words)
    }

    /// The level of the ids marked in `words`: a bitmap while it is dense,
    /// listed again once it is not (a selective leaf can thin out a dense
    /// level, and a sparse bitmap costs its whole range to sweep).
    fn from_bitmap(words: Vec<u64>) -> Level {
        let ones = words.iter().map(|w| w.count_ones() as usize).sum();
        if level_is_dense(ones, words.len() * 64) {
            return Level::Bitmap { words, ones };
        }
        let ids = Ones::new(words.as_slice(), ones).collect();
        Level::List(ids)
    }

    /// The union of `levels` over the ids `0..nodes`: the lists merged while
    /// every level is one, else one bitmap they are all OR-ed into.
    fn union(levels: Vec<Level>, nodes: usize) -> Level {
        if levels.iter().all(|level| matches!(level, Level::List(_))) {
            let ids = levels.into_iter().flat_map(Level::into_ids).collect();
            return Level::from_list(ids, nodes);
        }
        let mut words = vec![0; bitmap_words(nodes)];
        for level in &levels {
            match level {
                Level::List(ids) => mark(&mut words, ids),
                Level::Bitmap { words: bits, .. } => {
                    for (word, bits) in words.iter_mut().zip(bits) {
                        *word |= bits;
                    }
                }
            }
        }
        Level::from_bitmap(words)
    }

    fn len(&self) -> usize {
        match self {
            Level::List(ids) => ids.len(),
            Level::Bitmap { ones, .. } => *ones,
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn contains(&self, node: NodeId) -> bool {
        match self {
            Level::List(ids) => ids.binary_search(&node).is_ok(),
            Level::Bitmap { words, .. } => words
                .get(node.0 as usize / 64)
                .is_some_and(|word| word & 1 << (node.0 % 64) != 0),
        }
    }

    /// The ids in ascending order.
    fn iter(&self) -> Ids<std::iter::Copied<std::slice::Iter<'_, NodeId>>, &[u64]> {
        match self {
            Level::List(ids) => Ids::List(ids.iter().copied()),
            Level::Bitmap { words, ones } => Ids::Bitmap(Ones::new(words.as_slice(), *ones)),
        }
    }

    /// The ids as a sorted list: borrowed from a list, swept from a bitmap.
    fn ids(&self) -> Cow<'_, [NodeId]> {
        match self {
            Level::List(ids) => Cow::Borrowed(ids),
            Level::Bitmap { .. } => Cow::Owned(self.iter().collect()),
        }
    }

    fn into_ids(self) -> Vec<NodeId> {
        match self {
            Level::List(ids) => ids,
            Level::Bitmap { .. } => self.iter().collect(),
        }
    }
}

impl IntoIterator for Level {
    type Item = NodeId;
    type IntoIter = Ids<std::vec::IntoIter<NodeId>, Vec<u64>>;

    /// The ids in ascending order, swept from a bitmap as they are taken.
    fn into_iter(self) -> Self::IntoIter {
        match self {
            Level::List(ids) => Ids::List(ids.into_iter()),
            Level::Bitmap { words, ones } => Ids::Bitmap(Ones::new(words, ones)),
        }
    }
}

/// A level's ids in ascending order, from a list `L` or a bitmap held as `W`.
enum Ids<L, W> {
    List(L),
    Bitmap(Ones<W>),
}

impl<L: ExactSizeIterator<Item = NodeId>, W: AsRef<[u64]>> Iterator for Ids<L, W> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        match self {
            Ids::List(ids) => ids.next(),
            Ids::Bitmap(ones) => ones.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = match self {
            Ids::List(ids) => ids.len(),
            Ids::Bitmap(ones) => ones.left,
        };
        (left, Some(left))
    }
}

impl<L: ExactSizeIterator<Item = NodeId>, W: AsRef<[u64]>> ExactSizeIterator for Ids<L, W> {}

/// The set bits of a bitmap as node ids, a word at a time.
struct Ones<W> {
    words: W,
    /// The next word to load, and what is left of the loaded one.
    at: usize,
    bits: u64,
    /// How many set bits are still to come.
    left: usize,
}

impl<W: AsRef<[u64]>> Ones<W> {
    fn new(words: W, ones: usize) -> Self {
        Ones {
            words,
            at: 0,
            bits: 0,
            left: ones,
        }
    }
}

impl<W: AsRef<[u64]>> Iterator for Ones<W> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.bits == 0 {
            self.bits = *self.words.as_ref().get(self.at)?;
            self.at += 1;
        }
        let node = (self.at - 1) * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        self.left -= 1;
        Some(NodeId(node as u32))
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
    frontier: &Level,
    direction: Direction,
    goal: Option<NodeId>,
    token: Option<&CancelToken>,
) -> BackendResult<Level> {
    check(token)?;
    if frontier.is_empty() {
        return Ok(Level::default());
    }
    match plan {
        PhysicalPlan::Epsilon => Ok(match goal {
            None => frontier.clone(),
            Some(goal) => Level::List(Vec::from_iter(frontier.contains(goal).then_some(goal))),
        }),
        PhysicalPlan::IndexScan { path, .. } => {
            let path: Cow<'_, [SignedLabel]> = match direction {
                Direction::Forward => Cow::Borrowed(path),
                Direction::Backward => Cow::Owned(inverse_path(path)),
            };
            match goal {
                None => leaves.expand(&path, frontier, token),
                Some(goal) => {
                    let hit = any_reaches(leaves.index(), &path, &frontier.ids(), goal)?;
                    Ok(Level::List(Vec::from_iter(hit.then_some(goal))))
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
            let mut reached = Vec::with_capacity(children.len());
            for child in children {
                let level = reach(child, leaves, frontier, direction, goal, token)?;
                let hit = goal.is_some() && !level.is_empty();
                reached.push(level);
                if hit {
                    break;
                }
            }
            Ok(leaves.union(reached))
        }
    }
}

/// Restores set semantics on a lookup's level: [`sort_dedup`] while the level
/// is sparse against its id range, one mark per id and a sweep over the marks
/// once it is dense (a level can hold most of the graph many times over, and
/// a sort of it cost more than all the expanding did). The same rule
/// ([`level_is_dense`]) and the same marks as a walk's [`Level`], listed
/// again at the end.
fn normalise(level: &mut Vec<NodeId>) {
    let nodes = level.iter().map(|node| node.0 as usize + 1).max();
    *level = Level::from_list(std::mem::take(level), nodes.unwrap_or(0)).into_ids();
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
/// "scan it all", and holds at most its relation — and, when it is dense
/// enough for [`bitmap_rows_fit`], the relation's rows as bitmaps besides,
/// at most four times the bytes of its targets.
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
///
/// A dense relation ([`bitmap_rows_fit`]) also keeps each row as a bitmap
/// over the node range, which a dense level ORs in a word at a time instead
/// of marking target by target.
struct Rows {
    /// Each row's source, when rows are per source rather than per node.
    sources: Option<Vec<NodeId>>,
    starts: Vec<usize>,
    targets: Vec<NodeId>,
    /// Row `r` as a bitmap, `bits[r · w..(r + 1) · w]` for the `w` words
    /// of the node range, when the relation is dense enough to keep them.
    bits: Option<Vec<u64>>,
}

impl Rows {
    /// Rows of `starts` and `targets` for the ids `0..nodes`, with bitmap
    /// rows when [`bitmap_rows_fit`] says they fit.
    fn new(
        sources: Option<Vec<NodeId>>,
        starts: Vec<usize>,
        targets: Vec<NodeId>,
        nodes: usize,
    ) -> Self {
        let rows = starts.len() - 1;
        let bits = bitmap_rows_fit(rows, nodes, targets.len()).then(|| {
            let words = bitmap_words(nodes);
            let mut bits = vec![0; rows * words];
            for (row, span) in bits.chunks_exact_mut(words).zip(starts.windows(2)) {
                mark(row, &targets[span[0]..span[1]]);
            }
            bits
        });
        Rows {
            sources,
            starts,
            targets,
            bits,
        }
    }

    /// `node`'s row, if it has one.
    fn at(&self, node: NodeId) -> Option<usize> {
        let at = match &self.sources {
            None => node.0 as usize,
            Some(sources) => sources.binary_search(&node).ok()?,
        };
        (at + 1 < self.starts.len()).then_some(at)
    }

    fn row(&self, node: NodeId) -> &[NodeId] {
        match self.at(node) {
            Some(at) => &self.targets[self.starts[at]..self.starts[at + 1]],
            None => &[],
        }
    }

    /// Marks the targets of every node of `frontier` in `words`: a row's
    /// bitmap OR-ed in where the relation keeps them, target by target
    /// otherwise.
    fn mark(&self, frontier: impl Iterator<Item = NodeId>, words: &mut [u64]) {
        let Some(bits) = &self.bits else {
            for node in frontier {
                mark(words, self.row(node));
            }
            return;
        };
        let width = words.len();
        for at in frontier.filter_map(|node| self.at(node)) {
            let row = &bits[at * width..(at + 1) * width];
            for (word, bits) in words.iter_mut().zip(row) {
                *word |= bits;
            }
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

    /// The targets of the nodes of `frontier` as a walk's level over the
    /// index's node range. A list whose leaf keeps no bitmap rows is
    /// expanded into a list, which becomes a bitmap only if it turns out
    /// dense; anything else is marked into a bitmap, by OR-ing bitmap rows
    /// once the leaf has them.
    fn expand<B: PathIndexBackend + ?Sized>(
        &mut self,
        index: &B,
        path: &[SignedLabel],
        frontier: &Level,
        token: Option<&CancelToken>,
    ) -> BackendResult<Level> {
        let nodes = index.node_count();
        let bitmap_rows = self.bought.as_ref().is_some_and(|rows| rows.bits.is_some());
        if let (Level::List(frontier), false) = (frontier, bitmap_rows) {
            let mut reached = Vec::new();
            for &node in frontier {
                reached.extend_from_slice(self.targets(index, path, node, token)?);
            }
            return Ok(Level::from_list(reached, nodes));
        }
        let mut words = vec![0; bitmap_words(nodes)];
        let mut frontier = frontier.iter();
        // Node by node while renting; the node that buys is marked from the
        // rows, and so is every node after it.
        while self.bought.is_none() {
            let Some(node) = frontier.next() else { break };
            mark(&mut words, self.targets(index, path, node, token)?);
        }
        if let Some(rows) = &self.bought {
            rows.mark(frontier, &mut words);
        }
        Ok(Level::from_bitmap(words))
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
        self.bought = Some(Rows::new(sources, starts, targets, nodes));
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
            let middle = Level::List(walk_sources(right, leaves, token)?);
            let lookup = &mut Leaves::Lookup(index);
            let sources = reach(left, lookup, &middle, Direction::Backward, None, token)?;
            Ok(sources.into_ids())
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
    /// The source being emitted, and its targets still to emit (swept from
    /// the last level's bitmap as they go out, when it is one).
    source: NodeId,
    targets: <Level as IntoIterator>::IntoIter,
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
                &Level::List(vec![source]),
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
/// more probe still beats a scan of `⟨p⟩`, then one scan into rows — kept
/// as bitmap rows too when the relation is dense. A level is a sorted list
/// while it is sparse against the node range and a bitmap over the range
/// once it holds at least one id per 64 nodes; a dense level grows by OR-ing
/// bitmap rows (or marking targets into the next bitmap), a union is an OR,
/// and a source's targets are emitted from its last level in id order
/// either way. A lone forward index scan or `ε` is already sorted and
/// distinct and opens as the tree. The stream owns a clone of `token` and
/// checks it per source and level, per scan batch and every few probes; a
/// tripped token surfaces as a backend error whose backend name is
/// [`pathix_exec::CANCEL_BACKEND`]. Nothing touches the index before the
/// first pull, and a backend error sticks.
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
    open_stream_walk_counted(plan, index, token, Arc::default())
}

/// [`open_stream_walk`] that adds one to `bitmap_levels` for each level the
/// walk holds as a bitmap (a leaf expansion or a union that comes out
/// dense), as the stream goes: what [`crate::ExecutionStats::bitmap_levels`]
/// reports.
pub fn open_stream_walk_counted<'a, B: PathIndexBackend + ?Sized>(
    plan: &'a PhysicalPlan,
    index: &'a B,
    token: Option<&CancelToken>,
    bitmap_levels: Arc<AtomicUsize>,
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
        leaves: Leaves::walk(index, bitmap_levels),
        token: token.cloned(),
        sources: None,
        source: NodeId(0),
        targets: Level::default().into_iter(),
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
                &Level::List(vec![self.start]),
                self.direction,
                self.goal,
                self.token.as_ref(),
            )
            .map(|level| level.into_ids().into_iter())
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
                let frontier = Level::List(frontier);
                let reached = priced.expand(&index, path, &frontier, None).unwrap();
                let reached = reached.into_ids();
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
        let mut held = [0, 0];
        for level in levels {
            let mut expected = level.clone();
            sort_dedup(&mut expected);
            let mut normalised = level.clone();
            normalise(&mut normalised);
            assert_eq!(normalised, expected);

            // A walk's level over a range as tight as the ids allow, and over
            // ranges wide enough to keep it a list: the same ids, in order,
            // however it is held and however it is read.
            let last = expected.last().map_or(0, |node| node.0 as usize + 1);
            let wide = last.max(64 * level.len() + 1);
            for nodes in [last, last.next_multiple_of(64), wide] {
                let built = Level::from_list(level.clone(), nodes);
                held[usize::from(matches!(built, Level::Bitmap { .. }))] += 1;
                assert_eq!(built.len(), expected.len());
                assert_eq!(built.iter().collect::<Vec<_>>(), expected);
                assert_eq!(built.iter().len(), expected.len());
                assert_eq!(built.ids().as_ref(), expected.as_slice());
                let every = (0..nodes as u32).map(NodeId);
                assert!(every
                    .filter(|&node| built.contains(node))
                    .eq(expected.iter().copied()));
                // Marked first and read back, or united from two halves.
                let mut words = vec![0; bitmap_words(nodes)];
                mark(&mut words, &level);
                assert_eq!(Level::from_bitmap(words).into_ids(), expected);
                let (front, back) = level.split_at(level.len() / 2);
                let halves = [front, back].map(|half| Level::from_list(half.to_vec(), nodes));
                let united = Level::union(halves.to_vec(), nodes);
                assert_eq!(united, built);
                assert_eq!(built.into_iter().collect::<Vec<_>>(), expected);
            }
        }
        // Both forms were built.
        assert!(held[0] > 0 && held[1] > 0, "{held:?}");
    }

    /// `nodes` nodes and, per label, `edges` edges drawn by a fixed linear
    /// congruence; the index at k = 2.
    fn drawn(nodes: u64, labels: &[(&str, usize)]) -> (Graph, SharedKPathIndex, Vec<SignedLabel>) {
        let mut b = GraphBuilder::new();
        for node in 0..nodes {
            b.add_node(&format!("n{node}"));
        }
        let mut state = 4242u64;
        let mut draw = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % nodes
        };
        for &(label, edges) in labels {
            for _ in 0..edges {
                let (s, t) = (draw(), draw());
                b.add_edge_named(&format!("n{s}"), label, &format!("n{t}"));
            }
        }
        let g = b.build();
        let labels = labels
            .iter()
            .map(|(name, _)| SignedLabel::forward(g.label_id(name).unwrap()))
            .collect();
        let index = SharedKPathIndex::build(&g, 2);
        (g, index, labels)
    }

    #[test]
    fn bitmap_rows_hold_what_the_rows_hold() {
        // 200 nodes (4 words): a label on 1 200 edges, whose relations keep
        // bitmap rows, and one on 60, whose relations mostly do not.
        let (g, index, _) = drawn(200, &[("a", 1200), ("b", 60)]);
        let words = bitmap_words(g.node_count());
        let ids: Vec<NodeId> = (0..=g.node_count() as u32).map(NodeId).collect();
        let mut kept = [0, 0];
        for (path, cardinality) in index.per_path_counts() {
            let mut leaf = Leaf::new(*cardinality);
            leaf.buy(&index, path, None).unwrap();
            let rows = leaf.bought.as_ref().unwrap();
            kept[usize::from(rows.bits.is_some())] += 1;
            let rows_fit =
                bitmap_rows_fit(rows.starts.len() - 1, g.node_count(), rows.targets.len());
            assert_eq!(rows.bits.is_some(), rows_fit, "{path:?}");
            for &node in &ids {
                let row = rows.row(node);
                assert_eq!(row, probe_expand(&index, path, &[node], None).unwrap());
                let (mut expected, mut marked) = (vec![0; words], vec![0; words]);
                mark(&mut expected, row);
                rows.mark(std::iter::once(node), &mut marked);
                assert_eq!(marked, expected, "{path:?} from {node:?}");
            }
            // A whole frontier at once: the union of its rows.
            let frontier: Vec<NodeId> = g.nodes().step_by(3).collect();
            let mut expected = vec![0; words];
            for &node in &frontier {
                mark(&mut expected, rows.row(node));
            }
            let mut marked = vec![0; words];
            rows.mark(frontier.iter().copied(), &mut marked);
            assert_eq!(marked, expected, "{path:?}");
        }
        // Both sides of the rule.
        assert!(kept[0] > 0 && kept[1] > 0, "{kept:?}");
    }

    #[test]
    fn a_plan_of_dense_and_sparse_leaves_walks_to_the_oracle() {
        let (g, index, labels) = drawn(200, &[("a", 1200), ("b", 60)]);
        let [a, b] = [labels[0], labels[1]];
        let leaf = |labels: &[SignedLabel]| PhysicalPlan::scan(labels.to_vec());
        let cases = [
            // Dense leaves after sparse ones, and a union of both under ε.
            (
                join(
                    join(leaf(&[b]), leaf(&[a, a])),
                    PhysicalPlan::Union(vec![
                        leaf(&[b]),
                        leaf(&[a.inverse()]),
                        PhysicalPlan::Epsilon,
                    ]),
                ),
                oracle(&g, &[&[b, a, a, b], &[b, a, a, a.inverse()], &[b, a, a]]),
            ),
            // A dense level thinned by a sparse leaf, then grown again.
            (
                join(join(leaf(&[a, a]), leaf(&[b, b.inverse()])), leaf(&[a])),
                oracle(&g, &[&[a, a, b, b.inverse(), a]]),
            ),
            // ε first, a union of a dense and a sparse leaf last.
            (
                join(
                    PhysicalPlan::Union(vec![PhysicalPlan::Epsilon, leaf(&[a])]),
                    PhysicalPlan::Union(vec![leaf(&[a, b]), leaf(&[b, a])]),
                ),
                oracle(&g, &[&[a, b], &[b, a], &[a, a, b], &[a, b, a]]),
            ),
        ];
        for (plan, full) in &cases {
            assert!(full.len() > 1_000, "{} pairs", full.len());
            let bitmap_levels = Arc::new(AtomicUsize::new(0));
            let walk = open_stream_walk_counted(plan, &index, None, Arc::clone(&bitmap_levels));
            assert_eq!(&collect_pairs(walk.unwrap()).unwrap(), full, "{plan:?}");
            assert!(bitmap_levels.load(Ordering::Relaxed) > 0, "{plan:?}");
            assert_walk_is_the_answer(plan, &index, full);
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
            let all = Level::List(all.clone());
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
            let walk = &mut Leaves::walk(&index, Arc::default());
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
