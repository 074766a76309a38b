//! Streaming query results: pull answers one at a time instead of
//! materializing the whole relation.

use crate::db::Snapshot;
use crate::error::QueryError;
use crate::options::QueryOptions;
use pathix_exec::{BoxedPairStream, CancelToken, PairStream, CANCEL_BACKEND};
use pathix_graph::NodeId;
use pathix_plan::{open_stream_bound, open_stream_walk_counted, ExecutionStats, PhysicalPlan};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A pull stream bundled with the snapshot and plan it reads from, so the
/// whole package is an owned, movable value.
struct OwnedStream {
    /// Borrows the heap data behind `_plan` and `_snapshot`. Declared first
    /// so it is dropped before its owners (fields drop in declaration order).
    stream: BoxedPairStream<'static>,
    /// Keep-alive for the physical plan the operator tree references.
    _plan: Arc<PhysicalPlan>,
    /// Keep-alive for the database state the leaf scans read.
    _snapshot: Snapshot,
}

impl OwnedStream {
    /// Opens the stream `options` call for, and whether it is distinct by
    /// construction.
    fn open(
        snapshot: Snapshot,
        plan: Arc<PhysicalPlan>,
        options: &QueryOptions,
        bitmap_levels: &Arc<AtomicUsize>,
    ) -> Result<(Self, bool), QueryError> {
        let (source, target) = (options.bound_source(), options.bound_target());
        let unbound = source.is_none() && target.is_none();
        // An unbound `limit` (and so `exists`) keeps the pipelined operator
        // tree, which can stop after a few leaf batches; a lone scan's tree
        // is distinct, and so is a union's, whose root dedups. Everything
        // else is a walk: from every source in order when the answer is
        // drained, from the bound node otherwise.
        let drained = unbound && options.limit_value().is_none();
        let distinct = !unbound
            || drained
            || matches!(
                *plan,
                PhysicalPlan::IndexScan { .. } | PhysicalPlan::Epsilon | PhysicalPlan::Union(_)
            );
        let stream = {
            let (plan, index, token) =
                (plan.as_ref(), snapshot.index(), options.cancel_token_ref());
            let raw: BoxedPairStream<'_> = if drained {
                open_stream_walk_counted(plan, index, token, Arc::clone(bitmap_levels))?
            } else {
                open_stream_bound(plan, index, source, target, token)?
            };
            // SAFETY: `raw` borrows only from the plan behind `plan` and the
            // index behind `snapshot` (the cancellation guards and the walks
            // own their token clones; the walks own everything else they
            // hold), both heap allocations owned by `Arc`s
            // that are moved (not dropped) into the returned struct, so the
            // borrowed data outlives the stream and never moves. Snapshots
            // are immutable by construction — updates publish *new* snapshots
            // instead of mutating published ones — so no aliasing mutation
            // can occur. The forged `'static` lifetime never escapes: the
            // field is private and only touched through `&mut self`, and the
            // declaration order above drops the stream before the `Arc`s.
            unsafe { std::mem::transmute::<BoxedPairStream<'_>, BoxedPairStream<'static>>(raw) }
        };
        let owned = OwnedStream {
            stream,
            _plan: plan,
            _snapshot: snapshot,
        };
        Ok((owned, distinct))
    }
}

/// A streaming iterator over the distinct answer pairs of a query.
///
/// Which stream the cursor pulls from is decided by its options:
///
/// * No binding and no `limit` — the answer will be drained — is the walk
///   the batch executor drains ([`pathix_plan::open_stream_walk`]): every
///   source's frontier in ascending id order, so the pairs arrive sorted by
///   `(source, target)` and never repeat.
/// * A binding is pushed into the index: [`pathix_plan::open_stream_bound`]
///   walks the frontier from the bound node with `⟨p, s⟩` and `⟨p, s, t⟩`
///   probes at the first `next()`, so the cursor pulls — and counts — only
///   pairs that satisfy the bindings, and the lookup costs what its
///   frontiers reach.
/// * An unbound `limit` (and so `exists`) pulls from the pipelined operator
///   tree ([`pathix_plan::open_stream`]), which yields its first pairs after
///   a few leaf batches instead of after a whole source's frontier.
///
/// Each `next()` advances the stream only far enough to produce one more
/// *distinct* pair. Dropping the cursor (or hitting its `limit`) abandons
/// the rest of the computation — this is what makes `limit`/`exists`
/// terminate early, which [`Cursor::stats`] makes observable via
/// [`ExecutionStats::pairs_pulled`]. On drop the cursor additionally flushes
/// its pull count into [`crate::PathDb::pairs_pulled_total`], so
/// early-terminated runs report the work they actually did.
///
/// ## Snapshot-at-open semantics
///
/// A cursor owns the [`Snapshot`] that was current when it was opened and
/// streams from it for its whole lifetime: updates applied through
/// [`crate::PathDb::apply`] while the cursor is open are **not** visible to
/// it (and never block on it). Every pair a cursor emits is therefore
/// consistent with one single database state — the one at open — never a mix
/// of pre- and post-update data. Open a new cursor to observe newer epochs.
///
/// Under an unbound `limit` the pairs arrive in operator order, not sorted
/// by `(source, target)`; they are still duplicate-free (unless the plan is
/// a lone scan or a union, whose root dedups, set semantics is enforced
/// incrementally with a hash set of seen pairs). Every other cursor's stream is sorted and distinct by
/// construction and keeps no such set.
///
/// ```
/// use pathix_core::{PathDb, PathDbConfig, QueryOptions};
/// use pathix_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// b.add_edge_named("ada", "knows", "jan");
/// b.add_edge_named("ada", "knows", "kim");
/// let db = PathDb::build(b.build(), PathDbConfig::with_k(2));
///
/// let prepared = db.prepare("knows").unwrap();
/// let mut cursor = prepared.cursor(&db, QueryOptions::new().limit(1)).unwrap();
/// assert!(cursor.next().unwrap().is_ok());
/// assert!(cursor.next().is_none()); // limit reached — the second pair is never computed
/// ```
pub struct Cursor {
    stream: OwnedStream,
    options: QueryOptions,
    /// The pairs emitted so far, unless the stream is distinct by
    /// construction.
    seen: Option<HashSet<(u32, u32)>>,
    /// Distinct admitted pairs still allowed out (from `limit`).
    remaining: Option<usize>,
    pulled: usize,
    returned: usize,
    done: bool,
    joins: usize,
    merge_joins: usize,
    /// The walk's count of levels held as bitmaps (0 unless drained).
    bitmap_levels: Arc<AtomicUsize>,
    started: Instant,
    /// The owning database's cumulative pull counter, fed on drop.
    pulled_sink: Arc<AtomicU64>,
}

impl Cursor {
    pub(crate) fn open(
        snapshot: Snapshot,
        plan: Arc<PhysicalPlan>,
        options: QueryOptions,
        pulled_sink: Arc<AtomicU64>,
    ) -> Result<Self, QueryError> {
        let joins = plan.join_count();
        let merge_joins = plan.merge_join_count();
        let bitmap_levels = Arc::new(AtomicUsize::new(0));
        let (stream, distinct) = OwnedStream::open(snapshot, plan, &options, &bitmap_levels)?;
        Ok(Cursor {
            stream,
            remaining: options.limit_value(),
            options,
            seen: (!distinct).then(HashSet::new),
            pulled: 0,
            returned: 0,
            done: false,
            joins,
            merge_joins,
            bitmap_levels,
            started: Instant::now(),
            pulled_sink,
        })
    }

    /// The epoch of the snapshot this cursor streams from.
    pub fn epoch(&self) -> u64 {
        self.stream._snapshot.epoch()
    }

    /// Execution statistics of the cursor *so far*: wall-clock time since the
    /// cursor was opened, pairs returned, and — the early-termination
    /// evidence — how many pairs were pulled from the operator tree.
    pub fn stats(&self) -> ExecutionStats {
        ExecutionStats {
            elapsed: self.started.elapsed(),
            result_pairs: self.returned,
            pairs_pulled: self.pulled,
            joins: self.joins,
            merge_joins: self.merge_joins,
            bitmap_levels: self.bitmap_levels.load(Ordering::Relaxed),
        }
    }

    /// `true` once the cursor is exhausted (end of answer, limit reached, or
    /// a backend error was reported).
    pub fn is_done(&self) -> bool {
        self.done || self.remaining == Some(0)
    }

    /// Drains the cursor, returning how many distinct pairs it produced.
    /// Respects the limit, so `options.exists()` makes this a cheap 0/1
    /// probe.
    pub fn count(self) -> Result<usize, QueryError> {
        let mut n = 0;
        for item in self {
            item?;
            n += 1;
        }
        Ok(n)
    }

    /// Drains the cursor into a sorted, duplicate-free pair list (the batch
    /// API's answer shape, restricted by the cursor's options).
    pub fn collect_sorted(self) -> Result<Vec<(NodeId, NodeId)>, QueryError> {
        let mut pairs = self.collect::<Result<Vec<_>, _>>()?;
        pairs.sort_unstable();
        Ok(pairs)
    }
}

impl Drop for Cursor {
    fn drop(&mut self) {
        // Flush the work done into the database's cumulative counter even if
        // the cursor was abandoned mid-stream (limit hit, exists() probe,
        // caller lost interest): early termination must not hide real work.
        self.pulled_sink
            .fetch_add(self.pulled as u64, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Cursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cursor")
            .field("returned", &self.returned)
            .field("pairs_pulled", &self.pulled)
            .field("epoch", &self.epoch())
            .field("done", &self.is_done())
            .finish_non_exhaustive()
    }
}

impl Iterator for Cursor {
    type Item = Result<(NodeId, NodeId), QueryError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done || self.remaining == Some(0) {
            return None;
        }
        loop {
            match self.stream.stream.next_pair() {
                Err(e) => {
                    self.done = true;
                    // A cancellation guard reports interruption as a backend
                    // error with a marker backend name; translate it into the
                    // dedicated variants so callers can tell "the consumer
                    // gave up" apart from real storage failures.
                    let error = if e.backend() == CANCEL_BACKEND {
                        let deadline_hit = self
                            .options
                            .cancel_token_ref()
                            .is_some_and(CancelToken::deadline_exceeded);
                        if deadline_hit {
                            QueryError::DeadlineExceeded
                        } else {
                            QueryError::Cancelled
                        }
                    } else {
                        QueryError::Backend(e)
                    };
                    return Some(Err(error));
                }
                Ok(None) => {
                    self.done = true;
                    return None;
                }
                Ok(Some(pair)) => {
                    self.pulled += 1;
                    debug_assert!(
                        self.options.bound_source().is_none_or(|s| s == pair.0)
                            && self.options.bound_target().is_none_or(|t| t == pair.1),
                        "the bound stream emitted {pair:?} outside the bindings"
                    );
                    let seen = self.seen.as_mut();
                    if seen.is_some_and(|seen| !seen.insert((pair.0 .0, pair.1 .0))) {
                        continue;
                    }
                    if let Some(remaining) = &mut self.remaining {
                        *remaining -= 1;
                    }
                    self.returned += 1;
                    return Some(Ok(pair));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{PathDb, PathDbConfig, PreparedQuery, QueryOptions};
    use pathix_graph::{GraphBuilder, NodeId};

    #[test]
    fn only_an_unbound_limit_on_a_join_keeps_a_seen_set() {
        let mut b = GraphBuilder::new();
        for (s, t) in [("a", "b"), ("b", "c"), ("a", "c"), ("c", "a"), ("b", "a")] {
            b.add_edge_named(s, "x", t);
        }
        // At k = 1, `x/x` is a join that reaches some pairs twice.
        let db = PathDb::build(b.build(), PathDbConfig::with_k(1));
        let (join, scan) = (db.prepare("x/x").unwrap(), db.prepare("x").unwrap());
        // A union of a join and a scan, which its root dedups.
        let union = db.prepare("x/x|x").unwrap();
        let keeps_a_set = |prepared: &PreparedQuery, options: QueryOptions| {
            prepared.cursor(&db, options).unwrap().seen.is_some()
        };
        assert!(keeps_a_set(&join, QueryOptions::new().limit(5)));
        assert!(keeps_a_set(&join, QueryOptions::new().exists()));
        // A walk — from every source, or from a bound end — and a lone scan
        // are distinct by construction.
        assert!(!keeps_a_set(&join, QueryOptions::new()));
        assert!(!keeps_a_set(&join, QueryOptions::new().count_only()));
        assert!(!keeps_a_set(&join, QueryOptions::new().source(NodeId(0))));
        assert!(!keeps_a_set(
            &join,
            QueryOptions::new().target(NodeId(0)).limit(1)
        ));
        assert!(!keeps_a_set(&scan, QueryOptions::new().limit(5)));
        assert!(!keeps_a_set(&union, QueryOptions::new().limit(5)));
        assert!(!keeps_a_set(&union, QueryOptions::new().exists()));
        let limited = union.cursor(&db, QueryOptions::new().limit(100)).unwrap();
        assert_eq!(
            limited.collect_sorted().unwrap(),
            db.query("x/x|x").unwrap().pairs()
        );

        // A drained cursor pulls each answer once, in `(source, target)` order.
        let mut cursor = join.cursor(&db, QueryOptions::new()).unwrap();
        let pairs: Vec<_> = cursor.by_ref().map(Result::unwrap).collect();
        assert_eq!(pairs, db.query("x/x").unwrap().pairs());
        assert_eq!(cursor.stats().pairs_pulled, pairs.len());
    }
}
