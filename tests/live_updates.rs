//! Live graph updates: the incremental-vs-rebuild equivalence property and
//! the epoch-based plan/prepared invalidation contract.
//!
//! The acceptance criteria of the live-update PRs are pinned here:
//!
//! * after an arbitrary random [`GraphUpdate`] sequence, a database
//!   maintained through [`PathDb::apply`] — on **every** storage backend
//!   (memory, paged, on-disk, compressed) — answers the **full RPQ strategy
//!   matrix** identically to a database rebuilt from scratch over the final
//!   graph (and to the automaton baseline);
//! * prepared queries and their plans compiled *before* the updates observe
//!   post-update answers — no stale epoch is ever served;
//! * cursors keep the snapshot they opened on (snapshot-at-open), and flush
//!   their pull counts on drop even when terminated early.
//!
//! The number of random cases honours `PATHIX_PROP_CASES` so CI can run a
//! fixed-seed quick profile.

use pathix::datagen::paper_example_graph;
use pathix::{
    BackendChoice, GraphUpdate, HistogramRefresh, LabelId, NodeId, PathDb, PathDbConfig,
    PathIndexBackend, QueryOptions, Strategy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Query matrix exercised against every mutated database: single labels,
/// composition, inverses, union and bounded recursion.
const QUERIES: &[&str] = &[
    "knows",
    "knows/worksFor",
    "supervisor/worksFor-",
    "knows-/knows",
    "(knows|worksFor){1,3}",
    "knows{0,2}",
    "worksFor/worksFor-",
];

/// Number of random update scripts to run (quick profile via env).
fn cases() -> u64 {
    std::env::var("PATHIX_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

/// A random update over the paper graph's interned vocabulary.
fn random_update(rng: &mut StdRng, nodes: u32, labels: u16) -> GraphUpdate {
    let src = NodeId(rng.gen_range(0..nodes));
    let dst = NodeId(rng.gen_range(0..nodes));
    let label = LabelId(rng.gen_range(0..labels));
    if rng.gen_bool(0.6) {
        GraphUpdate::InsertEdge { src, label, dst }
    } else {
        GraphUpdate::DeleteEdge { src, label, dst }
    }
}

/// Structural audit gate: after a batch is applied the database must pass
/// [`PathDb::audit`]. Full coverage under `PATHIX_AUDIT=1`; otherwise every
/// fourth call audits so the quick CI profile stays fast.
fn audit_gate(db: &PathDb, context: &str) {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let full = std::env::var("PATHIX_AUDIT").is_ok_and(|v| v == "1");
    if full || CALLS.fetch_add(1, Ordering::Relaxed).is_multiple_of(4) {
        db.audit().assert_clean(context);
    }
}

/// A per-test scratch directory for the on-disk backend: unique across
/// processes and test threads, removed on drop (even on panic).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pathix-liveupd-{}-{}-{tag}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// All four storage backends; the on-disk page file lives under `dir` with a
/// per-case name so parallel cases never collide.
fn all_backends(dir: &TempDir, case: u64) -> Vec<BackendChoice> {
    vec![
        BackendChoice::Memory,
        BackendChoice::PagedInMemory { pool_frames: 8 },
        BackendChoice::OnDisk {
            path: dir.path(&format!("case-{case}.pages")),
            pool_frames: 8,
        },
        BackendChoice::Compressed,
    ]
}

/// The bound path reads the snapshot of the epoch just published, like every
/// other: a source-bound, a target-bound and a both-bound lookup through
/// `PathDb::run` equal the filtered answer of a database rebuilt over the
/// current graph.
fn bound_lookups_read_the_new_epoch(db: &PathDb, k: usize, endpoints: &mut StdRng, nodes: u32) {
    let rebuilt = PathDb::build(db.graph().as_ref().clone(), PathDbConfig::with_k(k));
    let query = QUERIES[endpoints.gen_range(0..QUERIES.len())];
    let full = rebuilt.query(query).unwrap();
    let (s, t) = (
        NodeId(endpoints.gen_range(0..nodes)),
        NodeId(endpoints.gen_range(0..nodes)),
    );
    for options in [
        QueryOptions::new().source(s),
        QueryOptions::new().target(t),
        QueryOptions::new().source(s).target(t),
    ] {
        let expected: Vec<_> = full
            .pairs()
            .iter()
            .copied()
            .filter(|&(a, b)| {
                options.bound_source().is_none_or(|s| s == a)
                    && options.bound_target().is_none_or(|t| t == b)
            })
            .collect();
        let bound = db.run(query, options.clone()).unwrap();
        assert_eq!(
            bound.pairs(),
            expected,
            "{query} under {options:?} at epoch {}",
            db.epoch()
        );
    }
}

/// The backend's own per-path counts, and the histogram built from them,
/// equal those of a database rebuilt over the same graph.
fn assert_counts_match_a_rebuild(db: &PathDb, k: usize, context: &str) {
    let rebuilt = PathDb::build(db.graph().as_ref().clone(), PathDbConfig::with_k(k));
    let index = rebuilt.index();
    let counts = index.per_path_counts();
    assert_eq!(
        db.index().per_path_counts(),
        counts,
        "{context}: per-path counts"
    );
    let (live, fresh) = (db.histogram(), rebuilt.histogram());
    for (path, _) in counts {
        assert_eq!(
            live.estimated_cardinality(path),
            fresh.estimated_cardinality(path),
            "{context}: histogram on {path:?}"
        );
    }
}

#[test]
fn random_update_scripts_match_a_rebuilt_database_on_every_strategy_and_backend() {
    let dir = TempDir::new("scripts");
    for case in 0..cases() {
        // Every backend replays the identical script (same seed) and must
        // end answering identically to a from-scratch rebuild.
        for choice in all_backends(&dir, case) {
            let mut rng = StdRng::seed_from_u64(0x11FE + case);
            let k = rng.gen_range(1..=3usize);
            let config = PathDbConfig {
                ..PathDbConfig::with_k(k).with_backend(choice.clone())
            };
            let db = PathDb::try_build(paper_example_graph(), config).unwrap();
            let nodes = db.graph().node_count() as u32;
            let labels = db.graph().label_count() as u16;
            // Its own generator, so the scripts stay what they were.
            let mut endpoints = StdRng::seed_from_u64(0xB0D + case);

            // Apply a script of random batches (batching exercises the
            // single-publish-per-batch path as well as repeated publishes).
            let batches = rng.gen_range(1..4usize);
            for batch_no in 0..batches {
                let updates: Vec<GraphUpdate> = (0..rng.gen_range(1..12usize))
                    .map(|_| random_update(&mut rng, nodes, labels))
                    .collect();
                db.apply(&updates).unwrap();
                let context = format!("case {case} batch {batch_no} on {choice:?}");
                audit_gate(&db, &context);
                assert_counts_match_a_rebuild(&db, k, &context);
                bound_lookups_read_the_new_epoch(&db, k, &mut endpoints, nodes);
            }

            // A database rebuilt from scratch over the final (kept-in-sync)
            // graph is the ground truth.
            let rebuilt = PathDb::build(db.graph().as_ref().clone(), PathDbConfig::with_k(k));
            assert_eq!(
                db.stats().index.entries,
                rebuilt.stats().index.entries,
                "case {case} on {choice:?}: index size diverged"
            );
            for query in QUERIES {
                let reference = rebuilt.query_automaton(query).unwrap();
                for strategy in Strategy::all() {
                    let live = db
                        .run(query, QueryOptions::with_strategy(strategy))
                        .unwrap();
                    let fresh = rebuilt
                        .run(query, QueryOptions::with_strategy(strategy))
                        .unwrap();
                    assert_eq!(
                        live.pairs(),
                        fresh.pairs(),
                        "case {case} on {choice:?}: {strategy} diverges on {query} (k = {k})"
                    );
                    assert_eq!(
                        live.pairs(),
                        &reference[..],
                        "case {case} on {choice:?}: {strategy} diverges from the automaton on \
                         {query}"
                    );
                }
            }
        }
    }
}

#[test]
fn bound_lookups_and_parallel_runs_agree_after_updates() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    let db = PathDb::build(paper_example_graph(), PathDbConfig::with_k(2));
    let nodes = db.graph().node_count() as u32;
    let labels = db.graph().label_count() as u16;
    let updates: Vec<GraphUpdate> = (0..16)
        .map(|_| random_update(&mut rng, nodes, labels))
        .collect();
    db.apply(&updates).unwrap();
    audit_gate(&db, "bound lookups after updates");
    let rebuilt = PathDb::build(db.graph().as_ref().clone(), PathDbConfig::with_k(2));

    let prepared = db.prepare("(knows|worksFor){1,3}").unwrap();
    let reference = rebuilt.query("(knows|worksFor){1,3}").unwrap();
    // The unrestricted (batch-drain) run sees post-update state too.
    let full = prepared.run(&db, QueryOptions::new()).unwrap();
    assert_eq!(full.pairs(), reference.pairs());
    // Example 3.1 bound shapes, checked for every source node.
    for node in 0..nodes {
        let node = NodeId(node);
        let bound = prepared.run(&db, QueryOptions::new().source(node)).unwrap();
        let expected: Vec<_> = reference
            .pairs()
            .iter()
            .copied()
            .filter(|&(s, _)| s == node)
            .collect();
        assert_eq!(bound.pairs(), &expected[..]);
    }
}

#[test]
fn prepared_queries_and_cached_plans_observe_post_update_answers() {
    let db = PathDb::build(paper_example_graph(), PathDbConfig::with_k(2));
    let query = "supervisor/worksFor-";

    // Compile + plan *before* any update: the prepared handle holds an
    // epoch-0 plan for every strategy.
    let prepared = db.prepare(query).unwrap();
    for strategy in Strategy::all() {
        let result = prepared
            .run(&db, QueryOptions::with_strategy(strategy))
            .unwrap();
        assert!(result.contains_named(&db, "kim", "sue"), "{strategy}");
    }
    let plans_before = db.plan_cache_stats().plans;
    assert_eq!(plans_before, 4);

    // Mutate: the worked example's answer disappears.
    let graph = db.graph();
    let kim = graph.node_id("kim").unwrap();
    let liz = graph.node_id("liz").unwrap();
    let supervisor = graph.label_id("supervisor").unwrap();
    drop(graph);
    db.apply(&[GraphUpdate::DeleteEdge {
        src: kim,
        label: supervisor,
        dst: liz,
    }])
    .unwrap();

    // The stale epoch is never served: both the prepared handle and an
    // ad-hoc run answer from the new state...
    for strategy in Strategy::all() {
        let via_prepared = prepared
            .run(&db, QueryOptions::with_strategy(strategy))
            .unwrap();
        assert!(
            !via_prepared.contains_named(&db, "kim", "sue"),
            "{strategy} served a stale prepared answer"
        );
        let via_cache = db
            .run(query, QueryOptions::with_strategy(strategy))
            .unwrap();
        assert_eq!(via_prepared.pairs(), via_cache.pairs());
    }
    let stats = db.plan_cache_stats();
    // ...the handle by replanning each strategy exactly once at the new
    // epoch without recompiling the text, each ad-hoc run by compiling and
    // planning its own.
    assert_eq!(stats.plans, plans_before + 4 + 4, "{stats:?}");
    assert_eq!(stats.compilations, 1 + 4, "{stats:?}");
}

#[test]
fn cursors_keep_their_snapshot_while_updates_land() {
    let db = Arc::new(PathDb::build(
        paper_example_graph(),
        PathDbConfig::with_k(2),
    ));
    let prepared = db.prepare("knows").unwrap();

    let mut cursor = prepared.cursor(&db, QueryOptions::new()).unwrap();
    assert_eq!(cursor.epoch(), 0);
    let first = cursor.next().unwrap().unwrap();

    // Delete every `knows` edge while the cursor is mid-stream.
    let graph = db.graph();
    let knows = graph.label_id("knows").unwrap();
    let deletions: Vec<GraphUpdate> = graph
        .edges(knows)
        .map(|(src, dst)| GraphUpdate::DeleteEdge {
            src,
            label: knows,
            dst,
        })
        .collect();
    let expected_total = deletions.len();
    drop(graph);
    // Another thread applies them and runs its clone of the prepared query.
    let writer = {
        let (db, prepared) = (Arc::clone(&db), prepared.clone());
        std::thread::spawn(move || {
            db.apply(&deletions).unwrap();
            prepared.run(&db, QueryOptions::new()).unwrap().len()
        })
    };
    assert_eq!(writer.join().unwrap(), 0, "the clone sees the deletes");
    assert_eq!(
        db.query("knows").unwrap().len(),
        0,
        "new queries see the deletes"
    );

    // The open cursor still drains the full pre-update answer.
    let mut streamed = vec![first];
    for item in &mut cursor {
        streamed.push(item.unwrap());
    }
    streamed.sort_unstable();
    assert_eq!(streamed.len(), expected_total);

    // A cursor opened now runs at the new epoch and sees nothing.
    let fresh = prepared.cursor(&db, QueryOptions::new()).unwrap();
    assert_eq!(fresh.epoch(), 1);
    assert_eq!(fresh.count().unwrap(), 0);
}

#[test]
fn dropped_cursors_flush_their_pull_counts() {
    let db = PathDb::build(paper_example_graph(), PathDbConfig::with_k(2));
    assert_eq!(db.pairs_pulled_total(), 0);

    // An exists() probe terminates after one pull chain — the work must
    // still land in the database's cumulative accounting.
    let prepared = db.prepare("(knows|worksFor){1,3}").unwrap();
    assert!(prepared.exists(&db, QueryOptions::new()).unwrap());
    let after_exists = db.pairs_pulled_total();
    assert!(
        after_exists > 0,
        "exists() work vanished from the accounting"
    );

    // An abandoned cursor (dropped mid-stream, never exhausted) flushes too.
    let mut cursor = prepared.cursor(&db, QueryOptions::new()).unwrap();
    cursor.next().unwrap().unwrap();
    cursor.next().unwrap().unwrap();
    let partial = cursor.stats().pairs_pulled;
    assert!(partial >= 2);
    drop(cursor);
    assert_eq!(db.pairs_pulled_total(), after_exists + partial as u64);

    // Batch executions are accounted as well.
    let before = db.pairs_pulled_total();
    let result = db.query("knows").unwrap();
    assert_eq!(
        db.pairs_pulled_total(),
        before + result.stats.pairs_pulled as u64
    );
}

#[test]
fn manual_histogram_mode_keeps_answers_fresh_while_statistics_lag() {
    let db = PathDb::build(
        paper_example_graph(),
        PathDbConfig::with_k(2).with_histogram_refresh(HistogramRefresh::Manual),
    );
    let graph = db.graph();
    let tim = graph.node_id("tim").unwrap();
    let zoe = graph.node_id("zoe").unwrap();
    let knows = graph.label_id("knows").unwrap();
    drop(graph);
    let stats = db
        .apply(&[GraphUpdate::InsertEdge {
            src: tim,
            label: knows,
            dst: zoe,
        }])
        .unwrap();
    assert!(!stats.histogram_refreshed);
    // Answers are current even though the statistics are stale...
    let rebuilt = PathDb::build(db.graph().as_ref().clone(), PathDbConfig::with_k(2));
    for strategy in Strategy::all() {
        assert_eq!(
            db.run("knows/knows", QueryOptions::with_strategy(strategy))
                .unwrap()
                .pairs(),
            rebuilt
                .run("knows/knows", QueryOptions::with_strategy(strategy))
                .unwrap()
                .pairs()
        );
    }
    // ...and a manual refresh catches the statistics up.
    assert!(db.refresh_histogram());
    assert_eq!(
        db.histogram()
            .estimated_cardinality(&[pathix::SignedLabel::forward(knows)]),
        rebuilt
            .histogram()
            .estimated_cardinality(&[pathix::SignedLabel::forward(knows)]),
    );
}
