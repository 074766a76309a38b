//! What one execution path buys: on every backend, a many-disjunct union
//! query — the shape a per-disjunct worker pool would be pointed at — honours
//! `limit`, `exists`, cancellation, deadlines and `count_only` through
//! `PreparedQuery::run` alone, without the serving tier. A run that
//! materialized each disjunct on its own thread could honour none of them.

mod common;

use pathix::graph::GraphBuilder;
use pathix::{NodeId, PathDb, QueryError, QueryOptions, Strategy};
use pathix_core::CancelToken;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// 14 disjuncts (2 + 4 + 8 label paths of length 1–3): completes, and its
/// answer is a few thousand pairs.
const UNION: &str = "(e|e-){1,3}";

/// 496 disjuncts of length 4–8 over the dense graph: never completes inside
/// a test — it has to be interrupted. A walk emits a source's targets only
/// once it has walked every disjunct from it, so the work is set by the
/// disjuncts rather than the graph: on a 2-core machine the first source's
/// targets come ≈ 45 ms into a debug run, and the whole answer takes
/// ≈ 250 ms of a release build, so the 150 ms deadline below stops a run
/// that is under way in both. `(e|e-){4,6}` took ≈ 45 ms in a release
/// build once dense walk levels became bitmaps.
const HEAVY: &str = "(e|e-){4,8}";

/// The same dense random graph (150 nodes, ≈ 1200 edges) on each of the four
/// backends.
fn dense_dbs(tag: &str) -> (Vec<(&'static str, PathDb)>, PathBuf) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut b = GraphBuilder::new();
    for _ in 0..1200 {
        let s = rng.gen_range(0..150u32);
        let t = rng.gen_range(0..150u32);
        b.add_edge_named(&format!("v{s}"), "e", &format!("v{t}"));
    }
    common::on_every_backend(&format!("one-exec-{tag}"), &b.build(), 64)
}

#[test]
fn limit_pulls_a_bounded_number_of_pairs() {
    let (dbs, dir) = dense_dbs("limit");
    for (name, db) in &dbs {
        let prepared = db.prepare(UNION).unwrap();
        let full = prepared.run(db, QueryOptions::new()).unwrap();
        assert!(full.len() > 1_000, "{name}: {} pairs", full.len());

        let before = db.pairs_pulled_total();
        let limited = prepared.run(db, QueryOptions::new().limit(5)).unwrap();
        assert_eq!(limited.len(), 5, "{name}");
        assert!(
            limited.pairs().iter().all(|&(s, t)| full.contains(s, t)),
            "{name}: a limited run may only return answers of the full run"
        );
        assert!(
            limited.stats.pairs_pulled >= 5
                && limited.stats.pairs_pulled * 100 < full.stats.pairs_pulled,
            "{name}: limit(5) pulled {} pairs, the full run {}",
            limited.stats.pairs_pulled,
            full.stats.pairs_pulled
        );
        // The abandoned cursor still accounts for the work it did.
        assert_eq!(
            db.pairs_pulled_total() - before,
            limited.stats.pairs_pulled as u64,
            "{name}"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn exists_stops_at_the_first_pair() {
    let (dbs, dir) = dense_dbs("exists");
    for (name, db) in &dbs {
        let prepared = db.prepare(UNION).unwrap();
        let probe = prepared.run(db, QueryOptions::new().exists()).unwrap();
        assert!(probe.is_empty(), "{name}: exists materializes nothing");
        assert_eq!(probe.stats.result_pairs, 1, "{name}");
        assert_eq!(probe.stats.pairs_pulled, 1, "{name}");
        assert!(prepared.exists(db, QueryOptions::new()).unwrap(), "{name}");

        // A binding no answer satisfies says no from the index: a source it
        // does not know is an empty frontier, and nothing is pulled.
        let nowhere = QueryOptions::new().source(NodeId(u32::MAX)).exists();
        let miss = prepared.run(db, nowhere).unwrap();
        assert_eq!(miss.stats.result_pairs, 0, "{name}");
        assert_eq!(miss.stats.pairs_pulled, 0, "{name}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn an_already_cancelled_token_never_starts() {
    let (dbs, dir) = dense_dbs("cancelled");
    for (name, db) in &dbs {
        let prepared = db.prepare(HEAVY).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let before = db.pairs_pulled_total();
        let started = Instant::now();
        let err = prepared
            .run(db, QueryOptions::new().cancel_token(token))
            .unwrap_err();
        assert!(matches!(err, QueryError::Cancelled), "{name}: {err}");
        assert_eq!(
            db.pairs_pulled_total(),
            before,
            "{name}: nothing was pulled"
        );
        assert!(started.elapsed() < Duration::from_secs(5), "{name}");

        let expired = CancelToken::with_deadline(Instant::now());
        let err = prepared
            .run(db, QueryOptions::new().cancel_token(expired))
            .unwrap_err();
        assert!(matches!(err, QueryError::DeadlineExceeded), "{name}: {err}");
        assert_eq!(
            db.pairs_pulled_total(),
            before,
            "{name}: nothing was pulled"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_deadline_expiring_mid_run_surfaces_through_prepared_run() {
    let (dbs, dir) = dense_dbs("deadline");
    for (name, db) in &dbs {
        let prepared = db.prepare(HEAVY).unwrap();
        // Plan once up front so the budget below is spent executing.
        assert!(prepared.exists(db, QueryOptions::new()).unwrap(), "{name}");

        let before = db.pairs_pulled_total();
        let started = Instant::now();
        let token = CancelToken::with_budget(Duration::from_millis(150));
        let err = prepared
            .run(db, QueryOptions::new().cancel_token(token))
            .unwrap_err();
        assert!(matches!(err, QueryError::DeadlineExceeded), "{name}: {err}");
        assert!(
            db.pairs_pulled_total() > before,
            "{name}: the run was under way when the deadline hit"
        );
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "{name}: interrupted {:?} after a 150 ms budget",
            started.elapsed()
        );

        // The same token shape, cancelled from outside instead of by time.
        let token = CancelToken::new();
        let remote = token.clone();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            remote.cancel();
        });
        let err = prepared
            .run(db, QueryOptions::new().cancel_token(token))
            .unwrap_err();
        canceller.join().unwrap();
        assert!(matches!(err, QueryError::Cancelled), "{name}: {err}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A skewed three-label graph (hubs at the low ids) plus two hand-placed
/// nodes: `leaf` has one edge, `sink` only incoming ones.
fn labelled_dbs(tag: &str) -> (Vec<(&'static str, PathDb)>, PathBuf) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut b = GraphBuilder::new();
    for _ in 0..500 {
        let mut skewed = || rng.gen_range(0..120u32) * rng.gen_range(0..120u32) / 120;
        let (s, t) = (skewed(), skewed());
        let label = ["a", "b", "c"][rng.gen_range(0..3usize)];
        b.add_edge_named(&format!("v{s}"), label, &format!("v{t}"));
    }
    b.add_edge_named("leaf", "a", "v0");
    b.add_edge_named("v3", "a", "sink");
    b.add_edge_named("v5", "b", "sink");
    common::on_every_backend(&format!("one-exec-{tag}"), &b.build(), 64)
}

#[test]
fn count_only_and_limit_agree_with_the_filtered_full_answer() {
    // An ε disjunct (where `(s, s)` is an answer), ε alone, three disjuncts
    // behind a shared prefix, a disjunct of two full levels at k = 2, and a
    // union wide enough that the strategies cut it differently.
    let queries = ["a?", "()", "a/(b|c|a/b)", "a/b-/c/a", "(a|b-){1,3}"];
    let (dbs, dir) = labelled_dbs("count");
    for (name, db) in &dbs {
        let graph = db.graph();
        // A hub, a leaf, a node with no out-edge under any query's first
        // label, and an id the index does not know.
        let nodes = [
            graph.node_id("v0").unwrap(),
            graph.node_id("leaf").unwrap(),
            graph.node_id("sink").unwrap(),
            NodeId(graph.node_count() as u32),
        ];
        for (query, strategy) in queries
            .iter()
            .flat_map(|q| Strategy::all().map(move |s| (q, s)))
        {
            let context = format!("{name}: {query} under {strategy}");
            let prepared = db.prepare(query).unwrap();
            let unbound = QueryOptions::with_strategy(strategy);
            let full = prepared.run(db, unbound.clone()).unwrap();
            assert!(!full.is_empty(), "{context}");
            let counted = prepared.run(db, unbound.clone().count_only()).unwrap();
            assert!(counted.is_empty(), "{context}");
            assert_eq!(counted.stats.result_pairs, full.len(), "{context}");

            let bindings = nodes.iter().flat_map(|&s| {
                let unbound = &unbound;
                nodes.iter().flat_map(move |&t| {
                    [
                        unbound.clone().source(s),
                        unbound.clone().target(t),
                        unbound.clone().source(s).target(t),
                    ]
                })
            });
            for options in bindings {
                let context = format!("{context}: {options:?}");
                let expected: Vec<_> = full
                    .pairs()
                    .iter()
                    .copied()
                    .filter(|&(s, t)| {
                        options.bound_source().is_none_or(|b| b == s)
                            && options.bound_target().is_none_or(|b| b == t)
                    })
                    .collect();

                let bound = prepared.run(db, options.clone()).unwrap();
                assert_eq!(bound.pairs(), expected, "{context}");
                // A bound run pulls what it returns, not the unbound answer.
                assert_eq!(bound.stats.pairs_pulled, expected.len(), "{context}");
                let counted = prepared.run(db, options.clone().count_only()).unwrap();
                assert!(counted.is_empty(), "{context}");
                assert_eq!(counted.stats.result_pairs, expected.len(), "{context}");

                let cap = 3.min(expected.len());
                let limited = prepared.run(db, options.clone().limit(3)).unwrap();
                assert_eq!(limited.len(), cap, "{context}");
                assert!(
                    limited.pairs().iter().all(|p| expected.contains(p)),
                    "{context}"
                );
                let capped = prepared
                    .run(db, options.clone().limit(3).count_only())
                    .unwrap();
                assert_eq!(capped.stats.result_pairs, cap, "{context}");

                let probe = prepared.run(db, options.exists()).unwrap();
                assert!(probe.is_empty(), "{context}");
                assert_eq!(
                    probe.stats.result_pairs,
                    usize::from(!expected.is_empty()),
                    "{context}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_bound_cursor_cancelled_before_its_first_pull_does_no_work() {
    let (dbs, dir) = dense_dbs("lazy");
    for (name, db) in &dbs {
        let prepared = db.prepare(UNION).unwrap();
        for bind in [
            |o: QueryOptions| o.source(NodeId(1)),
            |o: QueryOptions| o.target(NodeId(2)),
            |o: QueryOptions| o.source(NodeId(1)).target(NodeId(2)),
        ] {
            let token = CancelToken::new();
            let options = bind(QueryOptions::new().cancel_token(token.clone()));
            let pulled = db.pairs_pulled_total();
            let pool = db.stats().storage.pool;
            let mut cursor = prepared.cursor(db, options).unwrap();
            // Opening computed nothing, so there is nothing a token tripped
            // now could come too late for.
            token.cancel();
            let err = cursor.next().unwrap().unwrap_err();
            assert!(matches!(err, QueryError::Cancelled), "{name}: {err}");
            assert!(cursor.next().is_none(), "{name}");
            drop(cursor);
            assert_eq!(db.pairs_pulled_total(), pulled, "{name}");
            assert_eq!(
                db.stats().storage.pool,
                pool,
                "{name}: no page was asked for"
            );
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}
