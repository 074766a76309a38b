//! Differential suite for the walk over every source
//! (`pathix::plan::open_stream_walk`), the stream a drained unbound answer
//! comes from: on every backend and under every strategy it must equal the
//! pipelined operator tree drained and then sorted and deduplicated — and
//! it must arrive that way, sorted and distinct, with nothing left to do.

mod common;

use pathix::datagen::{barabasi_albert, WorkloadConfig, WorkloadGenerator};
use pathix::graph::{Graph, GraphBuilder};
use pathix::index::PairBatch;
use pathix::plan::{open_stream, open_stream_walk, plan_query, PlannerContext};
use pathix::rpq::{parse, to_disjuncts, RewriteOptions};
use pathix::serve::{ServeConfig, ServeError, Server};
use pathix::{PathDb, PathDbConfig, PhysicalPlan, QueryOptions, SignedLabel, Strategy};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn the_walk_is_the_drained_tree_on_every_backend_and_strategy() {
    let graph = barabasi_albert(120, 3, &["a", "b", "c"], 29);
    let (dbs, dir) = common::on_every_backend("walk-matrix", &graph, 16);
    let mut queries: Vec<String> = [
        // An ε disjunct, ε alone, a union of scans only, a union of a scan
        // and a join, an eight-label chain and a four-label disjunct of two
        // full levels at k = 2.
        "a?",
        "()",
        "a|b-|c",
        "a|b/c-/a",
        "a/b/c/a/b/c/a/b",
        "a/b-/c/a",
    ]
    .map(str::to_owned)
    .into();
    let mut generator = WorkloadGenerator::new(
        &graph,
        WorkloadConfig {
            max_chain_len: 4,
            max_recursion: 2,
            seed: 0x3A1C,
            ..Default::default()
        },
    );
    queries.extend(generator.generate_mixed(8).into_iter().map(|q| q.text));

    // A bushy tree of four segments, built by hand: whether a strategy
    // plans one depends on histogram ties.
    let [a, b, c] = ["a", "b", "c"].map(|l| SignedLabel::forward(graph.label_id(l).unwrap()));
    let leaf = |path: &[SignedLabel]| PhysicalPlan::scan(path.to_vec());
    let bushy = PhysicalPlan::compose(
        PhysicalPlan::compose(leaf(&[a, b]), leaf(&[c.inverse(), a])),
        PhysicalPlan::compose(leaf(&[b, c]), leaf(&[a])),
    );

    for (name, db) in &dbs {
        let snapshot = db.snapshot();
        let index = snapshot.index();
        // Everything a stream emits, in order.
        let drain = |plan: &PhysicalPlan, walk: bool| {
            let mut stream = match walk {
                true => open_stream_walk(plan, index, None).unwrap(),
                false => open_stream(plan, index).unwrap(),
            };
            let (mut pairs, mut batch) = (Vec::new(), PairBatch::new());
            while stream.next_batch(&mut batch).unwrap() > 0 {
                pairs.extend(batch.iter());
            }
            pairs
        };
        // The oracle: the pipelined tree drained, sorted, deduplicated.
        let tree = |plan: &PhysicalPlan| {
            let mut pairs = drain(plan, false);
            pairs.sort_unstable();
            pairs.dedup();
            pairs
        };
        assert_eq!(drain(&bushy, true), tree(&bushy), "{name}: a bushy tree");
        let ctx = PlannerContext::new(index, snapshot.histogram());
        for text in &queries {
            let expr = parse(text).unwrap().bind(&graph).unwrap();
            let disjuncts = to_disjuncts(&expr, RewriteOptions::default()).unwrap();
            for strategy in Strategy::all() {
                let plan = plan_query(strategy, &disjuncts, &ctx);
                let expected = tree(&plan);
                assert_eq!(
                    drain(&plan, true),
                    expected,
                    "{name}: {text:?} under {strategy}"
                );
                let answer = db.run(text, QueryOptions::with_strategy(strategy)).unwrap();
                assert_eq!(
                    answer.pairs(),
                    expected,
                    "{name}: {text:?} under {strategy}"
                );
                assert_eq!(
                    answer.stats.pairs_pulled,
                    expected.len(),
                    "{name}: {text:?}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// 150 nodes, ≈ 1200 edges under one label: dense enough that the union
/// below cannot finish inside a few milliseconds.
fn dense_db() -> PathDb {
    PathDb::build(dense_graph(), PathDbConfig::with_k(2))
}

/// The graph of [`dense_db`]: two hops from a node reach about half the
/// graph, so a walk's levels are mostly bitmaps.
fn dense_graph() -> Graph {
    let mut b = GraphBuilder::new();
    let mut state = 7u64;
    let mut draw = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % 150) as u32
    };
    for _ in 0..1200 {
        let (s, t) = (draw(), draw());
        b.add_edge_named(&format!("v{s}"), "e", &format!("v{t}"));
    }
    b.build()
}

#[test]
fn the_walk_over_a_dense_graph_is_the_drained_tree() {
    // Levels of most of the graph: bitmaps, grown from bitmap rows and
    // united with lists and with ε, on all four backends under all four
    // strategies.
    let graph = dense_graph();
    let (dbs, dir) = common::on_every_backend("walk-dense", &graph, 16);
    let queries = ["e/e/e-", "()|e/(e-|())/e", "(e|e-){2}"];
    for (name, db) in &dbs {
        let snapshot = db.snapshot();
        let index = snapshot.index();
        let ctx = PlannerContext::new(index, snapshot.histogram());
        for text in queries {
            let expr = parse(text).unwrap().bind(&graph).unwrap();
            let disjuncts = to_disjuncts(&expr, RewriteOptions::default()).unwrap();
            for strategy in Strategy::all() {
                let context = format!("{name}: {text:?} under {strategy}");
                let plan = plan_query(strategy, &disjuncts, &ctx);
                let drain = |walk: bool| {
                    let mut stream = match walk {
                        true => open_stream_walk(&plan, index, None).unwrap(),
                        false => open_stream(&plan, index).unwrap(),
                    };
                    let (mut pairs, mut batch) = (Vec::new(), PairBatch::new());
                    while stream.next_batch(&mut batch).unwrap() > 0 {
                        pairs.extend(batch.iter());
                    }
                    pairs
                };
                let mut expected = drain(false);
                expected.sort_unstable();
                expected.dedup();
                assert_eq!(drain(true), expected, "{context}");
                let answer = db.run(text, QueryOptions::with_strategy(strategy)).unwrap();
                assert_eq!(answer.pairs(), expected, "{context}");
                assert!(answer.stats.bitmap_levels > 0, "{context}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_served_whole_answer_is_the_walk_and_keeps_its_deadline() {
    let db = Arc::new(dense_db());
    let server = Server::new(
        Arc::clone(&db),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    // A whole unbound read (the server always attaches a token): the
    // walk's answer, every pair pulled once.
    let text = "e/e-/e";
    let budget = Some(Duration::from_secs(600));
    let reply = server
        .submit_query_with_deadline(text, QueryOptions::new(), budget)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(reply.result.pairs(), db.query(text).unwrap().pairs());
    assert_eq!(reply.result.stats.pairs_pulled, reply.result.len());

    // 112 disjuncts of four to six levels under a 5 ms budget.
    let heavy = "(e|e-){4,6}";
    let budget = Some(Duration::from_millis(5));
    let err = server
        .submit_query_with_deadline(heavy, QueryOptions::new(), budget)
        .unwrap()
        .wait()
        .unwrap_err();
    assert_eq!(err, ServeError::DeadlineExceeded);
    server.shutdown().unwrap();
}
