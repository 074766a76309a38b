//! Differential suite for the vectorized engine: the batch-at-a-time
//! executor must be an observationally exact replacement for pair-at-a-time
//! execution — same answers, same root pull counts, same early-termination
//! behavior — on every storage backend, under every planning strategy, and
//! the bound-probe fast paths (chunk fences, source blooms, segment fences)
//! must return exactly what a filter over the full scan returns while
//! demonstrably skipping work.

use pathix::datagen::{barabasi_albert, WorkloadConfig, WorkloadGenerator};
use pathix::index::backend::PairBatch;
use pathix::index::{EstimationMode, PathHistogram};
use pathix::plan::{
    execute, execute_pairwise, execute_with_stats, open_stream, open_stream_walk, plan_query,
    PlannerContext,
};
use pathix::rpq::{parse, to_disjuncts, RewriteOptions};
use pathix::{
    BackendChoice, Graph, NodeId, PathDb, PathDbConfig, PathIndexBackend, SignedLabel, Strategy,
};

/// All four storage backends, with the on-disk page file parked under a
/// caller-chosen name in the temp dir.
fn all_backends(tag: &str) -> Vec<(&'static str, BackendChoice)> {
    let path = std::env::temp_dir().join(format!("pathix-vec-{tag}-{}.pages", std::process::id()));
    vec![
        ("memory", BackendChoice::Memory),
        ("paged", BackendChoice::PagedInMemory { pool_frames: 16 }),
        (
            "on-disk",
            BackendChoice::OnDisk {
                path,
                pool_frames: 16,
            },
        ),
        ("compressed", BackendChoice::Compressed),
    ]
}

fn remove_page_files(tag: &str) {
    let path = std::env::temp_dir().join(format!("pathix-vec-{tag}-{}.pages", std::process::id()));
    std::fs::remove_file(path).ok();
}

/// The batched, pair-at-a-time and stats-reporting execution routes agree on
/// answers and on the number of pairs pulled from the root, and the operator
/// tree drained pair-at-a-time and in batches emits the same sequence, for
/// every backend × strategy combination over a generated workload.
#[test]
fn batched_execution_matches_pairwise_on_all_backends_and_strategies() {
    let graph = barabasi_albert(300, 3, &["a", "b", "c"], 11);
    let k = 2usize;
    for (name, choice) in all_backends("matrix") {
        let db = PathDb::try_build(graph.clone(), PathDbConfig::with_k(k).with_backend(choice))
            .expect("backend build failed");
        let snapshot = db.snapshot();
        let index = snapshot.index();
        let hist = PathHistogram::build(index.per_path_counts(), k, EstimationMode::default());
        let ctx = PlannerContext::new(index, &hist);

        let mut generator = WorkloadGenerator::new(
            &graph,
            WorkloadConfig {
                max_chain_len: 4,
                max_recursion: 2,
                seed: 0xECD5,
                ..Default::default()
            },
        );
        for query in generator.generate_mixed(8) {
            let expr = parse(&query.text).unwrap().bind(&graph).unwrap();
            let disjuncts = to_disjuncts(&expr, RewriteOptions::default()).unwrap();
            for strategy in Strategy::all() {
                let plan = plan_query(strategy, &disjuncts, &ctx);
                let batched = execute(&plan, index).unwrap();
                let (pairwise, pulled_pairwise) = execute_pairwise(&plan, index).unwrap();
                assert_eq!(
                    batched, pairwise,
                    "{name}: batched vs pairwise answers on {:?} under {strategy}",
                    query.text
                );
                let (with_stats, stats) = execute_with_stats(&plan, index).unwrap();
                assert_eq!(
                    with_stats, batched,
                    "{name}: stats route on {:?}",
                    query.text
                );
                assert_eq!(
                    stats.pairs_pulled, pulled_pairwise,
                    "{name}: root pull counts diverge on {:?} under {strategy}",
                    query.text
                );
                assert_eq!(stats.result_pairs, batched.len());

                // The operator tree (what an unbound `limit` / `exists`
                // pulls from) emits the same sequence either way.
                let mut tree_by_pair = Vec::new();
                let mut stream = open_stream(&plan, index).unwrap();
                while let Some(pair) = stream.next_pair().unwrap() {
                    tree_by_pair.push(pair);
                }
                let mut tree_by_batch = Vec::new();
                let mut stream = open_stream(&plan, index).unwrap();
                let mut batch = PairBatch::new();
                while stream.next_batch(&mut batch).unwrap() > 0 {
                    tree_by_batch.extend(batch.iter());
                }
                assert_eq!(
                    tree_by_pair.len(),
                    tree_by_batch.len(),
                    "{name}: tree root pull counts diverge on {:?} under {strategy}",
                    query.text
                );
                assert_eq!(
                    tree_by_pair, tree_by_batch,
                    "{name}: tree batched vs pairwise on {:?} under {strategy}",
                    query.text
                );
            }
        }
    }
    remove_page_files("matrix");
}

/// The raw root stream emits the identical pair sequence whether it is
/// drained pair-at-a-time, in default-capacity batches or in tiny batches,
/// and pulling a prefix through `next_pair` (the cursor/limit/exists path)
/// yields exactly the first pairs of that sequence.
#[test]
fn stream_order_and_early_termination_are_batching_invariant() {
    let graph = barabasi_albert(200, 3, &["a", "b"], 23);
    let k = 2usize;
    for (name, choice) in all_backends("stream") {
        let db = PathDb::try_build(graph.clone(), PathDbConfig::with_k(k).with_backend(choice))
            .expect("backend build failed");
        let snapshot = db.snapshot();
        let index = snapshot.index();
        let hist = PathHistogram::build(index.per_path_counts(), k, EstimationMode::default());
        let ctx = PlannerContext::new(index, &hist);
        let queries = ["a/b", "a/(a|b)/b", "(a|b){1,3}", "a-/b"];
        for (qi, text) in queries.iter().enumerate() {
            let expr = parse(text).unwrap().bind(&graph).unwrap();
            let disjuncts = to_disjuncts(&expr, RewriteOptions::default()).unwrap();
            for strategy in Strategy::all() {
                let plan = plan_query(strategy, &disjuncts, &ctx);

                let mut by_pair = Vec::new();
                let mut stream = open_stream(&plan, index).unwrap();
                while let Some(pair) = stream.next_pair().unwrap() {
                    by_pair.push(pair);
                }

                for capacity in [1usize, 3, 1024] {
                    let mut by_batch = Vec::new();
                    let mut stream = open_stream(&plan, index).unwrap();
                    let mut batch = PairBatch::with_capacity(capacity);
                    while stream.next_batch(&mut batch).unwrap() > 0 {
                        by_batch.extend(batch.iter());
                    }
                    assert_eq!(
                        by_pair, by_batch,
                        "{name}: capacity-{capacity} batches reorder {text:?} \
                         under {strategy} (query {qi})"
                    );
                }

                // Early termination: a consumer that stops after a prefix
                // sees exactly that prefix, regardless of the batching
                // underneath.
                let take = (by_pair.len() / 2).min(5);
                let mut prefix = Vec::new();
                let mut stream = open_stream(&plan, index).unwrap();
                for _ in 0..take {
                    prefix.push(stream.next_pair().unwrap().expect("prefix within bounds"));
                }
                assert_eq!(
                    prefix,
                    by_pair[..take],
                    "{name}: early-terminated prefix diverges on {text:?} under {strategy}"
                );
            }
        }
    }
    remove_page_files("stream");
}

/// The walk over every source (the stream a drained answer comes from) is
/// strictly increasing — sorted and distinct as it is emitted — and emits
/// the identical sequence pair-at-a-time and in batches of any capacity.
#[test]
fn the_walk_is_strictly_increasing_and_batching_invariant() {
    let graph = barabasi_albert(200, 3, &["a", "b"], 23);
    let k = 2usize;
    for (name, choice) in all_backends("walk") {
        let db = PathDb::try_build(graph.clone(), PathDbConfig::with_k(k).with_backend(choice))
            .expect("backend build failed");
        let snapshot = db.snapshot();
        let index = snapshot.index();
        let ctx = PlannerContext::new(index, snapshot.histogram());
        for text in ["a/b", "a/(a|b)/b", "(a|b){1,3}", "a-/b", "a?/b/a-"] {
            let expr = parse(text).unwrap().bind(&graph).unwrap();
            let disjuncts = to_disjuncts(&expr, RewriteOptions::default()).unwrap();
            for strategy in Strategy::all() {
                let plan = plan_query(strategy, &disjuncts, &ctx);
                let mut by_pair = Vec::new();
                let mut walk = open_stream_walk(&plan, index, None).unwrap();
                while let Some(pair) = walk.next_pair().unwrap() {
                    by_pair.push(pair);
                }
                assert!(
                    by_pair.windows(2).all(|w| w[0] < w[1]),
                    "{name}: the walk of {text:?} under {strategy} is not strictly increasing"
                );
                for capacity in [1usize, 3, 1024] {
                    let mut by_batch = Vec::new();
                    let mut walk = open_stream_walk(&plan, index, None).unwrap();
                    let mut batch = PairBatch::with_capacity(capacity);
                    while walk.next_batch(&mut batch).unwrap() > 0 {
                        by_batch.extend(batch.iter());
                    }
                    assert_eq!(
                        by_pair, by_batch,
                        "{name}: capacity-{capacity} batches reorder the walk of {text:?} \
                         under {strategy}"
                    );
                }
            }
        }
    }
    remove_page_files("walk");
}

/// A chain graph long enough that every backend splits the 1-path list into
/// multiple chunks/segments/pages (> 512 pairs).
fn long_chain(edges: u32) -> Graph {
    let mut builder = pathix::GraphBuilder::new();
    for i in 0..edges {
        builder.add_edge_numeric(u64::from(i), "a", u64::from(i + 1));
    }
    builder.build()
}

/// Bound probes through the fenced fast paths (`scan_path_from`) return
/// exactly what filtering the full scan returns — for present and absent
/// sources — and the skip counters prove the fences actually bypassed
/// chunks/segments instead of decoding them.
#[test]
fn bound_probes_agree_with_full_scans_and_skip_work() {
    let graph = long_chain(2200);
    let label = SignedLabel::forward(graph.label_id("a").unwrap());
    let path = vec![label];
    for (name, choice) in all_backends("probe") {
        let db = PathDb::try_build(graph.clone(), PathDbConfig::with_k(1).with_backend(choice))
            .expect("backend build failed");
        let snapshot = db.snapshot();
        let index = snapshot.index();

        let full: Vec<(NodeId, NodeId)> = index.collect_path(&path).unwrap();
        assert!(
            full.len() > 512,
            "{name}: chain must span multiple chunks/segments"
        );

        let mut sources: Vec<NodeId> = (0..2200).step_by(97).map(NodeId).collect();
        sources.extend((0..8).map(|i| NodeId(u32::MAX - 1 - i)));
        for &s in &sources {
            let fenced = index.scan_path_from(&path, s).unwrap();
            let filtered: Vec<NodeId> = full
                .iter()
                .filter(|(src, _)| *src == s)
                .map(|&(_, t)| t)
                .collect();
            assert_eq!(fenced, filtered, "{name}: probe diverges on source {s:?}");
        }

        let storage = db.stats().storage;
        match name {
            "memory" => assert!(
                storage.chunks_skipped > 0,
                "memory probes must skip fenced chunks"
            ),
            "compressed" => assert!(
                storage.chunks_skipped > 0,
                "compressed probes must skip fenced chunks"
            ),
            _ => {}
        }
    }
    remove_page_files("probe");
}
