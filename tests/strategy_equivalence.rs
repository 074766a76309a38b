//! Randomized equivalence: on random graphs and random queries, all four
//! planning strategies, the automaton baseline and the Datalog baseline must
//! produce identical answers — on every index backend.
//!
//! Driven by the vendored deterministic PRNG (the environment is offline, so
//! no proptest); every case is seeded and reproduces exactly.

use pathix::datagen::{erdos_renyi, WorkloadConfig, WorkloadGenerator};
use pathix::{BackendChoice, PathDb, PathDbConfig, PathIndexBackend, QueryOptions, Strategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn all_evaluation_routes_agree() {
    // Each case builds indexes and runs six evaluators, so keep the count
    // moderate; the inner workload loop still exercises dozens of queries.
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0xEA5E + case);
        let nodes = rng.gen_range(6..28usize);
        let edges = rng.gen_range(10..90usize);
        let label_count = rng.gen_range(1..4usize);
        let k = rng.gen_range(1..4usize);
        let graph_seed = rng.gen_range(0..1000u64);
        let workload_seed = rng.gen_range(0..1000u64);

        let label_names: Vec<String> = (0..label_count).map(|i| format!("l{i}")).collect();
        let label_refs: Vec<&str> = label_names.iter().map(String::as_str).collect();
        let graph = erdos_renyi(nodes, edges, &label_refs, graph_seed);
        let db = PathDb::build(graph.clone(), PathDbConfig::with_k(k));

        let mut generator = WorkloadGenerator::new(
            &graph,
            WorkloadConfig {
                max_chain_len: 4,
                max_recursion: 3,
                seed: workload_seed,
                ..Default::default()
            },
        );
        for query in generator.generate_mixed(8) {
            let reference = db.query_automaton(&query.text).unwrap();
            let datalog = db.query_datalog(&query.text).unwrap();
            // The Datalog and automaton baselines handle unbounded recursion
            // exactly, whereas the index pipeline truncates at star_bound;
            // generated queries only use bounded recursion, so all must
            // agree.
            assert_eq!(
                datalog, reference,
                "case {case}: datalog vs automaton on {}",
                query.text
            );
            for strategy in Strategy::all() {
                let result = db
                    .run(&query.text, QueryOptions::with_strategy(strategy))
                    .unwrap();
                assert_eq!(
                    result.pairs(),
                    &reference[..],
                    "case {case}: strategy {strategy} on {} (k={k})",
                    query.text
                );
            }
        }
    }
}

#[test]
fn backends_agree_on_random_graphs_and_queries() {
    for case in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0xBACD + case);
        let nodes = rng.gen_range(8..24usize);
        let edges = rng.gen_range(15..70usize);
        let k = rng.gen_range(1..3usize);
        let graph = erdos_renyi(nodes, edges, &["a", "b", "c"], rng.gen_range(0..500u64));

        let memory = PathDb::build(
            graph.clone(),
            PathDbConfig::with_k(k).with_backend(BackendChoice::Memory),
        );
        let paged = PathDb::build(
            graph.clone(),
            PathDbConfig::with_k(k).with_backend(BackendChoice::PagedInMemory { pool_frames: 8 }),
        );
        let compressed = PathDb::build(
            graph.clone(),
            PathDbConfig::with_k(k).with_backend(BackendChoice::Compressed),
        );

        let mut generator = WorkloadGenerator::new(
            &graph,
            WorkloadConfig {
                max_chain_len: 4,
                max_recursion: 2,
                seed: rng.gen_range(0..500u64),
                ..Default::default()
            },
        );
        for query in generator.generate_mixed(6) {
            for strategy in Strategy::all() {
                let reference = memory
                    .run(&query.text, QueryOptions::with_strategy(strategy))
                    .unwrap();
                for db in [&paged, &compressed] {
                    let result = db
                        .run(&query.text, QueryOptions::with_strategy(strategy))
                        .unwrap();
                    assert_eq!(
                        result.pairs(),
                        reference.pairs(),
                        "case {case}: backend {} disagrees with memory on {} under {strategy}",
                        db.backend_name(),
                        query.text
                    );
                }
            }
        }
    }
}

#[test]
fn index_scans_match_reference_on_random_graphs() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x15CA + case);
        let nodes = rng.gen_range(4..20usize);
        let edges = rng.gen_range(5..60usize);
        let seed = rng.gen_range(0..1000u64);
        let k = rng.gen_range(1..4usize);
        let graph = erdos_renyi(nodes, edges, &["a", "b"], seed);
        let db = PathDb::build(graph.clone(), PathDbConfig::with_k(k));
        for (path, count) in db.index().per_path_counts() {
            let expected = pathix::index::naive_path_eval(&graph, path);
            let scanned: Vec<_> = db.index().collect_path(path).unwrap();
            assert_eq!(scanned, expected, "case {case}");
            assert_eq!(*count as usize, expected.len(), "case {case}");
        }
    }
}
