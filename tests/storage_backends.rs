//! Cross-crate equivalence of the three index representations: the in-memory
//! chunk-run index (`pathix-index`), the paged on-disk index and the compressed
//! per-path blocks (`pathix-pagestore`) must expose identical contents — and,
//! through the `PathIndexBackend` trait, the full `PathDb` query pipeline
//! must return identical `QueryResult`s on every backend under every
//! planning strategy.

use pathix::datagen::{
    advogato_like, barabasi_albert, AdvogatoConfig, WorkloadConfig, WorkloadGenerator,
};
use pathix::index::SharedKPathIndex;
use pathix::pagestore::{BufferPool, CompressedPathStore, DiskManager, PagedBTree, PagedPathIndex};
use pathix::{BackendChoice, PathDb, PathDbConfig, PathIndexBackend, QueryOptions, Strategy};

#[test]
fn paged_and_compressed_indexes_match_the_memory_index() {
    let graph = barabasi_albert(300, 3, &["a", "b", "c"], 42);
    for k in 1..=2usize {
        let memory = SharedKPathIndex::build(&graph, k);
        let paged = PagedPathIndex::build_in_memory(&graph, k, 32).unwrap();
        let compressed = CompressedPathStore::build(&graph, k);

        assert_eq!(paged.len(), memory.stats().entries, "k = {k}");
        assert_eq!(compressed.path_count(), memory.per_path_counts().len());

        for (path, count) in memory.per_path_counts() {
            let expected: Vec<_> = memory.scan_path(path).collect();
            assert_eq!(
                paged.scan_path(path).unwrap(),
                expected,
                "paged, path {path:?}"
            );
            assert_eq!(
                compressed.pairs(path),
                expected,
                "compressed, path {path:?}"
            );
            assert_eq!(compressed.path_cardinality(path), Some(*count));
        }
    }
}

#[test]
fn paged_index_survives_a_round_trip_through_a_file() {
    let graph = advogato_like(AdvogatoConfig::scaled(0.005));
    let dir = std::env::temp_dir().join(format!("pathix-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.pages");

    let entries_before = {
        let index = PagedPathIndex::build_on_disk(&graph, 2, &path, 16).unwrap();
        index.len()
    };
    // Re-open the raw page file as a plain paged B+tree and check the entry
    // count survived (the index itself is a thin wrapper over the tree).
    let pool = BufferPool::new(DiskManager::open(&path).unwrap(), 16);
    let tree = PagedBTree::open(pool).unwrap();
    assert_eq!(tree.len(), entries_before);
    tree.check_invariants().unwrap();
    std::fs::remove_file(&path).ok();
}

/// The strategy × backend matrix: every query of a generated workload must
/// return the identical `QueryResult` pair set on the `Memory`,
/// `PagedInMemory` and `OnDisk` backends under all four planning strategies.
#[test]
fn workload_answers_are_identical_across_all_backends_and_strategies() {
    let graph = barabasi_albert(250, 3, &["a", "b", "c"], 7);
    let dir = std::env::temp_dir().join(format!("pathix-matrix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    for k in 1..=2usize {
        let backends: Vec<(BackendChoice, &str)> = vec![
            (BackendChoice::Memory, "memory"),
            (
                BackendChoice::PagedInMemory { pool_frames: 16 },
                "paged-in-memory",
            ),
            (
                BackendChoice::OnDisk {
                    path: dir.join(format!("matrix-k{k}.pages")),
                    pool_frames: 16,
                },
                "on-disk",
            ),
            (BackendChoice::Compressed, "compressed"),
        ];
        let dbs: Vec<(PathDb, &str)> = backends
            .into_iter()
            .map(|(choice, name)| {
                let config = PathDbConfig::with_k(k).with_backend(choice);
                (PathDb::try_build(graph.clone(), config).unwrap(), name)
            })
            .collect();

        let mut generator = WorkloadGenerator::new(
            &graph,
            WorkloadConfig {
                max_chain_len: 4,
                max_recursion: 2,
                seed: 0xBEEF + k as u64,
                ..Default::default()
            },
        );
        for query in generator.generate_mixed(10) {
            for strategy in Strategy::all() {
                let reference = dbs[0]
                    .0
                    .run(&query.text, QueryOptions::with_strategy(strategy))
                    .unwrap();
                for (db, name) in &dbs[1..] {
                    let result = db
                        .run(&query.text, QueryOptions::with_strategy(strategy))
                        .unwrap();
                    assert_eq!(
                        result.pairs(),
                        reference.pairs(),
                        "backend {name} (k={k}) disagrees with memory on {:?} under {strategy}",
                        query.text
                    );
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn compression_saves_space_on_a_realistic_graph() {
    let graph = advogato_like(AdvogatoConfig::scaled(0.01));
    let store = CompressedPathStore::build(&graph, 2);
    let stats = store.stats();
    assert!(
        stats.pairs > 1_000,
        "the scaled graph should produce a real index"
    );
    assert!(
        stats.ratio() > 2.0,
        "delta/varint blocks should be at least 2x smaller than per-entry keys, got {:.2}",
        stats.ratio()
    );
}
