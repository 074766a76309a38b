//! The program's own cost counters, pinned (ROADMAP "Counts are the gate").
//!
//! Every number below is a count the system reports about itself through the
//! public `ExecutionStats` / `UpdateStats` / `DbStats` / `plan_cache_stats`
//! surface — pairs pulled, delta entries, chunks rebuilt or skipped, pool
//! misses, read-ahead pages, compilations. They are exact: the same on every
//! run and every machine, because graph, queries, probes and update script
//! are all fixed. A change that moves one of them shows up as a one-line diff
//! to a constant here, and a constant changes only together with a CHANGES.md
//! line saying why. Counts and ratios only, never time.

mod common;

use pathix::datagen::{advogato_like, advogato_queries, AdvogatoConfig};
use pathix::index::PairBatch;
use pathix::{
    BackendChoice, Graph, GraphUpdate, NodeId, PathDb, PathDbConfig, PathIndexBackend,
    PreparedQuery, QueryOptions, SignedLabel,
};
use std::path::{Path, PathBuf};

/// 65 nodes, ≈ 500 edges, three labels: small enough for every backend in a
/// second, large enough that the paged index spans many more pages than the
/// 32-frame pool and the chunk runs of the memory and compressed backends
/// span several chunks.
fn graph() -> Graph {
    advogato_like(AdvogatoConfig::scaled(0.01))
}

/// Rank 3 of the generator's power law: a hub, so bound lookups return a few
/// pairs rather than none.
const HUB: NodeId = NodeId(3);

/// A node A3 reaches from [`HUB`], and one it does not.
const REACHED: NodeId = NodeId(0);
const UNREACHED: NodeId = NodeId(64);

/// `(pairs_pulled, result_pairs)` of the card A1–A8 unbound, then A2 bound
/// to [`HUB`] as source, then `exists` on A3, then A2 bound to [`HUB`] as
/// target, then `exists` on A3 from [`HUB`] to [`REACHED`] and to
/// [`UNREACHED`]. A drained unbound answer walks each of its sources in order and
/// a bound lookup walks from the bound node: either pulls what it returns,
/// never a duplicate and never a pair outside the binding.
const LOOKUPS: [(usize, usize); 13] = [
    (438, 438),
    (1250, 1250),
    (2772, 2772),
    (2244, 2244),
    (1940, 1940),
    (1689, 1689),
    (3407, 3407),
    (2816, 2816),
    (29, 29),
    (1, 1),
    (50, 50),
    (1, 1),
    (0, 0),
];

#[test]
fn lookups_pull_the_same_pairs_on_every_backend() {
    let (dbs, dir) = common::on_every_backend("cost-lookups", &graph(), 32);
    let queries = advogato_queries();
    let (a2, a3) = (&queries[1].text, &queries[2].text);
    for (name, db) in &dbs {
        let run = |text: &str, options: QueryOptions| {
            let stats = db.run(text, options).unwrap().stats;
            (stats.pairs_pulled, stats.result_pairs)
        };
        let mut observed: Vec<_> = queries
            .iter()
            .map(|query| run(&query.text, QueryOptions::new()))
            .collect();
        for ((pulled, answers), query) in observed.iter().zip(&queries) {
            assert_eq!(pulled, answers, "{name}: {} pulled a duplicate", query.name);
        }
        observed.extend([
            run(a2, QueryOptions::new().source(HUB)),
            run(a3, QueryOptions::new().exists()),
            run(a2, QueryOptions::new().target(HUB)),
            run(a3, QueryOptions::new().source(HUB).target(REACHED).exists()),
            run(
                a3,
                QueryOptions::new().source(HUB).target(UNREACHED).exists(),
            ),
        ]);
        assert_eq!(observed, LOOKUPS, "{name}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Walk levels held as bitmaps (`ExecutionStats::bitmap_levels`) by the card
/// A1–A8, each run unbound and drained. On [`graph`]'s 65 nodes a level is a
/// bitmap from two ids on. A1 is one forward scan at k = 2 and opens as the
/// operator tree, with no walk: none. A drain through a cursor
/// (`count_only`) counts the same; bound lookups keep their levels as lists
/// and count none.
const BITMAP_LEVELS: [usize; 8] = [0, 107, 163, 224, 279, 264, 402, 190];

#[test]
fn dense_walk_levels_are_bitmaps_and_bound_lookups_keep_lists() {
    let (dbs, dir) = common::on_every_backend("cost-bitmaps", &graph(), 32);
    let queries = advogato_queries();
    let (a2, a3) = (&queries[1].text, &queries[2].text);
    for (name, db) in &dbs {
        let levels =
            |text: &str, options: QueryOptions| db.run(text, options).unwrap().stats.bitmap_levels;
        let observed: Vec<_> = queries
            .iter()
            .map(|query| levels(&query.text, QueryOptions::new()))
            .collect();
        assert_eq!(observed, BITMAP_LEVELS, "{name}");
        for (query, expected) in queries.iter().zip(BITMAP_LEVELS) {
            let counted = levels(&query.text, QueryOptions::new().count_only());
            assert_eq!(counted, expected, "{name}: {} through a cursor", query.name);
        }
        for options in [
            QueryOptions::new().source(HUB),
            QueryOptions::new().target(HUB),
            QueryOptions::new().source(HUB).target(REACHED),
        ] {
            assert_eq!(levels(a2, options.clone()), 0, "{name}: A2 {options:?}");
            assert_eq!(levels(a3, options.clone()), 0, "{name}: A3 {options:?}");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// `(delta_entries, chunks_rebuilt)` of the three batches of [`script`].
const UPDATES: [(u64, usize); 3] = [(274, 4), (232, 4), (305, 4)];

/// New vocabulary plus hub edges, then deletions next to a duplicate insert,
/// then a batch that undoes part of the first.
fn script() -> [Vec<GraphUpdate>; 3] {
    [
        vec![
            GraphUpdate::insert_named("u3", "master", "u60"),
            GraphUpdate::insert_named("u60", "journeyer", "newcomer"),
            GraphUpdate::insert_named("newcomer", "vouches", "u0"),
        ],
        vec![
            GraphUpdate::delete_named("u3", "master", "u60"),
            GraphUpdate::insert_named("u60", "journeyer", "newcomer"),
            GraphUpdate::insert_named("u1", "apprentice", "u64"),
            GraphUpdate::delete_named("nobody", "master", "u0"),
        ],
        vec![
            GraphUpdate::delete_named("newcomer", "vouches", "u0"),
            GraphUpdate::insert_named("u0", "master", "u64"),
        ],
    ]
}

#[test]
fn a_fixed_update_script_costs_the_same_deltas_on_every_backend() {
    let (dbs, dir) = common::on_every_backend("cost-updates", &graph(), 32);
    for (name, db) in &dbs {
        let observed: Vec<_> = script()
            .iter()
            .map(|batch| {
                let stats = db.apply(batch).unwrap();
                (stats.delta_entries, db.stats().graph_publish.chunks_rebuilt)
            })
            .collect();
        assert_eq!(observed, UPDATES, "{name}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// `(pool write-backs, copy-on-write page copies)` of the three batches of
/// [`script`] on the paged backends, in-memory and on-disk alike: a batch's
/// key transitions reach the tree in key order, one net change per key, so
/// the pages it dirties and copies are a function of its keys.
const PAGE_WRITES: [(u64, u64); 3] = [(42, 41), (62, 57), (33, 31)];

#[test]
fn a_fixed_update_script_writes_the_same_pages_on_the_paged_backends() {
    let (dbs, dir) = common::on_every_backend("cost-page-writes", &graph(), 32);
    for (name, db) in dbs
        .iter()
        .filter(|(name, _)| *name == "paged" || *name == "on-disk")
    {
        let observed: Vec<_> = script()
            .iter()
            .map(|batch| {
                let before = db.stats().storage;
                db.apply(batch).unwrap();
                let after = db.stats().storage;
                let (pool, cow) = (after.pool.unwrap(), after.cow.unwrap());
                (
                    pool.write_backs - before.pool.unwrap().write_backs,
                    cow.page_copies - before.cow.unwrap().page_copies,
                )
            })
            .collect();
        assert_eq!(observed, PAGE_WRITES, "{name}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// [`graph`] at k = 2 on the on-disk backend alone, in a scratch directory of
/// its own (remove it when done); the page file is `index.pages` there.
fn on_disk(tag: &str) -> (PathDb, PathBuf) {
    let dir = std::env::temp_dir().join(format!("pathix-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    (
        PathDb::try_build(graph(), on_disk_config(&dir)).unwrap(),
        dir,
    )
}

/// The configuration of the [`on_disk`] database in `dir`.
fn on_disk_config(dir: &Path) -> PathDbConfig {
    let choice = BackendChoice::OnDisk {
        path: dir.join("index.pages"),
        pool_frames: 32,
    };
    PathDbConfig::with_k(2).with_backend(choice)
}

/// Pool misses of `PathDb::open` on the [`on_disk`] database after
/// [`script`], its writer abandoned without a close: the meta page (which
/// holds the per-path counts) and the internal pages the open walks to
/// derive the free pages. No leaf and no free page is read, no scan reads
/// ahead, and no page is written back.
const OPEN_MISSES: u64 = 2;

#[test]
fn open_reads_the_roots_not_the_leaves() {
    let (db, dir) = on_disk("cost-open");
    for batch in script() {
        db.apply(&batch).unwrap();
    }
    std::mem::forget(db);
    let db = PathDb::open(on_disk_config(&dir)).unwrap();
    let pool = db.stats().storage.pool.unwrap();
    assert_eq!(
        (pool.misses, pool.read_ahead_pages, pool.write_backs),
        (OPEN_MISSES, 0, 0)
    );
    db.close().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
}

/// The bytes of every write-ahead-log segment of the on-disk database in
/// `dir` (the `index.pages.wal/` directory), in segment order.
fn wal_bytes(dir: &Path) -> Vec<u8> {
    let mut segments: Vec<_> = std::fs::read_dir(dir.join("index.pages.wal"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    segments.sort();
    segments
        .iter()
        .flat_map(|segment| std::fs::read(segment).unwrap())
        .collect()
}

/// Bytes the on-disk backend's write-ahead log holds after each batch of
/// [`script`]: one framed commit record per batch (interned names and
/// effective ops; recovery rederives the key transitions). The default
/// checkpoint cadence of 256 batches truncates nothing here.
const WAL_BYTES: [usize; 3] = [85, 136, 187];

#[test]
fn a_fixed_update_script_logs_the_same_wal_bytes() {
    let (db, dir) = on_disk("cost-wal");
    let observed: Vec<_> = script()
        .iter()
        .map(|batch| {
            db.apply(batch).unwrap();
            wal_bytes(&dir).len()
        })
        .collect();
    assert_eq!(observed, WAL_BYTES);
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
}

/// The rederivation rule emits each update's transitions in key order, so
/// two databases given the same batches write the same log byte for byte.
#[test]
fn two_databases_given_the_same_batches_log_identical_bytes() {
    let (first, first_dir) = on_disk("cost-wal-first");
    let (second, second_dir) = on_disk("cost-wal-second");
    for (i, batch) in script().iter().enumerate() {
        first.apply(batch).unwrap();
        second.apply(batch).unwrap();
        assert!(
            wal_bytes(&first_dir) == wal_bytes(&second_dir),
            "the logs diverge after batch {i}"
        );
    }
    drop((first, second));
    let _ = std::fs::remove_dir_all(first_dir);
    let _ = std::fs::remove_dir_all(second_dir);
}

/// `(entries, approx_bytes)` of the memory and the compressed backend as
/// built and after each batch of [`script`]. Memory counts 8 bytes per entry;
/// compressed counts each delta/varint chunk's bytes plus its 16-byte fence,
/// so an encoding change shows up here as a one-line diff.
const SIZES: [(&str, [(u64, u64); 4]); 2] = [
    (
        "memory",
        [
            (23627, 189016),
            (23901, 191208),
            (23931, 191448),
            (23928, 191424),
        ],
    ),
    (
        "compressed",
        [
            (23627, 49019),
            (23901, 49855),
            (23931, 49880),
            (23928, 49587),
        ],
    ),
];

#[test]
fn index_sizes_are_pinned_as_built_and_after_each_batch() {
    let (dbs, dir) = common::on_every_backend("cost-sizes", &graph(), 32);
    for (name, expected) in SIZES {
        let db = &dbs.iter().find(|(n, _)| *n == name).unwrap().1;
        let size = |db: &PathDb| {
            let index = db.stats().index;
            (index.entries, index.approx_bytes)
        };
        let mut observed = vec![size(db)];
        for batch in script() {
            db.apply(&batch).unwrap();
            observed.push(size(db));
        }
        assert_eq!(observed, expected, "{name}");
    }
    let memory = SIZES[0].1;
    assert!(memory.iter().all(|&(entries, bytes)| bytes == 8 * entries));
    let _ = std::fs::remove_dir_all(dir);
}

/// The indexed paths bound probes and cold scans walk: every length-2 path
/// over the three forward labels, in label order.
fn forward_paths(graph: &Graph) -> Vec<[SignedLabel; 2]> {
    let labels: Vec<_> = graph.labels().map(SignedLabel::forward).collect();
    labels
        .iter()
        .flat_map(|&a| labels.iter().map(move |&b| [a, b]))
        .collect()
}

/// Chunks the memory and the compressed backend (the same chunks, the same
/// blooms) skipped while answering [`probe_every_path`].
const CHUNKS_SKIPPED: u64 = 135;

/// Eight sources spread over the id range: hubs, the tail, and an id past the
/// last node.
const SOURCES: [u32; 8] = [0, 1, 3, 9, 20, 41, 64, 500];

/// `scan_path_from` on every forward length-2 path from each of [`SOURCES`].
fn probe_every_path(db: &PathDb) {
    let index = db.index();
    for path in forward_paths(&db.graph()) {
        for source in SOURCES {
            index.scan_path_from(&path, NodeId(source)).unwrap();
        }
    }
}

/// The same skips when the same lookups arrive as source-bound queries
/// through `PathDb::run` — fences and blooms are on the query path. Fewer
/// than the raw probes: the id past the last node never reaches the index,
/// and a relation small against the frontier is scanned, not probed.
const RUN_CHUNKS_SKIPPED: u64 = 111;

/// [`probe_every_path`] as queries: `a/b` bound to each of [`SOURCES`].
fn look_up_every_path(db: &PathDb) {
    let graph = db.graph();
    for path in forward_paths(&graph) {
        let [a, b] = path.map(|l| graph.label_name(l.label).unwrap().to_owned());
        for source in SOURCES {
            let options = QueryOptions::new().source(NodeId(source));
            db.run(&format!("{a}/{b}"), options).unwrap();
        }
    }
}

#[test]
fn bound_probes_skip_a_fixed_number_of_chunks_and_segments() {
    let (dbs, dir) = common::on_every_backend("cost-probes", &graph(), 32);
    for (name, db) in &dbs {
        let skipped_by = |lookups: fn(&PathDb)| {
            let before = db.stats().storage.chunks_skipped;
            lookups(db);
            db.stats().storage.chunks_skipped - before
        };
        let expected = |chunks| match *name {
            "memory" | "compressed" => chunks,
            _ => 0,
        };
        assert_eq!(
            skipped_by(probe_every_path),
            expected(CHUNKS_SKIPPED),
            "{name}"
        );
        assert_eq!(
            skipped_by(look_up_every_path),
            expected(RUN_CHUNKS_SKIPPED),
            "{name}: through PathDb::run"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Pool misses, read-ahead pages and evictions of [`scan_every_path`]
/// followed by A2 and A3 (whose walks probe a leaf path, then scan it once
/// probes cost more) on the paged in-memory backend with a 32-frame pool:
/// which leaves a scan visits, in what order, which read-ahead it issues and
/// which frames that pushes out.
const SCAN_MISSES: u64 = 17;
const SCAN_READ_AHEAD_PAGES: u64 = 146;
const SCAN_EVICTIONS: u64 = 163;
/// Pairs those scans deliver (the sum of the nine path cardinalities).
const SCAN_PAIRS: usize = 11194;

/// Drains a batched scan of every forward length-2 path, twice over (the
/// second round finds whatever the first left in the pool), at the default
/// batch capacity and at a capacity that makes leaves straddle batches.
fn scan_every_path(db: &PathDb) -> usize {
    let index = db.index();
    let mut pairs = 0;
    for capacity in [1024, 7] {
        let mut batch = PairBatch::with_capacity(capacity);
        for path in forward_paths(&db.graph()) {
            let mut scan = index.scan_path_batches(&path).unwrap();
            loop {
                let n = scan.next_batch(&mut batch).unwrap();
                if n == 0 {
                    break;
                }
                pairs += n;
            }
        }
    }
    pairs
}

#[test]
fn cold_path_scans_touch_a_fixed_set_of_pages() {
    let (dbs, dir) = common::on_every_backend("cost-scans", &graph(), 32);
    for (name, db) in &dbs {
        let before = db.stats().storage.pool;
        assert_eq!(scan_every_path(db), SCAN_PAIRS, "{name}");
        for query in &advogato_queries()[1..3] {
            db.query(&query.text).unwrap();
        }
        let after = db.stats().storage.pool;
        if *name == "paged" {
            let (before, after) = (before.unwrap(), after.unwrap());
            assert_eq!(
                (
                    after.misses - before.misses,
                    after.read_ahead_pages - before.read_ahead_pages,
                    after.evictions - before.evictions
                ),
                (SCAN_MISSES, SCAN_READ_AHEAD_PAGES, SCAN_EVICTIONS),
                "{name}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// `(compilations, plans)` after each step of a repeated-text sequence run
/// ad hoc: every call compiles and plans once.
const PLAN_CACHE: [(u64, u64); 5] = [(1, 1), (3, 3), (4, 4), (6, 6), (7, 7)];

#[test]
fn repeated_query_text_compiles_and_plans_once_per_epoch() {
    let (dbs, dir) = common::on_every_backend("cost-plans", &graph(), 32);
    let queries = advogato_queries();
    let (a1, a4) = (&queries[0].text, &queries[3].text);
    for (name, db) in &dbs {
        let mut observed = Vec::new();
        let mut step = |db: &PathDb| {
            let stats = db.plan_cache_stats();
            assert_eq!(stats.hits, 0, "an ad-hoc run reuses no plan");
            observed.push((stats.compilations, stats.plans));
        };
        // First sight of a text.
        db.query(a1).unwrap();
        step(db);
        // The same text again, bound differently.
        db.query(a1).unwrap();
        db.run(a1, QueryOptions::new().source(HUB)).unwrap();
        step(db);
        // A second text.
        db.query(a4).unwrap();
        step(db);
        // A new epoch.
        db.apply(&script()[0]).unwrap();
        db.query(a1).unwrap();
        db.query(a1).unwrap();
        step(db);
        db.query(a4).unwrap();
        step(db);
        assert_eq!(observed, PLAN_CACHE, "{name}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// `(compilations, plans, hits)` after each step of the same sequence run
/// through one prepared handle per text: one compilation per text, one plan
/// per text and epoch, and every other execution served by the held plan.
const PREPARED_PLANS: [(u64, u64, u64); 5] =
    [(1, 1, 0), (1, 1, 2), (2, 2, 2), (2, 3, 3), (2, 4, 3)];

#[test]
fn prepared_text_compiles_once_and_plans_once_per_epoch() {
    let (dbs, dir) = common::on_every_backend("cost-prepared", &graph(), 32);
    let queries = advogato_queries();
    let (a1, a4) = (&queries[0].text, &queries[3].text);
    for (name, db) in &dbs {
        let mut observed = Vec::new();
        let mut step = |db: &PathDb| {
            let stats = db.plan_cache_stats();
            observed.push((stats.compilations, stats.plans, stats.hits));
        };
        let run = |prepared: &PreparedQuery, options| prepared.run(db, options).unwrap();
        // First sight of a text: one compilation, one plan.
        let p1 = db.prepare(a1).unwrap();
        run(&p1, QueryOptions::new());
        step(db);
        // The same text again, bound differently: neither.
        run(&p1, QueryOptions::new());
        run(&p1, QueryOptions::new().source(HUB));
        step(db);
        // A second text.
        let p4 = db.prepare(a4).unwrap();
        run(&p4, QueryOptions::new());
        step(db);
        // A new epoch replans on next use, but never recompiles.
        db.apply(&script()[0]).unwrap();
        run(&p1, QueryOptions::new());
        run(&p1, QueryOptions::new());
        step(db);
        run(&p4, QueryOptions::new());
        step(db);
        assert_eq!(observed, PREPARED_PLANS, "{name}");
    }
    let _ = std::fs::remove_dir_all(dir);
}
