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
use pathix::{Graph, GraphUpdate, NodeId, PathDb, PathIndexBackend, QueryOptions, SignedLabel};

/// 65 nodes, ≈ 500 edges, three labels: small enough for every backend in a
/// second, large enough that the paged index spans many more pages than the
/// 32-frame pool and the compressed blocks span several segments.
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

/// The indexed paths bound probes and cold scans walk: every length-2 path
/// over the three forward labels, in label order.
fn forward_paths(graph: &Graph) -> Vec<[SignedLabel; 2]> {
    let labels: Vec<_> = graph.labels().map(SignedLabel::forward).collect();
    labels
        .iter()
        .flat_map(|&a| labels.iter().map(move |&b| [a, b]))
        .collect()
}

/// Chunks the memory backend and segments the compressed backend skipped
/// while answering [`probe_every_path`].
const CHUNKS_SKIPPED: u64 = 135;
const BLOCKS_SKIPPED: u64 = 60;

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
const RUN_BLOCKS_SKIPPED: u64 = 45;

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
            let before = db.stats().storage;
            lookups(db);
            let after = db.stats().storage;
            (
                after.chunks_skipped - before.chunks_skipped,
                after.blocks_skipped - before.blocks_skipped,
            )
        };
        let expected = |chunks, blocks| match *name {
            "memory" => (chunks, 0),
            "compressed" => (0, blocks),
            _ => (0, 0),
        };
        assert_eq!(
            skipped_by(probe_every_path),
            expected(CHUNKS_SKIPPED, BLOCKS_SKIPPED),
            "{name}"
        );
        assert_eq!(
            skipped_by(look_up_every_path),
            expected(RUN_CHUNKS_SKIPPED, RUN_BLOCKS_SKIPPED),
            "{name}: through PathDb::run"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Pool misses and read-ahead pages of [`scan_every_path`] followed by A2 and
/// A3 (whose walks probe a leaf path, then scan it once probes cost more) on
/// the paged in-memory backend with a 32-frame pool: which leaves a scan
/// visits, in what order, and which read-ahead it issues.
const SCAN_MISSES: u64 = 22;
const SCAN_READ_AHEAD_PAGES: u64 = 187;
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
                    after.read_ahead_pages - before.read_ahead_pages
                ),
                (SCAN_MISSES, SCAN_READ_AHEAD_PAGES),
                "{name}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// `(compilations, plans)` after each step of a repeated-text sequence.
const PLAN_CACHE: [(u64, u64); 5] = [(1, 1), (1, 1), (2, 2), (2, 3), (2, 4)];

#[test]
fn repeated_query_text_compiles_and_plans_once_per_epoch() {
    let (dbs, dir) = common::on_every_backend("cost-plans", &graph(), 32);
    let queries = advogato_queries();
    let (a1, a4) = (&queries[0].text, &queries[3].text);
    for (name, db) in &dbs {
        let mut observed = Vec::new();
        let mut step = |db: &PathDb| {
            let stats = db.plan_cache_stats();
            observed.push((stats.compilations, stats.plans));
        };
        // First sight of a text: one compilation, one plan.
        db.query(a1).unwrap();
        step(db);
        // The same text again, bound differently: neither.
        db.query(a1).unwrap();
        db.run(a1, QueryOptions::new().source(HUB)).unwrap();
        step(db);
        // A second text.
        db.query(a4).unwrap();
        step(db);
        // A new epoch replans on next use, but never recompiles.
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
