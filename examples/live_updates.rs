//! Live graph updates through the database facade: `PathDb::apply`, epochs,
//! snapshot cursors and prepared-plan invalidation in one walkthrough.
//!
//! The `incremental_updates` example exercises the raw index delta rules;
//! this one shows the serving-side story the query stack builds on top of
//! them: a database that answers queries *while* edges arrive and disappear,
//! with prepared queries that never serve stale plans and cursors that keep
//! a consistent snapshot.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example live_updates
//! ```

use pathix::datagen::paper_example_graph;
use pathix::{GraphUpdate, HistogramRefresh, PathDb, PathDbConfig, QueryOptions, Strategy};
use std::sync::Arc;

fn main() {
    // The paper's running example graph, k = 2, histogram refreshed after
    // every fourth effective update.
    let db = Arc::new(PathDb::build(
        paper_example_graph(),
        PathDbConfig::with_k(2).with_histogram_refresh(HistogramRefresh::EveryUpdates(4)),
    ));
    println!(
        "built: {} nodes, {} edges, epoch {}",
        db.stats().nodes,
        db.stats().edges,
        db.epoch()
    );

    // Compile the worked example once; the handle plans lazily, once per
    // strategy and epoch.
    let supervised = db.prepare("supervisor/worksFor-").unwrap();
    let answer = supervised.run(&db, QueryOptions::new()).unwrap();
    println!(
        "supervisor/worksFor- = {:?}  (plans: {})",
        answer.named_pairs(&db),
        db.plan_cache_stats().plans
    );

    // Resolve some vocabulary once; live updates reuse interned ids.
    let graph = db.graph();
    let kim = graph.node_id("kim").unwrap();
    let liz = graph.node_id("liz").unwrap();
    let tim = graph.node_id("tim").unwrap();
    let joe = graph.node_id("joe").unwrap();
    let supervisor = graph.label_id("supervisor").unwrap();
    drop(graph);

    // 1. Open a cursor, then mutate underneath it: the cursor streams from
    //    the snapshot it opened on (snapshot-at-open), while new queries see
    //    the update immediately.
    let mut cursor = supervised.cursor(&db, QueryOptions::new()).unwrap();
    let stats = db
        .apply(&[GraphUpdate::DeleteEdge {
            src: kim,
            label: supervisor,
            dst: liz,
        }])
        .unwrap();
    println!(
        "\ndeleted supervisor(kim, liz): epoch {} (histogram refreshed: {})",
        stats.epoch, stats.histogram_refreshed
    );
    let streamed: Vec<_> = (&mut cursor).collect::<Result<_, _>>().unwrap();
    println!(
        "cursor opened at epoch {} still streamed {} pair(s) — its snapshot predates the delete",
        cursor.epoch(),
        streamed.len()
    );
    let fresh = supervised.run(&db, QueryOptions::new()).unwrap();
    println!(
        "the same prepared query, re-run now: {} pair(s) — replanned at epoch {} (plans: {})",
        fresh.len(),
        db.epoch(),
        db.plan_cache_stats().plans
    );

    // 2. Clients share the live database through the `Arc`: an update from
    //    one thread is visible to the next query on any other.
    let writer = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            db.apply(&[GraphUpdate::InsertEdge {
                src: tim,
                label: supervisor,
                dst: joe,
            }])
            .unwrap()
        })
    };
    writer.join().unwrap();
    let after_insert = db
        .run(
            "supervisor/worksFor-",
            QueryOptions::with_strategy(Strategy::MinJoin),
        )
        .unwrap();
    println!(
        "\nafter inserting supervisor(tim, joe) from another thread: {:?} under {}",
        after_insert.named_pairs(&db),
        after_insert.strategy
    );

    // 3. The maintained database is indistinguishable from a rebuild over
    //    the final graph — the property the incremental delta rules pin.
    let rebuilt = PathDb::build(db.graph().as_ref().clone(), PathDbConfig::with_k(2));
    for query in ["supervisor/worksFor-", "knows/worksFor", "knows-/knows"] {
        for strategy in Strategy::all() {
            let live = db
                .run(query, QueryOptions::with_strategy(strategy))
                .unwrap();
            let fresh = rebuilt
                .run(query, QueryOptions::with_strategy(strategy))
                .unwrap();
            assert_eq!(live.pairs(), fresh.pairs(), "{strategy} on {query}");
        }
    }
    println!(
        "\nlive database at epoch {} agrees with a from-scratch rebuild on every strategy ✔",
        db.epoch()
    );
    println!(
        "cumulative operator-tree work: {} pairs pulled (cursors flush on drop)",
        db.pairs_pulled_total()
    );
}
