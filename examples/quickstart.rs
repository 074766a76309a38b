//! Quickstart: build a small graph, index it, prepare queries once and run
//! them many ways — materialized, streamed, counted.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use pathix::datagen::paper_example_graph;
use pathix::{PathDb, PathDbConfig, QueryOptions, Strategy};

fn main() {
    // 1. A graph. This is the nine-person social graph used as the running
    //    example of the paper (labels: knows, worksFor, supervisor).
    let graph = paper_example_graph();
    println!(
        "graph: {} nodes, {} edges, labels {:?}",
        graph.node_count(),
        graph.edge_count(),
        graph.label_names()
    );

    // 2. Build the database: a k-path index (here k = 2) plus an equi-depth
    //    histogram for cardinality estimation.
    let db = PathDb::build(graph, PathDbConfig::with_k(2));
    let stats = db.stats();
    println!(
        "k-path index ({} backend): k={}, {} entries over {} label paths\n",
        stats.index.backend, stats.index.k, stats.index.entries, stats.index.distinct_paths
    );

    // 3. Prepare queries: parse → bind → rewrite runs once per query text,
    //    then each prepared query executes as often as needed. The default
    //    strategy is minSupport (histogram-guided).
    let queries = [
        // Who does kim indirectly reach through a supervision + employment?
        "supervisor/worksFor-",
        // Friend-of-a-friend who then works for someone.
        "knows/knows/worksFor",
        // The paper's Section 4 example: k (k w){2,4} w.
        "knows/(knows/worksFor){2,4}/worksFor",
        // Bounded recursion over a union (Section 2.2 example).
        "(supervisor|worksFor|worksFor-){4,5}",
    ];
    for query in queries {
        let prepared = db.prepare(query).expect("query should compile");
        let result = prepared
            .run(&db, QueryOptions::new())
            .expect("query should evaluate");
        println!("query  : {query}");
        println!(
            "answer : {} pairs in {:?} ({} joins, {} merge)",
            result.len(),
            result.stats.elapsed,
            result.stats.joins,
            result.stats.merge_joins
        );
        for (a, b) in result.named_pairs(&db).iter().take(6) {
            println!("         ({a}, {b})");
        }
        if result.len() > 6 {
            println!("         … and {} more", result.len() - 6);
        }
        println!();
    }

    // 4. Stream instead of materializing: a cursor pulls one distinct pair
    //    at a time, so a limit abandons the rest of the computation. The
    //    pulled-pairs counter shows how much work the limit saved.
    let prepared = db.prepare("(supervisor|worksFor|worksFor-){4,5}").unwrap();
    let mut cursor = prepared.cursor(&db, QueryOptions::new().limit(3)).unwrap();
    println!("-- first 3 answers, streamed");
    for item in &mut cursor {
        let (a, b) = item.unwrap();
        println!(
            "   ({}, {})",
            db.graph().node_name(a).unwrap_or("?"),
            db.graph().node_name(b).unwrap_or("?")
        );
    }
    let full = prepared.run(&db, QueryOptions::new()).unwrap();
    println!(
        "   cursor pulled {} pairs; the full answer pulls {}\n",
        cursor.stats().pairs_pulled,
        full.stats.pairs_pulled
    );

    // 5. Inspect a plan: EXPLAIN output for one query under two strategies.
    let query = "knows/(knows/worksFor){2,4}/worksFor";
    for strategy in [Strategy::SemiNaive, Strategy::MinSupport] {
        println!("--- {strategy} plan for {query}");
        print!("{}", db.explain(query, strategy).unwrap());
        println!();
    }

    // 6. Cross-check against the baselines the paper compares with.
    let reference = db.query_automaton(query).unwrap();
    let datalog = db.query_datalog(query).unwrap();
    let indexed = db.query(query).unwrap();
    assert_eq!(reference, datalog);
    assert_eq!(reference.as_slice(), indexed.pairs());
    println!(
        "all three evaluation routes agree on {} answer pairs ✔",
        reference.len()
    );

    // 7. The front end's work: one compilation per `prepare` and per ad-hoc
    //    call (`explain`, `query`), one plan per handle and strategy; the
    //    full run in step 4 reused its handle's plan.
    let front_end = db.plan_cache_stats();
    println!(
        "front end: {} compilations, {} plans, {} prepared run(s) served by a held plan",
        front_end.compilations, front_end.plans, front_end.hits
    );
}
