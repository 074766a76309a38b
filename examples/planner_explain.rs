//! The "life of a regular path query" walk-through of the paper's
//! demonstration (Section 6): parsing, rewriting, planning under each
//! strategy, and the index/histogram state that drives the choices.
//!
//! Run with:
//!
//! ```text
//! cargo run --example planner_explain
//! ```

use pathix::datagen::paper_example_graph;
use pathix::rpq::{parse, to_disjuncts, RewriteOptions};
use pathix::{PathDb, PathDbConfig, QueryOptions, Strategy};

fn main() {
    let graph = paper_example_graph();
    let query = "knows/(knows/worksFor){2,4}/worksFor";
    println!("query: {query}\n");

    // Step 0: parsing.
    let parsed = parse(query).expect("query parses");
    println!(
        "parsed AST has {} nodes, recursion: {}\n",
        parsed.size(),
        parsed.has_recursion()
    );

    // Steps 1 & 2 of the paper: expand recursion, pull unions up.
    let bound = parsed.bind(&graph).expect("labels resolve");
    let disjuncts = to_disjuncts(&bound, RewriteOptions::default()).expect("expansion fits");
    println!(
        "rewriting produces {} label-path disjuncts:",
        disjuncts.len()
    );
    for d in &disjuncts {
        println!("  {}", pathix::rpq::ast::format_label_path(d, &graph));
    }
    println!();

    // Step 3: physical planning, for k = 2 and k = 3, under each strategy.
    for k in [2, 3] {
        let db = PathDb::build(graph.clone(), PathDbConfig::with_k(k));
        let stats = db.stats();
        println!("================ k = {k} ================");
        println!(
            "index: {} entries, {} label paths",
            stats.index.entries, stats.index.distinct_paths
        );
        println!(
            "histogram: {} paths in {} equi-depth buckets\n",
            stats.histogram_paths, stats.histogram_buckets
        );
        for strategy in Strategy::all() {
            println!("---- {strategy}");
            print!("{}", db.explain(query, strategy).unwrap());
            let result = db
                .run(query, QueryOptions::with_strategy(strategy))
                .unwrap();
            println!(
                "=> {} answers in {:?} ({} joins, {} merge)\n",
                result.len(),
                result.stats.elapsed,
                result.stats.joins,
                result.stats.merge_joins
            );
        }
    }
}
