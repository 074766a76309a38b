//! The life of a regular path query — the walkthrough of the paper's
//! demonstration (Section 6): from submission through parsing, rewriting and
//! optimization to execution, under all four planning strategies, using the
//! compile-once / execute-many API (prepare → options → run/cursor).
//!
//! Run with:
//!
//! ```text
//! cargo run --example query_lifecycle
//! cargo run --example query_lifecycle -- "knows/(knows/worksFor){2,4}/worksFor" 3
//! ```
//!
//! The first argument is the RPQ (paper syntax: `/` composition, `|` union,
//! `label-` inverse, `{i,j}` bounded recursion, `*` `+` `?` sugar), the
//! second the index locality parameter k.

use pathix::datagen::paper_example_graph;
use pathix::rpq::parse;
use pathix::{PathDb, PathDbConfig, QueryOptions, Strategy};

fn main() {
    let query = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "knows/(knows/worksFor){2,4}/worksFor".to_owned());
    let k: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);

    let graph = paper_example_graph();
    let db = PathDb::build(graph, PathDbConfig::with_k(k));

    println!("== 1. submission\n   query: {query}\n   index: k = {k}\n");

    // Parsing (standalone, to show the AST before binding).
    let parsed = match parse(&query) {
        Ok(expr) => expr,
        Err(e) => {
            eprintln!("parse error: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "== 2. parsing\n   AST size: {} nodes, recursion: {}\n",
        parsed.size(),
        parsed.has_recursion()
    );

    // Preparation: parse → bind → rewrite happen once, here. Everything
    // after this point reuses the compiled artifacts.
    let prepared = match db.prepare(&query) {
        Ok(prepared) => prepared,
        Err(e) => {
            eprintln!("compile error: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "== 3. preparation (bind + rewrite)\n   {} label-path disjuncts after recursion \
         expansion and union pull-up:",
        prepared.disjuncts().len()
    );
    for d in prepared.disjuncts() {
        println!(
            "     {}",
            pathix::rpq::ast::format_label_path(d, &db.graph())
        );
    }
    println!();

    // Optimization: plans are planned lazily, per strategy, on first use.
    // `explain` is ad hoc (it compiles and plans its own copy), so the
    // prepared handle stays unplanned until the executions below.
    println!("== 4. optimization (physical plans per strategy)\n");
    for strategy in Strategy::all() {
        println!(
            "-- {}\n{}",
            strategy.name(),
            db.explain(&query, strategy).unwrap()
        );
        assert!(!prepared.is_planned(strategy));
    }

    // Execution: the same prepared query under each strategy.
    println!("== 5. execution\n");
    println!(
        "{:<12} {:>10} {:>8} {:>12} {:>12}",
        "strategy", "pairs", "joins", "merge joins", "time"
    );
    let mut reference: Option<usize> = None;
    for strategy in Strategy::all() {
        let result = prepared
            .run(&db, QueryOptions::with_strategy(strategy))
            .unwrap();
        if let Some(expected) = reference {
            assert_eq!(result.len(), expected, "strategies must agree");
        } else {
            reference = Some(result.len());
        }
        println!(
            "{:<12} {:>10} {:>8} {:>12} {:>12.3?}",
            strategy.name(),
            result.len(),
            result.stats.joins,
            result.stats.merge_joins,
            result.stats.elapsed
        );
    }

    // The compile-once guarantee, in numbers: the handle compiled once and
    // planned each strategy once; the four explains compiled and planned
    // their own copies.
    let front_end = db.plan_cache_stats();
    println!(
        "\n   front end: {} compilation(s), {} plan(s), {} run(s) served by a held plan",
        front_end.compilations, front_end.plans, front_end.hits
    );
    assert_eq!((front_end.compilations, front_end.plans), (1 + 4, 4 + 4));

    // The answer itself, streamed through a cursor with node names.
    let cursor = prepared.cursor(&db, QueryOptions::new()).unwrap();
    let pairs = cursor.collect_sorted().unwrap();
    println!("\n== 6. answer ({} pairs)\n", pairs.len());
    for (src, dst) in pairs {
        println!(
            "   {} -> {}",
            db.graph().node_name(src).unwrap_or("?"),
            db.graph().node_name(dst).unwrap_or("?")
        );
    }
}
