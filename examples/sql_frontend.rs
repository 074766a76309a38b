//! The relational deployment of the paper's prototype: RPQs translated to
//! SQL over a `path_index(path, src, dst)` table and executed by the small
//! relational engine in `pathix-sql`.
//!
//! Run with:
//!
//! ```text
//! cargo run --example sql_frontend
//! ```

use pathix::datagen::paper_example_graph;
use pathix::sql::SqlPathDb;
use pathix::{PathDb, PathDbConfig, QueryOptions, Strategy};

fn main() {
    let graph = paper_example_graph();
    let k = 2;

    // The native pipeline (B+tree index + merge/hash-join plans) …
    let native = PathDb::build(graph.clone(), PathDbConfig::with_k(k));
    // … and its relational mirror: the same index contents loaded into the
    // `path_index` table, plus `nodes`, `edge` and `path_histogram`.
    let relational = SqlPathDb::from_path_db(&native).unwrap();

    println!("tables registered in the SQL engine:");
    for name in relational.engine().catalog().table_names() {
        let table = relational.engine().catalog().get(name).unwrap();
        println!(
            "  {name:<15} {:>6} rows, schema {}",
            table.len(),
            table.schema()
        );
    }

    let query = "knows/(knows/worksFor){2,4}/worksFor";
    println!("\nRPQ: {query}\n");

    // 1. The SQL the paper's prototype would send to PostgreSQL.
    let sql = relational.sql_for(query).unwrap();
    println!("-- path-index translation (Section 3.1 of the paper)\n{sql}\n");

    // 2. The relational physical plan (merge joins appear exactly where the
    //    clustered (path, src, dst) order makes them possible).
    println!(
        "-- relational EXPLAIN\n{}",
        relational.explain(query).unwrap()
    );

    // 3. Results agree with the native pipeline.
    let via_sql = relational.query_pairs(query).unwrap();
    let via_native = native
        .run(query, QueryOptions::with_strategy(Strategy::MinSupport))
        .unwrap();
    println!(
        "result: {} pairs via SQL, {} pairs via the native pipeline",
        via_sql.len(),
        via_native.len()
    );
    assert_eq!(via_sql.len(), via_native.len());

    // 4. Approach (2) — the recursive-SQL-views baseline — on a star query.
    let star_query = "knows*";
    let recursive_sql = relational.recursive_sql_for(star_query).unwrap();
    println!("\nRPQ: {star_query}\n-- recursive-view translation (approach 2)\n{recursive_sql}\n");
    let reachable = relational.query_pairs_recursive(star_query).unwrap();
    println!(
        "knows* reaches {} node pairs (including the identity pairs)",
        reachable.len()
    );

    // 5. The bridged tables also answer ad-hoc SQL, e.g. the histogram the
    //    minSupport planner consults.
    let top = relational
        .raw_sql("SELECT path, pairs FROM path_histogram ORDER BY pairs DESC LIMIT 5")
        .unwrap();
    println!("five least selective label paths (straight SQL over path_histogram):");
    println!("{}", top.to_table_string());
}
