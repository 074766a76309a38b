//! Experiment **F2**: Figure 2 of the paper — Advogato query execution times
//! for the 8 benchmark queries, the 4 strategies and k ∈ {1, 2, 3} — plus the
//! §5 aggregate observations (S5-k and S5-order).

use crate::datasets::build_advogato;
use crate::report::{format_duration_ms, Table};
use pathix_core::{PathDb, PathDbConfig, QueryOptions, Strategy};
use pathix_datagen::advogato_queries;
use std::collections::HashMap;
use std::time::Instant;

/// One measurement: a query evaluated with one strategy over one index.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Query name (A1–A8).
    pub query: String,
    /// Index locality parameter.
    pub k: usize,
    /// Strategy name as used in the paper.
    pub strategy: String,
    /// Execution time in milliseconds (planning + execution, warm index).
    pub millis: f64,
    /// Number of answer pairs.
    pub answers: usize,
}

/// The full Figure 2 dataset plus dataset metadata.
#[derive(Debug, Clone)]
pub struct Fig2Report {
    /// Scale factor relative to the real Advogato.
    pub scale: f64,
    /// Nodes in the generated graph.
    pub nodes: usize,
    /// Edges in the generated graph.
    pub edges: usize,
    /// Per-k index construction time in milliseconds.
    pub index_build_ms: Vec<(usize, f64)>,
    /// All measurements.
    pub rows: Vec<Fig2Row>,
}

/// Runs the Figure 2 experiment at the given scale and prints the three
/// per-k tables plus the §5 summary.
pub fn fig2(scale: f64, ks: &[usize]) -> Fig2Report {
    let graph = build_advogato(scale);
    println!(
        "== F2: Advogato query execution times (scale {scale}: {} nodes, {} edges)\n",
        graph.node_count(),
        graph.edge_count()
    );
    let queries = advogato_queries();
    let mut rows: Vec<Fig2Row> = Vec::new();
    let mut index_build_ms = Vec::new();

    for &k in ks {
        let build_start = Instant::now();
        let db = PathDb::build(graph.clone(), PathDbConfig::with_k(k));
        let build_ms = build_start.elapsed().as_secs_f64() * 1e3;
        index_build_ms.push((k, build_ms));
        println!(
            "-- k = {k}  (index: {} entries over {} paths, built in {:.0} ms)",
            db.stats().index.entries,
            db.stats().index.distinct_paths,
            build_ms
        );
        let mut table = Table::new(vec![
            "query",
            "naive (ms)",
            "semi-naive (ms)",
            "minSupport (ms)",
            "minJoin (ms)",
            "answers",
        ]);
        for q in &queries {
            let mut cells = vec![q.name.clone()];
            let mut answers = 0;
            for strategy in Strategy::all() {
                let result = db
                    .run(&q.text, QueryOptions::with_strategy(strategy))
                    .unwrap_or_else(|e| panic!("{} failed: {e}", q.name));
                answers = result.len();
                cells.push(format_duration_ms(result.stats.elapsed));
                rows.push(Fig2Row {
                    query: q.name.clone(),
                    k,
                    strategy: strategy.name().to_owned(),
                    millis: result.stats.elapsed.as_secs_f64() * 1e3,
                    answers,
                });
            }
            cells.push(answers.to_string());
            table.push_row(cells);
        }
        println!("{}", table.render());
    }

    print_summary(&rows, ks);
    Fig2Report {
        scale,
        nodes: graph.node_count(),
        edges: graph.edge_count(),
        index_build_ms,
        rows,
    }
}

/// Prints the §5 observations: per-strategy totals per k (S5-order) and the
/// effect of increasing k (S5-k).
fn print_summary(rows: &[Fig2Row], ks: &[usize]) {
    println!("== §5 summary: total time over the 8 queries (ms)\n");
    let mut table = Table::new(vec!["strategy", "k=1", "k=2", "k=3"]);
    let mut totals: HashMap<(String, usize), f64> = HashMap::new();
    for row in rows {
        *totals.entry((row.strategy.clone(), row.k)).or_default() += row.millis;
    }
    for strategy in Strategy::all() {
        let mut cells = vec![strategy.name().to_owned()];
        for &k in ks {
            let total = totals
                .get(&(strategy.name().to_owned(), k))
                .copied()
                .unwrap_or(f64::NAN);
            cells.push(format!("{total:.1}"));
        }
        table.push_row(cells);
    }
    println!("{}", table.render());
    println!(
        "expected shape (paper §5): naive is slowest and flat in k; semi-naive improves with k; \
         minSupport and minJoin are fastest and similar.\n"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_runs_at_tiny_scale() {
        let report = fig2(0.01, &[1, 2]);
        // 8 queries × 4 strategies × 2 values of k.
        assert_eq!(report.rows.len(), 8 * 4 * 2);
        assert!(report.rows.iter().all(|r| r.millis >= 0.0));
        // Every strategy returns the same answer count for a given query/k.
        for q in ["A1", "A5"] {
            for k in [1, 2] {
                let counts: Vec<usize> = report
                    .rows
                    .iter()
                    .filter(|r| r.query == q && r.k == k)
                    .map(|r| r.answers)
                    .collect();
                assert!(
                    counts.windows(2).all(|w| w[0] == w[1]),
                    "{q} k={k}: {counts:?}"
                );
            }
        }
    }
}
