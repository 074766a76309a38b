//! Experiment **X4** (extension): the automaton / product-BFS baseline
//! (approach 1 of the paper's introduction) against the path index.

use crate::datasets::build_advogato;
use crate::report::Table;
use pathix_core::{PathDb, PathDbConfig, QueryOptions, Strategy};
use pathix_datagen::advogato_queries;
use std::time::Instant;

/// One query measured under the index pipeline and the automaton baseline.
#[derive(Debug, Clone)]
pub struct AutomatonRow {
    /// Query name.
    pub query: String,
    /// minSupport (k = 3) execution time in milliseconds.
    pub index_ms: f64,
    /// Automaton product-BFS time in milliseconds.
    pub automaton_ms: f64,
    /// `automaton_ms / index_ms`.
    pub speedup: f64,
}

/// The full X4 report.
#[derive(Debug, Clone)]
pub struct AutomatonReport {
    /// Scale factor used.
    pub scale: f64,
    /// Per-query rows.
    pub rows: Vec<AutomatonRow>,
    /// Arithmetic mean speedup.
    pub mean_speedup: f64,
}

/// Runs the automaton comparison at the given scale with a k = 3 index.
pub fn automaton_comparison(scale: f64) -> AutomatonReport {
    let graph = build_advogato(scale);
    println!(
        "== X4: path index (minSupport, k=3) vs automaton product-BFS \
         (scale {scale}: {} nodes, {} edges)\n",
        graph.node_count(),
        graph.edge_count()
    );
    let db = PathDb::build(graph, PathDbConfig::with_k(3));
    let mut rows = Vec::new();
    let mut table = Table::new(vec!["query", "index (ms)", "automaton (ms)", "speedup"]);
    for q in advogato_queries() {
        let result = db
            .run(&q.text, QueryOptions::with_strategy(Strategy::MinSupport))
            .unwrap();
        let index_ms = result.stats.elapsed.as_secs_f64() * 1e3;
        let start = Instant::now();
        let automaton_answer = db.query_automaton(&q.text).unwrap();
        let automaton_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            automaton_answer.len(),
            result.len(),
            "answers differ for {}",
            q.name
        );
        let speedup = automaton_ms / index_ms.max(1e-6);
        table.push_row(vec![
            q.name.clone(),
            format!("{index_ms:.3}"),
            format!("{automaton_ms:.1}"),
            format!("{speedup:.0}x"),
        ]);
        rows.push(AutomatonRow {
            query: q.name.clone(),
            index_ms,
            automaton_ms,
            speedup,
        });
    }
    println!("{}", table.render());
    let mean_speedup = rows.iter().map(|r| r.speedup).sum::<f64>() / rows.len() as f64;
    println!("average speedup over the automaton baseline: {mean_speedup:.0}x\n");
    AutomatonReport {
        scale,
        rows,
        mean_speedup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn automaton_comparison_runs_at_tiny_scale() {
        let report = automaton_comparison(0.005);
        assert_eq!(report.rows.len(), 8);
        assert!(report.mean_speedup > 0.0);
    }
}
