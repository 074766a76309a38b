//! Experiment **S6**: the paper's Section 6 claim that path-index evaluation
//! is on average ~1200× faster than Datalog-based evaluation (approach 2) on
//! the Advogato queries.

use crate::datasets::build_advogato;
use crate::report::Table;
use pathix_core::{PathDb, PathDbConfig, QueryOptions, Strategy};
use pathix_datagen::advogato_queries;
use std::time::Instant;

/// One query measured under the index pipeline and the Datalog baseline.
#[derive(Debug, Clone)]
pub struct DatalogRow {
    /// Query name.
    pub query: String,
    /// minSupport (k = 3) execution time in milliseconds.
    pub index_ms: f64,
    /// Datalog semi-naive evaluation time in milliseconds.
    pub datalog_ms: f64,
    /// `datalog_ms / index_ms`.
    pub speedup: f64,
    /// Answer count (identical for both routes).
    pub answers: usize,
}

/// The full S6 report.
#[derive(Debug, Clone)]
pub struct DatalogReport {
    /// Scale used (the Datalog baseline is much slower, so this experiment
    /// defaults to a smaller graph than F2).
    pub scale: f64,
    /// Index locality parameter used for the path-index side.
    pub k: usize,
    /// Per-query measurements.
    pub rows: Vec<DatalogRow>,
    /// Geometric mean of the speedups.
    pub geometric_mean_speedup: f64,
    /// Arithmetic mean of the speedups (the paper reports an average).
    pub mean_speedup: f64,
}

/// Runs the Datalog comparison at the given scale with a k = 3 index.
pub fn datalog_speedup(scale: f64) -> DatalogReport {
    let k = 3;
    let graph = build_advogato(scale);
    println!(
        "== S6: path index (minSupport, k={k}) vs Datalog baseline \
         (scale {scale}: {} nodes, {} edges)\n",
        graph.node_count(),
        graph.edge_count()
    );
    let db = PathDb::build(graph, PathDbConfig::with_k(k));
    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "query",
        "index (ms)",
        "datalog (ms)",
        "speedup",
        "answers",
    ]);
    for q in advogato_queries() {
        let result = db
            .run(&q.text, QueryOptions::with_strategy(Strategy::MinSupport))
            .unwrap();
        let index_ms = result.stats.elapsed.as_secs_f64() * 1e3;

        let start = Instant::now();
        let datalog_answer = db.query_datalog(&q.text).unwrap();
        let datalog_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            datalog_answer.len(),
            result.len(),
            "Datalog and index answers must agree for {}",
            q.name
        );
        let speedup = datalog_ms / index_ms.max(1e-6);
        table.push_row(vec![
            q.name.clone(),
            format!("{index_ms:.3}"),
            format!("{datalog_ms:.1}"),
            format!("{speedup:.0}x"),
            result.len().to_string(),
        ]);
        rows.push(DatalogRow {
            query: q.name.clone(),
            index_ms,
            datalog_ms,
            speedup,
            answers: result.len(),
        });
    }
    println!("{}", table.render());
    let mean_speedup = rows.iter().map(|r| r.speedup).sum::<f64>() / rows.len() as f64;
    let geometric_mean_speedup =
        (rows.iter().map(|r| r.speedup.ln()).sum::<f64>() / rows.len() as f64).exp();
    println!(
        "average speedup: {mean_speedup:.0}x (arithmetic), {geometric_mean_speedup:.0}x (geometric); \
         the paper reports ~1200x on the full dataset.\n"
    );
    DatalogReport {
        scale,
        k,
        rows,
        geometric_mean_speedup,
        mean_speedup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datalog_comparison_runs_at_tiny_scale() {
        let report = datalog_speedup(0.005);
        assert_eq!(report.rows.len(), 8);
        assert!(report.mean_speedup > 0.0);
        assert!(report.rows.iter().all(|r| r.datalog_ms >= 0.0));
    }
}
