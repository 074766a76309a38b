//! Experiment **X2** (extension, thesis-style): query time as a function of
//! graph size on Barabási–Albert graphs, for the four strategies.

use crate::datasets::build_ba;
use crate::report::Table;
use pathix_core::{PathDb, PathDbConfig, QueryOptions, Strategy};
use pathix_datagen::{WorkloadConfig, WorkloadGenerator};

/// One `(graph size, strategy)` measurement, averaged over a query workload.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Nodes in the graph.
    pub nodes: usize,
    /// Edges in the graph.
    pub edges: usize,
    /// Index locality parameter.
    pub k: usize,
    /// Strategy name.
    pub strategy: String,
    /// Mean query time over the workload in milliseconds.
    pub mean_ms: f64,
    /// Total answers over the workload.
    pub total_answers: usize,
}

/// The X2 report.
#[derive(Debug, Clone)]
pub struct ScalingReport {
    /// The graph sizes measured.
    pub sizes: Vec<usize>,
    /// All rows.
    pub rows: Vec<ScalingRow>,
}

/// Runs the scaling experiment over the given node counts with a k = 2
/// index and a fixed mixed workload of 8 queries.
pub fn scaling(sizes: &[usize]) -> ScalingReport {
    let k = 2;
    println!("== X2: scaling with graph size (Barabási–Albert, k = {k})\n");
    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "nodes",
        "edges",
        "naive (ms)",
        "semi-naive (ms)",
        "minSupport (ms)",
        "minJoin (ms)",
    ]);
    for &nodes in sizes {
        let graph = build_ba(nodes, 7);
        let db = PathDb::build(graph.clone(), PathDbConfig::with_k(k));
        let mut generator = WorkloadGenerator::new(
            &graph,
            WorkloadConfig {
                max_chain_len: 4,
                max_recursion: 2,
                seed: 1234,
                ..Default::default()
            },
        );
        let workload = generator.generate_mixed(8);
        let mut cells = vec![nodes.to_string(), graph.edge_count().to_string()];
        for strategy in Strategy::all() {
            let mut total_ms = 0.0;
            let mut total_answers = 0;
            for q in &workload {
                let result = db
                    .run(&q.text, QueryOptions::with_strategy(strategy))
                    .unwrap();
                total_ms += result.stats.elapsed.as_secs_f64() * 1e3;
                total_answers += result.len();
            }
            let mean_ms = total_ms / workload.len() as f64;
            cells.push(format!("{mean_ms:.3}"));
            rows.push(ScalingRow {
                nodes,
                edges: graph.edge_count(),
                k,
                strategy: strategy.name().to_owned(),
                mean_ms,
                total_answers,
            });
        }
        table.push_row(cells);
    }
    println!("{}", table.render());
    println!(
        "expected shape: all strategies grow with graph size; the histogram-guided strategies \
         stay below naive throughout.\n"
    );
    ScalingReport {
        sizes: sizes.to_vec(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_runs_on_small_sizes() {
        let report = scaling(&[50, 100]);
        assert_eq!(report.rows.len(), 2 * 4);
        assert!(report.rows.iter().all(|r| r.mean_ms >= 0.0));
    }
}
