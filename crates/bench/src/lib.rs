//! # pathix-bench
//!
//! The experiment harness that reproduces the paper's evaluation (§6): Figure
//! 2, the index build/size table, the Datalog and automaton baselines, the §5
//! SQL translation, and the histogram and graph-size extensions. Each
//! experiment prints its tables with the shape the paper predicts next to
//! them.
//!
//! One entry point: the `run_experiments` binary
//! (`cargo run -p pathix-bench --release --bin run_experiments -- all`).
//! Performance of the live system — durable ingest, on-disk probes, the
//! serving tier — is measured by the `benchmark/` package, not here.
//!
//! The graph scale is controlled by the `PATHIX_BENCH_SCALE` environment
//! variable (a fraction of the real Advogato's 6,541 nodes / 51,127 edges).
//! The default keeps a full k = 1..3 sweep laptop-friendly; set it to `1.0`
//! to run at the paper's full dataset size.

pub mod datasets;
pub mod experiments;
pub mod report;

pub use datasets::{bench_scale, build_advogato, build_advogato_db};
pub use experiments::{
    ablation::histogram_ablation, automaton::automaton_comparison, datalog::datalog_speedup,
    fig2::fig2, index_build::index_construction, scaling::scaling, sql::sql_comparison,
};
pub use report::{format_duration_ms, Table};
