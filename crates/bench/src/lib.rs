//! # pathix-bench
//!
//! The benchmark harness that regenerates every figure and quantitative claim
//! of the paper's evaluation (see DESIGN.md §3 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured numbers).
//!
//! One entry point: the `run_experiments` binary prints the tables directly
//! (`cargo run -p pathix-bench --release --bin run_experiments -- all`).
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
    ablation::histogram_ablation, amortization::amortization, automaton::automaton_comparison,
    backends::backend_comparison, datalog::datalog_speedup, fig2::fig2,
    incremental::incremental_maintenance, index_build::index_construction, ingest::ingest,
    paged::paged_index, scaling::scaling, scan_join::scan_join, serving::serving,
    sql::sql_comparison, updates::live_updates,
};
pub use report::{format_duration_ms, Table};
