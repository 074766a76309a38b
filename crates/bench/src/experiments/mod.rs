//! Experiment runners, one module per experiment id in DESIGN.md §3.

pub mod ablation;
pub mod amortization;
pub mod automaton;
pub mod backends;
pub mod datalog;
pub mod fig2;
pub mod incremental;
pub mod index_build;
pub mod ingest;
pub mod paged;
pub mod scaling;
pub mod scan_join;
pub mod serving;
pub mod sql;
pub mod updates;
