//! Experiment runners, one module per experiment of the paper's evaluation
//! (§6) and its direct extensions; `run_experiments` lists them.

pub mod ablation;
pub mod automaton;
pub mod datalog;
pub mod fig2;
pub mod index_build;
pub mod scaling;
pub mod sql;
