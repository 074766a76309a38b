//! # pathix-baselines
//!
//! The two baseline RPQ evaluation approaches the paper compares against
//! (Section 1 and Section 6):
//!
//! * **Approach (1), automaton/search-based** ([`automaton`]): evaluate the
//!   query by searching the product of the data graph with the query
//!   automaton, breadth-first from every source node.
//! * **Approach (2), Datalog-based** ([`datalog`] + [`translate`]): translate
//!   the RPQ into a Datalog program over the edge relations and evaluate it
//!   bottom-up with semi-naive fixpoint iteration — the stand-in for
//!   "recursive Datalog programs or recursive SQL views".
//!
//! Both baselines return exactly the same answers as the path-index pipeline
//! (they are cross-checked in tests and used as oracles); the benchmark
//! harness uses them to reproduce the paper's speed-up claims.

pub mod automaton;
pub mod datalog;
pub mod translate;

pub use automaton::evaluate_automaton;
pub use datalog::{Atom, DatalogEngine, Program, Rule, Term};
pub use translate::{evaluate_datalog, rpq_to_datalog};
