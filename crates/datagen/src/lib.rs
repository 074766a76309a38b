//! # pathix-datagen
//!
//! Deterministic synthetic datasets and RPQ workloads for tests, examples and
//! the benchmark harness.
//!
//! The paper's evaluation uses the **Advogato** trust network (6,541 nodes,
//! 51,127 edges, three trust levels) plus synthetic datasets from the
//! accompanying MSc thesis. The real Advogato download is not available in
//! this offline reproduction, so [`advogato`] provides a generator that
//! matches its published scale, vocabulary and heavy-tailed degree shape (the
//! [`advogato`] module docs list what it reproduces; PAPER.md's §6 row names
//! the experiments that run on it). All generators take explicit seeds and
//! are fully deterministic.
//!
//! Modules:
//!
//! * [`example`] — the small `{knows, worksFor, supervisor}` graph used by
//!   the paper's running example.
//! * [`advogato`] — Advogato-like trust network generator.
//! * [`models`] — classic random graph models (Erdős–Rényi, Barabási–Albert).
//! * [`social`] — a person/company social network with heterogeneous labels.
//! * [`workload`] — RPQ workloads, including the eight fixed Advogato
//!   benchmark queries used to reproduce Figure 2.

pub mod advogato;
pub mod example;
pub mod models;
pub mod social;
pub mod workload;

pub use advogato::{advogato_like, AdvogatoConfig, ADVOGATO_EDGES, ADVOGATO_NODES};
pub use example::paper_example_graph;
pub use models::{barabasi_albert, erdos_renyi};
pub use social::{social_network, SocialConfig};
pub use workload::{advogato_queries, QueryFamily, WorkloadConfig, WorkloadGenerator};
