//! RPQ workload generation.
//!
//! Two kinds of workloads are provided:
//!
//! * [`advogato_queries`] — the fixed set of eight queries (A1–A8) used to
//!   reproduce Figure 2. The paper only identifies its benchmark queries as
//!   Q1…Q8 (their definitions live in the accompanying MSc thesis), so these
//!   eight cover the same structural families over the three Advogato trust
//!   labels: concatenations of increasing length, inverse steps, unions and
//!   bounded recursion. See EXPERIMENTS.md.
//! * [`WorkloadGenerator`] — random query generation over an arbitrary
//!   vocabulary, used by property tests and the scaling experiments.

use pathix_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A named benchmark query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedQuery {
    /// Short identifier, e.g. `A3`.
    pub name: String,
    /// Query text in the `pathix-rpq` syntax.
    pub text: String,
    /// The structural family the query belongs to.
    pub family: QueryFamily,
}

/// Structural families of generated queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryFamily {
    /// A plain concatenation of forward steps.
    Chain,
    /// A concatenation that mixes forward and backward steps.
    ChainWithInverse,
    /// A union of two or more chains.
    UnionOfChains,
    /// A query with bounded recursion.
    BoundedRecursion,
}

/// The eight fixed Advogato benchmark queries (A1–A8) used for Figure 2.
///
/// Labels refer to the Advogato trust levels `apprentice`, `journeyer`,
/// `master` produced by [`crate::advogato_like`].
///
/// ```
/// use pathix_datagen::{advogato_like, advogato_queries, AdvogatoConfig};
///
/// let queries = advogato_queries();
/// let names: Vec<_> = queries.iter().map(|q| q.name.as_str()).collect();
/// assert_eq!(names, ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8"]);
/// assert_eq!(queries[0].text, "journeyer/master");
///
/// // Every query binds against the generated graph's vocabulary.
/// let graph = advogato_like(AdvogatoConfig::scaled(0.005));
/// for query in &queries {
///     assert!(pathix_rpq::parse(&query.text).unwrap().bind(&graph).is_ok(), "{}", query.name);
/// }
/// ```
pub fn advogato_queries() -> Vec<NamedQuery> {
    let q = |name: &str, text: &str, family| NamedQuery {
        name: name.to_owned(),
        text: text.to_owned(),
        family,
    };
    vec![
        q("A1", "journeyer/master", QueryFamily::Chain),
        q("A2", "apprentice/journeyer/master", QueryFamily::Chain),
        q(
            "A3",
            "journeyer/journeyer-/master/apprentice",
            QueryFamily::ChainWithInverse,
        ),
        q(
            "A4",
            "(journeyer/master)|(apprentice/apprentice/journeyer)",
            QueryFamily::UnionOfChains,
        ),
        q("A5", "journeyer{1,3}", QueryFamily::BoundedRecursion),
        q(
            "A6",
            "(journeyer/master){1,2}",
            QueryFamily::BoundedRecursion,
        ),
        q(
            "A7",
            "apprentice/(journeyer/master){1,2}/apprentice-",
            QueryFamily::BoundedRecursion,
        ),
        q(
            "A8",
            "master/journeyer/apprentice/journeyer/master-/apprentice",
            QueryFamily::ChainWithInverse,
        ),
    ]
}

/// Configuration of the random workload generator.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Maximum length of generated chains.
    pub max_chain_len: usize,
    /// Maximum number of branches in a union.
    pub max_union_branches: usize,
    /// Maximum upper bound used in bounded recursion.
    pub max_recursion: u32,
    /// Probability that an individual step is inverted.
    pub inverse_probability: f64,
    /// Random seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            max_chain_len: 5,
            max_union_branches: 3,
            max_recursion: 3,
            inverse_probability: 0.25,
            seed: 0xC0FFEE,
        }
    }
}

/// Generates random RPQ texts over the vocabulary of a given graph.
///
/// ```
/// use pathix_datagen::{paper_example_graph, QueryFamily, WorkloadConfig, WorkloadGenerator};
///
/// let graph = paper_example_graph();
/// let config = WorkloadConfig { max_chain_len: 3, seed: 7, ..WorkloadConfig::default() };
/// let workload = WorkloadGenerator::new(&graph, config).generate_mixed(8);
///
/// // Deterministic for a seed, cycling through the four families …
/// assert_eq!(workload, WorkloadGenerator::new(&graph, config).generate_mixed(8));
/// assert_eq!(workload[0].family, QueryFamily::Chain);
/// assert_eq!(workload[3].family, QueryFamily::BoundedRecursion);
/// assert_eq!(workload[4].family, QueryFamily::Chain);
/// // … and every text is a query over the graph's own labels.
/// for query in &workload {
///     assert!(pathix_rpq::parse(&query.text).unwrap().bind(&graph).is_ok(), "{}", query.text);
/// }
/// ```
#[derive(Debug)]
pub struct WorkloadGenerator {
    labels: Vec<String>,
    config: WorkloadConfig,
    rng: StdRng,
}

impl WorkloadGenerator {
    /// Creates a generator over the labels of `graph`.
    ///
    /// Panics if the graph has no labels.
    pub fn new(graph: &Graph, config: WorkloadConfig) -> Self {
        let labels: Vec<String> = graph.label_names().into_iter().map(str::to_owned).collect();
        assert!(!labels.is_empty(), "graph has no labels to query");
        WorkloadGenerator {
            labels,
            config,
            rng: StdRng::seed_from_u64(config.seed),
        }
    }

    fn random_step(&mut self) -> String {
        let label = &self.labels[self.rng.gen_range(0..self.labels.len())];
        if self.rng.gen::<f64>() < self.config.inverse_probability {
            format!("{label}-")
        } else {
            label.clone()
        }
    }

    fn random_chain(&mut self, min_len: usize) -> String {
        let len = self
            .rng
            .gen_range(min_len..=self.config.max_chain_len.max(min_len));
        (0..len)
            .map(|_| self.random_step())
            .collect::<Vec<_>>()
            .join("/")
    }

    /// Generates one query of the given family.
    pub fn generate(&mut self, family: QueryFamily) -> String {
        match family {
            QueryFamily::Chain => {
                let len = self.rng.gen_range(1..=self.config.max_chain_len);
                (0..len)
                    .map(|_| {
                        let l = self.rng.gen_range(0..self.labels.len());
                        self.labels[l].clone()
                    })
                    .collect::<Vec<_>>()
                    .join("/")
            }
            QueryFamily::ChainWithInverse => self.random_chain(2),
            QueryFamily::UnionOfChains => {
                let branches = self
                    .rng
                    .gen_range(2..=self.config.max_union_branches.max(2));
                let parts: Vec<String> = (0..branches)
                    .map(|_| format!("({})", self.random_chain(1)))
                    .collect();
                parts.join("|")
            }
            QueryFamily::BoundedRecursion => {
                let min = self.rng.gen_range(0..=1u32);
                let max = self
                    .rng
                    .gen_range(min.max(1)..=self.config.max_recursion.max(1));
                let body = self.random_chain(1);
                format!("({body}){{{min},{max}}}")
            }
        }
    }

    /// Generates a mixed workload of `count` queries cycling through all
    /// families.
    pub fn generate_mixed(&mut self, count: usize) -> Vec<NamedQuery> {
        let families = [
            QueryFamily::Chain,
            QueryFamily::ChainWithInverse,
            QueryFamily::UnionOfChains,
            QueryFamily::BoundedRecursion,
        ];
        (0..count)
            .map(|i| {
                let family = families[i % families.len()];
                NamedQuery {
                    name: format!("W{i}"),
                    text: self.generate(family),
                    family,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::paper_example_graph;
    use pathix_rpq::parse;

    #[test]
    fn advogato_queries_are_eight_and_parse() {
        let queries = advogato_queries();
        assert_eq!(queries.len(), 8);
        for q in &queries {
            parse(&q.text).unwrap_or_else(|e| panic!("query {} does not parse: {e}", q.name));
        }
        // Names are unique.
        let mut names: Vec<_> = queries.iter().map(|q| q.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn advogato_queries_cover_all_families() {
        let queries = advogato_queries();
        for family in [
            QueryFamily::Chain,
            QueryFamily::ChainWithInverse,
            QueryFamily::UnionOfChains,
            QueryFamily::BoundedRecursion,
        ] {
            assert!(
                queries.iter().any(|q| q.family == family),
                "no query of family {family:?}"
            );
        }
    }

    #[test]
    fn generated_queries_parse() {
        let g = paper_example_graph();
        let mut gen = WorkloadGenerator::new(&g, WorkloadConfig::default());
        for q in gen.generate_mixed(40) {
            parse(&q.text)
                .unwrap_or_else(|e| panic!("generated query {:?} does not parse: {e}", q.text));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = paper_example_graph();
        let mut a = WorkloadGenerator::new(&g, WorkloadConfig::default());
        let mut b = WorkloadGenerator::new(&g, WorkloadConfig::default());
        assert_eq!(a.generate_mixed(10), b.generate_mixed(10));
        let mut c = WorkloadGenerator::new(
            &g,
            WorkloadConfig {
                seed: 999,
                ..Default::default()
            },
        );
        assert_ne!(a.generate_mixed(10), c.generate_mixed(10));
    }

    #[test]
    fn recursion_family_produces_bounds() {
        let g = paper_example_graph();
        let mut gen = WorkloadGenerator::new(&g, WorkloadConfig::default());
        let q = gen.generate(QueryFamily::BoundedRecursion);
        assert!(
            q.contains('{') && q.contains('}'),
            "query {q:?} lacks bounds"
        );
    }
}
