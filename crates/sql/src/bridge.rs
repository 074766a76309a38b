//! Bridging graphs and path indexes into the relational catalog, and the
//! [`SqlPathDb`] facade that runs RPQs end-to-end through SQL.
//!
//! This reproduces the *deployment shape* of the paper's prototype: the graph
//! and the k-path index live in relational tables, RPQs are translated to SQL
//! ([`crate::translate`]) and executed by a relational engine. The native
//! pipeline in `pathix-core`/`pathix-plan` answers the same queries directly
//! over the B+tree; `run_experiments sql` compares the two.

use crate::catalog::{Schema, Table};
use crate::engine::{ResultSet, SqlEngine, SqlError};
use crate::translate::{path_string, rpq_to_path_index_sql, rpq_to_recursive_sql};
use pathix_core::PathDb;
use pathix_graph::Graph;
use pathix_index::{BackendError, PathIndexBackend, SharedKPathIndex};
use pathix_rpq::{parse, to_disjuncts, RewriteOptions};

impl From<BackendError> for SqlError {
    fn from(e: BackendError) -> Self {
        SqlError::Exec(format!("index backend error while bridging: {e}"))
    }
}

/// Builds the `nodes(id)` table.
pub fn nodes_table(graph: &Graph) -> Table {
    let mut t = Table::new("nodes", Schema::new(vec!["id"]));
    for n in graph.nodes() {
        t.push(vec![n.0.into()]);
    }
    t.cluster_by(&["id"]);
    t
}

/// Builds the `edge(label, src, dst)` table, clustered by its natural key.
pub fn edge_table(graph: &Graph) -> Table {
    let mut t = Table::new("edge", Schema::new(vec!["label", "src", "dst"]));
    for label in graph.labels() {
        let name = graph.label_name(label).unwrap_or("unknown").to_owned();
        for (s, d) in graph.edges(label) {
            t.push(vec![name.clone().into(), s.0.into(), d.0.into()]);
        }
    }
    t.cluster_by(&["label", "src", "dst"]);
    t
}

/// Builds the `path_index(path, src, dst)` table from any
/// [`PathIndexBackend`], clustered exactly like the paper's composite B+tree
/// key. Backend scan failures surface as [`SqlError::Exec`].
pub fn path_index_table<B: PathIndexBackend + ?Sized>(
    index: &B,
    graph: &Graph,
) -> Result<Table, SqlError> {
    let mut t = Table::new("path_index", Schema::new(vec!["path", "src", "dst"]));
    for (path, _) in index.per_path_counts() {
        let text = path_string(graph, path);
        for (s, d) in index.collect_path(path)? {
            t.push(vec![text.clone().into(), s.0.into(), d.0.into()]);
        }
    }
    t.cluster_by(&["path", "src", "dst"]);
    Ok(t)
}

/// Builds the `path_histogram(path, pairs)` table — `|p(G)|` per indexed
/// path — from any [`PathIndexBackend`].
pub fn histogram_table<B: PathIndexBackend + ?Sized>(index: &B, graph: &Graph) -> Table {
    let mut t = Table::new("path_histogram", Schema::new(vec!["path", "pairs"]));
    for (path, count) in index.per_path_counts() {
        t.push(vec![
            path_string(graph, path).into(),
            (*count as i64).into(),
        ]);
    }
    t.cluster_by(&["path"]);
    t
}

/// An RPQ-queryable database whose storage and execution are entirely
/// relational: the paper's prototype shape.
#[derive(Debug, Clone)]
pub struct SqlPathDb {
    engine: SqlEngine,
    graph: Graph,
    k: usize,
    star_bound: u32,
    max_disjuncts: usize,
}

impl SqlPathDb {
    /// Builds the relational tables (nodes, edges, path index, histogram) for
    /// `graph` with locality `k` and loads them into a fresh SQL engine.
    pub fn build(graph: Graph, k: usize) -> Self {
        let index = SharedKPathIndex::build(&graph, k);
        Self::from_parts(graph, &index, k)
            .expect("in-memory index scans cannot fail while bridging")
    }

    /// Builds the relational mirror of an existing [`PathDb`] (same graph,
    /// same k, same index contents) from one consistent snapshot. Works with
    /// every index backend; scan failures of disk-resident backends surface
    /// as [`SqlError::Exec`].
    pub fn from_path_db(db: &PathDb) -> Result<Self, SqlError> {
        let snapshot = db.snapshot();
        Self::from_parts(snapshot.graph().clone(), snapshot.index(), db.k())
    }

    fn from_parts<B: PathIndexBackend + ?Sized>(
        graph: Graph,
        index: &B,
        k: usize,
    ) -> Result<Self, SqlError> {
        let mut engine = SqlEngine::new();
        engine.register(nodes_table(&graph));
        engine.register(edge_table(&graph));
        engine.register(path_index_table(index, &graph)?);
        engine.register(histogram_table(index, &graph));
        Ok(SqlPathDb {
            engine,
            graph,
            k,
            star_bound: 4,
            max_disjuncts: 4096,
        })
    }

    /// Sets the bound substituted for unbounded recursion (`*`, `+`).
    pub fn with_star_bound(mut self, star_bound: u32) -> Self {
        self.star_bound = star_bound;
        self
    }

    /// The locality parameter k the index was built with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The SQL engine (for ad-hoc queries against the bridged tables).
    pub fn engine(&self) -> &SqlEngine {
        &self.engine
    }

    /// The paper's translation of `query`: a union of joins over the
    /// `path_index` table.
    pub fn sql_for(&self, query: &str) -> Result<String, SqlError> {
        let disjuncts = self.disjuncts(query)?;
        Ok(rpq_to_path_index_sql(&self.graph, &disjuncts, self.k))
    }

    /// The recursive-view translation of `query` (approach 2), over the raw
    /// `edge` / `nodes` tables.
    pub fn recursive_sql_for(&self, query: &str) -> Result<String, SqlError> {
        let expr = parse(query)
            .map_err(|e| SqlError::Plan(format!("RPQ parse error: {e}")))?
            .bind(&self.graph)
            .map_err(|e| SqlError::Plan(format!("RPQ bind error: {e}")))?;
        Ok(rpq_to_recursive_sql(&self.graph, &expr, self.star_bound))
    }

    /// Evaluates `query` through the path-index SQL translation, returning
    /// the node-id pairs sorted by `(src, dst)`.
    pub fn query_pairs(&self, query: &str) -> Result<Vec<(u32, u32)>, SqlError> {
        let sql = self.sql_for(query)?;
        Ok(sorted_pairs(self.engine.execute(&sql)?))
    }

    /// Evaluates `query` through the recursive-view translation (approach 2),
    /// returning the node-id pairs sorted by `(src, dst)`.
    pub fn query_pairs_recursive(&self, query: &str) -> Result<Vec<(u32, u32)>, SqlError> {
        let sql = self.recursive_sql_for(query)?;
        Ok(sorted_pairs(self.engine.execute(&sql)?))
    }

    /// EXPLAIN text of the path-index translation of `query`.
    pub fn explain(&self, query: &str) -> Result<String, SqlError> {
        let sql = self.sql_for(query)?;
        self.engine.explain(&sql)
    }

    /// Runs an arbitrary SQL statement against the bridged tables.
    pub fn raw_sql(&self, sql: &str) -> Result<ResultSet, SqlError> {
        self.engine.execute(sql)
    }

    fn disjuncts(&self, query: &str) -> Result<Vec<Vec<pathix_graph::SignedLabel>>, SqlError> {
        let expr = parse(query)
            .map_err(|e| SqlError::Plan(format!("RPQ parse error: {e}")))?
            .bind(&self.graph)
            .map_err(|e| SqlError::Plan(format!("RPQ bind error: {e}")))?;
        to_disjuncts(
            &expr,
            RewriteOptions {
                star_bound: self.star_bound,
                max_disjuncts: self.max_disjuncts,
            },
        )
        .map_err(|e| SqlError::Plan(format!("RPQ rewrite error: {e}")))
    }
}

fn sorted_pairs(rs: ResultSet) -> Vec<(u32, u32)> {
    let mut pairs = rs.as_pairs();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathix_core::{GraphUpdate, PathDbConfig, QueryOptions, Strategy};
    use pathix_datagen::paper_example_graph;

    fn native_pairs(db: &PathDb, query: &str, strategy: Strategy) -> Vec<(u32, u32)> {
        let result = db
            .run(query, QueryOptions::with_strategy(strategy))
            .unwrap();
        let mut pairs: Vec<(u32, u32)> = result.pairs().iter().map(|&(a, b)| (a.0, b.0)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    #[test]
    fn tables_have_the_expected_shapes() {
        let g = paper_example_graph();
        let index = SharedKPathIndex::build(&g, 2);
        assert_eq!(nodes_table(&g).len(), g.node_count());
        assert_eq!(edge_table(&g).len(), g.edge_count());
        let pi = path_index_table(&index, &g).unwrap();
        assert_eq!(pi.len() as u64, index.stats().entries as u64);
        assert_eq!(pi.sort_order(), &[0, 1, 2]);
        let hist = histogram_table(&index, &g);
        assert_eq!(hist.len(), index.per_path_counts().len());
    }

    #[test]
    fn histogram_rows_are_the_backends_per_path_counts() {
        let g = paper_example_graph();
        let db = PathDb::build(g.clone(), PathDbConfig::with_k(2));
        db.apply(&[GraphUpdate::insert_named("sue", "knows", "tim")])
            .unwrap();
        let (index, graph) = (db.index(), db.graph());
        let hist = histogram_table(&*index, &graph);
        assert_eq!(hist.schema().len(), 2);
        let mut rows: Vec<(String, i64)> = hist
            .rows()
            .iter()
            .map(|row| {
                (
                    row[0].as_text().unwrap().to_owned(),
                    row[1].as_int().unwrap(),
                )
            })
            .collect();
        let mut expected: Vec<(String, i64)> = index
            .per_path_counts()
            .iter()
            .map(|(path, count)| (path_string(&graph, path), *count as i64))
            .collect();
        rows.sort();
        expected.sort();
        assert_eq!(rows, expected);
    }

    #[test]
    fn sql_pipeline_matches_the_native_pipeline() {
        let g = paper_example_graph();
        let db = PathDb::build(g.clone(), PathDbConfig::with_k(2));
        let sql_db = SqlPathDb::from_path_db(&db).unwrap();
        for query in [
            "supervisor/worksFor-",
            "knows/knows/worksFor",
            "knows|worksFor",
            "(supervisor|worksFor|worksFor-){4,5}",
            "knows{1,3}",
            "worksFor-/worksFor",
        ] {
            let native = native_pairs(&db, query, Strategy::MinSupport);
            let via_sql = sql_db.query_pairs(query).unwrap();
            assert_eq!(via_sql, native, "query {query}");
        }
    }

    #[test]
    fn recursive_translation_matches_the_native_pipeline() {
        let g = paper_example_graph();
        // star_bound must cover n(G) for the fixpoint/native comparison.
        let db = PathDb::build(
            g.clone(),
            PathDbConfig {
                k: 2,
                star_bound: 10,
                ..PathDbConfig::default()
            },
        );
        let sql_db = SqlPathDb::from_path_db(&db).unwrap().with_star_bound(10);
        for query in ["knows{1,2}", "knows*", "supervisor/knows*", "worksFor+"] {
            let native = native_pairs(&db, query, Strategy::SemiNaive);
            let recursive = sql_db.query_pairs_recursive(query).unwrap();
            assert_eq!(recursive, native, "query {query}");
        }
    }

    #[test]
    fn explain_and_raw_sql_work() {
        let g = paper_example_graph();
        let sql_db = SqlPathDb::build(g, 2);
        let plan = sql_db.explain("knows/knows/worksFor").unwrap();
        assert!(plan.contains("path_index"));
        let rs = sql_db
            .raw_sql("SELECT COUNT(*) AS n FROM path_index")
            .unwrap();
        assert!(rs.rows[0][0].as_int().unwrap() > 0);
        assert_eq!(sql_db.k(), 2);
        assert!(sql_db.graph().node_count() > 0);
    }

    #[test]
    fn rpq_errors_surface_as_plan_errors() {
        let g = paper_example_graph();
        let sql_db = SqlPathDb::build(g, 2);
        assert!(matches!(
            sql_db.query_pairs("unknownLabel/knows"),
            Err(SqlError::Plan(_))
        ));
        assert!(matches!(sql_db.sql_for("((("), Err(SqlError::Plan(_))));
    }
}
