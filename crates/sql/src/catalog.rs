//! Tables, schemas and the catalog of the relational backend.
//!
//! The paper's prototype keeps two relations in PostgreSQL:
//!
//! * `path_index(path, src, dst)` — the k-path index `I_{G,k}`, clustered by
//!   its composite B+tree key `(path, src, dst)`;
//! * `path_histogram(path, pairs)` — the per-path cardinalities `|p(G)|`
//!   the histogram `sel_{G,k}` summarizes.
//!
//! This module provides the storage those translations run against: an
//! in-memory row store per table plus a declared **sort order**, which is what
//! lets the physical planner choose merge joins exactly where the paper's
//! plans do (the sort order stands in for the clustered B+tree).

use crate::value::{Row, Value};
use std::collections::HashMap;
use std::fmt;

/// A column of a table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (lower-case).
    pub name: String,
}

/// An ordered list of named columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Builds a schema from column names.
    pub fn new<S: Into<String>>(names: Vec<S>) -> Self {
        Schema {
            columns: names
                .into_iter()
                .map(|n| Column {
                    name: n.into().to_ascii_lowercase(),
                })
                .collect(),
        }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// `true` when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Position of `name` (case-insensitive), if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        let lower = name.to_ascii_lowercase();
        self.columns.iter().position(|c| c.name == lower)
    }

    /// Column name at `idx`.
    pub fn name_at(&self, idx: usize) -> &str {
        &self.columns[idx].name
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.columns.iter().map(|c| c.name.as_str()).collect();
        write!(f, "({})", names.join(", "))
    }
}

/// An in-memory table: a schema, rows, and an optional declared sort order.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Row>,
    /// Column indexes the rows are sorted by (lexicographically), if any —
    /// the relational stand-in for a clustered B+tree.
    sort_order: Vec<usize>,
}

impl Table {
    /// Creates an empty table.
    pub fn new<S: Into<String>>(name: S, schema: Schema) -> Self {
        Table {
            name: name.into().to_ascii_lowercase(),
            schema,
            rows: Vec::new(),
            sort_order: Vec::new(),
        }
    }

    /// Table name (lower-case).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The rows, in storage order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Declared sort order (column indexes), empty when unsorted.
    pub fn sort_order(&self) -> &[usize] {
        &self.sort_order
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row arity does not match the schema.
    pub fn push(&mut self, row: Row) {
        assert_eq!(
            row.len(),
            self.schema.len(),
            "row arity {} does not match schema {} of table {}",
            row.len(),
            self.schema.len(),
            self.name
        );
        self.rows.push(row);
        // Any declared clustering is void once unordered inserts happen.
        self.sort_order.clear();
    }

    /// Appends many rows.
    pub fn extend(&mut self, rows: impl IntoIterator<Item = Row>) {
        for row in rows {
            self.push(row);
        }
    }

    /// Sorts the rows by the given columns and records the clustering, the
    /// relational equivalent of building the clustered B+tree the paper's
    /// prototype relies on.
    pub fn cluster_by(&mut self, columns: &[&str]) {
        let idxs: Vec<usize> = columns
            .iter()
            .map(|c| {
                self.schema.index_of(c).unwrap_or_else(|| {
                    panic!("unknown cluster column `{c}` in table {}", self.name)
                })
            })
            .collect();
        self.rows.sort_by(|a, b| {
            for &i in &idxs {
                let ord = a[i].sql_cmp(&b[i]);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        self.sort_order = idxs;
    }

    /// Returns the distinct values of one column (used by tests/examples).
    pub fn distinct_values(&self, column: &str) -> Vec<Value> {
        let Some(idx) = self.schema.index_of(column) else {
            return Vec::new();
        };
        let mut values: Vec<Value> = self.rows.iter().map(|r| r[idx].clone()).collect();
        values.sort_by(|a, b| a.sql_cmp(b));
        values.dedup_by(|a, b| a.sql_cmp(b) == std::cmp::Ordering::Equal);
        values
    }
}

/// The set of named tables a query can reference.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: HashMap<String, Table>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers (or replaces) a table.
    pub fn register(&mut self, table: Table) {
        self.tables.insert(table.name().to_owned(), table);
    }

    /// Looks a table up by name (case-insensitive).
    pub fn get(&self, name: &str) -> Option<&Table> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    /// Removes a table, returning it if it existed.
    pub fn remove(&mut self, name: &str) -> Option<Table> {
        self.tables.remove(&name.to_ascii_lowercase())
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// `true` when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::new("Edge", Schema::new(vec!["label", "src", "dst"]));
        t.push(vec!["knows".into(), 2u32.into(), 3u32.into()]);
        t.push(vec!["knows".into(), 1u32.into(), 2u32.into()]);
        t.push(vec!["worksFor".into(), 1u32.into(), 9u32.into()]);
        t
    }

    #[test]
    fn schema_lookup_is_case_insensitive() {
        let s = Schema::new(vec!["Path", "SRC", "dst"]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.index_of("path"), Some(0));
        assert_eq!(s.index_of("Src"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.name_at(2), "dst");
        assert_eq!(s.to_string(), "(path, src, dst)");
    }

    #[test]
    fn table_push_and_cluster() {
        let mut t = sample_table();
        assert_eq!(t.name(), "edge");
        assert_eq!(t.len(), 3);
        assert!(t.sort_order().is_empty());
        t.cluster_by(&["label", "src"]);
        assert_eq!(t.sort_order(), &[0, 1]);
        let first = &t.rows()[0];
        assert_eq!(
            first[1].as_int(),
            Some(1),
            "clustered order starts at knows,1"
        );
        // A later push voids the clustering.
        t.push(vec!["knows".into(), 0u32.into(), 0u32.into()]);
        assert!(t.sort_order().is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = sample_table();
        t.push(vec![Value::Int(1)]);
    }

    #[test]
    fn distinct_values_sorted() {
        let t = sample_table();
        let labels = t.distinct_values("label");
        assert_eq!(labels, vec![Value::text("knows"), Value::text("worksFor")]);
        assert!(t.distinct_values("nope").is_empty());
    }

    #[test]
    fn catalog_register_lookup_remove() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        c.register(sample_table());
        assert_eq!(c.len(), 1);
        assert!(c.get("EDGE").is_some());
        assert_eq!(c.table_names(), vec!["edge"]);
        assert!(c.remove("edge").is_some());
        assert!(c.get("edge").is_none());
    }
}
