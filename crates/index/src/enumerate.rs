//! Enumeration of all label-path relations of length ≤ k.
//!
//! Index construction computes, level by level, the relation `p(G)` for every
//! label path `p` over the signed alphabet with `|p| ≤ k`:
//!
//! * level 1 is the edge relations themselves (and their converses),
//! * level n extends every level-(n−1) relation by one signed label through
//!   the graph's CSR adjacency, then sorts and deduplicates.
//!
//! Since `p⁻(G)` is exactly the converse of `p(G)`, only the
//! lexicographically canonical member of each `{p, p⁻}` pair is computed by a
//! join; the mirror is derived by swapping pair components, halving the
//! construction work.

use pathix_graph::{Graph, NodeId, SignedLabel};
use pathix_rpq::ast::inverse_path;
use std::cmp::Ordering;

/// A label path together with its materialized pair relation
/// (sorted by `(source, target)` and duplicate-free).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathRelation {
    /// The label path `p`.
    pub path: Vec<SignedLabel>,
    /// The relation `p(G)`.
    pub pairs: Vec<(NodeId, NodeId)>,
}

/// Computes `p(G)` for every non-empty label path `p` with `|p| ≤ k` and
/// `p(G) ≠ ∅`.
///
/// The result is ordered by increasing path length, then by path; every
/// `pairs` vector is sorted by `(source, target)`.
pub fn enumerate_paths(graph: &Graph, k: usize) -> Vec<PathRelation> {
    assert!(k >= 1, "the k-path index requires k ≥ 1");
    let mut result: Vec<PathRelation> = Vec::new();

    // Level 1: the signed edge relations.
    let mut prev: Vec<PathRelation> = graph
        .signed_labels()
        .filter_map(|sl| {
            let pairs = graph.signed_pairs(sl);
            if pairs.is_empty() {
                None
            } else {
                Some(PathRelation {
                    path: vec![sl],
                    pairs,
                })
            }
        })
        .collect();

    for _level in 2..=k {
        let mut next: Vec<PathRelation> = Vec::new();
        for base in &prev {
            for sl in graph.signed_labels() {
                let mut path = base.path.clone();
                path.push(sl);
                let inv = inverse_path(&path);
                if path.cmp(&inv) == Ordering::Greater {
                    // The mirror of the canonical path will cover this one.
                    continue;
                }
                let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
                for &(a, b) in &base.pairs {
                    for c in graph.neighbors(b, sl) {
                        pairs.push((a, c));
                    }
                }
                pairs.sort_unstable();
                pairs.dedup();
                if pairs.is_empty() {
                    continue;
                }
                if path != inv {
                    let mut mirror: Vec<(NodeId, NodeId)> =
                        pairs.iter().map(|&(a, b)| (b, a)).collect();
                    mirror.sort_unstable();
                    next.push(PathRelation {
                        path: inv,
                        pairs: mirror,
                    });
                }
                next.push(PathRelation { path, pairs });
            }
        }
        next.sort_by(|a, b| a.path.cmp(&b.path));
        result.append(&mut prev);
        prev = next;
    }
    result.append(&mut prev);
    result.sort_by(|a, b| (a.path.len(), &a.path).cmp(&(b.path.len(), &b.path)));
    result
}

/// Reference evaluation of a single label path directly over the graph, used
/// as a test oracle and by the naive baseline paths.
///
/// The empty path evaluates to the identity relation over all nodes.
pub fn naive_path_eval(graph: &Graph, path: &[SignedLabel]) -> Vec<(NodeId, NodeId)> {
    if path.is_empty() {
        return graph.nodes().map(|n| (n, n)).collect();
    }
    let mut pairs: Vec<(NodeId, NodeId)> = graph.signed_pairs(path[0]);
    for &sl in &path[1..] {
        let mut next: Vec<(NodeId, NodeId)> = Vec::new();
        for &(a, b) in &pairs {
            for c in graph.neighbors(b, sl) {
                next.push((a, c));
            }
        }
        next.sort_unstable();
        next.dedup();
        pairs = next;
        if pairs.is_empty() {
            break;
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathix_datagen::paper_example_graph;
    use std::collections::HashSet;

    #[test]
    fn level_one_matches_edge_relations() {
        let g = paper_example_graph();
        let rels = enumerate_paths(&g, 1);
        // Three labels, both directions, all non-empty.
        assert_eq!(rels.len(), 6);
        for rel in &rels {
            assert_eq!(rel.path.len(), 1);
            assert_eq!(rel.pairs, g.signed_pairs(rel.path[0]));
        }
    }

    #[test]
    fn relations_match_naive_reference() {
        let g = paper_example_graph();
        let rels = enumerate_paths(&g, 3);
        for rel in &rels {
            let expected = naive_path_eval(&g, &rel.path);
            assert_eq!(rel.pairs, expected, "mismatch for path {:?}", rel.path);
        }
    }

    #[test]
    fn every_nonempty_path_up_to_k_is_present() {
        let g = paper_example_graph();
        let k = 2;
        let rels = enumerate_paths(&g, k);
        let present: HashSet<Vec<SignedLabel>> = rels.iter().map(|r| r.path.clone()).collect();
        // Exhaustively enumerate all signed label sequences of length ≤ k and
        // verify presence iff non-empty.
        let alphabet: Vec<SignedLabel> = g.signed_labels().collect();
        let mut all_paths: Vec<Vec<SignedLabel>> = alphabet.iter().map(|&sl| vec![sl]).collect();
        let singles = all_paths.clone();
        for _ in 1..k {
            let mut next = Vec::new();
            for p in &all_paths {
                for &sl in &alphabet {
                    let mut q = p.clone();
                    q.push(sl);
                    next.push(q);
                }
            }
            all_paths = next;
        }
        all_paths.extend(singles);
        for p in all_paths {
            let expected = naive_path_eval(&g, &p);
            assert_eq!(
                present.contains(&p),
                !expected.is_empty(),
                "presence mismatch for {p:?}"
            );
        }
    }

    #[test]
    fn mirror_paths_have_converse_relations() {
        let g = paper_example_graph();
        let rels = enumerate_paths(&g, 3);
        let by_path: std::collections::HashMap<_, _> =
            rels.iter().map(|r| (r.path.clone(), &r.pairs)).collect();
        for rel in &rels {
            let inv = inverse_path(&rel.path);
            let mirror = by_path
                .get(&inv)
                .unwrap_or_else(|| panic!("missing mirror of {:?}", rel.path));
            let mut expected: Vec<(NodeId, NodeId)> =
                rel.pairs.iter().map(|&(a, b)| (b, a)).collect();
            expected.sort_unstable();
            assert_eq!(**mirror, expected);
        }
    }

    #[test]
    fn pairs_are_sorted_and_unique() {
        let g = paper_example_graph();
        for rel in enumerate_paths(&g, 3) {
            assert!(rel.pairs.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn empty_path_reference_is_identity() {
        let g = paper_example_graph();
        let id = naive_path_eval(&g, &[]);
        assert_eq!(id.len(), g.node_count());
        assert!(id.iter().all(|&(a, b)| a == b));
    }

    #[test]
    #[should_panic(expected = "k ≥ 1")]
    fn k_zero_is_rejected() {
        let g = paper_example_graph();
        let _ = enumerate_paths(&g, 0);
    }
}
