//! Physical plan representation.

use pathix_exec::{ScanOrientation, Sortedness};
use pathix_rpq::LabelPath;

/// The join algorithm chosen for a composition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgorithm {
    /// Merge join — requires the left input sorted by target and the right
    /// input sorted by source.
    Merge,
    /// Hash join — no order requirements; the right input is built into a
    /// hash table.
    Hash,
}

/// A physical execution plan for an RPQ (or one of its disjuncts).
///
/// Composing two leaf scans flips the left one to its inverse path so both
/// inputs arrive sorted on the shared middle node — the paper's trick for
/// getting a merge join out of one `(source, target)`-ordered index:
///
/// ```
/// use pathix_exec::ScanOrientation;
/// use pathix_graph::{LabelId, SignedLabel};
/// use pathix_plan::{JoinAlgorithm, PhysicalPlan};
///
/// let (a, b) = (SignedLabel::forward(LabelId(0)), SignedLabel::forward(LabelId(1)));
/// let join = PhysicalPlan::compose(PhysicalPlan::scan(vec![a, b]), PhysicalPlan::scan(vec![a]));
/// let PhysicalPlan::Join { algorithm, left, right } = &join else {
///     panic!("compose builds a join");
/// };
/// assert_eq!(*algorithm, JoinAlgorithm::Merge);
/// assert!(matches!(
///     &**left,
///     PhysicalPlan::IndexScan { path, orientation: ScanOrientation::Inverse } if path[..] == [a, b]
/// ));
/// assert!(matches!(&**right, PhysicalPlan::IndexScan { orientation: ScanOrientation::Forward, .. }));
///
/// // A join's output is unsorted, so stacking another one on top hashes.
/// let deeper = PhysicalPlan::compose(join.clone(), PhysicalPlan::scan(vec![b]));
/// assert_eq!((deeper.join_count(), deeper.merge_join_count()), (2, 1));
/// let union = PhysicalPlan::Union(vec![join, PhysicalPlan::Epsilon]);
/// assert_eq!(union.join_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhysicalPlan {
    /// A prefix scan of the k-path index for one label path of length ≤ k.
    IndexScan {
        /// The label path to scan (in its semantic, non-inverted form).
        path: LabelPath,
        /// Whether the scan reads `p` or `p⁻` (target-sorted).
        orientation: ScanOrientation,
    },
    /// The identity relation ε.
    Epsilon,
    /// Composition of two sub-plans on their shared middle node.
    Join {
        /// Merge or hash.
        algorithm: JoinAlgorithm,
        /// Producer of the path prefix.
        left: Box<PhysicalPlan>,
        /// Producer of the path suffix.
        right: Box<PhysicalPlan>,
    },
    /// Union of the plans of all disjuncts (set semantics restored by the
    /// executor's final distinct).
    Union(Vec<PhysicalPlan>),
}

impl PhysicalPlan {
    /// A forward index scan leaf.
    pub fn scan(path: LabelPath) -> PhysicalPlan {
        PhysicalPlan::IndexScan {
            path,
            orientation: ScanOrientation::Forward,
        }
    }

    /// The order in which this plan emits pairs.
    pub fn sortedness(&self) -> Sortedness {
        match self {
            PhysicalPlan::IndexScan { orientation, .. } => match orientation {
                ScanOrientation::Forward => Sortedness::BySource,
                ScanOrientation::Inverse => Sortedness::ByTarget,
            },
            PhysicalPlan::Epsilon => Sortedness::Both,
            PhysicalPlan::Join { .. } | PhysicalPlan::Union(_) => Sortedness::Unsorted,
        }
    }

    /// Composes two plans on their shared middle node, flipping the
    /// orientation of leaf index scans so that a merge join can be used
    /// whenever possible (the paper's "invert the sub-expression to obtain
    /// the correct sort order"), and falling back to a hash join otherwise.
    pub fn compose(left: PhysicalPlan, right: PhysicalPlan) -> PhysicalPlan {
        let left = left.oriented_for_target();
        let right = right.oriented_for_source();
        let algorithm = if left.sortedness().is_by_target() && right.sortedness().is_by_source() {
            JoinAlgorithm::Merge
        } else {
            JoinAlgorithm::Hash
        };
        PhysicalPlan::Join {
            algorithm,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Re-orients a leaf scan so its output is target-sorted (scan `p⁻`).
    fn oriented_for_target(self) -> PhysicalPlan {
        match self {
            PhysicalPlan::IndexScan { path, .. } => PhysicalPlan::IndexScan {
                path,
                orientation: ScanOrientation::Inverse,
            },
            other => other,
        }
    }

    /// Re-orients a leaf scan so its output is source-sorted (scan `p`).
    fn oriented_for_source(self) -> PhysicalPlan {
        match self {
            PhysicalPlan::IndexScan { path, .. } => PhysicalPlan::IndexScan {
                path,
                orientation: ScanOrientation::Forward,
            },
            other => other,
        }
    }

    /// Total number of joins in the plan.
    pub fn join_count(&self) -> usize {
        match self {
            PhysicalPlan::IndexScan { .. } | PhysicalPlan::Epsilon => 0,
            PhysicalPlan::Join { left, right, .. } => 1 + left.join_count() + right.join_count(),
            PhysicalPlan::Union(children) => children.iter().map(PhysicalPlan::join_count).sum(),
        }
    }

    /// Number of merge joins in the plan.
    pub fn merge_join_count(&self) -> usize {
        match self {
            PhysicalPlan::IndexScan { .. } | PhysicalPlan::Epsilon => 0,
            PhysicalPlan::Join {
                algorithm,
                left,
                right,
            } => {
                usize::from(*algorithm == JoinAlgorithm::Merge)
                    + left.merge_join_count()
                    + right.merge_join_count()
            }
            PhysicalPlan::Union(children) => {
                children.iter().map(PhysicalPlan::merge_join_count).sum()
            }
        }
    }

    /// Number of index-scan leaves in the plan.
    pub fn scan_count(&self) -> usize {
        match self {
            PhysicalPlan::IndexScan { .. } => 1,
            PhysicalPlan::Epsilon => 0,
            PhysicalPlan::Join { left, right, .. } => left.scan_count() + right.scan_count(),
            PhysicalPlan::Union(children) => children.iter().map(PhysicalPlan::scan_count).sum(),
        }
    }

    /// Length of the longest label path scanned by any leaf.
    pub fn max_scanned_path_len(&self) -> usize {
        match self {
            PhysicalPlan::IndexScan { path, .. } => path.len(),
            PhysicalPlan::Epsilon => 0,
            PhysicalPlan::Join { left, right, .. } => left
                .max_scanned_path_len()
                .max(right.max_scanned_path_len()),
            PhysicalPlan::Union(children) => children
                .iter()
                .map(PhysicalPlan::max_scanned_path_len)
                .max()
                .unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathix_graph::SignedLabel;

    fn p(codes: &[u16]) -> LabelPath {
        codes.iter().map(|&c| SignedLabel::from_code(c)).collect()
    }

    #[test]
    fn compose_two_scans_is_a_merge_join() {
        let plan = PhysicalPlan::compose(PhysicalPlan::scan(p(&[0])), PhysicalPlan::scan(p(&[2])));
        match &plan {
            PhysicalPlan::Join {
                algorithm,
                left,
                right,
            } => {
                assert_eq!(*algorithm, JoinAlgorithm::Merge);
                assert_eq!(left.sortedness(), Sortedness::ByTarget);
                assert_eq!(right.sortedness(), Sortedness::BySource);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(plan.join_count(), 1);
        assert_eq!(plan.merge_join_count(), 1);
        assert_eq!(plan.scan_count(), 2);
    }

    #[test]
    fn compose_with_intermediate_result_is_a_hash_join() {
        let inner = PhysicalPlan::compose(PhysicalPlan::scan(p(&[0])), PhysicalPlan::scan(p(&[2])));
        let outer = PhysicalPlan::compose(inner, PhysicalPlan::scan(p(&[4])));
        match &outer {
            PhysicalPlan::Join { algorithm, .. } => assert_eq!(*algorithm, JoinAlgorithm::Hash),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(outer.join_count(), 2);
        assert_eq!(outer.merge_join_count(), 1);
    }

    #[test]
    fn compose_scan_with_epsilon_still_merges() {
        // Epsilon is sorted both ways, so it satisfies either side.
        let plan = PhysicalPlan::compose(PhysicalPlan::Epsilon, PhysicalPlan::scan(p(&[0])));
        match &plan {
            PhysicalPlan::Join { algorithm, .. } => assert_eq!(*algorithm, JoinAlgorithm::Merge),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn counters_on_union_plans() {
        let d1 = PhysicalPlan::compose(PhysicalPlan::scan(p(&[0, 2])), PhysicalPlan::scan(p(&[4])));
        let d2 = PhysicalPlan::scan(p(&[0]));
        let union = PhysicalPlan::Union(vec![d1, d2, PhysicalPlan::Epsilon]);
        assert_eq!(union.join_count(), 1);
        assert_eq!(union.scan_count(), 3);
        assert_eq!(union.max_scanned_path_len(), 2);
        assert_eq!(union.sortedness(), Sortedness::Unsorted);
    }
}
