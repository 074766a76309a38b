//! Compact identifiers for nodes, labels and signed (directed) labels.
//!
//! The paper's RPQ alphabet is `{ℓ, ℓ⁻ | ℓ ∈ L}`: every edge label can be
//! traversed forwards or backwards. [`SignedLabel`] packs a [`LabelId`]
//! together with a [`Direction`] into a single `u32` whose numeric order is
//! `(label, direction)` — this ordering is what the k-path index key encoding
//! relies on.

use std::fmt;

/// Dense identifier of a node in a [`crate::Graph`].
///
/// Node ids are assigned contiguously from zero in insertion order by
/// [`crate::GraphBuilder`]; a graph with `n` nodes uses ids `0..n`.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the raw index for direct use in vectors sized by node count.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Dense identifier of an edge label (an element of the vocabulary `L`).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelId(pub u16);

impl LabelId {
    /// Returns the raw index for direct use in vectors sized by label count.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for LabelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl From<u16> for LabelId {
    fn from(v: u16) -> Self {
        LabelId(v)
    }
}

/// Traversal direction of a label occurrence inside a label path.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Direction {
    /// Follow an edge from its source to its target (`ℓ`).
    Forward,
    /// Follow an edge from its target back to its source (`ℓ⁻`).
    Backward,
}

impl Direction {
    /// Flips the direction (`ℓ` ↔ `ℓ⁻`).
    #[inline]
    pub fn inverse(self) -> Direction {
        match self {
            Direction::Forward => Direction::Backward,
            Direction::Backward => Direction::Forward,
        }
    }

    /// `true` for [`Direction::Backward`].
    #[inline]
    pub fn is_backward(self) -> bool {
        matches!(self, Direction::Backward)
    }
}

/// An edge label together with a traversal direction: the atoms `ℓ` / `ℓ⁻`
/// of the paper's label paths.
///
/// `SignedLabel` is `Copy`, small (4 bytes) and totally ordered by
/// `(label, direction)` with `Forward < Backward`, which makes sequences of
/// signed labels directly usable as ordered index-key components.
///
/// ```
/// use pathix_graph::{LabelId, SignedLabel};
///
/// let (knows, likes) = (LabelId(0), LabelId(1));
/// let fwd = SignedLabel::forward(knows);
/// assert_eq!(fwd.inverse(), SignedLabel::backward(knows));
/// assert_eq!(fwd.inverse().inverse(), fwd);
/// assert!(fwd.inverse().is_backward() && !fwd.is_backward());
/// // Ordered by (label, direction), forward first — and `code` keeps that order.
/// let ordered = [fwd, fwd.inverse(), likes.into(), SignedLabel::backward(likes)];
/// assert!(ordered.windows(2).all(|w| w[0] < w[1] && w[0].code() < w[1].code()));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignedLabel {
    /// The underlying vocabulary label.
    pub label: LabelId,
    /// Whether the label is traversed forwards or backwards.
    pub direction: Direction,
}

impl SignedLabel {
    /// Forward occurrence `ℓ`.
    #[inline]
    pub fn forward(label: LabelId) -> Self {
        SignedLabel {
            label,
            direction: Direction::Forward,
        }
    }

    /// Backward occurrence `ℓ⁻`.
    #[inline]
    pub fn backward(label: LabelId) -> Self {
        SignedLabel {
            label,
            direction: Direction::Backward,
        }
    }

    /// The same label traversed in the opposite direction.
    #[inline]
    pub fn inverse(self) -> Self {
        SignedLabel {
            label: self.label,
            direction: self.direction.inverse(),
        }
    }

    /// `true` if this is a backward (`ℓ⁻`) occurrence.
    #[inline]
    pub fn is_backward(self) -> bool {
        self.direction.is_backward()
    }

    /// Packs the signed label into a `u16` preserving the `(label, direction)`
    /// order: `label << 1 | backward_bit`.
    ///
    /// Panics in debug builds if the label id does not fit in 15 bits; the
    /// dictionary enforces this bound at interning time.
    #[inline]
    pub fn code(self) -> u16 {
        debug_assert!(self.label.0 < (1 << 15), "label id out of range");
        (self.label.0 << 1) | (self.is_backward() as u16)
    }

    /// Reverses [`SignedLabel::code`].
    #[inline]
    pub fn from_code(code: u16) -> Self {
        let label = LabelId(code >> 1);
        if code & 1 == 1 {
            SignedLabel::backward(label)
        } else {
            SignedLabel::forward(label)
        }
    }
}

impl fmt::Debug for SignedLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.direction {
            Direction::Forward => write!(f, "l{}", self.label.0),
            Direction::Backward => write!(f, "l{}~", self.label.0),
        }
    }
}

impl From<LabelId> for SignedLabel {
    /// A bare label converts to its forward occurrence `ℓ`.
    fn from(label: LabelId) -> Self {
        SignedLabel::forward(label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_index_roundtrip() {
        let n = NodeId(42);
        assert_eq!(n.index(), 42);
        assert_eq!(NodeId::from(42u32), n);
        assert_eq!(format!("{n}"), "42");
        assert_eq!(format!("{n:?}"), "n42");
    }

    #[test]
    fn label_id_index() {
        let l = LabelId(7);
        assert_eq!(l.index(), 7);
        assert_eq!(LabelId::from(7u16), l);
    }

    #[test]
    fn direction_inverse_is_involution() {
        assert_eq!(Direction::Forward.inverse(), Direction::Backward);
        assert_eq!(Direction::Backward.inverse(), Direction::Forward);
        assert_eq!(Direction::Forward.inverse().inverse(), Direction::Forward);
    }

    #[test]
    fn signed_label_inverse_is_involution() {
        let l = SignedLabel::forward(LabelId(3));
        assert_eq!(l.inverse().inverse(), l);
        assert!(l.inverse().is_backward());
        assert!(!l.is_backward());
    }

    #[test]
    fn signed_label_code_roundtrip() {
        for raw in 0..100u16 {
            for dir in [Direction::Forward, Direction::Backward] {
                let sl = SignedLabel {
                    label: LabelId(raw),
                    direction: dir,
                };
                assert_eq!(SignedLabel::from_code(sl.code()), sl);
            }
        }
    }

    #[test]
    fn signed_label_code_preserves_order() {
        let a = SignedLabel::forward(LabelId(1));
        let b = SignedLabel::backward(LabelId(1));
        let c = SignedLabel::forward(LabelId(2));
        assert!(a < b && b < c);
        assert!(a.code() < b.code() && b.code() < c.code());
    }

    #[test]
    fn signed_label_ordering_matches_tuple_ordering() {
        let mut labels: Vec<SignedLabel> = Vec::new();
        for raw in 0..8u16 {
            labels.push(SignedLabel::forward(LabelId(raw)));
            labels.push(SignedLabel::backward(LabelId(raw)));
        }
        let mut by_ord = labels.clone();
        by_ord.sort();
        let mut by_code = labels;
        by_code.sort_by_key(|sl| sl.code());
        assert_eq!(by_ord, by_code);
    }
}
