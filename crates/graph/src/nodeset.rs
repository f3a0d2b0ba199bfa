//! Fixed-capacity node sets backed by a `u128` bitmask.

use std::fmt;

/// A set of node indices in `0..128`.
///
/// All graph algorithms in this crate are over attribute graphs (≤ 40 nodes
/// in the paper's datasets), so a single `u128` word gives O(1) union /
/// intersection / membership with no allocation — the dominant operations in
/// Meek-rule closure and extension enumeration.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct NodeSet(u128);

impl NodeSet {
    /// The empty set.
    pub const EMPTY: NodeSet = NodeSet(0);

    /// Set containing a single node.
    pub fn singleton(node: usize) -> Self {
        assert!(node < 128, "node index {node} out of range");
        NodeSet(1u128 << node)
    }

    /// Set containing all nodes in `0..n`.
    pub fn full(n: usize) -> Self {
        assert!(n <= 128, "capacity is 128 nodes");
        if n == 128 {
            NodeSet(u128::MAX)
        } else {
            NodeSet((1u128 << n) - 1)
        }
    }

    /// Builds a set from an iterator of node indices.
    ///
    /// Inherent (rather than only the [`FromIterator`] impl) so call sites
    /// don't need the trait in scope.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = NodeSet::EMPTY;
        for i in iter {
            s.insert(i);
        }
        s
    }

    /// Membership test.
    pub fn contains(&self, node: usize) -> bool {
        node < 128 && self.0 & (1u128 << node) != 0
    }

    /// Inserts a node.
    pub fn insert(&mut self, node: usize) {
        assert!(node < 128, "node index {node} out of range");
        self.0 |= 1u128 << node;
    }

    /// Removes a node.
    pub fn remove(&mut self, node: usize) {
        if node < 128 {
            self.0 &= !(1u128 << node);
        }
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Union.
    pub fn union(&self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 | other.0)
    }

    /// Intersection.
    pub fn intersection(&self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 & !other.0)
    }

    /// Iterates node indices in ascending order.
    pub fn iter(&self) -> NodeSetIter {
        NodeSetIter(self.0)
    }

    /// The largest node in the set, if any.
    pub fn last_node(&self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            Some(127 - self.0.leading_zeros() as usize)
        }
    }

    /// All subsets of this set with exactly `k` elements.
    ///
    /// Used by the PC algorithm to enumerate conditioning sets of growing
    /// size from the adjacency of an edge.
    pub fn subsets_of_size(&self, k: usize) -> Vec<NodeSet> {
        let items: Vec<usize> = self.iter().collect();
        let mut out = Vec::new();
        if k > items.len() {
            return out;
        }
        let mut idx: Vec<usize> = (0..k).collect();
        loop {
            out.push(NodeSet::from_iter(idx.iter().map(|&i| items[i])));
            // next combination
            let mut i = k;
            loop {
                if i == 0 {
                    return out;
                }
                i -= 1;
                if idx[i] != i + items.len() - k {
                    break;
                }
                if i == 0 {
                    return out;
                }
            }
            idx[i] += 1;
            for j in (i + 1)..k {
                idx[j] = idx[j - 1] + 1;
            }
        }
    }
}

/// Iterator over the indices of a [`NodeSet`].
pub struct NodeSetIter(u128);

impl Iterator for NodeSetIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let i = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(i)
        }
    }
}

impl FromIterator<usize> for NodeSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        NodeSet::from_iter(iter)
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_set_ops() {
        let mut s = NodeSet::EMPTY;
        assert!(s.is_empty());
        s.insert(3);
        s.insert(100);
        assert_eq!(s.len(), 2);
        assert!(s.contains(3));
        assert!(!s.contains(4));
        s.remove(3);
        assert!(!s.contains(3));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![100]);
    }

    #[test]
    fn algebra() {
        let a = NodeSet::from_iter([1, 2, 3]);
        let b = NodeSet::from_iter([3, 4]);
        assert_eq!(a.union(b), NodeSet::from_iter([1, 2, 3, 4]));
        assert_eq!(a.intersection(b), NodeSet::singleton(3));
        assert_eq!(a.difference(b), NodeSet::from_iter([1, 2]));
    }

    #[test]
    fn full_and_min() {
        assert_eq!(NodeSet::full(5).len(), 5);
        assert_eq!(NodeSet::full(128).len(), 128);
        assert_eq!(NodeSet::full(0), NodeSet::EMPTY);
        assert_eq!(NodeSet::from_iter([9, 4, 7]).last_node(), Some(9));
        assert_eq!(NodeSet::singleton(127).last_node(), Some(127));
        assert_eq!(NodeSet::EMPTY.last_node(), None);
    }

    #[test]
    fn subsets_enumeration() {
        let s = NodeSet::from_iter([0, 2, 5]);
        let subs = s.subsets_of_size(2);
        assert_eq!(subs.len(), 3);
        assert!(subs.contains(&NodeSet::from_iter([0, 2])));
        assert!(subs.contains(&NodeSet::from_iter([0, 5])));
        assert!(subs.contains(&NodeSet::from_iter([2, 5])));
        assert_eq!(s.subsets_of_size(0), vec![NodeSet::EMPTY]);
        assert!(s.subsets_of_size(4).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_large_index() {
        NodeSet::singleton(128);
    }
}
