//! Directed acyclic graphs.

use crate::nodeset::NodeSet;
use crate::pdag::Pdag;

/// A directed acyclic graph over nodes `0..n`.
///
/// In the SEM interpretation (Def. 4.3 of the paper), nodes are attributes
/// and an edge `u → v` says `u` is an argument of the deterministic function
/// generating `v`. Parent sets are what the synthesis pipeline ultimately
/// consumes: `GIVEN Pa(v) ON v HAVING □`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Dag {
    n: usize,
    parents: Vec<NodeSet>,
    children: Vec<NodeSet>,
}

impl Dag {
    /// Creates an edgeless DAG with `n` nodes.
    pub fn new(n: usize) -> Self {
        assert!(n <= crate::MAX_NODES, "at most {} nodes supported", crate::MAX_NODES);
        Self { n, parents: vec![NodeSet::EMPTY; n], children: vec![NodeSet::EMPTY; n] }
    }

    /// Builds a DAG from `(from, to)` edges; `Err` if a cycle results.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, CycleError> {
        let mut g = Dag::new(n);
        for &(u, v) in edges {
            g.add_edge_unchecked(u, v);
        }
        if g.topological_order().is_none() {
            return Err(CycleError);
        }
        Ok(g)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.children.iter().map(|c| c.len()).sum()
    }

    /// Adds `u → v` without cycle checking (caller guarantees acyclicity or
    /// validates afterwards via [`Dag::topological_order`]).
    pub fn add_edge_unchecked(&mut self, u: usize, v: usize) {
        assert!(u < self.n && v < self.n, "edge ({u},{v}) out of range");
        assert_ne!(u, v, "self loops are not allowed");
        self.children[u].insert(v);
        self.parents[v].insert(u);
    }

    /// `true` when the directed edge `u → v` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.children[u].contains(v)
    }

    /// Parent set of `v`.
    pub fn parents(&self, v: usize) -> NodeSet {
        self.parents[v]
    }

    /// Child set of `u`.
    pub fn children(&self, u: usize) -> NodeSet {
        self.children[u]
    }

    /// Nodes adjacent to `v` in either direction.
    pub fn adjacent(&self, v: usize) -> NodeSet {
        self.parents[v].union(self.children[v])
    }

    /// All edges as `(from, to)` pairs, ordered by `(from, to)`.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.num_edges());
        for u in 0..self.n {
            for v in self.children[u].iter() {
                out.push((u, v));
            }
        }
        out
    }

    /// `true` when `to` is reachable from `from` by directed paths (including
    /// `from == to`).
    pub fn reachable(&self, from: usize, to: usize) -> bool {
        if from == to {
            return true;
        }
        let mut visited = NodeSet::singleton(from);
        let mut stack = vec![from];
        while let Some(u) = stack.pop() {
            for v in self.children[u].iter() {
                if v == to {
                    return true;
                }
                if !visited.contains(v) {
                    visited.insert(v);
                    stack.push(v);
                }
            }
        }
        false
    }

    /// All ancestors of `v` (not including `v`).
    pub fn ancestors(&self, v: usize) -> NodeSet {
        let mut anc = NodeSet::EMPTY;
        let mut stack: Vec<usize> = self.parents[v].iter().collect();
        while let Some(u) = stack.pop() {
            if !anc.contains(u) {
                anc.insert(u);
                stack.extend(self.parents[u].iter());
            }
        }
        anc
    }

    /// A topological order, or `None` if the graph has a cycle (possible only
    /// if built via [`Dag::add_edge_unchecked`]).
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let mut in_degree: Vec<usize> = (0..self.n).map(|v| self.parents[v].len()).collect();
        let mut queue: Vec<usize> = (0..self.n).filter(|&v| in_degree[v] == 0).collect();
        let mut order = Vec::with_capacity(self.n);
        while let Some(u) = queue.pop() {
            order.push(u);
            for v in self.children[u].iter() {
                in_degree[v] -= 1;
                if in_degree[v] == 0 {
                    queue.push(v);
                }
            }
        }
        if order.len() == self.n {
            Some(order)
        } else {
            None
        }
    }

    /// The v-structures (immoralities) of this DAG: triples `(a, c, b)` with
    /// `a → c ← b`, `a < b`, and `a`, `b` nonadjacent.
    pub fn v_structures(&self) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        for c in 0..self.n {
            let pa: Vec<usize> = self.parents[c].iter().collect();
            for (i, &a) in pa.iter().enumerate() {
                for &b in &pa[i + 1..] {
                    if !self.adjacent(a).contains(b) {
                        out.push((a, c, b));
                    }
                }
            }
        }
        out
    }

    /// The CPDAG representing this DAG's Markov equivalence class: keep the
    /// skeleton, orient the v-structures, and close under Meek's rules.
    pub fn to_cpdag(&self) -> Pdag {
        let mut pdag = Pdag::new(self.n);
        for (u, v) in self.edges() {
            pdag.add_undirected(u, v);
        }
        for (a, c, b) in self.v_structures() {
            pdag.orient(a, c);
            pdag.orient(b, c);
        }
        pdag.meek_closure();
        pdag
    }

    /// `true` when `other` is Markov equivalent to `self` (same skeleton and
    /// same v-structures — the Verma–Pearl criterion).
    pub fn markov_equivalent(&self, other: &Dag) -> bool {
        if self.n != other.n {
            return false;
        }
        let skel = |g: &Dag| {
            let mut edges: Vec<(usize, usize)> =
                g.edges().into_iter().map(|(u, v)| (u.min(v), u.max(v))).collect();
            edges.sort_unstable();
            edges
        };
        if skel(self) != skel(other) {
            return false;
        }
        let mut v1 = self.v_structures();
        let mut v2 = other.v_structures();
        v1.sort_unstable();
        v2.sort_unstable();
        v1 == v2
    }
}

/// Error returned when an operation would create (or detected) a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleError;

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("operation would create a directed cycle")
    }
}

impl std::error::Error for CycleError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// The chain PostalCode → City → State → Country from Example 3.1.
    fn chain4() -> Dag {
        Dag::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn construction_and_queries() {
        let g = chain4();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.parents(2), NodeSet::singleton(1));
        assert_eq!(g.children(1), NodeSet::singleton(2));
        assert_eq!(g.adjacent(1), NodeSet::from_iter([0, 2]));
    }

    #[test]
    fn cycle_rejected() {
        assert!(Dag::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).is_err());
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = chain4();
        let order = g.topological_order().unwrap();
        let pos: Vec<usize> = (0..4).map(|v| order.iter().position(|&x| x == v).unwrap()).collect();
        assert!(pos[0] < pos[1] && pos[1] < pos[2] && pos[2] < pos[3]);
    }

    #[test]
    fn ancestors_and_reachability() {
        let g = chain4();
        assert_eq!(g.ancestors(3), NodeSet::from_iter([0, 1, 2]));
        assert_eq!(g.ancestors(0), NodeSet::EMPTY);
        assert!(g.reachable(0, 3));
        assert!(!g.reachable(3, 0));
    }

    #[test]
    fn v_structure_detection() {
        // a → c ← b collider.
        let g = Dag::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        assert_eq!(g.v_structures(), vec![(0, 2, 1)]);
        // chain has no v-structures.
        assert!(chain4().v_structures().is_empty());
        // shielded collider is not a v-structure.
        let shielded = Dag::from_edges(3, &[(0, 2), (1, 2), (0, 1)]).unwrap();
        assert!(shielded.v_structures().is_empty());
    }

    #[test]
    fn markov_equivalence() {
        // X → Y and Y → X are equivalent (no colliders).
        let a = Dag::from_edges(2, &[(0, 1)]).unwrap();
        let b = Dag::from_edges(2, &[(1, 0)]).unwrap();
        assert!(a.markov_equivalent(&b));
        // Collider vs chain on 3 nodes are NOT equivalent.
        let collider = Dag::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let chain = Dag::from_edges(3, &[(0, 2), (2, 1)]).unwrap();
        assert!(!collider.markov_equivalent(&chain));
    }

    #[test]
    fn chain_cpdag_is_fully_undirected() {
        // A chain's MEC leaves every edge reversible until a collider pins it.
        let pdag = chain4().to_cpdag();
        assert_eq!(pdag.num_undirected_edges(), 3);
        assert_eq!(pdag.num_directed_edges(), 0);
    }

    #[test]
    fn collider_cpdag_keeps_orientation() {
        let g = Dag::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let pdag = g.to_cpdag();
        assert!(pdag.has_directed(0, 2));
        assert!(pdag.has_directed(1, 2));
        assert_eq!(pdag.num_undirected_edges(), 0);
    }
}
