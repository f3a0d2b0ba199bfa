//! Partially directed acyclic graphs (PDAGs / CPDAGs) and Meek-rule closure.

use crate::dag::Dag;
use crate::nodeset::NodeSet;

/// A partially directed graph: a mix of directed (`u → v`) and undirected
/// (`u — v`) edges over nodes `0..n`.
///
/// A **CPDAG** (completed PDAG) is the canonical representation of a Markov
/// equivalence class: directed edges are *compelled* (shared by every DAG in
/// the class), undirected edges are *reversible*. The PC algorithm produces
/// one of these, and Alg. 2 of the paper enumerates its consistent
/// extensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pdag {
    n: usize,
    /// `directed[u]` = children of `u` via directed edges.
    directed: Vec<NodeSet>,
    /// `directed_rev[v]` = parents of `v` via directed edges.
    directed_rev: Vec<NodeSet>,
    /// `undirected[u]` = undirected neighbors of `u` (symmetric).
    undirected: Vec<NodeSet>,
}

impl Pdag {
    /// Creates an edgeless PDAG with `n` nodes.
    pub fn new(n: usize) -> Self {
        assert!(n <= crate::MAX_NODES, "at most {} nodes supported", crate::MAX_NODES);
        Self {
            n,
            directed: vec![NodeSet::EMPTY; n],
            directed_rev: vec![NodeSet::EMPTY; n],
            undirected: vec![NodeSet::EMPTY; n],
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Adds an undirected edge `u — v` (idempotent; replaces any directed
    /// edge between the pair).
    pub fn add_undirected(&mut self, u: usize, v: usize) {
        assert!(u < self.n && v < self.n, "edge ({u},{v}) out of range");
        assert_ne!(u, v, "self loops are not allowed");
        self.directed[u].remove(v);
        self.directed[v].remove(u);
        self.directed_rev[u].remove(v);
        self.directed_rev[v].remove(u);
        self.undirected[u].insert(v);
        self.undirected[v].insert(u);
    }

    /// Adds a directed edge `u → v` (idempotent; replaces any undirected edge
    /// between the pair).
    pub fn add_directed(&mut self, u: usize, v: usize) {
        assert!(u < self.n && v < self.n, "edge ({u},{v}) out of range");
        assert_ne!(u, v, "self loops are not allowed");
        self.undirected[u].remove(v);
        self.undirected[v].remove(u);
        self.directed[u].insert(v);
        self.directed_rev[v].insert(u);
    }

    /// Orients the existing edge between `u` and `v` as `u → v`.
    ///
    /// # Panics
    /// Panics if no edge exists between the pair.
    pub fn orient(&mut self, u: usize, v: usize) {
        assert!(
            self.has_undirected(u, v) || self.has_directed(u, v) || self.has_directed(v, u),
            "no edge between {u} and {v} to orient"
        );
        self.undirected[u].remove(v);
        self.undirected[v].remove(u);
        self.directed[v].remove(u);
        self.directed_rev[u].remove(v);
        self.directed[u].insert(v);
        self.directed_rev[v].insert(u);
    }

    /// Removes any edge between `u` and `v`.
    pub fn remove_edge(&mut self, u: usize, v: usize) {
        self.undirected[u].remove(v);
        self.undirected[v].remove(u);
        self.directed[u].remove(v);
        self.directed_rev[v].remove(u);
        self.directed[v].remove(u);
        self.directed_rev[u].remove(v);
    }

    /// `true` when the directed edge `u → v` exists.
    pub fn has_directed(&self, u: usize, v: usize) -> bool {
        self.directed[u].contains(v)
    }

    /// `true` when the undirected edge `u — v` exists.
    pub fn has_undirected(&self, u: usize, v: usize) -> bool {
        self.undirected[u].contains(v)
    }

    /// `true` when any edge connects `u` and `v`.
    pub fn adjacent(&self, u: usize, v: usize) -> bool {
        self.has_undirected(u, v) || self.has_directed(u, v) || self.has_directed(v, u)
    }

    /// All nodes adjacent to `v` by any edge type.
    pub fn neighbors(&self, v: usize) -> NodeSet {
        self.undirected[v].union(self.directed[v]).union(self.directed_rev[v])
    }

    /// Directed parents of `v`.
    pub fn parents(&self, v: usize) -> NodeSet {
        self.directed_rev[v]
    }

    /// Directed children of `u`.
    pub fn children(&self, u: usize) -> NodeSet {
        self.directed[u]
    }

    /// Count of directed edges.
    pub fn num_directed_edges(&self) -> usize {
        self.directed.iter().map(|s| s.len()).sum()
    }

    /// Count of undirected edges.
    pub fn num_undirected_edges(&self) -> usize {
        self.undirected.iter().map(|s| s.len()).sum::<usize>() / 2
    }

    /// Directed edges as `(from, to)` pairs.
    pub fn directed_edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for u in 0..self.n {
            for v in self.directed[u].iter() {
                out.push((u, v));
            }
        }
        out
    }

    /// Undirected edges as `(min, max)` pairs.
    pub fn undirected_edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for u in 0..self.n {
            for v in self.undirected[u].iter() {
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out
    }

    /// The skeleton: every edge as an undirected `(min, max)` pair.
    pub fn skeleton_edges(&self) -> Vec<(usize, usize)> {
        let mut out = self.undirected_edges();
        for (u, v) in self.directed_edges() {
            out.push((u.min(v), u.max(v)));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The v-structures among *directed* edges: `(a, c, b)` with `a → c ← b`,
    /// `a < b`, `a` and `b` nonadjacent.
    pub fn v_structures(&self) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        for c in 0..self.n {
            let pa: Vec<usize> = self.directed_rev[c].iter().collect();
            for (i, &a) in pa.iter().enumerate() {
                for &b in &pa[i + 1..] {
                    if !self.adjacent(a, b) {
                        out.push((a, c, b));
                    }
                }
            }
        }
        out
    }

    /// Applies Meek's orientation rules R1–R3 until fixpoint.
    ///
    /// * R1: `a → b`, `b — c`, `a` ∉ adj(`c`)  ⟹  `b → c`
    /// * R2: `a → b → c`, `a — c`              ⟹  `a → c`
    /// * R3: `a — b`, `a — c`, `a — d`, `c → b`, `d → b`, `c` ∉ adj(`d`) ⟹ `a → b`
    ///
    /// R1–R3 are complete for CPDAGs obtained from v-structure orientation
    /// (Meek 1995). During extension enumeration, where extra orientations
    /// act as background knowledge, completeness is restored by validating
    /// each fully oriented leaf (see [`crate::enumerate`]), so R4 is not
    /// needed for correctness anywhere in this workspace.
    ///
    /// Returns the number of edges oriented.
    pub fn meek_closure(&mut self) -> usize {
        let mut oriented = 0;
        loop {
            let mut changed = false;
            // R1
            for b in 0..self.n {
                for a in self.directed_rev[b].iter() {
                    for c in self.undirected[b].iter() {
                        if c != a && !self.adjacent(a, c) {
                            self.orient(b, c);
                            oriented += 1;
                            changed = true;
                        }
                    }
                }
            }
            // R2
            for a in 0..self.n {
                for c in self.undirected[a].iter() {
                    // is there b with a → b → c?
                    if !self.directed[a].intersection(self.directed_rev[c]).is_empty() {
                        self.orient(a, c);
                        oriented += 1;
                        changed = true;
                    }
                }
            }
            // R3
            for a in 0..self.n {
                let und: Vec<usize> = self.undirected[a].iter().collect();
                for &b in &und {
                    // find c, d ∈ und(a), both → b, c and d nonadjacent
                    let cands: Vec<usize> =
                        self.undirected[a].intersection(self.directed_rev[b]).iter().collect();
                    let mut fire = false;
                    'outer: for (i, &c) in cands.iter().enumerate() {
                        for &d in &cands[i + 1..] {
                            if !self.adjacent(c, d) {
                                fire = true;
                                break 'outer;
                            }
                        }
                    }
                    if fire {
                        self.orient(a, b);
                        oriented += 1;
                        changed = true;
                    }
                }
            }
            if !changed {
                return oriented;
            }
        }
    }

    /// Converts to a [`Dag`] if **every** edge is directed; `None` otherwise
    /// or when the directed graph is cyclic.
    pub fn to_dag(&self) -> Option<Dag> {
        if self.num_undirected_edges() > 0 {
            return None;
        }
        let mut dag = Dag::new(self.n);
        for (u, v) in self.directed_edges() {
            dag.add_edge_unchecked(u, v);
        }
        dag.topological_order().map(|_| dag)
    }

    /// `true` when the directed subgraph contains a cycle.
    pub fn has_directed_cycle(&self) -> bool {
        let mut in_degree: Vec<usize> = (0..self.n).map(|v| self.directed_rev[v].len()).collect();
        let mut queue: Vec<usize> = (0..self.n).filter(|&v| in_degree[v] == 0).collect();
        let mut seen = 0;
        while let Some(u) = queue.pop() {
            seen += 1;
            for v in self.directed[u].iter() {
                in_degree[v] -= 1;
                if in_degree[v] == 0 {
                    queue.push(v);
                }
            }
        }
        seen != self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_bookkeeping() {
        let mut p = Pdag::new(4);
        p.add_undirected(0, 1);
        p.add_directed(1, 2);
        assert!(p.has_undirected(0, 1));
        assert!(p.has_undirected(1, 0));
        assert!(p.has_directed(1, 2));
        assert!(!p.has_directed(2, 1));
        assert!(p.adjacent(0, 1));
        assert_eq!(p.num_undirected_edges(), 1);
        assert_eq!(p.num_directed_edges(), 1);
        p.remove_edge(0, 1);
        assert!(!p.adjacent(0, 1));
    }

    #[test]
    fn orient_replaces_undirected() {
        let mut p = Pdag::new(2);
        p.add_undirected(0, 1);
        p.orient(0, 1);
        assert!(p.has_directed(0, 1));
        assert!(!p.has_undirected(0, 1));
        // Re-orienting the other way flips it.
        p.orient(1, 0);
        assert!(p.has_directed(1, 0));
        assert!(!p.has_directed(0, 1));
    }

    #[test]
    fn meek_r1_propagates_chain() {
        // 0 → 1 — 2, with 0,2 nonadjacent: R1 forces 1 → 2.
        let mut p = Pdag::new(3);
        p.add_directed(0, 1);
        p.add_undirected(1, 2);
        let oriented = p.meek_closure();
        assert_eq!(oriented, 1);
        assert!(p.has_directed(1, 2));
    }

    #[test]
    fn meek_r2_closes_triangle() {
        // 0 → 1 → 2 and 0 — 2: R2 forces 0 → 2.
        let mut p = Pdag::new(3);
        p.add_directed(0, 1);
        p.add_directed(1, 2);
        p.add_undirected(0, 2);
        p.meek_closure();
        assert!(p.has_directed(0, 2));
    }

    #[test]
    fn meek_r3_kite() {
        // a=0 undirected to b=1, c=2, d=3; c → b, d → b; c,d nonadjacent.
        let mut p = Pdag::new(4);
        p.add_undirected(0, 1);
        p.add_undirected(0, 2);
        p.add_undirected(0, 3);
        p.add_directed(2, 1);
        p.add_directed(3, 1);
        p.meek_closure();
        assert!(p.has_directed(0, 1));
    }

    #[test]
    fn shielded_collider_not_v_structure() {
        let mut p = Pdag::new(3);
        p.add_directed(0, 2);
        p.add_directed(1, 2);
        p.add_undirected(0, 1);
        assert!(p.v_structures().is_empty());
        p.remove_edge(0, 1);
        assert_eq!(p.v_structures(), vec![(0, 2, 1)]);
    }

    #[test]
    fn to_dag_requires_full_orientation() {
        let mut p = Pdag::new(3);
        p.add_directed(0, 1);
        p.add_undirected(1, 2);
        assert!(p.to_dag().is_none());
        p.orient(1, 2);
        let dag = p.to_dag().unwrap();
        assert!(dag.has_edge(0, 1) && dag.has_edge(1, 2));
    }

    #[test]
    fn cycle_detection() {
        let mut p = Pdag::new(3);
        p.add_directed(0, 1);
        p.add_directed(1, 2);
        assert!(!p.has_directed_cycle());
        p.add_directed(2, 0);
        assert!(p.has_directed_cycle());
        assert!(p.to_dag().is_none());
    }

    #[test]
    fn skeleton_merges_edge_kinds() {
        let mut p = Pdag::new(3);
        p.add_directed(2, 0);
        p.add_undirected(1, 2);
        assert_eq!(p.skeleton_edges(), vec![(0, 2), (1, 2)]);
    }
}
