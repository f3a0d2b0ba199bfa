//! Score-based structure learning: greedy hill climbing over DAGs with the
//! BIC score.
//!
//! The paper learns structure with constraint-based tests (PC); score-based
//! search is the classical alternative and serves here as an ablation
//! (`Algorithm::HillClimbBic` in [`crate::learn::LearnConfig`]). Starting
//! from the empty graph, the search greedily applies the best of
//! {add, delete, reverse} edge moves until no move improves the BIC,
//! exploiting decomposability to rescore only affected families.

use crate::encode::EncodedData;
use crate::score::BicScorer;
use guardrail_graph::{Dag, NodeSet};

/// Maximum greedy moves (safety bound; search normally converges first).
const MAX_ITERATIONS: usize = 1_000;

/// Learns a DAG by greedy BIC hill climbing, with at most `max_parents`
/// parents per node (keeps families scorable on sparse data).
pub fn hill_climb_dag(data: &EncodedData, max_parents: usize) -> Dag {
    let n = data.num_attrs();
    let mut scorer = BicScorer::new(data);
    let mut parents: Vec<NodeSet> = vec![NodeSet::EMPTY; n];
    let mut dag = Dag::new(n);

    for _ in 0..MAX_ITERATIONS {
        let mut best: Option<(Move, f64)> = None;
        for u in 0..n {
            for v in 0..n {
                if u == v {
                    continue;
                }
                if dag.has_edge(u, v) {
                    // Delete u → v.
                    let mut pa = parents[v];
                    pa.remove(u);
                    let delta = scorer.family_score(v, pa) - scorer.family_score(v, parents[v]);
                    consider(&mut best, Move::Delete(u, v), delta);
                    // Reverse to v → u.
                    if parents[u].len() < max_parents && !creates_cycle_on_reverse(&dag, u, v) {
                        let mut pa_u = parents[u];
                        pa_u.insert(v);
                        let delta = delta + scorer.family_score(u, pa_u)
                            - scorer.family_score(u, parents[u]);
                        consider(&mut best, Move::Reverse(u, v), delta);
                    }
                } else if !dag.has_edge(v, u)
                    && parents[v].len() < max_parents
                    && !dag.reachable(v, u)
                {
                    // Add u → v (acyclic by the reachability check).
                    let mut pa = parents[v];
                    pa.insert(u);
                    let delta = scorer.family_score(v, pa) - scorer.family_score(v, parents[v]);
                    consider(&mut best, Move::Add(u, v), delta);
                }
            }
        }
        match best {
            Some((mv, delta)) if delta > 1e-9 => {
                apply(&mut dag, &mut parents, mv);
            }
            _ => break,
        }
    }
    dag
}

#[derive(Debug, Clone, Copy)]
enum Move {
    Add(usize, usize),
    Delete(usize, usize),
    Reverse(usize, usize),
}

fn consider(best: &mut Option<(Move, f64)>, mv: Move, delta: f64) {
    if best.map(|(_, d)| delta > d).unwrap_or(true) {
        *best = Some((mv, delta));
    }
}

/// Reversing `u → v` to `v → u` creates a cycle iff `u` can still reach `v`
/// after the original edge is removed.
fn creates_cycle_on_reverse(dag: &Dag, u: usize, v: usize) -> bool {
    let mut without = Dag::new(dag.num_nodes());
    for (a, b) in dag.edges() {
        if !(a == u && b == v) {
            without.add_edge_unchecked(a, b);
        }
    }
    without.reachable(u, v)
}

fn apply(dag: &mut Dag, parents: &mut [NodeSet], mv: Move) {
    // Rebuild is O(E) but moves are few; clarity over micro-optimizing.
    let rebuild = |edges: Vec<(usize, usize)>, n: usize| {
        let mut d = Dag::new(n);
        for (a, b) in edges {
            d.add_edge_unchecked(a, b);
        }
        d
    };
    let n = dag.num_nodes();
    let mut edges = dag.edges();
    match mv {
        Move::Add(u, v) => {
            edges.push((u, v));
            parents[v].insert(u);
        }
        Move::Delete(u, v) => {
            edges.retain(|&e| e != (u, v));
            parents[v].remove(u);
        }
        Move::Reverse(u, v) => {
            edges.retain(|&e| e != (u, v));
            edges.push((v, u));
            parents[v].remove(u);
            parents[u].insert(v);
        }
    }
    *dag = rebuild(edges, n);
    debug_assert!(dag.topological_order().is_some(), "moves must preserve acyclicity");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed.max(1);
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    /// zip → city → state chain with light noise.
    fn chain_data(n: usize) -> EncodedData {
        let mut rng = xorshift(21);
        let mut zip = Vec::new();
        let mut city = Vec::new();
        let mut state = Vec::new();
        for _ in 0..n {
            let z = (rng() % 6) as u32;
            let c = if rng() % 100 == 0 { (rng() % 3) as u32 } else { z / 2 };
            let s = if rng() % 100 == 0 { (rng() % 2) as u32 } else { u32::from(c == 2) };
            zip.push(z);
            city.push(c);
            state.push(s);
        }
        EncodedData::from_parts(
            vec![zip, city, state],
            vec![6, 3, 2],
            vec!["zip".into(), "city".into(), "state".into()],
        )
    }

    #[test]
    fn recovers_chain_skeleton() {
        let data = chain_data(3000);
        let dag = hill_climb_dag(&data, 3);
        assert!(dag.adjacent(0).contains(1), "zip—city missing: {:?}", dag.edges());
        assert!(dag.adjacent(1).contains(2), "city—state missing: {:?}", dag.edges());
        assert!(!dag.adjacent(0).contains(2), "spurious zip—state: {:?}", dag.edges());
    }

    #[test]
    fn independent_data_learns_empty_graph() {
        let mut rng = xorshift(5);
        let n = 2000;
        let cols: Vec<Vec<u32>> =
            (0..3).map(|_| (0..n).map(|_| (rng() % 4) as u32).collect()).collect();
        let data =
            EncodedData::from_parts(cols, vec![4, 4, 4], (0..3).map(|i| format!("a{i}")).collect());
        let dag = hill_climb_dag(&data, 3);
        assert_eq!(dag.num_edges(), 0, "{:?}", dag.edges());
    }

    #[test]
    fn respects_max_parents() {
        let data = chain_data(1000);
        let dag = hill_climb_dag(&data, 1);
        for v in 0..3 {
            assert!(dag.parents(v).len() <= 1);
        }
    }
}
