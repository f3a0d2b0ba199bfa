//! Enumerating the DAGs of a Markov equivalence class.
//!
//! Alg. 2 of the paper iterates over every DAG `G ∈ [G]` of the learned MEC.
//! The reference implementation adapts a Julia PDAG enumerator \[36\]; here we
//! implement consistent-extension enumeration natively:
//!
//! 1. pick the lowest-indexed undirected edge of the CPDAG,
//! 2. branch on its two orientations,
//! 3. close each branch under Meek's rules (pure pruning/propagation),
//! 4. reject branches that create a directed cycle,
//! 5. at fully oriented leaves, accept exactly the DAGs whose v-structures
//!    equal the CPDAG's (the Verma–Pearl criterion), which makes the
//!    enumeration correct even where rules R1–R3 alone are incomplete under
//!    branching-induced background knowledge.
//!
//! The paper caps enumeration ("subject to a maximal enumeration of DAGs");
//! the [`Budget`] passed in plays that role: one work unit is charged per
//! accepted DAG, and the deadline/cancellation is ticked at every recursion
//! node, so a wall-clock budget can interrupt the search even between
//! results. Exhaustion degrades — the DAGs found so far are returned with a
//! [`StageStatus::Degraded`] marker rather than an error.

use crate::dag::Dag;
use crate::pdag::Pdag;
use guardrail_governor::{Budget, Exhausted, StageStatus};

/// Stage name reported when enumeration runs out of budget.
pub const ENUMERATE_STAGE: &str = "mec_enumeration";

/// Enumerates the DAGs in the MEC represented by `cpdag` under `budget`
/// (one work unit per accepted DAG). Returns the DAGs found and whether the
/// traversal completed or was cut short.
pub fn enumerate_extensions(cpdag: &Pdag, budget: &Budget) -> (Vec<Dag>, StageStatus) {
    let reference_v = sorted_v_structures(cpdag);
    let mut out = Vec::new();
    let mut work = cpdag.clone();
    let status = match recurse(&mut work, &reference_v, budget, &mut out) {
        Ok(()) => StageStatus::Complete,
        Err(e) => StageStatus::degraded(ENUMERATE_STAGE, e),
    };
    (out, status)
}

/// Counts the DAGs in the MEC (same traversal as [`enumerate_extensions`]
/// without materializing graphs). Returns `(count, status)`.
pub fn count_extensions(cpdag: &Pdag, budget: &Budget) -> (usize, StageStatus) {
    let (dags, status) = enumerate_extensions(cpdag, budget);
    (dags.len(), status)
}

fn sorted_v_structures(pdag: &Pdag) -> Vec<(usize, usize, usize)> {
    let mut v = pdag.v_structures();
    v.sort_unstable();
    v
}

fn recurse(
    pdag: &mut Pdag,
    reference_v: &[(usize, usize, usize)],
    budget: &Budget,
    out: &mut Vec<Dag>,
) -> Result<(), Exhausted> {
    // Deadline/cancellation tick per node; also trips once the work cap is
    // saturated so a capped search stops before expanding further branches.
    budget.check()?;
    if pdag.has_directed_cycle() {
        return Ok(());
    }
    let undirected = pdag.undirected_edges();
    match undirected.first() {
        None => {
            if let Some(dag) = pdag.to_dag() {
                // Accept only genuine members of the MEC: same skeleton is
                // guaranteed by construction; v-structures must match.
                if sorted_v_structures_of_dag(&dag) == reference_v {
                    budget.charge(1)?;
                    out.push(dag);
                }
            }
            Ok(())
        }
        Some(&(u, v)) => {
            for (a, b) in [(u, v), (v, u)] {
                let mut branch = pdag.clone();
                branch.orient(a, b);
                branch.meek_closure();
                recurse(&mut branch, reference_v, budget, out)?;
            }
            Ok(())
        }
    }
}

fn sorted_v_structures_of_dag(dag: &Dag) -> Vec<(usize, usize, usize)> {
    let mut v = dag.v_structures();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardrail_governor::ExhaustionReason;

    fn enumerate(cpdag: &Pdag) -> Vec<Dag> {
        let (dags, status) = enumerate_extensions(cpdag, &Budget::unlimited());
        assert!(status.is_complete());
        dags
    }

    #[test]
    fn single_undirected_edge_has_two_extensions() {
        let mut p = Pdag::new(2);
        p.add_undirected(0, 1);
        let dags = enumerate(&p);
        assert_eq!(dags.len(), 2);
    }

    #[test]
    fn chain_cpdag_has_three_members() {
        // The MEC of 0 → 1 → 2 contains: 0→1→2, 0←1→2, 0←1←2 (all chains /
        // forks; the collider is excluded).
        let dag = Dag::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let cpdag = dag.to_cpdag();
        let dags = enumerate(&cpdag);
        assert_eq!(dags.len(), 3);
        for d in &dags {
            assert!(d.markov_equivalent(&dag));
            assert!(d.v_structures().is_empty());
        }
    }

    #[test]
    fn collider_cpdag_is_singleton() {
        let dag = Dag::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let cpdag = dag.to_cpdag();
        let dags = enumerate(&cpdag);
        assert_eq!(dags.len(), 1);
        assert!(dags[0].has_edge(0, 2) && dags[0].has_edge(1, 2));
    }

    #[test]
    fn star_mec_size() {
        // Undirected star K1,3 around center 0: orientations with ≥2 edges
        // into 0 create new v-structures, so valid members are: all edges out
        // of 0 (1), or exactly one edge into 0 (3). Total 4.
        let mut p = Pdag::new(4);
        p.add_undirected(0, 1);
        p.add_undirected(0, 2);
        p.add_undirected(0, 3);
        let dags = enumerate(&p);
        assert_eq!(dags.len(), 4);
    }

    #[test]
    fn complete_graph_mec_counts_orderings() {
        // A fully undirected triangle: every acyclic orientation is
        // equivalent (no v-structures possible since all pairs adjacent).
        // Acyclic orientations of K3 = 3! = 6.
        let mut p = Pdag::new(3);
        p.add_undirected(0, 1);
        p.add_undirected(1, 2);
        p.add_undirected(0, 2);
        let dags = enumerate(&p);
        assert_eq!(dags.len(), 6);
    }

    #[test]
    fn every_member_roundtrips_to_same_cpdag() {
        let dag = Dag::from_edges(5, &[(0, 2), (1, 2), (2, 3), (3, 4)]).unwrap();
        let cpdag = dag.to_cpdag();
        let dags = enumerate(&cpdag);
        assert!(!dags.is_empty());
        assert!(dags.iter().any(|d| d == &dag), "ground truth must be in its own MEC");
        for d in &dags {
            assert_eq!(d.to_cpdag(), cpdag);
        }
    }

    #[test]
    fn work_cap_degrades_with_partial_results() {
        // Complete undirected K4 has 24 linear extensions; cap at 5.
        let mut p = Pdag::new(4);
        for u in 0..4 {
            for v in (u + 1)..4 {
                p.add_undirected(u, v);
            }
        }
        let budget = Budget::with_work_cap(5);
        let (dags, status) = enumerate_extensions(&p, &budget);
        assert_eq!(dags.len(), 5);
        match status {
            StageStatus::Degraded(d) => {
                assert_eq!(d.stage, ENUMERATE_STAGE);
                assert_eq!(d.reason, ExhaustionReason::WorkCapReached);
                assert_eq!(d.work_done, 5);
            }
            StageStatus::Complete => panic!("cap of 5 on a 24-member MEC must degrade"),
        }
        let (count, status) = count_extensions(&p, &Budget::unlimited());
        assert_eq!(count, 24);
        assert!(status.is_complete());
    }

    #[test]
    fn exact_cap_is_not_degraded_unless_branches_remain() {
        // Chain MEC has exactly 3 members. A cap of 3 may or may not leave
        // unexplored branches; a cap of 4 certainly completes.
        let dag = Dag::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let cpdag = dag.to_cpdag();
        let (dags, status) = enumerate_extensions(&cpdag, &Budget::with_work_cap(4));
        assert_eq!(dags.len(), 3);
        assert!(status.is_complete());
    }

    #[test]
    fn expired_deadline_yields_empty_degraded_result() {
        let mut p = Pdag::new(3);
        p.add_undirected(0, 1);
        p.add_undirected(1, 2);
        let (dags, status) =
            enumerate_extensions(&p, &Budget::with_deadline(std::time::Duration::ZERO));
        assert!(dags.is_empty());
        assert!(!status.is_complete());
    }

    #[test]
    fn mixed_cpdag_enumeration() {
        // v-structure 0 → 2 ← 1 plus undirected tail 2 — 3 is impossible:
        // Meek R1 would orient 2 → 3 in the CPDAG. Build the real CPDAG from
        // the DAG and check the MEC is a singleton.
        let dag = Dag::from_edges(4, &[(0, 2), (1, 2), (2, 3)]).unwrap();
        let cpdag = dag.to_cpdag();
        assert_eq!(cpdag.num_undirected_edges(), 0);
        let dags = enumerate(&cpdag);
        assert_eq!(dags.len(), 1);
    }
}
