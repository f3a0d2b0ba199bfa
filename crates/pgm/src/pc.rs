//! The PC-stable algorithm: CPDAG learning from an independence oracle.
//!
//! Three phases, per Spirtes–Glymour with the order-independent "stable"
//! skeleton variant of Colombo & Maathuis:
//!
//! 1. **Skeleton**: start complete; for growing conditioning-set size `ℓ`,
//!    remove the edge `x — y` if some `S ⊆ adj(x)∖{y}` (or `adj(y)∖{x}`)
//!    with `|S| = ℓ` renders them independent, recording `S` as the
//!    separation set. Adjacencies are snapshotted per level so the result
//!    does not depend on iteration order.
//! 2. **V-structures**: for every nonadjacent pair `(x, y)` with common
//!    neighbor `k ∉ sepset(x, y)`, orient `x → k ← y`.
//! 3. **Meek closure**: propagate compelled orientations (R1–R3).

use crate::oracle::IndependenceOracle;
use guardrail_governor::{parallel_map, Budget, Exhausted, Parallelism, StageStatus};
use guardrail_graph::{NodeSet, Pdag};
use guardrail_obs as obs;
use std::collections::HashMap;

/// Stage name reported when the CI-test loop runs out of budget.
pub const PC_STAGE: &str = "pc_skeleton";

/// PC algorithm configuration.
#[derive(Debug, Clone, Copy)]
pub struct PcConfig {
    /// Largest conditioning-set size to try. Attribute graphs in this domain
    /// are shallow; 3 matches common PC practice and bounds the worst-case
    /// test count.
    pub max_cond_size: usize,
    /// Worker count for the per-level CI tests. Within a level every edge's
    /// subset search reads only the level-start adjacency snapshot
    /// (PC-stable), so edges are embarrassingly parallel and the merged
    /// result is identical for any worker count. Each worker's tests run on
    /// the fused sufficient-statistics kernel
    /// (`guardrail_stats::suffstats`), whose per-thread scratch buffers are
    /// reused across the thousands of tests a level fans out — steady-state
    /// testing allocates nothing.
    pub parallelism: Parallelism,
}

impl Default for PcConfig {
    fn default() -> Self {
        Self { max_cond_size: 3, parallelism: Parallelism::Auto }
    }
}

/// Runs PC-stable against `oracle` under `budget`, charging one work unit
/// per CI test, and returns the learned CPDAG with how the skeleton phase
/// ended.
///
/// When the budget runs out mid-skeleton, refinement stops where it is and
/// the remaining phases (v-structures, Meek closure) still run on the
/// current adjacency — those are polynomial and cheap. The result is a
/// valid, conservative CPDAG over a *supergraph* skeleton: un-tested edges
/// survive, so degradation can only keep constraints it has no evidence to
/// remove, never invent independence.
pub fn pc_algorithm<O: IndependenceOracle>(
    oracle: &O,
    config: PcConfig,
    budget: &Budget,
) -> (Pdag, StageStatus) {
    let n = oracle.num_vars();
    let mut adj: Vec<NodeSet> = (0..n)
        .map(|i| {
            let mut s = NodeSet::full(n);
            s.remove(i);
            s
        })
        .collect();
    let mut sepsets: HashMap<(usize, usize), NodeSet> = HashMap::new();

    let mut pc_span = obs::span(PC_STAGE);
    pc_span.arg("vars", n as u64);

    // Phase 1: skeleton.
    let status = match refine_skeleton(oracle, config, budget, &mut adj, &mut sepsets) {
        Ok(()) => StageStatus::Complete,
        Err(e) => StageStatus::degraded(PC_STAGE, e),
    };

    // Phase 2: v-structures.
    let orient_span = obs::span("pc_orient");
    let mut pdag = Pdag::new(n);
    for (x, neighbors) in adj.iter().enumerate() {
        for y in neighbors.iter() {
            if x < y {
                pdag.add_undirected(x, y);
            }
        }
    }
    for x in 0..n {
        for y in (x + 1)..n {
            if adj[x].contains(y) {
                continue;
            }
            let common = adj[x].intersection(adj[y]);
            if common.is_empty() {
                continue;
            }
            let sepset = sepsets.get(&key(x, y)).copied().unwrap_or(NodeSet::EMPTY);
            for k in common.iter() {
                if !sepset.contains(k) {
                    // Do not overwrite an opposing compelled orientation:
                    // conflicting v-structures can arise from finite-sample
                    // errors; first orientation wins (deterministic order).
                    if pdag.has_undirected(x, k) || pdag.has_directed(x, k) {
                        pdag.orient(x, k);
                    }
                    if pdag.has_undirected(y, k) || pdag.has_directed(y, k) {
                        pdag.orient(y, k);
                    }
                }
            }
        }
    }

    // Phase 3: Meek closure.
    pdag.meek_closure();
    drop(orient_span);
    pc_span.arg("edges_kept", (pdag.num_directed_edges() + pdag.num_undirected_edges()) as u64);
    (pdag, status)
}

/// Outcome of one edge's subset search at one level.
#[derive(Debug, Default)]
struct PairOutcome {
    /// Some pool offered a conditioning set of the level's size.
    any_candidate: bool,
    /// Separating set found — the edge is to be removed.
    remove_with: Option<NodeSet>,
    /// The budget tripped during this pair's tests.
    exhausted: Option<Exhausted>,
    /// CI tests this pair issued (work-unit accounting for the level span).
    tests: u64,
}

/// Level-wise PC-stable skeleton refinement, charging `budget` one unit per
/// CI test. Leaves `adj`/`sepsets` in a consistent partial state on
/// exhaustion.
///
/// Within a level, the still-adjacent pairs are tested on worker threads:
/// PC-stable's per-level adjacency snapshot makes every pair's subset search
/// independent of the others' removals, so results merge deterministically
/// in pair order and are identical for any worker count. Exhaustion
/// mid-level keeps the removals that completed tests justified (each backed
/// by a real independence verdict) and leaves every untested edge in place —
/// the conservative supergraph guarantee is preserved.
fn refine_skeleton<O: IndependenceOracle>(
    oracle: &O,
    config: PcConfig,
    budget: &Budget,
    adj: &mut [NodeSet],
    sepsets: &mut HashMap<(usize, usize), NodeSet>,
) -> Result<(), Exhausted> {
    for level in 0..=config.max_cond_size {
        // Snapshot adjacencies for order independence (PC-stable); each
        // unordered pair is handled once per level.
        let snapshot = adj.to_vec();
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (x, neighbors) in snapshot.iter().enumerate() {
            pairs.extend(neighbors.iter().filter(|&y| y > x).map(|y| (x, y)));
        }

        // One span per level, with the level's CI-test volume, the rows
        // each test reads, the computed tests per kernel path and the
        // stats-cache hit delta attached (snapshot-before minus
        // snapshot-after attributes shared-cache hits to the level that
        // earned them).
        let mut level_span = obs::span("pc_level");
        let cache_before = if level_span.is_armed() {
            level_span.arg("level", level as u64);
            level_span.arg("edges_tested", pairs.len() as u64);
            level_span.arg("rows", oracle.num_rows() as u64);
            Some(oracle.cache_stats())
        } else {
            None
        };

        let outcomes = parallel_map(config.parallelism, &pairs, &|&(x, y)| {
            test_pair(oracle, &snapshot, x, y, level, budget)
        });

        // Deterministic merge in pair order.
        let mut any_candidate = false;
        let mut removed = 0u64;
        let mut exhausted: Option<Exhausted> = None;
        for (&(x, y), outcome) in pairs.iter().zip(&outcomes) {
            any_candidate |= outcome.any_candidate;
            if let Some(s) = outcome.remove_with {
                adj[x].remove(y);
                adj[y].remove(x);
                sepsets.insert(key(x, y), s);
                removed += 1;
            }
            if exhausted.is_none() {
                exhausted.clone_from(&outcome.exhausted);
            }
        }
        if let Some(before) = cache_before {
            let after = oracle.cache_stats();
            level_span.arg("ci_tests", outcomes.iter().map(|o| o.tests).sum());
            level_span.arg("edges_removed", removed);
            level_span.arg("cache_hits", after.result_hits - before.result_hits);
            level_span.arg("cache_misses", after.result_misses - before.result_misses);
            level_span.arg("bit_tests", after.bit_tests - before.bit_tests);
            level_span.arg("packed_tests", after.packed_tests - before.packed_tests);
        }
        drop(level_span);
        if let Some(e) = exhausted {
            return Err(e);
        }
        if !any_candidate && level > 0 {
            break; // no pair has enough neighbors for larger sets
        }
    }
    Ok(())
}

/// Searches the conditioning-set pools of one edge at one level. Pure with
/// respect to the snapshot: no shared mutable state beyond the budget.
fn test_pair<O: IndependenceOracle>(
    oracle: &O,
    snapshot: &[NodeSet],
    x: usize,
    y: usize,
    level: usize,
    budget: &Budget,
) -> PairOutcome {
    let mut out = PairOutcome::default();
    for (a, b) in [(x, y), (y, x)] {
        let mut pool = snapshot[a];
        pool.remove(b);
        if pool.len() < level {
            continue;
        }
        out.any_candidate = true;
        for s in pool.subsets_of_size(level) {
            if let Err(e) = budget.charge(1) {
                out.exhausted = Some(e);
                return out;
            }
            out.tests += 1;
            if oracle.independent(a, b, s) {
                out.remove_with = Some(s);
                return out;
            }
        }
    }
    out
}

fn key(x: usize, y: usize) -> (usize, usize) {
    (x.min(y), x.max(y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::DagOracle;
    use guardrail_graph::Dag;

    fn learn_from_dag(dag: &Dag) -> Pdag {
        let oracle = DagOracle::new(dag.clone());
        // Oracle tests are exact; allow deep conditioning.
        pc_algorithm(
            &oracle,
            PcConfig { max_cond_size: 6, ..PcConfig::default() },
            &Budget::unlimited(),
        )
        .0
    }

    #[test]
    fn recovers_collider_exactly() {
        let dag = Dag::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let cpdag = learn_from_dag(&dag);
        assert_eq!(cpdag, dag.to_cpdag());
        assert!(cpdag.has_directed(0, 2));
        assert!(cpdag.has_directed(1, 2));
    }

    #[test]
    fn recovers_chain_up_to_mec() {
        let dag = Dag::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let cpdag = learn_from_dag(&dag);
        assert_eq!(cpdag, dag.to_cpdag());
        assert_eq!(cpdag.num_undirected_edges(), 3);
    }

    #[test]
    fn recovers_cancer_network() {
        // Pollution → Cancer ← Smoker; Cancer → Xray; Cancer → Dyspnoea.
        let dag = Dag::from_edges(5, &[(0, 2), (1, 2), (2, 3), (2, 4)]).unwrap();
        let cpdag = learn_from_dag(&dag);
        assert_eq!(cpdag, dag.to_cpdag());
        // Collider pins the top, Meek R1 propagates to the symptoms.
        assert!(cpdag.has_directed(0, 2));
        assert!(cpdag.has_directed(1, 2));
        assert!(cpdag.has_directed(2, 3));
        assert!(cpdag.has_directed(2, 4));
    }

    #[test]
    fn recovers_diamond() {
        // 0 → 1 → 3, 0 → 2 → 3.
        let dag = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let cpdag = learn_from_dag(&dag);
        assert_eq!(cpdag, dag.to_cpdag());
    }

    #[test]
    fn empty_graph_stays_empty() {
        let dag = Dag::new(4);
        let cpdag = learn_from_dag(&dag);
        assert_eq!(cpdag.num_directed_edges() + cpdag.num_undirected_edges(), 0);
    }

    #[test]
    fn dense_dag_with_limited_conditioning() {
        // With max_cond_size below what's needed, PC may keep extra edges but
        // must never drop true ones.
        let dag = Dag::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (0, 4)]).unwrap();
        let oracle = DagOracle::new(dag.clone());
        let config = PcConfig { max_cond_size: 1, ..PcConfig::default() };
        let (cpdag, _) = pc_algorithm(&oracle, config, &Budget::unlimited());
        for (u, v) in dag.edges() {
            assert!(cpdag.adjacent(u, v), "true edge ({u},{v}) must survive");
        }
    }
}
