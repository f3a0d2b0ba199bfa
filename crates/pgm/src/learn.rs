//! End-to-end CPDAG learning from a table.

use crate::aux::auxiliary_sample;
use crate::encode::EncodedData;
use crate::oracle::{DataOracle, StatsCacheStats};
use crate::pc::{pc_algorithm, PcConfig};
use guardrail_governor::{Budget, Parallelism, StageStatus};
use guardrail_graph::Pdag;
use guardrail_obs as obs;
use guardrail_table::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which view of the data the independence tests see.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sampler {
    /// Learn on the auxiliary binary distribution of Def. 4.5 (the paper's
    /// default; robust to high-cardinality attributes — Table 8).
    #[default]
    Auxiliary,
    /// Learn directly on the raw encoded data (the Table 8 ablation).
    Identity,
}

/// Which structure-learning algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Constraint-based PC-stable with G² tests (the paper's approach).
    #[default]
    PcStable,
    /// Score-based greedy hill climbing with BIC (ablation; the paper's
    /// future-work "sophisticated search strategies" axis).
    HillClimbBic,
}

/// Configuration for [`learn_cpdag`].
#[derive(Debug, Clone, Copy)]
pub struct LearnConfig {
    /// Structure-learning algorithm.
    pub algorithm: Algorithm,
    /// Data view for independence testing.
    pub sampler: Sampler,
    /// Significance level of the G² tests (PC only).
    pub alpha: f64,
    /// Maximum conditioning-set size for PC.
    pub max_cond_size: usize,
    /// Maximum parents per node (hill climbing only).
    pub max_parents: usize,
    /// Target number of auxiliary pairs (ignored by [`Sampler::Identity`]).
    pub aux_pairs: usize,
    /// Seed for shift selection.
    pub seed: u64,
}

impl Default for LearnConfig {
    fn default() -> Self {
        Self {
            algorithm: Algorithm::PcStable,
            sampler: Sampler::Auxiliary,
            alpha: 0.05,
            max_cond_size: 3,
            max_parents: 3,
            aux_pairs: 50_000,
            seed: 0xA5A5,
        }
    }
}

/// What budgeted structure learning hands back: the CPDAG, how the stage
/// ended, and the oracle's sufficient-statistics cache counters — captured
/// here because the oracle itself is dropped when learning returns (before
/// this type existed the counters died unread).
#[derive(Debug, Clone)]
pub struct LearnOutcome {
    /// The learned CPDAG.
    pub cpdag: Pdag,
    /// Whether the CI-test loop completed or ran out of budget.
    pub status: StageStatus,
    /// Sufficient-statistics cache counters of the run's oracle (zeros for
    /// hill climbing, which keeps no such cache).
    pub cache_stats: StatsCacheStats,
}

/// Learns the CPDAG of `table`'s Markov equivalence class under `budget`.
///
/// PC charges one work unit per CI test, runs each level's tests under
/// `parallelism` (results are identical for any worker count when the
/// budget has no work cap) and degrades to a conservative supergraph
/// skeleton. Hill climbing converges under its own iteration bound and
/// reports [`StageStatus::Complete`].
pub fn learn_cpdag(
    table: &Table,
    config: &LearnConfig,
    parallelism: Parallelism,
    budget: &Budget,
) -> LearnOutcome {
    let encoded = EncodedData::from_table(table);
    let mut learn_span = obs::span("structure_learning");
    learn_span.arg("rows", encoded.num_rows() as u64);
    learn_span.arg("attrs", encoded.num_attrs() as u64);
    let (view, scale) = match config.sampler {
        Sampler::Identity => (encoded, 1.0),
        Sampler::Auxiliary => {
            if encoded.num_rows() < 2 {
                (encoded, 1.0)
            } else {
                let mut aux_span = obs::span("auxiliary_sample");
                let mut rng = StdRng::seed_from_u64(config.seed);
                let aux = auxiliary_sample(&encoded, config.aux_pairs, &mut rng);
                aux_span.arg("pairs", aux.num_rows() as u64);
                // Circular-shift pairs overlap in source rows; correct the
                // test's effective sample size accordingly.
                let scale = (encoded.num_rows() as f64 / aux.num_rows() as f64).min(1.0);
                (aux, scale)
            }
        }
    };
    match config.algorithm {
        Algorithm::PcStable => {
            let oracle =
                DataOracle::new(&view).with_alpha(config.alpha).with_statistic_scale(scale);
            let (cpdag, status) = pc_algorithm(
                &oracle,
                PcConfig { max_cond_size: config.max_cond_size, parallelism },
                budget,
            );
            LearnOutcome { cpdag, status, cache_stats: oracle.cache_stats() }
        }
        Algorithm::HillClimbBic => LearnOutcome {
            cpdag: crate::hillclimb::hill_climb_dag(&view, config.max_parents).to_cpdag(),
            status: StageStatus::Complete,
            cache_stats: StatsCacheStats::default(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardrail_table::TableBuilder;
    use guardrail_table::Value;
    use rand::Rng;

    fn learn(table: &Table, config: &LearnConfig) -> Pdag {
        learn_cpdag(table, config, Parallelism::Auto, &Budget::unlimited()).cpdag
    }

    /// Samples a table from the chain SEM zip → city → state with flip noise.
    fn chain_table(n: usize, seed: u64) -> Table {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = TableBuilder::new(vec!["zip".into(), "city".into(), "state".into()]);
        // 6 zips in 3 cities in 2 states.
        let city_of = [0, 0, 1, 1, 2, 2];
        let state_of = [0, 0, 1];
        for _ in 0..n {
            let zip = rng.gen_range(0..6usize);
            let mut city = city_of[zip];
            if rng.gen_ratio(1, 50) {
                city = rng.gen_range(0..3);
            }
            let mut state = state_of[city];
            if rng.gen_ratio(1, 50) {
                state = rng.gen_range(0..2);
            }
            b.push_row(vec![
                Value::Int(94700 + zip as i64),
                Value::from(format!("city{city}")),
                Value::from(format!("state{state}")),
            ])
            .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn learns_chain_skeleton_from_data() {
        let table = chain_table(4000, 1);
        for sampler in [Sampler::Auxiliary, Sampler::Identity] {
            let cpdag = learn(&table, &LearnConfig { sampler, ..LearnConfig::default() });
            // Chain skeleton: zip—city, city—state, and no zip—state edge.
            assert!(cpdag.adjacent(0, 1), "{sampler:?}: zip—city missing");
            assert!(cpdag.adjacent(1, 2), "{sampler:?}: city—state missing");
            assert!(!cpdag.adjacent(0, 2), "{sampler:?}: spurious zip—state edge");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let table = chain_table(1000, 2);
        let c1 = learn(&table, &LearnConfig::default());
        let c2 = learn(&table, &LearnConfig::default());
        assert_eq!(c1, c2);
    }

    #[test]
    fn tiny_table_does_not_panic() {
        let table = Table::from_csv_str("a,b\n1,2\n").unwrap();
        let cpdag = learn(&table, &LearnConfig::default());
        assert_eq!(cpdag.num_nodes(), 2);
    }

    #[test]
    fn hill_climb_algorithm_learns_chain_too() {
        let table = chain_table(3000, 4);
        let cpdag = learn(
            &table,
            &LearnConfig { algorithm: Algorithm::HillClimbBic, ..LearnConfig::default() },
        );
        assert!(cpdag.adjacent(0, 1), "zip—city missing");
        assert!(cpdag.adjacent(1, 2), "city—state missing");
        assert!(!cpdag.adjacent(0, 2), "spurious zip—state edge");
    }
}
