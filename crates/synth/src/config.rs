//! Synthesis configuration.

use guardrail_governor::Parallelism;
use guardrail_pgm::LearnConfig;

/// End-to-end synthesis parameters.
#[derive(Debug, Clone, Copy)]
pub struct SynthesisConfig {
    /// Branch noise tolerance ε (Eqn. 3). The paper recommends 0.01–0.05
    /// (Fig. 7); 0.02 is our default.
    pub epsilon: f64,
    /// Structure-learning parameters (sampler, α, PC depth).
    pub learn: LearnConfig,
    /// MEC enumeration cap (Alg. 2's "maximal enumeration of DAGs"),
    /// enforced as a child work cap of the run's [`Budget`]. The paper
    /// observes MEC sizes up to 216 on its 12 datasets; 4096 leaves ample
    /// headroom while bounding pathological inputs.
    ///
    /// [`Budget`]: guardrail_governor::Budget
    pub max_dags: usize,
    /// Worker-count policy for every parallel stage of synthesis: PC's
    /// per-level CI tests, per-DAG program fills when the MEC has several
    /// members, per-statement sketch fills when it does not; a fitted
    /// guardrail keeps it for its bulk detection and repair scans. This is
    /// the one worker-count setting of a fit. Without a work cap, results
    /// are identical for any worker count; under one, where the shared
    /// counter stands when the cap trips depends on scheduling, so a capped
    /// fit may differ between worker counts.
    pub parallelism: Parallelism,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.02,
            learn: LearnConfig::default(),
            max_dags: 4096,
            parallelism: Parallelism::Auto,
        }
    }
}

impl SynthesisConfig {
    /// Overrides ε. Panics when ε is out of range; untrusted input goes
    /// through [`SynthesisConfig::check_epsilon`] first.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = Self::check_epsilon(epsilon).unwrap_or_else(|e| panic!("{e}"));
        self
    }

    /// The one range rule for ε: a branch noise tolerance lies in `[0, 1)`
    /// (NaN does not). Returns `epsilon` when it is valid, else a message
    /// naming the range.
    pub fn check_epsilon(epsilon: f64) -> Result<f64, String> {
        if (0.0..1.0).contains(&epsilon) {
            Ok(epsilon)
        } else {
            Err(format!("epsilon must be in [0,1), got {epsilon}"))
        }
    }

    /// Overrides the worker-count policy for every pipeline stage this config
    /// reaches (structure learning *and* synthesis).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_recommendations() {
        let c = SynthesisConfig::default();
        assert!((0.01..=0.05).contains(&c.epsilon));
        assert_eq!(c.max_dags, 4096);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn epsilon_bounds() {
        SynthesisConfig::default().with_epsilon(1.0);
    }
}
