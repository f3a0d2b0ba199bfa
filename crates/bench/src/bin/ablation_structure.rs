//! Extra ablation (beyond the paper): constraint-based vs score-based
//! sketch learning.
//!
//! The paper learns sketches with PC over the auxiliary distribution and
//! leaves "sophisticated search strategies" as future work. This binary
//! runs the full pipeline with each structure learner and compares program
//! coverage and error-detection F1 per dataset.

use guardrail_bench::printing::{banner, fmt_metric};
use guardrail_bench::{prepare, HarnessConfig};
use guardrail_core::{Guardrail, GuardrailConfig};
use guardrail_pgm::{Algorithm, LearnConfig};
use guardrail_stats::metrics::confusion_from_indices;

fn main() {
    let cfg = HarnessConfig::from_args();
    banner(
        "Ablation — PC-stable vs BIC hill climbing as the sketch learner",
        &format!("rows cap {}", cfg.rows_cap),
    );

    println!("{:<4}{:>10}{:>10}{:>12}{:>12}", "ID", "cov (PC)", "cov (HC)", "F1 (PC)", "F1 (HC)");
    for &id in &cfg.datasets {
        let p = prepare(id, &cfg);
        let truth = p.injection.dirty_rows();
        let n = p.test_dirty.num_rows();
        let mut line = format!("{id:<4}");
        let mut f1s = Vec::new();
        let mut covs = Vec::new();
        for algorithm in [Algorithm::PcStable, Algorithm::HillClimbBic] {
            let config = GuardrailConfig {
                learn: LearnConfig { algorithm, ..LearnConfig::default() },
                ..GuardrailConfig::default()
            };
            let guard =
                Guardrail::builder().config(config).fit(&p.train).expect("schema is supported");
            let cov = if guard.coverage().is_nan() { 0.0 } else { guard.coverage() };
            let flagged = guard.detect(&p.test_dirty).dirty_rows();
            let c = confusion_from_indices(&flagged, &truth, n);
            covs.push(cov);
            f1s.push(c.f1());
        }
        for c in covs {
            line.push_str(&format!("{:>10}", fmt_metric(c)));
        }
        for f in f1s {
            line.push_str(&format!("{:>12}", fmt_metric(f)));
        }
        println!("{line}");
    }
    println!(
        "\nBoth learners feed the same Alg. 2 synthesis; differences isolate the sketch stage."
    );
}
