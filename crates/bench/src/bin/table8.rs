//! Table 8: ablation of the auxiliary sampler (Def. 4.5).
//!
//! Synthesis runs twice per dataset — learning structure on the auxiliary
//! binary view vs directly on the raw encoded data — and reports the
//! coverage of the synthesized program. The shape to reproduce: the
//! auxiliary sampler never hurts, and on the small, high-cardinality
//! datasets (#4–#6) the identity sampler collapses to zero coverage.

use guardrail_bench::printing::{banner, fmt_metric};
use guardrail_bench::reference;
use guardrail_bench::{prepare, HarnessConfig};
use guardrail_core::{Guardrail, GuardrailConfig};
use guardrail_pgm::{LearnConfig, Sampler};

fn main() {
    let cfg = HarnessConfig::from_args();
    banner(
        "Table 8 — effectiveness of the auxiliary sampler (normalized coverage)",
        &format!("rows cap {}", cfg.rows_cap),
    );

    println!(
        "{:<4}{:>10}{:>10}   {:>12}{:>12}",
        "ID", "w/o aux", "w/ aux", "paper w/o", "paper w/"
    );
    let mut better_or_equal = 0usize;
    for &id in &cfg.datasets {
        let p = prepare(id, &cfg);
        let coverage = |sampler: Sampler| {
            let config = GuardrailConfig {
                learn: LearnConfig { sampler, ..LearnConfig::default() },
                ..GuardrailConfig::default()
            };
            let guard =
                Guardrail::builder().config(config).fit(&p.train).expect("schema is supported");
            if guard.coverage().is_nan() {
                0.0
            } else {
                guard.coverage()
            }
        };
        let without = coverage(Sampler::Identity);
        let with = coverage(Sampler::Auxiliary);
        if with >= without - 1e-9 {
            better_or_equal += 1;
        }
        println!(
            "{:<4}{:>10}{:>10}   {:>12}{:>12}",
            id,
            fmt_metric(without),
            fmt_metric(with),
            fmt_metric(reference::T8_WITHOUT_AUX[id as usize - 1]),
            fmt_metric(reference::T8_WITH_AUX[id as usize - 1]),
        );
    }
    println!(
        "\nauxiliary sampler ≥ identity sampler on {better_or_equal}/{} datasets \
         [paper: better on all, p = 0.037]",
        cfg.datasets.len()
    );
}
