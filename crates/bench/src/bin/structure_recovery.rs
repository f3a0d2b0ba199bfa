//! Extra experiment (beyond the paper, enabled by the synthetic substrate):
//! how well does each structure learner recover the *ground-truth* DAG
//! skeleton? The paper cannot measure this — its real datasets have no known
//! DGP; our SEM generators do.

use guardrail_bench::printing::{banner, fmt_metric};
use guardrail_bench::{prepare, HarnessConfig};
use guardrail_governor::{Budget, Parallelism};
use guardrail_pgm::{learn_cpdag, Algorithm, LearnConfig, Sampler};
use std::collections::BTreeSet;

fn main() {
    let cfg = HarnessConfig::from_args();
    banner(
        "Structure recovery — learned skeleton vs ground-truth SEM DAG",
        &format!("rows cap {}; precision/recall/F1 over undirected edges", cfg.rows_cap),
    );

    println!(
        "{:<4}{:>7}   {:>8}{:>8}{:>8}   {:>8}{:>8}{:>8}   {:>8}{:>8}{:>8}",
        "ID",
        "#edges",
        "P(aux)",
        "R(aux)",
        "F1(aux)",
        "P(id)",
        "R(id)",
        "F1(id)",
        "P(hc)",
        "R(hc)",
        "F1(hc)"
    );
    for &id in &cfg.datasets {
        let p = prepare(id, &cfg);
        let truth: BTreeSet<(usize, usize)> =
            p.dataset.sem.dag().edges().into_iter().map(|(u, v)| (u.min(v), u.max(v))).collect();
        let mut line = format!("{:<4}{:>7}   ", id, truth.len());
        for learn in [
            LearnConfig { sampler: Sampler::Auxiliary, ..LearnConfig::default() },
            LearnConfig { sampler: Sampler::Identity, ..LearnConfig::default() },
            LearnConfig { algorithm: Algorithm::HillClimbBic, ..LearnConfig::default() },
        ] {
            let cpdag =
                learn_cpdag(&p.train, &learn, Parallelism::Auto, &Budget::unlimited()).cpdag;
            let learned: BTreeSet<(usize, usize)> = cpdag.skeleton_edges().into_iter().collect();
            let tp = learned.intersection(&truth).count() as f64;
            let precision = if learned.is_empty() { f64::NAN } else { tp / learned.len() as f64 };
            let recall = if truth.is_empty() { f64::NAN } else { tp / truth.len() as f64 };
            let f1 = if precision + recall > 0.0 {
                2.0 * precision * recall / (precision + recall)
            } else {
                f64::NAN
            };
            line.push_str(&format!(
                "{:>8}{:>8}{:>8}   ",
                fmt_metric(precision),
                fmt_metric(recall),
                fmt_metric(f1)
            ));
        }
        println!("{}", line.trim_end());
    }
    println!(
        "\nColumns: auxiliary-sampler PC (the paper's pipeline), identity-sampler PC, \
         BIC hill climbing."
    );
}
