//! Table 5: mis-prediction detection.
//!
//! `P = |detected ∩ mispredicted| / |detected|` — how many detected data
//! errors are also the root cause of a mis-prediction.
//! `R = |missed ∩ mispredicted| / |missed|` — the paper's striking finding
//! is that errors Guardrail misses (almost) never cause mis-predictions.

use guardrail_bench::printing::{banner, fmt_metric};
use guardrail_bench::reference;
use guardrail_bench::{prepare, HarnessConfig};
use guardrail_core::Guardrail;
use std::collections::HashSet;

fn main() {
    let cfg = HarnessConfig::from_args();
    banner(
        "Table 5 — mis-prediction detection",
        &format!("rows cap {}; P over detected errors, R over missed errors", cfg.rows_cap),
    );

    println!("{:<4}{:>12}{:>8}{:>8}   {:>10}", "ID", "# Mis-pred", "P", "R", "paper P");
    for &id in &cfg.datasets {
        let p = prepare(id, &cfg);
        let guard = Guardrail::builder().fit(&p.train).expect("schema is supported");

        let detected: HashSet<usize> =
            guard.detect(&p.test_dirty).dirty_rows().into_iter().collect();
        let injected: HashSet<usize> = p.injection.dirty_rows().into_iter().collect();
        let mispred: HashSet<usize> = p.mispredicted_rows().into_iter().collect();

        let detected_errors: HashSet<usize> = detected.intersection(&injected).copied().collect();
        let missed_errors: HashSet<usize> = injected.difference(&detected).copied().collect();

        let precision = if detected_errors.is_empty() {
            f64::NAN
        } else {
            detected_errors.intersection(&mispred).count() as f64 / detected_errors.len() as f64
        };
        let recall_of_missed = if missed_errors.is_empty() {
            f64::NAN // the paper's "-": no missed errors at all
        } else {
            missed_errors.intersection(&mispred).count() as f64 / missed_errors.len() as f64
        };
        println!(
            "{:<4}{:>12}{:>8}{:>8}   {:>10}",
            id,
            mispred.len(),
            fmt_metric(precision),
            if recall_of_missed.is_nan() { "-".into() } else { fmt_metric(recall_of_missed) },
            fmt_metric(reference::T5_P[id as usize - 1]),
        );
    }
    println!("\npaper: missed errors led to zero mis-predictions on every dataset (R ≈ 0)");
}
