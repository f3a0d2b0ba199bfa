//! Table 4: offline synthesis wall-clock per dataset.
//!
//! Absolute numbers are incomparable to the paper's (different hardware,
//! language, and row caps); the shape to check is that time scales with the
//! attribute count and the MEC size, and stays a one-off offline cost.

use guardrail_bench::printing::banner;
use guardrail_bench::reference;
use guardrail_bench::{prepare, HarnessConfig};
use guardrail_core::Guardrail;
use std::time::Instant;

fn main() {
    let cfg = HarnessConfig::from_args();
    banner("Table 4 — offline synthesis time", &format!("rows cap {}", cfg.rows_cap));

    println!(
        "{:<4}{:>8}{:>10}{:>14}{:>12}   {:>14}",
        "ID", "# Attr", "rows", "time (s)", "MEC size", "paper time(s)"
    );
    for &id in &cfg.datasets {
        let p = prepare(id, &cfg);
        let t0 = Instant::now();
        let guard = Guardrail::builder().fit(&p.train).expect("schema is supported");
        let elapsed = t0.elapsed().as_secs_f64();
        println!(
            "{:<4}{:>8}{:>10}{:>14.3}{:>12}   {:>14.0}",
            id,
            p.dataset.spec.attrs,
            p.train.num_rows(),
            elapsed,
            guard.outcome().mec_size,
            reference::T4_TIME_S[id as usize - 1]
        );
    }
    println!("\nSynthesis is a one-off offline cost per dataset (paper §8.1).");
}
