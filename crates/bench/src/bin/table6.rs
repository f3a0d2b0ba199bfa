//! Table 6: runtime overhead of Guardrail-augmented query execution,
//! broken into Guardrail check time vs ML inference time.
//!
//! The shape to reproduce: guardrail time scales with rows × program size
//! and is comparable to or below the inference time — a modest overhead.
//!
//! One query takes well under a millisecond on the capped datasets, so each
//! is run [`RUNS`] times and both parts print in milliseconds as the median
//! and the interquartile range of those runs.

use guardrail_bench::printing::banner;
use guardrail_bench::reference;
use guardrail_bench::{prepare, HarnessConfig};
use guardrail_core::{ErrorScheme, Guardrail};
use guardrail_sqlexec::{Catalog, Executor};
use std::sync::Arc;

/// Timed runs of the query per dataset.
const RUNS: usize = 31;

/// Median and interquartile range of `ms`, rendered `median (q1–q3)`.
fn summary(ms: &mut [f64]) -> (f64, String) {
    ms.sort_by(f64::total_cmp);
    let at = |q: f64| ms[((ms.len() - 1) as f64 * q).round() as usize];
    (at(0.5), format!("{:.3} ({:.3}–{:.3})", at(0.5), at(0.25), at(0.75)))
}

fn main() {
    let _trace = guardrail_bench::arm_from_env();
    let cfg = HarnessConfig::from_args();
    banner(
        "Table 6 — runtime overhead (milliseconds) and breakdown",
        &format!(
            "rows cap {}; one guarded prediction query per dataset, median (q1–q3) of {RUNS} runs",
            cfg.rows_cap
        ),
    );

    println!(
        "{:<4}{:>8}{:>26}{:>26}   {:>10}{:>10}",
        "ID", "rows", "Guardrail (ms)", "Inference (ms)", "paper Grd", "paper Inf"
    );
    let mut below = 0;
    for &id in &cfg.datasets {
        let p = prepare(id, &cfg);
        let guard = Guardrail::builder().fit(&p.train).expect("schema is supported");
        let mut catalog = Catalog::new();
        catalog.add_table("t", p.test_dirty.clone());
        catalog.add_model("m", Arc::new(p.model.clone()));
        let exec = Executor::new(&catalog).with_guardrail(&guard, ErrorScheme::Rectify);
        let (mut grd, mut inf) = (Vec::with_capacity(RUNS), Vec::with_capacity(RUNS));
        for _ in 0..RUNS {
            let out = exec
                .run("SELECT PREDICT(m) AS pred, COUNT(*) AS n FROM t GROUP BY pred")
                .expect("query runs");
            grd.push(out.stats.guardrail_nanos as f64 / 1e6);
            inf.push(out.stats.inference_nanos as f64 / 1e6);
        }
        let ((g, grd), (i, inf)) = (summary(&mut grd), summary(&mut inf));
        below += usize::from(g < i);
        println!(
            "{:<4}{:>8}{:>26}{:>26}   {:>10.0}{:>10.0}",
            id,
            p.test_dirty.num_rows(),
            grd,
            inf,
            reference::T6_GUARDRAIL_S[id as usize - 1] * 1e3,
            reference::T6_INFERENCE_S[id as usize - 1] * 1e3,
        );
    }
    println!(
        "\nGuardrail median below inference median on {below} of {} datasets",
        cfg.datasets.len()
    );
    println!("paper: average Guardrail overhead 332 ms — lightweight next to inference");
}
