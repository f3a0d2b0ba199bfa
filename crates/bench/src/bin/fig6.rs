//! Fig. 6: effectiveness of rectification on ML-integrated SQL queries.
//!
//! 4 queries × 12 datasets = 48 query executions, each compared across
//! three modes: clean data (ground truth), dirty data (vanilla), dirty data
//! with Guardrail rectification. Per §8.2 of the paper, the injected errors
//! target attributes **covered by the synthesized constraints** ("we focus
//! on errors that are caused by the integrity constraints to isolate the
//! impact of undetectable errors"). The per-query relative L1 error is
//! min-max normalized per dataset; the headline number is the average error
//! reduction (paper: 0.87 ± 0.25).

use guardrail_bench::config::HarnessConfig;
use guardrail_bench::printing::banner;
use guardrail_bench::queries::{queries_for, result_signature, signature_l1};
use guardrail_bench::reference;
use guardrail_core::{ErrorScheme, Guardrail, GuardrailConfig};
use guardrail_datasets::{inject_errors, paper_dataset, InjectConfig};
use guardrail_ml::NaiveBayes;
use guardrail_sqlexec::{Catalog, Executor};
use guardrail_stats::metrics::min_max_normalize;
use guardrail_table::SplitSpec;
use std::sync::Arc;

fn main() {
    let _trace = guardrail_bench::arm_from_env();
    let cfg = HarnessConfig::from_args();
    banner(
        "Figure 6 — rectifying data errors in ML-integrated queries",
        &format!(
            "rows cap {}; 4 queries per dataset; errors target constrained attributes (§8.2)",
            cfg.rows_cap
        ),
    );

    let mut reductions = Vec::new();
    println!("{:<10}{:>8}{:>16}{:>16}", "query", "dataset", "err (dirty)", "err (rectified)");
    for &id in &cfg.datasets {
        let dataset = paper_dataset(id, cfg.rows_cap);
        let (train, test_clean) = SplitSpec::new(0.6, cfg.seed ^ id as u64).split(&dataset.clean);
        let guard = Guardrail::fit(&train, &GuardrailConfig::default());

        // §8.2: corrupt only dependent (ON) attributes of the synthesized
        // constraints — the errors the constraints can both detect *and*
        // rectify. (Corrupting a determinant is the appendix-F hard case:
        // rectification would cascade the wrong value into the dependent.)
        let schema = test_clean.schema();
        let mut constrained: Vec<usize> = guard
            .program()
            .statements
            .iter()
            .filter_map(|s| schema.index_of(&s.on))
            .filter(|&c| c != dataset.label_col)
            .collect();
        constrained.sort_unstable();
        constrained.dedup();
        if constrained.is_empty() {
            constrained =
                (0..test_clean.num_columns()).filter(|&c| c != dataset.label_col).collect();
        }
        let mut test_dirty = test_clean.clone();
        inject_errors(
            &mut test_dirty,
            &InjectConfig {
                columns: Some(constrained),
                seed: cfg.seed.wrapping_mul(0x9E37).wrapping_add(id as u64),
                ..InjectConfig::default()
            },
        );

        // Naive Bayes reads every attribute, so constrained-attribute errors
        // actually move its predictions (the ensemble's trees shrug off most
        // single-cell corruptions, hiding the effect this figure measures).
        let model = NaiveBayes::fit(&train, dataset.label_col);
        let queries = queries_for("t", "m", &test_clean, dataset.label_col);

        let run = |data: &guardrail_table::Table, guarded: bool, sql: &str| {
            let mut catalog = Catalog::new();
            catalog.add_table("t", data.clone());
            catalog.add_model("m", Arc::new(model.clone()));
            let exec = Executor::new(&catalog);
            let exec =
                if guarded { exec.with_guardrail(&guard, ErrorScheme::Rectify) } else { exec };
            exec.run(sql).expect("query runs").table
        };

        let mut dirty_errors = Vec::new();
        let mut fixed_errors = Vec::new();
        for sql in &queries {
            let truth = result_signature(&run(&test_clean, false, sql), sql);
            let dirty = result_signature(&run(&test_dirty, false, sql), sql);
            let fixed = result_signature(&run(&test_dirty, true, sql), sql);
            let rel = |obs| {
                let (d, norm) = signature_l1(obs, &truth);
                if norm == 0.0 {
                    if d == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    d / norm
                }
            };
            dirty_errors.push(rel(&dirty));
            fixed_errors.push(rel(&fixed));
        }
        // Min-max normalize per dataset over both series jointly so the two
        // modes stay comparable (the paper normalizes per query family).
        let mut all = dirty_errors.clone();
        all.extend(fixed_errors.iter().copied());
        let normalized = min_max_normalize(&all);
        let (norm_dirty, norm_fixed) = normalized.split_at(dirty_errors.len());
        for (qi, (d, f)) in norm_dirty.iter().zip(norm_fixed).enumerate() {
            println!("Q{:<9}{:>8}{:>16.3}{:>16.3}", qi + 1, id, d, f);
            if *d > 0.0 {
                // Reduction can be negative when rectification hurts.
                reductions.push((d - f) / d);
            }
        }
    }
    let avg = reductions.iter().sum::<f64>() / reductions.len().max(1) as f64;
    let var = reductions.iter().map(|r| (r - avg) * (r - avg)).sum::<f64>()
        / reductions.len().max(1) as f64;
    println!(
        "\naverage error reduction over {} queries: {:.2} ± {:.2}   [paper: {:.2} ± 0.25]",
        reductions.len(),
        avg,
        var.sqrt(),
        reference::F6_AVG_REDUCTION
    );
}
