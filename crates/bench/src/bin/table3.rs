//! Table 3: error-detection effectiveness (F1 / MCC) of Guardrail vs TANE,
//! CTANE, and FDX across the 12 datasets. "-" marks a baseline failure
//! (resource exhaustion / numerical), as in the paper.

use guardrail_baselines::{
    ctane_discover, ctane_discover_variable, detect_cfd_violations, detect_fd_violations_minority,
    detect_variable_cfd_violations, fdx_discover, tane_discover, CtaneConfig, FdxConfig,
    TaneConfig,
};
use guardrail_bench::printing::{banner, fmt_metric, fmt_opt};
use guardrail_bench::reference;
use guardrail_bench::{prepare, HarnessConfig};
use guardrail_core::Guardrail;
use guardrail_stats::metrics::confusion_from_indices;
use guardrail_table::Table;

fn main() {
    let cfg = HarnessConfig::from_args();
    banner(
        "Table 3 — error detection: Guardrail vs TANE / CTANE / FDX",
        &format!(
            "rows cap {}; discovery on the clean split, detection on the dirty split",
            cfg.rows_cap
        ),
    );

    println!(
        "{:<4}{:<7}{:>10}{:>9}{:>9}{:>9}   {:>12}",
        "ID", "Metric", "Guardrail", "TANE", "CTANE", "FDX", "paper(Grd)"
    );

    let mut wins = 0usize;
    let mut comparisons = 0usize;
    for &id in &cfg.datasets {
        let p = prepare(id, &cfg);
        let truth = p.injection.dirty_rows();
        let n = p.test_dirty.num_rows();
        let score = |flagged: Option<Vec<usize>>| -> (Option<f64>, Option<f64>) {
            match flagged {
                None => (None, None),
                Some(rows) => {
                    let c = confusion_from_indices(&rows, &truth, n);
                    (Some(c.f1()), Some(c.mcc()))
                }
            }
        };

        let guard = Guardrail::builder().fit(&p.train).expect("schema is supported");
        let (g_f1, g_mcc) = score(Some(guard.detect(&p.test_dirty).dirty_rows()));

        let (t_f1, t_mcc) = score(run_tane(&p.train, &p.test_dirty));
        let (c_f1, c_mcc) = score(run_ctane(&p.train, &p.test_dirty));
        let (x_f1, x_mcc) = score(run_fdx(&p.train, &p.test_dirty));

        for (metric, g, t, c, x, paper) in [
            ("F1", g_f1, t_f1, c_f1, x_f1, reference::T3_GUARDRAIL_F1[id as usize - 1]),
            ("MCC", g_mcc, t_mcc, c_mcc, x_mcc, reference::T3_GUARDRAIL_MCC[id as usize - 1]),
        ] {
            println!(
                "{:<4}{:<7}{:>10}{:>9}{:>9}{:>9}   {:>12}",
                id,
                metric,
                fmt_opt(g),
                fmt_opt(t),
                fmt_opt(c),
                fmt_opt(x),
                fmt_metric(paper)
            );
            comparisons += 1;
            let gv = g.unwrap_or(f64::NEG_INFINITY);
            let gv = if gv.is_nan() { f64::NEG_INFINITY } else { gv };
            let best_other = [t, c, x]
                .into_iter()
                .flatten()
                .filter(|v| !v.is_nan())
                .fold(f64::NEG_INFINITY, f64::max);
            if gv >= best_other && gv > f64::NEG_INFINITY {
                wins += 1;
            }
        }
    }
    println!(
        "\nGuardrail ranks first in {wins}/{comparisons} comparisons   [paper: {}/24]",
        reference::T3_WINS
    );
}

fn run_tane(train: &Table, dirty: &Table) -> Option<Vec<usize>> {
    tane_discover(train, &TaneConfig::default())
        .ok()
        .map(|fds| detect_fd_violations_minority(dirty, &fds))
}

fn run_ctane(train: &Table, dirty: &Table) -> Option<Vec<usize>> {
    // CTANE's tableau holds both constant and variable CFDs; a row is
    // flagged when either fragment fires.
    let constant = ctane_discover(train, &CtaneConfig::default()).ok()?;
    let variable = ctane_discover_variable(train, &CtaneConfig::default(), 0.02).ok()?;
    let mut rows = detect_cfd_violations(dirty, &constant);
    rows.extend(detect_variable_cfd_violations(dirty, &variable));
    rows.sort_unstable();
    rows.dedup();
    Some(rows)
}

fn run_fdx(train: &Table, dirty: &Table) -> Option<Vec<usize>> {
    fdx_discover(train, &FdxConfig::default())
        .ok()
        .map(|fds| detect_fd_violations_minority(dirty, &fds))
}
