//! Fig. 7: impact of the noise-tolerance threshold ε on coverage and loss.
//!
//! Coverage should increase with ε (more branches clear the bar) at the
//! cost of higher loss (the kept branches tolerate more disagreeing rows).
//! The paper recommends ε ∈ [0.01, 0.05].

use guardrail_bench::printing::banner;
use guardrail_bench::reference;
use guardrail_bench::{prepare, HarnessConfig};
use guardrail_core::{Guardrail, GuardrailConfig};

const EPSILONS: [f64; 7] = [0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2];

fn main() {
    let cfg = HarnessConfig::from_args();
    banner(
        "Figure 7 — impact of ε on coverage and loss",
        &format!(
            "rows cap {}; paper recommends ε in [{}, {}]",
            cfg.rows_cap,
            reference::F7_RECOMMENDED_EPS.0,
            reference::F7_RECOMMENDED_EPS.1
        ),
    );

    print!("{:<4}{:>10}", "ID", "series");
    for e in EPSILONS {
        print!("{e:>9}");
    }
    println!();

    for &id in &cfg.datasets {
        let p = prepare(id, &cfg);
        let mut coverages = Vec::new();
        let mut losses = Vec::new();
        for eps in EPSILONS {
            let guard = Guardrail::builder()
                .config(GuardrailConfig::default().with_epsilon(eps))
                .fit(&p.train)
                .expect("schema is supported");
            let cov = if guard.coverage().is_nan() { 0.0 } else { guard.coverage() };
            // Loss rate: total branch loss over covered rows of the chosen
            // program (the blue series in the paper's figure).
            let (loss, support): (usize, usize) = guard
                .outcome()
                .statements
                .iter()
                .map(|f| (f.loss, f.support))
                .fold((0, 0), |(l, s), (fl, fs)| (l + fl, s + fs));
            let loss_rate = if support == 0 { 0.0 } else { loss as f64 / support as f64 };
            coverages.push(cov);
            losses.push(loss_rate);
        }
        print!("{:<4}{:>10}", id, "coverage");
        for c in &coverages {
            print!("{c:>9.3}");
        }
        println!();
        print!("{:<4}{:>10}", "", "loss");
        for l in &losses {
            print!("{l:>9.4}");
        }
        println!();
    }
    println!("\ncoverage rises with ε while per-branch loss grows — the paper's trade-off.");
}
