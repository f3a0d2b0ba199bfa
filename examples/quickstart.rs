//! Quickstart: synthesize constraints, inspect the program, detect and fix
//! errors.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use guardrail::prelude::*;

fn main() {
    // --- 1. Clean training data ---------------------------------------
    // A toy relation where the DGP is the chain zip → city → state
    // (Example 3.1 of the paper), plus an unconstrained noise column.
    let mut csv = String::from("zip,city,state,visitors\n");
    let cities = [
        ("94704", "Berkeley", "CA"),
        ("94705", "Berkeley", "CA"),
        ("94110", "SF", "CA"),
        ("94114", "SF", "CA"),
        ("97201", "Portland", "OR"),
        ("97209", "Portland", "OR"),
    ];
    for i in 0..900 {
        let (zip, city, state) = cities[(i * 7 + i / 13) % 6];
        csv.push_str(&format!("{zip},{city},{state},{}\n", (i * 37) % 11));
    }
    let clean = Table::from_csv_str(&csv).expect("valid CSV");
    println!("training on {} clean rows\n", clean.num_rows());

    // --- 2. Offline synthesis -----------------------------------------
    // The builder exposes every fit-time knob; unset ones keep their
    // defaults (unlimited budget, one worker per hardware thread). The
    // worker count is part of the synthesis config.
    let config = GuardrailConfig::default().with_parallelism(Parallelism::Auto);
    let guard = Guardrail::builder()
        .config(config)
        .budget(Budget::unlimited())
        .fit(&clean)
        .expect("schema is supported");
    println!("synthesized program (coverage {:.2}):\n{}", guard.coverage(), guard.program());
    println!(
        "MEC contained {} DAG(s); statement cache hit rate {:.0}%\n",
        guard.outcome().mec_size,
        guard.outcome().cache_stats.hit_rate() * 100.0
    );

    // --- 3. Error detection --------------------------------------------
    let dirty = Table::from_csv_str(
        "zip,city,state,visitors\n\
         94704,Berkeley,CA,3\n\
         94704,gibbon,CA,5\n\
         97201,Portland,WA,1\n",
    )
    .expect("valid CSV");
    let report = guard.detect(&dirty);
    println!("detected {} violation(s) on {} rows:", report.violations.len(), dirty.num_rows());
    for v in &report.violations {
        println!(
            "  row {}: {} should be {:?} per the DGP, found {:?}",
            v.row,
            v.attribute,
            v.expected.to_string(),
            v.actual.to_string()
        );
    }

    // --- 4. The four error-handling schemes -----------------------------
    for scheme in [ErrorScheme::Ignore, ErrorScheme::Coerce, ErrorScheme::Rectify] {
        let (fixed, rep) = guard.apply(&dirty, scheme);
        println!(
            "\nscheme {:?}: {} cell(s) changed; row 1 city is now {:?}",
            scheme,
            rep.cells_changed,
            fixed.get(1, 1).unwrap().to_string()
        );
    }

    // Raise is for vetting rows at query time: the violations come back
    // row-ordered, so the caller rejects the first dirty row.
    let vetted = guard.vet_rows(&dirty, &[1], ErrorScheme::Raise).expect("program binds");
    match vetted.violations.first() {
        Some(_) => {
            println!(
                "\nraise scheme surfaced {} violation(s), row rejected",
                vetted.violations.len()
            )
        }
        None => println!("\nunexpected: row 1 vetted clean"),
    }
}
