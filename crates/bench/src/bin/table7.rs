//! Table 7: search-space reduction from the MEC restriction.
//!
//! "w/ MEC": the number of DAGs in the learned equivalence class (what
//! Alg. 2 enumerates) and the enumeration time. "w/o MEC": the number of
//! acyclic orientations of the learned skeleton — the space a sketch-free
//! enumeration would face.

use guardrail_bench::printing::{banner, fmt_count};
use guardrail_bench::reference;
use guardrail_bench::{prepare, HarnessConfig};
use guardrail_governor::{Budget, Parallelism};
use guardrail_graph::{acyclic_orientations, count_extensions};
use guardrail_pgm::{learn_cpdag, LearnConfig};
use std::time::Instant;

fn main() {
    let cfg = HarnessConfig::from_args();
    banner("Table 7 — search space and enumeration time", &format!("rows cap {}", cfg.rows_cap));

    println!(
        "{:<4}{:>7}{:>13}{:>12}{:>16}   {:>9}{:>12}",
        "ID", "#Attr", "#DAGs w/MEC", "time (ms)", "#DAGs w/o MEC", "paper w/", "paper w/o"
    );
    for &id in &cfg.datasets {
        let p = prepare(id, &cfg);
        let unlimited = Budget::unlimited();
        let cpdag =
            learn_cpdag(&p.train, &LearnConfig::default(), Parallelism::Auto, &unlimited).cpdag;
        let t0 = Instant::now();
        let (mec_size, status) = count_extensions(&cpdag, &Budget::with_work_cap(100_000));
        let truncated = !status.is_complete();
        let enum_ms = t0.elapsed().as_secs_f64() * 1e3;
        let skeleton = cpdag.skeleton_edges();
        let orientations = acyclic_orientations(cpdag.num_nodes(), &skeleton, 5_000_000);
        println!(
            "{:<4}{:>7}{:>12}{}{:>12.2}{:>16}   {:>9}{:>12}",
            id,
            p.dataset.spec.attrs,
            mec_size,
            if truncated { "+" } else { " " },
            enum_ms,
            format!(
                "{}{}",
                fmt_count(orientations.count),
                if orientations.exact { "" } else { "≤" }
            ),
            reference::T7_DAGS_WITH_MEC[id as usize - 1],
            fmt_count(reference::T7_DAGS_WITHOUT_MEC[id as usize - 1]),
        );
    }
    println!("\nThe MEC restriction shrinks the orientation space by orders of magnitude (§8.3).");
}
