//! Criterion: chunk-parallel detection and repair vs. the sequential path.
//!
//! `Guardrail::detect` and `Guardrail::apply` evaluate a compiled program
//! row by row; rows are independent, so the table is split into fixed-size
//! chunks mapped across worker threads and re-merged in chunk order. As with
//! the PC bench, equality is asserted before anything is timed: violations,
//! repaired bytes, and change counts must match the sequential run exactly.
//!
//! The parallel variants run a fixed two workers (`threads-2`), whatever
//! the host's thread count, so their names match the seeded lines on every
//! runner.
//!
//! `CRITERION_JSON=<path>` archives the timings as JSON lines.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use guardrail_core::{ErrorScheme, Guardrail, GuardrailConfig};
use guardrail_governor::Parallelism;
use guardrail_table::Table;

/// Worker count of the parallel variants.
const THREADS: usize = 2;

/// zip → city → state chain with mild noise: the fitted program has chained
/// repairs, exercising both the per-statement barrier and the per-row scan.
fn chain_table(seed: u64, rows: usize) -> Table {
    let mut csv = String::from("zip,city,state,extra\n");
    let mut s = seed.wrapping_mul(2654435761).max(1);
    for _ in 0..rows {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let z = s % 6;
        let c = if s % 53 == 0 { (z + 1) % 3 } else { z / 2 };
        let st = if s % 47 == 0 { (c + 1) % 2 } else { c / 2 };
        csv.push_str(&format!("{z},c{c},s{st},{}\n", (s >> 8) % 5));
    }
    Table::from_csv_str(&csv).unwrap()
}

fn guard_with(parallelism: Parallelism, train: &Table) -> Guardrail {
    let config = GuardrailConfig::default().with_parallelism(parallelism);
    Guardrail::builder().config(config).fit(train).expect("schema is supported")
}

fn bench_detect_parallel(c: &mut Criterion) {
    let train = chain_table(1, 4000);
    let dirty = chain_table(2, 30_000);
    let seq = guard_with(Parallelism::Sequential, &train);
    let par = guard_with(Parallelism::threads(THREADS), &train);

    // Correctness gate: same program, same violations, same repaired bytes.
    assert_eq!(seq.program().to_string(), par.program().to_string());
    assert!(!seq.program().statements.is_empty(), "nothing to detect against");
    assert_eq!(seq.detect(&dirty).violations, par.detect(&dirty).violations);
    for scheme in [ErrorScheme::Coerce, ErrorScheme::Rectify] {
        let (seq_fixed, seq_rep) = seq.apply(&dirty, scheme);
        let (par_fixed, par_rep) = par.apply(&dirty, scheme);
        assert_eq!(seq_rep.cells_changed, par_rep.cells_changed);
        assert_eq!(seq_fixed.to_csv_string(), par_fixed.to_csv_string());
    }

    let guards = [("sequential".to_string(), &seq), (format!("threads-{THREADS}"), &par)];
    let mut group = c.benchmark_group("detect_parallel");
    group.sample_size(30);
    for (name, guard) in &guards {
        group.bench_function(format!("detect/{name}"), |b| {
            b.iter(|| guard.detect(black_box(&dirty)))
        });
    }
    for (name, guard) in &guards {
        group.bench_function(format!("rectify/{name}"), |b| {
            b.iter(|| guard.apply(black_box(&dirty), ErrorScheme::Rectify))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_detect_parallel);
criterion_main!(benches);
