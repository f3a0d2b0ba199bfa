//! Criterion: the online path — row validation and rectification throughput
//! (what Table 6's "Guardrail time" is made of).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use guardrail_core::{ErrorScheme, Guardrail};
use guardrail_datasets::{inject_errors, paper_dataset, InjectConfig};
use guardrail_table::SplitSpec;

fn setup(id: u8, rows: usize) -> (Guardrail, guardrail_table::Table) {
    let dataset = paper_dataset(id, rows);
    let (train, test) = SplitSpec::default().split(&dataset.clean);
    let guard = Guardrail::builder().fit(&train).expect("schema is supported");
    let mut dirty = test;
    inject_errors(&mut dirty, &InjectConfig::default());
    (guard, dirty)
}

fn bench_detect_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("detect_table");
    for &(id, rows) in &[(2u8, 2000usize), (2, 10_000), (1, 5000)] {
        let (guard, dirty) = setup(id, rows);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("ds{id}_{}rows", dirty.num_rows())),
            &(),
            |b, _| b.iter(|| guard.detect(black_box(&dirty))),
        );
    }
    group.finish();
}

fn bench_schemes(c: &mut Criterion) {
    let (guard, dirty) = setup(2, 5000);
    let mut group = c.benchmark_group("apply_scheme");
    for scheme in [ErrorScheme::Ignore, ErrorScheme::Coerce, ErrorScheme::Rectify] {
        group.bench_function(format!("{scheme:?}"), |b| {
            b.iter(|| guard.apply(black_box(&dirty), scheme))
        });
    }
    group.finish();
}

fn bench_vet_rows(c: &mut Criterion) {
    // Batched vetting of 100 rows: the query-time hook of a guarded scan.
    let (guard, dirty) = setup(2, 5000);
    let rows: Vec<usize> = (0..100.min(dirty.num_rows())).collect();
    c.bench_function("vet_rows_rectify_x100", |b| {
        b.iter(|| black_box(guard.vet_rows(&dirty, &rows, ErrorScheme::Rectify)))
    });
}

criterion_group!(benches, bench_detect_table, bench_schemes, bench_vet_rows);
criterion_main!(benches);
