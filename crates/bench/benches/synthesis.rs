//! Criterion: the synthesis pipeline — Alg. 1 sketch filling, Alg. 2 over a
//! learned MEC (through the statement-level cache of §7), and the end-to-end
//! fit.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use guardrail_core::Guardrail;
use guardrail_datasets::paper_dataset;
use guardrail_governor::{Budget, Parallelism};
use guardrail_pgm::learn_cpdag;
use guardrail_synth::{
    fill_statement_sketch, synthesize_from_cpdag, StatementSketch, SynthesisConfig,
};

fn bench_fill(c: &mut Criterion) {
    let dataset = paper_dataset(2, 5000); // Lung Cancer / CANCER network
    let table = &dataset.clean;
    let sketch = StatementSketch::new(vec![2], 3); // cancer → xray
    c.bench_function("alg1_fill_statement_5k_rows", |b| {
        let budget = Budget::unlimited();
        b.iter(|| fill_statement_sketch(black_box(table), black_box(&sketch), 0.02, &budget))
    });
}

fn bench_mec_synthesis(c: &mut Criterion) {
    let dataset = paper_dataset(1, 3000); // Adult shape: 15 attrs
    let table = &dataset.clean;
    let unlimited = Budget::unlimited();
    let cpdag = learn_cpdag(table, &Default::default(), Parallelism::Auto, &unlimited).cpdag;
    let mut group = c.benchmark_group("alg2_mec_synthesis");
    group.sample_size(10);
    group.bench_function("adult_3k_rows", |b| {
        let config = SynthesisConfig::default().with_parallelism(Parallelism::Sequential);
        b.iter(|| synthesize_from_cpdag(black_box(table), &cpdag, &config, &unlimited))
    });
    group.finish();
}

fn bench_end_to_end_fit(c: &mut Criterion) {
    let dataset = paper_dataset(2, 4000);
    let mut group = c.benchmark_group("guardrail_fit");
    group.sample_size(10);
    group.bench_function("cancer_4k_rows", |b| {
        b.iter(|| Guardrail::builder().fit(black_box(&dataset.clean)).expect("schema is supported"))
    });
    group.finish();
}

criterion_group!(benches, bench_fill, bench_mec_synthesis, bench_end_to_end_fit);
criterion_main!(benches);
