//! Criterion: graph kernels — PC structure learning, MEC enumeration, and
//! acyclic-orientation counting (the Table 7 machinery).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use guardrail_datasets::paper_dataset;
use guardrail_governor::{Budget, Parallelism};
use guardrail_graph::{acyclic_orientations, enumerate_extensions, Dag};
use guardrail_pgm::{learn_cpdag, LearnConfig};

fn bench_pc(c: &mut Criterion) {
    let mut group = c.benchmark_group("pc_algorithm");
    group.sample_size(10);
    for &id in &[2u8, 9] {
        let dataset = paper_dataset(id, 3000);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("ds{id}_{}attrs", dataset.spec.attrs)),
            &dataset,
            |b, d| {
                let unlimited = Budget::unlimited();
                let config = LearnConfig::default();
                b.iter(|| learn_cpdag(black_box(&d.clean), &config, Parallelism::Auto, &unlimited))
            },
        );
    }
    group.finish();
}

fn bench_mec_enumeration(c: &mut Criterion) {
    // A chain CPDAG of growing length: MEC size n+... grows linearly, the
    // recursion exercises Meek closure heavily.
    let mut group = c.benchmark_group("mec_enumeration");
    for &n in &[6usize, 10, 14] {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let dag = Dag::from_edges(n, &edges).unwrap();
        let cpdag = dag.to_cpdag();
        group.bench_with_input(BenchmarkId::from_parameter(n), &cpdag, |b, c| {
            b.iter(|| enumerate_extensions(black_box(c), &Budget::unlimited()))
        });
    }
    group.finish();
}

fn bench_orientation_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("acyclic_orientations");
    // Tree + chords at growing size (the Table 7 "w/o MEC" computation).
    for &n in &[20usize, 40] {
        let mut edges: Vec<(usize, usize)> = (1..n).map(|v| (v / 2, v)).collect();
        edges.push((1, n - 1));
        edges.push((2, n - 2));
        group.bench_with_input(BenchmarkId::from_parameter(n), &edges, |b, e| {
            b.iter(|| acyclic_orientations(n, black_box(e), 5_000_000))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pc, bench_mec_enumeration, bench_orientation_count);
criterion_main!(benches);
