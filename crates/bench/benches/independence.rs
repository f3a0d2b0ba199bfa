//! Criterion: conditional-independence testing kernels — the inner loop of
//! sketch learning (one PC run issues thousands of these).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use guardrail_stats::independence::CiTestKind;
use guardrail_stats::suffstats::{ci_test_fused, StratumPack};

fn synthetic_codes(n: usize, card: u32, seed: u64) -> Vec<u32> {
    let mut s = seed.max(1);
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % card as u64) as u32
        })
        .collect()
}

fn bench_marginal(c: &mut Criterion) {
    let mut group = c.benchmark_group("g2_marginal");
    for &n in &[1_000usize, 10_000, 100_000] {
        let x = synthetic_codes(n, 5, 1);
        let y = synthetic_codes(n, 4, 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| ci_test_fused(CiTestKind::G2, black_box(&x), black_box(&y), None, 5, 4))
        });
    }
    group.finish();
}

fn bench_conditional(c: &mut Criterion) {
    let mut group = c.benchmark_group("g2_conditional");
    for &zvars in &[1usize, 2, 3] {
        let n = 20_000;
        let x = synthetic_codes(n, 3, 1);
        let y = synthetic_codes(n, 3, 2);
        let z_cols: Vec<Vec<u32>> =
            (0..zvars).map(|i| synthetic_codes(n, 4, 10 + i as u64)).collect();
        let z_refs: Vec<&[u32]> = z_cols.iter().map(|c| c.as_slice()).collect();
        let cards = vec![4usize; zvars];
        group.bench_with_input(BenchmarkId::from_parameter(zvars), &zvars, |b, _| {
            b.iter(|| {
                let pack = StratumPack::pack(black_box(&z_refs), &cards).unwrap();
                ci_test_fused(CiTestKind::G2, &x, &y, Some(pack.strata()), 3, 3)
            })
        });
    }
    group.finish();
}

fn bench_pearson_vs_g2(c: &mut Criterion) {
    let n = 50_000;
    let x = synthetic_codes(n, 6, 3);
    let y = synthetic_codes(n, 6, 4);
    let mut group = c.benchmark_group("test_statistics");
    group.bench_function("g2", |b| {
        b.iter(|| ci_test_fused(CiTestKind::G2, black_box(&x), black_box(&y), None, 6, 6))
    });
    group.bench_function("pearson", |b| {
        b.iter(|| ci_test_fused(CiTestKind::Pearson, black_box(&x), black_box(&y), None, 6, 6))
    });
    group.finish();
}

criterion_group!(benches, bench_marginal, bench_conditional, bench_pearson_vs_g2);
criterion_main!(benches);
