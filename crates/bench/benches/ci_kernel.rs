//! Criterion: fused sufficient-statistics kernel vs the legacy
//! contingency-table path for CI tests.
//!
//! The legacy path (`ci_test_reference`) hashes a `u64` stratum key per row
//! into a `HashMap` and allocates one `nx·ny` count vector per stratum; the
//! fused kernel (`suffstats::ci_test_fused`) tabulates a single flat count
//! tensor in one branch-free pass and reduces it with precomputed
//! marginals, reusing per-thread scratch. Both must return **bit-identical**
//! results — asserted here for every measured shape before any timing, so a
//! "speedup" that changes an answer fails the bench.
//!
//! Shapes: marginal, level-1 (|Z| = 1) and level-2 (|Z| = 2) conditioning
//! at 10k and 100k rows — the regime a PC skeleton level fans out.
//!
//! Auxiliary-sample shapes: binary `x`, `y` and |Z| = 0–4 binary
//! conditioning columns at 61k rows (about five circular shifts of an
//! 11k-row table), timed on the bit kernel (`bits/…`) and on the fused
//! row pass over a stratum pack (`fused/…`); both are checked against the
//! reference first.
//!
//! `CRITERION_JSON=<path>` archives the timings as JSON lines;
//! `results/bench/ci_kernel.jsonl` holds the seeded reference run that
//! `bench_diff` guards against regressions.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use guardrail_stats::suffstats::{
    ci_test_bits, ci_test_fused, ci_test_kernel, pack_bits, CiScratch, KernelPath, StratumPack,
    BIT_MAX_COND,
};
use guardrail_stats::{ci_test_reference, CiTestKind};

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.max(1);
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

const NX: usize = 3;
const NY: usize = 4;
const Z1_CARD: usize = 4;
const Z2_CARD: usize = 5;

/// One benchmark workload: x/y columns plus level-1 and level-2 packs.
struct Workload {
    label: &'static str,
    x: Vec<u32>,
    y: Vec<u32>,
    level1: StratumPack,
    level2: StratumPack,
}

fn workload(label: &'static str, rows: usize, seed: u64) -> Workload {
    let mut rng = xorshift(seed);
    let x: Vec<u32> = (0..rows).map(|_| (rng() % NX as u64) as u32).collect();
    // Mild dependence so the statistic folds non-trivial cells.
    let y: Vec<u32> = x
        .iter()
        .map(|&v| if rng() % 3 == 0 { (rng() % NY as u64) as u32 } else { v.min(NY as u32 - 1) })
        .collect();
    let z1: Vec<u32> = (0..rows).map(|_| (rng() % Z1_CARD as u64) as u32).collect();
    let z2: Vec<u32> = (0..rows).map(|_| (rng() % Z2_CARD as u64) as u32).collect();
    let level1 = StratumPack::pack(&[&z1], &[Z1_CARD]).unwrap();
    let level2 = StratumPack::pack(&[&z1, &z2], &[Z1_CARD, Z2_CARD]).unwrap();
    Workload { label, x, y, level1, level2 }
}

/// Every measured shape must agree bit-for-bit across legacy, dense, and
/// sparse before it is worth timing.
fn assert_paths_identical(w: &Workload) {
    let mut scratch = CiScratch::new();
    for kind in [CiTestKind::G2, CiTestKind::Pearson] {
        for pack in [None, Some(&w.level1), Some(&w.level2)] {
            let legacy = ci_test_reference(kind, &w.x, &w.y, pack.map(|p| p.keys()), NX, NY);
            for path in [KernelPath::Dense, KernelPath::Sparse] {
                let got = ci_test_kernel(
                    kind,
                    &w.x,
                    &w.y,
                    pack.map(|p| p.strata()),
                    NX,
                    NY,
                    path,
                    &mut scratch,
                );
                assert_eq!(got.statistic.to_bits(), legacy.statistic.to_bits(), "{path:?}");
                assert_eq!(got.df.to_bits(), legacy.df.to_bits(), "{path:?}");
                assert_eq!(got.p_value.to_bits(), legacy.p_value.to_bits(), "{path:?}");
            }
        }
    }
}

/// Rows of the auxiliary-shaped workload.
const AUX_ROWS: usize = 61_000;
/// Largest conditioning set of the auxiliary-shaped workload: one past the
/// largest the oracle routes to the bit kernel, where the row pass wins.
const AUX_MAX_COND: usize = BIT_MAX_COND + 1;

/// Binary indicator columns shaped like an auxiliary sample: `x`, `y`, then
/// `AUX_MAX_COND` conditioning columns, as codes and as packed bits.
struct AuxWorkload {
    codes: Vec<Vec<u32>>,
    bits: Vec<Vec<u64>>,
}

fn aux_workload(seed: u64) -> AuxWorkload {
    let mut rng = xorshift(seed);
    let mut codes: Vec<Vec<u32>> = Vec::new();
    for c in 0..2 + AUX_MAX_COND {
        // y leans on x; indicators of equal values are mostly 0.
        let col = (0..AUX_ROWS)
            .map(|i| match c {
                1 if rng() % 4 != 0 => codes[0][i],
                _ => u32::from(rng() % 10 < 3),
            })
            .collect();
        codes.push(col);
    }
    let bits = codes.iter().map(|c| pack_bits(c)).collect();
    AuxWorkload { codes, bits }
}

impl AuxWorkload {
    /// The stratum pack of the first `k` conditioning columns.
    fn pack(&self, k: usize) -> Option<StratumPack> {
        let z: Vec<&[u32]> = self.codes[2..2 + k].iter().map(Vec::as_slice).collect();
        (k > 0).then(|| StratumPack::pack(&z, &vec![2; k]).unwrap())
    }

    /// The first `k` packed conditioning columns.
    fn z_bits(&self, k: usize) -> Vec<&[u64]> {
        self.bits[2..2 + k].iter().map(Vec::as_slice).collect()
    }
}

/// The bit kernel and the fused row pass must both equal the reference on
/// every auxiliary shape before either is timed.
fn assert_bits_identical(w: &AuxWorkload) {
    for k in 0..=AUX_MAX_COND {
        let pack = w.pack(k);
        for kind in [CiTestKind::G2, CiTestKind::Pearson] {
            let (x, y) = (&w.codes[0], &w.codes[1]);
            let legacy = ci_test_reference(kind, x, y, pack.as_ref().map(|p| p.keys()), 2, 2);
            let fused = ci_test_fused(kind, x, y, pack.as_ref().map(|p| p.strata()), 2, 2);
            let bits = ci_test_bits(kind, AUX_ROWS, &w.bits[0], &w.bits[1], &w.z_bits(k));
            for got in [fused, bits] {
                assert_eq!(got.statistic.to_bits(), legacy.statistic.to_bits(), "k={k}");
                assert_eq!(got.df.to_bits(), legacy.df.to_bits(), "k={k}");
                assert_eq!(got.p_value.to_bits(), legacy.p_value.to_bits(), "k={k}");
            }
        }
    }
}

fn bench_ci_kernel(c: &mut Criterion) {
    let workloads = [workload("10k", 10_000, 42), workload("100k", 100_000, 43)];
    for w in &workloads {
        assert_paths_identical(w);
    }

    let mut group = c.benchmark_group("ci_kernel");
    group.sample_size(20);
    for w in &workloads {
        let levels: [(&str, Option<&StratumPack>); 3] =
            [("marginal", None), ("level1", Some(&w.level1)), ("level2", Some(&w.level2))];
        for (level, pack) in levels {
            group.bench_function(format!("legacy/{level}-{}", w.label), |b| {
                b.iter(|| {
                    ci_test_reference(
                        CiTestKind::G2,
                        black_box(&w.x),
                        black_box(&w.y),
                        pack.map(|p| p.keys()),
                        NX,
                        NY,
                    )
                })
            });
            group.bench_function(format!("fused/{level}-{}", w.label), |b| {
                b.iter(|| {
                    ci_test_fused(
                        CiTestKind::G2,
                        black_box(&w.x),
                        black_box(&w.y),
                        pack.map(|p| p.strata()),
                        NX,
                        NY,
                    )
                })
            });
        }
    }

    let aux = aux_workload(44);
    assert_bits_identical(&aux);
    for k in 0..=AUX_MAX_COND {
        let pack = aux.pack(k);
        let z_bits = aux.z_bits(k);
        group.bench_function(format!("bits/level{k}-aux61k"), |b| {
            b.iter(|| {
                ci_test_bits(
                    CiTestKind::G2,
                    AUX_ROWS,
                    black_box(&aux.bits[0]),
                    black_box(&aux.bits[1]),
                    &z_bits,
                )
            })
        });
        group.bench_function(format!("fused/level{k}-aux61k"), |b| {
            b.iter(|| {
                ci_test_fused(
                    CiTestKind::G2,
                    black_box(&aux.codes[0]),
                    black_box(&aux.codes[1]),
                    pack.as_ref().map(|p| p.strata()),
                    2,
                    2,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ci_kernel);
criterion_main!(benches);
