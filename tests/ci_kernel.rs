//! Differential suite for the fused sufficient-statistics kernel.
//!
//! Three implementations answer every CI test: the dense flat-tensor
//! kernel, the counting-sort sparse fallback, and the pre-rewrite
//! `HashMap`-of-contingency-tables reference. They are required to agree
//! **bit for bit** — statistic, degrees of freedom, and p-value — over
//! randomized tables spanning the awkward shapes: mixed cardinalities,
//! null-as-extra-category codes, empty strata (sparse key spaces), and
//! degenerate card-1 columns. A second group checks the oracle-level
//! plumbing: an oracle answering from its memos agrees with a fresh oracle
//! and with the reference on multi-level conditioning sets.
//!
//! The bit kernel (`ci_test_bits`, binary columns packed 64 rows a word)
//! is held to the same bar: every conditioning-set size the oracle routes
//! to it and two more, row counts around the word boundary, constant
//! columns and empty strata, and every query PC can issue on a real
//! auxiliary sample.

use guardrail::graph::NodeSet;
use guardrail::pgm::{auxiliary_sample, DataOracle, EncodedData, IndependenceOracle};
use guardrail::stats::suffstats::{
    ci_test_bits, ci_test_fused, ci_test_kernel, pack_bits, CiScratch, KernelPath, Strata,
    StratumPack, BIT_MAX_COND,
};
use guardrail::stats::{ci_test_reference, CiTestKind, CiTestResult};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.max(1);
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// Asserts exact (bit-level) equality of two test results.
fn assert_bits_eq(got: CiTestResult, want: CiTestResult, ctx: &str) {
    assert_eq!(got.statistic.to_bits(), want.statistic.to_bits(), "statistic differs: {ctx}");
    assert_eq!(got.df.to_bits(), want.df.to_bits(), "df differs: {ctx}");
    assert_eq!(got.p_value.to_bits(), want.p_value.to_bits(), "p-value differs: {ctx}");
}

/// Runs one configuration through all three paths and checks bit equality.
/// `strata` may deliberately use a domain far larger than the observed keys
/// (empty strata) — both kernels must still match the reference.
#[allow(clippy::too_many_arguments)]
fn check_all_paths(
    kind: CiTestKind,
    x: &[u32],
    y: &[u32],
    strata: Option<Strata<'_>>,
    nx: usize,
    ny: usize,
    scratch: &mut CiScratch,
    ctx: &str,
) {
    let reference = ci_test_reference(kind, x, y, strata.map(|s| s.keys), nx, ny);
    for path in [KernelPath::Dense, KernelPath::Sparse] {
        let got = ci_test_kernel(kind, x, y, strata, nx, ny, path, scratch);
        assert_bits_eq(got, reference, &format!("{ctx} kind={kind:?} path={path:?}"));
    }
    // The public dispatcher (thread-local scratch, automatic path choice).
    let got = ci_test_fused(kind, x, y, strata, nx, ny);
    assert_bits_eq(got, reference, &format!("{ctx} kind={kind:?} path=auto"));
}

#[test]
fn randomized_tables_match_reference_exactly() {
    let mut rng = xorshift(2024);
    let mut scratch = CiScratch::new();
    // Cardinalities include 1 (degenerate/constant columns, e.g. all-null)
    // and small primes; the last configuration makes X a near-copy of Y so
    // dependent tables are exercised too.
    for trial in 0..60 {
        let n = 40 + (rng() % 2000) as usize;
        let nx = 1 + (rng() % 5) as usize;
        let ny = 1 + (rng() % 5) as usize;
        let zc = 1 + (rng() % 6) as usize;
        let dependent = trial % 3 == 0;
        let x: Vec<u32> = (0..n).map(|_| (rng() % nx as u64) as u32).collect();
        let y: Vec<u32> =
            if dependent {
                x.iter()
                    .map(|&v| {
                        if rng() % 4 == 0 {
                            (rng() % ny as u64) as u32
                        } else {
                            v.min(ny as u32 - 1)
                        }
                    })
                    .collect()
            } else {
                (0..n).map(|_| (rng() % ny as u64) as u32).collect()
            };
        let z: Vec<u32> = (0..n).map(|_| (rng() % zc as u64) as u32).collect();
        let pack = StratumPack::pack(&[&z], &[zc]).unwrap();
        let ctx = format!("trial={trial} n={n} nx={nx} ny={ny} zc={zc}");
        for kind in [CiTestKind::G2, CiTestKind::Pearson] {
            check_all_paths(kind, &x, &y, None, nx, ny, &mut scratch, &ctx);
            check_all_paths(kind, &x, &y, Some(pack.strata()), nx, ny, &mut scratch, &ctx);
        }
    }
}

#[test]
fn empty_strata_and_sparse_key_spaces_match() {
    let mut rng = xorshift(77);
    let mut scratch = CiScratch::new();
    let n = 600;
    let (nx, ny) = (3usize, 3usize);
    let x: Vec<u32> = (0..n).map(|_| (rng() % nx as u64) as u32).collect();
    let y: Vec<u32> = (0..n).map(|_| (rng() % ny as u64) as u32).collect();
    // Keys drawn from a tiny subset of a huge domain: most strata empty.
    // The dense path (when forced) must skip the empty blocks identically
    // to the reference, which never materializes them.
    let sparse_keys: Vec<u64> = (0..n).map(|_| [0u64, 7, 8, 4999][(rng() % 4) as usize]).collect();
    for domain in [5000u64, 10_000] {
        let strata = Strata { keys: &sparse_keys, domain };
        let ctx = format!("sparse keys, domain={domain}");
        for kind in [CiTestKind::G2, CiTestKind::Pearson] {
            check_all_paths(kind, &x, &y, Some(strata), nx, ny, &mut scratch, &ctx);
        }
    }
    // Singleton strata (every row its own stratum): zero information, all
    // paths must return the conservative df = 0 / p = 1.
    let singleton_keys: Vec<u64> = (0..n as u64).collect();
    let strata = Strata { keys: &singleton_keys, domain: n as u64 };
    for kind in [CiTestKind::G2, CiTestKind::Pearson] {
        check_all_paths(kind, &x, &y, Some(strata), nx, ny, &mut scratch, "singleton strata");
        let r = ci_test_fused(kind, &x, &y, Some(strata), nx, ny);
        assert_eq!(r.df, 0.0);
        assert_eq!(r.p_value, 1.0);
    }
}

#[test]
fn null_coded_tables_match() {
    // Columns with nulls are encoded as an extra trailing category; make
    // that category rare so some strata never see it (structural zeros).
    let mut rng = xorshift(31);
    let mut scratch = CiScratch::new();
    let n = 1500;
    let (nx, ny, zc) = (3usize, 4usize, 3usize); // last code of each = "null"
    let x: Vec<u32> = (0..n)
        .map(|_| if rng() % 50 == 0 { nx as u32 - 1 } else { (rng() % (nx as u64 - 1)) as u32 })
        .collect();
    let y: Vec<u32> = (0..n)
        .map(|_| if rng() % 50 == 0 { ny as u32 - 1 } else { (rng() % (ny as u64 - 1)) as u32 })
        .collect();
    let z: Vec<u32> = (0..n)
        .map(|_| if rng() % 50 == 0 { zc as u32 - 1 } else { (rng() % (zc as u64 - 1)) as u32 })
        .collect();
    let pack = StratumPack::pack(&[&z], &[zc]).unwrap();
    for kind in [CiTestKind::G2, CiTestKind::Pearson] {
        check_all_paths(kind, &x, &y, Some(pack.strata()), nx, ny, &mut scratch, "null-coded");
    }
}

#[test]
fn multi_column_conditioning_matches() {
    let mut rng = xorshift(404);
    let mut scratch = CiScratch::new();
    let n = 2500;
    let cards = [3usize, 2, 4];
    let cols: Vec<Vec<u32>> =
        cards.iter().map(|&c| (0..n).map(|_| (rng() % c as u64) as u32).collect()).collect();
    let refs: Vec<&[u32]> = cols.iter().map(|c| c.as_slice()).collect();
    let x: Vec<u32> = (0..n).map(|_| (rng() % 3) as u32).collect();
    let y: Vec<u32> = (0..n).map(|_| (rng() % 3) as u32).collect();
    for k in 1..=cards.len() {
        let pack = StratumPack::pack(&refs[..k], &cards[..k]).unwrap();
        for kind in [CiTestKind::G2, CiTestKind::Pearson] {
            check_all_paths(
                kind,
                &x,
                &y,
                Some(pack.strata()),
                3,
                3,
                &mut scratch,
                &format!("k={k}"),
            );
        }
    }
}

/// The reference test of the query `(x, y, z)` on `data`'s columns, in the
/// oracle's `(min, max)` argument order, with every `z` column's `card`.
fn oracle_reference(data: &EncodedData, x: usize, y: usize, z: &[usize]) -> CiTestResult {
    let (a, b) = (x.min(y), x.max(y));
    let z_cols: Vec<&[u32]> = z.iter().map(|&i| data.column(i)).collect();
    let z_cards: Vec<usize> = z.iter().map(|&i| data.card(i)).collect();
    let pack = (!z.is_empty()).then(|| StratumPack::pack(&z_cols, &z_cards).unwrap());
    let (xs, ys) = (data.column(a), data.column(b));
    ci_test_reference(
        CiTestKind::G2,
        xs,
        ys,
        pack.as_ref().map(StratumPack::keys),
        data.card(a),
        data.card(b),
    )
}

/// Oracle-level: walking PC's level structure (singletons, then pairs,
/// then triples), an oracle answering from its memos agrees with a fresh
/// oracle and with the reference on every query.
#[test]
fn oracle_multi_level_packs_match_reference() {
    let mut rng = xorshift(9001);
    let n = 5000;
    let cards = [2usize, 3, 2, 4, 2];
    let cols: Vec<Vec<u32>> =
        cards.iter().map(|&c| (0..n).map(|_| (rng() % c as u64) as u32).collect()).collect();
    let data = EncodedData::from_parts(
        cols,
        cards.to_vec(),
        (0..cards.len()).map(|i| format!("a{i}")).collect(),
    );
    let warm = DataOracle::new(&data);
    let m = data.num_attrs();
    let mut zs: Vec<Vec<usize>> = (0..m).map(|a| vec![a]).collect();
    for a in 0..m {
        for b in (a + 1)..m {
            zs.push(vec![a, b]);
        }
    }
    for a in 0..m {
        for b in (a + 1)..m {
            for c in (b + 1)..m {
                zs.push(vec![a, b, c]);
            }
        }
    }
    let mut tested = 0;
    for z_nodes in zs {
        let z = NodeSet::from_iter(z_nodes.iter().copied());
        for x in 0..m {
            for y in (x + 1)..m {
                if z.contains(x) || z.contains(y) {
                    continue;
                }
                let got = warm.ci_result(x, y, z);
                let fresh = DataOracle::new(&data);
                assert_eq!(got, fresh.ci_result(y, x, z), "x={x} y={y} z={z:?}");
                assert_eq!(warm.independent(x, y, z), fresh.independent(x, y, z));
                if let Some(got) = got {
                    let want = oracle_reference(&data, x, y, &z_nodes);
                    assert_bits_eq(got, want, &format!("x={x} y={y} z={z:?}"));
                    tested += 1;
                }
            }
        }
    }
    assert!(tested > 20, "only {tested} queries passed the reliability floor");
    let stats = warm.cache_stats();
    assert!(stats.packed_tests > 0, "{stats:?}");
    assert_eq!(stats.bit_tests + stats.packed_tests, stats.result_misses, "{stats:?}");
}

/// Checks the bit kernel against the reference on binary code columns,
/// conditioning on the first `k` of `z` for every `k ≤ |z|`.
fn check_bits(x: &[u32], y: &[u32], z: &[Vec<u32>], ctx: &str) {
    let n = x.len();
    let (bx, by) = (pack_bits(x), pack_bits(y));
    let bz: Vec<Vec<u64>> = z.iter().map(|c| pack_bits(c)).collect();
    let cols: Vec<&[u64]> = bz.iter().map(Vec::as_slice).collect();
    for k in 0..=z.len() {
        let z_refs: Vec<&[u32]> = z[..k].iter().map(Vec::as_slice).collect();
        let pack = (k > 0).then(|| StratumPack::pack(&z_refs, &vec![2; k]).unwrap());
        for kind in [CiTestKind::G2, CiTestKind::Pearson] {
            let want = ci_test_reference(kind, x, y, pack.as_ref().map(StratumPack::keys), 2, 2);
            let got = ci_test_bits(kind, n, &bx, &by, &cols[..k]);
            assert_bits_eq(got, want, &format!("{ctx} n={n} k={k} kind={kind:?}"));
        }
    }
}

#[test]
fn bit_kernel_matches_reference_around_word_boundaries() {
    let mut rng = xorshift(61);
    for n in [1usize, 2, 63, 64, 65, 127, 128, 129, 1000, 61_000] {
        let bit = |p: u64, rng: &mut dyn FnMut() -> u64| u32::from(rng() % 100 < p);
        let x: Vec<u32> = (0..n).map(|_| bit(50, &mut rng)).collect();
        // y copies x with 20% noise, so dependent tables are exercised.
        let y: Vec<u32> =
            x.iter().map(|&v| if rng() % 5 == 0 { bit(50, &mut rng) } else { v }).collect();
        let z: Vec<Vec<u32>> = [50, 30, 70, 10, 90]
            .iter()
            .map(|&p| (0..n).map(|_| bit(p, &mut rng)).collect())
            .collect();
        check_bits(&x, &y, &z, "random");
    }
}

#[test]
fn bit_kernel_matches_reference_on_constant_columns_and_empty_strata() {
    let mut rng = xorshift(62);
    for n in [1usize, 64, 65, 5000] {
        let random = |rng: &mut dyn FnMut() -> u64| -> Vec<u32> {
            (0..n).map(|_| (rng() % 2) as u32).collect()
        };
        let (zeros, ones) = (vec![0u32; n], vec![1u32; n]);
        let (x, y) = (random(&mut rng), random(&mut rng));
        // Constant x or y: no stratum carries information (df 0).
        check_bits(&zeros, &y, &[random(&mut rng)], "x all zero");
        check_bits(&x, &ones, &[random(&mut rng)], "y all one");
        check_bits(&ones, &zeros, &[], "both constant");
        // Constant conditioning columns leave half of each split empty;
        // a column equal to another leaves the mixed strata empty.
        let z0 = random(&mut rng);
        let z = vec![ones.clone(), z0.clone(), zeros.clone(), z0, random(&mut rng)];
        check_bits(&x, &y, &z, "empty strata");
    }
}

/// On a real auxiliary sample, every `(x, y, Z)` query the oracle answers
/// (both argument orders, every `Z`) is exactly the reference test on the
/// `u32` indicator columns: those with `|Z| ≤ BIT_MAX_COND` on the bit
/// kernel, the larger ones on a packed row pass.
#[test]
fn oracle_on_auxiliary_sample_matches_reference() {
    let mut rng = xorshift(4242);
    let n = 3000;
    // A chain a0 → a1 → a2 with noise, plus unrelated columns of mixed
    // cardinality (the indicators are binary whatever the source card).
    let a0: Vec<u32> = (0..n).map(|_| (rng() % 12) as u32).collect();
    let a1: Vec<u32> =
        a0.iter().map(|&v| if rng() % 10 == 0 { (rng() % 4) as u32 } else { v % 4 }).collect();
    let a2: Vec<u32> =
        a1.iter().map(|&v| if rng() % 10 == 0 { (rng() % 2) as u32 } else { v % 2 }).collect();
    let a3: Vec<u32> = (0..n).map(|_| (rng() % 3) as u32).collect();
    let a4: Vec<u32> = (0..n).map(|_| (rng() % 40) as u32).collect();
    let a5: Vec<u32> = (0..n).map(|_| (rng() % 2) as u32).collect();
    let data = EncodedData::from_parts(
        vec![a0, a1, a2, a3, a4, a5],
        vec![12, 4, 2, 3, 40, 2],
        (0..6).map(|i| format!("a{i}")).collect(),
    );
    let aux = auxiliary_sample(&data, 20_000, &mut StdRng::seed_from_u64(3));
    let oracle = DataOracle::new(&aux);
    let m = aux.num_attrs();
    let (mut tested, mut wide) = (0, std::collections::HashSet::new());
    for x in 0..m {
        for y in 0..m {
            if x == y {
                continue;
            }
            let others: Vec<usize> = (0..m).filter(|&i| i != x && i != y).collect();
            for mask in 0u32..1 << others.len() {
                let z_nodes: Vec<usize> = others
                    .iter()
                    .enumerate()
                    .filter(|(b, _)| mask >> b & 1 == 1)
                    .map(|(_, &v)| v)
                    .collect();
                let z = NodeSet::from_iter(z_nodes.iter().copied());
                let got = oracle.ci_result(x, y, z);
                assert_eq!(got, DataOracle::new(&aux).ci_result(x, y, z), "x={x} y={y} z={z:?}");
                let Some(got) = got else { continue };
                let want = oracle_reference(&aux, x, y, &z_nodes);
                assert_bits_eq(got, want, &format!("x={x} y={y} z={z:?}"));
                let (a, b) = (x.min(y), x.max(y));
                tested += 1;
                if z.len() > BIT_MAX_COND {
                    wide.insert((a, b, z));
                }
            }
        }
    }
    assert!(tested > 300, "only {tested} queries passed the reliability floor");
    assert!(!wide.is_empty(), "no query past BIT_MAX_COND passed the floor");
    let stats = oracle.cache_stats();
    assert_eq!(stats.packed_tests, wide.len() as u64, "{stats:?}");
    assert_eq!(stats.bit_tests + stats.packed_tests, stats.result_misses, "{stats:?}");
}
