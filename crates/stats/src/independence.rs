//! Conditional independence tests over coded data.
//!
//! These tests are the statistical oracle of the sketch-learning stage: the
//! PC algorithm asks "is X ⫫ Y | Z?" and we answer with a G² or Pearson X²
//! test over the stratified contingency tables. Degrees of freedom follow the
//! standard convention `(|X|−1)(|Y|−1)·Π|Z|`, computed per observed stratum
//! with structural-zero correction (rows/columns that never occur in a
//! stratum do not contribute df).

use crate::chi2::ChiSquared;
use crate::contingency::ContingencyTable;
use crate::suffstats::{ci_test_fused, Strata};

/// Which test statistic to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CiTestKind {
    /// Likelihood-ratio G² test (default; standard for discrete PC).
    #[default]
    G2,
    /// Pearson chi-squared test.
    Pearson,
}

/// Outcome of a conditional independence test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CiTestResult {
    /// The test statistic (G² or X²).
    pub statistic: f64,
    /// Degrees of freedom after structural-zero correction.
    pub df: f64,
    /// p-value under the chi-squared null.
    pub p_value: f64,
}

impl CiTestResult {
    /// Declares independence at significance level `alpha`.
    pub fn independent(&self, alpha: f64) -> bool {
        self.p_value > alpha
    }
}

/// Tests `x ⫫ y | z` where `x`/`y` are code slices with cardinalities
/// `nx`/`ny` and `z[i]` is a packed stratum key for row `i` (empty `z` slice =
/// marginal test).
///
/// Returns a result with `df = 0` and `p_value = 1` when there is no
/// information at all (e.g. every stratum is a single observation), which the
/// PC algorithm treats as "cannot reject independence" — the conservative
/// choice for sparse conditioning sets.
///
/// Dispatches to the fused tabulation kernel in [`crate::suffstats`]
/// (dense flat-tensor path when the stratum domain is small relative to the
/// data, counting-sort group-by otherwise), which is bit-identical to the
/// legacy contingency-table walk retained as [`ci_test_reference`]. Callers
/// that already know the key domain (`Π |Z|`) should call
/// [`crate::suffstats::ci_test_fused`] directly and skip the max-key scan.
pub fn ci_test(
    kind: CiTestKind,
    x: &[u32],
    y: &[u32],
    z: Option<&[u64]>,
    nx: usize,
    ny: usize,
) -> CiTestResult {
    ci_test_fused(kind, x, y, z.map(Strata::infer), nx, ny)
}

/// The pre-kernel implementation of [`ci_test`]: materializes one
/// [`ContingencyTable`] per observed stratum via a `HashMap` and folds the
/// statistic table by table.
///
/// Kept as the differential-testing and benchmark reference — the fused
/// kernels must reproduce its output bit-for-bit (`tests/ci_kernel.rs`, the
/// `ci_kernel` bench equality gate). Not a hot path: prefer [`ci_test`].
pub fn ci_test_reference(
    kind: CiTestKind,
    x: &[u32],
    y: &[u32],
    z: Option<&[u64]>,
    nx: usize,
    ny: usize,
) -> CiTestResult {
    let tables = match z {
        None => vec![ContingencyTable::from_codes(x, y, nx, ny)],
        Some(z) => ContingencyTable::stratified(x, y, z, nx, ny),
    };

    let mut statistic = 0.0;
    let mut df = 0.0;
    for t in &tables {
        let rows = t.nonzero_rows();
        let cols = t.nonzero_cols();
        if rows < 2 || cols < 2 {
            continue; // stratum carries no information about dependence
        }
        statistic += match kind {
            CiTestKind::G2 => t.g2(),
            CiTestKind::Pearson => t.pearson_x2(),
        };
        df += ((rows - 1) * (cols - 1)) as f64;
    }

    if df == 0.0 {
        return CiTestResult { statistic: 0.0, df: 0.0, p_value: 1.0 };
    }
    let p_value = ChiSquared::new(df).sf(statistic);
    CiTestResult { statistic, df, p_value }
}

/// Packs per-row conditioning codes into stratum keys by mixed-radix
/// encoding. `columns` holds one code slice per conditioning attribute and
/// `cards` the matching cardinalities (null codes must be remapped by the
/// caller beforehand).
///
/// Returns `None` on overflow (product of cardinalities exceeding u64), which
/// callers treat as an untestable conditioning set.
pub fn pack_strata(columns: &[&[u32]], cards: &[usize]) -> Option<Vec<u64>> {
    assert_eq!(columns.len(), cards.len());
    if columns.is_empty() {
        return Some(Vec::new());
    }
    Some(crate::suffstats::StratumPack::pack(columns, cards)?.into_keys())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream for test data.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed.max(1);
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    #[test]
    fn detects_marginal_dependence() {
        let mut rng = xorshift(42);
        let n = 2000;
        let x: Vec<u32> = (0..n).map(|_| (rng() % 3) as u32).collect();
        let y: Vec<u32> = x.to_vec(); // Y = X
        let r = ci_test(CiTestKind::G2, &x, &y, None, 3, 3);
        assert!(r.p_value < 1e-10);
        assert!(!r.independent(0.05));
        assert_eq!(r.df, 4.0);
    }

    #[test]
    fn accepts_marginal_independence() {
        let mut rng = xorshift(7);
        let n = 5000;
        let x: Vec<u32> = (0..n).map(|_| (rng() % 2) as u32).collect();
        let y: Vec<u32> = (0..n).map(|_| (rng() % 2) as u32).collect();
        let r = ci_test(CiTestKind::G2, &x, &y, None, 2, 2);
        assert!(r.independent(0.01), "p = {}", r.p_value);
    }

    #[test]
    fn conditional_independence_in_chain() {
        // X -> Z -> Y: X and Y dependent marginally, independent given Z.
        let mut rng = xorshift(99);
        let n = 8000;
        let mut x = Vec::with_capacity(n);
        let mut zc = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let xv = (rng() % 2) as u32;
            // Z copies X with 10% flip noise.
            let zv = if rng() % 10 == 0 { 1 - xv } else { xv };
            // Y copies Z with 10% flip noise.
            let yv = if rng() % 10 == 0 { 1 - zv } else { zv };
            x.push(xv);
            zc.push(zv);
            y.push(yv);
        }
        let marginal = ci_test(CiTestKind::G2, &x, &y, None, 2, 2);
        assert!(!marginal.independent(0.05), "X and Y should be marginally dependent");
        let strata = pack_strata(&[&zc], &[2]).unwrap();
        let conditional = ci_test(CiTestKind::G2, &x, &y, Some(&strata), 2, 2);
        assert!(conditional.independent(0.01), "p = {}", conditional.p_value);
    }

    #[test]
    fn pearson_matches_g2_direction() {
        let mut rng = xorshift(3);
        let n = 1000;
        let x: Vec<u32> = (0..n).map(|_| (rng() % 2) as u32).collect();
        let y: Vec<u32> = x.iter().map(|&v| if rng() % 5 == 0 { 1 - v } else { v }).collect();
        let g = ci_test(CiTestKind::G2, &x, &y, None, 2, 2);
        let p = ci_test(CiTestKind::Pearson, &x, &y, None, 2, 2);
        assert!(!g.independent(0.05));
        assert!(!p.independent(0.05));
    }

    #[test]
    fn degenerate_data_is_conservative() {
        // Constant y: no information, never reject.
        let x = [0u32, 1, 0, 1];
        let y = [0u32, 0, 0, 0];
        let r = ci_test(CiTestKind::G2, &x, &y, None, 2, 1);
        assert_eq!(r.df, 0.0);
        assert!(r.independent(0.05));
    }

    #[test]
    fn pack_strata_mixed_radix() {
        let a = [0u32, 1, 2];
        let b = [1u32, 0, 1];
        let keys = pack_strata(&[&a, &b], &[3, 2]).unwrap();
        assert_eq!(keys, vec![1, 2, 5]);
    }

    #[test]
    fn pack_strata_overflow_detected() {
        let col = [0u32];
        let cards = [u32::MAX as usize; 3];
        assert!(pack_strata(&[&col, &col, &col], &cards).is_none());
    }

    #[test]
    fn pack_strata_empty() {
        assert_eq!(pack_strata(&[], &[]), Some(vec![]));
    }
}
