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
/// `nx`/`ny` and `z[i]` is a packed stratum key for row `i` (`None` =
/// marginal test), by materializing one [`ContingencyTable`] per observed
/// stratum via a `HashMap` and folding the statistic table by table.
///
/// Returns a result with `df = 0` and `p_value = 1` when there is no
/// information at all (e.g. every stratum is a single observation), which the
/// PC algorithm treats as "cannot reject independence" — the conservative
/// choice for sparse conditioning sets.
///
/// Kept as the differential-testing and benchmark reference — the fused
/// kernels in [`crate::suffstats`] must reproduce its output bit-for-bit
/// (`tests/ci_kernel.rs`, the `ci_kernel` bench equality gate). Not a hot
/// path: prefer [`crate::suffstats::ci_test_fused`].
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suffstats::{ci_test_fused, StratumPack};

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
        let r = ci_test_fused(CiTestKind::G2, &x, &y, None, 3, 3);
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
        let r = ci_test_fused(CiTestKind::G2, &x, &y, None, 2, 2);
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
        let marginal = ci_test_fused(CiTestKind::G2, &x, &y, None, 2, 2);
        assert!(!marginal.independent(0.05), "X and Y should be marginally dependent");
        let pack = StratumPack::pack(&[&zc], &[2]).unwrap();
        let conditional = ci_test_fused(CiTestKind::G2, &x, &y, Some(pack.strata()), 2, 2);
        assert!(conditional.independent(0.01), "p = {}", conditional.p_value);
    }

    #[test]
    fn pearson_matches_g2_direction() {
        let mut rng = xorshift(3);
        let n = 1000;
        let x: Vec<u32> = (0..n).map(|_| (rng() % 2) as u32).collect();
        let y: Vec<u32> = x.iter().map(|&v| if rng() % 5 == 0 { 1 - v } else { v }).collect();
        let g = ci_test_fused(CiTestKind::G2, &x, &y, None, 2, 2);
        let p = ci_test_fused(CiTestKind::Pearson, &x, &y, None, 2, 2);
        assert!(!g.independent(0.05));
        assert!(!p.independent(0.05));
    }

    #[test]
    fn degenerate_data_is_conservative() {
        // Constant y: no information, never reject.
        let x = [0u32, 1, 0, 1];
        let y = [0u32, 0, 0, 0];
        let r = ci_test_fused(CiTestKind::G2, &x, &y, None, 2, 1);
        assert_eq!(r.df, 0.0);
        assert!(r.independent(0.05));
    }
}
