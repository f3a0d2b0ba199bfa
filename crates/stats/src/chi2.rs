//! The chi-squared distribution.

use crate::special::gamma_q;

/// A chi-squared distribution with `k` degrees of freedom.
///
/// Both the G² likelihood-ratio statistic and Pearson's X² are asymptotically
/// chi-squared under the null hypothesis of (conditional) independence; this
/// type converts those statistics into p-values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquared {
    df: f64,
}

impl ChiSquared {
    /// Creates the distribution. `df` must be positive.
    pub fn new(df: f64) -> Self {
        assert!(df > 0.0, "chi-squared df must be positive, got {df}");
        Self { df }
    }

    /// Degrees of freedom.
    pub fn df(&self) -> f64 {
        self.df
    }

    /// Survival function `P(X > x)` — the p-value of a statistic `x`.
    pub fn sf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 1.0;
        }
        gamma_q(self.df / 2.0, x / 2.0)
    }

    /// Mean of the distribution (= df).
    pub fn mean(&self) -> f64 {
        self.df
    }

    /// Variance of the distribution (= 2·df).
    pub fn variance(&self) -> f64 {
        2.0 * self.df
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a}");
    }

    #[test]
    fn sf_reference_values() {
        // scipy.stats.chi2.sf reference values.
        close(ChiSquared::new(1.0).sf(3.841_458_820_694_124), 0.05, 1e-10);
        close(ChiSquared::new(2.0).sf(5.991_464_547_107_979), 0.05, 1e-10);
        close(ChiSquared::new(10.0).sf(18.307_038_053_275_146), 0.05, 1e-9);
        close(ChiSquared::new(5.0).sf(11.070_497_693_516_351), 0.05, 1e-9);
    }

    #[test]
    fn boundaries() {
        let d = ChiSquared::new(3.0);
        assert_eq!(d.sf(0.0), 1.0);
        assert_eq!(d.sf(-1.0), 1.0);
        assert!(d.sf(1e6) < 1e-12);
    }

    #[test]
    fn moments() {
        let d = ChiSquared::new(4.0);
        assert_eq!(d.mean(), 4.0);
        assert_eq!(d.variance(), 8.0);
    }

    #[test]
    #[should_panic(expected = "df must be positive")]
    fn rejects_zero_df() {
        ChiSquared::new(0.0);
    }
}
