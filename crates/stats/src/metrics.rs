//! Evaluation metrics for the experiment harness.
//!
//! The paper evaluates error detection with F1 and MCC (Table 3), ML-query
//! accuracy with min-max-normalized relative L1 error (Fig. 6), and sampler
//! quality with normalized coverage (Table 8). The confusion counts and the
//! min-max normalization live here; the Fig. 6 binary computes each query's
//! relative L1 error from its grouped result signatures.

/// Binary confusion counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BinaryConfusion {
    /// True positives.
    pub tp: u64,
    /// False positives.
    pub fp: u64,
    /// True negatives.
    pub tn: u64,
    /// False negatives.
    pub fn_: u64,
}

impl BinaryConfusion {
    /// Tallies predictions against ground truth.
    pub fn from_labels(predicted: &[bool], actual: &[bool]) -> Self {
        assert_eq!(predicted.len(), actual.len(), "label slices must be aligned");
        let mut c = BinaryConfusion::default();
        for (&p, &a) in predicted.iter().zip(actual) {
            match (p, a) {
                (true, true) => c.tp += 1,
                (true, false) => c.fp += 1,
                (false, false) => c.tn += 1,
                (false, true) => c.fn_ += 1,
            }
        }
        c
    }

    /// Precision `tp / (tp + fp)`; `NaN` when undefined (matching the paper's
    /// "NaN" table entries for degenerate detectors).
    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// Recall `tp / (tp + fn)`; `NaN` when undefined.
    pub fn recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// F1 score; `NaN` when precision+recall are undefined or both zero.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p.is_nan() || r.is_nan() || p + r == 0.0 {
            return f64::NAN;
        }
        2.0 * p * r / (p + r)
    }

    /// Matthews correlation coefficient; `NaN` when any marginal is zero.
    pub fn mcc(&self) -> f64 {
        let (tp, fp, tn, fn_) = (self.tp as f64, self.fp as f64, self.tn as f64, self.fn_ as f64);
        let denom = ((tp + fp) * (tp + fn_) * (tn + fp) * (tn + fn_)).sqrt();
        if denom == 0.0 {
            return f64::NAN;
        }
        (tp * tn - fp * fn_) / denom
    }

    /// Accuracy over all observations.
    pub fn accuracy(&self) -> f64 {
        ratio(self.tp + self.tn, self.tp + self.tn + self.fp + self.fn_)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        f64::NAN
    } else {
        num as f64 / den as f64
    }
}

/// Tallies a confusion matrix directly from index sets: `detected` vs
/// `actual` positive row indices out of `n` rows.
pub fn confusion_from_indices(detected: &[usize], actual: &[usize], n: usize) -> BinaryConfusion {
    let mut pred = vec![false; n];
    let mut act = vec![false; n];
    for &i in detected {
        pred[i] = true;
    }
    for &i in actual {
        act[i] = true;
    }
    BinaryConfusion::from_labels(&pred, &act)
}

/// Min-max normalization to `[0, 1]`. A constant vector maps to all zeros.
pub fn min_max_normalize(values: &[f64]) -> Vec<f64> {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return vec![0.0; values.len()];
    }
    let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                1.0
            } else if span == 0.0 {
                0.0
            } else {
                (v - min) / span
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_counts() {
        let pred = [true, true, false, false, true];
        let act = [true, false, false, true, true];
        let c = BinaryConfusion::from_labels(&pred, &act);
        assert_eq!(c, BinaryConfusion { tp: 2, fp: 1, tn: 1, fn_: 1 });
        assert!((c.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.recall() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.f1() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.accuracy() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn mcc_reference() {
        // sklearn.metrics.matthews_corrcoef for tp=2,fp=1,tn=1,fn=1 = 0.1666...
        let c = BinaryConfusion { tp: 2, fp: 1, tn: 1, fn_: 1 };
        assert!((c.mcc() - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_and_inverted_detectors() {
        let perfect = BinaryConfusion { tp: 5, fp: 0, tn: 5, fn_: 0 };
        assert!((perfect.f1() - 1.0).abs() < 1e-12);
        assert!((perfect.mcc() - 1.0).abs() < 1e-12);
        let inverted = BinaryConfusion { tp: 0, fp: 5, tn: 0, fn_: 5 };
        assert!((inverted.mcc() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_is_nan() {
        // Detector that never fires on data with no positives.
        let c = BinaryConfusion::from_labels(&[false, false], &[false, false]);
        assert!(c.precision().is_nan());
        assert!(c.f1().is_nan());
        assert!(c.mcc().is_nan());
    }

    #[test]
    fn confusion_from_index_sets() {
        let c = confusion_from_indices(&[0, 2], &[2, 3], 5);
        assert_eq!(c, BinaryConfusion { tp: 1, fp: 1, tn: 2, fn_: 1 });
    }

    #[test]
    fn min_max_cases() {
        assert_eq!(min_max_normalize(&[2.0, 4.0, 3.0]), vec![0.0, 1.0, 0.5]);
        assert_eq!(min_max_normalize(&[5.0, 5.0]), vec![0.0, 0.0]);
        assert_eq!(min_max_normalize(&[1.0, f64::INFINITY, 3.0]), vec![0.0, 1.0, 1.0]);
        assert_eq!(min_max_normalize(&[]), Vec::<f64>::new());
    }
}
