//! Categorical naive Bayes.

use crate::features::FeatureSpace;
use crate::Classifier;
#[cfg(test)]
use guardrail_table::Row;
use guardrail_table::{Table, Value};

/// Categorical naive Bayes with Laplace (add-one) smoothing.
///
/// Scores are accumulated in log space; missing/unseen features contribute
/// nothing to any class (equivalent to marginalizing them out under the
/// naive independence assumption).
#[derive(Debug, Clone)]
pub struct NaiveBayes {
    space: FeatureSpace,
    /// `log P(class)`.
    log_prior: Vec<f64>,
    /// `log P(feature f = code | class)`: `log_likelihood[f][code * classes
    /// + class]`, one contiguous score row per code.
    log_likelihood: Vec<Vec<f64>>,
}

impl NaiveBayes {
    /// Fits the model on `table` with labels in `label_col`.
    pub fn fit(table: &Table, label_col: usize) -> Self {
        let space = FeatureSpace::fit(table, label_col);
        let (feats, labels) = space.encode_table(table);
        let classes = space.num_classes().max(1);

        let mut class_counts = vec![0u64; classes];
        for &y in &labels {
            class_counts[y as usize] += 1;
        }
        let n = labels.len() as f64;
        let log_prior = class_counts
            .iter()
            .map(|&c| (((c as f64) + 1.0) / (n + classes as f64)).ln())
            .collect();

        let mut log_likelihood = Vec::with_capacity(space.num_features());
        for f in 0..space.num_features() {
            let card = space.card(f).max(1);
            let mut counts = vec![0u64; card * classes];
            let mut totals = vec![0u64; classes];
            for (row, &y) in feats.iter().zip(&labels) {
                if let Some(code) = row[f] {
                    counts[code as usize * classes + y as usize] += 1;
                    totals[y as usize] += 1;
                }
            }
            let ll = counts
                .iter()
                .enumerate()
                .map(|(i, &c)| ((c as f64 + 1.0) / (totals[i % classes] as f64 + card as f64)).ln())
                .collect();
            log_likelihood.push(ll);
        }
        Self { space, log_prior, log_likelihood }
    }

    /// Predicts the label code for encoded features, accumulating the
    /// per-class scores in `scores`: each class adds its features' terms in
    /// feature order, and the first class of the highest score wins.
    pub fn predict_codes(&self, feats: &[Option<u32>], scores: &mut Vec<f64>) -> u32 {
        let classes = self.log_prior.len();
        scores.clear();
        scores.extend_from_slice(&self.log_prior);
        for (ll, code) in self.log_likelihood.iter().zip(feats) {
            if let Some(code) = code {
                let row = &ll[*code as usize * classes..][..classes];
                scores.iter_mut().zip(row).for_each(|(s, l)| *s += l);
            }
        }
        let mut best = (0u32, f64::NEG_INFINITY);
        for (class, &score) in scores.iter().enumerate() {
            if score > best.1 {
                best = (class as u32, score);
            }
        }
        best.0
    }
}

impl Classifier for NaiveBayes {
    fn predict_labels(&self, table: &Table, rows: &[usize]) -> Vec<u32> {
        let mut scores = Vec::with_capacity(self.log_prior.len());
        self.space.predict_labels(table, rows, |feats| self.predict_codes(feats, &mut scores))
    }

    fn label_value(&self, code: u32) -> Value {
        self.space.label_value(code)
    }

    #[cfg(test)]
    fn predict_row(&self, row: &Row) -> Value {
        let feats = self.space.encode_row(row);
        self.space.label_value(self.predict_codes(&feats, &mut Vec::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::accuracy;

    /// label = color (deterministic), size is noise.
    fn train_table() -> Table {
        let mut csv = String::from("color,size,label\n");
        for i in 0..200 {
            let color = if i % 2 == 0 { "red" } else { "blue" };
            let label = if i % 2 == 0 { "warm" } else { "cold" };
            csv.push_str(&format!("{color},s{},{label}\n", i % 3));
        }
        Table::from_csv_str(&csv).unwrap()
    }

    #[test]
    fn learns_deterministic_rule() {
        let t = train_table();
        let nb = NaiveBayes::fit(&t, 2);
        assert!(accuracy(&nb, &t, 2) > 0.99);
        let test = Table::from_csv_str("color,size,label\nred,s0,?\nblue,s2,?\n").unwrap();
        let preds = nb.predict_table(&test);
        assert_eq!(preds[0], Value::from("warm"));
        assert_eq!(preds[1], Value::from("cold"));
    }

    #[test]
    fn unseen_value_falls_back_to_prior() {
        let t = train_table();
        let nb = NaiveBayes::fit(&t, 2);
        let test = Table::from_csv_str("color,size,label\ngibbon,gibbon,?\n").unwrap();
        // All features unknown → prediction is the prior argmax (a class that
        // exists, no panic).
        let p = nb.predict_row(&test.row_owned(0).unwrap());
        assert!(p == Value::from("warm") || p == Value::from("cold"));
    }

    #[test]
    fn corrupting_the_informative_feature_changes_predictions() {
        let t = train_table();
        let nb = NaiveBayes::fit(&t, 2);
        let clean = Table::from_csv_str("color,size,label\nred,s0,?\n").unwrap();
        let dirty = Table::from_csv_str("color,size,label\nblue,s0,?\n").unwrap();
        assert_ne!(
            nb.predict_row(&clean.row_owned(0).unwrap()),
            nb.predict_row(&dirty.row_owned(0).unwrap()),
            "corrupting the determinant must flip the prediction"
        );
    }

    #[test]
    fn skewed_prior_respected() {
        let mut csv = String::from("f,label\n");
        for i in 0..100 {
            csv.push_str(&format!("x,{}\n", if i < 90 { "a" } else { "b" }));
        }
        let t = Table::from_csv_str(&csv).unwrap();
        let nb = NaiveBayes::fit(&t, 1);
        let test = Table::from_csv_str("f,label\nx,?\n").unwrap();
        assert_eq!(nb.predict_row(&test.row_owned(0).unwrap()), Value::from("a"));
    }
}
