//! Tabular ML substrate (the paper's autogluon \[8\] stand-in).
//!
//! The evaluation needs an opaque classifier whose predictions degrade when
//! input attributes are corrupted — exactly the failure mode Guardrail
//! intercepts (§5, Tables 1/5/6, Fig. 6). This crate provides:
//!
//! * [`features`] — a feature space mapping table rows to categorical code
//!   vectors, robust to unseen values at inference time (corrupted cells
//!   decode to "unknown" rather than panicking).
//! * [`naive_bayes`] — categorical naive Bayes with Laplace smoothing.
//! * [`tree`] — an information-gain decision tree over categorical splits.
//! * [`ensemble`] — a majority-vote ensemble of the above (autogluon trains
//!   an ensemble too; majority voting reproduces the interface and the
//!   robustness profile without the AutoML machinery).
//!
//! All models implement [`Classifier`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ensemble;
pub mod features;
pub mod naive_bayes;
pub mod tree;

pub use ensemble::Ensemble;
pub use features::FeatureSpace;
pub use naive_bayes::NaiveBayes;
pub use tree::{DecisionTree, TreeConfig};

use guardrail_table::{Row, Table, Value};

/// A fitted classifier over one table schema.
pub trait Classifier {
    /// Predicts the label of one row (the row may carry unseen/corrupted
    /// values; they are treated as unknown features).
    fn predict_row(&self, row: &Row) -> Value;

    /// Predicts every row of a table.
    fn predict_table(&self, table: &Table) -> Vec<Value> {
        (0..table.num_rows())
            .map(|i| self.predict_row(&table.row_owned(i).expect("row in range")))
            .collect()
    }

    /// Fraction of rows whose prediction equals the label column.
    fn accuracy(&self, table: &Table, label_col: usize) -> f64 {
        if table.num_rows() == 0 {
            return f64::NAN;
        }
        let predictions = self.predict_table(table);
        let hits = predictions
            .iter()
            .enumerate()
            .filter(|(i, p)| table.get(*i, label_col).as_ref() == Some(p))
            .count();
        hits as f64 / table.num_rows() as f64
    }
}
