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

#[cfg(test)]
use guardrail_table::Row;
use guardrail_table::{Table, Value};

/// A fitted classifier over one table schema.
pub trait Classifier {
    /// Predicts the label codes of rows `rows` of `table`, in that order
    /// (any order, repeats allowed): two codes are equal iff their labels
    /// are. Features bind to `table`'s columns by name once per call; a
    /// missing column, a NULL cell or a value unseen at fit time is an
    /// unknown feature.
    fn predict_labels(&self, table: &Table, rows: &[usize]) -> Vec<u32>;

    /// The label a code of `predict_labels` stands for.
    fn label_value(&self, code: u32) -> Value;

    /// [`predict_labels`](Self::predict_labels), decoded.
    fn predict_rows(&self, table: &Table, rows: &[usize]) -> Vec<Value> {
        self.predict_labels(table, rows).into_iter().map(|c| self.label_value(c)).collect()
    }

    /// Predicts one row through `FeatureSpace::encode_row`: the spec
    /// `predict_rows` is tested against.
    #[cfg(test)]
    fn predict_row(&self, row: &Row) -> Value;

    /// Predicts every row of a table.
    fn predict_table(&self, table: &Table) -> Vec<Value> {
        let rows: Vec<usize> = (0..table.num_rows()).collect();
        self.predict_rows(table, &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Cells for the integer features: fit-time values, their other
    /// spellings, an unseen value and NULL.
    const INTS: [&str; 8] = ["0", "1", "2", "1.0", "-0.0", "0.0", "7", ""];
    /// Cells for the text feature.
    const TEXTS: [&str; 4] = ["s0", "s1", "s9", ""];

    fn train(rows: &[(u8, u8, u8)]) -> Table {
        let mut csv = String::from("a,b,c,label\n");
        for &(a, b, c) in rows {
            csv.push_str(&format!("{a},{b},s{c},y{}\n", (a + b + c / 2) % 3));
        }
        Table::from_csv_str(&csv).unwrap()
    }

    type Cells = (usize, usize, usize, usize);

    /// A test table over `a`, `b`, `c` and an extra `x` column, sorted by
    /// `keys`, without `b` when `drop_b`.
    fn perturbed(cells: &[Cells], keys: [u32; 4], drop_b: bool) -> Table {
        let mut cols: Vec<usize> = (0..4).filter(|&c| !(drop_b && c == 1)).collect();
        cols.sort_by_key(|&c| keys[c]);
        let cell = |&(a, b, c, x): &Cells, col: usize| match col {
            0 => INTS[a],
            1 => INTS[b],
            2 => TEXTS[c],
            _ => INTS[x],
        };
        let line = |f: &dyn Fn(usize) -> &'static str| {
            cols.iter().map(|&c| f(c)).collect::<Vec<_>>().join(",") + "\n"
        };
        let mut csv = line(&|c| ["a", "b", "c", "x"][c]);
        for row in cells {
            csv += &line(&|c| cell(row, c));
        }
        Table::from_csv_str(&csv).unwrap()
    }

    /// Fraction of `table`'s rows whose prediction equals the label column.
    pub(crate) fn accuracy(model: &dyn Classifier, table: &Table, label_col: usize) -> f64 {
        let predictions = model.predict_table(table);
        let hits = predictions
            .iter()
            .enumerate()
            .filter(|(i, p)| table.get(*i, label_col).as_ref() == Some(p))
            .count();
        hits as f64 / table.num_rows() as f64
    }

    fn assert_spec(model: &dyn Classifier, table: &Table, rows: &[usize], name: &str) {
        let spec: Vec<Value> =
            rows.iter().map(|&r| model.predict_row(&table.row_owned(r).unwrap())).collect();
        assert_eq!(model.predict_rows(table, rows), spec, "{name}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The batched path equals the per-row spec, one prediction at a
        /// time, for every model and any perturbation of the served table.
        #[test]
        fn predict_rows_matches_the_row_spec(
            fit_rows in vec((0u8..3, 0u8..3, 0u8..2), 30..90),
            cells in vec((0usize..8, 0usize..8, 0usize..4, 0usize..8), 1..24),
            keys in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
            drop_b in any::<bool>(),
            picks in vec(any::<usize>(), 0..40),
        ) {
            let fit = train(&fit_rows);
            let table = perturbed(&cells, [keys.0, keys.1, keys.2, keys.3], drop_b);
            let rows: Vec<usize> = picks.iter().map(|i| i % table.num_rows()).collect();
            assert_spec(&NaiveBayes::fit(&fit, 3), &table, &rows, "naive Bayes");
            let tree = TreeConfig { max_depth: 4, min_samples_split: 4 };
            assert_spec(&DecisionTree::fit(&fit, 3, tree), &table, &rows, "tree");
            assert_spec(&Ensemble::fit(&fit, 3), &table, &rows, "ensemble");
        }
    }
}
