//! Majority-vote ensemble.

use crate::naive_bayes::NaiveBayes;
use crate::tree::{DecisionTree, TreeConfig};
use crate::Classifier;
#[cfg(test)]
use guardrail_table::Row;
use guardrail_table::{Table, Value};

/// The default model of the experiment harness: naive Bayes plus a shallow
/// and a deep decision tree, combined by majority vote (ties resolve toward
/// the deep tree, the strongest individual member).
///
/// This mirrors the role autogluon plays in the paper — "trains various ML
/// models (NN, tree-based models, etc.) and creates an ensemble" — at the
/// scale of this reproduction.
#[derive(Debug, Clone)]
pub struct Ensemble {
    nb: NaiveBayes,
    shallow: DecisionTree,
    deep: DecisionTree,
}

impl Ensemble {
    /// Fits all members on `table` with labels in `label_col`.
    pub fn fit(table: &Table, label_col: usize) -> Self {
        Self {
            nb: NaiveBayes::fit(table, label_col),
            shallow: DecisionTree::fit(
                table,
                label_col,
                TreeConfig { max_depth: 4, min_samples_split: 16 },
            ),
            deep: DecisionTree::fit(
                table,
                label_col,
                TreeConfig { max_depth: 10, min_samples_split: 4 },
            ),
        }
    }

    /// Individual member predictions (the spec of each vote).
    #[cfg(test)]
    fn member_predictions(&self, row: &Row) -> [Value; 3] {
        [self.nb.predict_row(row), self.shallow.predict_row(row), self.deep.predict_row(row)]
    }
}

/// Majority of three; any pairwise agreement wins, else the deep tree.
/// Votes are label codes or labels: the members share one label dictionary.
fn vote<T: PartialEq>([nb, shallow, deep]: [T; 3]) -> T {
    if nb == shallow || nb == deep {
        nb
    } else {
        deep
    }
}

impl Classifier for Ensemble {
    fn predict_labels(&self, table: &Table, rows: &[usize]) -> Vec<u32> {
        let nb = self.nb.predict_labels(table, rows);
        let shallow = self.shallow.predict_labels(table, rows);
        let deep = self.deep.predict_labels(table, rows);
        nb.into_iter().zip(shallow).zip(deep).map(|((a, b), c)| vote([a, b, c])).collect()
    }

    fn label_value(&self, code: u32) -> Value {
        self.nb.label_value(code)
    }

    #[cfg(test)]
    fn predict_row(&self, row: &Row) -> Value {
        vote(self.member_predictions(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::accuracy;

    fn table(n: usize) -> Table {
        // label determined by a; b is a weaker correlate; c is noise.
        let mut csv = String::from("a,b,c,label\n");
        for i in 0..n {
            let a = i % 3;
            let b = if i % 7 == 0 { 9 } else { a };
            csv.push_str(&format!("{a},{b},{},{}\n", i % 5, a));
        }
        Table::from_csv_str(&csv).unwrap()
    }

    #[test]
    fn ensemble_beats_chance_and_agrees_with_members() {
        let t = table(600);
        let e = Ensemble::fit(&t, 3);
        assert!(accuracy(&e, &t, 3) > 0.95);
    }

    #[test]
    fn majority_vote_logic() {
        let t = table(300);
        let e = Ensemble::fit(&t, 3);
        let row = t.row_owned(0).unwrap();
        let votes = e.member_predictions(&row);
        let pred = e.predict_row(&row);
        let agreement = (votes[0] == votes[1]) as u8
            + (votes[0] == votes[2]) as u8
            + (votes[1] == votes[2]) as u8;
        if agreement > 0 {
            // The prediction must be one of the majority values.
            assert!(votes.iter().filter(|v| **v == pred).count() >= 2);
        } else {
            assert_eq!(pred, votes[2]);
        }
    }

    #[test]
    fn predict_table_shape() {
        let t = table(100);
        let e = Ensemble::fit(&t, 3);
        assert_eq!(e.predict_table(&t).len(), 100);
    }

    #[test]
    fn corrupted_inputs_shift_predictions() {
        let t = table(600);
        let e = Ensemble::fit(&t, 3);
        let clean = Table::from_csv_str("a,b,c,label\n1,1,0,?\n").unwrap();
        let dirty = Table::from_csv_str("a,b,c,label\n2,2,0,?\n").unwrap();
        assert_ne!(
            e.predict_row(&clean.row_owned(0).unwrap()),
            e.predict_row(&dirty.row_owned(0).unwrap())
        );
    }
}
