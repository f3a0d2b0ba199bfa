//! Feature encoding shared by all models.

#[cfg(test)]
use guardrail_table::Row;
use guardrail_table::{Dictionary, Table, Value, NULL_CODE};

/// A [`FeatureSpace`] bound to one table (see [`FeatureSpace::bind`]): per
/// feature, the table column it reads and, indexed by that column's codes,
/// the fit-time code; `None` where the table lacks the column.
pub type Binding = Vec<Option<(usize, Vec<Option<u32>>)>>;

/// Maps rows of one schema into categorical feature-code vectors.
///
/// The space is frozen at fit time: values unseen during training (including
/// corrupted garbage like `"gibbon"`) encode to `None`, which every model
/// treats as a missing feature. This mirrors how real tabular pipelines
/// handle out-of-vocabulary categories and is what makes corrupted inputs
/// produce *degraded* rather than undefined predictions.
#[derive(Debug, Clone)]
pub struct FeatureSpace {
    feature_cols: Vec<usize>,
    feature_names: Vec<String>,
    dicts: Vec<Dictionary>,
    label_col: usize,
    label_dict: Dictionary,
}

impl FeatureSpace {
    /// Builds the space from training data; every non-label column is a
    /// feature.
    pub fn fit(table: &Table, label_col: usize) -> Self {
        assert!(label_col < table.num_columns(), "label column out of range");
        let feature_cols: Vec<usize> =
            (0..table.num_columns()).filter(|&c| c != label_col).collect();
        let dicts = feature_cols
            .iter()
            .map(|&c| table.column(c).expect("in range").dictionary().clone())
            .collect();
        let feature_names = feature_cols
            .iter()
            .map(|&c| table.schema().field(c).expect("in range").name().to_string())
            .collect();
        let label_dict = table.column(label_col).expect("in range").dictionary().clone();
        Self { feature_cols, feature_names, dicts, label_col, label_dict }
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.feature_cols.len()
    }

    /// Cardinality of feature `f` (training-time distinct values).
    pub fn card(&self, f: usize) -> usize {
        self.dicts[f].len()
    }

    /// Number of label classes.
    pub fn num_classes(&self) -> usize {
        self.label_dict.len()
    }

    /// Decodes a label code to its value.
    pub fn label_value(&self, code: u32) -> Value {
        self.label_dict.decode(code)
    }

    /// Binds the space to `table` by column name through the table crate's
    /// binder ([`Dictionary::translate_into`]). A value unseen at fit time
    /// maps to `None`, as `encode_row` (the test spec) encodes it, and the
    /// maps cost O(distinct values), not O(rows).
    pub fn bind(&self, table: &Table) -> Binding {
        self.feature_names
            .iter()
            .zip(&self.dicts)
            .map(|(name, dict)| {
                let col = table.schema().index_of(name)?;
                let mut map = Vec::new();
                dict.translate_into(table.column(col)?.dictionary(), &mut map, |c| c);
                Some((col, map))
            })
            .collect()
    }

    /// Encodes rows `rows` of `table` through one [`Binding`] into a reused
    /// buffer and returns the label code `predict` gives each.
    pub(crate) fn predict_labels(
        &self,
        table: &Table,
        rows: &[usize],
        mut predict: impl FnMut(&[Option<u32>]) -> u32,
    ) -> Vec<u32> {
        let bound: Vec<_> = self
            .bind(table)
            .into_iter()
            .map(|b| b.map(|(col, map)| (table.columns()[col].codes(), map)))
            .collect();
        let mut feats = vec![None; bound.len()];
        rows.iter()
            .map(|&r| {
                for (f, b) in feats.iter_mut().zip(&bound) {
                    // A NULL cell's code is past the end of every map.
                    *f = b.as_ref().and_then(|(codes, map)| map.get(codes[r] as usize).copied()?);
                }
                predict(&feats)
            })
            .collect()
    }

    /// Encodes one row into feature codes; `None` marks missing/unseen. The
    /// spec [`FeatureSpace::bind`] is tested against.
    #[cfg(test)]
    pub fn encode_row(&self, row: &Row) -> Vec<Option<u32>> {
        self.feature_names
            .iter()
            .zip(&self.dicts)
            .map(|(name, dict)| {
                row.get_by_name(name).and_then(|v| dict.lookup(v)).filter(|&c| c != NULL_CODE)
            })
            .collect()
    }

    /// Encodes the full training table into `(features, labels)`,
    /// skipping rows whose label is missing.
    pub fn encode_table(&self, table: &Table) -> (Vec<Vec<Option<u32>>>, Vec<u32>) {
        let mut feats = Vec::with_capacity(table.num_rows());
        let mut labels = Vec::with_capacity(table.num_rows());
        let label_codes = table.column(self.label_col).expect("in range").codes();
        for (i, &y) in label_codes.iter().enumerate() {
            if y == NULL_CODE {
                continue;
            }
            let row = self
                .feature_cols
                .iter()
                .zip(&self.dicts)
                .map(|(&c, dict)| {
                    // Training rows come from the fitted table, but re-lookup
                    // through the frozen dict keeps this correct for any
                    // schema-compatible table.
                    let v = table.get(i, c).expect("in range");
                    dict.lookup(&v).filter(|&code| code != NULL_CODE)
                })
                .collect();
            feats.push(row);
            labels.push(y);
        }
        (feats, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::from_csv_str("color,size,label\nred,S,yes\nblue,L,no\nred,L,yes\n").unwrap()
    }

    #[test]
    fn encode_known_and_unknown() {
        let t = table();
        let fs = FeatureSpace::fit(&t, 2);
        assert_eq!(fs.num_features(), 2);
        assert_eq!(fs.num_classes(), 2);
        let row = t.row_owned(0).unwrap();
        assert_eq!(fs.encode_row(&row), vec![Some(0), Some(0)]);

        let dirty = Table::from_csv_str("color,size,label\ngibbon,S,yes\n").unwrap();
        let enc = fs.encode_row(&dirty.row_owned(0).unwrap());
        assert_eq!(enc, vec![None, Some(0)], "unseen value must encode to None");
    }

    #[test]
    fn bind_maps_table_codes_to_fit_codes() {
        let fs = FeatureSpace::fit(&table(), 2);
        // `size` moved, `color` is missing, `L` is code 1 at fit time.
        let t = Table::from_csv_str("x,size\n1,M\n2,L\n3,\n").unwrap();
        assert_eq!(fs.bind(&t), vec![None, Some((1, vec![None, Some(1)]))]);
    }

    #[test]
    fn encode_table_skips_null_labels() {
        let t = Table::from_csv_str("a,label\n1,x\n2,\n3,y\n").unwrap();
        let fs = FeatureSpace::fit(&t, 1);
        let (feats, labels) = fs.encode_table(&t);
        assert_eq!(feats.len(), 2);
        assert_eq!(labels.len(), 2);
    }

    #[test]
    fn label_roundtrip() {
        let t = table();
        let fs = FeatureSpace::fit(&t, 2);
        assert_eq!(fs.label_value(0), Value::from("yes"));
        assert_eq!(fs.label_value(1), Value::from("no"));
    }
}
