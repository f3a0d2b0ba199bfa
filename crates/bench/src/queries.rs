//! The ML-integrated query workload of Fig. 6.
//!
//! The paper's authors hand-wrote 4 queries per dataset (48 total). We
//! instantiate 4 templates per dataset from its schema, covering the same
//! shapes: a global CASE-WHEN rate, a grouped count of predictions, a
//! grouped conditional rate, and a filtered per-prediction aggregate.

use guardrail_table::{Table, Value};
use std::collections::BTreeMap;

/// Builds the four ML-integrated queries for a dataset. `model` is the
/// catalog name of the model, `table` the catalog name of the relation.
pub fn queries_for(table_name: &str, model: &str, table: &Table, label_col: usize) -> Vec<String> {
    // Pick a label value to score against and low-cardinality attributes to
    // group/filter by.
    let label_value = table
        .column(label_col)
        .expect("label col")
        .mode_code()
        .map(|c| table.column(label_col).unwrap().dictionary().decode(c))
        .unwrap_or(Value::Int(0));
    let label_lit = sql_literal(&label_value);

    let mut group_col = None;
    let mut filter = None;
    for (i, col) in table.columns().iter().enumerate() {
        if i == label_col {
            continue;
        }
        let card = col.distinct_count();
        if (2..=8).contains(&card) {
            let name = table.schema().field(i).unwrap().name().to_string();
            if group_col.is_none() {
                group_col = Some(name);
            } else if filter.is_none() {
                let v = col.dictionary().decode(col.mode_code().expect("non-empty"));
                filter = Some((name, sql_literal(&v)));
            }
        }
    }
    let group_col = group_col.unwrap_or_else(|| {
        // Fallback: any non-label column.
        let i = (0..table.num_columns()).find(|&c| c != label_col).expect("≥2 columns");
        table.schema().field(i).unwrap().name().to_string()
    });
    let (filter_col, filter_lit) =
        filter.unwrap_or_else(|| (group_col.clone(), "NULL".to_string()));

    let rate = format!("AVG(CASE WHEN PREDICT({model}) = {label_lit} THEN 1 ELSE 0 END)");
    let mut queries = vec![
        // Q1: global predicted rate (the Fig. 1 query shape).
        format!("SELECT {rate} AS rate FROM {table_name}"),
        // Q2: prediction histogram.
        format!(
            "SELECT PREDICT({model}) AS pred, COUNT(*) AS n FROM {table_name} \
             GROUP BY pred ORDER BY pred"
        ),
        // Q3: grouped predicted rate.
        format!(
            "SELECT {g}, {rate} AS rate FROM {table_name} GROUP BY {g} ORDER BY {g}",
            g = quote_ident(&group_col)
        ),
    ];
    // Q4: filtered histogram (skipped filter degenerates to an unfiltered
    // variant rather than producing an always-false predicate).
    if filter_lit != "NULL" {
        queries.push(format!(
            "SELECT PREDICT({model}) AS pred, COUNT(*) AS n FROM {table_name} \
             WHERE {f} = {lit} GROUP BY pred ORDER BY pred",
            f = quote_ident(&filter_col),
            lit = filter_lit
        ));
    } else {
        queries.push(format!(
            "SELECT PREDICT({model}) AS pred, COUNT(*) AS n FROM {table_name} \
             GROUP BY pred ORDER BY pred"
        ));
    }
    queries
}

fn quote_ident(name: &str) -> String {
    if name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        && name.chars().next().map(|c| c.is_ascii_alphabetic()).unwrap_or(false)
    {
        name.to_string()
    } else {
        format!("\"{name}\"")
    }
}

fn sql_literal(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Null => "NULL".to_string(),
        other => other.to_string(),
    }
}

/// Flattens the result of `sql` into `group-key → numeric vector` so runs
/// over different data (clean / dirty / rectified) can be compared even when
/// their group sets differ. A row's key is its `GROUP BY` cells, or its
/// position when the query has no `GROUP BY`; other non-numeric cells join
/// the key, numeric ones form the vector.
pub fn result_signature(table: &Table, sql: &str) -> BTreeMap<String, Vec<f64>> {
    let group_by: Vec<usize> =
        group_by_columns(sql).iter().filter_map(|name| table.schema().index_of(name)).collect();
    let mut out = BTreeMap::new();
    for row in 0..table.num_rows() {
        let mut key = if group_by.is_empty() { format!("#{row}\u{1f}") } else { String::new() };
        for &col in &group_by {
            key.push_str(&table.get(row, col).unwrap_or(Value::Null).to_string());
            key.push('\u{1f}');
        }
        let mut nums = Vec::new();
        for col in (0..table.num_columns()).filter(|c| !group_by.contains(c)) {
            let v = table.get(row, col).unwrap_or(Value::Null);
            match v.as_f64() {
                Some(f) if !matches!(v, Value::Str(_)) => nums.push(f),
                _ => {
                    key.push_str(&v.to_string());
                    key.push('\u{1f}');
                }
            }
        }
        out.insert(key, nums);
    }
    out
}

/// The column names in `sql`'s `GROUP BY` clause, unquoted; empty when it
/// has none.
fn group_by_columns(sql: &str) -> Vec<String> {
    const GROUP_BY: &str = "GROUP BY ";
    let upper = sql.to_ascii_uppercase();
    let Some(at) = upper.find(GROUP_BY).map(|at| at + GROUP_BY.len()) else {
        return Vec::new();
    };
    let end = ["ORDER BY", "HAVING", "LIMIT"]
        .iter()
        .filter_map(|clause| upper[at..].find(clause))
        .min()
        .map_or(sql.len(), |len| at + len);
    sql[at..end]
        .split(',')
        .map(|name| name.trim().trim_matches('"').to_string())
        .filter(|name| !name.is_empty())
        .collect()
}

/// L1 distance between two signatures (missing groups read as zeros), and
/// the L1 norm of the reference — the ingredients of Fig. 6's relative
/// error.
pub fn signature_l1(
    observed: &BTreeMap<String, Vec<f64>>,
    reference: &BTreeMap<String, Vec<f64>>,
) -> (f64, f64) {
    let mut distance = 0.0;
    let mut norm = 0.0;
    let keys: std::collections::BTreeSet<&String> =
        observed.keys().chain(reference.keys()).collect();
    for key in keys {
        let zero = Vec::new();
        let o = observed.get(key).unwrap_or(&zero);
        let r = reference.get(key).unwrap_or(&zero);
        let len = o.len().max(r.len());
        for i in 0..len {
            let ov = o.get(i).copied().unwrap_or(0.0);
            let rv = r.get(i).copied().unwrap_or(0.0);
            distance += (ov - rv).abs();
            norm += rv.abs();
        }
    }
    (distance, norm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_four_queries() {
        let t = Table::from_csv_str("a,b,label\nx,1,yes\ny,2,no\nx,1,yes\n").unwrap();
        let qs = queries_for("t", "m", &t, 2);
        assert_eq!(qs.len(), 4);
        assert!(qs.iter().all(|q| q.contains("PREDICT(m)")));
        assert!(qs[0].contains("'yes'"), "{}", qs[0]);
    }

    #[test]
    fn signatures_align_groups() {
        let a = Table::from_csv_str("g,n\nx,1\ny,2\n").unwrap();
        let b = Table::from_csv_str("g,n\nx,1\nz,5\n").unwrap();
        let sql = "SELECT g, COUNT(*) AS n FROM t GROUP BY g ORDER BY g";
        let (d, norm) = signature_l1(&result_signature(&a, sql), &result_signature(&b, sql));
        // y: |2-0| + z: |0-5| = 7; reference norm = 1 + 5.
        assert_eq!(d, 7.0);
        assert_eq!(norm, 6.0);
        let (zero, _) = signature_l1(&result_signature(&a, sql), &result_signature(&a, sql));
        assert_eq!(zero, 0.0);
    }

    #[test]
    fn all_numeric_results_compare_every_group() {
        let clean = Table::from_csv_str("pred,n\n0,3\n1,5\n").unwrap();
        let dirty = Table::from_csv_str("pred,n\n0,4\n1,5\n").unwrap();
        let sql = "SELECT PREDICT(m) AS pred, COUNT(*) AS n FROM t GROUP BY pred ORDER BY pred";
        let (d, norm) =
            signature_l1(&result_signature(&dirty, sql), &result_signature(&clean, sql));
        assert_eq!((d, norm), (1.0, 8.0), "group 0 differs by 1; norm 3 + 5");
        // Without a GROUP BY, rows are keyed by position and every cell counts.
        let sql = "SELECT AVG(x) AS a, SUM(x) AS s FROM t";
        let (d, norm) =
            signature_l1(&result_signature(&dirty, sql), &result_signature(&clean, sql));
        assert_eq!((d, norm), (1.0, 9.0));
    }

    #[test]
    fn group_by_columns_are_read_from_the_query() {
        let q = "SELECT \"a b\", c, AVG(x) FROM t WHERE y = 1 GROUP BY \"a b\", c ORDER BY c";
        assert_eq!(group_by_columns(q), vec!["a b", "c"]);
        assert!(group_by_columns("SELECT AVG(x) AS rate FROM t").is_empty());
    }
}
