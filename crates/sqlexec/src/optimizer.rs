//! Conjunct helpers for predicate pushdown (§7, "standard query
//! optimization techniques"), which the rules in [`crate::hep`] perform.
//!
//! A `WHERE` predicate is split into its top-level `AND` conjuncts. A
//! conjunct can be pushed below the ML-inference stage exactly when it
//! references only base-table columns (no `PREDICT`, no aggregate, no
//! projection alias): those rows are filtered before any model — and any
//! guardrail check — runs, which is where the optimization pays off, since
//! inference dominates query time (Table 6).

use crate::ast::{BinOp, Expr};
use guardrail_table::Schema;

/// Splits an expression into its top-level AND conjuncts. The returned
/// references point into `expr`, so inspection-only passes allocate
/// nothing per conjunct.
pub fn split_conjuncts_ref(expr: &Expr) -> Vec<&Expr> {
    fn walk<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
        match expr {
            Expr::Binary { op: BinOp::And, left, right } => {
                walk(left, out);
                walk(right, out);
            }
            other => out.push(other),
        }
    }
    let mut out = Vec::new();
    walk(expr, &mut out);
    out
}

/// Rebuilds a conjunction from conjuncts; `None` for an empty list.
pub fn join_conjuncts(mut conjuncts: Vec<Expr>) -> Option<Expr> {
    let mut expr = conjuncts.pop()?;
    while let Some(next) = conjuncts.pop() {
        expr = Expr::Binary { op: BinOp::And, left: Box::new(next), right: Box::new(expr) };
    }
    Some(expr)
}

/// `true` when the conjunct can be evaluated on the raw base row.
pub fn is_pushable(expr: &Expr, base: &Schema) -> bool {
    if expr.has_predict() || expr.has_aggregate() {
        return false;
    }
    let mut cols = Vec::new();
    expr.columns(&mut cols);
    cols.iter().all(|c| base.index_of(c).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use guardrail_table::DataType;

    fn schema() -> Schema {
        Schema::from_pairs([("a", DataType::Int), ("b", DataType::Str)]).unwrap()
    }

    fn where_of(sql: &str) -> Expr {
        parse_query(sql).unwrap().where_clause.unwrap()
    }

    #[test]
    fn conjunct_splitting() {
        let e = where_of("SELECT a FROM t WHERE a = 1 AND b = 'x' AND a < 5");
        assert_eq!(split_conjuncts_ref(&e).len(), 3);
        // OR does not split.
        let e = where_of("SELECT a FROM t WHERE a = 1 OR b = 'x'");
        assert_eq!(split_conjuncts_ref(&e).len(), 1);
    }

    #[test]
    fn pushability() {
        let s = schema();
        assert!(is_pushable(&where_of("SELECT a FROM t WHERE a = 1"), &s));
        assert!(!is_pushable(&where_of("SELECT a FROM t WHERE PREDICT(m) = 1"), &s));
        assert!(!is_pushable(&where_of("SELECT a FROM t WHERE pred_alias = 1"), &s));
    }

    #[test]
    fn roundtrip_join() {
        let e = where_of("SELECT a FROM t WHERE a = 1 AND b = 'x'");
        let parts: Vec<Expr> = split_conjuncts_ref(&e).into_iter().cloned().collect();
        let joined = join_conjuncts(parts.clone()).unwrap();
        assert_eq!(split_conjuncts_ref(&joined), parts.iter().collect::<Vec<_>>());
        assert!(join_conjuncts(vec![]).is_none());
    }
}
