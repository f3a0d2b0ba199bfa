//! SQL abstract syntax.

use guardrail_table::Value;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=` / `==`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `AVG(expr)`
    Avg,
    /// `SUM(expr)`
    Sum,
    /// `COUNT(expr)` / `COUNT(*)`
    Count,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
}

/// Scalar / aggregate expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference (qualifier already stripped).
    Column(String),
    /// Constant.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `NOT expr`.
    Not(Box<Expr>),
    /// `CASE WHEN c THEN v [WHEN ...] [ELSE e] END`.
    Case {
        /// `(condition, value)` arms in order.
        branches: Vec<(Expr, Expr)>,
        /// `ELSE` value (`NULL` when absent).
        otherwise: Option<Box<Expr>>,
    },
    /// Aggregate call. `arg = None` encodes `COUNT(*)`.
    Aggregate {
        /// The function.
        func: AggFunc,
        /// Argument (`None` only for `COUNT(*)`).
        arg: Option<Box<Expr>>,
    },
    /// `PREDICT(model)`: the ML hook — evaluates to the model's prediction
    /// for the current (guardrail-vetted) row.
    Predict {
        /// Model name in the catalog.
        model: String,
    },
}

impl Expr {
    /// Calls `f` on every node of the expression in preorder, left to right
    /// (each `CASE` arm's condition before its value, `ELSE` last).
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Column(_) | Expr::Literal(_) | Expr::Predict { .. } => {}
            Expr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Expr::Not(e) => e.visit(f),
            Expr::Case { branches, otherwise } => {
                for (c, v) in branches {
                    c.visit(f);
                    v.visit(f);
                }
                if let Some(e) = otherwise {
                    e.visit(f);
                }
            }
            Expr::Aggregate { arg, .. } => {
                if let Some(e) = arg {
                    e.visit(f);
                }
            }
        }
    }

    /// `true` if the expression contains an aggregate call.
    pub fn has_aggregate(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| found |= matches!(e, Expr::Aggregate { .. }));
        found
    }

    /// `true` if the expression contains a `PREDICT` call.
    pub fn has_predict(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| found |= matches!(e, Expr::Predict { .. }));
        found
    }

    /// Column names referenced (excluding names introduced by aliases).
    pub fn columns(&self, out: &mut Vec<String>) {
        self.visit(&mut |e| {
            if let Expr::Column(c) = e {
                out.push(c.clone());
            }
        });
    }
}

impl std::fmt::Display for BinOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        };
        f.write_str(s)
    }
}

impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Column(c) => f.write_str(c),
            Expr::Literal(Value::Str(s)) => write!(f, "'{}'", s.replace('\'', "''")),
            Expr::Literal(v) if v.is_null() => f.write_str("NULL"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::Case { branches, otherwise } => {
                f.write_str("CASE")?;
                for (c, v) in branches {
                    write!(f, " WHEN {c} THEN {v}")?;
                }
                if let Some(e) = otherwise {
                    write!(f, " ELSE {e}")?;
                }
                f.write_str(" END")
            }
            Expr::Aggregate { func, arg } => {
                let name = match func {
                    AggFunc::Avg => "AVG",
                    AggFunc::Sum => "SUM",
                    AggFunc::Count => "COUNT",
                    AggFunc::Min => "MIN",
                    AggFunc::Max => "MAX",
                };
                match arg {
                    Some(e) => write!(f, "{name}({e})"),
                    None => write!(f, "{name}(*)"),
                }
            }
            Expr::Predict { model } => write!(f, "PREDICT({model})"),
        }
    }
}

/// One SELECT-list item.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The projected expression.
    pub expr: Expr,
    /// Output column name: the alias when given, else a rendered form.
    pub name: String,
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending (default).
    Asc,
    /// Descending.
    Desc,
}

/// A parsed `SELECT` query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// SELECT list.
    pub projections: Vec<SelectItem>,
    /// FROM table name.
    pub from: String,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions (may reference SELECT aliases).
    pub group_by: Vec<Expr>,
    /// HAVING predicate over groups (may contain aggregates).
    pub having: Option<Expr>,
    /// ORDER BY `(expr, order)` pairs (may reference output columns).
    pub order_by: Vec<(Expr, SortOrder)>,
    /// LIMIT row count.
    pub limit: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates_and_flags() {
        let agg =
            Expr::Aggregate { func: AggFunc::Avg, arg: Some(Box::new(Expr::Column("age".into()))) };
        assert!(agg.has_aggregate());
        assert!(!agg.has_predict());

        let pred_in_case = Expr::Case {
            branches: vec![(
                Expr::Binary {
                    op: BinOp::Eq,
                    left: Box::new(Expr::Predict { model: "m".into() }),
                    right: Box::new(Expr::Literal(Value::Int(1))),
                },
                Expr::Literal(Value::Int(1)),
            )],
            otherwise: None,
        };
        assert!(pred_in_case.has_predict());
        assert!(!pred_in_case.has_aggregate());
    }

    #[test]
    fn column_collection() {
        let e = Expr::Binary {
            op: BinOp::And,
            left: Box::new(Expr::Column("a".into())),
            right: Box::new(Expr::Not(Box::new(Expr::Column("b".into())))),
        };
        let mut cols = Vec::new();
        e.columns(&mut cols);
        assert_eq!(cols, vec!["a".to_string(), "b".to_string()]);
    }
}
