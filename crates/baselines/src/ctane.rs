//! CTANE: conditional functional dependency discovery.
//!
//! Fan et al. \[9\] extend TANE's lattice to (attribute, pattern) pairs. Two
//! fragments are implemented:
//!
//! * **constant CFDs** ([`ctane_discover`]): rules `(X = t_p) → (A = a)`
//!   where `t_p` fixes a constant for every LHS attribute; discovery is
//!   level-wise over LHS size with support and confidence thresholds, with
//!   minimality pruning.
//! * **variable CFDs** ([`ctane_discover_variable`]): pattern-scoped FDs
//!   `(C = c : X → A)` — the dependency `X → A` holds (approximately) on
//!   the subset of rows where the single-attribute condition `C = c`
//!   matches, but not necessarily globally.
//!
//! The paper's Table 3 shows CTANE overfitting — many highly specific rules
//! that flag clean rows. That behavior emerges here naturally from
//! low-support constant patterns.

use crate::fd::Fd;
use crate::BaselineError;
use guardrail_table::{Table, Value, NULL_CODE};
use std::collections::HashMap;

/// A constant conditional FD: `⋀ (col = value) → target = consequent`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cfd {
    /// LHS pattern: `(column, constant)` pairs (sorted by column).
    pub pattern: Vec<(usize, Value)>,
    /// RHS column.
    pub target: usize,
    /// RHS constant.
    pub consequent: Value,
    /// Rows matching the pattern.
    pub support: usize,
    /// Fraction of matching rows satisfying the consequent.
    pub confidence: f64,
}

/// CTANE configuration.
#[derive(Debug, Clone, Copy)]
pub struct CtaneConfig {
    /// Minimum pattern support (absolute row count).
    pub min_support: usize,
    /// Minimum confidence for a rule.
    pub min_confidence: f64,
    /// Largest LHS pattern size.
    pub max_lhs: usize,
    /// Candidate budget; exceeded → [`BaselineError::ResourceExhausted`].
    pub max_candidates: usize,
}

impl Default for CtaneConfig {
    fn default() -> Self {
        Self { min_support: 6, min_confidence: 0.95, max_lhs: 2, max_candidates: 200_000 }
    }
}

/// Discovers constant CFDs on `table`.
pub fn ctane_discover(table: &Table, config: &CtaneConfig) -> Result<Vec<Cfd>, BaselineError> {
    let n_attrs = table.num_columns();
    let n = table.num_rows();
    let mut rules: Vec<Cfd> = Vec::new();
    let mut candidates = 0usize;

    // Level 1: single-attribute patterns, grouped in one pass per column.
    // pattern_rows: pattern (as sorted (col,code) vec) → row list.
    type PatternRows = Vec<(Vec<(usize, u32)>, Vec<u32>)>;
    let mut frontier: PatternRows = Vec::new();
    for col in 0..n_attrs {
        let codes = table.column(col).expect("in range").codes();
        let mut groups: HashMap<u32, Vec<u32>> = HashMap::new();
        for (row, &c) in codes.iter().enumerate() {
            if c != NULL_CODE {
                groups.entry(c).or_default().push(row as u32);
            }
        }
        let mut ordered: Vec<(u32, Vec<u32>)> = groups.into_iter().collect();
        ordered.sort_unstable_by_key(|(c, _)| *c);
        for (code, rows) in ordered {
            if rows.len() >= config.min_support {
                frontier.push((vec![(col, code)], rows));
            }
        }
    }

    for _level in 1..=config.max_lhs {
        // Emit rules from the current frontier.
        for (pattern, rows) in &frontier {
            candidates += 1;
            if candidates > config.max_candidates {
                return Err(BaselineError::ResourceExhausted {
                    candidates,
                    budget: config.max_candidates,
                });
            }
            for target in 0..n_attrs {
                if pattern.iter().any(|&(c, _)| c == target) {
                    continue;
                }
                let codes = table.column(target).expect("in range").codes();
                let mut counts: HashMap<u32, usize> = HashMap::new();
                for &r in rows {
                    let c = codes[r as usize];
                    if c != NULL_CODE {
                        *counts.entry(c).or_default() += 1;
                    }
                }
                let total: usize = counts.values().sum();
                if total < config.min_support {
                    continue;
                }
                let (&mode, &mode_count) =
                    match counts.iter().max_by(|(ca, na), (cb, nb)| na.cmp(nb).then(cb.cmp(ca))) {
                        Some(m) => m,
                        None => continue,
                    };
                let confidence = mode_count as f64 / total as f64;
                if confidence < config.min_confidence {
                    continue;
                }
                let consequent = table.column(target).expect("in range").dictionary().decode(mode);
                // Minimality: skip if a sub-pattern already implies the same.
                let implied = rules.iter().any(|r| {
                    r.target == target
                        && r.consequent == consequent
                        && r.pattern.iter().all(|p| {
                            pattern.iter().any(|&(c, code)| {
                                c == p.0
                                    && table.column(c).expect("in range").dictionary().decode(code)
                                        == p.1
                            })
                        })
                });
                if implied {
                    continue;
                }
                rules.push(Cfd {
                    pattern: pattern
                        .iter()
                        .map(|&(c, code)| {
                            (c, table.column(c).expect("in range").dictionary().decode(code))
                        })
                        .collect(),
                    target,
                    consequent,
                    support: total,
                    confidence,
                });
            }
        }

        // Extend the frontier: pattern ∪ {(col, code)} for later columns.
        let mut next = Vec::new();
        for (pattern, rows) in &frontier {
            let last_col = pattern.last().expect("non-empty").0;
            for col in (last_col + 1)..n_attrs {
                let codes = table.column(col).expect("in range").codes();
                let mut groups: HashMap<u32, Vec<u32>> = HashMap::new();
                for &r in rows {
                    let c = codes[r as usize];
                    if c != NULL_CODE {
                        groups.entry(c).or_default().push(r);
                    }
                }
                let mut ordered: Vec<(u32, Vec<u32>)> = groups.into_iter().collect();
                ordered.sort_unstable_by_key(|(c, _)| *c);
                for (code, sub) in ordered {
                    if sub.len() >= config.min_support {
                        let mut p = pattern.clone();
                        p.push((col, code));
                        next.push((p, sub));
                        candidates += 1;
                        if candidates > config.max_candidates {
                            return Err(BaselineError::ResourceExhausted {
                                candidates,
                                budget: config.max_candidates,
                            });
                        }
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }

    let _ = n;
    Ok(rules)
}

/// A variable CFD: the FD `fd` holds on the rows matching `condition`.
#[derive(Debug, Clone, PartialEq)]
pub struct VariableCfd {
    /// The scoping condition `(column, constant)`.
    pub condition: (usize, Value),
    /// The pattern-scoped dependency.
    pub fd: Fd,
    /// Rows matching the condition.
    pub support: usize,
    /// g₃-style error of the FD within the scope.
    pub error: f64,
}

/// Discovers variable CFDs `(C = c : X → A)` with single-attribute scopes
/// and single-attribute LHS, keeping only dependencies that hold within
/// their scope (error ≤ `epsilon`) but **not** globally — globally-holding
/// FDs belong to TANE's output, not a conditional tableau.
pub fn ctane_discover_variable(
    table: &Table,
    config: &CtaneConfig,
    epsilon: f64,
) -> Result<Vec<VariableCfd>, BaselineError> {
    let n_attrs = table.num_columns();
    let mut out = Vec::new();
    let mut candidates = 0usize;

    // Precompute which global FDs already hold (scoped versions are then
    // redundant).
    let mut global: Vec<Vec<bool>> = vec![vec![false; n_attrs]; n_attrs];
    for (lhs, row) in global.iter_mut().enumerate() {
        for (rhs, cell) in row.iter_mut().enumerate() {
            if lhs != rhs {
                let rows: Vec<u32> = (0..table.num_rows() as u32).collect();
                *cell = scoped_fd_error(table, lhs, rhs, &rows) <= epsilon;
            }
        }
    }

    for cond_col in 0..n_attrs {
        let codes = table.column(cond_col).expect("in range").codes();
        let mut groups: HashMap<u32, Vec<u32>> = HashMap::new();
        for (row, &c) in codes.iter().enumerate() {
            if c != NULL_CODE {
                groups.entry(c).or_default().push(row as u32);
            }
        }
        let mut ordered: Vec<(u32, Vec<u32>)> = groups.into_iter().collect();
        ordered.sort_unstable_by_key(|(c, _)| *c);
        for (code, rows) in ordered {
            if rows.len() < config.min_support {
                continue;
            }
            for (lhs, global_row) in global.iter().enumerate() {
                for (rhs, &holds_globally) in global_row.iter().enumerate() {
                    if lhs == rhs || lhs == cond_col || rhs == cond_col || holds_globally {
                        continue;
                    }
                    candidates += 1;
                    if candidates > config.max_candidates {
                        return Err(BaselineError::ResourceExhausted {
                            candidates,
                            budget: config.max_candidates,
                        });
                    }
                    let error = scoped_fd_error(table, lhs, rhs, &rows);
                    if error <= epsilon {
                        out.push(VariableCfd {
                            condition: (
                                cond_col,
                                table.column(cond_col).expect("in range").dictionary().decode(code),
                            ),
                            fd: Fd::new(vec![lhs], rhs),
                            support: rows.len(),
                            error,
                        });
                    }
                }
            }
        }
    }
    Ok(out)
}

/// g₃-style error of `lhs → rhs` restricted to `rows`: fraction of rows that
/// must be removed for the FD to hold exactly on the scope.
fn scoped_fd_error(table: &Table, lhs: usize, rhs: usize, rows: &[u32]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let lhs_codes = table.column(lhs).expect("in range").codes();
    let rhs_codes = table.column(rhs).expect("in range").codes();
    let mut groups: HashMap<u32, HashMap<u32, u32>> = HashMap::new();
    for &r in rows {
        let l = lhs_codes[r as usize];
        if l == NULL_CODE {
            continue;
        }
        *groups.entry(l).or_default().entry(rhs_codes[r as usize]).or_default() += 1;
    }
    let mut keep = 0u32;
    let mut total = 0u32;
    for counts in groups.values() {
        keep += counts.values().copied().max().unwrap_or(0);
        total += counts.values().sum::<u32>();
    }
    if total == 0 {
        0.0
    } else {
        (total - keep) as f64 / total as f64
    }
}

/// Rows flagged by variable CFDs: within each rule's scope, rows deviating
/// from their LHS-group's majority RHS value.
pub fn detect_variable_cfd_violations(table: &Table, rules: &[VariableCfd]) -> Vec<usize> {
    let n = table.num_rows();
    let mut flagged = vec![false; n];
    for rule in rules {
        let (cond_col, cond_val) = &rule.condition;
        let Some(cond_code) =
            table.column(*cond_col).expect("in range").dictionary().lookup(cond_val)
        else {
            continue;
        };
        let cond_codes = table.column(*cond_col).expect("in range").codes();
        let scope: Vec<u32> =
            (0..n as u32).filter(|&r| cond_codes[r as usize] == cond_code).collect();
        let lhs = rule.fd.lhs[0];
        let rhs = rule.fd.rhs;
        let lhs_codes = table.column(lhs).expect("in range").codes();
        let rhs_codes = table.column(rhs).expect("in range").codes();
        let mut groups: HashMap<u32, Vec<u32>> = HashMap::new();
        for &r in &scope {
            let l = lhs_codes[r as usize];
            if l != NULL_CODE {
                groups.entry(l).or_default().push(r);
            }
        }
        for rows in groups.values() {
            if rows.len() < 2 {
                continue;
            }
            let mut counts: HashMap<u32, usize> = HashMap::new();
            for &r in rows {
                *counts.entry(rhs_codes[r as usize]).or_default() += 1;
            }
            if counts.len() < 2 {
                continue;
            }
            let (&mode, _) = counts
                .iter()
                .max_by(|(ca, na), (cb, nb)| na.cmp(nb).then(cb.cmp(ca)))
                .expect("non-empty");
            for &r in rows {
                if rhs_codes[r as usize] != mode {
                    flagged[r as usize] = true;
                }
            }
        }
    }
    (0..n).filter(|&r| flagged[r]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovers_conditional_rule() {
        // country→code only holds conditionally: within country=US, area
        // determines nothing, but country=US always has code=1.
        let mut csv = String::from("country,code\n");
        for _ in 0..20 {
            csv.push_str("US,1\n");
            csv.push_str("UK,44\n");
        }
        let t = Table::from_csv_str(&csv).unwrap();
        let rules = ctane_discover(&t, &CtaneConfig::default()).unwrap();
        assert!(
            rules.iter().any(|r| {
                r.pattern == vec![(0, Value::from("US"))]
                    && r.target == 1
                    && r.consequent == Value::Int(1)
                    && r.confidence == 1.0
            }),
            "{rules:?}"
        );
    }

    #[test]
    fn support_threshold_filters_rare_patterns() {
        let mut csv = String::from("a,b\n");
        for _ in 0..10 {
            csv.push_str("x,1\n");
        }
        csv.push_str("rare,9\n");
        let t = Table::from_csv_str(&csv).unwrap();
        let rules =
            ctane_discover(&t, &CtaneConfig { min_support: 5, ..Default::default() }).unwrap();
        assert!(rules.iter().all(|r| r.pattern[0].1 != Value::from("rare")));
    }

    #[test]
    fn confidence_threshold() {
        let mut csv = String::from("a,b\n");
        for i in 0..20 {
            csv.push_str(&format!("x,{}\n", if i < 13 { 1 } else { 2 }));
        }
        let t = Table::from_csv_str(&csv).unwrap();
        let strict =
            ctane_discover(&t, &CtaneConfig { min_confidence: 0.9, ..Default::default() }).unwrap();
        assert!(strict.iter().all(|r| r.target != 1));
        let loose =
            ctane_discover(&t, &CtaneConfig { min_confidence: 0.6, ..Default::default() }).unwrap();
        assert!(loose.iter().any(|r| r.target == 1 && r.consequent == Value::Int(1)));
    }

    #[test]
    fn minimality_suppresses_subsumed_rules() {
        let mut csv = String::from("a,b,c\n");
        for i in 0..30 {
            csv.push_str(&format!("x,{},1\n", i % 3));
        }
        let t = Table::from_csv_str(&csv).unwrap();
        let rules = ctane_discover(&t, &CtaneConfig::default()).unwrap();
        // (a=x)→c=1 subsumes (a=x ∧ b=_)→c=1.
        let about_c: Vec<_> = rules.iter().filter(|r| r.target == 2).collect();
        assert!(about_c.iter().all(|r| r.pattern.len() == 1), "{about_c:?}");
    }

    #[test]
    fn variable_cfd_found_only_where_conditional() {
        // Within country=US: area → city holds; within country=UK it does
        // not; globally it does not. Expect the scoped rule only.
        let mut csv = String::from("country,area,city\n");
        for _ in 0..15 {
            csv.push_str("US,1,NYC\nUS,2,LA\n");
            csv.push_str("UK,1,London\nUK,1,Leeds\n"); // area 1 ambiguous in UK
        }
        let t = Table::from_csv_str(&csv).unwrap();
        let rules = ctane_discover_variable(&t, &CtaneConfig::default(), 0.0).unwrap();
        assert!(
            rules.iter().any(|r| r.condition == (0, Value::from("US"))
                && r.fd == Fd::new(vec![1], 2)
                && r.error == 0.0),
            "{rules:?}"
        );
        assert!(
            !rules
                .iter()
                .any(|r| r.condition == (0, Value::from("UK")) && r.fd == Fd::new(vec![1], 2)),
            "{rules:?}"
        );
    }

    #[test]
    fn globally_holding_fds_are_excluded_from_variable_rules() {
        // b = f(a) globally: no scoped version should be reported.
        let mut csv = String::from("c,a,b\n");
        for i in 0..40 {
            csv.push_str(&format!("{},{},{}\n", i % 2, i % 3, (i % 3) * 10));
        }
        let t = Table::from_csv_str(&csv).unwrap();
        let rules = ctane_discover_variable(&t, &CtaneConfig::default(), 0.0).unwrap();
        assert!(
            rules.iter().all(|r| !(r.fd == Fd::new(vec![1], 2))),
            "global FD leaked into the tableau: {rules:?}"
        );
    }

    #[test]
    fn variable_cfd_detection_flags_scoped_minority() {
        let mut csv = String::from("country,area,city\n");
        for _ in 0..15 {
            csv.push_str("US,1,NYC\nUS,2,LA\nUK,1,London\nUK,1,Leeds\n");
        }
        // Corrupt one scoped row: US area 1 should be NYC.
        csv.push_str("US,1,Boston\n");
        let t = Table::from_csv_str(&csv).unwrap();
        let clean_scope = Table::from_csv_str(&csv.replace("US,1,Boston\n", "")).unwrap();
        let rules = ctane_discover_variable(&clean_scope, &CtaneConfig::default(), 0.0).unwrap();
        let flagged = detect_variable_cfd_violations(&t, &rules);
        assert_eq!(flagged, vec![60], "{flagged:?}");
    }

    #[test]
    fn budget_exhaustion() {
        let mut csv = String::from("a,b,c,d\n");
        for i in 0..200 {
            csv.push_str(&format!("{},{},{},{}\n", i % 10, i % 9, i % 8, i % 7));
        }
        let t = Table::from_csv_str(&csv).unwrap();
        let out = ctane_discover(
            &t,
            &CtaneConfig { max_candidates: 10, min_support: 2, ..Default::default() },
        );
        assert!(matches!(out, Err(BaselineError::ResourceExhausted { .. })));
    }
}
