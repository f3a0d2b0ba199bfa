//! Quantitative semantics: loss, coverage, and ε-validity.
//!
//! These are the objective functions of the synthesis problem:
//!
//! * **Branch loss** (Eqn. 2): `L(b, D) = |{t ∈ D^b : ⟦b⟧t ≠ t}|` — the
//!   number of covered rows that disagree with the branch's assignment.
//! * **ε-validity** (Eqn. 3–4): every branch's loss is at most `|D^b|·ε`.
//! * **Coverage** (Eqn. 5–6): `cov(b, D) = |D^b| / |D|`, summed over a
//!   statement's branches and averaged over a program's statements.

use crate::ast::{Branch, Program, Statement};
use guardrail_table::Table;

/// `(loss, support)` of a branch on `table`: `loss = L(b, D)` and
/// `support = |D^b|`. `(0, 0)` when `table` lacks the assigned attribute.
pub fn branch_loss(branch: &Branch, table: &Table) -> (usize, usize) {
    let Some(on) = table.column_by_name(&branch.target) else { return (0, 0) };
    let rows = branch.condition.matching_rows(table);
    let literal = on.dictionary().lookup(&branch.literal);
    let loss = rows.iter().filter(|&&row| Some(on.code(row)) != literal).count();
    (loss, rows.len())
}

/// `cov(b, D) = |D^b| / |D|`. Zero for an empty table.
pub fn coverage(branch: &Branch, table: &Table) -> f64 {
    if table.num_rows() == 0 {
        return 0.0;
    }
    let (_, support) = branch_loss(branch, table);
    support as f64 / table.num_rows() as f64
}

/// `cov(s, D) = Σ_b cov(b, D)` (Eqn. 6). Branch conditions produced by the
/// synthesizer are mutually exclusive (distinct determinant valuations), so
/// the sum equals the coverage of the union `D^s`.
pub fn statement_coverage(statement: &Statement, table: &Table) -> f64 {
    statement.branches.iter().map(|b| coverage(b, table)).sum()
}

/// Statement-level ε-validity (Eqn. 4): `∀ b ∈ s, L(b, D) ≤ |D^b|·ε`.
pub fn epsilon_valid(statement: &Statement, table: &Table, epsilon: f64) -> bool {
    statement.branches.iter().all(|b| {
        let (loss, support) = branch_loss(b, table);
        loss as f64 <= support as f64 * epsilon
    })
}

/// Program-level ε-validity (Eqn. 3): every statement is ε-valid.
pub fn program_epsilon_valid(program: &Program, table: &Table, epsilon: f64) -> bool {
    program.statements.iter().all(|s| epsilon_valid(s, table, epsilon))
}

/// Program coverage: the average statement coverage (§2.2). Zero for the
/// empty program.
pub fn program_coverage(program: &Program, table: &Table) -> f64 {
    if program.statements.is_empty() {
        return 0.0;
    }
    let total: f64 = program.statements.iter().map(|s| statement_coverage(s, table)).sum();
    total / program.statements.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn table() -> Table {
        // 6 rows: zip 94704 → Berkeley (3 good, 1 corrupted), 97201 → Portland (2 good).
        Table::from_csv_str(
            "zip,city\n94704,Berkeley\n94704,Berkeley\n94704,Berkeley\n94704,gibbon\n97201,Portland\n97201,Portland\n",
        )
        .unwrap()
    }

    fn program() -> Program {
        parse_program(
            r#"GIVEN zip ON city HAVING
                   IF zip = 94704 THEN city <- "Berkeley";
                   IF zip = 97201 THEN city <- "Portland";"#,
        )
        .unwrap()
    }

    #[test]
    fn branch_loss_and_support() {
        let p = program();
        let t = table();
        let b0 = &p.statements[0].branches[0];
        assert_eq!(branch_loss(b0, &t), (1, 4)); // one corrupted of four covered
        let b1 = &p.statements[0].branches[1];
        assert_eq!(branch_loss(b1, &t), (0, 2));
    }

    #[test]
    fn coverage_values() {
        let p = program();
        let t = table();
        assert!((coverage(&p.statements[0].branches[0], &t) - 4.0 / 6.0).abs() < 1e-12);
        assert!((statement_coverage(&p.statements[0], &t) - 1.0).abs() < 1e-12);
        assert!((program_coverage(&p, &t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn epsilon_thresholds() {
        let p = program();
        let t = table();
        let s = &p.statements[0];
        // Branch 0 loss = 1, support = 4 → needs ε ≥ 0.25.
        assert!(!epsilon_valid(s, &t, 0.1));
        assert!(epsilon_valid(s, &t, 0.25));
        assert!(program_epsilon_valid(&p, &t, 0.25));
        assert!(!program_epsilon_valid(&p, &t, 0.2));
    }

    #[test]
    fn empty_program_is_trivially_valid() {
        let t = table();
        let p = Program::empty();
        assert!(program_epsilon_valid(&p, &t, 0.0));
        assert_eq!(program_coverage(&p, &t), 0.0);
    }

    #[test]
    fn coverage_of_empty_table() {
        // Header-only CSV parses to a zero-row table.
        let t = Table::from_csv_str("zip,city\n").unwrap();
        assert_eq!(t.num_rows(), 0);
        let p = program();
        assert_eq!(coverage(&p.statements[0].branches[0], &t), 0.0);
    }
}
