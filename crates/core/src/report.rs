//! Detection and application reports.

use guardrail_dsl::{Unbound, Violation};

/// Result of [`crate::Guardrail::detect`] on a table.
#[derive(Debug, Clone, Default)]
pub struct DetectionReport {
    /// All violations, in row order.
    pub violations: Vec<Violation>,
    /// Rows checked.
    pub rows_checked: usize,
    /// Statements not checked: they do not bind to the table's schema.
    pub unbound: Vec<Unbound>,
}

impl DetectionReport {
    /// Sorted, distinct indices of rows with at least one violation.
    pub fn dirty_rows(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = self.violations.iter().map(|v| v.row).collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// `true` when the table is violation-free under every statement:
    /// false while any statement is unbound.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.unbound.is_empty()
    }

    /// Fraction of rows flagged.
    pub fn dirty_fraction(&self) -> f64 {
        if self.rows_checked == 0 {
            0.0
        } else {
            self.dirty_rows().len() as f64 / self.rows_checked as f64
        }
    }
}

/// Result of [`crate::Guardrail::apply`] on a table.
#[derive(Debug, Clone, Default)]
pub struct ApplyReport {
    /// Violations found before the scheme acted.
    pub violations: Vec<Violation>,
    /// Cells modified by the scheme (0 for `Ignore`).
    pub cells_changed: usize,
    /// Statements not applied: they do not bind to the table's schema.
    pub unbound: Vec<Unbound>,
}

impl ApplyReport {
    /// Sorted, distinct indices of rows the scheme touched or flagged.
    pub fn affected_rows(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = self.violations.iter().map(|v| v.row).collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }
}
