//! Named tables and models.

use guardrail_ml::Classifier;
use guardrail_table::Table;
use std::collections::HashMap;
use std::sync::Arc;

/// A shareable fitted model.
pub type ModelRef = Arc<dyn Classifier + Send + Sync>;

/// The executor's name resolution context: registered tables and ML models.
#[derive(Default, Clone)]
pub struct Catalog {
    tables: HashMap<String, Table>,
    models: HashMap<String, ModelRef>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a table.
    pub fn add_table(&mut self, name: impl Into<String>, table: Table) {
        self.tables.insert(name.into(), table);
    }

    /// Registers (or replaces) a model.
    pub fn add_model(&mut self, name: impl Into<String>, model: ModelRef) {
        self.models.insert(name.into(), model);
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Looks up a model.
    pub fn model(&self, name: &str) -> Option<&ModelRef> {
        self.models.get(name)
    }

    /// Registered table names (sorted).
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names
    }
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog")
            .field("tables", &self.table_names())
            .field("models", &self.models.keys().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardrail_ml::NaiveBayes;

    #[test]
    fn registration_and_lookup() {
        let mut c = Catalog::new();
        let t = Table::from_csv_str("a,label\n1,x\n2,y\n").unwrap();
        let model = NaiveBayes::fit(&t, 1);
        c.add_table("t", t);
        c.add_model("m", Arc::new(model));
        assert!(c.table("t").is_some());
        assert!(c.table("nope").is_none());
        assert!(c.model("m").is_some());
        assert_eq!(c.table_names(), vec!["t"]);
    }
}
