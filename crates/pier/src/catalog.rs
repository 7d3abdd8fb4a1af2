//! The catalog: the set of table definitions a PIER node knows about.
//!
//! In the paper's deployment every node runs the same application
//! (PIERSearch), so catalogs agree by construction; this type also lets
//! tests and examples register ad-hoc tables.

use crate::schema::TableDef;
use pier_netsim::keyed::KeyedMap;

/// Table registry.
#[derive(Default, Clone)]
pub struct Catalog {
    tables: KeyedMap<String, TableDef>,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table. Replaces an existing definition with the same name
    /// (returns the old one if present).
    pub fn register(&mut self, def: TableDef) -> Option<TableDef> {
        self.tables.insert(def.name.clone(), def)
    }

    pub fn get(&self, name: &str) -> Option<&TableDef> {
        self.tables.get(name)
    }

    pub fn len(&self) -> usize {
        self.tables.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, FieldType, Schema};

    fn def(name: &str) -> TableDef {
        TableDef::new(name, Schema::new(vec![Field::new("k", FieldType::Str)]), 0)
    }

    #[test]
    fn register_and_get() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        assert!(c.register(def("a")).is_none());
        assert!(c.register(def("b")).is_none());
        assert_eq!(c.len(), 2);
        assert!(c.get("a").is_some());
        assert!(c.get("z").is_none());
    }

    #[test]
    fn reregister_replaces() {
        let mut c = Catalog::new();
        c.register(def("a"));
        let old = c.register(TableDef::new(
            "a",
            Schema::new(vec![Field::new("x", FieldType::Int), Field::new("y", FieldType::Int)]),
            1,
        ));
        assert!(old.is_some());
        assert_eq!(c.get("a").unwrap().schema.arity(), 2);
        assert_eq!(c.len(), 1);
    }
}
