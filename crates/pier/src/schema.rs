//! Schemas and table definitions (the catalog side of PIER).

use crate::value::{Tuple, Value};
use pier_dht::Key;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The type of one field.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum FieldType {
    Int,
    Str,
    Key,
}

impl FieldType {
    /// Does `value` inhabit this type? `Null` inhabits every type.
    pub fn admits(&self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (FieldType::Int, Value::Int(_))
                | (FieldType::Str, Value::Str(_))
                | (FieldType::Key, Value::Key(_))
        )
    }
}

/// One named, typed column.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Field {
    pub name: String,
    pub ty: FieldType,
}

impl Field {
    pub fn new(name: &str, ty: FieldType) -> Self {
        Field { name: name.to_string(), ty }
    }
}

/// An ordered list of fields.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Schema {
    pub fields: Vec<Field>,
}

impl Schema {
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Index of the column with the given name.
    pub fn col(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Validate a tuple against this schema.
    pub fn check(&self, tuple: &Tuple) -> Result<(), SchemaError> {
        if tuple.arity() != self.arity() {
            return Err(SchemaError::Arity { expected: self.arity(), got: tuple.arity() });
        }
        for (i, (field, value)) in self.fields.iter().zip(&tuple.0).enumerate() {
            if !field.ty.admits(value) {
                return Err(SchemaError::Type {
                    col: i,
                    field: field.name.clone(),
                    expected: field.ty,
                    got: value.type_name(),
                });
            }
        }
        Ok(())
    }
}

/// Schema violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    Arity { expected: usize, got: usize },
    Type { col: usize, field: String, expected: FieldType, got: &'static str },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Arity { expected, got } => {
                write!(f, "arity mismatch: schema has {expected} fields, tuple has {got}")
            }
            SchemaError::Type { col, field, expected, got } => {
                write!(f, "column {col} ({field}): expected {expected:?}, got {got}")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// A table definition: name, schema, and which column is the publishing
/// (index) key for the DHT — the paper's "index key" (§3.1).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct TableDef {
    pub name: String,
    pub schema: Schema,
    /// Column whose value determines where a tuple lives in the DHT.
    pub index_col: usize,
}

impl TableDef {
    pub fn new(name: &str, schema: Schema, index_col: usize) -> Self {
        assert!(index_col < schema.arity(), "index column out of range");
        TableDef { name: name.to_string(), schema, index_col }
    }

    /// The DHT key under which a tuple with index value `v` is published.
    /// Namespaced by table name so tables never collide in the key space.
    pub fn publish_key_for(&self, v: &Value) -> Key {
        let mut buf = Vec::with_capacity(self.name.len() + 16);
        buf.extend_from_slice(self.name.as_bytes());
        buf.push(0);
        buf.extend_from_slice(&v.index_bytes());
        Key::hash(&buf)
    }

    /// The DHT key for a specific tuple.
    pub fn publish_key(&self, tuple: &Tuple) -> Key {
        self.publish_key_for(&tuple.0[self.index_col])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn item_table() -> TableDef {
        TableDef::new(
            "item",
            Schema::new(vec![
                Field::new("fileID", FieldType::Key),
                Field::new("filename", FieldType::Str),
                Field::new("filesize", FieldType::Int),
            ]),
            0,
        )
    }

    #[test]
    fn col_lookup() {
        let t = item_table();
        assert_eq!(t.schema.col("filename"), Some(1));
        assert_eq!(t.schema.col("nope"), None);
    }

    #[test]
    fn check_accepts_valid_and_nulls() {
        let t = item_table();
        let good = Tuple::new(vec![
            Value::Key(Key::hash(b"f")),
            Value::Str("a.mp3".into()),
            Value::Int(100),
        ]);
        assert!(t.schema.check(&good).is_ok());
        let with_null = Tuple::new(vec![Value::Key(Key::hash(b"f")), Value::Null, Value::Int(1)]);
        assert!(t.schema.check(&with_null).is_ok());
    }

    #[test]
    fn check_rejects_arity_and_type() {
        let t = item_table();
        assert_eq!(t.schema.check(&tuple![1i64]), Err(SchemaError::Arity { expected: 3, got: 1 }));
        let bad = Tuple::new(vec![Value::Int(1), Value::Str("x".into()), Value::Int(2)]);
        match t.schema.check(&bad) {
            Err(SchemaError::Type { col: 0, .. }) => {}
            other => panic!("expected type error, got {other:?}"),
        }
    }

    #[test]
    fn publish_keys_namespaced_by_table() {
        let item = item_table();
        let other = TableDef::new(
            "inverted",
            Schema::new(vec![
                Field::new("keyword", FieldType::Str),
                Field::new("fileID", FieldType::Key),
            ]),
            0,
        );
        let v = Value::Str("zeppelin".into());
        assert_ne!(item.publish_key_for(&v), other.publish_key_for(&v));
        // Same table, same value: stable.
        assert_eq!(other.publish_key_for(&v), other.publish_key_for(&v));
    }

    #[test]
    fn publish_key_uses_index_col() {
        let inv = TableDef::new(
            "inverted",
            Schema::new(vec![
                Field::new("keyword", FieldType::Str),
                Field::new("fileID", FieldType::Key),
            ]),
            0,
        );
        let t1 = Tuple::new(vec![Value::Str("rock".into()), Value::Key(Key::hash(b"a"))]);
        let t2 = Tuple::new(vec![Value::Str("rock".into()), Value::Key(Key::hash(b"b"))]);
        // Same keyword → same home node, regardless of fileID.
        assert_eq!(inv.publish_key(&t1), inv.publish_key(&t2));
    }

    #[test]
    #[should_panic(expected = "index column out of range")]
    fn bad_index_col_rejected() {
        TableDef::new("t", Schema::new(vec![Field::new("a", FieldType::Int)]), 5);
    }
}
