//! Dynamically-typed values and tuples — the data model PIER ships between
//! nodes.

use pier_codec::{Error, Reader, Sink, Wire};
use pier_dht::Key;
use std::fmt;

/// A single field value.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Str(String),
    /// A 160-bit identifier (fileIDs, content hashes).
    Key(Key),
}

impl Value {
    /// Type tag for schema validation and error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Str(_) => "str",
            Value::Key(_) => "key",
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_key(&self) -> Option<Key> {
        match self {
            Value::Key(k) => Some(*k),
            _ => None,
        }
    }

    /// Stable bytes used when a value becomes (part of) a DHT key.
    pub fn index_bytes(&self) -> Vec<u8> {
        pier_codec::to_bytes(self).expect("values always serialize")
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Key(k) => write!(f, "#{}", k.short()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Key> for Value {
    fn from(v: Key) -> Self {
        Value::Key(v)
    }
}

/// A tuple: an ordered list of values conforming to some schema.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Tuple(pub Vec<Value>);

impl Tuple {
    pub fn new(values: Vec<Value>) -> Self {
        Tuple(values)
    }

    pub fn get(&self, col: usize) -> Option<&Value> {
        self.0.get(col)
    }

    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Encoded wire size of this tuple.
    pub fn encoded_size(&self) -> usize {
        pier_codec::encoded_size(self)
    }

    /// Concatenate two tuples (join output).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.0.len() + other.0.len());
        values.extend_from_slice(&self.0);
        values.extend_from_slice(&other.0);
        Tuple(values)
    }

    /// Project onto the given columns. Panics on out-of-range columns (plans
    /// are validated against schemas before execution).
    pub fn project(&self, cols: &[usize]) -> Tuple {
        Tuple(cols.iter().map(|&c| self.0[c].clone()).collect())
    }

    /// Encode to bytes for DHT storage.
    pub fn encode(&self) -> Vec<u8> {
        pier_codec::to_bytes(self).expect("tuples always serialize")
    }

    /// Decode from DHT storage bytes.
    pub fn decode(bytes: &[u8]) -> Result<Tuple, pier_codec::Error> {
        pier_codec::from_bytes(bytes)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl Wire for Value {
    fn put<S: Sink>(&self, out: &mut S) {
        match self {
            Value::Null => out.tag(0),
            Value::Bool(b) => out.tag(1).put(b),
            Value::Int(i) => out.tag(2).put(i),
            Value::Str(s) => out.tag(3).put(s),
            Value::Key(k) => out.tag(4).put(k),
        };
    }
    fn get(r: &mut Reader<'_>) -> pier_codec::Result<Self> {
        Ok(match r.varint()? {
            0 => Value::Null,
            1 => Value::Bool(r.get()?),
            2 => Value::Int(r.get()?),
            3 => Value::Str(r.get()?),
            4 => Value::Key(r.get()?),
            tag => return Err(Error::UnknownVariant { ty: "Value", tag }),
        })
    }
}

/// A tuple is its value list.
impl Wire for Tuple {
    fn put<S: Sink>(&self, out: &mut S) {
        self.0.put(out);
    }
    fn get(r: &mut Reader<'_>) -> pier_codec::Result<Self> {
        r.get().map(Tuple)
    }
}

/// Convenience macro for building tuples in tests and examples.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let t = tuple!["song.mp3", 42i64, true];
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(0).unwrap().as_str(), Some("song.mp3"));
        assert_eq!(t.get(1).unwrap().as_int(), Some(42));
        assert_eq!(t.get(2), Some(&Value::Bool(true)));
        assert!(t.get(3).is_none());
        assert_eq!(t.get(0).unwrap().as_int(), None, "wrong-type access is None");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = Tuple::new(vec![
            Value::Null,
            Value::Int(-5),
            Value::Str("x".into()),
            Value::Key(Key::hash(b"f")),
            Value::Bool(false),
        ]);
        let bytes = t.encode();
        assert_eq!(bytes.len(), t.encoded_size());
        assert_eq!(Tuple::decode(&bytes).unwrap(), t);
        assert!(Tuple::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn concat_and_project() {
        let a = tuple![1i64, 2i64];
        let b = tuple!["x"];
        let joined = a.concat(&b);
        assert_eq!(joined.arity(), 3);
        assert_eq!(joined.project(&[2, 0]), tuple!["x", 1i64]);
    }

    #[test]
    fn index_bytes_distinguish_types() {
        // Int(1) and Str("1") must map to different DHT keys.
        assert_ne!(Value::Int(1).index_bytes(), Value::Str("1".into()).index_bytes());
    }

    #[test]
    fn display_is_readable() {
        let t = tuple!["a", 1i64];
        assert_eq!(format!("{t}"), "('a', 1)");
        assert_eq!(format!("{}", Value::Null), "NULL");
    }

    #[test]
    fn small_tuple_is_compact() {
        // An Inverted(keyword, fileID) tuple: tag bytes + short string + key.
        let t = Tuple::new(vec![Value::Str("zeppelin".into()), Value::Key(Key::hash(b"f"))]);
        assert!(t.encoded_size() <= 34, "got {}", t.encoded_size());
    }
}
