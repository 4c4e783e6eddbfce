//! Attributes, attribute kinds and schemas.

use crate::error::{RelationError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Statistical kind of an attribute, as the paper distinguishes them.
///
/// The paper's privacy definitions differ by kind: categorical leakage is
/// exact index-aligned matching (Definition 2.2), continuous leakage is an
/// ε-ball around the real value (Definition 2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttrKind {
    /// Discrete labels; equality is the only meaningful relation.
    Categorical,
    /// Numeric values drawn from an (effectively) continuous range.
    Continuous,
}

impl fmt::Display for AttrKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrKind::Categorical => write!(f, "categorical"),
            AttrKind::Continuous => write!(f, "continuous"),
        }
    }
}

/// A named, kinded attribute of a relation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Attribute {
    /// The attribute (feature) name — itself a piece of metadata the paper
    /// analyses the sharing of.
    pub name: String,
    /// Categorical or continuous.
    pub kind: AttrKind,
}

impl Attribute {
    /// Creates a new attribute.
    pub fn new(name: impl Into<String>, kind: AttrKind) -> Self {
        Self {
            name: name.into(),
            kind,
        }
    }

    /// Shorthand for a categorical attribute.
    pub fn categorical(name: impl Into<String>) -> Self {
        Self::new(name, AttrKind::Categorical)
    }

    /// Shorthand for a continuous attribute.
    pub fn continuous(name: impl Into<String>) -> Self {
        Self::new(name, AttrKind::Continuous)
    }
}

/// An ordered list of uniquely named attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    attributes: Vec<Attribute>,
}

impl Schema {
    /// Builds a schema, rejecting duplicate attribute names.
    pub fn new(attributes: Vec<Attribute>) -> Result<Self> {
        for (i, a) in attributes.iter().enumerate() {
            if attributes[..i].iter().any(|b| b.name == a.name) {
                return Err(RelationError::DuplicateAttribute(a.name.clone()));
            }
        }
        Ok(Self { attributes })
    }

    /// The attributes in declaration order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Number of attributes.
    pub(crate) fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Attribute at `index`, if in bounds.
    pub fn attribute(&self, index: usize) -> Result<&Attribute> {
        self.attributes
            .get(index)
            .ok_or(RelationError::IndexOutOfBounds {
                index,
                len: self.attributes.len(),
            })
    }

    /// Iterator over `(index, attribute)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Attribute)> {
        self.attributes.iter().enumerate()
    }

    /// Indices of all attributes of the given kind.
    pub fn indices_of_kind(&self, kind: AttrKind) -> Vec<usize> {
        self.attributes
            .iter()
            .enumerate()
            .filter(|(_, a)| a.kind == kind)
            .map(|(i, _)| i)
            .collect()
    }

    /// Sub-schema keeping only the attributes at `indices` (in the given
    /// order). Used when vertically partitioning a relation between parties.
    pub(crate) fn project(&self, indices: &[usize]) -> Result<Schema> {
        let mut attrs = Vec::with_capacity(indices.len());
        for &i in indices {
            attrs.push(self.attribute(i)?.clone());
        }
        Schema::new(attrs)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.attributes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", a.name, a.kind)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Schema {
        Schema::new(vec![
            Attribute::categorical("a"),
            Attribute::continuous("b"),
            Attribute::categorical("c"),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_duplicate_names() {
        let err = Schema::new(vec![
            Attribute::categorical("x"),
            Attribute::continuous("x"),
        ])
        .unwrap_err();
        assert_eq!(err, RelationError::DuplicateAttribute("x".into()));
    }

    #[test]
    fn index_lookup() {
        let s = abc();
        assert_eq!(s.attribute(2).unwrap().name, "c");
        assert!(s.attribute(3).is_err());
    }

    #[test]
    fn kind_partition() {
        let s = abc();
        assert_eq!(s.indices_of_kind(AttrKind::Categorical), vec![0, 2]);
        assert_eq!(s.indices_of_kind(AttrKind::Continuous), vec![1]);
    }

    #[test]
    fn projection_reorders() {
        let s = abc();
        let p = s.project(&[2, 0]).unwrap();
        assert_eq!(p.arity(), 2);
        assert_eq!(p.attribute(0).unwrap().name, "c");
        assert_eq!(p.attribute(1).unwrap().name, "a");
        assert!(s.project(&[9]).is_err());
    }

    #[test]
    fn display_lists_attributes() {
        let s = abc();
        let d = s.to_string();
        assert!(d.contains("a: categorical"));
        assert!(d.contains("b: continuous"));
    }

    #[test]
    fn empty_schema_is_valid() {
        let s = Schema::new(vec![]).unwrap();
        assert_eq!(s.arity(), 0);
    }
}
