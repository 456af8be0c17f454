//! Schemas and attributes.
//!
//! A dataset `D(A_1 … A_m)` conforms to a local schema `R_D(A_1 … A_m)`.
//! The *universal schema* `R_U` is the union of the local schemas of all
//! source tables (§2 of the paper).

use std::collections::BTreeMap;
use std::fmt;

/// The role an attribute plays for the downstream model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttributeRole {
    /// Regular feature column.
    Feature,
    /// The prediction target of the downstream model.
    Target,
    /// Join key shared across source tables.
    Key,
}

/// A named, typed attribute of a schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Attribute {
    /// Attribute name (unique within a schema).
    pub name: String,
    /// Role of the attribute for the model / integration pipeline.
    pub role: AttributeRole,
}

impl Attribute {
    /// Creates a feature attribute.
    pub fn feature(name: impl Into<String>) -> Self {
        Attribute {
            name: name.into(),
            role: AttributeRole::Feature,
        }
    }

    /// Creates the target attribute.
    pub fn target(name: impl Into<String>) -> Self {
        Attribute {
            name: name.into(),
            role: AttributeRole::Target,
        }
    }

    /// Creates a join-key attribute.
    pub fn key(name: impl Into<String>) -> Self {
        Attribute {
            name: name.into(),
            role: AttributeRole::Key,
        }
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// An ordered collection of attributes with fast name lookup.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schema {
    attributes: Vec<Attribute>,
    index: BTreeMap<String, usize>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Schema::default()
    }

    /// Creates a schema from a list of attributes.
    ///
    /// Duplicate names keep the first occurrence.
    pub fn from_attributes<I: IntoIterator<Item = Attribute>>(attrs: I) -> Self {
        let mut s = Schema::new();
        for a in attrs {
            s.push(a);
        }
        s
    }

    /// Convenience constructor: every name becomes a feature attribute.
    pub fn from_names<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Schema::from_attributes(names.into_iter().map(|n| Attribute::feature(n.into())))
    }

    /// Appends an attribute, returning its column index. Re-adding an
    /// existing name returns the existing index.
    pub fn push(&mut self, attr: Attribute) -> usize {
        if let Some(&i) = self.index.get(&attr.name) {
            return i;
        }
        let i = self.attributes.len();
        self.index.insert(attr.name.clone(), i);
        self.attributes.push(attr);
        i
    }

    /// Number of attributes (`|R|`).
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// Whether the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// Index of an attribute by name.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Whether the schema contains `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Attribute at a column index.
    pub fn attribute(&self, idx: usize) -> Option<&Attribute> {
        self.attributes.get(idx)
    }

    /// All attributes in column order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// All attribute names in column order.
    pub fn names(&self) -> Vec<&str> {
        self.attributes.iter().map(|a| a.name.as_str()).collect()
    }

    /// Index of the target attribute, if declared.
    pub fn target_index(&self) -> Option<usize> {
        self.attributes
            .iter()
            .position(|a| a.role == AttributeRole::Target)
    }

    /// Union of two schemas (the universal-schema construction `R_U`).
    ///
    /// Attribute order: all of `self` first, then attributes of `other` not
    /// already present. Roles of shared attributes keep `self`'s role.
    pub fn union(&self, other: &Schema) -> Schema {
        let mut s = self.clone();
        for a in other.attributes() {
            s.push(a.clone());
        }
        s
    }

    /// Projection of the schema onto a set of column indices.
    pub(crate) fn project(&self, indices: &[usize]) -> Schema {
        Schema::from_attributes(indices.iter().filter_map(|&i| self.attribute(i).cloned()))
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({})",
            self.attributes
                .iter()
                .map(|a| a.name.clone())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_deduplicates_names() {
        let mut s = Schema::new();
        let a = s.push(Attribute::feature("x"));
        let b = s.push(Attribute::feature("x"));
        assert_eq!(a, b);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn union_preserves_order_and_dedups() {
        let s1 = Schema::from_names(["a", "b"]);
        let s2 = Schema::from_names(["b", "c"]);
        let u = s1.union(&s2);
        assert_eq!(u.names(), vec!["a", "b", "c"]);
    }

    #[test]
    fn role_lookup() {
        let s = Schema::from_attributes(vec![
            Attribute::key("id"),
            Attribute::feature("x"),
            Attribute::target("y"),
        ]);
        assert_eq!(s.target_index(), Some(2));
    }

    #[test]
    fn projection_keeps_subset() {
        let s = Schema::from_names(["a", "b", "c"]);
        let p = s.project(&[2, 0]);
        assert_eq!(p.names(), vec!["c", "a"]);
    }
}
