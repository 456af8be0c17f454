//! Literals: the selection conditions carried by Augment/Reduct operators.
//!
//! The paper's operators are parameterised by a literal `c` of the form
//! `A = a` (equality). The experiments additionally extend operators with
//! range literals derived from k-means clustering of active domains
//! ("extended operators with range queries to control |adom|", Exp-3), so we
//! support both equality and closed-range forms.

use std::fmt;

use crate::column::Cells;
use crate::dataset::Dataset;
use crate::value::Value;
use crate::view::RowMask;

/// A single selection condition on one attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// `A = a`.
    Equals(Value),
    /// `lo <= A <= hi` on the numeric reading of the attribute.
    Range {
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// `A` is missing.
    IsNull,
}

/// A literal `c` posed on a named attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct Literal {
    /// Attribute name the condition refers to.
    pub attribute: String,
    /// The condition.
    pub condition: Condition,
}

impl Literal {
    /// Builds an equality literal `attribute = value`.
    pub fn equals(attribute: impl Into<String>, value: impl Into<Value>) -> Self {
        Literal {
            attribute: attribute.into(),
            condition: Condition::Equals(value.into()),
        }
    }

    /// Builds a closed range literal `lo <= attribute <= hi`.
    pub fn range(attribute: impl Into<String>, lo: f64, hi: f64) -> Self {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        Literal {
            attribute: attribute.into(),
            condition: Condition::Range { lo, hi },
        }
    }

    /// Builds an `IS NULL` literal.
    pub fn is_null(attribute: impl Into<String>) -> Self {
        Literal {
            attribute: attribute.into(),
            condition: Condition::IsNull,
        }
    }

    /// Evaluates the literal on a single value.
    pub(crate) fn matches_value(&self, v: &Value) -> bool {
        match &self.condition {
            Condition::Equals(target) => v == target,
            Condition::Range { lo, hi } => match v.as_f64() {
                Some(x) => x >= *lo && x <= *hi,
                None => false,
            },
            Condition::IsNull => v.is_null(),
        }
    }

    /// The rows of `data` satisfying the literal: the attribute's column is
    /// resolved once and every cell of it tested. A dataset without the
    /// attribute matches no row.
    pub fn mask(&self, data: &Dataset) -> RowMask {
        let Some(col) = data.schema().position(&self.attribute) else {
            return RowMask::none(data.num_rows());
        };
        let column = data.column(col);
        match (&self.condition, &column.cells) {
            // A number column holds each cell's reading, `NaN` at a null.
            (Condition::Range { lo, hi }, Cells::Float(v) | Cells::Int(v)) => {
                RowMask::from_pred(v.len(), |r| v[r] >= *lo && v[r] <= *hi)
            }
            // A string column compares codes (a null's is past every key).
            (Condition::Equals(target @ Value::Str(_)), Cells::Str { codes, keys }) => {
                let code = keys.iter().position(|key| key == target);
                RowMask::from_pred(codes.len(), |r| Some(codes[r] as usize) == code)
            }
            _ => RowMask::from_pred(data.num_rows(), |r| self.matches_value(&column.cell(r))),
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.condition {
            Condition::Equals(v) => write!(f, "{} = {}", self.attribute, v),
            Condition::Range { lo, hi } => write!(f, "{} ∈ [{}, {}]", self.attribute, lo, hi),
            Condition::IsNull => write!(f, "{} IS NULL", self.attribute),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn toy() -> Dataset {
        Dataset::from_rows(
            "toy",
            Schema::from_names(["year", "season"]),
            vec![
                vec![Value::Int(2001), Value::Str("spring".into())],
                vec![Value::Int(2005), Value::Str("summer".into())],
                vec![Value::Int(2013), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn equality_literal_matches() {
        let d = toy();
        let lit = Literal::equals("season", "spring");
        assert_eq!(lit.mask(&d).count(), 1);
    }

    #[test]
    fn range_literal_matches_numeric() {
        let d = toy();
        let lit = Literal::range("year", 2000.0, 2006.0);
        assert_eq!(lit.mask(&d).count(), 2);
    }

    #[test]
    fn range_constructor_normalises_bounds() {
        let lit = Literal::range("x", 5.0, 1.0);
        assert_eq!(lit.condition, Condition::Range { lo: 1.0, hi: 5.0 });
    }

    #[test]
    fn null_literals() {
        let d = toy();
        assert_eq!(Literal::is_null("season").mask(&d).count(), 1);
    }

    #[test]
    fn unknown_attribute_never_matches() {
        let d = toy();
        let lit = Literal::equals("missing", 1);
        assert_eq!(lit.mask(&d).count(), 0);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(Literal::equals("a", 3).to_string(), "a = 3");
        assert!(Literal::range("a", 0.0, 1.0).to_string().contains('['));
    }
}
