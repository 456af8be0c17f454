//! The primitive operators of the skyline data generator (§3).
//!
//! * [`augment`] — `⊕_c(D_M, D)`: extend `D_M`'s schema with an attribute of
//!   `D` and append the tuples of `D` satisfying literal `c`, padding unknown
//!   cells with nulls.
//! * [`reduct`] — `⊖_c(D_M)`: select the tuples of `D_M` satisfying `c` and
//!   remove them.
//!
//! Both are polynomial-time and expressible as SPJ queries.

use crate::dataset::Dataset;
use crate::error::DataError;
use crate::literal::Literal;
use crate::schema::Attribute;
use crate::value::Value;

/// Applies `⊕_c(base, source)` (§3, Augment).
///
/// 1. the schema of `base` is augmented with `attribute` from `source` (if
///    not present);
/// 2. tuples of `source` satisfying `c` are appended, aligned on shared
///    attributes;
/// 3. remaining (unknown) cells are filled with nulls.
pub fn augment(
    base: &Dataset,
    source: &Dataset,
    attribute: &str,
    literal: &Literal,
) -> Result<Dataset, DataError> {
    let src_col = source
        .schema()
        .position(attribute)
        .ok_or_else(|| DataError::UnknownColumn(attribute.to_string()))?;

    let mut out = base.clone();
    out.name = format!("{}+{}", base.name, attribute);
    let attr = source
        .schema()
        .attribute(src_col)
        .cloned()
        .unwrap_or_else(|| Attribute::feature(attribute));
    out.add_column(attr);

    // Map shared attributes: source column index -> output column index.
    let shared: Vec<(usize, usize)> = source
        .schema()
        .names()
        .iter()
        .enumerate()
        .filter_map(|(si, name)| out.schema().position(name).map(|oi| (si, oi)))
        .collect();

    for row in source.rows() {
        if !literal.matches_row(source, row) {
            continue;
        }
        let mut new_row = vec![Value::Null; out.num_columns()];
        for &(si, oi) in &shared {
            new_row[oi] = row.get(si).cloned().unwrap_or(Value::Null);
        }
        out.push_row(new_row);
    }
    Ok(out)
}

/// Applies `⊖_c(base)` (§3, Reduct): removes all tuples satisfying the
/// literal and returns the reduced dataset together with the number of
/// removed tuples.
pub fn reduct(base: &Dataset, literal: &Literal) -> (Dataset, usize) {
    let mut out = base.clone();
    out.name = format!("{}−[{}]", base.name, literal);
    let removed = out.retain(|row| !literal.matches_row(base, row));
    (out, removed)
}

/// Masks an attribute entirely: every cell of `attribute` becomes null.
///
/// This realises the "adom_s(A) = ∅" state semantics: the attribute is no
/// longer involved in training/testing without changing the schema width,
/// which keeps state bitmaps aligned with the universal schema.
pub fn mask_attribute(base: &Dataset, attribute: &str) -> Result<Dataset, DataError> {
    let col = base
        .schema()
        .position(attribute)
        .ok_or_else(|| DataError::UnknownColumn(attribute.to_string()))?;
    let mut out = base.clone();
    out.name = format!("{}∖{}", base.name, attribute);
    for r in 0..out.num_rows() {
        out.set_value(r, col, Value::Null)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn water() -> Dataset {
        Dataset::from_rows(
            "water",
            Schema::from_names(["site", "ph"]),
            vec![
                vec![Value::Int(1), Value::Float(6.8)],
                vec![Value::Int(2), Value::Float(7.2)],
            ],
        )
        .unwrap()
    }

    fn phosphorus() -> Dataset {
        Dataset::from_rows(
            "phos",
            Schema::from_names(["site", "phosphorus", "year"]),
            vec![
                vec![Value::Int(1), Value::Float(0.3), Value::Int(2013)],
                vec![Value::Int(2), Value::Float(0.9), Value::Int(2010)],
                vec![Value::Int(3), Value::Float(0.1), Value::Int(2013)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn augment_adds_attribute_and_matching_tuples() {
        let base = water();
        let src = phosphorus();
        let lit = Literal::equals("year", 2013);
        let out = augment(&base, &src, "phosphorus", &lit).unwrap();
        assert!(out.schema().contains("phosphorus"));
        // two source rows satisfy year=2013 and are appended
        assert_eq!(out.num_rows(), 4);
        // original rows have null phosphorus
        assert!(out
            .value(0, out.schema().position("phosphorus").unwrap())
            .is_null());
    }

    #[test]
    fn augment_unknown_attribute_errors() {
        let base = water();
        let src = phosphorus();
        let lit = Literal::equals("year", 2013);
        assert!(augment(&base, &src, "nitrate", &lit).is_err());
    }

    #[test]
    fn reduct_removes_matching_rows() {
        let src = phosphorus();
        let lit = Literal::range("year", 0.0, 2012.0);
        let (out, removed) = reduct(&src, &lit);
        assert_eq!(removed, 1);
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn reduct_with_nonmatching_literal_is_identity_on_rows() {
        let src = phosphorus();
        let lit = Literal::equals("year", 1900);
        let (out, removed) = reduct(&src, &lit);
        assert_eq!(removed, 0);
        assert_eq!(out.num_rows(), src.num_rows());
    }

    #[test]
    fn mask_attribute_nulls_column() {
        let src = phosphorus();
        let out = mask_attribute(&src, "phosphorus").unwrap();
        let c = out.schema().position("phosphorus").unwrap();
        assert!(out.rows().iter().all(|r| r[c].is_null()));
        assert_eq!(out.num_columns(), src.num_columns());
    }
}
