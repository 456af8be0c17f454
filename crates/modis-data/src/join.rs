//! Joins and universal-table construction.
//!
//! `ApxMODis` starts from a *universal* dataset `D_U` carrying the universal
//! schema `R_U`, "populated by joining all the tables (with outer join to
//! preserve all the values besides common attributes, by default)" (§5.2).
//! This module provides hash equi-joins (inner / left / full outer) and a
//! multi-way outer join over a shared key.

use std::collections::HashMap;

use crate::dataset::Dataset;
use crate::error::DataError;
use crate::schema::Schema;
use crate::value::Value;

/// Join flavours supported by the substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Keep only matching tuples.
    Inner,
    /// Keep every left tuple, padding right attributes with nulls.
    LeftOuter,
    /// Keep every tuple from both sides (the paper's default for `D_U`).
    FullOuter,
}

/// Hash equi-join of two datasets on a shared key attribute.
///
/// The output schema is the union of the operand schemas; shared non-key
/// attributes take the left value when both are present.
pub fn hash_join(
    left: &Dataset,
    right: &Dataset,
    key: &str,
    kind: JoinKind,
) -> Result<Dataset, DataError> {
    let lk = left
        .schema()
        .position(key)
        .ok_or_else(|| DataError::MissingJoinKey(key.to_string()))?;
    let rk = right
        .schema()
        .position(key)
        .ok_or_else(|| DataError::MissingJoinKey(key.to_string()))?;

    let out_schema = left.schema().union(right.schema());
    let mut out = Dataset::new(format!("{}⋈{}", left.name, right.name), out_schema);

    // Column maps from each operand into the output schema.
    let lmap: Vec<usize> = left
        .schema()
        .names()
        .iter()
        .map(|n| out.schema().position(n).expect("union contains left attr"))
        .collect();
    let rmap: Vec<usize> = right
        .schema()
        .names()
        .iter()
        .map(|n| out.schema().position(n).expect("union contains right attr"))
        .collect();

    // Build hash index on the right side.
    let mut index: HashMap<Value, Vec<usize>> = HashMap::new();
    for (i, row) in right.rows().iter().enumerate() {
        let k = row[rk].clone();
        if k.is_null() {
            continue;
        }
        index.entry(k).or_default().push(i);
    }

    let width = out.num_columns();
    let mut right_matched = vec![false; right.num_rows()];

    for lrow in left.rows() {
        let k = &lrow[lk];
        let matches = if k.is_null() { None } else { index.get(k) };
        match matches {
            Some(ris) if !ris.is_empty() => {
                for &ri in ris {
                    right_matched[ri] = true;
                    let rrow = &right.rows()[ri];
                    let mut new_row = vec![Value::Null; width];
                    for (ci, &oi) in lmap.iter().enumerate() {
                        new_row[oi] = lrow[ci].clone();
                    }
                    for (ci, &oi) in rmap.iter().enumerate() {
                        if new_row[oi].is_null() {
                            new_row[oi] = rrow[ci].clone();
                        }
                    }
                    out.push_row(new_row);
                }
            }
            _ => {
                if kind != JoinKind::Inner {
                    let mut new_row = vec![Value::Null; width];
                    for (ci, &oi) in lmap.iter().enumerate() {
                        new_row[oi] = lrow[ci].clone();
                    }
                    out.push_row(new_row);
                }
            }
        }
    }

    if kind == JoinKind::FullOuter {
        for (ri, rrow) in right.rows().iter().enumerate() {
            if right_matched[ri] {
                continue;
            }
            let mut new_row = vec![Value::Null; width];
            for (ci, &oi) in rmap.iter().enumerate() {
                new_row[oi] = rrow[ci].clone();
            }
            out.push_row(new_row);
        }
    }

    Ok(out)
}

/// Multi-way full outer join over a shared key: the universal table `D_U`.
///
/// Tables are joined left to right; the resulting dataset carries the
/// universal schema `R_U` of the pool. Returns an empty dataset for an empty
/// pool.
pub fn universal_table(pool: &[Dataset], key: &str) -> Result<Dataset, DataError> {
    let mut iter = pool.iter();
    let first = match iter.next() {
        Some(d) => d.clone(),
        None => return Ok(Dataset::new("D_U", Schema::new())),
    };
    let mut acc = first;
    for d in iter {
        acc = hash_join(&acc, d, key, JoinKind::FullOuter)?;
    }
    acc.name = "D_U".to_string();
    Ok(acc)
}

/// Union-compatible vertical concatenation: aligns on the universal schema of
/// both operands and stacks the rows. Used by the Starmie-style baseline
/// (table-union search).
pub fn union_all(left: &Dataset, right: &Dataset) -> Dataset {
    let schema = left.schema().union(right.schema());
    let mut out = Dataset::new(format!("{}∪{}", left.name, right.name), schema);
    let width = out.num_columns();
    for src in [left, right] {
        let map: Vec<usize> = src
            .schema()
            .names()
            .iter()
            .map(|n| out.schema().position(n).expect("union schema"))
            .collect();
        for row in src.rows() {
            let mut new_row = vec![Value::Null; width];
            for (ci, &oi) in map.iter().enumerate() {
                new_row[oi] = row[ci].clone();
            }
            out.push_row(new_row);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Schema};

    fn left() -> Dataset {
        Dataset::from_rows(
            "L",
            Schema::from_attributes(vec![Attribute::key("id"), Attribute::feature("a")]),
            vec![
                vec![Value::Int(1), Value::Float(1.0)],
                vec![Value::Int(2), Value::Float(2.0)],
                vec![Value::Int(3), Value::Float(3.0)],
            ],
        )
        .unwrap()
    }

    fn right() -> Dataset {
        Dataset::from_rows(
            "R",
            Schema::from_attributes(vec![Attribute::key("id"), Attribute::feature("b")]),
            vec![
                vec![Value::Int(2), Value::Str("x".into())],
                vec![Value::Int(3), Value::Str("y".into())],
                vec![Value::Int(4), Value::Str("z".into())],
            ],
        )
        .unwrap()
    }

    #[test]
    fn inner_join_keeps_matches_only() {
        let j = hash_join(&left(), &right(), "id", JoinKind::Inner).unwrap();
        assert_eq!(j.num_rows(), 2);
        assert_eq!(j.num_columns(), 3);
    }

    #[test]
    fn left_outer_join_pads_nulls() {
        let j = hash_join(&left(), &right(), "id", JoinKind::LeftOuter).unwrap();
        assert_eq!(j.num_rows(), 3);
        let b = j.schema().position("b").unwrap();
        assert!(j.value(0, b).is_null());
    }

    #[test]
    fn full_outer_join_preserves_all_tuples() {
        let j = hash_join(&left(), &right(), "id", JoinKind::FullOuter).unwrap();
        // 2 matches + 1 unmatched left + 1 unmatched right
        assert_eq!(j.num_rows(), 4);
        let ids = j.column(j.schema().position("id").unwrap());
        assert!(ids.contains(&Value::Int(4)));
    }

    #[test]
    fn missing_key_is_error() {
        let l = left();
        let bad = Dataset::new("bad", Schema::from_names(["zzz"]));
        assert!(hash_join(&l, &bad, "id", JoinKind::Inner).is_err());
    }

    #[test]
    fn universal_table_unions_schemas() {
        let third = Dataset::from_rows(
            "T",
            Schema::from_attributes(vec![Attribute::key("id"), Attribute::feature("c")]),
            vec![vec![Value::Int(1), Value::Int(10)]],
        )
        .unwrap();
        let u = universal_table(&[left(), right(), third], "id").unwrap();
        assert_eq!(u.name, "D_U");
        assert_eq!(u.num_columns(), 4);
        assert!(u.num_rows() >= 4);
    }

    #[test]
    fn universal_table_of_empty_pool() {
        let u = universal_table(&[], "id").unwrap();
        assert_eq!(u.num_rows(), 0);
        assert_eq!(u.num_columns(), 0);
    }

    #[test]
    fn union_all_stacks_rows() {
        let u = union_all(&left(), &right());
        assert_eq!(u.num_rows(), 6);
        assert_eq!(u.num_columns(), 3);
    }

    #[test]
    fn null_keys_do_not_join() {
        let mut l = left();
        l.set_value(0, 0, Value::Null).unwrap();
        let j = hash_join(&l, &right(), "id", JoinKind::Inner).unwrap();
        assert_eq!(j.num_rows(), 2);
    }
}
