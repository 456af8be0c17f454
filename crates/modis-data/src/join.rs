//! Joins and universal-table construction.
//!
//! `ApxMODis` starts from a *universal* dataset `D_U` carrying the universal
//! schema `R_U`, "populated by joining all the tables (with outer join to
//! preserve all the values besides common attributes, by default)" (§5.2).
//! `D_U` is one n-way full outer join over the shared key, and a hash
//! equi-join (inner / left / full outer) is its two-table case. No table is
//! built per source: rows travel as tuples of row indices, one per table,
//! and each output column is one gather over them, at the end.

use std::borrow::{Borrow, Cow};
use std::collections::HashMap;

use crate::column::{Column, Pick};
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
    let name = format!("{}⋈{}", left.name, right.name);
    join(&[left, right], key, kind, name)
}

/// Multi-way full outer join over a shared key: the universal table `D_U`.
///
/// The result carries the universal schema `R_U` of the pool, attributes in
/// pool order. A one-table pool shares its table's columns (nothing is
/// copied); an empty pool gives an empty table.
pub fn universal_table(pool: &[Dataset], key: &str) -> Result<Dataset, DataError> {
    match pool {
        [] => Ok(Dataset::new("D_U", Schema::new())),
        [only] => Ok(only.clone().with_name("D_U")),
        _ => join(pool, key, JoinKind::FullOuter, "D_U".into()),
    }
}

/// Marks a table that holds no row of a tuple.
const ABSENT: u32 = u32::MAX;

/// Joins two or more tables on `key` as a left-to-right fold of two-table
/// joins would. A tuple's key is its first row's (a tuple of two or more
/// rows was formed by a non-null key); table `j` expands it over the rows
/// its key equals, in row order, and then adds its unmatched rows. A cell
/// is the first non-null one among the tuple's rows holding the column:
/// each output column is gathered from the columns holding it.
fn join<T: Borrow<Dataset>>(
    tables: &[T],
    key: &str,
    kind: JoinKind,
    name: String,
) -> Result<Dataset, DataError> {
    let tables: Vec<&Dataset> = tables.iter().map(T::borrow).collect();
    let keys: Option<Vec<_>> = tables.iter().map(|t| t.schema().position(key)).collect();
    let keys = keys.ok_or_else(|| DataError::MissingJoinKey(key.to_string()))?;
    assert!(tables.iter().all(|t| t.num_rows() < ABSENT as usize)); // row indices are u32
                                                                    // Each table's key cells, read once.
    let key_cells: Vec<Vec<Cow<Value>>> = (tables.iter().zip(&keys))
        .map(|(t, &k)| t.column(k).values().collect())
        .collect();
    let n = tables.len();
    let mut tuples = vec![ABSENT; tables[0].num_rows() * n];
    (0..tables[0].num_rows()).for_each(|r| tuples[r * n] = r as u32);
    for (j, right) in tables.iter().enumerate().skip(1) {
        // Each key's first and last row, and each row's next row of its key.
        let mut index: HashMap<&Value, (u32, u32)> = HashMap::with_capacity(right.num_rows());
        let mut next = vec![ABSENT; right.num_rows()];
        for (r, k) in (0..).zip(&key_cells[j]) {
            if k.is_null() {
                continue;
            }
            let (_, last) = index.entry(k).or_insert((r, r));
            if *last != r {
                next[*last as usize] = r;
                *last = r;
            }
        }
        let mut matched = vec![false; right.num_rows()];
        let mut joined = Vec::with_capacity(tuples.len() + right.num_rows() * n);
        for tuple in tuples.chunks_exact(n) {
            let first = tuple.iter().take_while(|&&r| r == ABSENT).count();
            let k = &key_cells[first][tuple[first] as usize];
            // Null keys are never indexed, so a null key matches nothing.
            let mut r = index.get(&**k).map_or(ABSENT, |&(r, _)| r);
            if r == ABSENT && kind != JoinKind::Inner {
                joined.extend_from_slice(tuple);
            }
            while r != ABSENT {
                matched[r as usize] = true;
                joined.extend_from_slice(tuple);
                let at = joined.len() - n;
                joined[at + j] = r;
                r = next[r as usize];
            }
        }
        if kind == JoinKind::FullOuter {
            for r in (0..right.num_rows()).filter(|&r| !matched[r]) {
                joined.extend((0..n).map(|t| if t == j { r as u32 } else { ABSENT }));
            }
        }
        tuples = joined;
    }
    let schema = (tables[1..].iter()).fold(tables[0].schema().clone(), |s, t| s.union(t.schema()));
    let column = |c: &&str| schema.position(c).expect("in the union");
    let maps: Vec<Vec<usize>> = tables
        .iter()
        .map(|t| t.schema().names().iter().map(column).collect())
        .collect();
    let columns = (0..schema.len())
        .map(|o| {
            // The tables holding column `o`, in pool order, and their columns.
            let (holders, sources): (Vec<usize>, Vec<&Column>) = (maps.iter().enumerate())
                .filter_map(|(j, map)| {
                    Some((j, tables[j].column(map.iter().position(|&m| m == o)?)))
                })
                .unzip();
            let picks: Vec<Pick> = (tuples.chunks_exact(n))
                .map(|tuple| {
                    (holders.iter().zip(&sources).enumerate()).find_map(|(s, (&j, column))| {
                        let r = tuple[j] as usize;
                        (tuple[j] != ABSENT && column.non_null().get(r)).then_some((s, r))
                    })
                })
                .collect();
            Column::gather(&sources, &picks)
        })
        .collect();
    Ok(Dataset::from_columns(name, schema, columns))
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
        assert!(j.column(b).cell(0).is_null());
    }

    #[test]
    fn full_outer_join_preserves_all_tuples() {
        let j = hash_join(&left(), &right(), "id", JoinKind::FullOuter).unwrap();
        // 2 matches + 1 unmatched left + 1 unmatched right
        assert_eq!(j.num_rows(), 4);
        let ids = j.column(j.schema().position("id").unwrap());
        assert!(ids.values().any(|v| *v == Value::Int(4)));
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
    fn null_keys_do_not_join() {
        let mut l = left();
        l.set_value(0, 0, Value::Null).unwrap();
        let j = hash_join(&l, &right(), "id", JoinKind::Inner).unwrap();
        assert_eq!(j.num_rows(), 2);
    }
}
