//! A typed, read-only projection of a table, decoded once per column.
//!
//! Every MODis state is a reduction of one immutable universal table, so
//! what a valuation needs to know about a cell — is it null, does it read
//! as a finite number, which value class does it belong to — is a property
//! of the pool, not of the state. A [`TableProjection`] holds exactly that,
//! column-major, decoded **lazily per column on first use**:
//!
//! * `readings[r]` — the cell's finite [`Value::as_f64`] reading (`NaN`
//!   where it has none: nulls, unparsable strings, `"inf"`, `Float(NaN)`);
//! * a `non_null` and a `numeric` [`RowMask`], so "how many selected cells
//!   of this column are non-null / numeric" is a popcount of two words
//!   ANDed, not a scan of enum cells;
//! * a [`Dictionary`] — one code per cell under [`Value`]'s own `Ord` —
//!   built only the first time some state needs the column's categorical
//!   reading (a float column has one key per row, and never needs it).
//!
//! That is ≈ 12 bytes per decoded cell (8 reading + 4 code + 2 mask bits).
//! What depends on the *selection* — whether a column reads numeric or
//! categorical, its imputation mean, its first-appearance category ids — is
//! decided per state by the consumer (`modis_ml::encoding::encode_view`)
//! from these arrays.
//!
//! The projection does not hold the table: whoever owns an **immutable**
//! table owns its projection beside it (`TableSubstrate`; a transient one
//! lives for one `encode`) and passes the table to every accessor. There is
//! no invalidation rule because there is nothing to invalidate — it must
//! not be hung off a mutable [`Dataset`].

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::dataset::Dataset;
use crate::value::Value;
use crate::view::RowMask;

/// Dictionary codes of one column: cells that compare `Equal` under
/// [`Value`]'s `Ord` share a code (`Int(3)` and `Float(3.0)` are one key,
/// `Str("3")` is another), nulls carry [`Dictionary::NULL`].
#[derive(Debug, Clone)]
pub struct Dictionary {
    codes: Vec<u32>,
    cardinality: usize,
}

impl Dictionary {
    /// The code of a null cell.
    pub const NULL: u32 = u32::MAX;

    fn build(base: &Dataset, col: usize) -> Self {
        let mut ids: BTreeMap<&Value, u32> = BTreeMap::new();
        let codes = base
            .rows()
            .iter()
            .map(|row| match &row[col] {
                Value::Null => Dictionary::NULL,
                v => {
                    let next = u32::try_from(ids.len()).expect("fewer than 2^32 distinct values");
                    *ids.entry(v).or_insert(next)
                }
            })
            .collect();
        Dictionary {
            codes,
            cardinality: ids.len(),
        }
    }

    /// One code per base row: `0..cardinality`, or [`Dictionary::NULL`].
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Number of distinct non-null keys in the column.
    pub fn cardinality(&self) -> usize {
        self.cardinality
    }
}

/// The decoded form of one column (see the module docs).
#[derive(Debug, Clone)]
pub struct ColumnProjection {
    readings: Vec<f64>,
    non_null: RowMask,
    numeric: RowMask,
    dictionary: OnceLock<Dictionary>,
}

impl ColumnProjection {
    fn decode(base: &Dataset, col: usize) -> Self {
        let nrows = base.num_rows();
        let mut non_null = RowMask::none(nrows);
        let mut numeric = RowMask::none(nrows);
        let readings = base
            .rows()
            .iter()
            .enumerate()
            .map(|(r, row)| {
                let v = &row[col];
                if !v.is_null() {
                    non_null.set(r, true);
                }
                match v.as_f64().filter(|x| x.is_finite()) {
                    Some(x) => {
                        numeric.set(r, true);
                        x
                    }
                    None => f64::NAN,
                }
            })
            .collect();
        ColumnProjection {
            readings,
            non_null,
            numeric,
            dictionary: OnceLock::new(),
        }
    }

    /// Per base row the finite numeric reading of the cell; `NaN` exactly
    /// where [`Self::numeric`] is clear.
    pub fn readings(&self) -> &[f64] {
        &self.readings
    }

    /// Rows whose cell is not `Null`.
    pub fn non_null(&self) -> &RowMask {
        &self.non_null
    }

    /// Rows whose cell reads as a finite number (a subset of
    /// [`Self::non_null`]).
    pub fn numeric(&self) -> &RowMask {
        &self.numeric
    }
}

/// The lazily decoded, column-major projection of one immutable table.
#[derive(Debug, Clone)]
pub struct TableProjection {
    num_rows: usize,
    columns: Vec<OnceLock<ColumnProjection>>,
}

impl TableProjection {
    /// An empty projection of `base`: nothing is decoded until a column is
    /// first asked for.
    pub fn new(base: &Dataset) -> Self {
        TableProjection {
            num_rows: base.num_rows(),
            columns: (0..base.num_columns()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Column `col` of `base`, decoded on first use. `base` must be the
    /// table the projection was created for.
    ///
    /// # Panics
    /// When `col` is out of range or `base` has another row count.
    pub fn column(&self, base: &Dataset, col: usize) -> &ColumnProjection {
        self.columns[col].get_or_init(|| {
            assert_eq!(
                base.num_rows(),
                self.num_rows,
                "projection used with a table it was not created for"
            );
            ColumnProjection::decode(base, col)
        })
    }

    /// Dictionary codes of column `col`, built on first use (after the
    /// column itself).
    pub fn dictionary(&self, base: &Dataset, col: usize) -> &Dictionary {
        self.column(base, col)
            .dictionary
            .get_or_init(|| Dictionary::build(base, col))
    }

    /// Whether column `col` has been decoded yet.
    pub fn is_decoded(&self, col: usize) -> bool {
        self.columns.get(col).is_some_and(|c| c.get().is_some())
    }

    /// Whether column `col`'s dictionary has been built yet.
    pub fn has_dictionary(&self, col: usize) -> bool {
        self.columns
            .get(col)
            .and_then(OnceLock::get)
            .is_some_and(|c| c.dictionary.get().is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn mixed() -> Dataset {
        let s = |t: &str| Value::Str(t.into());
        Dataset::from_rows(
            "mixed",
            Schema::from_names(["a", "b"]),
            vec![
                vec![Value::Int(3), s("red")],
                vec![Value::Float(3.0), Value::Null],
                vec![s("3"), s("blue")],
                vec![s(" 4.5 "), s("red")],
                vec![s("inf"), Value::Bool(true)],
                vec![Value::Float(f64::NAN), Value::Int(1)],
                vec![Value::Null, Value::Float(-0.0)],
                vec![Value::Bool(true), Value::Int(0)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn readings_and_masks_follow_as_f64() {
        let d = mixed();
        let p = TableProjection::new(&d);
        let a = p.column(&d, 0);
        assert_eq!(a.non_null().count(), 7);
        assert_eq!(
            a.numeric().iter().collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 7],
            "\"inf\" and NaN are non-null and not numeric"
        );
        for (r, row) in d.rows().iter().enumerate() {
            let expected = row[0].as_f64().filter(|x| x.is_finite());
            match expected {
                Some(x) => assert_eq!(a.readings()[r].to_bits(), x.to_bits(), "row {r}"),
                None => assert!(a.readings()[r].is_nan(), "row {r}"),
            }
            assert_eq!(a.numeric().get(r), expected.is_some());
            assert_eq!(a.non_null().get(r), !row[0].is_null());
        }
        assert_eq!(a.readings()[3], 4.5, "padded strings parse");
    }

    #[test]
    fn dictionary_groups_cells_by_value_ord() {
        let d = mixed();
        let p = TableProjection::new(&d);
        let codes = p.dictionary(&d, 0).codes().to_vec();
        assert_eq!(codes[0], codes[1], "Int(3) and Float(3.0) are one key");
        assert_ne!(codes[0], codes[2], "Str(\"3\") is another");
        assert_eq!(codes[6], Dictionary::NULL);
        assert_eq!(p.dictionary(&d, 0).cardinality(), 6);
        let b = p.dictionary(&d, 1);
        assert_eq!(b.codes()[0], b.codes()[3]);
        assert_eq!(b.codes()[6], b.codes()[7], "-0.0 and Int(0) are one key");
        for (r, row) in d.rows().iter().enumerate() {
            for (q, other) in d.rows().iter().enumerate() {
                if !row[1].is_null() && !other[1].is_null() {
                    assert_eq!(
                        b.codes()[r] == b.codes()[q],
                        row[1].cmp(&other[1]) == std::cmp::Ordering::Equal,
                        "rows {r}, {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn decode_is_lazy_per_column_and_per_reading() {
        let d = mixed();
        let p = TableProjection::new(&d);
        assert!(!p.is_decoded(0) && !p.is_decoded(1));
        let first = p.column(&d, 1) as *const ColumnProjection;
        assert!(p.is_decoded(1) && !p.is_decoded(0));
        assert!(!p.has_dictionary(1));
        p.dictionary(&d, 1);
        assert!(p.has_dictionary(1));
        assert!(std::ptr::eq(first, p.column(&d, 1)), "decoded once");
    }

    #[test]
    #[should_panic(expected = "not created for")]
    fn a_projection_refuses_another_table() {
        let d = mixed();
        let p = TableProjection::new(&d);
        let other = Dataset::new("other", Schema::from_names(["a", "b"]));
        p.column(&other, 0);
    }
}
