//! One attribute's cells, stored by what they hold.
//!
//! A [`Dataset`](crate::Dataset) is its columns. A column whose non-null
//! cells all share one [`Value`] variant keeps them in a typed vector —
//! floats, integers (as the `f64`s they read as, which convert back
//! exactly), dictionary-coded strings or `bool`s — and only a column mixing
//! variants (or holding an integer no `f64` keeps) keeps `Value`s. Whatever
//! it stores, a column answers what a valuation asks of its cells without a
//! match per cell:
//!
//! * [`Column::non_null`] and [`Column::numeric`] — the rows whose cell is
//!   not `Null`, and those whose cell reads as a finite number under
//!   [`Value::as_f64`] (`" 4.5 "` reads 4.5; `"inf"`, `"nan"` and
//!   `Float(NaN)` are non-null and not numeric), so "how many selected cells
//!   are non-null / numeric" is a popcount of two masks ANDed;
//! * [`Column::readings`] — one `f64` per row, finite exactly where the row
//!   is numeric and its reading there: a float or integer column lends its
//!   own vector, the others decode one;
//! * [`Column::dictionary`] — one code per row under `Value`'s `Ord`
//!   (`Int(3)` and `Float(3.0)` are one key, `Str("3")` is another): a
//!   string column lends its codes, the others number their keys.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::value::Value;
use crate::view::RowMask;

static NULL: Value = Value::Null;

/// A column's cells. A null row holds `NaN`, [`Dictionary::NULL`] or
/// `false` in a typed vector; [`Column::non_null`] tells it from a cell.
#[derive(Debug, Clone)]
pub(crate) enum Cells {
    Float(Vec<f64>),
    /// Each integer as the `f64` it reads as; `as i64` gives it back.
    Int(Vec<f64>),
    /// Codes into `keys`, the column's distinct strings (each a `Str`).
    Str {
        codes: Vec<u32>,
        keys: Vec<Value>,
    },
    Bool(Vec<bool>),
    /// Non-null cells of more than one variant.
    Mixed(Vec<Value>),
}

/// The cells of one attribute (see the module docs).
#[derive(Debug, Clone)]
pub struct Column {
    pub(crate) cells: Cells,
    non_null: RowMask,
    numeric: RowMask,
}

/// Where a gathered cell comes from: a source column and its row, or
/// nowhere (a null cell).
pub(crate) type Pick = Option<(usize, usize)>;

impl Column {
    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.non_null.len()
    }

    /// The cell at row `r`: borrowed where the column keeps `Value`s,
    /// built (without allocating) where it keeps numbers or booleans.
    #[inline]
    pub fn cell(&self, r: usize) -> Cow<'_, Value> {
        if !self.non_null.get(r) {
            return Cow::Borrowed(&NULL);
        }
        match &self.cells {
            Cells::Float(v) => Cow::Owned(Value::Float(v[r])),
            Cells::Int(v) => Cow::Owned(Value::Int(v[r] as i64)),
            Cells::Bool(v) => Cow::Owned(Value::Bool(v[r])),
            Cells::Str { codes, keys } => Cow::Borrowed(&keys[codes[r] as usize]),
            Cells::Mixed(v) => Cow::Borrowed(&v[r]),
        }
    }

    /// Every cell in row order.
    pub fn values(&self) -> impl Iterator<Item = Cow<'_, Value>> + '_ {
        (0..self.len()).map(|r| self.cell(r))
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

    /// Per row a number that is finite exactly where [`Self::numeric`] is
    /// set, and there is the cell's [`Value::as_f64`] reading; `NaN` at null
    /// rows. A float or integer column lends its cells (a `Float(inf)`
    /// reads `inf`).
    pub fn readings(&self) -> Cow<'_, [f64]> {
        if let Cells::Float(v) | Cells::Int(v) = &self.cells {
            return Cow::Borrowed(v);
        }
        let read = |r| self.cell(r).as_f64().filter(|_| self.numeric.get(r));
        (0..self.len())
            .map(|r| read(r).unwrap_or(f64::NAN))
            .collect()
    }

    /// One code per row under `Value`'s `Ord` (see [`Dictionary`]): a
    /// string column's own codes; the others number their keys here.
    pub fn dictionary(&self) -> Dictionary<'_> {
        if let Cells::Str { codes, keys } = &self.cells {
            let (codes, cardinality) = (Cow::Borrowed(codes.as_slice()), keys.len());
            return Dictionary { codes, cardinality };
        }
        let mut ids: BTreeMap<Cow<'_, Value>, u32> = BTreeMap::new();
        let codes = (0..self.len())
            .map(|r| match self.cell(r) {
                cell if cell.is_null() => Dictionary::NULL,
                cell => {
                    let next = code(ids.len());
                    *ids.entry(cell).or_insert(next)
                }
            })
            .collect();
        let cardinality = ids.len();
        let codes = Cow::Owned(codes);
        Dictionary { codes, cardinality }
    }

    /// The column of the `n` cells `cell(0..n)`, stored typed when every
    /// non-null one has one variant; the cells are read, and a string
    /// column clones one cell per distinct string.
    pub(crate) fn of<'a>(n: usize, cell: impl Fn(usize) -> &'a Value) -> Column {
        let non_null = RowMask::from_pred(n, |r| !cell(r).is_null());
        let first = non_null.iter().next().map(&cell);
        let one_variant = first.is_none_or(|first| {
            let kind = std::mem::discriminant(first);
            (0..n).all(|r| match cell(r) {
                Value::Null => true,
                Value::Int(i) => matches!(first, Value::Int(_)) && *i as f64 as i64 == *i,
                v => std::mem::discriminant(v) == kind,
            })
        });
        let finite = |v: &Value| v.as_f64().is_some_and(f64::is_finite);
        let numbers = || {
            (0..n)
                .map(|r| cell(r).as_f64().unwrap_or(f64::NAN))
                .collect()
        };
        let (cells, numeric) = match first {
            _ if !one_variant => {
                let cells = (0..n).map(|r| cell(r).clone()).collect();
                (
                    Cells::Mixed(cells),
                    RowMask::from_pred(n, |r| finite(cell(r))),
                )
            }
            Some(Value::Int(_)) => (Cells::Int(numbers()), non_null.clone()),
            Some(Value::Bool(_)) => {
                let v = (0..n).map(|r| matches!(cell(r), Value::Bool(true)));
                (Cells::Bool(v.collect()), non_null.clone())
            }
            Some(Value::Str(_)) => {
                // Codes in order of first appearance; one clone per key.
                let mut ids: BTreeMap<&str, u32> = BTreeMap::new();
                let mut keys = Vec::new();
                let codes: Vec<u32> = (0..n)
                    .map(|r| match cell(r).as_str() {
                        None => Dictionary::NULL,
                        Some(s) => *ids.entry(s).or_insert_with(|| {
                            keys.push(cell(r).clone());
                            code(keys.len() - 1)
                        }),
                    })
                    .collect();
                let parses: Vec<bool> = keys.iter().map(finite).collect();
                let numeric = RowMask::from_pred(n, |r| {
                    codes[r] != Dictionary::NULL && parses[codes[r] as usize]
                });
                (Cells::Str { codes, keys }, numeric)
            }
            // Floats, or nothing but nulls.
            _ => {
                let v = numbers();
                let numeric = RowMask::from_pred(n, |r| v[r].is_finite());
                (Cells::Float(v), numeric)
            }
        };
        Column {
            cells,
            non_null,
            numeric,
        }
    }

    /// The column whose row `k` is `picks[k]`'s cell. When every source
    /// stores numbers (or booleans) of one kind they are copied typed;
    /// otherwise the cells are collected as `Value`s and stored anew.
    pub(crate) fn gather(sources: &[&Column], picks: &[Pick]) -> Column {
        let n = picks.len();
        macro_rules! typed {
            ($variant:ident, $null:expr) => {
                sources
                    .iter()
                    .map(|c| match &c.cells {
                        Cells::$variant(v) => Some(v.as_slice()),
                        _ => None,
                    })
                    .collect::<Option<Vec<_>>>()
                    .map(|vs| {
                        Cells::$variant(
                            (picks.iter())
                                .map(|p| p.map_or($null, |(s, r)| vs[s][r]))
                                .collect(),
                        )
                    })
            };
        }
        // Strings (and sources of several kinds) gather as `Value`s.
        let cells = typed!(Float, f64::NAN)
            .or_else(|| typed!(Int, f64::NAN))
            .or_else(|| typed!(Bool, false));
        match cells {
            Some(cells) => Column {
                cells,
                non_null: RowMask::from_pred(n, |k| {
                    picks[k].is_some_and(|(s, r)| sources[s].non_null.get(r))
                }),
                numeric: RowMask::from_pred(n, |k| {
                    picks[k].is_some_and(|(s, r)| sources[s].numeric.get(r))
                }),
            },
            None => (picks.iter())
                .map(|p| p.map_or(Value::Null, |(s, r)| sources[s].cell(r).into_owned()))
                .collect(),
        }
    }
}

impl FromIterator<Value> for Column {
    /// Stores the cells typed when every non-null one has one variant.
    fn from_iter<I: IntoIterator<Item = Value>>(cells: I) -> Self {
        let cells: Vec<Value> = cells.into_iter().collect();
        Column::of(cells.len(), |r| &cells[r])
    }
}

/// Dictionary codes of one column: rows whose cells compare `Equal` under
/// [`Value`]'s `Ord` share a code in `0..cardinality`, null rows carry
/// [`Dictionary::NULL`]. Which key gets which code is unspecified.
#[derive(Debug, Clone)]
pub struct Dictionary<'a> {
    codes: Cow<'a, [u32]>,
    cardinality: usize,
}

impl Dictionary<'_> {
    /// The code of a null cell.
    pub const NULL: u32 = u32::MAX;

    /// One code per row.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// An upper bound on the number of distinct keys, above every code.
    pub fn cardinality(&self) -> usize {
        self.cardinality
    }
}

fn code(index: usize) -> u32 {
    u32::try_from(index).expect("fewer than 2^32 distinct values")
}

/// An integer key ordering numbers as `Value`'s `Ord` orders `Int` and
/// `Float` cells: by the `f64` reading, `-0.0` tied with `0.0`, every NaN
/// tied and last.
pub(crate) fn order_key(x: f64) -> u64 {
    if x.is_nan() {
        return u64::MAX;
    }
    // `+ 0.0` turns `-0.0` into `0.0` and leaves every other number as is.
    let bits = (x + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Value::{Bool as B, Float as F, Int as I, Null as N};

    fn s(t: &str) -> Value {
        Value::Str(t.into())
    }

    fn mixed() -> Vec<Value> {
        vec![
            I(3),
            F(3.0),
            s("3"),
            s(" 4.5 "),
            s("inf"),
            F(f64::NAN),
            N,
            B(true),
        ]
    }

    /// Columns of every storage: mixed, strings, floats (the non-finite
    /// ones too), integers (2^53 + 1 has no `f64`: that column is mixed),
    /// booleans and nothing but nulls.
    fn columns() -> Vec<Vec<Value>> {
        vec![
            mixed(),
            vec![s("red"), N, s("blue"), s("red"), s(" 2 "), s("nan")],
            vec![F(1.5), N, F(f64::INFINITY), F(-0.0), F(f64::NAN), F(0.0)],
            vec![I(1 << 53), N, I(i64::MIN), I(-4)],
            vec![I(1 << 53), N, I((1 << 53) + 1), I(-4)],
            vec![B(true), N, B(false), B(true)],
            vec![N; 3],
        ]
    }

    #[test]
    fn readings_and_masks_follow_as_f64() {
        for cells in columns() {
            let column: Column = cells.iter().cloned().collect();
            let readings = column.readings();
            for (r, v) in cells.iter().enumerate() {
                let expected = v.as_f64().filter(|x| x.is_finite());
                match expected {
                    Some(x) => assert_eq!(readings[r].to_bits(), x.to_bits(), "{v:?}"),
                    None => assert!(!readings[r].is_finite(), "{v:?}"),
                }
                assert_eq!(column.numeric().get(r), expected.is_some(), "{v:?}");
                assert_eq!(column.non_null().get(r), !v.is_null(), "{v:?}");
            }
        }
        let a: Column = mixed().into_iter().collect();
        let numeric: Vec<usize> = a.numeric().iter().collect();
        assert_eq!(numeric, [0, 1, 2, 3, 7], "\"inf\" and NaN are not numeric");
        assert_eq!(a.readings()[3], 4.5, "padded strings parse");
    }

    #[test]
    fn dictionary_groups_cells_by_value_ord() {
        for cells in columns() {
            let column: Column = cells.iter().cloned().collect();
            let dictionary = column.dictionary();
            let codes = dictionary.codes();
            for (r, a) in cells.iter().enumerate() {
                assert_eq!(codes[r] == Dictionary::NULL, a.is_null(), "{a:?}");
                assert!(a.is_null() || (codes[r] as usize) < dictionary.cardinality());
                for (q, b) in cells.iter().enumerate().filter(|_| !a.is_null()) {
                    let same = !b.is_null() && a.cmp(b).is_eq();
                    assert_eq!(codes[r] == codes[q], same, "{a:?}, {b:?}");
                }
            }
        }
        let a: Column = mixed().into_iter().collect();
        assert_eq!(a.dictionary().cardinality(), 6);
    }

    /// Every storage gives its cells back, alone and gathered from two
    /// copies (each row picked once from each, then one null row).
    #[test]
    fn cells_round_trip_through_every_storage() {
        let text = |cells: &mut dyn Iterator<Item = Cow<'_, Value>>| {
            format!("{:?}", cells.map(Cow::into_owned).collect::<Vec<_>>())
        };
        for cells in columns() {
            let column: Column = cells.iter().cloned().collect();
            assert_eq!(text(&mut column.values()), format!("{cells:?}"));
            let n = cells.len();
            let picks: Vec<Pick> = ((0..n).map(|r| Some((0, r))))
                .chain((0..n).rev().map(|r| Some((1, r))))
                .chain([None])
                .collect();
            let gathered = Column::gather(&[&column, &column], &picks);
            let want = cells.iter().chain(cells.iter().rev()).chain([&N]);
            assert_eq!(
                text(&mut gathered.values()),
                text(&mut want.map(Cow::Borrowed))
            );
            assert_eq!(gathered.numeric().count(), 2 * column.numeric().count());
        }
        let (a, b): (Column, Column) =
            ([I(1)].into_iter().collect(), [s("x")].into_iter().collect());
        let got = Column::gather(&[&a, &b], &[Some((1, 0)), Some((0, 0))]);
        assert_eq!(text(&mut got.values()), format!("{:?}", [s("x"), I(1)]));
    }
}
