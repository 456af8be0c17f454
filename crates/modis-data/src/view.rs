//! Zero-copy dataset views: packed row-selection masks plus attribute masks
//! over a borrowed universal table.
//!
//! The MODis hot path valuates thousands of states, and every state denotes
//! a dataset that is a *selection* of the universal table's rows plus a
//! *masking* of some attributes. Cloning the universal table per state (the
//! seed's `materialize`) made each valuation O(|D_U|) in allocations; a
//! [`DatasetView`] instead carries a [`RowMask`] (one bit per universal row)
//! and a masked-column set, and reads cell values straight out of the
//! borrowed table — masked attributes read as `Null`, deselected rows are
//! skipped by the iterators. Materialising a state becomes a handful of
//! word-wise AND-NOTs over precomputed per-unit masks.
//!
//! The null statistics a valuation asks of a view —
//! [`DatasetView::col_is_all_null`], [`DatasetView::reported_size`] and
//! [`DatasetView::missing_ratio`] — are popcounts of the selection ANDed
//! with a column's null mask, and `modis_ml::encoding::encode_view` gathers
//! the state's matrix from the base table's columns.

use crate::bitmap::StateBitmap;
use crate::dataset::Dataset;
use crate::schema::Schema;

/// A packed selection vector over the rows of a table.
///
/// A thin newtype over [`StateBitmap`] — one packed-`u64` implementation
/// (tail-masking invariant, word-wise ops, set-bit iteration) serves both
/// the unit-space state encoding and the row-space selection vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMask {
    bits: StateBitmap,
}

impl RowMask {
    /// Mask selecting every one of `nrows` rows.
    pub fn all(nrows: usize) -> Self {
        RowMask {
            bits: StateBitmap::full(nrows),
        }
    }

    /// Mask selecting no rows.
    pub fn none(nrows: usize) -> Self {
        RowMask {
            bits: StateBitmap::empty(nrows),
        }
    }

    /// Mask selecting the rows for which `pred` holds.
    pub fn from_pred<F: FnMut(usize) -> bool>(nrows: usize, mut pred: F) -> Self {
        let mut words = vec![0u64; nrows.div_ceil(64)];
        for r in 0..nrows {
            words[r / 64] |= u64::from(pred(r)) << (r % 64);
        }
        RowMask {
            bits: StateBitmap::from_words(words, nrows).expect("no bit is set past `nrows`"),
        }
    }

    /// Number of rows the mask ranges over.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the mask ranges over zero rows.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Whether row `r` is selected (`false` out of bounds).
    #[inline]
    pub fn get(&self, r: usize) -> bool {
        self.bits.get(r)
    }

    /// Selects or deselects row `r` (no-op out of bounds).
    pub fn set(&mut self, r: usize, v: bool) {
        self.bits.set(r, v);
    }

    /// Number of selected rows (word-wise popcount).
    #[inline]
    pub fn count(&self) -> usize {
        self.bits.count_ones()
    }

    /// Number of rows selected by both masks (popcount of the word-wise
    /// AND; nothing is allocated).
    #[inline]
    pub fn count_and(&self, other: &RowMask) -> usize {
        debug_assert_eq!(self.len(), other.len());
        self.bits.intersection_count(&other.bits)
    }

    /// Word-wise `self &= !other`: removes `other`'s rows from the
    /// selection. This is the reduct `⊖_c`: `other` holds the rows matching
    /// the literal, and subtracting it keeps exactly the non-matching rows.
    pub fn subtract(&mut self, other: &RowMask) {
        debug_assert_eq!(self.len(), other.len());
        self.bits.and_not_with(&other.bits);
    }

    /// Iterates the selected row indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter_ones()
    }

    /// The packed selection words (row `r` at word `r / 64`, bit `r % 64`).
    pub fn words(&self) -> &[u64] {
        self.bits.words()
    }
}

/// A zero-copy dataset: a borrowed base table, a row selection and a set of
/// masked (all-null reading) attributes.
#[derive(Debug, Clone)]
pub struct DatasetView<'a> {
    base: &'a Dataset,
    mask: RowMask,
    masked_cols: Vec<bool>,
}

impl<'a> DatasetView<'a> {
    /// A view selecting `mask`'s rows of `base`, with `masked_cols[c]`
    /// columns reading as `Null`.
    ///
    /// `mask` must range over exactly `base.num_rows()` rows and
    /// `masked_cols` must have one entry per column.
    pub fn new(base: &'a Dataset, mask: RowMask, masked_cols: Vec<bool>) -> Self {
        debug_assert_eq!(mask.len(), base.num_rows());
        debug_assert_eq!(masked_cols.len(), base.num_columns());
        DatasetView {
            base,
            mask,
            masked_cols,
        }
    }

    /// The identity view: every row selected, no column masked.
    pub fn full(base: &'a Dataset) -> Self {
        DatasetView::new(
            base,
            RowMask::all(base.num_rows()),
            vec![false; base.num_columns()],
        )
    }

    /// The borrowed base table.
    pub fn base(&self) -> &'a Dataset {
        self.base
    }

    /// The row-selection mask.
    pub fn mask(&self) -> &RowMask {
        &self.mask
    }

    /// Schema of the base table (shared by the view).
    pub fn schema(&self) -> &'a Schema {
        self.base.schema()
    }

    /// Number of selected rows.
    pub fn num_rows(&self) -> usize {
        self.mask.count()
    }

    /// Number of columns (masked ones included, as in the masking reduct
    /// `adom_s(A) = ∅`, which keeps the schema width).
    pub fn num_columns(&self) -> usize {
        self.base.num_columns()
    }

    /// Whether column `c` is masked (reads as `Null`).
    #[inline]
    pub fn is_col_masked(&self, c: usize) -> bool {
        self.masked_cols.get(c).copied().unwrap_or(false)
    }

    /// Iterates the base-table indices of the selected rows in order.
    pub fn row_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.mask.iter()
    }

    /// Number of selected rows whose cell in the (unmasked) column `c` is
    /// not null: a popcount against the column's null mask.
    fn non_null_count(&self, c: usize) -> usize {
        self.mask.count_and(self.base.column(c).non_null())
    }

    /// Whether column `c` reads entirely null over the selected rows
    /// (masked columns trivially do, as does a column the table lacks).
    pub fn col_is_all_null(&self, c: usize) -> bool {
        c >= self.num_columns() || self.is_col_masked(c) || self.non_null_count(c) == 0
    }

    /// Dataset size `(rows, columns)` as reported in the paper's tables,
    /// excluding all-null columns — byte-identical to materialising the view
    /// and calling [`Dataset::reported_size`].
    pub fn reported_size(&self) -> (usize, usize) {
        let cols = (0..self.num_columns())
            .filter(|&c| !self.col_is_all_null(c))
            .count();
        (self.num_rows(), cols)
    }

    /// Fraction of cells (over selected rows × all columns) that read as
    /// missing; masked cells count as missing.
    pub fn missing_ratio(&self) -> f64 {
        let rows = self.num_rows();
        let total = rows * self.num_columns();
        if total == 0 {
            return 0.0;
        }
        let missing: usize = (0..self.num_columns())
            .map(|c| {
                if self.masked_cols[c] {
                    rows
                } else {
                    rows - self.non_null_count(c)
                }
            })
            .sum();
        missing as f64 / total as f64
    }

    /// Copies the view into an owned [`Dataset`]: selected rows in base
    /// order, masked columns written as `Null`. This is the compatibility
    /// path for consumers that still need an owned table; the result equals
    /// the clone-and-filter materialisation of the same state.
    pub fn to_dataset(&self) -> Dataset {
        let rows: Vec<usize> = self.row_indices().collect();
        let name = format!("{}#view", self.base.name);
        self.base.take(name, &rows, &self.masked_cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Schema};
    use crate::value::Value;

    fn toy() -> Dataset {
        Dataset::from_rows(
            "toy",
            Schema::from_attributes(vec![
                Attribute::key("id"),
                Attribute::feature("x"),
                Attribute::feature("y"),
            ]),
            (0..10)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::Float(i as f64),
                        if i % 3 == 0 {
                            Value::Null
                        } else {
                            Value::Float(1.0)
                        },
                    ]
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn row_mask_all_none_and_count() {
        let all = RowMask::all(70);
        assert_eq!(all.count(), 70);
        assert!(all.get(69) && !all.get(70));
        let none = RowMask::none(70);
        assert_eq!(none.count(), 0);
    }

    #[test]
    fn row_mask_set_ops_match_per_bit_semantics() {
        let even = RowMask::from_pred(10, |r| r % 2 == 0);
        let small = RowMask::from_pred(10, |r| r < 5);
        let mut b = even.clone();
        b.subtract(&small);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![6, 8]);
    }

    #[test]
    fn full_view_matches_base() {
        let d = toy();
        let v = DatasetView::full(&d);
        assert_eq!(v.num_rows(), d.num_rows());
        assert_eq!(v.reported_size(), d.reported_size());
        assert!((v.missing_ratio() - d.missing_ratio()).abs() < 1e-12);
        assert_eq!(v.to_dataset().rows(), d.rows());
    }

    #[test]
    fn masked_column_reads_null_and_drops_from_reported_size() {
        let d = toy();
        let v = DatasetView::new(&d, RowMask::all(10), vec![false, true, false]);
        assert_eq!(v.reported_size().1, d.reported_size().1 - 1);
        let owned = v.to_dataset();
        assert!(owned.rows().iter().all(|r| r[1].is_null()));
        assert_eq!(*owned.column(0).cell(0), Value::Int(0));
    }

    #[test]
    fn row_selection_skips_rows_in_order() {
        let d = toy();
        let mask = RowMask::from_pred(10, |r| r % 2 == 1);
        let v = DatasetView::new(&d, mask, vec![false; 3]);
        assert_eq!(v.num_rows(), 5);
        assert_eq!(v.row_indices().collect::<Vec<_>>(), vec![1, 3, 5, 7, 9]);
        let owned = v.to_dataset();
        assert_eq!(owned.num_rows(), 5);
        assert_eq!(*owned.column(0).cell(0), Value::Int(1));
    }

    /// The popcount answers equal a scan of the selected cells, and the
    /// owned copy's own answers.
    #[test]
    fn projection_answers_equal_the_cell_scan() {
        let d = toy();
        let rows = d.rows();
        let masks = [
            RowMask::all(10),
            RowMask::none(10),
            RowMask::from_pred(10, |r| r % 3 == 0),
            RowMask::from_pred(10, |r| r % 3 != 0),
            RowMask::from_pred(10, |r| r == 4),
        ];
        for mask in masks {
            for masked_cols in [vec![false; 3], vec![false, true, false], vec![true; 3]] {
                let view = DatasetView::new(&d, mask.clone(), masked_cols.clone());
                let null = |r: usize, c: usize| masked_cols[c] || rows[r][c].is_null();
                let all_null = |c: usize| view.row_indices().all(|r| null(r, c));
                let cols = (0..3).filter(|&c| !all_null(c)).count();
                assert_eq!(view.reported_size(), (mask.count(), cols));
                for c in 0..4 {
                    assert_eq!(view.col_is_all_null(c), c == 3 || all_null(c), "col {c}");
                }
                let missing = (view.row_indices())
                    .map(|r| (0..3).filter(|&c| null(r, c)).count())
                    .sum::<usize>();
                if mask.count() > 0 {
                    let want = missing as f64 / (mask.count() * 3) as f64;
                    assert_eq!(view.missing_ratio().to_bits(), want.to_bits());
                }
                let owned = view.to_dataset();
                assert_eq!(view.reported_size(), owned.reported_size());
                assert_eq!(
                    view.missing_ratio().to_bits(),
                    owned.missing_ratio().to_bits()
                );
            }
        }
    }

    #[test]
    fn empty_view_is_safe() {
        let d = toy();
        let v = DatasetView::new(&d, RowMask::none(10), vec![false; 3]);
        assert_eq!(v.num_rows(), 0);
        assert_eq!(v.reported_size(), (0, 0));
        assert_eq!(v.missing_ratio(), 0.0);
        assert_eq!(v.to_dataset().num_rows(), 0);
    }
}
