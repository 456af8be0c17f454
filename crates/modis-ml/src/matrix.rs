//! The design matrix every task model fits and predicts on.
//!
//! One row-major buffer:
//! [`encode_view_split`](crate::encoding::encode_view_split) fills the train
//! and the test matrix of a valuation in one allocation each, dealing every
//! row straight to its side of the split, and the linear models and every
//! `predict` read it a row slice at a time. The tree models transpose it once
//! per fit (`tree::Columns::from_matrix`). The type exists to make the matrix
//! rectangular by construction — every row has [`Matrix::n_cols`] cells, also
//! when that is zero — which a `Vec<Vec<f64>>` never promised.

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    /// Row `i` occupies `data[i * n_cols..(i + 1) * n_cols]`.
    data: Vec<f64>,
    n_rows: usize,
    n_cols: usize,
}

impl Matrix {
    /// An empty matrix of `n_cols` columns with room for `n_rows` rows.
    pub fn with_capacity(n_rows: usize, n_cols: usize) -> Matrix {
        Matrix {
            data: Vec::with_capacity(n_rows * n_cols),
            n_rows: 0,
            n_cols,
        }
    }

    /// The matrix whose rows lie one after another in `data`.
    ///
    /// # Panics
    /// When `data` does not hold `n_rows * n_cols` cells.
    pub fn from_vec(n_rows: usize, n_cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(
            data.len(),
            n_rows * n_cols,
            "a matrix holds n_rows * n_cols cells"
        );
        Matrix {
            data,
            n_rows,
            n_cols,
        }
    }

    /// Copies `rows` into one buffer; the column count is the first row's.
    ///
    /// # Panics
    /// When a row's length differs from the first row's.
    pub fn from_rows(rows: &[Vec<f64>]) -> Matrix {
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut matrix = Matrix::with_capacity(rows.len(), n_cols);
        for row in rows {
            matrix.push_row(row);
        }
        matrix
    }

    /// Appends one row.
    ///
    /// # Panics
    /// When `row` does not have [`Self::n_cols`] cells.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.n_cols, "a matrix row has n_cols cells");
        self.data.extend_from_slice(row);
        self.n_rows += 1;
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// The rows in order (each of `n_cols` cells, also when that is zero).
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        (0..self.n_rows).map(move |i| self.row(i))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_come_back_in_order() {
        let rows = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let m = Matrix::from_rows(&rows);
        assert_eq!((m.len(), m.n_cols()), (2, 3));
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.rows().map(<[f64]>::to_vec).collect::<Vec<_>>(), rows);
        let mut pushed = Matrix::with_capacity(2, 3);
        assert!(pushed.is_empty());
        for row in &rows {
            pushed.push_row(row);
        }
        assert_eq!(pushed, m);
        assert_eq!(Matrix::from_vec(2, 3, rows.concat()), m);
    }

    /// A state can lose every feature column and keep its rows: the row
    /// count is stored, not derived from the buffer.
    #[test]
    fn a_matrix_without_columns_still_counts_its_rows() {
        let m = Matrix::from_rows(&[vec![], vec![], vec![]]);
        assert_eq!((m.len(), m.n_cols()), (3, 0));
        assert!(!m.is_empty());
        assert_eq!(m.rows().len(), 3);
        assert!(m.rows().all(<[f64]>::is_empty));
        let none = Matrix::from_rows(&[]);
        assert_eq!((none.len(), none.n_cols()), (0, 0));
        assert!(none.is_empty());
        assert_eq!(Matrix::with_capacity(0, 4).n_cols(), 4);
        assert_eq!(Matrix::from_vec(3, 0, Vec::new()), m);
    }

    #[test]
    #[should_panic(expected = "a matrix row has n_cols cells")]
    fn a_ragged_row_is_refused() {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    #[should_panic(expected = "a matrix holds n_rows * n_cols cells")]
    fn a_buffer_of_another_size_is_refused() {
        Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }
}
