//! The `Dataset` table type: a table conforming to a [`Schema`], stored as
//! one [`Column`] per attribute.
//!
//! Datasets are the artefacts manipulated by the MODis finite-state
//! transducer: operators augment them with new attributes/tuples or reduce
//! them by removing tuples matching a literal (§3). Columns are shared
//! between the tables that hold them (a clone copies no cell), and a table
//! that changes one copies that column first.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;

use crate::column::{Column, Pick};
use crate::error::DataError;
use crate::schema::{Attribute, Schema};
use crate::value::Value;

/// A structured table instance `D(A_1 … A_m)`.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Human-readable name (source table id).
    pub name: String,
    schema: Schema,
    /// One column per attribute, all of one length: the row count.
    columns: Vec<Arc<Column>>,
}

impl Dataset {
    /// Creates an empty dataset with the given schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let columns = (0..schema.len())
            .map(|_| Column::of(0, |_| &Value::Null))
            .collect();
        Dataset::from_columns(name, schema, columns)
    }

    /// Creates a dataset from a schema and row data.
    ///
    /// Rows shorter than the schema are padded with `Null`; longer rows are
    /// an error.
    pub fn from_rows(
        name: impl Into<String>,
        schema: Schema,
        rows: Vec<Vec<Value>>,
    ) -> Result<Self, DataError> {
        let width = schema.len();
        if let Some((row, r)) = rows.iter().enumerate().find(|(_, r)| r.len() > width) {
            let (expected, found) = (width, r.len());
            return Err(DataError::RowArity {
                row,
                expected,
                found,
            });
        }
        let columns = (0..width)
            .map(|c| Column::of(rows.len(), |r| rows[r].get(c).unwrap_or(&Value::Null)))
            .collect();
        Ok(Dataset::from_columns(name, schema, columns))
    }

    /// Creates a dataset from one column per schema attribute.
    ///
    /// # Panics
    /// When the column count is not the schema's width or the columns'
    /// lengths differ.
    pub fn from_columns(name: impl Into<String>, schema: Schema, columns: Vec<Column>) -> Self {
        assert_eq!(columns.len(), schema.len(), "one column per attribute");
        assert!(columns.windows(2).all(|w| w[0].len() == w[1].len()));
        Dataset {
            name: name.into(),
            schema,
            columns: columns.into_iter().map(Arc::new).collect(),
        }
    }

    /// Schema of the dataset.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples `|D|` (none without a column).
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Number of attributes.
    pub fn num_columns(&self) -> usize {
        self.schema.len()
    }

    /// Whether the dataset contains no tuples.
    pub fn is_empty(&self) -> bool {
        self.num_rows() == 0
    }

    /// The cells of attribute `col`.
    ///
    /// # Panics
    /// When `col` is out of range.
    pub fn column(&self, col: usize) -> &Column {
        &self.columns[col]
    }

    /// A row-major copy of every row.
    pub fn rows(&self) -> Vec<Vec<Value>> {
        (0..self.num_rows())
            .map(|r| {
                self.columns
                    .iter()
                    .map(|c| c.cell(r).into_owned())
                    .collect()
            })
            .collect()
    }

    /// Sets a single cell (the column is rebuilt around it).
    pub fn set_value(&mut self, row: usize, col: usize, v: Value) -> Result<(), DataError> {
        if row >= self.num_rows() {
            return Err(DataError::RowOutOfBounds { row, len: 0 });
        }
        let column = self
            .columns
            .get_mut(col)
            .ok_or(DataError::UnknownColumnIndex(col))?;
        let mut cells: Vec<Value> = column.values().map(Cow::into_owned).collect();
        cells[row] = v;
        *column = Arc::new(cells.into_iter().collect());
        Ok(())
    }

    /// Adds a new attribute column, filling existing rows with `Null`.
    ///
    /// Returns the column index of the (possibly pre-existing) attribute.
    pub fn add_column(&mut self, attr: Attribute) -> usize {
        let before = self.schema.len();
        let idx = self.schema.push(attr);
        if self.schema.len() > before {
            let nulls = Column::of(self.num_rows(), |_| &Value::Null);
            self.columns.push(Arc::new(nulls));
        }
        idx
    }

    /// Active domain `adom(A)` of a column: the set of distinct non-null
    /// values occurring in the dataset (§2).
    pub fn active_domain(&self, col: usize) -> BTreeSet<Value> {
        let column = &self.columns[col];
        column
            .non_null()
            .iter()
            .map(|r| column.cell(r).into_owned())
            .collect()
    }

    /// Fraction of cells that are missing.
    pub fn missing_ratio(&self) -> f64 {
        let total = self.num_rows() * self.num_columns();
        if total == 0 {
            return 0.0;
        }
        let missing: usize = (self.columns.iter())
            .map(|c| self.num_rows() - c.non_null().count())
            .sum();
        missing as f64 / total as f64
    }

    /// Projection onto a subset of columns (by name); unknown names are
    /// silently skipped. The columns are shared, not copied.
    pub fn project_by_names(&self, names: &[&str]) -> Dataset {
        let idx: Vec<usize> = names
            .iter()
            .filter_map(|n| self.schema.position(n))
            .collect();
        Dataset {
            name: format!("{}#proj", self.name),
            schema: self.schema.project(&idx),
            columns: idx.iter().map(|&i| Arc::clone(&self.columns[i])).collect(),
        }
    }

    /// The dataset named `name` holding `rows` of this one, in that order,
    /// with the columns `masked` marks reading `Null`.
    pub(crate) fn take(&self, name: String, rows: &[usize], masked: &[bool]) -> Dataset {
        let picks: Vec<Pick> = rows.iter().map(|&r| Some((0, r))).collect();
        let nulls: Vec<Pick> = vec![None; rows.len()];
        let columns = (self.columns.iter().zip(masked))
            .map(|(c, &m)| Column::gather(&[c], if m { &nulls } else { &picks }))
            .collect();
        Dataset::from_columns(name, self.schema.clone(), columns)
    }

    /// Selects rows matching a predicate into a new dataset.
    pub fn filter<F: Fn(&[Value]) -> bool>(&self, pred: F) -> Dataset {
        let rows: Vec<usize> = (0..self.num_rows())
            .zip(self.rows())
            .filter_map(|(r, row)| pred(&row).then_some(r))
            .collect();
        self.take(
            format!("{}#sel", self.name),
            &rows,
            &vec![false; self.num_columns()],
        )
    }

    /// Dataset size `(rows, columns)` as reported in the paper's tables,
    /// excluding all-null columns.
    pub fn reported_size(&self) -> (usize, usize) {
        let non_null_cols = (self.columns.iter())
            .filter(|c| c.non_null().count() > 0)
            .count();
        (self.num_rows(), non_null_cols)
    }

    /// Renames the dataset, builder style.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

/// Two datasets are equal when their names, schemas and cells are, however
/// the cells are stored.
impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.schema == other.schema && self.rows() == other.rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let schema = Schema::from_names(["a", "b"]);
        Dataset::from_rows(
            "toy",
            schema,
            vec![
                vec![Value::Int(1), Value::Float(2.0)],
                vec![Value::Int(2), Value::Null],
                vec![Value::Int(1), Value::Float(4.0)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_rows_pads_short_rows() {
        let schema = Schema::from_names(["a", "b", "c"]);
        let d = Dataset::from_rows("d", schema, vec![vec![Value::Int(1)]]).unwrap();
        assert!(d.column(2).cell(0).is_null());
    }

    #[test]
    fn from_rows_rejects_long_rows() {
        let schema = Schema::from_names(["a"]);
        let err = Dataset::from_rows("d", schema, vec![vec![Value::Int(1), Value::Int(2)]]);
        assert!(err.is_err());
    }

    #[test]
    fn active_domain_excludes_null() {
        let d = toy();
        assert_eq!(d.active_domain(0).len(), 2);
        assert_eq!(d.active_domain(1).len(), 2);
    }

    #[test]
    fn missing_ratio_counts_nulls() {
        let d = toy();
        assert!((d.missing_ratio() - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn add_column_backfills_null() {
        let mut d = toy();
        let idx = d.add_column(Attribute::feature("c"));
        assert_eq!(idx, 2);
        assert!(d.column(2).cell(0).is_null());
        assert_eq!(d.num_columns(), 3);
    }

    #[test]
    fn projection_and_filter() {
        let d = toy();
        let p = d.project_by_names(&["b"]);
        assert_eq!(p.num_columns(), 1);
        let f = d.filter(|r| r[0] == Value::Int(1));
        assert_eq!(f.num_rows(), 2);
    }

    #[test]
    fn drop_all_null_columns_removes_masked() {
        let mut d = toy();
        d.add_column(Attribute::feature("empty"));
        assert_eq!(d.reported_size(), (3, 2));
    }
}
