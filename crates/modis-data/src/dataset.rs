//! The `Dataset` table type: a row-oriented table conforming to a [`Schema`].
//!
//! Datasets are the artefacts manipulated by the MODis finite-state
//! transducer: operators augment them with new attributes/tuples or reduce
//! them by removing tuples matching a literal (§3).

use std::collections::BTreeSet;
use std::fmt;

use crate::error::DataError;
use crate::schema::{Attribute, Schema};
use crate::value::Value;

/// A structured table instance `D(A_1 … A_m)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    /// Human-readable name (source table id).
    pub name: String,
    schema: Schema,
    rows: Vec<Vec<Value>>,
}

impl Dataset {
    /// Creates an empty dataset with the given schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Dataset {
            name: name.into(),
            schema,
            rows: Vec::new(),
        }
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
        let mut fixed = Vec::with_capacity(rows.len());
        for (i, mut r) in rows.into_iter().enumerate() {
            if r.len() > width {
                return Err(DataError::RowArity {
                    row: i,
                    expected: width,
                    found: r.len(),
                });
            }
            r.resize(width, Value::Null);
            fixed.push(r);
        }
        Ok(Dataset {
            name: name.into(),
            schema,
            rows: fixed,
        })
    }

    /// Schema of the dataset.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples `|D|`.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of attributes.
    pub fn num_columns(&self) -> usize {
        self.schema.len()
    }

    /// Whether the dataset contains no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Borrow all rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Borrow a single row.
    pub fn row(&self, i: usize) -> Option<&[Value]> {
        self.rows.get(i).map(|r| r.as_slice())
    }

    /// Value at `(row, column)`.
    pub fn value(&self, row: usize, col: usize) -> &Value {
        self.rows
            .get(row)
            .and_then(|r| r.get(col))
            .unwrap_or(&Value::Null)
    }

    /// Appends a tuple, padding/truncating to the schema width.
    pub fn push_row(&mut self, mut row: Vec<Value>) {
        row.resize(self.schema.len(), Value::Null);
        self.rows.push(row);
    }

    /// Sets a single cell.
    pub fn set_value(&mut self, row: usize, col: usize, v: Value) -> Result<(), DataError> {
        let width = self.schema.len();
        let r = self
            .rows
            .get_mut(row)
            .ok_or(DataError::RowOutOfBounds { row, len: 0 })?;
        if col >= width {
            return Err(DataError::UnknownColumnIndex(col));
        }
        r[col] = v;
        Ok(())
    }

    /// Adds a new attribute column, filling existing rows with `Null`.
    ///
    /// Returns the column index of the (possibly pre-existing) attribute.
    pub fn add_column(&mut self, attr: Attribute) -> usize {
        let before = self.schema.len();
        let idx = self.schema.push(attr);
        if self.schema.len() > before {
            for r in &mut self.rows {
                r.push(Value::Null);
            }
        }
        idx
    }

    /// The column as a vector of values.
    pub fn column(&self, col: usize) -> Vec<Value> {
        self.rows
            .iter()
            .map(|r| r.get(col).cloned().unwrap_or(Value::Null))
            .collect()
    }

    /// The column by attribute name.
    pub fn column_by_name(&self, name: &str) -> Option<Vec<Value>> {
        self.schema.position(name).map(|c| self.column(c))
    }

    /// Numeric view of a column; non-numeric / missing cells become `None`.
    pub fn numeric_column(&self, col: usize) -> Vec<Option<f64>> {
        self.rows
            .iter()
            .map(|r| r.get(col).and_then(|v| v.as_f64()))
            .collect()
    }

    /// Active domain `adom(A)` of a column: the set of distinct non-null
    /// values occurring in the dataset (§2).
    pub fn active_domain(&self, col: usize) -> BTreeSet<Value> {
        self.rows
            .iter()
            .filter_map(|r| r.get(col))
            .filter(|v| !v.is_null())
            .cloned()
            .collect()
    }

    /// Fraction of cells that are missing.
    pub fn missing_ratio(&self) -> f64 {
        let total = self.num_rows() * self.num_columns();
        if total == 0 {
            return 0.0;
        }
        let missing: usize = self
            .rows
            .iter()
            .map(|r| r.iter().filter(|v| v.is_null()).count())
            .sum();
        missing as f64 / total as f64
    }

    /// Projection onto a subset of columns (by index).
    pub fn project(&self, indices: &[usize]) -> Dataset {
        let schema = self.schema.project(indices);
        let rows = self
            .rows
            .iter()
            .map(|r| {
                indices
                    .iter()
                    .map(|&i| r.get(i).cloned().unwrap_or(Value::Null))
                    .collect()
            })
            .collect();
        Dataset {
            name: format!("{}#proj", self.name),
            schema,
            rows,
        }
    }

    /// Projection onto a subset of columns (by name); unknown names are
    /// silently skipped.
    pub fn project_by_names(&self, names: &[&str]) -> Dataset {
        let idx: Vec<usize> = names
            .iter()
            .filter_map(|n| self.schema.position(n))
            .collect();
        self.project(&idx)
    }

    /// Selects rows matching a predicate into a new dataset.
    pub fn filter<F: Fn(&[Value]) -> bool>(&self, pred: F) -> Dataset {
        let rows = self.rows.iter().filter(|r| pred(r)).cloned().collect();
        Dataset {
            name: format!("{}#sel", self.name),
            schema: self.schema.clone(),
            rows,
        }
    }

    /// Removes rows matching a predicate in place; returns removed count.
    pub fn retain<F: Fn(&[Value]) -> bool>(&mut self, keep: F) -> usize {
        let before = self.rows.len();
        self.rows.retain(|r| keep(r));
        before - self.rows.len()
    }

    /// Drops all columns whose cells are entirely null and returns the new
    /// dataset together with retained column indices.
    ///
    /// The paper reports output sizes "excluding attributes with all cells
    /// masked" (§6).
    pub fn drop_all_null_columns(&self) -> (Dataset, Vec<usize>) {
        let keep: Vec<usize> = (0..self.num_columns())
            .filter(|&c| self.rows.iter().any(|r| !r[c].is_null()))
            .collect();
        (self.project(&keep), keep)
    }

    /// Dataset size `(rows, columns)` as reported in the paper's tables,
    /// excluding all-null columns.
    pub fn reported_size(&self) -> (usize, usize) {
        let non_null_cols = (0..self.num_columns())
            .filter(|&c| self.rows.iter().any(|r| !r[c].is_null()))
            .count();
        (self.num_rows(), non_null_cols)
    }

    /// Random sample of `n` rows (deterministic given the `seed`).
    pub fn sample(&self, n: usize, seed: u64) -> Dataset {
        if n >= self.num_rows() {
            return self.clone();
        }
        // A simple LCG keeps this dependency free and deterministic.
        let mut state = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut indices: Vec<usize> = (0..self.num_rows()).collect();
        for i in (1..indices.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            indices.swap(i, j);
        }
        indices.truncate(n);
        let rows = indices.iter().map(|&i| self.rows[i].clone()).collect();
        Dataset {
            name: format!("{}#sample", self.name),
            schema: self.schema.clone(),
            rows,
        }
    }

    /// Vertically concatenates another dataset with an identical schema.
    pub fn append(&mut self, other: &Dataset) -> Result<(), DataError> {
        if other.schema.names() != self.schema.names() {
            return Err(DataError::SchemaMismatch {
                left: self.schema.to_string(),
                right: other.schema.to_string(),
            });
        }
        self.rows.extend(other.rows.iter().cloned());
        Ok(())
    }

    /// Splits the dataset into (train, test) by a ratio, deterministically.
    pub fn split(&self, train_ratio: f64, seed: u64) -> (Dataset, Dataset) {
        let shuffled = self.sample(self.num_rows(), seed);
        let cut = ((self.num_rows() as f64) * train_ratio).round() as usize;
        let cut = cut.min(self.num_rows());
        let train_rows = shuffled.rows[..cut].to_vec();
        let test_rows = shuffled.rows[cut..].to_vec();
        (
            Dataset {
                name: format!("{}#train", self.name),
                schema: self.schema.clone(),
                rows: train_rows,
            },
            Dataset {
                name: format!("{}#test", self.name),
                schema: self.schema.clone(),
                rows: test_rows,
            },
        )
    }

    /// Renames the dataset, builder style.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} {} [{} rows]",
            self.name,
            self.schema,
            self.num_rows()
        )?;
        for r in self.rows.iter().take(5) {
            let cells: Vec<String> = r.iter().map(|v| v.to_string()).collect();
            writeln!(f, "  {}", cells.join(" | "))?;
        }
        if self.num_rows() > 5 {
            writeln!(f, "  … ({} more rows)", self.num_rows() - 5)?;
        }
        Ok(())
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
        assert_eq!(d.value(0, 2), &Value::Null);
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
        assert_eq!(d.value(0, 2), &Value::Null);
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
        let (clean, kept) = d.drop_all_null_columns();
        assert_eq!(clean.num_columns(), 2);
        assert_eq!(kept, vec![0, 1]);
        assert_eq!(d.reported_size(), (3, 2));
    }

    #[test]
    fn split_partitions_all_rows() {
        let d = toy();
        let (tr, te) = d.split(0.67, 7);
        assert_eq!(tr.num_rows() + te.num_rows(), d.num_rows());
    }

    #[test]
    fn sample_is_deterministic() {
        let d = toy();
        let s1 = d.sample(2, 42);
        let s2 = d.sample(2, 42);
        assert_eq!(s1.rows(), s2.rows());
    }

    #[test]
    fn append_requires_same_schema() {
        let mut d = toy();
        let other = toy();
        assert!(d.append(&other).is_ok());
        assert_eq!(d.num_rows(), 6);
        let bad = Dataset::new("x", Schema::from_names(["z"]));
        assert!(d.append(&bad).is_err());
    }
}
