//! Dataset → feature-matrix encoding.
//!
//! MODis treats the downstream model `M` as a function over a feature matrix
//! (§2). This module converts a [`Dataset`] — or, on the columnar hot path,
//! a zero-copy [`DatasetView`] — into a dense numeric matrix: numeric
//! attributes are mean-imputed, categorical attributes are label-encoded,
//! and the declared target attribute becomes the label vector (class ids
//! for classification, raw values for regression).
//!
//! [`encode_view_split`] is the one encoder body — a valuation calls it with
//! its train ratio and seed, and [`encode_view`] is it with every row on the
//! training side. It never looks at a `Value`: what a
//! cell *is* (null, a finite number, which value class) is decoded once per
//! column into the base table's [`TableProjection`] — the one a substrate's
//! view carries, or a transient one for a bare view ([`encode`] wraps a
//! full-table view around a `Dataset`) — and what depends on the *state* is
//! decided here, per state, from popcounts and ascending passes over the
//! selected rows (read from the selection a word at a time): one per group
//! of up to four numeric columns for their means, the group's sums held in
//! registers, one per categorical column's ids — and each kept row is
//! written straight to its side of the train/test split, a column at a
//! time through the rows' chunks. The output is bit-identical to the
//! row-scanning encoder it replaced (kept under `cfg(test)` as the oracle
//! of a differential proptest); these are the rules that make it so:
//!
//! * a column is a feature iff it is not the target, a key, excluded or
//!   masked, and `popcount(selection & non_null) > 0`;
//! * **numeric or categorical is decided per state**: numeric iff
//!   `numeric > 0 && numeric == non_null` over the *selected* rows — a
//!   column with one unparsable string is categorical in the pool and
//!   numeric in a selection that drops that row. `" 4.5 "` reads 4.5;
//!   `"inf"`, `"nan"` and `Float(NaN)` are non-null and not numeric;
//! * the imputation mean is `sum / numeric` with the addends added one by
//!   one in ascending selected-row order from `0.0` — no prefix, pairwise
//!   or chunked sums, which round differently (up to four columns' sums
//!   share one pass; each keeps its own order, and a NaN cell adds `-0.0`,
//!   which leaves every sum as it was);
//! * category ids (and class ids) are numbered by **first appearance among
//!   the selected rows**, keyed by `Value`'s `Ord`: `Int(3)` and
//!   `Float(3.0)` are one key, `Str("3")` is another although it reads 3.0;
//!   a null categorical is `-1`;
//! * `class_values[k]` is a clone of the first *selected* cell of class
//!   `k`, not of the pool's first;
//! * means and ids are computed over all selected rows **before** rows with
//!   a null (regression: or non-finite) target are dropped;
//! * a masked target returns the empty matrix, with the feature names;
//! * the split is [`Encoded::split`]'s seeded permutation, applied to the
//!   kept rows — after the means and ids, after the drop — before a cell is
//!   written, so each side is filled in its final order; when every row
//!   trains there is no test side and the matrix keeps the selection's
//!   order.

use modis_data::{AttributeRole, Dataset, DatasetView, Dictionary, TableProjection, Value};

use crate::matrix::Matrix;

/// The kind of supervised task the downstream model solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Continuous target.
    Regression,
    /// Discrete target (class ids `0..n_classes`).
    Classification,
}

/// A dense numeric design matrix with labels.
#[derive(Debug, Clone, Default)]
pub struct Encoded {
    /// Feature matrix, `rows × features`.
    pub features: Matrix,
    /// Label vector aligned with `features`.
    pub targets: Vec<f64>,
    /// Feature names aligned with matrix columns.
    pub feature_names: Vec<String>,
    /// Number of classes (classification) or 0 (regression).
    pub n_classes: usize,
    /// Mapping from class id to the original target value (classification).
    pub class_values: Vec<Value>,
}

impl Encoded {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Number of feature columns.
    pub fn num_features(&self) -> usize {
        self.feature_names.len()
    }

    /// One feature column as a vector.
    #[cfg(test)]
    pub fn feature_column(&self, j: usize) -> Vec<f64> {
        self.features.rows().map(|r| r[j]).collect()
    }

    /// Number of rows [`Self::split`] deals to the training side.
    pub fn train_len(&self, train_ratio: f64) -> usize {
        train_len(self.len(), train_ratio)
    }

    /// Splits rows into (train, test) deterministically: a seeded
    /// permutation of the row indices, its first [`Self::train_len`] rows
    /// gathered into one matrix and the rest into the other.
    /// [`encode_view_split`] deals the rows of the same permutation as it
    /// writes them, without this copy.
    pub fn split(&self, train_ratio: f64, seed: u64) -> (Encoded, Encoded) {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        for (i, j) in shuffle_swaps(idx.len(), seed) {
            idx.swap(i, j);
        }
        let take = |ids: &[usize]| {
            let mut features = Matrix::with_capacity(ids.len(), self.features.n_cols());
            for &i in ids {
                features.push_row(self.features.row(i));
            }
            Encoded {
                features,
                targets: ids.iter().map(|&i| self.targets[i]).collect(),
                feature_names: self.feature_names.clone(),
                n_classes: self.n_classes,
                class_values: self.class_values.clone(),
            }
        };
        let (train, test) = idx.split_at(self.train_len(train_ratio));
        (take(train), take(test))
    }
}

/// Rows of `n` that a split at `train_ratio` deals to the training side.
fn train_len(n: usize, train_ratio: f64) -> usize {
    (((n as f64) * train_ratio).round() as usize).min(n)
}

/// The split's seeded permutation of `n` positions, as the swaps of one
/// Fisher–Yates pass: applied in order to any `n`-element slice, they leave
/// at position `p` the element the permutation deals to `p`.
fn shuffle_swaps(n: usize, seed: u64) -> impl Iterator<Item = (usize, usize)> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    (1..n).rev().map(move |i| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (i, (state >> 33) as usize % (i + 1))
    })
}

/// Options controlling encoding.
#[derive(Debug, Clone)]
pub struct EncodeOptions {
    /// Name of the target attribute. When `None`, the schema's declared
    /// target attribute is used.
    pub target: Option<String>,
    /// Task kind; classification label-encodes the target.
    pub task: TaskKind,
    /// Attribute names to exclude from the feature matrix (e.g. join keys).
    pub exclude: Vec<String>,
}

impl EncodeOptions {
    /// Regression options with the schema-declared target.
    pub fn regression() -> Self {
        EncodeOptions {
            target: None,
            task: TaskKind::Regression,
            exclude: Vec::new(),
        }
    }

    /// Classification options with the schema-declared target.
    pub fn classification() -> Self {
        EncodeOptions {
            target: None,
            task: TaskKind::Classification,
            exclude: Vec::new(),
        }
    }

    /// Sets an explicit target attribute.
    pub fn with_target(mut self, target: impl Into<String>) -> Self {
        self.target = Some(target.into());
        self
    }

    /// Excludes attributes from the feature matrix.
    pub fn with_exclude<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.exclude = names.into_iter().map(Into::into).collect();
        self
    }
}

/// Encodes a dataset into a numeric matrix.
///
/// Rows whose target is missing are dropped. Feature columns that are
/// entirely null are dropped (they correspond to masked attributes).
pub fn encode(data: &Dataset, opts: &EncodeOptions) -> Encoded {
    encode_view(&DatasetView::full(data), opts)
}

/// Encodes a zero-copy [`DatasetView`] into a numeric matrix by gathering
/// from the base table's [`TableProjection`] — the one the view carries, or
/// a transient one decoded here through the same code when it carries none.
///
/// Produces exactly the matrix [`encode`] would produce on the materialised
/// view (`view.to_dataset()`): masked attributes read all-null and are
/// dropped, deselected rows never contribute to imputation means, category
/// ids or class ids. The module docs list the rules that make it so.
pub fn encode_view(view: &DatasetView<'_>, opts: &EncodeOptions) -> Encoded {
    encode_view_split(view, opts, 1.0, 0).0
}

/// [`encode_view`] and [`Encoded::split`] in one pass: every kept row is
/// written straight to the position the split's seeded permutation deals it
/// to, on the training side or the test side, so the matrix is never copied.
///
/// Bit for bit `encode_view(view, opts).split(train_ratio, seed)`, with one
/// exception: when every row trains ([`Encoded::train_len`] is the row
/// count) the training side is the whole matrix **unshuffled** and the test
/// side is `None` — there is nothing left to test on.
pub fn encode_view_split(
    view: &DatasetView<'_>,
    opts: &EncodeOptions,
    train_ratio: f64,
    seed: u64,
) -> (Encoded, Option<Encoded>) {
    let base = view.base();
    let schema = view.schema();
    let mask = view.mask();
    let transient;
    let projection = match view.projection() {
        Some(attached) => attached,
        None => {
            transient = TableProjection::new(base);
            &transient
        }
    };
    let target_col = opts
        .target
        .as_ref()
        .and_then(|n| schema.position(n))
        .or_else(|| schema.target_index());

    // Feature columns: not the target, a key or excluded, and not reading
    // all-null over the selection (masked attributes do by definition).
    let mut feature_cols = Vec::new();
    for (c, attr) in schema.attributes().iter().enumerate() {
        if Some(c) == target_col
            || attr.role == AttributeRole::Key
            || opts.exclude.iter().any(|e| e == &attr.name)
            || view.is_col_masked(c)
        {
            continue;
        }
        let column = projection.column(base, c);
        let non_null = mask.count_and(column.non_null());
        if non_null > 0 {
            feature_cols.push((c, column, non_null));
        }
    }
    let feature_names: Vec<String> = feature_cols
        .iter()
        .map(|&(c, ..)| schema.attributes()[c].name.clone())
        .collect();

    // A masked target reads null on every selected row: all rows drop.
    if target_col.is_some_and(|tc| view.is_col_masked(tc)) {
        let empty = Encoded {
            features: Matrix::with_capacity(0, feature_names.len()),
            feature_names,
            ..Encoded::default()
        };
        return (empty, None);
    }

    // Every pass below walks the selection in ascending row order: means
    // add in that order, ids are numbered by first appearance in it.
    let mut rows = Vec::with_capacity(mask.count());
    rows.extend(view.row_indices());

    // What each feature column (matrix column `j`) reads like is decided
    // once per state: numbers imputed with the selection's mean, or
    // category ids.
    struct Numeric<'p> {
        j: usize,
        cells: &'p [f64],
        /// Set by the means pass below.
        mean: f64,
        count: usize,
    }
    struct Categorical<'p> {
        j: usize,
        codes: &'p [u32],
        ids: Vec<f64>,
    }
    let mut numeric = Vec::new();
    let mut categorical = Vec::new();
    for (j, &(c, column, non_null)) in feature_cols.iter().enumerate() {
        let count = mask.count_and(column.numeric());
        if count > 0 && count == non_null {
            numeric.push(Numeric {
                j,
                cells: column.readings(),
                mean: 0.0,
                count,
            });
        } else {
            let dictionary = projection.dictionary(base, c);
            let (ids, _) = first_appearance_ids(dictionary, &rows);
            categorical.push(Categorical {
                j,
                codes: dictionary.codes(),
                ids,
            });
        }
    }
    // One pass per group of up to four numeric columns for their means:
    // each column's sum starts at `0.0` and takes its addends in ascending
    // row order, the group's sums held in registers across the pass; only
    // their chains interleave. A NaN cell adds `-0.0`, the one addend that
    // leaves every sum (`±0.0` included) as it was, so the select needs no
    // branch.
    fn means<const K: usize>(group: &mut [Numeric<'_>], rows: &[usize]) {
        let columns: [&[f64]; K] = std::array::from_fn(|k| group[k].cells);
        let mut sums = [0.0; K];
        for &r in rows {
            for (sum, cells) in sums.iter_mut().zip(&columns) {
                let cell = cells[r];
                *sum += if cell.is_nan() { -0.0 } else { cell };
            }
        }
        for (column, sum) in group.iter_mut().zip(sums) {
            column.mean = sum / column.count as f64;
        }
    }
    for group in numeric.chunks_mut(4) {
        match group.len() {
            1 => means::<1>(group, &rows),
            2 => means::<2>(group, &rows),
            3 => means::<3>(group, &rows),
            _ => means::<4>(group, &rows),
        }
    }

    enum Target<'p> {
        Absent,
        Number(&'p [f64]),
        Class { codes: &'p [u32], ids: Vec<f64> },
    }
    let mut class_values: Vec<Value> = Vec::new();
    let target = match (target_col, opts.task) {
        (None, _) => Target::Absent,
        (Some(tc), TaskKind::Regression) => Target::Number(projection.column(base, tc).readings()),
        (Some(tc), TaskKind::Classification) => {
            let dictionary = projection.dictionary(base, tc);
            let (ids, firsts) = first_appearance_ids(dictionary, &rows);
            class_values = firsts.iter().map(|&r| base.rows()[r][tc].clone()).collect();
            Target::Class {
                codes: dictionary.codes(),
                ids,
            }
        }
    };

    // Rows whose target is null (or, for regression, not a finite number)
    // drop here — after the means and ids above saw them; `rows` is the
    // rows of the matrix from here on.
    let mut targets = Vec::with_capacity(rows.len());
    rows.retain(|&r| {
        targets.push(match &target {
            Target::Absent => 0.0,
            Target::Number(cells) if cells[r].is_nan() => return false,
            Target::Number(cells) => cells[r],
            Target::Class { codes, .. } if codes[r] == Dictionary::NULL => return false,
            Target::Class { codes, ids } => ids[codes[r] as usize],
        });
        true
    });

    // The split: the permutation's swaps move the kept rows (and their
    // targets) to the positions they are dealt to before a cell is
    // written, so each side is filled in its final order.
    let cut = train_len(rows.len(), train_ratio);
    if cut < rows.len() {
        for (i, j) in shuffle_swaps(rows.len(), seed) {
            rows.swap(i, j);
            targets.swap(i, j);
        }
    }

    // One allocation per side, filled a column at a time, each cell
    // reached through its row's chunk (a `skip(j).step_by(d)` walk costs
    // more per cell).
    let d = feature_cols.len();
    let fill = |rows: &[usize]| {
        let mut data = vec![0.0; rows.len() * d];
        for &Numeric { j, cells, mean, .. } in &numeric {
            for (row, &r) in data.chunks_exact_mut(d).zip(rows) {
                row[j] = if cells[r].is_nan() { mean } else { cells[r] };
            }
        }
        for Categorical { j, codes, ids } in &categorical {
            for (row, &r) in data.chunks_exact_mut(d).zip(rows) {
                row[*j] = match codes[r] {
                    Dictionary::NULL => -1.0,
                    code => ids[code as usize],
                };
            }
        }
        Matrix::from_vec(rows.len(), d, data)
    };
    let n_classes = class_values.len();
    // Every row trains: the whole matrix, unshuffled, and no test side.
    let test = (cut < rows.len()).then(|| Encoded {
        features: fill(&rows[cut..]),
        targets: targets.split_off(cut),
        feature_names: feature_names.clone(),
        n_classes,
        class_values: class_values.clone(),
    });
    let train = Encoded {
        features: fill(&rows[..cut]),
        targets,
        feature_names,
        n_classes,
        class_values,
    };
    (train, test)
}

/// Numbers a column's dictionary keys `0, 1, …` in order of first
/// appearance among `rows` (ascending): `ids[code]` is the key's id as the
/// matrix stores it (`-1.0` for a key no selected row holds), and the second
/// vector holds, per id, the row it first appeared in. The scan stops once
/// every key has an id: no later row can change either vector.
fn first_appearance_ids(dictionary: &Dictionary, rows: &[usize]) -> (Vec<f64>, Vec<usize>) {
    let codes = dictionary.codes();
    let mut ids = vec![-1.0; dictionary.cardinality()];
    let mut firsts = Vec::new();
    for &r in rows {
        let code = codes[r];
        if code != Dictionary::NULL && ids[code as usize] < 0.0 {
            ids[code as usize] = firsts.len() as f64;
            firsts.push(r);
            if firsts.len() == ids.len() {
                break;
            }
        }
    }
    (ids, firsts)
}

/// The encoder this module had before the projection: 2–5 row-major passes
/// per column over the `Value` cells, a `BTreeMap<Value, f64>` per
/// categorical column. Its body is kept verbatim (it collects row vectors
/// and hands them to `Matrix::from_rows` at the end) as the reference the
/// differential tests compare [`encode_view`] with, bit for bit.
#[cfg(test)]
mod oracle {
    use std::collections::BTreeMap;

    use super::{EncodeOptions, Encoded, Matrix, TaskKind};
    use modis_data::{AttributeRole, DatasetView, Value};

    pub fn encode_view(view: &DatasetView<'_>, opts: &EncodeOptions) -> Encoded {
        let schema = view.schema();
        let target_col = opts
            .target
            .as_ref()
            .and_then(|n| schema.position(n))
            .or_else(|| schema.target_index());

        // Determine feature columns.
        let mut feature_cols: Vec<usize> = Vec::new();
        for (i, attr) in schema.attributes().iter().enumerate() {
            if Some(i) == target_col {
                continue;
            }
            if attr.role == AttributeRole::Key {
                continue;
            }
            if opts.exclude.iter().any(|e| e == &attr.name) {
                continue;
            }
            // Skip all-null columns (masked attributes).
            if view.col_is_all_null(i) {
                continue;
            }
            feature_cols.push(i);
        }

        let feature_names: Vec<String> = feature_cols
            .iter()
            .map(|&c| {
                schema
                    .attribute(c)
                    .map(|a| a.name.clone())
                    .unwrap_or_default()
            })
            .collect();

        // Every feature column is unmasked (a masked column reads all-null and
        // was skipped above), so the passes below index the base rows directly
        // — one slice lookup per row, not an Option chain per cell. The only
        // possibly-masked column left is the target; when it is masked every
        // selected row's target reads null and all rows drop.
        if target_col.is_some_and(|tc| view.is_col_masked(tc)) {
            return Encoded {
                features: Matrix::from_rows(&[]),
                targets: Vec::new(),
                feature_names,
                n_classes: 0,
                class_values: Vec::new(),
            };
        }
        let base_rows = view.base().rows();

        // Build per-column encoders.
        enum ColEncoder {
            Numeric { mean: f64 },
            Categorical { map: BTreeMap<Value, f64> },
        }
        let mut encoders = Vec::with_capacity(feature_cols.len());
        for &c in &feature_cols {
            let mut sum = 0.0;
            let mut numeric = 0usize;
            let mut non_null = 0usize;
            for r in view.row_indices() {
                let v = &base_rows[r][c];
                if !v.is_null() {
                    non_null += 1;
                }
                if let Some(x) = v.as_f64().filter(|x| x.is_finite()) {
                    sum += x;
                    numeric += 1;
                }
            }
            if numeric > 0 && numeric == non_null {
                encoders.push(ColEncoder::Numeric {
                    mean: sum / numeric as f64,
                });
            } else {
                let mut map = BTreeMap::new();
                for r in view.row_indices() {
                    let v = &base_rows[r][c];
                    if !v.is_null() && !map.contains_key(v) {
                        let id = map.len() as f64;
                        map.insert(v.clone(), id);
                    }
                }
                encoders.push(ColEncoder::Categorical { map });
            }
        }

        // Target encoding.
        let mut class_values: Vec<Value> = Vec::new();
        let mut class_map: BTreeMap<Value, f64> = BTreeMap::new();
        if let (Some(tc), TaskKind::Classification) = (target_col, opts.task) {
            for r in view.row_indices() {
                let v = &base_rows[r][tc];
                if !v.is_null() && !class_map.contains_key(v) {
                    class_map.insert(v.clone(), class_values.len() as f64);
                    class_values.push(v.clone());
                }
            }
        }

        let mut features = Vec::new();
        let mut targets = Vec::new();
        for r in view.row_indices() {
            let row = &base_rows[r];
            let target_val = match target_col {
                Some(tc) => {
                    let v = &row[tc];
                    if v.is_null() {
                        continue;
                    }
                    match opts.task {
                        TaskKind::Regression => match v.as_f64() {
                            Some(x) if x.is_finite() => x,
                            _ => continue,
                        },
                        TaskKind::Classification => *class_map.get(v).unwrap_or(&0.0),
                    }
                }
                None => 0.0,
            };
            let mut feat = Vec::with_capacity(feature_cols.len());
            for (k, &c) in feature_cols.iter().enumerate() {
                let v = &row[c];
                let x = match &encoders[k] {
                    ColEncoder::Numeric { mean } => {
                        v.as_f64().filter(|x| x.is_finite()).unwrap_or(*mean)
                    }
                    ColEncoder::Categorical { map } => {
                        if v.is_null() {
                            -1.0
                        } else {
                            *map.get(v).unwrap_or(&-1.0)
                        }
                    }
                };
                feat.push(x);
            }
            features.push(feat);
            targets.push(target_val);
        }

        Encoded {
            features: Matrix::from_rows(&features),
            targets,
            feature_names,
            n_classes: if opts.task == TaskKind::Classification {
                class_values.len()
            } else {
                0
            },
            class_values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modis_data::{Attribute, Schema};

    fn toy() -> Dataset {
        Dataset::from_rows(
            "toy",
            Schema::from_attributes(vec![
                Attribute::key("id"),
                Attribute::feature("x"),
                Attribute::feature("color"),
                Attribute::target("y"),
            ]),
            vec![
                vec![
                    Value::Int(1),
                    Value::Float(1.0),
                    Value::Str("red".into()),
                    Value::Float(10.0),
                ],
                vec![
                    Value::Int(2),
                    Value::Null,
                    Value::Str("blue".into()),
                    Value::Float(20.0),
                ],
                vec![
                    Value::Int(3),
                    Value::Float(3.0),
                    Value::Str("red".into()),
                    Value::Null,
                ],
                vec![
                    Value::Int(4),
                    Value::Float(5.0),
                    Value::Null,
                    Value::Float(30.0),
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn encode_regression_drops_null_targets_and_keys() {
        let e = encode(&toy(), &EncodeOptions::regression());
        assert_eq!(e.len(), 3);
        assert_eq!(e.feature_names, vec!["x", "color"]);
        assert_eq!(e.targets, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn numeric_nulls_are_mean_imputed() {
        let e = encode(&toy(), &EncodeOptions::regression());
        // mean of x over non-null cells {1,3,5} = 3
        assert!((e.features.row(1)[0] - 3.0).abs() < 1e-12);
    }

    /// `color` of the encoded rows.
    fn colors(e: &Encoded) -> Vec<f64> {
        e.feature_column(1)
    }

    #[test]
    fn categorical_encoding_assigns_ids() {
        // First appearance: red → 0, blue → 1; a null categorical is -1.
        let e = encode(&toy(), &EncodeOptions::regression());
        assert_eq!(colors(&e), vec![0.0, 1.0, -1.0]);
    }

    #[test]
    fn category_ids_are_first_appearance_among_the_selected_rows() {
        use modis_data::RowMask;
        let mut d = toy();
        d.set_value(2, 3, Value::Float(25.0)).unwrap();
        let all = encode(&d, &EncodeOptions::regression());
        assert_eq!(colors(&all), vec![0.0, 1.0, 0.0, -1.0]);
        // A selection that starts at the blue row swaps the ids: they are
        // decided per state, not per pool.
        let from_blue = RowMask::from_pred(d.num_rows(), |r| r >= 1);
        let view = DatasetView::new(&d, from_blue, vec![false; 4]);
        let e = encode_view(&view, &EncodeOptions::regression());
        assert_eq!(colors(&e), vec![0.0, 1.0, -1.0]);
    }

    #[test]
    fn classification_builds_class_map() {
        let mut d = toy();
        // Overwrite target with categories.
        let tc = d.schema().position("y").unwrap();
        for (i, v) in [("a", 0usize), ("b", 1), ("a", 2), ("b", 3)] {
            d.set_value(v, tc, Value::Str(i.into())).unwrap();
        }
        let e = encode(&d, &EncodeOptions::classification());
        assert_eq!(e.n_classes, 2);
        assert_eq!(e.len(), 4);
        assert_eq!(e.targets[0], e.targets[2]);
    }

    #[test]
    fn exclude_removes_columns() {
        let opts = EncodeOptions::regression().with_exclude(["color"]);
        let e = encode(&toy(), &opts);
        assert_eq!(e.feature_names, vec!["x"]);
    }

    #[test]
    fn all_null_columns_are_skipped() {
        let mut d = toy();
        d.add_column(Attribute::feature("empty"));
        let e = encode(&d, &EncodeOptions::regression());
        assert!(!e.feature_names.contains(&"empty".to_string()));
    }

    #[test]
    fn encode_view_matches_encode_on_materialised_view() {
        use modis_data::RowMask;
        let d = toy();
        // Drop row 1, mask the "color" column.
        let mask = RowMask::from_pred(d.num_rows(), |r| r != 1);
        let view = DatasetView::new(&d, mask, vec![false, false, true, false]);
        let via_view = encode_view(&view, &EncodeOptions::regression());
        let via_copy = encode(&view.to_dataset(), &EncodeOptions::regression());
        assert_eq!(via_view.features, via_copy.features);
        assert_eq!(via_view.targets, via_copy.targets);
        assert_eq!(via_view.feature_names, via_copy.feature_names);
        // The masked column is gone from the feature set.
        assert_eq!(via_view.feature_names, vec!["x"]);
    }

    #[test]
    fn split_partitions_rows() {
        let e = encode(&toy(), &EncodeOptions::regression());
        let (tr, te) = e.split(0.67, 1);
        assert_eq!(tr.len() + te.len(), e.len());
        assert_eq!(tr.num_features(), e.num_features());
        assert_eq!(tr.len(), e.train_len(0.67));
    }

    /// `Encoded::split` as it was while the matrix was a `Vec` of row
    /// `Vec`s: the same permutation, every row moved out of its slot.
    #[allow(clippy::type_complexity)]
    fn old_split(
        mut features: Vec<Vec<f64>>,
        targets: &[f64],
        train_ratio: f64,
        seed: u64,
    ) -> [(Vec<Vec<f64>>, Vec<f64>); 2] {
        let n = features.len();
        let mut idx: Vec<usize> = (0..n).collect();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            idx.swap(i, j);
        }
        let cut = (((n as f64) * train_ratio).round() as usize).min(n);
        let mut take = |ids: &[usize]| {
            (
                ids.iter()
                    .map(|&i| std::mem::take(&mut features[i]))
                    .collect(),
                ids.iter().map(|&i| targets[i]).collect(),
            )
        };
        let train = take(&idx[..cut]);
        [train, take(&idx[cut..])]
    }

    fn row_bits(m: &Matrix) -> Vec<Vec<u64>> {
        m.rows()
            .map(|row| row.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    #[test]
    fn split_gathers_the_rows_of_the_permutation_it_always_used() {
        // 1,000 rows that differ in every cell, one of them `-0.0`.
        let rows: Vec<Vec<f64>> = (0..1000)
            .map(|i| vec![i as f64, -(i as f64) * 0.25, (i as f64 * 0.37).sin()])
            .collect();
        let e = Encoded {
            features: Matrix::from_rows(&rows),
            targets: (0..1000).map(|i| i as f64 + 0.5).collect(),
            feature_names: vec!["a".into(), "b".into(), "c".into()],
            ..Encoded::default()
        };
        for (ratio, seed) in [(0.7, 1), (0.5, 9), (0.0, 3), (1.0, 3), (0.9996, 4)] {
            let (train, test) = e.split(ratio, seed);
            let [old_train, old_test] = old_split(rows.clone(), &e.targets, ratio, seed);
            for (new, (old_rows, old_targets)) in [(&train, old_train), (&test, old_test)] {
                let context = format!("ratio {ratio} seed {seed}");
                assert_eq!(
                    row_bits(&new.features),
                    row_bits(&Matrix::from_rows(&old_rows)),
                    "{context}"
                );
                assert_eq!(new.features.n_cols(), 3, "{context}");
                assert_eq!(new.targets, old_targets, "{context}");
                assert_eq!(new.feature_names, e.feature_names, "{context}");
            }
            assert_eq!(train.len(), e.train_len(ratio));
            assert_eq!(train.len() + test.len(), 1000);
        }
        // The permutation itself, pinned: the first column is the row id.
        let (train, test) = e.split(0.7, 1);
        assert_eq!(train.feature_column(0)[..4], [963.0, 190.0, 434.0, 182.0]);
        assert_eq!(test.feature_column(0)[296..], [357.0, 344.0, 254.0, 911.0]);
        // Nothing left to test on: every row trains, shuffled all the same.
        let (all, none) = e.split(1.0, 1);
        assert_eq!(
            (all.len(), none.len(), none.features.n_cols()),
            (1000, 0, 3)
        );
        assert_eq!(all.feature_column(0)[..4], [963.0, 190.0, 434.0, 182.0]);
        assert_eq!(all.feature_column(0)[996..], [357.0, 344.0, 254.0, 911.0]);
    }

    /// Bit-for-bit equality of two encodings (`==` would let `-0.0` pass for
    /// `0.0` and `Int(1)` for `Float(1.0)`).
    fn assert_same(new: &Encoded, old: &Encoded, context: &str) {
        assert_eq!(
            row_bits(&new.features),
            row_bits(&old.features),
            "{context}"
        );
        assert_eq!(new.features.n_cols(), new.num_features(), "{context}");
        let bits = |values: &[f64]| -> Vec<u64> { values.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(&new.targets), bits(&old.targets), "{context}");
        assert_eq!(new.feature_names, old.feature_names, "{context}");
        assert_eq!(new.n_classes, old.n_classes, "{context}");
        assert_eq!(
            format!("{:?}", new.class_values),
            format!("{:?}", old.class_values),
            "{context}"
        );
    }

    mod differential {
        use super::super::oracle;
        use super::*;
        use modis_data::{RowMask, TableProjection};
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const COLUMNS: [&str; 12] = [
            "id", "float", "int", "mixed", "cat", "one_bad", "empty", "flag", "wide", "count",
            "ratio", "t",
        ];
        const SIZES: [usize; 8] = [0, 1, 5, 7, 8, 40, 64, 130];

        fn s(text: &str) -> Value {
            Value::Str(text.into())
        }

        /// One cell of the named column. Magnitudes in `float` differ by
        /// sixteen orders so that a mean summed in another order differs.
        fn cell(g: &mut StdRng, column: &str, row: usize, bad_row: usize, classes: bool) -> Value {
            let pick = g.gen_range(0..12usize);
            match column {
                "id" => Value::Int(row as i64),
                "float" => match pick {
                    0 => Value::Null,
                    1 => Value::Float(f64::NAN),
                    2 => Value::Float(-0.0),
                    3 => Value::Float(1e16),
                    4 => Value::Float(-1e16),
                    _ => Value::Float(g.gen_range(-3.0..3.0)),
                },
                "int" => match pick {
                    0 | 1 => Value::Null,
                    _ => Value::Int(g.gen_range(0..6usize) as i64 - 2),
                },
                "mixed" => match pick {
                    0 => Value::Null,
                    1 => Value::Int(3),
                    2 => Value::Float(3.0),
                    3 => s("3"),
                    4 => s(" 4.5 "),
                    5 => s("inf"),
                    6 => s("nan"),
                    7 => Value::Bool(true),
                    8 => Value::Float(f64::INFINITY),
                    9 => s("1e3"),
                    10 => Value::Float(0.0),
                    _ => s("north"),
                },
                "cat" => match pick {
                    0 => Value::Null,
                    _ => s(["north", "south", "east", "west", " north"][pick % 5]),
                },
                // Numeric but for one row: categorical in the pool, numeric
                // in every selection that drops that row.
                "one_bad" if row == bad_row => s("oops"),
                "one_bad" => match pick {
                    0 => Value::Null,
                    _ => Value::Float(g.gen_range(0..4usize) as f64 * 0.5),
                },
                "empty" => Value::Null,
                "flag" => match pick {
                    0 => Value::Null,
                    _ => Value::Bool(pick % 2 == 0),
                },
                // One key per row (what a float column is to a dictionary).
                "wide" => s(&format!("k{row}")),
                // Two more numeric columns, so that a state often has five
                // or more and the means pass runs a second group.
                "count" => match pick {
                    0 => Value::Null,
                    _ => Value::Int(g.gen_range(0..40usize) as i64),
                },
                "ratio" => match pick {
                    0 => Value::Float(f64::NAN),
                    1 => Value::Float(-0.0),
                    _ => Value::Float(g.gen_range(0.0..1.0)),
                },
                "t" if classes => match pick {
                    0 => Value::Null,
                    1 => Value::Int(1),
                    2 => Value::Float(1.0),
                    3 => s("1"),
                    4 => Value::Bool(true),
                    5 => Value::Float(f64::NAN),
                    6 => Value::Float(-0.0),
                    7 => Value::Int(0),
                    _ => s(["yes", "no"][pick % 2]),
                },
                "t" => match pick {
                    0 => Value::Null,
                    1 => s("2.5"),
                    2 => s("bad"),
                    3 => Value::Float(f64::NAN),
                    4 => Value::Float(f64::INFINITY),
                    5 => Value::Int(7),
                    _ => Value::Float(g.gen_range(-1.0..1.0)),
                },
                other => unreachable!("no column {other}"),
            }
        }

        fn table(g: &mut StdRng, n: usize, classes: bool, declare_target: bool) -> Dataset {
            let schema = Schema::from_attributes(COLUMNS.iter().map(|&name| match name {
                "id" => Attribute::key(name),
                "t" if declare_target => Attribute::target(name),
                _ => Attribute::feature(name),
            }));
            let bad_row = g.gen_range(0..n.max(1));
            let rows = (0..n)
                .map(|r| {
                    COLUMNS
                        .iter()
                        .map(|&name| cell(g, name, r, bad_row, classes))
                        .collect()
                })
                .collect();
            Dataset::from_rows("generated", schema, rows).unwrap()
        }

        fn row_mask(g: &mut StdRng, n: usize) -> RowMask {
            match g.gen_range(0..6usize) {
                0 => RowMask::none(n),
                1 => RowMask::all(n),
                2 => {
                    let few: Vec<usize> = (0..g.gen_range(0..8usize))
                        .map(|_| g.gen_range(0..n.max(1)))
                        .collect();
                    RowMask::from_pred(n, |r| few.contains(&r))
                }
                _ => {
                    let density = g.gen_range(0.05..0.95);
                    RowMask::from_pred(n, |_| g.gen_bool(density))
                }
            }
        }

        fn options(g: &mut StdRng, classes: bool) -> EncodeOptions {
            let base = if classes {
                EncodeOptions::classification()
            } else {
                EncodeOptions::regression()
            };
            let base = match g.gen_range(0..6usize) {
                0 => base.with_target("t"),
                1 => base.with_target("no_such_column"),
                2 => base.with_target("cat"),
                _ => base,
            };
            let mut exclude: Vec<&str> = COLUMNS
                .iter()
                .copied()
                .filter(|_| g.gen_bool(0.15))
                .collect();
            if g.gen_bool(0.2) {
                exclude.push("no_such_column");
            }
            base.with_exclude(exclude)
        }

        /// One state of a table: a row selection, the masked columns and
        /// the options. One state in eight masks every column but the last,
        /// so that rows survive with no feature column left.
        fn state(g: &mut StdRng, n: usize, classes: bool) -> (RowMask, Vec<bool>, EncodeOptions) {
            let mask = row_mask(g, n);
            let mut masked: Vec<bool> = COLUMNS.iter().map(|_| g.gen_bool(0.15)).collect();
            if g.gen_range(0..8usize) == 0 {
                masked[..COLUMNS.len() - 1].fill(true);
            }
            (mask, masked, options(g, classes))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(320))]

            /// The contract of the projection: whatever the row-scanning
            /// encoder produced, the gather produces, bit for bit — for
            /// many selections of one table sharing one lazily decoded
            /// projection, and through a transient one.
            #[test]
            fn gather_encodes_what_the_row_scan_encoded(
                seed in any::<u64>(),
                size in 0usize..8,
                classes in any::<bool>(),
                undeclared_target in 0usize..5,
            ) {
                let mut g = StdRng::seed_from_u64(seed);
                let n = SIZES[size];
                let data = table(&mut g, n, classes, undeclared_target != 0);
                let projection = TableProjection::new(&data);
                for at in 0..6 {
                    let (mask, masked, opts) = state(&mut g, n, classes);
                    let context = format!(
                        "seed {seed} n {n} state {at} rows {:?} masked {masked:?} {opts:?}",
                        mask.iter().collect::<Vec<_>>()
                    );
                    let bare = DatasetView::new(&data, mask, masked);
                    let expected = oracle::encode_view(&bare, &opts);
                    assert_same(&encode_view(&bare, &opts), &expected, &context);
                    let attached = bare.clone().with_projection(&projection);
                    assert_same(&encode_view(&attached, &opts), &expected, &context);
                }
            }
        }

        /// What the valuation trains and tests on: the split dealt as the
        /// rows are written, against the whole matrix and `Encoded::split`.
        fn assert_dealt_as_split(
            view: &DatasetView<'_>,
            opts: &EncodeOptions,
            ratio: f64,
            seed: u64,
            context: &str,
        ) {
            let whole = encode_view(view, opts);
            let (train, test) = encode_view_split(view, opts, ratio, seed);
            let context = format!("{context} ratio {ratio} split seed {seed}");
            if whole.train_len(ratio) == whole.len() {
                // Nothing to test on: the whole matrix, unshuffled.
                assert!(test.is_none(), "{context}");
                assert_same(&train, &whole, &context);
            } else {
                let (want_train, want_test) = whole.split(ratio, seed);
                assert_same(&train, &want_train, &context);
                assert_same(&test.expect("rows left to test on"), &want_test, &context);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(160))]

            /// The encoder that deals each row to its side of the split as
            /// it writes the matrix writes what `encode_view` followed by
            /// `Encoded::split` wrote, bit for bit: for every generated
            /// shape (nulls, unparsable strings, `"inf"`, masked columns and
            /// target, 0..n selected rows), every ratio and several seeds.
            #[test]
            fn the_dealt_split_is_the_encoding_split(
                seed in any::<u64>(),
                size in 0usize..8,
                classes in any::<bool>(),
                undeclared_target in 0usize..5,
                split_seed in any::<u64>(),
            ) {
                let mut g = StdRng::seed_from_u64(seed);
                let n = SIZES[size];
                let data = table(&mut g, n, classes, undeclared_target != 0);
                let projection = TableProjection::new(&data);
                for at in 0..4 {
                    let (mask, masked, opts) = state(&mut g, n, classes);
                    let context = format!(
                        "seed {seed} n {n} state {at} rows {:?} masked {masked:?} {opts:?}",
                        mask.iter().collect::<Vec<_>>()
                    );
                    let view = DatasetView::new(&data, mask, masked);
                    let view = if at % 2 == 0 {
                        view.with_projection(&projection)
                    } else {
                        view
                    };
                    for ratio in [0.0, 0.5, 0.7, 1.0] {
                        for split_seed in [split_seed, at as u64, 1] {
                            assert_dealt_as_split(&view, &opts, ratio, split_seed, &context);
                        }
                    }
                }
            }
        }

        /// The class scan stops once every key has an id. A class that
        /// first appears late (more classes than the first rows show) still
        /// gets the next id, and a scan that ends early — every class seen by
        /// row 160 of 200, every category by row 2 — agrees with the row
        /// scan.
        #[test]
        fn class_ids_are_whole_whether_or_not_the_scan_ends_early() {
            let schema = Schema::from_attributes(vec![
                Attribute::feature("x"),
                Attribute::feature("cat"),
                Attribute::target("label"),
            ]);
            let n = 200;
            let rows = (0..n)
                .map(|r| {
                    let label = match r {
                        150 => s("c"),
                        160 => Value::Int(7),
                        _ if r % 3 == 0 => s("a"),
                        _ => s("b"),
                    };
                    vec![
                        Value::Float(r as f64 * 0.5),
                        s(["north", "south", "east"][r % 3]),
                        label,
                    ]
                })
                .collect();
            let data = Dataset::from_rows("late classes", schema, rows).unwrap();
            let opts = EncodeOptions::classification();
            let selections = [
                (RowMask::all(n), 4),
                (RowMask::from_pred(n, |r| r < 150), 2),
                (RowMask::from_pred(n, |r| r >= 100), 4),
                (RowMask::from_pred(n, |r| r >= 150), 4),
                (RowMask::from_pred(n, |r| r % 50 == 0 || r == 160), 4),
            ];
            for (mask, n_classes) in selections {
                let context = format!("rows {:?}", mask.iter().collect::<Vec<_>>());
                let view = DatasetView::new(&data, mask, vec![false; 3]);
                let expected = oracle::encode_view(&view, &opts);
                assert_same(&encode_view(&view, &opts), &expected, &context);
                assert_eq!(expected.n_classes, n_classes, "{context}");
                for ratio in [0.0, 0.5, 0.7, 1.0] {
                    assert_dealt_as_split(&view, &opts, ratio, 3, &context);
                }
            }
        }

        /// The generated states reach the shapes one flat buffer can get
        /// wrong where a vector of rows could not: rows without a feature
        /// column, no row at all, a masked target (columns, no rows), one
        /// row.
        #[test]
        fn the_generated_states_cover_the_degenerate_shapes() {
            let mut seen = [false; 4];
            for seed in 0..300 {
                let mut g = StdRng::seed_from_u64(seed);
                let n = SIZES[seed as usize % SIZES.len()];
                let data = table(&mut g, n, seed % 2 == 0, true);
                let (mask, masked, opts) = state(&mut g, n, seed % 2 == 0);
                let target_masked = opts.target.is_none() && masked[COLUMNS.len() - 1];
                let e = encode_view(&DatasetView::new(&data, mask, masked), &opts);
                assert_eq!(e.features.n_cols(), e.num_features());
                assert_eq!(e.features.len(), e.targets.len());
                seen[0] |= e.num_features() == 0 && e.len() > 1;
                seen[1] |= e.num_features() > 0 && e.is_empty() && !target_masked;
                seen[2] |= e.num_features() > 0 && e.is_empty() && target_masked;
                seen[3] |= e.num_features() > 0 && e.len() == 1;
            }
            assert_eq!(seen, [true; 4]);
        }

        /// The generated states reach the shapes the means pass and the
        /// fill treat apart: five or more numeric feature columns (a second
        /// group of register sums), a last group of one to three columns
        /// after a full one, and a selected null categorical cell.
        #[test]
        fn the_generated_states_cover_the_accumulator_groups() {
            let mut seen = [false; 3];
            for seed in 0..400 {
                let mut g = StdRng::seed_from_u64(seed);
                let n = SIZES[seed as usize % SIZES.len()];
                let data = table(&mut g, n, seed % 2 == 0, seed % 3 != 0);
                let projection = TableProjection::new(&data);
                let (mask, masked, opts) = state(&mut g, n, seed % 2 == 0);
                let view = DatasetView::new(&data, mask.clone(), masked);
                let e = encode_view(&view, &opts);
                let mut numeric = 0;
                for name in &e.feature_names {
                    let c = data.schema().position(name).expect("a feature is a column");
                    let column = projection.column(&data, c);
                    if mask.count_and(column.numeric()) == mask.count_and(column.non_null()) {
                        numeric += 1;
                    } else {
                        let codes = projection.dictionary(&data, c).codes();
                        seen[2] |= mask.iter().any(|r| codes[r] == Dictionary::NULL);
                    }
                }
                seen[0] |= numeric >= 5;
                seen[1] |= numeric > 4 && numeric % 4 != 0;
            }
            assert_eq!(seen, [true; 3]);
        }

        /// The generator reaches the cases the contract names (otherwise
        /// the property above could pass without meeting them).
        #[test]
        fn the_generated_tables_cover_the_named_cases() {
            let mut seen = [false; 6];
            for seed in 0..200 {
                let mut g = StdRng::seed_from_u64(seed);
                let data = table(&mut g, 40, seed % 2 == 0, true);
                let opts = if seed % 2 == 0 {
                    EncodeOptions::classification()
                } else {
                    EncodeOptions::regression()
                };
                let bad_row = (0..40)
                    .find(|&r| data.rows()[r][5] == s("oops"))
                    .expect("one unparsable cell");
                let all = oracle::encode_view(&DatasetView::full(&data), &opts);
                let without = DatasetView::new(
                    &data,
                    RowMask::from_pred(40, |r| r != bad_row),
                    vec![false; COLUMNS.len()],
                );
                let without = oracle::encode_view(&without, &opts);
                let col = all
                    .feature_names
                    .iter()
                    .position(|f| f == "one_bad")
                    .unwrap();
                // Categorical over the pool (ids are whole numbers from 0),
                // numeric once the row is gone (halves appear).
                seen[0] |= all.features.rows().all(|row| row[col].fract() == 0.0);
                seen[1] |= without.features.rows().any(|row| row[col].fract() != 0.0);
                seen[2] |= !all.feature_names.contains(&"empty".to_string());
                // Int(1) and Float(1.0) are one class, Str("1") another.
                let classes = format!("{:?}", all.class_values);
                seen[3] |= classes.contains("Str(\"1\")")
                    && (classes.contains("Int(1)") ^ classes.contains("Float(1.0)"));
                seen[4] |= all.len() < 40 && all.len() >= 8;
                seen[5] |= all
                    .features
                    .rows()
                    .flatten()
                    .any(|x| x.to_bits() == (-0.0f64).to_bits());
            }
            assert_eq!(seen, [true; 6]);
        }
    }
}
