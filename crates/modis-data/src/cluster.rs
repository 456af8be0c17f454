//! Active-domain clustering and literal derivation.
//!
//! The experiments (§6, "Construction of D_U and Operators") apply k-means
//! clustering over the active domain of each attribute (maximum k = 30) and
//! derive one equality/range literal per cluster. This bounds the number of
//! reduct operators per attribute regardless of `|adom(A)|`.

use std::borrow::Cow;
use std::cmp::Reverse;

use crate::column::{Cells, Column};
use crate::dataset::Dataset;
use crate::literal::Literal;
use crate::value::{order_key, Value};

/// One derived cluster of an attribute's active domain.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainCluster {
    /// Attribute the cluster belongs to.
    pub attribute: String,
    /// Cluster index within the attribute.
    pub cluster_id: usize,
    /// Centroid (numeric attributes) or representative value.
    pub centroid: f64,
    /// Literal selecting the cluster's tuples.
    pub literal: Literal,
    /// Number of active-domain values assigned to the cluster.
    pub support: usize,
}

/// Clustering configuration.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Maximum number of clusters per attribute (paper default: 30).
    pub max_k: usize,
    /// Number of Lloyd iterations.
    pub iterations: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            max_k: 30,
            iterations: 25,
        }
    }
}

/// Points the assignment step of [`kmeans_1d`] scans at a time.
const LANES: usize = 8;

/// One-dimensional k-means (Lloyd's algorithm) with deterministic
/// quantile-based initialisation.
///
/// Returns the assignment of every point to a cluster and the centroids.
/// The initial centroids are quantiles of the points sorted by
/// [`order_key`] (NaN last), as a number column's come. A point joins the
/// first nearest centroid, eight points at a time, and a cluster's sum adds
/// its points in point order in a register: the bits of `sums[c] += p`.
pub fn kmeans_1d(points: &[f64], k: usize, iterations: usize) -> (Vec<usize>, Vec<f64>) {
    assert!(k > 0, "k must be positive");
    if points.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let k = k.min(points.len());
    let mut sorted = Cow::Borrowed(points);
    if !points.is_sorted_by_key(|&p| order_key(p)) {
        sorted.to_mut().sort_by_key(|&p| order_key(p));
    }

    // Quantile initialisation keeps the procedure deterministic.
    let mut centroids: Vec<f64> = (0..k)
        .map(|i| {
            let q = (i as f64 + 0.5) / k as f64;
            sorted[((sorted.len() - 1) as f64 * q).round() as usize]
        })
        .collect();
    centroids.dedup();
    while centroids.len() < k {
        // Pad duplicated centroids with small offsets to keep k slots.
        let last = *centroids.last().unwrap();
        centroids.push(last + 1e-9 * centroids.len() as f64);
    }

    let mut assignment = vec![0usize; points.len()];
    let (chunks, rest) = points.as_chunks::<LANES>();
    let mut tail = [0.0; LANES];
    tail[..rest.len()].copy_from_slice(rest);
    for _ in 0..iterations {
        // Assignment step.
        let padded = chunks.iter().chain([&tail]);
        for (chunk, out) in padded.zip(assignment.chunks_mut(LANES)) {
            let (mut best, mut best_d) = ([0u64; LANES], [f64::INFINITY; LANES]);
            for (c, &ctr) in centroids.iter().enumerate() {
                for l in 0..LANES {
                    let d = (chunk[l] - ctr).abs();
                    let closer = d < best_d[l];
                    best_d[l] = if closer { d } else { best_d[l] };
                    best[l] = if closer { c as u64 } else { best[l] };
                }
            }
            out.iter_mut()
                .zip(best)
                .for_each(|(out, c)| *out = c as usize);
        }
        // Update step.
        let (mut sums, mut start) = (vec![(0.0, 0); centroids.len()], 0);
        for run in assignment.chunk_by(|a, b| a == b) {
            let (sum, count) = &mut sums[run[0]];
            *sum = points[start..][..run.len()].iter().fold(*sum, |s, p| s + p);
            (*count, start) = (*count + run.len(), start + run.len());
        }
        let mut moved = false;
        for (centroid, &(sum, count)) in centroids.iter_mut().zip(&sums) {
            if count > 0 {
                let new_c = sum / count as f64;
                moved |= (new_c - *centroid).abs() > 1e-12;
                *centroid = new_c;
            }
        }
        if !moved {
            break;
        }
    }
    (assignment, centroids)
}

/// Derives literals for one attribute of a dataset.
///
/// * Numeric attributes with more than `max_k` distinct values are clustered
///   with 1-D k-means, producing one closed-range literal per cluster.
/// * Small / categorical domains produce one equality literal per distinct
///   value (capped at `max_k` most frequent values).
///
/// The active domain is read from the column's typed storage; no cell is
/// cloned but the one each equality literal keeps.
pub fn derive_attribute_literals(
    data: &Dataset,
    attribute: &str,
    config: &ClusterConfig,
) -> Vec<DomainCluster> {
    let Some(col) = data.schema().position(attribute) else {
        return Vec::new();
    };
    let (column, max_k) = (data.column(col), config.max_k);
    let domain = match &column.cells {
        Cells::Float(v) | Cells::Int(v) => number_domain(column, v, max_k),
        Cells::Str { codes, keys } => string_domain(codes, keys, max_k),
        Cells::Bool(_) | Cells::Mixed(_) => cell_domain(column, max_k),
    };
    let cluster = |cluster_id, centroid, literal, support| DomainCluster {
        attribute: attribute.to_string(),
        cluster_id,
        centroid,
        literal,
        support,
    };
    match domain {
        Domain::Points(points) => {
            let (assignment, centroids) = kmeans_1d(&points, max_k.max(1), config.iterations);
            let mut clusters = vec![None; centroids.len()];
            for (&c, &v) in assignment.iter().zip(&points) {
                let (lo, hi, n) = clusters[c].get_or_insert((f64::INFINITY, f64::NEG_INFINITY, 0));
                (*lo, *hi, *n) = (lo.min(v), hi.max(v), *n + 1);
            }
            let clusters = centroids.into_iter().zip(clusters);
            (clusters.filter_map(|(centroid, cluster)| Some((centroid, cluster?))))
                .enumerate()
                .map(|(i, (mean, (lo, hi, n)))| {
                    cluster(i, mean, Literal::range(attribute, lo, hi), n)
                })
                .collect()
        }
        Domain::Classes(mut classes) => {
            // Frequency-ranked equality literals; the stable sort keeps
            // equally frequent values in `Value` order.
            classes.sort_by_key(|(_, support)| Reverse(*support));
            (classes.into_iter().take(max_k).enumerate())
                .map(|(i, (v, n))| {
                    let centroid = v.as_f64().unwrap_or(i as f64);
                    cluster(i, centroid, Literal::equals(attribute, v.into_owned()), n)
                })
                .collect()
        }
    }
}

/// What the active domain `adom(A)` of one column yields, in `Value`
/// order: k-means points when it holds more than `max_k` values and each
/// reads as a number, else its frequency classes.
///
/// `Value`'s `==` is finer than its `Ord` and not transitive: `Int(2^53)`
/// and `Int(2^53 + 1)` are `Ord`-equal but not `==`, both `==`
/// `Float(2^53)`, and `Float(inf)` is not `==` itself. The values are the
/// cells one per run of adjacent `==` cells (the last in row order), as a
/// collected `BTreeSet` holds them; the classes are those a `BTreeMap` keys.
enum Domain<'a> {
    /// Each value's `f64` reading.
    Points(Vec<f64>),
    /// Per class of `Ord`-equal cells: its first cell in row order and its
    /// number of rows.
    Classes(Vec<(Cow<'a, Value>, usize)>),
}

/// A float or integer column's domain from one sort of its cells'
/// [`order_key`]s: a run of equal keys is one class and one value, but one
/// value per cell when infinite. Only the keys of `±0.0` and NaN stand for
/// more than one bit pattern; their cells are read from the first (class)
/// or last (value) row holding them.
fn number_domain(column: &Column, cells: &[f64], max_k: usize) -> Domain<'static> {
    // A null row holds NaN, whose key sorts last: cut to the non-null
    // count, the sorted keys of every row are those of the cells.
    let mut keys: Vec<u64> = cells.iter().map(|&x| order_key(x)).collect();
    keys.sort_unstable();
    keys.truncate(column.non_null().count());
    let cell = |key: u64, last: bool| {
        if key != order_key(0.0) && key != order_key(f64::NAN) {
            // The inverse of `order_key`.
            return f64::from_bits(if key >> 63 == 1 { key ^ 1 << 63 } else { !key });
        }
        let mut rows = column
            .non_null()
            .iter()
            .filter(|&r| order_key(cells[r]) == key);
        cells[if last { rows.last() } else { rows.next() }.unwrap()]
    };
    let infinite = [f64::INFINITY, f64::NEG_INFINITY].map(order_key);
    let mut values = keys.clone();
    values.dedup_by(|a, b| a == b && !infinite.contains(a));
    if values.len() > max_k {
        return Domain::Points(values.into_iter().map(|key| cell(key, true)).collect());
    }
    let value = match column.cells {
        Cells::Int(_) => |x: f64| Value::Int(x as i64),
        _ => Value::Float,
    };
    let class = |run: &[u64]| (Cow::Owned(value(cell(run[0], false))), run.len());
    Domain::Classes(keys.chunk_by(u64::eq).map(class).collect())
}

/// A string column's domain from counting its dictionary codes: each
/// distinct string, in order, is one value and one class.
fn string_domain<'a>(codes: &[u32], keys: &'a [Value], max_k: usize) -> Domain<'a> {
    let mut rows = vec![0usize; keys.len()];
    for &code in codes {
        // A null row's code is past every key.
        if let Some(n) = rows.get_mut(code as usize) {
            *n += 1;
        }
    }
    let mut order: Vec<usize> = (0..keys.len()).filter(|&k| rows[k] > 0).collect();
    order.sort_unstable_by(|&a, &b| keys[a].cmp(&keys[b]));
    let points: Option<Vec<f64>> = order.iter().map(|&k| keys[k].as_f64()).collect();
    if let Some(points) = points.filter(|points| points.len() > max_k) {
        return Domain::Points(points);
    }
    let class = |&k: &usize| (Cow::Borrowed(&keys[k]), rows[k]);
    Domain::Classes(order.iter().map(class).collect())
}

/// A boolean or mixed column's domain from one stable sort of its non-null
/// rows in `Value` order.
fn cell_domain(column: &Column, max_k: usize) -> Domain<'_> {
    let cell = |r: usize| column.cell(r);
    let mut order: Vec<usize> = column.non_null().iter().collect();
    order.sort_by(|&a, &b| cell(a).cmp(&cell(b)));
    let values = order.chunk_by(|&a, &b| cell(a) == cell(b));
    let points: Option<Vec<f64>> = values
        .map(|run| cell(run[run.len() - 1]).as_f64())
        .collect();
    if let Some(points) = points.filter(|points| points.len() > max_k) {
        return Domain::Points(points);
    }
    let classes = order.chunk_by(|&a, &b| cell(a).cmp(&cell(b)).is_eq());
    Domain::Classes(classes.map(|run| (cell(run[0]), run.len())).collect())
}

/// `derive_attribute_literals` and `kmeans_1d` as they were before the
/// typed passes, the oracles the differential tests below compare with:
/// the active domain from a cloning `BTreeSet`, the frequencies from a
/// cloning `BTreeMap`, k-means that sorts by `partial_cmp` and sums
/// through memory.
#[cfg(test)]
pub(crate) mod oracle {
    use std::collections::BTreeMap;

    use super::{ClusterConfig, DomainCluster};
    use crate::dataset::Dataset;
    use crate::literal::Literal;
    use crate::value::Value;

    pub(crate) fn kmeans_1d(points: &[f64], k: usize, iterations: usize) -> (Vec<usize>, Vec<f64>) {
        assert!(k > 0, "k must be positive");
        if points.is_empty() {
            return (Vec::new(), Vec::new());
        }
        let k = k.min(points.len());
        let mut sorted = points.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));

        // Quantile initialisation keeps the procedure deterministic.
        let mut centroids: Vec<f64> = (0..k)
            .map(|i| {
                let q = (i as f64 + 0.5) / k as f64;
                let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
                sorted[idx]
            })
            .collect();
        centroids.dedup();
        while centroids.len() < k {
            // Pad duplicated centroids with small offsets to keep k slots.
            let last = *centroids.last().unwrap();
            centroids.push(last + 1e-9 * centroids.len() as f64);
        }

        let mut assignment = vec![0usize; points.len()];
        for _ in 0..iterations {
            // Assignment step.
            for (i, &p) in points.iter().enumerate() {
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for (c, &ctr) in centroids.iter().enumerate() {
                    let d = (p - ctr).abs();
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                assignment[i] = best;
            }
            // Update step.
            let mut sums = vec![0.0f64; centroids.len()];
            let mut counts = vec![0usize; centroids.len()];
            for (i, &p) in points.iter().enumerate() {
                sums[assignment[i]] += p;
                counts[assignment[i]] += 1;
            }
            let mut moved = false;
            for c in 0..centroids.len() {
                if counts[c] > 0 {
                    let new_c = sums[c] / counts[c] as f64;
                    if (new_c - centroids[c]).abs() > 1e-12 {
                        moved = true;
                    }
                    centroids[c] = new_c;
                }
            }
            if !moved {
                break;
            }
        }
        (assignment, centroids)
    }

    pub(crate) fn derive_attribute_literals(
        data: &Dataset,
        attribute: &str,
        config: &ClusterConfig,
    ) -> Vec<DomainCluster> {
        let col = match data.schema().position(attribute) {
            Some(c) => c,
            None => return Vec::new(),
        };
        let adom = data.active_domain(col);
        if adom.is_empty() {
            return Vec::new();
        }

        let numeric: Vec<f64> = adom.iter().filter_map(|v| v.as_f64()).collect();
        let all_numeric = numeric.len() == adom.len();

        if all_numeric && adom.len() > config.max_k {
            let k = config.max_k.max(1);
            let (assignment, centroids) = kmeans_1d(&numeric, k, config.iterations);
            let mut clusters: BTreeMap<usize, (f64, f64, usize)> = BTreeMap::new();
            for (i, &c) in assignment.iter().enumerate() {
                let v = numeric[i];
                let e = clusters
                    .entry(c)
                    .or_insert((f64::INFINITY, f64::NEG_INFINITY, 0));
                e.0 = e.0.min(v);
                e.1 = e.1.max(v);
                e.2 += 1;
            }
            clusters
                .into_iter()
                .enumerate()
                .map(|(idx, (c, (lo, hi, support)))| DomainCluster {
                    attribute: attribute.to_string(),
                    cluster_id: idx,
                    centroid: centroids.get(c).copied().unwrap_or((lo + hi) / 2.0),
                    literal: Literal::range(attribute, lo, hi),
                    support,
                })
                .collect()
        } else {
            let mut freq: BTreeMap<Value, usize> = BTreeMap::new();
            for row in data.rows() {
                let v = &row[col];
                if !v.is_null() {
                    *freq.entry(v.clone()).or_insert(0) += 1;
                }
            }
            let mut ranked: Vec<(Value, usize)> = freq.into_iter().collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            ranked
                .into_iter()
                .take(config.max_k)
                .enumerate()
                .map(|(idx, (v, support))| DomainCluster {
                    attribute: attribute.to_string(),
                    cluster_id: idx,
                    centroid: v.as_f64().unwrap_or(idx as f64),
                    literal: Literal::equals(attribute, v),
                    support,
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::view::RowMask;
    use proptest::prelude::*;

    fn numeric_data(n: usize) -> Dataset {
        let schema = Schema::from_names(["x", "label"]);
        let rows = (0..n)
            .map(|i| vec![Value::Float(i as f64), Value::Str(format!("c{}", i % 3))])
            .collect();
        Dataset::from_rows("num", schema, rows).unwrap()
    }

    #[test]
    fn kmeans_partitions_points() {
        let pts: Vec<f64> = vec![0.0, 0.1, 0.2, 10.0, 10.1, 10.2];
        let (assign, centroids) = kmeans_1d(&pts, 2, 20);
        assert_eq!(centroids.len(), 2);
        assert_eq!(assign[0], assign[1]);
        assert_eq!(assign[3], assign[5]);
        assert_ne!(assign[0], assign[3]);
    }

    #[test]
    fn kmeans_handles_k_larger_than_points() {
        let pts = vec![1.0, 2.0];
        let (assign, centroids) = kmeans_1d(&pts, 10, 5);
        assert_eq!(assign.len(), 2);
        assert!(centroids.len() <= 10);
    }

    #[test]
    fn kmeans_empty_input() {
        let (a, c) = kmeans_1d(&[], 3, 5);
        assert!(a.is_empty());
        assert!(c.is_empty());
    }

    #[test]
    fn large_numeric_domains_get_range_literals() {
        let data = numeric_data(100);
        let cfg = ClusterConfig {
            max_k: 5,
            iterations: 20,
        };
        let clusters = derive_attribute_literals(&data, "x", &cfg);
        assert_eq!(clusters.len(), 5);
        assert!(clusters
            .iter()
            .all(|c| matches!(c.literal.condition, crate::literal::Condition::Range { .. })));
        // Every row is covered by exactly one cluster literal.
        let masks: Vec<_> = clusters.iter().map(|c| c.literal.mask(&data)).collect();
        for r in 0..data.num_rows() {
            assert_eq!(masks.iter().filter(|m| m.get(r)).count(), 1);
        }
    }

    #[test]
    fn small_domains_get_equality_literals() {
        let data = numeric_data(30);
        let cfg = ClusterConfig::default();
        let clusters = derive_attribute_literals(&data, "label", &cfg);
        assert_eq!(clusters.len(), 3);
        assert!(clusters
            .iter()
            .all(|c| matches!(c.literal.condition, crate::literal::Condition::Equals(_))));
    }

    #[test]
    fn unknown_attribute_yields_empty() {
        let data = numeric_data(10);
        assert!(derive_attribute_literals(&data, "nope", &ClusterConfig::default()).is_empty());
    }

    /// The one declared change from the old kernel: the initial centroids
    /// are quantiles of the points with NaN last, where the old
    /// `partial_cmp` sort left the order around a NaN to std's sort. Only a
    /// string or mixed column's readings come unsorted, as this column's do.
    #[test]
    fn a_nan_point_sorts_last_where_the_old_kernel_left_it() {
        let (_, centroids) = kmeans_1d(&[f64::NAN, 2.0, 1.0], 3, 0);
        assert_eq!(format!("{centroids:?}"), "[1.0, 2.0, NaN]");
        let cells = [
            Value::Str("27 ".into()),
            Value::Float(5.0),
            Value::Bool(true),
            Value::Float(f64::NAN),
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Float(f64::NEG_INFINITY),
            Value::Bool(false),
            Value::Float(f64::NAN),
            Value::Str("8 ".into()),
            Value::Str("11 ".into()),
            Value::Int(-20),
        ];
        let rows = cells.into_iter().map(|v| vec![v]).collect();
        let data = Dataset::from_rows("mixed", Schema::from_names(["x"]), rows).unwrap();
        let cfg = ClusterConfig {
            max_k: 4,
            iterations: 20,
        };
        let ranges = |clusters: Vec<DomainCluster>| {
            let ranges = clusters.iter().map(|c| c.literal.to_string());
            ranges.collect::<Vec<_>>().join(" | ")
        };
        let got = ranges(derive_attribute_literals(&data, "x", &cfg));
        let want = "x ∈ [-inf, -inf] | x ∈ [-20, 1] | x ∈ [5, 11] | x ∈ [27, 27]";
        assert_eq!(got, want);
        // The old kernel gave x ∈ [-inf, -inf] | x ∈ [-20, 8] | x ∈ [11, 27].
        let old = ranges(oracle::derive_attribute_literals(&data, "x", &cfg));
        assert_ne!(got, old);
    }

    /// One cell of a drawn column. `kind` picks the column's mixture: 0
    /// numbers with the edge cases of `Value`'s order (2^53 and 2^53 + 1,
    /// NaN, ±inf, ±0.0, floats equal to an `Int`), 1 plain floats, 2
    /// strings (padded numeric and plain), 3 padded numeric strings only, 4
    /// booleans, 5 everything, 6 nothing but nulls, 7 kind 0's numbers as
    /// floats (a float column), 8 integers (an integer column).
    fn drawn_cell(kind: usize, draw: u64) -> Value {
        const TWO_53: i64 = 1 << 53;
        let pick = (draw % 23) as usize;
        let n = (draw >> 8) % 40;
        let number = match pick % 12 {
            0 => Value::Int(TWO_53),
            1 if draw & 1 == 0 => Value::Int(TWO_53 + 1),
            1 => Value::Float(TWO_53 as f64),
            2 => Value::Float(f64::NAN),
            3 => Value::Float(f64::INFINITY),
            4 => Value::Float(f64::NEG_INFINITY),
            5 => Value::Float(-0.0),
            6 => Value::Float(0.0),
            7 => Value::Float(n as f64),
            8 | 9 => Value::Int(n as i64 - 20),
            _ => Value::Float(n as f64 / 8.0 - 2.5),
        };
        let text = match pick % 4 {
            0 => Value::Str(format!(" {n}")),
            1 => Value::Str(format!("{n} ")),
            2 => Value::Str(["north", "south", "east"][(n % 3) as usize].into()),
            _ => Value::Str(format!("s{}", n % 7)),
        };
        if pick == 22 && kind != 1 {
            return Value::Null;
        }
        match kind {
            0 => number,
            1 => Value::Float((draw >> 8) as f64 / (1u64 << 50) as f64),
            2 => text,
            3 => Value::Str(format!("{:>3}", n % 9)),
            4 => Value::Bool(draw & 1 == 1),
            5 => [number, text, Value::Bool(draw & 1 == 1)]
                .into_iter()
                .nth((draw >> 40) as usize % 3)
                .unwrap(),
            7 => Value::Float(number.as_f64().unwrap()),
            8 => Value::Int(number.as_f64().unwrap().clamp(-1e18, 1e18) as i64),
            _ => Value::Null,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        /// The sorted-pass derivation returns exactly what the cloning
        /// oracle returns (the sign of zero included), and every literal's
        /// resolved-column mask equals the per-row test.
        #[test]
        fn sorted_pass_derivation_matches_the_cloning_oracle(
            kind in 0usize..9,
            draws in prop::collection::vec(any::<u64>(), 0..90),
        ) {
            let rows: Vec<Vec<Value>> = draws
                .iter()
                .enumerate()
                .map(|(i, &d)| vec![Value::Int(i as i64), drawn_cell(kind, d)])
                .collect();
            let data = Dataset::from_rows("drawn", Schema::from_names(["id", "x"]), rows).unwrap();
            // The declared change (see the test above): readings with a NaN
            // before a smaller one, whose order the old sort left to std
            // (which may panic), start from the NaN-last order.
            let readings: Option<Vec<f64>> = data.active_domain(1).iter().map(Value::as_f64).collect();
            let changed = readings.is_some_and(|r| r.iter().any(|x| x.is_nan()) && !r.is_sorted_by_key(|&x| order_key(x)));
            for max_k in [1, 2, 4, 30] {
                let cfg = ClusterConfig { max_k, iterations: 20 };
                let got = derive_attribute_literals(&data, "x", &cfg);
                if !changed {
                    let want = oracle::derive_attribute_literals(&data, "x", &cfg);
                    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                }
                let extra = [
                    Literal::is_null("x"),
                    Literal::equals("absent", 1),
                    Literal::equals("x", "not in the dictionary"),
                    Literal::equals("x", Value::Null),
                ];
                // The per-row test looks the column up for every row.
                let cells = data.rows();
                for literal in got.iter().map(|c| &c.literal).chain(&extra) {
                    let col = || data.schema().position(&literal.attribute);
                    let matches = |r: usize| col().is_some_and(|c| literal.matches_value(&cells[r][c]));
                    prop_assert_eq!(literal.mask(&data), RowMask::from_pred(cells.len(), matches));
                }
            }
        }

        /// The chunked kernel returns the oracle's assignments and
        /// centroids on sorted points of every length modulo 8 (`shape` 0:
        /// kind 0's numbers, NaN and ±inf among them; 1: near-equal numbers
        /// at 2^53, where `fl(p - c)` ties; 2: n near k, which pads the
        /// quantiles), and on the same points unsorted if none is NaN. A
        /// NaN's sign and payload are no value's (LLVM may commute an add).
        #[test]
        fn the_chunked_kernel_matches_the_oracle_bit_for_bit(
            shape in 0usize..3,
            draws in prop::collection::vec(any::<u64>(), 0..1100),
            k in 1usize..40,
            iterations in 0usize..26,
        ) {
            let n = if shape == 2 { draws.len() % (k + 3) } else { draws.len() };
            let point = |&d: &u64| match shape {
                0 => drawn_cell(0, d).as_f64().unwrap_or(0.5),
                1 => (1u64 << 53) as f64 + 2.0 * ((d >> 8) % 64) as f64,
                _ => (d % 3) as f64,
            };
            let points: Vec<f64> = draws[..n].iter().map(point).collect();
            let mut sorted = points.clone();
            sorted.sort_by_key(|&p| order_key(p));
            let bits = |(a, c): (Vec<usize>, Vec<f64>)| {
                (a, c.iter().map(|x| if x.is_nan() { u64::MAX } else { x.to_bits() }).collect::<Vec<_>>())
            };
            let unsorted = Some(&points).filter(|points| !points.iter().any(|p| p.is_nan()));
            for points in [Some(&sorted), unsorted].into_iter().flatten() {
                prop_assert_eq!(
                    bits(kmeans_1d(points, k, iterations)),
                    bits(oracle::kmeans_1d(points, k, iterations))
                );
            }
        }
    }
}
