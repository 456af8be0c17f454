//! Active-domain clustering and literal derivation.
//!
//! The experiments (§6, "Construction of D_U and Operators") apply k-means
//! clustering over the active domain of each attribute (maximum k = 30) and
//! derive one equality/range literal per cluster. This bounds the number of
//! reduct operators per attribute regardless of `|adom(A)|`.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BTreeMap;

use crate::column::{order_key, Cells, Column};
use crate::dataset::Dataset;
use crate::literal::Literal;
use crate::value::Value;

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

/// One-dimensional k-means (Lloyd's algorithm) with deterministic
/// quantile-based initialisation.
///
/// Returns the assignment of every point to a cluster and the centroids.
pub fn kmeans_1d(points: &[f64], k: usize, iterations: usize) -> (Vec<usize>, Vec<f64>) {
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

/// Derives literals for one attribute of a dataset.
///
/// * Numeric attributes with more than `max_k` distinct values are clustered
///   with 1-D k-means, producing one closed-range literal per cluster.
/// * Small / categorical domains produce one equality literal per distinct
///   value (capped at `max_k` most frequent values).
///
/// The active domain comes from one sort of the column's non-null row
/// indices (a string column sorts its distinct strings once and its rows by
/// their ranks); no cell is cloned but the one each equality literal keeps.
pub fn derive_attribute_literals(
    data: &Dataset,
    attribute: &str,
    config: &ClusterConfig,
) -> Vec<DomainCluster> {
    let col = match data.schema().position(attribute) {
        Some(c) => c,
        None => return Vec::new(),
    };
    let SortedDomain {
        values: adom,
        mut classes,
    } = SortedDomain::of(data.column(col));
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
        // Frequency-ranked equality literals; the stable sort keeps equally
        // frequent values in `Value` order.
        classes.sort_by_key(|(_, support)| Reverse(*support));
        classes
            .into_iter()
            .take(config.max_k)
            .enumerate()
            .map(|(idx, (v, support))| DomainCluster {
                attribute: attribute.to_string(),
                cluster_id: idx,
                centroid: v.as_f64().unwrap_or(idx as f64),
                literal: Literal::equals(attribute, v.into_owned()),
                support,
            })
            .collect()
    }
}

/// The active domain `adom(A)` of one column, read from a single sort of
/// its non-null rows in `Value` order (row order among equal cells).
///
/// It has two readings because `Value`'s `==` is finer than its `Ord` and
/// not transitive: `Int(2^53)` and `Int(2^53 + 1)` are `Ord`-equal but not
/// `==`, both `==` `Float(2^53)`, and `Float(inf)` is not `==` itself.
/// The k-means points are the distinct values as a collected `BTreeSet`
/// holds them, the frequency ranking counts the classes a `BTreeMap` keys.
struct SortedDomain<'a> {
    /// Of each run of adjacent sorted cells equal under `==`, the last.
    values: Vec<Cow<'a, Value>>,
    /// Per class of `Ord`-equal cells: its first cell in row order and its
    /// number of rows.
    classes: Vec<(Cow<'a, Value>, usize)>,
}

impl<'a> SortedDomain<'a> {
    fn of(column: &'a Column) -> Self {
        let cell = |r: usize| column.cell(r);
        let mut order: Vec<usize> = column.non_null().iter().collect();
        // Cells with an integer key sort by it, the row breaking ties:
        // numbers by their `f64` reading, strings by their rank among the
        // column's sorted distinct strings, booleans as 0 / 1.
        let key_of = |key: &dyn Fn(usize) -> u64| Some(order.iter().map(|&r| key(r)).collect());
        let keys: Option<Vec<u64>> = match &column.cells {
            Cells::Float(v) | Cells::Int(v) => key_of(&|r| order_key(v[r])),
            Cells::Bool(v) => key_of(&|r| u64::from(v[r])),
            Cells::Str { codes, keys } => {
                let mut sorted: Vec<usize> = (0..keys.len()).collect();
                sorted.sort_unstable_by(|&a, &b| keys[a].cmp(&keys[b]));
                let mut rank = vec![0; keys.len()];
                for (i, &k) in sorted.iter().enumerate() {
                    rank[k] = i as u64;
                }
                key_of(&|r| rank[codes[r] as usize])
            }
            Cells::Mixed(_) if order.iter().all(|&r| cell(r).is_numeric()) => {
                key_of(&|r| order_key(cell(r).as_f64().unwrap_or(f64::NAN)))
            }
            Cells::Mixed(_) => None,
        };
        match keys {
            Some(keys) => {
                let mut keyed: Vec<(u64, usize)> = keys.into_iter().zip(order).collect();
                keyed.sort_unstable();
                order = keyed.into_iter().map(|(_, r)| r).collect();
            }
            None => order.sort_by(|&a, &b| cell(a).cmp(&cell(b))),
        }
        let mut domain = SortedDomain {
            values: Vec::new(),
            classes: Vec::new(),
        };
        for (i, &r) in order.iter().enumerate() {
            let v = cell(r);
            if order.get(i + 1).is_none_or(|&next| *cell(next) != *v) {
                domain.values.push(v.clone());
            }
            match domain.classes.last_mut() {
                Some((first, support)) if Value::cmp(first, &v).is_eq() => *support += 1,
                _ => domain.classes.push((v, 1)),
            }
        }
        domain
    }
}

/// `derive_attribute_literals` as it was before it sorted the column once:
/// the active domain from a cloning `BTreeSet`, the frequencies from a
/// cloning `BTreeMap`. The oracle the differential test below compares
/// every derivation with; nothing of it is compiled into the product.
#[cfg(test)]
pub(crate) mod oracle {
    use std::collections::BTreeMap;

    use super::{kmeans_1d, ClusterConfig, DomainCluster};
    use crate::dataset::Dataset;
    use crate::literal::Literal;
    use crate::value::Value;

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

    /// One cell of a drawn column. `kind` picks the column's mixture: 0
    /// numbers with the edge cases of `Value`'s order (2^53 and 2^53 + 1,
    /// NaN, ±inf, ±0.0, floats equal to an `Int`), 1 plain floats, 2
    /// strings (padded numeric and plain), 3 padded numeric strings only, 4
    /// booleans, 5 everything, 6 nothing but nulls.
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
            _ => Value::Null,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        /// The sorted-pass derivation returns exactly what the cloning
        /// oracle returns (the sign of zero included), and every literal's
        /// resolved-column mask equals the per-row oracle mask.
        #[test]
        fn sorted_pass_derivation_matches_the_cloning_oracle(
            kind in 0usize..7,
            draws in prop::collection::vec(any::<u64>(), 0..90),
        ) {
            let rows: Vec<Vec<Value>> = draws
                .iter()
                .enumerate()
                .map(|(i, &d)| vec![Value::Int(i as i64), drawn_cell(kind, d)])
                .collect();
            let data = Dataset::from_rows("drawn", Schema::from_names(["id", "x"]), rows).unwrap();
            for max_k in [1, 2, 4, 30] {
                let cfg = ClusterConfig { max_k, iterations: 20 };
                let got = derive_attribute_literals(&data, "x", &cfg);
                let want = oracle::derive_attribute_literals(&data, "x", &cfg);
                prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                let extra = [Literal::is_null("x"), Literal::equals("absent", 1)];
                for literal in got.iter().map(|c| &c.literal).chain(&extra) {
                    prop_assert_eq!(
                        literal.mask(&data),
                        crate::literal::oracle::mask(literal, &data)
                    );
                }
            }
        }
    }
}
