//! Active-domain clustering and literal derivation.
//!
//! The experiments (§6, "Construction of D_U and Operators") apply k-means
//! clustering over the active domain of each attribute (maximum k = 30) and
//! derive one equality/range literal per cluster. This bounds the number of
//! reduct operators per attribute regardless of `|adom(A)|`.

use std::collections::BTreeMap;

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
pub fn derive_attribute_literals(
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
        // Frequency-ranked equality literals.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

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
        for row in data.rows() {
            let hits = clusters
                .iter()
                .filter(|c| c.literal.matches_row(&data, row))
                .count();
            assert_eq!(hits, 1);
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
}
