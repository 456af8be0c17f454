//! Column statistics and correlation measures.
//!
//! BiMODis maintains a correlation graph `G_C` whose edges connect measures
//! with Spearman correlation coefficient above a threshold θ (§5.3); the
//! diversification distance and several baselines also need column summary
//! statistics.

/// Summary statistics of a numeric column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of non-null numeric cells.
    pub count: usize,
    /// Number of null cells.
    pub nulls: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

impl ColumnStats {
    /// Computes summary statistics from an optional-valued column.
    pub fn from_values(values: &[Option<f64>]) -> ColumnStats {
        let present: Vec<f64> = values
            .iter()
            .filter_map(|v| *v)
            .filter(|v| v.is_finite())
            .collect();
        let nulls = values.len() - present.len();
        if present.is_empty() {
            return ColumnStats {
                count: 0,
                nulls,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let count = present.len();
        let mean = present.iter().sum::<f64>() / count as f64;
        let var = present.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / count as f64;
        let min = present.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = present.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        ColumnStats {
            count,
            nulls,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }
}

/// Mean of a slice (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation of a slice.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Pearson product-moment correlation coefficient.
///
/// Returns 0 when either slice is constant or the lengths differ.
pub(crate) fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    if xs.len() != ys.len() || xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut num = 0.0;
    let mut dx = 0.0;
    let mut dy = 0.0;
    for (x, y) in xs.iter().zip(ys.iter()) {
        num += (x - mx) * (y - my);
        dx += (x - mx).powi(2);
        dy += (y - my).powi(2);
    }
    if dx == 0.0 || dy == 0.0 {
        return 0.0;
    }
    num / (dx.sqrt() * dy.sqrt())
}

/// Fractional ranks (average rank for ties), 1-based.
pub fn ranks(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| {
        xs[a]
            .partial_cmp(&xs[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && (xs[idx[j + 1]] - xs[idx[i]]).abs() < 1e-12 {
            j += 1;
        }
        // Average rank for the tie group [i, j].
        let avg_rank = ((i + 1 + j + 1) as f64) / 2.0;
        for &k in &idx[i..=j] {
            out[k] = avg_rank;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation coefficient: Pearson correlation of the ranks.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    if xs.len() != ys.len() || xs.len() < 2 {
        return 0.0;
    }
    pearson(&ranks(xs), &ranks(ys))
}

/// Euclidean distance between two vectors (shorter vector padded with 0).
pub fn euclidean(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().max(ys.len());
    (0..n)
        .map(|i| {
            let a = xs.get(i).copied().unwrap_or(0.0);
            let b = ys.get(i).copied().unwrap_or(0.0);
            (a - b).powi(2)
        })
        .sum::<f64>()
        .sqrt()
}

/// Cosine similarity between two vectors; 0 if either has zero norm.
pub fn cosine_similarity(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().max(ys.len());
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for i in 0..n {
        let a = xs.get(i).copied().unwrap_or(0.0);
        let b = ys.get(i).copied().unwrap_or(0.0);
        dot += a * b;
        na += a * a;
        nb += b * b;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_stats_basic() {
        let s = ColumnStats::from_values(&[Some(1.0), Some(2.0), Some(3.0), None]);
        assert_eq!(s.count, 3);
        assert_eq!(s.nulls, 1);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn column_stats_empty() {
        let s = ColumnStats::from_values(&[None, None]);
        assert_eq!(s.count, 0);
        assert_eq!(s.nulls, 2);
    }

    #[test]
    fn pearson_perfect_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn ranks_handle_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn spearman_monotonic_nonlinear() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [1.0, 4.0, 9.0, 16.0, 25.0];
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn euclidean_and_cosine() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert_eq!(cosine_similarity(&[0.0], &[1.0]), 0.0);
    }

    #[test]
    fn mismatched_lengths_give_zero_correlation() {
        assert_eq!(pearson(&[1.0], &[1.0, 2.0]), 0.0);
        assert_eq!(spearman(&[1.0], &[1.0, 2.0]), 0.0);
    }
}
