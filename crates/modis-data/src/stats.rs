//! Correlation measures and vector distances.
//!
//! BiMODis maintains a correlation graph `G_C` whose edges connect measures
//! with Spearman correlation coefficient above a threshold θ (§5.3); the
//! diversification distance of DivMODis is the Euclidean distance between
//! performance vectors.

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

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn mismatched_lengths_give_zero_correlation() {
        assert_eq!(pearson(&[1.0], &[1.0, 2.0]), 0.0);
        assert_eq!(spearman(&[1.0], &[1.0, 2.0]), 0.0);
    }
}
