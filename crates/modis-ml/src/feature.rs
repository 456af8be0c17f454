//! Feature scoring: Fisher score and mutual information.
//!
//! The paper reports `p_Fsc` (Fisher score) and `p_MI` (mutual information)
//! as secondary measures for tasks T1 and T2 (Table 3), and the SkSFM / H2O
//! baselines select features by such scores.

use std::collections::BTreeMap;

use crate::matrix::Matrix;

/// Fisher score of one feature for a labelled dataset.
///
/// `F(j) = Σ_c n_c (μ_{c,j} − μ_j)² / Σ_c n_c σ²_{c,j}`; larger is better.
/// Returns 0 when the denominator vanishes. Classes are summed in ascending
/// label order, so the score of one input is one bit pattern.
pub(crate) fn fisher_score_feature(values: &[f64], labels: &[f64]) -> f64 {
    if values.len() != labels.len() || values.is_empty() {
        return 0.0;
    }
    let overall_mean = values.iter().sum::<f64>() / values.len() as f64;
    let mut groups: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
    for (&v, &l) in values.iter().zip(labels.iter()) {
        groups.entry(l.round() as i64).or_default().push(v);
    }
    let mut num = 0.0;
    let mut den = 0.0;
    for vs in groups.values() {
        let n = vs.len() as f64;
        let mean = vs.iter().sum::<f64>() / n;
        let var = vs.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        num += n * (mean - overall_mean).powi(2);
        den += n * var;
    }
    if num < 1e-12 {
        0.0
    } else {
        // A vanishing within-class variance means perfect separation; clamp
        // the denominator so the score stays finite but large.
        num / den.max(1e-9)
    }
}

/// Fills `col` with column `j` of the row-major matrix `x`, reusing the
/// buffer so per-feature scoring costs no allocation.
fn fill_column(x: &Matrix, j: usize, col: &mut Vec<f64>) {
    col.clear();
    col.extend(x.rows().map(|r| r[j]));
}

/// Mean Fisher score of a feature matrix against labels.
pub fn fisher_score(x: &Matrix, labels: &[f64]) -> f64 {
    let d = x.n_cols();
    if d == 0 {
        return 0.0;
    }
    let mut sum = 0.0;
    let mut col = Vec::with_capacity(x.len());
    for j in 0..d {
        fill_column(x, j, &mut col);
        sum += fisher_score_feature(&col, labels);
    }
    sum / d as f64
}

/// Per-feature Fisher scores.
pub fn fisher_scores(x: &Matrix, labels: &[f64]) -> Vec<f64> {
    let d = x.n_cols();
    let mut col = Vec::with_capacity(x.len());
    (0..d)
        .map(|j| {
            fill_column(x, j, &mut col);
            fisher_score_feature(&col, labels)
        })
        .collect()
}

/// Equal-width discretisation of a continuous slice into `bins` buckets.
pub(crate) fn discretise(values: &[f64], bins: usize) -> Vec<usize> {
    if values.is_empty() || bins == 0 {
        return vec![0; values.len()];
    }
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !(max - min).is_finite() || (max - min) < 1e-12 {
        return vec![0; values.len()];
    }
    values
        .iter()
        .map(|&v| {
            let b = ((v - min) / (max - min) * bins as f64).floor() as usize;
            b.min(bins - 1)
        })
        .collect()
}

/// Mutual information (nats) between two discretised variables, summed over
/// the occupied cells in ascending `(x, y)` order.
pub(crate) fn mutual_information_discrete(xs: &[usize], ys: &[usize]) -> f64 {
    if xs.len() != ys.len() || xs.is_empty() {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mut joint: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let mut px: BTreeMap<usize, f64> = BTreeMap::new();
    let mut py: BTreeMap<usize, f64> = BTreeMap::new();
    for (&x, &y) in xs.iter().zip(ys.iter()) {
        *joint.entry((x, y)).or_insert(0.0) += 1.0;
        *px.entry(x).or_insert(0.0) += 1.0;
        *py.entry(y).or_insert(0.0) += 1.0;
    }
    let mut mi = 0.0;
    for ((x, y), &c) in &joint {
        let pxy = c / n;
        let p_x = px[x] / n;
        let p_y = py[y] / n;
        mi += pxy * (pxy / (p_x * p_y)).ln();
    }
    mi.max(0.0)
}

/// Mutual information between a continuous feature and labels, using
/// equal-width binning of the feature.
pub(crate) fn mutual_information_feature(values: &[f64], labels: &[f64], bins: usize) -> f64 {
    let xs = discretise(values, bins);
    let ys: Vec<usize> = labels
        .iter()
        .map(|&l| l.round().max(0.0) as usize)
        .collect();
    mutual_information_discrete(&xs, &ys)
}

/// Mean mutual information of a feature matrix against labels.
pub fn mutual_information(x: &Matrix, labels: &[f64], bins: usize) -> f64 {
    let d = x.n_cols();
    if d == 0 {
        return 0.0;
    }
    let mut sum = 0.0;
    let mut col = Vec::with_capacity(x.len());
    for j in 0..d {
        fill_column(x, j, &mut col);
        sum += mutual_information_feature(&col, labels, bins);
    }
    sum / d as f64
}

/// Per-feature mutual information scores.
pub fn mutual_information_scores(x: &Matrix, labels: &[f64], bins: usize) -> Vec<f64> {
    let d = x.n_cols();
    let mut col = Vec::with_capacity(x.len());
    (0..d)
        .map(|j| {
            fill_column(x, j, &mut col);
            mutual_information_feature(&col, labels, bins)
        })
        .collect()
}

/// Selects the indices of the top-`k` features by a score vector
/// (descending); ties broken by index.
pub fn top_k_features(scores: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx.truncate(k);
    idx
}

/// `fisher_score` and `mutual_information` as they were on a `Vec` of row
/// `Vec`s: the oracle the differential test compares the `Matrix` bodies
/// with.
#[cfg(test)]
mod oracle {
    use super::{fisher_score_feature, mutual_information_feature};

    fn fill_column(x: &[Vec<f64>], j: usize, col: &mut Vec<f64>) {
        col.clear();
        col.extend(x.iter().map(|r| r[j]));
    }

    pub fn fisher_score(x: &[Vec<f64>], labels: &[f64]) -> f64 {
        let d = x.first().map(|r| r.len()).unwrap_or(0);
        if d == 0 {
            return 0.0;
        }
        let mut sum = 0.0;
        let mut col = Vec::with_capacity(x.len());
        for j in 0..d {
            fill_column(x, j, &mut col);
            sum += fisher_score_feature(&col, labels);
        }
        sum / d as f64
    }

    pub fn mutual_information(x: &[Vec<f64>], labels: &[f64], bins: usize) -> f64 {
        let d = x.first().map(|r| r.len()).unwrap_or(0);
        if d == 0 {
            return 0.0;
        }
        let mut sum = 0.0;
        let mut col = Vec::with_capacity(x.len());
        for j in 0..d {
            fill_column(x, j, &mut col);
            sum += mutual_information_feature(&col, labels, bins);
        }
        sum / d as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Mean and per-feature scores of a matrix are, bit for bit, the
        /// scores of the same cells held as rows.
        #[test]
        fn scores_of_a_matrix_are_the_scores_of_its_rows(
            seed in any::<u64>(),
            n in 0usize..60,
            d in 0usize..7,
            n_classes in 1usize..5,
        ) {
            let mut g = StdRng::seed_from_u64(seed);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    (0..d)
                        .map(|j| match j % 3 {
                            0 => g.gen_range(-4.0..4.0),
                            1 => g.gen_range(0..4usize) as f64,
                            _ => 1.5,
                        })
                        .collect()
                })
                .collect();
            let labels: Vec<f64> = (0..n).map(|_| g.gen_range(0..n_classes) as f64).collect();
            let x = Matrix::from_rows(&rows);
            let fisher = fisher_score(&x, &labels);
            let mi = mutual_information(&x, &labels, 6);
            prop_assert_eq!(fisher.to_bits(), oracle::fisher_score(&rows, &labels).to_bits());
            prop_assert_eq!(mi.to_bits(), oracle::mutual_information(&rows, &labels, 6).to_bits());
            // The means are the per-feature scores added in column order.
            let mean = |scores: Vec<f64>| match scores.len() {
                0 => 0.0,
                d => scores.iter().fold(0.0, |sum, s| sum + s) / d as f64,
            };
            prop_assert_eq!(mean(fisher_scores(&x, &labels)).to_bits(), fisher.to_bits());
            prop_assert_eq!(mean(mutual_information_scores(&x, &labels, 6)).to_bits(), mi.to_bits());
        }
    }

    #[test]
    fn fisher_score_separable_feature_is_large() {
        let values: Vec<f64> = (0..40).map(|i| if i < 20 { 0.0 } else { 10.0 }).collect();
        let labels: Vec<f64> = (0..40).map(|i| if i < 20 { 0.0 } else { 1.0 }).collect();
        assert!(fisher_score_feature(&values, &labels) > 100.0);
        // Perfectly separated classes with zero within-class variance.
        let noise: Vec<f64> = (0..40).map(|i| (i % 4) as f64).collect();
        assert!(fisher_score_feature(&noise, &labels) < 1.0);
    }

    #[test]
    fn fisher_score_handles_constant_feature() {
        let values = vec![1.0; 10];
        let labels: Vec<f64> = (0..10).map(|i| (i % 2) as f64).collect();
        assert_eq!(fisher_score_feature(&values, &labels), 0.0);
    }

    #[test]
    fn discretise_assigns_bins() {
        let bins = discretise(&[0.0, 0.5, 1.0], 2);
        assert_eq!(bins, vec![0, 1, 1]);
        assert_eq!(discretise(&[3.0, 3.0], 4), vec![0, 0]);
        assert!(discretise(&[], 4).is_empty());
    }

    #[test]
    fn mutual_information_of_identical_variables_is_entropy() {
        let xs: Vec<usize> = (0..100).map(|i| i % 2).collect();
        let mi = mutual_information_discrete(&xs, &xs);
        assert!((mi - (2.0f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn mutual_information_of_independent_variables_is_small() {
        let xs: Vec<usize> = (0..1000).map(|i| i % 2).collect();
        let ys: Vec<usize> = (0..1000).map(|i| (i / 2) % 2).collect();
        assert!(mutual_information_discrete(&xs, &ys) < 0.01);
    }

    #[test]
    fn feature_matrix_scores() {
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![if i < 30 { 0.0 } else { 5.0 }, (i % 3) as f64])
            .collect();
        let x = Matrix::from_rows(&rows);
        let y: Vec<f64> = (0..60).map(|i| if i < 30 { 0.0 } else { 1.0 }).collect();
        let fs = fisher_scores(&x, &y);
        assert!(fs[0] > fs[1]);
        let mis = mutual_information_scores(&x, &y, 5);
        assert!(mis[0] > mis[1]);
        assert!(fisher_score(&x, &y) > 0.0);
        assert!(mutual_information(&x, &y, 5) > 0.0);
    }

    /// A float sum over three or more groups depends on the order of its
    /// addends; with a per-instance hash order these differed in their last
    /// bits from call to call.
    #[test]
    fn scores_over_three_groups_are_one_bit_pattern() {
        let rows: Vec<Vec<f64>> = (0..90)
            .map(|i| {
                let i = i as f64;
                vec![(i * 0.37).sin() * 3.1, (i * 1.3).cos() + i / 7.0, i % 5.0]
            })
            .collect();
        let x = Matrix::from_rows(&rows);
        let labels: Vec<f64> = (0..90).map(|i| ((i * 7) % 4) as f64).collect();
        let fisher = fisher_score(&x, &labels).to_bits();
        let mi = mutual_information(&x, &labels, 6).to_bits();
        for _ in 0..25 {
            assert_eq!(fisher_score(&x, &labels).to_bits(), fisher);
            assert_eq!(mutual_information(&x, &labels, 6).to_bits(), mi);
        }
    }

    #[test]
    fn top_k_orders_descending() {
        let idx = top_k_features(&[0.1, 0.9, 0.5], 2);
        assert_eq!(idx, vec![1, 2]);
        assert_eq!(top_k_features(&[0.5, 0.5], 5), vec![0, 1]);
    }

    #[test]
    fn empty_inputs_are_safe() {
        assert_eq!(fisher_score(&Matrix::default(), &[]), 0.0);
        assert_eq!(mutual_information(&Matrix::default(), &[], 4), 0.0);
        // Columns without rows score nothing, like no columns at all.
        let no_rows = Matrix::with_capacity(0, 3);
        assert_eq!(fisher_score(&no_rows, &[]).to_bits(), 0.0f64.to_bits());
        assert_eq!(
            mutual_information(&no_rows, &[], 4).to_bits(),
            0.0f64.to_bits()
        );
        assert_eq!(mutual_information_discrete(&[], &[]), 0.0);
    }
}
