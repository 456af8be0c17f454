//! Model performance metrics (Table 3 of the paper).
//!
//! Regression: MSE, MAE, RMSE, R². Classification: accuracy, precision,
//! recall, F1 (macro-averaged), AUC (binary, one-vs-rest averaged otherwise).
//! Ranking (task T5): Precision@k, Recall@k, NDCG@k.

/// Mean squared error.
pub fn mse(y_true: &[f64], y_pred: &[f64]) -> f64 {
    if y_true.is_empty() {
        return 0.0;
    }
    y_true
        .iter()
        .zip(y_pred.iter())
        .map(|(t, p)| (t - p).powi(2))
        .sum::<f64>()
        / y_true.len() as f64
}

/// Mean absolute error.
pub fn mae(y_true: &[f64], y_pred: &[f64]) -> f64 {
    if y_true.is_empty() {
        return 0.0;
    }
    y_true
        .iter()
        .zip(y_pred.iter())
        .map(|(t, p)| (t - p).abs())
        .sum::<f64>()
        / y_true.len() as f64
}

/// Root mean squared error.
pub fn rmse(y_true: &[f64], y_pred: &[f64]) -> f64 {
    mse(y_true, y_pred).sqrt()
}

/// Coefficient of determination R².
///
/// Returns 0 for an empty or constant target.
pub fn r2(y_true: &[f64], y_pred: &[f64]) -> f64 {
    if y_true.is_empty() {
        return 0.0;
    }
    let mean = y_true.iter().sum::<f64>() / y_true.len() as f64;
    let ss_tot: f64 = y_true.iter().map(|t| (t - mean).powi(2)).sum();
    if ss_tot == 0.0 {
        return 0.0;
    }
    let ss_res: f64 = y_true
        .iter()
        .zip(y_pred.iter())
        .map(|(t, p)| (t - p).powi(2))
        .sum();
    1.0 - ss_res / ss_tot
}

/// Classification accuracy over integer-valued class labels.
pub fn accuracy(y_true: &[f64], y_pred: &[f64]) -> f64 {
    if y_true.is_empty() {
        return 0.0;
    }
    let correct = y_true
        .iter()
        .zip(y_pred.iter())
        .filter(|(t, p)| (t.round() - p.round()).abs() < 0.5)
        .count();
    correct as f64 / y_true.len() as f64
}

/// Per-class confusion counts.
fn confusion(y_true: &[f64], y_pred: &[f64], class: i64) -> (usize, usize, usize) {
    let mut tp = 0;
    let mut fp = 0;
    let mut fne = 0;
    for (t, p) in y_true.iter().zip(y_pred.iter()) {
        let t = t.round() as i64;
        let p = p.round() as i64;
        match (t == class, p == class) {
            (true, true) => tp += 1,
            (false, true) => fp += 1,
            (true, false) => fne += 1,
            _ => {}
        }
    }
    (tp, fp, fne)
}

/// Distinct rounded class labels present in the ground truth.
fn classes(y_true: &[f64]) -> Vec<i64> {
    let mut cs: Vec<i64> = y_true.iter().map(|v| v.round() as i64).collect();
    cs.sort_unstable();
    cs.dedup();
    cs
}

/// `tp / den`, or `0.0` when `den` is 0.
fn ratio(tp: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        tp as f64 / den as f64
    }
}

/// `per_class(tp, fp, fn)` of every class of the ground truth, added from
/// `0.0` in ascending label order, over the number of classes; `0.0` when
/// there are none.
fn macro_average(
    y_true: &[f64],
    y_pred: &[f64],
    per_class: impl Fn(usize, usize, usize) -> f64,
) -> f64 {
    let cs = classes(y_true);
    if cs.is_empty() {
        return 0.0;
    }
    let mut sum = 0.0;
    for c in &cs {
        let (tp, fp, fne) = confusion(y_true, y_pred, *c);
        sum += per_class(tp, fp, fne);
    }
    sum / cs.len() as f64
}

/// Macro-averaged precision.
pub fn precision(y_true: &[f64], y_pred: &[f64]) -> f64 {
    macro_average(y_true, y_pred, |tp, fp, _| ratio(tp, tp + fp))
}

/// Macro-averaged recall.
pub fn recall(y_true: &[f64], y_pred: &[f64]) -> f64 {
    macro_average(y_true, y_pred, |tp, _, fne| ratio(tp, tp + fne))
}

/// Macro-averaged F1 score.
pub fn f1_score(y_true: &[f64], y_pred: &[f64]) -> f64 {
    macro_average(y_true, y_pred, |tp, fp, fne| {
        let (p, r) = (ratio(tp, tp + fp), ratio(tp, tp + fne));
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    })
}

/// Area under the ROC curve for binary labels (`y_true` ∈ {0,1}) given
/// continuous scores. Uses the rank-sum (Mann–Whitney) formulation.
pub(crate) fn auc_binary(y_true: &[f64], scores: &[f64]) -> f64 {
    let pos: Vec<f64> = y_true
        .iter()
        .zip(scores.iter())
        .filter(|(t, _)| t.round() as i64 == 1)
        .map(|(_, s)| *s)
        .collect();
    let neg: Vec<f64> = y_true
        .iter()
        .zip(scores.iter())
        .filter(|(t, _)| t.round() as i64 != 1)
        .map(|(_, s)| *s)
        .collect();
    if pos.is_empty() || neg.is_empty() {
        return 0.5;
    }
    let mut wins = 0.0;
    for p in &pos {
        for n in &neg {
            if p > n {
                wins += 1.0;
            } else if (p - n).abs() < 1e-12 {
                wins += 0.5;
            }
        }
    }
    wins / (pos.len() * neg.len()) as f64
}

/// One-vs-rest macro AUC for multi-class scores.
///
/// `scores[i][c]` is the score of class `c` for sample `i`.
pub fn auc_ovr(y_true: &[f64], scores: &[Vec<f64>]) -> f64 {
    let cs = classes(y_true);
    if cs.is_empty() || scores.is_empty() {
        return 0.5;
    }
    let n_classes = scores[0].len();
    let mut sum = 0.0;
    let mut counted = 0usize;
    for &c in &cs {
        if (c as usize) >= n_classes || c < 0 {
            continue;
        }
        let bin: Vec<f64> = y_true
            .iter()
            .map(|t| if t.round() as i64 == c { 1.0 } else { 0.0 })
            .collect();
        let sc: Vec<f64> = scores.iter().map(|s| s[c as usize]).collect();
        sum += auc_binary(&bin, &sc);
        counted += 1;
    }
    if counted == 0 {
        0.5
    } else {
        sum / counted as f64
    }
}

/// Precision@k for a ranked list of predicted item ids against a relevant set.
pub(crate) fn precision_at_k(ranked: &[usize], relevant: &[usize], k: usize) -> f64 {
    if k == 0 {
        return 0.0;
    }
    let k = k.min(ranked.len());
    if k == 0 {
        return 0.0;
    }
    let hits = ranked[..k].iter().filter(|i| relevant.contains(i)).count();
    hits as f64 / k as f64
}

/// Recall@k.
pub(crate) fn recall_at_k(ranked: &[usize], relevant: &[usize], k: usize) -> f64 {
    if relevant.is_empty() {
        return 0.0;
    }
    let k = k.min(ranked.len());
    let hits = ranked[..k].iter().filter(|i| relevant.contains(i)).count();
    hits as f64 / relevant.len() as f64
}

/// Normalised discounted cumulative gain at k (binary relevance).
pub(crate) fn ndcg_at_k(ranked: &[usize], relevant: &[usize], k: usize) -> f64 {
    if relevant.is_empty() || k == 0 {
        return 0.0;
    }
    let k = k.min(ranked.len());
    let mut dcg = 0.0;
    for (pos, item) in ranked[..k].iter().enumerate() {
        if relevant.contains(item) {
            dcg += 1.0 / ((pos as f64 + 2.0).log2());
        }
    }
    let ideal_hits = relevant.len().min(k);
    let idcg: f64 = (0..ideal_hits)
        .map(|pos| 1.0 / ((pos as f64 + 2.0).log2()))
        .sum();
    if idcg == 0.0 {
        0.0
    } else {
        dcg / idcg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_metrics_perfect_prediction() {
        let y = [1.0, 2.0, 3.0];
        assert_eq!(mse(&y, &y), 0.0);
        assert_eq!(mae(&y, &y), 0.0);
        assert_eq!(rmse(&y, &y), 0.0);
        assert!((r2(&y, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn regression_metrics_known_values() {
        let t = [1.0, 2.0, 3.0];
        let p = [2.0, 2.0, 2.0];
        assert!((mse(&t, &p) - 2.0 / 3.0).abs() < 1e-12);
        assert!((mae(&t, &p) - 2.0 / 3.0).abs() < 1e-12);
        assert!(r2(&t, &p) <= 0.0 + 1e-12);
    }

    #[test]
    fn r2_constant_target_is_zero() {
        assert_eq!(r2(&[5.0, 5.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn classification_metrics_binary() {
        let t = [0.0, 0.0, 1.0, 1.0];
        let p = [0.0, 1.0, 1.0, 1.0];
        assert!((accuracy(&t, &p) - 0.75).abs() < 1e-12);
        // class 0: tp=1 fp=0 fn=1 → P=1, R=0.5; class 1: tp=2 fp=1 fn=0 → P=2/3, R=1
        assert!((precision(&t, &p) - (1.0 + 2.0 / 3.0) / 2.0).abs() < 1e-12);
        assert!((recall(&t, &p) - 0.75).abs() < 1e-12);
        assert!(f1_score(&t, &p) > 0.7 && f1_score(&t, &p) < 0.9);
    }

    #[test]
    fn auc_perfect_and_random() {
        let t = [0.0, 0.0, 1.0, 1.0];
        assert!((auc_binary(&t, &[0.1, 0.2, 0.8, 0.9]) - 1.0).abs() < 1e-12);
        assert!((auc_binary(&t, &[0.9, 0.8, 0.2, 0.1]) - 0.0).abs() < 1e-12);
        assert_eq!(auc_binary(&[1.0, 1.0], &[0.5, 0.5]), 0.5);
    }

    #[test]
    fn auc_ovr_multiclass() {
        let t = [0.0, 1.0, 2.0];
        let scores = vec![
            vec![0.9, 0.05, 0.05],
            vec![0.1, 0.8, 0.1],
            vec![0.1, 0.1, 0.8],
        ];
        assert!((auc_ovr(&t, &scores) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ranking_metrics() {
        let ranked = [3, 1, 7, 2, 9];
        let relevant = [1, 2, 5];
        assert!((precision_at_k(&ranked, &relevant, 2) - 0.5).abs() < 1e-12);
        assert!((recall_at_k(&ranked, &relevant, 5) - 2.0 / 3.0).abs() < 1e-12);
        let n = ndcg_at_k(&ranked, &relevant, 5);
        assert!(n > 0.0 && n < 1.0);
        // Perfect ranking has NDCG 1.
        assert!((ndcg_at_k(&[1, 2, 5], &relevant, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ranking_metrics_edge_cases() {
        assert_eq!(precision_at_k(&[], &[1], 3), 0.0);
        assert_eq!(recall_at_k(&[1], &[], 3), 0.0);
        assert_eq!(ndcg_at_k(&[1], &[], 3), 0.0);
        assert_eq!(precision_at_k(&[1, 2], &[1], 0), 0.0);
    }

    #[test]
    fn empty_inputs_are_safe() {
        assert_eq!(mse(&[], &[]), 0.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
        assert_eq!(f1_score(&[], &[]), 0.0);
    }
}
