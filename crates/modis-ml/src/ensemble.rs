//! What the ensembles share: the one-vs-rest stages of the two
//! classifiers that fit one model per class (gradient boosting and logistic
//! regression), the scores and label those stages answer, and the summed
//! tree importance of every tree ensemble.
//!
//! A binary problem is one stage whose positive class is `1`; `k > 2`
//! classes are `k` stages, stage `c` taking class `c` as positive. A
//! float operation here must keep its operands and its order: every fit,
//! score and importance is pinned bit for bit (`tests/pinned_outputs.rs`).

use std::cmp::Ordering;

use crate::tree::DecisionTree;

/// The logistic link.
pub(crate) fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Number of one-vs-rest stages for `n_classes ≥ 2` classes.
pub(crate) fn stage_count(n_classes: usize) -> usize {
    if n_classes == 2 {
        1
    } else {
        n_classes
    }
}

/// Stage `c`'s targets: `1.0` where the rounded label is the stage's
/// positive class, `0.0` elsewhere.
pub(crate) fn stage_targets(y: &[f64], n_classes: usize, c: usize) -> Vec<f64> {
    let positive = if n_classes == 2 { 1 } else { c };
    y.iter()
        .map(|&v| f64::from(u8::from(v.round() as usize == positive)))
        .collect()
}

/// Per-class scores from the stages' margins: `[1 − p, p]` of the one
/// binary stage, or each stage's probability normalised over the stages.
pub(crate) fn class_scores<S>(
    stages: &[S],
    n_classes: usize,
    margin: impl Fn(&S) -> f64,
) -> Vec<f64> {
    if n_classes == 2 {
        let p1 = sigmoid(margin(&stages[0]));
        vec![1.0 - p1, p1]
    } else {
        let mut scores: Vec<f64> = stages.iter().map(|s| sigmoid(margin(s))).collect();
        normalise(&mut scores);
        scores
    }
}

/// The class of the highest score (the last of equal ones); `0.0` when
/// there are no scores.
pub(crate) fn label(scores: &[f64]) -> f64 {
    scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(Ordering::Equal))
        .map(|(c, _)| c as f64)
        .unwrap_or(0.0)
}

/// Divides every value by their sum when the sum is positive.
pub(crate) fn normalise(values: &mut [f64]) {
    let total: f64 = values.iter().sum();
    if total > 0.0 {
        for v in values {
            *v /= total;
        }
    }
}

/// The trees' impurity importances summed feature by feature, in tree
/// order, and normalised to sum to 1 when any split happened.
pub(crate) fn importance<'a>(trees: impl IntoIterator<Item = &'a DecisionTree>) -> Vec<f64> {
    let mut trees = trees.into_iter().peekable();
    let mut imp = vec![0.0; trees.peek().map_or(0, |t| t.n_features())];
    for t in trees {
        for (sum, v) in imp.iter_mut().zip(t.feature_importance()) {
            *sum += v;
        }
    }
    normalise(&mut imp);
    imp
}
