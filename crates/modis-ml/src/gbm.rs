//! Gradient boosting machines.
//!
//! * [`GradientBoostingRegressor`] — least-squares boosting with shallow CART
//!   trees (the GBmovie model of task T1).
//! * [`GradientBoostingClassifier`] — binary / one-vs-rest logistic boosting
//!   (the LightGBM-style LGCmental model of task T4).
//! * [`MultiOutputGbm`] — one boosted regressor per output dimension; the
//!   paper's default performance estimator `E` (MO-GBM, §2/§6).

use crate::matrix::Matrix;
use crate::tree::{Columns, Criterion, DecisionTree, TreeBuilder, TreeParams};

/// Hyper-parameters shared by the boosting models.
#[derive(Debug, Clone, Copy)]
pub struct GbmParams {
    /// Number of boosting rounds.
    pub n_estimators: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Parameters of the weak learners.
    pub tree: TreeParams,
}

impl Default for GbmParams {
    fn default() -> Self {
        GbmParams {
            n_estimators: 50,
            learning_rate: 0.1,
            tree: TreeParams {
                max_depth: 3,
                criterion: Criterion::Mse,
                ..TreeParams::default()
            },
        }
    }
}

/// Least-squares gradient boosting regressor.
#[derive(Debug, Clone)]
pub struct GradientBoostingRegressor {
    base: f64,
    trees: Vec<DecisionTree>,
    params: GbmParams,
}

impl GradientBoostingRegressor {
    /// Fits the regressor.
    pub fn fit(x: &Matrix, y: &[f64], params: GbmParams) -> Self {
        Self::fit_columns(
            &Columns::from_matrix(x),
            &mut TreeBuilder::default(),
            y,
            params,
        )
    }

    /// [`Self::fit`] on a matrix already transposed into `cols`, so the
    /// caller can share the columns and the builder with other fits on it.
    fn fit_columns(
        cols: &Columns,
        builder: &mut TreeBuilder,
        y: &[f64],
        params: GbmParams,
    ) -> Self {
        let base = if y.is_empty() {
            0.0
        } else {
            y.iter().sum::<f64>() / y.len() as f64
        };
        let mut preds = vec![base; y.len()];
        let mut residuals = vec![0.0; y.len()];
        let mut trees = Vec::with_capacity(params.n_estimators);
        if cols.n_rows() > 0 {
            for _ in 0..params.n_estimators {
                for ((residual, t), p) in residuals.iter_mut().zip(y).zip(&preds) {
                    *residual = t - p;
                }
                let tree = builder.fit(cols, &residuals, params.tree, None, 0);
                for (i, pred) in preds.iter_mut().enumerate().take(cols.n_rows()) {
                    *pred += params.learning_rate * tree.predict_row(cols, i);
                }
                trees.push(tree);
            }
        }
        GradientBoostingRegressor {
            base,
            trees,
            params,
        }
    }

    /// Predicts one sample.
    pub fn predict_one(&self, row: &[f64]) -> f64 {
        let mut p = self.base;
        for t in &self.trees {
            p += self.params.learning_rate * t.predict_one(row);
        }
        p
    }

    /// Predicts a batch.
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        x.rows().map(|r| self.predict_one(r)).collect()
    }

    /// Normalised impurity-based feature importance.
    pub fn feature_importance(&self) -> Vec<f64> {
        let n_features = self.trees.first().map(|t| t.n_features()).unwrap_or(0);
        let mut imp = vec![0.0; n_features];
        for t in &self.trees {
            for (i, v) in t.feature_importance().iter().enumerate() {
                imp[i] += v;
            }
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }

    /// Number of fitted trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether no boosting rounds were run.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Binary / one-vs-rest gradient boosting classifier with logistic loss.
#[derive(Debug, Clone)]
pub struct GradientBoostingClassifier {
    /// One boosted stage per class (one-vs-rest); binary uses a single stage.
    stages: Vec<(f64, Vec<DecisionTree>)>,
    n_classes: usize,
    params: GbmParams,
}

impl GradientBoostingClassifier {
    /// Fits the classifier for labels in `0..n_classes`.
    pub fn fit(x: &Matrix, y: &[f64], n_classes: usize, params: GbmParams) -> Self {
        let n_classes = n_classes.max(2);
        let n_stages = if n_classes == 2 { 1 } else { n_classes };
        let cols = Columns::from_matrix(x);
        let mut builder = TreeBuilder::default();
        let mut stages = Vec::with_capacity(n_stages);
        let mut gradients = vec![0.0; y.len()];
        for c in 0..n_stages {
            let targets: Vec<f64> = y
                .iter()
                .map(|&v| {
                    let label = v.round() as usize;
                    let positive = if n_classes == 2 {
                        label == 1
                    } else {
                        label == c
                    };
                    if positive {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect();
            let pos_rate = if targets.is_empty() {
                0.5
            } else {
                (targets.iter().sum::<f64>() / targets.len() as f64).clamp(1e-6, 1.0 - 1e-6)
            };
            let base = (pos_rate / (1.0 - pos_rate)).ln();
            let mut raw = vec![base; targets.len()];
            let mut trees = Vec::with_capacity(params.n_estimators);
            if !x.is_empty() {
                for _ in 0..params.n_estimators {
                    for ((gradient, t), r) in gradients.iter_mut().zip(&targets).zip(&raw) {
                        *gradient = t - sigmoid(*r);
                    }
                    let tree = builder.fit(&cols, &gradients, params.tree, None, 0);
                    for (i, r) in raw.iter_mut().enumerate().take(x.len()) {
                        *r += params.learning_rate * tree.predict_row(&cols, i);
                    }
                    trees.push(tree);
                }
            }
            stages.push((base, trees));
        }
        GradientBoostingClassifier {
            stages,
            n_classes,
            params,
        }
    }

    /// Per-class probability scores for one sample.
    pub(crate) fn predict_scores_one(&self, row: &[f64]) -> Vec<f64> {
        if self.n_classes == 2 {
            let (base, trees) = &self.stages[0];
            let mut raw = *base;
            for t in trees {
                raw += self.params.learning_rate * t.predict_one(row);
            }
            let p1 = sigmoid(raw);
            vec![1.0 - p1, p1]
        } else {
            let mut scores: Vec<f64> = self
                .stages
                .iter()
                .map(|(base, trees)| {
                    let mut raw = *base;
                    for t in trees {
                        raw += self.params.learning_rate * t.predict_one(row);
                    }
                    sigmoid(raw)
                })
                .collect();
            let total: f64 = scores.iter().sum();
            if total > 0.0 {
                for s in &mut scores {
                    *s /= total;
                }
            }
            scores
        }
    }

    /// Predicted class label for one sample.
    pub fn predict_one(&self, row: &[f64]) -> f64 {
        self.predict_scores_one(row)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(c, _)| c as f64)
            .unwrap_or(0.0)
    }

    /// Batch prediction.
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        x.rows().map(|r| self.predict_one(r)).collect()
    }

    /// Batch probability scores.
    pub fn predict_scores(&self, x: &Matrix) -> Vec<Vec<f64>> {
        x.rows().map(|r| self.predict_scores_one(r)).collect()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Normalised feature importance aggregated over all stages.
    pub fn feature_importance(&self) -> Vec<f64> {
        let n_features = self
            .stages
            .first()
            .and_then(|(_, trees)| trees.first())
            .map(|t| t.n_features())
            .unwrap_or(0);
        let mut imp = vec![0.0; n_features];
        for (_, trees) in &self.stages {
            for t in trees {
                for (i, v) in t.feature_importance().iter().enumerate() {
                    imp[i] += v;
                }
            }
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }
}

/// Multi-output gradient boosting: one regressor per output dimension.
///
/// This is the paper's default estimator `E`: a single call valuates the
/// entire performance vector of a test `t = (M, D, P)`.
#[derive(Debug, Clone)]
pub struct MultiOutputGbm {
    models: Vec<GradientBoostingRegressor>,
}

impl MultiOutputGbm {
    /// Fits one boosted regressor per column of `y`. The callers hold one
    /// cached feature row per record — tens of rows — so `x` stays a slice
    /// of rows and is copied into a [`Matrix`] here.
    pub fn fit(x: &[Vec<f64>], y: &[Vec<f64>], params: GbmParams) -> Self {
        let n_outputs = y.first().map(|r| r.len()).unwrap_or(0);
        let cols = Columns::from_matrix(&Matrix::from_rows(x));
        let mut builder = TreeBuilder::default();
        let models = (0..n_outputs)
            .map(|k| {
                let yk: Vec<f64> = y.iter().map(|r| r[k]).collect();
                GradientBoostingRegressor::fit_columns(&cols, &mut builder, &yk, params)
            })
            .collect();
        MultiOutputGbm { models }
    }

    /// Predicts the full output vector for one sample.
    pub fn predict_one(&self, row: &[f64]) -> Vec<f64> {
        self.models.iter().map(|m| m.predict_one(row)).collect()
    }

    /// Number of output dimensions.
    pub fn n_outputs(&self) -> usize {
        self.models.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, r2};
    use crate::tree::fixtures::{bits, class_target, matrix, regression_target, SIZES};
    use crate::tree::oracle;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// `GradientBoostingRegressor::fit` as it was before the models shared
    /// `Columns`, composed over the previous split search.
    fn old_regressor(x: &[Vec<f64>], y: &[f64], params: GbmParams) -> GradientBoostingRegressor {
        let base = if y.is_empty() {
            0.0
        } else {
            y.iter().sum::<f64>() / y.len() as f64
        };
        let mut preds = vec![base; y.len()];
        let mut trees = Vec::new();
        if !x.is_empty() {
            for _ in 0..params.n_estimators {
                let residuals: Vec<f64> = y.iter().zip(preds.iter()).map(|(t, p)| t - p).collect();
                let tree = oracle::fit_with_features(x, &residuals, params.tree, None, 0);
                for (i, row) in x.iter().enumerate() {
                    preds[i] += params.learning_rate * tree.predict_one(row);
                }
                trees.push(tree);
            }
        }
        GradientBoostingRegressor {
            base,
            trees,
            params,
        }
    }

    /// `GradientBoostingClassifier::fit` as it was, likewise.
    fn old_classifier(
        x: &[Vec<f64>],
        y: &[f64],
        n_classes: usize,
        params: GbmParams,
    ) -> GradientBoostingClassifier {
        let n_stages = if n_classes == 2 { 1 } else { n_classes };
        let stages = (0..n_stages)
            .map(|c| {
                let positive = if n_classes == 2 { 1 } else { c };
                let targets: Vec<f64> = y
                    .iter()
                    .map(|&v| f64::from(u8::from(v.round() as usize == positive)))
                    .collect();
                let pos_rate = if targets.is_empty() {
                    0.5
                } else {
                    (targets.iter().sum::<f64>() / targets.len() as f64).clamp(1e-6, 1.0 - 1e-6)
                };
                let base = (pos_rate / (1.0 - pos_rate)).ln();
                let mut raw = vec![base; targets.len()];
                let mut trees = Vec::new();
                if !x.is_empty() {
                    for _ in 0..params.n_estimators {
                        let gradients: Vec<f64> = targets
                            .iter()
                            .zip(raw.iter())
                            .map(|(t, r)| t - sigmoid(*r))
                            .collect();
                        let tree = oracle::fit_with_features(x, &gradients, params.tree, None, 0);
                        for (i, row) in x.iter().enumerate() {
                            raw[i] += params.learning_rate * tree.predict_one(row);
                        }
                        trees.push(tree);
                    }
                }
                (base, trees)
            })
            .collect();
        GradientBoostingClassifier {
            stages,
            n_classes,
            params,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(18))]

        /// Regressor, classifier (two and three classes: the weak learners
        /// are `Mse` trees either way) and `MultiOutputGbm` for k = 1…5
        /// predict, bit for bit, what the same models over the previous
        /// split search predict.
        #[test]
        fn boosted_models_predict_what_the_old_kernel_predicts(
            seed in any::<u64>(),
            size in 0usize..6,
            n_outputs in 1usize..6,
        ) {
            let mut g = StdRng::seed_from_u64(seed);
            let x = matrix(&mut g, SIZES[size]);
            let x_matrix = Matrix::from_rows(&x);
            let probes = matrix(&mut g, 8);
            let rows = || x.iter().chain(probes.iter());
            let params = GbmParams {
                n_estimators: 6,
                ..GbmParams::default()
            };

            let y = regression_target(&mut g, &x);
            let new = GradientBoostingRegressor::fit(&x_matrix, &y, params);
            let old = old_regressor(&x, &y, params);
            for row in rows() {
                prop_assert_eq!(new.predict_one(row).to_bits(), old.predict_one(row).to_bits());
            }
            prop_assert_eq!(bits(&new.feature_importance()), bits(&old.feature_importance()));

            for n_classes in [2, 3] {
                let labels = class_target(&mut g, &x, n_classes);
                let new = GradientBoostingClassifier::fit(&x_matrix, &labels, n_classes, params);
                let old = old_classifier(&x, &labels, n_classes, params);
                for row in rows() {
                    prop_assert_eq!(
                        bits(&new.predict_scores_one(row)),
                        bits(&old.predict_scores_one(row))
                    );
                }
                prop_assert_eq!(bits(&new.feature_importance()), bits(&old.feature_importance()));
            }

            let targets: Vec<Vec<f64>> = (0..n_outputs)
                .map(|_| regression_target(&mut g, &x))
                .collect();
            let ys: Vec<Vec<f64>> = (0..x.len())
                .map(|i| targets.iter().map(|t| t[i]).collect())
                .collect();
            let new = MultiOutputGbm::fit(&x, &ys, params);
            prop_assert_eq!(new.n_outputs(), if x.is_empty() { 0 } else { n_outputs });
            let old: Vec<GradientBoostingRegressor> = targets
                .iter()
                .take(new.n_outputs())
                .map(|t| old_regressor(&x, t, params))
                .collect();
            for row in rows() {
                let old: Vec<f64> = old.iter().map(|m| m.predict_one(row)).collect();
                prop_assert_eq!(bits(&new.predict_one(row)), bits(&old));
            }
        }
    }

    /// ROADMAP 1(b): nothing in a three-class fit depends on a hash order.
    #[test]
    fn three_class_classifier_is_bit_reproducible_in_one_process() {
        let mut g = StdRng::seed_from_u64(5);
        let rows = matrix(&mut g, 90);
        let labels = class_target(&mut g, &rows, 3);
        let x = Matrix::from_rows(&rows);
        let params = GbmParams {
            n_estimators: 5,
            ..GbmParams::default()
        };
        let fit = || {
            let clf = GradientBoostingClassifier::fit(&x, &labels, 3, params);
            let scores: Vec<u64> = clf
                .predict_scores(&x)
                .iter()
                .flat_map(|s| bits(s))
                .collect();
            (scores, bits(&clf.feature_importance()))
        };
        let first = fit();
        for _ in 1..25 {
            assert_eq!(fit(), first);
        }
    }

    #[test]
    fn regressor_fits_quadratic() {
        let x = Matrix::from_rows(&(0..80).map(|i| vec![i as f64 / 10.0]).collect::<Vec<_>>());
        let y: Vec<f64> = x.rows().map(|r| r[0] * r[0]).collect();
        let gbm = GradientBoostingRegressor::fit(&x, &y, GbmParams::default());
        let pred = gbm.predict(&x);
        assert!(r2(&y, &pred) > 0.95);
        assert_eq!(gbm.len(), 50);
    }

    #[test]
    fn regressor_on_empty_data() {
        let gbm = GradientBoostingRegressor::fit(&Matrix::default(), &[], GbmParams::default());
        assert_eq!(gbm.predict_one(&[1.0]), 0.0);
        assert!(gbm.is_empty());
    }

    #[test]
    fn binary_classifier_learns_threshold() {
        let x = Matrix::from_rows(&(0..100).map(|i| vec![(i % 20) as f64]).collect::<Vec<_>>());
        let y: Vec<f64> = x
            .rows()
            .map(|r| if r[0] >= 10.0 { 1.0 } else { 0.0 })
            .collect();
        let clf = GradientBoostingClassifier::fit(&x, &y, 2, GbmParams::default());
        let pred = clf.predict(&x);
        assert!(accuracy(&y, &pred) > 0.95);
        let s = clf.predict_scores_one(x.row(0));
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multiclass_classifier_one_vs_rest() {
        let x = Matrix::from_rows(&(0..90).map(|i| vec![(i % 30) as f64]).collect::<Vec<_>>());
        let y: Vec<f64> = x.rows().map(|r| (r[0] / 10.0).floor()).collect();
        let clf = GradientBoostingClassifier::fit(&x, &y, 3, GbmParams::default());
        let pred = clf.predict(&x);
        assert!(accuracy(&y, &pred) > 0.9);
        assert_eq!(clf.predict_scores_one(x.row(0)).len(), 3);
        assert_eq!(clf.n_classes(), 3);
    }

    #[test]
    fn multioutput_gbm_predicts_vectors() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 10.0]).collect();
        let y: Vec<Vec<f64>> = x
            .iter()
            .map(|r| vec![2.0 * r[0], 1.0 - r[0] / 10.0])
            .collect();
        let mo = MultiOutputGbm::fit(&x, &y, GbmParams::default());
        assert_eq!(mo.n_outputs(), 2);
        let p = mo.predict_one(&[3.0]);
        assert!((p[0] - 6.0).abs() < 0.5);
        assert!((p[1] - 0.7).abs() < 0.1);
    }

    #[test]
    fn feature_importance_sums_to_one_when_trained() {
        let x = Matrix::from_rows(&(0..40).map(|i| vec![i as f64, 0.0]).collect::<Vec<_>>());
        let y: Vec<f64> = x.rows().map(|r| r[0]).collect();
        let gbm = GradientBoostingRegressor::fit(&x, &y, GbmParams::default());
        let imp = gbm.feature_importance();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > imp[1]);
    }
}
