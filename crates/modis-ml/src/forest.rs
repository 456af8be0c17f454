//! Random forests (bagged CART trees).
//!
//! Used for the paper's RFhouse model (task T2) and the X-ray peak
//! classifier of the case study. Supports regression (mean of tree outputs)
//! and classification (majority vote, with per-class vote shares usable as
//! scores for AUC).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ensemble;
use crate::matrix::Matrix;
use crate::tree::{Columns, Criterion, DecisionTree, TreeBuilder, TreeParams};

/// Random forest hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree parameters.
    pub tree: TreeParams,
    /// Number of features considered per split (`None` = sqrt of features).
    pub max_features: Option<usize>,
    /// Bootstrap sample fraction.
    pub sample_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 30,
            tree: TreeParams::default(),
            max_features: None,
            sample_fraction: 1.0,
            seed: 42,
        }
    }
}

impl ForestParams {
    /// Classification preset (Gini splits).
    pub fn classification(n_trees: usize) -> Self {
        ForestParams {
            n_trees,
            tree: TreeParams {
                criterion: Criterion::Gini,
                ..TreeParams::default()
            },
            ..Default::default()
        }
    }

    /// Regression preset (MSE splits).
    pub fn regression(n_trees: usize) -> Self {
        ForestParams {
            n_trees,
            ..Default::default()
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    params: ForestParams,
    n_classes: usize,
}

impl RandomForest {
    /// Fits a forest; `n_classes > 0` switches vote-based prediction on.
    /// No tree splits on a feature holding a NaN cell.
    pub fn fit(x: &Matrix, y: &[f64], n_classes: usize, params: ForestParams) -> RandomForest {
        let n = x.len();
        let n_features = x.n_cols();
        let max_features = params
            .max_features
            .or_else(|| Some(((n_features as f64).sqrt().ceil() as usize).max(1)));
        let mut rng = StdRng::seed_from_u64(params.seed);
        let cols = Columns::from_matrix(x);
        let mut builder = TreeBuilder::default();
        let mut trees = Vec::with_capacity(params.n_trees);
        let sample_size = ((n as f64) * params.sample_fraction).round() as usize;
        let sample_size = sample_size.clamp(1.min(n), n.max(1)).min(n);
        for t in 0..params.n_trees {
            let rows: Vec<usize> = (0..sample_size).map(|_| rng.gen_range(0..n)).collect();
            let by: Vec<f64> = rows.iter().map(|&i| y[i]).collect();
            let tree = builder.fit(
                &cols.gather(&rows),
                &by,
                params.tree,
                max_features,
                params.seed.wrapping_add(t as u64 * 7919),
            );
            trees.push(tree);
        }
        RandomForest {
            trees,
            params,
            n_classes,
        }
    }

    /// Raw per-tree mean prediction (regression) for one sample.
    pub fn predict_one(&self, row: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        if self.n_classes > 0 {
            ensemble::label(&self.predict_scores_one(row))
        } else {
            self.trees.iter().map(|t| t.predict_one(row)).sum::<f64>() / self.trees.len() as f64
        }
    }

    /// Per-class vote shares for one sample (classification only).
    pub(crate) fn predict_scores_one(&self, row: &[f64]) -> Vec<f64> {
        let k = self.n_classes.max(1);
        let mut votes = vec![0.0; k];
        for t in &self.trees {
            let c = t.predict_one(row).round() as i64;
            let c = c.clamp(0, (k - 1) as i64) as usize;
            votes[c] += 1.0;
        }
        ensemble::normalise(&mut votes);
        votes
    }

    /// Batch prediction.
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        x.rows().map(|r| self.predict_one(r)).collect()
    }

    /// Batch per-class scores.
    pub fn predict_scores(&self, x: &Matrix) -> Vec<Vec<f64>> {
        x.rows().map(|r| self.predict_scores_one(r)).collect()
    }

    /// Average (over trees) impurity-based feature importance, normalised to
    /// sum to 1 when any split happened.
    pub fn feature_importance(&self) -> Vec<f64> {
        ensemble::importance(&self.trees)
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the forest has no trees.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Parameters used at fit time.
    pub fn params(&self) -> &ForestParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, r2};
    use crate::tree::fixtures::{bits, class_target, matrix, regression_target, SIZES};
    use crate::tree::oracle;
    use proptest::prelude::*;

    /// `RandomForest::fit` as it was before the trees gathered their
    /// bootstrap samples from shared `Columns`: every sampled row cloned,
    /// every tree grown by the previous split search.
    fn old_forest(
        x: &[Vec<f64>],
        y: &[f64],
        n_classes: usize,
        params: ForestParams,
    ) -> RandomForest {
        let n = x.len();
        let n_features = x.first().map(|r| r.len()).unwrap_or(0);
        let max_features = params
            .max_features
            .or_else(|| Some(((n_features as f64).sqrt().ceil() as usize).max(1)));
        let mut rng = StdRng::seed_from_u64(params.seed);
        let trees = (0..params.n_trees)
            .map(|t| {
                let sample_size = ((n as f64) * params.sample_fraction).round() as usize;
                let sample_size = sample_size.clamp(1.min(n), n.max(1)).min(n);
                let (bx, by): (Vec<Vec<f64>>, Vec<f64>) = if n == 0 {
                    (Vec::new(), Vec::new())
                } else {
                    (0..sample_size)
                        .map(|_| {
                            let i = rng.gen_range(0..n);
                            (x[i].clone(), y[i])
                        })
                        .unzip()
                };
                oracle::fit_with_features(
                    &bx,
                    &by,
                    params.tree,
                    max_features,
                    params.seed.wrapping_add(t as u64 * 7919),
                )
            })
            .collect();
        RandomForest {
            trees,
            params,
            n_classes,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Regression and two-class forests predict, bit for bit, what the
        /// same bootstrap draws over the previous split search predict.
        #[test]
        fn forests_predict_what_the_old_kernel_predicts(
            seed in any::<u64>(),
            size in 0usize..6,
            classify in any::<bool>(),
            fraction in 0usize..3,
            subset in 0usize..3,
        ) {
            let mut g = StdRng::seed_from_u64(seed);
            let x = matrix(&mut g, SIZES[size]);
            let probes = matrix(&mut g, 8);
            let (y, n_classes, preset) = if classify {
                (class_target(&mut g, &x, 2), 2, ForestParams::classification(7))
            } else {
                (regression_target(&mut g, &x), 0, ForestParams::regression(7))
            };
            let params = ForestParams {
                max_features: [None, Some(2), Some(100)][subset],
                sample_fraction: [1.0, 0.6, 0.01][fraction],
                seed: seed >> 3,
                ..preset
            };
            let new = RandomForest::fit(&Matrix::from_rows(&x), &y, n_classes, params);
            let old = old_forest(&x, &y, n_classes, params);
            for row in x.iter().chain(probes.iter()) {
                prop_assert_eq!(new.predict_one(row).to_bits(), old.predict_one(row).to_bits());
                prop_assert_eq!(bits(&new.predict_scores_one(row)), bits(&old.predict_scores_one(row)));
            }
            prop_assert_eq!(bits(&new.feature_importance()), bits(&old.feature_importance()));
        }
    }

    /// ROADMAP 1(b): with three classes the Gini sum has three addends, and
    /// in a per-map hash order its last bit — and with it split tie-breaks —
    /// moved from fit to fit.
    #[test]
    fn three_class_forest_is_bit_reproducible_in_one_process() {
        let mut g = StdRng::seed_from_u64(9);
        let rows = matrix(&mut g, 120);
        let labels = class_target(&mut g, &rows, 3);
        let x = Matrix::from_rows(&rows);
        let fit = || {
            let rf = RandomForest::fit(&x, &labels, 3, ForestParams::classification(12));
            let scores: Vec<u64> = rf.predict_scores(&x).iter().flat_map(|s| bits(s)).collect();
            (
                scores,
                bits(&rf.predict(&x)),
                bits(&rf.feature_importance()),
            )
        };
        let first = fit();
        for _ in 1..25 {
            assert_eq!(fit(), first);
        }
    }

    fn make_regression(n: usize) -> (Matrix, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64 / n as f64, ((i * 7) % 13) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0] + 0.1 * r[1]).collect();
        (Matrix::from_rows(&x), y)
    }

    fn make_classification(n: usize) -> (Matrix, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i % 10) as f64, ((i * 3) % 7) as f64])
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| if r[0] >= 5.0 { 1.0 } else { 0.0 })
            .collect();
        (Matrix::from_rows(&x), y)
    }

    #[test]
    fn regression_forest_fits_linear_signal() {
        let (x, y) = make_regression(120);
        let rf = RandomForest::fit(&x, &y, 0, ForestParams::regression(20));
        let pred = rf.predict(&x);
        assert!(r2(&y, &pred) > 0.8, "r2 = {}", r2(&y, &pred));
    }

    #[test]
    fn classification_forest_recovers_threshold_rule() {
        let (x, y) = make_classification(100);
        let rf = RandomForest::fit(&x, &y, 2, ForestParams::classification(15));
        let pred = rf.predict(&x);
        assert!(accuracy(&y, &pred) > 0.95);
    }

    #[test]
    fn scores_sum_to_one() {
        let (x, y) = make_classification(60);
        let rf = RandomForest::fit(&x, &y, 2, ForestParams::classification(9));
        let s = rf.predict_scores_one(x.row(0));
        assert_eq!(s.len(), 2);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn forest_is_deterministic_given_seed() {
        let (x, y) = make_regression(50);
        let a = RandomForest::fit(&x, &y, 0, ForestParams::regression(5));
        let b = RandomForest::fit(&x, &y, 0, ForestParams::regression(5));
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    #[test]
    fn feature_importance_normalised() {
        let (x, y) = make_regression(80);
        let rf = RandomForest::fit(&x, &y, 0, ForestParams::regression(10));
        let imp = rf.feature_importance();
        assert_eq!(imp.len(), 2);
        let sum: f64 = imp.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(imp[0] > imp[1]);
    }

    #[test]
    fn empty_training_data_is_safe() {
        let rf = RandomForest::fit(&Matrix::default(), &[], 0, ForestParams::regression(3));
        assert_eq!(rf.predict_one(&[1.0]), 0.0);
        assert!(!rf.is_empty());
    }
}
