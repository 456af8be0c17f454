//! Downstream tasks: the fixed deterministic models `M` and the raw metric
//! computation behind each performance measure.
//!
//! A [`TaskSpec`] bundles the model kind, the target attribute, the measure
//! set `P` and, for each measure, the raw [`MetricKind`] used to valuate it
//! by actual training + inference (the paper's "actual model inference test"
//! protocol used for final reporting).

use std::time::Instant;

use modis_data::{Dataset, DatasetView};
use modis_ml::encoding::{encode_view_split, EncodeOptions, Encoded};
use modis_ml::feature::{fisher_score, mutual_information};
use modis_ml::forest::{ForestParams, RandomForest};
use modis_ml::gbm::{GbmParams, GradientBoostingClassifier, GradientBoostingRegressor};
use modis_ml::linear::{LogisticRegression, RidgeRegression};
use modis_ml::matrix::Matrix;
use modis_ml::metrics;

use crate::measure::MeasureSet;

/// The model architectures used across the paper's tasks T1–T4 and the case
/// studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Gradient-boosting regressor (GBmovie, T1).
    GradientBoostingRegressor,
    /// Random-forest classifier (RFhouse, T2; X-ray case study).
    RandomForestClassifier,
    /// Random-forest regressor (HAB CI-index example).
    RandomForestRegressor,
    /// Ridge / linear regressor (LRavocado, T3 regression variant).
    LinearRegressor,
    /// Logistic-regression classifier.
    LogisticClassifier,
    /// Gradient-boosting classifier (LightGBM-style LGCmental, T4).
    GradientBoostingClassifier,
}

impl ModelKind {
    /// Whether the model solves a classification task.
    pub(crate) fn is_classification(&self) -> bool {
        matches!(
            self,
            ModelKind::RandomForestClassifier
                | ModelKind::LogisticClassifier
                | ModelKind::GradientBoostingClassifier
        )
    }
}

/// Raw metric attached to each measure of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Classification accuracy.
    Accuracy,
    /// Macro precision.
    Precision,
    /// Macro recall.
    Recall,
    /// Macro F1.
    F1,
    /// One-vs-rest AUC.
    Auc,
    /// Mean squared error.
    Mse,
    /// Mean absolute error.
    Mae,
    /// Root mean squared error.
    Rmse,
    /// R² score.
    R2,
    /// Training cost in nominal seconds: one microsecond per cell of the
    /// training matrix, bias column included (`1e-6 · train rows ·
    /// (features + 1)`). A function of the state alone, so a state valuates
    /// to the same bits every time; the fit's wall clock is reported in
    /// [`TaskEvaluation::train_seconds`] and read by no measure.
    TrainTime,
    /// Mean Fisher score of the features against the (train) labels.
    FisherScore,
    /// Mean mutual information of the features against the (train) labels.
    MutualInfo,
}

impl MetricKind {
    /// Whether a larger raw value is better (used to pick a "best" table
    /// from a skyline set for single-number comparisons).
    pub fn higher_is_better(&self) -> bool {
        matches!(
            self,
            MetricKind::Accuracy
                | MetricKind::Precision
                | MetricKind::Recall
                | MetricKind::F1
                | MetricKind::Auc
                | MetricKind::R2
                | MetricKind::FisherScore
                | MetricKind::MutualInfo
        )
    }
}

/// A fully specified downstream task.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Task name (e.g. `"T1-movie"`).
    pub name: String,
    /// Model architecture.
    pub model: ModelKind,
    /// Target attribute name.
    pub target: String,
    /// Optional join-key attribute excluded from the feature matrix.
    pub key: Option<String>,
    /// The measure set `P` (normalised minimise form).
    pub measures: MeasureSet,
    /// Raw metric backing each measure (aligned with `measures`).
    pub metric_kinds: Vec<MetricKind>,
    /// Train/test split ratio.
    pub train_ratio: f64,
    /// Seed controlling splits and model randomness.
    pub seed: u64,
}

impl TaskSpec {
    /// Encoding options implied by the task.
    pub fn encode_options(&self) -> EncodeOptions {
        let base = if self.model.is_classification() {
            EncodeOptions::classification()
        } else {
            EncodeOptions::regression()
        };
        let base = base.with_target(self.target.clone());
        match &self.key {
            Some(k) => base.with_exclude([k.clone()]),
            None => base,
        }
    }
}

/// Output of one oracle evaluation of a dataset under a task.
#[derive(Debug, Clone)]
pub struct TaskEvaluation {
    /// Raw metric values aligned with the task's measures.
    pub raw: Vec<f64>,
    /// Normalised (minimise-form) performance vector.
    pub normalised: Vec<f64>,
    /// The fit's wall-clock seconds plus the training cost
    /// [`MetricKind::TrainTime`] measures (0 for a degenerate state).
    pub train_seconds: f64,
    /// Reported dataset size `(rows, non-null columns)`.
    pub size: (usize, usize),
}

/// Fitted model wrapper used to compute predictions and scores uniformly.
enum FittedModel {
    GbReg(GradientBoostingRegressor),
    RfCls(RandomForest),
    RfReg(RandomForest),
    Ridge(RidgeRegression),
    Logistic(LogisticRegression),
    GbCls(GradientBoostingClassifier),
}

impl FittedModel {
    fn predict(&self, x: &Matrix) -> Vec<f64> {
        match self {
            FittedModel::GbReg(m) => m.predict(x),
            FittedModel::RfCls(m) | FittedModel::RfReg(m) => m.predict(x),
            FittedModel::Ridge(m) => m.predict(x),
            FittedModel::Logistic(m) => m.predict(x),
            FittedModel::GbCls(m) => m.predict(x),
        }
    }

    fn predict_scores(&self, x: &Matrix) -> Option<Vec<Vec<f64>>> {
        match self {
            FittedModel::RfCls(m) => Some(m.predict_scores(x)),
            FittedModel::Logistic(m) => Some(m.predict_scores(x)),
            FittedModel::GbCls(m) => Some(m.predict_scores(x)),
            _ => None,
        }
    }
}

fn fit_model(kind: ModelKind, train: &Encoded, seed: u64) -> FittedModel {
    let n_classes = train.n_classes.max(2);
    match kind {
        ModelKind::GradientBoostingRegressor => FittedModel::GbReg(GradientBoostingRegressor::fit(
            &train.features,
            &train.targets,
            GbmParams {
                n_estimators: 40,
                ..GbmParams::default()
            },
        )),
        ModelKind::RandomForestClassifier => FittedModel::RfCls(RandomForest::fit(
            &train.features,
            &train.targets,
            n_classes,
            ForestParams {
                seed,
                ..ForestParams::classification(20)
            },
        )),
        ModelKind::RandomForestRegressor => FittedModel::RfReg(RandomForest::fit(
            &train.features,
            &train.targets,
            0,
            ForestParams {
                seed,
                ..ForestParams::regression(20)
            },
        )),
        ModelKind::LinearRegressor => {
            FittedModel::Ridge(RidgeRegression::fit(&train.features, &train.targets, 1.0))
        }
        ModelKind::LogisticClassifier => FittedModel::Logistic(LogisticRegression::fit(
            &train.features,
            &train.targets,
            n_classes,
            0.3,
            150,
        )),
        ModelKind::GradientBoostingClassifier => {
            FittedModel::GbCls(GradientBoostingClassifier::fit(
                &train.features,
                &train.targets,
                n_classes,
                GbmParams {
                    n_estimators: 30,
                    ..GbmParams::default()
                },
            ))
        }
    }
}

/// Trains the task's model on `data` and valuates every raw metric and the
/// normalised performance vector: [`evaluate_dataset_view`] over the whole
/// table.
pub fn evaluate_dataset(task: &TaskSpec, data: &Dataset) -> TaskEvaluation {
    evaluate_dataset_view(task, &DatasetView::full(data))
}

/// Trains the task's model on a zero-copy [`DatasetView`] — reading
/// features straight through the view's selection vector without
/// materialising the table — and valuates every raw metric and the
/// normalised performance vector.
///
/// The encoder writes the train and test matrices directly
/// ([`encode_view_split`]). Degenerate states (fewer than 8 usable rows,
/// or no feature column, after encoding) receive worst-case metrics so the
/// search can simply discard them.
///
/// Byte-identical to `evaluate_dataset(task, &view.to_dataset())`.
pub fn evaluate_dataset_view(task: &TaskSpec, view: &DatasetView<'_>) -> TaskEvaluation {
    let size = view.reported_size();
    let (train, test) =
        encode_view_split(view, &task.encode_options(), task.train_ratio, task.seed);
    if train.len() + test.as_ref().map_or(0, Encoded::len) < 8 || train.num_features() == 0 {
        let raw = worst_case_raw(task);
        let normalised = task.measures.normalise(&raw);
        return TaskEvaluation {
            raw,
            normalised,
            train_seconds: 0.0,
            size,
        };
    }
    // With nothing left to test on, the model is scored on the (unshuffled)
    // matrix it was trained on.
    let test = test.as_ref().unwrap_or(&train);
    let train = &train;

    let cost = 1e-6 * (train.len() as f64) * (train.num_features() as f64 + 1.0);
    let start = Instant::now();
    let model = fit_model(task.model, train, task.seed);
    let train_seconds = start.elapsed().as_secs_f64() + cost;

    let y_true = &test.targets;
    let y_pred = model.predict(&test.features);
    // Per-class scores are a second pass of the model over the test rows;
    // AUC is the one metric that reads them.
    let scores = if task.metric_kinds.contains(&MetricKind::Auc) {
        model.predict_scores(&test.features)
    } else {
        None
    };

    let raw: Vec<f64> = task
        .metric_kinds
        .iter()
        .map(|mk| match mk {
            MetricKind::Accuracy => metrics::accuracy(y_true, &y_pred),
            MetricKind::Precision => metrics::precision(y_true, &y_pred),
            MetricKind::Recall => metrics::recall(y_true, &y_pred),
            MetricKind::F1 => metrics::f1_score(y_true, &y_pred),
            MetricKind::Auc => match &scores {
                Some(s) => metrics::auc_ovr(y_true, s),
                None => 0.5,
            },
            MetricKind::Mse => metrics::mse(y_true, &y_pred),
            MetricKind::Mae => metrics::mae(y_true, &y_pred),
            MetricKind::Rmse => metrics::rmse(y_true, &y_pred),
            MetricKind::R2 => metrics::r2(y_true, &y_pred).max(0.0),
            MetricKind::TrainTime => cost,
            MetricKind::FisherScore => fisher_normalised(train),
            MetricKind::MutualInfo => mi_normalised(train),
        })
        .collect();
    let normalised = task.measures.normalise(&raw);
    TaskEvaluation {
        raw,
        normalised,
        train_seconds,
        size,
    }
}

/// Normalised (squashed to `[0,1)`) mean Fisher score of the training data.
fn fisher_normalised(train: &Encoded) -> f64 {
    let f = fisher_score(&train.features, &train.targets);
    f / (1.0 + f)
}

/// Mean mutual information of the training data, squashed to `[0,1)`.
fn mi_normalised(train: &Encoded) -> f64 {
    let m = mutual_information(&train.features, &train.targets, 8);
    m / (1.0 + m)
}

/// Worst-case raw metric vector for degenerate datasets.
fn worst_case_raw(task: &TaskSpec) -> Vec<f64> {
    task.metric_kinds
        .iter()
        .zip(task.measures.specs().iter())
        .map(|(mk, spec)| {
            if mk.higher_is_better() {
                0.0
            } else {
                spec.scale
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::MeasureSpec;
    use modis_data::{Attribute, Schema, Value};

    fn regression_task() -> TaskSpec {
        TaskSpec {
            name: "toy-reg".into(),
            model: ModelKind::GradientBoostingRegressor,
            target: "y".into(),
            key: Some("id".into()),
            measures: MeasureSet::new(vec![
                MeasureSpec::maximise("p_R2"),
                MeasureSpec::minimise("p_Train", 5.0),
            ]),
            metric_kinds: vec![MetricKind::R2, MetricKind::TrainTime],
            train_ratio: 0.7,
            seed: 3,
        }
    }

    fn regression_data(n: usize) -> Dataset {
        let schema = Schema::from_attributes(vec![
            Attribute::key("id"),
            Attribute::feature("x1"),
            Attribute::feature("x2"),
            Attribute::target("y"),
        ]);
        let rows = (0..n)
            .map(|i| {
                let x1 = (i % 17) as f64;
                let x2 = ((i * 3) % 11) as f64;
                vec![
                    Value::Int(i as i64),
                    Value::Float(x1),
                    Value::Float(x2),
                    Value::Float(2.0 * x1 - x2 + 1.0),
                ]
            })
            .collect();
        Dataset::from_rows("reg", schema, rows).unwrap()
    }

    #[test]
    fn evaluate_regression_dataset_produces_good_r2() {
        let task = regression_task();
        let eval = evaluate_dataset(&task, &regression_data(120));
        assert!(eval.raw[0] > 0.8, "R2 = {}", eval.raw[0]);
        assert!(eval.raw[1] > 0.0);
        assert_eq!(eval.normalised.len(), 2);
        assert!(eval.normalised[0] < 0.2);
        assert_eq!(eval.size.0, 120);
    }

    #[test]
    fn degenerate_dataset_gets_worst_case() {
        let task = regression_task();
        let tiny = regression_data(3);
        let eval = evaluate_dataset(&task, &tiny);
        assert_eq!(eval.raw[0], 0.0);
        assert!((eval.normalised[0] - 0.99).abs() < 0.02);
    }

    #[test]
    fn evaluate_view_matches_evaluate_on_materialised_copy() {
        use modis_data::RowMask;
        let task = regression_task();
        let data = regression_data(120);
        // Select two thirds of the rows, mask the x2 feature.
        let mask = RowMask::from_pred(data.num_rows(), |r| r % 3 != 0);
        let view = DatasetView::new(&data, mask, vec![false, false, true, false]);
        let via_view = evaluate_dataset_view(&task, &view);
        let via_copy = evaluate_dataset(&task, &view.to_dataset());
        assert_eq!(via_view.raw, via_copy.raw);
        assert_eq!(via_view.size, via_copy.size);
        assert_eq!(via_view.normalised, via_copy.normalised);
    }

    #[test]
    fn an_empty_test_split_scores_the_model_on_its_training_matrix() {
        // `train_ratio = 1.0` leaves nothing to test on: the model is fitted
        // on, and scored against, the whole matrix in encoding order.
        let task = TaskSpec {
            model: ModelKind::LinearRegressor,
            measures: MeasureSet::new(vec![
                MeasureSpec::maximise("p_R2"),
                MeasureSpec::minimise("p_MSE", 4.0),
            ]),
            metric_kinds: vec![MetricKind::R2, MetricKind::Mse],
            train_ratio: 1.0,
            ..regression_task()
        };
        let data = regression_data(60);
        let all = modis_ml::encoding::encode(&data, &task.encode_options());
        let model = RidgeRegression::fit(&all.features, &all.targets, 1.0);
        let predicted = model.predict(&all.features);
        let expected = [
            metrics::r2(&all.targets, &predicted).max(0.0),
            metrics::mse(&all.targets, &predicted),
        ];
        let eval = evaluate_dataset(&task, &data);
        assert_eq!(eval.raw[0].to_bits(), expected[0].to_bits());
        assert_eq!(eval.raw[1].to_bits(), expected[1].to_bits());
        assert!(eval.raw[0] > 0.9 && eval.raw[1] > 0.0);
        // One row short of everything is a real split again.
        let split = TaskSpec {
            train_ratio: 0.98,
            ..task
        };
        assert_ne!(
            evaluate_dataset(&split, &data).raw[1].to_bits(),
            expected[1].to_bits()
        );
    }

    /// A linear task scored on R², MSE and MAE.
    fn ridge_task(train_ratio: f64) -> TaskSpec {
        TaskSpec {
            model: ModelKind::LinearRegressor,
            measures: MeasureSet::new(vec![
                MeasureSpec::maximise("p_R2"),
                MeasureSpec::minimise("p_MSE", 4.0),
                MeasureSpec::minimise("p_MAE", 4.0),
            ]),
            metric_kinds: vec![MetricKind::R2, MetricKind::Mse, MetricKind::Mae],
            train_ratio,
            ..regression_task()
        }
    }

    /// A view's valuation trains and scores on exactly the matrices
    /// `encode_view` + `Encoded::split` give — or, when every row trains,
    /// on the whole unshuffled matrix — although the encoder now deals the
    /// rows to their sides as it writes them.
    #[test]
    fn a_view_is_valuated_on_the_split_of_its_encoding() {
        use modis_data::RowMask;
        use modis_ml::encoding::encode_view;
        let data = regression_data(120);
        let mask = RowMask::from_pred(data.num_rows(), |r| r % 5 != 2);
        let view = DatasetView::new(&data, mask, vec![false, false, true, false]);
        for ratio in [0.5, 0.7, 0.98, 1.0] {
            let task = ridge_task(ratio);
            let whole = encode_view(&view, &task.encode_options());
            let (train, test) = whole.split(ratio, task.seed);
            let (train, test) = if test.is_empty() {
                (&whole, &whole)
            } else {
                (&train, &test)
            };
            let model = RidgeRegression::fit(&train.features, &train.targets, 1.0);
            let predicted = model.predict(&test.features);
            let expected = [
                metrics::r2(&test.targets, &predicted).max(0.0),
                metrics::mse(&test.targets, &predicted),
                metrics::mae(&test.targets, &predicted),
            ];
            let eval = evaluate_dataset_view(&task, &view);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&eval.raw), bits(&expected), "ratio {ratio}");
            assert_eq!(eval.size, view.reported_size());
        }
    }

    /// Fewer than 8 usable rows after encoding is a degenerate state, and
    /// rows whose target is null do not count; 8 rows are a real one.
    #[test]
    fn a_view_of_fewer_than_eight_usable_rows_gets_the_worst_case() {
        use modis_data::RowMask;
        let task = ridge_task(0.7);
        let worst = task.measures.normalise(&worst_case_raw(&task));
        let mut data = regression_data(40);
        // Row 3's target is null: selected, but not a usable row.
        data.set_value(3, 3, Value::Null).unwrap();
        for (rows, degenerate) in [(7, true), (8, true), (9, false), (40, false)] {
            let mask = RowMask::from_pred(data.num_rows(), |r| r < rows);
            let view = DatasetView::new(&data, mask, vec![false; 4]);
            let eval = evaluate_dataset_view(&task, &view);
            assert_eq!(eval.normalised == worst, degenerate, "{rows} rows");
            assert_eq!(eval.size, view.reported_size(), "{rows} rows");
        }
        // No feature column left (both masked): degenerate at any size.
        let view = DatasetView::new(&data, RowMask::all(40), vec![false, true, true, false]);
        assert_eq!(evaluate_dataset_view(&task, &view).normalised, worst);
    }

    #[test]
    fn classification_task_metrics() {
        let schema =
            Schema::from_attributes(vec![Attribute::feature("x"), Attribute::target("label")]);
        let rows = (0..100)
            .map(|i| {
                let x = (i % 20) as f64;
                let label = if x >= 10.0 { "hi" } else { "lo" };
                vec![Value::Float(x), Value::Str(label.into())]
            })
            .collect();
        let data = Dataset::from_rows("cls", schema, rows).unwrap();
        let task = TaskSpec {
            name: "toy-cls".into(),
            model: ModelKind::RandomForestClassifier,
            target: "label".into(),
            key: None,
            measures: MeasureSet::new(vec![
                MeasureSpec::maximise("p_Acc"),
                MeasureSpec::maximise("p_F1"),
                MeasureSpec::maximise("p_AUC"),
                MeasureSpec::minimise("p_Train", 5.0),
            ]),
            metric_kinds: vec![
                MetricKind::Accuracy,
                MetricKind::F1,
                MetricKind::Auc,
                MetricKind::TrainTime,
            ],
            train_ratio: 0.7,
            seed: 5,
        };
        let eval = evaluate_dataset(&task, &data);
        assert!(eval.raw[0] > 0.9, "acc = {}", eval.raw[0]);
        assert!(eval.raw[1] > 0.9);
        assert!(eval.raw[2] > 0.9);
        assert!(task.measures.within_bounds(&eval.normalised) || eval.normalised[3] <= 1.0);
    }

    #[test]
    fn metric_kind_direction() {
        assert!(MetricKind::Accuracy.higher_is_better());
        assert!(!MetricKind::Mse.higher_is_better());
        assert!(!MetricKind::TrainTime.higher_is_better());
    }

    #[test]
    fn model_kind_classification_flag() {
        assert!(ModelKind::LogisticClassifier.is_classification());
        assert!(!ModelKind::LinearRegressor.is_classification());
    }
}
