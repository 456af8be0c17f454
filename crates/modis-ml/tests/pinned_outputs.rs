//! What every model family answers, pinned bit for bit.
//!
//! Each family is fitted on the same seeded fixtures (0, 1, 2, 17, 60 and
//! 150 rows; 1–5 features; 2, 3 and 4 classes), and the `to_bits` of
//! everything it answers through the public API — predictions, per-class
//! scores, feature importances, the Table-3 metrics of its predictions —
//! is folded into one FNV-1a hash; the boosted models are also pinned on
//! one paper-shaped fixture at their default 50 rounds (`boosted_fixture`),
//! ridge on six features with cells whose products overflow
//! (`wide_ridge_fixture`), and the encoder on a churn-shaped pool
//! (`churn_pool`). The differential tests inside the crate
//! rebuild a model's fields from an old fit and read them back through the
//! current methods, so they cannot see a changed prediction, score or
//! importance formula; these hashes can. A hash moves only with a change
//! that states it changes results.

use modis_data::{Attribute, Dataset, DatasetView, RowMask, Schema, Value};
use modis_ml::encoding::encode_view_split;
use modis_ml::feature::{
    fisher_score, fisher_scores, mutual_information, mutual_information_scores,
};
use modis_ml::metrics::{accuracy, auc_ovr, f1_score, mae, mse, precision, r2, recall, rmse};
use modis_ml::{
    EncodeOptions, Encoded, ForestParams, GbmParams, GradientBoostingClassifier,
    GradientBoostingRegressor, LogisticRegression, Matrix, MultiOutputGbm, RandomForest,
    RidgeRegression,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over the little-endian bytes of every value folded in.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The length first, so a shape change moves the hash too.
    fn floats(&mut self, values: &[f64]) {
        self.word(values.len() as u64);
        for v in values {
            self.word(v.to_bits());
        }
    }

    fn rows(&mut self, rows: &[Vec<f64>]) {
        self.word(rows.len() as u64);
        for row in rows {
            self.floats(row);
        }
    }
}

struct Fixture {
    x: Matrix,
    rows: Vec<Vec<f64>>,
    probe_rows: Vec<Vec<f64>>,
    probes: Matrix,
    labels: Vec<f64>,
    target: Vec<f64>,
    n_classes: usize,
}

/// One cell of column `j`: continuous, small integers, `±0.0`/`1.0` ties,
/// and a continuous column on another scale.
fn cell(g: &mut StdRng, j: usize) -> f64 {
    match j % 4 {
        0 => g.gen_range(-2.0..2.0),
        1 => g.gen_range(0..5usize) as f64,
        2 => [-0.0, 0.0, 1.0][g.gen_range(0..3usize)],
        _ => g.gen_range(0.0..1000.0),
    }
}

fn fixtures() -> Vec<Fixture> {
    let mut out = Vec::new();
    for (i, n) in [0usize, 1, 2, 17, 60, 150].into_iter().enumerate() {
        for (k, n_classes) in [2usize, 3, 4].into_iter().enumerate() {
            let d = 1 + (i + k) % 5;
            let mut g = StdRng::seed_from_u64((i * 3 + k) as u64);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..d).map(|j| cell(&mut g, j)).collect())
                .collect();
            let probe_rows: Vec<Vec<f64>> = (0..5)
                .map(|_| (0..d).map(|j| cell(&mut g, j)).collect())
                .collect();
            // Labels follow column 0 with one in five drawn at random.
            let labels: Vec<f64> = rows
                .iter()
                .map(|r| {
                    if g.gen_range(0..5usize) == 0 {
                        g.gen_range(0..n_classes) as f64
                    } else {
                        let c = ((r[0] + 2.0) / 4.0 * n_classes as f64).floor();
                        c.clamp(0.0, (n_classes - 1) as f64)
                    }
                })
                .collect();
            let target: Vec<f64> = rows
                .iter()
                .map(|r| r.iter().sum::<f64>() + g.gen_range(-0.5..0.5))
                .collect();
            out.push(Fixture {
                x: Matrix::from_rows(&rows),
                rows,
                probes: Matrix::from_rows(&probe_rows),
                probe_rows,
                labels,
                target,
                n_classes,
            });
        }
    }
    out
}

fn gbm_params() -> GbmParams {
    GbmParams {
        n_estimators: 8,
        ..GbmParams::default()
    }
}

fn regression_metrics(h: &mut Fnv, y: &[f64], pred: &[f64]) {
    h.floats(&[mse(y, pred), mae(y, pred), rmse(y, pred), r2(y, pred)]);
}

fn classification_metrics(h: &mut Fnv, y: &[f64], pred: &[f64], scores: &[Vec<f64>]) {
    h.floats(&[
        accuracy(y, pred),
        precision(y, pred),
        recall(y, pred),
        f1_score(y, pred),
        auc_ovr(y, scores),
    ]);
}

/// Hashes one classifier's predictions, scores and metrics on the training
/// rows and on the probes.
fn classifier_answers(
    h: &mut Fnv,
    f: &Fixture,
    predict: impl Fn(&Matrix) -> Vec<f64>,
    scores: impl Fn(&Matrix) -> Vec<Vec<f64>>,
) {
    let pred = predict(&f.x);
    let s = scores(&f.x);
    h.floats(&pred);
    h.rows(&s);
    classification_metrics(h, &f.labels, &pred, &s);
    h.floats(&predict(&f.probes));
    h.rows(&scores(&f.probes));
}

fn regressor_answers(h: &mut Fnv, f: &Fixture, predict: impl Fn(&Matrix) -> Vec<f64>) {
    let pred = predict(&f.x);
    h.floats(&pred);
    regression_metrics(h, &f.target, &pred);
    h.floats(&predict(&f.probes));
}

fn check(family: &str, actual: u64, pinned: u64) {
    assert_eq!(
        actual, pinned,
        "{family}: {actual:#018x}, pinned {pinned:#018x}"
    );
}

#[test]
fn gradient_boosting_regressor_answers_are_pinned() {
    let mut h = Fnv::new();
    for f in fixtures() {
        let m = GradientBoostingRegressor::fit(&f.x, &f.target, gbm_params());
        regressor_answers(&mut h, &f, |x| m.predict(x));
        h.floats(&m.feature_importance());
        h.word(m.len() as u64);
    }
    check("GradientBoostingRegressor", h.0, 0x28a6_6ada_1662_b930);
}

#[test]
fn gradient_boosting_classifier_answers_are_pinned() {
    let mut h = Fnv::new();
    for f in fixtures() {
        let m = GradientBoostingClassifier::fit(&f.x, &f.labels, f.n_classes, gbm_params());
        classifier_answers(&mut h, &f, |x| m.predict(x), |x| m.predict_scores(x));
        h.floats(&m.feature_importance());
        h.word(m.n_classes() as u64);
    }
    check("GradientBoostingClassifier", h.0, 0xf428_8aa3_581f_6d3a);
}

#[test]
fn logistic_regression_answers_are_pinned() {
    let mut h = Fnv::new();
    for f in fixtures() {
        let m = LogisticRegression::fit(&f.x, &f.labels, f.n_classes, 0.3, 40);
        classifier_answers(&mut h, &f, |x| m.predict(x), |x| m.predict_scores(x));
        h.word(m.n_classes() as u64);
    }
    check("LogisticRegression", h.0, 0x6bf4_0d7c_8a9c_727e);
}

#[test]
fn random_forest_classifier_answers_are_pinned() {
    let mut h = Fnv::new();
    for f in fixtures() {
        let params = ForestParams::classification(9);
        let m = RandomForest::fit(&f.x, &f.labels, f.n_classes, params);
        classifier_answers(&mut h, &f, |x| m.predict(x), |x| m.predict_scores(x));
        h.floats(&m.feature_importance());
    }
    check("RandomForest (classifier)", h.0, 0x8afe_7dd4_76da_3032);
}

#[test]
fn random_forest_regressor_answers_are_pinned() {
    let mut h = Fnv::new();
    for f in fixtures() {
        let m = RandomForest::fit(&f.x, &f.target, 0, ForestParams::regression(9));
        regressor_answers(&mut h, &f, |x| m.predict(x));
        h.floats(&m.feature_importance());
    }
    check("RandomForest (regressor)", h.0, 0x98e1_a58c_bf9f_927e);
}

#[test]
fn ridge_regression_answers_are_pinned() {
    let mut h = Fnv::new();
    for f in fixtures() {
        let m = RidgeRegression::fit(&f.x, &f.target, 1.0);
        regressor_answers(&mut h, &f, |x| m.predict(x));
        h.floats(&m.weights);
        h.word(m.intercept.to_bits());
    }
    check("RidgeRegression", h.0, 0xa89c_0734_5d8d_db39);
}

/// Six features, the widest row `[1, x_1 … x_6, y]` that fits one 8-lane
/// register: `±0.0`, subnormals and `±1e154` / `±3e154` (whose products
/// and sums overflow) beside ordinary cells, in targets too, at row counts
/// on both sides of a register's 8 lanes and of a 64-row word.
fn wide_ridge_fixture(n: usize, seed: u64) -> (Matrix, Vec<f64>, Matrix) {
    let mut g = StdRng::seed_from_u64(seed);
    let special = [-0.0, 0.0, 5e-324, -1e-310, 1e154, -1e154, 3e154, -3e154];
    let draw = |g: &mut StdRng, rate: usize| {
        if g.gen_range(0..rate) == 0 {
            special[g.gen_range(0..special.len())]
        } else {
            g.gen_range(-4.0..4.0)
        }
    };
    // Every other fixture keeps its specials rare, so its fit stays finite.
    let rate = if seed.is_multiple_of(2) { 4 } else { 97 };
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..6).map(|_| draw(&mut g, rate)).collect())
        .collect();
    let target = rows
        .iter()
        .map(|r| r[0] - 0.5 * r[3] + draw(&mut g, rate))
        .collect();
    let probes: Vec<Vec<f64>> = (0..4)
        .map(|_| (0..6).map(|_| g.gen_range(-4.0..4.0)).collect())
        .collect();
    (Matrix::from_rows(&rows), target, Matrix::from_rows(&probes))
}

#[test]
fn six_feature_ridge_answers_are_pinned() {
    let mut h = Fnv::new();
    for (i, n) in [0usize, 1, 2, 7, 8, 9, 64, 65, 300].into_iter().enumerate() {
        for seed in [2 * i as u64, 2 * i as u64 + 1] {
            let (x, y, probes) = wide_ridge_fixture(n, seed);
            for alpha in [0.0, 1.0] {
                let m = RidgeRegression::fit(&x, &y, alpha);
                h.floats(&m.weights);
                h.word(m.intercept.to_bits());
                h.floats(&m.predict(&x));
                h.floats(&m.predict(&probes));
            }
        }
    }
    check("six-feature RidgeRegression", h.0, 0x6071_7512_b1ac_ecd6);
}

#[test]
fn multi_output_gbm_answers_are_pinned() {
    let mut h = Fnv::new();
    for f in fixtures() {
        // Two outputs: the regression target and the label.
        let y: Vec<Vec<f64>> = f
            .target
            .iter()
            .zip(&f.labels)
            .map(|(&t, &l)| vec![t, l])
            .collect();
        let m = MultiOutputGbm::fit(&f.rows, &y, gbm_params());
        h.word(m.n_outputs() as u64);
        for row in f.rows.iter().chain(&f.probe_rows) {
            h.floats(&m.predict_one(row));
        }
    }
    check("MultiOutputGbm", h.0, 0x7996_ef7d_eaf0_b3f8);
}

/// A paper-shaped boosted fixture: 240 rows × 12 features, most columns
/// with more than 16 distinct cells (so a node's thresholds are quantiles,
/// not midpoints), ties, `±0.0` and `±inf`. A 50-round fit of depth 3
/// meets the same row sets again and again, which the small fixtures above
/// (≤ 150 rows, 8 rounds) rarely do. Labels cut the finite target into
/// `n_classes` bands, one in eight drawn at random.
fn boosted_fixture(n_classes: usize) -> Fixture {
    let inf = f64::INFINITY;
    let mut g = StdRng::seed_from_u64(47);
    let row = |g: &mut StdRng| -> Vec<f64> {
        vec![
            g.gen_range(-2.0..2.0),
            g.gen_range(0..40usize) as f64,
            [-0.0, 0.0, 1.0, -1.0][g.gen_range(0..4usize)],
            g.gen_range(0.0..1000.0),
            [-inf, inf, 0.5, -3.0, 2.0, 7.5][g.gen_range(0..6usize)],
            g.gen_range(0..20usize) as f64 * 0.25,
            g.gen_range(0..17usize) as f64 - 8.0,
            g.gen_range(0..3usize) as f64,
            if g.gen_range(0..6usize) == 0 {
                [0.0, -0.0][g.gen_range(0..2usize)]
            } else {
                g.gen_range(-1.0..1.0)
            },
            g.gen_range(0..100usize) as f64 * 1.5,
            if g.gen_range(0..4usize) == 0 {
                [-inf, inf][g.gen_range(0..2usize)]
            } else {
                g.gen_range(0..24usize) as f64
            },
            g.gen_range(-50.0..50.0),
        ]
    };
    let rows: Vec<Vec<f64>> = (0..240).map(|_| row(&mut g)).collect();
    let probe_rows: Vec<Vec<f64>> = (0..12).map(|_| row(&mut g)).collect();
    let target: Vec<f64> = rows
        .iter()
        .map(|r| {
            let step = if r[4] > 1.0 { 2.0 } else { -1.0 };
            r[0] + 0.1 * r[1] + r[2] + step + 0.5 * r[6] + r[8] + g.gen_range(-0.5..0.5)
        })
        .collect();
    let labels: Vec<f64> = target
        .iter()
        .map(|&t| {
            if g.gen_range(0..8usize) == 0 {
                g.gen_range(0..n_classes) as f64
            } else {
                ((t + 6.0) / 12.0 * n_classes as f64)
                    .floor()
                    .clamp(0.0, (n_classes - 1) as f64)
            }
        })
        .collect();
    Fixture {
        x: Matrix::from_rows(&rows),
        rows,
        probes: Matrix::from_rows(&probe_rows),
        probe_rows,
        labels,
        target,
        n_classes,
    }
}

#[test]
fn paper_shaped_boosted_fits_are_pinned() {
    let (two, three) = (boosted_fixture(2), boosted_fixture(3));
    let mut h = Fnv::new();
    let m = GradientBoostingRegressor::fit(&two.x, &two.target, GbmParams::default());
    regressor_answers(&mut h, &two, |x| m.predict(x));
    h.floats(&m.feature_importance());
    h.word(m.len() as u64);
    check(
        "paper-shaped GradientBoostingRegressor",
        h.0,
        0x8c08_6d5d_a4ba_f933,
    );

    for (f, pinned) in [
        (&two, 0x50f5_0799_c20e_2d02),
        (&three, 0x597f_111f_087a_60c4),
    ] {
        let mut h = Fnv::new();
        let m = GradientBoostingClassifier::fit(&f.x, &f.labels, f.n_classes, GbmParams::default());
        classifier_answers(&mut h, f, |x| m.predict(x), |x| m.predict_scores(x));
        h.floats(&m.feature_importance());
        check("paper-shaped GradientBoostingClassifier", h.0, pinned);
    }

    // Three outputs at the surrogate's 30 rounds: the target, the
    // three-class label and the target's square.
    let mut h = Fnv::new();
    let y: Vec<Vec<f64>> = three
        .target
        .iter()
        .zip(&three.labels)
        .map(|(&t, &l)| vec![t, l, t * t])
        .collect();
    let params = GbmParams {
        n_estimators: 30,
        ..GbmParams::default()
    };
    let m = MultiOutputGbm::fit(&three.rows, &y, params);
    h.word(m.n_outputs() as u64);
    for row in three.rows.iter().chain(&three.probe_rows) {
        h.floats(&m.predict_one(row));
    }
    check("paper-shaped MultiOutputGbm", h.0, 0xde6a_244b_91af_b260);
}

#[test]
fn feature_scores_are_pinned() {
    let mut h = Fnv::new();
    for f in fixtures() {
        h.floats(&fisher_scores(&f.x, &f.labels));
        h.floats(&mutual_information_scores(&f.x, &f.labels, 6));
        h.word(fisher_score(&f.x, &f.labels).to_bits());
        h.word(mutual_information(&f.x, &f.labels, 6).to_bits());
    }
    check("feature scores", h.0, 0x9470_3768_2232_bfe4);
}

/// A churn-shaped pool of 1,000 rows: two floats (one with nulls), an
/// integer, two categoricals (one with nulls), a noise column, a key and a
/// linear target.
fn churn_pool() -> Dataset {
    const REGIONS: [&str; 4] = ["north", "south", "east", "west"];
    const TIERS: [&str; 3] = ["basic", "plus", "pro"];
    let schema = Schema::from_attributes(vec![
        Attribute::key("id"),
        Attribute::feature("x1"),
        Attribute::feature("x2"),
        Attribute::feature("visits"),
        Attribute::feature("region"),
        Attribute::feature("tier"),
        Attribute::feature("noise"),
        Attribute::target("y"),
    ]);
    let rows = (0..1_000usize)
        .map(|i| {
            let unit = |salt: usize| ((i * 37 + salt * 101) % 997) as f64 / 997.0;
            let (x1, x2, noise) = (unit(1) * 2.0 - 1.0, unit(2) * 2.0 - 1.0, unit(3));
            let (visits, region, tier) = ((i * 7) % 40, (i * 3) % 4, (i * 5) % 3);
            let y = 1.5 * x1 - x2 + 0.02 * visits as f64 + 0.3 * tier as f64 - 0.1 * region as f64;
            vec![
                Value::Int(i as i64),
                Value::Float(x1),
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Float(x2)
                },
                Value::Int(visits as i64),
                Value::Str(REGIONS[region].into()),
                if i % 17 == 0 {
                    Value::Null
                } else {
                    Value::Str(TIERS[tier].into())
                },
                Value::Float(noise),
                Value::Float(y),
            ]
        })
        .collect();
    Dataset::from_rows("churn", schema, rows).expect("rows match the schema")
}

fn encoded(h: &mut Fnv, side: &Encoded) {
    h.word(side.features.n_cols() as u64);
    h.word(side.features.len() as u64);
    for row in side.features.rows() {
        for v in row {
            h.word(v.to_bits());
        }
    }
    h.floats(&side.targets);
    for name in &side.feature_names {
        h.word(name.len() as u64);
        for byte in name.bytes() {
            h.word(u64::from(byte));
        }
    }
}

/// What a churn valuation trains and tests on: both sides of
/// `encode_view_split` on six selections of the pool (all rows, none, one,
/// 130 rows across word boundaries, every third row, a contiguous range)
/// at the valuation's ratio 0.7 and at 1.0. Each selection is folded
/// twice: the digest was pinned when a view was encoded once through a
/// decoded projection of the pool and once without one.
#[test]
fn churn_shaped_split_encodings_are_pinned() {
    let data = churn_pool();
    let n = data.num_rows();
    let selections = [
        RowMask::all(n),
        RowMask::none(n),
        RowMask::from_pred(n, |r| r == 517),
        RowMask::from_pred(n, |r| (50..180).contains(&r)),
        RowMask::from_pred(n, |r| r % 3 == 0),
        RowMask::from_pred(n, |r| (300..700).contains(&r)),
    ];
    let opts = EncodeOptions::regression();
    let mut h = Fnv::new();
    for mask in selections {
        let bare = DatasetView::new(&data, mask, vec![false; 8]);
        for view in [bare.clone(), bare] {
            for ratio in [0.7, 1.0] {
                let (train, test) = encode_view_split(&view, &opts, ratio, 1);
                encoded(&mut h, &train);
                match &test {
                    Some(test) => encoded(&mut h, test),
                    None => h.word(u64::MAX),
                }
            }
        }
    }
    check("churn-shaped encode_view_split", h.0, 0x72da_1fc0_93c8_af35);
}
