//! Micro-benchmarks of the ML substrate: model training (the unit valuation
//! cost `I` of Theorem 1) and the MO-GBM estimator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use modis_ml::forest::{ForestParams, RandomForest};
use modis_ml::gbm::{GbmParams, GradientBoostingRegressor, MultiOutputGbm};
use modis_ml::linear::RidgeRegression;
use modis_ml::matrix::Matrix;

fn make_regression(n: usize, d: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let x: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..d).map(|j| ((i * (j + 3)) % 17) as f64 / 17.0).collect())
        .collect();
    let y: Vec<f64> = x.iter().map(|r| r.iter().sum::<f64>()).collect();
    (x, y)
}

fn bench_ml(c: &mut Criterion) {
    let mut group = c.benchmark_group("ml_substrate");
    group.sample_size(10);

    for &n in &[200usize, 600] {
        let (x, y) = make_regression(n, 8);
        let x = Matrix::from_rows(&x);
        group.bench_with_input(BenchmarkId::new("gbm_regressor_fit", n), &n, |b, _| {
            b.iter(|| {
                GradientBoostingRegressor::fit(
                    &x,
                    &y,
                    GbmParams {
                        n_estimators: 20,
                        ..GbmParams::default()
                    },
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("random_forest_fit", n), &n, |b, _| {
            b.iter(|| RandomForest::fit(&x, &y, 0, ForestParams::regression(10)));
        });
        group.bench_with_input(BenchmarkId::new("ridge_fit", n), &n, |b, _| {
            b.iter(|| RidgeRegression::fit(&x, &y, 1.0));
        });
    }

    // MO-GBM estimator: fit + single-call multi-output prediction.
    let (x, _) = make_regression(60, 12);
    let y_multi: Vec<Vec<f64>> = x
        .iter()
        .map(|r| vec![r.iter().sum::<f64>() / 12.0, 1.0 - r[0], r[1] * 0.5])
        .collect();
    group.bench_function("mo_gbm_estimator_fit", |b| {
        b.iter(|| {
            MultiOutputGbm::fit(
                &x,
                &y_multi,
                GbmParams {
                    n_estimators: 15,
                    ..GbmParams::default()
                },
            )
        });
    });
    let fitted = MultiOutputGbm::fit(
        &x,
        &y_multi,
        GbmParams {
            n_estimators: 15,
            ..GbmParams::default()
        },
    );
    group.bench_function("mo_gbm_estimator_predict", |b| {
        b.iter(|| fitted.predict_one(&x[0]));
    });

    group.finish();
}

criterion_group!(benches, bench_ml);
criterion_main!(benches);
