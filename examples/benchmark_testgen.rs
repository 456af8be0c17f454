//! Test-data generation for model benchmarking (case study 2 of §6):
//! configure MODis so that the generated datasets are test sets on which an
//! image classifier demonstrates "accuracy > 0.85" and "training cost < 30 s".
//!
//! Run with `cargo run --example benchmark_testgen`.

use modis_bench::case_studies::image_feature_pool;
use modis_core::prelude::*;

fn main() {
    // A pool of image-feature tables (a reduced-scale stand-in for the
    // paper's 75-table, 768-column HF pool).
    let pool = image_feature_pool(3, 10, 4);
    println!("Image feature pool: {} tables", pool.tables.len());

    let task = TaskSpec {
        name: "benchmark-testgen".into(),
        model: ModelKind::LogisticClassifier,
        target: pool.target.clone(),
        key: Some(pool.join_key.clone()),
        measures: MeasureSet::new(vec![
            // accuracy > 0.85  ⇔  normalised (1 − acc) ≤ 0.15
            MeasureSpec::maximise("p_Acc").with_bounds(0.001, 0.15),
            // training cost < 30 s  ⇔  normalised cost ≤ 1 against a 30 s scale
            MeasureSpec::minimise("p_Train", 30.0).with_bounds(0.0001, 1.0),
        ]),
        metric_kinds: vec![MetricKind::Accuracy, MetricKind::TrainTime],
        train_ratio: 0.7,
        seed: 3,
    };

    let space = TableSpaceConfig {
        join_key: pool.join_key.clone(),
        max_clusters_per_attr: 1,
        ..TableSpaceConfig::default()
    };
    let substrate = TableSubstrate::from_pool(&pool.tables, task, &space);
    let config = ModisConfig::default()
        .with_epsilon(0.1)
        .with_max_states(40)
        .with_max_level(4)
        .with_estimator(EstimatorMode::Surrogate {
            warmup: 10,
            refresh: 8,
        });

    let skyline = bi_modis(&substrate, &config);
    println!(
        "BiMODis generated {} candidate test datasets in {:.2}s ({} states valuated):",
        skyline.len(),
        skyline.elapsed_seconds,
        skyline.states_valuated
    );
    for (i, e) in skyline.entries.iter().enumerate() {
        let ok = e.raw[0] > 0.85 && e.raw[1] < 30.0;
        println!(
            "  candidate {} — accuracy {:.3}, training cost {:.4}, size {:?} {}",
            i + 1,
            e.raw[0],
            e.raw[1],
            e.size,
            if ok {
                "(satisfies constraints)"
            } else {
                "(near-miss)"
            }
        );
    }
}
