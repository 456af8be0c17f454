//! Exp-4 / Figure 11: the two real-world case studies.
//!
//! Case 1 — "find data with models": improve an X-ray diffraction peak
//! classifier in accuracy, training cost and F1 using BiMODis, compared
//! against METAM optimising F1 only.
//!
//! Case 2 — "generating test data for model evaluation": generate test
//! datasets over which an image classifier satisfies "accuracy > 0.85" and
//! "training cost < 30 s".

use modis_bench::baselines::metam;
use modis_bench::case_studies::{image_feature_pool, xray_material_pool};
use modis_bench::{print_method_table, MethodRow};
use modis_core::prelude::*;

fn xray_task(pool_target: &str, key: &str, seed: u64) -> TaskSpec {
    TaskSpec {
        name: "case1-xray".into(),
        model: ModelKind::RandomForestClassifier,
        target: pool_target.into(),
        key: Some(key.into()),
        measures: MeasureSet::new(vec![
            MeasureSpec::maximise("p_Acc"),
            MeasureSpec::minimise("p_Train", 5.0),
            MeasureSpec::maximise("p_F1"),
        ]),
        metric_kinds: vec![MetricKind::Accuracy, MetricKind::TrainTime, MetricKind::F1],
        train_ratio: 0.7,
        seed,
    }
}

fn main() {
    // ---------------------------------------------------------------- Case 1
    let pool = xray_material_pool(42);
    let task = xray_task(&pool.target, &pool.join_key, 42);
    let space = TableSpaceConfig {
        join_key: pool.join_key.clone(),
        max_clusters_per_attr: 2,
        ..TableSpaceConfig::default()
    };
    let substrate = TableSubstrate::from_pool(&pool.tables, task.clone(), &space);
    let config = ModisConfig::default()
        .with_epsilon(0.1)
        .with_max_states(50)
        .with_max_level(5)
        .with_estimator(EstimatorMode::Surrogate {
            warmup: 12,
            refresh: 10,
        });

    let mut rows = vec![
        MethodRow::evaluated("Original", evaluate_dataset(&task, pool.base())),
        MethodRow::evaluated(
            "METAM(F1)",
            metam(pool.base(), &pool.tables, &task, &pool.join_key, 2).evaluation,
        ),
    ];
    let bi = bi_modis(&substrate, &config);
    println!("Case 1: BiMODis generated {} candidate datasets:", bi.len());
    for (i, e) in bi.entries.iter().enumerate().take(3) {
        println!(
            "  D{} — accuracy {:.3}, training cost {:.3}s, F1 {:.3}, size {:?}",
            i + 1,
            e.raw[0],
            e.raw[1],
            e.raw[2],
            e.size
        );
        rows.push(MethodRow {
            method: format!("BiMODis-D{}", i + 1),
            raw: e.raw.clone(),
            size: e.size,
            discovery_seconds: bi.elapsed_seconds,
        });
    }
    print_method_table(
        "Case 1 (Fig. 11 left) — X-ray peak classification",
        &task.measures.names(),
        &rows,
    );

    // ---------------------------------------------------------------- Case 2
    let pool = image_feature_pool(42, 12, 4);
    let task = TaskSpec {
        name: "case2-testgen".into(),
        model: ModelKind::LogisticClassifier,
        target: pool.target.clone(),
        key: Some(pool.join_key.clone()),
        measures: MeasureSet::new(vec![
            // "accuracy > 0.85" ⇒ normalised (1 − acc) must stay ≤ 0.15.
            MeasureSpec::maximise("p_Acc").with_bounds(0.001, 0.15),
            // "training cost < 30 s" ⇒ normalised against a 30 s budget.
            MeasureSpec::minimise("p_Train", 30.0).with_bounds(0.001, 1.0),
        ]),
        metric_kinds: vec![MetricKind::Accuracy, MetricKind::TrainTime],
        train_ratio: 0.7,
        seed: 42,
    };
    let space = TableSpaceConfig {
        join_key: pool.join_key.clone(),
        max_clusters_per_attr: 1,
        ..TableSpaceConfig::default()
    };
    let substrate = TableSubstrate::from_pool(&pool.tables, task.clone(), &space);
    let config = ModisConfig::default()
        .with_epsilon(0.1)
        .with_max_states(40)
        .with_max_level(4)
        .with_estimator(EstimatorMode::Surrogate {
            warmup: 12,
            refresh: 10,
        });
    let result = bi_modis(&substrate, &config);
    println!(
        "\nCase 2: BiMODis generated {} test datasets satisfying the constraints",
        result.len()
    );
    let rows: Vec<MethodRow> = result
        .entries
        .iter()
        .take(3)
        .enumerate()
        .map(|(i, e)| MethodRow {
            method: format!("TestSet-{}", i + 1),
            raw: e.raw.clone(),
            size: e.size,
            discovery_seconds: result.elapsed_seconds,
        })
        .collect();
    print_method_table(
        "Case 2 (Fig. 11 right) — test data generation (accuracy > 0.85, train < 30s)",
        &task.measures.names(),
        &rows,
    );

    println!("\nExpected shape (paper): BiMODis produces a handful of datasets that beat the");
    println!("original model on all three measures in Case 1, and 3 constraint-satisfying");
    println!("test datasets in Case 2 within seconds.");
}
