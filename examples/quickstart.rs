//! Quickstart: generate a skyline set of datasets for a small regression
//! model over a synthetic table pool.
//!
//! Run with `cargo run --example quickstart`.

use modis_core::prelude::*;
use modis_datagen::t1_movie;

fn main() {
    // 1. A pool of joinable source tables (here: the synthetic T1 workload).
    let pool = t1_movie(7);
    println!(
        "Pool: {} tables, base table has {} rows",
        pool.tables.len(),
        pool.base().num_rows()
    );

    // 2. The downstream task: a gradient-boosting regressor that should score
    //    well on R² while staying cheap to train.
    let task = TaskSpec {
        name: "quickstart".into(),
        model: ModelKind::GradientBoostingRegressor,
        target: pool.target.clone(),
        key: Some(pool.join_key.clone()),
        measures: MeasureSet::new(vec![
            MeasureSpec::maximise("p_Acc"),
            MeasureSpec::minimise("p_Train", 5.0),
        ]),
        metric_kinds: vec![MetricKind::R2, MetricKind::TrainTime],
        train_ratio: 0.7,
        seed: 7,
    };

    // 3. Build the search space (universal table + reducible units).
    let space = TableSpaceConfig {
        join_key: pool.join_key.clone(),
        ..TableSpaceConfig::default()
    };
    let substrate = TableSubstrate::from_pool(&pool.tables, task, &space);
    println!(
        "Universal table D_U: {:?}, {} reducible units",
        substrate.universal().reported_size(),
        substrate.num_units()
    );

    // 4. Run BiMODis and inspect the skyline.
    let config = ModisConfig::default()
        .with_epsilon(0.1)
        .with_max_states(40)
        .with_max_level(5)
        .with_estimator(EstimatorMode::Surrogate {
            warmup: 10,
            refresh: 8,
        });
    let skyline = bi_modis(&substrate, &config);

    println!(
        "\nBiMODis valuated {} states in {:.2}s and produced {} skyline datasets:",
        skyline.states_valuated,
        skyline.elapsed_seconds,
        skyline.len()
    );
    for (i, entry) in skyline.entries.iter().enumerate() {
        println!(
            "  D{} — R² {:.3}, training cost {:.4}, size {:?}",
            i + 1,
            entry.raw[0],
            entry.raw[1],
            entry.size
        );
    }

    // 5. Compare against the original (un-augmented) base table.
    let baseline = evaluate_dataset(substrate.task(), pool.base());
    println!(
        "\nOriginal base table: R² {:.3}, training cost {:.4}",
        baseline.raw[0], baseline.raw[1]
    );
}
