//! The harmful-algal-bloom scenario of Example 1: a research team wants new
//! data with important spatio-temporal and chemical attributes so that a
//! random-forest CI-index predictor meets bounds on RMSE-style error, R² and
//! training cost simultaneously.
//!
//! Run with `cargo run --example water_quality`.

use modis_core::prelude::*;
use modis_data::{augment, reduct, Attribute, Dataset, Literal, Schema, Value};
use modis_datagen::tables::{generate_table_pool, TablePoolConfig};

fn main() {
    // Source tables: water quality, basin, nutrient measurements — simulated
    // with domain-agnostic informative/noise attributes (the `modis_datagen`
    // crate documentation says why synthetic pools stand in for real ones).
    let pool = generate_table_pool(&TablePoolConfig {
        n_rows: 300,
        n_informative: 4,
        n_redundant: 1,
        n_noise: 3,
        n_tables: 4,
        target_noise: 0.25,
        seed: 11,
        ..Default::default()
    });

    // Demonstrate the primitive operators of §3 on raw tables first.
    let water = Dataset::from_rows(
        "water",
        Schema::from_attributes(vec![Attribute::key("site"), Attribute::feature("ph")]),
        vec![
            vec![Value::Int(1), Value::Float(6.9)],
            vec![Value::Int(2), Value::Float(7.4)],
        ],
    )
    .unwrap();
    let phosphorus = Dataset::from_rows(
        "phosphorus",
        Schema::from_attributes(vec![
            Attribute::key("site"),
            Attribute::feature("phosphorus"),
            Attribute::feature("year"),
        ]),
        vec![
            vec![Value::Int(1), Value::Float(0.31), Value::Int(2013)],
            vec![Value::Int(2), Value::Float(0.08), Value::Int(2010)],
        ],
    )
    .unwrap();
    let augmented = augment(
        &water,
        &phosphorus,
        "phosphorus",
        &Literal::equals("year", 2013),
    )
    .unwrap();
    println!(
        "⊕[phosphorus | year = 2013] produced {} rows",
        augmented.num_rows()
    );
    let (reduced, removed) = reduct(&augmented, &Literal::range("ph", 0.0, 7.0));
    println!(
        "⊖[ph ∈ [0, 7]] removed {removed} rows, kept {}",
        reduced.num_rows()
    );

    // The skyline query of Example 1: error below a bound, R²-style accuracy
    // above a bound, training cost within a budget.
    let task = TaskSpec {
        name: "CI-index".into(),
        model: ModelKind::RandomForestRegressor,
        target: pool.target.clone(),
        key: Some(pool.join_key.clone()),
        measures: MeasureSet::new(vec![
            MeasureSpec::minimise("p_RMSE", 2.0).with_bounds(0.01, 0.6),
            MeasureSpec::maximise("p_R2").with_bounds(0.01, 0.35),
            MeasureSpec::minimise("p_Train", 10.0).with_bounds(0.001, 0.5),
        ]),
        metric_kinds: vec![MetricKind::Rmse, MetricKind::R2, MetricKind::TrainTime],
        train_ratio: 0.7,
        seed: 11,
    };

    let space = TableSpaceConfig {
        join_key: pool.join_key.clone(),
        ..TableSpaceConfig::default()
    };
    let substrate = TableSubstrate::from_pool(&pool.tables, task, &space);
    let config = ModisConfig::default()
        .with_epsilon(0.15)
        .with_max_states(40)
        .with_max_level(5)
        .with_estimator(EstimatorMode::Surrogate {
            warmup: 10,
            refresh: 8,
        });

    let skyline = div_modis(&substrate, &config.with_diversification(3, 0.5));
    println!("\nDiversified skyline ({} datasets):", skyline.len());
    for (i, e) in skyline.entries.iter().enumerate() {
        println!(
            "  D{} — RMSE {:.3}, R² {:.3}, training cost {:.4}, size {:?}",
            i + 1,
            e.raw[0],
            e.raw[1],
            e.raw[2],
            e.size
        );
    }
    println!("\nEach dataset satisfies the user-specified bounds on all three measures,");
    println!("and no dataset is dominated by another — the skyline answer to Example 1.");
}
