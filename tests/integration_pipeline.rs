//! End-to-end integration tests: datagen → substrate construction → MODis
//! algorithms → skyline results, across crates.

use modis_bench::{best_by_raw, task_t1, task_t3};
use modis_core::prelude::*;

fn fast_config() -> ModisConfig {
    ModisConfig::default()
        .with_epsilon(0.15)
        .with_max_states(25)
        .with_max_level(3)
        .with_estimator(EstimatorMode::Surrogate {
            warmup: 10,
            refresh: 10,
        })
}

#[test]
fn apx_modis_improves_over_base_table_on_t1() {
    let workload = task_t1(21);
    let substrate = workload.substrate();
    let result = apx_modis(&substrate, &fast_config());
    assert!(!result.is_empty(), "skyline should not be empty");

    // The original (weak-feature) base table.
    let base_r2 = evaluate_dataset(substrate.task(), workload.pool.base()).raw[0];

    // Best skyline member by accuracy (R²) should improve over the base.
    let best = best_by_raw(&result, 0, true).expect("skyline entry");
    assert!(
        best.raw[0] > base_r2,
        "skyline R² {} should beat base R² {}",
        best.raw[0],
        base_r2
    );
}

#[test]
fn all_variants_produce_mutually_nondominated_skylines() {
    let workload = task_t3(22);
    let substrate = workload.substrate();
    let cfg = fast_config();
    for result in [
        apx_modis(&substrate, &cfg),
        bi_modis(&substrate, &cfg),
        nobi_modis(&substrate, &cfg),
        div_modis(&substrate, &cfg),
    ] {
        assert!(!result.is_empty());
        for a in &result.entries {
            assert_eq!(a.raw.len(), workload.task.measures.len());
            assert!(a.size.0 > 0, "entries must describe non-empty datasets");
            for b in &result.entries {
                if a.bitmap != b.bitmap {
                    assert!(
                        !dominates(&a.perf, &b.perf) || !dominates(&b.perf, &a.perf),
                        "two members dominate each other"
                    );
                }
            }
        }
        assert!(result.states_valuated <= cfg.max_states + 2);
    }
}

/// A returned skyline is a skyline. The search keeps members by their
/// surrogate estimates; the oracle re-valuates them on the way out, and on
/// the T3 pool at data seed 1 (built as the end-to-end benchmark builds T3)
/// that turned one ApxMODis member of three and one DivMODis member of two
/// into a dominated one, returned all the same.
#[test]
fn no_returned_entry_is_dominated_after_oracle_revaluation() {
    let pool = modis_datagen::t3_avocado(1);
    let task = TaskSpec {
        name: "T3-avocado".into(),
        model: ModelKind::LinearRegressor,
        target: pool.target.clone(),
        key: Some(pool.join_key.clone()),
        measures: MeasureSet::new(vec![
            MeasureSpec::minimise("p_MSE", 4.0),
            MeasureSpec::minimise("p_MAE", 2.0),
        ]),
        metric_kinds: vec![MetricKind::Mse, MetricKind::Mae],
        train_ratio: 0.7,
        seed: 1,
    };
    let space = TableSpaceConfig {
        join_key: pool.join_key.clone(),
        max_clusters_per_attr: 2,
        ..TableSpaceConfig::default()
    };
    let substrate = TableSubstrate::from_pool(&pool.tables, task, &space);
    let config = ModisConfig::default();
    for algorithm in Algorithm::PAPER_VARIANTS {
        let ctx = ValuationContext::new(&substrate, config.estimator);
        let result = algorithm.run(&ctx, &config, 1);
        assert!(!result.is_empty(), "{}", algorithm.name());
        let perfs: Vec<&[f64]> = result.entries.iter().map(|e| e.perf.as_slice()).collect();
        assert_eq!(
            dominated_flags(&perfs),
            vec![false; perfs.len()],
            "{} returned a dominated entry: {perfs:?}",
            algorithm.name()
        );
    }
}

#[test]
fn bimodis_is_no_slower_in_valuations_than_apx() {
    let workload = task_t3(23);
    let substrate = workload.substrate();
    let cfg = fast_config().with_max_states(40);
    let apx = apx_modis(&substrate, &cfg);
    let bi = bi_modis(&substrate, &cfg);
    // Both respect the budget; BiMODis' pruning may valuate fewer states.
    assert!(bi.states_valuated <= cfg.max_states + 2);
    assert!(apx.states_valuated <= cfg.max_states + 2);
}

#[test]
fn divmodis_respects_k_bound() {
    let workload = task_t1(24);
    let substrate = workload.substrate();
    let cfg = fast_config().with_diversification(2, 0.6);
    let result = div_modis(&substrate, &cfg);
    assert!(
        result.len() <= 2,
        "DivMODis returned {} > k entries",
        result.len()
    );
}

#[test]
fn skyline_members_respect_measure_upper_bounds() {
    let workload = task_t1(25);
    let substrate = workload.substrate();
    let result = bi_modis(&substrate, &fast_config());
    let measures = substrate.measures();
    for e in &result.entries {
        let perf = measures.normalise(&e.raw);
        assert!(
            !measures.violates_upper(&perf),
            "skyline member violates an upper bound: {:?}",
            perf
        );
    }
}

#[test]
fn estimator_mode_reduces_oracle_calls() {
    let workload = task_t3(26);
    let substrate = workload.substrate();
    let oracle_cfg = fast_config()
        .with_estimator(EstimatorMode::Oracle)
        .with_max_states(30);
    let surrogate_cfg = fast_config()
        .with_estimator(EstimatorMode::Surrogate {
            warmup: 8,
            refresh: 10,
        })
        .with_max_states(30);
    let oracle_run = apx_modis(&substrate, &oracle_cfg);
    let surrogate_run = apx_modis(&substrate, &surrogate_cfg);
    assert!(
        surrogate_run.stats.surrogate_calls > 0,
        "surrogate should be used after warm-up"
    );
    assert!(
        surrogate_run.stats.oracle_calls <= oracle_run.stats.oracle_calls,
        "surrogate mode should not increase oracle training calls"
    );
}
