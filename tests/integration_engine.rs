//! Integration tests of the `modis-engine` execution engine over real
//! tabular workloads: equivalence across worker counts and between the
//! engine and the core search, shared evaluation-cache behaviour across
//! overlapping scenarios served the way users run them (a `Service`
//! draining its queue), and run-to-run determinism.
//!
//! Equivalence fixtures share one substrate instance between the compared
//! runs: substrates memoise `evaluate_raw`, which pins noisy raw metrics
//! (training wall-clock) so byte-level comparison is meaningful.

use std::sync::Arc;

use modis_bench::{task_t1, task_t3};
use modis_core::prelude::*;
use modis_core::substrate::Substrate;
use modis_engine::{Algorithm, Engine, EngineConfig, Scenario, ScenarioOutcome};
use modis_service::{JobState, Service, ServiceConfig};

fn oracle_config() -> ModisConfig {
    ModisConfig::default()
        .with_epsilon(0.15)
        .with_max_states(25)
        .with_max_level(3)
        .with_estimator(EstimatorMode::Oracle)
}

fn assert_identical(a: &SkylineResult, b: &SkylineResult, label: &str) {
    assert_eq!(
        a.entries.len(),
        b.entries.len(),
        "{label}: entry counts differ"
    );
    for (x, y) in a.entries.iter().zip(&b.entries) {
        assert_eq!(x.bitmap, y.bitmap, "{label}: bitmaps differ");
        assert_eq!(x.perf, y.perf, "{label}: perf vectors differ");
        assert_eq!(x.raw, y.raw, "{label}: raw metrics differ");
        assert_eq!(x.size, y.size, "{label}: sizes differ");
        assert_eq!(x.level, y.level, "{label}: levels differ");
    }
    assert_eq!(
        a.states_valuated, b.states_valuated,
        "{label}: budgets differ"
    );
}

#[test]
fn parallel_apx_is_byte_identical_to_sequential_on_t1() {
    let substrate = task_t1(21).substrate();
    let config = oracle_config();
    let sequential = apx_modis(&substrate, &config);
    let ctx = ValuationContext::new(&substrate, config.estimator);
    let parallel = apx_modis_with_context(&ctx, &config, 4);
    assert_identical(&parallel, &sequential, "t1 apx x4");
    assert!(!sequential.is_empty());
}

#[test]
fn parallel_apx_is_byte_identical_to_sequential_with_surrogate() {
    let substrate = task_t3(5).substrate();
    let config = ModisConfig::default()
        .with_epsilon(0.15)
        .with_max_states(30)
        .with_max_level(3)
        .with_estimator(EstimatorMode::Surrogate {
            warmup: 10,
            refresh: 10,
        });
    let sequential = apx_modis(&substrate, &config);
    let ctx = ValuationContext::new(&substrate, config.estimator);
    let parallel = apx_modis_with_context(&ctx, &config, 4);
    assert_identical(&parallel, &sequential, "t3 apx surrogate");
    assert_eq!(parallel.stats.oracle_calls, sequential.stats.oracle_calls);
    assert_eq!(
        parallel.stats.surrogate_calls,
        sequential.stats.surrogate_calls
    );
}

#[test]
fn parallel_exact_is_byte_identical_to_sequential_on_t3() {
    let substrate = task_t3(5).substrate();
    let config = ModisConfig::default().with_max_states(20).with_max_level(2);
    let sequential = exact_modis(&substrate, &config);
    let ctx = ValuationContext::new(&substrate, EstimatorMode::Oracle);
    let parallel = exact_modis_with_context(&ctx, &config, 4);
    assert_identical(&parallel, &sequential, "t3 exact");
}

/// The engine adds a shared cache, a surrogate memo and worker threads
/// around the core search, and changes none of its answers: every variant,
/// oracle- and surrogate-valuated, returns through `Engine::run_scenario`
/// at four workers what `Algorithm::run` returns on one thread over the
/// same substrate instance — entries on their bits, the valuation count,
/// the trainings (paid or loaded) and the estimates.
#[test]
fn the_engine_returns_what_the_core_search_returns() {
    let substrate: Arc<dyn Substrate> = Arc::new(task_t1(21).substrate());
    let surrogate = EstimatorMode::Surrogate {
        warmup: 8,
        refresh: 6,
    };
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<u64>>();
    let answer = |r: &SkylineResult| {
        let entries: Vec<_> = r
            .entries
            .iter()
            .map(|e| (e.bitmap.clone(), bits(&e.perf), bits(&e.raw)))
            .collect();
        let s = r.stats;
        let trainings = s.oracle_calls + s.shared_hits;
        (entries, r.states_valuated, trainings, s.surrogate_calls)
    };
    let engine = Engine::new(EngineConfig::default().with_worker_threads(4));
    for estimator in [EstimatorMode::Oracle, surrogate] {
        let config = oracle_config().with_estimator(estimator);
        for algorithm in [
            Algorithm::Apx,
            Algorithm::NoBi,
            Algorithm::Bi,
            Algorithm::Div,
            Algorithm::Exact,
        ] {
            let label = format!("{} {estimator:?}", algorithm.name());
            // The exact algorithm is oracle-valuated in either mode.
            let mode = match algorithm {
                Algorithm::Exact => EstimatorMode::Oracle,
                _ => estimator,
            };
            let ctx = ValuationContext::new(substrate.as_ref(), mode);
            let core = algorithm.run(&ctx, &config, 1);
            let scenario =
                Scenario::new(label.clone(), substrate.clone(), algorithm, config.clone())
                    .with_cache_namespace(label.clone());
            let served = engine.run_scenario(&scenario).result;
            assert!(!core.is_empty(), "{label}");
            assert_eq!(answer(&served), answer(&core), "{label}");
            if estimator == surrogate && algorithm != Algorithm::Exact {
                assert!(
                    core.stats.surrogate_calls > 0,
                    "{label}: the surrogate took over"
                );
            }
        }
    }
}

/// A fresh BiMODis scenario at two workers trains its start pair and its
/// first children in waves, and an operator sees them: `engine_wave_states`
/// holds a sample of two states or more.
#[test]
fn a_fresh_bimodis_scenario_shows_its_waves() {
    let substrate: Arc<dyn Substrate> = Arc::new(task_t1(21).substrate());
    let engine = Engine::new(EngineConfig::default().with_worker_threads(2));
    let scenario = Scenario::new("t1-bi", substrate, Algorithm::Bi, oracle_config());
    let outcome = engine.run_scenario(&scenario);
    assert!(outcome.result.stats.oracle_calls >= 2);
    let waves = engine.telemetry().metrics.histogram(
        "engine_wave_states",
        "States valuated per parallel wave expansion.",
    );
    // Bucket i holds the samples of bit width i: 2 and up from bucket 2.
    let two_or_more: u64 = waves.snapshot()[2..].iter().sum();
    assert!(two_or_more > 0, "wave sizes {:?}", waves.snapshot());
}

/// Runs every named request through one drain of `service` and returns
/// the outcomes in submission order.
fn serve(service: &Service, names: &[&str]) -> Vec<ScenarioOutcome> {
    let tickets = service.submit_many(names.iter().copied()).unwrap();
    assert_eq!(service.run_pending(), names.len());
    tickets
        .into_iter()
        .map(|ticket| match service.poll(ticket).unwrap() {
            JobState::Done(outcome) => *outcome,
            other => panic!("expected a finished job, got {other:?}"),
        })
        .collect()
}

#[test]
fn suite_with_shared_pool_reports_cache_hits() {
    let substrate: Arc<dyn Substrate> = Arc::new(task_t3(5).substrate());
    let config = oracle_config().with_max_states(20);
    let service = Service::new(ServiceConfig::default());
    let algorithms = [
        Algorithm::Apx,
        Algorithm::NoBi,
        Algorithm::Bi,
        Algorithm::Div,
    ];
    for alg in algorithms {
        let scenario = Scenario::new(alg.name(), substrate.clone(), alg, config.clone())
            .with_cache_namespace("t3-pool");
        service.register(scenario).unwrap();
    }

    let outcomes = serve(&service, &algorithms.map(|alg| alg.name()));

    // Each ticket answers the scenario it named, whatever order the
    // scheduler ran them in.
    for (outcome, alg) in outcomes.iter().zip(algorithms) {
        assert_eq!(outcome.algorithm, alg);
        assert!(!outcome.result.is_empty(), "{}: a skyline", outcome.name);
    }
    // All scenarios expand from the same universal state, so at least the
    // later scenarios must reuse the earlier scenarios' oracle valuations.
    let hits: usize = outcomes.iter().map(|o| o.shared_hits()).sum();
    assert!(hits > 0, "expected nonzero shared-cache hits");
    let stats = service.cache_stats();
    assert!(stats.entries > 0);
    assert!(stats.hits >= hits);
}

#[test]
fn engine_is_deterministic_across_repeated_runs() {
    let substrate: Arc<dyn Substrate> = Arc::new(task_t1(21).substrate());
    let scenario = Scenario::new(
        "t1-apx",
        substrate.clone(),
        Algorithm::Apx,
        oracle_config().with_max_states(20),
    )
    .with_cache_namespace("t1-pool");

    let engine = Engine::new(EngineConfig::default().with_worker_threads(4));
    let first = engine.run_scenario(&scenario);
    let second = engine.run_scenario(&scenario);

    assert_identical(&first.result, &second.result, "repeat run");
    // The second run must be answered entirely by the shared cache: every
    // oracle valuation of the first run was recorded under the namespace.
    assert_eq!(
        second.result.stats.oracle_calls, 0,
        "second run should retrain nothing"
    );
    assert!(second.shared_hits() > 0);
}

#[test]
fn isolated_namespaces_stay_isolated_across_workloads() {
    let t1: Arc<dyn Substrate> = Arc::new(task_t1(21).substrate());
    let t3: Arc<dyn Substrate> = Arc::new(task_t3(5).substrate());
    let config = oracle_config().with_max_states(15);
    let service = Service::new(ServiceConfig::default());
    service
        .register(Scenario::new("t1-apx", t1, Algorithm::Apx, config.clone()))
        .unwrap();
    service
        .register(Scenario::new("t3-apx", t3, Algorithm::Apx, config))
        .unwrap();
    let outcomes = serve(&service, &["t1-apx", "t3-apx"]);
    for outcome in &outcomes {
        assert_eq!(
            outcome.shared_hits(),
            0,
            "{}: distinct namespaces must not share",
            outcome.name
        );
        assert!(!outcome.result.is_empty());
    }
    assert_eq!(service.cache_stats().hits, 0);
}

/// An engine cache smaller than two namespaces' union keeps the one whose
/// scenario keeps coming back: a hot scenario re-run between the runs of
/// ever larger cold searches is answered by the cache every time, because
/// an entry read since it was stored outlives the one-off entries stored
/// after it.
#[test]
fn a_hot_scenario_keeps_its_hits_between_cold_searches() {
    use modis_core::substrate::mock::MockSubstrate;
    let engine = Engine::new(EngineConfig {
        worker_threads: 1,
        cache_shards: 1,
        cache_capacity: 32,
        ..EngineConfig::default()
    });
    let hot = Scenario::new(
        "hot",
        Arc::new(MockSubstrate::new(6)),
        Algorithm::Apx,
        oracle_config().with_max_states(16).with_max_level(6),
    )
    .with_cache_namespace("hot");
    let cold: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(14));
    let counts =
        |outcome: &ScenarioOutcome| (outcome.shared_hits(), outcome.result.stats.oracle_calls);
    assert_eq!(counts(&engine.run_scenario(&hot)), (0, 16));
    assert_eq!(counts(&engine.run_scenario(&hot)), (16, 0));
    let mut cold_trainings = 0;
    for (round, algorithm) in [
        Algorithm::Apx,
        Algorithm::Bi,
        Algorithm::Div,
        Algorithm::NoBi,
    ]
    .into_iter()
    .enumerate()
    {
        let config = oracle_config()
            .with_max_states(24 + 4 * round)
            .with_max_level(8);
        let search =
            Scenario::new("cold", cold.clone(), algorithm, config).with_cache_namespace("cold");
        cold_trainings += engine.run_scenario(&search).result.stats.oracle_calls;
        assert_eq!(
            counts(&engine.run_scenario(&hot)),
            (16, 0),
            "after cold {round}"
        );
    }
    assert_eq!(cold_trainings, 24 + 28 + 32 + 36);
    assert_eq!(engine.cache_stats().entries, 32);
}
