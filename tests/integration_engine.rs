//! Integration tests of the `modis-engine` execution engine over real
//! tabular workloads: equivalence across worker counts and between the
//! engine and the core search, shared evaluation-cache behaviour across
//! overlapping scenarios served the way users run them (a `Service`
//! draining its queue), and run-to-run determinism.

use std::sync::Arc;

use modis_bench::{t5_measures, task_t1, task_t2, task_t3, task_t4};
use modis_core::prelude::*;
use modis_core::substrate::Substrate;
use modis_datagen::t5_recommendation;
use modis_engine::{Algorithm, Engine, EngineConfig, Scenario, ScenarioOutcome};
use modis_service::{result_line, JobState, Service, ServiceConfig};

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

/// A fresh scenario at two workers trains in waves, and an operator sees
/// them in `engine_wave_states`. ApxMODis, NOBiMODis, DivMODis and the
/// exact algorithm know every state they valuate before they valuate it,
/// start state included, so every training ran inside a wave: the states
/// the histogram counts are the scenario's oracle calls. BiMODis trains
/// one child at a time once its pruning is armed, so it only shows a wave
/// of two states or more.
#[test]
fn a_fresh_scenario_shows_its_waves() {
    let substrate: Arc<dyn Substrate> = Arc::new(task_t1(21).substrate());
    for algorithm in [
        Algorithm::Apx,
        Algorithm::NoBi,
        Algorithm::Bi,
        Algorithm::Div,
        Algorithm::Exact,
    ] {
        let engine = Engine::new(EngineConfig::default().with_worker_threads(2));
        let scenario = Scenario::new("t1", substrate.clone(), algorithm, oracle_config());
        let outcome = engine.run_scenario(&scenario);
        let oracle_calls = outcome.result.stats.oracle_calls;
        assert!(oracle_calls >= 2, "{algorithm:?}");
        let waves = engine.telemetry().metrics.histogram(
            "engine_wave_states",
            "States valuated per parallel wave expansion.",
        );
        if algorithm == Algorithm::Bi {
            // Bucket i holds the samples of bit width i: 2 and up from bucket 2.
            let two_or_more: u64 = waves.snapshot()[2..].iter().sum();
            assert!(two_or_more > 0, "wave sizes {:?}", waves.snapshot());
        } else {
            assert_eq!(
                waves.value_sum(),
                oracle_calls as u64,
                "{algorithm:?}: states trained in a wave"
            );
        }
    }
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

    // Each ticket answers the scenario it named.
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

/// A state is trained once per cache namespace, by whichever run reaches
/// it first, so the order in which one namespace's scenarios run decides
/// only *which* run pays for a shared state. Run forwards and backwards on
/// fresh engines at 1, 2 and 4 workers, every set below pays the same sum,
/// reads the same sum of shared hits and returns the same `RESULT` bytes
/// per scenario; only the split of the cost between the runs moves.
#[test]
fn run_order_decides_who_pays_not_how_much() {
    use modis_core::substrate::mock::MockSubstrate;
    let surrogate = EstimatorMode::Surrogate {
        warmup: 10,
        refresh: 10,
    };
    let shared = |name: &str, substrate: &Arc<dyn Substrate>, alg, config| {
        Scenario::new(name, substrate.clone(), alg, config).with_cache_namespace("pool")
    };
    let mut sets: Vec<(String, Vec<Scenario>)> = Vec::new();
    for units in 8..=10 {
        let mock: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(units));
        let config = |n| oracle_config().with_max_states(n).with_max_level(4);
        let set = vec![
            shared("cheap", &mock, Algorithm::Apx, config(10)),
            shared("expensive", &mock, Algorithm::Apx, config(80)),
        ];
        sets.push((format!("mock {units} apx 10 + 80"), set));
    }
    let mock: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(8));
    let config = oracle_config()
        .with_max_states(60)
        .with_max_level(4)
        .with_estimator(surrogate);
    let four = [
        Algorithm::Apx,
        Algorithm::Bi,
        Algorithm::NoBi,
        Algorithm::Div,
    ];
    let set = four.map(|alg| shared(alg.name(), &mock, alg, config.clone()));
    sets.push(("mock 8 surrogate".to_string(), set.to_vec()));
    for (task, workload) in [("t1 seed 7", task_t1(7)), ("t3 seed 31", task_t3(31))] {
        let substrate: Arc<dyn Substrate> = Arc::new(workload.substrate());
        for estimator in [EstimatorMode::Oracle, surrogate] {
            let config = oracle_config().with_estimator(estimator);
            let set = [Algorithm::Apx, Algorithm::Bi]
                .map(|alg| shared(alg.name(), &substrate, alg, config.clone()));
            sets.push((format!("{task} {estimator:?}"), set.to_vec()));
        }
    }

    let mut split_moved = false;
    for workers in [1, 2, 4] {
        for (label, set) in &sets {
            // (Σ cost, Σ shared hits, per scenario (name, cost, RESULT)).
            let drain = |order: Vec<&Scenario>| {
                let engine = Engine::new(EngineConfig::default().with_worker_threads(workers));
                let mut hits = 0;
                let mut runs: Vec<(String, usize, String)> = order
                    .into_iter()
                    .map(|scenario| {
                        let outcome = engine.run_scenario(scenario);
                        hits += outcome.shared_hits();
                        let line = result_line(0, &outcome);
                        (outcome.name, outcome.result.valuation_cost(), line)
                    })
                    .collect();
                runs.sort();
                let cost: usize = runs.iter().map(|run| run.1).sum();
                (cost, hits, runs)
            };
            let forwards = drain(set.iter().collect());
            let backwards = drain(set.iter().rev().collect());
            let label = format!("{label} at {workers} workers");
            assert_eq!(forwards.0, backwards.0, "{label}: Σ cost");
            assert_eq!(forwards.1, backwards.1, "{label}: Σ shared hits");
            for (f, b) in forwards.2.iter().zip(&backwards.2) {
                assert_eq!((&f.0, &f.2), (&b.0, &b.2), "{label}: RESULT bytes");
                split_moved |= f.1 != b.1;
            }
        }
    }
    assert!(split_moved, "the order decides who pays");
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

/// Valuates one state of the substrates `fresh` builds 25 times, each time
/// on a new substrate so no memo can hand an earlier answer back, and
/// asserts one `to_bits` vector. The state is the whole space less unit 0,
/// and its `p_Train` lies strictly between the two degenerate values
/// (0 for a graph, the measure's scale for a table).
fn valuates_to_one_vector<S: Substrate>(label: &str, fresh: impl Fn() -> S) {
    let bits = |raw: Vec<f64>| raw.into_iter().map(f64::to_bits).collect::<Vec<u64>>();
    let probe = fresh();
    let state = probe.forward_start().flipped(0);
    let raw = probe.evaluate_raw(&state);
    let specs = probe.measures().specs();
    let train = specs.iter().position(|spec| spec.name == "p_Train");
    let train = train.expect("every paper task measures p_Train");
    let scale = specs[train].scale;
    assert!(
        raw[train] > 0.0 && raw[train] < scale,
        "{label}: a non-degenerate state, p_Train {}",
        raw[train]
    );
    let first = bits(raw);
    for run in 1..25 {
        assert_eq!(
            bits(fresh().evaluate_raw(&state)),
            first,
            "{label}: valuation {run}"
        );
    }
}

/// The oracle is a function of the state: T1–T4 and T5 each valuate a state
/// to the same bits every time, `p_Train` included.
#[test]
fn a_state_valuates_to_the_same_bits_every_time() {
    for (label, workload) in [
        ("T1", task_t1(21)),
        ("T2", task_t2(21)),
        ("T3", task_t3(5)),
        ("T4", task_t4(21)),
    ] {
        valuates_to_one_vector(label, || workload.substrate());
    }
    let graph = t5_recommendation(42);
    valuates_to_one_vector("T5", || {
        GraphSubstrate::new(graph.clone(), t5_measures(), GraphSpaceConfig::default())
    });
}

/// Two fresh services, each over substrates of its own, answer T1–T4 ×
/// {ApxMODis, BiMODis} with the same `RESULT` lines.
#[test]
fn two_fresh_services_answer_with_the_same_result_lines() {
    let answer = || {
        let service = Service::new(ServiceConfig::default());
        let config = oracle_config().with_max_states(15);
        let mut names = Vec::new();
        for (task, workload) in [
            ("t1", task_t1(21)),
            ("t2", task_t2(21)),
            ("t3", task_t3(5)),
            ("t4", task_t4(21)),
        ] {
            let substrate: Arc<dyn Substrate> = Arc::new(workload.substrate());
            for (algorithm, suffix) in [(Algorithm::Apx, "apx"), (Algorithm::Bi, "bi")] {
                let name = format!("{task}-{suffix}");
                let scenario = Scenario::new(&name, substrate.clone(), algorithm, config.clone());
                service.register(scenario).unwrap();
                names.push(name);
            }
        }
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let outcomes = serve(&service, &names);
        let lines = outcomes.iter().enumerate().map(|(id, outcome)| {
            assert!(!outcome.result.is_empty(), "{}: a skyline", outcome.name);
            result_line(id as u64, outcome)
        });
        lines.collect::<Vec<String>>()
    };
    assert_eq!(answer(), answer());
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
/// its states are asked for more often than any cold state. The cold
/// states that stay are the ones asked for in several rounds: the four
/// cold rounds valuate 120 states and train 100 of them, and the cache
/// answers the other 20 (by recency alone it answered none).
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
    assert_eq!(cold_trainings, 100);
    assert_eq!(engine.cache_stats().entries, 32);
}

/// Six namespaces searched in a fixed Zipf-shaped cycle (seven runs of the
/// hottest pool per cycle, one of each of the three coldest) through an
/// engine cache smaller than their working set. Every state the cache
/// cannot answer is a training, so what the cache keeps is what the suite
/// pays. The working set is 96 states (16 per pool), every pass asks for
/// 256 and the first pass alone pays for 96; six passes may pay for at
/// most 400. Evicting by recency alone pays for 544.
#[test]
fn a_cache_smaller_than_a_zipf_working_set_keeps_the_hot_pools() {
    use modis_core::substrate::mock::MockSubstrate;
    const CYCLE: [usize; 16] = [0, 1, 0, 2, 0, 3, 1, 0, 4, 0, 2, 1, 0, 5, 0, 1];
    let engine = Engine::new(EngineConfig {
        worker_threads: 1,
        cache_shards: 1,
        cache_capacity: 48,
        ..EngineConfig::default()
    });
    let pools: Vec<Scenario> = (0..6)
        .map(|pool| {
            let substrate: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(10));
            let config = oracle_config().with_max_states(16).with_max_level(6);
            Scenario::new(format!("pool{pool}"), substrate, Algorithm::Apx, config)
                .with_cache_namespace(format!("pool{pool}"))
        })
        .collect();
    let mut paid = 0;
    for _pass in 0..6 {
        for &pool in &CYCLE {
            paid += engine.run_scenario(&pools[pool]).result.stats.oracle_calls;
        }
    }
    assert!(paid <= 400, "paid valuations {paid}");
}

/// A substrate that delegates everything and counts `state_features` calls.
struct FeatureCounting<S> {
    inner: S,
    calls: std::sync::atomic::AtomicUsize,
}

impl<S: Substrate> Substrate for FeatureCounting<S> {
    fn num_units(&self) -> usize {
        self.inner.num_units()
    }
    fn unit_label(&self, unit: usize) -> String {
        self.inner.unit_label(unit)
    }
    fn forward_start(&self) -> modis_data::StateBitmap {
        self.inner.forward_start()
    }
    fn backward_start(&self) -> modis_data::StateBitmap {
        self.inner.backward_start()
    }
    fn measures(&self) -> &MeasureSet {
        self.inner.measures()
    }
    fn evaluate_raw(&self, bitmap: &modis_data::StateBitmap) -> Vec<f64> {
        self.inner.evaluate_raw(bitmap)
    }
    fn state_features(&self, bitmap: &modis_data::StateBitmap) -> Vec<f64> {
        self.calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.state_features(bitmap)
    }
    fn artifact_size(&self, bitmap: &modis_data::StateBitmap) -> (usize, usize) {
        self.inner.artifact_size(bitmap)
    }
    fn protected_units(&self) -> Vec<usize> {
        self.inner.protected_units()
    }
    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }
    fn memo_stats(&self) -> SubstrateCacheStats {
        self.inner.memo_stats()
    }
}

/// A warm surrogate run on one engine reuses every model and every
/// estimate its cold run made, so it asks the substrate only for the
/// feature rows its refits train on: at most one per oracle-backed record
/// (a shared-cache hit or a training). An estimate the model already holds
/// is found by state, without featurising the state again.
#[test]
fn a_warm_surrogate_run_featurises_only_what_its_refits_train_on() {
    let counted = Arc::new(FeatureCounting {
        inner: task_t3(5).substrate(),
        calls: Default::default(),
    });
    let substrate: Arc<dyn Substrate> = counted.clone();
    let calls = || counted.calls.load(std::sync::atomic::Ordering::Relaxed);
    let config = oracle_config()
        .with_max_states(40)
        .with_estimator(EstimatorMode::default());
    let engine = Engine::new(EngineConfig::default().with_worker_threads(1));
    for algorithm in Algorithm::PAPER_VARIANTS {
        let scenario = Scenario::new(
            algorithm.name(),
            substrate.clone(),
            algorithm,
            config.clone(),
        )
        .with_cache_namespace(algorithm.name());
        engine.run_scenario(&scenario);
        let before = calls();
        let warm = engine.run_scenario(&scenario).result.stats;
        let featurised = calls() - before;
        let label = algorithm.name();
        assert!(warm.surrogate_calls > 0, "{label}: the surrogate took over");
        assert_eq!(warm.estimate_reuses, warm.surrogate_calls, "{label}");
        assert!(
            featurised <= warm.shared_hits + warm.oracle_calls,
            "{label}: {featurised} feature rows for {} oracle-backed records and {} estimates",
            warm.shared_hits + warm.oracle_calls,
            warm.surrogate_calls
        );
    }
}

/// Everything the searches count, cold (a fresh evaluation cache) and warm
/// (the same cache again, so every oracle valuation is a hit and every
/// surrogate a reuse), per paper variant in `PAPER_VARIANTS` order:
/// `ValuationStats` (`estimate_reuses` left out unless `reuses`), the states
/// valuated, and `BiStats`' pruned children and levels (0 for ApxMODis and
/// DivMODis).
fn search_counts<S: Substrate>(
    substrate: &S,
    config: &ModisConfig,
    reuses: bool,
) -> Vec<[usize; 10]> {
    let mut counts = Vec::new();
    for algorithm in Algorithm::PAPER_VARIANTS {
        let cache = Arc::new(modis_engine::SharedEvalCache::with_capacity(4, 0));
        for _ in ["cold", "warm"] {
            let ctx = ValuationContext::new(substrate, config.estimator)
                .with_hook(cache.handle(algorithm.name()));
            let (result, bi) = match algorithm {
                Algorithm::Apx => (apx_modis_with_context(&ctx, config, 1), Default::default()),
                Algorithm::Div => (div_modis_with_context(&ctx, config), Default::default()),
                _ => bi_modis_with_context(&ctx, config, algorithm == Algorithm::Bi),
            };
            let s = result.stats;
            counts.push([
                s.oracle_calls,
                s.surrogate_calls,
                s.cache_hits,
                s.shared_hits,
                s.surrogate_fits,
                s.surrogate_reuses,
                if reuses { s.estimate_reuses } else { 0 },
                result.states_valuated,
                bi.pruned,
                bi.levels,
            ]);
        }
    }
    counts
}

/// What the four paper variants count under the default surrogate mode,
/// cold and warm, pinned on the mock and on two table tasks: remembering
/// estimates, verdicts or the correlation graph must not move a count.
#[test]
fn search_counts_are_pinned_under_the_surrogate() {
    use modis_core::substrate::mock::MockSubstrate;
    let surrogate = ModisConfig::default().with_epsilon(0.15);
    let table = oracle_config()
        .with_max_states(40)
        .with_estimator(EstimatorMode::default());
    let mock = search_counts(&MockSubstrate::new(10), &surrogate, false);
    let t1 = search_counts(&task_t1(21).substrate(), &table, true);
    let t3 = search_counts(&task_t3(5).substrate(), &table, true);
    // [oracle, surrogate, cache hits, shared hits, fits, model reuses,
    //  estimate reuses, states valuated, pruned, levels], cold then warm,
    // for ApxMODis, NOBiMODis, BiMODis and DivMODis.
    let expected_mock = [
        [12, 188, 0, 0, 1, 0, 0, 200, 0, 0],
        [0, 188, 0, 12, 0, 1, 0, 200, 0, 0],
        [13, 188, 0, 0, 1, 0, 0, 200, 0, 3],
        [0, 188, 0, 13, 0, 1, 0, 200, 0, 3],
        [12, 188, 0, 0, 1, 0, 0, 200, 31, 4],
        [0, 188, 0, 12, 0, 1, 0, 200, 31, 4],
        [12, 188, 0, 0, 1, 0, 0, 200, 0, 0],
        [0, 188, 0, 12, 0, 1, 0, 200, 0, 0],
    ];
    let expected_t1 = [
        [14, 28, 0, 0, 1, 0, 0, 40, 0, 0],
        [0, 28, 0, 14, 0, 1, 28, 40, 0, 0],
        [13, 28, 0, 0, 1, 0, 0, 40, 0, 1],
        [0, 28, 0, 13, 0, 1, 28, 40, 0, 1],
        [13, 28, 0, 0, 1, 0, 0, 40, 41, 2],
        [0, 28, 0, 13, 0, 1, 28, 40, 41, 2],
        [13, 28, 0, 0, 1, 0, 0, 40, 0, 0],
        [0, 28, 0, 13, 0, 1, 28, 40, 0, 0],
    ];
    let expected_t3 = [
        [13, 28, 0, 0, 1, 0, 0, 40, 0, 0],
        [0, 28, 0, 13, 0, 1, 28, 40, 0, 0],
        [12, 28, 0, 0, 1, 0, 0, 40, 0, 1],
        [0, 28, 0, 12, 0, 1, 28, 40, 0, 1],
        [12, 28, 0, 0, 1, 0, 0, 40, 98, 2],
        [0, 28, 0, 12, 0, 1, 28, 40, 98, 2],
        [12, 28, 0, 0, 1, 0, 0, 40, 0, 0],
        [0, 28, 0, 12, 0, 1, 28, 40, 0, 0],
    ];
    assert_eq!(mock, expected_mock);
    assert_eq!(t1, expected_t1);
    assert_eq!(t3, expected_t3);
}
