//! The execution engine: runs one scenario per call over one shared
//! evaluation cache, which scenarios sharing a namespace read each other's
//! valuations from.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::time::Instant;

use modis_core::algorithm::Algorithm;
use modis_core::estimator::{EstimatorMode, ValuationContext};
use modis_core::substrate::Substrate;
use modis_core::telemetry::{self, MetricsRegistry, Telemetry, TraceContext, Tracer};

use crate::cache::{CacheStats, SharedEvalCache};
use crate::scenario::{Scenario, ScenarioOutcome};

/// Engine parallelism and cache configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Threads that train states *within* one scenario: every algorithm's
    /// waves train ahead the oracle valuations its search is certain to
    /// make. 1 disables intra-scenario parallelism.
    pub worker_threads: usize,
    /// Read by nothing: the engine runs one scenario per call. Kept only
    /// because the end-to-end benchmark's churn configuration names every
    /// other field and then `..EngineConfig::default()`, which would become
    /// a needless struct update without it.
    pub scenario_parallelism: usize,
    /// Shard count of the shared evaluation cache.
    pub cache_shards: usize,
    /// Total capacity of the shared evaluation cache (entries across all
    /// shards; 0 = unbounded). Beyond it, SIEVE evicts, TinyLFU admits by
    /// lookup count, and a state that left is re-trained on its next visit.
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        EngineConfig {
            worker_threads: cpus,
            scenario_parallelism: cpus.clamp(1, 4),
            cache_shards: 16,
            cache_capacity: 1 << 20,
        }
    }
}

impl EngineConfig {
    /// Builder-style worker-thread setter.
    pub fn with_worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = threads.max(1);
        self
    }
}

/// A reusable execution engine: one shared evaluation cache, the
/// namespace guard in front of it and the worker threads each scenario's
/// waves train on. The service runs every request through
/// [`Engine::run_scenario_traced`].
///
/// ```
/// use std::sync::Arc;
/// use modis_core::prelude::*;
/// use modis_engine::{Algorithm, Engine, EngineConfig, Scenario};
///
/// // Tiny demo substrate (the engine works with any `Substrate`).
/// use modis_data::{Attribute, Dataset, Schema, Value};
/// let base = Dataset::from_rows(
///     "base",
///     Schema::from_attributes(vec![
///         Attribute::key("id"),
///         Attribute::feature("x"),
///         Attribute::target("y"),
///     ]),
///     (0..30)
///         .map(|i| vec![Value::Int(i), Value::Float((i % 5) as f64), Value::Float((2 * (i % 5)) as f64)])
///         .collect(),
/// )
/// .unwrap();
/// let task = TaskSpec {
///     name: "demo".into(),
///     model: ModelKind::LinearRegressor,
///     target: "y".into(),
///     key: Some("id".into()),
///     measures: MeasureSet::new(vec![
///         MeasureSpec::maximise("p_R2"),
///         MeasureSpec::minimise("p_Train", 2.0),
///     ]),
///     metric_kinds: vec![MetricKind::R2, MetricKind::TrainTime],
///     train_ratio: 0.7,
///     seed: 7,
/// };
/// let substrate: Arc<dyn Substrate> =
///     Arc::new(TableSubstrate::from_pool(&[base], task, &TableSpaceConfig::default()));
///
/// let config = ModisConfig::default().with_max_states(20).with_estimator(EstimatorMode::Oracle);
/// let engine = Engine::new(EngineConfig::default());
/// let apx = Scenario::new("apx", substrate.clone(), Algorithm::Apx, config.clone())
///     .with_cache_namespace("demo-pool");
/// let bi = Scenario::new("bi", substrate, Algorithm::Bi, config)
///     .with_cache_namespace("demo-pool");
/// assert_eq!(engine.run_scenario(&apx).shared_hits(), 0);
/// // Both start from the same state: the second reads the first's valuations.
/// assert!(engine.run_scenario(&bi).shared_hits() > 0);
/// ```
pub struct Engine {
    config: EngineConfig,
    cache: Arc<SharedEvalCache>,
    /// Substrates the engine has executed, kept weakly so telemetry can
    /// aggregate their memo counters without pinning dead search spaces.
    memo_sources: Mutex<Vec<Weak<dyn Substrate>>>,
    /// First-seen substrate fingerprint per namespace key
    /// ([`SharedEvalCache::namespace_key`]). A `StateBitmap` only means
    /// something relative to the substrate that produced it, so a namespace
    /// re-used over a structurally different substrate/task (or over
    /// refreshed data) would silently poison valuations — the engine
    /// rejects it instead. Keyed by the stable hashed key so the map can be
    /// persisted with cache snapshots and admitted after a restart. The one
    /// record of who owns a namespace: a service claims at registration, a
    /// run claims before it searches, and a restore admits its pairs.
    namespace_guard: Mutex<HashMap<u64, u64>>,
    /// The engine's metrics registry + span tracer. The service layer and
    /// reactor register their instruments here too, so one `METRICS`
    /// scrape sees the whole daemon.
    telemetry: Telemetry,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineConfig::default())
    }
}

impl Engine {
    /// Creates an engine with its own shared evaluation cache, bounded at
    /// [`EngineConfig::cache_capacity`] evaluations.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            cache: Arc::new(SharedEvalCache::with_capacity(
                config.cache_shards,
                config.cache_capacity,
            )),
            config,
            memo_sources: Mutex::new(Vec::new()),
            namespace_guard: Mutex::new(HashMap::new()),
            telemetry: Telemetry {
                metrics: Arc::new(MetricsRegistry::new()),
                tracer: Arc::new(Tracer::with_capacity(4096)),
            },
        }
    }

    /// The engine's metrics registry — the single registry a daemon's
    /// `METRICS` verb renders. Layers above the engine (service, reactor)
    /// register their instruments into this registry rather than keeping
    /// their own, so one scrape covers the whole process.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.telemetry.metrics
    }

    /// The engine's span tracer (dumped by the `TRACE DUMP` verb).
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.telemetry.tracer
    }

    /// The registry + tracer pair, cloneable into ambient scopes.
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The shared evaluation cache.
    pub fn cache(&self) -> &Arc<SharedEvalCache> {
        &self.cache
    }

    /// One merged telemetry view of every evaluation store the engine
    /// touches: the shared cross-scenario cache (hits/misses/entries/
    /// evictions across its shards) plus the raw-metrics memos of every
    /// substrate the engine has executed so far (`memo_*` fields).
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = self.cache.stats();
        let mut sources = self
            .memo_sources
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        sources.retain(|weak| match weak.upgrade() {
            Some(substrate) => {
                stats.absorb_memo(substrate.memo_stats());
                true
            }
            None => false,
        });
        stats
    }

    /// Claims `namespace` for `fingerprint`: records the pair on first use,
    /// and on a later use answers `Err` with the fingerprint recorded first
    /// (in this process, or in the one a restored snapshot came from) when
    /// it differs — evaluations shared across incompatible search spaces
    /// would be served as each other's.
    pub fn claim_namespace(&self, namespace: &str, fingerprint: u64) -> Result<(), u64> {
        let key = SharedEvalCache::namespace_key(namespace);
        let seen = *self.guard().entry(key).or_insert(fingerprint);
        if seen == fingerprint {
            Ok(())
        } else {
            Err(seen)
        }
    }

    /// Admits the `(namespace key, fingerprint)` pairs of a snapshot or
    /// shipment all at once: under one lock, every pair is checked against
    /// what is recorded (and against the pairs before it), and only when
    /// none conflicts are the new ones recorded. `Err` names the first
    /// conflicting key, and then nothing is recorded.
    pub fn admit_guards(&self, pairs: &[(u64, u64)]) -> Result<(), u64> {
        let mut guard = self.guard();
        let mut admitted = HashMap::with_capacity(pairs.len());
        for &(key, fingerprint) in pairs {
            let seen = guard.get(&key).or(admitted.get(&key)).copied();
            if seen.is_some_and(|seen| seen != fingerprint) {
                return Err(key);
            }
            admitted.insert(key, fingerprint);
        }
        guard.extend(admitted);
        Ok(())
    }

    /// Every recorded `(namespace key, fingerprint)` pair, sorted by key —
    /// the guard state snapshots persist alongside the cache contents, so
    /// the cross-substrate protection survives a restart.
    pub fn namespace_fingerprints(&self) -> Vec<(u64, u64)> {
        let mut pairs: Vec<(u64, u64)> = self.guard().iter().map(|(&k, &v)| (k, v)).collect();
        pairs.sort_unstable();
        pairs
    }

    /// The namespace guard, locked.
    fn guard(&self) -> std::sync::MutexGuard<'_, HashMap<u64, u64>> {
        self.namespace_guard
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Remembers `substrate` (weakly, deduplicated) for memo telemetry.
    fn track_memo_source(&self, substrate: &Arc<dyn Substrate>) {
        let mut sources = self
            .memo_sources
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let ptr = Arc::as_ptr(substrate);
        if !sources.iter().any(|w| std::ptr::eq(w.as_ptr(), ptr)) {
            sources.push(Arc::downgrade(substrate));
        }
    }

    /// Adds `by` (when nonzero) to a counter family labelled by cache
    /// namespace — the per-tenant accounting counters.
    fn count(&self, name: &'static str, help: &'static str, namespace: &str, by: usize) {
        if by > 0 {
            self.telemetry
                .metrics
                .counter_with(name, help, &[("namespace", namespace)])
                .add(by as u64);
        }
    }

    /// Attributes paid vs cache-served valuations to a namespace. "Paid" is
    /// a run's `cost=` — [`SkylineResult::valuation_cost`]: model
    /// trainings *plus* surrogate predictions — so on a warm namespace it
    /// counts predictions only.
    ///
    /// [`SkylineResult::valuation_cost`]: modis_core::config::SkylineResult::valuation_cost
    fn record_valuations(&self, namespace: &str, paid: usize, cached: usize) {
        self.count(
            "engine_paid_valuations_total",
            "Valuations paid for per cache namespace: model trainings plus surrogate predictions \
             (DONE cost=). Trainings alone are STATS misses=, surrogate fits \
             engine_surrogate_fits_total; the rest are predictions.",
            namespace,
            paid,
        );
        self.count(
            "engine_cached_valuations_total",
            "Oracle valuations answered by the shared cache per cache namespace.",
            namespace,
            cached,
        );
    }

    /// Runs one scenario on the calling thread (its waves may still fan out
    /// to [`EngineConfig::worker_threads`]).
    pub fn run_scenario(&self, scenario: &Scenario) -> ScenarioOutcome {
        self.run_scenario_traced(scenario, TraceContext::NONE)
    }

    /// [`Engine::run_scenario`] under an explicit trace context: the
    /// scenario span (and every wave/valuation span opened beneath it)
    /// stitches into `trace`'s trace instead of starting an orphan — the
    /// engine end of the request path the service carries across its
    /// executor thread hop. [`TraceContext::NONE`] falls back to the
    /// implicit thread-local parentage.
    pub fn run_scenario_traced(&self, scenario: &Scenario, trace: TraceContext) -> ScenarioOutcome {
        let start = Instant::now();
        let fingerprint = scenario.substrate.fingerprint();
        if let Err(seen) = self.claim_namespace(scenario.namespace(), fingerprint) {
            panic!(
                "cache namespace {:?} re-used over an incompatible substrate/task \
                 (fingerprint {fingerprint:#x} vs recorded {seen:#x}); use a distinct namespace \
                 per search space",
                scenario.namespace()
            );
        }
        self.track_memo_source(&scenario.substrate);
        let hook = self.cache.handle(scenario.namespace());
        let substrate: &dyn Substrate = scenario.substrate.as_ref();
        // The exact algorithm is oracle-valuated by definition; every other
        // algorithm honours the scenario's estimator mode.
        let mode = if scenario.algorithm == Algorithm::Exact {
            EstimatorMode::Oracle
        } else {
            scenario.config.estimator
        };
        let ctx = ValuationContext::new(substrate, mode).with_hook(hook);
        let threads = self.config.worker_threads;
        let _span = if trace.is_none() {
            self.telemetry.tracer.span("scenario")
        } else {
            self.telemetry.tracer.span_with("scenario", trace)
        };
        // Install the engine's telemetry as the ambient for the algorithm
        // call tree, so deep layers (a search's waves) can time themselves
        // without any signature changes.
        let _ = modis_core::dominance::take_tally();
        let result = telemetry::with_ambient(self.telemetry.clone(), || {
            scenario.algorithm.run(&ctx, &scenario.config, threads)
        });
        // The skyline scan tallies its work on the calling thread;
        // attribute this scenario's share to its namespace.
        let (dom_comparisons, dom_pruned) = modis_core::dominance::take_tally();
        if dom_comparisons > 0 || dom_pruned > 0 {
            let labels = [("namespace", scenario.namespace())];
            self.telemetry
                .metrics
                .counter_with(
                    "engine_dominance_comparisons_total",
                    "Dominance comparisons performed by the skyline scan, per namespace.",
                    &labels,
                )
                .add(dom_comparisons);
            self.telemetry
                .metrics
                .counter_with(
                    "engine_dominance_pruned_total",
                    "Dominance comparisons the scan's early exit skipped, per namespace.",
                    &labels,
                )
                .add(dom_pruned);
        }
        let outcome = ScenarioOutcome {
            name: scenario.name.clone(),
            algorithm: scenario.algorithm,
            result,
            wall_seconds: start.elapsed().as_secs_f64(),
            substrate_cache: substrate.memo_stats(),
        };
        self.record_valuations(
            scenario.namespace(),
            outcome.valuation_cost(),
            outcome.shared_hits(),
        );
        let stats = outcome.result.stats;
        self.count(
            "engine_surrogate_fits_total",
            "MO-GBM surrogate fits a scenario ran (MultiOutputGbm::fit), per cache namespace.",
            scenario.namespace(),
            stats.surrogate_fits,
        );
        self.count(
            "engine_surrogate_reused_total",
            "MO-GBM surrogate fits answered by the fitted-surrogate memo (same training matrix \
             fitted before in this process), per cache namespace.",
            scenario.namespace(),
            stats.surrogate_reuses,
        );
        self.count(
            "engine_surrogate_estimates_reused_total",
            "Surrogate predictions answered by the model's estimate table (the same model had \
             estimated the same state of the same substrate before in this process), per cache \
             namespace.",
            scenario.namespace(),
            stats.estimate_reuses,
        );
        self.telemetry
            .metrics
            .histogram(
                "engine_scenario_us",
                "Wall time of one scenario run, microseconds.",
            )
            .record_duration(start.elapsed());
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modis_core::config::ModisConfig;
    use modis_core::estimator::{EvaluationHook, ValuationStats};
    use modis_core::substrate::mock::MockSubstrate;

    fn oracle_config() -> ModisConfig {
        ModisConfig::default()
            .with_estimator(EstimatorMode::Oracle)
            .with_max_states(120)
            .with_max_level(5)
    }

    fn mock_suite(shared_namespace: bool) -> Vec<Scenario> {
        let substrate: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(8));
        [
            Algorithm::Apx,
            Algorithm::NoBi,
            Algorithm::Bi,
            Algorithm::Div,
        ]
        .into_iter()
        .map(|alg| {
            let s = Scenario::new(
                format!("mock-{}", alg.name()),
                substrate.clone(),
                alg,
                oracle_config(),
            );
            if shared_namespace {
                s.with_cache_namespace("mock-pool")
            } else {
                s
            }
        })
        .collect()
    }

    #[test]
    fn shared_namespace_produces_cache_hits() {
        let engine = Engine::new(EngineConfig::default());
        let outcomes: Vec<ScenarioOutcome> = mock_suite(true)
            .iter()
            .map(|s| engine.run_scenario(s))
            .collect();
        // All four scenarios search the same space from the same start state;
        // everything after the first scenario's valuations should hit.
        assert_eq!(outcomes[0].shared_hits(), 0, "the first run starts cold");
        let hits: usize = outcomes.iter().map(|o| o.shared_hits()).sum();
        assert!(hits > 0, "expected shared-cache hits");
        let stats = engine.cache_stats();
        assert!(stats.hits >= hits);
        assert!(stats.entries > 0);
    }

    #[test]
    fn isolated_namespaces_do_not_share() {
        let engine = Engine::new(EngineConfig::default());
        for scenario in &mock_suite(false) {
            assert_eq!(engine.run_scenario(scenario).shared_hits(), 0);
        }
        assert_eq!(engine.cache_stats().hits, 0);
    }

    #[test]
    #[should_panic(expected = "re-used over an incompatible substrate/task")]
    fn namespace_guard_rejects_incompatible_substrates() {
        let engine = Engine::new(EngineConfig::default());
        let a: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(6));
        let b: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(8));
        engine.run_scenario(
            &Scenario::new("a", a, Algorithm::Apx, oracle_config()).with_cache_namespace("shared"),
        );
        // Different unit universe under the same namespace: rejected.
        engine.run_scenario(
            &Scenario::new("b", b, Algorithm::Apx, oracle_config()).with_cache_namespace("shared"),
        );
    }

    #[test]
    fn namespace_guard_accepts_equal_fingerprints() {
        let engine = Engine::new(EngineConfig::default());
        // Two *instances* with identical structure may share a namespace.
        let a: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(6));
        let b: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(6));
        engine.run_scenario(
            &Scenario::new("a", a, Algorithm::Apx, oracle_config()).with_cache_namespace("shared"),
        );
        let out = engine.run_scenario(
            &Scenario::new("b", b, Algorithm::Apx, oracle_config()).with_cache_namespace("shared"),
        );
        assert!(out.shared_hits() > 0, "identical space reuses evaluations");
    }

    #[test]
    fn cache_stats_aggregates_substrate_memos() {
        let engine = Engine::new(EngineConfig::default());
        // MockSubstrate keeps no memo, so exercise the plumbing through a
        // tracked substrate's default stats and the shared cache counters.
        let substrate: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(6));
        let scenario = Scenario::new("memo", substrate, Algorithm::Apx, oracle_config());
        let outcome = engine.run_scenario(&scenario);
        assert_eq!(outcome.substrate_cache.entries, 0, "mock keeps no memo");
        let stats = engine.cache_stats();
        assert!(stats.entries > 0, "shared cache recorded valuations");
        assert_eq!(stats.memo_entries, 0);
        assert!(stats.hit_rate() >= 0.0);
    }

    /// A 40-row regression pool scored on R² and MSE.
    fn small_table() -> Arc<dyn Substrate> {
        use modis_core::prelude::*;
        use modis_data::{Attribute, Dataset, Schema, Value};
        let rows = (0..40i64)
            .map(|i| {
                let (a, b) = ((i % 5) as f64, (i % 7) as f64);
                vec![
                    Value::Int(i),
                    Value::Float(a),
                    Value::Float(b),
                    Value::Float(2.0 * a - 0.5 * b + (i % 3) as f64 * 0.1),
                ]
            })
            .collect();
        let schema = Schema::from_attributes(vec![
            Attribute::key("id"),
            Attribute::feature("a"),
            Attribute::feature("b"),
            Attribute::target("y"),
        ]);
        let task = TaskSpec {
            name: "small".into(),
            model: ModelKind::LinearRegressor,
            target: "y".into(),
            key: Some("id".into()),
            measures: MeasureSet::new(vec![
                MeasureSpec::maximise("p_R2"),
                MeasureSpec::minimise("p_MSE", 4.0),
            ]),
            metric_kinds: vec![MetricKind::R2, MetricKind::Mse],
            train_ratio: 0.7,
            seed: 7,
        };
        let base = Dataset::from_rows("base", schema, rows).unwrap();
        Arc::new(TableSubstrate::from_pool(
            &[base],
            task,
            &TableSpaceConfig::default(),
        ))
    }

    fn surrogate_scenario(substrate: &Arc<dyn Substrate>, algorithm: Algorithm) -> Scenario {
        let config = ModisConfig::default()
            .with_estimator(EstimatorMode::Surrogate {
                warmup: 3,
                refresh: 1,
            })
            .with_max_states(60)
            .with_max_level(4);
        Scenario::new("memo", substrate.clone(), algorithm, config)
    }

    /// Everything of a run that must not depend on whether its surrogates
    /// were fitted or reused, floats on their bits. (`oracle_calls` vs
    /// `shared_hits` is not in it: that split tells a cold evaluation cache
    /// from a warm one.)
    fn answer(outcome: &ScenarioOutcome) -> impl PartialEq + std::fmt::Debug {
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<u64>>();
        let entries: Vec<_> = outcome
            .result
            .entries
            .iter()
            .map(|e| (e.bitmap.clone(), bits(&e.perf), bits(&e.raw), e.size))
            .collect();
        let stats = outcome.result.stats;
        (
            entries,
            outcome.result.states_valuated,
            stats.surrogate_calls,
            stats.surrogate_fits + stats.surrogate_reuses,
        )
    }

    /// One value of a labelled counter family, 0 while it is unregistered.
    fn counter(engine: &Engine, family: &str) -> u64 {
        let prefix = format!("{family}{{namespace=\"memo\"}} ");
        engine
            .metrics()
            .render()
            .iter()
            .find_map(|line| line.strip_prefix(&prefix)?.trim().parse().ok())
            .unwrap_or(0)
    }

    /// The fitted-surrogate memo changes which runs fit, never what a run
    /// returns: every algorithm, on a mock and on a tabular substrate,
    /// answers its second and third run (and a run on a fresh engine) with
    /// the first run's bytes, and only the first run fits. A reused model
    /// brings its estimates along, so the warm runs predict nothing: the
    /// table answers every surrogate valuation. A first run's models are
    /// new and the table is keyed by state, which a run valuates once, so it
    /// answers none of the first run's estimates on either substrate (not
    /// even the mock's, whose two-cell rows repeat across states).
    #[test]
    fn warm_runs_reuse_every_surrogate_and_return_the_cold_runs_bytes() {
        let mock: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(8));
        for substrate in [mock, small_table()] {
            for algorithm in [
                Algorithm::Apx,
                Algorithm::NoBi,
                Algorithm::Bi,
                Algorithm::Div,
            ] {
                let scenario = surrogate_scenario(&substrate, algorithm);
                let engine = Engine::new(EngineConfig::default().with_worker_threads(2));
                let [first, second, third] = [(); 3].map(|()| engine.run_scenario(&scenario));
                let fresh = Engine::new(EngineConfig::default().with_worker_threads(2))
                    .run_scenario(&scenario);
                let label = algorithm.name();
                let fits = first.result.stats.surrogate_fits;
                assert!(fits >= 1, "{label}: the surrogate took over");
                assert!(first.result.stats.surrogate_calls > 0, "{label}");
                assert_eq!(first.result.stats.surrogate_reuses, 0, "{label}");
                assert_eq!(fresh.result.stats, first.result.stats, "{label}");
                for (run, name) in [(&second, "second"), (&third, "third"), (&fresh, "fresh")] {
                    assert_eq!(answer(run), answer(&first), "{label}: {name} run");
                }
                assert_eq!(second.result.stats.surrogate_fits, 0, "{label}");
                assert_eq!(second.result.stats.surrogate_reuses, fits, "{label}");
                assert_eq!(second.result.stats.oracle_calls, 0, "{label}: warm cache");
                assert_eq!(third.result.stats, second.result.stats, "{label}");
                let calls = first.result.stats.surrogate_calls;
                assert_eq!(first.result.stats.estimate_reuses, 0, "{label}");
                assert_eq!(second.result.stats.estimate_reuses, calls, "{label}");
                // The counter families are live and agree with the runs.
                assert_eq!(counter(&engine, "engine_surrogate_fits_total"), fits as u64);
                assert_eq!(
                    counter(&engine, "engine_surrogate_reused_total"),
                    2 * fits as u64,
                    "{label}"
                );
                assert_eq!(
                    counter(&engine, "engine_surrogate_estimates_reused_total"),
                    2 * calls as u64,
                    "{label}"
                );
            }
        }
    }

    /// Without a hook the context fits for itself; with the engine's hook
    /// it fits through the memo or reuses. Same search, same result.
    #[test]
    fn a_hooked_context_returns_what_a_hookless_one_returns() {
        let substrate = small_table();
        let scenario = surrogate_scenario(&substrate, Algorithm::Bi);
        let run = |hook: Option<Arc<dyn EvaluationHook>>| {
            let ctx = ValuationContext::new(substrate.as_ref(), scenario.config.estimator);
            let ctx = match hook {
                Some(hook) => ctx.with_hook(hook),
                None => ctx,
            };
            ScenarioOutcome {
                name: "memo".into(),
                algorithm: Algorithm::Bi,
                result: Algorithm::Bi.run(&ctx, &scenario.config, 1),
                wall_seconds: 0.0,
                substrate_cache: Default::default(),
            }
        };
        let cache = Arc::new(SharedEvalCache::with_capacity(4, 0));
        let bare = run(None);
        let cold = run(Some(cache.handle("memo")));
        let warm = run(Some(cache.handle("memo")));
        assert!(bare.result.stats.surrogate_fits >= 1);
        assert_eq!(bare.result.stats, cold.result.stats);
        assert_eq!(warm.result.stats.surrogate_fits, 0);
        assert_eq!(answer(&cold), answer(&bare));
        assert_eq!(answer(&warm), answer(&bare));
    }

    /// Eight threads released together onto one scenario of one engine
    /// race on the memo (a key may be fitted more than once: the fit runs
    /// outside the lock) and on the estimate tables of the models they
    /// share. Every thread still returns the sequential result, every refit
    /// it made was either a fit or a reuse, and the tables answered no more
    /// predictions than were asked for.
    #[test]
    fn racing_runs_of_one_scenario_all_return_the_sequential_result() {
        let substrate: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(8));
        let scenario = surrogate_scenario(&substrate, Algorithm::NoBi);
        let config = || EngineConfig::default().with_worker_threads(1);
        let sequential = Engine::new(config()).run_scenario(&scenario);
        let refits = sequential.result.stats.surrogate_fits;
        assert!(refits >= 2, "more than one key to race on");

        let engine = Engine::new(config());
        let barrier = std::sync::Barrier::new(8);
        let outcomes: Vec<ScenarioOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        engine.run_scenario(&scenario)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for outcome in &outcomes {
            assert_eq!(answer(outcome), answer(&sequential));
        }
        let total = |field: fn(&ValuationStats) -> usize| -> usize {
            outcomes.iter().map(|o| field(&o.result.stats)).sum()
        };
        let (fits, reuses) = (total(|s| s.surrogate_fits), total(|s| s.surrogate_reuses));
        assert_eq!(fits + reuses, 8 * refits);
        assert!(fits >= refits, "somebody fitted each model");
        assert_eq!(counter(&engine, "engine_surrogate_fits_total"), fits as u64);
        assert_eq!(
            counter(&engine, "engine_surrogate_reused_total"),
            reuses as u64
        );
        let estimates = total(|s| s.estimate_reuses);
        assert!(estimates <= total(|s| s.surrogate_calls));
        assert_eq!(
            counter(&engine, "engine_surrogate_estimates_reused_total"),
            estimates as u64
        );
    }

    /// Four scenarios over one namespace, run in turn on one engine and
    /// at once on another, return the same skylines: only which of them
    /// pays a training and which reads it from the cache depends on timing.
    #[test]
    fn concurrent_and_serial_suites_agree_on_skylines() {
        let scenarios = mock_suite(true);
        let serial_engine = Engine::new(EngineConfig::default().with_worker_threads(1));
        let serial: Vec<ScenarioOutcome> = scenarios
            .iter()
            .map(|s| serial_engine.run_scenario(s))
            .collect();
        let engine = Engine::new(EngineConfig::default().with_worker_threads(4));
        let concurrent: Vec<ScenarioOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = scenarios
                .iter()
                .map(|s| scope.spawn(|| engine.run_scenario(s)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (a, b) in serial.iter().zip(&concurrent) {
            assert_eq!(a.result.entries.len(), b.result.entries.len(), "{}", a.name);
            for (x, y) in a.result.entries.iter().zip(&b.result.entries) {
                assert_eq!(x.bitmap, y.bitmap);
                assert_eq!(x.perf, y.perf);
            }
        }
    }
}
