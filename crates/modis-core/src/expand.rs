//! How a [`ValuationContext`] trains ahead: in waves.
//!
//! A search knows some of its oracle valuations before it makes them, and
//! names them to its [`crate::search_common::Frontier`] before each step
//! ([`crate::search_common::Frontier::train_ahead`]). ApxMODis, the exact
//! algorithm, NOBiMODis and DivMODis valuate every child a step spawns, so
//! they name all of them; BiMODis names only those it valuates before its
//! pruning is armed. Every search names its start state(s) together with
//! its first step's children, so they are trained in its first wave.
//!
//! The context trains the named states ahead
//! ([`ValuationContext::train_ahead`]): the installed [`EvaluationHook`] is
//! probed on the calling thread, up to `workers` threads train the states
//! it misses, and each result is *parked* until the search valuates its
//! state. Only then is it committed — recorded in the context, published
//! to the hook, counted and handed to the search — so commits happen in
//! the order a one-state-at-a-time search makes them and the outcome is the
//! same for every worker count, 1 included. Under
//! [`EstimatorMode::Surrogate`] nothing is trained past the
//! oracle→surrogate switch-over, and the cheap surrogate phase runs one
//! state at a time. Once BiMODis' pruning is armed, whether a child is
//! valuated depends on its earlier siblings' valuations, so it trains
//! nothing ahead and valuates one child at a time (still through the hook).
//!
//! [`EvaluationHook`]: crate::estimator::EvaluationHook

use std::time::Instant;

use modis_data::StateBitmap;

use crate::estimator::{Ahead, ValuationContext};
use crate::pool::probe_then_map;
use crate::substrate::Substrate;
use crate::telemetry;

/// How many states each worker thread gets per wave, on average.
const WAVE_FACTOR: usize = 4;

impl<S: Substrate + ?Sized> ValuationContext<'_, S> {
    /// Makes ahead the oracle valuations of `states` (distinct, in the
    /// order the search will valuate them, within a budget of `max_states`
    /// records), in waves of up to `workers · WAVE_FACTOR` states: the hook
    /// is probed on the calling thread and the misses are trained across
    /// the pool. Each result is parked until
    /// [`ValuationContext::valuate_oracle`] asks for its state, which
    /// commits it then.
    ///
    /// Only what the one-at-a-time search would train is made ahead
    /// (`oracle_states_ahead`): no memo hit, nothing past the budget, and
    /// nothing the surrogate would estimate. The caller names only states
    /// it is certain to valuate: a parked result nobody asks for would be a
    /// training the one-at-a-time search never pays. `states` is read under
    /// the context's lock, so it must not call into the context.
    pub(crate) fn train_ahead<'s>(
        &self,
        states: impl IntoIterator<Item = &'s StateBitmap>,
        max_states: usize,
        workers: usize,
    ) {
        let ahead = self.oracle_states_ahead(states, max_states);
        for wave in ahead.chunks(workers.max(1) * WAVE_FACTOR) {
            let wave_start = Instant::now();
            // Spans open on the coordinator thread, so they inherit the
            // enclosing scenario span's trace through the thread-local stack;
            // "valuation" times the thread-pool pass itself, "wave" adds the
            // parking around it.
            let ambient = telemetry::ambient();
            let _wave_span = ambient.as_ref().map(|t| t.tracer.span("wave"));
            let valuation_span = ambient.as_ref().map(|t| t.tracer.span("valuation"));
            let results = self.evaluate_wave(wave, workers);
            drop(valuation_span);
            self.park(wave.iter().copied().zip(results));
            if let Some(telemetry) = ambient {
                telemetry
                    .metrics
                    .histogram(
                        "engine_wave_us",
                        "Wall time of one parallel wave expansion, microseconds.",
                    )
                    .record_duration(wave_start.elapsed());
                telemetry
                    .metrics
                    .histogram(
                        "engine_wave_states",
                        "States valuated per parallel wave expansion.",
                    )
                    .record(wave.len() as u64);
            }
        }
    }

    /// The oracle valuations of one wave's states, in wave order: the
    /// hook's evaluation where it has one, probed on the calling thread,
    /// and the misses trained across the pool.
    fn evaluate_wave(&self, wave: &[&StateBitmap], workers: usize) -> Vec<Ahead> {
        let substrate = self.substrate();
        let hook = self.hook();
        probe_then_map(
            wave.len(),
            workers,
            |i| hook.and_then(|h| h.lookup(wave[i])).map(Ahead::Shared),
            |i| Ahead::Trained(substrate.evaluate_raw(wave[i])),
        )
        .into_iter()
        .map(|(valuation, _)| valuation)
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

    use super::*;
    use crate::algorithm::Algorithm;
    use crate::apx::{apx_modis_with_context, reference_apx};
    use crate::bimodis::{bi_search, BiStats};
    use crate::config::{ModisConfig, SkylineResult};
    use crate::divmodis::div_search;
    use crate::estimator::{EstimatorMode, EvaluationHook, SharedEvaluation};
    use crate::exact::{exact_modis_with_context, reference_exact};
    use crate::substrate::mock::MockSubstrate;

    /// The worker counts every comparison runs at.
    const WORKERS: [usize; 4] = [1, 2, 4, 8];

    fn oracle_config() -> ModisConfig {
        ModisConfig::default()
            .with_estimator(EstimatorMode::Oracle)
            .with_epsilon(0.1)
            .with_max_states(200)
            .with_max_level(6)
    }

    /// The same entries (floats on their bits) and the same valuation count.
    fn assert_same_answer(a: &SkylineResult, b: &SkylineResult, workers: usize) {
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<u64>>();
        assert_eq!(a.entries.len(), b.entries.len(), "workers {workers}");
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.bitmap, y.bitmap, "workers {workers}");
            assert_eq!(bits(&x.perf), bits(&y.perf), "workers {workers}");
            assert_eq!(bits(&x.raw), bits(&y.raw), "workers {workers}");
            assert_eq!(x.size, y.size, "workers {workers}");
            assert_eq!(x.level, y.level, "workers {workers}");
        }
        assert_eq!(a.states_valuated, b.states_valuated, "workers {workers}");
    }

    /// The same answer, reached through the same counters.
    fn assert_same_result(a: &SkylineResult, b: &SkylineResult, workers: usize) {
        assert_same_answer(a, b, workers);
        assert_eq!(a.stats, b.stats, "workers {workers}");
    }

    /// ApxMODis on a fresh context returns at every worker count what the
    /// one-child-at-a-time reference returns; the reference's result.
    fn apx_matches_reference(sub: &MockSubstrate, cfg: &ModisConfig) -> SkylineResult {
        let reference = reference_apx(&ValuationContext::new(sub, cfg.estimator), cfg);
        for workers in WORKERS {
            let ctx = ValuationContext::new(sub, cfg.estimator);
            let waved = apx_modis_with_context(&ctx, cfg, workers);
            assert_same_result(&waved, &reference, workers);
        }
        reference
    }

    #[test]
    fn parallel_apx_matches_sequential_across_thread_counts() {
        apx_matches_reference(&MockSubstrate::new(8), &oracle_config());
    }

    #[test]
    fn parallel_apx_matches_sequential_under_tight_budget() {
        let reference = apx_matches_reference(
            &MockSubstrate::new(10),
            &oracle_config().with_max_states(17),
        );
        assert_eq!(reference.states_valuated, 17);
    }

    #[test]
    fn parallel_apx_is_deterministic_in_surrogate_mode() {
        let cfg = ModisConfig::default()
            .with_estimator(EstimatorMode::Surrogate {
                warmup: 7,
                refresh: 5,
            })
            .with_max_states(80);
        let reference = apx_matches_reference(&MockSubstrate::new(8), &cfg);
        assert!(
            reference.stats.surrogate_calls > 0,
            "surrogate should have engaged"
        );
    }

    /// Waves stop at the warm-up: no state the reference estimates with the
    /// surrogate is trained by a wave (the counters would differ).
    #[test]
    fn surrogate_waves_match_fully_sequential_run() {
        let cfg = ModisConfig::default()
            .with_estimator(EstimatorMode::Surrogate {
                warmup: 9,
                refresh: 6,
            })
            .with_max_states(60);
        let reference = apx_matches_reference(&MockSubstrate::new(8), &cfg);
        assert!(reference.stats.surrogate_calls > 0);
    }

    /// The `_with_context` APIs exist to share test records across runs; a
    /// re-used context's memoised states replay as budget-free memo hits,
    /// exactly like the one-at-a-time search.
    #[test]
    fn parallel_apx_matches_sequential_on_prewarmed_context() {
        let sub = MockSubstrate::new(8);
        let warm_cfg = oracle_config().with_max_states(15);
        let cfg = oracle_config().with_max_states(40);
        let prewarmed = || {
            let ctx = ValuationContext::new(&sub, EstimatorMode::Oracle);
            let _ = reference_apx(&ctx, &warm_cfg);
            ctx
        };
        let reference = reference_apx(&prewarmed(), &cfg);
        assert!(reference.stats.cache_hits > 0, "the warm-up is replayed");
        for workers in WORKERS {
            let waved = apx_modis_with_context(&prewarmed(), &cfg, workers);
            assert_same_result(&waved, &reference, workers);
        }
    }

    /// An unbounded map that remembers which thread every `lookup` ran on
    /// and every state that was recorded, in order.
    #[derive(Default)]
    struct RecordingHook {
        entries: Mutex<HashMap<StateBitmap, SharedEvaluation>>,
        lookup_threads: Mutex<Vec<ThreadId>>,
        recorded: Mutex<Vec<StateBitmap>>,
    }

    impl EvaluationHook for RecordingHook {
        fn lookup(&self, bitmap: &StateBitmap) -> Option<SharedEvaluation> {
            self.lookup_threads
                .lock()
                .unwrap()
                .push(std::thread::current().id());
            self.entries.lock().unwrap().get(bitmap).cloned()
        }

        fn record(&self, bitmap: &StateBitmap, evaluation: &SharedEvaluation) {
            self.recorded.lock().unwrap().push(bitmap.clone());
            self.entries
                .lock()
                .unwrap()
                .insert(bitmap.clone(), evaluation.clone());
        }
    }

    /// No thread is spawned to read the cache: a search whose every wave
    /// is answered by the hook looks up on the caller's thread only, and
    /// returns what the search that paid for the states returned.
    #[test]
    fn an_all_hit_search_looks_up_on_the_callers_thread_only() {
        let sub = MockSubstrate::new(8);
        let cfg = oracle_config();
        let reference = reference_apx(&ValuationContext::new(&sub, EstimatorMode::Oracle), &cfg);
        for workers in WORKERS {
            let hook = Arc::new(RecordingHook::default());
            let run = || {
                let ctx =
                    ValuationContext::new(&sub, EstimatorMode::Oracle).with_hook(hook.clone());
                apx_modis_with_context(&ctx, &cfg, workers)
            };
            let cold = run();
            assert_same_result(&cold, &reference, workers);
            let paid = hook.recorded.lock().unwrap().len();
            assert_eq!(paid, cold.stats.oracle_calls);

            hook.lookup_threads.lock().unwrap().clear();
            let warm = run();
            assert_same_answer(&warm, &cold, workers);
            assert_eq!(warm.stats.oracle_calls, 0);
            assert_eq!(warm.stats.shared_hits, paid);
            assert_eq!(
                hook.recorded.lock().unwrap().len(),
                paid,
                "nothing is paid twice"
            );
            let lookups = hook.lookup_threads.lock().unwrap();
            assert_eq!(lookups.len(), paid);
            let caller = std::thread::current().id();
            assert!(lookups.iter().all(|&thread| thread == caller));
        }
    }

    #[test]
    fn parallel_exact_matches_sequential() {
        let sub = MockSubstrate::new(6);
        let cfg = ModisConfig::default()
            .with_max_states(10_000)
            .with_max_level(6);
        let reference = reference_exact(&ValuationContext::new(&sub, EstimatorMode::Oracle), &cfg);
        assert_eq!(reference.states_valuated, 1 << 6);
        for workers in WORKERS {
            let ctx = ValuationContext::new(&sub, EstimatorMode::Oracle);
            let waved = exact_modis_with_context(&ctx, &cfg, workers);
            assert_same_result(&waved, &reference, workers);
        }
    }

    /// A [`MockSubstrate`] that logs every training: the state and the
    /// thread it ran on.
    struct Counted {
        inner: MockSubstrate,
        trained: Mutex<Vec<(StateBitmap, ThreadId)>>,
    }

    impl Counted {
        fn new(n: usize) -> Self {
            Counted {
                inner: MockSubstrate::new(n),
                trained: Mutex::default(),
            }
        }

        /// The trained states, sorted: a multiset.
        fn trained(&self) -> Vec<StateBitmap> {
            let mut states: Vec<StateBitmap> = self
                .trained
                .lock()
                .unwrap()
                .iter()
                .map(|(state, _)| state.clone())
                .collect();
            states.sort();
            states
        }

        /// Whether a training ran off the calling thread: a wave held at
        /// least two states the hook missed.
        fn trained_on_the_pool(&self) -> bool {
            let caller = std::thread::current().id();
            self.trained
                .lock()
                .unwrap()
                .iter()
                .any(|&(_, t)| t != caller)
        }
    }

    impl Substrate for Counted {
        fn num_units(&self) -> usize {
            self.inner.num_units()
        }
        fn unit_label(&self, unit: usize) -> String {
            self.inner.unit_label(unit)
        }
        fn backward_start(&self) -> StateBitmap {
            self.inner.backward_start()
        }
        fn measures(&self) -> &crate::measure::MeasureSet {
            self.inner.measures()
        }
        fn evaluate_raw(&self, bitmap: &StateBitmap) -> Vec<f64> {
            let thread = std::thread::current().id();
            self.trained.lock().unwrap().push((bitmap.clone(), thread));
            self.inner.evaluate_raw(bitmap)
        }
        fn state_features(&self, bitmap: &StateBitmap) -> Vec<f64> {
            self.inner.state_features(bitmap)
        }
        fn artifact_size(&self, bitmap: &StateBitmap) -> (usize, usize) {
            self.inner.artifact_size(bitmap)
        }
    }

    /// The searches compared with their own 1-worker run; ApxMODis and the
    /// exact algorithm have one-child-at-a-time references instead.
    const FRONTIER_SEARCHES: [Algorithm; 3] = [Algorithm::Bi, Algorithm::NoBi, Algorithm::Div];

    fn frontier_search<S: Substrate + ?Sized>(
        algorithm: Algorithm,
        ctx: &ValuationContext<'_, S>,
        cfg: &ModisConfig,
        workers: usize,
    ) -> (SkylineResult, BiStats) {
        match algorithm {
            Algorithm::Bi => bi_search(ctx, cfg, true, workers),
            Algorithm::NoBi => bi_search(ctx, cfg, false, workers),
            Algorithm::Div => (div_search(ctx, cfg, workers), BiStats::default()),
            other => unreachable!("{other:?} is compared with its reference"),
        }
    }

    /// Bi, NOBi and Div at 2 / 4 / 8 workers return what they return at 1
    /// — entries on their bits, `states_valuated`, the whole
    /// `ValuationStats` and `BiStats` — and train exactly the states the
    /// 1-worker run trains, each as often. Every run has its own substrate
    /// and a context in `cfg.estimator`'s mode, first pre-warmed by a
    /// reference ApxMODis run under `prewarm` when one is given. Returns
    /// whether some search trained a wave of two or more states on the pool.
    fn frontier_searches_match_one_worker(
        n: usize,
        cfg: &ModisConfig,
        prewarm: Option<&ModisConfig>,
    ) -> bool {
        let mut pooled = false;
        for algorithm in FRONTIER_SEARCHES {
            let run = |workers: usize| {
                let sub = Counted::new(n);
                let ctx = ValuationContext::new(&sub, cfg.estimator);
                if let Some(warm_cfg) = prewarm {
                    let _ = reference_apx(&ctx, warm_cfg);
                }
                let (result, stats) = frontier_search(algorithm, &ctx, cfg, workers);
                (result, stats, sub.trained(), sub.trained_on_the_pool())
            };
            let (reference, reference_stats, reference_trained, serial) = run(1);
            assert!(!serial, "{algorithm:?}: one worker trains on the caller");
            for workers in [2, 4, 8] {
                let (result, stats, trained, on_pool) = run(workers);
                let label = format!("{algorithm:?} x{workers}");
                assert_same_result(&result, &reference, workers);
                assert_eq!(stats, reference_stats, "{label}");
                assert_eq!(trained, reference_trained, "{label}: trainings");
                pooled |= on_pool;
            }
        }
        pooled
    }

    #[test]
    fn frontier_searches_match_one_worker_on_a_fresh_context() {
        let cfg = oracle_config().with_max_states(120).with_max_level(5);
        assert!(frontier_searches_match_one_worker(8, &cfg, None));
    }

    /// The warm-up caps what is trained ahead: nothing the 1-worker run
    /// estimates with the surrogate is trained (the trainings would differ).
    #[test]
    fn frontier_searches_match_one_worker_across_the_surrogate_switch_over() {
        for warmup in [3, 7] {
            let estimator = EstimatorMode::Surrogate { warmup, refresh: 5 };
            let cfg = oracle_config()
                .with_estimator(estimator)
                .with_max_states(80)
                .with_max_level(5);
            assert!(frontier_searches_match_one_worker(8, &cfg, None));
        }
    }

    #[test]
    fn frontier_searches_match_one_worker_under_a_tight_budget() {
        let cfg = oracle_config().with_max_states(17);
        assert!(frontier_searches_match_one_worker(10, &cfg, None));
    }

    /// A re-used context's memoised states are memo hits that consume no
    /// budget and are never trained ahead.
    #[test]
    fn frontier_searches_match_one_worker_on_a_prewarmed_context() {
        let cfg = oracle_config().with_max_states(40).with_max_level(5);
        let warm_cfg = oracle_config().with_max_states(15);
        assert!(frontier_searches_match_one_worker(8, &cfg, Some(&warm_cfg)));
    }

    /// A hook that answers every state is probed once per oracle valuation,
    /// on the caller's thread, whether the state was named ahead or not;
    /// nothing is trained and no pool thread opens.
    #[test]
    fn frontier_searches_on_an_all_hit_hook_look_up_on_the_callers_thread_only() {
        let sub = Counted::new(8);
        let cfg = oracle_config().with_max_states(120).with_max_level(5);
        let caller = std::thread::current().id();
        for algorithm in FRONTIER_SEARCHES {
            let reference = {
                let ctx = ValuationContext::new(&sub, EstimatorMode::Oracle);
                frontier_search(algorithm, &ctx, &cfg, 1).0
            };
            for workers in WORKERS {
                let hook = Arc::new(RecordingHook::default());
                let run = || {
                    let ctx =
                        ValuationContext::new(&sub, EstimatorMode::Oracle).with_hook(hook.clone());
                    frontier_search(algorithm, &ctx, &cfg, workers).0
                };
                let cold = run();
                assert_same_result(&cold, &reference, workers);
                let paid = hook.recorded.lock().unwrap().len();
                assert_eq!(paid, cold.stats.oracle_calls);
                assert_eq!(hook.lookup_threads.lock().unwrap().len(), paid);

                hook.lookup_threads.lock().unwrap().clear();
                sub.trained.lock().unwrap().clear();
                let warm = run();
                assert_same_answer(&warm, &cold, workers);
                assert_eq!(warm.stats.oracle_calls, 0);
                assert_eq!(warm.stats.shared_hits, paid);
                assert!(sub.trained().is_empty(), "{algorithm:?} x{workers}");
                let lookups = hook.lookup_threads.lock().unwrap();
                assert_eq!(lookups.len(), paid, "one probe per valuation");
                assert!(lookups.iter().all(|&thread| thread == caller));
            }
        }
    }

    /// Both exact forms share the one budget every search has: a re-used
    /// context's memoised states replay as memo hits, and the records it
    /// already held count toward `max_states`.
    #[test]
    fn parallel_exact_matches_sequential_on_prewarmed_context() {
        let sub = MockSubstrate::new(8);
        let warm_cfg = oracle_config().with_max_states(15);
        let cfg = oracle_config().with_max_states(25);
        let prewarmed = || {
            let ctx = ValuationContext::new(&sub, EstimatorMode::Oracle);
            let _ = reference_apx(&ctx, &warm_cfg);
            ctx
        };
        let reference = reference_exact(&prewarmed(), &cfg);
        assert!(reference.stats.cache_hits > 0, "the warm-up is replayed");
        assert_eq!(reference.states_valuated, cfg.max_states);
        for workers in WORKERS {
            let waved = exact_modis_with_context(&prewarmed(), &cfg, workers);
            assert_same_result(&waved, &reference, workers);
        }
    }
}
