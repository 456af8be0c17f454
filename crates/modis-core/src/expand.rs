//! How a [`ValuationContext`] valuates a schedule: in waves.
//!
//! ApxMODis and the exact algorithm share a property: their traversal order
//! is a pure function of the search-space structure — `OpGen` children are
//! spawned, deduplicated and queued regardless of how they *score*. Each of
//! them therefore lists its traversal first
//! ([`crate::search_common::forward_schedule`]) and then has the context
//! valuate that list in waves: the installed [`EvaluationHook`] is probed on
//! the calling thread, up to `workers` threads train the states it misses,
//! and the results are *committed* — recorded in the context and handed to
//! the search — strictly in schedule order.
//!
//! Because commits happen in the order a one-state-at-a-time search would
//! valuate, the outcome is the same for every worker count, 1 included.
//! Under [`EstimatorMode::Surrogate`] waves never straddle the
//! oracle→surrogate switch-over, and the cheap surrogate phase runs one
//! state at a time. BiMODis prunes a child against a skyline its earlier
//! siblings have just grown, so its traversal depends on every earlier
//! valuation and it valuates one child at a time (still through the hook).
//!
//! [`EvaluationHook`]: crate::estimator::EvaluationHook

use std::time::Instant;

use modis_data::StateBitmap;

use crate::estimator::{EstimatorMode, ValuationContext};
use crate::pool::probe_then_map;
use crate::substrate::Substrate;
use crate::telemetry;

/// How many schedule entries each worker thread gets per wave, on average.
const WAVE_FACTOR: usize = 4;

impl<S: Substrate + ?Sized> ValuationContext<'_, S> {
    /// Valuates `schedule` in order and hands every entry to
    /// `commit(state, level, perf)` in schedule order: oracle phases in
    /// waves trained by up to `workers` threads, states the context already
    /// holds and the surrogate phase one at a time. Counters, budget and
    /// the surrogate's refits come out as if every state had gone through
    /// [`ValuationContext::valuate`] in turn.
    pub(crate) fn valuate_schedule(
        &self,
        schedule: &[(StateBitmap, usize)],
        workers: usize,
        mut commit: impl FnMut(&StateBitmap, usize, Vec<f64>),
    ) {
        let mut i = 0;
        while i < schedule.len() {
            if self.surrogate_active() {
                for (state, level) in &schedule[i..] {
                    commit(state, *level, self.valuate(state));
                }
                return;
            }
            // States already recorded in a (pre-warmed) context are memo hits
            // one at a time — replay them through `valuate` so counters and
            // budget behave identically, and never hand them to a wave.
            let (state, level) = &schedule[i];
            if self.contains(state) {
                commit(state, *level, self.valuate(state));
                i += 1;
                continue;
            }
            let mut take = (workers.max(1) * WAVE_FACTOR).min(schedule.len() - i);
            if let EstimatorMode::Surrogate { warmup, .. } = self.mode() {
                // Never straddle the oracle→surrogate switch-over: the states
                // a one-at-a-time run would score with the surrogate must not
                // be trained by an over-eager wave.
                let remaining_warmup = warmup.saturating_sub(self.oracle_record_count());
                take = take.min(remaining_warmup.max(1));
            }
            // A wave holds only fresh states; it ends at the next memoised one.
            let mut end = i + 1;
            while end < i + take && !self.contains(&schedule[end].0) {
                end += 1;
            }
            let wave = &schedule[i..end];
            let wave_start = Instant::now();
            // Spans open on the coordinator thread, so they inherit the
            // enclosing scenario span's trace through the thread-local stack;
            // "valuation" times the thread-pool pass itself, "wave" adds the
            // scatter/commit bookkeeping around it.
            let ambient = telemetry::ambient();
            let _wave_span = ambient.as_ref().map(|t| t.tracer.span("wave"));
            let valuation_span = ambient.as_ref().map(|t| t.tracer.span("valuation"));
            let results = self.evaluate_wave(wave, workers);
            drop(valuation_span);
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
            for ((state, level), (raw, from_shared)) in wave.iter().zip(results) {
                commit(state, *level, self.record_oracle(state, raw, from_shared));
            }
            i = end;
        }
    }

    /// The raw metrics of one wave's states, in wave order, each flagged
    /// `true` when the hook answered it rather than the substrate's oracle.
    /// The hook is probed on the calling thread; the misses are trained
    /// across the pool.
    fn evaluate_wave(
        &self,
        wave: &[(StateBitmap, usize)],
        workers: usize,
    ) -> Vec<(Vec<f64>, bool)> {
        let substrate = self.substrate();
        let hook = self.hook();
        probe_then_map(
            wave.len(),
            workers,
            |i| hook.and_then(|h| h.lookup(&wave[i].0)).map(|hit| hit.raw),
            |i| substrate.evaluate_raw(&wave[i].0),
        )
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

    use super::*;
    use crate::apx::{apx_modis_with_context, reference_apx};
    use crate::config::{ModisConfig, SkylineResult};
    use crate::estimator::{EvaluationHook, SharedEvaluation};
    use crate::exact::{exact_modis_with_context, reference_exact};
    use crate::search_common::forward_schedule;
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
    fn schedule_matches_sequential_valuation_count() {
        let sub = MockSubstrate::new(6);
        let cfg = oracle_config();
        let schedule_ctx = ValuationContext::new(&sub, EstimatorMode::Oracle);
        schedule_ctx.valuate(&sub.forward_start());
        let schedule = forward_schedule(&schedule_ctx, &cfg, cfg.max_states - 1);
        let ctx = ValuationContext::new(&sub, EstimatorMode::Oracle);
        let reference = reference_apx(&ctx, &cfg);
        assert_eq!(1 + schedule.len(), reference.states_valuated);
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

    /// Both exact forms share one schedule, so a re-used context's memoised
    /// states are budget-free memo hits in both.
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
        for workers in WORKERS {
            let waved = exact_modis_with_context(&prewarmed(), &cfg, workers);
            assert_same_result(&waved, &reference, workers);
        }
    }
}
