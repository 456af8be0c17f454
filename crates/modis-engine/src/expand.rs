//! Work-pool frontier expansion.
//!
//! ApxMODis (and the exact enumerator) share a property the engine
//! exploits: their traversal order is a pure function of the search-space
//! structure — `OpGen` children are spawned, deduplicated and queued
//! regardless of how the spawned states *score*. The engine therefore
//! splits each search into
//!
//! 1. the core crate's **schedule** ([`forward_schedule`]) — the sequential
//!    searches' own `Frontier` (visited-set, level cap, valuation budget)
//!    run without valuating — and
//! 2. a **wave-parallel evaluation** of it, which is all this module holds:
//!    the coordinator probes the shared cache and worker threads score the
//!    children it misses concurrently, while results are *committed* —
//!    recorded in the valuation context and offered to the
//!    [`EpsilonSkyline`] — strictly in schedule order.
//!
//! Because commits happen in the sequential algorithm's order, a parallel
//! run produces byte-identical skylines to the sequential one, for any
//! thread count. Under [`EstimatorMode::Surrogate`], waves are additionally
//! capped so they never straddle the oracle→surrogate switch-over, and the
//! cheap surrogate phase runs sequentially; determinism is preserved there
//! too. BiMODis is *not* wave-parallelisable: its correlation pruning makes
//! the traversal depend on every earlier valuation, so the engine runs it
//! sequentially (still benefiting from the shared cache).

use std::time::Instant;

use modis_core::config::{ModisConfig, SkylineResult};
use modis_core::estimator::{EstimatorMode, ValuationContext};
use modis_core::exact::exact_front;
use modis_core::pareto::EpsilonSkyline;
use modis_core::search_common::{finalize_result, forward_schedule};
use modis_core::substrate::Substrate;
use modis_data::StateBitmap;

use crate::pool::probe_then_map;

/// How many schedule entries each worker thread gets per wave, on average.
const WAVE_FACTOR: usize = 4;

/// A worker's evaluation of one state: the raw metrics plus a flag marking
/// results loaded from the shared cache rather than trained.
type WaveResult = (Vec<f64>, bool);

/// Evaluates one wave of states. The shared cache (when installed) is
/// probed on the calling thread, in wave order; the states it misses go to
/// the substrate's oracle in parallel. Results come back in wave order as
/// `(raw, from_shared)`.
fn evaluate_wave<S: Substrate + ?Sized>(
    ctx: &ValuationContext<'_, S>,
    wave: &[(StateBitmap, usize)],
    threads: usize,
) -> Vec<WaveResult> {
    let substrate = ctx.substrate();
    let hook = ctx.hook();
    probe_then_map(
        wave.len(),
        threads,
        |i| hook.and_then(|h| h.lookup(&wave[i].0)).map(|hit| hit.raw),
        |i| substrate.evaluate_raw(&wave[i].0),
    )
}

/// Runs a valuation schedule: oracle phases are evaluated wave-parallel and
/// committed in order; once the surrogate takes over, the (cheap) remainder
/// is valuated sequentially. `commit` sees every state in schedule order
/// with its normalised performance vector.
fn process_schedule<S, F>(
    ctx: &ValuationContext<'_, S>,
    schedule: &[(StateBitmap, usize)],
    threads: usize,
    mut commit: F,
) where
    S: Substrate + ?Sized,
    F: FnMut(&StateBitmap, usize, Vec<f64>),
{
    let mut i = 0;
    while i < schedule.len() {
        if ctx.surrogate_active() {
            for (state, level) in &schedule[i..] {
                let perf = ctx.valuate(state);
                commit(state, *level, perf);
            }
            return;
        }
        // States already recorded in a (pre-warmed) context are memo hits in
        // the sequential run — replay them through `valuate` so counters and
        // budget behave identically, and never hand them to a wave.
        let (state, level) = &schedule[i];
        if ctx.contains(state) {
            let perf = ctx.valuate(state);
            commit(state, *level, perf);
            i += 1;
            continue;
        }
        let mut take = (threads.max(1) * WAVE_FACTOR).min(schedule.len() - i);
        if let EstimatorMode::Surrogate { warmup, .. } = ctx.mode() {
            // Never straddle the oracle→surrogate switch-over: the states a
            // sequential run would score with the surrogate must not be
            // trained by an over-eager wave.
            let remaining_warmup = warmup.saturating_sub(ctx.oracle_record_count());
            take = take.min(remaining_warmup.max(1));
        }
        // A wave holds only fresh states; it ends at the next memoised one.
        let mut end = i + 1;
        while end < i + take && !ctx.contains(&schedule[end].0) {
            end += 1;
        }
        let wave = &schedule[i..end];
        let wave_start = Instant::now();
        // Spans open on the coordinator thread, so they inherit the
        // enclosing scenario span's trace through the thread-local stack;
        // "valuation" times the thread-pool pass itself, "wave" adds the
        // scatter/commit bookkeeping around it.
        let ambient = modis_core::telemetry::ambient();
        let _wave_span = ambient.as_ref().map(|t| t.tracer.span("wave"));
        let valuation_span = ambient.as_ref().map(|t| t.tracer.span("valuation"));
        let results = evaluate_wave(ctx, wave, threads);
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
            let perf = ctx.record_oracle(state, raw, from_shared);
            commit(state, *level, perf);
        }
        i = end;
    }
}

/// Wave-parallel ApxMODis over an externally managed valuation context.
///
/// Produces byte-identical results to
/// [`modis_core::apx::apx_modis_with_context`] for every `threads` value
/// (including 1) — also on re-used, pre-warmed contexts, whose memoised
/// states are replayed as budget-free memo hits exactly like the sequential
/// search; wall-clock scales with the oracle phase's parallelism.
pub fn parallel_apx_modis_with_context<S: Substrate + ?Sized>(
    ctx: &ValuationContext<'_, S>,
    config: &ModisConfig,
    threads: usize,
) -> SkylineResult {
    let start = Instant::now();
    let substrate = ctx.substrate();
    let mut sky = EpsilonSkyline::new(
        substrate.measures().clone(),
        config.epsilon,
        config.decisive,
    );

    let s_u = substrate.forward_start();
    let perf_u = ctx.valuate(&s_u);
    sky.offer(&s_u, &perf_u, 0);

    let budget = config.max_states.saturating_sub(ctx.num_valuated());
    let schedule = forward_schedule(ctx, config, budget);
    process_schedule(ctx, &schedule, threads, |state, level, perf| {
        sky.offer(state, &perf, level);
    });

    finalize_result(&sky, ctx, config, start.elapsed().as_secs_f64())
}

/// Wave-parallel ApxMODis with a fresh oracle/surrogate context per
/// [`ModisConfig`] (the parallel counterpart of `modis_core::apx::apx_modis`).
pub fn parallel_apx_modis<S: Substrate + ?Sized>(
    substrate: &S,
    config: &ModisConfig,
    threads: usize,
) -> SkylineResult {
    let ctx = ValuationContext::new(substrate, config.estimator);
    parallel_apx_modis_with_context(&ctx, config, threads)
}

/// Wave-parallel exact algorithm: [`exact_front`] with its states valuated
/// across the worker pool. Byte-identical to
/// [`modis_core::exact::exact_modis_with_context`] on the same context.
///
/// # Panics
///
/// If `ctx` is not in [`EstimatorMode::Oracle`] (see [`exact_front`]).
pub fn parallel_exact_modis_with_context<S: Substrate + ?Sized>(
    ctx: &ValuationContext<'_, S>,
    config: &ModisConfig,
    threads: usize,
) -> SkylineResult {
    exact_front(ctx, config, |states| {
        let mut perfs = Vec::with_capacity(states.len());
        process_schedule(ctx, states, threads, |_, _, perf| perfs.push(perf));
        perfs
    })
}

/// A hook for this crate's tests (here and in `engine`): an unbounded map
/// that remembers which thread every `lookup` ran on and every state that
/// was recorded, in order.
#[cfg(test)]
pub(crate) mod testing {
    use std::collections::HashMap;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    use modis_core::estimator::{EvaluationHook, SharedEvaluation};
    use modis_data::StateBitmap;

    #[derive(Default)]
    pub(crate) struct RecordingHook {
        entries: Mutex<HashMap<StateBitmap, SharedEvaluation>>,
        pub(crate) lookup_threads: Mutex<Vec<ThreadId>>,
        pub(crate) recorded: Mutex<Vec<StateBitmap>>,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use modis_core::apx::apx_modis_with_context;
    use modis_core::exact::exact_modis_with_context;
    use modis_core::substrate::mock::MockSubstrate;

    fn oracle_config() -> ModisConfig {
        ModisConfig::default()
            .with_estimator(EstimatorMode::Oracle)
            .with_epsilon(0.1)
            .with_max_states(200)
            .with_max_level(6)
    }

    fn assert_same_result(a: &SkylineResult, b: &SkylineResult) {
        assert_eq!(a.entries.len(), b.entries.len());
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.bitmap, y.bitmap);
            assert_eq!(x.perf, y.perf);
            assert_eq!(x.raw, y.raw);
            assert_eq!(x.size, y.size);
            assert_eq!(x.level, y.level);
        }
        assert_eq!(a.states_valuated, b.states_valuated);
    }

    #[test]
    fn schedule_matches_sequential_valuation_count() {
        let sub = MockSubstrate::new(6);
        let cfg = oracle_config();
        let schedule_ctx = ValuationContext::new(&sub, EstimatorMode::Oracle);
        schedule_ctx.valuate(&sub.forward_start());
        let schedule = forward_schedule(&schedule_ctx, &cfg, cfg.max_states - 1);
        let ctx = ValuationContext::new(&sub, EstimatorMode::Oracle);
        let seq = apx_modis_with_context(&ctx, &cfg);
        assert_eq!(1 + schedule.len(), seq.states_valuated);
    }

    #[test]
    fn parallel_apx_matches_sequential_across_thread_counts() {
        let sub = MockSubstrate::new(8);
        let cfg = oracle_config();
        let ctx = ValuationContext::new(&sub, EstimatorMode::Oracle);
        let seq = apx_modis_with_context(&ctx, &cfg);
        for threads in [1, 2, 4, 8] {
            let par = parallel_apx_modis(&sub, &cfg, threads);
            assert_same_result(&par, &seq);
        }
    }

    #[test]
    fn parallel_apx_matches_sequential_under_tight_budget() {
        let sub = MockSubstrate::new(10);
        let cfg = oracle_config().with_max_states(17);
        let ctx = ValuationContext::new(&sub, EstimatorMode::Oracle);
        let seq = apx_modis_with_context(&ctx, &cfg);
        let par = parallel_apx_modis(&sub, &cfg, 4);
        assert_same_result(&par, &seq);
    }

    #[test]
    fn parallel_apx_is_deterministic_in_surrogate_mode() {
        let sub = MockSubstrate::new(8);
        let cfg = ModisConfig::default()
            .with_estimator(EstimatorMode::Surrogate {
                warmup: 7,
                refresh: 5,
            })
            .with_max_states(80);
        let a = parallel_apx_modis(&sub, &cfg, 4);
        let b = parallel_apx_modis(&sub, &cfg, 2);
        let c = parallel_apx_modis(&sub, &cfg, 1);
        assert_same_result(&a, &b);
        assert_same_result(&a, &c);
        assert!(a.stats.surrogate_calls > 0, "surrogate should have engaged");
    }

    #[test]
    fn surrogate_waves_match_fully_sequential_run() {
        let sub = MockSubstrate::new(8);
        let cfg = ModisConfig::default()
            .with_estimator(EstimatorMode::Surrogate {
                warmup: 9,
                refresh: 6,
            })
            .with_max_states(60);
        let ctx = ValuationContext::new(&sub, cfg.estimator);
        let seq = apx_modis_with_context(&ctx, &cfg);
        let par = parallel_apx_modis(&sub, &cfg, 4);
        assert_same_result(&par, &seq);
        assert_eq!(par.stats.oracle_calls, seq.stats.oracle_calls);
    }

    #[test]
    fn parallel_apx_matches_sequential_on_prewarmed_context() {
        // The `_with_context` APIs exist to share test records across runs;
        // a re-used context's memoised states must replay as budget-free
        // memo hits, exactly like the sequential search.
        let sub = MockSubstrate::new(8);
        let warm_cfg = oracle_config().with_max_states(15);
        let cfg = oracle_config().with_max_states(40);

        let seq_ctx = ValuationContext::new(&sub, EstimatorMode::Oracle);
        let _ = apx_modis_with_context(&seq_ctx, &warm_cfg);
        let seq = apx_modis_with_context(&seq_ctx, &cfg);

        let par_ctx = ValuationContext::new(&sub, EstimatorMode::Oracle);
        let _ = apx_modis_with_context(&par_ctx, &warm_cfg);
        let par = parallel_apx_modis_with_context(&par_ctx, &cfg, 4);

        assert_same_result(&par, &seq);
        assert_eq!(par.stats.oracle_calls, seq.stats.oracle_calls);
        assert_eq!(par.stats.cache_hits, seq.stats.cache_hits);
    }

    /// No thread is spawned to read the cache: a search whose every wave
    /// is answered by the hook looks up on the caller's thread only, and
    /// returns what the search that paid for the states returned.
    #[test]
    fn an_all_hit_search_looks_up_on_the_callers_thread_only() {
        use std::sync::Arc;
        let sub = MockSubstrate::new(8);
        let cfg = oracle_config();
        let hook = Arc::new(testing::RecordingHook::default());
        let run = || {
            let ctx = ValuationContext::new(&sub, EstimatorMode::Oracle).with_hook(hook.clone());
            parallel_apx_modis_with_context(&ctx, &cfg, 4)
        };
        let cold = run();
        assert_eq!(cold.stats.shared_hits, 0);
        let paid = hook.recorded.lock().unwrap().len();
        assert_eq!(paid, cold.stats.oracle_calls);

        hook.lookup_threads.lock().unwrap().clear();
        let warm = run();
        assert_same_result(&warm, &cold);
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

    #[test]
    fn parallel_exact_matches_sequential() {
        let sub = MockSubstrate::new(6);
        let cfg = ModisConfig::default()
            .with_max_states(10_000)
            .with_max_level(6);
        let ctx = ValuationContext::new(&sub, EstimatorMode::Oracle);
        let seq = exact_modis_with_context(&ctx, &cfg);
        let par_ctx = ValuationContext::new(&sub, EstimatorMode::Oracle);
        let par = parallel_exact_modis_with_context(&par_ctx, &cfg, 4);
        assert_same_result(&par, &seq);
    }

    /// Sequential and parallel exact share one schedule, so a re-used
    /// context's memoised states are budget-free memo hits in both.
    #[test]
    fn parallel_exact_matches_sequential_on_prewarmed_context() {
        let sub = MockSubstrate::new(8);
        let warm_cfg = oracle_config().with_max_states(15);
        let cfg = oracle_config().with_max_states(25);
        let prewarmed = || {
            let ctx = ValuationContext::new(&sub, EstimatorMode::Oracle);
            let _ = apx_modis_with_context(&ctx, &warm_cfg);
            ctx
        };

        let seq = exact_modis_with_context(&prewarmed(), &cfg);
        assert!(seq.stats.cache_hits > 0, "the warm-up must be replayed");
        for threads in [1, 2, 8] {
            let par = parallel_exact_modis_with_context(&prewarmed(), &cfg, threads);
            assert_same_result(&par, &seq);
            assert_eq!(par.stats.oracle_calls, seq.stats.oracle_calls);
            assert_eq!(par.stats.cache_hits, seq.stats.cache_hits);
        }
    }
}
