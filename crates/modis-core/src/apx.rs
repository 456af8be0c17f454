//! ApxMODis: the "reduce-from-universal" `(N, ε)`-approximation (Alg. 1).
//!
//! The search starts from the universal state `s_U` (all bitmap entries set)
//! and explores one-flip reductions level by level. Every spawned state is
//! valuated (estimator or oracle, §5.2) and offered to the ε-skyline grid
//! (`UPareto`); the search stops when `N` states have been valuated, the
//! maximum path length is reached, or no new state can be generated.
//!
//! The search is one `search_common::Frontier` visitor that valuates every
//! child it spawns. Which states get spawned never depends on how they
//! score, so each step's children, and `s_U` with the first step's, are
//! trained ahead in waves and committed in traversal order: the result is
//! the same for every worker count.

use std::time::Instant;

use crate::config::{ModisConfig, SkylineResult};
use crate::estimator::ValuationContext;
use crate::pareto::EpsilonSkyline;
use crate::search_common::{finalize_result, valuate_forward};
use crate::substrate::Substrate;

/// Runs ApxMODis over a substrate on the calling thread.
pub fn apx_modis<S: Substrate + ?Sized>(substrate: &S, config: &ModisConfig) -> SkylineResult {
    let ctx = ValuationContext::new(substrate, config.estimator);
    apx_modis_with_context(&ctx, config, 1)
}

/// Runs ApxMODis with an externally managed valuation context (lets callers
/// share test records across runs, as the experiments do), training up to
/// `workers` states at a time. Every `workers` value returns the same
/// result, also on a re-used, pre-warmed context, whose memoised states
/// replay as budget-free memo hits.
pub fn apx_modis_with_context<S: Substrate + ?Sized>(
    ctx: &ValuationContext<'_, S>,
    config: &ModisConfig,
    workers: usize,
) -> SkylineResult {
    let start = Instant::now();
    let measures = ctx.substrate().measures().clone();
    let mut skyline = EpsilonSkyline::new(measures, config.epsilon, config.decisive);
    valuate_forward(ctx, config, workers, |state, level, perf| {
        skyline.offer(state, &perf, level);
    });
    finalize_result(&skyline, ctx, start.elapsed().as_secs_f64())
}

/// ApxMODis as one [`crate::search_common::Frontier`] visitor that valuates
/// every child as it is spawned: the one-state-at-a-time form the
/// wave-valuated search must reproduce, kept as its differential oracle.
#[cfg(test)]
pub(crate) fn reference_apx<S: Substrate + ?Sized>(
    ctx: &ValuationContext<'_, S>,
    config: &ModisConfig,
) -> SkylineResult {
    use crate::search_common::{Direction, Frontier, VisitedSet};
    let start = Instant::now();
    let substrate = ctx.substrate();
    let measures = substrate.measures().clone();
    let mut skyline = EpsilonSkyline::new(measures, config.epsilon, config.decisive);
    let mut visited = VisitedSet::new();
    let mut frontier = Frontier::new(substrate, Direction::Forward, config.max_level);

    let s_u = substrate.forward_start();
    let perf_u = ctx.valuate(&s_u);
    skyline.offer(&s_u, &perf_u, 0);
    frontier.start(&mut visited, s_u, ());

    let open = || ctx.num_valuated() < config.max_states;
    while frontier.step(&mut visited, open, |child, level, _| {
        let perf = ctx.valuate(child);
        skyline.offer(child, &perf, level);
        Some(())
    }) {}

    finalize_result(&skyline, ctx, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::epsilon_dominates;
    use crate::estimator::EstimatorMode;
    use crate::substrate::mock::MockSubstrate;

    fn oracle_config() -> ModisConfig {
        ModisConfig::default()
            .with_estimator(EstimatorMode::Oracle)
            .with_epsilon(0.1)
            .with_max_states(200)
            .with_max_level(6)
    }

    #[test]
    fn apx_finds_nondominated_states_on_mock() {
        let sub = MockSubstrate::new(6);
        let res = apx_modis(&sub, &oracle_config());
        assert!(!res.is_empty());
        // The ideal state keeps the informative (even) units and drops the
        // odd ones: quality 1.0 with reduced cost. The skyline must contain a
        // state that ε-dominates the universal state.
        let full_perf = sub
            .measures()
            .normalise(&sub.evaluate_raw(&sub.forward_start()));
        assert!(res
            .entries
            .iter()
            .any(|e| epsilon_dominates(&e.perf, &full_perf, 0.1)));
        // No member dominates another (mutual non-dominance).
        for a in &res.entries {
            for b in &res.entries {
                assert!(!crate::dominance::dominates(&a.perf, &b.perf) || a.bitmap == b.bitmap);
            }
        }
        assert!(res.states_valuated <= 200);
        assert!(res.elapsed_seconds >= 0.0);
    }

    #[test]
    fn apx_respects_state_budget() {
        let sub = MockSubstrate::new(10);
        let cfg = oracle_config().with_max_states(15);
        let res = apx_modis(&sub, &cfg);
        assert_eq!(res.states_valuated, cfg.max_states);
    }

    #[test]
    fn apx_respects_max_level() {
        let sub = MockSubstrate::new(8);
        let cfg = oracle_config().with_max_level(1).with_max_states(1000);
        let res = apx_modis(&sub, &cfg);
        // Level ≤ 1 means at most 1 + 8 states valuated.
        assert!(res.states_valuated <= 9);
        assert!(res.entries.iter().all(|e| e.level <= 1));
    }

    #[test]
    fn smaller_epsilon_gives_no_worse_best_quality() {
        let sub = MockSubstrate::new(8);
        let coarse = apx_modis(&sub, &oracle_config().with_epsilon(0.5));
        let fine = apx_modis(&sub, &oracle_config().with_epsilon(0.05));
        let best = |r: &SkylineResult| {
            r.entries
                .iter()
                .map(|e| e.perf[0])
                .fold(f64::INFINITY, f64::min)
        };
        assert!(best(&fine) <= best(&coarse) + 1e-9);
    }
}
