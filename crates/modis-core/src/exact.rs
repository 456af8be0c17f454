//! The exact (fixed-parameter tractable) algorithm of Theorem 1: exhaust the
//! runnings of the generator, valuate every reachable state, and apply a
//! multi-objective optimiser (the pairwise scan of [`crate::dominance`]) to
//! the valuated set.
//!
//! It walks ApxMODis' traversal (`search_common::valuate_forward`):
//! `s_U`, then every one-flip reduction level by level, each step's
//! children trained ahead in waves and committed in traversal order, until
//! `config.max_level` or a budget of `config.max_states` valuated states,
//! the records a re-used context already holds included. Only then is the
//! front taken, so the result is the same for every worker count.
//!
//! Intended for small search spaces (unit counts up to ~14) and as a ground
//! truth for testing the approximation quality of ApxMODis/BiMODis.

use std::time::Instant;

use modis_data::StateBitmap;

use crate::config::{ModisConfig, SkylineEntry, SkylineResult};
use crate::dominance::skyline;
use crate::estimator::{EstimatorMode, ValuationContext};
use crate::search_common::valuate_forward;
use crate::substrate::Substrate;

/// Runs the exact algorithm on the calling thread: every state reachable
/// from `s_U` within `config.max_level` reductions is valuated with the
/// oracle and the exact Pareto front is returned.
pub fn exact_modis<S: Substrate + ?Sized>(substrate: &S, config: &ModisConfig) -> SkylineResult {
    let ctx = ValuationContext::new(substrate, EstimatorMode::Oracle);
    exact_modis_with_context(&ctx, config, 1)
}

/// Runs the exact algorithm with an externally managed valuation context
/// (lets callers install an [`crate::estimator::EvaluationHook`] and share
/// test records across runs), training up to `workers` states at a time.
/// Every `workers` value returns the same result. Records `ctx` already
/// holds count toward `config.max_states`, as in every search.
///
/// # Panics
///
/// If `ctx` is not in [`EstimatorMode::Oracle`]: a front over surrogate
/// estimates is not exact.
pub fn exact_modis_with_context<S: Substrate + ?Sized>(
    ctx: &ValuationContext<'_, S>,
    config: &ModisConfig,
    workers: usize,
) -> SkylineResult {
    assert_eq!(ctx.mode(), EstimatorMode::Oracle, "exact needs the oracle");
    let start = Instant::now();
    let (mut states, mut perfs) = (Vec::new(), Vec::new());
    valuate_forward(ctx, config, workers, |state, level, perf| {
        states.push((state.clone(), level));
        perfs.push(perf);
    });
    pareto_front(ctx, &states, &perfs, start)
}

/// The members of `states` (valuated to `perfs`) within the measures' upper
/// bounds that no other member dominates.
fn pareto_front<S: Substrate + ?Sized>(
    ctx: &ValuationContext<'_, S>,
    states: &[(StateBitmap, usize)],
    perfs: &[Vec<f64>],
    start: Instant,
) -> SkylineResult {
    let substrate = ctx.substrate();
    let measures = substrate.measures();
    let candidate_idx: Vec<usize> = (0..states.len())
        .filter(|&i| !measures.violates_upper(&perfs[i]))
        .collect();
    let candidate_perfs: Vec<Vec<f64>> = candidate_idx.iter().map(|&i| perfs[i].clone()).collect();
    let entries: Vec<SkylineEntry> = skyline(&candidate_perfs)
        .into_iter()
        .map(|li| {
            let i = candidate_idx[li];
            let (bitmap, level) = &states[i];
            SkylineEntry {
                bitmap: bitmap.clone(),
                perf: perfs[i].clone(),
                raw: ctx.raw_for(bitmap),
                size: substrate.artifact_size(bitmap),
                level: *level,
            }
        })
        .collect();

    SkylineResult {
        entries,
        states_valuated: ctx.num_valuated(),
        elapsed_seconds: start.elapsed().as_secs_f64(),
        stats: ctx.stats(),
    }
}

/// The exact algorithm as one [`crate::search_common::Frontier`] visitor
/// that valuates every child as it is spawned, nothing trained ahead: the
/// differential oracle of the wave-valuated form.
#[cfg(test)]
pub(crate) fn reference_exact<S: Substrate + ?Sized>(
    ctx: &ValuationContext<'_, S>,
    config: &ModisConfig,
) -> SkylineResult {
    use crate::search_common::{Direction, Frontier, VisitedSet};
    let start = Instant::now();
    let substrate = ctx.substrate();
    let mut visited = VisitedSet::new();
    let mut frontier = Frontier::new(substrate, Direction::Forward, config.max_level);

    let s_u = substrate.forward_start();
    let mut perfs = vec![ctx.valuate(&s_u)];
    let mut states = vec![(s_u.clone(), 0)];
    frontier.start(&mut visited, s_u, ());

    let open = || ctx.num_valuated() < config.max_states;
    while frontier.step(&mut visited, open, |child, level, _| {
        perfs.push(ctx.valuate(child));
        states.push((child.clone(), level));
        Some(())
    }) {}

    pareto_front(ctx, &states, &perfs, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apx::apx_modis;
    use crate::dominance::epsilon_dominates;
    use crate::substrate::mock::MockSubstrate;

    #[test]
    fn exact_front_is_mutually_nondominated() {
        let sub = MockSubstrate::new(6);
        let cfg = ModisConfig::default()
            .with_max_states(10_000)
            .with_max_level(6);
        let res = exact_modis(&sub, &cfg);
        assert!(!res.is_empty());
        for a in &res.entries {
            for b in &res.entries {
                if a.bitmap != b.bitmap {
                    assert!(!crate::dominance::dominates(&a.perf, &b.perf));
                }
            }
        }
    }

    #[test]
    fn apx_epsilon_covers_exact_front() {
        // Lemma 2: ApxMODis outputs an ε-skyline of the states it valuates.
        // With a budget that covers the whole space, every exact-front member
        // must be ε-dominated by (or present in) the approximate output.
        let sub = MockSubstrate::new(6);
        let cfg = ModisConfig::default()
            .with_estimator(EstimatorMode::Oracle)
            .with_max_states(10_000)
            .with_max_level(6)
            .with_epsilon(0.25);
        let exact = exact_modis(&sub, &cfg);
        let approx = apx_modis(&sub, &cfg);
        for member in &exact.entries {
            let covered = approx
                .entries
                .iter()
                .any(|a| epsilon_dominates(&a.perf, &member.perf, cfg.epsilon + 1e-9));
            assert!(covered, "exact member {:?} not ε-covered", member.perf);
        }
    }

    #[test]
    fn exact_respects_budget() {
        let sub = MockSubstrate::new(10);
        let cfg = ModisConfig::default()
            .with_max_states(30)
            .with_max_level(10);
        let res = exact_modis(&sub, &cfg);
        assert_eq!(res.states_valuated, cfg.max_states);
    }

    /// The contract "valuated with the oracle" is enforced, not assumed: a
    /// surrogate-mode context would yield a front built from estimates.
    #[test]
    #[should_panic(expected = "exact needs the oracle")]
    fn exact_refuses_a_surrogate_context() {
        let sub = MockSubstrate::new(4);
        let mode = EstimatorMode::Surrogate {
            warmup: 3,
            refresh: 3,
        };
        let ctx = ValuationContext::new(&sub, mode);
        exact_modis_with_context(&ctx, &ModisConfig::default(), 1);
    }
}
