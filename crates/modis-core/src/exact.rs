//! The exact (fixed-parameter tractable) algorithm of Theorem 1: exhaust the
//! runnings of the generator, valuate every reachable state, and apply a
//! multi-objective optimiser (the pairwise scan of [`crate::dominance`]) to
//! the valuated set.
//!
//! Intended for small search spaces (unit counts up to ~14) and as a ground
//! truth for testing the approximation quality of ApxMODis/BiMODis.

use std::collections::VecDeque;
use std::time::Instant;

use modis_data::StateBitmap;

use crate::config::{ModisConfig, SkylineEntry, SkylineResult};
use crate::dominance::skyline;
use crate::estimator::{EstimatorMode, ValuationContext};
use crate::search_common::{op_gen, Direction, ProtectedSet, VisitedSet};
use crate::substrate::Substrate;

/// Runs the exact algorithm: every state reachable from `s_U` within
/// `config.max_level` reductions is valuated with the oracle and the exact
/// Pareto front is returned.
pub fn exact_modis<S: Substrate + ?Sized>(substrate: &S, config: &ModisConfig) -> SkylineResult {
    let ctx = ValuationContext::new(substrate, EstimatorMode::Oracle);
    exact_modis_with_context(&ctx, config)
}

/// Runs the exact algorithm with an externally managed valuation context
/// (lets callers install an [`crate::estimator::EvaluationHook`] and share
/// test records across runs).
pub fn exact_modis_with_context<S: Substrate + ?Sized>(
    ctx: &ValuationContext<'_, S>,
    config: &ModisConfig,
) -> SkylineResult {
    let start = Instant::now();
    let substrate = ctx.substrate();
    let protected = ProtectedSet::of(substrate);

    let mut visited = VisitedSet::new();
    let mut states: Vec<(StateBitmap, usize)> = Vec::new();
    let mut queue: VecDeque<(StateBitmap, usize)> = VecDeque::new();
    let s_u = substrate.forward_start();
    visited.insert(&s_u);
    queue.push_back((s_u.clone(), 0));
    states.push((s_u, 0));

    while let Some((state, level)) = queue.pop_front() {
        if states.len() >= config.max_states {
            break;
        }
        if level >= config.max_level {
            continue;
        }
        for child in op_gen(&state, Direction::Forward, &protected) {
            if states.len() >= config.max_states {
                break;
            }
            if visited.insert(&child) {
                states.push((child.clone(), level + 1));
                queue.push_back((child, level + 1));
            }
        }
    }

    // Valuate every enumerated state and keep those within bounds.
    let measures = substrate.measures().clone();
    let mut perfs: Vec<Vec<f64>> = Vec::with_capacity(states.len());
    for (bitmap, _) in &states {
        perfs.push(ctx.valuate(bitmap));
    }
    let candidate_idx: Vec<usize> = (0..states.len())
        .filter(|&i| !measures.violates_upper(&perfs[i]))
        .collect();
    let candidate_perfs: Vec<Vec<f64>> = candidate_idx.iter().map(|&i| perfs[i].clone()).collect();
    let front_local = skyline(&candidate_perfs);

    let entries: Vec<SkylineEntry> = front_local
        .into_iter()
        .map(|li| {
            let i = candidate_idx[li];
            let (bitmap, level) = &states[i];
            let raw = ctx.raw_for(bitmap);
            SkylineEntry {
                bitmap: bitmap.clone(),
                perf: perfs[i].clone(),
                raw,
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
        assert!(res.states_valuated <= 31);
    }
}
