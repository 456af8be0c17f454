//! BiMODis: bi-directional skyline set generation with correlation-based
//! pruning (Alg. 2 / Alg. 4), and its pruning-free variant NOBiMODis.
//!
//! A forward frontier reduces from the universal state `s_U` while a backward
//! frontier augments from the minimal state `s_b` produced by `BackSt`. The
//! correlation graph `G_C` over the measures (Spearman ρ ≥ θ on the valuated
//! tests `T`) and globally observed per-transition deltas give parameterised
//! performance bounds `[p̂_l, p̂_u]` for unvaluated children; children whose
//! optimistic bound is already ε-dominated by a skyline member are pruned
//! without valuation (Lemma 4).

use std::time::Instant;

use crate::config::{ModisConfig, SkylineResult};
use crate::correlation::{CorrelationGraph, DeltaTracker, PerfBounds};
use crate::estimator::ValuationContext;
use crate::pareto::EpsilonSkyline;
use crate::search_common::{finalize_result, Direction, Frontier, VisitedSet};
use crate::substrate::Substrate;

/// Runs BiMODis (with correlation-based pruning) over a substrate.
pub fn bi_modis<S: Substrate + ?Sized>(substrate: &S, config: &ModisConfig) -> SkylineResult {
    let ctx = ValuationContext::new(substrate, config.estimator);
    bi_modis_with_context(&ctx, config, true).0
}

/// Runs NOBiMODis: the bi-directional search without correlation pruning.
pub fn nobi_modis<S: Substrate + ?Sized>(substrate: &S, config: &ModisConfig) -> SkylineResult {
    let ctx = ValuationContext::new(substrate, config.estimator);
    bi_modis_with_context(&ctx, config, false).0
}

/// Statistics specific to the bi-directional search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BiStats {
    /// Number of children skipped by correlation-based pruning.
    pub pruned: usize,
    /// Number of levels processed before the frontiers met or emptied.
    pub levels: usize,
}

/// How many parent → child transitions arm BiMODis' pruning: before that
/// many deltas are observed, every child is valuated.
const ARMED_AFTER: usize = 3;

/// Runs the bi-directional search with an externally managed valuation
/// context (lets callers install an [`crate::estimator::EvaluationHook`]
/// and share test records across runs), on the calling thread.
pub fn bi_modis_with_context<S: Substrate + ?Sized>(
    ctx: &ValuationContext<'_, S>,
    config: &ModisConfig,
    prune: bool,
) -> (SkylineResult, BiStats) {
    bi_search(ctx, config, prune, 1)
}

/// The bi-directional search, training up to `workers` states at a time
/// what it is certain to valuate: its start pair and, while the pruning
/// is unarmed (or off, NOBiMODis), the children its next step valuates.
/// Every `workers` value returns the same result and [`BiStats`].
pub(crate) fn bi_search<S: Substrate + ?Sized>(
    ctx: &ValuationContext<'_, S>,
    config: &ModisConfig,
    prune: bool,
    workers: usize,
) -> (SkylineResult, BiStats) {
    let start = Instant::now();
    let substrate = ctx.substrate();
    let measures = substrate.measures().clone();
    let m = measures.len();
    let mut skyline = EpsilonSkyline::new(measures, config.epsilon, config.decisive);
    let mut deltas = DeltaTracker::new(m);
    let mut stats = BiStats::default();

    let s_u = substrate.forward_start();
    let s_b = substrate.backward_start();
    // One visited set for both directions: a state reachable from both ends
    // is expanded by whichever frontier spawns it first — the paper's
    // Q_f ∩ Q_b ≠ ∅ termination is approximated by the level cap.
    let mut visited = VisitedSet::new();
    let mut forward = Frontier::new(substrate, Direction::Forward, config.max_level);
    let mut backward = Frontier::new(substrate, Direction::Backward, config.max_level);
    // The frontiers start before the start pair is valuated, so the pair and
    // the forward frontier's first children are trained in one wave; each
    // start node gets its performance vector once valuated.
    forward.start(&mut visited, s_u.clone(), Vec::new());
    backward.start(&mut visited, s_b.clone(), Vec::new());
    let pair = [&s_u, &s_b];
    let pair = if s_b != s_u { &pair[..] } else { &pair[..1] };
    let certain = if prune { ARMED_AFTER } else { usize::MAX };
    forward.train_ahead(&visited, ctx, config, workers, pair, certain);

    let perf_u = ctx.valuate(&s_u);
    skyline.offer(&s_u, &perf_u, 0);
    let perf_b = if s_b != s_u {
        let p = ctx.valuate(&s_b);
        skyline.offer(&s_b, &p, 0);
        p
    } else {
        perf_u.clone()
    };
    for (frontier, perf) in [(&mut forward, perf_u), (&mut backward, perf_b)] {
        *frontier.front_payload_mut().expect("a started frontier") = perf;
    }

    let open = || ctx.num_valuated() < config.max_states;
    // `G_C` and the oracle-record count it was built at: only BiMODis reads
    // it, and its series of oracle records changes only with that count.
    let mut corr: Option<(usize, CorrelationGraph)> = None;
    while open() && (forward.next_level().is_some() || backward.next_level().is_some()) {
        let oracle_records = ctx.oracle_records();
        if prune && corr.as_ref().map(|(n, _)| *n) != Some(oracle_records) {
            let graph = CorrelationGraph::from_series(&ctx.measure_series(), config.theta);
            corr = Some((oracle_records, graph));
        }
        for frontier in [&mut forward, &mut backward] {
            if let Some(level) = frontier.next_level().filter(|&l| l < config.max_level) {
                stats.levels = stats.levels.max(level + 1);
            }
            // Armed, the prune test reads the skyline and the deltas that
            // every earlier sibling's valuation can move, so no child is
            // certain to be valuated before its turn.
            let certain = if prune {
                ARMED_AFTER.saturating_sub(deltas.observations())
            } else {
                usize::MAX
            };
            // Once a child is pruned, so is every later sibling: the bound
            // reads the parent's vector, the deltas, `G_C` and the skyline,
            // and only a valuation moves them, which a pruned child skips.
            let mut parent_pruned = false;
            frontier.step_valuating(
                &mut visited,
                ctx,
                config,
                workers,
                certain,
                |child, level, parent_perf| {
                    parent_pruned = parent_pruned
                        || corr
                            .as_ref()
                            .filter(|_| deltas.observations() >= ARMED_AFTER)
                            .is_some_and(|(_, corr)| {
                                let (min, max) = (&deltas.min, &deltas.max);
                                let bounds = PerfBounds::from_parent(parent_perf, min, max, corr);
                                skyline
                                    .entries()
                                    .any(|e| bounds.epsilon_dominated_by(&e.perf, config.epsilon))
                            });
                    if parent_pruned {
                        stats.pruned += 1;
                        return None;
                    }
                    let perf = ctx.valuate(child);
                    deltas.observe(parent_perf, &perf);
                    skyline.offer(child, &perf, level);
                    Some(perf)
                },
            );
        }
    }

    let result = finalize_result(&skyline, ctx, start.elapsed().as_secs_f64());
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apx::apx_modis;
    use crate::estimator::EstimatorMode;
    use crate::substrate::mock::MockSubstrate;

    fn oracle_config() -> ModisConfig {
        ModisConfig::default()
            .with_estimator(EstimatorMode::Oracle)
            .with_epsilon(0.1)
            .with_max_states(300)
            .with_max_level(6)
    }

    #[test]
    fn bimodis_produces_nonempty_skyline() {
        let sub = MockSubstrate::new(8);
        let res = bi_modis(&sub, &oracle_config());
        assert!(!res.is_empty());
        for a in &res.entries {
            for b in &res.entries {
                assert!(!crate::dominance::dominates(&a.perf, &b.perf) || a.bitmap == b.bitmap);
            }
        }
    }

    #[test]
    fn nobimodis_matches_or_beats_bimodis_quality() {
        let sub = MockSubstrate::new(8);
        let cfg = oracle_config();
        let with = bi_modis(&sub, &cfg);
        let without = nobi_modis(&sub, &cfg);
        let best_quality = |r: &SkylineResult| {
            r.entries
                .iter()
                .map(|e| e.perf[0])
                .fold(f64::INFINITY, f64::min)
        };
        // Pruning may only skip states, never invent better ones.
        assert!(best_quality(&without) <= best_quality(&with) + 1e-9);
    }

    #[test]
    fn pruning_reduces_valuations() {
        let sub = MockSubstrate::new(10);
        let cfg = oracle_config().with_max_states(500).with_max_level(5);
        let run =
            |prune| bi_modis_with_context(&ValuationContext::new(&sub, cfg.estimator), &cfg, prune);
        let (with, stats_with) = run(true);
        let (without, _) = run(false);
        assert!(with.states_valuated <= without.states_valuated);
        // At least some states considered (pruning counter is well-defined).
        assert!(stats_with.pruned < 10_000);
    }

    /// What pruning skips and what both variants valuate, pinned at one
    /// worker and at four: reading the skyline by reference, building `G_C`
    /// only when pruning and training ahead must not move a count.
    #[test]
    fn pruning_and_valuation_counts_are_pinned() {
        let cases = [
            // (units, surrogate, ε) → (pruned, BiMODis states, members, NOBiMODis states)
            ((8, false, 0.3), (106, 132, 5, 256)),
            ((10, false, 0.1), (310, 472, 6, 500)),
            ((12, false, 0.3), (822, 480, 6, 500)),
            ((8, true, 0.3), (23, 223, 4, 256)),
            ((10, true, 0.3), (49, 500, 3, 500)),
            ((12, true, 0.1), (39, 500, 3, 500)),
        ];
        for ((n, surrogate, epsilon), expected) in cases {
            let estimator = if surrogate {
                EstimatorMode::default()
            } else {
                EstimatorMode::Oracle
            };
            let cfg = ModisConfig::default()
                .with_estimator(estimator)
                .with_epsilon(epsilon)
                .with_max_states(500)
                .with_max_level(5);
            let sub = MockSubstrate::new(n);
            for workers in [1, 4] {
                let run = |prune| {
                    bi_search(
                        &ValuationContext::new(&sub, estimator),
                        &cfg,
                        prune,
                        workers,
                    )
                };
                let ((bi, stats), (nobi, nobi_stats)) = (run(true), run(false));
                assert_eq!(
                    (
                        stats.pruned,
                        bi.states_valuated,
                        bi.len(),
                        nobi.states_valuated
                    ),
                    expected,
                    "n={n} surrogate={surrogate} ε={epsilon} workers={workers}"
                );
                assert_eq!(nobi_stats.pruned, 0);
            }
        }
    }

    #[test]
    fn bimodis_explores_from_both_ends() {
        let sub = MockSubstrate::new(6);
        let cfg = oracle_config().with_max_level(2).with_max_states(1000);
        let res = bi_modis(&sub, &cfg);
        // Backward start (all zeros) is level 0 and should be valuated even
        // though the forward search would need 6 levels to reach it.
        assert!(res.states_valuated >= 2);
        let has_sparse = res.entries.iter().any(|e| e.bitmap.count_ones() <= 2);
        let has_dense = res.entries.iter().any(|e| e.bitmap.count_ones() >= 4);
        assert!(has_sparse || has_dense);
    }

    #[test]
    fn bimodis_uses_fewer_or_equal_states_than_apx_for_same_budget() {
        let sub = MockSubstrate::new(8);
        let cfg = oracle_config().with_max_states(120).with_max_level(4);
        let bi = bi_modis(&sub, &cfg);
        let apx = apx_modis(&sub, &cfg);
        assert!(bi.states_valuated <= cfg.max_states + 1);
        assert!(apx.states_valuated <= cfg.max_states + 1);
    }
}
