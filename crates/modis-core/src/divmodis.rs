//! DivMODis: diversified skyline dataset generation (§5.4, Alg. 3).
//!
//! DivMODis extends the `(N, ε)`-approximation with a per-level greedy
//! selection-and-replacement step that keeps at most `k` skyline members
//! maximising the diversification score of Eq. (2):
//!
//! `div(D_F) = Σ_{i<j} dis(D_i, D_j)` with
//! `dis = α·(1 − cos(L_i, L_j))/2 + (1 − α)·euc(P_i, P_j)/euc_max`.

use std::time::Instant;

use modis_data::stats::euclidean;

use crate::config::{ModisConfig, SkylineEntry, SkylineResult};
use crate::estimator::ValuationContext;
use crate::pareto::EpsilonSkyline;
use crate::search_common::{finalize_result, Direction, Frontier, VisitedSet};
use crate::substrate::Substrate;

/// Pairwise distance `dis(D_i, D_j)` of Eq. (2).
pub(crate) fn diversification_distance(
    a: &SkylineEntry,
    b: &SkylineEntry,
    alpha: f64,
    euc_max: f64,
) -> f64 {
    let content = alpha * (1.0 - a.bitmap.cosine_similarity(&b.bitmap)) / 2.0;
    let scale = if euc_max > 1e-12 { euc_max } else { 1.0 };
    let perf = (1.0 - alpha) * euclidean(&a.perf, &b.perf) / scale;
    content + perf
}

/// Diversification score `div(D_F)` of a set of entries.
pub fn diversification_score(entries: &[SkylineEntry], alpha: f64, euc_max: f64) -> f64 {
    pairwise_score(entries.len(), |i| &entries[i], alpha, euc_max)
}

/// `div` over the `n` members `member(0..n)`, pair by pair in slot order —
/// the one summation [`diversification_score`] and [`diversify_level`]'s
/// trials share, so both add the same distances in the same order.
fn pairwise_score<'a>(
    n: usize,
    member: impl Fn(usize) -> &'a SkylineEntry,
    alpha: f64,
    euc_max: f64,
) -> f64 {
    let mut score = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            score += diversification_distance(member(i), member(j), alpha, euc_max);
        }
    }
    score
}

/// One diversification step at a level (Alg. 3): keeps at most `k` entries by
/// greedy replacement maximising `div`.
///
/// The replacement runs on positions into `entries`; a trial costs one
/// score and no copy, and the `k` winners are cloned once, at the end.
pub(crate) fn diversify_level(
    entries: Vec<SkylineEntry>,
    k: usize,
    alpha: f64,
    euc_max: f64,
) -> Vec<SkylineEntry> {
    if entries.len() <= k {
        return entries;
    }
    let score_of = |picks: &[usize]| pairwise_score(k, |i| &entries[picks[i]], alpha, euc_max);
    // Initialise with the first k entries — the k lowest cell keys of
    // `EpsilonSkyline::entries` — a deterministic stand-in for the random
    // initialisation of Alg. 3, keeping runs reproducible.
    let mut selected: Vec<usize> = (0..k).collect();
    let mut trial = selected.clone();
    let mut score = score_of(&selected);
    let mut improved = true;
    while improved {
        improved = false;
        for slot in 0..k {
            for (c, candidate) in entries.iter().enumerate() {
                if selected.iter().any(|&s| {
                    entries[s].bitmap == candidate.bitmap && entries[s].perf == candidate.perf
                }) {
                    continue;
                }
                trial.copy_from_slice(&selected);
                trial[slot] = c;
                let trial_score = score_of(&trial);
                if trial_score > score + 1e-12 {
                    selected.copy_from_slice(&trial);
                    score = trial_score;
                    improved = true;
                }
            }
        }
    }
    selected.iter().map(|&i| entries[i].clone()).collect()
}

/// Runs DivMODis over a substrate.
pub fn div_modis<S: Substrate + ?Sized>(substrate: &S, config: &ModisConfig) -> SkylineResult {
    let ctx = ValuationContext::new(substrate, config.estimator);
    div_modis_with_context(&ctx, config)
}

/// Runs DivMODis with an externally managed valuation context (lets callers
/// install an [`crate::estimator::EvaluationHook`] and share test records
/// across runs), on the calling thread.
pub fn div_modis_with_context<S: Substrate + ?Sized>(
    ctx: &ValuationContext<'_, S>,
    config: &ModisConfig,
) -> SkylineResult {
    div_search(ctx, config, 1)
}

/// DivMODis, training up to `workers` states at a time: it valuates every
/// child a step spawns, so each step's children are trained ahead. Every
/// `workers` value returns the same result.
pub(crate) fn div_search<S: Substrate + ?Sized>(
    ctx: &ValuationContext<'_, S>,
    config: &ModisConfig,
    workers: usize,
) -> SkylineResult {
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

    // Normalisation constant euc_m: the maximum Euclidean distance among the
    // historical performances in T, updated as the search proceeds.
    let mut euc_max: f64 = 1e-9;
    let mut current_level = 0usize;

    let open = || ctx.num_valuated() < config.max_states;
    while let Some(level) = frontier.next_level().filter(|_| open()) {
        if level > current_level {
            // Level boundary: diversify the skyline kept so far (Alg. 3 is
            // invoked on D_F^i before level i+1 is processed).
            let entries = skyline.entries().cloned().collect();
            let diversified = diversify_level(entries, config.k, config.alpha, euc_max);
            skyline.replace_entries(diversified);
            current_level = level;
        }
        frontier.step_valuating(
            &mut visited,
            ctx,
            config,
            workers,
            usize::MAX,
            |child, level, _| {
                let perf = ctx.valuate(child);
                for rec in skyline.entries() {
                    euc_max = euc_max.max(euclidean(&rec.perf, &perf));
                }
                skyline.offer(child, &perf, level);
                Some(())
            },
        );
    }

    // Final diversification pass.
    let entries = skyline.entries().cloned().collect();
    let diversified = diversify_level(entries, config.k, config.alpha, euc_max);
    skyline.replace_entries(diversified);
    finalize_result(&skyline, ctx, start.elapsed().as_secs_f64())
}

/// The greedy replacement as it was before it ran on positions: every trial
/// clones the selected set and the candidate. Kept as the bit-identity
/// oracle of [`diversify_level`].
#[cfg(test)]
fn diversify_level_oracle(
    entries: Vec<SkylineEntry>,
    k: usize,
    alpha: f64,
    euc_max: f64,
) -> Vec<SkylineEntry> {
    if entries.len() <= k {
        return entries;
    }
    let mut selected: Vec<SkylineEntry> = entries[..k].to_vec();
    let mut score = diversification_score(&selected, alpha, euc_max);
    let mut improved = true;
    while improved {
        improved = false;
        for slot in 0..selected.len() {
            for candidate in &entries {
                if selected
                    .iter()
                    .any(|s| s.bitmap == candidate.bitmap && s.perf == candidate.perf)
                {
                    continue;
                }
                let mut trial = selected.clone();
                trial[slot] = candidate.clone();
                let trial_score = diversification_score(&trial, alpha, euc_max);
                if trial_score > score + 1e-12 {
                    selected = trial;
                    score = trial_score;
                    improved = true;
                }
            }
        }
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::EstimatorMode;
    use crate::measure::{MeasureSet, MeasureSpec};
    use crate::substrate::mock::MockSubstrate;
    use modis_data::StateBitmap;
    use proptest::prelude::*;

    fn entry(bits: Vec<bool>, perf: Vec<f64>) -> SkylineEntry {
        SkylineEntry {
            bitmap: StateBitmap::from_bits(bits),
            perf,
            raw: Vec::new(),
            size: (0, 0),
            level: 0,
        }
    }

    #[test]
    fn distance_combines_content_and_performance() {
        let a = entry(vec![true, true, false], vec![0.1, 0.2]);
        let b = entry(vec![false, false, true], vec![0.8, 0.9]);
        let c = entry(vec![true, true, false], vec![0.1, 0.2]);
        let far = diversification_distance(&a, &b, 0.5, 1.0);
        let near = diversification_distance(&a, &c, 0.5, 1.0);
        assert!(far > near);
        assert!(near.abs() < 1e-9);
        // α = 1 ignores performance.
        let only_content = diversification_distance(&a, &b, 1.0, 1.0);
        assert!((only_content - 0.5).abs() < 1e-9);
    }

    #[test]
    fn diversification_score_is_monotone_in_set_size() {
        let a = entry(vec![true, false], vec![0.1, 0.2]);
        let b = entry(vec![false, true], vec![0.9, 0.8]);
        let c = entry(vec![true, true], vec![0.5, 0.5]);
        let two = diversification_score(&[a.clone(), b.clone()], 0.5, 1.0);
        let three = diversification_score(&[a, b, c], 0.5, 1.0);
        assert!(three >= two);
    }

    #[test]
    fn diversify_level_keeps_k_most_diverse() {
        let entries = vec![
            entry(vec![true, true, true, true], vec![0.1, 0.1]),
            entry(vec![true, true, true, false], vec![0.11, 0.11]),
            entry(vec![false, false, false, true], vec![0.9, 0.9]),
        ];
        let kept = diversify_level(entries, 2, 0.5, 1.2);
        assert_eq!(kept.len(), 2);
        // The two most different entries (first and third) should survive.
        let ones: Vec<usize> = kept.iter().map(|e| e.bitmap.count_ones()).collect();
        assert!(ones.contains(&1));
        assert!(ones.contains(&4) || ones.contains(&3));
    }

    #[test]
    fn diversify_level_noop_when_small() {
        let entries = vec![entry(vec![true], vec![0.1, 0.2])];
        assert_eq!(diversify_level(entries.clone(), 3, 0.5, 1.0).len(), 1);
    }

    /// The greedy replacement starts from the first `k` entries, so DivMODis
    /// repeats only if `EpsilonSkyline::entries` is a function of the offers.
    #[test]
    fn same_offers_give_one_entry_order_and_one_diversified_set() {
        let measures = MeasureSet::new(vec![
            MeasureSpec::maximise("a"),
            MeasureSpec::maximise("b"),
            MeasureSpec::minimise("c", 1.0),
        ]);
        let run = |k: usize| {
            let mut sky = EpsilonSkyline::new(measures.clone(), 0.1, None);
            // 14 offers in 14 cells whose greedy replacement has several
            // local optima: seeded in `HashMap` order they diversified to
            // 3 distinct sets at k = 2 and 2 at k = 4.
            for i in 0..14usize {
                let coord = |step: usize| 0.05 + 0.06 * ((i * step + (i * i) % 3) % 14) as f64;
                let bits = (0..14).map(|u| (i * 7 + u * 3) % 5 >= 2).collect();
                let perf = [coord(5), coord(3), coord(11)];
                sky.offer(&StateBitmap::from_bits(bits), &perf, 0);
            }
            let order: Vec<Vec<f64>> = sky.entries().map(|e| e.perf.clone()).collect();
            assert!(order.len() > k);
            let mut kept: Vec<Vec<f64>> =
                diversify_level(sky.entries().cloned().collect(), k, 0.5, 1.0)
                    .into_iter()
                    .map(|e| e.perf)
                    .collect();
            kept.sort_by(|a, b| a.partial_cmp(b).unwrap());
            (order, kept)
        };
        for k in [2, 4] {
            let first = run(k);
            for _ in 1..25 {
                assert_eq!(run(k), first, "k={k}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The position-based replacement returns the oracle's entries, in
        /// the oracle's slot order, with the oracle's score to the bit. Bits
        /// over 4 units and perf on a coarse grid make duplicate entries
        /// (the skip test) common.
        #[test]
        fn diversify_level_matches_the_cloning_oracle(
            codes in prop::collection::vec(0usize..16 * 6 * 6, 1..14),
            k in 1usize..7,
            alpha_choice in 0usize..3,
            euc_max in 0.0f64..2.0,
        ) {
            let alpha = [0.0, 0.5, 1.0][alpha_choice];
            let entries: Vec<SkylineEntry> = codes
                .iter()
                .map(|&code| {
                    let (bits, a, b) = (code % 16, code / 16 % 6, code / 96);
                    let bits = (0..4).map(|u| bits >> u & 1 == 1).collect();
                    entry(bits, vec![0.05 + 0.15 * a as f64, 0.1 + 0.17 * b as f64])
                })
                .collect();
            let new = diversify_level(entries.clone(), k, alpha, euc_max);
            let old = diversify_level_oracle(entries, k, alpha, euc_max);
            let bitmaps = |v: &[SkylineEntry]| v.iter().map(|e| e.bitmap.clone()).collect::<Vec<_>>();
            let perfs = |v: &[SkylineEntry]| {
                v.iter()
                    .map(|e| e.perf.iter().map(|p| p.to_bits()).collect::<Vec<_>>())
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(bitmaps(&new), bitmaps(&old));
            prop_assert_eq!(perfs(&new), perfs(&old));
            prop_assert_eq!(
                diversification_score(&new, alpha, euc_max).to_bits(),
                diversification_score(&old, alpha, euc_max).to_bits()
            );
        }
    }

    #[test]
    fn divmodis_bounds_skyline_size_by_k() {
        let sub = MockSubstrate::new(8);
        let cfg = ModisConfig::default()
            .with_estimator(EstimatorMode::Oracle)
            .with_max_states(200)
            .with_diversification(3, 0.5);
        let res = div_modis(&sub, &cfg);
        assert!(!res.is_empty());
        assert!(res.len() <= 3, "skyline has {} members", res.len());
    }

    #[test]
    fn alpha_one_prefers_content_spread() {
        let sub = MockSubstrate::new(8);
        let base = ModisConfig::default()
            .with_estimator(EstimatorMode::Oracle)
            .with_max_states(150);
        let content = div_modis(&sub, &base.clone().with_diversification(3, 1.0));
        let perf = div_modis(&sub, &base.with_diversification(3, 0.0));
        assert!(!content.is_empty() && !perf.is_empty());
    }
}
