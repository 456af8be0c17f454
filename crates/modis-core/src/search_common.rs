//! Helpers shared by the MODis search algorithms.

use std::cell::Cell;
use std::collections::{HashSet, VecDeque};

use modis_data::bitmap::BuildWordHasher;
use modis_data::StateBitmap;

use crate::config::{ModisConfig, SkylineEntry, SkylineResult};
use crate::dominance::dominated_flags;
use crate::estimator::ValuationContext;
use crate::pareto::EpsilonSkyline;
use crate::substrate::Substrate;

/// Search direction of an `OpGen` expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    /// Forward search: flip 1 → 0 (reduct operators).
    Forward,
    /// Backward search: flip 0 → 1 (augment operators).
    Backward,
}

/// O(1)-membership set of protected unit indices.
///
/// `OpGen` consults protection once per candidate flip per expansion; a
/// linear scan over a `&[usize]` made that O(|protected|) in the innermost
/// loop of every search. This packs the indices into a word-level bitset.
#[derive(Debug, Clone, Default)]
pub struct ProtectedSet {
    words: Vec<u64>,
    len: usize,
}

impl ProtectedSet {
    /// Builds the set from unit indices, sized for a `num_units` universe.
    pub(crate) fn from_indices(indices: &[usize], num_units: usize) -> Self {
        let mut words = vec![0u64; num_units.div_ceil(64)];
        let mut len = 0;
        for &i in indices {
            debug_assert!(i < num_units, "protected unit {i} out of range");
            let (w, b) = (i / 64, i % 64);
            if w >= words.len() {
                words.resize(w + 1, 0);
            }
            if words[w] & (1 << b) == 0 {
                words[w] |= 1 << b;
                len += 1;
            }
        }
        ProtectedSet { words, len }
    }

    /// The protected set of a substrate.
    pub fn of<S: Substrate + ?Sized>(substrate: &S) -> Self {
        Self::from_indices(&substrate.protected_units(), substrate.num_units())
    }

    /// Whether unit `i` is protected (constant time).
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Number of protected units.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no unit is protected.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Procedure `OpGen`: spawns every one-flip child of a state in the given
/// direction, skipping protected units.
pub(crate) fn op_gen(
    bitmap: &StateBitmap,
    direction: Direction,
    protected: &ProtectedSet,
) -> Vec<StateBitmap> {
    let flip = |i: usize| (!protected.contains(i)).then(|| bitmap.flipped(i));
    match direction {
        Direction::Forward => bitmap.iter_ones().filter_map(flip).collect(),
        Direction::Backward => bitmap.iter_zeros().filter_map(flip).collect(),
    }
}

/// Tracks which states have already been spawned to avoid revisiting them.
///
/// Hashed with [`modis_data::bitmap::WordHasher`]: every key is a state the
/// search spawned itself, never one a peer sent.
#[derive(Debug, Default)]
pub(crate) struct VisitedSet {
    seen: HashSet<StateBitmap, BuildWordHasher>,
}

impl VisitedSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        VisitedSet::default()
    }

    /// Inserts a state; returns `true` when it was not seen before.
    pub fn insert(&mut self, bitmap: &StateBitmap) -> bool {
        self.seen.insert(bitmap.clone())
    }

    /// Whether `bitmap` was inserted.
    pub(crate) fn contains(&self, bitmap: &StateBitmap) -> bool {
        self.seen.contains(bitmap)
    }
}

/// The one running of the generator every MODis search is built on: a
/// level-capped breadth-first frontier that pops a parent, spawns its `OpGen`
/// children and hands the unvisited ones to the caller's `visit`, which alone
/// decides what a search does with a child (valuate, bound, schedule).
///
/// `P` is a per-node payload handed back when the node's children are visited
/// (`()` for the forward searches, the parent's performance vector for
/// BiMODis, whose two frontiers share the [`VisitedSet`] borrowed per call).
pub(crate) struct Frontier<P> {
    queue: VecDeque<(StateBitmap, P, usize)>,
    direction: Direction,
    protected: ProtectedSet,
    max_level: usize,
    /// The front node's children, once [`Frontier::train_ahead`] has
    /// listed them; the step that pops the node hands out these instead of
    /// spawning them again.
    listed: Option<Vec<StateBitmap>>,
}

impl<P> Frontier<P> {
    /// An empty frontier that expands no node at `max_level` or deeper.
    pub fn new<S: Substrate + ?Sized>(
        substrate: &S,
        direction: Direction,
        max_level: usize,
    ) -> Self {
        Frontier {
            queue: VecDeque::new(),
            direction,
            protected: ProtectedSet::of(substrate),
            max_level,
            listed: None,
        }
    }

    /// Marks `state` visited and queues it as a level-0 node.
    pub fn start(&mut self, visited: &mut VisitedSet, state: StateBitmap, payload: P) {
        visited.insert(&state);
        self.queue.push_back((state, payload, 0));
    }

    /// Level of the node the next [`Frontier::step`] pops; `None` once the
    /// frontier is exhausted.
    pub(crate) fn next_level(&self) -> Option<usize> {
        self.queue.front().map(|(_, _, level)| *level)
    }

    /// Pops the next parent and, while the caller's budget predicate `open`
    /// holds, hands each child not yet in `visited` to
    /// `visit(child, child_level, &parent_payload)`. A child is queued iff
    /// `visit` returns its payload; one it refuses stays visited and is never
    /// expanded. Returns `false` — and pops nothing — once the budget is
    /// closed or the frontier is exhausted.
    pub fn step(
        &mut self,
        visited: &mut VisitedSet,
        open: impl Fn() -> bool,
        mut visit: impl FnMut(&StateBitmap, usize, &P) -> Option<P>,
    ) -> bool {
        if !open() {
            return false;
        }
        let Some((state, payload, level)) = self.queue.pop_front() else {
            return false;
        };
        let children = match self.listed.take() {
            Some(listed) => listed,
            None if level < self.max_level => op_gen(&state, self.direction, &self.protected),
            None => Vec::new(),
        };
        for child in children {
            if !open() {
                break;
            }
            if !visited.insert(&child) {
                continue;
            }
            if let Some(child_payload) = visit(&child, level + 1, &payload) {
                self.queue.push_back((child, child_payload, level + 1));
            }
        }
        true
    }

    /// The front node's `OpGen` children (none at `max_level`), spawned
    /// once: the step that pops the node hands out these.
    fn listed(&mut self) -> &[StateBitmap] {
        let Some((state, _, level)) = self.queue.front() else {
            return &[];
        };
        self.listed.get_or_insert_with(|| {
            if *level < self.max_level {
                op_gen(state, self.direction, &self.protected)
            } else {
                Vec::new()
            }
        })
    }

    /// The payload of the node the next [`Frontier::step`] pops: a start
    /// node queued before its payload was known gets it here.
    pub(crate) fn front_payload_mut(&mut self) -> Option<&mut P> {
        self.queue.front_mut().map(|(_, payload, _)| payload)
    }

    /// With more than one worker and `ctx` still in its oracle phase, has
    /// `ctx` train ahead on up to `workers` threads (its `train_ahead`, one
    /// body with ApxMODis' waves) what the caller is certain to valuate
    /// next, whatever anything scores: `lead`, states it valuates before
    /// this frontier's next step, then the first `certain` children that
    /// step hands to `visit`, as far as a budget of `config.max_states`
    /// valuated states reaches. Each valuation still commits where the
    /// caller makes it, so the search's outcome is the same for every
    /// `workers`.
    pub(crate) fn train_ahead<S: Substrate + ?Sized>(
        &mut self,
        visited: &VisitedSet,
        ctx: &ValuationContext<'_, S>,
        config: &ModisConfig,
        workers: usize,
        lead: &[&StateBitmap],
        certain: usize,
    ) {
        if workers <= 1 || ctx.surrogate_active() {
            return;
        }
        // The step skips a visited child; the budget is the context's.
        let children = self
            .listed()
            .iter()
            .filter(|child| !visited.contains(child));
        let named = lead.iter().copied().chain(children.take(certain));
        ctx.train_ahead(named, config.max_states, workers);
    }

    /// [`Frontier::step`] for a search that valuates through `ctx` with a
    /// budget of `config.max_states` valuated states, the first `certain`
    /// children trained ahead ([`Frontier::train_ahead`]).
    pub(crate) fn step_valuating<S: Substrate + ?Sized>(
        &mut self,
        visited: &mut VisitedSet,
        ctx: &ValuationContext<'_, S>,
        config: &ModisConfig,
        workers: usize,
        certain: usize,
        visit: impl FnMut(&StateBitmap, usize, &P) -> Option<P>,
    ) -> bool {
        self.train_ahead(visited, ctx, config, workers, &[], certain);
        let stepped = self.step(visited, || ctx.num_valuated() < config.max_states, visit);
        debug_assert_eq!(ctx.parked(), 0, "a state trained ahead was not valuated");
        stepped
    }
}

/// The forward (reduce-from-universal) traversal without its valuations: the
/// ordered `(child, level)` list a sequential search visits after the start
/// state `s_U`, honouring the visited-set and `config.max_level`. `budget` is
/// how many states not yet recorded in `ctx` the schedule may hold — states a
/// (pre-warmed) context already holds are scheduled but consume none, just as
/// a sequential `valuate` memo hit leaves `ctx.num_valuated()` unchanged.
pub(crate) fn forward_schedule<S: Substrate + ?Sized>(
    ctx: &ValuationContext<'_, S>,
    config: &ModisConfig,
    budget: usize,
) -> Vec<(StateBitmap, usize)> {
    let substrate = ctx.substrate();
    let mut visited = VisitedSet::new();
    let mut frontier = Frontier::new(substrate, Direction::Forward, config.max_level);
    frontier.start(&mut visited, substrate.forward_start(), ());
    let left = Cell::new(budget);
    let mut schedule = Vec::new();
    let open = || left.get() > 0;
    while frontier.step(&mut visited, open, |child, level, _| {
        if !ctx.contains(child) {
            left.set(left.get() - 1);
        }
        schedule.push((child.clone(), level));
        Some(())
    }) {}
    schedule
}

/// Finalises a search: the ε-skyline's members, pruned of exact dominance
/// among the vectors the search saw, are re-valuated with the oracle (actual
/// model training) and sized. Re-valuation replaces a surrogate estimate by
/// the oracle's vector, which can leave one member dominating another, so
/// when any member's vector changed the members are pruned of exact
/// dominance again: no returned entry is dominated by another. The result is
/// wrapped in a [`SkylineResult`].
pub(crate) fn finalize_result<S: Substrate + ?Sized>(
    skyline: &EpsilonSkyline,
    ctx: &ValuationContext<'_, S>,
    elapsed_seconds: f64,
) -> SkylineResult {
    let mut revalued = false;
    let mut entries: Vec<SkylineEntry> = skyline
        .finalize()
        .into_iter()
        .map(|mut e| {
            let raw = ctx.raw_for(&e.bitmap);
            let perf = ctx.substrate().measures().normalise(&raw);
            revalued |= !perf
                .iter()
                .map(|p| p.to_bits())
                .eq(e.perf.iter().map(|p| p.to_bits()));
            e.perf = perf;
            e.raw = raw;
            e.size = ctx.substrate().artifact_size(&e.bitmap);
            e
        })
        .collect();
    if revalued {
        let perfs: Vec<&[f64]> = entries.iter().map(|e| e.perf.as_slice()).collect();
        let dominated = dominated_flags(&perfs);
        entries = entries
            .into_iter()
            .zip(dominated)
            .filter(|(_, dominated)| !dominated)
            .map(|(e, _)| e)
            .collect();
    }
    // Total order (perf sum, then lexicographic perf, then bitmap): ties on
    // the sum must not leave the output order at the mercy of HashMap
    // iteration, or parallel and repeated runs could not be compared
    // byte-for-byte.
    entries.sort_by(|a, b| {
        let (sa, sb) = (a.perf.iter().sum::<f64>(), b.perf.iter().sum::<f64>());
        sa.partial_cmp(&sb)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                a.perf
                    .iter()
                    .zip(&b.perf)
                    .find_map(|(x, y)| x.partial_cmp(y).filter(|o| o.is_ne()))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .then_with(|| a.bitmap.cmp(&b.bitmap))
    });
    SkylineResult {
        entries,
        states_valuated: ctx.num_valuated(),
        elapsed_seconds,
        stats: ctx.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::EstimatorMode;
    use crate::measure::MeasureSet;
    use crate::substrate::mock::MockSubstrate;
    use proptest::prelude::*;

    /// The traversal as the parent commit's `apx.rs` spelled it out, its
    /// valuation stripped (the budget counts emitted states): the one
    /// hand-written BFS left, kept as the differential oracle for
    /// [`Frontier`] and [`forward_schedule`].
    fn reference_bfs(
        start: StateBitmap,
        direction: Direction,
        protected: &ProtectedSet,
        max_level: usize,
        budget: usize,
    ) -> Vec<(StateBitmap, usize)> {
        let mut visited = VisitedSet::new();
        let mut queue: VecDeque<(StateBitmap, usize)> = VecDeque::new();
        let mut emitted = Vec::new();
        visited.insert(&start);
        queue.push_back((start, 0));
        while let Some((state, level)) = queue.pop_front() {
            if emitted.len() >= budget {
                break;
            }
            if level >= max_level {
                continue;
            }
            for child in op_gen(&state, direction, protected) {
                if emitted.len() >= budget {
                    break;
                }
                if !visited.insert(&child) {
                    continue;
                }
                emitted.push((child.clone(), level + 1));
                queue.push_back((child, level + 1));
            }
        }
        emitted
    }

    /// [`MockSubstrate`] with some units protected.
    struct Fenced(MockSubstrate, Vec<usize>);

    impl Substrate for Fenced {
        fn num_units(&self) -> usize {
            self.0.num_units()
        }
        fn unit_label(&self, unit: usize) -> String {
            self.0.unit_label(unit)
        }
        fn backward_start(&self) -> StateBitmap {
            self.0.backward_start()
        }
        fn measures(&self) -> &MeasureSet {
            self.0.measures()
        }
        fn evaluate_raw(&self, bitmap: &StateBitmap) -> Vec<f64> {
            self.0.evaluate_raw(bitmap)
        }
        fn state_features(&self, bitmap: &StateBitmap) -> Vec<f64> {
            self.0.state_features(bitmap)
        }
        fn artifact_size(&self, bitmap: &StateBitmap) -> (usize, usize) {
            self.0.artifact_size(bitmap)
        }
        fn protected_units(&self) -> Vec<usize> {
            self.1.clone()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `Frontier` (both directions) and `forward_schedule` emit the
        /// reference BFS's `(state, level)` sequence, state for state.
        #[test]
        fn frontier_and_schedule_match_the_reference_bfs(
            num_units in 1usize..11,
            protected_mask in prop::collection::vec(any::<bool>(), 10),
            max_level in 0usize..7,
            budget_choice in 0usize..6,
            backward in any::<bool>(),
        ) {
            let budget = [0, 1, 2, 7, 40, usize::MAX][budget_choice];
            let protected_units: Vec<usize> =
                (0..num_units).filter(|&u| protected_mask[u]).collect();
            let sub = Fenced(MockSubstrate::new(num_units), protected_units);
            let (direction, start) = if backward {
                (Direction::Backward, sub.backward_start())
            } else {
                (Direction::Forward, sub.forward_start())
            };
            let expected =
                reference_bfs(start.clone(), direction, &ProtectedSet::of(&sub), max_level, budget);

            let mut visited = VisitedSet::new();
            let mut frontier = Frontier::new(&sub, direction, max_level);
            frontier.start(&mut visited, start, ());
            let emitted = std::cell::RefCell::new(Vec::new());
            let open = || emitted.borrow().len() < budget;
            while frontier.step(&mut visited, open, |child, level, _| {
                emitted.borrow_mut().push((child.clone(), level));
                Some(())
            }) {}
            prop_assert_eq!(&emitted.into_inner(), &expected);

            if !backward {
                let ctx = ValuationContext::new(&sub, EstimatorMode::Oracle);
                let config = ModisConfig::default().with_max_level(max_level);
                prop_assert_eq!(&forward_schedule(&ctx, &config, budget), &expected);
            }
        }
    }

    /// A child `visit` refuses (BiMODis' pruning) is remembered as visited,
    /// never queued and never expanded; its own children are still reached
    /// through its siblings.
    #[test]
    fn a_refused_child_stays_visited_and_is_never_expanded() {
        let sub = MockSubstrate::new(3);
        let refused = sub.forward_start().flipped(0);
        let mut visited = VisitedSet::new();
        let mut frontier = Frontier::new(&sub, Direction::Forward, 3);
        frontier.start(&mut visited, sub.forward_start(), sub.forward_start());
        // The payload is the node itself, so `visit` sees every child's parent.
        let mut handed: Vec<(StateBitmap, StateBitmap)> = Vec::new();
        while frontier.step(
            &mut visited,
            || true,
            |child, _, parent| {
                handed.push((child.clone(), parent.clone()));
                (*child != refused).then(|| child.clone())
            },
        ) {}
        assert_eq!(handed.iter().filter(|(c, _)| *c == refused).count(), 1);
        assert!(handed.iter().all(|(_, parent)| *parent != refused));
        assert!(!visited.insert(&refused));
        // 2³ states, all but the start handed out exactly once.
        assert_eq!(handed.len(), 7);
    }

    #[test]
    fn op_gen_forward_flips_ones() {
        let b = StateBitmap::from_bits(vec![true, false, true]);
        let children = op_gen(&b, Direction::Forward, &ProtectedSet::default());
        assert_eq!(children.len(), 2);
        assert!(children.iter().all(|c| c.count_ones() == 1));
    }

    #[test]
    fn op_gen_backward_flips_zeros_and_respects_protection() {
        let b = StateBitmap::from_bits(vec![true, false, false]);
        let children = op_gen(
            &b,
            Direction::Backward,
            &ProtectedSet::from_indices(&[2], 3),
        );
        assert_eq!(children.len(), 1);
        assert!(children[0].get(1));
    }

    #[test]
    fn protected_set_membership_and_dedup() {
        let p = ProtectedSet::from_indices(&[0, 65, 65, 127], 128);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert!(p.contains(0) && p.contains(65) && p.contains(127));
        assert!(!p.contains(1) && !p.contains(64) && !p.contains(500));
        assert!(!ProtectedSet::default().contains(0));
    }

    #[test]
    fn visited_set_dedups() {
        let mut v = VisitedSet::new();
        let b = StateBitmap::full(3);
        assert!(v.insert(&b));
        assert!(!v.insert(&b));
    }

    #[test]
    fn finalize_result_fills_raw_and_size() {
        let sub = MockSubstrate::new(4);
        let ctx = ValuationContext::new(&sub, EstimatorMode::Oracle);
        let cfg = ModisConfig::default();
        let mut sky = EpsilonSkyline::new(sub.measures().clone(), cfg.epsilon, None);
        let b = StateBitmap::full(4);
        let perf = ctx.valuate(&b);
        sky.offer(&b, &perf, 0);
        let res = finalize_result(&sky, &ctx, 0.1);
        assert_eq!(res.entries.len(), 1);
        assert_eq!(res.entries[0].raw.len(), 2);
        assert_eq!(res.entries[0].size, (40, 4));
        assert!(res.states_valuated >= 1);
    }

    /// Two members the search saw as mutually non-dominated (estimates) are
    /// re-valuated by the oracle into a dominated pair: only the dominating
    /// one is returned.
    #[test]
    fn finalize_result_drops_members_revaluation_made_dominated() {
        let sub = MockSubstrate::new(4);
        let ctx = ValuationContext::new(&sub, EstimatorMode::Oracle);
        let cfg = ModisConfig::default();
        let mut sky = EpsilonSkyline::new(sub.measures().clone(), cfg.epsilon, None);
        // Clearing the noise unit 3 keeps the quality and lowers the cost.
        let (full, lean) = (StateBitmap::full(4), StateBitmap::full(4).flipped(3));
        sky.offer(&full, &[0.1, 0.6], 0);
        sky.offer(&lean, &[0.6, 0.1], 1);
        assert_eq!(sky.finalize().len(), 2);
        let res = finalize_result(&sky, &ctx, 0.0);
        let kept: Vec<&StateBitmap> = res.entries.iter().map(|e| &e.bitmap).collect();
        assert_eq!(kept, vec![&lean]);
    }
}
