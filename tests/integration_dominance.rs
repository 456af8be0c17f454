//! Differential test harness for the skyline kernel.
//!
//! `modis_core::dominance` has one exact kernel, the pairwise scan, read as
//! `skyline` (first-occurrence duplicate rule) and as `dominated_flags`.
//! Two checks, on the five `dominance_workload` families, quantised random
//! points and arbitrary `f64` bit patterns:
//!
//! * **the contract** — on any input, NaN/∞-laced and sub-tolerance
//!   clusters included: `flags[i]` ⇔ some other vector `dominates` vector
//!   `i`, and `i ∈ skyline` ⇔ `!flags[i]` and no earlier exact duplicate;
//! * **two oracles from other algorithm families** that never call
//!   `dominates` — an insert-at-a-time block-nested-loop window and the 2-D
//!   sort-then-sweep. Both rely on dominance being a strict partial order,
//!   which the `1e-12`-tolerant `dominates` is only when distinct values
//!   are far apart, so they run on NaN-free inputs snapped to a 1e-6 grid.
//!   NaN, ±∞, sub-tolerance and duplicate semantics are pinned by the
//!   hand-written expectations in `dominance.rs`' unit tests.

use proptest::prelude::*;

use modis_bench::dominance_workload::{frontier_points, Frontier};
use modis_core::dominance::{dominated_flags, dominates, skyline};

/// The kernel against its quantified definition, on any input.
fn assert_contract(pts: &[Vec<f64>], label: &str) {
    let flags = dominated_flags(pts);
    let keep = skyline(pts);
    assert_eq!(flags.len(), pts.len(), "{label}: one flag per vector");
    for (i, p) in pts.iter().enumerate() {
        let dominated = pts
            .iter()
            .enumerate()
            .any(|(j, q)| j != i && dominates(q, p));
        assert_eq!(flags[i], dominated, "{label}: flags[{i}] diverged");
        let expect = !dominated && !pts[..i].contains(p);
        assert_eq!(keep.contains(&i), expect, "{label}: skyline[{i}] diverged");
    }
    assert!(keep.windows(2).all(|w| w[0] < w[1]), "{label}: input order");
}

/// Drops NaN rows and snaps the rest to a 1e-6 grid: equal or ≥ 1e-6 apart,
/// so tolerant dominance coincides with plain `<` / `≤` Pareto dominance.
fn snapped(pts: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    pts.into_iter()
        .filter(|p| p.iter().all(|v| !v.is_nan()))
        .map(|p| p.iter().map(|v| (v * 1e6).round() / 1e6).collect())
        .collect()
}

/// Oracle 1 — block-nested-loop window, one insertion at a time: a newcomer
/// that a window member beats or equals is dropped, otherwise it evicts the
/// members it beats and joins. "Beats" counts better and worse coordinates.
fn bnl_skyline(pts: &[Vec<f64>]) -> Vec<usize> {
    let beats = |a: &[f64], b: &[f64]| {
        let (mut better, mut worse) = (0, 0);
        for (x, y) in a.iter().zip(b) {
            better += usize::from(x < y);
            worse += usize::from(x > y);
        }
        better > 0 && worse == 0
    };
    let mut window: Vec<usize> = Vec::new();
    for (i, p) in pts.iter().enumerate() {
        if window.iter().any(|&w| beats(&pts[w], p) || pts[w] == *p) {
            continue;
        }
        window.retain(|&w| !beats(p, &pts[w]));
        window.push(i);
    }
    window
}

/// Oracle 2 — two measures: sort by (x, y, index), sweep once; a point is on
/// the skyline iff its y is strictly below every y seen before it.
fn sweep_skyline_2d(pts: &[Vec<f64>]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pts.len()).collect();
    order.sort_by(|&a, &b| pts[a].partial_cmp(&pts[b]).unwrap().then(a.cmp(&b)));
    let mut lowest: Option<f64> = None;
    let mut keep = Vec::new();
    for i in order {
        let y = pts[i][1];
        if lowest.is_none_or(|l| y < l) {
            keep.push(i);
            lowest = Some(y);
        }
    }
    keep.sort_unstable();
    keep
}

/// The kernel against both oracles; `pts` must be NaN-free and on a grid
/// far coarser than the dominance tolerance.
fn assert_oracles(pts: &[Vec<f64>], label: &str) {
    let keep = skyline(pts);
    assert_eq!(keep, bnl_skyline(pts), "{label}: BNL window diverged");
    if pts.first().is_some_and(|p| p.len() == 2) {
        assert_eq!(keep, sweep_skyline_2d(pts), "{label}: 2-D sweep diverged");
    }
}

// ---------------------------------------------------------------------------
// Deterministic sweeps
// ---------------------------------------------------------------------------

/// Every frontier family × measure count × size, including the empty and
/// single-point degenerate shapes.
#[test]
fn differential_frontier_families() {
    for frontier in Frontier::all() {
        for &dims in &[1usize, 2, 4, 6] {
            for &n in &[0usize, 1, 2, 17, 257, 900] {
                let label = format!("{} d={dims} n={n}", frontier.name());
                let pts = frontier_points(n, dims, frontier, 0xBEEF + n as u64);
                assert_contract(&pts, &label);
                assert_oracles(&snapped(pts), &label);
            }
        }
    }
}

/// A wide anti-correlated frontier at 5000 points, where the BNL window
/// holds thousands of members.
#[test]
fn differential_wide_frontier_at_5k() {
    let pts = snapped(frontier_points(5000, 4, Frontier::AntiCorrelated, 0x5EED));
    let keep = skyline(&pts);
    assert!(keep.len() > 1000, "frontier is wide: {}", keep.len());
    assert_eq!(keep, bnl_skyline(&pts));
}

/// Duplicates, all-equal and single-point inputs: only the first occurrence
/// of a duplicate survives, and a lone point always survives.
#[test]
fn differential_duplicate_edge_cases() {
    let all_equal: Vec<Vec<f64>> = (0..50).map(|_| vec![0.3, 0.4, 0.5]).collect();
    assert_contract(&all_equal, "all-equal");
    assert_oracles(&all_equal, "all-equal");
    assert_eq!(skyline(&all_equal), vec![0]);

    let single = vec![vec![0.1, 0.9]];
    assert_contract(&single, "single");
    assert_oracles(&single, "single");
    assert_eq!(skyline(&single), vec![0]);

    let empty: Vec<Vec<f64>> = Vec::new();
    assert_contract(&empty, "empty");
    assert_oracles(&empty, "empty");
    assert!(skyline(&empty).is_empty());

    // Signed zeros are duplicates; NaN rows never are.
    let zeros = vec![
        vec![0.0, -0.0],
        vec![-0.0, 0.0],
        vec![f64::NAN, 0.0],
        vec![f64::NAN, 0.0],
    ];
    assert_contract(&zeros, "signed-zero");
    assert_eq!(skyline(&zeros), vec![0, 2, 3]);
}

/// Tolerance non-transitivity: `dominates` uses `1e-12` margins, so chains
/// of sub-tolerance steps q₁ ⪰ q₂ ⪰ q₃ exist where q₁ does not dominate
/// q₃. A dominated vector still counts as a dominator, which is why the
/// window oracle — like classic SFS — is not run here.
#[test]
fn differential_sub_tolerance_clusters() {
    // c dominates b and b dominates a, but c is 1.6 tolerances behind a on
    // x and does not: the contract still drops a, where a window that met c
    // first would discard b unseen and keep a.
    let (a, b, c) = (vec![0.0, 10.0], vec![0.8e-12, 5.0], vec![1.6e-12, 0.0]);
    assert!(dominates(&c, &b) && dominates(&b, &a) && !dominates(&c, &a));
    assert_eq!(skyline(&[c, a, b]), vec![0]);

    let step = 5e-13; // half the tolerance
    for dims in [2usize, 3, 4] {
        let mut pts = Vec::new();
        for c in 0..6 {
            let base = 0.2 + 0.1 * c as f64;
            for k in 0..12 {
                let p: Vec<f64> = (0..dims)
                    .map(|m| base + step * ((k + m) % 5) as f64 - step * ((k * 3 + m) % 4) as f64)
                    .collect();
                pts.push(p);
            }
        }
        assert_contract(&pts, &format!("sub-tolerance d={dims}"));
    }
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random quantised points (1–6 measures, heavy tie/duplicate density,
    /// 1/24 apart): the contract holds and both oracles agree.
    #[test]
    fn differential_random_quantised(
        raw in prop::collection::vec(any::<u8>(), 0..720),
        dims in 1usize..7,
    ) {
        let pts: Vec<Vec<f64>> = raw
            .chunks_exact(dims)
            .map(|c| c.iter().map(|&v| (v % 24) as f64 / 24.0).collect())
            .collect();
        assert_contract(&pts, &format!("quantised d={dims}"));
        assert_oracles(&pts, &format!("quantised d={dims}"));
    }

    /// Never panics and keeps the contract on arbitrary f64 bit patterns —
    /// NaNs with payload bits, infinities, subnormals, huge magnitudes and
    /// signed zeros included.
    #[test]
    fn never_panics_and_agrees_on_arbitrary_bits(
        bits in prop::collection::vec(any::<u64>(), 0..240),
        dims in 1usize..6,
    ) {
        let pts: Vec<Vec<f64>> = bits
            .chunks_exact(dims)
            .map(|c| c.iter().map(|&b| f64::from_bits(b)).collect())
            .collect();
        assert_contract(&pts, &format!("bit-pattern d={dims}"));
    }

    /// Mixed magnitudes: coordinates spanning ~1e±300, infinities and
    /// near-tolerance offsets keep the contract.
    #[test]
    fn differential_extreme_magnitudes(
        raw in prop::collection::vec(any::<u8>(), 0..400),
        dims in 2usize..5,
    ) {
        let scale = |v: u8| -> f64 {
            match v % 8 {
                0 => 1e300,
                1 => -1e300,
                2 => 1e-300,
                3 => f64::INFINITY,
                4 => 0.5 + (v as f64) * 5e-13,
                5 => -(v as f64),
                6 => 0.0,
                _ => (v as f64) / 17.0,
            }
        };
        let pts: Vec<Vec<f64>> = raw
            .chunks_exact(dims)
            .map(|c| c.iter().map(|&v| scale(v)).collect())
            .collect();
        assert_contract(&pts, &format!("extreme d={dims}"));
    }
}

// ---------------------------------------------------------------------------
// EpsilonSkyline / epsilon_skyline_cover properties
// ---------------------------------------------------------------------------

use modis_core::dominance::epsilon_skyline_cover;
use modis_core::measure::{MeasureSet, MeasureSpec};
use modis_core::pareto::EpsilonSkyline;
use modis_data::StateBitmap;

fn cover_measures() -> MeasureSet {
    MeasureSet::new(vec![
        MeasureSpec::maximise("q").with_bounds(0.01, 0.95),
        MeasureSpec::minimise("c", 1.0).with_bounds(0.01, 0.9),
    ])
}

fn shuffled(mut items: Vec<Vec<f64>>, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for i in (1..items.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
    items
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Grid cover invariant (§4): whatever the insert order, every offered
    /// in-bounds point is ε-dominated by some finalized member. The grid
    /// guarantees the cell occupant ε-dominates its cell-mates, and exact
    /// finalize-pruning composes with ε-dominance up to a hair of slack.
    #[test]
    fn cover_invariant_holds_under_random_insert_orders(
        raw in prop::collection::vec(any::<u8>(), 2..160),
        seed in any::<u64>(),
        eps in 0.05f64..0.6,
    ) {
        // Coarse values (multiples of 1/64) keep every comparison far from
        // the 1e-12 tolerance, so the slack argument is airtight.
        let perfs: Vec<Vec<f64>> = raw
            .chunks_exact(2)
            .map(|c| vec![0.02 + (c[0] % 56) as f64 / 64.0, 0.02 + (c[1] % 56) as f64 / 64.0])
            .collect();
        let perfs = shuffled(perfs, seed);
        let measures = cover_measures();
        let mut sky = EpsilonSkyline::new(measures.clone(), eps, None);
        let bitmap = StateBitmap::full(4);
        let mut offered: Vec<Vec<f64>> = Vec::new();
        for p in &perfs {
            sky.offer(&bitmap, p, 0);
            if !measures.violates_upper(p) {
                offered.push(p.clone());
            }
        }
        let fin = sky.finalize();
        // Members are mutually non-dominated…
        for (i, a) in fin.iter().enumerate() {
            for (j, b) in fin.iter().enumerate() {
                prop_assert!(i == j || !dominates(&b.perf, &a.perf));
            }
        }
        // …and cover every offered in-bounds point within (1+ε+slack).
        let member_idx: Vec<usize> = fin
            .iter()
            .map(|e| offered.iter().position(|p| *p == e.perf).expect("member was offered"))
            .collect();
        prop_assert!(
            epsilon_skyline_cover(&offered, &member_idx, eps + 1e-6),
            "cover violated for eps={eps}"
        );
    }

    /// Decisive-measure replacement is order-insensitive when the paper
    /// guarantees it: with all decisive values distinct and separated by
    /// far more than the comparison tolerance, each cell's final occupant
    /// is its unique decisive minimum, so any two insert orders finalize
    /// to the same member set.
    #[test]
    fn decisive_replacement_is_order_insensitive(
        raw in prop::collection::vec(any::<u8>(), 2..120),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        eps in 0.05f64..0.5,
    ) {
        let perfs: Vec<Vec<f64>> = raw
            .chunks_exact(2)
            .enumerate()
            .map(|(i, c)| {
                // Distinct decisive (cost) values spaced 0.005 apart.
                vec![0.02 + (c[0] % 56) as f64 / 64.0, 0.02 + i as f64 * 0.005]
            })
            .collect();
        let run = |order: Vec<Vec<f64>>| -> Vec<Vec<f64>> {
            let mut sky = EpsilonSkyline::new(cover_measures(), eps, None);
            let bitmap = StateBitmap::full(4);
            for p in &order {
                sky.offer(&bitmap, p, 0);
            }
            let mut out: Vec<Vec<f64>> = sky.finalize().into_iter().map(|e| e.perf).collect();
            out.sort_by(|a, b| a.partial_cmp(b).unwrap());
            out
        };
        let a = run(shuffled(perfs.clone(), seed_a));
        let b = run(shuffled(perfs, seed_b));
        prop_assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------------
// Engine observability
// ---------------------------------------------------------------------------

use std::sync::Arc;

use modis_core::config::ModisConfig;
use modis_core::estimator::EstimatorMode;
use modis_core::substrate::mock::MockSubstrate;
use modis_core::substrate::Substrate;
use modis_engine::{Algorithm, Engine, EngineConfig, Scenario};

/// One exact scenario drives the scan through the engine: the global
/// dominance counters and the per-namespace attribution must both land in
/// the engine's metrics registry with nonzero pruning.
#[test]
fn engine_scenario_exposes_dominance_counters() {
    let engine = Engine::new(EngineConfig::default().with_worker_threads(2));
    let substrate: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(8));
    let config = ModisConfig::default()
        .with_epsilon(0.15)
        .with_max_states(400)
        .with_max_level(8)
        .with_estimator(EstimatorMode::Oracle);
    let scenario = Scenario::new("dom/exact", substrate, Algorithm::Exact, config)
        .with_cache_namespace("dom-pool");
    let outcome = engine.run_scenario(&scenario);
    assert!(!outcome.result.entries.is_empty());

    let rendered = engine.metrics().render().join("\n");
    let value_of = |needle: &str| -> u64 {
        rendered
            .lines()
            .find(|l| l.starts_with(needle) && !l.starts_with('#'))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("metric {needle} missing from:\n{rendered}"))
    };
    assert!(value_of("dominance_pruned_total ") > 0);
    assert!(value_of("dominance_comparisons_total ") > 0);
    assert!(value_of("engine_dominance_pruned_total{namespace=\"dom-pool\"}") > 0);
}
