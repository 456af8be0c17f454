//! Dominance relations and skyline computation (§4, §5.1).
//!
//! * [`dominates`] — strict Pareto dominance over normalised minimise-form
//!   performance vectors;
//! * [`epsilon_dominates`] — the `(1+ε)` relaxation used by the
//!   `(N, ε)`-approximation;
//! * [`skyline`] — exact Pareto front with the first-occurrence duplicate
//!   rule, and [`dominated_flags`] — the dominance-only predicate used by
//!   skyline finalisation: two readings of one `O(n²·|P|)` pairwise scan;
//! * [`epsilon_skyline_cover`] — verifies the ε-skyline covering property;
//! * [`take_tally`] — the calling thread's comparison / pruned counts.
//!
//! The pairwise scan **is** the contract, and it is the only kernel.
//! [`dominates`] is tolerance-based (`1e-12` margins), which makes it
//! non-transitive — `q` may dominate `p` while a dominator of `q` does not
//! (margins add up) — so a dominated vector still counts as a dominator, and
//! algorithms that compare only against accepted skyline members (SFS, BNL
//! windows) return a different set. A request reaches the scan once, at
//! finalisation, with at most `max_states` vectors (4–47 in every
//! `bench_e2e` workload), where it is also the fastest path.

use std::cell::Cell;

use crate::telemetry;

/// Metric name for total f64 dominance comparisons performed by the scan.
pub const COMPARISONS_TOTAL: &str = "dominance_comparisons_total";
/// Help text for [`COMPARISONS_TOTAL`].
pub const COMPARISONS_HELP: &str = "Full f64 dominance comparisons performed by the skyline scan.";
/// Metric name for comparisons skipped relative to the pairwise bound.
pub const PRUNED_TOTAL: &str = "dominance_pruned_total";
/// Help text for [`PRUNED_TOTAL`].
pub const PRUNED_HELP: &str =
    "Dominance comparisons the scan's early exit skipped relative to the full n*(n-1) bound.";

/// Strict Pareto dominance: `a ≺ b` means `b` dominates `a`.
///
/// `b` dominates `a` iff `b` is no worse on every measure and strictly better
/// on at least one (all measures minimised).
pub fn dominates(b: &[f64], a: &[f64]) -> bool {
    if a.len() != b.len() || a.is_empty() {
        return false;
    }
    let mut strictly_better = false;
    for (x, y) in b.iter().zip(a.iter()) {
        if *x > y + 1e-12 {
            return false;
        }
        if *x < y - 1e-12 {
            strictly_better = true;
        }
    }
    strictly_better
}

/// ε-dominance `b ⪰_ε a`: `b.p ≤ (1+ε)·a.p` for every measure and `b.p* ≤
/// a.p*` for at least one (decisive) measure.
pub fn epsilon_dominates(b: &[f64], a: &[f64], epsilon: f64) -> bool {
    if a.len() != b.len() || a.is_empty() {
        return false;
    }
    let factor = 1.0 + epsilon;
    let mut some_no_worse = false;
    for (x, y) in b.iter().zip(a.iter()) {
        if *x > factor * y + 1e-12 {
            return false;
        }
        if *x <= *y + 1e-12 {
            some_no_worse = true;
        }
    }
    some_no_worse
}

thread_local! {
    static TALLY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Takes (and resets) this thread's accumulated `(comparisons, pruned)`
/// tally. The engine brackets an algorithm run with this to attribute
/// dominance work to a namespace without threading counts through every
/// signature.
pub fn take_tally() -> (u64, u64) {
    TALLY.with(|t| t.replace((0, 0)))
}

/// Adds one scan's work over `n` vectors to the thread-local tally and —
/// when an ambient [`telemetry`] scope is open — the ambient metrics
/// registry. `pruned` is what the early exit skipped of the `n·(n−1)` bound.
fn record(comparisons: u64, n: usize) {
    let n = n as u64;
    let pruned = (n * n.saturating_sub(1)).saturating_sub(comparisons);
    TALLY.with(|t| {
        let (c, p) = t.get();
        t.set((c + comparisons, p + pruned));
    });
    if let Some(t) = telemetry::ambient() {
        t.metrics
            .counter(COMPARISONS_TOTAL, COMPARISONS_HELP)
            .add(comparisons);
        t.metrics.counter(PRUNED_TOTAL, PRUNED_HELP).add(pruned);
    }
}

/// The pairwise scan: `out[i]` is true iff some other vector [`dominates`]
/// vector `i` or — under `first_occurrence` — an earlier vector equals it.
/// Each vector's scan stops at its first hit, so the comparison count
/// depends on input order.
fn scan<P: AsRef<[f64]>>(points: &[P], first_occurrence: bool) -> Vec<bool> {
    let mut comparisons = 0u64;
    let out = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let p = p.as_ref();
            points.iter().enumerate().any(|(j, q)| {
                if i == j {
                    return false;
                }
                let q = q.as_ref();
                comparisons += 1;
                dominates(q, p) || (first_occurrence && j < i && q == p)
            })
        })
        .collect();
    record(comparisons, points.len());
    out
}

/// Exact skyline (Pareto front) of a set of performance vectors: the indices
/// of vectors no other vector [`dominates`], minus exact duplicates of
/// earlier vectors, preserving input order.
///
/// Adds its work to the ambient telemetry (when a scope is open) and the
/// thread-local dominance tally.
pub fn skyline<P: AsRef<[f64]>>(points: &[P]) -> Vec<usize> {
    scan(points, true)
        .into_iter()
        .enumerate()
        .filter(|(_, out)| !out)
        .map(|(i, _)| i)
        .collect()
}

/// Dominance-only flags: `flags[i]` is true iff some *other* vector
/// dominates vector `i` (exact duplicates are not flagged — they do not
/// dominate each other). Counts its work like [`skyline`].
pub fn dominated_flags<P: AsRef<[f64]>>(points: &[P]) -> Vec<bool> {
    scan(points, false)
}

/// Checks the ε-skyline covering property: every vector in `all` is
/// ε-dominated by some member of `subset` (given as indices into `all`).
pub fn epsilon_skyline_cover(all: &[Vec<f64>], subset: &[usize], epsilon: f64) -> bool {
    all.iter().enumerate().all(|(i, p)| {
        subset.contains(&i)
            || subset
                .iter()
                .any(|&j| epsilon_dominates(&all[j], p, epsilon))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_basic_cases() {
        assert!(dominates(&[0.1, 0.2], &[0.2, 0.3]));
        assert!(!dominates(&[0.2, 0.3], &[0.1, 0.2]));
        assert!(!dominates(&[0.1, 0.4], &[0.2, 0.3]));
        // Equal vectors do not dominate each other.
        assert!(!dominates(&[0.1, 0.2], &[0.1, 0.2]));
        assert!(!dominates(&[], &[]));
    }

    #[test]
    fn paper_example_4_dominance() {
        // Performance vectors of D1..D5 from Example 4 (RMSE, R̂², T_train).
        let d = [
            vec![0.48, 0.33, 0.37],
            vec![0.41, 0.24, 0.37],
            vec![0.26, 0.15, 0.37],
            vec![0.37, 0.22, 0.39],
            vec![0.25, 0.18, 0.35],
        ];
        // D1 ≺ D2 ≺ D3 and D4 ≺ D5 (later dominates earlier).
        assert!(dominates(&d[1], &d[0]));
        assert!(dominates(&d[2], &d[1]));
        assert!(dominates(&d[4], &d[3]));
        // D3 ⊀ D5 and D5 ⊀ D3.
        assert!(!dominates(&d[2], &d[4]));
        assert!(!dominates(&d[4], &d[2]));
        // Skyline = {D3, D5} = indices {2, 4}.
        let sky = skyline(&d);
        assert_eq!(sky, vec![2, 4]);
    }

    #[test]
    fn epsilon_dominance_relaxation() {
        // Slightly worse on one measure but within (1+ε).
        assert!(epsilon_dominates(&[0.11, 0.2], &[0.1, 0.25], 0.2));
        assert!(!epsilon_dominates(&[0.2, 0.2], &[0.1, 0.25], 0.2));
        // ε = 0 reduces to weak dominance with the "some no worse" clause.
        assert!(epsilon_dominates(&[0.1, 0.2], &[0.1, 0.2], 0.0));
    }

    #[test]
    fn skyline_2d_matches_generic() {
        let pts: Vec<Vec<f64>> = vec![
            vec![0.1, 0.9],
            vec![0.2, 0.5],
            vec![0.3, 0.6],
            vec![0.5, 0.2],
            vec![0.9, 0.1],
            vec![0.6, 0.6],
        ];
        let sky2 = skyline(&pts);
        // Generic path by adding a constant third dimension.
        let pts3: Vec<Vec<f64>> = pts.iter().map(|p| vec![p[0], p[1], 0.5]).collect();
        let mut sky3 = skyline(&pts3);
        sky3.sort_unstable();
        assert_eq!(sky2, sky3);
        assert!(sky2.contains(&0) && sky2.contains(&4));
        assert!(!sky2.contains(&2));
    }

    #[test]
    fn skyline_of_duplicates_keeps_one() {
        let pts = vec![vec![0.1, 0.1, 0.1], vec![0.1, 0.1, 0.1]];
        assert_eq!(skyline(&pts), vec![0]);
    }

    #[test]
    fn cover_property_detects_missing_coverage() {
        let all = vec![vec![0.1, 0.5], vec![0.5, 0.1], vec![0.12, 0.55]];
        assert!(epsilon_skyline_cover(&all, &[0, 1], 0.2));
        assert!(!epsilon_skyline_cover(&all, &[1], 0.2));
    }

    /// Pins the NaN/∞ semantics of [`dominates`] that every kernel must
    /// reproduce: a NaN coordinate passes both the "no worse" and the
    /// "strictly better" checks vacuously in *both* directions, so a
    /// NaN-laced vector can dominate (and escape domination selectively).
    #[test]
    fn nan_dominance_semantics_are_pinned() {
        // NaN on one coordinate, strictly better on the other: dominates.
        assert!(dominates(&[f64::NAN, 0.1], &[0.5, 0.5]));
        // All-NaN never dominates (no strict win anywhere).
        assert!(!dominates(&[f64::NAN, f64::NAN], &[0.5, 0.5]));
        // A NaN coordinate in the dominated point imposes no constraint.
        assert!(dominates(&[0.1, 0.1], &[f64::NAN, 0.5]));
        // NaN-containing vectors are never exact duplicates.
        let pts = vec![vec![f64::NAN, 0.5], vec![f64::NAN, 0.5]];
        assert_eq!(skyline(&pts), vec![0, 1]);
    }

    /// NaN- and ∞-laced two-measure inputs, which a sort-based 2D kernel
    /// (`partial_cmp(..).unwrap_or(Equal)`) silently misorders.
    #[test]
    fn skyline_2d_nan_and_infinite_regression() {
        let pts = vec![
            vec![f64::NAN, 0.2],
            vec![0.3, 0.4],
            vec![f64::NAN, f64::NAN],
            vec![0.1, f64::NAN],
            vec![f64::INFINITY, 0.05],
            vec![f64::NEG_INFINITY, 0.9],
            vec![0.2, 0.5],
        ];
        // Pin the exact set. Vacuous NaN checks make dominance cyclic here:
        // [inf, 0.05] beats [NaN, 0.2] on y, [0.1, NaN] beats [inf, 0.05]
        // on x, [-inf, 0.9] beats [0.1, NaN] on x, and [NaN, 0.2] beats
        // [-inf, 0.9] (and every finite point) on y — so only the all-NaN
        // vector, which nothing strictly beats, survives.
        assert_eq!(skyline(&pts), vec![2]);
    }

    /// Two points closer than the dominance tolerance on every coordinate
    /// do not dominate each other — both must survive, in 2D and beyond.
    #[test]
    fn sub_tolerance_pairs_both_survive() {
        let pts2 = vec![vec![0.1, 0.5], vec![0.1, 0.5 - 5e-13]];
        assert_eq!(skyline(&pts2), vec![0, 1]);
        let pts3 = vec![vec![0.1, 0.5, 0.2], vec![0.1, 0.5 - 5e-13, 0.2 + 5e-13]];
        assert_eq!(skyline(&pts3), vec![0, 1]);
    }

    #[test]
    fn dominated_flags_match_pairwise_definition() {
        let pts = vec![
            vec![0.1, 0.5, 0.3],
            vec![0.2, 0.6, 0.4],
            vec![0.1, 0.5, 0.3],
            vec![0.5, 0.1, 0.9],
        ];
        // Index 1 is dominated by 0 (and 2); duplicates are not flagged.
        assert_eq!(dominated_flags(&pts), vec![false, true, false, false]);
    }
}
