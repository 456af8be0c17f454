//! Performance measures and their normalisation (§2).
//!
//! The paper unifies every measure into a *minimise* form with range
//! `(0, 1]`: measures to be maximised (accuracy, F1, R², NDCG, …) are
//! inverted (`1 − x`), cost measures (training time, MSE, …) are divided by a
//! user-supplied scale (e.g. a time budget). Each measure optionally carries
//! a desired range `[p_l, p_u]` used both for skyline membership filtering
//! and for the position grid of Eq. (1).

use std::fmt;

/// Whether the raw metric is better when larger or when smaller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Raw metric in `[0, 1]`, larger is better (accuracy, F1, AUC, R², …).
    HigherIsBetter,
    /// Raw metric ≥ 0, smaller is better (MSE, MAE, training time, …).
    LowerIsBetter,
}

/// Specification of one user-defined performance measure `p ∈ P`.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasureSpec {
    /// Measure name (e.g. `"p_Acc"`, `"p_Train"`).
    pub name: String,
    /// Direction of the raw metric.
    pub direction: Direction,
    /// Scale used to normalise lower-is-better metrics (the value that maps
    /// to 1.0, e.g. a training-time budget in seconds). Ignored for
    /// higher-is-better metrics.
    pub scale: f64,
    /// Desired lower bound `p_l` of the normalised measure, in `(0, 1]`.
    pub lower: f64,
    /// Desired upper bound `p_u` of the normalised measure, in `(0, 1]`.
    pub upper: f64,
}

impl MeasureSpec {
    /// A maximised metric (accuracy-like) with default bounds `(0.01, 1]`.
    pub fn maximise(name: impl Into<String>) -> Self {
        MeasureSpec {
            name: name.into(),
            direction: Direction::HigherIsBetter,
            scale: 1.0,
            lower: 0.01,
            upper: 1.0,
        }
    }

    /// A minimised cost metric with the given normalisation scale and
    /// default bounds `(0.01, 1]`.
    pub fn minimise(name: impl Into<String>, scale: f64) -> Self {
        MeasureSpec {
            name: name.into(),
            direction: Direction::LowerIsBetter,
            scale: scale.max(1e-12),
            lower: 0.01,
            upper: 1.0,
        }
    }

    /// Sets the desired normalised range `[p_l, p_u]`.
    pub fn with_bounds(mut self, lower: f64, upper: f64) -> Self {
        self.lower = lower.clamp(1e-6, 1.0);
        self.upper = upper.clamp(self.lower, 1.0);
        self
    }

    /// Normalises a raw metric value into the unified `(0, 1]` minimise form.
    pub fn normalise(&self, raw: f64) -> f64 {
        let v = match self.direction {
            Direction::HigherIsBetter => 1.0 - raw.clamp(0.0, 1.0),
            Direction::LowerIsBetter => raw.max(0.0) / self.scale,
        };
        v.clamp(1e-6, 1.0)
    }

    /// Whether a normalised value satisfies the measure's range.
    pub fn within_bounds(&self, normalised: f64) -> bool {
        normalised >= self.lower - 1e-12 && normalised <= self.upper + 1e-12
    }
}

impl fmt::Display for MeasureSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{:.3}, {:.3}]", self.name, self.lower, self.upper)
    }
}

/// An ordered set of measures `P`; the last one is the decisive measure by
/// default (§5.2).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MeasureSet {
    specs: Vec<MeasureSpec>,
}

impl MeasureSet {
    /// Creates a measure set from specs.
    pub fn new(specs: Vec<MeasureSpec>) -> Self {
        MeasureSet { specs }
    }

    /// Number of measures `|P|`.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Measure specs in order.
    pub fn specs(&self) -> &[MeasureSpec] {
        &self.specs
    }

    /// Spec at index `i`.
    pub fn spec(&self, i: usize) -> &MeasureSpec {
        &self.specs[i]
    }

    /// Index of a measure by name.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.specs.iter().position(|s| s.name == name)
    }

    /// Index of the decisive measure (the last one by default).
    pub(crate) fn decisive_index(&self) -> usize {
        self.specs.len().saturating_sub(1)
    }

    /// Normalises a raw metric vector into a performance vector.
    pub fn normalise(&self, raw: &[f64]) -> Vec<f64> {
        self.specs
            .iter()
            .zip(raw.iter())
            .map(|(s, &v)| s.normalise(v))
            .collect()
    }

    /// Whether the whole normalised vector satisfies every measure's bounds.
    pub fn within_bounds(&self, normalised: &[f64]) -> bool {
        self.specs
            .iter()
            .zip(normalised.iter())
            .all(|(s, &v)| s.within_bounds(v))
    }

    /// Whether any component violates its upper bound (early-skip rule of
    /// `UPareto`).
    pub fn violates_upper(&self, normalised: &[f64]) -> bool {
        self.specs
            .iter()
            .zip(normalised.iter())
            .any(|(s, &v)| v > s.upper + 1e-12)
    }

    /// Measure names in order.
    pub fn names(&self) -> Vec<&str> {
        self.specs.iter().map(|s| s.name.as_str()).collect()
    }
}

/// Writes the discretised position of a performance vector in the
/// `(|P|−1)`-dimensional grid of Eq. (1) into `out`, replacing what it held,
/// so a caller that probes many vectors reuses one buffer.
///
/// The decisive measure (index `decisive`) is excluded from the grid;
/// remaining coordinates are `⌊log_{1+ε}(p_i / p_l_i)⌋`.
pub fn position(perf: &[f64], set: &MeasureSet, epsilon: f64, decisive: usize, out: &mut Vec<i64>) {
    let base = (1.0 + epsilon.max(1e-9)).ln();
    out.clear();
    for (i, &p) in perf.iter().enumerate().filter(|(i, _)| *i != decisive) {
        let ratio = (p.max(1e-9) / set.spec(i).lower.max(1e-9)).max(1e-12);
        out.push((ratio.ln() / base).floor() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_set() -> MeasureSet {
        MeasureSet::new(vec![
            MeasureSpec::maximise("p_Acc").with_bounds(0.05, 0.9),
            MeasureSpec::minimise("p_Train", 10.0).with_bounds(0.01, 0.8),
        ])
    }

    #[test]
    fn maximise_measures_are_inverted() {
        let m = MeasureSpec::maximise("acc");
        assert!((m.normalise(0.9) - 0.1).abs() < 1e-9);
        // Clamped away from zero to stay in (0,1].
        assert!(m.normalise(1.0) > 0.0);
    }

    #[test]
    fn minimise_measures_are_scaled() {
        let m = MeasureSpec::minimise("time", 10.0);
        assert!((m.normalise(5.0) - 0.5).abs() < 1e-9);
        assert_eq!(m.normalise(20.0), 1.0);
    }

    #[test]
    fn bounds_checks() {
        let m = MeasureSpec::maximise("acc").with_bounds(0.1, 0.6);
        assert!(m.within_bounds(0.3));
        assert!(!m.within_bounds(0.7));
        assert!(!m.within_bounds(0.05));
    }

    #[test]
    fn measure_set_normalise_and_bounds() {
        let set = example_set();
        let perf = set.normalise(&[0.8, 4.0]);
        assert!((perf[0] - 0.2).abs() < 1e-9);
        assert!((perf[1] - 0.4).abs() < 1e-9);
        assert!(set.within_bounds(&perf));
        assert!(!set.violates_upper(&perf));
        assert!(set.violates_upper(&[0.95, 0.4]));
        assert_eq!(set.decisive_index(), 1);
        assert_eq!(set.position("p_Train"), Some(1));
    }

    fn cell(perf: &[f64], set: &MeasureSet, epsilon: f64) -> Vec<i64> {
        let mut cell = vec![7; 3];
        position(perf, set, epsilon, set.decisive_index(), &mut cell);
        cell
    }

    #[test]
    fn position_grid_matches_log_formula() {
        let set = example_set();
        let eps = 0.3;
        // Decisive = last measure ⇒ grid over p_Acc only; the buffer's old
        // contents are replaced.
        let pos = cell(&[0.05, 0.4], &set, eps);
        assert_eq!(pos, [0]); // log_{1.3}(0.05/0.05) = 0
        let pos2 = cell(&[0.2, 0.4], &set, eps);
        let expected = ((0.2f64 / 0.05).ln() / 1.3f64.ln()).floor() as i64;
        assert_eq!(pos2[0], expected);
        assert!(pos2[0] > pos[0]);
    }

    #[test]
    fn equal_cells_for_close_values() {
        let set = example_set();
        let (a, b) = (
            cell(&[0.100, 0.4], &set, 0.5),
            cell(&[0.105, 0.4], &set, 0.5),
        );
        assert_eq!(a, b);
    }
}
