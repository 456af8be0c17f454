//! The measure correlation graph `G_C` and parameterised dominance bounds
//! used by BiMODis' correlation-based pruning (§5.3, Lemma 4).

use modis_data::stats::spearman;

/// Correlation graph over the measures `P`.
///
/// Nodes are measures; an edge `(p_i, p_j)` exists when `|ρ_S(p_i, p_j)| ≥ θ`
/// over the currently valuated tests `T`.
#[derive(Debug, Clone)]
pub struct CorrelationGraph {
    /// Spearman correlation matrix (symmetric, diagonal 1).
    pub matrix: Vec<Vec<f64>>,
    /// Threshold θ.
    pub theta: f64,
}

impl CorrelationGraph {
    /// Builds the graph from per-measure series of valuated performance
    /// values (one series per measure, aligned across tests).
    pub fn from_series(series: &[Vec<f64>], theta: f64) -> Self {
        let m = series.len();
        let mut matrix = vec![vec![0.0; m]; m];
        for i in 0..m {
            matrix[i][i] = 1.0;
            for j in (i + 1)..m {
                let rho = spearman(&series[i], &series[j]);
                matrix[i][j] = rho;
                matrix[j][i] = rho;
            }
        }
        CorrelationGraph { matrix, theta }
    }

    /// Number of measures.
    pub fn len(&self) -> usize {
        self.matrix.len()
    }

    /// Whether the graph has no measures.
    pub fn is_empty(&self) -> bool {
        self.matrix.is_empty()
    }

    /// Whether measures `i` and `j` are strongly correlated.
    pub fn strongly_correlated(&self, i: usize, j: usize) -> bool {
        i < self.len() && j < self.len() && self.matrix[i][j].abs() >= self.theta
    }

    /// Number of strongly-correlated pairs (edges of `G_C`).
    pub fn num_edges(&self) -> usize {
        let m = self.len();
        (0..m)
            .flat_map(|i| ((i + 1)..m).map(move |j| (i, j)))
            .filter(|&(i, j)| self.strongly_correlated(i, j))
            .count()
    }
}

/// Parameterised performance bounds `[p̂_l, p̂_u]` of a not-yet-valuated
/// state, derived from the valuated performance of a neighbouring state and
/// globally observed per-transition deltas.
#[derive(Debug, Clone)]
pub struct PerfBounds {
    /// Per-measure lower bounds (optimistic estimate).
    pub lower: Vec<f64>,
    /// Per-measure upper bounds (pessimistic estimate).
    pub upper: Vec<f64>,
}

impl PerfBounds {
    /// Derives bounds for a child state of a valuated parent: each measure
    /// may move by at most the historically observed extreme per-transition
    /// delta; measures strongly correlated with another measure have their
    /// range tightened towards that measure's own range (the paper's
    /// correlation-assisted interval inference, Example 6).
    pub fn from_parent(
        parent_perf: &[f64],
        delta_min: &[f64],
        delta_max: &[f64],
        graph: &CorrelationGraph,
    ) -> PerfBounds {
        let m = parent_perf.len();
        let mut lower = vec![0.0; m];
        let mut upper = vec![0.0; m];
        for i in 0..m {
            let dmin = delta_min.get(i).copied().unwrap_or(-0.5);
            let dmax = delta_max.get(i).copied().unwrap_or(0.5);
            lower[i] = (parent_perf[i] + dmin).clamp(1e-6, 1.0);
            upper[i] = (parent_perf[i] + dmax).clamp(lower[i], 1.0);
        }
        // Correlation tightening: a measure strongly and positively
        // correlated with a narrow-ranged neighbour inherits a proportional
        // share of that neighbour's range around the parent value.
        for i in 0..m {
            for j in 0..graph.len() {
                if j != i && graph.strongly_correlated(i, j) && graph.matrix[i][j] > 0.0 {
                    let width_j = upper[j] - lower[j];
                    let width_i = upper[i] - lower[i];
                    if width_j < width_i {
                        let centre = parent_perf[i];
                        let half = width_j / 2.0;
                        lower[i] = lower[i].max((centre - half).clamp(1e-6, 1.0));
                        upper[i] = upper[i].min((centre + half).max(lower[i]));
                    }
                }
            }
        }
        PerfBounds { lower, upper }
    }

    /// Parameterised ε-dominance check (Lemma 4, Case 3a): an existing
    /// vector `other` ε-dominates every state within these bounds when
    /// `other.p ≤ (1+ε)·p̂_l` for all measures.
    pub fn epsilon_dominated_by(&self, other: &[f64], epsilon: f64) -> bool {
        if other.len() != self.lower.len() || other.is_empty() {
            return false;
        }
        other
            .iter()
            .zip(self.lower.iter())
            .all(|(o, l)| *o <= (1.0 + epsilon) * l + 1e-12)
    }
}

/// Running tracker of per-transition performance deltas (observed change of
/// each measure across one valuated parent → child transition).
#[derive(Debug, Clone)]
pub struct DeltaTracker {
    /// Minimum observed delta per measure.
    pub min: Vec<f64>,
    /// Maximum observed delta per measure.
    pub max: Vec<f64>,
    observations: usize,
}

impl DeltaTracker {
    /// Creates a tracker for `m` measures with conservative initial bounds.
    pub fn new(m: usize) -> Self {
        DeltaTracker {
            min: vec![-0.5; m],
            max: vec![0.5; m],
            observations: 0,
        }
    }

    /// Records one parent → child transition.
    pub fn observe(&mut self, parent: &[f64], child: &[f64]) {
        let m = self.min.len().min(parent.len()).min(child.len());
        for i in 0..m {
            let d = child[i] - parent[i];
            if self.observations == 0 {
                self.min[i] = d;
                self.max[i] = d;
            } else {
                self.min[i] = self.min[i].min(d);
                self.max[i] = self.max[i].max(d);
            }
        }
        self.observations += 1;
    }

    /// Number of observed transitions.
    pub fn observations(&self) -> usize {
        self.observations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correlation_graph_detects_strong_pairs() {
        let series = vec![
            vec![0.1, 0.2, 0.3, 0.4, 0.5],
            vec![0.2, 0.4, 0.6, 0.8, 1.0],
            vec![0.9, 0.1, 0.8, 0.2, 0.7],
        ];
        let g = CorrelationGraph::from_series(&series, 0.8);
        assert!(g.strongly_correlated(0, 1));
        assert!(!g.strongly_correlated(0, 2));
        assert!(!g.strongly_correlated(1, 2));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn delta_tracker_records_extremes() {
        let mut t = DeltaTracker::new(2);
        assert_eq!(t.observations(), 0);
        t.observe(&[0.5, 0.5], &[0.4, 0.6]);
        t.observe(&[0.5, 0.5], &[0.55, 0.3]);
        assert!((t.min[0] + 0.1).abs() < 1e-12);
        assert!((t.max[0] - 0.05).abs() < 1e-12);
        assert!((t.min[1] + 0.2).abs() < 1e-12);
        assert_eq!(t.observations(), 2);
    }

    #[test]
    fn bounds_from_parent_and_pruning_decision() {
        let series = vec![vec![0.1, 0.2, 0.3], vec![0.1, 0.2, 0.3]];
        let g = CorrelationGraph::from_series(&series, 0.8);
        let bounds = PerfBounds::from_parent(&[0.5, 0.5], &[-0.05, -0.05], &[0.05, 0.05], &g);
        assert!(bounds.lower[0] >= 0.44 && bounds.lower[0] <= 0.46);
        assert!(bounds.upper[0] <= 0.56);
        // A very strong existing vector dominates anything in these bounds.
        assert!(bounds.epsilon_dominated_by(&[0.1, 0.1], 0.1));
        // A weak vector does not.
        assert!(!bounds.epsilon_dominated_by(&[0.9, 0.9], 0.1));
    }

    #[test]
    fn empty_bounds_are_never_dominated() {
        let b = PerfBounds {
            lower: vec![],
            upper: vec![],
        };
        assert!(!b.epsilon_dominated_by(&[], 0.1));
    }
}
