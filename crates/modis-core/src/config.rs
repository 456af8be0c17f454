//! MODis algorithm configuration and result types.

use modis_data::StateBitmap;

use crate::estimator::{EstimatorMode, ValuationStats};

/// Configuration shared by ApxMODis, BiMODis, NOBiMODis and DivMODis.
#[derive(Debug, Clone)]
pub struct ModisConfig {
    /// ε of the ε-skyline approximation.
    pub epsilon: f64,
    /// Maximum number of valuated states `N`.
    pub max_states: usize,
    /// Maximum path length (search depth `maxl`).
    pub max_level: usize,
    /// Spearman threshold θ for the correlation graph (BiMODis pruning).
    pub theta: f64,
    /// Diversified skyline size `k` (DivMODis).
    pub k: usize,
    /// Content-vs-performance diversity trade-off α (DivMODis, Eq. 2).
    pub alpha: f64,
    /// Estimator mode (oracle or MO-GBM surrogate).
    pub estimator: EstimatorMode,
    /// Index of the decisive measure; `None` uses the last measure.
    pub decisive: Option<usize>,
}

impl Default for ModisConfig {
    fn default() -> Self {
        ModisConfig {
            epsilon: 0.1,
            max_states: 200,
            max_level: 6,
            theta: 0.8,
            k: 5,
            alpha: 0.5,
            estimator: EstimatorMode::default(),
            decisive: None,
        }
    }
}

impl ModisConfig {
    /// Builder-style ε setter.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon.max(1e-6);
        self
    }

    /// Builder-style state-budget setter.
    pub fn with_max_states(mut self, n: usize) -> Self {
        self.max_states = n.max(1);
        self
    }

    /// Builder-style depth setter.
    pub fn with_max_level(mut self, maxl: usize) -> Self {
        self.max_level = maxl;
        self
    }

    /// Builder-style estimator setter.
    pub fn with_estimator(mut self, mode: EstimatorMode) -> Self {
        self.estimator = mode;
        self
    }

    /// Builder-style diversification setter.
    pub fn with_diversification(mut self, k: usize, alpha: f64) -> Self {
        self.k = k.max(1);
        self.alpha = alpha.clamp(0.0, 1.0);
        self
    }
}

/// One member of a (diversified) ε-skyline set.
#[derive(Debug, Clone)]
pub struct SkylineEntry {
    /// State bitmap of the generated dataset.
    pub bitmap: StateBitmap,
    /// Normalised performance vector used during the search.
    pub perf: Vec<f64>,
    /// Raw metric values from the final oracle valuation.
    pub raw: Vec<f64>,
    /// Reported artefact size.
    pub size: (usize, usize),
    /// Search level at which the state was produced.
    pub level: usize,
}

/// Result of one MODis run.
#[derive(Debug, Clone, Default)]
pub struct SkylineResult {
    /// The ε-skyline entries.
    pub entries: Vec<SkylineEntry>,
    /// Number of states valuated during the search.
    pub states_valuated: usize,
    /// Wall-clock search time in seconds.
    pub elapsed_seconds: f64,
    /// Valuation counters (oracle vs surrogate vs cache).
    pub stats: ValuationStats,
}

impl SkylineResult {
    /// The run's *paid* valuation cost: oracle trainings plus surrogate
    /// predictions, excluding valuations answered free of charge by the
    /// record store or the shared cross-run cache. This is a `DONE` line's
    /// `cost=` — it measures how expensive the run was on this cache
    /// state, not how many states it touched.
    pub fn valuation_cost(&self) -> usize {
        self.stats.oracle_calls + self.stats.surrogate_calls
    }

    /// Every valuation the run requested, paid or answered from a cache
    /// (record-store hits and shared-cache hits included).
    pub fn total_valuations(&self) -> usize {
        self.stats.oracle_calls
            + self.stats.surrogate_calls
            + self.stats.cache_hits
            + self.stats.shared_hits
    }

    /// Number of skyline entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the skyline is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders_clamp_values() {
        let cfg = ModisConfig::default()
            .with_epsilon(0.0)
            .with_max_states(0)
            .with_diversification(0, 2.0);
        assert!(cfg.epsilon > 0.0);
        assert_eq!(cfg.max_states, 1);
        assert_eq!(cfg.k, 1);
        assert_eq!(cfg.alpha, 1.0);
    }
}
