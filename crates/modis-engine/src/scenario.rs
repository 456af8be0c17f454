//! Scenario types: a *scenario* names one `(substrate × algorithm ×
//! config)` job, the unit the engine runs and the service registers.

use std::sync::Arc;

use modis_core::algorithm::Algorithm;
use modis_core::config::{ModisConfig, SkylineResult};
use modis_core::substrate::{Substrate, SubstrateCacheStats};

/// One named unit of engine work: a search space, an algorithm and its
/// configuration.
#[derive(Clone)]
pub struct Scenario {
    /// Unique display name of the scenario.
    pub name: String,
    /// The search space (shared, thread-safe).
    pub substrate: Arc<dyn Substrate>,
    /// Which algorithm to run.
    pub algorithm: Algorithm,
    /// Search configuration.
    pub config: ModisConfig,
    /// Evaluation-cache namespace. Scenarios over the *same substrate and
    /// task* may share a namespace so states valuated by one are free for
    /// the others; defaults to the scenario name (no sharing).
    pub cache_namespace: Option<String>,
}

impl Scenario {
    /// Creates a scenario with the default (isolated) cache namespace.
    pub fn new(
        name: impl Into<String>,
        substrate: Arc<dyn Substrate>,
        algorithm: Algorithm,
        config: ModisConfig,
    ) -> Self {
        Scenario {
            name: name.into(),
            substrate,
            algorithm,
            config,
            cache_namespace: None,
        }
    }

    /// Builder-style cache-namespace setter; scenarios passing the same
    /// string share oracle evaluations.
    pub fn with_cache_namespace(mut self, namespace: impl Into<String>) -> Self {
        self.cache_namespace = Some(namespace.into());
        self
    }

    /// The effective cache namespace.
    pub fn namespace(&self) -> &str {
        self.cache_namespace.as_deref().unwrap_or(&self.name)
    }
}

/// The result of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name (as registered).
    pub name: String,
    /// Algorithm that produced the skyline.
    pub algorithm: Algorithm,
    /// The skyline result (entries, counters, elapsed time).
    pub result: SkylineResult,
    /// Wall-clock seconds spent on this scenario inside the engine.
    pub wall_seconds: f64,
    /// The substrate memo's counters right after the run — how much
    /// raw-metric state the scenario's search space is holding for reuse.
    pub substrate_cache: SubstrateCacheStats,
}

impl ScenarioOutcome {
    /// Oracle valuations this run answered from the shared cache.
    pub fn shared_hits(&self) -> usize {
        self.result.stats.shared_hits
    }

    /// The run's paid valuation cost (oracle trainings + surrogate
    /// predictions) — the signal cost-aware scheduling feeds on.
    pub fn valuation_cost(&self) -> usize {
        self.result.valuation_cost()
    }
}
