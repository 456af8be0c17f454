//! The named scenario registry: substrates and task configurations are
//! registered once, and runs are submitted by name.
//!
//! Registration is where namespace safety is enforced: every scenario
//! carries a substrate/task fingerprint (`Substrate::fingerprint`), and two
//! scenarios may share a
//! cache namespace only when their fingerprints agree. The engine re-checks
//! the same invariant at run time (defence in depth); the registry rejects
//! the conflict *early*, with a recoverable error instead of a panic.

use std::collections::HashMap;

use modis_engine::Scenario;

use crate::error::ServiceError;

/// Name → scenario map with namespace-fingerprint guarding.
#[derive(Default)]
pub struct ScenarioRegistry {
    scenarios: HashMap<String, Scenario>,
    /// namespace → (fingerprint, first registrant) for conflict reporting.
    namespaces: HashMap<String, (u64, String)>,
}

impl ScenarioRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ScenarioRegistry::default()
    }

    /// Registers a scenario under its name. Rejects duplicate names and
    /// namespace re-use across incompatible substrates/tasks.
    pub fn register(&mut self, scenario: Scenario) -> Result<(), ServiceError> {
        if self.scenarios.contains_key(&scenario.name) {
            return Err(ServiceError::DuplicateScenario(scenario.name.clone()));
        }
        let fingerprint = scenario.substrate.fingerprint();
        let namespace = scenario.namespace().to_string();
        match self.namespaces.get(&namespace) {
            Some((seen, registered_by)) if *seen != fingerprint => {
                return Err(ServiceError::NamespaceConflict {
                    namespace,
                    registered_by: registered_by.clone(),
                });
            }
            Some(_) => {}
            None => {
                self.namespaces
                    .insert(namespace, (fingerprint, scenario.name.clone()));
            }
        }
        self.scenarios.insert(scenario.name.clone(), scenario);
        Ok(())
    }

    /// Looks up a registered scenario by name.
    pub fn get(&self, name: &str) -> Option<&Scenario> {
        self.scenarios.get(name)
    }

    /// Looks up a scenario or returns [`ServiceError::UnknownScenario`].
    pub fn require(&self, name: &str) -> Result<&Scenario, ServiceError> {
        self.get(name)
            .ok_or_else(|| ServiceError::UnknownScenario(name.to_string()))
    }

    /// Registered scenario names, sorted for stable listings.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.scenarios.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use modis_core::config::ModisConfig;
    use modis_core::substrate::mock::MockSubstrate;
    use modis_core::substrate::Substrate;
    use modis_engine::Algorithm;

    fn scenario(name: &str, units: usize, namespace: &str) -> Scenario {
        let substrate: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(units));
        Scenario::new(name, substrate, Algorithm::Apx, ModisConfig::default())
            .with_cache_namespace(namespace)
    }

    #[test]
    fn registers_and_lists_by_name() {
        let mut reg = ScenarioRegistry::new();
        reg.register(scenario("b", 6, "pool-b")).unwrap();
        reg.register(scenario("a", 6, "pool-a")).unwrap();
        assert_eq!(reg.names(), vec!["a", "b"]);
        assert!(reg.get("a").is_some());
        assert!(matches!(
            reg.require("missing"),
            Err(ServiceError::UnknownScenario(_))
        ));
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut reg = ScenarioRegistry::new();
        reg.register(scenario("same", 6, "x")).unwrap();
        assert!(matches!(
            reg.register(scenario("same", 6, "y")),
            Err(ServiceError::DuplicateScenario(_))
        ));
    }

    #[test]
    fn shared_namespace_requires_matching_fingerprint() {
        let mut reg = ScenarioRegistry::new();
        reg.register(scenario("first", 6, "pool")).unwrap();
        // Same structure: allowed.
        reg.register(scenario("second", 6, "pool")).unwrap();
        // Different unit universe under the same namespace: rejected.
        let err = reg.register(scenario("third", 8, "pool")).unwrap_err();
        match err {
            ServiceError::NamespaceConflict {
                namespace,
                registered_by,
            } => {
                assert_eq!(namespace, "pool");
                assert_eq!(registered_by, "first");
            }
            other => panic!("unexpected error: {other}"),
        }
    }
}
