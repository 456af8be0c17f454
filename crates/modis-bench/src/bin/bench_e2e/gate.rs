//! The correctness gate: reference skylines and failure accounting.
//!
//! Before any timing, a fixture runs every scenario of the workload once,
//! in-process, on a fresh service with an unbounded evaluation cache, and
//! keeps the byte-exact `RESULT` payloads ([`modis_service::result_line`])
//! as references. Every reference must be a skyline — at least one entry,
//! none dominated by another — and every `RESULT` line the timed workloads
//! read — cold, warm, under eviction, through the router — must equal its
//! reference byte for byte.

use std::collections::BTreeMap;
use std::hash::Hasher;
use std::sync::Arc;

use modis_core::codec::StableHasher;
use modis_core::dominance::dominates;
use modis_engine::{EngineConfig, Scenario};
use modis_service::{result_line, Service, ServiceConfig};

/// Reference payloads plus the run's pass/fail ledger.
#[derive(Debug, Default)]
pub struct Gate {
    /// Scenario name → the `RESULT` payload after the ticket id.
    references: BTreeMap<String, String>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that errored, timed out or returned a wrong skyline.
    pub failed: u64,
    /// Whether every reference is a skyline: at least one entry, none
    /// dominated by another.
    pub references_valid: bool,
}

/// What the fixture hands to the workloads.
pub struct Fixture {
    pub gate: Gate,
    /// The fixture service's evaluation cache as shipment bytes
    /// (`Service::shipment_bytes` over every namespace): what the warm
    /// workloads restore.
    pub snapshot: Vec<u8>,
    /// Milliseconds `shipment_bytes` took.
    pub snapshot_encode_ms: f64,
}

/// How many of the performance vectors another one dominates (all measures
/// minimised, as `modis_core` normalises them). A skyline has none.
fn dominated_entries(perfs: &[&[f64]]) -> usize {
    perfs
        .iter()
        .filter(|a| perfs.iter().any(|b| dominates(b, a)))
        .count()
}

impl Gate {
    /// Runs every scenario once on a fresh unbounded service and records
    /// the references. Scenarios sharing a namespace share evaluations, as
    /// they will on the wire.
    pub fn prime(scenarios: &[Scenario]) -> Fixture {
        let service = Arc::new(Service::new(ServiceConfig::default().with_engine(
            EngineConfig {
                cache_capacity: 0,
                ..EngineConfig::default()
            },
        )));
        let mut gate = Gate {
            references_valid: true,
            ..Gate::default()
        };
        let mut namespaces: Vec<String> = Vec::new();
        for scenario in scenarios {
            service
                .register(scenario.clone())
                .expect("fixture scenarios have distinct names and consistent namespaces");
            if !namespaces.iter().any(|n| n == scenario.namespace()) {
                namespaces.push(scenario.namespace().to_string());
            }
            let outcome = service.engine().run_scenario(scenario);
            let entries = &outcome.result.entries;
            let perfs: Vec<&[f64]> = entries.iter().map(|e| e.perf.as_slice()).collect();
            let dominated = dominated_entries(&perfs);
            if entries.is_empty() || dominated > 0 {
                eprintln!(
                    "reference for {} is not a skyline: {} entries, {dominated} dominated",
                    scenario.name,
                    entries.len()
                );
                gate.references_valid = false;
            }
            let line = result_line(0, &outcome);
            let payload = line
                .strip_prefix("RESULT 0 ")
                .expect("result_line starts with the ticket it was given");
            gate.references
                .insert(scenario.name.clone(), payload.to_string());
        }
        let start = std::time::Instant::now();
        let snapshot = service.shipment_bytes(&namespaces);
        let snapshot_encode_ms = crate::stats::ms_since(start);
        Fixture {
            gate,
            snapshot,
            snapshot_encode_ms,
        }
    }

    /// Whether `reply` — one full line read off the wire in answer to
    /// `RESULT <ticket>` — is exactly the reference skyline of `scenario`.
    pub fn result_matches(&self, scenario: &str, ticket: u64, reply: &str) -> bool {
        let Some(reference) = self.references.get(scenario) else {
            return false;
        };
        reply
            .strip_prefix("RESULT ")
            .and_then(|rest| rest.split_once(' '))
            .is_some_and(|(id, payload)| id.parse() == Ok(ticket) && payload == reference)
    }

    /// Books one finished request: `ok` is whether every reply of the
    /// request arrived and matched.
    pub fn book(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The run's verdict: every request answered with its reference, and
    /// the references are skylines.
    pub fn correct(&self) -> bool {
        self.references_valid && self.failed == 0 && self.attempted > 0
    }

    /// Total bytes of the reference `RESULT` lines for the given scenarios
    /// (payload only), used for `service.result_bytes`.
    pub fn reference_len(&self, scenario: &str) -> usize {
        self.references.get(scenario).map_or(0, String::len)
    }

    /// A digest of all references in scenario-name order. Informational:
    /// two commits printing different digests return different skylines.
    pub fn digest(&self) -> String {
        let mut hasher = StableHasher::new();
        for (name, payload) in &self.references {
            hasher.write(name.as_bytes());
            hasher.write(b"\0");
            hasher.write(payload.as_bytes());
        }
        format!("{:016x}", hasher.finish())
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A gate holding one hand-written reference.
    pub fn gate_with(scenario: &str, payload: &str) -> Gate {
        Gate {
            references: BTreeMap::from([(scenario.to_string(), payload.to_string())]),
            references_valid: true,
            ..Gate::default()
        }
    }

    #[test]
    fn one_corrupted_byte_or_an_err_line_fails_the_run() {
        let payload = "entries=1 b=4:f;r=3fe0000000000000;p=3fe0000000000000;s=10x2;l=0";
        let mut gate = gate_with("t3/apx", payload);
        let good = format!("RESULT 7 {payload}");
        assert!(gate.result_matches("t3/apx", 7, &good));
        gate.book(true);
        assert!(gate.correct());
        assert_eq!((gate.attempted, gate.failed), (1, 0));

        // One flipped byte in the middle of a float's bit pattern.
        let corrupted = good.replacen("3fe0", "3fe1", 1);
        assert_eq!(corrupted.len(), good.len());
        let ok = gate.result_matches("t3/apx", 7, &corrupted);
        assert!(!ok);
        gate.book(ok);
        assert_eq!((gate.attempted, gate.failed), (2, 1));
        assert!(!gate.correct());

        // An error line where the skyline should be.
        let ok = gate.result_matches("t3/apx", 8, "ERR ticket 8 is not finished");
        gate.book(ok);
        assert_eq!((gate.attempted, gate.failed), (3, 2));

        // The right skyline under the wrong ticket, or for an unknown
        // scenario, is not a match either.
        assert!(!gate.result_matches("t3/apx", 9, &good));
        assert!(!gate.result_matches("t3/bi", 7, &good));
    }

    #[test]
    fn a_reference_with_a_dominated_entry_is_not_a_skyline() {
        let skyline: [&[f64]; 3] = [&[0.2, 0.8], &[0.5, 0.5], &[0.8, 0.2]];
        assert_eq!(dominated_entries(&skyline), 0);
        // (0.6, 0.6) is worse than (0.5, 0.5) on both measures.
        let not_one: [&[f64]; 3] = [&[0.2, 0.8], &[0.5, 0.5], &[0.6, 0.6]];
        assert_eq!(dominated_entries(&not_one), 1);
        // Equal vectors do not dominate each other.
        assert_eq!(dominated_entries(&[&[0.5, 0.5], &[0.5, 0.5]]), 0);
        let mut gate = gate_with("t3/apx", "entries=2");
        gate.book(true);
        assert!(gate.correct());
        gate.references_valid = false;
        assert!(!gate.correct(), "invalid references fail the run");
    }

    #[test]
    fn an_idle_run_is_not_a_correct_run() {
        assert!(!gate_with("a", "entries=0").correct());
    }

    #[test]
    fn the_digest_depends_on_every_reference_byte() {
        let digest = |payload| gate_with("t3/apx", payload).digest();
        assert_eq!(digest("entries=2"), digest("entries=2"));
        assert_ne!(digest("entries=2"), digest("entries=3"));
        assert_ne!(
            digest("entries=2"),
            gate_with("t3/bi", "entries=2").digest()
        );
    }
}
