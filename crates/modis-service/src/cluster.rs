//! Cluster topology: which shard owns which cache namespace.
//!
//! A MODis cluster partitions **cache namespaces** — not individual states
//! — across shard daemons: a namespace's evaluations are only useful
//! together (a search over substrate *S* revisits *S*'s states), so the
//! namespace is the unit of placement, shipping and rebalancing.
//!
//! Placement is **rendezvous (highest-random-weight) hashing** over the
//! stable FNV primitives in [`modis_core::codec`]: every `(shard name,
//! namespace key)` pair gets a score, the highest score owns the
//! namespace. Under K-way replication the K highest scores own it — the
//! first is the **primary**, the rest are **replicas**, and the same
//! ranking doubles as the failover order. Rendezvous hashing gives the
//! property the rebalancing machinery leans on: when a shard joins, the
//! only namespaces that move are those the *new* shard now owns (at any
//! rank); when a shard leaves, the only ones that move are those the
//! *leaving* shard owned. No unrelated namespace ever changes hands, so a
//! topology change ships exactly the affected namespaces' snapshots and
//! nothing else (asserted by a property test in
//! `tests/integration_cluster.rs`).
//!
//! The hash is FNV-1a — deliberately not std's `DefaultHasher` — for the
//! same reason the snapshot codec pins it: ownership decisions recorded in
//! shipped files and made independently by routers on different machines
//! must agree across processes and toolchains.

use std::collections::BTreeMap;

use modis_core::codec::{fnv1a, FNV_OFFSET_BASIS};
use modis_engine::SharedEvalCache;

use crate::error::ServiceError;

/// Validates a token that will travel on the whitespace-delimited wire
/// protocol (shard name, scenario name, namespace):
/// non-empty, no whitespace, no control characters. The single source of
/// truth for every entry point that admits names into a topology.
pub(crate) fn validate_token(token: &str, what: &str) -> Result<(), String> {
    if token.is_empty() || token.chars().any(|c| c.is_whitespace() || c.is_control()) {
        Err(format!("{what} {token:?} is not a single printable token"))
    } else {
        Ok(())
    }
}

/// The rendezvous score of `(shard, namespace key)`: FNV-1a over the shard
/// name, a separator byte (so `("ab", …)` and `("a", "b…")` cannot
/// collide), then the key's little-endian bytes.
fn rendezvous_score(shard: &str, key: u64) -> u64 {
    let h = fnv1a(FNV_OFFSET_BASIS, shard.as_bytes());
    let h = fnv1a(h, &[0xfe]);
    fnv1a(h, &key.to_le_bytes())
}

/// The cluster's shard set and the namespace → shard ownership function.
///
/// Cheap to clone and compare; the router keeps the live copy and derives
/// candidate topologies (for join/leave planning) as modified clones.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardMap {
    /// Shard names, sorted and unique (order does not affect ownership —
    /// rendezvous scores do — but a canonical order keeps listings and
    /// comparisons deterministic).
    shards: Vec<String>,
}

impl ShardMap {
    /// An empty topology.
    pub fn new() -> Self {
        ShardMap::default()
    }

    /// A topology over the given shard names (deduplicated).
    pub fn from_names<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut map = ShardMap::new();
        for name in names {
            map.add(name.into());
        }
        map
    }

    /// Adds a shard; returns whether it was new.
    pub fn add(&mut self, name: String) -> bool {
        match self.shards.binary_search(&name) {
            Ok(_) => false,
            Err(pos) => {
                self.shards.insert(pos, name);
                true
            }
        }
    }

    /// Removes a shard; returns whether it was present.
    pub fn remove(&mut self, name: &str) -> bool {
        match self.shards.binary_search_by(|s| s.as_str().cmp(name)) {
            Ok(pos) => {
                self.shards.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// The shard names, sorted.
    pub fn shards(&self) -> &[String] {
        &self.shards
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the topology is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard owning the hashed namespace `key`
    /// ([`SharedEvalCache::namespace_key`]), or `None` on an empty
    /// topology. Ties on the score (vanishingly rare) break by name, so
    /// ownership is a pure function of the shard set.
    pub fn owner_of(&self, key: u64) -> Option<&str> {
        self.shards
            .iter()
            .max_by_key(|shard| (rendezvous_score(shard, key), *shard))
            .map(String::as_str)
    }

    /// Convenience: the owner of a namespace given by name.
    pub fn owner_of_namespace(&self, namespace: &str) -> Option<&str> {
        self.owner_of(SharedEvalCache::namespace_key(namespace))
    }

    /// The `min(k, len)` shards owning the hashed namespace `key` under
    /// K-way replication, ranked: index 0 is the primary (identical to
    /// [`ShardMap::owner_of`]), the rest are replicas in failover order.
    /// Because the ranking is per-shard scores sorted descending, the K
    /// owners are always `min(k, len)` *distinct* shards, and a topology
    /// change perturbs each rank minimally (the rendezvous property holds
    /// rank by rank).
    pub fn owners_of(&self, key: u64, k: usize) -> Vec<&str> {
        let mut ranked: Vec<&str> = self.shards.iter().map(String::as_str).collect();
        ranked.sort_unstable_by(|a, b| {
            (rendezvous_score(b, key), *b).cmp(&(rendezvous_score(a, key), *a))
        });
        ranked.truncate(k);
        ranked
    }

    /// Convenience: the ranked owners of a namespace given by name.
    pub(crate) fn owners_of_namespace(&self, namespace: &str, k: usize) -> Vec<&str> {
        self.owners_of(SharedEvalCache::namespace_key(namespace), k)
    }

    /// The replica-aware rebalancing plan for a topology change under
    /// K-way replication: for each key whose owner *set* changed, the
    /// shards that must newly receive the namespace (`gained`) and the
    /// shards that stop owning it (`lost`), plus a surviving source to
    /// ship from. Shards that own the key in both topologies never appear
    /// in either list — the plan is minimal by construction.
    pub fn reassigned_replicas(
        &self,
        other: &ShardMap,
        keys: impl IntoIterator<Item = u64>,
        k: usize,
    ) -> Vec<ReplicaMove> {
        keys.into_iter()
            .filter_map(|key| {
                let before = self.owners_of(key, k);
                let after = other.owners_of(key, k);
                let gained: Vec<String> = after
                    .iter()
                    .filter(|s| !before.contains(s))
                    .map(|s| s.to_string())
                    .collect();
                let lost: Vec<String> = before
                    .iter()
                    .filter(|s| !after.contains(s))
                    .map(|s| s.to_string())
                    .collect();
                if gained.is_empty() && lost.is_empty() {
                    return None;
                }
                // Ship from the highest-ranked owner that survives the
                // change (it is as warm as any), falling back to the old
                // primary when the whole owner set turns over.
                let source = before
                    .iter()
                    .find(|s| after.contains(s))
                    .or_else(|| before.first())
                    .map(|s| s.to_string());
                Some(ReplicaMove {
                    key,
                    source,
                    gained,
                    lost,
                })
            })
            .collect()
    }
}

/// One entry of a replica-aware rebalancing plan
/// ([`ShardMap::reassigned_replicas`]): which shards gain and lose a
/// namespace when the topology changes, and which surviving owner the
/// shipment should come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaMove {
    /// The hashed namespace key ([`SharedEvalCache::namespace_key`]).
    pub key: u64,
    /// A shard that owned the key before and (preferably) still does —
    /// the warm source to ship from. `None` only on an empty old topology.
    pub source: Option<String>,
    /// Shards that own the key after but not before: they need the
    /// namespace shipped in.
    pub gained: Vec<String>,
    /// Shards that owned the key before but no longer do.
    pub lost: Vec<String>,
}

/// The routing table a cluster router is built over: scenario name →
/// namespace. Substrates are live objects that never cross the wire, so
/// every shard registers the full scenario set in-process and the router
/// only needs this name mapping to place requests.
#[derive(Debug, Clone, Default)]
pub struct ClusterSpec {
    /// scenario name → namespace, sorted by name.
    scenarios: BTreeMap<String, String>,
}

impl ClusterSpec {
    /// Builds a spec from `(scenario name, namespace)` pairs. Names and
    /// namespaces must be non-empty single tokens (the wire protocol is
    /// whitespace-delimited), and a scenario name may appear only once.
    pub fn new<I, N, M>(pairs: I) -> Result<Self, ServiceError>
    where
        I: IntoIterator<Item = (N, M)>,
        N: Into<String>,
        M: Into<String>,
    {
        let mut scenarios = BTreeMap::new();
        for (name, namespace) in pairs {
            let (name, namespace) = (name.into(), namespace.into());
            for (token, what) in [(&name, "scenario"), (&namespace, "namespace")] {
                validate_token(token, what).map_err(ServiceError::InvalidClusterSpec)?;
            }
            if scenarios.insert(name.clone(), namespace).is_some() {
                return Err(ServiceError::InvalidClusterSpec(format!(
                    "scenario {name:?} listed twice"
                )));
            }
        }
        Ok(ClusterSpec { scenarios })
    }

    /// The namespace of a scenario, if the spec routes it.
    pub(crate) fn namespace_of(&self, scenario: &str) -> Option<&str> {
        self.scenarios.get(scenario).map(String::as_str)
    }

    /// All scenario names, sorted.
    pub fn scenario_names(&self) -> impl Iterator<Item = &str> {
        self.scenarios.keys().map(String::as_str)
    }

    /// All distinct namespaces, sorted.
    pub fn namespaces(&self) -> Vec<&str> {
        let mut namespaces: Vec<&str> = self.scenarios.values().map(String::as_str).collect();
        namespaces.sort_unstable();
        namespaces.dedup();
        namespaces
    }

    /// Number of routable scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the spec is empty.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_is_stable_and_total() {
        let map = ShardMap::from_names(["alpha", "beta", "gamma"]);
        assert_eq!(map.len(), 3);
        for key in 0..200u64 {
            let owner = map.owner_of(key).unwrap();
            assert!(map.shards().iter().any(|s| s == owner));
            // Deterministic: same topology, same owner, every time.
            assert_eq!(map.owner_of(key), Some(owner));
        }
        assert!(ShardMap::new().owner_of(7).is_none());
    }

    #[test]
    fn join_moves_only_namespaces_the_new_shard_owns() {
        let before = ShardMap::from_names(["s1", "s2"]);
        let mut after = before.clone();
        assert!(after.add("s3".into()));
        assert!(!after.add("s3".into()), "duplicate add is a no-op");
        let keys: Vec<u64> = (0..500u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let moved = before.reassigned_replicas(&after, keys.iter().copied(), 1);
        assert!(!moved.is_empty(), "some namespace lands on the new shard");
        for mv in moved {
            assert_eq!(
                mv.gained,
                ["s3"],
                "key {:#x} moved to a shard that did not change",
                mv.key
            );
        }
    }

    #[test]
    fn leave_moves_only_the_leaving_shards_namespaces() {
        let before = ShardMap::from_names(["s1", "s2", "s3"]);
        let mut after = before.clone();
        assert!(after.remove("s2"));
        assert!(!after.remove("s2"));
        let keys: Vec<u64> = (0..500u64)
            .map(|i| i.wrapping_mul(0x517c_c1b7_2722_0a95))
            .collect();
        for mv in before.reassigned_replicas(&after, keys.iter().copied(), 1) {
            assert_eq!(
                mv.lost,
                ["s2"],
                "key {:#x} moved off a surviving shard",
                mv.key
            );
        }
    }

    #[test]
    fn ownership_spreads_across_shards() {
        let map = ShardMap::from_names(["a", "b", "c", "d"]);
        let mut counts = std::collections::HashMap::new();
        for i in 0..400u64 {
            let key = SharedEvalCache::namespace_key(&format!("pool-{i}"));
            *counts
                .entry(map.owner_of(key).unwrap().to_string())
                .or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 4, "every shard owns something: {counts:?}");
        for (shard, count) in &counts {
            assert!(
                *count > 40,
                "shard {shard} owns a degenerate share: {counts:?}"
            );
        }
    }

    #[test]
    fn top_k_owners_are_distinct_ranked_and_led_by_the_primary() {
        let map = ShardMap::from_names(["a", "b", "c", "d"]);
        for key in 0..300u64 {
            for k in 1..=6 {
                let owners = map.owners_of(key, k);
                assert_eq!(owners.len(), k.min(4), "min(k, shards) distinct owners");
                let mut dedup = owners.clone();
                dedup.sort_unstable();
                dedup.dedup();
                assert_eq!(dedup.len(), owners.len(), "owners are distinct");
                assert_eq!(owners.first().copied(), map.owner_of(key));
                // Prefixes agree: rank r is a pure function of the shard
                // set, independent of how many ranks were asked for.
                if k > 1 {
                    let prefix = (k - 1).min(owners.len());
                    assert_eq!(map.owners_of(key, k - 1), owners[..prefix].to_vec());
                }
            }
        }
        assert!(ShardMap::new().owners_of(7, 2).is_empty());
    }

    #[test]
    fn replica_plan_is_minimal_on_join_and_leave() {
        let before = ShardMap::from_names(["s1", "s2", "s3"]);
        let mut joined = before.clone();
        joined.add("s4".into());
        let keys: Vec<u64> = (0..400u64)
            .map(|i| i.wrapping_mul(0x2545_f491_4f6c_dd1d))
            .collect();
        for mv in before.reassigned_replicas(&joined, keys.iter().copied(), 2) {
            assert_eq!(mv.gained, vec!["s4".to_string()], "only the joiner gains");
            assert!(mv.lost.len() <= 1, "at most the displaced rank leaves");
            let src = mv.source.expect("warm source");
            assert_ne!(src, "s4", "source survives from the old owner set");
        }
        let mut left = before.clone();
        left.remove("s2");
        for mv in before.reassigned_replicas(&left, keys.iter().copied(), 2) {
            assert_eq!(mv.lost, vec!["s2".to_string()], "only the leaver loses");
            assert!(mv.gained.len() <= 1);
            assert_ne!(mv.source.as_deref(), Some("s2"));
        }
    }

    #[test]
    fn spec_validates_tokens_and_uniqueness() {
        let spec = ClusterSpec::new([("t3/apx", "t3-pool"), ("t3/bi", "t3-pool"), ("m/apx", "m")])
            .unwrap();
        assert_eq!(spec.namespace_of("t3/apx"), Some("t3-pool"));
        assert_eq!(spec.namespace_of("ghost"), None);
        assert_eq!(spec.namespaces(), vec!["m", "t3-pool"]);
        assert_eq!(spec.scenario_names().count(), 3);
        assert!(ClusterSpec::new([("bad name", "ns")]).is_err());
        assert!(ClusterSpec::new([("name", "bad ns")]).is_err());
        assert!(ClusterSpec::new([("", "ns")]).is_err());
        assert!(ClusterSpec::new([("dup", "a"), ("dup", "b")]).is_err());
    }
}
