//! Shared workload for the cluster layer: the in-process harness that the
//! integration tests and the `cluster_demo` example drive, so they assert
//! against the same thing.
//!
//! A "cluster" here is N shard daemons — each a full [`Service`] behind
//! its own reactor [`Daemon`], with its **own engine and its own shared
//! evaluation cache** — fronted by one [`Router`]. Every shard
//! registers the full scenario set over *fresh* substrate instances
//! (substrates are live objects that never cross the wire; distinct
//! instances share no memo state), and the router's rendezvous map decides
//! which shard actually executes which namespace.
//!
//! The workload is `namespaces` independent synthetic tabular pools
//! (distinct seeds ⇒ distinct datasets and fingerprints), two scenarios
//! each (`ws<i>/apx`, `ws<i>/bi`) sharing the pool's cache namespace
//! `ws<i>-pool`. Every shard's engine cache and every substrate's memo are
//! unbounded: the workload checks placement and answers, not eviction.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use modis_core::config::ModisConfig;
use modis_core::estimator::EstimatorMode;
use modis_core::substrate::Substrate;
use modis_core::table_substrate::TableSpaceConfig;
use modis_engine::{Algorithm, EngineConfig, Scenario};
use modis_service::{ClusterSpec, Daemon, Router, Service, ServiceConfig};

use crate::workloads::materialize_substrate_with;

/// Tuning of one cluster workload instance.
#[derive(Debug, Clone)]
pub struct ClusterWorkload {
    /// Independent namespaces (pools), two scenarios each.
    pub namespaces: usize,
    /// Rows per synthetic pool.
    pub rows: usize,
    /// Search state budget per scenario.
    pub max_states: usize,
}

impl ClusterWorkload {
    /// Scenario names in submission order.
    pub fn scenario_names(&self) -> Vec<String> {
        (0..self.namespaces)
            .flat_map(|i| [format!("ws{i}/apx"), format!("ws{i}/bi")])
            .collect()
    }

    /// The namespace of pool `i`.
    pub fn namespace(&self, i: usize) -> String {
        format!("ws{i}-pool")
    }

    /// The router spec: scenario name → namespace.
    pub fn spec(&self) -> ClusterSpec {
        ClusterSpec::new((0..self.namespaces).flat_map(|i| {
            [
                (format!("ws{i}/apx"), self.namespace(i)),
                (format!("ws{i}/bi"), self.namespace(i)),
            ]
        }))
        .expect("workload names are single tokens")
    }

    /// The search configuration every scenario uses.
    pub fn config(&self) -> ModisConfig {
        ModisConfig::default()
            .with_epsilon(0.15)
            .with_max_states(self.max_states)
            .with_max_level(3)
            .with_estimator(EstimatorMode::Oracle)
    }

    /// Registers the full scenario set on a service over fresh substrate
    /// instances (deterministic in the pool index).
    pub fn register_on(&self, service: &Service) {
        // 0: each substrate remembers every state it valuated.
        let space = TableSpaceConfig {
            eval_cache_capacity: 0,
            ..TableSpaceConfig::default()
        };
        let config = self.config();
        for i in 0..self.namespaces {
            let substrate: Arc<dyn Substrate> = Arc::new(materialize_substrate_with(
                self.rows,
                11 + 7 * i as u64,
                &space,
            ));
            for (suffix, algorithm) in [("apx", Algorithm::Apx), ("bi", Algorithm::Bi)] {
                service
                    .register(
                        Scenario::new(
                            format!("ws{i}/{suffix}"),
                            substrate.clone(),
                            algorithm,
                            config.clone(),
                        )
                        .with_cache_namespace(self.namespace(i)),
                    )
                    .expect("register cluster scenario");
            }
        }
    }

    /// The per-shard service configuration: one unbounded engine-cache
    /// shard (`cache_capacity` 0), so no shard ever evicts.
    pub fn service_config(&self) -> ServiceConfig {
        ServiceConfig::default().with_engine(EngineConfig {
            cache_capacity: 0,
            cache_shards: 1,
            ..EngineConfig::default()
        })
    }

    /// Builds one shard: a full service with the whole scenario set
    /// registered, behind its own reactor daemon.
    pub fn spawn_shard(&self, name: &str) -> ClusterShard {
        let service = Arc::new(Service::new(self.service_config()));
        self.register_on(&service);
        let daemon = Daemon::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind shard daemon");
        ClusterShard {
            name: name.to_string(),
            service,
            daemon,
        }
    }

    /// Builds an `n`-shard cluster (shards `shard0` … `shardN-1`) behind a
    /// router.
    pub fn build_cluster(&self, n: usize) -> ClusterHarness {
        assert!(n > 0, "a cluster needs at least one shard");
        let shards: Vec<ClusterShard> = (0..n)
            .map(|i| self.spawn_shard(&format!("shard{i}")))
            .collect();
        let router = Router::bind(
            self.spec(),
            shards
                .iter()
                .map(|s| (s.name.clone(), s.daemon.addr()))
                .collect(),
            "127.0.0.1:0",
        )
        .expect("bind router");
        ClusterHarness { shards, router }
    }
}

/// Scenario names of the T3 cluster suite over the given seeds, in
/// submission order: `t3s<seed>/apx`, `t3s<seed>/div` per seed.
pub fn t3_cluster_scenarios(seeds: &[u64]) -> Vec<String> {
    seeds
        .iter()
        .flat_map(|s| [format!("t3s{s}/apx"), format!("t3s{s}/div")])
        .collect()
}

/// The cache namespace of the T3 pool seeded with `seed`.
pub fn t3_cluster_namespace(seed: u64) -> String {
    format!("t3s{seed}-pool")
}

/// Router spec of the T3 cluster suite.
pub fn t3_cluster_spec(seeds: &[u64]) -> ClusterSpec {
    ClusterSpec::new(seeds.iter().flat_map(|&s| {
        [
            (format!("t3s{s}/apx"), t3_cluster_namespace(s)),
            (format!("t3s{s}/div"), t3_cluster_namespace(s)),
        ]
    }))
    .expect("t3 names are single tokens")
}

/// Registers the T3 cluster suite on a service: per seed, one fresh
/// `task_t3(seed)` substrate with an ApxMODis and a DivMODis scenario
/// sharing the pool's namespace. Used identically by the in-process
/// reference runs and the `modis_shard` child-process daemons, so a
/// cluster and a single process search exactly the same spaces.
pub fn register_t3_cluster(service: &Service, seeds: &[u64], max_states: usize) {
    let config = ModisConfig::default()
        .with_epsilon(0.15)
        .with_max_states(max_states)
        .with_max_level(3)
        .with_estimator(EstimatorMode::Oracle);
    for &seed in seeds {
        let substrate: Arc<dyn Substrate> = Arc::new(crate::workloads::task_t3(seed).substrate());
        for (suffix, algorithm) in [("apx", Algorithm::Apx), ("div", Algorithm::Div)] {
            let scenario_config = if suffix == "div" {
                config.clone().with_diversification(4, 0.5)
            } else {
                config.clone()
            };
            service
                .register(
                    Scenario::new(
                        format!("t3s{seed}/{suffix}"),
                        substrate.clone(),
                        algorithm,
                        scenario_config,
                    )
                    .with_cache_namespace(t3_cluster_namespace(seed)),
                )
                .expect("register t3 cluster scenario");
        }
    }
}

/// One in-process shard: its service (own engine, own cache) and daemon.
pub struct ClusterShard {
    /// Shard name as the router knows it.
    pub name: String,
    /// The shard's service.
    pub service: Arc<Service>,
    /// The shard's reactor front-end.
    pub daemon: Daemon,
}

/// An in-process cluster: the shard set and the router fronting it.
pub struct ClusterHarness {
    /// The shards, in spawn order.
    pub shards: Vec<ClusterShard>,
    /// The router clients connect to.
    pub router: Router,
}

impl ClusterHarness {
    /// Stops the router and every shard daemon.
    pub fn stop(self) {
        self.router.stop();
        for shard in self.shards {
            shard.daemon.stop();
        }
    }
}

/// One scenario's outcome as driven over the wire.
#[derive(Debug, Clone)]
pub struct DrivenOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Ticket the front-end issued.
    pub ticket: u64,
    /// The `DONE …` payload (after the ticket id) streamed by `WAIT`.
    pub done: String,
    /// The byte-exact `RESULT` payload (after the ticket id).
    pub result: String,
}

/// Drives one suite wave against any front-end (router or single daemon)
/// over a single pipelined connection: `SUBMIT` every scenario + `RUN` in
/// one burst, `WAIT` for all tickets, then fetch every `RESULT`. Returns
/// outcomes in submission order.
pub fn drive_suite(addr: SocketAddr, scenarios: &[String]) -> Vec<DrivenOutcome> {
    let stream = TcpStream::connect(addr).expect("connect front-end");
    stream
        .set_read_timeout(Some(Duration::from_secs(300)))
        .expect("read timeout");
    // Without this, a request split across several small `write` calls
    // (e.g. `writeln!` fragments) stalls ~40ms behind the server's
    // delayed ACK (Nagle). Requests are also built as single strings and
    // sent with one `write_all` each.
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut recv = move || -> String {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply line");
        assert!(reply.ends_with('\n'), "truncated reply {reply:?}");
        reply.trim_end().to_string()
    };

    // One pipelined burst: all submissions plus the drain.
    let mut burst = String::new();
    for name in scenarios {
        burst.push_str(&format!("SUBMIT {name}\n"));
    }
    burst.push_str("RUN\n");
    writer.write_all(burst.as_bytes()).expect("send burst");

    let tickets: Vec<u64> = scenarios
        .iter()
        .map(|name| {
            let reply = recv();
            reply
                .strip_prefix("TICKET ")
                .unwrap_or_else(|| panic!("SUBMIT {name}: {reply}"))
                .parse()
                .expect("numeric ticket")
        })
        .collect();
    let run = recv();
    assert!(run.starts_with("OK "), "RUN: {run}");

    let ids: Vec<String> = tickets.iter().map(u64::to_string).collect();
    writer
        .write_all(format!("WAIT {}\n", ids.join(" ")).as_bytes())
        .expect("send WAIT");
    let mut done: std::collections::HashMap<u64, String> = std::collections::HashMap::new();
    for _ in &tickets {
        let reply = recv();
        let rest = reply
            .strip_prefix("DONE ")
            .unwrap_or_else(|| panic!("WAIT line: {reply}"));
        let (id, payload) = rest.split_once(' ').expect("DONE payload");
        done.insert(id.parse().expect("numeric DONE id"), payload.to_string());
    }

    // All RESULT fetches pipelined in one burst (responses in order).
    let mut result_burst = String::new();
    for ticket in &tickets {
        result_burst.push_str(&format!("RESULT {ticket}\n"));
    }
    writer
        .write_all(result_burst.as_bytes())
        .expect("send RESULTs");
    let mut outcomes = Vec::new();
    for (name, &ticket) in scenarios.iter().zip(&tickets) {
        let reply = recv();
        let rest = reply
            .strip_prefix("RESULT ")
            .unwrap_or_else(|| panic!("RESULT {ticket}: {reply}"));
        let (id, payload) = rest.split_once(' ').expect("RESULT payload");
        assert_eq!(id.parse::<u64>().expect("numeric id"), ticket);
        outcomes.push(DrivenOutcome {
            scenario: name.clone(),
            ticket,
            done: done.remove(&ticket).expect("every ticket completed"),
            result: payload.to_string(),
        });
    }
    let _ = writer.write_all(b"QUIT\n");
    outcomes
}

/// Asks any front-end for its `STATS` line.
pub fn fetch_stats(addr: SocketAddr) -> String {
    let stream = TcpStream::connect(addr).expect("connect front-end");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    writer.write_all(b"STATS\n").expect("send STATS");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("STATS reply");
    let _ = writer.write_all(b"QUIT\n");
    reply.trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tiny_cluster_answers_the_suite_through_the_router() {
        let workload = ClusterWorkload {
            namespaces: 2,
            rows: 120,
            max_states: 6,
        };
        let cluster = workload.build_cluster(2);
        let names = workload.scenario_names();
        let outcomes = drive_suite(cluster.router.addr(), &names);
        assert_eq!(outcomes.len(), 4);
        for outcome in &outcomes {
            assert!(outcome.done.starts_with("entries="), "{:?}", outcome.done);
            assert!(
                outcome.result.starts_with("entries="),
                "{:?}",
                outcome.result
            );
        }
        let stats = fetch_stats(cluster.router.addr());
        assert!(stats.contains("cluster_shards=2"), "{stats}");
        // Both shards own at least one namespace... not guaranteed for 2
        // namespaces; but the work landed somewhere and every scenario ran.
        cluster.stop();
    }
}
