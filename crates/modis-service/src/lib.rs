//! # modis-service
//!
//! A persistent skyline-serving subsystem over the `modis-engine`
//! execution engine: where the engine runs one suite fast, the service
//! keeps that machinery warm *across* requests and *across* processes.
//!
//! ```text
//!   clients (in-process API, TCP line protocol)
//!        │ register(name, scenario)     │ submit(name) → Ticket
//!        ▼                              ▼
//!   ┌────────────┐   enqueue   ┌──────────────────┐
//!   │  scenario  │────────────▶│  cost-aware      │  namespace-grouped,
//!   │  registry  │             │  scheduler       │  cheapest-first order
//!   └────────────┘             └────────┬─────────┘
//!     fingerprint-guarded               │ drain (worker thread / RUN)
//!     namespaces                        ▼
//!                              ┌──────────────────┐     ┌──────────────┐
//!                              │ Engine + shared  │◀───▶│  snapshot    │
//!                              │ evaluation cache │     │  file (disk) │
//!                              └──────────────────┘     └──────────────┘
//! ```
//!
//! * [`registry`] — scenarios are registered once by name; cache
//!   namespaces are keyed by substrate/task fingerprint, so incompatible
//!   spaces can never share (and poison) evaluations.
//! * [`scheduler`] — queued runs are ordered so cache-warming runs execute
//!   before their dependants: namespace groups keep arrival fairness, and
//!   within a group the cheapest run (by an EWMA over observed paid
//!   valuation cost) goes first.
//! * [`snapshot`] — the shared evaluation cache persists to disk in a
//!   hand-rolled, versioned, checksummed binary format and warm-starts a
//!   fresh process: a restarted service answers repeated suites with
//!   cache hits from its very first run.
//! * [`protocol`] — the request grammar of the TCP line protocol
//!   (`SUBMIT` / `POLL` / `WAIT` / `RUN` / `STATS` / `SNAPSHOT` …): one
//!   parser from a request line to a typed verb, and the request framer,
//!   shared by the daemon and the cluster router; the formal spec lives in
//!   `docs/PROTOCOL.md`.
//! * [`net`] — what each verb does against a service, and the [`Daemon`]
//!   that serves it in tests and examples.
//! * [`poller`] — readiness discovery with zero dependencies: a thin safe
//!   wrapper over `epoll(7)` via direct syscalls, so a sweep touches only
//!   *ready* connections instead of attempting a syscall on every open
//!   one.
//! * [`reactor`] — the non-blocking front-end behind [`Daemon`]: N
//!   reactor threads (default `min(4, cores)`) share one accept socket,
//!   each driving its pinned connections through a [`poller::Poller`]
//!   (`std::net` sockets in non-blocking mode, O(ready) sweeps), requests
//!   pipeline freely with strictly ordered responses, `RUN` drains and
//!   `SNAPSHOT` writes execute on a companion executor thread, and
//!   per-reactor wakeup socket pairs connect job completions and shutdown
//!   to reactors parked in `epoll_wait`.
//! * [`cluster`] + [`router`] — the horizontal scaling layer: cache
//!   namespaces are partitioned across shard daemons by rendezvous
//!   hashing ([`cluster::ShardMap`]), and a [`Router`] fronts the shard
//!   set behind the same wire protocol (pipelining preserved end-to-end,
//!   cluster-wide tickets, aggregated `STATS`). Topology changes ship
//!   exactly the namespaces that move as wire shipments (`EXPORT` /
//!   `SHIP`), so a grown cluster answers its first run from the shipped
//!   warm cache. With K-way replication (`RouterConfig::replication` ≥ 2)
//!   the router heartbeats every shard, pushes namespace deltas to the
//!   K−1 replica owners after each completed `RUN`, and — when a primary
//!   dies — fails over to the freshest warm replica with zero operator
//!   action: tickets are re-homed, responses flagged `degraded=`, and
//!   per-shard circuit breakers keep dead shards from stalling traffic.
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//! use modis_core::prelude::*;
//! use modis_core::substrate::mock::MockSubstrate;
//! use modis_engine::{Algorithm, Scenario};
//! use modis_service::{JobState, Service, ServiceConfig};
//!
//! let service = Service::new(ServiceConfig::default());
//! let substrate: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(8));
//! let config = ModisConfig::default().with_estimator(EstimatorMode::Oracle);
//! service
//!     .register(
//!         Scenario::new("apx", substrate, Algorithm::Apx, config)
//!             .with_cache_namespace("pool"),
//!     )
//!     .unwrap();
//! let ticket = service.submit("apx").unwrap();
//! service.run_pending();
//! let outcome = match service.poll(ticket).unwrap() {
//!     JobState::Done(outcome) => outcome,
//!     other => panic!("expected done, got {other:?}"),
//! };
//! assert!(!outcome.result.is_empty());
//! ```

#![deny(missing_docs)]

pub mod cluster;
pub(crate) mod conn;
pub mod error;
pub mod net;
pub mod poller;
pub mod protocol;
pub mod reactor;
pub mod registry;
pub mod router;
pub mod scheduler;
pub mod service;
pub mod snapshot;

pub use cluster::{ClusterScenario, ClusterSpec, ReplicaMove, ShardMap};
pub use error::ServiceError;
pub use net::{done_line, handle_command, result_line, Daemon, Reply, Request};
pub use reactor::{ReactorConfig, Wakeup};
pub use registry::{RegisteredScenario, ScenarioRegistry};
pub use router::{CircuitState, Router, RouterConfig, ShippedNamespace};
pub use scheduler::{CostModel, CostScheduler, QueuedRequest};
pub use service::{CompletionNotifier, JobState, Service, ServiceConfig, Ticket};
pub use snapshot::{SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
