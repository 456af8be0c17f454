//! # modis-service
//!
//! A persistent skyline-serving subsystem over the `modis-engine`
//! execution engine: where the engine runs one scenario fast, the service
//! keeps that machinery warm *across* requests and *across* processes.
//!
//! ```text
//!   clients (in-process API, TCP line protocol)
//!        │ register(name, scenario)     │ submit(name) → Ticket
//!        ▼                              ▼
//!   ┌────────────┐   enqueue   ┌──────────────────┐
//!   │ scenarios  │────────────▶│  run queue       │  submission order
//!   │  by name   │             │  (FIFO)          │
//!   └─────┬──────┘             └────────┬─────────┘
//!         │ claim namespace             │ drain (RUN on the executor)
//!         ▼                             ▼
//!   ┌─────────────────────────────────────────────┐     ┌──────────────┐
//!   │ Engine: namespace guard + shared evaluation │◀───▶│  snapshot    │
//!   │ cache                                       │     │  file (disk) │
//!   └─────────────────────────────────────────────┘     └──────────────┘
//! ```
//!
//! * `service` — the [`Service`]: scenarios are registered once by name,
//!   each claiming its cache namespace for its substrate/task fingerprint
//!   in the engine's guard (the one record of namespace ownership, which
//!   every restore checks too), so incompatible spaces can never share
//!   (and poison) evaluations; then submit, drain, poll and snapshot. A
//!   drain runs the queue in submission order: a state is trained once
//!   per namespace by whichever run reaches it first, so the order decides
//!   only which run pays for it, never how much the runs pay together.
//! * [`snapshot`] — the shared evaluation cache persists to disk in a
//!   hand-rolled, versioned, checksummed binary format and warm-starts a
//!   fresh process: a restarted service answers repeated suites with
//!   cache hits from its very first run.
//! * [`protocol`] — the request grammar of the TCP line protocol
//!   (`SUBMIT` / `POLL` / `WAIT` / `RUN` / `STATS` / `SNAPSHOT` …): one
//!   parser from a request line to a typed verb, and the request framer,
//!   shared by the daemon and the cluster router; the formal spec lives in
//!   `docs/PROTOCOL.md`.
//! * `net` — what each verb does against a service, and the [`Daemon`]
//!   that serves it in tests and examples.
//! * `poller` — readiness discovery with zero dependencies: a thin safe
//!   wrapper over `epoll(7)` via direct syscalls, so a sweep touches only
//!   *ready* connections instead of attempting a syscall on every open
//!   one.
//! * `reactor` — the non-blocking front-end behind [`Daemon`], which is
//!   two threads: one reactor drives every connection through a `Poller`
//!   (`std::net` sockets in non-blocking mode, O(ready) sweeps), requests
//!   pipeline freely with strictly ordered responses, `RUN` drains and
//!   `SNAPSHOT` writes are sent over a channel to one executor thread,
//!   and a wakeup socket pair connects job completions and shutdown to
//!   the reactor parked in `epoll_wait`.
//! * `cluster` + `router` — the horizontal scaling layer: cache
//!   namespaces are partitioned across shard daemons by rendezvous
//!   hashing ([`ShardMap`]), and a [`Router`] fronts the shard
//!   set behind the same wire protocol (pipelining preserved end-to-end,
//!   cluster-wide tickets, aggregated `STATS`). Topology changes ship
//!   exactly the namespaces that move as wire shipments (`EXPORT` /
//!   `SHIP`), so a grown cluster answers its first run from the shipped
//!   warm cache. With K-way replication (`RouterConfig::replication` ≥ 2)
//!   the router heartbeats every shard, sends the K−1 replica owners what
//!   the primary recorded since each copy's cursor after each completed
//!   `RUN` (`EXPORT … FROM <cursor>` / `SHIP`), and — when a primary
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

mod cluster;
pub(crate) mod conn;
mod error;
mod net;
mod poller;
pub mod protocol;
mod reactor;
mod router;
mod service;
pub mod snapshot;

pub use cluster::{ClusterSpec, ReplicaMove, ShardMap};
pub use conn::MAX_PIPELINED;
pub use error::ServiceError;
pub use net::{handle_command, result_line, Daemon, Reply};
pub use reactor::ReactorConfig;
pub use router::{CircuitState, Router, RouterConfig, ShippedNamespace};
pub use service::{JobState, Service, ServiceConfig, Ticket};
