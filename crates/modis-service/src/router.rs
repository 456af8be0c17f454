//! The cluster router: one TCP front-end over N shard daemons.
//!
//! A [`Router`] speaks the same line protocol as a single [`crate::Daemon`]
//! and fronts a set of shard daemons (each a reactor-served [`crate::Service`]
//! in its own process), so a client cannot tell a cluster from a single
//! daemon — same verbs, same responses, same pipelining rules:
//!
//! * **Placement with K-way replication** — every scenario maps to a cache
//!   namespace ([`ClusterSpec`]), every namespace to a *ranked owner set*
//!   of [`RouterConfig::replication`] shards by rendezvous hashing
//!   ([`ShardMap::owners_of_namespace`]): rank 0 is the primary, the rest
//!   are failover replicas. `SUBMIT` goes to the highest-ranked live
//!   owner, so one namespace's evaluations still concentrate in one
//!   process while warm copies stand by elsewhere.
//! * **Pipelining end-to-end** — a client may burst any number of
//!   requests; each is forwarded to its shard *immediately on parse*
//!   (shards work concurrently on one client's pipeline), while responses
//!   are emitted strictly in request order through an ordered queue of
//!   expectations, exactly like the reactor's response slots.
//! * **Ticket remapping** — shards issue process-local ticket ids; the
//!   router allocates cluster-wide ids on every `SUBMIT` response and
//!   translates them in every `POLL`/`RESULT`/`WAIT` request and every
//!   reply line naming a ticket. When a primary dies, a ticket is
//!   *re-homed*: the scenario is re-submitted on the freshest live replica
//!   and the cluster id remapped in place, so the client's id keeps
//!   working across the failure.
//! * **One shape for every reply shards owe** — a forward (`SUBMIT`,
//!   `POLL`, `RESULT`), a fan-in and a cross-shard `WAIT` hold one part
//!   per shard (per `WAIT` group), and one loop collects them all.
//! * **Fan-in verbs** — `RUN`, `STATS`, `SNAPSHOT`, `METRICS`,
//!   `TRACE DUMP`, `TRACE SLOW` and `EXPLAIN` go to every shard through
//!   one sender, and one renderer builds the reply:
//!   `RUN` drains every live shard concurrently and sums the counts,
//!   `STATS` aggregates every shard's counters into one cluster-wide line
//!   (plus a `SHARDS` verb for per-shard telemetry), `SNAPSHOT <path>`
//!   persists every shard to `<path>.<shard>` and removes the partial
//!   per-shard files when the fan-in fails, and the counted verbs merge
//!   every shard's lines under a `shard=` label.
//! * **Heartbeats and health** — a background thread `PING`s every shard
//!   each [`RouterConfig::heartbeat_interval`]. A shard is up or down by
//!   one count, its consecutive failed exchanges: a probe, a reply line
//!   its pooled link delivers, a forward's connect or write and every
//!   blocking one-shot exchange each count. It is down once the count
//!   reaches [`RouterConfig::heartbeat_misses`] and up again after one
//!   successful exchange (exposed as `router_circuit_state`). A forward
//!   makes one attempt — never a sleep on the front thread — and fails
//!   fast (`circuit open`) while a shard is down, so no request ever
//!   hangs on a corpse, and only the heartbeat dials a down shard.
//! * **Replication shipping over the wire** — the router remembers, per
//!   `(replica, namespace)`, the shard the copy came from and the cursor
//!   of that shard's cache it reached. After each completed `RUN` it asks
//!   every primary with `EXPORT … FROM <cursor>` for what it recorded
//!   since (one `SHIPMENT` line) and pushes a non-empty reply to the
//!   replica with the binary-framed `SHIP` verb. Rebalancing
//!   ([`Router::join_shard`] / [`Router::leave_shard`]) takes the same
//!   exchange from cursor `0` — no shared filesystem between shard
//!   processes required — and moves exactly the minimal replica set (a
//!   rank-by-rank rendezvous guarantee).
//! * **Transparent failover** — a request owed to a dead shard re-routes
//!   to the freshest warm replica with zero operator action: `SUBMIT`
//!   picks the next live owner, `POLL`/`RESULT`/`WAIT` re-home the ticket
//!   first. Responses served by a stand-in carry a trailing
//!   ` degraded=<shard>` marker, `STATS` appends `degraded=<shards>`, and
//!   a `METRICS` scrape annotates dead shards — degraded service is
//!   visible, never silent. [`Router::set_shard_addr`] still rewires a
//!   restarted shard and resets its health.
//! * **`WAIT` across shards** — the router splits the ticket list per
//!   owning shard, forwards per-shard `WAIT`s, and streams the merged
//!   `DONE` lines back in arrival order (≈ cluster-wide completion
//!   order), rewritten to cluster ids; tickets stranded by a mid-`WAIT`
//!   shard death are re-homed and the wait resumes on the replica.
//!
//! The router itself holds no evaluation state and does no search work —
//! it is a routing and fan-out *policy* (placement, the ticket table,
//! health, failover, the ordered queue of expectations) on top of the
//! connection core the daemon's reactor runs on (the crate's private
//! `conn` module). **One** front thread drives every socket the router
//! serves through one [`crate::poller::Poller`]: the listener, the wakeup
//! channel, every client connection and every pooled shard connection —
//! each non-blocking under its own token, a shard connection recording the
//! client that owns it, so a shard reply wakes exactly the client it is
//! owed to. Requests to a shard and responses to a client queue in the
//! connection's write buffer and leave as the socket accepts them, a
//! client that does not read its responses stops being read (and stalls
//! nobody else), and with nothing ready the thread sleeps in one poller
//! wait with no timeout. Two things still block the front thread, and
//! with it every client: `forward` opens a connection to an up shard with
//! a blocking connect under `CONNECT_TIMEOUT` (2 s), and re-homing a ticket
//! (`RouterInner::failover_ticket`, on the `POLL`/`RESULT` path and in
//! `forward_waits`) runs a blocking one-shot `SUBMIT` and then `RUN` on
//! each candidate replica, each exchange costing up to `CONNECT_TIMEOUT`
//! plus `SHIP_TIMEOUT` (120 s). The heartbeat and shipping exchanges block
//! too, off the front thread.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use modis_core::telemetry::{Counter, MetricsRegistry, TraceContext, Tracer};
use modis_engine::{Cursor, SharedEvalCache};

use crate::cluster::{validate_token, ClusterSpec, ShardMap};
use crate::conn::{
    accept_ready, Conn, Entry, Slab, MAX_PIPELINED, MAX_READ_PER_SWEEP, WRITE_HIGH_WATERMARK,
};
use crate::error::ServiceError;
use crate::poller::{self, Interest, Poller};
use crate::protocol::{self, Frame, Framer, Kind, Parsed, Verb};
use crate::reactor::{drain_wakeup, wakeup_pair, Wakeup};

/// Help text of the `router_heartbeat_misses_total{shard}` counter.
const HEARTBEAT_MISS_HELP: &str = "Heartbeat probes (PING) a shard failed to answer in time.";
/// Help text of the `router_failovers_total{shard}` counter.
const FAILOVER_HELP: &str = "Requests transparently re-routed away from this shard to a replica.";
/// Help text of the `router_circuit_state{shard}` gauge.
const CIRCUIT_HELP: &str =
    "Per-shard circuit breaker state: 0 = closed (healthy), 2 = open (declared dead).";

/// Connect timeout for shard connections.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// How long a lifecycle operation (wire shipping on join/leave and
/// replication pushes) waits for one shard reply.
const SHIP_TIMEOUT: Duration = Duration::from_secs(120);
/// How many ticket mappings the router retains (FIFO). Mirrors the shard
/// daemons' bounded completed-job retention — a ticket older than either
/// bound answers `ERR unknown ticket`.
const MAX_TICKETS: usize = 1 << 16;

/// Tuning knobs of the router. Defaults suit tests and examples; none
/// change protocol semantics.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Replication factor K: every namespace is owned by the K
    /// highest-ranked shards of its rendezvous order (clamped to the
    /// cluster size). `1` disables replication entirely — no pushes, no
    /// stand-in serving — which is the pre-replication behaviour.
    pub replication: usize,
    /// Period of the background heartbeat thread: every shard is `PING`ed
    /// once per interval, and the replicas are synced while a sync is due.
    pub heartbeat_interval: Duration,
    /// Connect + read timeout of one heartbeat probe. A probe that blows
    /// this deadline counts as a miss.
    pub heartbeat_timeout: Duration,
    /// Consecutive failed exchanges with a shard (heartbeat probes, reply
    /// lines its links owe, forwards and one-shot exchanges alike) after
    /// which it is declared dead. One successful exchange brings it back.
    pub heartbeat_misses: u32,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            replication: 1,
            heartbeat_interval: Duration::from_millis(150),
            heartbeat_timeout: Duration::from_millis(250),
            heartbeat_misses: 3,
        }
    }
}

/// Whether a shard is up or down, exposed per shard as the
/// `router_circuit_state` gauge (whose value is the discriminant) and via
/// [`Router::circuit_state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitState {
    /// Up: requests flow normally.
    Closed = 0,
    /// Declared dead: requests that need the shard fail fast, and only
    /// the heartbeat dials it until an exchange succeeds.
    Open = 2,
}

impl CircuitState {
    /// The state of a shard with `failures` consecutive failed exchanges
    /// when `threshold` of them declare it dead.
    fn of(failures: u32, threshold: u32) -> CircuitState {
        if failures >= threshold {
            CircuitState::Open
        } else {
            CircuitState::Closed
        }
    }
}

/// Applies one exchange's outcome to a shard's count of consecutive
/// failed exchanges: a success clears it, a failure adds one. Returns the
/// shard's new state when the exchange flipped it between up and down.
fn tally(failures: &mut u32, ok: bool, threshold: u32) -> Option<CircuitState> {
    let before = CircuitState::of(*failures, threshold);
    *failures = if ok { 0 } else { failures.saturating_add(1) };
    let after = CircuitState::of(*failures, threshold);
    (after != before).then_some(after)
}

/// Decodes the lowercase-hex payload of a `SHIPMENT` reply.
fn hex_decode(hex: &str) -> Option<Vec<u8>> {
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(hex.len() / 2);
    for pair in hex.as_bytes().chunks(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

/// One blocking request/response exchange with a shard on a connection
/// of its own — the heartbeat, shipping and failover paths, none of which
/// runs on the readiness path. Connects under `connect_timeout`, writes
/// `head` as a line followed by the raw `payload` bytes (a `SHIP` frame;
/// empty otherwise), and reads one reply line under `reply_timeout`.
fn one_shot(
    addr: SocketAddr,
    connect_timeout: Duration,
    reply_timeout: Duration,
    head: &str,
    payload: &[u8],
) -> io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
    stream.set_read_timeout(Some(reply_timeout))?;
    stream.set_nodelay(true)?;
    stream.write_all(format!("{head}\n").as_bytes())?;
    stream.write_all(payload)?;
    let mut reply = Vec::new();
    BufReader::new(stream).read_until(b'\n', &mut reply)?;
    if reply.pop() != Some(b'\n') {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before reply",
        ));
    }
    Ok(String::from_utf8_lossy(&reply).trim_end().to_string())
}

/// The error of a cluster operation that could not get what it needed
/// from `shard`.
fn unavailable(shard: &str, reason: impl ToString) -> ServiceError {
    ServiceError::ShardUnavailable {
        shard: shard.to_string(),
        reason: reason.to_string(),
    }
}

/// One shard's identity and current address.
#[derive(Debug, Clone)]
struct ShardState {
    name: String,
    addr: SocketAddr,
}

/// The live topology: shard addresses plus the ownership map, kept under
/// one lock so routing decisions always see a consistent pair.
struct Topology {
    shards: Vec<ShardState>,
    map: ShardMap,
}

impl Topology {
    fn addr_of(&self, name: &str) -> Option<SocketAddr> {
        self.shards.iter().find(|s| s.name == name).map(|s| s.addr)
    }
}

/// One cluster-wide ticket's current home.
#[derive(Debug, Clone)]
struct TicketEntry {
    /// The shard currently serving the ticket.
    shard: String,
    /// The shard-local ticket id.
    local: u64,
    /// The scenario the ticket runs — needed to re-submit on a replica
    /// when the original shard dies.
    scenario: String,
    /// Set once the ticket was re-homed onto a replica: its responses are
    /// flagged ` degraded=<shard>` so the client can tell stand-in
    /// service from primary service.
    degraded: bool,
    /// The distributed trace id the submission was forwarded under —
    /// `EXPLAIN <ticket>` resolves the cluster id to this trace and fans
    /// the timeline in from every shard.
    trace: u64,
}

/// Cluster-wide ticket table: router id → per-shard local id, retained
/// FIFO up to `MAX_TICKETS` (the shard daemons bound their
/// own completed-job retention, so an unbounded router-side table would
/// mostly map ids the shards have already forgotten — and grow with every
/// request the router ever served).
#[derive(Default)]
struct TicketTable {
    next: u64,
    forward: HashMap<u64, TicketEntry>,
    /// Allocation order, for FIFO eviction.
    order: VecDeque<u64>,
}

impl TicketTable {
    fn allocate(
        &mut self,
        shard: &str,
        local: u64,
        scenario: &str,
        degraded: bool,
        trace: u64,
        retention: usize,
    ) -> u64 {
        self.next += 1;
        let global = self.next;
        self.forward.insert(
            global,
            TicketEntry {
                shard: shard.to_string(),
                local,
                scenario: scenario.to_string(),
                degraded,
                trace,
            },
        );
        self.order.push_back(global);
        if retention > 0 {
            while self.order.len() > retention {
                if let Some(oldest) = self.order.pop_front() {
                    self.forward.remove(&oldest);
                }
            }
        }
        global
    }

    /// Re-homes a cluster ticket onto a replica's fresh local id, marking
    /// it degraded. Returns `false` for an unknown (evicted) id.
    fn remap(&mut self, global: u64, shard: &str, local: u64) -> bool {
        let Some(entry) = self.forward.get_mut(&global) else {
            return false;
        };
        entry.shard = shard.to_string();
        entry.local = local;
        entry.degraded = true;
        true
    }

    fn lookup(&self, global: u64) -> Option<TicketEntry> {
        self.forward.get(&global).cloned()
    }

    /// Whether the ticket has been re-homed onto a replica.
    fn degraded(&self, global: u64) -> bool {
        self.forward.get(&global).is_some_and(|e| e.degraded)
    }

    /// Drops every mapping of `shard` — its process died (or was
    /// replaced), so its local ids no longer name anything.
    fn purge_shard(&mut self, shard: &str) {
        self.forward.retain(|_, e| e.shard != shard);
        let forward = &self.forward;
        self.order.retain(|g| forward.contains_key(g));
    }
}

/// Replication book-keeping: where each replica's copy came from, how far
/// it reaches, and whether a sync is owed.
#[derive(Default)]
struct ReplicationState {
    /// `(replica, namespace)` → the shard the copy was last brought up to
    /// date from, and that shard's cursor then: the next sync asks the
    /// same source only for what it recorded after it, and failover
    /// prefers the replica that reaches furthest into a dead primary's
    /// record.
    synced: HashMap<(String, String), (String, Cursor)>,
    /// A `RUN` completed, a shard was rewired or a sync fell short since
    /// the last sync: the heartbeat syncs while this is set.
    due: bool,
}

/// Locks `mutex` through poisoning: every structure the router guards is
/// updated in one step, so a panicking holder leaves it consistent.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

struct RouterInner {
    spec: ClusterSpec,
    topology: Mutex<Topology>,
    tickets: Mutex<TicketTable>,
    stop: AtomicBool,
    config: RouterConfig,
    /// The router's own instruments; rendered (unrelabeled — `router_*`
    /// family names cannot collide with shard-side families) at the head
    /// of every merged `METRICS` reply.
    metrics: Arc<MetricsRegistry>,
    /// Shard connections re-established after a send failure or rewire.
    reconnects: Arc<Counter>,
    /// Shard-local ticket ids remapped to cluster-wide ids.
    remaps: Arc<Counter>,
    /// Per member shard, its count of consecutive failed exchanges.
    health: Mutex<HashMap<String, u32>>,
    /// Where each replica's copy reaches, and whether a sync is owed.
    replication: Mutex<ReplicationState>,
    /// The router's own span recorder: per-client trace roots, forward
    /// round-trips and failover re-homes, stitched into the same traces
    /// as the shard-side spans and rendered into `EXPLAIN` timelines
    /// with a `shard=router` suffix.
    tracer: Arc<Tracer>,
    /// How many poller waits the front thread has returned from — what
    /// the no-polling-tick test counts.
    #[cfg(test)]
    front_waits: std::sync::atomic::AtomicU64,
}

impl RouterInner {
    /// The effective replication factor (at least 1).
    fn k(&self) -> usize {
        self.config.replication.max(1)
    }

    /// The ranked owner set of `namespace` in the current topology.
    fn owners(&self, namespace: &str) -> Vec<String> {
        let topology = lock(&self.topology);
        let owners = topology.map.owners_of_namespace(namespace, self.k());
        owners.iter().map(|s| s.to_string()).collect()
    }

    /// The count of consecutive failed exchanges that declares a shard
    /// dead.
    fn threshold(&self) -> u32 {
        self.config.heartbeat_misses.max(1)
    }

    /// Starts `shard` up with no failure on record, and pre-registers
    /// every per-shard family so scrapes see them (at zero) from the first
    /// exposition, not only after the first event.
    fn admit_shard(&self, shard: &str) {
        let mut health = lock(&self.health);
        health.insert(shard.to_string(), 0);
        self.publish_circuit(shard, CircuitState::Closed);
        let _ = self.miss_counter(shard);
        let _ = self.failover_counter(shard);
    }

    fn miss_counter(&self, shard: &str) -> Arc<Counter> {
        let labels = [("shard", shard)];
        self.metrics.counter_with(
            "router_heartbeat_misses_total",
            HEARTBEAT_MISS_HELP,
            &labels,
        )
    }

    /// The failover counter of `shard` — the shard routed *away from*.
    fn failover_counter(&self, shard: &str) -> Arc<Counter> {
        let labels = [("shard", shard)];
        self.metrics
            .counter_with("router_failovers_total", FAILOVER_HELP, &labels)
    }

    /// Publishes `shard`'s breaker position to the state gauge.
    fn publish_circuit(&self, shard: &str, state: CircuitState) {
        self.metrics
            .gauge_with("router_circuit_state", CIRCUIT_HELP, &[("shard", shard)])
            .set(state as i64);
    }

    /// Records one exchange with `shard`: one lookup under the health
    /// lock, and the state gauge published only when the exchange flips
    /// the shard between up and down. A shard that is not a member (it
    /// left, or is still joining) has no count to keep.
    fn note(&self, shard: &str, ok: bool) {
        let threshold = self.threshold();
        let mut health = lock(&self.health);
        let Some(failures) = health.get_mut(shard) else {
            return;
        };
        if let Some(state) = tally(failures, ok, threshold) {
            self.publish_circuit(shard, state);
        }
    }

    /// Records a successful exchange with `shard`: it is up again.
    fn note_success(&self, shard: &str) {
        self.note(shard, true);
    }

    /// Records a failed exchange with `shard`.
    fn note_failure(&self, shard: &str) {
        self.note(shard, false);
    }

    /// Whether `shard` is currently declared dead.
    fn shard_down(&self, shard: &str) -> bool {
        let threshold = self.threshold();
        lock(&self.health)
            .get(shard)
            .is_some_and(|&failures| failures >= threshold)
    }

    /// The sorted names of shards currently declared dead.
    fn degraded_shards(&self) -> Vec<String> {
        let threshold = self.threshold();
        let mut names: Vec<String> = lock(&self.health)
            .iter()
            .filter(|(_, &failures)| failures >= threshold)
            .map(|(name, _)| name.clone())
            .collect();
        names.sort();
        names
    }

    /// Forgets `shard`'s failures and the cursors of its copies, and makes
    /// a sync due — the recovery path after a rewire (the new process
    /// starts from its snapshot; its copies are synced again from `0`).
    fn reset_health(&self, shard: &str) {
        self.admit_shard(shard);
        let mut rep = lock(&self.replication);
        rep.synced.retain(|(replica, _), _| replica != shard);
        rep.due = true;
    }

    /// [`one_shot`] against a shard daemon under the lifecycle timeouts —
    /// the one place lifecycle, sync and failover exchanges feed `shard`'s
    /// health: any reply line is a success.
    fn ask(
        &self,
        shard: &str,
        addr: SocketAddr,
        head: &str,
        payload: &[u8],
    ) -> Result<String, ServiceError> {
        match one_shot(addr, CONNECT_TIMEOUT, SHIP_TIMEOUT, head, payload) {
            Ok(reply) => {
                self.note_success(shard);
                Ok(reply)
            }
            Err(err) => {
                self.note_failure(shard);
                Err(unavailable(shard, err))
            }
        }
    }

    /// Exports what `namespaces` recorded on a shard after `after` over
    /// the wire: one `EXPORT … FROM` round-trip, returning the shard's
    /// cursor and the decoded snapshot bytes (empty when there is nothing
    /// new).
    fn wire_export(
        &self,
        shard: &str,
        addr: SocketAddr,
        namespaces: &[String],
        after: Cursor,
    ) -> Result<(Cursor, Vec<u8>), ServiceError> {
        let head = format!("EXPORT {} FROM {after}", namespaces.join(" "));
        let reply = self.ask(shard, addr, &head, &[])?;
        let mut tokens = reply.split_whitespace();
        if tokens.next() != Some("SHIPMENT") {
            return Err(unavailable(shard, &reply));
        }
        let cursor = tokens.next().and_then(|t| t.parse::<Cursor>().ok());
        let len = tokens.next().and_then(|t| t.parse::<usize>().ok());
        // A zero-length shipment renders with no hex token at all.
        let payload = hex_decode(tokens.next().unwrap_or(""));
        match (cursor, len, payload) {
            (Some(cursor), Some(len), Some(payload)) if payload.len() == len => {
                Ok((cursor, payload))
            }
            _ => Err(unavailable(shard, "malformed SHIPMENT reply")),
        }
    }

    /// Pushes snapshot bytes into a shard over the wire with the
    /// binary-framed `SHIP` verb, returning the restored entry count.
    fn wire_ship(
        &self,
        shard: &str,
        addr: SocketAddr,
        namespaces: &[String],
        payload: &[u8],
    ) -> Result<u64, ServiceError> {
        let header = format!("SHIP {} {}", namespaces.join(" "), payload.len());
        let reply = self.ask(shard, addr, &header, payload)?;
        reply
            .strip_prefix("OK ")
            .and_then(|n| n.trim().parse::<u64>().ok())
            .ok_or_else(|| unavailable(shard, &reply))
    }

    /// Brings `target`'s copy of `namespaces` up to date with `source`
    /// from cursor `after` — the one path replication and rebalancing
    /// share: an `EXPORT … FROM`, a `SHIP` only when the reply holds
    /// anything, then the reply's cursor on record for every namespace.
    fn sync_copy(
        &self,
        (source, source_addr): (&str, SocketAddr),
        namespaces: &[String],
        after: Cursor,
        (target, target_addr): (&str, SocketAddr),
    ) -> Result<(), ServiceError> {
        let (cursor, payload) = self.wire_export(source, source_addr, namespaces, after)?;
        if !payload.is_empty() {
            self.wire_ship(target, target_addr, namespaces, &payload)?;
        }
        let mut rep = lock(&self.replication);
        for namespace in namespaces {
            let copy = (target.to_string(), namespace.clone());
            rep.synced.insert(copy, (source.to_string(), cursor));
        }
        Ok(())
    }

    /// Brings every live replica up to date with its namespace's
    /// highest-ranked live owner, from the cursor its copy last reached:
    /// one [`Self::sync_copy`] per `(primary, replica, cursor)` group. A
    /// dead owner or a failed exchange leaves the sync due. Returns the
    /// number of `(replica, namespace)` copies on record.
    fn sync_replicas(&self) -> usize {
        lock(&self.replication).due = false;
        let mut groups: Vec<((String, String, Cursor), Vec<String>)> = Vec::new();
        let mut short = false;
        for namespace in self.spec.namespaces() {
            let (live, dead): (Vec<String>, Vec<String>) = self
                .owners(namespace)
                .into_iter()
                .partition(|owner| !self.shard_down(owner));
            short |= !dead.is_empty();
            let Some((primary, replicas)) = live.split_first() else {
                continue;
            };
            let rep = lock(&self.replication);
            for replica in replicas {
                let after = match rep.synced.get(&(replica.clone(), namespace.to_string())) {
                    Some((source, cursor)) if source == primary => *cursor,
                    _ => Cursor::default(),
                };
                let group = (primary.clone(), replica.clone(), after);
                match groups.iter_mut().find(|(g, _)| *g == group) {
                    Some((_, namespaces)) => namespaces.push(namespace.to_string()),
                    None => groups.push((group, vec![namespace.to_string()])),
                }
            }
        }
        for ((primary, replica, after), namespaces) in groups {
            let addrs = {
                let topology = lock(&self.topology);
                (topology.addr_of(&primary), topology.addr_of(&replica))
            };
            short |= match addrs {
                (Some(from), Some(to)) => self
                    .sync_copy((&primary, from), &namespaces, after, (&replica, to))
                    .is_err(),
                _ => true,
            };
        }
        let mut rep = lock(&self.replication);
        rep.due |= short;
        rep.synced.len()
    }

    /// The current home of cluster ticket `global`, re-homed onto a live
    /// replica first when its shard is declared dead or `lost` says the
    /// link to it just failed. The error is a ready-to-emit protocol line.
    fn home(&self, global: u64, lost: bool) -> Result<TicketEntry, String> {
        let Some(entry) = lock(&self.tickets).lookup(global) else {
            return Err(format!("ERR unknown ticket {global}"));
        };
        if lost || self.shard_down(&entry.shard) {
            return self.failover_ticket(global, &entry);
        }
        Ok(entry)
    }

    /// Re-homes a cluster ticket whose shard is dead: re-submits the
    /// scenario on the freshest live replica, runs it there (warm cache —
    /// zero paid valuations when replication kept up), and remaps the
    /// cluster id in place. Returns the new entry, or a ready-to-emit
    /// protocol error line.
    fn failover_ticket(&self, global: u64, entry: &TicketEntry) -> Result<TicketEntry, String> {
        let dead = entry.shard.clone();
        let no_replica =
            || format!("ERR shard {dead} unavailable (no live replica for ticket {global})");
        let Some(namespace) = self.spec.namespace_of(&entry.scenario).map(str::to_string) else {
            return Err(no_replica());
        };
        let mut candidates: Vec<(String, SocketAddr)> = self
            .owners(&namespace)
            .into_iter()
            .filter(|o| *o != dead && !self.shard_down(o))
            .filter_map(|o| lock(&self.topology).addr_of(&o).map(|a| (o, a)))
            .collect();
        {
            // Freshest replica first: the copy synced furthest into the
            // dead shard's append order (one synced from elsewhere reaches
            // nothing of it). The sort is stable, so rendezvous rank
            // breaks ties.
            let rep = lock(&self.replication);
            candidates.sort_by_key(|(name, _)| {
                let reach = match rep.synced.get(&(name.clone(), namespace.clone())) {
                    Some((source, cursor)) if *source == dead => *cursor,
                    _ => Cursor::default(),
                };
                std::cmp::Reverse(reach)
            });
        }
        // The re-submission rides on the original submission's trace, so
        // the `failover` span (and the replacement shard's spans) stitch
        // into the same EXPLAIN timeline as the first attempt.
        let ctx = self.tracer.child_context(TraceContext {
            trace_id: entry.trace,
            span_id: 0,
            parent_id: 0,
        });
        let failover_start = Instant::now();
        for (name, addr) in candidates {
            let submitted = match self.ask(
                &name,
                addr,
                &with_ctx(ctx, &format!("SUBMIT {}", entry.scenario)),
                &[],
            ) {
                Ok(reply) => reply,
                Err(_) => continue,
            };
            let Some(local) = submitted
                .strip_prefix("TICKET ")
                .and_then(|s| s.trim().parse::<u64>().ok())
            else {
                continue;
            };
            let ran = match self.ask(&name, addr, &with_ctx(ctx, "RUN"), &[]) {
                Ok(reply) => reply,
                Err(_) => continue,
            };
            if !ran.starts_with("OK") {
                continue;
            }
            if !lock(&self.tickets).remap(global, &name, local) {
                return Err(format!("ERR unknown ticket {global}"));
            }
            self.failover_counter(&dead).inc();
            if entry.trace != 0 {
                self.tracer
                    .record_at("failover", ctx, failover_start, failover_start.elapsed());
            }
            return Ok(TicketEntry {
                shard: name,
                local,
                scenario: entry.scenario.clone(),
                degraded: true,
                trace: entry.trace,
            });
        }
        Err(no_replica())
    }
}

/// What a rebalancing operation shipped: one entry per moved namespace
/// copy (under K-way replication one namespace may ship to several
/// shards).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShippedNamespace {
    /// The namespace that changed owner.
    pub namespace: String,
    /// The shard it moved from.
    pub from: String,
    /// The shard it moved to.
    pub to: String,
}

/// A running cluster router: the bound address, the front thread (which
/// accepts and serves every client connection through one poller) and
/// the heartbeat thread.
pub struct Router {
    inner: Arc<RouterInner>,
    addr: SocketAddr,
    /// The front and heartbeat threads, until [`Router::stop`] joins them.
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Interrupts the front thread's poller wait so [`Router::stop`]
    /// never waits out a full timeout.
    front_wakeup: Wakeup,
    /// Serialises join/leave/rewire so two topology changes cannot
    /// interleave their shipping phases.
    lifecycle: Mutex<()>,
}

impl Router {
    /// Binds the router on `addr` over the given shard daemons (name,
    /// address). Shard names must be non-empty single tokens; at least one
    /// shard is required.
    pub fn bind(
        spec: ClusterSpec,
        shards: Vec<(String, SocketAddr)>,
        addr: &str,
    ) -> io::Result<Router> {
        Router::bind_with(spec, shards, addr, RouterConfig::default())
    }

    /// [`Router::bind`] with explicit tuning.
    pub fn bind_with(
        spec: ClusterSpec,
        shards: Vec<(String, SocketAddr)>,
        addr: &str,
        config: RouterConfig,
    ) -> io::Result<Router> {
        if shards.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a cluster needs at least one shard",
            ));
        }
        let mut map = ShardMap::new();
        let mut states = Vec::new();
        for (name, addr) in shards {
            if let Err(reason) = validate_token(&name, "shard name") {
                return Err(io::Error::new(io::ErrorKind::InvalidInput, reason));
            }
            if !map.add(name.clone()) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("shard name {name:?} listed twice"),
                ));
            }
            states.push(ShardState { name, addr });
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(MetricsRegistry::new());
        let reconnects = metrics.counter(
            "router_reconnects_total",
            "Shard connections re-established after a send failure or rewire.",
        );
        let remaps = metrics.counter(
            "router_ticket_remaps_total",
            "Shard-local ticket ids remapped to cluster-wide ids.",
        );
        let inner = Arc::new(RouterInner {
            spec,
            topology: Mutex::new(Topology {
                shards: states,
                map,
            }),
            tickets: Mutex::new(TicketTable::default()),
            stop: AtomicBool::new(false),
            config,
            metrics,
            reconnects,
            remaps,
            health: Mutex::new(HashMap::new()),
            replication: Mutex::new(ReplicationState::default()),
            tracer: Arc::new(Tracer::with_capacity(4096)),
            #[cfg(test)]
            front_waits: std::sync::atomic::AtomicU64::new(0),
        });
        for shard in &lock(&inner.topology).shards {
            inner.admit_shard(&shard.name);
        }
        // The front thread's poller and wakeup channel are built here so
        // a failure surfaces as a bind error instead of a silently dead
        // thread.
        let (front_wakeup, wakeup_rx) = wakeup_pair()?;
        let mut poller = Poller::new()?;
        poller.register(poller::source(&wakeup_rx), FRONT_WAKEUP, Interest::READ)?;
        poller.register(poller::source(&listener), FRONT_LISTENER, Interest::READ)?;
        let front = Front {
            inner: Arc::clone(&inner),
            poller,
            listener,
            wakeup_rx,
            clients: Slab::new(FRONT_CLIENTS),
            links: Slab::new(FRONT_LINKS),
        };
        let heartbeat = Arc::clone(&inner);
        let threads = vec![
            std::thread::spawn(move || front.run()),
            std::thread::spawn(move || heartbeat_loop(heartbeat)),
        ];
        Ok(Router {
            inner,
            addr,
            threads: Mutex::new(threads),
            front_wakeup,
            lifecycle: Mutex::new(()),
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The router's own metrics registry (forward latency, reconnects,
    /// ticket remaps, heartbeat misses, failovers and circuit states per
    /// shard). Rendered at the head of every merged `METRICS` reply;
    /// exposed for tests and embedding processes.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.inner.metrics
    }

    /// A snapshot of the current ownership map.
    pub fn shard_map(&self) -> ShardMap {
        lock(&self.inner.topology).map.clone()
    }

    /// The current shard set with addresses, sorted by name.
    pub fn shards(&self) -> Vec<(String, SocketAddr)> {
        let topology = lock(&self.inner.topology);
        let mut shards: Vec<(String, SocketAddr)> = topology
            .shards
            .iter()
            .map(|s| (s.name.clone(), s.addr))
            .collect();
        shards.sort();
        shards
    }

    /// The shard currently owning `namespace` (the replication primary).
    pub fn owner_of(&self, namespace: &str) -> Option<String> {
        let topology = lock(&self.inner.topology);
        topology
            .map
            .owner_of_namespace(namespace)
            .map(str::to_string)
    }

    /// The ranked owner set of `namespace` under the configured
    /// replication factor: the primary first, then the failover replicas.
    pub fn owners_of(&self, namespace: &str) -> Vec<String> {
        self.inner.owners(namespace)
    }

    /// Whether `shard` is up or down by its count of consecutive failed
    /// exchanges ([`CircuitState::Closed`] for a shard that is not a
    /// member).
    pub fn circuit_state(&self, shard: &str) -> CircuitState {
        let failures = lock(&self.inner.health).get(shard).copied();
        CircuitState::of(failures.unwrap_or(0), self.inner.threshold())
    }

    /// Syncs every live replica with its namespace's primary now, without
    /// waiting for the heartbeat thread's next tick: each is sent what the
    /// primary recorded since its copy's cursor. Returns the total number
    /// of `(replica, namespace)` copies on record cluster-wide. A no-op
    /// returning 0 when replication is off (`replication <= 1`).
    pub fn flush_replication(&self) -> usize {
        if self.inner.k() <= 1 {
            return 0;
        }
        self.inner.sync_replicas()
    }

    /// Adds a shard daemon to the cluster. Ownership is recomputed; every
    /// namespace copy the new shard now owns (as primary *or* replica) is
    /// shipped over the wire from a surviving owner **before** routing
    /// flips, so the new shard's first request finds the warm cache
    /// already in place. Returns the shipped namespace copies.
    pub fn join_shard(
        &self,
        name: &str,
        addr: SocketAddr,
    ) -> Result<Vec<ShippedNamespace>, ServiceError> {
        validate_token(name, "shard name").map_err(ServiceError::InvalidTopology)?;
        let _lifecycle = lock(&self.lifecycle);
        let before = {
            let topology = lock(&self.inner.topology);
            if topology.addr_of(name).is_some() {
                return Err(ServiceError::InvalidTopology(format!(
                    "shard {name:?} is already a member"
                )));
            }
            topology.map.clone()
        };
        let mut after = before.clone();
        after.add(name.to_string());

        let shipped = self.ship_plan(&before, &after, Some((name, addr)))?;

        let mut topology = lock(&self.inner.topology);
        topology.shards.push(ShardState {
            name: name.to_string(),
            addr,
        });
        topology.map = after;
        drop(topology);
        self.inner.admit_shard(name);
        Ok(shipped)
    }

    /// Removes a shard gracefully: every namespace copy it held that now
    /// belongs elsewhere is shipped over the wire first (from a surviving
    /// warm owner when one exists, else from the leaver itself), then
    /// routing flips and the shard's tickets are invalidated. (For a
    /// *crashed* shard there is nothing to ask — with replication on, the
    /// replicas already serve; otherwise restart it from its last
    /// snapshot and [`Router::set_shard_addr`] it back in.)
    pub fn leave_shard(&self, name: &str) -> Result<Vec<ShippedNamespace>, ServiceError> {
        let _lifecycle = lock(&self.lifecycle);
        let before = {
            let topology = lock(&self.inner.topology);
            topology.addr_of(name).ok_or_else(|| {
                ServiceError::InvalidTopology(format!("shard {name:?} is not a member"))
            })?;
            topology.map.clone()
        };
        if before.len() == 1 {
            return Err(ServiceError::InvalidTopology(
                "cannot remove the last shard".to_string(),
            ));
        }
        let mut after = before.clone();
        after.remove(name);

        let shipped = self.ship_plan(&before, &after, None)?;

        let mut topology = lock(&self.inner.topology);
        topology.shards.retain(|s| s.name != name);
        topology.map = after;
        drop(topology);
        lock(&self.inner.tickets).purge_shard(name);
        lock(&self.inner.health).remove(name);
        let mut rep = lock(&self.inner.replication);
        rep.synced.retain(|(replica, _), _| replica != name);
        Ok(shipped)
    }

    /// Rewires a shard to a new address — the recovery path after a crash
    /// and restart (`Service::from_snapshot` + a fresh daemon). The dead
    /// process's tickets are invalidated (its queued/finished jobs died
    /// with it; the snapshot carries evaluations, not job state), its
    /// circuit breaker and replica-freshness history are reset, and
    /// handler connections to the old address are dropped on their next
    /// use.
    pub fn set_shard_addr(&self, name: &str, addr: SocketAddr) -> Result<(), ServiceError> {
        let _lifecycle = lock(&self.lifecycle);
        {
            let mut topology = lock(&self.inner.topology);
            let shard = topology
                .shards
                .iter_mut()
                .find(|s| s.name == name)
                .ok_or_else(|| {
                    ServiceError::InvalidTopology(format!("shard {name:?} is not a member"))
                })?;
            shard.addr = addr;
        }
        lock(&self.inner.tickets).purge_shard(name);
        self.inner.reset_health(name);
        Ok(())
    }

    /// Ships every namespace copy the move from topology `before` to
    /// `after` newly grants, before routing flips. `joiner` is the shard
    /// being added, whose address the current topology does not know yet.
    fn ship_plan(
        &self,
        before: &ShardMap,
        after: &ShardMap,
        joiner: Option<(&str, SocketAddr)>,
    ) -> Result<Vec<ShippedNamespace>, ServiceError> {
        let addr_of = |shard: &str| match joiner {
            Some((name, addr)) if name == shard => Ok(addr),
            _ => lock(&self.inner.topology)
                .addr_of(shard)
                .ok_or_else(|| ServiceError::InvalidTopology(format!("shard {shard:?} vanished"))),
        };
        let (shipped, by_pair) = replica_plan(&self.inner, before, after);
        for ((source, target), namespaces) in by_pair {
            debug_assert!(
                joiner.is_none_or(|(name, _)| name == target),
                "rendezvous join granted a namespace to an unrelated shard"
            );
            let (source_addr, target_addr) = (addr_of(&source)?, addr_of(&target)?);
            self.inner.sync_copy(
                (&source, source_addr),
                &namespaces,
                Cursor::default(),
                (&target, target_addr),
            )?;
        }
        Ok(shipped)
    }

    /// Stops the router: the front thread flushes a final protocol error
    /// to every open client and exits, the heartbeat thread exits, both
    /// are joined. Idempotent, including under concurrent callers (same
    /// discipline as [`crate::Daemon::stop`]). Shard daemons are *not*
    /// stopped — they are independent processes.
    pub fn stop(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        let mut threads = lock(&self.threads);
        // Notified under the lock, after the flag store: the wakeup byte
        // interrupts the front thread's poller wait so stop never sleeps
        // out a full timeout.
        self.front_wakeup.notify();
        for handle in threads.drain(..) {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The minimal replica-aware shipping plan between two topologies
/// ([`ShardMap::reassigned_replicas`] over the spec's namespaces): each
/// shard that newly enters a namespace's owner set receives a copy from
/// the warmest surviving old owner. Returns the flat shipment list and the
/// work grouped by `(source, target)` pair.
#[allow(clippy::type_complexity)]
fn replica_plan(
    inner: &RouterInner,
    before: &ShardMap,
    after: &ShardMap,
) -> (Vec<ShippedNamespace>, Vec<((String, String), Vec<String>)>) {
    let mut shipped = Vec::new();
    let mut by_pair: Vec<((String, String), Vec<String>)> = Vec::new();
    for namespace in inner.spec.namespaces() {
        let key = SharedEvalCache::namespace_key(namespace);
        for moved in before.reassigned_replicas(after, [key], inner.k()) {
            let Some(source) = moved.source else { continue };
            for target in moved.gained {
                let pair = (source.clone(), target.clone());
                match by_pair.iter_mut().find(|(p, _)| *p == pair) {
                    Some((_, namespaces)) => namespaces.push(namespace.to_string()),
                    None => by_pair.push((pair, vec![namespace.to_string()])),
                }
                shipped.push(ShippedNamespace {
                    namespace: namespace.to_string(),
                    from: source.clone(),
                    to: target,
                });
            }
        }
    }
    (shipped, by_pair)
}

/// The heartbeat thread: probes every shard each interval — connect,
/// `PING`, expect `PONG`, all under the heartbeat timeout — each probe
/// one exchange of the shard's health, then syncs the replicas while a sync is due, then parks
/// until the next interval or [`Router::stop`].
fn heartbeat_loop(inner: Arc<RouterInner>) {
    let timeout = inner.config.heartbeat_timeout.max(Duration::from_millis(1));
    while !inner.stop.load(Ordering::SeqCst) {
        let shards: Vec<(String, SocketAddr)> = lock(&inner.topology)
            .shards
            .iter()
            .map(|s| (s.name.clone(), s.addr))
            .collect();
        for (name, addr) in shards {
            if inner.stop.load(Ordering::SeqCst) {
                return;
            }
            match one_shot(addr, timeout, timeout, "PING", &[]) {
                Ok(reply) if reply == "PONG" => inner.note_success(&name),
                _ => {
                    inner.note_failure(&name);
                    inner.miss_counter(&name).inc();
                }
            }
        }
        if inner.k() > 1 && lock(&inner.replication).due && !inner.stop.load(Ordering::SeqCst) {
            inner.sync_replicas();
        }
        std::thread::park_timeout(inner.config.heartbeat_interval);
    }
}

/// Poller token of the front thread's wakeup receiver.
const FRONT_WAKEUP: usize = 0;
/// Poller token of the front thread's listening socket.
const FRONT_LISTENER: usize = 1;
/// Client slot `i` registers under token `FRONT_CLIENTS + i`.
const FRONT_CLIENTS: usize = 2;
/// Shard-link slot `i` registers under token `FRONT_LINKS + i`: the upper
/// half of the token space, which no client slot can reach.
const FRONT_LINKS: usize = 1 << (usize::BITS - 1);

/// Reply bytes received from a shard, cut into lines as they are asked
/// for.
#[derive(Default)]
struct LineBuf {
    buf: Vec<u8>,
    /// Bytes before this offset were handed out as lines.
    cursor: usize,
}

impl LineBuf {
    fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// End of input: a final unterminated line is still a line.
    fn finish(&mut self) {
        if self.buf.last().is_some_and(|&byte| byte != b'\n') {
            self.buf.push(b'\n');
        }
    }

    /// The next complete line, terminator stripped.
    fn next_line(&mut self) -> Option<String> {
        let rest = &self.buf[self.cursor..];
        let Some(end) = rest.iter().position(|&byte| byte == b'\n') else {
            self.buf.drain(..self.cursor);
            self.cursor = 0;
            return None;
        };
        let line = String::from_utf8_lossy(&rest[..end]).into_owned();
        self.cursor += end + 1;
        Some(line)
    }
}

/// What a pooled shard connection carries on top of its socket: pinned
/// to the address it was opened against so a rewired shard invalidates
/// it, and stamped with an epoch so an expectation can only ever read
/// from the *same* connection its request was sent on (a response owed by
/// a dead connection must fail, never consume a fresh connection's line
/// for a later request).
struct ShardLink {
    /// The client slot whose pool holds this connection — the one client
    /// a reply arriving here can unblock.
    owner: usize,
    addr: SocketAddr,
    epoch: u64,
    /// Reply lines received and not yet claimed by an expectation.
    replies: LineBuf,
    /// The shard closed the connection (or it failed); buffered replies
    /// are still served, then the link reads as dead.
    closed: bool,
}

/// One client's shard connections — shard name to link slot — plus the
/// epoch counter.
#[derive(Default)]
struct ConnPool {
    conns: HashMap<String, usize>,
    next_epoch: u64,
}

/// What the routing policy works on while it serves one client: the
/// router's shared state, the client's trace root, and the client's
/// [`ConnPool`] together with what its slots index and register with.
struct Route<'a> {
    inner: &'a Arc<RouterInner>,
    /// The client connection's trace context: every forwarded line is
    /// prefixed with `CTX <hex>` carrying a fresh child of it (or of the
    /// submitting trace, for ticket verbs).
    ctx: TraceContext,
    /// The client's slot, recorded on every link it opens.
    owner: usize,
    pool: &'a mut ConnPool,
    links: &'a mut Slab<ShardLink>,
    poller: &'a mut Poller,
}

impl Route<'_> {
    /// The pooled connection to `shard`, if one is open.
    fn link(&mut self, shard: &str) -> Option<(usize, &mut Entry<ShardLink>)> {
        let slot = *self.pool.conns.get(shard)?;
        Some((slot, self.links.get_mut(slot).expect("pooled link is live")))
    }

    /// Pools a fresh connection to `shard` under the next epoch.
    fn open(&mut self, shard: &str, addr: SocketAddr, conn: Conn) -> io::Result<()> {
        self.pool.next_epoch += 1;
        let link = ShardLink {
            owner: self.owner,
            addr,
            epoch: self.pool.next_epoch,
            replies: LineBuf::default(),
            closed: false,
        };
        let slot = self
            .links
            .insert(self.poller, conn, link)
            .ok_or_else(|| io::Error::other("poller refused the shard connection"))?;
        self.pool.conns.insert(shard.to_string(), slot);
        Ok(())
    }

    /// Closes the pooled connection to `shard`, retiring its epoch.
    fn drop_link(&mut self, shard: &str) {
        if let Some(slot) = self.pool.conns.remove(shard) {
            self.links.remove(self.poller, slot);
        }
    }
}

/// One look at the replies buffered on a shard connection.
enum Polled {
    /// A complete line (terminator stripped).
    Line(String),
    /// Nothing complete yet.
    Pending,
    /// The connection is gone and holds nothing further.
    Dead,
}

/// STATS keys aggregated cluster-wide, in output order.
const STAT_KEYS: [&str; 8] = [
    "hits",
    "misses",
    "entries",
    "evictions",
    "memo_entries",
    "memo_evictions",
    "dominance_comparisons",
    "dominance_pruned",
];

/// A fan-in verb: one the router sends to every shard and answers with
/// one reply built from all of theirs ([`render_fan_in`] says what each
/// answers when a shard fails).
enum FanIn {
    /// `RUN`: sums the shards' `OK <n>` counts.
    Run,
    /// `STATS`: sums the shards' cache counters.
    Stats,
    /// `SNAPSHOT <base>`: every shard writes `<base>.<shard>`; the reply
    /// sums their `OK <bytes>` sizes.
    Snapshot(String),
    /// `METRICS`: each shard's exposition relabeled with `shard=`, after
    /// the router's own.
    Metrics,
    /// `TRACE DUMP <n>`: each shard's spans with a `shard=` suffix.
    TraceDump(usize),
    /// `TRACE SLOW <n>`: each shard's slow traces with a `shard=` suffix,
    /// slowest first.
    TraceSlow(usize),
    /// `EXPLAIN` of one trace, sent as `EXPLAIN TRACE <id>`: each shard's
    /// timeline with a `shard=` suffix plus the router's own spans, in
    /// time order.
    Explain(u64),
}

impl FanIn {
    /// The line `shard` is sent.
    fn line(&self, shard: &str) -> String {
        match self {
            FanIn::Run => "RUN".into(),
            FanIn::Stats => "STATS".into(),
            FanIn::Snapshot(base) => format!("SNAPSHOT {base}.{shard}"),
            FanIn::Metrics => "METRICS".into(),
            FanIn::TraceDump(n) => format!("TRACE DUMP {n}"),
            FanIn::TraceSlow(n) => format!("TRACE SLOW {n}"),
            FanIn::Explain(trace) => format!("EXPLAIN TRACE {trace:016x}"),
        }
    }

    /// The word that heads a counted verb's reply, a shard's `<HEADER> <n>`
    /// count line and the router's merged one alike; `None` for a verb
    /// each shard answers with one line.
    fn header(&self) -> Option<&'static str> {
        match self {
            FanIn::Run | FanIn::Stats | FanIn::Snapshot(_) => None,
            FanIn::Metrics => Some("METRICS"),
            FanIn::TraceDump(_) => Some("SPANS"),
            FanIn::TraceSlow(_) => Some("SLOW"),
            FanIn::Explain(_) => Some("TIMELINE"),
        }
    }
}

/// One shard's share of a reply a client is owed: a forward's line, a
/// fan-in shard's lines, or one `WAIT` group's `DONE`s.
struct Part {
    shard: String,
    /// The epoch of the connection the request went out on.
    epoch: u64,
    /// Lines the shard still owes; for a counted fan-in verb `None` until
    /// its `<HEADER> <n>` line arrives.
    owed: Option<usize>,
    /// The `(cluster id, shard-local id)` pairs the request names (a
    /// `WAIT` part drops each as its line arrives).
    tickets: Vec<(u64, u64)>,
    /// The lines received (a counted verb's header excluded; a `WAIT`
    /// streams its lines on instead).
    lines: Vec<String>,
    /// The error line of a shard that failed: it could not be sent the
    /// request, lost the link, or headed a counted reply wrongly.
    failed: Option<String>,
}

impl Part {
    /// The part of `shard`, which `sent` says took the request on that
    /// epoch or could not be sent it.
    fn sent(
        shard: String,
        sent: Result<u64, String>,
        owed: Option<usize>,
        tickets: Vec<(u64, u64)>,
    ) -> Part {
        Part {
            shard,
            epoch: *sent.as_ref().unwrap_or(&0),
            owed,
            tickets,
            lines: Vec::new(),
            failed: sent.err(),
        }
    }

    fn done(&self) -> bool {
        self.failed.is_some() || self.owed == Some(0)
    }

    /// Takes one line the shard sent: a counted fan-in part reads its count
    /// from the first, a `WAIT` part streams each on to the client under
    /// its cluster id, and every other part keeps it.
    fn take(&mut self, reply: &Reply, line: String, client: &mut Conn) {
        let Some(owed) = self.owed else {
            let header = match reply {
                Reply::FanIn(verb) => verb.header(),
                _ => None,
            };
            self.owed = header
                .and_then(|header| line.strip_prefix(header))
                .and_then(|n| n.trim().parse::<usize>().ok());
            if self.owed.is_none() {
                self.failed = Some(format!(
                    "ERR shard {}: unexpected reply {line:?}",
                    self.shard
                ));
            }
            return;
        };
        self.owed = Some(owed - 1);
        if let Reply::Wait(_) = reply {
            // A line no owed ticket names (e.g. a shard-side error)
            // answers the first.
            let (line, at) = to_cluster_id(&self.tickets, &line);
            self.tickets.remove(at.unwrap_or(0));
            client.queue_line(&line);
        } else {
            self.lines.push(line);
        }
    }
}

/// A single-shard forward (`SUBMIT`, `POLL` or `RESULT`) awaiting its one
/// line.
struct Forward {
    /// `SUBMIT`'s scenario (for failover re-submission) and whether it
    /// went to a stand-in replica because the primary was down.
    submit: Option<(String, bool)>,
    /// When the request left the router (feeds the per-shard
    /// forward-latency histogram on resolution).
    sent: Instant,
    /// The original client request, re-dispatched through
    /// [`route_request`] (which re-resolves ownership and failover)
    /// when the owed connection dies.
    request: Parsed,
    /// Remaining re-dispatch budget for this pipeline position.
    retries_left: u8,
    /// The trace context this forward was sent under
    /// ([`TraceContext::NONE`] when untraced): its round-trip is
    /// recorded as a `forward` span — the parent of every shard-side
    /// span the request produced — when the response arrives.
    trace: TraceContext,
}

impl Forward {
    /// What the client is owed once `part` is done: the line — or, when
    /// the connection died with the line owed and a re-dispatch is left,
    /// that re-dispatch: [`route_request`] re-resolves ownership (and
    /// ticket failover) from scratch, so the retry lands on a replica when
    /// one exists.
    fn answer(self, route: &mut Route<'_>, part: Part) -> Expect {
        let inner = route.inner;
        match part.failed {
            Some(_) if self.retries_left > 0 => {
                let mut retry = route_request(route, self.request);
                if let Expect::Shards {
                    reply: Reply::Forward(forward),
                    ..
                } = &mut retry
                {
                    forward.retries_left = self.retries_left - 1;
                }
                return retry;
            }
            Some(lost) => return Expect::Local(lost),
            None => {}
        }
        let sent = self.sent;
        inner
            .metrics
            .histogram_with(
                "router_forward_us",
                "Round-trip latency of single-shard forwards \
                 (SUBMIT/POLL/RESULT), router-side, in microseconds.",
                &[("shard", &part.shard)],
            )
            .record_duration(sent.elapsed());
        if self.trace.trace_id != 0 {
            // Recorded with the context it was *sent* under, so this
            // span's id is the parent the shard stitched its own spans to.
            inner
                .tracer
                .record_at("forward", self.trace, sent, sent.elapsed());
        }
        Expect::Local(match self.submit {
            Some(submit) => allocate_ticket(inner, &part, submit, self.trace),
            None => answer_ticket(inner, &part),
        })
    }
}

/// What a client is owed once every [`Part`] of an [`Expect::Shards`] is
/// done.
enum Reply {
    /// A forward's one line, its ticket id translated.
    Forward(Forward),
    /// A fan-in verb's one reply, built from every shard's.
    FanIn(FanIn),
    /// A cross-shard `WAIT`: these local error lines first, then every
    /// shard's `DONE`s streamed on in arrival order.
    Wait(Vec<String>),
}

/// One response position in a client's ordered pipeline (the router-side
/// mirror of the reactor's `Slot`).
enum Expect {
    /// The response text is known (may span multiple lines).
    Local(String),
    /// `BYE`, then close the connection.
    Quit,
    /// A reply owed by shards, one part each (one per `WAIT` group).
    Shards { reply: Reply, parts: Vec<Part> },
}

impl Expect {
    /// A forward's expectation: one line owed by `shard` on `epoch`.
    fn forward(
        shard: String,
        epoch: u64,
        tickets: Vec<(u64, u64)>,
        submit: Option<(String, bool)>,
        request: Parsed,
        trace: TraceContext,
    ) -> Expect {
        Expect::Shards {
            reply: Reply::Forward(Forward {
                submit,
                sent: Instant::now(),
                request,
                retries_left: 1,
                trace,
            }),
            parts: vec![Part::sent(shard, Ok(epoch), Some(1), tickets)],
        }
    }
}

/// What one client connection carries on top of its socket: the request
/// framer, its pinned shard-connection pool and the ordered pipeline of
/// owed responses.
struct FrontClient {
    /// Cuts received bytes into requests. Built with a zero payload cap: a
    /// `SHIP` frame is a shard-level request, so its declared bytes are
    /// counted and dropped, never buffered.
    framer: Framer,
    /// One distributed trace per client connection: every request routed
    /// on this connection forwards under a child of this context, so a
    /// SUBMIT/RUN/WAIT conversation stitches into a single EXPLAIN
    /// timeline across the router and every shard it touched.
    ctx: TraceContext,
    pool: ConnPool,
    expects: VecDeque<Expect>,
    /// A ticket verb framed while an earlier `SUBMIT` of this connection
    /// is still unanswered. Its cluster id does not exist until that
    /// answer is rewritten, so it — and everything behind it — is routed
    /// only then (`SUBMIT x` / `WAIT 1` pipelined in one burst must work
    /// however slow the shard is).
    held: Option<Parsed>,
    /// The peer closed its sending side; buffered requests and pending
    /// expectations still resolve.
    eof: bool,
    /// `QUIT` was answered: nothing further is parsed, and the connection
    /// closes once `BYE` has left.
    quit: bool,
}

impl FrontClient {
    /// Whether the front thread reads this client right now: not after
    /// end of input, and not under backpressure — a client that does not
    /// drain its responses, or whose pipeline is [`MAX_PIPELINED`] deep,
    /// or whose next request is [held](FrontClient::held), buffers no
    /// further requests.
    fn wants_read(&self, conn: &Conn) -> bool {
        !(self.eof || self.quit)
            && self.held.is_none()
            && self.expects.len() < MAX_PIPELINED
            && conn.pending_write() <= WRITE_HIGH_WATERMARK
    }
}

/// Whether routing `request` reads the ticket table.
fn reads_tickets(request: &Parsed) -> bool {
    matches!(
        request.verb,
        Ok(Verb::Poll(_) | Verb::Result(_) | Verb::Wait(_) | Verb::Explain(_))
    )
}

/// Whether a forwarded `SUBMIT` in `expects` has not been answered yet.
fn submit_pending(expects: &VecDeque<Expect>) -> bool {
    expects.iter().any(|expect| match expect {
        Expect::Shards {
            reply: Reply::Forward(forward),
            ..
        } => forward.submit.is_some(),
        _ => false,
    })
}

/// The router's front thread: every socket the router serves — the
/// listener, the wakeup channel, each client and each pooled shard
/// connection — on one poller, a sweep touching only the ready ones.
/// This is the reactor's connection core ([`crate::conn`]) with the
/// routing policy of this module in place of the daemon's response slots.
struct Front {
    inner: Arc<RouterInner>,
    poller: Poller,
    listener: TcpListener,
    wakeup_rx: TcpStream,
    clients: Slab<FrontClient>,
    links: Slab<ShardLink>,
}

impl Front {
    /// The front thread body: wait for readiness, sweep exactly what is
    /// ready, repeat until stopped; then tell every open client the
    /// router is going away — best-effort, never waiting on one.
    fn run(mut self) {
        let mut events = Vec::new();
        loop {
            // No timeout: everything that can come due — a request, a
            // shard reply, a drained socket, `Router::stop` — is a
            // readiness event on this poller.
            let _ = self.poller.wait(&mut events, None);
            #[cfg(test)]
            self.inner.front_waits.fetch_add(1, Ordering::Relaxed);
            if self.inner.stop.load(Ordering::SeqCst) {
                break;
            }
            for &token in &events {
                match token {
                    FRONT_WAKEUP => drain_wakeup(&mut self.wakeup_rx),
                    FRONT_LISTENER => self.accept(),
                    token if token >= FRONT_LINKS => self.sweep_link(token - FRONT_LINKS),
                    token => self.sweep_client(token - FRONT_CLIENTS, true),
                }
            }
        }
        for Entry { mut conn, .. } in self.clients.drain() {
            conn.queue_line("ERR service is shut down");
            conn.close();
        }
    }

    fn accept(&mut self) {
        for conn in accept_ready(&self.listener) {
            let client = FrontClient {
                framer: Framer::new(protocol::parse_request, protocol::MAX_LINE_LEN, 0),
                ctx: self.inner.tracer.mint_context(),
                pool: ConnPool::default(),
                expects: VecDeque::new(),
                held: None,
                eof: false,
                quit: false,
            };
            self.clients.insert(&mut self.poller, conn, client);
        }
    }

    /// A shard connection is ready: take in the reply bytes it has, push
    /// out request bytes it still owes, then let the one client it
    /// belongs to resolve what became answerable.
    fn sweep_link(&mut self, slot: usize) {
        let Some(Entry { conn, state: link }) = self.links.get_mut(slot) else {
            return;
        };
        if link.closed {
            return;
        }
        let read = conn.read(MAX_READ_PER_SWEEP, |bytes| link.replies.push(bytes));
        link.closed = !matches!(read, Ok(ref read) if !read.eof) || conn.flush().is_err();
        let owner = link.owner;
        if link.closed {
            // Replies received before the close are still owed to the
            // client; the socket itself has nothing more to report.
            link.replies.finish();
            self.links.detach(&mut self.poller, slot);
        } else {
            self.links.settle(&mut self.poller, slot, true);
        }
        self.sweep_client(owner, false);
    }

    /// One step of one client: read what it sent (when `readable`), route
    /// every request the pipeline has room for — each forwarded to its
    /// shard on parse, so shards work concurrently on one client's burst
    /// — resolve the head of the pipeline as far as it goes, flush, then
    /// settle the registration or reap the connection.
    fn sweep_client(&mut self, slot: usize, readable: bool) {
        let Some(Entry {
            conn,
            state: client,
        }) = self.clients.get_mut(slot)
        else {
            return;
        };
        let mut dead = false;
        if readable && client.wants_read(conn) {
            match conn.read(MAX_READ_PER_SWEEP, |bytes| client.framer.push(bytes)) {
                Ok(read) => client.eof = read.eof,
                Err(_) => dead = true,
            }
        }
        if !dead {
            let mut route = Route {
                inner: &self.inner,
                ctx: client.ctx,
                owner: slot,
                pool: &mut client.pool,
                links: &mut self.links,
                poller: &mut self.poller,
            };
            // A resolve pass before every routed request: a ticket verb
            // must observe the mappings that resolving its predecessors'
            // responses creates.
            loop {
                client.quit |= resolve_head(&mut route, &mut client.expects, conn);
                if client.quit || client.expects.len() >= MAX_PIPELINED {
                    break;
                }
                // The held request first, else the next framed one; at
                // end of input a final unterminated line is a request too.
                let held = client.held.take().map(Frame::Request);
                let frame = held
                    .or_else(|| client.framer.next_frame())
                    .or_else(|| client.eof.then(|| client.framer.finish()).flatten());
                let expect = match frame {
                    None => break,
                    Some(Frame::Request(request))
                        if reads_tickets(&request) && submit_pending(&client.expects) =>
                    {
                        client.held = Some(request);
                        break;
                    }
                    Some(Frame::Request(request)) => route_request(&mut route, request),
                    Some(Frame::LineTooLong) => Expect::Local(format!(
                        "ERR line too long (max {} bytes)",
                        protocol::MAX_LINE_LEN
                    )),
                    Some(Frame::ShipTooLarge) => Expect::Local(SHIP_IS_SHARD_LEVEL.into()),
                };
                client.expects.push_back(expect);
            }
            dead = conn.flush().is_err();
        }
        let drained =
            client.quit || (client.eof && client.held.is_none() && !client.framer.has_buffered());
        if dead || (drained && client.expects.is_empty() && conn.pending_write() == 0) {
            let pooled = std::mem::take(&mut client.pool.conns);
            self.clients.remove(&mut self.poller, slot);
            for link in pooled.into_values() {
                self.links.remove(&mut self.poller, link);
            }
        } else {
            let want_read = client.wants_read(conn);
            self.clients.settle(&mut self.poller, slot, want_read);
        }
    }
}

/// What the router answers a client that sends it a `SHIP` frame.
const SHIP_IS_SHARD_LEVEL: &str = "ERR SHIP is a shard-level verb";

/// Forwards one parsed request, returning the expectation that will
/// produce its response.
fn route_request(route: &mut Route<'_>, request: Parsed) -> Expect {
    let (inner, conn) = (route.inner, route.ctx);
    let verb = match &request.verb {
        Ok(verb) => verb,
        // Shard-level, well-formed or not.
        Err(_) if request.kind == Kind::Export => {
            return Expect::Local(protocol::unknown_command(&request.token))
        }
        Err(reply) => return Expect::Local(reply.clone()),
    };
    match verb {
        Verb::Ping => Expect::Local("PONG".into()),
        Verb::List => {
            let mut out = String::from("SCENARIOS");
            for name in inner.spec.scenario_names() {
                out.push(' ');
                out.push_str(name);
            }
            Expect::Local(out)
        }
        Verb::Shards => {
            let topology = lock(&inner.topology);
            let mut shards: Vec<&ShardState> = topology.shards.iter().collect();
            shards.sort_by(|a, b| a.name.cmp(&b.name));
            let mut out = format!("SHARDS {}", shards.len());
            for shard in shards {
                let owned = inner
                    .spec
                    .namespaces()
                    .iter()
                    .filter(|ns| topology.map.owner_of_namespace(ns) == Some(shard.name.as_str()))
                    .count();
                out.push_str(&format!(
                    "\nSHARD {} addr={} namespaces={owned}",
                    shard.name, shard.addr
                ));
            }
            Expect::Local(out)
        }
        Verb::Submit(scenario) => {
            let Some(namespace) = inner.spec.namespace_of(scenario).map(str::to_string) else {
                return Expect::Local(format!("ERR unknown scenario {scenario:?}"));
            };
            let owners = inner.owners(&namespace);
            let Some(primary) = owners.first().cloned() else {
                return Expect::Local("ERR cluster has no shards".into());
            };
            // Highest-ranked live owner first; when every owner is down,
            // the primary's forward answers the error (`circuit open`).
            let mut candidates: Vec<String> = owners
                .iter()
                .filter(|o| !inner.shard_down(o))
                .cloned()
                .collect();
            if candidates.is_empty() {
                candidates.push(primary.clone());
            }
            // One `forward` span per submission; its id becomes the
            // parent of every span the shard records for this request.
            let child = inner.tracer.child_context(conn);
            let line = with_ctx(child, &format!("SUBMIT {scenario}"));
            let mut last_err = None;
            for owner in candidates {
                match forward(route, &owner, &line) {
                    Ok(epoch) => {
                        let degraded = owner != primary;
                        if degraded {
                            inner.failover_counter(&primary).inc();
                        }
                        let submit = Some((scenario.clone(), degraded));
                        return Expect::forward(owner, epoch, Vec::new(), submit, request, child);
                    }
                    Err(err) => last_err = Some(err),
                }
            }
            Expect::Local(last_err.unwrap_or_else(|| "ERR cluster has no shards".into()))
        }
        Verb::Poll(global) | Verb::Result(global) => {
            let global = *global;
            let verb = if let Verb::Poll(_) = verb {
                "POLL"
            } else {
                "RESULT"
            };
            // A ticket homed on a declared-dead shard is re-homed onto a
            // warm replica *before* forwarding.
            let entry = match inner.home(global, false) {
                Ok(entry) => entry,
                Err(line) => return Expect::Local(line),
            };
            let send = |route: &mut Route<'_>, entry: TicketEntry| {
                // Ticket verbs ride on the *submitting* trace, not the
                // connection's: the poll round-trip shows up on the same
                // EXPLAIN timeline as the submission it asks about.
                let child = inner.tracer.child_context(TraceContext {
                    trace_id: entry.trace,
                    span_id: 0,
                    parent_id: 0,
                });
                let line = with_ctx(child, &format!("{verb} {}", entry.local));
                let epoch = forward(route, &entry.shard, &line)?;
                let tickets = vec![(global, entry.local)];
                Ok(Expect::forward(
                    entry.shard,
                    epoch,
                    tickets,
                    None,
                    request.clone(),
                    child,
                ))
            };
            match send(route, entry) {
                Ok(expect) => expect,
                // The forward just failed — maybe the shard died between
                // heartbeats. One immediate failover attempt.
                Err(err) => match inner.home(global, true) {
                    Ok(rehomed) => send(route, rehomed).unwrap_or_else(Expect::Local),
                    Err(_) => Expect::Local(err),
                },
            }
        }
        Verb::Run => fan_in(route, FanIn::Run),
        Verb::Stats => fan_in(route, FanIn::Stats),
        Verb::Snapshot(base) => fan_in(route, FanIn::Snapshot(base.clone())),
        Verb::Metrics => fan_in(route, FanIn::Metrics),
        // Each shard returns up to <n> spans / slow traces; the merged
        // reply may carry up to <n> per shard (documented in the protocol).
        Verb::TraceDump(n) => fan_in(route, FanIn::TraceDump(*n)),
        Verb::TraceSlow(n) => fan_in(route, FanIn::TraceSlow(*n)),
        Verb::ExplainTrace(trace) => fan_in(route, FanIn::Explain(*trace)),
        Verb::Explain(global) => match lock(&inner.tickets).lookup(*global) {
            Some(entry) => fan_in(route, FanIn::Explain(entry.trace)),
            None => Expect::Local(format!("ERR unknown ticket {global}")),
        },
        Verb::Wait(globals) => {
            let mut parts = Vec::new();
            let pre = forward_waits(route, globals, false, &mut parts);
            Expect::Shards {
                reply: Reply::Wait(pre),
                parts,
            }
        }
        Verb::Quit => Expect::Quit,
        // Shard-level verbs: a client talks to the shard daemon for these.
        Verb::Restore(_) | Verb::Export { .. } => {
            Expect::Local(protocol::unknown_command(&request.token))
        }
        Verb::Ship { .. } => Expect::Local(SHIP_IS_SHARD_LEVEL.into()),
    }
}

/// Forwards the `WAIT` for `globals`: one per shard serving any of them,
/// appending a [`Part`] owing one line per ticket for each that went out.
/// A ticket whose shard is declared dead — or every ticket, when `lost`
/// says the shard just died under them — is first re-homed onto a live
/// replica. Returns one error line per ticket that could not be waited on.
fn forward_waits(
    route: &mut Route<'_>,
    globals: &[u64],
    lost: bool,
    parts: &mut Vec<Part>,
) -> Vec<String> {
    let inner = route.inner;
    let mut errors = Vec::new();
    // Per shard, the `(cluster id, shard-local id)` pairs in request order.
    let mut groups: Vec<(String, Vec<(u64, u64)>)> = Vec::new();
    for &global in globals {
        match inner.home(global, lost) {
            Ok(entry) => match groups.iter_mut().find(|(shard, _)| *shard == entry.shard) {
                Some((_, tickets)) => tickets.push((global, entry.local)),
                None => groups.push((entry.shard, vec![(global, entry.local)])),
            },
            Err(line) => errors.push(line),
        }
    }
    for (shard, tickets) in groups {
        let locals: Vec<String> = tickets.iter().map(|(_, local)| local.to_string()).collect();
        let line = with_ctx(
            inner.tracer.child_context(route.ctx),
            &format!("WAIT {}", locals.join(" ")),
        );
        match forward(route, &shard, &line) {
            Ok(epoch) => parts.push(Part::sent(shard, Ok(epoch), Some(tickets.len()), tickets)),
            Err(err) => errors.extend(tickets.iter().map(|_| err.clone())),
        }
    }
    errors
}

/// Sends `verb` to every shard, returning the expectation that collects
/// their replies. A shard that cannot be sent the verb starts out failed;
/// a one-line verb that no shard could be sent answers the first error at
/// once.
fn fan_in(route: &mut Route<'_>, verb: FanIn) -> Expect {
    let (inner, conn) = (route.inner, route.ctx);
    let shards: Vec<String> = lock(&inner.topology).map.shards().to_vec();
    if shards.is_empty() {
        return Expect::Local("ERR cluster has no shards".into());
    }
    let mut parts = Vec::new();
    for shard in shards {
        let line = with_ctx(inner.tracer.child_context(conn), &verb.line(&shard));
        let sent = forward(route, &shard, &line);
        let owed = verb.header().map_or(Some(1), |_| None);
        parts.push(Part::sent(shard, sent, owed, Vec::new()));
    }
    if verb.header().is_none() && parts.iter().all(|part| part.failed.is_some()) {
        return Expect::Local(parts.swap_remove(0).failed.expect("every part failed"));
    }
    Expect::Shards {
        reply: Reply::FanIn(verb),
        parts,
    }
}

/// The ` degraded=<shards>` suffix appended to degraded `RUN`/`STATS`
/// replies: the union of shards skipped by this fan-in and shards the
/// heartbeat currently declares dead, sorted and comma-joined. Empty when
/// the cluster is healthy.
fn degraded_suffix(inner: &Arc<RouterInner>, skipped: &[String]) -> String {
    let mut names = inner.degraded_shards();
    for shard in skipped {
        if !names.contains(shard) {
            names.push(shard.clone());
        }
    }
    if names.is_empty() {
        return String::new();
    }
    names.sort();
    format!(" degraded={}", names.join(","))
}

/// Injects `shard="<name>"` as the *first* label of a Prometheus sample
/// line (`name{a="b"} v` or `name v`). Comment lines are never passed
/// here; the registry never renders an empty `{}` block.
fn inject_shard_label(line: &str, shard: &str) -> String {
    match line.find('{') {
        Some(brace) if line.find(' ').is_none_or(|space| brace < space) => {
            format!(
                "{}{{shard=\"{}\",{}",
                &line[..brace],
                shard,
                &line[brace + 1..]
            )
        }
        _ => match line.split_once(' ') {
            Some((name, rest)) => format!("{name}{{shard=\"{shard}\"}} {rest}"),
            None => line.to_string(),
        },
    }
}

/// Builds a fan-in's one reply from every shard's part. What a failed
/// shard costs depends on the verb: `RUN` and `STATS` skip it and name it
/// in ` degraded=`, `METRICS` keeps a comment line in its place, and
/// `SNAPSHOT` (removing the files the other shards wrote), `TRACE DUMP`,
/// `TRACE SLOW` and `EXPLAIN` fail whole — a partial snapshot, dump or
/// timeline silently lies. A one-line verb also fails whole on a shard that
/// answered an error or an unexpected line.
fn render_fan_in(inner: &Arc<RouterInner>, verb: &FanIn, parts: &[Part]) -> String {
    let Some(header) = verb.header() else {
        return fold_lines(inner, verb, parts);
    };
    let mut out = Vec::new();
    if let FanIn::Metrics = verb {
        // Router-own families first (already carry their own labels;
        // `router_*` names cannot collide with shard-side families),
        // then each shard's exposition relabeled. `# HELP` / `# TYPE`
        // comments repeat per shard — keep the first occurrence.
        let mut seen_comments: HashSet<String> = HashSet::new();
        for line in inner.metrics.render() {
            if line.starts_with('#') {
                seen_comments.insert(line.clone());
            }
            out.push(line);
        }
        for part in parts {
            if let Some(reason) = &part.failed {
                // A dead shard must not kill the scrape — that is
                // exactly when monitoring matters.
                out.push(format!("# shard {} unavailable: {reason}", part.shard));
                continue;
            }
            for line in &part.lines {
                if line.starts_with('#') {
                    if seen_comments.insert(line.clone()) {
                        out.push(line.clone());
                    }
                } else {
                    out.push(inject_shard_label(line, &part.shard));
                }
            }
        }
        for shard in inner.degraded_shards() {
            out.push(format!(
                "# shard {shard} degraded: declared dead by heartbeat; replicas serving"
            ));
        }
    } else if let Some(failed) = parts.iter().find_map(|part| part.failed.clone()) {
        return failed;
    } else {
        for part in parts {
            for line in &part.lines {
                out.push(format!("{line} shard={}", part.shard));
            }
        }
    }
    match verb {
        FanIn::Explain(trace) => {
            // The router contributes its own spans for the trace — the
            // `forward` round-trips that parent each shard's spans.
            let anchor = inner.tracer.wall_anchor_us();
            for span in inner.tracer.trace_spans(*trace) {
                out.push(format!(
                    "{} shard=router",
                    crate::net::render_event(anchor, &span)
                ));
            }
            // Wall-clock anchoring makes start times comparable across
            // processes; the stable sort keeps intra-process order for
            // ties.
            out.sort_by_key(|line| field_of(line, "start_us="));
        }
        FanIn::TraceSlow(_) => out.sort_by_key(|line| std::cmp::Reverse(field_of(line, "dur_us="))),
        _ => {}
    }
    let mut reply = format!("{header} {}", out.len());
    for line in out {
        reply.push('\n');
        reply.push_str(&line);
    }
    reply
}

/// [`render_fan_in`] for `RUN`, `STATS` and `SNAPSHOT`: sums every
/// shard's one line.
fn fold_lines(inner: &Arc<RouterInner>, verb: &FanIn, parts: &[Part]) -> String {
    // `STATS` sums in `STAT_KEYS` order; `RUN` and `SNAPSHOT` into the first.
    let mut sums = [0u64; STAT_KEYS.len()];
    // The shards `RUN`/`STATS` lost, and those that answered `OK` (whose
    // `SNAPSHOT` file is on disk).
    let (mut skipped, mut written, mut error) = (Vec::new(), Vec::new(), None);
    for part in parts {
        let shard = &part.shard;
        if let Some(lost) = &part.failed {
            match verb {
                FanIn::Snapshot(_) => {
                    error.get_or_insert_with(|| lost.clone());
                }
                _ => skipped.push(shard.clone()),
            }
            continue;
        }
        let line = &part.lines[0];
        let count = line.strip_prefix("OK ").and_then(|n| n.parse::<u64>().ok());
        match (verb, count) {
            _ if line.starts_with("ERR ") => {
                error.get_or_insert_with(|| format!("ERR shard {shard}: {}", &line[4..]));
            }
            (FanIn::Stats, _) if line.starts_with("STATS ") => {
                for (key, value) in line.split_whitespace().filter_map(|t| t.split_once('=')) {
                    let slot = STAT_KEYS.iter().position(|k| *k == key);
                    if let (Some(slot), Ok(value)) = (slot, value.parse::<u64>()) {
                        sums[slot] += value;
                    }
                }
            }
            (FanIn::Run | FanIn::Snapshot(_), Some(n)) => {
                sums[0] += n;
                written.push(shard);
            }
            _ => {
                error
                    .get_or_insert_with(|| format!("ERR shard {shard}: unexpected reply {line:?}"));
            }
        }
    }
    match (verb, error) {
        (FanIn::Snapshot(base), Some(err)) => {
            // A failed fan-in must not leave partial per-shard files
            // behind: remove what was written.
            for shard in written {
                let _ = std::fs::remove_file(format!("{base}.{shard}"));
            }
            err
        }
        (_, Some(err)) => err,
        (FanIn::Stats, None) => {
            let shard_count = lock(&inner.topology).map.len();
            let mut out = String::from("STATS");
            for (key, value) in STAT_KEYS.iter().zip(sums) {
                out.push_str(&format!(" {key}={value}"));
            }
            out.push_str(&format!(" cluster_shards={shard_count}"));
            out.push_str(&degraded_suffix(inner, &skipped));
            out
        }
        (FanIn::Run, None) => {
            // The cluster's queues drained: under K > 1 the replicas are
            // synced on the next heartbeat.
            lock(&inner.replication).due = true;
            format!("OK {}{}", sums[0], degraded_suffix(inner, &skipped))
        }
        (_, None) => format!("OK {}", sums[0]),
    }
}

/// Prefixes `line` with the `CTX <hex>` wire header when `ctx` carries a
/// real trace, and leaves it untouched otherwise — a shard that never
/// sees the prefix behaves exactly as it did before the tracing upgrade.
fn with_ctx(ctx: TraceContext, line: &str) -> String {
    if ctx.trace_id == 0 {
        return line.to_string();
    }
    format!("CTX {} {line}", ctx.encode())
}

/// Extracts the numeric value of the `<key><value>` token (e.g.
/// `start_us=173…`) from a rendered timeline or slow-trace line, or 0
/// when absent — the merge sort keys of [`render_fan_in`].
fn field_of(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(key))
        .and_then(|value| value.parse().ok())
        .unwrap_or(0)
}

/// Sends one line to `shard` in one attempt unless it is down (then it
/// fails fast without touching the socket: only the heartbeat dials a
/// down shard). A connection the shard refuses, or a fresh link that
/// fails its write, is one failed exchange and an error at once; only a pooled link that fails
/// its write (stale: the shard restarted) is replaced, once and at once.
/// Retrying lives above the forward: an expectation re-dispatches a lost
/// reply once, `SUBMIT` walks the live owners and a ticket fails over.
/// The line is queued on the pooled connection and leaves as the shard's
/// socket accepts it — a shard that stopped reading costs memory bounded
/// by the client's pipeline depth, never the front thread. Returns the
/// epoch of the connection the line went out on — the expectation must
/// read its response from that epoch only. The error value is a
/// ready-to-emit protocol line.
fn forward(route: &mut Route<'_>, shard: &str, line: &str) -> Result<u64, String> {
    let inner = route.inner;
    let unavailable = |reason: &str| format!("ERR shard {shard} unavailable ({reason})");
    let Some(addr) = lock(&inner.topology).addr_of(shard) else {
        return Err(unavailable("not a member"));
    };
    // A rewired shard invalidates the cached connection.
    if route
        .link(shard)
        .is_some_and(|(_, link)| link.state.addr != addr)
    {
        route.drop_link(shard);
        inner.reconnects.inc();
    }
    if inner.shard_down(shard) {
        return Err(unavailable("circuit open"));
    }
    let mut pooled = route.link(shard).is_some();
    loop {
        if !pooled {
            let connected = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)
                .and_then(Conn::new)
                .and_then(|conn| route.open(shard, addr, conn));
            if let Err(err) = connected {
                inner.note_failure(shard);
                return Err(unavailable(&err.to_string()));
            }
        }
        let (slot, link) = route.link(shard).expect("pooled above");
        let epoch = link.state.epoch;
        link.conn.queue_line(line);
        match link.conn.flush() {
            Ok(_) => {
                route.links.settle(route.poller, slot, true);
                return Ok(epoch);
            }
            Err(err) => {
                // Dropping the link retires its epoch: responses still owed
                // on it resolve to "shard unavailable" instead of consuming
                // this request's reply off the fresh connection — which
                // makes the one reconnect of a stale link safe.
                route.drop_link(shard);
                inner.reconnects.inc();
                if !pooled {
                    inner.note_failure(shard);
                    return Err(unavailable(&err.to_string()));
                }
                pooled = false;
            }
        }
    }
}

/// Takes one response line owed by `shard` on the connection with the
/// given `epoch` out of that connection's reply buffer (the front thread
/// fills it as the socket turns readable). A missing, retired (epoch
/// mismatch) or rewired connection means the response is lost — never
/// read a newer connection's lines for an older request.
fn poll_shard(route: &mut Route<'_>, shard: &str, epoch: u64) -> Polled {
    let current_addr = lock(&route.inner.topology).addr_of(shard);
    let Some((_, Entry { state: link, .. })) = route.link(shard) else {
        return Polled::Dead;
    };
    if link.epoch != epoch {
        // The connection this response was owed on is gone; the current
        // one carries other requests' replies.
        return Polled::Dead;
    }
    if current_addr == Some(link.addr) {
        if let Some(line) = link.replies.next_line() {
            return Polled::Line(line);
        }
        if !link.closed {
            return Polled::Pending;
        }
    }
    // Closed and drained — or rewired mid-flight: the old process (and
    // the response) is gone.
    route.drop_link(shard);
    Polled::Dead
}

/// Resolves as many leading expectations as currently possible, queueing
/// response lines for the client in order. Returns whether the client
/// said `QUIT` (answered `BYE`; whatever was pipelined behind it is
/// dropped, as a daemon does).
fn resolve_head(route: &mut Route<'_>, expects: &mut VecDeque<Expect>, client: &mut Conn) -> bool {
    let inner = route.inner;
    loop {
        let Some(head) = expects.front_mut() else {
            return false;
        };
        match head {
            Expect::Local(_) => {
                let Some(Expect::Local(text)) = expects.pop_front() else {
                    unreachable!("front matched Local");
                };
                client.queue_line(&text);
            }
            Expect::Quit => {
                client.queue_line("BYE");
                expects.clear();
                return true;
            }
            Expect::Shards { reply, parts } => {
                if let Reply::Wait(pre) = reply {
                    for line in pre.drain(..) {
                        client.queue_line(&line);
                    }
                }
                let mut pending = false;
                let mut i = 0;
                while i < parts.len() {
                    while !parts[i].done() {
                        let part = &mut parts[i];
                        match poll_shard(route, &part.shard, part.epoch) {
                            Polled::Line(line) => {
                                inner.note_success(&part.shard);
                                part.take(reply, line, client);
                            }
                            Polled::Pending => {
                                pending = true;
                                break;
                            }
                            Polled::Dead => {
                                inner.note_failure(&part.shard);
                                part.failed = Some(format!(
                                    "ERR shard {} unavailable (connection lost)",
                                    part.shard
                                ));
                                // A shard died mid-`WAIT`: re-home every
                                // still-owed ticket on a live replica and
                                // resume waiting there.
                                if let Reply::Wait(_) = reply {
                                    let orphans: Vec<u64> =
                                        part.tickets.drain(..).map(|(global, _)| global).collect();
                                    for line in forward_waits(route, &orphans, true, parts) {
                                        client.queue_line(&line);
                                    }
                                }
                            }
                        }
                    }
                    i += 1;
                }
                if pending {
                    return false;
                }
                let Some(Expect::Shards { reply, mut parts }) = expects.pop_front() else {
                    unreachable!("front matched Shards");
                };
                // The answer (or a forward's re-dispatch) takes the head.
                let answer = match reply {
                    Reply::Wait(_) => continue,
                    Reply::FanIn(verb) => Expect::Local(render_fan_in(inner, &verb, &parts)),
                    Reply::Forward(forward) => {
                        forward.answer(route, parts.pop().expect("a forward has one part"))
                    }
                };
                expects.push_front(answer);
            }
        }
    }
}

/// Answers a `SUBMIT` the part's shard took: its `TICKET <local>` gets the
/// next cluster id, remembering the scenario (for failover re-submission),
/// whether a stand-in took it, and the submission's trace (for `EXPLAIN`).
/// Any other line passes through.
fn allocate_ticket(
    inner: &RouterInner,
    part: &Part,
    (scenario, degraded): (String, bool),
    trace: TraceContext,
) -> String {
    let line = &part.lines[0];
    let Some(local) = line
        .strip_prefix("TICKET ")
        .and_then(|s| s.parse::<u64>().ok())
    else {
        return line.clone();
    };
    let global = lock(&inner.tickets).allocate(
        &part.shard,
        local,
        &scenario,
        degraded,
        trace.trace_id,
        MAX_TICKETS,
    );
    inner.remaps.inc();
    format!("TICKET {global}")
}

/// Answers a `POLL` or `RESULT`: the ticket id goes back to the cluster
/// id, and a `RESULT` served by a stand-in replica is flagged with a
/// trailing ` degraded=<shard>` — the payload is correct (warm replica
/// cache) but served by a non-primary.
fn answer_ticket(inner: &RouterInner, part: &Part) -> String {
    let (mut line, _) = to_cluster_id(&part.tickets, &part.lines[0]);
    let degraded = |&(global, _): &(u64, u64)| lock(&inner.tickets).degraded(global);
    if line.starts_with("RESULT ") && part.tickets.iter().any(degraded) {
        line.push_str(&format!(" degraded={}", part.shard));
    }
    line
}

/// Rewrites the shard-local ticket id of `DONE <id> …`, `RESULT <id> …`,
/// `ERR unknown ticket <id>` and `ERR ticket <id> …` to the cluster id
/// `tickets` pairs it with, returning the line and that pair's position;
/// any other line, or an id `tickets` does not name, passes through.
fn to_cluster_id(tickets: &[(u64, u64)], line: &str) -> (String, Option<usize>) {
    let prefixes = ["DONE ", "RESULT ", "ERR unknown ticket ", "ERR ticket "];
    let rewritten = prefixes.iter().find_map(|prefix| {
        let rest = line.strip_prefix(prefix)?;
        let (id, tail) = rest.split_at(rest.find(' ').unwrap_or(rest.len()));
        let local = id.parse::<u64>().ok()?;
        let at = tickets.iter().position(|&(_, l)| l == local)?;
        Some((format!("{prefix}{}{tail}", tickets[at].0), Some(at)))
    });
    rewritten.unwrap_or_else(|| (line.to_string(), None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn circuit_breaker_walks_closed_open_closed() {
        for threshold in 1..=4 {
            let mut failures = 0;
            for _ in 1..threshold {
                assert_eq!(
                    tally(&mut failures, false, threshold),
                    None,
                    "below {threshold}"
                );
            }
            let opened = tally(&mut failures, false, threshold);
            assert_eq!(opened, Some(CircuitState::Open), "{threshold} reached");
            assert_eq!(tally(&mut failures, false, threshold), None, "stays open");
            let closed = tally(&mut failures, true, threshold);
            assert_eq!(closed, Some(CircuitState::Closed), "one success closes");
            assert_eq!(failures, 0);
            assert_eq!(tally(&mut failures, true, threshold), None, "stays closed");
        }
    }

    /// Only a note that flips a member shard between up and down moves
    /// its state gauge, and a note on a shard that is not a member
    /// records nothing.
    #[test]
    fn a_note_publishes_the_gauge_when_the_shard_flips() {
        let spec = ClusterSpec::new([("scen", "ns")]).expect("spec");
        let shards = vec![("s0".to_string(), "127.0.0.1:0".parse().expect("addr"))];
        let config = RouterConfig {
            heartbeat_interval: Duration::from_secs(3600),
            heartbeat_misses: 2,
            ..RouterConfig::default()
        };
        let router = Router::bind_with(spec, shards, "127.0.0.1:0", config).expect("bind");
        // Nothing listens on port 0: wait out the heartbeat's one miss.
        let missed = "router_heartbeat_misses_total{shard=\"s0\"} 1";
        let deadline = Instant::now() + Duration::from_secs(10);
        while !router.metrics().render().iter().any(|l| l == missed) {
            assert!(
                Instant::now() < deadline,
                "the first heartbeat never missed"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let inner = &router.inner;
        let gauge = "router_circuit_state{shard=\"s0\"} ";
        let state = || {
            router
                .metrics()
                .render()
                .into_iter()
                .find(|l| l.starts_with(gauge))
        };
        inner.note_success("s0");
        for (failures, expected) in [(1, "0"), (2, "2"), (9, "2")] {
            (0..failures).for_each(|_| inner.note_failure("s0"));
            assert_eq!(
                state(),
                Some(format!("{gauge}{expected}")),
                "{failures} failures"
            );
            inner.note_success("s0");
            assert_eq!(state(), Some(format!("{gauge}0")), "after {failures}");
        }
        inner.note_failure("ghost");
        assert!(!lock(&inner.health).contains_key("ghost"));
        router.stop();
    }

    #[test]
    fn ticket_table_remaps_onto_a_replica_and_flags_degraded() {
        let mut table = TicketTable::default();
        let global = table.allocate("a", 7, "scen", false, 0x77, 8);
        let entry = table.lookup(global).expect("allocated entry");
        assert_eq!((entry.shard.as_str(), entry.local), ("a", 7));
        assert!(!table.degraded(global));

        assert!(table.remap(global, "b", 3), "known id remaps");
        let entry = table.lookup(global).expect("remapped entry");
        assert_eq!((entry.shard.as_str(), entry.local), ("b", 3));
        assert_eq!(entry.scenario, "scen");
        assert_eq!(entry.trace, 0x77, "remap keeps the submitting trace");
        assert!(entry.degraded && table.degraded(global));

        table.purge_shard("b");
        assert!(table.lookup(global).is_none());
        assert!(!table.remap(999, "c", 1), "unknown ids do not remap");
    }

    #[test]
    fn to_cluster_id_names_only_tickets_the_request_names() {
        // Each line as a shard sends it, then as the client reads it; an
        // id the request does not name (`POLL`'s `DONE` names none) and
        // any other line pass through.
        let rows = [
            ("DONE 8 entries=0", "DONE 2 entries=0", Some(1)),
            ("RESULT 7 entries=1", "RESULT 1 entries=1", Some(0)),
            ("ERR unknown ticket 8", "ERR unknown ticket 2", Some(1)),
            (
                "ERR ticket 7 is not finished",
                "ERR ticket 1 is not finished",
                Some(0),
            ),
            ("DONE entries=0", "DONE entries=0", None),
            ("ERR unknown ticket 9", "ERR unknown ticket 9", None),
        ];
        for (line, client, at) in rows {
            assert_eq!(to_cluster_id(&[(1, 7), (2, 8)], line), (client.into(), at));
        }
    }

    #[test]
    fn hex_decode_round_trips_and_rejects_garbage() {
        assert_eq!(hex_decode(""), Some(Vec::new()));
        assert_eq!(hex_decode("00ff10"), Some(vec![0x00, 0xff, 0x10]));
        assert_eq!(hex_decode("abc"), None, "odd length");
        assert_eq!(hex_decode("zz"), None, "non-hex digit");
    }

    /// The three failover telemetry families render — at zero, with the
    /// shard label — from the moment the router binds, so a scrape never
    /// misses them just because nothing failed yet (heartbeat misses,
    /// failovers and circuit state).
    #[test]
    fn per_shard_failover_families_render_from_bind() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind responder");
        let addr = listener.local_addr().expect("responder addr");
        // A minimal PING responder so heartbeat probes succeed. The
        // thread parks in accept() and dies with the test process.
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                let mut buf = [0u8; 64];
                let _ = stream.read(&mut buf);
                let _ = stream.write_all(b"PONG\n");
            }
        });
        let spec = ClusterSpec::new([("scen", "ns")]).expect("spec");
        let config = RouterConfig {
            heartbeat_interval: Duration::from_millis(20),
            heartbeat_timeout: Duration::from_millis(200),
            ..RouterConfig::default()
        };
        let router = Router::bind_with(spec, vec![("s0".to_string(), addr)], "127.0.0.1:0", config)
            .expect("bind router");
        let lines = router.metrics().render();
        for needle in [
            "router_circuit_state{shard=\"s0\"} 0",
            "router_heartbeat_misses_total{shard=\"s0\"} 0",
            "router_failovers_total{shard=\"s0\"} 0",
        ] {
            assert!(
                lines.iter().any(|l| l.starts_with(needle)),
                "family {needle:?} missing from the bind-time exposition:\n{lines:#?}"
            );
        }
        assert_eq!(router.circuit_state("s0"), CircuitState::Closed);
        assert_eq!(router.circuit_state("ghost"), CircuitState::Closed);
        router.stop();
    }

    /// The one-shot helper reads its reply through a buffer — not one
    /// `read(2)` per byte — however the reply is segmented: a 1 MiB line
    /// (an `EXPORT` reply's size class) written in uneven pieces with
    /// pauses arrives whole, the `SHIP`-style payload reaches the shard
    /// verbatim, and a peer that closes mid-line is an error, never a
    /// truncated reply.
    #[test]
    fn one_shot_reads_a_large_reply_written_in_several_pieces() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind responder");
        let addr = listener.local_addr().expect("responder addr");
        let line: Vec<u8> = (0..1 << 20).map(|i| b'a' + (i % 23) as u8).collect();
        let reply = line.clone();
        let responder = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("first exchange");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut head = String::new();
            reader.read_line(&mut head).expect("head line");
            let mut payload = [0u8; 5];
            reader.read_exact(&mut payload).expect("payload");
            let mut stream = stream;
            for piece in reply.chunks(300_007) {
                stream.write_all(piece).expect("piece");
                std::thread::sleep(Duration::from_millis(5));
            }
            stream.write_all(b"  \r\n").expect("terminator");
            // Second exchange: half a line, then close.
            let (mut stream, _) = listener.accept().expect("second exchange");
            let mut export = String::new();
            BufReader::new(stream.try_clone().expect("clone"))
                .read_line(&mut export)
                .expect("second head");
            stream.write_all(b"SHIPMENT 00").expect("half a line");
            (head, payload)
        });
        let timeout = Duration::from_secs(10);
        let got = one_shot(addr, timeout, timeout, "SHIP ns 5", b"AB\nCD").expect("whole reply");
        assert_eq!(got.len(), line.len());
        assert!(got.as_bytes() == line.as_slice(), "reply bytes differ");
        let err = one_shot(addr, timeout, timeout, "EXPORT ns", &[]).expect_err("cut mid-line");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let (head, payload) = responder.join().expect("responder");
        assert_eq!(head, "SHIP ns 5\n");
        assert_eq!(&payload, b"AB\nCD");
    }

    /// With a client parked on an unfinished `WAIT` and no traffic, the
    /// front thread sleeps in its poller wait — no timer wakes it, and it
    /// does not poll shard sockets — and the reply, when the shard finally
    /// sends it, still arrives promptly.
    #[test]
    fn front_thread_does_not_tick_while_a_wait_is_pending() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
        let addr = listener.local_addr().expect("fake shard addr");
        let (release, released) = std::sync::mpsc::channel::<()>();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut line = String::new();
                let _ = reader.read_line(&mut line);
                if line == "PING\n" {
                    let _ = stream.write_all(b"PONG\n");
                    continue;
                }
                // The routed connection: SUBMIT, then a WAIT that is
                // answered only once the test says so.
                let _ = stream.write_all(b"TICKET 7\n");
                let _ = reader.read_line(&mut line);
                let _ = released.recv();
                let _ = stream.write_all(b"DONE 7 entries=0\n");
                let _ = reader.read_line(&mut line);
            }
        });
        let spec = ClusterSpec::new([("scen", "ns")]).expect("spec");
        let router =
            Router::bind(spec, vec![("s0".to_string(), addr)], "127.0.0.1:0").expect("bind router");
        let stream = TcpStream::connect(router.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut recv = move || {
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reply line");
            reply
        };
        (&stream).write_all(b"SUBMIT scen\nWAIT 1\n").expect("send");
        assert_eq!(recv(), "TICKET 1\n");
        std::thread::sleep(Duration::from_millis(50));

        let before = router.inner.front_waits.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(200));
        let waits = router.inner.front_waits.load(Ordering::Relaxed) - before;
        assert!(
            waits <= 2,
            "{waits} poller waits in 200 ms with nothing ready"
        );

        let sent = Instant::now();
        release.send(()).expect("release the WAIT");
        assert_eq!(recv(), "DONE 1 entries=0\n");
        assert!(sent.elapsed() < Duration::from_secs(2));
        router.stop();
    }
}
