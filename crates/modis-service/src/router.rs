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
//!   router allocates cluster-wide ids and translates on every `SUBMIT`
//!   response, `POLL`/`RESULT`/`WAIT` request and streamed `DONE` line.
//!   When a primary dies, a ticket is *re-homed*: the scenario is
//!   re-submitted on the freshest live replica and the cluster id remapped
//!   in place, so the client's id keeps working across the failure.
//! * **Fan-in verbs** — `RUN`, `STATS`, `SNAPSHOT`, `METRICS`,
//!   `TRACE DUMP`, `TRACE SLOW` and `EXPLAIN` go to every shard through
//!   one sender and one expectation, and one renderer builds the reply:
//!   `RUN` drains every live shard concurrently and sums the counts,
//!   `STATS` aggregates every shard's counters into one cluster-wide line
//!   (plus a `SHARDS` verb for per-shard telemetry), `SNAPSHOT <path>`
//!   persists every shard to `<path>.<shard>` and removes the partial
//!   per-shard files when the fan-in fails, and the counted verbs merge
//!   every shard's lines under a `shard=` label.
//! * **Heartbeats and circuit breakers** — a background thread `PING`s
//!   every shard each [`RouterConfig::heartbeat_interval`], feeding a
//!   per-shard breaker that consecutive failures open and two consecutive
//!   successes close (closed → open → half-open → closed, exposed as
//!   `router_circuit_state`). A forward makes one attempt while the
//!   breaker allows — never a sleep on the front thread — and fails fast
//!   (`circuit open`) once a shard is declared dead, so no request ever
//!   hangs on a corpse.
//! * **Replication shipping over the wire** — after each completed `RUN`
//!   the primaries' updated namespaces are exported (`EXPORT` → one
//!   `SHIPMENT` line) and pushed to their replicas with the binary-framed
//!   `SHIP` verb; a content digest skips unchanged pushes. Rebalancing
//!   ([`Router::join_shard`] / [`Router::leave_shard`]) uses the same
//!   wire path — no shared filesystem between shard processes required —
//!   and moves exactly the minimal replica set (a rank-by-rank rendezvous
//!   guarantee).
//! * **Transparent failover** — a request owed to a dead shard re-routes
//!   to the freshest warm replica with zero operator action: `SUBMIT`
//!   picks the next live owner, `POLL`/`RESULT`/`WAIT` re-home the ticket
//!   first. Responses served by a stand-in carry a trailing
//!   ` degraded=<shard>` marker, `STATS` appends `degraded=<shards>`, and
//!   a `METRICS` scrape annotates dead shards — degraded service is
//!   visible, never silent. [`Router::set_shard_addr`] still rewires a
//!   restarted shard and resets its breaker.
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
//! with it every client: `forward` opens a shard connection with a
//! blocking connect under `CONNECT_TIMEOUT` (2 s), and re-homing a ticket
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
use modis_engine::SharedEvalCache;

use crate::cluster::{validate_token, ClusterSpec, ShardMap};
use crate::conn::{
    accept_ready, Conn, Entry, Slab, MAX_PIPELINED, MAX_READ_PER_SWEEP, WRITE_HIGH_WATERMARK,
};
use crate::error::ServiceError;
use crate::poller::{self, Interest, Poller};
use crate::protocol::{self, Frame, Framer, Parsed, Verb};
use crate::reactor::{drain_wakeup, wakeup_pair, Wakeup};

/// Help text of the `router_heartbeat_misses_total{shard}` counter.
const HEARTBEAT_MISS_HELP: &str = "Heartbeat probes (PING) a shard failed to answer in time.";
/// Help text of the `router_failovers_total{shard}` counter.
const FAILOVER_HELP: &str = "Requests transparently re-routed away from this shard to a replica.";
/// Help text of the `router_circuit_state{shard}` gauge.
const CIRCUIT_HELP: &str = "Per-shard circuit breaker state: 0 = closed (healthy), \
     1 = half-open (probing), 2 = open (declared dead).";

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
    /// once per interval, and pending replication pushes are flushed.
    pub heartbeat_interval: Duration,
    /// Connect + read timeout of one heartbeat probe. A probe that blows
    /// this deadline counts as a miss.
    pub heartbeat_timeout: Duration,
    /// Consecutive failures (heartbeat misses or forward errors) after
    /// which a shard's circuit breaker opens and the shard is declared
    /// dead.
    pub heartbeat_misses: u32,
    /// How long an open circuit stays fail-fast before it turns half-open
    /// and lets requests through again.
    pub open_cooldown: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            replication: 1,
            heartbeat_interval: Duration::from_millis(150),
            heartbeat_timeout: Duration::from_millis(250),
            heartbeat_misses: 3,
            open_cooldown: Duration::from_millis(400),
        }
    }
}

/// One shard's circuit breaker position, exposed per shard as the
/// `router_circuit_state` gauge (whose value is the discriminant) and via
/// [`Router::circuit_state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitState {
    /// Healthy: requests flow normally.
    Closed = 0,
    /// Probing: once the open cooldown has elapsed, requests go through
    /// again; two consecutive successes close the breaker, and any failure
    /// re-opens it.
    HalfOpen = 1,
    /// Declared dead: requests fail fast without touching the socket
    /// until the cooldown elapses.
    Open = 2,
}

/// Consecutive successes (probes or forwards) that close a non-closed
/// breaker, however many failures came before them.
const CLOSE_STREAK: u32 = 2;

/// Health book-keeping for one shard: the breaker state, the consecutive
/// miss count that opens it, and the consecutive success count that
/// closes it again (two, from any depth).
#[derive(Debug, Clone)]
struct ShardHealth {
    state: CircuitState,
    misses: u32,
    successes: u32,
    opened_at: Option<Instant>,
}

impl Default for ShardHealth {
    fn default() -> Self {
        ShardHealth {
            state: CircuitState::Closed,
            misses: 0,
            successes: 0,
            opened_at: None,
        }
    }
}

impl ShardHealth {
    /// A successful probe or forward: resets the miss streak, extends the
    /// success streak, and closes a non-closed breaker once that streak
    /// reaches [`CLOSE_STREAK`].
    fn on_success(&mut self) {
        self.misses = 0;
        self.successes = self.successes.saturating_add(1);
        if self.state != CircuitState::Closed && self.successes >= CLOSE_STREAK {
            self.state = CircuitState::Closed;
            self.opened_at = None;
        }
    }

    /// A failed probe or forward: resets the success streak; `threshold`
    /// consecutive misses open a closed breaker, and any failure while it
    /// is half-open re-opens it immediately.
    fn on_failure(&mut self, threshold: u32) {
        self.misses = self.misses.saturating_add(1);
        self.successes = 0;
        let trips = match self.state {
            CircuitState::Closed => self.misses >= threshold,
            CircuitState::HalfOpen => true,
            CircuitState::Open => false,
        };
        if trips {
            self.state = CircuitState::Open;
            self.opened_at = Some(Instant::now());
        }
    }

    /// Whether a request may touch the socket right now. An open breaker
    /// turns half-open once `cooldown` has elapsed since it opened, and a
    /// half-open one admits every request until one fails.
    fn allow_attempt(&mut self, cooldown: Duration) -> bool {
        if self.state == CircuitState::Open {
            if self.opened_at.is_some_and(|at| at.elapsed() < cooldown) {
                return false;
            }
            self.state = CircuitState::HalfOpen;
        }
        true
    }
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

/// Replication book-keeping: which namespaces need pushing, and what each
/// replica last received.
#[derive(Default)]
struct ReplicationState {
    /// Namespaces with submitted-but-not-yet-run work: their caches will
    /// change, pushing now would ship a stale copy.
    dirty: HashSet<String>,
    /// Namespaces whose `RUN` completed: the cache settled, push on the
    /// next flush.
    ready: HashSet<String>,
    /// `(replica, namespace)` → the content digest and flush sequence
    /// number of the last push there: an unchanged digest skips the push
    /// entirely, and failover prefers the replica with the freshest copy.
    pushed: HashMap<(String, String), (u64, u64)>,
    /// Monotonic flush sequence.
    seq: u64,
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
    /// Per-shard breaker state and failure / success streaks, fed by
    /// heartbeats and forwards.
    health: Mutex<HashMap<String, ShardHealth>>,
    /// Replication push queue and per-replica freshness.
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

    /// Records that `replica` now holds the bytes of `namespace` with
    /// this content `digest`, as of flush sequence `seq`.
    fn remember_push(&self, replica: &str, namespace: &str, digest: u64, seq: u64) {
        let key = (replica.to_string(), namespace.to_string());
        lock(&self.replication).pushed.insert(key, (digest, seq));
    }

    /// The next flush sequence number.
    fn next_seq(&self) -> u64 {
        let mut rep = lock(&self.replication);
        rep.seq += 1;
        rep.seq
    }

    /// Pre-registers every per-shard family so scrapes see them (at zero)
    /// from the first exposition, not only after the first event.
    fn register_shard_metrics(&self, shard: &str) {
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

    /// Applies `update` to `shard`'s health record, then publishes the
    /// breaker position it left.
    fn with_health<R>(&self, shard: &str, update: impl FnOnce(&mut ShardHealth) -> R) -> R {
        let (result, state) = {
            let mut health = lock(&self.health);
            let entry = health.entry(shard.to_string()).or_default();
            (update(entry), entry.state)
        };
        self.publish_circuit(shard, state);
        result
    }

    /// Records a successful probe or forward against `shard`.
    fn note_success(&self, shard: &str) {
        self.with_health(shard, ShardHealth::on_success);
    }

    /// Records a failed probe (`heartbeat_miss = true`, counted in the
    /// miss family) or a failed forward against `shard`.
    fn note_failure(&self, shard: &str, heartbeat_miss: bool) {
        if heartbeat_miss {
            self.miss_counter(shard).inc();
        }
        let threshold = self.config.heartbeat_misses.max(1);
        self.with_health(shard, |health| health.on_failure(threshold));
    }

    /// Whether a request may be attempted against `shard` right now
    /// (possibly flipping an expired open breaker to half-open).
    fn allow_attempt(&self, shard: &str) -> bool {
        let cooldown = self.config.open_cooldown;
        self.with_health(shard, |health| health.allow_attempt(cooldown))
    }

    /// Whether `shard` is currently declared unhealthy (breaker not
    /// closed).
    fn shard_down(&self, shard: &str) -> bool {
        lock(&self.health)
            .get(shard)
            .is_some_and(|h| h.state != CircuitState::Closed)
    }

    /// The sorted names of shards currently declared unhealthy.
    fn degraded_shards(&self) -> Vec<String> {
        let mut names: Vec<String> = lock(&self.health)
            .iter()
            .filter(|(_, h)| h.state != CircuitState::Closed)
            .map(|(name, _)| name.clone())
            .collect();
        names.sort();
        names
    }

    /// Forgets `shard`'s health and replica-freshness history — the
    /// recovery path after a rewire (the new process starts from its
    /// snapshot; pushed copies must be re-shipped).
    fn reset_health(&self, shard: &str) {
        lock(&self.health).insert(shard.to_string(), ShardHealth::default());
        self.publish_circuit(shard, CircuitState::Closed);
        let mut rep = lock(&self.replication);
        rep.pushed.retain(|(replica, _), _| replica != shard);
    }

    /// [`one_shot`] against a shard daemon under the lifecycle timeouts.
    fn ask(
        &self,
        shard: &str,
        addr: SocketAddr,
        head: &str,
        payload: &[u8],
    ) -> Result<String, ServiceError> {
        one_shot(addr, CONNECT_TIMEOUT, SHIP_TIMEOUT, head, payload)
            .map_err(|err| unavailable(shard, err))
    }

    /// Exports `namespaces` from a shard over the wire: one `EXPORT`
    /// round-trip, returning the content digest and the decoded snapshot
    /// bytes (empty when the shard holds nothing for them).
    fn wire_export(
        &self,
        shard: &str,
        addr: SocketAddr,
        namespaces: &[String],
    ) -> Result<(u64, Vec<u8>), ServiceError> {
        let head = format!("EXPORT {}", namespaces.join(" "));
        let reply = self.ask(shard, addr, &head, &[])?;
        let mut tokens = reply.split_whitespace();
        if tokens.next() != Some("SHIPMENT") {
            return Err(unavailable(shard, &reply));
        }
        let digest = tokens.next().and_then(|t| u64::from_str_radix(t, 16).ok());
        let len = tokens.next().and_then(|t| t.parse::<usize>().ok());
        // A zero-length shipment renders with no hex token at all.
        let payload = hex_decode(tokens.next().unwrap_or(""));
        match (digest, len, payload) {
            (Some(digest), Some(len), Some(payload)) if payload.len() == len => {
                Ok((digest, payload))
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

    /// Marks a namespace as having submitted-but-not-run work.
    fn mark_dirty(&self, namespace: &str) {
        if self.k() > 1 {
            lock(&self.replication).dirty.insert(namespace.to_string());
        }
    }

    /// Promotes dirty namespaces to ready — called once a cluster `RUN`
    /// completed, i.e. their caches have settled.
    fn promote_dirty(&self) {
        let mut rep = lock(&self.replication);
        let dirty: Vec<String> = rep.dirty.drain().collect();
        rep.ready.extend(dirty);
    }

    /// Pushes every ready namespace from its live primary to its live
    /// replicas (digest-skipped when unchanged). Namespaces that fail to
    /// replicate are requeued for the next flush. Returns the total
    /// number of `(replica, namespace)` copies currently confirmed warm.
    fn flush_ready_replication(&self) -> usize {
        let ready: Vec<String> = {
            let mut rep = lock(&self.replication);
            rep.ready.drain().collect()
        };
        let mut requeue = Vec::new();
        for namespace in &ready {
            if self.replicate_namespace(namespace).is_err() {
                requeue.push(namespace.clone());
            }
        }
        let mut rep = lock(&self.replication);
        rep.ready.extend(requeue);
        rep.pushed.len()
    }

    /// Ships one namespace from its highest-ranked live owner to every
    /// other live owner that does not already hold the current bytes.
    fn replicate_namespace(&self, namespace: &str) -> Result<(), ServiceError> {
        if self.k() <= 1 {
            return Ok(());
        }
        let owners = self.owners(namespace);
        let addrs: HashMap<String, SocketAddr> = {
            let topology = lock(&self.topology);
            let addr = |o: &String| topology.addr_of(o).map(|a| (o.clone(), a));
            owners.iter().filter_map(addr).collect()
        };
        let primary = owners
            .iter()
            .find(|o| !self.shard_down(o) && addrs.contains_key(*o))
            .cloned()
            .ok_or_else(|| {
                let reason = format!("no live owner to export namespace {namespace} from");
                unavailable(owners.first().map_or("", String::as_str), reason)
            })?;
        let namespaces = [namespace.to_string()];
        let (digest, payload) = self.wire_export(&primary, addrs[&primary], &namespaces)?;
        if payload.is_empty() {
            return Ok(());
        }
        let seq = self.next_seq();
        let mut first_err = None;
        for replica in owners.iter().filter(|o| **o != primary) {
            let key = (replica.clone(), namespace.to_string());
            if self.shard_down(replica) {
                first_err.get_or_insert_with(|| {
                    unavailable(replica, "replica down during replication flush")
                });
                continue;
            }
            let Some(addr) = addrs.get(replica).copied() else {
                continue;
            };
            if lock(&self.replication)
                .pushed
                .get(&key)
                .map(|&(last, _)| last)
                == Some(digest)
            {
                continue;
            }
            match self.wire_ship(replica, addr, &namespaces, &payload) {
                Ok(_) => self.remember_push(replica, namespace, digest, seq),
                Err(err) => {
                    first_err.get_or_insert(err);
                }
            }
        }
        match first_err {
            Some(err) => Err(err),
            None => Ok(()),
        }
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
            // Freshest replica first; the sort is stable, so rendezvous
            // rank breaks ties.
            let rep = lock(&self.replication);
            candidates.sort_by_key(|(name, _)| {
                let pushed = rep.pushed.get(&(name.clone(), namespace.clone()));
                std::cmp::Reverse(pushed.map_or(0, |&(_, seq)| seq))
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
                Err(_) => {
                    self.note_failure(&name, false);
                    continue;
                }
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
            inner.register_shard_metrics(&shard.name);
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

    /// The current circuit-breaker position of `shard` as seen by the
    /// heartbeat/forward machinery ([`CircuitState::Closed`] for a shard
    /// that has never failed).
    pub fn circuit_state(&self, shard: &str) -> CircuitState {
        let health = lock(&self.inner.health);
        health.get(shard).map_or(CircuitState::Closed, |h| h.state)
    }

    /// Promotes every pending namespace and pushes it to its replicas
    /// immediately, without waiting for the heartbeat thread's next tick.
    /// Returns the total number of `(replica, namespace)` copies
    /// currently confirmed warm cluster-wide. A no-op returning 0 when
    /// replication is off (`replication <= 1`).
    pub fn flush_replication(&self) -> usize {
        if self.inner.k() <= 1 {
            return 0;
        }
        self.inner.promote_dirty();
        self.inner.flush_ready_replication()
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
        self.inner.register_shard_metrics(name);
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
        rep.pushed.retain(|(replica, _), _| replica != name);
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
            self.ship(&source, source_addr, &namespaces, &target, target_addr)?;
        }
        Ok(shipped)
    }

    /// Ships `namespaces` from one shard to another entirely over the
    /// wire: `EXPORT` on the source, binary-framed `SHIP` into the
    /// target. No staging file, no shared filesystem.
    fn ship(
        &self,
        source: &str,
        source_addr: SocketAddr,
        namespaces: &[String],
        target: &str,
        target_addr: SocketAddr,
    ) -> Result<(), ServiceError> {
        let (digest, payload) = self.inner.wire_export(source, source_addr, namespaces)?;
        if payload.is_empty() {
            // Nothing cached for these namespaces yet — nothing to ship.
            return Ok(());
        }
        self.inner
            .wire_ship(target, target_addr, namespaces, &payload)?;
        if let [namespace] = namespaces {
            // Single-namespace shipments double as replication pushes:
            // remember the digest so the next flush can skip it.
            let seq = self.inner.next_seq();
            self.inner.remember_push(target, namespace, digest, seq);
        }
        Ok(())
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
/// `PING`, expect `PONG`, all under the heartbeat timeout — feeding the
/// breakers, then flushes pending replication pushes, then parks until
/// the next interval or [`Router::stop`].
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
                _ => inner.note_failure(&name, true),
            }
        }
        if inner.k() > 1 && !inner.stop.load(Ordering::SeqCst) {
            let _ = inner.flush_ready_replication();
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

/// Rewrite applied to a single forwarded response line.
enum Rewrite {
    /// `SUBMIT`: translate `TICKET <local>` to a cluster-wide id,
    /// remembering the scenario (for failover re-submission) and whether
    /// the request was already routed to a stand-in replica.
    Submit {
        /// The submitted scenario name.
        scenario: String,
        /// Routed to a replica because the primary was down.
        degraded: bool,
    },
    /// `POLL`: pass through, but re-express `ERR unknown ticket` with the
    /// cluster id the client asked about.
    TicketErr {
        /// The cluster-wide ticket id of the request.
        global: u64,
    },
    /// `RESULT`: rewrite the echoed ticket id to the cluster id and flag
    /// stand-in service with a trailing ` degraded=<shard>` token.
    Result {
        /// The cluster-wide ticket id of the request.
        global: u64,
    },
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

/// One pending `WAIT` slice on one shard: the `(cluster id, shard-local
/// id)` pairs still owed.
struct WaitPart {
    shard: String,
    epoch: u64,
    owed: Vec<(u64, u64)>,
}

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

/// One shard's part of a fan-in.
struct FanPart {
    shard: String,
    epoch: u64,
    /// Lines the shard still owes: one for a one-line verb; for a counted
    /// verb `None` until its `<HEADER> <n>` line arrives.
    owed: Option<usize>,
    /// The lines received (a counted verb's header excluded).
    lines: Vec<String>,
    /// The error line of a shard that failed: it could not be sent the
    /// verb, lost the link, or headed a counted reply wrongly.
    failed: Option<String>,
}

impl FanPart {
    fn done(&self) -> bool {
        self.failed.is_some() || self.owed == Some(0)
    }
}

/// One response position in a client's ordered pipeline (the router-side
/// mirror of the reactor's `Slot`). Every shard-owed response carries the
/// epoch of the connection its request went out on.
enum Expect {
    /// The response text is known (may span multiple lines).
    Local(String),
    /// `BYE`, then close the connection.
    Quit,
    /// One line owed by one shard.
    Forward {
        shard: String,
        epoch: u64,
        rewrite: Rewrite,
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
    },
    /// A fan-in verb's reply, owed by every shard.
    FanIn { verb: FanIn, parts: Vec<FanPart> },
    /// A cross-shard `WAIT`: local error lines first, then streamed
    /// `DONE`s merged in arrival order.
    Wait {
        pre: Vec<String>,
        parts: Vec<WaitPart>,
    },
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
    let submit = |expect: &Expect| {
        matches!(
            expect,
            Expect::Forward {
                rewrite: Rewrite::Submit { .. },
                ..
            }
        )
    };
    expects.iter().any(submit)
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
            // still try the primary so the client gets a concrete error.
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
                        inner.mark_dirty(&namespace);
                        return Expect::Forward {
                            shard: owner,
                            epoch,
                            rewrite: Rewrite::Submit {
                                scenario: scenario.clone(),
                                degraded,
                            },
                            sent: Instant::now(),
                            request,
                            retries_left: 1,
                            trace: child,
                        };
                    }
                    Err(err) => last_err = Some(err),
                }
            }
            Expect::Local(last_err.unwrap_or_else(|| "ERR cluster has no shards".into()))
        }
        Verb::Poll(global) | Verb::Result(global) => {
            let global = *global;
            let poll = matches!(verb, Verb::Poll(_));
            let Some(mut entry) = lock(&inner.tickets).lookup(global) else {
                return Expect::Local(format!("ERR unknown ticket {global}"));
            };
            // A ticket homed on a declared-dead shard is re-homed onto a
            // warm replica *before* forwarding.
            if inner.shard_down(&entry.shard) {
                match inner.failover_ticket(global, &entry) {
                    Ok(rehomed) => entry = rehomed,
                    Err(line) => return Expect::Local(line),
                }
            }
            let send = |route: &mut Route<'_>, entry: &TicketEntry| {
                // Ticket verbs ride on the *submitting* trace, not the
                // connection's: the poll round-trip shows up on the same
                // EXPLAIN timeline as the submission it asks about.
                let child = inner.tracer.child_context(TraceContext {
                    trace_id: entry.trace,
                    span_id: 0,
                    parent_id: 0,
                });
                let line = match poll {
                    true => format!("POLL {}", entry.local),
                    false => format!("RESULT {}", entry.local),
                };
                let epoch = forward(route, &entry.shard, &with_ctx(child, &line))?;
                Ok(Expect::Forward {
                    shard: entry.shard.clone(),
                    epoch,
                    rewrite: match poll {
                        true => Rewrite::TicketErr { global },
                        false => Rewrite::Result { global },
                    },
                    sent: Instant::now(),
                    request: request.clone(),
                    retries_left: 1,
                    trace: child,
                })
            };
            match send(route, &entry) {
                Ok(expect) => expect,
                // The forward just failed — maybe the shard died between
                // heartbeats. One immediate failover attempt.
                Err(err) => match inner.failover_ticket(global, &entry) {
                    Ok(rehomed) => send(route, &rehomed).unwrap_or_else(Expect::Local),
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
            Expect::Wait { pre, parts }
        }
        Verb::Quit => Expect::Quit,
        // Shard-level verbs: a client talks to the shard daemon for these.
        Verb::Restore(_) | Verb::Export(_) => {
            Expect::Local(protocol::unknown_command(&request.token))
        }
        Verb::Ship { .. } => Expect::Local(SHIP_IS_SHARD_LEVEL.into()),
    }
}

/// Forwards the `WAIT` for `globals`: one per shard serving any of them,
/// appending a [`WaitPart`] for each that went out. A ticket whose shard
/// is declared dead — or every ticket, when `rehome` says the shard just
/// died under them — is first re-homed onto a live replica. Returns one
/// error line per ticket that could not be waited on.
fn forward_waits(
    route: &mut Route<'_>,
    globals: &[u64],
    rehome: bool,
    parts: &mut Vec<WaitPart>,
) -> Vec<String> {
    let inner = route.inner;
    let mut errors = Vec::new();
    // Per shard, the `(cluster id, shard-local id)` pairs in request order.
    let mut groups: Vec<(String, Vec<(u64, u64)>)> = Vec::new();
    for &global in globals {
        let entry = lock(&inner.tickets).lookup(global);
        let homed = match entry {
            None => Err(format!("ERR unknown ticket {global}")),
            Some(entry) if rehome || inner.shard_down(&entry.shard) => {
                inner.failover_ticket(global, &entry)
            }
            Some(entry) => Ok(entry),
        };
        match homed {
            Ok(entry) => match groups.iter_mut().find(|(shard, _)| *shard == entry.shard) {
                Some((_, items)) => items.push((global, entry.local)),
                None => groups.push((entry.shard, vec![(global, entry.local)])),
            },
            Err(line) => errors.push(line),
        }
    }
    for (shard, items) in groups {
        let locals: Vec<String> = items.iter().map(|(_, local)| local.to_string()).collect();
        let line = with_ctx(
            inner.tracer.child_context(route.ctx),
            &format!("WAIT {}", locals.join(" ")),
        );
        match forward(route, &shard, &line) {
            Ok(epoch) => parts.push(WaitPart {
                shard,
                epoch,
                owed: items,
            }),
            Err(err) => errors.extend(items.iter().map(|_| err.clone())),
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
        parts.push(FanPart {
            shard,
            epoch: *sent.as_ref().unwrap_or(&0),
            owed: verb.header().map_or(Some(1), |_| None),
            lines: Vec::new(),
            failed: sent.err(),
        });
    }
    if verb.header().is_none() && parts.iter().all(|part| part.failed.is_some()) {
        return Expect::Local(parts.swap_remove(0).failed.expect("every part failed"));
    }
    Expect::FanIn { verb, parts }
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
fn render_fan_in(inner: &Arc<RouterInner>, verb: &FanIn, parts: &[FanPart]) -> String {
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
fn fold_lines(inner: &Arc<RouterInner>, verb: &FanIn, parts: &[FanPart]) -> String {
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
            // The cluster's queues drained: replica caches can be
            // refreshed on the next flush.
            inner.promote_dirty();
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

/// Sends one line to `shard` in one attempt, gated by the shard's circuit
/// breaker (an open circuit fails fast without touching the socket). A
/// connection the shard refuses, or a fresh link that fails its write, is
/// one breaker failure and an error at once; only a pooled link that fails
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
    if !inner.allow_attempt(shard) {
        return Err(unavailable("circuit open"));
    }
    let mut pooled = route.link(shard).is_some();
    loop {
        if !pooled {
            let connected = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)
                .and_then(Conn::new)
                .and_then(|conn| route.open(shard, addr, conn));
            if let Err(err) = connected {
                inner.note_failure(shard, false);
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
                    inner.note_failure(shard, false);
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
            Expect::Forward {
                shard,
                epoch,
                rewrite,
                sent,
                request,
                retries_left,
                trace,
            } => {
                let shard_name = shard.clone();
                let sent_at = *sent;
                let trace = *trace;
                match poll_shard(route, &shard_name, *epoch) {
                    Polled::Line(line) => {
                        inner
                            .metrics
                            .histogram_with(
                                "router_forward_us",
                                "Round-trip latency of single-shard forwards \
                                 (SUBMIT/POLL/RESULT), router-side, in microseconds.",
                                &[("shard", &shard_name)],
                            )
                            .record_duration(sent_at.elapsed());
                        if trace.trace_id != 0 {
                            // Recorded with the context it was *sent*
                            // under, so this span's id is the parent the
                            // shard stitched its own spans to.
                            inner
                                .tracer
                                .record_at("forward", trace, sent_at, sent_at.elapsed());
                        }
                        let reply = apply_rewrite(inner, &shard_name, rewrite, trace, &line);
                        expects.pop_front();
                        client.queue_line(&reply);
                    }
                    Polled::Pending => return false,
                    Polled::Dead => {
                        // The connection died with the response owed. Burn
                        // one re-dispatch: route_request re-resolves
                        // ownership (and ticket failover) from scratch, so
                        // the retry lands on a replica when one exists.
                        inner.note_failure(&shard_name, false);
                        let retries = *retries_left;
                        let request = request.clone();
                        expects.pop_front();
                        if retries > 0 {
                            let mut replacement = route_request(route, request);
                            if let Expect::Forward { retries_left, .. } = &mut replacement {
                                *retries_left = retries - 1;
                            }
                            expects.push_front(replacement);
                            continue;
                        }
                        let reply = format!("ERR shard {shard_name} unavailable (connection lost)");
                        client.queue_line(&reply);
                    }
                }
            }
            Expect::FanIn { verb, parts } => {
                for part in parts.iter_mut() {
                    while !part.done() {
                        match poll_shard(route, &part.shard, part.epoch) {
                            Polled::Line(line) => match part.owed {
                                Some(n) => {
                                    part.lines.push(line);
                                    part.owed = Some(n - 1);
                                }
                                // A counted reply's `<HEADER> <n>` line.
                                None => {
                                    part.owed = verb
                                        .header()
                                        .and_then(|header| line.strip_prefix(header))
                                        .and_then(|n| n.trim().parse::<usize>().ok());
                                    if part.owed.is_none() {
                                        part.failed = Some(format!(
                                            "ERR shard {}: unexpected reply {line:?}",
                                            part.shard
                                        ));
                                    }
                                }
                            },
                            Polled::Pending => break,
                            Polled::Dead => {
                                inner.note_failure(&part.shard, false);
                                part.failed = Some(format!(
                                    "ERR shard {} unavailable (connection lost)",
                                    part.shard
                                ));
                            }
                        }
                    }
                }
                if parts.iter().any(|part| !part.done()) {
                    return false;
                }
                let reply = render_fan_in(inner, verb, parts);
                expects.pop_front();
                client.queue_line(&reply);
            }
            Expect::Wait { pre, parts } => {
                for line in pre.drain(..) {
                    client.queue_line(&line);
                }
                let mut any_pending = false;
                let mut i = 0;
                while i < parts.len() {
                    while !parts[i].owed.is_empty() {
                        let shard = parts[i].shard.clone();
                        let epoch = parts[i].epoch;
                        match poll_shard(route, &shard, epoch) {
                            Polled::Line(line) => {
                                let owed = &mut parts[i].owed;
                                let (reply, answered) = rewrite_wait_line(owed, &line);
                                // A line we cannot attribute (e.g. a
                                // shard-side error) consumes one owed slot.
                                owed.remove(answered.unwrap_or(0));
                                client.queue_line(&reply);
                            }
                            Polled::Pending => {
                                any_pending = true;
                                break;
                            }
                            Polled::Dead => {
                                // The shard died mid-WAIT: re-home every
                                // still-owed ticket on a live replica and
                                // resume waiting there.
                                inner.note_failure(&shard, false);
                                let orphans: Vec<u64> =
                                    parts[i].owed.drain(..).map(|(global, _)| global).collect();
                                for line in forward_waits(route, &orphans, true, parts) {
                                    client.queue_line(&line);
                                }
                            }
                        }
                    }
                    i += 1;
                }
                if any_pending {
                    return false;
                }
                expects.pop_front();
            }
        }
    }
}

/// Applies a single-line response rewrite.
fn apply_rewrite(
    inner: &RouterInner,
    shard: &str,
    rewrite: &Rewrite,
    trace: TraceContext,
    line: &str,
) -> String {
    match rewrite {
        Rewrite::Submit { scenario, degraded } => match line
            .strip_prefix("TICKET ")
            .and_then(|s| s.parse::<u64>().ok())
        {
            Some(local) => {
                // The submission's trace id is remembered for `EXPLAIN`.
                let global = lock(&inner.tickets).allocate(
                    shard,
                    local,
                    scenario,
                    *degraded,
                    trace.trace_id,
                    MAX_TICKETS,
                );
                inner.remaps.inc();
                format!("TICKET {global}")
            }
            None => line.to_string(),
        },
        Rewrite::TicketErr { global } => {
            if line.starts_with("ERR unknown ticket") {
                format!("ERR unknown ticket {global}")
            } else {
                line.to_string()
            }
        }
        Rewrite::Result { global } => {
            if let Some(rest) = line.strip_prefix("RESULT ") {
                // Stand-in service is flagged: the payload is correct
                // (warm replica cache) but served by a non-primary.
                let flag = if lock(&inner.tickets).degraded(*global) {
                    format!(" degraded={shard}")
                } else {
                    String::new()
                };
                match rest.split_once(' ') {
                    Some((_, payload)) => format!("RESULT {global} {payload}{flag}"),
                    None => format!("RESULT {global}{flag}"),
                }
            } else if line.starts_with("ERR unknown ticket") {
                format!("ERR unknown ticket {global}")
            } else if line.starts_with("ERR ticket ") {
                // `ERR ticket <local> is not finished` — re-express with
                // the cluster id.
                format!("ERR ticket {global} is not finished")
            } else {
                line.to_string()
            }
        }
    }
}

/// Rewrites one streamed `WAIT` line (`DONE <local> …` or `ERR unknown
/// ticket <local>`) to the cluster id its part owes under that local id,
/// returning the rewritten line and that pair's position in `owed`, when
/// attributable.
fn rewrite_wait_line(owed: &[(u64, u64)], line: &str) -> (String, Option<usize>) {
    let translate = |id: &str| {
        let local = id.trim().parse::<u64>().ok()?;
        let at = owed.iter().position(|&(_, l)| l == local)?;
        Some((owed[at].0, at))
    };
    if let Some(rest) = line.strip_prefix("DONE ") {
        if let Some((id, payload)) = rest.split_once(' ') {
            if let Some((global, at)) = translate(id) {
                return (format!("DONE {global} {payload}"), Some(at));
            }
        }
    } else if let Some(rest) = line.strip_prefix("ERR unknown ticket ") {
        if let Some((global, at)) = translate(rest) {
            return (format!("ERR unknown ticket {global}"), Some(at));
        }
    }
    (line.to_string(), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn circuit_breaker_walks_closed_open_half_open_closed() {
        for threshold in 1..=4 {
            let mut health = ShardHealth::default();
            assert_eq!(health.state, CircuitState::Closed);
            for _ in 1..threshold {
                health.on_failure(threshold);
                assert_eq!(health.state, CircuitState::Closed, "below {threshold}");
            }
            health.on_failure(threshold);
            assert_eq!(health.state, CircuitState::Open, "{threshold} reached");
            assert!(
                !health.allow_attempt(Duration::from_secs(3600)),
                "open circuit fails fast inside the cooldown"
            );
            assert!(
                health.allow_attempt(Duration::ZERO),
                "cooldown elapsed: a trial goes through"
            );
            assert_eq!(health.state, CircuitState::HalfOpen);
            health.on_failure(threshold);
            assert_eq!(health.state, CircuitState::Open, "failed trial re-opens");
            assert!(health.allow_attempt(Duration::ZERO));
            health.on_success();
            assert_eq!(
                health.state,
                CircuitState::HalfOpen,
                "one success is not enough to close (threshold {threshold})"
            );
            health.on_success();
            assert_eq!(
                health.state,
                CircuitState::Closed,
                "two consecutive successes close the breaker"
            );
            assert_eq!(health.misses, 0);
        }
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
