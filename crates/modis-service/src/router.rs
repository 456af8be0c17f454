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
//! * **Fan-out verbs** — `RUN` drains every live shard concurrently and
//!   sums the counts; `STATS` aggregates every shard's counters into one
//!   cluster-wide line (plus a `SHARDS` verb for per-shard telemetry);
//!   `SNAPSHOT <path>` persists every shard to `<path>.<shard>` and
//!   removes the partial per-shard files when the fan-out fails midway.
//! * **Heartbeats and circuit breakers** — a background thread `PING`s
//!   every shard each [`RouterConfig::heartbeat_interval`], feeding an
//!   EWMA liveness score and a per-shard breaker
//!   (closed → open → half-open → closed, exposed as
//!   `router_circuit_state`). Forwards retry with jittered exponential
//!   backoff while the breaker allows, and fail fast (`circuit open`)
//!   once a shard is declared dead — no request ever hangs on a corpse.
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
//! it is a thin I/O forwarder. Its client-facing side runs on the same
//! readiness core as the daemon front-end: **one** front thread drives
//! every client connection through a [`crate::poller::Poller`] (listener,
//! wakeup channel and all clients registered; a sweep touches only ready
//! sockets), instead of the former thread-per-connection handler model.
//! Shard-side connections stay blocking with a short read timeout
//! ([`RouterConfig::poll_interval`]), polled from the same thread as the
//! expectations owed on them come due.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};

use modis_core::telemetry::{Counter, MetricsRegistry, TraceContext, Tracer};

use crate::cluster::{validate_token, ClusterSpec, ShardMap};
use crate::error::ServiceError;
use crate::poller::{self, Interest, Poller};
use crate::protocol::{self, Frame, Framer, Parsed, Verb};
use crate::reactor::{drain_wakeup, wakeup_pair, Wakeup};

/// Help text of the `router_heartbeat_misses_total{shard}` counter.
const HEARTBEAT_MISS_HELP: &str = "Heartbeat probes (PING) a shard failed to answer in time.";
/// Help text of the `router_failovers_total{shard}` counter.
const FAILOVER_HELP: &str = "Requests transparently re-routed away from this shard to a replica.";
/// Help text of the `router_backoff_ms{shard}` histogram.
const BACKOFF_HELP: &str =
    "Jittered exponential-backoff delays slept before forward retries, in milliseconds.";
/// Help text of the `router_circuit_state{shard}` gauge.
const CIRCUIT_HELP: &str = "Per-shard circuit breaker state: 0 = closed (healthy), \
     1 = half-open (probing), 2 = open (declared dead).";

/// Tuning knobs of the router. Defaults suit tests and examples; none
/// change protocol semantics.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Read timeout used as the polling quantum on every connection
    /// (client and shard side): bounds how long the handler loop blocks
    /// before re-checking other work and the stop flag.
    pub poll_interval: Duration,
    /// Longest accepted client request line (reactor parity).
    pub max_line_len: usize,
    /// Maximum unresolved expectations per client connection; beyond it
    /// the router stops reading that client (pipelining backpressure).
    pub max_pipelined: usize,
    /// Connect timeout for shard connections.
    pub connect_timeout: Duration,
    /// How long a lifecycle operation (wire shipping on join/leave and
    /// replication pushes) waits for one shard reply.
    pub ship_timeout: Duration,
    /// How many ticket mappings the router retains (FIFO; 0 = unbounded).
    /// Mirrors the shard daemons' bounded completed-job retention — a
    /// ticket older than either bound answers `ERR unknown ticket`.
    pub max_tickets: usize,
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
    /// Total send attempts per forwarded request (first try + retries),
    /// each retry preceded by a jittered exponential backoff sleep.
    pub forward_attempts: u32,
    /// Backoff before the first retry; doubles per further retry.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff sleep.
    pub backoff_max: Duration,
    /// How long an open circuit stays fail-fast before one half-open
    /// trial attempt is allowed through.
    pub open_cooldown: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            // Small on purpose: every client⇄router⇄shard exchange pays up
            // to two of these quanta, so the quantum is the router's
            // latency floor. The cost is one read syscall per quantum per
            // open idle connection — cheap at router connection counts
            // (the CPU-heavy side lives in the shard daemons).
            poll_interval: Duration::from_micros(200),
            max_line_len: 4096,
            max_pipelined: 1024,
            connect_timeout: Duration::from_secs(2),
            ship_timeout: Duration::from_secs(120),
            max_tickets: 1 << 16,
            replication: 1,
            heartbeat_interval: Duration::from_millis(150),
            heartbeat_timeout: Duration::from_millis(250),
            heartbeat_misses: 3,
            forward_attempts: 3,
            backoff_base: Duration::from_millis(15),
            backoff_max: Duration::from_millis(400),
            open_cooldown: Duration::from_millis(400),
        }
    }
}

/// One shard's circuit breaker position, exposed per shard as the
/// `router_circuit_state` gauge and via [`Router::circuit_state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitState {
    /// Healthy: requests flow normally.
    Closed,
    /// Probing: one trial request is allowed through after the open
    /// cooldown; success starts closing the breaker, failure re-opens it.
    HalfOpen,
    /// Declared dead: requests fail fast without touching the socket
    /// until the cooldown elapses.
    Open,
}

impl CircuitState {
    /// The gauge encoding of the state (0 / 1 / 2).
    fn gauge(self) -> i64 {
        match self {
            CircuitState::Closed => 0,
            CircuitState::HalfOpen => 1,
            CircuitState::Open => 2,
        }
    }
}

/// EWMA weight of the newest liveness observation (1 = success, 0 =
/// failure): `live = (1 - α)·live + α·observation`.
const LIVENESS_ALPHA: f64 = 0.4;
/// Smoothed liveness at or above which a non-closed breaker closes —
/// reached after two consecutive successful probes from any depth.
const LIVENESS_CLOSE: f64 = 0.6;

/// Health book-keeping for one shard: the breaker state, the consecutive
/// miss count that opens it, and an EWMA-smoothed liveness score that
/// closes it again (two consecutive successes from any depth).
#[derive(Debug, Clone)]
struct ShardHealth {
    state: CircuitState,
    misses: u32,
    liveness: f64,
    opened_at: Option<Instant>,
}

impl Default for ShardHealth {
    fn default() -> Self {
        ShardHealth {
            state: CircuitState::Closed,
            misses: 0,
            liveness: 1.0,
            opened_at: None,
        }
    }
}

impl ShardHealth {
    /// A successful probe or forward: resets the miss streak, bumps the
    /// EWMA, and closes a non-closed breaker once liveness recovers.
    fn on_success(&mut self) {
        self.misses = 0;
        self.liveness = (1.0 - LIVENESS_ALPHA) * self.liveness + LIVENESS_ALPHA;
        if self.state != CircuitState::Closed && self.liveness >= LIVENESS_CLOSE {
            self.state = CircuitState::Closed;
            self.opened_at = None;
        }
    }

    /// A failed probe or forward: decays the EWMA; `threshold`
    /// consecutive misses open a closed breaker, and any failure of a
    /// half-open trial re-opens it immediately.
    fn on_failure(&mut self, threshold: u32) {
        self.misses = self.misses.saturating_add(1);
        self.liveness *= 1.0 - LIVENESS_ALPHA;
        match self.state {
            CircuitState::Closed if self.misses >= threshold => {
                self.state = CircuitState::Open;
                self.opened_at = Some(Instant::now());
            }
            CircuitState::HalfOpen => {
                self.state = CircuitState::Open;
                self.opened_at = Some(Instant::now());
            }
            _ => {}
        }
    }

    /// Whether a request may touch the socket right now. An open breaker
    /// transitions to half-open (and admits one trial) once `cooldown`
    /// has elapsed since it opened.
    fn allow_attempt(&mut self, cooldown: Duration) -> bool {
        match self.state {
            CircuitState::Closed | CircuitState::HalfOpen => true,
            CircuitState::Open => {
                let elapsed = self
                    .opened_at
                    .map(|at| at.elapsed())
                    .unwrap_or(Duration::MAX);
                if elapsed >= cooldown {
                    self.state = CircuitState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// A deterministic-enough jitter source: seeded from a global counter so
/// concurrent handler threads draw different streams without consulting
/// the wall clock.
fn jitter_rng() -> StdRng {
    static SEED: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);
    let n = SEED.fetch_add(0x9E37_79B9, Ordering::Relaxed);
    StdRng::seed_from_u64(n ^ u64::from(std::process::id()).rotate_left(32))
}

/// The sleep before retry number `attempt` (1-based): exponential from
/// [`RouterConfig::backoff_base`], capped at [`RouterConfig::backoff_max`],
/// jittered uniformly into `[cap/2, cap]` so a burst of failing handlers
/// does not hammer a recovering shard in lockstep.
fn backoff_delay(config: &RouterConfig, attempt: u32, rng: &mut StdRng) -> Duration {
    let base = config.backoff_base.max(Duration::from_micros(100));
    let shift = attempt.saturating_sub(1).min(16);
    let uncapped = base.saturating_mul(1 << shift);
    let cap = uncapped.min(config.backoff_max.max(base));
    let micros = cap.as_micros().max(2) as u64;
    Duration::from_micros(rng.gen_range(micros / 2..micros + 1))
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

/// Reads one newline-terminated reply off a blocking stream (the
/// one-shot `ask`/`SHIP`/heartbeat paths; handler-loop reads go through
/// [`LineConn`] instead).
fn read_reply_line(stream: &mut TcpStream) -> io::Result<String> {
    let mut reply = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before reply",
                ))
            }
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => reply.push(byte[0]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(String::from_utf8_lossy(&reply).trim_end().to_string())
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

/// Cluster-wide ticket table: router ids ↔ per-shard local ids, retained
/// FIFO up to [`RouterConfig::max_tickets`] (the shard daemons bound their
/// own completed-job retention, so an unbounded router-side table would
/// mostly map ids the shards have already forgotten — and grow with every
/// request the router ever served).
#[derive(Default)]
struct TicketTable {
    next: u64,
    forward: HashMap<u64, TicketEntry>,
    reverse: HashMap<(String, u64), u64>,
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
        self.reverse.insert((shard.to_string(), local), global);
        self.order.push_back(global);
        if retention > 0 {
            while self.order.len() > retention {
                if let Some(oldest) = self.order.pop_front() {
                    if let Some(entry) = self.forward.remove(&oldest) {
                        self.reverse.remove(&(entry.shard, entry.local));
                    }
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
        self.reverse.remove(&(entry.shard.clone(), entry.local));
        entry.shard = shard.to_string();
        entry.local = local;
        entry.degraded = true;
        self.reverse.insert((shard.to_string(), local), global);
        true
    }

    fn lookup(&self, global: u64) -> Option<TicketEntry> {
        self.forward.get(&global).cloned()
    }

    /// Whether the ticket has been re-homed onto a replica.
    fn degraded(&self, global: u64) -> bool {
        self.forward.get(&global).is_some_and(|e| e.degraded)
    }

    fn global_for(&self, shard: &str, local: u64) -> Option<u64> {
        self.reverse.get(&(shard.to_string(), local)).copied()
    }

    /// Drops every mapping of `shard` — its process died (or was
    /// replaced), so its local ids no longer name anything.
    fn purge_shard(&mut self, shard: &str) {
        self.forward.retain(|_, e| e.shard != shard);
        self.reverse.retain(|(s, _), _| s != shard);
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
    /// `(replica, namespace)` → the content digest last pushed there;
    /// an unchanged digest skips the push entirely.
    pushed: HashMap<(String, String), u64>,
    /// `(replica, namespace)` → the flush sequence number of the last
    /// push; failover prefers the replica with the freshest copy.
    freshness: HashMap<(String, String), u64>,
    /// Monotonic flush sequence.
    seq: u64,
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
    /// Per-shard breaker + liveness state, fed by heartbeats and forward
    /// failures.
    health: Mutex<HashMap<String, ShardHealth>>,
    /// Replication push queue and per-replica freshness.
    replication: Mutex<ReplicationState>,
    /// The router's own span recorder: per-client trace roots, forward
    /// round-trips and failover re-homes, stitched into the same traces
    /// as the shard-side spans and rendered into `EXPLAIN` timelines
    /// with a `shard=router` suffix.
    tracer: Arc<Tracer>,
}

impl RouterInner {
    fn lock_topology(&self) -> std::sync::MutexGuard<'_, Topology> {
        self.topology.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_tickets(&self) -> std::sync::MutexGuard<'_, TicketTable> {
        self.tickets.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_health(&self) -> std::sync::MutexGuard<'_, HashMap<String, ShardHealth>> {
        self.health.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_replication(&self) -> std::sync::MutexGuard<'_, ReplicationState> {
        self.replication
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The effective replication factor (at least 1).
    fn k(&self) -> usize {
        self.config.replication.max(1)
    }

    /// Pre-registers every per-shard family so scrapes see them (at zero)
    /// from the first exposition, not only after the first event.
    fn register_shard_metrics(&self, shard: &str) {
        self.metrics
            .gauge_with("router_circuit_state", CIRCUIT_HELP, &[("shard", shard)])
            .set(CircuitState::Closed.gauge());
        let _ = self.metrics.counter_with(
            "router_heartbeat_misses_total",
            HEARTBEAT_MISS_HELP,
            &[("shard", shard)],
        );
        let _ =
            self.metrics
                .counter_with("router_failovers_total", FAILOVER_HELP, &[("shard", shard)]);
        let _ = self
            .metrics
            .histogram_with("router_backoff_ms", BACKOFF_HELP, &[("shard", shard)]);
    }

    /// Publishes `shard`'s breaker position to the state gauge.
    fn publish_circuit(&self, shard: &str, state: CircuitState) {
        self.metrics
            .gauge_with("router_circuit_state", CIRCUIT_HELP, &[("shard", shard)])
            .set(state.gauge());
    }

    /// Records a successful probe or forward against `shard`.
    fn note_success(&self, shard: &str) {
        let state = {
            let mut health = self.lock_health();
            let entry = health.entry(shard.to_string()).or_default();
            entry.on_success();
            entry.state
        };
        self.publish_circuit(shard, state);
    }

    /// Records a failed probe (`heartbeat_miss = true`, counted in the
    /// miss family) or a failed forward against `shard`.
    fn note_failure(&self, shard: &str, heartbeat_miss: bool) {
        if heartbeat_miss {
            self.metrics
                .counter_with(
                    "router_heartbeat_misses_total",
                    HEARTBEAT_MISS_HELP,
                    &[("shard", shard)],
                )
                .inc();
        }
        let state = {
            let mut health = self.lock_health();
            let entry = health.entry(shard.to_string()).or_default();
            entry.on_failure(self.config.heartbeat_misses.max(1));
            entry.state
        };
        self.publish_circuit(shard, state);
    }

    /// Whether a request may be attempted against `shard` right now
    /// (possibly flipping an expired open breaker to half-open).
    fn allow_attempt(&self, shard: &str) -> bool {
        let (allowed, state) = {
            let mut health = self.lock_health();
            let entry = health.entry(shard.to_string()).or_default();
            (entry.allow_attempt(self.config.open_cooldown), entry.state)
        };
        self.publish_circuit(shard, state);
        allowed
    }

    /// Whether `shard` is currently declared unhealthy (breaker not
    /// closed).
    fn shard_down(&self, shard: &str) -> bool {
        self.lock_health()
            .get(shard)
            .is_some_and(|h| h.state != CircuitState::Closed)
    }

    /// The sorted names of shards currently declared unhealthy.
    fn degraded_shards(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .lock_health()
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
        self.lock_health()
            .insert(shard.to_string(), ShardHealth::default());
        self.publish_circuit(shard, CircuitState::Closed);
        let mut rep = self.lock_replication();
        rep.pushed.retain(|(replica, _), _| replica != shard);
        rep.freshness.retain(|(replica, _), _| replica != shard);
    }

    /// Bumps the failover counter of the shard routed *away from*.
    fn count_failover(&self, dead: &str) {
        self.metrics
            .counter_with("router_failovers_total", FAILOVER_HELP, &[("shard", dead)])
            .inc();
    }

    /// One-shot request/response against a shard daemon.
    fn ask(&self, shard: &str, addr: SocketAddr, line: &str) -> Result<String, ServiceError> {
        let fail = |reason: String| ServiceError::ShardUnavailable {
            shard: shard.to_string(),
            reason,
        };
        let mut stream = TcpStream::connect_timeout(&addr, self.config.connect_timeout)
            .map_err(|e| fail(e.to_string()))?;
        stream
            .set_read_timeout(Some(self.config.ship_timeout))
            .map_err(|e| fail(e.to_string()))?;
        stream.set_nodelay(true).map_err(|e| fail(e.to_string()))?;
        stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| fail(e.to_string()))?;
        read_reply_line(&mut stream).map_err(|e| fail(e.to_string()))
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
        let reply = self.ask(shard, addr, &format!("EXPORT {}", namespaces.join(" ")))?;
        let fail = |reason: String| ServiceError::ShardUnavailable {
            shard: shard.to_string(),
            reason,
        };
        let mut tokens = reply.split_whitespace();
        if tokens.next() != Some("SHIPMENT") {
            return Err(fail(reply.clone()));
        }
        let digest = tokens
            .next()
            .and_then(|t| u64::from_str_radix(t, 16).ok())
            .ok_or_else(|| fail(format!("malformed SHIPMENT digest in {reply:?}")))?;
        let len: usize = tokens
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| fail(format!("malformed SHIPMENT length in {reply:?}")))?;
        // A zero-length shipment renders with no hex token at all.
        let hex = tokens.next().unwrap_or("");
        let payload =
            hex_decode(hex).ok_or_else(|| fail(format!("malformed SHIPMENT hex in {reply:?}")))?;
        if payload.len() != len {
            return Err(fail(format!(
                "SHIPMENT length mismatch: header {len}, payload {}",
                payload.len()
            )));
        }
        Ok((digest, payload))
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
        let fail = |reason: String| ServiceError::ShardUnavailable {
            shard: shard.to_string(),
            reason,
        };
        let mut stream = TcpStream::connect_timeout(&addr, self.config.connect_timeout)
            .map_err(|e| fail(e.to_string()))?;
        stream
            .set_read_timeout(Some(self.config.ship_timeout))
            .map_err(|e| fail(e.to_string()))?;
        stream.set_nodelay(true).map_err(|e| fail(e.to_string()))?;
        let header = format!("SHIP {} {}\n", namespaces.join(" "), payload.len());
        stream
            .write_all(header.as_bytes())
            .map_err(|e| fail(e.to_string()))?;
        stream.write_all(payload).map_err(|e| fail(e.to_string()))?;
        let reply = read_reply_line(&mut stream).map_err(|e| fail(e.to_string()))?;
        reply
            .strip_prefix("OK ")
            .and_then(|n| n.trim().parse::<u64>().ok())
            .ok_or_else(|| fail(reply.clone()))
    }

    /// Marks a namespace as having submitted-but-not-run work.
    fn mark_dirty(&self, namespace: &str) {
        if self.k() > 1 {
            self.lock_replication().dirty.insert(namespace.to_string());
        }
    }

    /// Promotes dirty namespaces to ready — called once a cluster `RUN`
    /// completed, i.e. their caches have settled.
    fn promote_dirty(&self) {
        let mut rep = self.lock_replication();
        let dirty: Vec<String> = rep.dirty.drain().collect();
        rep.ready.extend(dirty);
    }

    /// Pushes every ready namespace from its live primary to its live
    /// replicas (digest-skipped when unchanged). Namespaces that fail to
    /// replicate are requeued for the next flush. Returns the total
    /// number of `(replica, namespace)` copies currently confirmed warm.
    fn flush_ready_replication(&self) -> usize {
        let ready: Vec<String> = {
            let mut rep = self.lock_replication();
            rep.ready.drain().collect()
        };
        let mut requeue = Vec::new();
        for namespace in &ready {
            if self.replicate_namespace(namespace).is_err() {
                requeue.push(namespace.clone());
            }
        }
        let mut rep = self.lock_replication();
        rep.ready.extend(requeue);
        rep.pushed.len()
    }

    /// Ships one namespace from its highest-ranked live owner to every
    /// other live owner that does not already hold the current bytes.
    fn replicate_namespace(&self, namespace: &str) -> Result<(), ServiceError> {
        let k = self.k();
        if k <= 1 {
            return Ok(());
        }
        let (owners, addrs) = {
            let topology = self.lock_topology();
            let owners: Vec<String> = topology
                .map
                .owners_of_namespace(namespace, k)
                .iter()
                .map(|s| s.to_string())
                .collect();
            let addrs: HashMap<String, SocketAddr> = owners
                .iter()
                .filter_map(|o| topology.addr_of(o).map(|a| (o.clone(), a)))
                .collect();
            (owners, addrs)
        };
        let primary = owners
            .iter()
            .find(|o| !self.shard_down(o) && addrs.contains_key(*o))
            .cloned()
            .ok_or_else(|| ServiceError::ShardUnavailable {
                shard: owners.first().cloned().unwrap_or_default(),
                reason: format!("no live owner to export namespace {namespace} from"),
            })?;
        let namespaces = [namespace.to_string()];
        let (digest, payload) = self.wire_export(&primary, addrs[&primary], &namespaces)?;
        if payload.is_empty() {
            return Ok(());
        }
        let seq = {
            let mut rep = self.lock_replication();
            rep.seq += 1;
            rep.seq
        };
        let mut first_err = None;
        for replica in owners.iter().filter(|o| **o != primary) {
            let key = (replica.clone(), namespace.to_string());
            if self.shard_down(replica) {
                first_err.get_or_insert_with(|| ServiceError::ShardUnavailable {
                    shard: replica.clone(),
                    reason: "replica down during replication flush".to_string(),
                });
                continue;
            }
            let Some(addr) = addrs.get(replica).copied() else {
                continue;
            };
            if self.lock_replication().pushed.get(&key) == Some(&digest) {
                continue;
            }
            match self.wire_ship(replica, addr, &namespaces, &payload) {
                Ok(_) => {
                    let mut rep = self.lock_replication();
                    rep.pushed.insert(key.clone(), digest);
                    rep.freshness.insert(key, seq);
                }
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
        let candidates: Vec<(String, SocketAddr)> = {
            let topology = self.lock_topology();
            let owners: Vec<String> = topology
                .map
                .owners_of_namespace(&namespace, self.k())
                .iter()
                .map(|s| s.to_string())
                .collect();
            owners
                .into_iter()
                .filter(|o| *o != dead)
                .filter_map(|o| topology.addr_of(&o).map(|a| (o, a)))
                .collect()
        };
        let mut candidates: Vec<(String, SocketAddr)> = candidates
            .into_iter()
            .filter(|(name, _)| !self.shard_down(name))
            .collect();
        {
            // Freshest replica first; the sort is stable, so rendezvous
            // rank breaks ties.
            let rep = self.lock_replication();
            candidates.sort_by_key(|(name, _)| {
                std::cmp::Reverse(
                    rep.freshness
                        .get(&(name.clone(), namespace.clone()))
                        .copied()
                        .unwrap_or(0),
                )
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
            let ran = match self.ask(&name, addr, &with_ctx(ctx, "RUN")) {
                Ok(reply) => reply,
                Err(_) => continue,
            };
            if !ran.starts_with("OK") {
                continue;
            }
            if !self.lock_tickets().remap(global, &name, local) {
                return Err(format!("ERR unknown ticket {global}"));
            }
            self.count_failover(&dead);
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
    front_thread: Mutex<Option<JoinHandle<()>>>,
    /// Interrupts the front thread's poller wait so [`Router::stop`]
    /// never waits out a full timeout.
    front_wakeup: Wakeup,
    heartbeat_thread: Mutex<Option<JoinHandle<()>>>,
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
        });
        {
            let topology = inner.lock_topology();
            let names: Vec<String> = topology.shards.iter().map(|s| s.name.clone()).collect();
            drop(topology);
            for name in names {
                inner.register_shard_metrics(&name);
            }
        }
        // The client-facing front runs on one poller-driven thread (the
        // same readiness core as the daemon's reactor); its poller and
        // wakeup channel are built here so a failure surfaces as a bind
        // error instead of a silently dead thread.
        let (front_wakeup, front_wakeup_rx) = wakeup_pair()?;
        front_wakeup_rx.set_nonblocking(true)?;
        let mut front_poller = Poller::new()?;
        front_poller.register(
            poller::source(&front_wakeup_rx),
            FRONT_WAKEUP,
            Interest::READ,
        )?;
        front_poller.register(poller::source(&listener), FRONT_LISTENER, Interest::READ)?;
        let front_thread = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || front_loop(front_poller, listener, front_wakeup_rx, inner))
        };
        let heartbeat_thread = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || heartbeat_loop(inner))
        };
        Ok(Router {
            inner,
            addr,
            front_thread: Mutex::new(Some(front_thread)),
            front_wakeup,
            heartbeat_thread: Mutex::new(Some(heartbeat_thread)),
            lifecycle: Mutex::new(()),
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The router's own metrics registry (forward latency, reconnects,
    /// ticket remaps, heartbeat misses, failovers, backoff delays and
    /// circuit states per shard). Rendered at the head of every merged
    /// `METRICS` reply; exposed for tests and embedding processes.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.inner.metrics
    }

    /// A snapshot of the current ownership map.
    pub fn shard_map(&self) -> ShardMap {
        self.inner.lock_topology().map.clone()
    }

    /// The current shard set with addresses, sorted by name.
    pub fn shards(&self) -> Vec<(String, SocketAddr)> {
        let topology = self.inner.lock_topology();
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
        self.inner
            .lock_topology()
            .map
            .owner_of_namespace(namespace)
            .map(str::to_string)
    }

    /// The ranked owner set of `namespace` under the configured
    /// replication factor: the primary first, then the failover replicas.
    pub fn owners_of(&self, namespace: &str) -> Vec<String> {
        self.inner
            .lock_topology()
            .map
            .owners_of_namespace(namespace, self.inner.k())
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    /// The current circuit-breaker position of `shard` as seen by the
    /// heartbeat/forward machinery ([`CircuitState::Closed`] for a shard
    /// that has never failed).
    pub fn circuit_state(&self, shard: &str) -> CircuitState {
        self.inner
            .lock_health()
            .get(shard)
            .map(|h| h.state)
            .unwrap_or(CircuitState::Closed)
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
        let _lifecycle = self
            .lifecycle
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let before = {
            let topology = self.inner.lock_topology();
            if topology.addr_of(name).is_some() {
                return Err(ServiceError::InvalidTopology(format!(
                    "shard {name:?} is already a member"
                )));
            }
            topology.map.clone()
        };
        let mut after = before.clone();
        after.add(name.to_string());

        let (shipped, by_pair) = replica_plan(&self.inner, &before, &after);
        for ((source, target), namespaces) in by_pair {
            debug_assert_eq!(
                target, name,
                "rendezvous join granted a namespace to an unrelated shard"
            );
            let source_addr = self.inner.lock_topology().addr_of(&source).ok_or_else(|| {
                ServiceError::InvalidTopology(format!("shard {source:?} vanished"))
            })?;
            let target_addr = if target == name {
                addr
            } else {
                self.inner.lock_topology().addr_of(&target).ok_or_else(|| {
                    ServiceError::InvalidTopology(format!("shard {target:?} vanished"))
                })?
            };
            self.ship(&source, source_addr, &namespaces, &target, target_addr)?;
        }

        let mut topology = self.inner.lock_topology();
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
        let _lifecycle = self
            .lifecycle
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let before = {
            let topology = self.inner.lock_topology();
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

        let (shipped, by_pair) = replica_plan(&self.inner, &before, &after);
        for ((source, target), namespaces) in by_pair {
            let source_addr = self.inner.lock_topology().addr_of(&source).ok_or_else(|| {
                ServiceError::InvalidTopology(format!("shard {source:?} vanished"))
            })?;
            let target_addr = self.inner.lock_topology().addr_of(&target).ok_or_else(|| {
                ServiceError::InvalidTopology(format!("shard {target:?} vanished"))
            })?;
            self.ship(&source, source_addr, &namespaces, &target, target_addr)?;
        }

        let mut topology = self.inner.lock_topology();
        topology.shards.retain(|s| s.name != name);
        topology.map = after;
        drop(topology);
        self.inner.lock_tickets().purge_shard(name);
        self.inner.lock_health().remove(name);
        {
            let mut rep = self.inner.lock_replication();
            rep.pushed.retain(|(replica, _), _| replica != name);
            rep.freshness.retain(|(replica, _), _| replica != name);
        }
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
        let _lifecycle = self
            .lifecycle
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        {
            let mut topology = self.inner.lock_topology();
            let shard = topology
                .shards
                .iter_mut()
                .find(|s| s.name == name)
                .ok_or_else(|| {
                    ServiceError::InvalidTopology(format!("shard {name:?} is not a member"))
                })?;
            shard.addr = addr;
        }
        self.inner.lock_tickets().purge_shard(name);
        self.inner.reset_health(name);
        Ok(())
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
            let mut rep = self.inner.lock_replication();
            let seq = {
                rep.seq += 1;
                rep.seq
            };
            let key = (target.to_string(), namespace.clone());
            rep.pushed.insert(key.clone(), digest);
            rep.freshness.insert(key, seq);
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
        let mut front = self
            .front_thread
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Notified under the lock, after the flag store: the wakeup byte
        // interrupts the front thread's poller wait so stop never sleeps
        // out a full timeout.
        self.front_wakeup.notify();
        if let Some(handle) = front.take() {
            let _ = handle.join();
        }
        drop(front);
        let mut heartbeat = self
            .heartbeat_thread
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(handle) = heartbeat.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The minimal replica-aware shipping plan between two topologies: for
/// every namespace, each shard that newly enters its owner set receives a
/// copy from the warmest surviving old owner (falling back to the old
/// primary when the whole set turns over). Returns the flat shipment list
/// and the work grouped by `(source, target)` pair.
#[allow(clippy::type_complexity)]
fn replica_plan(
    inner: &Arc<RouterInner>,
    before: &ShardMap,
    after: &ShardMap,
) -> (Vec<ShippedNamespace>, Vec<((String, String), Vec<String>)>) {
    let k = inner.k();
    let mut shipped = Vec::new();
    let mut by_pair: Vec<((String, String), Vec<String>)> = Vec::new();
    for namespace in inner.spec.namespaces() {
        let before_owners: Vec<String> = before
            .owners_of_namespace(namespace, k)
            .iter()
            .map(|s| s.to_string())
            .collect();
        let after_owners: Vec<String> = after
            .owners_of_namespace(namespace, k)
            .iter()
            .map(|s| s.to_string())
            .collect();
        for target in after_owners.iter().filter(|t| !before_owners.contains(t)) {
            let Some(source) = before_owners
                .iter()
                .find(|s| after_owners.contains(s))
                .or_else(|| before_owners.first())
            else {
                continue;
            };
            let pair = (source.clone(), target.clone());
            match by_pair.iter_mut().find(|(p, _)| *p == pair) {
                Some((_, namespaces)) => namespaces.push(namespace.to_string()),
                None => by_pair.push((pair, vec![namespace.to_string()])),
            }
            shipped.push(ShippedNamespace {
                namespace: namespace.to_string(),
                from: source.clone(),
                to: target.clone(),
            });
        }
    }
    (shipped, by_pair)
}

/// One heartbeat probe: connect, `PING`, expect `PONG`, all under the
/// heartbeat timeout.
fn heartbeat_probe(inner: &RouterInner, addr: SocketAddr) -> io::Result<()> {
    let timeout = inner.config.heartbeat_timeout.max(Duration::from_millis(1));
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    stream.write_all(b"PING\n")?;
    let reply = read_reply_line(&mut stream)?;
    if reply == "PONG" {
        Ok(())
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected heartbeat reply {reply:?}"),
        ))
    }
}

/// The heartbeat thread: probes every shard each interval (feeding the
/// breakers), then flushes pending replication pushes. Sleeps in small
/// slices so [`Router::stop`] is never blocked behind a full interval.
fn heartbeat_loop(inner: Arc<RouterInner>) {
    while !inner.stop.load(Ordering::SeqCst) {
        let shards: Vec<(String, SocketAddr)> = inner
            .lock_topology()
            .shards
            .iter()
            .map(|s| (s.name.clone(), s.addr))
            .collect();
        for (name, addr) in shards {
            if inner.stop.load(Ordering::SeqCst) {
                return;
            }
            match heartbeat_probe(&inner, addr) {
                Ok(()) => inner.note_success(&name),
                Err(_) => inner.note_failure(&name, true),
            }
        }
        if inner.k() > 1 && !inner.stop.load(Ordering::SeqCst) {
            let _ = inner.flush_ready_replication();
        }
        let deadline = Instant::now() + inner.config.heartbeat_interval;
        while !inner.stop.load(Ordering::SeqCst) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::sleep((deadline - now).min(Duration::from_millis(5)));
        }
    }
}

/// Poller token of the front thread's wakeup receiver.
const FRONT_WAKEUP: usize = 0;
/// Poller token of the front thread's listening socket.
const FRONT_LISTENER: usize = 1;
/// Front poller tokens at and above this are client slots.
const FRONT_BASE: usize = 2;

/// Backstop poller timeout while no client owes any response: nothing can
/// come due spontaneously, so the wait only needs to re-check the stop
/// flag now and then (readiness interrupts it for real work).
const FRONT_IDLE_PARK: Duration = Duration::from_millis(10);

/// Prepares a socket for the handler loop: no Nagle delay, and reads
/// polled with a timeout instead of blocking.
fn polled(stream: TcpStream, poll_interval: Duration) -> io::Result<TcpStream> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(poll_interval.max(Duration::from_micros(1))))?;
    Ok(stream)
}

fn send_line(stream: &mut TcpStream, line: &str) -> io::Result<()> {
    stream.write_all(format!("{line}\n").as_bytes())
}

/// One read from a [`polled`] socket: `Ok(None)` when no bytes are there
/// yet (0 bytes is end of input).
fn read_chunk(stream: &mut TcpStream, chunk: &mut [u8]) -> io::Result<Option<usize>> {
    match stream.read(chunk) {
        Ok(n) => Ok(Some(n)),
        Err(err)
            if matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
            ) =>
        {
            Ok(None)
        }
        Err(err) => Err(err),
    }
}

/// A line-buffered connection to a shard, polled with a read timeout.
struct LineConn {
    stream: TcpStream,
    buf: Vec<u8>,
    eof: bool,
}

/// One poll of a [`LineConn`].
enum Polled {
    /// A complete line (terminator stripped).
    Line(String),
    /// Nothing complete yet.
    Pending,
    /// Orderly end of input; a final unterminated line was already
    /// surfaced as [`Polled::Line`].
    Eof,
    /// The connection failed.
    Dead,
}

impl LineConn {
    fn new(stream: TcpStream, poll_interval: Duration) -> io::Result<LineConn> {
        Ok(LineConn {
            stream: polled(stream, poll_interval)?,
            buf: Vec::new(),
            eof: false,
        })
    }

    /// Returns the next complete line, reading at most one chunk from the
    /// socket when the buffer has none.
    fn poll_line(&mut self) -> Polled {
        if let Some(line) = self.take_buffered_line() {
            return Polled::Line(line);
        }
        if self.eof {
            return self.drain_tail_or_eof();
        }
        let mut chunk = [0u8; 4096];
        match read_chunk(&mut self.stream, &mut chunk) {
            Ok(Some(0)) => {
                self.eof = true;
                self.drain_tail_or_eof()
            }
            Ok(Some(n)) => {
                self.buf.extend_from_slice(&chunk[..n]);
                match self.take_buffered_line() {
                    Some(line) => Polled::Line(line),
                    None => Polled::Pending,
                }
            }
            Ok(None) => Polled::Pending,
            Err(_) => Polled::Dead,
        }
    }

    fn take_buffered_line(&mut self) -> Option<String> {
        let pos = self.buf.iter().position(|&b| b == b'\n')?;
        let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
        line.pop();
        Some(String::from_utf8_lossy(&line).into_owned())
    }

    fn drain_tail_or_eof(&mut self) -> Polled {
        if self.buf.is_empty() {
            Polled::Eof
        } else {
            let line = String::from_utf8_lossy(&std::mem::take(&mut self.buf)).into_owned();
            Polled::Line(line)
        }
    }
}

/// A cached connection to one shard, pinned to the address it was opened
/// against so a rewired shard invalidates it, and stamped with an epoch
/// so an expectation can only ever read from the *same* connection its
/// request was sent on (a response owed by a dead connection must fail,
/// never consume a fresh connection's line for a later request).
struct ShardConn {
    conn: LineConn,
    addr: SocketAddr,
    epoch: u64,
}

/// One client handler's shard connections plus the epoch counter.
#[derive(Default)]
struct ConnPool {
    conns: HashMap<String, ShardConn>,
    next_epoch: u64,
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
        /// The trace context the submission was forwarded under; its
        /// trace id is remembered in the ticket table for `EXPLAIN`.
        ctx: TraceContext,
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

/// A fan-out verb's accumulator.
enum FanKind {
    /// `RUN`: sum the per-shard `OK <n>` counts.
    Run {
        /// Jobs executed across all reachable shards.
        total: u64,
    },
    /// `SNAPSHOT <path>`: sum the per-shard `OK <bytes>` sizes, tracking
    /// which per-shard files were written so a failed fan-out can remove
    /// its partial output.
    Snapshot {
        /// Bytes written across all shards.
        total: u64,
        /// The client-given base path (per-shard files are
        /// `<base>.<shard>`).
        base: String,
        /// Shards whose snapshot file was confirmed written.
        written: Vec<String>,
    },
    /// `STATS`: sum the per-shard cache counters.
    Stats {
        /// Running sums in [`STAT_KEYS`] order.
        sums: [u64; 8],
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

/// One pending `WAIT` slice on one shard: the cluster ids still owed.
struct WaitPart {
    shard: String,
    epoch: u64,
    globals: Vec<u64>,
}

/// Which counted multi-line verb a [`Expect::Gather`] is collecting.
#[derive(Clone, Copy, PartialEq, Eq)]
enum GatherKind {
    /// `METRICS`: per-shard header `METRICS <n>`, merged with `shard=`
    /// labels; an unreachable shard degrades to a comment line.
    Metrics,
    /// `TRACE DUMP <n>`: per-shard header `SPANS <k>`, merged with a
    /// `shard=` suffix; an unreachable shard fails the whole reply.
    Trace,
    /// `EXPLAIN` (fanned out as `EXPLAIN TRACE <id>`): per-shard header
    /// `TIMELINE <k>`, merged time-ordered with a `shard=` suffix plus
    /// the router's own spans for the trace; an unreachable shard fails
    /// the whole reply (a partial timeline silently lies).
    Explain {
        /// The trace id being stitched.
        trace: u64,
    },
    /// `TRACE SLOW <n>`: per-shard header `SLOW <k>`, merged
    /// slowest-first with a `shard=` suffix; an unreachable shard fails
    /// the whole reply.
    Slow,
}

impl GatherKind {
    /// The header word a shard's reply must start with.
    fn header(self) -> &'static str {
        match self {
            GatherKind::Metrics => "METRICS",
            GatherKind::Trace => "SPANS",
            GatherKind::Explain { .. } => "TIMELINE",
            GatherKind::Slow => "SLOW",
        }
    }
}

/// One shard's slice of a counted multi-line fan-in.
struct GatherPart {
    shard: String,
    epoch: u64,
    /// `None` until the `<HEADER> <n>` count line arrives.
    remaining: Option<usize>,
    /// Body lines collected so far (un-relabeled).
    lines: Vec<String>,
    /// Set when the shard failed (unavailable, or a malformed header).
    failed: Option<String>,
}

impl GatherPart {
    fn done(&self) -> bool {
        self.failed.is_some() || self.remaining == Some(0)
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
    /// One line owed by each listed shard, folded into one response.
    FanOut {
        kind: FanKind,
        pending: Vec<(String, u64)>,
        error: Option<String>,
        /// Shards skipped because they were unreachable — the degraded
        /// remainder of a `RUN`/`STATS` fan-out.
        skipped: Vec<String>,
    },
    /// A cross-shard `WAIT`: local error lines first, then streamed
    /// `DONE`s merged in arrival order.
    Wait {
        pre: Vec<String>,
        parts: Vec<WaitPart>,
    },
    /// A counted multi-line reply owed by each shard (`METRICS` /
    /// `TRACE DUMP`), merged into one counted reply with shard labels.
    Gather {
        kind: GatherKind,
        parts: Vec<GatherPart>,
    },
}

/// One client connection on the router's front thread: the socket and
/// its request framer, its pinned shard-connection pool, the ordered
/// pipeline of owed responses, and the registration state mirrored from
/// the poller.
struct FrontClient {
    stream: TcpStream,
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
    /// No more requests will arrive; pending expectations still resolve.
    eof: bool,
    /// The interest currently registered with the front poller.
    interest: Interest,
}

/// The router's front thread: accepts and serves **every** client
/// connection through one poller — the same O(ready) readiness core as
/// the daemon's reactor, replacing the former thread-per-connection
/// handler model. Client sockets stay *blocking* with the
/// [`RouterConfig::poll_interval`] read timeout (multi-line responses are
/// written with plain `write_all`, which must not fail mid-reply on a
/// slow reader); the poller decides *which* clients are worth reading, so
/// idle clients cost nothing per sweep.
fn front_loop(
    mut front: Poller,
    listener: TcpListener,
    mut wakeup_rx: TcpStream,
    inner: Arc<RouterInner>,
) {
    let mut clients: Vec<Option<FrontClient>> = Vec::new();
    let mut free_slots: Vec<usize> = Vec::new();
    let mut events: Vec<poller::Event> = Vec::new();
    let mut touched: HashSet<usize> = HashSet::new();
    while !inner.stop.load(Ordering::SeqCst) {
        // While any client owes a shard-side response, the wait ticks at
        // the poll interval so shard replies (which are not registered
        // with the poller) are polled promptly; otherwise nothing can
        // come due without readiness, and a long backstop suffices.
        let waiting = clients.iter().flatten().any(|c| !c.expects.is_empty());
        let timeout = if waiting {
            inner.config.poll_interval.max(Duration::from_micros(1))
        } else {
            FRONT_IDLE_PARK
        };
        let _ = front.wait(&mut events, Some(timeout));
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
        touched.clear();
        for event in &events {
            match event.token {
                FRONT_WAKEUP => drain_wakeup(&mut wakeup_rx),
                FRONT_LISTENER => {
                    accept_clients(&mut front, &listener, &inner, &mut clients, &mut free_slots)
                }
                token => {
                    touched.insert(token - FRONT_BASE);
                }
            }
        }
        // Step every client with something actionable: flagged readable
        // by the poller, holding buffered bytes, or owing responses that
        // may have come due on its shard connections.
        for index in 0..clients.len() {
            let actionable = match &clients[index] {
                Some(client) => {
                    touched.contains(&index)
                        || !client.expects.is_empty()
                        || client.framer.has_buffered()
                        || client.eof
                }
                None => false,
            };
            if actionable {
                let readable = touched.contains(&index);
                step_client(
                    &inner,
                    &mut front,
                    &mut clients,
                    &mut free_slots,
                    index,
                    readable,
                );
            }
        }
    }
    // Deterministic teardown: every open client gets a final protocol
    // error, exactly as the per-connection handlers used to send.
    for client in clients.iter_mut().flatten() {
        let _ = send_line(&mut client.stream, "ERR service is shut down");
    }
}

/// Accepts every ready client connection and registers it with the front
/// poller under a slab slot.
fn accept_clients(
    front: &mut Poller,
    listener: &TcpListener,
    inner: &Arc<RouterInner>,
    clients: &mut Vec<Option<FrontClient>>,
    free_slots: &mut Vec<usize>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let Ok(stream) = polled(stream, inner.config.poll_interval) else {
                    continue;
                };
                let slot = free_slots.pop().unwrap_or_else(|| {
                    clients.push(None);
                    clients.len() - 1
                });
                if front
                    .register(poller::source(&stream), FRONT_BASE + slot, Interest::READ)
                    .is_err()
                {
                    free_slots.push(slot);
                    continue;
                }
                clients[slot] = Some(FrontClient {
                    stream,
                    framer: Framer::new(protocol::parse_request, inner.config.max_line_len, 0),
                    ctx: inner.tracer.mint_context(),
                    pool: ConnPool::default(),
                    expects: VecDeque::new(),
                    eof: false,
                    interest: Interest::READ,
                });
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// One scheduling step for one client: parse and dispatch what it sent
/// (pipelining: every parsed request is forwarded before earlier
/// responses are read back, under the same backpressure rule as the
/// reactor), resolve the head of its pipeline as far as it goes, then
/// settle its poller registration — or reap it on QUIT/EOF/death.
fn step_client(
    inner: &Arc<RouterInner>,
    front: &mut Poller,
    clients: &mut [Option<FrontClient>],
    free_slots: &mut Vec<usize>,
    index: usize,
    readable: bool,
) {
    let client = clients[index].as_mut().expect("stepped slot is live");
    let mut closed = false;
    // The read phase runs only when the poller flagged the socket (or
    // lines are already buffered): a client merely waiting on shard
    // responses must not pay a blocking read timeout per tick. Lines are
    // parsed one at a time with a resolve pass between them — a pipelined
    // ticket verb (`WAIT 1` right behind `SUBMIT …`) must observe the
    // ticket mappings that resolving its predecessor's response creates —
    // and the step is capped so one firehose client cannot monopolise the
    // front thread.
    let mut budget = inner.config.max_pipelined.max(1);
    while (readable || client.framer.has_buffered())
        && !closed
        && !client.eof
        && budget > 0
        && client.expects.len() < inner.config.max_pipelined
    {
        budget -= 1;
        let frame = match client.framer.next_frame() {
            Some(frame) => frame,
            None => {
                // Nothing complete buffered: read at most one chunk.
                let mut chunk = [0u8; 4096];
                let read = match read_chunk(&mut client.stream, &mut chunk) {
                    Ok(Some(n)) => n,
                    Ok(None) => break,
                    Err(_) => {
                        closed = true;
                        break;
                    }
                };
                client.framer.push(&chunk[..read]);
                // EOF: a final unterminated line is still a request.
                client.eof = read == 0;
                let framed = match client.eof {
                    true => client.framer.finish(),
                    false => client.framer.next_frame(),
                };
                match framed {
                    Some(frame) => frame,
                    None => break,
                }
            }
        };
        client.expects.push_back(match frame {
            Frame::Request(request) => route_request(inner, &mut client.pool, client.ctx, request),
            Frame::LineTooLong => Expect::Local(format!(
                "ERR line too long (max {} bytes)",
                inner.config.max_line_len
            )),
            Frame::ShipTooLarge => Expect::Local(SHIP_IS_SHARD_LEVEL.into()),
        });
        match resolve_head(
            inner,
            &mut client.pool,
            client.ctx,
            &mut client.expects,
            &mut client.stream,
        ) {
            ClientState::Open => {}
            ClientState::Closed => {
                closed = true;
                break;
            }
        }
    }
    if !closed {
        match resolve_head(
            inner,
            &mut client.pool,
            client.ctx,
            &mut client.expects,
            &mut client.stream,
        ) {
            ClientState::Open => {}
            ClientState::Closed => closed = true,
        }
    }
    if closed || (client.eof && client.expects.is_empty()) {
        let _ = front.deregister(poller::source(&client.stream));
        clients[index] = None;
        free_slots.push(index);
        return;
    }
    // Backpressure mirror of the reactor: while the pipeline is at max
    // depth (or after EOF), drop read interest so level-triggered
    // readiness does not spin on bytes this step refuses to parse.
    let want = Interest {
        read: !client.eof && client.expects.len() < inner.config.max_pipelined,
        write: false,
    };
    if want != client.interest
        && front
            .reregister(poller::source(&client.stream), FRONT_BASE + index, want)
            .is_ok()
    {
        client.interest = want;
    }
}

enum ClientState {
    Open,
    Closed,
}

/// What the router answers a client that sends it a `SHIP` frame.
const SHIP_IS_SHARD_LEVEL: &str = "ERR SHIP is a shard-level verb";

/// Forwards one parsed request, returning the expectation that will
/// produce its response. `conn` is the connection's trace context: every
/// forwarded line is prefixed with `CTX <hex>` carrying a fresh child of
/// it (or of the submitting trace, for ticket verbs).
fn route_request(
    inner: &Arc<RouterInner>,
    pool: &mut ConnPool,
    conn: TraceContext,
    request: Parsed,
) -> Expect {
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
            let topology = inner.lock_topology();
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
            let owners: Vec<String> = inner
                .lock_topology()
                .map
                .owners_of_namespace(&namespace, inner.k())
                .iter()
                .map(|s| s.to_string())
                .collect();
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
                match forward(inner, pool, &owner, &line) {
                    Ok(epoch) => {
                        let degraded = owner != primary;
                        if degraded {
                            inner.count_failover(&primary);
                        }
                        inner.mark_dirty(&namespace);
                        return Expect::Forward {
                            shard: owner,
                            epoch,
                            rewrite: Rewrite::Submit {
                                scenario: scenario.clone(),
                                degraded,
                                ctx: child,
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
            let Some(mut entry) = inner.lock_tickets().lookup(global) else {
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
            let send = |pool: &mut ConnPool, entry: &TicketEntry| {
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
                let epoch = forward(inner, pool, &entry.shard, &with_ctx(child, &line))?;
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
            match send(pool, &entry) {
                Ok(expect) => expect,
                // The forward just failed — maybe the shard died between
                // heartbeats. One immediate failover attempt.
                Err(err) => match inner.failover_ticket(global, &entry) {
                    Ok(rehomed) => send(pool, &rehomed).unwrap_or_else(Expect::Local),
                    Err(_) => Expect::Local(err),
                },
            }
        }
        Verb::Run => fan_out(inner, pool, conn, FanKind::Run { total: 0 }, |_| {
            "RUN".into()
        }),
        Verb::Metrics => gather(inner, pool, conn, GatherKind::Metrics, "METRICS"),
        // Each shard returns up to <n> spans / slow traces; the merged
        // reply may carry up to <n> per shard (documented in the protocol).
        Verb::TraceDump(n) => gather(
            inner,
            pool,
            conn,
            GatherKind::Trace,
            &format!("TRACE DUMP {n}"),
        ),
        Verb::TraceSlow(n) => gather(
            inner,
            pool,
            conn,
            GatherKind::Slow,
            &format!("TRACE SLOW {n}"),
        ),
        Verb::ExplainTrace(trace) => gather_timeline(inner, pool, conn, *trace),
        Verb::Explain(global) => match inner.lock_tickets().lookup(*global) {
            Some(entry) => gather_timeline(inner, pool, conn, entry.trace),
            None => Expect::Local(format!("ERR unknown ticket {global}")),
        },
        Verb::Stats => fan_out(inner, pool, conn, FanKind::Stats { sums: [0; 8] }, |_| {
            "STATS".into()
        }),
        Verb::Snapshot(base) => fan_out(
            inner,
            pool,
            conn,
            FanKind::Snapshot {
                total: 0,
                base: base.clone(),
                written: Vec::new(),
            },
            |shard| format!("SNAPSHOT {base}.{shard}"),
        ),
        Verb::Wait(globals) => {
            let mut pre = Vec::new();
            let mut per_shard = Vec::new();
            for &global in globals {
                let entry = inner.lock_tickets().lookup(global);
                let homed = match entry {
                    None => Err(format!("ERR unknown ticket {global}")),
                    Some(entry) if inner.shard_down(&entry.shard) => {
                        inner.failover_ticket(global, &entry)
                    }
                    Some(entry) => Ok(entry),
                };
                match homed {
                    Ok(entry) => group_wait(&mut per_shard, entry, global),
                    Err(line) => pre.push(line),
                }
            }
            let mut parts = Vec::new();
            pre.extend(forward_waits(inner, pool, conn, per_shard, &mut parts));
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

/// `EXPLAIN`, fanned out as `EXPLAIN TRACE <id>` to every shard.
fn gather_timeline(
    inner: &Arc<RouterInner>,
    pool: &mut ConnPool,
    conn: TraceContext,
    trace: u64,
) -> Expect {
    let line = format!("EXPLAIN TRACE {trace:016x}");
    gather(inner, pool, conn, GatherKind::Explain { trace }, &line)
}

/// Tickets of one `WAIT`, grouped by the shard serving them: per shard,
/// the `(cluster id, shard-local id)` pairs in request order.
type WaitGroups = Vec<(String, Vec<(u64, u64)>)>;

fn group_wait(groups: &mut WaitGroups, entry: TicketEntry, global: u64) {
    match groups.iter_mut().find(|(shard, _)| *shard == entry.shard) {
        Some((_, items)) => items.push((global, entry.local)),
        None => groups.push((entry.shard, vec![(global, entry.local)])),
    }
}

/// Forwards one `WAIT` per group, appending a [`WaitPart`] for each that
/// went out. Returns one error line per ticket of the groups that did not.
fn forward_waits(
    inner: &Arc<RouterInner>,
    pool: &mut ConnPool,
    conn: TraceContext,
    groups: WaitGroups,
    parts: &mut Vec<WaitPart>,
) -> Vec<String> {
    let mut errors = Vec::new();
    for (shard, items) in groups {
        let locals: Vec<String> = items.iter().map(|(_, local)| local.to_string()).collect();
        let line = with_ctx(
            inner.tracer.child_context(conn),
            &format!("WAIT {}", locals.join(" ")),
        );
        match forward(inner, pool, &shard, &line) {
            Ok(epoch) => parts.push(WaitPart {
                shard,
                epoch,
                globals: items.iter().map(|(global, _)| *global).collect(),
            }),
            Err(err) => errors.extend(items.iter().map(|_| err.clone())),
        }
    }
    errors
}

/// Forwards `line` to every shard (lines derived per shard by `render`),
/// returning the folding expectation. `RUN` and `STATS` degrade — an
/// unreachable shard is skipped and reported in the `degraded=` suffix —
/// while `SNAPSHOT` keeps all-or-nothing semantics (a partial cluster
/// snapshot is worse than none).
fn fan_out(
    inner: &Arc<RouterInner>,
    pool: &mut ConnPool,
    conn: TraceContext,
    kind: FanKind,
    render: impl Fn(&str) -> String,
) -> Expect {
    let shards: Vec<String> = inner.lock_topology().map.shards().to_vec();
    if shards.is_empty() {
        return Expect::Local("ERR cluster has no shards".into());
    }
    let degrade = !matches!(kind, FanKind::Snapshot { .. });
    let mut pending = Vec::new();
    let mut error = None;
    let mut skipped = Vec::new();
    for shard in shards {
        let line = with_ctx(inner.tracer.child_context(conn), &render(&shard));
        match forward(inner, pool, &shard, &line) {
            Ok(epoch) => pending.push((shard, epoch)),
            Err(err) => {
                error.get_or_insert(err);
                if degrade {
                    skipped.push(shard);
                }
            }
        }
    }
    if pending.is_empty() {
        return Expect::Local(error.unwrap_or_else(|| "ERR cluster has no shards".into()));
    }
    if degrade {
        error = None;
    }
    Expect::FanOut {
        kind,
        pending,
        error,
        skipped,
    }
}

/// Forwards a counted multi-line verb (`METRICS` / `TRACE DUMP`) to every
/// shard, returning the merging expectation. A shard that cannot even be
/// reached starts out failed; the merge policy per failure lives in
/// [`GatherKind`].
fn gather(
    inner: &Arc<RouterInner>,
    pool: &mut ConnPool,
    conn: TraceContext,
    kind: GatherKind,
    line: &str,
) -> Expect {
    let shards: Vec<String> = inner.lock_topology().map.shards().to_vec();
    if shards.is_empty() {
        return Expect::Local("ERR cluster has no shards".into());
    }
    let mut parts = Vec::new();
    for shard in shards {
        let prefixed = with_ctx(inner.tracer.child_context(conn), line);
        let part = match forward(inner, pool, &shard, &prefixed) {
            Ok(epoch) => GatherPart {
                shard,
                epoch,
                remaining: None,
                lines: Vec::new(),
                failed: None,
            },
            Err(err) => GatherPart {
                shard,
                epoch: 0,
                remaining: None,
                lines: Vec::new(),
                failed: Some(err),
            },
        };
        parts.push(part);
    }
    Expect::Gather { kind, parts }
}

/// The ` degraded=<shards>` suffix appended to degraded `RUN`/`STATS`
/// replies: the union of shards skipped by this fan-out and shards the
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

/// Merges the completed parts of a `METRICS` / `TRACE DUMP` gather into
/// one counted multi-line reply.
fn render_gather(inner: &Arc<RouterInner>, kind: GatherKind, parts: &[GatherPart]) -> String {
    match kind {
        GatherKind::Metrics => {
            // Router-own families first (already carry their own labels;
            // `router_*` names cannot collide with shard-side families),
            // then each shard's exposition relabeled. `# HELP` / `# TYPE`
            // comments repeat per shard — keep the first occurrence.
            let mut out = Vec::new();
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
                    // exactly when monitoring matters. Degrade to a
                    // comment so the gap is visible in the exposition.
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
            let mut reply = format!("METRICS {}", out.len());
            for line in out {
                reply.push('\n');
                reply.push_str(&line);
            }
            reply
        }
        GatherKind::Trace => {
            if let Some(part) = parts.iter().find(|p| p.failed.is_some()) {
                return part.failed.clone().expect("found a failed part");
            }
            let mut out = Vec::new();
            for part in parts {
                for line in &part.lines {
                    out.push(format!("{line} shard={}", part.shard));
                }
            }
            let mut reply = format!("SPANS {}", out.len());
            for line in out {
                reply.push('\n');
                reply.push_str(&line);
            }
            reply
        }
        GatherKind::Explain { trace } => {
            if let Some(part) = parts.iter().find(|p| p.failed.is_some()) {
                // A partial timeline silently lies about where the time
                // went — fail the whole EXPLAIN instead.
                return part.failed.clone().expect("found a failed part");
            }
            let mut out = Vec::new();
            for part in parts {
                for line in &part.lines {
                    out.push(format!("{line} shard={}", part.shard));
                }
            }
            // The router contributes its own spans for the trace — the
            // `forward` round-trips that parent each shard's spans.
            let anchor = inner.tracer.wall_anchor_us();
            for span in inner.tracer.trace_spans(trace) {
                out.push(format!(
                    "{} shard=router",
                    crate::net::render_event(anchor, &span)
                ));
            }
            // Wall-clock anchoring makes start times comparable across
            // processes; the stable sort keeps intra-process order for
            // ties.
            out.sort_by_key(|line| field_of(line, "start_us="));
            let mut reply = format!("TIMELINE {}", out.len());
            for line in out {
                reply.push('\n');
                reply.push_str(&line);
            }
            reply
        }
        GatherKind::Slow => {
            if let Some(part) = parts.iter().find(|p| p.failed.is_some()) {
                return part.failed.clone().expect("found a failed part");
            }
            let mut out = Vec::new();
            for part in parts {
                for line in &part.lines {
                    out.push(format!("{line} shard={}", part.shard));
                }
            }
            out.sort_by_key(|line| std::cmp::Reverse(field_of(line, "dur_us=")));
            let mut reply = format!("SLOW {}", out.len());
            for line in out {
                reply.push('\n');
                reply.push_str(&line);
            }
            reply
        }
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
/// when absent — the merge sort keys of [`render_gather`].
fn field_of(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(key))
        .and_then(|value| value.parse().ok())
        .unwrap_or(0)
}

/// Sends one line to `shard`, (re)connecting as needed with bounded
/// jittered-backoff retries, gated by the shard's circuit breaker (an
/// open circuit fails fast without touching the socket). Returns the
/// epoch of the connection the line went out on — the expectation must
/// read its response from that epoch only. The error value is a
/// ready-to-emit protocol line.
fn forward(
    inner: &Arc<RouterInner>,
    pool: &mut ConnPool,
    shard: &str,
    line: &str,
) -> Result<u64, String> {
    let unavailable = |reason: &str| format!("ERR shard {shard} unavailable ({reason})");
    let Some(addr) = inner.lock_topology().addr_of(shard) else {
        return Err(unavailable("not a member"));
    };
    // A rewired shard invalidates the cached connection.
    if pool.conns.get(shard).is_some_and(|c| c.addr != addr) {
        pool.conns.remove(shard);
        inner.reconnects.inc();
    }
    let attempts = inner.config.forward_attempts.max(1);
    let mut rng = jitter_rng();
    let mut last_err = String::from("no attempt allowed");
    for attempt in 0..attempts {
        if !inner.allow_attempt(shard) {
            return Err(unavailable("circuit open"));
        }
        if attempt > 0 {
            let delay = backoff_delay(&inner.config, attempt, &mut rng);
            inner
                .metrics
                .histogram_with("router_backoff_ms", BACKOFF_HELP, &[("shard", shard)])
                .record(delay.as_millis() as u64);
            std::thread::sleep(delay);
        }
        if !pool.conns.contains_key(shard) {
            let connected = TcpStream::connect_timeout(&addr, inner.config.connect_timeout)
                .and_then(|stream| LineConn::new(stream, inner.config.poll_interval));
            match connected {
                Ok(conn) => {
                    pool.next_epoch += 1;
                    pool.conns.insert(
                        shard.to_string(),
                        ShardConn {
                            conn,
                            addr,
                            epoch: pool.next_epoch,
                        },
                    );
                }
                Err(err) => {
                    inner.note_failure(shard, false);
                    last_err = err.to_string();
                    continue;
                }
            }
        }
        let entry = pool.conns.get_mut(shard).expect("inserted above");
        let epoch = entry.epoch;
        match send_line(&mut entry.conn.stream, line) {
            Ok(()) => return Ok(epoch),
            Err(err) => {
                // A stale pooled connection (shard restarted) fails here.
                // Dropping it retires its epoch: responses still owed on
                // it resolve to "shard unavailable" instead of consuming
                // this request's reply off the fresh connection — which
                // makes the clean retry safe.
                pool.conns.remove(shard);
                inner.reconnects.inc();
                inner.note_failure(shard, false);
                last_err = err.to_string();
            }
        }
    }
    Err(unavailable(&last_err))
}

/// Reads one response line owed by `shard` on the connection with the
/// given `epoch`. A missing, retired (epoch mismatch) or rewired
/// connection means the response is lost — never read a newer
/// connection's lines for an older request.
fn poll_shard(inner: &Arc<RouterInner>, pool: &mut ConnPool, shard: &str, epoch: u64) -> Polled {
    let current_addr = inner.lock_topology().addr_of(shard);
    let Some(entry) = pool.conns.get_mut(shard) else {
        return Polled::Dead;
    };
    if entry.epoch != epoch {
        // The connection this response was owed on is gone; the current
        // one carries other requests' replies.
        return Polled::Dead;
    }
    if current_addr != Some(entry.addr) {
        // Rewired mid-flight: the old process (and the response) is gone.
        pool.conns.remove(shard);
        return Polled::Dead;
    }
    match entry.conn.poll_line() {
        Polled::Line(line) => Polled::Line(line),
        Polled::Pending => Polled::Pending,
        Polled::Eof | Polled::Dead => {
            pool.conns.remove(shard);
            Polled::Dead
        }
    }
}

/// Resolves as many leading expectations as currently possible, writing
/// response lines to the client in order.
fn resolve_head(
    inner: &Arc<RouterInner>,
    pool: &mut ConnPool,
    conn: TraceContext,
    expects: &mut VecDeque<Expect>,
    client: &mut TcpStream,
) -> ClientState {
    loop {
        let Some(head) = expects.front_mut() else {
            return ClientState::Open;
        };
        match head {
            Expect::Local(_) => {
                let Some(Expect::Local(text)) = expects.pop_front() else {
                    unreachable!("front matched Local");
                };
                if send_line(client, &text).is_err() {
                    return ClientState::Closed;
                }
            }
            Expect::Quit => {
                let _ = send_line(client, "BYE");
                return ClientState::Closed;
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
                match poll_shard(inner, pool, &shard_name, *epoch) {
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
                        let reply = apply_rewrite(inner, &shard_name, rewrite, &line);
                        expects.pop_front();
                        if send_line(client, &reply).is_err() {
                            return ClientState::Closed;
                        }
                    }
                    Polled::Pending => return ClientState::Open,
                    Polled::Eof | Polled::Dead => {
                        // The connection died with the response owed. Burn
                        // one re-dispatch: route_request re-resolves
                        // ownership (and ticket failover) from scratch, so
                        // the retry lands on a replica when one exists.
                        inner.note_failure(&shard_name, false);
                        let retries = *retries_left;
                        let request = request.clone();
                        expects.pop_front();
                        if retries > 0 {
                            let mut replacement = route_request(inner, pool, conn, request);
                            if let Expect::Forward { retries_left, .. } = &mut replacement {
                                *retries_left = retries - 1;
                            }
                            expects.push_front(replacement);
                            continue;
                        }
                        let reply = format!("ERR shard {shard_name} unavailable (connection lost)");
                        if send_line(client, &reply).is_err() {
                            return ClientState::Closed;
                        }
                    }
                }
            }
            Expect::FanOut {
                kind,
                pending,
                error,
                skipped,
            } => {
                let degrade = !matches!(kind, FanKind::Snapshot { .. });
                let mut progressed = true;
                while progressed && !pending.is_empty() {
                    progressed = false;
                    let mut index = 0;
                    while index < pending.len() {
                        let (shard, epoch) = pending[index].clone();
                        match poll_shard(inner, pool, &shard, epoch) {
                            Polled::Line(line) => {
                                fold_fan_line(kind, error, &shard, &line);
                                pending.remove(index);
                                progressed = true;
                            }
                            Polled::Pending => index += 1,
                            Polled::Eof | Polled::Dead => {
                                inner.note_failure(&shard, false);
                                if degrade {
                                    skipped.push(shard.clone());
                                } else {
                                    error.get_or_insert_with(|| {
                                        format!("ERR shard {shard} unavailable (connection lost)")
                                    });
                                }
                                pending.remove(index);
                                progressed = true;
                            }
                        }
                    }
                }
                if !pending.is_empty() {
                    return ClientState::Open;
                }
                let reply = match (&mut *kind, error.take()) {
                    (FanKind::Snapshot { base, written, .. }, Some(err)) => {
                        // A failed fan-out must not leave partial
                        // per-shard files behind: remove what was written.
                        for shard in written.drain(..) {
                            let _ = std::fs::remove_file(format!("{base}.{shard}"));
                        }
                        err
                    }
                    (_, Some(err)) => err,
                    (FanKind::Run { total }, None) => {
                        // The cluster's queues drained: replica caches can
                        // be refreshed on the next flush.
                        inner.promote_dirty();
                        format!("OK {total}{}", degraded_suffix(inner, skipped))
                    }
                    (FanKind::Snapshot { total, .. }, None) => format!("OK {total}"),
                    (FanKind::Stats { sums }, None) => {
                        let shard_count = inner.lock_topology().map.len();
                        let mut out = String::from("STATS");
                        for (key, value) in STAT_KEYS.iter().zip(sums) {
                            out.push_str(&format!(" {key}={value}"));
                        }
                        out.push_str(&format!(" cluster_shards={shard_count}"));
                        out.push_str(&degraded_suffix(inner, skipped));
                        out
                    }
                };
                expects.pop_front();
                if send_line(client, &reply).is_err() {
                    return ClientState::Closed;
                }
            }
            Expect::Wait { pre, parts } => {
                for line in pre.drain(..) {
                    if send_line(client, &line).is_err() {
                        return ClientState::Closed;
                    }
                }
                let mut any_pending = false;
                let mut i = 0;
                while i < parts.len() {
                    while !parts[i].globals.is_empty() {
                        let shard = parts[i].shard.clone();
                        let epoch = parts[i].epoch;
                        match poll_shard(inner, pool, &shard, epoch) {
                            Polled::Line(line) => {
                                let (reply, resolved) = rewrite_wait_line(inner, &shard, &line);
                                let part = &mut parts[i];
                                match resolved
                                    .and_then(|g| part.globals.iter().position(|x| *x == g))
                                {
                                    Some(pos) => {
                                        part.globals.remove(pos);
                                    }
                                    None => {
                                        // A line we cannot attribute
                                        // (e.g. a shard-side error)
                                        // consumes one owed slot.
                                        part.globals.remove(0);
                                    }
                                }
                                if send_line(client, &reply).is_err() {
                                    return ClientState::Closed;
                                }
                            }
                            Polled::Pending => {
                                any_pending = true;
                                break;
                            }
                            Polled::Eof | Polled::Dead => {
                                // The shard died mid-WAIT: re-home every
                                // still-owed ticket on a live replica and
                                // resume waiting there.
                                inner.note_failure(&shard, false);
                                let orphans: Vec<u64> = std::mem::take(&mut parts[i].globals);
                                let mut regroup = Vec::new();
                                let mut errors = Vec::new();
                                for global in orphans {
                                    let entry = inner.lock_tickets().lookup(global);
                                    let rehomed = match entry {
                                        Some(entry) => inner.failover_ticket(global, &entry),
                                        None => Err(format!("ERR unknown ticket {global}")),
                                    };
                                    match rehomed {
                                        Ok(entry) => group_wait(&mut regroup, entry, global),
                                        Err(line) => errors.push(line),
                                    }
                                }
                                errors.extend(forward_waits(inner, pool, conn, regroup, parts));
                                for line in errors {
                                    if send_line(client, &line).is_err() {
                                        return ClientState::Closed;
                                    }
                                }
                            }
                        }
                    }
                    i += 1;
                }
                if any_pending {
                    return ClientState::Open;
                }
                expects.pop_front();
            }
            Expect::Gather { kind, parts } => {
                let kind = *kind;
                let mut progressed = true;
                while progressed {
                    progressed = false;
                    for part in parts.iter_mut() {
                        while !part.done() {
                            match poll_shard(inner, pool, &part.shard, part.epoch) {
                                Polled::Line(line) => {
                                    progressed = true;
                                    match part.remaining {
                                        None => {
                                            // First line: `<HEADER> <n>`
                                            // or a shard-side error.
                                            let count = line
                                                .strip_prefix(kind.header())
                                                .map(str::trim)
                                                .and_then(|n| n.parse::<usize>().ok());
                                            match count {
                                                Some(n) => part.remaining = Some(n),
                                                None => {
                                                    part.failed = Some(format!(
                                                        "ERR shard {}: unexpected reply {line:?}",
                                                        part.shard
                                                    ));
                                                }
                                            }
                                        }
                                        Some(n) => {
                                            part.lines.push(line);
                                            part.remaining = Some(n - 1);
                                        }
                                    }
                                }
                                Polled::Pending => break,
                                Polled::Eof | Polled::Dead => {
                                    part.failed = Some(format!(
                                        "ERR shard {} unavailable (connection lost)",
                                        part.shard
                                    ));
                                }
                            }
                        }
                    }
                }
                if parts.iter().any(|p| !p.done()) {
                    return ClientState::Open;
                }
                let reply = render_gather(inner, kind, parts);
                expects.pop_front();
                if send_line(client, &reply).is_err() {
                    return ClientState::Closed;
                }
            }
        }
    }
}

/// Applies a single-line response rewrite.
fn apply_rewrite(inner: &Arc<RouterInner>, shard: &str, rewrite: &Rewrite, line: &str) -> String {
    match rewrite {
        Rewrite::Submit {
            scenario,
            degraded,
            ctx,
        } => match line
            .strip_prefix("TICKET ")
            .and_then(|s| s.parse::<u64>().ok())
        {
            Some(local) => {
                let global = inner.lock_tickets().allocate(
                    shard,
                    local,
                    scenario,
                    *degraded,
                    ctx.trace_id,
                    inner.config.max_tickets,
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
                let flag = if inner.lock_tickets().degraded(*global) {
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

/// Folds one shard's fan-out response line into the accumulator.
fn fold_fan_line(kind: &mut FanKind, error: &mut Option<String>, shard: &str, line: &str) {
    if line.starts_with("ERR ") {
        error.get_or_insert_with(|| format!("ERR shard {shard}: {}", &line[4..]));
        return;
    }
    match kind {
        FanKind::Run { total } => {
            match line.strip_prefix("OK ").and_then(|s| s.parse::<u64>().ok()) {
                Some(n) => *total += n,
                None => {
                    error.get_or_insert_with(|| {
                        format!("ERR shard {shard}: unexpected reply {line:?}")
                    });
                }
            }
        }
        FanKind::Snapshot { total, written, .. } => {
            match line.strip_prefix("OK ").and_then(|s| s.parse::<u64>().ok()) {
                Some(n) => {
                    *total += n;
                    written.push(shard.to_string());
                }
                None => {
                    error.get_or_insert_with(|| {
                        format!("ERR shard {shard}: unexpected reply {line:?}")
                    });
                }
            }
        }
        FanKind::Stats { sums } => {
            if !line.starts_with("STATS ") {
                error
                    .get_or_insert_with(|| format!("ERR shard {shard}: unexpected reply {line:?}"));
                return;
            }
            for token in line.split_whitespace().skip(1) {
                if let Some((key, value)) = token.split_once('=') {
                    if let (Some(slot), Ok(v)) = (
                        STAT_KEYS.iter().position(|k| *k == key),
                        value.parse::<u64>(),
                    ) {
                        sums[slot] += v;
                    }
                }
            }
        }
    }
}

/// Rewrites one streamed `WAIT` line (`DONE <local> …` or an error) to
/// cluster ticket ids, returning the rewritten line and the cluster id it
/// resolved, when attributable.
fn rewrite_wait_line(inner: &Arc<RouterInner>, shard: &str, line: &str) -> (String, Option<u64>) {
    let translate = |local: u64| inner.lock_tickets().global_for(shard, local);
    if let Some(rest) = line.strip_prefix("DONE ") {
        if let Some((id, payload)) = rest.split_once(' ') {
            if let Some(global) = id.parse::<u64>().ok().and_then(translate) {
                return (format!("DONE {global} {payload}"), Some(global));
            }
        }
    } else if let Some(rest) = line.strip_prefix("ERR unknown ticket ") {
        if let Some(global) = rest.trim().parse::<u64>().ok().and_then(translate) {
            return (format!("ERR unknown ticket {global}"), Some(global));
        }
    }
    (line.to_string(), None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_delays_grow_and_stay_inside_the_jitter_window() {
        let config = RouterConfig::default();
        let mut rng = jitter_rng();
        let mut caps = Vec::new();
        for attempt in 1..=8u32 {
            let cap = config
                .backoff_base
                .saturating_mul(1 << (attempt - 1))
                .min(config.backoff_max);
            caps.push(cap);
            for _ in 0..32 {
                let delay = backoff_delay(&config, attempt, &mut rng);
                assert!(delay <= cap, "attempt {attempt}: {delay:?} > cap {cap:?}");
                let floor = Duration::from_micros(cap.as_micros() as u64 / 2);
                assert!(
                    delay >= floor,
                    "attempt {attempt}: {delay:?} < jitter floor {floor:?}"
                );
            }
        }
        // Exponential until the cap, then flat.
        assert!(caps[0] < caps[1] && caps[1] < caps[2]);
        assert_eq!(*caps.last().expect("caps"), config.backoff_max);
    }

    #[test]
    fn circuit_breaker_walks_closed_open_half_open_closed() {
        let mut health = ShardHealth::default();
        assert_eq!(health.state, CircuitState::Closed);
        health.on_failure(3);
        health.on_failure(3);
        assert_eq!(health.state, CircuitState::Closed, "below the threshold");
        health.on_failure(3);
        assert_eq!(health.state, CircuitState::Open, "threshold reached");
        assert!(
            !health.allow_attempt(Duration::from_secs(3600)),
            "open circuit fails fast inside the cooldown"
        );
        assert!(
            health.allow_attempt(Duration::ZERO),
            "cooldown elapsed: one trial goes through"
        );
        assert_eq!(health.state, CircuitState::HalfOpen);
        health.on_failure(3);
        assert_eq!(health.state, CircuitState::Open, "failed trial re-opens");
        assert!(health.allow_attempt(Duration::ZERO));
        health.on_success();
        assert_eq!(
            health.state,
            CircuitState::HalfOpen,
            "one success is not enough to close"
        );
        health.on_success();
        assert_eq!(
            health.state,
            CircuitState::Closed,
            "two consecutive successes close the breaker"
        );
        assert_eq!(health.misses, 0);
    }

    #[test]
    fn ticket_table_remaps_onto_a_replica_and_flags_degraded() {
        let mut table = TicketTable::default();
        let global = table.allocate("a", 7, "scen", false, 0x77, 8);
        assert_eq!(table.global_for("a", 7), Some(global));
        assert!(!table.degraded(global));

        assert!(table.remap(global, "b", 3), "known id remaps");
        let entry = table.lookup(global).expect("remapped entry");
        assert_eq!((entry.shard.as_str(), entry.local), ("b", 3));
        assert_eq!(entry.scenario, "scen");
        assert_eq!(entry.trace, 0x77, "remap keeps the submitting trace");
        assert!(entry.degraded && table.degraded(global));
        assert_eq!(
            table.global_for("a", 7),
            None,
            "the old reverse mapping is gone"
        );
        assert_eq!(table.global_for("b", 3), Some(global));

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

    /// The four failover telemetry families render — at zero, with the
    /// shard label — from the moment the router binds, so a scrape never
    /// misses them just because nothing failed yet (satellite: telemetry
    /// for heartbeat misses, failovers, backoff and circuit state).
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
            "router_backoff_ms_bucket{shard=\"s0\"",
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
}
