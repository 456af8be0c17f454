//! The non-blocking TCP reactor for the line protocol.
//!
//! The seed front-end was a thread-per-connection blocking loop: one OS
//! thread per client, blocked in `read(2)` between requests, with `RUN`
//! executing searches *on the connection thread*. That shape cannot serve
//! many concurrent clients — threads pile up, shutdown depends on a
//! throwaway connection unblocking `accept(2)`, and a slow search stalls
//! its connection entirely.
//!
//! This module replaces it with one reactor thread and one executor thread:
//!
//! * **O(ready) sweeps** — the listener, the wakeup channel and every
//!   accepted stream are registered with a [`Poller`](crate::poller) (a
//!   zero-dependency `epoll(7)` wrapper; see [`crate::poller`] for the
//!   fallbacks), so a sweep touches only the connections the kernel
//!   reports ready — flat in the number of idle connections. Sockets run
//!   in [`set_nonblocking`](std::net::TcpStream::set_nonblocking) mode;
//!   interest is kept minimal (read interest is dropped under
//!   backpressure, write interest exists only while bytes are owed), so
//!   level-triggered readiness never spins.
//! * **One reactor** — every search and model training runs on the
//!   executor, so the reactor only parses requests and answers cheap
//!   verbs; one thread serves every connection.
//! * **Per-connection state machines** — the socket, its incremental
//!   write buffer (responses are flushed as the socket accepts them) and
//!   its poller registration live in the crate's connection core (the
//!   private `conn` module, which the cluster router runs on too); on top
//!   of it each `Connection` owns a [`Framer`] (requests may arrive
//!   fragmented across many reads, and a `SHIP` header is followed by raw
//!   payload bytes) and an ordered queue of `Slot`s: one slot per
//!   received request, resolved strictly in request order.
//! * **Request pipelining** — a client may enqueue any number of requests
//!   without waiting for responses; the reactor parses every complete
//!   line it has, queues one slot each, and answers them in order.
//!   Slow responses (a `RUN` drain, a `WAIT` on unfinished jobs) hold
//!   *their* position in the queue without blocking the reactor, other
//!   connections, or the parsing of later requests.
//! * **Wakeup channel** — a connected loopback socket pair. The executor,
//!   any in-process [`Service::run_pending`] and [`Service::shutdown`]
//!   write a byte to the [`Wakeup`] handle whenever something the waiting
//!   reactor may care about happens (a job finished, a drain completed,
//!   shutdown was requested); the receiving end is registered with the
//!   poller, so the wait returns immediately. Idling is a single poller
//!   wait with no timeout: readiness and the wakeup channel are all that
//!   end it, so an idle reactor does not sweep.
//! * **Off-thread slow verbs** — `RUN` sends the queue drain to the
//!   executor thread over a channel and answers `OK <n>` when it
//!   completes, and `SNAPSHOT`/`RESTORE`/`EXPORT`/`SHIP` move cache state
//!   there too, so the reactor keeps serving every other connection while
//!   searches run and snapshots hit the disk. The reactor owns the
//!   channel's only sender; the executor runs jobs until that sender is
//!   dropped and the queue is empty.
//!
//! Shutdown is deterministic: [`Daemon::stop`](crate::Daemon::stop) sets
//! the stop flag and notifies the wakeup channel; the reactor wakes (it
//! never blocks anywhere else), flushes a final `ERR` to every open
//! connection, drops the listener and the executor's sender and exits — no
//! throwaway connection, no reliance on a future client arriving. The
//! executor then finishes what was queued and exits too.

use std::collections::{HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use modis_core::telemetry::{Counter, Gauge, Histogram};

use crate::conn::{
    accept_ready, Entry, Slab, MAX_PIPELINED, MAX_READ_PER_SWEEP, WRITE_HIGH_WATERMARK,
};
use crate::net::{done_line, execute, OffloadFn, Request};
use crate::poller::{self, Interest, Poller};
use crate::protocol::{self, Frame, Framer, Kind, Parsed};
use crate::service::{JobState, Service, Ticket};

/// Poller token of the wakeup receiver.
const TOKEN_WAKEUP: usize = 0;
/// Poller token of the listening socket.
const TOKEN_LISTENER: usize = 1;
/// Poller tokens at and above this are connection slots (`token -
/// TOKEN_BASE` indexes the slab).
const TOKEN_BASE: usize = 2;

/// Tuning knobs of the reactor loop. The default suits tests, examples and
/// the benchmark; it does not change protocol semantics.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Largest accepted `SHIP` binary payload, in bytes. A frame declaring
    /// more is answered with a protocol error and its payload bytes are
    /// discarded as they arrive (never buffered), so the connection stays
    /// usable and per-connection memory stays bounded.
    pub max_ship_bytes: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            max_ship_bytes: 1 << 26,
        }
    }
}

impl ReactorConfig {
    /// The pipeline slot of one framed request; the two over-cap frames
    /// are answered without ever being dispatched.
    fn slot_for(&self, frame: Frame, now: Instant) -> Slot {
        match frame {
            Frame::Request(request) => Slot::Request(request, now),
            Frame::LineTooLong => Slot::Ready(format!(
                "ERR line too long (max {} bytes)",
                protocol::MAX_LINE_LEN
            )),
            Frame::ShipTooLarge => Slot::Ready(format!(
                "ERR shipment too large (max {} bytes)",
                self.max_ship_bytes
            )),
        }
    }
}

/// Sending half of a reactor's wakeup channel: a cloneable handle that
/// any thread may [`notify`](Wakeup::notify) to interrupt the reactor's
/// poller wait. Notifications are level-style — what matters is that at
/// least one byte is pending, so notifying an already-notified channel is
/// free and never blocks.
#[derive(Clone)]
pub struct Wakeup {
    tx: Arc<Mutex<TcpStream>>,
}

impl Wakeup {
    /// Wakes the reactor if it is waiting. Never blocks: the sender socket
    /// is non-blocking, and a full pipe already means "wakeup pending".
    pub fn notify(&self) {
        let mut tx = self.tx.lock().unwrap_or_else(PoisonError::into_inner);
        // WouldBlock ⇒ the pipe is full of unread wakeups: the reactor
        // will wake regardless. Any other error means the reactor is gone.
        let _ = tx.write(&[1u8]);
    }
}

impl std::fmt::Debug for Wakeup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Wakeup")
    }
}

/// Builds one wakeup channel: a connected loopback socket pair (the
/// workspace has no `libc`, so no `pipe(2)`; a TCP pair over `127.0.0.1`
/// provides the same self-pipe semantics through `std::net` alone).
/// Returns the cloneable sending handle and the receiving stream the
/// reactor registers with its poller; both ends are non-blocking.
pub(crate) fn wakeup_pair() -> io::Result<(Wakeup, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let local = tx.local_addr()?;
    // Guard against a stray foreign connection racing our connect.
    let rx = loop {
        let (rx, peer) = listener.accept()?;
        if peer == local {
            break rx;
        }
    };
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    // The receiver is non-blocking too: the poller reports when wakeup
    // bytes are pending, and the drain stops at the first WouldBlock.
    rx.set_nonblocking(true)?;
    Ok((
        Wakeup {
            tx: Arc::new(Mutex::new(tx)),
        },
        rx,
    ))
}

/// Drains every pending byte from a wakeup receiver. Wakeups are
/// level-style — one pending byte means "look around" — so the drain
/// swallows everything buffered in one go.
///
/// `Interrupted` (EINTR) is retried, exactly like every other read path
/// in the reactor: a signal landing mid-drain must not abandon buffered
/// wakeup bytes, or a reactor that re-parks immediately afterwards would
/// wake again for stale bytes (and, before the poller rewrite, could
/// sleep out its full park timeout with work already pending).
pub(crate) fn drain_wakeup(rx: &mut impl Read) {
    let mut buf = [0u8; 64];
    loop {
        match rx.read(&mut buf) {
            // The sender vanished: both ends are owned by the daemon, so
            // this also means "stop soon".
            Ok(0) => break,
            Ok(_) => {}
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            // WouldBlock/TimedOut: the channel is dry. Anything else: the
            // daemon is tearing down and the next stop-flag check exits.
            Err(_) => break,
        }
    }
}

/// A response computed off the reactor thread: the executor publishes
/// the final reply text, the reactor emits the slot once the cell fills.
type DeferredReply = Arc<OnceLock<String>>;

/// Work the reactor hands to the executor thread: a deferred command body
/// and the cell its reply line goes in.
pub(crate) type ExecJob = (OffloadFn, DeferredReply);

/// Sends one deferred command body to the executor and returns the cell
/// its reply will appear in.
fn submit(executor: &Sender<ExecJob>, task: OffloadFn) -> DeferredReply {
    let reply: DeferredReply = Arc::new(OnceLock::new());
    // The executor receives until this sender is dropped, so the send
    // fails only if a job panicked the executor thread.
    let _ = executor.send((task, Arc::clone(&reply)));
    reply
}

/// The body of a `RUN`: drain the scheduler queue, answer `OK <n>`.
fn drain(service: &Service) -> String {
    let _span = service.engine().tracer().span("drain");
    format!("OK {}", service.run_pending())
}

/// The executor thread body: `RUN` drains and cache-state verbs arrive
/// from the reactor, run here one at a time, and each result wakes the
/// reactor. Serialising them on one thread keeps `RUN` semantics identical
/// to the seed (each `RUN` answers the number of runs *it* executed)
/// without ever blocking the reactor. The loop ends once the reactor has
/// dropped its sender and the queue is empty, so every accepted
/// `RUN`/`SNAPSHOT`/… still executes during shutdown.
pub(crate) fn run_executor(jobs: Receiver<ExecJob>, service: &Service, wakeup: &Wakeup) {
    for (task, reply) in jobs {
        let _ = reply.set(task(service));
        wakeup.notify();
    }
}

/// Pre-resolved instrument handles of the reactor (looked up once at
/// construction — the sweep loop only touches relaxed atomics).
struct ReactorMetrics {
    open_connections: Arc<Gauge>,
    backpressure_events: Arc<Counter>,
    sweep_us: Arc<Histogram>,
    sweeps_busy: Arc<Counter>,
    sweeps_idle: Arc<Counter>,
    /// Per-verb request counter + parse-to-response latency histogram,
    /// indexed by [`Kind`] discriminant.
    verb_requests: [Arc<Counter>; Kind::LABELS.len()],
    verb_latency: [Arc<Histogram>; Kind::LABELS.len()],
}

impl ReactorMetrics {
    fn new(service: &Service) -> ReactorMetrics {
        let metrics = service.engine().metrics();
        ReactorMetrics {
            open_connections: metrics.gauge(
                "reactor_open_connections",
                "Client connections currently held by the reactor.",
            ),
            backpressure_events: metrics.counter(
                "reactor_backpressure_events_total",
                "Times a connection crossed into read-backpressure (write buffer above the high watermark or pipeline at max depth).",
            ),
            sweep_us: metrics.histogram(
                "reactor_sweep_us",
                "Duration of one reactor sweep, microseconds. Idle sweeps are recorded too; reactor_sweeps_total splits the counts.",
            ),
            sweeps_busy: metrics.counter_with(
                "reactor_sweeps_total",
                "Reactor sweeps, split by whether the sweep made progress.",
                &[("kind", "busy")],
            ),
            sweeps_idle: metrics.counter_with(
                "reactor_sweeps_total",
                "Reactor sweeps, split by whether the sweep made progress.",
                &[("kind", "idle")],
            ),
            verb_requests: std::array::from_fn(|i| {
                metrics.counter_with(
                    "reactor_requests_total",
                    "Requests dispatched by the reactor, per verb.",
                    &[("verb", Kind::LABELS[i])],
                )
            }),
            verb_latency: std::array::from_fn(|i| {
                metrics.histogram_with(
                    "reactor_request_us",
                    "Parse-to-response latency inside the reactor, per verb, microseconds. Same-sweep resolutions record 0 (sub-sweep).",
                    &[("verb", Kind::LABELS[i])],
                )
            }),
        }
    }
}

/// One response position in a connection's ordered pipeline.
///
/// A parsed request enters the queue as [`Slot::Request`] and is
/// **dispatched only when it reaches the front** — exactly the seed's
/// sequential semantics: a pipelined `POLL` behind a `RUN` observes the
/// drained queue, a `SUBMIT` behind a `WAIT` executes after the wait
/// resolves. Pipelining overlaps transport and scheduling, never
/// evaluation order.
///
/// Requests carry the timestamp of the sweep that parsed them; deferred
/// slots keep it (plus their verb kind) so the latency a slow response
/// accrued across sweeps is attributed to its verb when it resolves.
/// Timestamps are amortised — one `Instant::now()` per sweep, never per
/// request.
enum Slot {
    /// A parsed request, not yet evaluated, stamped at parse time.
    Request(Parsed, Instant),
    /// The response text is known; emit it when this slot reaches the
    /// front.
    Ready(String),
    /// A slow verb handed to the executor; resolves when its reply cell
    /// is filled.
    Deferred(DeferredReply, Kind, Instant),
    /// A `WAIT`: emits one `DONE <id> …` line per ticket *as each job
    /// completes* (progressive streaming), resolving once none remain.
    Wait(Vec<u64>, Instant),
}

/// Per-connection state machine on top of the socket core
/// ([`crate::conn::Conn`]): the request framer and the ordered response
/// pipeline.
struct Connection {
    /// Cuts received bytes into requests.
    framer: Framer,
    /// One slot per parsed request, answered strictly in order.
    slots: VecDeque<Slot>,
    /// No more requests will be read (EOF or `QUIT`); flush what is owed,
    /// then drop. Pipelined requests parsed before EOF are still answered.
    closing: bool,
    /// The connection is finished and will be dropped this sweep.
    dead: bool,
    /// Whether the last sweep saw this connection in read-backpressure
    /// (edge-detects the backpressure-events counter).
    backpressured: bool,
}

impl Connection {
    fn new(config: &ReactorConfig) -> Connection {
        Connection {
            framer: Framer::new(
                protocol::parse,
                protocol::MAX_LINE_LEN,
                config.max_ship_bytes,
            ),
            slots: VecDeque::new(),
            closing: false,
            dead: false,
            backpressured: false,
        }
    }
}

/// The reactor: owns the listener, every connection, a poller watching
/// all of them, the receiving end of the wakeup channel and the executor's
/// only sender; runs the O(ready) sweep until stopped.
pub(crate) struct Reactor {
    listener: TcpListener,
    service: Arc<Service>,
    /// Dropped when the reactor exits, which ends the executor's loop.
    executor: Sender<ExecJob>,
    wakeup_rx: TcpStream,
    stop: Arc<AtomicBool>,
    config: ReactorConfig,
    poller: Poller,
    /// Open connections: slot `i` registers with poller token
    /// `TOKEN_BASE + i`.
    conns: Slab<Connection>,
    /// Slots whose *front* slot is deferred (a slow verb on the executor,
    /// or a pending `WAIT`): exactly the connections a wakeup
    /// notification may unblock, so a wakeup sweeps only these instead of
    /// every open connection.
    blocked: HashSet<usize>,
    /// Reused ready-token buffer for poller waits.
    events: Vec<usize>,
    metrics: ReactorMetrics,
}

impl Reactor {
    pub(crate) fn new(
        listener: TcpListener,
        service: Arc<Service>,
        executor: Sender<ExecJob>,
        wakeup_rx: TcpStream,
        stop: Arc<AtomicBool>,
        config: ReactorConfig,
    ) -> io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        wakeup_rx.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.register(poller::source(&wakeup_rx), TOKEN_WAKEUP, Interest::READ)?;
        poller.register(poller::source(&listener), TOKEN_LISTENER, Interest::READ)?;
        let metrics = ReactorMetrics::new(&service);
        Ok(Reactor {
            listener,
            service,
            executor,
            wakeup_rx,
            stop,
            config,
            poller,
            conns: Slab::new(TOKEN_BASE),
            blocked: HashSet::new(),
            events: Vec::new(),
            metrics,
        })
    }

    /// The reactor thread body: wait for readiness, sweep exactly what is
    /// ready, repeat until the stop flag is set, then close down
    /// deterministically.
    ///
    /// Every sweep's duration is recorded (idle sweeps included — the
    /// O(ready) claim is only observable if the flat idle cost shows up
    /// in `reactor_sweep_us`), and `reactor_sweeps_total` counts the
    /// busy/idle split.
    pub(crate) fn run(mut self) {
        while !self.stop.load(Ordering::SeqCst) {
            let mut events = std::mem::take(&mut self.events);
            // No timeout: readiness (new connections, request bytes,
            // drained sockets) and wakeup-channel notifications (job
            // completions, drains, shutdown) are all that can come due.
            let _ = self.poller.wait(&mut events, None);
            // One clock read per sweep: every request parsed or resolved
            // this sweep shares this timestamp, so telemetry adds no
            // per-request syscalls to the pipelined hot path. Taken after
            // the wait, so a sweep measures work, not blocked time.
            let sweep_start = Instant::now();
            let mut progress = false;
            let mut woken = false;
            for &token in &events {
                match token {
                    TOKEN_WAKEUP => woken = true,
                    TOKEN_LISTENER => progress |= self.accept_ready(),
                    token => {
                        let slot = token - TOKEN_BASE;
                        // The slot may have died (and been reaped) earlier
                        // in this same event batch; stale events are
                        // harmless to skip.
                        if self.conns.get_mut(slot).is_some() {
                            progress |= self.sweep_connection(slot, sweep_start);
                        }
                    }
                }
            }
            self.events = events;
            if woken {
                drain_wakeup(&mut self.wakeup_rx);
                if self.stop.load(Ordering::SeqCst) {
                    break;
                }
                // A wakeup means deferred work may have finished: sweep
                // the connections whose head is deferred — and only
                // those, keeping wakeups O(blocked), not O(open).
                let blocked: Vec<usize> = self.blocked.iter().copied().collect();
                for slot in blocked {
                    if self.conns.get_mut(slot).is_some() {
                        progress |= self.sweep_connection(slot, sweep_start);
                    }
                }
            }
            self.metrics.sweep_us.record_duration(sweep_start.elapsed());
            if progress {
                self.metrics.sweeps_busy.inc();
            } else {
                self.metrics.sweeps_idle.inc();
            }
        }
        self.close_all();
    }

    /// Accepts every connection the listener has ready.
    fn accept_ready(&mut self) -> bool {
        let accepted = accept_ready(&self.listener);
        let progress = !accepted.is_empty();
        for conn in accepted {
            let state = Connection::new(&self.config);
            if self.conns.insert(&mut self.poller, conn, state).is_some() {
                self.metrics.open_connections.add(1);
            }
        }
        progress
    }

    /// One sweep over one connection: read what is ready, parse complete
    /// lines into slots, resolve leading slots, flush what the socket
    /// accepts, then settle its registration. Returns whether any
    /// progress was made.
    fn sweep_connection(&mut self, index: usize, now: Instant) -> bool {
        let mut progress = self.read_ready(index, now);
        progress |= self.resolve_slots(index, now);
        let Entry { conn, state } = self.conns.get_mut(index).expect("swept slot is live");
        if !state.dead {
            progress |= conn.flush().unwrap_or_else(|_| {
                state.dead = true;
                true
            });
        }
        if state.closing && !state.dead && state.slots.is_empty() && conn.pending_write() == 0 {
            conn.close();
            state.dead = true;
            progress = true;
        }
        self.settle(index);
        progress
    }

    /// Post-sweep bookkeeping for one connection: reap it if it died,
    /// otherwise re-point its poller registration at exactly what it can
    /// act on next. Read interest is dropped under backpressure (and once
    /// closing) — level-triggered readiness would otherwise spin on bytes
    /// the reactor refuses to read — and write interest exists only while
    /// response bytes are owed, because a drained socket is almost always
    /// writable.
    fn settle(&mut self, index: usize) {
        let Entry { conn, state } = self.conns.get_mut(index).expect("settled slot is live");
        if state.dead {
            self.conns.remove(&mut self.poller, index);
            self.blocked.remove(&index);
            self.metrics.open_connections.add(-1);
            return;
        }
        let backpressured =
            conn.pending_write() > WRITE_HIGH_WATERMARK || state.slots.len() >= MAX_PIPELINED;
        let want_read = !state.closing && !backpressured;
        if matches!(
            state.slots.front(),
            Some(Slot::Deferred(..) | Slot::Wait(..))
        ) {
            self.blocked.insert(index);
        } else {
            self.blocked.remove(&index);
        }
        self.conns.settle(&mut self.poller, index, want_read);
    }

    /// Drains readable bytes into the connection's framer and queues every
    /// complete request as a response slot. Dispatch happens later, when
    /// the slot reaches the front (see [`Slot`]).
    fn read_ready(&mut self, index: usize, now: Instant) -> bool {
        let Entry { conn, state } = self.conns.get_mut(index).expect("read slot is live");
        if state.closing || state.dead {
            return false;
        }
        // Backpressure, both directions: a client that does not drain
        // responses does not get new requests parsed, and requests piling
        // up behind a slow head response (a pending WAIT/RUN) stop being
        // read once the pipeline is `MAX_PIPELINED` deep — so
        // per-connection memory stays bounded either way.
        if conn.pending_write() > WRITE_HIGH_WATERMARK || state.slots.len() >= MAX_PIPELINED {
            if !state.backpressured {
                state.backpressured = true;
                self.metrics.backpressure_events.inc();
            }
            return false;
        }
        state.backpressured = false;
        let read = conn.read(MAX_READ_PER_SWEEP, |bytes| state.framer.push(bytes));
        let Ok(read) = read else {
            state.dead = true;
            return true;
        };
        while let Some(frame) = state.framer.next_frame() {
            state.slots.push_back(self.config.slot_for(frame, now));
        }
        if read.eof {
            // The seed's `BufRead::lines` answered a final unterminated
            // line; preserve that.
            if let Some(frame) = state.framer.finish() {
                state.slots.push_back(self.config.slot_for(frame, now));
            }
            state.closing = true;
        }
        read.bytes > 0 || read.eof
    }

    /// Resolves leading slots into response bytes, strictly in request
    /// order: requests are dispatched as they reach the front, and a
    /// pending slot (unfinished drain or wait) blocks *this connection's*
    /// later responses — and nothing else.
    fn resolve_slots(&mut self, index: usize, now: Instant) -> bool {
        let mut progress = false;
        loop {
            let service = Arc::clone(&self.service);
            let Entry { conn, state } = self.conns.get_mut(index).expect("resolved slot is live");
            match state.slots.front_mut() {
                Some(Slot::Request(..)) => {
                    let Some(Slot::Request(request, stamp)) = state.slots.pop_front() else {
                        unreachable!("front_mut just matched Request");
                    };
                    progress = true;
                    // A stopped service answers nothing further (seed
                    // semantics: error the next line, then close).
                    if service.is_stopped() {
                        conn.queue_line("ERR service is shut down");
                        state.slots.clear();
                        state.closing = true;
                        break;
                    }
                    let kind = request.kind;
                    self.metrics.verb_requests[kind as usize].inc();
                    match execute(&service, request) {
                        Request::Immediate(text) => {
                            conn.queue_line(&text);
                            self.metrics.verb_latency[kind as usize]
                                .record_duration(now.saturating_duration_since(stamp));
                        }
                        Request::CloseAfter(text) => {
                            conn.queue_line(&text);
                            self.metrics.verb_latency[kind as usize]
                                .record_duration(now.saturating_duration_since(stamp));
                            // Later pipelined requests are dropped, as the
                            // seed's per-connection loop did on QUIT.
                            state.slots.clear();
                            state.closing = true;
                            break;
                        }
                        // Deferred verbs re-enter the queue at the front
                        // and resolve on subsequent iterations/sweeps.
                        Request::Drain => state.slots.push_front(Slot::Deferred(
                            submit(&self.executor, Box::new(drain)),
                            kind,
                            stamp,
                        )),
                        Request::Offload(task) => state.slots.push_front(Slot::Deferred(
                            submit(&self.executor, task),
                            kind,
                            stamp,
                        )),
                        Request::Wait(tickets) => {
                            state.slots.push_front(Slot::Wait(tickets, stamp))
                        }
                    }
                }
                Some(Slot::Ready(_)) => {
                    let Some(Slot::Ready(text)) = state.slots.pop_front() else {
                        unreachable!("front_mut just matched Ready");
                    };
                    conn.queue_line(&text);
                    progress = true;
                }
                Some(Slot::Deferred(reply, ..)) => {
                    let Some(text) = reply.get() else { break };
                    let text = text.clone();
                    let Some(Slot::Deferred(_, kind, stamp)) = state.slots.pop_front() else {
                        unreachable!("front_mut just matched Deferred");
                    };
                    conn.queue_line(&text);
                    self.metrics.verb_latency[kind as usize]
                        .record_duration(now.saturating_duration_since(stamp));
                    progress = true;
                }
                Some(Slot::Wait(..)) => {
                    let Some(Slot::Wait(mut remaining, stamp)) = state.slots.pop_front() else {
                        unreachable!("front_mut just matched Wait");
                    };
                    // Emit finished tickets progressively, in completion
                    // order across sweeps (listed order within one).
                    let mut i = 0;
                    while i < remaining.len() {
                        let id = remaining[i];
                        match service.poll(Ticket(id)) {
                            Ok(JobState::Done(outcome)) => {
                                remaining.remove(i);
                                conn.queue_line(&format!("DONE {id} {}", done_line(&outcome)));
                                progress = true;
                            }
                            Ok(_) => i += 1,
                            Err(err) => {
                                remaining.remove(i);
                                conn.queue_line(&format!("ERR {err}"));
                                progress = true;
                            }
                        }
                    }
                    if remaining.is_empty() {
                        self.metrics.verb_latency[Kind::Wait as usize]
                            .record_duration(now.saturating_duration_since(stamp));
                        progress = true;
                    } else {
                        state.slots.push_front(Slot::Wait(remaining, stamp));
                        break;
                    }
                }
                None => break,
            }
        }
        progress
    }

    /// Deterministic teardown: resolve whatever is already answerable
    /// (responses whose work completed before the stop), then tell every
    /// open connection the service is going away, flush best-effort,
    /// close, drop the listener. Responses still pending at this point —
    /// a drain mid-execution, a `WAIT` on an unfinished job — are
    /// superseded by the shutdown error (the drain itself still executes
    /// to completion on the executor thread).
    fn close_all(&mut self) {
        let now = Instant::now();
        let open = self.conns.len();
        for index in self.conns.slots() {
            if self.conns.get_mut(index).is_some() {
                self.resolve_slots(index, now);
            }
        }
        for Entry { mut conn, state } in self.conns.drain() {
            if state.dead {
                continue;
            }
            if !state.closing {
                conn.queue_line("ERR service is shut down");
            }
            conn.close();
        }
        self.metrics.open_connections.add(-(open as i64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn wakeup_pair_notifies_without_blocking() {
        let (wakeup, mut rx) = wakeup_pair().unwrap();
        // Dry channel: the non-blocking receiver reports WouldBlock
        // immediately instead of parking.
        let mut buf = [0u8; 8];
        let err = rx.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        // Notify path: repeated notifies never block, and at least one
        // byte arrives.
        for _ in 0..10_000 {
            wakeup.notify();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match rx.read(&mut buf) {
                Ok(n) => {
                    assert!(n > 0);
                    break;
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                    assert!(Instant::now() < deadline, "notify byte never arrived");
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(err) => panic!("unexpected read error: {err}"),
            }
        }
    }

    /// A wakeup receiver whose reads are interrupted by signals mid-drain:
    /// EINTR, a byte, EINTR again, then dry.
    struct InterruptedChannel {
        step: usize,
    }

    impl Read for InterruptedChannel {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.step += 1;
            match self.step {
                1 | 3 => Err(io::Error::new(io::ErrorKind::Interrupted, "signal")),
                2 => {
                    buf[0] = 1;
                    Ok(1)
                }
                _ => Err(io::Error::new(io::ErrorKind::WouldBlock, "dry")),
            }
        }
    }

    #[test]
    fn wakeup_drain_retries_interrupted_reads() {
        // Regression: the cold-park drain used to treat only
        // WouldBlock/TimedOut as benign and bailed out on EINTR, leaving
        // wakeup bytes buffered. The drain must retry through EINTR and
        // stop only when the channel is dry.
        let mut rx = InterruptedChannel { step: 0 };
        drain_wakeup(&mut rx);
        assert_eq!(
            rx.step, 4,
            "drain must retry both EINTRs, consume the byte, and end on WouldBlock"
        );
    }

    #[test]
    fn verb_classification_skips_ctx_and_survives_a_bare_prefix() {
        let kind = |line: &str| protocol::parse(line).kind;
        assert_eq!(kind("PING"), Kind::Ping);
        assert_eq!(
            kind("CTX 000102030405060708090a0b0c0d0e0f1011121314151617 PING"),
            Kind::Ping
        );
        // A bare CTX prefix with no verb after it: the empty verb counts
        // as `other` (and answers a clean `ERR unknown command` line —
        // pinned in the net/integration tests).
        assert_eq!(kind("CTX"), Kind::Other);
        assert_eq!(
            kind("CTX 000102030405060708090a0b0c0d0e0f1011121314151617"),
            Kind::Other
        );
        // The arguments never change what a line counts as.
        assert_eq!(kind("POLL zero"), Kind::Poll);
        assert_eq!(kind("snapshot namespace pool /tmp/x"), Kind::Snapshot);
    }

    #[test]
    fn executor_answers_queued_jobs_even_after_stop() {
        let service = Service::new(crate::ServiceConfig::default());
        let (wakeup, _rx) = wakeup_pair().unwrap();
        let (executor, jobs) = std::sync::mpsc::channel();
        let first = submit(&executor, Box::new(drain));
        let second = submit(&executor, Box::new(drain));
        let Request::Offload(snapshot) = execute(
            &service,
            protocol::parse("SNAPSHOT /definitely/not/a/dir/x.snap"),
        ) else {
            panic!("SNAPSHOT must offload");
        };
        let doomed = submit(&executor, snapshot);
        drop(executor);
        // Queued before the sender dropped ⇒ all still answered (empty
        // queue ⇒ 0 runs; an unwritable snapshot path ⇒ a protocol error,
        // not a panic).
        run_executor(jobs, &service, &wakeup);
        assert_eq!(first.get().map(String::as_str), Some("OK 0"));
        assert_eq!(second.get().map(String::as_str), Some("OK 0"));
        assert!(doomed.get().unwrap().starts_with("ERR "));
    }
}
