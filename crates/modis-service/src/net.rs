//! The daemon side of the line protocol: what each [`Verb`] *does* against
//! a [`Service`] ([`execute`]), and the [`Daemon`] that serves it over TCP
//! through the non-blocking reactor in [`crate::reactor`].
//!
//! The request grammar — the verb table, argument checks, the `CTX`
//! prefix, framing — lives in [`crate::protocol`]; the normative
//! specification (pipelining rules, every error line) is
//! `docs/PROTOCOL.md` at the repository root. Clients may **pipeline** any
//! number of requests on one connection; responses come back in request
//! order.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use crate::error::ServiceError;
use crate::protocol::{self, Kind, Parsed, Verb};
use crate::reactor::{run_executor, wakeup_pair, Reactor, ReactorConfig, Wakeup};
use crate::service::{JobState, Service, Ticket};
use modis_core::telemetry::SpanRecord;
use modis_engine::{Cursor, ScenarioOutcome};

/// Outcome of one protocol line.
pub enum Reply {
    /// Answer the line and keep the connection open.
    Line(String),
    /// Answer the line, then close the connection.
    Close(String),
}

impl Reply {
    /// The response text.
    pub fn text(&self) -> &str {
        match self {
            Reply::Line(s) | Reply::Close(s) => s,
        }
    }
}

/// A deferred command body: runs on the executor thread, produces the
/// response line. `RUN` rides on this, and so do `SNAPSHOT`, `RESTORE`,
/// `EXPORT` and `SHIP`, which serialise or merge cache state — all far
/// too slow for the reactor thread.
pub(crate) type OffloadFn = Box<dyn FnOnce(&Service) -> String + Send>;

/// The body of a `RUN`, on the daemon's executor thread and in
/// [`handle_command`] alike: drain the run queue under a `drain` span,
/// answer `OK <n>`.
pub(crate) fn drain(service: &Service) -> String {
    let _span = service.engine().tracer().span("drain");
    format!("OK {}", service.run_pending())
}

/// How the reactor must answer one request line. Where [`handle_command`]
/// executes everything synchronously, the reactor defers the verbs whose
/// responses depend on background work.
pub(crate) enum Request {
    /// The response is known now; emit it in order.
    Immediate(String),
    /// Emit the response in order, then close the connection (`QUIT`).
    CloseAfter(String),
    /// A slow verb without dedicated state (`RUN`, `SNAPSHOT`, `RESTORE`,
    /// `EXPORT`, `SHIP`): run the closure on the executor thread, answer
    /// its returned line.
    Offload(OffloadFn),
    /// `WAIT`: stream one `DONE <id> …` line per ticket as each job
    /// completes.
    Wait(Vec<u64>),
}

/// The key/value payload of a `DONE` response for `outcome` (shared by
/// `POLL`, which prefixes nothing, and `WAIT`, which prefixes the ticket).
pub(crate) fn done_line(outcome: &ScenarioOutcome) -> String {
    format!(
        "entries={} states={} shared_hits={} cost={} valuations={}",
        outcome.result.len(),
        outcome.result.states_valuated,
        outcome.shared_hits(),
        outcome.valuation_cost(),
        outcome.result.total_valuations(),
    )
}

/// The full finished skyline of ticket `id`, encoded byte-exactly on one
/// line: `RESULT <id> entries=<n>` followed by one token per entry —
/// `b=<bits>:<words hex>;r=<raw f64 bit patterns>;p=<perf bit patterns>;`
/// `s=<rows>x<cols>;l=<level>`. Floats travel as hex `f64::to_bits`, so
/// two skylines are byte-identical **iff** their `RESULT` payloads are
/// string-equal — the property the cluster tests assert across process
/// boundaries.
pub fn result_line(id: u64, outcome: &ScenarioOutcome) -> String {
    use std::fmt::Write as _;
    let mut out = format!("RESULT {id} entries={}", outcome.result.len());
    for entry in &outcome.result.entries {
        out.push_str(" b=");
        let _ = write!(out, "{}:", entry.bitmap.len());
        for (i, word) in entry.bitmap.words().iter().enumerate() {
            if i > 0 {
                out.push('.');
            }
            let _ = write!(out, "{word:x}");
        }
        out.push_str(";r=");
        for (i, v) in entry.raw.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{:x}", v.to_bits());
        }
        out.push_str(";p=");
        for (i, v) in entry.perf.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{:x}", v.to_bits());
        }
        let _ = write!(
            out,
            ";s={}x{};l={}",
            entry.size.0, entry.size.1, entry.level
        );
    }
    out
}

/// Executes `EXPORT <ns>… FROM <after>` against the service: what the
/// named namespaces recorded after `after` as a hex-encoded namespace
/// snapshot, prefixed with the cache's cursor and the decoded byte length
/// — `SHIPMENT <cursor> <len> <hex>`, or `SHIPMENT <cursor> 0` when there
/// is nothing to send.
fn export_reply(service: &Service, namespaces: &[String], after: Cursor) -> String {
    use std::fmt::Write as _;
    let (cursor, bytes) = service.shipment(namespaces, after);
    let mut out = String::with_capacity(40 + bytes.len() * 2);
    let _ = write!(out, "SHIPMENT {cursor} {}", bytes.len());
    if !bytes.is_empty() {
        out.push(' ');
    }
    for b in &bytes {
        let _ = write!(out, "{b:02x}");
    }
    out
}

/// The reply line of a verb that persists or merges cache state:
/// `OK <bytes or entries>`, or the error.
fn ok_reply(outcome: Result<usize, ServiceError>) -> String {
    match outcome {
        Ok(n) => format!("OK {n}"),
        Err(err) => format!("ERR {err}"),
    }
}

/// Resident set size of this process in bytes (`VmRSS` from
/// `/proc/self/status`), or 0 where procfs is unavailable (non-Linux).
fn process_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Open file descriptors of this process (entries of `/proc/self/fd`), or
/// 0 where procfs is unavailable (non-Linux).
fn process_open_fds() -> u64 {
    match std::fs::read_dir("/proc/self/fd") {
        Ok(entries) => entries.count() as u64,
        Err(_) => 0,
    }
}

/// Registers (first call) and refreshes the observability instruments
/// whose truth lives outside the registry: tracer span-retention
/// accounting and process vitals from `/proc/self`. Called at bind time —
/// so the gauges exist in every exposition — and again on each `METRICS`
/// scrape so the values are current.
pub(crate) fn sync_observability_metrics(service: &Service) {
    let registry = service.engine().metrics();
    let tracer = service.engine().tracer();
    let dropped = registry.counter(
        "tracer_dropped_spans_total",
        "Completed spans evicted from the tracer's retention rings (ring overflow).",
    );
    // The counter trails the tracer's monotonic drop count; top it up to
    // match rather than re-adding the full total on every scrape.
    dropped.add(tracer.dropped_spans().saturating_sub(dropped.get()));
    registry
        .gauge(
            "tracer_retained_spans",
            "Completed spans currently held in the tracer's retention rings.",
        )
        .set(tracer.retained_spans() as i64);
    registry
        .gauge(
            "process_rss_bytes",
            "Resident set size of this process in bytes (0 where /proc is unavailable).",
        )
        .set(process_rss_bytes() as i64);
    registry
        .gauge(
            "process_open_fds",
            "Open file descriptors of this process (0 where /proc is unavailable).",
        )
        .set(process_open_fds() as i64);
}

/// Renders the `STATS` response line.
fn stats_reply(service: &Service) -> String {
    let stats = service.cache_stats();
    let cache = service.engine().cache();
    let metrics = service.engine().metrics();
    use modis_core::dominance as dx;
    format!(
        "STATS hits={} misses={} entries={} evictions={} memo_entries={} \
         memo_evictions={} shards={} shard_capacity={} hit_rate={:.4} \
         uptime_s={} jobs_completed={} jobs_pending={} \
         dominance_comparisons={} dominance_pruned={}",
        stats.hits,
        stats.misses,
        stats.entries,
        stats.evictions,
        stats.memo_entries,
        stats.memo_evictions,
        cache.shard_count(),
        cache.per_shard_capacity(),
        stats.hit_rate(),
        service.uptime().as_secs(),
        service.jobs_completed(),
        service.pending(),
        metrics
            .counter(dx::COMPARISONS_TOTAL, dx::COMPARISONS_HELP)
            .get(),
        metrics.counter(dx::PRUNED_TOTAL, dx::PRUNED_HELP).get(),
    )
}

/// Renders the `METRICS` response: a `METRICS <n>` header followed by `n`
/// Prometheus-style exposition lines, all in one count-prefixed reply (the
/// framing the router's fan-in relies on — see `docs/PROTOCOL.md` §7).
fn metrics_reply(service: &Service) -> String {
    sync_observability_metrics(service);
    let lines = service.engine().metrics().render();
    let mut out = format!("METRICS {}", lines.len());
    for line in &lines {
        out.push('\n');
        out.push_str(line);
    }
    out
}

/// Renders the `TRACE DUMP <n>` response: a `SPANS <k>` header (`k ≤ n`)
/// followed by one `SPAN key=value…` line per recent completed span,
/// oldest first.
fn trace_dump_reply(service: &Service, n: usize) -> String {
    let spans = service.engine().tracer().recent(n);
    let mut out = format!("SPANS {}", spans.len());
    for span in &spans {
        out.push('\n');
        out.push_str(&format!(
            "SPAN id={} parent={} trace={:016x} thread={:x} name={} start_us={} dur_us={}",
            span.id, span.parent, span.trace, span.thread, span.name, span.start_us, span.dur_us
        ));
    }
    out
}

/// Renders one stitched-timeline line of an `EXPLAIN` response. Start
/// times are shifted by the tracer's wall anchor to absolute microseconds
/// since the Unix epoch, so timelines gathered from different processes
/// sort on one shared axis.
pub(crate) fn render_event(anchor_us: u64, span: &SpanRecord) -> String {
    format!(
        "EVENT trace={:016x} span={} parent={} name={} thread={:x} start_us={} dur_us={}",
        span.trace,
        span.id,
        span.parent,
        span.name,
        span.thread,
        anchor_us + span.start_us,
        span.dur_us
    )
}

/// Renders the stitched timeline of one trace: a `TIMELINE <k>` header
/// followed by `k` time-ordered `EVENT …` lines. An unindexed trace
/// renders `TIMELINE 0` — deliberately not an error, so the router can
/// fan `EXPLAIN TRACE` out to every shard and keep only the ones that
/// hold spans.
fn explain_reply(service: &Service, trace: u64) -> String {
    let tracer = service.engine().tracer();
    let anchor = tracer.wall_anchor_us();
    let spans = tracer.trace_spans(trace);
    let mut out = format!("TIMELINE {}", spans.len());
    for span in &spans {
        out.push('\n');
        out.push_str(&render_event(anchor, span));
    }
    out
}

/// Renders the `TRACE SLOW <n>` response: a `SLOW <k>` header (`k ≤ n`)
/// followed by one line per slow stitched trace, slowest first.
fn trace_slow_reply(service: &Service, n: usize) -> String {
    let slow = service.engine().tracer().slowest(n);
    let mut out = format!("SLOW {}", slow.len());
    for entry in &slow {
        out.push('\n');
        out.push_str(&format!(
            "TRACE {:016x} dur_us={} spans={} scenario={}",
            entry.trace, entry.dur_us, entry.spans, entry.label
        ));
    }
    out
}

/// Starts one parsed request against the service without blocking on any
/// background work: synchronous verbs are answered now, the rest come
/// back as the deferred [`Request`] the caller must run — the reactor on
/// its executor thread, [`handle_command`] inline.
pub(crate) fn execute(service: &Service, request: Parsed) -> Request {
    let verb = match request.verb {
        Ok(verb) => verb,
        Err(reply) => return Request::Immediate(reply),
    };
    let reply = match verb {
        Verb::Ping => "PONG".to_string(),
        Verb::List => {
            let mut out = String::from("SCENARIOS");
            for name in service.scenario_names() {
                out.push(' ');
                out.push_str(&name);
            }
            out
        }
        Verb::Shards => protocol::unknown_command(&request.token),
        Verb::Submit(name) => {
            let submitted = match request.ctx {
                Some(ctx) => service.submit_traced(&name, ctx),
                None => service.submit(&name),
            };
            match submitted {
                Ok(ticket) => format!("TICKET {}", ticket.0),
                Err(err) => format!("ERR {err}"),
            }
        }
        Verb::Run => return Request::Offload(Box::new(drain)),
        Verb::Wait(tickets) => return Request::Wait(tickets),
        Verb::Poll(id) => match service.poll(Ticket(id)) {
            Ok(JobState::Queued) => "QUEUED".to_string(),
            Ok(JobState::Running) => "RUNNING".to_string(),
            Ok(JobState::Done(outcome)) => format!("DONE {}", done_line(&outcome)),
            Err(err) => format!("ERR {err}"),
        },
        Verb::Stats => stats_reply(service),
        Verb::Metrics => metrics_reply(service),
        Verb::TraceDump(n) => trace_dump_reply(service, n),
        Verb::TraceSlow(n) => trace_slow_reply(service, n),
        Verb::Explain(id) => match service.trace_of(Ticket(id)) {
            Some(trace) => explain_reply(service, trace),
            None => format!("ERR unknown ticket {id}"),
        },
        Verb::ExplainTrace(trace) => explain_reply(service, trace),
        Verb::Result(id) => match service.poll(Ticket(id)) {
            Ok(JobState::Done(outcome)) => result_line(id, &outcome),
            Ok(_) => format!("ERR ticket {id} is not finished"),
            Err(err) => format!("ERR {err}"),
        },
        // A full-cache serialisation plus disk write, a merge that
        // deserialises and re-hashes every entry, a hex-encoded export:
        // all far too slow for a reactor thread.
        Verb::Snapshot(path) => {
            return Request::Offload(Box::new(move |service| {
                ok_reply(service.snapshot_to(Path::new(&path)))
            }))
        }
        Verb::Restore(path) => {
            return Request::Offload(Box::new(move |service| {
                ok_reply(service.restore_from(Path::new(&path)))
            }))
        }
        Verb::Export { namespaces, from } => {
            return Request::Offload(Box::new(move |service| {
                export_reply(service, &namespaces, from)
            }))
        }
        Verb::Ship { payload, .. } => {
            return Request::Offload(Box::new(move |service| {
                ok_reply(service.restore_from_bytes(&payload))
            }))
        }
        Verb::Quit => return Request::CloseAfter("BYE".to_string()),
    };
    Request::Immediate(reply)
}

/// Executes one protocol line against the service, synchronously.
///
/// This is the in-process entry point (tests, embedding):
/// [`protocol::parse`] + `execute`, with the deferred part run on the
/// calling thread — a `RUN` drains the queue right here.
/// Two verbs need a front-end and are refused by name, well-formed or
/// not: `WAIT` (it only makes sense where deferred responses exist) and
/// `SHIP` (only a [`protocol::Framer`] can read the payload behind its
/// header).
pub fn handle_command(service: &Service, line: &str) -> Reply {
    let request = protocol::parse(line);
    Reply::Line(match (request.kind, execute(service, request)) {
        (Kind::Ship, _) => "ERR SHIP requires the reactor front-end".to_string(),
        (Kind::Wait, _) | (_, Request::Wait(_)) => {
            "ERR WAIT requires the reactor front-end".to_string()
        }
        (_, Request::Immediate(reply)) => reply,
        (_, Request::CloseAfter(reply)) => return Reply::Close(reply),
        (_, Request::Offload(task)) => task(service),
    })
}

/// A running TCP front-end: the bound address plus its two threads, the
/// reactor and the executor.
///
/// Unlike the seed's thread-per-connection daemon, a `Daemon` serves every
/// connection from one non-blocking reactor thread (see `reactor.rs`):
/// clients may pipeline requests, `RUN` drains and the cache-state verbs
/// execute on the companion executor thread, and [`Daemon::stop`] tears
/// both down deterministically through the wakeup channel.
///
/// ```
/// use std::io::{BufRead, BufReader, Write};
/// use std::net::TcpStream;
/// use std::sync::Arc;
/// use modis_service::{Daemon, Service, ServiceConfig};
///
/// let service = Arc::new(Service::new(ServiceConfig::default()));
/// let daemon = Daemon::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
///
/// let mut stream = TcpStream::connect(daemon.addr()).unwrap();
/// // Pipelined: both requests are on the wire before a response is read;
/// // responses come back in request order.
/// stream.write_all(b"PING\nLIST\n").unwrap();
/// let mut reader = BufReader::new(stream);
/// let mut reply = String::new();
/// reader.read_line(&mut reply).unwrap();
/// assert_eq!(reply, "PONG\n");
/// reply.clear();
/// reader.read_line(&mut reply).unwrap();
/// assert_eq!(reply, "SCENARIOS\n");
/// daemon.stop();
/// ```
pub struct Daemon {
    service: Arc<Service>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    wakeup: Wakeup,
    /// Reactor + executor join handles, taken exactly once. The mutex is
    /// what makes [`Daemon::stop`] idempotent under concurrent double-stop
    /// (e.g. an explicit `stop` racing a `Drop`, or two owners of an
    /// `Arc<Daemon>`): the winner holds the lock through the whole
    /// teardown, losers block until it finishes and then find the handles
    /// already taken.
    threads: Mutex<Option<(JoinHandle<()>, JoinHandle<()>)>>,
}

impl Daemon {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the reactor with default [`ReactorConfig`] tuning.
    pub fn bind(service: Arc<Service>, addr: &str) -> io::Result<Daemon> {
        Daemon::bind_with(service, addr, ReactorConfig::default())
    }

    /// Binds `addr` with explicit reactor tuning.
    pub fn bind_with(
        service: Arc<Service>,
        addr: &str,
        config: ReactorConfig,
    ) -> io::Result<Daemon> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (wakeup, wakeup_rx) = wakeup_pair()?;
        let (executor, jobs) = mpsc::channel();
        let reactor = Reactor::new(
            listener,
            Arc::clone(&service),
            executor,
            wakeup_rx,
            Arc::clone(&stop),
            config,
        )?;

        // Register the tracer-retention and process-vitals instruments now
        // (refreshed again on every METRICS scrape): a daemon that has not
        // been scraped yet still exposes them in its first exposition.
        sync_observability_metrics(&service);

        // Registered only after every fallible step: a failed bind must
        // not leave a dead notifier on the service. Completions anywhere
        // (the executor, in-process `run_pending` calls) wake the reactor
        // so `WAIT` responses stream immediately. One front-end per
        // service: this registration replaces any earlier front-end's.
        let notify = wakeup.clone();
        service.set_completion_notifier(Arc::new(move || notify.notify()));

        let reactor_thread = std::thread::spawn(move || reactor.run());
        let executor_thread = {
            let service = Arc::clone(&service);
            let wakeup = wakeup.clone();
            std::thread::spawn(move || run_executor(jobs, &service, &wakeup))
        };
        Ok(Daemon {
            service,
            addr,
            stop,
            wakeup,
            threads: Mutex::new(Some((reactor_thread, executor_thread))),
        })
    }

    /// The bound address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the front-end deterministically and joins both threads. This
    /// also calls [`Service::shutdown`]: open connections are flushed a
    /// final error line and closed, and further submissions (in-process
    /// included) are rejected with `ServiceError::Stopped`. Read-only calls
    /// (`poll`, `cache_stats`, `snapshot_to`) remain usable in-process.
    ///
    /// The shutdown path is the wakeup channel: the stop flag is set, a
    /// wakeup byte interrupts the reactor's poller wait, and the reactor
    /// closes the listener and every connection before exiting — no
    /// throwaway connection, no waiting for a future client. Its exit
    /// drops the executor's sender, so the executor finishes every job
    /// already queued and exits too. Once `stop` returns, the listening
    /// port is fully released and immediately rebindable.
    ///
    /// `stop` is **idempotent, including under concurrency**: any number
    /// of callers (say two threads sharing an `Arc<Daemon>`, or a manual
    /// stop racing `Drop`) may invoke it; the first performs the teardown
    /// while holding the internal lock, the rest block until it completes
    /// and then return with nothing left to do. Every caller observes a
    /// fully-stopped daemon when its call returns.
    pub fn stop(&self) {
        let mut threads = self.threads.lock().unwrap_or_else(PoisonError::into_inner);
        let Some((reactor, executor)) = threads.take() else {
            return;
        };
        self.service.shutdown();
        self.stop.store(true, Ordering::SeqCst);
        // Notified under the lock: a racing second stopper cannot interleave
        // between the flag store and the wakeup byte.
        self.wakeup.notify();
        let _ = reactor.join();
        let _ = executor.join();
        self.service.clear_completion_notifier();
    }
}

impl Drop for Daemon {
    /// A dropped daemon stops exactly like [`Daemon::stop`] — tests that
    /// panic mid-protocol still release their port and threads.
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use modis_core::config::ModisConfig;
    use modis_core::estimator::EstimatorMode;
    use modis_core::substrate::mock::MockSubstrate;
    use modis_core::substrate::Substrate;
    use modis_engine::{Algorithm, Scenario};

    use crate::protocol::{Frame, Framer};
    use crate::service::ServiceConfig;

    /// What the reactor does with one request line, minus the socket.
    fn dispatch(service: &Service, line: &str) -> Request {
        execute(service, protocol::parse(line))
    }

    fn service() -> Service {
        let service = Service::new(ServiceConfig::default());
        let substrate: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(6));
        let config = ModisConfig::default()
            .with_estimator(EstimatorMode::Oracle)
            .with_max_states(40);
        service
            .register(
                Scenario::new("apx", substrate, Algorithm::Apx, config)
                    .with_cache_namespace("pool"),
            )
            .unwrap();
        service
    }

    #[test]
    fn command_grammar_covers_the_protocol() {
        let service = service();
        assert_eq!(handle_command(&service, "PING").text(), "PONG");
        assert_eq!(handle_command(&service, "LIST").text(), "SCENARIOS apx");
        assert_eq!(handle_command(&service, "SUBMIT apx").text(), "TICKET 1");
        assert_eq!(handle_command(&service, "POLL 1").text(), "QUEUED");
        assert_eq!(handle_command(&service, "RUN").text(), "OK 1");
        assert!(handle_command(&service, "POLL 1")
            .text()
            .starts_with("DONE entries="));
        let stats_reply = handle_command(&service, "STATS");
        let stats_line = stats_reply.text();
        assert!(stats_line.starts_with("STATS hits="));
        // The dominance kernel counters ride on the same line so the
        // skyline win is observable per shard and cluster-aggregated.
        assert!(stats_line.contains(" dominance_comparisons="));
        assert!(stats_line.contains(" dominance_pruned="));
        assert!(handle_command(&service, "SUBMIT ghost")
            .text()
            .starts_with("ERR "));
        assert!(handle_command(&service, "POLL zero")
            .text()
            .starts_with("ERR "));
        assert!(handle_command(&service, "POLL 99")
            .text()
            .starts_with("ERR "));
        assert!(handle_command(&service, "NONSENSE")
            .text()
            .starts_with("ERR "));
        assert!(matches!(handle_command(&service, "QUIT"), Reply::Close(_)));
        // Case-insensitive verbs, tolerant whitespace.
        assert_eq!(handle_command(&service, "  ping  ").text(), "PONG");
    }

    /// `RUN` has one body: in-process, as on the daemon's executor, the
    /// drain records its `drain` span.
    #[test]
    fn an_in_process_run_records_its_drain_span() {
        let service = service();
        assert_eq!(handle_command(&service, "SUBMIT apx").text(), "TICKET 1");
        assert_eq!(handle_command(&service, "RUN").text(), "OK 1");
        let dump = handle_command(&service, "TRACE DUMP 64").text().to_string();
        assert!(dump.lines().any(|l| l.contains(" name=drain ")), "{dump}");
    }

    #[test]
    fn metrics_and_trace_verbs_render_counted_multiline_replies() {
        let service = service();
        assert_eq!(handle_command(&service, "SUBMIT apx").text(), "TICKET 1");
        assert_eq!(handle_command(&service, "RUN").text(), "OK 1");

        let reply = handle_command(&service, "METRICS").text().to_string();
        let mut lines = reply.lines();
        let header = lines.next().expect("header");
        let count: usize = header
            .strip_prefix("METRICS ")
            .expect("METRICS header")
            .parse()
            .expect("numeric count");
        assert_eq!(lines.count(), count, "body must match the header count");
        assert!(reply.contains("service_jobs_completed_total 1"), "{reply}");
        assert!(
            reply.contains("engine_paid_valuations_total{namespace=\"pool\"}"),
            "{reply}"
        );

        let dump = handle_command(&service, "TRACE DUMP 16").text().to_string();
        let mut lines = dump.lines();
        let header = lines.next().expect("header");
        let count: usize = header
            .strip_prefix("SPANS ")
            .expect("SPANS header")
            .parse()
            .expect("numeric count");
        let body: Vec<&str> = lines.collect();
        assert_eq!(body.len(), count);
        assert!(count >= 1, "the RUN drain must have recorded spans");
        assert!(body.iter().all(|l| l.starts_with("SPAN id=")), "{dump}");
        assert!(body.iter().all(|l| l.contains(" trace=")), "{dump}");
        assert!(dump.contains("name=scenario"), "{dump}");
        assert!(
            reply.contains("tracer_retained_spans "),
            "retention gauge registered by the METRICS scrape: {reply}"
        );
        assert!(reply.contains("tracer_dropped_spans_total "), "{reply}");
        assert!(reply.contains("process_rss_bytes "), "{reply}");
        assert!(reply.contains("process_open_fds "), "{reply}");

        assert!(handle_command(&service, "TRACE DUMP many")
            .text()
            .starts_with("ERR TRACE DUMP expects"));
        assert!(handle_command(&service, "TRACE")
            .text()
            .starts_with("ERR unknown command"));

        let stats = handle_command(&service, "STATS").text().to_string();
        for key in [
            "hit_rate=",
            "uptime_s=",
            "jobs_completed=1",
            "jobs_pending=0",
        ] {
            assert!(stats.contains(key), "missing {key}: {stats}");
        }
    }

    #[test]
    fn ctx_prefix_explain_and_slow_log_cover_the_trace_protocol() {
        use std::time::Duration;
        let service = Service::new(ServiceConfig {
            slow_request_threshold: Duration::ZERO,
            ..ServiceConfig::default()
        });
        let substrate: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(6));
        let config = ModisConfig::default()
            .with_estimator(EstimatorMode::Oracle)
            .with_max_states(40);
        service
            .register(
                Scenario::new("apx", substrate, Algorithm::Apx, config)
                    .with_cache_namespace("pool"),
            )
            .unwrap();

        // A CTX prefix on any verb is transparent; malformed ones answer
        // ERR (never a panic), whatever bytes arrive.
        let ctx = service.engine().tracer().mint_context();
        assert_eq!(
            handle_command(&service, &format!("ctx {} PING", ctx.encode())).text(),
            "PONG"
        );
        for bad in ["CTX short PING", "CTX 123 PING", "CTX", "CTX zz PING"] {
            assert!(
                handle_command(&service, bad)
                    .text()
                    .starts_with("ERR CTX expects"),
                "{bad}"
            );
        }

        // A bare, *well-formed* CTX prefix with no verb after it strips
        // down to the empty verb — which must answer a clean protocol ERR
        // (not a silent fallthrough), on both the blocking and the
        // reactor dispatch paths.
        let bare = format!("CTX {}", ctx.encode());
        assert_eq!(
            handle_command(&service, &bare).text(),
            "ERR unknown command \"\""
        );
        match dispatch(&service, &bare) {
            Request::Immediate(text) => assert_eq!(text, "ERR unknown command \"\""),
            _ => panic!("bare CTX must resolve to an immediate error line"),
        }

        // A traced SUBMIT stitches queue wait, job, scenario, and
        // valuation spans under the submitter's trace id.
        assert_eq!(
            handle_command(&service, &format!("CTX {} SUBMIT apx", ctx.encode())).text(),
            "TICKET 1"
        );
        assert_eq!(handle_command(&service, "RUN").text(), "OK 1");
        let timeline = handle_command(&service, "EXPLAIN 1").text().to_string();
        let mut lines = timeline.lines();
        let count: usize = lines
            .next()
            .and_then(|h| h.strip_prefix("TIMELINE "))
            .expect("TIMELINE header")
            .parse()
            .expect("numeric count");
        let events: Vec<&str> = lines.collect();
        assert_eq!(events.len(), count);
        let id = format!("trace={:016x}", ctx.trace_id);
        assert!(
            events
                .iter()
                .all(|e| e.starts_with("EVENT ") && e.contains(&id)),
            "{timeline}"
        );
        for name in [
            "name=queue_wait",
            "name=job",
            "name=scenario",
            "name=valuation",
        ] {
            assert!(timeline.contains(name), "missing {name}: {timeline}");
        }
        // The job span hangs directly off the wire context…
        assert!(
            events
                .iter()
                .any(|e| e.contains("name=job") && e.contains(&format!("parent={}", ctx.span_id))),
            "{timeline}"
        );
        // …and the timeline is time-ordered.
        let starts: Vec<u64> = events
            .iter()
            .map(|e| {
                e.split_whitespace()
                    .find_map(|t| t.strip_prefix("start_us="))
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert!(starts.windows(2).all(|w| w[0] <= w[1]), "{timeline}");

        // The fan-out form addresses the same trace by hex id; an
        // unknown trace is an *empty* timeline, not an error.
        assert_eq!(
            handle_command(&service, &format!("EXPLAIN TRACE {:x}", ctx.trace_id)).text(),
            timeline
        );
        assert_eq!(
            handle_command(&service, "EXPLAIN TRACE deadbeef").text(),
            "TIMELINE 0"
        );
        assert!(handle_command(&service, "EXPLAIN TRACE zz!")
            .text()
            .starts_with("ERR EXPLAIN TRACE expects"));
        assert!(handle_command(&service, "EXPLAIN 99")
            .text()
            .starts_with("ERR unknown ticket 99"));
        assert!(handle_command(&service, "EXPLAIN nope")
            .text()
            .starts_with("ERR EXPLAIN expects"));
        assert!(handle_command(&service, "EXPLAIN")
            .text()
            .starts_with("ERR EXPLAIN expects"));

        // The zero-threshold service logged the run as slow.
        let slow = handle_command(&service, "TRACE SLOW 8").text().to_string();
        let mut lines = slow.lines();
        let count: usize = lines
            .next()
            .and_then(|h| h.strip_prefix("SLOW "))
            .expect("SLOW header")
            .parse()
            .unwrap();
        assert!(count >= 1, "{slow}");
        assert_eq!(lines.clone().count(), count);
        assert!(
            lines.all(|l| l.starts_with("TRACE ") && l.contains("scenario=")),
            "{slow}"
        );
        assert!(
            slow.contains(&format!("TRACE {:016x}", ctx.trace_id)),
            "{slow}"
        );
        assert!(handle_command(&service, "TRACE SLOW many")
            .text()
            .starts_with("ERR TRACE SLOW expects"));
    }

    #[test]
    fn namespace_snapshot_restore_and_result_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("modis_net_ns_{}.ship", std::process::id()));
        let warm = service();
        assert_eq!(handle_command(&warm, "SUBMIT apx").text(), "TICKET 1");
        // RESULT before the run finishes is an error, not a hang.
        assert!(handle_command(&warm, "RESULT 1")
            .text()
            .starts_with("ERR ticket 1 is not finished"));
        assert_eq!(handle_command(&warm, "RUN").text(), "OK 1");
        let result = handle_command(&warm, "RESULT 1").text().to_string();
        assert!(result.starts_with("RESULT 1 entries="), "{result}");
        assert!(result.contains(";r="), "{result}");
        // Byte-exact: asking again yields the identical line.
        assert_eq!(handle_command(&warm, "RESULT 1").text(), result);
        assert!(handle_command(&warm, "RESULT nope")
            .text()
            .starts_with("ERR RESULT expects"));
        assert!(handle_command(&warm, "RESULT 99")
            .text()
            .starts_with("ERR unknown ticket"));

        // Persist the cache, merge the file into a fresh service, and
        // confirm the restored evaluations answer the same scenario warm.
        let reply = handle_command(&warm, &format!("SNAPSHOT {}", path.display()));
        assert!(reply.text().starts_with("OK "), "{}", reply.text());

        let fresh = service();
        let reply = handle_command(&fresh, &format!("RESTORE {}", path.display()));
        assert!(reply.text().starts_with("OK "), "{}", reply.text());
        assert_eq!(handle_command(&fresh, "SUBMIT apx").text(), "TICKET 1");
        assert_eq!(handle_command(&fresh, "RUN").text(), "OK 1");
        assert_eq!(handle_command(&fresh, "RESULT 1").text(), result);
        assert!(handle_command(&fresh, "RESTORE /no/such/file.ship")
            .text()
            .starts_with("ERR "));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn export_and_ship_round_trip_without_touching_disk() {
        let warm = service();
        assert_eq!(handle_command(&warm, "SUBMIT apx").text(), "TICKET 1");
        assert_eq!(handle_command(&warm, "RUN").text(), "OK 1");
        let result = handle_command(&warm, "RESULT 1").text().to_string();

        let reply = handle_command(&warm, "EXPORT pool").text().to_string();
        let mut tokens = reply.split_whitespace();
        assert_eq!(tokens.next(), Some("SHIPMENT"));
        tokens.next().expect("cursor token");
        let len: usize = tokens.next().unwrap().parse().expect("numeric length");
        let hex = tokens.next().expect("hex payload");
        assert!(tokens.next().is_none());
        assert_eq!(hex.len(), len * 2, "hex is two chars per byte");
        let payload: Vec<u8> = (0..len)
            .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).unwrap())
            .collect();
        assert!(payload.starts_with(crate::snapshot::SNAPSHOT_MAGIC));

        // Merge the wire payload into a fresh service: the re-run answers
        // the byte-identical skyline, and the replica exports the same
        // bytes under a cursor of its own.
        let fresh = service();
        let merged = ship(&fresh, &payload);
        let n: usize = merged.strip_prefix("OK ").expect(&merged).parse().unwrap();
        assert!(n > 0, "a warm namespace ships at least one evaluation");
        let fresh_export = handle_command(&fresh, "EXPORT pool").text().to_string();
        assert_eq!(
            fresh_export.split_whitespace().skip(2).collect::<Vec<_>>(),
            reply.split_whitespace().skip(2).collect::<Vec<_>>(),
            "replica exports the same bytes after the merge"
        );
        assert_eq!(handle_command(&fresh, "SUBMIT apx").text(), "TICKET 1");
        assert_eq!(handle_command(&fresh, "RUN").text(), "OK 1");
        assert_eq!(handle_command(&fresh, "RESULT 1").text(), result);

        // A corrupted payload is rejected wholesale.
        assert!(ship(&service(), &[0u8; 16]).starts_with("ERR "));
        // The synchronous entry point cannot frame a binary payload.
        assert!(handle_command(&warm, "SHIP pool 16")
            .text()
            .starts_with("ERR SHIP requires"));
    }

    /// Frames `SHIP pool <len>` + `payload` as a connection would and runs
    /// the deferred merge inline.
    fn ship(service: &Service, payload: &[u8]) -> String {
        let mut framer = Framer::new(protocol::parse, 4096, 1 << 26);
        framer.push(format!("SHIP pool {}\n", payload.len()).as_bytes());
        framer.push(payload);
        let Some(Frame::Request(request)) = framer.next_frame() else {
            panic!("a complete SHIP frame must yield one request");
        };
        match execute(service, request) {
            Request::Offload(task) => task(service),
            _ => panic!("SHIP must offload"),
        }
    }

    #[test]
    fn ship_headers_parse_strictly() {
        let header = |line: &str| match protocol::parse(line).verb {
            Ok(Verb::Ship { len, .. }) => Some(len),
            _ => None,
        };
        assert_eq!(header("SHIP pool 128"), Some(128));
        assert_eq!(header("  ship a b 0\r"), Some(0));
        assert_eq!(header("SHIP pool"), None, "missing length");
        assert_eq!(header("SHIP 128"), None, "missing namespace");
        assert_eq!(header("SHIP pool many"), None);
        assert_eq!(header("SHIPPER pool 1"), None);
        assert_eq!(header("SHIP"), None);
        assert_eq!(header("PING"), None);
    }

    #[test]
    fn concurrent_double_stop_is_idempotent() {
        let service = Arc::new(service());
        let daemon = Arc::new(Daemon::bind(Arc::clone(&service), "127.0.0.1:0").unwrap());
        let addr = daemon.addr();
        let stoppers: Vec<_> = (0..4)
            .map(|_| {
                let daemon = Arc::clone(&daemon);
                std::thread::spawn(move || daemon.stop())
            })
            .collect();
        for stopper in stoppers {
            stopper.join().expect("no stop may panic");
        }
        assert!(service.is_stopped());
        // Every stop returned ⇒ the port is fully released and rebindable.
        let service2 = Arc::new(service_for_rebind());
        let revived = Daemon::bind(service2, &addr.to_string())
            .expect("port must be rebindable after concurrent stops");
        revived.stop();
        // Stopping an already-stopped daemon (and the later Drop) is a
        // no-op rather than a second teardown.
        revived.stop();
        daemon.stop();
    }

    fn service_for_rebind() -> Service {
        service()
    }

    #[test]
    fn dispatch_classifies_deferred_verbs() {
        let service = service();
        assert!(matches!(dispatch(&service, "RUN"), Request::Offload(_)));
        assert!(matches!(dispatch(&service, "run "), Request::Offload(_)));
        match dispatch(&service, "WAIT 3 1 2") {
            Request::Wait(ids) => assert_eq!(ids, vec![3, 1, 2]),
            _ => panic!("WAIT with tickets must defer"),
        }
        assert!(matches!(
            dispatch(&service, "SNAPSHOT /tmp/some.snap"),
            Request::Offload(_)
        ));
        assert!(matches!(
            dispatch(&service, "EXPORT pool"),
            Request::Offload(_)
        ));
        assert!(matches!(
            dispatch(&service, "RESTORE /tmp/x.ship"),
            Request::Offload(_)
        ));
        assert!(matches!(
            dispatch(&service, "RESTORE"),
            Request::Immediate(ref s) if s.starts_with("ERR unknown command")
        ));
        assert!(matches!(
            dispatch(&service, "SNAPSHOT"),
            Request::Immediate(ref s) if s.starts_with("ERR unknown command")
        ));
        assert!(matches!(
            dispatch(&service, "WAIT"),
            Request::Immediate(ref s) if s.starts_with("ERR ")
        ));
        assert!(matches!(
            dispatch(&service, "WAIT one two"),
            Request::Immediate(ref s) if s.starts_with("ERR ")
        ));
        assert!(matches!(
            dispatch(&service, "PING"),
            Request::Immediate(ref s) if s == "PONG"
        ));
        assert!(matches!(dispatch(&service, "QUIT"), Request::CloseAfter(_)));
        // The synchronous entry point rejects WAIT outright.
        assert!(handle_command(&service, "WAIT 1")
            .text()
            .starts_with("ERR "));
    }
}
