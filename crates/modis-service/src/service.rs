//! The long-lived skyline-serving service.
//!
//! A [`Service`] owns one [`Engine`] (and therefore one shared evaluation
//! cache) for its whole lifetime and keeps it warm across requests:
//!
//! 1. **register** — scenarios (substrate × algorithm × config) are
//!    registered once under a name, each claiming its cache namespace in
//!    the engine's guard for its substrate's fingerprint;
//! 2. **submit** — clients enqueue runs by name and get a [`Ticket`];
//! 3. **drain** — a drain runs the queued runs one at a time, in
//!    submission order;
//! 4. **run** — each run's search valuates its own start states in its
//!    first wave, so what a run trains is paid for in its own cost;
//! 5. **snapshot** — the shared cache persists to disk on demand and a
//!    fresh process warm-starts from the file.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use modis_core::codec::CodecError;
use modis_core::telemetry::{Counter, Gauge, Histogram, TraceContext};
use modis_engine::{
    CacheStats, Cursor, Engine, EngineConfig, Scenario, ScenarioOutcome, SharedEvalCache,
};

use crate::error::ServiceError;
use crate::snapshot;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Configuration of the owned engine (threads, cache shards/capacity).
    pub engine: EngineConfig,
    /// How many finished outcomes the service retains for polling (0 =
    /// unbounded). A long-lived daemon would otherwise accumulate one
    /// skyline result per submission forever; once a run's outcome is
    /// evicted, polling its ticket answers `UnknownTicket`.
    pub completed_retention: usize,
    /// End-to-end latency (queue wait + execution) at or above which a
    /// finished run's trace is recorded in the tracer's slow-request ring
    /// (dumped via the `TRACE SLOW` wire verb).
    pub slow_request_threshold: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            engine: EngineConfig::default(),
            completed_retention: 4096,
            slow_request_threshold: Duration::from_millis(250),
        }
    }
}

impl ServiceConfig {
    /// Builder-style engine-config setter.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }
}

/// Handle to a submitted run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(pub u64);

/// Lifecycle of a submitted run.
#[derive(Debug, Clone)]
pub enum JobState {
    /// Waiting in the run queue.
    Queued,
    /// Currently executing on the engine.
    Running,
    /// Finished; the outcome is available.
    Done(Box<ScenarioOutcome>),
}

impl JobState {
    /// The finished outcome, if the job is done.
    pub fn outcome(&self) -> Option<&ScenarioOutcome> {
        match self {
            JobState::Done(outcome) => Some(outcome),
            _ => None,
        }
    }
}

/// One queued run request.
struct QueuedRequest {
    ticket: u64,
    /// Registered scenario name.
    scenario: String,
    /// When the request was enqueued (feeds the queue-wait histogram).
    submitted_at: Instant,
    /// The trace context the request arrived under: carried through the
    /// queue onto the executor thread so the job's spans (queue wait, run,
    /// scenario, waves) stitch into the submitter's trace.
    trace: TraceContext,
}

struct Inner {
    /// Registered scenarios by name; entries are never removed.
    scenarios: HashMap<String, Scenario>,
    /// The run queue, in submission order.
    queue: VecDeque<QueuedRequest>,
    jobs: HashMap<u64, JobState>,
    /// Finished tickets in completion order, for bounded retention.
    completed: VecDeque<u64>,
    /// Ticket → trace id, for `EXPLAIN <ticket>`; evicted alongside the
    /// completed-outcome retention window so the map stays bounded.
    traces: HashMap<u64, u64>,
    next_ticket: u64,
}

impl Inner {
    /// Looks up a registered scenario or returns
    /// [`ServiceError::UnknownScenario`].
    fn require(&self, name: &str) -> Result<&Scenario, ServiceError> {
        self.scenarios
            .get(name)
            .ok_or_else(|| ServiceError::UnknownScenario(name.to_string()))
    }

    /// The conflict over namespace `key` (shown as `namespace` when no
    /// local scenario names it): owned by the least-named scenario
    /// registered under it, or else by the snapshot or shipment that
    /// recorded its pair.
    fn namespace_conflict(&self, key: u64, namespace: &str) -> ServiceError {
        let owner = self
            .scenarios
            .values()
            .filter(|s| SharedEvalCache::namespace_key(s.namespace()) == key)
            .min_by(|a, b| a.name.cmp(&b.name));
        match owner {
            Some(owner) => ServiceError::NamespaceConflict {
                namespace: owner.namespace().to_string(),
                registered_by: owner.name.clone(),
            },
            None => ServiceError::NamespaceConflict {
                namespace: namespace.to_string(),
                registered_by: "an earlier process (restored snapshot)".to_string(),
            },
        }
    }

    /// Records a finished outcome and evicts the oldest completed outcomes
    /// beyond the retention bound (queued/running jobs are never evicted).
    fn finish_job(&mut self, ticket: u64, outcome: ScenarioOutcome, retention: usize) {
        self.jobs.insert(ticket, JobState::Done(Box::new(outcome)));
        self.completed.push_back(ticket);
        while retention > 0 && self.completed.len() > retention {
            if let Some(oldest) = self.completed.pop_front() {
                self.jobs.remove(&oldest);
                self.traces.remove(&oldest);
            }
        }
    }
}

/// Callback invoked whenever a submitted job finishes (and on shutdown):
/// the reactor front-end registers its wakeup channel here so deferred
/// `WAIT` responses stream the moment their jobs complete.
pub(crate) type CompletionNotifier = Arc<dyn Fn() + Send + Sync>;

/// Pre-resolved handles into the engine's metrics registry for the
/// service's own instruments (resolved once — job paths never take the
/// registry lock).
struct ServiceMetrics {
    queue_depth: Arc<Gauge>,
    jobs_submitted: Arc<Counter>,
    jobs_completed: Arc<Counter>,
    job_queue_wait_us: Arc<Histogram>,
    job_run_us: Arc<Histogram>,
}

impl ServiceMetrics {
    fn new(engine: &Engine) -> ServiceMetrics {
        let metrics = engine.metrics();
        ServiceMetrics {
            queue_depth: metrics.gauge(
                "service_queue_depth",
                "Run requests currently waiting in the run queue.",
            ),
            jobs_submitted: metrics.counter(
                "service_jobs_submitted_total",
                "Run requests accepted by SUBMIT over the service lifetime.",
            ),
            jobs_completed: metrics.counter(
                "service_jobs_completed_total",
                "Run requests finished over the service lifetime.",
            ),
            job_queue_wait_us: metrics.histogram(
                "service_job_queue_wait_us",
                "Time a run request spent queued before execution, microseconds.",
            ),
            job_run_us: metrics.histogram(
                "service_job_run_us",
                "Execution wall time of one run request, microseconds.",
            ),
        }
    }
}

/// A persistent skyline-serving service: one engine, one shared cache,
/// many requests.
pub struct Service {
    config: ServiceConfig,
    engine: Engine,
    inner: Mutex<Inner>,
    stop: AtomicBool,
    notifier: Mutex<Option<CompletionNotifier>>,
    metrics: ServiceMetrics,
    started: Instant,
}

impl Service {
    /// Creates a service with a cold cache.
    pub fn new(config: ServiceConfig) -> Self {
        let engine = Engine::new(config.engine.clone());
        let metrics = ServiceMetrics::new(&engine);
        Service {
            inner: Mutex::new(Inner {
                scenarios: HashMap::new(),
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                completed: VecDeque::new(),
                traces: HashMap::new(),
                next_ticket: 1,
            }),
            engine,
            config,
            stop: AtomicBool::new(false),
            notifier: Mutex::new(None),
            metrics,
            started: Instant::now(),
        }
    }

    /// How long this service has been up.
    pub(crate) fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Run requests finished over the service lifetime (monotonic — not
    /// bounded by the completed-outcome retention window).
    pub(crate) fn jobs_completed(&self) -> u64 {
        self.metrics.jobs_completed.get()
    }

    /// Creates a service whose shared cache is warm-started from a snapshot
    /// file written by [`Service::snapshot_to`]: [`Service::new`] followed
    /// by [`Service::restore_from`], so a warm start passes the guard check
    /// `RESTORE` and `SHIP` do. The snapshot's guard pairs are admitted into
    /// the engine's namespace guard as well, so a substrate that is
    /// incompatible with what originally filled a namespace (e.g. refreshed
    /// data under the old name) is rejected at registration instead of
    /// silently being served the stale evaluations.
    pub fn from_snapshot(config: ServiceConfig, path: &Path) -> Result<Self, ServiceError> {
        let service = Service::new(config);
        service.restore_from(path)?;
        Ok(service)
    }

    /// The owned engine (for telemetry, the cache and its namespace guard).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a scenario under its name, which must be new, and claims
    /// its cache namespace in the engine's guard for its substrate's
    /// fingerprint ([`Engine::claim_namespace`]). A namespace already
    /// claimed for another fingerprint — by a registered scenario, or by a
    /// snapshot or shipment restored earlier — is a
    /// [`ServiceError::NamespaceConflict`]: the evaluations under it
    /// describe another search space (refreshed data included). A rejected
    /// scenario claims nothing.
    pub fn register(&self, scenario: Scenario) -> Result<(), ServiceError> {
        let mut inner = self.lock();
        if inner.scenarios.contains_key(&scenario.name) {
            return Err(ServiceError::DuplicateScenario(scenario.name));
        }
        let fingerprint = scenario.substrate.fingerprint();
        if self
            .engine
            .claim_namespace(scenario.namespace(), fingerprint)
            .is_err()
        {
            let key = SharedEvalCache::namespace_key(scenario.namespace());
            return Err(inner.namespace_conflict(key, scenario.namespace()));
        }
        inner.scenarios.insert(scenario.name.clone(), scenario);
        Ok(())
    }

    /// Registered scenario names (sorted).
    pub fn scenario_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.lock().scenarios.keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// Enqueues a run of a registered scenario and returns its ticket.
    /// Rejected once [`Service::shutdown`] has been called — nothing will
    /// drain the queue any more, so the ticket would hang forever.
    ///
    /// A fresh trace is minted for the run; to stitch it into a trace the
    /// caller already carries (a routed request arriving with a `CTX` wire
    /// prefix), use `Service::submit_traced`.
    pub fn submit(&self, name: &str) -> Result<Ticket, ServiceError> {
        let ctx = self.engine.tracer().mint_context();
        self.submit_traced(name, ctx)
    }

    /// [`Service::submit`] under an explicit trace context: the request is
    /// carried through the queue onto the executor thread under `ctx`, so
    /// its queue-wait, job, scenario, and valuation spans all stitch into
    /// the submitter's trace — across the thread hop and, when `ctx`
    /// arrived over the wire, across the process hop too.
    pub(crate) fn submit_traced(
        &self,
        name: &str,
        ctx: TraceContext,
    ) -> Result<Ticket, ServiceError> {
        Ok(self.enqueue(&[name], || ctx)?[0])
    }

    /// Enqueues several runs at once, returning tickets in input order. All
    /// or nothing: every name is checked before any run is enqueued, and
    /// a shutdown either comes after all of them or rejects all of them.
    pub fn submit_many<'a>(
        &self,
        names: impl IntoIterator<Item = &'a str>,
    ) -> Result<Vec<Ticket>, ServiceError> {
        let names: Vec<&str> = names.into_iter().collect();
        let tracer = self.engine.tracer();
        self.enqueue(&names, || tracer.mint_context())
    }

    /// Checks the stop flag and every name, then appends one run per name
    /// to the queue under `trace()`, all under one `Inner` lock.
    fn enqueue(
        &self,
        names: &[&str],
        mut trace: impl FnMut() -> TraceContext,
    ) -> Result<Vec<Ticket>, ServiceError> {
        let mut inner = self.lock();
        // Checked *under* the inner lock: shutdown() also takes it while
        // setting the flag, so a submission either completes before the
        // flag is visible or observes the flag and is rejected — never
        // accepted once shutdown has begun.
        if self.is_stopped() {
            return Err(ServiceError::Stopped);
        }
        for name in names {
            inner.require(name)?;
        }
        let tickets = names
            .iter()
            .map(|name| {
                let ticket = inner.next_ticket;
                inner.next_ticket += 1;
                let trace = trace();
                inner.queue.push_back(QueuedRequest {
                    ticket,
                    scenario: name.to_string(),
                    submitted_at: Instant::now(),
                    trace,
                });
                inner.jobs.insert(ticket, JobState::Queued);
                inner.traces.insert(ticket, trace.trace_id);
                Ticket(ticket)
            })
            .collect();
        self.metrics.jobs_submitted.add(names.len() as u64);
        self.metrics.queue_depth.set(inner.queue.len() as i64);
        Ok(tickets)
    }

    /// The current state of a submitted run.
    pub fn poll(&self, ticket: Ticket) -> Result<JobState, ServiceError> {
        self.lock()
            .jobs
            .get(&ticket.0)
            .cloned()
            .ok_or(ServiceError::UnknownTicket(ticket.0))
    }

    /// The trace id the ticket's run was submitted under (`EXPLAIN`
    /// resolves tickets to traces through this). `None` once the ticket
    /// has fallen off the completed-outcome retention window.
    pub(crate) fn trace_of(&self, ticket: Ticket) -> Option<u64> {
        self.lock().traces.get(&ticket.0).copied()
    }

    /// Number of runs waiting in the queue.
    pub fn pending(&self) -> usize {
        self.lock().queue.len()
    }

    /// Drains the queue: executes every queued run in submission order on
    /// the calling thread. Returns the number of runs executed.
    ///
    /// This is the one drain path: a `RUN` calls it on the daemon's
    /// executor thread, and in-process callers (tests, benches) call it
    /// directly for deterministic draining.
    pub fn run_pending(&self) -> usize {
        let mut executed = 0;
        loop {
            let (request, scenario) = {
                let mut inner = self.lock();
                let Some(request) = inner.queue.pop_front() else {
                    break;
                };
                self.metrics.queue_depth.set(inner.queue.len() as i64);
                let scenario = match inner.scenarios.get(&request.scenario) {
                    Some(registered) => registered.clone(),
                    // Scenarios are never removed, so a queued name always
                    // resolves; guard anyway to stay panic-free.
                    None => continue,
                };
                inner.jobs.insert(request.ticket, JobState::Running);
                (request, scenario)
            };
            let tracer = self.engine.tracer();
            let queue_wait = request.submitted_at.elapsed();
            self.metrics.job_queue_wait_us.record_duration(queue_wait);
            // Retroactive span: the wait already happened, so record it with
            // its true start instant rather than opening a live span now.
            tracer.record_at(
                "queue_wait",
                tracer.child_context(request.trace),
                request.submitted_at,
                queue_wait,
            );
            let run_start = Instant::now();
            let job_span = tracer.span_with("job", request.trace);
            let job_ctx = job_span.context();
            let outcome = self.engine.run_scenario_traced(&scenario, job_ctx);
            drop(job_span);
            self.metrics.job_run_us.record_duration(run_start.elapsed());
            self.metrics.jobs_completed.inc();
            self.lock()
                .finish_job(request.ticket, outcome, self.config.completed_retention);
            // End-to-end latency (wait + run) against the slow threshold:
            // the trace id is enough to stitch the full timeline later.
            let total = request.submitted_at.elapsed();
            if total >= self.config.slow_request_threshold {
                tracer.note_slow(request.trace.trace_id, total, &request.scenario);
            }
            // Per-job (not per-drain), so `WAIT` watchers stream each
            // completion as it happens instead of at the end of the wave.
            self.notify_completion();
            executed += 1;
        }
        executed
    }

    /// Registers the callback invoked after every finished job and on
    /// shutdown (the reactor's wakeup channel). One front-end at a time: a
    /// later registration replaces the earlier notifier, so a daemon that
    /// re-binds does not leave a stale wakeup handle behind.
    pub(crate) fn set_completion_notifier(&self, notifier: CompletionNotifier) {
        *self.notifier.lock().unwrap_or_else(PoisonError::into_inner) = Some(notifier);
    }

    /// Removes the completion notifier (a stopping front-end detaching its
    /// wakeup channel).
    pub(crate) fn clear_completion_notifier(&self) {
        *self.notifier.lock().unwrap_or_else(PoisonError::into_inner) = None;
    }

    fn notify_completion(&self) {
        let notifier = self
            .notifier
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        if let Some(notify) = notifier {
            notify();
        }
    }

    /// Merged cache telemetry: shared-cache counters plus the substrate
    /// memos of every executed scenario.
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache_stats()
    }

    /// Persists the shared evaluation cache and the engine's namespace
    /// guard to `path`, returning the snapshot size in bytes. Take
    /// snapshots between `run_pending` waves for a capture no run is
    /// writing into.
    pub fn snapshot_to(&self, path: &Path) -> Result<usize, ServiceError> {
        let _span = self.engine.tracer().span("snapshot");
        Ok(snapshot::save_to_path(
            self.engine.cache(),
            &self.engine.namespace_fingerprints(),
            path,
        )?)
    }

    /// Encodes the given cache namespaces (their evaluations plus their
    /// guard pairs) as an in-memory namespace snapshot — the same
    /// format as [`Service::snapshot_to`], and the portable unit the
    /// cluster layer moves between shard processes: what `EXPORT` returns
    /// and `SHIP` carries shard-to-shard without touching a shared
    /// filesystem. Empty when the namespaces hold nothing.
    pub fn shipment_bytes(&self, namespaces: &[String]) -> Vec<u8> {
        self.shipment(namespaces, Cursor::default()).1
    }

    /// What `EXPORT <ns>… FROM <after>` answers: the cache's cursor, and
    /// the entries of `namespaces` recorded after `after` encoded as by
    /// [`Service::shipment_bytes`] — no bytes at all when there are none.
    pub(crate) fn shipment(&self, namespaces: &[String], after: Cursor) -> (Cursor, Vec<u8>) {
        let keys: Vec<u64> = namespaces
            .iter()
            .map(|ns| SharedEvalCache::namespace_key(ns))
            .collect();
        let (cursor, entries) = self.engine.cache().export_namespaces(&keys, after);
        if entries.is_empty() {
            return (cursor, Vec::new());
        }
        let guards: Vec<(u64, u64)> = self
            .engine
            .namespace_fingerprints()
            .into_iter()
            .filter(|(key, _)| keys.contains(key))
            .collect();
        (cursor, snapshot::encode_entries(&entries, &guards))
    }

    /// Merges a full or namespace snapshot from `path` into the live cache
    /// (hashed insertion, safe while serving), returning the number of
    /// evaluations merged.
    ///
    /// Guard pairs carried by the file are admitted into this engine's
    /// namespace guard *before* anything is merged: every namespace with an
    /// entry in the file must carry a pair (an entry no fingerprint covers
    /// would later be served to any substrate registered under that name),
    /// and a pair whose fingerprint disagrees with what this process has
    /// recorded for the same namespace — at a registration, a run or an
    /// earlier restore — describes a different search space. Either way
    /// the whole file is rejected and nothing is merged or recorded.
    pub fn restore_from(&self, path: &Path) -> Result<usize, ServiceError> {
        let bytes = std::fs::read(path).map_err(snapshot::SnapshotError::Io)?;
        self.restore_from_bytes(&bytes)
    }

    /// [`Service::restore_from`] for in-memory bytes — the receive side of
    /// the `SHIP` wire verb. Same wholesale guard validation: a missing or
    /// conflicting guard pair rejects the entire payload and merges nothing.
    pub fn restore_from_bytes(&self, bytes: &[u8]) -> Result<usize, ServiceError> {
        let _span = self.engine.tracer().span("restore");
        let decoded = snapshot::decode_snapshot(bytes)?;
        let guarded: HashSet<u64> = decoded.namespace_fingerprints.iter().map(|g| g.0).collect();
        if !decoded
            .entries
            .iter()
            .all(|e| guarded.contains(&e.namespace))
        {
            let unguarded = CodecError::Invalid("a namespace with slots carries no guard pair");
            return Err(snapshot::SnapshotError::Corrupt(unguarded).into());
        }
        if let Err(key) = self.engine.admit_guards(&decoded.namespace_fingerprints) {
            return Err(self
                .lock()
                .namespace_conflict(key, &format!("key {key:#x}")));
        }
        Ok(self.engine.cache().merge_exports(decoded.entries))
    }

    /// Signals the front-end to stop and rejects every later submission.
    /// Taken under the inner lock so it serialises against in-flight
    /// [`Service::submit`] calls.
    pub fn shutdown(&self) {
        {
            let _inner = self.lock();
            self.stop.store(true, Ordering::SeqCst);
        }
        // A parked reactor must observe the flag now, not at its timeout.
        self.notify_completion();
    }

    /// Whether [`Service::shutdown`] has been called.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modis_core::config::ModisConfig;
    use modis_core::estimator::EstimatorMode;
    use modis_core::substrate::mock::MockSubstrate;
    use modis_core::substrate::Substrate;
    use modis_engine::Algorithm;

    fn mock_service() -> Service {
        let service = Service::new(ServiceConfig::default());
        let substrate: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(8));
        let config = ModisConfig::default()
            .with_estimator(EstimatorMode::Oracle)
            .with_max_states(60)
            .with_max_level(4);
        for (name, alg) in [
            ("apx", Algorithm::Apx),
            ("bi", Algorithm::Bi),
            ("div", Algorithm::Div),
        ] {
            service
                .register(
                    Scenario::new(name, substrate.clone(), alg, config.clone())
                        .with_cache_namespace("mock-pool"),
                )
                .unwrap();
        }
        service
    }

    #[test]
    fn submit_run_poll_lifecycle() {
        let service = mock_service();
        let ticket = service.submit("apx").unwrap();
        assert!(matches!(service.poll(ticket).unwrap(), JobState::Queued));
        assert_eq!(service.pending(), 1);
        assert_eq!(service.run_pending(), 1);
        assert_eq!(service.pending(), 0);
        let state = service.poll(ticket).unwrap();
        let outcome = state.outcome().expect("job finished");
        assert!(!outcome.result.is_empty());
        assert!(matches!(
            service.poll(Ticket(999)),
            Err(ServiceError::UnknownTicket(999))
        ));
    }

    #[test]
    fn second_wave_is_answered_from_the_warm_cache() {
        let service = mock_service();
        service.submit("apx").unwrap();
        service.run_pending();
        let ticket = service.submit("apx").unwrap();
        service.run_pending();
        let state = service.poll(ticket).unwrap();
        let outcome = state.outcome().unwrap();
        assert_eq!(outcome.result.stats.oracle_calls, 0, "no retraining");
        assert!(outcome.shared_hits() > 0);
    }

    #[test]
    fn completed_outcomes_are_retained_up_to_the_bound() {
        let service = Service::new(ServiceConfig {
            completed_retention: 2,
            ..ServiceConfig::default()
        });
        let substrate: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(6));
        service
            .register(
                Scenario::new(
                    "apx",
                    substrate,
                    Algorithm::Apx,
                    ModisConfig::default()
                        .with_estimator(EstimatorMode::Oracle)
                        .with_max_states(20),
                )
                .with_cache_namespace("pool"),
            )
            .unwrap();
        let tickets: Vec<Ticket> = (0..3).map(|_| service.submit("apx").unwrap()).collect();
        service.run_pending();
        // The oldest finished outcome fell off the retention window…
        assert!(matches!(
            service.poll(tickets[0]),
            Err(ServiceError::UnknownTicket(_))
        ));
        // …the newest two are still pollable.
        assert!(service.poll(tickets[1]).unwrap().outcome().is_some());
        assert!(service.poll(tickets[2]).unwrap().outcome().is_some());
    }

    #[test]
    fn submissions_after_shutdown_are_rejected() {
        let service = mock_service();
        service.shutdown();
        assert!(matches!(service.submit("apx"), Err(ServiceError::Stopped)));
    }

    #[test]
    fn submit_many_after_shutdown_enqueues_nothing() {
        let service = mock_service();
        service.shutdown();
        assert!(matches!(
            service.submit_many(["apx", "bi", "div"]),
            Err(ServiceError::Stopped)
        ));
        assert_eq!(service.pending(), 0);
    }

    fn mock_scenario(name: &str, units: usize, namespace: &str) -> Scenario {
        let substrate: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(units));
        Scenario::new(name, substrate, Algorithm::Apx, ModisConfig::default())
            .with_cache_namespace(namespace)
    }

    #[test]
    fn registers_and_lists_by_name() {
        let service = Service::new(ServiceConfig::default());
        service.register(mock_scenario("b", 6, "pool-b")).unwrap();
        service.register(mock_scenario("a", 6, "pool-a")).unwrap();
        assert_eq!(service.scenario_names(), vec!["a", "b"]);
        assert!(matches!(
            service.submit("missing"),
            Err(ServiceError::UnknownScenario(_))
        ));
    }

    #[test]
    fn rejects_duplicate_names() {
        let service = Service::new(ServiceConfig::default());
        service.register(mock_scenario("same", 6, "x")).unwrap();
        assert!(matches!(
            service.register(mock_scenario("same", 6, "y")),
            Err(ServiceError::DuplicateScenario(_))
        ));
        // The rejected scenario claimed nothing.
        let y = SharedEvalCache::namespace_key("y");
        assert!(service.engine().admit_guards(&[(y, 1)]).is_ok());
    }

    #[test]
    fn shared_namespace_requires_matching_fingerprint() {
        let service = Service::new(ServiceConfig::default());
        service.register(mock_scenario("first", 6, "pool")).unwrap();
        // Same structure: allowed.
        service
            .register(mock_scenario("second", 6, "pool"))
            .unwrap();
        // Different unit universe under the same namespace: rejected.
        let err = service
            .register(mock_scenario("third", 8, "pool"))
            .unwrap_err();
        match err {
            ServiceError::NamespaceConflict {
                namespace,
                registered_by,
            } => {
                assert_eq!(namespace, "pool");
                assert_eq!(registered_by, "first");
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn unknown_submissions_are_rejected() {
        let service = mock_service();
        assert!(matches!(
            service.submit("nope"),
            Err(ServiceError::UnknownScenario(_))
        ));
    }
}
