//! The long-lived skyline-serving service.
//!
//! A [`Service`] owns one [`Engine`] (and therefore one shared evaluation
//! cache) for its whole lifetime and keeps it warm across requests:
//!
//! 1. **register** — scenarios (substrate × algorithm × config) are
//!    registered once under a name, with namespace fingerprints checked;
//! 2. **submit** — clients enqueue runs by name and get a [`Ticket`];
//! 3. **schedule** — queued runs are ordered by the cost-aware,
//!    namespace-grouped scheduler so cache-warming runs go first;
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
use modis_engine::{CacheStats, Engine, EngineConfig, Scenario, ScenarioOutcome};

use crate::error::ServiceError;
use crate::registry::ScenarioRegistry;
use crate::scheduler::{CostModel, CostScheduler, QueuedRequest};
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
    /// Waiting in the scheduler queue.
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

struct Inner {
    registry: ScenarioRegistry,
    scheduler: CostScheduler,
    costs: CostModel,
    jobs: HashMap<u64, JobState>,
    /// Finished tickets in completion order, for bounded retention.
    completed: VecDeque<u64>,
    /// Ticket → trace id, for `EXPLAIN <ticket>`; evicted alongside the
    /// completed-outcome retention window so the map stays bounded.
    traces: HashMap<u64, u64>,
    next_ticket: u64,
    next_seq: u64,
}

impl Inner {
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
                "Run requests currently waiting in the cost-aware scheduler.",
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

/// EWMA weight of the newest cost observation ([`CostModel::new`]).
const COST_SMOOTHING: f64 = 0.5;

impl Service {
    /// Creates a service with a cold cache.
    pub fn new(config: ServiceConfig) -> Self {
        let engine = Engine::new(config.engine.clone());
        let metrics = ServiceMetrics::new(&engine);
        Service {
            inner: Mutex::new(Inner {
                registry: ScenarioRegistry::new(),
                scheduler: CostScheduler::new(),
                costs: CostModel::new(COST_SMOOTHING),
                jobs: HashMap::new(),
                completed: VecDeque::new(),
                traces: HashMap::new(),
                next_ticket: 1,
                next_seq: 0,
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
    /// `RESTORE` and `SHIP` do. The snapshot's namespace guard is seeded
    /// into the engine as well, so a substrate that is incompatible with
    /// what originally filled a namespace (e.g. refreshed data under the old
    /// name) is rejected at registration instead of silently being served
    /// the stale evaluations.
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

    /// Registers a scenario under its name; see `ScenarioRegistry::register`
    /// (`registry.rs`) for the namespace guarantees. On a
    /// warm-started service the namespace is additionally checked against
    /// the fingerprint recorded by the *snapshotting* process — the cached
    /// evaluations under this namespace belong to that substrate, so an
    /// incompatible one (refreshed data included) is rejected here instead
    /// of being served stale results.
    pub fn register(&self, scenario: Scenario) -> Result<(), ServiceError> {
        let key = modis_engine::SharedEvalCache::namespace_key(scenario.namespace());
        if let Some(recorded) = self.engine.namespace_fingerprint(key) {
            if recorded != scenario.substrate.fingerprint() {
                return Err(ServiceError::NamespaceConflict {
                    namespace: scenario.namespace().to_string(),
                    registered_by: "an earlier process (restored snapshot)".to_string(),
                });
            }
        }
        self.lock().registry.register(scenario)
    }

    /// Registered scenario names (sorted).
    pub fn scenario_names(&self) -> Vec<String> {
        self.lock()
            .registry
            .names()
            .into_iter()
            .map(str::to_string)
            .collect()
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
        let mut inner = self.lock();
        // Checked *under* the inner lock: shutdown() also takes it while
        // setting the flag, so a submission either completes before the
        // flag is visible or observes the flag and is rejected — never
        // accepted once shutdown has begun.
        if self.is_stopped() {
            return Err(ServiceError::Stopped);
        }
        let registered = inner.registry.require(name)?;
        let namespace = registered.namespace().to_string();
        // Prior before the first observation: the configured state budget —
        // an upper bound on paid valuations, comparable across scenarios.
        let prior = registered.config.max_states as f64;
        let estimated_cost = inner.costs.estimate(name, prior);
        let ticket = Ticket(inner.next_ticket);
        inner.next_ticket += 1;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.scheduler.push(QueuedRequest {
            ticket: ticket.0,
            scenario: name.to_string(),
            namespace,
            seq,
            estimated_cost,
            bypassed: 0,
            submitted_at: Instant::now(),
            trace: ctx,
        });
        inner.jobs.insert(ticket.0, JobState::Queued);
        inner.traces.insert(ticket.0, ctx.trace_id);
        self.metrics.jobs_submitted.inc();
        self.metrics.queue_depth.set(inner.scheduler.len() as i64);
        Ok(ticket)
    }

    /// Enqueues several runs at once, returning tickets in input order. All
    /// or nothing: every name is checked before any run is enqueued.
    pub fn submit_many<'a>(
        &self,
        names: impl IntoIterator<Item = &'a str>,
    ) -> Result<Vec<Ticket>, ServiceError> {
        let names: Vec<&str> = names.into_iter().collect();
        for name in &names {
            self.lock().registry.require(name)?;
        }
        names.into_iter().map(|n| self.submit(n)).collect()
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
        self.lock().scheduler.len()
    }

    /// Drains the queue: executes every queued run in scheduler order on
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
                let Some(request) = inner.scheduler.pop() else {
                    break;
                };
                self.metrics.queue_depth.set(inner.scheduler.len() as i64);
                let scenario = match inner.registry.get(&request.scenario) {
                    Some(registered) => registered.clone(),
                    // Registry entries are never removed, so a queued name
                    // always resolves; guard anyway to stay panic-free.
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
            let observed = outcome.valuation_cost() as f64;
            // Predicted-vs-observed cost accounting per namespace: the
            // scheduler's whole premise is that EWMA estimates track real
            // paid cost, so expose both sides of that bet.
            let registry = self.engine.metrics();
            let labels = [("namespace", request.namespace.as_str())];
            registry
                .counter_with(
                    "service_predicted_cost_total",
                    "Scheduler-estimated paid valuation cost of executed jobs, per namespace.",
                    &labels,
                )
                .add(request.estimated_cost.max(0.0).round() as u64);
            registry
                .counter_with(
                    "service_observed_cost_total",
                    "Observed paid valuation cost of executed jobs, per namespace.",
                    &labels,
                )
                .add(observed.max(0.0).round() as u64);
            {
                let mut inner = self.lock();
                inner.costs.observe(&request.scenario, observed);
                inner.finish_job(request.ticket, outcome, self.config.completed_retention);
            }
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
    /// cluster layer moves between shard processes when namespace
    /// ownership rebalances: what `EXPORT` returns and `SHIP` carries
    /// shard-to-shard without touching a shared filesystem.
    pub fn shipment_bytes(&self, namespaces: &[String]) -> Vec<u8> {
        let keys: Vec<u64> = namespaces
            .iter()
            .map(|ns| modis_engine::SharedEvalCache::namespace_key(ns))
            .collect();
        let guards: Vec<(u64, u64)> = self
            .engine
            .namespace_fingerprints()
            .into_iter()
            .filter(|(key, _)| keys.contains(key))
            .collect();
        snapshot::encode_entries(&self.engine.cache().export_namespaces(&keys), &guards)
    }

    /// The stable content digest of the given cache namespaces
    /// ([`modis_engine::SharedEvalCache::namespace_digest`]): equal
    /// digests on two shards mean their resident state for those
    /// namespaces is identical, so a replication driver can skip the
    /// shipment entirely.
    pub fn namespace_digest(&self, namespaces: &[String]) -> u64 {
        let keys: Vec<u64> = namespaces
            .iter()
            .map(|ns| modis_engine::SharedEvalCache::namespace_key(ns))
            .collect();
        self.engine.cache().namespace_digest(&keys)
    }

    /// Merges a full or namespace snapshot from `path` into the live cache
    /// (hashed insertion, safe while serving), returning the number of
    /// evaluations merged.
    ///
    /// Guard pairs carried by the file are validated against this engine's
    /// namespace guard *before* anything is merged: every namespace with an
    /// entry in the file must carry a pair (an entry no fingerprint covers
    /// would later be served to any substrate registered under that name),
    /// and a pair whose fingerprint disagrees with what this process has
    /// recorded for the same namespace describes a different search space.
    /// Either way the whole file is rejected and nothing is merged.
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
        for &(key, fingerprint) in &decoded.namespace_fingerprints {
            if let Some(recorded) = self.engine.namespace_fingerprint(key) {
                if recorded != fingerprint {
                    return Err(ServiceError::NamespaceConflict {
                        namespace: format!("key {key:#x}"),
                        registered_by: "this process (conflicting shipment rejected)".to_string(),
                    });
                }
            }
        }
        let merged = self.engine.cache().merge_exports(decoded.entries);
        self.engine
            .seed_namespace_fingerprints(&decoded.namespace_fingerprints);
        Ok(merged)
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
    fn unknown_submissions_are_rejected() {
        let service = mock_service();
        assert!(matches!(
            service.submit("nope"),
            Err(ServiceError::UnknownScenario(_))
        ));
    }
}
