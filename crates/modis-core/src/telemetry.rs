//! Zero-dependency metrics and tracing primitives.
//!
//! The serving stack's whole premise is that oracle valuations dominate
//! cost — so the stack must be able to *show* where requests spend their
//! time without asking anything of the environment: no exporter crate, no
//! background thread, no clock syscall on the per-sample fast path beyond
//! what the caller already pays. This module provides the two primitives
//! everything above builds on:
//!
//! * a [`MetricsRegistry`] of lock-free instruments — [`Counter`]s,
//!   [`Gauge`]s and log2-bucketed latency [`Histogram`]s with p50/p99
//!   estimation and lossless [`Histogram::merge`] — rendered on demand as
//!   Prometheus-style text exposition ([`MetricsRegistry::render`]);
//! * a fixed-capacity ring-buffer span [`Tracer`] with scoped [`Span`]
//!   guards (start, duration, parent, thread, trace), cheap enough to
//!   leave on in production and dumped over the wire by the `TRACE DUMP`
//!   verb.
//!
//! Spans stitch across threads and processes through an explicit
//! [`TraceContext`]: a `(trace_id, span_id, parent_id)` triple minted
//! once per request, carried through job queues onto executor threads
//! ([`Tracer::span_with`]) and across the wire as a fixed-width hex
//! token ([`TraceContext::encode`] / [`TraceContext::decode`]). Every
//! span recorded under a context lands in a bounded per-trace index
//! ([`Tracer::trace_spans`]) so the `EXPLAIN` verb can answer one
//! request's complete, time-ordered timeline; the slowest stitched
//! traces over a caller-chosen threshold are additionally kept in a
//! slow-request ring ([`Tracer::note_slow`] / [`Tracer::slowest`]).
//!
//! Instruments are registered once (idempotently) and the returned
//! `Arc` handles are updated with single relaxed atomic operations — the
//! registry's mutex is only taken at registration and exposition time,
//! never on the record path. Layers that cannot reach a registry by
//! reference (a schedule's waves deep inside a search) read the ambient
//! telemetry installed by [`with_ambient`] for the current call tree.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Number of log2 buckets a [`Histogram`] keeps: one per possible bit
/// width of a `u64` sample (0 has width 0), so every sample maps to
/// exactly one bucket with two instructions and no branches.
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter (relaxed atomic increments).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (relaxed atomic stores).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A lock-free log2-bucketed histogram for latency-like `u64` samples
/// (microseconds by convention across this workspace).
///
/// A sample `v` lands in the bucket indexed by its bit width (`v = 0` →
/// bucket 0, `1` → 1, `2..=3` → 2, `4..=7` → 3, …), so recording is two
/// relaxed `fetch_add`s and a `leading_zeros` — cheap enough for a
/// 4M req/s reactor hot path. Quantiles are estimated as the upper bound
/// (`2^i − 1`) of the bucket containing the requested rank, which makes
/// them monotone in the rank by construction and at most one octave above
/// the true value. [`Histogram::merge`] adds bucket vectors element-wise,
/// which is lossless (the merged histogram is exactly the histogram of
/// the concatenated sample streams) and therefore order-insensitive —
/// the property the cluster fan-in relies on.
///
/// ```
/// use modis_core::telemetry::Histogram;
/// let h = Histogram::new();
/// for v in [1u64, 2, 3, 100, 5_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.value_sum(), 5_106);
/// assert!(h.quantile(0.5) <= h.quantile(0.99));
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The bucket index of a sample: its bit width.
#[inline]
fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `i` (`2^i − 1`, saturating).
fn bucket_bound(index: usize) -> u64 {
    if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration as whole microseconds (saturating).
    #[inline]
    pub fn record_duration(&self, duration: Duration) {
        self.record(duration.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total recorded samples — by definition the sum over all buckets,
    /// so no recorded sample can ever be unaccounted for.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded sample values (wrapping on overflow).
    pub fn value_sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Estimated value at quantile `q ∈ [0, 1]`: the upper bound of the
    /// bucket containing rank `⌈q·count⌉`. Returns 0 for an empty
    /// histogram. Monotone in `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        let snapshot = self.snapshot();
        let count: u64 = snapshot.iter().sum();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, n) in snapshot.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        bucket_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Estimated median (`quantile(0.5)`).
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds `other` into `self` bucket-wise. Lossless: the result is
    /// exactly the histogram of both sample streams concatenated, so
    /// merging in any order (and any grouping) yields the same state.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// The kind of instrument a family holds (one kind per metric name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn exposition_name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One registered instrument.
#[derive(Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// All series of one metric name: shared help text, kind, and one
/// instrument per distinct label set (in registration order).
struct Family {
    help: &'static str,
    kind: Kind,
    /// `(rendered label block, instrument)` — the block is `""` for the
    /// unlabeled series, else `{key="value",…}` with registration-order
    /// keys.
    series: Vec<(String, Instrument)>,
}

/// A registry of named instruments with Prometheus-style exposition.
///
/// Registration is idempotent: asking for the same `(name, labels)` pair
/// again returns the existing handle, so call sites may re-register
/// freely instead of threading handles around. The registry lock is only
/// held during registration and [`MetricsRegistry::render`] — recording
/// through the returned handles is lock-free.
///
/// ```
/// use modis_core::telemetry::MetricsRegistry;
/// let registry = MetricsRegistry::new();
/// let hits = registry.counter_with(
///     "cache_hits_total",
///     "Cache hits.",
///     &[("namespace", "pool")],
/// );
/// hits.add(3);
/// let text = registry.render().join("\n");
/// assert!(text.contains("cache_hits_total{namespace=\"pool\"} 3"));
/// ```
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<&'static str, Family>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MetricsRegistry")
    }
}

/// Renders a label slice as an exposition label block.
fn label_block(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={:?}", v)).collect();
    format!("{{{}}}", body.join(","))
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<&'static str, Family>> {
        self.families.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn register(
        &self,
        name: &'static str,
        help: &'static str,
        kind: Kind,
        labels: &[(&str, &str)],
        fresh: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let block = label_block(labels);
        let mut families = self.lock();
        let family = families.entry(name).or_insert_with(|| Family {
            help,
            kind,
            series: Vec::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric {name:?} registered as both {:?} and {kind:?}",
            family.kind
        );
        if let Some((_, instrument)) = family.series.iter().find(|(b, _)| *b == block) {
            return instrument.clone();
        }
        let instrument = fresh();
        family.series.push((block, instrument.clone()));
        instrument
    }

    /// Registers (or finds) an unlabeled counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Registers (or finds) a labeled counter.
    pub fn counter_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        match self.register(name, help, Kind::Counter, labels, || {
            Instrument::Counter(Arc::new(Counter::new()))
        }) {
            Instrument::Counter(c) => c,
            _ => unreachable!("register enforces the kind"),
        }
    }

    /// Registers (or finds) an unlabeled gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or finds) a labeled gauge.
    pub fn gauge_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Gauge> {
        match self.register(name, help, Kind::Gauge, labels, || {
            Instrument::Gauge(Arc::new(Gauge::new()))
        }) {
            Instrument::Gauge(g) => g,
            _ => unreachable!("register enforces the kind"),
        }
    }

    /// Registers (or finds) an unlabeled histogram.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Registers (or finds) a labeled histogram.
    pub fn histogram_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.register(name, help, Kind::Histogram, labels, || {
            Instrument::Histogram(Arc::new(Histogram::new()))
        }) {
            Instrument::Histogram(h) => h,
            _ => unreachable!("register enforces the kind"),
        }
    }

    /// Renders every registered series as Prometheus-style text
    /// exposition lines (`# HELP` / `# TYPE` comments per family, then
    /// one sample line per series — histograms expand to cumulative
    /// `_bucket{le=…}` lines up to their highest non-empty bucket, plus
    /// `le="+Inf"`, `_sum` and `_count`). Families are rendered in name
    /// order, series in registration order, so the output is stable.
    pub fn render(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (name, family) in self.lock().iter() {
            lines.push(format!("# HELP {name} {}", family.help));
            lines.push(format!("# TYPE {name} {}", family.kind.exposition_name()));
            for (block, instrument) in &family.series {
                match instrument {
                    Instrument::Counter(c) => lines.push(format!("{name}{block} {}", c.get())),
                    Instrument::Gauge(g) => lines.push(format!("{name}{block} {}", g.get())),
                    Instrument::Histogram(h) => {
                        let snapshot = h.snapshot();
                        let highest = snapshot.iter().rposition(|&n| n > 0).unwrap_or(0);
                        let mut cumulative = 0u64;
                        for (i, n) in snapshot.iter().enumerate().take(highest + 1) {
                            cumulative += n;
                            lines.push(format!(
                                "{name}_bucket{} {cumulative}",
                                merge_le(block, bucket_bound(i))
                            ));
                        }
                        lines.push(format!("{name}_bucket{} {cumulative}", merge_inf(block)));
                        lines.push(format!("{name}_sum{block} {}", h.value_sum()));
                        lines.push(format!("{name}_count{block} {cumulative}"));
                    }
                }
            }
        }
        lines
    }
}

/// Splices an `le` label into an existing label block.
fn merge_le(block: &str, bound: u64) -> String {
    if block.is_empty() {
        format!("{{le=\"{bound}\"}}")
    } else {
        format!("{},le=\"{bound}\"}}", &block[..block.len() - 1])
    }
}

/// Splices the terminal `le="+Inf"` label into an existing label block.
fn merge_inf(block: &str) -> String {
    if block.is_empty() {
        "{le=\"+Inf\"}".to_string()
    } else {
        format!("{},le=\"+Inf\"}}", &block[..block.len() - 1])
    }
}

/// An explicit trace context: the identity a request carries across
/// thread hops (reactor → executor) and process hops (router → shard) so
/// spans recorded anywhere stitch into one timeline.
///
/// `trace_id` names the whole request tree (`0` = untraced); `span_id`
/// names the span the carrier is currently *inside*, which becomes the
/// parent of any span opened under this context ([`Tracer::span_with`]);
/// `parent_id` is that span's own parent. On the wire a context is 48
/// fixed-width lowercase hex digits — the argument of the optional
/// `CTX <hex>` request prefix.
///
/// ```
/// use modis_core::telemetry::TraceContext;
/// let ctx = TraceContext { trace_id: 0xabc, span_id: 7, parent_id: 0 };
/// let hex = ctx.encode();
/// assert_eq!(hex.len(), TraceContext::WIRE_LEN);
/// assert_eq!(TraceContext::decode(&hex), Some(ctx));
/// assert_eq!(TraceContext::decode("not hex"), None);
/// assert_eq!(TraceContext::decode(&hex[..40]), None, "truncated");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Identifies the whole request tree (0 = untraced).
    pub trace_id: u64,
    /// The span this context is currently inside: spans opened under the
    /// context record it as their parent.
    pub span_id: u64,
    /// The parent of `span_id` (0 = root).
    pub parent_id: u64,
}

impl TraceContext {
    /// Length of the wire encoding, in hex digits.
    pub const WIRE_LEN: usize = 48;

    /// The untraced context (all zeros): spans opened under it are kept
    /// in the retention rings but never indexed into a trace timeline.
    pub const NONE: TraceContext = TraceContext {
        trace_id: 0,
        span_id: 0,
        parent_id: 0,
    };

    /// Whether this is the untraced context.
    pub fn is_none(&self) -> bool {
        self.trace_id == 0
    }

    /// The fixed-width wire form: `trace_id`, `span_id` and `parent_id`
    /// as three concatenated 16-digit lowercase hex fields.
    pub fn encode(&self) -> String {
        format!(
            "{:016x}{:016x}{:016x}",
            self.trace_id, self.span_id, self.parent_id
        )
    }

    /// Strict inverse of [`TraceContext::encode`]: exactly
    /// [`TraceContext::WIRE_LEN`] hex digits (case-insensitive), anything
    /// else — wrong length, stray characters, truncation — answers
    /// `None`. Decoding never panics on any input.
    pub fn decode(hex: &str) -> Option<TraceContext> {
        if hex.len() != Self::WIRE_LEN || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let field = |i: usize| u64::from_str_radix(&hex[i * 16..(i + 1) * 16], 16).ok();
        Some(TraceContext {
            trace_id: field(0)?,
            span_id: field(1)?,
            parent_id: field(2)?,
        })
    }
}

/// One completed span captured by a [`Tracer`].
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id within the tracer's lifetime (never 0).
    pub id: u64,
    /// Id of the span that was open on the same thread when this one
    /// started (or the explicit [`TraceContext::span_id`] for spans
    /// opened with [`Tracer::span_with`]), or 0 for a root span.
    pub parent: u64,
    /// The trace this span belongs to, or 0 for an untraced span.
    pub trace: u64,
    /// A stable per-thread discriminator (hash of the thread id).
    pub thread: u64,
    /// Static name given at [`Tracer::span`] time.
    pub name: &'static str,
    /// Microseconds since the tracer was created when the span started.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

/// One entry of the slow-request log: a stitched trace whose end-to-end
/// duration crossed the caller's threshold (see [`Tracer::note_slow`]).
#[derive(Debug, Clone)]
pub struct SlowTrace {
    /// The trace id of the slow request.
    pub trace: u64,
    /// End-to-end duration the caller observed, microseconds.
    pub dur_us: u64,
    /// Spans indexed for the trace when it was noted.
    pub spans: usize,
    /// Caller-supplied label (e.g. the scenario name).
    pub label: String,
}

/// How many ring shards a [`Tracer`] spreads completed spans over: spans
/// completing on different threads usually land in different shards, so
/// the (tiny) critical section is rarely contended.
const TRACER_SHARDS: usize = 8;

/// Most traces the per-trace span index retains, FIFO-evicted: the
/// newest `TRACE_INDEX_TRACES` distinct trace ids stay explainable.
const TRACE_INDEX_TRACES: usize = 256;

/// Most spans indexed per trace. Later spans of an over-long trace stay
/// in the retention rings (and in `TRACE DUMP`) but leave the stitched
/// `EXPLAIN` timeline — the bound keeps a runaway trace from pinning
/// unbounded memory.
const TRACE_INDEX_SPANS: usize = 128;

/// How many traces the slow-request ring retains (the N slowest).
const SLOW_TRACES: usize = 32;

/// A fixed-capacity ring buffer of completed [`SpanRecord`]s.
///
/// Scoped [`Span`] guards record start/end/parent on drop; the newest
/// `capacity` completed spans are retained, oldest evicted first (each
/// eviction counted by [`Tracer::dropped_spans`]). Parent linkage is
/// implicit within a thread (a span's parent is whatever span was open
/// on the same thread when it started) and *explicit* across hops:
/// [`Tracer::span_with`] parents a span under a [`TraceContext`] carried
/// over from another thread or process, and spans opened implicitly
/// inside it inherit its trace id. Recording costs one `Instant::now()`,
/// one sharded mutex lock and a `VecDeque` push (traced spans pay one
/// more small lock for the per-trace index) — spans are for *operations*
/// (a drain, a job, a scenario), not per-request hot paths; those use
/// [`Histogram`]s.
///
/// ```
/// use std::sync::Arc;
/// use modis_core::telemetry::Tracer;
/// let tracer = Arc::new(Tracer::with_capacity(16));
/// let ctx = tracer.mint_context();
/// {
///     let outer = tracer.span_with("outer", ctx);
///     let _inner = tracer.span("inner"); // implicit child of outer
///     assert_eq!(outer.context().trace_id, ctx.trace_id);
/// } // guards drop here, inner first
/// let spans = tracer.trace_spans(ctx.trace_id);
/// assert_eq!(spans.len(), 2);
/// let inner = spans.iter().find(|s| s.name == "inner").unwrap();
/// let outer = spans.iter().find(|s| s.name == "outer").unwrap();
/// assert_eq!(inner.parent, outer.id);
/// assert_eq!(outer.parent, ctx.span_id);
/// assert_eq!(inner.trace, outer.trace);
/// ```
#[derive(Debug)]
pub struct Tracer {
    shards: [Mutex<VecDeque<SpanRecord>>; TRACER_SHARDS],
    per_shard_capacity: usize,
    epoch: Instant,
    /// Microseconds since the Unix epoch at construction: added to
    /// `start_us` offsets when timelines from several processes must
    /// sort against each other (`EXPLAIN` stitching).
    wall_anchor_us: u64,
    next_id: AtomicU64,
    next_trace: AtomicU64,
    /// Spans evicted from the retention rings (silent loss made visible).
    dropped: AtomicU64,
    traces: Mutex<TraceIndex>,
    slow: Mutex<Vec<SlowTrace>>,
}

/// The bounded trace-id → spans index behind [`Tracer::trace_spans`].
#[derive(Debug, Default)]
struct TraceIndex {
    spans: HashMap<u64, Vec<SpanRecord>>,
    order: VecDeque<u64>,
}

thread_local! {
    /// `(id, trace)` of the spans currently open on this thread,
    /// innermost last — implicit children inherit the trace id.
    static OPEN_SPANS: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// A stable discriminator for the current thread.
fn thread_token() -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut hasher);
    hasher.finish()
}

impl Tracer {
    /// Creates a tracer retaining (about) the newest `capacity` completed
    /// spans across all threads. Span and trace ids are salted with the
    /// process id so ids minted by different processes of one cluster
    /// never collide in a stitched timeline.
    pub fn with_capacity(capacity: usize) -> Tracer {
        let salt = (std::process::id() as u64) << 40;
        Tracer {
            shards: std::array::from_fn(|_| Mutex::new(VecDeque::new())),
            per_shard_capacity: capacity.div_ceil(TRACER_SHARDS).max(1),
            epoch: Instant::now(),
            wall_anchor_us: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
                .unwrap_or(0),
            next_id: AtomicU64::new(salt | 1),
            next_trace: AtomicU64::new(salt | 1),
            dropped: AtomicU64::new(0),
            traces: Mutex::new(TraceIndex::default()),
            slow: Mutex::new(Vec::new()),
        }
    }

    /// Opens a scoped span: the returned guard records a [`SpanRecord`]
    /// when dropped. Spans opened while this one is open (on the same
    /// thread) record it as their parent and inherit its trace id.
    pub fn span(self: &Arc<Self>, name: &'static str) -> Span {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, trace) = OPEN_SPANS.with(|stack| {
            let mut stack = stack.borrow_mut();
            let (parent, trace) = stack.last().copied().unwrap_or((0, 0));
            stack.push((id, trace));
            (parent, trace)
        });
        Span {
            tracer: Arc::clone(self),
            name,
            id,
            parent,
            trace,
            start: Instant::now(),
        }
    }

    /// Opens a scoped span under an explicit [`TraceContext`] — the hop
    /// closer: the span parents under `ctx.span_id` regardless of what
    /// is open on the current thread, and implicit spans opened inside
    /// it inherit `ctx.trace_id`.
    pub fn span_with(self: &Arc<Self>, name: &'static str, ctx: TraceContext) -> Span {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN_SPANS.with(|stack| stack.borrow_mut().push((id, ctx.trace_id)));
        Span {
            tracer: Arc::clone(self),
            name,
            id,
            parent: ctx.span_id,
            trace: ctx.trace_id,
            start: Instant::now(),
        }
    }

    /// Mints a fresh root context: a new (process-salted) trace id and a
    /// new root span id with no parent. One per traced request.
    pub fn mint_context(&self) -> TraceContext {
        TraceContext {
            trace_id: self.next_trace.fetch_add(1, Ordering::Relaxed),
            span_id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent_id: 0,
        }
    }

    /// Derives a child context of `ctx`: same trace, a fresh span id
    /// parented under `ctx.span_id`. The child names a span that has not
    /// been recorded yet — record it retroactively with
    /// [`Tracer::record_at`] (e.g. a forward round-trip timed at the
    /// call site), or hand it to a downstream hop whose spans should
    /// parent under it.
    pub fn child_context(&self, ctx: TraceContext) -> TraceContext {
        TraceContext {
            trace_id: ctx.trace_id,
            span_id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent_id: ctx.span_id,
        }
    }

    /// Records a span retroactively: `ctx.span_id` becomes the recorded
    /// span's own id, `ctx.parent_id` its parent. This is how spans whose
    /// extent is only known after the fact enter a timeline — a queue
    /// wait (`submitted_at` → execution start) or a forward round-trip
    /// (send → reply). A `start` before the tracer existed clamps to the
    /// tracer's epoch.
    pub fn record_at(&self, name: &'static str, ctx: TraceContext, start: Instant, dur: Duration) {
        let start_us = start
            .saturating_duration_since(self.epoch)
            .as_micros()
            .min(u64::MAX as u128) as u64;
        self.record(SpanRecord {
            id: ctx.span_id,
            parent: ctx.parent_id,
            trace: ctx.trace_id,
            thread: thread_token(),
            name,
            start_us,
            dur_us: dur.as_micros().min(u64::MAX as u128) as u64,
        });
    }

    /// Records a completed span (called by the [`Span`] guard's drop).
    fn record(&self, record: SpanRecord) {
        let indexed = (record.trace != 0).then(|| record.clone());
        {
            let shard = (record.thread as usize) % TRACER_SHARDS;
            let mut ring = self.shards[shard]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if ring.len() >= self.per_shard_capacity {
                ring.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            ring.push_back(record);
        }
        let Some(record) = indexed else { return };
        let mut index = self.traces.lock().unwrap_or_else(PoisonError::into_inner);
        if !index.spans.contains_key(&record.trace) {
            if index.order.len() >= TRACE_INDEX_TRACES {
                if let Some(evicted) = index.order.pop_front() {
                    index.spans.remove(&evicted);
                }
            }
            index.order.push_back(record.trace);
            index.spans.insert(record.trace, Vec::new());
        }
        let spans = index.spans.get_mut(&record.trace).expect("just inserted");
        if spans.len() < TRACE_INDEX_SPANS {
            spans.push(record);
        }
    }

    /// The newest `n` completed spans across all threads, oldest first
    /// (by span end time).
    pub fn recent(&self, n: usize) -> Vec<SpanRecord> {
        let mut all: Vec<SpanRecord> = Vec::new();
        for shard in &self.shards {
            all.extend(
                shard
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .iter()
                    .cloned(),
            );
        }
        all.sort_by_key(|s| s.start_us + s.dur_us);
        if all.len() > n {
            all.drain(..all.len() - n);
        }
        all
    }

    /// Spans evicted from the retention rings over the tracer's lifetime
    /// — the loss the `tracer_dropped_spans_total` counter exposes.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Completed spans currently retained across the rings.
    pub fn retained_spans(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Microseconds since the Unix epoch when this tracer was created.
    /// Adding it to a [`SpanRecord::start_us`] offset yields an absolute
    /// wall-clock microsecond — what lets timelines from several
    /// processes (router + shards) sort against each other.
    pub fn wall_anchor_us(&self) -> u64 {
        self.wall_anchor_us
    }

    /// Every indexed span of `trace`, sorted by start time (ties by id).
    /// Empty for an unknown (or evicted, or untraced) trace id.
    pub fn trace_spans(&self, trace: u64) -> Vec<SpanRecord> {
        let index = self.traces.lock().unwrap_or_else(PoisonError::into_inner);
        let mut spans = index.spans.get(&trace).cloned().unwrap_or_default();
        spans.sort_by_key(|s| (s.start_us, s.id));
        spans
    }

    /// Notes a completed traced request for the slow-request log. The
    /// caller decides the threshold; the tracer keeps the 32 slowest
    /// distinct traces (a trace noted twice keeps its slower
    /// observation). Untraced requests are ignored.
    pub fn note_slow(&self, trace: u64, dur: Duration, label: &str) {
        if trace == 0 {
            return;
        }
        let dur_us = dur.as_micros().min(u64::MAX as u128) as u64;
        let spans = {
            let index = self.traces.lock().unwrap_or_else(PoisonError::into_inner);
            index.spans.get(&trace).map(Vec::len).unwrap_or(0)
        };
        let mut slow = self.slow.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = slow.iter_mut().find(|e| e.trace == trace) {
            if dur_us > entry.dur_us {
                entry.dur_us = dur_us;
                entry.spans = spans;
                entry.label = label.to_string();
            }
        } else {
            slow.push(SlowTrace {
                trace,
                dur_us,
                spans,
                label: label.to_string(),
            });
        }
        slow.sort_by_key(|entry| std::cmp::Reverse(entry.dur_us));
        slow.truncate(SLOW_TRACES);
    }

    /// The `n` slowest noted traces, slowest first.
    pub fn slowest(&self, n: usize) -> Vec<SlowTrace> {
        let slow = self.slow.lock().unwrap_or_else(PoisonError::into_inner);
        slow.iter().take(n).cloned().collect()
    }
}

/// A scoped span guard (see [`Tracer::span`]); records on drop.
#[derive(Debug)]
pub struct Span {
    tracer: Arc<Tracer>,
    name: &'static str,
    id: u64,
    parent: u64,
    trace: u64,
    start: Instant,
}

impl Span {
    /// This span's own context: handing it to a downstream layer parents
    /// that layer's spans under this span, in this span's trace.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace,
            span_id: self.id,
            parent_id: self.parent,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        OPEN_SPANS.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Scoped guards drop LIFO; tolerate out-of-order drops anyway.
            if let Some(pos) = stack.iter().rposition(|&(id, _)| id == self.id) {
                stack.remove(pos);
            }
        });
        let start_us = self
            .start
            .duration_since(self.tracer.epoch)
            .as_micros()
            .min(u64::MAX as u128) as u64;
        let dur_us = self.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.tracer.record(SpanRecord {
            id: self.id,
            parent: self.parent,
            trace: self.trace,
            thread: thread_token(),
            name: self.name,
            start_us,
            dur_us,
        });
    }
}

/// The ambient telemetry of a call tree: the registry and tracer the
/// innermost enclosing [`with_ambient`] installed on this thread.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Metrics registry instruments should register into.
    pub metrics: Arc<MetricsRegistry>,
    /// Tracer spans should record into.
    pub tracer: Arc<Tracer>,
}

thread_local! {
    static AMBIENT: RefCell<Vec<Telemetry>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with `telemetry` installed as this thread's ambient
/// telemetry (restoring the previous ambient afterwards, panics
/// included). Deep layers that cannot reach a registry by reference —
/// a schedule's waves inside a search — read it back with `ambient`.
pub fn with_ambient<R>(telemetry: Telemetry, f: impl FnOnce() -> R) -> R {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
    AMBIENT.with(|stack| stack.borrow_mut().push(telemetry));
    let _restore = Restore;
    f()
}

/// This thread's ambient telemetry, if a [`with_ambient`] scope is open.
pub(crate) fn ambient() -> Option<Telemetry> {
    AMBIENT.with(|stack| stack.borrow().last().cloned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_cover_every_bit_width() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        let snapshot = h.snapshot();
        assert_eq!(snapshot[0], 1);
        assert_eq!(snapshot[1], 1);
        assert_eq!(snapshot[64], 1);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn quantiles_bound_true_values_from_above_within_an_octave() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.p50();
        assert!((500..=1023).contains(&p50), "p50 estimate {p50}");
        let p99 = h.p99();
        assert!((990..=1023).contains(&p99), "p99 estimate {p99}");
    }

    #[test]
    fn merge_is_exactly_concatenation() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in [3u64, 17, 900, 4] {
            a.record(v);
            all.record(v);
        }
        for v in [1u64, 1 << 40, 55] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.snapshot(), all.snapshot());
        assert_eq!(a.value_sum(), all.value_sum());
    }

    #[test]
    fn registry_is_idempotent_and_kind_checked() {
        let registry = MetricsRegistry::new();
        let c1 = registry.counter("x_total", "X.");
        let c2 = registry.counter("x_total", "X.");
        c1.inc();
        assert_eq!(c2.get(), 1, "same handle behind both registrations");
        let l1 = registry.counter_with("y_total", "Y.", &[("verb", "ping")]);
        let l2 = registry.counter_with("y_total", "Y.", &[("verb", "quit")]);
        l1.add(2);
        assert_eq!(l2.get(), 0, "distinct label sets are distinct series");
    }

    #[test]
    #[should_panic(expected = "registered as both")]
    fn registry_rejects_kind_conflicts() {
        let registry = MetricsRegistry::new();
        registry.counter("z", "Z.");
        registry.gauge("z", "Z.");
    }

    #[test]
    fn exposition_renders_all_kinds() {
        let registry = MetricsRegistry::new();
        registry.counter("a_total", "A.").add(7);
        registry.gauge("b", "B.").set(-3);
        let h = registry.histogram_with("c_us", "C.", &[("verb", "ping")]);
        h.record(5);
        h.record(70);
        let text = registry.render().join("\n");
        assert!(text.contains("# TYPE a_total counter"), "{text}");
        assert!(text.contains("a_total 7"), "{text}");
        assert!(text.contains("b -3"), "{text}");
        assert!(text.contains("# TYPE c_us histogram"), "{text}");
        assert!(
            text.contains("c_us_bucket{verb=\"ping\",le=\"7\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("c_us_bucket{verb=\"ping\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("c_us_sum{verb=\"ping\"} 75"), "{text}");
        assert!(text.contains("c_us_count{verb=\"ping\"} 2"), "{text}");
    }

    #[test]
    fn tracer_rings_are_bounded_and_sorted() {
        let tracer = Arc::new(Tracer::with_capacity(64));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let tracer = Arc::clone(&tracer);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let _span = tracer.span("op");
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("span worker");
        }
        let recent = tracer.recent(1000);
        assert!(
            !recent.is_empty() && recent.len() <= 64,
            "capacity bound: {}",
            recent.len()
        );
        for pair in recent.windows(2) {
            assert!(pair[0].start_us + pair[0].dur_us <= pair[1].start_us + pair[1].dur_us);
        }
        assert_eq!(tracer.recent(1).len(), 1);
    }

    #[test]
    fn trace_context_encodes_fixed_width_and_decodes_strictly() {
        let ctx = TraceContext {
            trace_id: u64::MAX,
            span_id: 1,
            parent_id: 0,
        };
        let hex = ctx.encode();
        assert_eq!(hex.len(), TraceContext::WIRE_LEN);
        assert_eq!(TraceContext::decode(&hex), Some(ctx));
        assert_eq!(TraceContext::decode(&hex.to_uppercase()), Some(ctx));
        assert_eq!(TraceContext::decode(&hex[1..]), None, "truncated");
        assert_eq!(TraceContext::decode(&format!("{hex}0")), None, "over-long");
        assert_eq!(
            TraceContext::decode(&hex.replace('f', "g")),
            None,
            "non-hex"
        );
        assert_eq!(TraceContext::decode(""), None);
        // 24 two-byte chars: 48 *bytes*, so the length check passes and
        // the hex check must reject without slicing mid-character.
        assert_eq!(TraceContext::decode(&"é".repeat(24)), None, "non-ascii");
        assert!(TraceContext::NONE.is_none());
        assert!(!ctx.is_none());
    }

    #[test]
    fn explicit_contexts_stitch_across_threads() {
        let tracer = Arc::new(Tracer::with_capacity(64));
        let ctx = tracer.mint_context();
        assert_ne!(ctx.trace_id, 0);
        assert_eq!(ctx.parent_id, 0);
        let child = tracer.child_context(ctx);
        assert_eq!(child.trace_id, ctx.trace_id);
        assert_eq!(child.parent_id, ctx.span_id);
        // The hop: open the span under the context on a *different*
        // thread — exactly what the executor does with a queued request.
        let worker = {
            let tracer = Arc::clone(&tracer);
            std::thread::spawn(move || {
                let job = tracer.span_with("job", child);
                let _inner = tracer.span("scenario");
                drop(_inner);
                job.context()
            })
        };
        let job_ctx = worker.join().expect("traced worker");
        let spans = tracer.trace_spans(ctx.trace_id);
        assert_eq!(spans.len(), 2);
        let job = spans.iter().find(|s| s.name == "job").unwrap();
        let scenario = spans.iter().find(|s| s.name == "scenario").unwrap();
        assert_eq!(job.parent, child.span_id);
        assert_eq!(job.trace, ctx.trace_id);
        assert_eq!(scenario.parent, job.id);
        assert_eq!(scenario.trace, ctx.trace_id, "implicit child inherits");
        assert_eq!(job_ctx.span_id, job.id);
        // Retroactive span: the queue wait recorded after the fact.
        let wait = tracer.child_context(ctx);
        tracer.record_at("queue_wait", wait, Instant::now(), Duration::from_micros(5));
        let spans = tracer.trace_spans(ctx.trace_id);
        let wait_span = spans.iter().find(|s| s.name == "queue_wait").unwrap();
        assert_eq!(wait_span.id, wait.span_id);
        assert_eq!(wait_span.parent, ctx.span_id);
        assert_eq!(wait_span.dur_us, 5);
    }

    #[test]
    fn ring_overflow_is_counted_and_retention_reported() {
        let tracer = Arc::new(Tracer::with_capacity(8));
        assert_eq!(tracer.dropped_spans(), 0);
        for _ in 0..100 {
            let _span = tracer.span("op");
        }
        // All spans complete on this thread → one ring of capacity 1.
        assert_eq!(tracer.retained_spans(), 1);
        assert_eq!(tracer.dropped_spans(), 99);
    }

    #[test]
    fn trace_index_is_bounded_and_time_sorted() {
        let tracer = Arc::new(Tracer::with_capacity(1 << 16));
        let first = tracer.mint_context();
        {
            let _span = tracer.span_with("keep", first);
        }
        // Evict `first` by flooding the index with fresh traces.
        for _ in 0..TRACE_INDEX_TRACES {
            let ctx = tracer.mint_context();
            let _span = tracer.span_with("flood", ctx);
        }
        assert!(
            tracer.trace_spans(first.trace_id).is_empty(),
            "oldest trace evicted"
        );
        // Per-trace span cap: later spans leave the timeline silently.
        let big = tracer.mint_context();
        for _ in 0..(TRACE_INDEX_SPANS + 10) {
            let _span = tracer.span_with("op", big);
        }
        let spans = tracer.trace_spans(big.trace_id);
        assert_eq!(spans.len(), TRACE_INDEX_SPANS);
        for pair in spans.windows(2) {
            assert!((pair[0].start_us, pair[0].id) <= (pair[1].start_us, pair[1].id));
        }
    }

    #[test]
    fn slow_log_keeps_the_slowest_distinct_traces() {
        let tracer = Arc::new(Tracer::with_capacity(64));
        for i in 1..=40u64 {
            tracer.note_slow(i, Duration::from_micros(i), "job");
        }
        tracer.note_slow(0, Duration::from_secs(99), "untraced-ignored");
        let slowest = tracer.slowest(100);
        assert_eq!(slowest.len(), SLOW_TRACES);
        assert_eq!(slowest[0].trace, 40, "slowest first");
        assert_eq!(slowest[0].dur_us, 40);
        for pair in slowest.windows(2) {
            assert!(pair[0].dur_us >= pair[1].dur_us);
        }
        // A repeat observation keeps the slower duration.
        tracer.note_slow(40, Duration::from_micros(7), "job");
        assert_eq!(tracer.slowest(1)[0].dur_us, 40);
        tracer.note_slow(40, Duration::from_micros(500), "job");
        assert_eq!(tracer.slowest(1)[0].dur_us, 500);
        assert_eq!(tracer.slowest(2).len(), 2);
    }

    #[test]
    fn ambient_telemetry_nests_and_restores() {
        assert!(ambient().is_none());
        let outer = Telemetry {
            metrics: Arc::new(MetricsRegistry::new()),
            tracer: Arc::new(Tracer::with_capacity(4)),
        };
        let inner = Telemetry {
            metrics: Arc::new(MetricsRegistry::new()),
            tracer: Arc::new(Tracer::with_capacity(4)),
        };
        with_ambient(outer.clone(), || {
            with_ambient(inner.clone(), || {
                let seen = ambient().expect("inner ambient");
                assert!(Arc::ptr_eq(&seen.metrics, &inner.metrics));
            });
            let seen = ambient().expect("outer ambient");
            assert!(Arc::ptr_eq(&seen.metrics, &outer.metrics));
        });
        assert!(ambient().is_none());
    }
}
