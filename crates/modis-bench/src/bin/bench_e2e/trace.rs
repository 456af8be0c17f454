//! Span recording from outside the program: a recorder the benchmark owns
//! and a [`Substrate`] wrapper that delegates to the real substrate and
//! times every call through the seam. Nothing in the product crates is
//! touched; spans inside the program are a later change.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use modis_core::prelude::*;
use modis_data::StateBitmap;

/// One recorded interval. Spans of one request share `request`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 for a request's root span).
    pub parent: u64,
    /// Request number (0 outside any request).
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What one request's children covered, by span name.
#[derive(Debug, Default, Clone)]
pub struct RequestTrace {
    /// The root span's duration, milliseconds.
    pub total_ms: f64,
    /// Per child name: milliseconds of the request covered by children of
    /// that name (overlaps counted once) and the number of calls.
    pub children: BTreeMap<&'static str, (f64, usize)>,
}

impl RequestTrace {
    pub fn covered_ms(&self, name: &str) -> f64 {
        self.children.get(name).map_or(0.0, |c| c.0)
    }
}

/// Length of the part of `parent` covered by the union of `children`, all
/// as `(start, end)`; a span's self time is its duration minus this. Children are clipped to the parent and overlapping
/// children — two wave workers training at once — are counted once.
pub fn covered(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = parent.0;
    for (start, end) in clipped {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// In-memory span store. One request is in flight at a time (one client,
/// closed loop), so "the request in flight" is a single slot.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    requests: AtomicU64,
    /// `(root span id, request number)` of the request in flight.
    inflight: Mutex<(u64, u64)>,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            requests: AtomicU64::new(0),
            inflight: Mutex::new((0, 0)),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a child span of the request in flight. Callable from
    /// any thread (wave workers train concurrently).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (parent, request) = *self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Span {
                id,
                parent,
                request,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Runs `f` as one request: a root span whose children are every span
    /// recorded while it runs.
    pub fn request<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, RequestTrace) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let request = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        let first_child = {
            *self.inflight.lock().unwrap_or_else(PoisonError::into_inner) = (id, request);
            self.spans
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len()
        };
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        *self.inflight.lock().unwrap_or_else(PoisonError::into_inner) = (0, 0);

        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let mut by_name: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
        for child in spans[first_child..].iter().filter(|s| s.parent == id) {
            by_name
                .entry(child.name)
                .or_default()
                .push((child.start_ns, child.end_ns));
        }
        let children = by_name
            .into_iter()
            .map(|(name, intervals)| {
                let ms = covered((start_ns, end_ns), &intervals) as f64 / 1e6;
                (name, (ms, intervals.len()))
            })
            .collect();
        spans.push(Span {
            id,
            parent: 0,
            request,
            name,
            start_ns,
            end_ns,
        });
        (
            out,
            RequestTrace {
                total_ms: (end_ns - start_ns) as f64 / 1e6,
                children,
            },
        )
    }

    /// Durations in milliseconds of every recorded span called `name`
    /// whose root request span is called `under`.
    pub fn durations_ms(&self, name: &str, under: &str) -> Vec<f64> {
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let roots: std::collections::BTreeSet<u64> = spans
            .iter()
            .filter(|s| s.parent == 0 && s.name == under)
            .map(|s| s.id)
            .collect();
        spans
            .iter()
            .filter(|s| s.name == name && roots.contains(&s.parent))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Writes every span as one JSON object per line. Returns the count.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// Span names the wrapper records.
pub const EVALUATE_RAW: &str = "evaluate_raw";
pub const STATE_FEATURES: &str = "state_features";
pub const ARTIFACT_SIZE: &str = "artifact_size";

/// The real substrate behind a recording seam. Everything that defines the
/// search space — units, start states, measures, fingerprint — is the
/// inner substrate's, so snapshots restore and namespaces match exactly as
/// they do untraced.
pub struct TracedSubstrate {
    inner: Arc<TableSubstrate>,
    recorder: Arc<Recorder>,
    /// Every state `evaluate_raw` was asked for, in call order: the inputs
    /// the training replays re-issue.
    raw_log: Mutex<Vec<StateBitmap>>,
}

impl TracedSubstrate {
    pub fn new(inner: Arc<TableSubstrate>, recorder: Arc<Recorder>) -> Arc<TracedSubstrate> {
        Arc::new(TracedSubstrate {
            inner,
            recorder,
            raw_log: Mutex::new(Vec::new()),
        })
    }

    /// Name of the task the wrapped substrate valuates.
    pub fn task_name(&self) -> &str {
        &self.inner.task().name
    }

    /// Every state `evaluate_raw` has been asked for so far, in call order.
    pub fn raw_states(&self) -> Vec<StateBitmap> {
        self.raw_log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl Substrate for TracedSubstrate {
    fn num_units(&self) -> usize {
        self.inner.num_units()
    }
    fn unit_label(&self, unit: usize) -> String {
        self.inner.unit_label(unit)
    }
    fn forward_start(&self) -> StateBitmap {
        self.inner.forward_start()
    }
    fn backward_start(&self) -> StateBitmap {
        self.inner.backward_start()
    }
    fn measures(&self) -> &MeasureSet {
        self.inner.measures()
    }
    fn evaluate_raw(&self, bitmap: &StateBitmap) -> Vec<f64> {
        self.raw_log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(bitmap.clone());
        self.recorder
            .span(EVALUATE_RAW, || self.inner.evaluate_raw(bitmap))
    }
    fn state_features(&self, bitmap: &StateBitmap) -> Vec<f64> {
        self.recorder
            .span(STATE_FEATURES, || self.inner.state_features(bitmap))
    }
    fn artifact_size(&self, bitmap: &StateBitmap) -> (usize, usize) {
        self.recorder
            .span(ARTIFACT_SIZE, || self.inner.artifact_size(bitmap))
    }
    fn protected_units(&self) -> Vec<usize> {
        self.inner.protected_units()
    }
    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }
    fn memo_stats(&self) -> SubstrateCacheStats {
        self.inner.memo_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_intervals_are_subtracted_once() {
        // Parent 0..100; two overlapping children cover 10..60, a third
        // covers 80..90, a fourth lies outside and a fifth straddles the end.
        let parent = (0, 100);
        let children = [(10, 40), (30, 60), (80, 90), (120, 130), (95, 140)];
        assert_eq!(covered(parent, &children), 50 + 10 + 5);
        let self_time = |children: &[(u64, u64)]| 100 - covered(parent, children);
        assert_eq!(self_time(&children), 35);
        // A child nested in another adds nothing.
        assert_eq!(covered(parent, &[(10, 60), (20, 30)]), 50);
        assert_eq!(self_time(&[]), 100);
        assert_eq!(self_time(&[(0, 100), (0, 100)]), 0);
    }

    #[test]
    fn a_request_collects_its_children_by_name() {
        let recorder = Recorder::new();
        let ((), trace) = recorder.request("wire_request", || {
            recorder.span(EVALUATE_RAW, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            recorder.span(EVALUATE_RAW, || ());
            recorder.span(STATE_FEATURES, || ());
        });
        assert_eq!(trace.children[EVALUATE_RAW].1, 2);
        assert_eq!(trace.children[STATE_FEATURES].1, 1);
        assert!(trace.covered_ms(EVALUATE_RAW) >= 2.0);
        assert!(trace.total_ms >= trace.covered_ms(EVALUATE_RAW));
        assert_eq!(trace.covered_ms("absent"), 0.0);
        // A span outside any request has no parent and joins no request.
        recorder.span(ARTIFACT_SIZE, || ());
        assert_eq!(recorder.durations_ms(EVALUATE_RAW, "wire_request").len(), 2);
        assert!(recorder
            .durations_ms(ARTIFACT_SIZE, "wire_request")
            .is_empty());
    }

    #[test]
    fn the_wrapper_keeps_the_fingerprint_and_logs_training_inputs() {
        let task = &crate::tasks::paper_tasks()[2];
        let inner = task.substrate();
        let recorder = Recorder::new();
        let traced = TracedSubstrate::new(inner.clone(), recorder.clone());
        assert_eq!(traced.fingerprint(), inner.fingerprint());
        assert_eq!(traced.num_units(), inner.num_units());
        let full = traced.forward_start();
        let (raw, trace) = recorder.request("algo_request", || traced.evaluate_raw(&full));
        assert_eq!(raw, inner.evaluate_raw(&full));
        traced.evaluate_raw(&full);
        assert_eq!(trace.children[EVALUATE_RAW].1, 1);
        assert_eq!(traced.raw_states(), vec![full.clone(), full]);
        assert_eq!(traced.task_name(), "T3-avocado");
    }
}
