//! Cost-aware scenario scheduling.
//!
//! Queued submissions are ordered so that *cache-warming* runs execute
//! before their dependants: requests are grouped by cache namespace (runs
//! in one namespace feed each other's evaluations through the shared
//! cache), groups keep first-come-first-served fairness, and *within* a
//! group the run with the smallest estimated valuation cost goes first —
//! the cheapest run populates the namespace for the expensive ones, which
//! then answer most of their oracle valuations from the cache instead of
//! retraining.
//!
//! Cost estimates come from a per-scenario EWMA over the *paid* valuation
//! cost of past runs ([`modis_core::config::SkylineResult::valuation_cost`]);
//! a scenario that has never run falls back to its configured state budget.

use std::collections::HashMap;
use std::time::Instant;

use modis_core::telemetry::TraceContext;

/// Exponentially weighted per-scenario cost estimates.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Weight of the newest observation in `(0, 1]`.
    smoothing: f64,
    estimates: HashMap<String, f64>,
}

impl CostModel {
    /// Creates a model; `smoothing` is the weight of the newest observation
    /// (clamped into `(0, 1]`; 1.0 = keep only the last run).
    pub fn new(smoothing: f64) -> Self {
        CostModel {
            smoothing: smoothing.clamp(0.05, 1.0),
            estimates: HashMap::new(),
        }
    }

    /// Folds an observed run cost into the scenario's estimate.
    pub fn observe(&mut self, scenario: &str, cost: f64) {
        let cost = cost.max(0.0);
        match self.estimates.get_mut(scenario) {
            Some(est) => *est = (1.0 - self.smoothing) * *est + self.smoothing * cost,
            None => {
                self.estimates.insert(scenario.to_string(), cost);
            }
        }
    }

    /// The scenario's estimated cost, or `prior` before any observation.
    pub fn estimate(&self, scenario: &str, prior: f64) -> f64 {
        self.estimates.get(scenario).copied().unwrap_or(prior)
    }
}

/// How many times a request may be passed over by cheaper group members
/// before it jumps to the front of its group — bounds in-group waiting
/// under a sustained stream of cheap arrivals.
pub const MAX_BYPASSES: u32 = 8;

/// One queued run request.
#[derive(Debug, Clone)]
pub struct QueuedRequest {
    /// Ticket identifying the submission.
    pub ticket: u64,
    /// Registered scenario name.
    pub scenario: String,
    /// The scenario's cache namespace (the scheduling group).
    pub namespace: String,
    /// Arrival sequence number (monotonic per service).
    pub seq: u64,
    /// Estimated paid valuation cost at submission time.
    pub estimated_cost: f64,
    /// Times a later-arriving, cheaper request from the same group was
    /// popped ahead of this one (maintained by the scheduler; submit with
    /// 0). At [`MAX_BYPASSES`] the request stops being bypassable.
    pub bypassed: u32,
    /// When the request was enqueued (feeds the queue-wait histogram).
    pub submitted_at: Instant,
    /// The trace context the request arrived under: carried through the
    /// queue onto the executor thread so the job's spans (queue wait,
    /// run, scenario, waves) stitch into the submitter's trace.
    pub trace: TraceContext,
}

/// The namespace-aware cost priority queue.
///
/// `pop` selects by `(group arrival, overdue, estimated cost, arrival)`:
/// groups are served in arrival order, and inside a group the cheapest —
/// i.e. most cache-warming per unit of work — request runs first.
/// Starvation is bounded on both axes: across groups by the arrival-order
/// group priority, and *within* a group by aging — a request passed over
/// [`MAX_BYPASSES`] times becomes "overdue" and wins over any cheaper
/// later arrival. Selection is O(n) per pop, which is perfectly fine for
/// a queue of scenario-sized work items.
#[derive(Debug, Default)]
pub struct CostScheduler {
    pending: Vec<QueuedRequest>,
}

impl CostScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        CostScheduler::default()
    }

    /// Enqueues a request.
    pub fn push(&mut self, request: QueuedRequest) {
        self.pending.push(request);
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Removes and returns the next request to run.
    pub fn pop(&mut self) -> Option<QueuedRequest> {
        if self.pending.is_empty() {
            return None;
        }
        // Earliest arrival per namespace group.
        let mut group_arrival: HashMap<&str, u64> = HashMap::new();
        for req in &self.pending {
            let entry = group_arrival
                .entry(req.namespace.as_str())
                .or_insert(req.seq);
            *entry = (*entry).min(req.seq);
        }
        let best = self
            .pending
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let ga = group_arrival[a.namespace.as_str()];
                let gb = group_arrival[b.namespace.as_str()];
                // Overdue (fully aged) requests outrank cost within a group.
                let oa = a.bypassed < MAX_BYPASSES;
                let ob = b.bypassed < MAX_BYPASSES;
                ga.cmp(&gb)
                    .then(oa.cmp(&ob))
                    .then(
                        a.estimated_cost
                            .partial_cmp(&b.estimated_cost)
                            .unwrap_or(std::cmp::Ordering::Equal),
                    )
                    .then(a.seq.cmp(&b.seq))
            })
            .map(|(i, _)| i)?;
        let popped = self.pending.remove(best);
        // Age every earlier arrival of the same group that was passed over.
        for req in &mut self.pending {
            if req.namespace == popped.namespace && req.seq < popped.seq {
                req.bypassed = req.bypassed.saturating_add(1);
            }
        }
        Some(popped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(ticket: u64, scenario: &str, namespace: &str, seq: u64, cost: f64) -> QueuedRequest {
        QueuedRequest {
            ticket,
            scenario: scenario.to_string(),
            namespace: namespace.to_string(),
            seq,
            estimated_cost: cost,
            bypassed: 0,
            submitted_at: Instant::now(),
            trace: TraceContext::NONE,
        }
    }

    #[test]
    fn cheapest_run_in_a_namespace_goes_first() {
        let mut s = CostScheduler::new();
        s.push(req(1, "expensive", "pool", 0, 200.0));
        s.push(req(2, "cheap", "pool", 1, 20.0));
        s.push(req(3, "middle", "pool", 2, 80.0));
        let order: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|r| r.ticket).collect();
        assert_eq!(order, vec![2, 3, 1], "cheap warms the cache first");
    }

    #[test]
    fn namespace_groups_keep_arrival_fairness() {
        let mut s = CostScheduler::new();
        s.push(req(1, "a-big", "first", 0, 500.0));
        s.push(req(2, "b-tiny", "second", 1, 1.0));
        s.push(req(3, "a-small", "first", 2, 5.0));
        // Group "first" arrived first: its requests run (cheapest first)
        // before group "second", even though b-tiny is globally cheapest.
        let order: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|r| r.ticket).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }

    #[test]
    fn ties_break_by_arrival() {
        let mut s = CostScheduler::new();
        s.push(req(1, "x", "p", 0, 10.0));
        s.push(req(2, "y", "p", 1, 10.0));
        assert_eq!(s.pop().unwrap().ticket, 1);
        assert_eq!(s.pop().unwrap().ticket, 2);
        assert!(s.pop().is_none());
    }

    #[test]
    fn aging_bounds_in_group_starvation() {
        // An expensive request with a sustained stream of cheaper arrivals
        // in the same namespace: without aging it would wait forever.
        let mut s = CostScheduler::new();
        s.push(req(0, "expensive", "pool", 0, 500.0));
        let mut popped_at = None;
        for i in 1..=2 * MAX_BYPASSES as u64 + 4 {
            s.push(req(i, "cheap", "pool", i, 1.0));
            if s.pop().unwrap().ticket == 0 {
                popped_at = Some(i);
                break;
            }
        }
        let at = popped_at.expect("expensive request must eventually run");
        assert!(
            at <= MAX_BYPASSES as u64 + 1,
            "expensive ran after {at} pops (bound is {})",
            MAX_BYPASSES + 1
        );
    }

    #[test]
    fn cost_model_converges_towards_observations() {
        let mut m = CostModel::new(0.5);
        assert_eq!(m.estimate("s", 100.0), 100.0, "prior before observation");
        m.observe("s", 40.0);
        assert_eq!(
            m.estimate("s", 100.0),
            40.0,
            "first observation replaces prior"
        );
        m.observe("s", 20.0);
        assert!((m.estimate("s", 100.0) - 30.0).abs() < 1e-9);
        assert_eq!(m.estimate("t", 100.0), 100.0, "unobserved keeps prior");
    }

    #[test]
    fn smoothing_is_clamped() {
        let mut m = CostModel::new(42.0);
        m.observe("s", 10.0);
        m.observe("s", 0.0);
        // smoothing clamps to 1.0 ⇒ keep only the last run.
        assert_eq!(m.estimate("s", 5.0), 0.0);
    }
}
