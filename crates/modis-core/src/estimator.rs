//! Performance estimators `E` and the shared valuation context.
//!
//! The paper valuates tests `t = (M, D, P)` either by actual training /
//! inference (the oracle) or, by default, with a multi-output gradient
//! boosting surrogate trained on historically observed performance `T`
//! (MO-GBM, §2/§6). [`ValuationContext`] wraps a [`Substrate`] with
//!
//! * the test-record store `T` (bitmap → normalised performance vector),
//! * an optional MO-GBM surrogate taking over after an oracle warm-up,
//! * counters used by the efficiency experiments.
//!
//! A fitted surrogate is a pure function of its training matrix and
//! hyper-parameters, so the context does not call `MultiOutputGbm::fit`
//! itself when an [`EvaluationHook`] is installed: it asks the hook
//! ([`EvaluationHook::surrogate`]), which may hand back a model fitted
//! earlier on the same arguments. The context only counts which of the two
//! happened ([`ValuationStats::surrogate_fits`] /
//! [`ValuationStats::surrogate_reuses`]); either way it holds the same bits.
//!
//! An estimate is in turn a pure function of the model's bits and the
//! feature row's bits, and a substrate's row is a function of the state
//! (equal fingerprints, equal rows: [`Substrate::fingerprint`]). So the
//! model comes as a [`FittedSurrogate`], which remembers what it estimated
//! by substrate fingerprint and state: a warm request that reuses a model
//! asks it for states it has estimated before and gets the stored bits
//! back without featurising the state or walking a tree
//! ([`ValuationStats::estimate_reuses`]).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use modis_data::bitmap::BuildWordHasher;
use modis_data::StateBitmap;
/// The surrogate model and its hyper-parameters, re-exported because they
/// appear in [`FittedSurrogate`]'s and [`EvaluationHook::surrogate`]'s
/// signatures.
pub use modis_ml::gbm::{GbmParams, MultiOutputGbm};

use crate::substrate::Substrate;

/// How many estimates one [`FittedSurrogate`] remembers. Past it a new state
/// is still predicted exactly, only not remembered: the table stops growing
/// and never evicts. A constant, not a knob: one default-budget run
/// valuates at most 200 states, and on `bench_e2e`'s warm workloads no model
/// is asked for more than 188 distinct states. Measured with a counting
/// allocator, an estimate of a paper-task shape (a state of ≤ 128 units,
/// two to five outputs) holds 130–154 bytes with its table slot, so a full
/// table is 67–79 KB and the engine's 128-model memo of full tables ≈ 10 MB.
pub(crate) const ESTIMATE_TABLE_CAPACITY: usize = 512;

/// A fitted MO-GBM surrogate `E` and the estimates it has made.
///
/// [`FittedSurrogate::predict`] answers a state it has estimated before from
/// its table, on the bits [`MultiOutputGbm::predict_one`] returned then for
/// the state's feature row, and featurises the state and asks the model
/// otherwise; so whether a state was remembered changes no result and no
/// count but [`ValuationStats::estimate_reuses`]. The table is keyed by the
/// substrate's fingerprint and the state (the engine hands one model to every
/// substrate that asked for its training matrix) and hashed with the unkeyed
/// [`modis_data::bitmap::WordHasher`]: its keys are states the local search
/// generated, never bytes a peer sent. It lives and dies with the model, in
/// process memory only, never exported, shipped or snapshotted.
pub struct FittedSurrogate {
    model: MultiOutputGbm,
    estimates: Mutex<Estimates>,
}

/// A [`FittedSurrogate`]'s estimates, by substrate fingerprint and state.
type Estimates = HashMap<(u64, StateBitmap), Box<[f64]>, BuildWordHasher>;

impl FittedSurrogate {
    /// Fits the model ([`MultiOutputGbm::fit`]); the table starts empty.
    pub fn fit(x: &[Vec<f64>], y: &[Vec<f64>], params: GbmParams) -> Self {
        FittedSurrogate {
            model: MultiOutputGbm::fit(x, y, params),
            estimates: Mutex::default(),
        }
    }

    /// The fitted model.
    pub fn model(&self) -> &MultiOutputGbm {
        &self.model
    }

    /// The estimate for `state` of the substrate whose fingerprint is
    /// `fingerprint`, and the feature row `features` computed for it when the
    /// table did not hold the state (`None`: the table answered). Either way
    /// the bits are `model().predict_one(&features())`'s; a table hit calls
    /// no `features` and, for a state of ≤ 128 units, allocates nothing but
    /// the returned vector.
    pub fn predict(
        &self,
        fingerprint: u64,
        state: &StateBitmap,
        features: impl FnOnce() -> Vec<f64>,
    ) -> (Vec<f64>, Option<Vec<f64>>) {
        let key = (fingerprint, state.clone());
        if let Some(estimate) = self.estimates.lock().get(&key) {
            return (estimate.to_vec(), None);
        }
        // Featurised and predicted outside the lock; two threads that miss
        // on one state at once both predict it, to the same bits.
        let row = features();
        let estimate = self.model.predict_one(&row);
        let mut table = self.estimates.lock();
        if table.len() < ESTIMATE_TABLE_CAPACITY {
            table.insert(key, estimate.as_slice().into());
        }
        (estimate, Some(row))
    }
}

/// An oracle evaluation exchanged through an [`EvaluationHook`].
#[derive(Debug, Clone, PartialEq)]
pub struct SharedEvaluation {
    /// Raw metric values from the oracle.
    pub raw: Vec<f64>,
    /// Normalised performance vector.
    pub perf: Vec<f64>,
}

/// External evaluation interceptor, consulted before the oracle trains a
/// model and notified after every fresh oracle valuation.
///
/// This is the seam the execution engine (`modis-engine`) plugs its shared,
/// cross-scenario evaluation cache into: repeated states — common across
/// bi-directional passes and across scenarios over the same pool — are
/// scored once, and subsequent runs load the recorded result. Implementors
/// must be thread-safe; lookups and records may arrive concurrently.
pub trait EvaluationHook: Send + Sync {
    /// Returns a previously recorded oracle evaluation of `bitmap`, if any.
    fn lookup(&self, bitmap: &StateBitmap) -> Option<SharedEvaluation>;

    /// Records a fresh oracle evaluation of `bitmap`.
    fn record(&self, bitmap: &StateBitmap, evaluation: &SharedEvaluation);

    /// The MO-GBM surrogate for training matrix `x → y`, and whether it was
    /// reused (`true`) rather than fitted by this call (`false`). The
    /// default fits. An implementor may return a model it fitted earlier
    /// only when every argument — each hyper-parameter, the shapes, every
    /// cell on `f64::to_bits` — was equal: a fit draws no random number and
    /// sums in a fixed order, so such a model is bit-equal to a new fit,
    /// and the caller's results must not depend on which of the two
    /// happened. A reused model brings the estimates it has made with it.
    fn surrogate(
        &self,
        x: &[Vec<f64>],
        y: &[Vec<f64>],
        params: GbmParams,
    ) -> (Arc<FittedSurrogate>, bool) {
        (Arc::new(FittedSurrogate::fit(x, y, params)), false)
    }
}

/// How the search valuates states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorMode {
    /// Always train the real model (exact but slow).
    Oracle,
    /// Oracle for the first `warmup` states, then the MO-GBM surrogate. A
    /// search adds no oracle-backed record past the warm-up until
    /// `finalize_result`, so it runs on its warm-up fit (ROADMAP item 17(b)).
    Surrogate {
        /// Number of oracle valuations before the surrogate takes over.
        warmup: usize,
        /// Refit once this many oracle-backed records follow the last fit.
        refresh: usize,
    },
}

impl Default for EstimatorMode {
    fn default() -> Self {
        EstimatorMode::Surrogate {
            warmup: 12,
            refresh: 8,
        }
    }
}

/// One valuated test `t ∈ T`.
#[derive(Debug, Clone)]
pub struct TestRecord {
    /// State bitmap of the valuated dataset.
    pub bitmap: StateBitmap,
    /// Normalised performance vector `t.P`.
    pub perf: Vec<f64>,
    /// Raw metric values.
    pub raw: Vec<f64>,
    /// Whether the record came from the oracle (vs. the surrogate).
    pub oracle: bool,
}

/// Counters exposed for the efficiency experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValuationStats {
    /// Number of oracle (real training) valuations.
    pub oracle_calls: usize,
    /// Number of surrogate valuations.
    pub surrogate_calls: usize,
    /// Number of cache hits.
    pub cache_hits: usize,
    /// Number of oracle valuations answered by the [`EvaluationHook`]
    /// (shared cross-run cache) instead of actual training.
    pub shared_hits: usize,
    /// Number of surrogate (re)fits that ran `MultiOutputGbm::fit`.
    pub surrogate_fits: usize,
    /// Number of surrogate (re)fits the [`EvaluationHook`] answered with a
    /// model fitted earlier on the same training matrix.
    pub surrogate_reuses: usize,
    /// Number of surrogate valuations ([`Self::surrogate_calls`]) the
    /// model's [`FittedSurrogate`] answered from its table: the same model
    /// had estimated the same state of the same substrate before.
    pub estimate_reuses: usize,
}

/// An oracle valuation made ahead of the moment the search valuates its
/// state (`ValuationContext::train_ahead`); it waits, out of `T`, until
/// [`ValuationContext::valuate_oracle`] commits it.
pub(crate) enum Ahead {
    /// The [`EvaluationHook`]'s recorded evaluation.
    Shared(SharedEvaluation),
    /// Raw metrics the substrate's oracle trained.
    Trained(Vec<f64>),
}

#[derive(Default)]
struct Inner {
    records: Vec<TestRecord>,
    /// `Substrate::state_features` of `records[i]`'s state, once something
    /// has needed it: a surrogate prediction the model's table did not
    /// answer, or the first refit after the record became oracle-backed. A
    /// state's features never change, so a refit computes only the rows it
    /// has not seen.
    features: Vec<Option<Vec<f64>>>,
    /// Index of `records` by state. Hashed with
    /// [`modis_data::bitmap::WordHasher`]: only the search inserts here (a
    /// hook's evaluations enter under the state the search asked for).
    by_bitmap: HashMap<StateBitmap, usize, BuildWordHasher>,
    /// Oracle valuations made ahead, by state; empty between a search's
    /// steps.
    parked: HashMap<StateBitmap, Ahead, BuildWordHasher>,
    /// The surrogate, with the substrate's fingerprint its table is asked
    /// under, read once at the first fit.
    surrogate: Option<(Arc<FittedSurrogate>, u64)>,
    records_at_last_fit: usize,
    oracle_records: usize,
    stats: ValuationStats,
}

impl Inner {
    /// The surrogate and the fingerprint once the warm-up is over. It counts
    /// oracle-backed *records*, so a shared-cache hit advances it like a
    /// training and warm and cold runs switch to the surrogate together.
    fn active_surrogate(&self, mode: EstimatorMode) -> Option<&(Arc<FittedSurrogate>, u64)> {
        match mode {
            EstimatorMode::Surrogate { warmup, .. } if self.oracle_records >= warmup => {
                self.surrogate.as_ref()
            }
            _ => None,
        }
    }

    /// Inserts or upgrades an oracle-backed record for `bitmap`; an upgraded
    /// record keeps any feature row its surrogate prediction computed.
    fn commit_oracle(&mut self, bitmap: &StateBitmap, perf: &[f64], raw: Vec<f64>) {
        let record = TestRecord {
            bitmap: bitmap.clone(),
            perf: perf.to_vec(),
            raw,
            oracle: true,
        };
        match self.by_bitmap.get(bitmap).copied() {
            Some(existing) => {
                if !self.records[existing].oracle {
                    self.oracle_records += 1;
                }
                self.records[existing] = record;
            }
            None => {
                let idx = self.records.len();
                self.records.push(record);
                self.features.push(None);
                self.by_bitmap.insert(bitmap.clone(), idx);
                self.oracle_records += 1;
            }
        }
    }
}

/// Shared valuation context: the test set `T`, the estimator and counters.
pub struct ValuationContext<'a, S: Substrate + ?Sized> {
    substrate: &'a S,
    mode: EstimatorMode,
    hook: Option<Arc<dyn EvaluationHook>>,
    inner: Mutex<Inner>,
}

impl<'a, S: Substrate + ?Sized> ValuationContext<'a, S> {
    /// Creates a context over a substrate.
    pub fn new(substrate: &'a S, mode: EstimatorMode) -> Self {
        ValuationContext {
            substrate,
            mode,
            hook: None,
            inner: Mutex::default(),
        }
    }

    /// Installs an [`EvaluationHook`] (e.g. the engine's shared cache);
    /// builder-style.
    pub fn with_hook(mut self, hook: Arc<dyn EvaluationHook>) -> Self {
        self.hook = Some(hook);
        self
    }

    /// The wrapped substrate.
    pub fn substrate(&self) -> &S {
        self.substrate
    }

    /// Valuates a state, returning the normalised performance vector.
    ///
    /// Cached records are returned directly ("if t is already in T, it
    /// directly loads t.P", §3).
    pub fn valuate(&self, bitmap: &StateBitmap) -> Vec<f64> {
        let mut inner = self.inner.lock();
        if let Some(&idx) = inner.by_bitmap.get(bitmap) {
            inner.stats.cache_hits += 1;
            return inner.records[idx].perf.clone();
        }
        let Some((model, fingerprint)) = inner.active_surrogate(self.mode) else {
            drop(inner);
            return self.valuate_oracle(bitmap);
        };
        let (mut perf, row) = model.predict(*fingerprint, bitmap, || {
            self.substrate.state_features(bitmap)
        });
        perf.iter_mut().for_each(|p| *p = p.clamp(1e-6, 1.0));
        inner.stats.surrogate_calls += 1;
        inner.stats.estimate_reuses += usize::from(row.is_none());
        let idx = inner.records.len();
        inner.records.push(TestRecord {
            bitmap: bitmap.clone(),
            perf: perf.clone(),
            raw: Vec::new(),
            oracle: false,
        });
        inner.features.push(row);
        inner.by_bitmap.insert(bitmap.clone(), idx);
        perf
    }

    /// Forces an oracle valuation (used for final reporting of skyline
    /// members, mirroring the paper's "actual model inference test").
    ///
    /// When an [`EvaluationHook`] is installed, a recorded evaluation of the
    /// same state is loaded instead of retraining; fresh valuations are
    /// published back through the hook. A valuation the context made ahead
    /// for this state (`train_ahead`) is committed here, as if it were made
    /// now.
    pub fn valuate_oracle(&self, bitmap: &StateBitmap) -> Vec<f64> {
        let ahead = self.inner.lock().parked.remove(bitmap);
        let shared = match ahead {
            Some(Ahead::Trained(raw)) => return self.record_oracle(bitmap, raw),
            Some(Ahead::Shared(hit)) => Some(hit),
            None => self.hook.as_ref().and_then(|h| h.lookup(bitmap)),
        };
        if let Some(hit) = shared {
            let mut inner = self.inner.lock();
            inner.stats.shared_hits += 1;
            inner.commit_oracle(bitmap, &hit.perf, hit.raw);
            drop(inner);
            self.maybe_refit();
            return hit.perf;
        }
        self.record_oracle(bitmap, self.substrate.evaluate_raw(bitmap))
    }

    /// The installed [`EvaluationHook`], if any; a wave probes it before
    /// training.
    pub(crate) fn hook(&self) -> Option<&Arc<dyn EvaluationHook>> {
        self.hook.as_ref()
    }

    /// The estimator mode the context was created with.
    pub fn mode(&self) -> EstimatorMode {
        self.mode
    }

    /// Holds oracle valuations made ahead until [`Self::valuate_oracle`]
    /// asks for their states; nothing else reads them.
    pub(crate) fn park<'s>(&self, ahead: impl IntoIterator<Item = (&'s StateBitmap, Ahead)>) {
        let mut inner = self.inner.lock();
        for (state, valuation) in ahead {
            inner.parked.insert(state.clone(), valuation);
        }
    }

    /// How many valuations made ahead wait for their state's valuation.
    pub(crate) fn parked(&self) -> usize {
        self.inner.lock().parked.len()
    }

    /// Of `states`, named in the order a one-at-a-time search valuates
    /// them, those it would train with the oracle while `T` holds fewer
    /// than `max_states` records, less those already made ahead. A state
    /// `T` holds is a memo hit and skipped; every other state takes a
    /// record, and the oracle's only until the surrogate takes over (none
    /// in its phase). `states` is read under the context's lock, so it must
    /// not call into the context.
    pub(crate) fn oracle_states_ahead<'s>(
        &self,
        states: impl IntoIterator<Item = &'s StateBitmap>,
        max_states: usize,
    ) -> Vec<&'s StateBitmap> {
        let inner = self.inner.lock();
        if inner.active_surrogate(self.mode).is_some() {
            return Vec::new();
        }
        let oracle_left = match self.mode {
            EstimatorMode::Oracle => usize::MAX,
            // `max(1)`: with no model fitted yet the next state is the
            // oracle's even when the warm-up count is met.
            EstimatorMode::Surrogate { warmup, .. } => {
                warmup.saturating_sub(inner.oracle_records).max(1)
            }
        };
        let mut left = max_states
            .saturating_sub(inner.records.len())
            .min(oracle_left);
        let mut ahead = Vec::new();
        for state in states {
            if left == 0 {
                break;
            }
            if inner.by_bitmap.contains_key(state) {
                continue;
            }
            left -= 1;
            if !inner.parked.contains_key(state) {
                ahead.push(state);
            }
        }
        ahead
    }

    /// Commits an oracle evaluation the substrate trained (here, or ahead
    /// on a wave's worker thread): it is published to the hook, the record
    /// enters `T` oracle-backed, counters advance, and the surrogate refit
    /// schedule is consulted.
    ///
    /// Returns the normalised performance vector.
    fn record_oracle(&self, bitmap: &StateBitmap, raw: Vec<f64>) -> Vec<f64> {
        let perf = self.substrate.measures().normalise(&raw);
        if let Some(hook) = &self.hook {
            hook.record(
                bitmap,
                &SharedEvaluation {
                    raw: raw.clone(),
                    perf: perf.clone(),
                },
            );
        }
        let mut inner = self.inner.lock();
        inner.stats.oracle_calls += 1;
        inner.commit_oracle(bitmap, &perf, raw);
        drop(inner);
        self.maybe_refit();
        perf
    }

    /// Raw metric values for a state, valuating with the oracle if needed.
    pub(crate) fn raw_for(&self, bitmap: &StateBitmap) -> Vec<f64> {
        let oracle_raw = || {
            let inner = self.inner.lock();
            let record = inner.by_bitmap.get(bitmap).map(|&idx| &inner.records[idx]);
            record.filter(|r| r.oracle).map(|r| r.raw.clone())
        };
        oracle_raw().unwrap_or_else(|| {
            self.valuate_oracle(bitmap);
            oracle_raw().unwrap_or_default()
        })
    }

    /// Number of valuated states (tests in `T`).
    pub(crate) fn num_valuated(&self) -> usize {
        self.inner.lock().records.len()
    }

    /// Snapshot of the valuation counters.
    pub fn stats(&self) -> ValuationStats {
        self.inner.lock().stats
    }

    /// Snapshot of all test records.
    pub fn records(&self) -> Vec<TestRecord> {
        self.inner.lock().records.clone()
    }

    /// How many records of `T` are oracle-backed. Records are only added or
    /// upgraded to oracle, so while this count stands, so does
    /// [`Self::measure_series`].
    pub(crate) fn oracle_records(&self) -> usize {
        self.inner.lock().oracle_records
    }

    /// Per-measure series of the oracle-valuated performance values, in
    /// record order, used to maintain the correlation graph `G_C`.
    pub(crate) fn measure_series(&self) -> Vec<Vec<f64>> {
        let inner = self.inner.lock();
        let m = self.substrate.measures().len();
        let mut series = vec![Vec::new(); m];
        for rec in inner.records.iter().filter(|r| r.oracle) {
            for (i, &v) in rec.perf.iter().enumerate().take(m) {
                series[i].push(v);
            }
        }
        series
    }

    fn maybe_refit(&self) {
        let (warmup, refresh) = match self.mode {
            EstimatorMode::Oracle => return,
            EstimatorMode::Surrogate { warmup, refresh } => (warmup, refresh),
        };
        let mut inner = self.inner.lock();
        // Early-outs use the maintained counter — this runs after *every*
        // oracle commit, so scanning the record store here would make the
        // commit path quadratic.
        let n = inner.oracle_records;
        if n < warmup {
            return;
        }
        if inner.surrogate.is_some() && n < inner.records_at_last_fit + refresh {
            return;
        }
        let Inner {
            records, features, ..
        } = &mut *inner;
        let (mut x, mut y) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (record, row) in records.iter().zip(features.iter_mut()) {
            if record.oracle {
                let row = row.get_or_insert_with(|| self.substrate.state_features(&record.bitmap));
                x.push(row.clone());
                y.push(record.perf.clone());
            }
        }
        let params = GbmParams {
            n_estimators: 30,
            ..GbmParams::default()
        };
        let (model, reused) = match &self.hook {
            Some(hook) => hook.surrogate(&x, &y, params),
            None => (Arc::new(FittedSurrogate::fit(&x, &y, params)), false),
        };
        if reused {
            inner.stats.surrogate_reuses += 1;
        } else {
            inner.stats.surrogate_fits += 1;
        }
        let fingerprint = match &inner.surrogate {
            Some((_, fingerprint)) => *fingerprint,
            None => self.substrate.fingerprint(),
        };
        inner.surrogate = Some((model, fingerprint));
        inner.records_at_last_fit = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::mock::MockSubstrate;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::sync::Barrier;

    #[test]
    fn oracle_mode_always_calls_substrate() {
        let sub = MockSubstrate::new(6);
        let ctx = ValuationContext::new(&sub, EstimatorMode::Oracle);
        let full = StateBitmap::full(6);
        let p1 = ctx.valuate(&full);
        let p2 = ctx.valuate(&full);
        assert_eq!(p1, p2);
        let stats = ctx.stats();
        assert_eq!(stats.oracle_calls, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(ctx.num_valuated(), 1);
    }

    #[test]
    fn surrogate_takes_over_after_warmup() {
        let sub = MockSubstrate::new(8);
        let ctx = ValuationContext::new(
            &sub,
            EstimatorMode::Surrogate {
                warmup: 5,
                refresh: 100,
            },
        );
        // Warm up with distinct states.
        for i in 0..5 {
            ctx.valuate(&StateBitmap::full(8).flipped(i));
        }
        assert_eq!(ctx.stats().oracle_calls, 5);
        // New state should now be estimated, not trained.
        let est = ctx.valuate(&StateBitmap::full(8).flipped(6).flipped(7));
        assert_eq!(est.len(), 2);
        assert!(est.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert_eq!(ctx.stats().surrogate_calls, 1);
        assert_eq!(ctx.stats().oracle_calls, 5);
    }

    #[test]
    fn raw_for_upgrades_surrogate_records() {
        let sub = MockSubstrate::new(6);
        let ctx = ValuationContext::new(
            &sub,
            EstimatorMode::Surrogate {
                warmup: 2,
                refresh: 100,
            },
        );
        for i in 0..3 {
            ctx.valuate(&StateBitmap::full(6).flipped(i));
        }
        let target = StateBitmap::full(6).flipped(4).flipped(5);
        let _est = ctx.valuate(&target);
        let raw = ctx.raw_for(&target);
        assert_eq!(raw.len(), 2);
        // The record is now oracle-backed.
        let rec = ctx
            .records()
            .into_iter()
            .find(|r| r.bitmap == target)
            .unwrap();
        assert!(rec.oracle);
    }

    /// Delegates to a `MockSubstrate` and counts `state_features` calls.
    struct CountingSubstrate {
        inner: MockSubstrate,
        feature_calls: Mutex<HashMap<StateBitmap, usize>>,
    }

    impl Substrate for CountingSubstrate {
        fn num_units(&self) -> usize {
            self.inner.num_units()
        }
        fn unit_label(&self, unit: usize) -> String {
            self.inner.unit_label(unit)
        }
        fn backward_start(&self) -> StateBitmap {
            self.inner.backward_start()
        }
        fn measures(&self) -> &crate::measure::MeasureSet {
            self.inner.measures()
        }
        fn evaluate_raw(&self, bitmap: &StateBitmap) -> Vec<f64> {
            self.inner.evaluate_raw(bitmap)
        }
        fn state_features(&self, bitmap: &StateBitmap) -> Vec<f64> {
            *self.feature_calls.lock().entry(bitmap.clone()).or_insert(0) += 1;
            self.inner.state_features(bitmap)
        }
        fn artifact_size(&self, bitmap: &StateBitmap) -> (usize, usize) {
            self.inner.artifact_size(bitmap)
        }
    }

    /// Refits compute a record's feature row once, however many refits see
    /// the record, and a surrogate-valuated state that `raw_for` upgrades
    /// keeps the row its prediction computed.
    #[test]
    fn refits_compute_each_feature_row_once() {
        let sub = CountingSubstrate {
            inner: MockSubstrate::new(8),
            feature_calls: Mutex::new(HashMap::new()),
        };
        let ctx = ValuationContext::new(
            &sub,
            EstimatorMode::Surrogate {
                warmup: 3,
                refresh: 2,
            },
        );
        let full = StateBitmap::full(8);
        // Warm-up and four refreshes on oracle valuations …
        for i in 0..8 {
            ctx.valuate_oracle(&full.flipped(i));
        }
        // … a surrogate valuation, upgraded, and two more refreshes.
        let estimated = full.flipped(0).flipped(1);
        ctx.valuate(&estimated);
        assert_eq!(ctx.stats().surrogate_calls, 1);
        ctx.raw_for(&estimated);
        for i in 2..6 {
            ctx.valuate_oracle(&full.flipped(0).flipped(i));
        }
        assert_eq!(ctx.records().iter().filter(|r| r.oracle).count(), 13);
        let calls = sub.feature_calls.lock();
        assert_eq!(calls.len(), 13, "every oracle record was featurised");
        assert!(calls.values().all(|&n| n == 1), "{calls:?}");
    }

    #[derive(Default)]
    struct MapHook {
        map: Mutex<HashMap<StateBitmap, SharedEvaluation>>,
        lookups: Mutex<usize>,
    }

    impl EvaluationHook for MapHook {
        fn lookup(&self, bitmap: &StateBitmap) -> Option<SharedEvaluation> {
            *self.lookups.lock() += 1;
            self.map.lock().get(bitmap).cloned()
        }

        fn record(&self, bitmap: &StateBitmap, evaluation: &SharedEvaluation) {
            self.map.lock().insert(bitmap.clone(), evaluation.clone());
        }
    }

    #[test]
    fn hook_short_circuits_repeat_oracle_valuations() {
        let sub = MockSubstrate::new(6);
        let hook = Arc::new(MapHook::default());
        let full = StateBitmap::full(6);

        let first = ValuationContext::new(&sub, EstimatorMode::Oracle).with_hook(hook.clone());
        let p1 = first.valuate(&full);
        assert_eq!(first.stats().oracle_calls, 1);
        assert_eq!(first.stats().shared_hits, 0);

        // A second context over the same hook loads the recorded evaluation
        // instead of re-training.
        let second = ValuationContext::new(&sub, EstimatorMode::Oracle).with_hook(hook.clone());
        let p2 = second.valuate(&full);
        assert_eq!(p1, p2);
        assert_eq!(second.stats().oracle_calls, 0);
        assert_eq!(second.stats().shared_hits, 1);
        assert_eq!(second.raw_for(&full).len(), 2);
        assert!(*hook.lookups.lock() >= 2);
    }

    /// A 10-estimator surrogate over four features, two outputs.
    fn fitted(x: &[Vec<f64>]) -> FittedSurrogate {
        let y: Vec<Vec<f64>> = x
            .iter()
            .map(|r| vec![r[0] - 0.5 * r[1], r[2] * r[3]])
            .collect();
        let params = GbmParams {
            n_estimators: 10,
            ..GbmParams::default()
        };
        FittedSurrogate::fit(x, &y, params)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|c| c.to_bits()).collect()
    }

    /// The state of 16 units whose word is `i`, and the row a substrate of
    /// fingerprint `fingerprint` computes for it.
    fn keyed(fingerprint: u64, i: u64) -> (StateBitmap, Vec<f64>) {
        let w = i as f64;
        let row = vec![fingerprint as f64, w * 0.1, (w * 0.37).sin(), -0.05 * w];
        (StateBitmap::from_words(vec![i], 16).unwrap(), row)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `FittedSurrogate::predict` answers every state on `predict_one`'s
        /// bits for the state's row: asked first or again, under two
        /// fingerprints (two keys, each answered for itself), and with the
        /// table at its cap. It featurises exactly when it reports a miss,
        /// which is exactly when a model of the table (a miss inserts while
        /// below the cap) lacks the key, and the table never outgrows the cap.
        #[test]
        fn predict_returns_predict_ones_bits_first_repeated_and_past_the_cap(
            x in prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 4), 3..16),
            probes in prop::collection::vec(0usize..48, 1..16),
            fill in 0usize..3,
        ) {
            let surrogate = fitted(&x);
            let fill = [0, ESTIMATE_TABLE_CAPACITY - 3, ESTIMATE_TABLE_CAPACITY][fill];
            // A probe names fingerprint 0 or 1 and one of 24 states; the
            // filler states are under fingerprint 2.
            let probes = probes.iter().map(|&p| ((p % 2) as u64, (p / 2) as u64));
            let keys = (0..fill as u64).map(|i| (2, i));
            let mut table = HashSet::new();
            for key in keys.chain(probes.flat_map(|probe| [probe, probe])) {
                let (state, row) = keyed(key.0, key.1);
                let (estimate, computed) = surrogate.predict(key.0, &state, || row.clone());
                prop_assert_eq!(bits(&estimate), bits(&surrogate.model().predict_one(&row)));
                let hit = table.contains(&key);
                prop_assert_eq!(computed.map(|r| bits(&r)), (!hit).then(|| bits(&row)));
                if !hit && table.len() < ESTIMATE_TABLE_CAPACITY {
                    table.insert(key);
                }
                prop_assert_eq!(surrogate.estimates.lock().len(), table.len());
            }
        }
    }

    /// Eight threads released together estimate overlapping states, each
    /// twice: every answer carries `predict_one`'s bits, and the table ends
    /// up holding every distinct state once.
    #[test]
    fn racing_threads_all_get_predict_ones_bits() {
        let x: Vec<Vec<f64>> = (0..12)
            .map(|i| (0..4).map(|j| keyed(j, i).1[j as usize]).collect())
            .collect();
        let surrogate = fitted(&x);
        let barrier = Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let (surrogate, barrier) = (&surrogate, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let states = t * 4..t * 4 + 24;
                    for i in states.clone().chain(states) {
                        let (state, row) = keyed(0, i);
                        let (estimate, _) = surrogate.predict(0, &state, || row.clone());
                        let direct = surrogate.model().predict_one(&row);
                        assert_eq!(bits(&estimate), bits(&direct), "state {i}");
                    }
                });
            }
        });
        assert_eq!(surrogate.estimates.lock().len(), 52, "0..52, once each");
    }

    #[test]
    fn measure_series_tracks_oracle_records() {
        let sub = MockSubstrate::new(4);
        let ctx = ValuationContext::new(&sub, EstimatorMode::Oracle);
        ctx.valuate(&StateBitmap::full(4));
        ctx.valuate(&StateBitmap::full(4).flipped(0));
        let series = ctx.measure_series();
        assert_eq!(ctx.oracle_records(), 2);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].len(), 2);
    }
}
