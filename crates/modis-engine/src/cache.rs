//! The engine's shared, sharded evaluation cache.
//!
//! Oracle valuations dominate MODis wall-clock time: every state valuation
//! materialises an artefact and trains a model. Bi-directional passes and
//! scenarios that search the same pool under different configurations
//! revisit many states, so the engine keeps one process-wide store of
//! `(namespace, state) → evaluation` behind an [`EvaluationHook`] and hands
//! each scenario a namespaced handle. Sharding keeps lock contention low
//! when many worker threads probe the cache concurrently.
//!
//! Each shard is a bounded [`SieveCache`] ([`SharedEvalCache::with_capacity`],
//! [`crate::EngineConfig::cache_capacity`]) instead of a store that grows
//! over long suites: a full shard picks its victim by SIEVE and admits the
//! newcomer only if the victim was never looked up or the newcomer was
//! looked up more often (TinyLFU). An evicted or unadmitted state is
//! re-trained on its next visit; both count in [`CacheStats::evictions`].
//!
//! Namespaces isolate substrates from one another: a `StateBitmap` only
//! identifies a dataset *relative to* the substrate that produced it, so two
//! scenarios may share a namespace only when they search the same substrate
//! with the same task (measures included). Scenarios that must not share
//! simply use distinct namespace strings.
//!
//! Beside the shards the cache owns the **fitted-surrogate memo**: the
//! MO-GBM models `ValuationContext` asked for through
//! [`EvaluationHook::surrogate`], keyed by the exact content of the fit's
//! arguments (every hyper-parameter, the shapes and the `to_bits` of every
//! cell, compared by equality — a digest that collided would hand back a
//! wrong model silently). A scenario that runs again over a warm
//! evaluation cache loads the same oracle records in the same order, builds
//! the same training matrix, and gets the model back instead of refitting
//! it. The key holds no namespace and no fingerprint: equal matrices fit
//! equal models whatever produced them. The memo lives and dies with the
//! process: it is never exported, shipped or snapshotted (a model is two
//! orders of magnitude larger than the evaluations it was fitted on, and
//! one fit rebuilds it).
//!
//! A memo entry is a [`FittedSurrogate`]: the model plus the estimates it
//! has made, keyed by substrate fingerprint and state. A warm scenario
//! that gets its model back asks it for the states it asked for last time,
//! and the table answers them without featurising a state or walking a
//! tree (`ValuationStats::estimate_reuses`). The estimates live and die with
//! their model — evicted with it, never exported, shipped or snapshotted —
//! and a refitted model starts with an empty table.
//!
//! Every entry recorded takes the next number of one cache-wide counter,
//! its stamp, so an export from a [`Cursor`] holds only what came after.

use std::fmt;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use modis_core::codec::{fnv1a, FNV_OFFSET_BASIS};
use modis_core::estimator::{EvaluationHook, FittedSurrogate, GbmParams, SharedEvaluation};
use modis_core::sieve_cache::SieveCache;
use modis_core::substrate::SubstrateCacheStats;
use modis_data::StateBitmap;

/// Counters describing cache effectiveness. The first four fields describe
/// the engine's shared evaluation cache (merged across its shards); the
/// `memo_*` fields aggregate the per-substrate raw-metrics memos of every
/// substrate the engine has executed, so one struct answers "how much
/// evaluated state is this process holding, and is it paying off".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the shared cache.
    pub hits: usize,
    /// Lookups that missed.
    pub misses: usize,
    /// Evaluations currently stored in the shared cache.
    pub entries: usize,
    /// SIEVE victims, plus newcomers TinyLFU admission dropped at once.
    pub evictions: usize,
    /// Entries across the substrate-level memos of every substrate the
    /// engine has run (0 until a scenario executes).
    pub memo_entries: usize,
    /// Evictions across those substrate memos.
    pub memo_evictions: usize,
}

impl CacheStats {
    /// Folds a substrate memo's counters into the aggregate view.
    pub(crate) fn absorb_memo(&mut self, memo: SubstrateCacheStats) {
        self.memo_entries += memo.entries;
        self.memo_evictions += memo.evictions;
    }

    /// Hit rate of the shared cache in `[0, 1]` (0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

type CacheKey = (u64, StateBitmap);

struct Shard {
    /// Each evaluation beside its stamp ([`SharedEvalCache::stamps`]).
    map: Mutex<SieveCache<CacheKey, (SharedEvaluation, u64)>>,
}

/// A position in a [`SharedEvalCache`]'s append order, written
/// `<instance>-<seq>` in hex. A cursor another cache minted (another
/// process, or this one restarted) reads as the start, as does `0`, the
/// default. Opaque outside the engine; cursors of one cache order as its
/// appends (`seq` first), across caches the order means nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cursor {
    seq: u64,
    instance: u64,
}

impl fmt::Display for Cursor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.instance, self.seq) {
            (0, 0) => f.write_str("0"),
            (instance, seq) => write!(f, "{instance:x}-{seq:x}"),
        }
    }
}

impl FromStr for Cursor {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let hex = |t: &str| u64::from_str_radix(t, 16).ok();
        match s.split_once('-') {
            Some((instance, seq)) => hex(instance).zip(hex(seq)),
            None => (s == "0").then_some((0, 0)),
        }
        .map(|(instance, seq)| Cursor { seq, instance })
        .ok_or("a cursor is 0 or <instance>-<seq> in hex")
    }
}

/// How many fitted surrogates a [`SharedEvalCache`] keeps. A constant, not
/// a knob: a paper scenario fits one model per run (12 warm-up records; a
/// second fit needs 20), so this holds the 16 scenarios of `bench_e2e`'s
/// warm workloads eight times over, and a model past it is one ≈ 1.3 ms
/// fit away. Measured with a counting allocator, a 30-estimator model on a
/// 12 × 24 matrix is ≈ 27 KB per output (boxed nodes and a per-tree
/// importance vector; 81 KB for three measures, 137 KB for five) and its
/// key ≈ 3 KB: a full memo is at most ≈ 18 MB, plus ≈ 10 MB if every model
/// also filled its estimate table (`ESTIMATE_TABLE_CAPACITY`).
const SURROGATE_MEMO_CAPACITY: usize = 128;

/// Everything `MultiOutputGbm::fit` reads, as words: every hyper-parameter,
/// the row counts, then each row of `x` and of `y` as its width followed by
/// the `to_bits` of its cells. The encoding is injective, so equal keys are
/// equal arguments and (a fit draws no random number and sums in a fixed
/// order) bit-equal models. `-0.0` and `0.0`, and two NaN payloads, are
/// different keys: the split kernel may not tell them apart, the key does
/// not assume so. A hyper-parameter added to `GbmParams`/`TreeParams` must
/// be added here; the test that changes each one names every field, so it
/// stops compiling until that is done.
fn surrogate_key(x: &[Vec<f64>], y: &[Vec<f64>], params: GbmParams) -> Vec<u64> {
    let words = |m: &[Vec<f64>]| m.iter().map(|row| row.len() + 1).sum::<usize>();
    let mut key = Vec::with_capacity(9 + words(x) + words(y));
    key.extend([
        params.n_estimators as u64,
        params.learning_rate.to_bits(),
        params.tree.max_depth as u64,
        params.tree.min_samples_split as u64,
        params.tree.min_samples_leaf as u64,
        params.tree.max_thresholds as u64,
        params.tree.criterion as u64,
        x.len() as u64,
        y.len() as u64,
    ]);
    for row in x.iter().chain(y) {
        key.push(row.len() as u64);
        key.extend(row.iter().map(|v| v.to_bits()));
    }
    key
}

/// A process-wide evaluation cache, sharded by key hash.
///
/// Create once per [`crate::Engine`] (or share one across engines), then
/// obtain per-scenario [`CacheHandle`]s via [`SharedEvalCache::handle`].
pub struct SharedEvalCache {
    shards: Vec<Shard>,
    per_shard_capacity: usize,
    hits: AtomicUsize,
    misses: AtomicUsize,
    /// Names this cache in its [`Cursor`]s; random, read by no valuation.
    instance: u64,
    /// The last stamp handed out (see [`Self::export`]).
    stamps: AtomicU64,
    /// The fitted-surrogate memo (module docs): [`surrogate_key`] → model,
    /// at most [`SURROGATE_MEMO_CAPACITY`] of them.
    surrogates: Mutex<SieveCache<Arc<[u64]>, Arc<FittedSurrogate>>>,
}

/// One exported evaluation: what a snapshot holds per cached state.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportedEvaluation {
    /// Hashed cache namespace the evaluation belongs to.
    pub namespace: u64,
    /// The valuated state.
    pub bitmap: StateBitmap,
    /// The recorded oracle evaluation.
    pub evaluation: SharedEvaluation,
}

impl SharedEvalCache {
    /// Creates a cache with `shards` independent lock domains (clamped to
    /// a power of two, minimum 1), bounded at roughly `capacity` total
    /// evaluations (0 = unbounded) spread evenly over the shards; each
    /// shard evicts by SIEVE and admits by TinyLFU once its share fills.
    pub fn with_capacity(shards: usize, capacity: usize) -> Self {
        let shards = shards.clamp(1, 1 << 16).next_power_of_two();
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shards).max(1)
        };
        SharedEvalCache {
            shards: (0..shards)
                .map(|_| Shard {
                    map: Mutex::new(SieveCache::new(per_shard)),
                })
                .collect(),
            per_shard_capacity: per_shard,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            instance: RandomState::new().build_hasher().finish(),
            stamps: AtomicU64::new(0),
            surrogates: Mutex::new(SieveCache::new(SURROGATE_MEMO_CAPACITY)),
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard entry capacity (0 = unbounded).
    pub fn per_shard_capacity(&self) -> usize {
        self.per_shard_capacity
    }

    /// Exports every evaluation, shard by shard and oldest first within
    /// a shard — for persistence. Shards are locked one at a time, so the
    /// export is per-shard (not globally) atomic.
    pub fn export_all(&self) -> Vec<ExportedEvaluation> {
        self.export(None, Cursor::default()).1
    }

    /// Exports what the given hashed namespace keys ([`Self::namespace_key`])
    /// recorded after `after`, in the same order, with the cursor to pass
    /// next time — the unit a cluster ships between shard processes.
    pub fn export_namespaces(
        &self,
        keys: &[u64],
        after: Cursor,
    ) -> (Cursor, Vec<ExportedEvaluation>) {
        self.export(Some(keys), after)
    }

    /// The one export body: the entries of `keys` (or every entry)
    /// stamped after `after`, and this cache's cursor as of the start. A
    /// record takes its stamp under its shard's lock, so every entry at or
    /// before that cursor is in its shard when the scan locks it; one
    /// recorded during the scan may come again next time, harmlessly.
    fn export(&self, keys: Option<&[u64]>, after: Cursor) -> (Cursor, Vec<ExportedEvaluation>) {
        let now = Cursor {
            seq: self.stamps.load(Ordering::SeqCst),
            instance: self.instance,
        };
        let after = Some(after)
            .filter(|c| c.instance == self.instance)
            .map_or(0, |c| c.seq);
        let mut entries = Vec::new();
        if after >= now.seq {
            return (now, entries);
        }
        for shard in &self.shards {
            let map = shard.map.lock().unwrap_or_else(PoisonError::into_inner);
            entries.extend(
                map.iter_slots()
                    .filter(|(key, (_, stamp))| {
                        *stamp > after && keys.is_none_or(|keys| keys.contains(&key.0))
                    })
                    .map(|(key, (evaluation, _))| ExportedEvaluation {
                        namespace: key.0,
                        bitmap: key.1.clone(),
                        evaluation: evaluation.clone(),
                    }),
            );
        }
        (now, entries)
    }

    /// Merges exported entries into the cache through the normal hashed
    /// insertion path, returning how many were processed — the one way a
    /// snapshot enters a cache, live or fresh. (An entry may overwrite a
    /// duplicate key, and a bounded shard evicts to make room, so the
    /// resident count afterwards — see [`CacheStats::entries`] — can be
    /// lower.) Merging a whole export into an empty cache with the same
    /// shard count and capacity rebuilds every value and each shard's
    /// queue order; visited bits and the hand start over.
    pub fn merge_exports(&self, entries: Vec<ExportedEvaluation>) -> usize {
        let merged = entries.len();
        for entry in entries {
            self.record(entry.namespace, &entry.bitmap, &entry.evaluation);
        }
        merged
    }

    /// A handle scoped to `namespace`, usable as an
    /// [`EvaluationHook`] on a `ValuationContext`.
    pub fn handle(self: &Arc<Self>, namespace: &str) -> Arc<CacheHandle> {
        Arc::new(CacheHandle {
            cache: Arc::clone(self),
            namespace: Self::namespace_key(namespace),
        })
    }

    /// Snapshot of the hit/miss/entry/eviction counters.
    pub fn stats(&self) -> CacheStats {
        let (mut entries, mut evictions) = (0, 0);
        for shard in &self.shards {
            let map = shard.map.lock().unwrap_or_else(PoisonError::into_inner);
            entries += map.len();
            evictions += map.evictions();
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            evictions,
            memo_entries: 0,
            memo_evictions: 0,
        }
    }

    /// Hashes a namespace string to the `u64` the cache keys on — the same
    /// mapping [`Self::handle`] applies, exposed so snapshot tooling can
    /// relate exported entries back to scenario namespaces.
    ///
    /// Deliberately FNV-1a rather than std's `DefaultHasher`: namespace
    /// keys are persisted inside snapshots, and `DefaultHasher`'s algorithm
    /// is unspecified and free to change between toolchains — which would
    /// make every restored entry unreachable (imports fine, zero hits).
    pub fn namespace_key(namespace: &str) -> u64 {
        fnv1a(FNV_OFFSET_BASIS, namespace.as_bytes())
    }

    /// Picks the shard for a key: FNV-1a over the key's bytes, masked to
    /// the shard count. A snapshot records no shard placement (a restore
    /// rehashes every entry); what it does record, [`Self::namespace_key`],
    /// is what must stay stable across processes and toolchains.
    fn shard_for(&self, namespace: u64, bitmap: &StateBitmap) -> &Shard {
        let mut h = fnv1a(FNV_OFFSET_BASIS, &namespace.to_le_bytes());
        for &word in bitmap.words() {
            h = fnv1a(h, &word.to_le_bytes());
        }
        h = fnv1a(h, &(bitmap.len() as u64).to_le_bytes());
        // Length is a power of two, so the mask picks a uniform shard.
        &self.shards[(h as usize) & (self.shards.len() - 1)]
    }

    fn lookup(&self, namespace: u64, bitmap: &StateBitmap) -> Option<SharedEvaluation> {
        let shard = self.shard_for(namespace, bitmap);
        // A state of up to 128 units is stored inline: the key allocates nothing.
        let found = shard
            .map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&(namespace, bitmap.clone()))
            .map(|(evaluation, _)| evaluation.clone());
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn record(&self, namespace: u64, bitmap: &StateBitmap, evaluation: &SharedEvaluation) {
        let shard = self.shard_for(namespace, bitmap);
        let mut map = shard.map.lock().unwrap_or_else(PoisonError::into_inner);
        let stamp = self.stamps.fetch_add(1, Ordering::SeqCst) + 1;
        map.insert((namespace, bitmap.clone()), (evaluation.clone(), stamp));
    }

    fn surrogate(
        &self,
        x: &[Vec<f64>],
        y: &[Vec<f64>],
        params: GbmParams,
    ) -> (Arc<FittedSurrogate>, bool) {
        let key = surrogate_key(x, y, params);
        let memo = || {
            self.surrogates
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
        };
        let hit = memo().get(key.as_slice()).cloned();
        if let Some(model) = hit {
            return (model, true);
        }
        // Fitted outside the lock: a millisecond of training must not
        // serialise every other scenario's lookup. Two scenarios that miss
        // on one key at once both fit; the models are bit-equal, so it does
        // not matter whose insert lands last.
        let model = Arc::new(FittedSurrogate::fit(x, y, params));
        memo().insert(key.into(), Arc::clone(&model));
        (model, false)
    }
}

/// A namespaced view of a [`SharedEvalCache`]; implements
/// [`EvaluationHook`] so it can be installed on a `ValuationContext`.
pub struct CacheHandle {
    cache: Arc<SharedEvalCache>,
    namespace: u64,
}

impl EvaluationHook for CacheHandle {
    fn lookup(&self, bitmap: &StateBitmap) -> Option<SharedEvaluation> {
        self.cache.lookup(self.namespace, bitmap)
    }

    fn record(&self, bitmap: &StateBitmap, evaluation: &SharedEvaluation) {
        self.cache.record(self.namespace, bitmap, evaluation);
    }

    fn surrogate(
        &self,
        x: &[Vec<f64>],
        y: &[Vec<f64>],
        params: GbmParams,
    ) -> (Arc<FittedSurrogate>, bool) {
        self.cache.surrogate(x, y, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modis_core::estimator::MultiOutputGbm;

    fn eval(v: f64) -> SharedEvaluation {
        SharedEvaluation {
            raw: vec![v],
            perf: vec![v],
        }
    }

    #[test]
    fn records_and_hits_within_a_namespace() {
        let cache = Arc::new(SharedEvalCache::with_capacity(8, 0));
        let handle = cache.handle("t1");
        let b = StateBitmap::full(5);
        assert!(handle.lookup(&b).is_none());
        handle.record(&b, &eval(0.25));
        assert_eq!(handle.lookup(&b), Some(eval(0.25)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn namespaces_are_isolated() {
        let cache = Arc::new(SharedEvalCache::with_capacity(4, 0));
        let a = cache.handle("task-a");
        let b = cache.handle("task-b");
        let bitmap = StateBitmap::full(3);
        a.record(&bitmap, &eval(1.0));
        assert!(b.lookup(&bitmap).is_none());
        assert_eq!(a.lookup(&bitmap), Some(eval(1.0)));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn handles_share_one_store() {
        let cache = Arc::new(SharedEvalCache::with_capacity(2, 0));
        let h1 = cache.handle("shared");
        let h2 = cache.handle("shared");
        let bitmap = StateBitmap::empty(4);
        h1.record(&bitmap, &eval(0.5));
        assert_eq!(h2.lookup(&bitmap), Some(eval(0.5)));
    }

    #[test]
    fn overwrite_does_not_double_count_entries() {
        let cache = Arc::new(SharedEvalCache::with_capacity(1, 0));
        let h = cache.handle("n");
        let bitmap = StateBitmap::full(2);
        h.record(&bitmap, &eval(0.1));
        h.record(&bitmap, &eval(0.2));
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(h.lookup(&bitmap), Some(eval(0.2)));
    }

    #[test]
    fn bounded_cache_evicts_and_serves_survivors() {
        // One shard, room for 4 evaluations.
        let cache = Arc::new(SharedEvalCache::with_capacity(1, 4));
        let h = cache.handle("bounded");
        for i in 0..16 {
            let mut b = StateBitmap::empty(16);
            b.set(i, true);
            h.record(&b, &eval(i as f64));
        }
        let stats = cache.stats();
        assert!(stats.entries <= 4, "entries = {}", stats.entries);
        assert_eq!(stats.evictions, 12);
        // Survivors still answer; evicted states simply miss.
        let answered = (0..16)
            .filter(|&i| {
                let mut b = StateBitmap::empty(16);
                b.set(i, true);
                h.lookup(&b).is_some()
            })
            .count();
        assert_eq!(answered, 4);
    }

    #[test]
    fn namespace_key_is_pinned_for_snapshot_compatibility() {
        // Namespace keys and shard placement persist inside snapshots, so
        // the hash must never drift — this literal is the FNV-1a of "pool".
        // If this test fails, snapshot compatibility just broke.
        assert_eq!(SharedEvalCache::namespace_key("pool"), 0x8c22f10da88b1083);
        assert_ne!(
            SharedEvalCache::namespace_key("a"),
            SharedEvalCache::namespace_key("b")
        );
    }

    #[test]
    fn export_merge_round_trips_values_and_order() {
        let source = Arc::new(SharedEvalCache::with_capacity(4, 256));
        let h = source.handle("roundtrip");
        for i in 0..24 {
            let mut b = StateBitmap::empty(32);
            b.set(i, true);
            h.record(&b, &eval(i as f64));
        }
        let export = source.export_all();

        // Same shard count ⇒ the same entries in the same order.
        let target = Arc::new(SharedEvalCache::with_capacity(4, 256));
        assert_eq!(target.merge_exports(export.clone()), 24);
        assert_eq!(target.export_all(), export);
        let th = target.handle("roundtrip");
        for i in 0..24 {
            let mut b = StateBitmap::empty(32);
            b.set(i, true);
            assert_eq!(th.lookup(&b), Some(eval(i as f64)), "entry {i}");
        }

        // Different shard count ⇒ values still all present, rehashed.
        let reshaped = Arc::new(SharedEvalCache::with_capacity(2, 256));
        assert_eq!(reshaped.merge_exports(export), 24);
        assert_eq!(reshaped.stats().entries, 24);
        let rh = reshaped.handle("roundtrip");
        let mut b = StateBitmap::empty(32);
        b.set(7, true);
        assert_eq!(rh.lookup(&b), Some(eval(7.0)));
    }

    #[test]
    fn namespace_export_filters_and_merges_into_a_live_cache() {
        let source = Arc::new(SharedEvalCache::with_capacity(4, 0));
        for ns in ["keep-a", "keep-b", "drop"] {
            let h = source.handle(ns);
            for i in 0..6 {
                let mut b = StateBitmap::empty(16);
                b.set(i, true);
                h.record(&b, &eval(i as f64));
            }
        }
        let keys = [
            SharedEvalCache::namespace_key("keep-a"),
            SharedEvalCache::namespace_key("keep-b"),
        ];
        let (_, export) = source.export_namespaces(&keys, Cursor::default());
        assert_eq!(
            export.len(),
            12,
            "only the selected namespaces are exported"
        );
        assert!(export.iter().all(|e| keys.contains(&e.namespace)));

        // Merge into a cache that already serves other namespaces: the
        // resident state survives, the shipped entries answer afterwards.
        let target = Arc::new(SharedEvalCache::with_capacity(2, 0));
        let resident = target.handle("resident");
        let b0 = StateBitmap::full(16);
        resident.record(&b0, &eval(9.0));
        assert_eq!(target.merge_exports(export), 12);
        assert_eq!(resident.lookup(&b0), Some(eval(9.0)));
        let ha = target.handle("keep-a");
        let mut b = StateBitmap::empty(16);
        b.set(3, true);
        assert_eq!(ha.lookup(&b), Some(eval(3.0)));
        assert!(target.handle("drop").lookup(&b).is_none());
        assert_eq!(target.stats().entries, 13);
    }

    #[test]
    fn import_into_bounded_cache_respects_capacity() {
        let source = Arc::new(SharedEvalCache::with_capacity(1, 0));
        let h = source.handle("big");
        for i in 0..10 {
            let mut b = StateBitmap::empty(16);
            b.set(i, true);
            h.record(&b, &eval(i as f64));
        }
        let small = Arc::new(SharedEvalCache::with_capacity(1, 4));
        assert_eq!(small.merge_exports(source.export_all()), 10);
        let stats = small.stats();
        assert_eq!((stats.entries, stats.evictions), (4, 6));
    }

    /// 12 records × 6 features → 2 outputs: the shape of a warm-up fit.
    /// `x[0][0]` is `0.0` (the signed-zero case needs one).
    fn training_set() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let x: Vec<Vec<f64>> = (0..12)
            .map(|i| (0..6).map(|j| ((i * 7 + j * 3) % 5) as f64 * 0.5).collect())
            .collect();
        let y = x
            .iter()
            .map(|r| vec![0.3 * r[0] - 0.1 * r[2] + 0.5, 0.2 * r[1] * r[3]])
            .collect();
        (x, y)
    }

    /// What a model predicts over the training rows and a few rows off
    /// them, on bits.
    fn answers(model: &MultiOutputGbm) -> Vec<Vec<u64>> {
        let (mut probes, _) = training_set();
        probes.extend((0..8).map(|i| vec![i as f64 * 0.3 - 0.4; 6]));
        probes
            .iter()
            .map(|row| model.predict_one(row).iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// The memo's key is the exact content of the fit's arguments: one
    /// flipped bit, one more record, another order or any one changed
    /// hyper-parameter is another model, fitted afresh and equal to what
    /// `MultiOutputGbm::fit` returns for those arguments.
    #[test]
    fn surrogate_memo_misses_on_any_changed_bit_record_or_parameter() {
        use modis_ml::tree::{Criterion, TreeParams};

        let cache = SharedEvalCache::with_capacity(1, 0);
        let (x, y) = training_set();
        let p = GbmParams {
            n_estimators: 8,
            ..GbmParams::default()
        };
        // Every hyper-parameter by name, no `..`: a new field stops this
        // compiling until `surrogate_key` and the list below know it.
        let GbmParams {
            n_estimators: _,
            learning_rate: _,
            tree:
                TreeParams {
                    max_depth: _,
                    min_samples_split: _,
                    min_samples_leaf: _,
                    max_thresholds: _,
                    criterion: _,
                },
        } = p;
        let flip = |v: f64| f64::from_bits(v.to_bits() ^ 1);
        let edit = |cell: (usize, usize), to: f64| {
            let mut x = x.clone();
            x[cell.0][cell.1] = to;
            x
        };
        let tree = |tree: TreeParams| GbmParams { tree, ..p };

        let mut variants = vec![
            ("the base arguments", x.clone(), y.clone(), p),
            (
                "one bit of an x cell",
                edit((3, 2), flip(x[3][2])),
                y.clone(),
                p,
            ),
            ("-0.0 for 0.0", edit((0, 0), -0.0), y.clone(), p),
            ("a NaN", edit((0, 0), f64::NAN), y.clone(), p),
            (
                "another NaN payload",
                edit((0, 0), flip(f64::NAN)),
                y.clone(),
                p,
            ),
        ];
        assert_eq!(x[0][0].to_bits(), 0, "the signed-zero case needs a +0.0");
        let mut y2 = y.clone();
        y2[5][1] = flip(y2[5][1]);
        variants.push(("one bit of a y cell", x.clone(), y2, p));
        let (mut x2, mut y2) = (x.clone(), y.clone());
        x2.push(x[0].clone());
        y2.push(y[0].clone());
        variants.push(("one record appended", x2, y2, p));
        let (mut x2, mut y2) = (x.clone(), y.clone());
        x2.swap(1, 7);
        y2.swap(1, 7);
        variants.push(("two records swapped", x2, y2, p));
        for (what, params) in [
            (
                "n_estimators",
                GbmParams {
                    n_estimators: 9,
                    ..p
                },
            ),
            (
                "learning_rate",
                GbmParams {
                    learning_rate: flip(p.learning_rate),
                    ..p
                },
            ),
            (
                "max_depth",
                tree(TreeParams {
                    max_depth: 2,
                    ..p.tree
                }),
            ),
            (
                "min_samples_split",
                tree(TreeParams {
                    min_samples_split: 4,
                    ..p.tree
                }),
            ),
            (
                "min_samples_leaf",
                tree(TreeParams {
                    min_samples_leaf: 2,
                    ..p.tree
                }),
            ),
            (
                "max_thresholds",
                tree(TreeParams {
                    max_thresholds: 3,
                    ..p.tree
                }),
            ),
            (
                "criterion",
                tree(TreeParams {
                    criterion: Criterion::Gini,
                    ..p.tree
                }),
            ),
        ] {
            variants.push((what, x.clone(), y.clone(), params));
        }

        let mut expected = Vec::new();
        for (what, x, y, params) in &variants {
            let (fitted, reused) = cache.surrogate(x, y, *params);
            assert!(!reused, "{what}: a miss");
            let direct = answers(&MultiOutputGbm::fit(x, y, *params));
            assert_eq!(answers(fitted.model()), direct, "{what}");
            expected.push(direct);
        }
        // Every variant is its own entry, and each still answers for itself.
        for ((what, x, y, params), direct) in variants.iter().zip(&expected) {
            let (model, reused) = cache.surrogate(x, y, *params);
            assert!(reused, "{what}: a hit");
            assert_eq!(&answers(model.model()), direct, "{what}");
        }
    }

    /// The same cells cut into other shapes — between rows, or between `x`
    /// and `y` — are other keys; equal arguments are equal keys.
    #[test]
    fn surrogate_key_separates_shapes_that_hold_the_same_cells() {
        let p = GbmParams::default();
        let key = surrogate_key;
        let (a, b) = (vec![vec![1.0], vec![2.0, 3.0]], vec![vec![4.0]]);
        assert_eq!(key(&a, &b, p), key(&a.clone(), &b.clone(), p));
        let reshaped = vec![vec![1.0, 2.0], vec![3.0]];
        assert_ne!(key(&a, &b, p), key(&reshaped, &b, p));
        let (x, y) = (vec![vec![1.0], vec![2.0]], vec![vec![3.0], vec![4.0]]);
        let (x3, y1) = (vec![vec![1.0], vec![2.0], vec![3.0]], vec![vec![4.0]]);
        assert_ne!(key(&x, &y, p), key(&x3, &y1, p));
        assert_ne!(key(&x, &y, p), key(&y, &x, p));
        assert_ne!(key(&[], &[], p), key(&[vec![]], &[], p));
    }

    /// More distinct training matrices than the memo holds: it stays at its
    /// bound, and a matrix that was evicted is fitted again to a model that
    /// predicts the same bits.
    #[test]
    fn surrogate_memo_is_bounded_and_an_evicted_matrix_refits_to_the_same_bits() {
        let cache = SharedEvalCache::with_capacity(1, 0);
        let p = GbmParams {
            n_estimators: 2,
            ..GbmParams::default()
        };
        let matrix = |i: usize| {
            let x = vec![vec![0.0; 6], vec![1.0; 6], vec![i as f64 + 2.0; 6]];
            (x, vec![vec![0.0], vec![1.0], vec![0.5]])
        };
        let resident = || cache.surrogates.lock().unwrap().len();
        let first: Vec<Arc<FittedSurrogate>> = (0..SURROGATE_MEMO_CAPACITY + 8)
            .map(|i| {
                let (x, y) = matrix(i);
                let (model, reused) = cache.surrogate(&x, &y, p);
                assert!(!reused, "matrix {i} is new");
                assert!(resident() <= SURROGATE_MEMO_CAPACITY);
                model
            })
            .collect();
        assert_eq!(resident(), SURROGATE_MEMO_CAPACITY);
        assert_eq!(cache.surrogates.lock().unwrap().evictions(), 8);

        let mut refitted = 0;
        for (i, earlier) in first.iter().enumerate() {
            let (x, y) = matrix(i);
            let (model, reused) = cache.surrogate(&x, &y, p);
            assert_eq!(reused, Arc::ptr_eq(&model, earlier), "matrix {i}");
            refitted += usize::from(!reused);
            assert_eq!(
                answers(model.model()),
                answers(earlier.model()),
                "matrix {i}"
            );
            assert!(resident() <= SURROGATE_MEMO_CAPACITY);
        }
        assert!(refitted >= 8, "the evicted matrices were fitted again");
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = Arc::new(SharedEvalCache::with_capacity(16, 0));
        std::thread::scope(|scope| {
            for t in 0..8 {
                let handle = cache.handle("stress");
                scope.spawn(move || {
                    for i in 0..50 {
                        let mut bitmap = StateBitmap::empty(16);
                        bitmap.set(i % 16, true);
                        handle.record(&bitmap, &eval((t * 50 + i) as f64));
                        assert!(handle.lookup(&bitmap).is_some());
                    }
                });
            }
        });
        // 16 distinct states across all threads.
        assert_eq!(cache.stats().entries, 16);
    }
}
