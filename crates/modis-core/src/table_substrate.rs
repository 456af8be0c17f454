//! Tabular search space: the universal table, its reducible units and the
//! materialisation of states into datasets.
//!
//! Following §5.2 / §6, the universal table `D_U` is built by a multi-way
//! outer join of the source tables; each non-target attribute contributes
//! * one *attribute unit* (bit = attribute present in the state's schema),
//! * one *cluster unit* per active-domain cluster derived by k-means
//!   (bit = tuples whose value falls in that cluster are present).
//!
//! Clearing an attribute unit applies a masking reduct (`adom_s(A) = ∅`);
//! clearing a cluster unit applies `⊖_c` with the cluster's literal. The
//! backward start state of BiMODis keeps every tuple but masks all feature
//! attributes (a minimal dataset that still covers every target class, as
//! produced by `BackSt`).

use parking_lot::Mutex;

use modis_data::{
    derive_attribute_literals, universal_table, ClusterConfig, DataError, Dataset, DatasetView,
    Literal, RowMask, StateBitmap,
};

use crate::measure::MeasureSet;
use crate::sieve_cache::SieveCache;
use crate::substrate::Substrate;
use crate::task::{evaluate_dataset_view, TaskSpec};

/// One reducible unit of the tabular search space.
#[derive(Debug, Clone)]
pub enum TableUnit {
    /// Presence of an attribute in the state's schema.
    Attribute {
        /// Attribute name.
        name: String,
    },
    /// Presence of the tuples selected by a cluster literal.
    Cluster {
        /// Attribute the cluster belongs to.
        attribute: String,
        /// Literal selecting the cluster's tuples.
        literal: Literal,
    },
}

/// Configuration of the tabular search space construction.
#[derive(Debug, Clone)]
pub struct TableSpaceConfig {
    /// Join key shared by the source tables.
    pub join_key: String,
    /// Active-domain clustering configuration.
    pub cluster: ClusterConfig,
    /// Maximum number of cluster units per attribute actually exposed to the
    /// search (keeps `|adom_m|` bounded as discussed under Theorem 1).
    pub max_clusters_per_attr: usize,
    /// Capacity of the per-substrate raw-metrics memo (states; 0 =
    /// unbounded). Evicted entries are simply re-valuated on the next visit.
    pub eval_cache_capacity: usize,
}

impl Default for TableSpaceConfig {
    fn default() -> Self {
        TableSpaceConfig {
            join_key: "id".into(),
            cluster: ClusterConfig {
                max_k: 4,
                iterations: 20,
            },
            max_clusters_per_attr: 3,
            eval_cache_capacity: 16_384,
        }
    }
}

/// What the substrate remembers about an already-visited state: the oracle
/// raw metrics and/or the cheap structure features, both derived from one
/// materialised view of the state.
#[derive(Debug, Clone, Default)]
struct StateRecord {
    raw: Option<Vec<f64>>,
    features: Option<Vec<f64>>,
}

pub use crate::substrate::SubstrateCacheStats;

/// The tabular [`Substrate`]: universal table + units + downstream task.
///
/// Building one ([`TableSubstrate::try_from_pool`] / `from_universal`)
/// walks the universal table's non-key, non-target attributes in schema
/// order. Each contributes an attribute unit and up to
/// `max_clusters_per_attr` cluster units, whose literals
/// [`derive_attribute_literals`] reads from the column's typed storage (a
/// sort of a number column's integer keys, a count of a string column's
/// codes; no cell is cloned). Each cluster literal then meets the table
/// once, through [`Literal::mask`], which resolves its column once and tests
/// every cell of it: the packed [`RowMask`] it returns is kept per cluster
/// unit. No row is copied. [`TableSubstrate::materialize_view`] then
/// reduces a state to a handful of word-wise AND-NOTs plus an attribute
/// mask — O(rows/64 × cleared units), zero row clones — and a state's
/// matrix is a gather from the universal table's typed columns.
pub struct TableSubstrate {
    universal: Dataset,
    units: Vec<TableUnit>,
    /// For cluster units: the rows of the universal table matching the
    /// literal. `None` for attribute units.
    unit_masks: Vec<Option<RowMask>>,
    /// For every unit: the universal-table column of the unit's attribute.
    unit_cols: Vec<usize>,
    task: TaskSpec,
    cache: Mutex<SieveCache<StateBitmap, StateRecord>>,
    /// Lazily computed full-content fingerprint (the universal table is
    /// immutable after construction, so one digest serves every call).
    fingerprint_memo: std::sync::OnceLock<u64>,
}

impl TableSubstrate {
    /// Builds the search space from a pool of source tables.
    ///
    /// # Panics
    /// Where [`Self::try_from_pool`] errs: when a pool of two or more
    /// tables has one without the join key.
    pub fn from_pool(pool: &[Dataset], task: TaskSpec, config: &TableSpaceConfig) -> Self {
        Self::try_from_pool(pool, task, config)
            .unwrap_or_else(|e| panic!("no universal table for the pool: {e}"))
    }

    /// Builds the search space from a pool of source tables, or returns the
    /// join's error: a pool of two or more tables with one lacking the join
    /// key has no universal table.
    pub fn try_from_pool(
        pool: &[Dataset],
        task: TaskSpec,
        config: &TableSpaceConfig,
    ) -> Result<Self, DataError> {
        let universal = universal_table(pool, &config.join_key)?;
        Ok(Self::from_universal(universal, task, config))
    }

    /// Builds the search space directly from an already-constructed
    /// universal table.
    pub fn from_universal(universal: Dataset, task: TaskSpec, config: &TableSpaceConfig) -> Self {
        let (mut units, mut unit_masks, mut unit_cols) = (Vec::new(), Vec::new(), Vec::new());
        for (col, attr) in universal.schema().attributes().iter().enumerate() {
            let name = &attr.name;
            if name == &task.target
                || Some(name.as_str()) == task.key.as_deref()
                || name == &config.join_key
            {
                continue;
            }
            units.push(TableUnit::Attribute { name: name.clone() });
            unit_masks.push(None);
            unit_cols.push(col);
            let clusters = derive_attribute_literals(&universal, name, &config.cluster);
            for c in clusters.into_iter().take(config.max_clusters_per_attr) {
                // Valuated against the universal table exactly once; every
                // later materialisation is a word-wise mask intersection.
                unit_masks.push(Some(c.literal.mask(&universal)));
                unit_cols.push(col);
                units.push(TableUnit::Cluster {
                    attribute: name.clone(),
                    literal: c.literal,
                });
            }
        }
        TableSubstrate {
            universal,
            units,
            unit_masks,
            unit_cols,
            task,
            cache: Mutex::new(SieveCache::new(config.eval_cache_capacity)),
            fingerprint_memo: std::sync::OnceLock::new(),
        }
    }

    /// The universal table `D_U`.
    pub fn universal(&self) -> &Dataset {
        &self.universal
    }

    /// The downstream task.
    pub fn task(&self) -> &TaskSpec {
        &self.task
    }

    /// The reducible units.
    pub fn units(&self) -> &[TableUnit] {
        &self.units
    }

    /// Materialises the dataset denoted by a state bitmap as a zero-copy
    /// [`DatasetView`]: a word-wise intersection of the precomputed cluster
    /// masks of cleared units plus an attribute mask. Never copies a row.
    ///
    /// Attribute units with bit 0 mask the attribute; cluster units with bit
    /// 0 remove the tuples matching the cluster literal (only when the
    /// owning attribute is still present).
    pub fn materialize_view(&self, bitmap: &StateBitmap) -> DatasetView<'_> {
        let mut masked_cols = vec![false; self.universal.num_columns()];
        for (i, unit) in self.units.iter().enumerate() {
            if bitmap.get(i) {
                continue;
            }
            if matches!(unit, TableUnit::Attribute { .. }) {
                masked_cols[self.unit_cols[i]] = true;
            }
        }
        let mut mask = RowMask::all(self.universal.num_rows());
        for (i, unit) in self.units.iter().enumerate() {
            if bitmap.get(i) {
                continue;
            }
            if let (TableUnit::Cluster { .. }, Some(unit_mask)) = (unit, &self.unit_masks[i]) {
                // A cluster of a masked attribute no longer removes tuples
                // (its literal ranges over an empty active domain).
                if !masked_cols[self.unit_cols[i]] {
                    mask.subtract(unit_mask);
                }
            }
        }
        DatasetView::new(&self.universal, mask, masked_cols)
    }

    /// Materialises the dataset denoted by a state bitmap as an owned copy —
    /// a thin [`DatasetView::to_dataset`] kept for consumers that need an
    /// owned table. Identical rows/schema to the pre-columnar
    /// clone-and-filter implementation this module's tests keep as their
    /// reference.
    pub fn materialize(&self, bitmap: &StateBitmap) -> Dataset {
        self.materialize_view(bitmap)
            .to_dataset()
            .with_name(format!("{}@{}", self.universal.name, bitmap))
    }

    /// Counters of the bounded raw-metrics memo.
    pub fn cache_stats(&self) -> SubstrateCacheStats {
        let cache = self.cache.lock();
        SubstrateCacheStats {
            entries: cache.len(),
            evictions: cache.evictions(),
        }
    }

    /// Applies `update` to the state's memo record, creating it if absent
    /// (the single insert-or-merge path shared by `evaluate_raw` and
    /// `state_features`).
    fn update_record(&self, bitmap: &StateBitmap, update: impl FnOnce(&mut StateRecord)) {
        let mut cache = self.cache.lock();
        match cache.get_mut(bitmap) {
            Some(rec) => update(rec),
            None => {
                let mut rec = StateRecord::default();
                update(&mut rec);
                cache.insert(bitmap.clone(), rec);
            }
        }
    }

    /// Structure features of a state derived from an already-materialised
    /// view: bitmap composition plus the reported size and missing ratio of
    /// the selection.
    fn features_from_view(&self, bitmap: &StateBitmap, view: &DatasetView<'_>) -> Vec<f64> {
        let (rows, cols) = view.reported_size();
        let mut feats = Vec::with_capacity(bitmap.len() + 4);
        feats.push(bitmap.count_ones() as f64);
        feats.push(rows as f64);
        feats.push(cols as f64);
        feats.push(view.missing_ratio());
        feats.extend(bitmap.iter().map(|b| if b { 1.0 } else { 0.0 }));
        feats
    }
}

impl Substrate for TableSubstrate {
    fn num_units(&self) -> usize {
        self.units.len()
    }

    fn unit_label(&self, unit: usize) -> String {
        match &self.units[unit] {
            TableUnit::Attribute { name } => format!("attr:{name}"),
            TableUnit::Cluster { literal, .. } => format!("cluster:{literal}"),
        }
    }

    fn backward_start(&self) -> StateBitmap {
        // BackSt: keep every tuple (cluster bits set) but start from a
        // minimal schema (feature attributes masked). The target attribute is
        // not a unit, so every class of the target remains covered.
        let mut b = StateBitmap::full(self.num_units());
        for (i, unit) in self.units.iter().enumerate() {
            if matches!(unit, TableUnit::Attribute { .. }) {
                b.set(i, false);
            }
        }
        b
    }

    fn measures(&self) -> &MeasureSet {
        &self.task.measures
    }

    fn evaluate_raw(&self, bitmap: &StateBitmap) -> Vec<f64> {
        if let Some(raw) = self
            .cache
            .lock()
            .get(bitmap)
            .and_then(|rec| rec.raw.clone())
        {
            return raw;
        }
        // One view serves both the oracle metrics and the structure
        // features: the state is materialised exactly once (previously
        // `evaluate_raw` and `state_features` each deep-cloned the table).
        let view = self.materialize_view(bitmap);
        let eval = evaluate_dataset_view(&self.task, &view);
        let features = self.features_from_view(bitmap, &view);
        self.update_record(bitmap, |rec| {
            rec.raw = Some(eval.raw.clone());
            rec.features = Some(features);
        });
        eval.raw
    }

    fn state_features(&self, bitmap: &StateBitmap) -> Vec<f64> {
        // Cheap artefact-level statistics: bitmap composition plus the size
        // of the materialised selection (row/column counts and missing
        // ratio) — no model training, shared with `evaluate_raw`'s view.
        if let Some(feats) = self
            .cache
            .lock()
            .get(bitmap)
            .and_then(|rec| rec.features.clone())
        {
            return feats;
        }
        let view = self.materialize_view(bitmap);
        let features = self.features_from_view(bitmap, &view);
        self.update_record(bitmap, |rec| rec.features = Some(features.clone()));
        features
    }

    fn artifact_size(&self, bitmap: &StateBitmap) -> (usize, usize) {
        self.materialize_view(bitmap).reported_size()
    }

    fn fingerprint(&self) -> u64 {
        // The structural default does not see the downstream task or the
        // data: the same units and measure names over a different model, a
        // different split/seed, or a *refreshed table* (same schema and row
        // count, new cell values) valuate the same bitmap differently. Fold
        // the full task spec and a digest of EVERY cell of the universal
        // table in — a sampled digest would wave refreshed data past the
        // namespace guard whenever the change lands between sample points.
        // The table is immutable after construction, so the digest is
        // computed once and memoised; fingerprints persist in snapshots, so
        // everything hashes through the stable FNV hasher, and the cells
        // hash as a row-major stream of `Vec<Value>` rows — the row count,
        // then per row its width and its cells — whatever their storage.
        use crate::codec::StableHasher;
        use std::hash::{Hash, Hasher};
        *self.fingerprint_memo.get_or_init(|| {
            let mut h = StableHasher::new();
            crate::substrate::structural_fingerprint(self).hash(&mut h);
            self.task.name.hash(&mut h);
            format!("{:?}", self.task.model).hash(&mut h);
            self.task.target.hash(&mut h);
            self.task.key.hash(&mut h);
            format!("{:?}", self.task.metric_kinds).hash(&mut h);
            self.task.train_ratio.to_bits().hash(&mut h);
            self.task.seed.hash(&mut h);
            let u = &self.universal;
            u.num_rows().hash(&mut h);
            for r in 0..u.num_rows() {
                u.num_columns().hash(&mut h);
                (0..u.num_columns()).for_each(|c| u.column(c).cell(r).hash(&mut h));
            }
            h.finish()
        })
    }

    fn memo_stats(&self) -> SubstrateCacheStats {
        self.cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{MeasureSet, MeasureSpec};
    use crate::task::{MetricKind, ModelKind};
    use modis_data::{Attribute, Schema, Value};
    use proptest::prelude::*;

    fn pool() -> Vec<Dataset> {
        let base = Dataset::from_rows(
            "base",
            Schema::from_attributes(vec![
                Attribute::key("id"),
                Attribute::feature("x1"),
                Attribute::target("y"),
            ]),
            (0..60)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::Float((i % 10) as f64),
                        Value::Float(2.0 * (i % 10) as f64),
                    ]
                })
                .collect(),
        )
        .unwrap();
        let extra = Dataset::from_rows(
            "extra",
            Schema::from_attributes(vec![Attribute::key("id"), Attribute::feature("noise")]),
            (0..60)
                .map(|i| vec![Value::Int(i), Value::Float(((i * 7) % 5) as f64)])
                .collect(),
        )
        .unwrap();
        vec![base, extra]
    }

    fn task() -> TaskSpec {
        TaskSpec {
            name: "test".into(),
            model: ModelKind::LinearRegressor,
            target: "y".into(),
            key: Some("id".into()),
            measures: MeasureSet::new(vec![
                MeasureSpec::maximise("p_R2"),
                MeasureSpec::minimise("p_Train", 2.0),
            ]),
            metric_kinds: vec![MetricKind::R2, MetricKind::TrainTime],
            train_ratio: 0.7,
            seed: 1,
        }
    }

    #[test]
    fn fingerprint_sees_data_content_not_just_schema() {
        // No cluster units, so the unit universe is value-independent and
        // only the content digest can tell the datasets apart.
        let config = TableSpaceConfig {
            max_clusters_per_attr: 0,
            ..TableSpaceConfig::default()
        };
        let a = TableSubstrate::from_pool(&pool(), task(), &config);
        let b = TableSubstrate::from_pool(&pool(), task(), &config);
        assert_eq!(a.fingerprint(), b.fingerprint(), "same data, same print");

        // Same schema, same row count, one changed cell value.
        let mut altered = pool();
        let refreshed = Dataset::from_rows(
            "base",
            altered[0].schema().clone(),
            (0..60)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::Float((i % 10) as f64 + if i == 17 { 0.5 } else { 0.0 }),
                        Value::Float(2.0 * (i % 10) as f64),
                    ]
                })
                .collect(),
        )
        .unwrap();
        altered[0] = refreshed;
        let c = TableSubstrate::from_pool(&altered, task(), &config);
        assert_ne!(
            a.fingerprint(),
            c.fingerprint(),
            "refreshed cell values must change the fingerprint"
        );
    }

    #[test]
    fn space_construction_builds_units() {
        let sub = TableSubstrate::from_pool(&pool(), task(), &TableSpaceConfig::default());
        assert!(sub.num_units() > 2);
        assert!(sub.universal().schema().contains("noise"));
        // Target and key never become units.
        for i in 0..sub.num_units() {
            let label = sub.unit_label(i);
            assert!(!label.contains(":y"), "{label}");
            assert!(!label.contains(":id"), "{label}");
        }
    }

    #[test]
    fn materialize_full_bitmap_is_universal() {
        let sub = TableSubstrate::from_pool(&pool(), task(), &TableSpaceConfig::default());
        let full = sub.materialize(&sub.forward_start());
        assert_eq!(full.num_rows(), sub.universal().num_rows());
        assert_eq!(full.reported_size().1, sub.universal().reported_size().1);
    }

    #[test]
    fn clearing_attribute_unit_masks_column() {
        let sub = TableSubstrate::from_pool(&pool(), task(), &TableSpaceConfig::default());
        let idx = (0..sub.num_units())
            .find(|&i| sub.unit_label(i) == "attr:noise")
            .expect("noise attribute unit");
        let reduced = sub.materialize(&sub.forward_start().flipped(idx));
        let (_, cols) = reduced.reported_size();
        assert_eq!(cols, sub.universal().reported_size().1 - 1);
    }

    #[test]
    fn clearing_cluster_unit_removes_rows() {
        let sub = TableSubstrate::from_pool(&pool(), task(), &TableSpaceConfig::default());
        let idx = (0..sub.num_units())
            .find(|&i| sub.unit_label(i).starts_with("cluster:x1"))
            .expect("cluster unit for x1");
        let reduced = sub.materialize(&sub.forward_start().flipped(idx));
        assert!(reduced.num_rows() < sub.universal().num_rows());
    }

    #[test]
    fn backward_start_masks_features_keeps_rows() {
        let sub = TableSubstrate::from_pool(&pool(), task(), &TableSpaceConfig::default());
        let b = sub.backward_start();
        let data = sub.materialize(&b);
        assert_eq!(data.num_rows(), sub.universal().num_rows());
        // Only the key and target columns remain non-null.
        assert!(data.reported_size().1 <= 2);
    }

    #[test]
    fn evaluate_raw_is_cached_and_sane() {
        let sub = TableSubstrate::from_pool(&pool(), task(), &TableSpaceConfig::default());
        let raw1 = sub.evaluate_raw(&sub.forward_start());
        let raw2 = sub.evaluate_raw(&sub.forward_start());
        assert_eq!(raw1, raw2);
        assert!(
            raw1[0] > 0.9,
            "full data should give near-perfect R², got {}",
            raw1[0]
        );
    }

    #[test]
    fn state_features_include_bitmap() {
        let sub = TableSubstrate::from_pool(&pool(), task(), &TableSpaceConfig::default());
        let f = sub.state_features(&sub.forward_start());
        assert_eq!(f.len(), sub.num_units() + 4);
    }

    impl TableSubstrate {
        /// The pre-columnar reference materialisation: deep-clones the
        /// universal table, re-filters it row by row per cleared cluster
        /// unit and nulls masked attributes cell by cell. Ground truth for
        /// the two equivalence tests below.
        fn materialize_baseline(&self, bitmap: &StateBitmap) -> Dataset {
            let mut masked: Vec<&str> = Vec::new();
            let mut removals: Vec<&Literal> = Vec::new();
            for (i, unit) in self.units.iter().enumerate() {
                if bitmap.get(i) {
                    continue;
                }
                match unit {
                    TableUnit::Attribute { name } => masked.push(name.as_str()),
                    TableUnit::Cluster { attribute, literal } => {
                        if !masked.contains(&attribute.as_str()) {
                            removals.push(literal);
                        }
                    }
                }
            }
            let mut data = self.universal.clone();
            for lit in removals {
                data = modis_data::reduct(&data, lit).0;
            }
            for name in masked {
                if let Ok(d) = modis_data::mask_attribute(&data, name) {
                    data = d;
                }
            }
            data.with_name(format!("{}@{}", self.universal.name, bitmap))
        }
    }

    #[test]
    fn view_materialisation_matches_clone_and_filter_baseline() {
        let sub = TableSubstrate::from_pool(&pool(), task(), &TableSpaceConfig::default());
        let mut states = vec![sub.forward_start(), sub.backward_start()];
        for i in 0..sub.num_units() {
            states.push(sub.forward_start().flipped(i));
        }
        // A few multi-flip states, including attribute+cluster interactions.
        let mut b = sub.forward_start();
        for i in (0..sub.num_units()).step_by(2) {
            b = b.flipped(i);
            states.push(b.clone());
        }
        for s in &states {
            let via_view = sub.materialize(s);
            let baseline = sub.materialize_baseline(s);
            assert_eq!(via_view.schema(), baseline.schema(), "{s}");
            assert_eq!(via_view.rows(), baseline.rows(), "{s}");
            assert_eq!(via_view.name, baseline.name, "{s}");
            let view = sub.materialize_view(s);
            assert_eq!(view.reported_size(), baseline.reported_size(), "{s}");
            assert!((view.missing_ratio() - baseline.missing_ratio()).abs() < 1e-12);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// On a full `TableSubstrate` over a random pool, the columnar
        /// (mask-intersection) materialisation is byte-identical to the
        /// seed's clone-and-filter implementation for random states.
        #[test]
        fn substrate_view_materialisation_matches_baseline(
            xs in prop::collection::vec(0i64..9, 24..60),
            state_bits in prop::collection::vec(any::<bool>(), 64),
        ) {
            let schema = Schema::from_attributes(vec![
                Attribute::key("id"),
                Attribute::feature("x"),
                Attribute::feature("z"),
                Attribute::target("y"),
            ]);
            let rows: Vec<Vec<Value>> = xs
                .iter()
                .enumerate()
                .map(|(i, &x)| {
                    vec![
                        Value::Int(i as i64),
                        Value::Float(x as f64),
                        if x % 4 == 0 { Value::Null } else { Value::Int(x % 3) },
                        Value::Float(2.0 * x as f64),
                    ]
                })
                .collect();
            let data = Dataset::from_rows("pool", schema, rows).unwrap();
            let sub = TableSubstrate::from_universal(data, task(), &TableSpaceConfig::default());
            let bitmap = StateBitmap::from_bits(
                (0..sub.num_units()).map(|i| state_bits[i % state_bits.len()]).collect(),
            );
            let via_view = sub.materialize(&bitmap);
            let baseline = sub.materialize_baseline(&bitmap);
            prop_assert_eq!(via_view.rows(), baseline.rows());
            prop_assert_eq!(via_view.schema().names(), baseline.schema().names());
            prop_assert_eq!(&via_view.name, &baseline.name);
            prop_assert_eq!(
                sub.materialize_view(&bitmap).reported_size(),
                baseline.reported_size()
            );
        }
    }

    /// A pool with what the encoder has to decide per state: floats with
    /// nulls, an integer, two categoricals (one with nulls) and a column that
    /// is numeric except for one row.
    fn mixed_pool() -> Vec<Dataset> {
        const REGIONS: [&str; 4] = ["north", "south", "east", "west"];
        const TIERS: [&str; 3] = ["basic", "plus", "pro"];
        let rows = (0..150i64)
            .map(|i| {
                let x1 = ((i * 37) % 101) as f64 / 50.0 - 1.0;
                let x2 = ((i * 53) % 89) as f64 / 44.0 - 1.0;
                let (region, tier) = ((i * 7 % 4) as usize, (i * 5 % 3) as usize);
                vec![
                    Value::Int(i),
                    Value::Float(x1),
                    if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::Float(x2)
                    },
                    Value::Int(i % 40),
                    Value::Str(REGIONS[region].into()),
                    if i % 17 == 0 {
                        Value::Null
                    } else {
                        Value::Str(TIERS[tier].into())
                    },
                    if i == 3 {
                        Value::Str("n/a".into())
                    } else {
                        Value::Float((i % 9) as f64)
                    },
                    Value::Float(1.5 * x1 - x2 + 0.3 * tier as f64 - 0.1 * region as f64),
                ]
            })
            .collect();
        let schema = Schema::from_attributes(
            [Attribute::key("id")]
                .into_iter()
                .chain(["x1", "x2", "visits", "region", "tier", "grade"].map(Attribute::feature))
                .chain([Attribute::target("y")]),
        );
        vec![Dataset::from_rows("mixed", schema, rows).unwrap()]
    }

    /// Ridge scored on R², MSE and MAE.
    fn ridge_task() -> TaskSpec {
        TaskSpec {
            measures: MeasureSet::new(vec![
                MeasureSpec::maximise("p_R2"),
                MeasureSpec::minimise("p_MSE", 4.0),
                MeasureSpec::minimise("p_MAE", 2.0),
            ]),
            metric_kinds: vec![MetricKind::R2, MetricKind::Mse, MetricKind::Mae],
            ..task()
        }
    }

    /// Both start states, every single flip and a chain of multi-flips.
    fn sample_states(sub: &TableSubstrate) -> Vec<StateBitmap> {
        let mut states = vec![sub.forward_start(), sub.backward_start()];
        states.extend((0..sub.num_units()).map(|i| sub.forward_start().flipped(i)));
        let mut chain = sub.forward_start();
        for i in (0..sub.num_units()).step_by(2) {
            chain = chain.flipped(i);
            states.push(chain.clone());
        }
        states
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn valuation_through_the_projection_equals_valuation_of_the_owned_copy() {
        let sub = TableSubstrate::from_pool(&mixed_pool(), ridge_task(), &Default::default());
        let states = sample_states(&sub);
        assert!(states.len() > 20);
        for s in &states {
            let owned = sub.materialize(s);
            let expected = crate::task::evaluate_dataset(sub.task(), &owned);
            assert_eq!(bits(&sub.evaluate_raw(s)), bits(&expected.raw), "{s}");
            assert_eq!(sub.artifact_size(s), owned.reported_size(), "{s}");

            // The null statistics: popcounts against the columns' masks
            // equal the owned copy's.
            let view = sub.materialize_view(s);
            assert_eq!(view.reported_size(), owned.reported_size(), "{s}");
            assert_eq!(
                view.missing_ratio().to_bits(),
                owned.missing_ratio().to_bits(),
                "{s}"
            );
        }
    }

    #[test]
    fn concurrent_first_touch_yields_the_sequential_matrix() {
        use modis_ml::encoding::encode_view;
        let sequential =
            TableSubstrate::from_pool(&mixed_pool(), ridge_task(), &Default::default());
        let states = sample_states(&sequential);
        let opts = sequential.task().encode_options();
        // What a thread must see of a state: its matrix and its valuation.
        let observe = |sub: &TableSubstrate, s: &StateBitmap| {
            let e = encode_view(&sub.materialize_view(s), &opts);
            let rows: Vec<Vec<u64>> = e.features.rows().map(bits).collect();
            let raw = bits(&sub.evaluate_raw(s));
            (rows, bits(&e.targets), e.feature_names, raw)
        };
        let expected: Vec<_> = states.iter().map(|s| observe(&sequential, s)).collect();

        // ApxMODis' wave workers first-touch a fresh substrate together.
        const THREADS: usize = 8;
        let fresh = TableSubstrate::from_pool(&mixed_pool(), ridge_task(), &Default::default());
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (fresh, barrier, states, observe, expected) =
                    (&fresh, &barrier, &states, &observe, &expected);
                scope.spawn(move || {
                    barrier.wait();
                    // Every thread starts somewhere else in the state list.
                    for k in 0..states.len() {
                        let i = (k + t * 5) % states.len();
                        assert_eq!(
                            observe(fresh, &states[i]),
                            expected[i],
                            "thread {t} state {i}"
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn eval_cache_is_bounded_and_counts_evictions() {
        let config = TableSpaceConfig {
            eval_cache_capacity: 2,
            ..TableSpaceConfig::default()
        };
        let sub = TableSubstrate::from_pool(&pool(), task(), &config);
        for i in 0..4 {
            let _ = sub.evaluate_raw(&sub.forward_start().flipped(i));
        }
        let stats = sub.cache_stats();
        assert!(stats.entries <= 2, "entries = {}", stats.entries);
        assert!(stats.evictions >= 2, "evictions = {}", stats.evictions);
        // Evicted states are simply re-valuated, same values.
        let a = sub.evaluate_raw(&sub.forward_start().flipped(0));
        let b = sub.evaluate_raw(&sub.forward_start().flipped(0));
        assert_eq!(a, b);
    }

    #[test]
    fn state_features_and_evaluate_share_one_record() {
        let sub = TableSubstrate::from_pool(&pool(), task(), &TableSpaceConfig::default());
        let s = sub.forward_start().flipped(1);
        let f1 = sub.state_features(&s);
        let _ = sub.evaluate_raw(&s);
        let f2 = sub.state_features(&s);
        assert_eq!(f1, f2);
        assert_eq!(sub.cache_stats().entries, 1);
    }
}
