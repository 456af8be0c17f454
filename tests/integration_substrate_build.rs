//! Pins what building a tabular search space produces: every unit label,
//! every cluster literal (by `Debug`, which keeps the sign of zero), the
//! row mask each cluster unit removes and the substrate fingerprint, folded
//! into one FNV-1a digest per pool. A change to how `TableSubstrate` derives
//! its literals or valuates their masks must leave every digest in place.

use modis_core::prelude::*;
use modis_core::table_substrate::TableUnit;
use modis_data::{Attribute, ClusterConfig, Dataset, Schema, StateBitmap, Value};

/// FNV-1a over a byte stream, folded one field at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.bytes(&(s.len() as u64).to_le_bytes());
        self.bytes(s.as_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

fn task(target: &str) -> TaskSpec {
    TaskSpec {
        name: "substrate-build".into(),
        model: ModelKind::LinearRegressor,
        target: target.into(),
        key: Some("id".into()),
        measures: MeasureSet::new(vec![
            MeasureSpec::maximise("p_R2"),
            MeasureSpec::minimise("p_MSE", 4.0),
        ]),
        metric_kinds: vec![MetricKind::R2, MetricKind::Mse],
        train_ratio: 0.7,
        seed: 1,
    }
}

/// Builds the substrate under the default clustering and folds what its
/// construction decided.
fn build_digest(pool: &[Dataset], target: &str, max_clusters_per_attr: usize) -> u64 {
    let config = TableSpaceConfig {
        max_clusters_per_attr,
        ..TableSpaceConfig::default()
    };
    config_digest(pool, target, &config)
}

/// Builds the substrate under `config` and folds what its construction
/// decided.
fn config_digest(pool: &[Dataset], target: &str, config: &TableSpaceConfig) -> u64 {
    let sub = TableSubstrate::from_pool(pool, task(target), config);
    let mut h = Fnv::new();
    h.u64(sub.num_units() as u64);
    for (i, unit) in sub.units().iter().enumerate() {
        h.str(&sub.unit_label(i));
        if let TableUnit::Cluster { literal, .. } = unit {
            h.str(&format!("{literal:?}"));
            let view = sub.materialize_view(&sub.forward_start().flipped(i));
            for &w in view.mask().words() {
                h.u64(w);
            }
        }
    }
    h.u64(sub.fingerprint());
    h.0
}

/// A 1,000-row pool shaped like the benchmark's churn pools: floats with
/// nulls, an integer, two categoricals (one with nulls), a linear target.
fn churn_shaped_pool() -> Vec<Dataset> {
    const REGIONS: [&str; 4] = ["north", "south", "east", "west"];
    const TIERS: [&str; 3] = ["basic", "plus", "pro"];
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let rows = (0..1_000i64)
        .map(|i| {
            let x1 = (next() % 10_000) as f64 / 5_000.0 - 1.0;
            let x2 = (next() % 10_000) as f64 / 5_000.0 - 1.0;
            let visits = (next() % 40) as i64;
            let region = (next() % 4) as usize;
            let tier = (next() % 3) as usize;
            let (x2_null, tier_null) = (next() % 11 == 0, next() % 17 == 0);
            vec![
                Value::Int(i),
                Value::Float(x1),
                if x2_null {
                    Value::Null
                } else {
                    Value::Float(x2)
                },
                Value::Int(visits),
                Value::Str(REGIONS[region].into()),
                if tier_null {
                    Value::Null
                } else {
                    Value::Str(TIERS[tier].into())
                },
                Value::Float(1.5 * x1 - x2 + 0.02 * visits as f64 + 0.3 * tier as f64),
            ]
        })
        .collect();
    let schema = Schema::from_attributes(
        [Attribute::key("id")]
            .into_iter()
            .chain(["x1", "x2", "visits", "region", "tier"].map(Attribute::feature))
            .chain([Attribute::target("y")]),
    );
    vec![Dataset::from_rows("churn", schema, rows).unwrap()]
}

#[test]
fn paper_pools_build_the_pinned_search_spaces() {
    type Generator = fn(u64) -> modis_datagen::TablePool;
    let generators: [(&str, Generator); 4] = [
        ("t1", modis_datagen::t1_movie),
        ("t2", modis_datagen::t2_house),
        ("t3", modis_datagen::t3_avocado),
        ("t4", modis_datagen::t4_mental),
    ];
    let mut got = Vec::new();
    for (name, generate) in generators {
        for seed in [1, 15] {
            let pool = generate(seed);
            for max_clusters in [2, 3] {
                let digest = build_digest(&pool.tables, &pool.target, max_clusters);
                got.push(format!("{name}/{seed}/{max_clusters}={digest:016x}"));
            }
        }
    }
    let expected = [
        "t1/1/2=b9d0ac99c2f91900",
        "t1/1/3=8271ab12804f8d7f",
        "t1/15/2=9b109cdb2609f931",
        "t1/15/3=8c56bcc0277a77c4",
        "t2/1/2=b905081d52a265ee",
        "t2/1/3=5566db264143838b",
        "t2/15/2=13f41ca668965c21",
        "t2/15/3=4edf8e054ab3f790",
        "t3/1/2=896f8ad1df14c017",
        "t3/1/3=e392ca8890734965",
        "t3/15/2=22026dceb3867848",
        "t3/15/3=b3a1407c63e49350",
        "t4/1/2=ba073fb6c61607aa",
        "t4/1/3=0935ff181179f27d",
        "t4/15/2=ca969e779baddc99",
        "t4/15/3=e7b8150980da2875",
    ];
    assert_eq!(got, expected);
}

#[test]
fn a_churn_shaped_pool_builds_the_pinned_search_space() {
    let pool = churn_shaped_pool();
    let got: Vec<String> = [2, 3]
        .map(|max_clusters| format!("{:016x}", build_digest(&pool, "y", max_clusters)))
        .to_vec();
    let expected = ["e6e79b53986901b6", "ee81daa6d1748bcf"];
    assert_eq!(got, expected);
}

/// The paper's clustering (`max_k` 30, 25 iterations) with every cluster
/// exposed as a unit: k-means runs with more centroids than one 8-point
/// chunk of the assignment scan holds.
#[test]
fn the_paper_clustering_builds_the_pinned_search_spaces() {
    let config = TableSpaceConfig {
        cluster: ClusterConfig::default(),
        max_clusters_per_attr: 30,
        ..TableSpaceConfig::default()
    };
    type Generator = fn(u64) -> modis_datagen::TablePool;
    let generators: [(&str, Generator); 4] = [
        ("t1", modis_datagen::t1_movie),
        ("t2", modis_datagen::t2_house),
        ("t3", modis_datagen::t3_avocado),
        ("t4", modis_datagen::t4_mental),
    ];
    let mut got = Vec::new();
    for (name, generate) in generators {
        for seed in [1, 15] {
            let pool = generate(seed);
            let digest = config_digest(&pool.tables, &pool.target, &config);
            got.push(format!("{name}/{seed}={digest:016x}"));
        }
    }
    let digest = config_digest(&churn_shaped_pool(), "y", &config);
    got.push(format!("churn={digest:016x}"));
    let expected = [
        "t1/1=12a07e2b2478970f",
        "t1/15=ae7aa2e01bb1153d",
        "t2/1=e851c57f87bd01b6",
        "t2/15=a1f2bf8243ef5ab7",
        "t3/1=6a5a7a896e9ffb71",
        "t3/15=86dafe9029cc873f",
        "t4/1=01c4b27ae5085805",
        "t4/15=187a17c64e9d9d6a",
        "churn=dcd822268e0a05ba",
    ];
    assert_eq!(got, expected);
}

/// The churn-shaped pool's substrate fingerprint, alone: fingerprints
/// persist in snapshots, so how the universal table is stored must not
/// move it.
#[test]
fn a_churn_shaped_pool_has_the_pinned_fingerprint() {
    let sub = TableSubstrate::from_pool(&churn_shaped_pool(), task("y"), &Default::default());
    assert_eq!(format!("{:016x}", sub.fingerprint()), "1b365d17e818f2fc");
}

/// Both start states, every single flip and a chain of every third flip.
fn sample_states(sub: &TableSubstrate) -> Vec<StateBitmap> {
    let mut states = vec![sub.forward_start(), sub.backward_start()];
    states.extend((0..sub.num_units()).map(|i| sub.forward_start().flipped(i)));
    let mut chain = sub.forward_start();
    for i in (0..sub.num_units()).step_by(3) {
        chain = chain.flipped(i);
        states.push(chain.clone());
    }
    states
}

/// Folds one side of a split: its matrix and targets by `to_bits`, its
/// feature names, class count and class values (floats by `to_bits`).
fn fold_encoded(h: &mut Fnv, e: &modis_ml::encoding::Encoded) {
    h.u64(e.len() as u64);
    h.u64(e.features.n_cols() as u64);
    for row in e.features.rows() {
        row.iter().for_each(|x| h.u64(x.to_bits()));
    }
    e.targets.iter().for_each(|x| h.u64(x.to_bits()));
    e.feature_names.iter().for_each(|n| h.str(n));
    h.u64(e.n_classes as u64);
    for v in &e.class_values {
        match v {
            Value::Null => h.str("null"),
            Value::Int(i) => h.u64(*i as u64),
            Value::Float(f) => h.u64(f.to_bits()),
            Value::Str(s) => h.str(s),
            Value::Bool(b) => h.u64(u64::from(*b)),
        }
    }
}

/// `encode_view_split` of sampled states of one pool, folded by `to_bits`
/// into one digest: the train and test sides (the test side's absence
/// too) at the task's ratio and seed, and the whole matrix at ratio 1.
fn encode_digest(pool: &[Dataset], target: &str, classification: bool) -> u64 {
    use modis_ml::encoding::encode_view_split;
    let mut spec = task(target);
    if classification {
        spec.model = ModelKind::LogisticClassifier;
    }
    let sub = TableSubstrate::from_pool(pool, spec, &Default::default());
    let opts = sub.task().encode_options();
    let mut h = Fnv::new();
    for state in sample_states(&sub) {
        let view = sub.materialize_view(&state);
        for (ratio, seed) in [(0.7, 1), (0.5, 9), (1.0, 0)] {
            let (train, test) = encode_view_split(&view, &opts, ratio, seed);
            fold_encoded(&mut h, &train);
            match &test {
                Some(test) => fold_encoded(&mut h, test),
                None => h.str("no test side"),
            }
        }
    }
    h.0
}

#[test]
fn sampled_states_encode_the_pinned_matrices() {
    type Generator = fn(u64) -> modis_datagen::TablePool;
    let generators: [(&str, Generator, bool); 4] = [
        ("t1", modis_datagen::t1_movie, false),
        ("t2", modis_datagen::t2_house, true),
        ("t3", modis_datagen::t3_avocado, false),
        ("t4", modis_datagen::t4_mental, true),
    ];
    let mut got = Vec::new();
    for (name, generate, classification) in generators {
        let pool = generate(1);
        let digest = encode_digest(&pool.tables, &pool.target, classification);
        got.push(format!("{name}={digest:016x}"));
    }
    let churn = churn_shaped_pool();
    for (target, classification) in [("y", false), ("visits", true), ("region", true)] {
        let digest = encode_digest(&churn, target, classification);
        got.push(format!("churn/{target}={digest:016x}"));
    }
    let expected = [
        "t1=f266c100eb29ba22",
        "t2=8ecf1df8a27a040a",
        "t3=4fe50d5b5be72d1d",
        "t4=951ec111c85db408",
        "churn/y=fd01233bc3fe4ba7",
        "churn/visits=8150729c642c7d59",
        "churn/region=6a7c02bfcaac5ec9",
    ];
    assert_eq!(got, expected);
}
