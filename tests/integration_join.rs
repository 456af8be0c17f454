//! Differential witness for the universal table `D_U` and `hash_join`.
//!
//! The oracle is the two-table `hash_join` body the pairwise fold of
//! `universal_table` used to call, kept here verbatim, and the fold itself.
//! Every output the product join returns must equal the oracle's: the same
//! name, schema, row order and cells (floats by `to_bits`), and the same
//! `Ok` / `Err` whichever table lacks the key.
//!
//! Keys are drawn where `Value`'s `Hash` and `Eq` make a join decide the
//! same way in every process: duplicates, nulls, NaNs of either sign,
//! `Int` / `Float` pairs, `Int(2^53)` beside `Int(2^53 + 1)` (equal hashes,
//! unequal values) and infinities (which equal nothing, not even
//! themselves). `Float(0.0)` and `Float(-0.0)` are equal but hash apart,
//! so whether they meet in a hash index depends on the map's random state,
//! in the oracle as much as in the product: a pool draws zero keys of one
//! sign only. For the same reason no `Float` key lies within rounding of
//! `2^53`, where one lookup would equal two unequal stored keys.

use std::collections::HashMap;

use modis_core::prelude::*;
use modis_data::{
    hash_join, universal_table, Attribute, DataError, Dataset, JoinKind, Schema, Value,
};
use proptest::prelude::*;
use proptest::TestRng;

/// `hash_join` as the pairwise fold called it: the oracle.
fn oracle_hash_join(
    left: &Dataset,
    right: &Dataset,
    key: &str,
    kind: JoinKind,
) -> Result<Dataset, DataError> {
    let lk = left
        .schema()
        .position(key)
        .ok_or_else(|| DataError::MissingJoinKey(key.to_string()))?;
    let rk = right
        .schema()
        .position(key)
        .ok_or_else(|| DataError::MissingJoinKey(key.to_string()))?;

    let out_schema = left.schema().union(right.schema());
    let out = Dataset::new(format!("{}⋈{}", left.name, right.name), out_schema);

    // Column maps from each operand into the output schema.
    let lmap: Vec<usize> = left
        .schema()
        .names()
        .iter()
        .map(|n| out.schema().position(n).expect("union contains left attr"))
        .collect();
    let rmap: Vec<usize> = right
        .schema()
        .names()
        .iter()
        .map(|n| out.schema().position(n).expect("union contains right attr"))
        .collect();

    // Build hash index on the right side.
    let mut index: HashMap<Value, Vec<usize>> = HashMap::new();
    for (i, row) in right.rows().iter().enumerate() {
        let k = row[rk].clone();
        if k.is_null() {
            continue;
        }
        index.entry(k).or_default().push(i);
    }

    let width = out.num_columns();
    let mut right_matched = vec![false; right.num_rows()];
    let right_rows = right.rows();
    let mut rows = Vec::new();

    for lrow in left.rows() {
        let k = &lrow[lk];
        let matches = if k.is_null() { None } else { index.get(k) };
        match matches {
            Some(ris) if !ris.is_empty() => {
                for &ri in ris {
                    right_matched[ri] = true;
                    let rrow = &right_rows[ri];
                    let mut new_row = vec![Value::Null; width];
                    for (ci, &oi) in lmap.iter().enumerate() {
                        new_row[oi] = lrow[ci].clone();
                    }
                    for (ci, &oi) in rmap.iter().enumerate() {
                        if new_row[oi].is_null() {
                            new_row[oi] = rrow[ci].clone();
                        }
                    }
                    rows.push(new_row);
                }
            }
            _ => {
                if kind != JoinKind::Inner {
                    let mut new_row = vec![Value::Null; width];
                    for (ci, &oi) in lmap.iter().enumerate() {
                        new_row[oi] = lrow[ci].clone();
                    }
                    rows.push(new_row);
                }
            }
        }
    }

    if kind == JoinKind::FullOuter {
        for (ri, rrow) in right_rows.iter().enumerate() {
            if right_matched[ri] {
                continue;
            }
            let mut new_row = vec![Value::Null; width];
            for (ci, &oi) in rmap.iter().enumerate() {
                new_row[oi] = rrow[ci].clone();
            }
            rows.push(new_row);
        }
    }

    let schema = out.schema().clone();
    Ok(Dataset::from_rows(out.name, schema, rows).expect("rows of the union schema"))
}

/// `universal_table` as the pairwise fold it was: the oracle.
fn oracle_universal_table(pool: &[Dataset], key: &str) -> Result<Dataset, DataError> {
    let mut iter = pool.iter();
    let first = match iter.next() {
        Some(d) => d.clone(),
        None => return Ok(Dataset::new("D_U", Schema::new())),
    };
    let mut acc = first;
    for d in iter {
        acc = oracle_hash_join(&acc, d, key, JoinKind::FullOuter)?;
    }
    acc.name = "D_U".to_string();
    Ok(acc)
}

/// A cell as its exact bits: a float compares by `to_bits`, so the sign of
/// zero and a NaN's payload tell which table's cell was kept.
#[derive(Debug, PartialEq)]
enum Bits<'a> {
    Null,
    Int(i64),
    Float(u64),
    Str(&'a str),
    Bool(bool),
}

fn bits(v: &Value) -> Bits<'_> {
    match v {
        Value::Null => Bits::Null,
        Value::Int(i) => Bits::Int(*i),
        Value::Float(f) => Bits::Float(f.to_bits()),
        Value::Str(s) => Bits::Str(s),
        Value::Bool(b) => Bits::Bool(*b),
    }
}

fn assert_same_table(got: &Dataset, want: &Dataset, context: &str) {
    assert_eq!(got.name, want.name, "{context}: name");
    assert_eq!(got.schema(), want.schema(), "{context}: schema");
    assert_eq!(got.num_rows(), want.num_rows(), "{context}: row count");
    for (i, (g, w)) in got.rows().iter().zip(want.rows()).enumerate() {
        let (g, w): (Vec<_>, Vec<_>) = (g.iter().map(bits).collect(), w.iter().map(bits).collect());
        assert_eq!(g, w, "{context}: row {i}");
    }
}

fn assert_same(got: &Result<Dataset, DataError>, want: &Result<Dataset, DataError>, context: &str) {
    match (got, want) {
        (Ok(g), Ok(w)) => assert_same_table(g, w, context),
        (Err(g), Err(w)) => assert_eq!(g, w, "{context}: error"),
        _ => panic!("{context}: got {got:?}, the fold gave {want:?}"),
    }
}

/// Draws from a seeded stream.
struct Draw(TestRng);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0.usize_in(0, n)
    }

    fn chance(&mut self, p: f64) -> bool {
        self.0.unit_f64() < p
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

const KEY: &str = "id";
const COLUMNS: [&str; 5] = ["a", "b", "c", "d", "e"];
const BIG: i64 = 1 << 53;

/// One join key: small integers and their float twins, zero of the pool's
/// sign, NaNs of either sign, `2^53` and `2^53 + 1`, an infinity, strings
/// and nulls, from a domain small enough that keys repeat.
fn key_cell(d: &mut Draw, negative_zero: bool) -> Value {
    match d.below(11) {
        0 => Value::Null,
        1 | 2 => Value::Int(1 + d.below(3) as i64),
        3 => Value::Float(1.0 + d.below(3) as f64),
        4 if negative_zero => Value::Float(-0.0),
        4 if d.chance(0.5) => Value::Float(0.0),
        4 => Value::Int(0),
        5 => Value::Float(if d.chance(0.5) { f64::NAN } else { -f64::NAN }),
        6 => Value::Int(BIG),
        7 => Value::Int(BIG + 1),
        8 => Value::Float(f64::INFINITY),
        _ => Value::Str(format!("k{}", d.below(2))),
    }
}

/// One non-key cell: often null, so overlapping columns fill each other.
fn other_cell(d: &mut Draw) -> Value {
    match d.below(8) {
        0..=2 => Value::Null,
        3 => Value::Int(d.below(5) as i64),
        4 => Value::Float([0.0, -0.0, 1.5, f64::NAN, -f64::NAN][d.below(5)]),
        5 => Value::Bool(d.chance(0.5)),
        _ => Value::Str(format!("s{}", d.below(3))),
    }
}

/// One source table over the key (when `keyed`) and a random subset of
/// the shared columns, in a random order; `e` is a target in some tables
/// and a feature in others, so the universal schema's first-occurrence
/// rule shows.
fn draw_table(d: &mut Draw, index: usize, keyed: bool, negative_zero: bool) -> Dataset {
    let mut names: Vec<&str> = COLUMNS.iter().copied().filter(|_| d.chance(0.5)).collect();
    if keyed {
        names.push(KEY);
    }
    d.shuffle(&mut names);
    let attrs = names.iter().map(|&n| match n {
        KEY => Attribute::key(n),
        "e" if d.chance(0.5) => Attribute::target(n),
        _ => Attribute::feature(n),
    });
    let schema = Schema::from_attributes(attrs.collect::<Vec<_>>());
    let rows = (0..d.below(7))
        .map(|_| {
            names
                .iter()
                .map(|&n| {
                    if n == KEY {
                        key_cell(d, negative_zero)
                    } else {
                        other_cell(d)
                    }
                })
                .collect()
        })
        .collect();
    Dataset::from_rows(format!("T{index}"), schema, rows).unwrap()
}

/// A pool of 1–6 tables. One case in four has a table without the key:
/// the first, a later one, or a lone one.
fn draw_pool(d: &mut Draw) -> Vec<Dataset> {
    let len = 1 + d.below(6);
    let keyless = match d.below(8) {
        0 => Some(0),
        1 => Some(d.below(len)),
        _ => None,
    };
    let negative_zero = d.chance(0.5);
    (0..len)
        .map(|i| draw_table(d, i, keyless != Some(i), negative_zero))
        .collect()
}

fn check_pool(pool: &[Dataset], context: &str) {
    let got = universal_table(pool, KEY);
    assert_same(&got, &oracle_universal_table(pool, KEY), context);
    if let [l, r, ..] = pool {
        for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::FullOuter] {
            for (a, b) in [(l, r), (r, l)] {
                let context = format!("{context}: {}⋈{} {kind:?}", a.name, b.name);
                let want = oracle_hash_join(a, b, KEY, kind);
                assert_same(&hash_join(a, b, KEY, kind), &want, &context);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_universal_table_and_hash_join_match_the_pairwise_fold(seed in any::<u64>()) {
        let mut d = Draw(TestRng::deterministic(&format!("join-{seed}")));
        let mut pool = draw_pool(&mut d);
        check_pool(&pool, &format!("seed {seed}"));
        d.shuffle(&mut pool);
        check_pool(&pool, &format!("seed {seed}, permuted"));
    }
}

#[test]
fn a_missing_key_errs_wherever_the_fold_errs() {
    let mut d = Draw(TestRng::deterministic("missing-key"));
    let keyed = |d: &mut Draw, i| draw_table(d, i, true, false);
    let keyless = |d: &mut Draw, i| draw_table(d, i, false, false);
    let lone = vec![keyless(&mut d, 0)];
    let first = vec![keyless(&mut d, 0), keyed(&mut d, 1), keyed(&mut d, 2)];
    let later = vec![keyed(&mut d, 0), keyed(&mut d, 1), keyless(&mut d, 2)];
    assert!(
        universal_table(&lone, KEY).is_ok(),
        "a lone table is cloned, key or not"
    );
    for (pool, name) in [(&lone, "lone"), (&first, "first"), (&later, "later")] {
        check_pool(pool, name);
    }
    let missing = Err(DataError::MissingJoinKey(KEY.into()));
    assert_eq!(universal_table(&first, KEY), missing);
    assert_eq!(universal_table(&later, KEY), missing);
    assert_eq!(
        hash_join(&later[0], &later[2], KEY, JoinKind::Inner),
        missing
    );
}

#[test]
fn empty_pools_and_tables_match_the_fold() {
    let mut d = Draw(TestRng::deterministic("empty"));
    check_pool(&[], "empty pool");
    let schema = Schema::from_attributes(vec![Attribute::key(KEY), Attribute::feature("a")]);
    let empty = Dataset::new("E", schema);
    let full = draw_table(&mut d, 1, true, false);
    check_pool(&[empty.clone(), full.clone()], "empty first");
    check_pool(&[full, empty.clone(), empty], "empty later");
}

fn task(target: &str) -> TaskSpec {
    TaskSpec {
        name: "join".into(),
        model: ModelKind::LinearRegressor,
        target: target.into(),
        key: Some(KEY.into()),
        measures: MeasureSet::new(vec![
            MeasureSpec::maximise("p_R2"),
            MeasureSpec::minimise("p_MSE", 4.0),
        ]),
        metric_kinds: vec![MetricKind::R2, MetricKind::Mse],
        train_ratio: 0.7,
        seed: 1,
    }
}

/// The substrate built from a pool has the fingerprint of the one built
/// from the fold's universal table: every cell of `D_U` is the same.
fn assert_same_substrate(pool: &[Dataset], target: &str, context: &str) {
    let config = TableSpaceConfig::default();
    let want = oracle_universal_table(pool, KEY).unwrap();
    let built = TableSubstrate::from_pool(pool, task(target), &config);
    assert_same_table(built.universal(), &want, context);
    let folded = TableSubstrate::from_universal(want, task(target), &config);
    assert_eq!(
        built.fingerprint(),
        folded.fingerprint(),
        "{context}: fingerprint"
    );
}

#[test]
fn paper_pools_build_the_substrates_the_fold_built() {
    type Generator = fn(u64) -> modis_datagen::TablePool;
    let generators: [(&str, Generator); 4] = [
        ("t1", modis_datagen::t1_movie),
        ("t2", modis_datagen::t2_house),
        ("t3", modis_datagen::t3_avocado),
        ("t4", modis_datagen::t4_mental),
    ];
    for (name, generate) in generators {
        for seed in [1, 7, 15] {
            let pool = generate(seed);
            assert_same_substrate(&pool.tables, &pool.target, &format!("{name}/{seed}"));
        }
    }
}

/// A churn-shaped pool over three tables: 1,000 base rows of floats with
/// nulls and a target, a table of integers missing every seventh id, and
/// a table of categoricals repeating every thirteenth id and adding ids the
/// base lacks. Its first table alone is the benchmark's one-table shape.
fn churn_style_pool() -> Vec<Dataset> {
    const REGIONS: [&str; 4] = ["north", "south", "east", "west"];
    let mut d = Draw(TestRng::deterministic("churn"));
    let schema = |names: &[&str]| {
        Schema::from_attributes(names.iter().map(|&n| match n {
            KEY => Attribute::key(n),
            "y" => Attribute::target(n),
            _ => Attribute::feature(n),
        }))
    };
    let float = |d: &mut Draw| {
        if d.chance(0.1) {
            Value::Null
        } else {
            Value::Float(d.0.unit_f64() * 2.0 - 1.0)
        }
    };
    let base = (0..1_000i64)
        .map(|i| vec![Value::Int(i), float(&mut d), float(&mut d), float(&mut d)])
        .collect();
    let visits = (0..1_000i64)
        .filter(|i| i % 7 != 0)
        .map(|i| vec![Value::Int(i), Value::Int(d.below(40) as i64)])
        .collect();
    let regions = (0..1_100i64)
        .flat_map(|i| if i % 13 == 0 { vec![i, i] } else { vec![i] })
        .map(|i| {
            let region = Value::Str(REGIONS[d.below(4)].into());
            let tier = if d.chance(0.06) {
                Value::Null
            } else {
                Value::Int(d.below(3) as i64)
            };
            vec![Value::Int(i), region, tier]
        })
        .collect();
    vec![
        Dataset::from_rows("churn", schema(&[KEY, "x1", "x2", "y"]), base).unwrap(),
        Dataset::from_rows("visits", schema(&[KEY, "visits"]), visits).unwrap(),
        Dataset::from_rows("regions", schema(&[KEY, "region", "tier"]), regions).unwrap(),
    ]
}

#[test]
fn a_churn_style_pool_builds_the_substrate_the_fold_built() {
    let pool = churn_style_pool();
    assert_same_substrate(&pool, "y", "churn, three tables");
    assert_same_substrate(&pool[..1], "y", "churn, one table");
}

/// A pool of two or more tables with one lacking the key has no universal
/// table: `TableSubstrate::try_from_pool` returns the join's error, keyed
/// or not the other tables, and `from_pool` panics with it rather than
/// build a search space without them. A lone keyless table joins (its
/// columns are shared) and builds.
#[test]
fn one_keyless_table_leaves_the_substrate_only_the_first_table() {
    let tables = modis_datagen::t1_movie(1).tables;
    let drop_key = |t: &Dataset| {
        let names: Vec<&str> = t
            .schema()
            .names()
            .into_iter()
            .filter(|&n| n != KEY)
            .collect();
        t.project_by_names(&names)
    };
    let config = TableSpaceConfig::default();
    let missing = DataError::MissingJoinKey(KEY.into());
    for keyless_at in [0, 2] {
        let mut pool = tables.clone();
        pool[keyless_at] = drop_key(&pool[keyless_at]);
        assert_eq!(universal_table(&pool, KEY).unwrap_err(), missing);
        let built = TableSubstrate::try_from_pool(&pool, task("target"), &config);
        assert_eq!(
            built.err(),
            Some(missing.clone()),
            "keyless table {keyless_at}"
        );
        let panicked = std::panic::catch_unwind(|| {
            TableSubstrate::from_pool(&pool, task("target"), &config);
        });
        let message = panicked.expect_err("from_pool panics");
        let message = message
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(message.contains(&missing.to_string()), "{message}");
    }
    let lone = [drop_key(&tables[0])];
    let sub = TableSubstrate::from_pool(&lone, task("target"), &config);
    assert_eq!(sub.universal().name, "D_U");
    assert_eq!(sub.universal().rows(), lone[0].rows());
}

/// A float key equal to two unequal integer keys (`2^53` and `2^53 + 1`)
/// joins the group of the first of them in the right table, as the fold's
/// index grouped it; each left key below equals one stored key only.
#[test]
fn a_float_beside_two_large_ints_groups_and_keys_as_the_fold_did() {
    let schema = || Schema::from_attributes(vec![Attribute::key(KEY), Attribute::feature("a")]);
    let table = |name: &str, keys: Vec<Value>| {
        let rows = (0..).zip(keys).map(|(i, k)| vec![k, Value::Int(i)]);
        Dataset::from_rows(name, schema(), rows.collect()).unwrap()
    };
    let right = table(
        "R",
        vec![
            Value::Int(BIG),
            Value::Float(BIG as f64),
            Value::Int(BIG + 1),
        ],
    );
    let left = table("L", vec![Value::Int(BIG + 1), Value::Int(BIG)]);
    for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::FullOuter] {
        let want = oracle_hash_join(&left, &right, KEY, kind);
        assert_same(
            &hash_join(&left, &right, KEY, kind),
            &want,
            &format!("{kind:?}"),
        );
    }
    let pool = [left, right];
    let got = universal_table(&pool, KEY);
    assert_same(&got, &oracle_universal_table(&pool, KEY), "D_U");
    assert_eq!(
        got.unwrap().num_rows(),
        3,
        "2^53 + 1 meets one row, 2^53 two"
    );

    // A tuple's key is its first table's: `2^53` meets the float, and the
    // pair then misses `2^53 + 1`, which the float alone would have met.
    let pool = [
        table("A", vec![Value::Int(BIG)]),
        table("F", vec![Value::Float(BIG as f64)]),
        table("C", vec![Value::Int(BIG + 1)]),
    ];
    let got = universal_table(&pool, KEY);
    assert_same(&got, &oracle_universal_table(&pool, KEY), "first key");
    assert_eq!(got.unwrap().num_rows(), 2, "the pair and 2^53 + 1 alone");
}
