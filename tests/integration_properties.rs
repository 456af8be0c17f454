//! Property-based tests over the core invariants: dominance, ε-skyline
//! coverage, operators and the position grid.

use proptest::prelude::*;

use modis_core::dominance::{dominates, epsilon_dominates, epsilon_skyline_cover, skyline};
use modis_core::measure::{position, MeasureSet, MeasureSpec};
use modis_core::pareto::EpsilonSkyline;
use modis_data::{reduct, Dataset, Literal, Schema, StateBitmap, Value};

fn perf_vec(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..1.0, dim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Dominance is irreflexive and antisymmetric.
    #[test]
    fn dominance_is_irreflexive_and_antisymmetric(a in perf_vec(3), b in perf_vec(3)) {
        prop_assert!(!dominates(&a, &a));
        prop_assert!(!(dominates(&a, &b) && dominates(&b, &a)));
    }

    /// Dominance implies ε-dominance for every ε ≥ 0.
    #[test]
    fn dominance_implies_epsilon_dominance(a in perf_vec(3), b in perf_vec(3), eps in 0.0f64..1.0) {
        if dominates(&a, &b) {
            prop_assert!(epsilon_dominates(&a, &b, eps));
        }
    }

    /// The exact skyline of a point set ε-covers the whole set (ε = 0 works
    /// because every point is weakly dominated by some skyline member).
    #[test]
    fn skyline_covers_all_points(points in prop::collection::vec(perf_vec(3), 1..40)) {
        let front = skyline(&points);
        prop_assert!(!front.is_empty());
        prop_assert!(epsilon_skyline_cover(&points, &front, 0.0));
        // Skyline members are mutually non-dominated.
        for &i in &front {
            for &j in &front {
                if i != j {
                    prop_assert!(!dominates(&points[i], &points[j]));
                }
            }
        }
    }

    /// Points in the same ε-grid cell are within a (1+ε) factor on every
    /// non-decisive measure.
    #[test]
    fn same_cell_implies_close_values(a in perf_vec(3), eps in 0.05f64..0.5, factor in 1.0f64..1.01) {
        let measures = MeasureSet::new(vec![
            MeasureSpec::maximise("m0"),
            MeasureSpec::maximise("m1"),
            MeasureSpec::minimise("m2", 1.0),
        ]);
        let b: Vec<f64> = a.iter().map(|v| (v * factor).min(1.0)).collect();
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        position(&a, &measures, eps, 2, &mut pa);
        position(&b, &measures, eps, 2, &mut pb);
        if pa == pb {
            for (x, y) in a.iter().zip(b.iter()).take(2) {
                let ratio = if x > y { x / y } else { y / x };
                prop_assert!(ratio <= (1.0 + eps) * (1.0 + 1e-9));
            }
        }
    }

    /// The UPareto structure never keeps a member that violates an upper
    /// bound, and every inserted member stays within (0, 1].
    #[test]
    fn upareto_respects_bounds(perfs in prop::collection::vec(perf_vec(2), 1..30), eps in 0.05f64..0.4) {
        let measures = MeasureSet::new(vec![
            MeasureSpec::maximise("q").with_bounds(0.01, 0.8),
            MeasureSpec::minimise("c", 1.0).with_bounds(0.01, 0.9),
        ]);
        let mut sky = EpsilonSkyline::new(measures.clone(), eps, None);
        for (i, p) in perfs.iter().enumerate() {
            sky.offer(&StateBitmap::full(4).flipped(i % 4), p, i);
        }
        for entry in sky.entries() {
            prop_assert!(!measures.violates_upper(&entry.perf));
            prop_assert!(entry.perf.iter().all(|&v| v > 0.0 && v <= 1.0));
        }
    }

    /// Reduct never increases the number of rows, and the removed rows are
    /// exactly those matching the literal.
    #[test]
    fn reduct_removes_exactly_matching_rows(values in prop::collection::vec(0i64..5, 1..60), pivot in 0i64..5) {
        let schema = Schema::from_names(["a"]);
        let rows: Vec<Vec<Value>> = values.iter().map(|&v| vec![Value::Int(v)]).collect();
        let data = Dataset::from_rows("d", schema, rows).unwrap();
        let lit = Literal::equals("a", pivot);
        let matching = values.iter().filter(|&&v| v == pivot).count();
        let (out, removed) = reduct(&data, &lit);
        prop_assert_eq!(removed, matching);
        prop_assert_eq!(out.num_rows(), values.len() - matching);
        prop_assert_eq!(lit.mask(&out).count(), 0);
    }

    /// Bitmap cosine similarity is symmetric and bounded by [0, 1].
    #[test]
    fn bitmap_cosine_properties(bits_a in prop::collection::vec(any::<bool>(), 1..20), bits_b in prop::collection::vec(any::<bool>(), 1..20)) {
        let a = StateBitmap::from_bits(bits_a);
        let b = StateBitmap::from_bits(bits_b);
        let ab = a.cosine_similarity(&b);
        let ba = b.cosine_similarity(&a);
        prop_assert!((ab - ba).abs() < 1e-9);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&ab));
    }

    /// The packed `u64` `StateBitmap` is semantically identical to the old
    /// `Vec<bool>` backing: get/set/flip round-trips, population counts,
    /// hash-eq consistency and lexicographic order all match the
    /// plain-vector model, across word boundaries.
    #[test]
    fn packed_bitmap_matches_bool_vec_model(
        bits in prop::collection::vec(any::<bool>(), 0..200),
        other_bits in prop::collection::vec(any::<bool>(), 0..200),
        flips in prop::collection::vec(0usize..220, 0..24),
    ) {
        let mut model = bits.clone();
        let mut packed = StateBitmap::from_bits(bits.clone());
        prop_assert_eq!(packed.len(), model.len());
        for (i, &b) in model.iter().enumerate() {
            prop_assert_eq!(packed.get(i), b);
        }
        prop_assert_eq!(packed.count_ones(), model.iter().filter(|&&b| b).count());
        prop_assert_eq!(packed.bits(), model.clone());

        // Flip a random index sequence (some out of bounds: both no-ops).
        for &f in &flips {
            packed = packed.flipped(f);
            if f < model.len() {
                model[f] = !model[f];
            }
        }
        prop_assert_eq!(&packed, &StateBitmap::from_bits(model.clone()));

        // Hash-eq round-trip: equal bitmaps hash identically.
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |b: &StateBitmap| {
            let mut h = DefaultHasher::new();
            b.hash(&mut h);
            h.finish()
        };
        prop_assert_eq!(hash(&packed), hash(&StateBitmap::from_bits(model.clone())));

        // Ordering matches Vec<bool> lexicographic order (incl. lengths).
        let other = StateBitmap::from_bits(other_bits.clone());
        prop_assert_eq!(packed.cmp(&other), model.cmp(&other_bits));
    }

    /// A `DatasetView` over a random selection + attribute mask materialises
    /// (via `to_dataset`) to exactly the rows a clone-and-filter pass keeps,
    /// with masked cells nulled; the zero-copy size/missing statistics agree
    /// with the copy.
    #[test]
    fn dataset_view_matches_clone_and_filter(
        values in prop::collection::vec(0i64..6, 1..80),
        keep_bits in prop::collection::vec(any::<bool>(), 80),
        mask_col in 0usize..3,
    ) {
        use modis_data::{DatasetView, RowMask};
        let schema = Schema::from_names(["a", "b", "c"]);
        let rows: Vec<Vec<Value>> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                vec![
                    Value::Int(v),
                    if v % 3 == 0 { Value::Null } else { Value::Float(v as f64) },
                    Value::Int(i as i64),
                ]
            })
            .collect();
        let data = Dataset::from_rows("d", schema, rows).unwrap();

        let mask = RowMask::from_pred(data.num_rows(), |r| keep_bits[r]);
        let mut masked_cols = vec![false; 3];
        masked_cols[mask_col] = true;
        let view = DatasetView::new(&data, mask, masked_cols.clone());

        // Reference: clone, filter rows, null out the masked column.
        let kept = data.rows().into_iter().zip(&keep_bits).filter(|(_, &keep)| keep);
        let kept = kept.map(|(row, _)| row).collect();
        let mut reference = Dataset::from_rows("d", data.schema().clone(), kept).unwrap();
        for r in 0..reference.num_rows() {
            reference.set_value(r, mask_col, Value::Null).unwrap();
        }

        let owned = view.to_dataset();
        prop_assert_eq!(owned.rows(), reference.rows());
        prop_assert_eq!(owned.schema().names(), reference.schema().names());
        prop_assert_eq!(view.num_rows(), reference.num_rows());
        prop_assert_eq!(view.reported_size(), reference.reported_size());
        prop_assert!((view.missing_ratio() - reference.missing_ratio()).abs() < 1e-12);
    }
}

/// One cell of a drawn column. `kind` picks what the column holds: 0
/// floats (NaN of either payload, ±inf, ±0.0), 1 integers (the `i64`
/// extremes, 2^53 and 2^53 + 1, which no `f64` keeps), 2 strings (padded
/// numbers among words), 3 booleans, 4 all of these; every kind draws
/// nulls too.
fn drawn_cell(kind: u64, draw: u64) -> Value {
    let pick = (draw >> 8) % 9;
    if draw.is_multiple_of(7) {
        return Value::Null;
    }
    let number = [
        Value::Float(f64::NAN),
        Value::Float(f64::from_bits(0x7ff8_0000_0000_0001)),
        Value::Float(f64::INFINITY),
        Value::Float(f64::NEG_INFINITY),
        Value::Float(-0.0),
        Value::Float(0.0),
        Value::Float(pick as f64 / 4.0 - 1.0),
        Value::Float(2.5),
        Value::Float(-1.25),
    ];
    let integer = [i64::MIN, i64::MAX, 1 << 53, (1 << 53) + 1, 0, 1, -3, 7, 2];
    let text = [
        "north", " 2.5 ", "inf", "", "south", "7", "nan", "north", "x",
    ];
    let cell = |kind: u64| match kind {
        0 => number[pick as usize].clone(),
        // 2^53 + 1 only in one column in four, so typed integers show too.
        1 if pick == 3 && !draw.is_multiple_of(4) => Value::Int(5),
        1 => Value::Int(integer[pick as usize]),
        2 => Value::Str(text[pick as usize].into()),
        _ => Value::Bool(draw & 1 == 1),
    };
    match kind {
        4 => cell((draw >> 20) % 4),
        kind => cell(kind),
    }
}

/// A cell by its exact bits, so a float's sign and NaN payload count.
fn cell_bits(v: &Value) -> (u8, u64, String) {
    match v {
        Value::Null => (0, 0, String::new()),
        Value::Int(i) => (1, *i as u64, String::new()),
        Value::Float(x) => (2, x.to_bits(), String::new()),
        Value::Str(s) => (3, 0, s.clone()),
        Value::Bool(b) => (4, u64::from(*b), String::new()),
    }
}

/// A table of drawn columns, one of each kind, and its cells as drawn.
fn drawn_table(seed: u64, n: usize) -> (Dataset, Vec<Vec<Value>>) {
    let mut state = seed | 1;
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|_| {
            (0..5)
                .map(|kind| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    drawn_cell(kind, state >> 11)
                })
                .collect()
        })
        .collect();
    let schema = Schema::from_names(["f", "i", "s", "b", "m"]);
    (
        Dataset::from_rows("drawn", schema, rows.clone()).unwrap(),
        rows,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// However a column stores its cells (typed or as values), the table
    /// gives every cell back by bits, and a view's copy of a selection
    /// keeps them too.
    #[test]
    fn columns_give_back_every_cell_by_bits(seed in any::<u64>(), n in 0usize..70) {
        use modis_data::{DatasetView, RowMask};
        let (data, rows) = drawn_table(seed, n);
        let bits = |rows: &[Vec<Value>]| -> Vec<Vec<(u8, u64, String)>> {
            rows.iter().map(|r| r.iter().map(cell_bits).collect()).collect()
        };
        prop_assert_eq!(bits(&data.rows()), bits(&rows));
        let mask = RowMask::from_pred(n, |r| (seed >> (r % 64)) & 1 == 1);
        let kept: Vec<Vec<Value>> = mask.iter().map(|r| rows[r].clone()).collect();
        let copy = DatasetView::new(&data, mask, vec![false; 5]).to_dataset();
        prop_assert_eq!(bits(&copy.rows()), bits(&kept));
    }

    /// Every literal's mask, on every kind of column, is the per-cell test
    /// of its condition: `==` for an equality, the `f64` reading for a
    /// range, `Null` for `IS NULL`.
    #[test]
    fn literal_masks_equal_the_per_cell_test(
        seed in any::<u64>(),
        n in 0usize..70,
        draws in prop::collection::vec(any::<u64>(), 6),
    ) {
        let (data, rows) = drawn_table(seed, n);
        let bound = |d: u64| [f64::NEG_INFINITY, -1.0, -0.0, 0.5, 2.5, f64::INFINITY][(d % 6) as usize];
        for (c, name) in ["f", "i", "s", "b", "m"].into_iter().enumerate() {
            let (lo, hi) = (bound(draws[0]), bound(draws[1]));
            let target = drawn_cell(draws[2] % 5, draws[3]);
            for literal in [
                Literal::range(name, lo, hi),
                Literal::equals(name, target.clone()),
                Literal::is_null(name),
            ] {
                let (lo, hi) = (lo.min(hi), lo.max(hi));
                let expected: Vec<bool> = rows
                    .iter()
                    .map(|row| match &literal.condition {
                        modis_data::Condition::Range { .. } => {
                            row[c].as_f64().is_some_and(|x| x >= lo && x <= hi)
                        }
                        modis_data::Condition::Equals(t) => &row[c] == t,
                        modis_data::Condition::IsNull => row[c].is_null(),
                    })
                    .collect();
                let mask = literal.mask(&data);
                let got: Vec<bool> = (0..n).map(|r| mask.get(r)).collect();
                prop_assert_eq!(got, expected, "{}", literal);
            }
        }
    }
}

/// Resident keys of a `SieveCache`, oldest to newest, read through
/// `iter_slots` so that looking does not count as a lookup.
fn resident(cache: &modis_core::sieve_cache::SieveCache<u64, u64>) -> Vec<u64> {
    cache.iter_slots().map(|(&key, _)| key).collect()
}

/// A scan does not flush what is asked for most: a full cache of 64 keys,
/// every one read once and 16 hot ones read eight times, keeps every hot
/// key through a stream of 256 one-off keys — four times the capacity —
/// each looked up once and then inserted, the way a miss is valuated and
/// recorded. Recency alone (a visited bit) is cleared in the hand's first
/// lap, and the second lap evicts every key that was read. (16 hot keys in
/// a sketch row of 256 counters: a one-off key would have to share a
/// counter with a hot key in all four rows to outbid one.)
#[test]
fn a_scan_of_one_off_keys_keeps_the_hot_keys() {
    use modis_core::sieve_cache::SieveCache;
    const CAPACITY: u64 = 64;
    let mut cache = SieveCache::new(CAPACITY as usize);
    for key in 0..CAPACITY {
        cache.insert(key, key);
    }
    let hot: Vec<u64> = (0..CAPACITY).step_by(4).collect();
    for key in 0..CAPACITY {
        let reads = if hot.contains(&key) { 8 } else { 1 };
        for _ in 0..reads {
            assert!(cache.get(&key).is_some(), "{key} was inserted");
        }
    }
    for key in 1_000..1_000 + 4 * CAPACITY {
        assert!(cache.get(&key).is_none(), "{key} is new");
        cache.insert(key, key);
    }
    let kept = resident(&cache);
    assert_eq!(kept.len(), CAPACITY as usize);
    let lost: Vec<u64> = hot.iter().copied().filter(|k| !kept.contains(k)).collect();
    assert!(lost.is_empty(), "hot keys flushed by the scan: {lost:?}");
}

/// Two fresh caches fed one seeded stream of lookups and inserts hold the
/// same entries in the same order at every checkpoint: what a cache keeps
/// is a function of what it was asked, in every cache and every process.
#[test]
fn two_caches_fed_one_stream_list_the_same_slots() {
    use modis_core::sieve_cache::SieveCache;
    let mut state = 0x0dd_ba11_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut caches = [SieveCache::new(32), SieveCache::new(32)];
    for op in 0..20_000u64 {
        // A skewed key: small keys are drawn far more often.
        let key = next() % (1 + next() % 200);
        let read = next() % 2 == 0;
        for cache in &mut caches {
            if read {
                cache.get(&key);
            } else {
                cache.insert(key, op);
            }
        }
        if op % 500 == 499 {
            let [a, b] = &caches;
            let list = |c: &SieveCache<u64, u64>| {
                c.iter_slots().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
            };
            assert_eq!(list(a), list(b), "op {op}");
        }
    }
    assert!(caches[0].evictions() > 1_000, "the stream evicts");
}

/// Old popularity fades: the counts halve every `10 · capacity` lookups.
/// Key 0 is read four times, then waits as the victim while another key
/// is looked up `others` times; a newcomer looked up three times is then
/// inserted. It loses to key 0's four reads, and wins once forty lookups
/// (ten capacities) have halved them.
#[test]
fn a_key_read_long_ago_loses_to_a_newcomer_after_ten_capacities_of_lookups() {
    use modis_core::sieve_cache::SieveCache;
    let survives = |others: usize| {
        let mut cache = SieveCache::new(4);
        for key in 0..4 {
            cache.insert(key, key);
        }
        for _ in 0..4 {
            cache.get(&0);
        }
        // The hand clears key 0's visited bit and evicts key 1, never read.
        cache.insert(10, 10);
        for key in [2, 3, 10] {
            cache.get(&key);
        }
        for _ in 0..others {
            cache.get(&99);
        }
        for _ in 0..3 {
            cache.get(&20);
        }
        // The hand passes the visited 2, 3 and 10 and stops at key 0.
        cache.insert(20, 20);
        let kept = resident(&cache);
        assert_eq!(kept.len(), 4);
        kept.contains(&0) && !kept.contains(&20)
    };
    assert!(survives(0), "four reads outbid three lookups");
    assert!(
        !survives(40),
        "four reads halved by forty lookups lose to three"
    );
}

/// A victim the sketch has never seen is evicted for any newcomer, even
/// one never looked up: the rule admits on an empty history, so a cache
/// filled and refilled without lookups evicts exactly as SIEVE does.
#[test]
fn a_victim_never_looked_up_is_evicted_for_any_newcomer() {
    use modis_core::sieve_cache::SieveCache;
    let mut cache = SieveCache::new(4);
    for key in 0..4 {
        cache.insert(key, key);
    }
    // Lookups of a key that is not stored: the sketch exists and has
    // seen neither the victim (key 0) nor the newcomer.
    for _ in 0..8 {
        assert!(cache.get(&99).is_none());
    }
    assert!(cache.insert(10, 10));
    assert_eq!(resident(&cache), [1, 2, 3, 10]);
    assert_eq!(cache.evictions(), 1);
}

/// Lookups made while a cache is below half its capacity count for
/// nothing: the sketch is allocated at the first lookup with the cache
/// half full, so a cache that never fills never pays for one. Key 0, read
/// eight times while it was the only entry, is evicted for a newcomer
/// never looked up, like a key never read.
#[test]
fn lookups_below_half_capacity_are_not_counted() {
    use modis_core::sieve_cache::SieveCache;
    let mut cache = SieveCache::new(4);
    cache.insert(0, 0);
    for _ in 0..8 {
        cache.get(&0);
    }
    for key in 1..4 {
        cache.insert(key, key);
        cache.get(&key);
    }
    // Every entry is visited: the hand clears them all and wraps to key 0.
    cache.insert(10, 10);
    assert_eq!(resident(&cache), [1, 2, 3, 10]);
}
