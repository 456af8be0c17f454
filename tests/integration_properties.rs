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
        let pa = position(&a, &measures, eps, 2);
        let pb = position(&b, &measures, eps, 2);
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
        prop_assert_eq!(lit.selectivity_count(&out), 0);
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
    /// one/zero index lists, hash-eq consistency and lexicographic order all
    /// match the plain-vector model, across word boundaries.
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
        prop_assert_eq!(
            packed.ones(),
            model.iter().enumerate().filter_map(|(i, &b)| b.then_some(i)).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            packed.zeros(),
            model.iter().enumerate().filter_map(|(i, &b)| (!b).then_some(i)).collect::<Vec<_>>()
        );
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

        // Distance kernels against an independent model computation.
        let n = model.len().max(other_bits.len());
        let at = |v: &Vec<bool>, i: usize| v.get(i).copied().unwrap_or(false);
        let hamming = (0..n).filter(|&i| at(&model, i) != at(&other_bits, i)).count();
        prop_assert_eq!(packed.hamming_distance(&other), hamming);
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
        let next = std::cell::Cell::new(0usize);
        let mut reference = data.filter(|_| {
            let idx = next.get();
            next.set(idx + 1);
            keep_bits[idx]
        });
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
