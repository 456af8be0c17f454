//! Mechanisms, not speed, pinned by counting allocations:
//!
//! - the flat design matrix: valuating a state allocates a fixed number of
//!   times, however many rows the state selects. While the matrix was a
//!   `Vec` of row `Vec`s, `encode_view` made one allocation per selected
//!   row and `RidgeRegression::fit` one more per training row (≈ 1.7 per
//!   row). The ceiling is what the encoder writing the train/test split
//!   directly and ridge summing its normal equations straight from the
//!   matrix measure (44 where the CPU has AVX-512F, 45 where ridge's
//!   portable loop copies the augmented rows; 54 while `Encoded::split`
//!   copied the matrix);
//! - the borrowed skyline: a warm search's child allocates a fixed number
//!   of times, however many members the ε-skyline holds. While
//!   `EpsilonSkyline::entries` copied them, every child paid two
//!   allocations per member;
//! - the inline state: a `StateBitmap` of up to 128 units is cloned without
//!   allocating, so a warm search's child stays under an absolute ceiling.
//!   While the words were a `Vec`, every copy of a state — `OpGen`'s flip,
//!   the visited set's, the record store's and its index's, the
//!   ε-skyline's — was one more allocation;
//! - the remembered estimate: a surrogate prediction the model's table
//!   answers allocates only the vector it returns; the table is probed by
//!   fingerprint and state, and the state's feature row is not computed.
//!
//! A refactor that brings either cost back trips this file before any
//! benchmark moves. A test binary of its own: the counting allocator is
//! global to the binary, and it counts per thread so that the harness's
//! other threads (and the other test) stay out of each figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use modis_core::estimator::{FittedSurrogate, GbmParams};
use modis_core::pareto::EpsilonSkyline;
use modis_core::prelude::*;
use modis_core::substrate::mock::MockSubstrate;
use modis_data::{Attribute, Dataset, DatasetView, RowMask, Schema, StateBitmap, Value};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the calls that hand out memory.
struct Counting;

fn count() {
    // A thread that is tearing its locals down allocates uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a `const`-initialised
// thread-local `Cell` without a destructor, so touching it neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed on as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ROWS: usize = 1_000;

/// A churn-shaped pool: two floats (one with nulls), an integer, two
/// categoricals (one with nulls), a noise column and a linear target.
fn pool() -> Dataset {
    const REGIONS: [&str; 4] = ["north", "south", "east", "west"];
    const TIERS: [&str; 3] = ["basic", "plus", "pro"];
    let schema = Schema::from_attributes(vec![
        Attribute::key("id"),
        Attribute::feature("x1"),
        Attribute::feature("x2"),
        Attribute::feature("visits"),
        Attribute::feature("region"),
        Attribute::feature("tier"),
        Attribute::feature("noise"),
        Attribute::target("y"),
    ]);
    let rows = (0..ROWS)
        .map(|i| {
            let unit = |salt: usize| ((i * 37 + salt * 101) % 997) as f64 / 997.0;
            let (x1, x2, noise) = (unit(1) * 2.0 - 1.0, unit(2) * 2.0 - 1.0, unit(3));
            let (visits, region, tier) = ((i * 7) % 40, (i * 3) % 4, (i * 5) % 3);
            let y = 1.5 * x1 - x2 + 0.02 * visits as f64 + 0.3 * tier as f64 - 0.1 * region as f64;
            vec![
                Value::Int(i as i64),
                Value::Float(x1),
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Float(x2)
                },
                Value::Int(visits as i64),
                Value::Str(REGIONS[region].into()),
                if i % 17 == 0 {
                    Value::Null
                } else {
                    Value::Str(TIERS[tier].into())
                },
                Value::Float(noise),
                Value::Float(y),
            ]
        })
        .collect();
    Dataset::from_rows("churn", schema, rows).expect("rows match the schema")
}

#[test]
fn a_valuation_allocates_the_same_whatever_the_row_count() {
    let data = pool();
    let task = TaskSpec {
        name: "churn".into(),
        model: ModelKind::LinearRegressor,
        target: "y".into(),
        key: Some("id".into()),
        measures: MeasureSet::new(vec![
            MeasureSpec::maximise("p_R2"),
            MeasureSpec::minimise("p_MSE", 4.0),
            MeasureSpec::minimise("p_MAE", 2.0),
        ]),
        metric_kinds: vec![MetricKind::R2, MetricKind::Mse, MetricKind::Mae],
        train_ratio: 0.7,
        seed: 1,
    };
    let view = |selected: usize| {
        let mask = RowMask::from_pred(ROWS, |r| r % (ROWS / selected) == 0);
        assert_eq!(mask.count(), selected);
        DatasetView::new(&data, mask, vec![false; 8])
    };
    let (quarter, all) = (view(250), view(ROWS));
    let allocations_of = |view: &DatasetView<'_>| {
        let before = ALLOCATIONS.with(Cell::get);
        let evaluation = evaluate_dataset_view(&task, view);
        let made = ALLOCATIONS.with(Cell::get) - before;
        assert!(evaluation.raw[0] > 0.8, "R² = {}", evaluation.raw[0]);
        made
    };
    let (few, many) = (allocations_of(&quarter), allocations_of(&all));
    assert!(
        few.abs_diff(many) <= 8,
        "{few} allocations for 250 rows, {many} for 1,000"
    );
    // Ridge sums its normal equations straight from the matrix in AVX-512F
    // registers; without them its portable loop copies the augmented rows
    // once more.
    #[cfg(target_arch = "x86_64")]
    let ceiling = if is_x86_feature_detected!("avx512f") {
        44
    } else {
        45
    };
    #[cfg(not(target_arch = "x86_64"))]
    let ceiling = 45;
    assert!(
        many <= ceiling,
        "{many} allocations for one 1,000-row valuation"
    );
}

/// Allocations per visited child of a warm search — one whose every
/// valuation is a hit in the context's own records, as on a warm request —
/// and the size of the ε-skyline the per-child closures scan by the end.
///
/// The first run valuates (and fits the surrogate, a fixed cost that would
/// swamp the per-child figure); the second, on the same context, is counted.
/// A child is valuated or pruned; both kinds read the skyline.
fn warm_search_allocations(epsilon: f64, diversified: bool) -> (f64, usize) {
    let sub = MockSubstrate::new(8);
    let config = ModisConfig::default()
        .with_estimator(EstimatorMode::default())
        .with_epsilon(epsilon)
        .with_max_states(512)
        .with_max_level(8)
        .with_diversification(16, 0.5);
    let ctx = ValuationContext::new(&sub, config.estimator);
    let run = || {
        if diversified {
            div_modis_with_context(&ctx, &config);
            0
        } else {
            bi_modis_with_context(&ctx, &config, true).1.pruned
        }
    };
    run();
    let valuations = |s: ValuationStats| s.cache_hits + s.surrogate_calls + s.oracle_calls;
    let (before, counted) = (ALLOCATIONS.with(Cell::get), valuations(ctx.stats()));
    let pruned = run();
    let made = ALLOCATIONS.with(Cell::get) - before;
    let children = valuations(ctx.stats()) - counted + pruned;
    // Every state the context holds has been offered: the search's own
    // ε-skyline has exactly this many cells (a cell is kept once occupied).
    let mut skyline = EpsilonSkyline::new(sub.measures().clone(), epsilon, None);
    for record in ctx.records() {
        skyline.offer(&record.bitmap, &record.perf, 0);
    }
    (made as f64 / children as f64, skyline.len())
}

/// BiMODis' pruning test and DivMODis' `euc_max` fold read every skyline
/// member for every child. While `EpsilonSkyline::entries` copied the
/// members, a child cost two allocations per member; borrowed, what a child
/// allocates does not depend on how many members there are.
#[test]
fn a_warm_search_child_allocates_the_same_whatever_the_skyline_size() {
    for (diversified, small_epsilon, large_epsilon) in [(false, 0.02, 0.6), (true, 0.02, 4.0)] {
        let (per_child_big, big) = warm_search_allocations(small_epsilon, diversified);
        let (per_child_small, small) = warm_search_allocations(large_epsilon, diversified);
        assert!(
            big >= 2 * small,
            "diversified={diversified}: {big} cells at ε={small_epsilon}, {small} at ε={large_epsilon}"
        );
        assert!(
            per_child_big <= per_child_small + 1.0,
            "diversified={diversified}: {per_child_big:.1} allocations per child beside \
             {big} members, {per_child_small:.1} beside {small}"
        );
    }
}

/// What one visited child of a warm search may allocate, whatever the
/// skyline size: BiMODis' two `PerfBounds` vectors per parent and its
/// parent-vector payload, the performance vectors the context hands out,
/// `OpGen`'s child list per parent — but no copy of a state, no verdict a
/// pruned sibling already gave, no correlation graph over unchanged oracle
/// records and no ε-grid key for a cell that is not inserted. With the
/// words on the heap a child cost 22.7–23.5 (Bi) and 11.8–12.0 (Div)
/// allocations; with a `PerfBounds` per child, a graph per level and a key
/// per offer, 13.3–16.3 and 3.7–3.8.
#[test]
fn a_warm_search_child_allocates_under_a_ceiling() {
    for (diversified, ceiling) in [(false, 8.0), (true, 3.5)] {
        for epsilon in [0.02, 0.6, 4.0] {
            let (per_child, members) = warm_search_allocations(epsilon, diversified);
            assert!(
                per_child <= ceiling,
                "diversified={diversified}, ε={epsilon}: {per_child:.1} allocations per \
                 child beside {members} members (ceiling {ceiling})"
            );
        }
    }
}

/// Cloning a state of up to 128 units (two words) is a copy; one unit more
/// puts the words on the heap, and a clone allocates them once.
#[test]
fn cloning_a_state_allocates_only_beyond_128_units() {
    let allocations_of_clone = |units: usize| {
        let state = StateBitmap::full(units).flipped(units / 2);
        let before = ALLOCATIONS.with(Cell::get);
        let copy = std::hint::black_box(&state).clone();
        let made = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(copy, state);
        made
    };
    for units in [0, 1, 42, 64, 65, 128] {
        assert_eq!(allocations_of_clone(units), 0, "{units} units");
    }
    assert_eq!(allocations_of_clone(129), 1);
    assert_eq!(allocations_of_clone(500), 1);
}

/// An estimate the table answers allocates once: the returned vector. The
/// table is asked by fingerprint and state, and a state of up to 128 units
/// is copied into the probe key without allocating; the row is not
/// computed again. (The first estimate, a miss, computes the row and stores
/// the estimate.)
#[test]
fn a_remembered_estimate_allocates_only_the_returned_vector() {
    let x: Vec<Vec<f64>> = (0..12)
        .map(|i| {
            (0..24)
                .map(|j| ((i * 7 + j * 3) % 11) as f64 * 0.1)
                .collect()
        })
        .collect();
    let y: Vec<Vec<f64>> = x.iter().map(|r| vec![r[0], r[1] - r[2], r[3]]).collect();
    let params = GbmParams {
        n_estimators: 30,
        ..GbmParams::default()
    };
    let surrogate = FittedSurrogate::fit(&x, &y, params);
    let state = StateBitmap::full(24).flipped(3);
    let (first, row) = surrogate.predict(7, &state, || vec![0.3; 24]);
    assert_eq!(row, Some(vec![0.3; 24]));
    let before = ALLOCATIONS.with(Cell::get);
    let (again, row) = surrogate.predict(7, &state, || unreachable!("a hit featurises nothing"));
    let made = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(row, None);
    let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&again), bits(&first));
    assert_eq!(made, 1);
}
