//! Integration tests for the baseline comparison pipeline (Tables 4 / 6 rows).

use modis_bench::baselines::hydragan_like;
use modis_bench::{run_table_methods, task_t2, task_t3};
use modis_core::prelude::*;

fn fast_config() -> ModisConfig {
    ModisConfig::default()
        .with_epsilon(0.15)
        .with_max_states(20)
        .with_max_level(3)
        .with_estimator(EstimatorMode::Surrogate {
            warmup: 8,
            refresh: 10,
        })
}

#[test]
fn method_comparison_produces_complete_rows() {
    let workload = task_t3(31);
    let rows = run_table_methods(&workload, &fast_config());
    let expected = [
        "Original",
        "METAM",
        "METAM-MO",
        "Starmie",
        "SkSFM",
        "H2O",
        "ApxMODis",
        "NOBiMODis",
        "BiMODis",
        "DivMODis",
    ];
    assert_eq!(rows.len(), expected.len());
    for (row, name) in rows.iter().zip(expected.iter()) {
        assert_eq!(&row.method, name);
        assert!(
            !row.raw.is_empty(),
            "{name} produced an empty metric vector"
        );
        assert!(row.size.0 > 0, "{name} produced an empty output dataset");
    }
}

#[test]
fn modis_beats_or_matches_original_on_primary_measure_t3() {
    // T3's primary measure is MSE (lower is better on the raw scale).
    let workload = task_t3(32);
    let rows = run_table_methods(&workload, &fast_config());
    let mse_of = |name: &str| {
        rows.iter()
            .find(|r| r.method == name)
            .and_then(|r| r.raw.first().copied())
            .unwrap_or(f64::INFINITY)
    };
    let original = mse_of("Original");
    let best_modis = ["ApxMODis", "NOBiMODis", "BiMODis", "DivMODis"]
        .iter()
        .map(|m| mse_of(m))
        .fold(f64::INFINITY, f64::min);
    assert!(
        best_modis <= original * 1.05,
        "best MODis MSE {best_modis} should not be worse than original {original}"
    );
}

#[test]
fn feature_selection_baselines_shrink_the_schema_t2() {
    let workload = task_t2(33);
    let rows = run_table_methods(&workload, &fast_config());
    let cols_of = |name: &str| {
        rows.iter()
            .find(|r| r.method == name)
            .map(|r| r.size.1)
            .unwrap()
    };
    // Starmie augments (more columns than the base), SkSFM/H2O select (fewer
    // columns than the universal table used as their input).
    let universal_cols = workload.substrate().universal().reported_size().1;
    assert!(cols_of("SkSFM") <= universal_cols);
    assert!(cols_of("H2O") <= universal_cols);
    assert!(cols_of("Starmie") >= cols_of("Original"));
}

#[test]
fn hydragan_baseline_cannot_use_external_attributes() {
    let workload = task_t3(34);
    let base = workload.pool.base();
    let out = hydragan_like(base, &workload.task, 100, 9);
    // Synthetic rows only: same schema as the base, more rows.
    assert_eq!(out.dataset.num_columns(), base.num_columns());
    assert_eq!(out.dataset.num_rows(), base.num_rows() + 100);
}

/// FNV-1a over every cell of a dataset, row by row, with a tag per variant.
fn rows_digest(data: &modis_data::Dataset) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for row in &data.rows() {
        for cell in row {
            match cell {
                modis_data::Value::Null => eat(&[0]),
                modis_data::Value::Int(i) => {
                    eat(&[1]);
                    eat(&i.to_le_bytes());
                }
                modis_data::Value::Float(x) => {
                    eat(&[2]);
                    eat(&x.to_bits().to_le_bytes());
                }
                modis_data::Value::Str(s) => {
                    eat(&[3]);
                    eat(s.as_bytes());
                    eat(&[0xff]);
                }
                modis_data::Value::Bool(b) => eat(&[4, u8::from(*b)]),
            }
        }
    }
    h
}

/// The witness that moving the baselines changed no result: the baseline
/// rows of `run_table_methods` on T3, pinned to the bit. Each row keeps
/// `to_bits` of every raw value, `p_Train` included, plus its size. The
/// MODis rows are the search's, pinned by the end-to-end digests.
#[test]
fn baseline_rows_are_pinned_t3() {
    const PINNED: [(&str, [u64; 3], (usize, usize)); 6] = [
        (
            "Original",
            [0x3ff422c3f4fdab89, 0x3fedcbb1927e2ba5, 0x3f42599ed7c6fbd2],
            (400, 3),
        ),
        (
            "METAM",
            [0x3fae9111c5ddc9c3, 0x3fc6c357d2e66bad, 0x3f6b866e43aa79bb],
            (400, 13),
        ),
        (
            "METAM-MO",
            [0x3fae9111c5ddc9c3, 0x3fc6c357d2e66bad, 0x3f6b866e43aa79bb],
            (400, 13),
        ),
        (
            "Starmie",
            [0x3fae9111c5ddc9c5, 0x3fc6c357d2e66bb2, 0x3f6b866e43aa79bb],
            (400, 13),
        ),
        (
            "SkSFM",
            [0x3fc7cab0582b3346, 0x3fd677cd3862b210, 0x3f52599ed7c6fbd2],
            (400, 5),
        ),
        (
            "H2O",
            [0x3fab9408a40cf45d, 0x3fc5b66731a1841b, 0x3f5b866e43aa79bb],
            (400, 7),
        ),
    ];
    let workload = task_t3(31);
    let rows = run_table_methods(&workload, &fast_config());
    for (name, bits, size) in PINNED {
        let row = rows.iter().find(|r| r.method == name).unwrap();
        let got: Vec<u64> = row.raw.iter().map(|v| v.to_bits()).collect();
        assert_eq!((got.as_slice(), row.size), (&bits[..], size), "{name}");
    }

    let workload = task_t3(34);
    let out = hydragan_like(workload.pool.base(), &workload.task, 100, 9);
    assert_eq!(
        (out.dataset.num_rows(), out.dataset.num_columns()),
        (500, 3)
    );
    assert_eq!(rows_digest(&out.dataset), 0x27708c7b31e1897b);
}
