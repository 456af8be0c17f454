//! Synthetic pools for the two real-world case studies of Exp-4 (Fig. 11).
//!
//! * Case 1 — "find data with models": a crowd-sourced X-ray diffraction
//!   platform hosts datasets of 2-D diffraction features; a random-forest
//!   peak classifier should be improved in accuracy, training cost and F1.
//! * Case 2 — "generating test data for model evaluation": a pool of image
//!   feature tables from which test datasets satisfying accuracy / training
//!   cost constraints must be generated.
//!
//! Both generators reuse the table-pool machinery of `modis-datagen` with
//! domain-flavoured attribute names so the case-study binaries read like the
//! paper's text.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use modis_data::{Attribute, Dataset, Schema, Value};
use modis_datagen::tables::{generate_table_pool, TablePool, TablePoolConfig};

/// Case 1: X-ray diffraction peak-classification pool.
///
/// The base table holds detector readouts with a weak intensity feature and a
/// binary `peak` label; source tables contribute 2θ-angle statistics,
/// crystallography descriptors and instrument noise columns.
pub fn xray_material_pool(seed: u64) -> TablePool {
    let mut pool = generate_table_pool(&TablePoolConfig {
        n_rows: 300,
        n_informative: 4,
        n_redundant: 2,
        n_noise: 4,
        n_tables: 4,
        n_classes: 2,
        target_noise: 0.25,
        seed,
        ..Default::default()
    });
    // Re-label attributes with domain names so reports are readable.
    let renames = [
        ("info_0", "two_theta_mean"),
        ("info_1", "intensity_ratio"),
        ("info_2", "lattice_spacing"),
        ("info_3", "fwhm"),
        ("redundant_0", "two_theta_median"),
        ("redundant_1", "intensity_ratio_raw"),
        ("noise_0", "detector_temp"),
        ("noise_1", "exposure_noise"),
        ("noise_2", "background_drift"),
        ("noise_3", "gantry_angle"),
    ];
    pool.tables = pool
        .tables
        .iter()
        .map(|t| rename_columns(t, &renames))
        .collect();
    pool.informative = pool
        .informative
        .iter()
        .map(|n| rename_of(n, &renames))
        .collect();
    pool.noise = pool.noise.iter().map(|n| rename_of(n, &renames)).collect();
    pool
}

/// Case 2: pool of image-feature tables for test-data generation.
///
/// Emulates "75 tables, 768 columns" at reduced scale: many small tables each
/// carrying a handful of embedding dimensions, only a few of which carry the
/// class signal.
pub fn image_feature_pool(seed: u64, n_tables: usize, dims_per_table: usize) -> TablePool {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_rows = 240;
    let n_classes = 3;

    // Latent class assignment drives a subset of "signal" dimensions.
    let classes: Vec<usize> = (0..n_rows).map(|_| rng.gen_range(0..n_classes)).collect();

    let base_schema = Schema::from_attributes(vec![
        Attribute::key("image_id"),
        Attribute::feature("brightness"),
        Attribute::target("label"),
    ]);
    let base_rows: Vec<Vec<Value>> = (0..n_rows)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Float(rng.gen_range(0.0..1.0)),
                Value::Str(format!("cat_{}", classes[i])),
            ]
        })
        .collect();
    let base = Dataset::from_rows("images", base_schema, base_rows).expect("base");

    let mut tables = vec![base];
    let mut informative = Vec::new();
    let mut noise = Vec::new();
    for t in 0..n_tables.max(1) {
        let mut attrs = vec![Attribute::key("image_id")];
        let signal_table = t % 3 == 0; // every third table carries signal
        let names: Vec<String> = (0..dims_per_table)
            .map(|d| format!("feat_{t}_{d}"))
            .collect();
        for n in &names {
            attrs.push(Attribute::feature(n.clone()));
            if signal_table {
                informative.push(n.clone());
            } else {
                noise.push(n.clone());
            }
        }
        let rows: Vec<Vec<Value>> = (0..n_rows)
            .map(|i| {
                let mut row = vec![Value::Int(i as i64)];
                for d in 0..dims_per_table {
                    let v = if signal_table {
                        classes[i] as f64 + 0.2 * rng.gen_range(-1.0..1.0) + d as f64 * 0.01
                    } else {
                        rng.gen_range(-1.0..1.0)
                    };
                    row.push(Value::Float(v));
                }
                row
            })
            .collect();
        tables.push(
            Dataset::from_rows(
                format!("feat_table_{t}"),
                Schema::from_attributes(attrs),
                rows,
            )
            .expect("feature table"),
        );
    }

    TablePool {
        tables,
        informative,
        noise,
        join_key: "image_id".into(),
        target: "label".into(),
    }
}

fn rename_of(name: &str, renames: &[(&str, &str)]) -> String {
    renames
        .iter()
        .find(|(from, _)| *from == name)
        .map(|(_, to)| to.to_string())
        .unwrap_or_else(|| name.to_string())
}

fn rename_columns(data: &Dataset, renames: &[(&str, &str)]) -> Dataset {
    let attrs: Vec<Attribute> = data
        .schema()
        .attributes()
        .iter()
        .map(|a| Attribute {
            name: rename_of(&a.name, renames),
            role: a.role,
        })
        .collect();
    Dataset::from_rows(
        data.name.clone(),
        Schema::from_attributes(attrs),
        data.rows(),
    )
    .expect("renamed dataset")
}

#[cfg(test)]
mod tests {
    use super::*;
    use modis_data::universal_table;

    #[test]
    fn xray_pool_uses_domain_names() {
        let pool = xray_material_pool(3);
        let u = universal_table(&pool.tables, &pool.join_key).unwrap();
        assert!(u.schema().contains("two_theta_mean"));
        assert!(u.schema().contains("detector_temp"));
        assert!(!u.schema().names().iter().any(|n| n.starts_with("info_")));
        // Binary peak classification target.
        let adom = pool
            .base()
            .active_domain(pool.base().schema().position("target").unwrap());
        assert_eq!(adom.len(), 2);
    }

    #[test]
    fn image_pool_scales_with_parameters() {
        let pool = image_feature_pool(7, 9, 4);
        assert_eq!(pool.tables.len(), 10);
        assert_eq!(pool.join_key, "image_id");
        assert!(!pool.informative.is_empty());
        assert!(!pool.noise.is_empty());
        let u = universal_table(&pool.tables, &pool.join_key).unwrap();
        assert!(u.num_columns() >= 9 * 4);
    }

    #[test]
    fn image_pool_signal_tables_correlate_with_label() {
        let pool = image_feature_pool(11, 6, 3);
        // A signal feature should have at least 3 distinct rounded values
        // aligned with the 3 classes; a noise feature should not separate.
        let u = universal_table(&pool.tables, &pool.join_key).unwrap();
        let sig = &pool.informative[0];
        let col = u.column(u.schema().position(sig).unwrap());
        let distinct_rounded: std::collections::BTreeSet<i64> = col
            .values()
            .filter_map(|v| v.as_f64())
            .map(|v| v.round() as i64)
            .collect();
        assert!(distinct_rounded.len() >= 3);
    }
}
