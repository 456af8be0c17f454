//! Synthetic joinable-table pools simulating the paper's Kaggle / OpenData /
//! HF workloads (tasks T1–T4).
//!
//! The real data pools are not redistributable, so each task is replaced by a
//! generator that preserves the structural properties MODis exploits:
//! a base table with the prediction target and a weak signal, several
//! joinable tables carrying *informative*, *redundant* and *noisy*
//! attributes, skewed active domains, and missing values. Augmenting the
//! informative attributes improves accuracy; dropping noisy rows/columns
//! lowers training cost — the same qualitative trade-off as in §6.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use modis_data::{Attribute, Column, Dataset, Schema, Value};

/// Parameters of a synthetic table-pool workload.
#[derive(Debug, Clone)]
pub struct TablePoolConfig {
    /// Number of entities (rows of the base table).
    pub n_rows: usize,
    /// Number of informative numeric attributes spread across source tables.
    pub n_informative: usize,
    /// Number of redundant attributes (noisy copies of informative ones).
    pub n_redundant: usize,
    /// Number of pure-noise attributes.
    pub n_noise: usize,
    /// Number of source tables the attributes are spread over.
    pub n_tables: usize,
    /// Fraction of cells that are missing in non-base tables.
    pub missing_rate: f64,
    /// Noise standard deviation on the target signal.
    pub target_noise: f64,
    /// Number of classes (0 = regression target).
    pub n_classes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TablePoolConfig {
    fn default() -> Self {
        TablePoolConfig {
            n_rows: 400,
            n_informative: 4,
            n_redundant: 2,
            n_noise: 4,
            n_tables: 4,
            missing_rate: 0.05,
            target_noise: 0.3,
            n_classes: 0,
            seed: 7,
        }
    }
}

/// A generated workload: the table pool, the base table and ground truth.
#[derive(Debug, Clone)]
pub struct TablePool {
    /// All source tables (the base table is `tables[0]`).
    pub tables: Vec<Dataset>,
    /// Names of the informative attributes.
    pub informative: Vec<String>,
    /// Names of the noise attributes.
    pub noise: Vec<String>,
    /// Name of the join key.
    pub join_key: String,
    /// Name of the target attribute.
    pub target: String,
}

impl TablePool {
    /// The base table (weak features + target).
    pub fn base(&self) -> &Dataset {
        &self.tables[0]
    }
}

/// Generates a joinable table pool.
pub fn generate_table_pool(config: &TablePoolConfig) -> TablePool {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.n_rows;

    // Latent informative signals.
    let informative: Vec<Vec<f64>> = (0..config.n_informative)
        .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let weights: Vec<f64> = (0..config.n_informative)
        .map(|_| rng.gen_range(0.5..2.0))
        .collect();

    // Target = weighted sum of informative signals (+ noise), optionally
    // bucketed into classes.
    let raw_target: Vec<f64> = (0..n)
        .map(|i| {
            let s: f64 = informative
                .iter()
                .zip(weights.iter())
                .map(|(col, w)| w * col[i])
                .sum();
            s + rng.gen_range(-config.target_noise..config.target_noise)
        })
        .collect();
    let target_values: Vec<Value> = if config.n_classes >= 2 {
        // Quantile bucketing into classes.
        let mut sorted = raw_target.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let thresholds: Vec<f64> = (1..config.n_classes)
            .map(|c| sorted[(c * n / config.n_classes).min(n - 1)])
            .collect();
        raw_target
            .iter()
            .map(|&v| {
                let class = thresholds.iter().filter(|&&t| v > t).count();
                Value::Str(format!("class_{class}"))
            })
            .collect()
    } else {
        raw_target.iter().map(|&v| Value::Float(v)).collect()
    };

    // Attribute descriptions: (name, column values, informative?).
    let mut attributes: Vec<(String, Vec<f64>, bool)> = Vec::new();
    for (k, col) in informative.iter().enumerate() {
        attributes.push((format!("info_{k}"), col.clone(), true));
    }
    for k in 0..config.n_redundant {
        let src = &informative[k % config.n_informative.max(1)];
        let col: Vec<f64> = src.iter().map(|&v| v + rng.gen_range(-0.2..0.2)).collect();
        attributes.push((format!("redundant_{k}"), col, false));
    }
    for k in 0..config.n_noise {
        // Skewed noise: a few heavy-hitter values plus uniform noise, giving
        // skewed active domains as in real data lakes.
        let col: Vec<f64> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.6) {
                    (rng.gen_range(0..3) * 10) as f64
                } else {
                    rng.gen_range(-5.0..5.0)
                }
            })
            .collect();
        attributes.push((format!("noise_{k}"), col, false));
    }

    // Base table: key, one weak feature (a noisy copy of info_0), target.
    let weak: Vec<f64> = informative
        .first()
        .map(|c| c.iter().map(|&v| v + rng.gen_range(-1.0..1.0)).collect())
        .unwrap_or_else(|| vec![0.0; n]);
    let base_schema = Schema::from_attributes(vec![
        Attribute::key("id"),
        Attribute::feature("weak_signal"),
        Attribute::target("target"),
    ]);
    let ids = || (0..n).map(|i| Value::Int(i as i64)).collect::<Column>();
    let base_columns = vec![
        ids(),
        weak.iter().map(|&x| Value::Float(x)).collect(),
        target_values.into_iter().collect(),
    ];
    let base = Dataset::from_columns("base", base_schema, base_columns);

    // Spread the remaining attributes over the other tables.
    let n_other = config.n_tables.saturating_sub(1).max(1);
    let mut tables = vec![base];
    for t in 0..n_other {
        let cols: Vec<&(String, Vec<f64>, bool)> =
            attributes.iter().skip(t).step_by(n_other).collect();
        if cols.is_empty() {
            continue;
        }
        let mut schema_attrs = vec![Attribute::key("id")];
        schema_attrs.extend(
            cols.iter()
                .map(|(name, _, _)| Attribute::feature(name.clone())),
        );
        let schema = Schema::from_attributes(schema_attrs);
        // Cells are drawn row by row, each row's missing flags in column
        // order, and land in their columns.
        let mut cells: Vec<Vec<Value>> = vec![Vec::with_capacity(n); cols.len()];
        for i in 0..n {
            for ((_, col, _), cells) in cols.iter().zip(&mut cells) {
                cells.push(if rng.gen_bool(config.missing_rate) {
                    Value::Null
                } else {
                    Value::Float(col[i])
                });
            }
        }
        let columns = std::iter::once(ids())
            .chain(cells.into_iter().map(Column::from_iter))
            .collect();
        tables.push(Dataset::from_columns(
            format!("source_{t}"),
            schema,
            columns,
        ));
    }

    TablePool {
        tables,
        informative: attributes
            .iter()
            .filter(|(_, _, inf)| *inf)
            .map(|(n, _, _)| n.clone())
            .collect(),
        noise: attributes
            .iter()
            .filter(|(n, _, inf)| !inf && n.starts_with("noise"))
            .map(|(n, _, _)| n.clone())
            .collect(),
        join_key: "id".into(),
        target: "target".into(),
    }
}

/// T1 (GBmovie): movie-gross style regression pool.
pub fn t1_movie(seed: u64) -> TablePool {
    generate_table_pool(&TablePoolConfig {
        n_rows: 320,
        n_informative: 4,
        n_redundant: 2,
        n_noise: 4,
        n_tables: 4,
        n_classes: 0,
        seed,
        ..Default::default()
    })
}

/// T2 (RFhouse): house-price classification pool.
pub fn t2_house(seed: u64) -> TablePool {
    generate_table_pool(&TablePoolConfig {
        n_rows: 300,
        n_informative: 5,
        n_redundant: 3,
        n_noise: 5,
        n_tables: 5,
        n_classes: 3,
        seed,
        ..Default::default()
    })
}

/// T3 (LRavocado): avocado-price regression pool.
pub fn t3_avocado(seed: u64) -> TablePool {
    generate_table_pool(&TablePoolConfig {
        n_rows: 400,
        n_informative: 3,
        n_redundant: 2,
        n_noise: 5,
        n_tables: 4,
        n_classes: 0,
        target_noise: 0.2,
        seed,
        ..Default::default()
    })
}

/// T4 (LGCmental): mental-health status classification pool.
pub fn t4_mental(seed: u64) -> TablePool {
    generate_table_pool(&TablePoolConfig {
        n_rows: 350,
        n_informative: 4,
        n_redundant: 2,
        n_noise: 6,
        n_tables: 5,
        n_classes: 2,
        seed,
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use modis_data::universal_table;

    #[test]
    fn pool_structure_matches_config() {
        let cfg = TablePoolConfig {
            n_tables: 4,
            ..Default::default()
        };
        let pool = generate_table_pool(&cfg);
        assert_eq!(pool.tables.len(), 4);
        assert_eq!(pool.base().num_rows(), cfg.n_rows);
        assert_eq!(pool.join_key, "id");
        // Every non-base table is joinable on the key.
        for t in &pool.tables {
            assert!(t.schema().contains("id"));
        }
        // All informative/noise attributes appear somewhere in the pool.
        for name in pool.informative.iter().chain(pool.noise.iter()) {
            assert!(
                pool.tables.iter().any(|t| t.schema().contains(name)),
                "attribute {name} missing from pool"
            );
        }
    }

    #[test]
    fn universal_table_covers_all_attributes() {
        let pool = t1_movie(3);
        let u = universal_table(&pool.tables, &pool.join_key).unwrap();
        let expected = 3 + pool.informative.len() + pool.noise.len() + 2; // base cols + attrs + redundant
        assert!(u.num_columns() >= expected - 2);
        assert!(u.num_rows() >= pool.base().num_rows());
    }

    #[test]
    fn classification_pools_have_string_classes() {
        let pool = t2_house(5);
        let target_col = pool.base().schema().position("target").unwrap();
        let adom = pool.base().active_domain(target_col);
        assert_eq!(adom.len(), 3);
        let t4 = t4_mental(5);
        let adom4 = t4
            .base()
            .active_domain(t4.base().schema().position("target").unwrap());
        assert_eq!(adom4.len(), 2);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = t3_avocado(9);
        let b = t3_avocado(9);
        assert_eq!(a.base().rows(), b.base().rows());
        let c = t3_avocado(10);
        assert_ne!(a.base().rows(), c.base().rows());
    }

    #[test]
    fn missing_rate_produces_nulls() {
        let cfg = TablePoolConfig {
            missing_rate: 0.3,
            ..Default::default()
        };
        let pool = generate_table_pool(&cfg);
        let with_nulls = pool.tables[1].missing_ratio();
        assert!(with_nulls > 0.1, "missing ratio {with_nulls}");
    }
}
