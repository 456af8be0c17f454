//! Baseline data-discovery and feature-selection methods compared against
//! MODis in §6: METAM, METAM-MO, Starmie, SkSFM, H2O and a HydraGAN-style
//! generative augmenter. Each baseline takes the same inputs as MODis (a base
//! table, a pool of candidate tables and a downstream task) and returns a
//! single output dataset plus its oracle evaluation, exactly as the paper's
//! tables report them. The "Original" row of those tables is the base table
//! under [`evaluate_dataset`].

use modis_core::task::{evaluate_dataset, TaskEvaluation, TaskSpec};
use modis_data::{hash_join, Dataset, JoinKind, Value};
use modis_ml::encoding::{encode, TaskKind};
use modis_ml::forest::{ForestParams, RandomForest};
use modis_ml::linear::RidgeRegression;

/// A baseline's output: the discovered dataset and its evaluation.
#[derive(Debug, Clone)]
pub struct BaselineOutput {
    /// Name of the method.
    pub method: String,
    /// The output dataset.
    pub dataset: Dataset,
    /// Oracle evaluation of the output dataset under the task.
    pub evaluation: TaskEvaluation,
}

fn finish(method: &str, dataset: Dataset, task: &TaskSpec) -> BaselineOutput {
    let evaluation = evaluate_dataset(task, &dataset);
    BaselineOutput {
        method: method.to_string(),
        dataset,
        evaluation,
    }
}

/// METAM-style goal-oriented discovery: greedily joins candidate tables,
/// keeping a join only when the single utility measure (index
/// `utility_index` into the task's measures, compared on the *normalised*
/// minimise scale) improves.
pub fn metam(
    base: &Dataset,
    pool: &[Dataset],
    task: &TaskSpec,
    join_key: &str,
    utility_index: usize,
) -> BaselineOutput {
    greedy_join("METAM", base, pool, task, join_key, |eval| {
        eval.normalised.get(utility_index).copied().unwrap_or(1.0)
    })
}

/// METAM-MO: the multi-objective extension that folds every measure into one
/// linear weighted utility (equal weights), as described in §6.
pub fn metam_mo(
    base: &Dataset,
    pool: &[Dataset],
    task: &TaskSpec,
    join_key: &str,
) -> BaselineOutput {
    greedy_join("METAM-MO", base, pool, task, join_key, |eval| {
        eval.normalised.iter().sum::<f64>()
    })
}

/// The METAM loop: left-joins each pool table on `join_key` in turn and keeps
/// the join when it lowers `utility` by more than `1e-12`.
fn greedy_join(
    method: &str,
    base: &Dataset,
    pool: &[Dataset],
    task: &TaskSpec,
    join_key: &str,
    utility: impl Fn(&TaskEvaluation) -> f64,
) -> BaselineOutput {
    let mut current = base.clone();
    let mut best = evaluate_dataset(task, &current);
    for candidate in pool {
        if candidate.name == base.name || !candidate.schema().contains(join_key) {
            continue;
        }
        let Ok(joined) = hash_join(&current, candidate, join_key, JoinKind::LeftOuter) else {
            continue;
        };
        let eval = evaluate_dataset(task, &joined);
        if utility(&eval) < utility(&best) - 1e-12 {
            current = joined;
            best = eval;
        }
    }
    BaselineOutput {
        method: method.into(),
        dataset: current,
        evaluation: best,
    }
}

/// Column-signature similarity between two tables (Jaccard over attribute
/// names), the stand-in for Starmie's contextual column embeddings.
fn column_similarity(a: &Dataset, b: &Dataset) -> f64 {
    let an: std::collections::BTreeSet<&str> = a.schema().names().into_iter().collect();
    let bn: std::collections::BTreeSet<&str> = b.schema().names().into_iter().collect();
    let inter = an.intersection(&bn).count() as f64;
    let union = an.union(&bn).count() as f64;
    if union == 0.0 {
        0.0
    } else {
        inter / union
    }
}

/// Starmie-style table-union search: ranks pool tables by column-signature
/// similarity to the base, joins the most similar ones (up to `max_tables`)
/// and unions the rest of their rows when union-compatible.
pub fn starmie(
    base: &Dataset,
    pool: &[Dataset],
    task: &TaskSpec,
    join_key: &str,
    max_tables: usize,
) -> BaselineOutput {
    let mut ranked: Vec<&Dataset> = pool.iter().filter(|d| d.name != base.name).collect();
    ranked.sort_by(|a, b| {
        column_similarity(base, b)
            .partial_cmp(&column_similarity(base, a))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut current = base.clone();
    for candidate in ranked.into_iter().take(max_tables) {
        if candidate.schema().contains(join_key) && current.schema().contains(join_key) {
            if let Ok(joined) = hash_join(&current, candidate, join_key, JoinKind::LeftOuter) {
                current = joined;
                continue;
            }
        }
        if column_similarity(&current, candidate) > 0.5 {
            current = union_all(&current, candidate);
        }
    }
    finish("Starmie", current, task)
}

/// Union-compatible vertical concatenation: aligns on the universal schema of
/// both operands and stacks the rows (Starmie's table union).
fn union_all(left: &Dataset, right: &Dataset) -> Dataset {
    let schema = left.schema().union(right.schema());
    let mut rows = Vec::with_capacity(left.num_rows() + right.num_rows());
    for src in [left, right] {
        let map: Vec<usize> = src
            .schema()
            .names()
            .iter()
            .map(|n| schema.position(n).expect("union schema"))
            .collect();
        for row in src.rows() {
            let mut new_row = vec![Value::Null; schema.len()];
            for (cell, &oi) in row.into_iter().zip(&map) {
                new_row[oi] = cell;
            }
            rows.push(new_row);
        }
    }
    let name = format!("{}∪{}", left.name, right.name);
    Dataset::from_rows(name, schema, rows).expect("rows as wide as the union schema")
}

/// SkSFM: scikit-learn `SelectFromModel`-style feature selection. A tree
/// ensemble is fitted on the encoded base data and features whose importance
/// exceeds the mean importance are retained.
pub fn sksfm(base: &Dataset, task: &TaskSpec) -> BaselineOutput {
    let options = task.encode_options();
    let encoded = encode(base, &options);
    if encoded.is_empty() || encoded.num_features() == 0 {
        return finish("SkSFM", base.clone(), task);
    }
    let n_classes = if options.task == TaskKind::Classification {
        encoded.n_classes.max(2)
    } else {
        0
    };
    let forest = RandomForest::fit(
        &encoded.features,
        &encoded.targets,
        n_classes,
        if n_classes > 0 {
            ForestParams::classification(15)
        } else {
            ForestParams::regression(15)
        },
    );
    let importance = forest.feature_importance();
    let mean = importance.iter().sum::<f64>() / importance.len().max(1) as f64;
    let keep: Vec<&str> = encoded
        .feature_names
        .iter()
        .zip(importance.iter())
        .filter(|(_, &imp)| imp >= mean)
        .map(|(n, _)| n.as_str())
        .collect();
    let selected = project_with_context(base, task, &keep);
    finish("SkSFM", selected, task)
}

/// H2O-style feature selection: a linear model is fitted and the top half of
/// the features by absolute standardised coefficient is retained.
pub fn h2o(base: &Dataset, task: &TaskSpec) -> BaselineOutput {
    let encoded = encode(base, &task.encode_options());
    if encoded.is_empty() || encoded.num_features() == 0 {
        return finish("H2O", base.clone(), task);
    }
    let ridge = RidgeRegression::fit(&encoded.features, &encoded.targets, 1.0);
    let importance = ridge_importance(&ridge);
    let k = (encoded.num_features() / 2).max(1);
    let top = top_k_features(&importance, k);
    let keep: Vec<&str> = top
        .iter()
        .map(|&i| encoded.feature_names[i].as_str())
        .collect();
    let selected = project_with_context(base, task, &keep);
    finish("H2O", selected, task)
}

/// Absolute standardised coefficients of a ridge fit, normalised to sum to
/// one: H2O's feature importance.
fn ridge_importance(ridge: &RidgeRegression) -> Vec<f64> {
    let total: f64 = ridge.weights.iter().map(|w| w.abs()).sum();
    if total == 0.0 {
        return vec![0.0; ridge.weights.len()];
    }
    ridge.weights.iter().map(|w| w.abs() / total).collect()
}

/// Selects the indices of the top-`k` features by a score vector
/// (descending); ties broken by index.
fn top_k_features(scores: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx.truncate(k);
    idx
}

/// HydraGAN-style generative augmentation: synthesises `n_rows` new tuples by
/// jittering numeric attributes of randomly chosen existing tuples, then
/// appends them to the base table. Mirrors the paper's observation that
/// synthetic rows cannot exploit verified external sources.
pub fn hydragan_like(base: &Dataset, task: &TaskSpec, n_rows: usize, seed: u64) -> BaselineOutput {
    if base.num_rows() == 0 {
        return finish("HydraGAN", base.clone(), task);
    }
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(101);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    let mut rows = base.rows();
    for r in 0..n_rows {
        let mut row = rows[r % base.num_rows()].clone();
        for cell in &mut row {
            if let Some(x) = cell.as_f64() {
                if cell.is_numeric() {
                    *cell = Value::Float(x * (1.0 + 0.1 * next()));
                }
            }
        }
        rows.push(row);
    }
    let name = format!("{}+synthetic", base.name);
    let augmented = Dataset::from_rows(name, base.schema().clone(), rows).expect("base-wide rows");
    finish("HydraGAN", augmented, task)
}

/// Projects a dataset onto the selected feature names plus the task's target
/// and key attributes.
fn project_with_context(base: &Dataset, task: &TaskSpec, features: &[&str]) -> Dataset {
    let mut names: Vec<&str> = Vec::new();
    if let Some(k) = &task.key {
        if base.schema().contains(k) {
            names.push(k.as_str());
        }
    }
    names.extend(
        features
            .iter()
            .copied()
            .filter(|n| base.schema().contains(n)),
    );
    if base.schema().contains(&task.target) {
        names.push(task.target.as_str());
    }
    base.project_by_names(&names)
        .with_name(format!("{}#selected", base.name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use modis_core::measure::{MeasureSet, MeasureSpec};
    use modis_core::task::{MetricKind, ModelKind};
    use modis_data::{Attribute, Schema};
    use modis_ml::Matrix;

    fn task() -> TaskSpec {
        TaskSpec {
            name: "baseline-test".into(),
            model: ModelKind::LinearRegressor,
            target: "y".into(),
            key: Some("id".into()),
            measures: MeasureSet::new(vec![
                MeasureSpec::maximise("p_R2"),
                MeasureSpec::minimise("p_Train", 2.0),
            ]),
            metric_kinds: vec![MetricKind::R2, MetricKind::TrainTime],
            train_ratio: 0.7,
            seed: 11,
        }
    }

    /// Base table has only a weak feature; the pool has the informative one.
    fn base_and_pool() -> (Dataset, Vec<Dataset>) {
        let base = Dataset::from_rows(
            "base",
            Schema::from_attributes(vec![
                Attribute::key("id"),
                Attribute::feature("weak"),
                Attribute::target("y"),
            ]),
            (0..80)
                .map(|i| {
                    let strong = (i % 9) as f64;
                    vec![
                        Value::Int(i),
                        Value::Float(((i * 13) % 7) as f64 * 0.01),
                        Value::Float(3.0 * strong + 1.0),
                    ]
                })
                .collect(),
        )
        .unwrap();
        let informative = Dataset::from_rows(
            "informative",
            Schema::from_attributes(vec![Attribute::key("id"), Attribute::feature("strong")]),
            (0..80)
                .map(|i| vec![Value::Int(i), Value::Float((i % 9) as f64)])
                .collect(),
        )
        .unwrap();
        let junk = Dataset::from_rows(
            "junk",
            Schema::from_attributes(vec![Attribute::key("id"), Attribute::feature("noise")]),
            (0..80)
                .map(|i| vec![Value::Int(i), Value::Float(((i * 31) % 11) as f64)])
                .collect(),
        )
        .unwrap();
        (base, vec![informative, junk])
    }

    #[test]
    fn original_reports_base_performance() {
        let (base, _) = base_and_pool();
        let original = evaluate_dataset(&task(), &base);
        assert!(original.raw[0] < 0.5, "weak feature should give low R²");
    }

    #[test]
    fn metam_joins_informative_table_and_improves_utility() {
        let (base, pool) = base_and_pool();
        let out = metam(&base, &pool, &task(), "id", 0);
        assert!(out.dataset.schema().contains("strong"));
        let orig = evaluate_dataset(&task(), &base);
        assert!(out.evaluation.raw[0] > orig.raw[0]);
    }

    #[test]
    fn metam_mo_uses_weighted_sum() {
        let (base, pool) = base_and_pool();
        let out = metam_mo(&base, &pool, &task(), "id");
        let orig = evaluate_dataset(&task(), &base);
        let sum = |e: &TaskEvaluation| e.normalised.iter().sum::<f64>();
        assert!(sum(&out.evaluation) <= sum(&orig) + 1e-9);
    }

    #[test]
    fn starmie_adds_similar_tables() {
        let (base, pool) = base_and_pool();
        let out = starmie(&base, &pool, &task(), "id", 2);
        assert!(out.dataset.num_columns() >= base.num_columns());
    }

    #[test]
    fn union_all_stacks_rows() {
        let (base, pool) = base_and_pool();
        let u = union_all(&base, &pool[0]);
        assert_eq!(u.num_rows(), base.num_rows() + pool[0].num_rows());
        // id, weak, y from the base and strong from the pool table.
        assert_eq!(u.num_columns(), 4);
    }

    #[test]
    fn sksfm_selects_a_feature_subset() {
        let (base, pool) = base_and_pool();
        // Run on the joined table so there is something to select from.
        let joined = hash_join(&base, &pool[0], "id", JoinKind::LeftOuter).unwrap();
        let joined = hash_join(&joined, &pool[1], "id", JoinKind::LeftOuter).unwrap();
        let out = sksfm(&joined, &task());
        assert!(out.dataset.num_columns() <= joined.num_columns());
        assert!(out.dataset.schema().contains("y"));
    }

    #[test]
    fn h2o_keeps_top_half_features() {
        let (base, pool) = base_and_pool();
        let joined = hash_join(&base, &pool[0], "id", JoinKind::LeftOuter).unwrap();
        let out = h2o(&joined, &task());
        assert!(out.dataset.num_columns() < joined.num_columns());
        assert!(out.dataset.schema().contains("y"));
    }

    #[test]
    fn importances_are_normalised() {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, 1.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0]).collect();
        let m = RidgeRegression::fit(&Matrix::from_rows(&rows), &y, 0.0);
        let imp = ridge_importance(&m);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn top_k_orders_descending() {
        let idx = top_k_features(&[0.1, 0.9, 0.5], 2);
        assert_eq!(idx, vec![1, 2]);
        assert_eq!(top_k_features(&[0.5, 0.5], 5), vec![0, 1]);
    }

    #[test]
    fn hydragan_appends_synthetic_rows() {
        let (base, _) = base_and_pool();
        let out = hydragan_like(&base, &task(), 40, 3);
        assert_eq!(out.dataset.num_rows(), base.num_rows() + 40);
    }

    #[test]
    fn column_similarity_is_jaccard() {
        let (base, pool) = base_and_pool();
        let sim = column_similarity(&base, &pool[0]);
        // Shared: id. Union: id, weak, y, strong.
        assert!((sim - 0.25).abs() < 1e-9);
        assert!((column_similarity(&base, &base) - 1.0).abs() < 1e-9);
    }
}
