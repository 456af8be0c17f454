//! The paper's §6 results, one row per experiment: Tables 4–6, Figures 7–10
//! and 13–15, and the Fig. 11 case studies.
//!
//! `repro <name>…` runs the named experiments in the order given and prints
//! each one's tables and its "Expected shape" footer. With no name, or with a
//! name that is not a row, it lists the rows and exits non-zero.
//!
//! ```sh
//! cargo run --release -p modis-bench --bin repro -- fig9 case_studies
//! ```

use modis_bench::baselines::metam;
use modis_bench::case_studies::{image_feature_pool, xray_material_pool};
use modis_bench::{
    best_by_raw, print_method_table, print_series, print_table, run_graph_methods,
    run_table_methods, t5_measures, task_t1, task_t2, task_t3, task_t4, MethodRow, Row,
};
use modis_core::prelude::*;
use modis_datagen::graphs::{generate_bipartite_graph, GraphConfig};
use modis_datagen::t5_recommendation;
use modis_datagen::tables::{generate_table_pool, TablePoolConfig};

/// The experiments in the order the paper presents them: Exp-1's
/// effectiveness tables and figures, Exp-2's efficiency, the case studies,
/// then the appendix's Table 6 and Figures 13–15.
const EXPERIMENTS: [Experiment; 11] = [
    ("table4", "methods on T2 and T4", table4),
    ("table5", "MODis variants on T5", table5),
    ("fig7", "rImp radar, T1 and T3", fig7),
    ("fig8", "best accuracy vs ε, maxl", fig8),
    ("fig9", "DivMODis vs α", fig9),
    ("fig10", "T1 time vs ε, maxl, |A|, |adom|", fig10),
    ("case_studies", "Fig. 11 case studies", case_studies),
    ("table6", "methods on T1 and T3", table6),
    ("fig13", "T5, T3 time vs ε, maxl", fig13),
    ("fig14", "T5 time vs |A|, |adom|", fig14),
    ("fig15", "T5 P@5 change vs maxl, ε", fig15),
];

/// A row of [`EXPERIMENTS`]: its name, what it shows, and its body.
type Experiment = (&'static str, &'static str, fn());

/// The named rows in the order given, or `None` when no name is given or
/// one names no row.
fn select<S: AsRef<str>>(names: &[S]) -> Option<Vec<&'static Experiment>> {
    let rows = names
        .iter()
        .map(|name| EXPERIMENTS.iter().find(|row| row.0 == name.as_ref()))
        .collect::<Option<Vec<_>>>()?;
    (!rows.is_empty()).then_some(rows)
}

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let Some(rows) = select(&names) else {
        eprintln!("usage: repro <experiment>…  (run in the order given)");
        for (name, what, _) in EXPERIMENTS {
            eprintln!("  {name:<13} {what}");
        }
        std::process::exit(2);
    };
    for (_, _, run) in rows {
        run();
    }
}

/// A search config: ε, the state budget, maxl and the estimator.
fn modis_config(
    epsilon: f64,
    max_states: usize,
    max_level: usize,
    estimator: EstimatorMode,
) -> ModisConfig {
    ModisConfig::default()
        .with_epsilon(epsilon)
        .with_max_states(max_states)
        .with_max_level(max_level)
        .with_estimator(estimator)
}

/// The MO-GBM surrogate with a refresh every 10 valuations.
fn surrogate(warmup: usize) -> EstimatorMode {
    EstimatorMode::Surrogate {
        warmup,
        refresh: 10,
    }
}

/// One run of `v` on a fresh context over `sub`, at one worker.
fn run<S: Substrate + ?Sized>(sub: &S, v: Algorithm, config: &ModisConfig) -> SkylineResult {
    v.run(&ValuationContext::new(sub, config.estimator), config, 1)
}

/// The best primary measure of a result, or `none` for an empty one.
fn best_primary(res: &SkylineResult, none: f64) -> f64 {
    best_by_raw(res, 0, true).map(|e| e.raw[0]).unwrap_or(none)
}

/// One variant's discovery time at `config` on a substrate the panel shares.
fn timed<S: Substrate + ?Sized>(sub: &S, config: ModisConfig) -> impl FnMut(Algorithm) -> f64 + '_ {
    move |v| run(sub, v, &config).elapsed_seconds
}

/// One variant's best primary measure at `config` on a substrate the panel
/// shares.
fn best<S: Substrate + ?Sized>(sub: &S, config: ModisConfig) -> impl FnMut(Algorithm) -> f64 + '_ {
    move |v| best_primary(&run(sub, v, &config), 0.0)
}

/// The T5 substrate over the seed-42 recommendation graph, its edges cut
/// into `n_edge_clusters` clusters.
fn t5_substrate(n_edge_clusters: usize) -> GraphSubstrate {
    let space = GraphSpaceConfig {
        n_edge_clusters,
        ..GraphSpaceConfig::default()
    };
    GraphSubstrate::new(t5_recommendation(42), t5_measures(), space)
}

/// One panel of a sweep figure: a line per x and a column per paper
/// variant. At each x, `at(x)` sets up what the four variants share there
/// (a config, and a substrate when the x builds one) and returns how one
/// variant's run at x is measured; the variants run in
/// `Algorithm::PAPER_VARIANTS` order.
fn sweep<G: FnMut(Algorithm) -> f64>(
    title: &str,
    x_label: &str,
    xs: &[f64],
    mut at: impl FnMut(f64) -> G,
) {
    let names: Vec<&str> = Algorithm::PAPER_VARIANTS.iter().map(|v| v.name()).collect();
    let mut series = vec![Vec::new(); names.len()];
    for &x in xs {
        let mut measure = at(x);
        for (column, &variant) in series.iter_mut().zip(&Algorithm::PAPER_VARIANTS) {
            column.push(measure(variant));
        }
    }
    print_series(title, x_label, &names, xs, &series);
}

/// Table 4: comparison of data-discovery methods in the multi-objective
/// setting on T2 (house classification) and T4 (mental-health
/// classification), every measure of Table 3 plus the output size.
fn table4() {
    let config = modis_config(0.1, 60, 6, surrogate(15));

    let t2 = task_t2(42);
    let rows = run_table_methods(&t2, &config);
    print_method_table("Table 4 (T2: House)", &t2.task.measures.names(), &rows);

    let t4 = task_t4(42);
    let rows = run_table_methods(&t4, &config);
    print_method_table("Table 4 (T4: Mental)", &t4.task.measures.names(), &rows);

    println!("\nExpected shape (paper): MODis variants lead p_F1/p_Acc on both tasks,");
    println!("feature-selection baselines (SkSFM/H2O) win training time at an accuracy cost,");
    println!("augmentation baselines (METAM/Starmie) sit in between.");
}

/// Table 5: MODis variants on the T5 graph task (link regression for
/// recommendation with a LightGCN-style model): P@5/10, R@5/10, NDCG@5/10
/// and the output size for the original graph and each variant.
fn table5() {
    let graph = t5_recommendation(42);
    let config = modis_config(0.1, 30, 4, EstimatorMode::Oracle);
    let space = GraphSpaceConfig {
        n_edge_clusters: 6,
        ..GraphSpaceConfig::default()
    };

    let rows = run_graph_methods(&graph, &config, &space);
    print_method_table(
        "Table 5 (T5: LightGCN recommendation)",
        &t5_measures().names(),
        &rows,
    );

    println!("\nExpected shape (paper): all MODis variants improve P@k / NDCG@k over the");
    println!("original graph by pruning noisy cross-community edges, with smaller outputs.");
}

/// Figure 7: effectiveness over multiple measures (radar plots for T1 and
/// T3). For every method and measure, the relative improvement
/// `rImp(p) = M(D_M).p / M(D_o).p` over the original dataset (normalised
/// minimise scale, larger is better): the radii of the paper's radar chart.
fn fig7() {
    let config = modis_config(0.1, 50, 5, surrogate(12));

    for workload in [task_t1(42), task_t3(42)] {
        let rows = run_table_methods(&workload, &config);
        let measures = &workload.task.measures;
        let original = rows
            .iter()
            .find(|r| r.method == "Original")
            .expect("original row");
        let orig_norm = measures.normalise(&original.raw);
        let radar: Vec<Row> = rows
            .iter()
            .map(|r| {
                let rimp = orig_norm
                    .iter()
                    .zip(measures.normalise(&r.raw))
                    .map(|(o, n)| if n > 1e-9 { o / n } else { 1.0 })
                    .collect();
                Row::new(r.method.clone(), rimp)
            })
            .collect();
        print_table(
            &format!(
                "Figure 7 ({}) — rImp per measure (outer/larger is better)",
                workload.task.name
            ),
            &measures.names(),
            &radar,
        );
    }
    println!("\nExpected shape (paper): MODis variants enclose the baselines on most axes,");
    println!("with rImp(p_Acc) of roughly 1.5-2x over the original dataset.");
}

/// Figure 8: impact of ε (a, c) and of the maximum path length maxl (b, d)
/// on the accuracy / F1 the MODis variants reach, for T1 and T2.
fn fig8() {
    let with_eps = |e: f64| modis_config(e, 40, 6, surrogate(12));
    let with_maxl = |l: f64| modis_config(0.1, 40, l as usize, surrogate(12));

    let t1 = &task_t1(42).substrate();
    let title = "Figure 8(a) — T1 accuracy vs ε";
    sweep(title, "epsilon", &[0.5, 0.4, 0.3, 0.2, 0.1], |e| {
        best(t1, with_eps(e))
    });
    let title = "Figure 8(b) — T1 accuracy vs maxl";
    sweep(title, "maxl", &[2.0, 3.0, 4.0, 5.0, 6.0], |l| {
        best(t1, with_maxl(l))
    });
    let t2 = &task_t2(42).substrate();
    let title = "Figure 8(c) — T2 F1 vs ε";
    sweep(title, "epsilon", &[0.1, 0.08, 0.05, 0.02], |e| {
        best(t2, with_eps(e))
    });
    let title = "Figure 8(d) — T2 F1 vs maxl";
    sweep(title, "maxl", &[2.0, 3.0, 4.0, 5.0, 6.0], |l| {
        best(t2, with_maxl(l))
    });

    println!("\nExpected shape (paper): smaller ε and larger maxl improve accuracy/F1 for all");
    println!("variants; BiMODis/NOBiMODis benefit the most, ApxMODis is the least sensitive.");
}

/// Figure 9: impact of the diversification trade-off α on DivMODis.
///
/// (a) Performance diversity: the distribution (min / mean / median / max)
///     of the accuracy across the diversified skyline members, per α.
/// (b) Content diversity: the per-unit contribution balance of the skyline
///     members, summarised by the standard deviation of unit usage (smaller
///     = more evenly distributed contributions, as in the paper's heatmap).
fn fig9() {
    let workload = task_t1(42);
    let substrate = workload.substrate();
    let alphas = [0.1, 0.3, 0.5, 0.7, 0.9];

    let mut perf_rows = Vec::new();
    let mut content_rows = Vec::new();
    for &alpha in &alphas {
        let config = modis_config(0.2, 40, 5, surrogate(12)).with_diversification(4, alpha);
        let result = div_modis(&substrate, &config);

        // (a) accuracy distribution across skyline members.
        let accs: Vec<f64> = result
            .entries
            .iter()
            .filter_map(|e| e.raw.first().copied())
            .collect();
        let (min, max) = accs
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let mean = if accs.is_empty() {
            0.0
        } else {
            accs.iter().sum::<f64>() / accs.len() as f64
        };
        let mut sorted = accs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = sorted.get(sorted.len() / 2).copied().unwrap_or(0.0);
        perf_rows.push(Row::new(
            format!("alpha={alpha}"),
            vec![min.min(max), mean, median, max.max(min), accs.len() as f64],
        ));

        // (b) unit-usage balance across skyline members.
        let n_units = substrate.num_units();
        let mut usage = vec![0.0f64; n_units];
        for e in &result.entries {
            for (i, u) in usage.iter_mut().enumerate() {
                if e.bitmap.get(i) {
                    *u += 1.0;
                }
            }
        }
        let total: f64 = usage.iter().sum();
        let shares: Vec<f64> = if total > 0.0 {
            usage.iter().map(|u| u / total).collect()
        } else {
            vec![0.0; n_units]
        };
        let std = modis_data::stats::std_dev(&shares);
        content_rows.push(Row::new(format!("alpha={alpha}"), vec![std]));
    }

    print_table(
        "Figure 9(a) — accuracy distribution of the diversified skyline vs α",
        &["min", "mean", "median", "max", "count"],
        &perf_rows,
    );
    print_table(
        "Figure 9(b) — std-dev of per-unit contribution shares vs α (smaller = more balanced)",
        &["std_dev"],
        &content_rows,
    );

    println!("\nExpected shape (paper): small α gives a wider accuracy range with centred");
    println!("mean/median; larger α narrows the accuracy distribution and makes the unit");
    println!("contributions more evenly distributed (decreasing std-dev).");
}

/// Figure 10: efficiency and scalability on T1: discovery time vs ε (a) and
/// maxl (b) on one substrate, and vs the number of attributes |A| (c) and
/// the largest active-domain size |adom| (d, clusters per attribute) on a
/// substrate per x.
fn fig10() {
    let workload = task_t1(42);
    let substrate = &workload.substrate();

    let title = "Figure 10(a) — T1 discovery time (s) vs ε";
    sweep(title, "epsilon", &[0.1, 0.2, 0.3, 0.4, 0.5], |e| {
        timed(substrate, modis_config(e, 40, 6, surrogate(10)))
    });
    let title = "Figure 10(b) — T1 discovery time (s) vs maxl";
    sweep(title, "maxl", &[2.0, 3.0, 4.0, 5.0, 6.0], |l| {
        timed(substrate, modis_config(0.2, 40, l as usize, surrogate(10)))
    });

    let config = &modis_config(0.2, 40, 4, surrogate(10));
    let title = "Figure 10(c) — T1 discovery time (s) vs |A|";
    sweep(title, "|A|", &[4.0, 6.0, 8.0, 10.0], |a| {
        let a = a as usize;
        let pool = generate_table_pool(&TablePoolConfig {
            n_rows: 250,
            n_informative: a / 2,
            n_redundant: 1,
            n_noise: a - a / 2 - 1,
            n_tables: 4,
            seed: 42,
            ..Default::default()
        });
        let sub = TableSubstrate::from_pool(&pool.tables, workload.task.clone(), &workload.space);
        move |v| run(&sub, v, config).elapsed_seconds
    });
    let title = "Figure 10(d) — T1 discovery time (s) vs |adom| (clusters per attribute)";
    sweep(title, "|adom|", &[1.0, 2.0, 3.0, 4.0], |k| {
        let space = TableSpaceConfig {
            max_clusters_per_attr: k as usize,
            ..workload.space.clone()
        };
        let sub = TableSubstrate::from_pool(&workload.pool.tables, workload.task.clone(), &space);
        move |v| run(&sub, v, config).elapsed_seconds
    });

    println!("\nExpected shape (paper): time decreases as ε grows (more pruning) and grows");
    println!("with maxl, |A| and |adom|; BiMODis scales best, ApxMODis is the slowest.");
}

fn xray_task(pool_target: &str, key: &str, seed: u64) -> TaskSpec {
    TaskSpec {
        name: "case1-xray".into(),
        model: ModelKind::RandomForestClassifier,
        target: pool_target.into(),
        key: Some(key.into()),
        measures: MeasureSet::new(vec![
            MeasureSpec::maximise("p_Acc"),
            MeasureSpec::minimise("p_Train", 5.0),
            MeasureSpec::maximise("p_F1"),
        ]),
        metric_kinds: vec![MetricKind::Accuracy, MetricKind::TrainTime, MetricKind::F1],
        train_ratio: 0.7,
        seed,
    }
}

/// Exp-4 / Figure 11: the two real-world case studies.
///
/// Case 1, "find data with models": improve an X-ray diffraction peak
/// classifier in accuracy, training cost and F1 using BiMODis, compared
/// against METAM optimising F1 only.
///
/// Case 2, "generating test data for model evaluation": generate test
/// datasets over which an image classifier satisfies "accuracy > 0.85" and
/// "training cost < 30 s".
fn case_studies() {
    // ---------------------------------------------------------------- Case 1
    let pool = xray_material_pool(42);
    let task = xray_task(&pool.target, &pool.join_key, 42);
    let space = TableSpaceConfig {
        join_key: pool.join_key.clone(),
        max_clusters_per_attr: 2,
        ..TableSpaceConfig::default()
    };
    let substrate = TableSubstrate::from_pool(&pool.tables, task.clone(), &space);
    let config = modis_config(0.1, 50, 5, surrogate(12));

    let mut rows = vec![
        MethodRow::evaluated("Original", evaluate_dataset(&task, pool.base())),
        MethodRow::evaluated(
            "METAM(F1)",
            metam(pool.base(), &pool.tables, &task, &pool.join_key, 2).evaluation,
        ),
    ];
    let bi = bi_modis(&substrate, &config);
    println!("Case 1: BiMODis generated {} candidate datasets:", bi.len());
    for (i, e) in bi.entries.iter().enumerate().take(3) {
        println!(
            "  D{} — accuracy {:.3}, training cost {:.4}, F1 {:.3}, size {:?}",
            i + 1,
            e.raw[0],
            e.raw[1],
            e.raw[2],
            e.size
        );
        rows.push(MethodRow {
            method: format!("BiMODis-D{}", i + 1),
            raw: e.raw.clone(),
            size: e.size,
            discovery_seconds: bi.elapsed_seconds,
        });
    }
    print_method_table(
        "Case 1 (Fig. 11 left) — X-ray peak classification",
        &task.measures.names(),
        &rows,
    );

    // ---------------------------------------------------------------- Case 2
    let pool = image_feature_pool(42, 12, 4);
    let task = TaskSpec {
        name: "case2-testgen".into(),
        model: ModelKind::LogisticClassifier,
        target: pool.target.clone(),
        key: Some(pool.join_key.clone()),
        measures: MeasureSet::new(vec![
            // "accuracy > 0.85" ⇒ normalised (1 − acc) must stay ≤ 0.15.
            MeasureSpec::maximise("p_Acc").with_bounds(0.001, 0.15),
            // "training cost < 30 s" ⇒ normalised against a 30 s budget.
            MeasureSpec::minimise("p_Train", 30.0).with_bounds(0.001, 1.0),
        ]),
        metric_kinds: vec![MetricKind::Accuracy, MetricKind::TrainTime],
        train_ratio: 0.7,
        seed: 42,
    };
    let space = TableSpaceConfig {
        join_key: pool.join_key.clone(),
        max_clusters_per_attr: 1,
        ..TableSpaceConfig::default()
    };
    let substrate = TableSubstrate::from_pool(&pool.tables, task.clone(), &space);
    let config = modis_config(0.1, 40, 4, surrogate(12));
    let result = bi_modis(&substrate, &config);
    println!(
        "\nCase 2: BiMODis generated {} test datasets satisfying the constraints",
        result.len()
    );
    let rows: Vec<MethodRow> = result
        .entries
        .iter()
        .take(3)
        .enumerate()
        .map(|(i, e)| MethodRow {
            method: format!("TestSet-{}", i + 1),
            raw: e.raw.clone(),
            size: e.size,
            discovery_seconds: result.elapsed_seconds,
        })
        .collect();
    print_method_table(
        "Case 2 (Fig. 11 right) — test data generation (accuracy > 0.85, train < 30s)",
        &task.measures.names(),
        &rows,
    );

    println!("\nExpected shape (paper): BiMODis produces a handful of datasets that beat the");
    println!("original model on all three measures in Case 1, and 3 constraint-satisfying");
    println!("test datasets in Case 2 within seconds.");
}

/// Table 6: comparison of data-discovery methods on T1 (movie-gross
/// regression) and T3 (avocado-price regression).
fn table6() {
    let config = modis_config(0.1, 60, 6, surrogate(15));

    let t1 = task_t1(42);
    let rows = run_table_methods(&t1, &config);
    print_method_table("Table 6 (T1: Movie)", &t1.task.measures.names(), &rows);

    let t3 = task_t3(42);
    let rows = run_table_methods(&t3, &config);
    print_method_table("Table 6 (T3: Avocado)", &t3.task.measures.names(), &rows);

    println!("\nExpected shape (paper): NOBiMODis/BiMODis take the top spots on p_Acc (T1)");
    println!("and MSE/MAE (T3); SkSFM/H2O trade accuracy for the lowest training time.");
}

/// Figure 13: efficiency of the MODis variants on T5 (graph data, a/b) and
/// T3 (avocado regression, c/d), varying ε and maxl; one substrate per task.
fn fig13() {
    let eps = [0.1, 0.2, 0.3, 0.4, 0.5];

    let graph_sub = &t5_substrate(6);
    let title = "Figure 13(a) — T5 discovery time (s) vs ε";
    sweep(title, "epsilon", &eps, |e| {
        timed(graph_sub, modis_config(e, 25, 4, EstimatorMode::Oracle))
    });
    let title = "Figure 13(b) — T5 discovery time (s) vs maxl";
    sweep(title, "maxl", &[2.0, 3.0, 4.0], |l| {
        timed(
            graph_sub,
            modis_config(0.1, 25, l as usize, EstimatorMode::Oracle),
        )
    });

    let table_sub = &task_t3(42).substrate();
    let title = "Figure 13(c) — T3 discovery time (s) vs ε";
    sweep(title, "epsilon", &eps, |e| {
        timed(table_sub, modis_config(e, 40, 5, surrogate(10)))
    });
    let title = "Figure 13(d) — T3 discovery time (s) vs maxl";
    sweep(title, "maxl", &[2.0, 3.0, 4.0, 5.0], |l| {
        timed(table_sub, modis_config(0.1, 40, l as usize, surrogate(10)))
    });

    println!("\nExpected shape (paper): BiMODis is consistently the fastest on both the graph");
    println!("and the tabular task; all variants slow down as maxl grows and speed up as ε grows.");
}

/// Figure 14: scalability of the MODis variants on T5, varying the number
/// of node features |A| (via edge-feature dimensionality) and the number of
/// edge clusters |adom|; a substrate per x.
fn fig14() {
    let config = &modis_config(0.2, 20, 3, EstimatorMode::Oracle);

    let title = "Figure 14(a) — T5 discovery time (s) vs |A|";
    sweep(title, "|A|", &[2.0, 4.0, 6.0, 8.0], |d| {
        let graph = generate_bipartite_graph(&GraphConfig {
            feature_dim: d as usize,
            seed: 42,
            ..GraphConfig::default()
        });
        let space = GraphSpaceConfig {
            n_edge_clusters: 5,
            ..GraphSpaceConfig::default()
        };
        let sub = GraphSubstrate::new(graph, t5_measures(), space);
        move |v| run(&sub, v, config).elapsed_seconds
    });
    let title = "Figure 14(b) — T5 discovery time (s) vs |adom| (edge clusters)";
    sweep(title, "|adom|", &[3.0, 5.0, 8.0, 12.0], |k| {
        let sub = t5_substrate(k as usize);
        move |v| run(&sub, v, config).elapsed_seconds
    });

    println!("\nExpected shape (paper): bi-directional variants (BiMODis, NOBiMODis, DivMODis)");
    println!("handle growing |A| and |adom| best; ApxMODis slows down the most.");
}

/// Figure 15: sensitivity analysis on T5: the percentage change of the
/// primary ranking measure (P@5) relative to the original graph, as a
/// function of the maximum path length and of ε, on one substrate.
fn fig15() {
    let sub = &t5_substrate(6);
    let original_p5 = sub.evaluate_raw(&sub.forward_start())[0];
    let change = |config: ModisConfig| {
        move |v| {
            let best = best_primary(&run(sub, v, &config), original_p5);
            if original_p5 <= 1e-12 {
                0.0
            } else {
                (best - original_p5) / original_p5 * 100.0
            }
        }
    };
    let title = "Figure 15(a) — T5 % change of P@5 vs maxl";
    sweep(title, "maxl", &[1.0, 2.0, 3.0, 4.0], |l| {
        change(modis_config(0.1, 25, l as usize, EstimatorMode::Oracle))
    });
    let title = "Figure 15(b) — T5 % change of P@5 vs ε";
    sweep(title, "epsilon", &[0.5, 0.3, 0.2, 0.1], |e| {
        change(modis_config(e, 25, 3, EstimatorMode::Oracle))
    });

    println!("\nExpected shape (paper): larger maxl and smaller ε yield larger percentage");
    println!("improvements; sensitivity to maxl is stronger than to ε.");
}

#[cfg(test)]
mod tests {
    use super::{select, EXPERIMENTS};

    #[test]
    fn the_eleven_experiments_in_paper_order() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _, _)| *name).collect();
        let paper_order =
            "table4 table5 fig7 fig8 fig9 fig10 case_studies table6 fig13 fig14 fig15";
        assert_eq!(names.join(" "), paper_order);
    }

    #[test]
    fn rows_run_in_the_order_named_and_a_bad_name_selects_none() {
        let picked = select(&["fig15", "table4", "fig15"]).expect("three rows");
        let picked: Vec<&str> = picked.iter().map(|row| row.0).collect();
        assert_eq!(picked, ["fig15", "table4", "fig15"]);
        assert!(select::<&str>(&[]).is_none());
        assert!(select(&["fig9", "fig11"]).is_none());
    }
}
