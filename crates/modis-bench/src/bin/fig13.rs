//! Figure 13: efficiency of the MODis variants on T5 (graph data, a/b) and
//! T3 (avocado regression, c/d), varying ε and maxl.

use modis_bench::{print_series, t5_measures, task_t3};
use modis_core::prelude::*;
use modis_datagen::t5_recommendation;

fn main() {
    let names: Vec<&str> = Algorithm::PAPER_VARIANTS.iter().map(|v| v.name()).collect();

    // T5 graph substrate.
    let graph = t5_recommendation(42);
    let graph_sub = GraphSubstrate::new(
        graph,
        t5_measures(),
        GraphSpaceConfig {
            n_edge_clusters: 6,
            ..GraphSpaceConfig::default()
        },
    );
    let base = ModisConfig::default()
        .with_max_states(25)
        .with_estimator(EstimatorMode::Oracle);

    // (a) T5: vary ε.
    let eps = [0.1, 0.2, 0.3, 0.4, 0.5];
    let mut series = vec![Vec::new(); 4];
    for &e in &eps {
        let cfg = base.clone().with_epsilon(e).with_max_level(4);
        for (i, v) in Algorithm::PAPER_VARIANTS.iter().enumerate() {
            series[i].push(
                v.run(&ValuationContext::new(&graph_sub, cfg.estimator), &cfg, 1)
                    .elapsed_seconds,
            );
        }
    }
    print_series(
        "Figure 13(a) — T5 discovery time (s) vs ε",
        "epsilon",
        &names,
        &eps,
        &series,
    );

    // (b) T5: vary maxl.
    let maxls = [2.0, 3.0, 4.0];
    let mut series = vec![Vec::new(); 4];
    for &l in &maxls {
        let cfg = base.clone().with_epsilon(0.1).with_max_level(l as usize);
        for (i, v) in Algorithm::PAPER_VARIANTS.iter().enumerate() {
            series[i].push(
                v.run(&ValuationContext::new(&graph_sub, cfg.estimator), &cfg, 1)
                    .elapsed_seconds,
            );
        }
    }
    print_series(
        "Figure 13(b) — T5 discovery time (s) vs maxl",
        "maxl",
        &names,
        &maxls,
        &series,
    );

    // T3 tabular substrate.
    let w = task_t3(42);
    let table_sub = w.substrate();
    let base =
        ModisConfig::default()
            .with_max_states(40)
            .with_estimator(EstimatorMode::Surrogate {
                warmup: 10,
                refresh: 10,
            });

    // (c) T3: vary ε.
    let mut series = vec![Vec::new(); 4];
    for &e in &eps {
        let cfg = base.clone().with_epsilon(e).with_max_level(5);
        for (i, v) in Algorithm::PAPER_VARIANTS.iter().enumerate() {
            series[i].push(
                v.run(&ValuationContext::new(&table_sub, cfg.estimator), &cfg, 1)
                    .elapsed_seconds,
            );
        }
    }
    print_series(
        "Figure 13(c) — T3 discovery time (s) vs ε",
        "epsilon",
        &names,
        &eps,
        &series,
    );

    // (d) T3: vary maxl.
    let maxls = [2.0, 3.0, 4.0, 5.0];
    let mut series = vec![Vec::new(); 4];
    for &l in &maxls {
        let cfg = base.clone().with_epsilon(0.1).with_max_level(l as usize);
        for (i, v) in Algorithm::PAPER_VARIANTS.iter().enumerate() {
            series[i].push(
                v.run(&ValuationContext::new(&table_sub, cfg.estimator), &cfg, 1)
                    .elapsed_seconds,
            );
        }
    }
    print_series(
        "Figure 13(d) — T3 discovery time (s) vs maxl",
        "maxl",
        &names,
        &maxls,
        &series,
    );

    println!("\nExpected shape (paper): BiMODis is consistently the fastest on both the graph");
    println!("and the tabular task; all variants slow down as maxl grows and speed up as ε grows.");
}
