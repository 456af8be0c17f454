//! Figure 10: efficiency and scalability on T1.
//!
//! (a) discovery time vs ε;  (b) discovery time vs maxl;
//! (c) discovery time vs the number of attributes |A|;
//! (d) discovery time vs the largest active-domain size |adom| (controlled by
//!     the number of clusters per attribute).

use modis_bench::{print_series, task_t1};
use modis_core::prelude::*;
use modis_datagen::tables::{generate_table_pool, TablePoolConfig};

fn time_of(substrate: &TableSubstrate, variant: Algorithm, config: &ModisConfig) -> f64 {
    variant
        .run(
            &ValuationContext::new(substrate, config.estimator),
            config,
            1,
        )
        .elapsed_seconds
}

fn main() {
    let names: Vec<&str> = Algorithm::PAPER_VARIANTS.iter().map(|v| v.name()).collect();
    let base_cfg =
        ModisConfig::default()
            .with_max_states(40)
            .with_estimator(EstimatorMode::Surrogate {
                warmup: 10,
                refresh: 10,
            });
    let workload = task_t1(42);
    let substrate = workload.substrate();

    // (a) vary ε.
    let eps = [0.1, 0.2, 0.3, 0.4, 0.5];
    let mut series = vec![Vec::new(); 4];
    for &e in &eps {
        let cfg = base_cfg.clone().with_epsilon(e).with_max_level(6);
        for (i, v) in Algorithm::PAPER_VARIANTS.iter().enumerate() {
            series[i].push(time_of(&substrate, *v, &cfg));
        }
    }
    print_series(
        "Figure 10(a) — T1 discovery time (s) vs ε",
        "epsilon",
        &names,
        &eps,
        &series,
    );

    // (b) vary maxl.
    let maxls = [2.0, 3.0, 4.0, 5.0, 6.0];
    let mut series = vec![Vec::new(); 4];
    for &l in &maxls {
        let cfg = base_cfg
            .clone()
            .with_epsilon(0.2)
            .with_max_level(l as usize);
        for (i, v) in Algorithm::PAPER_VARIANTS.iter().enumerate() {
            series[i].push(time_of(&substrate, *v, &cfg));
        }
    }
    print_series(
        "Figure 10(b) — T1 discovery time (s) vs maxl",
        "maxl",
        &names,
        &maxls,
        &series,
    );

    // (c) vary |A| (number of attributes in the pool).
    let attr_counts = [4.0, 6.0, 8.0, 10.0];
    let mut series = vec![Vec::new(); 4];
    for &a in &attr_counts {
        let pool = generate_table_pool(&TablePoolConfig {
            n_rows: 250,
            n_informative: (a as usize) / 2,
            n_redundant: 1,
            n_noise: (a as usize) - (a as usize) / 2 - 1,
            n_tables: 4,
            seed: 42,
            ..Default::default()
        });
        let w = task_t1(42);
        let sub = TableSubstrate::from_pool(&pool.tables, w.task.clone(), &w.space);
        let cfg = base_cfg.clone().with_epsilon(0.2).with_max_level(4);
        for (i, v) in Algorithm::PAPER_VARIANTS.iter().enumerate() {
            series[i].push(time_of(&sub, *v, &cfg));
        }
    }
    print_series(
        "Figure 10(c) — T1 discovery time (s) vs |A|",
        "|A|",
        &names,
        &attr_counts,
        &series,
    );

    // (d) vary |adom| via clusters per attribute.
    let adoms = [1.0, 2.0, 3.0, 4.0];
    let mut series = vec![Vec::new(); 4];
    for &k in &adoms {
        let w = task_t1(42);
        let space = TableSpaceConfig {
            max_clusters_per_attr: k as usize,
            ..w.space.clone()
        };
        let sub = TableSubstrate::from_pool(&w.pool.tables, w.task.clone(), &space);
        let cfg = base_cfg.clone().with_epsilon(0.2).with_max_level(4);
        for (i, v) in Algorithm::PAPER_VARIANTS.iter().enumerate() {
            series[i].push(time_of(&sub, *v, &cfg));
        }
    }
    print_series(
        "Figure 10(d) — T1 discovery time (s) vs |adom| (clusters per attribute)",
        "|adom|",
        &names,
        &adoms,
        &series,
    );

    println!("\nExpected shape (paper): time decreases as ε grows (more pruning) and grows");
    println!("with maxl, |A| and |adom|; BiMODis scales best, ApxMODis is the slowest.");
}
