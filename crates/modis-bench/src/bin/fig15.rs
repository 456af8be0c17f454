//! Figure 15: sensitivity analysis on T5 — the percentage change of the
//! primary ranking measure (P@5) relative to the original graph, as a
//! function of the maximum path length and of ε.

use modis_bench::{best_by_raw, print_series, t5_measures};
use modis_core::prelude::*;
use modis_datagen::t5_recommendation;

fn percentage_change(best: f64, original: f64) -> f64 {
    if original <= 1e-12 {
        0.0
    } else {
        (best - original) / original * 100.0
    }
}

fn main() {
    let graph = t5_recommendation(42);
    let sub = GraphSubstrate::new(
        graph,
        t5_measures(),
        GraphSpaceConfig {
            n_edge_clusters: 6,
            ..GraphSpaceConfig::default()
        },
    );
    let original_p5 = sub.evaluate_raw(&sub.forward_start())[0];
    let names: Vec<&str> = Algorithm::PAPER_VARIANTS.iter().map(|v| v.name()).collect();
    let base = ModisConfig::default()
        .with_max_states(25)
        .with_estimator(EstimatorMode::Oracle);

    // (a) percentage change vs maxl.
    let maxls = [1.0, 2.0, 3.0, 4.0];
    let mut series = vec![Vec::new(); 4];
    for &l in &maxls {
        let cfg = base.clone().with_epsilon(0.1).with_max_level(l as usize);
        for (i, v) in Algorithm::PAPER_VARIANTS.iter().enumerate() {
            let res = v.run(&ValuationContext::new(&sub, cfg.estimator), &cfg, 1);
            let best = best_by_raw(&res, 0, true)
                .map(|e| e.raw[0])
                .unwrap_or(original_p5);
            series[i].push(percentage_change(best, original_p5));
        }
    }
    print_series(
        "Figure 15(a) — T5 % change of P@5 vs maxl",
        "maxl",
        &names,
        &maxls,
        &series,
    );

    // (b) percentage change vs ε.
    let eps = [0.5, 0.3, 0.2, 0.1];
    let mut series = vec![Vec::new(); 4];
    for &e in &eps {
        let cfg = base.clone().with_epsilon(e).with_max_level(3);
        for (i, v) in Algorithm::PAPER_VARIANTS.iter().enumerate() {
            let res = v.run(&ValuationContext::new(&sub, cfg.estimator), &cfg, 1);
            let best = best_by_raw(&res, 0, true)
                .map(|e| e.raw[0])
                .unwrap_or(original_p5);
            series[i].push(percentage_change(best, original_p5));
        }
    }
    print_series(
        "Figure 15(b) — T5 % change of P@5 vs ε",
        "epsilon",
        &names,
        &eps,
        &series,
    );

    println!("\nExpected shape (paper): larger maxl and smaller ε yield larger percentage");
    println!("improvements; sensitivity to maxl is stronger than to ε.");
}
