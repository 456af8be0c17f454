//! Figure 14: scalability of the MODis variants on T5, varying the number of
//! node features |A| (via edge-feature dimensionality) and the number of edge
//! clusters |adom|.

use modis_bench::{print_series, t5_measures};
use modis_core::prelude::*;
use modis_datagen::graphs::{generate_bipartite_graph, GraphConfig};

fn main() {
    let names: Vec<&str> = Algorithm::PAPER_VARIANTS.iter().map(|v| v.name()).collect();
    let base = ModisConfig::default()
        .with_epsilon(0.2)
        .with_max_states(20)
        .with_max_level(3)
        .with_estimator(EstimatorMode::Oracle);

    // (a) vary the edge-feature dimensionality (stand-in for |A|).
    let dims = [2.0, 4.0, 6.0, 8.0];
    let mut series = vec![Vec::new(); 4];
    for &d in &dims {
        let graph = generate_bipartite_graph(&GraphConfig {
            feature_dim: d as usize,
            seed: 42,
            ..GraphConfig::default()
        });
        let sub = GraphSubstrate::new(
            graph,
            t5_measures(),
            GraphSpaceConfig {
                n_edge_clusters: 5,
                ..GraphSpaceConfig::default()
            },
        );
        for (i, v) in Algorithm::PAPER_VARIANTS.iter().enumerate() {
            series[i].push(
                v.run(&ValuationContext::new(&sub, base.estimator), &base, 1)
                    .elapsed_seconds,
            );
        }
    }
    print_series(
        "Figure 14(a) — T5 discovery time (s) vs |A|",
        "|A|",
        &names,
        &dims,
        &series,
    );

    // (b) vary the number of edge clusters (|adom|).
    let clusters = [3.0, 5.0, 8.0, 12.0];
    let mut series = vec![Vec::new(); 4];
    for &k in &clusters {
        let graph = generate_bipartite_graph(&GraphConfig {
            seed: 42,
            ..GraphConfig::default()
        });
        let sub = GraphSubstrate::new(
            graph,
            t5_measures(),
            GraphSpaceConfig {
                n_edge_clusters: k as usize,
                ..GraphSpaceConfig::default()
            },
        );
        for (i, v) in Algorithm::PAPER_VARIANTS.iter().enumerate() {
            series[i].push(
                v.run(&ValuationContext::new(&sub, base.estimator), &base, 1)
                    .elapsed_seconds,
            );
        }
    }
    print_series(
        "Figure 14(b) — T5 discovery time (s) vs |adom| (edge clusters)",
        "|adom|",
        &names,
        &clusters,
        &series,
    );

    println!("\nExpected shape (paper): bi-directional variants (BiMODis, NOBiMODis, DivMODis)");
    println!("handle growing |A| and |adom| best; ApxMODis slows down the most.");
}
