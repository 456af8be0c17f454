//! Integration tests for the T5 graph task: GraphSubstrate + MODis variants.

use modis_bench::{best_by_raw, run_graph_methods, t5_measures};
use modis_core::prelude::*;
use modis_datagen::graphs::{generate_bipartite_graph, GraphConfig};

fn small_graph_config() -> GraphConfig {
    GraphConfig {
        n_users: 24,
        n_items: 24,
        n_groups: 3,
        interactions_per_user: 5,
        noise_fraction: 0.4,
        feature_dim: 3,
        seed: 51,
    }
}

fn fast_modis_config() -> ModisConfig {
    ModisConfig::default()
        .with_epsilon(0.2)
        .with_max_states(12)
        .with_max_level(2)
        .with_estimator(EstimatorMode::Oracle)
}

#[test]
fn graph_methods_produce_full_measure_vectors() {
    let graph = generate_bipartite_graph(&small_graph_config());
    let space = GraphSpaceConfig {
        n_edge_clusters: 4,
        ..GraphSpaceConfig::default()
    };
    let rows = run_graph_methods(&graph, &fast_modis_config(), &space);
    assert_eq!(rows.len(), 5); // Original + 4 MODis variants
    for row in &rows {
        assert_eq!(row.raw.len(), t5_measures().len(), "row {}", row.method);
        // Ranking metrics stay in [0, 1].
        assert!(
            row.raw[..6].iter().all(|&v| (0.0..=1.0).contains(&v)),
            "row {}",
            row.method
        );
    }
}

#[test]
fn reducing_noise_edges_does_not_hurt_ranking_much() {
    let graph = generate_bipartite_graph(&small_graph_config());
    let space = GraphSpaceConfig {
        n_edge_clusters: 4,
        ..GraphSpaceConfig::default()
    };
    let substrate = GraphSubstrate::new(graph, t5_measures(), space);
    let result = apx_modis(&substrate, &fast_modis_config());
    assert!(!result.is_empty());
    let original_p5 = substrate.evaluate_raw(&substrate.forward_start())[0];
    let best_p5 = best_by_raw(&result, 0, true)
        .map(|e| e.raw[0])
        .unwrap_or(0.0);
    // The skyline's best P@5 should be at least comparable to the original
    // graph (the search may also strictly improve it by dropping noise).
    assert!(
        best_p5 >= original_p5 * 0.8,
        "best P@5 {best_p5} collapsed vs original {original_p5}"
    );
}

#[test]
fn graph_skyline_outputs_are_smaller_graphs() {
    let graph = generate_bipartite_graph(&small_graph_config());
    let total_edges = graph.num_edges();
    let space = GraphSpaceConfig {
        n_edge_clusters: 4,
        ..GraphSpaceConfig::default()
    };
    let substrate = GraphSubstrate::new(graph, t5_measures(), space);
    let result = bi_modis(&substrate, &fast_modis_config());
    assert!(result.entries.iter().all(|e| e.size.0 <= total_edges));
    assert!(result.entries.iter().any(|e| e.size.0 > 0));
}
