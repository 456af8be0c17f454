//! Task T5: generating skyline *graph* data for a LightGCN-style recommender.
//! Augment/reduct become edge insertions/deletions over a bipartite
//! user–item interaction graph.
//!
//! Run with `cargo run --example recommendation_graph`.

use modis_core::prelude::*;
use modis_datagen::t5_recommendation;

fn main() {
    let graph = t5_recommendation(5);
    println!(
        "Universal interaction graph: {} users × {} items, {} edges",
        graph.n_users,
        graph.n_items,
        graph.num_edges()
    );

    // Measures of Table 5: precision/recall/NDCG at 5 and 10, training cost.
    let measures = MeasureSet::new(vec![
        MeasureSpec::maximise("p_Pc5"),
        MeasureSpec::maximise("p_Pc10"),
        MeasureSpec::maximise("p_Rc5"),
        MeasureSpec::maximise("p_Rc10"),
        MeasureSpec::maximise("p_Nc5"),
        MeasureSpec::maximise("p_Nc10"),
        MeasureSpec::minimise("p_Train", 10.0),
    ]);
    let space = GraphSpaceConfig {
        n_edge_clusters: 6,
        ..GraphSpaceConfig::default()
    };
    let substrate = GraphSubstrate::new(graph, measures, space);

    // Performance of the untouched graph.
    let full = substrate.forward_start();
    let original = substrate.evaluate_raw(&full);
    println!(
        "Original graph: P@5 {:.3}, NDCG@10 {:.3}, training cost {:.4}",
        original[0], original[5], original[6]
    );

    // Run ApxMODis (edge deletions from the universal graph).
    let config = ModisConfig::default()
        .with_epsilon(0.1)
        .with_max_states(20)
        .with_max_level(3)
        .with_estimator(EstimatorMode::Oracle);
    let skyline = apx_modis(&substrate, &config);
    println!("\nApxMODis skyline ({} graphs):", skyline.len());
    for (i, e) in skyline.entries.iter().enumerate() {
        println!(
            "  G{} — P@5 {:.3}, P@10 {:.3}, NDCG@10 {:.3}, edges {}",
            i + 1,
            e.raw[0],
            e.raw[1],
            e.raw[5],
            e.size.0
        );
    }
    println!("\nPruning noisy cross-community edge clusters typically lifts P@k and NDCG@k");
    println!("above the original graph while shrinking the graph — the Table 5 behaviour.");
}
