//! Bipartite interaction graphs and a LightGCN-style link-prediction model.
//!
//! Task T5 of the paper is a link-regression/recommendation task: a bipartite
//! user–product graph is given, and a LightGCN model predicts the top-k
//! missing edges. The paper's augment/reduct operators become edge insertions
//! and deletions. This module provides:
//!
//! * [`BipartiteGraph`] — the graph artefact manipulated by the transducer;
//! * [`LightGcn`] — an embedding-propagation matrix-factorisation model
//!   (LightGCN simplifies GCNs to weighted-sum neighbourhood aggregation
//!   without feature transforms, which is exactly what is implemented here),
//!   trained with a BPR-style ranking objective;
//! * ranking evaluation helpers producing P@k / R@k / NDCG@k per user.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{ndcg_at_k, precision_at_k, recall_at_k};

/// An undirected bipartite interaction graph between `n_users` and
/// `n_items`, with optional per-edge feature vectors.
#[derive(Debug, Clone, Default)]
pub struct BipartiteGraph {
    /// Number of user nodes.
    pub n_users: usize,
    /// Number of item nodes.
    pub n_items: usize,
    /// Interaction edges `(user, item)`.
    pub edges: Vec<(usize, usize)>,
    /// Optional per-edge feature vectors, aligned with `edges`.
    pub edge_features: Vec<Vec<f64>>,
}

impl BipartiteGraph {
    /// Creates an empty graph with the given node counts.
    pub fn new(n_users: usize, n_items: usize) -> Self {
        BipartiteGraph {
            n_users,
            n_items,
            edges: Vec::new(),
            edge_features: Vec::new(),
        }
    }

    /// Adds an edge with an optional feature vector. Duplicate edges are
    /// ignored.
    pub fn add_edge(&mut self, user: usize, item: usize, features: Vec<f64>) -> bool {
        if user >= self.n_users || item >= self.n_items {
            return false;
        }
        if self.edges.iter().any(|&(u, i)| u == user && i == item) {
            return false;
        }
        self.edges.push((user, item));
        self.edge_features.push(features);
        true
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Items interacted with by a user.
    pub(crate) fn items_of(&self, user: usize) -> BTreeSet<usize> {
        self.edges
            .iter()
            .filter(|&&(u, _)| u == user)
            .map(|&(_, i)| i)
            .collect()
    }

    /// Splits the edges into (train, test) graphs deterministically.
    pub fn split_edges(&self, train_ratio: f64, seed: u64) -> (BipartiteGraph, BipartiteGraph) {
        let n = self.edges.len();
        let mut idx: Vec<usize> = (0..n).collect();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(13);
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            idx.swap(i, j);
        }
        let cut = ((n as f64) * train_ratio).round() as usize;
        let cut = cut.min(n);
        let mut train = BipartiteGraph::new(self.n_users, self.n_items);
        let mut test = BipartiteGraph::new(self.n_users, self.n_items);
        for (pos, &e) in idx.iter().enumerate() {
            let (u, i) = self.edges[e];
            let f = self.edge_features[e].clone();
            if pos < cut {
                train.add_edge(u, i, f);
            } else {
                test.add_edge(u, i, f);
            }
        }
        (train, test)
    }

    /// Reported graph size `(edges, feature-dimensions)` as in Table 5.
    pub fn reported_size(&self) -> (usize, usize) {
        let dim = self
            .edge_features
            .iter()
            .map(|f| f.len())
            .max()
            .unwrap_or(0);
        (self.num_edges(), dim)
    }
}

/// Hyper-parameters of the LightGCN-style model.
#[derive(Debug, Clone, Copy)]
pub struct LightGcnParams {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Number of propagation layers.
    pub layers: usize,
    /// Number of BPR training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularisation on embeddings.
    pub reg: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LightGcnParams {
    fn default() -> Self {
        LightGcnParams {
            dim: 16,
            layers: 2,
            epochs: 60,
            learning_rate: 0.05,
            reg: 1e-4,
            seed: 7,
        }
    }
}

/// A trained LightGCN-style recommender.
#[derive(Debug, Clone)]
pub struct LightGcn {
    user_emb: Vec<Vec<f64>>,
    item_emb: Vec<Vec<f64>>,
    params: LightGcnParams,
}

impl LightGcn {
    /// Trains on the given interaction graph.
    pub fn fit(graph: &BipartiteGraph, params: LightGcnParams) -> LightGcn {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let init = |rng: &mut StdRng| -> Vec<f64> {
            (0..params.dim).map(|_| rng.gen_range(-0.1..0.1)).collect()
        };
        let mut user_emb: Vec<Vec<f64>> = (0..graph.n_users).map(|_| init(&mut rng)).collect();
        let mut item_emb: Vec<Vec<f64>> = (0..graph.n_items).map(|_| init(&mut rng)).collect();

        if graph.edges.is_empty() || graph.n_items < 2 {
            return LightGcn {
                user_emb,
                item_emb,
                params,
            };
        }

        // Precompute adjacency for propagation and negative sampling.
        let mut user_items: Vec<Vec<usize>> = vec![Vec::new(); graph.n_users];
        let mut item_users: Vec<Vec<usize>> = vec![Vec::new(); graph.n_items];
        for &(u, i) in &graph.edges {
            user_items[u].push(i);
            item_users[i].push(u);
        }

        for _epoch in 0..params.epochs {
            // Light propagation: average the base embeddings with
            // symmetric-normalised neighbour aggregates, `layers` times.
            let (prop_user, prop_item) = propagate(
                &user_emb,
                &item_emb,
                &user_items,
                &item_users,
                params.layers,
            );

            // BPR updates on the *base* embeddings using propagated scores'
            // gradient approximation (gradients flow to base embeddings as if
            // layer-0; LightGCN's final embedding is the layer average, and
            // using it directly for the gradient keeps the implementation
            // compact while preserving ranking behaviour).
            for &(u, i_pos) in &graph.edges {
                // Sample a negative item not interacted with by u.
                let mut i_neg = rng.gen_range(0..graph.n_items);
                let mut guard = 0;
                while user_items[u].contains(&i_neg) && guard < 20 {
                    i_neg = rng.gen_range(0..graph.n_items);
                    guard += 1;
                }
                if user_items[u].contains(&i_neg) {
                    continue;
                }
                let score_pos = dot(&prop_user[u], &prop_item[i_pos]);
                let score_neg = dot(&prop_user[u], &prop_item[i_neg]);
                let diff = score_pos - score_neg;
                let sig = 1.0 / (1.0 + diff.exp()); // d/dx of -ln σ(x) = -σ(-x)
                for d in 0..params.dim {
                    let gu = sig * (prop_item[i_pos][d] - prop_item[i_neg][d])
                        - params.reg * user_emb[u][d];
                    let gp = sig * prop_user[u][d] - params.reg * item_emb[i_pos][d];
                    let gn = -sig * prop_user[u][d] - params.reg * item_emb[i_neg][d];
                    user_emb[u][d] += params.learning_rate * gu;
                    item_emb[i_pos][d] += params.learning_rate * gp;
                    item_emb[i_neg][d] += params.learning_rate * gn;
                }
            }
        }

        // Store the propagated embeddings for inference.
        let mut user_items2: Vec<Vec<usize>> = vec![Vec::new(); graph.n_users];
        let mut item_users2: Vec<Vec<usize>> = vec![Vec::new(); graph.n_items];
        for &(u, i) in &graph.edges {
            user_items2[u].push(i);
            item_users2[i].push(u);
        }
        let (pu, pi) = propagate(
            &user_emb,
            &item_emb,
            &user_items2,
            &item_users2,
            params.layers,
        );
        LightGcn {
            user_emb: pu,
            item_emb: pi,
            params,
        }
    }

    /// Interaction score for a (user, item) pair.
    pub fn score(&self, user: usize, item: usize) -> f64 {
        match (self.user_emb.get(user), self.item_emb.get(item)) {
            (Some(u), Some(i)) => dot(u, i),
            _ => 0.0,
        }
    }

    /// Items ranked by score for a user, excluding the provided known items.
    pub(crate) fn rank_items(&self, user: usize, exclude: &BTreeSet<usize>) -> Vec<usize> {
        let mut scored: Vec<(usize, f64)> = (0..self.item_emb.len())
            .filter(|i| !exclude.contains(i))
            .map(|i| (i, self.score(user, i)))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.into_iter().map(|(i, _)| i).collect()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.params.dim
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// LightGCN propagation: layer-wise neighbour averaging with symmetric
/// normalisation, returning the mean over layers (including layer 0).
fn propagate(
    user_emb: &[Vec<f64>],
    item_emb: &[Vec<f64>],
    user_items: &[Vec<usize>],
    item_users: &[Vec<usize>],
    layers: usize,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let dim = user_emb.first().map(|e| e.len()).unwrap_or(0);
    let mut acc_u = user_emb.to_vec();
    let mut acc_i = item_emb.to_vec();
    let mut cur_u = user_emb.to_vec();
    let mut cur_i = item_emb.to_vec();
    for _ in 0..layers {
        let mut next_u = vec![vec![0.0; dim]; user_emb.len()];
        let mut next_i = vec![vec![0.0; dim]; item_emb.len()];
        for (u, items) in user_items.iter().enumerate() {
            for &i in items {
                let norm = 1.0
                    / ((items.len().max(1) as f64).sqrt()
                        * (item_users[i].len().max(1) as f64).sqrt());
                for d in 0..dim {
                    next_u[u][d] += norm * cur_i[i][d];
                    next_i[i][d] += norm * cur_u[u][d];
                }
            }
        }
        for (a, n) in acc_u.iter_mut().zip(next_u.iter()) {
            for d in 0..dim {
                a[d] += n[d];
            }
        }
        for (a, n) in acc_i.iter_mut().zip(next_i.iter()) {
            for d in 0..dim {
                a[d] += n[d];
            }
        }
        cur_u = next_u;
        cur_i = next_i;
    }
    let scale = 1.0 / (layers as f64 + 1.0);
    for e in acc_u.iter_mut().chain(acc_i.iter_mut()) {
        for d in e.iter_mut() {
            *d *= scale;
        }
    }
    (acc_u, acc_i)
}

/// Ranking evaluation of a trained model against held-out test edges.
///
/// Returns `(precision@k, recall@k, ndcg@k)` averaged over users that have at
/// least one test interaction.
pub fn evaluate_ranking(
    model: &LightGcn,
    train: &BipartiteGraph,
    test: &BipartiteGraph,
    k: usize,
) -> (f64, f64, f64) {
    let mut p_sum = 0.0;
    let mut r_sum = 0.0;
    let mut n_sum = 0.0;
    let mut users = 0usize;
    for u in 0..test.n_users {
        let relevant: Vec<usize> = test.items_of(u).into_iter().collect();
        if relevant.is_empty() {
            continue;
        }
        let known = train.items_of(u);
        let ranked = model.rank_items(u, &known);
        p_sum += precision_at_k(&ranked, &relevant, k);
        r_sum += recall_at_k(&ranked, &relevant, k);
        n_sum += ndcg_at_k(&ranked, &relevant, k);
        users += 1;
    }
    if users == 0 {
        (0.0, 0.0, 0.0)
    } else {
        (
            p_sum / users as f64,
            r_sum / users as f64,
            n_sum / users as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two disjoint user/item communities: users 0..5 like items 0..5, users
    /// 5..10 like items 5..10.
    fn block_graph() -> BipartiteGraph {
        let mut g = BipartiteGraph::new(10, 10);
        for u in 0..10 {
            let base = if u < 5 { 0 } else { 5 };
            for j in 0..4 {
                g.add_edge(u, base + (u + j) % 5, vec![u as f64, j as f64]);
            }
        }
        g
    }

    #[test]
    fn graph_edge_management() {
        let mut g = BipartiteGraph::new(3, 3);
        assert!(g.add_edge(0, 1, vec![]));
        assert!(!g.add_edge(0, 1, vec![]));
        assert!(!g.add_edge(5, 1, vec![]));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn items_and_users_of() {
        let g = block_graph();
        let items = g.items_of(0);
        assert_eq!(items.len(), 4);
        assert!(items.iter().all(|&i| i < 5));
    }

    #[test]
    fn split_edges_partitions() {
        let g = block_graph();
        let (tr, te) = g.split_edges(0.75, 3);
        assert_eq!(tr.num_edges() + te.num_edges(), g.num_edges());
        assert_eq!(tr.n_users, g.n_users);
    }

    #[test]
    fn lightgcn_learns_block_structure() {
        let g = block_graph();
        let (train, test) = g.split_edges(0.8, 11);
        let model = LightGcn::fit(
            &train,
            LightGcnParams {
                epochs: 80,
                ..Default::default()
            },
        );
        let (p, r, n) = evaluate_ranking(&model, &train, &test, 5);
        // Within-block items should be recommended: better than random (0.1).
        assert!(p > 0.1, "precision@5 = {p}");
        assert!(r >= 0.0 && n >= 0.0);
        // Score of an in-block pair should generally exceed out-of-block.
        let in_block = model.score(0, 1);
        let out_block = model.score(0, 7);
        assert!(in_block > out_block, "{in_block} vs {out_block}");
    }

    #[test]
    fn empty_graph_is_safe() {
        let g = BipartiteGraph::new(0, 0);
        let model = LightGcn::fit(&g, LightGcnParams::default());
        assert_eq!(model.score(0, 0), 0.0);
        let (p, r, n) = evaluate_ranking(&model, &g, &g, 5);
        assert_eq!((p, r, n), (0.0, 0.0, 0.0));
    }

    #[test]
    fn reported_size_counts_edges_and_feature_dim() {
        let g = block_graph();
        let (edges, dim) = g.reported_size();
        assert_eq!(edges, g.num_edges());
        assert_eq!(dim, 2);
    }
}
