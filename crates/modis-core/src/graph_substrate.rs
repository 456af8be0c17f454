//! Graph search space for task T5 (link regression / recommendation).
//!
//! The paper extends MODis to graph data by replacing augment/reduct with
//! edge insertions/deletions: "the 'augment' (resp. 'reduct') operators are
//! defined as edge insertions (resp. edge deletions)" (§6). Edges of the
//! universal bipartite graph are grouped by k-means over their feature
//! vectors (the same clustering used to control `|adom|` in Fig. 14); each
//! cluster is one reducible unit.

use parking_lot::Mutex;

use modis_data::StateBitmap;
use modis_ml::graph::{evaluate_ranking, BipartiteGraph, LightGcn, LightGcnParams};
use modis_ml::kmeans::kmeans;

use crate::measure::MeasureSet;
use crate::sieve_cache::SieveCache;
use crate::substrate::{Substrate, SubstrateCacheStats};

/// Configuration of the graph search space.
#[derive(Debug, Clone)]
pub struct GraphSpaceConfig {
    /// Number of edge clusters (reducible units).
    pub n_edge_clusters: usize,
    /// Ranking cut-offs evaluated (e.g. `[5, 10]`).
    pub k_values: Vec<usize>,
    /// LightGCN hyper-parameters.
    pub model: LightGcnParams,
    /// Train/test edge split ratio.
    pub train_ratio: f64,
    /// Seed for clustering and splits.
    pub seed: u64,
    /// Capacity of the per-substrate raw-metrics memo (states; 0 =
    /// unbounded).
    pub eval_cache_capacity: usize,
}

impl Default for GraphSpaceConfig {
    fn default() -> Self {
        GraphSpaceConfig {
            n_edge_clusters: 8,
            k_values: vec![5, 10],
            model: LightGcnParams {
                epochs: 40,
                ..LightGcnParams::default()
            },
            train_ratio: 0.8,
            seed: 17,
            eval_cache_capacity: 16_384,
        }
    }
}

/// The graph [`Substrate`]: a universal bipartite graph whose edge clusters
/// are the reducible units; measures are P@k, R@k, NDCG@k for each `k` plus
/// the training cost (`1e-5 · train edges · dim`), all provided by the
/// caller as a [`MeasureSet`].
pub struct GraphSubstrate {
    universal: BipartiteGraph,
    edge_cluster: Vec<usize>,
    n_clusters: usize,
    measures: MeasureSet,
    config: GraphSpaceConfig,
    cache: Mutex<SieveCache<StateBitmap, Vec<f64>>>,
    /// Lazily computed full-content fingerprint (the universal graph is
    /// immutable after construction).
    fingerprint_memo: std::sync::OnceLock<u64>,
}

impl GraphSubstrate {
    /// Builds the graph search space. The caller supplies the measure set in
    /// the order: `P@k…, R@k…, NDCG@k…` for each `k` in
    /// `config.k_values`, followed by the training cost.
    pub fn new(universal: BipartiteGraph, measures: MeasureSet, config: GraphSpaceConfig) -> Self {
        let points: Vec<Vec<f64>> = universal
            .edges
            .iter()
            .zip(universal.edge_features.iter())
            .map(|(&(u, i), f)| {
                let mut p = vec![u as f64, i as f64];
                p.extend_from_slice(f);
                p
            })
            .collect();
        let n_clusters = config.n_edge_clusters.max(1).min(points.len().max(1));
        let assignment = if points.is_empty() {
            Vec::new()
        } else {
            kmeans(&points, n_clusters, 25, config.seed).assignment
        };
        let cache = Mutex::new(SieveCache::new(config.eval_cache_capacity));
        GraphSubstrate {
            universal,
            edge_cluster: assignment,
            n_clusters,
            measures,
            config,
            cache,
            fingerprint_memo: std::sync::OnceLock::new(),
        }
    }

    /// The universal interaction graph.
    pub fn universal(&self) -> &BipartiteGraph {
        &self.universal
    }

    /// Materialises the graph denoted by a state bitmap: keeps the edges
    /// whose cluster bit is set.
    pub fn materialize(&self, bitmap: &StateBitmap) -> BipartiteGraph {
        let mut g = BipartiteGraph::new(self.universal.n_users, self.universal.n_items);
        for (idx, &(u, i)) in self.universal.edges.iter().enumerate() {
            let c = self.edge_cluster.get(idx).copied().unwrap_or(0);
            if bitmap.get(c) {
                g.add_edge(u, i, self.universal.edge_features[idx].clone());
            }
        }
        g
    }

    /// Number of ranking cut-offs.
    pub fn k_values(&self) -> &[usize] {
        &self.config.k_values
    }

    /// Counters of the bounded raw-metrics memo.
    pub fn cache_stats(&self) -> SubstrateCacheStats {
        let cache = self.cache.lock();
        SubstrateCacheStats {
            entries: cache.len(),
            evictions: cache.evictions(),
        }
    }
}

impl Substrate for GraphSubstrate {
    fn num_units(&self) -> usize {
        self.n_clusters
    }

    fn unit_label(&self, unit: usize) -> String {
        let count = self.edge_cluster.iter().filter(|&&c| c == unit).count();
        format!("edge-cluster:{unit} ({count} edges)")
    }

    fn backward_start(&self) -> StateBitmap {
        // Keep only the densest cluster so every user/item community has a
        // seed of interactions to augment from.
        let mut counts = vec![0usize; self.n_clusters];
        for &c in &self.edge_cluster {
            counts[c] += 1;
        }
        let best = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap_or(0);
        let mut b = StateBitmap::empty(self.n_clusters);
        b.set(best, true);
        b
    }

    fn measures(&self) -> &MeasureSet {
        &self.measures
    }

    fn evaluate_raw(&self, bitmap: &StateBitmap) -> Vec<f64> {
        if let Some(hit) = self.cache.lock().get(bitmap).cloned() {
            return hit;
        }
        let graph = self.materialize(bitmap);
        let raw = if graph.num_edges() < 10 {
            // Degenerate graph: worst-case ranking metrics, no training cost.
            let mut v = vec![0.0; self.config.k_values.len() * 3];
            v.push(0.0);
            v
        } else {
            let (train, test) = graph.split_edges(self.config.train_ratio, self.config.seed);
            let model = LightGcn::fit(&train, self.config.model);
            let cost = 1e-5 * train.num_edges() as f64 * self.config.model.dim as f64;
            let mut v = Vec::with_capacity(self.config.k_values.len() * 3 + 1);
            let mut recalls = Vec::new();
            let mut ndcgs = Vec::new();
            for &k in &self.config.k_values {
                let (p, r, n) = evaluate_ranking(&model, &train, &test, k);
                v.push(p);
                recalls.push(r);
                ndcgs.push(n);
            }
            v.extend(recalls);
            v.extend(ndcgs);
            v.push(cost);
            v
        };
        // Align with the measure set length (truncate or pad defensively).
        let mut raw = raw;
        raw.resize(self.measures.len(), 0.0);
        self.cache.lock().insert(bitmap.clone(), raw.clone());
        raw
    }

    fn state_features(&self, bitmap: &StateBitmap) -> Vec<f64> {
        let kept: usize = self.edge_cluster.iter().filter(|&&c| bitmap.get(c)).count();
        let mut feats = vec![bitmap.count_ones() as f64, kept as f64];
        feats.extend(bitmap.iter().map(|b| if b { 1.0 } else { 0.0 }));
        feats
    }

    fn artifact_size(&self, bitmap: &StateBitmap) -> (usize, usize) {
        self.materialize(bitmap).reported_size()
    }

    fn fingerprint(&self) -> u64 {
        // Mix the model/split configuration and a digest of EVERY edge in
        // on top of the structural default — the same edge clustering under
        // a different LightGCN parameterisation, or a refreshed edge set
        // with the same cluster count, valuates the same bitmap
        // differently, and a sampled digest would miss changes that land
        // between sample points. The graph is immutable after construction,
        // so the digest is computed once; fingerprints persist in
        // snapshots, so everything hashes through the stable FNV hasher.
        use crate::codec::StableHasher;
        use std::hash::{Hash, Hasher};
        *self.fingerprint_memo.get_or_init(|| {
            let mut h = StableHasher::new();
            crate::substrate::structural_fingerprint(self).hash(&mut h);
            // Valuation-relevant config fields, hashed individually through
            // the stable primitives. Deliberately NOT a Debug-format of the
            // whole config: float Debug rendering is toolchain-dependent,
            // and `eval_cache_capacity` is a performance knob — retuning
            // the memo bound must not re-identify the substrate and lock a
            // restarted service out of its own warm namespace.
            self.config.n_edge_clusters.hash(&mut h);
            self.config.k_values.hash(&mut h);
            self.config.train_ratio.to_bits().hash(&mut h);
            self.config.seed.hash(&mut h);
            self.config.model.dim.hash(&mut h);
            self.config.model.layers.hash(&mut h);
            self.config.model.epochs.hash(&mut h);
            self.config.model.learning_rate.to_bits().hash(&mut h);
            self.config.model.reg.to_bits().hash(&mut h);
            self.config.model.seed.hash(&mut h);
            let edges = &self.universal.edges;
            (self.universal.n_users, self.universal.n_items, edges.len()).hash(&mut h);
            for (idx, edge) in edges.iter().enumerate() {
                edge.hash(&mut h);
                self.edge_cluster.get(idx).hash(&mut h);
                for &f in &self.universal.edge_features[idx] {
                    f.to_bits().hash(&mut h);
                }
            }
            h.finish()
        })
    }

    fn memo_stats(&self) -> SubstrateCacheStats {
        self.cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::MeasureSpec;

    fn t5_measures() -> MeasureSet {
        MeasureSet::new(vec![
            MeasureSpec::maximise("p_Pc5"),
            MeasureSpec::maximise("p_Pc10"),
            MeasureSpec::maximise("p_Rc5"),
            MeasureSpec::maximise("p_Rc10"),
            MeasureSpec::maximise("p_Nc5"),
            MeasureSpec::maximise("p_Nc10"),
            MeasureSpec::minimise("p_Train", 5.0),
        ])
    }

    fn block_graph() -> BipartiteGraph {
        let mut g = BipartiteGraph::new(12, 12);
        for u in 0..12 {
            let base = if u < 6 { 0 } else { 6 };
            for j in 0..4 {
                g.add_edge(u, base + (u + j) % 6, vec![(u / 6) as f64 * 10.0, j as f64]);
            }
        }
        g
    }

    #[test]
    fn graph_space_clusters_edges() {
        let sub = GraphSubstrate::new(
            block_graph(),
            t5_measures(),
            GraphSpaceConfig {
                n_edge_clusters: 4,
                ..Default::default()
            },
        );
        assert_eq!(sub.num_units(), 4);
        assert!(sub.unit_label(0).starts_with("edge-cluster"));
        let full = sub.materialize(&sub.forward_start());
        assert_eq!(full.num_edges(), sub.universal().num_edges());
    }

    #[test]
    fn reducing_a_cluster_removes_edges() {
        let sub = GraphSubstrate::new(
            block_graph(),
            t5_measures(),
            GraphSpaceConfig {
                n_edge_clusters: 3,
                ..Default::default()
            },
        );
        let reduced = sub.materialize(&sub.forward_start().flipped(0));
        assert!(reduced.num_edges() < sub.universal().num_edges());
    }

    #[test]
    fn backward_start_keeps_densest_cluster() {
        let sub = GraphSubstrate::new(
            block_graph(),
            t5_measures(),
            GraphSpaceConfig {
                n_edge_clusters: 3,
                ..Default::default()
            },
        );
        let b = sub.backward_start();
        assert_eq!(b.count_ones(), 1);
        assert!(sub.materialize(&b).num_edges() > 0);
    }

    #[test]
    fn evaluate_raw_returns_full_measure_vector() {
        let cfg = GraphSpaceConfig {
            n_edge_clusters: 3,
            model: LightGcnParams {
                epochs: 15,
                ..Default::default()
            },
            ..Default::default()
        };
        let sub = GraphSubstrate::new(block_graph(), t5_measures(), cfg);
        let raw = sub.evaluate_raw(&sub.forward_start());
        assert_eq!(raw.len(), 7);
        // Ranking metrics in [0,1]; training cost positive.
        assert!(raw[..6].iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(raw[6] > 0.0);
        // Cached second call identical.
        assert_eq!(raw, sub.evaluate_raw(&sub.forward_start()));
    }

    #[test]
    fn degenerate_graph_gets_worst_case() {
        let cfg = GraphSpaceConfig {
            n_edge_clusters: 3,
            ..Default::default()
        };
        let sub = GraphSubstrate::new(block_graph(), t5_measures(), cfg);
        let raw = sub.evaluate_raw(&StateBitmap::empty(3));
        assert!(raw[..6].iter().all(|&v| v == 0.0));
    }
}
