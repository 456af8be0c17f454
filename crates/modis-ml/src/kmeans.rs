//! Multi-dimensional k-means clustering.
//!
//! Used by the scalability experiments (Exp-3 / Fig. 14): the universal table
//! and the T5 graph edges are clustered with k-means to control `|adom|`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster assignment per point.
    pub assignment: Vec<usize>,
    /// Cluster centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Total within-cluster sum of squares.
    pub inertia: f64,
}

fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y).powi(2)).sum()
}

/// Runs Lloyd's algorithm with k-means++ style seeding (deterministic given
/// `seed`).
pub fn kmeans(points: &[Vec<f64>], k: usize, iterations: usize, seed: u64) -> KMeansResult {
    if points.is_empty() || k == 0 {
        return KMeansResult {
            assignment: Vec::new(),
            centroids: Vec::new(),
            inertia: 0.0,
        };
    }
    let k = k.min(points.len());
    let mut rng = StdRng::seed_from_u64(seed);

    // k-means++ initialisation.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].clone());
    while centroids.len() < k {
        let dists: Vec<f64> = points
            .iter()
            .map(|p| {
                centroids
                    .iter()
                    .map(|c| squared_distance(p, c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let total: f64 = dists.iter().sum();
        if total <= 1e-12 {
            centroids.push(points[rng.gen_range(0..points.len())].clone());
            continue;
        }
        let mut target = rng.gen::<f64>() * total;
        let mut chosen = 0;
        for (i, d) in dists.iter().enumerate() {
            target -= d;
            if target <= 0.0 {
                chosen = i;
                break;
            }
        }
        centroids.push(points[chosen].clone());
    }

    let dim = points[0].len();
    let mut assignment = vec![0usize; points.len()];
    for _ in 0..iterations {
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (c, ctr) in centroids.iter().enumerate() {
                let d = squared_distance(p, ctr);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        let mut sums = vec![vec![0.0; dim]; centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        for (i, p) in points.iter().enumerate() {
            counts[assignment[i]] += 1;
            for j in 0..dim {
                sums[assignment[i]][j] += p[j];
            }
        }
        for c in 0..centroids.len() {
            if counts[c] > 0 {
                for j in 0..dim {
                    centroids[c][j] = sums[c][j] / counts[c] as f64;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let inertia = points
        .iter()
        .enumerate()
        .map(|(i, p)| squared_distance(p, &centroids[assignment[i]]))
        .sum();
    KMeansResult {
        assignment,
        centroids,
        inertia,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..20 {
            pts.push(vec![0.0 + (i % 5) as f64 * 0.01, 0.0]);
            pts.push(vec![10.0 + (i % 5) as f64 * 0.01, 10.0]);
        }
        pts
    }

    #[test]
    fn kmeans_separates_blobs() {
        let pts = blobs();
        let res = kmeans(&pts, 2, 50, 1);
        assert_eq!(res.centroids.len(), 2);
        // Points from the same blob share a cluster.
        assert_eq!(res.assignment[0], res.assignment[2]);
        assert_eq!(res.assignment[1], res.assignment[3]);
        assert_ne!(res.assignment[0], res.assignment[1]);
        assert!(res.inertia < 1.0);
    }

    #[test]
    fn kmeans_empty_and_zero_k() {
        let res = kmeans(&[], 3, 10, 1);
        assert!(res.assignment.is_empty());
        let res = kmeans(&blobs(), 0, 10, 1);
        assert!(res.centroids.is_empty());
    }

    #[test]
    fn kmeans_k_capped_at_points() {
        let pts = vec![vec![1.0], vec![2.0]];
        let res = kmeans(&pts, 10, 10, 3);
        assert!(res.centroids.len() <= 2);
    }

    #[test]
    fn kmeans_deterministic_for_seed() {
        let pts = blobs();
        let a = kmeans(&pts, 2, 30, 9);
        let b = kmeans(&pts, 2, 30, 9);
        assert_eq!(a.assignment, b.assignment);
    }
}
