//! Synthetic skyline frontiers: the input generator of the differential
//! test harness (`tests/integration_dominance.rs`).
//!
//! The shapes follow the classic skyline benchmarking families
//! (Börzsönyi-style independent / correlated / anti-correlated) plus the
//! two adversarial families the skyline scan must keep its contract on:
//! duplicate-heavy pools and NaN/∞-laced vectors. All generators are
//! deterministic in `(n, dims, seed)` via a local xorshift so tests and CI
//! agree on the exact inputs.

/// Frontier family to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frontier {
    /// Independent uniform coordinates in `(0, 1)`.
    Uniform,
    /// Coordinates clustered around a shared base value — tiny skylines.
    Correlated,
    /// Points near the hyperplane `Σx = d/2` — wide skylines, the
    /// worst case for pairwise filtering.
    AntiCorrelated,
    /// Uniform points drawn from a small pool, so ~90% are exact
    /// duplicates exercising the first-occurrence tie-break.
    DuplicateHeavy,
    /// Uniform points with a sprinkling of NaN and ±∞ coordinates.
    NanLaced,
}

impl Frontier {
    /// Stable lowercase name used in test labels.
    pub fn name(self) -> &'static str {
        match self {
            Frontier::Uniform => "uniform",
            Frontier::Correlated => "correlated",
            Frontier::AntiCorrelated => "anti_correlated",
            Frontier::DuplicateHeavy => "duplicate_heavy",
            Frontier::NanLaced => "nan_laced",
        }
    }

    /// All families, for exhaustive differential sweeps.
    pub fn all() -> [Frontier; 5] {
        [
            Frontier::Uniform,
            Frontier::Correlated,
            Frontier::AntiCorrelated,
            Frontier::DuplicateHeavy,
            Frontier::NanLaced,
        ]
    }
}

struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Generates `n` performance vectors of `dims` measures from the given
/// frontier family, deterministically in `seed`.
pub fn frontier_points(n: usize, dims: usize, frontier: Frontier, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = XorShift::new(seed ^ (n as u64) << 20 ^ (dims as u64) << 8);
    let uniform = |rng: &mut XorShift| (0..dims).map(|_| rng.next_f64()).collect::<Vec<f64>>();
    match frontier {
        Frontier::Uniform => (0..n).map(|_| uniform(&mut rng)).collect(),
        Frontier::Correlated => (0..n)
            .map(|_| {
                let base = rng.next_f64();
                (0..dims)
                    .map(|_| (base + 0.05 * (rng.next_f64() - 0.5)).clamp(0.0, 1.0))
                    .collect()
            })
            .collect(),
        Frontier::AntiCorrelated => (0..n)
            .map(|_| {
                // Project a uniform draw onto the Σx = d/2 hyperplane, then
                // jitter: trade-off-shaped points with very wide skylines.
                let raw: Vec<f64> = (0..dims).map(|_| rng.next_f64() + 1e-3).collect();
                let sum: f64 = raw.iter().sum();
                let scale = dims as f64 * 0.5 / sum;
                raw.iter()
                    .map(|v| (v * scale + 0.02 * (rng.next_f64() - 0.5)).clamp(0.0, 1.0))
                    .collect()
            })
            .collect(),
        Frontier::DuplicateHeavy => {
            let pool_size = (n / 10).max(1);
            let pool: Vec<Vec<f64>> = (0..pool_size).map(|_| uniform(&mut rng)).collect();
            (0..n)
                .map(|_| pool[(rng.next_u64() % pool_size as u64) as usize].clone())
                .collect()
        }
        Frontier::NanLaced => (0..n)
            .map(|_| {
                (0..dims)
                    .map(|_| match rng.next_u64() % 40 {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => f64::NEG_INFINITY,
                        _ => rng.next_f64(),
                    })
                    .collect()
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_and_shaped() {
        for f in Frontier::all() {
            let a = frontier_points(200, 4, f, 7);
            let b = frontier_points(200, 4, f, 7);
            assert_eq!(a.len(), 200);
            assert!(a.iter().all(|p| p.len() == 4));
            // Bit-identical across calls (NaN-laced included).
            let bits = |pts: &[Vec<f64>]| -> Vec<u64> {
                pts.iter().flatten().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&a), bits(&b));
        }
    }

    #[test]
    fn anti_correlated_is_wider_than_correlated() {
        use modis_core::dominance::skyline;
        let anti = skyline(&frontier_points(800, 4, Frontier::AntiCorrelated, 3)).len();
        let corr = skyline(&frontier_points(800, 4, Frontier::Correlated, 3)).len();
        assert!(
            anti > corr * 4,
            "anti-correlated skyline ({anti}) should dwarf correlated ({corr})"
        );
    }

    #[test]
    fn duplicate_heavy_actually_duplicates() {
        let pts = frontier_points(500, 3, Frontier::DuplicateHeavy, 5);
        let distinct: std::collections::HashSet<Vec<u64>> = pts
            .iter()
            .map(|p| p.iter().map(|v| v.to_bits()).collect())
            .collect();
        assert!(distinct.len() <= 50);
    }
}
