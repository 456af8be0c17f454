//! Estimators, the seeded generator and host probes.
//!
//! The estimators here are medians and quartiles; the one other estimator
//! the benchmark uses, the floor of repeated identical work, is
//! `workloads::floor`. There is no mean and no `count / elapsed` on purpose
//! — on a two-core shared host both measure the neighbours (see the
//! README's noise section).

use std::time::Instant;

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between order
/// statistics. Sorts a copy; NaN-free input is the caller's contract.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Distance between the first and third quartile as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / m
}

/// `|a − b|` as a share of their midpoint.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let mid = (a.abs() + b.abs()) / 2.0;
    if mid == 0.0 {
        0.0
    } else {
        (a - b).abs() / mid
    }
}

/// SplitMix64: the benchmark's only source of randomness, so the request
/// stream is a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so two uses of one
    /// seed (pass order, pool contents) do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// How often each of `n` ranks is drawn in `draws` draws that follow
/// Zipf(s = 1) exactly (largest-remainder rounding). Exact frequencies, not
/// samples: every seed then asks for the same amount of work and the spread
/// between seeds measures order, not a luckier draw.
pub fn zipf_counts(n: usize, draws: usize) -> Vec<usize> {
    let harmonic: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
    let exact: Vec<f64> = (1..=n)
        .map(|k| draws as f64 / (k as f64 * harmonic))
        .collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor())
            .total_cmp(&(exact[a] - exact[a].floor()))
            .then(a.cmp(&b))
    });
    let short = draws - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` does not say.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A fixed integer loop, timed: the host's speed right now, in
/// milliseconds. Two runs that disagree while this disagrees too differ in
/// machine, not in code.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for i in 0..40_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    ms_since(start)
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        // IQR of 1..=5 is 4 − 2 over a median of 3.
        assert!((iqr_share(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 2.0 / 3.0).abs() < 1e-12);
        assert!((rel_diff(90.0, 110.0) - 0.2).abs() < 1e-12);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
    }

    #[test]
    fn the_median_ignores_a_tail_the_mean_would_not() {
        let mut samples = vec![1.0; 99];
        samples.push(1e6);
        assert_eq!(median(&samples), 1.0);
    }

    #[test]
    fn zipf_counts_are_exact_and_never_increase_with_rank() {
        let counts = zipf_counts(6, 48);
        assert_eq!(counts, [20, 10, 6, 5, 4, 3]);
        assert_eq!(zipf_counts(12, 48).iter().sum::<usize>(), 48);
        assert!(zipf_counts(12, 48).windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn the_generator_is_a_pure_function_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (0..8).map(|_| rng.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 7), draw(1, 7));
        assert_ne!(draw(1, 7), draw(2, 7));
        assert_ne!(draw(1, 7), draw(1, 8));
        let mut order: Vec<usize> = (0..16).collect();
        Rng::new(3, 0).shuffle(&mut order);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        assert_ne!(order, sorted);
    }
}
