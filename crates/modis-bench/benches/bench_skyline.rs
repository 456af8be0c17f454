//! Micro-benchmarks of the skyline machinery: dominance checks, exact
//! skyline (the pairwise scan), ε-skyline maintenance (UPareto) and the
//! diversification score (Eq. 2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use modis_core::config::SkylineEntry;
use modis_core::divmodis::diversification_score;
use modis_core::dominance::skyline;
use modis_core::measure::{MeasureSet, MeasureSpec};
use modis_core::pareto::EpsilonSkyline;
use modis_data::StateBitmap;

fn random_points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64).clamp(0.01, 1.0)
    };
    (0..n).map(|_| (0..d).map(|_| next()).collect()).collect()
}

fn bench_skyline(c: &mut Criterion) {
    let mut group = c.benchmark_group("skyline");
    group.sample_size(30);

    for &n in &[100usize, 500] {
        for &d in &[2usize, 4] {
            let pts = random_points(n, d, 7);
            group.bench_with_input(
                BenchmarkId::new(format!("exact_skyline_d{d}"), n),
                &n,
                |b, _| {
                    b.iter(|| skyline(&pts));
                },
            );
        }
    }

    // UPareto ε-skyline maintenance over a stream of offers.
    let measures = MeasureSet::new(vec![
        MeasureSpec::maximise("a"),
        MeasureSpec::maximise("b"),
        MeasureSpec::minimise("c", 1.0),
    ]);
    for &n in &[200usize, 1000] {
        let pts = random_points(n, 3, 11);
        group.bench_with_input(BenchmarkId::new("upareto_offer", n), &n, |b, _| {
            b.iter(|| {
                let mut sky = EpsilonSkyline::new(measures.clone(), 0.1, None);
                for (i, p) in pts.iter().enumerate() {
                    sky.offer(&StateBitmap::full(8).flipped(i % 8), p, i);
                }
                sky.len()
            });
        });
    }

    // Diversification score over a candidate skyline set.
    let entries: Vec<SkylineEntry> = random_points(30, 3, 13)
        .into_iter()
        .enumerate()
        .map(|(i, p)| SkylineEntry {
            bitmap: StateBitmap::full(16).flipped(i % 16).flipped((i * 3) % 16),
            perf: p,
            raw: Vec::new(),
            size: (0, 0),
            level: 0,
        })
        .collect();
    group.bench_function("diversification_score_30", |b| {
        b.iter(|| diversification_score(&entries, 0.5, 1.0));
    });

    group.finish();
}

criterion_group!(benches, bench_skyline);
criterion_main!(benches);
