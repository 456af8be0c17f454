//! Every result covers what its own run valuated.
//!
//! The paper's guarantee for ApxMODis is an ε-skyline *of the states it
//! valuated*: every valuated state is ε-dominated by some returned state.
//! Here every variant — ApxMODis, NOBiMODis, BiMODis, DivMODis and the exact
//! search — runs on oracle-valuated mock lattices of 8 to 14 units, at three
//! values of ε and four state budgets, and its output must ε-cover every
//! oracle record its context holds afterwards, checked with
//! `dominance::epsilon_skyline_cover`. A case that does not hold is listed,
//! with the smallest ε it does hold at, in `KNOWN_GAPS`, which the test
//! asserts exactly: a gap that closes or opens fails it.

use modis_core::dominance::epsilon_skyline_cover;
use modis_core::prelude::*;
use modis_core::substrate::mock::MockSubstrate;

const UNITS: std::ops::RangeInclusive<usize> = 8..=14;
const EPSILONS: [f64; 3] = [0.05, 0.1, 0.3];
const BUDGETS: [usize; 4] = [8, 30, 100, 300];

/// `(variant, units, ε, max_states, ε*)` of every case whose output does not
/// ε-cover its own oracle records, where ε* is the smallest ε at which it
/// does (to three decimals). Empty: every case holds.
const KNOWN_GAPS: &[(Algorithm, usize, f64, usize, f64)] = &[];

/// Whether `output` ε-covers every vector of `records`.
fn covers(output: &[Vec<f64>], records: &[Vec<f64>], epsilon: f64) -> bool {
    let all: Vec<Vec<f64>> = output.iter().chain(records).cloned().collect();
    let members: Vec<usize> = (0..output.len()).collect();
    epsilon_skyline_cover(&all, &members, epsilon)
}

/// The smallest ε (to three decimals, searched up to 10) at which `output`
/// covers `records`: covering is monotone in ε.
fn achieved_epsilon(output: &[Vec<f64>], records: &[Vec<f64>]) -> f64 {
    let (mut low, mut high) = (0u32, 10_000u32);
    if !covers(output, records, f64::from(high) / 1e3) {
        return f64::INFINITY;
    }
    while low < high {
        let mid = (low + high) / 2;
        if covers(output, records, f64::from(mid) / 1e3) {
            high = mid;
        } else {
            low = mid + 1;
        }
    }
    f64::from(low) / 1e3
}

#[test]
fn every_variant_covers_the_oracle_records_of_its_own_run() {
    let variants = [
        Algorithm::Apx,
        Algorithm::NoBi,
        Algorithm::Bi,
        Algorithm::Div,
        Algorithm::Exact,
    ];
    let mut gaps = Vec::new();
    let mut cases = 0;
    for units in UNITS {
        let substrate = MockSubstrate::new(units);
        for epsilon in EPSILONS {
            for budget in BUDGETS {
                let config = ModisConfig::default()
                    .with_estimator(EstimatorMode::Oracle)
                    .with_epsilon(epsilon)
                    .with_max_states(budget);
                for variant in variants {
                    let ctx = ValuationContext::new(&substrate, EstimatorMode::Oracle);
                    let result = variant.run(&ctx, &config, 1);
                    let output: Vec<Vec<f64>> =
                        result.entries.iter().map(|e| e.perf.clone()).collect();
                    let records: Vec<Vec<f64>> = ctx
                        .records()
                        .into_iter()
                        .filter(|r| r.oracle)
                        .map(|r| r.perf)
                        .collect();
                    let label = format!("{} units {units} ε {epsilon} N {budget}", variant.name());
                    assert!(!output.is_empty(), "{label}: an empty output");
                    assert!(records.len() > 1, "{label}: nothing valuated");
                    cases += 1;
                    if !covers(&output, &records, epsilon) {
                        let achieved = achieved_epsilon(&output, &records);
                        gaps.push((variant, units, epsilon, budget, achieved));
                    }
                }
            }
        }
    }
    assert_eq!(cases, 7 * 3 * 4 * 5);
    assert_eq!(
        gaps, KNOWN_GAPS,
        "(variant, units, ε, max_states, ε*) of the outputs that do not cover their own records"
    );
}

/// The check can fail: an output missing its best state on a measure does
/// not cover it at a small ε, and the bisection finds the ε it needs.
#[test]
fn the_cover_check_sees_a_missing_member() {
    let records = vec![vec![0.1, 0.9], vec![0.5, 0.5], vec![0.9, 0.1]];
    let output = vec![records[0].clone(), records[1].clone()];
    assert!(!covers(&output, &records, 0.1));
    assert!(covers(&records, &records, 0.0));
    // [0.5, 0.5] covers [0.9, 0.1] once 0.5 ≤ (1 + ε) · 0.1, at ε = 4.
    assert_eq!(achieved_epsilon(&output, &records), 4.0);
}
