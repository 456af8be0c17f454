//! Figure 8: impact of ε (a, c) and of the maximum path length maxl (b, d) on
//! the accuracy/F1 achieved by the MODis variants, for T1 and T2.

use modis_bench::{best_by_raw, print_series, task_t1, task_t2, Workload};
use modis_core::prelude::*;

fn best_primary(workload: &Workload, variant: Algorithm, config: &ModisConfig) -> f64 {
    let substrate = workload.substrate();
    let res = variant.run(
        &ValuationContext::new(&substrate, config.estimator),
        config,
        1,
    );
    best_by_raw(&res, 0, true).map(|e| e.raw[0]).unwrap_or(0.0)
}

fn sweep(workload: &Workload, configs: &[(f64, ModisConfig)], title: &str, x_label: &str) {
    let names: Vec<&str> = Algorithm::PAPER_VARIANTS.iter().map(|v| v.name()).collect();
    let xs: Vec<f64> = configs.iter().map(|(x, _)| *x).collect();
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    for (_, cfg) in configs {
        for (i, v) in Algorithm::PAPER_VARIANTS.iter().enumerate() {
            series[i].push(best_primary(workload, *v, cfg));
        }
    }
    print_series(title, x_label, &names, &xs, &series);
}

fn main() {
    let base =
        ModisConfig::default()
            .with_max_states(40)
            .with_estimator(EstimatorMode::Surrogate {
                warmup: 12,
                refresh: 10,
            });

    // (a) T1: vary ε with maxl = 6.
    let t1 = task_t1(42);
    let eps_configs: Vec<(f64, ModisConfig)> = [0.5, 0.4, 0.3, 0.2, 0.1]
        .iter()
        .map(|&e| (e, base.clone().with_epsilon(e).with_max_level(6)))
        .collect();
    sweep(
        &t1,
        &eps_configs,
        "Figure 8(a) — T1 accuracy vs ε",
        "epsilon",
    );

    // (b) T1: vary maxl with ε = 0.1.
    let maxl_configs: Vec<(f64, ModisConfig)> = (2..=6)
        .map(|l| (l as f64, base.clone().with_epsilon(0.1).with_max_level(l)))
        .collect();
    sweep(
        &t1,
        &maxl_configs,
        "Figure 8(b) — T1 accuracy vs maxl",
        "maxl",
    );

    // (c) T2: vary ε (smaller range, as in the paper).
    let t2 = task_t2(42);
    let eps2: Vec<(f64, ModisConfig)> = [0.1, 0.08, 0.05, 0.02]
        .iter()
        .map(|&e| (e, base.clone().with_epsilon(e).with_max_level(6)))
        .collect();
    sweep(&t2, &eps2, "Figure 8(c) — T2 F1 vs ε", "epsilon");

    // (d) T2: vary maxl.
    let maxl2: Vec<(f64, ModisConfig)> = (2..=6)
        .map(|l| (l as f64, base.clone().with_epsilon(0.1).with_max_level(l)))
        .collect();
    sweep(&t2, &maxl2, "Figure 8(d) — T2 F1 vs maxl", "maxl");

    println!("\nExpected shape (paper): smaller ε and larger maxl improve accuracy/F1 for all");
    println!("variants; BiMODis/NOBiMODis benefit the most, ApxMODis is the least sensitive.");
}
