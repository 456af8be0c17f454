//! # modis-bench
//!
//! Experiment harness for the MODis reproduction: task definitions matching
//! the paper's T1–T5 (§6, Table 3), the [`baselines`] MODis is compared
//! against and the comparison protocol ([`best_by_raw`]), the two
//! [`case_studies`] pools of Fig. 11, method runners producing the rows of
//! Tables 4–6, the in-process cluster harness the integration tests and
//! `modis_shard` drive, and plain-text report helpers used by the `repro`
//! binary, whose rows are the paper's §6 experiments. Speed is measured in
//! one place only: the stand-alone `bench_e2e` package under
//! `src/bin/bench_e2e/`, declared by the repository's `BENCHMARK.json`.

#![warn(missing_docs)]

pub mod baselines;
pub mod case_studies;
pub mod cluster_workload;
pub mod dominance_workload;
pub mod report;
pub mod workloads;

pub use cluster_workload::{
    drive_suite, fetch_stats, register_t3_cluster, t3_cluster_namespace, t3_cluster_scenarios,
    t3_cluster_spec, ClusterHarness, ClusterShard, ClusterWorkload, DrivenOutcome,
};
pub use report::{print_method_table, print_series, print_table, Row};
pub use workloads::{
    best_by_raw, run_graph_methods, run_table_methods, t5_measures, task_t1, task_t2, task_t3,
    task_t4, MethodRow, Workload,
};
