//! # modis-engine
//!
//! A parallel, cache-aware execution engine for multi-scenario MODis
//! skyline generation.
//!
//! The core crate's algorithms ([`Algorithm::run`]) are single-threaded and
//! remember nothing between runs. This crate wraps them in a reusable
//! engine with three pieces:
//!
//! * **Wave-parallel frontier expansion** ([`expand`]) — the schedule the
//!   core crate's one traversal (`Frontier`) emits is evaluated across a
//!   worker pool and committed to the ε-skyline in the sequential
//!   algorithm's order, so a parallel run produces *byte-identical*
//!   skylines to a sequential one for any thread count.
//! * **A shared evaluation cache** ([`cache`]) — a sharded
//!   `(namespace, state) → evaluation` store installed behind the
//!   [`modis_core::estimator::EvaluationHook`] seam, so states revisited
//!   across passes and across scenarios sharing a pool are trained once.
//!   Hit/miss counters are surfaced in every result. Beside it, behind the
//!   same seam, a bounded memo of fitted MO-GBM surrogates keyed by the
//!   exact content of their training matrix: a scenario that runs again
//!   over a warm cache refits nothing and returns the same bytes.
//! * **A scenario runner** ([`engine`]) — [`Engine::run_suite`] executes a
//!   registry of named scenarios (substrate × algorithm × config)
//!   concurrently under a configurable parallelism budget and returns
//!   per-scenario [`ScenarioOutcome`]s plus cache statistics.
//!
//! ```
//! use std::sync::Arc;
//! use modis_core::prelude::*;
//! use modis_core::substrate::Substrate;
//! use modis_engine::{parallel_apx_modis, Engine};
//!
//! // Parallel drop-in for `apx_modis`, identical output:
//! # struct Demo;
//! # impl Substrate for Demo {
//! #     fn num_units(&self) -> usize { 4 }
//! #     fn unit_label(&self, u: usize) -> String { format!("u{u}") }
//! #     fn backward_start(&self) -> modis_data::StateBitmap { modis_data::StateBitmap::empty(4) }
//! #     fn measures(&self) -> &MeasureSet { static M: std::sync::OnceLock<MeasureSet> = std::sync::OnceLock::new(); M.get_or_init(|| MeasureSet::new(vec![MeasureSpec::maximise("q"), MeasureSpec::minimise("c", 1.0)])) }
//! #     fn evaluate_raw(&self, b: &modis_data::StateBitmap) -> Vec<f64> { vec![0.5, 0.1 + 0.2 * b.count_ones() as f64] }
//! #     fn state_features(&self, b: &modis_data::StateBitmap) -> Vec<f64> { vec![b.count_ones() as f64] }
//! #     fn artifact_size(&self, b: &modis_data::StateBitmap) -> (usize, usize) { (b.count_ones(), 1) }
//! # }
//! # let substrate = Demo;
//! let config = ModisConfig::default().with_estimator(EstimatorMode::Oracle);
//! let skyline = parallel_apx_modis(&substrate, &config, 4);
//! assert!(!skyline.is_empty());
//! ```
//!
//! See [`Engine`] for the multi-scenario entry point.

#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod expand;
mod pool;
pub mod scenario;

pub use cache::{CacheHandle, CacheStats, ExportedEvaluation, ShardExport, SharedEvalCache};
pub use engine::{BatchValuation, Engine, EngineConfig, SuiteResult};
pub use expand::{
    parallel_apx_modis, parallel_apx_modis_with_context, parallel_exact_modis_with_context,
};
pub use modis_core::algorithm::Algorithm;
pub use scenario::{Scenario, ScenarioOutcome};
