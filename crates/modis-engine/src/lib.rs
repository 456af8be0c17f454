//! # modis-engine
//!
//! A cache-aware execution engine for MODis skyline generation: one
//! scenario per call, over an evaluation cache every scenario shares.
//!
//! The core crate's algorithms ([`Algorithm::run`]) remember nothing
//! between runs. This crate wraps them in a reusable engine with two pieces:
//!
//! * **A shared evaluation cache** ([`SharedEvalCache`]) — a sharded
//!   `(namespace, state) → evaluation` store installed behind the
//!   [`modis_core::estimator::EvaluationHook`] seam, so states revisited
//!   across passes and across scenarios sharing a pool are trained once.
//!   Hit/miss counters are surfaced in every result. Beside it, behind the
//!   same seam, a bounded memo of fitted MO-GBM surrogates keyed by the
//!   exact content of their training matrix: a scenario that runs again
//!   over a warm cache refits nothing and returns the same bytes.
//! * **A scenario runner** ([`Engine`]) — [`Engine::run_scenario`] runs
//!   one named scenario (substrate × algorithm × config) behind the
//!   cache's namespace guard and returns its [`ScenarioOutcome`]; the
//!   service runs every request this way. Each search gets
//!   [`EngineConfig::worker_threads`] workers, to train in waves the
//!   oracle valuations it is certain to make (BiMODis: those before its
//!   pruning is armed); the skyline is the one a single thread returns.
//!
//! ```
//! use std::sync::Arc;
//! use modis_core::prelude::*;
//! use modis_core::substrate::Substrate;
//! use modis_engine::{Engine, EngineConfig, Scenario};
//!
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
//! let substrate: Arc<dyn Substrate> = Arc::new(Demo);
//! let config = ModisConfig::default().with_estimator(EstimatorMode::Oracle);
//! // Four workers, the one-thread answer:
//! let engine = Engine::new(EngineConfig::default().with_worker_threads(4));
//! let scenario = Scenario::new("demo", substrate.clone(), Algorithm::Apx, config.clone());
//! let outcome = engine.run_scenario(&scenario);
//! let ctx = ValuationContext::new(substrate.as_ref(), config.estimator);
//! let sequential = Algorithm::Apx.run(&ctx, &config, 1);
//! assert!(!sequential.is_empty());
//! assert_eq!(outcome.result.states_valuated, sequential.states_valuated);
//! ```
//!
//! See [`Engine`] for scenarios that share a cache namespace.

#![warn(missing_docs)]

mod cache;
mod engine;
mod scenario;

pub use cache::{CacheHandle, CacheStats, Cursor, ExportedEvaluation, SharedEvalCache};
pub use engine::{Engine, EngineConfig};
pub use modis_core::algorithm::Algorithm;
// `bench_e2e`'s search replay (`layers.rs`) compiles against these names;
// each is the core function itself, same `(ctx, config, workers)` signature.
pub use modis_core::apx::apx_modis_with_context as parallel_apx_modis_with_context;
pub use modis_core::exact::exact_modis_with_context as parallel_exact_modis_with_context;
pub use scenario::{Scenario, ScenarioOutcome};
