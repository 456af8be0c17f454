//! # modis-core
//!
//! The MODis framework: skyline dataset generation for data science models
//! ("Generating Skyline Datasets for Data Science Models", EDBT 2025),
//! implemented over the tabular substrate of [`modis_data`] and the ML
//! substrate of [`modis_ml`].
//!
//! ## Layout
//!
//! * [`measure`] — user-defined performance measures `P`, normalisation and
//!   the position grid of Eq. (1);
//! * [`dominance`] — Pareto and ε-dominance, exact skyline computation;
//! * [`task`] — downstream models `M` and oracle evaluation of datasets;
//! * [`substrate`] / [`table_substrate`] / [`GraphSubstrate`] — the
//!   finite-state-transducer search space over tables (T1–T4) and bipartite
//!   graphs (T5);
//! * [`estimator`] — the MO-GBM surrogate estimator `E` and the shared
//!   valuation context (test set `T`);
//! * [`pareto`] — the `UPareto` ε-skyline maintenance structure;
//! * `correlation` (private) — the correlation graph `G_C` and
//!   parameterised dominance bounds BiMODis prunes with;
//! * [`apx`] / [`bimodis`] / [`divmodis`] / [`exact`] — the paper's
//!   algorithms (ApxMODis, BiMODis, NOBiMODis, DivMODis, exact), named by
//!   [`algorithm::Algorithm`]; ApxMODis and exact valuate their traversal
//!   in waves across a pool of worker threads, and BiMODis, NOBiMODis and
//!   DivMODis train there, ahead, the oracle valuations they are certain to
//!   make;
//! * the baselines [`metam`], [`metam_mo`], [`starmie`], [`sksfm`],
//!   [`h2o`] and [`hydragan_like`] — the paper's comparators;
//! * [`config`] — run configuration and skyline results.
//!
//! ## Quick example
//!
//! ```
//! use modis_core::prelude::*;
//! use modis_data::{Attribute, Dataset, Schema, Value};
//!
//! // A tiny pool: one base table with an informative feature.
//! let base = Dataset::from_rows(
//!     "base",
//!     Schema::from_attributes(vec![
//!         Attribute::key("id"),
//!         Attribute::feature("x"),
//!         Attribute::target("y"),
//!     ]),
//!     (0..40)
//!         .map(|i| vec![Value::Int(i), Value::Float((i % 7) as f64), Value::Float(2.0 * (i % 7) as f64)])
//!         .collect(),
//! )
//! .unwrap();
//!
//! let task = TaskSpec {
//!     name: "demo".into(),
//!     model: ModelKind::LinearRegressor,
//!     target: "y".into(),
//!     key: Some("id".into()),
//!     measures: MeasureSet::new(vec![
//!         MeasureSpec::maximise("p_R2"),
//!         MeasureSpec::minimise("p_Train", 2.0),
//!     ]),
//!     metric_kinds: vec![MetricKind::R2, MetricKind::TrainTime],
//!     train_ratio: 0.7,
//!     seed: 7,
//! };
//!
//! let substrate = TableSubstrate::from_pool(&[base], task, &TableSpaceConfig::default());
//! let config = ModisConfig::default().with_max_states(30).with_estimator(EstimatorMode::Oracle);
//! let skyline = apx_modis(&substrate, &config);
//! assert!(!skyline.is_empty());
//! ```

#![deny(missing_docs)]

pub mod algorithm;
pub mod apx;
mod baselines;
pub mod bimodis;
pub mod codec;
pub mod config;
mod correlation;
pub mod divmodis;
pub mod dominance;
pub mod estimator;
pub mod exact;
mod expand;
mod graph_substrate;
pub mod measure;
pub mod pareto;
mod pool;
pub mod search_common;
pub mod sieve_cache;
pub mod substrate;
pub mod table_substrate;
pub mod task;
pub mod telemetry;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::algorithm::Algorithm;
    pub use crate::apx::{apx_modis, apx_modis_with_context};
    pub use crate::baselines::{
        h2o, hydragan_like, metam, metam_mo, original, sksfm, starmie, BaselineOutput,
    };
    pub use crate::bimodis::{bi_modis, bi_modis_with_context, nobi_modis};
    pub use crate::config::{ModisConfig, SkylineEntry, SkylineResult};
    pub use crate::divmodis::{div_modis, div_modis_with_context, diversification_score};
    pub use crate::dominance::{dominated_flags, dominates, epsilon_dominates, skyline};
    pub use crate::estimator::{
        EstimatorMode, EvaluationHook, SharedEvaluation, ValuationContext, ValuationStats,
    };
    pub use crate::exact::{exact_modis, exact_modis_with_context};
    pub use crate::graph_substrate::{GraphSpaceConfig, GraphSubstrate};
    pub use crate::measure::{Direction as MeasureDirection, MeasureSet, MeasureSpec};
    pub use crate::search_common::ProtectedSet;
    pub use crate::sieve_cache::SieveCache;
    pub use crate::substrate::{Substrate, SubstrateCacheStats};
    pub use crate::table_substrate::{TableSpaceConfig, TableSubstrate};
    pub use crate::task::{
        evaluate_dataset, evaluate_dataset_view, MetricKind, ModelKind, TaskEvaluation, TaskSpec,
    };
    pub use crate::telemetry::{
        Counter, Gauge, Histogram, MetricsRegistry, Span, SpanRecord, Telemetry, Tracer,
    };
}

pub use prelude::*;
