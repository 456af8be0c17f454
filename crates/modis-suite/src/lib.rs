//! Umbrella crate for the MODis workspace: re-exports every product crate
//! so downstream users can depend on a single crate, and hosts the root
//! `tests/` and `examples/`, which also use the `modis_bench` workloads.
//!
//! See the individual crates for the real functionality:
//! [`modis_data`], [`modis_ml`], [`modis_core`], [`modis_datagen`],
//! [`modis_engine`], [`modis_service`].

#![warn(missing_docs)]

pub use modis_core;
pub use modis_data;
pub use modis_datagen;
pub use modis_engine;
pub use modis_ml;
pub use modis_service;

/// One-stop re-exports across the whole stack: the core prelude (configs,
/// algorithms, substrates, measures) plus the engine's scenario types and
/// the service layer's client API.
pub mod prelude {
    pub use modis_core::prelude::*;
    pub use modis_data::{Dataset, StateBitmap};
    pub use modis_engine::{
        Algorithm, CacheStats, Engine, EngineConfig, Scenario, ScenarioOutcome, SharedEvalCache,
    };
    pub use modis_service::{Daemon, JobState, Service, ServiceConfig, ServiceError, Ticket};
}
