//! Host crate of the MODis workspace: it exports nothing, and carries the
//! repository-level `tests/` and `examples/` and the `modis_shard` binary,
//! which depend on the product crates directly:
//! [`modis_data`], [`modis_ml`], [`modis_core`], [`modis_datagen`],
//! [`modis_engine`], [`modis_service`], plus the `modis_bench` workloads.
