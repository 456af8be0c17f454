//! # modis-data
//!
//! Tabular data substrate for the MODis skyline-dataset framework
//! ("Generating Skyline Datasets for Data Science Models", EDBT 2025).
//!
//! This crate provides everything the MODis finite-state transducer needs to
//! manipulate data:
//!
//! * [`Value`] / [`Schema`] / [`Dataset`] — the table model of §2 (local
//!   schemas, universal schema, active domains, missing values);
//! * [`Literal`] — equality and range conditions carried by operators;
//! * [`augment`] / [`reduct`] — the primitive `Augment ⊕_c` and
//!   `Reduct ⊖_c` operators of §3;
//! * [`hash_join`] / [`universal_table`] — hash/outer joins and the
//!   universal table `D_U` construction of §5.2;
//! * [`derive_attribute_literals`] — per-attribute k-means over active
//!   domains, deriving the literal lattice used by the search (§6);
//! * [`StateBitmap`] — the state encoding `L` used by ApxMODis / BiMODis,
//!   packed into `u64` words;
//! * [`RowMask`] / [`DatasetView`] — packed selection vectors and
//!   zero-copy views, the columnar materialisation path;
//! * [`TableProjection`] — the typed column-major decoding (null/numeric
//!   masks, `f64` readings, dictionary codes) the owner of an immutable
//!   table keeps beside it, decoded once per column;
//! * [`stats`] — Pearson/Spearman correlation, cosine/Euclidean distances and
//!   column statistics used by correlation-based pruning and
//!   diversification.

#![warn(missing_docs)]

pub mod bitmap;
mod cluster;
mod dataset;
mod error;
mod join;
mod literal;
mod ops;
mod projection;
mod schema;
pub mod stats;
mod value;
mod view;

pub use bitmap::StateBitmap;
pub use cluster::{derive_attribute_literals, ClusterConfig, DomainCluster};
pub use dataset::Dataset;
pub use error::DataError;
pub use join::{hash_join, union_all, universal_table, JoinKind};
pub use literal::{Condition, Literal};
pub use ops::{augment, mask_attribute, reduct};
pub use projection::{ColumnProjection, Dictionary, TableProjection};
pub use schema::{Attribute, AttributeRole, Schema};
pub use value::Value;
pub use view::{DatasetView, RowMask};
