//! # modis-data
//!
//! Tabular data substrate for the MODis skyline-dataset framework
//! ("Generating Skyline Datasets for Data Science Models", EDBT 2025).
//!
//! This crate provides everything the MODis finite-state transducer needs to
//! manipulate data:
//!
//! * [`value::Value`] / [`schema::Schema`] / [`dataset::Dataset`] — the table
//!   model of §2 (local schemas, universal schema, active domains, missing
//!   values);
//! * [`literal::Literal`] — equality and range conditions carried by
//!   operators;
//! * [`ops`] — the primitive `Augment ⊕_c` and `Reduct ⊖_c` operators of §3;
//! * [`join`] — hash/outer joins and the universal table `D_U` construction
//!   of §5.2;
//! * [`cluster`] — per-attribute k-means over active domains, deriving the
//!   literal lattice used by the search (§6);
//! * [`bitmap::StateBitmap`] — the state encoding `L` used by ApxMODis /
//!   BiMODis, packed into `u64` words;
//! * [`view`] — packed [`view::RowMask`] selection vectors and zero-copy
//!   [`view::DatasetView`]s, the columnar materialisation path;
//! * [`projection::TableProjection`] — the typed column-major decoding
//!   (null/numeric masks, `f64` readings, dictionary codes) the owner of an
//!   immutable table keeps beside it, decoded once per column;
//! * [`stats`] — Pearson/Spearman correlation, cosine/Euclidean distances and
//!   column statistics used by correlation-based pruning and
//!   diversification;
//! * [`csv`] — lightweight CSV I/O for the experiment harness.

#![warn(missing_docs)]

pub mod bitmap;
pub mod cluster;
pub mod csv;
pub mod dataset;
pub mod error;
pub mod join;
pub mod literal;
pub mod ops;
pub mod projection;
pub mod schema;
pub mod stats;
pub mod value;
pub mod view;

pub use bitmap::StateBitmap;
pub use cluster::{derive_all_literals, derive_attribute_literals, ClusterConfig, DomainCluster};
pub use dataset::Dataset;
pub use error::DataError;
pub use join::{hash_join, union_all, universal_table, JoinKind};
pub use literal::{Condition, Literal};
pub use ops::{apply_operator, augment, augment_aligned, mask_attribute, reduct, Operator};
pub use projection::{ColumnProjection, Dictionary, TableProjection};
pub use schema::{universal_schema, Attribute, AttributeRole, Schema};
pub use value::Value;
pub use view::{DatasetView, RowMask};
