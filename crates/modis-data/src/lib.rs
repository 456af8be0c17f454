//! # modis-data
//!
//! Tabular data substrate for the MODis skyline-dataset framework
//! ("Generating Skyline Datasets for Data Science Models", EDBT 2025).
//!
//! This crate provides everything the MODis finite-state transducer needs to
//! manipulate data:
//!
//! * [`Value`] / [`Schema`] / [`Dataset`] — the table model of §2 (local
//!   schemas, universal schema, active domains, missing values). A dataset
//!   is one [`Column`] per attribute: a typed vector (`f64`, `i64`,
//!   dictionary-coded strings or `bool`) with null and numeric masks, or
//!   `Value`s where a column mixes variants;
//! * [`Literal`] — equality and range conditions carried by operators;
//! * [`augment`] / [`reduct`] — the primitive `Augment ⊕_c` and
//!   `Reduct ⊖_c` operators of §3;
//! * [`universal_table`] / [`hash_join`] — `D_U` of §5.2 in one n-way
//!   outer join (no table built per source), and its two-table case;
//! * [`derive_attribute_literals`] — per-attribute k-means over active
//!   domains read from typed columns: the search's literal lattice (§6);
//! * [`StateBitmap`] — the state encoding `L` used by ApxMODis / BiMODis,
//!   packed into `u64` words;
//! * [`RowMask`] / [`DatasetView`] — packed selection vectors and
//!   zero-copy views, the columnar materialisation path;
//! * [`stats`] — Pearson/Spearman correlation and the Euclidean distance,
//!   used by correlation-based pruning and diversification.

#![warn(missing_docs)]

pub mod bitmap;
mod cluster;
mod column;
mod dataset;
mod error;
mod join;
mod literal;
mod ops;
mod schema;
pub mod stats;
mod value;
mod view;

pub use bitmap::StateBitmap;
pub use cluster::{derive_attribute_literals, ClusterConfig, DomainCluster};
pub use column::{Column, Dictionary};
pub use dataset::Dataset;
pub use error::DataError;
pub use join::{hash_join, universal_table, JoinKind};
pub use literal::{Condition, Literal};
pub use ops::{augment, mask_attribute, reduct};
pub use schema::{Attribute, AttributeRole, Schema};
pub use value::Value;
pub use view::{DatasetView, RowMask};
