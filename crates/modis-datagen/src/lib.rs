//! # modis-datagen
//!
//! Synthetic workload generators reproducing the structure of the MODis
//! evaluation datasets (§6, Table 2):
//!
//! * [`tables`] — joinable table pools standing in for the Kaggle / OpenData /
//!   HF collections (tasks T1–T4), with informative, redundant and noisy
//!   attributes, skewed active domains and missing values;
//! * [`graphs`] — block-structured bipartite user–item interaction graphs for
//!   the link-regression task T5;
//! * [`xray_material_pool`] / [`image_feature_pool`] — the
//!   materials-science X-ray pool and the image-feature pool of the two
//!   case studies (Fig. 11).
//!
//! The substitution rationale is documented in `DESIGN.md`: the real data
//! pools are not redistributable, so each generator preserves the search-space
//! structure (universal schema size, literal lattice, quality/cost trade-off)
//! rather than the absolute metric values.

#![warn(missing_docs)]

mod case_studies;
pub mod graphs;
pub mod tables;

pub use case_studies::{image_feature_pool, xray_material_pool};
pub use graphs::{generate_bipartite_graph, t5_recommendation, GraphConfig};
pub use tables::{
    generate_table_pool, t1_movie, t2_house, t3_avocado, t4_mental, TablePool, TablePoolConfig,
};
