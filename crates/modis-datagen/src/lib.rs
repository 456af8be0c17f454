//! # modis-datagen
//!
//! Synthetic workload generators reproducing the structure of the MODis
//! evaluation datasets (§6, Table 2):
//!
//! * [`tables`] — joinable table pools standing in for the Kaggle / OpenData /
//!   HF collections (tasks T1–T4), with informative, redundant and noisy
//!   attributes, skewed active domains and missing values;
//! * [`graphs`] — block-structured bipartite user–item interaction graphs for
//!   the link-regression task T5.
//!
//! ## Why synthetic data
//!
//! The paper's pools (Kaggle, OpenData, Hugging Face tables and a
//! recommendation graph) are not redistributable, and the workspace builds
//! offline. What MODis searches, though, is not the cell values but the
//! structure they induce, so each generator keeps that structure and gives
//! up the absolute metric values:
//!
//! * the universal schema: a base table holding the target and a weak
//!   signal, joined on one key with tables of *informative*, *redundant*
//!   (noisy copies) and *noise* attributes, each count a parameter;
//! * the literal lattice: skewed active domains and missing cells, so the
//!   per-attribute clustering of §6 yields ranges and equalities of uneven
//!   selectivity;
//! * the quality/cost trade-off: augmenting informative attributes raises
//!   accuracy while dropping noisy rows and columns lowers training cost.
//!
//! The comparisons of §6 are therefore meant to hold in shape, not in the
//! absolute scores of Tables 4–6.
//! Row counts are kept small so every experiment runs in seconds; a
//! generator's parameters (`TablePoolConfig`, `GraphConfig`) scale it.

#![warn(missing_docs)]

pub mod graphs;
pub mod tables;

pub use graphs::{generate_bipartite_graph, t5_recommendation, GraphConfig};
pub use tables::{
    generate_table_pool, t1_movie, t2_house, t3_avocado, t4_mental, TablePool, TablePoolConfig,
};
