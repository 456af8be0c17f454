//! # modis-ml
//!
//! From-scratch machine-learning substrate for the MODis reproduction.
//!
//! The paper evaluates MODis with scikit-learn / LightGBM / LightGCN models
//! and a multi-output gradient-boosting estimator; the Rust ML ecosystem does
//! not provide drop-in equivalents, so this crate implements the required
//! models directly:
//!
//! * [`matrix`] — the row-major design [`Matrix`] every task model fits and
//!   predicts on;
//! * [`encoding`] — [`Dataset`](modis_data::Dataset) → numeric design matrix;
//! * [`tree`] / [`forest`] — CART trees and random forests (RFhouse, case
//!   studies);
//! * [`gbm`] — gradient-boosting regressor/classifier and the multi-output
//!   GBM estimator (GBmovie, LGCmental, MO-GBM);
//! * [`linear`] — ridge/OLS and logistic regression (LRavocado, H2O-style
//!   baseline);
//! * [`kmeans`](mod@kmeans) — multi-dimensional k-means (universal-table compression,
//!   scalability sweeps);
//! * [`feature`] — Fisher score, mutual information, top-k selection
//!   (`p_Fsc`, `p_MI`, SkSFM baseline);
//! * [`graph`] — bipartite graphs and a LightGCN-style recommender (task T5);
//! * [`metrics`] — every performance measure of Table 3.

#![warn(missing_docs)]

pub mod encoding;
pub mod feature;
pub mod forest;
pub mod gbm;
pub mod graph;
pub mod kmeans;
pub mod linear;
pub mod matrix;
pub mod metrics;
pub mod tree;

pub use encoding::{encode, EncodeOptions, Encoded, TaskKind};
pub use feature::{fisher_score, mutual_information, top_k_features};
pub use forest::{ForestParams, RandomForest};
pub use gbm::{GbmParams, GradientBoostingClassifier, GradientBoostingRegressor, MultiOutputGbm};
pub use graph::{evaluate_ranking, BipartiteGraph, LightGcn, LightGcnParams};
pub use kmeans::{kmeans, KMeansResult};
pub use linear::{LogisticRegression, RidgeRegression};
pub use matrix::Matrix;
pub use tree::{Criterion, TreeParams};
