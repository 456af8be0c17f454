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
//! * [`linear`] — ridge/OLS and logistic regression (LRavocado; the
//!   H2O-style baseline ranks features by ridge weights);
//! * [`kmeans`](mod@kmeans) — multi-dimensional k-means (universal-table compression,
//!   scalability sweeps);
//! * [`feature`] — Fisher score and mutual information (`p_Fsc`, `p_MI`);
//! * [`graph`] — bipartite graphs and a LightGCN-style recommender (task T5);
//! * [`metrics`] — every performance measure of Table 3.
//!
//! The ensembles share one core (the private `ensemble.rs`): the logistic
//! link, the one-vs-rest stages of the two per-class classifiers, their
//! per-class scores and predicted label, score normalisation and the summed
//! tree importance. Every boosted model — the regressor, each classifier
//! stage and, through the regressor, [`MultiOutputGbm`] — runs one boosting
//! loop in [`gbm`], and every tree of every model is grown by one CART
//! split kernel in [`tree`].

#![warn(missing_docs)]

pub mod encoding;
mod ensemble;
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
pub use feature::{fisher_score, mutual_information};
pub use forest::{ForestParams, RandomForest};
pub use gbm::{GbmParams, GradientBoostingClassifier, GradientBoostingRegressor, MultiOutputGbm};
pub use graph::{evaluate_ranking, BipartiteGraph, LightGcn, LightGcnParams};
pub use kmeans::{kmeans, KMeansResult};
pub use linear::{LogisticRegression, RidgeRegression};
pub use matrix::Matrix;
pub use tree::{Criterion, TreeParams};
