//! From-scratch statistical regressors for the Merchandiser correlation
//! function.
//!
//! Table 3 of the paper compares six scikit-learn model families as
//! candidates for f(·) in Equation 2; the Gradient Boosted Regressor wins
//! (R² = 94.1 %). This crate implements all six in pure Rust:
//!
//! | paper model | implementation |
//! |---|---|
//! | DTR (Decision Tree Regressor) | [`tree::DecisionTreeRegressor`] (CART, variance reduction) |
//! | SVR (Support Vector Regressor, RBF) | [`svr::KernelRidgeRegressor`] (RBF kernel ridge — the standard dual form without the ε-insensitive loss) |
//! | KNR (K-Neighbors Regressor) | [`knn::KNeighborsRegressor`] |
//! | RFR (Random Forest Regressor) | [`forest::RandomForestRegressor`] |
//! | GBR (Gradient Boosted Regressor) | [`gbr::GradientBoostedRegressor`] |
//! | ANN (MLP Regressor) | [`mlp::MlpRegressor`] |
//!
//! plus the supporting machinery: datasets and splits ([`data`]), the
//! Table 3/Table 4 metrics ([`metrics`]) and the flattened inference form
//! of a trained GBR ([`compiled`]). The crate does no I/O: a trained GBR
//! is written to and read from a model file by
//! `merchandiser::perfmodel`, through its [`GradientBoostedRegressor::parts`]
//! and [`tree::Node`] arenas. The
//! 8 workload-characteristic events of §5.1 are the top of the all-events
//! GBR's Gini importance ranking
//! ([`GradientBoostedRegressor::feature_importances`]).

pub mod compiled;
pub mod data;
pub mod forest;
pub mod gbr;
pub mod knn;
pub mod metrics;
pub mod mlp;
pub mod svr;
pub mod tree;

pub use compiled::CompiledEnsemble;
pub use data::{train_test_split, Dataset};
pub use forest::RandomForestRegressor;
pub use gbr::GradientBoostedRegressor;
pub use knn::KNeighborsRegressor;
pub use metrics::r2_score;
pub use mlp::MlpRegressor;
pub use svr::KernelRidgeRegressor;
pub use tree::DecisionTreeRegressor;

/// Common interface of all regressors.
pub trait Regressor {
    /// Fit on rows `x` (n × d) with targets `y` (n).
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]);
    /// Predict a single row.
    fn predict_one(&self, row: &[f64]) -> f64;
    /// Predict many rows.
    fn predict(&self, x: &[Vec<f64>]) -> Vec<f64> {
        x.iter().map(|r| self.predict_one(r)).collect()
    }
}
