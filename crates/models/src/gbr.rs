//! Gradient boosting with CART base learners — the paper's chosen
//! correlation function (Table 3: `base_estimator='DTR'`, highest R²).

use serde::{Deserialize, Serialize};

use crate::tree::DecisionTreeRegressor;
use crate::Regressor;

/// Gradient Boosted Regressor: stagewise least-squares boosting of shallow
/// regression trees.
///
/// ```
/// use merch_models::{GradientBoostedRegressor, Regressor};
///
/// let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 10.0]).collect();
/// let y: Vec<f64> = x.iter().map(|r| (r[0]).sin()).collect();
/// let mut g = GradientBoostedRegressor::default();
/// g.fit(&x, &y);
/// assert!((g.predict_one(&[3.0]) - 3.0f64.sin()).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GradientBoostedRegressor {
    /// Number of boosting stages.
    pub n_estimators: usize,
    /// Shrinkage (learning rate).
    pub learning_rate: f64,
    /// Depth of each base tree.
    pub max_depth: usize,
    /// Seed (forwarded to base trees for reproducibility).
    pub seed: u64,
    base_prediction: f64,
    stages: Vec<DecisionTreeRegressor>,
    num_features: usize,
}

impl Default for GradientBoostedRegressor {
    fn default() -> Self {
        Self::new(200, 0.08, 3, 0)
    }
}

impl GradientBoostedRegressor {
    /// New booster.
    pub fn new(n_estimators: usize, learning_rate: f64, max_depth: usize, seed: u64) -> Self {
        Self {
            n_estimators,
            learning_rate,
            max_depth,
            seed,
            base_prediction: 0.0,
            stages: Vec::new(),
            num_features: 0,
        }
    }

    /// The fitted parts: (base prediction, stage trees, feature count).
    pub fn parts(&self) -> (f64, &[DecisionTreeRegressor], usize) {
        (self.base_prediction, &self.stages, self.num_features)
    }

    /// Rebuild from the parts [`parts`](Self::parts) returns plus the
    /// hyperparameters, e.g. when reading a model file back.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        n_estimators: usize,
        learning_rate: f64,
        max_depth: usize,
        seed: u64,
        base_prediction: f64,
        stages: Vec<DecisionTreeRegressor>,
        num_features: usize,
    ) -> Self {
        Self {
            n_estimators,
            learning_rate,
            max_depth,
            seed,
            base_prediction,
            stages,
            num_features,
        }
    }

    /// Summed impurity-reduction importances over all stages, normalised —
    /// the Gini importance used for event selection (§5.1).
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut acc = vec![0.0; self.num_features];
        for s in &self.stages {
            for (a, v) in acc.iter_mut().zip(&s.importances) {
                *a += v;
            }
        }
        let sum: f64 = acc.iter().sum();
        if sum > 0.0 {
            acc.iter_mut().for_each(|v| *v /= sum);
        }
        acc
    }
}

impl Regressor for GradientBoostedRegressor {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert!(!x.is_empty());
        self.num_features = x[0].len();
        self.stages.clear();
        self.base_prediction = y.iter().sum::<f64>() / y.len() as f64;
        let mut residual: Vec<f64> = y.iter().map(|v| v - self.base_prediction).collect();
        for s in 0..self.n_estimators {
            let mut tree = DecisionTreeRegressor::new(self.max_depth);
            tree.seed = self.seed.wrapping_add(s as u64);
            tree.fit(x, &residual);
            for (r, row) in residual.iter_mut().zip(x) {
                *r -= self.learning_rate * tree.predict_one(row);
            }
            self.stages.push(tree);
            // Early stop when the residual is numerically dead.
            let sse: f64 = residual.iter().map(|r| r * r).sum();
            if sse < 1e-20 {
                break;
            }
        }
    }

    fn predict_one(&self, row: &[f64]) -> f64 {
        self.base_prediction
            + self.learning_rate * self.stages.iter().map(|t| t.predict_one(row)).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2_score;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn smooth_fn(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.gen_range(0.0..2.0);
            let b: f64 = rng.gen_range(0.0..2.0);
            x.push(vec![a, b]);
            y.push((a * 2.0).sin() + 0.5 * b * b);
        }
        (x, y)
    }

    #[test]
    fn boosting_fits_smooth_function_well() {
        let (x, y) = smooth_fn(500, 1);
        let (xt, yt) = smooth_fn(150, 2);
        let mut g = GradientBoostedRegressor::default();
        g.fit(&x, &y);
        let r2 = r2_score(&yt, &g.predict(&xt));
        assert!(r2 > 0.9, "R² = {r2}");
    }

    #[test]
    fn boosting_beats_single_deep_tree_out_of_sample() {
        let (x, y) = smooth_fn(300, 3);
        let (xt, yt) = smooth_fn(150, 4);
        let mut g = GradientBoostedRegressor::default();
        g.fit(&x, &y);
        let mut t = DecisionTreeRegressor::new(10);
        t.fit(&x, &y);
        let rg = r2_score(&yt, &g.predict(&xt));
        let rt = r2_score(&yt, &t.predict(&xt));
        assert!(rg > rt, "gbr {rg} vs tree {rt}");
    }

    #[test]
    fn more_stages_reduce_training_error() {
        let (x, y) = smooth_fn(200, 5);
        let mut small = GradientBoostedRegressor::new(5, 0.1, 3, 0);
        let mut large = GradientBoostedRegressor::new(100, 0.1, 3, 0);
        small.fit(&x, &y);
        large.fit(&x, &y);
        let rs = r2_score(&y, &small.predict(&x));
        let rl = r2_score(&y, &large.predict(&x));
        assert!(rl > rs);
    }

    #[test]
    fn constant_target_predicts_constant() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0]];
        let y = vec![3.0; 3];
        let mut g = GradientBoostedRegressor::new(10, 0.1, 2, 0);
        g.fit(&x, &y);
        assert!((g.predict_one(&[5.0]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn importances_sum_to_one() {
        let (x, y) = smooth_fn(200, 6);
        let mut g = GradientBoostedRegressor::new(20, 0.1, 3, 0);
        g.fit(&x, &y);
        let imp = g.feature_importances();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(imp.len(), 2);
    }
}
