//! CART regression tree with variance-reduction splitting.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::Regressor;

/// One node of a tree's flat arena. `DecisionTreeRegressor::build` pushes
/// a split's slot before its children, so every child index is greater
/// than its parent's and a walk from the root (index 0) ends at a leaf.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Node {
    /// Terminal node predicting `value`.
    Leaf {
        /// Predicted value (leaf mean).
        value: f64,
    },
    /// Internal split on `feature` at `threshold` (≤ goes left).
    Split {
        /// Feature index.
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Arena index of the left child.
        left: usize,
        /// Arena index of the right child.
        right: usize,
    },
}

/// Decision Tree Regressor (the paper's DTR; Table 3 uses
/// `criterion=gini, max_depth=10` — for regression the impurity criterion is
/// variance, the regression analogue scikit-learn silently substitutes).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTreeRegressor {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Number of random features considered per split (None = all);
    /// used by the random forest.
    pub max_features: Option<usize>,
    /// Seed for feature subsampling.
    pub seed: u64,
    nodes: Vec<Node>,
    /// Accumulated impurity (variance) reduction per feature — the
    /// "Gini importance" analogue used for feature selection (§5.1).
    pub importances: Vec<f64>,
}

impl Default for DecisionTreeRegressor {
    fn default() -> Self {
        Self::new(10)
    }
}

impl DecisionTreeRegressor {
    /// New tree with the given depth limit.
    pub fn new(max_depth: usize) -> Self {
        Self {
            max_depth,
            min_samples_split: 2,
            max_features: None,
            seed: 0,
            nodes: Vec::new(),
            importances: Vec::new(),
        }
    }

    fn build(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        idx: &mut [usize],
        depth: usize,
        rng: &mut StdRng,
    ) -> usize {
        let n = idx.len();
        let mean = idx.iter().map(|&i| y[i]).sum::<f64>() / n as f64;
        let var = idx.iter().map(|&i| (y[i] - mean).powi(2)).sum::<f64>() / n as f64;
        if depth >= self.max_depth || n < self.min_samples_split || var <= 1e-18 {
            self.nodes.push(Node::Leaf { value: mean });
            return self.nodes.len() - 1;
        }

        let d = x[0].len();
        let mut features: Vec<usize> = (0..d).collect();
        if let Some(k) = self.max_features {
            features.shuffle(rng);
            features.truncate(k.max(1).min(d));
        }

        // Best split: maximise variance reduction.
        let total_sum: f64 = idx.iter().map(|&i| y[i]).sum();
        let total_sq: f64 = idx.iter().map(|&i| y[i] * y[i]).sum();
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        let mut sorted = idx.to_vec();
        for &f in &features {
            sorted.sort_by(|&a, &b| x[a][f].total_cmp(&x[b][f]));
            let mut lsum = 0.0;
            let mut lsq = 0.0;
            for (k, &i) in sorted.iter().enumerate().take(n - 1) {
                lsum += y[i];
                lsq += y[i] * y[i];
                let (xl, xr) = (x[i][f], x[sorted[k + 1]][f]);
                if xr <= xl {
                    continue; // ties: not a valid split point
                }
                let nl = (k + 1) as f64;
                let nr = (n - k - 1) as f64;
                let rsum = total_sum - lsum;
                let rsq = total_sq - lsq;
                // Sum of squared errors on each side.
                let sse = (lsq - lsum * lsum / nl) + (rsq - rsum * rsum / nr);
                let gain = (total_sq - total_sum * total_sum / n as f64) - sse;
                if gain > best.map(|(g, _, _)| g).unwrap_or(1e-15) {
                    best = Some((gain, f, 0.5 * (xl + xr)));
                }
            }
        }

        let Some((gain, f, thr)) = best else {
            self.nodes.push(Node::Leaf { value: mean });
            return self.nodes.len() - 1;
        };
        self.importances[f] += gain;

        let (mut left, mut right): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| x[i][f] <= thr);
        // The midpoint of two adjacent float values can round up onto the
        // right value, emptying one side; fall back to a leaf.
        if left.is_empty() || right.is_empty() {
            self.importances[f] -= gain; // undo the credited gain
            self.nodes.push(Node::Leaf { value: mean });
            return self.nodes.len() - 1;
        }
        // Reserve our slot before children so indices are stable.
        let slot = self.nodes.len();
        self.nodes.push(Node::Leaf { value: mean }); // placeholder
        let l = self.build(x, y, &mut left, depth + 1, rng);
        let r = self.build(x, y, &mut right, depth + 1, rng);
        self.nodes[slot] = Node::Split {
            feature: f,
            threshold: thr,
            left: l,
            right: r,
        };
        slot
    }

    /// The flat node arena, root first.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Rebuild a tree from a flat arena, e.g. one read back from a model
    /// file. Rejects an empty arena and any split whose child index is not
    /// strictly after the split and inside the arena, so every walk from
    /// the root ends at a leaf.
    pub fn from_nodes(
        nodes: Vec<Node>,
        max_depth: usize,
        min_samples_split: usize,
        seed: u64,
    ) -> Result<Self, String> {
        if nodes.is_empty() {
            return Err("empty tree".to_string());
        }
        let n = nodes.len();
        for (i, node) in nodes.iter().enumerate() {
            if let Node::Split { left, right, .. } = *node {
                if !(i < left && left < n && i < right && right < n) {
                    return Err(format!(
                        "split {i} has children {left}/{right}, which must lie in {}..{n}",
                        i + 1
                    ));
                }
            }
        }
        Ok(Self {
            max_depth,
            min_samples_split,
            max_features: None,
            seed,
            nodes,
            importances: Vec::new(),
        })
    }

    /// Normalised per-feature importances (sum to 1 when any split exists).
    pub fn feature_importances(&self) -> Vec<f64> {
        let s: f64 = self.importances.iter().sum();
        if s <= 0.0 {
            return self.importances.clone();
        }
        self.importances.iter().map(|&v| v / s).collect()
    }
}

impl Regressor for DecisionTreeRegressor {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert_eq!(x.len(), y.len());
        assert!(!x.is_empty(), "cannot fit on an empty dataset");
        self.nodes.clear();
        self.importances = vec![0.0; x[0].len()];
        let mut idx: Vec<usize> = (0..x.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.build(x, y, &mut idx, 0, &mut rng);
    }

    fn predict_one(&self, row: &[f64]) -> f64 {
        let mut cur = 0usize;
        loop {
            match &self.nodes[cur] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    cur = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2_score;

    fn xor_like() -> (Vec<Vec<f64>>, Vec<f64>) {
        // Piecewise-constant target a tree should fit exactly.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..64 {
            let a = (i % 8) as f64;
            let b = (i / 8) as f64;
            x.push(vec![a, b]);
            y.push(if a < 4.0 { 1.0 } else { 5.0 } + if b < 4.0 { 0.0 } else { 10.0 });
        }
        (x, y)
    }

    #[test]
    fn fits_piecewise_constant_exactly() {
        let (x, y) = xor_like();
        let mut t = DecisionTreeRegressor::new(8);
        t.fit(&x, &y);
        let pred = t.predict(&x);
        assert!(r2_score(&y, &pred) > 0.999);
    }

    #[test]
    fn depth_limit_regularises() {
        let (x, y) = xor_like();
        let mut stump = DecisionTreeRegressor::new(1);
        stump.fit(&x, &y);
        let pred = stump.predict(&x);
        let r2 = r2_score(&y, &pred);
        assert!(r2 > 0.3 && r2 < 0.999, "stump R² = {r2}");
    }

    #[test]
    fn importances_identify_informative_feature() {
        // y depends only on feature 0; feature 1 is noise.
        let x: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![i as f64, ((i * 37) % 13) as f64])
            .collect();
        let y: Vec<f64> = (0..100).map(|i| if i < 50 { 0.0 } else { 1.0 }).collect();
        let mut t = DecisionTreeRegressor::new(4);
        t.fit(&x, &y);
        let imp = t.feature_importances();
        assert!(imp[0] > 0.9, "importances {imp:?}");
    }

    #[test]
    fn constant_target_single_leaf() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![7.0, 7.0, 7.0];
        let mut t = DecisionTreeRegressor::new(5);
        t.fit(&x, &y);
        assert_eq!(t.predict_one(&[99.0]), 7.0);
    }

    #[test]
    fn handles_tied_feature_values() {
        let x = vec![vec![1.0], vec![1.0], vec![1.0], vec![2.0]];
        let y = vec![0.0, 0.0, 0.0, 10.0];
        let mut t = DecisionTreeRegressor::new(3);
        t.fit(&x, &y);
        assert!(t.predict_one(&[1.0]) < 1.0);
        assert!(t.predict_one(&[2.0]) > 9.0);
    }
}
