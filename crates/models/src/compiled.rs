//! Flattened, branch-light inference for trained GBR ensembles.
//!
//! [`crate::gbr::GradientBoostedRegressor::predict_one`] walks each stage
//! tree through its own enum-matched node arena: every visited node costs a
//! discriminant branch plus a 40-byte enum load from a per-tree allocation.
//! On the planner hot path (Algorithm 1 re-evaluates Equation 2 once per
//! 5 % step per task per round) that traversal dominates. A
//! [`CompiledEnsemble`] flattens **all** stages into one contiguous arena of
//! packed 24-byte [`CompiledNode`]s — threshold/leaf value, feature index
//! with a `u32::MAX` sentinel marking leaves, left/right child indices — so
//! a visit is one bounds-checked load, a sentinel test, and a compare.
//! (A parallel-array split of the same fields was measured ~3x slower here:
//! four scattered bounds-checked loads per node beat the single packed one
//! on no axis.)
//!
//! Compilation preserves node order and the stage-order summation of the
//! interpreter, so `predict_one` is **bitwise identical** to the
//! interpreted ensemble (asserted by `compiled_matches_interpreted_bitwise`
//! and by the model-file round-trip tests).

use crate::gbr::GradientBoostedRegressor;
use crate::tree::Node;

/// Feature-index sentinel marking a leaf node; `threshold` then holds the
/// leaf value.
const LEAF: u32 = u32::MAX;

/// One flattened tree node (24 bytes; a split reads all four fields, a leaf
/// only `threshold`).
#[derive(Debug, Clone, Copy)]
struct CompiledNode {
    /// Split threshold (≤ goes left) — or the leaf value when `feature` is
    /// [`LEAF`].
    threshold: f64,
    /// Split feature index, or [`LEAF`].
    feature: u32,
    /// Arena index of the left child (unused for leaves).
    left: u32,
    /// Arena index of the right child (unused for leaves).
    right: u32,
}

/// A GBR ensemble compiled to structure-of-arrays form for fast inference.
///
/// ```
/// use merch_models::{CompiledEnsemble, GradientBoostedRegressor, Regressor};
///
/// let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 10.0]).collect();
/// let y: Vec<f64> = x.iter().map(|r| (r[0]).sin()).collect();
/// let mut g = GradientBoostedRegressor::new(40, 0.1, 3, 0);
/// g.fit(&x, &y);
/// let c = CompiledEnsemble::compile(&g);
/// for row in &x {
///     assert_eq!(c.predict_one(row).to_bits(), g.predict_one(row).to_bits());
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CompiledEnsemble {
    /// Mean-target base prediction of the ensemble.
    base_prediction: f64,
    /// Shrinkage applied to the summed stage outputs.
    learning_rate: f64,
    /// All stage trees, flattened into one arena in stage order.
    nodes: Vec<CompiledNode>,
    /// Root node index of each boosting stage, in stage order.
    roots: Vec<u32>,
    /// Feature count the ensemble was fitted on.
    num_features: usize,
    /// FNV-1a digest of the compiled structure (see
    /// [`fingerprint_of`](Self::fingerprint_of)).
    fingerprint: u64,
}

/// FNV-1a accumulator over raw little-endian bytes.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl CompiledEnsemble {
    /// Flatten a trained ensemble. The compiled form predicts bitwise
    /// identically to `g.predict_one` for every input row.
    pub fn compile(g: &GradientBoostedRegressor) -> Self {
        let (base_prediction, stages, num_features) = g.parts();
        let mut out = Self {
            base_prediction,
            learning_rate: g.learning_rate,
            num_features,
            fingerprint: Self::fingerprint_of(g),
            ..Self::default()
        };
        for stage in stages {
            let offset = out.nodes.len() as u32;
            // `DecisionTreeRegressor::build` reserves the root slot before
            // its children, so arena index 0 is always the root.
            out.roots.push(offset);
            for &n in stage.nodes() {
                out.nodes.push(match n {
                    Node::Leaf { value } => CompiledNode {
                        threshold: value,
                        feature: LEAF,
                        left: 0,
                        right: 0,
                    },
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => CompiledNode {
                        threshold,
                        feature: feature as u32,
                        left: offset + left as u32,
                        right: offset + right as u32,
                    },
                });
            }
        }
        out
    }

    /// FNV-1a digest over everything inference depends on: base prediction
    /// and learning-rate bits, feature count, and every stage node in arena
    /// order. `CompiledEnsemble::compile(g).fingerprint() ==
    /// CompiledEnsemble::fingerprint_of(g)` always holds, so callers can
    /// validate a cached compilation against a live model without
    /// recompiling.
    pub fn fingerprint_of(g: &GradientBoostedRegressor) -> u64 {
        let (base, stages, num_features) = g.parts();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        h = fnv(h, &base.to_bits().to_le_bytes());
        h = fnv(h, &g.learning_rate.to_bits().to_le_bytes());
        h = fnv(h, &(num_features as u64).to_le_bytes());
        h = fnv(h, &(stages.len() as u64).to_le_bytes());
        for stage in stages {
            for &n in stage.nodes() {
                match n {
                    Node::Leaf { value } => {
                        h = fnv(h, &[0u8]);
                        h = fnv(h, &value.to_bits().to_le_bytes());
                    }
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        h = fnv(h, &[1u8]);
                        h = fnv(h, &(feature as u64).to_le_bytes());
                        h = fnv(h, &threshold.to_bits().to_le_bytes());
                        h = fnv(h, &(left as u64).to_le_bytes());
                        h = fnv(h, &(right as u64).to_le_bytes());
                    }
                }
            }
        }
        h
    }

    /// Digest computed at compile time (see
    /// [`fingerprint_of`](Self::fingerprint_of)).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Feature count the source ensemble was fitted on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Predict one row — bitwise identical to the interpreted
    /// `GradientBoostedRegressor::predict_one` (same comparisons, same
    /// stage-order summation).
    #[inline]
    pub fn predict_one(&self, row: &[f64]) -> f64 {
        let nodes = self.nodes.as_slice();
        let mut sum = 0.0f64;
        for &root in &self.roots {
            let mut cur = root as usize;
            loop {
                let n = &nodes[cur];
                if n.feature == LEAF {
                    sum += n.threshold;
                    break;
                }
                cur = if row[n.feature as usize] <= n.threshold {
                    n.left
                } else {
                    n.right
                } as usize;
            }
        }
        self.base_prediction + self.learning_rate * sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Regressor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn trained(n_estimators: usize, seed: u64) -> (GradientBoostedRegressor, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Vec<f64>> = (0..300)
            .map(|_| (0..9).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| (r[0] * 4.0).sin() + r[1] * r[2] + 0.3 * r[8])
            .collect();
        let mut g = GradientBoostedRegressor::new(n_estimators, 0.08, 3, seed);
        g.fit(&x, &y);
        (g, x)
    }

    #[test]
    fn compiled_matches_interpreted_bitwise() {
        let (g, x) = trained(120, 1);
        let c = CompiledEnsemble::compile(&g);
        for row in &x {
            assert_eq!(c.predict_one(row).to_bits(), g.predict_one(row).to_bits());
        }
    }

    #[test]
    fn fingerprint_matches_compile_and_detects_change() {
        let (g, _) = trained(30, 3);
        let c = CompiledEnsemble::compile(&g);
        assert_eq!(c.fingerprint(), CompiledEnsemble::fingerprint_of(&g));
        let (g2, _) = trained(30, 4);
        assert_ne!(
            CompiledEnsemble::fingerprint_of(&g),
            CompiledEnsemble::fingerprint_of(&g2)
        );
    }

    #[test]
    fn untrained_ensemble_compiles_to_base() {
        let g = GradientBoostedRegressor::new(10, 0.1, 2, 0);
        let c = CompiledEnsemble::compile(&g);
        assert!(c.roots.is_empty());
        assert_eq!(
            c.predict_one(&[1.0]).to_bits(),
            g.predict_one(&[1.0]).to_bits()
        );
    }

    #[test]
    fn single_leaf_stages_compile() {
        // Constant target: every stage is a single leaf.
        let mut g = GradientBoostedRegressor::new(5, 0.1, 2, 0);
        g.fit(&[vec![0.0], vec![1.0], vec![2.0]], &[3.0, 3.0, 3.0]);
        let c = CompiledEnsemble::compile(&g);
        assert_eq!(
            c.predict_one(&[7.0]).to_bits(),
            g.predict_one(&[7.0]).to_bits()
        );
    }
}
