//! Basic-block timing and execution counting — the ingredients of the §5.2
//! homogeneous-memory predictor.
//!
//! Offline, each input-independent basic block (we use the workload's named
//! phases as blocks) is timed once on DRAM-only and once on PM-only.
//! Online, Merchandiser counts how many times each block executes with the
//! base input, scales the counts by the similarity between the base- and
//! new-input object-size vectors, and sums `count × per-execution time` per
//! tier.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use merch_hm::cost::{phase_cost, UniformPlacement};
use merch_hm::{HmConfig, TaskWork, Tier};

/// Scale factor between a base input and a new input derived from their
/// object-size vectors: cosine similarity (direction: is the input *shaped*
/// like the base input?) times the norm ratio (magnitude: how much bigger is
/// it?).
///
/// The paper uses "the value of cosine similarity ... to scale the number of
/// times the basic block is executed"; since cosine similarity alone is
/// magnitude-blind, we take the natural reading that the magnitude ratio
/// carries the growth and the cosine discounts shape changes.
pub fn similarity_scale(base_sizes: &[f64], new_sizes: &[f64]) -> f64 {
    assert_eq!(base_sizes.len(), new_sizes.len());
    let dot: f64 = base_sizes.iter().zip(new_sizes).map(|(a, b)| a * b).sum();
    let nb: f64 = base_sizes.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nn: f64 = new_sizes.iter().map(|x| x * x).sum::<f64>().sqrt();
    if nb <= 0.0 || nn <= 0.0 {
        return 1.0;
    }
    let cosine = (dot / (nb * nn)).clamp(0.0, 1.0);
    cosine * (nn / nb)
}

/// Per-basic-block timing and counting state for one task.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BasicBlockTable {
    /// block name → (per-execution time on DRAM, on PM), ns.
    pub unit_times: BTreeMap<String, (f64, f64)>,
    /// block name → execution count with the base input.
    pub base_counts: BTreeMap<String, f64>,
}

impl BasicBlockTable {
    /// Offline step 2 of §5.3: measure per-execution times of every phase of
    /// `work` on each homogeneous tier. `sizes` are the base-input object
    /// sizes; `concurrency` the co-running task count.
    ///
    /// A "per-execution" time is the phase's time for the base input; counts
    /// are 1 per round per phase and grow with repeated executions.
    pub fn measure(config: &HmConfig, work: &TaskWork, sizes: &[u64], concurrency: usize) -> Self {
        let dram = UniformPlacement::new(sizes.to_vec(), 1.0);
        let pm = UniformPlacement::new(sizes.to_vec(), 0.0);
        let mut t = Self::default();
        for ph in &work.phases {
            let d = phase_cost(config, ph, &dram, concurrency).time_ns;
            let p = phase_cost(config, ph, &pm, concurrency).time_ns;
            let e = t.unit_times.entry(ph.name.clone()).or_insert((0.0, 0.0));
            e.0 += d;
            e.1 += p;
            *t.base_counts.entry(ph.name.clone()).or_insert(0.0) += 1.0;
        }
        // Convert summed-per-name times into per-execution times.
        for (name, count) in &t.base_counts {
            if *count > 1.0 {
                let e = t.unit_times.get_mut(name).unwrap();
                e.0 /= count;
                e.1 /= count;
            }
        }
        t
    }

    /// Predict execution time on a homogeneous tier for a new input whose
    /// size vector relates to the base input by `scale`
    /// (see [`similarity_scale`]).
    pub fn predict(&self, tier: Tier, scale: f64) -> f64 {
        self.unit_times
            .iter()
            .map(|(name, &(d, p))| {
                let count = self.base_counts.get(name).copied().unwrap_or(0.0);
                let unit = match tier {
                    Tier::Dram => d,
                    Tier::Pm => p,
                };
                unit * count * scale
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use merch_hm::{ObjectAccess, ObjectId, Phase};
    use merch_patterns::AccessPattern;

    fn work() -> TaskWork {
        TaskWork::new(0)
            .with_phase(Phase::new("construct", 1e5).with_access(ObjectAccess::new(
                ObjectId(0),
                1e6,
                8,
                AccessPattern::Stream,
                0.0,
            )))
            .with_phase(Phase::new("solve", 2e5).with_access(ObjectAccess::new(
                ObjectId(0),
                5e5,
                8,
                AccessPattern::Random,
                0.2,
            )))
    }

    #[test]
    fn similarity_scale_properties() {
        // Identical inputs → 1.
        assert!((similarity_scale(&[1.0, 2.0], &[1.0, 2.0]) - 1.0).abs() < 1e-12);
        // Proportional growth → the growth factor.
        assert!((similarity_scale(&[1.0, 2.0], &[2.0, 4.0]) - 2.0).abs() < 1e-12);
        // Orthogonal shape → 0 cosine discounts everything.
        assert!(similarity_scale(&[1.0, 0.0], &[0.0, 1.0]) < 1e-12);
        // Degenerate zero vectors → neutral 1.
        assert_eq!(similarity_scale(&[0.0], &[0.0]), 1.0);
    }

    #[test]
    fn measure_pm_slower_than_dram() {
        let cfg = HmConfig::default();
        let t = BasicBlockTable::measure(&cfg, &work(), &[1 << 30], 8);
        for (name, &(d, p)) in &t.unit_times {
            assert!(p > d, "{name}: PM {p} should exceed DRAM {d}");
        }
        assert_eq!(t.base_counts["construct"], 1.0);
    }

    #[test]
    fn predict_scales_linearly() {
        let cfg = HmConfig::default();
        let t = BasicBlockTable::measure(&cfg, &work(), &[1 << 30], 8);
        let base = t.predict(Tier::Pm, 1.0);
        let double = t.predict(Tier::Pm, 2.0);
        assert!((double - 2.0 * base).abs() < 1e-6);
        assert!(t.predict(Tier::Dram, 1.0) < base);
    }

    #[test]
    fn repeated_phase_names_average_to_unit_time() {
        let cfg = HmConfig::default();
        let w = TaskWork::new(0)
            .with_phase(Phase::new("iter", 1e5))
            .with_phase(Phase::new("iter", 1e5));
        let t = BasicBlockTable::measure(&cfg, &w, &[1 << 20], 1);
        assert_eq!(t.base_counts["iter"], 2.0);
        // Prediction = unit × count ≈ both phases' total.
        let total = t.predict(Tier::Dram, 1.0);
        assert!((total - 2e5).abs() / total < 0.01);
    }
}
