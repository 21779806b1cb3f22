//! The Equation 2 performance model (§5):
//!
//! ```text
//! T_new_hybrid = T_new_pm_only · (1 − r_dram_acc) · f(PMCs, r_dram_acc)
//!              + T_new_dram_only · r_dram_acc
//! ```
//!
//! with `r_dram_acc = dram_acc / esti_mem_acc`. The `(1 − r)` term alone
//! cannot capture the correlation between the hybrid and PM-only times
//! (pipelining, memory-level parallelism — Figure 3), so f(·) is a learned
//! statistical model over hardware events plus `r`.

use std::io::{self, BufRead, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};

use merch_models::persist::Portable;
use merch_models::{CompiledEnsemble, GradientBoostedRegressor, Regressor};
use merch_profiling::PmcEvents;

/// An Equation 2 evaluator the planner can consume — implemented by the
/// interpreted [`PerformanceModel`] and its compiled fast-path twin
/// [`CompiledPerformanceModel`]. The contract: both implementations return
/// **bitwise identical** predictions for the same inputs, and equal
/// [`fingerprint`](Eq2Model::fingerprint)s exactly when their predictions
/// are interchangeable (so caches keyed on the fingerprint survive swapping
/// evaluators).
pub trait Eq2Model: std::fmt::Debug {
    /// Equation 2: predict the hybrid execution time.
    fn predict(&self, t_pm: f64, t_dram: f64, events: &PmcEvents, r: f64) -> f64;
    /// Structural digest of f(·) plus the consumed-event count.
    fn fingerprint(&self) -> u64;
}

/// The shared Equation 2 evaluation skeleton: clamping, the r = 1 endpoint,
/// the missing-event linear-interpolation rung, and the final combination —
/// identical between the interpreted and compiled paths, with only the
/// f(·) traversal abstracted out.
#[inline]
fn eq2_predict(
    t_pm: f64,
    t_dram: f64,
    events: &PmcEvents,
    r: f64,
    num_events: usize,
    f: impl FnOnce(&[f64]) -> f64,
) -> f64 {
    let r = r.clamp(0.0, 1.0);
    if r >= 1.0 {
        return t_dram;
    }
    let feats = PerformanceModel::features(events, num_events, r);
    if feats.iter().any(|v| !v.is_finite()) {
        return t_pm * (1.0 - r) + t_dram * r;
    }
    let f_val = f(&feats).max(0.0);
    t_pm * (1.0 - r) * f_val + t_dram * r
}

/// FNV-1a combining the f(·) structure digest with the consumed-event
/// count — the shared fingerprint of both [`Eq2Model`] implementations.
fn eq2_fingerprint(ensemble_fp: u64, num_events: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in ensemble_fp
        .to_le_bytes()
        .into_iter()
        .chain((num_events as u64).to_le_bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The trained performance model: Equation 2 plus its correlation function.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerformanceModel {
    /// The correlation function f(·) (GBR, the Table 3 winner).
    pub f: GradientBoostedRegressor,
    /// How many events (in importance order) the model consumes.
    pub num_events: usize,
}

impl PerformanceModel {
    /// Persist the trained model (offline step: "the construction of f(·)
    /// happens only once", §5.3).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "perfmodel v1 {}", self.num_events)?;
        self.f.write_portable(&mut f)?;
        f.flush()
    }

    /// Load a previously saved model.
    pub fn load(path: &Path) -> io::Result<Self> {
        let mut r = std::io::BufReader::new(std::fs::File::open(path)?);
        let mut header = String::new();
        r.read_line(&mut header)?;
        let parts: Vec<&str> = header.split_whitespace().collect();
        if parts.len() != 3 || parts[0] != "perfmodel" || parts[1] != "v1" {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad perfmodel header",
            ));
        }
        let num_events: usize = parts[2]
            .parse()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad num_events"))?;
        let f = GradientBoostedRegressor::read_portable(&mut r)?;
        Ok(Self { f, num_events })
    }

    /// Assemble the feature vector `[events[..k], r]`.
    pub fn features(events: &PmcEvents, num_events: usize, r: f64) -> Vec<f64> {
        let mut v = events.features(num_events);
        v.push(r);
        v
    }

    /// The target value of f(·) implied by a measured/known triple — the
    /// inversion of Equation 2 used both to generate training labels and as
    /// the "golden output" when evaluating accuracy (§7.3):
    /// `f = (T_hybrid − T_dram·r) / (T_pm·(1−r))`.
    /// Returns `None` where the denominator degenerates (r → 1).
    pub fn f_target(t_pm: f64, t_dram: f64, t_hybrid: f64, r: f64) -> Option<f64> {
        let denom = t_pm * (1.0 - r);
        if denom <= 1e-9 {
            return None;
        }
        Some((t_hybrid - t_dram * r) / denom)
    }

    /// Equation 2: predict the hybrid execution time.
    ///
    /// Degradation ladder: when any consumed event is missing (NaN-marked
    /// by PMC sample dropout), f(·) cannot be evaluated — the prediction
    /// falls back to plain linear interpolation (f ≡ 1), which is exactly
    /// the `(1 − r)` model the paper shows f(·) improves on. Biased but
    /// bounded, and never NaN.
    pub fn predict(&self, t_pm: f64, t_dram: f64, events: &PmcEvents, r: f64) -> f64 {
        eq2_predict(t_pm, t_dram, events, r, self.num_events, |feats| {
            self.f.predict_one(feats)
        })
    }

    /// Compile f(·) into the flattened fast-inference form. The compiled
    /// model predicts bitwise identically to the interpreted one.
    pub fn compile(&self) -> CompiledPerformanceModel {
        CompiledPerformanceModel {
            f: CompiledEnsemble::compile(&self.f),
            num_events: self.num_events,
        }
    }
}

impl Eq2Model for PerformanceModel {
    fn predict(&self, t_pm: f64, t_dram: f64, events: &PmcEvents, r: f64) -> f64 {
        PerformanceModel::predict(self, t_pm, t_dram, events, r)
    }

    fn fingerprint(&self) -> u64 {
        eq2_fingerprint(CompiledEnsemble::fingerprint_of(&self.f), self.num_events)
    }
}

/// [`PerformanceModel`] with f(·) compiled to the structure-of-arrays form
/// ([`CompiledEnsemble`]) — the planner's inference fast path. Built once
/// per trained model via [`PerformanceModel::compile`]; predictions are
/// bitwise identical to the interpreted original.
#[derive(Debug, Clone)]
pub struct CompiledPerformanceModel {
    /// The compiled correlation function.
    pub f: CompiledEnsemble,
    /// How many events (in importance order) the model consumes.
    pub num_events: usize,
}

impl CompiledPerformanceModel {
    /// Equation 2 through the compiled traversal (see
    /// [`PerformanceModel::predict`] for the semantics).
    pub fn predict(&self, t_pm: f64, t_dram: f64, events: &PmcEvents, r: f64) -> f64 {
        eq2_predict(t_pm, t_dram, events, r, self.num_events, |feats| {
            self.f.predict_one(feats)
        })
    }
}

impl Eq2Model for CompiledPerformanceModel {
    fn predict(&self, t_pm: f64, t_dram: f64, events: &PmcEvents, r: f64) -> f64 {
        CompiledPerformanceModel::predict(self, t_pm, t_dram, events, r)
    }

    fn fingerprint(&self) -> u64 {
        eq2_fingerprint(self.f.fingerprint(), self.num_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f_target_inverts_equation_two() {
        let (t_pm, t_dram, r) = (10.0, 4.0, 0.5);
        let f = 0.8;
        let t_hybrid = t_pm * (1.0 - r) * f + t_dram * r;
        let back = PerformanceModel::f_target(t_pm, t_dram, t_hybrid, r).unwrap();
        assert!((back - f).abs() < 1e-12);
    }

    #[test]
    fn f_target_degenerate_at_r_one() {
        assert!(PerformanceModel::f_target(10.0, 4.0, 4.0, 1.0).is_none());
        assert!(PerformanceModel::f_target(0.0, 4.0, 4.0, 0.5).is_none());
    }

    #[test]
    fn save_load_round_trip() {
        let mut f = GradientBoostedRegressor::new(30, 0.1, 3, 1);
        let x: Vec<Vec<f64>> = (0..80)
            .map(|i| (0..9).map(|j| ((i + j * 3) % 10) as f64).collect())
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 0.5 + 0.05 * r[0]).collect();
        f.fit(&x, &y);
        let m = PerformanceModel { f, num_events: 8 };
        let dir = std::env::temp_dir().join("merch_model_test.txt");
        m.save(&dir).unwrap();
        let back = PerformanceModel::load(&dir).unwrap();
        let ev = PmcEvents { values: [0.5; 14] };
        for r in [0.0, 0.3, 0.7] {
            assert_eq!(
                m.predict(10.0, 4.0, &ev, r),
                back.predict(10.0, 4.0, &ev, r)
            );
        }
        std::fs::remove_file(&dir).ok();
    }

    #[test]
    fn missing_events_fall_back_to_linear_interpolation() {
        // Train a model whose f(·) is clearly ≠ 1 so the fallback is
        // observable.
        let mut f = GradientBoostedRegressor::new(30, 0.3, 2, 1);
        let x: Vec<Vec<f64>> = (0..60)
            .map(|i| (0..9).map(|j| ((i * 7 + j) % 10) as f64 / 10.0).collect())
            .collect();
        let y: Vec<f64> = x.iter().map(|_| 0.5).collect();
        f.fit(&x, &y);
        let m = PerformanceModel { f, num_events: 8 };
        let complete = PmcEvents { values: [0.5; 14] };
        let mut partial = complete.clone();
        partial.mark_missing(2); // within the consumed prefix
        let (t_pm, t_dram, r) = (10.0, 4.0, 0.4);
        let with_f = m.predict(t_pm, t_dram, &complete, r);
        let degraded = m.predict(t_pm, t_dram, &partial, r);
        // The degraded path is exactly linear interpolation (f ≡ 1) …
        let linear = t_pm * (1.0 - r) + t_dram * r;
        assert_eq!(degraded, linear);
        // … never NaN, and distinguishable from the learned prediction.
        assert!(degraded.is_finite());
        assert!((with_f - degraded).abs() > 1e-6);
        // Missing events outside the consumed prefix don't trigger it.
        let mut tail_missing = complete.clone();
        tail_missing.mark_missing(13);
        assert_eq!(m.predict(t_pm, t_dram, &tail_missing, r), with_f);
    }

    #[test]
    fn compiled_model_predicts_bitwise_identically() {
        let mut f = GradientBoostedRegressor::new(60, 0.1, 3, 5);
        let x: Vec<Vec<f64>> = (0..120)
            .map(|i| {
                (0..9)
                    .map(|j| ((i * 13 + j * 7) % 17) as f64 / 17.0)
                    .collect()
            })
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 0.4 + 0.3 * r[0] + 0.2 * r[8]).collect();
        f.fit(&x, &y);
        let m = PerformanceModel { f, num_events: 8 };
        let c = m.compile();
        assert_eq!(Eq2Model::fingerprint(&m), Eq2Model::fingerprint(&c));
        let complete = PmcEvents { values: [0.4; 14] };
        let mut partial = complete.clone();
        partial.mark_missing(1);
        for r in [0.0, 0.05, 0.35, 0.85, 1.0] {
            for ev in [&complete, &partial] {
                assert_eq!(
                    m.predict(12.0, 5.0, ev, r).to_bits(),
                    c.predict(12.0, 5.0, ev, r).to_bits()
                );
            }
        }
    }

    #[test]
    fn endpoints_recover_bounds() {
        // With a constant f ≡ 1 the model reduces to linear interpolation;
        // at the endpoints Equation 2 must return the homogeneous bounds
        // regardless of f.
        let mut f = GradientBoostedRegressor::new(1, 0.1, 1, 0);
        // Fit on a trivial constant problem so predict_one works.
        f.fit(&[vec![0.0; 9], vec![1.0; 9]], &[1.0, 1.0]);
        let m = PerformanceModel { f, num_events: 8 };
        let ev = PmcEvents { values: [0.5; 14] };
        assert!((m.predict(10.0, 4.0, &ev, 1.0) - 4.0).abs() < 1e-12);
        let at0 = m.predict(10.0, 4.0, &ev, 0.0);
        // At r = 0 the prediction is T_pm · f(·, 0); with f ≈ 1 that's T_pm.
        assert!((at0 - 10.0).abs() < 1.0);
    }
}
