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

use serde::{Deserialize, Serialize};

use merch_hm::checkpoint::{Put, Reader};
use merch_hm::system::HmError;
use merch_models::tree::Node;
use merch_models::{CompiledEnsemble, DecisionTreeRegressor, GradientBoostedRegressor, Regressor};
use merch_profiling::{PmcEvents, ALL_EVENTS};

/// Version of the model file format, the only one this build reads and
/// writes.
const MODEL_VERSION: u32 = 2;

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
    /// The model file: f(·) is built "only once" and reused for any
    /// application (§5.3). One record per line, floats in `{:?}` form so a
    /// round trip is bit-exact:
    ///
    /// ```text
    /// merchmodel 2
    /// gbr <num_events> <n_estimators> <learning_rate> <max_depth> <seed> <base> <num_features> <stages>
    /// tree <max_depth> <min_samples_split> <seed> <nodes>      (one per stage)
    /// node leaf <value>                                        (one per node)
    /// node split <feature> <threshold> <left> <right>
    /// ```
    pub fn encode(&self) -> String {
        let g = &self.f;
        let (base, stages, num_features) = g.parts();
        let mut out = String::new();
        out.put(format_args!(
            "merchmodel {MODEL_VERSION}\ngbr {} {} {:?} {} {} {:?} {num_features} {}\n",
            self.num_events,
            g.n_estimators,
            g.learning_rate,
            g.max_depth,
            g.seed,
            base,
            stages.len()
        ));
        for t in stages {
            let nodes = t.nodes();
            out.put(format_args!(
                "tree {} {} {} {}\n",
                t.max_depth,
                t.min_samples_split,
                t.seed,
                nodes.len()
            ));
            for n in nodes {
                match *n {
                    Node::Leaf { value } => out.put(format_args!("node leaf {value:?}\n")),
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => out.put(format_args!(
                        "node split {feature} {threshold:?} {left} {right}\n"
                    )),
                }
            }
        }
        out
    }

    /// Decode a model file produced by [`encode`](Self::encode). Every
    /// error is a located [`HmError::CheckpointCorrupt`]. A decoded model
    /// predicts without panicking or looping: each split reads a feature
    /// of the `[events[..k], r]` vector and points forward in its arena.
    pub fn decode(text: &str) -> Result<Self, HmError> {
        let mut r = Reader::named("model", text);
        let mut c = r.line("merchmodel")?;
        let version: u32 = c.next("version")?;
        if version != MODEL_VERSION {
            return Err(c.invalid(
                "version",
                format_args!(
                    "unsupported model version {version} (this build reads {MODEL_VERSION})"
                ),
            ));
        }
        c.end()?;
        let mut c = r.line("gbr")?;
        let num_events: usize = c.next("num_events")?;
        let (n_estimators, learning_rate, max_depth, seed) = (
            c.next("n_estimators")?,
            c.next("learning_rate")?,
            c.next("max_depth")?,
            c.next("seed")?,
        );
        let base = c.next("base")?;
        // f(·) reads the vector `features` builds: the first k events, then r.
        let num_features: usize = c.next("num_features")?;
        let width = num_events.min(ALL_EVENTS.len()) + 1;
        if num_features != width {
            return Err(c.invalid(
                "num_features",
                format_args!("{num_features}, but {num_events} events plus r are {width}"),
            ));
        }
        let n_stages: usize = c.next("stages")?;
        c.end()?;
        let mut stages = Vec::new();
        for _ in 0..n_stages {
            let mut t = r.line("tree")?;
            let (depth, min_samples_split, tree_seed) = (
                t.next("max_depth")?,
                t.next("min_samples_split")?,
                t.next("seed")?,
            );
            let n_nodes: usize = t.next("nodes")?;
            t.end()?;
            let mut nodes = Vec::new();
            for _ in 0..n_nodes {
                let mut c = r.line("node")?;
                nodes.push(match c.token("kind")? {
                    "leaf" => Node::Leaf {
                        value: c.next("value")?,
                    },
                    "split" => {
                        let feature: usize = c.next("feature")?;
                        if feature >= width {
                            return Err(c.invalid(
                                "feature",
                                format_args!("{feature} is past the {width} features"),
                            ));
                        }
                        Node::Split {
                            feature,
                            threshold: c.next("threshold")?,
                            left: c.next("left")?,
                            right: c.next("right")?,
                        }
                    }
                    kind => {
                        return Err(c.invalid("kind", format_args!("bad value `{kind}`")));
                    }
                });
                c.end()?;
            }
            let tree =
                DecisionTreeRegressor::from_nodes(nodes, depth, min_samples_split, tree_seed)
                    .map_err(|e| t.invalid("nodes", e))?;
            stages.push(tree);
        }
        r.finish()?;
        let f = GradientBoostedRegressor::from_parts(
            n_estimators,
            learning_rate,
            max_depth,
            seed,
            base,
            stages,
            num_features,
        );
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

    /// A model trained on `[8 events, r]` rows, and those rows.
    fn trained() -> (PerformanceModel, Vec<Vec<f64>>) {
        let mut f = GradientBoostedRegressor::new(40, 0.1, 3, 7);
        let x: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                (0..9)
                    .map(|j| ((i * 13 + j * 7) % 23) as f64 / 23.0)
                    .collect()
            })
            .collect();
        let y: Vec<f64> = x.iter().map(|r| (r[0] * 5.0).sin() + r[8]).collect();
        f.fit(&x, &y);
        (PerformanceModel { f, num_events: 8 }, x)
    }

    fn assert_corrupt(text: &str) {
        let got = PerformanceModel::decode(text);
        assert!(
            matches!(got, Err(HmError::CheckpointCorrupt(_))),
            "{text:?} must be rejected: {got:?}"
        );
    }

    #[test]
    fn model_file_round_trips_bit_exact() {
        let (m, x) = trained();
        let text = m.encode();
        let back = PerformanceModel::decode(&text).unwrap();
        assert_eq!(back.num_events, 8);
        assert_eq!(back.encode(), text);
        for row in &x {
            assert_eq!(
                m.f.predict_one(row).to_bits(),
                back.f.predict_one(row).to_bits()
            );
        }
        let ev = PmcEvents { values: [0.5; 14] };
        for r in [0.0, 0.3, 0.7] {
            assert_eq!(
                m.predict(10.0, 4.0, &ev, r).to_bits(),
                back.predict(10.0, 4.0, &ev, r).to_bits()
            );
        }
    }

    #[test]
    fn compiled_model_survives_a_round_trip() {
        // A planner restored from a model file replays identically: same
        // fingerprint, same compiled prediction bits.
        let (m, x) = trained();
        let compiled = m.compile();
        let recompiled = PerformanceModel::decode(&m.encode()).unwrap().compile();
        assert_eq!(compiled.f.fingerprint(), recompiled.f.fingerprint());
        assert_eq!(
            Eq2Model::fingerprint(&compiled),
            Eq2Model::fingerprint(&recompiled)
        );
        for row in &x {
            assert_eq!(
                compiled.f.predict_one(row).to_bits(),
                recompiled.f.predict_one(row).to_bits()
            );
        }
    }

    #[test]
    fn corrupt_model_files_are_rejected() {
        let good = trained().0.encode();
        let v1 = "gbr v1 1 0.1 1 0 0.0 1\nstages 1\ntree 1 1 2 0\nsplit 0 0.5 0 0\nend\n";
        for garbage in [
            "",
            "merchmodel 1\n",
            "perfmodel v1 8\n",
            v1,
            "merchmodel 2\ntree x\n",
            "merchmodel 2\nnode leaf 1.0\n",
        ] {
            assert_corrupt(garbage);
        }
        // Truncated after the header, or with a trailing record.
        let header_only: String = good.lines().take(2).map(|l| format!("{l}\n")).collect();
        assert_corrupt(&header_only);
        assert_corrupt(&format!("{good}node leaf 1.0\n"));
        // f(·) reads `[8 events, r]`: a model of another width, or a split
        // on a feature past r, would index past that vector.
        assert_corrupt(&with_token(&good, "gbr", 6, "10"));
        assert_corrupt(&with_token(&good, "node", 1, "9"));
    }

    /// A bad model file names its own format, not the checkpoint's.
    #[test]
    fn model_errors_name_the_model_format() {
        let Err(e) = PerformanceModel::decode("perfmodel v1\n") else {
            panic!("an old perfmodel v1 header must be rejected");
        };
        let msg = e.to_string();
        assert!(msg.starts_with("corrupt model line 1: "), "{msg}");
        assert!(!msg.contains("checkpoint"), "{msg}");
    }

    /// `text` with token `i` (after the tag) of its first `tag` line set
    /// to `value`.
    fn with_token(text: &str, tag: &str, i: usize, value: &str) -> String {
        let at = text.find(&format!("\n{tag} ")).unwrap() + 1;
        let end = at + text[at..].find('\n').unwrap();
        let mut toks: Vec<&str> = text[at..end].split_whitespace().collect();
        toks[i + 1] = value;
        format!("{}{}{}", &text[..at], toks.join(" "), &text[end..])
    }

    #[test]
    fn splits_that_do_not_point_forward_are_rejected() {
        // Decoded as is, a split pointing at itself or backwards sends
        // prediction round the same nodes forever; an empty tree has no
        // root to start from.
        let stage = |nodes: &str| {
            let n = nodes.lines().count();
            format!("merchmodel 2\ngbr 0 1 0.1 1 0 0.0 1 1\ntree 1 2 0 {n}\n{nodes}")
        };
        assert!(PerformanceModel::decode(&stage("node leaf 1.0\n")).is_ok());
        for nodes in [
            "",
            "node split 0 0.5 0 0\n",
            "node leaf 1.0\nnode split 0 0.5 0 2\nnode leaf 1.0\n",
            "node split 0 0.5 1 2\nnode leaf 1.0\n",
        ] {
            let got = PerformanceModel::decode(&stage(nodes));
            let Err(HmError::CheckpointCorrupt(msg)) = got else {
                panic!("{nodes:?} must be rejected: {got:?}");
            };
            assert!(msg.contains("line 3, `tree` field `nodes`"), "{msg}");
        }
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
