//! Drift sentinel — the self-healing runtime's watchdog for *model* drift
//! (the straggler watchdog of §8 guards *deadline* drift; this guards the
//! predictions those deadlines come from).
//!
//! Every round that went through the full prediction + planning path
//! compares each task's Equation 2 prediction against its observed
//! execution time and folds the relative error into two EWMA families:
//! per task and per pattern class. A hysteresis band turns the noisy error
//! series into a clean trip/recover state machine:
//!
//! ```text
//!             max task EWMA > band_hi
//!   Clean ─────────────────────────────▶ Tripped
//!     ▲                                    │
//!     │  max task EWMA < band_lo           │ drift_streak ≥ sustain_rounds
//!     └────────────────────────────────────┤
//!                                          ▼
//!                                      step_down  (ride the hot-page rung,
//!                                                  then re-plan, re-assess)
//! ```
//!
//! On the trip *edge* — the single round where the band is first crossed —
//! the policy fires the §4 re-refinement actions once: quarantine the
//! drifting tasks' counter samples for that round, schedule a PMC
//! re-collection, reset their α refiners, and bump the estimator version
//! so every memoised quantification is discarded. While the trip is
//! *sustained*, the sentinel steps the degradation ladder down; once the
//! error falls back through the lower band and stays clean for
//! `clean_rounds` planned rounds, it steps the ladder back up.
//!
//! Rounds with no prediction (the hot-page fallback rungs) call
//! [`DriftSentinel::skip_round`] instead: streaks freeze rather than decay,
//! so time spent on a lower rung neither earns nor loses trust.

use std::collections::BTreeMap;

use merch_hm::checkpoint::{esc, Put, Reader};
use merch_hm::system::HmError;

/// Tuning knobs of the drift sentinel's state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SentinelConfig {
    /// EWMA smoothing factor: `err' = β·err + (1−β)·sample`. Lower reacts
    /// faster, higher remembers longer.
    pub ewma_beta: f64,
    /// Upper hysteresis band: a task EWMA above this trips the sentinel.
    pub band_hi: f64,
    /// Lower hysteresis band: the round error must fall below this for the
    /// sentinel to recover (band_lo < band_hi, or the hysteresis is void).
    pub band_lo: f64,
    /// Consecutive tripped *planned* rounds before the ladder steps down.
    pub sustain_rounds: u32,
    /// Consecutive clean planned rounds before the ladder steps back up.
    pub clean_rounds: u32,
}

impl Default for SentinelConfig {
    fn default() -> Self {
        Self {
            ewma_beta: 0.5,
            band_hi: 0.35,
            band_lo: 0.15,
            sustain_rounds: 2,
            clean_rounds: 2,
        }
    }
}

/// One task's prediction-vs-observation sample for a round.
#[derive(Debug, Clone, Copy)]
pub struct TaskSample<'a> {
    /// Task index.
    pub task: usize,
    /// Pattern class of the task (dominant pattern among its objects).
    pub class: &'a str,
    /// The Equation 2 prediction logged for this round, ns.
    pub predicted_ns: f64,
    /// The observed execution time, ns.
    pub observed_ns: f64,
}

/// What the sentinel concluded from one round of samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SentinelVerdict {
    /// Max post-update task EWMA among this round's samples.
    pub round_err: f64,
    /// Sentinel state after the round.
    pub tripped: bool,
    /// This round crossed `band_hi` from below — fire the one-shot
    /// re-refinement actions (quarantine, re-collect, refiner reset,
    /// version bump).
    pub trip_edge: bool,
    /// This round fell back through `band_lo` — the drift cleared.
    pub recovered: bool,
    /// Tasks whose EWMA currently exceeds `band_hi` (the quarantine set on
    /// a trip edge).
    pub drifting_tasks: Vec<usize>,
    /// Sustained drift: step the degradation ladder down now.
    pub step_down: bool,
    /// Sustained health after a step-down: the ladder steps back up.
    pub step_up: bool,
}

/// The drift sentinel state machine. Serialized into the policy blob so a
/// restored run replays trips and recoveries bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftSentinel {
    /// Tuning knobs (not serialized with the state — construction-time).
    pub config: SentinelConfig,
    task_err: BTreeMap<usize, f64>,
    class_err: BTreeMap<String, f64>,
    tripped: bool,
    awaiting_step_up: bool,
    drift_streak: u32,
    clean_streak: u32,
    /// Counter samples discarded while their task was quarantined.
    pub quarantined_samples: u64,
    /// PMC re-collection passes performed to heal quarantined profiles.
    pub recollections: u64,
    /// Estimator-version bumps issued on trip edges (cache invalidations).
    pub version_bumps: u64,
    /// Times sustained drift stepped the degradation ladder down.
    pub ladder_steps_down: u64,
    /// Times sustained health stepped the ladder back up.
    pub ladder_steps_up: u64,
    /// Rounds attributed to a *hardware* shift (a device degradation window
    /// opening or closing) rather than model drift — see
    /// [`note_hardware_shift`](Self::note_hardware_shift).
    pub hardware_shifts: u64,
}

impl Default for DriftSentinel {
    fn default() -> Self {
        Self::new(SentinelConfig::default())
    }
}

impl DriftSentinel {
    /// Fresh sentinel in the clean state.
    pub fn new(config: SentinelConfig) -> Self {
        Self {
            config,
            task_err: BTreeMap::new(),
            class_err: BTreeMap::new(),
            tripped: false,
            awaiting_step_up: false,
            drift_streak: 0,
            clean_streak: 0,
            quarantined_samples: 0,
            recollections: 0,
            version_bumps: 0,
            ladder_steps_down: 0,
            ladder_steps_up: 0,
            hardware_shifts: 0,
        }
    }

    /// Relative prediction error, saturating misbehaviour: a non-finite
    /// prediction (NaN propagation from a poisoned feature) counts as a
    /// full 100 % error rather than poisoning the EWMA.
    pub fn rel_error(predicted_ns: f64, observed_ns: f64) -> f64 {
        let e = (predicted_ns - observed_ns).abs() / observed_ns.max(1e-9);
        if e.is_finite() {
            e
        } else {
            1.0
        }
    }

    /// Is the sentinel currently tripped (inside a drift excursion)?
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// Did a step-down happen whose recovery has not yet been confirmed?
    pub fn awaiting_step_up(&self) -> bool {
        self.awaiting_step_up
    }

    /// Current EWMA relative error of `task`, if it has been observed.
    pub fn task_error(&self, task: usize) -> Option<f64> {
        self.task_err.get(&task).copied()
    }

    /// Current EWMA relative error of a pattern class, if observed.
    pub fn class_error(&self, class: &str) -> Option<f64> {
        self.class_err.get(class).copied()
    }

    /// A round ran on a fallback rung and produced no prediction: freeze
    /// the streaks (deliberately a no-op — the point is that callers state
    /// the case explicitly rather than silently feeding stale samples).
    pub fn skip_round(&mut self) {}

    /// The memory *hardware* shifted this round (a device degradation
    /// window opened or closed): the predictions the round was planned
    /// under describe a machine that no longer exists, so the error sample
    /// says nothing about the model. Streaks freeze exactly as in
    /// [`skip_round`](Self::skip_round) — the round neither earns nor loses
    /// trust — and the shift is counted so reports can distinguish "the
    /// model is wrong" from "the hardware got slower".
    pub fn note_hardware_shift(&mut self) {
        self.hardware_shifts += 1;
    }

    /// Fold one planned round's samples into the EWMAs and advance the
    /// state machine.
    pub fn observe_round(&mut self, samples: &[TaskSample<'_>]) -> SentinelVerdict {
        let beta = self.config.ewma_beta;
        let mut round_err = 0.0f64;
        for s in samples {
            let e = Self::rel_error(s.predicted_ns, s.observed_ns);
            let v = self
                .task_err
                .entry(s.task)
                .and_modify(|v| *v = beta * *v + (1.0 - beta) * e)
                .or_insert(e);
            round_err = round_err.max(*v);
            self.class_err
                .entry(s.class.to_string())
                .and_modify(|v| *v = beta * *v + (1.0 - beta) * e)
                .or_insert(e);
        }
        let mut verdict = SentinelVerdict {
            round_err,
            ..Default::default()
        };
        if !self.tripped && round_err > self.config.band_hi {
            self.tripped = true;
            verdict.trip_edge = true;
        } else if self.tripped && round_err < self.config.band_lo {
            self.tripped = false;
            verdict.recovered = true;
        }
        verdict.tripped = self.tripped;
        if self.tripped {
            self.drift_streak += 1;
            self.clean_streak = 0;
            verdict.drifting_tasks = samples
                .iter()
                .map(|s| s.task)
                .filter(|t| {
                    self.task_err
                        .get(t)
                        .is_some_and(|&v| v > self.config.band_hi)
                })
                .collect();
            if self.drift_streak >= self.config.sustain_rounds {
                self.drift_streak = 0;
                self.awaiting_step_up = true;
                self.ladder_steps_down += 1;
                verdict.step_down = true;
            }
        } else {
            self.drift_streak = 0;
            self.clean_streak += 1;
            if self.awaiting_step_up && self.clean_streak >= self.config.clean_rounds {
                self.awaiting_step_up = false;
                self.clean_streak = 0;
                self.ladder_steps_up += 1;
                verdict.step_up = true;
            }
        }
        verdict
    }

    /// Serialize the sentinel for the policy checkpoint blob (`{:?}`
    /// floats round-trip bit-exact).
    pub fn encode_state(&self, out: &mut String) {
        out.put(format_args!(
            "sentinel {:?} {:?} {:?} {} {}\n",
            self.config.ewma_beta,
            self.config.band_hi,
            self.config.band_lo,
            self.config.sustain_rounds,
            self.config.clean_rounds
        ));
        out.put(format_args!(
            "sstate {} {} {} {}\n",
            u8::from(self.tripped),
            u8::from(self.awaiting_step_up),
            self.drift_streak,
            self.clean_streak
        ));
        out.put(format_args!(
            "scnt {} {} {} {} {} {}\n",
            self.quarantined_samples,
            self.recollections,
            self.version_bumps,
            self.ladder_steps_down,
            self.ladder_steps_up,
            self.hardware_shifts
        ));
        out.put(format_args!("sterr {}\n", self.task_err.len()));
        for (task, err) in &self.task_err {
            out.put(format_args!("ste {task} {err:?}\n"));
        }
        out.put(format_args!("scerr {}\n", self.class_err.len()));
        for (class, err) in &self.class_err {
            out.put(format_args!("sce {} {err:?}\n", esc(class)));
        }
    }

    /// Inverse of [`encode_state`](Self::encode_state).
    pub fn decode_state(r: &mut Reader<'_>) -> Result<Self, HmError> {
        let mut c = r.line("sentinel")?;
        let config = SentinelConfig {
            ewma_beta: c.next("ewma_beta")?,
            band_hi: c.next("band_hi")?,
            band_lo: c.next("band_lo")?,
            sustain_rounds: c.next("sustain_rounds")?,
            clean_rounds: c.next("clean_rounds")?,
        };
        let mut c = r.line("sstate")?;
        let (tripped, awaiting) = (c.next("tripped")?, c.next("awaiting_step_up")?);
        let (drift_streak, clean_streak) = (c.next("drift_streak")?, c.next("clean_streak")?);
        let mut c = r.line("scnt")?;
        let counters: Vec<u64> = c.items(6, "counters")?;
        let n: usize = r.line("sterr")?.next("tasks")?;
        let mut task_err = BTreeMap::new();
        for _ in 0..n {
            let mut c = r.line("ste")?;
            task_err.insert(c.next("task")?, c.next("err")?);
        }
        let n: usize = r.line("scerr")?.next("classes")?;
        let mut class_err = BTreeMap::new();
        for _ in 0..n {
            let mut c = r.line("sce")?;
            class_err.insert(c.next("class")?, c.next("err")?);
        }
        Ok(Self {
            config,
            task_err,
            class_err,
            tripped,
            awaiting_step_up: awaiting,
            drift_streak,
            clean_streak,
            quarantined_samples: counters[0],
            recollections: counters[1],
            version_bumps: counters[2],
            ladder_steps_down: counters[3],
            ladder_steps_up: counters[4],
            hardware_shifts: counters[5],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SentinelConfig {
        SentinelConfig {
            ewma_beta: 0.0, // EWMA == latest sample: transitions are exact
            band_hi: 0.5,
            band_lo: 0.2,
            sustain_rounds: 2,
            clean_rounds: 2,
        }
    }

    fn sample(task: usize, err: f64) -> TaskSample<'static> {
        TaskSample {
            task,
            class: "random",
            predicted_ns: 1.0 + err,
            observed_ns: 1.0,
        }
    }

    #[test]
    fn trip_edge_fires_once_per_excursion() {
        let mut s = DriftSentinel::new(cfg());
        let v = s.observe_round(&[sample(0, 0.9)]);
        assert!(v.trip_edge && v.tripped);
        assert_eq!(v.drifting_tasks, vec![0]);
        // Still drifting: tripped, but no second edge.
        let v = s.observe_round(&[sample(0, 0.9)]);
        assert!(v.tripped && !v.trip_edge);
        // Sustained for 2 rounds → step down exactly once so far.
        assert!(v.step_down);
        assert_eq!(s.ladder_steps_down, 1);
    }

    #[test]
    fn hysteresis_band_holds_the_trip() {
        let mut s = DriftSentinel::new(cfg());
        s.observe_round(&[sample(0, 0.9)]);
        // Error inside (band_lo, band_hi): neither recovers nor re-trips.
        let v = s.observe_round(&[sample(0, 0.3)]);
        assert!(v.tripped && !v.trip_edge && !v.recovered);
        // Below band_lo: recovery edge.
        let v = s.observe_round(&[sample(0, 0.1)]);
        assert!(!v.tripped && v.recovered);
    }

    #[test]
    fn step_up_requires_clean_rounds_after_step_down() {
        let mut s = DriftSentinel::new(cfg());
        s.observe_round(&[sample(0, 0.9)]);
        let v = s.observe_round(&[sample(0, 0.9)]);
        assert!(v.step_down);
        assert!(s.awaiting_step_up());
        // One clean round is not enough …
        let v = s.observe_round(&[sample(0, 0.05)]);
        assert!(v.recovered && !v.step_up);
        // … two are.
        let v = s.observe_round(&[sample(0, 0.05)]);
        assert!(v.step_up);
        assert_eq!(s.ladder_steps_up, 1);
        assert!(!s.awaiting_step_up());
        // Without a pending step-down, clean rounds never step up again.
        let v = s.observe_round(&[sample(0, 0.05)]);
        assert!(!v.step_up);
    }

    #[test]
    fn skip_rounds_freeze_streaks() {
        let mut s = DriftSentinel::new(cfg());
        s.observe_round(&[sample(0, 0.9)]);
        // Fallback rounds in between must not accumulate drift streak.
        s.skip_round();
        s.skip_round();
        let v = s.observe_round(&[sample(0, 0.9)]);
        // Second *planned* drifting round → step down now, not earlier.
        assert!(v.step_down);
        assert_eq!(s.ladder_steps_down, 1);
    }

    #[test]
    fn hardware_shifts_freeze_streaks_and_are_counted() {
        let mut s = DriftSentinel::new(cfg());
        s.observe_round(&[sample(0, 0.9)]);
        // A degradation-window edge between the two drifting rounds is a
        // hardware event, not evidence of model drift: streaks freeze.
        s.note_hardware_shift();
        s.note_hardware_shift();
        assert_eq!(s.hardware_shifts, 2);
        let v = s.observe_round(&[sample(0, 0.9)]);
        assert!(v.step_down);
        assert_eq!(s.ladder_steps_down, 1);
    }

    #[test]
    fn non_finite_prediction_counts_as_full_error() {
        assert_eq!(DriftSentinel::rel_error(f64::NAN, 5.0), 1.0);
        assert_eq!(DriftSentinel::rel_error(f64::INFINITY, 5.0), 1.0);
        let e = DriftSentinel::rel_error(2.0, 1.0);
        assert!((e - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_class_ewma_tracked_separately() {
        let mut s = DriftSentinel::new(cfg());
        s.observe_round(&[
            TaskSample {
                task: 0,
                class: "random",
                predicted_ns: 2.0,
                observed_ns: 1.0,
            },
            TaskSample {
                task: 1,
                class: "stream",
                predicted_ns: 1.05,
                observed_ns: 1.0,
            },
        ]);
        assert!(s.class_error("random").unwrap() > 0.9);
        assert!(s.class_error("stream").unwrap() < 0.1);
        assert!(s.task_error(0).unwrap() > s.task_error(1).unwrap());
        assert!(s.class_error("stencil").is_none());
    }

    #[test]
    fn state_roundtrips_byte_identically() {
        let mut s = DriftSentinel::new(SentinelConfig::default());
        s.observe_round(&[sample(0, 0.9), sample(1, 0.01)]);
        s.observe_round(&[sample(0, 0.7)]);
        s.quarantined_samples = 3;
        s.recollections = 2;
        s.version_bumps = 1;
        let mut blob = String::new();
        s.encode_state(&mut blob);
        let decoded = DriftSentinel::decode_state(&mut Reader::new(&blob)).unwrap();
        assert_eq!(decoded, s);
        let mut blob2 = String::new();
        decoded.encode_state(&mut blob2);
        assert_eq!(blob, blob2);
    }
}
