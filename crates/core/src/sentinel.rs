//! Drift sentinel — the self-healing runtime's watchdog for *model* drift
//! (the straggler watchdog of §8 guards *deadline* drift; this guards the
//! predictions those deadlines come from).
//!
//! Every round that went through the full prediction + planning path
//! compares each task's Equation 2 prediction against its observed
//! execution time and folds the relative error into a per-task EWMA
//! (β = `EWMA_BETA` = 0.5). A hysteresis band turns the noisy error series
//! into a trip/recover state machine:
//!
//! ```text
//!             max task EWMA > BAND_HI (0.35)
//!   Clean ─────────────────────────────▶ Tripped
//!     ▲                                    │
//!     │  max task EWMA < BAND_LO (0.15)    │ drift_streak ≥ SUSTAIN_ROUNDS (2)
//!     └────────────────────────────────────┤
//!                                          ▼
//!                                      step_down  (ride the hot-page rung
//!                                                  for the fallback span,
//!                                                  then re-plan, re-assess)
//! ```
//!
//! On the trip *edge* — the single round where the band is first crossed —
//! the policy fires the §4 re-refinement actions once: quarantine the
//! drifting tasks' counter samples for that round, schedule a PMC
//! re-collection, reset their α refiners, and bump the estimator version
//! so every memoised quantification is discarded. While the trip is
//! *sustained*, every `SUSTAIN_ROUNDS`-th tripped planned round steps the
//! degradation ladder down; the ladder steps back up on its own when the
//! policy's fallback span expires, and the sentinel re-assesses the next
//! planned round.
//!
//! Rounds with no prediction (the hot-page fallback rungs) and rounds at a
//! hardware shift are not observed: streaks freeze rather than decay, so
//! time spent on a lower rung neither earns nor loses trust.

use std::collections::BTreeMap;

use merch_hm::checkpoint::{Put, Reader};
use merch_hm::system::HmError;

/// EWMA smoothing factor: `err' = β·err + (1−β)·sample`.
const EWMA_BETA: f64 = 0.5;
/// Upper hysteresis band: a task EWMA above this trips the sentinel.
const BAND_HI: f64 = 0.35;
/// Lower hysteresis band: the round error must fall below this for the
/// sentinel to recover.
const BAND_LO: f64 = 0.15;
/// Consecutive tripped *planned* rounds before the ladder steps down.
const SUSTAIN_ROUNDS: u32 = 2;

/// One task's prediction-vs-observation sample for a round.
#[derive(Debug, Clone, Copy)]
pub struct TaskSample {
    /// Task index.
    pub task: usize,
    /// The Equation 2 prediction logged for this round, ns.
    pub predicted_ns: f64,
    /// The observed execution time, ns.
    pub observed_ns: f64,
}

/// What the sentinel concluded from one round of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct SentinelVerdict {
    /// This round crossed `BAND_HI` from below — fire the one-shot
    /// re-refinement actions (quarantine, re-collect, refiner reset,
    /// version bump).
    pub trip_edge: bool,
    /// Tasks whose EWMA currently exceeds `BAND_HI` (the quarantine set on
    /// a trip edge); empty unless tripped.
    pub drifting_tasks: Vec<usize>,
    /// Sustained drift: step the degradation ladder down now.
    pub step_down: bool,
}

/// The drift sentinel state machine. Serialized into the policy blob so a
/// restored run replays trips and recoveries bit-identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriftSentinel {
    task_err: BTreeMap<usize, f64>,
    tripped: bool,
    drift_streak: u32,
    /// Counter samples discarded while their task was quarantined.
    pub quarantined_samples: u64,
    /// PMC re-collection passes performed to heal quarantined profiles.
    pub recollections: u64,
    /// Estimator-version bumps issued on trip edges (cache invalidations).
    pub version_bumps: u64,
    /// Times sustained drift stepped the degradation ladder down.
    pub ladder_steps_down: u64,
    /// Rounds attributed to a *hardware* shift (a device degradation window
    /// opening or closing) rather than model drift — see
    /// [`note_hardware_shift`](Self::note_hardware_shift).
    pub hardware_shifts: u64,
}

/// Relative prediction error, saturating misbehaviour: a non-finite
/// prediction (NaN propagation from a poisoned feature) counts as a full
/// 100 % error rather than poisoning the EWMA.
fn rel_error(predicted_ns: f64, observed_ns: f64) -> f64 {
    let e = (predicted_ns - observed_ns).abs() / observed_ns.max(1e-9);
    if e.is_finite() {
        e
    } else {
        1.0
    }
}

impl DriftSentinel {
    /// Is the sentinel currently tripped (inside a drift excursion)?
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// The memory *hardware* shifted this round (a device degradation
    /// window opened or closed): the predictions the round was planned
    /// under describe a machine that no longer exists, so the error sample
    /// says nothing about the model. The round is not observed — streaks
    /// freeze — and the shift is counted so reports can distinguish "the
    /// model is wrong" from "the hardware got slower".
    pub fn note_hardware_shift(&mut self) {
        self.hardware_shifts += 1;
    }

    /// Fold one planned round's samples into the EWMAs and advance the
    /// state machine.
    pub fn observe_round(&mut self, samples: &[TaskSample]) -> SentinelVerdict {
        let mut round_err = 0.0f64;
        for s in samples {
            let e = rel_error(s.predicted_ns, s.observed_ns);
            let v = self
                .task_err
                .entry(s.task)
                .and_modify(|v| *v = EWMA_BETA * *v + (1.0 - EWMA_BETA) * e)
                .or_insert(e);
            round_err = round_err.max(*v);
        }
        let trip_edge = !self.tripped && round_err > BAND_HI;
        if trip_edge {
            self.tripped = true;
        } else if self.tripped && round_err < BAND_LO {
            self.tripped = false;
        }
        let mut verdict = SentinelVerdict {
            trip_edge,
            drifting_tasks: Vec::new(),
            step_down: false,
        };
        if self.tripped {
            self.drift_streak += 1;
            verdict.drifting_tasks = samples
                .iter()
                .map(|s| s.task)
                .filter(|t| self.task_err.get(t).is_some_and(|&v| v > BAND_HI))
                .collect();
            if self.drift_streak >= SUSTAIN_ROUNDS {
                self.drift_streak = 0;
                self.ladder_steps_down += 1;
                verdict.step_down = true;
            }
        } else {
            self.drift_streak = 0;
        }
        verdict
    }

    /// Serialize the sentinel for the policy checkpoint blob (`{:?}`
    /// floats round-trip bit-exact).
    pub fn encode_state(&self, out: &mut String) {
        out.put(format_args!(
            "sstate {} {}\n",
            u8::from(self.tripped),
            self.drift_streak
        ));
        out.put(format_args!(
            "scnt {} {} {} {} {}\n",
            self.quarantined_samples,
            self.recollections,
            self.version_bumps,
            self.ladder_steps_down,
            self.hardware_shifts
        ));
        out.put(format_args!("sterr {}\n", self.task_err.len()));
        for (task, err) in &self.task_err {
            out.put(format_args!("ste {task} {err:?}\n"));
        }
    }

    /// Inverse of [`encode_state`](Self::encode_state).
    pub fn decode_state(r: &mut Reader<'_>) -> Result<Self, HmError> {
        let mut c = r.line("sstate")?;
        let (tripped, drift_streak) = (c.next("tripped")?, c.next("drift_streak")?);
        let counters: Vec<u64> = r.line("scnt")?.items(5, "counters")?;
        let n: usize = r.line("sterr")?.next("tasks")?;
        let mut task_err = BTreeMap::new();
        for _ in 0..n {
            let mut c = r.line("ste")?;
            task_err.insert(c.next("task")?, c.next("err")?);
        }
        Ok(Self {
            task_err,
            tripped,
            drift_streak,
            quarantined_samples: counters[0],
            recollections: counters[1],
            version_bumps: counters[2],
            ladder_steps_down: counters[3],
            hardware_shifts: counters[4],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(task: usize, err: f64) -> TaskSample {
        TaskSample {
            task,
            predicted_ns: 1.0 + err,
            observed_ns: 1.0,
        }
    }

    #[test]
    fn trip_edge_fires_once_per_excursion() {
        let mut s = DriftSentinel::default();
        let v = s.observe_round(&[sample(0, 0.9), sample(1, 0.01)]);
        assert!(v.trip_edge && s.tripped() && !v.step_down);
        assert_eq!(v.drifting_tasks, vec![0]);
        // Still drifting: tripped, but no second edge. Every
        // SUSTAIN_ROUNDS-th tripped round steps the ladder down.
        for k in 1..=4u64 {
            let v = s.observe_round(&[sample(0, 0.9)]);
            assert!(s.tripped() && !v.trip_edge);
            assert_eq!(v.step_down, k % 2 == 1, "round {k}");
        }
        assert_eq!(s.ladder_steps_down, 2);
        // Recover, then a fresh excursion fires a fresh edge.
        for _ in 0..3 {
            s.observe_round(&[sample(0, 0.0)]);
        }
        assert!(!s.tripped());
        let v = s.observe_round(&[sample(0, 0.9)]);
        assert!(v.trip_edge && s.tripped());
    }

    #[test]
    fn hysteresis_band_holds_the_trip() {
        let mut s = DriftSentinel::default();
        s.observe_round(&[sample(0, 1.0)]);
        // β = 0.5 halves the EWMA on each clean sample: 0.5 is still above
        // BAND_HI, 0.25 sits inside the band and holds the trip …
        s.observe_round(&[sample(0, 0.0)]);
        assert!(s.tripped());
        let v = s.observe_round(&[sample(0, 0.0)]);
        assert!(s.tripped() && !v.trip_edge && v.drifting_tasks.is_empty());
        assert_eq!(s.task_err[&0], 0.25);
        // … and 0.125 falls below BAND_LO: recovered, streak reset.
        let v = s.observe_round(&[sample(0, 0.0)]);
        assert!(!s.tripped() && !v.step_down);
        assert_eq!((s.task_err[&0], s.drift_streak), (0.125, 0));
    }

    #[test]
    fn hardware_shifts_freeze_streaks_and_are_counted() {
        let mut s = DriftSentinel::default();
        s.observe_round(&[sample(0, 0.9)]);
        // A degradation-window edge between the two drifting rounds is a
        // hardware event, not evidence of model drift: streaks freeze.
        s.note_hardware_shift();
        s.note_hardware_shift();
        assert_eq!((s.hardware_shifts, s.drift_streak), (2, 1));
        let v = s.observe_round(&[sample(0, 0.9)]);
        assert!(v.step_down);
        assert_eq!(s.ladder_steps_down, 1);
    }

    #[test]
    fn non_finite_prediction_counts_as_full_error() {
        assert_eq!(rel_error(f64::NAN, 5.0), 1.0);
        assert_eq!(rel_error(f64::INFINITY, 5.0), 1.0);
        assert!((rel_error(2.0, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn state_roundtrips_byte_identically() {
        let mut s = DriftSentinel::default();
        s.observe_round(&[sample(0, 0.9), sample(1, 0.01)]);
        s.observe_round(&[sample(0, 0.7)]);
        s.observe_round(&[sample(0, 0.7)]);
        s.quarantined_samples = 3;
        s.recollections = 2;
        s.version_bumps = 1;
        s.note_hardware_shift();
        assert!(s.tripped() && s.drift_streak == 1);
        let mut blob = String::new();
        s.encode_state(&mut blob);
        let decoded = DriftSentinel::decode_state(&mut Reader::new(&blob)).unwrap();
        assert_eq!(decoded, s);
        let mut blob2 = String::new();
        decoded.encode_state(&mut blob2);
        assert_eq!(blob, blob2);
    }
}
