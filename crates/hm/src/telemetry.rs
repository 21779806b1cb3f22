//! Per-tier bandwidth timelines — the instrumentation behind Figure 6.
//!
//! The paper measures runtime DRAM/PM bandwidth with Intel PCM. The
//! emulation reconstructs the same series: each task contributes its bytes
//! uniformly over its execution interval, and the timeline bins the sum.

use serde::{Deserialize, Serialize};

use crate::checkpoint::{corrupt, Put, Reader};
use crate::runtime::{RoundReport, TaskResult};
use crate::system::HmError;

/// A structured, non-fatal runtime warning surfaced through the telemetry
/// channel instead of being silently swallowed. Rendered as one
/// `key=value` line on stderr by [`emit`](Warning::emit) so log scrapers
/// can parse it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Warning {
    /// WAL recovery dropped a torn or garbled tail while restoring the
    /// last durable checkpoint.
    WalTornTail {
        /// `next_round` of the surviving checkpoint (0 when none survived).
        round: u64,
        /// Bytes discarded from the tail of the WAL file.
        dropped_bytes: u64,
        /// Why the frame scan stopped (truncated payload, bad length, ...).
        reason: String,
    },
    /// A tenant's round panicked and the service's circuit breaker
    /// contained it as a strike instead of tearing the pool down
    /// (DESIGN.md §17).
    TenantPanicContained {
        /// Registry handle of the struck tenant.
        tenant: u32,
        /// Strike count after this panic (window-relative).
        strikes: u32,
        /// The panic payload, for the post-mortem.
        msg: String,
    },
}

impl std::fmt::Display for Warning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Warning::WalTornTail {
                round,
                dropped_bytes,
                reason,
            } => write!(
                f,
                "wal-torn-tail round={round} dropped_bytes={dropped_bytes} reason=\"{reason}\""
            ),
            Warning::TenantPanicContained {
                tenant,
                strikes,
                msg,
            } => write!(
                f,
                "tenant-panic-contained tenant={tenant} strikes={strikes} msg=\"{msg}\""
            ),
        }
    }
}

impl Warning {
    /// Emit the warning on the telemetry channel (stderr), one structured
    /// line.
    pub fn emit(&self) {
        eprintln!("warning: {self}");
    }
}

/// A recorded bandwidth sample.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BandwidthSample {
    /// Bin start time, ns (simulated).
    pub t_ns: f64,
    /// DRAM bandwidth during the bin, GB/s.
    pub dram_gbps: f64,
    /// PM bandwidth during the bin, GB/s.
    pub pm_gbps: f64,
}

/// Accumulates byte flows into fixed-width time bins.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BandwidthTimeline {
    bin_ns: f64,
    dram_bytes: Vec<f64>,
    pm_bytes: Vec<f64>,
    /// Bins zeroed by [`blackout_bin`](Self::blackout_bin), in the order
    /// they were lost.
    lost: Vec<usize>,
    /// Simulated time offset at which the current round started, ns.
    pub clock_ns: f64,
}

impl BandwidthTimeline {
    /// New timeline with `bin_ns`-wide bins. Panics on a non-positive bin
    /// width; use [`BandwidthTimeline::try_new`] to handle that as an error.
    pub fn new(bin_ns: f64) -> Self {
        Self::try_new(bin_ns).expect("telemetry bin width must be positive")
    }

    /// Fallible constructor: rejects non-positive or non-finite bin widths
    /// instead of panicking.
    pub fn try_new(bin_ns: f64) -> Result<Self, HmError> {
        if !(bin_ns > 0.0 && bin_ns.is_finite()) {
            return Err(HmError::InvalidConfig(format!(
                "telemetry bin width must be positive and finite, got {bin_ns}"
            )));
        }
        Ok(Self {
            bin_ns,
            dram_bytes: Vec::new(),
            pm_bytes: Vec::new(),
            lost: Vec::new(),
            clock_ns: 0.0,
        })
    }

    /// Bin width, ns.
    pub fn bin_ns(&self) -> f64 {
        self.bin_ns
    }

    /// Number of bins materialised so far.
    pub fn num_bins(&self) -> usize {
        self.dram_bytes.len()
    }

    /// Zero the byte counters of bin `bin` (telemetry blackout fault:
    /// the collector lost that sampling interval). The index is
    /// remembered, so a checkpoint carries the lost bins instead of the
    /// bins themselves.
    pub fn blackout_bin(&mut self, bin: usize) {
        if bin < self.dram_bytes.len() {
            self.dram_bytes[bin] = 0.0;
            self.pm_bytes[bin] = 0.0;
            self.lost.push(bin);
        }
    }

    fn ensure(&mut self, bin: usize) {
        if bin >= self.dram_bytes.len() {
            self.dram_bytes.resize(bin + 1, 0.0);
            self.pm_bytes.resize(bin + 1, 0.0);
        }
    }

    /// Record a task that ran on `[start_ns, start_ns + dur_ns)` moving
    /// `dram_bytes` from DRAM and `pm_bytes` from PM, spread uniformly.
    pub fn record_interval(&mut self, start_ns: f64, dur_ns: f64, dram_bytes: f64, pm_bytes: f64) {
        let Some((first, last, top)) = self.span(start_ns, dur_ns) else {
            return;
        };
        self.ensure(top);
        let per_ns_d = dram_bytes / dur_ns;
        let per_ns_p = pm_bytes / dur_ns;
        for bin in first..last {
            let lo = (bin as f64 * self.bin_ns).max(start_ns);
            let hi = ((bin + 1) as f64 * self.bin_ns).min(start_ns + dur_ns);
            let span = (hi - lo).max(0.0);
            self.dram_bytes[bin] += per_ns_d * span;
            self.pm_bytes[bin] += per_ns_p * span;
        }
    }

    /// The bins `[first, last)` an interval touches and the highest bin
    /// it materialises; `None` when it is empty and records nothing.
    fn span(&self, start_ns: f64, dur_ns: f64) -> Option<(usize, usize, usize)> {
        if dur_ns <= 0.0 {
            return None;
        }
        let first = (start_ns / self.bin_ns).floor() as usize;
        let last = ((start_ns + dur_ns) / self.bin_ns).ceil() as usize;
        Some((first, last, last.saturating_sub(1).max(first)))
    }

    /// Record one round: its tasks start together `migration_ns` after the
    /// round clock, each moving its bytes over its own time, then the
    /// clock advances by `round_time_ns`. The executor and the checkpoint
    /// decoder both build timelines through this call only, so a rebuilt
    /// timeline repeats the live float operations in the same order.
    pub fn record_round(&mut self, migration_ns: f64, tasks: &[TaskResult], round_time_ns: f64) {
        let start = self.clock_ns + migration_ns;
        for t in tasks {
            self.record_interval(start, t.time_ns, t.cost.dram_bytes, t.cost.pm_bytes);
        }
        self.clock_ns += round_time_ns;
    }

    /// Produce the sampled series (GB/s per bin; GB/s == bytes/ns).
    pub fn samples(&self) -> Vec<BandwidthSample> {
        self.dram_bytes
            .iter()
            .zip(&self.pm_bytes)
            .enumerate()
            .map(|(i, (&d, &p))| BandwidthSample {
                t_ns: i as f64 * self.bin_ns,
                dram_gbps: d / self.bin_ns,
                pm_gbps: p / self.bin_ns,
            })
            .collect()
    }

    /// Average DRAM bandwidth over the non-empty prefix, GB/s.
    pub fn avg_dram_gbps(&self) -> f64 {
        avg(&self.dram_bytes, self.bin_ns)
    }

    /// Average PM bandwidth over the non-empty prefix, GB/s.
    pub fn avg_pm_gbps(&self) -> f64 {
        avg(&self.pm_bytes, self.bin_ns)
    }

    /// Serialize the timeline for a checkpoint: only the header line
    /// `timeline <bin_ns> <clock_ns> <bins> <n_lost> <lost bins…>`. The
    /// bins themselves are rebuilt from the checkpoint's completed rounds
    /// by [`decode_state`](Self::decode_state).
    pub fn encode_state(&self, out: &mut String) {
        out.put(format_args!(
            "timeline {:?} {:?} {} {}",
            self.bin_ns,
            self.clock_ns,
            self.dram_bytes.len(),
            self.lost.len()
        ));
        for bin in &self.lost {
            out.put(format_args!(" {bin}"));
        }
        out.push('\n');
    }

    /// Restore a timeline serialized by [`encode_state`](Self::encode_state)
    /// by replaying `rounds` (every round the timeline recorded, in order)
    /// through [`record_round`](Self::record_round) and zeroing the lost
    /// bins. A later round starts at or after the clock, so it never wrote
    /// to an already-completed, possibly lost bin: zeroing at the end gives
    /// the live bins bit for bit. The rebuilt clock bits and bin count must
    /// equal the header's, and the rebuild never grows past the header's
    /// bin count, so a corrupt duration cannot allocate without bound.
    pub fn decode_state(r: &mut Reader<'_>, rounds: &[RoundReport]) -> Result<Self, HmError> {
        let mut c = r.line("timeline")?;
        let (bin_ns, clock_ns): (f64, f64) = (c.next("bin_ns")?, c.next("clock_ns")?);
        let bins: usize = c.next("bins")?;
        let lost: Vec<usize> = c.list("lost")?;
        if let Some(bin) = lost.iter().find(|&&bin| bin >= bins) {
            return Err(c.invalid("lost", format_args!("lost bin {bin} out of range")));
        }
        c.end()?;
        let mut tl = Self::try_new(bin_ns)?;
        for round in rounds {
            let start = tl.clock_ns + round.migration_ns;
            for task in &round.tasks {
                if tl
                    .span(start, task.time_ns)
                    .is_some_and(|(_, _, top)| top >= bins)
                {
                    return Err(corrupt("a round reaches past the timeline's bin count"));
                }
            }
            tl.record_round(round.migration_ns, &round.tasks, round.round_time_ns);
        }
        if tl.num_bins() != bins || tl.clock_ns.to_bits() != clock_ns.to_bits() {
            return Err(corrupt(
                "timeline header does not match the completed rounds",
            ));
        }
        for bin in lost {
            tl.blackout_bin(bin);
        }
        Ok(tl)
    }
}

fn avg(bytes: &[f64], bin_ns: f64) -> f64 {
    if bytes.is_empty() {
        return 0.0;
    }
    let total: f64 = bytes.iter().sum();
    total / (bytes.len() as f64 * bin_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_spread_over_bins() {
        let mut t = BandwidthTimeline::new(100.0);
        t.record_interval(0.0, 200.0, 2000.0, 0.0); // 10 B/ns over 2 bins
        let s = t.samples();
        assert_eq!(s.len(), 2);
        assert!((s[0].dram_gbps - 10.0).abs() < 1e-9);
        assert!((s[1].dram_gbps - 10.0).abs() < 1e-9);
    }

    #[test]
    fn partial_bin_overlap() {
        let mut t = BandwidthTimeline::new(100.0);
        t.record_interval(50.0, 100.0, 1000.0, 1000.0); // spans halves of 2 bins
        let s = t.samples();
        assert!((s[0].dram_gbps - 5.0).abs() < 1e-9);
        assert!((s[1].pm_gbps - 5.0).abs() < 1e-9);
        // Total bytes conserved.
        let total: f64 = s.iter().map(|x| x.dram_gbps * 100.0).sum();
        assert!((total - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn averages() {
        let mut t = BandwidthTimeline::new(10.0);
        t.record_interval(0.0, 20.0, 200.0, 100.0);
        assert!((t.avg_dram_gbps() - 10.0).abs() < 1e-9);
        assert!((t.avg_pm_gbps() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_ignored() {
        let mut t = BandwidthTimeline::new(10.0);
        t.record_interval(0.0, 0.0, 100.0, 100.0);
        assert!(t.samples().is_empty());
    }

    #[test]
    fn clock_advances() {
        let mut t = BandwidthTimeline::new(10.0);
        t.record_round(0.0, &[], 50.0);
        t.record_round(5.0, &[], 25.0);
        assert!((t.clock_ns - 75.0).abs() < 1e-12);
    }

    #[test]
    fn try_new_rejects_bad_widths() {
        assert!(BandwidthTimeline::try_new(0.0).is_err());
        assert!(BandwidthTimeline::try_new(-5.0).is_err());
        assert!(BandwidthTimeline::try_new(f64::NAN).is_err());
        assert!(BandwidthTimeline::try_new(f64::INFINITY).is_err());
        assert!(BandwidthTimeline::try_new(10.0).is_ok());
    }

    #[test]
    fn blackout_zeroes_one_bin() {
        let mut t = BandwidthTimeline::new(100.0);
        t.record_interval(0.0, 200.0, 2000.0, 400.0);
        assert_eq!(t.num_bins(), 2);
        t.blackout_bin(0);
        let s = t.samples();
        assert_eq!(s[0].dram_gbps, 0.0);
        assert_eq!(s[0].pm_gbps, 0.0);
        assert!(s[1].dram_gbps > 0.0);
        t.blackout_bin(99); // out of range: no-op
    }
}
