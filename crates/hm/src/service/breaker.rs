//! Per-tenant circuit breaker: the Closed → Open → Half-Open transition
//! logic over the persistent [`BreakerFrame`] (DESIGN.md §17).
//!
//! The *frame* (plain data, part of every checkpoint) lives in
//! [`crate::checkpoint::BreakerFrame`] so an Open tenant's breaker state
//! survives crash/resume bit-identically; this module adds the tuning
//! knobs and the transition functions the service's supervisor calls.
//!
//! **Determinism contract.** Strikes and strike windows are denominated in
//! the tenant's *own* attempt counter — a pure function of its entry
//! stream, so a runner task can mirror the transitions remotely and the
//! serial and concurrent control loops trip at the identical entry at any
//! `--jobs`. Only `open_until` (when a Half-Open probe may start) is
//! denominated in the service-wide consumed-entry step counter, which both
//! loops advance identically (one step per consumed entry).

use crate::checkpoint::BreakerFrame;

/// Tuning knobs of the per-tenant circuit breaker.
///
/// The defaults leave behavior unchanged for non-faulting tenants: stall
/// detection is off (`stall_threshold_ns` infinite), and panic strikes
/// only arise when a tenant's round actually panics — previously a
/// service-wide teardown, now a contained strike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Strikes within one window that trip the breaker Closed → Open.
    pub strikes_to_trip: u32,
    /// Width of the strike window, in the tenant's own round attempts.
    /// A strike landing `>= strike_window` attempts after the window
    /// opened starts a fresh window instead of accumulating.
    pub strike_window: u64,
    /// Service steps the breaker stays Open before a Half-Open probe may
    /// start (clamped to ≥ 1).
    pub open_steps: u64,
    /// Probe rounds a Half-Open tenant must complete cleanly before the
    /// breaker re-closes (clamped to ≥ 1).
    pub probe_rounds: u32,
    /// Trips after which the tenant is quarantined instead of re-opened
    /// (a repeatedly-failing tenant eventually stops consuming probes).
    pub max_trips: u32,
    /// A round slower than this is a *stall* strike, ns. Infinite (the
    /// default) disables stall detection.
    pub stall_threshold_ns: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            strikes_to_trip: 3,
            strike_window: 8,
            open_steps: 4,
            probe_rounds: 2,
            max_trips: 2,
            stall_threshold_ns: f64::INFINITY,
        }
    }
}

/// Observable state of a breaker frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: rounds run normally, strikes accumulate toward a trip.
    Closed,
    /// Tripped: the tenant is suspended (not runnable), its grant released,
    /// until the service step reaches `open_until`.
    Open,
    /// Probing: the tenant runs restored-from-checkpoint probe rounds;
    /// one strike re-trips immediately, `probe_rounds` clean rounds
    /// re-close.
    HalfOpen,
}

impl BreakerFrame {
    /// Derive the breaker state from the frame.
    pub fn state(&self) -> BreakerState {
        if self.probes_left > 0 {
            BreakerState::HalfOpen
        } else if self.open_until > 0 {
            BreakerState::Open
        } else {
            BreakerState::Closed
        }
    }

    /// Is the tenant suspended awaiting its Half-Open probe?
    pub fn is_open(&self) -> bool {
        self.state() == BreakerState::Open
    }

    /// Record one clean round attempt. During Half-Open this consumes a
    /// probe round; completing the last probe re-closes the breaker and
    /// opens a fresh strike window.
    pub fn on_success(&mut self) {
        self.attempts += 1;
        if self.probes_left > 0 {
            self.probes_left -= 1;
            if self.probes_left == 0 {
                self.open_until = 0;
                self.strikes = 0;
                self.window_start = self.attempts;
            }
        }
    }

    /// Record one struck round attempt (panic or stall). Returns `true`
    /// when the breaker trips: `strikes_to_trip` strikes inside one window
    /// while Closed, or any strike at all while Half-Open (a failed probe
    /// re-trips immediately). The caller decides between
    /// [`open`](Self::open) and quarantine by comparing
    /// [`trips`](Self::trips) against [`BreakerConfig::max_trips`].
    pub fn on_strike(&mut self, cfg: &BreakerConfig) -> bool {
        self.attempts += 1;
        if self.probes_left > 0 {
            self.probes_left = 0;
            self.strikes = 0;
            self.window_start = self.attempts;
            self.trips += 1;
            return true;
        }
        if self.strikes > 0 && self.attempts - self.window_start >= cfg.strike_window {
            self.strikes = 0;
        }
        if self.strikes == 0 {
            self.window_start = self.attempts;
        }
        self.strikes += 1;
        if self.strikes >= cfg.strikes_to_trip.max(1) {
            self.strikes = 0;
            self.trips += 1;
            true
        } else {
            false
        }
    }

    /// Trip Closed/Half-Open → Open: suspend until service step
    /// `now_step + open_steps`.
    pub fn open(&mut self, now_step: u64, cfg: &BreakerConfig) {
        self.probes_left = 0;
        self.open_until = now_step + cfg.open_steps.max(1);
    }

    /// May a Half-Open probe start at service step `step`?
    pub fn probe_ready(&self, step: u64) -> bool {
        self.is_open() && step >= self.open_until
    }

    /// Begin the Half-Open probe: `probe_rounds` clean rounds re-close the
    /// breaker, one strike re-trips.
    pub fn begin_probe(&mut self, cfg: &BreakerConfig) {
        self.open_until = 0;
        self.probes_left = cfg.probe_rounds.max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_k_strikes_in_window() {
        let cfg = BreakerConfig::default();
        let mut f = BreakerFrame::default();
        assert_eq!(f.state(), BreakerState::Closed);
        assert!(!f.on_strike(&cfg));
        assert!(!f.on_strike(&cfg));
        assert!(f.on_strike(&cfg), "third strike in one window trips");
        assert_eq!(f.trips, 1);
        f.open(10, &cfg);
        assert_eq!(f.state(), BreakerState::Open);
        assert!(!f.probe_ready(10 + cfg.open_steps - 1));
        assert!(f.probe_ready(10 + cfg.open_steps));
    }

    #[test]
    fn window_expiry_resets_strikes() {
        let cfg = BreakerConfig {
            strike_window: 4,
            ..BreakerConfig::default()
        };
        let mut f = BreakerFrame::default();
        assert!(!f.on_strike(&cfg));
        for _ in 0..4 {
            f.on_success();
        }
        // The window has lapsed: this strike opens a fresh window.
        assert!(!f.on_strike(&cfg));
        assert_eq!(f.strikes, 1);
        assert!(!f.on_strike(&cfg));
        assert!(f.on_strike(&cfg));
    }

    #[test]
    fn half_open_probe_recloses_or_retrips() {
        let cfg = BreakerConfig::default();
        let mut f = BreakerFrame::default();
        for _ in 0..3 {
            f.on_strike(&cfg);
        }
        f.open(0, &cfg);
        f.begin_probe(&cfg);
        assert_eq!(f.state(), BreakerState::HalfOpen);
        // Clean probes re-close and open a fresh window.
        for _ in 0..cfg.probe_rounds {
            f.on_success();
        }
        assert_eq!(f.state(), BreakerState::Closed);
        assert_eq!(f.strikes, 0);
        // A struck probe re-trips in one strike.
        for _ in 0..3 {
            f.on_strike(&cfg);
        }
        f.open(0, &cfg);
        f.begin_probe(&cfg);
        assert!(f.on_strike(&cfg), "half-open strike trips immediately");
        assert_eq!(f.trips, 3);
    }
}
