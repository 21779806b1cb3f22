//! Per-tenant circuit breaker: the Closed → Open → Half-Open transition
//! logic over the persistent [`BreakerFrame`] (DESIGN.md §17).
//!
//! The *frame* (plain data, part of every checkpoint) lives in
//! [`crate::checkpoint::BreakerFrame`] so an Open tenant's breaker state
//! survives crash/resume bit-identically; this module adds the fixed
//! tuning constants and the transition functions the service's supervisor
//! calls. Panic strikes only arise when a tenant's round actually panics;
//! stall strikes only when `ServiceConfig::stall_threshold_ns` is finite.
//!
//! **Determinism contract.** Strikes and strike windows are denominated in
//! the tenant's *own* attempt counter — a pure function of its entry
//! stream, so a runner task can mirror the transitions remotely and the
//! serial and concurrent control loops trip at the identical entry at any
//! `--jobs`. Only `open_until` (when a Half-Open probe may start) is
//! denominated in the service-wide consumed-entry step counter, which both
//! loops advance identically (one step per consumed entry).

use crate::checkpoint::BreakerFrame;

/// Strikes within one window that trip the breaker Closed → Open.
pub const STRIKES_TO_TRIP: u32 = 3;
/// Width of the strike window, in the tenant's own round attempts. A
/// strike landing `>= STRIKE_WINDOW` attempts after the window opened
/// starts a fresh window instead of accumulating.
pub const STRIKE_WINDOW: u64 = 8;
/// Service steps the breaker stays Open before a Half-Open probe may
/// start.
pub const OPEN_STEPS: u64 = 4;
/// Probe rounds a Half-Open tenant must complete cleanly before the
/// breaker re-closes.
pub const PROBE_ROUNDS: u32 = 2;
/// Trips after which the tenant is quarantined instead of re-opened (a
/// repeatedly-failing tenant eventually stops consuming probes).
pub const MAX_TRIPS: u32 = 2;

/// Observable state of a breaker frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: rounds run normally, strikes accumulate toward a trip.
    Closed,
    /// Tripped: the tenant is suspended (not runnable), its grant released,
    /// until the service step reaches `open_until`.
    Open,
    /// Probing: the tenant runs restored-from-checkpoint probe rounds;
    /// one strike re-trips immediately, [`PROBE_ROUNDS`] clean rounds
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
    /// when the breaker trips: [`STRIKES_TO_TRIP`] strikes inside one
    /// window while Closed, or any strike at all while Half-Open (a failed
    /// probe re-trips immediately). The caller decides between
    /// [`open`](Self::open) and quarantine by comparing
    /// [`trips`](Self::trips) against [`MAX_TRIPS`].
    pub fn on_strike(&mut self) -> bool {
        self.attempts += 1;
        if self.probes_left > 0 {
            self.probes_left = 0;
            self.strikes = 0;
            self.window_start = self.attempts;
            self.trips += 1;
            return true;
        }
        if self.strikes > 0 && self.attempts - self.window_start >= STRIKE_WINDOW {
            self.strikes = 0;
        }
        if self.strikes == 0 {
            self.window_start = self.attempts;
        }
        self.strikes += 1;
        if self.strikes >= STRIKES_TO_TRIP {
            self.strikes = 0;
            self.trips += 1;
            true
        } else {
            false
        }
    }

    /// Trip Closed/Half-Open → Open: suspend until service step
    /// `now_step + OPEN_STEPS`.
    pub fn open(&mut self, now_step: u64) {
        self.probes_left = 0;
        self.open_until = now_step + OPEN_STEPS;
    }

    /// May a Half-Open probe start at service step `step`?
    pub fn probe_ready(&self, step: u64) -> bool {
        self.is_open() && step >= self.open_until
    }

    /// Begin the Half-Open probe: [`PROBE_ROUNDS`] clean rounds re-close
    /// the breaker, one strike re-trips.
    pub fn begin_probe(&mut self) {
        self.open_until = 0;
        self.probes_left = PROBE_ROUNDS;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_k_strikes_in_window() {
        let mut f = BreakerFrame::default();
        assert_eq!(f.state(), BreakerState::Closed);
        for _ in 1..STRIKES_TO_TRIP {
            assert!(!f.on_strike());
        }
        assert!(f.on_strike(), "the last strike in one window trips");
        assert_eq!(f.trips, 1);
        f.open(10);
        assert_eq!(f.state(), BreakerState::Open);
        assert!(!f.probe_ready(10 + OPEN_STEPS - 1));
        assert!(f.probe_ready(10 + OPEN_STEPS));
    }

    #[test]
    fn window_expiry_resets_strikes() {
        let mut f = BreakerFrame::default();
        assert!(!f.on_strike());
        for _ in 1..STRIKE_WINDOW {
            f.on_success();
        }
        // The window has lapsed: this strike opens a fresh window.
        assert!(!f.on_strike());
        assert_eq!(f.strikes, 1);
        assert!(!f.on_strike());
        assert!(f.on_strike());
    }

    #[test]
    fn half_open_probe_recloses_or_retrips() {
        let mut f = BreakerFrame::default();
        for _ in 0..STRIKES_TO_TRIP {
            f.on_strike();
        }
        f.open(0);
        f.begin_probe();
        assert_eq!(f.state(), BreakerState::HalfOpen);
        // Clean probes re-close and open a fresh window.
        for _ in 0..PROBE_ROUNDS {
            f.on_success();
        }
        assert_eq!(f.state(), BreakerState::Closed);
        assert_eq!(f.strikes, 0);
        // A struck probe re-trips in one strike.
        for _ in 0..STRIKES_TO_TRIP {
            f.on_strike();
        }
        f.open(0);
        f.begin_probe();
        assert!(f.on_strike(), "half-open strike trips immediately");
        assert_eq!(f.trips, 3);
    }
}
