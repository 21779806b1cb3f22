//! Deterministic fault injection for the emulated HM system.
//!
//! Real heterogeneous-memory deployments misbehave in ways the clean
//! emulation never shows: page migrations fail transiently (NUMA races,
//! `move_pages` returning `-EBUSY`), PTE-scan and PMC samples get lost
//! under load, co-tenants steal DRAM capacity, and telemetry collectors
//! drop bins. This module injects those faults *reproducibly*: every
//! decision is a pure function of the plan seed and the identity of the
//! event (round, page, attempt, task, event index, bin), so the same
//! [`FaultPlan`] replays bit-identically and [`FaultPlan::none`] leaves
//! the simulation byte-for-byte untouched.
//!
//! The runtime and the Merchandiser policy respond with a graceful-
//! degradation ladder rather than panics; see `DESIGN.md` ("Failure model
//! & degradation ladder").

use serde::{Deserialize, Serialize};

use crate::config::Tier;
use crate::page::PageId;
use crate::system::HmError;

/// splitmix64 finalizer: the one-way mixer behind every fault decision.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Decision domains keep the per-event hash streams independent so e.g.
/// enabling PMC dropout never perturbs migration-failure draws.
mod domain {
    pub const MIGRATION: u64 = 0x4D49_4752; // "MIGR"
    pub const PTE: u64 = 0x5054_4520; // "PTE "
    pub const PMC: u64 = 0x504D_4320; // "PMC "
    pub const TELEMETRY: u64 = 0x5445_4C45; // "TELE"
    pub const CHECKPOINT: u64 = 0x434B_5054; // "CKPT"
    pub const DEVICE: u64 = 0x4445_5649; // "DEVI"
}

/// Where inside a round a [`FaultKind::Crash`] strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashPoint {
    /// At the round boundary, before the round's first mutation (the
    /// process died between two task instances).
    BetweenRounds,
    /// Inside the round's migration batch, after this many page-migration
    /// attempts have been charged (the process died mid-`move_pages`).
    MidMigration {
        /// Attempts completed before the crash fires.
        after_attempts: u64,
    },
}

/// Wall-time multiplier applied to a round executed inside an open
/// [`FaultKind::TenantStall`] window. Big enough that any sane
/// stall-threshold (a small multiple of the tenant's normal round time)
/// detects it, small enough that clocks never overflow.
pub const STALL_MULT: f64 = 1024.0;

/// A scripted terminal or behavioural fault. Unlike the rate-based faults,
/// these are single scripted events keyed to a round:
///
/// * [`Crash`](Self::Crash) stops the run with
///   [`HmError::Crashed`](crate::system::HmError::Crashed) and is continued
///   via `Executor::resume` from the latest checkpoint.
/// * [`TenantPanic`](Self::TenantPanic) makes the tenant's job panic at the
///   round boundary — before any mutation — modelling a poisoned job that
///   dies inside the pool. The service supervisor contains it (DESIGN.md
///   §17); it never reaches `HmError`.
/// * [`TenantStall`](Self::TenantStall) inflates round wall time by
///   [`STALL_MULT`] for a window of rounds, modelling a hung dependency;
///   the supervisor's stall threshold converts it into breaker strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Kill the process at `point` of `round`.
    Crash {
        /// Round the crash strikes in.
        round: u64,
        /// Position within the round.
        point: CrashPoint,
    },
    /// Panic the tenant's job at the boundary before `round`, leaving the
    /// executor exactly at its pre-round state. Non-latching: until
    /// disarmed (recovery), every attempt to run `round` panics again.
    TenantPanic {
        /// Round whose boundary the panic strikes at.
        round: u64,
    },
    /// Stall rounds `round .. round + rounds`: each one's wall time is
    /// multiplied by [`STALL_MULT`]. *Not* disarmed by recovery — a hung
    /// dependency stays hung — so a stalled tenant re-strikes until its
    /// breaker gives up for good.
    TenantStall {
        /// First stalled round.
        round: u64,
        /// Length of the stall window in rounds.
        rounds: u64,
    },
}

/// Declarative description of the faults to inject into one run.
///
/// All rates are probabilities in `[0, 1]`. The default plan (and
/// [`FaultPlan::none`]) injects nothing, and the runtime skips every fault
/// hook in that case, keeping the no-fault fast path bit-identical to a
/// build without this module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for all fault decisions (independent of the workload seed).
    pub seed: u64,
    /// Probability that one migration *attempt* of one page fails.
    pub migration_fail_rate: f64,
    /// Retries after a failed attempt before the page is abandoned for
    /// the round (each attempt is charged as migration overhead).
    pub migration_max_retries: u32,
    /// Probability that a PTE-scan sample (accessed-bit read) is lost.
    pub pte_sample_dropout: f64,
    /// Probability that one PMC event counter of one task profile is lost.
    pub pmc_event_dropout: f64,
    /// DRAM bytes transiently claimed by a simulated co-tenant.
    pub dram_pressure_bytes: u64,
    /// Co-tenant duty cycle: pressure is applied on rounds `r` with
    /// `r % period < ceil(period / 2)`. `0` means constant pressure.
    pub pressure_period_rounds: u64,
    /// Probability that a finished telemetry bin is blacked out (zeroed).
    pub telemetry_blackout: f64,
    /// Probability that one checkpoint-WAL write attempt fails (retried
    /// with [`Backoff`](crate::backoff::Backoff); accounted in `WalStats`,
    /// never in [`FaultStats`], so a supervised run's report stays
    /// bit-identical to an unsupervised one).
    pub checkpoint_write_fail_rate: f64,
    /// Probability per round that an uncorrectable ECC error poisons one
    /// DRAM-resident frame. The victim page is quarantined (permanently
    /// pinned off DRAM), a repair cost is charged, and the dead frame
    /// shrinks physical DRAM capacity by one page.
    pub page_poison_rate: f64,
    /// Tier whose device degrades during degradation windows.
    pub degrade_tier: Tier,
    /// Degradation duty cycle: the window is open on rounds `r` with
    /// `r % period < ceil(period / 2)`. `0` means degraded for the whole
    /// run. Only meaningful when a multiplier is non-trivial.
    pub degrade_period_rounds: u64,
    /// Latency multiplier applied to `degrade_tier` inside a window (≥ 1).
    pub degrade_lat_mult: f64,
    /// Bandwidth multiplier applied to `degrade_tier` inside a window
    /// (in `(0, 1]`).
    pub degrade_bw_mult: f64,
    /// Round at which DRAM capacity offlining strikes (a DIMM/rank dies).
    /// Only meaningful when `offline_bytes > 0`.
    pub offline_round: u64,
    /// DRAM bytes permanently offlined at `offline_round`.
    pub offline_bytes: u64,
    /// Scripted terminal fault, if any (see [`FaultKind`]).
    pub crash: Option<FaultKind>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The empty plan: nothing fails, nothing is dropped.
    pub fn none() -> Self {
        Self {
            seed: 0,
            migration_fail_rate: 0.0,
            migration_max_retries: 2,
            pte_sample_dropout: 0.0,
            pmc_event_dropout: 0.0,
            dram_pressure_bytes: 0,
            pressure_period_rounds: 0,
            telemetry_blackout: 0.0,
            checkpoint_write_fail_rate: 0.0,
            page_poison_rate: 0.0,
            degrade_tier: Tier::Pm,
            degrade_period_rounds: 0,
            degrade_lat_mult: 1.0,
            degrade_bw_mult: 1.0,
            offline_round: 0,
            offline_bytes: 0,
            crash: None,
        }
    }

    /// True when the plan injects no fault at all.
    pub fn is_none(&self) -> bool {
        self.migration_fail_rate == 0.0
            && self.pte_sample_dropout == 0.0
            && self.pmc_event_dropout == 0.0
            && self.dram_pressure_bytes == 0
            && self.telemetry_blackout == 0.0
            && self.checkpoint_write_fail_rate == 0.0
            && self.page_poison_rate == 0.0
            && !self.degradation_enabled()
            && self.offline_bytes == 0
            && self.crash.is_none()
    }

    /// True when a degradation window would change tier parameters at all.
    pub fn degradation_enabled(&self) -> bool {
        self.degrade_lat_mult != 1.0 || self.degrade_bw_mult != 1.0
    }

    /// Set the fault seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Fail each migration attempt with probability `rate`, retrying up to
    /// `retries` times per page.
    pub fn with_migration_failures(mut self, rate: f64, retries: u32) -> Self {
        self.migration_fail_rate = rate;
        self.migration_max_retries = retries;
        self
    }

    /// Drop PTE-scan samples and PMC event counters with the given
    /// probabilities.
    pub fn with_sample_dropout(mut self, pte: f64, pmc: f64) -> Self {
        self.pte_sample_dropout = pte;
        self.pmc_event_dropout = pmc;
        self
    }

    /// Apply `bytes` of co-tenant DRAM pressure with duty period `period`
    /// (rounds; `0` = constant).
    pub fn with_dram_pressure(mut self, bytes: u64, period: u64) -> Self {
        self.dram_pressure_bytes = bytes;
        self.pressure_period_rounds = period;
        self
    }

    /// Black out finished telemetry bins with probability `rate`.
    pub fn with_telemetry_blackout(mut self, rate: f64) -> Self {
        self.telemetry_blackout = rate;
        self
    }

    /// Fail each checkpoint-WAL write attempt with probability `rate`.
    pub fn with_checkpoint_write_failures(mut self, rate: f64) -> Self {
        self.checkpoint_write_fail_rate = rate;
        self
    }

    /// Poison one DRAM-resident frame per round with probability `rate`.
    pub fn with_page_poison(mut self, rate: f64) -> Self {
        self.page_poison_rate = rate;
        self
    }

    /// Degrade `tier` by `lat_mult`× latency and `bw_mult`× bandwidth on a
    /// duty cycle of `period` rounds (`0` = degraded for the whole run).
    pub fn with_degradation(
        mut self,
        tier: Tier,
        period: u64,
        lat_mult: f64,
        bw_mult: f64,
    ) -> Self {
        self.degrade_tier = tier;
        self.degrade_period_rounds = period;
        self.degrade_lat_mult = lat_mult;
        self.degrade_bw_mult = bw_mult;
        self
    }

    /// Permanently offline `bytes` of DRAM at the start of `round`.
    pub fn with_dram_offlining(mut self, round: u64, bytes: u64) -> Self {
        self.offline_round = round;
        self.offline_bytes = bytes;
        self
    }

    /// Arm a scripted fault (see [`FaultKind`]).
    pub fn with_fault(mut self, kind: FaultKind) -> Self {
        self.crash = Some(kind);
        self
    }

    /// Panic the tenant's job at the boundary before `round` (shorthand
    /// for [`with_fault`](Self::with_fault) with
    /// [`FaultKind::TenantPanic`]).
    pub fn with_tenant_panic(self, round: u64) -> Self {
        self.with_fault(FaultKind::TenantPanic { round })
    }

    /// Stall rounds `round .. round + rounds` by [`STALL_MULT`]×
    /// (shorthand for [`with_fault`](Self::with_fault) with
    /// [`FaultKind::TenantStall`]).
    pub fn with_tenant_stall(self, round: u64, rounds: u64) -> Self {
        self.with_fault(FaultKind::TenantStall { round, rounds })
    }

    /// Check that every rate is a probability and the plan is physically
    /// meaningful.
    pub fn validate(&self) -> Result<(), HmError> {
        for (name, rate) in [
            ("migration_fail_rate", self.migration_fail_rate),
            ("pte_sample_dropout", self.pte_sample_dropout),
            ("pmc_event_dropout", self.pmc_event_dropout),
            ("telemetry_blackout", self.telemetry_blackout),
            (
                "checkpoint_write_fail_rate",
                self.checkpoint_write_fail_rate,
            ),
            ("page_poison_rate", self.page_poison_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
                return Err(HmError::InvalidConfig(format!(
                    "fault plan: {name} = {rate} is not a probability"
                )));
            }
        }
        if !(self.degrade_lat_mult >= 1.0 && self.degrade_lat_mult.is_finite()) {
            return Err(HmError::InvalidConfig(format!(
                "fault plan: degrade_lat_mult = {} must be a finite multiplier >= 1",
                self.degrade_lat_mult
            )));
        }
        if !(self.degrade_bw_mult > 0.0 && self.degrade_bw_mult <= 1.0) {
            return Err(HmError::InvalidConfig(format!(
                "fault plan: degrade_bw_mult = {} must be in (0, 1]",
                self.degrade_bw_mult
            )));
        }
        Ok(())
    }
}

/// Counters of the faults actually injected (and survived) so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Migration attempts that were failed by injection.
    pub migration_retries: u64,
    /// Pages abandoned after exhausting the retry budget.
    pub failed_pages: u64,
    /// PTE-scan samples lost.
    pub dropped_pte_samples: u64,
    /// PMC event counters lost.
    pub dropped_pmc_events: u64,
    /// Telemetry bins zeroed.
    pub blacked_out_bins: u64,
    /// DRAM pages evicted to make room for co-tenant pressure.
    pub pressure_evictions: u64,
    /// DRAM frames poisoned by ECC-UE strikes (and quarantined).
    pub pages_poisoned: u64,
    /// Rounds executed inside an open degradation window.
    pub degraded_window_rounds: u64,
    /// DRAM bytes permanently offlined so far.
    pub offlined_bytes: u64,
    /// Scripted tenant panics fired (each one left the executor at its
    /// pre-round boundary state).
    pub tenant_panics: u64,
    /// Rounds executed inside an open tenant-stall window.
    pub stalled_rounds: u64,
}

/// Fault accounting carried by a `RunReport`: the injector's counters plus
/// how the policy coped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSummary {
    /// Total migration attempts (equals pages moved when nothing fails).
    pub migration_attempts: u64,
    /// Attempts failed by injection and retried.
    pub migration_retries: u64,
    /// Pages abandoned after exhausting retries.
    pub failed_pages: u64,
    /// PTE-scan samples lost.
    pub dropped_pte_samples: u64,
    /// PMC event counters lost.
    pub dropped_pmc_events: u64,
    /// Telemetry bins zeroed.
    pub blacked_out_bins: u64,
    /// DRAM pages evicted for co-tenant pressure.
    pub pressure_evictions: u64,
    /// Rounds the policy ran in a degraded mode (fallback placement).
    pub degraded_rounds: u64,
    /// DRAM frames poisoned and quarantined.
    pub pages_poisoned: u64,
    /// Rounds executed inside an open device-degradation window.
    pub degraded_window_rounds: u64,
    /// DRAM bytes permanently offlined.
    pub offlined_bytes: u64,
    /// Scripted tenant panics fired.
    pub tenant_panics: u64,
    /// Rounds executed inside an open tenant-stall window.
    pub stalled_rounds: u64,
}

/// Stateful injector owned by the `HmSystem`. Holds the plan, the current
/// round, and running [`FaultStats`]. Every decision method is
/// deterministic in (plan seed, event identity); the only mutable state is
/// the statistics and a per-round PTE draw counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultInjector {
    plan: FaultPlan,
    round: u64,
    pte_draws: u64,
    /// Page-migration attempts charged this round (drives
    /// [`CrashPoint::MidMigration`]).
    migration_calls: u64,
    /// The scripted crash has fired; the system is dead until resumed.
    crashed: bool,
    stats: FaultStats,
}

impl FaultInjector {
    /// Injector for `plan` (validate first: see [`FaultPlan::validate`]).
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            round: 0,
            pte_draws: 0,
            migration_calls: 0,
            crashed: false,
            stats: FaultStats::default(),
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Enter `round`: resets the per-round PTE draw counter so replays are
    /// independent of how many rounds ran before.
    pub fn begin_round(&mut self, round: u64) {
        self.round = round;
        self.pte_draws = 0;
        self.migration_calls = 0;
    }

    /// The round the injector's clock currently sits in.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Has the scripted crash fired? A crashed system makes no further
    /// progress; its post-crash state is discarded and recovery replays
    /// from the latest checkpoint.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Disarm the scripted one-shot faults (recovery: the resumed process
    /// must not die at the same point again). [`FaultKind::TenantStall`]
    /// stays armed — a hung dependency is not fixed by restarting the
    /// victim — which is what lets the supervisor distinguish a
    /// recoverable panic from a persistently failing tenant.
    pub fn disarm_crash(&mut self) {
        if !matches!(self.plan.crash, Some(FaultKind::TenantStall { .. })) {
            self.plan.crash = None;
        }
        self.crashed = false;
    }

    /// Does the scripted crash fire at the boundary before `round`?
    /// One-shot: fires at most once, then latches [`crashed`](Self::crashed).
    pub fn crash_at_round_start(&mut self, round: u64) -> bool {
        if self.crashed {
            return true;
        }
        if let Some(FaultKind::Crash {
            round: r,
            point: CrashPoint::BetweenRounds,
        }) = self.plan.crash
        {
            if r == round {
                self.crashed = true;
                return true;
            }
        }
        false
    }

    /// Does the scripted crash fire before the next page-migration attempt
    /// of the current round? Counts attempts as a side effect.
    pub fn crash_before_migration_attempt(&mut self) -> bool {
        if self.crashed {
            return true;
        }
        let done = self.migration_calls;
        self.migration_calls += 1;
        if let Some(FaultKind::Crash {
            round: r,
            point: CrashPoint::MidMigration { after_attempts },
        }) = self.plan.crash
        {
            if r == self.round && done >= after_attempts {
                self.crashed = true;
                return true;
            }
        }
        false
    }

    /// Is a scripted [`FaultKind::TenantPanic`] due at the boundary before
    /// `round`? Pure and non-latching: the caller panics before mutating
    /// anything, and until [`disarm_crash`](Self::disarm_crash) clears the
    /// plan every retry of `round` panics again (strikes accumulate in the
    /// supervisor's breaker, not here).
    pub fn panic_due(&self, round: u64) -> bool {
        matches!(self.plan.crash, Some(FaultKind::TenantPanic { round: r }) if r == round)
    }

    /// Record a scripted tenant panic about to fire (the executor's only
    /// pre-panic mutation; deterministic, so checkpoints taken after K
    /// strikes replay bit-identically).
    pub fn note_tenant_panic(&mut self) {
        self.stats.tenant_panics += 1;
    }

    /// Wall-time multiplier for `round` under an open
    /// [`FaultKind::TenantStall`] window ([`STALL_MULT`], else 1). Pure in
    /// (plan, round).
    pub fn stall_multiplier(&self, round: u64) -> f64 {
        match self.plan.crash {
            Some(FaultKind::TenantStall { round: r, rounds })
                if round >= r && round < r + rounds =>
            {
                STALL_MULT
            }
            _ => 1.0,
        }
    }

    /// Record a round executed inside an open tenant-stall window.
    pub fn note_stalled_round(&mut self) {
        self.stats.stalled_rounds += 1;
    }

    /// Does WAL-write attempt `attempt` of checkpoint record `record`
    /// fail? Pure in (plan seed, record, attempt); deliberately not
    /// recorded in [`FaultStats`] — checkpointing is supervision overhead,
    /// and its accounting (in `WalStats`) must not perturb the run report.
    pub fn checkpoint_write_fails(&self, record: u64, attempt: u32) -> bool {
        self.chance(
            self.plan.checkpoint_write_fail_rate,
            domain::CHECKPOINT,
            record,
            attempt as u64,
        )
    }

    /// Deterministic Bernoulli draw keyed on (seed, domain, a, b).
    fn chance(&self, p: f64, dom: u64, a: u64, b: u64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let h = mix64(self.plan.seed ^ mix64(dom ^ mix64(a) ^ a.rotate_left(17) ^ b));
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Does this migration attempt of `page` fail? Records the retry /
    /// abandoned-page statistics as a side effect.
    pub fn migration_attempt_fails(&mut self, page: PageId, attempt: u32) -> bool {
        let fails = self.chance(
            self.plan.migration_fail_rate,
            domain::MIGRATION,
            page,
            (self.round << 8) | attempt as u64,
        );
        if fails {
            self.stats.migration_retries += 1;
        }
        fails
    }

    /// Retry budget per page.
    pub fn max_retries(&self) -> u32 {
        self.plan.migration_max_retries
    }

    /// Record a page abandoned after exhausting its retry budget.
    pub fn note_failed_page(&mut self) {
        self.stats.failed_pages += 1;
    }

    /// Is the next PTE-scan sample lost? Draws are numbered per round, so
    /// a scan issued at the same point of the same round always sees the
    /// same answer.
    pub fn drop_pte_sample(&mut self) -> bool {
        let n = self.pte_draws;
        self.pte_draws += 1;
        let dropped = self.chance(self.plan.pte_sample_dropout, domain::PTE, self.round, n);
        if dropped {
            self.stats.dropped_pte_samples += 1;
        }
        dropped
    }

    /// Is PMC event `event` of `task`'s profile lost this round?
    pub fn drop_pmc_event(&mut self, task: usize, event: usize) -> bool {
        let dropped = self.chance(
            self.plan.pmc_event_dropout,
            domain::PMC,
            ((task as u64) << 16) ^ self.round,
            event as u64,
        );
        if dropped {
            self.stats.dropped_pmc_events += 1;
        }
        dropped
    }

    /// Is telemetry bin `bin` blacked out?
    pub fn blackout_bin(&mut self, bin: usize) -> bool {
        let out = self.chance(
            self.plan.telemetry_blackout,
            domain::TELEMETRY,
            bin as u64,
            0,
        );
        if out {
            self.stats.blacked_out_bins += 1;
        }
        out
    }

    /// DRAM bytes the simulated co-tenant claims during the current round.
    pub fn current_pressure(&self) -> u64 {
        if self.plan.dram_pressure_bytes == 0 {
            return 0;
        }
        let period = self.plan.pressure_period_rounds;
        if period == 0 || self.round % period < period.div_ceil(2) {
            self.plan.dram_pressure_bytes
        } else {
            0
        }
    }

    /// Record DRAM pages evicted to honour co-tenant pressure.
    pub fn note_pressure_evictions(&mut self, pages: u64) {
        self.stats.pressure_evictions += pages;
    }

    /// Does an ECC-UE strike poison a DRAM frame in `round`? Pure in
    /// (plan seed, round); at most one strike per round.
    pub fn poison_strikes(&self, round: u64) -> bool {
        self.chance(self.plan.page_poison_rate, domain::DEVICE, round, 0)
    }

    /// Which of the `resident` DRAM-resident pages (in page-id order) the
    /// strike hits. Pure in (plan seed, round, resident).
    pub fn poison_victim_index(&self, round: u64, resident: u64) -> u64 {
        debug_assert!(resident > 0);
        mix64(self.plan.seed ^ mix64(domain::DEVICE ^ mix64(round) ^ 0x5649_4354)) % resident
    }

    /// Record a frame poisoned and quarantined.
    pub fn note_poisoned_page(&mut self) {
        self.stats.pages_poisoned += 1;
    }

    /// The device degradation active in `round`, if any: `(tier,
    /// latency multiplier, bandwidth multiplier)`. Pure in (plan, round) —
    /// never stateful, so crash-resume replays windows bit-identically.
    pub fn current_degradation(&self, round: u64) -> Option<(Tier, f64, f64)> {
        if !self.plan.degradation_enabled() {
            return None;
        }
        let period = self.plan.degrade_period_rounds;
        if period == 0 || round % period < period.div_ceil(2) {
            Some((
                self.plan.degrade_tier,
                self.plan.degrade_lat_mult,
                self.plan.degrade_bw_mult,
            ))
        } else {
            None
        }
    }

    /// Record a round executed inside an open degradation window.
    pub fn note_window_round(&mut self) {
        self.stats.degraded_window_rounds += 1;
    }

    /// DRAM bytes that must be offline once `round` has begun. Monotone in
    /// `round` (offlining is permanent), so the caller applies the
    /// difference against what it already offlined — idempotent across
    /// checkpoint/resume.
    pub fn offline_due(&self, round: u64) -> u64 {
        if self.plan.offline_bytes > 0 && round >= self.plan.offline_round {
            self.plan.offline_bytes
        } else {
            0
        }
    }

    /// Record DRAM bytes newly offlined.
    pub fn note_offlined(&mut self, bytes: u64) {
        self.stats.offlined_bytes += bytes;
    }

    /// Serialize the injector for a checkpoint: the plan, the round clock,
    /// the per-round draw cursors, the crash latch, and the statistics.
    pub fn encode_state(&self, out: &mut String) {
        use std::fmt::Write as _;
        let p = &self.plan;
        let crash = match p.crash {
            None => "none".to_string(),
            Some(FaultKind::Crash {
                round,
                point: CrashPoint::BetweenRounds,
            }) => format!("boundary {round}"),
            Some(FaultKind::Crash {
                round,
                point: CrashPoint::MidMigration { after_attempts },
            }) => format!("midmig {round} {after_attempts}"),
            Some(FaultKind::TenantPanic { round }) => format!("panic {round}"),
            Some(FaultKind::TenantStall { round, rounds }) => format!("stall {round} {rounds}"),
        };
        writeln!(
            out,
            "faultplan {} {:?} {} {:?} {:?} {} {} {:?} {:?} {:?} {} {} {:?} {:?} {} {} {crash}",
            p.seed,
            p.migration_fail_rate,
            p.migration_max_retries,
            p.pte_sample_dropout,
            p.pmc_event_dropout,
            p.dram_pressure_bytes,
            p.pressure_period_rounds,
            p.telemetry_blackout,
            p.checkpoint_write_fail_rate,
            p.page_poison_rate,
            match p.degrade_tier {
                Tier::Dram => "D",
                Tier::Pm => "P",
            },
            p.degrade_period_rounds,
            p.degrade_lat_mult,
            p.degrade_bw_mult,
            p.offline_round,
            p.offline_bytes,
        )
        .expect("writing to String cannot fail");
        writeln!(
            out,
            "faultstate {} {} {} {}",
            self.round, self.pte_draws, self.migration_calls, self.crashed as u8
        )
        .expect("writing to String cannot fail");
        let s = &self.stats;
        writeln!(
            out,
            "faultstats {} {} {} {} {} {} {} {} {} {} {}",
            s.migration_retries,
            s.failed_pages,
            s.dropped_pte_samples,
            s.dropped_pmc_events,
            s.blacked_out_bins,
            s.pressure_evictions,
            s.pages_poisoned,
            s.degraded_window_rounds,
            s.offlined_bytes,
            s.tenant_panics,
            s.stalled_rounds
        )
        .expect("writing to String cannot fail");
    }

    /// Restore an injector serialized by [`encode_state`](Self::encode_state).
    pub fn decode_state(r: &mut crate::checkpoint::Reader<'_>) -> Result<Self, HmError> {
        use crate::checkpoint::{corrupt, p_bool, p_f64, p_u32, p_u64};
        let t = r.line("faultplan", 16)?;
        let crash = match &t[16..] {
            ["none"] => None,
            ["boundary", round] => Some(FaultKind::Crash {
                round: p_u64(round)?,
                point: CrashPoint::BetweenRounds,
            }),
            ["midmig", round, after] => Some(FaultKind::Crash {
                round: p_u64(round)?,
                point: CrashPoint::MidMigration {
                    after_attempts: p_u64(after)?,
                },
            }),
            ["panic", round] => Some(FaultKind::TenantPanic {
                round: p_u64(round)?,
            }),
            ["stall", round, rounds] => Some(FaultKind::TenantStall {
                round: p_u64(round)?,
                rounds: p_u64(rounds)?,
            }),
            _ => return Err(corrupt("bad crash spec in faultplan")),
        };
        let degrade_tier = match t[10] {
            "D" => Tier::Dram,
            "P" => Tier::Pm,
            other => return Err(corrupt(&format!("bad degrade tier {other:?} in faultplan"))),
        };
        let plan = FaultPlan {
            seed: p_u64(t[0])?,
            migration_fail_rate: p_f64(t[1])?,
            migration_max_retries: p_u32(t[2])?,
            pte_sample_dropout: p_f64(t[3])?,
            pmc_event_dropout: p_f64(t[4])?,
            dram_pressure_bytes: p_u64(t[5])?,
            pressure_period_rounds: p_u64(t[6])?,
            telemetry_blackout: p_f64(t[7])?,
            checkpoint_write_fail_rate: p_f64(t[8])?,
            page_poison_rate: p_f64(t[9])?,
            degrade_tier,
            degrade_period_rounds: p_u64(t[11])?,
            degrade_lat_mult: p_f64(t[12])?,
            degrade_bw_mult: p_f64(t[13])?,
            offline_round: p_u64(t[14])?,
            offline_bytes: p_u64(t[15])?,
            crash,
        };
        plan.validate()?;
        let t = r.line("faultstate", 4)?;
        let (round, pte_draws, migration_calls, crashed) =
            (p_u64(t[0])?, p_u64(t[1])?, p_u64(t[2])?, p_bool(t[3])?);
        let t = r.line("faultstats", 11)?;
        let stats = FaultStats {
            migration_retries: p_u64(t[0])?,
            failed_pages: p_u64(t[1])?,
            dropped_pte_samples: p_u64(t[2])?,
            dropped_pmc_events: p_u64(t[3])?,
            blacked_out_bins: p_u64(t[4])?,
            pressure_evictions: p_u64(t[5])?,
            pages_poisoned: p_u64(t[6])?,
            degraded_window_rounds: p_u64(t[7])?,
            offlined_bytes: p_u64(t[8])?,
            tenant_panics: p_u64(t[9])?,
            stalled_rounds: p_u64(t[10])?,
        };
        Ok(Self {
            plan,
            round,
            pte_draws,
            migration_calls,
            crashed,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        plan.validate().unwrap();
        let mut inj = FaultInjector::new(plan);
        inj.begin_round(3);
        assert!(!inj.migration_attempt_fails(7, 0));
        assert!(!inj.drop_pte_sample());
        assert!(!inj.drop_pmc_event(0, 5));
        assert!(!inj.blackout_bin(9));
        assert_eq!(inj.current_pressure(), 0);
        assert!(!inj.poison_strikes(3));
        assert_eq!(inj.current_degradation(3), None);
        assert_eq!(inj.offline_due(3), 0);
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn decisions_replay_bit_identically() {
        let plan = FaultPlan::none()
            .with_seed(99)
            .with_migration_failures(0.3, 2)
            .with_sample_dropout(0.2, 0.25)
            .with_telemetry_blackout(0.15);
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        for round in 0..5 {
            a.begin_round(round);
            b.begin_round(round);
            for page in 0..50u64 {
                for attempt in 0..3 {
                    assert_eq!(
                        a.migration_attempt_fails(page, attempt),
                        b.migration_attempt_fails(page, attempt)
                    );
                }
            }
            for _ in 0..100 {
                assert_eq!(a.drop_pte_sample(), b.drop_pte_sample());
            }
            for task in 0..4 {
                for ev in 0..14 {
                    assert_eq!(a.drop_pmc_event(task, ev), b.drop_pmc_event(task, ev));
                }
            }
            for bin in 0..20 {
                assert_eq!(a.blackout_bin(bin), b.blackout_bin(bin));
            }
        }
        assert_eq!(a.stats(), b.stats());
        // And the rates actually bite somewhere.
        assert!(a.stats().migration_retries > 0);
        assert!(a.stats().dropped_pte_samples > 0);
        assert!(a.stats().dropped_pmc_events > 0);
        assert!(a.stats().blacked_out_bins > 0);
    }

    #[test]
    fn pressure_duty_cycle() {
        let constant = FaultInjector::new(FaultPlan::none().with_dram_pressure(4096, 0));
        assert_eq!(constant.current_pressure(), 4096);
        let mut duty = FaultInjector::new(FaultPlan::none().with_dram_pressure(4096, 4));
        let on: Vec<bool> = (0..8)
            .map(|r| {
                duty.begin_round(r);
                duty.current_pressure() > 0
            })
            .collect();
        // period 4 => pressure on rounds 0,1 and off rounds 2,3 of each cycle.
        assert_eq!(on, vec![true, true, false, false, true, true, false, false]);
    }

    #[test]
    fn validate_rejects_bad_rates() {
        let bad = FaultPlan::none().with_sample_dropout(1.5, 0.0);
        assert!(matches!(bad.validate(), Err(HmError::InvalidConfig(_))));
        let nan = FaultPlan::none().with_telemetry_blackout(f64::NAN);
        assert!(nan.validate().is_err());
        let speedup = FaultPlan::none().with_degradation(Tier::Pm, 0, 0.5, 1.0);
        assert!(speedup.validate().is_err());
        let zero_bw = FaultPlan::none().with_degradation(Tier::Pm, 0, 1.0, 0.0);
        assert!(zero_bw.validate().is_err());
        let poison = FaultPlan::none().with_page_poison(2.0);
        assert!(poison.validate().is_err());
    }

    #[test]
    fn degradation_window_duty_cycle() {
        let plan = FaultPlan::none().with_degradation(Tier::Dram, 4, 1.5, 0.75);
        assert!(!plan.is_none());
        plan.validate().unwrap();
        let inj = FaultInjector::new(plan);
        let open: Vec<bool> = (0..8)
            .map(|r| inj.current_degradation(r).is_some())
            .collect();
        assert_eq!(
            open,
            vec![true, true, false, false, true, true, false, false]
        );
        assert_eq!(inj.current_degradation(0), Some((Tier::Dram, 1.5, 0.75)));
        // Constant degradation: period 0 keeps the window open forever.
        let constant =
            FaultInjector::new(FaultPlan::none().with_degradation(Tier::Pm, 0, 2.0, 0.5));
        assert!((0..16).all(|r| constant.current_degradation(r).is_some()));
    }

    #[test]
    fn poison_and_offline_draws_are_deterministic() {
        let plan = FaultPlan::none()
            .with_seed(7)
            .with_page_poison(0.5)
            .with_dram_offlining(3, 1 << 20);
        plan.validate().unwrap();
        assert!(!plan.is_none());
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        let mut strikes = 0;
        for r in 0..64 {
            assert_eq!(a.poison_strikes(r), b.poison_strikes(r));
            if a.poison_strikes(r) {
                strikes += 1;
                assert_eq!(a.poison_victim_index(r, 37), b.poison_victim_index(r, 37));
                assert!(a.poison_victim_index(r, 37) < 37);
            }
        }
        assert!(strikes > 10, "poison rate 0.5 hit only {strikes}/64 rounds");
        assert_eq!(a.offline_due(2), 0);
        assert_eq!(a.offline_due(3), 1 << 20);
        assert_eq!(a.offline_due(60), 1 << 20);
    }

    #[test]
    fn tenant_panic_is_pure_and_disarmable() {
        let plan = FaultPlan::none().with_tenant_panic(2);
        assert!(!plan.is_none());
        plan.validate().unwrap();
        let mut inj = FaultInjector::new(plan);
        // Non-latching: repeated probes of the same round all fire, other
        // rounds never do, and nothing mutates.
        assert!(!inj.panic_due(1));
        assert!(inj.panic_due(2));
        assert!(inj.panic_due(2));
        assert!(!inj.panic_due(3));
        assert!(!inj.crashed());
        inj.note_tenant_panic();
        assert_eq!(inj.stats().tenant_panics, 1);
        // Recovery disarms the panic like a crash.
        inj.disarm_crash();
        assert!(!inj.panic_due(2));
    }

    #[test]
    fn tenant_stall_window_survives_disarm() {
        let plan = FaultPlan::none().with_tenant_stall(3, 2);
        assert!(!plan.is_none());
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.stall_multiplier(2), 1.0);
        assert_eq!(inj.stall_multiplier(3), STALL_MULT);
        assert_eq!(inj.stall_multiplier(4), STALL_MULT);
        assert_eq!(inj.stall_multiplier(5), 1.0);
        // A stall models a hung dependency: recovery does NOT clear it.
        inj.disarm_crash();
        assert_eq!(inj.stall_multiplier(3), STALL_MULT);
        inj.note_stalled_round();
        assert_eq!(inj.stats().stalled_rounds, 1);
    }

    #[test]
    fn tenant_fault_state_roundtrips() {
        for plan in [
            FaultPlan::none().with_seed(11).with_tenant_panic(4),
            FaultPlan::none().with_seed(12).with_tenant_stall(1, 3),
        ] {
            let mut inj = FaultInjector::new(plan);
            inj.begin_round(2);
            inj.note_tenant_panic();
            inj.note_stalled_round();
            let mut text = String::new();
            inj.encode_state(&mut text);
            let mut r = crate::checkpoint::Reader::new(&text);
            let back = FaultInjector::decode_state(&mut r).unwrap();
            assert_eq!(back, inj);
            let mut text2 = String::new();
            back.encode_state(&mut text2);
            assert_eq!(text2, text);
        }
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let mut inj =
            FaultInjector::new(FaultPlan::none().with_seed(5).with_sample_dropout(0.2, 0.0));
        inj.begin_round(0);
        let dropped = (0..10_000).filter(|_| inj.drop_pte_sample()).count();
        let rate = dropped as f64 / 10_000.0;
        assert!((rate - 0.2).abs() < 0.03, "observed dropout {rate}");
    }
}
