//! The task-parallel runtime: placement policies and the round executor.
//!
//! The executor runs an application round by round (task instance by task
//! instance). Within a round every task executes in parallel on real worker
//! threads and the round ends at the synchronisation barrier — so the round
//! time is the *slowest* task's time plus migration overhead, which is
//! exactly the quantity the paper's load-balance argument is about ("the
//! overall performance is hindered by the slowest task", §1).

use serde::{Deserialize, Serialize};

use crate::config::{HmConfig, Tier};
use crate::cost::{migration_time_ns, task_cost, PhaseCost, PlacementView};
use crate::object::ObjectId;
use crate::system::HmSystem;
use crate::telemetry::BandwidthTimeline;
use crate::trace::{ObjectAccess, TaskWork};
use crate::workload::Workload;

/// A data-placement policy driving the emulated HM during a run.
///
/// Software policies (MemoryOptimizer, Merchandiser) migrate pages through
/// [`HmSystem`]; the hardware policy (Memory Mode) instead overrides the
/// effective DRAM fraction per access with its cache model.
pub trait PlacementPolicy: Send {
    /// Policy name for reports.
    fn name(&self) -> String;

    /// One-time hook after objects are allocated: set the initial placement.
    /// Default: leave everything where the executor allocated it (PM).
    fn on_allocate(&mut self, sys: &mut HmSystem) {
        let _ = sys;
    }

    /// Hook before each round, after logical sizes are updated and the
    /// round's [`TaskWork`] is known. Page migrations performed here are
    /// charged as round overhead.
    fn before_round(&mut self, sys: &mut HmSystem, round: usize, works: &[TaskWork]) {
        let _ = (sys, round, works);
    }

    /// Hook after each round with the observed report (profiling counters
    /// are still live at this point). Migrations here are charged to the
    /// *next* round's start.
    fn after_round(&mut self, sys: &mut HmSystem, round: usize, report: &RoundReport) {
        let _ = (sys, round, report);
    }

    /// Override the effective DRAM fraction for one access stream
    /// (hardware-managed caching). `None` = use the page table placement.
    fn dram_fraction_override(&self, sys: &HmSystem, access: &ObjectAccess) -> Option<f64> {
        let _ = (sys, access);
        None
    }

    /// Did the policy run its *last* round in a degraded mode (fallback
    /// placement because profiles or samples were missing)? Recorded per
    /// round in [`RoundReport::degraded`].
    fn degraded(&self) -> bool {
        false
    }

    /// Serialize the policy's state for a checkpoint (quotas, refined α
    /// values, degradation level, ...). The blob is opaque to the WAL and
    /// fed back through [`restore_state`](Self::restore_state) on resume.
    /// Default: empty (stateless policy).
    fn save_state(&self) -> String {
        String::new()
    }

    /// Restore state written by [`save_state`](Self::save_state). Default:
    /// accept anything (stateless policy).
    fn restore_state(&mut self, blob: &str) -> Result<(), crate::system::HmError> {
        let _ = blob;
        Ok(())
    }

    /// Per-task predicted times for the round just planned (the §5
    /// `T_hybrid` predictions), indexed by task id — the straggler
    /// watchdog's deadlines. `None` disables the watchdog for the round
    /// (no prediction available: round 0, degraded mode, ...).
    fn round_deadlines_ns(&self, round: usize) -> Option<Vec<f64>> {
        let _ = round;
        None
    }

    /// A task overran its predicted deadline mid-round. The policy may
    /// re-run its placement algorithm restricted to the straggler's
    /// objects (emergency re-planning) and migrate pages; return `true`
    /// when it changed placement so the executor re-costs the remainder of
    /// the straggler. Return `false` to let the round finish as observed
    /// (e.g. hysteresis escalated to the degradation ladder instead).
    fn on_straggler(
        &mut self,
        sys: &mut HmSystem,
        round: usize,
        task: usize,
        observed_ns: f64,
        deadline_ns: f64,
    ) -> bool {
        let _ = (sys, round, task, observed_ns, deadline_ns);
        false
    }
}

impl<P: PlacementPolicy + ?Sized> PlacementPolicy for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn on_allocate(&mut self, sys: &mut HmSystem) {
        (**self).on_allocate(sys)
    }
    fn before_round(&mut self, sys: &mut HmSystem, round: usize, works: &[TaskWork]) {
        (**self).before_round(sys, round, works)
    }
    fn after_round(&mut self, sys: &mut HmSystem, round: usize, report: &RoundReport) {
        (**self).after_round(sys, round, report)
    }
    fn dram_fraction_override(&self, sys: &HmSystem, access: &ObjectAccess) -> Option<f64> {
        (**self).dram_fraction_override(sys, access)
    }
    fn degraded(&self) -> bool {
        (**self).degraded()
    }
    fn save_state(&self) -> String {
        (**self).save_state()
    }
    fn restore_state(&mut self, blob: &str) -> Result<(), crate::system::HmError> {
        (**self).restore_state(blob)
    }
    fn round_deadlines_ns(&self, round: usize) -> Option<Vec<f64>> {
        (**self).round_deadlines_ns(round)
    }
    fn on_straggler(
        &mut self,
        sys: &mut HmSystem,
        round: usize,
        task: usize,
        observed_ns: f64,
        deadline_ns: f64,
    ) -> bool {
        (**self).on_straggler(sys, round, task, observed_ns, deadline_ns)
    }
}

/// The trivial policy: everything stays on the tier chosen at allocation.
#[derive(Debug, Clone)]
pub struct StaticPolicy {
    /// Tier every page is placed on at start.
    pub tier: Tier,
}

impl PlacementPolicy for StaticPolicy {
    fn name(&self) -> String {
        match self.tier {
            Tier::Pm => "PM-only".to_string(),
            Tier::Dram => "DRAM-only".to_string(),
        }
    }
    fn on_allocate(&mut self, sys: &mut HmSystem) {
        sys.place_everything(self.tier);
    }
}

/// Result of one task in one round.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskResult {
    /// Task index.
    pub task: usize,
    /// Simulated execution time, ns.
    pub time_ns: f64,
    /// Cost breakdown.
    pub cost: PhaseCost,
}

/// Result of one round (one task instance per task).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoundReport {
    /// Round index.
    pub round: usize,
    /// Per-task results.
    pub tasks: Vec<TaskResult>,
    /// Pages migrated by the policy for this round.
    pub migration_pages: u64,
    /// Migration *attempts* for this round, including retries of failed
    /// attempts. Equals `migration_pages` when no faults are injected;
    /// overhead is charged per attempt so retries cost wall time.
    pub migration_attempts: u64,
    /// Pages whose migration was abandoned after exhausting retries.
    pub failed_pages: u64,
    /// Did the policy place this round in a degraded (fallback) mode?
    pub degraded: bool,
    /// Straggler-watchdog firings this round (0 or 1: the watchdog
    /// corrects the single worst overrun per round).
    pub straggler_events: u64,
    /// Page-migration attempts spent by the watchdog's emergency
    /// re-planning (charged to the straggler's corrected time, not to
    /// `migration_ns`).
    pub watchdog_pages: u64,
    /// Migration epochs committed in this round (0 or 1: one epoch wraps
    /// the round's `before_round` migration batch).
    pub epoch_commits: u64,
    /// Migration epochs rolled back in this round (0 or 1).
    pub epoch_rollbacks: u64,
    /// Migration overhead, ns.
    pub migration_ns: f64,
    /// Round wall time: slowest task + migration overhead, ns.
    pub round_time_ns: f64,
}

impl RoundReport {
    /// Coefficient of variation of task times within the round (std/mean) —
    /// the per-round ingredient of the paper's A.C.V load-balance metric.
    pub fn cv(&self) -> f64 {
        let n = self.tasks.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.tasks.iter().map(|t| t.time_ns).sum::<f64>() / n as f64;
        if mean <= 0.0 {
            return 0.0;
        }
        let var = self
            .tasks
            .iter()
            .map(|t| (t.time_ns - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        var.sqrt() / mean
    }

    /// Slowest task time, ns.
    pub fn max_task_ns(&self) -> f64 {
        self.tasks.iter().map(|t| t.time_ns).fold(0.0, f64::max)
    }
}

/// Full run report: all rounds under one policy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Policy name.
    pub policy: String,
    /// Per-round reports.
    pub rounds: Vec<RoundReport>,
    /// Bandwidth telemetry of the run.
    pub timeline_samples: Vec<crate::telemetry::BandwidthSample>,
    /// Average DRAM bandwidth over the run, GB/s.
    pub avg_dram_gbps: f64,
    /// Average PM bandwidth over the run, GB/s.
    pub avg_pm_gbps: f64,
    /// Fault accounting: injected faults survived and how the run coped.
    /// All-zero when no fault plan is armed.
    pub fault: crate::fault::FaultSummary,
    /// Migration epochs that committed over the run.
    pub epoch_commits: u64,
    /// Migration epochs that ended torn and were rolled back over the run.
    pub epoch_rollbacks: u64,
}

impl RunReport {
    /// Total simulated time, ns.
    pub fn total_time_ns(&self) -> f64 {
        self.rounds.iter().map(|r| r.round_time_ns).sum()
    }

    /// Average coefficient of variation of task times across rounds — the
    /// paper's A.C.V metric (§7.2).
    pub fn acv(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.rounds.iter().map(|r| r.cv()).sum::<f64>() / self.rounds.len() as f64
    }

    /// All task times normalised to the slowest task of each round —
    /// the distribution Figure 5 plots.
    pub fn normalized_task_times(&self) -> Vec<f64> {
        let mut v = Vec::new();
        for r in &self.rounds {
            let m = r.max_task_ns();
            if m > 0.0 {
                v.extend(r.tasks.iter().map(|t| t.time_ns / m));
            }
        }
        v
    }

    /// Total pages migrated over the run.
    pub fn total_migration_pages(&self) -> u64 {
        self.rounds.iter().map(|r| r.migration_pages).sum()
    }
}

/// View combining the page table placement with a policy override.
struct PolicyView<'a, P: ?Sized> {
    sys: &'a HmSystem,
    policy: &'a P,
}

impl<P: PlacementPolicy + Sync + ?Sized> PlacementView for PolicyView<'_, P> {
    fn object_size(&self, object: ObjectId) -> u64 {
        self.sys.try_object(object).map(|o| o.size).unwrap_or(0)
    }
    fn dram_fraction(&self, access: &ObjectAccess) -> f64 {
        self.policy
            .dram_fraction_override(self.sys, access)
            .unwrap_or_else(|| self.sys.dram_fraction(access.object))
    }
}

/// Runs a workload under a policy on an emulated HM system.
///
/// ```
/// use merch_hm::runtime::{Executor, StaticPolicy};
/// use merch_hm::workload::testutil::SkewedWorkload;
/// use merch_hm::page::PAGE_SIZE;
/// use merch_hm::{HmConfig, HmSystem, Tier};
///
/// let app = SkewedWorkload { tasks: 2, rounds: 3, base_accesses: 1e5, obj_bytes: 8 * PAGE_SIZE };
/// let sys = HmSystem::new(HmConfig::calibrated(64 * PAGE_SIZE, 1024 * PAGE_SIZE), 1);
/// let report = Executor::new(sys, app, StaticPolicy { tier: Tier::Pm }).run();
/// assert_eq!(report.rounds.len(), 3);
/// assert!(report.total_time_ns() > 0.0);
/// ```
pub struct Executor<W, P> {
    /// The emulated memory system.
    pub sys: HmSystem,
    /// The application.
    pub workload: W,
    /// The placement policy.
    pub policy: P,
    /// Bandwidth telemetry (100 µs bins by default).
    pub timeline: BandwidthTimeline,
    /// First telemetry bin not yet considered for blackout injection.
    blackout_cursor: usize,
    /// Reports of the rounds already driven by `try_run`/`run_supervised`.
    completed: Vec<RoundReport>,
    /// Next round `try_run`/`run_supervised` will execute.
    next_round: usize,
    /// Straggler watchdog; `None` (the default) disables it entirely and
    /// keeps every existing output byte-stable.
    watchdog: Option<WatchdogConfig>,
}

/// Configuration of the straggler watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WatchdogConfig {
    /// Overrun tolerance: a task is a straggler when its simulated time
    /// exceeds `deadline × slack` (the §5 `T_hybrid` prediction scaled by
    /// this factor).
    pub slack: f64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self { slack: 1.25 }
    }
}

impl<W: Workload, P: PlacementPolicy + Sync> Executor<W, P> {
    /// Allocate the workload's objects on PM (the software-solution default:
    /// big-memory allocations land on the capacity tier and are migrated up)
    /// and let the policy adjust the initial placement. Panics if PM cannot
    /// hold the working set; use [`Executor::try_new`] to handle that.
    pub fn new(sys: HmSystem, workload: W, policy: P) -> Self {
        Self::try_new(sys, workload, policy)
            .expect("PM capacity must hold the workload working set")
    }

    /// Fallible constructor: returns `OutOfCapacity` instead of panicking
    /// when the workload's working set does not fit on PM.
    pub fn try_new(
        mut sys: HmSystem,
        workload: W,
        mut policy: P,
    ) -> Result<Self, crate::system::HmError> {
        let specs = workload.object_specs();
        sys.allocate_all(&specs, Tier::Pm)?;
        policy.on_allocate(&mut sys);
        Ok(Self {
            sys,
            workload,
            policy,
            timeline: BandwidthTimeline::new(100_000.0),
            blackout_cursor: 0,
            completed: Vec::new(),
            next_round: 0,
            watchdog: None,
        })
    }

    /// Enable the straggler watchdog.
    pub fn with_watchdog(mut self, config: WatchdogConfig) -> Self {
        self.watchdog = Some(config);
        self
    }

    /// Rebuild an executor from a [`Checkpoint`]: the placement state,
    /// telemetry, and completed rounds come from the snapshot (no
    /// re-allocation, no `on_allocate`); the policy is restored from the
    /// opaque blob; the workload — rebuilt by the caller with the same
    /// constructor seed — is fast-forwarded by replaying its `instance`
    /// calls for the completed rounds (stateful workloads like WarpX
    /// advance internal cursors there). The scripted crash is disarmed so
    /// the resumed run does not die at the same point again.
    pub fn resume(
        checkpoint: crate::checkpoint::Checkpoint,
        mut workload: W,
        mut policy: P,
    ) -> Result<Self, crate::system::HmError> {
        let crate::checkpoint::Checkpoint {
            next_round,
            blackout_cursor,
            mut sys,
            timeline,
            completed,
            policy_state,
            breaker: _,
        } = checkpoint;
        policy.restore_state(&policy_state)?;
        for round in 0..next_round {
            let _ = workload.instance(round, &sys);
        }
        sys.disarm_crash();
        Ok(Self {
            sys,
            workload,
            policy,
            timeline,
            blackout_cursor,
            completed,
            next_round,
            watchdog: None,
        })
    }

    /// The next round `try_run`/`run_supervised` will execute.
    pub fn next_round(&self) -> usize {
        self.next_round
    }

    /// Restore a checkpoint *into this executor* without rebuilding the
    /// workload: the snapshot must sit at the same round boundary this
    /// executor sits at (the supervisor checkpoints an Open tenant at its
    /// boundary — a scripted tenant panic fires before any mutation — so
    /// the workload cursor is already correct and no fast-forward runs).
    /// Placement state, telemetry, completed rounds, and the policy blob
    /// all come from the snapshot; one-shot scripted faults are disarmed
    /// like [`resume`](Self::resume) does. The service's Half-Open probe
    /// path uses this to prove the checkpoint round-trip is bit-identical.
    pub fn restore_in_place(
        &mut self,
        checkpoint: crate::checkpoint::Checkpoint,
    ) -> Result<(), crate::system::HmError> {
        let crate::checkpoint::Checkpoint {
            next_round,
            blackout_cursor,
            sys,
            timeline,
            completed,
            policy_state,
            breaker: _,
        } = checkpoint;
        if next_round != self.next_round {
            return Err(crate::checkpoint::corrupt(&format!(
                "in-place restore at round {} from a checkpoint at round {next_round}",
                self.next_round
            )));
        }
        self.policy.restore_state(&policy_state)?;
        self.sys = sys;
        self.timeline = timeline;
        self.blackout_cursor = blackout_cursor;
        self.completed = completed;
        self.sys.disarm_crash();
        Ok(())
    }

    /// Snapshot the full supervised-execution state at the current round
    /// boundary.
    pub fn checkpoint(&self) -> crate::checkpoint::Checkpoint {
        crate::checkpoint::Checkpoint {
            next_round: self.next_round,
            blackout_cursor: self.blackout_cursor,
            sys: self.sys.clone(),
            timeline: self.timeline.clone(),
            completed: self.completed.clone(),
            policy_state: self.policy.save_state(),
            breaker: crate::checkpoint::BreakerFrame::default(),
        }
    }

    /// Run every task instance and return the report. Panics if a scripted
    /// crash fault fires; arm crashes only under [`try_run`](Self::try_run)
    /// or [`run_supervised`](Self::run_supervised).
    pub fn run(&mut self) -> RunReport {
        self.try_run()
            .expect("run failed; use try_run/run_supervised with crash fault plans")
    }

    /// Run every remaining task instance; `Err(HmError::Crashed)` when a
    /// scripted crash fault fires mid-run.
    pub fn try_run(&mut self) -> Result<RunReport, crate::system::HmError> {
        while self.step()?.is_some() {}
        Ok(self.report())
    }

    /// Execute exactly one round and record its report. Returns `Ok(None)`
    /// when every round has already run — the round-granular stepping API
    /// behind `try_run` and the chaos-soak oracle (which inspects system
    /// invariants between rounds). `Err(HmError::Crashed)` when a scripted
    /// crash fault fires inside the round.
    pub fn step(&mut self) -> Result<Option<&RoundReport>, crate::system::HmError> {
        if self.next_round >= self.workload.num_instances() {
            return Ok(None);
        }
        let report = self.run_round(self.next_round)?;
        if self.sys.crashed() {
            // The crash latched inside `after_round` migrations: the
            // process died before this round's report was persisted.
            return Err(crate::system::HmError::Crashed {
                round: self.next_round as u64,
            });
        }
        self.completed.push(report);
        self.next_round += 1;
        Ok(self.completed.last())
    }

    /// Supervised run: append a checkpoint record to `wal` at every round
    /// boundary (including the initial one, so a crash inside round 0
    /// recovers too). Checkpoint-write faults are retried with
    /// [`Backoff`](crate::backoff::Backoff) and skipped on exhaustion — see
    /// [`Wal::append`](crate::checkpoint::Wal::append); WAL accounting
    /// stays in `wal.stats` so the returned report is bit-identical to an
    /// unsupervised run of the same plan.
    pub fn run_supervised(
        &mut self,
        wal: &mut crate::checkpoint::Wal,
    ) -> Result<RunReport, crate::system::HmError> {
        let ck = self.checkpoint();
        wal.append(&ck, self.sys.fault_injector())?;
        while self.step()?.is_some() {
            let ck = self.checkpoint();
            wal.append(&ck, self.sys.fault_injector())?;
        }
        Ok(self.report())
    }

    /// Assemble the [`RunReport`] from the rounds completed so far.
    pub fn report(&self) -> RunReport {
        let stats = self.sys.fault_stats();
        let fault = crate::fault::FaultSummary {
            migration_attempts: self.sys.total_migration_attempts,
            migration_retries: stats.migration_retries,
            failed_pages: stats.failed_pages,
            dropped_pte_samples: stats.dropped_pte_samples,
            dropped_pmc_events: stats.dropped_pmc_events,
            blacked_out_bins: stats.blacked_out_bins,
            pressure_evictions: stats.pressure_evictions,
            degraded_rounds: self.completed.iter().filter(|r| r.degraded).count() as u64,
            pages_poisoned: stats.pages_poisoned,
            degraded_window_rounds: stats.degraded_window_rounds,
            offlined_bytes: stats.offlined_bytes,
            tenant_panics: stats.tenant_panics,
            stalled_rounds: stats.stalled_rounds,
        };
        RunReport {
            workload: self.workload.name().to_string(),
            policy: self.policy.name(),
            rounds: self.completed.clone(),
            timeline_samples: self.timeline.samples(),
            avg_dram_gbps: self.timeline.avg_dram_gbps(),
            avg_pm_gbps: self.timeline.avg_pm_gbps(),
            fault,
            epoch_commits: self.sys.epoch_commits,
            epoch_rollbacks: self.sys.epoch_rollbacks,
        }
    }

    /// Run a single round; exposed for policies that need fine-grained
    /// control in tests. `Err(HmError::Crashed)` when a scripted crash
    /// fault fires at this round's boundary or inside its migration batch.
    pub fn run_round(&mut self, round: usize) -> Result<RoundReport, crate::system::HmError> {
        // Scripted tenant panic: the job dies at this round's boundary,
        // before any mutation, so the executor the supervisor recovers is
        // still exactly at its checkpointable boundary state. The one
        // pre-panic write is the deterministic panic counter.
        if self.sys.panic_due(round as u64) {
            self.sys.note_tenant_panic();
            panic!("scripted tenant panic at round {round}");
        }
        // Scripted boundary crash: the process dies before any of this
        // round's mutations, so recovery replays the round from scratch.
        if self.sys.crash_at_round_start(round as u64) {
            return Err(crate::system::HmError::Crashed {
                round: round as u64,
            });
        }
        // New input: update logical object sizes and re-draw drifting
        // hot-page distributions.
        for (name, size) in self.workload.object_sizes(round) {
            if let Ok(id) = self.sys.object_by_name(&name) {
                self.sys.set_logical_size(id, size);
            }
        }
        for (name, skew) in self.workload.hot_page_drift(round) {
            if let Ok(id) = self.sys.object_by_name(&name) {
                let seed = (round as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15) ^ id.0 as u64;
                self.sys.reassign_page_weights(id, skew, seed);
            }
        }
        let works = self.workload.instance(round, &self.sys);
        let concurrency = works.len();

        // Policy decisions + migrations before the barrier opens. Fault
        // injection (co-tenant pressure, failed-attempt retries) happens
        // inside this window, so its page traffic is charged as round
        // overhead alongside the policy's own migrations: overhead is
        // charged per *attempt*, which equals pages moved when no faults
        // are injected.
        let migrations_before = self.sys.total_migrations;
        let attempts_before = self.sys.total_migration_attempts;
        let failed_before = self.sys.fault_stats().failed_pages;
        self.sys.begin_round(round as u64);
        // The policy's migration batch runs inside a transactional epoch:
        // a torn batch (mid-migration crash, failure burst) rolls back to
        // the pre-epoch page table instead of committing a half-placement.
        // Pressure evictions (above) and watchdog/after_round moves (below)
        // are deliberately outside the epoch.
        self.sys.begin_epoch(round as u64);
        self.policy.before_round(&mut self.sys, round, &works);
        let epoch_outcome = self.sys.end_epoch();
        if self.sys.crashed() {
            // Scripted mid-migration crash: the batch died partway; the
            // epoch above already rolled it back, and the post-crash state
            // is discarded by recovery anyway.
            return Err(crate::system::HmError::Crashed {
                round: round as u64,
            });
        }
        let (epoch_commits, epoch_rollbacks) = match epoch_outcome {
            crate::epoch::EpochOutcome::Committed => (1, 0),
            crate::epoch::EpochOutcome::RolledBack => (0, 1),
            crate::epoch::EpochOutcome::Clean => (0, 0),
        };
        let migration_pages = self.sys.total_migrations - migrations_before;
        let migration_attempts = self.sys.total_migration_attempts - attempts_before;
        let failed_pages = self.sys.fault_stats().failed_pages - failed_before;
        // Tasks (and any in-round corrective costing below) execute under the
        // round's *active* configuration: when a device degradation window is
        // open, the degraded tier's latency/bandwidth curve applies for the
        // whole round. With no window open this is a clone of `sys.config`,
        // so the no-fault path stays bit-identical.
        let active = self.sys.active_config();
        let migration_ns = migration_time_ns(&active, migration_attempts);

        // Execute all tasks in parallel (real threads, simulated time).
        let mut results = execute_tasks(&self.sys, &active, &self.policy, &works, concurrency);

        // Record page-level accesses for the profilers.
        for (work, res) in works.iter().zip(&results) {
            debug_assert_eq!(work.task, res.task);
            for phase in &work.phases {
                for a in &phase.accesses {
                    let size = match self.sys.try_object(a.object) {
                        Ok(o) => o.size,
                        Err(_) => continue,
                    };
                    let mem = crate::trace::memory_accesses(a, size, self.sys.config.llc_bytes);
                    self.sys.record_accesses(a.object, mem);
                }
            }
        }

        // Straggler watchdog: compare each task's simulated time against
        // its predicted T_hybrid deadline (×slack). On the worst overrun,
        // give the policy one in-round correction shot (emergency re-run
        // of Algorithm 1 restricted to the straggler's objects); if it
        // migrated pages, charge the correction and re-cost the remainder
        // of the straggler under the new placement.
        let mut straggler_events = 0u64;
        let mut watchdog_pages = 0u64;
        if let Some(wd) = self.watchdog {
            if let Some(deadlines) = self.policy.round_deadlines_ns(round) {
                let mut worst: Option<(usize, f64)> = None;
                for (i, r) in results.iter().enumerate() {
                    let Some(&deadline) = deadlines.get(r.task) else {
                        continue;
                    };
                    if deadline > 0.0 && r.time_ns > deadline * wd.slack {
                        let ratio = r.time_ns / deadline;
                        if worst.is_none_or(|(_, w)| ratio > w) {
                            worst = Some((i, ratio));
                        }
                    }
                }
                if let Some((i, _)) = worst {
                    straggler_events = 1;
                    let task = results[i].task;
                    let observed = results[i].time_ns;
                    let deadline = deadlines[task];
                    let attempts_before = self.sys.total_migration_attempts;
                    let acted =
                        self.policy
                            .on_straggler(&mut self.sys, round, task, observed, deadline);
                    watchdog_pages = self.sys.total_migration_attempts - attempts_before;
                    if acted && watchdog_pages > 0 {
                        let correction_ns = migration_time_ns(&active, watchdog_pages);
                        let view = PolicyView {
                            sys: &self.sys,
                            policy: &self.policy,
                        };
                        let new_cost = task_cost(&active, &works[i], &view, concurrency);
                        // The straggler ran `detect_ns` before the watchdog
                        // fired; the remaining fraction re-runs at the
                        // corrected placement's speed.
                        let detect_ns = deadline * wd.slack;
                        let frac_done = (detect_ns / observed).min(1.0);
                        let corrected =
                            detect_ns + correction_ns + (1.0 - frac_done) * new_cost.time_ns;
                        if corrected < observed {
                            let old = results[i].cost;
                            let blend = |o: f64, n: f64| frac_done * o + (1.0 - frac_done) * n;
                            results[i].time_ns = corrected;
                            results[i].cost = PhaseCost {
                                time_ns: corrected,
                                dram_bytes: blend(old.dram_bytes, new_cost.dram_bytes),
                                pm_bytes: blend(old.pm_bytes, new_cost.pm_bytes),
                                dram_accesses: blend(old.dram_accesses, new_cost.dram_accesses),
                                pm_accesses: blend(old.pm_accesses, new_cost.pm_accesses),
                                compute_ns: blend(old.compute_ns, new_cost.compute_ns),
                            };
                        }
                    }
                }
            }
        }

        let max_time = results.iter().fold(0.0f64, |m, r| m.max(r.time_ns));
        let mut round_time = max_time + migration_ns;
        // Scripted tenant stall: the round hangs for STALL_MULT× its real
        // time. Inflating before the telemetry advance keeps clocks, bins,
        // and the report consistent — and deterministic at any `--jobs`.
        let stall = self.sys.stall_multiplier(round as u64);
        if stall != 1.0 {
            round_time *= stall;
            self.sys.note_stalled_round();
        }
        // Telemetry: tasks start together after migration overhead. The
        // checkpoint decoder rebuilds the timeline through the same call.
        self.timeline
            .record_round(migration_ns, &results, round_time);

        // Telemetry blackout: bins completed by this round may be lost.
        if self
            .sys
            .fault_plan()
            .is_some_and(|p| p.telemetry_blackout > 0.0)
        {
            let end_bin = ((self.timeline.clock_ns / self.timeline.bin_ns()).floor() as usize)
                .min(self.timeline.num_bins());
            for bin in self.blackout_cursor..end_bin {
                let lost = self
                    .sys
                    .fault_injector_mut()
                    .is_some_and(|f| f.blackout_bin(bin));
                if lost {
                    self.timeline.blackout_bin(bin);
                }
            }
            self.blackout_cursor = end_bin;
        }

        let report = RoundReport {
            round,
            tasks: results,
            migration_pages,
            migration_attempts,
            failed_pages,
            degraded: self.policy.degraded(),
            straggler_events,
            watchdog_pages,
            epoch_commits,
            epoch_rollbacks,
            migration_ns,
            round_time_ns: round_time,
        };
        self.policy.after_round(&mut self.sys, round, &report);
        Ok(report)
    }
}

/// Evaluate all task costs in parallel on real worker threads. `config` is
/// the round's active configuration — `sys.config` possibly degraded by an
/// open device fault window.
fn execute_tasks<P: PlacementPolicy + Sync>(
    sys: &HmSystem,
    config: &HmConfig,
    policy: &P,
    works: &[TaskWork],
    concurrency: usize,
) -> Vec<TaskResult> {
    let view = PolicyView { sys, policy };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(works.len().max(1));
    let chunk = works.len().div_ceil(threads.max(1));
    let view = &view;
    std::thread::scope(|s| {
        let handles: Vec<_> = works
            .chunks(chunk)
            .map(|w_chunk| {
                s.spawn(move || {
                    w_chunk
                        .iter()
                        .map(|w| {
                            let cost = task_cost(config, w, view, concurrency);
                            TaskResult {
                                task: w.task,
                                time_ns: cost.time_ns,
                                cost,
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        // Join in chunk order; a worker panic re-raises with its payload.
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HmConfig;
    use crate::page::PAGE_SIZE;
    use crate::workload::testutil::SkewedWorkload;

    fn run_with(tier: Tier) -> RunReport {
        let sys = HmSystem::new(HmConfig::calibrated(4096 * PAGE_SIZE, 32768 * PAGE_SIZE), 1);
        let w = SkewedWorkload {
            tasks: 4,
            rounds: 3,
            base_accesses: 2e6,
            obj_bytes: 64 * PAGE_SIZE,
        };
        Executor::new(sys, w, StaticPolicy { tier }).run()
    }

    #[test]
    fn dram_only_faster_than_pm_only() {
        let pm = run_with(Tier::Pm);
        let dram = run_with(Tier::Dram);
        assert!(pm.total_time_ns() > dram.total_time_ns());
        assert_eq!(pm.rounds.len(), 3);
        assert_eq!(pm.rounds[0].tasks.len(), 4);
    }

    #[test]
    fn round_time_is_slowest_task() {
        let pm = run_with(Tier::Pm);
        for r in &pm.rounds {
            assert!((r.round_time_ns - (r.max_task_ns() + r.migration_ns)).abs() < 1e-6);
        }
    }

    #[test]
    fn skewed_workload_has_load_imbalance() {
        let pm = run_with(Tier::Pm);
        // Task 3 does 4× the accesses of task 0.
        let r = &pm.rounds[0];
        assert!(r.tasks[3].time_ns > 2.0 * r.tasks[0].time_ns);
        assert!(pm.acv() > 0.2, "A.C.V = {}", pm.acv());
    }

    #[test]
    fn normalized_times_at_most_one() {
        let pm = run_with(Tier::Pm);
        let v = pm.normalized_task_times();
        assert_eq!(v.len(), 12);
        assert!(v.iter().all(|&x| x > 0.0 && x <= 1.0 + 1e-12));
        assert!(v.iter().any(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn telemetry_records_bytes() {
        let pm = run_with(Tier::Pm);
        assert!(pm.avg_pm_gbps > 0.0);
        assert_eq!(pm.avg_dram_gbps, 0.0);
        let dram = run_with(Tier::Dram);
        assert!(dram.avg_dram_gbps > 0.0);
        assert_eq!(dram.avg_pm_gbps, 0.0);
    }

    #[test]
    fn profiling_counters_populated() {
        let sys = HmSystem::new(HmConfig::calibrated(4096 * PAGE_SIZE, 32768 * PAGE_SIZE), 1);
        let w = SkewedWorkload {
            tasks: 2,
            rounds: 1,
            base_accesses: 1e5,
            obj_bytes: 16 * PAGE_SIZE,
        };
        let mut ex = Executor::new(sys, w, StaticPolicy { tier: Tier::Pm });
        ex.run();
        let touched = ex
            .sys
            .page_table()
            .iter()
            .filter(|(_, p)| p.accessed)
            .count();
        assert!(touched > 0);
    }

    /// Policy that overrides every access to 100 % DRAM without migrating.
    struct FakeCache;
    impl PlacementPolicy for FakeCache {
        fn name(&self) -> String {
            "fake-cache".into()
        }
        fn dram_fraction_override(&self, _: &HmSystem, _: &ObjectAccess) -> Option<f64> {
            Some(1.0)
        }
    }

    #[test]
    fn override_beats_page_table() {
        let sys = HmSystem::new(HmConfig::calibrated(4096 * PAGE_SIZE, 32768 * PAGE_SIZE), 1);
        let w = SkewedWorkload {
            tasks: 2,
            rounds: 1,
            base_accesses: 2e6,
            obj_bytes: 64 * PAGE_SIZE,
        };
        let fake = Executor::new(
            HmSystem::new(sys.config.clone(), 1),
            SkewedWorkload {
                tasks: 2,
                rounds: 1,
                base_accesses: 2e6,
                obj_bytes: 64 * PAGE_SIZE,
            },
            FakeCache,
        )
        .run();
        let pm = Executor::new(sys, w, StaticPolicy { tier: Tier::Pm }).run();
        assert!(fake.total_time_ns() < pm.total_time_ns());
        // The override routes bytes to DRAM in telemetry too.
        assert!(fake.avg_dram_gbps > 0.0);
    }
}
