//! Placement-as-a-service: a multi-tenant runtime over one two-tier pool.
//!
//! ROADMAP item 1: instead of one `repro` job owning the whole emulated
//! machine, many *tenants* — each a workload + policy pair with a declared
//! DRAM quota, weight, priority, and deadline — share the pool, and the
//! robustness machinery of PRs 1/2/5 (degradation ladder, watchdog, drift
//! sentinel, checkpoint blobs) becomes **per-tenant SLO enforcement**
//! rather than global state.
//!
//! Architecture (one submodule each):
//!
//! * [`tenant`] — identity, declared contract, lifecycle state machine;
//! * [`admission`] — bounded submission queue, priority-ordered grants
//!   with overload squeezing down to a declared floor, deadline shedding,
//!   [`Backoff`](crate::backoff::Backoff)-driven retry-after responses;
//! * [`scheduler`] — deficit round robin over tenant weight, interleaving
//!   whole rounds (the natural preemption point of the round-barrier
//!   execution model);
//! * [`report`] — [`TenantReport`]/[`ServiceReport`] SLO accounting
//!   (deadline misses, degraded rounds, Jain fairness index).
//!
//! **Isolation model.** Every tenant owns its own
//! [`HmSystem`](crate::system::HmSystem): the shared
//! pool is partitioned by *grants* — the admission controller never lets
//! outstanding grants exceed the pool, and each grant becomes a hard
//! [`dram_quota`](crate::system::HmSystem::set_dram_quota) on the tenant's
//! system, enforced at allocation, migration, and round-boundary eviction
//! time. Because no placement state is shared, a tenant's per-round output
//! is a pure function of (workload, policy, seed, grant): a non-faulted
//! tenant's rounds are **bitwise identical** to a solo run with the same
//! grant, no matter what crashes, sentinel trips, or epoch rollbacks its
//! co-tenants suffer. A faulted tenant is quarantined — its grant returns
//! to the pool and nothing else changes.
//!
//! **Concurrent rounds.** When the unified scheduler is configured with
//! more than one job ([`merch_sched::set_pool_jobs`]), [`PlacementService::run`]
//! executes tenant rounds concurrently: each admitted tenant becomes a
//! [`merch_sched::TaskClass::Tenant`] *runner* task that owns the tenant's
//! job outright and streams per-round results into a pipe, while the
//! unchanged serial control loop (shed → admit → DRR pick → charge)
//! consumes the pipes in exactly the order the serial `step()` loop would
//! have produced. Because a tenant's round stream is a pure function of
//! (workload, policy, seed, grant) — the isolation model above — the
//! streamed results are the results the control loop would have computed
//! inline, and the final [`ServiceReport`] is **bitwise identical** at any
//! job count. Runners never touch shared state; the control loop never
//! touches a running tenant's job.
//!
//! **Fault containment** (DESIGN.md §17). A tenant whose round *panics*
//! (a bug, not a modeled fault) or *stalls* (round time beyond a declared
//! threshold) no longer tears the whole service down: each tenant carries
//! a three-state circuit [`breaker`]. Strikes inside a window trip the
//! breaker Closed → Open — the tenant is suspended at its round boundary,
//! its executor state checkpointed (breaker frame embedded), and its
//! grant released back to the pool where the next priority-ordered
//! admission pass redistributes it, exactly like a
//! [capacity renegotiation](PlacementService::offline_dram). After a
//! cool-down the breaker goes Half-Open: the checkpoint is restored
//! *in place* (proving the checkpoint round-trip bit-identical), the grant
//! re-applied, and probe rounds run — clean probes re-close the breaker,
//! one struck probe re-trips it, and `max_trips` trips quarantine the
//! tenant for good. Survivors are never perturbed: their round streams
//! stay bitwise identical to a no-fault run at any job count.

pub mod admission;
pub mod breaker;
pub mod report;
pub mod scheduler;
pub mod tenant;

pub use admission::{Admission, AdmissionController, SubmitOutcome};
pub use breaker::{BreakerConfig, BreakerState};
pub use report::{jain_index, ServiceReport, TenantReport};
pub use scheduler::DrrScheduler;
pub use tenant::{ShedReason, Tenant, TenantId, TenantSpec, TenantStatus};

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;

use crate::checkpoint::BreakerFrame;
use crate::runtime::{Executor, PlacementPolicy, RoundReport, RunReport};
use crate::system::HmError;
use crate::workload::Workload;
use crate::Tier;

/// Object-safe view of one tenant's executor, so the service can drive
/// heterogeneous (workload, policy) pairs through one registry. Blanket-
/// implemented for every [`Executor`]. `Send` so a concurrent
/// [`PlacementService::run`] can hand the job to a runner task.
pub trait TenantJob: Send {
    /// Execute one round. `Ok(None)` when every round has already run;
    /// `Err` quarantines the tenant (scripted crash, unrecoverable fault).
    fn step(&mut self) -> Result<Option<RoundReport>, HmError>;
    /// Rounds the workload declares in total.
    fn rounds_total(&self) -> usize;
    /// Rounds completed so far.
    fn rounds_done(&self) -> usize;
    /// Current DRAM residency, bytes (the quota-invariant probe).
    fn dram_resident_bytes(&self) -> u64;
    /// Impose or lift the service grant on the tenant's system.
    fn set_dram_quota(&mut self, quota: Option<u64>);
    /// Full run report over the rounds completed so far.
    fn run_report(&self) -> RunReport;
    /// Snapshot the executor at its current round boundary — the
    /// supervisor's breaker frame embedded — as checkpoint payload text
    /// (version [`CHECKPOINT_VERSION`](crate::checkpoint::CHECKPOINT_VERSION)).
    fn checkpoint_text(&self, breaker: &BreakerFrame) -> String;
    /// Restore a snapshot produced by
    /// [`checkpoint_text`](Self::checkpoint_text) back into this executor
    /// (which must sit at the same round boundary) and return the embedded
    /// breaker frame. One-shot scripted faults are disarmed, so a
    /// Half-Open probe does not re-panic at the same point.
    fn restore_text(&mut self, text: &str) -> Result<BreakerFrame, HmError>;
}

impl<W: Workload, P: PlacementPolicy + Sync> TenantJob for Executor<W, P> {
    fn step(&mut self) -> Result<Option<RoundReport>, HmError> {
        Executor::step(self).map(|r| r.cloned())
    }
    fn rounds_total(&self) -> usize {
        self.workload.num_instances()
    }
    fn rounds_done(&self) -> usize {
        self.next_round()
    }
    fn dram_resident_bytes(&self) -> u64 {
        self.sys.page_table().bytes_in(Tier::Dram)
    }
    fn set_dram_quota(&mut self, quota: Option<u64>) {
        self.sys.set_dram_quota(quota);
    }
    fn run_report(&self) -> RunReport {
        self.report()
    }
    fn checkpoint_text(&self, breaker: &BreakerFrame) -> String {
        let mut ck = Executor::checkpoint(self);
        ck.breaker = *breaker;
        ck.encode()
    }
    fn restore_text(&mut self, text: &str) -> Result<BreakerFrame, HmError> {
        let ck = crate::checkpoint::Checkpoint::decode(text)?;
        let frame = ck.breaker;
        Executor::restore_in_place(self, ck)?;
        Ok(frame)
    }
}

/// One round outcome, as observed by the accounting loop: everything
/// [`PlacementService::consume_entry`] reads from a tenant's job after a
/// step, snapshotted so a runner task can compute it remotely.
enum StepEntry {
    /// A round ran: its report, the tenant's post-round DRAM residency
    /// (the quota-invariant probe), and whether it was the final round.
    Round {
        round: RoundReport,
        resident: u64,
        done: bool,
    },
    /// `step()` returned `Ok(None)`: every round had already run.
    Exhausted,
    /// The tenant faulted; it will be quarantined.
    Fault(HmError),
    /// The job panicked (a bug, not a modeled fault): carried to the
    /// control loop so it re-raises where the serial path would have,
    /// instead of deadlocking a pipe that will never fill.
    Panicked(String),
}

/// Execute one round of `job` and snapshot the outcome — the execution
/// half of the old `step_tenant`, shared by the serial path (inline) and
/// the concurrent runners (on worker tasks).
fn step_entry(job: &mut dyn TenantJob) -> StepEntry {
    match job.step() {
        Ok(Some(round)) => {
            let resident = job.dram_resident_bytes();
            let done = job.rounds_done() >= job.rounds_total();
            StepEntry::Round {
                round,
                resident,
                done,
            }
        }
        Ok(None) => StepEntry::Exhausted,
        Err(e) => StepEntry::Fault(e),
    }
}

/// Placeholder occupying a tenant's registry slot while a runner task owns
/// the real job. Never stepped or reported against: the control loop only
/// touches a running tenant's job through its pipe, and the real job is
/// handed back before `run` returns. Every method degrades instead of
/// panicking — a supervisor bug that reaches a parked job quarantines one
/// tenant rather than tearing the service down.
struct ParkedJob;

impl TenantJob for ParkedJob {
    fn step(&mut self) -> Result<Option<RoundReport>, HmError> {
        Err(HmError::InvalidConfig("parked tenant job stepped".into()))
    }
    fn rounds_total(&self) -> usize {
        0
    }
    fn rounds_done(&self) -> usize {
        0
    }
    fn dram_resident_bytes(&self) -> u64 {
        0
    }
    fn set_dram_quota(&mut self, _quota: Option<u64>) {}
    fn run_report(&self) -> RunReport {
        RunReport {
            workload: "parked".into(),
            policy: "parked".into(),
            rounds: Vec::new(),
            timeline_samples: Vec::new(),
            avg_dram_gbps: 0.0,
            avg_pm_gbps: 0.0,
            fault: crate::fault::FaultSummary::default(),
            epoch_commits: 0,
            epoch_rollbacks: 0,
        }
    }
    fn checkpoint_text(&self, _breaker: &BreakerFrame) -> String {
        String::new()
    }
    fn restore_text(&mut self, _text: &str) -> Result<BreakerFrame, HmError> {
        Err(HmError::CheckpointCorrupt(
            "parked tenant job restored".into(),
        ))
    }
}

/// Service configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Shared DRAM pool the admission controller partitions, bytes.
    pub total_dram_bytes: u64,
    /// Submission-queue bound.
    pub max_queue: usize,
    /// DRR credit per weight unit per top-up cycle, ns.
    pub quantum_ns: f64,
    /// Hard cap on retry-after responses, ns.
    pub retry_cap_ns: u64,
    /// Seed for the deterministic retry-after jitter.
    pub seed: u64,
    /// Per-tenant circuit-breaker tuning (defaults: 3 strikes / window 8,
    /// stall detection off).
    pub breaker: BreakerConfig,
    /// When set, an Open tenant's trip checkpoint is also persisted to a
    /// per-tenant WAL file in this directory (`tenant-<id>.wal`), so a
    /// service crash while a breaker is Open can recover the suspended
    /// executor from disk. `None` (the default) keeps the service
    /// filesystem-free.
    pub wal_dir: Option<PathBuf>,
}

impl ServiceConfig {
    /// Defaults over a pool of `total_dram_bytes`: queue bound 32, 1 ms
    /// DRR quantum, 10 s retry-after cap, seed 0.
    pub fn new(total_dram_bytes: u64) -> Self {
        Self {
            total_dram_bytes,
            max_queue: 32,
            quantum_ns: 1_000_000.0,
            retry_cap_ns: 10_000_000_000,
            seed: 0,
            breaker: BreakerConfig::default(),
            wal_dir: None,
        }
    }

    /// Set the circuit-breaker tuning.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }

    /// Treat rounds slower than `ns` as stall strikes.
    pub fn with_stall_threshold_ns(mut self, ns: f64) -> Self {
        self.breaker.stall_threshold_ns = ns;
        self
    }

    /// Persist trip checkpoints to per-tenant WAL files under `dir`.
    pub fn with_wal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.wal_dir = Some(dir.into());
        self
    }

    /// Set the submission-queue bound.
    pub fn with_max_queue(mut self, max_queue: usize) -> Self {
        self.max_queue = max_queue;
        self
    }

    /// Set the DRR quantum.
    pub fn with_quantum_ns(mut self, quantum_ns: f64) -> Self {
        self.quantum_ns = quantum_ns;
        self
    }

    /// Set the retry-after seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Outcome of a capacity-loss renegotiation pass
/// ([`PlacementService::offline_dram`]): what happened to every grant that
/// was outstanding when the pool shrank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Renegotiation {
    /// Bytes actually removed from the pool (≤ requested: the pool cannot
    /// go below zero).
    pub offlined_bytes: u64,
    /// Tenants whose full grant still fits — untouched.
    pub kept: Vec<TenantId>,
    /// Tenants squeezed to a smaller grant (new grant, ≥ their floor).
    pub squeezed: Vec<(TenantId, u64)>,
    /// Tenants whose floor no longer fits the remaining pool: displaced
    /// back to the admission queue with the suggested capped-Backoff
    /// retry-after, ns.
    pub displaced: Vec<(TenantId, f64)>,
    /// Displaced tenants that could not even be requeued (their floor
    /// exceeds the shrunk pool, or the queue shed them).
    pub shed: Vec<TenantId>,
}

/// What the supervisor must do after consuming one entry — the
/// job-dependent half of a breaker transition, returned out of
/// [`PlacementService::consume_entry`] because in the concurrent loop the
/// tenant's job must first be reclaimed from its runner before it can be
/// checkpointed or relaunched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ContainAction {
    /// Nothing job-dependent pending.
    Proceed,
    /// A panic strike that did not trip: the tenant stays Running and its
    /// round must be attempted again (the concurrent loop reclaims the job
    /// and relaunches the runner; the serial loop just picks again).
    Relaunch,
    /// The breaker tripped: checkpoint the job, release the grant, and
    /// either suspend (Open) or quarantine (`max_trips` reached).
    Trip,
}

/// The multi-tenant placement service: registry + admission + scheduler +
/// SLO accounting over one shared pool.
pub struct PlacementService {
    config: ServiceConfig,
    tenants: Vec<Tenant>,
    admission: AdmissionController,
    scheduler: DrrScheduler,
    /// Virtual clock: total round time served so far, ns.
    clock_ns: f64,
    /// Sum of grants held by currently running tenants.
    outstanding_grants: u64,
    /// Consumed-entry step counter: advanced once per consumed round
    /// outcome, identically in the serial and concurrent loops. The only
    /// service-wide time base the breaker uses (`open_until`).
    steps: u64,
}

impl PlacementService {
    /// An empty service over `config`'s pool.
    pub fn new(config: ServiceConfig) -> Self {
        let admission = AdmissionController::new(
            config.total_dram_bytes,
            config.max_queue,
            config.retry_cap_ns,
            config.seed,
        );
        let scheduler = DrrScheduler::new(config.quantum_ns);
        Self {
            config,
            tenants: Vec::new(),
            admission,
            scheduler,
            clock_ns: 0.0,
            outstanding_grants: 0,
            steps: 0,
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Current virtual time, ns.
    pub fn clock_ns(&self) -> f64 {
        self.clock_ns
    }

    /// Every submitted tenant, in submission order (including rejected and
    /// shed ones).
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// The run report of one tenant's executor (per-round placement
    /// output; the bitwise isolation oracle compares these against solo
    /// baselines).
    pub fn tenant_run_report(&self, id: TenantId) -> RunReport {
        self.tenants[id.0 as usize].job.run_report()
    }

    /// Submit a tenant. The spec is validated, the tenant registered (even
    /// a rejected submission keeps its registry record for the final
    /// report), and the admission controller decides queue entry. Grants
    /// happen later, inside [`run`](Self::run) passes, strictly by
    /// priority.
    pub fn submit(
        &mut self,
        spec: TenantSpec,
        job: Box<dyn TenantJob>,
    ) -> Result<SubmitOutcome, HmError> {
        spec.validate().map_err(HmError::InvalidConfig)?;
        let id = TenantId(self.tenants.len() as u32);
        self.tenants.push(Tenant {
            id,
            spec,
            status: TenantStatus::Queued,
            granted_quota: None,
            submitted_at_ns: self.clock_ns,
            admitted_at_ns: None,
            finished_at_ns: None,
            deficit_ns: 0.0,
            service_ns: 0.0,
            rounds_done: 0,
            quota_violations: 0,
            retry_responses: 0,
            breaker: BreakerFrame::default(),
            trip_checkpoint: None,
            job,
        });
        Ok(self.admission.offer(&mut self.tenants, id))
    }

    /// Drive every queued and running tenant to completion (or quarantine,
    /// or shed) and return the final rollup. Deterministic: the interleaving
    /// is a pure function of the submitted specs and each tenant's own
    /// round times.
    ///
    /// With [`merch_sched::pool_jobs`] `> 1` the rounds of different
    /// tenants execute concurrently on the unified scheduler pool; the
    /// report is bitwise identical to the sequential run either way (see
    /// the module docs for the argument).
    pub fn run(&mut self) -> ServiceReport {
        if merch_sched::pool_jobs() > 1 {
            self.run_concurrent();
        } else {
            while self.step() {}
        }
        self.report()
    }

    /// One service iteration: shed expired queued tenants, run an admission
    /// pass over the free pool, and execute one round of the scheduler's
    /// pick. Returns `false` once nothing is queued or running — the
    /// round-granular stepping API behind [`run`](Self::run), exposed so
    /// harnesses can inject mid-run events (capacity offlining, probes)
    /// between rounds.
    pub fn step(&mut self) -> bool {
        self.admission
            .shed_expired(&mut self.tenants, self.clock_ns);
        self.tick_breakers();
        self.admit_ready();
        let Some(id) = self.scheduler.pick(&mut self.tenants) else {
            // Nothing runnable. If tenants remain queued, the next admission
            // pass over the fully free pool must admit the highest-priority
            // one (its floor fits the pool — checked at submission).
            if self.admission.queue_len() != 0 {
                return true;
            }
            // Only Open (suspended) tenants remain: fast-forward the step
            // counter to the earliest probe time so their Half-Open probes
            // can start — identically to the concurrent loop.
            if let Some(ff) = self.min_open_until() {
                self.steps = self.steps.max(ff);
                return true;
            }
            return false;
        };
        self.step_tenant(id);
        true
    }

    /// Sum of grants held by currently running tenants. Never exceeds
    /// [`ServiceConfig::total_dram_bytes`], including across
    /// [`offline_dram`](Self::offline_dram) shrinks.
    pub fn outstanding_grants(&self) -> u64 {
        self.outstanding_grants
    }

    /// A permanent mid-run capacity loss: `bytes` of the shared DRAM pool
    /// go away (a failed DIMM, rack-scale page retirement, the host
    /// reclaiming memory). The pool shrinks and every *running* grant is
    /// renegotiated strictly by (priority desc, submission order asc):
    /// higher-priority tenants keep as much of their grant as still fits,
    /// lower-priority ones are squeezed down to — never below — their
    /// declared floor, and tenants whose floor no longer fits are displaced
    /// back to the admission queue with a capped
    /// [`Backoff`](crate::backoff::Backoff) retry-after (re-admitted when a
    /// completion frees capacity; shed outright when their floor exceeds
    /// the shrunk pool). On return `outstanding grants ≤ shrunk pool` —
    /// quotas are never silently violated.
    pub fn offline_dram(&mut self, bytes: u64) -> Renegotiation {
        let lost = bytes.min(self.config.total_dram_bytes);
        self.config.total_dram_bytes -= lost;
        self.admission.total_dram_bytes = self.config.total_dram_bytes;
        let mut out = Renegotiation {
            offlined_bytes: lost,
            ..Renegotiation::default()
        };
        let mut running: Vec<TenantId> = self
            .tenants
            .iter()
            .filter(|t| matches!(t.status, TenantStatus::Running))
            .map(|t| t.id)
            .collect();
        running.sort_by_key(|id| {
            (
                std::cmp::Reverse(self.tenants[id.0 as usize].spec.priority),
                id.0,
            )
        });
        let mut remaining = self.config.total_dram_bytes;
        let mut outstanding = 0u64;
        for id in running {
            let t = &mut self.tenants[id.0 as usize];
            let old = t.granted_quota.unwrap_or(0);
            if t.spec.min_dram_quota <= remaining {
                // Grants were ≥ the floor when issued, so the squeeze
                // below never cuts under it.
                let grant = old.min(remaining);
                remaining -= grant;
                outstanding += grant;
                if grant == old {
                    out.kept.push(id);
                } else {
                    t.granted_quota = Some(grant);
                    t.job.set_dram_quota(Some(grant));
                    out.squeezed.push((id, grant));
                }
            } else {
                // Displaced: the grant is revoked in full. The zero quota
                // stays in force while the tenant waits; re-admission
                // installs the new grant.
                t.granted_quota = None;
                t.job.set_dram_quota(Some(0));
                t.retry_responses += 1;
                let attempt = t.retry_responses;
                let retry_after_ns = self.admission.retry_after_ns(id, attempt);
                match self.admission.offer(&mut self.tenants, id) {
                    SubmitOutcome::Enqueued(_) => out.displaced.push((id, retry_after_ns)),
                    SubmitOutcome::Rejected { .. } => out.shed.push(id),
                }
            }
        }
        self.outstanding_grants = outstanding;
        out
    }

    /// Current rollup (callable mid-run from tests).
    pub fn report(&self) -> ServiceReport {
        ServiceReport::from_tenants(&self.tenants, self.clock_ns)
    }

    /// One admission pass over the free pool.
    fn admit_ready(&mut self) {
        let free = self
            .config
            .total_dram_bytes
            .saturating_sub(self.outstanding_grants);
        for adm in self.admission.admit_pass(&mut self.tenants, free) {
            let t = &mut self.tenants[adm.id.0 as usize];
            t.status = TenantStatus::Running;
            t.granted_quota = Some(adm.granted);
            t.admitted_at_ns = Some(self.clock_ns);
            t.deficit_ns = 0.0;
            t.job.set_dram_quota(Some(adm.granted));
            self.outstanding_grants += adm.granted;
        }
    }

    /// Run one round of tenant `id`, charge its deficit, probe the quota
    /// invariant, and retire it on completion or fault. Panics are caught
    /// at the round boundary — exactly where the concurrent runners catch
    /// them — and fed to the breaker instead of unwinding the service.
    fn step_tenant(&mut self, id: TenantId) {
        let entry = {
            let job = self.tenants[id.0 as usize].job.as_mut();
            match catch_unwind(AssertUnwindSafe(|| step_entry(job))) {
                Ok(entry) => entry,
                Err(p) => StepEntry::Panicked(merch_sched::payload_msg(p.as_ref())),
            }
        };
        if self.consume_entry(id, entry) == ContainAction::Trip {
            self.trip_tenant(id);
        }
        // `Relaunch` needs no work here: the job never left the registry,
        // so the next pick simply attempts the round again.
    }

    /// Apply one round outcome to the service state — the accounting half
    /// of [`step_tenant`](Self::step_tenant), shared verbatim between the
    /// sequential loop (which computes entries inline) and the concurrent
    /// loop (which consumes them from runner pipes), so both paths perform
    /// the identical field updates in the identical order.
    fn consume_entry(&mut self, id: TenantId, entry: StepEntry) -> ContainAction {
        self.steps += 1;
        let bcfg = self.config.breaker;
        match entry {
            StepEntry::Round {
                round,
                resident,
                done,
            } => {
                let t = &mut self.tenants[id.0 as usize];
                let dt = round.round_time_ns;
                t.rounds_done += 1;
                if let Some(granted) = t.granted_quota {
                    if resident > granted {
                        t.quota_violations += 1;
                    }
                }
                self.clock_ns += dt;
                self.scheduler.charge(&mut self.tenants, id, dt);
                if done {
                    // The final round completes the tenant even when it
                    // stalled: there is nothing left to contain.
                    self.retire(id, TenantStatus::Completed);
                    return ContainAction::Proceed;
                }
                let t = &mut self.tenants[id.0 as usize];
                if dt > bcfg.stall_threshold_ns && t.breaker.on_strike(&bcfg) {
                    return ContainAction::Trip;
                }
                if dt <= bcfg.stall_threshold_ns {
                    t.breaker.on_success();
                }
                ContainAction::Proceed
            }
            StepEntry::Exhausted => {
                self.retire(id, TenantStatus::Completed);
                ContainAction::Proceed
            }
            StepEntry::Fault(HmError::Crashed { round }) => {
                self.retire(id, TenantStatus::Quarantined { round });
                ContainAction::Proceed
            }
            StepEntry::Fault(_) => {
                let round = self.tenants[id.0 as usize].rounds_done;
                self.retire(id, TenantStatus::Quarantined { round });
                ContainAction::Proceed
            }
            // A panicked round is a strike, not a service teardown: the
            // pool and the co-tenants keep going; this tenant retries
            // until its breaker trips.
            StepEntry::Panicked(msg) => {
                let t = &mut self.tenants[id.0 as usize];
                let tripped = t.breaker.on_strike(&bcfg);
                crate::telemetry::Warning::TenantPanicContained {
                    tenant: id.0,
                    strikes: t.breaker.strikes,
                    msg,
                }
                .emit();
                if tripped {
                    ContainAction::Trip
                } else {
                    ContainAction::Relaunch
                }
            }
        }
    }

    /// The breaker tripped on tenant `id` (its job is back in the
    /// registry): checkpoint the executor at its round boundary with the
    /// breaker frame embedded, release the grant back to the pool (the
    /// next priority-ordered admission pass redistributes it, exactly like
    /// a capacity renegotiation), and suspend the tenant Open — or
    /// quarantine it outright once `max_trips` is reached.
    fn trip_tenant(&mut self, id: TenantId) {
        let bcfg = self.config.breaker;
        let i = id.0 as usize;
        let quarantine = self.tenants[i].breaker.trips >= bcfg.max_trips;
        if !quarantine {
            let t = &mut self.tenants[i];
            t.breaker.open(self.steps, &bcfg);
            // Snapshot *before* the grant release below, so the
            // checkpointed system still carries the old quota; the probe
            // re-applies its (possibly different) grant after restore.
            let text = t.job.checkpoint_text(&t.breaker);
            if let Some(dir) = self.config.wal_dir.clone() {
                self.persist_trip(id, &text, &dir);
            }
            self.tenants[i].trip_checkpoint = Some(text);
        }
        let t = &mut self.tenants[i];
        if let Some(g) = t.granted_quota.take() {
            self.outstanding_grants = self.outstanding_grants.saturating_sub(g);
        }
        t.job.set_dram_quota(Some(0));
        if quarantine {
            let round = self.tenants[i].rounds_done;
            self.retire(id, TenantStatus::Quarantined { round });
        }
    }

    /// Best-effort durable copy of a trip checkpoint: decode failures or
    /// I/O errors degrade to in-memory-only supervision (the service keeps
    /// running; recovery granularity is what suffers).
    fn persist_trip(&mut self, id: TenantId, text: &str, dir: &std::path::Path) {
        let Ok(ck) = crate::checkpoint::Checkpoint::decode(text) else {
            return;
        };
        let path = dir.join(format!("tenant-{}.wal", id.0));
        if let Ok(mut wal) = crate::checkpoint::Wal::create(path) {
            let _ = wal.append(&ck, None);
        }
    }

    /// Start the Half-Open probe of every Open tenant whose cool-down has
    /// lapsed and whose floor fits the free pool: restore the trip
    /// checkpoint *in place* (the executor sits at the same round boundary
    /// it was suspended at, so the round-trip must be bit-identical),
    /// re-apply a grant after the restore, and mark the probe rounds. A
    /// tenant whose snapshot is missing or corrupt — or whose floor can
    /// never fit the (possibly shrunk) pool again — is quarantined instead
    /// of spinning forever.
    fn tick_breakers(&mut self) {
        for i in 0..self.tenants.len() {
            let id = TenantId(i as u32);
            {
                let t = &self.tenants[i];
                if t.status != TenantStatus::Running || !t.breaker.probe_ready(self.steps) {
                    continue;
                }
            }
            let spec_floor = self.tenants[i].spec.min_dram_quota;
            if spec_floor > self.config.total_dram_bytes {
                // The pool shrank under this tenant's floor while it was
                // suspended; it can never run again.
                let round = self.tenants[i].rounds_done;
                self.retire(id, TenantStatus::Quarantined { round });
                continue;
            }
            let free = self
                .config
                .total_dram_bytes
                .saturating_sub(self.outstanding_grants);
            if spec_floor > free {
                // Wait for a completion to free capacity; running tenants
                // keep making progress meanwhile.
                continue;
            }
            let t = &mut self.tenants[i];
            let grant = t.spec.dram_quota.min(free);
            let restored = t
                .trip_checkpoint
                .take()
                .ok_or_else(|| HmError::CheckpointCorrupt("missing trip checkpoint".into()))
                .and_then(|text| t.job.restore_text(&text));
            match restored {
                Ok(frame) => {
                    // The decoded frame *is* the authoritative breaker
                    // state — the checkpoint round-trip just proved itself.
                    t.breaker = frame;
                    t.breaker.begin_probe(&self.config.breaker);
                    t.granted_quota = Some(grant);
                    t.job.set_dram_quota(Some(grant));
                    self.outstanding_grants += grant;
                }
                Err(_) => {
                    let round = self.tenants[i].rounds_done;
                    self.retire(id, TenantStatus::Quarantined { round });
                }
            }
        }
    }

    /// Earliest Half-Open probe step among Open tenants, if any.
    fn min_open_until(&self) -> Option<u64> {
        self.tenants
            .iter()
            .filter(|t| t.status == TenantStatus::Running && t.breaker.is_open())
            .map(|t| t.breaker.open_until)
            .min()
    }

    /// The concurrent twin of the `while self.step() {}` loop: identical
    /// shed/admit/pick/charge control flow, but each admitted tenant's job
    /// moves onto a [`merch_sched::TaskClass::Tenant`] runner task that
    /// streams its round outcomes into a per-tenant pipe, so rounds of
    /// different tenants overlap while the control loop consumes the
    /// streams in exact serial order. Runner tasks own their job outright
    /// (the registry holds a parked placeholder meanwhile) and return it
    /// through a hand-back slot once the stream ends, so post-run report
    /// queries see the same executors the serial path would leave behind.
    fn run_concurrent(&mut self) {
        use merch_sched::TaskClass;
        let n = self.tenants.len();
        let pipes: Vec<Mutex<VecDeque<StepEntry>>> =
            (0..n).map(|_| Mutex::new(VecDeque::new())).collect();
        let handback: Vec<Mutex<Option<Box<dyn TenantJob>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let mut launched = vec![false; n];
        let bcfg = self.config.breaker;
        merch_sched::ensure_workers(merch_sched::pool_jobs().saturating_sub(1));
        merch_sched::scope(TaskClass::Tenant, |scope| loop {
            self.admission
                .shed_expired(&mut self.tenants, self.clock_ns);
            self.tick_breakers();
            self.admit_ready();
            for t in self.tenants.iter_mut() {
                let i = t.id.0 as usize;
                if t.runnable() && !launched[i] {
                    launched[i] = true;
                    // The grant is installed on the job (`admit_ready` or a
                    // Half-Open restore), so the runner computes the exact
                    // stream the serial loop would; grants never change
                    // while a runner generation is live.
                    let mut job = std::mem::replace(&mut t.job, Box::new(ParkedJob));
                    let (pipe, slot) = (&pipes[i], &handback[i]);
                    // The runner's mirror of the tenant's breaker frame:
                    // strikes are a pure function of the entry stream, so
                    // the mirror trips at exactly the entry the control
                    // loop will trip on — ending the stream there.
                    let mut mirror = t.breaker;
                    scope.spawn(move || {
                        loop {
                            let entry = match catch_unwind(AssertUnwindSafe(|| {
                                step_entry(job.as_mut())
                            })) {
                                Ok(entry) => entry,
                                Err(p) => StepEntry::Panicked(merch_sched::payload_msg(p.as_ref())),
                            };
                            let last = match &entry {
                                StepEntry::Round {
                                    round, done: false, ..
                                } => {
                                    if round.round_time_ns > bcfg.stall_threshold_ns {
                                        mirror.on_strike(&bcfg)
                                    } else {
                                        mirror.on_success();
                                        false
                                    }
                                }
                                // Completion, fault, and panic all end the
                                // generation (a panicked job is handed back
                                // for a breaker-gated relaunch).
                                _ => true,
                            };
                            pipe.lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .push_back(entry);
                            merch_sched::notify();
                            if last {
                                break;
                            }
                        }
                        *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(job);
                        merch_sched::notify();
                    });
                }
            }
            let Some(id) = self.scheduler.pick(&mut self.tenants) else {
                if self.admission.queue_len() == 0 {
                    // Only Open (suspended) tenants remain: fast-forward to
                    // the earliest probe step — identically to `step()`.
                    if let Some(ff) = self.min_open_until() {
                        self.steps = self.steps.max(ff);
                        continue;
                    }
                    break;
                }
                // Queued tenants remain; the next admission pass over the
                // fully free pool admits the highest-priority one.
                continue;
            };
            let pipe = &pipes[id.0 as usize];
            let entry = {
                let mut ready = || !pipe.lock().unwrap_or_else(|e| e.into_inner()).is_empty();
                if !ready() {
                    // Blocks condvar-style, executing queued tenant-round
                    // (and deeper) tasks while this tenant's next round is
                    // still in flight.
                    merch_sched::help_until(TaskClass::Tenant, &mut ready);
                }
                match pipe.lock().unwrap_or_else(|e| e.into_inner()).pop_front() {
                    Some(entry) => entry,
                    // A starved stream here is a supervisor bug; contain it
                    // to this tenant (quarantine via the fault path) rather
                    // than unwinding the scope and every live runner.
                    None => StepEntry::Fault(HmError::InvalidConfig(
                        "tenant runner stream underflow".into(),
                    )),
                }
            };
            match self.consume_entry(id, entry) {
                ContainAction::Proceed => {}
                action => {
                    // The runner generation ended with that entry: take the
                    // job back before relaunching or checkpointing it.
                    let i = id.0 as usize;
                    let slot = &handback[i];
                    let mut returned = || slot.lock().unwrap_or_else(|e| e.into_inner()).is_some();
                    if !returned() {
                        merch_sched::help_until(TaskClass::Tenant, &mut returned);
                    }
                    if let Some(job) = slot.lock().unwrap_or_else(|e| e.into_inner()).take() {
                        self.tenants[i].job = job;
                    }
                    launched[i] = false;
                    if action == ContainAction::Trip {
                        self.trip_tenant(id);
                    }
                }
            }
        });
        for t in self.tenants.iter_mut() {
            if let Some(job) = handback[t.id.0 as usize]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
            {
                t.job = job;
            }
        }
    }

    /// Retire a running tenant: record the final state, stamp the virtual
    /// clock, and release its grant back to the pool (the next admission
    /// pass may now admit queued tenants).
    fn retire(&mut self, id: TenantId, status: TenantStatus) {
        let t = &mut self.tenants[id.0 as usize];
        t.status = status;
        t.finished_at_ns = Some(self.clock_ns);
        if let Some(g) = t.granted_quota {
            self.outstanding_grants = self.outstanding_grants.saturating_sub(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::StaticPolicy;
    use crate::workload::testutil::SkewedWorkload;
    use crate::{HmConfig, HmSystem, PAGE_SIZE};

    fn job(tasks: usize, rounds: usize, seed: u64) -> Box<dyn TenantJob> {
        let app = SkewedWorkload {
            tasks,
            rounds,
            base_accesses: 1e5,
            obj_bytes: 8 * PAGE_SIZE,
        };
        let sys = HmSystem::new(HmConfig::calibrated(64 * PAGE_SIZE, 1024 * PAGE_SIZE), seed);
        Box::new(Executor::new(sys, app, StaticPolicy { tier: Tier::Pm }))
    }

    fn spec(name: &str, quota_pages: u64) -> TenantSpec {
        TenantSpec::new(name, quota_pages * PAGE_SIZE)
    }

    #[test]
    fn two_tenants_complete_and_share() {
        let mut svc = PlacementService::new(ServiceConfig::new(64 * PAGE_SIZE).with_seed(7));
        svc.submit(spec("a", 16), job(2, 3, 1)).unwrap();
        svc.submit(spec("b", 16), job(2, 3, 2)).unwrap();
        let rep = svc.run();
        assert_eq!(rep.completed, 2);
        assert_eq!(rep.quota_violations, 0);
        assert!(rep.clock_ns > 0.0);
        assert!(rep.fairness_jain > 0.5, "jain {}", rep.fairness_jain);
        for t in &rep.tenants {
            assert_eq!(t.status, TenantStatus::Completed);
            assert_eq!(t.rounds_done, 3);
        }
    }

    #[test]
    fn overload_squeezes_lowest_priority() {
        let mut svc = PlacementService::new(ServiceConfig::new(24 * PAGE_SIZE).with_seed(7));
        svc.submit(
            spec("hi", 16)
                .with_priority(9)
                .with_min_quota(8 * PAGE_SIZE),
            job(2, 2, 1),
        )
        .unwrap();
        svc.submit(
            spec("lo", 16)
                .with_priority(1)
                .with_min_quota(4 * PAGE_SIZE),
            job(2, 2, 2),
        )
        .unwrap();
        let rep = svc.run();
        let hi = &rep.tenants[0];
        let lo = &rep.tenants[1];
        assert_eq!(hi.granted_quota, 16 * PAGE_SIZE);
        assert!(!hi.squeezed);
        // The low-priority tenant is squeezed into what remains.
        assert_eq!(lo.granted_quota, 8 * PAGE_SIZE);
        assert!(lo.squeezed);
        assert_eq!(rep.quota_violations, 0);
    }

    #[test]
    fn full_queue_sheds_by_priority_with_retry_after() {
        let cfg = ServiceConfig::new(64 * PAGE_SIZE)
            .with_max_queue(1)
            .with_seed(3);
        let mut svc = PlacementService::new(cfg);
        svc.submit(spec("first", 8).with_priority(5), job(1, 1, 1))
            .unwrap();
        // Lower priority than the queued tenant: rejected with finite
        // retry-after.
        let out = svc
            .submit(spec("weak", 8).with_priority(1), job(1, 1, 2))
            .unwrap();
        match out {
            SubmitOutcome::Rejected {
                reason,
                retry_after_ns,
                ..
            } => {
                assert_eq!(reason, ShedReason::QueueFull);
                assert!(retry_after_ns.is_finite() && retry_after_ns > 0.0);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // Higher priority: displaces the queued tenant.
        let out = svc
            .submit(spec("strong", 8).with_priority(9), job(1, 1, 3))
            .unwrap();
        assert!(matches!(out, SubmitOutcome::Enqueued(_)));
        let rep = svc.run();
        assert_eq!(
            rep.tenants[0].status,
            TenantStatus::Shed(ShedReason::QueueFull)
        );
        assert_eq!(rep.tenants[2].status, TenantStatus::Completed);
    }

    #[test]
    fn impossible_floor_rejected_without_retry() {
        let mut svc = PlacementService::new(ServiceConfig::new(8 * PAGE_SIZE));
        let out = svc
            .submit(
                spec("huge", 64).with_min_quota(64 * PAGE_SIZE),
                job(1, 1, 1),
            )
            .unwrap();
        match out {
            SubmitOutcome::Rejected {
                reason,
                retry_after_ns,
                ..
            } => {
                assert_eq!(reason, ShedReason::CapacityExceeded);
                assert!(retry_after_ns.is_infinite());
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn queued_tenant_past_deadline_is_shed() {
        let mut svc = PlacementService::new(ServiceConfig::new(16 * PAGE_SIZE).with_seed(5));
        // Hog takes the whole pool; impatient can't fit and expires while
        // waiting.
        svc.submit(spec("hog", 16), job(2, 4, 1)).unwrap();
        svc.submit(spec("impatient", 16).with_deadline_ns(1.0), job(2, 2, 2))
            .unwrap();
        let rep = svc.run();
        assert_eq!(rep.tenants[0].status, TenantStatus::Completed);
        assert_eq!(
            rep.tenants[1].status,
            TenantStatus::Shed(ShedReason::DeadlineExpired)
        );
        assert!(rep.tenants[1].deadline_missed);
    }

    #[test]
    fn crash_quarantines_only_the_faulted_tenant() {
        use crate::fault::{CrashPoint, FaultKind, FaultPlan};
        let mut svc = PlacementService::new(ServiceConfig::new(64 * PAGE_SIZE).with_seed(11));
        let app = SkewedWorkload {
            tasks: 2,
            rounds: 4,
            base_accesses: 1e5,
            obj_bytes: 8 * PAGE_SIZE,
        };
        let mut sys = HmSystem::new(HmConfig::calibrated(64 * PAGE_SIZE, 1024 * PAGE_SIZE), 9);
        sys.set_fault_plan(FaultPlan::none().with_fault(FaultKind::Crash {
            round: 1,
            point: CrashPoint::BetweenRounds,
        }))
        .unwrap();
        let chaotic = Executor::new(sys, app, StaticPolicy { tier: Tier::Pm });
        svc.submit(spec("chaotic", 16), Box::new(chaotic)).unwrap();
        svc.submit(spec("steady", 16), job(2, 3, 2)).unwrap();
        let rep = svc.run();
        assert!(matches!(
            rep.tenants[0].status,
            TenantStatus::Quarantined { .. }
        ));
        assert_eq!(rep.tenants[1].status, TenantStatus::Completed);
        assert_eq!(rep.tenants[1].rounds_done, 3);
        assert_eq!(rep.quarantined, 1);
    }

    #[test]
    fn offline_renegotiates_grants_priority_ordered() {
        // Pool 40 pages: hi (quota 16, floor 8, prio 9) and lo (quota 16,
        // floor 8, prio 1) both run with full grants. Offlining 16 pages
        // shrinks the pool to 24: hi keeps its 16, lo is squeezed to the
        // remaining 8 — exactly its floor, honored.
        let mut svc = PlacementService::new(ServiceConfig::new(40 * PAGE_SIZE).with_seed(7));
        svc.submit(
            spec("hi", 16)
                .with_priority(9)
                .with_min_quota(8 * PAGE_SIZE),
            job(2, 4, 1),
        )
        .unwrap();
        svc.submit(
            spec("lo", 16)
                .with_priority(1)
                .with_min_quota(8 * PAGE_SIZE),
            job(2, 4, 2),
        )
        .unwrap();
        assert!(svc.step());
        assert_eq!(svc.outstanding_grants(), 32 * PAGE_SIZE);
        let ren = svc.offline_dram(16 * PAGE_SIZE);
        assert_eq!(ren.offlined_bytes, 16 * PAGE_SIZE);
        assert_eq!(ren.kept, vec![TenantId(0)]);
        assert_eq!(ren.squeezed, vec![(TenantId(1), 8 * PAGE_SIZE)]);
        assert!(ren.displaced.is_empty() && ren.shed.is_empty());
        assert_eq!(svc.outstanding_grants(), 24 * PAGE_SIZE);
        assert!(svc.outstanding_grants() <= svc.config().total_dram_bytes);
        let rep = svc.run();
        assert_eq!(rep.completed, 2);
        assert_eq!(rep.quota_violations, 0);
    }

    #[test]
    fn offline_displaces_with_capped_retry_after_and_sheds_impossible_floors() {
        // Pool 32 pages, both tenants hold 16. Offlining 26 pages leaves 6:
        // hi is squeezed to its floor (4 ≤ 6 → grant 6), lo's floor of 8
        // exceeds the remainder (0) *and* the shrunk pool — shed outright
        // with no retry that could ever help.
        let mut svc = PlacementService::new(ServiceConfig::new(32 * PAGE_SIZE).with_seed(7));
        svc.submit(
            spec("hi", 16)
                .with_priority(9)
                .with_min_quota(4 * PAGE_SIZE),
            job(2, 4, 1),
        )
        .unwrap();
        svc.submit(
            spec("lo", 16)
                .with_priority(1)
                .with_min_quota(8 * PAGE_SIZE),
            job(2, 4, 2),
        )
        .unwrap();
        assert!(svc.step());
        let ren = svc.offline_dram(26 * PAGE_SIZE);
        assert_eq!(ren.squeezed, vec![(TenantId(0), 6 * PAGE_SIZE)]);
        assert_eq!(ren.shed, vec![TenantId(1)]);
        assert!(svc.outstanding_grants() <= svc.config().total_dram_bytes);
        let rep = svc.run();
        assert_eq!(rep.tenants[0].status, TenantStatus::Completed);
        assert_eq!(
            rep.tenants[1].status,
            TenantStatus::Shed(ShedReason::CapacityExceeded)
        );
        assert!(rep.tenants[1].retry_responses >= 1);
        assert_eq!(rep.quota_violations, 0);
    }

    #[test]
    fn displaced_tenant_requeues_and_completes_after_capacity_frees() {
        // Pool 32 pages; lo's floor (12) fits the shrunk pool of 20 but not
        // what remains after hi keeps 16 — displaced back to the queue with
        // a finite capped retry-after, then re-admitted once hi completes.
        let mut svc = PlacementService::new(ServiceConfig::new(32 * PAGE_SIZE).with_seed(7));
        svc.submit(
            spec("hi", 16)
                .with_priority(9)
                .with_min_quota(8 * PAGE_SIZE),
            job(2, 2, 1),
        )
        .unwrap();
        svc.submit(
            spec("lo", 16)
                .with_priority(1)
                .with_min_quota(12 * PAGE_SIZE),
            job(2, 2, 2),
        )
        .unwrap();
        assert!(svc.step());
        let ren = svc.offline_dram(12 * PAGE_SIZE);
        assert_eq!(ren.kept, vec![TenantId(0)]);
        assert_eq!(ren.displaced.len(), 1);
        let (id, retry_after_ns) = ren.displaced[0];
        assert_eq!(id, TenantId(1));
        assert!(retry_after_ns.is_finite() && retry_after_ns > 0.0);
        assert!(retry_after_ns <= svc.config().retry_cap_ns as f64);
        assert_eq!(svc.outstanding_grants(), 16 * PAGE_SIZE);
        let rep = svc.run();
        assert_eq!(rep.completed, 2);
        assert_eq!(rep.quota_violations, 0);
        // The re-admitted grant fits the shrunk pool.
        assert_eq!(rep.tenants[1].granted_quota, 16 * PAGE_SIZE);
    }

    /// Build a tenant job with a fault plan armed.
    fn chaos_job(
        tasks: usize,
        rounds: usize,
        seed: u64,
        plan: crate::fault::FaultPlan,
    ) -> Box<dyn TenantJob> {
        let app = SkewedWorkload {
            tasks,
            rounds,
            base_accesses: 1e5,
            obj_bytes: 8 * PAGE_SIZE,
        };
        let mut sys = HmSystem::new(HmConfig::calibrated(64 * PAGE_SIZE, 1024 * PAGE_SIZE), seed);
        sys.set_fault_plan(plan).unwrap();
        Box::new(Executor::new(sys, app, StaticPolicy { tier: Tier::Pm }))
    }

    #[test]
    fn panicking_tenant_trips_probes_and_completes() {
        use crate::fault::FaultPlan;
        // "victim" panics at round 1 until the breaker trips (3 strikes);
        // the Half-Open probe restores the round-1 checkpoint with the
        // one-shot panic disarmed, so the probe replays cleanly and the
        // tenant runs to completion. "steady" must be untouched.
        let mut svc = PlacementService::new(ServiceConfig::new(64 * PAGE_SIZE).with_seed(11));
        svc.submit(
            spec("victim", 16),
            chaos_job(2, 4, 9, FaultPlan::none().with_tenant_panic(1)),
        )
        .unwrap();
        svc.submit(spec("steady", 16), job(2, 3, 2)).unwrap();
        let rep = svc.run();
        assert_eq!(rep.tenants[0].status, TenantStatus::Completed);
        assert_eq!(rep.tenants[0].rounds_done, 4);
        assert_eq!(rep.tenants[0].breaker_trips, 1);
        assert_eq!(rep.tenants[0].fault.tenant_panics, 3, "one per strike");
        assert_eq!(rep.tenants[1].status, TenantStatus::Completed);
        assert_eq!(rep.tenants[1].breaker_trips, 0);
        assert_eq!(rep.tripped, 1);
        assert_eq!(rep.quarantined, 0);
        assert_eq!(rep.quota_violations, 0);
        // The survivor's rounds are bitwise identical to a solo run.
        let mut solo = PlacementService::new(ServiceConfig::new(64 * PAGE_SIZE).with_seed(11));
        solo.submit(spec("steady", 16), job(2, 3, 2)).unwrap();
        solo.run();
        assert_eq!(
            format!("{:?}", svc.tenant_run_report(TenantId(1)).rounds),
            format!("{:?}", solo.tenant_run_report(TenantId(0)).rounds),
        );
    }

    #[test]
    fn stalling_tenant_is_quarantined_after_max_trips() {
        use crate::fault::FaultPlan;
        // A stall fault is *not* disarmed by the probe restore (a hung
        // dependency stays hung): every probe re-strikes, every re-trip
        // burns one of `max_trips`, and the tenant ends Quarantined while
        // the co-tenant completes untouched.
        let cfg = ServiceConfig::new(64 * PAGE_SIZE)
            .with_seed(11)
            // Clean rounds sit near 4e5 ns; a stalled round (1024×
            // inflation) lands near 4e8 — well past this threshold.
            .with_stall_threshold_ns(1e8);
        let mut svc = PlacementService::new(cfg.clone());
        svc.submit(
            spec("hung", 16),
            chaos_job(2, 6, 9, FaultPlan::none().with_tenant_stall(1, 6)),
        )
        .unwrap();
        svc.submit(spec("steady", 16), job(2, 3, 2)).unwrap();
        let rep = svc.run();
        assert!(
            matches!(rep.tenants[0].status, TenantStatus::Quarantined { .. }),
            "hung tenant must end quarantined, got {:?}",
            rep.tenants[0].status
        );
        assert!(rep.tenants[0].breaker_trips >= cfg.breaker.max_trips);
        assert!(rep.tenants[0].fault.stalled_rounds > 0);
        assert_eq!(rep.tenants[1].status, TenantStatus::Completed);
        assert_eq!(rep.quarantined, 1);
        // The quarantined grant was re-absorbed: nothing outstanding at
        // the end, and the service terminated (we got here).
        assert_eq!(svc.outstanding_grants(), 0);
    }

    #[test]
    fn trip_checkpoint_roundtrips_breaker_frame() {
        use crate::fault::FaultPlan;
        // Drive the serial loop until the victim trips, then decode its
        // trip checkpoint: the embedded frame must equal the live one.
        let mut svc = PlacementService::new(ServiceConfig::new(64 * PAGE_SIZE).with_seed(11));
        svc.submit(
            spec("victim", 16),
            chaos_job(2, 4, 9, FaultPlan::none().with_tenant_panic(1)),
        )
        .unwrap();
        let mut steps = 0;
        while svc.tenants()[0].trip_checkpoint.is_none() && svc.step() {
            steps += 1;
            assert!(steps < 1000, "victim never tripped");
        }
        let text = svc.tenants()[0].trip_checkpoint.clone().unwrap();
        let ck = crate::checkpoint::Checkpoint::decode(&text).unwrap();
        assert_eq!(ck.breaker, svc.tenants()[0].breaker);
        assert!(ck.breaker.is_open());
        assert_eq!(ck.breaker.trips, 1);
        // The suspended tenant holds no grant while Open.
        assert_eq!(svc.tenants()[0].granted_quota, None);
        assert!(!svc.tenants()[0].runnable());
        // And the run still converges.
        let rep = svc.run();
        assert_eq!(rep.completed, 1);
    }

    #[test]
    fn wal_dir_persists_trip_checkpoint() {
        use crate::fault::FaultPlan;
        let dir = std::env::temp_dir().join(format!("merch-contain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut svc = PlacementService::new(
            ServiceConfig::new(64 * PAGE_SIZE)
                .with_seed(11)
                .with_wal_dir(&dir),
        );
        svc.submit(
            spec("victim", 16),
            chaos_job(2, 4, 9, FaultPlan::none().with_tenant_panic(1)),
        )
        .unwrap();
        let rep = svc.run();
        assert_eq!(rep.completed, 1);
        // The trip checkpoint is durably recoverable from the per-tenant WAL.
        let path = dir.join("tenant-0.wal");
        let recovered = crate::checkpoint::Wal::latest(&path).unwrap().unwrap();
        assert!(recovered.breaker.is_open());
        assert_eq!(recovered.breaker.trips, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_capacity_queue_rejects_without_panicking() {
        let cfg = ServiceConfig::new(64 * PAGE_SIZE).with_max_queue(0);
        let mut svc = PlacementService::new(cfg);
        let out = svc.submit(spec("a", 8), job(1, 1, 1)).unwrap();
        assert!(
            matches!(
                out,
                SubmitOutcome::Rejected {
                    reason: ShedReason::QueueFull,
                    ..
                }
            ),
            "zero-capacity queue must reject, got {out:?}"
        );
    }

    #[test]
    fn drr_share_tracks_weight() {
        let mut svc = PlacementService::new(ServiceConfig::new(64 * PAGE_SIZE).with_seed(13));
        svc.submit(spec("w1", 16).with_weight(1), job(2, 12, 1))
            .unwrap();
        svc.submit(spec("w3", 16).with_weight(3), job(2, 12, 2))
            .unwrap();
        let rep = svc.run();
        // Identical workloads, so equal total service; fairness of the
        // *rate* shows up in the interleaving order instead. Both finish.
        assert_eq!(rep.completed, 2);
        // Weight-3 tenant must never fall behind the weight-1 tenant by
        // more than a cycle's lag at completion time.
        assert!(rep.tenants[1].finished_at_ns <= rep.tenants[0].finished_at_ns);
    }
}
