//! The emulated heterogeneous memory system: allocation, placement,
//! migration with capacity management, and page-level profiling state.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::config::{HmConfig, Tier};
use crate::epoch::{EpochOutcome, EpochState};
use crate::fault::{FaultInjector, FaultPlan, FaultStats};
use crate::object::{DataObject, ObjectId, ObjectSpec};
use crate::page::{page_weights, PageId, PageTable, PAGE_SIZE};

/// Error type for system operations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum HmError {
    /// The requested tier lacks capacity for the allocation/migration.
    OutOfCapacity {
        /// Tier that overflowed.
        tier: Tier,
        /// Bytes requested.
        requested: u64,
        /// Bytes available.
        available: u64,
    },
    /// Unknown object name.
    NoSuchObject(String),
    /// A page migration kept failing after exhausting its retry budget.
    MigrationFailed {
        /// The page that could not be moved.
        page: PageId,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A configuration value is out of its legal domain.
    InvalidConfig(String),
    /// An [`ObjectId`] that does not name an allocated object reached a
    /// lookup (stale handle, profile from a different run).
    UnknownObject(ObjectId),
    /// The scripted crash fault fired: the process hosting the runtime
    /// died during `round`. Continue via `Executor::resume`.
    Crashed {
        /// Round the crash struck in.
        round: u64,
    },
    /// A checkpoint record failed validation (bad header, checksum
    /// mismatch, or malformed payload).
    CheckpointCorrupt(String),
    /// Checkpoint I/O kept failing after exhausting its retry budget.
    CheckpointIo(String),
}

impl std::fmt::Display for HmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HmError::OutOfCapacity {
                tier,
                requested,
                available,
            } => write!(
                f,
                "out of {tier} capacity: requested {requested} B, available {available} B"
            ),
            HmError::NoSuchObject(n) => write!(f, "no such object: {n}"),
            HmError::MigrationFailed { page, attempts } => {
                write!(
                    f,
                    "migration of page {page} failed after {attempts} attempts"
                )
            }
            HmError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            HmError::UnknownObject(id) => write!(f, "unknown object id: {}", id.0),
            HmError::Crashed { round } => {
                write!(f, "scripted crash fired during round {round}")
            }
            HmError::CheckpointCorrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            HmError::CheckpointIo(msg) => write!(f, "checkpoint I/O failed: {msg}"),
        }
    }
}

impl std::error::Error for HmError {}

/// Outcome of one migration request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MigrationOutcome {
    /// Pages actually moved toward the requested tier.
    pub pages_moved: u64,
    /// Pages evicted from DRAM to make room (least-frequently-accessed
    /// eviction, §6 "DRAM space management").
    pub pages_evicted: u64,
    /// Pages abandoned after their migration attempts kept failing
    /// (injected faults; zero without a fault plan).
    pub pages_failed: u64,
}

/// The emulated HM system.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HmSystem {
    /// Configuration (tier parameters, caching model).
    pub config: HmConfig,
    page_table: PageTable,
    objects: Vec<DataObject>,
    by_name: BTreeMap<String, ObjectId>,
    /// Cumulative pages migrated (both directions), for overhead accounting.
    pub total_migrations: u64,
    /// Cumulative migration *attempts* including failed ones. Equals
    /// `total_migrations` when no faults are injected; the runtime charges
    /// migration overhead by attempts so retries cost wall time.
    pub total_migration_attempts: u64,
    /// Cumulative simulated backoff delay (ns) spent between migration
    /// retry attempts (zero without injected failures).
    pub total_backoff_ns: f64,
    /// Migration epochs that ended with their moves kept.
    pub epoch_commits: u64,
    /// Migration epochs that ended torn and were rolled back.
    pub epoch_rollbacks: u64,
    seed: u64,
    fault: Option<FaultInjector>,
    /// Service-imposed cap on DRAM bytes this system may hold resident.
    /// `None` (the default) leaves the configured tier capacity as the only
    /// limit. The multi-tenant service sets this at admission time so one
    /// tenant can never spill into a co-tenant's share of the pool.
    dram_quota: Option<u64>,
    /// Co-tenant pressure reservation for the current round, read from the
    /// fault injector exactly once per round boundary. Quota math, the
    /// eviction budget, and [`free_bytes`](Self::free_bytes) all consume
    /// this one cached value, so they can never disagree mid-round.
    round_pressure: u64,
    /// DRAM bytes permanently offlined (a DIMM/rank died). Persistent and
    /// monotone: unlike pressure, offlined capacity never comes back.
    offlined_bytes: u64,
    /// Device degradation active this round (`(tier, latency multiplier,
    /// bandwidth multiplier)`), hoisted from the injector once per round
    /// boundary like `round_pressure`. Transient: recomputed by
    /// `begin_round` (and on restore), pure in (plan, round).
    degrade: Option<(Tier, f64, f64)>,
    /// Did the degradation window open or close at this round's boundary?
    /// Pure in (plan, round) — never stateful history, so crash-resume
    /// replays window edges bit-identically.
    degrade_shifted: bool,
    /// In-flight transactional migration epoch, if one is open.
    epoch: Option<EpochState>,
}

impl HmSystem {
    /// Create a system with the given configuration. `seed` drives the
    /// deterministic page-weight assignment for skewed objects.
    pub fn new(config: HmConfig, seed: u64) -> Self {
        Self {
            config,
            page_table: PageTable::default(),
            objects: Vec::new(),
            by_name: BTreeMap::new(),
            total_migrations: 0,
            total_migration_attempts: 0,
            total_backoff_ns: 0.0,
            epoch_commits: 0,
            epoch_rollbacks: 0,
            seed,
            fault: None,
            dram_quota: None,
            round_pressure: 0,
            offlined_bytes: 0,
            degrade: None,
            degrade_shifted: false,
            epoch: None,
        }
    }

    /// The page-weight seed this system was created with (also keys the
    /// deterministic jitter of checkpoint-write retries).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Arm fault injection for this system. A [`FaultPlan::none`] plan
    /// removes the injector entirely, restoring the exact no-fault code
    /// path. Returns `InvalidConfig` for out-of-domain rates.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), HmError> {
        plan.validate()?;
        self.fault = if plan.is_none() {
            None
        } else {
            Some(FaultInjector::new(plan))
        };
        self.round_pressure = self.fault.as_ref().map_or(0, |f| f.current_pressure());
        Ok(())
    }

    /// Cap the DRAM bytes this system may hold resident (`None` removes the
    /// cap). Enforced at allocation and migration time via
    /// [`free_bytes`](Self::free_bytes) and at round boundaries via
    /// [`begin_round`](Self::begin_round), which evicts LFU overflow when a
    /// quota shrinks below current residency (the service "squeeze" path).
    pub fn set_dram_quota(&mut self, quota: Option<u64>) {
        self.dram_quota = quota;
    }

    /// The service-imposed DRAM quota, if one is set.
    pub fn dram_quota(&self) -> Option<u64> {
        self.dram_quota
    }

    /// DRAM capacity physically present: the configured capacity minus
    /// permanently offlined bytes minus frames dead to ECC poisoning. Each
    /// subtraction saturates, so over-shrinking floors at zero instead of
    /// wrapping.
    pub fn physical_dram_capacity(&self) -> u64 {
        self.config
            .dram
            .capacity
            .saturating_sub(self.offlined_bytes)
            .saturating_sub(self.page_table.quarantine_bytes())
    }

    /// DRAM capacity actually available this round. The shrink ordering is
    /// load-bearing: physical losses first (offlining, poisoned frames —
    /// those bytes do not exist), then the service quota caps what is left
    /// (a quota can never grant dead capacity), then the round's co-tenant
    /// pressure reservation subtracts last, saturating at zero.
    pub fn effective_dram_capacity(&self) -> u64 {
        let mut cap = self.physical_dram_capacity();
        if let Some(q) = self.dram_quota {
            cap = cap.min(q);
        }
        cap.saturating_sub(self.round_pressure)
    }

    /// DRAM bytes permanently offlined so far.
    pub fn offlined_dram_bytes(&self) -> u64 {
        self.offlined_bytes
    }

    /// Permanently remove `bytes` of DRAM capacity (the OS offlined a
    /// DIMM/rank after an error storm). Monotone and irreversible; the
    /// cumulative offlined total is clamped to the configured capacity.
    /// Overflowing residency is evicted at the next round boundary.
    pub fn offline_dram(&mut self, bytes: u64) {
        self.offlined_bytes = self
            .offlined_bytes
            .saturating_add(bytes)
            .min(self.config.dram.capacity);
    }

    /// The device degradation active this round, if any: `(tier, latency
    /// multiplier, bandwidth multiplier)`.
    pub fn degradation(&self) -> Option<(Tier, f64, f64)> {
        self.degrade
    }

    /// Did the degradation window open or close at this round's boundary?
    pub fn degradation_shifted(&self) -> bool {
        self.degrade_shifted
    }

    /// The tier configuration tasks actually execute under this round: the
    /// base configuration with the active degradation window applied.
    /// Without an open window this is a bitwise-identical clone, keeping
    /// the no-fault path byte-for-byte unchanged.
    pub fn active_config(&self) -> HmConfig {
        match self.degrade {
            Some((tier, lat, bw)) => self.config.degraded(tier, lat, bw),
            None => self.config.clone(),
        }
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref().map(|f| f.plan())
    }

    /// Fault statistics accumulated so far (zero when no plan is armed).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.as_ref().map(|f| f.stats()).unwrap_or_default()
    }

    /// Mutable access to the injector for profilers (sample-dropout draws).
    pub fn fault_injector_mut(&mut self) -> Option<&mut FaultInjector> {
        self.fault.as_mut()
    }

    /// Shared access to the injector (checkpoint serialization).
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.fault.as_ref()
    }

    /// Has the scripted crash fault fired?
    pub fn crashed(&self) -> bool {
        self.fault.as_ref().is_some_and(|f| f.crashed())
    }

    /// Does the scripted crash strike at the boundary before `round`?
    /// Latches [`crashed`](Self::crashed) when it does.
    pub fn crash_at_round_start(&mut self, round: u64) -> bool {
        self.fault
            .as_mut()
            .is_some_and(|f| f.crash_at_round_start(round))
    }

    /// Disarm the scripted crash after recovery so the resumed run does
    /// not die at the same point again.
    pub fn disarm_crash(&mut self) {
        if let Some(f) = self.fault.as_mut() {
            f.disarm_crash();
        }
    }

    /// Is a scripted tenant panic due at the boundary before `round`?
    /// Pure and non-latching (see `FaultInjector::panic_due`).
    pub fn panic_due(&self, round: u64) -> bool {
        self.fault.as_ref().is_some_and(|f| f.panic_due(round))
    }

    /// Record a scripted tenant panic about to fire.
    pub fn note_tenant_panic(&mut self) {
        if let Some(f) = self.fault.as_mut() {
            f.note_tenant_panic();
        }
    }

    /// Wall-time multiplier for `round` under an open tenant-stall window
    /// (1 when none is armed or open).
    pub fn stall_multiplier(&self, round: u64) -> f64 {
        self.fault
            .as_ref()
            .map_or(1.0, |f| f.stall_multiplier(round))
    }

    /// Record a round executed inside an open tenant-stall window.
    pub fn note_stalled_round(&mut self) {
        if let Some(f) = self.fault.as_mut() {
            f.note_stalled_round();
        }
    }

    /// Start round `round`: advance the injector's clock, hoist the round's
    /// co-tenant pressure into the cached round context, land the round's
    /// device faults (degradation window state, newly due offlining, ECC
    /// poison strike), and evict LFU pages until DRAM residency fits the
    /// effective budget (physical losses, quota and pressure combined).
    /// Returns pages evicted (charged as migration overhead by the caller
    /// via `total_migration_attempts`).
    pub fn begin_round(&mut self, round: u64) -> u64 {
        if let Some(fault) = self.fault.as_mut() {
            fault.begin_round(round);
        }
        // One pressure read per round: quota math, the eviction budget
        // below, and every `free_bytes` call this round share this value.
        self.round_pressure = self.fault.as_ref().map_or(0, |f| f.current_pressure());
        // Device faults land before the epoch opens, so quarantine and
        // offlining are stable for the whole round and never part of a
        // rollback.
        self.advance_device_clock(round);
        if self.round_pressure == 0
            && self.dram_quota.is_none()
            && self.offlined_bytes == 0
            && self.page_table.quarantined_count() == 0
        {
            return 0;
        }
        let budget = self.effective_dram_capacity();
        let used = self.page_table.bytes_in(Tier::Dram);
        let overflow_pages = used.saturating_sub(budget).div_ceil(PAGE_SIZE);
        if overflow_pages == 0 {
            return 0;
        }
        let evicted = self.evict_lfu_dram_pages(overflow_pages, None);
        if self.round_pressure > 0 {
            if let Some(fault) = self.fault.as_mut() {
                fault.note_pressure_evictions(evicted);
            }
        }
        evicted
    }

    /// Advance the device-fault clock at the `round` boundary: refresh the
    /// degradation-window state, apply newly due capacity offlining, and
    /// land this round's ECC-UE poison strike (if any) on a DRAM-resident
    /// victim. Every decision is pure in (plan, round, placement), so
    /// replays and crash-resumes are bit-identical.
    fn advance_device_clock(&mut self, round: u64) {
        let (now, prev) = match self.fault.as_ref() {
            Some(f) => (
                f.current_degradation(round),
                if round == 0 {
                    None
                } else {
                    f.current_degradation(round - 1)
                },
            ),
            None => {
                self.degrade = None;
                self.degrade_shifted = false;
                return;
            }
        };
        self.degrade = now;
        self.degrade_shifted = now != prev;
        if now.is_some() {
            if let Some(f) = self.fault.as_mut() {
                f.note_window_round();
            }
        }
        // Capacity offlining: monotone in the round, applied as the
        // difference against what is already offline — idempotent across
        // checkpoint/resume.
        let due = self
            .fault
            .as_ref()
            .map_or(0, |f| f.offline_due(round))
            .min(self.config.dram.capacity);
        if due > self.offlined_bytes {
            let newly = due - self.offlined_bytes;
            self.offlined_bytes = due;
            if let Some(f) = self.fault.as_mut() {
                f.note_offlined(newly);
            }
        }
        // Poison strike: at most one DRAM-resident frame per round, the
        // victim drawn over the residents in ascending page-id order.
        if self.fault.as_ref().is_some_and(|f| f.poison_strikes(round)) {
            // The victim draw is over DRAM residents in ascending page-id
            // order; an O(runs) order-statistic walk finds the idx-th
            // resident without materializing the resident list.
            let residents = self.page_table.pages_in(Tier::Dram);
            if residents > 0 {
                let idx = self
                    .fault
                    .as_ref()
                    .map_or(0, |f| f.poison_victim_index(round, residents));
                let victim = self
                    .page_table
                    .nth_page_in_tier(Tier::Dram, idx)
                    .expect("resident count covers idx");
                self.poison_page(victim);
            }
        }
    }

    /// Poison page `victim`: quarantine it (its DRAM frame is dead and the
    /// page may never reside on DRAM again), remap it to PM, and charge the
    /// remap as one migration attempt so the ECC repair cost lands in this
    /// round's migration overhead. Idempotent for an already-quarantined
    /// page.
    pub fn poison_page(&mut self, victim: PageId) {
        if !self.page_table.quarantine_page(victim) {
            return;
        }
        if self.page_table.get(victim).tier() == Tier::Dram {
            self.page_table.set_tier(victim, Tier::Pm);
            self.page_table.bump_migrations(victim);
            self.total_migrations += 1;
            self.total_migration_attempts += 1;
            self.page_table.flush_aggregates();
        }
        if let Some(f) = self.fault.as_mut() {
            f.note_poisoned_page();
        }
    }

    /// Open a transactional migration epoch for `round`. Until
    /// [`end_epoch`](Self::end_epoch), the first move of each page records
    /// its pre-epoch `(tier, migrations)` into an undo map.
    pub fn begin_epoch(&mut self, round: u64) {
        self.epoch = Some(EpochState::new(round));
    }

    /// Close the open epoch. The epoch is *torn* when the scripted crash
    /// latched inside it or a `MigrationFailed` burst abandoned more pages
    /// than it moved; a torn epoch rolls every touched page back to its
    /// pre-epoch state (bitwise-identical page table, aggregates
    /// re-flushed) and counts a rollback. A clean epoch that touched pages
    /// commits; one that touched nothing is [`EpochOutcome::Clean`].
    /// Physical history (attempt counters, backoff, fault statistics) is
    /// never rewound — those costs were really paid.
    pub fn end_epoch(&mut self) -> EpochOutcome {
        let Some(ep) = self.epoch.take() else {
            return EpochOutcome::Clean;
        };
        let torn = self.crashed() || ep.pages_failed > ep.pages_moved;
        if torn {
            for (&page, &(tier, migrations)) in ep.undo.iter() {
                // A torn epoch must never resurrect a poisoned frame:
                // quarantine is monotone state outside the transaction, so
                // a quarantined page stays pinned to PM regardless of the
                // tier its undo entry recorded.
                let tier = if self.page_table.is_quarantined(page) {
                    Tier::Pm
                } else {
                    tier
                };
                self.page_table.set_tier(page, tier);
                self.page_table.set_migrations(page, migrations);
            }
            self.page_table.flush_aggregates();
            self.epoch_rollbacks += 1;
            EpochOutcome::RolledBack
        } else if ep.undo.is_empty() {
            EpochOutcome::Clean
        } else {
            self.epoch_commits += 1;
            EpochOutcome::Committed
        }
    }

    /// Record `id`'s pre-move state into the open epoch's undo map, if any.
    fn note_epoch_touch(&mut self, id: PageId) {
        if let Some(epoch) = self.epoch.as_mut() {
            let p = self.page_table.get(id);
            epoch.note_touch(id, p.tier(), p.migrations);
        }
    }

    /// Allocate an object on `tier` (software solutions allocate on PM and
    /// migrate up; DRAM-only allocates on DRAM).
    pub fn allocate(&mut self, spec: &ObjectSpec, tier: Tier) -> Result<ObjectId, HmError> {
        let num_pages = spec.size.div_ceil(PAGE_SIZE).max(1);
        let bytes = num_pages * PAGE_SIZE;
        let available = self.free_bytes(tier);
        if bytes > available {
            return Err(HmError::OutOfCapacity {
                tier,
                requested: bytes,
                available,
            });
        }
        let id = ObjectId(self.objects.len() as u32);
        let weights = page_weights(
            num_pages,
            spec.hot_page_skew,
            self.seed ^ (id.0 as u64) << 17,
        );
        let first_page = self.page_table.extend_for_object(id, tier, weights);
        self.objects.push(DataObject {
            id,
            name: spec.name.clone(),
            size: spec.size,
            first_page,
            num_pages,
            owner_task: spec.owner_task,
        });
        self.by_name.insert(spec.name.clone(), id);
        Ok(id)
    }

    /// Allocate a full workload object list on `tier`.
    pub fn allocate_all(
        &mut self,
        specs: &[ObjectSpec],
        tier: Tier,
    ) -> Result<Vec<ObjectId>, HmError> {
        specs.iter().map(|s| self.allocate(s, tier)).collect()
    }

    /// Object metadata by id. Panics on a stale id; policy-reachable code
    /// should use [`try_object`](Self::try_object) instead.
    pub fn object(&self, id: ObjectId) -> &DataObject {
        &self.objects[id.0 as usize]
    }

    /// Fallible object lookup: `Err(HmError::UnknownObject)` for an id
    /// that no allocation produced (stale handle, foreign profile).
    pub fn try_object(&self, id: ObjectId) -> Result<&DataObject, HmError> {
        self.objects
            .get(id.0 as usize)
            .ok_or(HmError::UnknownObject(id))
    }

    /// Object id by name.
    pub fn object_by_name(&self, name: &str) -> Result<ObjectId, HmError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| HmError::NoSuchObject(name.to_string()))
    }

    /// All objects.
    pub fn objects(&self) -> &[DataObject] {
        &self.objects
    }

    /// The page table (profilers scan this).
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Mutable page table access for profilers (resetting accessed bits).
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }

    /// Free bytes on `tier`. DRAM capacity shrinks by the service quota
    /// (when set) and by the round's cached co-tenant pressure reservation
    /// — the same [`effective_dram_capacity`](Self::effective_dram_capacity)
    /// the round-boundary eviction budget uses, so the two never disagree
    /// mid-round.
    pub fn free_bytes(&self, tier: Tier) -> u64 {
        let cap = match tier {
            Tier::Dram => self.effective_dram_capacity(),
            Tier::Pm => self.config.pm.capacity,
        };
        cap.saturating_sub(self.page_table.bytes_in(tier))
    }

    /// Weighted fraction of `object`'s accesses served from `tier` under the
    /// current placement.
    pub fn dram_fraction(&self, object: ObjectId) -> f64 {
        let Ok(o) = self.try_object(object) else {
            return 0.0;
        };
        self.page_table.weighted_fraction_in(o.pages(), Tier::Dram)
    }

    /// Record `accesses` object-level accesses against `object`'s pages
    /// (sets accessed bits, bumps counters). A stale id records nothing.
    pub fn record_accesses(&mut self, object: ObjectId, accesses: f64) {
        let Ok(o) = self.try_object(object) else {
            return;
        };
        let range = o.pages();
        self.page_table.record_accesses(range, accesses);
    }

    /// Migrate up to `max_pages` of `object`'s pages to `to`, hottest-first
    /// (by page weight — the access distribution a perfect profiler would
    /// see). If DRAM is full, evict the least-frequently-accessed DRAM
    /// pages to PM first (§6 "DRAM space management"). Returns how many
    /// pages moved.
    pub fn migrate_object_pages(
        &mut self,
        object: ObjectId,
        to: Tier,
        max_pages: u64,
    ) -> MigrationOutcome {
        let Ok(o) = self.try_object(object) else {
            return MigrationOutcome::default();
        };
        let range = o.pages();
        // Candidates at run granularity: one entry per extent not already
        // on `to`, scored by page weight (uniform within an extent).
        let candidates: Vec<crate::topk::CandidateRun> = self
            .page_table
            .runs_in(range)
            .filter(|r| r.info.tier() != to)
            .map(|r| (r.start, r.len, r.info.weight()))
            .collect();
        // Hottest first when promoting to DRAM; coldest first when demoting.
        // total_cmp: page weights are runtime data, a NaN must not panic.
        let candidates = match to {
            Tier::Dram => crate::topk::expand_hot_runs_top_k(candidates, max_pages as usize),
            Tier::Pm => crate::topk::expand_cold_runs_top_k(candidates, max_pages as usize),
        };
        self.migrate_pages(candidates.iter().map(|&(id, _)| id), to)
    }

    /// Migrate an explicit page list to `to`, evicting LFU DRAM pages when
    /// promoting into a full DRAM.
    ///
    /// With a fault plan armed, each page move may take several attempts
    /// (all charged to `total_migration_attempts`); a page that still
    /// fails after the retry budget is abandoned for this request and
    /// counted in `pages_failed`.
    pub fn migrate_pages(
        &mut self,
        pages: impl IntoIterator<Item = PageId>,
        to: Tier,
    ) -> MigrationOutcome {
        let mut outcome = MigrationOutcome::default();
        if self.fault.is_none() {
            // Fault-free fast path: fold maximal ascending-contiguous id
            // groups out of the stream and apply each as extent
            // splits/merges. Group boundaries preserve the stream's
            // processing order, so counters, undo entries and final
            // placement are bitwise what the per-page loop produces.
            let mut cur: Option<(PageId, PageId)> = None;
            let mut ok = true;
            for id in pages {
                match &mut cur {
                    Some((_, b)) if *b == id => *b += 1,
                    _ => {
                        if let Some((a, b)) = cur.take() {
                            ok = self.migrate_contiguous(a..b, to, &mut outcome);
                            if !ok {
                                break;
                            }
                        }
                        cur = Some((id, id + 1));
                    }
                }
            }
            if ok {
                if let Some((a, b)) = cur.take() {
                    self.migrate_contiguous(a..b, to, &mut outcome);
                }
            }
        } else {
            // Fault plan armed: retries, scripted crashes and failure
            // draws are strictly per-page state machines — keep the
            // original loop verbatim.
            for id in pages {
                if !self.migrate_one(id, to, &mut outcome) {
                    break;
                }
            }
        }
        self.page_table.flush_aggregates();
        // Debug builds re-verify the extent structure after every batch;
        // release builds pay nothing (the no-O(pages)-on-hot-paths rule).
        self.page_table.debug_verify();
        outcome
    }

    /// One iteration of the per-page migration loop. Returns `false` when
    /// the batch must stop (nothing evictable, or a scripted crash).
    fn migrate_one(&mut self, id: PageId, to: Tier, outcome: &mut MigrationOutcome) -> bool {
        if self.page_table.get(id).tier() == to {
            return true;
        }
        // A quarantined page is permanently pinned off DRAM; its
        // promotion is silently filtered rather than failed — failures
        // tear migration epochs, and a dead frame is not a transient
        // fault the epoch could undo.
        if to == Tier::Dram && self.page_table.is_quarantined(id) {
            return true;
        }
        if to == Tier::Dram && self.free_bytes(Tier::Dram) < PAGE_SIZE {
            let evicted = self.evict_lfu_inner(1, Some(id));
            outcome.pages_evicted += evicted;
            if self.free_bytes(Tier::Dram) < PAGE_SIZE {
                return false; // nothing evictable; stop migrating
            }
        }
        match self.migrate_page_inner(id, to) {
            Ok(()) => outcome.pages_moved += 1,
            Err(HmError::MigrationFailed { .. }) => outcome.pages_failed += 1,
            // Scripted crash: the batch dies mid-flight; the pages not
            // reached stay put and the caller observes `crashed()`.
            Err(HmError::Crashed { .. }) => return false,
            Err(_) => unreachable!("migrate_page_inner fails with MigrationFailed or Crashed"),
        }
        true
    }

    /// Migrate one ascending-contiguous id group as whole extents. Only
    /// callable fault-free; falls back to [`migrate_one`](Self::migrate_one)
    /// when a promotion needs interleaved LFU evictions. Returns `false`
    /// when the whole migration must stop.
    fn migrate_contiguous(
        &mut self,
        range: std::ops::Range<PageId>,
        to: Tier,
        outcome: &mut MigrationOutcome,
    ) -> bool {
        debug_assert!(self.fault.is_none());
        // Segments that actually move: runs not already on `to`, with
        // quarantined pages punched out of promotions (silently skipped,
        // exactly as the per-page loop skips them before touching them).
        let mut segs: Vec<(PageId, u64, Tier, u32)> = Vec::new();
        for r in self.page_table.runs_in(range.clone()) {
            if r.info.tier() == to {
                continue;
            }
            let (from, migrations) = (r.info.tier(), r.info.migrations);
            if to == Tier::Dram {
                let mut lo = r.start;
                for q in self
                    .page_table
                    .quarantined_in_range(r.start..r.end())
                    .collect::<Vec<_>>()
                {
                    if q > lo {
                        segs.push((lo, q - lo, from, migrations));
                    }
                    lo = q + 1;
                }
                if r.end() > lo {
                    segs.push((lo, r.end() - lo, from, migrations));
                }
            } else {
                segs.push((r.start, r.len, from, migrations));
            }
        }
        let moving: u64 = segs.iter().map(|&(_, len, _, _)| len).sum();
        if moving == 0 {
            return true;
        }
        if to == Tier::Dram && self.free_bytes(Tier::Dram) < moving * PAGE_SIZE {
            // The per-page loop would interleave LFU evictions with the
            // moves; that ordering is load-bearing (evictions see the
            // partially-promoted table), so take the slow path.
            for id in range {
                if !self.migrate_one(id, to, outcome) {
                    return false;
                }
            }
            return true;
        }
        for &(start, len, from, migrations) in &segs {
            // Record the pre-move state the per-page loop would record.
            if let Some(ep) = self.epoch.as_mut() {
                for id in start..start + len {
                    ep.note_touch(id, from, migrations);
                }
                ep.pages_moved += len;
            }
            self.page_table.set_tier_range(start..start + len, to);
            self.page_table.bump_migrations_range(start..start + len);
            self.total_migrations += len;
            self.total_migration_attempts += len;
            // `total_backoff_ns` is untouched: the first (only) fault-free
            // attempt has zero delay, and adding 0.0 to the non-negative
            // accumulator is a bitwise no-op.
            outcome.pages_moved += len;
        }
        true
    }

    /// Move one page to `to` with bounded retry under fault injection.
    /// Every attempt (failed or not) is charged to
    /// `total_migration_attempts`; without an injector the single attempt
    /// always succeeds.
    pub fn try_migrate_page(&mut self, id: PageId, to: Tier) -> Result<(), HmError> {
        let r = self.migrate_page_inner(id, to);
        self.page_table.flush_aggregates();
        r
    }

    /// [`try_migrate_page`](Self::try_migrate_page) without the aggregate
    /// flush — batched callers flush once after the whole batch.
    fn migrate_page_inner(&mut self, id: PageId, to: Tier) -> Result<(), HmError> {
        // Defense in depth for direct callers: promoting a quarantined
        // page is a silent no-op (batched callers filter earlier and never
        // reach here).
        if to == Tier::Dram && self.page_table.is_quarantined(id) {
            return Ok(());
        }
        self.note_epoch_touch(id);
        let max_retries = self.fault.as_ref().map(|f| f.max_retries()).unwrap_or(0);
        let mut backoff = crate::backoff::Backoff::new(max_retries, self.seed ^ id.rotate_left(23));
        loop {
            if let Some(f) = self.fault.as_mut() {
                if f.crash_before_migration_attempt() {
                    return Err(HmError::Crashed { round: f.round() });
                }
            }
            self.total_migration_attempts += 1;
            self.total_backoff_ns += backoff.delay_ns();
            let failed = self
                .fault
                .as_mut()
                .is_some_and(|f| f.migration_attempt_fails(id, backoff.attempt()));
            if !failed {
                self.page_table.set_tier(id, to);
                self.page_table.bump_migrations(id);
                self.total_migrations += 1;
                if let Some(ep) = self.epoch.as_mut() {
                    ep.pages_moved += 1;
                }
                return Ok(());
            }
            if !backoff.retry() {
                if let Some(f) = self.fault.as_mut() {
                    f.note_failed_page();
                }
                if let Some(ep) = self.epoch.as_mut() {
                    ep.pages_failed += 1;
                }
                return Err(HmError::MigrationFailed {
                    page: id,
                    attempts: backoff.attempt(),
                });
            }
        }
    }

    /// Evict `n` least-frequently-accessed DRAM pages to PM ("the least
    /// frequently accessed pages in DRAM are migrated to PM", §6).
    /// `protect` optionally shields one page from eviction.
    pub fn evict_lfu_dram_pages(&mut self, n: u64, protect: Option<PageId>) -> u64 {
        let evicted = self.evict_lfu_inner(n, protect);
        self.page_table.flush_aggregates();
        evicted
    }

    /// [`evict_lfu_dram_pages`](Self::evict_lfu_dram_pages) without the
    /// aggregate flush, for use inside migration batches.
    fn evict_lfu_inner(&mut self, n: u64, protect: Option<PageId>) -> u64 {
        // DRAM-resident candidates at run granularity, splitting the run
        // containing `protect` around it.
        let mut dram_runs: Vec<crate::topk::CandidateRun> = Vec::new();
        for r in self.page_table.runs() {
            if r.info.tier() != Tier::Dram {
                continue;
            }
            let score = r.info.access_count;
            match protect {
                Some(p) if p >= r.start && p < r.end() => {
                    if p > r.start {
                        dram_runs.push((r.start, p - r.start, score));
                    }
                    if p + 1 < r.end() {
                        dram_runs.push((p + 1, r.end() - (p + 1), score));
                    }
                }
                _ => dram_runs.push((r.start, r.len, score)),
            }
        }
        let mut evicted = 0;
        for (id, _) in crate::topk::expand_cold_runs_top_k(dram_runs, n as usize) {
            self.note_epoch_touch(id);
            self.page_table.set_tier(id, Tier::Pm);
            self.page_table.bump_migrations(id);
            self.total_migrations += 1;
            self.total_migration_attempts += 1;
            if let Some(ep) = self.epoch.as_mut() {
                ep.pages_moved += 1;
            }
            evicted += 1;
        }
        evicted
    }

    /// Move every page of every object to `tier` (used by the PM-only /
    /// DRAM-only baselines). Ignores capacity errors on purpose: baseline
    /// setup is all-or-nothing and checked by the caller via `free_bytes`.
    pub fn place_everything(&mut self, tier: Tier) {
        self.migrate_pages(0..self.page_table.len() as PageId, tier);
    }

    /// Re-draw the hot-page weight distribution of `object` with a new
    /// seed and skew. Models inputs whose hot entries move between task
    /// instances (e.g. a different sparse matrix every main-loop iteration
    /// in SpGEMM): page *identities* stay, their access shares change.
    pub fn reassign_page_weights(&mut self, object: ObjectId, skew: f64, seed: u64) {
        let Some(o) = self.objects.get(object.0 as usize) else {
            return;
        };
        let weights = crate::page::page_weights(o.num_pages, skew, seed);
        self.page_table.set_weights_range(o.first_page, &weights);
        self.page_table.flush_aggregates();
    }

    /// Update the logical size of `object` for the current input (the
    /// paper: "the data object sizes are known right before task execution
    /// during runtime"). Pages stay allocated at the envelope size; the
    /// logical size drives the caching-effect model and Equation 1.
    pub fn set_logical_size(&mut self, object: ObjectId, size: u64) {
        if let Some(o) = self.objects.get_mut(object.0 as usize) {
            o.size = size;
        }
    }

    /// Multiply every page's access counter by `factor` (hotness aging, as
    /// tiering daemons do when they periodically clear PTE bits).
    pub fn age_access_counts(&mut self, factor: f64) {
        self.page_table.age_access_counts(factor);
    }

    /// Clear all page access counters and accessed bits (between rounds).
    pub fn reset_profiling_counters(&mut self) {
        self.page_table.reset_profiling_counters();
    }

    /// Serialize the full placement state for a checkpoint: configuration,
    /// objects, every page's tier/weight/counters, the migration counters,
    /// and the fault injector (plan + cursors + stats) when armed. Floats
    /// use `{:?}` (shortest round-trip), so decode restores them bit-exact.
    pub fn encode_state(&self, out: &mut String) {
        use std::fmt::Write as _;
        let c = &self.config;
        writeln!(
            out,
            "hmconfig {} {:?} {:?} {:?} {:?}",
            c.llc_bytes,
            c.per_task_bw_cap,
            c.tier_overlap,
            c.page_migration_ns,
            c.migration_parallelism
        )
        .expect("writing to String cannot fail");
        for (tag, t) in [("D", &c.dram), ("P", &c.pm)] {
            writeln!(
                out,
                "tier {tag} {:?} {:?} {:?} {:?} {}",
                t.latency_seq_ns, t.latency_rand_ns, t.read_bw_gbps, t.write_bw_gbps, t.capacity
            )
            .expect("writing to String cannot fail");
        }
        writeln!(
            out,
            "syscounters {} {} {:?} {} {} {}",
            self.total_migrations,
            self.total_migration_attempts,
            self.total_backoff_ns,
            self.seed,
            self.epoch_commits,
            self.epoch_rollbacks
        )
        .expect("writing to String cannot fail");
        let quota = self.dram_quota.map(|q| q as i64).unwrap_or(-1);
        writeln!(out, "dramquota {quota}").expect("writing to String cannot fail");
        writeln!(out, "offlined {}", self.offlined_bytes).expect("writing to String cannot fail");
        writeln!(out, "objects {}", self.objects.len()).expect("writing to String cannot fail");
        for o in &self.objects {
            let owner = o.owner_task.map(|t| t as i64).unwrap_or(-1);
            writeln!(
                out,
                "object {} {} {} {} {} {owner}",
                o.id.0,
                crate::checkpoint::esc(&o.name),
                o.size,
                o.first_page,
                o.num_pages
            )
            .expect("writing to String cannot fail");
        }
        // The page table persists as extents — one `x` line per
        // run (`len object tier weight accessed count migrations`; starts
        // are implicit, runs are written in page order). A 1e8-page table
        // with a handful of objects checkpoints in a few hundred bytes.
        writeln!(
            out,
            "extents {} {}",
            self.page_table.num_extents(),
            self.page_table.len()
        )
        .expect("writing to String cannot fail");
        for r in self.page_table.runs() {
            let p = &r.info;
            let tier = if p.tier() == Tier::Dram { "D" } else { "P" };
            writeln!(
                out,
                "x {} {} {tier} {:?} {} {:?} {}",
                r.len,
                p.object.0,
                p.weight(),
                p.accessed as u8,
                p.access_count,
                p.migrations
            )
            .expect("writing to String cannot fail");
        }
        write!(out, "quarantine {}", self.page_table.quarantined_count())
            .expect("writing to String cannot fail");
        for id in self.page_table.quarantined() {
            write!(out, " {id}").expect("writing to String cannot fail");
        }
        writeln!(out).expect("writing to String cannot fail");
        match &self.fault {
            None => writeln!(out, "fault 0").expect("writing to String cannot fail"),
            Some(inj) => {
                writeln!(out, "fault 1").expect("writing to String cannot fail");
                inj.encode_state(out);
            }
        }
    }

    /// Restore a system serialized by [`encode_state`](Self::encode_state).
    pub fn decode_state(r: &mut crate::checkpoint::Reader<'_>) -> Result<Self, HmError> {
        use crate::checkpoint::{corrupt, p_bool, p_f64, p_u32, p_u64, p_usize, unesc};
        use crate::config::TierParams;
        let t = r.line("hmconfig", 5)?;
        let (llc_bytes, per_task_bw_cap, tier_overlap, page_migration_ns, migration_parallelism) = (
            p_u64(t[0])?,
            p_f64(t[1])?,
            p_f64(t[2])?,
            p_f64(t[3])?,
            p_f64(t[4])?,
        );
        let mut tier_params = |tag: &str| -> Result<TierParams, HmError> {
            let t = r.line("tier", 6)?;
            if t[0] != tag {
                return Err(corrupt("tier lines out of order"));
            }
            Ok(TierParams {
                latency_seq_ns: p_f64(t[1])?,
                latency_rand_ns: p_f64(t[2])?,
                read_bw_gbps: p_f64(t[3])?,
                write_bw_gbps: p_f64(t[4])?,
                capacity: p_u64(t[5])?,
            })
        };
        let dram = tier_params("D")?;
        let pm = tier_params("P")?;
        let config = HmConfig {
            dram,
            pm,
            llc_bytes,
            per_task_bw_cap,
            tier_overlap,
            page_migration_ns,
            migration_parallelism,
        };
        let t = r.line("syscounters", 6)?;
        let (total_migrations, total_migration_attempts, total_backoff_ns, seed) =
            (p_u64(t[0])?, p_u64(t[1])?, p_f64(t[2])?, p_u64(t[3])?);
        let (epoch_commits, epoch_rollbacks) = (p_u64(t[4])?, p_u64(t[5])?);
        let t = r.line("dramquota", 1)?;
        let quota: i64 = t[0].parse().map_err(|_| corrupt("bad dram quota"))?;
        let dram_quota = (quota >= 0).then_some(quota as u64);
        let t = r.line("offlined", 1)?;
        let offlined_bytes = p_u64(t[0])?;
        let t = r.line("objects", 1)?;
        let num_objects = p_usize(t[0])?;
        let mut objects = Vec::new();
        let mut by_name = BTreeMap::new();
        for k in 0..num_objects {
            let t = r.line("object", 6)?;
            let id = ObjectId(p_u32(t[0])?);
            if id.0 as usize != k {
                return Err(corrupt("object ids not dense"));
            }
            let name = unesc(t[1])?;
            let owner: i64 = t[5].parse().map_err(|_| corrupt("bad owner_task"))?;
            by_name.insert(name.clone(), id);
            objects.push(DataObject {
                id,
                name,
                size: p_u64(t[2])?,
                first_page: p_u64(t[3])?,
                num_pages: p_u64(t[4])?,
                owner_task: (owner >= 0).then_some(owner as usize),
            });
        }
        // Extent framing: `extents <runs> <pages>` then one `x` line per
        // run, starts implicit in page order.
        let t = r.line("extents", 2)?;
        let num_runs = p_usize(t[0])?;
        let num_pages = p_u64(t[1])?;
        let mut page_table = PageTable::default();
        for _ in 0..num_runs {
            let t = r.line("x", 7)?;
            let len = p_u64(t[0])?;
            // Reject an over-long run before the table grows to hold it.
            if len > num_pages - page_table.len() as u64 {
                return Err(corrupt("extent lengths exceed the page count"));
            }
            let tier = match t[2] {
                "D" => Tier::Dram,
                "P" => Tier::Pm,
                _ => return Err(corrupt("bad extent tier")),
            };
            page_table.push_raw_run(
                len,
                crate::page::PageInfo::restore(
                    ObjectId(p_u32(t[1])?),
                    tier,
                    p_f64(t[3])?,
                    p_bool(t[4])?,
                    p_f64(t[5])?,
                    p_u32(t[6])?,
                ),
            );
        }
        if page_table.len() as u64 != num_pages {
            return Err(corrupt("extent lengths do not sum to the page count"));
        }
        page_table.flush_aggregates();
        let t = r.line("quarantine", 1)?;
        let num_quarantined = p_usize(t[0])?;
        if t.len() - 1 != num_quarantined {
            return Err(corrupt("quarantine id count mismatch"));
        }
        for tok in &t[1..] {
            let id = p_u64(tok)?;
            if id >= num_pages {
                return Err(corrupt("quarantined page id out of range"));
            }
            page_table.quarantine_page(id);
        }
        let t = r.line("fault", 1)?;
        let fault = if p_bool(t[0])? {
            Some(FaultInjector::decode_state(r)?)
        } else {
            None
        };
        // Re-hoist the restored round's pressure so post-restore quota math
        // matches what the pre-crash run saw mid-round.
        let round_pressure = fault.as_ref().map_or(0, |f| f.current_pressure());
        // Re-hoist the degradation-window state the same way (pure in
        // (plan, round), so this matches what the pre-crash run saw).
        let (degrade, degrade_shifted) = match fault.as_ref() {
            Some(f) => {
                let round = f.round();
                let now = f.current_degradation(round);
                let prev = if round == 0 {
                    None
                } else {
                    f.current_degradation(round - 1)
                };
                (now, now != prev)
            }
            None => (None, false),
        };
        Ok(Self {
            config,
            page_table,
            objects,
            by_name,
            total_migrations,
            total_migration_attempts,
            total_backoff_ns,
            epoch_commits,
            epoch_rollbacks,
            seed,
            fault,
            dram_quota,
            round_pressure,
            offlined_bytes,
            degrade,
            degrade_shifted,
            // Epochs never span a round boundary, so a checkpoint (taken at
            // boundaries only) always restores with no epoch in flight.
            epoch: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_system() -> HmSystem {
        // 16 pages of DRAM, 128 pages of PM.
        HmSystem::new(HmConfig::calibrated(16 * PAGE_SIZE, 128 * PAGE_SIZE), 42)
    }

    #[test]
    fn dram_quota_caps_allocation_and_free_bytes() {
        let mut sys = tiny_system(); // 16 DRAM pages
        sys.set_dram_quota(Some(4 * PAGE_SIZE));
        assert_eq!(sys.free_bytes(Tier::Dram), 4 * PAGE_SIZE);
        assert!(sys
            .allocate(&ObjectSpec::new("big", 5 * PAGE_SIZE), Tier::Dram)
            .is_err());
        sys.allocate(&ObjectSpec::new("a", 4 * PAGE_SIZE), Tier::Dram)
            .unwrap();
        assert_eq!(sys.free_bytes(Tier::Dram), 0);
        // Lifting the quota restores the configured capacity.
        sys.set_dram_quota(None);
        assert_eq!(sys.free_bytes(Tier::Dram), 12 * PAGE_SIZE);
    }

    #[test]
    fn shrinking_quota_squeezes_residency_at_round_start() {
        let mut sys = tiny_system();
        sys.allocate(&ObjectSpec::new("a", 6 * PAGE_SIZE), Tier::Dram)
            .unwrap();
        sys.set_dram_quota(Some(2 * PAGE_SIZE));
        let evicted = sys.begin_round(0);
        assert_eq!(evicted, 4);
        assert_eq!(sys.page_table().bytes_in(Tier::Dram), 2 * PAGE_SIZE);
        // Steady state: the next round has nothing left to evict.
        assert_eq!(sys.begin_round(1), 0);
    }

    #[test]
    fn quota_survives_state_roundtrip() {
        let mut sys = tiny_system();
        sys.set_dram_quota(Some(8 * PAGE_SIZE));
        sys.allocate(&ObjectSpec::new("a", 3 * PAGE_SIZE), Tier::Dram)
            .unwrap();
        let mut text = String::new();
        sys.encode_state(&mut text);
        let mut r = crate::checkpoint::Reader::new(&text);
        let back = HmSystem::decode_state(&mut r).unwrap();
        assert_eq!(back.dram_quota(), Some(8 * PAGE_SIZE));
        assert_eq!(back.free_bytes(Tier::Dram), 5 * PAGE_SIZE);
    }

    #[test]
    fn allocate_and_lookup() {
        let mut sys = tiny_system();
        let id = sys
            .allocate(&ObjectSpec::new("H", 3 * PAGE_SIZE + 1), Tier::Pm)
            .unwrap();
        assert_eq!(sys.object(id).num_pages, 4);
        assert_eq!(sys.object_by_name("H").unwrap(), id);
        assert!(sys.object_by_name("nope").is_err());
        assert_eq!(sys.dram_fraction(id), 0.0);
    }

    #[test]
    fn allocation_respects_capacity() {
        let mut sys = tiny_system();
        let err = sys
            .allocate(&ObjectSpec::new("big", 17 * PAGE_SIZE), Tier::Dram)
            .unwrap_err();
        assert!(matches!(
            err,
            HmError::OutOfCapacity {
                tier: Tier::Dram,
                ..
            }
        ));
    }

    #[test]
    fn migrate_hottest_first() {
        let mut sys = tiny_system();
        let id = sys
            .allocate(
                &ObjectSpec::new("T", 8 * PAGE_SIZE).with_skew(1.5),
                Tier::Pm,
            )
            .unwrap();
        let out = sys.migrate_object_pages(id, Tier::Dram, 2);
        assert_eq!(out.pages_moved, 2);
        // The two hottest pages carry more than 2/8 of the weight.
        assert!(sys.dram_fraction(id) > 0.25);
    }

    #[test]
    fn promotion_evicts_lfu_when_full() {
        let mut sys = tiny_system();
        let a = sys
            .allocate(&ObjectSpec::new("A", 16 * PAGE_SIZE), Tier::Dram)
            .unwrap();
        let b = sys
            .allocate(&ObjectSpec::new("B", PAGE_SIZE), Tier::Pm)
            .unwrap();
        // Mark A's pages as accessed so eviction has counts to compare;
        // page 0 coldest.
        sys.record_accesses(a, 100.0);
        let out = sys.migrate_object_pages(b, Tier::Dram, 1);
        assert_eq!(out.pages_moved, 1);
        assert_eq!(out.pages_evicted, 1);
        assert_eq!(sys.dram_fraction(b), 1.0);
        assert!(sys.dram_fraction(a) < 1.0);
    }

    #[test]
    fn place_everything_moves_all() {
        let mut sys = tiny_system();
        let id = sys
            .allocate(&ObjectSpec::new("X", 4 * PAGE_SIZE), Tier::Pm)
            .unwrap();
        sys.place_everything(Tier::Dram);
        assert_eq!(sys.dram_fraction(id), 1.0);
        sys.place_everything(Tier::Pm);
        assert_eq!(sys.dram_fraction(id), 0.0);
        assert_eq!(sys.total_migrations, 8);
    }

    #[test]
    fn epoch_commits_when_clean() {
        use crate::epoch::EpochOutcome;
        let mut sys = tiny_system();
        let id = sys
            .allocate(&ObjectSpec::new("X", 4 * PAGE_SIZE), Tier::Pm)
            .unwrap();
        sys.begin_epoch(0);
        assert_eq!(sys.end_epoch(), EpochOutcome::Clean);
        assert_eq!((sys.epoch_commits, sys.epoch_rollbacks), (0, 0));
        sys.begin_epoch(1);
        let out = sys.migrate_object_pages(id, Tier::Dram, 2);
        assert_eq!(out.pages_moved, 2);
        assert_eq!(sys.end_epoch(), EpochOutcome::Committed);
        assert_eq!((sys.epoch_commits, sys.epoch_rollbacks), (1, 0));
        assert!(sys.dram_fraction(id) > 0.0, "committed moves are kept");
    }

    #[test]
    fn torn_epoch_rolls_back_bitwise() {
        use crate::epoch::EpochOutcome;
        use crate::fault::FaultPlan;
        let mut sys = tiny_system();
        let id = sys
            .allocate(
                &ObjectSpec::new("X", 8 * PAGE_SIZE).with_skew(1.2),
                Tier::Pm,
            )
            .unwrap();
        sys.migrate_object_pages(id, Tier::Dram, 3);
        let before = format!("{:?}", sys.page_table());
        sys.begin_epoch(4);
        // One move succeeds, then a failure burst abandons more pages than
        // the epoch managed to move: the epoch is torn.
        let ok = sys.migrate_object_pages(id, Tier::Dram, 1);
        assert_eq!(ok.pages_moved, 1);
        sys.set_fault_plan(
            FaultPlan::none()
                .with_seed(2)
                .with_migration_failures(1.0, 1),
        )
        .unwrap();
        let burst = sys.migrate_object_pages(id, Tier::Dram, 2);
        assert_eq!(burst.pages_moved, 0);
        assert_eq!(burst.pages_failed, 2);
        assert_eq!(sys.end_epoch(), EpochOutcome::RolledBack);
        assert_eq!((sys.epoch_commits, sys.epoch_rollbacks), (0, 1));
        // The page table is bitwise identical to the pre-epoch snapshot;
        // the successful move inside the torn epoch was undone too.
        assert_eq!(format!("{:?}", sys.page_table()), before);
        assert!(sys.page_table().aggregates_clean());
        // Physical history stays charged.
        assert!(sys.total_migration_attempts > 4);
    }

    #[test]
    fn poisoned_page_is_pinned_off_dram_and_shrinks_physical_capacity() {
        let mut sys = tiny_system();
        let id = sys
            .allocate(&ObjectSpec::new("X", 4 * PAGE_SIZE), Tier::Dram)
            .unwrap();
        sys.poison_page(1);
        assert!(sys.page_table().is_quarantined(1));
        assert_eq!(sys.page_table().get(1).tier(), Tier::Pm);
        assert_eq!(sys.physical_dram_capacity(), 15 * PAGE_SIZE);
        // The repair remap was charged as migration overhead.
        assert_eq!(sys.total_migration_attempts, 1);
        // Double-poisoning is a no-op.
        sys.poison_page(1);
        assert_eq!(sys.total_migration_attempts, 1);
        // Promotion back is silently filtered, not failed.
        let out = sys.migrate_pages([1u64], Tier::Dram);
        assert_eq!((out.pages_moved, out.pages_failed), (0, 0));
        assert_eq!(sys.page_table().get(1).tier(), Tier::Pm);
        let out = sys.migrate_object_pages(id, Tier::Dram, 4);
        assert_eq!(out.pages_moved, 0);
        assert_eq!(sys.page_table().get(1).tier(), Tier::Pm);
        // Direct single-page promotion is a silent no-op too.
        sys.try_migrate_page(1, Tier::Dram).unwrap();
        assert_eq!(sys.page_table().get(1).tier(), Tier::Pm);
    }

    #[test]
    fn torn_epoch_never_resurrects_a_poisoned_frame() {
        use crate::epoch::EpochOutcome;
        use crate::fault::FaultPlan;
        let mut sys = tiny_system();
        sys.allocate(&ObjectSpec::new("X", 4 * PAGE_SIZE), Tier::Dram)
            .unwrap();
        sys.begin_epoch(0);
        // Demote page 2 inside the epoch (undo records tier = DRAM), then
        // the strike lands on its frame while the epoch is open.
        let moved = sys.migrate_pages([2u64], Tier::Pm);
        assert_eq!(moved.pages_moved, 1);
        sys.poison_page(2);
        // Tear the epoch: a failure burst abandons more pages than moved.
        sys.set_fault_plan(
            FaultPlan::none()
                .with_seed(1)
                .with_migration_failures(1.0, 1),
        )
        .unwrap();
        let burst = sys.migrate_pages([0u64, 1u64], Tier::Pm);
        assert_eq!(burst.pages_failed, 2);
        assert_eq!(sys.end_epoch(), EpochOutcome::RolledBack);
        // Rollback restored pages 0/1 but must not resurrect page 2's dead
        // frame: its undo entry said DRAM, quarantine pins it to PM.
        assert_eq!(sys.page_table().get(0).tier(), Tier::Dram);
        assert_eq!(sys.page_table().get(2).tier(), Tier::Pm);
        assert!(sys.page_table().is_quarantined(2));
        assert!(sys.page_table().aggregates_clean());
    }

    #[test]
    fn combined_capacity_shrink_ordering_never_underflows() {
        use crate::fault::FaultPlan;
        let mut sys = tiny_system(); // 16 DRAM pages
        sys.allocate(&ObjectSpec::new("a", 4 * PAGE_SIZE), Tier::Dram)
            .unwrap();
        sys.offline_dram(8 * PAGE_SIZE);
        sys.poison_page(0);
        // Physical losses first: 16 − 8 offlined − 1 poisoned frame.
        assert_eq!(sys.physical_dram_capacity(), 7 * PAGE_SIZE);
        // The quota caps what is left — a quota above physical is inert…
        sys.set_dram_quota(Some(10 * PAGE_SIZE));
        assert_eq!(sys.effective_dram_capacity(), 7 * PAGE_SIZE);
        // …and one below physical bites.
        sys.set_dram_quota(Some(5 * PAGE_SIZE));
        assert_eq!(sys.effective_dram_capacity(), 5 * PAGE_SIZE);
        // Pressure subtracts last and saturates instead of wrapping.
        sys.set_fault_plan(FaultPlan::none().with_dram_pressure(6 * PAGE_SIZE, 0))
            .unwrap();
        assert_eq!(sys.effective_dram_capacity(), 0);
        assert_eq!(sys.free_bytes(Tier::Dram), 0);
        sys.set_dram_quota(None);
        assert_eq!(sys.effective_dram_capacity(), PAGE_SIZE);
        // Over-shrinking the physical pool floors at zero, never wraps.
        sys.offline_dram(u64::MAX);
        assert_eq!(sys.offlined_dram_bytes(), 16 * PAGE_SIZE);
        assert_eq!(sys.physical_dram_capacity(), 0);
        assert_eq!(sys.effective_dram_capacity(), 0);
        assert_eq!(sys.free_bytes(Tier::Dram), 0);
    }

    #[test]
    fn begin_round_applies_device_faults_deterministically() {
        use crate::fault::FaultPlan;
        let mut sys = tiny_system();
        sys.allocate(&ObjectSpec::new("a", 8 * PAGE_SIZE), Tier::Dram)
            .unwrap();
        sys.set_fault_plan(
            FaultPlan::none()
                .with_seed(9)
                .with_page_poison(1.0)
                .with_dram_offlining(2, 4 * PAGE_SIZE)
                .with_degradation(Tier::Dram, 4, 2.0, 0.5),
        )
        .unwrap();
        sys.begin_round(0);
        assert_eq!(sys.fault_stats().pages_poisoned, 1);
        assert_eq!(sys.offlined_dram_bytes(), 0);
        assert_eq!(sys.degradation(), Some((Tier::Dram, 2.0, 0.5)));
        assert!(sys.degradation_shifted(), "window opened at round 0");
        let active = sys.active_config();
        assert!((active.dram.latency_seq_ns - sys.config.dram.latency_seq_ns * 2.0).abs() < 1e-9);
        assert!((active.dram.read_bw_gbps - sys.config.dram.read_bw_gbps * 0.5).abs() < 1e-9);
        assert!((active.pm.latency_seq_ns - sys.config.pm.latency_seq_ns).abs() < 1e-9);
        sys.begin_round(1);
        assert!(!sys.degradation_shifted(), "window stayed open");
        sys.begin_round(2);
        assert_eq!(sys.degradation(), None);
        assert!(sys.degradation_shifted(), "window closed at round 2");
        // Offlining struck at round 2 and is idempotent afterwards.
        assert_eq!(sys.offlined_dram_bytes(), 4 * PAGE_SIZE);
        sys.begin_round(3);
        assert_eq!(sys.offlined_dram_bytes(), 4 * PAGE_SIZE);
        assert_eq!(sys.fault_stats().offlined_bytes, 4 * PAGE_SIZE);
        assert_eq!(sys.fault_stats().pages_poisoned, 4);
        assert_eq!(sys.fault_stats().degraded_window_rounds, 2);
        // Residency always fits the shrunk physical pool.
        assert!(sys.page_table().bytes_in(Tier::Dram) <= sys.physical_dram_capacity());
        // And no poisoned page sits on DRAM.
        assert!(sys
            .page_table()
            .quarantined()
            .all(|id| sys.page_table().get(id).tier() == Tier::Pm));
    }

    #[test]
    fn device_state_survives_state_roundtrip() {
        let mut sys = tiny_system();
        sys.allocate(&ObjectSpec::new("a", 4 * PAGE_SIZE), Tier::Dram)
            .unwrap();
        sys.offline_dram(3 * PAGE_SIZE);
        sys.poison_page(1);
        sys.poison_page(3);
        let mut text = String::new();
        sys.encode_state(&mut text);
        let mut r = crate::checkpoint::Reader::new(&text);
        let back = HmSystem::decode_state(&mut r).unwrap();
        assert_eq!(back.offlined_dram_bytes(), 3 * PAGE_SIZE);
        assert!(back.page_table().is_quarantined(1));
        assert!(back.page_table().is_quarantined(3));
        assert_eq!(back.physical_dram_capacity(), sys.physical_dram_capacity());
        // Bitwise: quarantine is part of the page table's Debug output.
        assert_eq!(
            format!("{:?}", back.page_table()),
            format!("{:?}", sys.page_table())
        );
    }

    #[test]
    fn reset_clears_counters() {
        let mut sys = tiny_system();
        let id = sys
            .allocate(&ObjectSpec::new("X", 2 * PAGE_SIZE), Tier::Pm)
            .unwrap();
        sys.record_accesses(id, 50.0);
        assert!(sys.page_table().get(0).accessed);
        sys.reset_profiling_counters();
        assert!(!sys.page_table().get(0).accessed);
        assert_eq!(sys.page_table().get(0).access_count, 0.0);
    }
}
