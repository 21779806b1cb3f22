//! The Merchandiser runtime policy (§3, §6): task-semantic profiling on the
//! base input, per-instance performance prediction, Algorithm 1 planning,
//! and quota-driven page migration.
//!
//! Workflow per the paper's §5.3 "Putting all together":
//!
//! * **round 0 (base input)** — tasks run with the PM-only placement while
//!   the runtime collects task information: per-object profiled access
//!   counts (with task semantics — each count is attributed to the task
//!   that issued it), the 8 PMC events per task, and basic-block
//!   times/counts;
//! * **rounds ≥ 1 (new inputs)** — right before task execution the runtime
//!   estimates per-object accesses (Equation 1), predicts PM-only/DRAM-only
//!   times (§5.2), runs Algorithm 1 to decide each task's DRAM-access quota,
//!   and migrates pages so each task's weighted DRAM fraction matches its
//!   quota; afterwards, counter measurements refine α for random-pattern
//!   objects.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use merch_hm::checkpoint::{esc, Put, Reader};
use merch_hm::runtime::{PlacementPolicy, RoundReport};
use merch_hm::system::HmError;
use merch_hm::trace::memory_accesses;
use merch_hm::{HmSystem, ObjectId, TaskWork, Tier};
use merch_patterns::{AccessPattern, AlphaRefiner, AlphaTable, ObjectPatternMap};
use merch_profiling::{BasicBlockTable, PmcEvents, PmcGenerator};

use crate::allocator::{
    plan_dram_accesses, plan_dram_accesses_cached, AllocatorInput, AllocatorPlan, CurveCache,
    TaskInput,
};
use crate::estimator::AccessEstimator;
use crate::homog::HomogeneousPredictor;
use crate::perfmodel::{CompiledPerformanceModel, Eq2Model, PerformanceModel};
use crate::sentinel::{DriftSentinel, TaskSample};

/// Fraction of DRAM withheld from Algorithm 1 (page-cache headroom).
const DRAM_RESERVE: f64 = 0.05;

/// Straggler strikes a task may accumulate before the watchdog stops
/// emergency re-planning and escalates to the degradation ladder.
const WATCHDOG_STRIKE_LIMIT: u32 = 3;

/// Rounds spent on the hot-page rung after a watchdog or drift escalation.
const WATCHDOG_FALLBACK_SPAN: u32 = 2;

/// DRAM bytes the policy may plan and claim: the physical capacity, not
/// the nameplate (quarantined frames and offlined regions are gone), less
/// the [`DRAM_RESERVE`] headroom.
fn planning_capacity(sys: &HmSystem) -> u64 {
    (sys.physical_dram_capacity() as f64 * (1.0 - DRAM_RESERVE)) as u64
}

/// Look up a per-object hint by exact name, by the stem before the first
/// `_`, or by the stem with a trailing task index removed (`fields0` →
/// `fields`) — the same resolution rule as the pattern map.
fn lookup_hint(map: &BTreeMap<String, f64>, name: &str) -> Option<f64> {
    if let Some(v) = map.get(name) {
        return Some(*v);
    }
    let stem = name.split('_').next().unwrap_or(name);
    if let Some(v) = map.get(stem) {
        return Some(*v);
    }
    let trimmed = stem.trim_end_matches(|c: char| c.is_ascii_digit());
    if trimmed.is_empty() || trimmed == stem {
        return None;
    }
    map.get(trimmed).copied()
}

/// Current logical sizes of a task's objects, in its object order.
fn current_sizes(sys: &HmSystem, ts: &TaskState) -> Vec<f64> {
    ts.objects
        .iter()
        .map(|(oid, _)| sys.try_object(*oid).map(|o| o.size as f64).unwrap_or(0.0))
        .collect()
}

/// FNV-1a over the bit patterns of a size vector, keying the per-task
/// quantification cache. A collision would silently reuse a stale
/// prediction; with a 64-bit digest over a handful of doubles that is
/// vanishingly unlikely.
fn hash_sizes(sizes: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in sizes {
        for b in s.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Memoised estimator/predictor outputs for one task, keyed on the inputs
/// they are pure functions of: the logical size vector and the estimator
/// version. Transient — never checkpointed, rebuilt on first use after a
/// restore (the values are pure, so replay stays bit-identical).
#[derive(Debug, Clone)]
struct QuantEntry {
    sizes_hash: u64,
    est_version: u64,
    pm_only_ns: f64,
    dram_only_ns: f64,
    total_accesses: f64,
}

/// Per-task state built from the base input.
#[derive(Debug, Clone)]
struct TaskState {
    estimator: AccessEstimator,
    predictor: HomogeneousPredictor,
    events: PmcEvents,
    /// Objects the task touches (id, name).
    objects: Vec<(ObjectId, String)>,
    /// Cached quantification outputs for the current (sizes, α) inputs.
    quant: Option<QuantEntry>,
}

/// The Merchandiser placement policy.
pub struct MerchandiserPolicy {
    /// The trained Equation 2 model.
    pub model: PerformanceModel,
    /// Object → pattern map from the Spindle-like classifier.
    pub pattern_map: ObjectPatternMap,
    /// Statically-known blocking-reuse hints per object name.
    pub reuse_hints: BTreeMap<String, f64>,
    /// Algorithm 1 step size (the paper's 5 %).
    pub step: f64,
    /// Multiplicative noise applied to base-input profiling, modelling the
    /// sampling profilers' inaccuracy.
    pub profiling_noise: f64,
    /// Amortisation horizon for the migrate-or-not decision: a placement is
    /// expected to serve this many future task instances, so migration pays
    /// off when `improvement × horizon > cost`.
    pub migration_horizon: f64,
    /// Enable online α refinement (§4). Disabled only by the ablation study.
    pub refine_alpha: bool,
    /// Most recent Algorithm 1 plan (inspection / tests).
    pub last_plan: Option<AllocatorPlan>,
    /// Per-round predicted task times (round index, ns per task) — used to
    /// evaluate whole-model accuracy (Table 4).
    pub prediction_log: Vec<(usize, Vec<f64>)>,
    /// Wall-clock time of the last online prediction + planning pass —
    /// the §7.2 overhead figure (0.031 ms on the paper's machine).
    pub last_prediction_wall_ns: f64,
    /// Drift sentinel: per-task EWMA of the prediction error with a
    /// hysteresis band, driving sample quarantine, PMC re-collection, α
    /// re-refinement and the degradation-ladder step-downs.
    pub sentinel: DriftSentinel,
    alpha_table: AlphaTable,
    state: Vec<TaskState>,
    base_works: Vec<TaskWork>,
    seed: u64,
    /// Per-task straggler strike counters (watchdog hysteresis).
    watchdog_strikes: BTreeMap<usize, u32>,
    /// Remaining rounds of watchdog-forced hot-page fallback.
    watchdog_fallback_rounds: u32,
    /// Did the last round run on a degradation-ladder rung (profile
    /// fallback, missing PMC events, or a quota shortfall from failed
    /// migrations)?
    degraded: bool,
    /// Compiled f(·) for the planner fast path, rebuilt whenever its
    /// fingerprint stops matching [`model`](Self::model). Transient — never
    /// checkpointed; predictions are bitwise identical to the interpreted
    /// model, so replay after a restore is unaffected.
    compiled: Option<CompiledPerformanceModel>,
    /// Cross-round memo of per-task time curves (self-validating via
    /// per-task keys). Transient, like the quantification cache.
    curve_cache: CurveCache,
    /// Tasks whose PMC profile was quarantined by the sentinel and still
    /// awaits a (possibly partial) re-collection.
    pending_recollect: BTreeSet<usize>,
}

impl MerchandiserPolicy {
    /// Build the policy from the offline artifacts: the trained model and
    /// the static analysis results (pattern map, reuse hints).
    pub fn new(
        model: PerformanceModel,
        pattern_map: ObjectPatternMap,
        reuse_hints: BTreeMap<String, f64>,
        seed: u64,
    ) -> Self {
        Self {
            model,
            pattern_map,
            reuse_hints,
            step: 0.05,
            profiling_noise: 0.08,
            migration_horizon: 5.0,
            refine_alpha: true,
            last_plan: None,
            prediction_log: Vec::new(),
            last_prediction_wall_ns: 0.0,
            sentinel: DriftSentinel::default(),
            alpha_table: AlphaTable::new(),
            state: Vec::new(),
            base_works: Vec::new(),
            seed,
            watchdog_strikes: BTreeMap::new(),
            watchdog_fallback_rounds: 0,
            degraded: false,
            compiled: None,
            curve_cache: CurveCache::default(),
            pending_recollect: BTreeSet::new(),
        }
    }

    /// The compiled Equation 2 model, recompiling when the interpreted
    /// model changed underneath it (the fingerprint covers every bit a
    /// prediction depends on). Takes the two fields rather than `&mut self`
    /// so callers keep borrowing the policy's other fields meanwhile.
    fn ensure_compiled<'a>(
        model: &PerformanceModel,
        compiled: &'a mut Option<CompiledPerformanceModel>,
    ) -> &'a CompiledPerformanceModel {
        let want = Eq2Model::fingerprint(model);
        if compiled
            .as_ref()
            .is_some_and(|c| Eq2Model::fingerprint(c) != want)
        {
            *compiled = None;
        }
        compiled.get_or_insert_with(|| model.compile())
    }

    /// Fingerprint of the compiled f(·) currently backing the planner, or
    /// `None` before the first plan (and after a restore — the compilation
    /// is transient and rebuilt on demand). Tests use this to assert that
    /// replayed runs really went through the compiled fast path.
    pub fn compiled_fingerprint(&self) -> Option<u64> {
        self.compiled.as_ref().map(Eq2Model::fingerprint)
    }

    /// Per-tier §5.2 endpoint scale factors `(pm_scale, dram_scale)` under
    /// the current device degradation window. A degraded tier serves its
    /// accesses slower by roughly the latency multiplier, and slower still
    /// when the bandwidth cut dominates — `lat_mult.max(1/bw_mult)` takes
    /// the worse of the two. `None` when no window is open, so the
    /// fault-free planning path never touches the endpoints (bitwise
    /// identity).
    fn degradation_scales(sys: &HmSystem) -> Option<(f64, f64)> {
        sys.degradation().map(|(tier, lat_mult, bw_mult)| {
            let s = lat_mult.max(1.0 / bw_mult);
            match tier {
                Tier::Pm => (s, 1.0),
                Tier::Dram => (1.0, s),
            }
        })
    }

    /// Pattern of `name` (exact or by stem for per-task instances),
    /// defaulting to random for unknown objects (§4 "Handling unknown
    /// patterns").
    fn pattern_of(&self, name: &str) -> AccessPattern {
        merch_patterns::lookup_pattern(&self.pattern_map, name).unwrap_or(AccessPattern::Random)
    }

    /// Mean α across all tasks' estimators (the §7.3 per-application
    /// statistic).
    pub fn mean_alpha(&self) -> f64 {
        if self.state.is_empty() {
            return 0.0;
        }
        self.state
            .iter()
            .map(|t| t.estimator.mean_alpha())
            .sum::<f64>()
            / self.state.len() as f64
    }

    /// Build base-input state from the executed round-0 works.
    fn collect_base(&mut self, sys: &mut HmSystem, concurrency: usize) {
        let pmc = PmcGenerator::new(self.seed ^ 0x50C0);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xBA5E);
        let all_sizes: Vec<u64> = sys.objects().iter().map(|o| o.size).collect();
        let works = std::mem::take(&mut self.base_works);
        self.state = works
            .iter()
            .map(|work| {
                let mut estimator = AccessEstimator::new();
                let mut objects: Vec<(ObjectId, String)> = Vec::new();
                let mut per_object: BTreeMap<ObjectId, f64> = BTreeMap::new();
                for ph in &work.phases {
                    for a in &ph.accesses {
                        let Ok(o) = sys.try_object(a.object) else {
                            continue;
                        };
                        let size = o.size;
                        *per_object.entry(a.object).or_insert(0.0) +=
                            memory_accesses(a, size, sys.config.llc_bytes);
                    }
                }
                for (oid, mem) in per_object {
                    let Ok(o) = sys.try_object(oid) else {
                        continue;
                    };
                    // Sampling profilers observe a noisy estimate.
                    let noisy = mem * (1.0 + rng.gen_range(-1.0..1.0) * self.profiling_noise);
                    let pattern = self.pattern_of(&o.name);
                    let reuse = lookup_hint(&self.reuse_hints, &o.name).unwrap_or(1.0);
                    estimator.register(
                        &o.name,
                        pattern,
                        o.size,
                        noisy.max(1.0),
                        reuse,
                        &mut self.alpha_table,
                    );
                    objects.push((oid, o.name.clone()));
                }
                let base_sizes: Vec<f64> = objects
                    .iter()
                    .map(|(oid, _)| sys.try_object(*oid).map(|o| o.size as f64).unwrap_or(0.0))
                    .collect();
                let table = BasicBlockTable::measure(&sys.config, work, &all_sizes, concurrency);
                let predictor = HomogeneousPredictor::new(table, base_sizes);
                let mut events = pmc.collect(&sys.config, work, &all_sizes, concurrency);
                // Injected PMC dropout: individual counters fail to read
                // back. Mark them missing (NaN sentinel) so Equation 2
                // degrades to linear interpolation for this task.
                if let Some(inj) = sys.fault_injector_mut() {
                    for e in 0..merch_profiling::pmc::NUM_EVENTS {
                        if inj.drop_pmc_event(work.task, e) {
                            events.mark_missing(e);
                        }
                    }
                }
                TaskState {
                    estimator,
                    predictor,
                    events,
                    objects,
                    quant: None,
                }
            })
            .collect();
    }

    /// Heal quarantined PMC profiles: re-collect the sentinel-flagged
    /// tasks' events against this round's works with a round-salted
    /// generator (a re-collection is a fresh measurement, not a replay of
    /// the base sample). The merge is per event — the base measurement
    /// stays canonical where present, holes adopt the first re-read that
    /// survives the injected dropout — so under sustained dropout at rate
    /// p the probability an event is still missing after k heal passes is
    /// p^(k+1): profiles converge back to complete instead of flapping.
    fn heal_quarantined(&mut self, sys: &mut HmSystem, round: usize, works: &[TaskWork]) {
        use merch_profiling::pmc::NUM_EVENTS;
        let pmc = PmcGenerator::new(
            self.seed ^ 0x50C0 ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let all_sizes: Vec<u64> = sys.objects().iter().map(|o| o.size).collect();
        let concurrency = works.len().max(1);
        let pending: Vec<usize> = self.pending_recollect.iter().copied().collect();
        for i in pending {
            let (Some(ts), Some(work)) = (self.state.get_mut(i), works.get(i)) else {
                self.pending_recollect.remove(&i);
                continue;
            };
            let mut fresh = pmc.collect(&sys.config, work, &all_sizes, concurrency);
            if let Some(inj) = sys.fault_injector_mut() {
                for e in 0..NUM_EVENTS {
                    if inj.drop_pmc_event(work.task, e) {
                        fresh.mark_missing(e);
                    }
                }
            }
            for e in 0..NUM_EVENTS {
                if ts.events.values[e].is_nan() && !fresh.values[e].is_nan() {
                    ts.events.values[e] = fresh.values[e];
                }
            }
            self.sentinel.recollections += 1;
            if ts.events.is_complete() {
                self.pending_recollect.remove(&i);
            }
        }
    }

    /// Equation 1 totals and the homogeneous PM-/DRAM-only predictions for
    /// task `i` under the current logical sizes, memoised on (size-vector
    /// hash, estimator version): while neither the sizes nor any α changed
    /// since the last round, re-quantification is skipped entirely.
    /// Returns `(d_pm_only_ns, d_dram_only_ns, total_accesses)`.
    fn quantify(&mut self, sys: &HmSystem, i: usize) -> (f64, f64, f64) {
        let ts = &self.state[i];
        let sizes = current_sizes(sys, ts);
        let hash = hash_sizes(&sizes);
        let version = ts.estimator.version();
        if let Some(q) = &ts.quant {
            if q.sizes_hash == hash && q.est_version == version {
                return (q.pm_only_ns, q.dram_only_ns, q.total_accesses);
            }
        }
        let new_sizes_map: BTreeMap<String, u64> = ts
            .objects
            .iter()
            .filter_map(|(oid, name)| sys.try_object(*oid).ok().map(|o| (name.clone(), o.size)))
            .collect();
        let total = ts.estimator.estimate_total(&new_sizes_map);
        let pm_only_ns = ts.predictor.predict_pm_only(&sizes);
        let dram_only_ns = ts.predictor.predict_dram_only(&sizes);
        self.state[i].quant = Some(QuantEntry {
            sizes_hash: hash,
            est_version: version,
            pm_only_ns,
            dram_only_ns,
            total_accesses: total,
        });
        (pm_only_ns, dram_only_ns, total)
    }

    /// Run the online prediction + Algorithm 1 and return the per-task DRAM
    /// fractions plus per-object placement targets. Uses the planner fast
    /// path — compiled f(·) plus the cross-round curve cache — which emits
    /// plans bitwise identical to the interpreted reference.
    fn plan(&mut self, sys: &HmSystem) -> (AllocatorPlan, Vec<TaskInput>) {
        // Open degradation window: Algorithm 1 re-plans under the degraded
        // curve — the affected tier's homogeneous endpoints are scaled so
        // every f(·) evaluation sees the hardware as it currently is.
        let scales = Self::degradation_scales(sys);
        let mut tasks: Vec<TaskInput> = Vec::with_capacity(self.state.len());
        for i in 0..self.state.len() {
            let (mut pm_only_ns, mut dram_only_ns, total) = self.quantify(sys, i);
            if let Some((pm_s, dram_s)) = scales {
                pm_only_ns *= pm_s;
                dram_only_ns *= dram_s;
            }
            let ts = &self.state[i];
            let bytes: u64 = ts
                .objects
                .iter()
                .map(|(oid, name)| {
                    let sz = sys.try_object(*oid).map(|o| o.size).unwrap_or(0);
                    // Shared objects cost each task a proportional slice.
                    let sharers = self.sharer_count(name);
                    sz / sharers.max(1) as u64
                })
                .sum();
            tasks.push(TaskInput {
                task: i,
                d_pm_only_ns: pm_only_ns,
                d_dram_only_ns: dram_only_ns,
                events: ts.events.clone(),
                total_accesses: total.max(1.0),
                bytes,
            });
        }
        let model = Self::ensure_compiled(&self.model, &mut self.compiled);
        let input = AllocatorInput {
            tasks,
            dram_capacity: planning_capacity(sys),
            model,
            step: self.step,
        };
        let plan = plan_dram_accesses_cached(&input, &mut self.curve_cache);
        (plan, input.tasks)
    }

    fn sharer_count(&self, name: &str) -> usize {
        self.state
            .iter()
            .filter(|t| t.objects.iter().any(|(_, n)| n == name))
            .count()
    }

    /// Compute the page set the plan wants resident in DRAM. This is §6's
    /// "page migration": hot pages still migrate first, but only while the
    /// owning task is below its DRAM-access goal; pages nobody claims are
    /// demoted.
    fn claim_pages(
        &self,
        sys: &HmSystem,
        plan: &AllocatorPlan,
        order: &[usize],
    ) -> std::collections::BTreeSet<u64> {
        use merch_hm::page::PAGE_SIZE;
        let mut claimed: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        let mut claimed_bytes = 0u64;
        let capacity = planning_capacity(sys);

        // Each task's DC_i quota splits proportionally between its private
        // data and its share of the shared objects. Shared quotas pool —
        // otherwise the slowest task (which claims first) would pay the
        // whole bill for pages that speed everyone up, and the faster tasks
        // would free-ride with their private data.
        let mut shared_pool = 0.0f64;
        let mut private_budget = vec![0u64; self.state.len()];
        let mut shared_esti: BTreeMap<ObjectId, f64> = BTreeMap::new();
        for (i, ts) in self.state.iter().enumerate() {
            let mut private_e = 0.0f64;
            let mut shared_e = 0.0f64;
            for (oid, name) in &ts.objects {
                let Ok(size) = sys.try_object(*oid).map(|o| o.size) else {
                    continue;
                };
                let e = ts.estimator.estimate(name, size).unwrap_or(0.0);
                if self.sharer_count(name) > 1 {
                    shared_e += e;
                    *shared_esti.entry(*oid).or_insert(0.0) += e;
                } else {
                    private_e += e;
                }
            }
            // Split the task's quota by where its accesses go, so the
            // pooled shared budget reflects the shared objects' actual
            // access mass rather than their byte footprint.
            let total_e = (private_e + shared_e).max(1e-12);
            shared_pool += plan.dram_bytes[i] as f64 * shared_e / total_e;
            private_budget[i] = (plan.dram_bytes[i] as f64 * private_e / total_e) as u64;
        }

        // Pass 1: shared objects claim from the pooled budget, hottest
        // pages first (total expected accesses × page weight).
        let mut shared_pages: Vec<(u64, f64)> = Vec::new();
        for (&oid, &esti) in &shared_esti {
            let Ok(o) = sys.try_object(oid) else {
                continue;
            };
            for id in o.pages() {
                let w = sys.page_table().get(id).weight();
                shared_pages.push((id, esti * w));
            }
        }
        // The claim loop consumes at most pool/PAGE_SIZE pages (every page
        // is unique, every claim costs one page from both budgets), so a
        // bounded top-k selection replaces the full sort.
        let kmax = ((shared_pool as u64) / PAGE_SIZE).min(capacity / PAGE_SIZE) as usize;
        let shared_pages = merch_hm::topk::hot_pages_top_k(shared_pages, kmax);
        let mut pool = shared_pool as u64;
        for (id, _) in shared_pages {
            if pool < PAGE_SIZE || claimed_bytes + PAGE_SIZE > capacity {
                break;
            }
            if claimed.insert(id) {
                pool -= PAGE_SIZE;
                claimed_bytes += PAGE_SIZE;
            }
        }

        // Pass 2: per task (longest predicted first), private pages ranked
        // by the accesses *this task* expects on them (its Equation 1
        // estimate × page weight) — the load-balance-aware quota of §6.
        for &i in order {
            let mut budget = private_budget[i];
            let mut pages: Vec<(u64, f64)> = Vec::new();
            for (oid, name) in &self.state[i].objects {
                if self.sharer_count(name) > 1 {
                    continue;
                }
                let Ok(o) = sys.try_object(*oid) else {
                    continue;
                };
                let esti = self.state[i]
                    .estimator
                    .estimate(name, o.size)
                    .unwrap_or(0.0);
                for id in o.pages() {
                    let w = sys.page_table().get(id).weight();
                    pages.push((id, esti * w));
                }
            }
            // Private pages are this task's alone, so at most
            // budget/PAGE_SIZE of them (and no more than the remaining
            // capacity) can be claimed — top-k again suffices.
            let kmax = (budget / PAGE_SIZE).min(capacity.saturating_sub(claimed_bytes) / PAGE_SIZE)
                as usize;
            let pages = merch_hm::topk::hot_pages_top_k(pages, kmax);
            for (id, _) in pages {
                if budget < PAGE_SIZE || claimed_bytes + PAGE_SIZE > capacity {
                    break;
                }
                if claimed.insert(id) {
                    budget = budget.saturating_sub(PAGE_SIZE);
                    claimed_bytes += PAGE_SIZE;
                }
            }
        }
        claimed
    }

    /// Move the page table to the claimed placement: demote unclaimed DRAM
    /// pages, promote claimed PM pages.
    fn apply_claims(sys: &mut HmSystem, claimed: &std::collections::BTreeSet<u64>) {
        let demote: Vec<u64> = sys
            .page_table()
            .iter()
            .filter(|(id, p)| p.tier() == Tier::Dram && !claimed.contains(id))
            .map(|(id, _)| id)
            .collect();
        sys.migrate_pages(demote, Tier::Pm);
        let promote: Vec<u64> = claimed
            .iter()
            .copied()
            .filter(|&id| sys.page_table().get(id).tier() == Tier::Pm)
            .collect();
        sys.migrate_pages(promote, Tier::Dram);
    }

    /// Number of page moves applying `claimed` would cost.
    fn count_moves(sys: &HmSystem, claimed: &std::collections::BTreeSet<u64>) -> u64 {
        sys.page_table()
            .iter()
            .filter(|(id, p)| {
                (p.tier() == Tier::Dram && !claimed.contains(id))
                    || (p.tier() == Tier::Pm && claimed.contains(id))
            })
            .count() as u64
    }

    /// Task-agnostic hot-page placement: promote the hottest pages (by
    /// weight, what a sampling profiler would find) until the reserved DRAM
    /// budget is full. Serves two roles: the round-0 bootstrap — Merchandiser
    /// extends the MemoryOptimizer infrastructure (§6), so its hot-page
    /// placement is active while the base instance is profiled — and the
    /// bottom rung of the degradation ladder when task profiles are missing
    /// or stale.
    fn hot_page_fallback(&self, sys: &mut HmSystem) {
        let capacity = planning_capacity(sys);
        let pages: Vec<(u64, f64)> = sys
            .page_table()
            .iter()
            .map(|(id, p)| {
                let num_pages = sys.try_object(p.object).map(|o| o.num_pages).unwrap_or(1);
                (id, p.weight() / num_pages.max(1) as f64)
            })
            .collect();
        let take = (capacity / merch_hm::page::PAGE_SIZE) as usize;
        let promote: Vec<u64> = merch_hm::topk::hot_pages_top_k(pages, take)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        sys.migrate_pages(promote, Tier::Dram);
    }

    /// Reconcile the Algorithm 1 quotas against the pages that actually
    /// moved: failed migrations leave claimed pages stranded on PM, so each
    /// task's granted DRAM accesses shrink by the realised fraction of its
    /// claim. Returns whether any quota had to be cut (a degraded round).
    fn reconcile_quotas(
        &self,
        sys: &HmSystem,
        plan: &mut AllocatorPlan,
        claimed: &std::collections::BTreeSet<u64>,
    ) -> bool {
        let mut shortfall = false;
        for (i, ts) in self.state.iter().enumerate() {
            let (mut claimed_pages, mut resident) = (0u64, 0u64);
            for (oid, _) in &ts.objects {
                let Ok(o) = sys.try_object(*oid) else {
                    continue;
                };
                for id in o.pages() {
                    if claimed.contains(&id) {
                        claimed_pages += 1;
                        if sys.page_table().get(id).tier() == Tier::Dram {
                            resident += 1;
                        }
                    }
                }
            }
            if claimed_pages > 0 && resident < claimed_pages {
                let realised = resident as f64 / claimed_pages as f64;
                plan.dram_accesses[i] *= realised;
                plan.dram_bytes[i] = (plan.dram_bytes[i] as f64 * realised) as u64;
                shortfall = true;
            }
        }
        shortfall
    }

    /// Serialize one task's base-input profile for a checkpoint. Names are
    /// percent-escaped; floats use `{:?}` (shortest round-trip, preserves
    /// the NaN sentinels of dropped PMC events).
    fn encode_task(out: &mut String, idx: usize, ts: &TaskState) {
        out.put(format_args!("task {} {}\n", idx, ts.objects.len()));
        for (oid, name) in &ts.objects {
            out.put(format_args!("obj {} {}\n", oid.0, esc(name)));
        }
        out.push_str("events");
        for v in &ts.events.values {
            out.put(format_args!(" {v:?}"));
        }
        out.put(format_args!("\nest {}\n", ts.estimator.objects.len()));
        for (name, e) in &ts.estimator.objects {
            out.put(format_args!(
                "e {} {} {:?} {:?} {:?} ",
                esc(name),
                e.s_base,
                e.prof_mem_acc,
                e.alpha,
                e.caching_ratio
            ));
            match e.pattern {
                AccessPattern::Stream => out.push_str("stream"),
                AccessPattern::Strided { stride, elem_bytes } => {
                    out.put(format_args!("strided {stride} {elem_bytes}"))
                }
                AccessPattern::Stencil {
                    points,
                    input_dependent,
                } => out.put(format_args!(
                    "stencil {points} {}",
                    u8::from(input_dependent)
                )),
                AccessPattern::Random => out.push_str("random"),
            }
            match &e.refiner {
                None => out.push_str(" none\n"),
                Some(r) => out.put(format_args!(
                    " ref {:?} {:?} {}\n",
                    r.alpha, r.eta, r.observations
                )),
            }
        }
        let table = &ts.predictor.table;
        out.put(format_args!(
            "bbt {} {} {}\n",
            table.unit_times.len(),
            table.base_counts.len(),
            ts.predictor.base_sizes.len()
        ));
        for (name, (d, p)) in &table.unit_times {
            out.put(format_args!("u {} {d:?} {p:?}\n", esc(name)));
        }
        for (name, c) in &table.base_counts {
            out.put(format_args!("c {} {c:?}\n", esc(name)));
        }
        out.push_str("bsizes");
        for v in &ts.predictor.base_sizes {
            out.put(format_args!(" {v:?}"));
        }
        out.push('\n');
    }

    /// Inverse of [`encode_task`](Self::encode_task).
    fn decode_task(r: &mut Reader<'_>) -> Result<TaskState, HmError> {
        use merch_profiling::pmc::NUM_EVENTS;
        let mut c = r.line("task")?;
        c.token("index")?;
        let nobj: usize = c.next("objects")?;
        let mut objects = Vec::new();
        for _ in 0..nobj {
            let mut c = r.line("obj")?;
            objects.push((ObjectId(c.next("id")?), c.next("name")?));
        }
        let mut c = r.line("events")?;
        let mut values = [0.0f64; NUM_EVENTS];
        for v in &mut values {
            *v = c.next("event")?;
        }
        let events = PmcEvents { values };
        let n: usize = r.line("est")?.next("objects")?;
        let mut estimator = AccessEstimator::new();
        for _ in 0..n {
            let mut c = r.line("e")?;
            let name = c.next("name")?;
            let (s_base, prof_mem_acc) = (c.next("s_base")?, c.next("prof_mem_acc")?);
            let (alpha, caching_ratio) = (c.next("alpha")?, c.next("caching_ratio")?);
            let pattern = match c.token("pattern")? {
                "stream" => AccessPattern::Stream,
                "random" => AccessPattern::Random,
                "strided" => AccessPattern::Strided {
                    stride: c.next("stride")?,
                    elem_bytes: c.next("elem_bytes")?,
                },
                "stencil" => AccessPattern::Stencil {
                    points: c.next("points")?,
                    input_dependent: c.next("input_dependent")?,
                },
                other => {
                    return Err(c.invalid("pattern", format_args!("unknown pattern `{other}`")))
                }
            };
            let refiner = match c.token("refiner")? {
                "none" => None,
                "ref" => Some(AlphaRefiner {
                    alpha: c.next("ref_alpha")?,
                    eta: c.next("ref_eta")?,
                    observations: c.next("ref_observations")?,
                }),
                other => {
                    return Err(c.invalid("refiner", format_args!("unknown refiner `{other}`")))
                }
            };
            estimator.objects.insert(
                name,
                crate::estimator::ObjectEstimate {
                    pattern,
                    s_base,
                    prof_mem_acc,
                    alpha,
                    caching_ratio,
                    refiner,
                },
            );
        }
        let mut c = r.line("bbt")?;
        let (nu, nc): (usize, usize) = (c.next("unit_times")?, c.next("base_counts")?);
        let ns: usize = c.next("base_sizes")?;
        let mut table = BasicBlockTable::default();
        for _ in 0..nu {
            let mut c = r.line("u")?;
            let name = c.next("name")?;
            let times = (c.next("dram_ns")?, c.next("pm_ns")?);
            table.unit_times.insert(name, times);
        }
        for _ in 0..nc {
            let mut c = r.line("c")?;
            let name = c.next("name")?;
            table.base_counts.insert(name, c.next("count")?);
        }
        let base_sizes = r.line("bsizes")?.items(ns, "base_sizes")?;
        Ok(TaskState {
            estimator,
            predictor: HomogeneousPredictor::new(table, base_sizes),
            events,
            objects,
            quant: None,
        })
    }
}

impl PlacementPolicy for MerchandiserPolicy {
    fn name(&self) -> String {
        "Merchandiser".to_string()
    }

    fn degraded(&self) -> bool {
        self.degraded
    }

    fn before_round(&mut self, sys: &mut HmSystem, round: usize, works: &[TaskWork]) {
        self.degraded = false;
        if round == 0 || self.state.is_empty() {
            // Base input: stash the works so after_round can profile them
            // with task semantics. Merchandiser extends the MemoryOptimizer
            // infrastructure (§6), so the underlying hot-page placement is
            // already active while the base instance is profiled: bootstrap
            // DRAM with the hottest pages (by weight — what the sampling
            // profiler would find), task-agnostically. The base
            // measurements themselves are tier-normalised and unaffected.
            self.base_works = works.to_vec();
            self.hot_page_fallback(sys);
            return;
        }
        // Watchdog escalation: repeated straggler strikes mean the task
        // profiles are stale — ride the hot-page rung for a few rounds
        // instead of planning on predictions that keep missing.
        if self.watchdog_fallback_rounds > 0 {
            self.watchdog_fallback_rounds -= 1;
            self.degraded = true;
            self.hot_page_fallback(sys);
            return;
        }
        // Degradation ladder, top rung: a stale profile (the task count
        // changed since the base input was profiled) would misattribute
        // every quota — fall back to task-agnostic hot-page placement
        // instead of panicking on mismatched indices, and flag the round.
        if self.state.len() != works.len() {
            self.degraded = true;
            self.hot_page_fallback(sys);
            return;
        }
        // Drift healing: re-collect quarantined PMC profiles now that a
        // full planning round (with its works) is available.
        if !self.pending_recollect.is_empty() {
            self.heal_quarantined(sys, round, works);
        }
        // Missing PMC events (sample dropout during base profiling)
        // silently downgrade Equation 2 to linear interpolation for the
        // affected tasks; surface that in the round report.
        if self.state.iter().any(|ts| !ts.events.is_complete()) {
            self.degraded = true;
        }
        let t0 = Instant::now();
        let (mut plan, task_inputs) = self.plan(sys);
        self.last_prediction_wall_ns = t0.elapsed().as_nanos() as f64;

        // Longest predicted tasks claim their pages first.
        let mut order: Vec<usize> = (0..self.state.len()).collect();
        order.sort_by(|&a, &b| plan.predicted_ns[b].total_cmp(&plan.predicted_ns[a]));
        let claimed = self.claim_pages(sys, &plan, &order);

        // Per-task quantities reused by every placement scoring below: the
        // per-object Equation 1 estimates and the homogeneous endpoint
        // predictions depend only on the current sizes, not on the
        // placement being scored — compute them once instead of once per
        // scoring pass. The endpoints are Algorithm 1's own inputs, so
        // scoring and the logged deadlines see the same degraded curve.
        type TaskQuant = (Vec<(ObjectId, f64)>, f64, f64);
        let quants: Vec<TaskQuant> = self
            .state
            .iter()
            .zip(&task_inputs)
            .map(|(ts, input)| {
                let est: Vec<(ObjectId, f64)> = ts
                    .objects
                    .iter()
                    .filter_map(|(oid, name)| {
                        let size = sys.try_object(*oid).ok()?.size;
                        Some((*oid, ts.estimator.estimate(name, size).unwrap_or(0.0)))
                    })
                    .collect();
                (est, input.d_pm_only_ns, input.d_dram_only_ns)
            })
            .collect();

        // Predicted time of every task under a given placement: the
        // effective DRAM access fraction weights each object's Equation 1
        // estimate by the weighted share of its pages in DRAM — the claimed
        // pages are the hottest, so the effective r exceeds Algorithm 1's
        // evenly-distributed assumption.
        let predict_with =
            |sys: &HmSystem, frac_of: &dyn Fn(&HmSystem, ObjectId) -> f64| -> Vec<f64> {
                self.state
                    .iter()
                    .zip(&quants)
                    .map(|(ts, (est, pm_only_ns, dram_only_ns))| {
                        let (mut acc, mut tot) = (0.0, 0.0);
                        for &(oid, e) in est {
                            acc += e * frac_of(sys, oid);
                            tot += e;
                        }
                        let r = if tot > 0.0 { acc / tot } else { 0.0 };
                        self.model
                            .predict(*pm_only_ns, *dram_only_ns, &ts.events, r)
                    })
                    .collect()
            };

        // The planned-placement fraction of an object depends only on the
        // claimed set, not on which task asks — hoist the page walk out of
        // the scoring closure so every object is scanned once, not once per
        // sharer task.
        let mut planned_frac: BTreeMap<ObjectId, f64> = BTreeMap::new();
        for (est, _, _) in &quants {
            for &(oid, _) in est {
                planned_frac.entry(oid).or_insert_with(|| {
                    let Ok(o) = sys.try_object(oid) else {
                        return 0.0;
                    };
                    let (mut w_in, mut w_tot) = (0.0, 0.0);
                    for id in o.pages() {
                        let w = sys.page_table().get(id).weight();
                        w_tot += w;
                        if claimed.contains(&id) {
                            w_in += w;
                        }
                    }
                    if w_tot > 0.0 {
                        w_in / w_tot
                    } else {
                        0.0
                    }
                });
            }
        }

        // The runtime "decides if data migration should happen" (§3): move
        // only when the predicted makespan improvement over the current
        // placement beats the migration cost (amortised over the horizon).
        let current = predict_with(sys, &|s, oid| s.dram_fraction(oid));
        let planned = predict_with(sys, &|_, oid| {
            planned_frac.get(&oid).copied().unwrap_or(0.0)
        });
        let current_makespan = current.iter().cloned().fold(0.0f64, f64::max);
        let planned_makespan = planned.iter().cloned().fold(0.0f64, f64::max);
        let moves = Self::count_moves(sys, &claimed);
        let cost = merch_hm::cost::migration_time_ns(&sys.config, moves);
        let migrate = (current_makespan - planned_makespan) * self.migration_horizon > cost;
        if migrate {
            Self::apply_claims(sys, &claimed);
            // Failed migrations strand claimed pages on PM: reconcile the
            // quotas with what actually moved (a no-op on fault-free runs)
            // and flag the shortfall.
            if self.reconcile_quotas(sys, &mut plan, &claimed) {
                self.degraded = true;
            }
        }
        // Log the prediction for the placement actually in effect this
        // round (Table 4 evaluates these against the measured times). When
        // nothing migrated the placement is unchanged, so the `current`
        // scoring already is that prediction — skip the third pass.
        let effective = if migrate {
            // `apply_claims` went through `migrate_pages`, which flushes
            // the per-object aggregates once per batch — so every
            // `dram_fraction` below resolves through the PageTable O(1)
            // aggregate path, never a per-task page scan.
            debug_assert!(
                sys.page_table().aggregates_clean(),
                "apply_claims must leave page-table aggregates flushed"
            );
            predict_with(sys, &|s, oid| s.dram_fraction(oid))
        } else {
            current.clone()
        };
        self.prediction_log.push((round, effective));
        self.last_plan = Some(plan);
    }

    fn after_round(&mut self, sys: &mut HmSystem, round: usize, report: &RoundReport) {
        if round == 0 && !self.base_works.is_empty() {
            let concurrency = self.base_works.len();
            self.collect_base(sys, concurrency);
            sys.reset_profiling_counters();
            return;
        }
        // Drift sentinel: compare this round's logged predictions (when it
        // went through the full planning path) against the observed times.
        // A degradation-window edge is excluded first: the round's Eq. 2
        // endpoints were rescaled by an *approximate* hardware factor, so
        // its error sample says "the hardware shifted", not "the model is
        // wrong" — streaks freeze and the shift is counted instead.
        let quarantine: BTreeSet<usize> = if sys.degradation_shifted() {
            self.sentinel.note_hardware_shift();
            BTreeSet::new()
        } else if let Some((_, preds)) = self.prediction_log.last().filter(|(r, _)| *r == round) {
            let samples: Vec<TaskSample> = report
                .tasks
                .iter()
                .filter_map(|t| {
                    Some(TaskSample {
                        task: t.task,
                        predicted_ns: *preds.get(t.task)?,
                        observed_ns: t.time_ns,
                    })
                })
                .collect();
            let verdict = self.sentinel.observe_round(&samples);
            if verdict.trip_edge {
                // One-shot re-refinement actions on the rising edge:
                // quarantine this round's counter samples for the
                // drifting tasks, schedule a PMC re-collection, restart
                // their α refiners, and discard every memoised
                // quantification.
                for &t in &verdict.drifting_tasks {
                    self.pending_recollect.insert(t);
                    if let Some(ts) = self.state.get_mut(t) {
                        for e in ts.estimator.objects.values_mut() {
                            if e.refiner.is_some() {
                                e.refiner = Some(AlphaRefiner::new());
                            }
                        }
                        ts.estimator.bump_version();
                        self.sentinel.version_bumps += 1;
                    }
                }
            }
            if verdict.step_down {
                // Sustained drift: the base profiles can no longer be
                // trusted — step the ladder down to the hot-page rung for
                // the next rounds, exactly like the straggler watchdog's
                // escalation. The ladder steps back up when the span
                // expires and the sentinel re-assesses the next plan.
                self.watchdog_fallback_rounds = WATCHDOG_FALLBACK_SPAN;
            }
            if verdict.trip_edge {
                verdict.drifting_tasks.into_iter().collect()
            } else {
                BTreeSet::new()
            }
        } else {
            // A fallback rung produced no prediction: the sentinel is not
            // fed stale data and its streaks freeze.
            BTreeSet::new()
        };
        // Online α refinement: read counter-sampled per-object access
        // counts for this round and fold them into each sharer's refiner.
        if !self.refine_alpha {
            sys.reset_profiling_counters();
            return;
        }
        let measured: Vec<(ObjectId, String, u64, f64)> = sys
            .objects()
            .iter()
            .map(|o| {
                let count: f64 = o
                    .pages()
                    .map(|id| sys.page_table().get(id).access_count)
                    .sum();
                (o.id, o.name.clone(), o.size, count)
            })
            .collect();
        for (oid, name, size, count) in measured {
            let sharers = self.sharer_count(&name).max(1);
            let share = count / sharers as f64;
            if share > 0.0 {
                for (i, ts) in self.state.iter_mut().enumerate() {
                    if !ts.objects.iter().any(|(id, _)| *id == oid) {
                        continue;
                    }
                    if quarantine.contains(&i) {
                        // Trip-edge round: this task's counter samples are
                        // the very ones that exposed the drift — drop them
                        // instead of folding suspect observations into α.
                        self.sentinel.quarantined_samples += 1;
                        continue;
                    }
                    ts.estimator.observe(&name, size, share);
                }
            }
        }
        sys.reset_profiling_counters();
    }

    fn save_state(&self) -> String {
        let mut out = String::new();
        out.push_str("merchpolicy 4\n");
        out.put(format_args!("degraded {}\n", u8::from(self.degraded)));
        out.put(format_args!(
            "wd {} {}\n",
            self.watchdog_fallback_rounds,
            self.watchdog_strikes.len()
        ));
        for (task, strikes) in &self.watchdog_strikes {
            out.put(format_args!("strike {task} {strikes}\n"));
        }
        out.put(format_args!("predlog {}\n", self.prediction_log.len()));
        for (round, preds) in &self.prediction_log {
            out.put(format_args!("pred {} {}", round, preds.len()));
            for v in preds {
                out.put(format_args!(" {v:?}"));
            }
            out.push('\n');
        }
        match &self.last_plan {
            None => out.push_str("plan none\n"),
            Some(p) => {
                out.put(format_args!(
                    "plan {} {}\npacc",
                    p.rounds,
                    p.dram_accesses.len()
                ));
                for v in &p.dram_accesses {
                    out.put(format_args!(" {v:?}"));
                }
                out.push_str("\npns");
                for v in &p.predicted_ns {
                    out.put(format_args!(" {v:?}"));
                }
                out.push_str("\npbytes");
                for v in &p.dram_bytes {
                    out.put(format_args!(" {v}"));
                }
                out.push('\n');
            }
        }
        self.sentinel.encode_state(&mut out);
        out.put(format_args!("pending {}", self.pending_recollect.len()));
        for t in &self.pending_recollect {
            out.put(format_args!(" {t}"));
        }
        out.put(format_args!("\ntasks {}\n", self.state.len()));
        for (i, ts) in self.state.iter().enumerate() {
            Self::encode_task(&mut out, i, ts);
        }
        out.push_str("end\n");
        out
    }

    fn restore_state(&mut self, blob: &str) -> Result<(), HmError> {
        if blob.trim().is_empty() {
            // Checkpoint written by a stateless policy: keep the fresh state.
            return Ok(());
        }
        let mut r = Reader::named("policy blob", blob);
        let mut c = r.line("merchpolicy")?;
        let version: u32 = c.next("version")?;
        if version != 4 {
            return Err(c.invalid(
                "version",
                format_args!("unsupported merchandiser state version {version}"),
            ));
        }
        let degraded = r.line("degraded")?.next("degraded")?;
        let mut c = r.line("wd")?;
        let (fallback, nstrikes): (u32, usize) = (c.next("fallback_rounds")?, c.next("strikes")?);
        let mut strikes = BTreeMap::new();
        for _ in 0..nstrikes {
            let mut c = r.line("strike")?;
            strikes.insert(c.next("task")?, c.next("strikes")?);
        }
        let n: usize = r.line("predlog")?.next("rounds")?;
        let mut prediction_log = Vec::new();
        for _ in 0..n {
            let mut c = r.line("pred")?;
            prediction_log.push((c.next("round")?, c.list("preds")?));
        }
        let mut c = r.line("plan")?;
        let last_plan = if c.peek() == Some("none") {
            None
        } else {
            let (rounds, k) = (c.next("rounds")?, c.next("tasks")?);
            Some(AllocatorPlan {
                dram_accesses: r.line("pacc")?.items(k, "dram_accesses")?,
                predicted_ns: r.line("pns")?.items(k, "predicted_ns")?,
                dram_bytes: r.line("pbytes")?.items(k, "dram_bytes")?,
                rounds,
            })
        };
        let sentinel = DriftSentinel::decode_state(&mut r)?;
        let pending_recollect = r.line("pending")?.list("tasks")?.into_iter().collect();
        let n: usize = r.line("tasks")?.next("tasks")?;
        let mut state = Vec::new();
        for _ in 0..n {
            state.push(Self::decode_task(&mut r)?);
        }
        r.line("end")?;
        self.degraded = degraded;
        self.watchdog_fallback_rounds = fallback;
        self.watchdog_strikes = strikes;
        self.prediction_log = prediction_log;
        self.last_plan = last_plan;
        self.sentinel = sentinel;
        self.pending_recollect = pending_recollect;
        self.state = state;
        self.base_works.clear();
        Ok(())
    }

    fn round_deadlines_ns(&self, round: usize) -> Option<Vec<f64>> {
        // A deadline only exists when this round went through the full
        // prediction + planning path (the log's last entry is for it).
        self.prediction_log
            .last()
            .filter(|(r, _)| *r == round)
            .map(|(_, preds)| preds.clone())
    }

    fn on_straggler(
        &mut self,
        sys: &mut HmSystem,
        _round: usize,
        task: usize,
        observed_ns: f64,
        deadline_ns: f64,
    ) -> bool {
        use merch_hm::page::PAGE_SIZE;
        let strikes = self.watchdog_strikes.entry(task).or_insert(0);
        *strikes += 1;
        if *strikes >= WATCHDOG_STRIKE_LIMIT {
            // Hysteresis: a task that keeps overrunning has a stale profile
            // — stop thrashing on emergency migrations and escalate to the
            // degradation ladder for the next rounds.
            *strikes = 0;
            self.watchdog_fallback_rounds = WATCHDOG_FALLBACK_SPAN;
            return false;
        }
        if task >= self.state.len() {
            return false;
        }
        // Emergency re-run of Algorithm 1 restricted to the straggler: fold
        // the observed miss ratio into its homogeneous predictions and give
        // it the DRAM it already holds plus whatever is free. The base
        // quantification comes from the per-task cache.
        let miss = (observed_ns / deadline_ns.max(1e-9)).max(1.0);
        let (mut pm_only_ns, mut dram_only_ns, total) = self.quantify(sys, task);
        // The deadline that fired was planned under the degraded curve (if a
        // window is open) — the emergency re-plan must see the same one.
        if let Some((pm_s, dram_s)) = Self::degradation_scales(sys) {
            pm_only_ns *= pm_s;
            dram_only_ns *= dram_s;
        }
        let model = Self::ensure_compiled(&self.model, &mut self.compiled);
        let ts = &self.state[task];
        let (mut bytes, mut resident) = (0u64, 0u64);
        for (oid, _) in &ts.objects {
            let Ok(o) = sys.try_object(*oid) else {
                continue;
            };
            bytes += o.size;
            for id in o.pages() {
                if sys.page_table().get(id).tier() == Tier::Dram {
                    resident += PAGE_SIZE;
                }
            }
        }
        let input = AllocatorInput {
            tasks: vec![TaskInput {
                task: 0,
                d_pm_only_ns: pm_only_ns * miss,
                d_dram_only_ns: dram_only_ns * miss,
                events: ts.events.clone(),
                total_accesses: total.max(1.0),
                bytes,
            }],
            dram_capacity: resident + sys.free_bytes(Tier::Dram),
            model,
            step: self.step,
        };
        // A throwaway cache: the miss-scaled single-task input would only
        // thrash the cross-round cache's slot 0.
        let plan = plan_dram_accesses(&input);
        let budget = plan.dram_bytes[0].saturating_sub(resident);
        if budget < PAGE_SIZE {
            return false;
        }
        // Promote the straggler's hottest PM pages up to the emergency quota.
        let mut pages: Vec<(u64, f64)> = Vec::new();
        for (oid, name) in &ts.objects {
            let Ok(o) = sys.try_object(*oid) else {
                continue;
            };
            let esti = ts.estimator.estimate(name, o.size).unwrap_or(0.0);
            for id in o.pages() {
                let p = sys.page_table().get(id);
                if p.tier() == Tier::Pm {
                    pages.push((id, esti * p.weight()));
                }
            }
        }
        let take = (budget / PAGE_SIZE) as usize;
        let promote: Vec<u64> = merch_hm::topk::hot_pages_top_k(pages, take)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        if promote.is_empty() {
            return false;
        }
        sys.migrate_pages(promote, Tier::Dram).pages_moved > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use merch_hm::page::PAGE_SIZE;
    use merch_hm::runtime::{Executor, StaticPolicy};
    use merch_hm::workload::Workload;
    use merch_hm::{HmConfig, ObjectAccess, ObjectSpec, Phase};
    use merch_models::{GradientBoostedRegressor, Regressor};

    fn linear_model() -> PerformanceModel {
        let mut f = GradientBoostedRegressor::new(1, 0.1, 1, 0);
        f.fit(&[vec![0.0; 9], vec![1.0; 9]], &[1.0, 1.0]);
        PerformanceModel { f, num_events: 8 }
    }

    /// Imbalanced two-task workload: task 1 does 4× the random accesses.
    struct TwoTasks {
        rounds: usize,
    }

    impl Workload for TwoTasks {
        fn name(&self) -> &str {
            "two-tasks"
        }
        fn object_specs(&self) -> Vec<ObjectSpec> {
            vec![
                ObjectSpec::new("a", 256 * PAGE_SIZE).owned_by(0),
                ObjectSpec::new("b", 256 * PAGE_SIZE).owned_by(1),
            ]
        }
        fn num_tasks(&self) -> usize {
            2
        }
        fn num_instances(&self) -> usize {
            self.rounds
        }
        fn instance(&mut self, _round: usize, sys: &HmSystem) -> Vec<TaskWork> {
            let a = sys.object_by_name("a").unwrap();
            let b = sys.object_by_name("b").unwrap();
            vec![
                TaskWork::new(0).with_phase(Phase::new("w", 0.0).with_access(ObjectAccess::new(
                    a,
                    5e5,
                    8,
                    AccessPattern::Random,
                    0.1,
                ))),
                TaskWork::new(1).with_phase(Phase::new("w", 0.0).with_access(ObjectAccess::new(
                    b,
                    2e6,
                    8,
                    AccessPattern::Random,
                    0.1,
                ))),
            ]
        }
    }

    fn pattern_map() -> ObjectPatternMap {
        let mut m = ObjectPatternMap::new();
        m.insert("a".into(), AccessPattern::Random);
        m.insert("b".into(), AccessPattern::Random);
        m
    }

    fn small_config() -> HmConfig {
        // DRAM holds ~40 % of the 512-page working set.
        HmConfig::calibrated(200 * PAGE_SIZE, 4096 * PAGE_SIZE)
    }

    #[test]
    fn merchandiser_beats_pm_only_and_balances() {
        let run_pm = Executor::new(
            HmSystem::new(small_config(), 3),
            TwoTasks { rounds: 4 },
            StaticPolicy { tier: Tier::Pm },
        )
        .run();

        let policy = MerchandiserPolicy::new(linear_model(), pattern_map(), BTreeMap::new(), 3);
        let run_m = Executor::new(
            HmSystem::new(small_config(), 3),
            TwoTasks { rounds: 4 },
            policy,
        )
        .run();

        assert!(
            run_m.total_time_ns() < run_pm.total_time_ns(),
            "merchandiser {} vs pm-only {}",
            run_m.total_time_ns(),
            run_pm.total_time_ns()
        );
        // Post-base rounds are better balanced than PM-only.
        let cv_m = run_m.rounds.last().unwrap().cv();
        let cv_pm = run_pm.rounds.last().unwrap().cv();
        assert!(cv_m < cv_pm, "cv {cv_m} vs {cv_pm}");
    }

    #[test]
    fn slow_task_gets_larger_dram_fraction() {
        let policy = MerchandiserPolicy::new(linear_model(), pattern_map(), BTreeMap::new(), 3);
        let mut ex = Executor::new(
            HmSystem::new(small_config(), 3),
            TwoTasks { rounds: 3 },
            policy,
        );
        let _ = ex.run();
        let plan = ex.policy.last_plan.as_ref().expect("plan produced");
        // Task 1 (4× accesses) must get more DRAM accesses than task 0.
        assert!(plan.dram_accesses[1] > plan.dram_accesses[0]);
        // And its object should actually be in DRAM more than task 0's.
        let a = ex.sys.object_by_name("a").unwrap();
        let b = ex.sys.object_by_name("b").unwrap();
        assert!(ex.sys.dram_fraction(b) >= ex.sys.dram_fraction(a));
    }

    #[test]
    fn prediction_overhead_is_measured_and_small() {
        let policy = MerchandiserPolicy::new(linear_model(), pattern_map(), BTreeMap::new(), 3);
        let mut ex = Executor::new(
            HmSystem::new(small_config(), 3),
            TwoTasks { rounds: 3 },
            policy,
        );
        let _ = ex.run();
        let ns = ex.policy.last_prediction_wall_ns;
        assert!(ns > 0.0);
        // Must be well under 10 ms wall-clock even in debug builds.
        assert!(ns < 1e7, "prediction took {ns} ns");
    }

    #[test]
    fn alpha_refined_for_random_objects() {
        let policy = MerchandiserPolicy::new(linear_model(), pattern_map(), BTreeMap::new(), 3);
        let mut ex = Executor::new(
            HmSystem::new(small_config(), 3),
            TwoTasks { rounds: 4 },
            policy,
        );
        let _ = ex.run();
        let st = &ex.policy.state[0].estimator;
        let obj = st.objects.get("a").expect("object registered");
        assert!(obj.refiner.is_some());
        assert!(obj.refiner.as_ref().unwrap().observations > 0);
    }

    #[test]
    fn faulted_run_degrades_without_panicking() {
        use merch_hm::FaultPlan;
        let clean = Executor::new(
            HmSystem::new(small_config(), 3),
            TwoTasks { rounds: 4 },
            MerchandiserPolicy::new(linear_model(), pattern_map(), BTreeMap::new(), 3),
        )
        .run();

        let mut sys = HmSystem::new(small_config(), 3);
        sys.set_fault_plan(
            FaultPlan::none()
                .with_seed(17)
                .with_migration_failures(0.3, 2)
                .with_sample_dropout(0.2, 0.5),
        )
        .unwrap();
        let policy = MerchandiserPolicy::new(linear_model(), pattern_map(), BTreeMap::new(), 3);
        let faulted = Executor::new(sys, TwoTasks { rounds: 4 }, policy).run();

        // The run completes, accounts for its faults, and stays bounded.
        assert!(faulted.fault.dropped_pmc_events > 0 || faulted.fault.failed_pages > 0);
        assert!(faulted.total_time_ns().is_finite());
        // Missing PMC events flag the post-base rounds as degraded.
        if faulted.fault.dropped_pmc_events > 0 {
            assert!(faulted.fault.degraded_rounds > 0);
        }
        assert_eq!(clean.fault.degraded_rounds, 0);
        assert_eq!(clean.fault.failed_pages, 0);
    }

    #[test]
    fn task_count_mismatch_falls_back_to_hot_pages() {
        // Profile on two tasks, then present a three-task round: the policy
        // must not panic and must flag the round as degraded.
        struct GrowingTasks;
        impl Workload for GrowingTasks {
            fn name(&self) -> &str {
                "growing"
            }
            fn object_specs(&self) -> Vec<ObjectSpec> {
                vec![
                    ObjectSpec::new("a", 64 * PAGE_SIZE).owned_by(0),
                    ObjectSpec::new("b", 64 * PAGE_SIZE).owned_by(1),
                ]
            }
            fn num_tasks(&self) -> usize {
                2
            }
            fn num_instances(&self) -> usize {
                3
            }
            fn instance(&mut self, round: usize, sys: &HmSystem) -> Vec<TaskWork> {
                let a = sys.object_by_name("a").unwrap();
                let b = sys.object_by_name("b").unwrap();
                let mut works = vec![
                    TaskWork::new(0).with_phase(
                        Phase::new("w", 0.0).with_access(ObjectAccess::new(
                            a,
                            1e5,
                            8,
                            AccessPattern::Random,
                            0.1,
                        )),
                    ),
                    TaskWork::new(1).with_phase(
                        Phase::new("w", 0.0).with_access(ObjectAccess::new(
                            b,
                            1e5,
                            8,
                            AccessPattern::Random,
                            0.1,
                        )),
                    ),
                ];
                if round == 2 {
                    works.push(TaskWork::new(2).with_phase(
                        Phase::new("w", 0.0).with_access(ObjectAccess::new(
                            a,
                            1e4,
                            8,
                            AccessPattern::Random,
                            0.1,
                        )),
                    ));
                }
                works
            }
        }
        let policy = MerchandiserPolicy::new(linear_model(), pattern_map(), BTreeMap::new(), 3);
        let run = Executor::new(HmSystem::new(small_config(), 3), GrowingTasks, policy).run();
        assert_eq!(run.rounds.len(), 3);
        assert!(run.rounds[2].degraded, "mismatched round must be degraded");
        assert!(!run.rounds[1].degraded);
        assert_eq!(run.fault.degraded_rounds, 1);
    }

    /// Two random-pattern tasks whose access counts burst ×4 on rounds
    /// 1..=3 and then return to the base-profiled level: the canonical
    /// drift scenario (input-dependent behaviour diverging from the base
    /// profile, then settling).
    struct BurstTasks {
        rounds: usize,
    }

    impl Workload for BurstTasks {
        fn name(&self) -> &str {
            "burst-tasks"
        }
        fn object_specs(&self) -> Vec<ObjectSpec> {
            vec![
                ObjectSpec::new("a", 256 * PAGE_SIZE).owned_by(0),
                ObjectSpec::new("b", 256 * PAGE_SIZE).owned_by(1),
            ]
        }
        fn num_tasks(&self) -> usize {
            2
        }
        fn num_instances(&self) -> usize {
            self.rounds
        }
        fn instance(&mut self, round: usize, sys: &HmSystem) -> Vec<TaskWork> {
            let a = sys.object_by_name("a").unwrap();
            let b = sys.object_by_name("b").unwrap();
            let scale = if (1..=3).contains(&round) { 4.0 } else { 1.0 };
            vec![
                TaskWork::new(0).with_phase(Phase::new("w", 0.0).with_access(ObjectAccess::new(
                    a,
                    5e5 * scale,
                    8,
                    AccessPattern::Random,
                    0.1,
                ))),
                TaskWork::new(1).with_phase(Phase::new("w", 0.0).with_access(ObjectAccess::new(
                    b,
                    2e6 * scale,
                    8,
                    AccessPattern::Random,
                    0.1,
                ))),
            ]
        }
    }

    /// Satellite: the §8 ladder's step-UP path. After a watchdog
    /// escalation the policy rides the hot-page rung for exactly
    /// `WATCHDOG_FALLBACK_SPAN` rounds, then steps back up to full
    /// planning on its own once the fallback expires.
    #[test]
    fn watchdog_escalation_steps_ladder_down_then_back_up() {
        let policy = MerchandiserPolicy::new(linear_model(), pattern_map(), BTreeMap::new(), 3);
        let mut ex = Executor::new(
            HmSystem::new(small_config(), 3),
            TwoTasks { rounds: 6 },
            policy,
        );
        ex.step().unwrap(); // round 0: base profiling
        let planned = ex.step().unwrap().unwrap().degraded; // round 1: full plan
        assert!(!planned);
        // Three straggler strikes: the first two attempt emergency
        // promotion, the third escalates to the degradation ladder.
        for _ in 0..2 {
            let _ = ex.policy.on_straggler(&mut ex.sys, 1, 0, 2.0, 1.0);
        }
        assert!(!ex.policy.on_straggler(&mut ex.sys, 1, 0, 2.0, 1.0));
        assert_eq!(ex.policy.watchdog_fallback_rounds, WATCHDOG_FALLBACK_SPAN);
        // The next `WATCHDOG_FALLBACK_SPAN` rounds ride the hot-page rung…
        for _ in 0..WATCHDOG_FALLBACK_SPAN {
            let degraded = ex.step().unwrap().unwrap().degraded;
            assert!(degraded, "fallback rounds must be flagged degraded");
        }
        // …then the ladder steps back up: planning resumes cleanly.
        let report = ex.step().unwrap().unwrap();
        let (degraded, round) = (report.degraded, report.round);
        assert!(!degraded, "round {round} should have stepped back up");
        assert_eq!(ex.policy.watchdog_fallback_rounds, 0);
        assert!(ex.policy.last_plan.is_some());
        assert_eq!(
            ex.policy.prediction_log.last().map(|(r, _)| *r),
            Some(round),
            "recovered round must carry a fresh prediction"
        );
    }

    /// Acceptance: a seeded run with sustained PMC dropout plus a
    /// mid-run behaviour burst. The sentinel must trip on the drift,
    /// quarantine and re-collect the affected profiles, and step the
    /// ladder down while the drift sustains; each step-down rides the
    /// hot-page rung for `WATCHDOG_FALLBACK_SPAN` rounds (no prediction is
    /// logged) and then steps back up to planning on its own.
    #[test]
    fn sentinel_steps_ladder_down_and_back_up_under_drift() {
        use merch_hm::FaultPlan;
        let mut sys = HmSystem::new(small_config(), 3);
        // Sustained PMC dropout: every collection (base and the sentinel's
        // re-collections alike) loses each counter with p = 0.5.
        sys.set_fault_plan(
            FaultPlan::none()
                .with_seed(11)
                .with_sample_dropout(0.0, 0.5),
        )
        .unwrap();
        let policy = MerchandiserPolicy::new(linear_model(), pattern_map(), BTreeMap::new(), 3);
        let mut ex = Executor::new(sys, BurstTasks { rounds: 12 }, policy);
        let mut step_downs = Vec::new();
        while let Some(round) = ex.step().unwrap().map(|r| r.round) {
            if ex.policy.sentinel.ladder_steps_down > step_downs.len() as u64 {
                step_downs.push(round);
            }
        }
        let run = ex.report();
        assert_eq!(run.rounds.len(), 12);
        let s = &ex.policy.sentinel;
        assert!(
            !step_downs.is_empty(),
            "sustained drift must step the ladder down: {s:?}"
        );
        // The trip edge quarantined that round's counter samples and
        // invalidated the drifting tasks' caches…
        assert!(s.quarantined_samples >= 1, "{s:?}");
        assert!(s.version_bumps >= 1, "{s:?}");
        // …and the dropped PMC events were re-collected until healed.
        assert!(s.recollections >= 1, "{s:?}");
        let planned = |r: usize| ex.policy.prediction_log.iter().any(|(p, _)| *p == r);
        let span = WATCHDOG_FALLBACK_SPAN as usize;
        for &r in &step_downs {
            assert!(planned(r), "round {r} stepped down from a plan");
            // The span after a step-down rides the hot-page rung, degraded …
            for f in (r + 1..=r + span).filter(|&f| f < run.rounds.len()) {
                assert!(!planned(f) && run.rounds[f].degraded, "round {f}");
            }
            // … and planning resumes once the span expires.
            if r + span + 1 < run.rounds.len() {
                assert!(planned(r + span + 1), "round {} must re-plan", r + span + 1);
            }
        }
    }

    /// Decision pin for the drift sentinel under its default tuning: the
    /// burst workload with sustained PMC dropout trips it, steps the
    /// ladder down, and the whole run report is hashed. A checkpoint taken
    /// at the first boundary where the sentinel sits tripped resumes to
    /// the identical report, so the serialized sentinel state is all the
    /// decisions depend on.
    #[test]
    fn sentinel_decisions_are_pinned() {
        use merch_hm::checkpoint::{fnv1a64, Checkpoint};
        use merch_hm::FaultPlan;
        const REPORT: u64 = 0xc23c_43e0_2166_cc44;
        let system = || {
            let mut sys = HmSystem::new(small_config(), 3);
            sys.set_fault_plan(
                FaultPlan::none()
                    .with_seed(11)
                    .with_sample_dropout(0.0, 0.5),
            )
            .unwrap();
            sys
        };
        let policy = || MerchandiserPolicy::new(linear_model(), pattern_map(), BTreeMap::new(), 3);
        let mut ex = Executor::new(system(), BurstTasks { rounds: 12 }, policy());
        let mut tripped_at = None;
        while ex.step().unwrap().is_some() {
            if tripped_at.is_none() && ex.policy.sentinel.tripped() {
                tripped_at = Some(ex.checkpoint().encode());
            }
        }
        let run = format!("{:?}", ex.report());
        let s = &ex.policy.sentinel;
        assert!(s.ladder_steps_down >= 1, "{s:?}");
        assert_eq!(fnv1a64(run.as_bytes()), REPORT, "{s:?}");
        let ck = Checkpoint::decode(&tripped_at.expect("the sentinel trips")).unwrap();
        let mut resumed = Executor::resume(ck, BurstTasks { rounds: 12 }, policy()).unwrap();
        assert_eq!(format!("{:?}", resumed.run()), run);
    }

    /// Only the current policy-blob version decodes: a `merchpolicy 3`
    /// blob is rejected with a located error, and the current one still
    /// restores to the same bytes.
    #[test]
    fn older_policy_blob_is_rejected() {
        let mut ex = Executor::new(
            HmSystem::new(small_config(), 3),
            TwoTasks { rounds: 3 },
            MerchandiserPolicy::new(linear_model(), pattern_map(), BTreeMap::new(), 3),
        );
        let _ = ex.run();
        let blob = ex.policy.save_state();
        let old = blob.replacen("merchpolicy 4\n", "merchpolicy 3\n", 1);
        assert_ne!(old, blob);
        let mut fresh = MerchandiserPolicy::new(linear_model(), pattern_map(), BTreeMap::new(), 3);
        match fresh.restore_state(&old) {
            Err(HmError::CheckpointCorrupt(msg)) => assert_eq!(
                msg,
                "policy blob line 1, `merchpolicy` field `version`: \
                 unsupported merchandiser state version 3"
            ),
            other => panic!("expected a located CheckpointCorrupt, got {other:?}"),
        }
        fresh.restore_state(&blob).unwrap();
        assert_eq!(fresh.save_state(), blob);
    }

    #[test]
    fn dram_capacity_respected() {
        let policy = MerchandiserPolicy::new(linear_model(), pattern_map(), BTreeMap::new(), 3);
        let mut ex = Executor::new(
            HmSystem::new(small_config(), 3),
            TwoTasks { rounds: 3 },
            policy,
        );
        let _ = ex.run();
        assert!(ex.sys.free_bytes(Tier::Dram) <= ex.sys.config.dram.capacity);
        // Never negative (u64 saturation) and some DRAM actually used.
        assert!(ex.sys.page_table().bytes_in(Tier::Dram) > 0);
    }
}
