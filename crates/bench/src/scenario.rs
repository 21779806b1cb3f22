//! One scenario engine behind `repro soak`, `serve`, `device` and
//! `contain`.
//!
//! A [`Scenario`] is a pure function of its generator's seed and carries up
//! to two legs:
//!
//! * a **solo leg** ([`Solo`]): one application under Merchandiser with a
//!   fault plan and an optional scripted crash;
//! * a **service leg** ([`Service`]): a shared DRAM pool, a queue bound and
//!   a tenant mix, optionally with a mid-run DRAM offline and one victim
//!   tenant under a scripted panic or stall.
//!
//! The four suites differ only in how they generate scenarios
//! ([`Suite::generate`]). Everything downstream is shared: one executor
//! builder, one per-round system oracle, one re-run determinism check, one
//! crash → WAL → resume leg (also behind `repro recover`), one service
//! drive, one reproducer format and one shrinker.
//!
//! The solo leg is checked between rounds for: DRAM residency within the
//! physical capacity, and physical capacity exactly configured − offlined −
//! quarantined; no quarantined page resident on DRAM; O(1) tier counters
//! equal to a recount; clean residency aggregates with the O(1)
//! `weighted_fraction_in` bitwise equal to the page scan; finite,
//! non-negative task and round times; at most one migration epoch per
//! round. Over the whole run it is checked for: no unscripted crash, the
//! scripted offline fully applied, a bitwise-identical re-run, and — with a
//! scripted crash — a supervised WAL recovery that replays to the same
//! report without resurrecting a quarantined page.
//!
//! The service leg always checks bitwise replay of a rebuilt run and zero
//! quota violations. Its other gates follow from what it contains:
//!
//! * a **victim** selects the containment gates: survivors bitwise equal to
//!   a no-fault run, the victim's outcome per script, every grant byte
//!   re-absorbed;
//! * an **offline event** selects the renegotiation gates: floors honoured,
//!   the outcome equal to the priority-ordered walk of the pre-offline
//!   grants, surviving grants within the shrunk pool, capped retry-afters;
//! * otherwise the **serve gates**: every admitted, non-quarantined tenant
//!   bitwise equal to a solo run under its grant, sheds and squeezes
//!   strictly by priority, service time summing to the virtual clock.
//!
//! A failing scenario is shrunk over its solo leg's fault axes and written
//! as a `merchscenario 1` reproducer; `repro --replay FILE <suite>` runs it
//! back.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use merch_hm::fault::STALL_MULT;
use merch_hm::runtime::{Executor, RoundReport, RunReport};
use merch_hm::service::{
    PlacementService, Renegotiation, ServiceConfig, ServiceReport, ShedReason, TenantId, TenantJob,
    TenantSpec, TenantStatus,
};
use merch_hm::{CrashPoint, FaultKind, FaultPlan, HmSystem, Tier, Wal, PAGE_SIZE};
use merchandiser::PerformanceModel;

use crate::experiments::{executor, parts, AppKind, PolicyKind};
use crate::par::{par_map, try_par_map};
use crate::replay::{FramedReader, Record};

/// splitmix64 finalizer: the seeded-draw idiom behind every generator.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The splitmix64 stream continuing from `state`.
fn stream(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = mix64(state);
        state
    }
}

fn pick<T: Copy>(items: &[T], draw: u64) -> T {
    items[(draw % items.len() as u64) as usize]
}

/// The scenario suites. Each name is also the `repro` experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// Seeded fault schedules over one app (solo leg only).
    Soak,
    /// A capacity and an overload tenant mix (service leg only).
    Serve,
    /// Device faults on both legs, the service leg losing pool mid-run.
    Device,
    /// One panicking or stalling victim among co-tenants.
    Contain,
}

impl Suite {
    /// Every suite, in `repro` usage order.
    pub const ALL: [Suite; 4] = [Suite::Soak, Suite::Serve, Suite::Device, Suite::Contain];

    /// The `repro` experiment name.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Soak => "soak",
            Suite::Serve => "serve",
            Suite::Device => "device",
            Suite::Contain => "contain",
        }
    }

    /// The suite named `name`, if any.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The suite's seeded sweep. `small` picks the CI size (`--quick` for
    /// soak, `--smoke` for the others).
    pub fn generate(self, seed: u64, small: bool) -> Vec<Scenario> {
        let legs: Vec<(String, Option<Solo>, Option<Service>)> = match self {
            Suite::Soak => {
                let cases = if small { 6 } else { 24 };
                (0..cases)
                    .map(|c| (c.to_string(), Some(soak_solo(seed, c)), None))
                    .collect()
            }
            Suite::Serve => {
                let (n_cap, n_over) = if small { (5, 5) } else { (10, 8) };
                let overload = serve_mix(
                    mix64(seed ^ 0x00E8_10AD),
                    n_over,
                    0,
                    45,
                    n_over.saturating_sub(2).max(1),
                );
                vec![
                    (
                        "capacity".into(),
                        None,
                        Some(serve_mix(seed, n_cap, 5, 110, n_cap)),
                    ),
                    ("overload".into(), None, Some(overload)),
                ]
            }
            Suite::Device => {
                let cases = if small { 4 } else { 10 };
                (0..cases)
                    .map(|c| {
                        let (solo, service) = device_case(seed, c);
                        (c.to_string(), Some(solo), Some(service))
                    })
                    .collect()
            }
            Suite::Contain => {
                let n = if small { 4 } else { 7 };
                let stall = contain_mix(mix64(seed ^ 0x57A_11ED), n, true);
                vec![
                    ("panic".into(), None, Some(contain_mix(seed, n, false))),
                    ("stall".into(), None, Some(stall)),
                ]
            }
        };
        (legs.into_iter())
            .map(|(label, solo, service)| Scenario {
                suite: self,
                label,
                solo,
                service,
            })
            .collect()
    }
}

/// One scenario. Everything a run does is a pure function of this value,
/// so its encoding is the reproducer.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The suite that generated it (selects the `repro` rendering).
    pub suite: Suite,
    /// Single-token label: the case index or the scenario name.
    pub label: String,
    /// One application under a fault plan.
    pub solo: Option<Solo>,
    /// A tenant mix over a shared pool.
    pub service: Option<Service>,
}

/// The solo leg: one application under Merchandiser.
#[derive(Debug, Clone, PartialEq)]
pub struct Solo {
    /// Application under test.
    pub app: AppKind,
    /// Workload, system and policy seed.
    pub seed: u64,
    /// Fault axes. The scripted crash is armed only on the recovery leg.
    pub plan: FaultPlan,
    /// Scripted crash of the recovery leg.
    pub crash: Option<Crash>,
}

impl Solo {
    /// The fault plan with the scripted crash armed.
    pub(crate) fn armed_plan(&self) -> FaultPlan {
        match self.crash {
            Some(c) => self.plan.clone().with_fault(c.fault()),
            None => self.plan.clone(),
        }
    }
}

/// A scripted crash: the round it strikes in and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crash {
    /// Round the crash strikes in.
    pub round: u64,
    /// Position within the round.
    pub point: CrashPoint,
}

impl Crash {
    fn fault(self) -> FaultKind {
        FaultKind::Crash {
            round: self.round,
            point: self.point,
        }
    }

    /// Short display: `boundary@R` or `midmig@R`.
    pub fn label(self) -> String {
        match self.point {
            CrashPoint::BetweenRounds => format!("boundary@{}", self.round),
            CrashPoint::MidMigration { .. } => format!("midmig@{}", self.round),
        }
    }
}

/// The service leg: a tenant mix over one shared DRAM pool.
#[derive(Debug, Clone, PartialEq)]
pub struct Service {
    /// Retry-after jitter seed.
    pub seed: u64,
    /// Shared DRAM pool, pages.
    pub pool_pages: u64,
    /// Admission queue bound.
    pub queue_bound: usize,
    /// Tenant mix, submission order.
    pub tenants: Vec<Tenant>,
    /// Pool pages offlined mid-run, and the service steps taken first.
    pub offline: Option<(u64, u64)>,
    /// Index of the victim tenant and the fault it runs under.
    pub victim: Option<(usize, VictimFault)>,
}

/// The scripted in-tenant fault of a containment victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimFault {
    /// Panic at the boundary before `round` (non-latching: fires on every
    /// attempt until the trip checkpoint's restore disarms it).
    Panic {
        /// Round boundary the panic fires at.
        round: u64,
    },
    /// Stall rounds `round .. round + rounds` by `STALL_MULT` (survives
    /// restore, so probes re-trip).
    Stall {
        /// First stalled round.
        round: u64,
        /// Number of consecutive stalled rounds.
        rounds: u64,
    },
}

impl VictimFault {
    /// The victim's fault plan.
    pub(crate) fn plan(self) -> FaultPlan {
        match self {
            VictimFault::Panic { round } => FaultPlan::none().with_tenant_panic(round),
            VictimFault::Stall { round, rounds } => {
                FaultPlan::none().with_tenant_stall(round, rounds)
            }
        }
    }

    /// Short display: `panic@R` or `stall@RxN`.
    pub fn label(self) -> String {
        match self {
            VictimFault::Panic { round } => format!("panic@{round}"),
            VictimFault::Stall { round, rounds } => format!("stall@{round}x{rounds}"),
        }
    }
}

/// One tenant of a service leg.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    /// Single-token tenant name.
    pub name: String,
    /// Application the tenant runs.
    pub app: AppKind,
    /// Placement policy driving the tenant.
    pub policy: PolicyKind,
    /// Seed for the tenant's workload, policy and chaos plan.
    pub seed: u64,
    /// DRR weight.
    pub weight: u32,
    /// Priority class (distinct within a generated mix, so shed, squeeze
    /// and renegotiation order is total).
    pub priority: u8,
    /// Requested DRAM quota, pages.
    pub quota_pages: u64,
    /// Squeeze floor, pages.
    pub min_quota_pages: u64,
    /// Completion deadline, virtual ms (`inf` = none).
    pub deadline_ms: f64,
    /// Chaos: run under soak case `chaos_case` of this tenant's seed, its
    /// scripted crash armed.
    pub chaos_case: Option<u64>,
}

impl Tenant {
    /// The tenant's fault plan.
    pub(crate) fn plan(&self) -> FaultPlan {
        self.chaos_case
            .map_or_else(FaultPlan::none, |c| soak_solo(self.seed, c).armed_plan())
    }

    /// The service-side contract this tenant declares.
    pub(crate) fn spec(&self) -> TenantSpec {
        let deadline_ns = if self.deadline_ms.is_finite() {
            self.deadline_ms * 1e6
        } else {
            f64::INFINITY
        };
        TenantSpec::new(self.name.clone(), self.quota_pages * PAGE_SIZE)
            .with_min_quota(self.min_quota_pages * PAGE_SIZE)
            .with_weight(self.weight)
            .with_priority(self.priority)
            .with_deadline_ns(deadline_ns)
    }

    fn encode_line(&self) -> String {
        let chaos = self
            .chaos_case
            .map_or_else(|| "-".to_string(), |c| c.to_string());
        format!(
            "tenant {} {} {} {} {} {} {} {} {:?} {chaos}",
            self.name,
            self.app.name(),
            self.policy.name(),
            self.seed,
            self.weight,
            self.priority,
            self.quota_pages,
            self.min_quota_pages,
            self.deadline_ms
        )
    }
}

// ---------------------------------------------------------------------------
// Generation: one function per suite; the draws are the suite's contract.
// ---------------------------------------------------------------------------

/// Every fault axis drawn over a random app; every third case arms a
/// scripted crash so the WAL recovery path soaks alongside the rate faults.
fn soak_solo(master: u64, case: u64) -> Solo {
    let mut next = stream(master ^ mix64(case.wrapping_add(0x50AC)));
    let app = pick(&AppKind::all(), next());
    let rate = |x: u64, hi: f64| (x % 101) as f64 / 100.0 * hi;
    let crash = (case % 3 == 2).then(|| {
        let round = 1 + next() % 2;
        let point = if next().is_multiple_of(2) {
            CrashPoint::BetweenRounds
        } else {
            CrashPoint::MidMigration {
                after_attempts: next() % 3,
            }
        };
        Crash { round, point }
    });
    let seed = master ^ mix64(case);
    // Arguments evaluate left to right, so the chain fixes the draw order.
    // The device axes draw last, keeping the older axes seed-stable.
    let plan = FaultPlan::none()
        .with_seed(seed ^ 0x50AC_50AC)
        .with_migration_failures(rate(next(), 0.5), (next() % 3) as u32)
        .with_sample_dropout(rate(next(), 0.5), rate(next(), 0.5))
        .with_dram_pressure((next() % 9) * 64 * PAGE_SIZE, next() % 5)
        .with_telemetry_blackout(rate(next(), 0.3))
        .with_page_poison(rate(next(), 0.3));
    let tier = if next().is_multiple_of(2) {
        Tier::Pm
    } else {
        Tier::Dram
    };
    let period = next() % 5;
    let draw = next();
    let (lat, bw) = if draw.is_multiple_of(2) {
        (1.0, 1.0)
    } else {
        (
            1.0 + (draw >> 8) as f64 % 101.0 / 100.0,
            1.0 - (next() % 51) as f64 / 100.0,
        )
    };
    let offline_round = 1 + next() % 3;
    let offline_bytes = if next().is_multiple_of(3) {
        (1 + next() % 8) * PAGE_SIZE
    } else {
        0
    };
    Solo {
        app,
        seed,
        plan: plan
            .with_degradation(tier, period, lat, bw)
            .with_dram_offlining(offline_round, offline_bytes),
        crash,
    }
}

/// Distinct priorities `0..n` in a seeded Fisher–Yates order.
fn shuffled_priorities(n: usize, state: u64) -> Vec<u8> {
    let mut prio: Vec<u8> = (0..n as u8).collect();
    let mut next = stream(state);
    for i in (1..n).rev() {
        prio.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    prio
}

/// A tenant's quota and squeeze floor, pages, sized against its app's
/// recommended DRAM tier.
fn quota_draw(app: AppKind, seed: u64, next: &mut impl FnMut() -> u64) -> (u64, u64) {
    let dram_pages = app.build(seed).recommended_config().dram.capacity / PAGE_SIZE;
    let quota = (dram_pages * (50 + next() % 51) / 100).max(4);
    (quota, (quota * (40 + next() % 21) / 100).max(2))
}

/// A tenant mix whose pool is `pool_pct`% of the summed quotas (100+ =
/// everyone fits; below ~60 = overload), every `chaos_every`-th tenant
/// under a soak fault schedule.
fn serve_mix(
    master: u64,
    n: usize,
    chaos_every: usize,
    pool_pct: u64,
    queue_bound: usize,
) -> Service {
    const POLICIES: [PolicyKind; 4] = [
        PolicyKind::Merchandiser,
        PolicyKind::Merchandiser,
        PolicyKind::MemoryOptimizer,
        PolicyKind::AutoNuma,
    ];
    let prio = shuffled_priorities(n, mix64(master ^ 0x5E17_E5E1));
    let tenants: Vec<Tenant> = prio
        .into_iter()
        .enumerate()
        .map(|(i, priority)| {
            // 32-bit tenant seeds: full-width seeds overflow debug-mode
            // seed arithmetic in some app constructors.
            let seed = mix64(master ^ ((i as u64) << 8) ^ 0xA11C_E5ED) & 0xFFFF_FFFF;
            let mut next = stream(seed);
            let app = pick(&AppKind::all(), next());
            let policy = pick(&POLICIES, next());
            let (quota_pages, min_quota_pages) = quota_draw(app, seed, &mut next);
            let chaos_case =
                (chaos_every > 0 && i % chaos_every == chaos_every - 1).then(|| next() % 64);
            // The lowest-priority overload tenant gets a finite deadline so
            // deadline shedding runs (it is exempt from the priority gate).
            let deadline_ms = if priority == 0 && pool_pct < 100 {
                5.0 + (next() % 20) as f64
            } else {
                f64::INFINITY
            };
            Tenant {
                name: format!("t{i}"),
                app,
                policy,
                seed,
                weight: 1 + (next() % 4) as u32,
                priority,
                quota_pages,
                min_quota_pages,
                deadline_ms,
                chaos_case,
            }
        })
        .collect();
    let total: u64 = tenants.iter().map(|t| t.quota_pages).sum();
    Service {
        seed: master,
        pool_pages: (total * pool_pct / 100).max(1),
        queue_bound,
        tenants,
        offline: None,
        victim: None,
    }
}

/// Device case `case`: every case poisons; degradation and offlining are
/// armed on most (not all) cases so each axis also runs alone. The service
/// leg's pool admits the whole mix, then loses 40–80% of it mid-run.
fn device_case(master: u64, case: u64) -> (Solo, Service) {
    let mut next = stream(master ^ mix64(case.wrapping_add(0xDE1C)));
    let app = pick(&AppKind::all(), next());
    let seed = (master ^ mix64(case)) & 0xFFFF_FFFF;
    let plan = FaultPlan::none()
        .with_seed(seed ^ 0xDE1C_DE1C)
        .with_page_poison((1 + next() % 30) as f64 / 100.0);
    let tier = if next().is_multiple_of(2) {
        Tier::Pm
    } else {
        Tier::Dram
    };
    let period = next() % 4;
    let (lat, bw) = if case % 4 == 3 {
        (1.0, 1.0)
    } else {
        (
            1.2 + (next() % 81) as f64 / 100.0,
            0.5 + (next() % 41) as f64 / 100.0,
        )
    };
    let offline_round = 1 + next() % 3;
    let offline_pages = if case % 3 == 2 { 0 } else { 1 + next() % 4 };
    let crash = Crash {
        round: 1 + next() % 2,
        point: CrashPoint::BetweenRounds,
    };
    let tenants = device_mix(seed, 3 + (next() % 2) as usize);
    let pool_pages = tenants.iter().map(|t| t.quota_pages).sum::<u64>().max(1);
    let offline = (
        (pool_pages * (40 + next() % 41) / 100).max(1),
        1 + next() % 3,
    );
    let solo = Solo {
        app,
        seed,
        plan: plan
            .with_degradation(tier, period, lat, bw)
            .with_dram_offlining(offline_round, offline_pages * PAGE_SIZE),
        crash: Some(crash),
    };
    let service = Service {
        seed,
        pool_pages,
        queue_bound: ServiceConfig::new(0).max_queue,
        tenants,
        offline: Some(offline),
        victim: None,
    };
    (solo, service)
}

/// Merchandiser tenants with distinct priorities, so the renegotiation
/// walk is a total order.
fn device_mix(seed: u64, n: usize) -> Vec<Tenant> {
    let prio = shuffled_priorities(n, mix64(seed ^ 0xDE1C_E5E1));
    prio.into_iter()
        .enumerate()
        .map(|(i, priority)| {
            let tseed = mix64(seed ^ ((i as u64) << 8) ^ 0xDE1C_0000) & 0xFFFF_FFFF;
            let mut next = stream(tseed);
            let app = pick(&AppKind::all(), next());
            let (quota_pages, min_quota_pages) = quota_draw(app, tseed, &mut next);
            Tenant {
                name: format!("d{i}"),
                app,
                policy: PolicyKind::Merchandiser,
                seed: tseed,
                weight: 1 + (next() % 4) as u32,
                priority,
                quota_pages,
                min_quota_pages,
                deadline_ms: f64::INFINITY,
                chaos_case: None,
            }
        })
        .collect()
}

/// A capacity-mode mix (everyone admits at full grant, which the survivor
/// gate needs) whose victim is the first tenant, from a seeded start, with
/// enough rounds for the fault script to play out: the stall script needs
/// three strikes and a probe re-strike, the panic fires at rounds/2.
fn contain_mix(master: u64, n: usize, stall: bool) -> Service {
    let mut svc = serve_mix(master, n, 0, 115, n);
    let rounds = |t: &Tenant| t.app.build(t.seed).num_instances() as u64;
    let start = (mix64(master ^ 0xC011_7A11) % n as u64) as usize;
    let victim = (0..n)
        .map(|k| (start + k) % n)
        .find(|&i| rounds(&svc.tenants[i]) >= 6)
        .unwrap_or(start);
    let total = rounds(&svc.tenants[victim]);
    let fault = if stall {
        // Stall every round from 1 on: strikes keep coming after every
        // probe, so the breaker walks to quarantine.
        VictimFault::Stall {
            round: 1,
            rounds: total,
        }
    } else {
        VictimFault::Panic {
            round: (total / 2).max(1),
        }
    };
    svc.victim = Some((victim, fault));
    svc
}

// ---------------------------------------------------------------------------
// Execution: one executor builder, one crash leg, one oracle per leg.
// ---------------------------------------------------------------------------

/// What a supervised crash → WAL → resume run produced.
#[derive(Debug)]
pub(crate) struct Resumed {
    /// Report of the resumed run (of the supervised run, if it completed).
    pub report: RunReport,
    /// Did the scripted crash fire? A mid-migration point in a round
    /// without a migration batch is never reached.
    pub fired: bool,
    /// Rounds durable in the checkpoint the run resumed from.
    pub rounds_recovered: usize,
    /// Checkpoint records the WAL held when the supervised run stopped.
    pub wal_records: u64,
}

/// Run Merchandiser on `app` under `plan` (a scripted crash armed) with WAL
/// supervision. On the crash, restore the latest durable checkpoint into a
/// fresh workload and policy, as after a real restart, and run to the end.
/// The restored run must not resurrect a quarantined page onto DRAM.
pub(crate) fn crash_and_resume(
    app: AppKind,
    seed: u64,
    model: &PerformanceModel,
    plan: &FaultPlan,
) -> Result<Resumed, String> {
    static NEXT_WAL: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "merch-crash-{}-{}.wal",
        std::process::id(),
        NEXT_WAL.fetch_add(1, Ordering::Relaxed)
    ));
    let resumed = supervise_and_resume(app, seed, model, plan, &path);
    let _ = std::fs::remove_file(&path);
    resumed
}

fn supervise_and_resume(
    app: AppKind,
    seed: u64,
    model: &PerformanceModel,
    plan: &FaultPlan,
    path: &std::path::Path,
) -> Result<Resumed, String> {
    let mut wal = Wal::create(path).map_err(|e| format!("WAL create failed: {e}"))?;
    let outcome =
        executor(app, PolicyKind::Merchandiser, seed, model, plan).run_supervised(&mut wal);
    let wal_records = wal.stats.records_appended;
    drop(wal);
    if let Ok(report) = outcome {
        return Ok(Resumed {
            rounds_recovered: report.rounds.len(),
            report,
            fired: false,
            wal_records,
        });
    }
    let ck = Wal::latest(path)
        .map_err(|e| format!("WAL read failed: {e}"))?
        .ok_or("no durable checkpoint after the crash")?;
    let rounds_recovered = ck.completed.len();
    let (workload, policy) = parts(app, PolicyKind::Merchandiser, seed, model);
    let mut ex =
        Executor::resume(ck, workload, policy).map_err(|e| format!("resume failed: {e}"))?;
    let report = ex
        .try_run()
        .map_err(|e| format!("resumed run failed: {e}"))?;
    for id in ex.sys.page_table().quarantined() {
        if ex.sys.page_table().get(id).tier() == Tier::Dram {
            return Err(format!(
                "resumed run resurrected quarantined page {id} onto DRAM"
            ));
        }
    }
    Ok(Resumed {
        report,
        fired: true,
        rounds_recovered,
        wal_records,
    })
}

/// One violated gate.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Round the per-round oracle tripped in (`None` for whole-run gates).
    pub round: Option<u64>,
    /// Name of the violated invariant.
    pub invariant: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.round {
            Some(r) => write!(f, "{} at round {r}: {}", self.invariant, self.detail),
            None => write!(f, "{}: {}", self.invariant, self.detail),
        }
    }
}

fn violation(invariant: &'static str, detail: String) -> Violation {
    Violation {
        round: None,
        invariant,
        detail,
    }
}

fn dbg<T: std::fmt::Debug>(x: &T) -> String {
    format!("{x:?}")
}

/// The per-round system oracle on the live system.
fn check_round(round: &RoundReport, sys: &HmSystem) -> Result<(), Violation> {
    let fail = |invariant: &'static str, detail: String| {
        Err(Violation {
            round: Some(round.round as u64),
            invariant,
            detail,
        })
    };
    let pt = sys.page_table();
    let physical = sys.physical_dram_capacity();
    let expected = (sys.config.dram.capacity)
        .saturating_sub(sys.offlined_dram_bytes())
        .saturating_sub(pt.quarantine_bytes());
    if physical != expected {
        return fail(
            "capacity_accounting",
            format!("physical {physical} B != configured - offlined - quarantined = {expected} B"),
        );
    }
    let dram = pt.bytes_in(Tier::Dram);
    if dram > physical {
        return fail(
            "dram_capacity",
            format!("{dram} B resident > {physical} B physical capacity"),
        );
    }
    for id in pt.quarantined() {
        if pt.get(id).tier() == Tier::Dram {
            return fail(
                "no_poisoned_residency",
                format!("quarantined page {id} resident on DRAM"),
            );
        }
    }
    for tier in [Tier::Dram, Tier::Pm] {
        let (fast, scan) = (pt.bytes_in(tier), pt.recount_bytes_in(tier));
        if fast != scan {
            return fail(
                "tier_counters",
                format!("{tier:?} counter {fast} B != recount {scan} B"),
            );
        }
    }
    if !pt.aggregates_clean() {
        return fail(
            "aggregates_clean",
            "dirty residency aggregates at a round boundary".to_string(),
        );
    }
    for o in sys.objects() {
        let fast = pt.weighted_fraction_in(o.pages(), Tier::Dram);
        let scan = pt.scan_weighted_fraction_in(o.pages(), Tier::Dram);
        if fast.to_bits() != scan.to_bits() {
            return fail(
                "fraction_fast_path",
                format!("object {}: aggregate {fast} != scan {scan}", o.name),
            );
        }
    }
    if let Some(t) = (round.tasks.iter()).find(|t| !t.time_ns.is_finite() || t.time_ns < 0.0) {
        return fail(
            "finite_task_times",
            format!("task {} time {} ns", t.task, t.time_ns),
        );
    }
    if !round.round_time_ns.is_finite() {
        return fail(
            "finite_task_times",
            format!("round time {} ns", round.round_time_ns),
        );
    }
    if round.epoch_commits + round.epoch_rollbacks > 1 {
        return fail(
            "one_epoch_per_round",
            format!(
                "commits {} + rollbacks {}",
                round.epoch_commits, round.epoch_rollbacks
            ),
        );
    }
    Ok(())
}

/// What the solo leg produced.
#[derive(Debug)]
pub struct SoloRun {
    /// The reference run's report (as far as it got).
    pub report: RunReport,
    /// `Some(fired)` once the crash leg replayed bit-identically; `None`
    /// without a scripted crash or when an earlier gate failed.
    pub crash_fired: Option<bool>,
}

fn run_solo(solo: &Solo, model: &PerformanceModel, violations: &mut Vec<Violation>) -> SoloRun {
    let mut ex = executor(
        solo.app,
        PolicyKind::Merchandiser,
        solo.seed,
        model,
        &solo.plan,
    );
    let stepped = loop {
        let round = match ex.step() {
            Ok(Some(r)) => r.clone(),
            Ok(None) => break Ok(()),
            Err(e) => {
                break Err(violation(
                    "no_unscripted_crash",
                    format!("step failed without a scripted crash: {e}"),
                ))
            }
        };
        if let Err(v) = check_round(&round, &ex.sys) {
            break Err(v);
        }
    };
    let report = ex.report();
    let crash_fired = match stepped.and_then(|()| check_run(solo, model, &report)) {
        Ok(fired) => fired,
        Err(v) => {
            violations.push(v);
            None
        }
    };
    SoloRun {
        report,
        crash_fired,
    }
}

/// The solo leg's whole-run gates. Returns whether the scripted crash
/// fired (`None` without one).
fn check_run(
    solo: &Solo,
    model: &PerformanceModel,
    reference: &RunReport,
) -> Result<Option<bool>, Violation> {
    let plan = &solo.plan;
    if plan.offline_bytes > 0
        && reference.rounds.len() as u64 > plan.offline_round
        && reference.fault.offlined_bytes != plan.offline_bytes
    {
        return Err(violation(
            "capacity_accounting",
            format!(
                "offlined {} B, plan scripted {} B",
                reference.fault.offlined_bytes, plan.offline_bytes
            ),
        ));
    }
    let reference_dbg = dbg(reference);
    match executor(solo.app, PolicyKind::Merchandiser, solo.seed, model, plan).try_run() {
        Ok(r) if dbg(&r) == reference_dbg => {}
        Ok(r) => {
            return Err(violation(
                "replay_determinism",
                format!(
                    "re-run diverged: {} ns vs {} ns total",
                    r.total_time_ns(),
                    reference.total_time_ns()
                ),
            ))
        }
        Err(e) => {
            return Err(violation(
                "replay_determinism",
                format!("re-run failed: {e}"),
            ))
        }
    }
    let Some(crash) = solo.crash else {
        return Ok(None);
    };
    let resumed = crash_and_resume(solo.app, solo.seed, model, &solo.armed_plan())
        .map_err(|e| violation("crash_recovery", e))?;
    if dbg(&resumed.report) != reference_dbg {
        return Err(violation(
            "crash_replay_determinism",
            format!(
                "{} recovery diverged from the uninterrupted run",
                crash.label()
            ),
        ));
    }
    Ok(Some(resumed.fired))
}

/// One service drive: rollup, each tenant's run, leftover grant bytes, and
/// the renegotiation with the pre-offline grants when the leg offlines.
struct Drive {
    report: ServiceReport,
    runs: Vec<RunReport>,
    outstanding: u64,
    renegotiation: Option<(Renegotiation, Vec<u64>)>,
}

impl Service {
    /// Submit every tenant (the victim's fault armed when `armed`), take
    /// the scripted steps and offline part of the pool if the leg says so,
    /// and drive the service to completion. `stall_threshold_ns` arms the
    /// breaker's hung-round detector.
    fn drive(&self, model: &PerformanceModel, armed: bool, stall_threshold_ns: f64) -> Drive {
        let config = ServiceConfig::new(self.pool_pages * PAGE_SIZE)
            .with_max_queue(self.queue_bound)
            .with_seed(self.seed)
            .with_stall_threshold_ns(stall_threshold_ns);
        let mut svc = PlacementService::new(config);
        for (i, t) in self.tenants.iter().enumerate() {
            let plan = match self.victim {
                Some((v, fault)) if armed && v == i => fault.plan(),
                _ => t.plan(),
            };
            let job: Box<dyn TenantJob> = Box::new(executor(t.app, t.policy, t.seed, model, &plan));
            svc.submit(t.spec(), job)
                .expect("scenario tenant specs are validated when generated or decoded");
        }
        let renegotiation = self.offline.map(|(pages, after)| {
            for _ in 0..after {
                if !svc.step() {
                    break;
                }
            }
            let before: Vec<u64> = svc
                .report()
                .tenants
                .iter()
                .map(|t| t.granted_quota)
                .collect();
            (svc.offline_dram(pages * PAGE_SIZE), before)
        });
        let report = svc.run();
        let runs = (0..self.tenants.len())
            .map(|i| svc.tenant_run_report(TenantId(i as u32)))
            .collect();
        Drive {
            report,
            runs,
            outstanding: svc.outstanding_grants(),
            renegotiation,
        }
    }
}

/// What the service leg produced.
#[derive(Debug)]
pub struct ServiceRun {
    /// Rollup of the (fault-armed) run.
    pub report: ServiceReport,
    /// The capacity-loss renegotiation, when the leg offlines.
    pub renegotiation: Option<Renegotiation>,
}

fn run_service(svc: &Service, model: &PerformanceModel, v: &mut Vec<Violation>) -> ServiceRun {
    // Containment compares against the same mix with the fault unarmed;
    // the stall detector's threshold derives from that clean run.
    let base = svc.victim.map(|_| svc.drive(model, false, f64::INFINITY));
    let threshold = match (&base, svc.victim) {
        (Some(base), Some((victim, VictimFault::Stall { .. }))) => stall_threshold(base, victim, v),
        _ => f64::INFINITY,
    };
    let run = svc.drive(model, true, threshold);

    let again = svc.drive(model, true, threshold);
    if dbg(&run.report.tenants) != dbg(&again.report.tenants)
        || dbg(&run.renegotiation) != dbg(&again.renegotiation)
    {
        v.push(violation(
            "replay_determinism",
            "tenant reports diverged across identical runs".to_string(),
        ));
    }
    if dbg(&run.runs) != dbg(&again.runs) {
        v.push(violation(
            "replay_determinism",
            "per-round outputs diverged across identical runs".to_string(),
        ));
    }
    if run.report.quota_violations != 0 {
        v.push(violation(
            "quota",
            format!(
                "{} residency-over-grant rounds",
                run.report.quota_violations
            ),
        ));
    }
    match (&base, &run.renegotiation) {
        (Some(base), _) => check_containment(svc, base, &run, v),
        (None, Some((ren, before))) => check_renegotiation(svc, ren, before, v),
        (None, None) => check_serve(svc, model, &run, v),
    }
    ServiceRun {
        report: run.report,
        renegotiation: run.renegotiation.map(|(ren, _)| ren),
    }
}

/// The breaker's stall threshold: the geometric mean of the slowest clean
/// round of any tenant and `STALL_MULT` × the victim's fastest clean round,
/// so no clean round and no stalled victim round lands on the wrong side.
fn stall_threshold(base: &Drive, victim: usize, v: &mut Vec<Violation>) -> f64 {
    let times = |r: &RunReport| r.rounds.iter().map(|r| r.round_time_ns).collect::<Vec<_>>();
    let slowest = base.runs.iter().flat_map(times).fold(0.0, f64::max);
    let fastest = times(&base.runs[victim])
        .into_iter()
        .fold(f64::INFINITY, f64::min);
    let stalled = STALL_MULT * fastest;
    if slowest.partial_cmp(&stalled) != Some(std::cmp::Ordering::Less) {
        v.push(violation(
            "stall_threshold",
            format!(
                "slowest clean round {slowest} ns is not below STALL_MULT x the victim's \
                 fastest clean round, {stalled} ns"
            ),
        ));
    }
    (slowest * stalled).sqrt()
}

/// Serve gates: solo-baseline isolation, priority-ordered sheds and
/// squeezes, and service-time accounting.
fn check_serve(svc: &Service, model: &PerformanceModel, run: &Drive, v: &mut Vec<Violation>) {
    let report = &run.report;
    let admitted: Vec<usize> = (report.tenants.iter().enumerate())
        .filter(|(_, t)| {
            t.admitted_at_ns >= 0.0 && !matches!(t.status, TenantStatus::Quarantined { .. })
        })
        .map(|(i, _)| i)
        .collect();
    let solos = par_map(admitted.clone(), |i| {
        let t = &svc.tenants[i];
        let mut ex = executor(t.app, t.policy, t.seed, model, &t.plan());
        ex.sys.set_dram_quota(Some(report.tenants[i].granted_quota));
        (ex.try_run()).map_or_else(|e| format!("solo run failed: {e}"), |r| dbg(&r))
    });
    for (&i, solo) in admitted.iter().zip(&solos) {
        if *solo != dbg(&run.runs[i]) {
            v.push(violation(
                "isolation",
                format!(
                    "tenant {} per-round output diverged from its solo baseline",
                    report.tenants[i].name
                ),
            ));
        }
    }

    // Initial-pass squeezes and queue-full sheds hit strictly lower
    // priorities than every fully granted initial admission (deadline
    // sheds are time-driven and exempt).
    let full_grant_floor = (report.tenants.iter())
        .filter(|t| t.admitted_at_ns == 0.0 && !t.squeezed)
        .map(|t| t.priority)
        .min();
    if let Some(floor) = full_grant_floor {
        for t in &report.tenants {
            let priority_shed = matches!(t.status, TenantStatus::Shed(ShedReason::QueueFull));
            let initial_squeeze = t.squeezed && t.admitted_at_ns == 0.0;
            if (priority_shed || initial_squeeze) && t.priority > floor {
                v.push(violation(
                    "priority",
                    format!(
                        "tenant {} (priority {}) shed/squeezed over a fully-granted \
                         priority-{floor} tenant",
                        t.name, t.priority
                    ),
                ));
            }
        }
    }

    let total: f64 = report.tenants.iter().map(|t| t.service_ns).sum();
    if (total - report.clock_ns).abs() > 1e-6 * report.clock_ns.max(1.0) {
        v.push(violation(
            "accounting",
            format!(
                "per-tenant service {total} ns != clock {} ns",
                report.clock_ns
            ),
        ));
    }
    for t in &report.tenants {
        if t.status == TenantStatus::Completed && t.rounds_done != t.rounds_total {
            v.push(violation(
                "accounting",
                format!(
                    "tenant {} completed with {}/{} rounds",
                    t.name, t.rounds_done, t.rounds_total
                ),
            ));
        }
    }
}

/// Containment gates: survivors untouched, the victim's outcome per
/// script, and every grant byte back in the pool.
fn check_containment(svc: &Service, base: &Drive, run: &Drive, v: &mut Vec<Violation>) {
    let (victim, fault) = svc
        .victim
        .expect("containment gates run only with a victim");
    let mut gate = |ok: bool, invariant: &'static str, detail: String| {
        if !ok {
            v.push(violation(invariant, detail));
        }
    };
    for (i, t) in run.report.tenants.iter().enumerate() {
        if i != victim {
            let what = format!(
                "tenant {} per-round output diverged from the no-fault run",
                t.name
            );
            gate(
                dbg(&run.runs[i]) == dbg(&base.runs[i]),
                "survivor_isolation",
                what,
            );
            let what = format!(
                "tenant {} breaker tripped {} times",
                t.name, t.breaker_trips
            );
            gate(t.breaker_trips == 0, "survivor_isolation", what);
        }
    }

    let vt = &run.report.tenants[victim];
    let (name, status) = (&vt.name, vt.status);
    let completed = status == TenantStatus::Completed;
    let rounds = format!("{}/{} rounds", vt.rounds_done, vt.rounds_total);
    let trips = vt.breaker_trips;
    // A recovered panic victim is re-granted its full quota (capacity mode
    // has the headroom); a quarantined stall victim holds nothing.
    let (outcome, want_grant) = match fault {
        VictimFault::Panic { .. } => (
            vec![
                (
                    completed,
                    format!("panic victim {name} ended {status:?}, want Completed"),
                ),
                (
                    trips > 0,
                    format!("panic victim {name} never tripped its breaker"),
                ),
                (
                    vt.fault.tenant_panics > 0,
                    format!("panic victim {name} contained no panic"),
                ),
                (
                    !completed || vt.rounds_done == vt.rounds_total,
                    format!("panic victim {name} completed {rounds}"),
                ),
            ],
            vt.requested_quota,
        ),
        VictimFault::Stall { .. } => (
            vec![
                (
                    matches!(status, TenantStatus::Quarantined { .. }),
                    format!("stall victim {name} ended {status:?}, want Quarantined"),
                ),
                (
                    trips >= 2,
                    format!("stall victim {name} tripped {trips} time(s), want >= max_trips"),
                ),
                (
                    vt.fault.stalled_rounds > 0,
                    format!("stall victim {name} stalled no round"),
                ),
            ],
            0,
        ),
    };
    let tripped = run.report.tripped;
    let only_victim = (
        tripped == 1,
        format!("{tripped} tenants tripped, want exactly the victim"),
    );
    for (ok, detail) in outcome.into_iter().chain([only_victim]) {
        gate(ok, "victim_outcome", detail);
    }
    let what = format!(
        "victim {name} holds {} grant bytes, want {want_grant}",
        vt.granted_quota
    );
    gate(vt.granted_quota == want_grant, "grant_reabsorption", what);
    for (drive, which) in [(run, "faulted"), (base, "no-fault")] {
        let what = format!(
            "{} grant bytes outstanding after the {which} run",
            drive.outstanding
        );
        gate(drive.outstanding == 0, "grant_reabsorption", what);
    }
}

/// Renegotiation gates: floors honoured by every squeeze, the outcome
/// exactly the priority-ordered walk of the pre-offline grants, surviving
/// grants within the shrunk pool, finite capped retry-afters.
fn check_renegotiation(svc: &Service, ren: &Renegotiation, before: &[u64], v: &mut Vec<Violation>) {
    let tenants = &svc.tenants;
    let floor = |i: usize| tenants[i].min_quota_pages * PAGE_SIZE;
    let pool_after = (svc.pool_pages * PAGE_SIZE).saturating_sub(ren.offlined_bytes);

    for &(id, grant) in &ren.squeezed {
        let i = id.0 as usize;
        if grant < floor(i) {
            v.push(violation(
                "renegotiation_floor",
                format!(
                    "tenant {} squeezed to {grant} B below its {} B floor",
                    tenants[i].name,
                    floor(i)
                ),
            ));
        }
        if grant >= before[i] {
            v.push(violation(
                "renegotiation_floor",
                format!(
                    "tenant {} \"squeezed\" from {} B to {grant} B (not a shrink)",
                    tenants[i].name, before[i]
                ),
            ));
        }
    }

    // Priorities are distinct by construction, so the walk is a total
    // order.
    let mut walk: Vec<usize> = (ren.kept.iter())
        .chain(ren.squeezed.iter().map(|(id, _)| id))
        .chain(ren.displaced.iter().map(|(id, _)| id))
        .chain(ren.shed.iter())
        .map(|id| id.0 as usize)
        .collect();
    walk.sort_by_key(|&i| std::cmp::Reverse(tenants[i].priority));
    let mut remaining = pool_after;
    let mut granted_walk = 0u64;
    for i in walk {
        let id = TenantId(i as u32);
        if floor(i) <= remaining {
            let grant = before[i].min(remaining);
            let expected_kept = grant == before[i];
            let actual_kept = ren.kept.contains(&id);
            let actual_squeeze = ren.squeezed.iter().find(|(t, _)| *t == id).map(|(_, g)| *g);
            if expected_kept != actual_kept || (!expected_kept && actual_squeeze != Some(grant)) {
                v.push(violation(
                    "renegotiation_priority",
                    format!(
                        "tenant {} expected grant {grant} B at its turn (kept={expected_kept}), \
                         renegotiation disagrees",
                        tenants[i].name
                    ),
                ));
            }
            remaining -= grant;
            granted_walk += grant;
        } else if !ren.displaced.iter().any(|(t, _)| *t == id) && !ren.shed.contains(&id) {
            v.push(violation(
                "renegotiation_priority",
                format!(
                    "tenant {} floor {} B exceeds the {remaining} B left at its turn but was \
                     neither displaced nor shed",
                    tenants[i].name,
                    floor(i)
                ),
            ));
        }
    }

    if granted_walk > pool_after {
        v.push(violation(
            "renegotiation_accounting",
            format!("surviving grants {granted_walk} B > shrunk pool {pool_after} B"),
        ));
    }

    let cap = ServiceConfig::new(svc.pool_pages * PAGE_SIZE).retry_cap_ns as f64;
    for &(id, retry_after_ns) in &ren.displaced {
        if !(retry_after_ns.is_finite() && retry_after_ns > 0.0 && retry_after_ns <= cap) {
            v.push(violation(
                "renegotiation_backoff",
                format!(
                    "tenant {} retry-after {retry_after_ns} ns outside (0, {cap}]",
                    tenants[id.0 as usize].name
                ),
            ));
        }
    }
}

/// A verified scenario: what each leg produced and every violated gate.
#[derive(Debug)]
pub struct Outcome {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// The solo leg's result, when the scenario has one and it ran.
    pub solo: Option<SoloRun>,
    /// The service leg's result, when the scenario has one and it ran.
    pub service: Option<ServiceRun>,
    /// Violated gates (empty = every gate holds).
    pub violations: Vec<Violation>,
}

/// Run one scenario through every gate its legs select.
fn run(scn: &Scenario, model: &PerformanceModel) -> Outcome {
    let mut violations = Vec::new();
    let solo = (scn.solo.as_ref()).map(|s| run_solo(s, model, &mut violations));
    let service = (scn.service.as_ref()).map(|s| run_service(s, model, &mut violations));
    Outcome {
        scenario: scn.clone(),
        solo,
        service,
        violations,
    }
}

impl Outcome {
    /// Whether the scenario never ran because an earlier cell's panic
    /// aborted the sweep: no leg result and no violation.
    pub fn skipped(&self) -> bool {
        self.solo.is_none() && self.service.is_none() && self.violations.is_empty()
    }
}

/// Run scenarios on the sweep pool, one outcome per scenario in input
/// order.
pub fn run_all(scns: Vec<Scenario>, model: &PerformanceModel) -> Vec<Outcome> {
    run_cells(scns, |s| run(s, model))
}

/// [`run_all`] over an arbitrary per-scenario run. A cell that panics
/// becomes a `no_harness_panic` violation; a cell the aborted sweep never
/// finished comes back [`skipped`](Outcome::skipped).
fn run_cells(scns: Vec<Scenario>, run_one: impl Fn(&Scenario) -> Outcome + Sync) -> Vec<Outcome> {
    let (mut partial, abort) = match try_par_map(scns.clone(), |s| run_one(&s)) {
        Ok(done) => return done,
        Err(failed) => failed,
    };
    // A sequential sweep returns only the cells before the panic.
    partial.resize_with(scns.len(), || None);
    (partial.into_iter().zip(scns).enumerate())
        .map(|(i, (done, scenario))| {
            done.unwrap_or_else(|| Outcome {
                scenario,
                solo: None,
                service: None,
                violations: (i == abort.cell)
                    .then(|| violation("no_harness_panic", abort.message.clone()))
                    .into_iter()
                    .collect(),
            })
        })
        .collect()
}

/// Shrink a scenario's solo leg against `fails` (true = still fails):
/// drop whole fault axes, then halve each surviving rate (at most 8 times)
/// and the pressure in whole pages. `fails` re-runs the gates in a real
/// sweep and is an arbitrary predicate in tests.
fn shrink(scn: &Scenario, fails: impl Fn(&Scenario) -> bool) -> Scenario {
    let mut best = scn.clone();
    if best.solo.is_none() {
        return best;
    }
    let mut accept = |edit: &dyn Fn(&mut Solo)| {
        let mut cand = best.clone();
        edit(cand.solo.as_mut().expect("shrink runs only on a solo leg"));
        let still = cand != best && fails(&cand);
        if still {
            best = cand;
        }
        still
    };
    let axes: [fn(&mut Solo); 9] = [
        |s| s.plan.migration_fail_rate = 0.0,
        |s| s.plan.pte_sample_dropout = 0.0,
        |s| s.plan.pmc_event_dropout = 0.0,
        |s| s.plan = s.plan.clone().with_dram_pressure(0, 0),
        |s| s.plan.telemetry_blackout = 0.0,
        |s| s.plan.page_poison_rate = 0.0,
        |s| s.plan = (s.plan.clone()).with_degradation(s.plan.degrade_tier, 0, 1.0, 1.0),
        |s| s.plan.offline_bytes = 0,
        |s| s.crash = None,
    ];
    for drop_axis in axes {
        accept(&drop_axis);
    }
    let rates: [fn(&mut FaultPlan) -> &mut f64; 5] = [
        |p| &mut p.migration_fail_rate,
        |p| &mut p.pte_sample_dropout,
        |p| &mut p.pmc_event_dropout,
        |p| &mut p.telemetry_blackout,
        |p| &mut p.page_poison_rate,
    ];
    for rate in rates {
        for _ in 0..8 {
            if !accept(&|s: &mut Solo| *rate(&mut s.plan) *= 0.5) {
                break;
            }
        }
    }
    for _ in 0..8 {
        let halve = |s: &mut Solo| {
            s.plan.dram_pressure_bytes = s.plan.dram_pressure_bytes / 2 / PAGE_SIZE * PAGE_SIZE
        };
        if !accept(&halve) {
            break;
        }
    }
    best
}

/// The reproducer file of a failing outcome: its violations as comments,
/// then the scenario. When the solo leg fails on its own (a panic counts as
/// failing, so the file survives harness bugs too), that leg is shrunk to
/// what still fails; a failure in the service leg alone leaves the
/// scenario whole, since no solo axis can affect it.
pub fn reproducer(outcome: &Outcome, model: &PerformanceModel) -> String {
    let solo_fails = |s: &Scenario| {
        catch_unwind(AssertUnwindSafe(|| {
            let mut v = Vec::new();
            if let Some(solo) = &s.solo {
                run_solo(solo, model, &mut v);
            }
            !v.is_empty()
        }))
        .unwrap_or(true)
    };
    let scn = &outcome.scenario;
    let mut text: String = (outcome.violations.iter())
        .map(|v| format!("# violation [{}]: {v}\n", scn.label))
        .collect();
    let shrunk = if solo_fails(scn) {
        shrink(scn, solo_fails)
    } else {
        scn.clone()
    };
    text.push_str(&shrunk.encode());
    text
}

// ---------------------------------------------------------------------------
// The `merchscenario 1` reproducer format.
// ---------------------------------------------------------------------------

/// Policies a tenant record may name.
const TENANT_POLICIES: [PolicyKind; 5] = [
    PolicyKind::PmOnly,
    PolicyKind::MemoryOptimizer,
    PolicyKind::Merchandiser,
    PolicyKind::DamonTier,
    PolicyKind::AutoNuma,
];

impl Scenario {
    /// Serialize as a `merchscenario 1` file.
    pub fn encode(&self) -> String {
        let mut lines = vec![
            "merchscenario 1".to_string(),
            format!("suite {}", self.suite.name()),
            format!("label {}", self.label),
        ];
        match &self.solo {
            None => lines.push("solo none".to_string()),
            Some(s) => {
                let crash = match s.crash {
                    None => "none".to_string(),
                    Some(Crash {
                        round,
                        point: CrashPoint::BetweenRounds,
                    }) => format!("boundary {round}"),
                    Some(Crash {
                        round,
                        point: CrashPoint::MidMigration { after_attempts },
                    }) => format!("midmig {round} {after_attempts}"),
                };
                let p = &s.plan;
                lines.push(format!("solo {} {} {crash}", s.app.name(), s.seed));
                lines.push(format!(
                    "faults {} {:?} {} {:?} {:?} {} {} {:?}",
                    p.seed,
                    p.migration_fail_rate,
                    p.migration_max_retries,
                    p.pte_sample_dropout,
                    p.pmc_event_dropout,
                    p.dram_pressure_bytes,
                    p.pressure_period_rounds,
                    p.telemetry_blackout
                ));
                lines.push(format!(
                    "device {:?} {:?} {} {:?} {:?} {} {}",
                    p.page_poison_rate,
                    p.degrade_tier,
                    p.degrade_period_rounds,
                    p.degrade_lat_mult,
                    p.degrade_bw_mult,
                    p.offline_round,
                    p.offline_bytes
                ));
            }
        }
        match &self.service {
            None => lines.push("service none".to_string()),
            Some(s) => {
                lines.push(format!(
                    "service {} {} {}",
                    s.seed, s.pool_pages, s.queue_bound
                ));
                lines.push(match s.offline {
                    None => "offline none".to_string(),
                    Some((pages, after)) => format!("offline {pages} {after}"),
                });
                lines.push(match s.victim {
                    None => "victim none".to_string(),
                    Some((i, VictimFault::Panic { round })) => format!("victim {i} panic {round}"),
                    Some((i, VictimFault::Stall { round, rounds })) => {
                        format!("victim {i} stall {round} {rounds}")
                    }
                });
                lines.push(format!("tenants {}", s.tenants.len()));
                lines.extend(s.tenants.iter().map(Tenant::encode_line));
            }
        }
        lines.join("\n") + "\n"
    }

    /// Parse a file written by [`encode`](Self::encode). `#` comments and
    /// blank lines are skipped. Malformed files, out-of-range values (a
    /// plan that does not validate, an invalid tenant contract, a page
    /// count whose byte size overflows) and legs the named suite never
    /// generates fail with a line/field diagnostic.
    pub fn decode(text: &str) -> Result<Self, String> {
        let mut r = FramedReader::new("scenario", text, "merchscenario", &[1])?;
        let suites = Suite::ALL.map(|s| (s.name(), s));
        let suite = lookup(&r.record("suite", 1)?, 0, "suite", suites)?;
        let label = r.record("label", 1)?.tok(0, "label")?.to_string();
        let solo = decode_solo(&mut r, suite)?;
        let service = decode_service(&mut r, suite)?;
        r.finish()?;
        Ok(Self {
            suite,
            label,
            solo,
            service,
        })
    }
}

/// Token `i` of `rec`, looked up by name among `options`.
fn lookup<T>(
    rec: &Record<'_>,
    i: usize,
    field: &str,
    options: impl IntoIterator<Item = (&'static str, T)>,
) -> Result<T, String> {
    let tok = rec.tok(i, field)?;
    (options.into_iter())
        .find(|(name, _)| *name == tok)
        .map(|(_, v)| v)
        .ok_or_else(|| rec.invalid(field, format!("unknown {field} `{tok}`")))
}

fn apps() -> [(&'static str, AppKind); 5] {
    AppKind::all().map(|a| (a.name(), a))
}

/// `pages` must have a byte size.
fn page_bytes(rec: &Record<'_>, pages: u64, field: &str) -> Result<u64, String> {
    (pages.checked_mul(PAGE_SIZE))
        .ok_or_else(|| rec.invalid(field, format!("{pages} pages overflow a byte count")))
}

/// Reject a part (`tag`) that a `suite` scenario never has, or the lack of
/// one it always has: the suite's gates for it would silently not run.
fn expect_part(
    rec: &Record<'_>,
    suite: Suite,
    tag: &str,
    present: bool,
    wanted: bool,
) -> Result<(), String> {
    if present == wanted {
        return Ok(());
    }
    let verb = if wanted { "cannot" } else { "must" };
    let name = suite.name();
    Err(rec.invalid(tag, format!("a `{name}` scenario {verb} have `{tag} none`")))
}

fn decode_solo(r: &mut FramedReader<'_>, suite: Suite) -> Result<Option<Solo>, String> {
    let s = r.record("solo", 1)?;
    let present = s.tok(0, "app")? != "none";
    expect_part(
        &s,
        suite,
        "solo",
        present,
        matches!(suite, Suite::Soak | Suite::Device),
    )?;
    if !present {
        return Ok(None);
    }
    let app = lookup(&s, 0, "app", apps())?;
    let seed = s.parse(1, "seed")?;
    let crash = match s.tok(2, "crash")? {
        "none" => None,
        "boundary" => Some(Crash {
            round: s.parse(3, "crash_round")?,
            point: CrashPoint::BetweenRounds,
        }),
        "midmig" => Some(Crash {
            round: s.parse(3, "crash_round")?,
            point: CrashPoint::MidMigration {
                after_attempts: s.parse(4, "after_attempts")?,
            },
        }),
        other => return Err(s.invalid("crash", format!("unknown crash `{other}`"))),
    };
    let f = r.record("faults", 8)?;
    let plan = FaultPlan::none()
        .with_seed(f.parse(0, "plan_seed")?)
        .with_migration_failures(f.parse(1, "fail_rate")?, f.parse(2, "retries")?)
        .with_sample_dropout(f.parse(3, "pte_dropout")?, f.parse(4, "pmc_dropout")?)
        .with_dram_pressure(
            f.parse(5, "pressure_bytes")?,
            f.parse(6, "pressure_period")?,
        )
        .with_telemetry_blackout(f.parse(7, "blackout")?);
    plan.validate().map_err(|e| f.invalid("faults", e))?;
    let d = r.record("device", 7)?;
    let tiers = [("Pm", Tier::Pm), ("Dram", Tier::Dram)];
    let plan = plan
        .with_page_poison(d.parse(0, "poison_rate")?)
        .with_degradation(
            lookup(&d, 1, "degrade_tier", tiers)?,
            d.parse(2, "degrade_period")?,
            d.parse(3, "degrade_lat_mult")?,
            d.parse(4, "degrade_bw_mult")?,
        )
        .with_dram_offlining(d.parse(5, "offline_round")?, d.parse(6, "offline_bytes")?);
    plan.validate().map_err(|e| d.invalid("device", e))?;
    Ok(Some(Solo {
        app,
        seed,
        plan,
        crash,
    }))
}

fn decode_service(r: &mut FramedReader<'_>, suite: Suite) -> Result<Option<Service>, String> {
    let s = r.record("service", 1)?;
    let present = s.tok(0, "seed")? != "none";
    expect_part(&s, suite, "service", present, suite != Suite::Soak)?;
    if !present {
        return Ok(None);
    }
    let seed = s.parse(0, "seed")?;
    let pool_pages = s.parse(1, "pool_pages")?;
    page_bytes(&s, pool_pages, "pool_pages")?;
    let queue_bound = s.parse(2, "queue_bound")?;
    let o = r.record("offline", 1)?;
    let offline = match o.tok(0, "pages")? {
        "none" => None,
        _ => {
            let pages = o.parse(0, "pages")?;
            page_bytes(&o, pages, "pages")?;
            Some((pages, o.parse(1, "after_steps")?))
        }
    };
    expect_part(
        &o,
        suite,
        "offline",
        offline.is_some(),
        suite == Suite::Device,
    )?;
    let v = r.record("victim", 1)?;
    let victim = match v.tok(0, "victim")? {
        "none" => None,
        _ => {
            let fault = match v.tok(1, "fault")? {
                "panic" => VictimFault::Panic {
                    round: v.parse(2, "round")?,
                },
                "stall" => VictimFault::Stall {
                    round: v.parse(2, "round")?,
                    rounds: v.parse(3, "rounds")?,
                },
                other => return Err(v.invalid("fault", format!("unknown fault `{other}`"))),
            };
            Some((v.parse(0, "victim")?, fault))
        }
    };
    expect_part(
        &v,
        suite,
        "victim",
        victim.is_some(),
        suite == Suite::Contain,
    )?;
    // The count is untrusted: no pre-reservation, so a huge value fails on
    // the first missing `tenant` record instead of aborting.
    let n: u64 = r.record("tenants", 1)?.parse(0, "tenants")?;
    let mut tenants = Vec::new();
    for _ in 0..n {
        tenants.push(decode_tenant(&r.record("tenant", 10)?)?);
    }
    if let Some((i, _)) = victim.filter(|&(i, _)| i >= tenants.len()) {
        return Err(v.invalid("victim", format!("index {i} out of range for {n} tenants")));
    }
    Ok(Some(Service {
        seed,
        pool_pages,
        queue_bound,
        tenants,
        offline,
        victim,
    }))
}

fn decode_tenant(t: &Record<'_>) -> Result<Tenant, String> {
    let chaos_case = match t.tok(9, "chaos_case")? {
        "-" => None,
        _ => Some(t.parse(9, "chaos_case")?),
    };
    let tenant = Tenant {
        name: t.tok(0, "name")?.to_string(),
        app: lookup(t, 1, "app", apps())?,
        policy: lookup(t, 2, "policy", TENANT_POLICIES.map(|p| (p.name(), p)))?,
        seed: t.parse(3, "seed")?,
        weight: t.parse(4, "weight")?,
        priority: t.parse(5, "priority")?,
        quota_pages: t.parse(6, "quota_pages")?,
        min_quota_pages: t.parse(7, "min_quota_pages")?,
        deadline_ms: t.parse(8, "deadline_ms")?,
        chaos_case,
    };
    page_bytes(t, tenant.quota_pages, "quota_pages")?;
    page_bytes(t, tenant.min_quota_pages, "min_quota_pages")?;
    tenant
        .spec()
        .validate()
        .map_err(|e| t.invalid("tenant", e))?;
    Ok(tenant)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every suite's CI-sized sweep at seed 7, generated once: the
    /// SpGEMM and BFS constructors that size quotas take seconds each in
    /// a debug build.
    fn sweep() -> &'static [Scenario] {
        static SWEEP: std::sync::OnceLock<Vec<Scenario>> = std::sync::OnceLock::new();
        SWEEP.get_or_init(|| {
            (Suite::ALL.into_iter())
                .flat_map(|s| s.generate(7, true))
                .collect()
        })
    }

    /// The first scenario of `suite` in the shared sweep.
    fn first(suite: Suite) -> &'static Scenario {
        sweep()
            .iter()
            .find(|s| s.suite == suite)
            .expect("every suite generates")
    }

    /// The generated inputs the product sees, one line per executor and
    /// service input.
    fn product_inputs(scns: &[Scenario]) -> String {
        let mut out = String::new();
        for scn in scns {
            if let Some(s) = &scn.solo {
                out += &format!("solo {} {} {:?}\n", s.app.name(), s.seed, s.armed_plan());
            }
            if let Some(s) = &scn.service {
                let pool = s.pool_pages * PAGE_SIZE;
                out += &format!("service {} {pool} {}\n", s.seed, s.queue_bound);
                if let Some((pages, after)) = s.offline {
                    out += &format!("offline {} {after}\n", pages * PAGE_SIZE);
                }
                for t in &s.tenants {
                    out += &format!(
                        "tenant {} {} {} {:?} {:?}\n",
                        t.app.name(),
                        t.policy.name(),
                        t.seed,
                        t.spec(),
                        t.plan()
                    );
                }
                if let Some((i, fault)) = s.victim {
                    out += &format!("victim {i} {:?}\n", fault.plan());
                }
            }
        }
        out
    }

    /// fnv1a64 of `product_inputs` per (suite, seed, small), pinned when
    /// the four harnesses became one engine: the engine draws exactly the
    /// cases they drew.
    const GOLDEN: [(Suite, u64, bool, u64); 16] = [
        (Suite::Soak, 42, true, 0x02e7_07b1_dd8c_05c3),
        (Suite::Serve, 42, true, 0x1ad6_7a99_f6e3_90f9),
        (Suite::Device, 42, true, 0x2566_4aa6_8b9d_bb14),
        (Suite::Contain, 42, true, 0x4676_e5f2_5880_348c),
        (Suite::Soak, 42, false, 0x7182_c62b_a23a_57d7),
        (Suite::Serve, 42, false, 0x2bf4_470c_d07d_0b93),
        (Suite::Device, 42, false, 0x4de0_c5ec_0e48_3e4d),
        (Suite::Contain, 42, false, 0xc527_3c4e_023c_2199),
        (Suite::Soak, 7, true, 0x3c3f_98e5_5427_7cad),
        (Suite::Serve, 7, true, 0xb150_cde1_0358_560c),
        (Suite::Device, 7, true, 0x34d5_49f4_511a_693f),
        (Suite::Contain, 7, true, 0x6a9c_a327_592f_5777),
        (Suite::Soak, 7, false, 0x8810_44c4_4a00_6de4),
        (Suite::Serve, 7, false, 0x4534_7c2a_2cef_998e),
        (Suite::Device, 7, false, 0x560f_c445_f43a_9ed1),
        (Suite::Contain, 7, false, 0x18c2_234e_2a6e_8252),
    ];

    fn assert_golden(scns: &[Scenario], (suite, seed, small, want): (Suite, u64, bool, u64)) {
        let got = merch_hm::checkpoint::fnv1a64(product_inputs(scns).as_bytes());
        assert_eq!(
            got, want,
            "{suite:?} seed {seed} small {small}: {got:#018x}"
        );
    }

    /// The CI-sized seed-7 hashes, over the shared sweep, in every build.
    #[test]
    fn ci_sweep_matches_golden_hashes() {
        for golden @ (suite, ..) in GOLDEN.into_iter().filter(|g| (g.1, g.2) == (7, true)) {
            let scns: Vec<Scenario> = (sweep().iter())
                .filter(|s| s.suite == suite)
                .cloned()
                .collect();
            assert_golden(&scns, golden);
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "generates every other sweep (~240 app builds); run with --release"
    )]
    fn generation_matches_golden_hashes() {
        for golden @ (suite, seed, small, _) in GOLDEN {
            if (seed, small) != (7, true) {
                assert_golden(&suite.generate(seed, small), golden);
            }
        }
    }

    #[test]
    fn a_panicking_cell_is_a_violation_at_any_jobs() {
        let _g = crate::par::JOBS_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let scns: Vec<Scenario> = (sweep().iter())
            .filter(|s| s.suite == Suite::Soak)
            .cloned()
            .collect();
        let fake = |s: &Scenario| {
            if s.label == "2" {
                panic!("scripted harness bug");
            }
            Outcome {
                scenario: s.clone(),
                solo: None,
                service: None,
                violations: vec![violation("ran", String::new())],
            }
        };
        for jobs in [1, 3] {
            crate::par::set_sweep_jobs(jobs);
            let out = run_cells(scns.clone(), fake);
            crate::par::set_sweep_jobs(0);
            let labels: Vec<&str> = out.iter().map(|o| o.scenario.label.as_str()).collect();
            assert_eq!(labels, ["0", "1", "2", "3", "4", "5"], "jobs {jobs}");
            let panic = &out[2].violations;
            assert_eq!(panic.len(), 1, "jobs {jobs}");
            assert_eq!(panic[0].invariant, "no_harness_panic", "jobs {jobs}");
            assert!(
                panic[0].detail.contains("scripted harness bug"),
                "{panic:?}"
            );
            for o in out.iter().filter(|o| o.scenario.label != "2") {
                assert!(o.skipped() || o.violations[0].invariant == "ran");
            }
            if jobs == 1 {
                assert!(!out[0].skipped() && !out[1].skipped());
                assert!(out[3..].iter().all(Outcome::skipped));
            }
        }
    }

    #[test]
    fn generated_scenarios_are_well_formed() {
        assert_ne!(sweep()[0], Suite::Soak.generate(8, true)[0]);
        let soak = Suite::Soak.generate(7, false);
        assert!(soak.windows(2).any(|w| w[0].solo != w[1].solo));
        for scn in sweep().iter().chain(&soak) {
            let case: u64 = scn.label.parse().unwrap_or(0);
            if let Some(s) = &scn.solo {
                s.armed_plan().validate().expect("generated plans validate");
                if scn.suite == Suite::Soak {
                    assert_eq!(s.crash.is_some(), case % 3 == 2, "case {case}");
                } else {
                    // Every device case poisons; case 3 mod 4 runs without
                    // a degradation window, case 2 mod 3 without offlining.
                    let p = &s.plan;
                    assert!(p.page_poison_rate > 0.0, "case {case}");
                    assert_eq!(!p.degradation_enabled(), case % 4 == 3, "case {case}");
                    assert_eq!(p.offline_bytes == 0, case % 3 == 2, "case {case}");
                }
            }
            let Some(svc) = &scn.service else { continue };
            // Distinct priorities make shed, squeeze and renegotiation
            // order total.
            let mut prios: Vec<u8> = svc.tenants.iter().map(|t| t.priority).collect();
            prios.sort_unstable();
            prios.dedup();
            assert_eq!(prios.len(), svc.tenants.len(), "{}", scn.label);
            for t in &svc.tenants {
                t.spec().validate().expect("generated specs validate");
            }
            if let Some((pages, _)) = svc.offline {
                // The pool admits the whole mix before the capacity loss.
                let quotas: u64 = svc.tenants.iter().map(|t| t.quota_pages).sum();
                assert_eq!(svc.pool_pages, quotas);
                assert!(pages >= 1);
            }
            if let Some((i, _)) = svc.victim {
                let vt = &svc.tenants[i];
                assert!(vt.app.build(vt.seed).num_instances() >= 6);
                assert!(
                    svc.tenants.iter().all(|t| t.chaos_case.is_none()),
                    "the victim must be the only fault source"
                );
            }
        }
    }

    #[test]
    fn reproducer_roundtrips() {
        for scn in sweep() {
            let text = scn.encode();
            assert_eq!(&Scenario::decode(&text).unwrap(), scn, "{text}");
            // Comment and blank lines (the failure context) are skipped.
            let annotated = format!("# violation: xyz\n\n{text}");
            assert_eq!(&Scenario::decode(&annotated).unwrap(), scn);
        }
    }

    /// The encoding of `scn` with the first `from` replaced by `to`.
    fn replaced(scn: &Scenario, from: &str, to: &str) -> String {
        let text = scn.encode();
        assert!(text.contains(from), "{from:?} not in {text}");
        text.replacen(from, to, 1)
    }

    #[test]
    fn decode_diagnoses_bad_files() {
        let soak = first(Suite::Soak);
        let app = soak.solo.as_ref().unwrap().app.name();
        let device = first(Suite::Device);
        let tier = format!(" {:?} ", device.solo.as_ref().unwrap().plan.degrade_tier);
        let contain = first(Suite::Contain);
        let victim = contain.service.as_ref().unwrap().victim.unwrap().0;
        let serve = first(Suite::Serve);
        let (pages, after) = device.service.as_ref().unwrap().offline.unwrap();
        let huge = |n: u64| {
            format!(
                "merchscenario 1\nsuite serve\nlabel x\nsolo none\nservice 1 10 4\n\
                 offline none\nvictim none\ntenants {n}\n"
            )
        };
        let cases = [
            (String::new(), "empty file"),
            ("merchckpt 4\n".to_string(), "expected `merchscenario`"),
            (
                "merchscenario 9\n".to_string(),
                "unsupported merchscenario version 9",
            ),
            (
                replaced(soak, "suite soak", "suite chaos"),
                "unknown suite `chaos`",
            ),
            (
                replaced(soak, &format!("solo {app}"), "solo Nope"),
                "unknown app `Nope`",
            ),
            (replaced(soak, " none\n", " melt\n"), "unknown crash `melt`"),
            (replaced(soak, "\nfaults", "\nfaulty"), "expected `faults`"),
            (
                replaced(device, &tier, " Hbm "),
                "unknown degrade_tier `Hbm`",
            ),
            (format!("{}junk 1\n", device.encode()), "trailing content"),
            (
                replaced(contain, " panic ", " melt "),
                "unknown fault `melt`",
            ),
            (
                replaced(contain, &format!("victim {victim} "), "victim 99 "),
                "index 99 out of range",
            ),
            (huge(u64::MAX), "missing `tenant` record"),
            (huge(100_000_000_000), "missing `tenant` record"),
            // Legs the named suite never generates: its gates would not run.
            (
                replaced(soak, "suite soak", "suite contain"),
                "a `contain` scenario must have `solo none`",
            ),
            (
                replaced(serve, "suite serve", "suite device"),
                "a `device` scenario cannot have `solo none`",
            ),
            (
                replaced(device, "suite device", "suite soak"),
                "a `soak` scenario must have `service none`",
            ),
            (
                replaced(soak, "suite soak", "suite device"),
                "a `device` scenario cannot have `service none`",
            ),
            (
                replaced(serve, "offline none", "offline 1 1"),
                "a `serve` scenario must have `offline none`",
            ),
            (
                replaced(device, &format!("offline {pages} {after}"), "offline none"),
                "a `device` scenario cannot have `offline none`",
            ),
            (
                replaced(contain, "suite contain", "suite serve"),
                "a `serve` scenario must have `victim none`",
            ),
            (
                replaced(serve, "suite serve", "suite contain"),
                "a `contain` scenario cannot have `victim none`",
            ),
        ];
        for (text, want) in cases {
            let err = Scenario::decode(&text).unwrap_err();
            assert!(err.contains(want), "want {want:?} in {err:?}");
        }
    }

    #[test]
    fn decode_rejects_out_of_range_values() {
        let serve = first(Suite::Serve);
        let svc = serve.service.as_ref().unwrap();
        let t0 = &svc.tenants[0];
        let soak = first(Suite::Soak);
        let p = &soak.solo.as_ref().unwrap().plan;
        let device = first(Suite::Device);
        let d = &device.solo.as_ref().unwrap().plan;
        let cases = [
            (
                replaced(
                    serve,
                    &format!(" {} {} {} ", t0.seed, t0.weight, t0.priority),
                    &format!(" {} 0 {} ", t0.seed, t0.priority),
                ),
                "`tenant`",
                "weight must be >= 1",
            ),
            (
                replaced(
                    soak,
                    &format!("faults {} {:?} ", p.seed, p.migration_fail_rate),
                    &format!("faults {} 2.0 ", p.seed),
                ),
                "`faults`",
                "migration_fail_rate = 2 is not a probability",
            ),
            (
                replaced(
                    device,
                    &format!(" {:?} {:?} ", d.degrade_lat_mult, d.degrade_bw_mult),
                    &format!(" 0.5 {:?} ", d.degrade_bw_mult),
                ),
                "`device`",
                "degrade_lat_mult = 0.5",
            ),
            (
                replaced(
                    serve,
                    &format!("service {} {} ", svc.seed, svc.pool_pages),
                    &format!("service {} {} ", svc.seed, u64::MAX),
                ),
                "`pool_pages`",
                "18446744073709551615 pages overflow",
            ),
        ];
        for (text, field, want) in cases {
            let err = Scenario::decode(&text).unwrap_err();
            assert!(
                err.contains(&format!("field {field}")) && err.contains(want),
                "want {field} and {want:?} in {err:?}"
            );
        }
    }

    /// Soak case 2 (it carries a crash) with pressure on and `edit`
    /// applied to its plan.
    fn soak_with(edit: impl FnOnce(&mut FaultPlan)) -> Scenario {
        let mut scn = Suite::Soak.generate(5, true).swap_remove(2);
        let s = scn.solo.as_mut().unwrap();
        s.plan = s.plan.clone().with_dram_pressure(32 * PAGE_SIZE, 2);
        edit(&mut s.plan);
        scn
    }

    #[test]
    fn shrink_drops_irrelevant_axes_and_bisects() {
        let scn = soak_with(|p| {
            p.migration_fail_rate = 0.4;
            p.pte_sample_dropout = 0.48;
            p.pmc_event_dropout = 0.3;
            p.telemetry_blackout = 0.2;
        });
        assert!(scn.solo.as_ref().unwrap().crash.is_some());
        // Synthetic oracle: the "bug" needs only pte_dropout >= 0.1.
        let pte = |s: &Scenario| s.solo.as_ref().unwrap().plan.pte_sample_dropout;
        let min = shrink(&scn, |s| pte(s) >= 0.1);
        let s = min.solo.as_ref().unwrap();
        assert_eq!(s.plan.migration_fail_rate, 0.0);
        assert_eq!(s.plan.pmc_event_dropout, 0.0);
        assert_eq!(s.plan.dram_pressure_bytes, 0);
        assert_eq!(s.plan.telemetry_blackout, 0.0);
        assert_eq!(s.crash, None);
        assert!(
            (0.1..0.2).contains(&pte(&min)),
            "bisection must stop just above the threshold, got {}",
            pte(&min)
        );
    }

    #[test]
    fn shrink_keeps_required_composition() {
        let scn = soak_with(|p| {
            p.migration_fail_rate = 0.4;
            p.pmc_event_dropout = 0.4;
            p.pte_sample_dropout = 0.4;
        });
        // The "bug" needs BOTH migration failures and PMC dropout.
        let plan = |s: &Scenario| s.solo.as_ref().unwrap().plan.clone();
        let min = plan(&shrink(&scn, |s| {
            plan(s).migration_fail_rate > 0.05 && plan(s).pmc_event_dropout > 0.05
        }));
        assert!(min.migration_fail_rate > 0.05);
        assert!(min.pmc_event_dropout > 0.05);
        assert_eq!(
            min.pte_sample_dropout, 0.0,
            "the irrelevant axis is dropped"
        );
        // A service-only scenario has no solo axes to shrink.
        let serve = first(Suite::Serve);
        assert_eq!(&shrink(serve, |_| true), serve);
    }
}
