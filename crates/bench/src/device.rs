//! `repro device` — seeded device-fault scenario sweep: page poisoning,
//! tier degradation windows, and permanent DRAM capacity offlining, driven
//! through both the single-tenant runtime and the multi-tenant placement
//! service, with an invariant oracle on every leg.
//!
//! A scenario is a pure function of its seed. The **runtime leg** runs one
//! application under a device fault plan and checks, between rounds and at
//! the end:
//!
//! 1. **No poisoned residency** — a quarantined (ECC-UE) page is never
//!    resident on DRAM, in any round, under any seed;
//! 2. **Exact capacity accounting** — `physical_dram_capacity` equals the
//!    configured capacity minus exactly the offlined bytes and the
//!    quarantined frames, and DRAM residency never exceeds it;
//! 3. **Counter integrity** — the O(1) tier counters equal a from-scratch
//!    recount while frames are being poisoned and offlined;
//! 4. **Replay determinism** — an identical re-run reproduces the
//!    `RunReport` bit for bit;
//! 5. **Crash recovery** — a scripted crash at a round boundary, restored
//!    from the WAL (checkpoint v4 carries quarantine and offline state),
//!    replays bit-identically: a torn epoch never resurrects a poisoned
//!    frame and a resume mid-degradation-window re-plans to the same plan.
//!
//! The **service leg** admits a deterministic tenant mix, offlines part of
//! the shared pool mid-run, and checks the renegotiation contract:
//!
//! 6. outstanding grants never exceed the shrunk pool;
//! 7. squeezed grants honor the tenant's declared floor;
//! 8. the keep/squeeze/displace/shed outcome is exactly the
//!    priority-ordered walk of the pre-offline grants;
//! 9. displaced tenants get a finite, capped retry-after, and the drained
//!    service finishes with zero quota violations.
//!
//! On any violation `repro device` writes the scenario as a replayable
//! `merchdevice 1` file and exits non-zero (`--replay <file> device` runs
//! it back), so CI can gate on the whole bundle (`device-smoke`).

use std::fmt::Write as _;

use merch_hm::runtime::Executor;
use merch_hm::service::{PlacementService, Renegotiation, ServiceConfig, ServiceReport, TenantJob};
use merch_hm::{CrashPoint, FaultKind, FaultPlan, HmSystem, Tier, Wal, PAGE_SIZE};
use merchandiser::PerformanceModel;

use crate::experiments::{build_policy, AppKind, PolicyKind};
use crate::par::par_map;
use crate::replay::FramedReader;
use crate::serve::TenantScenario;

/// splitmix64 finalizer (the crate-wide seeded-draw idiom).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One seeded device-fault scenario: a runtime leg (app × device fault
/// plan × scripted crash) and a service leg (tenant mix × mid-run capacity
/// loss). Everything both legs do is a pure function of this struct, so
/// the encoded form *is* the reproducer.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceScenario {
    /// Case index within the sweep (also salts the seed).
    pub case: u64,
    /// Workload / system / fault / tenant-mix seed.
    pub seed: u64,
    /// Application the runtime leg runs.
    pub app: AppKind,
    /// Probability a round suffers an ECC-UE poisoning strike.
    pub poison_rate: f64,
    /// Tier the degradation window slows.
    pub degrade_tier: Tier,
    /// Degradation duty period, rounds (0 = constant while enabled).
    pub degrade_period: u64,
    /// Latency multiplier inside the window (1.0 disables with `bw` 1.0).
    pub degrade_lat_mult: f64,
    /// Bandwidth multiplier inside the window.
    pub degrade_bw_mult: f64,
    /// Round the runtime-leg DRAM offlining strikes at.
    pub offline_round: u64,
    /// Runtime-leg DRAM pages permanently offlined (0 disables).
    pub offline_pages: u64,
    /// Boundary the crash-recovery leg dies at.
    pub crash_round: u64,
    /// Service-leg shared DRAM pool, pages (sized so the whole mix admits
    /// fully before the capacity loss).
    pub pool_pages: u64,
    /// Pages the service leg offlines mid-run.
    pub service_offline_pages: u64,
    /// Service steps taken before the capacity loss strikes.
    pub service_offline_after: u64,
    /// Tenant-mix size of the service leg.
    pub n_tenants: usize,
}

impl DeviceScenario {
    /// Deterministically generate case `case` of the sweep seeded by
    /// `master_seed`. Every case poisons; degradation and offlining are
    /// armed on most (but not all) cases so the dimensions also run alone.
    pub fn generate(master_seed: u64, case: u64) -> Self {
        let mut state = master_seed ^ mix64(case.wrapping_add(0xDE1C));
        let mut next = move || {
            state = mix64(state);
            state
        };
        let apps = AppKind::all();
        let app = apps[(next() % apps.len() as u64) as usize];
        let seed = (master_seed ^ mix64(case)) & 0xFFFF_FFFF;
        let poison_rate = (1 + next() % 30) as f64 / 100.0;
        let degrade_tier = if next() % 2 == 0 {
            Tier::Pm
        } else {
            Tier::Dram
        };
        let degrade_period = next() % 4;
        let (degrade_lat_mult, degrade_bw_mult) = if case % 4 == 3 {
            (1.0, 1.0)
        } else {
            (
                1.2 + (next() % 81) as f64 / 100.0,
                0.5 + (next() % 41) as f64 / 100.0,
            )
        };
        let offline_round = 1 + next() % 3;
        let offline_pages = if case % 3 == 2 { 0 } else { 1 + next() % 4 };
        let crash_round = 1 + next() % 2;
        let n_tenants = 3 + (next() % 2) as usize;
        let pool_pages = Self::tenant_mix(seed, n_tenants)
            .iter()
            .map(|t| t.quota_pages)
            .sum::<u64>()
            .max(1);
        let service_offline_pages = (pool_pages * (40 + next() % 41) / 100).max(1);
        let service_offline_after = 1 + next() % 3;
        Self {
            case,
            seed,
            app,
            poison_rate,
            degrade_tier,
            degrade_period,
            degrade_lat_mult,
            degrade_bw_mult,
            offline_round,
            offline_pages,
            crash_round,
            pool_pages,
            service_offline_pages,
            service_offline_after,
            n_tenants,
        }
    }

    /// The deterministic tenant mix of the service leg: Merchandiser
    /// tenants with distinct priorities (so the renegotiation walk is a
    /// total order) and per-app-sized quotas and floors.
    fn tenant_mix(seed: u64, n: usize) -> Vec<TenantScenario> {
        let apps = AppKind::all();
        // Distinct priorities via a seeded Fisher-Yates shuffle of 0..n.
        let mut prio: Vec<u8> = (0..n as u8).collect();
        let mut state = mix64(seed ^ 0xDE1C_E5E1);
        for i in (1..prio.len()).rev() {
            state = mix64(state);
            prio.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut tenants = Vec::new();
        for (i, &priority) in prio.iter().enumerate() {
            let tseed = mix64(seed ^ ((i as u64) << 8) ^ 0xDE1C_0000) & 0xFFFF_FFFF;
            let mut draw = tseed;
            let mut next = move || {
                draw = mix64(draw);
                draw
            };
            let app = apps[(next() % apps.len() as u64) as usize];
            let dram_pages = app.build(tseed).recommended_config().dram.capacity / PAGE_SIZE;
            let quota_pages = (dram_pages * (50 + next() % 51) / 100).max(4);
            let min_quota_pages = (quota_pages * (40 + next() % 21) / 100).max(2);
            tenants.push(TenantScenario {
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
            });
        }
        tenants
    }

    /// The service-leg tenants of *this* scenario.
    pub fn tenants(&self) -> Vec<TenantScenario> {
        Self::tenant_mix(self.seed, self.n_tenants)
    }

    /// The runtime-leg device fault plan, without the scripted crash.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::none()
            .with_seed(self.seed ^ 0xDE1C_DE1C)
            .with_page_poison(self.poison_rate)
            .with_degradation(
                self.degrade_tier,
                self.degrade_period,
                self.degrade_lat_mult,
                self.degrade_bw_mult,
            )
            .with_dram_offlining(self.offline_round, self.offline_pages * PAGE_SIZE)
    }

    /// Serialize as a replayable scenario file.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        writeln!(out, "merchdevice 1").expect("writing to String cannot fail");
        writeln!(out, "case {}", self.case).expect("writing to String cannot fail");
        writeln!(out, "seed {}", self.seed).expect("writing to String cannot fail");
        writeln!(out, "app {}", self.app.name()).expect("writing to String cannot fail");
        writeln!(
            out,
            "device {:?} {:?} {} {:?} {:?} {} {}",
            self.poison_rate,
            self.degrade_tier,
            self.degrade_period,
            self.degrade_lat_mult,
            self.degrade_bw_mult,
            self.offline_round,
            self.offline_pages
        )
        .expect("writing to String cannot fail");
        writeln!(out, "crash {}", self.crash_round).expect("writing to String cannot fail");
        writeln!(
            out,
            "service {} {} {} {}",
            self.pool_pages, self.service_offline_pages, self.service_offline_after, self.n_tenants
        )
        .expect("writing to String cannot fail");
        out
    }

    /// Parse a scenario file written by [`encode`](Self::encode), with
    /// line/field diagnostics from the shared framing reader.
    pub fn decode(text: &str) -> Result<Self, String> {
        let mut r = FramedReader::new("device scenario", text, "merchdevice", &[1])?;
        let case = r.record("case", 1)?.u64(0, "case")?;
        let seed = r.record("seed", 1)?.u64(0, "seed")?;
        let app_rec = r.record("app", 1)?;
        let app_name = app_rec.tok(0, "app")?;
        let app = *AppKind::all()
            .iter()
            .find(|a| a.name() == app_name)
            .ok_or_else(|| {
                format!(
                    "device scenario line {}, field `app`: unknown app `{app_name}`",
                    app_rec.line_no
                )
            })?;
        let d = r.record("device", 7)?;
        let degrade_tier = match d.tok(1, "degrade_tier")? {
            "Pm" => Tier::Pm,
            "Dram" => Tier::Dram,
            other => {
                return Err(format!(
                    "device scenario line {}, field `degrade_tier`: unknown tier `{other}`",
                    d.line_no
                ))
            }
        };
        let crash_round = r.record("crash", 1)?.u64(0, "crash_round")?;
        let s = r.record("service", 4)?;
        let scn = Self {
            case,
            seed,
            app,
            poison_rate: d.f64(0, "poison_rate")?,
            degrade_tier,
            degrade_period: d.u64(2, "degrade_period")?,
            degrade_lat_mult: d.f64(3, "degrade_lat_mult")?,
            degrade_bw_mult: d.f64(4, "degrade_bw_mult")?,
            offline_round: d.u64(5, "offline_round")?,
            offline_pages: d.u64(6, "offline_pages")?,
            crash_round,
            pool_pages: s.u64(0, "pool_pages")?,
            service_offline_pages: s.u64(1, "service_offline_pages")?,
            service_offline_after: s.u64(2, "service_offline_after")?,
            n_tenants: s.u64(3, "n_tenants")? as usize,
        };
        r.finish()?;
        // Every tenant of the mix needs its own `u8` priority.
        if scn.n_tenants > usize::from(u8::MAX) {
            return Err(format!(
                "device scenario line {}, field `n_tenants`: {} exceeds {} tenants",
                s.line_no,
                scn.n_tenants,
                u8::MAX
            ));
        }
        Ok(scn)
    }
}

/// Result of one verified device scenario.
#[derive(Debug)]
pub struct DeviceRow {
    /// The scenario that ran.
    pub scenario: DeviceScenario,
    /// Rounds the runtime leg completed.
    pub rounds: usize,
    /// Frames poisoned by the injected ECC-UE strikes.
    pub pages_poisoned: u64,
    /// Rounds spent inside an open degradation window.
    pub degraded_window_rounds: u64,
    /// Runtime-leg bytes permanently offlined.
    pub offlined_bytes: u64,
    /// Whether the scripted crash actually fired (and recovery replayed).
    pub crash_fired: bool,
    /// The service leg's renegotiation outcome.
    pub renegotiation: Renegotiation,
    /// The drained service leg's rollup.
    pub service: ServiceReport,
    /// Oracle violations (empty = every invariant holds).
    pub violations: Vec<String>,
}

fn fresh_executor(
    scn: &DeviceScenario,
    model: &PerformanceModel,
    plan: &FaultPlan,
) -> Executor<Box<dyn merch_apps::HpcApp>, Box<dyn crate::experiments::PolicyObj>> {
    let workload = scn.app.build(scn.seed);
    let policy = build_policy(PolicyKind::Merchandiser, model, workload.as_ref(), scn.seed);
    let mut sys = HmSystem::new(workload.recommended_config(), scn.seed);
    sys.set_fault_plan(plan.clone())
        .expect("generated plans are always valid");
    Executor::new(sys, workload, policy)
}

/// The per-round device oracle on the live system.
fn check_device_round(scn: &DeviceScenario, round: usize, sys: &HmSystem) -> Result<(), String> {
    let at = |what: &str| format!("[case {}] round {round}: {what}", scn.case);
    for id in sys.page_table().quarantined() {
        if sys.page_table().get(id).tier() == Tier::Dram {
            return Err(at(&format!(
                "no_poisoned_residency: quarantined page {id} resident on DRAM"
            )));
        }
    }
    let physical = sys.physical_dram_capacity();
    let expected = sys
        .config
        .dram
        .capacity
        .saturating_sub(sys.offlined_dram_bytes())
        .saturating_sub(sys.page_table().quarantine_bytes());
    if physical != expected {
        return Err(at(&format!(
            "capacity_accounting: physical {physical} B != configured - offlined - quarantined = {expected} B"
        )));
    }
    let dram = sys.page_table().bytes_in(Tier::Dram);
    if dram > physical {
        return Err(at(&format!(
            "capacity_accounting: {dram} B resident > {physical} B physical capacity"
        )));
    }
    for tier in [Tier::Dram, Tier::Pm] {
        let fast = sys.page_table().bytes_in(tier);
        let scan = sys.page_table().recount_bytes_in(tier);
        if fast != scan {
            return Err(at(&format!(
                "tier_counters: {tier:?} counter {fast} B != recount {scan} B"
            )));
        }
    }
    Ok(())
}

/// Supervised crash at a round boundary → WAL restore → replay; the resumed
/// report must equal the uninterrupted reference bit for bit (checkpoint v4
/// must carry the quarantine set and offlined bytes across the crash).
fn run_crash_leg(
    scn: &DeviceScenario,
    model: &PerformanceModel,
    plan: &FaultPlan,
    reference_dbg: &str,
) -> Result<bool, String> {
    let wal_path = std::env::temp_dir().join(format!(
        "merch-device-{}-{}-{}.wal",
        std::process::id(),
        scn.case,
        scn.seed
    ));
    let crash_plan = plan.clone().with_fault(FaultKind::Crash {
        round: scn.crash_round,
        point: CrashPoint::BetweenRounds,
    });
    let mut wal = Wal::create(&wal_path).map_err(|e| format!("WAL create failed: {e}"))?;
    let mut ex = fresh_executor(scn, model, &crash_plan);
    let outcome = ex.run_supervised(&mut wal);
    drop(ex);
    drop(wal);
    let (resumed_dbg, fired) = match outcome {
        Ok(report) => (format!("{report:?}"), false),
        Err(_) => {
            let ck = Wal::latest(&wal_path)
                .map_err(|e| format!("WAL read failed: {e}"))?
                .ok_or("no durable checkpoint after crash")?;
            let workload = scn.app.build(scn.seed);
            let policy = build_policy(PolicyKind::Merchandiser, model, workload.as_ref(), scn.seed);
            let mut ex = Executor::resume(ck, workload, policy)
                .map_err(|e| format!("resume failed: {e}"))?;
            let resumed = ex
                .try_run()
                .map_err(|e| format!("resumed run failed: {e}"))?;
            // The restored system must carry the quarantine forward: no
            // resurrected poisoned frame may sit on DRAM after the replay.
            for id in ex.sys.page_table().quarantined() {
                if ex.sys.page_table().get(id).tier() == Tier::Dram {
                    return Err(format!(
                        "crash_recovery: resumed run resurrected quarantined page {id} onto DRAM"
                    ));
                }
            }
            (format!("{resumed:?}"), true)
        }
    };
    let _ = std::fs::remove_file(&wal_path);
    if resumed_dbg != reference_dbg {
        return Err(format!(
            "crash_replay_determinism: boundary@{} recovery diverged from the uninterrupted run",
            scn.crash_round
        ));
    }
    Ok(fired)
}

/// Drive the service leg: admit the mix, take `service_offline_after`
/// steps, offline part of the pool, drain. Returns the renegotiation, the
/// final report, and the pre-offline grant snapshot (submission order).
fn run_service_leg(
    scn: &DeviceScenario,
    model: &PerformanceModel,
) -> (Renegotiation, ServiceReport, Vec<u64>) {
    let tenants = scn.tenants();
    let config = ServiceConfig::new(scn.pool_pages * PAGE_SIZE).with_seed(scn.seed);
    let mut svc = PlacementService::new(config);
    for t in &tenants {
        let job: Box<dyn TenantJob> = Box::new(t.executor(model));
        svc.submit(t.spec(), job)
            .expect("generated tenant specs are always valid");
    }
    for _ in 0..scn.service_offline_after {
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
    let ren = svc.offline_dram(scn.service_offline_pages * PAGE_SIZE);
    let report = svc.run();
    (ren, report, before)
}

/// Run one scenario and verify every leg's gates.
pub fn run_scenario(scn: &DeviceScenario, model: &PerformanceModel) -> DeviceRow {
    let mut violations = Vec::new();
    let plan = scn.plan();

    // Runtime leg: per-round device oracle.
    let mut ex = fresh_executor(scn, model, &plan);
    loop {
        let round = match ex.step() {
            Ok(Some(r)) => r.round,
            Ok(None) => break,
            Err(e) => {
                violations.push(format!(
                    "[case {}] no_unscripted_crash: step failed: {e}",
                    scn.case
                ));
                break;
            }
        };
        if let Err(v) = check_device_round(scn, round, &ex.sys) {
            violations.push(v);
        }
    }
    let reference = ex.report();
    let reference_dbg = format!("{reference:?}");
    if scn.offline_pages > 0
        && (reference.rounds.len() as u64) > scn.offline_round
        && reference.fault.offlined_bytes != scn.offline_pages * PAGE_SIZE
    {
        violations.push(format!(
            "[case {}] capacity_accounting: offlined {} B, scenario scripted {} B",
            scn.case,
            reference.fault.offlined_bytes,
            scn.offline_pages * PAGE_SIZE
        ));
    }

    // Replay determinism: an identical re-run is bit-identical.
    match fresh_executor(scn, model, &plan).try_run() {
        Ok(r) if format!("{r:?}") == reference_dbg => {}
        Ok(_) => violations.push(format!(
            "[case {}] replay_determinism: re-run diverged from the reference",
            scn.case
        )),
        Err(e) => violations.push(format!(
            "[case {}] replay_determinism: re-run failed: {e}",
            scn.case
        )),
    }

    // Crash recovery through checkpoint v4.
    let crash_fired = match run_crash_leg(scn, model, &plan, &reference_dbg) {
        Ok(fired) => fired,
        Err(v) => {
            violations.push(format!("[case {}] {v}", scn.case));
            false
        }
    };

    // Service leg: capacity-loss renegotiation gates.
    let (ren, service, before) = run_service_leg(scn, model);
    check_renegotiation(scn, &ren, &service, &before, &mut violations);

    // Service-leg replay determinism: the whole leg is a pure function of
    // the scenario.
    let (ren2, service2, _) = run_service_leg(scn, model);
    if format!("{ren:?}") != format!("{ren2:?}")
        || format!("{:?}", service.tenants) != format!("{:?}", service2.tenants)
    {
        violations.push(format!(
            "[case {}] replay_determinism: service leg diverged across identical runs",
            scn.case
        ));
    }

    DeviceRow {
        scenario: scn.clone(),
        rounds: reference.rounds.len(),
        pages_poisoned: reference.fault.pages_poisoned,
        degraded_window_rounds: reference.fault.degraded_window_rounds,
        offlined_bytes: reference.fault.offlined_bytes,
        crash_fired,
        renegotiation: ren,
        service,
        violations,
    }
}

/// Verify the renegotiation against the contract: exact pool accounting,
/// floors honored, the outcome equal to the priority-ordered walk of the
/// pre-offline grants, capped retry-afters, and a clean drain.
fn check_renegotiation(
    scn: &DeviceScenario,
    ren: &Renegotiation,
    report: &ServiceReport,
    before: &[u64],
    violations: &mut Vec<String>,
) {
    let tenants = scn.tenants();
    let at = |what: String| format!("[case {}] {what}", scn.case);
    let pool_after = (scn.pool_pages * PAGE_SIZE).saturating_sub(ren.offlined_bytes);

    // Gate: floors honored by every squeeze, and squeezes only shrink.
    for &(id, grant) in &ren.squeezed {
        let i = id.0 as usize;
        let floor = tenants[i].min_quota_pages * PAGE_SIZE;
        if grant < floor {
            violations.push(at(format!(
                "renegotiation_floor: tenant {} squeezed to {grant} B below its {floor} B floor",
                tenants[i].name
            )));
        }
        if grant >= before[i] {
            violations.push(at(format!(
                "renegotiation_floor: tenant {} \"squeezed\" from {} B to {grant} B (not a shrink)",
                tenants[i].name, before[i]
            )));
        }
    }

    // Gate: the outcome is exactly the priority-ordered walk (priorities
    // are distinct by construction, so the walk is a total order).
    let mut walk: Vec<usize> = ren
        .kept
        .iter()
        .chain(ren.squeezed.iter().map(|(id, _)| id))
        .chain(ren.displaced.iter().map(|(id, _)| id))
        .chain(ren.shed.iter())
        .map(|id| id.0 as usize)
        .collect();
    walk.sort_by_key(|&i| std::cmp::Reverse(tenants[i].priority));
    let mut remaining = pool_after;
    let mut granted_walk = 0u64;
    for i in walk {
        let id = merch_hm::service::TenantId(i as u32);
        let floor = tenants[i].min_quota_pages * PAGE_SIZE;
        if floor <= remaining {
            let grant = before[i].min(remaining);
            let expected_kept = grant == before[i];
            let actual_kept = ren.kept.contains(&id);
            let actual_squeeze = ren.squeezed.iter().find(|(t, _)| *t == id).map(|(_, g)| *g);
            if expected_kept != actual_kept || (!expected_kept && actual_squeeze != Some(grant)) {
                violations.push(at(format!(
                    "renegotiation_priority: tenant {} expected grant {grant} B at its turn \
                     (kept={expected_kept}), renegotiation disagrees",
                    tenants[i].name
                )));
            }
            remaining -= grant;
            granted_walk += grant;
        } else {
            let displaced = ren.displaced.iter().any(|(t, _)| *t == id);
            let shed = ren.shed.contains(&id);
            if !displaced && !shed {
                violations.push(at(format!(
                    "renegotiation_priority: tenant {} floor {floor} B exceeds the {remaining} B \
                     left at its turn but was neither displaced nor shed",
                    tenants[i].name
                )));
            }
        }
    }

    // Gate: exact accounting — surviving grants fit the shrunk pool.
    if granted_walk > pool_after {
        violations.push(at(format!(
            "renegotiation_accounting: surviving grants {granted_walk} B > shrunk pool {pool_after} B"
        )));
    }

    // Gate: displaced tenants get a finite positive capped retry-after.
    let cap = ServiceConfig::new(scn.pool_pages * PAGE_SIZE).retry_cap_ns as f64;
    for &(id, retry_after_ns) in &ren.displaced {
        if !(retry_after_ns.is_finite() && retry_after_ns > 0.0 && retry_after_ns <= cap) {
            violations.push(at(format!(
                "renegotiation_backoff: tenant {} retry-after {retry_after_ns} ns outside (0, {cap}]",
                tenants[id.0 as usize].name
            )));
        }
    }

    // Gate: the drained service never violated a quota.
    if report.quota_violations != 0 {
        violations.push(at(format!(
            "quota: {} residency-over-grant rounds after the capacity loss",
            report.quota_violations
        )));
    }
}

/// The `repro device` sweep. `smoke` shrinks it for CI.
pub fn device(model: &PerformanceModel, master_seed: u64, smoke: bool) -> Vec<DeviceRow> {
    let cases = if smoke { 4 } else { 10 };
    let scns: Vec<DeviceScenario> = (0..cases)
        .map(|c| DeviceScenario::generate(master_seed, c))
        .collect();
    par_map(scns, |scn| run_scenario(&scn, model))
}

/// Replay a scenario file (`repro --replay FILE device`).
pub fn device_replay(text: &str, model: &PerformanceModel) -> Result<DeviceRow, String> {
    let scn = DeviceScenario::decode(text)?;
    Ok(run_scenario(&scn, model))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_varied() {
        let a: Vec<DeviceScenario> = (0..8).map(|c| DeviceScenario::generate(7, c)).collect();
        let b: Vec<DeviceScenario> = (0..8).map(|c| DeviceScenario::generate(7, c)).collect();
        assert_eq!(a, b);
        assert!(a.windows(2).any(|w| w[0].app != w[1].app
            || w[0].poison_rate != w[1].poison_rate
            || w[0].degrade_lat_mult != w[1].degrade_lat_mult));
        // Every case poisons; case 3 mod 4 runs without a degradation
        // window, case 2 mod 3 without offlining.
        for (c, s) in a.iter().enumerate() {
            assert!(s.poison_rate > 0.0, "case {c}");
            assert_eq!(
                s.degrade_lat_mult == 1.0 && s.degrade_bw_mult == 1.0,
                c % 4 == 3,
                "case {c}"
            );
            assert_eq!(s.offline_pages == 0, c % 3 == 2, "case {c}");
            s.plan().validate().expect("generated plans validate");
        }
        assert_ne!(a[0], DeviceScenario::generate(8, 0));
    }

    #[test]
    fn tenant_mix_is_deterministic_with_distinct_priorities() {
        let scn = DeviceScenario::generate(11, 1);
        let t1 = scn.tenants();
        let t2 = scn.tenants();
        assert_eq!(t1, t2);
        assert_eq!(t1.len(), scn.n_tenants);
        let mut prios: Vec<u8> = t1.iter().map(|t| t.priority).collect();
        prios.sort_unstable();
        prios.dedup();
        assert_eq!(prios.len(), t1.len());
        // The pool admits the whole mix before the capacity loss.
        assert_eq!(
            scn.pool_pages,
            t1.iter().map(|t| t.quota_pages).sum::<u64>()
        );
        assert!(scn.service_offline_pages >= 1);
    }

    #[test]
    fn scenario_encode_decode_roundtrip() {
        for case in 0..8 {
            let scn = DeviceScenario::generate(3, case);
            let text = scn.encode();
            assert_eq!(DeviceScenario::decode(&text).unwrap(), scn, "{text}");
        }
        // Violation-context comments and blank lines are skipped.
        let scn = DeviceScenario::generate(3, 0);
        let annotated = format!("# device violation: xyz\n\n{}", scn.encode());
        assert_eq!(DeviceScenario::decode(&annotated).unwrap(), scn);
    }

    #[test]
    fn decode_diagnoses_bad_files() {
        assert!(DeviceScenario::decode("").is_err());
        let err = DeviceScenario::decode("merchsoak 1\n").unwrap_err();
        assert!(err.contains("expected `merchdevice`"), "{err}");
        let err = DeviceScenario::decode("merchdevice 9\n").unwrap_err();
        assert!(err.contains("unsupported merchdevice version 9"), "{err}");
        let good = DeviceScenario::generate(1, 0).encode();
        let err = DeviceScenario::decode(&good.replacen("\ndevice ", "\ndevize ", 1)).unwrap_err();
        assert!(err.contains("expected `device`"), "{err}");
        let err = DeviceScenario::decode(
            &good
                .replacen(" Pm ", " Hbm ", 1)
                .replacen(" Dram ", " Hbm ", 1),
        )
        .unwrap_err();
        assert!(err.contains("unknown tier"), "{err}");
        let trailing = format!("{good}junk 1\n");
        assert!(DeviceScenario::decode(&trailing).is_err());
    }

    #[test]
    fn decode_rejects_huge_tenant_count() {
        let app = AppKind::all()[0].name();
        for huge in [u64::MAX, 100_000_000_000] {
            let bad = format!(
                "merchdevice 1\ncase 0\nseed 1\napp {app}\ndevice 0.01 Pm 0 1.0 1.0 0 0\n\
                 crash 0\nservice 10 1 1 {huge}\n"
            );
            let err = DeviceScenario::decode(&bad).unwrap_err();
            assert!(err.contains("field `n_tenants`"), "{err}");
        }
    }
}
