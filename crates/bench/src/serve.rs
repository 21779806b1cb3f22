//! `repro serve` — seeded multi-tenant scenario sweep over the placement
//! service, with built-in verification of the isolation gates.
//!
//! A scenario is a pure function of its seed: a tenant mix (app × policy ×
//! quota × weight × priority × optional deadline), an optional chaos plan
//! per tenant (reusing [`SoakSchedule`](crate::soak::SoakSchedule) fault
//! compositions, scripted crashes included), and a pool size. The harness
//! runs every scenario through [`PlacementService`] and then *checks*:
//!
//! 1. **Replay determinism** — rebuilding and rerunning the scenario
//!    reproduces every [`TenantReport`] bit-exactly (`{:?}` equality).
//! 2. **Isolation** — every non-quarantined admitted tenant's per-round
//!    placement output is bitwise identical to a solo run of the same
//!    executor under the same grant, no matter what its co-tenants did.
//! 3. **Quota** — zero quota violations (no tenant's DRAM residency ever
//!    exceeded its grant).
//! 4. **Priority** — in the overload scenario, initial-pass squeezes and
//!    queue-full sheds hit strictly lower priorities than every
//!    fully-granted initial admission (deadline sheds are time-driven and
//!    exempt).
//! 5. **Accounting** — per-tenant service time sums to the virtual clock
//!    and completed tenants ran exactly their declared rounds.
//!
//! Violations make `repro` exit non-zero, so CI can gate on the whole
//! bundle (`serve-smoke`).

use std::fmt::Write as _;

use merch_hm::service::{
    PlacementService, ServiceConfig, ServiceReport, ShedReason, TenantJob, TenantSpec, TenantStatus,
};
use merch_hm::{Executor, HmSystem, PAGE_SIZE};
use merchandiser::PerformanceModel;

use crate::experiments::{build_policy, AppKind, PolicyKind};
use crate::par::par_map;
use crate::replay::{FramedReader, Record};
use crate::soak::SoakSchedule;

/// splitmix64 finalizer (the crate-wide seeded-draw idiom). Shared with the
/// containment sweep, which derives its tenant mixes the same way.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One tenant of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantScenario {
    /// Single-token tenant name.
    pub name: String,
    /// Application the tenant runs.
    pub app: AppKind,
    /// Placement policy driving the tenant.
    pub policy: PolicyKind,
    /// Seed for the tenant's workload, policy, and chaos plan.
    pub seed: u64,
    /// DRR weight.
    pub weight: u32,
    /// Priority class (distinct within a scenario, so shed/squeeze order
    /// is total).
    pub priority: u8,
    /// Requested DRAM quota, pages.
    pub quota_pages: u64,
    /// Squeeze floor, pages.
    pub min_quota_pages: u64,
    /// Completion deadline, virtual ms (`inf` = none).
    pub deadline_ms: f64,
    /// Chaos: run under `SoakSchedule::generate(seed, case)`'s fault plan
    /// (scripted crash armed when the schedule carries one).
    pub chaos_case: Option<u64>,
}

impl TenantScenario {
    /// Build the tenant's executor: workload and policy seeded by the
    /// tenant seed, system sized by the app's recommended config, chaos
    /// plan armed when declared. Identical inputs give a bitwise-identical
    /// executor — this same constructor builds the service run, the replay
    /// run, and the solo baseline.
    pub fn executor(
        &self,
        model: &PerformanceModel,
    ) -> Executor<Box<dyn merch_apps::HpcApp>, Box<dyn crate::experiments::PolicyObj>> {
        let workload = self.app.build(self.seed);
        let policy = build_policy(self.policy, model, workload.as_ref(), self.seed);
        let mut sys = HmSystem::new(workload.recommended_config(), self.seed);
        if let Some(case) = self.chaos_case {
            let sched = SoakSchedule::generate(self.seed, case);
            sys.set_fault_plan(sched.armed_plan())
                .expect("generated plans are always valid");
        }
        Executor::new(sys, workload, policy)
    }

    /// The service-side contract this tenant declares.
    pub fn spec(&self) -> TenantSpec {
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

    /// Serialize as one `tenant ...` scenario-file line (shared between the
    /// `merchserve` and `merchcontain` framings).
    pub fn encode_line(&self) -> String {
        let chaos = self
            .chaos_case
            .map(|c| c.to_string())
            .unwrap_or_else(|| "-".to_string());
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

    /// Parse a `tenant ...` record written by
    /// [`encode_line`](Self::encode_line), with field diagnostics.
    pub fn decode_record(t: &Record<'_>) -> Result<Self, String> {
        let app_name = t.tok(1, "app")?;
        let app = *AppKind::all()
            .iter()
            .find(|a| a.name() == app_name)
            .ok_or_else(|| {
                format!(
                    "serve scenario line {}, field `app`: unknown app `{app_name}`",
                    t.line_no
                )
            })?;
        let policy_name = t.tok(2, "policy")?;
        let policy = [
            PolicyKind::PmOnly,
            PolicyKind::MemoryOptimizer,
            PolicyKind::Merchandiser,
            PolicyKind::DamonTier,
            PolicyKind::AutoNuma,
        ]
        .into_iter()
        .find(|p| p.name() == policy_name)
        .ok_or_else(|| {
            format!(
                "serve scenario line {}, field `policy`: unknown policy `{policy_name}`",
                t.line_no
            )
        })?;
        let chaos_tok = t.tok(9, "chaos_case")?;
        let chaos_case = if chaos_tok == "-" {
            None
        } else {
            Some(t.u64(9, "chaos_case")?)
        };
        Ok(Self {
            name: t.tok(0, "name")?.to_string(),
            app,
            policy,
            seed: t.u64(3, "seed")?,
            weight: t.u32(4, "weight")?,
            priority: t.u8(5, "priority")?,
            quota_pages: t.u64(6, "quota_pages")?,
            min_quota_pages: t.u64(7, "min_quota_pages")?,
            deadline_ms: t.f64(8, "deadline_ms")?,
            chaos_case,
        })
    }
}

/// A full serve scenario: pool, queue bound, tenant mix.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeScenario {
    /// Scenario label (`capacity` / `overload` in the generated sweep).
    pub label: String,
    /// Master seed the scenario derives from.
    pub seed: u64,
    /// Shared DRAM pool, pages.
    pub pool_pages: u64,
    /// Admission queue bound.
    pub queue_bound: usize,
    /// Tenant mix, submission order.
    pub tenants: Vec<TenantScenario>,
}

impl ServeScenario {
    /// Generate a deterministic tenant mix. `pool_pct` sizes the pool as a
    /// percentage of the sum of requested quotas (100+ = capacity mode,
    /// everyone fits; below ~60 = overload mode, squeezes and sheds).
    /// Every `chaos_every`-th tenant runs under a soak fault schedule.
    pub fn generate(
        label: &str,
        master_seed: u64,
        n_tenants: usize,
        chaos_every: usize,
        pool_pct: u64,
        queue_bound: usize,
    ) -> Self {
        let apps = AppKind::all();
        let policies = [
            PolicyKind::Merchandiser,
            PolicyKind::Merchandiser,
            PolicyKind::MemoryOptimizer,
            PolicyKind::AutoNuma,
        ];
        // Distinct priorities via a seeded Fisher-Yates shuffle of 0..n.
        let mut prio: Vec<u8> = (0..n_tenants as u8).collect();
        let mut state = mix64(master_seed ^ 0x5E17_E5E1);
        for i in (1..prio.len()).rev() {
            state = mix64(state);
            prio.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut tenants = Vec::with_capacity(n_tenants);
        for (i, &priority) in prio.iter().enumerate() {
            // 32-bit tenant seeds: full-width seeds overflow debug-mode
            // seed arithmetic in some app constructors.
            let seed = mix64(master_seed ^ ((i as u64) << 8) ^ 0xA11C_E5ED) & 0xFFFF_FFFF;
            let mut draw = seed;
            let mut next = move || {
                draw = mix64(draw);
                draw
            };
            let app = apps[(next() % apps.len() as u64) as usize];
            let policy = policies[(next() % policies.len() as u64) as usize];
            let dram_pages = {
                // Size quotas against the app's recommended DRAM tier.
                let cfg = app.build(seed).recommended_config();
                cfg.dram.capacity / PAGE_SIZE
            };
            let quota_pages = (dram_pages * (50 + next() % 51) / 100).max(4);
            let min_quota_pages = (quota_pages * (40 + next() % 21) / 100).max(2);
            let chaos_case =
                (chaos_every > 0 && i % chaos_every == chaos_every - 1).then(|| next() % 64);
            // The lowest-priority tenant gets a finite deadline so the
            // deadline-shedding path is exercised under overload (it is
            // exempt from the priority gate by construction).
            let deadline_ms = if priority == 0 && pool_pct < 100 {
                5.0 + (next() % 20) as f64
            } else {
                f64::INFINITY
            };
            tenants.push(TenantScenario {
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
            });
        }
        let total: u64 = tenants.iter().map(|t| t.quota_pages).sum();
        Self {
            label: label.to_string(),
            seed: master_seed,
            pool_pages: (total * pool_pct / 100).max(1),
            queue_bound,
            tenants,
        }
    }

    /// Serialize as a replayable scenario file (`merchserve 1` framing,
    /// shared reader with the soak reproducers).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        writeln!(out, "merchserve 1").expect("writing to String cannot fail");
        writeln!(out, "label {}", self.label).expect("writing to String cannot fail");
        writeln!(out, "seed {}", self.seed).expect("writing to String cannot fail");
        writeln!(out, "pool {} {}", self.pool_pages, self.queue_bound)
            .expect("writing to String cannot fail");
        writeln!(out, "tenants {}", self.tenants.len()).expect("writing to String cannot fail");
        for t in &self.tenants {
            writeln!(out, "{}", t.encode_line()).expect("writing to String cannot fail");
        }
        out
    }

    /// Parse a scenario file written by [`encode`](Self::encode), with
    /// line/field diagnostics from the shared framing reader.
    pub fn decode(text: &str) -> Result<Self, String> {
        let mut r = FramedReader::new("serve scenario", text, "merchserve", &[1])?;
        let label = r.record("label", 1)?.tok(0, "label")?.to_string();
        let seed = r.record("seed", 1)?.u64(0, "seed")?;
        let pool = r.record("pool", 2)?;
        let pool_pages = pool.u64(0, "pool_pages")?;
        let queue_bound = pool.u64(1, "queue_bound")? as usize;
        // The count is untrusted: no pre-reservation, so a huge value fails
        // on the first missing `tenant` record instead of aborting.
        let n = r.record("tenants", 1)?.u64(0, "tenants")?;
        let mut tenants = Vec::new();
        for _ in 0..n {
            let t = r.record("tenant", 10)?;
            tenants.push(TenantScenario::decode_record(&t)?);
        }
        r.finish()?;
        Ok(Self {
            label,
            seed,
            pool_pages,
            queue_bound,
            tenants,
        })
    }

    /// Submit every tenant and drive the service to completion.
    fn run_service(&self, model: &PerformanceModel) -> (ServiceReport, Vec<String>) {
        let config = ServiceConfig::new(self.pool_pages * PAGE_SIZE)
            .with_max_queue(self.queue_bound)
            .with_seed(self.seed);
        let mut svc = PlacementService::new(config);
        for t in &self.tenants {
            let job: Box<dyn TenantJob> = Box::new(t.executor(model));
            svc.submit(t.spec(), job)
                .expect("generated tenant specs are always valid");
        }
        let report = svc.run();
        // Capture each tenant's per-round output for the isolation oracle
        // before the service is dropped.
        let runs: Vec<String> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, _)| {
                format!(
                    "{:?}",
                    svc.tenant_run_report(merch_hm::service::TenantId(i as u32))
                )
            })
            .collect();
        (report, runs)
    }
}

/// Result of one verified scenario.
#[derive(Debug)]
pub struct ServeRow {
    /// The scenario that ran.
    pub scenario: ServeScenario,
    /// The service rollup of the first run.
    pub report: ServiceReport,
    /// Gate violations (empty = all invariants hold).
    pub violations: Vec<String>,
}

/// Run one scenario and verify every gate. Solo baselines run on the sweep
/// worker pool.
pub fn run_scenario(scn: &ServeScenario, model: &PerformanceModel) -> ServeRow {
    let mut violations = Vec::new();
    let (report, runs) = scn.run_service(model);

    // Gate 1: replay determinism — a rebuilt scenario reproduces every
    // TenantReport (and every per-round output) bit-exactly.
    let (report2, runs2) = scn.run_service(model);
    if format!("{:?}", report.tenants) != format!("{:?}", report2.tenants) {
        violations.push(format!(
            "[{}] replay_determinism: TenantReports diverged across identical runs",
            scn.label
        ));
    }
    if runs != runs2 {
        violations.push(format!(
            "[{}] replay_determinism: per-round outputs diverged across identical runs",
            scn.label
        ));
    }

    // Gate 2: isolation — every non-quarantined admitted tenant matches a
    // solo run of the same executor under the same grant, bit for bit.
    let solo_idx: Vec<usize> = report
        .tenants
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            t.admitted_at_ns >= 0.0 && !matches!(t.status, TenantStatus::Quarantined { .. })
        })
        .map(|(i, _)| i)
        .collect();
    let solo_runs = par_map(solo_idx.clone(), |i| {
        let granted = report.tenants[i].granted_quota;
        let mut ex = scn.tenants[i].executor(model);
        ex.sys.set_dram_quota(Some(granted));
        match ex.try_run() {
            Ok(r) => format!("{r:?}"),
            Err(e) => format!("solo run failed: {e}"),
        }
    });
    for (&i, solo) in solo_idx.iter().zip(&solo_runs) {
        if *solo != runs[i] {
            violations.push(format!(
                "[{}] isolation: tenant {} per-round output diverged from its solo baseline",
                scn.label, report.tenants[i].name
            ));
        }
    }

    // Gate 3: quota — residency never exceeded any grant.
    if report.quota_violations != 0 {
        violations.push(format!(
            "[{}] quota: {} residency-over-grant rounds",
            scn.label, report.quota_violations
        ));
    }

    // Gate 4: priority — initial-pass squeezes and queue-full sheds are
    // strictly lower-priority than every fully-granted initial admission.
    let full_grant_floor = report
        .tenants
        .iter()
        .filter(|t| t.admitted_at_ns == 0.0 && !t.squeezed)
        .map(|t| t.priority)
        .min();
    if let Some(floor) = full_grant_floor {
        for t in &report.tenants {
            let priority_shed = matches!(t.status, TenantStatus::Shed(ShedReason::QueueFull));
            let initial_squeeze = t.squeezed && t.admitted_at_ns == 0.0;
            if (priority_shed || initial_squeeze) && t.priority > floor {
                violations.push(format!(
                    "[{}] priority: tenant {} (priority {}) shed/squeezed over a \
                     fully-granted priority-{floor} tenant",
                    scn.label, t.name, t.priority
                ));
            }
        }
    }

    // Gate 5: SLO accounting — service time sums to the clock; completed
    // tenants ran exactly their declared rounds.
    let total: f64 = report.tenants.iter().map(|t| t.service_ns).sum();
    if (total - report.clock_ns).abs() > 1e-6 * report.clock_ns.max(1.0) {
        violations.push(format!(
            "[{}] accounting: per-tenant service {} ns != clock {} ns",
            scn.label, total, report.clock_ns
        ));
    }
    for t in &report.tenants {
        if t.status == TenantStatus::Completed && t.rounds_done != t.rounds_total {
            violations.push(format!(
                "[{}] accounting: tenant {} completed with {}/{} rounds",
                scn.label, t.name, t.rounds_done, t.rounds_total
            ));
        }
    }

    ServeRow {
        scenario: scn.clone(),
        report,
        violations,
    }
}

/// The `repro serve` sweep: a capacity scenario (everyone fits; isolation
/// and replay gates with N ≥ 8 tenants and chaos co-tenants) plus an
/// overload scenario (squeezes, sheds, deadline expiry; priority gate).
/// `smoke` shrinks both for CI.
pub fn serve(model: &PerformanceModel, master_seed: u64, smoke: bool) -> Vec<ServeRow> {
    let (n_cap, n_over) = if smoke { (5, 5) } else { (10, 8) };
    let capacity = ServeScenario::generate("capacity", master_seed, n_cap, 5, 110, n_cap);
    let overload = ServeScenario::generate(
        "overload",
        mix64(master_seed ^ 0x00E8_10AD),
        n_over,
        0,
        45,
        n_over.saturating_sub(2).max(1),
    );
    vec![
        run_scenario(&capacity, model),
        run_scenario(&overload, model),
    ]
}

/// Replay a scenario file (`repro --replay FILE serve`).
pub fn serve_replay(text: &str, model: &PerformanceModel) -> Result<ServeRow, String> {
    let scn = ServeScenario::decode(text)?;
    Ok(run_scenario(&scn, model))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_encode_decode_roundtrip() {
        let scn = ServeScenario::generate("capacity", 7, 6, 3, 110, 6);
        let text = scn.encode();
        let back = ServeScenario::decode(&text).unwrap();
        assert_eq!(scn, back);
    }

    #[test]
    fn decode_diagnoses_bad_files() {
        let err = ServeScenario::decode("merchsoak 1\n").unwrap_err();
        assert!(err.contains("expected `merchserve`"), "{err}");
        let err = ServeScenario::decode("merchserve 9\n").unwrap_err();
        assert!(err.contains("unsupported merchserve version 9"), "{err}");
        let good = ServeScenario::generate("capacity", 7, 3, 0, 110, 3).encode();
        let bad = good.replace("tenant t1", "tenant");
        let err = ServeScenario::decode(&bad).unwrap_err();
        assert!(err.contains("line") && err.contains("tenant"), "{err}");
    }

    #[test]
    fn decode_rejects_huge_tenant_count() {
        for huge in [u64::MAX, 100_000_000_000] {
            let bad = format!("merchserve 1\nlabel x\nseed 1\npool 10 4\ntenants {huge}\n");
            let err = ServeScenario::decode(&bad).unwrap_err();
            assert!(err.contains("missing `tenant` record"), "{err}");
        }
    }

    #[test]
    fn generated_priorities_are_distinct() {
        let scn = ServeScenario::generate("overload", 3, 8, 0, 45, 6);
        let mut prios: Vec<u8> = scn.tenants.iter().map(|t| t.priority).collect();
        prios.sort_unstable();
        prios.dedup();
        assert_eq!(prios.len(), scn.tenants.len());
    }
}
