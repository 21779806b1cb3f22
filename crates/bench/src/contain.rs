//! `repro contain` — fault-containment sweep over the placement service.
//!
//! Each scenario is a capacity-style tenant mix (everyone admits at full
//! grant) with exactly one designated *victim* tenant running under a
//! scripted in-tenant fault: a panic at a round boundary
//! ([`FaultKind::TenantPanic`](merch_hm::FaultKind::TenantPanic)) or a run
//! of stalled rounds
//! ([`FaultKind::TenantStall`](merch_hm::FaultKind::TenantStall)). The
//! harness runs the scenario once *without* the fault and once *with* it,
//! then checks the containment gates of DESIGN.md §17:
//!
//! 1. **Survivor isolation** — every non-victim tenant's per-round
//!    placement output is bitwise identical (`{:?}` equality) to the
//!    no-fault run, at whatever `--jobs` the sweep runs under. A panicking
//!    or hanging co-tenant must not perturb survivors at all.
//! 2. **Victim outcome** — the panic victim trips its circuit breaker,
//!    recovers through a Half-Open probe from its trip checkpoint, and
//!    completes every declared round; the stall victim re-trips on probe
//!    and ends quarantined after `max_trips`.
//! 3. **Grant re-absorption** — quarantined/tripped grants return to the
//!    pool: zero outstanding grant bytes at the end, and the recovered
//!    panic victim is re-granted its full quota (capacity mode has the
//!    headroom), per the renegotiation accounting.
//! 4. **Replay determinism** — the faulted run, Half-Open recovery
//!    included, reproduces every [`TenantReport`] and per-round output
//!    bit-exactly when rerun.
//!
//! A violation makes `repro` dump a replayable `merchcontain 1` scenario
//! file and exit non-zero (`repro --replay FILE contain` runs it back).

use std::fmt::Write as _;

use merch_hm::service::{PlacementService, ServiceConfig, ServiceReport, TenantJob, TenantStatus};
use merch_hm::{FaultPlan, PAGE_SIZE};
use merchandiser::PerformanceModel;

use crate::replay::FramedReader;
use crate::serve::{mix64, ServeScenario, TenantScenario};

/// The scripted fault injected into the victim tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainFault {
    /// Panic at the boundary before `round` (non-latching: fires on every
    /// attempt until the trip checkpoint's restore disarms it).
    Panic {
        /// Round boundary the panic fires at.
        round: u64,
    },
    /// Stall rounds `round .. round + rounds` by the injector's
    /// `STALL_MULT` latency inflation (survives restore, so probes re-trip).
    Stall {
        /// First stalled round.
        round: u64,
        /// Number of consecutive stalled rounds.
        rounds: u64,
    },
}

impl ContainFault {
    /// The armed fault plan for the victim's executor.
    pub fn plan(&self) -> FaultPlan {
        match *self {
            ContainFault::Panic { round } => FaultPlan::none().with_tenant_panic(round),
            ContainFault::Stall { round, rounds } => {
                FaultPlan::none().with_tenant_stall(round, rounds)
            }
        }
    }
}

/// A containment scenario: a capacity-style tenant mix plus one victim
/// under a scripted fault.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainScenario {
    /// Scenario label (`panic` / `stall` in the generated sweep).
    pub label: String,
    /// Master seed the scenario derives from.
    pub seed: u64,
    /// Shared DRAM pool, pages.
    pub pool_pages: u64,
    /// Admission queue bound.
    pub queue_bound: usize,
    /// Index of the victim tenant in `tenants`.
    pub victim: usize,
    /// The scripted fault the victim runs under.
    pub fault: ContainFault,
    /// Tenant mix, submission order (no chaos co-tenants: the victim is
    /// the only fault source, so survivor divergence is attributable).
    pub tenants: Vec<TenantScenario>,
}

impl ContainScenario {
    /// Generate a deterministic containment scenario. The tenant mix is a
    /// capacity-mode [`ServeScenario`] (pool ≥ sum of quotas, everyone
    /// admits at full grant — the survivor gate needs that); the victim is
    /// the first tenant (from a seeded start) whose workload declares
    /// enough rounds for the fault script to play out.
    pub fn generate(label: &str, master_seed: u64, n_tenants: usize, stall: bool) -> Self {
        let base = ServeScenario::generate(label, master_seed, n_tenants, 0, 115, n_tenants);
        // The stall script needs 3 strikes + a probe re-strike before the
        // workload runs out; the panic script fires at rounds/2 >= 1.
        let min_rounds = 6;
        let start = (mix64(master_seed ^ 0xC011_7A11) % n_tenants as u64) as usize;
        let victim = (0..n_tenants)
            .map(|k| (start + k) % n_tenants)
            .find(|&i| {
                let t = &base.tenants[i];
                t.app.build(t.seed).num_instances() >= min_rounds
            })
            .unwrap_or(start);
        let vt = &base.tenants[victim];
        let rounds_total = vt.app.build(vt.seed).num_instances() as u64;
        let fault = if stall {
            // Stall everything from round 1 on: strikes keep coming after
            // every probe, so the breaker walks to quarantine.
            ContainFault::Stall {
                round: 1,
                rounds: rounds_total,
            }
        } else {
            ContainFault::Panic {
                round: (rounds_total / 2).max(1),
            }
        };
        Self {
            label: base.label,
            seed: base.seed,
            pool_pages: base.pool_pages,
            queue_bound: base.queue_bound,
            victim,
            fault,
            tenants: base.tenants,
        }
    }

    /// Serialize as a replayable scenario file (`merchcontain 1` framing,
    /// shared reader with the soak/serve/device artifacts).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        writeln!(out, "merchcontain 1").expect("writing to String cannot fail");
        writeln!(out, "label {}", self.label).expect("writing to String cannot fail");
        writeln!(out, "seed {}", self.seed).expect("writing to String cannot fail");
        writeln!(out, "pool {} {}", self.pool_pages, self.queue_bound)
            .expect("writing to String cannot fail");
        match self.fault {
            ContainFault::Panic { round } => {
                writeln!(out, "fault {} panic {round}", self.victim)
            }
            ContainFault::Stall { round, rounds } => {
                writeln!(out, "fault {} stall {round} {rounds}", self.victim)
            }
        }
        .expect("writing to String cannot fail");
        writeln!(out, "tenants {}", self.tenants.len()).expect("writing to String cannot fail");
        for t in &self.tenants {
            writeln!(out, "{}", t.encode_line()).expect("writing to String cannot fail");
        }
        out
    }

    /// Parse a scenario file written by [`encode`](Self::encode).
    pub fn decode(text: &str) -> Result<Self, String> {
        let mut r = FramedReader::new("contain scenario", text, "merchcontain", &[1])?;
        let label = r.record("label", 1)?.tok(0, "label")?.to_string();
        let seed = r.record("seed", 1)?.u64(0, "seed")?;
        let pool = r.record("pool", 2)?;
        let pool_pages = pool.u64(0, "pool_pages")?;
        let queue_bound = pool.u64(1, "queue_bound")? as usize;
        let f = r.record("fault", 3)?;
        let victim = f.u64(0, "victim")? as usize;
        let fault = match f.tok(1, "fault_kind")? {
            "panic" => ContainFault::Panic {
                round: f.u64(2, "round")?,
            },
            "stall" => ContainFault::Stall {
                round: f.u64(2, "round")?,
                rounds: f.u64(3, "rounds")?,
            },
            other => {
                return Err(format!(
                    "contain scenario line {}, field `fault_kind`: unknown fault `{other}`",
                    f.line_no
                ))
            }
        };
        // The count is untrusted: no pre-reservation, so a huge value fails
        // on the first missing `tenant` record instead of aborting.
        let n = r.record("tenants", 1)?.u64(0, "tenants")?;
        let mut tenants = Vec::new();
        for _ in 0..n {
            let t = r.record("tenant", 10)?;
            tenants.push(TenantScenario::decode_record(&t)?);
        }
        r.finish()?;
        if victim >= tenants.len() {
            return Err(format!(
                "contain scenario: victim index {victim} out of range for {n} tenants"
            ));
        }
        Ok(Self {
            label,
            seed,
            pool_pages,
            queue_bound,
            victim,
            fault,
            tenants,
        })
    }

    /// Submit every tenant (victim armed when `with_fault`) and drive the
    /// service to completion. `stall_threshold_ns` arms the breaker's
    /// hung-round detector; the panic path needs none.
    fn run_service(
        &self,
        model: &PerformanceModel,
        with_fault: bool,
        stall_threshold_ns: f64,
    ) -> ContainRun {
        let mut config = ServiceConfig::new(self.pool_pages * PAGE_SIZE)
            .with_max_queue(self.queue_bound)
            .with_seed(self.seed);
        if stall_threshold_ns.is_finite() {
            config = config.with_stall_threshold_ns(stall_threshold_ns);
        }
        let mut svc = PlacementService::new(config);
        for (i, t) in self.tenants.iter().enumerate() {
            let mut ex = t.executor(model);
            if with_fault && i == self.victim {
                ex.sys
                    .set_fault_plan(self.fault.plan())
                    .expect("contain fault plans are always valid");
            }
            let job: Box<dyn TenantJob> = Box::new(ex);
            svc.submit(t.spec(), job)
                .expect("generated tenant specs are always valid");
        }
        let report = svc.run();
        let runs: Vec<String> = (0..self.tenants.len())
            .map(|i| {
                format!(
                    "{:?}",
                    svc.tenant_run_report(merch_hm::service::TenantId(i as u32))
                )
            })
            .collect();
        ContainRun {
            report,
            runs,
            outstanding: svc.outstanding_grants(),
        }
    }
}

/// One service drive: rollup, per-tenant round outputs, leftover grants.
struct ContainRun {
    report: ServiceReport,
    runs: Vec<String>,
    outstanding: u64,
}

/// Result of one verified containment scenario.
#[derive(Debug)]
pub struct ContainRow {
    /// The scenario that ran.
    pub scenario: ContainScenario,
    /// The service rollup of the faulted run.
    pub report: ServiceReport,
    /// The victim's breaker trips in the faulted run.
    pub victim_trips: u32,
    /// Gate violations (empty = all invariants hold).
    pub violations: Vec<String>,
}

/// Run one containment scenario and verify every gate.
pub fn run_contain_scenario(scn: &ContainScenario, model: &PerformanceModel) -> ContainRow {
    let mut violations = Vec::new();
    let v = scn.victim;

    // Baseline: the same mix with the victim's fault left unarmed. The
    // stall detector threshold is derived from the victim's own clean
    // round time (deterministic, so replay re-derives the same value):
    // STALL_MULT inflates a stalled round 1024×, so 50× the clean mean
    // separates cleanly at any realistic per-round variance.
    let base = scn.run_service(model, false, f64::INFINITY);
    let stall_threshold_ns = match scn.fault {
        ContainFault::Panic { .. } => f64::INFINITY,
        ContainFault::Stall { .. } => {
            let bt = &base.report.tenants[v];
            50.0 * bt.service_ns / (bt.rounds_done.max(1) as f64)
        }
    };

    let run = scn.run_service(model, true, stall_threshold_ns);

    // Gate 1: survivors are bitwise untouched by the victim's fault.
    for (i, t) in run.report.tenants.iter().enumerate() {
        if i == v {
            continue;
        }
        if run.runs[i] != base.runs[i] {
            violations.push(format!(
                "[{}] survivor_isolation: tenant {} per-round output diverged from the \
                 no-fault run",
                scn.label, t.name
            ));
        }
        if t.breaker_trips != 0 {
            violations.push(format!(
                "[{}] survivor_isolation: tenant {} breaker tripped {} times without a fault",
                scn.label, t.name, t.breaker_trips
            ));
        }
    }

    // Gate 2: victim outcome per fault script.
    let vt = &run.report.tenants[v];
    match scn.fault {
        ContainFault::Panic { .. } => {
            if vt.status != TenantStatus::Completed {
                violations.push(format!(
                    "[{}] victim_outcome: panic victim {} ended {:?}, want Completed via \
                     Half-Open probe",
                    scn.label, vt.name, vt.status
                ));
            }
            if vt.breaker_trips == 0 {
                violations.push(format!(
                    "[{}] victim_outcome: panic victim {} never tripped its breaker",
                    scn.label, vt.name
                ));
            }
            if vt.fault.tenant_panics == 0 {
                violations.push(format!(
                    "[{}] victim_outcome: panic victim {} recorded no contained panics",
                    scn.label, vt.name
                ));
            }
            if vt.status == TenantStatus::Completed && vt.rounds_done != vt.rounds_total {
                violations.push(format!(
                    "[{}] victim_outcome: panic victim {} completed {}/{} rounds",
                    scn.label, vt.name, vt.rounds_done, vt.rounds_total
                ));
            }
            // Gate 3 (panic leg): the probe re-grant restored the full
            // quota — capacity mode guarantees the headroom exists.
            if vt.granted_quota != vt.requested_quota {
                violations.push(format!(
                    "[{}] grant_reabsorption: recovered victim {} holds {} of {} requested \
                     bytes",
                    scn.label, vt.name, vt.granted_quota, vt.requested_quota
                ));
            }
        }
        ContainFault::Stall { .. } => {
            if !matches!(vt.status, TenantStatus::Quarantined { .. }) {
                violations.push(format!(
                    "[{}] victim_outcome: stall victim {} ended {:?}, want Quarantined after \
                     max_trips",
                    scn.label, vt.name, vt.status
                ));
            }
            if vt.breaker_trips < 2 {
                violations.push(format!(
                    "[{}] victim_outcome: stall victim {} tripped {} time(s), want >= max_trips",
                    scn.label, vt.name, vt.breaker_trips
                ));
            }
            if vt.fault.stalled_rounds == 0 {
                violations.push(format!(
                    "[{}] victim_outcome: stall victim {} recorded no stalled rounds",
                    scn.label, vt.name
                ));
            }
            // Gate 3 (stall leg): quarantine released the grant.
            if vt.granted_quota != 0 {
                violations.push(format!(
                    "[{}] grant_reabsorption: quarantined victim {} still holds {} grant bytes",
                    scn.label, vt.name, vt.granted_quota
                ));
            }
        }
    }
    if run.report.tripped != 1 {
        violations.push(format!(
            "[{}] victim_outcome: {} tenants tripped, want exactly the victim",
            scn.label, run.report.tripped
        ));
    }

    // Gate 3: every grant byte is back in the pool once the run drains.
    if run.outstanding != 0 {
        violations.push(format!(
            "[{}] grant_reabsorption: {} grant bytes outstanding after the run drained",
            scn.label, run.outstanding
        ));
    }
    if base.outstanding != 0 {
        violations.push(format!(
            "[{}] grant_reabsorption: {} grant bytes outstanding after the no-fault run",
            scn.label, base.outstanding
        ));
    }

    // Gate 4: the faulted run — trip checkpoints, Half-Open recovery and
    // all — replays bit-exactly.
    let run2 = scn.run_service(model, true, stall_threshold_ns);
    if format!("{:?}", run.report.tenants) != format!("{:?}", run2.report.tenants) {
        violations.push(format!(
            "[{}] replay_determinism: TenantReports diverged across identical faulted runs",
            scn.label
        ));
    }
    if run.runs != run2.runs {
        violations.push(format!(
            "[{}] replay_determinism: per-round outputs diverged across identical faulted runs",
            scn.label
        ));
    }

    ContainRow {
        scenario: scn.clone(),
        victim_trips: run.report.tenants[v].breaker_trips,
        report: run.report,
        violations,
    }
}

/// The `repro contain` sweep: a panic scenario (breaker trip, supervised
/// drain, Half-Open recovery to completion) plus a stall scenario (hung
/// rounds, probe re-trip, quarantine). `smoke` shrinks both for CI.
pub fn contain(model: &PerformanceModel, master_seed: u64, smoke: bool) -> Vec<ContainRow> {
    let n = if smoke { 4 } else { 7 };
    let panic_scn = ContainScenario::generate("panic", master_seed, n, false);
    let stall_scn = ContainScenario::generate("stall", mix64(master_seed ^ 0x57A_11ED), n, true);
    vec![
        run_contain_scenario(&panic_scn, model),
        run_contain_scenario(&stall_scn, model),
    ]
}

/// Replay a scenario file (`repro --replay FILE contain`).
pub fn contain_replay(text: &str, model: &PerformanceModel) -> Result<ContainRow, String> {
    let scn = ContainScenario::decode(text)?;
    Ok(run_contain_scenario(&scn, model))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_encode_decode_roundtrip() {
        for (seed, stall) in [(11u64, false), (12, true)] {
            let scn = ContainScenario::generate("case", seed, 5, stall);
            let back = ContainScenario::decode(&scn.encode()).unwrap();
            assert_eq!(scn, back);
        }
    }

    #[test]
    fn decode_diagnoses_bad_files() {
        let err = ContainScenario::decode("merchserve 1\n").unwrap_err();
        assert!(err.contains("expected `merchcontain`"), "{err}");
        let err = ContainScenario::decode("merchcontain 9\n").unwrap_err();
        assert!(err.contains("unsupported merchcontain version 9"), "{err}");
        let mut scn = ContainScenario::generate("case", 3, 4, false);
        let bad = scn.encode().replace(" panic ", " melt ");
        let err = ContainScenario::decode(&bad).unwrap_err();
        assert!(err.contains("unknown fault `melt`"), "{err}");
        // Victim bounds are checked after the tenant list parses.
        scn.victim = 99;
        let err = ContainScenario::decode(&scn.encode()).unwrap_err();
        assert!(err.contains("victim index 99 out of range"), "{err}");
    }

    #[test]
    fn decode_rejects_huge_tenant_count() {
        for huge in [u64::MAX, 100_000_000_000] {
            let bad = format!(
                "merchcontain 1\nlabel x\nseed 1\npool 10 4\nfault 0 panic 2\ntenants {huge}\n"
            );
            let err = ContainScenario::decode(&bad).unwrap_err();
            assert!(err.contains("missing `tenant` record"), "{err}");
        }
    }

    #[test]
    fn generated_victim_has_enough_rounds() {
        for seed in [7u64, 42] {
            let scn = ContainScenario::generate("case", seed, 5, true);
            let vt = &scn.tenants[scn.victim];
            assert!(vt.app.build(vt.seed).num_instances() >= 6);
            assert!(
                vt.chaos_case.is_none(),
                "victim must be the only fault source"
            );
        }
    }
}
