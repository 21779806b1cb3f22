//! The six workloads and the three ways a pass drives the stack: an
//! executor solo, an executor under the supervised checkpoint loop, and a
//! tenant mix through the placement service.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

use merch_hm::runtime::{Executor, RunReport};
use merch_hm::service::{
    PlacementService, ServiceConfig, SubmitOutcome, TenantId, TenantSpec, TenantStatus,
};
use merch_hm::Wal;

use crate::inputs::{self, debug_hash, AppKind, Member, Scale, ServiceShape, Setup};
use crate::trace::{Tracer, NO_ROUND, ROOT};
use crate::wrap::{StepSamples, TimedJob};

/// A workload's name and the one-line reason it is in the benchmark.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "solo_regular",
        why: "WarpX and DMRG solo under Merchandiser: DMRG's one-extent-per-page table makes per-page lookups in before_round the largest cost",
    },
    WorkloadDef {
        name: "solo_irregular",
        why: "SpGEMM, BFS and NWChem-TC solo: largest tables and migration volumes, so claim, top-k and migrate_pages do the work on a coalesced table",
    },
    WorkloadDef {
        name: "wide_plan",
        why: "256 tasks on 16-page objects with sizes changing every second round: Algorithm 1 and model inference are exercised, the page engine is bypassed",
    },
    WorkloadDef {
        name: "supervised_irregular",
        why: "solo_irregular under checkpoint and WAL append at every round boundary with one mid-run crash and resume: the same layers, used for writing state too",
    },
    WorkloadDef {
        name: "serve_apps",
        why: "the five paper apps twice as ten Merchandiser tenants on two thirds of their asked DRAM: tenant rounds dominate, policies plan under squeezed grants",
    },
    WorkloadDef {
        name: "serve_small",
        why: "400 two-task tenants of 3 to 6 microsecond-scale rounds under static policies: admission, scheduling, pipes and retirement are the work",
    },
];

/// How a workload's passes drive its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Solo,
    Supervised,
    Service,
}

/// A workload with its set-up done.
pub struct Bench {
    pub name: &'static str,
    pub kind: Kind,
    pub seed: u64,
    pub scale: Scale,
    pub setup: Setup,
    /// The units one cycle runs, in order. A unit is a member for `Solo` and
    /// `Supervised` and the whole tenant mix (unit 0) for `Service`. A short
    /// member appears several times, so each member gets a similar share of
    /// the window and no round is left with a handful of samples.
    pub cycle: Vec<usize>,
    /// Where WAL and trace files go.
    pub out_dir: PathBuf,
}

/// Set up workload `name`; `None` for a name that is not a workload.
pub fn build(name: &str, seed: u64, scale: Scale, out_dir: &Path) -> Option<Bench> {
    use AppKind::*;
    let (name, kind, setup, cycle) = match name {
        "solo_regular" => (
            WORKLOADS[0].name,
            Kind::Solo,
            inputs::setup_solo_apps(&[Warpx, Dmrg], seed, scale),
            vec![0, 0, 1, 0, 0],
        ),
        "solo_irregular" => (
            WORKLOADS[1].name,
            Kind::Solo,
            inputs::setup_solo_apps(&[Spgemm, Bfs, NwchemTc], seed, scale),
            vec![0, 1, 1, 2, 1, 1],
        ),
        "wide_plan" => (
            WORKLOADS[2].name,
            Kind::Solo,
            inputs::setup_solo_apps(&[WidePlan], seed, scale),
            vec![0],
        ),
        "supervised_irregular" => (
            WORKLOADS[3].name,
            Kind::Supervised,
            inputs::setup_solo_apps(&[Spgemm, Bfs, NwchemTc], seed, scale),
            vec![0, 1, 1, 2],
        ),
        "serve_apps" => (
            WORKLOADS[4].name,
            Kind::Service,
            inputs::setup_serve_apps(seed, scale),
            vec![0],
        ),
        "serve_small" => (
            WORKLOADS[5].name,
            Kind::Service,
            inputs::setup_serve_small(seed, scale),
            vec![0],
        ),
        _ => return None,
    };
    Some(Bench {
        name,
        kind,
        seed,
        scale,
        setup,
        cycle,
        out_dir: out_dir.to_path_buf(),
    })
}

/// Simulated outcome of one executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOut {
    pub total_ns: f64,
    pub pm_total_ns: f64,
    pub acv: f64,
}

/// Exact counts of one pass, summed over its executors.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub migrated_pages: u64,
    pub migration_attempts: u64,
    pub epoch_commits: u64,
    pub epoch_rollbacks: u64,
    pub degraded_rounds: u64,
    pub wal_records: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.migrated_pages += o.migrated_pages;
        self.migration_attempts += o.migration_attempts;
        self.epoch_commits += o.epoch_commits;
        self.epoch_rollbacks += o.epoch_rollbacks;
        self.degraded_rounds += o.degraded_rounds;
        self.wal_records += o.wal_records;
    }

    fn add_report(&mut self, r: &RunReport) {
        self.migrated_pages += r.total_migration_pages();
        self.migration_attempts += r.rounds.iter().map(|x| x.migration_attempts).sum::<u64>();
        self.epoch_commits += r.epoch_commits;
        self.epoch_rollbacks += r.epoch_rollbacks;
        self.degraded_rounds += r.fault.degraded_rounds;
    }
}

/// What the service layer did in one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceOut {
    pub run_wall_ms: f64,
    pub busy_ms: f64,
    pub submit_us_per_tenant: f64,
    pub admitted: u64,
    pub queued: u64,
    pub squeezed: u64,
    pub shed: u64,
    pub quarantined: u64,
    pub jain: f64,
}

/// Everything one pass yields.
#[derive(Debug, Clone, Default)]
pub struct PassOut {
    /// Host wall of the pass: construct, submit, run. Hashing the reports
    /// for the output check happens after the clock stops.
    pub wall_s: f64,
    pub rounds: u64,
    pub submitted: u64,
    pub failed: u64,
    /// Host wall of each round, ms: one vector per executor of the pass.
    pub round_ms: Vec<Vec<f64>>,
    /// `(label, {:?} hash)` of every report the pass produced.
    pub outputs: Vec<(String, u64)>,
    pub sims: Vec<SimOut>,
    pub counts: Counts,
    pub service: Option<ServiceOut>,
    pub errors: Vec<String>,
}

impl PassOut {
    /// Operations attempted: rounds stepped plus tenants submitted.
    pub fn attempted(&self) -> u64 {
        self.rounds + self.submitted
    }
}

impl Bench {
    /// Number of distinct units a cycle draws from.
    pub fn units(&self) -> usize {
        match self.kind {
            Kind::Service => 1,
            _ => self.setup.members.len(),
        }
    }

    pub fn unit_label(&self, unit: usize) -> &str {
        match self.kind {
            Kind::Service => "service",
            _ => &self.setup.members[unit].label,
        }
    }

    /// Run one pass of `unit`.
    pub fn pass(&self, unit: usize, tracer: &Option<Arc<Tracer>>) -> PassOut {
        match self.kind {
            Kind::Solo => self.solo_pass(unit, tracer),
            Kind::Supervised => self.supervised_pass(unit, tracer),
            Kind::Service => {
                let (tenants, shape) = self.tenants();
                self.service_pass(&tenants, shape, tracer)
            }
        }
    }

    /// The members as tenants `(member index, contract)` and the service
    /// they are submitted to. A solo workload's executors get the DRAM they
    /// have when they run solo, on a pool that holds them all: the shape the
    /// service probe of the traced run uses.
    pub fn tenants(&self) -> (Vec<(usize, TenantSpec)>, ServiceShape) {
        let tenants: Vec<(usize, TenantSpec)> = self
            .setup
            .members
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let spec = m.tenant.clone().unwrap_or_else(|| {
                    TenantSpec::new(m.label.clone(), m.rec.config.dram.capacity)
                        .with_priority(i as u8)
                });
                (i, spec)
            })
            .collect();
        let shape = self.setup.service.unwrap_or(ServiceShape {
            pool_bytes: tenants.iter().map(|(_, s)| s.dram_quota).sum(),
            seed: self.seed,
        });
        (tenants, shape)
    }

    fn finish_solo(&self, m: &Member, report: &RunReport, out: &mut PassOut) {
        out.outputs.push((m.label.clone(), debug_hash(report)));
        out.sims.push(SimOut {
            total_ns: report.total_time_ns(),
            pm_total_ns: m.pm_total_ns,
            acv: report.acv(),
        });
        out.counts.add_report(report);
    }

    /// One executor from construction to its last round.
    fn solo_pass(&self, unit: usize, tracer: &Option<Arc<Tracer>>) -> PassOut {
        let m = &self.setup.members[unit];
        let idx = unit as u32;
        let mut out = PassOut::default();
        let mut round_ms = Vec::with_capacity(m.rec.rounds());
        let t0 = Instant::now();
        let root = tracer.as_ref().map(|t| t.span(ROOT, idx, NO_ROUND));
        let mut ex = {
            let _s = tracer
                .as_ref()
                .map(|t| t.span("hm.runtime.executor_new", idx, NO_ROUND));
            m.executor(self.setup.model.as_ref(), tracer.clone(), idx)
        };
        while ex.next_round() < m.rec.rounds() {
            let round = ex.next_round() as i32;
            let _s = tracer
                .as_ref()
                .map(|t| t.span("hm.runtime.step", idx, round));
            let t = Instant::now();
            match ex.step() {
                Ok(_) => round_ms.push(t.elapsed().as_secs_f64() * 1e3),
                Err(e) => {
                    out.failed += 1;
                    out.errors.push(format!("{}: round {round}: {e}", m.label));
                    break;
                }
            }
        }
        drop(root);
        out.wall_s = t0.elapsed().as_secs_f64();
        out.rounds = round_ms.len() as u64;
        out.round_ms = vec![round_ms];
        self.finish_solo(m, &ex.report(), &mut out);
        out
    }

    /// The `run_supervised` loop written out with the public calls — a
    /// checkpoint appended to the WAL at every round boundary — plus the
    /// crash it exists for: at the boundary before the middle round the
    /// driver drops the executor, which is all a between-rounds crash leaves
    /// behind, and resumes from the WAL's last record. No fault plan is
    /// armed, so the page engine stays on the paths `solo_irregular` takes
    /// and the difference between the two workloads is the checkpoint layer.
    ///
    /// A round sample here is the step plus the boundary that makes it
    /// durable; the round after the crash also carries the recovery.
    fn supervised_pass(&self, unit: usize, tracer: &Option<Arc<Tracer>>) -> PassOut {
        let m = &self.setup.members[unit];
        let idx = unit as u32;
        let model = self.setup.model.as_ref();
        let span =
            |name: &'static str, round: i32| tracer.as_ref().map(|t| t.span(name, idx, round));
        let path = self.out_dir.join(format!("wal-{}.wal", m.label));
        let mut out = PassOut::default();
        let mut round_ms = Vec::with_capacity(m.rec.rounds());
        let t0 = Instant::now();
        let root = span(ROOT, NO_ROUND);
        let body = (|| -> Result<RunReport, String> {
            let mut wal = Wal::create(&path).map_err(|e| e.to_string())?;
            let mut ex = {
                let _s = span("hm.runtime.executor_new", NO_ROUND);
                m.executor(model, tracer.clone(), idx)
            };
            let mut boundary = |ex: &crate::wrap::Exec, round: i32| -> Result<(), String> {
                let ck = {
                    let _s = span("hm.checkpoint.snapshot", round);
                    ex.checkpoint()
                };
                let _s = span("hm.checkpoint.wal_append", round);
                wal.append(&ck, ex.sys.fault_injector())
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            };
            boundary(&ex, NO_ROUND)?;
            let rounds = m.rec.rounds();
            let crash_at = (rounds / 2).max(1);
            let mut crashed = false;
            while ex.next_round() < rounds {
                let round = ex.next_round();
                let t = Instant::now();
                if round == crash_at && !crashed {
                    crashed = true;
                    let _s = span("hm.checkpoint.recover", round as i32);
                    let ck = Wal::latest(&path)
                        .map_err(|e| e.to_string())?
                        .ok_or("the WAL holds no record to resume from")?;
                    let (workload, policy) = m.resume_parts(model, tracer.clone(), idx);
                    ex = Executor::resume(ck, workload, policy).map_err(|e| e.to_string())?;
                    if ex.next_round() != round {
                        return Err(format!(
                            "resumed at round {} instead of {round}",
                            ex.next_round()
                        ));
                    }
                }
                {
                    let _s = span("hm.runtime.step", round as i32);
                    ex.step().map_err(|e| format!("round {round}: {e}"))?;
                }
                boundary(&ex, round as i32)?;
                round_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            out.counts.wal_records = wal.stats.records_appended;
            Ok(ex.report())
        })();
        drop(root);
        out.wall_s = t0.elapsed().as_secs_f64();
        out.rounds = round_ms.len() as u64;
        out.round_ms = vec![round_ms];
        match body {
            Ok(report) => self.finish_solo(m, &report, &mut out),
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("{}: {e}", m.label));
            }
        }
        out
    }

    /// Submit `tenants` (member index, contract) to a fresh service and run
    /// it to the end.
    pub fn service_pass(
        &self,
        tenants: &[(usize, TenantSpec)],
        shape: ServiceShape,
        tracer: &Option<Arc<Tracer>>,
    ) -> PassOut {
        let mut out = PassOut::default();
        let t0 = Instant::now();
        let root = tracer.as_ref().map(|t| t.span(ROOT, 0, NO_ROUND));
        // A queue as long as the mix: every tenant is admitted in the end.
        let config = ServiceConfig::new(shape.pool_bytes)
            .with_seed(shape.seed)
            .with_max_queue(tenants.len().max(1));
        let mut svc = PlacementService::new(config);
        let run_span = Arc::new(AtomicU32::new(0));
        let mut samples: Vec<StepSamples> = Vec::with_capacity(tenants.len());
        let mut submit_ns = 0u64;
        for (i, spec) in tenants {
            let idx = *i as u32;
            let ex =
                self.setup.members[*i].executor(self.setup.model.as_ref(), tracer.clone(), idx);
            let s = StepSamples::default();
            samples.push(s.clone());
            let job = TimedJob::new(ex, s, tracer.clone(), run_span.clone(), idx);
            let _s = tracer
                .as_ref()
                .map(|t| t.span("hm.service.submit", idx, NO_ROUND));
            let t = Instant::now();
            let outcome = svc.submit(spec.clone(), Box::new(job));
            submit_ns += t.elapsed().as_nanos() as u64;
            out.submitted += 1;
            if !matches!(outcome, Ok(SubmitOutcome::Enqueued(_))) {
                out.failed += 1;
                out.errors
                    .push(format!("{}: submission refused: {outcome:?}", spec.name));
            }
        }
        let run_t = Instant::now();
        let report = {
            let s = tracer
                .as_ref()
                .map(|t| t.span("hm.service.run", 0, NO_ROUND));
            // SeqCst pairs with the load in `TimedJob::step`.
            run_span.store(s.as_ref().map_or(0, |s| s.id()), Ordering::SeqCst);
            svc.run()
        };
        let run_wall_ms = run_t.elapsed().as_secs_f64() * 1e3;
        drop(root);
        out.wall_s = t0.elapsed().as_secs_f64();

        out.round_ms = samples
            .iter()
            .map(|s| s.lock().expect("every tenant thread has finished").clone())
            .collect();
        out.rounds = report.tenants.iter().map(|t| t.rounds_done).sum();
        for t in &report.tenants {
            if t.status != TenantStatus::Completed {
                out.failed += 1;
                out.errors
                    .push(format!("{}: ended {:?}, not Completed", t.name, t.status));
            }
        }
        if report.quota_violations != 0 {
            out.failed += report.quota_violations;
            out.errors
                .push(format!("{} quota violations", report.quota_violations));
        }
        let mut all = String::new();
        for (k, (i, _)) in tenants.iter().enumerate() {
            let r = svc.tenant_run_report(TenantId(k as u32));
            out.sims.push(SimOut {
                total_ns: r.total_time_ns(),
                pm_total_ns: self.setup.members[*i].pm_total_ns,
                acv: r.acv(),
            });
            out.counts.add_report(&r);
            all.push_str(&format!("{:016x}\n", debug_hash(&r)));
        }
        out.outputs.push(("service".into(), debug_hash(&report)));
        out.outputs.push((
            "tenants".into(),
            merch_hm::checkpoint::fnv1a64(all.as_bytes()),
        ));
        out.service = Some(ServiceOut {
            run_wall_ms,
            busy_ms: out.round_ms.iter().flatten().sum(),
            submit_us_per_tenant: submit_ns as f64 / 1e3 / tenants.len().max(1) as f64,
            admitted: report.admitted,
            queued: report.tenants.iter().filter(|t| t.wait_ns > 0.0).count() as u64,
            squeezed: report.squeezed,
            shed: report.shed,
            quarantined: report.quarantined,
            jain: report.fairness_jain,
        });
        out
    }
}
