//! Set-up: everything a workload needs before its first timed pass, made
//! from the seed — the trained correlation function, the applications, one
//! live run of each (which records the inputs the timed passes replay), and
//! the PM-only reference runs the simulated speed-up is taken against.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use merch_apps::{BfsApp, DmrgApp, HpcApp, NwchemTcApp, SpgemmApp, WarpxApp};
use merch_hm::runtime::{Executor, RunReport, StaticPolicy};
use merch_hm::service::TenantSpec;
use merch_hm::{
    HmConfig, HmSystem, ObjectAccess, ObjectSpec, Phase, TaskWork, Tier, Workload, PAGE_SIZE,
};
use merch_patterns::{AccessPattern, AccessStmt, IndexExpr, KernelIr, LoopNest, ObjectPatternMap};
use merchandiser::training::{
    build_training_dataset, generate_code_samples, train_correlation_function, TrainingOptions,
};
use merchandiser::{MerchandiserPolicy, PerformanceModel};

use crate::trace::Tracer;
use crate::wrap::{Exec, PolicyObj, Recorded, Recording, Tee, TracedPolicy};

/// `Full` is what is measured; `Smoke` shrinks every input so the whole
/// suite, with every check on, runs in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// splitmix64 finalizer: the seeded-draw idiom of this repository.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` keyed on `(seed, i)`.
fn u01(seed: u64, i: u64) -> f64 {
    (mix64(seed ^ i.wrapping_mul(0xA24B_AED4_963E_E407)) >> 11) as f64 / (1u64 << 53) as f64
}

/// The quick offline phase of `repro --quick`: 70 code samples, GBR only.
pub fn train(seed: u64, scale: Scale) -> PerformanceModel {
    let n = match scale {
        Scale::Full => 70,
        Scale::Smoke => 24,
    };
    let samples = generate_code_samples(n, seed);
    let dataset = build_training_dataset(&HmConfig::default(), &samples, 10, seed ^ 0xD5);
    let opts = TrainingOptions {
        include_mlp: false,
        include_all_models: false,
        selected_events: 8,
        mlp_epochs: 60,
    };
    train_correlation_function(&dataset, &opts, seed ^ 0x7A).model
}

/// The applications a workload can run: the five of the paper's evaluation
/// and the synthetic [`WidePlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    Spgemm,
    Warpx,
    Bfs,
    Dmrg,
    NwchemTc,
    WidePlan,
}

impl AppKind {
    /// The paper's five.
    pub const PAPER: [AppKind; 5] = [
        AppKind::Spgemm,
        AppKind::Warpx,
        AppKind::Bfs,
        AppKind::Dmrg,
        AppKind::NwchemTc,
    ];

    /// Build the application's input from `seed`. Full scale is each
    /// application's `default_scaled` input, except DMRG: its table is one
    /// extent per page and a run costs host time quadratic in pages (6 s at
    /// the default 8k pages), so it runs at 2.6k pages — the same shape,
    /// sized so a pass fits several times into one measurement window.
    pub fn build(self, seed: u64, scale: Scale) -> Box<dyn HpcApp> {
        match (self, scale) {
            (AppKind::Spgemm, Scale::Full) => Box::new(SpgemmApp::default_scaled(seed)),
            (AppKind::Spgemm, Scale::Smoke) => Box::new(SpgemmApp::new(9, 8, 12, 5, seed)),
            (AppKind::Warpx, Scale::Full) => Box::new(WarpxApp::default_scaled(seed)),
            (AppKind::Warpx, Scale::Smoke) => Box::new(WarpxApp::new(3, 2, 512, 20_000, 5, seed)),
            (AppKind::Bfs, Scale::Full) => Box::new(BfsApp::default_scaled(seed)),
            (AppKind::Bfs, Scale::Smoke) => Box::new(BfsApp::new(12, 12, 12, 4, seed)),
            (AppKind::Dmrg, Scale::Full) => Box::new(DmrgApp::new(
                vec![300, 350, 400, 450, 380, 320],
                56,
                14,
                seed,
            )),
            (AppKind::Dmrg, Scale::Smoke) => {
                Box::new(DmrgApp::new(vec![120, 160, 200, 140], 32, 5, seed))
            }
            (AppKind::NwchemTc, Scale::Full) => Box::new(NwchemTcApp::default_scaled(seed)),
            (AppKind::NwchemTc, Scale::Smoke) => {
                Box::new(NwchemTcApp::new(12, 120, 120, 240, 24, 4, seed))
            }
            (AppKind::WidePlan, _) => Box::new(WidePlan::new(seed, scale)),
        }
    }
}

/// The synthetic wide workload: many tasks, each streaming over and
/// gathering from a small private object, with per-task work drawn from the
/// seed and input sizes that change every second round — so Algorithm 1 and
/// the model plan for hundreds of tasks, half the plans from a cold curve
/// cache, while the page engine has little to move.
pub struct WidePlan {
    tasks: usize,
    rounds: usize,
    obj_pages: u64,
    /// Per-task work factor.
    work: Vec<f64>,
    /// Per-task share of gathers among the accesses.
    gather: Vec<f64>,
}

impl WidePlan {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (tasks, rounds) = match scale {
            Scale::Full => (256, 12),
            Scale::Smoke => (32, 4),
        };
        Self {
            tasks,
            rounds,
            obj_pages: 16,
            work: (0..tasks as u64)
                .map(|t| 0.5 + 1.5 * u01(seed, t))
                .collect(),
            gather: (0..tasks as u64)
                .map(|t| 0.2 + 0.8 * u01(seed ^ 0x6A7, t))
                .collect(),
        }
    }

    /// Share of the allocation the round's input uses: a new level every
    /// second round.
    fn fill(round: usize) -> f64 {
        0.55 + 0.45 * (((round / 2) * 7 + 3) % 5) as f64 / 4.0
    }
}

impl HpcApp for WidePlan {
    /// DRAM holds a quarter of the working set.
    fn recommended_config(&self) -> HmConfig {
        let ws = self.tasks as u64 * self.obj_pages * PAGE_SIZE;
        HmConfig::calibrated(ws / 4 + PAGE_SIZE, ws * 4)
    }
}

impl Workload for WidePlan {
    fn name(&self) -> &str {
        "wide-plan"
    }
    fn object_specs(&self) -> Vec<ObjectSpec> {
        (0..self.tasks)
            .map(|t| {
                // No hot-page skew: uniform weights keep each object one
                // extent, so the page engine has nothing to look up page
                // by page.
                ObjectSpec::new(&format!("obj{t}"), self.obj_pages * PAGE_SIZE).owned_by(t)
            })
            .collect()
    }
    fn num_tasks(&self) -> usize {
        self.tasks
    }
    fn num_instances(&self) -> usize {
        self.rounds
    }
    fn object_sizes(&self, round: usize) -> Vec<(String, u64)> {
        let bytes = (self.obj_pages as f64 * PAGE_SIZE as f64 * Self::fill(round)) as u64;
        (0..self.tasks)
            .map(|t| (format!("obj{t}"), bytes))
            .collect()
    }
    fn instance(&mut self, round: usize, sys: &HmSystem) -> Vec<TaskWork> {
        (0..self.tasks)
            .map(|t| {
                let obj = sys
                    .object_by_name(&format!("obj{t}"))
                    .expect("the executor allocated every object_specs entry");
                let n = 4e4 * self.work[t] * Self::fill(round);
                TaskWork::new(t).with_phase(
                    Phase::new("kernel", n * 2.0)
                        .with_access(ObjectAccess::new(obj, n, 8, AccessPattern::Stream, 0.2))
                        .with_access(ObjectAccess::new(
                            obj,
                            n * self.gather[t],
                            8,
                            AccessPattern::Random,
                            0.0,
                        )),
                )
            })
            .collect()
    }
    fn kernel_ir(&self) -> KernelIr {
        // for i { s += obj[i]; s += obj[idx[i]] }
        KernelIr::new("wide-plan").with_loop(LoopNest {
            name: "kernel".into(),
            depth: 1,
            input_dependent_bounds: false,
            body: vec![
                AccessStmt::read(
                    "obj",
                    IndexExpr::Affine {
                        stride: 1,
                        offset: 0,
                    },
                    8,
                ),
                AccessStmt::read(
                    "obj",
                    IndexExpr::Indirect {
                        index_object: "obj".into(),
                    },
                    8,
                ),
            ],
        })
    }
}

/// A tenant of `serve_small`: two tasks, each streaming over a private
/// 8-page object — the skewed test workload of `merch-hm` with the tasks'
/// work drawn from the seed, so the simulated metrics differ between seeds.
struct SmallTenant {
    rounds: usize,
    accesses: [f64; 2],
}

impl Workload for SmallTenant {
    fn name(&self) -> &str {
        "small"
    }
    fn object_specs(&self) -> Vec<ObjectSpec> {
        (0..2)
            .map(|t| ObjectSpec::new(&format!("obj{t}"), 8 * PAGE_SIZE).owned_by(t))
            .collect()
    }
    fn num_tasks(&self) -> usize {
        2
    }
    fn num_instances(&self) -> usize {
        self.rounds
    }
    fn instance(&mut self, _round: usize, sys: &HmSystem) -> Vec<TaskWork> {
        (0..2)
            .map(|t| {
                let obj = sys
                    .object_by_name(&format!("obj{t}"))
                    .expect("the executor allocated every object_specs entry");
                TaskWork::new(t).with_phase(Phase::new("work", 0.0).with_access(ObjectAccess::new(
                    obj,
                    self.accesses[t],
                    8,
                    AccessPattern::Stream,
                    0.2,
                )))
            })
            .collect()
    }
}

/// Which policy a member runs under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicySpec {
    Merchandiser { seed: u64 },
    Static(Tier),
}

impl PolicySpec {
    /// Merchandiser with the policy seed `repro` derives from a run's seed.
    fn solo(seed: u64) -> Self {
        PolicySpec::Merchandiser { seed: seed ^ 0x3E }
    }

    fn build(
        self,
        model: Option<&PerformanceModel>,
        pattern_map: &ObjectPatternMap,
        reuse_hints: &BTreeMap<String, f64>,
    ) -> Box<dyn PolicyObj> {
        match self {
            PolicySpec::Merchandiser { seed } => Box::new(MerchandiserPolicy::new(
                model
                    .expect("set-up trains a model for every Merchandiser member")
                    .clone(),
                pattern_map.clone(),
                reuse_hints.clone(),
                seed,
            )),
            PolicySpec::Static(tier) => Box::new(StaticPolicy { tier }),
        }
    }
}

/// One executor a workload runs: solo, or as a tenant of the service.
pub struct Member {
    pub label: String,
    pub rec: Arc<Recording>,
    pub policy: PolicySpec,
    pub sys_seed: u64,
    /// Simulated total of the PM-only run on the same inputs, ns.
    pub pm_total_ns: f64,
    /// `{:?}` hash of the live run's report, which every solo replay must
    /// reproduce. `None` for tenants: they run under a grant the live run
    /// did not have.
    pub live_hash: Option<u64>,
    pub tenant: Option<TenantSpec>,
}

impl Member {
    /// A fresh executor over the recorded inputs.
    pub fn executor(
        &self,
        model: Option<&PerformanceModel>,
        tracer: Option<Arc<Tracer>>,
        idx: u32,
    ) -> Exec {
        let policy = self
            .policy
            .build(model, &self.rec.pattern_map, &self.rec.reuse_hints);
        Executor::new(
            HmSystem::new(self.rec.config.clone(), self.sys_seed),
            Recorded::new(self.rec.clone(), tracer.clone(), idx),
            TracedPolicy::new(policy, tracer, idx),
        )
    }

    /// The resumable parts of [`executor`](Self::executor): what
    /// `Executor::resume` takes besides the checkpoint.
    pub fn resume_parts(
        &self,
        model: Option<&PerformanceModel>,
        tracer: Option<Arc<Tracer>>,
        idx: u32,
    ) -> (Recorded, TracedPolicy) {
        let policy = self
            .policy
            .build(model, &self.rec.pattern_map, &self.rec.reuse_hints);
        (
            Recorded::new(self.rec.clone(), tracer.clone(), idx),
            TracedPolicy::new(policy, tracer, idx),
        )
    }
}

/// `{:?}` hash of a report: the output check compares these.
pub fn debug_hash<T: std::fmt::Debug>(v: &T) -> u64 {
    merch_hm::checkpoint::fnv1a64(format!("{v:?}").as_bytes())
}

/// Host times of the set-up's own layers (reported by the traced run).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub train_ms: f64,
    pub build_ms: f64,
    pub instance_ms: f64,
    pub instance_rounds: u64,
    pub classify_us: f64,
    pub classify_calls: u64,
}

/// Shape of the service a `serve_*` workload submits its members to.
#[derive(Debug, Clone, Copy)]
pub struct ServiceShape {
    pub pool_bytes: u64,
    pub seed: u64,
}

/// Everything set-up leaves behind.
pub struct Setup {
    pub model: Option<PerformanceModel>,
    pub members: Vec<Member>,
    pub service: Option<ServiceShape>,
    pub times: SetupTimes,
}

/// One live run of `app` under `policy`: the reference report and the
/// recording the timed passes replay.
fn record_live<W: Workload>(
    app: W,
    config: HmConfig,
    policy: PolicySpec,
    sys_seed: u64,
    model: Option<&PerformanceModel>,
    times: &mut SetupTimes,
) -> (Arc<Recording>, RunReport) {
    let t = Instant::now();
    let pattern_map = merch_patterns::classify_kernel(&app.kernel_ir());
    times.classify_us += t.elapsed().as_secs_f64() * 1e6;
    times.classify_calls += 1;
    let policy = policy.build(model, &pattern_map, &app.reuse_hints());
    let mut ex = Executor::new(
        HmSystem::new(config.clone(), sys_seed),
        Tee::new(app),
        policy,
    );
    let report = ex.run();
    times.instance_ms += ex.workload.instance_ns as f64 / 1e6;
    times.instance_rounds += report.rounds.len() as u64;
    (
        Arc::new(ex.workload.into_recording(config, pattern_map)),
        report,
    )
}

/// Simulated total of the PM-only run over a recording, ns.
fn pm_only_total_ns(rec: &Arc<Recording>, sys_seed: u64) -> f64 {
    Executor::new(
        HmSystem::new(rec.config.clone(), sys_seed),
        Recorded::new(rec.clone(), None, 0),
        StaticPolicy { tier: Tier::Pm },
    )
    .run()
    .total_time_ns()
}

/// Build, run live and record `apps`, each solo under Merchandiser.
fn record_apps(
    apps: &[AppKind],
    seed: u64,
    scale: Scale,
    model: &PerformanceModel,
    times: &mut SetupTimes,
) -> Vec<(Arc<Recording>, RunReport)> {
    apps.iter()
        .map(|kind| {
            let t = Instant::now();
            let app = kind.build(seed, scale);
            times.build_ms += t.elapsed().as_secs_f64() * 1e3;
            let config = app.recommended_config();
            record_live(
                app,
                config,
                PolicySpec::solo(seed),
                seed,
                Some(model),
                times,
            )
        })
        .collect()
}

fn timed_train(seed: u64, scale: Scale, times: &mut SetupTimes) -> PerformanceModel {
    let t = Instant::now();
    let model = train(seed, scale);
    times.train_ms = t.elapsed().as_secs_f64() * 1e3;
    model
}

/// Applications solo under Merchandiser (`solo_*`, `wide_plan`,
/// `supervised_*`).
pub fn setup_solo_apps(apps: &[AppKind], seed: u64, scale: Scale) -> Setup {
    let mut times = SetupTimes::default();
    let model = timed_train(seed, scale, &mut times);
    let members = record_apps(apps, seed, scale, &model, &mut times)
        .into_iter()
        .map(|(rec, live)| Member {
            label: rec.name.clone(),
            pm_total_ns: pm_only_total_ns(&rec, seed),
            rec,
            policy: PolicySpec::solo(seed),
            sys_seed: seed,
            live_hash: Some(debug_hash(&live)),
            tenant: None,
        })
        .collect();
    Setup {
        model: Some(model),
        members,
        service: None,
        times,
    }
}

/// The five applications twice over as Merchandiser tenants with distinct
/// priorities and weights, on a pool of two thirds of what they ask for
/// (`serve_apps`). Both copies of an application replay one recording and
/// differ in policy seed, system seed and contract.
pub fn setup_serve_apps(seed: u64, scale: Scale) -> Setup {
    let mut times = SetupTimes::default();
    let model = timed_train(seed, scale, &mut times);
    let recs = record_apps(&AppKind::PAPER, seed, scale, &model, &mut times);
    let mut members = Vec::new();
    let mut asked = 0u64;
    for k in 0..2 * recs.len() as u64 {
        let rec = recs[k as usize % recs.len()].0.clone();
        let copy = k / recs.len() as u64;
        let quota = rec.config.dram.capacity;
        asked += quota;
        let sys_seed = seed ^ (k << 8);
        members.push(Member {
            label: format!("t{k}-{}", rec.name),
            pm_total_ns: pm_only_total_ns(&rec, sys_seed),
            policy: PolicySpec::solo(seed ^ (copy << 16)),
            sys_seed,
            live_hash: None,
            tenant: Some(
                TenantSpec::new(format!("t{k}-{}", rec.name), quota)
                    .with_min_quota(quota / 4)
                    .with_weight(1 + (k % 3) as u32)
                    .with_priority(k as u8),
            ),
            rec,
        });
    }
    Setup {
        model: Some(model),
        members,
        service: Some(ServiceShape {
            pool_bytes: asked / 3 * 2,
            seed,
        }),
        times,
    }
}

/// Hundreds of two-task tenants of a few rounds each on 8-page objects
/// under static policies — the `serve_scale` mix of the legacy registry
/// without its fault plans — so admission, scheduling and retirement are
/// the work (`serve_small`).
pub fn setup_serve_small(seed: u64, scale: Scale) -> Setup {
    let n = match scale {
        Scale::Full => 400u64,
        Scale::Smoke => 40,
    };
    let mut times = SetupTimes::default();
    let quota_pages = 16u64;
    let members = (0..n)
        .map(|i| {
            let t = Instant::now();
            let app = SmallTenant {
                rounds: 3 + (i % 4) as usize,
                accesses: [0, 1]
                    .map(|t| 1e5 * (t + 1) as f64 * (0.75 + 0.5 * u01(seed, 2 * i + t))),
            };
            times.build_ms += t.elapsed().as_secs_f64() * 1e3;
            let config = HmConfig::calibrated(64 * PAGE_SIZE, 1024 * PAGE_SIZE);
            let sys_seed = seed ^ i;
            // The live run is the PM-only run.
            let (rec, live) = record_live(
                app,
                config,
                PolicySpec::Static(Tier::Pm),
                sys_seed,
                None,
                &mut times,
            );
            Member {
                label: format!("t{i}"),
                pm_total_ns: live.total_time_ns(),
                rec,
                policy: PolicySpec::Static(if u01(seed ^ 0x71E2, i) < 0.5 {
                    Tier::Dram
                } else {
                    Tier::Pm
                }),
                sys_seed,
                live_hash: None,
                tenant: Some(
                    TenantSpec::new(format!("t{i}"), quota_pages * PAGE_SIZE)
                        .with_min_quota((4 + i % 8) * PAGE_SIZE)
                        .with_weight(1 + (i % 4) as u32)
                        .with_priority((i % 8) as u8),
                ),
            }
        })
        .collect();
    Setup {
        model: None,
        members,
        service: Some(ServiceShape {
            pool_bytes: quota_pages * (n * 2 / 3).max(1) * PAGE_SIZE,
            seed,
        }),
        times,
    }
}
