//! The experiment implementations, one per table/figure (see DESIGN.md's
//! per-experiment index).

use std::collections::BTreeMap;

use merch_apps::{all_apps, BfsApp, DmrgApp, HpcApp, NwchemTcApp, SpgemmApp, WarpxApp};
use merch_baselines::{
    AutoNumaPolicy, DamonTieringPolicy, MemoryModePolicy, MemoryOptimizerPolicy, SpartaPolicy,
    StaticPolicy, WarpxPmPolicy,
};
use merch_hm::cost::{phase_cost, UniformPlacement};
use merch_hm::runtime::{Executor, PlacementPolicy, RunReport};
use merch_hm::telemetry::BandwidthSample;
use merch_hm::{HmSystem, Tier, Workload};
use merch_models::metrics::mean_relative_accuracy;
use merch_models::Regressor;
use merchandiser::training::{
    build_training_dataset, generate_code_samples, train_correlation_function, TrainingOptions,
};
use merchandiser::{MerchandiserPolicy, PerformanceModel, TrainingArtifacts};

use crate::stats::BoxStats;

/// The five applications of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// Sparse matrix-matrix multiplication.
    Spgemm,
    /// Plasma PIC simulation.
    Warpx,
    /// Breadth-first search.
    Bfs,
    /// Density-matrix renormalisation group.
    Dmrg,
    /// Tensor contraction.
    NwchemTc,
}

impl AppKind {
    /// All apps in the paper's column order.
    pub fn all() -> [AppKind; 5] {
        [
            AppKind::Spgemm,
            AppKind::Warpx,
            AppKind::Bfs,
            AppKind::Dmrg,
            AppKind::NwchemTc,
        ]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            AppKind::Spgemm => "SpGEMM",
            AppKind::Warpx => "WarpX",
            AppKind::Bfs => "BFS",
            AppKind::Dmrg => "DMRG",
            AppKind::NwchemTc => "NWChem-TC",
        }
    }

    /// Build the default scaled instance.
    pub fn build(&self, seed: u64) -> Box<dyn HpcApp> {
        match self {
            AppKind::Spgemm => Box::new(SpgemmApp::default_scaled(seed)),
            AppKind::Warpx => Box::new(WarpxApp::default_scaled(seed)),
            AppKind::Bfs => Box::new(BfsApp::default_scaled(seed)),
            AppKind::Dmrg => Box::new(DmrgApp::default_scaled(seed)),
            AppKind::NwchemTc => Box::new(NwchemTcApp::default_scaled(seed)),
        }
    }
}

/// The placement policies compared in §7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Everything on PM (the normalisation baseline of Figure 4).
    PmOnly,
    /// Hardware solution: Optane Memory Mode.
    MemoryMode,
    /// Software solution: Intel MemoryOptimizer.
    MemoryOptimizer,
    /// This paper.
    Merchandiser,
    /// Application-specific baseline for SpGEMM.
    Sparta,
    /// Application-specific baseline for WarpX.
    WarpxPm,
    /// DAMON-region-driven tiering (beyond the paper's baseline set).
    DamonTier,
    /// Kernel NUMA-balancing style two-touch promotion (beyond the paper).
    AutoNuma,
}

impl PolicyKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::PmOnly => "PM-only",
            PolicyKind::MemoryMode => "Memory Mode",
            PolicyKind::MemoryOptimizer => "MemoryOptimizer",
            PolicyKind::Merchandiser => "Merchandiser",
            PolicyKind::Sparta => "Sparta",
            PolicyKind::WarpxPm => "WarpX-PM",
            PolicyKind::DamonTier => "DAMON-tier",
            PolicyKind::AutoNuma => "AutoNUMA",
        }
    }
}

/// Run the offline phase: code-sample generation, training-set construction
/// and correlation-function training. `quick` trims sample counts and skips
/// the slow model families (for tests); the full run uses the paper's 281
/// code samples and all six Table 3 models.
pub fn offline(quick: bool, seed: u64) -> TrainingArtifacts {
    let cfg = merch_hm::HmConfig::default();
    let n_samples = if quick { 70 } else { 281 };
    let samples = generate_code_samples(n_samples, seed);
    let dataset = build_training_dataset(&cfg, &samples, 10, seed ^ 0xD5);
    let opts = TrainingOptions {
        include_mlp: !quick,
        include_all_models: !quick,
        selected_events: 8,
        mlp_epochs: 60,
    };
    train_correlation_function(&dataset, &opts, seed ^ 0x7A)
}

/// Wrap a bare (possibly cached) model into minimal [`TrainingArtifacts`]
/// for the experiments that only need `model`.
pub fn artifacts_from_model(model: PerformanceModel) -> TrainingArtifacts {
    TrainingArtifacts {
        table3: Vec::new(),
        event_ranking: Vec::new(),
        accuracy_by_k: Vec::new(),
        model,
    }
}

/// Build a policy instance for `app`.
pub fn build_policy(
    kind: PolicyKind,
    model: &PerformanceModel,
    app: &dyn HpcApp,
    seed: u64,
) -> Box<dyn PolicyObj> {
    match kind {
        PolicyKind::PmOnly => Box::new(StaticPolicy { tier: Tier::Pm }),
        PolicyKind::MemoryMode => Box::new(MemoryModePolicy::default()),
        PolicyKind::MemoryOptimizer => Box::new(MemoryOptimizerPolicy::new(seed ^ 0xA0, 2048)),
        PolicyKind::Merchandiser => {
            let map = merch_patterns::classify_kernel(&app.kernel_ir());
            Box::new(MerchandiserPolicy::new(
                model.clone(),
                map,
                app.reuse_hints(),
                seed ^ 0x3E,
            ))
        }
        PolicyKind::Sparta => Box::new(SpartaPolicy::default()),
        PolicyKind::WarpxPm => Box::new(WarpxPmPolicy::new()),
        PolicyKind::DamonTier => Box::new(DamonTieringPolicy::new(seed ^ 0xDA, 256)),
        PolicyKind::AutoNuma => {
            // Scan batch follows the MemoryOptimizer budget convention.
            Box::new(AutoNumaPolicy::new(seed ^ 0xAE, 4096))
        }
    }
}

/// Object-safe policy alias.
pub trait PolicyObj: PlacementPolicy + Sync {}
impl<T: PlacementPolicy + Sync> PolicyObj for T {}

/// An executor over a boxed workload and policy.
type Exec = Executor<Box<dyn HpcApp>, Box<dyn PolicyObj>>;

/// The workload and policy of one run, both seeded by `seed`.
pub(crate) fn parts(
    app: AppKind,
    policy: PolicyKind,
    seed: u64,
    model: &PerformanceModel,
) -> (Box<dyn HpcApp>, Box<dyn PolicyObj>) {
    let workload = app.build(seed);
    let policy = build_policy(policy, model, workload.as_ref(), seed);
    (workload, policy)
}

/// Build one executor: workload and policy seeded by `seed`, the system
/// sized by the app's recommended config, `plan` armed (an empty plan
/// leaves the no-fault path untouched). Identical inputs give a
/// bitwise-identical executor.
pub(crate) fn executor(
    app: AppKind,
    policy: PolicyKind,
    seed: u64,
    model: &PerformanceModel,
    plan: &merch_hm::FaultPlan,
) -> Exec {
    let (workload, policy) = parts(app, policy, seed, model);
    let mut sys = HmSystem::new(workload.recommended_config(), seed);
    sys.set_fault_plan(plan.clone())
        .expect("fault plans are validated when generated or decoded");
    Executor::new(sys, workload, policy)
}

/// Run one (app, policy) combination end to end.
pub fn run_app(
    app_kind: AppKind,
    policy_kind: PolicyKind,
    model: &PerformanceModel,
    seed: u64,
) -> RunReport {
    executor(
        app_kind,
        policy_kind,
        seed,
        model,
        &merch_hm::FaultPlan::none(),
    )
    .run()
}

// ---------------------------------------------------------------------------
// Fault-injection sweep — graceful degradation under injected failures.
// ---------------------------------------------------------------------------

/// One row of the fault sweep: an (app, fault level) cell.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Application.
    pub app: String,
    /// Probability that a single page-migration attempt fails.
    pub migration_fail_rate: f64,
    /// Probability that a PTE sample or PMC event read is lost.
    pub sample_dropout: f64,
    /// Faulted Merchandiser speedup over the equally-faulted PM-only run.
    pub speedup_vs_pm: f64,
    /// Faulted Merchandiser time relative to its own fault-free run
    /// (1.0 = no slowdown).
    pub slowdown_vs_clean: f64,
    /// Migration retries the run absorbed.
    pub migration_retries: u64,
    /// Pages abandoned after exhausting retries.
    pub failed_pages: u64,
    /// PTE samples lost in transit.
    pub dropped_pte_samples: u64,
    /// PMC event reads lost during base profiling.
    pub dropped_pmc_events: u64,
    /// Rounds the policy ran on a degradation-ladder rung.
    pub degraded_rounds: u64,
}

/// Sweep migration-failure and sample-dropout rates over all five apps,
/// comparing faulted Merchandiser against the equally-faulted PM-only run
/// and against its own fault-free run. Shows the degradation ladder keeps
/// the slowdown bounded and the speedup over PM-only positive.
pub fn faults(model: &PerformanceModel, seed: u64) -> Vec<FaultRow> {
    let sweep = [
        (0.0, 0.0),
        (0.05, 0.1),
        (0.10, 0.2),
        (0.25, 0.4),
        (0.5, 0.6),
    ];
    // Stage 1: fault-free Merchandiser reference per app.
    let clean: Vec<f64> = crate::par::par_map(AppKind::all().to_vec(), |app| {
        run_app(app, PolicyKind::Merchandiser, model, seed).total_time_ns()
    });
    // Stage 2: every (app × fault level) cell independently.
    let cells: Vec<(usize, f64, f64)> = AppKind::all()
        .iter()
        .enumerate()
        .flat_map(|(ai, _)| sweep.iter().map(move |&(f, d)| (ai, f, d)))
        .collect();
    crate::par::par_map(cells, |(ai, fail, dropout)| {
        let app = AppKind::all()[ai];
        let plan = merch_hm::FaultPlan::none()
            .with_seed(seed ^ 0xFA17)
            .with_migration_failures(fail, 2)
            .with_sample_dropout(dropout, dropout);
        let pm = executor(app, PolicyKind::PmOnly, seed, model, &plan).run();
        let merch = executor(app, PolicyKind::Merchandiser, seed, model, &plan).run();
        FaultRow {
            app: app.name().to_string(),
            migration_fail_rate: fail,
            sample_dropout: dropout,
            speedup_vs_pm: pm.total_time_ns() / merch.total_time_ns(),
            slowdown_vs_clean: merch.total_time_ns() / clean[ai],
            migration_retries: merch.fault.migration_retries,
            failed_pages: merch.fault.failed_pages,
            dropped_pte_samples: merch.fault.dropped_pte_samples,
            dropped_pmc_events: merch.fault.dropped_pmc_events,
            degraded_rounds: merch.fault.degraded_rounds,
        }
    })
}

// ---------------------------------------------------------------------------
// Checkpoint/recovery sweep — crash → restore → replay equivalence.
// ---------------------------------------------------------------------------

/// One row of the recovery sweep: an (app, crash scenario) cell.
#[derive(Debug, Clone)]
pub struct RecoverRow {
    /// Application.
    pub app: String,
    /// `boundary` (between rounds) or `midmig` (inside a migration batch).
    pub scenario: &'static str,
    /// Round the scripted crash hits.
    pub crash_round: u64,
    /// Rounds already durable in the WAL when the crash hit.
    pub rounds_recovered: usize,
    /// Checkpoint records the WAL held at crash time.
    pub wal_records: u64,
    /// Total time of the crash→restore→replay run, ns.
    pub resumed_total_ns: f64,
    /// Why the resumed run is not bit-identical to the uninterrupted run
    /// (`None`: it is).
    pub mismatch: Option<String>,
}

/// Crash every app mid-run — once at a round boundary, once inside a
/// migration batch — recover from the WAL's last durable checkpoint through
/// the scenario engine's crash leg, and verify the resumed run reproduces
/// the uninterrupted [`RunReport`] bit for bit (`Debug` equality covers
/// every numeric field exactly).
pub fn recover(model: &PerformanceModel, seed: u64) -> Vec<RecoverRow> {
    use merch_hm::{CrashPoint, FaultKind, FaultPlan};
    // Stage 1: uninterrupted reference run per app.
    let baselines: Vec<(String, u64)> = crate::par::par_map(AppKind::all().to_vec(), |app| {
        let baseline = run_app(app, PolicyKind::Merchandiser, model, seed);
        let mid = (baseline.rounds.len() as u64 / 2).max(1);
        (format!("{baseline:?}"), mid)
    });
    // Stage 2: every (app × crash scenario) cell independently.
    let cells: Vec<(usize, &'static str)> = (0..AppKind::all().len())
        .flat_map(|ai| [(ai, "boundary"), (ai, "midmig")])
        .collect();
    crate::par::par_map(cells, |(ai, name)| {
        let app = AppKind::all()[ai];
        // Mid-migration crashes target round 1: the first planned round,
        // where Merchandiser applies its initial Algorithm 1 placement and
        // is all but guaranteed to batch-migrate pages. Later rounds may
        // legitimately skip migration (the migrate-or-not gate), which
        // would leave the scripted crash point unreached.
        let (crash_round, point) = match name {
            "boundary" => (baselines[ai].1, CrashPoint::BetweenRounds),
            _ => (1, CrashPoint::MidMigration { after_attempts: 1 }),
        };
        let plan = FaultPlan::none()
            .with_seed(seed)
            .with_fault(FaultKind::Crash {
                round: crash_round,
                point,
            });
        // A crash point never reached (no migration batch in that round)
        // leaves a completed supervised run, which must match all the same.
        let resumed = crate::scenario::crash_and_resume(app, seed, model, &plan);
        let mismatch = match &resumed {
            Ok(r) if format!("{:?}", r.report) == baselines[ai].0 => None,
            Ok(_) => Some("resumed run diverged from the uninterrupted run".to_string()),
            Err(e) => Some(e.clone()),
        };
        let resumed = resumed.ok();
        RecoverRow {
            app: app.name().to_string(),
            scenario: name,
            crash_round,
            rounds_recovered: resumed.as_ref().map_or(0, |r| r.rounds_recovered),
            wal_records: resumed.as_ref().map_or(0, |r| r.wal_records),
            resumed_total_ns: resumed.as_ref().map_or(0.0, |r| r.report.total_time_ns()),
            mismatch,
        }
    })
}

// ---------------------------------------------------------------------------
// Table 1 — access patterns detected per application.
// ---------------------------------------------------------------------------

/// Table 1: application → detected pattern labels.
pub fn table1(seed: u64) -> Vec<(String, Vec<&'static str>)> {
    all_apps(seed)
        .iter()
        .map(|app| {
            let map = merch_patterns::classify_kernel(&app.kernel_ir());
            (
                app.name().to_string(),
                merch_patterns::classify::distinct_labels(&map),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 3 — NWChem-TC phase times vs DRAM-access ratio.
// ---------------------------------------------------------------------------

/// One Figure 3 group: phase name and its time at 0 / 50 / 100 % DRAM
/// accesses, normalised to the 0 % (PM-only) time.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Phase name (plus "Entire Task").
    pub phase: String,
    /// Normalised times at r = 0, 0.5, 1.
    pub normalized: [f64; 3],
}

/// Figure 3: run NWChem-TC's five phases under three uniform DRAM ratios.
pub fn fig3(seed: u64) -> Vec<Fig3Row> {
    let mut app = NwchemTcApp::default_scaled(seed);
    let cfg = app.recommended_config();
    let mut sys = HmSystem::new(cfg.clone(), seed);
    sys.allocate_all(&app.object_specs(), Tier::Pm).unwrap();
    let works = app.instance(0, &sys);
    let sizes: Vec<u64> = sys.objects().iter().map(|o| o.size).collect();
    let concurrency = works.len();

    let phase_names: Vec<String> = works[0].phases.iter().map(|p| p.name.clone()).collect();
    let mut rows = Vec::new();
    let ratios = [0.0, 0.5, 1.0];
    let mut entire = [0.0f64; 3];
    for name in &phase_names {
        let mut t = [0.0f64; 3];
        for (k, &r) in ratios.iter().enumerate() {
            let view = UniformPlacement::new(sizes.clone(), r);
            // Sum the phase across all tasks (the figure reports the phase
            // of the whole parallel step).
            t[k] = works
                .iter()
                .flat_map(|w| w.phases.iter().filter(|p| &p.name == name))
                .map(|p| phase_cost(&cfg, p, &view, concurrency).time_ns)
                .sum();
            entire[k] += t[k];
        }
        rows.push(Fig3Row {
            phase: name.clone(),
            normalized: [1.0, t[1] / t[0], t[2] / t[0]],
        });
    }
    rows.push(Fig3Row {
        phase: "Entire Task".to_string(),
        normalized: [1.0, entire[1] / entire[0], entire[2] / entire[0]],
    });
    rows
}

// ---------------------------------------------------------------------------
// Figure 4 — overall performance vs PM-only.
// ---------------------------------------------------------------------------

/// One Figure 4 group.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Application.
    pub app: String,
    /// Policy name → speedup over PM-only.
    pub speedups: BTreeMap<String, f64>,
}

/// Figure 4: speedups of Memory Mode, MemoryOptimizer and Merchandiser over
/// PM-only, plus the application-specific baselines where they exist.
pub fn fig4(model: &PerformanceModel, seed: u64) -> Vec<Fig4Row> {
    let per_app: Vec<Vec<PolicyKind>> = AppKind::all()
        .iter()
        .map(|&app| {
            // PM-only first: it normalises the rest of the app's row.
            let mut policies = vec![
                PolicyKind::PmOnly,
                PolicyKind::MemoryMode,
                PolicyKind::MemoryOptimizer,
                PolicyKind::Merchandiser,
            ];
            if app == AppKind::Spgemm {
                policies.push(PolicyKind::Sparta);
            }
            if app == AppKind::Warpx {
                policies.push(PolicyKind::WarpxPm);
            }
            policies
        })
        .collect();
    speedup_rows(&per_app, model, seed)
}

/// Run every (app × policy) cell of `per_app` (PM-only must be each row's
/// first entry) on the worker pool and fold the times into per-app
/// speedups-over-PM-only rows, in app-major order.
fn speedup_rows(per_app: &[Vec<PolicyKind>], model: &PerformanceModel, seed: u64) -> Vec<Fig4Row> {
    let cells: Vec<(AppKind, PolicyKind)> = AppKind::all()
        .iter()
        .zip(per_app)
        .flat_map(|(&app, ps)| ps.iter().map(move |&p| (app, p)))
        .collect();
    let times = crate::par::par_map(cells, |(app, p)| {
        run_app(app, p, model, seed).total_time_ns()
    });
    let mut rows = Vec::new();
    let mut k = 0;
    for (&app, policies) in AppKind::all().iter().zip(per_app) {
        debug_assert_eq!(policies[0], PolicyKind::PmOnly);
        let pm = times[k];
        let mut speedups = BTreeMap::new();
        for &p in policies {
            let t = times[k];
            k += 1;
            if p != PolicyKind::PmOnly {
                speedups.insert(p.name().to_string(), pm / t);
            }
        }
        rows.push(Fig4Row {
            app: app.name().to_string(),
            speedups,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 5 — task execution time variance (boxplots + A.C.V).
// ---------------------------------------------------------------------------

/// One Figure 5 box.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Application.
    pub app: String,
    /// Policy.
    pub policy: String,
    /// Box statistics of normalised task times.
    pub stats: BoxStats,
    /// The paper's A.C.V metric for the run.
    pub acv: f64,
}

/// Figure 5: normalised task-time distributions per app × policy.
pub fn fig5(model: &PerformanceModel, seed: u64) -> Vec<Fig5Row> {
    let cells: Vec<(AppKind, PolicyKind)> = AppKind::all()
        .iter()
        .flat_map(|&app| {
            [
                PolicyKind::PmOnly,
                PolicyKind::MemoryMode,
                PolicyKind::MemoryOptimizer,
                PolicyKind::Merchandiser,
            ]
            .into_iter()
            .map(move |policy| (app, policy))
        })
        .collect();
    crate::par::par_map(cells, |(app, policy)| {
        let report = run_app(app, policy, model, seed);
        let times = report.normalized_task_times();
        Fig5Row {
            app: app.name().to_string(),
            policy: policy.name().to_string(),
            stats: BoxStats::from(&times),
            acv: report.acv(),
        }
    })
}

// ---------------------------------------------------------------------------
// Figure 6 — bandwidth timelines for WarpX.
// ---------------------------------------------------------------------------

/// One Figure 6 panel.
#[derive(Debug, Clone)]
pub struct Fig6Panel {
    /// Policy.
    pub policy: String,
    /// Bandwidth samples over simulated time.
    pub samples: Vec<BandwidthSample>,
    /// Run-average DRAM bandwidth, GB/s.
    pub avg_dram_gbps: f64,
    /// Run-average PM bandwidth, GB/s.
    pub avg_pm_gbps: f64,
}

/// Figure 6: memory-bandwidth usage of WarpX under Memory Mode,
/// MemoryOptimizer and Merchandiser.
pub fn fig6(model: &PerformanceModel, seed: u64) -> Vec<Fig6Panel> {
    let panels = vec![
        PolicyKind::MemoryMode,
        PolicyKind::MemoryOptimizer,
        PolicyKind::Merchandiser,
    ];
    crate::par::par_map(panels, |p| {
        let report = run_app(AppKind::Warpx, p, model, seed);
        Fig6Panel {
            policy: p.name().to_string(),
            samples: report.timeline_samples.clone(),
            avg_dram_gbps: report.avg_dram_gbps,
            avg_pm_gbps: report.avg_pm_gbps,
        }
    })
}

// ---------------------------------------------------------------------------
// Figure 7 — correlation-function accuracy vs number of events.
// ---------------------------------------------------------------------------

/// Figure 7 output.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// (k, held-out R²) for the top-k events + r.
    pub curve: Vec<(usize, f64)>,
    /// Accuracy of the final top-8 model on regular-pattern samples.
    pub regular_top8: f64,
    /// Accuracy of the final top-8 model on irregular samples.
    pub irregular_top8: f64,
    /// Accuracy using all events, regular samples.
    pub regular_all: f64,
    /// Accuracy using all events, irregular samples.
    pub irregular_all: f64,
}

/// Figure 7: evaluate f(·) with growing event subsets, split by
/// regular/irregular sample class.
pub fn fig7(artifacts: &TrainingArtifacts, seed: u64) -> Fig7 {
    let cfg = merch_hm::HmConfig::default();
    // Fresh evaluation pools, disjoint from training by seed.
    let eval = generate_code_samples(120, seed ^ 0xF167);
    let regular: Vec<_> = eval.iter().filter(|s| !s.irregular).cloned().collect();
    let irregular: Vec<_> = eval.iter().filter(|s| s.irregular).cloned().collect();
    let d_reg = build_training_dataset(&cfg, &regular, 10, seed ^ 0x11);
    let d_irr = build_training_dataset(&cfg, &irregular, 10, seed ^ 0x22);

    // All-events model for the comparison line.
    let train = build_training_dataset(&cfg, &generate_code_samples(180, seed ^ 0x33), 10, seed);
    let mut all_model = merch_models::GradientBoostedRegressor::new(220, 0.08, 3, seed);
    all_model.fit(&train.x, &train.y);

    let acc = |pred: &[f64], truth: &[f64]| mean_relative_accuracy(truth, pred);
    let eval_top8 = |d: &merch_models::Dataset| {
        let pred: Vec<f64> =
            d.x.iter()
                .map(|row| {
                    let mut feats: Vec<f64> = row[..artifacts.model.num_events].to_vec();
                    feats.push(*row.last().unwrap());
                    artifacts.model.f.predict_one(&feats).max(0.0)
                })
                .collect();
        acc(&pred, &d.y)
    };
    let eval_all = |d: &merch_models::Dataset| {
        let pred: Vec<f64> =
            d.x.iter()
                .map(|row| all_model.predict_one(row).max(0.0))
                .collect();
        acc(&pred, &d.y)
    };

    Fig7 {
        curve: artifacts.accuracy_by_k.clone(),
        regular_top8: eval_top8(&d_reg),
        irregular_top8: eval_top8(&d_irr),
        regular_all: eval_all(&d_reg),
        irregular_all: eval_all(&d_irr),
    }
}

// ---------------------------------------------------------------------------
// Table 4 — whole-performance-model accuracy.
// ---------------------------------------------------------------------------

/// One Table 4 row.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Application.
    pub app: String,
    /// Accuracy of the profiling-based size-ratio regression baseline \[8\].
    pub regression_acc: f64,
    /// Accuracy of the paper's performance model.
    pub model_acc: f64,
}

/// Table 4: prediction accuracy over all task instances, Merchandiser's
/// model vs the size-ratio regression baseline.
pub fn table4(model: &PerformanceModel, seed: u64) -> Vec<Table4Row> {
    crate::par::par_map(AppKind::all().to_vec(), |kind| {
        let app = kind.build(seed);
        let cfg = app.recommended_config();
        let map = merch_patterns::classify_kernel(&app.kernel_ir());
        let policy = MerchandiserPolicy::new(model.clone(), map, app.reuse_hints(), seed ^ 0x3E);
        // Per-round total object size for the regression baseline.
        let sizes_per_round: Vec<f64> = (0..app.num_instances())
            .map(|r| app.object_sizes(r).iter().map(|(_, s)| *s as f64).sum())
            .collect();
        let mut ex = Executor::new(HmSystem::new(cfg, seed), app, policy);
        let report = ex.run();

        let mut pred_model = Vec::new();
        let mut pred_regr = Vec::new();
        let mut actual = Vec::new();
        let base_round = &report.rounds[0];
        for (round, predicted) in &ex.policy.prediction_log {
            let rr = &report.rounds[*round];
            let ratio = sizes_per_round[*round] / sizes_per_round[0];
            for (t, task_res) in rr.tasks.iter().enumerate() {
                actual.push(task_res.time_ns);
                pred_model.push(predicted[t]);
                pred_regr.push(base_round.tasks[t].time_ns * ratio);
            }
        }
        Table4Row {
            app: kind.name().to_string(),
            regression_acc: mean_relative_accuracy(&actual, &pred_regr),
            model_acc: mean_relative_accuracy(&actual, &pred_model),
        }
    })
}

// ---------------------------------------------------------------------------
// §7.3 α values and §7.2 overhead.
// ---------------------------------------------------------------------------

/// Mean α per application after a full Merchandiser run (§7.3).
pub fn alpha_report(model: &PerformanceModel, seed: u64) -> Vec<(String, f64)> {
    crate::par::par_map(AppKind::all().to_vec(), |kind| {
        let app = kind.build(seed);
        let cfg = app.recommended_config();
        let map = merch_patterns::classify_kernel(&app.kernel_ir());
        let policy = MerchandiserPolicy::new(model.clone(), map, app.reuse_hints(), seed ^ 0x3E);
        let mut ex = Executor::new(HmSystem::new(cfg, seed), app, policy);
        let _ = ex.run();
        (kind.name().to_string(), ex.policy.mean_alpha())
    })
}

/// §7.2 runtime overhead: online prediction wall time and pages migrated.
pub fn overhead_report(model: &PerformanceModel, seed: u64) -> Vec<(String, f64, u64)> {
    crate::par::par_map(AppKind::all().to_vec(), |kind| {
        let app = kind.build(seed);
        let cfg = app.recommended_config();
        let map = merch_patterns::classify_kernel(&app.kernel_ir());
        let policy = MerchandiserPolicy::new(model.clone(), map, app.reuse_hints(), seed ^ 0x3E);
        let mut ex = Executor::new(HmSystem::new(cfg, seed), app, policy);
        let report = ex.run();
        (
            kind.name().to_string(),
            ex.policy.last_prediction_wall_ns,
            report.total_migration_pages(),
        )
    })
}

// ---------------------------------------------------------------------------
// §1 motivation — the two observations that open the paper.
// ---------------------------------------------------------------------------

/// One motivation row.
#[derive(Debug, Clone)]
pub struct MotivationRow {
    /// Application.
    pub app: String,
    /// Policy (Memory Mode or MemoryOptimizer).
    pub policy: String,
    /// Relative change of the task-time variance metric vs the homogeneous
    /// (PM-only) run — positive = more imbalance (paper: +17 %/+16 %).
    pub variance_change: f64,
    /// Speedup over PM-only (paper: only 1.0432/1.0371 on average).
    pub speedup: f64,
}

/// Reproduce §1's motivating study: "running on HM increases performance
/// difference among tasks" and "performance improvement is minimal after
/// using MemoryOptimizer and Memory Mode".
pub fn motivation(model: &PerformanceModel, seed: u64) -> Vec<MotivationRow> {
    // Stage 1: the homogeneous reference per app.
    let pm: Vec<RunReport> = crate::par::par_map(AppKind::all().to_vec(), |app| {
        run_app(app, PolicyKind::PmOnly, model, seed)
    });
    // Stage 2: every (app × HM policy) cell.
    let cells: Vec<(usize, PolicyKind)> = (0..AppKind::all().len())
        .flat_map(|ai| {
            [
                (ai, PolicyKind::MemoryMode),
                (ai, PolicyKind::MemoryOptimizer),
            ]
        })
        .collect();
    crate::par::par_map(cells, |(ai, policy)| {
        let app = AppKind::all()[ai];
        let r = run_app(app, policy, model, seed);
        MotivationRow {
            app: app.name().to_string(),
            policy: policy.name().to_string(),
            variance_change: r.acv() / pm[ai].acv().max(1e-12) - 1.0,
            speedup: pm[ai].total_time_ns() / r.total_time_ns(),
        }
    })
}

// ---------------------------------------------------------------------------
// Beyond the paper: the wider tiering-policy landscape.
// ---------------------------------------------------------------------------

/// Speedups of *every* implemented policy over PM-only, per application —
/// extends Figure 4 with the DAMON-tiering and AutoNUMA baselines.
pub fn landscape(model: &PerformanceModel, seed: u64) -> Vec<Fig4Row> {
    let per_app: Vec<Vec<PolicyKind>> = AppKind::all()
        .iter()
        .map(|_| {
            vec![
                PolicyKind::PmOnly,
                PolicyKind::MemoryMode,
                PolicyKind::MemoryOptimizer,
                PolicyKind::DamonTier,
                PolicyKind::AutoNuma,
                PolicyKind::Merchandiser,
            ]
        })
        .collect();
    speedup_rows(&per_app, model, seed)
}

// ---------------------------------------------------------------------------
// §5.3 Extensibility — retarget Merchandiser to a CXL-based HM.
// ---------------------------------------------------------------------------

/// Result of the extensibility experiment on one application.
#[derive(Debug, Clone)]
pub struct CxlRow {
    /// Application.
    pub app: String,
    /// Policy.
    pub policy: String,
    /// Speedup over slow-tier-only on the CXL system.
    pub speedup: f64,
}

/// §5.3's three extension steps, executed for a CXL-attached-memory system:
/// (1) collect training data reflecting the new memories' sensitivity,
/// (2) re-train the scaling function, (3) re-measure basic blocks — then
/// run the Figure 4 comparison on the new machine.
pub fn cxl_extensibility(seed: u64) -> Vec<CxlRow> {
    // Step 1+2: training data and f(·) on the CXL config.
    let cxl_cfg = merch_hm::HmConfig::cxl_calibrated(256 << 20, 2 << 30);
    let samples = generate_code_samples(120, seed);
    let dataset = build_training_dataset(&cxl_cfg, &samples, 10, seed ^ 0xC1);
    let opts = merchandiser::training::TrainingOptions {
        include_mlp: false,
        include_all_models: false,
        selected_events: 8,
        mlp_epochs: 10,
    };
    let artifacts = train_correlation_function(&dataset, &opts, seed ^ 0xC2);

    // Step 3 happens inside the policy (basic blocks are measured on the
    // run's own config). Compare policies on a CXL machine sized for the
    // DMRG workload.
    let mut rows = Vec::new();
    for &kind in &[AppKind::Dmrg, AppKind::NwchemTc] {
        let mk_cfg = |app: &dyn HpcApp| {
            let optane = app.recommended_config();
            merch_hm::HmConfig::cxl_calibrated(optane.dram.capacity, optane.pm.capacity)
        };
        let app = kind.build(seed);
        let cfg = mk_cfg(app.as_ref());
        let slow_only = Executor::new(
            HmSystem::new(cfg.clone(), seed),
            app,
            StaticPolicy { tier: Tier::Pm },
        )
        .run()
        .total_time_ns();
        for policy in [PolicyKind::MemoryOptimizer, PolicyKind::Merchandiser] {
            let app = kind.build(seed);
            let p = build_policy(policy, &artifacts.model, app.as_ref(), seed);
            let t = Executor::new(HmSystem::new(cfg.clone(), seed), app, p)
                .run()
                .total_time_ns();
            rows.push(CxlRow {
                app: kind.name().to_string(),
                policy: policy.name().to_string(),
                speedup: slow_only / t,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Ablation study (DESIGN.md §5) — quality impact of the design choices.
// ---------------------------------------------------------------------------

/// One ablation row: variant name → speedup over PM-only and A.C.V.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Dimension being ablated.
    pub dimension: &'static str,
    /// Variant label.
    pub variant: String,
    /// Speedup over PM-only.
    pub speedup: f64,
    /// A.C.V of the run.
    pub acv: f64,
    /// Pages migrated over the run.
    pub pages: u64,
}

fn merchandiser_variant(
    app_kind: AppKind,
    model: &PerformanceModel,
    seed: u64,
    tweak: impl FnOnce(&mut MerchandiserPolicy),
) -> RunReport {
    let app = app_kind.build(seed);
    let cfg = app.recommended_config();
    let map = merch_patterns::classify_kernel(&app.kernel_ir());
    let mut policy = MerchandiserPolicy::new(model.clone(), map, app.reuse_hints(), seed ^ 0x3E);
    tweak(&mut policy);
    Executor::new(HmSystem::new(cfg, seed), app, policy).run()
}

/// Run the ablation study. Each dimension is ablated on the application
/// where the mechanism matters: Algorithm 1 stepping and migration gating
/// on DMRG (placement-bound, per-sweep input growth), α refinement and the
/// correlation function on NWChem-TC (random patterns and mixed phases),
/// profiling noise on SpGEMM (skewed bins).
pub fn ablation(default_app: AppKind, model: &PerformanceModel, seed: u64) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    let mut pm_cache: BTreeMap<&'static str, f64> = BTreeMap::new();
    let push = |rows: &mut Vec<AblationRow>,
                pm_cache: &mut BTreeMap<&'static str, f64>,
                app: AppKind,
                dimension,
                variant: String,
                report: RunReport| {
        let pm = *pm_cache
            .entry(app.name())
            .or_insert_with(|| run_app(app, PolicyKind::PmOnly, model, seed).total_time_ns());
        rows.push(AblationRow {
            dimension,
            variant: format!("{} [{}]", variant, app.name()),
            speedup: pm / report.total_time_ns(),
            acv: report.acv(),
            pages: report.total_migration_pages(),
        });
    };

    // 1. Algorithm 1 step size (paper: 5 %).
    for step in [0.01, 0.05, 0.10, 0.20] {
        let r = merchandiser_variant(default_app, model, seed, |p| p.step = step);
        push(
            &mut rows,
            &mut pm_cache,
            default_app,
            "alg1_step",
            format!("{:.0}%", step * 100.0),
            r,
        );
    }
    // 2. Migrate-or-not gate horizon.
    for (label, h) in [
        ("never_migrate", 0.0),
        ("horizon_5", 5.0),
        ("always_migrate", 1e12),
    ] {
        let r = merchandiser_variant(default_app, model, seed, |p| p.migration_horizon = h);
        push(
            &mut rows,
            &mut pm_cache,
            default_app,
            "migration_gate",
            label.to_string(),
            r,
        );
    }
    // 3. α refinement (irregular app: random patterns need the refiner).
    for (label, on) in [("refined", true), ("fixed_alpha_1", false)] {
        let r = merchandiser_variant(AppKind::NwchemTc, model, seed, |p| p.refine_alpha = on);
        push(
            &mut rows,
            &mut pm_cache,
            AppKind::NwchemTc,
            "alpha_refinement",
            label.to_string(),
            r,
        );
    }
    // 4. Correlation function: trained GBR vs linear interpolation (f ≡ 1).
    {
        let r = merchandiser_variant(AppKind::NwchemTc, model, seed, |_| {});
        push(
            &mut rows,
            &mut pm_cache,
            AppKind::NwchemTc,
            "correlation_fn",
            "gbr".to_string(),
            r,
        );
        let mut f = merch_models::GradientBoostedRegressor::new(1, 0.1, 1, 0);
        f.fit(&[vec![0.0; 9], vec![1.0; 9]], &[1.0, 1.0]);
        let linear = PerformanceModel { f, num_events: 8 };
        let r = merchandiser_variant(AppKind::NwchemTc, &linear, seed, |_| {});
        push(
            &mut rows,
            &mut pm_cache,
            AppKind::NwchemTc,
            "correlation_fn",
            "linear_interpolation".to_string(),
            r,
        );
    }
    // 5. Base-profiling noise sensitivity (skewed-bin app).
    for noise in [0.0, 0.08, 0.3] {
        let r = merchandiser_variant(AppKind::Spgemm, model, seed, |p| p.profiling_noise = noise);
        push(
            &mut rows,
            &mut pm_cache,
            AppKind::Spgemm,
            "profiling_noise",
            format!("{:.0}%", noise * 100.0),
            r,
        );
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let t = table1(3);
        let get = |name: &str| {
            t.iter()
                .find(|(n, _)| n == name)
                .map(|(_, l)| l.clone())
                .unwrap()
        };
        assert_eq!(get("SpGEMM"), vec!["stream", "random"]);
        assert_eq!(get("WarpX"), vec!["strided", "stencil"]);
        assert_eq!(get("BFS"), vec!["stream", "random"]);
        assert_eq!(get("DMRG"), vec!["stream", "strided"]);
        assert_eq!(get("NWChem-TC"), vec!["stream", "random"]);
    }

    #[test]
    fn fig3_shape() {
        let rows = fig3(3);
        assert_eq!(rows.len(), 6); // 5 phases + entire task
        for r in &rows {
            assert!((r.normalized[0] - 1.0).abs() < 1e-9);
            // More DRAM accesses never hurt.
            assert!(r.normalized[1] <= 1.0 + 1e-9, "{:?}", r);
            assert!(r.normalized[2] <= r.normalized[1] + 1e-9, "{:?}", r);
        }
        // Writeback (write-heavy) gains more from DRAM than input
        // processing (prefetch-friendly streams) — the Figure 3 argument.
        let wb = rows.iter().find(|r| r.phase == "writeback").unwrap();
        let ip = rows.iter().find(|r| r.phase == "input_processing").unwrap();
        assert!(
            wb.normalized[1] < ip.normalized[1],
            "writeback {:?} vs input {:?}",
            wb.normalized,
            ip.normalized
        );
    }
}
