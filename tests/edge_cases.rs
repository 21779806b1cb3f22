//! Failure-injection and degenerate-configuration tests: the system must
//! stay well-defined at the edges of its parameter space.

use std::collections::BTreeMap;

use merchandiser_suite::core::{plan_dram_accesses, AllocatorInput, MerchandiserPolicy, TaskInput};
use merchandiser_suite::hm::page::PAGE_SIZE;
use merchandiser_suite::hm::runtime::StaticPolicy;
use merchandiser_suite::hm::workload::testutil::SkewedWorkload;
use merchandiser_suite::hm::{
    Executor, HmConfig, HmSystem, ObjectAccess, ObjectSpec, Phase, TaskWork, Tier, Workload,
};
use merchandiser_suite::models::{GradientBoostedRegressor, Regressor};
use merchandiser_suite::patterns::AccessPattern;
use merchandiser_suite::profiling::PmcEvents;

fn linear_model() -> merchandiser_suite::core::PerformanceModel {
    let mut f = GradientBoostedRegressor::new(1, 0.1, 1, 0);
    f.fit(&[vec![0.0; 9], vec![1.0; 9]], &[1.0, 1.0]);
    merchandiser_suite::core::PerformanceModel { f, num_events: 8 }
}

/// A workload with one task that does nothing at all.
struct IdleApp;
impl Workload for IdleApp {
    fn name(&self) -> &str {
        "idle"
    }
    fn object_specs(&self) -> Vec<ObjectSpec> {
        vec![ObjectSpec::new("o", PAGE_SIZE)]
    }
    fn num_tasks(&self) -> usize {
        1
    }
    fn num_instances(&self) -> usize {
        2
    }
    fn instance(&mut self, _round: usize, _sys: &HmSystem) -> Vec<TaskWork> {
        vec![TaskWork::new(0)]
    }
}

#[test]
fn idle_workload_runs_under_every_policy() {
    let cfg = HmConfig::calibrated(16 * PAGE_SIZE, 1024 * PAGE_SIZE);
    let pm = Executor::new(
        HmSystem::new(cfg.clone(), 1),
        IdleApp,
        StaticPolicy { tier: Tier::Pm },
    )
    .run();
    assert_eq!(pm.rounds.len(), 2);
    assert_eq!(pm.total_time_ns(), 0.0);
    let merch = Executor::new(
        HmSystem::new(cfg, 1),
        IdleApp,
        MerchandiserPolicy::new(linear_model(), Default::default(), BTreeMap::new(), 1),
    )
    .run();
    assert_eq!(merch.rounds.len(), 2);
}

#[test]
fn tiny_dram_one_page_still_works() {
    // DRAM that holds a single page: policies must degrade gracefully.
    let cfg = HmConfig::calibrated(PAGE_SIZE, 8192 * PAGE_SIZE);
    let app = SkewedWorkload {
        tasks: 2,
        rounds: 3,
        base_accesses: 1e5,
        obj_bytes: 64 * PAGE_SIZE,
    };
    let mut ex = Executor::new(
        HmSystem::new(cfg, 2),
        app,
        MerchandiserPolicy::new(linear_model(), Default::default(), BTreeMap::new(), 2),
    );
    let report = ex.run();
    assert_eq!(report.rounds.len(), 3);
    assert!(ex.sys.page_table().bytes_in(Tier::Dram) <= PAGE_SIZE);
}

#[test]
fn single_round_app_never_reaches_planning() {
    // Only the base input exists: Merchandiser must not plan (no new
    // inputs) and must not crash.
    let app = SkewedWorkload {
        tasks: 3,
        rounds: 1,
        base_accesses: 1e5,
        obj_bytes: 16 * PAGE_SIZE,
    };
    let cfg = HmConfig::calibrated(64 * PAGE_SIZE, 4096 * PAGE_SIZE);
    let mut ex = Executor::new(
        HmSystem::new(cfg, 3),
        app,
        MerchandiserPolicy::new(linear_model(), Default::default(), BTreeMap::new(), 3),
    );
    let report = ex.run();
    assert_eq!(report.rounds.len(), 1);
    assert!(ex.policy.last_plan.is_none());
}

#[test]
fn allocator_with_zero_capacity_grants_nothing() {
    let model = linear_model();
    let input = AllocatorInput {
        tasks: vec![TaskInput {
            task: 0,
            d_pm_only_ns: 1e7,
            d_dram_only_ns: 3e6,
            events: PmcEvents { values: [0.5; 14] },
            total_accesses: 1e6,
            bytes: 1 << 24,
        }],
        dram_capacity: 0,
        model: &model,
        step: 0.05,
    };
    let plan = plan_dram_accesses(&input);
    assert_eq!(plan.dram_bytes.iter().sum::<u64>(), 0);
}

#[test]
fn allocator_with_no_tasks_is_empty() {
    let model = linear_model();
    let input = AllocatorInput {
        tasks: vec![],
        dram_capacity: 1 << 30,
        model: &model,
        step: 0.05,
    };
    let plan = plan_dram_accesses(&input);
    assert!(plan.dram_accesses.is_empty());
    assert!(plan.predicted_ns.is_empty());
}

/// Objects whose logical size collapses to (almost) zero mid-run.
struct ShrinkingApp;
impl Workload for ShrinkingApp {
    fn name(&self) -> &str {
        "shrinking"
    }
    fn object_specs(&self) -> Vec<ObjectSpec> {
        vec![ObjectSpec::new("x", 64 * PAGE_SIZE).owned_by(0)]
    }
    fn num_tasks(&self) -> usize {
        1
    }
    fn num_instances(&self) -> usize {
        3
    }
    fn object_sizes(&self, round: usize) -> Vec<(String, u64)> {
        vec![("x".to_string(), if round == 0 { 64 * PAGE_SIZE } else { 1 })]
    }
    fn instance(&mut self, round: usize, sys: &HmSystem) -> Vec<TaskWork> {
        let x = sys.object_by_name("x").unwrap();
        let n = if round == 0 { 1e5 } else { 10.0 };
        vec![
            TaskWork::new(0).with_phase(Phase::new("p", 0.0).with_access(ObjectAccess::new(
                x,
                n,
                8,
                AccessPattern::Stream,
                0.0,
            ))),
        ]
    }
}

#[test]
fn shrinking_inputs_do_not_break_estimation() {
    let cfg = HmConfig::calibrated(32 * PAGE_SIZE, 1024 * PAGE_SIZE);
    let policy = MerchandiserPolicy::new(linear_model(), Default::default(), BTreeMap::new(), 4);
    let report = Executor::new(HmSystem::new(cfg, 4), ShrinkingApp, policy).run();
    assert_eq!(report.rounds.len(), 3);
    for r in &report.rounds {
        assert!(r.round_time_ns.is_finite());
    }
}

#[test]
fn pm_capacity_too_small_errors_cleanly() {
    let mut sys = HmSystem::new(HmConfig::calibrated(8 * PAGE_SIZE, 4 * PAGE_SIZE), 1);
    let err = sys
        .allocate(&ObjectSpec::new("big", 16 * PAGE_SIZE), Tier::Pm)
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("out of PM capacity"), "{msg}");
}
