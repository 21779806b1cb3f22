//! End-to-end integration: offline training → pattern classification →
//! policy execution on the emulated HM, across every crate of the
//! workspace.

use std::collections::BTreeMap;

use merchandiser_suite::apps::{HpcApp, SpgemmApp};
use merchandiser_suite::baselines::{MemoryModePolicy, MemoryOptimizerPolicy, SpartaPolicy};
use merchandiser_suite::core::training::{self, TrainingOptions};
use merchandiser_suite::core::{MerchandiserPolicy, PerformanceModel};
use merchandiser_suite::hm::page::PAGE_SIZE;
use merchandiser_suite::hm::runtime::StaticPolicy;
use merchandiser_suite::hm::workload::testutil::SkewedWorkload;
use merchandiser_suite::hm::{Executor, HmConfig, HmSystem, Tier, Workload};
use merchandiser_suite::patterns::classify_kernel;

const SEED: u64 = 7_2023;

/// f(·) trained offline against the platform `config`.
fn trained_model(config: &HmConfig) -> PerformanceModel {
    let samples = training::generate_code_samples(80, SEED);
    let dataset = training::build_training_dataset(config, &samples, 10, SEED);
    let opts = TrainingOptions {
        include_mlp: false,
        include_all_models: false,
        ..Default::default()
    };
    training::train_correlation_function(&dataset, &opts, SEED).model
}

fn small_spgemm() -> SpgemmApp {
    SpgemmApp::new(10, 8, 6, 6, SEED)
}

#[test]
fn merchandiser_beats_every_generic_baseline_on_spgemm() {
    let model = trained_model(&HmConfig::default());
    let cfg = small_spgemm().recommended_config();

    let pm = Executor::new(
        HmSystem::new(cfg.clone(), SEED),
        small_spgemm(),
        StaticPolicy { tier: Tier::Pm },
    )
    .run();
    let mm = Executor::new(
        HmSystem::new(cfg.clone(), SEED),
        small_spgemm(),
        MemoryModePolicy::default(),
    )
    .run();
    let mo = Executor::new(
        HmSystem::new(cfg.clone(), SEED),
        small_spgemm(),
        MemoryOptimizerPolicy::new(SEED, 1024),
    )
    .run();
    let app = small_spgemm();
    let map = classify_kernel(&app.kernel_ir());
    let hints = app.reuse_hints();
    let merch = Executor::new(
        HmSystem::new(cfg, SEED),
        app,
        MerchandiserPolicy::new(model, map, hints, SEED),
    )
    .run();

    let t = |r: &merchandiser_suite::hm::RunReport| r.total_time_ns();
    assert!(t(&merch) < t(&pm), "merch {} vs pm {}", t(&merch), t(&pm));
    assert!(t(&merch) < t(&mm), "merch {} vs mm {}", t(&merch), t(&mm));
    assert!(t(&merch) < t(&mo), "merch {} vs mo {}", t(&merch), t(&mo));
    // Hardware/software baselines also beat PM-only (the Figure 4 floor).
    assert!(t(&mm) <= t(&pm) * 1.02);
    assert!(t(&mo) <= t(&pm) * 1.02);
}

#[test]
fn sparta_beats_task_agnostic_policies_but_not_merchandiser() {
    let model = trained_model(&HmConfig::default());
    let cfg = small_spgemm().recommended_config();
    let sparta = Executor::new(
        HmSystem::new(cfg.clone(), SEED),
        small_spgemm(),
        SpartaPolicy::default(),
    )
    .run();
    let mm = Executor::new(
        HmSystem::new(cfg.clone(), SEED),
        small_spgemm(),
        MemoryModePolicy::default(),
    )
    .run();
    let app = small_spgemm();
    let map = classify_kernel(&app.kernel_ir());
    let hints = app.reuse_hints();
    let merch = Executor::new(
        HmSystem::new(cfg, SEED),
        app,
        MerchandiserPolicy::new(model, map, hints, SEED),
    )
    .run();
    assert!(sparta.total_time_ns() < mm.total_time_ns());
    assert!(merch.total_time_ns() < sparta.total_time_ns() * 1.10);
}

#[test]
fn merchandiser_reduces_load_imbalance() {
    let model = trained_model(&HmConfig::default());
    let cfg = small_spgemm().recommended_config();
    let pm = Executor::new(
        HmSystem::new(cfg.clone(), SEED),
        small_spgemm(),
        StaticPolicy { tier: Tier::Pm },
    )
    .run();
    let app = small_spgemm();
    let map = classify_kernel(&app.kernel_ir());
    let hints = app.reuse_hints();
    let merch = Executor::new(
        HmSystem::new(cfg, SEED),
        app,
        MerchandiserPolicy::new(model, map, hints, SEED),
    )
    .run();
    // Load-balance awareness, stated directly: across the steady-state
    // rounds, the *slowest* task must gain at least as much from
    // Merchandiser as the *average* task — the placement favours the
    // critical path instead of whoever owns the hottest pages.
    let mut max_gain = 0.0;
    let mut mean_gain = 0.0;
    let mut n = 0.0;
    for (p, m) in pm.rounds.iter().zip(&merch.rounds).skip(1) {
        let mean = |r: &merchandiser_suite::hm::runtime::RoundReport| {
            r.tasks.iter().map(|t| t.time_ns).sum::<f64>() / r.tasks.len() as f64
        };
        max_gain += p.max_task_ns() / m.max_task_ns();
        mean_gain += mean(p) / mean(m);
        n += 1.0;
    }
    max_gain /= n;
    mean_gain /= n;
    assert!(
        max_gain >= mean_gain * 0.95,
        "slowest-task gain {max_gain} vs mean-task gain {mean_gain}"
    );
}

#[test]
fn policies_never_exceed_dram_capacity() {
    let model = trained_model(&HmConfig::default());
    let cfg = small_spgemm().recommended_config();
    // MemoryOptimizer.
    let mut ex = Executor::new(
        HmSystem::new(cfg.clone(), SEED),
        small_spgemm(),
        MemoryOptimizerPolicy::new(SEED, 1024),
    );
    ex.run();
    assert!(ex.sys.page_table().bytes_in(Tier::Dram) <= ex.sys.config.dram.capacity);
    // Merchandiser.
    let app = small_spgemm();
    let map = classify_kernel(&app.kernel_ir());
    let hints = app.reuse_hints();
    let mut ex = Executor::new(
        HmSystem::new(cfg, SEED),
        app,
        MerchandiserPolicy::new(model, map, hints, SEED),
    );
    ex.run();
    assert!(ex.sys.page_table().bytes_in(Tier::Dram) <= ex.sys.config.dram.capacity);
}

#[test]
fn merchandiser_handles_empty_reuse_hints_and_unknown_patterns() {
    // Unknown object patterns fall back to random + online refinement and
    // the run completes.
    let model = trained_model(&HmConfig::default());
    let cfg = small_spgemm().recommended_config();
    let app = small_spgemm();
    let merch = Executor::new(
        HmSystem::new(cfg, SEED),
        app,
        MerchandiserPolicy::new(model, Default::default(), BTreeMap::new(), SEED),
    )
    .run();
    assert_eq!(merch.rounds.len(), 6);
    assert!(merch.total_time_ns() > 0.0);
}

#[test]
fn model_retrained_for_cxl_beats_pm_only_on_cxl() {
    // §5.3 extensibility: on another memory platform f(·) is re-constructed
    // from training data collected on that platform.
    let cxl = HmConfig::cxl_calibrated(256 * PAGE_SIZE, 8192 * PAGE_SIZE);
    let app = || SkewedWorkload {
        tasks: 4,
        rounds: 5,
        base_accesses: 1e6,
        obj_bytes: 128 * PAGE_SIZE,
    };
    let policy = MerchandiserPolicy::new(
        trained_model(&cxl),
        classify_kernel(&app().kernel_ir()),
        app().reuse_hints(),
        SEED,
    );
    let merch = Executor::new(HmSystem::new(cxl.clone(), SEED), app(), policy).run();
    let pm = Executor::new(
        HmSystem::new(cxl, SEED),
        app(),
        StaticPolicy { tier: Tier::Pm },
    )
    .run();
    assert!(merch.total_time_ns() < pm.total_time_ns());
}
