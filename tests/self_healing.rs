//! Self-healing properties (DESIGN.md §12): transactional migration epochs
//! roll back torn work to a bitwise-identical page table, and runs whose
//! epochs roll back stay replay-deterministic across crash → WAL restore →
//! `Executor::resume`.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use merchandiser_suite::core::perfmodel::PerformanceModel;
use merchandiser_suite::core::policy::MerchandiserPolicy;
use merchandiser_suite::hm::epoch::EpochOutcome;
use merchandiser_suite::hm::page::PAGE_SIZE;
use merchandiser_suite::hm::runtime::Executor;
use merchandiser_suite::hm::workload::testutil::SkewedWorkload;
use merchandiser_suite::hm::{
    CrashPoint, FaultKind, FaultPlan, HmConfig, HmSystem, ObjectSpec, Tier, Wal,
};
use merchandiser_suite::models::{GradientBoostedRegressor, Regressor};
use merchandiser_suite::patterns::ObjectPatternMap;

fn linear_model() -> PerformanceModel {
    let mut f = GradientBoostedRegressor::new(1, 0.1, 1, 0);
    f.fit(&[vec![0.0; 9], vec![1.0; 9]], &[1.0, 1.0]);
    PerformanceModel { f, num_events: 8 }
}

fn app() -> SkewedWorkload {
    SkewedWorkload {
        tasks: 2,
        rounds: 4,
        base_accesses: 1e5,
        obj_bytes: 32 * PAGE_SIZE,
    }
}

fn system(plan: &FaultPlan, seed: u64) -> HmSystem {
    let mut sys = HmSystem::new(HmConfig::calibrated(24 * PAGE_SIZE, 1024 * PAGE_SIZE), seed);
    sys.set_fault_plan(plan.clone()).unwrap();
    sys
}

fn policy(seed: u64) -> MerchandiserPolicy {
    MerchandiserPolicy::new(
        linear_model(),
        ObjectPatternMap::new(),
        Default::default(),
        seed,
    )
}

/// Unique WAL path per invocation (tests run concurrently).
fn wal_path() -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("merch-heal-test-{}-{n}.wal", std::process::id()))
}

/// A fault plan whose every migration attempt fails: any epoch that tries
/// to move at least one page is torn (`pages_failed > pages_moved`), so the
/// whole run exercises the rollback path round after round.
fn all_fail_plan(seed: u64) -> FaultPlan {
    FaultPlan::none()
        .with_seed(seed)
        .with_migration_failures(1.0, 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A torn epoch — one successful move followed by a failure burst that
    /// abandons more pages than the epoch moved — rolls the page table back
    /// to the pre-epoch snapshot bit for bit and keeps the residency
    /// aggregates clean.
    #[test]
    fn torn_epoch_rollback_is_bitwise(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        pages in 8u64..16,
        skew in 1.0f64..2.0,
        promoted in 0u64..4,
        burst in 2u64..4,
        retries in 0u32..3,
        round in 0u64..100,
    ) {
        let mut sys = HmSystem::new(
            HmConfig::calibrated(24 * PAGE_SIZE, 1024 * PAGE_SIZE),
            seed,
        );
        let id = sys
            .allocate(
                &ObjectSpec::new("X", pages * PAGE_SIZE).with_skew(skew),
                Tier::Pm,
            )
            .unwrap();
        // Pre-epoch state: some pages already promoted cleanly.
        sys.migrate_object_pages(id, Tier::Dram, promoted);
        let before = format!("{:?}", sys.page_table());
        let commits_before = (sys.epoch_commits, sys.epoch_rollbacks);

        sys.begin_epoch(round);
        let ok = sys.migrate_object_pages(id, Tier::Dram, 1);
        prop_assert_eq!(ok.pages_moved, 1);
        sys.set_fault_plan(
            FaultPlan::none()
                .with_seed(fault_seed)
                .with_migration_failures(1.0, retries),
        )
        .unwrap();
        let failed = sys.migrate_object_pages(id, Tier::Dram, burst);
        prop_assert_eq!(failed.pages_moved, 0);
        prop_assert_eq!(failed.pages_failed, burst);

        prop_assert_eq!(sys.end_epoch(), EpochOutcome::RolledBack);
        prop_assert_eq!(
            (sys.epoch_commits, sys.epoch_rollbacks),
            (commits_before.0, commits_before.1 + 1)
        );
        // Bitwise rollback: the successful in-epoch move was undone too.
        prop_assert_eq!(format!("{:?}", sys.page_table()), before);
        prop_assert!(sys.page_table().aggregates_clean());
    }

    /// Under a plan whose migrations always fail (so epochs keep rolling
    /// back), a crash at any round boundary followed by WAL restore and
    /// `Executor::resume` replays to a RunReport bit-identical to the
    /// uninterrupted run — rollback state is fully covered by checkpoints.
    #[test]
    fn rollback_heavy_run_resumes_bit_identical(
        seed in 0u64..1000,
        fault_seed in any::<u64>(),
        crash_round in 0u64..4,
    ) {
        let base = all_fail_plan(fault_seed);
        let mut reference_ex = Executor::new(system(&base, seed), app(), policy(seed));
        let reference = reference_ex.run();
        let reference_dbg = format!("{reference:?}");
        // The plan really forces the rollback path: no epoch ever commits.
        prop_assert_eq!(reference.epoch_commits, 0);

        let crash_plan = base.clone().with_fault(FaultKind::Crash {
            round: crash_round,
            point: CrashPoint::BetweenRounds,
        });
        let path = wal_path();
        let mut wal = Wal::create(&path).unwrap();
        let mut ex = Executor::new(system(&crash_plan, seed), app(), policy(seed));
        let outcome = ex.run_supervised(&mut wal);
        drop(wal);
        let resumed_dbg = match outcome {
            Ok(report) => format!("{report:?}"),
            Err(_) => {
                let ck = Wal::latest(&path).unwrap().expect("checkpoint durable");
                let mut ex = Executor::resume(ck, app(), policy(seed)).unwrap();
                format!("{:?}", ex.try_run().unwrap())
            }
        };
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(resumed_dbg, reference_dbg);
    }
}

/// Deterministic witness that the proptest above is not vacuous: with the
/// all-fail plan the skewed workload's run rolls back at least one epoch,
/// and the per-round counters only ever show one epoch per round.
#[test]
fn all_fail_plan_rolls_back_epochs() {
    let seed = 11;
    let report = Executor::new(system(&all_fail_plan(7), seed), app(), policy(seed)).run();
    assert!(
        report.epoch_rollbacks >= 1,
        "migrations all fail, so at least one round's epoch must tear; got {:?}",
        (report.epoch_commits, report.epoch_rollbacks)
    );
    assert_eq!(report.epoch_commits, 0);
    for r in &report.rounds {
        assert!(
            r.epoch_commits + r.epoch_rollbacks <= 1,
            "round {} ran {} epochs",
            r.round,
            r.epoch_commits + r.epoch_rollbacks
        );
    }
    assert!(report.total_time_ns().is_finite());
}
