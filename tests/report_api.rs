//! Behavioural tests of the reporting and API surfaces that the
//! experiments rely on.

use merchandiser_suite::core::homog::HomogeneousPredictor;
use merchandiser_suite::hm::cost::PhaseCost;
use merchandiser_suite::hm::runtime::{RoundReport, RunReport, TaskResult};
use merchandiser_suite::hm::Tier;
use merchandiser_suite::profiling::{similarity_scale, BasicBlockTable};

fn task(t: usize, ns: f64) -> TaskResult {
    TaskResult {
        task: t,
        time_ns: ns,
        cost: PhaseCost {
            time_ns: ns,
            ..Default::default()
        },
    }
}

fn round(times: &[f64]) -> RoundReport {
    RoundReport {
        round: 0,
        tasks: times
            .iter()
            .enumerate()
            .map(|(t, &ns)| task(t, ns))
            .collect(),
        migration_pages: 0,
        migration_attempts: 0,
        failed_pages: 0,
        degraded: false,
        straggler_events: 0,
        watchdog_pages: 0,
        epoch_commits: 0,
        epoch_rollbacks: 0,
        migration_ns: 0.0,
        round_time_ns: times.iter().cloned().fold(0.0, f64::max),
    }
}

#[test]
fn cv_matches_hand_computation() {
    // times 1, 3: mean 2, std 1 → cv 0.5.
    let r = round(&[1.0, 3.0]);
    assert!((r.cv() - 0.5).abs() < 1e-12);
    // Equal times → perfectly balanced.
    assert_eq!(round(&[5.0, 5.0, 5.0]).cv(), 0.0);
    // Single task → no variance by definition.
    assert_eq!(round(&[7.0]).cv(), 0.0);
}

#[test]
fn run_report_aggregates() {
    let report = RunReport {
        workload: "w".into(),
        policy: "p".into(),
        rounds: vec![round(&[1.0, 2.0]), round(&[2.0, 4.0])],
        timeline_samples: vec![],
        avg_dram_gbps: 0.0,
        avg_pm_gbps: 0.0,
        fault: Default::default(),
        epoch_commits: 0,
        epoch_rollbacks: 0,
    };
    assert_eq!(report.total_time_ns(), 6.0);
    // Both rounds have the same 1:2 spread → acv equals either round's cv.
    assert!((report.acv() - round(&[1.0, 2.0]).cv()).abs() < 1e-12);
    let norm = report.normalized_task_times();
    assert_eq!(norm, vec![0.5, 1.0, 0.5, 1.0]);
}

#[test]
fn empty_run_report_is_zero() {
    let report = RunReport {
        workload: "w".into(),
        policy: "p".into(),
        rounds: vec![],
        timeline_samples: vec![],
        avg_dram_gbps: 0.0,
        avg_pm_gbps: 0.0,
        fault: Default::default(),
        epoch_commits: 0,
        epoch_rollbacks: 0,
    };
    assert_eq!(report.total_time_ns(), 0.0);
    assert_eq!(report.acv(), 0.0);
    assert!(report.normalized_task_times().is_empty());
}

#[test]
fn lb_hm_config_size_vector_feeds_similarity() {
    // The §5.2 flow end to end: the sizes of two `LB_HM_config` calls
    // (objects `H` and `PSI`), one with grown inputs, produce the expected
    // similarity scale.
    let base = [100.0, 200.0];
    let grown = [200.0, 400.0];
    let scale = similarity_scale(&base, &grown);
    assert!((scale - 2.0).abs() < 1e-12);
}

#[test]
fn empty_basic_block_table_predicts_zero() {
    let p = HomogeneousPredictor::new(BasicBlockTable::default(), vec![1.0]);
    assert_eq!(p.predict_pm_only(&[1.0]), 0.0);
    assert_eq!(p.predict_dram_only(&[2.0]), 0.0);
}

#[test]
fn tier_display_names() {
    assert_eq!(format!("{}", Tier::Dram), "DRAM");
    assert_eq!(format!("{}", Tier::Pm), "PM");
}
