//! Checkpoint/restart properties: crash → restore → replay must reproduce
//! the uninterrupted run bit for bit, across apps, seeds, fault plans and
//! crash points (round boundaries and mid-migration-batch), the policy
//! state blob must round-trip losslessly, the bandwidth timeline a
//! checkpoint rebuilds from its completed rounds must equal the live one,
//! and format v7 is pinned byte for byte.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use merchandiser_suite::core::perfmodel::PerformanceModel;
use merchandiser_suite::core::policy::MerchandiserPolicy;
use merchandiser_suite::hm::checkpoint::fnv1a64;
use merchandiser_suite::hm::page::PAGE_SIZE;
use merchandiser_suite::hm::runtime::{Executor, PlacementPolicy, StaticPolicy, WatchdogConfig};
use merchandiser_suite::hm::workload::testutil::SkewedWorkload;
use merchandiser_suite::hm::{
    Checkpoint, CrashPoint, FaultKind, FaultPlan, HmConfig, HmSystem, Tier, Wal,
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
    std::env::temp_dir().join(format!("merch-ckpt-test-{}-{n}.wal", std::process::id()))
}

fn arb_base_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0.0f64..0.4,
        0u32..4,
        0.0f64..0.4,
        0.0f64..0.4,
        0.0f64..0.5,
    )
        .prop_map(|(seed, fail, retries, pte, pmc, ckpt)| {
            FaultPlan::none()
                .with_seed(seed)
                .with_migration_failures(fail, retries)
                .with_sample_dropout(pte, pmc)
                .with_checkpoint_write_failures(ckpt)
        })
}

fn arb_crash_point() -> impl Strategy<Value = CrashPoint> {
    prop_oneof![
        Just(CrashPoint::BetweenRounds),
        (0u64..3).prop_map(|after_attempts| CrashPoint::MidMigration { after_attempts }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Crash at any round boundary or inside any migration batch, restore
    /// the last durable checkpoint, replay: the resumed RunReport (including
    /// its FaultSummary) equals the uninterrupted run's bit for bit.
    #[test]
    fn crash_restore_replay_is_bit_identical(
        base in arb_base_plan(),
        crash_round in 0u64..4,
        point in arb_crash_point(),
        seed in 0u64..1000,
    ) {
        // Uninterrupted reference: same plan, no crash.
        let reference = Executor::new(system(&base, seed), app(), policy(seed)).run();
        let reference_dbg = format!("{reference:?}");

        let crash_plan = base.clone().with_fault(FaultKind::Crash { round: crash_round, point });
        let path = wal_path();
        let mut wal = Wal::create(&path).unwrap();
        let mut ex = Executor::new(system(&crash_plan, seed), app(), policy(seed));
        let outcome = ex.run_supervised(&mut wal);
        drop(wal);

        let resumed_dbg = match outcome {
            // The scripted crash never triggered (e.g. mid-migration point
            // in a round that migrated nothing): the supervised run itself
            // must already match.
            Ok(report) => format!("{report:?}"),
            Err(_) => {
                match Wal::latest(&path).unwrap() {
                    Some(ck) => {
                        let mut ex = Executor::resume(ck, app(), policy(seed)).unwrap();
                        format!("{:?}", ex.try_run().unwrap())
                    }
                    // Every checkpoint write was skipped by injected IO
                    // failures: a cold restart replays from scratch.
                    None => {
                        let mut sys = system(&crash_plan, seed);
                        sys.disarm_crash();
                        format!("{:?}", Executor::new(sys, app(), policy(seed)).run())
                    }
                }
            }
        };
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(resumed_dbg, reference_dbg);
    }

    /// The Merchandiser state blob round-trips: save → restore into a fresh
    /// policy → save again yields the identical blob, at every boundary.
    #[test]
    fn policy_state_blob_roundtrips(seed in 0u64..1000, rounds in 1usize..5) {
        let mut ex = Executor::new(
            system(&FaultPlan::none(), seed),
            SkewedWorkload { tasks: 2, rounds, base_accesses: 1e5, obj_bytes: 32 * PAGE_SIZE },
            policy(seed),
        );
        let _ = ex.run();
        let blob = ex.policy.save_state();
        let mut fresh = policy(seed);
        fresh.restore_state(&blob).unwrap();
        prop_assert_eq!(fresh.save_state(), blob);
    }
}

/// Deterministic instance of the property: a crash inside a migration batch
/// on round 1 (where Merchandiser migrates heavily) recovers bit-identically.
#[test]
fn midmig_crash_recovers_exactly() {
    let seed = 11;
    let plan = FaultPlan::none().with_seed(seed);
    let reference = Executor::new(system(&plan, seed), app(), policy(seed)).run();

    let crash_plan = plan.clone().with_fault(FaultKind::Crash {
        round: 1,
        point: CrashPoint::MidMigration { after_attempts: 1 },
    });
    let path = wal_path();
    let mut wal = Wal::create(&path).unwrap();
    let mut ex = Executor::new(system(&crash_plan, seed), app(), policy(seed));
    let outcome = ex.run_supervised(&mut wal);
    assert!(
        outcome.is_err(),
        "round 1 migrates pages, the crash must fire"
    );
    drop(wal);

    let ck = Wal::latest(&path).unwrap().expect("checkpoint durable");
    assert_eq!(ck.next_round, 1, "rounds before the crash are durable");
    let mut ex = Executor::resume(ck, app(), policy(seed)).unwrap();
    let resumed = ex.try_run().unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(format!("{resumed:?}"), format!("{reference:?}"));
}

/// Restore drops the transient compiled ensemble (it is never part of the
/// state blob), and the resumed replay rebuilds it on the first plan: after
/// recovery the policy's compiled fingerprint matches the interpreted
/// model's, proving the bit-identical replay really ran through the
/// compiled fast path rather than silently falling back.
#[test]
fn recovery_replays_through_compiled_inference() {
    use merchandiser_suite::core::perfmodel::Eq2Model;

    let seed = 13;
    let plan = FaultPlan::none().with_seed(seed);
    let reference = Executor::new(system(&plan, seed), app(), policy(seed)).run();

    let crash_plan = plan.clone().with_fault(FaultKind::Crash {
        round: 1,
        point: CrashPoint::BetweenRounds,
    });
    let path = wal_path();
    let mut wal = Wal::create(&path).unwrap();
    let mut ex = Executor::new(system(&crash_plan, seed), app(), policy(seed));
    ex.run_supervised(&mut wal).unwrap_err();
    drop(wal);

    let ck = Wal::latest(&path).unwrap().expect("checkpoint durable");
    let restored = policy(seed);
    assert_eq!(
        restored.compiled_fingerprint(),
        None,
        "a freshly restored policy has no compilation yet"
    );
    let mut ex = Executor::resume(ck, app(), restored).unwrap();
    let resumed = ex.try_run().unwrap();
    let _ = std::fs::remove_file(&path);

    assert_eq!(
        ex.policy.compiled_fingerprint(),
        Some(Eq2Model::fingerprint(&linear_model())),
        "the replay must have planned through the compiled ensemble"
    );
    assert_eq!(format!("{resumed:?}"), format!("{reference:?}"));
}

/// The straggler watchdog (tight slack) fires on the skewed workload,
/// re-plans in-round, and the run still completes with finite times.
#[test]
fn watchdog_fires_and_run_completes() {
    let seed = 5;
    let mut ex = Executor::new(
        system(&FaultPlan::none(), seed),
        SkewedWorkload {
            tasks: 2,
            rounds: 6,
            base_accesses: 1e5,
            obj_bytes: 32 * PAGE_SIZE,
        },
        policy(seed),
    )
    .with_watchdog(WatchdogConfig { slack: 0.05 });
    let report = ex.run();
    let events: u64 = report.rounds.iter().map(|r| r.straggler_events).sum();
    assert!(events > 0, "a 0.05 slack must flag stragglers");
    assert!(report.total_time_ns().is_finite());
    // Watchdog interventions never increase a round beyond what was observed.
    for r in &report.rounds {
        assert!(r.round_time_ns.is_finite() && r.round_time_ns > 0.0);
    }
}

/// Default executor (no watchdog) reports zero straggler events — the
/// watchdog is strictly opt-in and leaves existing outputs untouched.
#[test]
fn watchdog_off_by_default() {
    let seed = 5;
    let report = Executor::new(system(&FaultPlan::none(), seed), app(), policy(seed)).run();
    for r in &report.rounds {
        assert_eq!(r.straggler_events, 0);
        assert_eq!(r.watchdog_pages, 0);
    }
}

/// Step `ex` to the end; at every round boundary (the first included) the
/// timeline decoded from the encoded checkpoint must `{:?}`-equal the live
/// one, and the payload must carry no `bin` line.
fn assert_timeline_rebuilds_at_every_boundary<W, P>(ex: &mut Executor<W, P>)
where
    W: merchandiser_suite::hm::workload::Workload,
    P: PlacementPolicy + Sync,
{
    loop {
        let text = ex.checkpoint().encode();
        assert!(
            !text.lines().any(|l| l.starts_with("bin ")),
            "round {}: a checkpoint carries no timeline bins",
            ex.next_round()
        );
        let back = Checkpoint::decode(&text).unwrap();
        assert_eq!(
            format!("{:?}", back.timeline),
            format!("{:?}", ex.timeline),
            "round {}",
            ex.next_round()
        );
        if ex.step().unwrap().is_none() {
            break;
        }
    }
}

fn long_app() -> SkewedWorkload {
    SkewedWorkload {
        tasks: 3,
        rounds: 8,
        base_accesses: 4e5,
        obj_bytes: 32 * PAGE_SIZE,
    }
}

/// The timeline rebuilt from the completed rounds equals the live one under
/// telemetry blackouts, a tenant stall and the straggler watchdog.
#[test]
fn timeline_rebuilds_from_completed_rounds_at_every_boundary() {
    let seed = 17;
    let plans = [
        FaultPlan::none().with_seed(seed),
        FaultPlan::none()
            .with_seed(seed)
            .with_telemetry_blackout(0.5),
        FaultPlan::none()
            .with_seed(seed)
            .with_tenant_stall(2, 3)
            .with_telemetry_blackout(0.3),
        FaultPlan::none()
            .with_seed(seed)
            .with_migration_failures(0.2, 2)
            .with_telemetry_blackout(0.4),
    ];
    let mut lost = 0;
    for plan in &plans {
        for watchdog in [None, Some(WatchdogConfig { slack: 0.05 })] {
            let mut ex = Executor::new(system(plan, seed), long_app(), policy(seed));
            if let Some(wd) = watchdog {
                ex = ex.with_watchdog(wd);
            }
            assert_timeline_rebuilds_at_every_boundary(&mut ex);
            lost += ex.report().fault.blacked_out_bins;
        }
    }
    assert!(lost > 0, "the blackout plans must lose bins");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same over random fault plans, stall windows and seeds.
    #[test]
    fn timeline_rebuild_is_exact_under_random_plans(
        base in arb_base_plan(),
        blackout in 0.0f64..0.6,
        stall in any::<bool>(),
        stall_round in 0u64..6,
        stall_rounds in 1u64..4,
        watchdog in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let mut plan = base.with_telemetry_blackout(blackout);
        if stall {
            plan = plan.with_tenant_stall(stall_round, stall_rounds);
        }
        let mut ex = Executor::new(system(&plan, seed), long_app(), policy(seed));
        if watchdog {
            ex = ex.with_watchdog(WatchdogConfig { slack: 0.05 });
        }
        assert_timeline_rebuilds_at_every_boundary(&mut ex);
    }
}

/// fnv1a64 of `Checkpoint::encode()` and of its policy blob at every round
/// boundary (the first included) of `ex`, checking on the way that each
/// payload decodes and re-encodes to the same bytes.
fn boundary_hashes<P: PlacementPolicy + Sync>(
    mut ex: Executor<SkewedWorkload, P>,
) -> (Vec<u64>, Vec<u64>, String) {
    let (mut payloads, mut blobs) = (Vec::new(), Vec::new());
    loop {
        let ck = ex.checkpoint();
        let text = ck.encode();
        assert_eq!(Checkpoint::decode(&text).unwrap().encode(), text);
        payloads.push(fnv1a64(text.as_bytes()));
        blobs.push(fnv1a64(ck.policy_state.as_bytes()));
        if ex.step().unwrap().is_none() {
            return (payloads, blobs, text);
        }
    }
}

/// Checkpoint format v7, byte for byte: a fault-armed, watchdog-on run
/// under Merchandiser and under a static policy, hashed at every round
/// boundary. The hashes were taken from the decoder before it moved onto
/// the shared field cursor, so a codec change that moves a byte fails
/// here; the Merchandiser ones were re-taken once for policy blob
/// `merchpolicy 4`.
#[test]
fn checkpoint_bytes_are_pinned() {
    const MERCHANDISER: [u64; 9] = [
        0x7231_594f_b3ba_9a0b,
        0x3b44_b90a_a062_1e66,
        0x6da8_f007_3554_9c8d,
        0x6a1f_9a06_73ef_dc1a,
        0x3c01_4bb2_29c5_7674,
        0x5385_c0af_9152_a4da,
        0xc9f4_9df3_8244_9755,
        0xbb07_c77a_ba6a_778f,
        0xf343_53b1_56c3_7602,
    ];
    const POLICY_BLOB: [u64; 9] = [
        0x8354_2960_e856_efab,
        0x1bd1_5767_1e87_8b2b,
        0xa41e_fd1e_2767_90fc,
        0x4bb4_d983_b6da_9548,
        0xe4c7_fddb_2463_5058,
        0xb82b_7a1d_186a_a017,
        0x286d_9e97_69e3_b583,
        0xa274_5b89_4536_1d10,
        0x0134_b67c_2728_e400,
    ];
    const STATIC: [u64; 9] = [
        0xd6c8_504e_8ccd_ff44,
        0x79bd_a1c9_8f0d_4cd6,
        0xce80_4a30_0d07_e8a6,
        0xd0d3_7f8d_e6e6_cb94,
        0xcb5e_9799_d8c8_6213,
        0x7b24_498b_aec5_01c7,
        0xc6aa_60ce_bbf8_3a1d,
        0xf1f3_26f2_209f_a032,
        0xd3a0_ee39_dba7_02b4,
    ];
    let seed = 23;
    let plan = FaultPlan::none()
        .with_seed(seed)
        .with_migration_failures(0.2, 2)
        .with_sample_dropout(0.1, 0.1)
        .with_dram_pressure(4 * PAGE_SIZE, 3)
        .with_telemetry_blackout(0.3)
        .with_checkpoint_write_failures(0.25)
        .with_page_poison(0.2)
        .with_degradation(Tier::Pm, 4, 1.5, 0.75)
        .with_dram_offlining(3, 2 * PAGE_SIZE)
        .with_tenant_stall(5, 2);
    let watchdog = WatchdogConfig { slack: 0.05 };
    let merchandiser =
        Executor::new(system(&plan, seed), long_app(), policy(seed)).with_watchdog(watchdog);
    let (payloads, blobs, last) = boundary_hashes(merchandiser);
    assert_eq!(payloads, MERCHANDISER);
    assert_eq!(blobs, POLICY_BLOB);
    // The pinned payloads carry the scripted fault token, lost timeline
    // bins, watchdog interventions and the policy's per-task profiles.
    assert!(last.contains(" stall 5 2\n"), "{last}");
    let back = Checkpoint::decode(&last).unwrap();
    assert!(back.completed.iter().any(|r| r.straggler_events > 0));
    assert!(back.sys.fault_stats().blacked_out_bins > 0);
    let pinned = StaticPolicy { tier: Tier::Dram };
    let fixed = Executor::new(system(&plan, seed), long_app(), pinned).with_watchdog(watchdog);
    let (payloads, blobs, _) = boundary_hashes(fixed);
    assert_eq!(payloads, STATIC);
    assert!(
        blobs.iter().all(|&h| h == fnv1a64(b"")),
        "a static policy has no blob"
    );
}
