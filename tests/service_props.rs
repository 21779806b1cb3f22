//! Multi-tenant placement-service properties (DESIGN.md §13): quota
//! residency holds under random tenant mixes and interleavings, a crashing
//! co-tenant never perturbs anyone else's placement output (bitwise vs a
//! solo run), DRR service shares converge to the declared weights, the
//! concurrent tenant-round executor (DESIGN.md §16) reproduces the serial
//! DRR loop bit for bit at every job count, and fault containment
//! (DESIGN.md §17) keeps a panicking tenant's breaker trip invisible to
//! survivors while its state round-trips through the checkpoint frame.

use proptest::prelude::*;

use merchandiser_suite::hm::page::PAGE_SIZE;
use merchandiser_suite::hm::runtime::{Executor, StaticPolicy};
use merchandiser_suite::hm::service::TenantJob;
use merchandiser_suite::hm::workload::testutil::SkewedWorkload;
use merchandiser_suite::hm::{
    BreakerConfig, BreakerFrame, CrashPoint, FaultKind, FaultPlan, HmConfig, HmSystem,
    PlacementService, ServiceConfig, TenantId, TenantSpec, TenantStatus, Tier,
};

/// One drawn tenant: (quota_pages, floor_pct, weight, priority, tasks,
/// rounds, seed).
type Draw = (u64, u64, u32, u8, usize, usize, u64);

fn arb_tenant() -> impl Strategy<Value = Draw> {
    (
        4u64..32,
        30u64..100,
        1u32..5,
        0u8..8,
        1usize..3,
        1usize..5,
        0u64..1_000,
    )
}

/// Executor over the synthetic skewed workload; `tier` is where the static
/// policy drags every page, so `Tier::Dram` puts real pressure on a quota.
fn executor(
    tasks: usize,
    rounds: usize,
    seed: u64,
    tier: Tier,
    plan: Option<FaultPlan>,
) -> Executor<SkewedWorkload, StaticPolicy> {
    let app = SkewedWorkload {
        tasks,
        rounds,
        base_accesses: 1e5,
        obj_bytes: 8 * PAGE_SIZE,
    };
    let mut sys = HmSystem::new(HmConfig::calibrated(64 * PAGE_SIZE, 1024 * PAGE_SIZE), seed);
    if let Some(p) = plan {
        sys.set_fault_plan(p).unwrap();
    }
    Executor::new(sys, app, StaticPolicy { tier })
}

fn spec(i: usize, d: &Draw) -> TenantSpec {
    let (quota, floor_pct, weight, priority, ..) = *d;
    TenantSpec::new(format!("t{i}"), quota * PAGE_SIZE)
        .with_min_quota((quota * floor_pct / 100).max(1) * PAGE_SIZE)
        .with_weight(weight)
        .with_priority(priority)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Quota residency: whatever mix of quotas, floors, weights and
    /// priorities is thrown at one pool — squeezed grants, queueing,
    /// capacity sheds included — no tenant's DRAM residency ever exceeds
    /// its grant, initial grants never over-commit the pool, and every
    /// tenant reaches a terminal state.
    #[test]
    fn quota_residency_under_random_interleavings(
        draws in proptest::collection::vec(arb_tenant(), 1..6),
        pool_pages in 8u64..48,
    ) {
        let mut svc = PlacementService::new(
            ServiceConfig::new(pool_pages * PAGE_SIZE).with_seed(pool_pages),
        );
        for (i, d) in draws.iter().enumerate() {
            // DRAM-hungry tenants: the static policy drags every page into
            // DRAM, so the grant is the only thing bounding residency.
            let job = executor(d.4, d.5, d.6, Tier::Dram, None);
            svc.submit(spec(i, d), Box::new(job)).unwrap();
        }
        let rep = svc.run();
        prop_assert_eq!(rep.quota_violations, 0);
        let mut initial_grants = 0u64;
        for t in &rep.tenants {
            prop_assert!(t.granted_quota <= t.requested_quota);
            prop_assert!(
                !matches!(t.status, TenantStatus::Queued | TenantStatus::Running),
                "tenant {} not terminal: {:?}", t.name, t.status
            );
            if t.status == TenantStatus::Completed {
                prop_assert_eq!(t.rounds_done, t.rounds_total);
            }
            if t.admitted_at_ns == 0.0 {
                initial_grants += t.granted_quota;
            }
        }
        prop_assert!(
            initial_grants <= pool_pages * PAGE_SIZE,
            "initial grants {} over-commit pool {}", initial_grants, pool_pages * PAGE_SIZE
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fault isolation: one tenant runs under a chaos plan (scripted crash
    /// plus flaky migrations and co-tenant pressure) and gets quarantined;
    /// every other tenant's full per-round run report stays bitwise
    /// identical to a solo run of the same executor under the same grant.
    #[test]
    fn crash_isolates_to_the_faulted_tenant(
        n in 2usize..5,
        faulted in 0usize..4,
        crash_round in 0u64..3,
        seed in 0u64..1_000,
    ) {
        let faulted = faulted % n;
        let rounds = 4usize;
        let quota_pages = 16u64;
        // Pool fits everyone at full grant: isolation, not admission, is
        // under test here.
        let pool = quota_pages * n as u64 * PAGE_SIZE;
        let tier = |i: usize| {
            if i.is_multiple_of(2) {
                Tier::Dram
            } else {
                Tier::Pm
            }
        };
        let plan = |i: usize| {
            (i == faulted).then(|| {
                let mut p = FaultPlan::none().with_fault(FaultKind::Crash {
                    round: crash_round,
                    point: CrashPoint::BetweenRounds,
                });
                p.seed = seed ^ 0xC4A5;
                p.migration_fail_rate = 0.3;
                p.dram_pressure_bytes = 4 * PAGE_SIZE;
                p.pressure_period_rounds = 2;
                p
            })
        };
        let mut svc = PlacementService::new(ServiceConfig::new(pool).with_seed(seed));
        for i in 0..n {
            let d: Draw = (quota_pages, 50, 1, 0, 2, rounds, seed ^ (i as u64) << 4);
            let job = executor(d.4, d.5, d.6, tier(i), plan(i));
            svc.submit(spec(i, &d), Box::new(job)).unwrap();
        }
        let rep = svc.run();
        prop_assert!(
            matches!(rep.tenants[faulted].status, TenantStatus::Quarantined { .. }),
            "faulted tenant ended {:?}", rep.tenants[faulted].status
        );
        for i in (0..n).filter(|&i| i != faulted) {
            prop_assert_eq!(rep.tenants[i].status, TenantStatus::Completed);
            let served = format!("{:?}", svc.tenant_run_report(TenantId(i as u32)));
            let mut solo = executor(2, rounds, seed ^ (i as u64) << 4, tier(i), None);
            solo.sys.set_dram_quota(Some(rep.tenants[i].granted_quota));
            let solo_rep = format!("{:?}", solo.try_run().unwrap());
            prop_assert_eq!(
                &served, &solo_rep,
                "tenant {i} diverged from its solo baseline"
            );
        }
    }
}

/// Serializes tests that flip the process-global scheduler job count.
static POOL_JOBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Concurrent tenant rounds are bitwise invisible: running the same
    /// tenant mix — chaos co-tenant with a scripted crash (between rounds
    /// or mid-migration), flaky migrations, and DRAM pressure included —
    /// at scheduler jobs 2 and 8 yields a `ServiceReport` and per-tenant
    /// run reports `{:?}`-identical to the serial (jobs = 1) DRR loop.
    #[test]
    fn concurrent_rounds_bitwise_match_serial(
        draws in proptest::collection::vec(arb_tenant(), 2..6),
        faulted in 0usize..8,
        crash_round in 0u64..3,
        mid_migration in 0u8..2,
        pool_pages in 24u64..64,
        seed in 0u64..1_000,
    ) {
        let _g = POOL_JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let faulted = faulted % draws.len();
        let run_at = |jobs: usize| {
            merch_sched::set_pool_jobs(jobs);
            let mut svc = PlacementService::new(
                ServiceConfig::new(pool_pages * PAGE_SIZE).with_seed(seed),
            );
            for (i, d) in draws.iter().enumerate() {
                let plan = (i == faulted).then(|| {
                    let point = if mid_migration == 1 {
                        CrashPoint::MidMigration { after_attempts: 1 }
                    } else {
                        CrashPoint::BetweenRounds
                    };
                    let mut p = FaultPlan::none().with_fault(FaultKind::Crash {
                        round: crash_round,
                        point,
                    });
                    p.seed = seed ^ 0xC4A5;
                    p.migration_fail_rate = 0.3;
                    p.dram_pressure_bytes = 4 * PAGE_SIZE;
                    p.pressure_period_rounds = 2;
                    p
                });
                let tier = if i.is_multiple_of(2) { Tier::Dram } else { Tier::Pm };
                let job = executor(d.4, d.5, d.6, tier, plan);
                svc.submit(spec(i, d), Box::new(job)).unwrap();
            }
            let rep = svc.run();
            merch_sched::set_pool_jobs(0);
            let runs: Vec<String> = (0..draws.len())
                .map(|i| format!("{:?}", svc.tenant_run_report(TenantId(i as u32))))
                .collect();
            (format!("{rep:?}"), runs)
        };
        let serial = run_at(1);
        let two = run_at(2);
        let eight = run_at(8);
        prop_assert_eq!(&two, &serial, "jobs=2 diverged from the serial loop");
        prop_assert_eq!(&eight, &serial, "jobs=8 diverged from the serial loop");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fault containment (DESIGN.md §17): one tenant panics at a round
    /// boundary, its circuit breaker trips and recovers through a Half-Open
    /// probe — and at every job count the outcome is identical: the victim
    /// completes with exactly one trip, and every survivor's per-round
    /// output stays bitwise equal to a solo run under the same grant.
    #[test]
    fn contained_panic_leaves_survivors_bitwise_solo(
        draws in proptest::collection::vec(arb_tenant(), 2..5),
        victim in 0usize..8,
        panic_round in 0u64..3,
        seed in 0u64..1_000,
    ) {
        let _g = POOL_JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let victim = victim % draws.len();
        // Capacity pool: everyone admits at full grant, so survivor
        // divergence can only come from the victim's contained fault.
        let pool: u64 = draws.iter().map(|d| d.0).sum::<u64>() * PAGE_SIZE;
        let tier = |i: usize| {
            if i.is_multiple_of(2) {
                Tier::Dram
            } else {
                Tier::Pm
            }
        };
        let run_at = |jobs: usize| {
            merch_sched::set_pool_jobs(jobs);
            let mut svc = PlacementService::new(ServiceConfig::new(pool).with_seed(seed));
            for (i, d) in draws.iter().enumerate() {
                // Panic inside the declared rounds, so it always fires.
                let plan = (i == victim)
                    .then(|| FaultPlan::none().with_tenant_panic(panic_round % d.5 as u64));
                let job = executor(d.4, d.5, d.6, tier(i), plan);
                svc.submit(spec(i, d), Box::new(job)).unwrap();
            }
            let rep = svc.run();
            merch_sched::set_pool_jobs(0);
            let runs: Vec<String> = (0..draws.len())
                .map(|i| format!("{:?}", svc.tenant_run_report(TenantId(i as u32))))
                .collect();
            (rep, runs)
        };
        let (rep, runs) = run_at(1);
        for jobs in [3usize, 8] {
            let (rep_j, runs_j) = run_at(jobs);
            prop_assert_eq!(
                format!("{:?}", &rep_j), format!("{:?}", &rep),
                "jobs={} report diverged from the serial loop", jobs
            );
            prop_assert_eq!(&runs_j, &runs, "jobs={} runs diverged", jobs);
        }
        let vt = &rep.tenants[victim];
        prop_assert_eq!(vt.status, TenantStatus::Completed);
        prop_assert_eq!(vt.breaker_trips, 1);
        prop_assert_eq!(vt.rounds_done, vt.rounds_total);
        prop_assert!(vt.fault.tenant_panics > 0);
        prop_assert_eq!(rep.quota_violations, 0);
        for i in (0..draws.len()).filter(|&i| i != victim) {
            prop_assert_eq!(rep.tenants[i].status, TenantStatus::Completed);
            prop_assert_eq!(rep.tenants[i].breaker_trips, 0);
            let d = &draws[i];
            let mut solo = executor(d.4, d.5, d.6, tier(i), None);
            solo.sys.set_dram_quota(Some(rep.tenants[i].granted_quota));
            let solo_rep = format!("{:?}", solo.try_run().unwrap());
            prop_assert_eq!(
                &runs[i], &solo_rep,
                "tenant {} diverged from its solo baseline", i
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Breaker persistence (DESIGN.md §17): any reachable breaker frame —
    /// driven by a random strike/success/open history — survives the
    /// checkpoint frame bit-identically, and the restored executor replays
    /// its remaining rounds bit for bit.
    #[test]
    fn breaker_frame_survives_checkpoint_roundtrip(
        ops in proptest::collection::vec(0u8..4, 0..16),
        now_step in 0u64..50,
        stepped in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let cfg = BreakerConfig::default();
        let mut frame = BreakerFrame::default();
        for op in ops {
            match op {
                0 => frame.on_success(),
                1 => { frame.on_strike(&cfg); }
                2 => frame.open(now_step, &cfg),
                _ => frame.begin_probe(&cfg),
            }
        }
        let rounds = 4;
        let mut ex = executor(2, rounds, seed, Tier::Dram, None);
        for _ in 0..stepped {
            ex.step().unwrap();
        }
        let text = TenantJob::checkpoint_text(&ex, &frame);
        let mut ex2 = executor(2, rounds, seed, Tier::Dram, None);
        for _ in 0..stepped {
            ex2.step().unwrap();
        }
        let back = TenantJob::restore_text(&mut ex2, &text).unwrap();
        prop_assert_eq!(format!("{frame:?}"), format!("{back:?}"));
        let a = format!("{:?}", ex.try_run().unwrap());
        let b = format!("{:?}", ex2.try_run().unwrap());
        prop_assert_eq!(a, b, "restored executor diverged from the original");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// DRR convergence: tenants with identical per-round work and rounds
    /// proportional to weight get weight-proportional service (Jain index
    /// of weight-normalised service ≈ 1), and with equal work a heavier
    /// tenant never finishes after a lighter one.
    #[test]
    fn drr_share_converges_to_weights(
        weights in proptest::collection::vec(1u32..5, 2..5),
        seed in 0u64..1_000,
    ) {
        // Rounds ∝ weight, identical seed → every round costs the same, so
        // weight-proportional scheduling serves weight-proportional time.
        let pool = 16 * weights.len() as u64 * PAGE_SIZE;
        let mut svc = PlacementService::new(ServiceConfig::new(pool).with_seed(seed));
        for (i, &w) in weights.iter().enumerate() {
            let job = executor(2, 3 * w as usize, seed, Tier::Pm, None);
            svc.submit(
                TenantSpec::new(format!("t{i}"), 16 * PAGE_SIZE).with_weight(w),
                Box::new(job),
            )
            .unwrap();
        }
        let rep = svc.run();
        prop_assert_eq!(rep.completed, weights.len() as u64);
        prop_assert!(
            rep.fairness_jain > 0.999,
            "weight-normalised shares unfair: jain {}", rep.fairness_jain
        );

        // Equal work, unequal weights: completion order follows weight.
        let mut svc = PlacementService::new(ServiceConfig::new(pool).with_seed(seed));
        for (i, &w) in weights.iter().enumerate() {
            let job = executor(2, 6, seed, Tier::Pm, None);
            svc.submit(
                TenantSpec::new(format!("e{i}"), 16 * PAGE_SIZE).with_weight(w),
                Box::new(job),
            )
            .unwrap();
        }
        let rep = svc.run();
        for a in &rep.tenants {
            for b in &rep.tenants {
                if a.weight > b.weight {
                    prop_assert!(
                        a.finished_at_ns <= b.finished_at_ns,
                        "weight {} finished after weight {}", a.weight, b.weight
                    );
                }
            }
        }
    }
}
