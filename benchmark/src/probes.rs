//! Per-layer values of the traced run.
//!
//! Three sources. *Spans* of the traced cycles give the layers the wrappers
//! can see from outside: policy hooks, replay, the executor's own share of a
//! round, the checkpoint loop, the service. *Counts* come from the reports.
//! Layers that run nested inside `before_round` cannot be wrapped from
//! outside the product crates, so *probes* time their public functions
//! after the traced cycles, on the real end state of the workload's own
//! executors: each distinct executor of the workload is run once more to its
//! last round and the layer is called on what that leaves behind (on a clone
//! where the call mutates).
//!
//! Every probe value is the mean over the workload's distinct executors. A
//! layer the workload's timed passes never enter — the service for a solo
//! workload, the model for static tenants — is still probed on the
//! workload's inputs, so every metric is a measurement on every workload;
//! the README says which layers each workload's passes exercise.

use std::hint::black_box;
use std::time::Instant;

use merch_hm::cost::{task_cost, UniformPlacement};
use merch_hm::{expand_hot_runs_top_k, CandidateRun, Checkpoint, Executor, PageId, Tier, Wal};
use merch_profiling::{BasicBlockTable, PmcGenerator};
use merch_sched::TaskClass;
use merchandiser::allocator::{plan_dram_accesses_cached, AllocatorInput, CurveCache, TaskInput};
use merchandiser::PerformanceModel;

use crate::inputs;
use crate::measure::TracedView;
use crate::metrics::Values;
use crate::stats::{mean, median};
use crate::trace::{Summary, ROOT};
use crate::workloads::{Bench, Kind};
use crate::wrap::Exec;

/// Seconds `f` takes, median of `reps` calls.
fn median_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// The workload's distinct executors: every member of a solo workload, the
/// first tenant of each application of a tenant mix.
fn probe_members(bench: &Bench) -> Vec<usize> {
    let members = &bench.setup.members;
    match bench.kind {
        Kind::Service => (0..members.len())
            .filter(|&i| {
                members[..i]
                    .iter()
                    .all(|m| m.rec.name != members[i].rec.name)
            })
            .collect(),
        _ => (0..members.len()).collect(),
    }
}

/// Values of one probed executor, one entry per probe metric.
type Probed = Values;

fn probe_page_engine(ex: &Exec, p: &mut Probed) {
    let pt = ex.sys.page_table();
    let pages = pt.len() as u64;
    p.insert("hm.page.pages", pages as f64);
    p.insert("hm.page.runs", pt.num_extents() as f64);

    let sweeps = (200_000 / pages.max(1)).clamp(1, 2_000);
    let t = Instant::now();
    for _ in 0..sweeps {
        for id in 0..pages {
            black_box(pt.get(black_box(id)));
        }
    }
    p.insert(
        "hm.page.get_ns_per_page",
        t.elapsed().as_nanos() as f64 / (sweeps * pages.max(1)) as f64,
    );
    let t = Instant::now();
    for _ in 0..sweeps {
        black_box(pt.iter().map(|(_, info)| info.weight()).sum::<f64>());
    }
    p.insert(
        "hm.page.iter_ns_per_page",
        t.elapsed().as_nanos() as f64 / (sweeps * pages.max(1)) as f64,
    );

    // The selection `migrate_object_pages` makes: whole extents off DRAM,
    // scored by weight, expanded to the hottest pages.
    let candidates: Vec<CandidateRun> = pt
        .runs()
        .filter(|r| r.info.tier() != Tier::Dram)
        .map(|r| (r.start, r.len, r.info.weight()))
        .collect();
    let k = (pages as usize / 100).max(1);
    let mut copies: Vec<Vec<CandidateRun>> = (0..9).map(|_| candidates.clone()).collect();
    p.insert(
        "hm.topk.hot_1pct_us",
        median_secs(copies.len(), || {
            expand_hot_runs_top_k(copies.pop().expect("one copy per call"), k)
        }) * 1e6,
    );

    // Promote the hottest 5 % of the pages that are off DRAM (a full DRAM
    // makes room by evicting, as in a round); when everything already sits
    // on DRAM, demote the first 5 % instead.
    let k = (pages as usize / 20).max(1);
    let mut moved: Vec<PageId> = expand_hot_runs_top_k(candidates, k)
        .into_iter()
        .map(|(id, _)| id)
        .collect();
    let to = if moved.is_empty() {
        moved = (0..pages.min(k as u64)).collect();
        Tier::Pm
    } else {
        Tier::Dram
    };
    let mut clones: Vec<_> = (0..3).map(|_| ex.sys.clone()).collect();
    let secs = median_secs(clones.len(), || {
        clones
            .pop()
            .expect("one clone per call")
            .migrate_pages(moved.iter().copied(), to)
    });
    p.insert(
        "hm.page.migrate_us_per_kpage",
        secs * 1e6 * 1e3 / moved.len().max(1) as f64,
    );
}

fn probe_checkpoint(
    bench: &Bench,
    idx: usize,
    ex: &Exec,
    model: &PerformanceModel,
    p: &mut Probed,
) -> Result<(), String> {
    p.insert(
        "core.policy.state_bytes",
        ex.policy.inner.save_state().len() as f64,
    );
    p.insert(
        "hm.checkpoint.snapshot_ms",
        median_secs(3, || ex.checkpoint()) * 1e3,
    );
    let ck = ex.checkpoint();
    let text = ck.encode();
    p.insert("hm.checkpoint.bytes_per_record", text.len() as f64);
    p.insert(
        "hm.checkpoint.decode_ms",
        median_secs(3, || Checkpoint::decode(&text).is_ok()) * 1e3,
    );
    let path = bench.out_dir.join("probe.wal");
    let mut wal = Wal::create(&path).map_err(|e| e.to_string())?;
    let mut appended = true;
    p.insert(
        "hm.checkpoint.wal_append_ms",
        median_secs(3, || appended &= wal.append(&ck, None).unwrap_or(false)) * 1e3,
    );
    if !appended {
        return Err("a WAL append did not reach the file".into());
    }
    // Recovery from that WAL of three end-state records: scan, decode,
    // rebuild the executor.
    let m = &bench.setup.members[idx];
    let t = Instant::now();
    let latest = Wal::latest(&path)
        .map_err(|e| e.to_string())?
        .ok_or("the probe WAL holds no record")?;
    let (workload, policy) = m.resume_parts(Some(model), None, idx as u32);
    let resumed = Executor::resume(latest, workload, policy).map_err(|e| e.to_string())?;
    p.insert("hm.checkpoint.recover_ms", t.elapsed().as_secs_f64() * 1e3);
    if resumed.next_round() != ex.next_round() {
        return Err("the resumed executor sits at another round".into());
    }
    std::fs::remove_file(&path).map_err(|e| e.to_string())
}

/// Profilers, compiled inference and Algorithm 1 on the executor's round-0
/// works, the inputs the policy profiles them on.
fn probe_planning(bench: &Bench, idx: usize, ex: &Exec, model: &PerformanceModel, p: &mut Probed) {
    let works = &bench.setup.members[idx].rec.works[0];
    let config = &ex.sys.config;
    let sizes: Vec<u64> = ex.sys.objects().iter().map(|o| o.size).collect();
    let n = works.len().max(1);
    let pmc = PmcGenerator::new(bench.seed ^ 0x50C0);

    let secs = median_secs(5, || {
        works
            .iter()
            .map(|w| pmc.collect(config, w, &sizes, n))
            .collect::<Vec<_>>()
    });
    p.insert("profiling.pmc.collect_us_per_task", secs * 1e6 / n as f64);
    let secs = median_secs(5, || {
        works
            .iter()
            .map(|w| BasicBlockTable::measure(config, w, &sizes, n))
            .collect::<Vec<_>>()
    });
    p.insert(
        "profiling.bbtimer.measure_us_per_task",
        secs * 1e6 / n as f64,
    );

    let pm_view = UniformPlacement::new(sizes.clone(), 0.0);
    let tasks: Vec<TaskInput> = works
        .iter()
        .map(|w| {
            let table = BasicBlockTable::measure(config, w, &sizes, n);
            let bytes = w
                .phases
                .iter()
                .flat_map(|ph| ph.accesses.iter())
                .map(|a| sizes.get(a.object.0 as usize).copied().unwrap_or(0))
                .sum();
            TaskInput {
                task: w.task,
                d_pm_only_ns: table.predict(Tier::Pm, 1.0),
                d_dram_only_ns: table.predict(Tier::Dram, 1.0),
                events: pmc.collect(config, w, &sizes, n),
                total_accesses: task_cost(config, w, &pm_view, n).total_accesses(),
                bytes,
            }
        })
        .collect();

    let compiled = model.compile();
    let t0 = &tasks[0];
    let grid: Vec<f64> = (0..=20).map(|k| k as f64 * 0.05).collect();
    let sweeps = 200;
    let t = Instant::now();
    for _ in 0..sweeps {
        for &r in &grid {
            black_box(compiled.predict(
                t0.d_pm_only_ns,
                t0.d_dram_only_ns,
                &t0.events,
                black_box(r),
            ));
        }
    }
    p.insert(
        "models.compiled.predict_ns",
        t.elapsed().as_nanos() as f64 / (sweeps * grid.len()) as f64,
    );

    let input = AllocatorInput {
        tasks,
        dram_capacity: ex.sys.effective_dram_capacity(),
        model: &compiled,
        step: 0.05,
    };
    let mut evals = 0;
    let cold = median_secs(5, || {
        let mut cache = CurveCache::default();
        let plan = plan_dram_accesses_cached(&input, &mut cache);
        evals = cache.evals();
        plan
    });
    p.insert("core.allocator.plan_cold_us", cold * 1e6);
    p.insert("core.allocator.curve_evals", evals as f64);
    let mut cache = CurveCache::default();
    plan_dram_accesses_cached(&input, &mut cache);
    let warm = median_secs(9, || plan_dram_accesses_cached(&input, &mut cache));
    p.insert("core.allocator.plan_warm_us", warm * 1e6);
}

/// The service layer over the workload's tenants (for a solo workload, its
/// executors as tenants): the control loop's own time is what is left of a
/// serial run's wall after the tenants' steps.
fn probe_service(
    bench: &Bench,
    view: &TracedView<'_>,
    values: &mut Values,
    errors: &mut Vec<String>,
) {
    let (tenants, shape) = bench.tenants();
    let mut run = |serial: bool| {
        merch_sched::set_pool_jobs(usize::from(serial));
        let out = bench.service_pass(&tenants, shape, &None);
        merch_sched::set_pool_jobs(0);
        for e in &out.errors {
            errors.push(format!("service probe: {e}"));
        }
        out
    };
    let default: Vec<_> = if view.service.is_empty() {
        vec![run(false)
            .service
            .expect("a service pass reports its service")]
    } else {
        view.service.to_vec()
    };
    let serial_out = run(true);
    let serial = serial_out
        .service
        .expect("a service pass reports its service");
    // Byte-identical at any job count: the serial run of a tenant mix must
    // reproduce the reports of the default pool.
    if bench.kind == Kind::Service && serial_out.outputs != view.reference_outputs {
        errors.push("service probe: the serial run's reports differ from the pool's".into());
    }
    let d = |f: fn(&crate::workloads::ServiceOut) -> f64| {
        mean(&default.iter().map(f).collect::<Vec<_>>())
    };
    let wall = d(|s| s.run_wall_ms);
    values.insert("hm.service.run_wall_ms", wall);
    values.insert("hm.service.tenant_step_busy_ms", d(|s| s.busy_ms));
    values.insert(
        "hm.service.submit_us_per_tenant",
        d(|s| s.submit_us_per_tenant),
    );
    let control = serial.run_wall_ms - serial.busy_ms;
    values.insert("hm.service.control_self_ms", control);
    values.insert("hm.service.control_share", control / serial.run_wall_ms);
    values.insert("hm.service.concurrent_speedup", serial.run_wall_ms / wall);
    let last = default.last().expect("at least one default-pool run");
    values.insert("hm.service.admitted", last.admitted as f64);
    values.insert("hm.service.queued", last.queued as f64);
    values.insert("hm.service.squeezed", last.squeezed as f64);
    values.insert("hm.service.shed", last.shed as f64);
    values.insert("hm.service.quarantined", last.quarantined as f64);
    values.insert("hm.service.jain_fairness", last.jain);
}

/// Fill `values` with every per-layer metric except `trace.overhead_pct`;
/// returns what failed on the way.
pub fn layer_values(
    bench: &Bench,
    summary: &Summary,
    view: &TracedView<'_>,
    values: &mut Values,
) -> Vec<String> {
    let mut errors = Vec::new();
    // Set-up's own layers.
    let times = &bench.setup.times;
    values.insert("apps.build_ms", times.build_ms);
    values.insert(
        "apps.instance_ms_per_round",
        times.instance_ms / times.instance_rounds.max(1) as f64,
    );
    values.insert(
        "patterns.classify_us",
        times.classify_us / times.classify_calls.max(1) as f64,
    );
    let (model, train_ms) = match &bench.setup.model {
        Some(m) => (m.clone(), times.train_ms),
        // Static tenants train nothing; the model layers are probed with a
        // model trained here.
        None => {
            let t = Instant::now();
            let m = inputs::train(bench.seed, bench.scale);
            (m, t.elapsed().as_secs_f64() * 1e3)
        }
    };
    values.insert("models.train_ms", train_ms);

    // Spans.
    let pass_ms = summary.total_ms(ROOT).max(f64::MIN_POSITIVE);
    values.insert(
        "core.policy.on_allocate_ms",
        summary.mean_ms("core.policy.on_allocate"),
    );
    values.insert(
        "core.policy.before_round_ms",
        summary.mean_ms("core.policy.before_round"),
    );
    values.insert(
        "core.policy.after_round_ms",
        summary.mean_ms("core.policy.after_round"),
    );
    // A round is a `step` span solo and a `tenant_step` span in the
    // service; shares are of the time inside rounds, which tenants on two
    // pool threads spend concurrently.
    let steps = [
        summary.get("hm.runtime.step"),
        summary.get("hm.service.tenant_step"),
    ];
    let step_ns = steps.iter().map(|l| l.total_ns).sum::<u64>().max(1) as f64;
    values.insert(
        "core.policy.before_round_share",
        summary.total_ms("core.policy.before_round") * 1e6 / step_ns,
    );
    values.insert(
        "hm.runtime.round_self_ms",
        steps.iter().map(|l| l.self_ns).sum::<u64>() as f64
            / 1e6
            / steps.iter().map(|l| l.count).sum::<u64>().max(1) as f64,
    );
    values.insert(
        "hm.checkpoint.loop_share",
        [
            "hm.checkpoint.snapshot",
            "hm.checkpoint.wal_append",
            "hm.checkpoint.recover",
        ]
        .iter()
        .map(|n| summary.total_ms(n))
        .sum::<f64>()
            / pass_ms,
    );

    // Counts of one cycle.
    let c = &view.counts;
    values.insert("hm.migrated_pages", c.migrated_pages as f64);
    values.insert("hm.migration_attempts", c.migration_attempts as f64);
    values.insert("hm.epoch.commits", c.epoch_commits as f64);
    values.insert("hm.epoch.rollbacks", c.epoch_rollbacks as f64);
    values.insert("hm.runtime.degraded_rounds", c.degraded_rounds as f64);
    values.insert("hm.checkpoint.records", c.wal_records as f64);

    // Probes on each distinct executor's end state.
    let mut probed: Vec<Probed> = Vec::new();
    for idx in probe_members(bench) {
        let m = &bench.setup.members[idx];
        let mut ex = m.executor(bench.setup.model.as_ref(), None, idx as u32);
        if let Err(e) = ex.try_run() {
            errors.push(format!("probe of {}: {e}", m.label));
            continue;
        }
        let mut p = Probed::default();
        probe_page_engine(&ex, &mut p);
        if let Err(e) = probe_checkpoint(bench, idx, &ex, &model, &mut p) {
            errors.push(format!("checkpoint probe of {}: {e}", m.label));
        }
        probe_planning(bench, idx, &ex, &model, &mut p);
        probed.push(p);
    }
    let mut by_name: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    for p in &probed {
        for (name, v) in p {
            by_name.entry(name).or_default().push(*v);
        }
    }
    for (name, vs) in by_name {
        values.insert(name, mean(&vs));
    }

    probe_service(bench, view, values, &mut errors);

    values.insert("sched.pool_jobs", merch_sched::pool_jobs() as f64);
    let tasks = 10_000;
    let secs = median_secs(3, || {
        merch_sched::scope(TaskClass::Shard, |s| {
            for _ in 0..tasks {
                s.spawn(|| {
                    black_box(());
                });
            }
        })
    });
    values.insert("sched.scope_spawn_ns_per_task", secs * 1e9 / tasks as f64);
    errors
}
