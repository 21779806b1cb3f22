//! `repro` — regenerate every table and figure of the Merchandiser paper.
//!
//! ```text
//! repro [--seed N] [--quick] [--smoke] [--jobs N] [--model-cache FILE]
//!       [--replay FILE] <experiment>...
//! experiments: table1 table3 table4 fig3 fig4 fig5 fig6 fig7 alpha overhead
//!              ablation cxl landscape motivation faults recover soak serve
//!              device contain all
//! ```
//!
//! Sweeps run their independent (app × policy × seed) cells on a worker
//! pool sized by `--jobs` (default: all cores; `--jobs 1` forces a
//! sequential sweep). Results are emitted in input order, so the output is
//! byte-identical at any worker count.
//!
//! `faults` (not part of `all`, whose output is kept stable) sweeps
//! injected migration-failure and sample-dropout rates and reports how
//! gracefully Merchandiser degrades. `recover` (also not part of `all`)
//! crashes each app mid-run, restores from the WAL, and verifies the
//! resumed run is bit-identical to an uninterrupted one; it exits non-zero
//! on any mismatch.
//!
//! `soak`, `serve`, `device` and `contain` (also not part of `all`) are the
//! suites of the scenario engine (`merch_bench::scenario`): seeded fault
//! schedules over one app; capacity and overload tenant mixes with chaos
//! co-tenants; device faults through the runtime and a mid-run pool
//! offline; one panicking or stalling tenant among co-tenants. Each runs
//! its scenarios through the engine's gates and exits non-zero on any
//! violation, writing a shrunk `merchscenario` reproducer per failing
//! scenario. `--replay FILE <suite>` runs such a file back; a file that
//! does not decode, or that names another suite, exits 2. `--quick` sizes
//! the soak sweep for CI, `--smoke` the other three.
//!
//! Output is TSV on stdout, one block per experiment, in the same
//! rows/series the paper reports. Seeds are fixed by default so runs are
//! reproducible bit for bit. If an experiment panics, the driver flushes
//! whatever ordered output already completed, appends an `# aborted:` marker
//! line (so a truncated table never parses as a clean run) and exits
//! non-zero.

use std::io::Write;
use std::path::Path;

use merch_bench::experiments as exp;
use merch_bench::scenario::{self, Outcome, Scenario, Service, Suite};
use merch_hm::service::ServiceReport;
use merch_hm::PAGE_SIZE;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 42u64;
    let mut quick = false;
    let mut smoke = false;
    let mut model_cache: Option<std::path::PathBuf> = None;
    let mut replay: Option<std::path::PathBuf> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                seed = match it.next().and_then(|s| s.parse().ok()) {
                    Some(s) => s,
                    None => {
                        eprintln!("error: --seed takes an integer");
                        std::process::exit(2);
                    }
                };
            }
            "--quick" => quick = true,
            "--smoke" => {
                smoke = true;
                quick = true;
            }
            "--jobs" => {
                match it.next().and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => {
                        // One pool runs sweep cells and tenant rounds
                        // (which `serve` runs concurrently at --jobs >= 2).
                        merch_sched::set_pool_jobs(n);
                    }
                    _ => {
                        eprintln!("error: --jobs takes an integer >= 1");
                        std::process::exit(2);
                    }
                };
            }
            "--model-cache" => {
                model_cache = match it.next() {
                    Some(p) => Some(p.into()),
                    None => {
                        eprintln!("error: --model-cache takes a path");
                        std::process::exit(2);
                    }
                };
            }
            "--replay" => {
                replay = match it.next() {
                    Some(p) => Some(p.into()),
                    None => {
                        eprintln!(
                            "error: --replay takes a path to a soak, serve, device or contain scenario file"
                        );
                        std::process::exit(2);
                    }
                };
            }
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        eprintln!(
            "usage: repro [--seed N] [--quick] [--smoke] [--jobs N] [--replay FILE] <table1|table3|table4|fig3|fig4|fig5|fig6|fig7|alpha|overhead|ablation|cxl|landscape|motivation|faults|recover|soak|serve|device|contain|all>..."
        );
        std::process::exit(2);
    }
    if wanted.iter().any(|w| w == "all") {
        wanted = [
            "table1",
            "table3",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "table4",
            "alpha",
            "overhead",
            "ablation",
            "cxl",
            "landscape",
            "motivation",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    let stdout = std::io::stdout();
    let mut out = stdout.lock();

    // Experiments needing the trained correlation function.
    let needs_model = wanted.iter().any(|w| {
        matches!(
            w.as_str(),
            "table3"
                | "table4"
                | "fig4"
                | "fig5"
                | "fig6"
                | "fig7"
                | "alpha"
                | "overhead"
                | "ablation"
                | "landscape"
                | "motivation"
                | "faults"
                | "recover"
                | "soak"
                | "serve"
                | "device"
                | "contain"
        )
    });
    // Experiments that need the full training artifacts (Table 3 rows,
    // Figure 7 curve) cannot run from the model cache alone.
    let needs_artifacts = wanted
        .iter()
        .any(|w| matches!(w.as_str(), "table3" | "fig7"));
    let artifacts = needs_model.then(|| {
        if !needs_artifacts {
            // A file that does not exist yet is trained and written below.
            if let Some(path) = model_cache.as_ref().filter(|p| p.exists()) {
                let loaded = std::fs::read_to_string(path)
                    .map_err(|e| e.to_string())
                    .and_then(|text| {
                        merchandiser::PerformanceModel::decode(&text).map_err(|e| e.to_string())
                    });
                match loaded {
                    Ok(model) => {
                        eprintln!("[offline] loaded cached model from {}", path.display());
                        return exp::artifacts_from_model(model);
                    }
                    Err(e) => eprintln!("[offline] ignoring {}: {e}", path.display()),
                }
            }
        }
        eprintln!("[offline] training correlation function (quick={quick}) ...");
        let art = exp::offline(quick, seed);
        if let Some(path) = &model_cache {
            match std::fs::write(path, art.model.encode()) {
                Ok(()) => eprintln!("[offline] cached model to {}", path.display()),
                Err(e) => eprintln!("[offline] could not cache model: {e}"),
            }
        }
        art
    });

    for w in &wanted {
        // A panicking experiment must not take already-emitted ordered
        // output down with it: flush what completed, leave an `# aborted:`
        // marker so the truncation is machine-visible, and exit non-zero.
        let dispatch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match w.as_str() {
                "table1" => {
                    writeln!(out, "# Table 1 — access patterns detected per application").unwrap();
                    writeln!(out, "application\tpatterns").unwrap();
                    for (app, labels) in exp::table1(seed) {
                        writeln!(out, "{app}\t{}", labels.join(", ")).unwrap();
                    }
                }
                "table3" => {
                    let art = artifacts.as_ref().unwrap();
                    writeln!(
                        out,
                        "\n# Table 3 — statistical models for f(·), held-out R²"
                    )
                    .unwrap();
                    writeln!(out, "model\tparameters\tR2").unwrap();
                    for m in &art.table3 {
                        writeln!(out, "{}\t{}\t{:.3}", m.name, m.params, m.r2).unwrap();
                    }
                }
                "fig3" => {
                    writeln!(
                    out,
                    "\n# Figure 3 — NWChem-TC phase time vs DRAM-access ratio (normalised to PM-only)"
                )
                .unwrap();
                    writeln!(out, "phase\tratio_0%\tratio_50%\tratio_100%").unwrap();
                    for r in exp::fig3(seed) {
                        writeln!(
                            out,
                            "{}\t{:.3}\t{:.3}\t{:.3}",
                            r.phase, r.normalized[0], r.normalized[1], r.normalized[2]
                        )
                        .unwrap();
                    }
                }
                "fig4" => {
                    let art = artifacts.as_ref().unwrap();
                    writeln!(out, "\n# Figure 4 — speedup over PM-only").unwrap();
                    writeln!(out, "application\tpolicy\tspeedup").unwrap();
                    let rows = exp::fig4(&art.model, seed);
                    for r in &rows {
                        for (p, s) in &r.speedups {
                            writeln!(out, "{}\t{}\t{:.3}", r.app, p, s).unwrap();
                        }
                    }
                    summarize_fig4(&mut out, &rows);
                }
                "fig5" => {
                    let art = artifacts.as_ref().unwrap();
                    writeln!(
                        out,
                        "\n# Figure 5 — normalised task time distribution and A.C.V"
                    )
                    .unwrap();
                    writeln!(
                    out,
                    "application\tpolicy\tq1\tmedian\tq3\tlo_whisker\thi_whisker\toutliers\tACV"
                )
                    .unwrap();
                    let rows = exp::fig5(&art.model, seed);
                    for r in &rows {
                        writeln!(
                            out,
                            "{}\t{}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t{}\t{:.3}",
                            r.app,
                            r.policy,
                            r.stats.q1,
                            r.stats.median,
                            r.stats.q3,
                            r.stats.lo_whisker,
                            r.stats.hi_whisker,
                            r.stats.outliers.len(),
                            r.acv
                        )
                        .unwrap();
                    }
                    summarize_fig5(&mut out, &rows);
                }
                "fig6" => {
                    let art = artifacts.as_ref().unwrap();
                    writeln!(out, "\n# Figure 6 — WarpX memory bandwidth over time").unwrap();
                    writeln!(out, "policy\tt_ms\tdram_gbps\tpm_gbps").unwrap();
                    for panel in exp::fig6(&art.model, seed) {
                        for s in panel
                            .samples
                            .iter()
                            .filter(|s| s.dram_gbps + s.pm_gbps > 0.0)
                        {
                            writeln!(
                                out,
                                "{}\t{:.3}\t{:.2}\t{:.2}",
                                panel.policy,
                                s.t_ns / 1e6,
                                s.dram_gbps,
                                s.pm_gbps
                            )
                            .unwrap();
                        }
                        writeln!(
                            out,
                            "# {} averages: DRAM {:.2} GB/s, PM {:.2} GB/s",
                            panel.policy, panel.avg_dram_gbps, panel.avg_pm_gbps
                        )
                        .unwrap();
                    }
                }
                "fig7" => {
                    let art = artifacts.as_ref().unwrap();
                    writeln!(
                        out,
                        "\n# Figure 7 — correlation-function accuracy vs number of events"
                    )
                    .unwrap();
                    writeln!(out, "num_events\tR2_heldout").unwrap();
                    let f = exp::fig7(art, seed);
                    for (k, r2) in &f.curve {
                        writeln!(out, "{k}\t{:.3}", r2).unwrap();
                    }
                    writeln!(
                        out,
                        "# regular apps:   top-8 accuracy {:.1}% (all events {:.1}%)",
                        f.regular_top8 * 100.0,
                        f.regular_all * 100.0
                    )
                    .unwrap();
                    writeln!(
                        out,
                        "# irregular apps: top-8 accuracy {:.1}% (all events {:.1}%)",
                        f.irregular_top8 * 100.0,
                        f.irregular_all * 100.0
                    )
                    .unwrap();
                }
                "table4" => {
                    let art = artifacts.as_ref().unwrap();
                    writeln!(out, "\n# Table 4 — whole performance-model accuracy").unwrap();
                    writeln!(out, "application\tprofiling_regression\tperformance_model").unwrap();
                    for r in exp::table4(&art.model, seed) {
                        writeln!(
                            out,
                            "{}\t{:.1}%\t{:.1}%",
                            r.app,
                            r.regression_acc * 100.0,
                            r.model_acc * 100.0
                        )
                        .unwrap();
                    }
                }
                "alpha" => {
                    let art = artifacts.as_ref().unwrap();
                    writeln!(out, "\n# §7.3 — mean α per application").unwrap();
                    writeln!(out, "application\tmean_alpha").unwrap();
                    for (app, a) in exp::alpha_report(&art.model, seed) {
                        writeln!(out, "{app}\t{a:.2}").unwrap();
                    }
                }
                "overhead" => {
                    let art = artifacts.as_ref().unwrap();
                    writeln!(out, "\n# §7.2 — runtime overhead").unwrap();
                    writeln!(out, "application\tprediction_wall_ms\tpages_migrated").unwrap();
                    for (app, ns, pages) in exp::overhead_report(&art.model, seed) {
                        writeln!(out, "{app}\t{:.4}\t{pages}", ns / 1e6).unwrap();
                    }
                }
                "ablation" => {
                    let art = artifacts.as_ref().unwrap();
                    writeln!(out, "\n# Ablation study — design-choice impact").unwrap();
                    writeln!(
                        out,
                        "dimension\tvariant\tspeedup_vs_pm\tACV\tpages_migrated"
                    )
                    .unwrap();
                    for r in exp::ablation(exp::AppKind::Dmrg, &art.model, seed) {
                        writeln!(
                            out,
                            "{}\t{}\t{:.3}\t{:.3}\t{}",
                            r.dimension, r.variant, r.speedup, r.acv, r.pages
                        )
                        .unwrap();
                    }
                }
                "motivation" => {
                    let art = artifacts.as_ref().unwrap();
                    writeln!(
                        out,
                        "\n# §1 motivation — task-agnostic HM management on the five apps"
                    )
                    .unwrap();
                    writeln!(out, "application\tpolicy\tvariance_change\tspeedup_vs_pm").unwrap();
                    let rows = exp::motivation(&art.model, seed);
                    for r in &rows {
                        writeln!(
                            out,
                            "{}\t{}\t{:+.1}%\t{:.3}",
                            r.app,
                            r.policy,
                            r.variance_change * 100.0,
                            r.speedup
                        )
                        .unwrap();
                    }
                    let mean = |p: &str, f: &dyn Fn(&exp::MotivationRow) -> f64| {
                        let v: Vec<f64> = rows.iter().filter(|r| r.policy == p).map(f).collect();
                        v.iter().sum::<f64>() / v.len().max(1) as f64
                    };
                    writeln!(
                    out,
                    "# mean variance change: Memory Mode {:+.1}%, MemoryOptimizer {:+.1}% (paper: +16%, +17%)",
                    mean("Memory Mode", &|r| r.variance_change) * 100.0,
                    mean("MemoryOptimizer", &|r| r.variance_change) * 100.0
                )
                .unwrap();
                    writeln!(
                    out,
                    "# mean speedup: Memory Mode {:.3}, MemoryOptimizer {:.3} (paper: 1.0371, 1.0432)",
                    mean("Memory Mode", &|r| r.speedup),
                    mean("MemoryOptimizer", &|r| r.speedup)
                )
                .unwrap();
                }
                "landscape" => {
                    let art = artifacts.as_ref().unwrap();
                    writeln!(
                        out,
                        "\n# Policy landscape (beyond the paper) — speedup over PM-only"
                    )
                    .unwrap();
                    writeln!(out, "application\tpolicy\tspeedup").unwrap();
                    for r in exp::landscape(&art.model, seed) {
                        for (p, s) in &r.speedups {
                            writeln!(out, "{}\t{}\t{:.3}", r.app, p, s).unwrap();
                        }
                    }
                }
                "faults" => {
                    let art = artifacts.as_ref().unwrap();
                    writeln!(
                    out,
                    "\n# Fault injection — graceful degradation under migration failures and sample dropout"
                )
                .unwrap();
                    writeln!(
                    out,
                    "application\tfail_rate\tdropout\tspeedup_vs_pm\tslowdown_vs_clean\tretries\tfailed_pages\tdropped_pte\tdropped_pmc\tdegraded_rounds"
                )
                .unwrap();
                    let rows = exp::faults(&art.model, seed);
                    for r in &rows {
                        writeln!(
                            out,
                            "{}\t{:.2}\t{:.2}\t{:.3}\t{:.3}\t{}\t{}\t{}\t{}\t{}",
                            r.app,
                            r.migration_fail_rate,
                            r.sample_dropout,
                            r.speedup_vs_pm,
                            r.slowdown_vs_clean,
                            r.migration_retries,
                            r.failed_pages,
                            r.dropped_pte_samples,
                            r.dropped_pmc_events,
                            r.degraded_rounds
                        )
                        .unwrap();
                    }
                    let worst_slowdown = rows
                        .iter()
                        .map(|r| r.slowdown_vs_clean)
                        .fold(0.0f64, f64::max);
                    let min_speedup = rows
                        .iter()
                        .map(|r| r.speedup_vs_pm)
                        .fold(f64::INFINITY, f64::min);
                    writeln!(
                    out,
                    "# worst slowdown vs fault-free Merchandiser: {worst_slowdown:.3}×; minimum speedup over PM-only: {min_speedup:.3}"
                )
                .unwrap();
                }
                "recover" => {
                    let art = artifacts.as_ref().unwrap();
                    writeln!(
                        out,
                        "\n# Checkpoint/recovery — crash, restore from WAL, replay to completion"
                    )
                    .unwrap();
                    writeln!(
                    out,
                    "application\tscenario\tcrash_round\trounds_recovered\twal_records\tresumed_total_ms\tidentical"
                )
                .unwrap();
                    let rows = exp::recover(&art.model, seed);
                    for r in &rows {
                        writeln!(
                            out,
                            "{}\t{}\t{}\t{}\t{}\t{:.3}\t{}",
                            r.app,
                            r.scenario,
                            r.crash_round,
                            r.rounds_recovered,
                            r.wal_records,
                            r.resumed_total_ns / 1e6,
                            r.mismatch.as_ref().map_or_else(
                                || "yes".to_string(),
                                |why| format!("MISMATCH ({why})")
                            )
                        )
                        .unwrap();
                    }
                    let mismatches = rows.iter().filter(|r| r.mismatch.is_some()).count();
                    if mismatches > 0 {
                        writeln!(out, "# RECOVERY MISMATCH in {mismatches} cell(s)").unwrap();
                        std::process::exit(1);
                    }
                    writeln!(
                        out,
                        "# all {} crash/recover cells replay bit-identically",
                        rows.len()
                    )
                    .unwrap();
                }
                name @ ("soak" | "serve" | "device" | "contain") => {
                    let suite = Suite::from_name(name).expect("matched a suite name");
                    let small = if suite == Suite::Soak { quick } else { smoke };
                    let model = &artifacts.as_ref().unwrap().model;
                    run_suite(&mut out, suite, model, seed, small, replay.as_deref());
                }
                "cxl" => {
                    writeln!(
                        out,
                        "\n# §5.3 Extensibility — Merchandiser retargeted to a CXL-based HM"
                    )
                    .unwrap();
                    writeln!(out, "application\tpolicy\tspeedup_vs_cxl_only").unwrap();
                    for r in exp::cxl_extensibility(seed) {
                        writeln!(out, "{}\t{}\t{:.3}", r.app, r.policy, r.speedup).unwrap();
                    }
                }
                other => {
                    eprintln!("unknown experiment: {other}");
                    std::process::exit(2);
                }
            }
        }));
        if let Err(p) = dispatch {
            let msg = merch_sched::payload_msg(p.as_ref());
            let _ = writeln!(out, "# aborted: {msg}");
            let _ = out.flush();
            eprintln!("error: experiment `{w}` aborted: {msg}");
            std::process::exit(1);
        }
    }
}

fn serve_status(s: &merch_hm::TenantStatus) -> String {
    use merch_hm::{ShedReason, TenantStatus};
    match s {
        TenantStatus::Queued => "queued".to_string(),
        TenantStatus::Running => "running".to_string(),
        TenantStatus::Completed => "completed".to_string(),
        TenantStatus::Quarantined { round } => format!("quarantined@{round}"),
        TenantStatus::Shed(ShedReason::QueueFull) => "shed:queue-full".to_string(),
        TenantStatus::Shed(ShedReason::DeadlineExpired) => "shed:deadline".to_string(),
        TenantStatus::Shed(ShedReason::CapacityExceeded) => "shed:capacity".to_string(),
    }
}

fn yes_no(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

const SOAK_HEADER: &str = "case\tapp\tseed\tfail_rate\tretries\tpte_dropout\tpmc_dropout\tpressure_kib\tperiod\tblackout\tcrash\trounds\tdegraded_rounds\tepoch_commits\tepoch_rollbacks\tmig_retries\tfailed_pages\trecovered";
const DEVICE_HEADER: &str = "case\tapp\tseed\tpoison_rate\tdegrade\toffline\trounds\tpoisoned\twindow_rounds\tofflined_kib\tcrash\tkept\tsqueezed\tdisplaced\tshed\tquota_violations";

/// Run one scenario-engine suite — its seeded sweep, or the reproducer at
/// `replay` — and print the suite's table. A failing sweep writes one
/// reproducer per failing scenario; any violation exits 1, an unusable
/// replay file 2.
fn run_suite(
    out: &mut impl Write,
    suite: Suite,
    model: &merchandiser::PerformanceModel,
    seed: u64,
    small: bool,
    replay: Option<&Path>,
) {
    let title = match suite {
        Suite::Soak => "Chaos soak — seeded fault schedules through the invariant oracle",
        Suite::Serve => "Placement service — seeded multi-tenant scenarios",
        Suite::Device => {
            "Device fault domain — page poisoning, degradation windows, capacity offlining"
        }
        Suite::Contain => {
            "Fault containment — panic isolation, tenant circuit breakers, supervised draining"
        }
    };
    writeln!(out, "\n# {title}").unwrap();
    let scenarios = match replay {
        None => suite.generate(seed, small),
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("error: cannot read scenario {}: {e}", path.display());
                std::process::exit(2)
            });
            writeln!(out, "# replaying {}", path.display()).unwrap();
            match Scenario::decode(&text) {
                Ok(scn) if scn.suite == suite => vec![scn],
                Ok(scn) => {
                    let other = scn.suite.name();
                    eprintln!(
                        "error: {} is a `{other}` scenario; replay it with: repro --replay {} {other}",
                        path.display(),
                        path.display()
                    );
                    std::process::exit(2)
                }
                Err(msg) => {
                    writeln!(out, "# REPLAY ERROR: {msg}").unwrap();
                    out.flush().unwrap();
                    std::process::exit(2)
                }
            }
        }
    };
    match suite {
        Suite::Soak => writeln!(out, "{SOAK_HEADER}").unwrap(),
        Suite::Device => writeln!(out, "{DEVICE_HEADER}").unwrap(),
        Suite::Serve | Suite::Contain => {}
    }
    let outcomes = scenario::run_all(scenarios, model);
    let shout = suite.name().to_uppercase();
    for o in &outcomes {
        if o.skipped() {
            let label = &o.scenario.label;
            writeln!(
                out,
                "# {shout} NOT RUN [{label}]: the sweep aborted on a panic"
            )
            .unwrap();
            continue;
        }
        write_outcome(out, o);
        for v in &o.violations {
            writeln!(out, "# {shout} VIOLATION [{}]: {v}", o.scenario.label).unwrap();
        }
    }
    let failed: Vec<&Outcome> = outcomes
        .iter()
        .filter(|o| !o.violations.is_empty())
        .collect();
    if failed.is_empty() {
        let n = outcomes.len();
        writeln!(out, "# all {n} {} scenarios hold every gate", suite.name()).unwrap();
        return;
    }
    for o in failed.into_iter().filter(|_| replay.is_none()) {
        let path = format!("{}-repro-{seed}-{}.txt", suite.name(), o.scenario.label);
        match std::fs::write(&path, scenario::reproducer(o, model)) {
            Ok(()) => writeln!(
                out,
                "# reproducer written to {path}; replay with: repro --replay {path} {}",
                suite.name()
            )
            .unwrap(),
            Err(e) => eprintln!("error: cannot write reproducer {path}: {e}"),
        }
    }
    out.flush().unwrap();
    std::process::exit(1);
}

/// Print one outcome in its suite's layout: a soak or device row, or a
/// serve or contain scenario block.
fn write_outcome(out: &mut impl Write, o: &Outcome) {
    let scn = &o.scenario;
    let label = &scn.label;
    match (scn.suite, &scn.solo, &o.solo, &scn.service, &o.service) {
        (Suite::Soak, Some(s), Some(run), _, _) => {
            let (p, r) = (&s.plan, &run.report);
            writeln!(
                out,
                "{label}\t{}\t{}\t{:.2}\t{}\t{:.2}\t{:.2}\t{}\t{}\t{:.2}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.app.name(),
                s.seed,
                p.migration_fail_rate,
                p.migration_max_retries,
                p.pte_sample_dropout,
                p.pmc_event_dropout,
                p.dram_pressure_bytes / 1024,
                p.pressure_period_rounds,
                p.telemetry_blackout,
                s.crash.map_or_else(|| "-".to_string(), |c| c.label()),
                r.rounds.len(),
                r.fault.degraded_rounds,
                r.epoch_commits,
                r.epoch_rollbacks,
                r.fault.migration_retries,
                r.fault.failed_pages,
                match run.crash_fired {
                    None => "-",
                    Some(true) => "yes",
                    Some(false) => "unfired",
                }
            )
            .unwrap();
        }
        (Suite::Device, Some(s), Some(run), _, Some(service)) => {
            let (p, r) = (&s.plan, &run.report);
            let degrade = if p.degradation_enabled() {
                format!(
                    "{:?}x{:.2}/{:.2}@{}",
                    p.degrade_tier, p.degrade_lat_mult, p.degrade_bw_mult, p.degrade_period_rounds
                )
            } else {
                "-".to_string()
            };
            let offline = match p.offline_bytes / PAGE_SIZE {
                0 => "-".to_string(),
                pages => format!("{pages}p@{}", p.offline_round),
            };
            let ren = service.renegotiation.clone().unwrap_or_default();
            writeln!(
                out,
                "{label}\t{}\t{}\t{:.2}\t{degrade}\t{offline}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.app.name(),
                s.seed,
                p.page_poison_rate,
                r.rounds.len(),
                r.fault.pages_poisoned,
                r.fault.degraded_window_rounds,
                r.fault.offlined_bytes / 1024,
                if run.crash_fired == Some(true) {
                    "recovered"
                } else {
                    "unfired"
                },
                ren.kept.len(),
                ren.squeezed.len(),
                ren.displaced.len(),
                ren.shed.len(),
                service.report.quota_violations
            )
            .unwrap();
        }
        (Suite::Serve, _, _, Some(svc), Some(run)) => {
            write_serve_block(out, label, svc, &run.report)
        }
        (Suite::Contain, _, _, Some(svc), Some(run)) => {
            write_contain_block(out, label, svc, &run.report)
        }
        _ => {}
    }
}

fn write_serve_block(out: &mut impl Write, label: &str, svc: &Service, rep: &ServiceReport) {
    writeln!(
        out,
        "# scenario {label} — seed {}, pool {} pages, queue bound {}, {} tenants",
        svc.seed,
        svc.pool_pages,
        svc.queue_bound,
        svc.tenants.len()
    )
    .unwrap();
    writeln!(
        out,
        "tenant\tapp\tpolicy\tprio\tweight\tquota_pages\tgranted_pages\tsqueezed\tchaos\tstatus\twait_ms\tservice_ms\trounds\tdeadline_missed\tretry_responses"
    )
    .unwrap();
    for (t, r) in svc.tenants.iter().zip(&rep.tenants) {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.3}\t{:.3}\t{}/{}\t{}\t{}",
            r.name,
            t.app.name(),
            t.policy.name(),
            r.priority,
            r.weight,
            r.requested_quota / PAGE_SIZE,
            r.granted_quota / PAGE_SIZE,
            yes_no(r.squeezed),
            t.chaos_case
                .map_or_else(|| "-".to_string(), |c| c.to_string()),
            serve_status(&r.status),
            r.wait_ns / 1e6,
            r.service_ns / 1e6,
            r.rounds_done,
            r.rounds_total,
            yes_no(r.deadline_missed),
            r.retry_responses
        )
        .unwrap();
    }
    writeln!(
        out,
        "# rollup: admitted {}, completed {}, quarantined {}, shed {}, squeezed {}, deadline misses {}, quota violations {}, Jain fairness {:.3}",
        rep.admitted,
        rep.completed,
        rep.quarantined,
        rep.shed,
        rep.squeezed,
        rep.deadline_misses,
        rep.quota_violations,
        rep.fairness_jain
    )
    .unwrap();
}

fn write_contain_block(out: &mut impl Write, label: &str, svc: &Service, rep: &ServiceReport) {
    let Some((victim, fault)) = svc.victim else {
        return;
    };
    writeln!(
        out,
        "# scenario {label} — seed {}, pool {} pages, {} tenants, victim {} ({})",
        svc.seed,
        svc.pool_pages,
        svc.tenants.len(),
        svc.tenants[victim].name,
        fault.label()
    )
    .unwrap();
    writeln!(
        out,
        "tenant\tapp\tpolicy\tvictim\tstatus\trounds\ttrips\tpanics\tstalled\tgranted_pages"
    )
    .unwrap();
    for (t, r) in svc.tenants.iter().zip(&rep.tenants) {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}/{}\t{}\t{}\t{}\t{}",
            r.name,
            t.app.name(),
            t.policy.name(),
            yes_no(r.id as usize == victim),
            serve_status(&r.status),
            r.rounds_done,
            r.rounds_total,
            r.breaker_trips,
            r.fault.tenant_panics,
            r.fault.stalled_rounds,
            r.granted_quota / PAGE_SIZE,
        )
        .unwrap();
    }
    writeln!(
        out,
        "# rollup: admitted {}, completed {}, quarantined {}, tripped {}, victim trips {}, quota violations {}",
        rep.admitted,
        rep.completed,
        rep.quarantined,
        rep.tripped,
        rep.tenants[victim].breaker_trips,
        rep.quota_violations
    )
    .unwrap();
}

fn summarize_fig4(out: &mut impl Write, rows: &[exp::Fig4Row]) {
    let mean = |policy: &str| {
        let v: Vec<f64> = rows
            .iter()
            .filter_map(|r| r.speedups.get(policy).copied())
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let merch = mean("Merchandiser");
    let mm = mean("Memory Mode");
    let mo = mean("MemoryOptimizer");
    writeln!(
        out,
        "# mean speedup over PM-only: Merchandiser {merch:.3}, Memory Mode {mm:.3}, MemoryOptimizer {mo:.3}"
    )
    .unwrap();
    writeln!(
        out,
        "# Merchandiser vs Memory Mode +{:.1}%, vs MemoryOptimizer +{:.1}% (paper: +17.1%, +15.4%)",
        (merch / mm - 1.0) * 100.0,
        (merch / mo - 1.0) * 100.0
    )
    .unwrap();
}

fn summarize_fig5(out: &mut impl Write, rows: &[exp::Fig5Row]) {
    let mean_acv = |policy: &str| {
        let v: Vec<f64> = rows
            .iter()
            .filter(|r| r.policy == policy)
            .map(|r| r.acv)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let merch = mean_acv("Merchandiser");
    let mm = mean_acv("Memory Mode");
    let mo = mean_acv("MemoryOptimizer");
    writeln!(
        out,
        "# mean A.C.V: Merchandiser {merch:.3} vs Memory Mode {mm:.3} (−{:.1}%) vs MemoryOptimizer {mo:.3} (−{:.1}%) (paper: −51.6%, −42.7%)",
        (1.0 - merch / mm) * 100.0,
        (1.0 - merch / mo) * 100.0
    )
    .unwrap();
}
