//! The whole benchmark in one command: every workload in a fresh process of
//! its own (so `peak_rss_mb` is per workload), untraced and then traced,
//! with every metric printed by name and unit. Also the self-checks of the
//! benchmark itself: two runs of the same code must agree (`--aa`), and runs
//! at different seeds must stay within a third of each bound (`--spread`).

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::golden;
use crate::inputs::Scale;
use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats::{median, quartile_spread};
use crate::workloads::WORKLOADS;

/// What the suite was asked to do.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    pub seed: u64,
    /// Only this workload; all six when `None`.
    pub workload: Option<String>,
    pub seconds: Option<f64>,
    pub scale: Scale,
    pub aa: bool,
    /// Run each workload at this many seeds and print the spreads.
    pub spread: Option<u64>,
    pub trace_only: bool,
    pub write_golden: bool,
}

/// One workload process's result line, parsed.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    /// `output <scale> <workload> <label> <hash>` lines.
    outputs: Vec<String>,
}

impl SuiteArgs {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(match self.scale {
            Scale::Full => f64::from(RUN_SECONDS),
            // One cycle.
            Scale::Smoke => 0.0,
        })
    }

    fn workloads(&self) -> Vec<&'static str> {
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .filter(|n| self.workload.as_deref().is_none_or(|w| w == *n))
            .collect()
    }

    /// Run one workload process and parse its last line.
    fn child(&self, workload: &str, seed: u64, trace: bool) -> Result<Child, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &self.seconds().to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if self.scale == Scale::Smoke {
            cmd.arg("--smoke");
        }
        if self.write_golden {
            cmd.arg("--no-golden");
        }
        // `output` waits for the child: none outlives the suite.
        let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines
            .pop()
            .ok_or_else(|| format!("{workload}: no output (status {})", out.status))?;
        for l in lines.iter().filter(|l| !l.starts_with("output ")) {
            println!("    {l}");
        }
        let v = Json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| format!("{workload}: result line lacks `{k}`"))
        };
        let metrics = field("metrics")?
            .as_obj()
            .ok_or("`metrics` is not an object")?
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        let child = Child {
            correct: field("correct")?.as_bool().unwrap_or(false),
            attempted: field("attempted")?.as_f64().unwrap_or(0.0) as u64,
            failed: field("failed")?.as_f64().unwrap_or(0.0) as u64,
            metrics,
            outputs: lines
                .iter()
                .filter_map(|l| l.strip_prefix("output "))
                .map(str::to_string)
                .collect(),
        };
        if !out.status.success() && child.correct {
            return Err(format!(
                "{workload}: exited {} after a correct result",
                out.status
            ));
        }
        Ok(child)
    }
}

fn print_metrics(child: &Child, names: &[(&'static str, &'static str, String)]) {
    for (name, unit, note) in names {
        match child.metrics.get(*name) {
            Some(v) => println!("    {name:<40} {v:>16.6} {unit:<9} {note}"),
            None => println!("    {name:<40} {:>16} {unit:<9} {note}", "missing"),
        }
    }
}

fn end_to_end_rows() -> Vec<(&'static str, &'static str, String)> {
    END_TO_END
        .iter()
        .map(|m| {
            let kind = if m.host { "host" } else { "simulated" };
            (
                m.name,
                m.unit,
                format!(
                    "{kind}, {} is better, bound {:.0}%",
                    m.better.as_str(),
                    m.bound * 100.0
                ),
            )
        })
        .collect()
}

fn per_layer_rows() -> Vec<(&'static str, &'static str, String)> {
    PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, String::new()))
        .collect()
}

/// Relative worsening of `b` against `a` in the metric's bad direction
/// (negative when `b` is better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Run the suite as asked; `Ok(true)` when every check passed.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    let mut ok = true;
    let workloads = args.workloads();
    if workloads.is_empty() {
        return Err(format!(
            "unknown workload `{}`; the workloads are: {}",
            args.workload.as_deref().unwrap_or(""),
            WORKLOADS.map(|w| w.name).join(", ")
        ));
    }
    println!(
        "# merch-benchmark: seed {}, {} s per run, {} core(s), scale {}",
        args.seed,
        args.seconds(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        golden::scale_name(args.scale)
    );

    if let Some(n) = args.spread {
        return spread(args, &workloads, n);
    }

    let mut golden_text =
        String::from("# fnv1a64 of the {:?} text of every report at seed 42; see src/golden.rs.\n");
    let mut runs: Vec<BTreeMap<&str, Child>> = Vec::new();
    for run in 0..if args.aa { 2 } else { 1 } {
        let mut by_workload = BTreeMap::new();
        for &w in &workloads {
            if args.trace_only {
                continue;
            }
            println!(
                "\n## {w}: end to end (untraced){}",
                if args.aa {
                    format!(", run {}", ["A", "B"][run])
                } else {
                    String::new()
                }
            );
            let c = args.child(w, args.seed, false)?;
            println!(
                "    correct {}, operations attempted {}, failed {}",
                c.correct, c.attempted, c.failed
            );
            print_metrics(&c, &end_to_end_rows());
            ok &= c.correct;
            for o in &c.outputs {
                golden_text.push_str(o);
                golden_text.push('\n');
            }
            by_workload.insert(w, c);
        }
        runs.push(by_workload);
    }

    if !args.write_golden {
        for &w in &workloads {
            println!("\n## {w}: per layer (traced)");
            let c = args.child(w, args.seed, true)?;
            println!(
                "    correct {}, operations attempted {}, failed {}",
                c.correct, c.attempted, c.failed
            );
            print_metrics(&c, &per_layer_rows());
            ok &= c.correct;
        }
    }

    if args.aa {
        println!("\n## A/A: two runs of the same code");
        println!(
            "    {:<22} {:<18} {:>14} {:>14} {:>9} {:>7}",
            "workload", "metric", "A", "B", "B vs A", "bound"
        );
        for &w in &workloads {
            for m in &END_TO_END {
                let (Some(a), Some(b)) = (
                    runs[0].get(w).and_then(|c| c.metrics.get(m.name)),
                    runs[1].get(w).and_then(|c| c.metrics.get(m.name)),
                ) else {
                    continue;
                };
                let d = worsening(m.better, *a, *b);
                // Either run may be the slower one; simulated metrics must
                // repeat exactly.
                let within = if m.host { d.abs() <= m.bound } else { a == b };
                ok &= within;
                println!(
                    "    {w:<22} {:<18} {a:>14.6} {b:>14.6} {:>+8.2}% {:>6.0}%{}",
                    m.name,
                    d * 100.0,
                    if m.host { m.bound * 100.0 } else { 0.0 },
                    if within { "" } else { "  OUTSIDE" }
                );
            }
        }
    }

    if args.write_golden {
        println!("\n## golden lines (seed {})\n{golden_text}", args.seed);
    }
    Ok(ok)
}

/// The acceptance rule of the benchmark contract, run on this machine: ten
/// seeds per workload, and for each end-to-end metric the distance between
/// the quartiles as a share of the median, against a third of its bound.
fn spread(args: &SuiteArgs, workloads: &[&'static str], n: u64) -> Result<bool, String> {
    let mut ok = true;
    for &w in workloads {
        println!("\n## {w}: {n} runs at seeds 1..={n}");
        let mut by_metric: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for seed in 1..=n {
            let c = args.child(w, seed, false)?;
            ok &= c.correct;
            for m in &END_TO_END {
                if let Some(v) = c.metrics.get(m.name) {
                    by_metric.entry(m.name).or_default().push(*v);
                }
            }
        }
        println!(
            "    {:<18} {:>14} {:>9} {:>9} {:>7}",
            "metric", "median", "spread", "bound/3", "bound"
        );
        for m in &END_TO_END {
            let v = &by_metric[m.name];
            let s = quartile_spread(v);
            // `setup_s` has no spread rule, only the rule on its median.
            let within = m.name == "setup_s" || s <= m.bound;
            ok &= within;
            println!(
                "    {:<18} {:>14.6} {:>8.2}% {:>8.2}% {:>6.0}%{}",
                m.name,
                median(v),
                s * 100.0,
                m.bound / 3.0 * 100.0,
                m.bound * 100.0,
                if !within {
                    "  OUTSIDE"
                } else if m.name != "setup_s" && s > m.bound / 3.0 {
                    "  above a third"
                } else {
                    ""
                }
            );
        }
    }
    Ok(ok)
}
