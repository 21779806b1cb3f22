//! One workload, one process: set up, warm up, run timed cycles for the
//! asked number of seconds, check every output, and report either the
//! end-to-end metrics (untraced) or the per-layer metrics (traced).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::golden;
use crate::inputs::Scale;
use crate::metrics::Values;
use crate::probes;
use crate::stats::{geomean, mean, median, quantile, sorted};
use crate::trace::{self, Summary, Tracer};
use crate::workloads::{self, Bench, Counts, Kind, PassOut, ServiceOut};

/// What one workload process was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Compare report hashes with the committed golden file (seed 42 only).
    pub golden: bool,
}

/// Result of one workload process.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// `(label, hash)` of the workload's reports, for the golden file.
    pub outputs: Vec<(String, u64)>,
    pub errors: Vec<String>,
    /// Human-readable facts about the run: sample counts, core count.
    pub notes: Vec<String>,
}

/// Set-up is repeated, and its median reported, until it has run this many
/// times or has used this much time: a set-up of a fraction of a second
/// needs the repeats to be steady, and one of several seconds is steadier in
/// a single sample than the bound on `setup_s` asks.
const SETUP_REPEATS: usize = 5;
const SETUP_BUDGET_S: f64 = 3.0;

/// Passes of one unit over the timed phase.
#[derive(Default)]
struct UnitLog {
    walls: Vec<f64>,
    rounds_per_pass: u64,
    reference: Option<PassOut>,
}

/// Accumulates passes and checks each against the unit's first.
struct Log {
    units: Vec<UnitLog>,
    /// Round samples, ms, by (unit, executor within the unit, round).
    round_ms: BTreeMap<(usize, usize, usize), Vec<f64>>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    service: Vec<ServiceOut>,
    passes: u64,
}

impl Log {
    fn new(units: usize) -> Self {
        Self {
            units: (0..units).map(|_| UnitLog::default()).collect(),
            round_ms: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            service: Vec::new(),
            passes: 0,
        }
    }

    /// Keep the first messages; a broken build fails every pass alike.
    fn note(&mut self, msg: String) {
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.note(msg);
    }

    /// Check `out` against the unit's reference pass (pass-to-pass, and
    /// traced against untraced: both compare with the first pass ever run).
    fn check(&mut self, bench: &Bench, unit: usize, out: &PassOut) {
        self.failed += out.failed;
        for e in &out.errors {
            self.note(e.clone());
        }
        let Some(first) = &self.units[unit].reference else {
            self.units[unit].reference = Some(out.clone());
            return;
        };
        let same_reports = first.outputs == out.outputs && first.sims == out.sims;
        let same_counts = first.counts == out.counts;
        for (same, what) in [(same_reports, "reports"), (same_counts, "counts")] {
            if !same {
                self.fail(format!(
                    "{}: {what} differ from the unit's first pass",
                    bench.unit_label(unit)
                ));
            }
        }
    }

    /// Record a timed pass.
    fn record(&mut self, bench: &Bench, unit: usize, out: PassOut) {
        self.check(bench, unit, &out);
        self.attempted += out.attempted();
        self.passes += 1;
        let u = &mut self.units[unit];
        u.walls.push(out.wall_s);
        u.rounds_per_pass = out.rounds;
        if let Some(s) = out.service {
            self.service.push(s);
        }
        for (executor, pass) in out.round_ms.into_iter().enumerate() {
            for (round, ms) in pass.into_iter().enumerate() {
                self.round_ms
                    .entry((unit, executor, round))
                    .or_default()
                    .push(ms);
            }
        }
    }

    /// Round latency at quantile `q` over the workload's rounds. The replay
    /// is deterministic, so round `r` of an executor does the same work in
    /// every pass: its latency is the median of its samples, which a stall
    /// of the host cannot move, and the quantile is taken over one such
    /// value per round. The tail is then the rounds that cost more — base
    /// profiling, drift, recovery — and not the passes the host disturbed,
    /// and each round weighs the same however many passes were timed.
    fn round_ms(&self, q: f64) -> f64 {
        let per_round: Vec<f64> = self.round_ms.values().map(|v| median(v)).collect();
        quantile(&sorted(per_round), q)
    }

    /// Geometric mean over units of rounds per pass over the median pass
    /// wall.
    fn rounds_per_s(&self) -> f64 {
        let per_unit: Vec<f64> = self
            .units
            .iter()
            .filter(|u| !u.walls.is_empty())
            .map(|u| u.rounds_per_pass as f64 / median(&u.walls))
            .collect();
        geomean(&per_unit)
    }
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run whole cycles until `seconds` have passed; at least one.
fn run_cycles(bench: &Bench, tracer: &Option<Arc<Tracer>>, seconds: f64, log: &mut Log) -> u64 {
    let t0 = Instant::now();
    let mut cycles = 0;
    loop {
        for &unit in &bench.cycle {
            let out = bench.pass(unit, tracer);
            log.record(bench, unit, out);
        }
        cycles += 1;
        if t0.elapsed().as_secs_f64() >= seconds {
            return cycles;
        }
    }
}

/// Run workload `args.workload` as asked. `start` is when the process
/// started; `out_dir` takes the WAL and trace files.
pub fn run(args: &RunArgs, start: Instant, out_dir: &Path) -> Result<RunResult, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let build = || {
        workloads::build(&args.workload, args.seed, args.scale, out_dir)
            .ok_or_else(|| format!("unknown workload `{}`", args.workload))
    };

    let bench = build()?;
    let mut setups = vec![start.elapsed().as_secs_f64()];
    if !args.trace {
        while setups.len() < SETUP_REPEATS && setups.iter().sum::<f64>() < SETUP_BUDGET_S {
            let t = Instant::now();
            drop(build()?);
            setups.push(t.elapsed().as_secs_f64());
        }
    }

    let mut notes = vec![format!(
        "nproc {}, pool_jobs {}, seed {}, {} set-up run(s)",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        merch_sched::pool_jobs(),
        args.seed,
        setups.len()
    )];

    // Warm-up: one unmeasured pass per unit. It is also the reference every
    // later pass must reproduce, and for the applications it is the replay
    // that must reproduce the live run of set-up.
    let mut log = Log::new(bench.units());
    for unit in 0..bench.units() {
        let out = bench.pass(unit, &None);
        log.check(&bench, unit, &out);
        if bench.kind != Kind::Service {
            let live = bench.setup.members[unit].live_hash;
            if out.outputs.first().map(|o| Some(o.1)) != Some(live) {
                log.fail(format!(
                    "{}: the replay's report differs from the live run's",
                    bench.unit_label(unit)
                ));
            }
        }
    }
    let outputs: Vec<(String, u64)> = log
        .units
        .iter()
        .flat_map(|u| u.reference.iter().flat_map(|r| r.outputs.clone()))
        .collect();
    if args.golden && args.seed == golden::SEED {
        for e in golden::check(golden::COMMITTED, args.scale, bench.name, &outputs) {
            log.fail(e);
        }
    }

    let mut values = Values::new();
    if !args.trace {
        run_cycles(&bench, &None, args.seconds, &mut log);
        let sims: Vec<_> = log
            .units
            .iter()
            .flat_map(|u| u.reference.iter().flat_map(|r| r.sims.clone()))
            .collect();
        values.insert("setup_s", median(&setups));
        values.insert("rounds_per_s", log.rounds_per_s());
        values.insert("round_ms_p50", log.round_ms(0.50));
        values.insert("round_ms_p95", log.round_ms(0.95));
        values.insert(
            "sim_speedup_vs_pm",
            geomean(
                &sims
                    .iter()
                    .map(|s| s.pm_total_ns / s.total_ns)
                    .collect::<Vec<_>>(),
            ),
        );
        values.insert(
            "sim_acv",
            mean(&sims.iter().map(|s| s.acv).collect::<Vec<_>>()),
        );
        values.insert("peak_rss_mb", peak_rss_mb());
        let per_round: Vec<usize> = log.round_ms.values().map(Vec::len).collect();
        notes.push(format!(
            "{} timed passes; {} round samples over {} distinct rounds, {} to {} of each",
            log.passes,
            per_round.iter().sum::<usize>(),
            per_round.len(),
            per_round.iter().min().copied().unwrap_or(0),
            per_round.iter().max().copied().unwrap_or(0),
        ));
    } else {
        // Half the window untraced, half traced: the difference between the
        // two is what tracing costs.
        run_cycles(&bench, &None, args.seconds * 0.4, &mut log);
        let untraced_rps = log.rounds_per_s();
        let mut traced = Log::new(bench.units());
        traced.units.iter_mut().zip(&log.units).for_each(|(t, u)| {
            t.reference = u.reference.clone();
        });
        let tracer = Arc::new(Tracer::new());
        let some = Some(tracer.clone());
        let mut summary = Summary::default();
        let mut first_cycle = Vec::new();
        let t0 = Instant::now();
        let mut cycles = 0u64;
        while cycles == 0 || t0.elapsed().as_secs_f64() < args.seconds * 0.4 {
            run_cycles(&bench, &some, 0.0, &mut traced);
            let spans = tracer.drain();
            summary.add(&spans);
            if cycles == 0 {
                first_cycle = spans;
            }
            cycles += 1;
        }
        let traced_rps = traced.rounds_per_s();
        log.failed += traced.failed;
        log.errors.append(&mut traced.errors);
        log.attempted += traced.attempted;

        let path = out_dir.join(format!("trace-{}.jsonl", bench.name));
        trace::write_jsonl(&path, &first_cycle).map_err(|e| format!("{}: {e}", path.display()))?;
        let text = summary.render(bench.name, cycles);
        let path = out_dir.join(format!("trace-{}.summary.txt", bench.name));
        std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!(
            "{cycles} traced cycle(s), {} spans in the first, written to {}",
            first_cycle.len(),
            out_dir.display()
        ));

        values.insert(
            "trace.overhead_pct",
            (untraced_rps / traced_rps - 1.0) * 100.0,
        );
        for e in probes::layer_values(&bench, &summary, &traced.view(&bench), &mut values) {
            log.fail(e);
        }
        // A probe that failed left its metrics out.
        for (name, _) in crate::metrics::per_layer_names() {
            values.entry(name).or_insert(f64::NAN);
        }
    }

    for (name, v) in &values {
        if !v.is_finite() {
            log.fail(format!("metric {name} is not a finite number"));
        }
    }
    Ok(RunResult {
        correct: log.failed == 0,
        attempted: log.attempted,
        failed: log.failed,
        values,
        outputs,
        errors: log.errors,
        notes,
    })
}

/// What the probes read from the passes run so far.
pub struct TracedView<'a> {
    /// Exact counts of one cycle.
    pub counts: Counts,
    /// The service layer's numbers, one entry per traced service pass.
    pub service: &'a [ServiceOut],
    /// Report hashes of unit 0's first pass.
    pub reference_outputs: &'a [(String, u64)],
}

impl Log {
    fn view<'a>(&'a self, bench: &Bench) -> TracedView<'a> {
        let mut counts = Counts::default();
        for &unit in &bench.cycle {
            if let Some(r) = &self.units[unit].reference {
                counts.add(&r.counts);
            }
        }
        TracedView {
            counts,
            service: &self.service,
            reference_outputs: self.units[0]
                .reference
                .as_ref()
                .map_or(&[], |r| r.outputs.as_slice()),
        }
    }
}
