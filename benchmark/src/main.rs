//! The repository's benchmark: paper applications and tenant mixes through
//! the whole stack — host throughput, round latency and simulated quality
//! end to end, and a traced run that attributes host time layer by layer.
//! See `README.md` in this directory.

mod golden;
mod inputs;
mod json;
mod measure;
mod metrics;
mod probes;
mod stats;
mod suite;
mod trace;
mod workloads;
mod wrap;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use inputs::Scale;
use measure::RunArgs;
use suite::SuiteArgs;

const USAGE: &str = "\
usage: merch-benchmark [options]

  (no --trace)              run the suite: every workload in a process of its
                            own, untraced then traced, all metrics printed
  --workload W --trace 0|1  run one workload in this process and print the
                            result line: end-to-end metrics untraced (0),
                            per-layer metrics traced (1)

  --seed N        input seed (default 42; report hashes are checked against
                  golden/seed42.txt at 42)
  --seconds S     seconds each run measures (default 10; whole cycles)
  --workload W    only this workload
  --smoke         tiny inputs, one cycle per run, every check on
  --trace-only    suite: skip the untraced runs
  --aa            suite: run the untraced runs twice and compare them
  --spread N      suite: N seeds per workload, quartile spread per metric
  --write-golden  suite: print the golden lines of this seed
  --no-golden     do not compare report hashes with the golden file
  --emit-benchmark-json   print the BENCHMARK.json these sources describe
";

/// The directory of this package: under the working directory when run from
/// the repository root, as the benchmark contract runs it.
fn bench_dir() -> PathBuf {
    let local = PathBuf::from("benchmark");
    if local.join("Cargo.toml").is_file() {
        local
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// The command line, parsed.
struct Cli {
    seed: u64,
    seconds: Option<f64>,
    workload: Option<String>,
    trace: Option<bool>,
    scale: Scale,
    aa: bool,
    trace_only: bool,
    write_golden: bool,
    golden: bool,
    emit: bool,
    help: bool,
    spread: Option<u64>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        seed: 42,
        seconds: None,
        workload: None,
        trace: None,
        scale: Scale::Full,
        aa: false,
        trace_only: false,
        write_golden: false,
        golden: true,
        emit: false,
        help: false,
        spread: None,
    };
    while let Some(a) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--seed" => {
                let v = value("an integer")?;
                cli.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                cli.seconds = match v.parse::<f64>() {
                    Ok(s) if (0.0..=600.0).contains(&s) => Some(s),
                    _ => return Err(format!("bad seconds `{v}`")),
                };
            }
            "--workload" => cli.workload = Some(value("a name")?),
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    v => return Err(format!("bad trace `{v}`")),
                };
            }
            "--spread" => {
                let v = value("a count")?;
                cli.spread = match v.parse::<u64>() {
                    Ok(n) if (2..=100).contains(&n) => Some(n),
                    _ => return Err(format!("bad spread `{v}`")),
                };
            }
            "--smoke" => cli.scale = Scale::Smoke,
            "--aa" => cli.aa = true,
            "--trace-only" => cli.trace_only = true,
            "--write-golden" => cli.write_golden = true,
            "--no-golden" => cli.golden = false,
            "--emit-benchmark-json" => cli.emit = true,
            "-h" | "--help" => cli.help = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let bad = |msg: String| {
        eprintln!("error: {msg}\n\n{USAGE}");
        ExitCode::from(2)
    };
    let Cli {
        seed,
        seconds,
        workload,
        trace,
        scale,
        aa,
        trace_only,
        write_golden,
        golden,
        emit,
        help,
        spread,
    } = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => return bad(e),
    };
    if help {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    if emit {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }

    let (Some(workload), Some(trace)) = (&workload, trace) else {
        let suite = SuiteArgs {
            seed,
            workload,
            seconds,
            scale,
            aa,
            spread,
            trace_only,
            write_golden,
        };
        return match suite::run(&suite) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("error: a check failed; see above");
                ExitCode::FAILURE
            }
            Err(e) => bad(e),
        };
    };

    let run = RunArgs {
        workload: workload.clone(),
        seed,
        seconds: seconds.unwrap_or(match scale {
            Scale::Full => f64::from(metrics::RUN_SECONDS),
            Scale::Smoke => 0.0,
        }),
        trace,
        scale,
        golden,
    };
    let result = match measure::run(&run, start, &bench_dir().join("out")) {
        Ok(r) => r,
        Err(e) => return bad(e),
    };
    for n in &result.notes {
        println!("{n}");
    }
    for e in &result.errors {
        println!("check failed: {e}");
    }
    print!(
        "{}",
        golden::render(scale, &run.workload, &result.outputs)
            .lines()
            .map(|l| format!("output {l}\n"))
            .collect::<String>()
    );
    let names = if trace {
        metrics::per_layer_names()
    } else {
        metrics::end_to_end_names()
    };
    println!(
        "{}",
        metrics::result_line(
            result.correct,
            result.attempted,
            result.failed,
            &names,
            &result.values
        )
    );
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
