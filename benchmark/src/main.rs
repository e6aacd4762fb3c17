//! Command line of the repo benchmark.
//!
//! ```text
//! wamcast-benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//! wamcast-benchmark all --seed N --out DIR [--seconds S]
//! wamcast-benchmark compare --a DIR[,DIR…] --b DIR[,DIR…] [--spec BENCHMARK.json]
//! ```
//!
//! The first form is the contract `BENCHMARK.json` names: one workload,
//! one run, the result as one JSON object on the last line of stdout.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use wamcast_benchmark::report::WORKLOADS;
use wamcast_benchmark::{compare, run_workload, RunArgs};

/// `--seconds` when `all` is not told otherwise; equals `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    a: Vec<PathBuf>,
    b: Vec<PathBuf>,
    spec: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        a: Vec::new(),
        b: Vec::new(),
        spec: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        let dirs = || value.split(',').map(PathBuf::from).collect::<Vec<_>>();
        match flag.as_str() {
            "--workload" => cli.workload = Some(value.clone()),
            "--seed" => cli.seed = number()?,
            "--seconds" => cli.seconds = number()?.max(1),
            "--trace" => cli.trace = number()? != 0,
            "--out" => cli.out = Some(PathBuf::from(value)),
            "--a" => cli.a = dirs(),
            "--b" => cli.b = dirs(),
            "--spec" => cli.spec = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(cli)
}

/// Runs one workload in this process; prints the report, then the result
/// line. With `--out`, the result line is also written to
/// `DIR/<workload>.{e2e,layers}.json`.
fn run_one(cli: &Cli) -> Result<bool, String> {
    let workload = cli.workload.as_deref().ok_or("--workload is required")?;
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        out: cli.out.clone(),
    };
    let mut outcome = run_workload(workload, &args).map_err(|e| format!("{workload}: {e}"))?;
    let (text, line) = outcome.render(workload, cli.trace);
    if let Some(dir) = &cli.out {
        let kind = if cli.trace { "layers" } else { "e2e" };
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join(format!("{workload}.{kind}.json")), &line))
            .map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    print!("{text}");
    println!("{line}");
    Ok(outcome.violations.is_empty())
}

/// Runs every workload, one child process each, end-to-end run first and
/// the traced run after it.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let out = cli.out.as_ref().ok_or("all requires --out DIR")?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .arg("--out")
                .arg(out)
                .status()
                .map_err(|e| format!("spawning {workload}: {e}"))?;
            ok &= status.success();
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (sub, rest) = match args.first().map(String::as_str) {
        Some(s @ ("all" | "compare")) => (s, &args[1..]),
        _ => ("run", &args[..]),
    };
    let result = parse(rest).and_then(|cli| match sub {
        "all" => run_all(&cli),
        "compare" => compare::compare(&cli.spec, &cli.a, &cli.b).map(|table| {
            print!("{table}");
            true
        }),
        _ => run_one(&cli),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("wamcast-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
