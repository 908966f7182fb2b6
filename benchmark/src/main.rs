//! `summit-benchmark`: five end-to-end workloads over the public API of
//! `crates/*`, attributed layer by layer. See `benchmark/README.md`.

mod compare;
mod fingerprint;
mod json;
mod metrics;
mod runner;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "\
usage: summit-benchmark <command> [options]

commands:
  run      measure one workload in this process (--workload), or all five,
           each in a process of its own
  aa       run two interleaved sets of untraced runs of this same build and
           fail if any end-to-end metric disagrees by more than its bound
  compare  <a.json> <b.json>: compare two result files of one workload;
           refuses when their host fingerprints differ

options:
  --workload <name>  train_compute | train_sync | serve_open |
                     sim_fullmachine | facility_wave
  --seed <n>         seed of every generated input (default 42)
  --seconds <s>      seconds one run measures for (default 20)
  --trace [0|1]      record spans and report the per-layer metrics
  --runs <n>         aa: runs per set, at least 5 (default 5)
  --quick            toy sizes, all correctness gates on (smoke test)
";

/// Parsed command line of `run` and `aa`.
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub runs: usize,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            workload: None,
            seed: 42,
            seconds: 20.0,
            trace: false,
            quick: false,
            runs: 5,
        };
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
            match arg.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    if !workloads::WORKLOADS.iter().any(|w| w.name == name) {
                        return Err(format!("unknown workload {name}"));
                    }
                    opts.workload = Some(name.clone());
                }
                // Any 64-bit integer is a seed; a negative one is taken
                // as its two's-complement bits.
                "--seed" => {
                    let text = value("a number")?;
                    opts.seed = text
                        .parse::<u64>()
                        .or_else(|_| text.parse::<i64>().map(|n| n as u64))
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    opts.seconds = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--runs" => {
                    opts.runs = value("a number")?
                        .parse()
                        .map_err(|e| format!("--runs: {e}"))?;
                    if opts.runs < 5 {
                        return Err("--runs must be at least 5".into());
                    }
                }
                "--quick" => opts.quick = true,
                // A bare `--trace` turns tracing on; the driver's form is
                // `--trace 0` / `--trace 1`.
                "--trace" => {
                    opts.trace = match it.next_if(|v| matches!(v.as_str(), "0" | "1")) {
                        Some(v) => v == "1",
                        None => true,
                    }
                }
                other => return Err(format!("unknown option {other}")),
            }
        }
        Ok(opts)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "run" => Options::parse(rest).and_then(|opts| match &opts.workload {
            Some(name) => runner::run_one(name, &opts),
            None => runner::run_all(&opts),
        }),
        "aa" => Options::parse(rest).and_then(|opts| compare::aa(&opts)),
        "compare" => match rest {
            [a, b] => compare::compare_files(a, b),
            _ => Err("compare takes exactly two result files".into()),
        },
        "-h" | "--help" | "help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command {other}\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("summit-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
