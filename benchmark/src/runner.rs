//! One run of one workload: set-up, measurement, correctness gates, the
//! report in its three forms (table, result file, the driver's last line).

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::fingerprint::Fingerprint;
use crate::json::Json;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, quantile, tail_quantile};
use crate::trace::Tracer;
use crate::workloads::{self, Budget, Gate, Layers, Measured, WORKLOADS};
use crate::Options;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Share of a traced run's seconds that go to each of its two measured
/// phases (one untraced, one traced); the layer probes take what they need
/// after them, about the remainder.
const TRACED_PHASE_SHARE: f64 = 0.3;

/// Where result files and traces go: `benchmark/out/`.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set of this process, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("peak_rss_mb reads /proc/self/status, which needs Linux");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Everything one run measured, before it is printed or written.
struct Outcome {
    /// Wall seconds of each set-up.
    setups: Vec<f64>,
    /// The phase of record: the only one of an untraced run, the traced
    /// one of a traced run.
    phase: Measured,
    /// One verdict per gate.
    gates: Vec<Gate>,
    attempted: u64,
    failed: u64,
    /// One value per row of the run's metric table ([`END_TO_END`] for an
    /// untraced run, [`PER_LAYER`] for a traced one).
    values: Vec<f64>,
}

fn measure(name: &str, opts: &Options, tracer: &Tracer) -> Outcome {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first, so peak memory is one workload's.
        drop(workload.take());
        tracer.next_repeat();
        let (built, seconds) = tracer.time("bench", "setup", || {
            workloads::setup(name, opts.seed, opts.quick)
        });
        setups.push(seconds);
        workload = Some(built);
    }
    let mut workload = workload.expect("SETUPS > 0");

    let mut phases: Vec<Measured> = Vec::new();
    let verified: Vec<Gate>;
    let values: Vec<f64>;
    if opts.trace {
        // Short phases: one unit each if a unit is long, for the probes'
        // sake.
        let phase = Budget {
            seconds: opts.seconds * TRACED_PHASE_SHARE,
            min_units: 1,
        };
        tracer.set_enabled(false);
        let untraced = workload.measure(phase, tracer);
        tracer.set_enabled(true);
        let traced = workload.measure(phase, tracer);
        let mut layers = Layers::default();
        layers.set(
            "trace_overhead_share",
            untraced.throughput_per_s() / traced.throughput_per_s() - 1.0,
        );
        // The extra runs of `verify` feed some probes, so they go first.
        verified = workload.verify();
        workload.probe(tracer, &traced, &mut layers);
        values = PER_LAYER
            .iter()
            .map(|m| layers.get(m.name).unwrap_or(0.0))
            .collect();
        phases.push(untraced);
        phases.push(traced);
    } else {
        let budget = Budget {
            seconds: opts.seconds,
            min_units: 3,
        };
        let phase = workload.measure(budget, tracer);
        verified = workload.verify();
        values = vec![phase.throughput_per_s(), peak_rss_mb(), median(&setups)];
        phases.push(phase);
    }
    // One verdict per gate: a traced run checks each twice, once a phase.
    let mut gates: Vec<Gate> = Vec::new();
    for gate in phases
        .iter()
        .flat_map(|m| m.gates.iter().cloned())
        .chain(verified)
    {
        match gates.iter_mut().find(|g| g.name == gate.name) {
            Some(seen) if seen.pass => *seen = gate,
            Some(_) => {}
            None => gates.push(gate),
        }
    }
    Outcome {
        setups,
        gates,
        attempted: phases.iter().map(|m| m.attempted).sum(),
        failed: phases.iter().map(|m| m.failed).sum(),
        values,
        phase: phases.pop().expect("at least one phase"),
    }
}

fn numbers(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

/// Run `name` in this process and print its report; the last line of
/// standard output is the driver's JSON object.
pub fn run_one(name: &str, opts: &Options) -> Result<ExitCode, String> {
    let def = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .expect("validated by the parser");
    let fingerprint = Fingerprint::capture();
    let tracer = Tracer::new();
    tracer.set_enabled(opts.trace);
    let Outcome {
        setups,
        phase,
        gates,
        attempted,
        failed,
        values,
    } = measure(name, opts, &tracer);
    let correct = gates.iter().all(|g| g.pass);
    let table: &[Metric] = if opts.trace { &PER_LAYER } else { &END_TO_END };

    // The table.
    println!(
        "summit-benchmark · {name} · seed {} · {} s · {}{}",
        opts.seed,
        opts.seconds,
        if opts.trace { "traced" } else { "untraced" },
        if opts.quick { " · quick" } else { "" },
    );
    println!("host: {fingerprint}");
    println!("why:  {}", def.why);
    println!(
        "{:<44} {:>16}  {:<8} {:<7} bound",
        "metric", "value", "unit", "better"
    );
    for (m, value) in table.iter().zip(&values) {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!("{:.0} %", b * 100.0));
        println!(
            "  {:<42} {value:>16.4}  {:<8} {:<7} {bound}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    if !opts.trace {
        println!("  throughput_per_s here is {}", def.throughput_of);
    }
    // A timing is quoted as its median and the highest percentile that
    // still has ten samples beyond it, with the sample count.
    let unit_seconds: Vec<f64> = phase.units.iter().map(|u| u.seconds).collect();
    let tail = tail_quantile(unit_seconds.len())
        .filter(|&q| q > 0.5)
        .map(|q| format!(", p{} {:.6} s", q * 100.0, quantile(&unit_seconds, q)))
        .unwrap_or_default();
    println!(
        "units: n = {}, median {:.6} s{tail}; set-ups: {setups:.4?} s",
        unit_seconds.len(),
        phase.unit_seconds()
    );
    for g in &gates {
        println!(
            "  {} {} — {}",
            if g.pass { "PASS" } else { "FAIL" },
            g.name,
            g.detail
        );
    }
    println!(
        "failed_share: {failed} / {attempted} = {}",
        failed as f64 / attempted.max(1) as f64
    );

    // The driver's line, and around it the result file (and the trace)
    // under benchmark/out/.
    let contract = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(table.iter().zip(&values).map(|(m, &value)| {
                let metric = Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]);
                (m.name, metric)
            })),
        ),
    ]);
    let mut record = vec![
        ("schema".to_owned(), Json::str("summit-benchmark-result-v1")),
        ("workload".to_owned(), Json::str(name)),
        ("seed".to_owned(), Json::Num(opts.seed as f64)),
        ("seconds".to_owned(), Json::Num(opts.seconds)),
        ("traced".to_owned(), Json::Bool(opts.trace)),
        ("quick".to_owned(), Json::Bool(opts.quick)),
        ("fingerprint".to_owned(), fingerprint.to_json()),
        ("unit_rates".to_owned(), numbers(&phase.rates())),
        ("unit_seconds".to_owned(), numbers(&unit_seconds)),
        ("setups_s".to_owned(), numbers(&setups)),
        (
            "gates".to_owned(),
            Json::Arr(
                gates
                    .iter()
                    .map(|g| Json::obj([("name", Json::str(g.name)), ("pass", Json::Bool(g.pass))]))
                    .collect(),
            ),
        ),
    ];
    record.extend(contract.entries().iter().cloned());
    // `[trace-]<workload>[-quick][-traced].json`, so that a smoke pass
    // never overwrites a measurement.
    let dir = out_dir();
    let stem = format!("{name}{}", if opts.quick { "-quick" } else { "" });
    let result = dir.join(if opts.trace {
        format!("{stem}-traced.json")
    } else {
        format!("{stem}.json")
    });
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        if opts.trace {
            let path = dir.join(format!("trace-{stem}.json"));
            std::fs::write(&path, tracer.chrome_trace().render() + "\n")?;
            println!("trace: {} spans in {}", tracer.span_count(), path.display());
        }
        std::fs::write(&result, Json::Obj(record).render() + "\n")
    });
    match written {
        Ok(()) => println!("result: {}", result.display()),
        Err(e) => eprintln!(
            "summit-benchmark: could not write under {}: {e}",
            dir.display()
        ),
    }

    println!("{}", contract.render());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Start this same executable as a child on one workload.
pub fn child(name: &str, seed: u64, opts: &Options, trace: bool) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    Ok(cmd)
}

/// Run every workload, each in a process of its own so that
/// `peak_rss_mb` is the workload's: untraced, then traced if asked.
pub fn run_all(opts: &Options) -> Result<ExitCode, String> {
    let mut failures = Vec::new();
    for def in &WORKLOADS {
        let modes: &[bool] = if opts.trace { &[false, true] } else { &[false] };
        for &trace in modes {
            let status = child(def.name, opts.seed, opts, trace)?
                .stdin(Stdio::null())
                .status()
                .map_err(|e| format!("cannot start {}: {e}", def.name))?;
            println!();
            if !status.success() {
                failures.push(format!(
                    "{}{}",
                    def.name,
                    if trace { " (traced)" } else { "" }
                ));
            }
        }
    }
    if failures.is_empty() {
        println!("summit-benchmark: all workloads correct");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("summit-benchmark: FAILED — {}", failures.join(", "));
        Ok(ExitCode::from(1))
    }
}
