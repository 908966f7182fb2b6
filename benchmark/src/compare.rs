//! Comparing results: `aa` (is the benchmark itself steady?) and
//! `compare` (two result files of one workload, same host only).

use std::process::{ExitCode, Stdio};

use crate::fingerprint::Fingerprint;
use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::runner::child;
use crate::stats::{median, quartiles, spread, within_bound, worsening};
use crate::workloads::WORKLOADS;
use crate::Options;

/// The end-to-end values of a result: the driver's last line or a result
/// file (both carry `metrics`).
fn end_to_end_values(doc: &Json) -> Result<Vec<f64>, String> {
    END_TO_END
        .iter()
        .map(|m| {
            doc.get("metrics")
                .and_then(|all| all.get(m.name))
                .and_then(|metric| metric.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result has no end-to-end metric {}", m.name))
        })
        .collect()
}

/// One untraced child run; returns its end-to-end values.
fn measure_once(name: &str, seed: u64, opts: &Options) -> Result<Vec<f64>, String> {
    let out = child(name, seed, opts, false)?
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{name} (seed {seed}) failed:\n{stdout}"));
    }
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    end_to_end_values(&Json::parse(last)?)
}

/// Two interleaved sets of `opts.runs` untraced runs of this build, run
/// `i` of both sets on seed `opts.seed + i`. Fails when the medians of
/// the two sets disagree, either way, by more than a metric's bound.
pub fn aa(opts: &Options) -> Result<ExitCode, String> {
    let names: Vec<&str> = match &opts.workload {
        Some(name) => vec![name],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    println!("host: {}", Fingerprint::capture());
    let mut disagreements = Vec::new();
    for name in names {
        // sets[set][metric] = that set's values of that metric.
        let mut sets = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for i in 0..opts.runs {
            for set in &mut sets {
                let values = measure_once(name, opts.seed.wrapping_add(i as u64), opts)?;
                for (column, v) in set.iter_mut().zip(values) {
                    column.push(v);
                }
            }
        }
        println!(
            "{name}: two sets of {} runs at {} s",
            opts.runs, opts.seconds
        );
        println!(
            "  {:<18} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}",
            "metric", "median A", "median B", "disagree", "bound", "spread A", "spread B"
        );
        for (i, m) in END_TO_END.iter().enumerate() {
            let (a, b) = (&sets[0][i], &sets[1][i]);
            let (ma, mb) = (median(a), median(b));
            let bound = m.bound.expect("end-to-end metrics are bounded");
            let disagree = worsening(m.better, ma, mb).abs();
            let verdict = if disagree > bound { "FAIL" } else { "ok" };
            println!(
                "  {:<18} {ma:>14.4} {mb:>14.4} {:>8.2}% {:>6.0}% {:>7.2}% {:>7.2}%  {verdict}",
                m.name,
                disagree * 100.0,
                bound * 100.0,
                spread(a) * 100.0,
                spread(b) * 100.0,
            );
            println!(
                "    quartiles A {:.4?}  B {:.4?}",
                quartiles(a),
                quartiles(b)
            );
            if disagree > bound {
                disagreements.push(format!("{name}/{}", m.name));
            }
        }
    }
    if disagreements.is_empty() {
        println!("aa: both sets agree within every bound");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("aa: FAILED — {}", disagreements.join(", "));
        Ok(ExitCode::from(1))
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// What must be equal before two results may be compared at all.
fn comparable(a: &Json, b: &Json) -> Result<(), String> {
    for key in ["workload", "seconds", "traced", "quick"] {
        if a.get(key) != b.get(key) {
            return Err(format!("results differ in `{key}`; not comparable"));
        }
    }
    let print = |doc: &Json| {
        doc.get("fingerprint")
            .and_then(Fingerprint::from_json)
            .ok_or("result file carries no host fingerprint")
    };
    let (fa, fb) = (print(a)?, print(b)?);
    if !fa.same_host(&fb) {
        return Err(format!(
            "host fingerprints differ; refusing to compare\n  a: {fa}\n  b: {fb}"
        ));
    }
    Ok(())
}

/// Compare result file `b` (the candidate) against `a` (the baseline).
pub fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let (doc_a, doc_b) = (load(a)?, load(b)?);
    comparable(&doc_a, &doc_b)?;
    let (va, vb) = (end_to_end_values(&doc_a)?, end_to_end_values(&doc_b)?);
    let mut worse = 0;
    println!(
        "{:<18} {:>14} {:>14} {:>9} {:>7}",
        "metric", "baseline", "candidate", "worse by", "bound"
    );
    for ((m, base), cand) in END_TO_END.iter().zip(va).zip(vb) {
        let bound = m.bound.expect("end-to-end metrics are bounded");
        let regressed = !within_bound(m.better, base, cand, bound);
        let verdict = if regressed { "REGRESSED" } else { "ok" };
        println!(
            "{:<18} {base:>14.4} {cand:>14.4} {:>8.2}% {:>6.0}%  {verdict}",
            m.name,
            worsening(m.better, base, cand) * 100.0,
            bound * 100.0
        );
        worse += usize::from(regressed);
    }
    println!("one run each: a difference inside the run-to-run spread (see `aa`) is unresolved, not a change");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(cores: f64, workload: &str) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("seconds", Json::Num(15.0)),
            ("traced", Json::Bool(false)),
            ("quick", Json::Bool(false)),
            (
                "fingerprint",
                Json::obj([
                    ("logical_cores", Json::Num(cores)),
                    ("simd_active", Json::Bool(true)),
                    ("summit_threads", Json::str("unset")),
                    ("rustc", Json::str("rustc 1.95.0")),
                    ("git_rev", Json::str("abc1234")),
                ]),
            ),
        ])
    }

    #[test]
    fn refuses_results_from_different_hosts_or_workloads() {
        assert!(comparable(&result(2.0, "train_sync"), &result(2.0, "train_sync")).is_ok());
        let err = comparable(&result(2.0, "train_sync"), &result(8.0, "train_sync")).unwrap_err();
        assert!(err.contains("fingerprints differ"), "{err}");
        let err = comparable(&result(2.0, "train_sync"), &result(2.0, "serve_open")).unwrap_err();
        assert!(err.contains("workload"), "{err}");
        let bare = Json::obj([("workload", Json::str("x"))]);
        assert!(comparable(&bare, &bare)
            .unwrap_err()
            .contains("no host fingerprint"));
    }
}
