//! Shared machinery for the machine-readable bench artifacts.
//!
//! Every bench target that used to hand-roll its own `target/BENCH_*.json`
//! writing (path anchoring, directory creation, error reporting) goes
//! through [`write_bench_json`] instead, and records its headline numbers
//! into the **committed perf trajectory** `BENCH_trajectory.json` at the
//! workspace root — one JSON line per (bench, PR) with the git revision and
//! date, so perf history survives `target/` cleans and reviews can diff the
//! curve instead of re-running old revisions.
//!
//! The trajectory file is append-per-PR: routine bench runs only *read* it
//! (the regression gate in `src/bin/gemm_gate.rs` compares fresh numbers
//! against the last committed entry); a run with `SUMMIT_BENCH_RECORD=1`
//! appends the new entry, which the PR then commits. No serde_json is
//! vendored, so both directions speak a line-oriented subset: one complete
//! JSON object per line, string keys, number/string scalar values.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The workspace root (the bench crate lives two levels below it).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the workspace root")
        .to_path_buf()
}

/// The workspace `target/` directory the CI artifacts upload from. Bench
/// binaries run with the *package* directory as CWD, so a bare relative
/// `target` would land in `crates/bench/target` — always anchor here.
pub fn target_dir() -> PathBuf {
    let dir = workspace_root().join("target");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Write a bench summary to `target/BENCH_<name>.json`, echoing the JSON
/// and the path to stdout (the CI log is the fallback artifact). Returns
/// the path written.
pub fn write_bench_json(name: &str, json: &str) -> PathBuf {
    let file = target_dir().join(format!("BENCH_{name}.json"));
    match std::fs::write(&file, json) {
        Ok(()) => println!("wrote {}", file.display()),
        Err(e) => eprintln!("could not write {}: {e}", file.display()),
    }
    print!("{json}");
    file
}

/// One committed trajectory record: a bench's headline metrics at one
/// revision.
#[derive(Debug, Clone)]
pub struct TrajectoryEntry {
    /// Bench name (`gemm`, `comm`, ...).
    pub bench: String,
    /// Abbreviated git revision the numbers were measured at (`-dirty`
    /// suffix: on uncommitted changes atop it).
    pub rev: String,
    /// ISO date of the measurement.
    pub date: String,
    /// Headline metrics, name → value. BTreeMap so the serialized line is
    /// deterministic.
    pub metrics: BTreeMap<String, f64>,
}

impl TrajectoryEntry {
    /// Build an entry for `bench` stamped with the current git revision
    /// and today's date.
    pub fn now(bench: &str, metrics: BTreeMap<String, f64>) -> Self {
        TrajectoryEntry {
            bench: bench.to_string(),
            rev: git_rev(),
            date: today(),
            metrics,
        }
    }

    fn to_json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v:.4}"))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"bench\": \"{}\", \"rev\": \"{}\", \"date\": \"{}\", \"metrics\": {{{metrics}}}}}",
            self.bench, self.rev, self.date
        )
    }
}

/// Path of the committed trajectory file.
pub fn trajectory_path() -> PathBuf {
    workspace_root().join("BENCH_trajectory.json")
}

/// Append `entry` to the committed trajectory — only when
/// `SUMMIT_BENCH_RECORD=1`, so routine bench runs never dirty the working
/// tree. Returns whether a line was written.
pub fn record_trajectory(entry: &TrajectoryEntry) -> bool {
    if std::env::var("SUMMIT_BENCH_RECORD").as_deref() != Ok("1") {
        return false;
    }
    let path = trajectory_path();
    let mut body = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| "{\"schema\": \"summit-bench-trajectory-v1\"}\n".to_string());
    if !body.ends_with('\n') {
        body.push('\n');
    }
    body.push_str(&entry.to_json_line());
    body.push('\n');
    match std::fs::write(&path, body) {
        Ok(()) => {
            println!(
                "recorded trajectory entry for '{}' in {}",
                entry.bench,
                path.display()
            );
            true
        }
        Err(e) => {
            eprintln!("could not append {}: {e}", path.display());
            false
        }
    }
}

/// The metrics of the most recent committed trajectory entry for `bench`,
/// or `None` if the file or entry does not exist. This is the regression
/// gate's baseline.
pub fn latest_trajectory_metrics(bench: &str) -> Option<BTreeMap<String, f64>> {
    let body = std::fs::read_to_string(trajectory_path()).ok()?;
    let prefix = format!("{{\"bench\": \"{bench}\"");
    body.lines()
        .rev()
        .find(|l| l.trim_start().starts_with(&prefix))
        .map(|l| parse_flat_object(l, "metrics"))
}

/// Extract the flat `"key": {...}` string→number object named `key` from
/// `text` (a trajectory line's `metrics`, a bench JSON's `headline`).
/// Tolerant of exactly the subset this module writes — the object must sit
/// on one line with scalar number values; anything unparseable is skipped.
pub fn parse_flat_object(text: &str, key: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Some(start) = text.find(&format!("\"{key}\"")) else {
        return out;
    };
    let Some(open) = text[start..].find('{') else {
        return out;
    };
    let inner = &text[start + open + 1..];
    let inner = &inner[..inner.find('}').unwrap_or(inner.len())];
    for pair in inner.split(',') {
        let mut halves = pair.splitn(2, ':');
        let (Some(k), Some(v)) = (halves.next(), halves.next()) else {
            continue;
        };
        let k = k.trim().trim_matches('"');
        if let Ok(v) = v.trim().parse::<f64>() {
            out.insert(k.to_string(), v);
        }
    }
    out
}

/// Which way a headline metric improves. Throughput-style metrics
/// (GFLOP/s, events/s, advantage ratios) are [`Direction::HigherIsBetter`];
/// latency-style metrics (p50/p99 milliseconds) are
/// [`Direction::LowerIsBetter`] — a serving gate that treated latency like
/// throughput would celebrate a 10× p99 blowup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Regression = value dropped more than the tolerance.
    HigherIsBetter,
    /// Regression = value grew more than the tolerance.
    LowerIsBetter,
}

/// Compare `current` metrics against a `baseline`, pushing a failure per
/// metric that regressed beyond `tolerance` (relative, e.g. `0.10`) in its
/// selected [`Direction`]. `select` names the metrics under the gate and
/// their direction; unselected baseline keys are ignored, selected keys
/// missing from `current` fail. Returns a `metric, baseline, current,
/// ratio` diff table for the CI artifact, and prints one `trajectory:`
/// line per metric checked.
pub fn compare_metrics(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    select: &dyn Fn(&str) -> Option<Direction>,
    tolerance: f64,
    failures: &mut Vec<String>,
) -> String {
    let mut diff = String::from("metric, baseline, current, ratio\n");
    for (key, base) in baseline {
        let Some(direction) = select(key) else {
            continue;
        };
        let Some(&now) = current.get(key) else {
            failures.push(format!("{key} missing from current metrics"));
            continue;
        };
        let ratio = if *base > 0.0 { now / base } else { 1.0 };
        diff.push_str(&format!("{key}, {base:.4}, {now:.4}, {ratio:.3}\n"));
        let (regressed, moved_pct) = match direction {
            Direction::HigherIsBetter => (ratio < 1.0 - tolerance, (1.0 - ratio) * 100.0),
            Direction::LowerIsBetter => (ratio > 1.0 + tolerance, (ratio - 1.0) * 100.0),
        };
        if regressed {
            let verb = match direction {
                Direction::HigherIsBetter => "regressed",
                Direction::LowerIsBetter => "grew",
            };
            failures.push(format!(
                "{key} {verb} {moved_pct:.1}% vs trajectory ({base:.4} -> {now:.4})"
            ));
        } else {
            println!("trajectory: {key} {base:.4} -> {now:.4} ({ratio:.3}×) ✓");
        }
    }
    diff
}

/// The standard trajectory-regression leg every gate binary runs: honors
/// `SUMMIT_GATE_SKIP_TRAJECTORY=1` (hosts not comparable to the recording
/// machine), loads the last committed entry for `bench`, and delegates to
/// [`compare_metrics`]. Returns the diff table (header-only when skipped
/// or no baseline exists).
pub fn gate_trajectory(
    bench: &str,
    current: &BTreeMap<String, f64>,
    select: &dyn Fn(&str) -> Option<Direction>,
    tolerance: f64,
    failures: &mut Vec<String>,
) -> String {
    if std::env::var("SUMMIT_GATE_SKIP_TRAJECTORY").as_deref() == Ok("1") {
        println!("trajectory: comparison skipped (SUMMIT_GATE_SKIP_TRAJECTORY=1)");
        return String::from("metric, baseline, current, ratio\n");
    }
    match latest_trajectory_metrics(bench) {
        Some(baseline) => compare_metrics(&baseline, current, select, tolerance, failures),
        None => {
            println!("trajectory: no committed {bench} entry yet — other legs only");
            String::from("metric, baseline, current, ratio\n")
        }
    }
}

/// Abbreviated git revision of the working tree, or `"unknown"` outside a
/// repository. A tree with uncommitted changes to tracked files reads
/// `<HEAD>-dirty`, so numbers measured on a change are never attributed to
/// its parent commit.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args([
            "describe",
            "--always",
            "--dirty",
            "--abbrev=7",
            "--exclude=*",
        ])
        .current_dir(workspace_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Today's civil date (UTC) as `YYYY-MM-DD`, derived from the system clock
/// with the standard days-from-epoch algorithm — no chrono dependency.
pub fn today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    // Howard Hinnant's civil-from-days.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_line_round_trips_through_the_parser() {
        let mut metrics = BTreeMap::new();
        metrics.insert("matmul_512_f32_gflops".to_string(), 56.8123);
        metrics.insert("matmul_512_f32_pct_of_roofline".to_string(), 84.5);
        let entry = TrajectoryEntry {
            bench: "gemm".to_string(),
            rev: "abc1234".to_string(),
            date: "2026-08-07".to_string(),
            metrics: metrics.clone(),
        };
        let line = entry.to_json_line();
        let parsed = parse_flat_object(&line, "metrics");
        for (k, v) in &metrics {
            let got = parsed.get(k).copied().expect("key survives");
            assert!((got - v).abs() < 1e-3, "{k}: {got} vs {v}");
        }
    }

    #[test]
    fn date_arithmetic_is_civil() {
        // The algorithm is pure in the epoch-seconds → date direction;
        // spot-check the format and a sane range rather than a wall-clock
        // value.
        let d = today();
        assert_eq!(d.len(), 10);
        assert_eq!(&d[4..5], "-");
        assert_eq!(&d[7..8], "-");
        let year: i32 = d[..4].parse().expect("year parses");
        assert!((2024..2124).contains(&year), "year {year}");
    }

    #[test]
    fn compare_metrics_is_direction_aware() {
        let base: BTreeMap<String, f64> = [
            ("p99_ms".to_string(), 10.0),
            ("peak_rps".to_string(), 1000.0),
            ("ignored".to_string(), 5.0),
        ]
        .into();
        let select = |k: &str| match k {
            "p99_ms" => Some(Direction::LowerIsBetter),
            "peak_rps" => Some(Direction::HigherIsBetter),
            _ => None,
        };

        // Latency doubled and throughput halved: both fail.
        let worse: BTreeMap<String, f64> = [
            ("p99_ms".to_string(), 20.0),
            ("peak_rps".to_string(), 500.0),
        ]
        .into();
        let mut failures = Vec::new();
        let diff = compare_metrics(&base, &worse, &select, 0.10, &mut failures);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("p99_ms grew")));
        assert!(failures.iter().any(|f| f.contains("peak_rps regressed")));
        assert!(diff.contains("p99_ms, 10.0000, 20.0000, 2.000"));
        assert!(!diff.contains("ignored"));

        // Latency halved and throughput doubled: improvements both ways.
        let better: BTreeMap<String, f64> = [
            ("p99_ms".to_string(), 5.0),
            ("peak_rps".to_string(), 2000.0),
        ]
        .into();
        let mut failures = Vec::new();
        compare_metrics(&base, &better, &select, 0.10, &mut failures);
        assert!(failures.is_empty(), "{failures:?}");

        // Within tolerance either way: no failure.
        let noisy: BTreeMap<String, f64> = [
            ("p99_ms".to_string(), 10.5),
            ("peak_rps".to_string(), 950.0),
        ]
        .into();
        let mut failures = Vec::new();
        compare_metrics(&base, &noisy, &select, 0.10, &mut failures);
        assert!(failures.is_empty(), "{failures:?}");

        // A selected metric missing from current is itself a failure.
        let missing: BTreeMap<String, f64> = [("p99_ms".to_string(), 9.0)].into();
        let mut failures = Vec::new();
        compare_metrics(&base, &missing, &select, 0.10, &mut failures);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("peak_rps missing"));
    }

    #[test]
    fn workspace_root_holds_the_manifest() {
        assert!(workspace_root().join("Cargo.toml").exists());
    }

    #[test]
    fn record_is_inert_without_the_env_gate() {
        // SUMMIT_BENCH_RECORD unset/≠1 → nothing written.
        if std::env::var("SUMMIT_BENCH_RECORD").as_deref() == Ok("1") {
            return; // someone is deliberately recording; don't fight them
        }
        let entry = TrajectoryEntry::now("harness-selftest", BTreeMap::new());
        assert!(!record_trajectory(&entry));
        assert!(latest_trajectory_metrics("harness-selftest").is_none());
    }
}
