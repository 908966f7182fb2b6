//! Where a result came from. Two results are comparable only when their
//! fingerprints are equal (seed aside) — `BENCH_trajectory.json` mixed
//! hosts silently; this refuses to.

use std::process::Command;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub logical_cores: usize,
    pub simd_active: bool,
    /// The `SUMMIT_THREADS` pin, or `unset`.
    pub summit_threads: String,
    pub rustc: String,
    pub git_rev: String,
}

/// First line of a command's standard output, or `unknown` (the driver's
/// checkout is not a git repository, and a host may lack `rustc`).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

impl Fingerprint {
    pub fn capture() -> Self {
        Fingerprint {
            logical_cores: summit_pool::machine_parallelism(),
            simd_active: summit_tensor::simd::active(),
            summit_threads: std::env::var("SUMMIT_THREADS").unwrap_or_else(|_| "unset".into()),
            rustc: first_line("rustc", &["-V"]),
            git_rev: first_line(
                "git",
                &[
                    "-C",
                    env!("CARGO_MANIFEST_DIR"),
                    "rev-parse",
                    "--short",
                    "HEAD",
                ],
            ),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("logical_cores", Json::Num(self.logical_cores as f64)),
            ("simd_active", Json::Bool(self.simd_active)),
            ("summit_threads", Json::str(&self.summit_threads)),
            ("rustc", Json::str(&self.rustc)),
            ("git_rev", Json::str(&self.git_rev)),
        ])
    }

    pub fn from_json(doc: &Json) -> Option<Self> {
        Some(Fingerprint {
            logical_cores: doc.get("logical_cores")?.as_f64()? as usize,
            simd_active: doc.get("simd_active")?.as_bool()?,
            summit_threads: doc.get("summit_threads")?.as_str()?.to_owned(),
            rustc: doc.get("rustc")?.as_str()?.to_owned(),
            git_rev: doc.get("git_rev")?.as_str()?.to_owned(),
        })
    }

    /// The fields two results must share before their timings may be
    /// compared: everything but the revision, which is what a comparison
    /// is usually across.
    pub fn same_host(&self, other: &Fingerprint) -> bool {
        (
            self.logical_cores,
            self.simd_active,
            &self.summit_threads,
            &self.rustc,
        ) == (
            other.logical_cores,
            other.simd_active,
            &other.summit_threads,
            &other.rustc,
        )
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} logical cores, simd {}, SUMMIT_THREADS {}, {}, git {}",
            self.logical_cores,
            if self.simd_active { "on" } else { "off" },
            self.summit_threads,
            self.rustc,
            self.git_rev
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_round_trips_and_guards_comparisons() {
        let here = Fingerprint::capture();
        let back = Fingerprint::from_json(&Json::parse(&here.to_json().render()).unwrap());
        assert_eq!(back.as_ref(), Some(&here));
        let other_rev = Fingerprint {
            git_rev: "abc1234".into(),
            ..here.clone()
        };
        assert!(
            here.same_host(&other_rev),
            "a revision is what comparisons are across"
        );
        let other_host = Fingerprint {
            logical_cores: here.logical_cores + 6,
            ..here.clone()
        };
        assert!(!here.same_host(&other_host));
        let pinned = Fingerprint {
            summit_threads: "1".into(),
            ..here.clone()
        };
        assert!(!here.same_host(&pinned) || here.summit_threads == "1");
    }
}
