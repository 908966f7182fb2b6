//! The fault-detection motif (Table I, row 1): "detect algorithmic or
//! other failure in execution, send signal for automatic or manual
//! remediation — e.g. detect simulation defect caused by execution error."
//!
//! A fleet of simulated solver runs emits residual-norm telemetry; healthy
//! runs decay geometrically with noise, faulty runs develop one of three
//! defects (a spike from a bit-flip-like event, a stall from a lost
//! subdomain, or divergence from an unstable step). An MLP classifier over
//! simple window statistics learns to flag faulty runs, and is compared
//! against the naive "residual went up" threshold rule — the ML detector
//! must dominate it on F1 (tested).

use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::Serialize;
use summit_dl::{model::MlpSpec, optim::Adam, schedule::LrSchedule, trainer::Trainer};
use summit_tensor::Matrix;

/// The defect classes injected into faulty runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FaultKind {
    /// A transient residual spike (soft error).
    Spike,
    /// The residual stops improving (lost work / hung subdomain).
    Stall,
    /// The residual grows geometrically (numerical instability).
    Divergence,
}

/// One simulated run's telemetry.
#[derive(Debug, Clone, Serialize)]
pub struct RunTelemetry {
    /// Residual norms per step.
    pub residuals: Vec<f32>,
    /// The injected fault, if any.
    pub fault: Option<FaultKind>,
}

/// Generate one run of `steps` residual samples. Healthy runs decay by ~2%
/// per step with multiplicative noise; faulty runs inject their defect at a
/// random onset in the middle third.
pub fn simulate_run(steps: usize, fault: Option<FaultKind>, seed: u64) -> RunTelemetry {
    assert!(steps >= 12, "telemetry needs at least 12 steps");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut residuals = Vec::with_capacity(steps);
    let mut r = 1.0f32;
    let onset = rng.gen_range(steps / 3..2 * steps / 3);
    for step in 0..steps {
        let noise: f32 = rng.gen_range(0.97f32..1.03);
        r *= 0.98 * noise;
        let mut value = r;
        if let Some(kind) = fault {
            if step >= onset {
                match kind {
                    FaultKind::Spike => {
                        if step == onset {
                            value *= rng.gen_range(5.0f32..20.0);
                        }
                    }
                    FaultKind::Stall => {
                        // Residual freezes at the onset value.
                        r = residuals[onset - 1];
                        value = r * rng.gen_range(0.995f32..1.005);
                    }
                    FaultKind::Divergence => {
                        r *= 1.08;
                        value = r;
                    }
                }
            }
        }
        residuals.push(value);
    }
    RunTelemetry { residuals, fault }
}

/// Window statistics the classifier sees: log-ratio trend, normalized
/// variance, largest single-step log jump, and end-to-start log ratio.
pub fn features(residuals: &[f32]) -> [f32; 4] {
    assert!(residuals.len() >= 2, "need at least two samples");
    let logs: Vec<f32> = residuals.iter().map(|r| r.max(1e-20).ln()).collect();
    let n = logs.len() as f32;
    let mean = logs.iter().sum::<f32>() / n;
    let var = logs.iter().map(|l| (l - mean).powi(2)).sum::<f32>() / n;
    let mut max_jump = f32::NEG_INFINITY;
    let mut trend = 0.0f32;
    for w in logs.windows(2) {
        let d = w[1] - w[0];
        max_jump = max_jump.max(d);
        trend += d;
    }
    trend /= n - 1.0;
    let total = logs[logs.len() - 1] - logs[0];
    [trend, var.sqrt(), max_jump, total]
}

/// A trained fault detector plus its evaluation.
pub struct FaultDetector {
    classifier: Trainer,
}

/// Detection quality on a labeled test fleet.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct DetectionReport {
    /// True positives.
    pub tp: u32,
    /// False positives.
    pub fp: u32,
    /// False negatives.
    pub fn_: u32,
    /// True negatives.
    pub tn: u32,
}

impl DetectionReport {
    /// Precision (0 when no positives were predicted).
    pub fn precision(&self) -> f64 {
        let denom = self.tp + self.fp;
        if denom == 0 {
            0.0
        } else {
            f64::from(self.tp) / f64::from(denom)
        }
    }

    /// Recall.
    pub fn recall(&self) -> f64 {
        let denom = self.tp + self.fn_;
        if denom == 0 {
            0.0
        } else {
            f64::from(self.tp) / f64::from(denom)
        }
    }

    /// F1 score.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Generate a fleet of runs, a quarter per fault class and the rest
/// healthy.
pub fn fleet(count: usize, steps: usize, seed: u64) -> Vec<RunTelemetry> {
    (0..count)
        .map(|i| {
            let fault = match i % 4 {
                0 => None,
                1 => Some(FaultKind::Spike),
                2 => Some(FaultKind::Stall),
                _ => Some(FaultKind::Divergence),
            };
            simulate_run(steps, fault, seed.wrapping_add(i as u64 * 1337))
        })
        .collect()
}

impl FaultDetector {
    /// Train on a labeled fleet.
    pub fn train(training: &[RunTelemetry], seed: u64) -> Self {
        let mut x = Matrix::zeros(training.len(), 4);
        let labels: Vec<usize> = training
            .iter()
            .map(|r| usize::from(r.fault.is_some()))
            .collect();
        for (i, run) in training.iter().enumerate() {
            x.row_mut(i).copy_from_slice(&features(&run.residuals));
        }
        let mut classifier = Trainer::new(
            MlpSpec::new(4, &[16], 2).build(seed),
            Box::new(Adam::new(0.01, 1e-5)),
            LrSchedule::Constant,
        );
        for _ in 0..300 {
            classifier.train_batch(&x, &labels);
        }
        FaultDetector { classifier }
    }

    /// Flag a run as faulty?
    pub fn is_faulty(&mut self, run: &RunTelemetry) -> bool {
        let x = Matrix::from_vec(1, 4, features(&run.residuals).to_vec());
        let logits = self.classifier.predict(&x);
        logits.get(0, 1) > logits.get(0, 0)
    }

    /// Evaluate on a labeled fleet.
    pub fn evaluate(&mut self, test: &[RunTelemetry]) -> DetectionReport {
        let mut report = DetectionReport {
            tp: 0,
            fp: 0,
            fn_: 0,
            tn: 0,
        };
        for run in test {
            match (self.is_faulty(run), run.fault.is_some()) {
                (true, true) => report.tp += 1,
                (true, false) => report.fp += 1,
                (false, true) => report.fn_ += 1,
                (false, false) => report.tn += 1,
            }
        }
        report
    }
}

/// Bridge from the fault-tolerant trainer's real telemetry to the
/// detector's input: map per-step-attempt wall-clock seconds (e.g.
/// [`RecoveryOutcome::step_seconds`](summit_dl::recovery::RecoveryOutcome))
/// onto a residual-like series.
///
/// Healthy step attempts take roughly the median time, so the series decays
/// like a healthy solver residual (2% per step, scaled by the time ratio);
/// a faulted attempt — a communication timeout burning its whole deadline —
/// shows up as a multiplicative spike, exactly the signature
/// [`FaultKind::Spike`] trains on. This is the "detect execution fault from
/// run telemetry" loop of Table I row 1 closed over *injected* faults
/// rather than simulated ones; the chaos suite feeds it end to end.
///
/// # Panics
/// Panics if fewer than 12 attempts were recorded (the detector's feature
/// window minimum).
pub fn telemetry_from_step_seconds(step_seconds: &[f64], faulted: bool) -> RunTelemetry {
    assert!(
        step_seconds.len() >= 12,
        "telemetry needs at least 12 step attempts"
    );
    let mut sorted: Vec<f64> = step_seconds.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    let median = sorted[sorted.len() / 2].max(1e-9);
    let mut r = 1.0f32;
    let residuals = step_seconds
        .iter()
        .map(|&t| {
            r *= 0.98;
            r * ((t / median) as f32).max(1e-6)
        })
        .collect();
    RunTelemetry {
        residuals,
        fault: faulted.then_some(FaultKind::Spike),
    }
}

/// The naive baseline: flag a run whose residual ever rises by more than
/// `threshold` log units in one step.
pub fn threshold_detector(run: &RunTelemetry, threshold: f32) -> bool {
    run.residuals
        .windows(2)
        .any(|w| (w[1].max(1e-20) / w[0].max(1e-20)).ln() > threshold)
}

/// Evaluate the threshold baseline on a fleet.
pub fn evaluate_threshold(test: &[RunTelemetry], threshold: f32) -> DetectionReport {
    let mut report = DetectionReport {
        tp: 0,
        fp: 0,
        fn_: 0,
        tn: 0,
    };
    for run in test {
        match (threshold_detector(run, threshold), run.fault.is_some()) {
            (true, true) => report.tp += 1,
            (true, false) => report.fp += 1,
            (false, true) => report.fn_ += 1,
            (false, false) => report.tn += 1,
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_runs_decay() {
        let run = simulate_run(100, None, 1);
        assert!(run.residuals[99] < run.residuals[0] * 0.5);
        assert!(run.fault.is_none());
    }

    #[test]
    fn faults_leave_signatures() {
        let spike = simulate_run(100, Some(FaultKind::Spike), 2);
        let jump = features(&spike.residuals)[2];
        assert!(jump > 1.0, "spike max jump {jump}");

        let diverge = simulate_run(100, Some(FaultKind::Divergence), 3);
        let total = features(&diverge.residuals)[3];
        let healthy_total = features(&simulate_run(100, None, 3).residuals)[3];
        assert!(total > healthy_total + 1.0, "{total} vs {healthy_total}");

        let stall = simulate_run(100, Some(FaultKind::Stall), 4);
        let trend = features(&stall.residuals)[0];
        let healthy_trend = features(&simulate_run(100, None, 4).residuals)[0];
        // A stall keeps the residual flat after onset, so the mean log-step
        // is distinctly less negative than the healthy 2%-decay trend.
        assert!(
            trend > healthy_trend + 0.005,
            "stall trend {trend} vs {healthy_trend}"
        );
    }

    #[test]
    fn detector_learns_and_beats_threshold_rule() {
        let train = fleet(200, 100, 10);
        let test = fleet(120, 100, 9999);
        let mut detector = FaultDetector::train(&train, 5);
        let ml = detector.evaluate(&test);
        assert!(ml.recall() > 0.85, "ML recall {}", ml.recall());
        assert!(ml.precision() > 0.85, "ML precision {}", ml.precision());
        // The spike-only threshold rule misses stalls entirely.
        let rule = evaluate_threshold(&test, 1.0);
        assert!(
            ml.f1() > rule.f1() + 0.1,
            "ML F1 {} vs threshold F1 {}",
            ml.f1(),
            rule.f1()
        );
    }

    /// Seed-stability golden test: the whole pipeline — fleet generation,
    /// feature extraction, MLP training — is deterministic, so the
    /// confusion matrix on fixed seeds is a constant of the codebase. A
    /// drift here means someone changed the data generator, the features,
    /// or the training loop; rebaseline deliberately, never accidentally.
    #[test]
    #[allow(clippy::excessive_precision)] // golden values pinned verbatim
    fn detector_f1_is_seed_stable() {
        let print_only = std::env::var("PIN_F1").is_ok();
        // (train seed, detector seed, test seed) → golden F1.
        let golden: [(u64, u64, u64, f64); 3] = [
            (10, 5, 9999, 0.9888888888888889), // tp=89 fp=1 fn=1 tn=29
            (11, 6, 8888, 0.9890109890109891), // tp=90 fp=2 fn=0 tn=28
            (12, 7, 7777, 0.9729729729729730), // tp=90 fp=5 fn=0 tn=25
        ];
        for (train_seed, det_seed, test_seed, want) in golden {
            // 14-step windows: short enough that the noise floor costs the
            // detector some calls, so F1 sits strictly inside (0, 1) and
            // the pin has sensitivity in both directions.
            let train = fleet(200, 14, train_seed);
            let test = fleet(120, 14, test_seed);
            let mut detector = FaultDetector::train(&train, det_seed);
            let got = detector.evaluate(&test);
            if print_only {
                println!(
                    "({train_seed}, {det_seed}, {test_seed}, {:.16}), // tp={} fp={} fn={} tn={}",
                    got.f1(),
                    got.tp,
                    got.fp,
                    got.fn_,
                    got.tn
                );
                continue;
            }
            assert!(
                (got.f1() - want).abs() < 1e-9,
                "seeds ({train_seed},{det_seed},{test_seed}): F1 {} != golden {want}",
                got.f1()
            );
        }
    }

    #[test]
    fn step_time_telemetry_spikes_on_faulted_attempts() {
        // 30 healthy ~10ms attempts with one 400ms timeout burn at index 17.
        let mut times = vec![0.010f64; 30];
        times[17] = 0.400;
        let faulted = telemetry_from_step_seconds(&times, true);
        assert_eq!(faulted.fault, Some(FaultKind::Spike));
        let jump = features(&faulted.residuals)[2];
        assert!(jump > 1.0, "timeout attempt must read as a spike: {jump}");
        let healthy = telemetry_from_step_seconds(&vec![0.010; 30], false);
        assert!(healthy.fault.is_none());
        let healthy_jump = features(&healthy.residuals)[2];
        assert!(
            healthy_jump < 0.0,
            "uniform step times must decay monotonically: {healthy_jump}"
        );
    }

    #[test]
    fn report_arithmetic() {
        let r = DetectionReport {
            tp: 8,
            fp: 2,
            fn_: 2,
            tn: 8,
        };
        assert!((r.precision() - 0.8).abs() < 1e-12);
        assert!((r.recall() - 0.8).abs() < 1e-12);
        assert!((r.f1() - 0.8).abs() < 1e-12);
        let empty = DetectionReport {
            tp: 0,
            fp: 0,
            fn_: 0,
            tn: 1,
        };
        assert_eq!(empty.f1(), 0.0);
    }

    #[test]
    fn fleet_is_balanced_and_deterministic() {
        let a = fleet(40, 50, 7);
        let b = fleet(40, 50, 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.residuals, y.residuals);
        }
        let healthy = a.iter().filter(|r| r.fault.is_none()).count();
        assert_eq!(healthy, 10);
    }
}
