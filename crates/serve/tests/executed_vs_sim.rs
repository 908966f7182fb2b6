//! The executed threaded server against the discrete-event simulator at
//! matched sub-saturation rates.
//!
//! The one serve check whose verdict depends on host timing (the service
//! model is calibrated on this machine and the executed plane pays condvar
//! wakeups and scheduler jitter the model does not), so it is ignored in
//! debug builds and stays out of the tier-1 verdict; the `serve` CI job runs
//! it under `--release`. The tolerances are wide for shared runners: they
//! catch a policy divergence between the two planes, not a perf change.

use summit_dl::inference::ServableModel;
use summit_dl::model::MlpSpec;
use summit_serve::batch::BatchConfig;
use summit_serve::server::{run_executed, ExecutedConfig};
use summit_serve::service::calibrate;
use summit_serve::sim::{simulate, SimConfig};

#[test]
#[cfg_attr(debug_assertions, ignore = "host-timing verdict: run under --release")]
fn executed_server_tracks_the_simulator_below_the_knee() {
    // Wide enough that one forward costs hundreds of microseconds: the
    // executed plane's lock and condvar overhead must be noise next to the
    // service time, or this would measure the thread scheduler.
    let spec = MlpSpec::new(256, &[512, 512], 128);
    let model = ServableModel::from_spec_params(&spec, &spec.build(1234).flat_params());
    let (_, fit) = calibrate(&model, &[1, 2, 4, 8, 16, 32], 30, 7);
    // One executed replica: on this host several would contend for the same
    // GEMM worker pool, which the model's independent replicas do not.
    let replicas = 1;
    let batch = BatchConfig::default();
    for frac in [0.1, 0.2, 0.3] {
        let rate = frac * fit.peak_rps(16);
        let requests = ((rate * 0.5) as usize).clamp(300, 20_000);
        let executed = run_executed(
            &model,
            &ExecutedConfig {
                rate_rps: rate,
                requests,
                replicas,
                batch,
                seed: 31,
            },
        );
        let modeled = simulate(
            &fit,
            batch,
            &SimConfig {
                clients: 200_000,
                duration_s: (requests as f64 / rate).max(0.2),
                target_rate_rps: rate,
                replicas,
                seed: 31,
            },
        );
        let rps_err = (executed.achieved_rps - modeled.achieved_rps).abs() / modeled.achieved_rps;
        let p50_ratio = executed.p50_ms / modeled.p50_ms;
        println!(
            "at {rate:.0} rps: achieved {:.0} executed vs {:.0} simulated ({:.1}% off), \
             p50 {:.3} ms vs {:.3} ms ({p50_ratio:.2}x)",
            executed.achieved_rps,
            modeled.achieved_rps,
            100.0 * rps_err,
            executed.p50_ms,
            modeled.p50_ms
        );
        assert!(rps_err <= 0.5, "throughput {executed:?} vs {modeled:?}");
        assert!(
            (1.0 / 50.0..=50.0).contains(&p50_ratio),
            "p50 {executed:?} vs {modeled:?}"
        );
    }
}
