//! The executed serving plane: real replica threads, real forwards, real
//! clocks.
//!
//! [`run_executed`] pairs an open-loop paced load generator with
//! `replicas` worker threads that pull micro-batches off the shared
//! [`Batcher`] — the same state machine the load simulator drives — and
//! run [`ServableModel::forward_batch`] for real. Per-request latency is
//! measured admission → batch completion on a monotonic clock, and the
//! run returns the same [`CurvePoint`] shape the simulator produces, so
//! the executed small-scale curve can be checked directly against the
//! model's prediction (`tests/executed_vs_sim.rs` does exactly that).
//!
//! The generator paces arrivals on an absolute schedule of seeded
//! exponential inter-arrival gaps: sleep for the coarse part of each gap
//! and spin the rest, so offered rates in the thousands-per-second range
//! stay honest on a sleepy scheduler.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use summit_dl::inference::ServableModel;

use crate::batch::{BatchConfig, Batcher, QueuedRequest};
use crate::rng::SplitMix64;
use crate::service::{batch_matrix, feature_pool};
use crate::CurvePoint;

/// Configuration of one executed load point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutedConfig {
    /// Offered (open-loop) arrival rate, requests per second.
    pub rate_rps: f64,
    /// Total requests the generator issues.
    pub requests: usize,
    /// Replica worker threads sharing the queue.
    pub replicas: usize,
    /// Micro-batching and admission knobs.
    pub batch: BatchConfig,
    /// Seed for the inter-arrival gaps.
    pub seed: u64,
}

struct State {
    batcher: Batcher,
    done: bool,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
}

/// Monotonic seconds since the run started — the clock both the batcher
/// timestamps and the latency measurements use.
#[derive(Clone, Copy)]
struct Clock(Instant);

impl Clock {
    fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

fn replica_loop(
    shared: &Shared,
    clock: Clock,
    model: &ServableModel,
    pool: &[Vec<f32>],
) -> Vec<f64> {
    let mut latencies = Vec::new();
    let mut guard = shared.state.lock().expect("serve lock");
    loop {
        let now = clock.now();
        if let Some(batch) = guard.batcher.take_batch(now) {
            // More work may be dispatchable for an idle peer.
            if guard.batcher.queue_len() > 0 {
                shared.cv.notify_one();
            }
            drop(guard);
            let ids: Vec<u64> = batch.iter().map(|r| r.id).collect();
            let x = batch_matrix(pool, &ids);
            let out = model.forward_batch(&x);
            std::hint::black_box(out.as_slice()[0]);
            let t_done = clock.now();
            latencies.extend(batch.iter().map(|r| t_done - r.arrival_s));
            guard = shared.state.lock().expect("serve lock");
            continue;
        }
        if guard.done && guard.batcher.queue_len() == 0 {
            return latencies;
        }
        guard = match guard.batcher.next_deadline() {
            // Hold-for-batch: sleep at most until the oldest request's
            // dispatch deadline.
            Some(deadline) => {
                let wait = deadline - clock.now();
                if wait > 0.0 {
                    shared
                        .cv
                        .wait_timeout(guard, Duration::from_secs_f64(wait))
                        .expect("serve lock")
                        .0
                } else {
                    // Already due — take_batch will fire on the next spin.
                    guard
                }
            }
            None => shared.cv.wait(guard).expect("serve lock"),
        };
    }
}

/// Execute one load point for real. Returns the measured curve point
/// (plus whatever the admission gate refused, in its counters).
///
/// # Panics
/// Panics if `replicas == 0` or the rate is not positive.
pub fn run_executed(model: &ServableModel, cfg: &ExecutedConfig) -> CurvePoint {
    assert!(cfg.replicas > 0, "need at least one replica");
    assert!(cfg.rate_rps > 0.0, "rate must be positive");
    let pool = feature_pool(model.input_dim(), 64, cfg.seed ^ 0xfeed);
    let shared = Shared {
        state: Mutex::new(State {
            batcher: Batcher::new(cfg.batch),
            done: false,
        }),
        cv: Condvar::new(),
    };
    let clock = Clock(Instant::now());
    let mut latencies: Vec<f64> = Vec::new();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.replicas)
            .map(|_| s.spawn(|| replica_loop(&shared, clock, model, &pool)))
            .collect();

        // Open-loop generator on an absolute schedule: gap i is an
        // exponential draw, arrival i happens at the running sum.
        let mut rng = SplitMix64(cfg.seed ^ 0x10ad);
        let gap_mean = 1.0 / cfg.rate_rps;
        let mut t_next = 0.0f64;
        for i in 0..cfg.requests {
            t_next += rng.exp(gap_mean);
            loop {
                let now = clock.now();
                if now >= t_next {
                    break;
                }
                let dt = t_next - now;
                // Sleep overshoot on a busy host is routinely a
                // millisecond or two; an undershot reserve bursts
                // arrivals and manufactures queueing latency the policy
                // never caused. Keep a 2 ms spin reserve.
                if dt > 3.0e-3 {
                    std::thread::sleep(Duration::from_secs_f64(dt - 2.0e-3));
                } else {
                    std::hint::spin_loop();
                }
            }
            let mut st = shared.state.lock().expect("serve lock");
            let arrival_s = clock.now();
            // Rejections and sheds land in the batcher's counters; the
            // open-loop generator does not retry (the client saw an error).
            let _ = st.batcher.offer(QueuedRequest {
                id: i as u64,
                client: i as u64 % 1024,
                arrival_s,
            });
            drop(st);
            shared.cv.notify_one();
        }
        shared.state.lock().expect("serve lock").done = true;
        shared.cv.notify_all();
        for h in handles {
            latencies.extend(h.join().expect("replica thread"));
        }
    });

    let span_s = clock.now();
    let stats = shared.state.lock().expect("serve lock").batcher.stats();
    CurvePoint::from_latencies(
        cfg.rate_rps,
        cfg.requests as u64,
        stats,
        &mut latencies,
        span_s,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use summit_dl::model::MlpSpec;

    fn tiny_model() -> ServableModel {
        let spec = MlpSpec::new(16, &[32], 4);
        ServableModel::from_spec_params(&spec, &spec.build(3).flat_params())
    }

    #[test]
    fn executed_point_completes_every_admitted_request() {
        let model = tiny_model();
        let p = run_executed(
            &model,
            &ExecutedConfig {
                rate_rps: 2_000.0,
                requests: 400,
                replicas: 1,
                batch: BatchConfig::default(),
                seed: 11,
            },
        );
        assert_eq!(p.issued, 400);
        assert_eq!(p.completed + p.rejected + p.shed, 400);
        assert!(p.completed > 0);
        assert!(p.p99_ms >= p.p50_ms);
        assert!(p.span_s > 0.0);
    }

    #[test]
    fn two_replicas_share_the_queue() {
        let model = tiny_model();
        let p = run_executed(
            &model,
            &ExecutedConfig {
                rate_rps: 4_000.0,
                requests: 300,
                replicas: 2,
                batch: BatchConfig::default(),
                seed: 5,
            },
        );
        assert_eq!(p.completed + p.rejected + p.shed, 300);
    }
}
