//! Closed-loop load generation at 10⁵–10⁶ simulated clients.
//!
//! A discrete-event simulator drives the **same** [`Batcher`] state
//! machine the executed server runs, against the calibrated
//! [`ServiceModel`] — so the latency-vs-throughput curve it sweeps is a
//! prediction of the real plane's policy, not of a re-implementation.
//!
//! Clients are closed-loop: each thinks for an exponential delay, issues
//! one request, and does not issue the next until the current one
//! completes, is rejected, or is shed (rejects count as a response —
//! backpressure reaches the client, who backs off one think time). With
//! `N` clients and think mean `N / λ`, the aggregate arrival process is
//! Poisson at rate `λ` while the plane keeps up, and bends below it as
//! replicas saturate and responses (the gate for the next request) slow
//! down — the classic closed-loop latency/throughput knee.
//!
//! The run is **duration-based**: clients issue requests whose arrival
//! falls inside `[0, duration_s)` and then retire, so the offered rate is
//! steady across the whole measurement window and the post-deadline drain
//! is at most one queue of in-flight work (a fixed per-client request
//! count would instead leave a long straggler tail — the last client's
//! think times dominate the span and deflate the measured throughput).
//!
//! Everything is deterministic: a seeded SplitMix64 stream, a virtual
//! clock, and an event heap ordered by `(time, sequence)` so f64 ties
//! break identically on every run.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::batch::{Admission, BatchConfig, Batcher, QueuedRequest};
use crate::rng::SplitMix64;
use crate::service::ServiceModel;
use crate::CurvePoint;

/// Load-sweep configuration for one simulated point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Simulated closed-loop clients (the 10⁵–10⁶ knob).
    pub clients: u64,
    /// Virtual seconds of steady load; arrivals stop at this instant and
    /// the queue drains.
    pub duration_s: f64,
    /// Aggregate target arrival rate; per-client think mean is
    /// `clients / target_rate_rps`.
    pub target_rate_rps: f64,
    /// Model replicas pulling micro-batches from the shared queue.
    pub replicas: usize,
    /// RNG seed for think times.
    pub seed: u64,
}

enum Ev {
    /// A client's request arrives at the admission gate.
    Arrival { client: u64 },
    /// A replica finishes a micro-batch.
    Done { batch: Vec<QueuedRequest> },
    /// Hold-for-batch deadline: re-ask the batcher.
    Timer,
}

struct Scheduled {
    t: f64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.t.to_bits() == other.t.to_bits() && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first, with the
        // issue sequence as a deterministic tiebreak.
        other
            .t
            .total_cmp(&self.t)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Sweep one arrival rate: simulate `cfg.clients` closed-loop clients for
/// `cfg.duration_s` virtual seconds against `cfg.replicas` replicas that
/// serve micro-batches in `service.batch_seconds(b)` virtual seconds,
/// under the batching and admission policy of `batch_cfg`.
///
/// # Panics
/// Panics if `cfg.replicas == 0`, `cfg.clients == 0`, or the target rate
/// or duration is not positive.
pub fn simulate(service: &ServiceModel, batch_cfg: BatchConfig, cfg: &SimConfig) -> CurvePoint {
    assert!(cfg.replicas > 0, "need at least one replica");
    assert!(cfg.clients > 0, "need at least one client");
    assert!(cfg.target_rate_rps > 0.0, "target rate must be positive");
    assert!(cfg.duration_s > 0.0, "duration must be positive");
    let think_mean = cfg.clients as f64 / cfg.target_rate_rps;
    let mut rng = SplitMix64(cfg.seed ^ 0x5e41_19e5);
    let mut heap: BinaryHeap<Scheduled> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut issued = 0u64;

    // A client's next request arrives one think time after its previous
    // response (or at its initial think, for the first). Arrivals at or
    // past the deadline retire the client.
    macro_rules! think {
        ($now:expr, $client:expr, $rng:expr) => {{
            let t = $now + $rng.exp(think_mean);
            if t < cfg.duration_s {
                issued += 1;
                heap.push(Scheduled {
                    t,
                    seq,
                    ev: Ev::Arrival { client: $client },
                });
                seq += 1;
            }
        }};
    }

    for c in 0..cfg.clients {
        think!(0.0, c, rng);
    }

    let mut batcher = Batcher::new(batch_cfg);
    let mut idle = cfg.replicas;
    let mut latencies: Vec<f64> = Vec::new();
    let mut next_id = 0u64;
    let mut t_end = 0.0f64;

    // Pull ready batches onto idle replicas; in hold mode, arm a timer at
    // the batcher's deadline instead.
    fn dispatch(
        now: f64,
        batcher: &mut Batcher,
        idle: &mut usize,
        service: &ServiceModel,
        heap: &mut BinaryHeap<Scheduled>,
        seq: &mut u64,
    ) {
        while *idle > 0 {
            match batcher.take_batch(now) {
                Some(batch) => {
                    *idle -= 1;
                    let done = now + service.batch_seconds(batch.len());
                    heap.push(Scheduled {
                        t: done,
                        seq: *seq,
                        ev: Ev::Done { batch },
                    });
                    *seq += 1;
                }
                None => {
                    if let Some(deadline) = batcher.next_deadline() {
                        heap.push(Scheduled {
                            t: deadline.max(now),
                            seq: *seq,
                            ev: Ev::Timer,
                        });
                        *seq += 1;
                    }
                    break;
                }
            }
        }
    }

    while let Some(Scheduled { t: now, ev, .. }) = heap.pop() {
        t_end = t_end.max(now);
        match ev {
            Ev::Arrival { client } => {
                let req = QueuedRequest {
                    id: next_id,
                    client,
                    arrival_s: now,
                };
                next_id += 1;
                // A rejected or shed client sees the error immediately and
                // backs off one think time before retrying.
                match batcher.offer(req) {
                    Admission::Admitted => {}
                    Admission::Rejected => think!(now, client, rng),
                    Admission::AdmittedShedding(victim) => think!(now, victim.client, rng),
                }
                dispatch(now, &mut batcher, &mut idle, service, &mut heap, &mut seq);
            }
            Ev::Done { batch } => {
                idle += 1;
                for r in &batch {
                    latencies.push(now - r.arrival_s);
                    think!(now, r.client, rng);
                }
                dispatch(now, &mut batcher, &mut idle, service, &mut heap, &mut seq);
            }
            Ev::Timer => {
                dispatch(now, &mut batcher, &mut idle, service, &mut heap, &mut seq);
            }
        }
    }

    let stats = batcher.stats();
    debug_assert_eq!(batcher.queue_len(), 0, "drained at end of load");
    CurvePoint::from_latencies(cfg.target_rate_rps, issued, stats, &mut latencies, t_end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::AdmissionPolicy;

    const SERVICE: ServiceModel = ServiceModel {
        base_s: 1.0e-3,
        per_row_s: 1.0e-4,
    };

    fn cfg(rate: f64) -> SimConfig {
        SimConfig {
            clients: 2_000,
            duration_s: 10.0,
            target_rate_rps: rate,
            replicas: 2,
            seed: 42,
        }
    }

    #[test]
    fn light_load_tracks_the_offered_rate() {
        // Capacity ≈ 2 replicas × 16/(1e-3 + 16e-4) ≈ 12.3k rps; offer 500.
        let p = simulate(&SERVICE, BatchConfig::default(), &cfg(500.0));
        // Poisson(500 × 10 s) arrivals, all served: achieved ≈ offered.
        assert_eq!(p.completed, p.issued);
        assert!(p.rejected == 0 && p.shed == 0);
        assert!(
            (p.achieved_rps - p.offered_rps).abs() < 0.1 * p.offered_rps,
            "{p:?}"
        );
        // Lightly loaded adaptive batching: latency ≈ one small-batch
        // service time, far under 10 ms.
        assert!(p.p50_ms < 10.0, "{p:?}");
        assert!(p.p99_ms >= p.p50_ms);
    }

    #[test]
    fn saturation_bends_the_curve_and_sheds() {
        let heavy = simulate(
            &SERVICE,
            BatchConfig {
                queue_cap: 64,
                policy: AdmissionPolicy::RejectNew,
                ..BatchConfig::default()
            },
            &SimConfig {
                duration_s: 2.0,
                ..cfg(100_000.0)
            },
        );
        // Offered far beyond capacity: goodput is capped near capacity and
        // the bounded queue pushes back.
        let capacity = 2.0 * SERVICE.batch_rps(16);
        assert!(heavy.achieved_rps < 1.2 * capacity, "{heavy:?}");
        assert!(heavy.achieved_rps > 0.5 * capacity, "{heavy:?}");
        assert!(heavy.rejected > 0, "{heavy:?}");
        // Every issued request got exactly one outcome.
        assert_eq!(heavy.completed + heavy.rejected + heavy.shed, heavy.issued);
    }

    #[test]
    fn shed_policy_shows_up_in_the_stats() {
        let p = simulate(
            &SERVICE,
            BatchConfig {
                queue_cap: 32,
                policy: AdmissionPolicy::ShedOldest,
                ..BatchConfig::default()
            },
            &SimConfig {
                duration_s: 2.0,
                ..cfg(50_000.0)
            },
        );
        assert!(p.shed > 0, "{p:?}");
        assert_eq!(p.rejected, 0);
        assert_eq!(p.completed + p.shed, p.issued);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = simulate(&SERVICE, BatchConfig::default(), &cfg(3_000.0));
        let b = simulate(&SERVICE, BatchConfig::default(), &cfg(3_000.0));
        assert_eq!(a, b);
    }

    #[test]
    fn hold_mode_has_a_latency_floor_but_bigger_batches() {
        let adaptive = simulate(&SERVICE, BatchConfig::default(), &cfg(2_000.0));
        let hold = simulate(
            &SERVICE,
            BatchConfig {
                adaptive: false,
                max_queue_delay_s: 20.0e-3,
                ..BatchConfig::default()
            },
            &cfg(2_000.0),
        );
        assert!(
            hold.mean_batch > adaptive.mean_batch,
            "{hold:?} {adaptive:?}"
        );
        assert!(hold.p50_ms > adaptive.p50_ms, "{hold:?} {adaptive:?}");
    }

    /// The latency-vs-throughput curve: 2 × 10⁵ closed-loop clients on four
    /// replicas, seven rates from light load through the knee into overload
    /// (duration shrinks with rate so each point is ≈ 4 × 10⁵ arrivals at
    /// most). Every point conserves requests, light load meets the
    /// interactive SLO (p50 ≤ 50 ms, p99 ≤ 250 ms), and overload cannot
    /// outrun the fleet's modeled capacity.
    #[test]
    fn rate_sweep_conserves_requests_and_bends_at_capacity() {
        let capacity = 4.0 * SERVICE.peak_rps(16);
        let sweep: Vec<CurvePoint> = [0.1, 0.25, 0.5, 0.75, 0.9, 1.05, 1.3]
            .iter()
            .map(|&frac| {
                let rate = frac * capacity;
                let p = simulate(
                    &SERVICE,
                    BatchConfig {
                        queue_cap: 4096,
                        ..BatchConfig::default()
                    },
                    &SimConfig {
                        clients: 200_000,
                        duration_s: (400_000.0 / rate).clamp(0.05, 2.0),
                        target_rate_rps: rate,
                        replicas: 4,
                        seed: 97,
                    },
                );
                println!(
                    "offered {:>7.0} rps -> achieved {:>7.0}, p50 {:.3} ms, p99 {:.3} ms, \
                     batch {:.1}, rejected {}",
                    p.offered_rps, p.achieved_rps, p.p50_ms, p.p99_ms, p.mean_batch, p.rejected
                );
                assert_eq!(p.completed + p.rejected + p.shed, p.issued, "{p:?}");
                p
            })
            .collect();
        let light = &sweep[0];
        assert!(light.p50_ms <= 50.0 && light.p99_ms <= 250.0, "{light:?}");
        let knee = sweep.iter().map(|p| p.achieved_rps).fold(0.0, f64::max);
        assert!(knee <= 1.2 * capacity, "knee {knee} vs capacity {capacity}");
    }

    #[test]
    fn a_million_clients_is_tractable() {
        // The 10⁶-client knob: think mean 1e6/5e3 = 200 s over a short
        // window — most clients never fire, the ones that do form the
        // Poisson stream. Exercises the seeding path at full width.
        let p = simulate(
            &SERVICE,
            BatchConfig::default(),
            &SimConfig {
                clients: 1_000_000,
                duration_s: 0.5,
                target_rate_rps: 5_000.0,
                replicas: 2,
                seed: 9,
            },
        );
        assert!(p.issued > 1_000, "{p:?}");
        assert_eq!(p.completed, p.issued);
        assert!((p.achieved_rps - 5_000.0).abs() < 0.2 * 5_000.0, "{p:?}");
    }
}
