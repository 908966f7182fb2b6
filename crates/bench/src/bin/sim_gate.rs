//! CI gate over the event-driven full-machine collective simulator.
//!
//! Runs every modeled collective at Summit's full 27,648 GPU ranks on the
//! routed fat-tree fabric ([`summit_comm::sim::simulate_on`]), asserting
//!
//! 1. **exact traffic**: each collective's total simulated message count
//!    equals its closed-form event count (the per-rank version of the same
//!    pin lives in the `sim_equivalence` suite at executable scale);
//! 2. **Section VI-B from the simulated fabric**: a 100 MB ring allreduce
//!    across 4,608 nodes on the latency-free fat tree lands on the paper's
//!    ≈8 ms / 12.5 GB/s ring-bandwidth figures;
//! 3. **wall-time budgets**: every collective finishes within
//!    `SUMMIT_SIM_BUDGET_S` (default 10 s) — a case that overruns it must
//!    also sustain `SUMMIT_SIM_EVENTS_FLOOR` events/s (default 2×10⁷)
//!    under a hard cap of `SUMMIT_SIM_HARD_CAP_S` (default 120 s), so an
//!    overage can only ever be irreducible event count, never an engine
//!    regression (the small-message alltoall takes the Bruck log-p
//!    schedule exactly so its count stays p·⌈lg p⌉, not p·(p−1)). The
//!    gate's 10⁷-event cases run at 1.3–3.4×10⁷ events/s on one core of a
//!    noisy 2-vCPU host; CI's shared runners get a 30 s budget and a
//!    5×10⁶ floor;
//! 4. **no >10% events/s regression** against the last committed
//!    `BENCH_trajectory.json` entry (`SUMMIT_GATE_SKIP_TRAJECTORY=1`
//!    skips this leg on hosts not comparable to the recording machine).
//!
//! Also writes the algorithm crossover study (ring vs recursive doubling
//! vs Rabenseifner vs hierarchical over message size × world size, all
//! simulated) to `target/BENCH_crossover.json`, and the gate's own numbers
//! to `target/BENCH_sim.json`. `SUMMIT_BENCH_RECORD=1` appends the
//! headline metrics to the committed trajectory.

use std::collections::BTreeMap;
use std::time::Instant;

use summit_bench::harness;
use summit_comm::{sim, Collective};
use summit_machine::ClusterModel;
use summit_perf::crossover::AlgorithmCrossoverStudy;

/// Full-machine world: 4,608 nodes × 6 GPUs.
const P: u64 = 27_648;

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Case {
    name: &'static str,
    collective: Collective,
    elems: usize,
    /// Closed-form total message count for this (collective, p, elems).
    expected_messages: u64,
}

/// The gate's case list: every `Collective` variant, with payloads chosen
/// so the event count exercises the engine without being gratuitous
/// (sparse ring payloads keep empty chunks fast-forwarded; Rabenseifner's
/// payload divides the 2^14 power-of-two core).
fn cases() -> Vec<Case> {
    let p = P;
    let groups = p / 6;
    let core = 1u64 << 14; // pow2 core of 27,648
    let rem = p - core;
    let lg = 14u64;
    vec![
        Case {
            name: "ring_allreduce",
            collective: Collective::RingAllreduce {
                bucket_elems: usize::MAX,
            },
            elems: 1024,
            expected_messages: 2 * (p - 1) * 1024,
        },
        Case {
            name: "ring_allreduce_bucketed",
            collective: Collective::RingAllreduce { bucket_elems: 256 },
            elems: 1024,
            expected_messages: 2 * (p - 1) * 1024,
        },
        Case {
            name: "reduce_scatter",
            collective: Collective::ReduceScatter,
            elems: 1024,
            expected_messages: (p - 1) * 1024,
        },
        Case {
            name: "ring_allgather",
            collective: Collective::RingAllgather,
            elems: 1024,
            expected_messages: (p - 1) * 1024,
        },
        Case {
            name: "recursive_doubling",
            collective: Collective::RecursiveDoubling,
            elems: 16_384,
            // Core ranks exchange lg rounds; each folded-out rank adds one
            // pre-reduce send and one post-broadcast send.
            expected_messages: core * lg + 2 * rem,
        },
        Case {
            name: "rabenseifner",
            collective: Collective::Rabenseifner,
            elems: 16_384,
            // Halving + doubling: 2·lg rounds over the core, plus the fold.
            expected_messages: 2 * core * lg + 2 * rem,
        },
        Case {
            name: "binomial_broadcast",
            collective: Collective::BinomialBroadcast { root: 0 },
            elems: 16_384,
            expected_messages: p - 1,
        },
        Case {
            name: "binomial_reduce",
            collective: Collective::BinomialReduce { root: 0 },
            elems: 16_384,
            expected_messages: p - 1,
        },
        Case {
            name: "tree_allreduce",
            collective: Collective::TreeAllreduce,
            elems: 16_384,
            expected_messages: 2 * (p - 1),
        },
        Case {
            name: "hierarchical_allreduce",
            collective: Collective::HierarchicalAllreduce { group_size: 6 },
            elems: 4608,
            // Fan-in + fan-out inside every node, dense leader ring across
            // the 4,608 nodes.
            expected_messages: 2 * (p - groups) + groups * 2 * (groups - 1),
        },
        Case {
            name: "alltoall",
            collective: Collective::Alltoall,
            elems: 1,
            // 4-byte blocks sit under the Bruck threshold: ⌈lg p⌉ = 15
            // combined messages per rank.
            expected_messages: p * 15,
        },
        Case {
            name: "scatter",
            collective: Collective::Scatter { root: 0 },
            elems: 16_384,
            expected_messages: p - 1,
        },
        Case {
            name: "gather",
            collective: Collective::Gather { root: 0 },
            elems: 16_384,
            expected_messages: p - 1,
        },
    ]
}

fn main() {
    let budget = env_f64("SUMMIT_SIM_BUDGET_S", 10.0);
    let floor = env_f64("SUMMIT_SIM_EVENTS_FLOOR", 2.0e7);
    let hard_cap = env_f64("SUMMIT_SIM_HARD_CAP_S", 120.0);
    let cluster = ClusterModel::summit();
    let mut failures: Vec<String> = Vec::new();
    let mut rows = String::new();
    let mut total_events = 0u64;
    let mut total_wall = 0.0f64;
    let mut ring_wall = f64::NAN;
    let mut alltoall_wall = f64::NAN;

    println!(
        "sim_gate: {} collectives at p = {P} on the Summit fat tree",
        cases().len()
    );
    for case in cases() {
        let t0 = Instant::now();
        let out = sim::simulate_on(case.collective, P as usize, case.elems, cluster);
        let wall = t0.elapsed().as_secs_f64();
        let events = out.events;
        let rate = events as f64 / wall.max(1e-9);
        total_events += events;
        total_wall += wall;
        match case.name {
            "ring_allreduce" => ring_wall = wall,
            "alltoall" => alltoall_wall = wall,
            _ => {}
        }
        println!(
            "  {:<24} {:>12} events  {:>8.3} s  {:>6.1} M events/s  t_virt {:.3e} s",
            case.name,
            events,
            wall,
            rate / 1e6,
            out.report.time_seconds
        );
        if events != case.expected_messages {
            failures.push(format!(
                "{}: {} simulated messages, closed form says {}",
                case.name, events, case.expected_messages
            ));
        }
        if wall > hard_cap {
            failures.push(format!(
                "{}: {wall:.1} s exceeds the {hard_cap:.0} s hard cap",
                case.name
            ));
        } else if wall > budget && rate < floor {
            // Over budget AND slow per event: an engine regression, not an
            // irreducible event count.
            failures.push(format!(
                "{}: {wall:.1} s over the {budget:.0} s budget at only {:.1} M events/s (floor {:.1} M)",
                case.name,
                rate / 1e6,
                floor / 1e6
            ));
        }
        rows.push_str(&format!(
            "    {{\"collective\": \"{}\", \"events\": {}, \"wall_s\": {:.4}, \"virtual_s\": {:.6e}, \"nvlink\": {}, \"intra_leaf\": {}, \"spine\": {}}},\n",
            case.name, events, wall, out.report.time_seconds,
            out.nvlink_messages, out.intra_leaf_messages, out.spine_messages
        ));
    }
    let events_per_sec = total_events as f64 / total_wall.max(1e-9);
    println!(
        "sim_gate: {total_events} events in {total_wall:.1} s — {:.1} M events/s aggregate",
        events_per_sec / 1e6
    );

    // Leg 2: Section VI-B from the simulated fat tree. The paper's
    // arithmetic is bandwidth-only (pipelined collectives hide latency),
    // so zero the latency knobs and let the fabric supply the bandwidth.
    let mut vi_b = ClusterModel::summit_nodes(4608);
    vi_b.tree.injection.alpha = 0.0;
    vi_b.tree.hop_latency = 0.0;
    vi_b.nvlink_latency = 0.0;
    let bytes = 100.0e6;
    let elems = (bytes / 4.0) as usize;
    let out = sim::simulate_on(
        Collective::RingAllreduce {
            bucket_elems: usize::MAX,
        },
        4608,
        elems,
        vi_b,
    );
    let t = out.report.time_seconds;
    let ring_bw = bytes / t;
    println!(
        "sim_gate: VI-B ring 100 MB × 4608 nodes: {:.3} ms, ring bandwidth {:.2} GB/s",
        t * 1e3,
        ring_bw / 1e9
    );
    if (t - 8.0e-3).abs() / 8.0e-3 > 0.05 {
        failures.push(format!(
            "VI-B: simulated 100 MB ring allreduce is {:.3} ms, paper says ≈8 ms",
            t * 1e3
        ));
    }
    if (ring_bw - 12.5e9).abs() / 12.5e9 > 0.05 {
        failures.push(format!(
            "VI-B: simulated ring bandwidth {:.2} GB/s, paper says ≈12.5 GB/s",
            ring_bw / 1e9
        ));
    }

    // The algorithm crossover study, simulated end to end.
    let study = AlgorithmCrossoverStudy::summit();
    let t0 = Instant::now();
    let cells = study.run();
    println!(
        "sim_gate: crossover study ({} cells) in {:.1} s",
        cells.len(),
        t0.elapsed().as_secs_f64()
    );
    let mut study_rows = String::new();
    for c in &cells {
        study_rows.push_str(&format!(
            "    {{\"ranks\": {}, \"message_bytes\": {}, \"ring_s\": {:.6e}, \"recursive_doubling_s\": {:.6e}, \"rabenseifner_s\": {:.6e}, \"hierarchical_s\": {:.6e}, \"winner\": \"{}\"}},\n",
            c.ranks,
            c.message_bytes,
            c.ring_seconds,
            c.recursive_doubling_seconds,
            c.rabenseifner_seconds,
            c.hierarchical_seconds,
            c.winner
        ));
    }
    let study_json = format!(
        "{{\n  \"bench\": \"crossover\",\n  \"description\": \"simulated allreduce algorithm crossover, message size × world size\",\n  \"cells\": [\n{}  ]\n}}\n",
        study_rows.trim_end_matches(",\n").to_string() + "\n"
    );
    harness::write_bench_json("crossover", &study_json);

    // Headline + bench JSON.
    let mut metrics = BTreeMap::new();
    metrics.insert("sim_events_per_sec".to_string(), events_per_sec);
    metrics.insert("ring_allreduce_wall_s".to_string(), ring_wall);
    metrics.insert("alltoall_wall_s".to_string(), alltoall_wall);
    let headline = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:.4}"))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"bench\": \"sim\",\n  \"world\": {P},\n  \"headline\": {{{headline}}},\n  \"collectives\": [\n{}  ]\n}}\n",
        rows.trim_end_matches(",\n").to_string() + "\n"
    );
    harness::write_bench_json("sim", &json);
    harness::record_trajectory(&harness::TrajectoryEntry::now("sim", metrics.clone()));

    // Leg 4: throughput regression vs the committed trajectory. Only the
    // engine-rate metric gates; the per-collective wall times are recorded
    // for the record, not compared (their event counts change by design).
    harness::gate_trajectory(
        "sim",
        &metrics,
        &|k| (k == "sim_events_per_sec").then_some(harness::Direction::HigherIsBetter),
        0.10,
        &mut failures,
    );

    if failures.is_empty() {
        println!("sim_gate: PASS");
    } else {
        for f in &failures {
            eprintln!("sim_gate: FAIL — {f}");
        }
        std::process::exit(1);
    }
}
