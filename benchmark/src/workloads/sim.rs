//! `sim_fullmachine`: every modeled collective at Summit's full 27,648
//! ranks on the routed fat tree — the host speed of the sequential event
//! engine and of `FlowNet::transfer`.

use std::time::Instant;

use summit_comm::{sim, Collective};
use summit_machine::{ClusterModel, FlowNet, LinkModel, NodeSpec};

use super::{run_units, Budget, Gate, Layers, Measured, Unit, Workload};
use crate::stats::median;
use crate::trace::Tracer;

const GPUS_PER_NODE: u64 = 6;

pub struct Sizes {
    nodes: u32,
    /// Payload of the four ring cases. Sparse (fewer elements than
    /// ranks), so a ring moves `elems` one-element chunks and its event
    /// count is `elems` times a lap.
    ring_elems: usize,
    /// Payload of the log-p cases; Rabenseifner needs a multiple of the
    /// power-of-two core of `p`.
    tree_elems: usize,
    /// `FlowNet::transfer` calls replayed per route class.
    replayed_transfers: usize,
}

impl Sizes {
    /// The 13 `sim_gate` cases at p = 27,648 with the gate's payloads,
    /// except the four ring cases: 128 elements for the gate's 1,024. One
    /// pass is then 6.5 × 10⁷ events and under four seconds, so a run
    /// holds several passes, reports a median and checks each pass against
    /// the first; the gate's own payloads make one pass 2.1 × 10⁸ events
    /// and over ten seconds. The hierarchical allreduce (4.3 × 10⁷ events
    /// whatever its payload: its leader ring is dense) now outweighs the
    /// rings two to one, where in the gate the rings outweigh it four to
    /// one; `sim.ns_per_event.*` keeps the classes apart.
    pub fn new(quick: bool) -> Self {
        if quick {
            return Sizes {
                nodes: 36,
                ring_elems: 16,
                tree_elems: 128,
                replayed_transfers: 1_000,
            };
        }
        Sizes {
            nodes: 4_608,
            ring_elems: 128,
            tree_elems: 16_384,
            replayed_transfers: 200_000,
        }
    }
}

struct Case {
    name: &'static str,
    collective: Collective,
    elems: usize,
    /// Closed-form total message count for this (collective, p, elems).
    expected_events: u64,
    /// Virtual completion time of the first simulation, as bits.
    first_virtual: Option<u64>,
}

/// The case list of `crates/bench/src/bin/sim_gate.rs` with its closed
/// forms, written for any `p` that is a multiple of six.
fn cases(p: u64, sizes: &Sizes) -> Vec<Case> {
    let lg = u64::from(p.ilog2());
    let core = 1u64 << lg;
    let rem = p - core;
    let ceil_lg = u64::from(p.next_power_of_two().ilog2());
    let groups = p / GPUS_PER_NODE;
    let ring = sizes.ring_elems as u64;
    assert!(ring <= p, "ring payloads must stay sparse");
    let case = |name, collective, elems, expected_events| Case {
        name,
        collective,
        elems,
        expected_events,
        first_virtual: None,
    };
    let flat = Collective::RingAllreduce {
        bucket_elems: usize::MAX,
    };
    let bucketed = Collective::RingAllreduce { bucket_elems: 256 };
    let hierarchical = Collective::HierarchicalAllreduce {
        group_size: GPUS_PER_NODE as usize,
    };
    vec![
        case("ring_allreduce", flat, sizes.ring_elems, 2 * (p - 1) * ring),
        case(
            "ring_allreduce_bucketed",
            bucketed,
            sizes.ring_elems,
            2 * (p - 1) * ring,
        ),
        case(
            "reduce_scatter",
            Collective::ReduceScatter,
            sizes.ring_elems,
            (p - 1) * ring,
        ),
        case(
            "ring_allgather",
            Collective::RingAllgather,
            sizes.ring_elems,
            (p - 1) * ring,
        ),
        // Core ranks exchange lg rounds; each folded-out rank adds one
        // pre-reduce send and one post-broadcast send.
        case(
            "recursive_doubling",
            Collective::RecursiveDoubling,
            sizes.tree_elems,
            core * lg + 2 * rem,
        ),
        case(
            "rabenseifner",
            Collective::Rabenseifner,
            sizes.tree_elems,
            2 * core * lg + 2 * rem,
        ),
        case(
            "binomial_broadcast",
            Collective::BinomialBroadcast { root: 0 },
            sizes.tree_elems,
            p - 1,
        ),
        case(
            "binomial_reduce",
            Collective::BinomialReduce { root: 0 },
            sizes.tree_elems,
            p - 1,
        ),
        case(
            "tree_allreduce",
            Collective::TreeAllreduce,
            sizes.tree_elems,
            2 * (p - 1),
        ),
        // Fan-in and fan-out inside every node, dense leader ring across
        // the nodes.
        case(
            "hierarchical_allreduce",
            hierarchical,
            groups as usize,
            2 * (p - groups) + groups * 2 * (groups - 1),
        ),
        // 4-byte blocks sit under the Bruck threshold: ⌈lg p⌉ combined
        // messages per rank.
        case("alltoall", Collective::Alltoall, 1, p * ceil_lg),
        case(
            "scatter",
            Collective::Scatter { root: 0 },
            sizes.tree_elems,
            p - 1,
        ),
        case(
            "gather",
            Collective::Gather { root: 0 },
            sizes.tree_elems,
            p - 1,
        ),
    ]
}

/// Fisher–Yates under a SplitMix64 stream: the seed decides the order the
/// collectives run in, never how much work a pass is.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        items.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

/// Message counts of one pass, by route class.
#[derive(Default, Clone, Copy)]
struct Routes {
    nvlink: u64,
    intra_leaf: u64,
    spine: u64,
}

pub struct Sim {
    sizes: Sizes,
    cluster: ClusterModel,
    p: usize,
    cases: Vec<Case>,
    /// Host seconds of every simulation of the last measured phase, by
    /// case (same order as `cases`).
    case_walls: Vec<Vec<f64>>,
    routes: Routes,
}

impl Sim {
    pub fn setup(sizes: Sizes, seed: u64) -> Self {
        let cluster = ClusterModel::summit_like(sizes.nodes);
        let p = u64::from(sizes.nodes) * GPUS_PER_NODE;
        let mut cases = cases(p, &sizes);
        shuffle(&mut cases, seed);
        // Warm-up: every log-p case (the four rings and the hierarchical
        // allreduce are the expensive ones), each of which still builds
        // and tears down full p-rank engine state.
        for case in cases.iter().filter(|c| c.expected_events < 40 * p) {
            std::hint::black_box(sim::simulate_on(
                case.collective,
                p as usize,
                case.elems,
                cluster,
            ));
        }
        Sim {
            case_walls: vec![Vec::new(); cases.len()],
            sizes,
            cluster,
            p: p as usize,
            cases,
            routes: Routes::default(),
        }
    }
}

impl Workload for Sim {
    fn measure(&mut self, budget: Budget, tracer: &Tracer) -> Measured {
        let (p, cluster) = (self.p, self.cluster);
        let mut case_walls = vec![Vec::new(); self.cases.len()];
        let mut routes = Routes::default();
        let mut simulated = 0u64;
        let mut miscounts = 0u64;
        let mut miscounted = Vec::new();
        let mut drifted = Vec::new();
        let units = run_units(budget, || {
            tracer.next_repeat();
            let pass = Instant::now();
            let mut events = 0u64;
            routes = Routes::default();
            for (case, walls) in self.cases.iter_mut().zip(&mut case_walls) {
                let (out, wall) = tracer.time("sim", case.name, || {
                    sim::simulate_on(case.collective, p, case.elems, cluster)
                });
                walls.push(wall);
                events += out.events;
                simulated += 1;
                routes.nvlink += out.nvlink_messages;
                routes.intra_leaf += out.intra_leaf_messages;
                routes.spine += out.spine_messages;
                if out.events != case.expected_events {
                    miscounts += 1;
                    if !miscounted.contains(&case.name) {
                        miscounted.push(case.name);
                    }
                }
                let virtual_bits = out.report.time_seconds.to_bits();
                if *case.first_virtual.get_or_insert(virtual_bits) != virtual_bits
                    && !drifted.contains(&case.name)
                {
                    drifted.push(case.name);
                }
            }
            Unit {
                work: events as f64,
                seconds: pass.elapsed().as_secs_f64(),
            }
        });
        self.case_walls = case_walls;
        self.routes = routes;
        let passes = units.len();
        Measured {
            units,
            attempted: simulated,
            failed: miscounts,
            gates: vec![
                Gate::new(
                    "sim.events_match_closed_form",
                    miscounted.is_empty(),
                    format!("collectives off their closed-form message count: {miscounted:?}"),
                ),
                Gate::new(
                    "sim.virtual_time_bit_equal",
                    drifted.is_empty(),
                    format!(
                        "collectives whose virtual seconds changed between {passes} passes: {drifted:?}"
                    ),
                ),
            ],
        }
    }

    fn verify(&mut self) -> Vec<Gate> {
        Vec::new()
    }

    fn probe(&mut self, tracer: &Tracer, measured: &Measured, layers: &mut Layers) {
        let (p, cluster) = (self.p, self.cluster);
        let events: u64 = self.cases.iter().map(|c| c.expected_events).sum();
        layers.set("sim.events", events as f64);
        layers.set("sim.spine_messages", self.routes.spine as f64);
        for (case, walls) in self.cases.iter().zip(&self.case_walls) {
            let name = match case.name {
                "ring_allreduce" => "sim.ns_per_event.ring_allreduce",
                "hierarchical_allreduce" => "sim.ns_per_event.hierarchical_allreduce",
                "rabenseifner" => "sim.ns_per_event.rabenseifner",
                "alltoall" => "sim.ns_per_event.alltoall",
                _ => continue,
            };
            layers.set(name, median(walls) * 1e9 / case.expected_events as f64);
        }

        // The engine without the fabric: the same ring on uniform links.
        let ring = Collective::RingAllreduce {
            bucket_elems: usize::MAX,
        };
        let link = LinkModel::inter_node(&NodeSpec::summit());
        let (report, wall) = tracer.time("sim", "simulate(uniform links)", || {
            sim::simulate(ring, p, self.sizes.ring_elems, link)
        });
        layers.set(
            "sim.engine_ns_per_event",
            wall * 1e9 / report.total_messages() as f64,
        );
        // Building and tearing down p-rank state around a one-element ring.
        let (_, wall) = tracer.time("sim", "simulate_on(1 elem)", || {
            sim::simulate_on(ring, p, 1, cluster)
        });
        layers.set("sim.setup_ms", wall * 1e3);

        // `FlowNet::transfer` replayed alone, one route class at a time.
        let n = self.sizes.replayed_transfers;
        let g = GPUS_PER_NODE as usize;
        let per_leaf = cluster.tree.nodes_per_leaf as usize;
        let node_count = p / g;
        let mut net = FlowNet::new(cluster, p);
        let mut replay = |name: &'static str, route: &dyn Fn(usize) -> (usize, usize)| {
            let ((), wall) = tracer.time("machine", name, || {
                for i in 0..n {
                    let (src, dst) = route(i);
                    std::hint::black_box(net.transfer(src, dst, 4.0, 0.0));
                }
            });
            wall * 1e9 / n as f64
        };
        let nvlink = replay("FlowNet::transfer(nvlink)", &|i| {
            let src = (i % node_count) * g;
            (src, src + 1)
        });
        let intra_leaf = replay("FlowNet::transfer(intra_leaf)", &|i| {
            // A node that is not the last of its leaf, to its neighbour.
            let node = (i % (node_count / per_leaf)) * per_leaf + i % (per_leaf - 1);
            (node * g, (node + 1) * g)
        });
        let spine = replay("FlowNet::transfer(spine)", &|i| {
            let node = i % node_count;
            (node * g, ((node + node_count / 2) % node_count) * g)
        });
        assert_eq!(
            (
                net.nvlink_messages,
                net.intra_leaf_messages,
                net.spine_messages
            ),
            (n as u64, n as u64, n as u64),
            "replayed transfers took the wrong routes"
        );
        layers.set("machine.flownet_transfer_ns.nvlink", nvlink);
        layers.set("machine.flownet_transfer_ns.intra_leaf", intra_leaf);
        layers.set("machine.flownet_transfer_ns.spine", spine);
        let r = self.routes;
        let flownet_s =
            (r.nvlink as f64 * nvlink + r.intra_leaf as f64 * intra_leaf + r.spine as f64 * spine)
                / 1e9;
        layers.set("sim.flownet_share", flownet_s / measured.unit_seconds());
    }
}
