//! The routed machine model the event-driven collective simulator charges
//! transfers against: rank placement over the fat tree and the NVLink
//! graph ([`ClusterModel`]) and the continuous-time contention ledger on
//! top of it ([`FlowNet`]).
//!
//! The α–β collective models assume contention-free links. [`FlowNet`]
//! checks that assumption (and quantifies its violation) by serializing
//! every transfer on each resource of its route: a rank's NVLink lanes, a
//! node's injection and ejection NIC, and — when crossing the spine — the
//! leaf switches' uplink/downlink bundles, which carry
//! `nodes_per_leaf / taper` concurrent streams' worth of bandwidth.
//!
//! Validation (tested here and in `tests/extensions.rs` X7): a ring
//! allreduce with one rank per node matches the textbook
//! `2(p−1)(α + m/(pβ))` formula to within the per-hop latency;
//! oversubscribing nodes (two ranks each) doubles the time; tapering the
//! tree slows only transfers that cross the spine.

use serde::Serialize;

use crate::topology::{FatTree, NvLinkGraph};

/// A full machine for rank-level simulation: the inter-node fat tree plus
/// the intra-node NVLink graph and the rank → (node, GPU) placement.
///
/// Ranks are placed **block-wise**: rank `r` lives on node `r /
/// gpus_per_node` as GPU `r % gpus_per_node` — the same placement
/// `hierarchical_allreduce` groups assume, so a simulated hierarchical
/// collective's intra-group traffic really stays on NVLink.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ClusterModel {
    /// The inter-node fabric.
    pub tree: FatTree,
    /// The intra-node NVLink connectivity.
    pub node: NvLinkGraph,
    /// Ranks (GPUs) per node. 1 models one rank per node (node-level
    /// collectives, Section VI-B style).
    pub gpus_per_node: u32,
    /// Per-message latency of an intra-node hop in seconds.
    pub nvlink_latency: f64,
}

impl ClusterModel {
    /// Full Summit: 4,608 nodes × 6 GPUs = 27,648 ranks.
    pub fn summit() -> Self {
        ClusterModel {
            tree: FatTree::summit(),
            node: NvLinkGraph::summit_node(),
            gpus_per_node: 6,
            nvlink_latency: crate::link::SUMMIT_NVLINK_LATENCY_S,
        }
    }

    /// A Summit-like cluster sized for `nodes` nodes, 6 ranks per node.
    pub fn summit_like(nodes: u32) -> Self {
        ClusterModel {
            tree: FatTree::summit_like(nodes),
            ..ClusterModel::summit()
        }
    }

    /// A Summit-like cluster with **one rank per node** — the paper's
    /// Section VI-B configuration (node-level ring over the fat tree).
    pub fn summit_nodes(nodes: u32) -> Self {
        ClusterModel {
            tree: FatTree::summit_like(nodes),
            gpus_per_node: 1,
            ..ClusterModel::summit()
        }
    }

    /// Total rank capacity of the modeled machine.
    pub fn capacity(&self) -> u64 {
        u64::from(self.tree.capacity()) * u64::from(self.gpus_per_node)
    }
}

/// Continuous-time contention state over a [`ClusterModel`]: the per-link
/// free-time ledger the event-driven engine charges every transfer against.
///
/// Each shared resource (a rank's NVLink ingress/egress lane, a node's
/// injection/ejection NIC, a leaf switch's uplink/downlink bundle) carries
/// one byte stream at a time and serves transfers **FCFS in simulator
/// arrival order** (arrival order is deterministic and tracks virtual time):
/// a transfer starts when every resource on its route is free, occupies each
/// for its wire time at that resource's bandwidth, and completes after the
/// route's α/hop latency. Concurrent transfers sharing a link therefore
/// split its bandwidth — two streams on one spine uplink take 2× the solo
/// wall time — while disjoint routes proceed independently.
#[derive(Debug, Clone)]
pub struct FlowNet {
    cluster: ClusterModel,
    /// Per-rank NVLink egress / ingress lane free times.
    gpu_out: Vec<f64>,
    gpu_in: Vec<f64>,
    /// Per-node NIC free times.
    inject: Vec<f64>,
    eject: Vec<f64>,
    /// Per-leaf uplink/downlink bundle free times.
    up: Vec<f64>,
    down: Vec<f64>,
    /// Bandwidth of one leaf uplink bundle (bytes/s).
    bundle_beta: f64,
    /// Transfers that stayed on NVLink.
    pub nvlink_messages: u64,
    /// Inter-node transfers that stayed under one leaf switch.
    pub intra_leaf_messages: u64,
    /// Transfers that crossed the spine.
    pub spine_messages: u64,
}

impl FlowNet {
    /// Contention state for `ranks` ranks on `cluster`.
    ///
    /// # Panics
    /// Panics if `ranks` exceeds the cluster capacity.
    pub fn new(cluster: ClusterModel, ranks: usize) -> Self {
        assert!(
            ranks as u64 <= cluster.capacity(),
            "{ranks} ranks exceed cluster capacity {}",
            cluster.capacity()
        );
        let nodes = ranks.div_ceil(cluster.gpus_per_node as usize);
        let leaves = cluster.tree.leaf_count as usize;
        let bundle_beta = cluster.tree.injection.beta * f64::from(cluster.tree.nodes_per_leaf)
            / cluster.tree.taper
            * cluster.tree.adaptive_routing_quality;
        FlowNet {
            cluster,
            gpu_out: vec![0.0; ranks],
            gpu_in: vec![0.0; ranks],
            inject: vec![0.0; nodes],
            eject: vec![0.0; nodes],
            up: vec![0.0; leaves],
            down: vec![0.0; leaves],
            bundle_beta,
            nvlink_messages: 0,
            intra_leaf_messages: 0,
            spine_messages: 0,
        }
    }

    /// The cluster under simulation.
    pub fn cluster(&self) -> &ClusterModel {
        &self.cluster
    }

    /// Route one transfer of `bytes` from `src` to `dst` (ranks), earliest
    /// start `start`. Reserves every resource on the route and returns the
    /// virtual completion time (wire drain + route latency).
    ///
    /// # Panics
    /// Panics on self-transfers (debug) or out-of-range ranks.
    pub fn transfer(&mut self, src: usize, dst: usize, bytes: f64, start: f64) -> f64 {
        debug_assert_ne!(src, dst, "self-transfer");
        let g = self.cluster.gpus_per_node as usize;
        let (node_s, node_d) = (src / g, dst / g);
        if node_s == node_d {
            // Intra-node hop: NVLink (or X-bus) lane pair.
            let bw = self
                .cluster
                .node
                .p2p_bandwidth((src % g) as u32, (dst % g) as u32);
            let t0 = start.max(self.gpu_out[src]).max(self.gpu_in[dst]);
            let done = t0 + bytes / bw;
            self.gpu_out[src] = done;
            self.gpu_in[dst] = done;
            self.nvlink_messages += 1;
            return done + self.cluster.nvlink_latency;
        }
        let tree = &self.cluster.tree;
        let beta = tree.injection.beta;
        let wire = bytes / beta;
        let (leaf_s, leaf_d) = (tree.leaf_of(node_s as u32) as usize, {
            tree.leaf_of(node_d as u32) as usize
        });
        let cross = leaf_s != leaf_d;
        let mut t0 = start.max(self.inject[node_s]).max(self.eject[node_d]);
        let mut drain = wire;
        if cross {
            t0 = t0.max(self.up[leaf_s]).max(self.down[leaf_d]);
            let bundle_wire = bytes / self.bundle_beta;
            self.up[leaf_s] = t0 + bundle_wire;
            self.down[leaf_d] = t0 + bundle_wire;
            drain = drain.max(bundle_wire);
            self.spine_messages += 1;
        } else {
            self.intra_leaf_messages += 1;
        }
        self.inject[node_s] = t0 + wire;
        self.eject[node_d] = t0 + wire;
        t0 + drain + tree.latency(node_s as u32, node_d as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinkModel;

    /// Two transfers forced through one leaf's uplink bundle take exactly
    /// 2× the solo wall time — the contention pin. Configured so the
    /// uplink is the serializing resource (bundle capacity = one node's β)
    /// and every latency term is zero, the ratio is exact.
    #[test]
    fn shared_spine_link_serializes_to_exactly_twice_solo() {
        let mut cluster = ClusterModel::summit_nodes(36);
        cluster.tree.injection = LinkModel::new(0.0, 25.0e9);
        cluster.tree.hop_latency = 0.0;
        cluster.tree.taper = f64::from(cluster.tree.nodes_per_leaf);
        cluster.tree.adaptive_routing_quality = 1.0;
        let bytes = 1.0e8;
        let solo = FlowNet::new(cluster, 36).transfer(0, 20, bytes, 0.0);
        let mut net = FlowNet::new(cluster, 36);
        let a = net.transfer(0, 20, bytes, 0.0); // leaf 0 -> leaf 1
        let b = net.transfer(1, 21, bytes, 0.0); // same uplink, same downlink
        assert_eq!(net.spine_messages, 2);
        assert!((a - solo).abs() < 1e-15, "first transfer is unimpeded");
        assert!(
            (b / solo - 2.0).abs() < 1e-12,
            "shared spine link: {b} vs solo {solo}"
        );
    }

    /// Disjoint routes do not contend: transfers under different leaf
    /// switches finish in solo time even when issued concurrently.
    #[test]
    fn disjoint_routes_do_not_contend() {
        let cluster = ClusterModel::summit_nodes(72);
        let bytes = 1.0e8;
        let solo = FlowNet::new(cluster, 72).transfer(0, 1, bytes, 0.0);
        let mut net = FlowNet::new(cluster, 72);
        let a = net.transfer(0, 1, bytes, 0.0); // within leaf 0
        let b = net.transfer(20, 21, bytes, 0.0); // within leaf 1
        assert_eq!(net.intra_leaf_messages, 2);
        assert!((a - solo).abs() < 1e-15);
        assert!((b - solo).abs() < 1e-15);
    }

    /// Intra-node transfers ride NVLink at triplet bandwidth, cross-socket
    /// ones are clamped by the X-bus, and both are classified as NVLink
    /// traffic rather than fabric traffic.
    #[test]
    fn intra_node_transfers_use_nvlink_rates() {
        let cluster = ClusterModel::summit_like(2);
        let bytes = 1.0e8;
        let mut net = FlowNet::new(cluster, 12);
        let triplet = net.transfer(0, 1, bytes, 0.0);
        let expected = bytes / cluster.node.nvlink_bw + cluster.nvlink_latency;
        assert!((triplet - expected).abs() < 1e-15);
        let mut net = FlowNet::new(cluster, 12);
        let cross_socket = net.transfer(0, 3, bytes, 0.0);
        // Cross-socket rate is clamped by min(NVLink, X-bus).
        let clamped = cluster.node.nvlink_bw.min(cluster.node.xbus_bw);
        assert!((cross_socket - (bytes / clamped + cluster.nvlink_latency)).abs() < 1e-15);
        assert_eq!(net.nvlink_messages, 1);
        assert_eq!(net.spine_messages + net.intra_leaf_messages, 0);
        // Same GPUs on *different* nodes go over the fabric instead.
        let mut net = FlowNet::new(cluster, 12);
        let _ = net.transfer(0, 6, bytes, 0.0);
        assert_eq!(net.nvlink_messages, 0);
        assert_eq!(net.intra_leaf_messages, 1);
    }

    /// The same NIC serializes two injections: the second waits out the
    /// first's wire time.
    #[test]
    fn shared_nic_serializes_like_the_round_model() {
        let cluster = ClusterModel::summit_like(4); // 6 ranks per node
        let bytes = 1.0e8;
        let solo = FlowNet::new(cluster, 24).transfer(0, 6, bytes, 0.0);
        let mut net = FlowNet::new(cluster, 24);
        let _ = net.transfer(0, 6, bytes, 0.0);
        let b = net.transfer(1, 12, bytes, 0.0); // same source NIC, other dst
        let alpha = cluster.tree.injection.alpha;
        let wire = bytes / cluster.tree.injection.beta;
        assert!(
            b - solo > 0.9 * wire,
            "second injection waits: {b} vs {solo}"
        );
        assert!(b < solo + wire + alpha + 1e-9);
    }

    /// Bulk-synchronous ring allreduce of `bytes` over the ranks of `order`
    /// (in ring order): `2(p − 1)` rounds, each rank sending one `bytes / p`
    /// chunk to its successor once the previous round has drained.
    fn ring_seconds(cluster: ClusterModel, order: &[usize], bytes: f64) -> f64 {
        let p = order.len();
        let mut net = FlowNet::new(cluster, p);
        let mut now = 0.0f64;
        for _ in 0..2 * (p - 1) {
            now = (0..p)
                .map(|i| net.transfer(order[i], order[(i + 1) % p], bytes / p as f64, now))
                .fold(now, f64::max);
        }
        now
    }

    /// Two ranks per node, ring order alternating between them so every hop
    /// leaves its node: each NIC carries both ring streams, doubling the
    /// bandwidth term.
    #[test]
    fn oversubscription_doubles_time() {
        let (nodes, bytes) = (18usize, 36.0e6);
        let one_per_node = ClusterModel::summit_nodes(nodes as u32);
        let two_per_node = ClusterModel {
            gpus_per_node: 2,
            ..one_per_node
        };
        let in_order: Vec<usize> = (0..nodes).collect();
        let round_robin: Vec<usize> = (0..2 * nodes).map(|i| i % nodes * 2 + i / nodes).collect();
        let one = ring_seconds(one_per_node, &in_order, bytes);
        let two = ring_seconds(two_per_node, &round_robin, bytes);
        let ratio = two / one;
        assert!(
            ratio > 1.7 && ratio < 2.3,
            "expected ~2x from sharing the NIC, got {ratio}"
        );
    }

    /// Tapering the tree slows spine-crossing transfers but not intra-leaf
    /// ones.
    #[test]
    fn taper_hits_only_cross_leaf_traffic() {
        let full = ClusterModel::summit_nodes(36); // two 18-node leaves
        let mut tapered = full;
        tapered.tree.taper = 4.0;
        let bytes = 1.0e7;
        // All transfers of a wave start together; the wave ends with its last.
        let wave = |cluster: ClusterModel, pairs: &[(usize, usize)]| {
            let mut net = FlowNet::new(cluster, 36);
            let done = pairs.iter().map(|&(s, d)| net.transfer(s, d, bytes, 0.0));
            (done.fold(0.0, f64::max), net.spine_messages)
        };
        let intra: Vec<_> = (0..9).map(|i| (i, i + 9)).collect();
        assert_eq!(wave(full, &intra), wave(tapered, &intra));
        assert_eq!(wave(full, &intra).1, 0);
        // Every node of leaf 0 sends across the spine at once: the tapered
        // uplink bundle becomes the bottleneck.
        let cross: Vec<_> = (0..18).map(|i| (i, i + 18)).collect();
        let ((t_full, crossed), (t_tapered, _)) = (wave(full, &cross), wave(tapered, &cross));
        assert_eq!(crossed, 18);
        assert!(t_tapered > 1.5 * t_full, "{t_tapered} vs {t_full}");
    }
}
