//! Interconnect topology models.
//!
//! * [`FatTree`] — Summit's dual-rail EDR InfiniBand fabric as a two-level
//!   non-blocking fat tree: hop counts and per-pair latency. Adaptive
//!   routing is modelled as a contention derate that improves (approaches
//!   1.0) with the routing quality parameter.
//! * [`NvLinkGraph`] — the intra-node NVLink connectivity of an AC922 node:
//!   two triplets of V100s, each triplet fully connected and attached to one
//!   POWER9 socket, sockets joined by an X-bus.

use serde::{Deserialize, Serialize};

use crate::link::LinkModel;
use crate::spec::NodeSpec;

/// A two-level fat tree: `leaf_count` leaf switches each connecting
/// `nodes_per_leaf` nodes, fully connected to a spine layer. Non-blocking
/// (full bisection) unless `taper > 1`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FatTree {
    /// Number of leaf switches.
    pub leaf_count: u32,
    /// Nodes attached to each leaf switch.
    pub nodes_per_leaf: u32,
    /// Per-node injection link model.
    pub injection: LinkModel,
    /// Per-hop switch latency in seconds.
    pub hop_latency: f64,
    /// Oversubscription factor; 1 = non-blocking full fat tree.
    pub taper: f64,
    /// Adaptive-routing quality in (0, 1]: the fraction of nominal bandwidth
    /// preserved under adversarial (all-to-all across the bisection) traffic.
    pub adaptive_routing_quality: f64,
}

impl FatTree {
    /// Summit's fabric: 4,608 nodes in a non-blocking fat tree with adaptive
    /// routing. Summit racks hold 18 nodes per leaf switch.
    pub fn summit() -> Self {
        FatTree {
            leaf_count: 256,
            nodes_per_leaf: 18,
            injection: LinkModel::inter_node(&NodeSpec::summit()),
            hop_latency: 0.1e-6,
            taper: 1.0,
            adaptive_routing_quality: 0.96,
        }
    }

    /// A fat tree sized for an arbitrary node count with Summit-like
    /// parameters. Leaf switches keep 18 nodes each (last may be partial).
    pub fn summit_like(nodes: u32) -> Self {
        let per_leaf = 18;
        FatTree {
            leaf_count: nodes.div_ceil(per_leaf).max(1),
            nodes_per_leaf: per_leaf,
            ..FatTree::summit()
        }
    }

    /// Total nodes the tree can attach.
    pub fn capacity(&self) -> u32 {
        self.leaf_count * self.nodes_per_leaf
    }

    /// Leaf switch index that node `n` attaches to.
    ///
    /// # Panics
    /// Panics if `n` exceeds capacity.
    pub fn leaf_of(&self, n: u32) -> u32 {
        assert!(n < self.capacity(), "node index out of range");
        n / self.nodes_per_leaf
    }

    /// Number of switch hops between two nodes: 0 if identical, 1 through a
    /// shared leaf, 3 across the spine (leaf → spine → leaf).
    pub fn hops(&self, a: u32, b: u32) -> u32 {
        if a == b {
            0
        } else if self.leaf_of(a) == self.leaf_of(b) {
            1
        } else {
            3
        }
    }

    /// End-to-end latency between two nodes in seconds (injection latency
    /// plus per-hop switch latency).
    pub fn latency(&self, a: u32, b: u32) -> f64 {
        if a == b {
            return 0.0;
        }
        self.injection.alpha + f64::from(self.hops(a, b)) * self.hop_latency
    }

    /// A point-to-point link model between two distinct nodes, folding hop
    /// latency into α. Bandwidth is the injection bandwidth derated by the
    /// taper if the route crosses the spine.
    ///
    /// # Panics
    /// Panics if `a == b` — there is no network link from a node to itself.
    pub fn path(&self, a: u32, b: u32) -> LinkModel {
        assert_ne!(a, b, "no network path from a node to itself");
        let bw = if self.leaf_of(a) == self.leaf_of(b) {
            self.injection.beta
        } else {
            self.injection.beta / self.taper
        };
        LinkModel::new(self.latency(a, b), bw)
    }
}

/// Position of a GPU within an AC922 node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GpuSlot {
    /// Socket (0 or 1) the GPU hangs off.
    pub socket: u32,
    /// Index within the socket's triplet (0..3).
    pub lane: u32,
}

/// The NVLink graph of one node: `gpus_per_socket` GPUs per socket, each
/// triplet fully connected by NVLink bricks, sockets joined by an X-bus.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NvLinkGraph {
    /// Number of CPU sockets.
    pub sockets: u32,
    /// GPUs attached to each socket.
    pub gpus_per_socket: u32,
    /// GPU↔GPU NVLink bandwidth within a triplet, bytes/s per direction.
    pub nvlink_bw: f64,
    /// CPU↔CPU X-bus bandwidth, bytes/s.
    pub xbus_bw: f64,
}

impl NvLinkGraph {
    /// The AC922 layout: 2 sockets × 3 V100s, 50 GB/s NVLink pairs, 64 GB/s
    /// X-bus between the POWER9 sockets.
    pub fn summit_node() -> Self {
        NvLinkGraph {
            sockets: 2,
            gpus_per_socket: 3,
            nvlink_bw: crate::link::SUMMIT_NVLINK_BW_BPS,
            xbus_bw: crate::link::SUMMIT_XBUS_BW_BPS,
        }
    }

    /// Total GPUs in the node.
    fn gpu_count(&self) -> u32 {
        self.sockets * self.gpus_per_socket
    }

    /// The slot of GPU `g` (GPUs are numbered socket-major).
    ///
    /// # Panics
    /// Panics if `g` is out of range.
    pub fn slot(&self, g: u32) -> GpuSlot {
        assert!(g < self.gpu_count(), "gpu index out of range");
        GpuSlot {
            socket: g / self.gpus_per_socket,
            lane: g % self.gpus_per_socket,
        }
    }

    /// Whether two GPUs have a direct NVLink connection (same triplet).
    pub fn direct(&self, a: u32, b: u32) -> bool {
        a != b && self.slot(a).socket == self.slot(b).socket
    }

    /// Peer-to-peer bandwidth between two distinct GPUs: full NVLink within a
    /// triplet; bottlenecked by the X-bus across sockets.
    ///
    /// # Panics
    /// Panics if `a == b`.
    pub fn p2p_bandwidth(&self, a: u32, b: u32) -> f64 {
        assert_ne!(a, b, "p2p bandwidth between a GPU and itself is undefined");
        if self.direct(a, b) {
            self.nvlink_bw
        } else {
            self.nvlink_bw.min(self.xbus_bw)
        }
    }

    /// Number of link hops between two GPUs: 1 within a triplet, 3 across
    /// sockets (GPU → CPU → CPU → GPU).
    pub fn hops(&self, a: u32, b: u32) -> u32 {
        if a == b {
            0
        } else if self.direct(a, b) {
            1
        } else {
            3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summit_tree_covers_all_nodes() {
        let t = FatTree::summit();
        assert!(t.capacity() >= 4608);
    }

    #[test]
    fn hops_structure() {
        let t = FatTree::summit();
        assert_eq!(t.hops(0, 0), 0);
        assert_eq!(t.hops(0, 1), 1); // same leaf (18 nodes per leaf)
        assert_eq!(t.hops(0, 18), 3); // adjacent leaf, crosses spine
    }

    #[test]
    fn latency_increases_with_hops() {
        let t = FatTree::summit();
        assert!(t.latency(0, 18) > t.latency(0, 1));
        assert_eq!(t.latency(5, 5), 0.0);
    }

    #[test]
    fn taper_halves_cross_leaf_bandwidth() {
        let mut t = FatTree::summit();
        t.taper = 2.0;
        let same_leaf = t.path(0, 1).beta;
        let cross = t.path(0, 18).beta;
        assert!((same_leaf / cross - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "no network path")]
    fn self_path_rejected() {
        let _ = FatTree::summit().path(3, 3);
    }

    #[test]
    fn nvlink_graph_shape() {
        let g = NvLinkGraph::summit_node();
        assert_eq!(g.gpu_count(), 6);
        assert!(g.direct(0, 2)); // same triplet
        assert!(!g.direct(0, 3)); // across sockets
        assert_eq!(g.hops(0, 1), 1);
        assert_eq!(g.hops(2, 3), 3);
        assert_eq!(g.hops(4, 4), 0);
    }

    #[test]
    fn cross_socket_bandwidth_bottlenecked() {
        let g = NvLinkGraph::summit_node();
        assert!(g.p2p_bandwidth(0, 3) <= g.p2p_bandwidth(0, 1).max(g.xbus_bw));
        assert!((g.p2p_bandwidth(0, 1) - 50.0e9).abs() < 1.0);
    }

    #[test]
    fn summit_like_partial_leaf() {
        let t = FatTree::summit_like(19);
        assert_eq!(t.leaf_count, 2);
        assert_eq!(t.leaf_of(18), 1);
    }
}
