//! jsrun resource-set packing, after signac-flow's `SummitEnvironment`.
//!
//! Summit jobs are launched through `jsrun`, which thinks in *resource
//! sets*: `-n` sets of `-a` tasks × `-c` cores × `-g` GPUs each, packed
//! onto 42-user-core / 6-GPU nodes. This module reproduces the signac-flow
//! heuristics (SNIPPETS.md): `ResourceSet::guess` derives a set shape from
//! a task's rank and GPU counts (with the gcd reduction that turns e.g.
//! "12 ranks, 2 GPUs" into 2 sets of 6×1), and `nodes_needed` bin-packs
//! sets onto nodes exactly the way `calc_num_nodes` does.

use serde::Serialize;
use summit_machine::NodeSpec;

/// Packing geometry of one node, as jsrun sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct NodeGeometry {
    /// Schedulable cores per node (Summit: 2×22 SMT-1 cores minus one
    /// reserved core per socket → 42).
    pub cores_per_node: u32,
    /// GPUs per node (Summit: 6 V100).
    pub gpus_per_node: u32,
}

impl NodeGeometry {
    /// Summit's geometry, derived from the machine model rather than
    /// restated (42 user cores, 6 GPUs).
    pub fn summit() -> Self {
        let node = NodeSpec::summit();
        NodeGeometry {
            cores_per_node: node.user_cores(),
            gpus_per_node: node.gpus_per_node,
        }
    }
}

/// A jsrun resource-set request: `-n nsets -a tasks -c cores -g gpus`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ResourceSet {
    /// Number of resource sets (`-n`).
    pub nsets: u32,
    /// Tasks (MPI ranks) per set (`-a`).
    pub tasks_per_set: u32,
    /// Physical cores per task (`-c`).
    pub cores_per_task: u32,
    /// GPUs per set (`-g`).
    pub gpus_per_set: u32,
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl ResourceSet {
    /// Derive a resource-set shape for an operation of `nranks` MPI ranks
    /// and `ngpu` GPUs, one core per rank — signac-flow's
    /// `guess_resource_sets`. Starts from the fewest sets that fit a node's
    /// geometry, then applies the gcd reduction so sets are as small as the
    /// rank:GPU ratio allows (a CPU-only op reduces to one rank per set).
    ///
    /// # Panics
    /// Panics if `nranks == 0`.
    pub fn guess(nranks: u32, ngpu: u32, geometry: NodeGeometry) -> Self {
        assert!(nranks > 0, "an operation needs at least one rank");
        let nsets = (nranks.div_ceil(geometry.cores_per_node))
            .max(ngpu.div_ceil(geometry.gpus_per_node))
            .max(1);
        let gpus_per_set = ngpu / nsets;
        let ranks_per_set = (nranks / nsets).max(1);
        let factor = gcd(ranks_per_set, gpus_per_set).max(1);
        ResourceSet {
            nsets: nsets * factor,
            tasks_per_set: ranks_per_set / factor,
            cores_per_task: 1,
            gpus_per_set: gpus_per_set / factor,
        }
    }

    /// Cores one set occupies.
    fn cores_per_set(&self) -> u32 {
        self.tasks_per_set * self.cores_per_task
    }

    /// Nodes this request occupies: signac-flow's `calc_num_nodes`
    /// bin-packing. Sets are placed one after another; a set that would
    /// overflow the current node's cores or GPUs spills onto the next.
    ///
    /// # Panics
    /// Panics if one set alone exceeds a node's geometry.
    pub fn nodes_needed(&self, geometry: NodeGeometry) -> u32 {
        assert!(
            self.cores_per_set() <= geometry.cores_per_node
                && self.gpus_per_set <= geometry.gpus_per_node,
            "resource set larger than a node: {self:?}"
        );
        let mut cores_used = 0u32;
        let mut gpus_used = 0u32;
        let mut nodes_used = 0u32;
        for _ in 0..self.nsets {
            cores_used += self.cores_per_set();
            gpus_used += self.gpus_per_set;
            if cores_used > geometry.cores_per_node || gpus_used > geometry.gpus_per_node {
                nodes_used += 1;
                cores_used = self.cores_per_set();
                gpus_used = self.gpus_per_set;
            }
        }
        if cores_used > 0 || gpus_used > 0 {
            nodes_used += 1;
        }
        nodes_used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summit_geometry_from_machine_model() {
        let g = NodeGeometry::summit();
        assert_eq!(g.cores_per_node, 42);
        assert_eq!(g.gpus_per_node, 6);
    }

    #[test]
    fn six_ranks_six_gpus_reduces_to_singleton_sets() {
        // The canonical Summit shape: one rank per GPU → 6 sets of 1×1.
        let r = ResourceSet::guess(6, 6, NodeGeometry::summit());
        assert_eq!((r.nsets, r.tasks_per_set, r.gpus_per_set), (6, 1, 1));
        assert_eq!(r.nodes_needed(NodeGeometry::summit()), 1);
    }

    #[test]
    fn cpu_only_op_gets_one_rank_per_set() {
        // gcd(ranks, 0) = ranks: signac-flow's reduction explodes a
        // CPU-only op into per-rank sets.
        let r = ResourceSet::guess(5, 0, NodeGeometry::summit());
        assert_eq!((r.nsets, r.tasks_per_set, r.gpus_per_set), (5, 1, 0));
        assert_eq!(r.nodes_needed(NodeGeometry::summit()), 1);
    }

    #[test]
    fn gcd_reduction_shrinks_sets() {
        // 12 ranks, 2 GPUs: 1 set of 12×2 reduces by gcd 2 → 2 sets of 6×1.
        let r = ResourceSet::guess(12, 2, NodeGeometry::summit());
        assert_eq!((r.nsets, r.tasks_per_set, r.gpus_per_set), (2, 6, 1));
    }

    #[test]
    fn full_node_and_spill() {
        let g = NodeGeometry::summit();
        // 42 single-core sets fill one node exactly; a 43rd spills.
        let fits = ResourceSet {
            nsets: 42,
            tasks_per_set: 1,
            cores_per_task: 1,
            gpus_per_set: 0,
        };
        assert_eq!(fits.nodes_needed(g), 1);
        let spills = ResourceSet { nsets: 43, ..fits };
        assert_eq!(spills.nodes_needed(g), 2);
        // GPU-bound packing: 6 GPUs per node caps sets before cores do.
        let gpu_sets = ResourceSet {
            nsets: 12,
            tasks_per_set: 1,
            cores_per_task: 1,
            gpus_per_set: 1,
        };
        assert_eq!(gpu_sets.nodes_needed(g), 2);
    }

    #[test]
    fn multi_node_operation() {
        // 84 ranks on 84 GPUs... clamp: 84 GPUs / 6 per node → 14 sets
        // minimum; gcd reduction then splits per-GPU.
        let g = NodeGeometry::summit();
        let r = ResourceSet::guess(84, 84, g);
        assert_eq!(r.nsets * r.tasks_per_set, 84);
        assert_eq!(r.nodes_needed(g), 14);
    }

    #[test]
    fn big_cpu_job_spans_nodes() {
        let g = NodeGeometry::summit();
        let r = ResourceSet::guess(100, 0, g);
        // 100 ranks / 42 cores → 3 sets minimum, reduced to per-rank sets.
        assert!(r.nsets * r.tasks_per_set <= 100);
        assert!(r.nodes_needed(g) >= 2);
    }
}
