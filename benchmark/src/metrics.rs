//! Every metric the benchmark reports, by name — the table `BENCHMARK.json`
//! at the repo root mirrors (a unit test holds the two together).

use crate::stats::Better::{self, Higher, Lower};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the baseline's median by
    /// which the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn end_to_end(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of each workload sees. Every workload reports all three;
/// `throughput_per_s` counts what the workload's
/// [`crate::workloads::WorkloadDef`] says it counts.
pub const END_TO_END: [Metric; 3] = [
    end_to_end("throughput_per_s", "1/s", Higher, 0.25),
    end_to_end("peak_rss_mb", "MB", Lower, 0.20),
    end_to_end("setup_s", "s", Lower, 0.25),
];

/// Single-layer metrics of the traced run, named `<crate>.<what>`. A
/// workload reports 0 for a metric of a layer call it never makes.
pub const PER_LAYER: [Metric; 66] = [
    // tensor → train_compute throughput; flat on train_sync. Skinny
    // shapes → serve_open.
    layer("tensor.matmul_gflops", "GFLOP/s", Higher),
    layer("tensor.matmul_at_b_gflops", "GFLOP/s", Higher),
    layer("tensor.matmul_a_bt_gflops", "GFLOP/s", Higher),
    layer("tensor.elementwise_ms", "ms", Lower),
    layer("tensor.gemm_share", "share", Lower),
    layer("tensor.matmul_skinny_us.m1", "us", Lower),
    layer("tensor.matmul_skinny_us.m16", "us", Lower),
    // pool → both training workloads; the lease → facility_wave.
    layer("pool.tasks_per_step", "count", Lower),
    layer("pool.parks_per_step", "count", Lower),
    layer("pool.busy_share", "share", Higher),
    layer("pool.dispatch_us", "us", Lower),
    layer("pool.lease_ns", "ns", Lower),
    // dl → training throughput (flatten/optimizer on train_sync,
    // forward/backward on train_compute); forward_batch → serve_open.
    layer("dl.forward_ms", "ms", Lower),
    layer("dl.loss_ms", "ms", Lower),
    layer("dl.backward_ms", "ms", Lower),
    layer("dl.grad_flatten_ms", "ms", Lower),
    layer("dl.optimizer_ms", "ms", Lower),
    layer("dl.model_build_ms", "ms", Lower),
    layer("dl.step_residual_share", "share", Lower),
    layer("dl.weak_scaling_eff", "share", Higher),
    layer("dl.forward_batch_us.b1", "us", Lower),
    layer("dl.forward_batch_us.b16", "us", Lower),
    // comm → train_sync throughput and weak scaling; world spawn →
    // facility_wave, invisible on training.
    layer("comm.allreduce_ms", "ms", Lower),
    layer("comm.allreduce_gbps", "GB/s", Higher),
    layer("comm.comm_share", "share", Lower),
    layer("comm.exposed_share", "share", Lower),
    layer("comm.messages_per_step", "count", Lower),
    layer("comm.bytes_per_step", "B", Lower),
    layer("comm.world_spawn_us.p1", "us", Lower),
    layer("comm.world_spawn_us.p2", "us", Lower),
    layer("comm.world_spawn_us.p3", "us", Lower),
    layer("comm.world_spawn_us.p4", "us", Lower),
    // sim and machine → sim_fullmachine throughput.
    layer("sim.ns_per_event.ring_allreduce", "ns", Lower),
    layer("sim.ns_per_event.hierarchical_allreduce", "ns", Lower),
    layer("sim.ns_per_event.rabenseifner", "ns", Lower),
    layer("sim.ns_per_event.alltoall", "ns", Lower),
    layer("sim.engine_ns_per_event", "ns", Lower),
    layer("sim.setup_ms", "ms", Lower),
    layer("machine.flownet_transfer_ns.nvlink", "ns", Lower),
    layer("machine.flownet_transfer_ns.intra_leaf", "ns", Lower),
    layer("machine.flownet_transfer_ns.spine", "ns", Lower),
    layer("sim.flownet_share", "share", Lower),
    layer("sim.events", "count", Lower),
    layer("sim.spine_messages", "count", Lower),
    // serve → latency below the knee, goodput above it.
    layer("serve.batcher_op_ns", "ns", Lower),
    layer("serve.batch_matrix_us", "us", Lower),
    layer("serve.mean_batch", "count", Higher),
    layer("serve.mean_ms", "ms", Lower),
    layer("serve.p99_ms", "ms", Lower),
    layer("serve.span_overrun_share", "share", Lower),
    layer("serve.p50_ms.r2000", "ms", Lower),
    layer("serve.p50_ms.r4000", "ms", Lower),
    layer("serve.p50_ms.r8000", "ms", Lower),
    layer("serve.p50_ms.r16000", "ms", Lower),
    layer("serve.slo_rate_rps", "1/s", Higher),
    layer("serve.sim_requests_per_s", "1/s", Higher),
    // sched → facility_wave throughput.
    layer("sched.schedule_ms", "ms", Lower),
    layer("sched.kernel_ms.training", "ms", Lower),
    layer("sched.kernel_ms.stencil", "ms", Lower),
    layer("sched.kernel_ms.md", "ms", Lower),
    layer("sched.useful_share", "share", Higher),
    layer("sched.spawn_share", "share", Lower),
    layer("sched.peak_live_worlds", "count", Higher),
    layer("sched.messages", "count", Lower),
    layer("sched.bytes", "B", Lower),
    // The benchmark's own cost: traced ÷ untraced unit wall − 1.
    layer("trace_overhead_share", "share", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn contract() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn items<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        match doc.get(key) {
            Some(Json::Arr(items)) => items,
            _ => panic!("BENCHMARK.json has no array `{key}`"),
        }
    }

    fn field<'a>(item: &'a Json, key: &str) -> &'a str {
        item.get(key).and_then(Json::as_str).expect("string field")
    }

    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let doc = contract();
        let e2e: Vec<_> = items(&doc, "end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better.as_str(), m.bound.expect("bounded")))
            .collect();
        assert_eq!(e2e, ours);

        let layers: Vec<_> = items(&doc, "per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better.as_str()))
            .collect();
        assert_eq!(layers, ours);

        let workloads: Vec<_> = items(&doc, "workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<_> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "bad name {n}");
            assert!(n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }
}
