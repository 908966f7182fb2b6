//! Model replicas sharded across `World` ranks.
//!
//! One trained parameter vector lives on rank 0. [`serve_sharded`]
//! broadcasts it down the binomial tree (`Collective::BinomialBroadcast` — the
//! same collective the trainer uses for initial weights), materializes a
//! [`ServableModel`] replica on every rank, serves a request list
//! partitioned contiguously across ranks ([`summit_pool::chunk_range`]),
//! and gathers the flat logits back to the root, which reassembles them
//! in request order.
//!
//! Because every replica is built from the *broadcast* bytes and the
//! forward is the shared packed-GEMM path, the sharded result is
//! **bit-identical** to a single-replica `forward_batch` over the whole
//! request list — pinned by this module's tests for 1–4 ranks.

use summit_comm::collectives::run;
use summit_comm::extended::run_slots;
use summit_comm::world::World;
use summit_comm::{Collective, ReduceOp};
use summit_dl::inference::ServableModel;
use summit_dl::model::MlpSpec;
use summit_tensor::Matrix;

use crate::service::{batch_matrix, feature_pool};

/// Knobs of a sharded serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedConfig {
    /// Thread-ranks to shard the replica set across.
    pub ranks: usize,
    /// Micro-batch size each replica serves its partition in.
    pub max_batch: usize,
    /// Feature-pool size the request ids index into.
    pub pool: usize,
    /// Feature-pool seed (must match the comparison plane's).
    pub seed: u64,
}

/// Broadcast `flat` (rank 0's trained parameters) to `cfg.ranks` replicas,
/// serve `ids` sharded contiguously across them, and gather the logits
/// back to one `ids.len() × outputs` matrix in request order.
///
/// # Panics
/// Panics if `flat` does not match `spec`, `cfg.ranks == 0`, or
/// `cfg.max_batch == 0`.
pub fn serve_sharded(spec: &MlpSpec, flat: &[f32], ids: &[u64], cfg: &ShardedConfig) -> Matrix {
    assert!(cfg.ranks > 0, "need at least one rank");
    assert!(cfg.max_batch > 0, "max_batch must be positive");
    let results = World::new(cfg.ranks).execute(|rank| {
        // Only the root starts with the trained bytes; everyone leaves the
        // broadcast holding an identical copy.
        let mut params = if rank.id() == 0 {
            flat.to_vec()
        } else {
            vec![0.0f32; flat.len()]
        };
        let bcast = Collective::BinomialBroadcast { root: 0 };
        run(rank, bcast, &mut params, ReduceOp::Sum);
        let model = ServableModel::from_spec_params(spec, &params);
        let pool = feature_pool(spec.inputs, cfg.pool, cfg.seed);
        let mine = summit_pool::chunk_range(ids.len(), rank.size(), rank.id());
        let mut out = Vec::with_capacity(mine.len() * spec.outputs);
        for chunk in ids[mine].chunks(cfg.max_batch) {
            let x = batch_matrix(&pool, chunk);
            out.extend_from_slice(model.forward_batch(&x).as_slice());
        }
        let mut slots = vec![Vec::new(); rank.size()];
        slots[rank.id()] = out;
        let gathered = run_slots(rank, Collective::Gather { root: 0 }, slots);
        if rank.id() == 0 {
            let mut rows = Vec::with_capacity(ids.len() * spec.outputs);
            for part in gathered {
                rows.extend_from_slice(&part);
            }
            Some(Matrix::from_vec(ids.len(), spec.outputs, rows))
        } else {
            None
        }
    });
    results
        .into_iter()
        .flatten()
        .next()
        .expect("root produced the gathered matrix")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_plane(spec: &MlpSpec, flat: &[f32], ids: &[u64], cfg: &ShardedConfig) -> Matrix {
        let model = ServableModel::from_spec_params(spec, flat);
        let pool = feature_pool(spec.inputs, cfg.pool, cfg.seed);
        let mut rows = Vec::with_capacity(ids.len() * spec.outputs);
        for chunk in ids.chunks(cfg.max_batch) {
            let x = batch_matrix(&pool, chunk);
            rows.extend_from_slice(model.forward_batch(&x).as_slice());
        }
        Matrix::from_vec(ids.len(), spec.outputs, rows)
    }

    #[test]
    fn sharded_serving_is_bit_identical_to_single_replica() {
        let spec = MlpSpec::new(12, &[24, 16], 5);
        let flat = spec.build(21).flat_params();
        let ids: Vec<u64> = (0..53).collect();
        for ranks in 1..=4usize {
            let cfg = ShardedConfig {
                ranks,
                max_batch: 8,
                pool: 32,
                seed: 99,
            };
            let sharded = serve_sharded(&spec, &flat, &ids, &cfg);
            let single = single_plane(&spec, &flat, &ids, &cfg);
            assert_eq!(sharded.as_slice(), single.as_slice(), "p={ranks}");
        }
    }

    #[test]
    fn uneven_partitions_cover_every_request_once() {
        let spec = MlpSpec::new(6, &[10], 3);
        let flat = spec.build(4).flat_params();
        // 7 requests across 3 ranks: chunks of 3/2/2.
        let ids: Vec<u64> = (0..7).collect();
        let cfg = ShardedConfig {
            ranks: 3,
            max_batch: 2,
            pool: 8,
            seed: 1,
        };
        let out = serve_sharded(&spec, &flat, &ids, &cfg);
        assert_eq!(out.rows(), 7);
        assert_eq!(out.cols(), 3);
        let single = single_plane(&spec, &flat, &ids, &cfg);
        assert_eq!(out.as_slice(), single.as_slice());
    }
}
