//! Bit-identity of the batched serving path.
//!
//! The perf claim of this crate — one packed GEMM per micro-batch beats
//! per-request matvecs — is only safe to deploy if batching changes
//! *nothing* about the answers. These tests pin that: row `i` of a
//! batched forward is bitwise the single-request forward of request `i`,
//! across batch sizes (including sizes straddling the microkernel's
//! 6-row tile, odd remainders and the 16-row limit of the pack-free
//! `matmul`), and across the rank-sharded plane.

use summit_dl::model::MlpSpec;
use summit_dl::ServableModel;
use summit_serve::replica::{serve_sharded, ShardedConfig};
use summit_serve::service::{batch_matrix, feature_pool};
use summit_tensor::Matrix;

const BATCHES: [usize; 7] = [1, 2, 3, 5, 8, 16, 33];

fn model() -> ServableModel {
    let spec = MlpSpec::new(48, &[96, 64], 10);
    ServableModel::from_spec_params(&spec, &spec.build(1234).flat_params())
}

#[test]
fn batched_rows_are_bitwise_single_request_forwards() {
    let m = model();
    let pool = feature_pool(m.input_dim(), 64, 7);
    for &b in &BATCHES {
        let ids: Vec<u64> = (0..b as u64).map(|i| i * 3 + 1).collect();
        let x = batch_matrix(&pool, &ids);
        let batched = m.forward_batch(&x);
        assert_eq!(batched.rows(), b);
        for (r, &id) in ids.iter().enumerate() {
            let single = m.forward_one(&pool[id as usize % pool.len()]);
            assert_eq!(
                single.as_slice(),
                batched.row(r),
                "batch={b} row={r}: batched row must be bitwise the sequential forward"
            );
        }
    }
}

#[test]
fn servable_forward_is_bitwise_the_trainers_forward() {
    let spec = MlpSpec::new(32, &[64, 48], 6);
    let mut mlp = spec.build(77);
    let servable = mlp.servable();
    let pool = feature_pool(32, 16, 5);
    let ids: Vec<u64> = (0..24).collect();
    let x = batch_matrix(&pool, &ids);
    assert_eq!(
        mlp.forward(&x).as_slice(),
        servable.forward_batch(&x).as_slice(),
        "serving must return exactly the trained model's logits"
    );
}

#[test]
fn flat_param_round_trip_preserves_the_forward() {
    // Broadcast delivery path: spec + flat params reconstruct a replica
    // whose forward is bitwise the original's.
    let spec = MlpSpec::new(24, &[40], 8);
    let original = spec.build(3).servable();
    let rebuilt = ServableModel::from_spec_params(&spec, &original.flat_params());
    let pool = feature_pool(24, 8, 2);
    let ids: Vec<u64> = (0..13).collect();
    let x = batch_matrix(&pool, &ids);
    assert_eq!(
        original.forward_batch(&x).as_slice(),
        rebuilt.forward_batch(&x).as_slice()
    );
}

#[test]
fn sharded_replicas_match_the_batched_plane_bitwise() {
    let spec = MlpSpec::new(20, &[36, 28], 7);
    let flat = spec.build(55).flat_params();
    let ids: Vec<u64> = (0..41).collect();
    let cfg = ShardedConfig {
        ranks: 4,
        max_batch: 8,
        pool: 32,
        seed: 13,
    };
    let sharded = serve_sharded(&spec, &flat, &ids, &cfg);
    // Reference: one replica serving the same ids in the same
    // micro-batch partition.
    let m = ServableModel::from_spec_params(&spec, &flat);
    let pool = feature_pool(20, 32, 13);
    let mut rows = Vec::new();
    for chunk in ids.chunks(8) {
        rows.extend_from_slice(m.forward_batch(&batch_matrix(&pool, chunk)).as_slice());
    }
    let single = Matrix::from_vec(ids.len(), 7, rows);
    assert_eq!(sharded.as_slice(), single.as_slice());
}
