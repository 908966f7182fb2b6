//! Golden bits of the seeded generators: the `train_compute` model's
//! initial parameters and the blobs dataset, hashed (FNV-1a over
//! `f32::to_bits`) and pinned. The normal sampler uses no libm, so these
//! hold on every host and on both kernel backends.

use summit_dl::data::blobs;
use summit_dl::MlpSpec;

fn fnv1a(xs: &[f32]) -> u64 {
    xs.iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn he_normal_model_bits_are_pinned() {
    let model = MlpSpec::new(256, &[1024, 1024, 1024], 16).build(43);
    assert_eq!(fnv1a(model.arena().params()), 0x942a_22f8_cd1e_b387);
}

#[test]
fn blobs_bits_are_pinned() {
    let task = blobs(1536, 256, 16, 0.5, 42);
    assert_eq!(fnv1a(task.x.as_slice()), 0x14b6_e2c9_c0f2_4626);
}
