//! Golden bits of the seeded generators: the `train_compute` model's
//! initial parameters and the blobs, spirals and teacher datasets, hashed
//! (FNV-1a over `f32::to_bits`) and pinned. The normal sampler, the
//! spirals' `sin`/`cos` and the teacher's `tanh` use no libm, so these hold
//! on every host and on both kernel backends.

use summit_dl::data::{blobs, spirals, teacher_regression};
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

#[test]
fn spirals_bits_are_pinned() {
    let task = spirals(400, 0.02, 5);
    assert_eq!(fnv1a(task.x.as_slice()), 0xa7b4_56e4_4454_7d65);
}

#[test]
fn teacher_regression_bits_are_pinned() {
    let task = teacher_regression(64, 8, 3);
    let (x, y) = (fnv1a(task.x.as_slice()), fnv1a(task.y.as_slice()));
    assert_eq!((x, y), (0x720d_8577_a103_e70d, 0x6986_9210_5633_3a23));
}
