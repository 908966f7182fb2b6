//! Model checkpoints with integrity checking.
//!
//! The at-scale training runs the paper reviews checkpoint constantly
//! (Blanchard et al.'s I/O overhead is partly this traffic; the
//! `summit-io` crate prices it). This module is the serialization half:
//! [`ElasticCheckpoint`] captures parameters *and* optimizer state into one
//! f32 word stream — magic, version, shape counts, FNV-1a checksum — with
//! corruption, truncation and version-mismatch detection.
//!
//! The stream is size-agnostic: it can be sharded across any world size
//! with [`summit_pool::chunk_range`] and reassembled at any other — a
//! snapshot written at p = 4 restores bit-exactly onto p = 3 (or 8, or 1),
//! because nothing in the encoding depends on the world size.

use summit_pool::chunk_range;

use crate::optim::{Optimizer, OptimizerState};
use crate::params::Params;

/// Errors from checkpoint decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Buffer too short or structurally invalid.
    Truncated,
    /// Magic number mismatch — not a checkpoint.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Payload checksum mismatch — corruption.
    ChecksumMismatch,
    /// Parameter count does not match the target model.
    ShapeMismatch {
        /// Parameters in the checkpoint.
        checkpoint: u64,
        /// Parameters in the model.
        model: u64,
    },
    /// An optimizer slot name index outside the known registry.
    UnknownSlot(u32),
    /// An optimizer slot for a group the model does not have, or of
    /// another length than its group.
    SlotMismatch {
        /// The slot's group id.
        group: u64,
        /// Values in the slot.
        len: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint corrupted (checksum)"),
            CheckpointError::ShapeMismatch { checkpoint, model } => {
                write!(
                    f,
                    "parameter count mismatch: checkpoint {checkpoint}, model {model}"
                )
            }
            CheckpointError::UnknownSlot(idx) => {
                write!(f, "unknown optimizer slot index {idx}")
            }
            CheckpointError::SlotMismatch { group, len } => {
                write!(f, "optimizer slot of {len} values fits no group {group}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Format magic of the elastic word stream: "SMT2".
const ELASTIC_MAGIC: u32 = 0x534D_5432;
/// Elastic format version.
const ELASTIC_VERSION: u32 = 1;

/// Every optimizer slot name in the crate, in a fixed order so names
/// serialize as registry indices. SGD (and the LARS/LARC wrappers around
/// it) exports `velocity`; Adam (and LAMB's inner Adam) exports `m`/`v`.
const SLOT_NAMES: &[&str] = &["velocity", "m", "v"];

/// A size-agnostic training snapshot: step, parameters, and optimizer
/// state, with a word-stream encoding that shards across any world size.
///
/// This is the unit elastic recovery re-partitions on a membership change
/// (each member keeps its [`chunk_range`] shard of [`encode`]) and
/// transfers whole to a hot-joining rank. Integers travel as raw bit
/// patterns inside f32 words (`f32::from_bits`), so the stream rides the
/// same transport as gradients; nothing is lossy.
///
/// [`encode`]: ElasticCheckpoint::encode
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticCheckpoint {
    /// Training step at which the snapshot was taken.
    pub step: u32,
    /// Flat model parameters.
    pub params: Vec<f32>,
    /// Optimizer snapshot (bias-correction counter + slot vectors).
    pub opt: OptimizerState,
}

/// Append a raw u32 as one f32 word.
fn push_word(words: &mut Vec<f32>, v: u32) {
    words.push(f32::from_bits(v));
}

/// A cursor over the word stream that reads raw u32s and f32 runs.
struct WordReader<'a> {
    words: &'a [f32],
    pos: usize,
}

impl<'a> WordReader<'a> {
    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let w = self.words.get(self.pos).ok_or(CheckpointError::Truncated)?;
        self.pos += 1;
        Ok(w.to_bits())
    }

    fn f32_run(&mut self, len: usize) -> Result<&'a [f32], CheckpointError> {
        let end = self
            .pos
            .checked_add(len)
            .ok_or(CheckpointError::Truncated)?;
        let run = self
            .words
            .get(self.pos..end)
            .ok_or(CheckpointError::Truncated)?;
        self.pos = end;
        Ok(run)
    }
}

/// FNV-1a over the little-endian bytes of a word run.
fn fnv1a_words(words: &[f32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_bits().to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    }
    hash
}

impl ElasticCheckpoint {
    /// Snapshot a model's arena and its optimizer at `step`.
    pub fn capture(step: u32, arena: &Params, optimizer: &dyn Optimizer) -> Self {
        Self {
            step,
            params: arena.params().to_vec(),
            opt: optimizer.export_state(),
        }
    }

    /// Write this snapshot back into a model's arena and its optimizer.
    ///
    /// # Errors
    /// [`CheckpointError::ShapeMismatch`] if the parameter counts differ,
    /// [`CheckpointError::SlotMismatch`] unless every optimizer slot covers
    /// one whole group of the arena (the recovery driver checkpoints only
    /// replicated replicas); the targets are only written on success.
    pub fn restore(
        &self,
        arena: &mut Params,
        optimizer: &mut dyn Optimizer,
    ) -> Result<(), CheckpointError> {
        if self.params.len() != arena.param_count() {
            return Err(CheckpointError::ShapeMismatch {
                checkpoint: self.params.len() as u64,
                model: arena.param_count() as u64,
            });
        }
        for (_, group, values) in &self.opt.slots {
            if *group >= arena.group_count() || arena.range(*group).len() != values.len() {
                return Err(CheckpointError::SlotMismatch {
                    group: *group as u64,
                    len: values.len() as u64,
                });
            }
        }
        arena.set_flat_params(&self.params);
        optimizer.import_state(&self.opt);
        Ok(())
    }

    /// Serialize to the f32 word stream:
    /// `magic, version, step, opt step, param count, slot count,
    /// params…, [name idx, group, len, values…]…, checksum hi, checksum lo`.
    ///
    /// # Panics
    /// Panics if the optimizer exports a slot name outside [`SLOT_NAMES`]
    /// — that is a registry omission, not a data condition.
    pub fn encode(&self) -> Vec<f32> {
        let body: usize = self
            .opt
            .slots
            .iter()
            .map(|(_, _, v)| 3 + v.len())
            .sum::<usize>()
            + self.params.len();
        let mut words = Vec::with_capacity(8 + body);
        push_word(&mut words, ELASTIC_MAGIC);
        push_word(&mut words, ELASTIC_VERSION);
        push_word(&mut words, self.step);
        push_word(&mut words, self.opt.step);
        push_word(&mut words, self.params.len() as u32);
        push_word(&mut words, self.opt.slots.len() as u32);
        words.extend_from_slice(&self.params);
        for (name, group, values) in &self.opt.slots {
            let idx = SLOT_NAMES
                .iter()
                .position(|n| n == name)
                .unwrap_or_else(|| panic!("optimizer slot {name:?} missing from SLOT_NAMES"));
            push_word(&mut words, idx as u32);
            push_word(&mut words, *group as u32);
            push_word(&mut words, values.len() as u32);
            words.extend_from_slice(values);
        }
        let checksum = fnv1a_words(&words);
        push_word(&mut words, (checksum >> 32) as u32);
        push_word(&mut words, checksum as u32);
        words
    }

    /// Decode a word stream produced by [`encode`](Self::encode).
    ///
    /// # Errors
    /// Every malformation is detected: truncation, bad magic/version,
    /// checksum mismatch, unknown slot names.
    pub fn decode(words: &[f32]) -> Result<Self, CheckpointError> {
        if words.len() < 8 {
            return Err(CheckpointError::Truncated);
        }
        let (body, tail) = words.split_at(words.len() - 2);
        let stored = (u64::from(tail[0].to_bits()) << 32) | u64::from(tail[1].to_bits());
        if fnv1a_words(body) != stored {
            return Err(CheckpointError::ChecksumMismatch);
        }
        let mut r = WordReader {
            words: body,
            pos: 0,
        };
        if r.u32()? != ELASTIC_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32()?;
        if version != ELASTIC_VERSION {
            return Err(CheckpointError::BadVersion(version as u16));
        }
        let step = r.u32()?;
        let opt_step = r.u32()?;
        let param_count = r.u32()? as usize;
        let slot_count = r.u32()? as usize;
        let params = r.f32_run(param_count)?.to_vec();
        // The count is untrusted (anyone can recompute the checksum): every
        // slot takes at least three words, so what remains bounds it.
        let mut slots = Vec::with_capacity(slot_count.min((body.len() - r.pos) / 3));
        for _ in 0..slot_count {
            let idx = r.u32()?;
            let name = *SLOT_NAMES
                .get(idx as usize)
                .ok_or(CheckpointError::UnknownSlot(idx))?;
            let group = r.u32()? as usize;
            let len = r.u32()? as usize;
            slots.push((name, group, r.f32_run(len)?.to_vec()));
        }
        if r.pos != body.len() {
            return Err(CheckpointError::Truncated);
        }
        Ok(Self {
            step,
            params,
            opt: OptimizerState {
                step: opt_step,
                slots,
            },
        })
    }

    /// Shard the encoded stream across `parts` owners with [`chunk_range`]
    /// — the same partition function the data shards use, so a membership
    /// change re-partitions checkpoint custody and sample custody with one
    /// rule.
    pub fn export_shards(&self, parts: usize) -> Vec<Vec<f32>> {
        let words = self.encode();
        (0..parts)
            .map(|i| words[chunk_range(words.len(), parts, i)].to_vec())
            .collect()
    }

    /// Reassemble from shards produced by
    /// [`export_shards`](Self::export_shards) (in owner order, any part
    /// count).
    ///
    /// # Errors
    /// See [`decode`](Self::decode).
    pub fn import_shards(shards: &[Vec<f32>]) -> Result<Self, CheckpointError> {
        let words: Vec<f32> = shards.iter().flatten().copied().collect();
        Self::decode(&words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MlpSpec;

    /// An [`ElasticCheckpoint`] with real Adam state (after a few steps,
    /// so `m`/`v` slots and the bias-correction counter are nonzero).
    fn trained_snapshot() -> (ElasticCheckpoint, MlpSpec) {
        use crate::optim::{Adam, Optimizer};
        let spec = MlpSpec::new(4, &[8], 3);
        let mut model = spec.build(5);
        let mut opt = Adam::new(0.01, 0.0);
        let n = model.param_count();
        for s in 0..4usize {
            let g: Vec<f32> = (0..n).map(|i| ((i + s * 31) as f32 * 0.7).sin()).collect();
            model.set_flat_grads(&g);
            model.for_each_group(|id, params, grads| opt.step_group(id, 0.01, params, grads));
            opt.advance();
        }
        (ElasticCheckpoint::capture(9, model.arena(), &opt), spec)
    }

    #[test]
    fn elastic_encode_decode_roundtrip_bitwise() {
        let (ck, _) = trained_snapshot();
        let decoded = ElasticCheckpoint::decode(&ck.encode()).expect("valid stream");
        assert_eq!(decoded, ck);
        assert!(!ck.opt.slots.is_empty(), "Adam must export m/v slots");
        assert!(ck.opt.step > 0, "bias-correction counter must be captured");
    }

    #[test]
    fn elastic_shards_reassemble_at_any_part_count() {
        let (ck, _) = trained_snapshot();
        for export_p in [1usize, 2, 3, 4, 8] {
            let shards = ck.export_shards(export_p);
            assert_eq!(shards.len(), export_p);
            let back = ElasticCheckpoint::import_shards(&shards).expect("reassembled stream");
            assert_eq!(back, ck, "export at p={export_p} lost information");
        }
    }

    #[test]
    fn elastic_detects_corruption_and_truncation() {
        let (ck, _) = trained_snapshot();
        let words = ck.encode();
        assert_eq!(
            ElasticCheckpoint::decode(&words[..words.len() - 3]).unwrap_err(),
            CheckpointError::ChecksumMismatch
        );
        let mut corrupt = words.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] = f32::from_bits(corrupt[mid].to_bits() ^ 1);
        assert_eq!(
            ElasticCheckpoint::decode(&corrupt).unwrap_err(),
            CheckpointError::ChecksumMismatch
        );
        assert_eq!(
            ElasticCheckpoint::decode(&words[..4]).unwrap_err(),
            CheckpointError::Truncated
        );
        // A foreign stream behind a valid checksum is caught by its magic.
        let mut header: [u32; 6] = std::array::from_fn(|i| words[i].to_bits());
        header[0] ^= 1;
        let foreign = sealed(header, &words[6..words.len() - 2]);
        assert_eq!(
            ElasticCheckpoint::decode(&foreign).unwrap_err(),
            CheckpointError::BadMagic
        );
    }

    /// `header` and `rest` as a stream with a valid checksum.
    fn sealed(header: [u32; 6], rest: &[f32]) -> Vec<f32> {
        let mut words = Vec::new();
        header.iter().for_each(|&w| push_word(&mut words, w));
        words.extend_from_slice(rest);
        let checksum = fnv1a_words(&words);
        push_word(&mut words, (checksum >> 32) as u32);
        push_word(&mut words, checksum as u32);
        words
    }

    /// A forged slot count must not size an allocation: 2^32 − 1 slots
    /// would ask for about 200 GB and abort the process.
    #[test]
    fn elastic_decode_rejects_a_forged_slot_count() {
        let words = sealed([ELASTIC_MAGIC, ELASTIC_VERSION, 0, 0, 0, u32::MAX], &[]);
        assert_eq!(
            ElasticCheckpoint::decode(&words).unwrap_err(),
            CheckpointError::Truncated
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Any stream behind a valid header and checksum decodes to a value
        /// or an error, never a panic; a value re-encodes to the stream.
        /// Counts are small (so slots parse) or arbitrary (so they lie),
        /// and body words are small integers or arbitrary bits.
        #[test]
        fn elastic_decode_survives_sealed_random_streams(
            counts in (0u32..8, 0u32..4, 0u32..=u32::MAX, 0u32..4),
            steps in (0u32..=u32::MAX, 0u32..=u32::MAX),
            body in proptest::collection::vec((0u32..=u32::MAX, 0u32..6), 0..48),
        ) {
            let (params, slots, huge, pick) = counts;
            let params = if pick & 1 == 0 { params } else { huge };
            let slots = if pick & 2 == 0 { slots } else { huge };
            let rest: Vec<f32> = body
                .iter()
                .map(|&(bits, small)| f32::from_bits(if bits & 1 == 0 { small } else { bits }))
                .collect();
            let header = [ELASTIC_MAGIC, ELASTIC_VERSION, steps.0, steps.1, params, slots];
            let words = sealed(header, &rest);
            if let Ok(ck) = ElasticCheckpoint::decode(&words) {
                let again: Vec<u32> = ck.encode().iter().map(|w| w.to_bits()).collect();
                let words: Vec<u32> = words.iter().map(|w| w.to_bits()).collect();
                proptest::prop_assert_eq!(again, words);
            }
        }
    }

    #[test]
    fn elastic_restore_rejects_wrong_shape() {
        use crate::optim::Adam;
        let (ck, spec) = trained_snapshot();
        let mut right = spec.build(1);
        let mut opt: Box<dyn crate::optim::Optimizer> = Box::new(Adam::new(0.01, 0.0));
        ck.restore(right.arena_mut(), opt.as_mut())
            .expect("shapes match");
        assert_eq!(right.flat_params(), ck.params);
        let mut wrong = MlpSpec::new(4, &[9], 3).build(1);
        assert!(matches!(
            ck.restore(wrong.arena_mut(), opt.as_mut()),
            Err(CheckpointError::ShapeMismatch { .. })
        ));
    }

    /// A decoded checkpoint whose optimizer slot is one element short of
    /// its group, or names a group the model lacks, is refused and leaves
    /// model and optimizer as they were — SGD would otherwise update only
    /// a prefix of the group, and Adam would panic without naming it.
    #[test]
    fn elastic_restore_rejects_a_slot_that_fits_no_group() {
        use crate::optim::Sgd;
        let spec = MlpSpec::new(4, &[8], 3);
        let mut model = spec.build(5);
        let mut sgd = Sgd::new(0.1, 0.9, 0.0);
        model.for_each_group(|id, p, g| sgd.step_group(id, 1.0, p, g));
        let ck = ElasticCheckpoint::capture(1, model.arena(), &sgd);
        assert_eq!((ck.opt.slots[0].1, ck.opt.slots[0].2.len()), (0, 32));
        let (mut short, mut foreign) = (ck.clone(), ck);
        short.opt.slots[0].2.pop();
        foreign.opt.slots[0].1 = 4;
        for (forged, (group, len)) in [(short, (0, 31)), (foreign, (4, 32))] {
            let decoded = ElasticCheckpoint::decode(&forged.encode()).expect("valid stream");
            let (mut target, mut opt) = (spec.build(1), Sgd::new(0.1, 0.9, 0.0));
            let err = decoded.restore(target.arena_mut(), &mut opt);
            assert_eq!(err, Err(CheckpointError::SlotMismatch { group, len }));
            assert_eq!(target.flat_params(), spec.build(1).flat_params());
            assert!(opt.export_state().slots.is_empty());
        }
    }
}
