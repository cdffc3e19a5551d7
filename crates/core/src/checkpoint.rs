//! Versioned binary training checkpoints for [`crate::Pipeline::fit`] (and
//! the [`crate::Pipeline::restore`] of a served model).
//!
//! A [`TrainCheckpoint`] captures everything the training loop needs to
//! resume bit-exactly after a kill: the epoch counter, current learning rate
//! and recovery count, the early-stopping bookkeeping, the RNG state, every
//! trainable tape parameter, the Adam moments, and the best-validation
//! parameter snapshot.
//!
//! ## On-disk format (version 2)
//!
//! All integers and floats are little-endian; floats are stored as raw bit
//! patterns so non-finite sentinels (`best_val` starts at `+inf`) round-trip
//! bit-exactly.
//!
//! | field        | encoding                                     |
//! |--------------|----------------------------------------------|
//! | magic        | 8 raw bytes `"GRIMPCKP"`                     |
//! | version      | `u32` (currently 2)                          |
//! | epoch        | `u64`                                        |
//! | lr           | `f32` bits                                   |
//! | recoveries   | `u32`                                        |
//! | best_val     | `f32` bits                                   |
//! | since_best   | `u64`                                        |
//! | rng          | 4 × `u64` (xoshiro256** state)               |
//! | params       | tensor list (`u64` count, then tensors)      |
//! | adam         | `u32` step counter + two tensor lists        |
//! | best_params  | `u8` flag, then a tensor list when 1         |
//! | crc32        | `u32` CRC-32 (IEEE) of every preceding byte  |
//!
//! A tensor is `u64` rows, `u64` cols, then row-major `f32` bits. Decoding
//! never panics: wrong magic, unknown versions, truncation, bit flips (the
//! CRC-32 footer), and corrupt length prefixes all surface as a typed
//! [`CheckpointError`].
//!
//! [`TrainCheckpoint::save`] keeps the last *two* checkpoints: the previous
//! good file survives as `grimp.ckpt.prev`, so a torn or bit-flipped write
//! of the newest checkpoint never destroys the ability to resume.

use std::path::Path;

use grimp_tensor::checkpoint::{ByteReader, ByteWriter, CheckpointError};
use grimp_tensor::{AdamState, Tensor};

/// Magic header identifying a GRIMP training checkpoint.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"GRIMPCKP";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 2;
/// File name used inside a `--checkpoint-dir`.
pub const CHECKPOINT_FILE: &str = "grimp.ckpt";
/// Previous-generation checkpoint kept alongside [`CHECKPOINT_FILE`]; resume
/// falls back to it when the newest file is truncated or bit-flipped.
pub const CHECKPOINT_PREV_FILE: &str = "grimp.ckpt.prev";

/// Hand-rolled CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) —
/// the same checksum gzip and PNG use, computed bitwise so the codec stays
/// dependency-free.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            // Branch-free: mask is all-ones when the low bit is set.
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// The CRC-32 a checkpoint file stores in its footer: the checksum of its
/// payload, and so the identity of its generation. The CRC-32 of a whole
/// file cannot serve: a message followed by its own little-endian CRC-32
/// always checksums to the constant `0x2144DF1C`. `None` when `bytes` is
/// too short to hold a footer; the footer is not verified here
/// ([`TrainCheckpoint::from_bytes`] does that).
pub fn stored_crc(bytes: &[u8]) -> Option<u32> {
    let at = bytes.len().checked_sub(4)?;
    let mut footer = [0u8; 4];
    footer.copy_from_slice(&bytes[at..]);
    Some(u32::from_le_bytes(footer))
}

/// A complete, resumable snapshot of the training loop.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainCheckpoint {
    /// Number of completed epochs.
    pub epoch: u64,
    /// Learning rate in effect (halved by each divergence recovery).
    pub lr: f32,
    /// Divergence recoveries consumed so far.
    pub recoveries: u32,
    /// Best validation loss seen (`+inf` until the first epoch).
    pub best_val: f32,
    /// Epochs since `best_val` improved (early-stopping counter).
    pub since_best: u64,
    /// RNG state at capture time.
    pub rng: [u64; 4],
    /// Every trainable tape parameter, in registration order.
    pub params: Vec<Tensor>,
    /// Adam optimizer state.
    pub adam: AdamState,
    /// Parameters at the best-validation epoch, when one exists.
    pub best_params: Option<Vec<Tensor>>,
}

impl TrainCheckpoint {
    /// Serialize to the version-2 binary format (CRC-32 footer included).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.raw(CHECKPOINT_MAGIC);
        w.u32(CHECKPOINT_VERSION);
        w.u64(self.epoch);
        w.f32(self.lr);
        w.u32(self.recoveries);
        w.f32(self.best_val);
        w.u64(self.since_best);
        for s in self.rng {
            w.u64(s);
        }
        w.tensor_list(&self.params);
        w.adam_state(&self.adam);
        match &self.best_params {
            Some(ps) => {
                w.u8(1);
                w.tensor_list(ps);
            }
            None => w.u8(0),
        }
        let mut bytes = w.into_bytes();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Decode a checkpoint previously produced by
    /// [`TrainCheckpoint::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        // Magic and version are checked before the CRC so that a v1 file (no
        // footer) reports "unsupported version", not a misleading CRC error.
        {
            let mut head = ByteReader::new(bytes);
            if head.raw(CHECKPOINT_MAGIC.len(), "magic header")? != &CHECKPOINT_MAGIC[..] {
                return Err(CheckpointError::BadMagic);
            }
            let version = head.u32("format version")?;
            if version != CHECKPOINT_VERSION {
                return Err(CheckpointError::UnsupportedVersion(version));
            }
        }
        let stored = stored_crc(bytes)
            .ok_or_else(|| CheckpointError::Corrupt("too short for a CRC-32 footer".into()))?;
        let payload = &bytes[..bytes.len() - 4];
        let computed = crc32(payload);
        if computed != stored {
            return Err(CheckpointError::Corrupt(format!(
                "CRC-32 mismatch (stored {stored:08x}, computed {computed:08x}) — \
                 the file is truncated or bit-flipped"
            )));
        }
        let mut r = ByteReader::new(payload);
        let _ = r.raw(CHECKPOINT_MAGIC.len(), "magic header")?;
        let _ = r.u32("format version")?;
        let epoch = r.u64("epoch")?;
        let lr = r.f32("learning rate")?;
        let recoveries = r.u32("recovery count")?;
        let best_val = r.f32("best validation loss")?;
        let since_best = r.u64("early-stopping counter")?;
        let mut rng = [0u64; 4];
        for s in &mut rng {
            *s = r.u64("rng state")?;
        }
        let params = r.tensor_list("parameters")?;
        let adam = r.adam_state()?;
        let best_params = match r.u8("best-params flag")? {
            0 => None,
            1 => Some(r.tensor_list("best parameters")?),
            other => {
                return Err(CheckpointError::Corrupt(format!(
                    "best-params flag must be 0 or 1, got {other}"
                )))
            }
        };
        if r.remaining() != 0 {
            return Err(CheckpointError::Corrupt(format!(
                "{} trailing bytes after checkpoint payload",
                r.remaining()
            )));
        }
        Ok(TrainCheckpoint {
            epoch,
            lr,
            recoveries,
            best_val,
            since_best,
            rng,
            params,
            adam,
            best_params,
        })
    }

    /// Write atomically to `path` (via a sibling temp file + rename, so a
    /// kill mid-write never leaves a truncated checkpoint behind), keeping
    /// the previous generation as `<path>.prev` so resume can fall back past
    /// a corrupted newest file. Returns the number of bytes written.
    pub fn save(&self, path: &Path) -> Result<usize, CheckpointError> {
        self.save_with(&mut grimp_obs::RealFs, path)
    }

    /// [`TrainCheckpoint::save`] through an injectable filesystem, so
    /// checkpoint IO can be fault-tested. Transient errors (interrupted,
    /// timed-out) are retried with deterministic backoff; persistent ones
    /// surface to the caller, which degrades to checkpoint-less training.
    pub fn save_with(
        &self,
        fs: &mut dyn grimp_obs::GrimpFs,
        path: &Path,
    ) -> Result<usize, CheckpointError> {
        use grimp_obs::fs::{with_retry, IO_RETRY_ATTEMPTS};

        let bytes = self.to_bytes();
        let tmp = path.with_extension("ckpt.tmp");
        with_retry(IO_RETRY_ATTEMPTS, || fs.write(&tmp, &bytes))?;
        if fs.exists(path) {
            let prev = path.with_extension("ckpt.prev");
            with_retry(IO_RETRY_ATTEMPTS, || fs.rename(path, &prev))?;
        }
        with_retry(IO_RETRY_ATTEMPTS, || fs.rename(&tmp, path))?;
        // The new generation just became the checkpoint; `.prev` still holds
        // the old one. A kill here must resume from one or the other intact.
        grimp_obs::crashpoint::hit(grimp_obs::crashpoint::CHECKPOINT_ROTATE);
        Ok(bytes.len())
    }

    /// Read and decode the checkpoint at `path`.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainCheckpoint {
        TrainCheckpoint {
            epoch: 12,
            lr: 5e-3,
            recoveries: 1,
            best_val: 0.75,
            since_best: 3,
            rng: [1, 2, 3, u64::MAX],
            params: vec![
                Tensor::from_vec(2, 2, vec![0.1, -0.2, 0.3, -0.4]),
                Tensor::scalar(9.0),
            ],
            adam: AdamState {
                t: 12,
                m: vec![Tensor::from_vec(2, 2, vec![0.0; 4]), Tensor::zeros(0, 0)],
                v: vec![Tensor::from_vec(2, 2, vec![1.0; 4]), Tensor::zeros(0, 0)],
            },
            best_params: Some(vec![
                Tensor::from_vec(2, 2, vec![0.5; 4]),
                Tensor::scalar(8.0),
            ]),
        }
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let ck = sample();
        let back = TrainCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn infinity_best_val_roundtrips() {
        let mut ck = sample();
        ck.best_val = f32::INFINITY;
        ck.best_params = None;
        let back = TrainCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(back.best_val, f32::INFINITY);
        assert!(back.best_params.is_none());
    }

    #[test]
    fn the_stored_footer_tells_generations_apart_and_the_whole_file_crc_does_not() {
        let a = sample().to_bytes();
        let mut later = sample();
        later.epoch += 10;
        let b = later.to_bytes();
        assert_eq!(stored_crc(&a), Some(crc32(&a[..a.len() - 4])));
        assert_ne!(stored_crc(&a), stored_crc(&b));
        assert_eq!((crc32(&a), crc32(&b)), (0x2144_DF1C, 0x2144_DF1C));
        assert_eq!(stored_crc(&a[..3]), None);
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            TrainCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            TrainCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn truncation_and_trailing_garbage_are_rejected() {
        let bytes = sample().to_bytes();
        let mut short = bytes.clone();
        short.truncate(bytes.len() - 1);
        assert!(matches!(
            TrainCheckpoint::from_bytes(&short),
            Err(CheckpointError::Corrupt(_))
        ));
        let mut long = bytes;
        long.push(0);
        assert!(matches!(
            TrainCheckpoint::from_bytes(&long),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn save_and_load_via_disk() {
        let dir = std::env::temp_dir().join("grimp-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CHECKPOINT_FILE);
        let ck = sample();
        let n = ck.save(&path).unwrap();
        assert_eq!(n, ck.to_bytes().len());
        assert_eq!(TrainCheckpoint::load(&path).unwrap(), ck);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_with_rides_out_transient_faults_and_reports_persistent_ones() {
        use grimp_obs::{FaultFs, IoFaultKind, IoFaultPlan};

        let dir = std::env::temp_dir().join(format!("grimp-ckpt-fault-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CHECKPOINT_FILE);
        let ck = sample();

        // Two transient (interrupted) faults are within the retry budget.
        let mut fs = FaultFs::new(IoFaultPlan::transient(2));
        ck.save_with(&mut fs, &path).expect("retried past faults");
        assert_eq!(TrainCheckpoint::load(&path).unwrap(), ck);

        // A persistent ENOSPC surfaces as an error without panicking.
        let mut full = FaultFs::new(IoFaultPlan::persistent(IoFaultKind::Enospc));
        let err = ck.save_with(&mut full, &dir.join("other.ckpt"));
        assert!(err.is_err(), "persistent fault must surface");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 test vector from the PNG/gzip specs.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn a_single_bit_flip_anywhere_is_detected() {
        let bytes = sample().to_bytes();
        // Flip one bit in a parameter float, far from any length prefix, so
        // only the CRC can catch it.
        let mid = bytes.len() / 2;
        for &at in &[CHECKPOINT_MAGIC.len() + 4, mid, bytes.len() - 5] {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x10;
            assert!(
                matches!(
                    TrainCheckpoint::from_bytes(&flipped),
                    Err(CheckpointError::Corrupt(_))
                ),
                "bit flip at byte {at} was not detected"
            );
        }
    }

    #[test]
    fn save_keeps_the_previous_generation() {
        let dir = std::env::temp_dir().join("grimp-ckpt-rotate-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CHECKPOINT_FILE);
        let prev = dir.join(CHECKPOINT_PREV_FILE);

        let mut first = sample();
        first.epoch = 1;
        first.save(&path).unwrap();
        assert!(!prev.exists(), "no previous generation after one save");

        let mut second = sample();
        second.epoch = 2;
        second.save(&path).unwrap();
        assert_eq!(TrainCheckpoint::load(&path).unwrap().epoch, 2);
        assert_eq!(TrainCheckpoint::load(&prev).unwrap().epoch, 1);

        let mut third = sample();
        third.epoch = 3;
        third.save(&path).unwrap();
        assert_eq!(TrainCheckpoint::load(&path).unwrap().epoch, 3);
        assert_eq!(
            TrainCheckpoint::load(&prev).unwrap().epoch,
            2,
            "only the last two generations are kept"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
