//! The write-ahead append log (`grimp.wal`) behind crash-safe incremental
//! imputation.
//!
//! Appended rows are made durable *before* any model work starts: the rows
//! are encoded into a WAL segment — length-prefixed, CRC-32-per-record,
//! tagged with the checkpoint generation it was written against — and the
//! whole segment is published atomically (tmp + rename) through the
//! fault-injectable [`GrimpFs`] layer. A crash at any later point (during
//! fine-tuning, checkpoint rotation, or the final imputation) can then
//! replay the delta from the log and converge to the same state the
//! uninterrupted run would have reached.
//!
//! Recovery is torn-tail tolerant: a segment whose final record is
//! truncated or bit-flipped (e.g. written through a faulty disk) yields its
//! intact record prefix plus a `torn_tail` flag, and a segment whose header
//! is unreadable is reported as unusable rather than an error — the caller
//! falls back to the previous checkpoint generation cleanly. The segment is
//! rotated to `grimp.wal.applied` (another atomic rename) only after the
//! fine-tuned checkpoint generation is durable, which makes replay
//! idempotent: re-running recovery over an already-applied segment finds
//! the fine-tune target already reached and changes nothing.

use std::io;
use std::path::Path;

use grimp_obs::fs::atomic_write;
use grimp_obs::GrimpFs;

use crate::checkpoint::crc32;

/// File name of the pending append segment inside the checkpoint directory.
pub const WAL_FILE: &str = "grimp.wal";
/// File name a fully applied segment is rotated to (atomic rename), kept
/// for post-mortem inspection until the next append overwrites it.
pub const WAL_APPLIED_FILE: &str = "grimp.wal.applied";
/// Magic bytes opening every WAL segment.
pub const WAL_MAGIC: &[u8; 8] = b"GRIMPWAL";
/// Format version of this module.
pub const WAL_VERSION: u32 = 1;

/// The checkpoint generation a WAL segment was written against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalBase {
    /// Identity of the checkpoint at append time: the payload CRC-32 its
    /// footer stores ([`crate::checkpoint::stored_crc`]), `0` when no
    /// checkpoint existed — the append then schedules a full fit. A real
    /// footer can also be `0` (odds 2⁻³²); such an append refits too.
    pub ckpt_crc: u32,
    /// Completed epochs of that checkpoint (`0` when none existed). The
    /// fine-tune target is `epoch + finetune.epochs`, so recovery after a
    /// mid-fine-tune crash knows how far to continue.
    pub epoch: u64,
}

/// One logged append row: per-column cells, `None` for `∅`.
pub type WalRow = Vec<Option<String>>;

/// A decoded WAL segment: the base generation plus every intact row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalSegment {
    /// Checkpoint generation the append targets.
    pub base: WalBase,
    /// Column count every row must match.
    pub n_columns: usize,
    /// The appended rows, in append order.
    pub rows: Vec<WalRow>,
}

/// Outcome of a torn-tolerant [`WalSegment::read`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRead {
    /// No segment file exists — nothing pending.
    Missing,
    /// The file exists but its header is unreadable (empty file, foreign
    /// magic, version from the future, or a corrupted header). The reason
    /// is carried for the report; the caller falls back to the current
    /// checkpoint generation and must not trust any of the file's content.
    Unusable(String),
    /// The header was intact; `segment` holds every record whose length and
    /// CRC checked out. `torn_tail` is set when trailing bytes had to be
    /// dropped (a torn final record from a crashed or faulted write).
    Segment {
        /// The decoded rows and base generation.
        segment: WalSegment,
        /// Whether a corrupt tail was discarded after the intact prefix.
        torn_tail: bool,
    },
}

/// Record-kind byte of an append row (the only kind in version 1).
const RECORD_ROW: u8 = 0;
/// Cell tag: `∅`.
const CELL_NULL: u8 = 0;
/// Cell tag: UTF-8 text follows.
const CELL_TEXT: u8 = 1;

impl WalSegment {
    /// A segment over `n_columns`-wide rows targeting `base`.
    pub fn new(base: WalBase, n_columns: usize) -> Self {
        WalSegment {
            base,
            n_columns,
            rows: Vec::new(),
        }
    }

    /// Serialize: header (magic, version, base generation, column count,
    /// header CRC) followed by one `[len][crc][payload]` record per row.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(WAL_MAGIC);
        let mut header = Vec::new();
        header.extend_from_slice(&WAL_VERSION.to_le_bytes());
        header.extend_from_slice(&self.base.ckpt_crc.to_le_bytes());
        header.extend_from_slice(&self.base.epoch.to_le_bytes());
        header.extend_from_slice(&(self.n_columns as u32).to_le_bytes());
        out.extend_from_slice(&header);
        out.extend_from_slice(&crc32(&header).to_le_bytes());
        for row in &self.rows {
            let payload = encode_row(row);
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&crc32(&payload).to_le_bytes());
            out.extend_from_slice(&payload);
        }
        out
    }

    /// Publish the segment at `path` atomically (tmp + rename) through the
    /// run's IO layer: a crash or injected fault mid-write leaves either
    /// the previous segment or none, never a half-written one.
    ///
    /// # Errors
    /// Any IO error of the underlying write or rename.
    pub fn write(&self, fs: &mut dyn GrimpFs, path: &Path) -> io::Result<()> {
        atomic_write(fs, path, &self.to_bytes())
    }

    /// Read and decode the segment at `path`, torn-tail tolerant (see
    /// [`WalRead`]). Only a *read* IO error on an existing file is an
    /// `Err`; every corruption shape decodes to a usable-or-unusable
    /// verdict instead.
    ///
    /// # Errors
    /// The underlying read failure, when the file exists but cannot be
    /// read at all.
    pub fn read(fs: &mut dyn GrimpFs, path: &Path) -> io::Result<WalRead> {
        if !fs.exists(path) {
            return Ok(WalRead::Missing);
        }
        let bytes = fs.read(path)?;
        Ok(decode_segment(&bytes))
    }
}

/// Encode one row as a record payload.
fn encode_row(row: &WalRow) -> Vec<u8> {
    let mut payload = vec![RECORD_ROW];
    for cell in row {
        match cell {
            None => payload.push(CELL_NULL),
            Some(text) => {
                payload.push(CELL_TEXT);
                payload.extend_from_slice(&(text.len() as u32).to_le_bytes());
                payload.extend_from_slice(text.as_bytes());
            }
        }
    }
    payload
}

/// Decode a record payload into a row of `n_columns` cells; `None` when
/// the payload is malformed (counts as a torn record).
fn decode_row(payload: &[u8], n_columns: usize) -> Option<WalRow> {
    let mut at = 0usize;
    if payload.get(at) != Some(&RECORD_ROW) {
        return None;
    }
    at += 1;
    let mut row = Vec::with_capacity(n_columns);
    for _ in 0..n_columns {
        match *payload.get(at)? {
            CELL_NULL => {
                at += 1;
                row.push(None);
            }
            CELL_TEXT => {
                at += 1;
                let len = u32::from_le_bytes(payload.get(at..at + 4)?.try_into().ok()?) as usize;
                at += 4;
                let text = std::str::from_utf8(payload.get(at..at + len)?).ok()?;
                at += len;
                row.push(Some(text.to_string()));
            }
            _ => return None,
        }
    }
    (at == payload.len()).then_some(row)
}

/// Decode a whole segment file (header strictly, records torn-tolerant).
fn decode_segment(bytes: &[u8]) -> WalRead {
    if bytes.is_empty() {
        return WalRead::Unusable("empty append log".to_string());
    }
    let header_len = WAL_MAGIC.len() + 4 + 4 + 8 + 4 + 4;
    if bytes.len() < header_len {
        return WalRead::Unusable("truncated append-log header".to_string());
    }
    if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return WalRead::Unusable("not an append log (bad magic)".to_string());
    }
    let header = &bytes[WAL_MAGIC.len()..header_len - 4];
    let stored_crc = u32::from_le_bytes(bytes[header_len - 4..header_len].try_into().expect("4"));
    if crc32(header) != stored_crc {
        return WalRead::Unusable("append-log header failed its CRC".to_string());
    }
    let version = u32::from_le_bytes(header[0..4].try_into().expect("4"));
    if version != WAL_VERSION {
        return WalRead::Unusable(format!("unsupported append-log version {version}"));
    }
    let base = WalBase {
        ckpt_crc: u32::from_le_bytes(header[4..8].try_into().expect("4")),
        epoch: u64::from_le_bytes(header[8..16].try_into().expect("8")),
    };
    let n_columns = u32::from_le_bytes(header[16..20].try_into().expect("4")) as usize;

    let mut segment = WalSegment::new(base, n_columns);
    let mut at = header_len;
    let mut torn_tail = false;
    while at < bytes.len() {
        let Some(frame) = bytes.get(at..at + 8) else {
            torn_tail = true;
            break;
        };
        let len = u32::from_le_bytes(frame[0..4].try_into().expect("4")) as usize;
        let rec_crc = u32::from_le_bytes(frame[4..8].try_into().expect("4"));
        let Some(payload) = bytes.get(at + 8..at + 8 + len) else {
            torn_tail = true;
            break;
        };
        if crc32(payload) != rec_crc {
            torn_tail = true;
            break;
        }
        let Some(row) = decode_row(payload, n_columns) else {
            torn_tail = true;
            break;
        };
        segment.rows.push(row);
        at += 8 + len;
    }
    WalRead::Segment { segment, torn_tail }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grimp_obs::RealFs;

    fn segment() -> WalSegment {
        let mut s = WalSegment::new(
            WalBase {
                ckpt_crc: 0xDEAD_BEEF,
                epoch: 7,
            },
            3,
        );
        s.rows.push(vec![
            Some("Paris".to_string()),
            None,
            Some("1.5".to_string()),
        ]);
        s.rows
            .push(vec![None, Some("".to_string()), Some("über".to_string())]);
        s
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("grimp-wal-{}-{name}", std::process::id()))
    }

    #[test]
    fn segment_round_trips_through_bytes() {
        let s = segment();
        match decode_segment(&s.to_bytes()) {
            WalRead::Segment {
                segment, torn_tail, ..
            } => {
                assert_eq!(segment, s);
                assert!(!torn_tail);
            }
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn segment_round_trips_through_the_fs_layer() {
        let mut fs = RealFs;
        let path = tmp("roundtrip");
        let s = segment();
        s.write(&mut fs, &path).unwrap();
        match WalSegment::read(&mut fs, &path).unwrap() {
            WalRead::Segment { segment, torn_tail } => {
                assert_eq!(segment, s);
                assert!(!torn_tail);
            }
            other => panic!("unexpected read: {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_reads_as_missing() {
        let mut fs = RealFs;
        assert_eq!(
            WalSegment::read(&mut fs, &tmp("missing")).unwrap(),
            WalRead::Missing
        );
    }

    #[test]
    fn empty_and_foreign_files_are_unusable_not_errors() {
        assert!(matches!(decode_segment(&[]), WalRead::Unusable(_)));
        assert!(matches!(
            decode_segment(b"GRIMPCKPxxxxxxxxxxxxxxxxxxxx"),
            WalRead::Unusable(_)
        ));
        // header CRC catches a bit flip in the base generation
        let mut bytes = segment().to_bytes();
        bytes[12] ^= 0x40;
        assert!(matches!(decode_segment(&bytes), WalRead::Unusable(_)));
    }

    #[test]
    fn torn_final_record_keeps_the_intact_prefix() {
        let s = segment();
        let whole = s.to_bytes();
        // Chop bytes off the final record: every truncation point must
        // yield exactly the first row plus a torn-tail flag.
        let first_row_end = {
            let header_len = WAL_MAGIC.len() + 20;
            let len = u32::from_le_bytes(whole[header_len..header_len + 4].try_into().unwrap());
            header_len + 8 + len as usize
        };
        for cut in first_row_end + 1..whole.len() {
            match decode_segment(&whole[..cut]) {
                WalRead::Segment { segment, torn_tail } => {
                    assert!(torn_tail, "cut at {cut}");
                    assert_eq!(segment.rows.len(), 1, "cut at {cut}");
                    assert_eq!(segment.rows[0], s.rows[0]);
                    assert_eq!(segment.base, s.base);
                }
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flipped_record_is_dropped_with_everything_after_it() {
        let s = segment();
        let mut bytes = s.to_bytes();
        let header_len = WAL_MAGIC.len() + 20;
        // flip a byte inside the first record's payload
        bytes[header_len + 9] ^= 0x01;
        match decode_segment(&bytes) {
            WalRead::Segment { segment, torn_tail } => {
                assert!(torn_tail);
                assert!(segment.rows.is_empty());
                assert_eq!(segment.base, s.base);
            }
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn empty_segment_with_no_rows_is_valid() {
        let s = WalSegment::new(WalBase::default(), 2);
        match decode_segment(&s.to_bytes()) {
            WalRead::Segment { segment, torn_tail } => {
                assert!(segment.rows.is_empty());
                assert!(!torn_tail);
            }
            other => panic!("unexpected decode: {other:?}"),
        }
    }
}
