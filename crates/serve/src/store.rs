//! The checksummed snapshot store.
//!
//! Each session keeps up to two snapshot files, `snap-{session:016x}.0`
//! and `.1`. A checkpoint overwrites, in place, the generation that
//! does not hold the session's newest durable frame, so that frame
//! survives until its successor is durable: a crash mid-write can tear
//! only the generation being written, and the trailer turns the tear
//! into a typed error. One file holds one frame:
//!
//! ```text
//! SnapWriter header: magic "LTSF" (u32) | version (u32)
//! body             : session (u64) | epoch (u64) | applied (u64)
//!                  | priority rank (u8, v2+)
//!                  | blob_len (u64) | blob bytes ("LTSE" pipeline snapshot)
//! trailer          : crc32 over everything above (u32)
//! ```
//!
//! Version 2 added the session's sticky [`Priority`] rank so crash
//! recovery can rehydrate the admission class (v1 frames decode with
//! [`Priority::Normal`]).
//!
//! A live pipeline's frame is encoded in one pass
//! ([`encode_pipeline_frame`]): the LTSE blob is sealed in place and
//! the frame's trailer folds it in by length. A blob encoded elsewhere
//! ([`encode_frame`]) is copied in and checksummed in full. The bytes
//! are the same either way.
//!
//! Decoding is fully defensive: any malformed frame yields a typed
//! [`RecoveryError`], never a panic, and recovery simply falls back to
//! the other generation (or a fresh session).

use crate::journal::RecoveryError;
use crate::overload::Priority;
use latch_core::snapshot::{SnapError, SnapReader, SnapWriter};
use latch_systems::session::SessionPipeline;

/// Snapshot frame magic: "LTSF" (LaTch Snapshot Frame).
pub const SNAP_FRAME_MAGIC: u32 = 0x4C54_5346;
/// Snapshot frame format version.
pub const SNAP_FRAME_VERSION: u32 = 2;
/// Cap on an embedded pipeline blob; length prefixes above this are
/// treated as corruption, bounding allocation on hostile files.
pub const SNAP_MAX_BLOB: usize = 1 << 28;

/// The snapshot file name for a session and generation (0 or 1).
#[must_use]
pub fn snap_name(session: u64, generation: u8) -> String {
    format!("snap-{session:016x}.{generation}")
}

/// Parses `(session, generation)` back out of a `snap-*` file name.
#[must_use]
pub fn parse_snap_name(name: &str) -> Option<(u64, u8)> {
    let rest = name.strip_prefix("snap-")?;
    let (hex, generation) = rest.split_once('.')?;
    if hex.len() != 16 {
        return None;
    }
    let session = u64::from_str_radix(hex, 16).ok()?;
    let generation = match generation {
        "0" => 0,
        "1" => 1,
        _ => return None,
    };
    Some((session, generation))
}

/// One decoded snapshot frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapFrame {
    /// The session this frame belongs to.
    pub session: u64,
    /// Recovery generation the snapshot was taken in.
    pub epoch: u64,
    /// Events the pipeline had applied when snapshotted.
    pub applied: u64,
    /// The session's sticky admission class when snapshotted
    /// ([`Priority::Normal`] for v1 frames, which predate the field).
    pub priority: Priority,
    /// The embedded "LTSE" pipeline snapshot.
    pub blob: Vec<u8>,
}

impl SnapFrame {
    /// Whether this frame is newer than `other`: epoch dominates (a
    /// post-recovery history supersedes any pre-crash one), then the
    /// applied counter.
    #[must_use]
    pub fn newer_than(&self, other: &SnapFrame) -> bool {
        (self.epoch, self.applied) > (other.epoch, other.applied)
    }
}

/// Bytes of a frame around its blob: header, the four fields, the
/// blob's length prefix and the trailer.
const FRAME_OVERHEAD: usize = 8 + 3 * 8 + 1 + 8 + 4;

/// A writer holding a frame's header and fields, with room for a blob
/// of `blob_len` bytes and the trailer.
fn frame_writer(
    session: u64,
    epoch: u64,
    applied: u64,
    priority: Priority,
    blob_len: usize,
) -> SnapWriter {
    let mut w = SnapWriter::with_capacity(FRAME_OVERHEAD + blob_len);
    w.header(SNAP_FRAME_MAGIC, SNAP_FRAME_VERSION);
    w.u64(session);
    w.u64(epoch);
    w.u64(applied);
    w.u8(priority.rank());
    w
}

/// Encodes a snapshot frame around an LTSE blob encoded elsewhere (a
/// frozen slot, a recovery or import blob). The blob is copied in and the trailer reads it in full: only
/// a blob the frame's own writer sealed may be skipped.
#[must_use]
pub fn encode_frame(
    session: u64,
    epoch: u64,
    applied: u64,
    priority: Priority,
    blob: &[u8],
) -> Vec<u8> {
    let mut w = frame_writer(session, epoch, applied, priority, blob.len());
    w.u64(blob.len() as u64);
    w.bytes(blob);
    w.finish_crc()
}

/// Encodes a live pipeline's snapshot frame in one pass over one
/// buffer, sized from the pipeline's resident shadow pages: the LTSE
/// blob is written and sealed in place, and the frame's trailer skips
/// it. Byte for byte the same as [`encode_frame`] of
/// `pipe.to_snapshot()` with the pipeline's epoch and applied count.
#[must_use]
pub fn encode_pipeline_frame(session: u64, priority: Priority, pipe: &SessionPipeline) -> Vec<u8> {
    let (epoch, applied) = (pipe.epoch(), pipe.applied());
    let mut w = frame_writer(session, epoch, applied, priority, pipe.snapshot_len_hint());
    w.sealed(|w| pipe.snap_encode(w));
    w.finish_crc()
}

/// Decodes a snapshot frame for `session`, rejecting anything
/// malformed with a typed error. The embedded blob is *not* decoded
/// here — the caller thaws it (and may still quarantine it if the
/// inner "LTSE" decode fails).
pub fn decode_frame(session: u64, bytes: &[u8]) -> Result<SnapFrame, RecoveryError> {
    let mut r = SnapReader::new(bytes);
    let Ok(version) = r.header(SNAP_FRAME_MAGIC, SNAP_FRAME_VERSION) else {
        return Err(RecoveryError::BadHeader);
    };
    if r.trim_crc().is_err() {
        return Err(RecoveryError::BadFrameCrc);
    }
    let parse = |r: &mut SnapReader| -> Result<SnapFrame, SnapError> {
        let session = r.u64()?;
        let epoch = r.u64()?;
        let applied = r.u64()?;
        let priority = if version >= 2 {
            Priority::from_rank(r.u8()?).ok_or(SnapError::Corrupt("priority"))?
        } else {
            Priority::Normal
        };
        let blob_len = r.len(1)?;
        let blob = r.bytes(blob_len)?.to_vec();
        r.expect_end()?;
        Ok(SnapFrame {
            session,
            epoch,
            applied,
            priority,
            blob,
        })
    };
    let frame = parse(&mut r).map_err(|_| RecoveryError::BadSnapshot)?;
    if frame.blob.len() > SNAP_MAX_BLOB {
        return Err(RecoveryError::OversizedFrame);
    }
    if frame.session != session {
        return Err(RecoveryError::SessionMismatch);
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snap_names_roundtrip() {
        assert_eq!(parse_snap_name(&snap_name(9, 0)), Some((9, 0)));
        assert_eq!(parse_snap_name(&snap_name(u64::MAX, 1)), Some((u64::MAX, 1)));
        assert_eq!(parse_snap_name("snap-0000000000000009.2"), None);
        assert_eq!(parse_snap_name("wal-0000000000000009"), None);
    }

    #[test]
    fn frames_roundtrip() {
        let blob = vec![7u8; 300];
        for prio in [Priority::Critical, Priority::Normal, Priority::Bulk] {
            let enc = encode_frame(4, 2, 1234, prio, &blob);
            let frame = decode_frame(4, &enc).unwrap();
            assert_eq!(frame.session, 4);
            assert_eq!(frame.epoch, 2);
            assert_eq!(frame.applied, 1234);
            assert_eq!(frame.priority, prio);
            assert_eq!(frame.blob, blob);
        }
    }

    #[test]
    fn v1_frames_decode_with_default_priority() {
        // A pre-priority frame: same layout minus the rank byte.
        let blob = vec![3u8; 40];
        let mut w = SnapWriter::new();
        w.header(SNAP_FRAME_MAGIC, 1);
        w.u64(8);
        w.u64(0);
        w.u64(77);
        w.u64(blob.len() as u64);
        w.bytes(&blob);
        let frame = decode_frame(8, &w.finish_crc()).unwrap();
        assert_eq!(frame.applied, 77);
        assert_eq!(frame.priority, Priority::Normal);
        assert_eq!(frame.blob, blob);
    }

    #[test]
    fn out_of_range_priority_rank_is_corruption() {
        let mut w = SnapWriter::new();
        w.header(SNAP_FRAME_MAGIC, SNAP_FRAME_VERSION);
        w.u64(8);
        w.u64(0);
        w.u64(77);
        w.u8(3); // no such rank
        w.u64(0);
        assert_eq!(
            decode_frame(8, &w.finish_crc()),
            Err(RecoveryError::BadSnapshot)
        );
    }

    #[test]
    fn newer_than_orders_by_epoch_then_applied() {
        let f = |epoch, applied| SnapFrame {
            session: 0,
            epoch,
            applied,
            priority: Priority::Normal,
            blob: Vec::new(),
        };
        assert!(f(1, 10).newer_than(&f(0, 999)), "epoch dominates");
        assert!(f(0, 11).newer_than(&f(0, 10)));
        assert!(!f(0, 10).newer_than(&f(0, 10)));
    }

    #[test]
    fn every_bitflip_and_truncation_is_typed() {
        let enc = encode_frame(1, 0, 64, Priority::Bulk, &[9u8; 128]);
        for i in 0..enc.len() {
            let mut bad = enc.clone();
            bad[i] ^= 0x20;
            assert!(decode_frame(1, &bad).is_err(), "flip at {i} undetected");
        }
        for cut in 0..enc.len() {
            assert!(decode_frame(1, &enc[..cut]).is_err(), "cut at {cut} undetected");
        }
        // Wrong session id in an otherwise valid frame.
        assert_eq!(
            decode_frame(2, &enc),
            Err(RecoveryError::SessionMismatch)
        );
    }

    fn pipeline(name: &str, seed: u64, events: u64) -> SessionPipeline {
        use latch_sim::event::EventSource;
        let mut src = latch_workloads::BenchmarkProfile::by_name(name)
            .unwrap()
            .stream(seed, events);
        let mut pipe = SessionPipeline::new(512);
        while let Some(ev) = src.next_event() {
            pipe.apply(&ev);
        }
        pipe
    }

    /// The LTSF half of the snapshot pins: `latch-systems`' test of the
    /// same name pins the LTCH, LTDF and LTSE blobs of this pipeline,
    /// and this one the frame around them, as `(len, crc32 of all but
    /// the trailer)` taken with the encoder that copied each nested
    /// blob and checksummed every layer in full. The frame's trailer
    /// depends on the nested blob only through its length, so the
    /// nested pins are what see a change inside it.
    #[test]
    fn astar_snapshot_bytes_are_pinned() {
        use latch_core::snapshot::crc32;
        fn pin(blob: &[u8]) -> (usize, u32) {
            (blob.len(), crc32(&blob[..blob.len() - 4]))
        }
        let pipe = pipeline("astar", 5, 20_000);
        let blob = pipe.to_snapshot();
        assert_eq!(pin(&blob), (98_196, 0x5DF3_BB6C));
        let frame = encode_frame(0x5EED, 3, 20_000, Priority::Critical, &blob);
        assert_eq!(pin(&frame), (98_241, 0x3EAD_CAEC));
        assert_eq!(
            encode_pipeline_frame(0x5EED, Priority::Critical, &pipe),
            encode_frame(0x5EED, 0, 20_000, Priority::Critical, &blob)
        );
    }

    #[test]
    fn pipeline_frames_match_the_copying_encoder() {
        use latch_core::snapshot::crc32;
        for (name, seed, events) in [("bzip2", 51, 4_000), ("astar", 52, 12_000)] {
            let pipe = pipeline(name, seed, events);
            let thawed = SessionPipeline::from_snapshot(&pipe.to_snapshot()).unwrap();
            for (p, prio) in [(&pipe, Priority::Bulk), (&thawed, Priority::Critical)] {
                let blob = p.to_snapshot();
                let frame = encode_pipeline_frame(9, prio, p);
                assert_eq!(
                    frame,
                    encode_frame(9, p.epoch(), p.applied(), prio, &blob),
                    "{name}"
                );
                let (body, trailer) = frame.split_at(frame.len() - 4);
                assert_eq!(
                    trailer,
                    crc32(body).to_le_bytes(),
                    "{name}: full-pass trailer"
                );
                assert!(
                    frame.len() <= FRAME_OVERHEAD + p.snapshot_len_hint(),
                    "{name}: hint"
                );
                assert_eq!(decode_frame(9, &frame).unwrap().blob, blob, "{name}");
            }
        }
    }

    /// A checkpoint overwrites the older generation in place, so a
    /// crash can leave any prefix of the new frame over the old one.
    /// Every such tear reads back as the old frame (nothing that
    /// differs landed) or a typed error — never as the new frame.
    #[test]
    fn a_torn_put_over_an_older_frame_is_the_old_frame_or_typed() {
        let old = encode_frame(5, 0, 10, Priority::Normal, &[1u8; 300]);
        let new = encode_frame(5, 0, 20, Priority::Normal, &[2u8; 200]);
        let want_old = decode_frame(5, &old).unwrap();
        for keep in 0..new.len() {
            let mut torn = old.clone();
            torn[..keep].copy_from_slice(&new[..keep]);
            if let Ok(frame) = decode_frame(5, &torn) {
                assert_eq!(frame, want_old, "tear at {keep}");
            }
        }
        assert_eq!(decode_frame(5, &new).unwrap().applied, 20);
    }
}
