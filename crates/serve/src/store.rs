//! The checksummed snapshot store.
//!
//! Each session keeps up to two snapshot files, `snap-{session:016x}.0`
//! and `.1`. A checkpoint overwrites, in place, the generation that
//! does not hold the session's newest durable frame, so that frame
//! survives until its successor is durable: a crash mid-write can tear
//! only the generation being written, and the trailer turns the tear
//! into a typed error. One file holds one frame. The current layout,
//! version 3, gives each resident shadow page a fixed 4 KiB slot:
//!
//! ```text
//! head              : magic "LTSF" (u32) | version 3 (u32) | session (u64)
//!                   | slots (u64) | zero padding to 4 KiB when slots > 0
//! slot k (4 KiB)    : the tag bytes of one resident shadow page, at
//!                     offset 4096 · (1 + k)
//! tail              : epoch (u64) | applied (u64) | priority rank (u8)
//!                   | page index of each slot (u32 each)
//!                   | blob_len (u64) | blob ("LTSE" pipeline snapshot
//!                     with an empty page section)
//! trailer           : crc32 over everything above (u32)
//! ```
//!
//! A page keeps its slot for the life of the file, and a page that
//! becomes resident appends one, so the tail moves by 4 KiB. A file
//! with no slot carries no padding: its tail follows the 24 head bytes. Between
//! two checkpoints of the same generation few pages change, so
//! [`encode_checkpoint`] can *patch* the file: it writes the slots of
//! the pages changed since that generation's last landed frame, the
//! new slots, the tail and the trailer, and sets the file length
//! ([`Storage::patch`]). It combines the trailer from per-slot CRCs the
//! writer keeps ([`SlotFile`]), so a clean slot is neither encoded nor
//! read again. A patch that lands in part fails the trailer as a torn
//! put does. The frame is written whole when the writer holds no
//! landed layout of this pipeline for the file, a slotted page left
//! residency, a file with no slot gains its first, and at every
//! [`WHOLE_EVERY`]th checkpoint into the file: a patch trusts that the
//! file's clean slots still hold what landed there, and a whole write
//! stops a slot that rotted since from failing every later frame.
//!
//! Versions 1 and 2 held the LTSE blob whole, behind the fields:
//!
//! ```text
//! header : magic "LTSF" (u32) | version (u32)
//! body   : session (u64) | epoch (u64) | applied (u64)
//!        | priority rank (u8, v2 only) | blob_len (u64) | blob ("LTSE")
//! trailer: crc32 over everything above (u32)
//! ```
//!
//! They still decode; v1 frames, which predate the sticky [`Priority`]
//! rank, decode with [`Priority::Normal`].
//!
//! Decoding is fully defensive: any malformed frame yields a typed
//! [`RecoveryError`], never a panic, and recovery simply falls back to
//! the other generation (or a fresh session).

use crate::journal::RecoveryError;
use crate::overload::Priority;
use crate::storage::Storage;
use latch_core::snapshot::{crc32, crc32_combine, SnapError, SnapReader, SnapWriter};
use latch_dift::shadow::PageMark;
use latch_systems::session::SessionPipeline;
use std::collections::HashMap;

/// Snapshot frame magic: "LTSF" (LaTch Snapshot Frame).
pub const SNAP_FRAME_MAGIC: u32 = 0x4C54_5346;
/// Snapshot frame format version.
pub const SNAP_FRAME_VERSION: u32 = 3;
/// Cap on an embedded pipeline blob; length prefixes above this are
/// treated as corruption, bounding allocation on hostile files.
pub const SNAP_MAX_BLOB: usize = 1 << 28;
/// Bytes of a v3 slot, and of the head block before the first one: one
/// shadow page, one filesystem block.
pub const SLOT_BYTES: usize = latch_core::PAGE_SIZE as usize;
/// Checkpoints into one snapshot file per whole write of it: after a
/// whole frame, at most `WHOLE_EVERY - 1` patches follow.
pub const WHOLE_EVERY: u32 = 16;
/// Offset of the slot count in the v3 head.
const SLOTS_AT: usize = 16;
/// Bytes of the v3 head before its padding.
const HEAD_FIELDS: usize = 24;

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

/// The pipeline state a decoded frame holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameBody {
    /// A v1 or v2 frame's "LTSE" pipeline snapshot.
    Blob(Vec<u8>),
    /// A v3 frame's resident pages and the rest of its pipeline.
    Slotted {
        /// Each slot's page index and 4 KiB of tag bytes, in slot order.
        pages: Vec<(u32, Box<[u8]>)>,
        /// The "LTSE" pipeline snapshot with an empty page section.
        blob: Vec<u8>,
    },
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
    /// The pipeline state, not yet thawed.
    pub body: FrameBody,
}

impl SnapFrame {
    /// Whether this frame is newer than `other`: epoch dominates (a
    /// post-recovery history supersedes any pre-crash one), then the
    /// applied counter.
    #[must_use]
    pub fn newer_than(&self, other: &SnapFrame) -> bool {
        (self.epoch, self.applied) > (other.epoch, other.applied)
    }

    /// Thaws the frame's pipeline. A v3 frame's pages move into the
    /// thawed shadow as decoded, so each is copied once out of the file
    /// and never reassembled into an LTSE blob.
    ///
    /// # Errors
    ///
    /// The [`SnapError`] of a pipeline state that does not thaw.
    pub fn thaw(self) -> Result<SessionPipeline, SnapError> {
        match self.body {
            FrameBody::Blob(blob) => SessionPipeline::from_snapshot(&blob),
            FrameBody::Slotted { pages, blob } => {
                SessionPipeline::from_snapshot_and_pages(&blob, pages)
            }
        }
    }
}

/// What this process last landed in one generation's v3 file: the page
/// each slot holds, each slot's CRC-32, the pipeline's page mark when
/// the frame was taken, and the patches since the file was last written
/// whole. A patch of the file is computed against it, so it is kept
/// only once the frame is durable.
#[derive(Debug, Clone)]
pub struct SlotFile {
    pages: Vec<u32>,
    slot_of: HashMap<u32, usize>,
    crcs: Vec<u32>,
    mark: PageMark,
    patches: u32,
}

/// One checkpoint's write into a snapshot file: the whole frame, or a
/// patch of the frame the file holds. Either way its extents, laid over
/// that file and cut to `len`, give the new frame.
#[derive(Debug, Clone)]
pub struct FrameWrite {
    /// File length once the write lands.
    len: u64,
    /// The extents' bytes, back to back in file order.
    bytes: Vec<u8>,
    /// `(file offset, length)` of each extent, in file order, none
    /// adjacent to the next. A whole frame is one extent at 0.
    extents: Vec<(u64, usize)>,
}

impl FrameWrite {
    /// Whether this write is the whole frame rather than a patch.
    #[must_use]
    pub fn is_whole(&self) -> bool {
        self.extents == [(0, self.bytes.len())] && self.len == self.bytes.len() as u64
    }

    /// Bytes the write carries.
    #[must_use]
    pub fn bytes_written(&self) -> usize {
        self.bytes.len()
    }

    /// Writes it to `name`: a whole frame with one [`Storage::put`], a
    /// patch with one [`Storage::patch`]. Returns the call's result.
    pub fn write_to(&self, storage: &mut impl Storage, name: &str) -> bool {
        if self.is_whole() {
            return storage.put(name, &self.bytes);
        }
        let mut rest = &self.bytes[..];
        let extents: Vec<(u64, &[u8])> = self
            .extents
            .iter()
            .map(|&(at, n)| {
                let (bytes, tail) = rest.split_at(n);
                rest = tail;
                (at, bytes)
            })
            .collect();
        storage.patch(name, self.len, &extents)
    }

    /// Adds `data` at file offset `at`, after every extent so far,
    /// merging it into the last one when they touch.
    fn push(&mut self, at: u64, data: &[u8]) {
        match self.extents.last_mut() {
            Some((start, n)) if *start + *n as u64 == at => *n += data.len(),
            _ => self.extents.push((at, data.len())),
        }
        self.bytes.extend_from_slice(data);
    }
}

/// Where the tail of a v3 file with `slots` slots starts: past the
/// slots, or right after the head fields when there is none.
fn tail_at(slots: usize) -> usize {
    match slots {
        0 => HEAD_FIELDS,
        n => SLOT_BYTES * (1 + n),
    }
}

/// The v3 head of a file with `slots` slots, padded to the first slot.
fn head_block(session: u64, slots: usize) -> Vec<u8> {
    let mut w = SnapWriter::with_capacity(SLOT_BYTES);
    w.header(SNAP_FRAME_MAGIC, SNAP_FRAME_VERSION);
    w.u64(session);
    w.u64(slots as u64);
    let mut head = w.finish();
    head.resize(tail_at(slots) - slots * SLOT_BYTES, 0);
    head
}

/// The v3 tail: the fields, the slots' page indices and the page-less
/// LTSE blob.
fn tail(priority: Priority, pipe: &SessionPipeline, pages: &[u32]) -> Vec<u8> {
    let page_bytes = pipe.engine().shadow().resident_pages() * (4 + SLOT_BYTES);
    let hint = pipe.snapshot_len_hint().saturating_sub(page_bytes) + 32 + 4 * pages.len();
    let mut w = SnapWriter::with_capacity(hint);
    w.u64(pipe.epoch());
    w.u64(pipe.applied());
    w.u8(priority.rank());
    for &idx in pages {
        w.u32(idx);
    }
    w.sealed(|w| pipe.snap_encode_without_pages(w));
    w.finish()
}

/// The file's CRC-32 from its head block's, its slots' and its tail's.
fn file_crc(head: u32, slots: &[u32], tail: &[u8]) -> u32 {
    let crc = slots
        .iter()
        .fold(head, |crc, &slot| crc32_combine(crc, slot, SLOT_BYTES));
    crc32_combine(crc, crc32(tail), tail.len())
}

/// Encodes `pipe`'s checkpoint into a v3 file of `session` that holds
/// `prev` — the layout this process last landed there, or `None` when
/// it holds nothing this process can vouch for. Returns the write and
/// the layout the file holds once it lands.
///
/// The write is a patch when `prev` was taken on this very pipeline,
/// fewer than `WHOLE_EVERY - 1` patches followed the file's last whole
/// write, every page it slots is still resident, and it has a slot or
/// gains none (the first slot pads the head): the slots of the pages
/// changed since `prev`'s mark, one new slot per newly resident page,
/// the tail and the trailer, and the slot count when it grew.
/// Otherwise it is the whole frame, its slots in page order.
#[must_use]
pub fn encode_checkpoint(
    session: u64,
    priority: Priority,
    pipe: &SessionPipeline,
    prev: Option<&SlotFile>,
) -> (FrameWrite, SlotFile) {
    let shadow = pipe.engine().shadow();
    let mark = pipe.page_mark();
    if let Some(prev) = prev.filter(|p| shadow.issued(p.mark) && p.patches + 1 < WHOLE_EVERY) {
        let mut dirty = Vec::new();
        let mut fresh = Vec::new();
        let mut slotted = 0;
        for (idx, tags, changed) in shadow.pages_since(Some(prev.mark)) {
            match prev.slot_of.get(&idx) {
                Some(&k) => {
                    slotted += 1;
                    if changed {
                        dirty.push((k, tags));
                    }
                }
                None => fresh.push((idx, tags)),
            }
        }
        let pads_head = prev.pages.is_empty() && !fresh.is_empty();
        if slotted == prev.pages.len() && !pads_head {
            dirty.sort_unstable_by_key(|&(k, _)| k);
            fresh.sort_unstable_by_key(|&(idx, _)| idx);
            return patch(session, priority, pipe, prev, &dirty, &fresh, mark);
        }
    }
    let mut pages: Vec<(u32, &[u8])> = shadow
        .pages_since(None)
        .map(|(idx, tags, _)| (idx, tags))
        .collect();
    pages.sort_unstable_by_key(|&(idx, _)| idx);
    let idxs: Vec<u32> = pages.iter().map(|&(idx, _)| idx).collect();
    let crcs: Vec<u32> = pages.iter().map(|&(_, tags)| crc32(tags)).collect();
    let head = head_block(session, pages.len());
    let tail = tail(priority, pipe, &idxs);
    let crc = file_crc(crc32(&head), &crcs, &tail);
    let mut bytes = Vec::with_capacity(head.len() + pages.len() * SLOT_BYTES + tail.len() + 4);
    bytes.extend_from_slice(&head);
    for (_, tags) in &pages {
        bytes.extend_from_slice(tags);
    }
    bytes.extend_from_slice(&tail);
    bytes.extend_from_slice(&crc.to_le_bytes());
    let write = FrameWrite {
        len: bytes.len() as u64,
        extents: vec![(0, bytes.len())],
        bytes,
    };
    let slot_of = idxs.iter().enumerate().map(|(k, &idx)| (idx, k)).collect();
    let file = SlotFile {
        pages: idxs,
        slot_of,
        crcs,
        mark,
        patches: 0,
    };
    (write, file)
}

/// The patch of [`encode_checkpoint`]: `dirty` slotted pages by slot,
/// `fresh` unslotted ones by page index.
fn patch(
    session: u64,
    priority: Priority,
    pipe: &SessionPipeline,
    prev: &SlotFile,
    dirty: &[(usize, &[u8])],
    fresh: &[(u32, &[u8])],
    mark: PageMark,
) -> (FrameWrite, SlotFile) {
    let mut file = prev.clone();
    file.mark = mark;
    file.patches += 1;
    let old_slots = file.pages.len();
    for &(idx, tags) in fresh {
        file.slot_of.insert(idx, file.pages.len());
        file.pages.push(idx);
        file.crcs.push(crc32(tags));
    }
    for &(k, tags) in dirty {
        file.crcs[k] = crc32(tags);
    }
    let head = head_block(session, file.pages.len());
    let tail = tail(priority, pipe, &file.pages);
    let crc = file_crc(crc32(&head), &file.crcs, &tail);
    let tail_at = tail_at(file.pages.len()) as u64;
    let mut write = FrameWrite {
        len: tail_at + tail.len() as u64 + 4,
        bytes: Vec::with_capacity((dirty.len() + fresh.len()) * SLOT_BYTES + tail.len() + 12),
        extents: Vec::new(),
    };
    if !fresh.is_empty() {
        write.push(SLOTS_AT as u64, &head[SLOTS_AT..SLOTS_AT + 8]);
    }
    let slot_at = |k: usize| (SLOT_BYTES * (1 + k)) as u64;
    for &(k, tags) in dirty {
        write.push(slot_at(k), tags);
    }
    for (k, &(_, tags)) in fresh.iter().enumerate() {
        write.push(slot_at(old_slots + k), tags);
    }
    write.push(tail_at, &tail);
    write.push(tail_at + tail.len() as u64, &crc.to_le_bytes());
    (write, file)
}

/// Decodes a snapshot frame for `session`, rejecting anything
/// malformed with a typed error. The pipeline state is *not* thawed
/// here — the caller thaws it with [`SnapFrame::thaw`] (and may still
/// quarantine the frame if that fails).
pub fn decode_frame(session: u64, bytes: &[u8]) -> Result<SnapFrame, RecoveryError> {
    let mut r = SnapReader::new(bytes);
    let Ok(version) = r.header(SNAP_FRAME_MAGIC, SNAP_FRAME_VERSION) else {
        return Err(RecoveryError::BadHeader);
    };
    if r.trim_crc().is_err() {
        return Err(RecoveryError::BadFrameCrc);
    }
    let frame = match version {
        3 => decode_slotted(&mut r, bytes.len() - 4),
        _ => decode_blob(&mut r, version),
    }
    .map_err(|_| RecoveryError::BadSnapshot)?;
    let held = match &frame.body {
        FrameBody::Blob(blob) => blob.len(),
        FrameBody::Slotted { pages, blob } => pages.len() * SLOT_BYTES + blob.len(),
    };
    if held > SNAP_MAX_BLOB {
        return Err(RecoveryError::OversizedFrame);
    }
    if frame.session != session {
        return Err(RecoveryError::SessionMismatch);
    }
    Ok(frame)
}

/// The body of a v1 or v2 frame, after its header.
fn decode_blob(r: &mut SnapReader<'_>, version: u32) -> Result<SnapFrame, SnapError> {
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
        body: FrameBody::Blob(blob),
    })
}

/// The rest of a v3 frame of `body_len` bytes before its trailer, after
/// its header. The slot count is checked against the file's length
/// before anything is allocated.
fn decode_slotted(r: &mut SnapReader<'_>, body_len: usize) -> Result<SnapFrame, SnapError> {
    let session = r.u64()?;
    let slots = r.u64()?;
    let room = body_len.saturating_sub(SLOT_BYTES) / SLOT_BYTES;
    if slots > room as u64 {
        return Err(SnapError::Corrupt("slot count"));
    }
    let slots = slots as usize;
    let padding = tail_at(slots) - slots * SLOT_BYTES - HEAD_FIELDS;
    if r.bytes(padding)?.iter().any(|&b| b != 0) {
        return Err(SnapError::Corrupt("head padding"));
    }
    let tags = (0..slots)
        .map(|_| r.bytes(SLOT_BYTES).map(Box::from))
        .collect::<Result<Vec<Box<[u8]>>, _>>()?;
    let epoch = r.u64()?;
    let applied = r.u64()?;
    let priority = Priority::from_rank(r.u8()?).ok_or(SnapError::Corrupt("priority"))?;
    let pages = tags
        .into_iter()
        .map(|tags| Ok((r.u32()?, tags)))
        .collect::<Result<Vec<_>, SnapError>>()?;
    let blob_len = r.len(1)?;
    let blob = r.bytes(blob_len)?.to_vec();
    r.expect_end()?;
    Ok(SnapFrame {
        session,
        epoch,
        applied,
        priority,
        body: FrameBody::Slotted { pages, blob },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use latch_sim::event::EventSource;

    #[test]
    fn snap_names_roundtrip() {
        assert_eq!(parse_snap_name(&snap_name(9, 0)), Some((9, 0)));
        assert_eq!(
            parse_snap_name(&snap_name(u64::MAX, 1)),
            Some((u64::MAX, 1))
        );
        assert_eq!(parse_snap_name("snap-0000000000000009.2"), None);
        assert_eq!(parse_snap_name("wal-0000000000000009"), None);
    }

    /// Applies events `[from, to)` of profile `name`'s stream `seed`.
    fn feed(pipe: &mut SessionPipeline, name: &str, seed: u64, from: u64, to: u64) {
        let mut src = latch_workloads::BenchmarkProfile::by_name(name)
            .unwrap()
            .stream(seed, to);
        let mut i = 0;
        while let Some(ev) = src.next_event() {
            if i >= from {
                pipe.apply(&ev);
            }
            i += 1;
        }
    }

    fn pipeline(name: &str, seed: u64, events: u64) -> SessionPipeline {
        let mut pipe = SessionPipeline::new(512);
        feed(&mut pipe, name, seed, 0, events);
        pipe
    }

    /// A v1 or v2 frame around an LTSE blob, as the writers of those
    /// versions encoded it: the fields, the rank byte from v2 on, the
    /// length-prefixed blob and a trailer over all of it.
    fn blob_frame(version: u32, session: u64, applied: u64, rank: u8, blob: &[u8]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.header(SNAP_FRAME_MAGIC, version);
        w.u64(session);
        w.u64(3);
        w.u64(applied);
        if version >= 2 {
            w.u8(rank);
        }
        w.u64(blob.len() as u64);
        w.bytes(blob);
        w.finish_crc()
    }

    /// The whole v3 frame of `pipe` and the layout it lands.
    fn whole(session: u64, priority: Priority, pipe: &SessionPipeline) -> (Vec<u8>, SlotFile) {
        let (write, file) = encode_checkpoint(session, priority, pipe, None);
        assert!(write.is_whole());
        (write.bytes, file)
    }

    /// `file` with each extent `k` of `write` laid over it up to
    /// `keep(k)` of its bytes, and cut to the write's length when
    /// `length` holds — a patch that landed in part.
    fn lay(
        file: &[u8],
        write: &FrameWrite,
        keep: impl Fn(usize, usize) -> usize,
        length: bool,
    ) -> Vec<u8> {
        let mut out = file.to_vec();
        let mut at_byte = 0;
        for (k, &(at, n)) in write.extents.iter().enumerate() {
            let bytes = &write.bytes[at_byte..at_byte + n];
            at_byte += n;
            let keep = keep(k, n);
            let (lo, hi) = (at as usize, at as usize + keep);
            if out.len() < hi {
                out.resize(hi, 0);
            }
            out[lo..hi].copy_from_slice(&bytes[..keep]);
        }
        if length {
            out.resize(write.len as usize, 0);
        }
        out
    }

    /// Rewrites a v3 frame's trailer after an edit.
    fn reseal(frame: &mut [u8]) {
        let n = frame.len() - 4;
        let crc = crc32(&frame[..n]);
        frame[n..].copy_from_slice(&crc.to_le_bytes());
    }

    /// `(len, crc32 of all but the trailer)` of the whole v3 frame in
    /// [`astar_snapshot_bytes_are_pinned`].
    const V3_PIN_LEN: usize = 102_321;
    const V3_PIN_CRC: u32 = 0x4BF2_45EC;

    #[test]
    fn frames_roundtrip() {
        let pipe = pipeline("astar", 3, 3_000);
        assert!(pipe.engine().shadow().resident_pages() > 1);
        for prio in [Priority::Critical, Priority::Normal, Priority::Bulk] {
            let (enc, file) = whole(4, prio, &pipe);
            assert_eq!(file.pages.len(), pipe.engine().shadow().resident_pages());
            let frame = decode_frame(4, &enc).unwrap();
            assert_eq!(frame.session, 4);
            assert_eq!(frame.epoch, 0);
            assert_eq!(frame.applied, 3_000);
            assert_eq!(frame.priority, prio);
            assert_eq!(frame.thaw().unwrap().to_snapshot(), pipe.to_snapshot());
        }
    }

    #[test]
    fn v1_frames_decode_with_default_priority() {
        // A pre-priority frame: the v2 layout minus the rank byte.
        let blob = vec![3u8; 40];
        let frame = decode_frame(8, &blob_frame(1, 8, 77, 0, &blob)).unwrap();
        assert_eq!(frame.applied, 77);
        assert_eq!(frame.priority, Priority::Normal);
        assert_eq!(frame.body, FrameBody::Blob(blob));
    }

    #[test]
    fn out_of_range_priority_rank_is_corruption() {
        assert_eq!(
            decode_frame(8, &blob_frame(2, 8, 77, 3, &[])),
            Err(RecoveryError::BadSnapshot)
        );
        let (mut enc, file) = whole(8, Priority::Bulk, &pipeline("bzip2", 1, 500));
        enc[tail_at(file.pages.len()) + 16] = 3; // no such rank
        reseal(&mut enc);
        assert_eq!(decode_frame(8, &enc), Err(RecoveryError::BadSnapshot));
    }

    #[test]
    fn newer_than_orders_by_epoch_then_applied() {
        let f = |epoch, applied| SnapFrame {
            session: 0,
            epoch,
            applied,
            priority: Priority::Normal,
            body: FrameBody::Blob(Vec::new()),
        };
        assert!(f(1, 10).newer_than(&f(0, 999)), "epoch dominates");
        assert!(f(0, 11).newer_than(&f(0, 10)));
        assert!(!f(0, 10).newer_than(&f(0, 10)));
    }

    #[test]
    fn every_bitflip_and_truncation_is_typed() {
        let v2 = blob_frame(2, 1, 64, Priority::Bulk.rank(), &[9u8; 128]);
        let (v3, file) = whole(1, Priority::Bulk, &pipeline("astar", 9, 1_500));
        assert!(file.pages.len() >= 2);
        let tail_at = tail_at(file.pages.len());
        for (enc, all) in [(&v2, true), (&v3, false)] {
            // Every byte of the v2 frame, and of the v3 head fields and
            // tail; every 61st byte of the v3 padding and slots.
            let probe = |i: usize| all || i < 32 || i >= tail_at || i.is_multiple_of(61);
            for i in (0..enc.len()).filter(|&i| probe(i)) {
                let mut bad = enc.clone();
                bad[i] ^= 0x20;
                assert!(decode_frame(1, &bad).is_err(), "flip at {i} undetected");
            }
            for cut in (0..enc.len()).filter(|&i| probe(i)) {
                assert!(
                    decode_frame(1, &enc[..cut]).is_err(),
                    "cut at {cut} undetected"
                );
            }
            // Wrong session id in an otherwise valid frame.
            assert_eq!(decode_frame(2, enc), Err(RecoveryError::SessionMismatch));
        }
    }

    /// A slot count the file cannot hold is refused before anything is
    /// allocated for it, whatever the trailer says.
    #[test]
    fn a_hostile_slot_count_is_refused_before_allocation() {
        let (enc, file) = whole(6, Priority::Normal, &pipeline("astar", 4, 1_000));
        let room = (enc.len() - 4) / SLOT_BYTES - 1;
        for slots in [room as u64 + 1, 1 << 40, u64::MAX] {
            let mut bad = enc.clone();
            bad[SLOTS_AT..SLOTS_AT + 8].copy_from_slice(&slots.to_le_bytes());
            reseal(&mut bad);
            assert_eq!(
                decode_frame(6, &bad),
                Err(RecoveryError::BadSnapshot),
                "{slots}"
            );
        }
        assert!(file.pages.len() <= room);
    }

    /// The LTSF half of the snapshot pins: `latch-systems`' test of the
    /// same name pins the LTCH, LTDF and LTSE blobs of this pipeline,
    /// and this one the frames around them, as `(len, crc32 of all but
    /// the trailer)`. The v2 frame, which the v2 writer encoded with
    /// the encoder that copied each nested blob and checksummed every
    /// layer in full, still decodes and thaws to the same pipeline. A
    /// v2 frame's trailer depends on the nested blob only through its
    /// length, so the nested pins are what see a change inside it; a v3
    /// frame holds the pages outside the blob, so its pin sees them.
    #[test]
    fn astar_snapshot_bytes_are_pinned() {
        fn pin(blob: &[u8]) -> (usize, u32) {
            (blob.len(), crc32(&blob[..blob.len() - 4]))
        }
        let pipe = pipeline("astar", 5, 20_000);
        let blob = pipe.to_snapshot();
        assert_eq!(pin(&blob), (98_196, 0x5DF3_BB6C));
        let v2 = blob_frame(2, 0x5EED, 20_000, Priority::Critical.rank(), &blob);
        assert_eq!(pin(&v2), (98_241, 0x3EAD_CAEC));
        let frame = decode_frame(0x5EED, &v2).unwrap();
        assert_eq!((frame.epoch, frame.priority), (3, Priority::Critical));
        assert_eq!(frame.thaw().unwrap().to_snapshot(), blob);
        let (v3, _) = whole(0x5EED, Priority::Critical, &pipe);
        assert_eq!(pin(&v3), (V3_PIN_LEN, V3_PIN_CRC));
        assert_eq!(
            decode_frame(0x5EED, &v3)
                .unwrap()
                .thaw()
                .unwrap()
                .to_snapshot(),
            blob
        );
    }

    /// A v3 frame, whole or patched, thaws to a pipeline whose LTSE
    /// bytes are the encoding pipeline's, for fresh and thawed
    /// pipelines, across checkpoints that add pages.
    #[test]
    fn v3_frames_thaw_to_the_pipelines_exact_ltse_bytes() {
        for (name, seed, events) in [
            ("bzip2", 51, 4_000),
            ("astar", 52, 6_000),
            ("apache", 53, 3_000),
        ] {
            let mut pipe = pipeline(name, seed, events);
            let (mut disk, mut file) = whole(9, Priority::Bulk, &pipe);
            let (mut patches, mut grown) = (0, 0);
            for step in 1..=4 {
                let from = events + 700 * (step - 1);
                feed(&mut pipe, name, seed, from, from + 700);
                let (write, next) = encode_checkpoint(9, Priority::Bulk, &pipe, Some(&file));
                // Only a file's first slot makes the pipeline's own
                // checkpoint whole.
                let first_slot = file.pages.is_empty() && !next.pages.is_empty();
                assert_eq!(write.is_whole(), first_slot, "{name} {step}");
                patches += usize::from(!first_slot);
                grown += usize::from(next.pages.len() > file.pages.len());
                disk = lay(&disk, &write, |_, n| n, true);
                let frame = decode_frame(9, &disk).unwrap();
                assert_eq!(frame.applied, pipe.applied(), "{name}");
                assert_eq!(
                    frame.thaw().unwrap().to_snapshot(),
                    pipe.to_snapshot(),
                    "{name} {step}"
                );
                file = next;
            }
            assert!(patches >= 3, "{name}: {patches} patches");
            if name == "astar" {
                assert!(grown > 0, "astar's checkpoints add slots");
            }
            // A thawed pipeline is another incarnation: its first
            // checkpoint into the same file is whole.
            let thawed = decode_frame(9, &disk).unwrap().thaw().unwrap();
            let (write, _) = encode_checkpoint(9, Priority::Bulk, &thawed, Some(&file));
            assert!(
                write.is_whole(),
                "{name}: a thawed pipeline's marks vouch for nothing"
            );
            assert_eq!(
                decode_frame(9, &write.bytes)
                    .unwrap()
                    .thaw()
                    .unwrap()
                    .to_snapshot(),
                pipe.to_snapshot()
            );
        }
    }

    /// A checkpoint overwrites the older generation in place, so a
    /// crash can leave any prefix of a whole new frame over the old
    /// one. Every such tear reads back as the old frame (nothing that
    /// differs landed) or a typed error — never as the new frame. The
    /// slotless bzip2 pair tears in the head fields and the tail; the
    /// slotted pair, whose new frame holds one more slot, also tears in
    /// the head padding and in the slots.
    #[test]
    fn a_torn_put_over_an_older_frame_is_the_old_frame_or_typed() {
        let mut bzip2 = pipeline("bzip2", 5, 300);
        let (old, _) = whole(5, Priority::Normal, &bzip2);
        feed(&mut bzip2, "bzip2", 5, 300, 600);
        let (new, _) = whole(5, Priority::Normal, &bzip2);
        let page = SLOT_BYTES as u32;
        let mut slotted = SessionPipeline::new(512);
        taint(&mut slotted, page, 16);
        taint(&mut slotted, 3 * page + 40, 16);
        let (old_slotted, _) = whole(5, Priority::Normal, &slotted);
        taint(&mut slotted, 3 * page + 100, 8);
        taint(&mut slotted, 2 * page, 8);
        let (new_slotted, file) = whole(5, Priority::Normal, &slotted);
        assert_eq!(file.pages, [1, 2, 3]);
        for (old, new) in [(old, new), (old_slotted, new_slotted)] {
            let want_old = decode_frame(5, &old).unwrap();
            for keep in 0..new.len() {
                let mut torn = old.clone();
                if torn.len() < keep {
                    torn.resize(keep, 0);
                }
                torn[..keep].copy_from_slice(&new[..keep]);
                if let Ok(frame) = decode_frame(5, &torn) {
                    assert_eq!(frame, want_old, "tear at {keep}");
                }
            }
            assert!(decode_frame(5, &new).unwrap().newer_than(&want_old));
        }
    }

    /// Taints `len` bytes at `addr` through an untrusted file read.
    fn taint(pipe: &mut SessionPipeline, addr: u32, len: u32) {
        use latch_sim::event::{Event, SourceInput};
        let mut ev = Event::empty(0x40);
        ev.source = Some(SourceInput {
            kind: latch_dift::policy::SourceKind::File,
            addr,
            len,
            trusted: false,
        });
        pipe.apply(&ev);
    }

    /// A file with no slot has no head padding, is patched at its tail
    /// while it stays slotless, and is written whole when its first page
    /// arrives, which pads the head to the first slot.
    #[test]
    fn a_slotless_file_is_patched_until_its_first_page() {
        let mut pipe = SessionPipeline::new(512);
        let (mut disk, file) = whole(3, Priority::Normal, &pipe);
        assert!(file.pages.is_empty());
        let tail_len = tail(Priority::Normal, &pipe, &[]).len();
        assert_eq!(disk.len(), HEAD_FIELDS + tail_len + 4, "no head padding");
        pipe.apply(&latch_sim::event::Event::empty(0x10));
        let (write, file) = encode_checkpoint(3, Priority::Normal, &pipe, Some(&file));
        assert_eq!(write.extents.len(), 1);
        assert_eq!(
            write.extents[0].0, HEAD_FIELDS as u64,
            "the tail, after the head fields"
        );
        disk = lay(&disk, &write, |_, n| n, true);
        assert_eq!(
            decode_frame(3, &disk)
                .unwrap()
                .thaw()
                .unwrap()
                .to_snapshot(),
            pipe.to_snapshot()
        );
        taint(&mut pipe, 0x5000, 4);
        let (write, file) = encode_checkpoint(3, Priority::Normal, &pipe, Some(&file));
        assert!(write.is_whole(), "the first slot pads the head");
        assert_eq!(file.pages.len(), 1);
        assert_eq!(
            decode_frame(3, &write.bytes)
                .unwrap()
                .thaw()
                .unwrap()
                .to_snapshot(),
            pipe.to_snapshot()
        );
    }

    /// A patch trusts that the file still holds the frame its writer
    /// landed there, so the file is written whole at every
    /// [`WHOLE_EVERY`]th checkpoint into it. Bit rot in a slot that no
    /// later checkpoint changes fails every frame patched over it, and
    /// no frame from the next whole write on.
    #[test]
    fn a_rotted_clean_slot_fails_only_the_patches_before_the_next_whole_write() {
        let page = SLOT_BYTES as u32;
        let mut pipe = SessionPipeline::new(512);
        taint(&mut pipe, page, 16);
        taint(&mut pipe, 2 * page, 16);
        let (mut disk, mut file) = whole(2, Priority::Normal, &pipe);
        disk[SLOT_BYTES + 100] ^= 1; // page 1's slot
        for k in 1..=2 * WHOLE_EVERY {
            taint(&mut pipe, 2 * page + 32 + k, 1);
            let (write, next) = encode_checkpoint(2, Priority::Normal, &pipe, Some(&file));
            assert_eq!(write.is_whole(), k % WHOLE_EVERY == 0, "checkpoint {k}");
            disk = lay(&disk, &write, |_, n| n, true);
            assert_eq!(
                decode_frame(2, &disk).is_ok(),
                k >= WHOLE_EVERY,
                "checkpoint {k}"
            );
            file = next;
        }
        assert_eq!(
            decode_frame(2, &disk)
                .unwrap()
                .thaw()
                .unwrap()
                .to_snapshot(),
            pipe.to_snapshot()
        );
    }

    /// A patch writes its extents over the older generation in place,
    /// and a crash may land each extent whole, torn to a prefix, or not
    /// at all, and the new length or not. Every combination reads back
    /// as the old frame only if no differing byte landed, as the new
    /// frame only if every differing byte landed, and as a typed error
    /// otherwise.
    #[test]
    fn every_patch_outcome_is_the_old_frame_the_new_one_or_typed() {
        let page = SLOT_BYTES as u32;
        let mut pipe = SessionPipeline::new(512);
        for p in 1..=5 {
            taint(&mut pipe, p * page + 8 * p, 16);
        }
        let (old, file) = whole(7, Priority::Normal, &pipe);
        // Two slots change, one page joins: the slot count, two slots,
        // and the new slot with the tail and the trailer.
        taint(&mut pipe, 2 * page + 100, 8);
        taint(&mut pipe, 4 * page + 200, 8);
        taint(&mut pipe, 9 * page, 8);
        let (write, next) = encode_checkpoint(7, Priority::Normal, &pipe, Some(&file));
        assert_eq!(next.pages.len(), 6);
        let extents = write.extents.len();
        assert_eq!(extents, 4, "{:?}", write.extents);
        let new = lay(&old, &write, |_, n| n, true);
        let (want_old, want_new) = (
            decode_frame(7, &old).unwrap(),
            decode_frame(7, &new).unwrap(),
        );
        assert_eq!(
            want_new.clone().thaw().unwrap().to_snapshot(),
            pipe.to_snapshot()
        );
        // Outcome of extent k: 0 lands whole, 1 tears at half, 2 is lost.
        let (mut olds, mut news, mut typed) = (0, 0, 0);
        for combo in 0..3usize.pow(extents as u32) {
            let outcome = |k: usize| combo / 3usize.pow(k as u32) % 3;
            for length in [true, false] {
                let image = lay(&old, &write, |k, n| [n, n / 2, 0][outcome(k)], length);
                match decode_frame(7, &image) {
                    Ok(frame) if frame == want_old => {
                        assert_eq!(image, old, "combo {combo}: the old frame with new bytes");
                        olds += 1;
                    }
                    Ok(frame) => {
                        assert_eq!(frame, want_new, "combo {combo}");
                        assert_eq!(image, new, "combo {combo}: the new frame from a part");
                        news += 1;
                    }
                    Err(_) => typed += 1,
                }
            }
        }
        assert!(
            news >= 1 && olds >= 1 && typed > 0,
            "new {news}, old {olds}, typed {typed}"
        );
    }
}
