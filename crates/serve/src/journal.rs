//! The per-session write-ahead event journal.
//!
//! One journal file per session, named `wal-{session:016x}`:
//!
//! ```text
//! header : magic "LTWL" (u32 LE) | version (u32 LE) | session (u64 LE)
//!        | priority rank (u8, v2+)
//! record : payload_len (u32 LE) | crc32(payload) (u32 LE) | payload
//! payload: base_seq (u64 LE) | count (u32 LE) | trace bytes
//! end    : 0 (u32 LE) | 0 (u32 LE)                          (v3)
//! ```
//!
//! `base_seq` is the session-relative index of the first event in the
//! record; `trace bytes` is a self-contained [`latch_sim::trace`]
//! stream holding exactly `count` events. Records are framed by length
//! and CRC so a torn write (a crash mid-write) is detected at the
//! first bad frame: the scan returns everything before it and
//! quarantines the tail rather than guessing.
//!
//! Version 2 added the session's sticky [`Priority`] rank to the
//! header. The header is written at first admission — exactly when the
//! sticky class is fixed — so recovery can rehydrate the class even
//! for sessions that crashed before their first durable snapshot.
//!
//! Version 3 makes the journal a log that is rewound in place
//! ([`WalLog`]). Every write ends the live log with an 8-byte end
//! frame, a frame whose length and CRC are both zero, and a cut
//! rewrites the header and an end frame at offset 0 instead of
//! truncating the file. So the file keeps its high-water length, and
//! the bytes past the end frame are stale records of earlier cycles,
//! which the scan never reads. In a v1 or v2 file a zero frame is still
//! a corrupt payload.

use crate::overload::Priority;
use crate::storage::Storage;
use latch_core::snapshot::crc32;
use latch_sim::event::{Event, EventSource};
use latch_sim::trace::{TraceReader, TraceWriter};

/// Journal file magic: "LTWL" (LaTch Write-ahead Log).
pub const WAL_MAGIC: u32 = 0x4C54_574C;
/// Journal format version.
pub const WAL_VERSION: u32 = 3;
/// Current (v2 and v3) header length in bytes; v1 headers are one
/// byte shorter (no priority rank).
pub const WAL_HEADER_LEN: usize = 17;
/// Length of the version-independent header prefix
/// (magic | version | session).
pub const WAL_HEADER_V1_LEN: usize = 16;
/// Per-record frame overhead (length + CRC), in bytes.
pub const WAL_FRAME_LEN: usize = 8;
/// The v3 end-of-log frame: a zero length and a zero CRC.
pub const END_FRAME: [u8; WAL_FRAME_LEN] = [0; WAL_FRAME_LEN];
/// Cap on a single record's payload. Enforced on **both** sides of the
/// codec: [`encode_record`] refuses to build a larger record (a typed
/// [`JournalError::RecordTooLarge`], never a silently truncated length
/// prefix), and [`scan_wal`] treats a length prefix above it as
/// corruption, bounding allocation on hostile files. The wire protocol
/// uses the same cap, so no admitted batch can journal what recovery
/// would refuse to read.
pub const WAL_MAX_PAYLOAD: usize = 1 << 22;

/// The journal file name for a session.
#[must_use]
pub fn wal_name(session: u64) -> String {
    format!("wal-{session:016x}")
}

/// Parses a session id back out of a `wal-*` file name.
#[must_use]
pub fn parse_wal_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?;
    (hex.len() == 16).then(|| u64::from_str_radix(hex, 16).ok())?
}

/// The fixed 17-byte journal header for `session` at `priority`.
#[must_use]
pub fn wal_header(session: u64, priority: Priority) -> Vec<u8> {
    let mut h = Vec::with_capacity(WAL_HEADER_LEN);
    h.extend_from_slice(&WAL_MAGIC.to_le_bytes());
    h.extend_from_slice(&WAL_VERSION.to_le_bytes());
    h.extend_from_slice(&session.to_le_bytes());
    h.push(priority.rank());
    h
}

/// A record the journal refuses to write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalError {
    /// The encoded record would exceed [`WAL_MAX_PAYLOAD`]. Writing it
    /// anyway would truncate the length prefix (`as u32`) into a
    /// corrupt-but-CRC-valid frame that recovery quarantines — so the
    /// batch is refused before a single byte lands.
    RecordTooLarge {
        /// Events in the refused batch.
        events: u64,
        /// Payload size the batch would have encoded to.
        bytes: u64,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::RecordTooLarge { events, bytes } => write!(
                f,
                "record of {events} events ({bytes} bytes) exceeds the {WAL_MAX_PAYLOAD}-byte journal cap"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// Encodes one journal record frame for events `[base_seq, base_seq + events.len())`.
///
/// # Errors
///
/// [`JournalError::RecordTooLarge`] when the payload would exceed
/// [`WAL_MAX_PAYLOAD`]. The old behaviour — casting both lengths with
/// `as u32` — silently wrapped oversized records into frames whose
/// declared length no longer matched their bytes; the caps here
/// guarantee both `events.len()` and the payload length fit `u32`
/// exactly (every event encodes to at least 8 bytes).
pub fn encode_record(base_seq: u64, events: &[Event]) -> Result<Vec<u8>, JournalError> {
    let mut tw = TraceWriter::new();
    for ev in events {
        tw.record(ev);
    }
    let trace = tw.finish();
    let payload_len = 12usize.saturating_add(trace.len());
    if payload_len > WAL_MAX_PAYLOAD {
        return Err(JournalError::RecordTooLarge {
            events: events.len() as u64,
            bytes: payload_len as u64,
        });
    }
    let mut payload = Vec::with_capacity(payload_len);
    payload.extend_from_slice(&base_seq.to_le_bytes());
    payload.extend_from_slice(&(events.len() as u32).to_le_bytes());
    payload.extend_from_slice(&trace);
    let mut frame = Vec::with_capacity(WAL_FRAME_LEN + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// Why a journal scan stopped (or a snapshot frame was rejected).
/// Every variant is a *detected* corruption — scanning never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryError {
    /// The file is shorter than its fixed header.
    ShortHeader,
    /// The header magic or version is wrong.
    BadHeader,
    /// The header's session id does not match the file name.
    SessionMismatch,
    /// A record frame extends past the end of the file (torn append).
    TornFrame,
    /// A record's length prefix exceeds the sanity cap.
    OversizedFrame,
    /// A record's payload does not match its CRC.
    BadFrameCrc,
    /// A record's payload decoded to fewer events than it declared.
    BadPayload,
    /// A snapshot frame failed to decode.
    BadSnapshot,
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.reason())
    }
}

impl std::error::Error for RecoveryError {}

impl RecoveryError {
    /// Stable label, used in `FrameQuarantined` trace events.
    #[must_use]
    pub fn reason(&self) -> &'static str {
        match self {
            RecoveryError::ShortHeader => "short_header",
            RecoveryError::BadHeader => "bad_header",
            RecoveryError::SessionMismatch => "session_mismatch",
            RecoveryError::TornFrame => "torn_frame",
            RecoveryError::OversizedFrame => "oversized_frame",
            RecoveryError::BadFrameCrc => "bad_frame_crc",
            RecoveryError::BadPayload => "bad_payload",
            RecoveryError::BadSnapshot => "bad_snapshot",
        }
    }
}

/// One decoded journal record.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// Session-relative index of the first event.
    pub base_seq: u64,
    /// The events, in order.
    pub events: Vec<Event>,
}

/// The result of scanning one journal file: every record up to the
/// first corruption, plus what stopped the scan (if anything).
#[derive(Debug)]
pub struct WalScan {
    /// Valid records, in file order.
    pub records: Vec<WalRecord>,
    /// The header's format version, or 0 for a corrupt header.
    pub version: u32,
    /// The session's sticky admission class from a clean v2 or v3
    /// header; `None` for v1 files (which predate the field) or a
    /// corrupt header.
    pub priority: Option<Priority>,
    /// The corruption that ended the scan and its byte offset, or
    /// `None` when the file was clean to its end frame or to its end.
    pub quarantined: Option<(u64, RecoveryError)>,
    /// Where the live log ends: the offset just past the last valid
    /// record, which is where the end frame, the first bad frame or the
    /// end of the file sits; 0 for a corrupt header.
    pub end: u64,
    /// Whether a v3 end frame stopped the scan at [`end`](Self::end).
    pub ended: bool,
}

impl WalScan {
    /// Whether nothing follows the live log in a file of `len` bytes:
    /// its end frame is the file's last 8 bytes, or it has none and the
    /// scan read to the end. Only then can a writer append in place at
    /// [`end`](Self::end) without leaving bytes past its own end frame
    /// that a later scan could read.
    #[must_use]
    pub fn ends_the_file(&self, len: usize) -> bool {
        let frame = if self.ended { WAL_FRAME_LEN as u64 } else { 0 };
        self.end + frame == len as u64
    }
}

/// Scans a journal file's bytes for `session`. Never panics: any
/// malformed region ends the scan with a typed error and the records
/// before it. In a v3 file an end frame ends the scan cleanly, and the
/// bytes after it are not read.
#[must_use]
pub fn scan_wal(session: u64, bytes: &[u8]) -> WalScan {
    let bad_header = |err: RecoveryError| WalScan {
        records: Vec::new(),
        version: 0,
        priority: None,
        quarantined: Some((0, err)),
        end: 0,
        ended: false,
    };
    let mut records = Vec::new();
    if bytes.len() < WAL_HEADER_V1_LEN {
        return bad_header(RecoveryError::ShortHeader);
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    let hdr_session = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    if magic != WAL_MAGIC || version == 0 || version > WAL_VERSION {
        return bad_header(RecoveryError::BadHeader);
    }
    if hdr_session != session {
        return bad_header(RecoveryError::SessionMismatch);
    }
    let (priority, hdr_len) = if version >= 2 {
        if bytes.len() < WAL_HEADER_LEN {
            return bad_header(RecoveryError::ShortHeader);
        }
        let Some(p) = Priority::from_rank(bytes[WAL_HEADER_V1_LEN]) else {
            return bad_header(RecoveryError::BadHeader);
        };
        (Some(p), WAL_HEADER_LEN)
    } else {
        (None, WAL_HEADER_V1_LEN)
    };
    let mut pos = hdr_len;
    let mut quarantined = None;
    let mut ended = false;
    while pos < bytes.len() {
        // The length prefix is untrusted until the CRC passes, so every
        // step is bounded with checked arithmetic *before* any slice is
        // taken: a torn or hostile prefix can neither drive a huge
        // allocation nor overflow the cursor math — it quarantines the
        // tail with a typed error. (The wire protocol's frame reader
        // applies the identical guard; see `latch_proto::frame_payload`.)
        let Some(body) = pos.checked_add(WAL_FRAME_LEN).filter(|&b| b <= bytes.len()) else {
            quarantined = Some((pos as u64, RecoveryError::TornFrame));
            break;
        };
        if version >= 3 && bytes[pos..body] == END_FRAME {
            ended = true;
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let want_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len > WAL_MAX_PAYLOAD {
            quarantined = Some((pos as u64, RecoveryError::OversizedFrame));
            break;
        }
        let Some(end) = body.checked_add(len).filter(|&e| e <= bytes.len()) else {
            quarantined = Some((pos as u64, RecoveryError::TornFrame));
            break;
        };
        let payload = &bytes[body..end];
        if crc32(payload) != want_crc {
            quarantined = Some((pos as u64, RecoveryError::BadFrameCrc));
            break;
        }
        match decode_payload(payload) {
            Ok(rec) => records.push(rec),
            Err(err) => {
                quarantined = Some((pos as u64, err));
                break;
            }
        }
        pos = end;
    }
    WalScan {
        records,
        version,
        priority,
        quarantined,
        end: pos.min(bytes.len()) as u64,
        ended,
    }
}

fn decode_payload(payload: &[u8]) -> Result<WalRecord, RecoveryError> {
    if payload.len() < 12 {
        return Err(RecoveryError::BadPayload);
    }
    let base_seq = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
    let count = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes")) as usize;
    // CRC already passed, but the payload is still parsed defensively:
    // the trace decoder returns typed errors on any malformed region.
    let mut reader = TraceReader::new(bytes::Bytes::from(payload[12..].to_vec()))
        .map_err(|_| RecoveryError::BadPayload)?;
    let mut events = Vec::new();
    while events.len() < count {
        match reader.next_event() {
            Some(ev) => events.push(ev),
            None => return Err(RecoveryError::BadPayload),
        }
    }
    if reader.next_event().is_some() || reader.error().is_some() {
        return Err(RecoveryError::BadPayload);
    }
    Ok(WalRecord { base_seq, events })
}

/// A session's journal as its writer sees it: where the live log ends
/// and how long the file is. Every write is positional, so once a
/// session's first cycle has grown the file, its appends overwrite
/// blocks the file already has and its cuts free none. Only
/// [`reset`](Self::reset) and [`trim`](Self::trim) shrink the file.
///
/// Each method leaves the file's scan well defined at every instant a
/// crash could freeze it, given [`Storage::patch`]'s contract that each
/// extent lands whole, in part or not at all: a torn record or end frame
/// is a bad frame, which ends the scan with the records before it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalLog {
    /// Offset just past the live log's last record, where the next
    /// record goes; 0 while the file holds no header of this writer.
    pub end: u64,
    /// The file's length as far as this writer knows.
    pub len: u64,
}

impl WalLog {
    /// Writes `record` (from [`encode_record`]) at the log's end with
    /// an end frame after it, in one [`Storage::patch`] that keeps the
    /// file's length unless the write reaches past it. The first write
    /// into a file carries the header, with the session's sticky
    /// `priority`. Returns the bytes the log grew by, or `None` when
    /// the backend refused the write (the log then holds an unknown
    /// tail until a cut).
    pub fn append<S: Storage>(
        &mut self,
        storage: &mut S,
        session: u64,
        priority: Priority,
        record: &[u8],
    ) -> Option<u64> {
        let mut bytes = if self.end == 0 {
            wal_header(session, priority)
        } else {
            Vec::with_capacity(record.len() + WAL_FRAME_LEN)
        };
        bytes.extend_from_slice(record);
        bytes.extend_from_slice(&END_FRAME);
        let grown = (bytes.len() - WAL_FRAME_LEN) as u64;
        self.len = self.len.max(self.end + bytes.len() as u64);
        if !storage.patch(&wal_name(session), self.len, &[(self.end, &bytes)]) {
            return None;
        }
        self.end += grown;
        Some(grown)
    }

    /// Rewinds the log to empty: the header and an end frame at offset
    /// 0, in one patch that keeps the file's length. The records past
    /// the new end frame stay on disk but are never read again.
    pub fn rewind<S: Storage>(
        &mut self,
        storage: &mut S,
        session: u64,
        priority: Priority,
    ) -> bool {
        let cut = empty_log(session, priority);
        self.len = self.len.max(cut.len() as u64);
        let ok = storage.patch(&wal_name(session), self.len, &[(0, &cut)]);
        if ok {
            self.end = WAL_HEADER_LEN as u64;
        }
        ok
    }

    /// Cuts the log to empty and the file to the header and an end
    /// frame, with a truncating [`Storage::put`]: for a journal whose
    /// bytes past the live log may continue it, which a rewind would
    /// leave in place.
    pub fn reset<S: Storage>(&mut self, storage: &mut S, session: u64, priority: Priority) -> bool {
        let cut = empty_log(session, priority);
        let ok = storage.put(&wal_name(session), &cut);
        if ok {
            *self = WalLog {
                end: WAL_HEADER_LEN as u64,
                len: cut.len() as u64,
            };
        }
        ok
    }

    /// Cuts the end frame and every stale byte off the file, so it
    /// holds the header and the live records alone. Returns whether it
    /// wrote anything.
    pub fn trim<S: Storage>(&mut self, storage: &mut S, session: u64) -> bool {
        if self.end == 0 || self.len <= self.end {
            return false;
        }
        let ok = storage.patch(&wal_name(session), self.end, &[]);
        if ok {
            self.len = self.end;
        }
        ok
    }
}

/// A journal's empty log: the header and an end frame.
fn empty_log(session: u64, priority: Priority) -> Vec<u8> {
    let mut bytes = wal_header(session, priority);
    bytes.extend_from_slice(&END_FRAME);
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use latch_faults::FaultPlan;
    use latch_workloads::BenchmarkProfile;

    fn events(n: u64) -> Vec<Event> {
        let mut src = BenchmarkProfile::by_name("hmmer").unwrap().stream(5, n);
        let mut out = Vec::new();
        while let Some(ev) = src.next_event() {
            out.push(ev);
        }
        out
    }

    /// Appends one record of `evs` at `base_seq` through `log`.
    fn append(s: &mut MemStorage, log: &mut WalLog, session: u64, base_seq: u64, evs: &[Event]) {
        let record = encode_record(base_seq, evs).unwrap();
        log.append(s, session, Priority::Normal, &record).unwrap();
    }

    #[test]
    fn wal_names_roundtrip() {
        assert_eq!(parse_wal_name(&wal_name(0)), Some(0));
        assert_eq!(parse_wal_name(&wal_name(u64::MAX)), Some(u64::MAX));
        assert_eq!(parse_wal_name("wal-zz"), None);
        assert_eq!(parse_wal_name("snap-0000000000000000.0"), None);
    }

    #[test]
    fn records_roundtrip_through_scan() {
        let evs = events(100);
        let mut s = MemStorage::new(FaultPlan::benign());
        let mut log = WalLog::default();
        for (base, part) in [(0, &evs[..40]), (40, &evs[40..])] {
            let record = encode_record(base, part).unwrap();
            log.append(&mut s, 7, Priority::Critical, &record).unwrap();
        }
        let bytes = s.read(&wal_name(7)).unwrap();
        assert_eq!(bytes.len() as u64, log.len);
        assert_eq!(log.end + WAL_FRAME_LEN as u64, log.len);
        let scan = scan_wal(7, &bytes);
        assert!(scan.quarantined.is_none());
        assert_eq!((scan.version, scan.priority), (3, Some(Priority::Critical)));
        assert_eq!((scan.end, scan.ended), (log.end, true));
        assert!(scan.ends_the_file(bytes.len()));
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].base_seq, 0);
        assert_eq!(scan.records[0].events, &evs[..40]);
        assert_eq!(scan.records[1].base_seq, 40);
        assert_eq!(scan.records[1].events, &evs[40..]);
    }

    #[test]
    fn v1_headers_scan_with_unknown_priority() {
        // A pre-priority journal: 16-byte header, then a normal record.
        let evs = events(10);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&9u64.to_le_bytes());
        bytes.extend_from_slice(&encode_record(0, &evs).unwrap());
        let scan = scan_wal(9, &bytes);
        assert!(scan.quarantined.is_none());
        assert_eq!((scan.version, scan.priority), (1, None));
        assert_eq!((scan.end, scan.ended), (bytes.len() as u64, false));
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].events, evs);
    }

    /// A zero frame ends a v3 log cleanly, and nothing after it is
    /// read; in a v1 or v2 file it is still a corrupt payload.
    #[test]
    fn a_zero_frame_ends_only_a_v3_log() {
        let evs = events(30);
        let record = encode_record(0, &evs).unwrap();
        let stale = encode_record(0, &evs[..5]).unwrap();
        for version in 1..=3u32 {
            let mut bytes = wal_header(4, Priority::Normal);
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            if version == 1 {
                bytes.truncate(WAL_HEADER_V1_LEN);
            }
            let end = bytes.len() + record.len();
            bytes.extend_from_slice(&record);
            bytes.extend_from_slice(&END_FRAME);
            bytes.extend_from_slice(&stale);
            let scan = scan_wal(4, &bytes);
            assert_eq!(scan.records.len(), 1, "v{version}");
            assert_eq!(scan.end, end as u64, "v{version}");
            if version == 3 {
                assert!(scan.ended && scan.quarantined.is_none());
                assert!(!scan.ends_the_file(bytes.len()), "stale bytes follow");
                assert!(scan.ends_the_file(end + WAL_FRAME_LEN));
            } else {
                assert!(!scan.ended);
                assert_eq!(
                    scan.quarantined,
                    Some((end as u64, RecoveryError::BadPayload)),
                    "v{version}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_priority_rank_is_a_bad_header() {
        let mut bytes = wal_header(4, Priority::Bulk);
        bytes[WAL_HEADER_V1_LEN] = 7; // no such rank
        let scan = scan_wal(4, &bytes);
        assert_eq!(scan.priority, None);
        assert_eq!((scan.version, scan.end), (0, 0));
        assert_eq!(scan.quarantined, Some((0, RecoveryError::BadHeader)));
    }

    #[test]
    fn torn_tail_is_quarantined_with_prefix_kept() {
        let evs = events(60);
        let mut s = MemStorage::new(FaultPlan::benign());
        let mut log = WalLog::default();
        append(&mut s, &mut log, 1, 0, &evs[..30]);
        let first_rec_end = log.end as usize;
        append(&mut s, &mut log, 1, 30, &evs[30..]);
        let full = s.read(&wal_name(1)).unwrap();
        // Tear the second record at every possible byte: the first
        // record always survives, the scan never panics.
        for cut in first_rec_end + 1..log.end as usize {
            let scan = scan_wal(1, &full[..cut]);
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
            assert_eq!(scan.records[0].events, &evs[..30]);
            assert_eq!(scan.end, first_rec_end as u64);
            let (off, err) = scan.quarantined.expect("torn tail must quarantine");
            assert_eq!(off, first_rec_end as u64);
            assert!(
                matches!(err, RecoveryError::TornFrame | RecoveryError::BadFrameCrc),
                "cut at {cut}: {err:?}"
            );
        }
        // A torn end frame is a torn frame too, after both records.
        for cut in log.end as usize..full.len() {
            let scan = scan_wal(1, &full[..cut]);
            assert_eq!(scan.records.len(), 2, "cut at {cut}");
            let torn = (cut > log.end as usize).then_some((log.end, RecoveryError::TornFrame));
            assert_eq!(scan.quarantined, torn, "cut at {cut}");
        }
    }

    #[test]
    fn bitflips_are_quarantined_never_panic() {
        let evs = events(40);
        let mut s = MemStorage::new(FaultPlan::benign());
        let mut log = WalLog::default();
        append(&mut s, &mut log, 2, 0, &evs);
        let full = s.read(&wal_name(2)).unwrap();
        for i in 0..full.len() {
            let mut bad = full.clone();
            bad[i] ^= 0x08;
            let scan = scan_wal(2, &bad);
            // A flip in the header kills the file; a flip in the frame
            // or in the end frame is caught by length sanity or CRC.
            // Either way: typed.
            if scan.quarantined.is_none() {
                panic!("flip at byte {i} went undetected");
            }
        }
    }

    #[test]
    fn oversized_batch_is_a_typed_error_and_the_file_is_untouched() {
        // Just past the cap: every empty event encodes to 8 bytes, so
        // this payload lands a few hundred bytes over WAL_MAX_PAYLOAD.
        // Pre-fix, `events.len() as u32` / `payload.len() as u32`
        // silently wrapped and the append landed a corrupt frame.
        let n = WAL_MAX_PAYLOAD / 8 + 8;
        let evs = vec![Event::empty(0); n];
        let mut s = MemStorage::new(FaultPlan::benign());
        let mut log = WalLog::default();
        append(&mut s, &mut log, 11, 0, &evs[..1]);
        let before = (s.read(&wal_name(11)).unwrap(), log);
        // The record is refused before it exists, so no write can
        // follow it.
        let err = encode_record(1, &evs).unwrap_err();
        let JournalError::RecordTooLarge { events, bytes } = err;
        assert_eq!(events, n as u64);
        assert!(bytes as usize > WAL_MAX_PAYLOAD);
        assert_eq!((s.read(&wal_name(11)).unwrap(), log), before);
        // The journal stays scannable and complete.
        let scan = scan_wal(11, &before.0);
        assert!(scan.quarantined.is_none());
        assert_eq!(scan.records.len(), 1);
    }

    #[test]
    fn hostile_length_prefix_is_bounded_before_allocation() {
        let evs = events(10);
        let mut s = MemStorage::new(FaultPlan::benign());
        append(&mut s, &mut WalLog::default(), 6, 0, &evs);
        let good = s.read(&wal_name(6)).unwrap();
        let rec_off = WAL_HEADER_LEN;
        // A prefix claiming u32::MAX bytes: quarantined from the 8-byte
        // frame header alone, before any slice or allocation.
        let mut bad = good.clone();
        bad[rec_off..rec_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let scan = scan_wal(6, &bad);
        assert!(scan.records.is_empty());
        assert_eq!(
            scan.quarantined,
            Some((rec_off as u64, RecoveryError::OversizedFrame))
        );
        // A prefix within the cap but past the file's end is a torn
        // frame — the checked cursor math cannot overflow.
        let mut bad = good.clone();
        let torn = (good.len() - rec_off) as u32; // 8 bytes past the tail
        bad[rec_off..rec_off + 4].copy_from_slice(&torn.to_le_bytes());
        let scan = scan_wal(6, &bad);
        assert!(scan.records.is_empty());
        assert_eq!(
            scan.quarantined,
            Some((rec_off as u64, RecoveryError::TornFrame))
        );
    }

    /// A rewind empties the log in place: the file keeps its length,
    /// the next record overwrites the first stale one, and the scan
    /// reads only the live log.
    #[test]
    fn a_rewind_empties_the_log_and_keeps_the_file() {
        let evs = events(60);
        let mut s = MemStorage::new(FaultPlan::benign());
        let mut log = WalLog::default();
        append(&mut s, &mut log, 3, 0, &evs[..20]);
        append(&mut s, &mut log, 3, 20, &evs[20..]);
        let high = log.len;
        assert!(log.rewind(&mut s, 3, Priority::Bulk));
        assert_eq!((log.end, log.len), (WAL_HEADER_LEN as u64, high));
        let bytes = s.read(&wal_name(3)).unwrap();
        assert_eq!(bytes.len() as u64, high, "a rewind frees nothing");
        let scan = scan_wal(3, &bytes);
        assert!(scan.records.is_empty() && scan.quarantined.is_none());
        assert_eq!(
            scan.priority,
            Some(Priority::Bulk),
            "the cut keeps the class"
        );
        assert_eq!((scan.end, scan.ended), (WAL_HEADER_LEN as u64, true));
        // Appends continue cleanly after the cut, over the stale bytes.
        append(&mut s, &mut log, 3, 60, &evs[..10]);
        assert_eq!(log.len, high);
        let bytes = s.read(&wal_name(3)).unwrap();
        let scan = scan_wal(3, &bytes);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].base_seq, 60);
        assert_eq!(scan.end, log.end);
        // A reset truncates; a trim drops the end frame and stale tail.
        assert!(log.trim(&mut s, 3));
        assert_eq!(s.read(&wal_name(3)).unwrap(), bytes[..log.end as usize]);
        assert!(!log.trim(&mut s, 3), "nothing left to trim");
        assert!(log.reset(&mut s, 3, Priority::Bulk));
        let bytes = s.read(&wal_name(3)).unwrap();
        assert_eq!(
            bytes,
            [&wal_header(3, Priority::Bulk)[..], &END_FRAME].concat()
        );
        assert_eq!(log.len, bytes.len() as u64);
    }
}
