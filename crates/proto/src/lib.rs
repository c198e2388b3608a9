//! # latch-proto
//!
//! The framed wire protocol that puts latch-serve on a socket. One
//! frame carries one message, using the same framing discipline as the
//! write-ahead journal (`crates/serve/src/journal.rs`):
//!
//! ```text
//! frame  : payload_len (u32 LE) | crc32(payload) (u32 LE) | payload
//! payload: tag (u8) | body (little-endian fields, SnapWriter layout)
//! ```
//!
//! Event batches ride inside [`Msg::Submit`] as a self-contained
//! [`latch_sim::trace`] stream — the exact codec the journal persists,
//! so a batch that decodes here is guaranteed to journal and recover.
//! The frame cap [`MAX_FRAME_PAYLOAD`] equals the journal's payload cap
//! and the `Submit` body overhead (14 bytes) exceeds the journal record
//! overhead (12 bytes), so no decodable submission can produce a
//! journal record that recovery would quarantine as oversized.
//!
//! Decoding is fully defensive, mirroring the recovery scan: the length
//! prefix is bounded **before** any allocation, cursor arithmetic is
//! checked, and every malformed byte sequence yields a typed
//! [`ProtoError`] — never a panic (see the exhaustive bit-flip and
//! truncation tests at the bottom of this file).
//!
//! The transport lives here too, once for every peer: [`Conn`] and
//! [`Conn::dial`] for both socket kinds, the non-blocking [`Listener`]
//! a server accepts on, and one stream reader ([`read_msg`], or
//! [`read_msg_or_stop`] for a server's idle polling), so a stream that
//! ends mid-frame is [`ProtoError::ShortFrame`] on every side.

use latch_core::snapshot::{crc32, SnapWriter};
use latch_sim::event::{Event, EventSource};
use latch_sim::trace::{TraceReader, TraceWriter};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Protocol magic, carried in every [`Msg::Hello`]: "LTWP" (LaTch Wire
/// Protocol). A peer that is not speaking this protocol at all is
/// rejected at the first frame with [`ProtoError::BadMagic`].
pub const PROTO_MAGIC: u32 = 0x4C54_5750;

/// Protocol version negotiated by Hello/HelloAck. Version 3 dropped
/// the degraded-session count from [`Msg::SloPush`].
pub const PROTO_VERSION: u32 = 3;

/// Cap on a single frame's payload. Matches the journal's
/// `WAL_MAX_PAYLOAD` so the wire can never admit a batch the journal
/// would refuse; a length prefix above this is treated as corruption,
/// bounding allocation on hostile connections.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 22;

/// Per-frame overhead (length + CRC), in bytes.
pub const FRAME_HEADER_LEN: usize = 8;

/// Smallest possible encoding of one trace event (pc + flags + regs).
/// Used to bound a hostile `Submit` count before decoding.
pub const MIN_EVENT_LEN: usize = 8;

/// Chunk granularity for session state: every send and every fetch
/// answer carries the snapshot blob and WAL bytes as
/// [`Msg::MigrateChunk`] frames of at most this many body bytes each.
pub const MIGRATE_CHUNK_BYTES: usize = 1 << 20;

/// Cap on the total bytes staged for one session across chunks (both
/// buffers together), by an importer and a fetcher alike, bounding
/// memory against a hostile or runaway sender.
pub const MAX_MIGRATION_BYTES: usize = 1 << 28;

/// Which staging buffer a [`Msg::MigrateChunk`] extends.
pub mod migrate_chunk {
    /// The chunk extends the LTSE snapshot blob.
    pub const LTSE_BLOB: u8 = 0;
    /// The chunk extends the raw WAL suffix.
    pub const WAL_SUFFIX: u8 = 1;
    /// Not a data chunk: discard every byte staged for the session on
    /// this connection, so a sender can abort a mismatched stage and
    /// restart it without tearing the connection down. The chunk's
    /// `bytes` must be empty.
    pub const RESTART: u8 = 2;
}

/// Where a [`Msg::MigrateSession`] commit lands the staged state.
/// Decode rejects anything else as [`ProtoError::BadTag`].
pub mod migrate_into {
    /// Import into the node's live service.
    pub const LIVE: u8 = 0;
    /// Install as the node's backup journal (replica seed or reseed).
    pub const BACKUP: u8 = 1;
}

/// One session's state reassembled from [`Msg::MigrateChunk`] frames,
/// by an importer and a fetcher alike.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Staging {
    /// The LTSE snapshot blob bytes so far.
    pub blob: Vec<u8>,
    /// The WAL bytes so far.
    pub wal: Vec<u8>,
}

impl Staging {
    /// Appends one data chunk ([`migrate_chunk::LTSE_BLOB`] extends the
    /// blob, anything else the WAL) and returns the bytes staged. The
    /// cap is checked before anything grows: `None`, with nothing
    /// appended, past [`MAX_MIGRATION_BYTES`]; nor does a buffer ever
    /// reserve past the room the cap leaves it.
    pub fn extend(&mut self, kind: u8, bytes: &[u8]) -> Option<u64> {
        let total = self.blob.len() + self.wal.len() + bytes.len();
        if total > MAX_MIGRATION_BYTES {
            return None;
        }
        let (buf, other) = if kind == migrate_chunk::LTSE_BLOB {
            (&mut self.blob, self.wal.len())
        } else {
            (&mut self.wal, self.blob.len())
        };
        let need = buf.len() + bytes.len();
        if need > buf.capacity() {
            let grown = need
                .max(2 * buf.capacity())
                .min(MAX_MIGRATION_BYTES - other);
            buf.reserve_exact(grown - buf.len());
        }
        buf.extend_from_slice(bytes);
        Some(total as u64)
    }
}

/// The [`Msg::MigrateChunk`] frames that carry one session's state:
/// the blob's slices, then the WAL's, each at most `chunk_bytes`
/// (clamped to `1..=`[`MIGRATE_CHUNK_BYTES`]). Empty buffers send
/// nothing.
pub fn migrate_chunks<'a>(
    session: u64,
    blob: &'a [u8],
    wal: &'a [u8],
    chunk_bytes: usize,
) -> impl Iterator<Item = Msg> + 'a {
    let n = chunk_bytes.clamp(1, MIGRATE_CHUNK_BYTES);
    let blob = blob.chunks(n).map(|c| (migrate_chunk::LTSE_BLOB, c));
    let wal = wal.chunks(n).map(|c| (migrate_chunk::WAL_SUFFIX, c));
    blob.chain(wal).map(move |(kind, c)| Msg::MigrateChunk {
        session,
        kind,
        bytes: c.to_vec(),
    })
}

/// Priority ranks carried on the wire (the serving layer's `Priority`
/// without the dependency): 0 = critical, 1 = normal, 2 = bulk. Decode
/// rejects anything else as [`ProtoError::BadTag`].
pub mod priority {
    /// Never shed.
    pub const CRITICAL: u8 = 0;
    /// Shed only at severe pressure.
    pub const NORMAL: u8 = 1;
    /// First to shed.
    pub const BULK: u8 = 2;
}

/// Server error codes carried in [`Msg::Error`].
pub mod error_code {
    /// The server could not decode the client's frame.
    pub const MALFORMED: u8 = 0;
    /// The message was well-formed but violated the protocol state
    /// machine (e.g. `Submit` before `Hello`).
    pub const PROTOCOL: u8 = 1;
    /// A `Report` arrived before the service drained.
    pub const NOT_DRAINED: u8 = 2;
    /// A router's drain met more node deaths than its failover retry
    /// budget covers. Only a router sends this; the drain is
    /// idempotent, so the client may retry it.
    pub const DRAIN_TIMEOUT: u8 = 3;
    /// The endpoint is a warm standby that has not taken over yet; the
    /// client should retry against the active router.
    pub const STANDBY: u8 = 4;
}

/// Why a wire decode failed. Every variant is a *detected* problem —
/// decoding never panics and never allocates beyond the bounded frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// The stream ended mid-header or mid-payload (torn frame).
    ShortFrame,
    /// A frame's length prefix exceeds [`MAX_FRAME_PAYLOAD`].
    OversizedFrame {
        /// The hostile length prefix.
        len: u64,
    },
    /// A frame's payload does not match its CRC.
    BadCrc,
    /// A Hello carried the wrong protocol magic.
    BadMagic,
    /// A Hello carried an unsupported protocol version.
    BadVersion {
        /// The version found.
        found: u32,
    },
    /// A message or enum discriminant was out of range.
    BadTag {
        /// The offending byte.
        tag: u8,
    },
    /// A payload ended in the middle of a field.
    Truncated,
    /// A payload decoded cleanly but had bytes left over.
    TrailingBytes,
    /// A `Submit`'s embedded trace was malformed or did not hold
    /// exactly the declared event count.
    BadEvents,
    /// The underlying transport failed.
    Io(std::io::ErrorKind),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::ShortFrame => f.write_str("stream ended mid-frame"),
            ProtoError::OversizedFrame { len } => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME_PAYLOAD}")
            }
            ProtoError::BadCrc => f.write_str("frame payload failed its CRC"),
            ProtoError::BadMagic => f.write_str("peer is not speaking the LATCH wire protocol"),
            ProtoError::BadVersion { found } => {
                write!(f, "unsupported protocol version {found}")
            }
            ProtoError::BadTag { tag } => write!(f, "invalid discriminant byte {tag:#04x}"),
            ProtoError::Truncated => f.write_str("payload ends mid-field"),
            ProtoError::TrailingBytes => f.write_str("payload has trailing bytes"),
            ProtoError::BadEvents => f.write_str("embedded event trace is malformed"),
            ProtoError::Io(kind) => write!(f, "transport error: {kind:?}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl ProtoError {
    /// Stable label, used in `WireReject` trace events.
    #[must_use]
    pub fn reason(&self) -> &'static str {
        match self {
            ProtoError::ShortFrame => "short_frame",
            ProtoError::OversizedFrame { .. } => "oversized_frame",
            ProtoError::BadCrc => "bad_crc",
            ProtoError::BadMagic => "bad_magic",
            ProtoError::BadVersion { .. } => "bad_version",
            ProtoError::BadTag { .. } => "bad_tag",
            ProtoError::Truncated => "truncated",
            ProtoError::TrailingBytes => "trailing_bytes",
            ProtoError::BadEvents => "bad_events",
            ProtoError::Io(_) => "io",
        }
    }
}

/// A typed admission rejection, mirroring the serving layer's
/// `Rejected` so every variant survives the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireRejected {
    /// The global event queue is at capacity; retry later.
    QueueFull {
        /// Events currently queued service-wide.
        pending: u64,
        /// The configured global cap.
        capacity: u64,
    },
    /// This session already has too many queued events; retry later.
    SessionBusy {
        /// The session over its cap.
        session: u64,
        /// Events the session has queued.
        pending: u64,
        /// The configured per-session cap.
        cap: u64,
    },
    /// The service is draining; no new work is admitted.
    ShuttingDown,
    /// Deliberately shed under overload pressure — final, do not retry.
    Shed {
        /// The session whose submission was shed.
        session: u64,
        /// The session's sticky priority rank.
        priority: u8,
        /// Pressure level at the decision.
        pressure: u8,
    },
    /// The batch exceeds the journal record cap and can never be made
    /// durable; split it and resubmit.
    TooLarge {
        /// Events in the refused batch.
        events: u64,
        /// Encoded record payload size the batch would have produced.
        bytes: u64,
    },
}

impl fmt::Display for WireRejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireRejected::QueueFull { pending, capacity } => {
                write!(f, "queue full ({pending}/{capacity} events)")
            }
            WireRejected::SessionBusy {
                session,
                pending,
                cap,
            } => write!(f, "session {session} busy ({pending}/{cap} events)"),
            WireRejected::ShuttingDown => f.write_str("service is shutting down"),
            WireRejected::Shed {
                session,
                priority,
                pressure,
            } => write!(
                f,
                "session {session} shed (priority rank {priority}, pressure {pressure})"
            ),
            WireRejected::TooLarge { events, bytes } => {
                write!(f, "batch too large ({events} events, {bytes} bytes)")
            }
        }
    }
}

/// One SLO report cut, pushed by the server to connections that asked
/// for telemetry in their Hello. Field-for-field the serving layer's
/// `SloReport`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireSlo {
    /// Completed batches when the cut was taken.
    pub at_batch: u64,
    /// Samples in the window at the cut.
    pub samples: u32,
    /// Median per-batch cost, simulated cycles.
    pub p50_cycles: u64,
    /// 99th-percentile per-batch cost, simulated cycles.
    pub p99_cycles: u64,
    /// Whether the p99 breached the SLO.
    pub breach: bool,
    /// Pressure level at the cut.
    pub pressure: u8,
    /// Events shed so far (cumulative).
    pub shed_events: u64,
}

/// One protocol message. See the module docs for the frame layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Client's opening message: magic, version, and the in-flight
    /// window (events the client may have unapplied on the server
    /// before backpressure) it wants.
    Hello {
        /// Requested protocol version.
        version: u32,
        /// Requested per-connection in-flight window, in events.
        window_events: u32,
        /// Whether the server should push [`Msg::SloPush`] frames.
        want_slo: bool,
    },
    /// Server's reply: the version spoken and the granted window.
    HelloAck {
        /// Version the server will speak.
        version: u32,
        /// Granted in-flight window (the request clamped to the
        /// server's bounds).
        window_events: u32,
    },
    /// A batch of events for one session.
    Submit {
        /// The session the events belong to.
        session: u64,
        /// Requested priority rank (sticky: first admission wins).
        priority: u8,
        /// The events, carried as a trace stream.
        events: Vec<Event>,
    },
    /// The batch was admitted.
    SubmitOk {
        /// The session submitted to.
        session: u64,
        /// Events this connection has had admitted, cumulative.
        admitted: u64,
    },
    /// The batch was refused, with the typed reason.
    SubmitRejected {
        /// The session submitted to.
        session: u64,
        /// Why admission refused it.
        rejected: WireRejected,
    },
    /// Ask for a session's final report (valid after drain).
    Report {
        /// The session asked about.
        session: u64,
    },
    /// A session's report bytes (canonical `SessionReport::encode`).
    ReportData {
        /// The session reported on.
        session: u64,
        /// Events the session had applied.
        applied: u64,
        /// The encoded report.
        report: Vec<u8>,
    },
    /// Server-pushed SLO telemetry (only on `want_slo` connections).
    SloPush(WireSlo),
    /// Stop admitting, apply everything queued, and report.
    Drain,
    /// Drain finished: every session's report, sorted by id.
    Drained {
        /// `(session, encoded report)` pairs.
        reports: Vec<(u64, Vec<u8>)>,
    },
    /// The server refused or could not parse the last frame.
    Error {
        /// One of the [`error_code`] constants.
        code: u8,
    },
    /// Cluster control: a router identifying one of its per-node
    /// connections. Sent once after `Hello`; the node answers with a
    /// [`Msg::Pong`] echoing `token`.
    NodeHello {
        /// The router's id in the cluster.
        node: u64,
        /// Opaque echo token (the router's generation counter).
        token: u64,
    },
    /// Cluster heartbeat probe; the peer answers [`Msg::Pong`] with the
    /// same token.
    Ping {
        /// Opaque echo token.
        token: u64,
    },
    /// Heartbeat answer, echoing the probe's token.
    Pong {
        /// The token from the `Ping` (or `NodeHello`) being answered.
        token: u64,
    },
    /// Commit one session's state, staged ahead on this connection as
    /// [`Msg::MigrateChunk`] frames (nothing staged commits an empty
    /// state). The blob and WAL are exactly the durability layer's
    /// on-disk artifacts (snapshot-store frame blob, `wal-*` file
    /// bytes), so the node replays them with the recovery codecs
    /// unchanged. Answered with [`Msg::MigrateAck`].
    MigrateSession {
        /// The session being moved.
        session: u64,
        /// The session's sticky admission class rank.
        priority: u8,
        /// Where the state lands: a [`migrate_into`] constant.
        into: u8,
        /// Events the staged state covers, as the sender knows it. A
        /// backup journal records it; a live import recounts from the
        /// bytes (the recovery scan's exact prefix) and ignores it.
        journaled: u64,
    },
    /// The node committed a session's staged state.
    MigrateAck {
        /// The session that moved.
        session: u64,
        /// Events the state now covers on the node: the exact prefix a
        /// live import restored, or a backup journal's count.
        applied: u64,
    },
    /// One slice of a session's state. On a send, the node appends the
    /// bytes to a per-connection staging buffer for the session and
    /// answers [`Msg::MigrateChunkAck`]; the matching
    /// [`Msg::MigrateSession`] commits it. Staged bytes beyond
    /// [`MAX_MIGRATION_BYTES`] are refused and the session's staging
    /// discarded. A fetch answer streams the same frames, unacked,
    /// ahead of its [`Msg::ReplState`].
    MigrateChunk {
        /// The session being staged.
        session: u64,
        /// Which buffer the bytes extend: [`migrate_chunk::LTSE_BLOB`]
        /// or [`migrate_chunk::WAL_SUFFIX`].
        kind: u8,
        /// The slice ([`MIGRATE_CHUNK_BYTES`] at most from a
        /// well-behaved sender; bounded by the frame cap regardless).
        bytes: Vec<u8>,
    },
    /// The importer staged a migration chunk.
    MigrateChunkAck {
        /// The session being staged.
        session: u64,
        /// Total bytes staged for the session so far (both buffers).
        received: u64,
    },
    /// Replication push: append to a backup's replica journal for one
    /// session. The journal's WAL buffer speaks byte offsets so an
    /// oversized record can be split across frames; the backup enforces
    /// contiguity and answers [`Msg::ReplAck`]. Seeds and reseeds are
    /// staged chunks committed [`migrate_into::BACKUP`].
    ReplFrame {
        /// The session being replicated.
        session: u64,
        /// The session's sticky admission class rank.
        rank: u8,
        /// Byte offset into the backup's WAL buffer these bytes belong
        /// at (must equal the buffer length).
        wal_off: u64,
        /// Events covered by the journal after this frame, up to the
        /// last complete record boundary.
        journaled: u64,
        /// A contiguous slice of new record bytes.
        wal: Vec<u8>,
    },
    /// Backup's answer to a [`Msg::ReplFrame`].
    ReplAck {
        /// The session replicated.
        session: u64,
        /// Whether the frame was applied. `false` means the backup is
        /// lagging (gap / unseeded) and wants a reseed.
        ok: bool,
        /// The backup's journaled event counter after (or despite) the
        /// frame.
        journaled: u64,
        /// The backup's WAL buffer length in bytes — the `wal_off` the
        /// next append must carry.
        wal_len: u64,
    },
    /// Fetch one session's durable state for failover or rebalancing.
    /// A node that serves the session live answers from its running
    /// service (pumping it quiescent first); a node that only backs it
    /// up answers from its replica journal. Either way the reply is the
    /// state's [`Msg::MigrateChunk`] frames, then [`Msg::ReplState`].
    /// A state above [`MAX_MIGRATION_BYTES`] is refused with
    /// [`Msg::Error`] before anything is removed.
    ReplFetch {
        /// The session asked about.
        session: u64,
        /// When set, the responder removes the session after exporting:
        /// a live owner expels it from service (the rebalance
        /// cut-point), a backup drops the replica journal.
        expel: bool,
    },
    /// Ends a [`Msg::ReplFetch`] answer. The state itself (snapshot
    /// blob plus WAL bytes, replayable by the §13 recovery scan) came
    /// ahead as chunks.
    ReplState {
        /// The session asked about.
        session: u64,
        /// Whether the responder held any state for the session (no
        /// chunks came, and the remaining fields are zero, when not).
        found: bool,
        /// The session's sticky admission class rank.
        rank: u8,
        /// Events the returned state covers.
        journaled: u64,
    },
    /// Router-epoch fencing: a router claims ownership of this node at
    /// `epoch`. The node remembers the highest epoch it has ever seen;
    /// an `Adopt` at or above that high-water mark is accepted (the
    /// node pumps itself quiescent and answers [`Msg::AdoptAck`] with a
    /// survey of every session it serves), while a lower epoch is
    /// refused with [`Msg::StaleRouter`]. Commands from a connection
    /// whose adopted epoch has since been superseded get the same
    /// typed refusal — fencing, not consensus.
    Adopt {
        /// The router generation claiming ownership.
        epoch: u64,
        /// The claiming router's id (for observability).
        router: u64,
    },
    /// The node accepted an [`Msg::Adopt`]: a survey of every session
    /// it serves, taken at a quiescent point so `applied` is exact.
    AdoptAck {
        /// The epoch the node now holds as its high-water mark.
        epoch: u64,
        /// `(session, applied, admitted, rank)` for every live session,
        /// sorted by session id. `admitted == applied` because the
        /// survey is taken quiescent.
        sessions: Vec<(u64, u64, u64, u8)>,
    },
    /// Ask a node for the cursors of every replica journal it backs up,
    /// so a takeover can find sessions whose owner died with the old
    /// router. Answered with [`Msg::ReplicaSurvey`].
    SurveyReplicas,
    /// Answer to [`Msg::SurveyReplicas`].
    ReplicaSurvey {
        /// `(session, rank, journaled, wal_len)` per backed-up session,
        /// sorted by session id.
        entries: Vec<(u64, u8, u64, u64)>,
    },
    /// Typed fencing refusal: the command came from a router whose
    /// epoch is below the node's high-water mark. Nothing was applied.
    StaleRouter {
        /// The node's current epoch high-water mark.
        epoch: u64,
    },
    /// Ask a router how many events it has admitted for a session —
    /// the client-side idempotency probe after a router switch.
    SessionCursor {
        /// The session asked about.
        session: u64,
    },
    /// Answer to [`Msg::SessionCursor`].
    CursorAck {
        /// The session asked about.
        session: u64,
        /// Events the router has admitted for the session (0 when the
        /// session is unknown).
        admitted: u64,
    },
}

const TAG_HELLO: u8 = 0;
const TAG_HELLO_ACK: u8 = 1;
const TAG_SUBMIT: u8 = 2;
const TAG_SUBMIT_OK: u8 = 3;
const TAG_SUBMIT_REJECTED: u8 = 4;
const TAG_REPORT: u8 = 5;
const TAG_REPORT_DATA: u8 = 6;
const TAG_SLO_PUSH: u8 = 7;
const TAG_DRAIN: u8 = 8;
const TAG_DRAINED: u8 = 9;
const TAG_ERROR: u8 = 10;
const TAG_NODE_HELLO: u8 = 11;
const TAG_PING: u8 = 12;
const TAG_PONG: u8 = 13;
const TAG_MIGRATE_SESSION: u8 = 14;
const TAG_MIGRATE_ACK: u8 = 15;
const TAG_MIGRATE_CHUNK: u8 = 16;
const TAG_MIGRATE_CHUNK_ACK: u8 = 17;
const TAG_REPL_FRAME: u8 = 18;
const TAG_REPL_ACK: u8 = 19;
const TAG_REPL_FETCH: u8 = 20;
const TAG_REPL_STATE: u8 = 21;
const TAG_ADOPT: u8 = 22;
const TAG_ADOPT_ACK: u8 = 23;
const TAG_SURVEY_REPLICAS: u8 = 24;
const TAG_REPLICA_SURVEY: u8 = 25;
const TAG_STALE_ROUTER: u8 = 26;
const TAG_SESSION_CURSOR: u8 = 27;
const TAG_CURSOR_ACK: u8 = 28;

const REJ_QUEUE_FULL: u8 = 0;
const REJ_SESSION_BUSY: u8 = 1;
const REJ_SHUTTING_DOWN: u8 = 2;
const REJ_SHED: u8 = 3;
const REJ_TOO_LARGE: u8 = 4;

// ---- frame codec ---------------------------------------------------------

/// Wraps a payload in a `len | crc32 | payload` frame.
///
/// # Errors
///
/// [`ProtoError::OversizedFrame`] when the payload exceeds
/// [`MAX_FRAME_PAYLOAD`] — the length is never silently truncated into
/// the u32 prefix.
pub fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, ProtoError> {
    if payload.len() > MAX_FRAME_PAYLOAD {
        return Err(ProtoError::OversizedFrame {
            len: payload.len() as u64,
        });
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// Extracts one frame's payload from the front of `bytes`, returning
/// the payload slice and the total bytes consumed.
///
/// The guard discipline matches the journal's recovery scan: the length
/// prefix is bounded against the cap **and** the remaining bytes with
/// checked arithmetic before anything is sliced, so a hostile prefix
/// can neither over-allocate nor overflow the cursor math.
///
/// # Errors
///
/// [`ProtoError::ShortFrame`], [`ProtoError::OversizedFrame`], or
/// [`ProtoError::BadCrc`].
pub fn frame_payload(bytes: &[u8]) -> Result<(&[u8], usize), ProtoError> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(ProtoError::ShortFrame);
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(ProtoError::OversizedFrame { len: len as u64 });
    }
    let want_crc = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    let end = FRAME_HEADER_LEN
        .checked_add(len)
        .ok_or(ProtoError::OversizedFrame { len: len as u64 })?;
    if bytes.len() < end {
        return Err(ProtoError::ShortFrame);
    }
    let payload = &bytes[FRAME_HEADER_LEN..end];
    if crc32(payload) != want_crc {
        return Err(ProtoError::BadCrc);
    }
    Ok((payload, end))
}

// ---- payload codec -------------------------------------------------------

/// Bounded little-endian cursor over a payload. Same guard discipline
/// as the core `SnapReader` and the journal's recovery scan: checked
/// cursor arithmetic, every read bounds-checked, lengths validated
/// against the remaining bytes before any allocation.
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn new(payload: &'a [u8]) -> Self {
        Self {
            buf: payload,
            pos: 0,
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated)?;
        if end > self.buf.len() {
            return Err(ProtoError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        self.take(n)
    }

    /// A strict bool: anything but 0 or 1 is a typed bad tag.
    fn flag(&mut self) -> Result<bool, ProtoError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(ProtoError::BadTag { tag }),
        }
    }

    /// A priority rank, validated against the known classes.
    fn rank(&mut self) -> Result<u8, ProtoError> {
        match self.u8()? {
            r @ 0..=2 => Ok(r),
            tag => Err(ProtoError::BadTag { tag }),
        }
    }

    /// A u32 length prefix bounded against the remaining payload, so a
    /// hostile count cannot drive an allocation past the frame.
    fn len_prefix(&mut self) -> Result<usize, ProtoError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(ProtoError::Truncated);
        }
        Ok(n)
    }

    fn rest(&mut self) -> &'a [u8] {
        let n = self.remaining();
        self.take(n).expect("remaining bytes are in bounds")
    }

    fn expect_end(&self) -> Result<(), ProtoError> {
        if self.remaining() != 0 {
            return Err(ProtoError::TrailingBytes);
        }
        Ok(())
    }
}

fn decode_events(count: u32, trace: &[u8]) -> Result<Vec<Event>, ProtoError> {
    // Bound the declared count by the smallest event encoding before
    // decoding: a hostile count cannot force work (or capacity) past
    // what the frame's own bytes could possibly hold.
    if u64::from(count).saturating_mul(MIN_EVENT_LEN as u64) > trace.len() as u64 {
        return Err(ProtoError::BadEvents);
    }
    let mut reader = TraceReader::new(bytes::Bytes::from(trace.to_vec()))
        .map_err(|_| ProtoError::BadEvents)?;
    let mut events = Vec::with_capacity(count as usize);
    while events.len() < count as usize {
        match reader.next_event() {
            Some(ev) => events.push(ev),
            None => return Err(ProtoError::BadEvents),
        }
    }
    if reader.next_event().is_some() || reader.error().is_some() {
        return Err(ProtoError::BadEvents);
    }
    Ok(events)
}

impl Msg {
    /// Encodes just the payload (`tag | body`), unframed.
    ///
    /// # Errors
    ///
    /// [`ProtoError::OversizedFrame`] when a `Submit`'s events (or a
    /// report set) encode past [`MAX_FRAME_PAYLOAD`].
    pub fn encode_payload(&self) -> Result<Vec<u8>, ProtoError> {
        let mut w = SnapWriter::new();
        match self {
            Msg::Hello {
                version,
                window_events,
                want_slo,
            } => {
                w.u8(TAG_HELLO);
                w.u32(PROTO_MAGIC);
                w.u32(*version);
                w.u32(*window_events);
                w.u8(u8::from(*want_slo));
            }
            Msg::HelloAck {
                version,
                window_events,
            } => {
                w.u8(TAG_HELLO_ACK);
                w.u32(*version);
                w.u32(*window_events);
            }
            Msg::Submit {
                session,
                priority,
                events,
            } => {
                w.u8(TAG_SUBMIT);
                w.u64(*session);
                w.u8(*priority);
                let mut tw = TraceWriter::new();
                for ev in events {
                    tw.record(ev);
                }
                let trace = tw.finish();
                // The count fits u32 whenever the trace fits the frame
                // (every event costs at least MIN_EVENT_LEN bytes); the
                // explicit cap check below rejects the rest, so neither
                // length is ever silently truncated.
                w.u32(events.len() as u32);
                w.bytes(&trace);
            }
            Msg::SubmitOk { session, admitted } => {
                w.u8(TAG_SUBMIT_OK);
                w.u64(*session);
                w.u64(*admitted);
            }
            Msg::SubmitRejected { session, rejected } => {
                w.u8(TAG_SUBMIT_REJECTED);
                w.u64(*session);
                match rejected {
                    WireRejected::QueueFull { pending, capacity } => {
                        w.u8(REJ_QUEUE_FULL);
                        w.u64(*pending);
                        w.u64(*capacity);
                    }
                    WireRejected::SessionBusy {
                        session,
                        pending,
                        cap,
                    } => {
                        w.u8(REJ_SESSION_BUSY);
                        w.u64(*session);
                        w.u64(*pending);
                        w.u64(*cap);
                    }
                    WireRejected::ShuttingDown => w.u8(REJ_SHUTTING_DOWN),
                    WireRejected::Shed {
                        session,
                        priority,
                        pressure,
                    } => {
                        w.u8(REJ_SHED);
                        w.u64(*session);
                        w.u8(*priority);
                        w.u8(*pressure);
                    }
                    WireRejected::TooLarge { events, bytes } => {
                        w.u8(REJ_TOO_LARGE);
                        w.u64(*events);
                        w.u64(*bytes);
                    }
                }
            }
            Msg::Report { session } => {
                w.u8(TAG_REPORT);
                w.u64(*session);
            }
            Msg::ReportData {
                session,
                applied,
                report,
            } => {
                w.u8(TAG_REPORT_DATA);
                w.u64(*session);
                w.u64(*applied);
                w.u32(report.len() as u32);
                w.bytes(report);
            }
            Msg::SloPush(slo) => {
                w.u8(TAG_SLO_PUSH);
                w.u64(slo.at_batch);
                w.u32(slo.samples);
                w.u64(slo.p50_cycles);
                w.u64(slo.p99_cycles);
                w.u8(u8::from(slo.breach));
                w.u8(slo.pressure);
                w.u64(slo.shed_events);
            }
            Msg::Drain => w.u8(TAG_DRAIN),
            Msg::Drained { reports } => {
                w.u8(TAG_DRAINED);
                w.u32(reports.len() as u32);
                for (session, report) in reports {
                    w.u64(*session);
                    w.u32(report.len() as u32);
                    w.bytes(report);
                }
            }
            Msg::Error { code } => {
                w.u8(TAG_ERROR);
                w.u8(*code);
            }
            Msg::NodeHello { node, token } => {
                w.u8(TAG_NODE_HELLO);
                w.u64(*node);
                w.u64(*token);
            }
            Msg::Ping { token } => {
                w.u8(TAG_PING);
                w.u64(*token);
            }
            Msg::Pong { token } => {
                w.u8(TAG_PONG);
                w.u64(*token);
            }
            Msg::MigrateSession {
                session,
                priority,
                into,
                journaled,
            } => {
                w.u8(TAG_MIGRATE_SESSION);
                w.u64(*session);
                w.u8(*priority);
                w.u8(*into);
                w.u64(*journaled);
            }
            Msg::MigrateAck { session, applied } => {
                w.u8(TAG_MIGRATE_ACK);
                w.u64(*session);
                w.u64(*applied);
            }
            Msg::MigrateChunk {
                session,
                kind,
                bytes,
            } => {
                w.u8(TAG_MIGRATE_CHUNK);
                w.u64(*session);
                w.u8(*kind);
                w.bytes(bytes);
            }
            Msg::MigrateChunkAck { session, received } => {
                w.u8(TAG_MIGRATE_CHUNK_ACK);
                w.u64(*session);
                w.u64(*received);
            }
            Msg::ReplFrame {
                session,
                rank,
                wal_off,
                journaled,
                wal,
            } => {
                w.u8(TAG_REPL_FRAME);
                w.u64(*session);
                w.u8(*rank);
                w.u64(*wal_off);
                w.u64(*journaled);
                w.bytes(wal);
            }
            Msg::ReplAck {
                session,
                ok,
                journaled,
                wal_len,
            } => {
                w.u8(TAG_REPL_ACK);
                w.u64(*session);
                w.u8(u8::from(*ok));
                w.u64(*journaled);
                w.u64(*wal_len);
            }
            Msg::ReplFetch { session, expel } => {
                w.u8(TAG_REPL_FETCH);
                w.u64(*session);
                w.u8(u8::from(*expel));
            }
            Msg::ReplState {
                session,
                found,
                rank,
                journaled,
            } => {
                w.u8(TAG_REPL_STATE);
                w.u64(*session);
                w.u8(u8::from(*found));
                w.u8(*rank);
                w.u64(*journaled);
            }
            Msg::Adopt { epoch, router } => {
                w.u8(TAG_ADOPT);
                w.u64(*epoch);
                w.u64(*router);
            }
            Msg::AdoptAck { epoch, sessions } => {
                w.u8(TAG_ADOPT_ACK);
                w.u64(*epoch);
                w.u32(sessions.len() as u32);
                for (session, applied, admitted, rank) in sessions {
                    w.u64(*session);
                    w.u64(*applied);
                    w.u64(*admitted);
                    w.u8(*rank);
                }
            }
            Msg::SurveyReplicas => w.u8(TAG_SURVEY_REPLICAS),
            Msg::ReplicaSurvey { entries } => {
                w.u8(TAG_REPLICA_SURVEY);
                w.u32(entries.len() as u32);
                for (session, rank, journaled, wal_len) in entries {
                    w.u64(*session);
                    w.u8(*rank);
                    w.u64(*journaled);
                    w.u64(*wal_len);
                }
            }
            Msg::StaleRouter { epoch } => {
                w.u8(TAG_STALE_ROUTER);
                w.u64(*epoch);
            }
            Msg::SessionCursor { session } => {
                w.u8(TAG_SESSION_CURSOR);
                w.u64(*session);
            }
            Msg::CursorAck { session, admitted } => {
                w.u8(TAG_CURSOR_ACK);
                w.u64(*session);
                w.u64(*admitted);
            }
        }
        let payload = w.finish();
        if payload.len() > MAX_FRAME_PAYLOAD {
            return Err(ProtoError::OversizedFrame {
                len: payload.len() as u64,
            });
        }
        Ok(payload)
    }

    /// Encodes the message as a complete frame.
    ///
    /// # Errors
    ///
    /// [`ProtoError::OversizedFrame`] when the payload exceeds the cap.
    pub fn encode(&self) -> Result<Vec<u8>, ProtoError> {
        encode_frame(&self.encode_payload()?)
    }

    /// Decodes a payload (`tag | body`) produced by
    /// [`encode_payload`](Self::encode_payload).
    ///
    /// # Errors
    ///
    /// A typed [`ProtoError`] for any malformed byte sequence.
    pub fn decode_payload(payload: &[u8]) -> Result<Msg, ProtoError> {
        let mut r = Rd::new(payload);
        let msg = match r.u8()? {
            TAG_HELLO => {
                if r.u32()? != PROTO_MAGIC {
                    return Err(ProtoError::BadMagic);
                }
                let version = r.u32()?;
                if version != PROTO_VERSION {
                    return Err(ProtoError::BadVersion { found: version });
                }
                Msg::Hello {
                    version,
                    window_events: r.u32()?,
                    want_slo: r.flag()?,
                }
            }
            TAG_HELLO_ACK => Msg::HelloAck {
                version: r.u32()?,
                window_events: r.u32()?,
            },
            TAG_SUBMIT => {
                let session = r.u64()?;
                let priority = r.rank()?;
                let count = r.u32()?;
                let events = decode_events(count, r.rest())?;
                return Ok(Msg::Submit {
                    session,
                    priority,
                    events,
                });
            }
            TAG_SUBMIT_OK => Msg::SubmitOk {
                session: r.u64()?,
                admitted: r.u64()?,
            },
            TAG_SUBMIT_REJECTED => {
                let session = r.u64()?;
                let rejected = match r.u8()? {
                    REJ_QUEUE_FULL => WireRejected::QueueFull {
                        pending: r.u64()?,
                        capacity: r.u64()?,
                    },
                    REJ_SESSION_BUSY => WireRejected::SessionBusy {
                        session: r.u64()?,
                        pending: r.u64()?,
                        cap: r.u64()?,
                    },
                    REJ_SHUTTING_DOWN => WireRejected::ShuttingDown,
                    REJ_SHED => WireRejected::Shed {
                        session: r.u64()?,
                        priority: r.rank()?,
                        pressure: r.u8()?,
                    },
                    REJ_TOO_LARGE => WireRejected::TooLarge {
                        events: r.u64()?,
                        bytes: r.u64()?,
                    },
                    tag => return Err(ProtoError::BadTag { tag }),
                };
                Msg::SubmitRejected { session, rejected }
            }
            TAG_REPORT => Msg::Report { session: r.u64()? },
            TAG_REPORT_DATA => {
                let session = r.u64()?;
                let applied = r.u64()?;
                let n = r.len_prefix()?;
                Msg::ReportData {
                    session,
                    applied,
                    report: r.bytes(n)?.to_vec(),
                }
            }
            TAG_SLO_PUSH => Msg::SloPush(WireSlo {
                at_batch: r.u64()?,
                samples: r.u32()?,
                p50_cycles: r.u64()?,
                p99_cycles: r.u64()?,
                breach: r.flag()?,
                pressure: r.u8()?,
                shed_events: r.u64()?,
            }),
            TAG_DRAIN => Msg::Drain,
            TAG_DRAINED => {
                let count = r.u32()?;
                // Each entry costs at least 12 bytes; bound the count
                // before reserving anything.
                if u64::from(count).saturating_mul(12) > payload.len() as u64 {
                    return Err(ProtoError::Truncated);
                }
                let mut reports = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let session = r.u64()?;
                    let n = r.len_prefix()?;
                    reports.push((session, r.bytes(n)?.to_vec()));
                }
                Msg::Drained { reports }
            }
            TAG_ERROR => Msg::Error { code: r.u8()? },
            TAG_NODE_HELLO => Msg::NodeHello {
                node: r.u64()?,
                token: r.u64()?,
            },
            TAG_PING => Msg::Ping { token: r.u64()? },
            TAG_PONG => Msg::Pong { token: r.u64()? },
            TAG_MIGRATE_SESSION => Msg::MigrateSession {
                session: r.u64()?,
                priority: r.rank()?,
                into: match r.u8()? {
                    into @ (migrate_into::LIVE | migrate_into::BACKUP) => into,
                    tag => return Err(ProtoError::BadTag { tag }),
                },
                journaled: r.u64()?,
            },
            TAG_MIGRATE_ACK => Msg::MigrateAck {
                session: r.u64()?,
                applied: r.u64()?,
            },
            TAG_MIGRATE_CHUNK => {
                let session = r.u64()?;
                let kind = match r.u8()? {
                    kind @ (migrate_chunk::LTSE_BLOB
                    | migrate_chunk::WAL_SUFFIX
                    | migrate_chunk::RESTART) => kind,
                    tag => return Err(ProtoError::BadTag { tag }),
                };
                // A restart carries no data; stray bytes are typed.
                if kind == migrate_chunk::RESTART && r.remaining() != 0 {
                    return Err(ProtoError::TrailingBytes);
                }
                // The chunk bytes run to the end of the payload, so
                // the cursor is exhausted by construction.
                return Ok(Msg::MigrateChunk {
                    session,
                    kind,
                    bytes: r.rest().to_vec(),
                });
            }
            TAG_MIGRATE_CHUNK_ACK => Msg::MigrateChunkAck {
                session: r.u64()?,
                received: r.u64()?,
            },
            TAG_REPL_FRAME => {
                let session = r.u64()?;
                let rank = r.rank()?;
                let wal_off = r.u64()?;
                let journaled = r.u64()?;
                // The WAL bytes run to the end of the payload, so the
                // cursor is exhausted by construction.
                return Ok(Msg::ReplFrame {
                    session,
                    rank,
                    wal_off,
                    journaled,
                    wal: r.rest().to_vec(),
                });
            }
            TAG_REPL_ACK => Msg::ReplAck {
                session: r.u64()?,
                ok: r.flag()?,
                journaled: r.u64()?,
                wal_len: r.u64()?,
            },
            TAG_REPL_FETCH => Msg::ReplFetch {
                session: r.u64()?,
                expel: r.flag()?,
            },
            TAG_REPL_STATE => Msg::ReplState {
                session: r.u64()?,
                found: r.flag()?,
                rank: r.rank()?,
                journaled: r.u64()?,
            },
            TAG_ADOPT => Msg::Adopt {
                epoch: r.u64()?,
                router: r.u64()?,
            },
            TAG_ADOPT_ACK => {
                let epoch = r.u64()?;
                let count = r.u32()?;
                // Each entry costs 25 bytes; bound the count before
                // reserving anything.
                if u64::from(count).saturating_mul(25) > payload.len() as u64 {
                    return Err(ProtoError::Truncated);
                }
                let mut sessions = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let session = r.u64()?;
                    let applied = r.u64()?;
                    let admitted = r.u64()?;
                    let rank = r.rank()?;
                    sessions.push((session, applied, admitted, rank));
                }
                Msg::AdoptAck { epoch, sessions }
            }
            TAG_SURVEY_REPLICAS => Msg::SurveyReplicas,
            TAG_REPLICA_SURVEY => {
                let count = r.u32()?;
                // Each entry costs 25 bytes; bound the count before
                // reserving anything.
                if u64::from(count).saturating_mul(25) > payload.len() as u64 {
                    return Err(ProtoError::Truncated);
                }
                let mut entries = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let session = r.u64()?;
                    let rank = r.rank()?;
                    let journaled = r.u64()?;
                    let wal_len = r.u64()?;
                    entries.push((session, rank, journaled, wal_len));
                }
                Msg::ReplicaSurvey { entries }
            }
            TAG_STALE_ROUTER => Msg::StaleRouter { epoch: r.u64()? },
            TAG_SESSION_CURSOR => Msg::SessionCursor { session: r.u64()? },
            TAG_CURSOR_ACK => Msg::CursorAck {
                session: r.u64()?,
                admitted: r.u64()?,
            },
            tag => return Err(ProtoError::BadTag { tag }),
        };
        r.expect_end()?;
        Ok(msg)
    }

    /// Decodes one framed message from the front of `bytes`, returning
    /// it and the bytes consumed.
    ///
    /// # Errors
    ///
    /// A typed [`ProtoError`] for any malformed byte sequence.
    pub fn decode(bytes: &[u8]) -> Result<(Msg, usize), ProtoError> {
        let (payload, consumed) = frame_payload(bytes)?;
        Ok((Msg::decode_payload(payload)?, consumed))
    }
}

// ---- blocking stream IO --------------------------------------------------

/// Fills `buf`. At a frame boundary (`at_boundary` and nothing read
/// yet) a clean EOF returns `Ok(false)`; anywhere else EOF is a torn
/// frame, [`ProtoError::ShortFrame`]. With a `stop` flag, read
/// timeouts are a server's idle poll: at a frame boundary a raised
/// flag returns `Ok(false)`, and mid-frame they keep waiting, so a
/// slow-but-live peer never loses its partial frame. Without one, a
/// timeout is a transport error.
fn read_full<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    at_boundary: bool,
    stop: Option<&AtomicBool>,
) -> Result<bool, ProtoError> {
    let mut n = 0;
    while n < buf.len() {
        match r.read(&mut buf[n..]) {
            Ok(0) if n == 0 && at_boundary => return Ok(false),
            Ok(0) => return Err(ProtoError::ShortFrame),
            Ok(k) => n += k,
            Err(e) => match (e.kind(), stop) {
                (io::ErrorKind::Interrupted, _) => {}
                (io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut, Some(stop)) => {
                    if n == 0 && at_boundary && stop.load(Ordering::SeqCst) {
                        return Ok(false);
                    }
                }
                (kind, _) => return Err(ProtoError::Io(kind)),
            },
        }
    }
    Ok(true)
}

/// Writes one framed message to a blocking stream.
///
/// # Errors
///
/// [`ProtoError::OversizedFrame`] if the message cannot be framed, or
/// [`ProtoError::Io`] on transport failure.
pub fn write_msg<W: Write>(w: &mut W, msg: &Msg) -> Result<(), ProtoError> {
    let frame = msg.encode()?;
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| ProtoError::Io(e.kind()))
}

/// Reads one framed message from a blocking stream. Returns `Ok(None)`
/// on a clean EOF at a frame boundary (the peer hung up between
/// messages); EOF inside a frame is [`ProtoError::ShortFrame`]. The
/// length prefix is bounded **before** the payload buffer is allocated.
///
/// # Errors
///
/// A typed [`ProtoError`] for torn, hostile, or malformed frames.
pub fn read_msg<R: Read>(r: &mut R) -> Result<Option<Msg>, ProtoError> {
    read_msg_or_stop(r, None)
}

/// [`read_msg`] for a server polling `stop`: on a stream with a read
/// timeout, it also returns `Ok(None)` when the flag is raised while
/// the stream idles at a frame boundary. A frame already begun is read
/// to its end.
///
/// # Errors
///
/// As for [`read_msg`].
pub fn read_msg_or_stop<R: Read>(
    r: &mut R,
    stop: Option<&AtomicBool>,
) -> Result<Option<Msg>, ProtoError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    if !read_full(r, &mut header, true, stop)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(ProtoError::OversizedFrame { len: len as u64 });
    }
    let want_crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    let mut payload = vec![0u8; len];
    read_full(r, &mut payload, false, stop)?;
    if crc32(&payload) != want_crc {
        return Err(ProtoError::BadCrc);
    }
    Msg::decode_payload(&payload).map(Some)
}

// ---- endpoints -----------------------------------------------------------

/// A listen/connect address: `tcp:HOST:PORT` or `unix:PATH`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP socket address (anything `ToSocketAddrs` accepts).
    Tcp(String),
    /// A Unix domain socket path.
    Unix(std::path::PathBuf),
}

impl Endpoint {
    /// Parses a `tcp:ADDR` or `unix:PATH` spec. `None` for anything
    /// else (unknown scheme, empty address).
    #[must_use]
    pub fn parse(spec: &str) -> Option<Self> {
        let (scheme, rest) = spec.split_once(':')?;
        if rest.is_empty() {
            return None;
        }
        match scheme {
            "tcp" => Some(Endpoint::Tcp(rest.to_string())),
            "unix" => Some(Endpoint::Unix(std::path::PathBuf::from(rest))),
            _ => None,
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// One connected socket, either transport: what a client dials and
/// what a [`Listener`] accepts.
#[derive(Debug)]
pub enum Conn {
    /// A TCP stream.
    Tcp(TcpStream),
    /// A Unix domain socket stream.
    Unix(UnixStream),
}

impl Conn {
    /// Connects to `endpoint`. A `timeout` bounds each TCP connect
    /// attempt, so one blackholed (non-refusing) address cannot stall
    /// the caller for the OS connect timeout; Unix-socket connects are
    /// local and not bounded.
    ///
    /// # Errors
    ///
    /// The connect failure; a TCP address that resolves to nothing is
    /// `InvalidInput`.
    pub fn dial(endpoint: &Endpoint, timeout: Option<Duration>) -> io::Result<Self> {
        match (endpoint, timeout) {
            (Endpoint::Unix(path), _) => UnixStream::connect(path).map(Conn::Unix),
            (Endpoint::Tcp(addr), None) => TcpStream::connect(addr.as_str()).map(Conn::Tcp),
            (Endpoint::Tcp(addr), Some(t)) => {
                let mut last =
                    io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing");
                for sockaddr in addr.as_str().to_socket_addrs()? {
                    match TcpStream::connect_timeout(&sockaddr, t) {
                        Ok(s) => return Ok(Conn::Tcp(s)),
                        Err(e) => last = e,
                    }
                }
                Err(last)
            }
        }
    }

    /// Sets the read timeout on which a polling reader wakes.
    pub fn set_read_timeout(&self, d: Duration) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(Some(d)),
            Conn::Unix(s) => s.set_read_timeout(Some(d)),
        }
    }

    /// A second handle on the same socket, to close it from another
    /// thread.
    pub fn try_clone(&self) -> io::Result<Self> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    /// Closes both directions: a thread blocked on the socket returns
    /// at once, and the peer reads end-of-stream.
    pub fn close(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Both),
            Conn::Unix(s) => s.shutdown(Shutdown::Both),
        };
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// A bound, non-blocking listening socket, either transport. A Unix
/// listener removes its socket file when dropped.
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix domain socket listener and the path it is bound at.
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Binds `endpoint` in non-blocking mode, so an accept loop can
    /// poll a stop flag between accepts.
    ///
    /// # Errors
    ///
    /// The bind failure: address in use, missing socket directory, and
    /// so on.
    pub fn bind(endpoint: &Endpoint) -> io::Result<Self> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
            Endpoint::Unix(path) => {
                // A stale socket file from a dead process blocks bind;
                // remove it first (connect() to a live one would
                // succeed, but the server owns its socket path).
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Unix(l, path.clone()))
            }
        }
    }

    /// The endpoint actually bound: for `tcp:HOST:0` this carries the
    /// kernel-assigned port.
    #[must_use]
    pub fn local_endpoint(&self) -> Endpoint {
        match self {
            Listener::Tcp(l) => Endpoint::Tcp(
                l.local_addr()
                    .map_or_else(|_| "0.0.0.0:0".to_string(), |a| a.to_string()),
            ),
            Listener::Unix(_, path) => Endpoint::Unix(path.clone()),
        }
    }

    /// Accepts one pending connection; the error is `WouldBlock` when
    /// none waits.
    pub fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latch_sim::event::VecSource;

    fn sample_events(n: u32) -> Vec<Event> {
        use latch_dift::prop::PropRule;
        (0..n)
            .map(|i| {
                let mut ev = Event::empty(0x1000 + i);
                if i % 3 == 0 {
                    ev.prop = Some(PropRule::Load {
                        dst: (i % 8) as usize,
                        addr: i * 64,
                        len: 4,
                    });
                }
                ev
            })
            .collect()
    }

    fn sample_msgs() -> Vec<Msg> {
        vec![
            Msg::Hello {
                version: PROTO_VERSION,
                window_events: 4096,
                want_slo: true,
            },
            Msg::HelloAck {
                version: PROTO_VERSION,
                window_events: 1024,
            },
            Msg::Submit {
                session: 7,
                priority: priority::BULK,
                events: sample_events(16),
            },
            Msg::SubmitOk {
                session: 7,
                admitted: 640,
            },
            Msg::SubmitRejected {
                session: 7,
                rejected: WireRejected::QueueFull {
                    pending: 100,
                    capacity: 100,
                },
            },
            Msg::SubmitRejected {
                session: 8,
                rejected: WireRejected::SessionBusy {
                    session: 8,
                    pending: 12,
                    cap: 12,
                },
            },
            Msg::SubmitRejected {
                session: 9,
                rejected: WireRejected::ShuttingDown,
            },
            Msg::SubmitRejected {
                session: 10,
                rejected: WireRejected::Shed {
                    session: 10,
                    priority: priority::NORMAL,
                    pressure: 2,
                },
            },
            Msg::SubmitRejected {
                session: 11,
                rejected: WireRejected::TooLarge {
                    events: 1 << 20,
                    bytes: 1 << 23,
                },
            },
            Msg::Report { session: 3 },
            Msg::ReportData {
                session: 3,
                applied: 4096,
                report: vec![9u8; 72],
            },
            Msg::SloPush(WireSlo {
                at_batch: 64,
                samples: 32,
                p50_cycles: 900,
                p99_cycles: 4200,
                breach: true,
                pressure: 1,
                shed_events: 128,
            }),
            Msg::Drain,
            Msg::Drained {
                reports: vec![(0, vec![1u8; 40]), (5, vec![2u8; 40])],
            },
            Msg::Error {
                code: error_code::MALFORMED,
            },
            Msg::NodeHello { node: 2, token: 9 },
            Msg::Ping { token: 41 },
            Msg::Pong { token: 41 },
            Msg::MigrateSession {
                session: 6,
                priority: priority::CRITICAL,
                into: migrate_into::LIVE,
                journaled: 0,
            },
            Msg::MigrateSession {
                session: 7,
                priority: priority::NORMAL,
                into: migrate_into::BACKUP,
                journaled: 96,
            },
            Msg::MigrateAck {
                session: 6,
                applied: 1234,
            },
            Msg::MigrateChunk {
                session: 6,
                kind: migrate_chunk::LTSE_BLOB,
                bytes: vec![9u8; 64],
            },
            Msg::MigrateChunk {
                session: 6,
                kind: migrate_chunk::WAL_SUFFIX,
                bytes: Vec::new(),
            },
            Msg::MigrateChunkAck {
                session: 6,
                received: 64,
            },
            Msg::ReplFrame {
                session: 12,
                rank: priority::NORMAL,
                wal_off: 120,
                journaled: 56,
                wal: vec![9u8; 36],
            },
            Msg::ReplAck {
                session: 12,
                ok: false,
                journaled: 40,
                wal_len: 120,
            },
            Msg::ReplFetch {
                session: 12,
                expel: true,
            },
            Msg::ReplState {
                session: 12,
                found: true,
                rank: priority::BULK,
                journaled: 56,
            },
            Msg::ReplState {
                session: 13,
                found: false,
                rank: 0,
                journaled: 0,
            },
            Msg::MigrateChunk {
                session: 6,
                kind: migrate_chunk::RESTART,
                bytes: Vec::new(),
            },
            Msg::Adopt {
                epoch: 3,
                router: 42,
            },
            Msg::AdoptAck {
                epoch: 3,
                sessions: vec![
                    (1, 640, 640, priority::CRITICAL),
                    (5, 120, 120, priority::BULK),
                ],
            },
            Msg::AdoptAck {
                epoch: 4,
                sessions: Vec::new(),
            },
            Msg::SurveyReplicas,
            Msg::ReplicaSurvey {
                entries: vec![(2, priority::NORMAL, 96, 1024), (9, priority::CRITICAL, 0, 0)],
            },
            Msg::ReplicaSurvey {
                entries: Vec::new(),
            },
            Msg::StaleRouter { epoch: 7 },
            Msg::SessionCursor { session: 11 },
            Msg::CursorAck {
                session: 11,
                admitted: 512,
            },
        ]
    }

    #[test]
    fn migrate_chunk_unknown_kind_is_typed() {
        // Hand-build a chunk payload with an out-of-range kind: the
        // decoder must answer BadTag, never stage the bytes.
        let mut payload = vec![TAG_MIGRATE_CHUNK];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.push(7);
        payload.extend_from_slice(&[0u8; 16]);
        let frame = encode_frame(&payload).unwrap();
        assert_eq!(Msg::decode(&frame), Err(ProtoError::BadTag { tag: 7 }));
    }

    #[test]
    fn repl_bad_flag_and_rank_are_typed() {
        // A ReplState's found must be a strict bool and a ReplFrame's
        // rank a known class: hostile values answer BadTag, never a
        // half-decoded answer or a half-applied journal frame.
        let mut payload = vec![TAG_REPL_STATE];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.push(3); // found: not a bool
        payload.push(1); // rank: valid
        payload.extend_from_slice(&[0u8; 8]);
        let frame = encode_frame(&payload).unwrap();
        assert_eq!(Msg::decode(&frame), Err(ProtoError::BadTag { tag: 3 }));

        let mut payload = vec![TAG_REPL_FRAME];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.push(9); // rank: out of range
        let frame = encode_frame(&payload).unwrap();
        assert_eq!(Msg::decode(&frame), Err(ProtoError::BadTag { tag: 9 }));
    }

    #[test]
    fn migrate_commit_unknown_into_is_typed() {
        // A commit naming neither LIVE nor BACKUP answers BadTag: the
        // staged bytes are never landed in a guessed place.
        let mut payload = Msg::MigrateSession {
            session: 4,
            priority: priority::NORMAL,
            into: migrate_into::BACKUP,
            journaled: 8,
        }
        .encode_payload()
        .unwrap();
        payload[10] = 2; // tag + session + priority, then `into`
        assert_eq!(
            Msg::decode_payload(&payload),
            Err(ProtoError::BadTag { tag: 2 })
        );
    }

    #[test]
    fn staging_checks_the_cap_before_it_grows() {
        // Zeroed pages are mapped lazily, so a near-cap blob is cheap.
        let mut staged = Staging {
            blob: vec![0u8; MAX_MIGRATION_BYTES - 8],
            wal: Vec::new(),
        };
        assert_eq!(
            staged.extend(migrate_chunk::WAL_SUFFIX, &[1u8; 8]),
            Some(MAX_MIGRATION_BYTES as u64)
        );
        assert_eq!(staged.wal.capacity(), 8, "growth passed the room left");
        assert_eq!(staged.extend(migrate_chunk::WAL_SUFFIX, &[2u8]), None);
        assert_eq!(staged.extend(migrate_chunk::LTSE_BLOB, &[2u8]), None);
        assert_eq!(staged.blob.len() + staged.wal.len(), MAX_MIGRATION_BYTES);
        assert_eq!(staged.wal.capacity(), 8, "a refused chunk grew the buffer");
    }

    #[test]
    fn migrate_chunks_restage_the_same_state() {
        let blob: Vec<u8> = (0..250u32).map(|i| i as u8).collect();
        let wal: Vec<u8> = (0..101u32).map(|i| (i * 7) as u8).collect();
        let frames: Vec<Msg> = migrate_chunks(3, &blob, &wal, 64).collect();
        assert_eq!(frames.len(), 4 + 2);
        let mut staged = Staging::default();
        for frame in &frames {
            let Msg::MigrateChunk {
                session: 3,
                kind,
                bytes,
            } = frame
            else {
                panic!("not a chunk for session 3: {frame:?}");
            };
            assert!(bytes.len() <= 64);
            staged.extend(*kind, bytes).unwrap();
        }
        assert_eq!((staged.blob, staged.wal), (blob, wal));
        assert_eq!(migrate_chunks(3, &[], &[], 64).count(), 0);
    }

    #[test]
    fn migrate_restart_with_payload_is_typed() {
        // A RESTART chunk is a control message; smuggled bytes are a
        // typed error, never staged.
        let mut payload = vec![TAG_MIGRATE_CHUNK];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.push(migrate_chunk::RESTART);
        payload.extend_from_slice(&[0u8; 4]);
        let frame = encode_frame(&payload).unwrap();
        assert_eq!(Msg::decode(&frame), Err(ProtoError::TrailingBytes));
    }

    #[test]
    fn hostile_survey_counts_are_bounded() {
        // An AdoptAck declaring 2^32-1 sessions over a tiny payload
        // must fail fast without reserving by the count.
        let mut w = SnapWriter::new();
        w.u8(TAG_ADOPT_ACK);
        w.u64(1);
        w.u32(u32::MAX);
        assert_eq!(
            Msg::decode_payload(&w.finish()),
            Err(ProtoError::Truncated)
        );
        // Same for ReplicaSurvey.
        let mut w = SnapWriter::new();
        w.u8(TAG_REPLICA_SURVEY);
        w.u32(u32::MAX);
        assert_eq!(
            Msg::decode_payload(&w.finish()),
            Err(ProtoError::Truncated)
        );
    }

    #[test]
    fn survey_bad_rank_is_typed() {
        // A survey entry's rank must be a known class: hostile values
        // answer BadTag, never a half-decoded survey.
        let mut w = SnapWriter::new();
        w.u8(TAG_ADOPT_ACK);
        w.u64(1); // epoch
        w.u32(1); // count
        w.u64(3); // session
        w.u64(64); // applied
        w.u64(64); // admitted
        w.u8(9); // rank: out of range
        assert_eq!(
            Msg::decode_payload(&w.finish()),
            Err(ProtoError::BadTag { tag: 9 })
        );

        let mut w = SnapWriter::new();
        w.u8(TAG_REPLICA_SURVEY);
        w.u32(1); // count
        w.u64(3); // session
        w.u8(7); // rank: out of range
        w.u64(64); // journaled
        w.u64(320); // wal_len
        assert_eq!(
            Msg::decode_payload(&w.finish()),
            Err(ProtoError::BadTag { tag: 7 })
        );
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in sample_msgs() {
            let frame = msg.encode().unwrap();
            let (back, consumed) = Msg::decode(&frame).unwrap();
            assert_eq!(consumed, frame.len());
            assert_eq!(back, msg, "{msg:?} did not roundtrip");
        }
    }

    #[test]
    fn submit_preserves_every_event_field() {
        use latch_sim::trace::record_all;
        // Reuse the trace codec's richest sample shapes through the
        // wire: encode via trace, decode via Submit.
        let events = {
            let trace = record_all(VecSource::new(sample_events(64)));
            let mut r = TraceReader::new(trace).unwrap();
            let mut out = Vec::new();
            while let Some(ev) = r.next_event() {
                out.push(ev);
            }
            out
        };
        let msg = Msg::Submit {
            session: 1,
            priority: priority::CRITICAL,
            events: events.clone(),
        };
        let frame = msg.encode().unwrap();
        let (back, _) = Msg::decode(&frame).unwrap();
        let Msg::Submit { events: got, .. } = back else {
            panic!("decoded to a different message");
        };
        assert_eq!(got, events);
    }

    #[test]
    fn oversized_submit_is_a_typed_error_not_truncation() {
        // Enough empty events to push the trace past the frame cap:
        // each encodes to MIN_EVENT_LEN bytes.
        let events = vec![Event::empty(0); MAX_FRAME_PAYLOAD / MIN_EVENT_LEN + 16];
        let msg = Msg::Submit {
            session: 0,
            priority: priority::NORMAL,
            events,
        };
        let err = msg.encode().unwrap_err();
        assert!(
            matches!(err, ProtoError::OversizedFrame { len } if len as usize > MAX_FRAME_PAYLOAD),
            "got {err:?}"
        );
    }

    #[test]
    fn hostile_length_prefix_is_bounded_before_allocation() {
        // A frame whose length prefix claims u32::MAX bytes: the
        // decoder must reject it from the 8-byte header alone.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        assert_eq!(
            frame_payload(&bytes),
            Err(ProtoError::OversizedFrame {
                len: u64::from(u32::MAX)
            })
        );
        // Same through the stream reader: no allocation happens.
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(
            read_msg(&mut cursor),
            Err(ProtoError::OversizedFrame {
                len: u64::from(u32::MAX)
            })
        );
        // A length within the cap but past the actual bytes is a torn
        // frame, and the cursor math cannot overflow.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1024u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        assert_eq!(frame_payload(&bytes), Err(ProtoError::ShortFrame));
    }

    #[test]
    fn every_bitflip_and_truncation_is_typed() {
        // The store.rs pattern, ported to wire frames: every single
        // bit flip and every truncation of a valid frame must decode
        // to a typed error — never a panic, never a silent success.
        let msgs = vec![
            Msg::Hello {
                version: PROTO_VERSION,
                window_events: 512,
                want_slo: false,
            },
            Msg::Submit {
                session: 3,
                priority: priority::NORMAL,
                events: sample_events(24),
            },
            Msg::Report { session: 3 },
            Msg::SloPush(WireSlo {
                at_batch: 8,
                samples: 8,
                p50_cycles: 10,
                p99_cycles: 20,
                breach: false,
                pressure: 0,
                shed_events: 0,
            }),
            Msg::Drained {
                reports: vec![(1, vec![4u8; 24])],
            },
            Msg::Ping { token: 77 },
            Msg::MigrateSession {
                session: 2,
                priority: priority::BULK,
                into: migrate_into::BACKUP,
                journaled: 20,
            },
            Msg::MigrateChunk {
                session: 2,
                kind: migrate_chunk::WAL_SUFFIX,
                bytes: vec![7u8; 20],
            },
            Msg::ReplState {
                session: 2,
                found: true,
                rank: priority::CRITICAL,
                journaled: 20,
            },
            Msg::AdoptAck {
                epoch: 2,
                sessions: vec![(3, 64, 64, priority::NORMAL)],
            },
            Msg::ReplicaSurvey {
                entries: vec![(3, priority::BULK, 64, 320)],
            },
            Msg::StaleRouter { epoch: 2 },
        ];
        for msg in msgs {
            let frame = msg.encode().unwrap();
            for i in 0..frame.len() * 8 {
                let mut bad = frame.clone();
                bad[i / 8] ^= 1 << (i % 8);
                assert!(
                    Msg::decode(&bad).is_err(),
                    "{msg:?}: bit flip at {i} went undetected"
                );
            }
            for cut in 0..frame.len() {
                assert!(
                    Msg::decode(&frame[..cut]).is_err(),
                    "{msg:?}: cut at {cut} went undetected"
                );
                // And through the stream reader: a torn stream is a
                // typed ShortFrame (or clean EOF at zero), not a hang
                // or a panic.
                let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
                match read_msg(&mut cursor) {
                    Ok(None) => assert_eq!(cut, 0, "clean EOF only at a frame boundary"),
                    Ok(Some(_)) => panic!("{msg:?}: cut at {cut} decoded"),
                    Err(e) => assert_eq!(e, ProtoError::ShortFrame, "{msg:?}: cut at {cut}"),
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Msg::Drain.encode_payload().unwrap();
        payload.push(0);
        assert_eq!(
            Msg::decode_payload(&payload),
            Err(ProtoError::TrailingBytes)
        );
    }

    #[test]
    fn hello_gatekeeps_magic_and_version() {
        let good = Msg::Hello {
            version: PROTO_VERSION,
            window_events: 1,
            want_slo: false,
        }
        .encode_payload()
        .unwrap();
        // Corrupt the magic (bytes 1..5 after the tag).
        let mut bad = good.clone();
        bad[1] ^= 0xFF;
        assert_eq!(Msg::decode_payload(&bad), Err(ProtoError::BadMagic));
        // Claim a future version.
        let mut bad = good;
        bad[5] = 99;
        assert_eq!(
            Msg::decode_payload(&bad),
            Err(ProtoError::BadVersion { found: 99 })
        );
    }

    #[test]
    fn hostile_submit_count_is_bounded() {
        // A Submit declaring 2^32-1 events over a tiny trace must fail
        // fast without reserving by the count.
        let mut w = SnapWriter::new();
        w.u8(TAG_SUBMIT);
        w.u64(1);
        w.u8(priority::NORMAL);
        w.u32(u32::MAX);
        let mut tw = TraceWriter::new();
        for ev in sample_events(2) {
            tw.record(&ev);
        }
        w.bytes(&tw.finish());
        assert_eq!(
            Msg::decode_payload(&w.finish()),
            Err(ProtoError::BadEvents)
        );
    }

    #[test]
    fn stream_reader_walks_back_to_back_frames() {
        let msgs = sample_msgs();
        let mut stream = Vec::new();
        for msg in &msgs {
            stream.extend_from_slice(&msg.encode().unwrap());
        }
        let mut cursor = std::io::Cursor::new(stream);
        for msg in &msgs {
            assert_eq!(read_msg(&mut cursor).unwrap().as_ref(), Some(msg));
        }
        assert_eq!(read_msg(&mut cursor).unwrap(), None, "clean EOF");
    }

    /// A stream that times out before every byte it yields, as a
    /// socket with a read timeout does under a slow peer.
    struct Stutter {
        bytes: std::collections::VecDeque<u8>,
        timed_out: bool,
    }

    impl Read for Stutter {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.timed_out = !self.timed_out;
            if self.timed_out {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            match (self.bytes.pop_front(), buf.first_mut()) {
                (Some(b), Some(slot)) => {
                    *slot = b;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn polling_reader_stops_only_between_frames() {
        let msg = Msg::Ping { token: 9 };
        let stutter = |bytes: &[u8]| Stutter {
            bytes: bytes.iter().copied().collect(),
            timed_out: false,
        };
        let raised = AtomicBool::new(true);
        // A raised flag ends an idle wait at a frame boundary...
        let mut idle = stutter(&msg.encode().unwrap());
        assert_eq!(read_msg_or_stop(&mut idle, Some(&raised)), Ok(None));
        // ...but never a frame already begun, however often it stalls.
        let mut begun = stutter(&msg.encode().unwrap());
        begun.timed_out = true;
        assert_eq!(
            read_msg_or_stop(&mut begun, Some(&raised)),
            Ok(Some(msg.clone()))
        );
        // A lowered flag waits the idle stall out; EOF mid-frame is
        // still a short frame.
        let lowered = AtomicBool::new(false);
        let mut torn = stutter(&msg.encode().unwrap()[..5]);
        assert_eq!(
            read_msg_or_stop(&mut torn, Some(&lowered)),
            Err(ProtoError::ShortFrame)
        );
        // Without a flag, a timeout is a transport error.
        let mut plain = stutter(&msg.encode().unwrap());
        assert_eq!(
            read_msg(&mut plain),
            Err(ProtoError::Io(io::ErrorKind::WouldBlock))
        );
    }

    #[test]
    fn endpoints_parse_and_display() {
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7070"),
            Some(Endpoint::Tcp("127.0.0.1:7070".into()))
        );
        assert_eq!(
            Endpoint::parse("unix:/tmp/latchd.sock"),
            Some(Endpoint::Unix("/tmp/latchd.sock".into()))
        );
        assert_eq!(Endpoint::parse("tcp:"), None);
        assert_eq!(Endpoint::parse("http:example"), None);
        assert_eq!(Endpoint::parse("nocolon"), None);
        assert_eq!(
            Endpoint::parse("tcp:[::1]:9").unwrap().to_string(),
            "tcp:[::1]:9"
        );
        assert_eq!(
            Endpoint::parse("unix:/a/b").unwrap().to_string(),
            "unix:/a/b"
        );
    }
}
