//! Blocking client for the `latchd` network front door.
//!
//! [`Client`] speaks the [`latch_proto`] framed protocol over TCP or a
//! Unix socket: a `Hello` handshake with version negotiation, typed
//! `Submit` replies surfacing every server-side rejection, a drain
//! that returns every session's final report bytes, and an opt-in
//! stream of [`WireSlo`] telemetry pushes collected as replies are
//! read.
//!
//! ```no_run
//! use latch_client::Client;
//! use latch_proto::Endpoint;
//!
//! let endpoint = Endpoint::parse("tcp:127.0.0.1:7410").unwrap();
//! let mut client = Client::connect(&endpoint, 256, false).unwrap();
//! client.submit(7, 1, &[]).unwrap();
//! let reports = client.drain().unwrap();
//! assert!(reports.is_empty() || reports[0].0 == 7);
//! ```

use latch_proto::{
    error_code, migrate_chunk, migrate_chunks, read_msg, write_msg, Conn, Endpoint, Msg,
    ProtoError, Staging, WireRejected, WireSlo, MIGRATE_CHUNK_BYTES, PROTO_VERSION,
};
use latch_sim::event::Event;
use std::io;
use std::time::Duration;

/// Everything that can go wrong on the client side of the wire.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write).
    Io(io::Error),
    /// The byte stream violated the framed protocol.
    Proto(ProtoError),
    /// The server refused the submission — a typed, retryable answer,
    /// not a failure of the connection.
    Rejected(WireRejected),
    /// The server answered with a protocol-level error code
    /// (see [`latch_proto::error_code`]).
    Server { code: u8 },
    /// The server spoke a protocol version this client does not.
    Version { server: u32 },
    /// A node refused a router command because a newer router (at
    /// `epoch`) has adopted it. Nothing was applied; the connection
    /// stays usable, but the issuing router must stop mutating.
    StaleRouter { epoch: u64 },
    /// The server closed the connection or answered out of protocol.
    UnexpectedReply(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Rejected(r) => write!(f, "submission rejected: {r}"),
            ClientError::Server { code } => write!(f, "server error code {code}"),
            ClientError::Version { server } => {
                write!(f, "server speaks protocol v{server}, client v{PROTO_VERSION}")
            }
            ClientError::StaleRouter { epoch } => {
                write!(f, "fenced: node already adopted by router epoch {epoch}")
            }
            ClientError::UnexpectedReply(what) => write!(f, "unexpected reply: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// One session's durable state as it moves between nodes: what
/// [`Client::repl_fetch`] returns and what [`Client::migrate_session`]
/// sends. The blob and WAL are the durability layer's snapshot blob and
/// journal bytes, replayable by the recovery scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionState {
    /// The session's sticky admission class rank.
    pub rank: u8,
    /// Events the state covers (a live import recounts them from the
    /// bytes).
    pub journaled: u64,
    /// LTSE snapshot blob (empty when the WAL holds everything).
    pub blob: Vec<u8>,
    /// WAL bytes covering the suffix past the blob.
    pub wal: Vec<u8>,
}

/// A blocking connection to a `latchd` front door.
pub struct Client {
    conn: Conn,
    /// In-flight window granted by the server's `HelloAck`.
    window_events: u32,
    /// Cumulative events the server has acknowledged admitting.
    admitted: u64,
    /// SLO pushes collected while reading replies (only populated when
    /// the connection opted in with `want_slo`).
    slo: Vec<WireSlo>,
}

impl Client {
    /// Connects, handshakes, and negotiates the in-flight window.
    ///
    /// `window_events` is the client's *requested* window; the server
    /// clamps it to its own cap and the granted value is what
    /// [`window_events`](Self::window_events) reports. With `want_slo`
    /// the server streams [`WireSlo`] cuts, collected via
    /// [`take_slo_reports`](Self::take_slo_reports).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on connect failure, [`ClientError::Version`]
    /// on a version mismatch, [`ClientError::Proto`] /
    /// [`ClientError::UnexpectedReply`] on a malformed handshake.
    pub fn connect(
        endpoint: &Endpoint,
        window_events: u32,
        want_slo: bool,
    ) -> Result<Self, ClientError> {
        Self::handshake(Conn::dial(endpoint, None)?, window_events, want_slo)
    }

    /// [`connect`](Self::connect) with a bound on how long the TCP
    /// connect may block — what a router uses so one blackholed
    /// (non-refusing) node address cannot stall it for the OS connect
    /// timeout. Unix-socket connects are local and not bounded.
    ///
    /// # Errors
    ///
    /// As for [`connect`](Self::connect); a timed-out connect is
    /// [`ClientError::Io`].
    pub fn connect_with_timeout(
        endpoint: &Endpoint,
        window_events: u32,
        want_slo: bool,
        connect_timeout: Duration,
    ) -> Result<Self, ClientError> {
        let conn = Conn::dial(endpoint, Some(connect_timeout))?;
        Self::handshake(conn, window_events, want_slo)
    }

    fn handshake(conn: Conn, window_events: u32, want_slo: bool) -> Result<Self, ClientError> {
        let mut client = Self {
            conn,
            window_events,
            admitted: 0,
            slo: Vec::new(),
        };
        let hello = Msg::Hello {
            version: PROTO_VERSION,
            window_events,
            want_slo,
        };
        match client.call(&hello)? {
            Msg::HelloAck {
                version,
                window_events,
            } => {
                if version != PROTO_VERSION {
                    return Err(ClientError::Version { server: version });
                }
                client.window_events = window_events;
            }
            _ => return Err(ClientError::UnexpectedReply("handshake")),
        }
        Ok(client)
    }

    /// The in-flight window granted by the server, in events.
    #[must_use]
    pub fn window_events(&self) -> u32 {
        self.window_events
    }

    /// Cumulative events the server has admitted on this connection.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Submits one batch for `session` at priority `rank`
    /// (0 = critical, 1 = normal, 2 = bulk).
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] carries the server's typed refusal
    /// (shed, queue full, batch too large, shutting down) — the
    /// connection stays usable. Transport and protocol failures are
    /// terminal for the connection.
    pub fn submit(
        &mut self,
        session: u64,
        rank: u8,
        events: &[Event],
    ) -> Result<(), ClientError> {
        match self.call(&Msg::Submit {
            session,
            priority: rank,
            events: events.to_vec(),
        })? {
            Msg::SubmitOk { admitted, .. } => {
                self.admitted = admitted;
                Ok(())
            }
            Msg::SubmitRejected { rejected, .. } => Err(ClientError::Rejected(rejected)),
            _ => Err(ClientError::UnexpectedReply("submit")),
        }
    }

    /// Drains the server and returns every session's final report
    /// bytes, ordered by session id. Idempotent: a second drain
    /// returns the same reports.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`error_code::DRAIN_TIMEOUT`] if
    /// the server is a router that ran out of drain failover retries;
    /// transport and protocol failures otherwise.
    pub fn drain(&mut self) -> Result<Vec<(u64, Vec<u8>)>, ClientError> {
        match self.call(&Msg::Drain)? {
            Msg::Drained { reports } => Ok(reports),
            _ => Err(ClientError::UnexpectedReply("drain")),
        }
    }

    /// Fetches one drained session's `(applied, report bytes)`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`error_code::NOT_DRAINED`] before
    /// a drain, or [`error_code::PROTOCOL`] for an unknown session.
    pub fn report(&mut self, session: u64) -> Result<(u64, Vec<u8>), ClientError> {
        match self.call(&Msg::Report { session })? {
            Msg::ReportData {
                applied, report, ..
            } => Ok((applied, report)),
            _ => Err(ClientError::UnexpectedReply("report")),
        }
    }

    /// Takes the SLO pushes collected so far (empty unless the
    /// connection opted in with `want_slo`).
    pub fn take_slo_reports(&mut self) -> Vec<WireSlo> {
        std::mem::take(&mut self.slo)
    }

    /// Cluster heartbeat: sends a `Ping` and returns the echoed token.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures, or
    /// [`ClientError::UnexpectedReply`] when the peer answers out of
    /// protocol — either way the router counts a heartbeat miss.
    pub fn ping(&mut self, token: u64) -> Result<u64, ClientError> {
        match self.call(&Msg::Ping { token })? {
            Msg::Pong { token } => Ok(token),
            _ => Err(ClientError::UnexpectedReply("ping")),
        }
    }

    /// Cluster control: identifies this connection as router `node`'s
    /// and returns the echoed token.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures, as for [`ping`](Self::ping).
    pub fn node_hello(&mut self, node: u64, token: u64) -> Result<u64, ClientError> {
        match self.call(&Msg::NodeHello { node, token })? {
            Msg::Pong { token } => Ok(token),
            _ => Err(ClientError::UnexpectedReply("node_hello")),
        }
    }

    /// Sends one session's state to this node, the one way state
    /// moves: stages its blob and WAL as `MigrateChunk` frames of
    /// [`MIGRATE_CHUNK_BYTES`], then commits them `into` the live
    /// service ([`latch_proto::migrate_into::LIVE`]) or the backup store
    /// ([`latch_proto::migrate_into::BACKUP`]). Returns the events the
    /// state covers on the node (`MigrateAck.applied`): the exact
    /// prefix a live import restored, or the backup journal's count.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the node refused the staging (past
    /// its migration byte cap) or the import (already resident, bad
    /// blob, or draining); transport and protocol failures otherwise.
    pub fn migrate_session(
        &mut self,
        session: u64,
        into: u8,
        state: &SessionState,
    ) -> Result<u64, ClientError> {
        self.migrate_stage(session, &state.blob, &state.wal, MIGRATE_CHUNK_BYTES)?;
        self.migrate_commit(session, state.rank, into, state.journaled)
    }

    /// Stages blob and WAL slices on the node *without committing* —
    /// the live-rebalance pre-copy. The staged buffers accumulate
    /// per-connection until a [`migrate_commit`](Self::migrate_commit)
    /// lands them, so a later call can append just the WAL suffix that
    /// arrived while the old owner kept serving.
    ///
    /// # Errors
    ///
    /// As for [`migrate_session`](Self::migrate_session); the node
    /// refuses staging past its migration byte cap.
    pub fn migrate_stage(
        &mut self,
        session: u64,
        blob: &[u8],
        wal: &[u8],
        chunk_bytes: usize,
    ) -> Result<(), ClientError> {
        for chunk in migrate_chunks(session, blob, wal, chunk_bytes) {
            match self.call(&chunk)? {
                Msg::MigrateChunkAck { .. } => {}
                _ => return Err(ClientError::UnexpectedReply("migrate_chunk")),
            }
        }
        Ok(())
    }

    /// Commits whatever [`migrate_stage`](Self::migrate_stage) staged
    /// for `session` `into` the live service or the backup store (a
    /// [`latch_proto::migrate_into`] constant), returning the events the
    /// state covers on the node.
    ///
    /// # Errors
    ///
    /// As for [`migrate_session`](Self::migrate_session).
    pub fn migrate_commit(
        &mut self,
        session: u64,
        rank: u8,
        into: u8,
        journaled: u64,
    ) -> Result<u64, ClientError> {
        match self.call(&Msg::MigrateSession {
            session,
            priority: rank,
            into,
            journaled,
        })? {
            Msg::MigrateAck { applied, .. } => Ok(applied),
            _ => Err(ClientError::UnexpectedReply("migrate_session")),
        }
    }

    /// Appends WAL bytes at `wal_off` to a backup's replica journal and
    /// returns the backup's `(ok, journaled, wal_len)` cursors from its
    /// `ReplAck`. `ok = false` means the backup is lagging (gap or never
    /// seeded) and wants a reseed.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures; a lagging backup is *not* an
    /// error (it answers `ok = false`).
    pub fn repl_frame(
        &mut self,
        session: u64,
        rank: u8,
        wal_off: u64,
        journaled: u64,
        wal: &[u8],
    ) -> Result<(bool, u64, u64), ClientError> {
        match self.call(&Msg::ReplFrame {
            session,
            rank,
            wal_off,
            journaled,
            wal: wal.to_vec(),
        })? {
            Msg::ReplAck {
                ok,
                journaled,
                wal_len,
                ..
            } => Ok((ok, journaled, wal_len)),
            _ => Err(ClientError::UnexpectedReply("repl_frame")),
        }
    }

    /// Fetches one session's durable state — from the node's live
    /// service if it owns the session, else from its replica journal —
    /// reassembled from the `MigrateChunk` frames the node streams
    /// ahead of its closing `ReplState`. Returns `None` when the node
    /// holds nothing for the session. With `expel` the responder
    /// removes the session after exporting (the rebalance cut-point on
    /// a live owner; journal drop on a backup).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the node refuses a state above
    /// [`latch_proto::MAX_MIGRATION_BYTES`] (it removes nothing then).
    /// [`ClientError::UnexpectedReply`] when the answer breaks protocol:
    /// chunks past that cap (refused before they are kept), a chunk for
    /// another session, a `RESTART`, or chunks for a state not found.
    /// Transport and protocol failures otherwise, EOF mid-answer
    /// included.
    pub fn repl_fetch(
        &mut self,
        session: u64,
        expel: bool,
    ) -> Result<Option<SessionState>, ClientError> {
        write_msg(&mut self.conn, &Msg::ReplFetch { session, expel })?;
        let mut staged = Staging::default();
        loop {
            match self.next_reply()? {
                Msg::MigrateChunk {
                    session: s,
                    kind,
                    bytes,
                } if s == session && kind != migrate_chunk::RESTART => {
                    if staged.extend(kind, &bytes).is_none() {
                        return Err(ClientError::UnexpectedReply("fetched state past the cap"));
                    }
                }
                Msg::ReplState {
                    session: s,
                    found,
                    rank,
                    journaled,
                } if s == session => {
                    let Staging { blob, wal } = staged;
                    return match found {
                        true => Ok(Some(SessionState {
                            rank,
                            journaled,
                            blob,
                            wal,
                        })),
                        false if blob.is_empty() && wal.is_empty() => Ok(None),
                        false => Err(ClientError::UnexpectedReply("chunks for no state")),
                    };
                }
                _ => return Err(ClientError::UnexpectedReply("repl_fetch")),
            }
        }
    }

    /// Sends one request and reads its reply.
    fn call(&mut self, msg: &Msg) -> Result<Msg, ClientError> {
        write_msg(&mut self.conn, msg)?;
        self.next_reply()
    }

    /// Reads the next non-push reply, stashing SLO pushes on the way.
    /// A server `Error` frame and a `StaleRouter` fencing refusal are
    /// surfaced as their typed errors no matter which command drew
    /// them.
    fn next_reply(&mut self) -> Result<Msg, ClientError> {
        loop {
            match read_msg(&mut self.conn)? {
                Some(Msg::SloPush(report)) => self.slo.push(report),
                Some(Msg::Error { code }) => return Err(ClientError::Server { code }),
                Some(Msg::StaleRouter { epoch }) => {
                    return Err(ClientError::StaleRouter { epoch })
                }
                Some(msg) => return Ok(msg),
                None => return Err(ClientError::UnexpectedReply("connection closed")),
            }
        }
    }

    /// Router control: claims this node for router `router` at `epoch`
    /// and returns the node's quiescent session survey — one
    /// `(session, applied, admitted, rank)` row per resident session,
    /// with `applied == admitted` because the node pumps itself idle
    /// before answering.
    ///
    /// # Errors
    ///
    /// [`ClientError::StaleRouter`] when the node has already been
    /// adopted at a higher epoch (this router lost the race); transport
    /// and protocol failures otherwise.
    #[allow(clippy::type_complexity)]
    pub fn adopt(
        &mut self,
        epoch: u64,
        router: u64,
    ) -> Result<Vec<(u64, u64, u64, u8)>, ClientError> {
        match self.call(&Msg::Adopt { epoch, router })? {
            Msg::AdoptAck { sessions, .. } => Ok(sessions),
            _ => Err(ClientError::UnexpectedReply("adopt")),
        }
    }

    /// Router control: asks the node for its replica-journal inventory
    /// — one `(session, rank, journaled, wal_len)` row per journal in
    /// its backup store. Read-only and unfenced: a takeover uses it to
    /// find sessions whose owner died with the old router.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures.
    #[allow(clippy::type_complexity)]
    pub fn survey_replicas(&mut self) -> Result<Vec<(u64, u8, u64, u64)>, ClientError> {
        match self.call(&Msg::SurveyReplicas)? {
            Msg::ReplicaSurvey { entries } => Ok(entries),
            _ => Err(ClientError::UnexpectedReply("survey_replicas")),
        }
    }

    /// Asks a *router* how many events it has acked for `session` —
    /// the cursor a reconnecting client compares against its own count
    /// to decide whether an orphaned in-flight batch landed before the
    /// old connection (or the old router) died.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures, or [`ClientError::Server`]
    /// (a standby that has not yet taken over refuses with
    /// [`error_code::STANDBY`]).
    pub fn session_cursor(&mut self, session: u64) -> Result<u64, ClientError> {
        match self.call(&Msg::SessionCursor { session })? {
            Msg::CursorAck { admitted, .. } => Ok(admitted),
            _ => Err(ClientError::UnexpectedReply("session_cursor")),
        }
    }

    /// Discards every byte staged for `session` on this connection
    /// with a `RESTART` control chunk, so a fresh
    /// [`migrate_stage`](Self::migrate_stage) can restage from scratch
    /// without tearing the connection down.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures.
    pub fn migrate_abort(&mut self, session: u64) -> Result<(), ClientError> {
        match self.call(&Msg::MigrateChunk {
            session,
            kind: migrate_chunk::RESTART,
            bytes: Vec::new(),
        })? {
            Msg::MigrateChunkAck { .. } => Ok(()),
            _ => Err(ClientError::UnexpectedReply("migrate_abort")),
        }
    }
}

/// True when a [`ClientError`] is the typed not-drained answer (useful
/// for polling [`Client::report`] before a drain lands).
#[must_use]
pub fn is_not_drained(err: &ClientError) -> bool {
    matches!(err, ClientError::Server { code } if *code == error_code::NOT_DRAINED)
}

/// Rounds an [`HaClient`] walks its endpoint list before giving up.
const HA_RETRY_ROUNDS: u32 = 600;
/// Pause between unsuccessful endpoint-list walks.
const HA_RETRY_PAUSE: Duration = Duration::from_millis(10);

/// A router-failover-aware client: holds an *ordered* list of router
/// endpoints (primary first, standbys after) and retries idempotently
/// against the next endpoint when a connection — or the router behind
/// it — dies.
///
/// The retry-is-never-double-applied guarantee survives the router
/// switch: before resubmitting an orphaned batch, the client asks the
/// current router for the session's admitted cursor
/// ([`Client::session_cursor`]) and compares it with its own acked
/// count. A cursor that already covers the batch means the old router
/// acked-and-died (or the node applied it just before the cut); the
/// batch is swallowed, not replayed. A standby that has not yet taken
/// over answers [`error_code::STANDBY`]; the client treats that as
/// "not this one yet" and keeps walking the list.
pub struct HaClient {
    endpoints: Vec<Endpoint>,
    window_events: u32,
    want_slo: bool,
    active: usize,
    conn: Option<Client>,
    /// This client's own acked event count per session.
    acked: std::collections::BTreeMap<u64, u64>,
    slo: Vec<WireSlo>,
}

impl HaClient {
    /// Builds the client over an ordered endpoint list (primary
    /// first). Connections are made lazily on the first command, so
    /// construction cannot fail.
    ///
    /// # Panics
    ///
    /// When `endpoints` is empty.
    #[must_use]
    pub fn new(endpoints: Vec<Endpoint>, window_events: u32, want_slo: bool) -> Self {
        assert!(!endpoints.is_empty(), "HaClient needs at least one endpoint");
        Self {
            endpoints,
            window_events,
            want_slo,
            active: 0,
            conn: None,
            acked: std::collections::BTreeMap::new(),
            slo: Vec::new(),
        }
    }

    /// The endpoint index the client is currently (or will next be)
    /// talking to.
    #[must_use]
    pub fn active_endpoint(&self) -> usize {
        self.active
    }

    /// This client's own acked event count for `session`.
    #[must_use]
    pub fn acked(&self, session: u64) -> u64 {
        self.acked.get(&session).copied().unwrap_or(0)
    }

    /// Drops the current connection and advances to the next endpoint
    /// in the ring.
    fn fail_endpoint(&mut self) {
        if let Some(conn) = self.conn.take() {
            self.slo.extend(conn.slo);
        }
        self.active = (self.active + 1) % self.endpoints.len();
    }

    /// Borrows a live connection, dialing the active endpoint if
    /// needed; a connect failure advances the endpoint and returns the
    /// error for the caller's retry loop.
    fn conn(&mut self) -> Result<&mut Client, ClientError> {
        if self.conn.is_none() {
            match Client::connect(
                &self.endpoints[self.active],
                self.window_events,
                self.want_slo,
            ) {
                Ok(c) => self.conn = Some(c),
                Err(e) => {
                    self.fail_endpoint();
                    return Err(e);
                }
            }
        }
        Ok(self.conn.as_mut().expect("connection just ensured"))
    }

    /// Runs one command against the active router, walking the
    /// endpoint list on connection death or a standby refusal. Typed
    /// answers (`Rejected`, non-standby `Server`) pass straight
    /// through — only transport-shaped failures rotate the endpoint.
    fn with_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut last: Option<ClientError> = None;
        for round in 0..HA_RETRY_ROUNDS {
            if round > 0 && round % (self.endpoints.len().max(1) as u32) == 0 {
                std::thread::sleep(HA_RETRY_PAUSE);
            }
            let conn = match self.conn() {
                Ok(c) => c,
                Err(e) => {
                    last = Some(e);
                    continue;
                }
            };
            match op(conn) {
                Ok(v) => return Ok(v),
                Err(ClientError::Rejected(r)) => return Err(ClientError::Rejected(r)),
                Err(ClientError::Server { code }) if code == error_code::STANDBY => {
                    // Healthy, but not the active router (yet): keep
                    // walking; it may take over while we wait.
                    last = Some(ClientError::Server { code });
                    self.fail_endpoint();
                }
                Err(ClientError::Server { code }) => {
                    return Err(ClientError::Server { code })
                }
                Err(e) => {
                    last = Some(e);
                    self.fail_endpoint();
                }
            }
        }
        Err(last.unwrap_or(ClientError::UnexpectedReply("ha retry budget spent")))
    }

    /// Submits one batch, retrying across the endpoint list without
    /// ever double-applying: an orphaned in-flight batch is resolved
    /// against the surviving router's admitted cursor before any
    /// resubmit.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] passes through (retryable, typed);
    /// other errors mean the whole endpoint list stayed unreachable
    /// for the retry budget.
    pub fn submit(
        &mut self,
        session: u64,
        rank: u8,
        events: &[Event],
    ) -> Result<(), ClientError> {
        if events.is_empty() {
            return Ok(());
        }
        let n = events.len() as u64;
        let acked = self.acked(session);
        let mut orphaned = false;
        let mut last: Option<ClientError> = None;
        for round in 0..HA_RETRY_ROUNDS {
            if round > 0 {
                std::thread::sleep(HA_RETRY_PAUSE);
            }
            if orphaned {
                // The connection died with the batch in flight; ask
                // whichever router answers whether it landed.
                match self.with_retry(|c| c.session_cursor(session)) {
                    Ok(admitted) if admitted > acked => {
                        // The batch (or more) landed before the cut.
                        self.acked.insert(session, admitted.max(acked + n));
                        return Ok(());
                    }
                    Ok(_) => orphaned = false,
                    Err(e) => return Err(e),
                }
            }
            let conn = match self.conn() {
                Ok(c) => c,
                Err(e) => {
                    last = Some(e);
                    continue;
                }
            };
            match conn.submit(session, rank, events) {
                Ok(()) => {
                    self.acked.insert(session, acked + n);
                    return Ok(());
                }
                Err(ClientError::Rejected(r)) => return Err(ClientError::Rejected(r)),
                Err(ClientError::Server { code }) if code == error_code::STANDBY => {
                    last = Some(ClientError::Server { code });
                    self.fail_endpoint();
                }
                Err(ClientError::Server { code }) => {
                    return Err(ClientError::Server { code })
                }
                Err(e) => {
                    // Transport death mid-submit: the batch's fate is
                    // unknown until a router's cursor says.
                    last = Some(e);
                    orphaned = true;
                    self.fail_endpoint();
                }
            }
        }
        Err(last.unwrap_or(ClientError::UnexpectedReply("ha retry budget spent")))
    }

    /// Drains the cluster through the active router (idempotent on the
    /// router side, so endpoint-walk retries are safe).
    ///
    /// # Errors
    ///
    /// As for [`Client::drain`], after the retry budget.
    pub fn drain(&mut self) -> Result<Vec<(u64, Vec<u8>)>, ClientError> {
        self.with_retry(Client::drain)
    }

    /// Fetches one drained session's report through the active router.
    ///
    /// # Errors
    ///
    /// As for [`Client::report`], after the retry budget.
    pub fn report(&mut self, session: u64) -> Result<(u64, Vec<u8>), ClientError> {
        self.with_retry(|c| c.report(session))
    }

    /// Takes the SLO pushes collected so far across every connection
    /// this client has held.
    pub fn take_slo_reports(&mut self) -> Vec<WireSlo> {
        let mut out = std::mem::take(&mut self.slo);
        if let Some(conn) = self.conn.as_mut() {
            out.extend(conn.take_slo_reports());
        }
        out
    }
}
