//! The network front door: a framed-protocol server over a
//! [`DurableService`].
//!
//! [`WireServer`] owns one listener (TCP or Unix socket), an accept
//! loop on its own thread, and one handler thread per connection. All
//! connections feed a single shared [`DurableService`] behind a mutex
//! — the service itself stays in deterministic scheduling mode, so a
//! single-connection run is fully deterministic and multi-connection
//! runs still yield per-session reports byte-identical to solo runs of
//! each admitted stream.
//!
//! Protocol (see [`latch_proto`] for the frame layout):
//!
//! * **Handshake** — the first frame must be a `Hello` carrying the
//!   protocol magic and version; the server replies `HelloAck` with
//!   the granted in-flight window (the client's request clamped to
//!   the server cap). Anything else fails the connection closed.
//! * **Backpressure** — each connection tracks events submitted since
//!   the service last drained its queues; once the granted window
//!   fills, the handler pumps the service before replying, so one
//!   fast client cannot run the queue cap into every other
//!   connection's admission path.
//! * **Typed rejections** — every [`Rejected`] variant crosses the
//!   wire as a [`WireRejected`], including `Shed` (with priority and
//!   pressure) and `BatchTooLarge` (the journal-cap refusal).
//! * **Telemetry** — connections that set `want_slo` receive
//!   [`Msg::SloPush`] frames for every SLO cut, streamed after each
//!   reply via a per-connection cursor.
//! * **Drain** — `Drain` takes the service, runs
//!   [`DurableService::finish`], stores every session's final report,
//!   and replies `Drained`. The reply is idempotent; later `Submit`s
//!   are rejected with `ShuttingDown`, and `Report` serves individual
//!   session reports. [`WireServer::drained`] turns true only once the
//!   first `Drained` reply has been written (or has failed to write),
//!   so a daemon that exits on it never drops the reply unsent.
//! * **Hostile bytes** — a connection that sends garbage gets a typed
//!   `WireReject` trace event, a best-effort `Error` frame, and its
//!   socket closed. The accept loop and every other connection are
//!   unaffected — the fuzz tests in `latch-client` feed every
//!   truncation and bit flip through a real socket.

use crate::durable::DurableService;
use crate::overload::Priority;
use crate::storage::Storage;
use crate::{Rejected, ServiceOutcome};
use latch_obs::TraceEvent;
use latch_proto::{
    error_code, migrate_chunk, migrate_chunks, migrate_into, write_msg, Endpoint, Msg, ProtoError,
    Staging, WireRejected, WireSlo, MAX_MIGRATION_BYTES, MIGRATE_CHUNK_BYTES,
};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Front-door tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct WireConfig {
    /// Cap on the per-connection in-flight window, in events. A
    /// client's `Hello` request is clamped into `[1, max_window]`.
    pub max_window_events: u32,
}

impl Default for WireConfig {
    fn default() -> Self {
        Self {
            max_window_events: 1 << 14,
        }
    }
}

/// One accepted connection's stream, either transport.
enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
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

impl Conn {
    fn set_read_timeout(&self, d: Duration) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(Some(d)),
            Conn::Unix(s) => s.set_read_timeout(Some(d)),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, std::path::PathBuf),
}

impl Listener {
    fn bind(endpoint: &Endpoint) -> io::Result<Self> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
            Endpoint::Unix(path) => {
                // A stale socket file from a dead process blocks bind;
                // remove it first (connect() to a live one would
                // succeed, but latchd owns its socket path).
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Unix(l, path.clone()))
            }
        }
    }

    fn local_endpoint(&self) -> Endpoint {
        match self {
            Listener::Tcp(l) => Endpoint::Tcp(
                l.local_addr()
                    .map_or_else(|_| "0.0.0.0:0".to_string(), |a| a.to_string()),
            ),
            Listener::Unix(_, path) => Endpoint::Unix(path.clone()),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

/// What a drain left behind: per-session `(applied, report bytes)` and
/// the final SLO report stream.
struct Drained {
    reports: BTreeMap<u64, (u64, Vec<u8>)>,
    slo: Vec<WireSlo>,
}

/// Shared server state: the service until drain, the drained reports
/// after.
struct State<S: Storage> {
    svc: Option<DurableService<S>>,
    drained: Option<Drained>,
    /// Storage handed back by the drain (tests inspect it).
    storage: Option<S>,
    /// Captured at start so post-drain migrations can thaw exports.
    scrub_interval: u64,
    conn_seq: u64,
    /// Backup journals for sessions this node replicates but does not
    /// own, seeded by `MigrateSession` commits into `BACKUP`, grown by
    /// `ReplFrame` appends and served back by `ReplFetch`.
    replicas: latch_replica::ReplicaStore,
    /// Highest router epoch ever adopted on this node. Commands from a
    /// connection whose adopted epoch has since been superseded are
    /// refused with a typed `StaleRouter` — the fencing that stops a
    /// zombie primary from double-applying after takeover.
    max_epoch: u64,
}

struct Shared<S: Storage> {
    state: Mutex<State<S>>,
    stop: AtomicBool,
    /// Set once a handler has written a `Drained` reply, or failed to
    /// write it. The drained state itself is set earlier, under the
    /// state lock, before the reply goes out.
    drain_replied: AtomicBool,
    cfg: WireConfig,
}

/// A running network front door. Dropping the server (or calling
/// [`shutdown`](Self::shutdown)) stops the accept loop; an undrained
/// service is dropped with it, so callers that care about the outcome
/// drain through a client first.
pub struct WireServer<S: Storage + Send + 'static> {
    shared: Arc<Shared<S>>,
    endpoint: Endpoint,
    accept: Option<JoinHandle<()>>,
}

impl<S: Storage + Send + 'static> WireServer<S> {
    /// Binds `endpoint` and starts the accept loop over `svc`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (`io::Error`) — address in use,
    /// missing socket directory, and so on.
    pub fn start(
        endpoint: &Endpoint,
        svc: DurableService<S>,
        cfg: WireConfig,
    ) -> io::Result<Self> {
        let listener = Listener::bind(endpoint)?;
        let bound = listener.local_endpoint();
        let scrub_interval = svc.scrub_interval();
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                svc: Some(svc),
                drained: None,
                storage: None,
                scrub_interval,
                conn_seq: 0,
                replicas: latch_replica::ReplicaStore::new(),
                max_epoch: 0,
            }),
            stop: AtomicBool::new(false),
            drain_replied: AtomicBool::new(false),
            cfg,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(Self {
            shared,
            endpoint: bound,
            accept: Some(accept),
        })
    }

    /// The endpoint actually bound — for `tcp:HOST:0` this carries the
    /// kernel-assigned port.
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The bound TCP socket address (`None` on a Unix listener).
    /// Loopback tests bind `tcp:127.0.0.1:0` and read the
    /// kernel-assigned port back from here, so parallel test runs
    /// never collide on a fixed port.
    #[must_use]
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        match &self.endpoint {
            Endpoint::Tcp(addr) => addr.parse().ok(),
            Endpoint::Unix(_) => None,
        }
    }

    /// Whether a client has drained the service and its `Drained`
    /// reply has been written (or has failed to write).
    #[must_use]
    pub fn drained(&self) -> bool {
        self.shared.drain_replied.load(Ordering::SeqCst)
    }

    /// Stops the accept loop, joins it, and returns the storage backend
    /// if a drain completed (`None` when never drained).
    pub fn shutdown(mut self) -> Option<S> {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.shared.state.lock().expect("server state").storage.take()
    }

    /// Models the node process dying: stops the listener, lets every
    /// handler thread close its socket at the next poll, and hands
    /// back the *undrained* service (`None` when already drained).
    /// Callers crash the returned service to get the surviving storage
    /// — the disk a router exports failed-over sessions from.
    pub fn kill(mut self) -> Option<DurableService<S>> {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.shared.state.lock().expect("server state").svc.take()
    }
}

impl<S: Storage + Send + 'static> Drop for WireServer<S> {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

const ACCEPT_POLL: Duration = Duration::from_millis(2);
const READ_POLL: Duration = Duration::from_millis(20);

fn accept_loop<S: Storage + Send + 'static>(listener: &Listener, shared: &Arc<Shared<S>>) {
    // Handler threads detach: each exits on its own when the peer hangs
    // up or the stop flag falls. The loop only tracks the listener.
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(conn) => {
                let conn_id = {
                    let mut st = shared.state.lock().expect("server state");
                    st.conn_seq += 1;
                    st.conn_seq
                };
                latch_obs::counter_inc("serve.wire.conns");
                latch_obs::emit("serve", TraceEvent::ConnOpen { conn: conn_id });
                let shared = Arc::clone(shared);
                std::thread::spawn(move || handle_conn(conn, conn_id, &shared));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => break,
        }
    }
    if let Listener::Unix(_, path) = listener {
        let _ = std::fs::remove_file(path);
    }
}

/// Fills `buf`, retrying read timeouts. At offset zero (a frame
/// boundary, `idle_ok`) a timeout also polls the stop flag and a clean
/// EOF is allowed; once any byte of a frame has been consumed, a
/// timeout keeps waiting (a slow-but-live peer must not lose its
/// partial frame) and EOF is a typed truncation.
fn read_full_poll<S: Storage>(
    conn: &mut Conn,
    buf: &mut [u8],
    idle_ok: bool,
    shared: &Shared<S>,
) -> Result<bool, ProtoError> {
    let mut got = 0usize;
    while got < buf.len() {
        match conn.read(&mut buf[got..]) {
            Ok(0) => {
                return if got == 0 && idle_ok {
                    Ok(false)
                } else {
                    Err(ProtoError::Truncated)
                };
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                if got == 0 && idle_ok && shared.stop.load(Ordering::SeqCst) {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e.kind())),
        }
    }
    Ok(true)
}

/// Reads one frame, polling the stop flag while idle at a frame
/// boundary. `Ok(None)` means the connection should close quietly
/// (clean EOF, or server stopping between frames). Uses the same
/// bound-the-length-before-allocating discipline as
/// [`latch_proto::read_msg`].
fn read_frame_msg<S: Storage>(
    conn: &mut Conn,
    shared: &Shared<S>,
) -> Result<Option<Msg>, ProtoError> {
    let mut header = [0u8; latch_proto::FRAME_HEADER_LEN];
    if !read_full_poll(conn, &mut header, true, shared)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
    if len > latch_proto::MAX_FRAME_PAYLOAD {
        return Err(ProtoError::OversizedFrame { len: len as u64 });
    }
    let mut frame = vec![0u8; latch_proto::FRAME_HEADER_LEN + len];
    frame[..latch_proto::FRAME_HEADER_LEN].copy_from_slice(&header);
    read_full_poll(conn, &mut frame[latch_proto::FRAME_HEADER_LEN..], false, shared)?;
    let (payload, _consumed) = latch_proto::frame_payload(&frame)?;
    Msg::decode_payload(payload).map(Some)
}

fn wire_rejected(r: &Rejected) -> (WireRejected, &'static str) {
    match *r {
        Rejected::QueueFull { pending, capacity } => (
            WireRejected::QueueFull {
                pending: pending as u64,
                capacity: capacity as u64,
            },
            "queue_full",
        ),
        Rejected::SessionBusy {
            session,
            pending,
            cap,
        } => (
            WireRejected::SessionBusy {
                session,
                pending: pending as u64,
                cap: cap as u64,
            },
            "session_busy",
        ),
        Rejected::ShuttingDown => (WireRejected::ShuttingDown, "shutting_down"),
        Rejected::Shed {
            session,
            priority,
            pressure,
        } => (
            WireRejected::Shed {
                session,
                priority: priority.rank(),
                pressure,
            },
            "shed",
        ),
        Rejected::BatchTooLarge { events, bytes } => {
            (WireRejected::TooLarge { events, bytes }, "batch_too_large")
        }
    }
}

fn wire_slo(r: &crate::overload::SloReport) -> WireSlo {
    WireSlo {
        at_batch: r.at_batch,
        samples: r.samples,
        p50_cycles: r.p50_cycles,
        p99_cycles: r.p99_cycles,
        breach: r.breach,
        pressure: r.pressure,
        shed_events: r.shed_events,
        degraded: r.degraded,
    }
}

fn drained_from(outcome: &ServiceOutcome) -> Drained {
    Drained {
        reports: outcome
            .sessions
            .iter()
            .map(|(&s, r)| (s, (r.events, r.encode())))
            .collect(),
        slo: outcome.slo_reports.iter().map(wire_slo).collect(),
    }
}

/// One submit under the state lock: admission, window accounting, and
/// the reply (plus any fresh SLO cuts for subscribed connections).
struct ConnState {
    window: u32,
    want_slo: bool,
    outstanding: u64,
    admitted: u64,
    slo_cursor: usize,
    frames: u64,
    /// Session → state staged by `MigrateChunk` frames, consumed by the
    /// committing `MigrateSession`.
    migrations: BTreeMap<u64, Staging>,
    /// The router epoch this connection last claimed via `Adopt`.
    /// `None` for direct client connections, which stay unfenced.
    epoch: Option<u64>,
}

fn handle_conn<S: Storage + Send + 'static>(mut conn: Conn, conn_id: u64, shared: &Shared<S>) {
    let _ = conn.set_read_timeout(READ_POLL);
    let mut cs = match handshake(&mut conn, conn_id, shared) {
        Some(cs) => cs,
        None => {
            latch_obs::emit(
                "serve",
                TraceEvent::ConnClose {
                    conn: conn_id,
                    frames: 0,
                },
            );
            return;
        }
    };
    loop {
        // Check the stop flag at every frame boundary, not just on
        // idle timeouts: a killed server must close even connections
        // whose frames keep arriving back-to-back, or a router's
        // heartbeat would keep getting answered by a dead node.
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let msg = match read_frame_msg(&mut conn, shared) {
            Ok(Some(msg)) => msg,
            Ok(None) => break,
            Err(err) => {
                fail_closed(&mut conn, conn_id, err.reason());
                break;
            }
        };
        cs.frames += 1;
        let replies = process_msg(msg, conn_id, &mut cs, shared);
        let drained = replies.iter().any(|r| matches!(r, Msg::Drained { .. }));
        // One write per batch of replies: a fetch answer is several
        // frames, and as separate small writes each one after the first
        // would wait on Nagle for the peer's delayed ACK.
        let mut out = Vec::new();
        let mut dead = false;
        for reply in replies {
            match reply.encode() {
                Ok(frame) if out.is_empty() => out = frame,
                Ok(frame) => out.extend_from_slice(&frame),
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        dead |= conn.write_all(&out).and_then(|()| conn.flush()).is_err();
        if drained {
            shared.drain_replied.store(true, Ordering::SeqCst);
        }
        if dead {
            break;
        }
    }
    latch_obs::emit(
        "serve",
        TraceEvent::ConnClose {
            conn: conn_id,
            frames: cs.frames,
        },
    );
}

/// First frame must be a well-formed `Hello`; everything else fails
/// the connection closed (with a best-effort typed `Error` frame).
fn handshake<S: Storage>(conn: &mut Conn, conn_id: u64, shared: &Shared<S>) -> Option<ConnState> {
    match read_frame_msg(conn, shared) {
        Ok(Some(Msg::Hello {
            window_events,
            want_slo,
            ..
        })) => {
            let window = window_events.clamp(1, shared.cfg.max_window_events);
            let ack = Msg::HelloAck {
                version: latch_proto::PROTO_VERSION,
                window_events: window,
            };
            if write_msg(conn, &ack).is_err() {
                return None;
            }
            Some(ConnState {
                window,
                want_slo,
                outstanding: 0,
                admitted: 0,
                slo_cursor: 0,
                frames: 1,
                migrations: BTreeMap::new(),
                epoch: None,
            })
        }
        Ok(Some(_)) => {
            fail_closed(conn, conn_id, "hello_expected");
            None
        }
        Ok(None) => None,
        Err(err) => {
            fail_closed(conn, conn_id, err.reason());
            None
        }
    }
}

fn fail_closed(conn: &mut Conn, conn_id: u64, reason: &'static str) {
    latch_obs::counter_inc("serve.wire.rejects");
    latch_obs::emit(
        "serve",
        TraceEvent::WireReject {
            conn: conn_id,
            reason,
        },
    );
    // Best effort: the peer may already be gone.
    let _ = write_msg(
        conn,
        &Msg::Error {
            code: error_code::MALFORMED,
        },
    );
}

/// Answers a well-formed frame the node will not act on with a typed
/// `PROTOCOL` error, keeping the connection.
fn refuse(conn_id: u64, reason: &'static str, replies: &mut Vec<Msg>) {
    latch_obs::counter_inc("serve.wire.rejects");
    latch_obs::emit(
        "serve",
        TraceEvent::WireReject {
            conn: conn_id,
            reason,
        },
    );
    replies.push(Msg::Error {
        code: error_code::PROTOCOL,
    });
}

fn process_msg<S: Storage>(
    msg: Msg,
    conn_id: u64,
    cs: &mut ConnState,
    shared: &Shared<S>,
) -> Vec<Msg> {
    let mut st = shared.state.lock().expect("server state");
    let mut replies = Vec::with_capacity(1);
    // Epoch fencing: once a newer router has adopted this node, every
    // mutating command from an older-epoch connection answers the
    // node's high-water mark and touches nothing — a zombie primary
    // can never double-apply a batch after takeover. Connections that
    // never adopted (direct clients) stay unfenced.
    if let Some(epoch) = cs.epoch {
        let fenced = matches!(
            msg,
            Msg::Submit { .. }
                | Msg::Drain
                | Msg::MigrateSession { .. }
                | Msg::MigrateChunk { .. }
                | Msg::ReplFrame { .. }
                | Msg::ReplFetch { .. }
        );
        if fenced && epoch < st.max_epoch {
            latch_obs::counter_inc("serve.wire.stale_routers");
            latch_obs::emit(
                "serve",
                TraceEvent::StaleRouter {
                    conn: conn_id,
                    epoch,
                    max_epoch: st.max_epoch,
                },
            );
            replies.push(Msg::StaleRouter { epoch: st.max_epoch });
            return replies;
        }
    }
    match msg {
        Msg::Submit {
            session,
            priority,
            events,
        } => {
            let n = events.len() as u64;
            let priority = Priority::from_rank(priority).unwrap_or_default();
            match st.svc.as_mut() {
                Some(svc) => match svc.submit_with_priority(session, &events, priority) {
                    Ok(()) => {
                        cs.admitted += n;
                        cs.outstanding += n;
                        if cs.outstanding >= u64::from(cs.window) {
                            svc.pump();
                            cs.outstanding = 0;
                        }
                        replies.push(Msg::SubmitOk {
                            session,
                            admitted: cs.admitted,
                        });
                    }
                    Err(rej) => {
                        // Backpressure must guarantee progress: with
                        // every connection under its window and the
                        // queue full, nobody would ever pump. Drain
                        // the queue before replying so the client's
                        // retry can land.
                        if matches!(
                            rej,
                            Rejected::QueueFull { .. } | Rejected::SessionBusy { .. }
                        ) {
                            svc.pump();
                            cs.outstanding = 0;
                        }
                        let (wire, reason) = wire_rejected(&rej);
                        latch_obs::counter_inc("serve.wire.rejects");
                        latch_obs::emit(
                            "serve",
                            TraceEvent::WireReject {
                                conn: conn_id,
                                reason,
                            },
                        );
                        replies.push(Msg::SubmitRejected {
                            session,
                            rejected: wire,
                        });
                    }
                },
                None => {
                    replies.push(Msg::SubmitRejected {
                        session,
                        rejected: WireRejected::ShuttingDown,
                    });
                }
            }
        }
        Msg::Drain => {
            if let Some(svc) = st.svc.take() {
                let (outcome, storage) = svc.finish();
                st.storage = Some(storage);
                st.drained = Some(drained_from(&outcome));
            }
            match st.drained.as_ref() {
                Some(d) => replies.push(Msg::Drained {
                    reports: d
                        .reports
                        .iter()
                        .map(|(&s, (_, bytes))| (s, bytes.clone()))
                        .collect(),
                }),
                // Only reachable on a killed server: the service was
                // taken by `kill()` without leaving a drained state.
                None => replies.push(Msg::Error {
                    code: error_code::PROTOCOL,
                }),
            }
        }
        Msg::Report { session } => match st.drained.as_ref() {
            None => replies.push(Msg::Error {
                code: error_code::NOT_DRAINED,
            }),
            Some(d) => match d.reports.get(&session) {
                Some((applied, bytes)) => replies.push(Msg::ReportData {
                    session,
                    applied: *applied,
                    report: bytes.clone(),
                }),
                None => replies.push(Msg::Error {
                    code: error_code::PROTOCOL,
                }),
            },
        },
        Msg::Adopt { epoch, router: _ } => {
            if epoch >= st.max_epoch {
                st.max_epoch = epoch;
                cs.epoch = Some(epoch);
                latch_obs::counter_inc("serve.wire.adoptions");
                // Survey at a quiescent point: after the pump inside
                // `survey_sessions`, applied counts everything ever
                // admitted, so the adopting router's rebuilt routes
                // carry exact cursors (admitted == applied).
                let sessions = match st.svc.as_mut() {
                    Some(svc) => svc
                        .survey_sessions()
                        .into_iter()
                        .map(|(s, applied, rank)| (s, applied, applied, rank))
                        .collect(),
                    None => Vec::new(),
                };
                replies.push(Msg::AdoptAck {
                    epoch: st.max_epoch,
                    sessions,
                });
            } else {
                // Belt and braces: remember the stale claim so even a
                // command racing past this reply is fenced.
                cs.epoch = Some(epoch);
                latch_obs::counter_inc("serve.wire.stale_routers");
                latch_obs::emit(
                    "serve",
                    TraceEvent::StaleRouter {
                        conn: conn_id,
                        epoch,
                        max_epoch: st.max_epoch,
                    },
                );
                replies.push(Msg::StaleRouter { epoch: st.max_epoch });
            }
        }
        Msg::SurveyReplicas => {
            let entries: Vec<(u64, u8, u64, u64)> = st
                .replicas
                .sessions()
                .filter_map(|s| {
                    st.replicas
                        .get(s)
                        .map(|j| (s, j.rank, j.journaled, j.wal.len() as u64))
                })
                .collect();
            replies.push(Msg::ReplicaSurvey { entries });
        }
        // Cluster control: heartbeats echo their token; a NodeHello
        // marks the connection as a router's and answers like a probe.
        Msg::Ping { token } => replies.push(Msg::Pong { token }),
        Msg::NodeHello { node: _, token } => {
            latch_obs::counter_inc("serve.wire.node_hellos");
            replies.push(Msg::Pong { token });
        }
        Msg::MigrateChunk {
            session,
            kind,
            bytes: _,
        } if kind == migrate_chunk::RESTART => {
            // Abort: discard everything staged for the session so the
            // sender can restart the stage on this same connection.
            cs.migrations.remove(&session);
            replies.push(Msg::MigrateChunkAck {
                session,
                received: 0,
            });
        }
        Msg::MigrateChunk {
            session,
            kind,
            bytes,
        } => {
            let staged = cs.migrations.entry(session).or_default();
            match staged.extend(kind, &bytes) {
                Some(received) => replies.push(Msg::MigrateChunkAck { session, received }),
                None => {
                    // Past the staging cap: drop the session's buffers so
                    // a runaway sender cannot hold the memory open.
                    cs.migrations.remove(&session);
                    refuse(conn_id, "migration_too_large", &mut replies);
                }
            }
        }
        Msg::MigrateSession {
            session,
            priority,
            into,
            journaled,
        } => {
            // Commit the chunk-staged state (nothing staged commits an
            // empty one).
            let Staging { blob, wal } = cs.migrations.remove(&session).unwrap_or_default();
            let scrub_interval = st.scrub_interval;
            let imported = if into == migrate_into::BACKUP {
                Some(st.replicas.seed(session, priority, journaled, blob, wal))
            } else {
                let priority = Priority::from_rank(priority).unwrap_or_default();
                match st.svc.as_mut() {
                    Some(svc) => svc.import_session(session, priority, &blob, &wal).ok(),
                    // The service is already consumed. If it left a clean
                    // drained state, the node still accepts the migration:
                    // a failover discovered mid-cluster-drain lands here,
                    // after this node's own drain was taken. Thaw the
                    // export and fold the session's report into the
                    // drained cache — the victim's directory keeps the
                    // durable copy, this node only answers for the bytes.
                    None => match st.drained.as_mut() {
                        Some(d) if !d.reports.contains_key(&session) => {
                            crate::durable::thaw_export(session, scrub_interval, &blob, &wal)
                                .ok()
                                .map(|pipe| {
                                    let applied = pipe.applied();
                                    d.reports.insert(session, (applied, pipe.report().encode()));
                                    latch_obs::counter_inc("serve.migrate.imports");
                                    applied
                                })
                        }
                        _ => None,
                    },
                }
            };
            match imported {
                Some(applied) => replies.push(Msg::MigrateAck { session, applied }),
                None => refuse(conn_id, "migrate_refused", &mut replies),
            }
        }
        Msg::ReplFrame {
            session,
            rank,
            wal_off,
            journaled,
            wal,
        } => {
            latch_obs::counter_inc("serve.repl.frames");
            let ok = st
                .replicas
                .append(session, rank, wal_off, journaled, &wal)
                .is_ok();
            if !ok {
                // Lagging (gap / unseeded / stale): the journal kept its
                // last consistent prefix; report the cursors so the
                // router reseeds from scratch.
                latch_obs::counter_inc("serve.repl.lag");
            }
            let (journaled, wal_len) = st
                .replicas
                .get(session)
                .map_or((0, 0), |j| (j.journaled, j.wal.len() as u64));
            replies.push(Msg::ReplAck {
                session,
                ok,
                journaled,
                wal_len,
            });
        }
        Msg::ReplFetch { session, expel } => {
            latch_obs::counter_inc("serve.repl.fetches");
            // A live owner answers (and on expel, gives up) the session;
            // a pure backup answers from its journal. Either way the
            // state is sized before anything is removed: one the
            // importer could not stage is refused, so a cut never
            // strands a session.
            let fits = |blob: &[u8], wal: &[u8]| blob.len() + wal.len() <= MAX_MIGRATION_BYTES;
            let live = match st.svc.as_mut() {
                Some(svc) => match svc.export_session(session) {
                    Some(e) if !fits(&e.blob, &e.wal) => Err(()),
                    export => {
                        let export = if expel {
                            svc.expel_session(session)
                        } else {
                            export
                        };
                        let journaled = svc
                            .service()
                            .session_progress(session)
                            .map_or(0, |(applied, _)| applied);
                        Ok(export.map(|e| (e.priority.rank(), journaled, e.blob, e.wal)))
                    }
                },
                None => Ok(None),
            };
            let state = match live {
                Ok(None) => match st.replicas.get(session) {
                    Some(j) if !fits(&j.blob, &j.wal) => Err(()),
                    Some(_) if expel => Ok(st
                        .replicas
                        .remove(session)
                        .map(|j| (j.rank, j.journaled, j.blob, j.wal))),
                    Some(j) => Ok(Some((j.rank, j.journaled, j.blob.clone(), j.wal.clone()))),
                    None => Ok(None),
                },
                answered => answered,
            };
            match state {
                Ok(Some((rank, journaled, blob, wal))) => {
                    replies.extend(migrate_chunks(session, &blob, &wal, MIGRATE_CHUNK_BYTES));
                    replies.push(Msg::ReplState {
                        session,
                        found: true,
                        rank,
                        journaled,
                    });
                }
                Ok(None) => replies.push(Msg::ReplState {
                    session,
                    found: false,
                    rank: 0,
                    journaled: 0,
                }),
                Err(()) => refuse(conn_id, "migration_too_large", &mut replies),
            }
        }
        // Client-only or duplicate-handshake messages: a protocol
        // violation, answered without killing the connection (the
        // frame itself was well-formed).
        Msg::Hello { .. }
        | Msg::HelloAck { .. }
        | Msg::SubmitOk { .. }
        | Msg::SubmitRejected { .. }
        | Msg::ReportData { .. }
        | Msg::SloPush(_)
        | Msg::Drained { .. }
        | Msg::Pong { .. }
        | Msg::MigrateAck { .. }
        | Msg::MigrateChunkAck { .. }
        | Msg::ReplAck { .. }
        | Msg::ReplState { .. }
        | Msg::AdoptAck { .. }
        | Msg::ReplicaSurvey { .. }
        | Msg::StaleRouter { .. }
        | Msg::SessionCursor { .. }
        | Msg::CursorAck { .. }
        | Msg::Error { .. } => refuse(conn_id, "unexpected_message", &mut replies),
    }
    // Stream any SLO cuts this connection has not seen yet: from the
    // live service, or from the final drained stream.
    if cs.want_slo {
        let push_from = |all: &[WireSlo], cursor: &mut usize, replies: &mut Vec<Msg>| {
            while *cursor < all.len() {
                replies.push(Msg::SloPush(all[*cursor]));
                *cursor += 1;
            }
        };
        if let Some(svc) = st.svc.as_ref() {
            let all: Vec<WireSlo> = svc.service().slo_reports().iter().map(wire_slo).collect();
            push_from(&all, &mut cs.slo_cursor, &mut replies);
        } else if let Some(d) = st.drained.as_ref() {
            push_from(&d.slo, &mut cs.slo_cursor, &mut replies);
        }
    }
    replies
}
