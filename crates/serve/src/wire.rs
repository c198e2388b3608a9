//! The network front door, [`FrontDoor`], and the node server that
//! runs on it, [`WireServer`]. `latch-routerd`'s `RouterServer` runs
//! the same door, so one place decides how a front door reads, answers
//! and stops; a server supplies only a [`Handler`].
//!
//! * **Handshake** — the first frame must be a `Hello` carrying the
//!   protocol magic and version; the door replies `HelloAck` with the
//!   granted in-flight window (the client's request clamped to the
//!   server cap). Anything else fails the connection closed.
//! * **One write per frame** — the replies to one frame go out in one
//!   write: a fetch answer is several frames, and as separate small
//!   writes each one after the first would wait on Nagle for the
//!   peer's delayed ACK.
//! * **Hostile bytes** — a frame the door cannot act on (garbage, a
//!   torn frame, a first frame that is not a `Hello`) gets a typed
//!   `WireReject` trace event, one `Error` frame, and its socket
//!   closed. The accept loop and every other connection are
//!   unaffected; the fuzz tests in `latch-client` and `latch-router`
//!   feed truncations and bit flips through a real socket.
//! * **Stop means stop** — the stop flag is checked at every frame
//!   boundary and idle poll, and a stop closes every client socket and
//!   joins its handler before it returns.
//!
//! The node feeds every connection into a single shared
//! [`DurableService`] behind a mutex — the service itself stays in
//! deterministic scheduling mode, so a single-connection run is fully
//! deterministic and multi-connection runs still yield per-session
//! reports byte-identical to solo runs of each admitted stream:
//!
//! * **Backpressure** — each connection tracks events submitted since
//!   the service last drained its queues; once the granted window
//!   fills, the handler pumps the service before replying, so one
//!   fast client cannot run the queue cap into every other
//!   connection's admission path.
//! * **Typed rejections** — every [`Rejected`] variant crosses the
//!   wire as a [`WireRejected`], including `Shed` (with priority and
//!   pressure) and `BatchTooLarge` (the journal-cap refusal).
//! * **Telemetry** — connections that set `want_slo` receive
//!   [`Msg::SloPush`] frames for the SLO cuts, streamed after each
//!   reply via a per-connection cursor that counts cuts absolutely. The
//!   service keeps only the newest [`SLO_REPORTS_KEPT`] cuts, so a
//!   connection that opens late, or falls that far behind, gets the
//!   kept ones; no connection gets a cut twice or skips a kept one.
//!
//!   [`SLO_REPORTS_KEPT`]: crate::SLO_REPORTS_KEPT
//! * **Drain** — `Drain` takes the service, runs
//!   [`DurableService::finish`], stores every session's final report,
//!   and replies `Drained`. The reply is idempotent; later `Submit`s
//!   are rejected with `ShuttingDown`, and `Report` serves individual
//!   session reports. [`WireServer::drained`] turns true only once the
//!   first `Drained` reply has been written (or has failed to write),
//!   so a daemon that exits on it never drops the reply unsent.

use crate::durable::DurableService;
use crate::overload::Priority;
use crate::storage::Storage;
use crate::{Rejected, ServiceOutcome};
use latch_obs::TraceEvent;
use latch_proto::{
    error_code, migrate_chunk, migrate_chunks, migrate_into, read_msg_or_stop, Conn, Endpoint,
    Listener, Msg, Staging, WireRejected, WireSlo, MAX_MIGRATION_BYTES, MIGRATE_CHUNK_BYTES,
    PROTO_VERSION,
};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
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

/// What a server supplies to a [`FrontDoor`]: its per-connection
/// state, its answer to each frame after the handshake, and the obs
/// names its connection events land under.
pub trait Handler: Send + Sync + 'static {
    /// The state one connection carries between frames.
    type ConnState: Send;
    /// The obs track of the door's trace events (`serve`, `router`).
    const TRACK: &'static str;
    /// The counter bumped for every accepted connection.
    const CONNS: &'static str;
    /// The counter bumped for every refused frame or connection.
    const REJECTS: &'static str;

    /// The state of a connection whose `Hello` was granted `window`.
    fn open(&self, window: u32, want_slo: bool) -> Self::ConnState;

    /// Answers one well-formed frame.
    fn process_msg(&self, msg: Msg, conn_id: u64, cs: &mut Self::ConnState) -> Vec<Msg>;

    /// Counts one refusal and traces it on the door's track.
    fn note_reject(conn_id: u64, reason: &'static str) {
        latch_obs::counter_inc(Self::REJECTS);
        latch_obs::emit(
            Self::TRACK,
            TraceEvent::WireReject {
                conn: conn_id,
                reason,
            },
        );
    }
}

/// What a front door shares with its threads.
pub struct Shared<H> {
    handler: H,
    max_window: u32,
    stop: AtomicBool,
    /// Set once a handler has written a `Drained` reply, or failed to
    /// write it. The drained state itself is set earlier, under the
    /// server's lock, before the reply goes out.
    drain_replied: AtomicBool,
    /// Each live connection with its handler thread. A handler blocked
    /// in a read would still serve a frame that arrives before its
    /// poll ends, so a stop closes the socket under it and joins it.
    conns: Mutex<Vec<(Conn, JoinHandle<()>)>>,
}

impl<H> Shared<H> {
    /// The server behind the door.
    pub fn handler(&self) -> &H {
        &self.handler
    }

    /// Whether the door has been told to stop.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// A running front door. [`stop`](Self::stop), which dropping the door
/// also runs, stops the accept loop, closes every client connection
/// and joins its handler.
pub struct FrontDoor<H: Handler> {
    shared: Arc<Shared<H>>,
    endpoint: Endpoint,
    accept: Option<JoinHandle<()>>,
}

impl<H: Handler> FrontDoor<H> {
    /// Binds `endpoint` and starts the accept loop over `handler`,
    /// granting each connection at most `max_window` events in flight.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (`io::Error`) — address in use,
    /// missing socket directory, and so on.
    pub fn start(endpoint: &Endpoint, max_window: u32, handler: H) -> io::Result<Self> {
        let listener = Listener::bind(endpoint)?;
        let bound = listener.local_endpoint();
        let shared = Arc::new(Shared {
            handler,
            max_window,
            stop: AtomicBool::new(false),
            drain_replied: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
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
    #[must_use]
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        match &self.endpoint {
            Endpoint::Tcp(addr) => addr.parse().ok(),
            Endpoint::Unix(_) => None,
        }
    }

    /// Whether a `Drained` reply has been written (or has failed to
    /// write).
    #[must_use]
    pub fn drained(&self) -> bool {
        self.shared.drain_replied.load(Ordering::SeqCst)
    }

    /// What the door shares with its threads, for a server's own
    /// threads to watch the same stop flag.
    #[must_use]
    pub fn shared(&self) -> &Arc<Shared<H>> {
        &self.shared
    }

    /// Stops accepting, closes every client connection, and joins the
    /// accept loop and every handler. Idempotent.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // No handler starts once the accept loop has returned.
        let conns = std::mem::take(
            &mut *self
                .shared
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for (conn, _) in &conns {
            conn.close();
        }
        for (_, h) in conns {
            let _ = h.join();
        }
    }
}

impl<H: Handler> Drop for FrontDoor<H> {
    fn drop(&mut self) {
        self.stop();
    }
}

const ACCEPT_POLL: Duration = Duration::from_millis(2);
const READ_POLL: Duration = Duration::from_millis(20);

fn accept_loop<H: Handler>(listener: &Listener, shared: &Arc<Shared<H>>) {
    let mut conn_seq = 0u64;
    while !shared.stopped() {
        match listener.accept() {
            Ok(conn) => {
                // A connection the door could not close at a stop is
                // never served.
                let Ok(closer) = conn.try_clone() else {
                    continue;
                };
                conn_seq += 1;
                let conn_id = conn_seq;
                latch_obs::counter_inc(H::CONNS);
                latch_obs::emit(H::TRACK, TraceEvent::ConnOpen { conn: conn_id });
                let handler_shared = Arc::clone(shared);
                let handler =
                    std::thread::spawn(move || handle_conn(conn, conn_id, &handler_shared));
                let mut conns = shared.conns.lock().expect("front-door connections");
                conns.retain(|(_, h)| !h.is_finished());
                conns.push((closer, handler));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => break,
        }
    }
}

fn handle_conn<H: Handler>(mut conn: Conn, conn_id: u64, shared: &Shared<H>) {
    let _ = conn.set_read_timeout(READ_POLL);
    let mut state = None;
    let mut frames = 0u64;
    // The stop flag is checked at every frame boundary, not just on
    // idle polls: a stopped server must close even connections whose
    // frames keep arriving back-to-back, or a router's heartbeat would
    // keep getting answered by a dead node.
    while !shared.stopped() {
        // A frame the door cannot act on draws one typed error, and
        // the connection closes after it.
        let (replies, open) = match read_msg_or_stop(&mut conn, Some(&shared.stop)) {
            Ok(None) => break,
            Err(err) => (fail_closed::<H>(conn_id, err.reason()), false),
            Ok(Some(msg)) => match state.as_mut() {
                Some(cs) => (shared.handler.process_msg(msg, conn_id, cs), true),
                None => match msg {
                    Msg::Hello {
                        window_events,
                        want_slo,
                        ..
                    } => {
                        let window = window_events.clamp(1, shared.max_window);
                        state = Some(shared.handler.open(window, want_slo));
                        let ack = Msg::HelloAck {
                            version: PROTO_VERSION,
                            window_events: window,
                        };
                        (vec![ack], true)
                    }
                    _ => (fail_closed::<H>(conn_id, "hello_expected"), false),
                },
            },
        };
        frames += u64::from(open);
        let drained = replies.iter().any(|r| matches!(r, Msg::Drained { .. }));
        let mut out = Vec::new();
        let mut dead = false;
        for reply in &replies {
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
        if dead || !open {
            break;
        }
    }
    // The registry holds a second handle on the socket, so dropping
    // this one alone would leave the peer waiting on an open stream.
    conn.close();
    latch_obs::emit(
        H::TRACK,
        TraceEvent::ConnClose {
            conn: conn_id,
            frames,
        },
    );
}

/// Counts and traces a refusal that closes the connection, and returns
/// the `MALFORMED` error frame sent before the close.
fn fail_closed<H: Handler>(conn_id: u64, reason: &'static str) -> Vec<Msg> {
    H::note_reject(conn_id, reason);
    vec![Msg::Error {
        code: error_code::MALFORMED,
    }]
}

// ---- the node ------------------------------------------------------------

/// What a drain left behind: per-session `(applied, report bytes)`, the
/// kept SLO reports, and the cut number of the first of them.
struct Drained {
    reports: BTreeMap<u64, (u64, Vec<u8>)>,
    slo: Vec<WireSlo>,
    slo_first: u64,
}

/// The node's state behind its front door: the service until drain,
/// the drained reports after.
struct State<S: Storage> {
    svc: Option<DurableService<S>>,
    drained: Option<Drained>,
    /// Storage handed back by the drain (tests inspect it).
    storage: Option<S>,
    /// Captured at start so post-drain migrations can thaw exports.
    scrub_interval: u64,
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

/// The node's [`Handler`].
struct Node<S: Storage>(Mutex<State<S>>);

impl<S: Storage> Node<S> {
    fn state(&self) -> std::sync::MutexGuard<'_, State<S>> {
        self.0.lock().expect("server state")
    }
}

/// A running `latchd` front door. Dropping the server, or calling
/// [`shutdown`](Self::shutdown) or [`kill`](Self::kill), stops it: every
/// client connection is closed and its handler joined before the call
/// returns, so a stopped node answers nothing and admits nothing. An
/// undrained service is dropped with the server, so callers that care
/// about the outcome drain through a client first.
pub struct WireServer<S: Storage + Send + 'static> {
    door: FrontDoor<Node<S>>,
}

impl<S: Storage + Send + 'static> WireServer<S> {
    /// Binds `endpoint` and starts the accept loop over `svc`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (`io::Error`) — address in use,
    /// missing socket directory, and so on.
    pub fn start(endpoint: &Endpoint, svc: DurableService<S>, cfg: WireConfig) -> io::Result<Self> {
        let scrub_interval = svc.scrub_interval();
        let node = Node(Mutex::new(State {
            svc: Some(svc),
            drained: None,
            storage: None,
            scrub_interval,
            replicas: latch_replica::ReplicaStore::new(),
            max_epoch: 0,
        }));
        Ok(Self {
            door: FrontDoor::start(endpoint, cfg.max_window_events, node)?,
        })
    }

    /// The endpoint actually bound — for `tcp:HOST:0` this carries the
    /// kernel-assigned port.
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        self.door.endpoint()
    }

    /// The bound TCP socket address (`None` on a Unix listener).
    /// Loopback tests bind `tcp:127.0.0.1:0` and read the
    /// kernel-assigned port back from here, so parallel test runs
    /// never collide on a fixed port.
    #[must_use]
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        self.door.local_addr()
    }

    /// Whether a client has drained the service and its `Drained`
    /// reply has been written (or has failed to write).
    #[must_use]
    pub fn drained(&self) -> bool {
        self.door.drained()
    }

    /// Stops the front door and returns the storage backend if a drain
    /// completed (`None` when never drained).
    pub fn shutdown(mut self) -> Option<S> {
        self.door.stop();
        self.door.shared().handler().state().storage.take()
    }

    /// Models the node process dying: stops the front door and hands
    /// back the *undrained* service (`None` when already drained), which
    /// nothing sent after the call reaches. Callers crash the returned
    /// service to get the surviving storage — the disk a router exports
    /// failed-over sessions from.
    pub fn kill(mut self) -> Option<DurableService<S>> {
        self.door.stop();
        self.door.shared().handler().state().svc.take()
    }
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
        slo_first: outcome.slo_dropped,
    }
}

/// One node connection's state between frames.
struct NodeConn {
    window: u32,
    want_slo: bool,
    outstanding: u64,
    admitted: u64,
    /// SLO cuts this connection has been sent or has missed: the cut
    /// number of the next one to push.
    slo_cursor: u64,
    /// Session → state staged by `MigrateChunk` frames, consumed by the
    /// committing `MigrateSession`.
    migrations: BTreeMap<u64, Staging>,
    /// The router epoch this connection last claimed via `Adopt`.
    /// `None` for direct client connections, which stay unfenced.
    epoch: Option<u64>,
}

impl<S: Storage + Send + 'static> Node<S> {
    /// Answers a well-formed frame the node will not act on with a
    /// typed `PROTOCOL` error, keeping the connection.
    fn refuse(conn_id: u64, reason: &'static str, replies: &mut Vec<Msg>) {
        Self::note_reject(conn_id, reason);
        replies.push(Msg::Error {
            code: error_code::PROTOCOL,
        });
    }
}

impl<S: Storage + Send + 'static> Handler for Node<S> {
    type ConnState = NodeConn;
    const TRACK: &'static str = "serve";
    const CONNS: &'static str = "serve.wire.conns";
    const REJECTS: &'static str = "serve.wire.rejects";

    fn open(&self, window: u32, want_slo: bool) -> NodeConn {
        NodeConn {
            window,
            want_slo,
            outstanding: 0,
            admitted: 0,
            slo_cursor: 0,
            migrations: BTreeMap::new(),
            epoch: None,
        }
    }

    fn process_msg(&self, msg: Msg, conn_id: u64, cs: &mut NodeConn) -> Vec<Msg> {
        let mut st = self.state();
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
                replies.push(Msg::StaleRouter {
                    epoch: st.max_epoch,
                });
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
                            Self::note_reject(conn_id, reason);
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
                    // `kill()` takes the service without leaving a
                    // drained state, but only once every handler has
                    // stopped, so no connection should see this.
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
                    replies.push(Msg::StaleRouter {
                        epoch: st.max_epoch,
                    });
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
                        Self::refuse(conn_id, "migration_too_large", &mut replies);
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
                                        d.reports
                                            .insert(session, (applied, pipe.report().encode()));
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
                    None => Self::refuse(conn_id, "migrate_refused", &mut replies),
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
                    Err(()) => Self::refuse(conn_id, "migration_too_large", &mut replies),
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
            | Msg::Error { .. } => Self::refuse(conn_id, "unexpected_message", &mut replies),
        }
        // Stream the kept SLO cuts this connection has not been sent,
        // from the live service or the final drained stream: each at
        // most once, and none that is still kept skipped.
        if cs.want_slo {
            let (first, fresh): (u64, Vec<WireSlo>) = match (st.svc.as_ref(), st.drained.as_ref()) {
                (Some(svc), _) => {
                    let svc = svc.service();
                    let first = svc.slo_reports_dropped();
                    let skip = cs.slo_cursor.saturating_sub(first) as usize;
                    let kept = svc.slo_reports().get(skip..).unwrap_or_default();
                    (first + skip as u64, kept.iter().map(wire_slo).collect())
                }
                (None, Some(d)) => {
                    let skip = cs.slo_cursor.saturating_sub(d.slo_first) as usize;
                    let kept = d.slo.get(skip..).unwrap_or_default();
                    (d.slo_first + skip as u64, kept.to_vec())
                }
                (None, None) => (cs.slo_cursor, Vec::new()),
            };
            cs.slo_cursor = cs.slo_cursor.max(first + fresh.len() as u64);
            replies.extend(fresh.into_iter().map(Msg::SloPush));
        }
        replies
    }
}
