//! The cluster front door: [`RouterServer`] puts a [`Router`] on a
//! socket speaking the ordinary [`latch_proto`] client protocol, so a
//! `latch-client` pointed at the router cannot tell it from a single
//! `latchd` node.
//!
//! One accept loop, one handler thread per connection, all sharing the
//! deterministic [`Router`] behind a mutex — the same discipline as
//! `latch-serve`'s `WireServer`. A heartbeat thread drives
//! [`Router::tick`] on a fixed cadence; when a node exhausts its miss
//! budget (or a forward fails mid-submit), the [`Exporter`] callback is
//! asked for the dead node's surviving durable state and
//! [`Router::fail_over`] ships it to the new owners, after which the
//! failed submit is retried once — the route's skip accounting
//! guarantees an admitted-but-unacked batch is never applied twice.

use crate::{Router, RouterError, TakeoverRecord};
use latch_client::Client;
use latch_obs::TraceEvent;
use latch_proto::{error_code, write_msg, Endpoint, Msg, ProtoError};
use latch_serve::SessionExport;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Produces a dead node's exported sessions for failover — typically
/// by opening the node's surviving storage directory and calling
/// [`latch_serve::export_sessions`].
pub type Exporter = Box<dyn FnMut(u32) -> Vec<SessionExport> + Send + 'static>;

/// Front-door tuning knobs for the router process.
#[derive(Debug, Clone, Copy)]
pub struct RouterServerConfig {
    /// Cap on the per-connection in-flight window, in events.
    pub max_window_events: u32,
    /// Heartbeat cadence for the health-check thread.
    /// `Duration::ZERO` disables the thread — deaths are then detected
    /// only by failed forwards (what the deterministic tests use).
    pub heartbeat: Duration,
    /// How many node deaths one `Drain` request will fail over before
    /// answering `DRAIN_TIMEOUT` (the client retries the drain, which
    /// is idempotent).
    pub drain_failover_retries: u32,
    /// Consecutive primary-heartbeat misses a standby tolerates before
    /// taking over (only used by
    /// [`start_standby`](RouterServer::start_standby)).
    pub standby_miss_budget: u32,
}

impl Default for RouterServerConfig {
    fn default() -> Self {
        Self {
            max_window_events: 1 << 14,
            heartbeat: Duration::from_millis(25),
            drain_failover_retries: 4,
            standby_miss_budget: 3,
        }
    }
}

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

    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    /// Closes both directions: a handler blocked on the socket returns
    /// at once, and the peer reads end-of-stream.
    fn close(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Both),
            Conn::Unix(s) => s.shutdown(Shutdown::Both),
        };
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

struct Inner {
    router: Router,
    exporter: Exporter,
    /// Per-node export cache for stall retries: the exporter walks the
    /// dead node's surviving storage, which is pure once the node is
    /// dead, so a stalled failover's retries reuse the first export
    /// instead of re-scanning. Keyed by node and invalidated whenever a
    /// failover for that node *succeeds* — equivalent to a
    /// `(node, epoch)` key, since a node revived by a planned rejoin
    /// can only die again after the previous death's failover finished.
    export_cache: BTreeMap<u32, Vec<SessionExport>>,
    /// Session → report bytes, cached by the first successful drain.
    drained: Option<BTreeMap<u64, Vec<u8>>>,
    conn_seq: u64,
}

/// The cached (or freshly produced) export for a dead node.
fn exports_for(st: &mut Inner, node: u32) -> Vec<SessionExport> {
    if let Some(cached) = st.export_cache.get(&node) {
        latch_obs::counter_inc("router.failover.export_cache_hits");
        return cached.clone();
    }
    let exports = (st.exporter)(node);
    st.export_cache.insert(node, exports.clone());
    exports
}

struct Shared {
    state: Mutex<Inner>,
    stop: AtomicBool,
    /// Set once a handler has written a `Drained` reply, or failed to
    /// write it. The drained cache itself is set earlier, under the
    /// state lock, before the reply goes out.
    drain_replied: AtomicBool,
    /// False while a standby waits for its takeover: client-facing
    /// commands answer [`error_code::STANDBY`] until it flips.
    active: AtomicBool,
    /// Each live client connection with its handler thread. A handler
    /// blocked in a read would still serve a frame that arrives before
    /// its poll ends, so a stop closes the socket under it and joins it.
    handlers: Mutex<Vec<(Conn, JoinHandle<()>)>>,
    cfg: RouterServerConfig,
}

/// Runs the routing core's takeover under the server lock and, on
/// success, flips the server active.
fn promote_shared(shared: &Shared) -> Result<TakeoverRecord, RouterError> {
    let rec = {
        let mut st = shared.state.lock().expect("router state");
        st.router.takeover()
    }?;
    shared.active.store(true, Ordering::SeqCst);
    Ok(rec)
}

/// A running cluster front door. Dropping the server (or calling
/// [`shutdown`](Self::shutdown)) stops the accept loop and the
/// heartbeat thread, closes every client connection and joins its
/// handler, so a stopped router forwards nothing and fails no node
/// over.
pub struct RouterServer {
    shared: Arc<Shared>,
    endpoint: Endpoint,
    accept: Option<JoinHandle<()>>,
    heartbeat: Option<JoinHandle<()>>,
}

impl RouterServer {
    /// Binds `endpoint` and starts the accept loop (and, with a
    /// non-zero heartbeat cadence, the health-check thread) over
    /// `router`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (`io::Error`).
    pub fn start(
        endpoint: &Endpoint,
        router: Router,
        exporter: Exporter,
        cfg: RouterServerConfig,
    ) -> io::Result<Self> {
        Self::start_inner(endpoint, router, exporter, cfg, None)
    }

    /// Binds `endpoint` as a **warm standby** over `router`: client
    /// commands answer [`error_code::STANDBY`] while a monitor thread
    /// heartbeats the primary at `peer`; once
    /// [`RouterServerConfig::standby_miss_budget`] consecutive pings
    /// miss, the standby runs [`Router::takeover`] (retrying until it
    /// lands), flips active, and assumes the normal heartbeat duty.
    /// With a zero heartbeat cadence no monitor runs — deterministic
    /// tests drive the promotion themselves via
    /// [`promote`](Self::promote).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (`io::Error`).
    pub fn start_standby(
        endpoint: &Endpoint,
        router: Router,
        exporter: Exporter,
        cfg: RouterServerConfig,
        peer: Endpoint,
    ) -> io::Result<Self> {
        Self::start_inner(endpoint, router, exporter, cfg, Some(peer))
    }

    fn start_inner(
        endpoint: &Endpoint,
        router: Router,
        exporter: Exporter,
        cfg: RouterServerConfig,
        standby_peer: Option<Endpoint>,
    ) -> io::Result<Self> {
        let listener = Listener::bind(endpoint)?;
        let bound = listener.local_endpoint();
        let shared = Arc::new(Shared {
            state: Mutex::new(Inner {
                router,
                exporter,
                export_cache: BTreeMap::new(),
                drained: None,
                conn_seq: 0,
            }),
            stop: AtomicBool::new(false),
            drain_replied: AtomicBool::new(false),
            active: AtomicBool::new(standby_peer.is_none()),
            handlers: Mutex::new(Vec::new()),
            cfg,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
        let heartbeat = if cfg.heartbeat.is_zero() {
            None
        } else {
            let hb_shared = Arc::clone(&shared);
            Some(std::thread::spawn(move || match standby_peer {
                Some(peer) => standby_loop(&hb_shared, &peer),
                None => heartbeat_loop(&hb_shared),
            }))
        };
        Ok(Self {
            shared,
            endpoint: bound,
            accept: Some(accept),
            heartbeat,
        })
    }

    /// Whether this server is answering client commands (always true
    /// for a primary; true for a standby only after its takeover).
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Promotes a standby by hand: runs [`Router::takeover`] under the
    /// server lock and flips the server active on success — what the
    /// monitor thread does on miss-budget exhaustion, exposed for
    /// deterministic (zero-heartbeat) tests.
    ///
    /// # Errors
    ///
    /// Whatever [`Router::takeover`] returns; the server stays in
    /// standby refusal mode and the promotion can be retried.
    pub fn promote(&self) -> Result<TakeoverRecord, RouterError> {
        promote_shared(&self.shared)
    }

    /// The endpoint actually bound — for `tcp:HOST:0` this carries the
    /// kernel-assigned port.
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The bound TCP socket address (`None` on a Unix listener); tests
    /// bind port 0 and read the kernel's choice back from here.
    #[must_use]
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        match &self.endpoint {
            Endpoint::Tcp(addr) => addr.parse().ok(),
            Endpoint::Unix(_) => None,
        }
    }

    /// Runs `f` on the routing core under the server lock — how tests
    /// read the migration history out of a live server.
    pub fn with_router<R>(&self, f: impl FnOnce(&mut Router) -> R) -> R {
        let mut st = self.shared.state.lock().expect("router state");
        f(&mut st.router)
    }

    /// Whether a client has drained the cluster through this router
    /// and its `Drained` reply has been written (or has failed to
    /// write), so a process that exits on it never drops the reply.
    #[must_use]
    pub fn drained(&self) -> bool {
        self.shared.drain_replied.load(Ordering::SeqCst)
    }

    /// Stops the accept loop and the heartbeat thread, closes every
    /// client connection, and joins all of their threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // No handler starts once the accept loop has returned.
        let handlers = std::mem::take(&mut *self.shared.handlers.lock().expect("handlers"));
        for (conn, _) in &handlers {
            conn.close();
        }
        for (_, h) in handlers {
            let _ = h.join();
        }
        if let Some(h) = self.heartbeat.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RouterServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

const ACCEPT_POLL: Duration = Duration::from_millis(2);
const READ_POLL: Duration = Duration::from_millis(20);

fn accept_loop(listener: &Listener, shared: &Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(conn) => {
                // A connection the server could not close at shutdown
                // is never served.
                let Ok(closer) = conn.try_clone() else {
                    continue;
                };
                let conn_id = {
                    let mut st = shared.state.lock().expect("router state");
                    st.conn_seq += 1;
                    st.conn_seq
                };
                latch_obs::counter_inc("router.wire.conns");
                latch_obs::emit("router", TraceEvent::ConnOpen { conn: conn_id });
                let handler_shared = Arc::clone(shared);
                let handler =
                    std::thread::spawn(move || handle_conn(conn, conn_id, &handler_shared));
                let mut handlers = shared.handlers.lock().expect("handlers");
                handlers.retain(|(_, h)| !h.is_finished());
                handlers.push((closer, handler));
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

/// Bound on one standby-to-primary heartbeat dial.
const PEER_CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// The standby's half-life: heartbeat the primary until the miss
/// budget runs out, then take over (retrying — the nodes may be
/// mid-restart themselves) and become the cluster's heartbeat.
fn standby_loop(shared: &Arc<Shared>, peer: &Endpoint) {
    let mut misses = 0u32;
    let mut token = 0u64;
    let mut conn: Option<Client> = None;
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(shared.cfg.heartbeat);
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        token += 1;
        if conn.is_none() {
            conn = Client::connect_with_timeout(peer, 16, false, PEER_CONNECT_TIMEOUT).ok();
        }
        let ok = conn
            .as_mut()
            .is_some_and(|c| c.ping(token).is_ok_and(|t| t == token));
        if ok {
            misses = 0;
            continue;
        }
        conn = None;
        misses += 1;
        latch_obs::counter_inc("router.standby.peer_misses");
        if misses <= shared.cfg.standby_miss_budget {
            continue;
        }
        while !shared.stop.load(Ordering::SeqCst) {
            match promote_shared(shared) {
                Ok(_) => {
                    heartbeat_loop(shared);
                    return;
                }
                Err(_) => {
                    latch_obs::counter_inc("router.standby.takeover_retries");
                    std::thread::sleep(shared.cfg.heartbeat);
                }
            }
        }
        return;
    }
}

fn heartbeat_loop(shared: &Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(shared.cfg.heartbeat);
        let mut st = shared.state.lock().expect("router state");
        for node in st.router.tick() {
            let exports = exports_for(&mut st, node);
            if st.router.fail_over(node, exports).is_err() {
                // The router recorded the stall (a `failover_stall`
                // trace event plus the `router.failover.stalls`
                // counter) and keeps the unmigrated sessions pinned;
                // tick() re-returns the node on the next heartbeat, so
                // the failover retries with the cached export until
                // every session is re-pinned. Submits answer NodeDown
                // in the meantime.
                latch_obs::counter_inc("router.heartbeat.failover_retries");
            } else {
                st.export_cache.remove(&node);
            }
        }
    }
}

/// Same idle-polling read discipline as `latch-serve`'s front door: at
/// a frame boundary a timeout also checks the stop flag and clean EOF
/// closes quietly; mid-frame, timeouts keep waiting and EOF is a typed
/// truncation.
fn read_full_poll(
    conn: &mut Conn,
    buf: &mut [u8],
    idle_ok: bool,
    stop: &AtomicBool,
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
                if got == 0 && idle_ok && stop.load(Ordering::SeqCst) {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e.kind())),
        }
    }
    Ok(true)
}

fn read_frame_msg(conn: &mut Conn, stop: &AtomicBool) -> Result<Option<Msg>, ProtoError> {
    let mut header = [0u8; latch_proto::FRAME_HEADER_LEN];
    if !read_full_poll(conn, &mut header, true, stop)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
    if len > latch_proto::MAX_FRAME_PAYLOAD {
        return Err(ProtoError::OversizedFrame { len: len as u64 });
    }
    let mut frame = vec![0u8; latch_proto::FRAME_HEADER_LEN + len];
    frame[..latch_proto::FRAME_HEADER_LEN].copy_from_slice(&header);
    read_full_poll(conn, &mut frame[latch_proto::FRAME_HEADER_LEN..], false, stop)?;
    let (payload, _consumed) = latch_proto::frame_payload(&frame)?;
    Msg::decode_payload(payload).map(Some)
}

struct ConnState {
    admitted: u64,
    frames: u64,
}

fn handle_conn(mut conn: Conn, conn_id: u64, shared: &Shared) {
    let _ = conn.set_read_timeout(READ_POLL);
    let mut cs = match handshake(&mut conn, conn_id, shared) {
        Some(cs) => cs,
        None => {
            latch_obs::emit(
                "router",
                TraceEvent::ConnClose {
                    conn: conn_id,
                    frames: 0,
                },
            );
            return;
        }
    };
    loop {
        // Frame-boundary stop check — same rationale as the node front
        // door: back-to-back frames must not outlive a shutdown.
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let msg = match read_frame_msg(&mut conn, &shared.stop) {
            Ok(Some(msg)) => msg,
            Ok(None) => break,
            Err(err) => {
                fail_closed(&mut conn, conn_id, err.reason());
                break;
            }
        };
        cs.frames += 1;
        let replies = process_msg(msg, conn_id, &mut cs, shared);
        let mut dead = false;
        for reply in &replies {
            if write_msg(&mut conn, reply).is_err() {
                dead = true;
                break;
            }
        }
        if replies.iter().any(|r| matches!(r, Msg::Drained { .. })) {
            shared.drain_replied.store(true, Ordering::SeqCst);
        }
        if dead {
            break;
        }
    }
    latch_obs::emit(
        "router",
        TraceEvent::ConnClose {
            conn: conn_id,
            frames: cs.frames,
        },
    );
}

fn handshake(conn: &mut Conn, conn_id: u64, shared: &Shared) -> Option<ConnState> {
    match read_frame_msg(conn, &shared.stop) {
        Ok(Some(Msg::Hello { window_events, .. })) => {
            let window = window_events.clamp(1, shared.cfg.max_window_events);
            let ack = Msg::HelloAck {
                version: latch_proto::PROTO_VERSION,
                window_events: window,
            };
            if write_msg(conn, &ack).is_err() {
                return None;
            }
            Some(ConnState {
                admitted: 0,
                frames: 1,
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
    latch_obs::counter_inc("router.wire.rejects");
    latch_obs::emit(
        "router",
        TraceEvent::WireReject {
            conn: conn_id,
            reason,
        },
    );
    let _ = write_msg(
        conn,
        &Msg::Error {
            code: error_code::MALFORMED,
        },
    );
}

/// One forward with at-most-one failover retry: a `NodeDown` answer
/// exports the dead node's sessions, fails them over, and retries the
/// same batch (the route's skip accounting swallows it if the dead
/// node had already admitted it).
fn submit_with_failover(
    st: &mut Inner,
    session: u64,
    rank: u8,
    events: &[latch_sim::event::Event],
) -> Result<(), RouterError> {
    for attempt in 0..2 {
        match st.router.submit(session, rank, events) {
            Ok(()) => return Ok(()),
            Err(RouterError::NodeDown { node }) if attempt == 0 => {
                let exports = exports_for(st, node);
                st.router.fail_over(node, exports)?;
                st.export_cache.remove(&node);
            }
            Err(e) => return Err(e),
        }
    }
    Err(RouterError::NoNodes)
}

fn process_msg(msg: Msg, conn_id: u64, cs: &mut ConnState, shared: &Shared) -> Vec<Msg> {
    let mut replies = Vec::with_capacity(1);
    if !shared.active.load(Ordering::SeqCst)
        && matches!(
            msg,
            Msg::Submit { .. } | Msg::Drain | Msg::Report { .. } | Msg::SessionCursor { .. }
        )
    {
        // A standby that has not taken over answers nothing of
        // substance: the typed refusal tells an HA client to try the
        // next endpoint (or wait for the takeover to land).
        latch_obs::counter_inc("router.wire.standby_refusals");
        replies.push(Msg::Error {
            code: error_code::STANDBY,
        });
        return replies;
    }
    let mut st = shared.state.lock().expect("router state");
    match msg {
        Msg::Submit {
            session,
            priority,
            events,
        } => {
            if st.drained.is_some() {
                replies.push(Msg::SubmitRejected {
                    session,
                    rejected: latch_proto::WireRejected::ShuttingDown,
                });
            } else {
                let n = events.len() as u64;
                match submit_with_failover(&mut st, session, priority, &events) {
                    Ok(()) => {
                        cs.admitted += n;
                        replies.push(Msg::SubmitOk {
                            session,
                            admitted: cs.admitted,
                        });
                    }
                    Err(RouterError::Rejected(rejected)) => {
                        latch_obs::counter_inc("router.wire.rejects");
                        latch_obs::emit(
                            "router",
                            TraceEvent::WireReject {
                                conn: conn_id,
                                reason: "node_rejected",
                            },
                        );
                        replies.push(Msg::SubmitRejected { session, rejected });
                    }
                    Err(RouterError::StaleRouter { epoch }) => {
                        // This router has been fenced off by a newer
                        // one; nothing was applied. Surface the typed
                        // refusal so the client walks its endpoint
                        // list.
                        latch_obs::counter_inc("router.wire.fenced");
                        replies.push(Msg::StaleRouter { epoch });
                    }
                    Err(_) => replies.push(Msg::Error {
                        code: error_code::PROTOCOL,
                    }),
                }
            }
        }
        Msg::Drain => {
            // A node death discovered by the drain's liveness probe is
            // failed over and the drain retried — node drains are
            // idempotent, so nodes a previous attempt consumed just
            // re-serve their cached reports.
            let mut failovers = 0u32;
            while st.drained.is_none() {
                match st.router.drain() {
                    Ok(reports) => st.drained = Some(reports.into_iter().collect()),
                    Err(RouterError::NodeDown { node })
                        if failovers < shared.cfg.drain_failover_retries =>
                    {
                        failovers += 1;
                        let exports = exports_for(&mut st, node);
                        if st.router.fail_over(node, exports).is_err() {
                            break;
                        }
                        st.export_cache.remove(&node);
                    }
                    Err(RouterError::StaleRouter { epoch }) => {
                        latch_obs::counter_inc("router.wire.fenced");
                        replies.push(Msg::StaleRouter { epoch });
                        return replies;
                    }
                    Err(_) => break,
                }
            }
            match st.drained.as_ref() {
                Some(d) => replies.push(Msg::Drained {
                    reports: d.iter().map(|(&s, bytes)| (s, bytes.clone())).collect(),
                }),
                None => replies.push(Msg::Error {
                    code: error_code::DRAIN_TIMEOUT,
                }),
            }
        }
        Msg::Report { session } => {
            if st.drained.is_none() {
                replies.push(Msg::Error {
                    code: error_code::NOT_DRAINED,
                });
            } else {
                match st.router.report(session) {
                    Ok((applied, report)) => replies.push(Msg::ReportData {
                        session,
                        applied,
                        report,
                    }),
                    Err(RouterError::StaleRouter { epoch }) => {
                        latch_obs::counter_inc("router.wire.fenced");
                        replies.push(Msg::StaleRouter { epoch });
                    }
                    Err(_) => replies.push(Msg::Error {
                        code: error_code::PROTOCOL,
                    }),
                }
            }
        }
        Msg::Ping { token } => replies.push(Msg::Pong { token }),
        Msg::NodeHello { node: _, token } => {
            latch_obs::counter_inc("router.wire.node_hellos");
            replies.push(Msg::Pong { token });
        }
        Msg::SessionCursor { session } => {
            // A reconnecting client resolving an orphaned in-flight
            // batch: how many events has this router acked?
            replies.push(Msg::CursorAck {
                session,
                admitted: st.router.session_admitted(session),
            });
        }
        // The router never imports sessions itself; migration,
        // replication, and adoption frames target nodes.
        Msg::MigrateSession { .. }
        | Msg::MigrateAck { .. }
        | Msg::MigrateChunk { .. }
        | Msg::MigrateChunkAck { .. }
        | Msg::ReplFrame { .. }
        | Msg::ReplAck { .. }
        | Msg::ReplFetch { .. }
        | Msg::ReplState { .. }
        | Msg::Adopt { .. }
        | Msg::AdoptAck { .. }
        | Msg::SurveyReplicas
        | Msg::ReplicaSurvey { .. }
        | Msg::StaleRouter { .. }
        | Msg::CursorAck { .. }
        | Msg::Hello { .. }
        | Msg::HelloAck { .. }
        | Msg::SubmitOk { .. }
        | Msg::SubmitRejected { .. }
        | Msg::ReportData { .. }
        | Msg::SloPush(_)
        | Msg::Drained { .. }
        | Msg::Pong { .. }
        | Msg::Error { .. } => {
            latch_obs::counter_inc("router.wire.rejects");
            latch_obs::emit(
                "router",
                TraceEvent::WireReject {
                    conn: conn_id,
                    reason: "unexpected_message",
                },
            );
            replies.push(Msg::Error {
                code: error_code::PROTOCOL,
            });
        }
    }
    replies
}
