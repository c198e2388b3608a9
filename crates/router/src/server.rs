//! The cluster front door: [`RouterServer`] puts a [`Router`] on a
//! socket speaking the ordinary [`latch_proto`] client protocol, so a
//! `latch-client` pointed at the router cannot tell it from a single
//! `latchd` node.
//!
//! It runs the same loop as `latch-serve`'s `WireServer`: a
//! [`FrontDoor`] with one handler thread per connection, all sharing
//! the deterministic [`Router`] behind a mutex. A heartbeat thread
//! drives [`Router::tick`] on a fixed cadence; when a node exhausts its
//! miss budget (or a forward fails mid-submit), the [`Exporter`]
//! callback is asked for the dead node's surviving durable state and
//! [`Router::fail_over`] ships it to the new owners, after which the
//! failed submit is retried once — the route's skip accounting
//! guarantees an admitted-but-unacked batch is never applied twice.

use crate::{Router, RouterError, TakeoverRecord};
use latch_client::Client;
use latch_proto::{error_code, Endpoint, Msg};
use latch_serve::wire::{FrontDoor, Handler, Shared};
use latch_serve::SessionExport;
use std::collections::BTreeMap;
use std::io;
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

/// The router's [`Handler`]: the routing core and the standby switch.
/// A connection's state is the events it has had acked.
struct Core {
    state: Mutex<Inner>,
    /// False while a standby waits for its takeover: client-facing
    /// commands answer [`error_code::STANDBY`] until it flips.
    active: AtomicBool,
    cfg: RouterServerConfig,
}

impl Core {
    fn state(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.state.lock().expect("router state")
    }

    /// Runs the routing core's takeover under the server lock and, on
    /// success, flips the server active.
    fn promote(&self) -> Result<TakeoverRecord, RouterError> {
        let rec = self.state().router.takeover()?;
        self.active.store(true, Ordering::SeqCst);
        Ok(rec)
    }
}

/// A running cluster front door. Dropping the server (or calling
/// [`shutdown`](Self::shutdown)) stops the accept loop and the
/// heartbeat thread, closes every client connection and joins its
/// handler, so a stopped router forwards nothing and fails no node
/// over.
pub struct RouterServer {
    door: FrontDoor<Core>,
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
        let core = Core {
            state: Mutex::new(Inner {
                router,
                exporter,
                export_cache: BTreeMap::new(),
                drained: None,
            }),
            active: AtomicBool::new(standby_peer.is_none()),
            cfg,
        };
        let door = FrontDoor::start(endpoint, cfg.max_window_events, core)?;
        let heartbeat = if cfg.heartbeat.is_zero() {
            None
        } else {
            let hb_shared = Arc::clone(door.shared());
            Some(std::thread::spawn(move || match standby_peer {
                Some(peer) => standby_loop(&hb_shared, &peer),
                None => heartbeat_loop(&hb_shared),
            }))
        };
        Ok(Self { door, heartbeat })
    }

    /// Whether this server is answering client commands (always true
    /// for a primary; true for a standby only after its takeover).
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.core().active.load(Ordering::SeqCst)
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
        self.core().promote()
    }

    /// The endpoint actually bound — for `tcp:HOST:0` this carries the
    /// kernel-assigned port.
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        self.door.endpoint()
    }

    /// The bound TCP socket address (`None` on a Unix listener); tests
    /// bind port 0 and read the kernel's choice back from here.
    #[must_use]
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        self.door.local_addr()
    }

    /// Runs `f` on the routing core under the server lock — how tests
    /// read the migration history out of a live server.
    pub fn with_router<R>(&self, f: impl FnOnce(&mut Router) -> R) -> R {
        f(&mut self.core().state().router)
    }

    /// Whether a client has drained the cluster through this router
    /// and its `Drained` reply has been written (or has failed to
    /// write), so a process that exits on it never drops the reply.
    #[must_use]
    pub fn drained(&self) -> bool {
        self.door.drained()
    }

    /// Stops the accept loop and the heartbeat thread, closes every
    /// client connection, and joins all of their threads: what
    /// dropping the server does.
    pub fn shutdown(self) {
        drop(self);
    }

    fn core(&self) -> &Core {
        self.door.shared().handler()
    }
}

impl Drop for RouterServer {
    fn drop(&mut self) {
        self.door.stop();
        if let Some(h) = self.heartbeat.take() {
            let _ = h.join();
        }
    }
}

/// Bound on one standby-to-primary heartbeat dial.
const PEER_CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// The standby's half-life: heartbeat the primary until the miss
/// budget runs out, then take over (retrying — the nodes may be
/// mid-restart themselves) and become the cluster's heartbeat.
fn standby_loop(shared: &Shared<Core>, peer: &Endpoint) {
    let core = shared.handler();
    let mut misses = 0u32;
    let mut token = 0u64;
    let mut conn: Option<Client> = None;
    while !shared.stopped() {
        std::thread::sleep(core.cfg.heartbeat);
        if shared.stopped() {
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
        if misses <= core.cfg.standby_miss_budget {
            continue;
        }
        while !shared.stopped() {
            match core.promote() {
                Ok(_) => {
                    heartbeat_loop(shared);
                    return;
                }
                Err(_) => {
                    latch_obs::counter_inc("router.standby.takeover_retries");
                    std::thread::sleep(core.cfg.heartbeat);
                }
            }
        }
        return;
    }
}

fn heartbeat_loop(shared: &Shared<Core>) {
    let core = shared.handler();
    loop {
        std::thread::sleep(core.cfg.heartbeat);
        if shared.stopped() {
            return;
        }
        let mut st = core.state();
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

impl Handler for Core {
    type ConnState = u64;
    const TRACK: &'static str = "router";
    const CONNS: &'static str = "router.wire.conns";
    const REJECTS: &'static str = "router.wire.rejects";

    fn open(&self, _window: u32, _want_slo: bool) -> u64 {
        0
    }

    fn process_msg(&self, msg: Msg, conn_id: u64, admitted: &mut u64) -> Vec<Msg> {
        let mut replies = Vec::with_capacity(1);
        if !self.active.load(Ordering::SeqCst)
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
        let mut st = self.state();
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
                            *admitted += n;
                            replies.push(Msg::SubmitOk {
                                session,
                                admitted: *admitted,
                            });
                        }
                        Err(RouterError::Rejected(rejected)) => {
                            Self::note_reject(conn_id, "node_rejected");
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
                            if failovers < self.cfg.drain_failover_retries =>
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
                Self::note_reject(conn_id, "unexpected_message");
                replies.push(Msg::Error {
                    code: error_code::PROTOCOL,
                });
            }
        }
        replies
    }
}
