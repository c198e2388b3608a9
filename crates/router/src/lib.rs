//! # latch-router
//!
//! The cluster front door: one router process accepts ordinary
//! [`latch_proto`] client connections and shards sessions across N
//! downstream `latchd` nodes with a seeded virtual-node
//! consistent-hash [`Ring`]. Forwarding is sticky — a session's first
//! placement pins it to its owner — and every placement, heartbeat
//! decision, and failover is deterministic in the ring seed plus the
//! observed node deaths, so a rerun against the same kill schedule
//! produces a byte-identical migration history.
//!
//! **Failover.** Nodes are health-checked with a miss-budget
//! heartbeat: every [`Router::tick`] pings each live node, a miss
//! increments its budget, and exhausting the budget — or any failed
//! forward — declares the node down. The sessions it owned move via
//! [`Router::fail_over`]: their durable state is read from the dead
//! node's surviving storage ([`latch_serve::export_sessions`]), staged
//! on the new ring owner as `MigrateChunk` frames (LTSE snapshot + raw
//! WAL suffix, the durability codecs unchanged), committed by one
//! `MigrateSession`, and imported there with the recovery scan. The
//! same staged chunks and one commit move every session state: backup
//! seeds, fetch answers, rebalance cuts and takeover restores. Because
//! recovery restores an *exact prefix* of the admitted stream, a
//! migrated session's drained report is byte-identical to a solo
//! pipeline run — the oracle `tests/failover.rs` and conformance leg 10
//! enforce.
//!
//! **Replication.** With [`RouterConfig::replicas`] > 0 each acked
//! batch is also journaled on the session's replica group, the next
//! distinct ring owners after its owner, before the client sees the
//! ack. The router keeps no copy of the journal: it holds one cursor
//! per group member, `(wal_len, journaled, seeded_bytes)`, and appends
//! the batch's WAL record at that cursor. A member with no cursor, one
//! that refused or disagreed, or one whose WAL has outgrown the state
//! it was seeded from is seeded whole from the owner instead. A backup
//! journal is the owner state it was seeded from plus the acked records
//! that followed, so it stays a valid recovery source and append target
//! whoever owns the session later.

use latch_client::{Client, ClientError, SessionState};
use latch_obs::TraceEvent;
use latch_proto::{migrate_into, Endpoint, WireRejected, MIGRATE_CHUNK_BYTES};
use latch_serve::{journal, Priority, SessionExport};
use latch_sim::event::Event;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Default bound on how long a router blocks dialing one node. A
/// blackholed (non-refusing) address must cost a beat, not the OS
/// connect timeout, because node I/O runs under the router's state
/// lock. Tunable via [`RouterConfig::connect_timeout`].
const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// A backup journal's WAL may grow to this many bytes, or to twice the
/// size of the state it was last seeded from if that is larger, before
/// the router reseeds it from the owner. The doubling keeps the seeds
/// of an owner that never snapshots geometric, so their total stays
/// linear in the session's history.
const REPL_WAL_FLOOR: u64 = 1 << 20;

mod ring;
pub mod server;

pub use ring::Ring;
pub use server::{Exporter, RouterServer, RouterServerConfig};

/// Router tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Seed for the ring's point placement (and heartbeat tokens).
    pub seed: u64,
    /// Virtual nodes per physical node on the ring.
    pub vnodes: u32,
    /// Consecutive heartbeat misses tolerated before a node is
    /// declared dead.
    pub miss_budget: u32,
    /// In-flight window requested on each per-node connection.
    pub window_events: u32,
    /// This router's id, announced to nodes in `NodeHello`.
    pub router_id: u64,
    /// Bound on dialing one node; a blackholed address costs this much,
    /// not the OS connect timeout.
    pub connect_timeout: Duration,
    /// Backups per session (the replica group is the owner plus this
    /// many of the next distinct ring owners). 0 disables replication:
    /// failover then requires the dead node's storage to survive.
    pub replicas: u32,
    /// The router generation this router starts at. Nodes remember the
    /// highest epoch that ever adopted them and refuse commands from
    /// anything lower with a typed `StaleRouter` — the fence that
    /// keeps a zombie primary from double-applying after a standby's
    /// [`Router::takeover`].
    pub epoch: u64,
    /// Unused: the router keeps no replication buffer, and a backup
    /// reseeds past a fixed floor or twice its seed.
    #[deprecated(note = "unused: the router keeps no replication buffer")]
    pub repl_wal_budget: usize,
}

impl Default for RouterConfig {
    #[allow(deprecated)]
    fn default() -> Self {
        Self {
            seed: 0,
            vnodes: 64,
            miss_budget: 3,
            window_events: 4096,
            router_id: 0,
            connect_timeout: DEFAULT_CONNECT_TIMEOUT,
            replicas: 0,
            epoch: 1,
            repl_wal_budget: 1 << 20,
        }
    }
}

/// Everything that can go wrong routing a request.
#[derive(Debug)]
pub enum RouterError {
    /// The ring has no live nodes left.
    NoNodes,
    /// The session's owner is down; run a failover and retry.
    NodeDown {
        /// The dead owner.
        node: u32,
    },
    /// The node refused the submission — typed and retryable, passed
    /// through from the wire.
    Rejected(WireRejected),
    /// A terminal client-side failure talking to a node.
    Wire(ClientError),
    /// A failover restored fewer events than this router had already
    /// acknowledged for the session — the dead owner lost durable
    /// state (its group commit never landed), so the session can no
    /// longer match its solo oracle and is refused rather than being
    /// allowed to silently diverge.
    AckedLost {
        /// The poisoned session.
        session: u64,
        /// Events this router had acked to clients.
        acked: u64,
        /// Events the importer actually restored.
        applied: u64,
    },
    /// A node refused this router's command because a newer router has
    /// adopted it: this router's epoch is below the node's high-water
    /// mark. Nothing was applied; this router must stop mutating the
    /// cluster (the node is healthy — it is *us* who are stale).
    StaleRouter {
        /// The node's epoch high-water mark.
        epoch: u64,
    },
}

impl RouterError {
    /// Typed reason label for trace events.
    fn reason(&self) -> &'static str {
        match self {
            RouterError::NoNodes => "no_nodes",
            RouterError::NodeDown { .. } => "node_down",
            RouterError::Rejected(_) => "rejected",
            RouterError::Wire(_) => "wire",
            RouterError::AckedLost { .. } => "acked_lost",
            RouterError::StaleRouter { .. } => "stale_router",
        }
    }
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::NoNodes => f.write_str("no live nodes on the ring"),
            RouterError::NodeDown { node } => write!(f, "node {node} is down"),
            RouterError::Rejected(r) => write!(f, "node rejected submission: {r}"),
            RouterError::Wire(e) => write!(f, "node connection failed: {e}"),
            RouterError::AckedLost {
                session,
                acked,
                applied,
            } => write!(
                f,
                "session {session} lost acked events in failover: \
                 acked {acked}, importer restored {applied}"
            ),
            RouterError::StaleRouter { epoch } => write!(
                f,
                "fenced: a newer router (epoch {epoch}) has adopted the cluster"
            ),
        }
    }
}

impl std::error::Error for RouterError {}

/// One completed session move: a failover migration or a planned
/// rebalance move, each kept in its own history in order. Reruns of the
/// same seed and schedule produce identical vectors — the conformance
/// legs diff them byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRecord {
    /// The router's heartbeat tick when the move ran.
    pub at_tick: u64,
    /// The session that moved.
    pub session: u64,
    /// The node it left (dead, draining or leaving).
    pub from_node: u32,
    /// The node that imported it.
    pub to_node: u32,
    /// Events the importer's pipeline restored (for a rebalance move,
    /// the cut-point the new owner resumes from).
    pub applied: u64,
}

/// One completed standby takeover: the epoch the cluster moved to and
/// the state rebuilt from the surviving nodes' surveys. Reruns of the
/// same seed, kill schedule, and admitted history produce an identical
/// record — `router_ha.rs` and the HA conformance leg diff it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TakeoverRecord {
    /// The epoch the cluster now runs at.
    pub epoch: u64,
    /// Nodes successfully adopted, sorted.
    pub adopted: Vec<u32>,
    /// Nodes found dead during the sweep, sorted.
    pub dead: Vec<u32>,
    /// `(session, owner, admitted)` for every rebuilt route, sorted by
    /// session id.
    pub sessions: Vec<(u64, u32, u64)>,
    /// Sessions found only in backup replica journals (their owner
    /// died with the old router) and restored to a live node, sorted.
    pub orphans: Vec<u64>,
}

struct Node {
    endpoint: Endpoint,
    conn: Option<Client>,
    misses: u32,
    alive: bool,
}

/// One replica-group member's cursor: the WAL bytes and events its
/// backup journal holds, and the size (blob + WAL) of the state it was
/// last seeded with.
#[derive(Debug, Clone, Copy)]
struct BackupCursor {
    wal_len: u64,
    journaled: u64,
    seeded_bytes: u64,
}

struct Route {
    owner: u32,
    /// Events acked (`SubmitOk`) for this session through this router.
    admitted: u64,
    /// Events of the last batch whose fate is unknown (the owner died
    /// between our write and its ack). Resolved by the next failover:
    /// the imported `applied` count tells whether the batch landed.
    in_doubt: u64,
    /// Events the caller will re-submit that the migrated state
    /// already contains; consumed without forwarding so an admitted
    /// batch is never applied twice.
    skip: u64,
    /// Set when a failover restored fewer events than `admitted` (the
    /// dead owner lost acked state): the importer's `applied` count at
    /// detection. A poisoned session answers [`RouterError::AckedLost`]
    /// instead of silently serving a diverged stream.
    lost: Option<u64>,
    /// The cursor of each replica-group member whose backup journal
    /// this router keeps current. A member keeps its cursor across
    /// owner moves and loses it when it leaves the group or fails a
    /// push.
    backups: BTreeMap<u32, BackupCursor>,
}

impl Route {
    fn new(owner: u32, admitted: u64) -> Self {
        Self {
            owner,
            admitted,
            in_doubt: 0,
            skip: 0,
            lost: None,
            backups: BTreeMap::new(),
        }
    }
}

/// The deterministic routing core. [`RouterServer`] puts it on a
/// socket; tests and the conformance leg drive it directly.
pub struct Router {
    cfg: RouterConfig,
    ring: Ring,
    nodes: BTreeMap<u32, Node>,
    routes: BTreeMap<u64, Route>,
    history: Vec<MigrationRecord>,
    rebalances: Vec<MigrationRecord>,
    /// Nodes whose failover failed partway (ring emptied, importer
    /// died mid-ship): [`tick`](Self::tick) re-returns them while any
    /// route is still pinned, so the heartbeat loop retries with a
    /// fresh export instead of stranding the sessions.
    pending_failover: BTreeSet<u32>,
    ticks: u64,
    /// The router generation this router currently claims. Bumped past
    /// every observed high-water mark by [`takeover`](Self::takeover).
    epoch: u64,
    takeovers: Vec<TakeoverRecord>,
}

impl Router {
    /// An empty router; add nodes before submitting.
    #[must_use]
    pub fn new(cfg: RouterConfig) -> Self {
        Self {
            cfg,
            ring: Ring::new(cfg.seed, cfg.vnodes),
            nodes: BTreeMap::new(),
            routes: BTreeMap::new(),
            history: Vec::new(),
            rebalances: Vec::new(),
            pending_failover: BTreeSet::new(),
            ticks: 0,
            epoch: cfg.epoch,
            takeovers: Vec::new(),
        }
    }

    /// Registers a node and its points on the ring. Connections are
    /// opened lazily on first use.
    pub fn add_node(&mut self, node: u32, endpoint: Endpoint) {
        self.ring.add_node(node);
        self.nodes.entry(node).or_insert(Node {
            endpoint,
            conn: None,
            misses: 0,
            alive: true,
        });
    }

    /// The node a session is (or would be) routed to.
    #[must_use]
    pub fn owner_of(&self, session: u64) -> Option<u32> {
        self.routes
            .get(&session)
            .map(|r| r.owner)
            .or_else(|| self.ring.owner(session))
    }

    /// Whether a node is currently considered live.
    #[must_use]
    pub fn is_alive(&self, node: u32) -> bool {
        self.nodes.get(&node).is_some_and(|n| n.alive)
    }

    /// Live node ids, sorted.
    #[must_use]
    pub fn alive_nodes(&self) -> Vec<u32> {
        self.nodes
            .iter()
            .filter(|(_, n)| n.alive)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Every completed migration, in failover order.
    #[must_use]
    pub fn migration_history(&self) -> &[MigrationRecord] {
        &self.history
    }

    /// Every completed standby takeover, in order.
    #[must_use]
    pub fn takeover_history(&self) -> &[TakeoverRecord] {
        &self.takeovers
    }

    /// The router generation this router currently claims.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Events acked (`SubmitOk`) for a session through this router —
    /// the cursor a reconnecting client compares against its own acked
    /// count to decide whether an orphaned batch landed. 0 for a
    /// session this router never placed.
    #[must_use]
    pub fn session_admitted(&self, session: u64) -> u64 {
        self.routes.get(&session).map_or(0, |r| r.admitted)
    }

    /// Every completed planned rebalance move, in cut-point order.
    /// Reruns of the same seed, membership changes, and submission
    /// schedule produce an identical vector.
    #[must_use]
    pub fn rebalance_history(&self) -> &[MigrationRecord] {
        &self.rebalances
    }

    /// Sessions poisoned by acked-event loss (a failover restored
    /// fewer events than this router had acknowledged), with the
    /// `(acked, applied)` counts at detection. Sorted by session id.
    #[must_use]
    pub fn lost_sessions(&self) -> Vec<(u64, u64, u64)> {
        self.routes
            .iter()
            .filter_map(|(&s, r)| r.lost.map(|applied| (s, r.admitted, applied)))
            .collect()
    }

    /// Heartbeat ticks run so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    fn mark_down(&mut self, node: u32, misses: u32) {
        let Some(n) = self.nodes.get_mut(&node) else {
            return;
        };
        if !n.alive {
            return;
        }
        n.alive = false;
        n.conn = None;
        latch_obs::counter_inc("router.nodes.down");
        latch_obs::emit("router", TraceEvent::NodeDown { node, misses });
    }

    /// Dials a node fresh: connect, `NodeHello`, then `Adopt` at this
    /// router's epoch. The node's quiescent session survey comes back
    /// with the adoption ack. A transport failure marks the node down;
    /// a `StaleRouter` refusal does *not* (the node is healthy — this
    /// router is the stale one).
    fn dial(&mut self, node: u32) -> Result<Vec<(u64, u64, u64, u8)>, RouterError> {
        let (window, router_id) = (self.cfg.window_events, self.cfg.router_id);
        let (connect_timeout, epoch) = (self.cfg.connect_timeout, self.epoch);
        let Some(n) = self.nodes.get_mut(&node) else {
            return Err(RouterError::NoNodes);
        };
        if !n.alive {
            return Err(RouterError::NodeDown { node });
        }
        match Client::connect_with_timeout(&n.endpoint, window, false, connect_timeout) {
            Ok(mut conn) => match conn
                .node_hello(router_id, 0)
                .and_then(|_| conn.adopt(epoch, router_id))
            {
                Ok(survey) => {
                    n.conn = Some(conn);
                    Ok(survey)
                }
                Err(ClientError::StaleRouter { epoch }) => {
                    Err(RouterError::StaleRouter { epoch })
                }
                Err(_) => {
                    self.mark_down(node, 0);
                    Err(RouterError::NodeDown { node })
                }
            },
            Err(_) => {
                self.mark_down(node, 0);
                Err(RouterError::NodeDown { node })
            }
        }
    }

    /// Borrows the node's connection, dialing (`NodeHello` + `Adopt`)
    /// it first if needed. A connect failure marks the node down.
    fn node_conn(&mut self, node: u32) -> Result<&mut Client, RouterError> {
        let needs_dial = match self.nodes.get(&node) {
            Some(n) => n.conn.is_none(),
            None => return Err(RouterError::NoNodes),
        };
        if needs_dial {
            self.dial(node)?;
        }
        match self.nodes.get_mut(&node) {
            Some(n) if n.alive => n
                .conn
                .as_mut()
                .ok_or(RouterError::NodeDown { node }),
            Some(_) => Err(RouterError::NodeDown { node }),
            None => Err(RouterError::NoNodes),
        }
    }

    /// Forwards one batch to the session's owner.
    ///
    /// # Errors
    ///
    /// [`RouterError::Rejected`] passes the node's typed refusal
    /// through (retryable, connection intact). [`RouterError::NodeDown`]
    /// means the owner died — the batch's fate is recorded as
    /// in-doubt; run [`fail_over`](Self::fail_over) and retry the same
    /// batch, which the resolution logic will skip if the old owner
    /// had already admitted it. [`RouterError::NoNodes`] when the ring
    /// is empty.
    pub fn submit(
        &mut self,
        session: u64,
        rank: u8,
        events: &[Event],
    ) -> Result<(), RouterError> {
        if events.is_empty() {
            return Ok(());
        }
        let owner = match self.routes.get(&session) {
            Some(r) => r.owner,
            None => {
                let owner = self.ring.owner(session).ok_or(RouterError::NoNodes)?;
                self.routes.insert(session, Route::new(owner, 0));
                latch_obs::counter_inc("router.ring.places");
                latch_obs::emit("router", TraceEvent::RingPlace { session, node: owner });
                owner
            }
        };
        let n = events.len() as u64;
        {
            let route = self.routes.get_mut(&session).expect("route just ensured");
            if let Some(applied) = route.lost {
                return Err(RouterError::AckedLost {
                    session,
                    acked: route.admitted,
                    applied,
                });
            }
            if route.skip >= n {
                // The migrated state already contains this batch (the
                // old owner admitted it right before dying).
                route.skip -= n;
                return Ok(());
            }
            route.skip = 0;
        }
        let reply = self.node_conn(owner)?.submit(session, rank, events);
        match reply {
            Ok(()) => {
                let route = self.routes.get_mut(&session).expect("route exists");
                let base = route.admitted;
                route.admitted += n;
                route.in_doubt = 0;
                // Synchronous: the batch is on every live group member
                // before the client sees its ack, and *only* acked
                // batches replicate — an in-doubt batch never leaks into
                // a backup journal, so a diskless restore is always the
                // exact acked prefix. The wire and the journal share
                // `WAL_MAX_PAYLOAD`, so any batch a node admitted also
                // encodes; a refusal would be a codec bug, not an input
                // condition.
                if self.cfg.replicas > 0 {
                    if let Ok(record) = journal::encode_record(base, events) {
                        self.replicate(session, base + n, Some((rank, base, &record)));
                    }
                }
                Ok(())
            }
            Err(ClientError::Rejected(rej)) => Err(RouterError::Rejected(rej)),
            Err(ClientError::StaleRouter { epoch }) => {
                // A typed refusal: the node applied nothing and is
                // healthy — a newer router owns it. Nothing is in
                // doubt; this router must simply stop.
                Err(RouterError::StaleRouter { epoch })
            }
            Err(_) => {
                let route = self.routes.get_mut(&session).expect("route exists");
                route.in_doubt = n;
                self.mark_down(owner, 0);
                Err(RouterError::NodeDown { node: owner })
            }
        }
    }

    /// Seeds every live replica-group member that holds no cursor (or
    /// one behind the acked count, after a failover counted an in-doubt
    /// batch as landed) from its session's owner, and drops the cursors
    /// of nodes that left the group. Every call that changes owners or
    /// membership ends here, so between router calls every acked batch
    /// is on its owner and on every live group member.
    fn repair(&mut self) {
        if self.cfg.replicas == 0 {
            return;
        }
        let routes: Vec<(u64, u64)> = self
            .routes
            .iter()
            .filter(|(_, r)| r.admitted > 0 && r.lost.is_none() && self.is_alive(r.owner))
            .map(|(&s, r)| (s, r.admitted))
            .collect();
        for (session, admitted) in routes {
            self.replicate(session, admitted, None);
        }
    }

    /// Brings every live member of `session`'s replica group — the next
    /// [`RouterConfig::replicas`] distinct ring owners after its owner —
    /// to `want` events, and drops the cursors of nodes that left the
    /// group. With `push`, the `(rank, base, record)` of a batch the
    /// owner just acked, a member whose cursor sits at `base` with its
    /// WAL under `max(REPL_WAL_FLOOR, 2 × seeded_bytes)` gets the record
    /// appended. Without one, a member whose cursor is at `want` is
    /// current. Every other member is seeded whole: with the WAL header
    /// and the record on the session's first batch, else with the
    /// owner's fetched state, which holds every acked batch. A member
    /// that cannot be brought current is dropped from the group with a
    /// `repl_lag` event rather than failing the caller: availability
    /// wins, and the next failover simply has one fewer source.
    fn replicate(&mut self, session: u64, want: u64, push: Option<(u8, u64, &[u8])>) {
        let owner = self.routes[&session].owner;
        let replicas = self.cfg.replicas as usize;
        let group: Vec<u32> = self
            .ring
            .owners(session, replicas + 1)
            .into_iter()
            .filter(|&b| b != owner && self.is_alive(b))
            .take(replicas)
            .collect();
        let route = self.routes.get_mut(&session).expect("route exists");
        route.backups.retain(|b, _| group.contains(b));
        let mut seed = match push {
            Some((rank, 0, record)) => {
                let priority = Priority::from_rank(rank).unwrap_or_default();
                let wal = [&journal::wal_header(session, priority)[..], record].concat();
                Some(Some(SessionState {
                    rank,
                    journaled: want,
                    blob: Vec::new(),
                    wal,
                }))
            }
            _ => None,
        };
        for node in group {
            let cursor = self.routes[&session].backups.get(&node).copied();
            let appended = match (cursor, push) {
                (Some(c), None) if c.journaled == want => continue,
                (Some(c), Some((rank, base, record))) if c.journaled == base => {
                    if c.wal_len < REPL_WAL_FLOOR.max(2 * c.seeded_bytes) {
                        self.append_backup(session, rank, node, c, record, want)
                    } else {
                        latch_obs::counter_inc("router.repl.compactions");
                        latch_obs::emit(
                            "router",
                            TraceEvent::ReplCompact {
                                session,
                                wal_bytes: c.wal_len,
                                journaled: want,
                            },
                        );
                        None
                    }
                }
                _ => None,
            };
            let synced = appended.or_else(|| self.seed_backup(session, owner, node, &mut seed));
            let backups = &mut self.routes.get_mut(&session).expect("route exists").backups;
            if let Some(c) = synced {
                backups.insert(node, c);
                continue;
            }
            let have = backups.remove(&node).map_or(0, |c| c.journaled);
            latch_obs::counter_inc("router.repl.lag");
            latch_obs::emit(
                "router",
                TraceEvent::ReplLag {
                    session,
                    node,
                    have,
                    want,
                },
            );
        }
    }

    /// Seeds backup `node` whole with the one transfer path, staged
    /// chunks committed into its backup store, and returns its cursor.
    /// The seed is `seed` when already known, else one non-expelling
    /// fetch of `owner`, kept in `seed` for the group's other members.
    fn seed_backup(
        &mut self,
        session: u64,
        owner: u32,
        node: u32,
        seed: &mut Option<Option<SessionState>>,
    ) -> Option<BackupCursor> {
        let state = seed
            .get_or_insert_with(|| {
                let conn = self.node_conn(owner).ok()?;
                conn.repl_fetch(session, false).ok().flatten()
            })
            .as_ref()?;
        let conn = self.node_conn(node).ok()?;
        latch_obs::counter_inc("router.repl.seeds");
        match conn.migrate_session(session, migrate_into::BACKUP, state) {
            Ok(journaled) => Some(BackupCursor {
                wal_len: state.wal.len() as u64,
                journaled,
                seeded_bytes: (state.blob.len() + state.wal.len()) as u64,
            }),
            Err(e) => {
                self.backup_failed(node, &e);
                None
            }
        }
    }

    /// Appends one WAL record at `cursor` on backup `node`, in frames
    /// of at most [`MIGRATE_CHUNK_BYTES`], and returns its new cursor.
    /// Every frame but the last carries the cursor's `journaled` count,
    /// the record boundary before it, so a torn push never overcounts.
    /// `None` when the backup refused a frame, disagrees with our
    /// cursor at the end, or failed.
    fn append_backup(
        &mut self,
        session: u64,
        rank: u8,
        node: u32,
        cursor: BackupCursor,
        record: &[u8],
        want: u64,
    ) -> Option<BackupCursor> {
        let end = cursor.wal_len + record.len() as u64;
        let mut off = cursor.wal_len;
        let mut acked = (0, 0);
        for chunk in record.chunks(MIGRATE_CHUNK_BYTES) {
            let next = off + chunk.len() as u64;
            let journaled = if next == end { want } else { cursor.journaled };
            latch_obs::counter_inc("router.repl.frames");
            let conn = self.node_conn(node).ok()?;
            match conn.repl_frame(session, rank, off, journaled, chunk) {
                Ok((true, journaled, wal_len)) => acked = (journaled, wal_len),
                Ok((false, ..)) => return None,
                Err(e) => {
                    self.backup_failed(node, &e);
                    return None;
                }
            }
            off = next;
        }
        (acked == (want, end)).then_some(BackupCursor {
            wal_len: end,
            journaled: want,
            ..cursor
        })
    }

    /// A push to `node` failed. A typed refusal comes from a healthy
    /// node, so only other failures mark it down.
    fn backup_failed(&mut self, node: u32, e: &ClientError) {
        if !matches!(e, ClientError::Server { .. }) {
            self.mark_down(node, 0);
        }
    }

    /// One heartbeat pass: pings every live node, counts misses
    /// against the budget, and returns the nodes needing failover this
    /// tick (the caller fails them over with their exported state) —
    /// nodes newly declared dead, plus nodes whose earlier failover
    /// stalled partway and still pin routes.
    pub fn tick(&mut self) -> Vec<u32> {
        self.ticks += 1;
        let token = self.ticks;
        let budget = self.cfg.miss_budget;
        let ids: Vec<u32> = self.alive_nodes();
        let mut dead = Vec::new();
        for id in ids {
            let ok = match self.node_conn(id) {
                Ok(conn) => conn.ping(token).is_ok_and(|t| t == token),
                Err(_) => {
                    // A reconnect failure marks the node down inside
                    // node_conn — and since every ping miss clears the
                    // cached connection, this is the *normal* way a
                    // dead process is detected. Surface the death so
                    // the caller fails its sessions over.
                    if !self.is_alive(id) && !dead.contains(&id) {
                        dead.push(id);
                    }
                    continue;
                }
            };
            let Some(n) = self.nodes.get_mut(&id) else {
                continue;
            };
            if ok {
                n.misses = 0;
                continue;
            }
            n.misses += 1;
            n.conn = None;
            if n.misses > budget {
                let misses = n.misses;
                self.mark_down(id, misses);
                dead.push(id);
            }
        }
        // Stalled failovers retry until no route still points at the
        // node; once the last session is re-pinned the stall clears.
        let pending: Vec<u32> = self.pending_failover.iter().copied().collect();
        for node in pending {
            if self.routes.values().any(|r| r.owner == node) {
                if !dead.contains(&node) {
                    dead.push(node);
                }
            } else {
                self.pending_failover.remove(&node);
            }
        }
        dead
    }

    /// Fails a dead (or draining) node's sessions over: removes its
    /// ring points, ships each exported session to its new owner via
    /// `MigrateSession`, and re-pins the routes. Exports come from the
    /// node's surviving storage ([`latch_serve::export_sessions`]) —
    /// or from [`latch_serve::DurableService::export_session`] for a
    /// planned drain of a live node. Returns this failover's migration
    /// records, also appended to
    /// [`migration_history`](Self::migration_history).
    ///
    /// # Errors
    ///
    /// [`RouterError::NoNodes`] when no live node remains to import,
    /// [`RouterError::Wire`] when an import ships but its ack fails —
    /// already-completed migrations stay recorded either way. Any
    /// error leaves the unmigrated sessions pinned to the dead node,
    /// records a `failover_stall` trace event and counter, and marks
    /// the node pending so [`tick`](Self::tick) re-returns it for
    /// retry (failover is idempotent: sessions already re-pinned
    /// elsewhere are skipped on the next attempt).
    pub fn fail_over(
        &mut self,
        node: u32,
        exports: Vec<SessionExport>,
    ) -> Result<Vec<MigrationRecord>, RouterError> {
        let mut states: Vec<(u64, SessionState)> = exports
            .into_iter()
            .map(|e| {
                let state = SessionState {
                    rank: e.priority.rank(),
                    journaled: 0,
                    blob: e.blob,
                    wal: e.wal,
                };
                (e.session, state)
            })
            .collect();
        if self.cfg.replicas > 0 {
            // Diskless sourcing: any pinned session the surviving
            // storage did not yield is recovered from the freshest
            // backup journal in its replica group. With the disk
            // destroyed outright, *every* session takes this path.
            let covered: BTreeSet<u64> = states.iter().map(|&(s, _)| s).collect();
            let restored = self.restore_from_backups(node, &covered);
            states.extend(restored);
        }
        let moved = self.fail_over_inner(node, states);
        self.repair();
        match moved {
            Ok(records) => {
                self.pending_failover.remove(&node);
                Ok(records)
            }
            Err(e) => {
                self.pending_failover.insert(node);
                latch_obs::counter_inc("router.failover.stalls");
                latch_obs::emit(
                    "router",
                    TraceEvent::FailoverStall {
                        node,
                        reason: e.reason(),
                    },
                );
                Err(e)
            }
        }
    }

    fn fail_over_inner(
        &mut self,
        node: u32,
        mut states: Vec<(u64, SessionState)>,
    ) -> Result<Vec<MigrationRecord>, RouterError> {
        self.mark_down(node, 0);
        self.ring.remove_node(node);
        if self.ring.is_empty() {
            return Err(RouterError::NoNodes);
        }
        states.sort_by_key(|&(s, _)| s);
        let mut records = Vec::new();
        for (session, state) in states {
            // A session on the dead node's disk that this router
            // pinned elsewhere is stale state from before a previous
            // move; the live owner's copy wins.
            if self
                .routes
                .get(&session)
                .is_some_and(|r| r.owner != node)
            {
                continue;
            }
            let to = self.ring.owner(session).ok_or(RouterError::NoNodes)?;
            let applied = self.import(session, to, &state)?;
            let route = self.routes.entry(session).or_insert(Route::new(to, 0));
            route.owner = to;
            if route.in_doubt > 0 && applied >= route.admitted + route.in_doubt {
                // The in-doubt batch landed before the node died; the
                // caller's retry of it must be swallowed, not re-applied.
                route.admitted += route.in_doubt;
                route.skip = route.in_doubt;
            }
            route.in_doubt = 0;
            if applied < route.admitted && route.lost.is_none() {
                // The importer restored fewer events than this router
                // acked: the dead owner's group commit was lost. The
                // session can never again match its solo oracle —
                // poison it (submits and reports answer AckedLost)
                // instead of silently retrying the last batch on top
                // of a shorter prefix.
                route.lost = Some(applied);
                latch_obs::counter_inc("router.failover.acked_lost");
                latch_obs::emit(
                    "router",
                    TraceEvent::AckedLost {
                        session,
                        acked: route.admitted,
                        applied,
                    },
                );
            }
            records.push(self.record_migration(session, node, to, applied));
        }
        // Sessions routed to the dead node that left no durable files
        // (nothing was ever admitted): re-pin them; their retries
        // replay from zero on the new owner. A session we had *acked*
        // events for that left no files is acked loss, same as a short
        // import — poison it rather than replaying a diverged stream.
        let orphans: Vec<u64> = self
            .routes
            .iter()
            .filter(|(_, r)| r.owner == node)
            .map(|(&s, _)| s)
            .collect();
        for session in orphans {
            let to = self.ring.owner(session).ok_or(RouterError::NoNodes)?;
            let route = self.routes.get_mut(&session).expect("orphan route exists");
            route.owner = to;
            route.in_doubt = 0;
            if route.admitted > 0 && route.lost.is_none() {
                route.lost = Some(0);
                latch_obs::counter_inc("router.failover.acked_lost");
                latch_obs::emit(
                    "router",
                    TraceEvent::AckedLost {
                        session,
                        acked: route.admitted,
                        applied: 0,
                    },
                );
            }
            records.push(self.record_migration(session, node, to, 0));
        }
        Ok(records)
    }

    /// Imports `state` into node `to`'s live service, returning the
    /// events it restored.
    fn import(&mut self, session: u64, to: u32, state: &SessionState) -> Result<u64, RouterError> {
        self.node_conn(to)?
            .migrate_session(session, migrate_into::LIVE, state)
            .map_err(RouterError::Wire)
    }

    /// The one freshest-state walk, shared by diskless failover and
    /// takeover: probes each `(cursor, node)` candidate for `session`
    /// with a non-expelling fetch — freshest cursor first, ties to the
    /// higher node id, so reruns probe identically — and returns the
    /// freshest fetched state with its source. The fetched `journaled`
    /// count decides, not the cursor. Losing candidates keep their
    /// copies. A typed refusal (a state over the migration cap) comes
    /// from a healthy node: it skips the candidate without evicting it,
    /// or every probe of a long-lived session would cascade its backups
    /// into failover. Only other failures mark the candidate down.
    fn freshest_state(
        &mut self,
        session: u64,
        mut candidates: Vec<(u64, u32)>,
    ) -> Option<(u32, SessionState)> {
        candidates.sort_unstable();
        let mut best: Option<(u32, SessionState)> = None;
        for (_, b) in candidates.into_iter().rev() {
            let fetched = match self.node_conn(b) {
                Ok(conn) => conn.repl_fetch(session, false),
                Err(_) => continue,
            };
            match fetched {
                Ok(Some(state)) => {
                    if best
                        .as_ref()
                        .is_none_or(|(_, s)| state.journaled > s.journaled)
                    {
                        best = Some((b, state));
                    }
                }
                Ok(None) => {}
                Err(ClientError::Server { .. }) => {
                    latch_obs::counter_inc("router.repl.fetch_refusals");
                }
                Err(_) => self.mark_down(b, 0),
            }
        }
        best
    }

    /// Diskless failover source: for every session still pinned to the
    /// dead node without a surviving export, fetch the freshest backup
    /// journal among its group members' cursors. Because replication is
    /// synchronous (acked ⇒ journaled on every live group member, which
    /// `repair` restores after every move) the chosen journal covers
    /// exactly the acked prefix, so the recovery scan on the new owner
    /// restores a state byte-identical to what a surviving disk would
    /// have yielded. An acked session is never poisoned while any node
    /// that holds its journal survives.
    fn restore_from_backups(
        &mut self,
        node: u32,
        covered: &BTreeSet<u64>,
    ) -> Vec<(u64, SessionState)> {
        let pinned: Vec<(u64, Vec<(u64, u32)>)> = self
            .routes
            .iter()
            .filter(|(s, r)| r.owner == node && r.admitted > 0 && !covered.contains(s))
            .map(|(&session, r)| {
                let candidates = r
                    .backups
                    .iter()
                    .filter(|&(&b, _)| b != node && self.is_alive(b))
                    .map(|(&b, c)| (c.journaled, b))
                    .collect();
                (session, candidates)
            })
            .collect();
        let mut out = Vec::new();
        for (session, candidates) in pinned {
            if let Some((b, state)) = self.freshest_state(session, candidates) {
                latch_obs::counter_inc("router.repl.restores");
                latch_obs::emit(
                    "router",
                    TraceEvent::ReplRestore {
                        session,
                        node: b,
                        journaled: state.journaled,
                    },
                );
                out.push((session, state));
            }
        }
        out
    }

    fn record_migration(
        &mut self,
        session: u64,
        from_node: u32,
        to_node: u32,
        applied: u64,
    ) -> MigrationRecord {
        let rec = MigrationRecord {
            at_tick: self.ticks,
            session,
            from_node,
            to_node,
            applied,
        };
        latch_obs::counter_inc("router.migrations");
        latch_obs::emit(
            "router",
            TraceEvent::SessionMigrate {
                session,
                from_node,
                to_node,
                applied,
            },
        );
        self.history.push(rec);
        rec
    }

    /// Standby takeover: bump the epoch, adopt every registered node,
    /// and rebuild this router's state from the survivors' quiescent
    /// surveys. The ring is pure in (seed, membership, session), so
    /// placement needs no handoff — only the per-session cursors do.
    ///
    /// Steps, all deterministic (nodes are walked in sorted id order):
    ///
    /// 1. **Adopt sweep.** Dial every node with `Adopt{epoch}`. A node
    ///    that has seen a higher epoch answers `StaleRouter`; the sweep
    ///    restarts above that epoch (bounded retries — fencing, not
    ///    consensus: two live routers dueling here is an operator
    ///    error, and the loser returns [`RouterError::StaleRouter`]).
    ///    Unreachable nodes are the takeover's dead set.
    /// 2. **Route rebuild.** Each survey row becomes a route with
    ///    `admitted` = the node's applied count (the node was pumped
    ///    quiescent before answering, so applied == admitted). A
    ///    session surveyed by two nodes raced an in-flight migration;
    ///    the higher applied count wins.
    /// 3. **Dead-owner failover.** Sessions that exist only in
    ///    surviving replica journals (owner died *with* the old router)
    ///    are restored through the same freshest-state walk as
    ///    [`restore_from_backups`](Self::restore_from_backups) and
    ///    migrated to their ring owner.
    /// 4. **Group repair.** With replication on, a surveyed backup
    ///    whose journal holds the session's acked count gets a cursor
    ///    at it, and keeps its journal; every other live replica group
    ///    member is seeded from its session's owner.
    ///
    /// The returned [`TakeoverRecord`] is rerun-identical for a given
    /// cluster state and is also appended to
    /// [`takeover_history`](Self::takeover_history).
    ///
    /// # Errors
    ///
    /// [`RouterError::StaleRouter`] when the adopt sweep loses the
    /// epoch race repeatedly; [`RouterError::NoNodes`] when no node
    /// survives to adopt; [`RouterError::Wire`] when an orphan import
    /// ships but dies mid-ack. Takeover is idempotent — retry on any
    /// error and the next sweep starts from a fresh epoch.
    pub fn takeover(&mut self) -> Result<TakeoverRecord, RouterError> {
        let ids: Vec<u32> = self.nodes.keys().copied().collect();
        if ids.is_empty() {
            return Err(RouterError::NoNodes);
        }
        let mut target = self.epoch + 1;
        let mut surveys: BTreeMap<u32, Vec<(u64, u64, u64, u8)>> = BTreeMap::new();
        let mut dead: Vec<u32> = Vec::new();
        let mut converged = false;
        'sweep: for _ in 0..8u8 {
            surveys.clear();
            dead.clear();
            self.epoch = target;
            for &id in &ids {
                // Canonical membership first: a prior stalled attempt
                // may have evicted the node; `add_node` is idempotent
                // and the seeded ring's placement is order-free.
                self.ring.add_node(id);
                if let Some(n) = self.nodes.get_mut(&id) {
                    n.conn = None;
                    n.misses = 0;
                    n.alive = true;
                }
                match self.dial(id) {
                    Ok(survey) => {
                        surveys.insert(id, survey);
                    }
                    Err(RouterError::StaleRouter { epoch }) => {
                        // Lost the race: restart the whole sweep above
                        // the winner so every node lands on one epoch.
                        target = epoch.max(target) + 1;
                        continue 'sweep;
                    }
                    Err(_) => dead.push(id),
                }
            }
            converged = true;
            break;
        }
        if !converged {
            return Err(RouterError::StaleRouter { epoch: target });
        }
        if surveys.is_empty() {
            return Err(RouterError::NoNodes);
        }
        self.routes.clear();
        self.pending_failover.clear();
        for &d in &dead {
            self.ring.remove_node(d);
        }
        for (&node, survey) in &surveys {
            for &(session, applied, _admitted, _rank) in survey {
                // Two nodes surveying one session means the old router
                // died mid-migration; the higher applied count is the
                // copy the commit reached (or would have).
                let stale = self
                    .routes
                    .get(&session)
                    .is_some_and(|r| r.admitted >= applied);
                if stale {
                    continue;
                }
                self.routes.insert(session, Route::new(node, applied));
            }
        }
        let adopted: Vec<u32> = surveys.keys().copied().collect();
        let mut orphans: Vec<u64> = Vec::new();
        if self.cfg.replicas > 0 {
            // Sessions alive only in surviving replica journals: their
            // owner died with the old router — fail them over now.
            let mut candidates: BTreeMap<u64, Vec<(u64, u32)>> = BTreeMap::new();
            for &node in &adopted {
                let entries = match self.node_conn(node) {
                    Ok(conn) => conn.survey_replicas(),
                    Err(_) => continue,
                };
                let Ok(entries) = entries else {
                    self.mark_down(node, 0);
                    continue;
                };
                for (session, _rank, journaled, wal_len) in entries {
                    match self.routes.get_mut(&session) {
                        // A backup that holds every acked event is
                        // current: it keeps its journal, and `replicate`
                        // drops its cursor if it is outside the group.
                        // The survey does not report the size it was
                        // seeded with, so its WAL gets the bare
                        // `REPL_WAL_FLOOR` before it is reseeded.
                        Some(route) if route.admitted == journaled => {
                            route.backups.insert(
                                node,
                                BackupCursor {
                                    wal_len,
                                    journaled,
                                    seeded_bytes: 0,
                                },
                            );
                        }
                        Some(_) => {}
                        None => candidates.entry(session).or_default().push((journaled, node)),
                    }
                }
            }
            for (session, cands) in candidates {
                let Some((src, state)) = self.freshest_state(session, cands) else {
                    continue;
                };
                let to = self.ring.owner(session).ok_or(RouterError::NoNodes)?;
                let applied = self.import(session, to, &state)?;
                self.routes.insert(session, Route::new(to, applied));
                self.record_migration(session, src, to, applied);
                orphans.push(session);
            }
            self.repair();
        }
        let sessions: Vec<(u64, u32, u64)> = self
            .routes
            .iter()
            .map(|(&s, r)| (s, r.owner, r.admitted))
            .collect();
        let rec = TakeoverRecord {
            epoch: self.epoch,
            adopted,
            dead,
            sessions,
            orphans,
        };
        latch_obs::counter_inc("router.takeovers");
        latch_obs::emit(
            "router",
            TraceEvent::Takeover {
                epoch: rec.epoch,
                adopted: rec.adopted.len() as u32,
                dead: rec.dead.len() as u32,
                sessions: rec.sessions.len() as u64,
            },
        );
        self.takeovers.push(rec.clone());
        Ok(rec)
    }

    /// Planned join: adds (or revives) `node` and live-migrates the
    /// minimal remap set — exactly the sessions whose seeded-ring owner
    /// becomes the joiner — with the two-phase pre-copy / cut-point
    /// protocol of `rebalance_one`. No node drains: donors keep serving
    /// every non-moving session throughout, and each moving session's
    /// stream resumes on the new owner at the exact cut-point. Returns
    /// this rebalance's records, also appended to
    /// [`rebalance_history`](Self::rebalance_history), which reruns
    /// reproduce byte-identically.
    ///
    /// # Errors
    ///
    /// Any node error aborts the walk: sessions already moved stay
    /// moved (each cut-point is atomic per session), the rest keep
    /// their old owner, and a retry resumes them.
    pub fn rebalance_join(
        &mut self,
        node: u32,
        endpoint: Endpoint,
    ) -> Result<Vec<MigrationRecord>, RouterError> {
        match self.nodes.get_mut(&node) {
            Some(n) => {
                n.endpoint = endpoint;
                n.alive = true;
                n.misses = 0;
                n.conn = None;
            }
            None => {
                self.nodes.insert(
                    node,
                    Node {
                        endpoint,
                        conn: None,
                        misses: 0,
                        alive: true,
                    },
                );
            }
        }
        self.ring.add_node(node);
        self.pending_failover.remove(&node);
        let moving: Vec<u64> = self
            .routes
            .iter()
            .filter(|&(&s, r)| r.owner != node && self.ring.owner(s) == Some(node))
            .map(|(&s, _)| s)
            .collect();
        self.rebalance_all(moving)
    }

    /// Planned leave: removes `node` from the ring and live-migrates
    /// every session it owns to that session's new ring owner, two
    /// phases per session (see `rebalance_one`). The node itself is
    /// *not* marked dead — it keeps serving each session until its
    /// cut-point, then refuses it (the expel), and stays a live cluster
    /// member for the final drain (where its expelled sessions are
    /// filtered, so reports never duplicate).
    ///
    /// # Errors
    ///
    /// [`RouterError::NodeDown`] if the node is already dead (that is a
    /// failover, not a rebalance); [`RouterError::NoNodes`] when it is
    /// the last ring member (the ring is restored untouched). Partial
    /// failures leave moved sessions moved; a retry resumes the rest.
    pub fn rebalance_leave(&mut self, node: u32) -> Result<Vec<MigrationRecord>, RouterError> {
        if !self.is_alive(node) {
            return Err(RouterError::NodeDown { node });
        }
        self.ring.remove_node(node);
        if self.ring.is_empty() {
            self.ring.add_node(node);
            return Err(RouterError::NoNodes);
        }
        let moving: Vec<u64> = self
            .routes
            .iter()
            .filter(|(_, r)| r.owner == node)
            .map(|(&s, _)| s)
            .collect();
        self.rebalance_all(moving)
    }

    /// Moves each session in `moving` with `rebalance_one`, stopping at
    /// the first error, then repairs the replica groups the membership
    /// change reshaped (the leaver's journals go stale and leave every
    /// group with its points).
    fn rebalance_all(&mut self, moving: Vec<u64>) -> Result<Vec<MigrationRecord>, RouterError> {
        let moved = moving
            .into_iter()
            .map(|session| self.rebalance_one(session))
            .collect();
        self.repair();
        moved
    }

    /// Moves one session to its current ring owner without draining the
    /// old owner:
    ///
    /// 1. **Pre-copy** — the snapshot + WAL are fetched from the still
    ///    serving old owner (`ReplFetch`) and staged uncommitted on the
    ///    new owner as `MigrateChunk` frames.
    /// 2. **Cut-point** — the old owner exports-and-expels the session
    ///    atomically (every later submit there is refused), only the
    ///    WAL bytes grown since phase 1 are staged as a suffix, and a
    ///    `MigrateSession` commits the import. The router's state
    ///    lock sequences the cut against every concurrent submit, so no
    ///    batch lands between the expel and the route flip: no
    ///    double-apply, no lost suffix, no client-visible gap.
    ///
    /// The owner's maintenance may cut its journal between the
    /// phases (every pump runs it), invalidating the staged prefix;
    /// a RESTART chunk discards the staging on the same connection and
    /// the full cut state is restaged inline (a fresh connection is
    /// only torn up if the inline restage dies in transport).
    fn rebalance_one(&mut self, session: u64) -> Result<MigrationRecord, RouterError> {
        let from = self
            .routes
            .get(&session)
            .map(|r| r.owner)
            .ok_or(RouterError::NoNodes)?;
        let to = self.ring.owner(session).ok_or(RouterError::NoNodes)?;
        let applied = match self.cut_over(session, from, to) {
            Ok(applied) => applied,
            Err(e) => {
                // A failed move can leave its pre-copy staged on the
                // importer's connection; dropping the connection
                // discards it, so no later send for the session there
                // commits stale bytes.
                if let Some(n) = self.nodes.get_mut(&to) {
                    n.conn = None;
                }
                return Err(e);
            }
        };
        let route = self.routes.get_mut(&session).expect("moving route exists");
        route.owner = to;
        route.in_doubt = 0;
        if applied < route.admitted && route.lost.is_none() {
            // A planned move should never lose acked state; if it does
            // (a cut shorter than the acked prefix), poison exactly as
            // a failover would rather than serving a diverged stream.
            route.lost = Some(applied);
            latch_obs::counter_inc("router.failover.acked_lost");
            latch_obs::emit(
                "router",
                TraceEvent::AckedLost {
                    session,
                    acked: route.admitted,
                    applied,
                },
            );
        }
        let rec = MigrationRecord {
            at_tick: self.ticks,
            session,
            from_node: from,
            to_node: to,
            applied,
        };
        latch_obs::counter_inc("router.rebalance.moves");
        latch_obs::emit(
            "router",
            TraceEvent::Rebalance {
                session,
                from_node: from,
                to_node: to,
                applied,
            },
        );
        self.rebalances.push(rec);
        Ok(rec)
    }

    /// The two phases of `rebalance_one` for one session: pre-copy from
    /// `from` while it serves, then the cut, importing into `to`.
    /// Returns the events the import restored.
    fn cut_over(&mut self, session: u64, from: u32, to: u32) -> Result<u64, RouterError> {
        let wire = |e: ClientError| match e {
            ClientError::Rejected(r) => RouterError::Rejected(r),
            other => RouterError::Wire(other),
        };
        // Phase 1: pre-copy while the old owner keeps serving.
        let pre = self
            .node_conn(from)?
            .repl_fetch(session, false)
            .map_err(wire)?
            .unwrap_or_default();
        if !pre.blob.is_empty() || !pre.wal.is_empty() {
            self.node_conn(to)?
                .migrate_stage(session, &pre.blob, &pre.wal, MIGRATE_CHUNK_BYTES)
                .map_err(wire)?;
        }
        // Phase 2: the cut.
        let cut = self
            .node_conn(from)?
            .repl_fetch(session, true)
            .map_err(wire)?;
        let applied = match cut {
            // Nothing durable and nothing resident: a route with zero
            // admitted events just re-pins (phase 1 staged nothing).
            None => 0,
            Some(state) => {
                let applied = if state.blob == pre.blob && state.wal.starts_with(&pre.wal) {
                    let conn = self.node_conn(to)?;
                    let suffix = &state.wal[pre.wal.len()..];
                    conn.migrate_stage(session, &[], suffix, MIGRATE_CHUNK_BYTES)
                        .map_err(wire)?;
                    conn.migrate_commit(session, state.rank, migrate_into::LIVE, state.journaled)
                        .map_err(wire)?
                } else {
                    // A journal cut between the phases: the staged bytes are
                    // a stale prefix. A RESTART chunk discards them on
                    // the same connection, so the full cut state can be
                    // restaged without tearing the link down.
                    latch_obs::counter_inc("router.rebalance.restage_inline");
                    let inline = {
                        let conn = self.node_conn(to)?;
                        conn.migrate_abort(session).and_then(|()| {
                            conn.migrate_session(session, migrate_into::LIVE, &state)
                        })
                    };
                    match inline {
                        Ok(applied) => applied,
                        Err(ClientError::Rejected(r)) => return Err(RouterError::Rejected(r)),
                        Err(_) => {
                            // Transport death mid-restage: fall back to
                            // the old full-restage-over-fresh-connection
                            // path.
                            latch_obs::counter_inc("router.rebalance.restages");
                            if let Some(n) = self.nodes.get_mut(&to) {
                                n.conn = None;
                            }
                            self.node_conn(to)?
                                .migrate_session(session, migrate_into::LIVE, &state)
                                .map_err(wire)?
                        }
                    }
                };
                applied
            }
        };
        Ok(applied)
    }

    /// Drains every live node and merges the per-session reports,
    /// sorted by session id. Each session is resident on exactly one
    /// live node (failover removes dead owners first), so the merge
    /// has no duplicates.
    ///
    /// A liveness probe runs first: an undetected death discovered
    /// only mid-drain would force its sessions to migrate into a node
    /// whose service was already consumed by this very drain. Probing
    /// up front turns that into a clean [`RouterError::NodeDown`] —
    /// fail the node over and call `drain` again (node drains are
    /// idempotent, so any node a previous attempt already drained just
    /// re-serves its cached reports).
    ///
    /// # Errors
    ///
    /// [`RouterError::NodeDown`] when a node died undetected (retry
    /// after failover) **or** when any session's route is still pinned
    /// to a dead owner (a stalled failover — retrying it first is the
    /// only way those sessions' reports can be collected); a node's
    /// non-transport refusal aborts the drain as
    /// [`RouterError::Rejected`] / [`RouterError::Wire`].
    pub fn drain(&mut self) -> Result<Vec<(u64, Vec<u8>)>, RouterError> {
        // Collecting only from live nodes would silently omit every
        // session whose owner died without a completed failover —
        // undetected session loss at drain. Surface those first.
        if let Some(node) = self
            .routes
            .values()
            .map(|r| r.owner)
            .find(|&n| !self.is_alive(n))
        {
            return Err(RouterError::NodeDown { node });
        }
        for id in self.alive_nodes() {
            if self.node_conn(id)?.ping(0).is_err() {
                self.mark_down(id, 0);
                return Err(RouterError::NodeDown { node: id });
            }
        }
        let mut all = Vec::new();
        for id in self.alive_nodes() {
            let reports = match self.node_conn(id)?.drain() {
                Ok(reports) => reports,
                Err(ClientError::Rejected(r)) => return Err(RouterError::Rejected(r)),
                Err(ClientError::Server { code }) => {
                    return Err(RouterError::Wire(ClientError::Server { code }));
                }
                Err(_) => {
                    // Transport death between the probe and the drain.
                    self.mark_down(id, 0);
                    return Err(RouterError::NodeDown { node: id });
                }
            };
            all.extend(reports);
        }
        all.sort_by_key(|&(session, _)| session);
        Ok(all)
    }

    /// Fetches one drained session's `(applied, report bytes)` from
    /// its owner.
    ///
    /// # Errors
    ///
    /// [`RouterError::NoNodes`] for a session the router never placed;
    /// [`RouterError::AckedLost`] for a session poisoned by acked-event
    /// loss (its report would silently diverge from the solo oracle);
    /// otherwise whatever the owner answers.
    pub fn report(&mut self, session: u64) -> Result<(u64, Vec<u8>), RouterError> {
        let route = self.routes.get(&session).ok_or(RouterError::NoNodes)?;
        if let Some(applied) = route.lost {
            return Err(RouterError::AckedLost {
                session,
                acked: route.admitted,
                applied,
            });
        }
        let owner = route.owner;
        self.node_conn(owner)?
            .report(session)
            .map_err(|e| match e {
                ClientError::Rejected(r) => RouterError::Rejected(r),
                other => RouterError::Wire(other),
            })
    }
}
