//! The fixture shared by conformance legs 8–12 and the `latch-stress`
//! scenarios: seeded event streams and their solo reports, the overload
//! drive, in-process `latchd` nodes on loopback, the routers'
//! configuration, the round-robin [`Router`] drive, the seeded node
//! failover and router takeover built on it, and the rerun that every
//! deterministic phase ends with.

use latch_faults::{FaultInjector, FaultPlan};
use latch_proto::Endpoint;
use latch_router::{MigrationRecord, Router, RouterConfig, RouterError, TakeoverRecord};
use latch_serve::{
    export_sessions, DurableConfig, DurableService, MemStorage, Priority, Rejected, ServeConfig,
    Service, ServiceOutcome, SessionExport, SloReport, WireConfig, WireServer,
};
use latch_sim::event::{Event, EventSource};
use latch_systems::session::SessionPipeline;
use latch_workloads::all_profiles;
use std::io;

/// `n` events of benchmark profile `profile_idx` (wrapping over the
/// profile list), generated from `seed`.
#[must_use]
pub fn stream(profile_idx: usize, seed: u64, n: u64) -> Vec<Event> {
    let profiles = all_profiles();
    let mut src = profiles[profile_idx % profiles.len()].stream(seed, n);
    let mut out = Vec::new();
    while let Some(ev) = src.next_event() {
        out.push(ev);
    }
    out
}

/// The report bytes of one uninterrupted, single-session pipeline run
/// over `events`: what every served session must end byte-equal to.
#[must_use]
pub fn solo_report(events: &[Event], scrub_interval: u64) -> Vec<u8> {
    let mut pipe = SessionPipeline::new(scrub_interval);
    for ev in events {
        pipe.apply(ev);
    }
    pipe.report().encode()
}

/// Runs a seeded drive twice against fresh state and returns the first
/// run's result, or `Err(what)` when the two runs differ.
///
/// # Errors
///
/// Either run's error, or `what`.
pub fn rerun<T: PartialEq>(
    what: &'static str,
    run: impl Fn() -> Result<T, &'static str>,
) -> Result<T, &'static str> {
    let first = run()?;
    if first != run()? {
        return Err(what);
    }
    Ok(first)
}

/// What one [`overload_drive`] produced.
pub struct OverloadRun {
    /// Each session's admitted (non-shed) events.
    pub admitted: Vec<Vec<Event>>,
    /// Every shed `(session, priority rank, pressure)`, in order.
    pub sheds: Vec<(u64, u8, u8)>,
    /// The canonical bytes of the SLO report stream.
    pub slo: Vec<u8>,
    /// The drained service.
    pub out: ServiceOutcome,
}

/// Drives `streams` through a deterministic [`Service`] at priority
/// `session % 3` (critical, normal, bulk). Each round every session
/// offers its next `chunk` events, scaled by the plan's burst draw;
/// non-critical sessions sit out the plan's slow rounds; a shed drops
/// its batch on purpose, and backpressure offers it again next round.
///
/// # Errors
///
/// A drive that stops making progress.
pub fn overload_drive(
    cfg: ServeConfig,
    plan: FaultPlan,
    streams: &[Vec<Event>],
    chunk: usize,
) -> Result<OverloadRun, &'static str> {
    const PRIORITIES: [Priority; 3] = [Priority::Critical, Priority::Normal, Priority::Bulk];
    let mut svc = Service::deterministic(cfg);
    let mut inj = FaultInjector::new(plan);
    let mut pos = vec![0usize; streams.len()];
    let mut admitted = vec![Vec::new(); streams.len()];
    let mut sheds = Vec::new();
    let mut round = 0u64;
    while pos.iter().zip(streams).any(|(&p, evs)| p < evs.len()) {
        if round >= 1_000_000 {
            return Err("drive failed to make progress");
        }
        let factor = inj.burst_factor_at(round).unwrap_or(1) as usize;
        let slow = inj.slow_client_at(round);
        for (s, evs) in streams.iter().enumerate() {
            let prio = PRIORITIES[s % 3];
            if (slow && prio != Priority::Critical) || pos[s] >= evs.len() {
                continue;
            }
            let batch = &evs[pos[s]..evs.len().min(pos[s] + chunk * factor)];
            match svc.submit_with_priority(s as u64, batch, prio) {
                Ok(()) => {
                    admitted[s].extend_from_slice(batch);
                    pos[s] += batch.len();
                }
                Err(Rejected::Shed {
                    priority, pressure, ..
                }) => {
                    sheds.push((s as u64, priority.rank(), pressure));
                    pos[s] += batch.len();
                }
                Err(Rejected::QueueFull { .. } | Rejected::SessionBusy { .. }) => svc.pump(),
                Err(Rejected::ShuttingDown) => unreachable!("not draining"),
                Err(Rejected::BatchTooLarge { .. }) => {
                    unreachable!("chunks are far below the journal cap")
                }
            }
        }
        svc.pump();
        round += 1;
    }
    let out = svc.finish();
    let slo = out.slo_reports.iter().flat_map(SloReport::encode).collect();
    Ok(OverloadRun {
        admitted,
        sheds,
        slo,
        out,
    })
}

/// A TCP endpoint on `127.0.0.1` with a kernel-chosen port.
#[must_use]
pub fn loopback() -> Endpoint {
    Endpoint::Tcp("127.0.0.1:0".to_string())
}

/// What a node kill does to the node's storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disk {
    /// The disk survives: a failover exports the sessions from it.
    Keep,
    /// The machine is lost with its disk: the export is empty, and a
    /// failover must restore from backup journals alone.
    Lose,
}

/// Kills a node's process and returns what its disk still offers
/// (nothing for [`Disk::Lose`]), or `None` when it was already drained.
#[must_use]
pub fn kill(node: WireServer<MemStorage>, disk: Disk) -> Option<Vec<SessionExport>> {
    let mut storage = node.kill()?.crash();
    Some(match disk {
        Disk::Keep => export_sessions(&mut storage),
        Disk::Lose => Vec::new(),
    })
}

/// A router failover set-up: cluster size, backups per session, what
/// the seeded kill does to the victim's disk, and the kill plan's salt.
#[derive(Debug, Clone, Copy)]
pub struct Failover {
    /// Nodes in the cluster.
    pub nodes: u32,
    /// Backups per session.
    pub replicas: u32,
    /// The victim's disk fate.
    pub disk: Disk,
    /// Salt of the seeded node-kill plan.
    pub salt: u64,
}

impl Failover {
    /// One seeded failover drive over fresh nodes that run `node`: a
    /// router seeded (and identified) by `seed` drives `streams` in a
    /// [`Drive`], and the seeded plan kills `victim` (session 0's owner
    /// when `None`) at a round boundary, or right before the drain on a
    /// cold seed; the failover runs either way. `churn` runs at the
    /// start of each round, after the kill check.
    ///
    /// # Errors
    ///
    /// A bind, hook, drive, failover or drain failure, or a session
    /// acked-lost.
    pub fn run(
        &self,
        streams: &[Vec<Event>],
        node: ServeConfig,
        seed: u64,
        victim: Option<u32>,
        mut churn: impl FnMut(&mut Nodes, &mut Router, u64) -> Result<(), &'static str>,
    ) -> Result<ClusterRun, &'static str> {
        let mut nodes = Nodes::start(self.nodes, node).map_err(|_| "bind failed")?;
        let mut router = Router::new(router_config(seed, seed, self.replicas));
        nodes.add_to(&mut router);
        let victim = victim.or_else(|| router.owner_of(0)).ok_or("empty ring")?;
        let mut inj = FaultInjector::new(FaultPlan::new(seed ^ self.salt).with_node_kills(25, 1));
        Drive::new(streams, CHUNK).run(
            &mut router,
            |len| len,
            |router, round| {
                if nodes.is_up(victim) && inj.node_killed_at(victim, round) {
                    nodes.fail_over(router, victim, self.disk)?;
                }
                churn(&mut nodes, router, round)
            },
        )?;
        if nodes.is_up(victim) {
            nodes.fail_over(&mut router, victim, self.disk)?;
        }
        finish(&mut router, nodes)
    }
}

/// Two nodes, no replication; the victim's disk survives, so its
/// sessions are exported from it, staged on the survivor as
/// `MigrateChunk` frames, committed by one `MigrateSession`, and
/// imported there.
pub const CLUSTER: Failover = Failover {
    nodes: 2,
    replicas: 0,
    disk: Disk::Keep,
    salt: 0x00C1,
};

/// Three nodes with 2-of-3 synchronous replication; the kill destroys
/// the victim's disk outright, so every migrated session must come
/// from a backup journal.
pub const REPLICA: Failover = Failover {
    nodes: 3,
    replicas: 2,
    disk: Disk::Lose,
    salt: 0x00C2,
};

/// In-process `latchd` nodes on `127.0.0.1:0`, indexed by node id.
/// Every node runs the base [`ServeConfig`] over a benign in-memory
/// durable store.
pub struct Nodes {
    base: ServeConfig,
    up: Vec<Option<WireServer<MemStorage>>>,
}

impl Nodes {
    /// Starts nodes `0..count`.
    ///
    /// # Errors
    ///
    /// A loopback bind failure.
    pub fn start(count: u32, base: ServeConfig) -> io::Result<Self> {
        let mut nodes = Self {
            base,
            up: Vec::new(),
        };
        for _ in 0..count {
            nodes.join()?;
        }
        Ok(nodes)
    }

    /// Starts the next node id and returns it with its endpoint.
    ///
    /// # Errors
    ///
    /// A loopback bind failure.
    pub fn join(&mut self) -> io::Result<(u32, Endpoint)> {
        let id = self.up.len() as u32;
        let (svc, _recovery) = DurableService::recover(
            self.base,
            DurableConfig::default(),
            FaultPlan::benign(),
            MemStorage::new(FaultPlan::benign()),
        );
        let node = WireServer::start(&loopback(), svc, WireConfig::default())?;
        let bound = node.endpoint().clone();
        self.up.push(Some(node));
        Ok((id, bound))
    }

    /// The endpoint of live node `id`.
    ///
    /// # Panics
    ///
    /// When the node was never started or has been taken.
    #[must_use]
    pub fn endpoint(&self, id: u32) -> Endpoint {
        self.up[id as usize]
            .as_ref()
            .expect("node is up")
            .endpoint()
            .clone()
    }

    /// Registers every live node with `router`.
    pub fn add_to(&self, router: &mut Router) {
        for (id, node) in self.up.iter().enumerate() {
            if let Some(node) = node {
                router.add_node(id as u32, node.endpoint().clone());
            }
        }
    }

    /// Whether node `id` is still running.
    #[must_use]
    pub fn is_up(&self, id: u32) -> bool {
        self.up.get(id as usize).is_some_and(Option::is_some)
    }

    /// Takes node `id` out of the set, e.g. to kill it from another
    /// thread.
    pub fn take(&mut self, id: u32) -> Option<WireServer<MemStorage>> {
        self.up.get_mut(id as usize)?.take()
    }

    /// [`kill`]s node `id`; `None` when it is not up or was drained.
    pub fn kill(&mut self, id: u32, disk: Disk) -> Option<Vec<SessionExport>> {
        kill(self.take(id)?, disk)
    }

    /// Kills node `id` and fails its sessions over through `router`.
    ///
    /// # Errors
    ///
    /// The node was not up or already drained, or the failover failed.
    pub fn fail_over(
        &mut self,
        router: &mut Router,
        id: u32,
        disk: Disk,
    ) -> Result<(), &'static str> {
        let exports = self.kill(id, disk).ok_or("victim was already drained")?;
        router
            .fail_over(id, exports)
            .map_err(|_| "failover failed")?;
        Ok(())
    }

    /// Shuts every live node down.
    pub fn shutdown(self) {
        for node in self.up.into_iter().flatten() {
            node.shutdown();
        }
    }
}

/// The router configuration every cluster leg and scenario runs:
/// 32 virtual nodes, a two-miss heartbeat budget, a 256-event window,
/// and `replicas` backups per session.
#[must_use]
pub fn router_config(seed: u64, router_id: u64, replicas: u32) -> RouterConfig {
    RouterConfig {
        seed,
        vnodes: 32,
        miss_budget: 2,
        window_events: 256,
        router_id,
        replicas,
        ..RouterConfig::default()
    }
}

/// A router takeover over three nodes with 2-of-3 replication that run
/// `node`. Router `ids[0]` drives every session exactly halfway, so
/// the cut point, and with it the surveys its successor rebuilds from,
/// is a pure function of the seed; then it dies, and with `kill`
/// session 0's owner dies with it, disk and all. Router `ids[1]` takes
/// over and finishes every stream. The takeover must find exactly the
/// killed node dead, restore exactly its sessions from replica
/// journals, and leave none acked-lost. Returns the run and the
/// takeover record.
///
/// # Errors
///
/// A bind, drive, takeover or drain failure, or a takeover that broke
/// one of those contracts.
pub fn takeover(
    streams: &[Vec<Event>],
    node: ServeConfig,
    seed: u64,
    ids: [u64; 2],
    kill: bool,
) -> Result<(ClusterRun, TakeoverRecord), &'static str> {
    let mut nodes = Nodes::start(3, node).map_err(|_| "bind failed")?;
    let [mut old, mut new] = ids.map(|id| Router::new(router_config(seed, id, 2)));
    nodes.add_to(&mut old);
    nodes.add_to(&mut new);
    let mut drive = Drive::new(streams, CHUNK);
    drive.run(&mut old, |len| len / 2, |_, _| Ok(()))?;
    let (mut dead, mut orphans) = (Vec::new(), Vec::new());
    if kill {
        let victim = old.owner_of(0).ok_or("empty ring")?;
        nodes
            .kill(victim, Disk::Lose)
            .ok_or("victim was already drained")?;
        dead.push(victim);
        // A session the old router admitted nothing for has no route,
        // so nothing to orphan.
        let admitted = |s: usize| streams[s].len() / 2 > 0;
        orphans.extend(
            (0..streams.len())
                .filter(|&s| admitted(s) && old.owner_of(s as u64) == Some(victim))
                .map(|s| s as u64),
        );
    }
    drop(old);
    let rec = new.takeover().map_err(|_| "standby takeover failed")?;
    if rec.dead != dead {
        return Err("the takeover did not find exactly the killed node dead");
    }
    if rec.orphans != orphans {
        return Err("the takeover did not restore exactly the dead node's sessions");
    }
    if !new.lost_sessions().is_empty() {
        return Err("takeover lost acked state");
    }
    drive.run(&mut new, |len| len, |_, _| Ok(()))?;
    Ok((finish(&mut new, nodes)?, rec))
}

/// What a deterministic cluster drive leaves behind; a rerun must
/// reproduce all of it.
#[derive(Debug, PartialEq)]
pub struct ClusterRun {
    /// Every session's drained report, by session.
    pub reports: Vec<(u64, Vec<u8>)>,
    /// The router's failover migrations.
    pub migrations: Vec<MigrationRecord>,
    /// The router's planned rebalance moves.
    pub rebalances: Vec<MigrationRecord>,
}

/// Requires no session acked-lost, drains the cluster through
/// `router`, and shuts the nodes down.
fn finish(router: &mut Router, nodes: Nodes) -> Result<ClusterRun, &'static str> {
    if !router.lost_sessions().is_empty() {
        return Err("a session was acked-lost");
    }
    let reports = router.drain().map_err(|_| "drain failed")?;
    nodes.shutdown();
    Ok(ClusterRun {
        reports,
        migrations: router.migration_history().to_vec(),
        rebalances: router.rebalance_history().to_vec(),
    })
}

/// The chunk of every deterministic cluster drive.
pub const CHUNK: usize = 48;

/// A single-threaded round-robin drive of a library [`Router`]: each
/// round submits the next chunk of every unfinished session, in
/// session order, at rank `session % 3`. A typed refusal leaves the
/// chunk for the next round. The position of each session carries
/// over between [`run`](Self::run) calls, so one drive can cross a
/// router switch.
pub struct Drive<'a> {
    streams: &'a [Vec<Event>],
    pos: Vec<usize>,
    chunk: usize,
    round: u64,
}

impl<'a> Drive<'a> {
    /// A drive of `streams` (session `s` is `streams[s]`) in
    /// `chunk`-event submits.
    #[must_use]
    pub fn new(streams: &'a [Vec<Event>], chunk: usize) -> Self {
        Self {
            streams,
            pos: vec![0; streams.len()],
            chunk,
            round: 0,
        }
    }

    /// Drives every session up to `end(stream length)` events. `hook`
    /// runs at the start of each round with the round number (counted
    /// across calls), before any submit.
    ///
    /// # Errors
    ///
    /// The hook's error, a non-refusal router error, or a drive that
    /// stops making progress.
    pub fn run(
        &mut self,
        router: &mut Router,
        end: fn(usize) -> usize,
        mut hook: impl FnMut(&mut Router, u64) -> Result<(), &'static str>,
    ) -> Result<(), &'static str> {
        let ends: Vec<usize> = self.streams.iter().map(|ev| end(ev.len())).collect();
        while self.pos.iter().zip(&ends).any(|(p, e)| p < e) {
            if self.round >= 1_000_000 {
                return Err("drive failed to make progress");
            }
            hook(router, self.round)?;
            for (s, events) in self.streams.iter().enumerate() {
                let (lo, hi) = (self.pos[s], ends[s].min(self.pos[s] + self.chunk));
                if lo >= hi {
                    continue;
                }
                match router.submit(s as u64, (s % 3) as u8, &events[lo..hi]) {
                    Ok(()) => self.pos[s] = hi,
                    Err(RouterError::Rejected(_)) => {}
                    Err(_) => return Err("transport failed mid-drive"),
                }
            }
            self.round += 1;
        }
        Ok(())
    }
}
