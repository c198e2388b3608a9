//! Kill-driven failover end-to-end: real sockets, a real mid-stream
//! node death, byte-exact recovery.
//!
//! The contract under test: when a `latchd` node dies under a router,
//! every session it owned migrates to a surviving node (LTSE snapshot
//! plus WAL-suffix replay from the dead node's storage) and drains to a
//! report **byte-identical** to a solo [`SessionPipeline`] run of the
//! session's full admitted stream — no event lost in the failover,
//! none applied twice — while sessions on surviving nodes never move.

use latch_client::{Client, ClientError, SessionState};
use latch_faults::FaultPlan;
use latch_proto::{migrate_into, Endpoint};
use latch_router::{Exporter, Router, RouterConfig, RouterError, RouterServer, RouterServerConfig};
use latch_serve::{
    export_sessions, DurableConfig, DurableService, MemStorage, Priority, ServeConfig,
    SessionExport, WireConfig, WireServer,
};
use latch_sim::event::{Event, EventSource};
use latch_systems::session::SessionPipeline;
use latch_workloads::all_profiles;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const SEED: u64 = 0xFA11_07E5;

fn stream(profile_idx: usize, seed: u64, n: u64) -> Vec<Event> {
    let profiles = all_profiles();
    let mut src = profiles[profile_idx % profiles.len()].stream(seed, n);
    let mut out = Vec::new();
    while let Some(ev) = src.next_event() {
        out.push(ev);
    }
    out
}

/// The state a surviving disk's export ships to an importer.
fn state_of(export: SessionExport) -> SessionState {
    SessionState {
        rank: export.priority.rank(),
        journaled: 0,
        blob: export.blob,
        wal: export.wal,
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        queue_events: 512,
        batch_max: 32,
        ..ServeConfig::default()
    }
}

fn start_node() -> WireServer<MemStorage> {
    let (svc, _recovery) = DurableService::recover(
        serve_config(),
        DurableConfig::default(),
        FaultPlan::benign(),
        MemStorage::new(FaultPlan::benign()),
    );
    // Port discipline: bind port 0, read the kernel's choice back from
    // the server — parallel test runs must never collide.
    let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
    WireServer::start(&endpoint, svc, WireConfig::default()).expect("bind loopback node")
}

fn router_config() -> RouterConfig {
    RouterConfig {
        seed: SEED,
        vnodes: 32,
        miss_budget: 2,
        window_events: 256,
        router_id: 7,
        ..RouterConfig::default()
    }
}

fn kill_and_export(server: WireServer<MemStorage>) -> Vec<SessionExport> {
    let svc = server.kill().expect("victim was not drained");
    let mut storage = svc.crash();
    export_sessions(&mut storage)
}

fn solo_report(events: &[Event]) -> Vec<u8> {
    let mut pipe = SessionPipeline::new(serve_config().scrub_interval);
    for ev in events {
        pipe.apply(ev);
    }
    pipe.report().encode()
}

/// Three nodes behind a [`RouterServer`], one client thread per
/// session, the victim's listener killed mid-stream. Every admitted
/// session must drain byte-identical to its solo run.
#[test]
fn killed_node_drains_byte_identical_through_wire() {
    const SESSIONS: usize = 6;
    const EVENTS: u64 = 800;
    let mut servers: Vec<Option<WireServer<MemStorage>>> =
        (0..3).map(|_| Some(start_node())).collect();
    let mut router = Router::new(router_config());
    for (id, srv) in servers.iter().enumerate() {
        router.add_node(id as u32, srv.as_ref().expect("fresh").endpoint().clone());
    }
    // Kill the node that owns session 0, so at least one session is
    // guaranteed to migrate.
    let victim = router.owner_of(0).expect("ring has nodes");

    let deposits: Arc<Mutex<BTreeMap<u32, Vec<SessionExport>>>> =
        Arc::new(Mutex::new(BTreeMap::new()));
    let exporter_deposits = Arc::clone(&deposits);
    let exporter: Exporter = Box::new(move |node| {
        for _ in 0..2_000 {
            if let Some(exports) = exporter_deposits.lock().expect("deposits").get(&node) {
                return exports.clone();
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Vec::new()
    });
    let front = RouterServer::start(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        router,
        exporter,
        RouterServerConfig {
            max_window_events: 1 << 14,
            heartbeat: Duration::from_millis(10),
            ..RouterServerConfig::default()
        },
    )
    .expect("bind router");
    assert!(front.local_addr().is_some(), "router bound a TCP port");
    let endpoint = front.endpoint().clone();

    // The kill must land *after* session 0 has admitted at least one
    // chunk on the victim — otherwise there is nothing to migrate and
    // the session simply re-pins. Session 0's client raises this flag
    // on its first successful submit.
    let session0_started = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let victim_server = servers[victim as usize].take().expect("victim exists");
    let killer_deposits = Arc::clone(&deposits);
    let killer_flag = Arc::clone(&session0_started);
    let killer = std::thread::spawn(move || {
        for _ in 0..5_000 {
            if killer_flag.load(std::sync::atomic::Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(10));
        let exports = kill_and_export(victim_server);
        killer_deposits.lock().expect("deposits").insert(victim, exports);
    });

    let streams: Vec<Vec<Event>> = (0..SESSIONS)
        .map(|s| stream(s, SEED.wrapping_add(s as u64), EVENTS))
        .collect();
    let handles: Vec<_> = streams
        .iter()
        .enumerate()
        .map(|(s, events)| {
            let endpoint = endpoint.clone();
            let events = events.clone();
            let started = Arc::clone(&session0_started);
            std::thread::spawn(move || {
                let mut client = Client::connect(&endpoint, 256, false).expect("connect router");
                let mut pos = 0usize;
                let mut rounds = 0u64;
                while pos < events.len() {
                    assert!(rounds < 1_000_000, "drive failed to make progress");
                    rounds += 1;
                    let take = 32.min(events.len() - pos);
                    match client.submit(s as u64, (s % 3) as u8, &events[pos..pos + take]) {
                        Ok(()) => {
                            pos += take;
                            if s == 0 {
                                started.store(true, std::sync::atomic::Ordering::SeqCst);
                            }
                        }
                        Err(ClientError::Rejected(_)) => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(e) => panic!("session {s}: router connection failed: {e}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    killer.join().expect("killer thread");

    let mut client = Client::connect(&endpoint, 256, false).expect("connect router");
    let reports: BTreeMap<u64, Vec<u8>> =
        client.drain().expect("drain cluster").into_iter().collect();

    // No loss, no duplication: exactly one report per session, each
    // byte-identical to a solo run of the full stream.
    assert_eq!(reports.len(), SESSIONS, "one report per session");
    for (s, events) in streams.iter().enumerate() {
        assert_eq!(
            reports[&(s as u64)],
            solo_report(events),
            "session {s} diverged from its solo run after the node kill"
        );
    }
    let (history, victim_alive) =
        front.with_router(|r| (r.migration_history().to_vec(), r.is_alive(victim)));
    assert!(!victim_alive, "victim still marked alive");
    assert!(
        history.iter().any(|m| m.session == 0),
        "session 0 was owned by the victim and must have migrated"
    );
    assert!(
        history.iter().all(|m| m.from_node == victim && m.to_node != victim),
        "migrations must leave the victim for a survivor"
    );
    front.shutdown();
    for srv in servers.into_iter().flatten() {
        srv.shutdown();
    }
}

/// Deterministic single-threaded drive of the library [`Router`]: the
/// migration history covers *exactly* the victim's sessions, each
/// shipped to the live ring owner, and surviving nodes' sessions never
/// move.
#[test]
fn migration_covers_exactly_the_victims_sessions() {
    const SESSIONS: usize = 8;
    const EVENTS: u64 = 400;
    const CHUNK: usize = 48;
    let mut servers: Vec<Option<WireServer<MemStorage>>> =
        (0..3).map(|_| Some(start_node())).collect();
    let mut router = Router::new(router_config());
    for (id, srv) in servers.iter().enumerate() {
        router.add_node(id as u32, srv.as_ref().expect("fresh").endpoint().clone());
    }
    let streams: Vec<Vec<Event>> = (0..SESSIONS)
        .map(|s| stream(s, SEED.wrapping_add(s as u64), EVENTS))
        .collect();

    // First half of every stream, so each session has durable state on
    // its owner when the kill lands.
    let mut pos: Vec<usize> = vec![0; SESSIONS];
    let drive_round = |router: &mut Router, pos: &mut Vec<usize>| {
        for (s, events) in streams.iter().enumerate() {
            if pos[s] >= events.len() {
                continue;
            }
            let take = CHUNK.min(events.len() - pos[s]);
            loop {
                match router.submit(s as u64, (s % 3) as u8, &events[pos[s]..pos[s] + take]) {
                    Ok(()) => {
                        pos[s] += take;
                        break;
                    }
                    Err(latch_router::RouterError::Rejected(_)) => {}
                    Err(e) => panic!("session {s} submit failed: {e}"),
                }
            }
        }
    };
    for _ in 0..(EVENTS as usize / CHUNK / 2) {
        drive_round(&mut router, &mut pos);
    }

    let victim = router.owner_of(0).expect("ring has nodes");
    let owned_by_victim: BTreeSet<u64> = (0..SESSIONS as u64)
        .filter(|&s| router.owner_of(s) == Some(victim))
        .collect();
    let exports = kill_and_export(servers[victim as usize].take().expect("victim"));
    let records = router.fail_over(victim, exports).expect("failover");

    // Exactly the victim's sessions migrated, every one to a live
    // survivor chosen by the ring.
    let migrated: BTreeSet<u64> = records.iter().map(|m| m.session).collect();
    assert_eq!(migrated, owned_by_victim, "migration set != victim's sessions");
    for m in &records {
        assert_eq!(m.from_node, victim);
        assert_ne!(m.to_node, victim);
        assert!(router.is_alive(m.to_node), "migrated to a dead node");
        assert_eq!(router.owner_of(m.session), Some(m.to_node));
        assert!(m.applied > 0, "session {} migrated with no state", m.session);
    }
    assert_eq!(router.migration_history(), records.as_slice());

    // Surviving sessions keep their owner.
    for s in 0..SESSIONS as u64 {
        if !owned_by_victim.contains(&s) {
            assert_ne!(router.owner_of(s), Some(victim));
            assert!(migrated.iter().all(|&m| m != s));
        }
    }

    // Finish every stream and drain: byte-exact reports all around.
    while pos.iter().zip(&streams).any(|(&p, ev)| p < ev.len()) {
        drive_round(&mut router, &mut pos);
    }
    let reports: BTreeMap<u64, Vec<u8>> = router.drain().expect("drain").into_iter().collect();
    assert_eq!(reports.len(), SESSIONS);
    for (s, events) in streams.iter().enumerate() {
        assert_eq!(
            reports[&(s as u64)],
            solo_report(events),
            "session {s} diverged from its solo run after failover"
        );
    }
    for srv in servers.into_iter().flatten() {
        srv.shutdown();
    }
}

/// A node whose service has already been drained still accepts a
/// migration: the export thaws straight into the drained report cache.
/// This is the second guard against the probe-to-drain race — a victim
/// can die *after* answering the cluster drain's liveness probe, when
/// the survivors' services are already consumed, so the failover must
/// land on a drained importer.
#[test]
fn drained_node_still_accepts_migrations() {
    // Victim node: drive a session, kill it, export its storage.
    let victim = start_node();
    let events = stream(0, SEED ^ 0xD0A1, 300);
    let mut vc = Client::connect(victim.endpoint(), 1024, false).expect("connect victim");
    vc.submit(42, 1, &events).expect("submit victim session");
    drop(vc);
    let exports = kill_and_export(victim);
    assert_eq!(exports.len(), 1, "victim left exactly one session");

    // Importer node: serve and drain a different session first, so its
    // service is consumed before the migration arrives.
    let importer = start_node();
    let other = stream(1, SEED ^ 0xD0A2, 200);
    let mut ic = Client::connect(importer.endpoint(), 1024, false).expect("connect importer");
    ic.submit(7, 0, &other).expect("submit importer session");
    let before = ic.drain().expect("drain importer");
    assert_eq!(before.len(), 1);

    // The migration lands anyway, and the importer answers for the
    // migrated session — byte-identical to a solo run.
    let export = exports.into_iter().next().expect("one export");
    let applied = ic
        .migrate_session(export.session, migrate_into::LIVE, &state_of(export))
        .expect("migrate into a drained node");
    assert_eq!(applied, events.len() as u64);
    let after = ic.drain().expect("second drain");
    assert_eq!(after.len(), 2, "drain re-serves plus the migrated session");
    let (got_applied, bytes) = ic.report(42).expect("report the migrated session");
    assert_eq!(got_applied, events.len() as u64);
    assert_eq!(bytes, solo_report(&events));
    importer.shutdown();
}

/// A dead process is usually detected by a *reconnect* failure — every
/// ping miss clears the cached connection, so the next tick dials
/// afresh and gets refused. That path must still surface the death in
/// tick's returned dead list, or the heartbeat loop never fails the
/// node's sessions over. Regression: the connect-failure arm used to
/// `continue` without reporting the node.
#[test]
fn tick_surfaces_reconnect_failure_as_dead() {
    let node = start_node();
    let mut router = Router::new(router_config());
    router.add_node(0, node.endpoint().clone());
    let events = stream(0, SEED ^ 0x7C1, 64);
    router.submit(9, 1, &events).expect("submit");
    let _ = kill_and_export(node);
    let mut dead = Vec::new();
    for _ in 0..router_config().miss_budget + 4 {
        dead = router.tick();
        if !dead.is_empty() {
            break;
        }
    }
    assert_eq!(dead, vec![0], "reconnect-failure death never surfaced");
    assert!(!router.is_alive(0));
}

/// Routes still pinned to a dead owner must fail a drain loudly —
/// collecting only from live nodes would silently drop those sessions
/// from the merged report set. Regression: drain() used to probe and
/// collect from alive nodes only.
#[test]
fn drain_refuses_while_routes_pin_a_dead_owner() {
    let node_a = start_node();
    let node_b = start_node();
    let mut router = Router::new(router_config());
    router.add_node(0, node_a.endpoint().clone());
    router.add_node(1, node_b.endpoint().clone());
    let session = (0..64)
        .find(|&s| router.owner_of(s) == Some(0))
        .expect("node 0 owns some session");
    let events = stream(0, SEED ^ 0xD0D0, 96);
    router.submit(session, 1, &events).expect("submit");
    let _ = kill_and_export(node_a);
    // Detect the death but do NOT fail over — the stranded state.
    for _ in 0..10 {
        if !router.is_alive(0) {
            break;
        }
        let _ = router.tick();
    }
    assert!(!router.is_alive(0), "death never detected");
    match router.drain() {
        Err(RouterError::NodeDown { node }) => assert_eq!(node, 0),
        other => panic!("drain must surface the dead owner, got {other:?}"),
    }
    node_b.shutdown();
}

/// A failover that cannot complete (here: the ring emptied) stalls
/// instead of stranding: the sessions stay pinned, tick() keeps
/// re-returning the node for retry, drain refuses — and once a node
/// rejoins, the retried failover completes, the stall clears, and the
/// session still drains byte-identical to its solo run.
#[test]
fn stalled_failover_retries_until_a_node_returns() {
    let node_a = start_node();
    let mut router = Router::new(router_config());
    router.add_node(0, node_a.endpoint().clone());
    let events = stream(0, SEED ^ 0x57A1, 200);
    router.submit(3, 1, &events[..100]).expect("submit first half");
    let exports = kill_and_export(node_a);
    let err = router.fail_over(0, exports.clone()).expect_err("ring emptied");
    assert!(matches!(err, RouterError::NoNodes), "got {err:?}");
    assert_eq!(router.tick(), vec![0], "stall must keep surfacing");
    assert!(
        matches!(router.drain(), Err(RouterError::NodeDown { node: 0 })),
        "drain must refuse while the failover is stalled"
    );
    let node_b = start_node();
    router.add_node(1, node_b.endpoint().clone());
    let records = router.fail_over(0, exports).expect("retry completes");
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].session, 3);
    assert_eq!(router.tick(), Vec::<u32>::new(), "stall must clear");
    router.submit(3, 1, &events[100..]).expect("resume");
    let reports: BTreeMap<u64, Vec<u8>> = router.drain().expect("drain").into_iter().collect();
    assert_eq!(reports[&3], solo_report(&events));
    node_b.shutdown();
}

/// An importer that restores fewer events than the router acked is
/// acked loss (the dead owner's group commit never landed): the
/// session must be poisoned with a typed answer, never silently
/// continued on a shorter prefix.
#[test]
fn short_import_poisons_the_session_as_acked_lost() {
    let node_a = start_node();
    let node_b = start_node();
    let mut router = Router::new(router_config());
    router.add_node(0, node_a.endpoint().clone());
    router.add_node(1, node_b.endpoint().clone());
    let session = (0..64)
        .find(|&s| router.owner_of(s) == Some(0))
        .expect("node 0 owns some session");
    let events = stream(0, SEED ^ 0xAC4E, 120);
    router.submit(session, 1, &events).expect("submit");
    let _ = kill_and_export(node_a);
    // Ship an export that lost everything: the importer restores 0 of
    // the 120 acked events.
    let exports = vec![SessionExport {
        session,
        priority: Priority::default(),
        blob: Vec::new(),
        wal: Vec::new(),
    }];
    let records = router.fail_over(0, exports).expect("failover ships");
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].applied, 0);
    assert_eq!(router.lost_sessions(), vec![(session, 120, 0)]);
    match router.submit(session, 1, &events[..1]) {
        Err(RouterError::AckedLost {
            session: s,
            acked,
            applied,
        }) => assert_eq!((s, acked, applied), (session, 120, 0)),
        other => panic!("poisoned session must answer AckedLost, got {other:?}"),
    }
    match router.report(session) {
        Err(RouterError::AckedLost { .. }) => {}
        other => panic!("poisoned session's report must refuse, got {other:?}"),
    }
    node_b.shutdown();
}

/// Staging at a tiny chunk size is byte-equivalent to staging whole
/// chunks: every 100-byte slice lands, the commit applies the combined
/// state, and the migrated session reports identically to a solo run.
#[test]
fn chunked_migration_is_byte_equivalent() {
    let victim = start_node();
    let events = stream(0, SEED ^ 0xC4C4, 300);
    let mut vc = Client::connect(victim.endpoint(), 1024, false).expect("connect victim");
    vc.submit(11, 1, &events).expect("submit victim session");
    drop(vc);
    let export = kill_and_export(victim)
        .into_iter()
        .next()
        .expect("one export");
    let importer = start_node();
    let mut ic = Client::connect(importer.endpoint(), 1024, false).expect("connect importer");
    ic.migrate_stage(export.session, &export.blob, &export.wal, 100)
        .expect("stage 100-byte chunks");
    let applied = ic
        .migrate_commit(export.session, export.priority.rank(), migrate_into::LIVE, 0)
        .expect("commit the staged state");
    assert_eq!(applied, events.len() as u64);
    assert_eq!(ic.drain().expect("drain importer").len(), 1);
    let (got_applied, bytes) = ic.report(11).expect("report");
    assert_eq!(got_applied, events.len() as u64);
    assert_eq!(bytes, solo_report(&events));
    importer.shutdown();
}

/// A session whose WAL suffix exceeds the frame cap still migrates:
/// `migrate_session` streams every state as chunks, so none fails
/// with `OversizedFrame` and strands the failover.
#[test]
fn oversized_wal_suffix_still_migrates() {
    let victim = start_node();
    let events = stream(0, SEED ^ 0xB16B, 300);
    let mut vc = Client::connect(victim.endpoint(), 1024, false).expect("connect victim");
    vc.submit(21, 1, &events).expect("submit victim session");
    drop(vc);
    let mut export = kill_and_export(victim)
        .into_iter()
        .next()
        .expect("one export");
    // Inflate the WAL past the frame cap with a torn tail; the
    // recovery scan stops at the corruption, exactly as it does for a
    // torn on-disk suffix.
    export
        .wal
        .extend(std::iter::repeat_n(0xFF, latch_proto::MAX_FRAME_PAYLOAD + (1 << 20)));
    let importer = start_node();
    let mut ic = Client::connect(importer.endpoint(), 1024, false).expect("connect importer");
    let applied = ic
        .migrate_session(export.session, migrate_into::LIVE, &state_of(export))
        .expect("oversized state must still migrate");
    assert_eq!(applied, events.len() as u64);
    assert_eq!(ic.drain().expect("drain importer").len(), 1);
    let (got_applied, bytes) = ic.report(21).expect("report");
    assert_eq!(got_applied, events.len() as u64);
    assert_eq!(bytes, solo_report(&events));
    importer.shutdown();
}
