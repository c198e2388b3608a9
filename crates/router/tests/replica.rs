//! Replication and live-rebalancing end-to-end: real sockets, a node
//! kill **with its storage destroyed**, and drain-free membership
//! changes — every surviving stream byte-identical to its solo run.
//!
//! The contracts under test:
//!
//! - **Diskless failover** — with `replicas > 0`, killing a node *and*
//!   dropping its `MemStorage` entirely still drains every session
//!   byte-identical to a solo [`SessionPipeline`] run, because each
//!   acked batch was synchronously journaled on the session's backup
//!   nodes before the client saw its ack. `lost_sessions()` stays
//!   empty: no `AckedLost` while one backup survives.
//! - **Drain-free rebalancing** — a planned join or leave migrates
//!   exactly the remap set at a sequenced cut-point while the old
//!   owners keep serving, with zero client-visible stream
//!   interruption, and the rebalance history reruns
//!   byte-identically.

use latch_client::{Client, ClientError};
use latch_faults::FaultPlan;
use latch_proto::{migrate_into, Endpoint, MAX_FRAME_PAYLOAD};
use latch_router::{
    Exporter, MigrationRecord, Router, RouterConfig, RouterServer, RouterServerConfig,
};
use latch_serve::{DurableConfig, DurableService, MemStorage, ServeConfig, WireConfig, WireServer};
use latch_sim::event::{Event, EventSource};
use latch_systems::session::SessionPipeline;
use latch_workloads::all_profiles;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

const SEED: u64 = 0x4EB1_5E55_10F1;

fn stream(profile_idx: usize, seed: u64, n: u64) -> Vec<Event> {
    let profiles = all_profiles();
    let mut src = profiles[profile_idx % profiles.len()].stream(seed, n);
    let mut out = Vec::new();
    while let Some(ev) = src.next_event() {
        out.push(ev);
    }
    out
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
    let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
    WireServer::start(&endpoint, svc, WireConfig::default()).expect("bind loopback node")
}

/// A node that never snapshots (and so never rotates its journal), with
/// a queue deep enough for 4096-event batches: the cheapest way to grow
/// a session's durable state past one frame.
fn start_packrat_node() -> WireServer<MemStorage> {
    let (svc, _recovery) = DurableService::recover(
        ServeConfig {
            queue_events: 1 << 14,
            session_inflight_cap: 1 << 12,
            ..serve_config()
        },
        DurableConfig {
            snapshot_every: u64::MAX,
            ..DurableConfig::default()
        },
        FaultPlan::benign(),
        MemStorage::new(FaultPlan::benign()),
    );
    let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
    WireServer::start(&endpoint, svc, WireConfig::default()).expect("bind loopback node")
}

/// Empty events journal at 8 bytes each, so a never-rotated WAL of
/// these alone passes the frame cap.
fn over_frame_stream() -> Vec<Event> {
    vec![Event::empty(0); MAX_FRAME_PAYLOAD / 8 + 4096]
}

/// Feeds `events` to one session through the router in 4096-event
/// batches, retrying typed backpressure.
fn feed(router: &mut Router, session: u64, events: &[Event]) {
    for batch in events.chunks(4096) {
        loop {
            match router.submit(session, 0, batch) {
                Ok(()) => break,
                Err(latch_router::RouterError::Rejected(_)) => {}
                Err(e) => panic!("session {session} submit failed: {e}"),
            }
        }
    }
}

fn router_config(replicas: u32) -> RouterConfig {
    RouterConfig {
        seed: SEED,
        vnodes: 32,
        miss_budget: 2,
        window_events: 256,
        router_id: 7,
        replicas,
        ..RouterConfig::default()
    }
}

/// Kills a node and destroys its storage outright — the full-machine
/// loss failure mode. Nothing survives to export.
fn kill_and_destroy(server: WireServer<MemStorage>) {
    let svc = server.kill().expect("victim was not drained");
    drop(svc.crash()); // the MemStorage, gone with the machine
}

fn solo_report(events: &[Event]) -> Vec<u8> {
    let mut pipe = SessionPipeline::new(serve_config().scrub_interval);
    for ev in events {
        pipe.apply(ev);
    }
    pipe.report().encode()
}

fn drive_round(router: &mut Router, streams: &[Vec<Event>], pos: &mut [usize], chunk: usize) {
    for (s, events) in streams.iter().enumerate() {
        if pos[s] >= events.len() {
            continue;
        }
        let take = chunk.min(events.len() - pos[s]);
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
}

fn check_reports(reports: &BTreeMap<u64, Vec<u8>>, streams: &[Vec<Event>], what: &str) {
    assert_eq!(reports.len(), streams.len(), "{what}: one report per session");
    for (s, events) in streams.iter().enumerate() {
        assert_eq!(
            reports[&(s as u64)],
            solo_report(events),
            "{what}: session {s} diverged from its solo run"
        );
    }
}

/// Killing a node and destroying its storage, with `replicas: 2` on a
/// 3-node ring, still drains every session byte-identical to its solo
/// run: the failover sources the acked prefix from backup journals, so
/// no session is poisoned and none is lost.
#[test]
fn diskless_failover_drains_byte_identical() {
    const SESSIONS: usize = 8;
    const EVENTS: u64 = 400;
    const CHUNK: usize = 48;
    let mut servers: Vec<Option<WireServer<MemStorage>>> =
        (0..3).map(|_| Some(start_node())).collect();
    let mut router = Router::new(router_config(2));
    for (id, srv) in servers.iter().enumerate() {
        router.add_node(id as u32, srv.as_ref().expect("fresh").endpoint().clone());
    }
    let streams: Vec<Vec<Event>> = (0..SESSIONS)
        .map(|s| stream(s, SEED.wrapping_add(s as u64), EVENTS))
        .collect();
    let mut pos = vec![0usize; SESSIONS];
    for _ in 0..(EVENTS as usize / CHUNK / 2) {
        drive_round(&mut router, &streams, &mut pos, CHUNK);
    }

    let victim = router.owner_of(0).expect("ring has nodes");
    let owned_by_victim: BTreeSet<u64> = (0..SESSIONS as u64)
        .filter(|&s| router.owner_of(s) == Some(victim))
        .collect();
    kill_and_destroy(servers[victim as usize].take().expect("victim"));
    // The machine is gone: the exporter has *nothing* to offer.
    let records = router
        .fail_over(victim, Vec::new())
        .expect("diskless failover");

    let migrated: BTreeSet<u64> = records.iter().map(|m| m.session).collect();
    assert_eq!(migrated, owned_by_victim, "migration set != victim's sessions");
    for m in &records {
        assert!(m.applied > 0, "session {} restored no state", m.session);
        assert!(router.is_alive(m.to_node));
    }
    assert!(
        router.lost_sessions().is_empty(),
        "a backup survived, so no session may be acked-lost: {:?}",
        router.lost_sessions()
    );

    while pos.iter().zip(&streams).any(|(&p, ev)| p < ev.len()) {
        drive_round(&mut router, &streams, &mut pos, CHUNK);
    }
    let reports: BTreeMap<u64, Vec<u8>> = router.drain().expect("drain").into_iter().collect();
    check_reports(&reports, &streams, "diskless");
    for srv in servers.into_iter().flatten() {
        srv.shutdown();
    }
}

/// The same total-loss kill through the wire front door, with one
/// client thread per session and the heartbeat discovering the death:
/// the exporter answers empty (the disk is gone) and every stream
/// still reproduces.
#[test]
fn diskless_failover_through_wire_with_live_clients() {
    const SESSIONS: usize = 6;
    const EVENTS: u64 = 600;
    let mut servers: Vec<Option<WireServer<MemStorage>>> =
        (0..3).map(|_| Some(start_node())).collect();
    let mut router = Router::new(router_config(2));
    for (id, srv) in servers.iter().enumerate() {
        router.add_node(id as u32, srv.as_ref().expect("fresh").endpoint().clone());
    }
    let victim = router.owner_of(0).expect("ring has nodes");
    // Total machine loss: the storage directory no longer exists, so
    // the exporter has nothing — recovery must come from the backups.
    let exporter: Exporter = Box::new(|_| Vec::new());
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
    let endpoint = front.endpoint().clone();

    let session0_started = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let victim_server = servers[victim as usize].take().expect("victim exists");
    let killer_flag = std::sync::Arc::clone(&session0_started);
    let killer = std::thread::spawn(move || {
        for _ in 0..5_000 {
            if killer_flag.load(std::sync::atomic::Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(10));
        kill_and_destroy(victim_server);
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
            let started = std::sync::Arc::clone(&session0_started);
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
    check_reports(&reports, &streams, "diskless wire");
    let (lost, victim_alive) =
        front.with_router(|r| (r.lost_sessions(), r.is_alive(victim)));
    assert!(!victim_alive, "victim still marked alive");
    assert!(lost.is_empty(), "diskless failover lost acked state: {lost:?}");
    front.shutdown();
    for srv in servers.into_iter().flatten() {
        srv.shutdown();
    }
}

/// A batch in flight when the machine dies (admitted by nobody) is
/// in-doubt; the backup journals hold *only* acked batches, so the
/// diskless restore resolves it as not-landed and the retry applies it
/// exactly once.
#[test]
fn in_doubt_batch_resolves_after_diskless_failover() {
    let node_a = start_node();
    let node_b = start_node();
    let mut router = Router::new(router_config(1));
    router.add_node(0, node_a.endpoint().clone());
    router.add_node(1, node_b.endpoint().clone());
    let session = (0..64)
        .find(|&s| router.owner_of(s) == Some(0))
        .expect("node 0 owns some session");
    let events = stream(0, SEED ^ 0x1D0B, 200);
    router.submit(session, 1, &events[..100]).expect("first half");
    kill_and_destroy(node_a);
    // The forward fails mid-flight: the batch's fate is in doubt. The
    // kill closed the node's sockets before it returned, so the very
    // next forward meets a dead transport, not a typed refusal.
    let err = router
        .submit(session, 1, &events[100..150])
        .expect_err("dead owner admitted a batch");
    assert!(matches!(err, latch_router::RouterError::NodeDown { node: 0 }));
    router.fail_over(0, Vec::new()).expect("diskless failover");
    assert!(router.lost_sessions().is_empty());
    // Retry the in-doubt batch, then finish: exactly-once overall.
    router.submit(session, 1, &events[100..150]).expect("retry");
    router.submit(session, 1, &events[150..]).expect("rest");
    let reports: BTreeMap<u64, Vec<u8>> = router.drain().expect("drain").into_iter().collect();
    assert_eq!(reports[&session], solo_report(&events));
    node_b.shutdown();
}

/// A planned join migrates exactly the remap set — the sessions whose
/// ring owner becomes the joiner — while every other session stays
/// put, and the moved streams finish on the new owner byte-identically.
#[test]
fn rebalance_join_migrates_the_minimal_remap_set() {
    const SESSIONS: usize = 8;
    const EVENTS: u64 = 400;
    const CHUNK: usize = 48;
    let mut servers: Vec<Option<WireServer<MemStorage>>> =
        (0..2).map(|_| Some(start_node())).collect();
    let mut router = Router::new(router_config(1));
    for (id, srv) in servers.iter().enumerate() {
        router.add_node(id as u32, srv.as_ref().expect("fresh").endpoint().clone());
    }
    let streams: Vec<Vec<Event>> = (0..SESSIONS)
        .map(|s| stream(s, SEED.wrapping_add(s as u64), EVENTS))
        .collect();
    let mut pos = vec![0usize; SESSIONS];
    for _ in 0..(EVENTS as usize / CHUNK / 2) {
        drive_round(&mut router, &streams, &mut pos, CHUNK);
    }
    let owners_before: BTreeMap<u64, u32> = (0..SESSIONS as u64)
        .map(|s| (s, router.owner_of(s).expect("placed")))
        .collect();

    let joiner = start_node();
    let records = router
        .rebalance_join(2, joiner.endpoint().clone())
        .expect("join");
    servers.push(Some(joiner));

    // Exactly the sessions the seeded ring now assigns to the joiner
    // moved; everything else kept its owner.
    let moved: BTreeSet<u64> = records.iter().map(|r| r.session).collect();
    assert!(!moved.is_empty(), "seeded ring remapped no session to the joiner");
    for s in 0..SESSIONS as u64 {
        if moved.contains(&s) {
            assert_eq!(router.owner_of(s), Some(2), "moved session not on joiner");
        } else {
            assert_eq!(
                router.owner_of(s),
                Some(owners_before[&s]),
                "unmoved session changed owner"
            );
        }
    }
    for r in &records {
        assert_eq!(r.to_node, 2);
        assert_ne!(r.from_node, 2);
        assert!(r.applied > 0, "session {} moved with no state", r.session);
    }
    assert_eq!(router.rebalance_history(), records.as_slice());
    assert!(router.lost_sessions().is_empty(), "a planned move lost state");

    while pos.iter().zip(&streams).any(|(&p, ev)| p < ev.len()) {
        drive_round(&mut router, &streams, &mut pos, CHUNK);
    }
    let reports: BTreeMap<u64, Vec<u8>> = router.drain().expect("drain").into_iter().collect();
    check_reports(&reports, &streams, "join");
    for srv in servers.into_iter().flatten() {
        srv.shutdown();
    }
}

/// A planned leave moves every session off the leaver at sequenced
/// cut-points — the leaver keeps serving each one until its cut, never
/// drains, and contributes no duplicate report afterwards.
#[test]
fn rebalance_leave_moves_every_owned_session() {
    const SESSIONS: usize = 8;
    const EVENTS: u64 = 400;
    const CHUNK: usize = 48;
    let servers: Vec<Option<WireServer<MemStorage>>> = (0..3).map(|_| Some(start_node())).collect();
    let mut router = Router::new(router_config(1));
    for (id, srv) in servers.iter().enumerate() {
        router.add_node(id as u32, srv.as_ref().expect("fresh").endpoint().clone());
    }
    let streams: Vec<Vec<Event>> = (0..SESSIONS)
        .map(|s| stream(s, SEED.wrapping_add(s as u64), EVENTS))
        .collect();
    let mut pos = vec![0usize; SESSIONS];
    for _ in 0..(EVENTS as usize / CHUNK / 2) {
        drive_round(&mut router, &streams, &mut pos, CHUNK);
    }

    let leaver = router.owner_of(0).expect("ring has nodes");
    let owned: BTreeSet<u64> = (0..SESSIONS as u64)
        .filter(|&s| router.owner_of(s) == Some(leaver))
        .collect();
    let records = router.rebalance_leave(leaver).expect("leave");
    let moved: BTreeSet<u64> = records.iter().map(|r| r.session).collect();
    assert_eq!(moved, owned, "leave must move exactly the leaver's sessions");
    for r in &records {
        assert_eq!(r.from_node, leaver);
        assert_ne!(r.to_node, leaver);
    }
    assert!(
        router.is_alive(leaver),
        "a planned leave must not declare the node dead"
    );
    assert!(router.lost_sessions().is_empty(), "a planned move lost state");

    while pos.iter().zip(&streams).any(|(&p, ev)| p < ev.len()) {
        drive_round(&mut router, &streams, &mut pos, CHUNK);
    }
    // The leaver is still a live member: the cluster drain consumes it
    // too, and its expelled sessions must not produce duplicates.
    let reports: BTreeMap<u64, Vec<u8>> = router.drain().expect("drain").into_iter().collect();
    check_reports(&reports, &streams, "leave");
    for srv in servers.into_iter().flatten() {
        srv.shutdown();
    }
}

/// Join and leave under *live client threads*: the rebalances run at
/// sequenced cut-points while clients keep streaming, no client ever
/// sees a non-retryable error, and every stream drains byte-identical.
#[test]
fn rebalance_under_live_clients_never_interrupts_a_stream() {
    const SESSIONS: usize = 6;
    const EVENTS: u64 = 800;
    let mut servers: Vec<Option<WireServer<MemStorage>>> =
        (0..2).map(|_| Some(start_node())).collect();
    let mut router = Router::new(router_config(1));
    for (id, srv) in servers.iter().enumerate() {
        router.add_node(id as u32, srv.as_ref().expect("fresh").endpoint().clone());
    }
    let exporter: Exporter = Box::new(|_| Vec::new());
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
    let endpoint = front.endpoint().clone();

    let streams: Vec<Vec<Event>> = (0..SESSIONS)
        .map(|s| stream(s, SEED.wrapping_add(s as u64), EVENTS))
        .collect();
    let rolling = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let handles: Vec<_> = streams
        .iter()
        .enumerate()
        .map(|(s, events)| {
            let endpoint = endpoint.clone();
            let events = events.clone();
            let rolling = std::sync::Arc::clone(&rolling);
            std::thread::spawn(move || {
                let mut client = Client::connect(&endpoint, 256, false).expect("connect router");
                let mut pos = 0usize;
                let mut rounds = 0u64;
                while pos < events.len() {
                    assert!(rounds < 1_000_000, "drive failed to make progress");
                    rounds += 1;
                    let take = 16.min(events.len() - pos);
                    match client.submit(s as u64, (s % 3) as u8, &events[pos..pos + take]) {
                        Ok(()) => {
                            pos += take;
                            if s == 0 && pos >= events.len() / 4 {
                                rolling.store(true, std::sync::atomic::Ordering::SeqCst);
                            }
                        }
                        Err(ClientError::Rejected(_)) => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(e) => panic!(
                            "session {s}: stream interrupted by the rebalance: {e}"
                        ),
                    }
                }
            })
        })
        .collect();

    // Mid-stream: a node joins, then (once the join settled) node 0
    // leaves — both while every client keeps submitting.
    for _ in 0..10_000 {
        if rolling.load(std::sync::atomic::Ordering::SeqCst) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let joiner = start_node();
    let joiner_ep = joiner.endpoint().clone();
    servers.push(Some(joiner));
    let join_records = front
        .with_router(|r| r.rebalance_join(2, joiner_ep))
        .expect("live join");
    std::thread::sleep(Duration::from_millis(20));
    let leave_records = front.with_router(|r| r.rebalance_leave(0)).expect("live leave");

    for h in handles {
        h.join().expect("client thread");
    }
    let mut client = Client::connect(&endpoint, 256, false).expect("connect router");
    let reports: BTreeMap<u64, Vec<u8>> =
        client.drain().expect("drain cluster").into_iter().collect();
    check_reports(&reports, &streams, "live rebalance");
    let (history, lost) = front.with_router(|r| (r.rebalance_history().to_vec(), r.lost_sessions()));
    assert_eq!(
        history.len(),
        join_records.len() + leave_records.len(),
        "history must be exactly the two rebalances' records"
    );
    assert!(lost.is_empty(), "a live rebalance lost acked state: {lost:?}");
    front.shutdown();
    for srv in servers.into_iter().flatten() {
        srv.shutdown();
    }
}

/// The same membership schedule replayed against a fresh cluster
/// produces a byte-identical rebalance history and identical
/// reports — rebalancing is deterministic in (seed, membership
/// changes, submission schedule).
#[test]
fn rebalance_history_is_rerun_identical() {
    const SESSIONS: usize = 6;
    const EVENTS: u64 = 300;
    const CHUNK: usize = 32;
    let streams: Vec<Vec<Event>> = (0..SESSIONS)
        .map(|s| stream(s, SEED.wrapping_add(s as u64), EVENTS))
        .collect();
    let run = || -> (Vec<MigrationRecord>, BTreeMap<u64, Vec<u8>>) {
        let mut servers: Vec<Option<WireServer<MemStorage>>> =
            (0..2).map(|_| Some(start_node())).collect();
        let mut router = Router::new(router_config(1));
        for (id, srv) in servers.iter().enumerate() {
            router.add_node(id as u32, srv.as_ref().expect("fresh").endpoint().clone());
        }
        let mut pos = vec![0usize; SESSIONS];
        for _ in 0..(EVENTS as usize / CHUNK / 2) {
            drive_round(&mut router, &streams, &mut pos, CHUNK);
        }
        let joiner = start_node();
        router
            .rebalance_join(2, joiner.endpoint().clone())
            .expect("join");
        servers.push(Some(joiner));
        drive_round(&mut router, &streams, &mut pos, CHUNK);
        router.rebalance_leave(0).expect("leave");
        while pos.iter().zip(&streams).any(|(&p, ev)| p < ev.len()) {
            drive_round(&mut router, &streams, &mut pos, CHUNK);
        }
        let reports: BTreeMap<u64, Vec<u8>> =
            router.drain().expect("drain").into_iter().collect();
        let history = router.rebalance_history().to_vec();
        for srv in servers.into_iter().flatten() {
            srv.shutdown();
        }
        (history, reports)
    };
    let (history_a, reports_a) = run();
    let (history_b, reports_b) = run();
    assert!(!history_a.is_empty(), "the schedule must actually move sessions");
    assert_eq!(history_a, history_b, "rebalance history changed between reruns");
    assert_eq!(reports_a, reports_b, "reports changed between reruns");
    check_reports(&reports_a, &streams, "rerun");
}

/// Back-to-back diskless kills with no submit in between: the second
/// victim is the node that just imported a moved session, by a failover
/// or by a planned leave. Every move ends with a repair pass that seeds
/// each live replica-group member from its session's owner, so the
/// second restore finds a journal that covers the acked prefix and
/// poisons nothing — with two backups per session, with one, and with
/// one after a leave.
#[test]
fn back_to_back_diskless_failovers_never_poison() {
    back_to_back_diskless_failovers(2, false);
    back_to_back_diskless_failovers(1, false);
    back_to_back_diskless_failovers(1, true);
}

fn back_to_back_diskless_failovers(replicas: u32, leave_first: bool) {
    const SESSIONS: usize = 8;
    const EVENTS: u64 = 400;
    const CHUNK: usize = 48;
    let what = format!("back-to-back diskless, replicas {replicas}, leave first {leave_first}");
    let mut servers: Vec<Option<WireServer<MemStorage>>> =
        (0..3).map(|_| Some(start_node())).collect();
    let mut router = Router::new(router_config(replicas));
    for (id, srv) in servers.iter().enumerate() {
        router.add_node(id as u32, srv.as_ref().expect("fresh").endpoint().clone());
    }
    let streams: Vec<Vec<Event>> = (0..SESSIONS)
        .map(|s| stream(s, SEED.wrapping_add(s as u64), EVENTS))
        .collect();
    let mut pos = vec![0usize; SESSIONS];
    for _ in 0..(EVENTS as usize / CHUNK / 2) {
        drive_round(&mut router, &streams, &mut pos, CHUNK);
    }

    let first = router.owner_of(0).expect("ring has nodes");
    let records = if leave_first {
        router.rebalance_leave(first).expect("planned leave")
    } else {
        kill_and_destroy(servers[first as usize].take().expect("first victim"));
        router
            .fail_over(first, Vec::new())
            .expect("first diskless failover")
    };
    // Kill the node that just imported a moved session *before* any
    // further submit.
    let victim = records.first().expect("the first node owned sessions").to_node;
    kill_and_destroy(servers[victim as usize].take().expect("victim"));
    let records2 = router
        .fail_over(victim, Vec::new())
        .expect("second diskless failover");

    let moved_twice: BTreeSet<u64> = records
        .iter()
        .filter(|m| m.to_node == victim)
        .map(|m| m.session)
        .collect();
    let moved_second: BTreeSet<u64> = records2.iter().map(|m| m.session).collect();
    assert!(
        moved_second.is_superset(&moved_twice),
        "{what}: sessions that had just moved to the victim must move again: \
         {moved_twice:?} vs {moved_second:?}"
    );
    for m in &records2 {
        assert!(m.applied > 0, "{what}: session {} restored no state", m.session);
    }
    assert!(
        router.lost_sessions().is_empty(),
        "{what}: no session may be poisoned while a live node holds its journal: {:?}",
        router.lost_sessions()
    );

    while pos.iter().zip(&streams).any(|(&p, ev)| p < ev.len()) {
        drive_round(&mut router, &streams, &mut pos, CHUNK);
    }
    let reports: BTreeMap<u64, Vec<u8>> = router.drain().expect("drain").into_iter().collect();
    check_reports(&reports, &streams, &what);
    for srv in servers.into_iter().flatten() {
        srv.shutdown();
    }
}

/// A backup journal larger than one frame is fetched whole: the
/// backup streams it as chunks, the probe reassembles every acked
/// event, and a diskless failover of the owner restores the full acked
/// prefix from it without evicting the healthy backup.
#[test]
fn over_frame_backup_journal_is_fetched_whole_and_restores() {
    let node_a = start_packrat_node();
    let node_b = start_packrat_node();
    // The owner never cuts its journal, so every reseed of the backup
    // is the whole history: the journal passes the frame cap anyway.
    let mut router = Router::new(router_config(1));
    router.add_node(0, node_a.endpoint().clone());
    router.add_node(1, node_b.endpoint().clone());
    let session = (0..64)
        .find(|&s| router.owner_of(s) == Some(0))
        .expect("node 0 owns some session");
    let events = over_frame_stream();
    feed(&mut router, session, &events);

    let mut raw = Client::connect(node_b.endpoint(), 256, false).expect("connect backup");
    let journal = raw
        .repl_fetch(session, false)
        .expect("fetch the backup journal")
        .expect("the backup holds a journal");
    assert!(
        journal.blob.len() + journal.wal.len() > MAX_FRAME_PAYLOAD,
        "the journal must not fit one frame"
    );
    assert_eq!(journal.journaled, events.len() as u64, "the fetch lost acked events");
    drop(raw);

    kill_and_destroy(node_a);
    let records = router
        .fail_over(0, Vec::new())
        .expect("failover from the over-frame journal");
    assert!(router.is_alive(1), "the healthy backup must not be evicted");
    assert!(
        router.lost_sessions().is_empty(),
        "the backup journal covers the acked prefix: {:?}",
        router.lost_sessions()
    );
    let moved = records
        .iter()
        .find(|m| m.session == session)
        .expect("session migrated");
    assert_eq!(moved.applied, events.len() as u64, "restore lost acked events");
    let reports: BTreeMap<u64, Vec<u8>> = router.drain().expect("drain").into_iter().collect();
    assert_eq!(reports[&session], solo_report(&events));
    node_b.shutdown();
}

/// A live owner whose state exceeds one frame answers *both* fetch
/// flavours with the whole state as chunks: the pre-copy probe and the
/// cut return the same full state, the cut expels the session (a later
/// fetch finds nothing and the owner's drain omits it), and importing
/// the cut state elsewhere matches the solo run.
#[test]
fn over_frame_live_export_is_fetched_whole_by_both_flavours() {
    let node = start_packrat_node();
    let mut client = Client::connect(node.endpoint(), 4096, false).expect("connect node");
    let events = over_frame_stream();
    for batch in events.chunks(4096) {
        loop {
            match client.submit(5, 0, batch) {
                Ok(()) => break,
                Err(ClientError::Rejected(_)) => {}
                Err(e) => panic!("submit failed: {e}"),
            }
        }
    }
    let peek = client
        .repl_fetch(5, false)
        .expect("pre-copy fetch")
        .expect("session resident");
    assert!(
        peek.blob.len() + peek.wal.len() > MAX_FRAME_PAYLOAD,
        "the state must not fit one frame"
    );
    assert_eq!(peek.journaled, events.len() as u64);
    let cut = client
        .repl_fetch(5, true)
        .expect("cut fetch")
        .expect("session resident");
    assert_eq!(cut, peek, "nothing was admitted between the two fetches");
    assert_eq!(
        client.repl_fetch(5, false).expect("fetch after the cut"),
        None,
        "the expel must remove the session"
    );
    let reports = client.drain().expect("drain node");
    assert!(
        reports.iter().all(|(s, _)| *s != 5),
        "an expelled session must not report on its old owner"
    );
    node.shutdown();

    let importer = start_packrat_node();
    let mut ic = Client::connect(importer.endpoint(), 256, false).expect("connect importer");
    let applied = ic
        .migrate_session(5, migrate_into::LIVE, &cut)
        .expect("import the cut state");
    assert_eq!(applied, events.len() as u64);
    ic.drain().expect("drain importer");
    let (got_applied, bytes) = ic.report(5).expect("report");
    assert_eq!(got_applied, events.len() as u64);
    assert_eq!(bytes, solo_report(&events));
    importer.shutdown();
}

/// An owner whose export exceeds one frame leaves through a planned
/// `rebalance_leave`: the pre-copy and the cut fetch the state as
/// staged chunks, so the session moves whole and drains equal to its
/// solo run instead of failing the leave and staying on the leaver.
#[test]
fn rebalance_leave_moves_an_over_frame_session() {
    let node_a = start_packrat_node();
    let node_b = start_packrat_node();
    let mut router = Router::new(router_config(0));
    router.add_node(0, node_a.endpoint().clone());
    router.add_node(1, node_b.endpoint().clone());
    let session = (0..64)
        .find(|&s| router.owner_of(s) == Some(0))
        .expect("node 0 owns some session");
    let events = over_frame_stream();
    feed(&mut router, session, &events);
    let records = router
        .rebalance_leave(0)
        .expect("an over-frame session must not block the leave");
    assert_eq!(records.len(), 1, "the leaver owned one session");
    assert_eq!((records[0].session, records[0].to_node), (session, 1));
    assert_eq!(records[0].applied, events.len() as u64);
    assert_eq!(router.owner_of(session), Some(1));
    let reports: BTreeMap<u64, Vec<u8>> = router.drain().expect("drain").into_iter().collect();
    assert_eq!(reports.len(), 1, "the leaver must not report the moved session");
    assert_eq!(reports[&session], solo_report(&events));
    node_a.shutdown();
    node_b.shutdown();
}

/// A stand-in owner that acks submits without applying them, answers
/// the pre-copy fetch with `state`, and hangs up on the cut fetch: a
/// rebalance that fails after its pre-copy was staged on the importer.
fn start_cut_dying_node(state: latch_client::SessionState) -> Endpoint {
    use latch_proto::{migrate_chunks, read_msg, write_msg, Msg, MIGRATE_CHUNK_BYTES};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake owner");
    let endpoint = Endpoint::Tcp(listener.local_addr().expect("bound").to_string());
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut conn) = conn else { return };
            let state = state.clone();
            std::thread::spawn(move || {
                let mut admitted = 0u64;
                while let Ok(Some(msg)) = read_msg(&mut conn) {
                    let replies = match msg {
                        Msg::Hello { window_events, .. } => vec![Msg::HelloAck {
                            version: latch_proto::PROTO_VERSION,
                            window_events,
                        }],
                        Msg::NodeHello { token, .. } | Msg::Ping { token } => {
                            vec![Msg::Pong { token }]
                        }
                        Msg::Adopt { epoch, .. } => vec![Msg::AdoptAck {
                            epoch,
                            sessions: Vec::new(),
                        }],
                        Msg::Submit {
                            session, events, ..
                        } => {
                            admitted += events.len() as u64;
                            vec![Msg::SubmitOk { session, admitted }]
                        }
                        Msg::ReplFetch {
                            session,
                            expel: false,
                        } => migrate_chunks(session, &state.blob, &state.wal, MIGRATE_CHUNK_BYTES)
                            .chain([Msg::ReplState {
                                session,
                                found: true,
                                rank: state.rank,
                                journaled: state.journaled,
                            }])
                            .collect(),
                        _ => return,
                    };
                    for reply in &replies {
                        if write_msg(&mut conn, reply).is_err() {
                            return;
                        }
                    }
                }
            });
        }
    });
    endpoint
}

/// A rebalance that dies after staging its pre-copy on the importer
/// must not leave those bytes behind: the owner's failover then imports
/// the session on that same importer, and the import is exactly the
/// shipped state, not the stale pre-copy with the export appended.
#[test]
fn failed_rebalance_leaves_no_staging_behind() {
    let events = stream(0, SEED ^ 0x5A6E, 300);
    let mut ring = latch_router::Ring::new(SEED, router_config(0).vnodes);
    ring.add_node(0);
    ring.add_node(1);
    let session = (0..64)
        .find(|&s| ring.owner(s) == Some(0))
        .expect("node 0 owns some session");
    // The real state a snapshotting owner would hold for the stream,
    // so the pre-copy and the export both carry a snapshot blob.
    let (svc, _recovery) = DurableService::recover(
        serve_config(),
        DurableConfig {
            snapshot_every: 64,
            ..DurableConfig::default()
        },
        FaultPlan::benign(),
        MemStorage::new(FaultPlan::benign()),
    );
    let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
    let source = WireServer::start(&endpoint, svc, WireConfig::default()).expect("bind source");
    let mut client = Client::connect(source.endpoint(), 4096, false).expect("connect source");
    client.submit(session, 1, &events).expect("submit");
    let state = client
        .repl_fetch(session, false)
        .expect("fetch")
        .expect("session resident");
    assert!(!state.blob.is_empty(), "the state must carry a snapshot blob");
    drop(client);
    source.shutdown();

    let importer = start_node();
    let mut router = Router::new(router_config(0));
    router.add_node(0, start_cut_dying_node(state.clone()));
    router.add_node(1, importer.endpoint().clone());
    router.submit(session, 1, &events).expect("submit through the router");
    assert!(
        router.rebalance_leave(0).is_err(),
        "the owner hangs up on the cut fetch"
    );

    let export = latch_serve::SessionExport {
        session,
        priority: latch_serve::Priority::from_rank(state.rank).expect("rank"),
        blob: state.blob,
        wal: state.wal,
    };
    let records = router
        .fail_over(0, vec![export])
        .expect("failover onto the importer the rebalance staged on");
    assert_eq!(records.len(), 1);
    assert_eq!((records[0].to_node, records[0].applied), (1, events.len() as u64));
    let reports: BTreeMap<u64, Vec<u8>> = router.drain().expect("drain").into_iter().collect();
    assert_eq!(reports[&session], solo_report(&events));
    importer.shutdown();
}
