//! Router HA end-to-end: epoch-fenced standby takeover with state
//! rebuilt from the nodes, over real sockets.
//!
//! The contracts under test:
//!
//! - **Takeover continuity** — killing the primary router mid-stream
//!   under live client threads lets a warm standby adopt the nodes,
//!   rebuild routes from their quiescent surveys, reseed each session's
//!   backups from its owner, and drain every session byte-identical to
//!   its solo run with `lost_sessions()` empty. The
//!   retry-is-never-double-applied guarantee survives the router
//!   switch: an orphaned in-flight batch is resolved against the new
//!   router's admitted cursor.
//! - **Fencing** — a revived old router's commands are refused with
//!   the typed `StaleRouter` answer and apply *nothing*: the streams
//!   it touched still match their solo oracles afterwards.
//! - **Determinism** — the [`TakeoverRecord`] is rerun-identical for a
//!   given (seed, schedule, kill point), even when a node died *with*
//!   the old router and its sessions were restored from surviving
//!   replica journals.

use latch_client::{Client, ClientError, HaClient};
use latch_faults::FaultPlan;
use latch_proto::Endpoint;
use latch_router::{
    Exporter, Router, RouterConfig, RouterError, RouterServer, RouterServerConfig, TakeoverRecord,
};
use latch_serve::{
    journal, DurableConfig, DurableService, MemStorage, Priority, ServeConfig, WireConfig,
    WireServer,
};
use latch_sim::event::{Event, EventSource};
use latch_systems::session::SessionPipeline;
use latch_workloads::all_profiles;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

const SEED: u64 = 0x57A2_B1E7_0A0C;

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

fn router_config(replicas: u32, router_id: u64) -> RouterConfig {
    RouterConfig {
        seed: SEED,
        vnodes: 32,
        miss_budget: 2,
        window_events: 256,
        router_id,
        replicas,
        ..RouterConfig::default()
    }
}

/// Kills a node and destroys its storage outright — nothing survives
/// to export.
fn kill_and_destroy(server: WireServer<MemStorage>) {
    let svc = server.kill().expect("victim was not drained");
    drop(svc.crash());
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
                Err(RouterError::Rejected(_)) => {}
                Err(e) => panic!("session {s} submit failed: {e}"),
            }
        }
    }
}

/// `(journaled, wal_len)` of the backup journal a node holds for
/// `session`, from the node's own replica survey.
fn backup_journal(backup: &mut Client, session: u64) -> (u64, u64) {
    backup
        .survey_replicas()
        .expect("survey the backup")
        .into_iter()
        .find(|e| e.0 == session)
        .map(|(_, _, journaled, wal_len)| (journaled, wal_len))
        .expect("the backup holds a journal for the session")
}

/// Submits one batch, retrying typed backpressure.
fn submit_all(router: &mut Router, session: u64, batch: &[Event]) {
    loop {
        match router.submit(session, 0, batch) {
            Ok(()) => return,
            Err(RouterError::Rejected(_)) => {}
            Err(e) => panic!("session {session} submit failed: {e}"),
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

/// Kill the primary router mid-stream under live per-session client
/// threads: the warm standby heartbeats the primary, notices the
/// death, takes over by rebuilding state from the nodes, and every
/// stream finishes and drains byte-identical through the standby — no
/// session lost, no batch double-applied.
#[test]
fn standby_takeover_drains_byte_identical_under_live_clients() {
    const SESSIONS: usize = 6;
    const EVENTS: u64 = 600;
    let servers: Vec<WireServer<MemStorage>> = (0..3).map(|_| start_node()).collect();
    let mut primary_router = Router::new(router_config(2, 7));
    let mut standby_router = Router::new(router_config(2, 8));
    for (id, srv) in servers.iter().enumerate() {
        primary_router.add_node(id as u32, srv.endpoint().clone());
        standby_router.add_node(id as u32, srv.endpoint().clone());
    }
    let cfg = RouterServerConfig {
        max_window_events: 1 << 14,
        heartbeat: Duration::from_millis(10),
        standby_miss_budget: 2,
        ..RouterServerConfig::default()
    };
    let primary = RouterServer::start(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        primary_router,
        Box::new(|_| Vec::new()) as Exporter,
        cfg,
    )
    .expect("bind primary");
    let primary_ep = primary.endpoint().clone();
    let standby = RouterServer::start_standby(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        standby_router,
        Box::new(|_| Vec::new()) as Exporter,
        cfg,
        primary_ep.clone(),
    )
    .expect("bind standby");
    let standby_ep = standby.endpoint().clone();
    assert!(!standby.is_active(), "standby must start passive");

    // A client pointed at the standby before the takeover gets the
    // typed refusal, not a hang or a protocol error.
    let mut probe = Client::connect(&standby_ep, 256, false).expect("connect standby");
    match probe.submit(0, 0, &stream(0, SEED, 1)) {
        Err(ClientError::Server { code }) => {
            assert_eq!(code, latch_proto::error_code::STANDBY);
        }
        other => panic!("standby answered a submit: {other:?}"),
    }
    drop(probe);

    let streams: Vec<Vec<Event>> = (0..SESSIONS)
        .map(|s| stream(s, SEED.wrapping_add(s as u64), EVENTS))
        .collect();
    let rolling = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let killer_flag = std::sync::Arc::clone(&rolling);
    let killer = std::thread::spawn(move || {
        for _ in 0..10_000 {
            if killer_flag.load(std::sync::atomic::Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // The primary dies mid-stream, with client batches in flight.
        primary.shutdown();
    });
    let handles: Vec<_> = streams
        .iter()
        .enumerate()
        .map(|(s, events)| {
            let endpoints = vec![primary_ep.clone(), standby_ep.clone()];
            let events = events.clone();
            let rolling = std::sync::Arc::clone(&rolling);
            std::thread::spawn(move || {
                let mut client = HaClient::new(endpoints, 256, false);
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
                        Err(e) => panic!("session {s}: stream died across the takeover: {e}"),
                    }
                }
                assert_eq!(client.acked(s as u64), events.len() as u64);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    killer.join().expect("killer thread");

    assert!(standby.is_active(), "standby never took over");
    let mut client = HaClient::new(vec![standby_ep], 256, false);
    let reports: BTreeMap<u64, Vec<u8>> =
        client.drain().expect("drain via standby").into_iter().collect();
    check_reports(&reports, &streams, "standby takeover");
    let (lost, takeovers, epoch) = standby.with_router(|r| {
        (
            r.lost_sessions(),
            r.takeover_history().to_vec(),
            r.epoch(),
        )
    });
    assert!(lost.is_empty(), "takeover lost acked state: {lost:?}");
    assert_eq!(takeovers.len(), 1, "exactly one takeover");
    assert_eq!(takeovers[0].epoch, epoch);
    assert_eq!(takeovers[0].adopted, vec![0, 1, 2], "all nodes adopted");
    assert!(takeovers[0].dead.is_empty(), "no node died with the router");
    standby.shutdown();
    for srv in servers {
        srv.shutdown();
    }
}

/// A revived old router is fenced: its submits answer the typed
/// `StaleRouter` refusal — over its existing (pre-takeover) connection
/// *and* over a fresh dial — and apply nothing, proven by the streams
/// still matching their solo oracles when the new router finishes
/// them.
#[test]
fn revived_stale_router_is_fenced_and_applies_nothing() {
    const SESSIONS: usize = 4;
    const EVENTS: u64 = 300;
    let servers: Vec<WireServer<MemStorage>> = (0..2).map(|_| start_node()).collect();
    let mut old = Router::new(router_config(1, 7));
    let mut new = Router::new(router_config(1, 8));
    for (id, srv) in servers.iter().enumerate() {
        old.add_node(id as u32, srv.endpoint().clone());
        new.add_node(id as u32, srv.endpoint().clone());
    }
    let streams: Vec<Vec<Event>> = (0..SESSIONS)
        .map(|s| stream(s, SEED.wrapping_add(s as u64), EVENTS))
        .collect();
    let mut pos = vec![0usize; SESSIONS];
    drive_round(&mut old, &streams, &mut pos, 64);

    let rec = new.takeover().expect("standby takeover");
    assert!(rec.epoch > 1, "takeover must bump past the old epoch");
    assert_eq!(rec.adopted, vec![0, 1]);
    for &(session, _owner, admitted) in &rec.sessions {
        assert_eq!(
            admitted, 64,
            "survey admitted for session {session} != events driven"
        );
    }

    // The zombie wakes up and retries: over the connection it already
    // holds (node-side per-connection epoch vs the bumped max), and —
    // after that — over fresh dials too (the Adopt handshake refuses
    // the stale epoch). Nothing may be applied either way.
    for s in 0..SESSIONS {
        let batch = &streams[s][pos[s]..pos[s] + 16];
        match old.submit(s as u64, (s % 3) as u8, batch) {
            Err(RouterError::StaleRouter { epoch }) => assert_eq!(epoch, rec.epoch),
            other => panic!("zombie submit was not fenced: {other:?}"),
        }
    }
    assert!(
        old.lost_sessions().is_empty(),
        "a typed fence must not poison routes"
    );

    // The new router finishes every stream from exactly where the old
    // one left off; if a fenced submit had leaked an event into a
    // node, these reports would diverge from the solo oracles.
    while pos.iter().zip(&streams).any(|(&p, ev)| p < ev.len()) {
        drive_round(&mut new, &streams, &mut pos, 64);
    }
    let reports: BTreeMap<u64, Vec<u8>> = new.drain().expect("drain").into_iter().collect();
    check_reports(&reports, &streams, "post-fence");
    for srv in servers {
        srv.shutdown();
    }
}

/// A stopped router serves nothing: its shutdown closes every client
/// connection and joins the handler, so a batch sent right after the
/// shutdown returns fails on the client and never reaches a node —
/// a stopped primary cannot forward, or fail a node over, behind its
/// standby's back.
#[test]
fn stopped_router_forwards_nothing() {
    let node = start_node();
    let mut router = Router::new(router_config(0, 7));
    router.add_node(0, node.endpoint().clone());
    let cfg = RouterServerConfig {
        heartbeat: Duration::ZERO,
        ..RouterServerConfig::default()
    };
    let front = RouterServer::start(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        router,
        Box::new(|_| Vec::new()) as Exporter,
        cfg,
    )
    .expect("bind router");
    let events = stream(0, SEED, 64);
    let mut client = Client::connect(front.endpoint(), 256, false).expect("connect router");
    client.submit(0, 0, &events[..32]).expect("live router admits");
    front.shutdown();
    assert!(
        client.submit(0, 0, &events[32..]).is_err(),
        "a stopped router answered a submit"
    );
    let mut direct = Client::connect(node.endpoint(), 256, false).expect("connect node");
    let reports: BTreeMap<u64, Vec<u8>> = direct.drain().expect("drain node").into_iter().collect();
    assert_eq!(
        reports[&0],
        solo_report(&events[..32]),
        "a batch sent after the shutdown reached the node"
    );
    node.shutdown();
}

/// The router's door fails hostile bytes closed, as the node's does:
/// pure garbage, a well-formed first frame that is not a `Hello`, a
/// `Hello` with a bad version, and a torn frame (a header, half its
/// payload, then EOF) each draw one `MALFORMED` error frame and a
/// closed socket, and a real client still submits and drains after
/// them.
#[test]
fn hostile_bytes_fail_closed_at_the_router_door() {
    use latch_proto::{error_code, read_msg, Msg, FRAME_HEADER_LEN, PROTO_VERSION};
    use std::io::Write;
    let node = start_node();
    let mut router = Router::new(router_config(0, 7));
    router.add_node(0, node.endpoint().clone());
    let cfg = RouterServerConfig {
        heartbeat: Duration::ZERO,
        ..RouterServerConfig::default()
    };
    let front = RouterServer::start(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        router,
        Box::new(|_| Vec::new()) as Exporter,
        cfg,
    )
    .expect("bind router");
    let addr = front.local_addr().expect("TCP listener has an address");
    let bad_hello = Msg::Hello {
        version: PROTO_VERSION + 1,
        window_events: 8,
        want_slo: false,
    };
    let hello = Msg::Hello {
        version: PROTO_VERSION,
        window_events: 8,
        want_slo: false,
    };
    let whole = hello.encode().expect("encode");
    let cases = [
        ("garbage", vec![0xFF; 64]),
        ("a first frame that is not a Hello", Msg::Drain.encode().expect("encode")),
        ("a bad version", bad_hello.encode().expect("encode")),
        (
            "a torn frame",
            whole[..FRAME_HEADER_LEN + (whole.len() - FRAME_HEADER_LEN) / 2].to_vec(),
        ),
    ];
    for (what, bytes) in cases {
        let mut raw = std::net::TcpStream::connect(addr).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        raw.write_all(&bytes).expect("bytes accepted by the kernel");
        raw.shutdown(std::net::Shutdown::Write).expect("half-close");
        assert_eq!(
            read_msg(&mut raw).expect("the refusal frame"),
            Some(Msg::Error {
                code: error_code::MALFORMED
            }),
            "{what}: not refused"
        );
        assert_eq!(
            read_msg(&mut raw).expect("end of stream"),
            None,
            "{what}: socket left open"
        );
    }
    let events = stream(1, SEED ^ 0xBAD, 150);
    let mut client = Client::connect(front.endpoint(), 256, false).expect("connect after garbage");
    client.submit(3, 1, &events).expect("submit");
    let reports = client.drain().expect("drain");
    assert_eq!(reports, vec![(3, solo_report(&events))]);
    front.shutdown();
    node.shutdown();
}

/// Takeover is deterministic: the same (seed, schedule, kill point) —
/// including a node that died *with* the old router, forcing the
/// standby to fail its sessions over from surviving replica journals —
/// produces a byte-identical [`TakeoverRecord`] and identical reports
/// across reruns.
#[test]
fn takeover_record_is_rerun_identical_with_coincident_node_death() {
    const SESSIONS: usize = 8;
    const EVENTS: u64 = 400;
    const CHUNK: usize = 48;
    let streams: Vec<Vec<Event>> = (0..SESSIONS)
        .map(|s| stream(s, SEED.wrapping_add(s as u64), EVENTS))
        .collect();
    let run = || -> (TakeoverRecord, BTreeMap<u64, Vec<u8>>) {
        let mut servers: Vec<Option<WireServer<MemStorage>>> =
            (0..3).map(|_| Some(start_node())).collect();
        let mut old = Router::new(router_config(2, 7));
        let mut new = Router::new(router_config(2, 8));
        for (id, srv) in servers.iter().enumerate() {
            let ep = srv.as_ref().expect("fresh").endpoint().clone();
            old.add_node(id as u32, ep.clone());
            new.add_node(id as u32, ep);
        }
        let mut pos = vec![0usize; SESSIONS];
        for _ in 0..(EVENTS as usize / CHUNK / 2) {
            drive_round(&mut old, &streams, &mut pos, CHUNK);
        }
        // The machine hosting session 0's owner dies in the same
        // blast as the old router; its storage is gone outright.
        let victim = old.owner_of(0).expect("placed");
        let victims: BTreeSet<u64> = (0..SESSIONS as u64)
            .filter(|&s| old.owner_of(s) == Some(victim))
            .collect();
        kill_and_destroy(servers[victim as usize].take().expect("victim"));
        drop(old);

        let rec = new.takeover().expect("takeover with a dead node");
        assert_eq!(rec.dead, vec![victim], "the dead node must be detected");
        let orphaned: BTreeSet<u64> = rec.orphans.iter().copied().collect();
        assert_eq!(
            orphaned, victims,
            "exactly the dead node's sessions restore from replica journals"
        );
        assert!(
            new.lost_sessions().is_empty(),
            "replica journals covered every acked prefix: {:?}",
            new.lost_sessions()
        );

        while pos.iter().zip(&streams).any(|(&p, ev)| p < ev.len()) {
            drive_round(&mut new, &streams, &mut pos, CHUNK);
        }
        let reports: BTreeMap<u64, Vec<u8>> = new.drain().expect("drain").into_iter().collect();
        for srv in servers.into_iter().flatten() {
            srv.shutdown();
        }
        (rec, reports)
    };
    let (rec_a, reports_a) = run();
    let (rec_b, reports_b) = run();
    assert_eq!(rec_a, rec_b, "TakeoverRecord changed between reruns");
    assert_eq!(reports_a, reports_b, "reports changed between reruns");
    check_reports(&reports_a, &streams, "takeover rerun");
}

/// A `RESTART` control chunk discards every byte staged for the
/// session on the live connection: garbage staged before it leaves no
/// trace, and the state staged after it is exactly what the commit
/// imports — no reconnect needed.
#[test]
fn restart_chunk_discards_staging_on_the_live_connection() {
    let node_a = start_node();
    let node_b = start_node();
    let session = 11u64;
    let events = stream(0, SEED ^ 0xAB0, 200);
    let mut feeder = Client::connect(node_a.endpoint(), 256, false).expect("connect source");
    loop {
        match feeder.submit(session, 1, &events) {
            Ok(()) => break,
            Err(ClientError::Rejected(_)) => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => panic!("feed failed: {e}"),
        }
    }
    let state = feeder
        .repl_fetch(session, true)
        .expect("cut fetch")
        .expect("session resident");
    drop(feeder);

    let mut importer = Client::connect(node_b.endpoint(), 256, false).expect("connect importer");
    // Stage a poisoned prefix: a committed import of this would either
    // refuse or restore garbage.
    importer
        .migrate_stage(session, &state.blob[..state.blob.len() / 2], &[0xEE; 64], 64)
        .expect("stage garbage");
    // One control frame discards it — same connection, no teardown.
    importer.migrate_abort(session).expect("restart chunk");
    importer
        .migrate_stage(session, &state.blob, &state.wal, 1 << 12)
        .expect("restage the real state");
    let applied = importer
        .migrate_commit(session, state.rank, latch_proto::migrate_into::LIVE, 0)
        .expect("commit");
    assert_eq!(applied, events.len() as u64, "import restored a short prefix");
    let reports = importer.drain().expect("drain importer");
    let report = reports
        .iter()
        .find(|(s, _)| *s == session)
        .map(|(_, r)| r.clone())
        .expect("imported session drains");
    assert_eq!(report, solo_report(&events), "restaged state diverged");
    node_a.shutdown();
    node_b.shutdown();
}

/// A never-snapshotting owner driven with empty events past the
/// backup's reseed floor (1 MiB of WAL) and past twice it: the backup is
/// reseeded from the owner's whole journal on the way, and after every
/// submit its own journal covers exactly the acked prefix. Reseeding
/// folds bytes, never coverage, and a diskless owner loss afterwards
/// restores every acked event from the backup.
#[test]
fn compaction_under_tiny_budget_survives_diskless_failover() {
    const EVENTS: u64 = 300;
    const CHUNK: usize = 32;
    const EMPTY_BATCHES: usize = 80;
    let node_a = start_packrat_node();
    let node_b = start_packrat_node();
    let mut backup = Client::connect(node_b.endpoint(), 256, false).expect("connect backup");
    let mut router = Router::new(router_config(1, 7));
    router.add_node(0, node_a.endpoint().clone());
    router.add_node(1, node_b.endpoint().clone());
    let mut servers = BTreeMap::from([(0u32, Some(node_a)), (1u32, Some(node_b))]);
    let session = (0..64)
        .find(|&s| router.owner_of(s) == Some(0))
        .expect("node 0 owns some session");
    // Profile events in small batches, then empty events (8 journal
    // bytes each) in 4096-event batches to 2.5 MiB of WAL.
    let mut events = stream(0, SEED ^ 0xC0DE, EVENTS);
    let profile = events.len();
    events.extend(vec![Event::empty(0); EMPTY_BATCHES * 4096]);
    let priority = Priority::from_rank(0).expect("rank 0 is a priority");
    let mut wal_len = journal::wal_header(session, priority).len() as u64;
    let mut pos = 0usize;
    while pos < events.len() {
        let take = if pos < profile { CHUNK.min(profile - pos) } else { 4096 };
        let batch = &events[pos..pos + take];
        submit_all(&mut router, session, batch);
        wal_len += journal::encode_record(pos as u64, batch)
            .expect("an admitted batch encodes")
            .len() as u64;
        pos += take;
        // The owner never cuts its journal, so a reseed fetches that
        // same journal: the backup's WAL is exactly the header plus one
        // record per acked batch, never a duplicated or dropped record.
        assert_eq!(
            backup_journal(&mut backup, session),
            (pos as u64, wal_len),
            "the backup journal must hold exactly the acked prefix"
        );
    }
    assert!(wal_len > 2 << 20, "the drive must pass twice the reseed floor");
    drop(backup);

    // The owner machine dies outright: the reseeded journal on the
    // backup must still restore the exact acked prefix.
    kill_and_destroy(servers.get_mut(&0).unwrap().take().expect("owner"));
    let records = router.fail_over(0, Vec::new()).expect("diskless failover");
    let moved = records
        .iter()
        .find(|m| m.session == session)
        .expect("session migrated");
    assert_eq!(moved.applied, events.len() as u64, "reseeded restore lost events");
    assert!(router.lost_sessions().is_empty());
    let reports: BTreeMap<u64, Vec<u8>> = router.drain().expect("drain").into_iter().collect();
    assert_eq!(reports[&session], solo_report(&events));
    for srv in servers.into_values().flatten() {
        srv.shutdown();
    }
}

/// Obs-counter regression: a join+leave rebalance storm under live
/// clients on snapshot-happy nodes (rotation on every applied event —
/// the maximally rotation-prone config) never falls back to the
/// tear-down-and-reconnect restage path: `router.rebalance.restages`
/// stays at zero, because a rotation caught in the pre-copy window is
/// now handled inline with a RESTART chunk on the live connection.
/// Session 0's stream ends in 2 MiB of empty events, so its backup's
/// WAL passes the reseed floor: compaction fires and its counter proves
/// it, and every backup journal ends holding exactly its session's
/// stream within the floor.
#[cfg(feature = "obs")]
#[test]
fn rotation_prone_rebalances_never_count_restages() {
    fn counter(name: &str) -> u64 {
        latch_obs::snapshot()
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }
    fn start_snappy_node() -> WireServer<MemStorage> {
        let (svc, _recovery) = DurableService::recover(
            serve_config(),
            DurableConfig {
                snapshot_every: 1,
                ..DurableConfig::default()
            },
            FaultPlan::benign(),
            MemStorage::new(FaultPlan::benign()),
        );
        let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
        WireServer::start(&endpoint, svc, WireConfig::default()).expect("bind loopback node")
    }

    const SESSIONS: usize = 4;
    const EVENTS: u64 = 400;
    const TAIL: usize = (2 << 20) / 8;
    // Counters are process-global: read deltas, not absolutes.
    let restages_before = counter("router.rebalance.restages");
    let compactions_before = counter("router.repl.compactions");

    let mut servers: Vec<Option<WireServer<MemStorage>>> =
        (0..2).map(|_| Some(start_snappy_node())).collect();
    let mut router = Router::new(router_config(1, 7));
    for (id, srv) in servers.iter().enumerate() {
        router.add_node(id as u32, srv.as_ref().expect("fresh").endpoint().clone());
    }
    let front = RouterServer::start(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        router,
        Box::new(|_| Vec::new()) as Exporter,
        RouterServerConfig {
            max_window_events: 1 << 14,
            heartbeat: Duration::from_millis(10),
            ..RouterServerConfig::default()
        },
    )
    .expect("bind router");
    let endpoint = front.endpoint().clone();
    let mut streams: Vec<Vec<Event>> = (0..SESSIONS)
        .map(|s| stream(s, SEED.wrapping_add(s as u64), EVENTS))
        .collect();
    streams[0].extend(vec![Event::empty(0); TAIL]);
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
                    let chunk = if pos < EVENTS as usize { 16 } else { 256 };
                    let take = chunk.min(events.len() - pos);
                    match client.submit(s as u64, (s % 3) as u8, &events[pos..pos + take]) {
                        Ok(()) => {
                            pos += take;
                            if s == 0 && pos >= EVENTS as usize / 4 {
                                rolling.store(true, std::sync::atomic::Ordering::SeqCst);
                            }
                        }
                        Err(ClientError::Rejected(_)) => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(e) => panic!("session {s}: stream interrupted: {e}"),
                    }
                }
            })
        })
        .collect();
    for _ in 0..10_000 {
        if rolling.load(std::sync::atomic::Ordering::SeqCst) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let joiner = start_snappy_node();
    let joiner_ep = joiner.endpoint().clone();
    servers.push(Some(joiner));
    front.with_router(|r| r.rebalance_join(2, joiner_ep)).expect("live join");
    std::thread::sleep(Duration::from_millis(20));
    front.with_router(|r| r.rebalance_leave(0)).expect("live leave");
    for h in handles {
        h.join().expect("client thread");
    }
    // Nodes 1 and 2 are the ring now: each session's backup is the one
    // that does not own it, and its journal holds the whole stream in
    // a WAL under the floor plus one record.
    for (s, events) in streams.iter().enumerate() {
        let owner = front.with_router(|r| r.owner_of(s as u64)).expect("routed");
        let member = if owner == 1 { 2 } else { 1 };
        let srv = servers[member].as_ref().expect("live member");
        let mut backup = Client::connect(srv.endpoint(), 256, false).expect("connect backup");
        let (journaled, wal_len) = backup_journal(&mut backup, s as u64);
        assert_eq!(journaled, events.len() as u64, "session {s}: backup lags its acks");
        assert!(
            wal_len < (1 << 20) + 4096,
            "session {s}: backup WAL of {wal_len} bytes passed the reseed floor"
        );
    }
    let mut client = Client::connect(&endpoint, 256, false).expect("connect router");
    let reports: BTreeMap<u64, Vec<u8>> =
        client.drain().expect("drain cluster").into_iter().collect();
    check_reports(&reports, &streams, "rotation-prone rebalance");

    assert_eq!(
        counter("router.rebalance.restages") - restages_before,
        0,
        "a rotation-prone rebalance fell back to the reconnect restage path"
    );
    assert!(
        counter("router.repl.compactions") > compactions_before,
        "a {TAIL}-event tail of empty events must pass the reseed floor"
    );
    front.shutdown();
    for srv in servers.into_iter().flatten() {
        srv.shutdown();
    }
}

/// A session whose durable state exceeds one frame keeps its
/// replication cover across a standby takeover: the takeover's repair
/// pass seeds the backup from the owner's state as staged chunks, the
/// new router's next push appends to it, and a diskless kill of the
/// owner afterwards restores every acked event instead of poisoning
/// them.
#[test]
fn takeover_keeps_replication_for_an_over_frame_session() {
    let mut servers: BTreeMap<u32, Option<WireServer<MemStorage>>> =
        (0..2).map(|id| (id, Some(start_packrat_node()))).collect();
    let mut old = Router::new(router_config(1, 7));
    let mut new = Router::new(router_config(1, 8));
    for (&id, srv) in &servers {
        let endpoint = srv.as_ref().expect("fresh").endpoint().clone();
        old.add_node(id, endpoint.clone());
        new.add_node(id, endpoint);
    }
    let session = (0..64)
        .find(|&s| old.owner_of(s) == Some(0))
        .expect("node 0 owns some session");
    // Empty events journal at 8 bytes each, so the never-rotated WAL
    // alone passes the frame cap.
    let events = vec![Event::empty(0); latch_proto::MAX_FRAME_PAYLOAD / 8 + 8192];
    let (before, after) = events.split_at(events.len() - 4096);
    for batch in before.chunks(4096) {
        submit_all(&mut old, session, batch);
    }
    drop(old);

    new.takeover().expect("standby takeover");
    submit_all(&mut new, session, after);
    let backup = servers[&1].as_ref().expect("backup").endpoint().clone();
    let mut backup = Client::connect(&backup, 256, false).expect("connect backup");
    assert_eq!(
        backup_journal(&mut backup, session).0,
        events.len() as u64,
        "the over-frame session lost its replication cover in the takeover"
    );
    drop(backup);
    kill_and_destroy(servers.get_mut(&0).unwrap().take().expect("owner"));
    new.fail_over(0, Vec::new()).expect("diskless failover");
    assert!(
        new.lost_sessions().is_empty(),
        "acked events were poisoned: {:?}",
        new.lost_sessions()
    );
    let reports: BTreeMap<u64, Vec<u8>> = new.drain().expect("drain").into_iter().collect();
    assert_eq!(reports[&session], solo_report(&events));
    for srv in servers.into_values().flatten() {
        srv.shutdown();
    }
}
