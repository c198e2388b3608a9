//! Host-independent work counters for the router's replication: the
//! exact number of replication frames, backup seeds, compactions and
//! lags that two fixed drives make, and the journal each backup ends
//! with. Wall-clock medians move with the host; these counts move only
//! with the code, so a change to them shows up here as an exact diff.
//!
//! The obs registry is process-wide, so both drives run in one test in
//! a file of their own, each from a reset registry.
//!
//! The cluster drive is shaped like perfbench's cluster-r1 workload:
//! three nodes at the default configurations, one backup per session,
//! and four sessions of mixed profiles submitting 256-event batches in
//! round robin, long enough that every session's backup WAL passes the
//! 1 MiB reseed floor. The packrat drive feeds one session, on an owner
//! that never snapshots, 4096-event batches of empty events (8 journal
//! bytes each) past 4 MiB. Each of its reseeds is the owner's whole
//! journal, so the reseeds must double in size for their total to stay
//! linear in the history.

#![cfg(feature = "obs")]

use latch_client::Client;
use latch_faults::FaultPlan;
use latch_obs::TraceEvent;
use latch_proto::Endpoint;
use latch_router::{Router, RouterConfig, RouterError};
use latch_serve::{DurableConfig, DurableService, MemStorage, ServeConfig, WireConfig, WireServer};
use latch_sim::event::{Event, EventSource};
use latch_workloads::BenchmarkProfile;
use std::fmt::Write;

const COUNTERS: [&str; 4] = [
    "router.repl.frames",
    "router.repl.seeds",
    "router.repl.compactions",
    "router.repl.lag",
];

/// The cluster drive: 4 × 81920 events in 256-event round-robin
/// batches, 1280 in all. Each session's backup is seeded with its first
/// batch, gets one frame per later batch, and is reseeded once, from
/// the owner's snapshot and short journal, when its WAL passes the
/// floor: 8 seeds and 1272 frames.
const PINNED_CLUSTER: &str = "\
router.repl.frames       1272
router.repl.seeds        8
router.repl.compactions  4
router.repl.lag          0
compacted_wal_bytes      4202914
session 0 backup 2 journaled 81920 wal_len 401236
session 1 backup 2 journaled 81920 wal_len 435545
session 2 backup 0 journaled 81920 wal_len 438910
session 3 backup 2 journaled 81920 wal_len 436870
";

/// The packrat drive: 136 batches of 4096 empty events, 4.25 MiB of
/// journal. The backup is seeded with the first batch and reseeded with
/// the owner's whole journal at the 1 MiB floor and at twice that; the
/// next reseed would wait for twice the second.
const PINNED_PACKRAT: &str = "\
router.repl.frames       133
router.repl.seeds        3
router.repl.compactions  2
router.repl.lag          0
compacted_wal_bytes      3246640
session 0 backup 0 journaled 557056 wal_len 4460001
";

fn start_node(durable: DurableConfig) -> WireServer<MemStorage> {
    let (svc, _recovery) = DurableService::recover(
        ServeConfig::default(),
        durable,
        FaultPlan::benign(),
        MemStorage::new(FaultPlan::benign()),
    );
    let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
    WireServer::start(&endpoint, svc, WireConfig::default()).expect("bind loopback node")
}

fn stream(profile: &str, seed: u64, events: usize) -> Vec<Event> {
    let mut src = BenchmarkProfile::by_name(profile)
        .unwrap()
        .stream(seed, events as u64);
    let mut out = Vec::new();
    while let Some(ev) = src.next_event() {
        out.push(ev);
    }
    out
}

/// Submits one batch, retrying typed backpressure.
fn submit(router: &mut Router, session: u64, batch: &[Event]) {
    loop {
        match router.submit(session, 0, batch) {
            Ok(()) => return,
            Err(RouterError::Rejected(_)) => {}
            Err(e) => panic!("session {session} submit failed: {e}"),
        }
    }
}

/// The counters, the sessions and WAL bytes of every compaction, and
/// each session's backup journal, as one table.
fn table(router: &Router, nodes: &[WireServer<MemStorage>], sessions: u64) -> String {
    let snap = latch_obs::snapshot();
    let mut out = String::new();
    for name in COUNTERS {
        let v = snap
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v);
        let _ = writeln!(out, "{name:<24} {v}");
    }
    let compactions: Vec<(u64, u64)> = snap
        .tracks
        .iter()
        .filter(|(track, _)| track == "router")
        .flat_map(|(_, t)| t.events.iter())
        .filter_map(|e| match *e {
            TraceEvent::ReplCompact {
                session, wal_bytes, ..
            } => Some((session, wal_bytes)),
            _ => None,
        })
        .collect();
    let compacted: u64 = compactions.iter().map(|&(_, b)| b).sum();
    let _ = writeln!(out, "{:<24} {compacted}", "compacted_wal_bytes");
    for session in 0..sessions {
        assert!(
            compactions.iter().any(|&(s, _)| s == session),
            "session {session} never passed the reseed floor"
        );
        let owner = router.owner_of(session).expect("routed");
        for (id, node) in nodes.iter().enumerate() {
            if id as u32 == owner {
                continue;
            }
            let mut conn = Client::connect(node.endpoint(), 256, false).expect("connect node");
            let survey = conn.survey_replicas().expect("survey the node");
            if let Some(&(_, _, journaled, wal_len)) = survey.iter().find(|e| e.0 == session) {
                let _ = writeln!(
                    out,
                    "session {session} backup {id} journaled {journaled} wal_len {wal_len}"
                );
            }
        }
    }
    out
}

fn cluster_drive() -> String {
    const SESSIONS: u64 = 4;
    const BATCH: usize = 256;
    const EVENTS: usize = 81_920;
    latch_obs::reset();
    let nodes: Vec<WireServer<MemStorage>> = (0..3)
        .map(|_| start_node(DurableConfig::default()))
        .collect();
    let mut router = Router::new(RouterConfig {
        seed: 0x1a7c_4d01,
        replicas: 1,
        ..RouterConfig::default()
    });
    for (id, node) in nodes.iter().enumerate() {
        router.add_node(id as u32, node.endpoint().clone());
    }
    let streams: Vec<Vec<Event>> = ["curl", "wget", "mySQL", "apache"]
        .iter()
        .zip(1u64..)
        .map(|(p, seed)| stream(p, seed, EVENTS))
        .collect();
    for lo in (0..EVENTS).step_by(BATCH) {
        for (s, events) in streams.iter().enumerate() {
            submit(&mut router, s as u64, &events[lo..lo + BATCH]);
        }
    }
    let out = table(&router, &nodes, SESSIONS);
    for node in nodes {
        node.shutdown();
    }
    out
}

fn packrat_drive() -> String {
    const BATCH: usize = 4096;
    const BATCHES: usize = 136;
    latch_obs::reset();
    let packrat = DurableConfig {
        snapshot_every: u64::MAX,
        ..DurableConfig::default()
    };
    let nodes: Vec<WireServer<MemStorage>> = (0..2).map(|_| start_node(packrat)).collect();
    let mut router = Router::new(RouterConfig {
        seed: 0x1a7c_4d01,
        replicas: 1,
        ..RouterConfig::default()
    });
    for (id, node) in nodes.iter().enumerate() {
        router.add_node(id as u32, node.endpoint().clone());
    }
    let batch = vec![Event::empty(0); BATCH];
    for _ in 0..BATCHES {
        submit(&mut router, 0, &batch);
    }
    let out = table(&router, &nodes, 1);
    for node in nodes {
        node.shutdown();
    }
    out
}

#[test]
fn replication_work_counts_are_pinned() {
    let cluster = cluster_drive();
    let packrat = packrat_drive();
    println!("cluster drive:\n{cluster}\npackrat drive:\n{packrat}");
    assert_eq!(cluster, PINNED_CLUSTER, "cluster drive counts moved");
    assert_eq!(packrat, PINNED_PACKRAT, "packrat drive counts moved");
}
