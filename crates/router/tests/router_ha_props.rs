//! Router-HA properties, over real sockets with small case counts.
//!
//! 1. **Survey rebuild** — for an arbitrary admitted history (session
//!    count, per-session lengths, chunk schedule), a standby that
//!    takes over rebuilds exactly the dead router's pre-kill state:
//!    the same owner and the same admitted cursor for every session,
//!    and the finished streams still match their solo oracles.
//! 2. **Compaction** — for an arbitrary batch schedule padded with
//!    empty events past the backup's reseed floor, on an owner that
//!    never snapshots, the backup's own journal covers exactly the
//!    acked prefix after every submit and its WAL is exactly the
//!    owner's journal through every reseed, and the reseeded journal
//!    still restores the full acked prefix through a diskless failover
//!    (the byte-prefix invariant's observable consequence: a diverged
//!    journal could not drain byte-identical).

use latch_client::Client;
use latch_faults::FaultPlan;
use latch_proto::Endpoint;
use latch_router::{Router, RouterConfig, RouterError};
use latch_serve::{
    journal, DurableConfig, DurableService, MemStorage, Priority, ServeConfig, WireConfig,
    WireServer,
};
use latch_sim::event::{Event, EventSource};
use latch_systems::session::SessionPipeline;
use latch_workloads::all_profiles;
use proptest::prelude::*;
use std::collections::BTreeMap;

const SEED: u64 = 0x9A17_FE2C_44D1;

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

/// A node that never snapshots (and so never cuts its journal), with a
/// queue deep enough for 4096-event batches.
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

fn solo_report(events: &[Event]) -> Vec<u8> {
    let mut pipe = SessionPipeline::new(serve_config().scrub_interval);
    for ev in events {
        pipe.apply(ev);
    }
    pipe.report().encode()
}

fn submit_all(router: &mut Router, session: u64, rank: u8, batch: &[Event]) {
    loop {
        match router.submit(session, rank, batch) {
            Ok(()) => return,
            Err(RouterError::Rejected(_)) => {}
            Err(e) => panic!("session {session} submit failed: {e}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Drive an arbitrary admitted history through a primary, snapshot
    /// its per-session `(owner, admitted)` map, kill it, and check the
    /// standby's survey-rebuilt state equals that snapshot exactly.
    #[test]
    fn survey_rebuild_matches_pre_kill_state(
        sessions in 2usize..6,
        lens in proptest::collection::vec(40u64..240, 6),
        chunks in proptest::collection::vec(8usize..64, 4),
        case_seed in 0u64..1024,
    ) {
        let servers: Vec<WireServer<MemStorage>> = (0..3).map(|_| start_node()).collect();
        let mut primary = Router::new(router_config(2, 7));
        let mut standby = Router::new(router_config(2, 8));
        for (id, srv) in servers.iter().enumerate() {
            primary.add_node(id as u32, srv.endpoint().clone());
            standby.add_node(id as u32, srv.endpoint().clone());
        }
        let streams: Vec<Vec<Event>> = (0..sessions)
            .map(|s| stream(s, SEED ^ case_seed.wrapping_add(s as u64), lens[s]))
            .collect();
        // An uneven, arbitrary schedule: sessions stop mid-stream at
        // different cut points, so admitted cursors differ per session.
        let mut pos = vec![0usize; sessions];
        for (i, events) in streams.iter().enumerate() {
            let stop = events.len() * (i + 1) / (sessions + 1);
            while pos[i] < stop {
                let take = chunks[i % chunks.len()].min(stop - pos[i]);
                submit_all(&mut primary, i as u64, (i % 3) as u8, &events[pos[i]..pos[i] + take]);
                pos[i] += take;
            }
        }
        let pre_kill: BTreeMap<u64, (Option<u32>, u64)> = (0..sessions as u64)
            .map(|s| (s, (primary.owner_of(s), primary.session_admitted(s))))
            .collect();
        drop(primary);

        let rec = standby.takeover().expect("takeover");
        prop_assert!(rec.dead.is_empty());
        let rebuilt: BTreeMap<u64, (Option<u32>, u64)> = (0..sessions as u64)
            .map(|s| (s, (standby.owner_of(s), standby.session_admitted(s))))
            .collect();
        prop_assert_eq!(&rebuilt, &pre_kill, "survey rebuild diverged from pre-kill state");
        prop_assert!(standby.lost_sessions().is_empty());

        for (i, events) in streams.iter().enumerate() {
            while pos[i] < events.len() {
                let take = 64.min(events.len() - pos[i]);
                submit_all(&mut standby, i as u64, (i % 3) as u8, &events[pos[i]..pos[i] + take]);
                pos[i] += take;
            }
        }
        let reports: BTreeMap<u64, Vec<u8>> =
            standby.drain().expect("drain").into_iter().collect();
        for (i, events) in streams.iter().enumerate() {
            prop_assert_eq!(&reports[&(i as u64)], &solo_report(events), "session {} diverged", i);
        }
        for srv in servers {
            srv.shutdown();
        }
    }

    /// Arbitrary batch schedules, each batch followed by 4096-event
    /// blocks of empty events, after a lead-in of 768 KiB of them: the
    /// backup's WAL crosses the 1 MiB reseed floor (and often twice it)
    /// at an arbitrary point. After every submit the backup's journal
    /// covers exactly the acked prefix, and since the owner never cuts
    /// its journal, a reseed leaves the backup's WAL exactly the
    /// owner's: header plus one record per acked batch. A diskless
    /// failover off it drains byte-identical.
    #[test]
    fn compaction_never_regresses_journal_coverage(
        batches in proptest::collection::vec((1usize..48, 0usize..12), 4..12),
        case_seed in 0u64..1024,
    ) {
        const BLOCK: usize = 4096;
        let node_a = start_packrat_node();
        let node_b = start_packrat_node();
        let mut backup = Client::connect(node_b.endpoint(), 256, false).expect("connect backup");
        let mut router = Router::new(router_config(1, 7));
        router.add_node(0, node_a.endpoint().clone());
        router.add_node(1, node_b.endpoint().clone());
        let session = (0..64)
            .find(|&s| router.owner_of(s) == Some(0))
            .expect("node 0 owns some session");
        let total: usize = batches.iter().map(|&(n, _)| n).sum();
        let mut profile = stream(0, SEED ^ case_seed, total as u64).into_iter();
        let mut sizes = vec![BLOCK; 24];
        let mut events = vec![Event::empty(0); 24 * BLOCK];
        for &(n, blocks) in &batches {
            events.extend(profile.by_ref().take(n));
            events.extend(vec![Event::empty(0); blocks * BLOCK]);
            sizes.push(n);
            sizes.extend(std::iter::repeat_n(BLOCK, blocks));
        }
        let priority = Priority::from_rank(1).expect("rank 1 is a priority");
        let mut wal_len = journal::wal_header(session, priority).len() as u64;
        let mut pos = 0usize;
        for take in sizes {
            let batch = &events[pos..pos + take];
            submit_all(&mut router, session, 1, batch);
            wal_len += journal::encode_record(pos as u64, batch)
                .expect("an admitted batch encodes")
                .len() as u64;
            pos += take;
            let survey = backup.survey_replicas().expect("survey the backup");
            let journal = survey
                .iter()
                .find(|e| e.0 == session)
                .map(|&(_, _, journaled, wal_len)| (journaled, wal_len));
            prop_assert_eq!(
                journal,
                Some((pos as u64, wal_len)),
                "the backup journal must hold exactly the acked prefix"
            );
        }
        drop(backup);

        let svc = node_a.kill().expect("owner not drained");
        drop(svc.crash());
        let records = router.fail_over(0, Vec::new()).expect("diskless failover");
        let moved = records.iter().find(|m| m.session == session).expect("session migrated");
        prop_assert_eq!(moved.applied, events.len() as u64, "reseeded restore lost events");
        prop_assert!(router.lost_sessions().is_empty());
        let reports: BTreeMap<u64, Vec<u8>> =
            router.drain().expect("drain").into_iter().collect();
        prop_assert_eq!(&reports[&session], &solo_report(&events), "reseeded journal diverged");
        node_b.shutdown();
    }
}
