//! In-process replays for the traced run, and the latchd-many seeding.
//!
//! The server calls most layers internally, so the traced run replays
//! the load's exact acked batches, in ack order, through the same public
//! functions: the trace codecs, a `DurableService` over a timing and
//! counting wrapper around `DirStorage` (pumping whenever a connection's
//! window fills, as `WireServer` does), and a `Router` over three
//! in-process `WireServer` nodes with one replica each.

use crate::load::Acked;
use crate::trace::{Tracer, NO_BATCH};
use crate::workload::{Plan, WINDOW};
use latch_client::Client;
use latch_faults::FaultPlan;
use latch_proto::{Endpoint, Msg};
use latch_router::{Router, RouterConfig, RouterError};
use latch_serve::{
    journal, DirStorage, DurableConfig, DurableService, Priority, Rejected, ServeConfig,
    ServeStats, Storage, WireConfig, WireServer,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The service configuration `latchd` runs with (its flag defaults).
pub fn latchd_config() -> ServeConfig {
    ServeConfig {
        workers: 4,
        seed: 0x1a7c_4d00,
        ..ServeConfig::default()
    }
}

/// The router configuration `latch-routerd --replicas 1` runs with.
fn routerd_config() -> RouterConfig {
    RouterConfig {
        seed: 0x1a7c_4d01,
        vnodes: 64,
        miss_budget: 3,
        window_events: 1 << 14,
        router_id: 0x1a7c_4d01,
        connect_timeout: Duration::from_millis(500),
        replicas: 1,
        epoch: 1,
        repl_wal_budget: 1 << 20,
    }
}

fn is_backpressure(r: &Rejected) -> bool {
    matches!(r, Rejected::QueueFull { .. } | Rejected::SessionBusy { .. })
}

/// Journals each session's first `plan.seeded_batches` batches into
/// `dir` through the public `DurableService` API, then drains it
/// gracefully so recovery finds every seeded event.
pub fn seed_dir(plan: &Plan, dir: &Path) -> Result<(), String> {
    let storage = DirStorage::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    let mut svc = DurableService::new(
        latchd_config(),
        DurableConfig::default(),
        FaultPlan::benign(),
        storage,
    );
    let mut outstanding = 0u64;
    for b in 0..plan.seeded_batches {
        for (s, session) in plan.sessions.iter().enumerate() {
            let events = plan.batch(s, b);
            loop {
                match svc.submit_with_priority(session.id, events, Priority::Normal) {
                    Ok(()) => break,
                    Err(r) if is_backpressure(&r) => svc.pump(),
                    Err(r) => return Err(format!("seeding session {}: {r}", session.id)),
                }
            }
            outstanding += events.len() as u64;
            if outstanding >= u64::from(WINDOW) {
                svc.pump();
                outstanding = 0;
            }
        }
    }
    let (outcome, _storage) = svc.finish();
    let seeded = outcome.sessions.values().map(|r| r.events).sum::<u64>();
    let want = plan.seeded_batches * plan.sessions.len() as u64 * crate::workload::BATCH as u64;
    if seeded != want {
        return Err(format!("seeding applied {seeded} events, expected {want}"));
    }
    Ok(())
}

/// What the storage layer saw during the durable replay.
#[derive(Default, Clone, Copy)]
pub struct StorageCounts {
    pub wal_bytes: u64,
    pub atomic_writes: u64,
    pub atomic_bytes: u64,
    pub fsyncs: u64,
}

/// `DirStorage` with a span around every call and byte counters.
struct TimedStorage {
    inner: DirStorage,
    tracer: Rc<RefCell<Tracer>>,
    counts: StorageCounts,
}

impl TimedStorage {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut DirStorage) -> R) -> R {
        let id = self.tracer.borrow_mut().begin(name, NO_BATCH);
        let r = f(&mut self.inner);
        self.tracer.borrow_mut().end(id);
        r
    }
}

impl Storage for TimedStorage {
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn read(&mut self, name: &str) -> Option<Vec<u8>> {
        self.span("storage.read", |s| s.read(name))
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> bool {
        let ok = self.span("storage.append", |s| s.append(name, bytes));
        if ok && name.starts_with("wal-") {
            self.counts.wal_bytes += bytes.len() as u64;
        }
        ok
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> bool {
        let ok = self.span("storage.write_atomic", |s| s.write_atomic(name, bytes));
        self.counts.atomic_writes += 1;
        self.counts.atomic_bytes += bytes.len() as u64;
        ok
    }

    fn fsync(&mut self) -> bool {
        self.counts.fsyncs += 1;
        self.span("storage.fsync", DirStorage::fsync)
    }

    fn remove(&mut self, name: &str) {
        self.span("storage.remove", |s| s.remove(name));
    }
}

pub struct CodecOut {
    pub events: u64,
    pub bytes: u64,
}

/// Client encode, proto decode and WAL record encode of every batch.
pub fn codec(
    plan: &Plan,
    log: &[Acked],
    tracer: &mut Tracer,
    budget: Duration,
) -> Result<CodecOut, String> {
    let t0 = Instant::now();
    let mut out = CodecOut {
        events: 0,
        bytes: 0,
    };
    for (i, a) in log.iter().enumerate() {
        if t0.elapsed() > budget {
            break;
        }
        let s = a.session as usize;
        let events = plan.batch(s, u64::from(a.index));
        let msg = Msg::Submit {
            session: plan.sessions[s].id,
            priority: 1,
            events: events.to_vec(),
        };
        let span = tracer.begin("client.encode", i as u32);
        let frame = msg.encode();
        tracer.end(span);
        let frame = frame.map_err(|e| format!("encode: {e}"))?;
        let span = tracer.begin("proto.decode", i as u32);
        let decoded = latch_proto::frame_payload(&frame).and_then(|(p, _)| Msg::decode_payload(p));
        tracer.end(span);
        match decoded {
            Ok(Msg::Submit { events: back, .. }) if back.len() == events.len() => {}
            other => return Err(format!("submit frame did not decode back: {other:?}")),
        }
        let base_seq = u64::from(a.index) * crate::workload::BATCH as u64;
        let span = tracer.begin("journal.encode", i as u32);
        let record = journal::encode_record(base_seq, events);
        tracer.end(span);
        record.map_err(|e| format!("encode_record: {e:?}"))?;
        out.events += events.len() as u64;
        out.bytes += frame.len() as u64;
    }
    Ok(out)
}

pub struct DurableOut {
    pub events: u64,
    pub complete: bool,
    pub storage: StorageCounts,
    pub stats: ServeStats,
    pub reports: BTreeMap<u64, Vec<u8>>,
}

/// Recovers `dir` (a copy of the run's initial state) and replays the
/// log through `DurableService`, then drains it.
pub fn durable(
    plan: &Plan,
    log: &[Acked],
    dir: &Path,
    tracer: Rc<RefCell<Tracer>>,
    budget: Duration,
) -> Result<DurableOut, String> {
    let inner = DirStorage::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    let storage = TimedStorage {
        inner,
        tracer: Rc::clone(&tracer),
        counts: StorageCounts::default(),
    };
    let span = tracer.borrow_mut().begin("durable.recover", NO_BATCH);
    let (mut svc, _recovery) = DurableService::recover(
        latchd_config(),
        DurableConfig::default(),
        FaultPlan::benign(),
        storage,
    );
    tracer.borrow_mut().end(span);
    let t0 = Instant::now();
    let mut outstanding = [0u64; 256];
    let mut events_done = 0u64;
    let mut complete = true;
    for (i, a) in log.iter().enumerate() {
        if t0.elapsed() > budget {
            complete = false;
            break;
        }
        let s = a.session as usize;
        let events = plan.batch(s, u64::from(a.index));
        let conn = a.conn as usize;
        loop {
            let span = tracer.borrow_mut().begin("durable.submit", i as u32);
            let r = svc.submit_with_priority(plan.sessions[s].id, events, Priority::Normal);
            tracer.borrow_mut().end(span);
            match r {
                Ok(()) => break,
                Err(r) if is_backpressure(&r) => {
                    let span = tracer.borrow_mut().begin("durable.pump", i as u32);
                    svc.pump();
                    tracer.borrow_mut().end(span);
                    outstanding[conn] = 0;
                }
                Err(r) => return Err(format!("durable replay: {r}")),
            }
        }
        events_done += events.len() as u64;
        outstanding[conn] += events.len() as u64;
        if outstanding[conn] >= u64::from(WINDOW) {
            let span = tracer.borrow_mut().begin("durable.pump", i as u32);
            svc.pump();
            tracer.borrow_mut().end(span);
            outstanding[conn] = 0;
        }
    }
    let span = tracer.borrow_mut().begin("durable.finish", NO_BATCH);
    let (outcome, storage) = svc.finish();
    tracer.borrow_mut().end(span);
    Ok(DurableOut {
        events: events_done,
        complete,
        storage: storage.counts,
        stats: outcome.stats,
        reports: outcome
            .sessions
            .iter()
            .map(|(&s, r)| (s, r.encode()))
            .collect(),
    })
}

pub struct RouterOut {
    pub events: u64,
    pub submits: u64,
    pub refused: u64,
    pub replica_journal_bytes: u64,
}

/// Replays the log through a `Router` (`--replicas 1`) over three
/// in-process nodes whose state lives under `dir`.
pub fn router(
    plan: &Plan,
    log: &[Acked],
    dir: &Path,
    tracer: &mut Tracer,
    budget: Duration,
) -> Result<RouterOut, String> {
    let mut nodes = Vec::new();
    for n in 0..3 {
        let d = dir.join(format!("node-{n}"));
        let storage = DirStorage::open(&d).map_err(|e| format!("open {}: {e}", d.display()))?;
        let (svc, _) = DurableService::recover(
            latchd_config(),
            DurableConfig::default(),
            FaultPlan::benign(),
            storage,
        );
        let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
        nodes.push(
            WireServer::start(&endpoint, svc, WireConfig::default())
                .map_err(|e| format!("bind replay node: {e}"))?,
        );
    }
    let mut router = Router::new(routerd_config());
    for (n, node) in nodes.iter().enumerate() {
        router.add_node(n as u32, node.endpoint().clone());
    }
    let t0 = Instant::now();
    let mut out = RouterOut {
        events: 0,
        submits: 0,
        refused: 0,
        replica_journal_bytes: 0,
    };
    for (i, a) in log.iter().enumerate() {
        if t0.elapsed() > budget {
            break;
        }
        let s = a.session as usize;
        let events = plan.batch(s, u64::from(a.index));
        loop {
            out.submits += 1;
            let span = tracer.begin("router.submit", i as u32);
            let r = router.submit(plan.sessions[s].id, 1, events);
            tracer.end(span);
            match r {
                Ok(()) => break,
                Err(RouterError::Rejected(_)) => out.refused += 1,
                Err(e) => return Err(format!("router replay: {e:?}")),
            }
        }
        out.events += events.len() as u64;
    }
    let span = tracer.begin("replica.survey", NO_BATCH);
    for node in &nodes {
        let mut client = Client::connect(node.endpoint(), WINDOW, false)
            .map_err(|e| format!("survey connect: {e}"))?;
        let entries = client
            .survey_replicas()
            .map_err(|e| format!("survey_replicas: {e}"))?;
        out.replica_journal_bytes += entries.iter().map(|e| e.3).sum::<u64>();
    }
    tracer.end(span);
    let drained = router
        .drain()
        .map_err(|e| format!("router replay drain: {e:?}"))?;
    drop(router);
    for node in nodes {
        node.shutdown();
    }
    if drained.is_empty() && out.events > 0 {
        return Err("router replay drained no reports".to_string());
    }
    Ok(out)
}
