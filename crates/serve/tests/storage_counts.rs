//! Host-independent work counters for the durability layer and the
//! scheduler: the exact number of each storage call, dispatch,
//! eviction and restore that fixed drives make. Wall-clock medians move
//! with the host; these counts move only with the code, so a change to
//! them shows up here as an exact diff.
//!
//! Both drives submit 256-event batches, pump after every 4096
//! submitted events, use the default `ServeConfig` and `DurableConfig`,
//! and end with one recovery of the store they left. The clean drive is
//! shaped like perfbench's latchd-clean workload: four taint-free
//! sessions of equal size in round robin. The many drive is shaped like
//! latchd-many: 128 sessions, twice `max_resident`, whose shares of a
//! seeded submit order fall off as 1/rank, so idle sessions are evicted
//! and come back as restores.

use latch_faults::FaultPlan;
use latch_serve::{DurableConfig, DurableService, MemStorage, ServeConfig, Storage};
use latch_sim::event::{Event, EventSource};
use latch_workloads::BenchmarkProfile;

const CALLS: [&str; 6] = ["append", "put", "write_atomic", "fsync", "read", "remove"];

/// A [`MemStorage`] that counts every call, by [`CALLS`] index.
struct Counting {
    inner: MemStorage,
    calls: [u64; 6],
}

impl Storage for Counting {
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn read(&mut self, name: &str) -> Option<Vec<u8>> {
        self.calls[4] += 1;
        self.inner.read(name)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> bool {
        self.calls[0] += 1;
        self.inner.append(name, bytes)
    }

    fn put(&mut self, name: &str, bytes: &[u8]) -> bool {
        self.calls[1] += 1;
        self.inner.put(name, bytes)
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> bool {
        self.calls[2] += 1;
        self.inner.write_atomic(name, bytes)
    }

    fn fsync(&mut self) -> bool {
        self.calls[3] += 1;
        self.inner.fsync()
    }

    fn remove(&mut self, name: &str) {
        self.calls[5] += 1;
        self.inner.remove(name);
    }
}

const BATCH: usize = 256;
const PUMP_EVERY: usize = 4096;
const EVENTS_PER_SESSION: usize = 16_384;

/// The clean drive's storage table: each call's count in the drive,
/// that count per 1000 driven events, and its count in the recovery.
/// With 4 × 4096 events per pass and a checkpoint due every 2048
/// applied events per session, every second pump checkpoints all four
/// sessions: two puts per checkpoint (the frame, then the journal cut),
/// one barrier per pass that checkpoints, one group-commit fsync per
/// submit, and no `write_atomic` at all.
const PINNED: &str = "\
events 65536
call         drive  per_kevent  recover
append         256       3.906        0
put             64       0.977        4
write_atomic     0       0.000        0
fsync          264       4.028        1
read             0       0.000       12
remove           0       0.000        0
";

/// The clean drive's scheduler counts: 64-event batches, no session
/// ever leaves residency, and a pump's worth of events at most queued.
const PINNED_CLEAN_SCHED: &str = "dispatches 1024 evictions 0 restores 0 queue_depth_hwm 4096\n";

/// The many drive's storage table (see [`PINNED`] for the columns).
const PINNED_MANY: &str = "\
events 165120
call         drive  per_kevent  recover
append         645       3.906        0
put             88       0.533      128
write_atomic     0       0.000        0
fsync          670       4.058        1
read             0       0.000      384
remove           0       0.000        0
";

/// The many drive's scheduler counts. Evictions and restores depend on
/// dispatch order: the LRU victim is the session whose last batch ran
/// longest ago.
const PINNED_MANY_SCHED: &str = "dispatches 2580 evictions 92 restores 28 queue_depth_hwm 4096\n";

/// Network profiles plus the low-taint SPEC ones, as in latchd-many.
const MIXED: [&str; 14] = [
    "curl",
    "wget",
    "mySQL",
    "apache",
    "apache-25",
    "apache-50",
    "apache-75",
    "bzip2",
    "gobmk",
    "cactusADM",
    "h264ref",
    "hmmer",
    "sjeng",
    "omnetpp",
];

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

/// One fixed drive: every session's events, and which session each
/// 256-event submit goes to, in order.
struct Drive {
    streams: Vec<Vec<Event>>,
    order: Vec<usize>,
}

/// Four equal taint-free sessions, submitted in round robin.
fn clean_drive() -> Drive {
    let streams: Vec<Vec<Event>> = ["bzip2", "gobmk", "cactusADM", "h264ref"]
        .iter()
        .zip(1u64..)
        .map(|(p, seed)| stream(p, seed, EVENTS_PER_SESSION))
        .collect();
    let order = (0..EVENTS_PER_SESSION / BATCH)
        .flat_map(|_| 0..streams.len())
        .collect();
    Drive { streams, order }
}

/// 128 sessions; session `i` has `max(1, 128 / (i + 1))` batches, and
/// the submits are a seeded shuffle of all of them, so each session's
/// share of the traffic falls off as 1/rank all through the drive.
fn many_drive() -> Drive {
    let batches = |i: usize| (128 / (i + 1)).max(1);
    let streams: Vec<Vec<Event>> = (0..128usize)
        .map(|i| stream(MIXED[i % MIXED.len()], 100 + i as u64, batches(i) * BATCH))
        .collect();
    let mut order: Vec<usize> = (0..streams.len())
        .flat_map(|i| std::iter::repeat_n(i, batches(i)))
        .collect();
    for k in (1..order.len()).rev() {
        let j = (latch_faults::mix(1, 0, k as u64) % (k as u64 + 1)) as usize;
        order.swap(k, j);
    }
    Drive { streams, order }
}

/// Submits the drive's batches in its order, pumping after every
/// [`PUMP_EVERY`] events and once at the end.
fn run(d: &Drive) -> DurableService<Counting> {
    let plan = FaultPlan::benign();
    let storage = Counting {
        inner: MemStorage::new(plan),
        calls: [0; 6],
    };
    let mut svc = DurableService::new(
        ServeConfig::default(),
        DurableConfig::default(),
        plan,
        storage,
    );
    let mut next = vec![0; d.streams.len()];
    let mut since_pump = 0;
    for &s in &d.order {
        let lo = next[s];
        next[s] += BATCH;
        svc.submit(s as u64, &d.streams[s][lo..lo + BATCH])
            .expect("a pump's worth of events fits the queues");
        since_pump += BATCH;
        if since_pump == PUMP_EVERY {
            svc.pump();
            since_pump = 0;
        }
    }
    if since_pump > 0 {
        svc.pump();
    }
    svc
}

/// Runs the drive, crashes, recovers, and tabulates every storage
/// call of the drive and of the recovery.
fn storage_table(d: &Drive) -> String {
    let streams = &d.streams;
    let mut storage = run(d).crash();
    let drive = std::mem::take(&mut storage.calls);
    let (svc, report) = DurableService::recover(
        ServeConfig::default(),
        DurableConfig::default(),
        FaultPlan::benign(),
        storage,
    );
    assert!(report.quarantined.is_empty());
    assert_eq!(report.sessions.len(), streams.len());
    for (s, evs) in streams.iter().enumerate() {
        assert_eq!(report.sessions[&(s as u64)].recovered, evs.len() as u64);
    }
    let recover = svc.crash().calls;

    let events: usize = streams.iter().map(Vec::len).sum();
    let mut table = format!("events {events}\ncall         drive  per_kevent  recover\n");
    for (i, call) in CALLS.iter().enumerate() {
        let per_kevent = drive[i] as f64 * 1000.0 / events as f64;
        table += &format!(
            "{call:<12} {:>5} {per_kevent:>11.3} {:>8}\n",
            drive[i], recover[i]
        );
    }
    table
}

/// Runs the drive, drains, and prints the scheduler's work counts.
fn sched_line(d: &Drive) -> String {
    let (out, _) = run(d).finish();
    let st = out.stats;
    format!(
        "dispatches {} evictions {} restores {} queue_depth_hwm {}\n",
        st.dispatches, st.evictions, st.restores, st.queue_depth_hwm
    )
}

#[test]
fn storage_calls_per_kevent_are_pinned() {
    let table = storage_table(&clean_drive());
    assert_eq!(table, PINNED, "storage call counts moved:\n{table}");
}

#[test]
fn scheduler_counts_are_pinned() {
    let clean = sched_line(&clean_drive());
    assert_eq!(
        clean, PINNED_CLEAN_SCHED,
        "clean drive's scheduler counts moved:\n{clean}"
    );
    let many = sched_line(&many_drive());
    assert_eq!(
        many, PINNED_MANY_SCHED,
        "many drive's scheduler counts moved:\n{many}"
    );
}

#[test]
fn many_session_storage_calls_are_pinned() {
    let table = storage_table(&many_drive());
    assert_eq!(table, PINNED_MANY, "storage call counts moved:\n{table}");
}
