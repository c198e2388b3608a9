//! Host-independent work counters for the durability layer and the
//! scheduler: the exact number of each storage call, dispatch,
//! eviction and restore that fixed drives make. Wall-clock medians move
//! with the host; these counts move only with the code, so a change to
//! them shows up here as an exact diff.
//!
//! Every drive submits 256-event batches, pumps after every 4096
//! submitted events, uses the default `ServeConfig` and `DurableConfig`,
//! and ends with one recovery of the store it left. The clean drive is
//! shaped like perfbench's latchd-clean workload: four taint-free
//! sessions of equal size in round robin. The tainted drive is shaped
//! like latchd-tainted: the same with four astar sessions, whose shadow
//! pages make each snapshot frame hundreds of KB. The many drive is
//! shaped like latchd-many: 128 sessions, twice `max_resident`, whose
//! shares of a seeded submit order fall off as 1/rank, so idle sessions
//! are evicted and come back as restores.
//!
//! Each storage table counts the calls of each kind and the bytes they
//! carry (written for the mutating calls, returned for reads), and
//! totals the bytes written to snapshot files.

use latch_faults::FaultPlan;
use latch_serve::{DurableConfig, DurableService, MemStorage, ServeConfig, Storage};
use latch_sim::event::{Event, EventSource};
use latch_workloads::BenchmarkProfile;

const CALLS: [&str; 7] = [
    "append",
    "put",
    "patch",
    "write_atomic",
    "fsync",
    "read",
    "remove",
];

/// A [`MemStorage`] that counts every call and the bytes it carries,
/// by [`CALLS`] index.
struct Counting {
    inner: MemStorage,
    calls: [u64; 7],
    bytes: [u64; 7],
    /// Bytes written to `snap-*` files.
    snap_bytes: u64,
}

impl Counting {
    fn new(inner: MemStorage) -> Self {
        Self {
            inner,
            calls: [0; 7],
            bytes: [0; 7],
            snap_bytes: 0,
        }
    }

    /// Counts one call of kind `i` carrying `bytes` bytes to `name`.
    fn note(&mut self, i: usize, name: &str, bytes: usize) {
        self.calls[i] += 1;
        self.bytes[i] += bytes as u64;
        if i != 5 && name.starts_with("snap-") {
            self.snap_bytes += bytes as u64;
        }
    }
}

impl Storage for Counting {
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn read(&mut self, name: &str) -> Option<Vec<u8>> {
        let got = self.inner.read(name);
        self.note(5, name, got.as_ref().map_or(0, Vec::len));
        got
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> bool {
        self.note(0, name, bytes.len());
        self.inner.append(name, bytes)
    }

    fn put(&mut self, name: &str, bytes: &[u8]) -> bool {
        self.note(1, name, bytes.len());
        self.inner.put(name, bytes)
    }

    fn patch(&mut self, name: &str, len: u64, extents: &[(u64, &[u8])]) -> bool {
        self.note(2, name, extents.iter().map(|(_, b)| b.len()).sum());
        self.inner.patch(name, len, extents)
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> bool {
        self.note(3, name, bytes.len());
        self.inner.write_atomic(name, bytes)
    }

    fn fsync(&mut self) -> bool {
        self.note(4, "", 0);
        self.inner.fsync()
    }

    fn remove(&mut self, name: &str) {
        self.note(6, name, 0);
        self.inner.remove(name);
    }
}

const BATCH: usize = 256;
const PUMP_EVERY: usize = 4096;
const EVENTS_PER_SESSION: usize = 16_384;

/// The clean drive's storage table: each call's count in the drive,
/// that count per 1000 driven events, the bytes those calls carried,
/// and the count and bytes in the recovery; then the bytes written to
/// snapshot files, in all and per 1000 driven events. With 4 × 4096
/// events per pass and a checkpoint due every 2048 applied events per
/// session, every second pump checkpoints all four sessions: one write
/// of the frame and one journal-cut put per checkpoint, one barrier
/// per pass that checkpoints, one group-commit fsync per submit, and no
/// `write_atomic` at all. Each session's first checkpoint into each
/// generation puts the whole frame (8 puts); the other 24 patch it.
const PINNED: &str = "\
events 65536
call         drive  per_kevent       bytes  recover  recover_bytes
append         256       3.906     1139855        0              0
put             40       0.610       57968        4          28712
patch           24       0.366       73680        0              0
write_atomic     0       0.000           0        0              0
fsync          264       4.028           0        1              0
read             0       0.000           0       12          57492
remove           0       0.000           0        0              0
snapshot bytes 131104 per_kevent 2000.5
";

/// The tainted drive's storage table (see [`PINNED`] for the columns).
/// The same cadence as the clean drive, over astar's hundreds of KB of
/// shadow pages: 8 whole frames and 56 patches, which write only the
/// pages changed since the generation's last frame, new pages, and the
/// tail. Whole frames every time wrote 6225354 snapshot bytes, 47495.7
/// per 1000 events.
const PINNED_TAINTED: &str = "\
events 131072
call         drive  per_kevent       bytes  recover  recover_bytes
append         512       3.906     2472073        0              0
put             72       0.549      198956        4         719634
patch           56       0.427     1623710        0              0
write_atomic     0       0.000           0        0              0
fsync          528       4.028           0        1              0
read             0       0.000           0       12        1402094
remove           0       0.000           0        0              0
snapshot bytes 1821578 per_kevent 13897.5
";

/// The clean drive's scheduler counts: 64-event batches, no session
/// ever leaves residency, and a pump's worth of events at most queued.
const PINNED_CLEAN_SCHED: &str = "dispatches 1024 evictions 0 restores 0 queue_depth_hwm 4096\n";

/// The many drive's storage table (see [`PINNED`] for the columns).
/// A session that comes back from eviction is a new pipeline, a frozen
/// one is thawed for its frame, and a file's first slot pads its head,
/// so all three write whole frames.
const PINNED_MANY: &str = "\
events 165120
call         drive  per_kevent       bytes  recover  recover_bytes
append         645       3.906     2934283        0              0
put             72       0.436      168876      128         557368
patch           16       0.097       49166        0              0
write_atomic     0       0.000           0        0              0
fsync          670       4.058           0        1              0
read             0       0.000           0      384        1317016
remove           0       0.000           0        0              0
snapshot bytes 217294 per_kevent 1316.0
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

/// `events` of each profile, from seeds 1, 2, …, submitted in round
/// robin.
fn round_robin(profiles: [&str; 4], events: usize) -> Drive {
    let streams: Vec<Vec<Event>> = profiles
        .iter()
        .zip(1u64..)
        .map(|(p, seed)| stream(p, seed, events))
        .collect();
    let order = (0..events / BATCH).flat_map(|_| 0..streams.len()).collect();
    Drive { streams, order }
}

/// Four equal taint-free sessions, submitted in round robin.
fn clean_drive() -> Drive {
    round_robin(
        ["bzip2", "gobmk", "cactusADM", "h264ref"],
        EVENTS_PER_SESSION,
    )
}

/// Four astar sessions (seeds 1–4) of 32768 events, submitted in round
/// robin.
fn tainted_drive() -> Drive {
    round_robin(["astar"; 4], 32_768)
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
    let storage = Counting::new(MemStorage::new(plan));
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
/// call of the drive and of the recovery, and the bytes each kind
/// carried.
fn storage_table(d: &Drive) -> String {
    let streams = &d.streams;
    let mut storage = run(d).crash();
    let drive = std::mem::take(&mut storage.calls);
    let drive_bytes = std::mem::take(&mut storage.bytes);
    let snap_bytes = std::mem::take(&mut storage.snap_bytes);
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
    let recovered = svc.crash();
    let (recover, recover_bytes) = (recovered.calls, recovered.bytes);

    let events: usize = streams.iter().map(Vec::len).sum();
    let kevents = events as f64 / 1000.0;
    let mut table = format!(
        "events {events}\ncall         drive  per_kevent       bytes  recover  recover_bytes\n"
    );
    for (i, call) in CALLS.iter().enumerate() {
        table += &format!(
            "{call:<12} {:>5} {:>11.3} {:>11} {:>8} {:>14}\n",
            drive[i],
            drive[i] as f64 / kevents,
            drive_bytes[i],
            recover[i],
            recover_bytes[i]
        );
    }
    table += &format!(
        "snapshot bytes {snap_bytes} per_kevent {:.1}\n",
        snap_bytes as f64 / kevents
    );
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
fn tainted_storage_calls_and_snapshot_bytes_are_pinned() {
    let table = storage_table(&tainted_drive());
    assert_eq!(table, PINNED_TAINTED, "storage call counts moved:\n{table}");
}

#[test]
fn many_session_storage_calls_are_pinned() {
    let table = storage_table(&many_drive());
    assert_eq!(table, PINNED_MANY, "storage call counts moved:\n{table}");
}
