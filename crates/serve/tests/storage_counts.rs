//! Host-independent work counters for the durability layer: the exact
//! number of each storage call one fixed drive makes. Wall-clock
//! medians move with the host; these counts move only with the code,
//! so a change to them shows up here as an exact diff.
//!
//! The drive is shaped like perfbench's latchd-clean workload: four
//! taint-free sessions, 256-event submits in round robin, a pump per
//! 4096 events, the default `DurableConfig`, and one recovery of the
//! store the drive left.

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

const SESSIONS: usize = 4;
const BATCH: usize = 256;
const PUMP_EVERY: usize = 4096;
const EVENTS_PER_SESSION: usize = 16_384;

/// The pinned table: each call's count in the drive, that count per
/// 1000 driven events, and its count in the recovery. With 4 × 4096
/// events per pass and a checkpoint due every 2048 applied events per
/// session, every second pump checkpoints all four sessions: two puts
/// per checkpoint (the frame, then the journal cut), one barrier per
/// pass that checkpoints, one group-commit fsync per submit, and no
/// `write_atomic` at all.
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

fn stream(profile: &str, seed: u64) -> Vec<Event> {
    let mut src = BenchmarkProfile::by_name(profile)
        .unwrap()
        .stream(seed, EVENTS_PER_SESSION as u64);
    let mut out = Vec::new();
    while let Some(ev) = src.next_event() {
        out.push(ev);
    }
    out
}

#[test]
fn storage_calls_per_kevent_are_pinned() {
    let streams: Vec<Vec<Event>> = ["bzip2", "gobmk", "cactusADM", "h264ref"]
        .iter()
        .zip(1u64..)
        .map(|(p, seed)| stream(p, seed))
        .collect();
    let cfg = ServeConfig {
        seed: 1,
        ..ServeConfig::default()
    };
    let dcfg = DurableConfig::default();
    let plan = FaultPlan::benign();
    let storage = Counting {
        inner: MemStorage::new(plan),
        calls: [0; 6],
    };
    let mut svc = DurableService::new(cfg, dcfg, plan, storage);
    let mut since_pump = 0;
    for lo in (0..EVENTS_PER_SESSION).step_by(BATCH) {
        for (s, evs) in streams.iter().enumerate() {
            svc.submit(s as u64, &evs[lo..lo + BATCH])
                .expect("a pump's worth of events fits the queues");
            since_pump += BATCH;
            if since_pump == PUMP_EVERY {
                svc.pump();
                since_pump = 0;
            }
        }
    }
    let mut storage = svc.crash();
    let drive = std::mem::take(&mut storage.calls);
    let (svc, report) = DurableService::recover(cfg, dcfg, plan, storage);
    assert!(report.quarantined.is_empty());
    assert!(report
        .sessions
        .values()
        .all(|r| r.recovered == EVENTS_PER_SESSION as u64));
    let recover = svc.crash().calls;

    let events = SESSIONS * EVENTS_PER_SESSION;
    let mut table = format!("events {events}\ncall         drive  per_kevent  recover\n");
    for (i, call) in CALLS.iter().enumerate() {
        let per_kevent = drive[i] as f64 * 1000.0 / events as f64;
        table += &format!(
            "{call:<12} {:>5} {per_kevent:>11.3} {:>8}\n",
            drive[i], recover[i]
        );
    }
    assert_eq!(table, PINNED, "storage call counts moved:\n{table}");
}
