//! Kill-anywhere durability properties.
//!
//! The contract under test: a [`DurableService`] killed at *any*
//! storage-operation boundary, under seeded disk faults (torn writes,
//! bit rot, truncated reads, failed fsyncs), recovers to an **exact
//! prefix** of each session's submitted stream — never panicking,
//! never corrupting state — and re-submitting the lost suffix yields
//! `SessionReport`s byte-identical to a solo pipeline that never
//! crashed.

use latch_faults::FaultPlan;
use latch_serve::{
    journal, store, DurableConfig, DurableService, MemStorage, Priority, Rejected, ServeConfig,
    Slo, Storage,
};
use latch_sim::event::{Event, EventSource};
use latch_systems::session::SessionPipeline;
use latch_workloads::{all_profiles, BenchmarkProfile};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn stream(profile: &BenchmarkProfile, seed: u64, n: u64) -> Vec<Event> {
    let mut src = profile.stream(seed, n);
    let mut out = Vec::new();
    while let Some(ev) = src.next_event() {
        out.push(ev);
    }
    out
}

fn solo(evs: &[Event], scrub_interval: u64) -> Vec<u8> {
    let mut pipe = SessionPipeline::new(scrub_interval);
    for ev in evs {
        pipe.apply(ev);
    }
    pipe.report().encode()
}

/// Submits every stream in round-robin chunks, pumping between rounds.
fn drive(
    svc: &mut DurableService<MemStorage>,
    streams: &[Vec<Event>],
    chunk: usize,
) {
    let rounds = streams
        .iter()
        .map(|evs| evs.len().div_ceil(chunk))
        .max()
        .unwrap_or(0);
    for r in 0..rounds {
        for (s, evs) in streams.iter().enumerate() {
            let lo = r * chunk;
            if lo >= evs.len() {
                continue;
            }
            let hi = (lo + chunk).min(evs.len());
            loop {
                match svc.submit(s as u64, &evs[lo..hi]) {
                    Ok(()) => break,
                    Err(Rejected::QueueFull { .. } | Rejected::SessionBusy { .. }) => {
                        svc.pump();
                    }
                    Err(Rejected::ShuttingDown) => unreachable!("not draining"),
                    Err(Rejected::Shed { .. }) => unreachable!("no SLO armed"),
                    Err(Rejected::BatchTooLarge { .. }) => {
                        unreachable!("chunks are far below the journal cap")
                    }
                }
            }
        }
        svc.pump();
    }
}

/// A [`MemStorage`] that notes, at every successful fsync, how far
/// each session's journal reached: the events that sync made durable.
struct FloorProbe {
    inner: MemStorage,
    /// The end (`base_seq + count`) of each session's last appended
    /// journal record.
    appended: BTreeMap<u64, u64>,
    /// `(op index, appended)` at every successful fsync.
    syncs: Vec<(usize, BTreeMap<u64, u64>)>,
}

impl FloorProbe {
    fn new(inner: MemStorage) -> Self {
        Self {
            inner,
            appended: BTreeMap::new(),
            syncs: Vec::new(),
        }
    }

    /// The journal ends the last successful fsync before op
    /// `crash_op` covered, or `None` when no fsync before it succeeded.
    fn floor(&self, crash_op: usize) -> Option<&BTreeMap<u64, u64>> {
        self.syncs
            .iter()
            .rev()
            .find(|(op, _)| *op < crash_op)
            .map(|(_, ends)| ends)
    }
}

impl Storage for FloorProbe {
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn read(&mut self, name: &str) -> Option<Vec<u8>> {
        self.inner.read(name)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> bool {
        if let Some(session) = journal::parse_wal_name(name) {
            // A session's first append carries the header before its
            // record; a record's length prefix can never equal the
            // magic, which is far above the payload cap.
            let rec = match bytes.strip_prefix(&journal::WAL_MAGIC.to_le_bytes()[..]) {
                Some(_) => &bytes[journal::WAL_HEADER_LEN..],
                None => bytes,
            };
            let base = u64::from_le_bytes(rec[8..16].try_into().unwrap());
            let count = u32::from_le_bytes(rec[16..20].try_into().unwrap());
            self.appended.insert(session, base + u64::from(count));
        }
        self.inner.append(name, bytes)
    }

    fn put(&mut self, name: &str, bytes: &[u8]) -> bool {
        self.inner.put(name, bytes)
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> bool {
        self.inner.write_atomic(name, bytes)
    }

    fn fsync(&mut self) -> bool {
        let op = self.inner.ops_len();
        let ok = self.inner.fsync();
        if ok {
            self.syncs.push((op, self.appended.clone()));
        }
        ok
    }

    fn remove(&mut self, name: &str) {
        self.inner.remove(name);
    }
}

/// Recovers `image` and checks that every session kept at least its
/// `floor` of events. Returns what each session recovered.
fn recover_above(
    cfg: ServeConfig,
    dcfg: DurableConfig,
    plan: FaultPlan,
    image: FloorProbe,
    floor: &BTreeMap<u64, u64>,
    what: &str,
) -> (FloorProbe, BTreeMap<u64, u64>) {
    let (svc, report) = DurableService::recover(cfg, dcfg, plan, image);
    let recovered: BTreeMap<u64, u64> = report
        .sessions
        .iter()
        .map(|(&s, rec)| (s, rec.recovered))
        .collect();
    for (&s, &synced) in floor {
        let got = recovered.get(&s).copied().unwrap_or(0);
        assert!(
            got >= synced,
            "{what}: session {s} recovered {got} events after {synced} were synced"
        );
    }
    (svc.crash(), recovered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole property. Crash point and fault mix are arbitrary;
    /// equality with the uninterrupted solo pipeline is exact.
    #[test]
    fn kill_anywhere_recovery_is_an_exact_prefix(
        seed in 0u64..100_000,
        sessions in 1usize..4,
        chunk in 24usize..128,
        crash_permille in 0u64..1001,
        torn in prop_oneof![Just(0u32), Just(300u32), Just(1000u32)],
        bitrot in prop_oneof![Just(0u32), Just(150u32)],
        short_reads in prop_oneof![Just(0u32), Just(150u32)],
        fsync_fail in prop_oneof![Just(0u32), Just(300u32)],
        group_commit in 1u64..200,
        snapshot_every in 50u64..500,
    ) {
        let profiles = all_profiles();
        let streams: Vec<Vec<Event>> = (0..sessions)
            .map(|s| stream(&profiles[(seed as usize + s) % profiles.len()], seed + s as u64, 900))
            .collect();
        let cfg = ServeConfig {
            max_resident: 2,
            ..ServeConfig::default()
        };
        let dcfg = DurableConfig { group_commit_events: group_commit, snapshot_every };
        let plan = FaultPlan::new(seed ^ 0xD15C).with_disk_faults(torn, bitrot, short_reads, fsync_fail);

        // Run, then get killed at an arbitrary storage-op boundary.
        let mut svc = DurableService::new(cfg, dcfg, plan, MemStorage::new(plan));
        drive(&mut svc, &streams, chunk);
        let storage = svc.crash();
        let crash_op = (storage.ops_len() as u64 * crash_permille / 1000) as usize;
        let image = storage.crash_image(crash_op);

        // Recover: typed quarantines only, never a panic.
        let (mut svc, report) = DurableService::recover(cfg, dcfg, plan, image);
        for (&s, rec) in &report.sessions {
            prop_assert_eq!(rec.recovered, rec.snapshot_applied + rec.replayed);
            prop_assert!(
                rec.recovered <= streams[s as usize].len() as u64,
                "session {} recovered {} of {} submitted",
                s, rec.recovered, streams[s as usize].len()
            );
            prop_assert_eq!(rec.epoch >= 1, true, "recovery must bump the epoch");
        }

        // Re-submit each session's lost suffix; the rejoined stream
        // must be byte-identical to a run that never crashed.
        let suffixes: Vec<Vec<Event>> = streams
            .iter()
            .enumerate()
            .map(|(s, evs)| {
                let recovered = report
                    .sessions
                    .get(&(s as u64))
                    .map_or(0, |r| r.recovered) as usize;
                evs[recovered..].to_vec()
            })
            .collect();
        drive(&mut svc, &suffixes, chunk);
        let (out, _storage) = svc.finish();
        for (s, evs) in streams.iter().enumerate() {
            prop_assert_eq!(
                &out.sessions[&(s as u64)].encode(),
                &solo(evs, cfg.scrub_interval),
                "session {} diverged after crash at op {}/{}",
                s, crash_op, storage.ops_len()
            );
        }
    }

    /// Recovery of the same crash image is deterministic: identical
    /// reports, identical quarantine lists, byte-identical state.
    #[test]
    fn recovery_is_deterministic(
        seed in 0u64..100_000,
        crash_permille in 0u64..1001,
        torn in prop_oneof![Just(300u32), Just(1000u32)],
    ) {
        let profiles = all_profiles();
        let evs = stream(&profiles[seed as usize % profiles.len()], seed, 700);
        let cfg = ServeConfig::default();
        let dcfg = DurableConfig { group_commit_events: 64, snapshot_every: 200 };
        let plan = FaultPlan::new(seed).with_disk_faults(torn, 100, 100, 200);
        let mut svc = DurableService::new(cfg, dcfg, plan, MemStorage::new(plan));
        drive(&mut svc, std::slice::from_ref(&evs), 60);
        let storage = svc.crash();
        let crash_op = (storage.ops_len() as u64 * crash_permille / 1000) as usize;

        let recover = || {
            let (svc, report) = DurableService::recover(cfg, dcfg, plan, storage.crash_image(crash_op));
            let (out, _) = svc.finish();
            (out.sessions.get(&0).map(latch_systems::session::SessionReport::encode), report)
        };
        let (state_a, report_a) = recover();
        let (state_b, report_b) = recover();
        prop_assert_eq!(state_a, state_b);
        prop_assert_eq!(report_a.sessions, report_b.sessions);
        prop_assert_eq!(report_a.quarantined, report_b.quarantined);
    }

    /// The durable floor. Killed at *every* op of a run, and again at
    /// every op of the first recovery's own seal, recovery keeps every
    /// event a successful fsync covered — and once the seal's barrier
    /// succeeded, everything the first recovery restored. Torn writes
    /// and failed fsyncs only: read faults may lose synced bytes.
    #[test]
    fn fsynced_events_survive_every_crash(
        seed in 0u64..100_000,
        sessions in 1usize..3,
        chunk in 16usize..64,
        torn in prop_oneof![Just(300u32), Just(500u32), Just(1000u32)],
        fsync_fail in prop_oneof![Just(0u32), Just(200u32)],
        group_commit in 1u64..64,
        snapshot_every in 32u64..256,
    ) {
        let profiles = all_profiles();
        let streams: Vec<Vec<Event>> = (0..sessions)
            .map(|s| stream(&profiles[(seed as usize + s) % profiles.len()], seed + s as u64, 600))
            .collect();
        let cfg = ServeConfig::default();
        let dcfg = DurableConfig { group_commit_events: group_commit, snapshot_every };
        let plan = FaultPlan::new(seed ^ 0xF100).with_disk_faults(torn, 0, 0, fsync_fail);
        let mut svc = DurableService::new(cfg, dcfg, plan, FloorProbe::new(MemStorage::new(plan)));
        for r in 0..600usize.div_ceil(chunk) {
            for (s, evs) in streams.iter().enumerate() {
                let lo = (r * chunk).min(evs.len());
                let hi = (lo + chunk).min(evs.len());
                svc.submit(s as u64, &evs[lo..hi]).expect("queues hold one chunk per session");
                svc.pump();
            }
        }
        let run = svc.crash();
        let none = BTreeMap::new();
        for crash_op in 0..=run.inner.ops_len() {
            let floor = run.floor(crash_op).unwrap_or(&none);
            let image = FloorProbe::new(run.inner.crash_image(crash_op));
            let what = format!("crash at op {crash_op}");
            let (sealed, recovered) = recover_above(cfg, dcfg, plan, image, floor, &what);
            for seal_op in 0..=sealed.inner.ops_len() {
                let mut floor = floor.clone();
                if sealed.floor(seal_op).is_some() {
                    for (&s, &n) in &recovered {
                        let f = floor.entry(s).or_default();
                        *f = (*f).max(n);
                    }
                }
                let image = FloorProbe::new(sealed.inner.crash_image(seal_op));
                let what = format!("crash at op {crash_op}, then at seal op {seal_op}");
                recover_above(cfg, dcfg, plan, image, &floor, &what);
            }
        }
    }
}

/// A torn in-place put over the older generation — a checkpoint cut
/// short mid-write — costs only that generation: recovery quarantines
/// it with a typed error and restores from the newer one, then resumes
/// solo-identical.
#[test]
fn a_torn_older_generation_is_quarantined_and_the_newer_restores() {
    let profiles = all_profiles();
    let evs = stream(&profiles[2], 23, 1_000);
    let cfg = ServeConfig::default();
    let dcfg = DurableConfig {
        group_commit_events: 1,
        snapshot_every: 100,
    };
    let plan = FaultPlan::benign();
    let mut svc = DurableService::new(cfg, dcfg, plan, MemStorage::new(plan));
    for chunk in evs[..700].chunks(50) {
        svc.submit(0, chunk).unwrap();
        svc.pump();
    }
    let mut storage = svc.crash();
    let frames: Vec<(String, Vec<u8>, store::SnapFrame)> = [0u8, 1]
        .iter()
        .map(|&g| {
            let name = store::snap_name(0, g);
            let bytes = storage.read(&name).expect("both generations hold a frame");
            let frame = store::decode_frame(0, &bytes).unwrap();
            (name, bytes, frame)
        })
        .collect();
    let (newer, older) = if frames[0].2.newer_than(&frames[1].2) {
        (&frames[0], &frames[1])
    } else {
        (&frames[1], &frames[0])
    };
    // The next checkpoint's put, cut short: the first half of a newer
    // frame laid over the older generation's bytes.
    let mut torn = older.1.clone();
    let keep = newer.1.len().min(torn.len()) / 2;
    torn[..keep].copy_from_slice(&newer.1[..keep]);
    assert!(storage.put(&older.0, &torn));
    assert!(storage.fsync());

    let (mut svc, report) = DurableService::recover(cfg, dcfg, plan, storage);
    assert_eq!(report.quarantined.len(), 1, "{:?}", report.quarantined);
    let q = &report.quarantined[0];
    assert_eq!((q.file.as_str(), q.offset), (older.0.as_str(), 0));
    assert_eq!(q.error, latch_serve::RecoveryError::BadFrameCrc);
    let rec = report.sessions[&0];
    assert_eq!(rec.snapshot_applied, newer.2.applied);
    assert_eq!(rec.recovered, 700, "the journal holds the rest");
    for chunk in evs[700..].chunks(50) {
        svc.submit(0, chunk).unwrap();
        svc.pump();
    }
    let (out, _) = svc.finish();
    assert_eq!(out.sessions[&0].encode(), solo(&evs, cfg.scrub_interval));
}

/// An armed SLO that breaches at every cut only sheds: each pump
/// applies every admitted event, so the checkpoint after it covers the
/// whole admitted stream, and a crash loses nothing a snapshot frame
/// does not already hold.
#[test]
fn breaching_crash_recovery_loses_nothing() {
    let profiles = all_profiles();
    let evs = stream(&profiles[1], 91, 2_000);
    let cfg = ServeConfig {
        batch_max: 16,
        slo: Slo {
            slo_cycles: 1, // every cut breaches
            report_every: 1,
            queue_pressure_pct: 100,
            ..Slo::OFF
        },
        ..ServeConfig::default()
    };
    // Aggressive durability so a snapshot lands after every pump.
    let dcfg = DurableConfig {
        group_commit_events: 1,
        snapshot_every: 1,
    };
    let plan = FaultPlan::benign();
    let mut svc = DurableService::new(cfg, dcfg, plan, MemStorage::new(plan));
    for chunk in evs.chunks(200) {
        svc.submit(0, chunk)
            .expect("a sole normal session is never shed at pressure 1");
        svc.pump();
    }
    let cuts = svc.service().slo_reports();
    assert!(
        !cuts.is_empty() && cuts.iter().all(|r| r.breach),
        "every cut breaches"
    );

    // Kill the process; recover; re-submit the lost suffix.
    let storage = svc.crash();
    let (mut svc, report) = DurableService::recover(cfg, dcfg, plan, storage);
    let rec = report.sessions[&0];
    assert_eq!(
        rec.snapshot_applied, 2_000,
        "the last checkpoint must cover every admitted event"
    );
    let suffix = evs[rec.recovered as usize..].to_vec();
    for chunk in suffix.chunks(200) {
        svc.submit(0, chunk)
            .expect("recovered service admits the suffix");
        svc.pump();
    }
    let (out, _) = svc.finish();
    assert_eq!(
        out.sessions[&0].encode(),
        solo(&evs, cfg.scrub_interval),
        "recovery must land on the full admitted stream"
    );
}

/// The sticky admission class survives a crash: via the WAL header
/// when the session dies before its first snapshot, and via the
/// snapshot frame afterwards. Without this, a Critical session would
/// silently become sheddable after recovery.
#[test]
fn priority_class_survives_crash_recovery() {
    let profiles = all_profiles();
    let evs = stream(&profiles[0], 7, 600);
    let cfg = ServeConfig::default();
    let plan = FaultPlan::benign();

    // (a) Crash before any snapshot is due: only the WAL exists, and
    // its header carries the class fixed at first admission.
    let dcfg = DurableConfig {
        group_commit_events: 1,
        snapshot_every: 1_000_000,
    };
    let mut svc = DurableService::new(cfg, dcfg, plan, MemStorage::new(plan));
    svc.submit_with_priority(3, &evs[..100], Priority::Critical).unwrap();
    svc.submit_with_priority(4, &evs[..100], Priority::Bulk).unwrap();
    svc.pump();
    let (svc, report) = DurableService::recover(cfg, dcfg, plan, svc.crash());
    assert!(report.sessions.contains_key(&3));
    assert_eq!(svc.service().session_priority(3), Some(Priority::Critical));
    assert_eq!(svc.service().session_priority(4), Some(Priority::Bulk));

    // (b) Crash after snapshots: the frame carries the class too.
    let dcfg = DurableConfig {
        group_commit_events: 1,
        snapshot_every: 1,
    };
    let mut svc = DurableService::new(cfg, dcfg, plan, MemStorage::new(plan));
    svc.submit_with_priority(3, &evs, Priority::Critical).unwrap();
    svc.pump();
    let (mut svc, _) = DurableService::recover(cfg, dcfg, plan, svc.crash());
    assert_eq!(svc.service().session_priority(3), Some(Priority::Critical));
    // Priority stays sticky post-recovery: a later Bulk flag on the
    // recovered session cannot downgrade it.
    svc.submit_with_priority(3, &evs[..50], Priority::Bulk).unwrap();
    assert_eq!(svc.service().session_priority(3), Some(Priority::Critical));
}

/// Happy path: an uninterrupted durable run equals the plain service,
/// and a recovery from its final store resumes exactly where it ended.
#[test]
fn clean_shutdown_then_recovery_restores_everything() {
    let profiles = all_profiles();
    let streams: Vec<Vec<Event>> = (0..3)
        .map(|s| stream(&profiles[s % profiles.len()], 40 + s as u64, 1_200))
        .collect();
    let cfg = ServeConfig::default();
    let dcfg = DurableConfig {
        group_commit_events: 32,
        snapshot_every: 300,
    };
    let plan = FaultPlan::benign();
    let mut svc = DurableService::new(cfg, dcfg, plan, MemStorage::new(plan));
    drive(&mut svc, &streams, 100);
    let (out, storage) = svc.finish();
    for (s, evs) in streams.iter().enumerate() {
        assert_eq!(
            out.sessions[&(s as u64)].encode(),
            solo(evs, cfg.scrub_interval),
            "session {s} diverged in the durable happy path"
        );
    }

    // Everything was applied and snapshotted before the shutdown, so
    // recovery finds complete state: zero replay needed, zero lost.
    let (svc, report) = DurableService::recover(cfg, dcfg, plan, storage);
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    for (s, evs) in streams.iter().enumerate() {
        let rec = &report.sessions[&(s as u64)];
        assert_eq!(
            rec.recovered,
            evs.len() as u64,
            "session {s} must recover fully from a clean shutdown"
        );
    }
    let (out2, _) = svc.finish();
    for (s, evs) in streams.iter().enumerate() {
        assert_eq!(
            out2.sessions[&(s as u64)].encode(),
            solo(evs, cfg.scrub_interval),
            "session {s} diverged after clean recovery"
        );
    }
}
