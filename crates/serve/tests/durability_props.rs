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
    journal, store, DirStorage, DurableConfig, DurableService, MemStorage, Priority, Rejected,
    ServeConfig, Slo, Storage,
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
/// A journal cut claims the same for its session: the service rewinds
/// a journal only once a barrier has made a frame covering every
/// record in it durable. It also logs each snapshot write as
/// `(session, whole)`.
struct FloorProbe {
    inner: MemStorage,
    /// The end (`base_seq + count`) of each session's last journal
    /// record written.
    appended: BTreeMap<u64, u64>,
    /// The events of each session that a sync or a cut made durable.
    durable: BTreeMap<u64, u64>,
    /// `(op index, durable)` at every successful fsync and every cut.
    syncs: Vec<(usize, BTreeMap<u64, u64>)>,
    /// `(session, whether the frame was put whole)` per snapshot write.
    snap_writes: Vec<(u64, bool)>,
}

impl FloorProbe {
    fn new(inner: MemStorage) -> Self {
        Self {
            inner,
            appended: BTreeMap::new(),
            durable: BTreeMap::new(),
            syncs: Vec::new(),
            snap_writes: Vec::new(),
        }
    }

    fn note(&mut self, name: &str, whole: bool) {
        if let Some((session, _)) = store::parse_snap_name(name) {
            self.snap_writes.push((session, whole));
        }
    }

    /// The journal ends the last successful fsync or cut before op
    /// `crash_op` made durable, or `None` when there was none.
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
        self.inner.append(name, bytes)
    }

    fn put(&mut self, name: &str, bytes: &[u8]) -> bool {
        self.note(name, true);
        self.inner.put(name, bytes)
    }

    fn patch(&mut self, name: &str, len: u64, extents: &[(u64, &[u8])]) -> bool {
        self.note(name, false);
        // A journal write is one extent: a record and an end frame at
        // the log's end, or at offset 0 the header first, before the
        // session's first record or, for a rewind, before the end
        // frame alone (whose length prefix is 0).
        if let (Some(session), [(at, bytes)]) = (journal::parse_wal_name(name), extents) {
            let rec = if *at == 0 {
                &bytes[journal::WAL_HEADER_LEN..]
            } else {
                bytes
            };
            if rec[..journal::WAL_FRAME_LEN] != journal::END_FRAME {
                let base = u64::from_le_bytes(rec[8..16].try_into().unwrap());
                let count = u32::from_le_bytes(rec[16..20].try_into().unwrap());
                self.appended.insert(session, base + u64::from(count));
            } else if let Some(&end) = self.appended.get(&session) {
                self.durable.insert(session, end);
                self.syncs
                    .push((self.inner.ops_len(), self.durable.clone()));
            }
        }
        self.inner.patch(name, len, extents)
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> bool {
        self.inner.write_atomic(name, bytes)
    }

    fn fsync(&mut self) -> bool {
        let op = self.inner.ops_len();
        let ok = self.inner.fsync();
        if ok {
            self.durable.clone_from(&self.appended);
            self.syncs.push((op, self.durable.clone()));
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
    /// and failed fsyncs only: read faults may lose synced bytes. Half
    /// the cases checkpoint often enough that every session patches its
    /// snapshot files at least twice, so the crash points cover torn
    /// patches as well as torn whole frames; the other half checkpoint
    /// at most a few times, so recovery replays long journal suffixes.
    #[test]
    fn fsynced_events_survive_every_crash(
        seed in 0u64..100_000,
        sessions in 1usize..3,
        chunk in 16usize..64,
        torn in prop_oneof![Just(300u32), Just(500u32), Just(1000u32)],
        fsync_fail in prop_oneof![Just(0u32), Just(200u32)],
        group_commit in 1u64..64,
        snapshot_every in prop_oneof![32u64..72, 72u64..256],
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
        for s in (0..sessions as u64).filter(|_| snapshot_every < 72) {
            let patches = run.snap_writes.iter().filter(|&&w| w == (s, false)).count();
            prop_assert!(patches >= 2, "session {} patched {} times", s, patches);
        }
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

/// A patch trusts that its generation's file still holds the frame the
/// service landed there. Bit rot in a clean slot after it landed fails
/// every frame patched over it, while the journal is cut past each of
/// them; the generation is written whole at every
/// [`store::WHOLE_EVERY`]th checkpoint into it, so the rot spoils
/// `WHOLE_EVERY - 1` frames and no more, and recovery after the whole
/// write quarantines nothing and loses nothing.
#[test]
fn a_rotted_clean_slot_spoils_its_generation_until_the_next_whole_write() {
    use latch_sim::event::SourceInput;
    let taint = |addr: u32| {
        let mut ev = Event::empty(0x40);
        ev.source = Some(SourceInput {
            kind: latch_dift::policy::SourceKind::File,
            addr,
            len: 8,
            trusted: false,
        });
        ev
    };
    // One checkpoint per pump: a taint event and filler.
    let round = |first: Event| {
        let mut evs = vec![first];
        evs.resize(64, Event::empty(0x10));
        evs
    };
    let dir = std::env::temp_dir().join(format!("latch-serve-rot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig::default();
    let dcfg = DurableConfig {
        group_commit_events: 16,
        snapshot_every: 64,
    };
    let plan = FaultPlan::benign();
    let mut svc = DurableService::new(cfg, dcfg, plan, DirStorage::open(&dir).unwrap());
    let page = store::SLOT_BYTES as u32;
    // The first checkpoint lands pages 1 and 2 whole in generation 0.
    let mut all = round(taint(page));
    all[1] = taint(2 * page);
    svc.submit(0, &all).unwrap();
    svc.pump();
    let gen0 = dir.join(store::snap_name(0, 0));
    let mut bytes = std::fs::read(&gen0).unwrap();
    bytes[store::SLOT_BYTES + 100] ^= 1; // page 1's slot
    std::fs::write(&gen0, &bytes).unwrap();
    // Every later checkpoint changes page 2 only, alternating
    // generations: checkpoint k + 1 goes to generation 0 for even k.
    let mut spoiled = 0;
    for k in 1..=2 * store::WHOLE_EVERY {
        let evs = round(taint(2 * page + 16 + k));
        svc.submit(0, &evs).unwrap();
        svc.pump();
        all.extend(evs);
        if k % 2 == 0 {
            let decodes = store::decode_frame(0, &std::fs::read(&gen0).unwrap()).is_ok();
            assert_eq!(decodes, k == 2 * store::WHOLE_EVERY, "checkpoint {}", k + 1);
            spoiled += usize::from(!decodes);
        }
    }
    assert_eq!(spoiled, store::WHOLE_EVERY as usize - 1);
    let storage = svc.crash();
    let (svc, report) = DurableService::recover(cfg, dcfg, plan, storage);
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    assert_eq!(report.sessions[&0].recovered, all.len() as u64);
    let (out, _) = svc.finish();
    assert_eq!(out.sessions[&0].encode(), solo(&all, cfg.scrub_interval));
    let _ = std::fs::remove_dir_all(&dir);
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
    // The next checkpoint's put, cut short: at least the first half of
    // a newer frame, and its first byte that differs, laid over the
    // older generation's bytes.
    let mut torn = older.1.clone();
    let differs = (0..).find(|&i| torn.get(i) != newer.1.get(i)).unwrap();
    let keep = (newer.1.len().min(torn.len()) / 2).max(differs + 1);
    torn.resize(torn.len().max(keep), 0);
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

/// A session evicted and restored between two checkpoints of the same
/// generation comes back as a new pipeline: the page mark its last
/// frame there was taken at vouches for none of the restored pipeline's
/// pages, so that checkpoint is written whole. Recovery from it resumes
/// solo-identical.
#[test]
fn a_restored_session_writes_whole_and_recovers_solo_identical() {
    // Session 0 writes one of five pages per event, so every page
    // changes between any two checkpoints of a generation.
    let a: Vec<Event> = (0..3_000u32)
        .map(|i| {
            let mut ev = Event::empty(0x40);
            ev.source = Some(latch_sim::event::SourceInput {
                kind: latch_dift::policy::SourceKind::File,
                addr: (1 + i % 5) * 4096 + (i * 37) % 4000,
                len: 8,
                trusted: false,
            });
            ev
        })
        .collect();
    let b = stream(&all_profiles()[0], 72, 400);
    let cfg = ServeConfig {
        max_resident: 1,
        ..ServeConfig::default()
    };
    let dcfg = DurableConfig {
        group_commit_events: 1,
        snapshot_every: 100,
    };
    let plan = FaultPlan::benign();
    let mut svc = DurableService::new(cfg, dcfg, plan, FloorProbe::new(MemStorage::new(plan)));
    let run = |svc: &mut DurableService<FloorProbe>, s: u64, evs: &[Event]| {
        for chunk in evs.chunks(100) {
            svc.submit(s, chunk).unwrap();
            svc.pump();
        }
    };
    // Session 0 alone: whole frames into both generations, then
    // patches while its pipeline stays resident.
    run(&mut svc, 0, &a[..1_000]);
    // Session 1 takes the one resident place; session 0 is frozen with
    // nothing due, then restored by its next batch.
    run(&mut svc, 1, &b);
    // One checkpoint into each generation, each over a layout taken on
    // the evicted pipeline; the crash comes before any later one.
    run(&mut svc, 0, &a[1_000..1_200]);
    let storage = svc.crash();
    let writes: Vec<bool> = storage
        .snap_writes
        .iter()
        .filter(|&&(s, _)| s == 0)
        .map(|&(_, whole)| whole)
        .collect();
    assert_eq!(writes.len(), 12, "{writes:?}");
    assert_eq!(
        &writes[..2],
        [true, true],
        "the first frame into each generation is whole"
    );
    assert!(
        writes[2..10].iter().all(|&w| !w),
        "then patches: {writes:?}"
    );
    assert_eq!(
        &writes[10..],
        [true, true],
        "a restored pipeline writes whole: {writes:?}"
    );

    let (mut svc, report) = DurableService::recover(cfg, dcfg, plan, storage);
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    assert_eq!(report.sessions[&0].snapshot_applied, 1_200);
    assert_eq!(report.sessions[&1].snapshot_applied, 400);
    run(&mut svc, 0, &a[1_200..]);
    let (out, _) = svc.finish();
    assert_eq!(out.sessions[&0].encode(), solo(&a, cfg.scrub_interval));
    assert_eq!(out.sessions[&1].encode(), solo(&b, cfg.scrub_interval));
    // A stale slot shows in the precise state even where no report
    // counter reads it.
    let mut alone = SessionPipeline::new(cfg.scrub_interval);
    for ev in &a {
        alone.apply(ev);
    }
    let resumed = out.pipelines[&0].engine().to_snapshot();
    assert!(resumed == alone.engine().to_snapshot());
}

/// A frame a v2 writer left on disk — the pinned astar frame of
/// `latch_serve::store`'s tests, built here the way that writer laid
/// it out — still decodes, and recovery restores and resumes from it.
#[test]
fn a_v2_frame_on_disk_still_recovers() {
    use latch_core::snapshot::{crc32, SnapWriter};
    let profiles = all_profiles();
    let astar = profiles.iter().find(|p| p.name == "astar").unwrap();
    let evs = stream(astar, 5, 24_000);
    let mut pipe = SessionPipeline::new(512);
    for ev in &evs[..20_000] {
        pipe.apply(ev);
    }
    let blob = pipe.to_snapshot();
    let mut w = SnapWriter::new();
    w.header(store::SNAP_FRAME_MAGIC, 2);
    w.u64(0x5EED);
    w.u64(3);
    w.u64(20_000);
    w.u8(Priority::Critical.rank());
    w.u64(blob.len() as u64);
    w.bytes(&blob);
    let frame = w.finish_crc();
    assert_eq!(
        (frame.len(), crc32(&frame[..frame.len() - 4])),
        (98_241, 0x3EAD_CAEC)
    );
    let plan = FaultPlan::benign();
    let mut storage = MemStorage::new(plan);
    assert!(storage.put(&store::snap_name(0x5EED, 1), &frame));
    assert!(storage.fsync());

    let (cfg, dcfg) = (ServeConfig::default(), DurableConfig::default());
    let (mut svc, report) = DurableService::recover(cfg, dcfg, plan, storage);
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    let rec = report.sessions[&0x5EED];
    assert_eq!(
        (rec.snapshot_applied, rec.recovered, rec.epoch),
        (20_000, 20_000, 1)
    );
    assert_eq!(
        svc.service().session_priority(0x5EED),
        Some(Priority::Critical)
    );
    for chunk in evs[20_000..].chunks(500) {
        svc.submit(0x5EED, chunk).unwrap();
        svc.pump();
    }
    let (out, mut storage) = svc.finish();
    assert_eq!(out.sessions[&0x5EED].encode(), solo(&evs, 512));
    // The seal went to the other generation, as v3; the v2 frame stays
    // until a checkpoint overwrites it.
    let sealed = storage.read(&store::snap_name(0x5EED, 0)).unwrap();
    assert_eq!(sealed[4..8], store::SNAP_FRAME_VERSION.to_le_bytes());
}

/// `n` taint events of one fixed shape: every 64-event record of them
/// encodes to the same length, so a rewound journal's records line up
/// with the stale ones of its earlier cycles.
fn uniform(n: u32) -> Vec<Event> {
    (0..n)
        .map(|i| {
            let mut ev = Event::empty(0x40 + i);
            ev.source = Some(latch_sim::event::SourceInput {
                kind: latch_dift::policy::SourceKind::File,
                addr: 4096 + (i * 37) % 60_000,
                len: 8,
                trusted: false,
            });
            ev
        })
        .collect()
}

/// One record per 64-event submit, a group commit after each, and a
/// checkpoint once 256 events are applied past the last one.
const REWIND: DurableConfig = DurableConfig {
    group_commit_events: 64,
    snapshot_every: 256,
};

/// Submits `evs` to session 0 in 64-event records and pumps once.
fn submit_records(svc: &mut DurableService<MemStorage>, evs: &[Event]) {
    for chunk in evs.chunks(64) {
        svc.submit(0, chunk).unwrap();
    }
    svc.pump();
}

/// A journal image as one synced file in a fresh store.
fn store_with(name: &str, bytes: &[u8]) -> MemStorage {
    let mut storage = MemStorage::new(FaultPlan::benign());
    assert!(storage.put(name, bytes));
    assert!(storage.fsync());
    storage
}

/// A store holding `storage`'s snapshot files and `wal` as session 0's
/// journal.
fn with_journal(storage: &mut MemStorage, wal: &[u8]) -> MemStorage {
    let mut image = store_with(&journal::wal_name(0), wal);
    for g in [0, 1] {
        let name = store::snap_name(0, g);
        if let Some(bytes) = storage.read(&name) {
            assert!(image.put(&name, &bytes));
        }
    }
    assert!(image.fsync());
    image
}

/// A rewound journal whose newest end frame never landed: the scan
/// reads on past the live record into the stale records of the cycle
/// before the cut, which all end at or before the cut point. Recovery
/// skips them (the durable frame covers them) and restores the exact
/// prefix, replaying the live record alone.
#[test]
fn a_lost_end_frame_exposes_only_covered_records() {
    let evs = uniform(512);
    let (cfg, plan) = (ServeConfig::default(), FaultPlan::benign());
    let mut svc = DurableService::new(cfg, REWIND, plan, MemStorage::new(plan));
    submit_records(&mut svc, &evs[..256]);
    svc.submit(0, &evs[256..320]).unwrap();
    let mut storage = svc.crash();
    let wal = journal::wal_name(0);
    // The journal before the last record's write and its group commit:
    // rewound to empty, the first cycle's records stale behind it.
    let rewound = storage
        .crash_image(storage.ops_len() - 2)
        .read(&wal)
        .unwrap();
    let cut = journal::scan_wal(0, &rewound);
    assert!(cut.ended && cut.records.is_empty());
    // The record landed and its end frame did not: the bytes the end
    // frame would have overwritten, the next stale record's frame,
    // stand.
    let mut image = storage.read(&wal).unwrap();
    assert_eq!(image.len(), rewound.len(), "the record reused the file");
    let end = journal::scan_wal(0, &image).end as usize;
    image[end..end + 8].copy_from_slice(&rewound[end..end + 8]);
    let scan = journal::scan_wal(0, &image);
    let bases: Vec<u64> = scan.records.iter().map(|r| r.base_seq).collect();
    assert_eq!(bases, [256, 64, 128, 192], "stale records are read");
    let storage = with_journal(&mut storage, &image);
    let (mut svc, report) = DurableService::recover(cfg, REWIND, plan, storage);
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    let rec = report.sessions[&0];
    assert_eq!(
        (rec.snapshot_applied, rec.replayed, rec.recovered),
        (256, 64, 320)
    );
    submit_records(&mut svc, &evs[320..]);
    let (out, _) = svc.finish();
    assert_eq!(out.sessions[&0].encode(), solo(&evs, cfg.scrub_interval));
}

/// A crash keeps a later record whose predecessor never landed, past
/// the end frame of the rewound log. Recovery restores the prefix
/// before the gap and cuts the journal with a truncating put, so when
/// the end frame after its first new record tears, nothing from before
/// the crash follows it. A rewind in place would have left the old
/// record right there, continuing the new one.
#[test]
fn recovery_truncates_a_journal_with_records_past_its_end() {
    let evs = uniform(384);
    let (cfg, plan) = (ServeConfig::default(), FaultPlan::benign());
    let mut svc = DurableService::new(cfg, REWIND, plan, MemStorage::new(plan));
    submit_records(&mut svc, &evs[..256]);
    let wal = journal::wal_name(0);
    svc.submit(0, &evs[256..320]).unwrap();
    svc.submit(0, &evs[320..384]).unwrap();
    let mut storage = svc.crash();
    // Before the two records' writes and group commits.
    let rewound = storage
        .crash_image(storage.ops_len() - 4)
        .read(&wal)
        .unwrap();
    let after = storage.read(&wal).unwrap();
    let rec = journal::WAL_HEADER_LEN..journal::WAL_HEADER_LEN + (after.len() - 25) / 4;
    let a = after[rec.clone()].to_vec();
    // The crash image: the record of events 256..320 never landed, so
    // the cut's end frame and a stale record's tail stand where it
    // went; the record of events 320..384 and its end frame landed.
    let mut image = after.clone();
    image[rec.clone()].copy_from_slice(&rewound[rec.clone()]);
    let scan = journal::scan_wal(0, &image);
    assert!(scan.ended && scan.records.is_empty());
    assert!(!scan.ends_the_file(image.len()), "a record follows the end");
    let storage = with_journal(&mut storage, &image);
    let (mut svc, report) = DurableService::recover(cfg, REWIND, plan, storage);
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    assert_eq!(report.sessions[&0].recovered, 256);
    svc.submit(0, &evs[256..320]).unwrap();
    let mut storage = svc.crash();
    let mut resumed = storage.read(&wal).unwrap();
    assert_eq!(resumed[rec.clone()], a[..], "the same record, re-journaled");
    assert_eq!(resumed.len(), rec.end + 8, "the cut truncated the file");
    // The end frame after it tears: the file ends at the record.
    resumed.truncate(rec.end);
    let storage = with_journal(&mut storage, &resumed);
    let (_, report) = DurableService::recover(cfg, REWIND, plan, storage);
    assert_eq!(
        report.sessions[&0].recovered, 320,
        "nothing pre-crash follows"
    );
    // In place, the same tear would have exposed the pre-crash record.
    let mut in_place = image;
    in_place[rec.clone()].copy_from_slice(&a);
    let exposed = journal::scan_wal(0, &in_place);
    assert_eq!(exposed.records.len(), 2);
    assert_eq!(exposed.records[1].base_seq, 320);
}

/// An export taken after a cut ships the header and the live records:
/// no end frame and none of the stale bytes past it. A backup seeded
/// from it takes the later acked records right after those bytes and
/// restores every acked batch; seeded from the raw file, the end frame
/// would hide every later record from its scan.
#[test]
fn an_export_after_a_cut_ships_only_the_live_log() {
    let evs = uniform(512);
    let (cfg, plan) = (ServeConfig::default(), FaultPlan::benign());
    let mut svc = DurableService::new(cfg, REWIND, plan, MemStorage::new(plan));
    submit_records(&mut svc, &evs[..256]);
    submit_records(&mut svc, &evs[256..320]);
    let export = svc.export_session(0).unwrap();
    let mut storage = svc.crash();
    let raw = storage.read(&journal::wal_name(0)).unwrap();
    let live = journal::scan_wal(0, &raw);
    assert!(live.ended && live.records.len() == 1);
    assert!(
        raw.len() > live.end as usize + 8,
        "stale bytes follow the end"
    );
    assert_eq!(export.wal, raw[..live.end as usize]);
    let shipped = journal::scan_wal(0, &export.wal);
    assert!(!shipped.ended && shipped.quarantined.is_none());
    assert_eq!(shipped.end, export.wal.len() as u64);

    let rank = export.priority.rank();
    let mut backups = latch_replica::ReplicaStore::new();
    let mut raw_backups = latch_replica::ReplicaStore::new();
    backups.seed(0, rank, 320, export.blob.clone(), export.wal.clone());
    raw_backups.seed(0, rank, 320, export.blob.clone(), raw);
    for (base, chunk) in (320..).step_by(64).zip(evs[320..].chunks(64)) {
        let record = journal::encode_record(base, chunk).unwrap();
        let acked = base + 64;
        for store in [&mut backups, &mut raw_backups] {
            let off = store.get(0).unwrap().wal.len() as u64;
            store.append(0, rank, off, acked, &record).unwrap();
        }
    }
    let thaw = |store: &latch_replica::ReplicaStore| {
        let j = store.get(0).unwrap();
        latch_serve::thaw_export(0, cfg.scrub_interval, &j.blob, &j.wal).unwrap()
    };
    let pipe = thaw(&backups);
    assert_eq!(pipe.applied(), 512, "every acked batch");
    assert_eq!(pipe.report().encode(), solo(&evs, cfg.scrub_interval));
    assert_eq!(thaw(&raw_backups).applied(), 320, "the raw file hides them");
}

/// A v2 journal whose header holds the session's class is still cut at
/// recovery, with a truncating put, since its writer never ended its
/// log with an end frame; the v3 journal that replaces it takes
/// appends, and a second recovery restores them.
#[test]
fn a_v2_journal_is_cut_at_recovery_then_takes_appends() {
    let evs = uniform(256);
    let (cfg, plan) = (ServeConfig::default(), FaultPlan::benign());
    let mut v2 = journal::wal_header(0, Priority::Normal);
    v2[4..8].copy_from_slice(&2u32.to_le_bytes());
    for (base, chunk) in (0..).step_by(64).zip(evs[..128].chunks(64)) {
        v2.extend_from_slice(&journal::encode_record(base, chunk).unwrap());
    }
    let wal = journal::wal_name(0);
    let storage = store_with(&wal, &v2);
    let (mut svc, report) = DurableService::recover(cfg, REWIND, plan, storage);
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    assert_eq!(report.sessions[&0].replayed, 128);
    svc.submit(0, &evs[128..192]).unwrap();
    let mut storage = svc.crash();
    let bytes = storage.read(&wal).unwrap();
    let scan = journal::scan_wal(0, &bytes);
    assert_eq!((scan.version, scan.priority), (3, Some(Priority::Normal)));
    assert_eq!(scan.records.len(), 1, "the v2 records are gone");
    assert_eq!(scan.records[0].base_seq, 128);
    assert!(scan.ends_the_file(bytes.len()));
    let (mut svc, report) = DurableService::recover(cfg, REWIND, plan, storage);
    assert_eq!(report.sessions[&0].recovered, 192);
    svc.submit(0, &evs[192..]).unwrap();
    let (out, _) = svc.finish();
    assert_eq!(out.sessions[&0].encode(), solo(&evs, cfg.scrub_interval));
}
