//! `latch-stress` — fixed-seed stress scenarios over the serving stack.
//!
//! ```text
//! latch-stress crash     [--seed S] [--iters N] [--sessions K] [--events E] [--dir PATH]
//! latch-stress overload  [--seed S] [--iters N] [--sessions K] [--events E]
//! latch-stress latchd    [--seed S] [--sessions K] [--events E]
//! latch-stress cluster   [--seed S] [--sessions K] [--events E]
//! latch-stress replica   [--seed S] [--sessions K] [--events E]
//! latch-stress router-ha [--seed S] [--sessions K] [--events E]
//! ```
//!
//! * **crash** — a kill loop over the real-directory storage backend:
//!   each iteration kills a durable service at a seeded round, mangles
//!   the surviving files (torn tail, bit rot, or a stale snapshot slot:
//!   one 4 KiB slot block copied from the other generation, as a patch
//!   extent that never landed, which recovery must quarantine),
//!   recovers, re-submits the lost suffixes, and requires
//!   solo-identical reports.
//! * **overload** — a deterministic service with an armed SLO under
//!   seeded burst and slow-client plans: critical traffic is never
//!   shed, the coarse state covers precise taint, every session equals
//!   a solo run of its admitted stream, and the shed set and SLO stream
//!   repeat exactly.
//! * **latchd** — one `latchd` over loopback sockets with an armed SLO.
//! * **cluster** — a router over three nodes; the kill keeps the
//!   victim's disk, and its sessions are exported from it.
//! * **replica** — the same with 2-of-3 replication and the victim's
//!   disk destroyed, so recovery runs on backup journals alone; the
//!   deterministic phase adds a planned join and leave.
//! * **router-ha** — a primary router and a warm standby; the kill
//!   shuts the primary down (odd seeds also destroy session 0's owner),
//!   and the standby's takeover must carry every stream.
//!
//! The last four share two phases. The **threaded** phase runs one
//! client thread per session, and every admitted stream must drain
//! solo-identical. In the cluster scenarios the client whose ack first
//! finds session 0 admitted and the acked total past a seeded point
//! between a quarter and three quarters of all events runs the kill
//! inline, before its next submit, on the ring owner of session 0, so
//! the kill always lands mid-stream on a node that owns a session. The
//! **deterministic** phase runs one single-threaded drive
//! twice against fresh servers, and what it returns must be identical
//! across the runs.
//!
//! Any panic or mismatch exits non-zero; an unknown scenario or a flag
//! the scenario does not take exits 2.

use latch_client::{Client, ClientError, HaClient};
use latch_conform::fixture::{
    self, loopback, overload_drive, rerun, router_config, solo_report, stream, Disk, Failover,
    Nodes,
};
use latch_core::PAGE_SIZE;
use latch_faults::{FaultInjector, FaultPlan};
use latch_proto::{Endpoint, WireRejected};
use latch_router::{Exporter, Router, RouterServer, RouterServerConfig};
use latch_serve::{
    store, DirStorage, DurableConfig, DurableService, Rejected, ServeConfig, SessionExport, Slo,
};
use latch_sim::event::Event;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

struct Args {
    seed: u64,
    iters: u64,
    sessions: usize,
    events: u64,
    dir: PathBuf,
}

/// A scenario: its name, its flags beyond `--seed`, `--sessions` and
/// `--events`, its default `(iters, sessions, events)`, and its body.
type Scenario = (
    &'static str,
    &'static [&'static str],
    (u64, usize, u64),
    fn(&Args),
);

const SCENARIOS: [Scenario; 6] = [
    ("crash", &["--iters", "--dir"], (24, 3, 1_500), crash),
    ("overload", &["--iters"], (16, 4, 2_000), overload),
    ("latchd", &[], (1, 4, 1_500), latchd),
    ("cluster", &[], (1, 6, 1_200), cluster),
    ("replica", &[], (1, 6, 1_200), replica),
    ("router-ha", &[], (1, 6, 1_000), router_ha),
];

fn usage(why: &str) -> ! {
    eprintln!("latch-stress: {why}");
    eprintln!(
        "usage: latch-stress <crash|overload|latchd|cluster|replica|router-ha> \
         [--seed S] [--sessions K] [--events E] [--iters N (crash, overload)] [--dir PATH (crash)]"
    );
    std::process::exit(2);
}

fn parse_args() -> (fn(&Args), Args) {
    let mut it = std::env::args().skip(1);
    let name = it.next().unwrap_or_else(|| usage("no scenario given"));
    let &(_, flags, (iters, sessions, events), run) = SCENARIOS
        .iter()
        .find(|s| s.0 == name)
        .unwrap_or_else(|| usage(&format!("unknown scenario {name}")));
    let mut args = Args {
        seed: 1,
        iters,
        sessions,
        events,
        dir: std::env::temp_dir().join(format!("latch-crash-stress-{}", std::process::id())),
    };
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        if !["--seed", "--sessions", "--events"].contains(&flag) && !flags.contains(&flag) {
            usage(&format!("{name} takes no {flag}"));
        }
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("missing value for {flag}")));
        let number = || {
            value
                .parse()
                .unwrap_or_else(|_| usage(&format!("bad value for {flag}")))
        };
        match flag {
            "--seed" => args.seed = number(),
            "--iters" => args.iters = number(),
            "--sessions" => args.sessions = number() as usize,
            "--events" => args.events = number(),
            _ => args.dir = PathBuf::from(value),
        }
    }
    if args.iters == 0 || args.sessions == 0 || args.events == 0 {
        usage("--iters, --sessions and --events must be positive");
    }
    (run, args)
}

fn main() {
    let (run, args) = parse_args();
    // A panic on a client thread must fail the process.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        hook(info);
        std::process::exit(101);
    }));
    run(&args);
}

/// SplitMix64 — the one deterministic entropy source of the crash and
/// overload loops.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The wire scenarios' streams: session `s` runs profile `s` from seed
/// `seed + s`.
fn streams(args: &Args) -> Vec<Vec<Event>> {
    (0..args.sessions)
        .map(|s| stream(s, args.seed.wrapping_add(s as u64), args.events))
        .collect()
}

/// Every session with admitted events drains to a solo run of exactly
/// those events; no other session has a report.
fn check_reports(reports: &[(u64, Vec<u8>)], admitted: &[Vec<Event>], scrub: u64, what: &str) {
    let reports: BTreeMap<u64, &Vec<u8>> = reports.iter().map(|(s, r)| (*s, r)).collect();
    for (s, events) in admitted.iter().enumerate() {
        match reports.get(&(s as u64)) {
            Some(&bytes) => assert!(
                *bytes == solo_report(events, scrub),
                "{what}: session {s} diverged from a solo run of its admitted stream"
            ),
            None => assert!(
                events.is_empty(),
                "{what}: session {s} admitted events but has no report"
            ),
        }
    }
    assert!(
        reports.keys().all(|&s| (s as usize) < admitted.len()),
        "{what}: a report for a session nobody drove"
    );
}

// ---- crash ---------------------------------------------------------------

/// Submits rounds `[0, stop_round)` of every stream, pumping between.
fn crash_drive(
    svc: &mut DurableService<DirStorage>,
    streams: &[Vec<Event>],
    chunk: usize,
    stop_round: usize,
) {
    for r in 0..stop_round {
        for (s, evs) in streams.iter().enumerate() {
            let lo = r * chunk;
            if lo >= evs.len() {
                continue;
            }
            let hi = (lo + chunk).min(evs.len());
            loop {
                match svc.submit(s as u64, &evs[lo..hi]) {
                    Ok(()) => break,
                    Err(Rejected::QueueFull { .. } | Rejected::SessionBusy { .. }) => svc.pump(),
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

/// A v3 snapshot frame's slot count, or `None` for anything else.
fn slot_count(frame: &[u8]) -> Option<usize> {
    let version = u32::from_le_bytes(frame.get(4..8)?.try_into().ok()?);
    let slots = u64::from_le_bytes(frame.get(16..24)?.try_into().ok()?);
    (version == 3).then_some(slots as usize)
}

/// Copies one 4 KiB slot block of a session's snapshot file over the
/// same slot of its other generation, where the two differ: what a
/// patch leaves when that slot's extent never landed. Returns what it
/// did and the name of the file it staled.
fn stale_slot(files: &[PathBuf], r: u64) -> Option<(String, String)> {
    let slot = store::SLOT_BYTES;
    let mut candidates = Vec::new();
    for path in files {
        let name = path.file_name()?.to_string_lossy().into_owned();
        let Some((session, generation)) = store::parse_snap_name(&name) else {
            continue;
        };
        let other = path.with_file_name(store::snap_name(session, 1 - generation));
        let (Ok(target), Ok(source)) = (std::fs::read(path), std::fs::read(&other)) else {
            continue;
        };
        let (Some(a), Some(b)) = (slot_count(&target), slot_count(&source)) else {
            continue;
        };
        for k in 0..a.min(b) {
            let block = slot * (1 + k)..slot * (2 + k);
            if target[block.clone()] != source[block] {
                candidates.push((path.clone(), other.clone(), k));
            }
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let (target, source, k) = &candidates[(mix(r ^ 0xE9) as usize) % candidates.len()];
    let mut bytes = std::fs::read(target).ok()?;
    let block = slot * (1 + k)..slot * (2 + k);
    bytes[block.clone()].copy_from_slice(&std::fs::read(source).ok()?[block]);
    std::fs::write(target, &bytes).ok()?;
    let name = |p: &Path| p.file_name().map(|n| n.to_string_lossy().into_owned());
    let (target, source) = (name(target)?, name(source)?);
    Some((format!("staled slot {k} of {target} from {source}"), target))
}

/// Post-mortem file mangling: what the kernel may leave behind that
/// the in-memory fault model cannot produce on a real directory.
/// Returns what it did, and a file recovery must quarantine.
fn mangle(dir: &Path, r: u64) -> Option<(String, Option<String>)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    files.sort();
    if files.is_empty() {
        return None;
    }
    // A kill that leaves two generations of a session whose slots
    // differ stales one of them; the rest tear or rot any file.
    if let Some((what, staled)) = stale_slot(&files, r) {
        return Some((what, Some(staled)));
    }
    let target = &files[(mix(r) as usize) % files.len()];
    let bytes = std::fs::read(target).ok()?;
    let name = target.file_name()?.to_string_lossy().into_owned();
    match mix(r ^ 0xA5) % 3 {
        0 => {
            // Torn tail: drop 1..=64 bytes off the end.
            let cut = bytes
                .len()
                .saturating_sub(1 + (mix(r ^ 0xB6) as usize) % 64);
            std::fs::write(target, &bytes[..cut]).ok()?;
            Some((format!("torn {name} to {cut}/{} bytes", bytes.len()), None))
        }
        1 => {
            // Bit rot: flip one bit anywhere.
            if bytes.is_empty() {
                return None;
            }
            let mut bad = bytes.clone();
            let at = (mix(r ^ 0xC7) as usize) % bad.len();
            bad[at] ^= 1 << (mix(r ^ 0xD8) % 8);
            std::fs::write(target, &bad).ok()?;
            Some((format!("flipped bit in {name} at byte {at}"), None))
        }
        _ => None, // clean kill: the torn frame is the crash point itself
    }
}

fn crash(args: &Args) {
    let cfg = ServeConfig {
        max_resident: 2,
        scrub_interval: 256,
        ..ServeConfig::default()
    };
    let chunk = 96usize;
    let mut total_quarantined = 0usize;
    let mut total_replayed = 0u64;
    let mut mangles = 0usize;
    let mut stale_slots = 0usize;

    for iter in 0..args.iters {
        let r = mix(args.seed ^ (iter << 17));
        let dir = args.dir.join(format!("iter-{iter}"));
        let _ = std::fs::remove_dir_all(&dir);
        let storage = DirStorage::open(&dir).expect("create iteration dir");
        let dcfg = DurableConfig {
            group_commit_events: 32 + r % 128,
            snapshot_every: 200 + mix(r) % 400,
        };
        let streams: Vec<Vec<Event>> = (0..args.sessions)
            .map(|s| {
                stream(
                    iter as usize + s,
                    args.seed + iter * 31 + s as u64,
                    args.events,
                )
            })
            .collect();
        let rounds = streams
            .iter()
            .map(|evs| evs.len().div_ceil(chunk))
            .max()
            .unwrap_or(0);
        let stop_round = (mix(r ^ 0x91) as usize) % (rounds + 1);

        let mut svc = DurableService::new(cfg, dcfg, FaultPlan::benign(), storage);
        crash_drive(&mut svc, &streams, chunk, stop_round);
        drop(svc.crash()); // the kill: all volatile state is gone

        let mut must_quarantine = None;
        if let Some((what, staled)) = mangle(&dir, r) {
            mangles += 1;
            stale_slots += usize::from(staled.is_some());
            must_quarantine = staled;
            println!("iter {iter}: {what}");
        }

        let storage = DirStorage::open(&dir).expect("reopen iteration dir");
        let (mut svc, report) = DurableService::recover(cfg, dcfg, FaultPlan::benign(), storage);
        total_quarantined += report.quarantined.len();
        for q in &report.quarantined {
            println!(
                "iter {iter}: quarantined {} @{}: {}",
                q.file, q.offset, q.error
            );
        }
        if let Some(file) = must_quarantine {
            assert!(
                report.quarantined.iter().any(|q| q.file == file),
                "iter {iter}: the staled {file} was restored"
            );
        }
        let suffixes: Vec<Vec<Event>> = streams
            .iter()
            .enumerate()
            .map(|(s, evs)| {
                let rec = report.sessions.get(&(s as u64));
                total_replayed += rec.map_or(0, |r| r.replayed);
                let recovered = rec.map_or(0, |r| r.recovered) as usize;
                assert!(
                    recovered <= evs.len(),
                    "iter {iter} session {s}: recovered {recovered} > submitted {}",
                    evs.len()
                );
                evs[recovered..].to_vec()
            })
            .collect();
        let resume = suffixes
            .iter()
            .map(|evs| evs.len().div_ceil(chunk))
            .max()
            .unwrap_or(0);
        crash_drive(&mut svc, &suffixes, chunk, resume);
        let (out, _storage) = svc.finish();
        for (s, evs) in streams.iter().enumerate() {
            assert!(
                out.sessions[&(s as u64)].encode() == solo_report(evs, cfg.scrub_interval),
                "iter {iter} session {s}: diverged after kill at round {stop_round}/{rounds}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    let _ = std::fs::remove_dir_all(&args.dir);
    println!(
        "crash_stress OK: {} iters, {} sessions each, {} mangled images \
         ({} stale slots), {} frames quarantined, {} events replayed from WAL",
        args.iters, args.sessions, mangles, stale_slots, total_quarantined, total_replayed
    );
}

// ---- overload ------------------------------------------------------------

/// One seeded overload drive with the iteration's contracts checked:
/// critical traffic is never shed, every precisely tainted page is
/// coarse-covered, and every session is indistinguishable from a solo
/// run of its admitted stream. Returns what must repeat on a rerun: the
/// shed set, the SLO report stream and the shed count.
#[allow(clippy::type_complexity)]
fn overload_run(
    cfg: ServeConfig,
    plan: FaultPlan,
    streams: &[Vec<Event>],
    iter: u64,
) -> Result<(Vec<(u64, u8, u8)>, Vec<u8>, u64), &'static str> {
    let run = overload_drive(cfg, plan, streams, 48)?;
    for (i, evs) in streams.iter().enumerate() {
        let admitted = &run.admitted[i];
        if i % 3 == 0 {
            assert_eq!(
                admitted.len(),
                evs.len(),
                "iter {iter} session {i}: critical traffic was shed"
            );
        }
        let Some(pipe) = run.out.pipelines.get(&(i as u64)) else {
            // Every submission was shed before the first admission: the
            // session never got a slot, so nothing may have been admitted.
            assert!(
                admitted.is_empty(),
                "iter {iter} session {i}: admitted events but no pipeline"
            );
            continue;
        };
        let pages: BTreeSet<u32> = pipe
            .engine()
            .shadow()
            .iter_tainted()
            .map(|(addr, _)| addr / PAGE_SIZE)
            .collect();
        for page in pages {
            assert!(
                pipe.latch().coarse_covers_precise(
                    pipe.engine().shadow(),
                    page.saturating_mul(PAGE_SIZE),
                    PAGE_SIZE,
                ),
                "iter {iter} session {i}: coarse lost precise taint on page {page:#x}"
            );
        }
        assert!(
            run.out.sessions[&(i as u64)].encode() == solo_report(admitted, cfg.scrub_interval),
            "iter {iter} session {i}: report diverged from solo run of admitted stream"
        );
    }
    Ok((run.sheds, run.slo, run.out.stats.shed_events))
}

fn overload(args: &Args) {
    let mut shed = 0;
    for iter in 0..args.iters {
        let r = mix(args.seed ^ (iter << 13));
        let cfg = ServeConfig {
            queue_events: 512,
            batch_max: 32,
            max_resident: 2,
            slo: Slo {
                slo_cycles: 1 + mix(r) % 64,
                window: 32,
                report_every: 2 + mix(r ^ 0x51) % 6,
                queue_pressure_pct: 50,
            },
            ..ServeConfig::default()
        };
        let plan =
            FaultPlan::new(r ^ 0x0B5E).with_overload(150 + (mix(r ^ 0xA1) % 150) as u32, 4, 120);
        let streams: Vec<Vec<Event>> = (0..args.sessions)
            .map(|s| {
                stream(
                    iter as usize + s,
                    args.seed + iter * 47 + s as u64,
                    args.events,
                )
            })
            .collect();
        let what = "shed set, SLO report stream or shed count changed between reruns";
        let (_, _, events) = rerun(what, || overload_run(cfg, plan, &streams, iter))
            .unwrap_or_else(|e| panic!("iter {iter}: {e}"));
        shed += events;
    }
    println!(
        "overload_stress OK: {} iters, {} sessions each, {shed} events shed",
        args.iters, args.sessions
    );
}

// ---- the wire scenarios ----------------------------------------------------

/// Pause before a refused batch is offered again while a kill is in
/// flight.
const RETRY_PAUSE: Duration = Duration::from_millis(2);

/// Drains the node or router at `endpoint` and returns every report.
fn drain(endpoint: &Endpoint) -> Vec<(u64, Vec<u8>)> {
    Client::connect(endpoint, 256, false)
        .expect("connect")
        .drain()
        .expect("drain")
}

/// The seeded kill of a cluster scenario's threaded phase (see the
/// crate docs): the client whose ack first finds session 0 admitted
/// and the acked total at or past `at` runs `kill`.
struct KillPoint<'a> {
    at: u64,
    acked: AtomicU64,
    first_admitted: AtomicBool,
    kill: Mutex<Option<Box<dyn FnOnce() + Send + 'a>>>,
    fired_at: AtomicU64,
}

impl<'a> KillPoint<'a> {
    fn new(seed: u64, salt: u64, total: u64, kill: impl FnOnce() + Send + 'a) -> Self {
        Self {
            at: total / 4 + latch_faults::mix(seed, salt, 0) % (total / 2 + 1),
            acked: AtomicU64::new(0),
            first_admitted: AtomicBool::new(false),
            kill: Mutex::new(Some(Box::new(kill))),
            fired_at: AtomicU64::new(0),
        }
    }

    fn on_ack(&self, session: u64, n: usize) {
        if session == 0 {
            self.first_admitted.store(true, Ordering::SeqCst);
        }
        let acked = self.acked.fetch_add(n as u64, Ordering::SeqCst) + n as u64;
        if acked >= self.at && self.first_admitted.load(Ordering::SeqCst) {
            let kill = self.kill.lock().expect("kill slot").take();
            if let Some(kill) = kill {
                kill();
                self.fired_at.store(acked, Ordering::SeqCst);
            }
        }
    }

    /// The acked total the kill landed at.
    fn fired_at(&self) -> u64 {
        assert!(
            self.kill.lock().expect("kill slot").is_none(),
            "the kill never fired"
        );
        self.fired_at.load(Ordering::SeqCst)
    }
}

/// A client's submit: `(session, rank, batch)`.
type Submit<'c> = dyn FnMut(u64, u8, &[Event]) -> Result<(), ClientError> + 'c;

/// Drives one session's stream through `submit` in `chunk`-event
/// batches, scaled by the plan's burst draws; non-critical sessions sit
/// out the plan's slow rounds. A shed drops its batch on purpose, and
/// backpressure offers the same batch again. With a kill, any refusal
/// but an oversized batch is offered again after a pause (backpressure
/// while the router fails the victim's sessions over); without one, any
/// other refusal fails the run. A transport error always does. Returns
/// the admitted events and the sheds `(session, priority, pressure)`.
#[allow(clippy::type_complexity)]
fn drive_session(
    submit: &mut Submit<'_>,
    session: u64,
    events: &[Event],
    plan: FaultPlan,
    chunk: usize,
    kill: Option<&KillPoint<'_>>,
) -> (Vec<Event>, Vec<(u64, u8, u8)>) {
    let rank = (session % 3) as u8;
    let mut inj = FaultInjector::new(plan);
    let mut admitted = Vec::new();
    let mut sheds = Vec::new();
    let mut pos = 0usize;
    let mut round = 0u64;
    while pos < events.len() {
        assert!(
            round < 1_000_000,
            "session {session}: drive failed to make progress"
        );
        let factor = inj.burst_factor_at(round).unwrap_or(1) as usize;
        let slow = inj.slow_client_at(round) && rank != 0;
        round += 1;
        if slow {
            continue; // slow clients sit a round out; critical keeps flowing
        }
        let batch = &events[pos..events.len().min(pos + chunk * factor)];
        match submit(session, rank, batch) {
            Ok(()) => {
                admitted.extend_from_slice(batch);
                pos += batch.len();
                if let Some(kill) = kill {
                    kill.on_ack(session, batch.len());
                }
            }
            Err(ClientError::Rejected(WireRejected::Shed {
                session: s,
                priority,
                pressure,
            })) => {
                assert_ne!(rank, 0, "critical traffic was shed");
                sheds.push((s, priority, pressure));
                pos += batch.len();
            }
            Err(ClientError::Rejected(
                WireRejected::QueueFull { .. } | WireRejected::SessionBusy { .. },
            )) if kill.is_none() => {}
            Err(ClientError::Rejected(rejected))
                if kill.is_some() && !matches!(rejected, WireRejected::TooLarge { .. }) =>
            {
                std::thread::sleep(RETRY_PAUSE);
            }
            Err(e) => panic!("session {session}: {e}"),
        }
    }
    (admitted, sheds)
}

/// The threaded phase: one client thread and connection per session.
/// With one endpoint each client is a plain [`Client`]; with a primary
/// router and its standby it is an [`HaClient`], which walks to the
/// standby and settles a batch orphaned by the kill through the
/// session cursor. Returns every session's admitted events and the
/// number of sheds.
fn threaded(
    streams: &[Vec<Event>],
    endpoints: &[Endpoint],
    plan: FaultPlan,
    chunk: usize,
    kill: Option<&KillPoint<'_>>,
) -> (Vec<Vec<Event>>, usize) {
    std::thread::scope(|scope| {
        let clients: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(s, events)| {
                scope.spawn(move || {
                    let session = s as u64;
                    if let [endpoint] = endpoints {
                        let mut conn = Client::connect(endpoint, 256, false).expect("connect");
                        let mut submit = |s, r, b: &[Event]| conn.submit(s, r, b);
                        return drive_session(&mut submit, session, events, plan, chunk, kill);
                    }
                    let mut conn = HaClient::new(endpoints.to_vec(), 256, false);
                    let mut submit = |s, r, b: &[Event]| conn.submit(s, r, b);
                    let out = drive_session(&mut submit, session, events, plan, chunk, kill);
                    assert_eq!(
                        conn.acked(session),
                        out.0.len() as u64,
                        "session {s}: acked count drifted across the takeover"
                    );
                    out
                })
            })
            .collect();
        let mut admitted = Vec::new();
        let mut sheds = 0;
        for client in clients {
            let (adm, shed) = client.join().expect("client thread");
            admitted.push(adm);
            sheds += shed.len();
        }
        (admitted, sheds)
    })
}

// ---- latchd --------------------------------------------------------------

fn latchd(args: &Args) {
    let cfg = ServeConfig {
        queue_events: 512,
        batch_max: 32,
        max_resident: 2,
        slo: Slo {
            slo_cycles: 2,
            window: 32,
            report_every: 4,
            queue_pressure_pct: 50,
        },
        ..ServeConfig::default()
    };
    let plan = FaultPlan::new(args.seed ^ 0x0B5E).with_overload(180, 4, 150);
    let streams = streams(args);

    let node = Nodes::start(1, cfg).expect("bind loopback");
    let endpoint = [node.endpoint(0)];
    let (admitted, sheds) = threaded(&streams, &endpoint, plan, 48, None);
    check_reports(
        &drain(&endpoint[0]),
        &admitted,
        cfg.scrub_interval,
        "threaded",
    );
    node.shutdown();
    println!(
        "threaded: {} session(s), {sheds} shed(s), every admitted stream reproduced",
        args.sessions
    );

    // One connection drives the sessions in turn.
    let what = "shed set, session reports or SLO push stream changed between reruns";
    let (sheds, _, slo) = rerun(what, || {
        let node = Nodes::start(1, cfg).expect("bind loopback");
        let mut conn = Client::connect(&node.endpoint(0), 256, true).expect("connect");
        let mut admitted = Vec::new();
        let mut sheds = Vec::new();
        for (s, events) in streams.iter().enumerate() {
            let mut submit = |s, r, b: &[Event]| conn.submit(s, r, b);
            let (adm, shed) = drive_session(&mut submit, s as u64, events, plan, 48, None);
            admitted.push(adm);
            sheds.extend(shed);
        }
        let reports = conn.drain().expect("drain");
        check_reports(&reports, &admitted, cfg.scrub_interval, "deterministic");
        let slo = conn.take_slo_reports();
        drop(conn);
        node.shutdown();
        Ok((sheds, reports, slo))
    })
    .unwrap_or_else(|e| panic!("deterministic: {e}"));
    println!(
        "deterministic: {} shed(s), {} SLO cut(s), byte-identical across reruns",
        sheds.len(),
        slo.len()
    );
    println!("latchd_stress: ok");
}

// ---- cluster and replica ----------------------------------------------------

fn node_config() -> ServeConfig {
    ServeConfig {
        queue_events: 512,
        batch_max: 32,
        ..ServeConfig::default()
    }
}

fn server_config() -> RouterServerConfig {
    RouterServerConfig {
        heartbeat: Duration::from_millis(10),
        standby_miss_budget: 2,
        ..RouterServerConfig::default()
    }
}

fn cluster(args: &Args) {
    failover(args, &fixture::CLUSTER);
    println!("cluster_stress: ok");
}

fn replica(args: &Args) {
    failover(args, &fixture::REPLICA);
    println!("replica_stress: ok");
}

fn failover(args: &Args, f: &Failover) {
    let streams = streams(args);
    let scrub = node_config().scrub_interval;

    // Threaded: client threads through a router front over three nodes.
    let mut nodes = Nodes::start(3, node_config()).expect("bind loopback nodes");
    let mut router = Router::new(router_config(args.seed, args.seed, f.replicas));
    nodes.add_to(&mut router);
    let victim = router.owner_of(0).expect("session 0 placed");
    // The killer deposits what the dead node's disk offers (nothing when
    // it is lost); the router's exporter waits for the racing deposit.
    let deposits: Arc<Mutex<BTreeMap<u32, Vec<SessionExport>>>> = Arc::default();
    let exporter_deposits = Arc::clone(&deposits);
    let exporter: Exporter = Box::new(move |node| {
        for _ in 0..2_000 {
            if let Some(exports) = exporter_deposits.lock().expect("deposits").get(&node) {
                return exports.clone();
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Vec::new()
    });
    let front =
        RouterServer::start(&loopback(), router, exporter, server_config()).expect("bind router");
    let node = nodes.take(victim).expect("victim is up");
    let (disk, killer_deposits) = (f.disk, Arc::clone(&deposits));
    let total = streams.iter().map(Vec::len).sum::<usize>() as u64;
    let kill = KillPoint::new(args.seed, f.salt, total, move || {
        let exports = fixture::kill(node, disk).expect("victim was not drained");
        killer_deposits
            .lock()
            .expect("deposits")
            .insert(victim, exports);
    });
    let endpoint = [front.endpoint().clone()];
    threaded(&streams, &endpoint, FaultPlan::benign(), 32, Some(&kill));
    check_reports(&drain(&endpoint[0]), &streams, scrub, "threaded");
    let (history, lost, victim_alive) = front.with_router(|r| {
        (
            r.migration_history().to_vec(),
            r.lost_sessions(),
            r.is_alive(victim),
        )
    });
    assert!(!victim_alive, "victim node still marked alive after kill");
    assert!(lost.is_empty(), "sessions acked-lost: {lost:?}");
    assert!(!history.is_empty(), "the kill moved no session");
    assert!(
        history.iter().all(|m| m.from_node == victim),
        "a migration left a node that was never killed"
    );
    front.shutdown();
    nodes.shutdown();
    let exported = deposits.lock().expect("deposits")[&victim].len();
    let at = format!("at {} of {total} acked events", kill.fired_at());
    match f.disk {
        Disk::Keep => println!(
            "threaded: {} session(s), node {victim} killed {at} ({exported} exported, {} migrated), every stream reproduced",
            args.sessions,
            history.len()
        ),
        Disk::Lose => println!(
            "threaded: {} session(s), node {victim} killed diskless {at} ({} migrated from backups), every stream reproduced",
            args.sessions,
            history.len()
        ),
    }

    // Deterministic: a seeded failover of node `seed % nodes`. The
    // replicated cluster also takes a planned join a quarter of the way
    // through the drive and a planned leave of the lowest-id survivor
    // at the half.
    let churn = f.replicas > 0;
    let victim = (args.seed % u64::from(f.nodes)) as u32;
    let rounds = streams
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(0)
        .div_ceil(fixture::CHUNK) as u64;
    let what = "session reports, migration history or rebalance history changed between reruns";
    let run = rerun(what, || {
        let (mut joined, mut left) = (!churn, !churn);
        let node = node_config();
        let run = f.run(
            &streams,
            node,
            args.seed,
            Some(victim),
            |nodes, router, round| {
                if !joined && round >= rounds / 4 {
                    joined = true;
                    let (id, endpoint) = nodes.join().map_err(|_| "bind failed")?;
                    router
                        .rebalance_join(id, endpoint)
                        .map_err(|_| "planned join failed")?;
                }
                if joined && !left && round >= rounds / 2 {
                    left = true;
                    let leaver = (0..f.nodes)
                        .find(|&n| n != victim && router.is_alive(n))
                        .ok_or("no survivor to retire")?;
                    router
                        .rebalance_leave(leaver)
                        .map_err(|_| "planned leave failed")?;
                }
                Ok(())
            },
        )?;
        check_reports(&run.reports, &streams, scrub, "deterministic");
        Ok(run)
    })
    .unwrap_or_else(|e| panic!("deterministic: {e}"));
    if churn {
        println!(
            "deterministic: {} migration(s), {} rebalance move(s), reports and histories byte-identical across reruns",
            run.migrations.len(),
            run.rebalances.len()
        );
    } else {
        println!(
            "deterministic: {} migration(s), reports and history byte-identical across reruns",
            run.migrations.len()
        );
    }
}

// ---- router-ha -----------------------------------------------------------

fn router_ha(args: &Args) {
    let streams = streams(args);
    let scrub = node_config().scrub_interval;
    let coincident = args.seed % 2 == 1;

    // Threaded: HaClient threads against a primary and a warm standby.
    let mut nodes = Nodes::start(3, node_config()).expect("bind loopback nodes");
    let mut primary = Router::new(router_config(args.seed, 7, 2));
    let mut standby = Router::new(router_config(args.seed, 8, 2));
    nodes.add_to(&mut primary);
    nodes.add_to(&mut standby);
    let victim = primary.owner_of(0).expect("session 0 placed");
    let no_disk = || -> Exporter { Box::new(|_| Vec::new()) };
    let primary = RouterServer::start(&loopback(), primary, no_disk(), server_config())
        .expect("bind primary");
    let primary_endpoint = primary.endpoint().clone();
    let standby = RouterServer::start_standby(
        &loopback(),
        standby,
        no_disk(),
        server_config(),
        primary_endpoint.clone(),
    )
    .expect("bind standby");
    let endpoints = [primary_endpoint, standby.endpoint().clone()];
    // Odd seeds: session 0's owner dies in the same blast, so the
    // takeover must restore its sessions from replica journals. The
    // other clients stream on: a batch in flight when the primary stops
    // is settled through the standby's session cursor.
    let node = if coincident { nodes.take(victim) } else { None };
    let total = streams.iter().map(Vec::len).sum::<usize>() as u64;
    let kill = KillPoint::new(args.seed, 0x00C3, total, move || {
        primary.shutdown();
        if let Some(node) = node {
            fixture::kill(node, Disk::Lose).expect("victim was not drained");
        }
    });
    threaded(&streams, &endpoints, FaultPlan::benign(), 32, Some(&kill));
    assert!(standby.is_active(), "standby never took over");
    check_reports(&drain(&endpoints[1]), &streams, scrub, "threaded");
    let (lost, takeovers) =
        standby.with_router(|r| (r.lost_sessions(), r.takeover_history().to_vec()));
    assert!(lost.is_empty(), "takeover lost acked state: {lost:?}");
    assert_eq!(takeovers.len(), 1, "exactly one takeover must be recorded");
    let rec = &takeovers[0];
    assert!(
        !coincident || !rec.orphans.is_empty(),
        "the coincident node kill orphaned no session"
    );
    let at = kill.fired_at();
    standby.shutdown();
    nodes.shutdown();
    println!(
        "threaded: {} session(s), primary router killed at {at} of {total} acked events{}, epoch {} takeover adopted {} node(s) ({} orphan(s) from replica journals), every stream reproduced",
        args.sessions,
        if coincident { " with a coincident diskless node kill" } else { "" },
        rec.epoch,
        rec.adopted.len(),
        rec.orphans.len(),
    );

    // Deterministic: the old router drives every session halfway, then
    // it dies with session 0's owner (disk and all), and a fresh
    // standby takes over and finishes through the survivors.
    let what = "session reports, takeover record or migration history changed between reruns";
    let (run, rec) = rerun(what, || {
        let node = node_config();
        let (run, rec) = fixture::takeover(&streams, node, args.seed, [7, 8], true)?;
        check_reports(&run.reports, &streams, scrub, "deterministic");
        Ok((run, rec))
    })
    .unwrap_or_else(|e| panic!("deterministic: {e}"));
    println!(
        "deterministic: epoch {} takeover ({} orphan(s), {} migration(s)), reports and records byte-identical across reruns",
        rec.epoch,
        rec.orphans.len(),
        run.migrations.len()
    );
    println!("router_ha_stress: ok");
}
