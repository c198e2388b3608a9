//! The differential driver: one program, six monitors, one verdict.
//!
//! A program's architectural trace is materialised **once** on a plain
//! CPU; the generator's register discipline (see [`crate::generate`])
//! guarantees the same trace re-emerges when S-LATCH re-executes the
//! program natively. The raw trace feeds the reference oracle; a
//! *desugared* copy — `stnt` effects rewritten into the core event
//! vocabulary — feeds every event-driven system, so all legs agree on
//! what the program did:
//!
//! 1. **Baseline DIFT** (`apply_event_dift` over a fresh engine).
//! 2. **S-LATCH** via `run_cpu`, re-executing the program with the real
//!    ISA-extension wiring, checkpointed for coarse-superset checks.
//! 3. **Mirror unit**: a bare `LatchUnit` kept in sync from precise
//!    DIFT steps — the layer the injected coarse-clear bug targets.
//! 4. **H-LATCH** over the desugared trace, checkpointed.
//! 5. **P-LATCH** `run_resilient` under a benign and a drop-bearing
//!    fault plan (Degrade recovery keeps reports deterministic).
//! 6. **latch-serve**: three sessions fed the same desugared trace,
//!    interleaved chunk-by-chunk through the deterministic scheduler
//!    under eviction pressure — every session must independently
//!    reproduce the oracle's precise map and violation set.
//!
//! Each leg's final precise map, register tags, and violation set must
//! equal the oracle's; the coarse state must cover the precise state on
//! every touched page at every checkpoint. Metamorphic runs then insert
//! untainted no-ops and swap adjacent taint-inert events and demand the
//! verdict does not move.

use crate::generate::TestProgram;
use crate::oracle::{self, OracleResult};
use latch_core::config::LatchConfig;
use latch_core::isa_ext::LatchInstr;
use latch_core::unit::LatchUnit;
use latch_core::{Addr, PreciseView, PAGE_SIZE};
use latch_dift::engine::DiftEngine;
use latch_dift::policy::{SecurityViolation, SourceKind, TaintPolicy};
use latch_dift::prop::PropRule;
use latch_dift::tag::TaintTag;
use latch_faults::FaultPlan;
use latch_faults::FaultInjector;
use latch_client::{Client, ClientError};
use latch_proto::Endpoint;
use latch_router::{Router, RouterConfig, RouterError};
use latch_serve::{
    export_sessions, DurableConfig, DurableService, FailoverRecord, MemStorage, MultiIngress,
    Priority, Rejected, ServeConfig, Service, ServiceOutcome, Slo, SloReport, WireConfig,
    WireServer,
};
use latch_sim::event::{Event, MemAccess, MemAccessKind, SourceInput, VecSource};
use latch_sim::machine::apply_event_dift;
use latch_systems::hlatch::HLatch;
use latch_systems::session::SessionPipeline;
use latch_systems::platch_mt::{run_resilient, RecoveryPolicy, ResilienceConfig};
use latch_systems::slatch::SLatch;
use latch_workloads::BenchmarkProfile;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fmt;

/// Instruction budget for one trace (generated programs halt orders of
/// magnitude earlier; the cap bounds minimizer candidates whose control
/// flow the deletion pass mangled).
pub const TRACE_BUDGET: u64 = 30_000;

/// Largest range (bytes) any single trace event may touch. Generated
/// programs respect this by the `r3` length discipline; corpus files
/// and minimizer candidates are rejected as out-of-contract instead of
/// dragging every leg through a multi-gigabyte range walk.
const MAX_EVENT_RANGE: u32 = 4096;

/// Knobs for one differential check.
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// Events between coarse-superset checkpoints.
    pub checkpoint_every: usize,
    /// Run the metamorphic (no-op insertion + inert-swap) legs.
    pub metamorphic: bool,
    /// Inject the coarse-bit-clear bug into the mirror-unit leg: the
    /// first coarse taint update is dropped, which the superset
    /// checkpoints must catch.
    pub inject_coarse_clear: bool,
    /// Seed for the drop-bearing fault plan and metamorphic shuffles.
    pub fault_seed: u64,
}

impl Default for CheckOptions {
    fn default() -> Self {
        Self {
            checkpoint_every: 64,
            metamorphic: true,
            inject_coarse_clear: false,
            fault_seed: 0xFA17,
        }
    }
}

/// Everything a green check reports (stable fields only, so summaries
/// are byte-identical across reruns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Events in the materialised trace.
    pub trace_len: usize,
    /// Tainted bytes in the golden map at the end of the run.
    pub tainted_bytes: usize,
    /// Violations in the golden set.
    pub violations: usize,
    /// `Some(reason)` when the input was rejected as out-of-contract
    /// (nothing was compared).
    pub skipped: Option<&'static str>,
}

/// A disagreement between a system and the oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// A leg's final tainted-byte map differs from the oracle's.
    TaintMap {
        /// Which leg disagreed.
        leg: &'static str,
        /// Bytes tainted per the oracle but not the leg.
        missing: usize,
        /// Bytes tainted per the leg but not the oracle (or with a
        /// different tag).
        extra: usize,
    },
    /// A leg's final register tags differ from the oracle's.
    RegTags {
        /// Which leg disagreed.
        leg: &'static str,
        /// First disagreeing register.
        reg: usize,
    },
    /// A leg's violation set differs from the oracle's.
    Violations {
        /// Which leg disagreed.
        leg: &'static str,
        /// Violations per the oracle.
        expected: usize,
        /// Violations per the leg.
        got: usize,
    },
    /// Coarse state failed to cover precise taint at a checkpoint — a
    /// false negative, the one thing LATCH promises never happens.
    CoarseSuperset {
        /// Which leg disagreed.
        leg: &'static str,
        /// Event index of the failing checkpoint.
        at_event: usize,
        /// First uncovered page.
        page: u32,
    },
    /// A metamorphic transform changed the verdict.
    Metamorphic {
        /// Which transform + leg disagreed.
        leg: &'static str,
    },
    /// The overload leg broke a contract: a deterministic artifact
    /// (shed set, SLO report stream, failover history) changed between
    /// identical reruns, a session's report diverged from a solo run of
    /// its admitted stream, or the drive failed to make progress.
    Overload {
        /// Which leg disagreed.
        leg: &'static str,
        /// What broke.
        what: &'static str,
    },
    /// S-LATCH's native re-execution produced a different trace length
    /// than the materialisation run (the register discipline failed).
    TraceMismatch {
        /// Events in the materialised trace.
        expected: u64,
        /// Instructions S-LATCH retired.
        got: u64,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::TaintMap { leg, missing, extra } => {
                write!(f, "{leg}: taint map diverged ({missing} missing, {extra} extra bytes)")
            }
            Divergence::RegTags { leg, reg } => {
                write!(f, "{leg}: register tag file diverged at r{reg}")
            }
            Divergence::Violations { leg, expected, got } => {
                write!(f, "{leg}: violation set diverged (oracle {expected}, leg {got})")
            }
            Divergence::CoarseSuperset { leg, at_event, page } => write!(
                f,
                "{leg}: coarse state lost precise taint on page {page:#x} at event {at_event} (false negative)"
            ),
            Divergence::Metamorphic { leg } => {
                write!(f, "{leg}: metamorphic transform changed the verdict")
            }
            Divergence::Overload { leg, what } => write!(f, "{leg}: {what}"),
            Divergence::TraceMismatch { expected, got } => {
                write!(f, "s-latch: native re-execution retired {got} instrs, trace has {expected}")
            }
        }
    }
}

/// Materialises the architectural trace of `prog` on a plain CPU.
pub fn materialize(prog: &TestProgram) -> Vec<Event> {
    let mut cpu = prog.cpu();
    let mut events = Vec::new();
    while cpu.icount() < TRACE_BUDGET {
        match cpu.step() {
            Ok(Some(ev)) => events.push(ev),
            Ok(None) => break,
            Err(_) => break, // runaway pc / bad register ends the trace
        }
    }
    events
}

/// Rewrites program-visible `stnt` effects into the core event
/// vocabulary so systems without the ISA-extension wiring (baseline,
/// H-LATCH, P-LATCH, trace-driven S-LATCH) see the same taint effects
/// as `SLatch::run_cpu` applies through `exec_program_latch`:
/// a tainting `stnt` becomes an untrusted `UserInput` source (both
/// paths overwrite the range with `USER_INPUT`), an untainting one
/// becomes a `StoreImm` clear. A write `MemAccess` is attached so
/// coarse screens see the range.
pub fn desugar(trace: &[Event]) -> Vec<Event> {
    trace
        .iter()
        .map(|ev| {
            let Some(LatchInstr::Stnt { addr, len, tainted }) = ev.latch else {
                return *ev;
            };
            let mut out = *ev;
            out.latch = None;
            out.mem = Some(MemAccess { addr, len, kind: MemAccessKind::Write });
            if tainted {
                out.source = Some(SourceInput {
                    kind: SourceKind::UserInput,
                    addr,
                    len,
                    trusted: false,
                });
            } else {
                out.prop = Some(PropRule::StoreImm { addr, len });
            }
            out
        })
        .collect()
}

/// The contract scan: ranges any event may touch are bounded, so no leg
/// can be dragged through a gigabyte-scale walk by a mangled input.
fn out_of_contract(trace: &[Event]) -> Option<&'static str> {
    for ev in trace {
        if let Some(LatchInstr::Stnt { len, .. }) = ev.latch {
            if len > MAX_EVENT_RANGE {
                return Some("stnt length over contract bound");
            }
        }
        if ev.mem.is_some_and(|m| m.len > MAX_EVENT_RANGE)
            || ev.source.is_some_and(|s| s.len > MAX_EVENT_RANGE)
            || ev.sink.is_some_and(|s| s.len > MAX_EVENT_RANGE)
        {
            return Some("event range over contract bound");
        }
    }
    None
}

type TaintedBytes = Vec<(Addr, TaintTag)>;

fn tainted_set(dift: &DiftEngine) -> TaintedBytes {
    let mut v: TaintedBytes = dift.shadow().iter_tainted().collect();
    v.sort_unstable();
    v
}

fn oracle_set(oracle: &OracleResult) -> TaintedBytes {
    oracle.mem.iter().map(|(&a, &t)| (a, t)).collect()
}

fn compare_precise(
    leg: &'static str,
    dift: &DiftEngine,
    oracle: &OracleResult,
) -> Result<(), Box<Divergence>> {
    let got = tainted_set(dift);
    let want = oracle_set(oracle);
    if got != want {
        let got_set: BTreeSet<_> = got.iter().collect();
        let want_set: BTreeSet<_> = want.iter().collect();
        return Err(Box::new(Divergence::TaintMap {
            leg,
            missing: want_set.difference(&got_set).count(),
            extra: got_set.difference(&want_set).count(),
        }));
    }
    for r in 0..16 {
        if dift.regs().get(r) != oracle.regs[r] {
            return Err(Box::new(Divergence::RegTags { leg, reg: r }));
        }
    }
    Ok(())
}

fn compare_violations(
    leg: &'static str,
    got: &[SecurityViolation],
    oracle: &OracleResult,
) -> Result<(), Box<Divergence>> {
    if got != oracle.violations.as_slice() {
        return Err(Box::new(Divergence::Violations {
            leg,
            expected: oracle.violations.len(),
            got: got.len(),
        }));
    }
    Ok(())
}

/// Coarse-superset check over every page the trace touched.
fn check_superset<V: PreciseView>(
    leg: &'static str,
    unit: &LatchUnit,
    view: &V,
    pages: &BTreeSet<u32>,
    at_event: usize,
) -> Result<(), Box<Divergence>> {
    for &page in pages {
        let start = page.saturating_mul(PAGE_SIZE);
        if !unit.coarse_covers_precise(view, start, PAGE_SIZE) {
            return Err(Box::new(Divergence::CoarseSuperset { leg, at_event, page }));
        }
    }
    Ok(())
}

/// Adapter: a `DiftEngine`'s shadow as a `PreciseView`.
struct ShadowView<'a>(&'a DiftEngine);

impl PreciseView for ShadowView<'_> {
    fn any_tainted(&self, start: Addr, len: u32) -> bool {
        self.0.shadow().any_tainted(start, len)
    }
}

fn degrade_cfg() -> ResilienceConfig {
    // Degrade recovery keeps drop-bearing reports byte-identical (see
    // PR 1's fault oracle); Restart cutover is timing-sensitive.
    ResilienceConfig { recovery: RecoveryPolicy::Degrade, ..ResilienceConfig::default() }
}

/// Replays `events` through a fresh baseline engine, returning the
/// engine and its violations.
fn baseline(events: &[Event]) -> (DiftEngine, Vec<SecurityViolation>) {
    let mut dift = DiftEngine::new();
    let mut violations = Vec::new();
    for ev in events {
        let step = apply_event_dift(&mut dift, ev);
        if let Some(v) = step.violation {
            violations.push(v);
        }
    }
    (dift, violations)
}

/// Runs the full differential check for one program.
///
/// # Errors
///
/// Returns the first [`Divergence`] found (boxed: the variants carry
/// context and the happy path should stay cheap).
pub fn check(prog: &TestProgram, opts: &CheckOptions) -> Result<Verdict, Box<Divergence>> {
    let trace = materialize(prog);
    if let Some(reason) = out_of_contract(&trace) {
        return Ok(Verdict {
            trace_len: trace.len(),
            tainted_bytes: 0,
            violations: 0,
            skipped: Some(reason),
        });
    }

    let policy = TaintPolicy::default();
    let golden = oracle::run(&trace, &policy);
    let desugared = desugar(&trace);
    let ckpt = opts.checkpoint_every.max(1);

    // ---- leg 1: baseline precise DIFT --------------------------------
    let (dift, violations) = baseline(&desugared);
    compare_precise("baseline", &dift, &golden)?;
    compare_violations("baseline", &violations, &golden)?;

    // ---- leg 2: the mirror unit (and the injection point) ------------
    {
        let params = LatchConfig::s_latch().build().expect("default s-latch params");
        let mut unit = LatchUnit::new(params);
        let mut dift = DiftEngine::new();
        let mut violations = Vec::new();
        let mut injected = !opts.inject_coarse_clear;
        for (i, ev) in desugared.iter().enumerate() {
            let step = apply_event_dift(&mut dift, ev);
            if let Some(v) = step.violation {
                violations.push(v);
            }
            if let Some((addr, len, tainted)) = step.mem_taint_write {
                if !injected && tainted {
                    injected = true; // drop exactly one coarse set: the bug
                } else {
                    unit.write_taint(addr, len, tainted);
                }
            }
            if (i + 1) % ckpt == 0 {
                check_superset("mirror", &unit, &ShadowView(&dift), &golden.touched_pages, i)?;
            }
        }
        check_superset("mirror", &unit, &ShadowView(&dift), &golden.touched_pages, desugared.len())?;
        compare_precise("mirror", &dift, &golden)?;
        compare_violations("mirror", &violations, &golden)?;
    }

    // ---- leg 3: S-LATCH, native re-execution -------------------------
    {
        let mut s = SLatch::for_profile(
            &BenchmarkProfile::by_name("gcc").expect("gcc profile exists"),
        );
        let mut cpu = prog.cpu();
        let mut budget = 0u64;
        while budget < TRACE_BUDGET {
            budget = (budget + ckpt as u64).min(TRACE_BUDGET);
            if s.run_cpu(&mut cpu, budget).is_err() {
                break; // same truncation as materialize()
            }
            check_superset(
                "s-latch",
                s.latch(),
                &ShadowView(s.dift()),
                &golden.touched_pages,
                cpu.icount() as usize,
            )?;
            if cpu.halted() || cpu.icount() < budget {
                break;
            }
        }
        if cpu.icount() != trace.len() as u64 {
            return Err(Box::new(Divergence::TraceMismatch {
                expected: trace.len() as u64,
                got: cpu.icount(),
            }));
        }
        compare_precise("s-latch", s.dift(), &golden)?;
        let got = s.report().violations;
        if got != golden.violations.len() as u64 {
            return Err(Box::new(Divergence::Violations {
                leg: "s-latch",
                expected: golden.violations.len(),
                got: got as usize,
            }));
        }
    }

    // ---- leg 4: H-LATCH over the desugared trace ---------------------
    {
        let mut h = HLatch::new();
        for (i, ev) in desugared.iter().enumerate() {
            h.on_event(ev);
            if (i + 1) % ckpt == 0 {
                check_superset("h-latch", h.latch(), &ShadowView(h.dift()), &golden.touched_pages, i)?;
            }
        }
        check_superset("h-latch", h.latch(), &ShadowView(h.dift()), &golden.touched_pages, desugared.len())?;
        compare_precise("h-latch", h.dift(), &golden)?;
        let got = h.report().violations;
        if got != golden.violations.len() as u64 {
            return Err(Box::new(Divergence::Violations {
                leg: "h-latch",
                expected: golden.violations.len(),
                got: got as usize,
            }));
        }
    }

    // ---- leg 5: P-LATCH, benign and drop-bearing plans ---------------
    {
        let (outcome, engine) =
            run_resilient(desugared.clone(), 256, true, FaultPlan::benign(), degrade_cfg());
        compare_precise("p-latch/benign", &engine, &golden)?;
        compare_violations("p-latch/benign", &outcome.report.violations, &golden)?;

        let plan = FaultPlan::new(opts.fault_seed).with_queue_faults(30, 15, 10);
        let (outcome, engine) = run_resilient(desugared.clone(), 64, true, plan, degrade_cfg());
        compare_precise("p-latch/faulty", &engine, &golden)?;
        compare_violations("p-latch/faulty", &outcome.report.violations, &golden)?;
    }

    // ---- leg 6: latch-serve, interleaved multi-session scheduler -----
    if !desugared.is_empty() {
        const SESSIONS: u64 = 3;
        const CHUNK: usize = 48;
        let cfg = ServeConfig {
            workers: 2,
            max_resident: 2, // fewer residents than sessions: force evict/restore
            seed: opts.fault_seed,
            ..ServeConfig::default()
        };
        let mut svc = Service::deterministic(cfg, FaultPlan::benign());
        let mut lo = 0usize;
        while lo < desugared.len() {
            let hi = (lo + CHUNK).min(desugared.len());
            for s in 0..SESSIONS {
                svc.submit(s, &desugared[lo..hi])
                    .expect("queues are sized above one round's burst");
            }
            svc.pump();
            lo = hi;
        }
        let out = svc.finish();
        for s in 0..SESSIONS {
            let pipe = &out.pipelines[&s];
            compare_precise("serve", pipe.engine(), &golden)?;
            let violations: Vec<SecurityViolation> =
                pipe.violations().iter().map(|(_, v)| v.clone()).collect();
            compare_violations("serve", &violations, &golden)?;
        }
    }

    // ---- leg 7: durable serve, kill + journal/snapshot recovery ------
    if !desugared.is_empty() {
        const SESSIONS: u64 = 2;
        const CHUNK: usize = 48;
        let cfg = ServeConfig {
            workers: 2,
            max_resident: 2,
            seed: opts.fault_seed,
            ..ServeConfig::default()
        };
        let dcfg = DurableConfig {
            group_commit_events: 48,
            snapshot_every: 160,
        };
        // Disk faults only: the scheduler itself stays benign, so any
        // divergence is the durability layer's fault.
        let plan = FaultPlan::new(opts.fault_seed ^ 0x1D5C).with_disk_faults(250, 100, 100, 200);
        let mut svc = DurableService::new(cfg, dcfg, plan, MemStorage::new(plan));
        let mut lo = 0usize;
        while lo < desugared.len() {
            let hi = (lo + CHUNK).min(desugared.len());
            for s in 0..SESSIONS {
                svc.submit(s, &desugared[lo..hi])
                    .expect("queues are sized above one round's burst");
            }
            svc.pump();
            lo = hi;
        }

        // Kill at a seeded storage-op boundary, recover from the torn
        // image, then re-submit each session's lost suffix.
        let storage = svc.crash();
        let crash_op = {
            let mut x = opts.fault_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (x ^ (x >> 31)) as usize % (storage.ops_len() + 1)
        };
        let image = storage.crash_image(crash_op);
        let (mut svc, recovery) = DurableService::recover(cfg, dcfg, plan, image);
        for s in 0..SESSIONS {
            let recovered = recovery
                .sessions
                .get(&s)
                .map_or(0, |r| r.recovered) as usize;
            // An over-long "recovery" would replay events the oracle
            // never saw — the taint-map compare below catches it.
            let mut lo = recovered.min(desugared.len());
            while lo < desugared.len() {
                let hi = (lo + CHUNK).min(desugared.len());
                svc.submit(s, &desugared[lo..hi])
                    .expect("queues are sized above one round's burst");
                svc.pump();
                lo = hi;
            }
        }
        let (out, _storage) = svc.finish();
        for s in 0..SESSIONS {
            let pipe = &out.pipelines[&s];
            compare_precise("durable-serve", pipe.engine(), &golden)?;
            let violations: Vec<SecurityViolation> =
                pipe.violations().iter().map(|(_, v)| v.clone()).collect();
            compare_violations("durable-serve", &violations, &golden)?;
        }
    }

    // ---- leg 8: overload-serve — shed, degrade, fail over ------------
    // Three sessions at three priorities feed the same trace through
    // replicated ingress fronts while the fault plan injects bursts,
    // slow clients, feed stalls, and feed deaths, and the armed SLO
    // sheds and demotes under the resulting pressure. The contracts:
    // every deterministic artifact (shed set, SLO report stream,
    // failover history) is byte-identical across reruns; every session
    // ends byte-identical to a solo run of its *admitted* (non-shed)
    // stream; and the coarse state still covers precise taint — zero
    // false negatives even through coarse-only degraded spans.
    if !desugared.is_empty() {
        const CHUNK: usize = 32;
        const PRIOS: [(u64, Priority); 3] = [
            (0, Priority::Critical),
            (1, Priority::Normal),
            (2, Priority::Bulk),
        ];
        let cfg = ServeConfig {
            workers: 1,
            queue_events: 512,
            batch_max: 32,
            max_resident: 2,
            seed: opts.fault_seed,
            slo: Slo {
                slo_cycles: 2,
                window: 32,
                report_every: 4,
                demote_after: 1,
                promote_after: 2,
                max_degraded: 2,
                queue_pressure_pct: 50,
            },
            ..ServeConfig::default()
        };
        let plan = FaultPlan::new(opts.fault_seed ^ 0x0B5E)
            .with_overload(180, 4, 150)
            .with_feed_faults(150, 4, 120);
        struct OverloadRun {
            admitted: Vec<Vec<Event>>,
            sheds: Vec<(u64, u8, u8)>,
            slo_bytes: Vec<u8>,
            failovers: Vec<Vec<FailoverRecord>>,
            out: ServiceOutcome,
        }
        let overload = |leg: &'static str, what: &'static str| {
            Box::new(Divergence::Overload { leg, what })
        };
        let run = || -> Result<OverloadRun, Box<Divergence>> {
            let mut svc = Service::deterministic(cfg, plan);
            let mut inj = FaultInjector::new(plan);
            let mut feeds: Vec<MultiIngress> = PRIOS
                .iter()
                .map(|&(s, _)| MultiIngress::new(s, desugared.clone(), 1))
                .collect();
            let mut admitted = vec![Vec::new(); PRIOS.len()];
            let mut sheds = Vec::new();
            let mut round = 0u64;
            while feeds.iter().any(|f| !f.drained()) {
                if round > 1_000_000 {
                    return Err(overload("overload-serve", "drive failed to make progress"));
                }
                let factor = inj.burst_factor_at(round).unwrap_or(1) as usize;
                let slow = inj.slow_client_at(round);
                for (i, &(s, prio)) in PRIOS.iter().enumerate() {
                    if slow && prio != Priority::Critical {
                        continue; // slow clients sit a round out; critical traffic keeps flowing
                    }
                    let batch = feeds[i].poll(&mut inj, CHUNK * factor).to_vec();
                    if batch.is_empty() {
                        continue; // stalled, failing over, or drained
                    }
                    match svc.submit_with_priority(s, &batch, prio) {
                        Ok(()) => {
                            admitted[i].extend_from_slice(&batch);
                            feeds[i].ack(batch.len());
                        }
                        Err(Rejected::Shed { priority, pressure, .. }) => {
                            sheds.push((s, priority.rank(), pressure));
                            feeds[i].ack(batch.len()); // shed events are dropped on purpose
                        }
                        Err(Rejected::QueueFull { .. } | Rejected::SessionBusy { .. }) => {
                            svc.pump(); // unacked: the same peek returns next round
                        }
                        Err(Rejected::ShuttingDown) => unreachable!("not draining"),
                        Err(Rejected::BatchTooLarge { .. }) => {
                            unreachable!("chunks are far below the journal cap")
                        }
                    }
                }
                svc.pump();
                round += 1;
            }
            let out = svc.finish();
            let slo_bytes = out.slo_reports.iter().flat_map(SloReport::encode).collect();
            let failovers = feeds.into_iter().map(|f| f.into_report().failovers).collect();
            Ok(OverloadRun { admitted, sheds, slo_bytes, failovers, out })
        };

        let a = run()?;
        let b = run()?;
        if a.sheds != b.sheds {
            return Err(overload("overload-serve", "shed set changed between reruns"));
        }
        if a.slo_bytes != b.slo_bytes {
            return Err(overload("overload-serve", "SLO report stream changed between reruns"));
        }
        if a.failovers != b.failovers {
            return Err(overload("overload-serve", "failover history changed between reruns"));
        }
        for (i, &(s, prio)) in PRIOS.iter().enumerate() {
            if prio == Priority::Critical && a.admitted[i].len() != desugared.len() {
                return Err(overload("overload-serve", "critical traffic was shed"));
            }
            let Some(pipe) = a.out.pipelines.get(&s) else {
                // Every submission was shed before the first admission,
                // so the session never got a slot. Nothing to compare —
                // but then nothing may have been admitted either.
                if a.admitted[i].is_empty() {
                    continue;
                }
                return Err(overload("overload-serve", "admitted events but no pipeline"));
            };
            // Zero false negatives, even through coarse-only spans.
            check_superset(
                "overload-serve",
                pipe.latch(),
                &ShadowView(pipe.engine()),
                &golden.touched_pages,
                desugared.len(),
            )?;
            // The admitted (non-shed) stream must reproduce exactly.
            let mut solo = SessionPipeline::new(cfg.scrub_interval);
            for ev in &a.admitted[i] {
                solo.apply(ev);
            }
            if a.out.sessions[&s].encode() != solo.report().encode() {
                return Err(overload(
                    "overload-serve",
                    "session report diverged from a solo run of its admitted stream",
                ));
            }
        }
    }

    // ---- leg 9: wire-serve — the network front door ------------------
    // The same desugared trace crosses a real TCP loopback socket:
    // latch-client speaks the framed protocol into a [`WireServer`]
    // over a durable (in-memory) service. A single connection drives
    // three sessions round-robin — one reader thread, deterministic
    // admission order — and after a wire drain every session's report
    // bytes must equal a solo pipeline run of the trace. Any transport
    // or framing fault is a divergence, not a panic.
    if !desugared.is_empty() {
        const CHUNK: usize = 48;
        const WIRE_SESSIONS: usize = 3;
        let wire = |what: &'static str| {
            Box::new(Divergence::Overload {
                leg: "wire-serve",
                what,
            })
        };
        let cfg = ServeConfig {
            workers: 2,
            max_resident: 2,
            seed: opts.fault_seed,
            ..ServeConfig::default()
        };
        let scrub = cfg.scrub_interval;
        let (svc, _recovery) = DurableService::recover(
            cfg,
            DurableConfig::default(),
            FaultPlan::benign(),
            MemStorage::new(FaultPlan::benign()),
        );
        let endpoint = Endpoint::parse("tcp:127.0.0.1:0").expect("literal endpoint");
        let server = WireServer::start(&endpoint, svc, WireConfig::default())
            .map_err(|_| wire("bind failed"))?;
        let mut client = Client::connect(server.endpoint(), 256, false)
            .map_err(|_| wire("connect failed"))?;
        let mut pos = [0usize; WIRE_SESSIONS];
        let mut rounds = 0u64;
        while pos.iter().any(|&p| p < desugared.len()) {
            if rounds > 1_000_000 {
                return Err(wire("drive failed to make progress"));
            }
            for (s, p) in pos.iter_mut().enumerate() {
                if *p >= desugared.len() {
                    continue;
                }
                let take = CHUNK.min(desugared.len() - *p);
                let batch = &desugared[*p..*p + take];
                match client.submit(s as u64, (s % 3) as u8, batch) {
                    Ok(()) => *p += take,
                    // Benign plan, SLO off: only backpressure can
                    // reject; the same chunk retries next round.
                    Err(ClientError::Rejected(_)) => {}
                    Err(_) => return Err(wire("transport failed mid-drive")),
                }
            }
            rounds += 1;
        }
        let reports = client.drain().map_err(|_| wire("drain failed"))?;
        server.shutdown();
        if reports.len() != WIRE_SESSIONS {
            return Err(wire("session count diverged across the wire"));
        }
        let mut solo = SessionPipeline::new(scrub);
        for ev in &desugared {
            solo.apply(ev);
        }
        let want = solo.report().encode();
        for (_session, bytes) in &reports {
            if *bytes != want {
                return Err(wire("session report diverged across the wire"));
            }
        }
    }

    // ---- leg 10: cluster-serve — router failover over two nodes ------
    // The same desugared trace crosses the consistent-hash router into
    // two real wire servers, and a seeded fault plan kills one node at
    // a round boundary mid-drive (or, on a cold seed, right before the
    // drain — the migration path must run either way). The victim's
    // sessions fail over: their durable state is exported from the
    // dead node's surviving storage, staged on the survivor as
    // `MigrateChunk` frames, committed by one `MigrateSession`, and
    // imported there. The contracts: after the
    // drain, every session's report is byte-identical to a solo
    // pipeline run of the full trace (failover lost nothing, doubled
    // nothing), and a rerun with the same seed reproduces both the
    // reports and the migration history exactly.
    if !desugared.is_empty() {
        const CHUNK: usize = 48;
        const CLUSTER_SESSIONS: usize = 4;
        let cluster = |what: &'static str| {
            Box::new(Divergence::Overload {
                leg: "cluster-serve",
                what,
            })
        };
        let node_cfg = ServeConfig {
            workers: 1,
            max_resident: 2,
            seed: opts.fault_seed,
            ..ServeConfig::default()
        };
        let scrub = node_cfg.scrub_interval;
        type ClusterRun = (
            Vec<(u64, Vec<u8>)>,
            Vec<latch_router::MigrationRecord>,
        );
        let run = || -> Result<ClusterRun, Box<Divergence>> {
            let mut servers: Vec<Option<WireServer<MemStorage>>> = (0..2)
                .map(|id| {
                    let (svc, _recovery) = DurableService::recover(
                        ServeConfig {
                            seed: opts.fault_seed.wrapping_add(id),
                            ..node_cfg
                        },
                        DurableConfig::default(),
                        FaultPlan::benign(),
                        MemStorage::new(FaultPlan::benign()),
                    );
                    let endpoint = Endpoint::parse("tcp:127.0.0.1:0").expect("literal endpoint");
                    WireServer::start(&endpoint, svc, WireConfig::default()).map(Some)
                })
                .collect::<Result<_, _>>()
                .map_err(|_| cluster("bind failed"))?;
            let mut router = Router::new(RouterConfig {
                seed: opts.fault_seed,
                vnodes: 32,
                miss_budget: 2,
                window_events: 256,
                router_id: opts.fault_seed,
                ..RouterConfig::default()
            });
            for (id, srv) in servers.iter().enumerate() {
                router.add_node(id as u32, srv.as_ref().expect("fresh").endpoint().clone());
            }
            let victim = router.owner_of(0).ok_or_else(|| cluster("empty ring"))?;
            let mut inj = FaultInjector::new(
                FaultPlan::new(opts.fault_seed ^ 0x00C1).with_node_kills(25, 1),
            );
            let kill = |servers: &mut Vec<Option<WireServer<MemStorage>>>,
                            router: &mut Router|
             -> Result<(), Box<Divergence>> {
                let svc = servers[victim as usize]
                    .take()
                    .expect("victim still up")
                    .kill()
                    .ok_or_else(|| cluster("victim was already drained"))?;
                let mut storage = svc.crash();
                let exports = export_sessions(&mut storage);
                router
                    .fail_over(victim, exports)
                    .map_err(|_| cluster("failover failed"))?;
                Ok(())
            };
            let mut pos = [0usize; CLUSTER_SESSIONS];
            let mut rounds = 0u64;
            while pos.iter().any(|&p| p < desugared.len()) {
                if rounds > 1_000_000 {
                    return Err(cluster("drive failed to make progress"));
                }
                if servers[victim as usize].is_some() && inj.node_killed_at(victim, rounds) {
                    kill(&mut servers, &mut router)?;
                }
                for (s, p) in pos.iter_mut().enumerate() {
                    if *p >= desugared.len() {
                        continue;
                    }
                    let take = CHUNK.min(desugared.len() - *p);
                    match router.submit(s as u64, (s % 3) as u8, &desugared[*p..*p + take]) {
                        Ok(()) => *p += take,
                        // Benign plan, SLO off: only backpressure can
                        // reject; the same chunk retries next round.
                        Err(RouterError::Rejected(_)) => {}
                        Err(_) => return Err(cluster("transport failed mid-drive")),
                    }
                }
                rounds += 1;
            }
            // A cold seed must still exercise the failover machinery.
            if servers[victim as usize].is_some() {
                kill(&mut servers, &mut router)?;
            }
            let reports = router.drain().map_err(|_| cluster("drain failed"))?;
            let history = router.migration_history().to_vec();
            for srv in servers.into_iter().flatten() {
                srv.shutdown();
            }
            Ok((reports, history))
        };
        let (reports_a, history_a) = run()?;
        let (reports_b, history_b) = run()?;
        if history_a != history_b {
            return Err(cluster("migration history changed between reruns"));
        }
        if reports_a != reports_b {
            return Err(cluster("session reports changed between reruns"));
        }
        if reports_a.len() != CLUSTER_SESSIONS {
            return Err(cluster("session count diverged across the cluster"));
        }
        let mut solo = SessionPipeline::new(scrub);
        for ev in &desugared {
            solo.apply(ev);
        }
        let want = solo.report().encode();
        for (_session, bytes) in &reports_a {
            if *bytes != want {
                return Err(cluster("session report diverged after failover"));
            }
        }
    }

    // ---- leg 11: replica-serve — diskless failover over three nodes --
    // The same trace crosses the router into three wire servers with
    // 2-of-3 synchronous replication, and the seeded kill destroys the
    // victim's storage *outright* — the exporter has nothing, so every
    // migrated session must be sourced from a backup journal. The
    // contracts: the drain is byte-identical to the solo pipeline (and
    // therefore to the storage-surviving leg 10), no session is
    // poisoned as acked-lost, and a rerun reproduces the reports and
    // the migration history exactly.
    if !desugared.is_empty() {
        const CHUNK: usize = 48;
        const REPLICA_SESSIONS: usize = 4;
        let replica = |what: &'static str| {
            Box::new(Divergence::Overload {
                leg: "replica-serve",
                what,
            })
        };
        let node_cfg = ServeConfig {
            workers: 1,
            max_resident: 2,
            seed: opts.fault_seed,
            ..ServeConfig::default()
        };
        let scrub = node_cfg.scrub_interval;
        type ReplicaRun = (
            Vec<(u64, Vec<u8>)>,
            Vec<latch_router::MigrationRecord>,
        );
        let run = || -> Result<ReplicaRun, Box<Divergence>> {
            let mut servers: Vec<Option<WireServer<MemStorage>>> = (0..3)
                .map(|id| {
                    let (svc, _recovery) = DurableService::recover(
                        ServeConfig {
                            seed: opts.fault_seed.wrapping_add(id),
                            ..node_cfg
                        },
                        DurableConfig::default(),
                        FaultPlan::benign(),
                        MemStorage::new(FaultPlan::benign()),
                    );
                    let endpoint = Endpoint::parse("tcp:127.0.0.1:0").expect("literal endpoint");
                    WireServer::start(&endpoint, svc, WireConfig::default()).map(Some)
                })
                .collect::<Result<_, _>>()
                .map_err(|_| replica("bind failed"))?;
            let mut router = Router::new(RouterConfig {
                seed: opts.fault_seed,
                vnodes: 32,
                miss_budget: 2,
                window_events: 256,
                router_id: opts.fault_seed,
                replicas: 2,
                ..RouterConfig::default()
            });
            for (id, srv) in servers.iter().enumerate() {
                router.add_node(id as u32, srv.as_ref().expect("fresh").endpoint().clone());
            }
            let victim = router.owner_of(0).ok_or_else(|| replica("empty ring"))?;
            let mut inj = FaultInjector::new(
                FaultPlan::new(opts.fault_seed ^ 0x00C2).with_node_kills(25, 1),
            );
            let kill = |servers: &mut Vec<Option<WireServer<MemStorage>>>,
                            router: &mut Router|
             -> Result<(), Box<Divergence>> {
                let svc = servers[victim as usize]
                    .take()
                    .expect("victim still up")
                    .kill()
                    .ok_or_else(|| replica("victim was already drained"))?;
                // Total machine loss: the storage dies with the node,
                // so the failover runs with an empty export and must
                // restore every session from its backup journals.
                drop(svc.crash());
                router
                    .fail_over(victim, Vec::new())
                    .map_err(|_| replica("diskless failover failed"))?;
                Ok(())
            };
            let mut pos = [0usize; REPLICA_SESSIONS];
            let mut rounds = 0u64;
            while pos.iter().any(|&p| p < desugared.len()) {
                if rounds > 1_000_000 {
                    return Err(replica("drive failed to make progress"));
                }
                if servers[victim as usize].is_some() && inj.node_killed_at(victim, rounds) {
                    kill(&mut servers, &mut router)?;
                }
                for (s, p) in pos.iter_mut().enumerate() {
                    if *p >= desugared.len() {
                        continue;
                    }
                    let take = CHUNK.min(desugared.len() - *p);
                    match router.submit(s as u64, (s % 3) as u8, &desugared[*p..*p + take]) {
                        Ok(()) => *p += take,
                        Err(RouterError::Rejected(_)) => {}
                        Err(_) => return Err(replica("transport failed mid-drive")),
                    }
                }
                rounds += 1;
            }
            // A cold seed must still exercise the diskless path.
            if servers[victim as usize].is_some() {
                kill(&mut servers, &mut router)?;
            }
            if !router.lost_sessions().is_empty() {
                return Err(replica("a replicated session was acked-lost"));
            }
            let reports = router.drain().map_err(|_| replica("drain failed"))?;
            let history = router.migration_history().to_vec();
            for srv in servers.into_iter().flatten() {
                srv.shutdown();
            }
            Ok((reports, history))
        };
        let (reports_a, history_a) = run()?;
        let (reports_b, history_b) = run()?;
        if history_a != history_b {
            return Err(replica("migration history changed between reruns"));
        }
        if reports_a != reports_b {
            return Err(replica("session reports changed between reruns"));
        }
        if reports_a.len() != REPLICA_SESSIONS {
            return Err(replica("session count diverged across the cluster"));
        }
        let mut solo = SessionPipeline::new(scrub);
        for ev in &desugared {
            solo.apply(ev);
        }
        let want = solo.report().encode();
        for (_session, bytes) in &reports_a {
            if *bytes != want {
                return Err(replica("session report diverged after diskless failover"));
            }
        }
    }

    // ---- leg 12: ha-serve — standby router takeover ------------------
    // Two routers over three replicated nodes. The primary drives every
    // session to a fixed cut and is killed; odd fault seeds destroy one
    // node's machine in the same blast, so the standby's epoch-fenced
    // takeover must also restore that node's sessions from surviving
    // replica journals. The contracts: the takeover rebuilds routes and
    // cursors from node surveys, every session finishes through the
    // standby byte-identical to the solo pipeline, no session is
    // acked-lost, and a rerun reproduces the reports, the takeover
    // record, and the migration history exactly.
    if !desugared.is_empty() {
        const CHUNK: usize = 48;
        const HA_SESSIONS: usize = 4;
        let ha = |what: &'static str| {
            Box::new(Divergence::Overload {
                leg: "ha-serve",
                what,
            })
        };
        let node_cfg = ServeConfig {
            workers: 1,
            max_resident: 2,
            seed: opts.fault_seed,
            ..ServeConfig::default()
        };
        let scrub = node_cfg.scrub_interval;
        let coincident_node_kill = opts.fault_seed % 2 == 1;
        type HaRun = (
            Vec<(u64, Vec<u8>)>,
            latch_router::TakeoverRecord,
            Vec<latch_router::MigrationRecord>,
        );
        let run = || -> Result<HaRun, Box<Divergence>> {
            let mut servers: Vec<Option<WireServer<MemStorage>>> = (0..3)
                .map(|id| {
                    let (svc, _recovery) = DurableService::recover(
                        ServeConfig {
                            seed: opts.fault_seed.wrapping_add(id),
                            ..node_cfg
                        },
                        DurableConfig::default(),
                        FaultPlan::benign(),
                        MemStorage::new(FaultPlan::benign()),
                    );
                    let endpoint = Endpoint::parse("tcp:127.0.0.1:0").expect("literal endpoint");
                    WireServer::start(&endpoint, svc, WireConfig::default()).map(Some)
                })
                .collect::<Result<_, _>>()
                .map_err(|_| ha("bind failed"))?;
            let router_cfg = |router_id: u64| RouterConfig {
                seed: opts.fault_seed,
                vnodes: 32,
                miss_budget: 2,
                window_events: 256,
                router_id,
                replicas: 2,
                ..RouterConfig::default()
            };
            let mut old = Router::new(router_cfg(opts.fault_seed));
            let mut new = Router::new(router_cfg(opts.fault_seed ^ 1));
            for (id, srv) in servers.iter().enumerate() {
                let ep = srv.as_ref().expect("fresh").endpoint().clone();
                old.add_node(id as u32, ep.clone());
                new.add_node(id as u32, ep);
            }
            // The primary drives every session exactly halfway, so the
            // cut point — and with it the surveys the standby rebuilds
            // from — is a pure function of the seed.
            let half = desugared.len() / 2;
            let mut pos = [0usize; HA_SESSIONS];
            let mut rounds = 0u64;
            while pos.iter().any(|&p| p < half) {
                if rounds > 1_000_000 {
                    return Err(ha("primary drive failed to make progress"));
                }
                for (s, p) in pos.iter_mut().enumerate() {
                    if *p >= half {
                        continue;
                    }
                    let take = CHUNK.min(half - *p);
                    match old.submit(s as u64, (s % 3) as u8, &desugared[*p..*p + take]) {
                        Ok(()) => *p += take,
                        Err(RouterError::Rejected(_)) => {}
                        Err(_) => return Err(ha("transport failed mid-drive")),
                    }
                }
                rounds += 1;
            }
            // The blast: the primary router dies; odd seeds take one
            // node's machine (storage destroyed outright) with it.
            if coincident_node_kill {
                let victim = old.owner_of(0).ok_or_else(|| ha("empty ring"))?;
                let svc = servers[victim as usize]
                    .take()
                    .expect("victim still up")
                    .kill()
                    .ok_or_else(|| ha("victim was already drained"))?;
                drop(svc.crash());
            }
            drop(old);
            let rec = new.takeover().map_err(|_| ha("standby takeover failed"))?;
            if !new.lost_sessions().is_empty() {
                return Err(ha("takeover lost acked state"));
            }
            while pos.iter().any(|&p| p < desugared.len()) {
                if rounds > 1_000_000 {
                    return Err(ha("standby drive failed to make progress"));
                }
                for (s, p) in pos.iter_mut().enumerate() {
                    if *p >= desugared.len() {
                        continue;
                    }
                    let take = CHUNK.min(desugared.len() - *p);
                    match new.submit(s as u64, (s % 3) as u8, &desugared[*p..*p + take]) {
                        Ok(()) => *p += take,
                        Err(RouterError::Rejected(_)) => {}
                        Err(_) => return Err(ha("transport failed after takeover")),
                    }
                }
                rounds += 1;
            }
            let reports = new.drain().map_err(|_| ha("drain via standby failed"))?;
            let history = new.migration_history().to_vec();
            for srv in servers.into_iter().flatten() {
                srv.shutdown();
            }
            Ok((reports, rec, history))
        };
        let (reports_a, rec_a, history_a) = run()?;
        let (reports_b, rec_b, history_b) = run()?;
        if rec_a != rec_b {
            return Err(ha("takeover record changed between reruns"));
        }
        if history_a != history_b {
            return Err(ha("migration history changed between reruns"));
        }
        if reports_a != reports_b {
            return Err(ha("session reports changed between reruns"));
        }
        if reports_a.len() != HA_SESSIONS {
            return Err(ha("session count diverged across the takeover"));
        }
        if coincident_node_kill && rec_a.dead.is_empty() {
            return Err(ha("coincident node death went undetected"));
        }
        let mut solo = SessionPipeline::new(scrub);
        for ev in &desugared {
            solo.apply(ev);
        }
        let want = solo.report().encode();
        for (_session, bytes) in &reports_a {
            if *bytes != want {
                return Err(ha("session report diverged across the takeover"));
            }
        }
    }

    // ---- metamorphic legs --------------------------------------------
    if opts.metamorphic && !desugared.is_empty() {
        let mut rng = SmallRng::seed_from_u64(opts.fault_seed ^ 0x4E0B);

        // (a) inserting untainted no-ops never changes the verdict.
        let mut padded = Vec::with_capacity(desugared.len() + desugared.len() / 8 + 1);
        for ev in &desugared {
            if rng.gen_bool(0.125) {
                padded.push(Event::empty(ev.pc));
            }
            padded.push(*ev);
        }
        run_metamorphic("nop-insertion", &padded, &golden)?;

        // (b) swapping adjacent taint-inert events (independent
        // untainted stores and friends) never changes the verdict.
        let mut swapped = desugared.clone();
        let mut i = 0;
        while i + 1 < swapped.len() {
            if golden.inert[i] && golden.inert[i + 1] && rng.gen_bool(0.5) {
                swapped.swap(i, i + 1);
                i += 2;
            } else {
                i += 1;
            }
        }
        run_metamorphic("inert-swap", &swapped, &golden)?;
    }

    Ok(Verdict {
        trace_len: trace.len(),
        tainted_bytes: golden.mem.len(),
        violations: golden.violations.len(),
        skipped: None,
    })
}

/// One metamorphic run: the mutated trace must reproduce the golden
/// verdict on the baseline, trace-driven S-LATCH, and H-LATCH legs.
fn run_metamorphic(
    transform: &'static str,
    mutated: &[Event],
    golden: &OracleResult,
) -> Result<(), Box<Divergence>> {
    let (dift, violations) = baseline(mutated);
    if tainted_set(&dift) != oracle_set(golden) || violations != golden.violations {
        return Err(Box::new(Divergence::Metamorphic { leg: transform }));
    }

    let mut s = SLatch::for_profile(&BenchmarkProfile::by_name("gcc").expect("gcc profile exists"));
    s.run(VecSource::new(mutated.to_vec()));
    if tainted_set(s.dift()) != oracle_set(golden)
        || s.report().violations != golden.violations.len() as u64
    {
        return Err(Box::new(Divergence::Metamorphic { leg: transform }));
    }

    let mut h = HLatch::new();
    for ev in mutated {
        h.on_event(ev);
    }
    if tainted_set(h.dift()) != oracle_set(golden)
        || h.report().violations != golden.violations.len() as u64
    {
        return Err(Box::new(Divergence::Metamorphic { leg: transform }));
    }
    Ok(())
}
