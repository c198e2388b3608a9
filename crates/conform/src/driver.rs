//! The differential driver: one program, twelve legs, one verdict.
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
//! 2. **Mirror unit**: a bare `LatchUnit` kept in sync from precise
//!    DIFT steps — the layer the injected coarse-clear bug targets.
//! 3. **S-LATCH** via `run_cpu`, re-executing the program with the real
//!    ISA-extension wiring, checkpointed for coarse-superset checks.
//! 4. **H-LATCH** over the desugared trace, checkpointed.
//! 5. **P-LATCH** `run_resilient` under a benign and a drop-bearing
//!    fault plan (Degrade recovery keeps reports deterministic).
//! 6. **serve**: three sessions fed the same desugared trace,
//!    interleaved chunk-by-chunk through the deterministic scheduler
//!    under eviction pressure; each drained pipeline's coarse tier,
//!    which gates its precise tier per event, is superset-checked.
//! 7. **durable-serve**: the same over a durable service with disk
//!    faults, killed at a seeded storage operation and recovered.
//! 8. **overload-serve**: three priorities under burst and slow-client
//!    plans with an armed SLO — deterministic sheds, solo-identical
//!    admitted streams, no false negatives.
//! 9. **wire-serve**: one `latchd` over a loopback socket.
//! 10. **cluster-serve**: the router over two nodes, a seeded node
//!     kill, and failover from the dead node's disk.
//! 11. **replica-serve**: 2-of-3 replication and a kill that destroys
//!     the disk, so failover runs on backup journals.
//! 12. **ha-serve**: a standby router's takeover after the primary
//!     dies (with a node, on odd seeds).
//!
//! Legs 1–7 must each reproduce the oracle's precise map, register
//! tags, and violation set, and the coarse state must cover the
//! precise state on every touched page at every checkpoint. Legs 8–12
//! must drain every session byte-identical to a solo pipeline run of
//! its admitted stream and repeat exactly on a rerun; their cluster
//! set-up is [`crate::fixture`]. Metamorphic runs then insert untainted
//! no-ops and swap adjacent taint-inert events and demand the verdict
//! does not move.

use crate::fixture::{self, solo_report, Failover, Nodes};
use crate::generate::TestProgram;
use crate::oracle::{self, OracleResult};
use latch_client::{Client, ClientError};
use latch_core::config::LatchConfig;
use latch_core::isa_ext::LatchInstr;
use latch_core::unit::LatchUnit;
use latch_core::{Addr, PreciseView, PAGE_SIZE};
use latch_dift::engine::DiftEngine;
use latch_dift::policy::{SecurityViolation, SourceKind, TaintPolicy};
use latch_dift::prop::PropRule;
use latch_dift::tag::TaintTag;
use latch_faults::FaultPlan;
use latch_serve::{DurableConfig, DurableService, MemStorage, ServeConfig, Service, Slo};
use latch_sim::event::{Event, MemAccess, MemAccessKind, SourceInput, VecSource};
use latch_sim::machine::apply_event_dift;
use latch_systems::hlatch::HLatch;
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
    /// A serving leg (8–12) broke a contract: a deterministic artifact
    /// (shed set, SLO report stream, migration history, takeover
    /// record) changed between identical reruns, a session's report
    /// diverged from a solo run of its admitted stream, a session was
    /// acked-lost, or the drive failed to make progress or lost its
    /// transport.
    Contract {
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
            Divergence::Contract { leg, what } => write!(f, "{leg}: {what}"),
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
            max_resident: 2, // fewer residents than sessions: force evict/restore
            ..ServeConfig::default()
        };
        let mut svc = Service::deterministic(cfg);
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
            check_superset(
                "serve",
                pipe.latch(),
                &ShadowView(pipe.engine()),
                &golden.touched_pages,
                desugared.len(),
            )?;
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
            max_resident: 2,
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

    // ---- leg 8: overload-serve — shed ---------------------------------
    // Three sessions at three priorities feed the same trace while the
    // fault plan injects bursts and slow clients, and the armed SLO
    // sheds under the resulting pressure. The contracts: the shed set
    // and the SLO report stream are byte-identical across reruns; every
    // session ends byte-identical to a solo run of its *admitted*
    // (non-shed) stream; and the coarse state still covers precise
    // taint — zero false negatives.
    if !desugared.is_empty() {
        let leg = contract("overload-serve");
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
        let plan = FaultPlan::new(opts.fault_seed ^ 0x0B5E).with_overload(180, 4, 150);
        let streams = vec![desugared.clone(); 3];
        let run = || fixture::overload_drive(cfg, plan, &streams, 32);
        let a = run().map_err(&leg)?;
        let b = run().map_err(&leg)?;
        if a.sheds != b.sheds {
            return Err(leg("shed set changed between reruns"));
        }
        if a.slo != b.slo {
            return Err(leg("SLO report stream changed between reruns"));
        }
        for (s, admitted) in a.admitted.iter().enumerate() {
            if s == 0 && admitted.len() != desugared.len() {
                return Err(leg("critical traffic was shed"));
            }
            let Some(pipe) = a.out.pipelines.get(&(s as u64)) else {
                // Every submission was shed before the first admission,
                // so the session never got a slot. Nothing to compare —
                // but then nothing may have been admitted either.
                if admitted.is_empty() {
                    continue;
                }
                return Err(leg("admitted events but no pipeline"));
            };
            // Zero false negatives.
            check_superset(
                "overload-serve",
                pipe.latch(),
                &ShadowView(pipe.engine()),
                &golden.touched_pages,
                desugared.len(),
            )?;
            if a.out.sessions[&(s as u64)].encode() != solo_report(admitted, cfg.scrub_interval) {
                return Err(leg(
                    "session report diverged from a solo run of its admitted stream",
                ));
            }
        }
    }

    // ---- legs 9–12: the wire front door and the cluster ---------------
    if !desugared.is_empty() {
        wire_leg(&desugared).map_err(contract("wire-serve"))?;
        failover_leg(&desugared, opts.fault_seed, &fixture::CLUSTER)
            .map_err(contract("cluster-serve"))?;
        failover_leg(&desugared, opts.fault_seed, &fixture::REPLICA)
            .map_err(contract("replica-serve"))?;
        ha_leg(&desugared, opts.fault_seed).map_err(contract("ha-serve"))?;
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

/// Wraps a broken contract of `leg` as a [`Divergence::Contract`].
fn contract(leg: &'static str) -> impl Fn(&'static str) -> Box<Divergence> {
    move |what| Box::new(Divergence::Contract { leg, what })
}

/// Every one of `sessions` drained reports equals a solo run of `trace`.
fn all_solo(
    reports: &[(u64, Vec<u8>)],
    sessions: usize,
    trace: &[Event],
    scrub: u64,
) -> Result<(), &'static str> {
    if reports.len() != sessions {
        return Err("session count diverged");
    }
    let want = solo_report(trace, scrub);
    if reports.iter().any(|(_, bytes)| *bytes != want) {
        return Err("session report diverged from a solo run");
    }
    Ok(())
}

/// The node configuration of the cluster legs: fewer residents than
/// sessions, so nodes evict and restore.
fn cluster_node() -> ServeConfig {
    ServeConfig {
        max_resident: 2,
        ..ServeConfig::default()
    }
}

/// Leg 9 (wire-serve): the trace crosses a real TCP loopback socket —
/// latch-client speaks the framed protocol into one `latchd` node over
/// a durable in-memory service. A single connection drives three
/// sessions round-robin (one reader thread, a deterministic admission
/// order), and after a wire drain every session's report must equal a
/// solo pipeline run. Any transport or framing fault is a divergence,
/// not a panic.
fn wire_leg(trace: &[Event]) -> Result<(), &'static str> {
    const SESSIONS: usize = 3;
    let cfg = ServeConfig {
        max_resident: 2,
        ..ServeConfig::default()
    };
    let node = Nodes::start(1, cfg).map_err(|_| "bind failed")?;
    let mut client =
        Client::connect(&node.endpoint(0), 256, false).map_err(|_| "connect failed")?;
    let mut pos = [0usize; SESSIONS];
    let mut rounds = 0u64;
    while pos.iter().any(|&p| p < trace.len()) {
        if rounds > 1_000_000 {
            return Err("drive failed to make progress");
        }
        for (s, p) in pos.iter_mut().enumerate() {
            let hi = trace.len().min(*p + 48);
            if *p >= hi {
                continue;
            }
            match client.submit(s as u64, (s % 3) as u8, &trace[*p..hi]) {
                Ok(()) => *p = hi,
                // Benign plan, SLO off: only backpressure can reject;
                // the same chunk retries next round.
                Err(ClientError::Rejected(_)) => {}
                Err(_) => return Err("transport failed mid-drive"),
            }
        }
        rounds += 1;
    }
    let reports = client.drain().map_err(|_| "drain failed")?;
    node.shutdown();
    all_solo(&reports, SESSIONS, trace, cfg.scrub_interval)
}

/// Legs 10 (cluster-serve, [`fixture::CLUSTER`]: failover from the
/// dead node's disk) and 11 (replica-serve, [`fixture::REPLICA`]:
/// failover from backup journals alone): the trace crosses the
/// consistent-hash router into real wire servers, and a seeded fault
/// plan kills session 0's owner at a round boundary mid-drive (or, on
/// a cold seed, right before the drain — the failover must run either
/// way). The contracts: no session is acked-lost, every session drains
/// byte-identical to a solo pipeline run (failover lost nothing,
/// doubled nothing), and a rerun reproduces the reports and the
/// migration history exactly.
fn failover_leg(trace: &[Event], seed: u64, leg: &Failover) -> Result<(), &'static str> {
    const SESSIONS: usize = 4;
    let streams = vec![trace.to_vec(); SESSIONS];
    let what = "session reports or migration history changed between reruns";
    let run = fixture::rerun(what, || {
        leg.run(&streams, cluster_node(), seed, None, |_, _, _| Ok(()))
    })?;
    all_solo(&run.reports, SESSIONS, trace, cluster_node().scrub_interval)
}

/// Leg 12 (ha-serve): two routers over three replicated nodes. The
/// primary drives every session to a fixed cut and is killed; odd
/// fault seeds destroy session 0's owner in the same blast, so the
/// standby's epoch-fenced takeover must also restore that node's
/// sessions from surviving replica journals. The contracts: the
/// takeover rebuilds routes and cursors from node surveys, finds
/// exactly the killed node dead, every session finishes through the
/// standby byte-identical to the solo pipeline, no session is
/// acked-lost, and a rerun reproduces the reports, the takeover record,
/// and the migration history exactly.
fn ha_leg(trace: &[Event], seed: u64) -> Result<(), &'static str> {
    const SESSIONS: usize = 4;
    let streams = vec![trace.to_vec(); SESSIONS];
    let what = "session reports, takeover record or migration history changed between reruns";
    let (run, _rec) = fixture::rerun(what, || {
        fixture::takeover(&streams, cluster_node(), seed, [seed, seed ^ 1], seed % 2 == 1)
    })?;
    all_solo(&run.reports, SESSIONS, trace, cluster_node().scrub_interval)
}
