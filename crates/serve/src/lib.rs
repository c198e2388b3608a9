//! # latch-serve
//!
//! An in-process taint-checking **service**: one worker pool
//! multiplexing many independent monitored sessions, each backed by its
//! own [`SessionPipeline`] (coarse LATCH screen + precise DIFT mirror).
//! Clients submit batches of events tagged with a session id; the
//! service guarantees per-session FIFO order, applies admission control
//! with typed backpressure ([`Rejected`]), coalesces queued events into
//! batches, steals work across workers, and evicts idle sessions to
//! snapshot blobs under memory pressure.
//!
//! [`Service::deterministic`] runs virtual workers driven by a seeded
//! round-robin cursor: no threads, no wall clock. [`Service::pump`]
//! applies everything queued and [`Service::finish`] drains. Per-session
//! results are byte-identical across runs and identical to running each
//! session alone through a [`SessionPipeline`] — the conformance oracle
//! for everything else. The durability layer, the `latchd` front door
//! and the cluster router all serve through this one engine.
//!
//! Fault tolerance: a [`FaultPlan`] with worker kills armed makes a
//! worker die partway through a batch. The service replays the batch
//! from the session's pre-batch checkpoint on a surviving worker —
//! no event loss, and final taint state byte-identical to an unfaulted
//! run.

mod sched;

pub mod durable;
pub mod ingress;
pub mod journal;
pub mod overload;
pub mod storage;
pub mod store;
pub mod wire;

pub use durable::{
    export_session_from, export_sessions, thaw_export, DurableConfig, DurableService,
    ImportError, RecoveryReport, SessionExport, SessionRecovery,
};
pub use ingress::{FailoverRecord, IngressReport, MultiIngress, INGRESS_PATHS};
pub use journal::RecoveryError;
pub use overload::{DegradedSpan, Priority, Slo, SloReport, SloSampler};
pub use storage::{DirStorage, MemStorage, Storage};
pub use wire::{WireConfig, WireServer};

use latch_faults::FaultPlan;
use latch_sim::event::Event;
use latch_systems::session::{SessionPipeline, SessionReport};
use sched::{process, Sched};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::time::Instant;

/// Tuning knobs for a service instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Virtual worker count.
    pub workers: usize,
    /// Global admission cap: total events queued across all sessions.
    pub queue_events: usize,
    /// Per-session cap on queued events (in-flight batches excluded).
    pub session_inflight_cap: usize,
    /// Maximum events coalesced into one dispatched batch.
    pub batch_max: usize,
    /// Live (materialized) session pipelines kept before LRU eviction
    /// freezes idle ones to snapshot blobs.
    pub max_resident: usize,
    /// Parity-scrub cadence handed to each session pipeline.
    pub scrub_interval: u64,
    /// Seeds the deterministic scheduler's starting cursor.
    pub seed: u64,
    /// The overload policy ([`Slo::OFF`] disables it entirely).
    pub slo: Slo,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_events: 1 << 14,
            session_inflight_cap: 1 << 12,
            batch_max: 64,
            max_resident: 64,
            scrub_interval: 512,
            seed: 0,
            slo: Slo::OFF,
        }
    }
}

impl ServeConfig {
    fn sanitized(mut self) -> Self {
        self.workers = self.workers.max(1);
        self.queue_events = self.queue_events.max(1);
        self.session_inflight_cap = self.session_inflight_cap.max(1);
        self.batch_max = self.batch_max.max(1);
        self.max_resident = self.max_resident.max(1);
        self.slo = self.slo.sanitized();
        self
    }
}

/// Typed backpressure: why a submission was not admitted. A rejected
/// submit changes no service state — the client retries or sheds load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a rejection tells the client whether to retry or drop; ignoring it loses events silently"]
pub enum Rejected {
    /// The global event queue is at capacity.
    QueueFull {
        /// Events currently queued service-wide.
        pending: usize,
        /// The configured global cap.
        capacity: usize,
    },
    /// This session already has too many queued events.
    SessionBusy {
        /// The session that is over its cap.
        session: u64,
        /// Events this session has queued.
        pending: usize,
        /// The configured per-session cap.
        cap: usize,
    },
    /// This session takes no new work here:
    /// `DurableService::expel_session` handed it to another node. A
    /// drained wire server sends the wire form of this rejection.
    ShuttingDown,
    /// Deliberately shed under overload pressure: the service is over
    /// its SLO (or its queue pressure threshold) and this session's
    /// priority class is below the admission bar. Unlike
    /// [`QueueFull`](Self::QueueFull), a shed is final — the client
    /// should drop the batch, not retry it.
    Shed {
        /// The session whose submission was shed.
        session: u64,
        /// The session's (sticky) priority class.
        priority: Priority,
        /// Pressure level at the decision (1 sheds bulk, 2 sheds bulk
        /// and normal).
        pressure: u8,
    },
    /// The batch's journal record would exceed the per-record cap
    /// ([`journal::WAL_MAX_PAYLOAD`]): it can never be made durable, so
    /// admission refuses it outright. Unlike a transient rejection, the
    /// client should split the batch and resubmit the halves.
    BatchTooLarge {
        /// Events in the refused batch.
        events: u64,
        /// Encoded record payload size the batch would have produced.
        bytes: u64,
    },
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull { pending, capacity } => {
                write!(f, "queue full ({pending}/{capacity} events)")
            }
            Rejected::SessionBusy {
                session,
                pending,
                cap,
            } => write!(f, "session {session} busy ({pending}/{cap} events)"),
            Rejected::ShuttingDown => f.write_str("service is shutting down"),
            Rejected::Shed {
                session,
                priority,
                pressure,
            } => write!(
                f,
                "session {session} shed ({} priority, pressure {pressure})",
                priority.label()
            ),
            Rejected::BatchTooLarge { events, bytes } => write!(
                f,
                "batch too large to journal ({events} events, {bytes} bytes); split and resubmit"
            ),
        }
    }
}

impl Error for Rejected {}

/// Service-level counters. Every one is deterministic: the same
/// config, fault plan and sequence of calls reproduce them exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Events admitted across all sessions.
    pub submitted_events: u64,
    /// Submissions rejected: global queue at capacity.
    pub rejected_queue_full: u64,
    /// Submissions rejected: per-session cap reached.
    pub rejected_session_busy: u64,
    /// Batches dispatched to workers.
    pub dispatches: u64,
    /// Dispatches that stole a session from another worker's queue.
    pub batches_stolen: u64,
    /// Idle sessions frozen to snapshot blobs.
    pub evictions: u64,
    /// Frozen sessions thawed back into pipelines.
    pub restores: u64,
    /// Workers killed by the fault plan.
    pub worker_kills: u64,
    /// Events replayed after worker deaths.
    pub replayed_events: u64,
    /// High-water mark of the global event queue.
    pub queue_depth_hwm: u64,
    /// Submissions shed under overload pressure.
    pub rejected_shed: u64,
    /// Events those shed submissions carried.
    pub shed_events: u64,
    /// Sessions demoted to coarse-only screening.
    pub demotions: u64,
    /// Degraded sessions promoted back to precise checking.
    pub promotions: u64,
    /// Deferred events replayed precisely at promotion.
    pub resync_events: u64,
    /// Simulated cycles the promotion resyncs consumed.
    pub resync_cycles: u64,
    /// Batches applied coarse-only (degraded throughput).
    pub coarse_batches: u64,
    /// Events those coarse-only batches carried.
    pub coarse_events: u64,
}

/// Everything a drained service hands back.
pub struct ServiceOutcome {
    /// Deterministic per-session results, keyed by session id.
    pub sessions: BTreeMap<u64, SessionReport>,
    /// The final pipelines themselves (for oracle comparison of taint
    /// state), keyed by session id.
    pub pipelines: BTreeMap<u64, SessionPipeline>,
    /// Service-level counters.
    pub stats: ServeStats,
    /// Simulated busy cycles per worker (batch cost + context switch
    /// per dispatch); `max` is the cost-model makespan.
    pub worker_busy_cycles: Vec<u64>,
    /// Per-batch latency samples in simulated cycles, dispatch order.
    pub batch_cycles: Vec<u64>,
    /// Every SLO report cut during the run, in order. Empty when the
    /// overload policy is off.
    pub slo_reports: Vec<SloReport>,
    /// Every coarse-only degradation span, in promotion order. The
    /// spans quantify the precision trade; the per-session reports are
    /// unaffected (promotion resyncs precisely).
    pub degraded_spans: Vec<DegradedSpan>,
    /// Wall-clock drain time. Timing-dependent — never part of any
    /// determinism oracle.
    pub wall_ns: u64,
}

/// The multi-session taint-checking service. See the crate docs.
pub struct Service {
    sched: Sched,
    /// The virtual worker that runs the next dispatch.
    cursor: usize,
    started: Instant,
}

impl Service {
    /// A service with virtual workers and a seeded round-robin
    /// scheduler: byte-deterministic, no wall clock in any decision.
    #[must_use]
    pub fn deterministic(cfg: ServeConfig, plan: FaultPlan) -> Self {
        let cfg = cfg.sanitized();
        let cursor = (latch_faults::mix(cfg.seed, 0x5E2_17E, 0) % cfg.workers as u64) as usize;
        Self {
            sched: Sched::new(cfg, plan),
            cursor,
            started: Instant::now(),
        }
    }

    /// Submits a batch of events for `session` at [`Priority::Normal`].
    /// Events of one session are applied in submission order; events of
    /// different sessions interleave arbitrarily.
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] (and changes nothing) when admission
    /// control refuses the batch.
    pub fn submit(&mut self, session: u64, events: &[Event]) -> Result<(), Rejected> {
        self.submit_with_priority(session, events, Priority::Normal)
    }

    /// Like [`submit`](Self::submit) with an explicit admission class.
    /// The class is sticky: the session keeps the priority of its first
    /// admission, whatever later calls pass.
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] (and changes nothing) when admission
    /// control refuses the batch — including [`Rejected::Shed`] when
    /// the overload policy drops it by priority.
    pub fn submit_with_priority(
        &mut self,
        session: u64,
        events: &[Event],
        priority: Priority,
    ) -> Result<(), Rejected> {
        self.sched.submit(session, events, priority)
    }

    /// Session ids currently degraded to coarse-only screening, sorted.
    #[must_use]
    pub fn degraded_sessions(&self) -> Vec<u64> {
        self.sched.degraded_sessions()
    }

    /// Runs the virtual workers until every queued event is applied.
    pub fn pump(&mut self) {
        while !self.sched.idle() {
            let w = self.cursor;
            self.cursor = (self.cursor + 1) % self.sched.workers();
            if let Some(item) = self.sched.next_work(w) {
                let result = process(item);
                self.sched.complete(w, result);
            }
        }
    }

    /// Graceful drain: applies everything queued and returns
    /// per-session results. It consumes the service, so nothing can be
    /// submitted after it.
    #[must_use]
    pub fn finish(mut self) -> ServiceOutcome {
        self.pump();
        let wall_ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut sched = self.sched;
        // Any session still degraded at drain end is promoted now: its
        // deferred span replays through the precise tier, so every final
        // report is byte-identical to an unpressured solo run of the
        // session's admitted stream.
        sched.promote_all();
        let stats = sched.stats;
        let worker_busy_cycles = sched.worker_busy.clone();
        let batch_cycles = sched.batch_cycles.clone();
        let slo_reports = sched.slo_reports.clone();
        let degraded_spans = sched.degraded_spans.clone();
        let pipelines = sched.into_sessions();
        let sessions = pipelines.iter().map(|(id, p)| (*id, p.report())).collect();
        ServiceOutcome {
            sessions,
            pipelines,
            stats,
            worker_busy_cycles,
            batch_cycles,
            slo_reports,
            degraded_spans,
            wall_ns,
        }
    }

    /// Session ids with any state in the scheduler, sorted.
    #[must_use]
    pub fn session_ids(&self) -> Vec<u64> {
        self.sched.session_ids()
    }

    /// `(applied, epoch)` for a quiescent session — see
    /// [`snapshot_session`](Self::snapshot_session) for when `None`.
    #[must_use]
    pub fn session_progress(&self, session: u64) -> Option<(u64, u64)> {
        self.sched.session_progress(session)
    }

    /// Byte-stable snapshot `(applied, epoch, blob)` of a quiescent
    /// session. `None` for sessions that never ran or whose batch is
    /// mid-flight — the durability layer simply snapshots them at the
    /// next quiescent point.
    #[must_use]
    pub fn snapshot_session(&self, session: u64) -> Option<(u64, u64, Vec<u8>)> {
        self.sched.snapshot_session(session)
    }

    /// Installs a recovered session as if it had been evicted at
    /// `applied`/`epoch`, rehydrating its sticky `priority` class.
    /// Used by crash recovery before any traffic reaches the rebuilt
    /// service.
    pub fn preload_session(
        &mut self,
        session: u64,
        blob: Vec<u8>,
        applied: u64,
        epoch: u64,
        priority: Priority,
    ) {
        self.sched
            .preload_session(session, blob, applied, epoch, priority);
    }

    /// SLO report cuts taken so far, in cut order. The vector only
    /// grows while the service runs, so a caller can stream new cuts
    /// by keeping a cursor into it — the wire server pushes the suffix
    /// to subscribed connections after each reply.
    #[must_use]
    pub fn slo_reports(&self) -> Vec<SloReport> {
        self.sched.slo_reports.clone()
    }

    /// The sticky admission class of a known session, or `None` for a
    /// session the service has never admitted (or preloaded).
    #[must_use]
    pub fn session_priority(&self, session: u64) -> Option<Priority> {
        self.sched.session_priority(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latch_sim::event::EventSource;
    use latch_workloads::BenchmarkProfile;

    fn events(name: &str, seed: u64, n: u64) -> Vec<Event> {
        let mut src = BenchmarkProfile::by_name(name).unwrap().stream(seed, n);
        let mut out = Vec::new();
        while let Some(ev) = src.next_event() {
            out.push(ev);
        }
        out
    }

    /// The per-session oracle: the same events through one pipeline.
    fn solo_report(evs: &[Event], scrub_interval: u64) -> SessionReport {
        let mut pipe = SessionPipeline::new(scrub_interval);
        for ev in evs {
            pipe.apply(ev);
        }
        pipe.report()
    }

    fn session_streams() -> Vec<(u64, Vec<Event>)> {
        let profiles = ["hmmer", "gromacs", "perlbench", "bzip2", "curl", "gcc"];
        (0..6u64)
            .map(|id| {
                let name = profiles[id as usize % profiles.len()];
                (id, events(name, 100 + id, 4_000))
            })
            .collect()
    }

    /// Interleave chunked submissions across sessions, pumping between
    /// rounds so queues stay under the default admission caps.
    fn drive(svc: &mut Service, streams: &[(u64, Vec<Event>)], chunk: usize) {
        let rounds = streams
            .iter()
            .map(|(_, evs)| evs.len().div_ceil(chunk))
            .max()
            .unwrap_or(0);
        for r in 0..rounds {
            for (id, evs) in streams {
                let lo = r * chunk;
                if lo >= evs.len() {
                    continue;
                }
                let hi = (lo + chunk).min(evs.len());
                svc.submit(*id, &evs[lo..hi]).expect("submission admitted");
            }
            svc.pump();
        }
    }

    #[test]
    fn thread_crossing_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<latch_core::unit::LatchUnit>();
        assert_send::<latch_dift::engine::DiftEngine>();
        assert_send::<SessionPipeline>();
        assert_send::<Event>();
        assert_send::<Vec<u8>>();
        assert_send::<Sched>();
        assert_send::<Service>();
    }

    #[test]
    fn deterministic_mode_matches_solo_pipelines_exactly() {
        let streams = session_streams();
        let cfg = ServeConfig {
            workers: 4,
            seed: 7,
            ..ServeConfig::default()
        };
        let mut svc = Service::deterministic(cfg, FaultPlan::benign());
        drive(&mut svc, &streams, 256);
        let out = svc.finish();
        assert_eq!(out.sessions.len(), streams.len());
        for (id, evs) in &streams {
            let solo = solo_report(evs, cfg.scrub_interval);
            assert_eq!(
                out.sessions[id].encode(),
                solo.encode(),
                "session {id} diverged from the solo pipeline"
            );
        }
        assert_eq!(out.stats.submitted_events, 6 * 4_000);
        assert!(out.stats.dispatches > 0);
    }

    #[test]
    fn deterministic_runs_are_byte_identical() {
        let streams = session_streams();
        let run = || {
            let cfg = ServeConfig {
                workers: 3,
                seed: 99,
                ..ServeConfig::default()
            };
            let mut svc = Service::deterministic(cfg, FaultPlan::benign());
            drive(&mut svc, &streams, 128);
            svc.finish()
        };
        let a = run();
        let b = run();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.worker_busy_cycles, b.worker_busy_cycles);
        assert_eq!(a.batch_cycles, b.batch_cycles);
        for (id, r) in &a.sessions {
            assert_eq!(r.encode(), b.sessions[id].encode());
        }
    }

    #[test]
    fn eviction_pressure_is_invisible_in_results() {
        let streams = session_streams();
        let cfg = ServeConfig {
            workers: 2,
            max_resident: 2, // constant churn: 6 sessions, 2 resident
            seed: 3,
            ..ServeConfig::default()
        };
        let mut svc = Service::deterministic(cfg, FaultPlan::benign());
        drive(&mut svc, &streams, 64);
        let out = svc.finish();
        assert!(out.stats.evictions > 0, "pressure must force evictions");
        assert!(out.stats.restores > 0, "evicted sessions must thaw again");
        for (id, evs) in &streams {
            assert_eq!(
                out.sessions[id].encode(),
                solo_report(evs, cfg.scrub_interval).encode(),
                "session {id} diverged after evict/restore churn"
            );
        }
    }

    #[test]
    fn worker_death_replays_without_event_loss() {
        let streams = session_streams();
        let cfg = ServeConfig {
            workers: 4,
            seed: 11,
            ..ServeConfig::default()
        };
        let plan = FaultPlan::new(77).with_worker_kills(40, 2);
        let mut svc = Service::deterministic(cfg, plan);
        drive(&mut svc, &streams, 256);
        let out = svc.finish();
        assert!(out.stats.worker_kills > 0, "plan must fire at this rate");
        assert!(out.stats.replayed_events > 0);
        for (id, evs) in &streams {
            assert_eq!(
                out.sessions[id].encode(),
                solo_report(evs, cfg.scrub_interval).encode(),
                "session {id} diverged after worker-death replay"
            );
        }
    }

    #[test]
    fn worker_kills_under_eviction_churn_match_solo() {
        // Eight workers, twelve sessions and four resident slots: worker
        // deaths land on sessions that eviction keeps freezing and
        // thawing, and every replay must still be invisible.
        let streams: Vec<(u64, Vec<Event>)> = (0..12u64)
            .map(|id| (id, events("perlbench", 500 + id, 2_000)))
            .collect();
        let cfg = ServeConfig {
            workers: 8,
            max_resident: 4,
            seed: 42,
            ..ServeConfig::default()
        };
        let plan = FaultPlan::new(4242).with_worker_kills(30, 3);
        let mut svc = Service::deterministic(cfg, plan);
        drive(&mut svc, &streams, 128);
        let out = svc.finish();
        assert!(out.stats.worker_kills > 0, "plan must fire at this rate");
        assert!(
            out.stats.evictions > 0,
            "4 resident slots for 12 sessions must evict"
        );
        for (id, evs) in &streams {
            assert_eq!(
                out.sessions[id].encode(),
                solo_report(evs, cfg.scrub_interval).encode(),
                "session {id} diverged under kills and eviction churn"
            );
        }
    }

    #[test]
    fn admission_control_rejects_cleanly() {
        let evs = events("hmmer", 1, 64);
        let cfg = ServeConfig {
            workers: 1,
            queue_events: 100,
            session_inflight_cap: 48,
            ..ServeConfig::default()
        };
        let mut svc = Service::deterministic(cfg, FaultPlan::benign());
        svc.submit(0, &evs[..48]).unwrap();
        // Per-session cap: one more event for session 0 must bounce.
        let err = svc.submit(0, &evs[..1]).unwrap_err();
        assert!(matches!(err, Rejected::SessionBusy { session: 0, .. }));
        // Global cap: session 1 may take the remaining 52, not 64.
        svc.submit(1, &evs[..48]).unwrap();
        let err = svc.submit(2, &evs[..8]).unwrap_err();
        assert!(matches!(err, Rejected::QueueFull { .. }));
        // Rejections changed nothing: everything admitted still runs.
        let out = svc.finish();
        assert_eq!(out.stats.submitted_events, 96);
        assert_eq!(out.stats.rejected_session_busy, 1);
        assert_eq!(out.stats.rejected_queue_full, 1);
        assert_eq!(out.sessions[&0].events, 48);
        assert_eq!(out.sessions[&1].events, 48);
    }

    #[test]
    fn slo_off_changes_nothing() {
        // The overload layer must be invisible when disabled: same
        // stats, same reports, no SLO cuts, no spans.
        let streams = session_streams();
        let cfg = ServeConfig {
            workers: 3,
            seed: 17,
            ..ServeConfig::default()
        };
        let mut svc = Service::deterministic(cfg, FaultPlan::benign());
        drive(&mut svc, &streams, 128);
        let out = svc.finish();
        assert!(out.slo_reports.is_empty());
        assert!(out.degraded_spans.is_empty());
        assert_eq!(out.stats.rejected_shed, 0);
        assert_eq!(out.stats.demotions, 0);
    }

    #[test]
    fn shedding_is_priority_ordered_and_pure() {
        let evs = events("hmmer", 1, 64);
        let cfg = ServeConfig {
            workers: 1,
            queue_events: 100,
            slo: Slo {
                slo_cycles: 1, // every real batch breaches
                report_every: 1,
                queue_pressure_pct: 50,
                max_degraded: 0, // isolate shedding from demotion
                ..Slo::OFF
            },
            ..ServeConfig::default()
        };
        let mut svc = Service::deterministic(cfg, FaultPlan::benign());
        // 64 queued events put occupancy over 50%: pressure 1 before
        // any latency signal exists. Critical always passes; bulk sheds.
        svc.submit_with_priority(0, &evs, Priority::Critical)
            .expect("critical is never shed");
        let err = svc
            .submit_with_priority(1, &evs, Priority::Bulk)
            .unwrap_err();
        assert!(matches!(err, Rejected::Shed { session: 1, pressure: 1, .. }));
        // Normal survives pressure 1...
        svc.submit_with_priority(2, &evs[..8], Priority::Normal)
            .expect("normal admitted at pressure 1");
        svc.pump();
        // ...but after the cuts record a breach, pressure 2 (breach +
        // occupancy) sheds normal too, while critical still passes.
        svc.submit_with_priority(0, &evs, Priority::Critical)
            .expect("critical passes at any pressure");
        let err = svc
            .submit_with_priority(2, &evs, Priority::Normal)
            .unwrap_err();
        assert!(matches!(err, Rejected::Shed { session: 2, pressure: 2, .. }));
        // Once the queue drains, occupancy pressure clears: pressure
        // falls back to 1 (breach only) and normal is admitted again.
        svc.pump();
        svc.submit_with_priority(2, &evs[..8], Priority::Normal)
            .expect("normal admitted at pressure 1");
        let out = svc.finish();
        assert_eq!(out.stats.rejected_shed, 2);
        assert_eq!(out.stats.shed_events, 128);
        // Shed before mutate: everything admitted still ran exactly.
        assert_eq!(out.sessions[&0].events, 128);
        assert_eq!(out.sessions[&2].events, 16);
        assert!(!out.slo_reports.is_empty());
    }

    #[test]
    fn sticky_priority_ignores_later_flags() {
        let evs = events("hmmer", 2, 64);
        let cfg = ServeConfig {
            workers: 1,
            queue_events: 100,
            slo: Slo {
                slo_cycles: 1,
                queue_pressure_pct: 50,
                max_degraded: 0,
                ..Slo::OFF
            },
            ..ServeConfig::default()
        };
        let mut svc = Service::deterministic(cfg, FaultPlan::benign());
        // Session 0 is created Critical; a later Bulk flag cannot
        // downgrade it mid-pressure (or shed decisions would depend on
        // client flag order, not scheduler state).
        svc.submit_with_priority(0, &evs, Priority::Critical).unwrap();
        svc.submit_with_priority(0, &evs[..16], Priority::Bulk)
            .expect("sticky class: still critical");
        let out = svc.finish();
        assert_eq!(out.sessions[&0].events, 80);
    }

    #[test]
    fn demoted_then_promoted_matches_unpressured_solo_run() {
        // Sessions: 0 critical (never demoted), 1 and 2 normal. With
        // slo_cycles = 1 every cut breaches, so demotion starts at the
        // first cut and never lifts until the drain promotes everyone.
        // Pressure stays at level 1 (occupancy bar at 100%), which
        // sheds only bulk — so the normal sessions keep receiving
        // events *while degraded*, exercising the deferred buffer.
        let streams: Vec<(u64, Vec<Event>)> = vec![
            (0, events("perlbench", 300, 4_000)),
            (1, events("gromacs", 301, 4_000)),
            (2, events("hmmer", 302, 4_000)),
        ];
        let cfg = ServeConfig {
            workers: 2,
            seed: 9,
            slo: Slo {
                slo_cycles: 1,
                report_every: 4,
                demote_after: 1,
                max_degraded: 2,
                queue_pressure_pct: 100,
                ..Slo::OFF
            },
            ..ServeConfig::default()
        };
        let run = || {
            let mut svc = Service::deterministic(cfg, FaultPlan::benign());
            for r in 0..streams.iter().map(|(_, e)| e.len().div_ceil(256)).max().unwrap() {
                for (id, evs) in &streams {
                    let prio = if *id == 0 { Priority::Critical } else { Priority::Normal };
                    let lo = (r * 256).min(evs.len());
                    let hi = (lo + 256).min(evs.len());
                    svc.submit_with_priority(*id, &evs[lo..hi], prio)
                        .expect("pressure 1 never sheds normal or critical");
                }
                svc.pump();
            }
            svc.finish()
        };
        let out = run();
        assert!(out.stats.demotions >= 1, "breach streak must demote");
        assert_eq!(out.stats.demotions, out.stats.promotions);
        assert_eq!(out.degraded_spans.len() as u64, out.stats.demotions);
        assert!(out.stats.coarse_batches > 0, "demoted sessions must run coarse-only");
        let span = &out.degraded_spans[0];
        assert!(span.deferred_events > 0, "demoted session must defer events");
        assert_eq!(out.stats.resync_events, out
            .degraded_spans
            .iter()
            .map(|s| s.deferred_events)
            .sum::<u64>());
        // The acceptance bar: demote + coarse-only + promote is byte-
        // invisible in every per-session report.
        for (id, evs) in &streams {
            assert_eq!(
                out.sessions[id].encode(),
                solo_report(evs, cfg.scrub_interval).encode(),
                "session {id} diverged through its degraded span"
            );
        }
        // And the whole overload trajectory replays byte-identically.
        let out2 = run();
        assert_eq!(out.stats, out2.stats);
        assert_eq!(out.degraded_spans, out2.degraded_spans);
        assert_eq!(
            out.slo_reports.iter().flat_map(SloReport::encode).collect::<Vec<u8>>(),
            out2.slo_reports.iter().flat_map(SloReport::encode).collect::<Vec<u8>>(),
        );
    }

    #[test]
    fn degraded_session_snapshot_is_the_demotion_checkpoint() {
        let evs = events("gromacs", 44, 2_000);
        let cfg = ServeConfig {
            workers: 1,
            slo: Slo {
                slo_cycles: 1,
                report_every: 2,
                demote_after: 1,
                max_degraded: 1,
                queue_pressure_pct: 100,
                ..Slo::OFF
            },
            ..ServeConfig::default()
        };
        let mut svc = Service::deterministic(cfg, FaultPlan::benign());
        svc.submit(7, &evs[..1_000]).expect("queue empty");
        svc.pump();
        assert_eq!(svc.degraded_sessions(), vec![7], "sole normal session demotes");
        let (applied, _, blob) = svc.snapshot_session(7).expect("quiescent");
        let restored = SessionPipeline::from_snapshot(&blob).expect("checkpoint decodes");
        assert_eq!(restored.applied(), applied);
        assert!(
            applied < 1_000,
            "durable progress must freeze at the demotion point, not track coarse progress"
        );
        // More traffic while degraded must not move the durable cursor.
        svc.submit(7, &evs[1_000..]).expect("pressure 1 admits normal");
        svc.pump();
        let (applied2, _, _) = svc.snapshot_session(7).expect("quiescent");
        assert_eq!(applied, applied2);
        // The drain still promotes and lands on the full stream.
        let out = svc.finish();
        assert_eq!(out.sessions[&7].encode(), solo_report(&evs, cfg.scrub_interval).encode());
    }

    #[test]
    fn worker_death_on_degraded_slot_keeps_cursor_frozen() {
        // Worker kills + an armed SLO: the sole normal session demotes
        // at the first cut, then a worker dies mid-batch while the
        // session is degraded. The death replay restores the dispatch
        // checkpoint — the provisional *coarse* pipeline — and must NOT
        // advance the frozen durability cursor past the demotion
        // checkpoint (the snapshot blob stays the precise state).
        let evs = events("gromacs", 44, 2_000);
        let cfg = ServeConfig {
            workers: 3,
            batch_max: 16,
            slo: Slo {
                slo_cycles: 1,
                report_every: 1,
                demote_after: 1,
                max_degraded: 1,
                queue_pressure_pct: 100,
                ..Slo::OFF
            },
            ..ServeConfig::default()
        };
        let plan = FaultPlan::new(13).with_worker_kills(150, 2);
        let mut svc = Service::deterministic(cfg, plan);
        svc.submit(7, &evs[..1_000]).expect("queue empty");
        svc.pump();
        assert_eq!(svc.degraded_sessions(), vec![7], "sole normal session demotes");
        let (applied, _, blob) = svc.snapshot_session(7).expect("quiescent");
        assert!(applied < 1_000, "cursor frozen at the demotion point");
        let restored = SessionPipeline::from_snapshot(&blob).expect("checkpoint decodes");
        assert_eq!(
            restored.applied(),
            applied,
            "cursor must match the demotion-checkpoint blob even after a death replay"
        );
        // More degraded traffic (and possibly another kill): still frozen.
        svc.submit(7, &evs[1_000..]).expect("pressure 1 admits normal");
        svc.pump();
        let (applied2, _, blob2) = svc.snapshot_session(7).expect("quiescent");
        assert_eq!(applied, applied2);
        let restored2 = SessionPipeline::from_snapshot(&blob2).expect("checkpoint decodes");
        assert_eq!(restored2.applied(), applied2);
        let out = svc.finish();
        assert!(out.stats.worker_kills > 0, "plan must kill while degraded");
        assert!(out.stats.coarse_batches > 0, "session must run coarse-only");
        assert_eq!(out.sessions[&7].encode(), solo_report(&evs, cfg.scrub_interval).encode());
    }
}
