//! # latch-serve
//!
//! An in-process taint-checking **service**: one scheduler multiplexing
//! many independent monitored sessions, each backed by its own
//! [`SessionPipeline`] (coarse LATCH screen + precise DIFT mirror).
//! Clients submit batches of events tagged with a session id; the
//! service guarantees per-session FIFO order, applies admission control
//! with typed backpressure ([`Rejected`]), coalesces queued events into
//! batches, and evicts idle sessions to snapshot blobs under memory
//! pressure.
//!
//! [`Service::deterministic`] keeps one FIFO ready queue of sessions:
//! no threads, no wall clock. [`Service::pump`] applies everything
//! queued, one batch per session per turn, and [`Service::finish`]
//! drains. Per-session results are byte-identical across runs and
//! identical to running each session alone through a
//! [`SessionPipeline`] — the conformance oracle for everything else.
//! The durability layer, the `latchd` front door and the cluster router
//! all serve through this one engine.

mod sched;

pub mod durable;
pub mod journal;
pub mod overload;
pub mod storage;
pub mod store;
pub mod wire;

pub use durable::{
    export_session_from, export_sessions, thaw_export, DurableConfig, DurableService,
    ImportError, RecoveryReport, SessionExport, SessionRecovery,
};
pub use journal::RecoveryError;
pub use overload::{Priority, Slo, SloReport, SloSampler};
pub use storage::{DirStorage, MemStorage, Storage};
pub use wire::{WireConfig, WireServer};

use latch_sim::event::Event;
use latch_systems::session::{SessionPipeline, SessionReport};
use sched::{Sched, SnapSource};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::time::Instant;

/// Tuning knobs for a service instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Unused: the scheduler has one ready queue.
    #[deprecated(note = "unused: the scheduler has one ready queue")]
    pub workers: usize,
    /// Global admission cap: total events queued across all sessions.
    pub queue_events: usize,
    /// Per-session cap on queued events.
    pub session_inflight_cap: usize,
    /// Maximum events coalesced into one dispatched batch.
    pub batch_max: usize,
    /// Live (materialized) session pipelines kept before LRU eviction
    /// freezes idle ones to snapshot blobs.
    pub max_resident: usize,
    /// Parity-scrub cadence handed to each session pipeline.
    pub scrub_interval: u64,
    /// Unused: the scheduler has no seeded cursor.
    #[deprecated(note = "unused: the scheduler has no seeded cursor")]
    pub seed: u64,
    /// The overload policy ([`Slo::OFF`] disables it entirely).
    pub slo: Slo,
}

impl Default for ServeConfig {
    #[allow(deprecated)]
    fn default() -> Self {
        Self {
            workers: 1,
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
/// config and sequence of calls reproduce them exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Events admitted across all sessions.
    pub submitted_events: u64,
    /// Submissions rejected: global queue at capacity.
    pub rejected_queue_full: u64,
    /// Submissions rejected: per-session cap reached.
    pub rejected_session_busy: u64,
    /// Batches dispatched.
    pub dispatches: u64,
    /// Idle sessions frozen to snapshot blobs.
    pub evictions: u64,
    /// Frozen sessions thawed back into pipelines.
    pub restores: u64,
    /// High-water mark of the global event queue.
    pub queue_depth_hwm: u64,
    /// Submissions shed under overload pressure.
    pub rejected_shed: u64,
    /// Events those shed submissions carried.
    pub shed_events: u64,
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
    /// Every SLO report cut during the run, in order. Empty when the
    /// overload policy is off.
    pub slo_reports: Vec<SloReport>,
    /// Wall-clock drain time. Timing-dependent — never part of any
    /// determinism oracle.
    pub wall_ns: u64,
}

/// The multi-session taint-checking service. See the crate docs.
pub struct Service {
    sched: Sched,
    started: Instant,
}

impl Service {
    /// A service with one FIFO ready queue: byte-deterministic, no wall
    /// clock in any decision.
    #[must_use]
    pub fn deterministic(cfg: ServeConfig) -> Self {
        Self {
            sched: Sched::new(cfg.sanitized()),
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

    /// Applies every queued event.
    pub fn pump(&mut self) {
        self.sched.pump();
    }

    /// Graceful drain: applies everything queued and returns
    /// per-session results. It consumes the service, so nothing can be
    /// submitted after it.
    #[must_use]
    pub fn finish(mut self) -> ServiceOutcome {
        self.pump();
        let wall_ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let stats = self.sched.stats;
        let slo_reports = std::mem::take(&mut self.sched.slo_reports);
        let pipelines = self.sched.into_sessions();
        let sessions = pipelines.iter().map(|(id, p)| (*id, p.report())).collect();
        ServiceOutcome {
            sessions,
            pipelines,
            stats,
            slo_reports,
            wall_ns,
        }
    }

    /// Session ids with any state in the scheduler, sorted.
    #[must_use]
    pub fn session_ids(&self) -> Vec<u64> {
        self.sched.session_ids()
    }

    /// `(applied, epoch)` for a session; `None` for sessions that never
    /// ran.
    #[must_use]
    pub fn session_progress(&self, session: u64) -> Option<(u64, u64)> {
        self.sched.session_progress(session)
    }

    /// What a byte-stable snapshot of a session is taken from: its live
    /// pipeline, or a blob encoded earlier with the progress it covers.
    /// `None` for sessions that never ran.
    pub(crate) fn snapshot_source(&self, session: u64) -> Option<SnapSource<'_>> {
        self.sched.snapshot_source(session)
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

    /// SLO report cuts taken so far, in cut order. The list only
    /// grows while the service runs, so a caller can stream new cuts
    /// by keeping a cursor into it — the wire server pushes the suffix
    /// to subscribed connections after each reply.
    #[must_use]
    pub fn slo_reports(&self) -> &[SloReport] {
        &self.sched.slo_reports
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
        let cfg = ServeConfig::default();
        let mut svc = Service::deterministic(cfg);
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
            let cfg = ServeConfig::default();
            let mut svc = Service::deterministic(cfg);
            drive(&mut svc, &streams, 128);
            svc.finish()
        };
        let a = run();
        let b = run();
        assert_eq!(a.stats, b.stats);
        for (id, r) in &a.sessions {
            assert_eq!(r.encode(), b.sessions[id].encode());
        }
    }

    #[test]
    fn eviction_pressure_is_invisible_in_results() {
        let streams = session_streams();
        let cfg = ServeConfig {
            max_resident: 2, // constant churn: 6 sessions, 2 resident
            ..ServeConfig::default()
        };
        let mut svc = Service::deterministic(cfg);
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
    fn admission_control_rejects_cleanly() {
        let evs = events("hmmer", 1, 64);
        let cfg = ServeConfig {
            queue_events: 100,
            session_inflight_cap: 48,
            ..ServeConfig::default()
        };
        let mut svc = Service::deterministic(cfg);
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
        // stats, same reports, no SLO cuts, no sheds.
        let streams = session_streams();
        let cfg = ServeConfig::default();
        let mut svc = Service::deterministic(cfg);
        drive(&mut svc, &streams, 128);
        let out = svc.finish();
        assert!(out.slo_reports.is_empty());
        assert_eq!(out.stats.rejected_shed, 0);
    }

    #[test]
    fn shedding_is_priority_ordered_and_pure() {
        let evs = events("hmmer", 1, 64);
        let cfg = ServeConfig {
            queue_events: 100,
            slo: Slo {
                slo_cycles: 1, // every real batch breaches
                report_every: 1,
                queue_pressure_pct: 50,
                ..Slo::OFF
            },
            ..ServeConfig::default()
        };
        let mut svc = Service::deterministic(cfg);
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
            queue_events: 100,
            slo: Slo {
                slo_cycles: 1,
                queue_pressure_pct: 50,
                ..Slo::OFF
            },
            ..ServeConfig::default()
        };
        let mut svc = Service::deterministic(cfg);
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
    fn breaching_session_snapshot_is_the_live_pipeline() {
        // Every cut breaches, and the sole normal session is admitted
        // at pressure 1. A breach only sheds, so each pump applies
        // every admitted event: the durable snapshot source is the
        // live pipeline, and its progress covers the whole stream.
        let evs = events("gromacs", 44, 2_000);
        let cfg = ServeConfig {
            slo: Slo {
                slo_cycles: 1,
                report_every: 2,
                queue_pressure_pct: 100,
                ..Slo::OFF
            },
            ..ServeConfig::default()
        };
        let mut svc = Service::deterministic(cfg);
        let mut admitted = 0;
        for chunk in evs.chunks(500) {
            svc.submit(7, chunk).expect("pressure 1 admits normal");
            admitted += chunk.len() as u64;
            svc.pump();
            match svc.snapshot_source(7).expect("the session ran") {
                SnapSource::Live(pipe) => assert_eq!(pipe.applied(), admitted),
                SnapSource::Encoded { .. } => panic!("a resident session snapshots its pipeline"),
            }
            assert_eq!(svc.session_progress(7), Some((admitted, 0)));
        }
        let cuts = svc.slo_reports();
        assert!(
            !cuts.is_empty() && cuts.iter().all(|r| r.breach),
            "every cut breaches"
        );
        let out = svc.finish();
        assert_eq!(
            out.sessions[&7].encode(),
            solo_report(&evs, cfg.scrub_interval).encode()
        );
    }
}
