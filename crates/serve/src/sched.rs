//! The scheduler core behind [`Service`](crate::Service).
//!
//! All scheduling state lives in one [`Sched`] value: session slots,
//! one FIFO ready queue, admission counters, and the overload policy.
//! The service owns it directly. [`Sched::pump`] pops sessions off the
//! ready queue in order and applies one coalesced batch of each in
//! place on the session's pipeline; a session with events left goes
//! back to the tail.
//!
//! Invariants:
//!
//! * A session is on the ready queue exactly when its pending queue is
//!   non-empty, and at most once, so per-session event order is
//!   submission order — always.
//! * `pending_total` counts exactly the events sitting in session
//!   pending queues; admission control gates on it before any state
//!   changes, so a rejected submit is a complete no-op.
//! * A frozen session's blob round-trips byte-identically (the
//!   `SessionPipeline` snapshot contract), so eviction and migration
//!   are invisible in per-session reports.

use crate::overload::{DegradedSpan, Priority, Slo, SloReport, SloSampler};
use crate::{Rejected, ServeConfig, ServeStats};
use latch_obs::TraceEvent;
use latch_sim::event::Event;
use latch_systems::session::SessionPipeline;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Where one session's state currently lives.
enum SlotState {
    /// Never ran: materializes lazily on first dispatch.
    Fresh,
    /// Resident pipeline, ready to run.
    Live(Box<SessionPipeline>),
    /// Evicted to a snapshot blob.
    Frozen(Vec<u8>),
}

/// A session's state, borrowed for a durable snapshot.
pub(crate) enum SnapSource<'a> {
    /// A resident pipeline, not yet encoded.
    Live(&'a SessionPipeline),
    /// An LTSE blob encoded earlier (a frozen slot, or a degraded
    /// session's demotion checkpoint) and the progress it covers.
    Encoded {
        applied: u64,
        epoch: u64,
        blob: &'a [u8],
    },
}

/// The coarse-only degradation state of one demoted session.
///
/// The checkpoint freezes the last precise state; `deferred` collects
/// every event the session retires coarse-only, in order. Promotion
/// restores the checkpoint and replays `deferred` through the full
/// pipeline, so the final report is byte-identical to a run that was
/// never demoted.
struct Degraded {
    checkpoint: Vec<u8>,
    deferred: Vec<Event>,
    from_applied: u64,
    at_batch: u64,
}

struct Slot {
    state: SlotState,
    pending: VecDeque<Event>,
    /// Logical completion tick of the last batch (LRU recency).
    last_active: u64,
    /// Events the pipeline had applied at its last quiescent point —
    /// kept current so a `Frozen` slot's progress is known without
    /// decoding its blob (the durability layer snapshots from this).
    /// Frozen at the demotion point while the slot is degraded.
    applied: u64,
    /// Recovery epoch at the same point.
    epoch: u64,
    /// Admission class, fixed at slot creation (sticky).
    priority: Priority,
    /// `Some` while the session runs coarse-only.
    degraded: Option<Degraded>,
}

impl Slot {
    fn new(priority: Priority) -> Self {
        Self {
            state: SlotState::Fresh,
            pending: VecDeque::new(),
            last_active: 0,
            applied: 0,
            epoch: 0,
            priority,
            degraded: None,
        }
    }
}

/// The complete scheduling state of a service instance.
pub(crate) struct Sched {
    cfg: ServeConfig,
    slots: HashMap<u64, Slot>,
    /// Sessions with pending events, in dispatch order.
    ready: VecDeque<u64>,
    pending_total: usize,
    tick: u64,
    live_resident: usize,
    pub stats: ServeStats,
    /// The SLO policy (a sanitized copy of `cfg.slo`).
    slo: Slo,
    /// Sliding window of per-batch costs feeding the percentile cuts.
    sampler: SloSampler,
    /// Batches completed (the report-cut clock).
    completed: u64,
    /// Breach verdict of the last cut — the latency half of the
    /// pressure signal, stable between cuts.
    last_breach: bool,
    breach_streak: u32,
    clean_streak: u32,
    degraded_count: usize,
    /// Every SLO cut, in order.
    pub slo_reports: Vec<SloReport>,
    /// Every completed degradation span, in promotion order.
    pub degraded_spans: Vec<DegradedSpan>,
}

impl Sched {
    pub fn new(cfg: ServeConfig) -> Self {
        let slo = cfg.slo.sanitized();
        Self {
            cfg,
            slots: HashMap::new(),
            ready: VecDeque::new(),
            pending_total: 0,
            tick: 0,
            live_resident: 0,
            stats: ServeStats::default(),
            slo,
            sampler: SloSampler::new(slo.window),
            completed: 0,
            last_breach: false,
            breach_streak: 0,
            clean_streak: 0,
            degraded_count: 0,
            slo_reports: Vec::new(),
            degraded_spans: Vec::new(),
        }
    }

    /// The current overload pressure level, a pure function of
    /// scheduler state: 0 = none, 1 = shed bulk, 2 = shed bulk and
    /// normal. The latency half (`last_breach`) only changes at report
    /// cuts, so a submission's verdict depends on nothing but admitted
    /// history — byte-identical across reruns.
    fn pressure(&self, incoming: usize) -> u8 {
        if self.slo.slo_cycles == 0 {
            return 0;
        }
        let occupied = (self.pending_total + incoming) * 100
            >= self.cfg.queue_events * self.slo.queue_pressure_pct as usize;
        match (self.last_breach, occupied) {
            (true, true) => 2,
            (true, false) | (false, true) => 1,
            (false, false) => 0,
        }
    }

    /// Admission-controlled enqueue of a batch of events for `session`.
    /// Reject-before-mutate: every `Err` leaves the scheduler
    /// byte-identical (only the matching rejection counter moves).
    pub fn submit(
        &mut self,
        session: u64,
        events: &[Event],
        priority: Priority,
    ) -> Result<(), Rejected> {
        if events.is_empty() {
            return Ok(());
        }
        // Sticky priority: an existing slot's class wins over the flag
        // on this call.
        let prio = self.slots.get(&session).map_or(priority, |s| s.priority);
        let pressure = self.pressure(events.len());
        if pressure > 0 && prio.rank() >= 3 - pressure {
            self.stats.rejected_shed = self.stats.rejected_shed.saturating_add(1);
            self.stats.shed_events = self.stats.shed_events.saturating_add(events.len() as u64);
            latch_obs::counter_inc("serve.rejected.shed");
            latch_obs::emit(
                "serve",
                TraceEvent::SubmissionShed {
                    session,
                    priority: prio.rank(),
                    pressure,
                },
            );
            return Err(Rejected::Shed {
                session,
                priority: prio,
                pressure,
            });
        }
        if self.pending_total + events.len() > self.cfg.queue_events {
            self.stats.rejected_queue_full = self.stats.rejected_queue_full.saturating_add(1);
            latch_obs::counter_inc("serve.rejected.queue_full");
            return Err(Rejected::QueueFull {
                pending: self.pending_total,
                capacity: self.cfg.queue_events,
            });
        }
        let slot = self
            .slots
            .entry(session)
            .or_insert_with(|| Slot::new(priority));
        if slot.pending.len() + events.len() > self.cfg.session_inflight_cap {
            self.stats.rejected_session_busy = self.stats.rejected_session_busy.saturating_add(1);
            latch_obs::counter_inc("serve.rejected.session_busy");
            return Err(Rejected::SessionBusy {
                session,
                pending: slot.pending.len(),
                cap: self.cfg.session_inflight_cap,
            });
        }
        if slot.pending.is_empty() {
            self.ready.push_back(session);
        }
        slot.pending.extend(events.iter().copied());
        self.pending_total += events.len();
        self.stats.submitted_events = self.stats.submitted_events.saturating_add(events.len() as u64);
        if self.pending_total as u64 > self.stats.queue_depth_hwm {
            self.stats.queue_depth_hwm = self.pending_total as u64;
            latch_obs::watermark("serve.queue.depth", self.pending_total as u64);
        }
        Ok(())
    }

    /// Applies every queued event: pops sessions off the ready queue in
    /// order and runs one coalesced batch of each in place.
    pub fn pump(&mut self) {
        while let Some(session) = self.ready.pop_front() {
            self.run_batch(session);
        }
    }

    /// Applies up to `batch_max` of `session`'s pending events to its
    /// pipeline (thawing or creating it first), requeues the session if
    /// events are left, then evicts and cuts SLO reports as due.
    fn run_batch(&mut self, session: u64) {
        let slot = self.slots.get_mut(&session).expect("ready session exists");
        let take = slot.pending.len().min(self.cfg.batch_max);
        let batch: Vec<Event> = slot.pending.drain(..take).collect();
        if !matches!(slot.state, SlotState::Live(_)) {
            let thawed = match &slot.state {
                SlotState::Frozen(blob) => {
                    self.stats.restores = self.stats.restores.saturating_add(1);
                    latch_obs::counter_inc("serve.session.restores");
                    latch_obs::emit("serve", TraceEvent::SessionRestore { session });
                    SessionPipeline::from_snapshot(blob).expect("frozen blob is self-produced")
                }
                _ => SessionPipeline::new(self.cfg.scrub_interval),
            };
            slot.state = SlotState::Live(Box::new(thawed));
            self.live_resident += 1;
        }
        let SlotState::Live(pipeline) = &mut slot.state else {
            unreachable!("thawed above")
        };
        self.pending_total -= batch.len();
        self.stats.dispatches = self.stats.dispatches.saturating_add(1);
        latch_obs::histogram_record("serve.batch.events", batch.len() as u64);
        let cycles = if let Some(d) = slot.degraded.as_mut() {
            // Degraded span: coarse screen only, no precise mirror, at
            // one cycle per event. The batch is deferred for the
            // precise resync, and `applied`/`epoch` stay frozen at the
            // demotion point — the durability layer must keep
            // snapshotting the precise checkpoint.
            for ev in &batch {
                pipeline.apply_coarse_only(ev);
            }
            let n = batch.len() as u64;
            d.deferred.extend(batch);
            self.stats.coarse_batches = self.stats.coarse_batches.saturating_add(1);
            self.stats.coarse_events = self.stats.coarse_events.saturating_add(n);
            n
        } else {
            let start = pipeline.cycles();
            for ev in &batch {
                pipeline.apply(ev);
            }
            slot.applied = pipeline.applied();
            slot.epoch = pipeline.epoch();
            pipeline.cycles() - start
        };
        latch_obs::histogram_record("serve.batch.cycles", cycles);
        self.tick += 1;
        slot.last_active = self.tick;
        if !slot.pending.is_empty() {
            self.ready.push_back(session);
        }
        self.maybe_evict();
        self.note_batch(cycles);
    }

    /// Records one completed batch in the SLO sampler and, on cadence,
    /// cuts a report and applies the demotion/promotion policy. Pure in
    /// scheduler state — the whole overload trajectory of a
    /// deterministic run replays byte-identically.
    fn note_batch(&mut self, cycles: u64) {
        self.sampler.push(cycles);
        self.completed = self.completed.saturating_add(1);
        if self.slo.slo_cycles == 0 || !self.completed.is_multiple_of(self.slo.report_every) {
            return;
        }
        let mut report = self.sampler.cut(self.completed, self.slo.slo_cycles);
        self.last_breach = report.breach;
        if report.breach {
            self.breach_streak = self.breach_streak.saturating_add(1);
            self.clean_streak = 0;
        } else {
            self.clean_streak = self.clean_streak.saturating_add(1);
            self.breach_streak = 0;
        }
        report.pressure = self.pressure(0);
        report.shed_events = self.stats.shed_events;
        if report.breach
            && self.breach_streak >= self.slo.demote_after
            && self.degraded_count < self.slo.max_degraded
        {
            self.demote_one();
        } else if !report.breach && self.clean_streak >= self.slo.promote_after {
            self.promote_all();
            self.maybe_evict();
        }
        report.degraded = self.degraded_count as u32;
        latch_obs::emit(
            "serve",
            TraceEvent::SloReport {
                samples: report.samples,
                p50_cycles: report.p50_cycles,
                p99_cycles: report.p99_cycles,
                breach: report.breach,
            },
        );
        self.slo_reports.push(report);
    }

    /// Demotes the lowest-priority demotable session to coarse-only
    /// screening. Candidates must have state (`Live` or `Frozen`) and
    /// never be `Critical`; ties break to the smallest session id, so
    /// the choice is a pure function of scheduler state.
    fn demote_one(&mut self) {
        let victim = self
            .slots
            .iter()
            .filter(|(_, s)| {
                s.degraded.is_none()
                    && s.priority != Priority::Critical
                    && matches!(s.state, SlotState::Live(_) | SlotState::Frozen(_))
            })
            .max_by_key(|(id, s)| (s.priority.rank(), std::cmp::Reverse(**id)))
            .map(|(id, _)| *id);
        let Some(id) = victim else { return };
        let slot = self.slots.get_mut(&id).expect("victim exists");
        let checkpoint = match &slot.state {
            SlotState::Live(p) => p.to_snapshot(),
            SlotState::Frozen(blob) => blob.clone(),
            SlotState::Fresh => unreachable!("victim filter excludes fresh slots"),
        };
        slot.degraded = Some(Degraded {
            checkpoint,
            deferred: Vec::new(),
            from_applied: slot.applied,
            at_batch: self.completed,
        });
        let at_applied = slot.applied;
        self.degraded_count += 1;
        self.stats.demotions = self.stats.demotions.saturating_add(1);
        latch_obs::counter_inc("serve.session.demotions");
        latch_obs::emit(
            "serve",
            TraceEvent::SessionDemote {
                session: id,
                at_applied,
            },
        );
    }

    /// Promotes every degraded session, in session-id order: restores
    /// each demotion checkpoint and replays the deferred span through
    /// the precise tier, making the span invisible in the session's
    /// final report. Runs at a clean cut and at drain.
    pub fn promote_all(&mut self) {
        for id in self.degraded_sessions() {
            self.promote(id);
        }
        debug_assert_eq!(self.degraded_count, 0);
    }

    fn promote(&mut self, id: u64) {
        let slot = self.slots.get_mut(&id).expect("degraded slot exists");
        let Some(d) = slot.degraded.take() else { return };
        let was_live = matches!(slot.state, SlotState::Live(_));
        let mut pipeline = SessionPipeline::from_snapshot(&d.checkpoint)
            .expect("demotion checkpoint is self-produced");
        let before = pipeline.cycles();
        for ev in &d.deferred {
            pipeline.apply(ev);
        }
        let resync_cycles = pipeline.cycles() - before;
        slot.applied = pipeline.applied();
        slot.epoch = pipeline.epoch();
        slot.state = SlotState::Live(Box::new(pipeline));
        if !was_live {
            self.live_resident += 1;
        }
        let replayed = d.deferred.len() as u64;
        self.degraded_count -= 1;
        self.stats.promotions = self.stats.promotions.saturating_add(1);
        self.stats.resync_events = self.stats.resync_events.saturating_add(replayed);
        self.stats.resync_cycles = self.stats.resync_cycles.saturating_add(resync_cycles);
        self.degraded_spans.push(DegradedSpan {
            session: id,
            from_applied: d.from_applied,
            demoted_at_batch: d.at_batch,
            promoted_at_batch: self.completed,
            deferred_events: replayed,
        });
        latch_obs::counter_inc("serve.session.promotions");
        latch_obs::emit(
            "serve",
            TraceEvent::SessionPromote {
                session: id,
                replayed,
            },
        );
    }

    /// Session ids currently degraded to coarse-only, sorted.
    pub fn degraded_sessions(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .slots
            .iter()
            .filter(|(_, s)| s.degraded.is_some())
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Evicts least-recently-active idle sessions to snapshot blobs
    /// until at most `max_resident` pipelines stay materialized.
    /// Degraded slots are never evicted: their precise checkpoint
    /// already holds the durable state, and freezing the provisional
    /// coarse pipeline would buy nothing.
    fn maybe_evict(&mut self) {
        while self.live_resident > self.cfg.max_resident {
            let victim = self
                .slots
                .iter()
                .filter(|(_, s)| {
                    matches!(s.state, SlotState::Live(_))
                        && s.pending.is_empty()
                        && s.degraded.is_none()
                })
                .min_by_key(|(id, s)| (s.last_active, **id))
                .map(|(id, _)| *id);
            let Some(id) = victim else { return };
            let slot = self.slots.get_mut(&id).expect("victim exists");
            let SlotState::Live(p) = std::mem::replace(&mut slot.state, SlotState::Fresh) else {
                unreachable!("victim filter guarantees a live slot");
            };
            slot.applied = p.applied();
            slot.epoch = p.epoch();
            let blob = p.to_snapshot();
            self.live_resident -= 1;
            self.stats.evictions = self.stats.evictions.saturating_add(1);
            latch_obs::counter_inc("serve.session.evictions");
            latch_obs::emit(
                "serve",
                TraceEvent::SessionEvict {
                    session: id,
                    blob_bytes: blob.len() as u64,
                },
            );
            slot.state = SlotState::Frozen(blob);
        }
    }

    /// Consumes the scheduler after a drain, materializing every
    /// session (thawing frozen ones) into its final pipeline + report.
    pub fn into_sessions(self) -> BTreeMap<u64, SessionPipeline> {
        debug_assert!(self.ready.is_empty(), "into_sessions requires a drained scheduler");
        let scrub_interval = self.cfg.scrub_interval;
        self.slots
            .into_iter()
            .map(|(id, slot)| {
                let pipeline = match slot.state {
                    SlotState::Live(p) => *p,
                    SlotState::Frozen(blob) => SessionPipeline::from_snapshot(&blob)
                        .expect("frozen blob is self-produced"),
                    SlotState::Fresh => SessionPipeline::new(scrub_interval),
                };
                (id, pipeline)
            })
            .collect()
    }

    /// Every session id the scheduler knows about, sorted.
    pub fn session_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.slots.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// `(applied, epoch)` for a session, or `None` for sessions with
    /// no state yet (`Fresh`).
    pub fn session_progress(&self, session: u64) -> Option<(u64, u64)> {
        let slot = self.slots.get(&session)?;
        match &slot.state {
            SlotState::Fresh => None,
            SlotState::Live(p) if slot.degraded.is_none() => Some((p.applied(), p.epoch())),
            // A frozen slot's progress, or a degraded session's demotion
            // checkpoint: the coarse pipeline past it is provisional.
            _ => Some((slot.applied, slot.epoch)),
        }
    }

    /// What a durable snapshot of a session is taken from. Frozen slots
    /// hand back their blob without thawing; `Fresh` slots return
    /// `None`.
    pub fn snapshot_source(&self, session: u64) -> Option<SnapSource<'_>> {
        let slot = self.slots.get(&session)?;
        let encoded = |blob| SnapSource::Encoded {
            applied: slot.applied,
            epoch: slot.epoch,
            blob,
        };
        match (&slot.degraded, &slot.state) {
            (_, SlotState::Fresh) => None,
            // The durable snapshot of a degraded session is its precise
            // demotion checkpoint — WAL replay from `applied` then
            // re-derives the deferred span precisely on recovery.
            (Some(d), _) => Some(encoded(&d.checkpoint)),
            (None, SlotState::Live(p)) => Some(SnapSource::Live(p)),
            (None, SlotState::Frozen(blob)) => Some(encoded(blob)),
        }
    }

    /// Installs a recovered session as a frozen slot, as if it had
    /// been evicted at `applied`/`epoch`. Recovery calls this before
    /// any traffic reaches the rebuilt service; the slot thaws lazily
    /// on first dispatch like any evicted session. `priority`
    /// rehydrates the sticky admission class the session held before
    /// the crash — priority is sticky, so recreating the slot at the
    /// default would silently downgrade it forever.
    pub fn preload_session(
        &mut self,
        session: u64,
        blob: Vec<u8>,
        applied: u64,
        epoch: u64,
        priority: Priority,
    ) {
        let slot = self.slots.entry(session).or_insert_with(|| Slot::new(priority));
        slot.priority = priority;
        slot.state = SlotState::Frozen(blob);
        slot.applied = applied;
        slot.epoch = epoch;
    }

    /// The sticky admission class of a known session, or `None` for a
    /// session the scheduler has never seen.
    pub fn session_priority(&self, session: u64) -> Option<Priority> {
        self.slots.get(&session).map(|s| s.priority)
    }
}
