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

use crate::overload::{Priority, Slo, SloReport, SloSampler};
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
    /// Evicted to a snapshot blob, with the progress and recovery
    /// epoch it covers, so the durability layer knows them without
    /// decoding the blob.
    Frozen {
        blob: Vec<u8>,
        applied: u64,
        epoch: u64,
    },
}

/// A session's state, borrowed for a durable snapshot.
pub(crate) enum SnapSource<'a> {
    /// A resident pipeline, not yet encoded.
    Live(&'a SessionPipeline),
    /// A frozen slot's LTSE blob and the progress it covers.
    Encoded {
        applied: u64,
        epoch: u64,
        blob: &'a [u8],
    },
}

struct Slot {
    state: SlotState,
    pending: VecDeque<Event>,
    /// Logical completion tick of the last batch (LRU recency).
    last_active: u64,
    /// Admission class, fixed at slot creation (sticky).
    priority: Priority,
}

impl Slot {
    fn new(priority: Priority) -> Self {
        Self {
            state: SlotState::Fresh,
            pending: VecDeque::new(),
            last_active: 0,
            priority,
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
    /// Every SLO cut, in order.
    pub slo_reports: Vec<SloReport>,
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
            slo_reports: Vec::new(),
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
                SlotState::Frozen { blob, .. } => {
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
        let start = pipeline.cycles();
        for ev in &batch {
            pipeline.apply(ev);
        }
        let cycles = pipeline.cycles() - start;
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
    /// cuts a report whose breach verdict feeds the shed pressure. Pure
    /// in scheduler state — the whole overload trajectory of a
    /// deterministic run replays byte-identically.
    fn note_batch(&mut self, cycles: u64) {
        self.sampler.push(cycles);
        self.completed = self.completed.saturating_add(1);
        if self.slo.slo_cycles == 0 || !self.completed.is_multiple_of(self.slo.report_every) {
            return;
        }
        let mut report = self.sampler.cut(self.completed, self.slo.slo_cycles);
        self.last_breach = report.breach;
        report.pressure = self.pressure(0);
        report.shed_events = self.stats.shed_events;
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

    /// Evicts least-recently-active idle sessions to snapshot blobs
    /// until at most `max_resident` pipelines stay materialized.
    fn maybe_evict(&mut self) {
        while self.live_resident > self.cfg.max_resident {
            let victim = self
                .slots
                .iter()
                .filter(|(_, s)| matches!(s.state, SlotState::Live(_)) && s.pending.is_empty())
                .min_by_key(|(id, s)| (s.last_active, **id))
                .map(|(id, _)| *id);
            let Some(id) = victim else { return };
            let slot = self.slots.get_mut(&id).expect("victim exists");
            let SlotState::Live(p) = std::mem::replace(&mut slot.state, SlotState::Fresh) else {
                unreachable!("victim filter guarantees a live slot");
            };
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
            slot.state = SlotState::Frozen {
                blob,
                applied: p.applied(),
                epoch: p.epoch(),
            };
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
                    SlotState::Frozen { blob, .. } => {
                        SessionPipeline::from_snapshot(&blob).expect("frozen blob is self-produced")
                    }
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
            SlotState::Live(p) => Some((p.applied(), p.epoch())),
            SlotState::Frozen { applied, epoch, .. } => Some((*applied, *epoch)),
        }
    }

    /// What a durable snapshot of a session is taken from. Frozen slots
    /// hand back their blob without thawing; `Fresh` slots return
    /// `None`.
    pub fn snapshot_source(&self, session: u64) -> Option<SnapSource<'_>> {
        let slot = self.slots.get(&session)?;
        match &slot.state {
            SlotState::Fresh => None,
            SlotState::Live(p) => Some(SnapSource::Live(p)),
            SlotState::Frozen {
                blob,
                applied,
                epoch,
            } => Some(SnapSource::Encoded {
                applied: *applied,
                epoch: *epoch,
                blob,
            }),
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
        slot.state = SlotState::Frozen {
            blob,
            applied,
            epoch,
        };
    }

    /// The sticky admission class of a known session, or `None` for a
    /// session the scheduler has never seen.
    pub fn session_priority(&self, session: u64) -> Option<Priority> {
        self.slots.get(&session).map(|s| s.priority)
    }
}
