//! The scheduler core behind [`Service`](crate::Service).
//!
//! All scheduling state lives in one [`Sched`] value: session slots,
//! per-worker ready queues, admission counters, the fault injector, and
//! the cost accounting. The service owns it directly and drives virtual
//! workers with a seeded round-robin cursor: each turn pulls a
//! [`WorkItem`] out with `next_work`, runs it through [`process`], and
//! pushes the [`BatchResult`] back with `complete`. Event application
//! itself ([`process`]) never touches scheduler state.
//!
//! Invariants:
//!
//! * A session is on at most one ready queue, and never while a worker
//!   is running its batch (`SlotState::Running`), so per-session event
//!   order is submission order — always.
//! * `pending_total` counts exactly the events sitting in session
//!   pending queues; admission control gates on it before any state
//!   changes, so a rejected submit is a complete no-op.
//! * A frozen session's blob round-trips byte-identically (the
//!   `SessionPipeline` snapshot contract), so eviction, migration, and
//!   death-replay are invisible in per-session reports.

use crate::overload::{DegradedSpan, Priority, Slo, SloReport, SloSampler};
use crate::{Rejected, ServeConfig, ServeStats};
use latch_faults::{FaultInjector, FaultPlan};
use latch_obs::TraceEvent;
use latch_sim::event::Event;
use latch_systems::cost::CostModel;
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
    /// A worker is applying a batch right now.
    Running,
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
    /// Whether the session sits on some worker's ready queue.
    enqueued: bool,
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
            enqueued: false,
            applied: 0,
            epoch: 0,
            priority,
            degraded: None,
        }
    }
}

/// One dispatched batch: everything a worker needs to run it without
/// touching scheduler state.
pub(crate) struct WorkItem {
    pub session: u64,
    pub pipeline: Box<SessionPipeline>,
    pub batch: Vec<Event>,
    /// Pipeline cycle count at batch start (for per-batch latency).
    pub start_cycles: u64,
    /// Pre-batch snapshot, taken only when the plan arms worker kills
    /// — the checkpoint a death replay restores from.
    pub checkpoint: Option<Vec<u8>>,
    /// Injected death: the worker dies after applying this many events
    /// of the batch.
    pub kill_at: Option<usize>,
    /// Degraded dispatch: apply the batch through the coarse tier only.
    pub coarse_only: bool,
}

/// What a worker hands back after running a batch.
pub(crate) enum BatchResult {
    Done {
        session: u64,
        pipeline: Box<SessionPipeline>,
        /// Cycles the batch consumed.
        cycles: u64,
        /// The batch itself, handed back so a degraded session's
        /// deferred buffer grows only on completion (a died batch is
        /// replayed, never double-deferred).
        batch: Vec<Event>,
    },
    /// The worker died mid-batch. `pipeline` is the checkpoint state
    /// (everything the dead worker did is discarded) and `batch` is the
    /// full batch, to be replayed on a surviving worker.
    Died {
        session: u64,
        pipeline: Box<SessionPipeline>,
        batch: Vec<Event>,
    },
}

/// Applies a batch to its pipeline. Pure with respect to scheduler
/// state.
pub(crate) fn process(mut item: WorkItem) -> BatchResult {
    if let (Some(kill_at), Some(blob)) = (item.kill_at, item.checkpoint.as_ref()) {
        // The worker makes partial progress, then dies: its pipeline
        // (and everything applied since the checkpoint) is lost.
        for ev in item.batch.iter().take(kill_at) {
            if item.coarse_only {
                item.pipeline.apply_coarse_only(ev);
            } else {
                item.pipeline.apply(ev);
            }
        }
        let restored =
            Box::new(SessionPipeline::from_snapshot(blob).expect("own snapshot must decode"));
        return BatchResult::Died {
            session: item.session,
            pipeline: restored,
            batch: item.batch,
        };
    }
    if item.coarse_only {
        // Degraded span: coarse screen only, no precise mirror. The
        // whole point of demotion is the cost: one cycle per event,
        // none of the coarse-tier penalty cycles a precise batch pays.
        for ev in &item.batch {
            item.pipeline.apply_coarse_only(ev);
        }
        let cycles = item.batch.len() as u64;
        return BatchResult::Done {
            session: item.session,
            pipeline: item.pipeline,
            cycles,
            batch: item.batch,
        };
    }
    for ev in &item.batch {
        item.pipeline.apply(ev);
    }
    let cycles = item.pipeline.cycles() - item.start_cycles;
    BatchResult::Done {
        session: item.session,
        pipeline: item.pipeline,
        cycles,
        batch: item.batch,
    }
}

/// The complete scheduling state of a service instance.
pub(crate) struct Sched {
    cfg: ServeConfig,
    cost: CostModel,
    slots: HashMap<u64, Slot>,
    ready: Vec<VecDeque<u64>>,
    pending_total: usize,
    in_flight: usize,
    tick: u64,
    inj: FaultInjector,
    alive: Vec<bool>,
    alive_count: usize,
    live_resident: usize,
    pub stats: ServeStats,
    /// Simulated busy cycles per worker (batch cost + context switch).
    pub worker_busy: Vec<u64>,
    /// Per-batch latency samples, in simulated cycles.
    pub batch_cycles: Vec<u64>,
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
    pub fn new(cfg: ServeConfig, plan: FaultPlan) -> Self {
        let workers = cfg.workers;
        let slo = cfg.slo.sanitized();
        Self {
            cfg,
            cost: CostModel::default(),
            slots: HashMap::new(),
            ready: vec![VecDeque::new(); workers],
            pending_total: 0,
            in_flight: 0,
            tick: 0,
            inj: FaultInjector::new(plan),
            alive: vec![true; workers],
            alive_count: workers,
            live_resident: 0,
            stats: ServeStats::default(),
            worker_busy: vec![0; workers],
            batch_cycles: Vec::new(),
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

    pub fn workers(&self) -> usize {
        self.cfg.workers
    }

    /// No queued events, nothing on any ready queue, nothing in flight.
    pub fn idle(&self) -> bool {
        self.pending_total == 0 && self.in_flight == 0 && self.ready.iter().all(VecDeque::is_empty)
    }

    fn first_alive(&self) -> usize {
        self.alive
            .iter()
            .position(|&a| a)
            .expect("at least one worker survives")
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
        slot.pending.extend(events.iter().copied());
        let enqueue = !slot.enqueued && !matches!(slot.state, SlotState::Running);
        if enqueue {
            slot.enqueued = true;
        }
        self.pending_total += events.len();
        self.stats.submitted_events = self.stats.submitted_events.saturating_add(events.len() as u64);
        if self.pending_total as u64 > self.stats.queue_depth_hwm {
            self.stats.queue_depth_hwm = self.pending_total as u64;
            latch_obs::watermark("serve.queue.depth", self.pending_total as u64);
        }
        if enqueue {
            let home = (session as usize) % self.cfg.workers;
            let w = if self.alive[home] {
                home
            } else {
                self.first_alive()
            };
            self.ready[w].push_back(session);
        }
        Ok(())
    }

    /// Pops the next session for `worker`: its own queue first, then a
    /// steal from the longest other queue (ties to the lowest worker
    /// index, victim popped from the back — classic work stealing).
    fn pop_ready(&mut self, worker: usize) -> Option<u64> {
        if let Some(s) = self.ready[worker].pop_front() {
            return Some(s);
        }
        let victim = (0..self.ready.len())
            .filter(|&w| w != worker && !self.ready[w].is_empty())
            .max_by_key(|&w| (self.ready[w].len(), std::cmp::Reverse(w)))?;
        let s = self.ready[victim].pop_back()?;
        self.stats.batches_stolen = self.stats.batches_stolen.saturating_add(1);
        latch_obs::counter_inc("serve.steals");
        Some(s)
    }

    /// Dispatches up to one coalesced batch to `worker`. Returns `None`
    /// when the worker is dead or no session is ready.
    pub fn next_work(&mut self, worker: usize) -> Option<WorkItem> {
        if !self.alive[worker] {
            return None;
        }
        let session = self.pop_ready(worker)?;
        let batch_max = self.cfg.batch_max;
        let scrub_interval = self.cfg.scrub_interval;
        let slot = self.slots.get_mut(&session).expect("ready session exists");
        slot.enqueued = false;
        let coarse_only = slot.degraded.is_some();
        let take = slot.pending.len().min(batch_max);
        let batch: Vec<Event> = slot.pending.drain(..take).collect();
        let (pipeline, was_live, restored) =
            match std::mem::replace(&mut slot.state, SlotState::Running) {
                SlotState::Live(p) => (p, true, false),
                SlotState::Frozen(blob) => (
                    Box::new(
                        SessionPipeline::from_snapshot(&blob)
                            .expect("frozen blob is self-produced"),
                    ),
                    false,
                    true,
                ),
                SlotState::Fresh => (Box::new(SessionPipeline::new(scrub_interval)), false, false),
                SlotState::Running => unreachable!("session dispatched twice concurrently"),
            };
        if was_live {
            self.live_resident -= 1;
        }
        if restored {
            self.stats.restores = self.stats.restores.saturating_add(1);
            latch_obs::counter_inc("serve.session.restores");
            latch_obs::emit("serve", TraceEvent::SessionRestore { session });
        }
        self.pending_total -= batch.len();
        self.in_flight += 1;
        let batch_index = self.stats.dispatches;
        self.stats.dispatches = self.stats.dispatches.saturating_add(1);
        latch_obs::histogram_record("serve.batch.events", batch.len() as u64);
        let arm_kills = self.inj.plan().worker.kill_per_mille > 0;
        let checkpoint = arm_kills.then(|| pipeline.to_snapshot());
        let kill_at = if arm_kills && self.alive_count > 1 {
            self.inj.worker_kill_at(batch_index, batch.len())
        } else {
            None
        };
        let start_cycles = pipeline.cycles();
        Some(WorkItem {
            session,
            pipeline,
            batch,
            start_cycles,
            checkpoint,
            kill_at,
            coarse_only,
        })
    }

    /// Folds a finished (or died) batch back into the scheduler.
    pub fn complete(&mut self, worker: usize, result: BatchResult) {
        self.in_flight -= 1;
        self.tick += 1;
        let tick = self.tick;
        match result {
            BatchResult::Done {
                session,
                pipeline,
                cycles,
                batch,
            } => {
                self.worker_busy[worker] = self.worker_busy[worker]
                    .saturating_add(cycles.saturating_add(self.cost.ctx_switch_cycles));
                self.batch_cycles.push(cycles);
                latch_obs::histogram_record("serve.batch.cycles", cycles);
                let slot = self.slots.get_mut(&session).expect("running session exists");
                if let Some(d) = slot.degraded.as_mut() {
                    // A degraded slot's dispatch was coarse-only (demote
                    // and promote both skip `Running` slots, so the flag
                    // cannot change mid-batch). Defer the batch for the
                    // precise resync and keep `applied`/`epoch` frozen
                    // at the demotion point — the durability layer must
                    // keep snapshotting the precise checkpoint.
                    let n = batch.len() as u64;
                    d.deferred.extend(batch);
                    self.stats.coarse_batches = self.stats.coarse_batches.saturating_add(1);
                    self.stats.coarse_events = self.stats.coarse_events.saturating_add(n);
                } else {
                    slot.applied = pipeline.applied();
                    slot.epoch = pipeline.epoch();
                }
                slot.state = SlotState::Live(pipeline);
                slot.last_active = tick;
                let requeue = !slot.pending.is_empty();
                if requeue {
                    slot.enqueued = true;
                }
                self.live_resident += 1;
                if requeue {
                    self.ready[worker].push_back(session);
                }
                self.maybe_evict();
                self.note_batch(cycles);
            }
            BatchResult::Died {
                session,
                pipeline,
                batch,
            } => {
                self.alive[worker] = false;
                self.alive_count -= 1;
                self.stats.worker_kills = self.stats.worker_kills.saturating_add(1);
                self.stats.replayed_events =
                    self.stats.replayed_events.saturating_add(batch.len() as u64);
                latch_obs::counter_inc("serve.worker.deaths");
                latch_obs::emit(
                    "serve",
                    TraceEvent::WorkerDeath {
                        worker: worker as u32,
                        replayed: batch.len() as u64,
                    },
                );
                // Orphaned ready sessions move to a survivor wholesale.
                let target = self.first_alive();
                let orphans: Vec<u64> = self.ready[worker].drain(..).collect();
                self.ready[target].extend(orphans);
                // The batch goes back to the *front* of the session's
                // pending queue so replay preserves event order, and the
                // checkpoint pipeline becomes resident again.
                self.pending_total += batch.len();
                let slot = self.slots.get_mut(&session).expect("running session exists");
                for ev in batch.into_iter().rev() {
                    slot.pending.push_front(ev);
                }
                if slot.degraded.is_none() {
                    // Mirror the Done handler: for a degraded slot the
                    // dispatch checkpoint is the provisional *coarse*
                    // pipeline, whose applied count includes coarse-only
                    // events. Copying it would advance the frozen
                    // durability cursor past the demotion checkpoint
                    // while snapshots still carry the precise blob —
                    // recovery would then skip the deferred span.
                    slot.applied = pipeline.applied();
                    slot.epoch = pipeline.epoch();
                }
                slot.state = SlotState::Live(pipeline);
                slot.last_active = tick;
                slot.enqueued = true;
                self.live_resident += 1;
                self.ready[target].push_back(session);
            }
        }
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
            self.promote_quiescent();
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
    /// screening. Candidates must be quiescent (`Live` or `Frozen` —
    /// never mid-batch) and never `Critical`; ties break to the
    /// smallest session id, so the choice is a pure function of
    /// scheduler state.
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
            SlotState::Fresh | SlotState::Running => unreachable!("victim filter is quiescent"),
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

    /// Promotes every degraded session that is not mid-batch: restores
    /// the demotion checkpoint and replays the deferred span through
    /// the precise tier, making the span invisible in the session's
    /// final report. A `Running` slot is skipped and caught at the next
    /// clean cut (or at drain).
    fn promote_quiescent(&mut self) {
        let mut ids: Vec<u64> = self
            .slots
            .iter()
            .filter(|(_, s)| s.degraded.is_some() && !matches!(s.state, SlotState::Running))
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        for id in ids {
            self.promote(id);
        }
        self.maybe_evict();
    }

    /// Promotes every degraded session. Only valid once the scheduler
    /// is idle — the drain path calls this before reports are cut.
    pub fn promote_all(&mut self) {
        let mut ids: Vec<u64> = self
            .slots
            .iter()
            .filter(|(_, s)| s.degraded.is_some())
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        for id in ids {
            self.promote(id);
        }
        debug_assert_eq!(self.degraded_count, 0);
    }

    fn promote(&mut self, id: u64) {
        let slot = self.slots.get_mut(&id).expect("degraded slot exists");
        let Some(d) = slot.degraded.take() else { return };
        debug_assert!(
            !matches!(slot.state, SlotState::Running),
            "cannot promote a session mid-batch"
        );
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
                        && !s.enqueued
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
        debug_assert!(self.idle(), "into_sessions requires a drained scheduler");
        let scrub_interval = self.cfg.scrub_interval;
        self.slots
            .into_iter()
            .map(|(id, slot)| {
                let pipeline = match slot.state {
                    SlotState::Live(p) => *p,
                    SlotState::Frozen(blob) => SessionPipeline::from_snapshot(&blob)
                        .expect("frozen blob is self-produced"),
                    SlotState::Fresh => SessionPipeline::new(scrub_interval),
                    SlotState::Running => unreachable!("drained scheduler has no running batch"),
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

    /// `(applied, epoch)` for a session at its last quiescent point,
    /// or `None` for sessions with no state yet (`Fresh`) or a batch
    /// mid-flight (`Running`).
    pub fn session_progress(&self, session: u64) -> Option<(u64, u64)> {
        let slot = self.slots.get(&session)?;
        if slot.degraded.is_some() {
            // A degraded session's durable progress is its demotion
            // checkpoint: the coarse pipeline past it is provisional.
            return match &slot.state {
                SlotState::Running => None,
                _ => Some((slot.applied, slot.epoch)),
            };
        }
        match &slot.state {
            SlotState::Live(p) => Some((p.applied(), p.epoch())),
            SlotState::Frozen(_) => Some((slot.applied, slot.epoch)),
            SlotState::Fresh | SlotState::Running => None,
        }
    }

    /// A byte-stable snapshot of a quiescent session:
    /// `(applied, epoch, blob)`. Frozen slots hand back their blob
    /// without thawing; `Fresh` and `Running` slots return `None`.
    pub fn snapshot_session(&self, session: u64) -> Option<(u64, u64, Vec<u8>)> {
        let slot = self.slots.get(&session)?;
        if let Some(d) = &slot.degraded {
            // The durable snapshot of a degraded session is its precise
            // demotion checkpoint — WAL replay from `applied` then
            // re-derives the deferred span precisely on recovery.
            return match &slot.state {
                SlotState::Running => None,
                _ => Some((slot.applied, slot.epoch, d.checkpoint.clone())),
            };
        }
        match &slot.state {
            SlotState::Live(p) => Some((p.applied(), p.epoch(), p.to_snapshot())),
            SlotState::Frozen(blob) => Some((slot.applied, slot.epoch, blob.clone())),
            SlotState::Fresh | SlotState::Running => None,
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
