//! A real two-thread P-LATCH organization, hardened against faults.
//!
//! The deterministic [`QueueSim`](crate::platch::QueueSim) models queue
//! timing cycle-by-cycle; this module runs the organization *for real*:
//! a producer thread plays the monitored core (retiring events and
//! filtering them through the LATCH module), a bounded crossbeam
//! channel plays the shared FIFO of paper Fig. 11, and a consumer
//! thread plays the monitoring core (applying the precise DIFT
//! analysis). Taint state is exact because the consumer processes the
//! filtered events in order and the producer-side screen is
//! conservative — the same no-false-negative argument as everywhere
//! else in LATCH.
//!
//! On top of the happy path, [`run_resilient`] tolerates an injected
//! [`FaultPlan`]:
//!
//! * **Coarse-state corruption** (CTC/CTT bit flips) is applied through
//!   [`LatchUnit::corrupt_coarse`] and healed by periodic parity
//!   scrubs against the producer's precise mirror. Corruption can only
//!   perturb *which extra context events* are forwarded — every
//!   taint-state-changing event is forwarded regardless, because the
//!   screen also consults the precise mirror's step outcome — so the
//!   monitor's final taint state still covers the golden run.
//! * **Queue faults** (drop / duplicate / reorder) are detected by
//!   sequence-numbering every message. The consumer discards
//!   duplicates, reassembles reordered messages through a bounded
//!   pending window, and declares an integrity gap when a sequence
//!   number never shows up.
//! * **Consumer lag** is absorbed by the watchdog send: instead of
//!   blocking indefinitely on a full queue, the producer waits in
//!   bounded slices with exponential backoff and only declares a stall
//!   when the consumer's heartbeat stops advancing.
//! * **Consumer death / panic / integrity gaps** trigger recovery from
//!   the last epoch checkpoint the consumer published: either a fresh
//!   consumer is spawned and resynced from the producer's replay
//!   buffer ([`RecoveryPolicy::Restart`]), or the producer degrades to
//!   inline precise DIFT on the monitored core
//!   ([`RecoveryPolicy::Degrade`], and always on watchdog stalls).
//!
//! Every recovery is recorded in [`MtReport::degradations`], so a
//! completed run always explains how it survived. Deterministic
//! observables live in [`MtReport`]; counters that depend on thread
//! timing (queue-full retries and the like) are segregated into
//! [`MtTimings`] so that two runs of the same seed and plan produce
//! byte-identical reports.

use crate::session::SessionPipeline;
use crossbeam::channel::{
    bounded, Receiver, RecvTimeoutError, SendTimeoutError, Sender, TrySendError,
};
use latch_core::stats::ScrubStats;
use latch_core::unit::CoarseStructure;
use latch_dift::engine::DiftEngine;
use latch_dift::policy::SecurityViolation;
use latch_faults::{
    FaultInjector, FaultPlan, FaultStats, FlipDirection, FlipTarget, QueueFault,
};
use latch_sim::event::Event;
use latch_sim::machine::apply_event_dift;
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A sequence-numbered event on the producer→consumer FIFO.
type Msg = (u64, Event);

/// What to do when the consumer is lost mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Never respawn: fall back to inline precise DIFT immediately.
    Degrade,
    /// Respawn the consumer up to `max_restarts` times (resyncing it
    /// from the last checkpoint), then degrade inline.
    Restart {
        /// Consumer respawn budget for the whole run.
        max_restarts: u32,
    },
}

/// Tuning knobs for the resilient pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// The consumer publishes a DIFT-state checkpoint every time its
    /// applied-sequence count crosses a multiple of this. `0` disables
    /// checkpointing (recovery then replays from sequence 0).
    pub epoch_events: u64,
    /// The producer parity-scrubs its coarse state every this many
    /// retired events (when filtering). `0` disables scrubbing.
    pub scrub_interval: u64,
    /// How many out-of-order messages the consumer will hold while
    /// waiting for a missing sequence number before declaring an
    /// integrity gap.
    pub reorder_window: usize,
    /// Base slice for the bounded-wait send, in milliseconds.
    pub send_timeout_ms: u64,
    /// Consecutive no-heartbeat wait slices tolerated before the
    /// watchdog declares the consumer stalled.
    pub max_send_backoff: u32,
    /// Recovery policy for dead / failed consumers.
    pub recovery: RecoveryPolicy,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            epoch_events: 1024,
            scrub_interval: 512,
            reorder_window: 64,
            send_timeout_ms: 2,
            max_send_backoff: 8,
            recovery: RecoveryPolicy::Restart { max_restarts: 1 },
        }
    }
}

/// Why the pipeline left normal streaming operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeCause {
    /// The consumer thread exited (injected death or closed channel).
    ConsumerDeath,
    /// The consumer thread panicked.
    ConsumerPanic,
    /// A sequence number never arrived (dropped message, or reorder
    /// beyond the pending window).
    IntegrityGap,
    /// The queue stayed full with no consumer heartbeat: the watchdog
    /// gave up waiting.
    Stall,
}

/// How the pipeline recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// A fresh consumer was spawned and resynced from the checkpoint.
    Restarted,
    /// The producer fell back to inline precise DIFT.
    Inline,
}

/// One recovery episode, in the order it happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationEvent {
    pub cause: DegradeCause,
    pub action: RecoveryAction,
    /// The checkpointed sequence number analysis resumed from.
    pub resumed_from_seq: u64,
}

impl DegradeCause {
    /// Stable label used in traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            DegradeCause::ConsumerDeath => "consumer_death",
            DegradeCause::ConsumerPanic => "consumer_panic",
            DegradeCause::IntegrityGap => "integrity_gap",
            DegradeCause::Stall => "stall",
        }
    }
}

impl RecoveryAction {
    /// Stable label used in traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryAction::Restarted => "restarted",
            RecoveryAction::Inline => "inline",
        }
    }
}

/// Deterministic results of a threaded run: identical across runs for
/// the same events, seed, fault plan, and configuration.
///
/// The guarantee is unconditional for fault-free runs and for any run
/// whose first recovery degrades inline
/// ([`RecoveryPolicy::Degrade`]): everything up to the first failure
/// is content-driven, and inline analysis after it is single-threaded.
/// Under [`RecoveryPolicy::Restart`] it additionally requires that no
/// *new* queue fault fires after a restart — the exact sequence number
/// at which the producer notices a lost consumer depends on channel
/// timing, so a later fault interleaving with that cutover can shift
/// where the next recovery lands. Delivery-layer counters that are
/// inherently cutover-sensitive (duplicate discards, retries) live in
/// [`MtTimings`] instead.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MtReport {
    /// Events the producer retired.
    pub instrs: u64,
    /// Events selected for the monitor (sent, or analysed inline after
    /// a degradation).
    pub enqueued: u64,
    /// Events the surviving analysis lineage applied. Equals
    /// `enqueued` whenever the run completed — faults may cost retries
    /// but never events.
    pub processed: u64,
    /// Events applied inline on the monitored core after degradation.
    pub inline_events: u64,
    /// Security violations raised by the surviving lineage, in
    /// sequence order.
    pub violations: Vec<SecurityViolation>,
    /// Every recovery episode, in order. Empty for a clean run.
    pub degradations: Vec<DegradationEvent>,
    /// Producer-side parity-scrub counters (zero when not filtering).
    pub scrub: ScrubStats,
}

impl MtReport {
    /// Whether the run survived through any degraded episode.
    #[must_use]
    pub fn degraded(&self) -> bool {
        !self.degradations.is_empty()
    }
}

/// Timing-dependent counters, kept out of [`MtReport`] so reports stay
/// reproducible. Useful for eyeballing backpressure, not for oracles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MtTimings {
    /// Sends that found the channel full on first attempt.
    pub full_on_send: u64,
    /// Bounded-wait send slices that timed out.
    pub send_retries: u64,
    /// Times the watchdog declared the consumer stalled.
    pub watchdog_stalls: u64,
    /// Applies performed by consumer lives whose state was discarded
    /// (they died or failed integrity and were replaced).
    pub discarded_applies: u64,
    /// Duplicate deliveries consumers discarded. Cutover-sensitive
    /// after a restart: a duplicate pair in flight when a consumer is
    /// lost may land on the dead channel and be replayed clean.
    pub dup_discarded: u64,
}

/// Everything a faulted run produces besides the final DIFT engine.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultOutcome {
    /// Deterministic observables.
    pub report: MtReport,
    /// What the injector actually fired, producer and consumer sides
    /// merged (replayed events re-consult consumer-side streams, so
    /// lag counts can exceed a single pass).
    pub faults: FaultStats,
    /// Timing-dependent counters.
    pub timings: MtTimings,
}

/// DIFT state the consumer publishes so recovery can resync without
/// replaying from the beginning.
#[derive(Clone)]
struct Checkpoint {
    /// First sequence number NOT covered by this checkpoint.
    next_seq: u64,
    engine: DiftEngine,
    violations: Vec<(u64, SecurityViolation)>,
}

impl Checkpoint {
    fn fresh() -> Self {
        Self {
            next_seq: 0,
            engine: DiftEngine::new(),
            violations: Vec::new(),
        }
    }
}

/// Producer↔consumer shared state: heartbeat for the watchdog, the
/// abandon flag for stalled consumers, and the checkpoint slot.
struct Shared {
    heartbeat: AtomicU64,
    abandoned: AtomicBool,
    ckpt_seq: AtomicU64,
    ckpt: Mutex<Option<Checkpoint>>,
}

impl Shared {
    fn new() -> Self {
        Self {
            heartbeat: AtomicU64::new(0),
            abandoned: AtomicBool::new(false),
            ckpt_seq: AtomicU64::new(0),
            ckpt: Mutex::new(None),
        }
    }
}

/// How one consumer life ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LifeEnd {
    /// Channel closed with every received sequence applied.
    Completed,
    /// Injected death fired.
    Died,
    /// A sequence number never arrived.
    IntegrityGap,
    /// The producer abandoned this life (stall recovery).
    Abandoned,
}

/// Everything a consumer life hands back on exit.
struct LifeOutcome {
    end: LifeEnd,
    engine: DiftEngine,
    violations: Vec<(u64, SecurityViolation)>,
    /// Lineage position: first sequence number not yet applied.
    next_seq: u64,
    /// Events this life applied itself (excludes inherited state).
    applied: u64,
    dup_discarded: u64,
    faults: FaultStats,
}

/// One consumer life: drains the channel in sequence order, applying
/// precise DIFT and publishing epoch checkpoints. Injected death fires
/// only in life 0 (transient-fault model: restarted consumers run to
/// completion).
fn consumer_life(
    rx: Receiver<Msg>,
    start: Checkpoint,
    life: u32,
    plan: FaultPlan,
    cfg: ResilienceConfig,
    shared: Arc<Shared>,
) -> LifeOutcome {
    let mut inj = FaultInjector::new(plan);
    let mut engine = start.engine;
    let mut violations = start.violations;
    let mut expected = start.next_seq;
    let mut pending: BTreeMap<u64, Event> = BTreeMap::new();
    let mut applied = 0u64;
    let mut dup_discarded = 0u64;

    macro_rules! outcome {
        ($end:expr) => {
            LifeOutcome {
                end: $end,
                engine,
                violations,
                next_seq: expected,
                applied,
                dup_discarded,
                faults: inj.stats(),
            }
        };
    }

    loop {
        if shared.abandoned.load(Ordering::Acquire) {
            return outcome!(LifeEnd::Abandoned);
        }
        let (seq, ev) = match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(msg) => msg,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        // Draining the channel is progress for the watchdog even when
        // the message lands in the pending window.
        shared.heartbeat.fetch_add(1, Ordering::Release);
        if seq < expected {
            dup_discarded += 1;
            continue;
        }
        if seq > expected {
            pending.insert(seq, ev);
            if pending.len() > cfg.reorder_window {
                return outcome!(LifeEnd::IntegrityGap);
            }
            continue;
        }
        let mut next = Some(ev);
        while let Some(ev) = next {
            let lag = inj.consumer_lag_at(expected);
            if lag > 0 {
                std::thread::sleep(Duration::from_micros(u64::from(lag)));
            }
            let step = apply_event_dift(&mut engine, &ev);
            if let Some(v) = step.violation {
                violations.push((expected, v));
            }
            expected += 1;
            applied += 1;
            shared.heartbeat.fetch_add(1, Ordering::Release);
            if cfg.epoch_events > 0 && expected.is_multiple_of(cfg.epoch_events) {
                *shared.ckpt.lock() = Some(Checkpoint {
                    next_seq: expected,
                    engine: engine.clone(),
                    violations: violations.clone(),
                });
                shared.ckpt_seq.store(expected, Ordering::Release);
                latch_obs::emit(
                    "systems.platch_mt.consumer",
                    latch_obs::TraceEvent::Checkpoint { seq: expected },
                );
            }
            if life == 0 && inj.consumer_dies_now(applied) {
                return outcome!(LifeEnd::Died);
            }
            next = pending.remove(&expected);
        }
    }
    if pending.is_empty() {
        outcome!(LifeEnd::Completed)
    } else {
        outcome!(LifeEnd::IntegrityGap)
    }
}

/// Verdict of one bounded-wait send attempt.
enum SendVerdict {
    Delivered,
    /// The receiver is gone.
    Gone,
    /// Queue full and no heartbeat progress across the backoff budget.
    Stalled,
}

/// Exponential-backoff state for the watchdog sender.
///
/// Every arithmetic step saturates: a pathological `send_timeout_ms`
/// near `u64::MAX` or a backoff budget of `u32::MAX` degrades to the
/// cap under sustained overload instead of overflowing (which would
/// panic in debug builds and silently shrink the wait in release —
/// turning a stalled consumer into a busy-spin).
pub(crate) struct SendBackoff {
    base_ms: u64,
    wait_ms: u64,
    stale_rounds: u32,
    budget: u32,
}

impl SendBackoff {
    /// Upper bound on one bounded wait once backoff has kicked in.
    const CAP_MS: u64 = 100;

    pub(crate) fn new(send_timeout_ms: u64, budget: u32) -> Self {
        let base_ms = send_timeout_ms.max(1);
        Self {
            base_ms,
            wait_ms: base_ms,
            stale_rounds: 0,
            budget,
        }
    }

    /// The current bounded-wait slice.
    pub(crate) fn wait(&self) -> Duration {
        Duration::from_millis(self.wait_ms)
    }

    /// Heartbeat progress observed: the consumer is slow, not silent.
    /// Backoff resets to the base wait.
    pub(crate) fn progress(&mut self) {
        self.stale_rounds = 0;
        self.wait_ms = self.base_ms;
    }

    /// No heartbeat progress across one timed-out slice. Returns `true`
    /// once the budget is exhausted (declare the consumer stalled);
    /// otherwise doubles the wait, capped.
    pub(crate) fn stale(&mut self) -> bool {
        self.stale_rounds = self.stale_rounds.saturating_add(1);
        if self.stale_rounds >= self.budget {
            return true;
        }
        self.wait_ms = self.wait_ms.saturating_mul(2).min(Self::CAP_MS);
        false
    }
}

/// Sends with bounded waits and exponential backoff instead of
/// blocking indefinitely. Heartbeat progress resets the backoff — a
/// slow consumer is waited on forever, only a silent one is declared
/// stalled.
fn watchdog_send(
    tx: &Sender<Msg>,
    shared: &Shared,
    cfg: &ResilienceConfig,
    timings: &mut MtTimings,
    msg: Msg,
) -> SendVerdict {
    let mut msg = match tx.try_send(msg) {
        Ok(()) => return SendVerdict::Delivered,
        Err(TrySendError::Disconnected(_)) => return SendVerdict::Gone,
        Err(TrySendError::Full(m)) => {
            timings.full_on_send = timings.full_on_send.saturating_add(1);
            latch_obs::timing_add("mt.full_on_send", 1);
            m
        }
    };
    let mut last_beat = shared.heartbeat.load(Ordering::Acquire);
    let mut backoff = SendBackoff::new(cfg.send_timeout_ms, cfg.max_send_backoff);
    loop {
        match tx.send_timeout(msg, backoff.wait()) {
            Ok(()) => return SendVerdict::Delivered,
            Err(SendTimeoutError::Disconnected(_)) => return SendVerdict::Gone,
            Err(SendTimeoutError::Timeout(m)) => {
                msg = m;
                timings.send_retries = timings.send_retries.saturating_add(1);
                latch_obs::timing_add("mt.send_retries", 1);
                let beat = shared.heartbeat.load(Ordering::Acquire);
                if beat != last_beat {
                    last_beat = beat;
                    backoff.progress();
                } else if backoff.stale() {
                    timings.watchdog_stalls = timings.watchdog_stalls.saturating_add(1);
                    latch_obs::timing_add("mt.watchdog_stalls", 1);
                    return SendVerdict::Stalled;
                }
            }
        }
    }
}

/// Where analysis currently happens.
enum Mode {
    /// Normal operation: a live consumer behind the channel.
    Streaming {
        tx: Sender<Msg>,
        handle: JoinHandle<LifeOutcome>,
    },
    /// Degraded: precise DIFT inline on the monitored core. The engine
    /// is boxed to keep `Mode` small (clippy: large_enum_variant).
    Inline {
        engine: Box<DiftEngine>,
        violations: Vec<(u64, SecurityViolation)>,
    },
    /// Transient placeholder while ownership moves through recovery.
    Recovering,
}

/// Producer-side state machine for [`run_resilient`].
struct Driver {
    cfg: ResilienceConfig,
    plan: FaultPlan,
    queue_capacity: usize,
    shared: Arc<Shared>,
    inj: FaultInjector,
    /// The coarse screen plus precise mirror, when filtering.
    screen: Option<SessionPipeline>,
    next_seq: u64,
    /// Replay buffer: every enqueued message at or above the last
    /// published checkpoint, for consumer resync.
    buffer: VecDeque<Msg>,
    /// A reorder-faulted message waiting to be sent after its
    /// successor.
    held: Option<Msg>,
    lives_started: u32,
    restarts_used: u32,
    report: MtReport,
    timings: MtTimings,
    faults: FaultStats,
    mode: Mode,
}

impl Driver {
    fn spawn_streaming(&mut self, start: Checkpoint) {
        let (tx, rx) = bounded::<Msg>(self.queue_capacity);
        self.shared.abandoned.store(false, Ordering::Release);
        let life = self.lives_started;
        self.lives_started += 1;
        let plan = self.plan;
        let cfg = self.cfg;
        let shared = Arc::clone(&self.shared);
        let handle =
            std::thread::spawn(move || consumer_life(rx, start, life, plan, cfg, shared));
        self.mode = Mode::Streaming { tx, handle };
    }

    /// Retire one monitored-core event: inject scheduled coarse
    /// corruption, screen through LATCH (+ precise mirror), scrub on
    /// cadence, and forward if selected.
    fn step(&mut self, index: u64, ev: Event) {
        self.report.instrs += 1;
        let enqueue = match &mut self.screen {
            None => true,
            Some(pipe) => {
                if let Some(flip) = self.inj.coarse_flip_at(index) {
                    let target = match flip.target {
                        FlipTarget::Ctc => CoarseStructure::Ctc,
                        FlipTarget::Ctt => CoarseStructure::Ctt,
                    };
                    let set = matches!(flip.direction, FlipDirection::SpuriousSet);
                    pipe.latch_mut().corrupt_coarse(target, flip.slot, flip.bit, set);
                }
                // Screen + precise mirror + scrub cadence + active-window
                // tail all live in the shared session pipeline now; its
                // selection verdict is the forwarding decision.
                pipe.apply(&ev)
            }
        };
        if enqueue {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.report.enqueued += 1;
            self.forward(seq, ev);
        }
    }

    /// Hands one selected event to the current analysis lineage,
    /// applying the fault plan's queue faults on first transmission.
    fn forward(&mut self, seq: u64, ev: Event) {
        if let Mode::Inline { engine, violations } = &mut self.mode {
            let step = apply_event_dift(engine, &ev);
            if let Some(v) = step.violation {
                violations.push((seq, v));
            }
            self.report.inline_events += 1;
            return;
        }
        self.buffer.push_back((seq, ev));
        self.prune_buffer();
        // Retransmissions bypass injection (transient-fault model), and
        // while a reordered message is held its flush partner is sent
        // clean so the swap stays pairwise.
        let fault = if self.held.is_some() {
            QueueFault::None
        } else {
            self.inj.queue_fault_at(seq)
        };
        match fault {
            QueueFault::Drop => {}
            QueueFault::Duplicate => self.dispatch(vec![(seq, ev), (seq, ev)]),
            QueueFault::Reorder => self.held = Some((seq, ev)),
            QueueFault::None => {
                let mut msgs = vec![(seq, ev)];
                if let Some(h) = self.held.take() {
                    msgs.push(h);
                }
                self.dispatch(msgs);
            }
        }
    }

    /// Sends messages through the watchdog; a failed send triggers
    /// recovery and abandons the rest (the replay buffer covers them).
    fn dispatch(&mut self, msgs: Vec<Msg>) {
        for msg in msgs {
            let verdict = match &self.mode {
                Mode::Streaming { tx, .. } => {
                    watchdog_send(tx, &self.shared, &self.cfg, &mut self.timings, msg)
                }
                // A recovery earlier in this batch already rerouted
                // everything buffered, including the remaining msgs.
                _ => return,
            };
            let prelim = match verdict {
                SendVerdict::Delivered => continue,
                SendVerdict::Gone => DegradeCause::ConsumerDeath,
                SendVerdict::Stalled => DegradeCause::Stall,
            };
            if let Mode::Streaming { tx, handle } =
                std::mem::replace(&mut self.mode, Mode::Recovering)
            {
                let cause = self.settle(tx, handle, prelim);
                self.rebuild(cause);
            }
            return;
        }
    }

    /// Records a recovery episode in the report and the trace.
    fn record_degradation(&mut self, d: DegradationEvent) {
        latch_obs::counter_inc("systems.platch_mt.degradations");
        latch_obs::emit(
            "systems.platch_mt",
            latch_obs::TraceEvent::Degradation {
                cause: d.cause.label(),
                action: d.action.label(),
                resumed_from_seq: d.resumed_from_seq,
            },
        );
        self.report.degradations.push(d);
    }

    fn prune_buffer(&mut self) {
        let ck = self.shared.ckpt_seq.load(Ordering::Acquire);
        while self.buffer.front().is_some_and(|(s, _)| *s < ck) {
            self.buffer.pop_front();
        }
    }

    /// Tears down a lost streaming lineage: joins the consumer (unless
    /// stalled — a stalled life is flagged abandoned and detached, as
    /// joining could block indefinitely) and folds its non-authoritative
    /// counters in. Returns the refined cause.
    fn settle(
        &mut self,
        tx: Sender<Msg>,
        handle: JoinHandle<LifeOutcome>,
        prelim: DegradeCause,
    ) -> DegradeCause {
        drop(tx);
        if matches!(prelim, DegradeCause::Stall) {
            self.shared.abandoned.store(true, Ordering::Release);
            drop(handle);
            return DegradeCause::Stall;
        }
        match handle.join() {
            Err(_) => DegradeCause::ConsumerPanic,
            Ok(out) => {
                let cause = match out.end {
                    LifeEnd::Died => DegradeCause::ConsumerDeath,
                    LifeEnd::IntegrityGap => DegradeCause::IntegrityGap,
                    _ => prelim,
                };
                self.absorb_failed_life(&out);
                cause
            }
        }
    }

    fn absorb_failed_life(&mut self, out: &LifeOutcome) {
        self.faults.merge(out.faults);
        self.timings.dup_discarded = self.timings.dup_discarded.saturating_add(out.dup_discarded);
        self.timings.discarded_applies =
            self.timings.discarded_applies.saturating_add(out.applied);
        latch_obs::timing_add("mt.dup_discarded", out.dup_discarded);
        latch_obs::timing_add("mt.discarded_applies", out.applied);
    }

    /// Resumes analysis from the last published checkpoint: respawn +
    /// resync while the restart budget lasts, inline degradation
    /// otherwise (and always after a stall — restarting behind a wedged
    /// consumer would thrash).
    fn rebuild(&mut self, mut cause: DegradeCause) {
        loop {
            self.held = None;
            let ckpt = self
                .shared
                .ckpt
                .lock()
                .clone()
                .unwrap_or_else(Checkpoint::fresh);
            let base_seq = ckpt.next_seq;
            let stall = matches!(cause, DegradeCause::Stall);
            let can_restart = !stall
                && match self.cfg.recovery {
                    RecoveryPolicy::Degrade => false,
                    RecoveryPolicy::Restart { max_restarts } => self.restarts_used < max_restarts,
                };
            if !can_restart {
                self.record_degradation(DegradationEvent {
                    cause,
                    action: RecoveryAction::Inline,
                    resumed_from_seq: base_seq,
                });
                let Checkpoint {
                    mut engine,
                    mut violations,
                    ..
                } = ckpt;
                for (s, ev) in self.buffer.iter().filter(|(s, _)| *s >= base_seq) {
                    let step = apply_event_dift(&mut engine, ev);
                    if let Some(v) = step.violation {
                        violations.push((*s, v));
                    }
                    self.report.inline_events += 1;
                }
                self.buffer.clear();
                self.mode = Mode::Inline {
                    engine: Box::new(engine),
                    violations,
                };
                return;
            }
            self.restarts_used += 1;
            self.record_degradation(DegradationEvent {
                cause,
                action: RecoveryAction::Restarted,
                resumed_from_seq: base_seq,
            });
            self.spawn_streaming(ckpt);
            // Resync: replay everything since the checkpoint, clean.
            let replay: Vec<Msg> = self
                .buffer
                .iter()
                .filter(|(s, _)| *s >= base_seq)
                .copied()
                .collect();
            let mut failed = None;
            for msg in replay {
                let verdict = match &self.mode {
                    Mode::Streaming { tx, .. } => {
                        watchdog_send(tx, &self.shared, &self.cfg, &mut self.timings, msg)
                    }
                    _ => unreachable!("just spawned"),
                };
                match verdict {
                    SendVerdict::Delivered => {}
                    SendVerdict::Gone => {
                        failed = Some(DegradeCause::ConsumerDeath);
                        break;
                    }
                    SendVerdict::Stalled => {
                        failed = Some(DegradeCause::Stall);
                        break;
                    }
                }
            }
            match failed {
                None => return,
                Some(prelim) => {
                    let Mode::Streaming { tx, handle } =
                        std::mem::replace(&mut self.mode, Mode::Recovering)
                    else {
                        unreachable!("replay only runs while streaming");
                    };
                    cause = self.settle(tx, handle, prelim);
                }
            }
        }
    }

    /// End of stream: flush, drain the surviving lineage, and seal the
    /// report. A trailing dropped message surfaces here as a lineage
    /// that completed short — that too is an integrity gap and goes
    /// through recovery, so no plan can silently lose events.
    fn finish(mut self) -> (FaultOutcome, DiftEngine) {
        if let Some(h) = self.held.take() {
            self.dispatch(vec![h]);
        }
        loop {
            match std::mem::replace(&mut self.mode, Mode::Recovering) {
                Mode::Inline { engine, violations } => {
                    self.report.processed = self.next_seq;
                    self.report.violations = violations.into_iter().map(|(_, v)| v).collect();
                    self.seal();
                    return (
                        FaultOutcome {
                            report: self.report,
                            faults: self.faults,
                            timings: self.timings,
                        },
                        *engine,
                    );
                }
                Mode::Streaming { tx, handle } => {
                    drop(tx);
                    match handle.join() {
                        Err(_) => self.rebuild(DegradeCause::ConsumerPanic),
                        Ok(out) => match out.end {
                            LifeEnd::Completed if out.next_seq == self.next_seq => {
                                self.faults.merge(out.faults);
                                self.timings.dup_discarded =
                                    self.timings.dup_discarded.saturating_add(out.dup_discarded);
                                latch_obs::timing_add("mt.dup_discarded", out.dup_discarded);
                                self.report.processed = out.next_seq;
                                self.report.violations =
                                    out.violations.into_iter().map(|(_, v)| v).collect();
                                self.seal();
                                return (
                                    FaultOutcome {
                                        report: self.report,
                                        faults: self.faults,
                                        timings: self.timings,
                                    },
                                    out.engine,
                                );
                            }
                            LifeEnd::Completed => {
                                self.absorb_failed_life(&out);
                                self.rebuild(DegradeCause::IntegrityGap);
                            }
                            LifeEnd::Died => {
                                self.absorb_failed_life(&out);
                                self.rebuild(DegradeCause::ConsumerDeath);
                            }
                            LifeEnd::IntegrityGap => {
                                self.absorb_failed_life(&out);
                                self.rebuild(DegradeCause::IntegrityGap);
                            }
                            LifeEnd::Abandoned => {
                                self.absorb_failed_life(&out);
                                self.rebuild(DegradeCause::Stall);
                            }
                        },
                    }
                }
                Mode::Recovering => unreachable!("finish owns the mode"),
            }
        }
    }

    fn seal(&mut self) {
        if let Some(pipe) = &self.screen {
            self.report.scrub = pipe.latch().stats().scrub;
        }
        self.faults.merge(self.inj.stats());
        latch_obs::counter_add("systems.platch_mt.instrs", self.report.instrs);
        latch_obs::counter_add("systems.platch_mt.enqueued", self.report.enqueued);
        latch_obs::counter_add("systems.platch_mt.inline_events", self.report.inline_events);
    }
}

/// Runs the two-thread organization under an injected [`FaultPlan`].
/// With `filter: true` the producer enqueues only events whose coarse
/// screen fires (plus taint-state changes and whole active windows
/// around them); with `filter: false` every event is forwarded (LBA
/// baseline).
///
/// Returns the [`FaultOutcome`] and the surviving lineage's final DIFT
/// engine (so callers can compare taint state with a reference run).
pub fn run_resilient(
    events: Vec<Event>,
    queue_capacity: usize,
    filter: bool,
    plan: FaultPlan,
    cfg: ResilienceConfig,
) -> (FaultOutcome, DiftEngine) {
    let mut driver = Driver {
        cfg,
        plan,
        queue_capacity: queue_capacity.max(1),
        shared: Arc::new(Shared::new()),
        inj: FaultInjector::new(plan),
        screen: filter.then(|| SessionPipeline::new(cfg.scrub_interval)),
        next_seq: 0,
        buffer: VecDeque::new(),
        held: None,
        lives_started: 0,
        restarts_used: 0,
        report: MtReport::default(),
        timings: MtTimings::default(),
        faults: FaultStats::default(),
        mode: Mode::Recovering,
    };
    driver.spawn_streaming(Checkpoint::fresh());
    for (i, ev) in events.into_iter().enumerate() {
        driver.step(i as u64, ev);
    }
    driver.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use latch_sim::event::EventSource;
    use latch_workloads::BenchmarkProfile;

    #[test]
    fn send_backoff_saturates_at_overflow_boundaries() {
        // Extreme inputs must neither panic nor wrap: the wait is
        // capped and the stale budget check still terminates.
        let mut b = SendBackoff::new(u64::MAX, u32::MAX);
        for _ in 0..10_000 {
            assert!(!b.stale(), "budget of u32::MAX cannot be exhausted here");
            assert!(b.wait() <= Duration::from_millis(u64::MAX));
        }
        // Near the u32 budget boundary the counter saturates instead
        // of wrapping back below the budget.
        let mut b = SendBackoff::new(1, u32::MAX);
        b.stale_rounds = u32::MAX - 1;
        assert!(b.stale(), "saturated counter must reach the budget");
        assert!(b.stale(), "and stay there on further rounds");
    }

    #[test]
    fn send_backoff_doubles_then_caps() {
        let mut b = SendBackoff::new(3, 100);
        assert_eq!(b.wait(), Duration::from_millis(3));
        assert!(!b.stale());
        assert_eq!(b.wait(), Duration::from_millis(6));
        assert!(!b.stale());
        assert_eq!(b.wait(), Duration::from_millis(12));
        for _ in 0..10 {
            assert!(!b.stale());
        }
        assert_eq!(
            b.wait(),
            Duration::from_millis(SendBackoff::CAP_MS),
            "exponential growth is capped"
        );
        b.progress();
        assert_eq!(b.wait(), Duration::from_millis(3), "progress resets to base");
    }

    #[test]
    fn send_backoff_zero_budget_stalls_immediately() {
        let mut b = SendBackoff::new(0, 0);
        assert_eq!(b.wait(), Duration::from_millis(1), "zero timeout is clamped");
        assert!(b.stale(), "zero budget means the first stale round stalls");
    }

    fn reference(profile: &BenchmarkProfile, seed: u64, events: u64) -> Vec<(u32, latch_dift::tag::TaintTag)> {
        let mut dift = DiftEngine::new();
        let mut src = profile.stream(seed, events);
        while let Some(ev) = src.next_event() {
            apply_event_dift(&mut dift, &ev);
        }
        let mut v: Vec<_> = dift.shadow().iter_tainted().collect();
        v.sort();
        v
    }

    fn materialize(profile: &BenchmarkProfile, seed: u64, events: u64) -> Vec<Event> {
        let mut src = profile.stream(seed, events);
        let mut out = Vec::new();
        while let Some(ev) = src.next_event() {
            out.push(ev);
        }
        out
    }

    /// Benign-plan run through the resilient path.
    fn run_clean(
        profile: &BenchmarkProfile,
        seed: u64,
        events: u64,
        queue_capacity: usize,
        filter: bool,
    ) -> (MtReport, DiftEngine) {
        let (outcome, dift) = run_resilient(
            materialize(profile, seed, events),
            queue_capacity,
            filter,
            FaultPlan::benign(),
            ResilienceConfig::default(),
        );
        (outcome.report, dift)
    }

    #[test]
    fn unfiltered_monitor_sees_everything() {
        let p = BenchmarkProfile::by_name("hmmer").unwrap();
        let (report, dift) = run_clean(&p, 1, 20_000, 256, false);
        assert_eq!(report.instrs, 20_000);
        assert_eq!(report.enqueued, 20_000);
        assert_eq!(report.processed, 20_000);
        assert!(!report.degraded());
        let mut v: Vec<_> = dift.shadow().iter_tainted().collect();
        v.sort();
        assert_eq!(v, reference(&p, 1, 20_000));
    }

    #[test]
    fn filtered_monitor_reaches_identical_taint_state() {
        for name in ["gromacs", "perlbench"] {
            let p = BenchmarkProfile::by_name(name).unwrap();
            let (report, dift) = run_clean(&p, 2, 30_000, 256, true);
            assert!(report.enqueued < report.instrs, "{name}: filter must drop events");
            assert_eq!(report.processed, report.enqueued);
            let mut v: Vec<_> = dift.shadow().iter_tainted().collect();
            v.sort();
            assert_eq!(v, reference(&p, 2, 30_000), "{name}");
        }
    }

    #[test]
    fn filtering_slashes_queue_traffic_on_quiet_workloads() {
        let p = BenchmarkProfile::by_name("bzip2").unwrap();
        let (unfiltered, _) = run_clean(&p, 3, 30_000, 256, false);
        let (filtered, _) = run_clean(&p, 3, 30_000, 256, true);
        assert!(
            filtered.enqueued * 2 < unfiltered.enqueued,
            "filtered {} vs unfiltered {}",
            filtered.enqueued,
            unfiltered.enqueued
        );
    }

    #[test]
    fn no_violations_invented() {
        let p = BenchmarkProfile::by_name("curl").unwrap();
        let (report, _) = run_clean(&p, 4, 20_000, 64, true);
        assert!(report.violations.is_empty());
    }

    #[test]
    fn consumer_death_restarts_from_checkpoint() {
        let p = BenchmarkProfile::by_name("hmmer").unwrap();
        let events = materialize(&p, 5, 15_000);
        let plan = FaultPlan::new(11).with_consumer_death(2_000);
        let (out, dift) = run_resilient(events, 128, false, plan, ResilienceConfig::default());
        assert_eq!(out.faults.deaths, 1);
        assert_eq!(out.report.degradations.len(), 1);
        assert_eq!(out.report.degradations[0].cause, DegradeCause::ConsumerDeath);
        assert_eq!(out.report.degradations[0].action, RecoveryAction::Restarted);
        assert_eq!(out.report.processed, out.report.enqueued);
        let mut v: Vec<_> = dift.shadow().iter_tainted().collect();
        v.sort();
        assert_eq!(v, reference(&p, 5, 15_000));
    }

    #[test]
    fn consumer_death_degrades_inline_when_restarts_exhausted() {
        let p = BenchmarkProfile::by_name("gromacs").unwrap();
        let events = materialize(&p, 6, 12_000);
        let plan = FaultPlan::new(12).with_consumer_death(1_000);
        let cfg = ResilienceConfig {
            recovery: RecoveryPolicy::Degrade,
            ..ResilienceConfig::default()
        };
        let (out, dift) = run_resilient(events, 128, false, plan, cfg);
        assert_eq!(out.report.degradations.len(), 1);
        assert_eq!(out.report.degradations[0].action, RecoveryAction::Inline);
        assert!(out.report.inline_events > 0);
        assert_eq!(out.report.processed, out.report.enqueued);
        let mut v: Vec<_> = dift.shadow().iter_tainted().collect();
        v.sort();
        assert_eq!(v, reference(&p, 6, 12_000));
    }

    #[test]
    fn queue_faults_are_survived_without_losing_events() {
        let p = BenchmarkProfile::by_name("perlbench").unwrap();
        let events = materialize(&p, 7, 12_000);
        let plan = FaultPlan::new(13).with_queue_faults(5, 10, 10);
        let (out, dift) = run_resilient(events, 64, false, plan, ResilienceConfig::default());
        assert!(out.faults.drops + out.faults.dups + out.faults.reorders > 0);
        assert_eq!(out.report.processed, out.report.enqueued);
        let mut v: Vec<_> = dift.shadow().iter_tainted().collect();
        v.sort();
        assert_eq!(v, reference(&p, 7, 12_000));
    }

    #[test]
    fn watchdog_detects_silent_consumer() {
        let (tx, rx) = bounded::<Msg>(1);
        let shared = Shared::new();
        let cfg = ResilienceConfig {
            send_timeout_ms: 1,
            max_send_backoff: 3,
            ..ResilienceConfig::default()
        };
        let mut timings = MtTimings::default();
        let ev = BenchmarkProfile::by_name("hmmer")
            .unwrap()
            .stream(1, 1)
            .next_event()
            .unwrap();
        assert!(matches!(
            watchdog_send(&tx, &shared, &cfg, &mut timings, (0, ev)),
            SendVerdict::Delivered
        ));
        // Queue now full, receiver alive but never draining: the
        // watchdog must give up instead of blocking forever.
        assert!(matches!(
            watchdog_send(&tx, &shared, &cfg, &mut timings, (1, ev)),
            SendVerdict::Stalled
        ));
        assert_eq!(timings.watchdog_stalls, 1);
        drop(rx);
        assert!(matches!(
            watchdog_send(&tx, &shared, &cfg, &mut timings, (2, ev)),
            SendVerdict::Gone
        ));
    }
}
