//! P-LATCH: LATCH-filtered two-core log-based monitoring.
//!
//! Paper §5.2 / §6.2 (Fig. 11): a baseline LBA system extracts *every*
//! retired instruction into a shared FIFO that a second core drains at
//! DIFT-analysis speed; queue saturation stalls the monitored core,
//! which is where LBA's >3× overhead comes from. P-LATCH puts the LATCH
//! module on the monitored core and enqueues *only* the instructions
//! the coarse taint check flags, leaving the queue empty — and the
//! monitored core unstalled — for the long taint-free spans.
//!
//! Two models are provided, mirroring the paper:
//!
//! * [`analytic_overhead_pct`] — the paper's own §6.2 model: the
//!   reported LBA overhead, localized to the windows (1000-instruction
//!   granularity) that actually contain taint activity.
//! * [`QueueSim`] — a cycle-approximate bounded-FIFO simulation
//!   (producer at 1 IPC, consumer at the DIFT analysis rate) as an
//!   ablation, for both the unfiltered baseline and the LATCH-filtered
//!   stream.

use crate::baseline::{LBA_OPTIMIZED_SLOWDOWN, LBA_SIMPLE_SLOWDOWN};
use latch_core::config::LatchConfig;
use latch_core::error::ConfigError;
use latch_core::unit::LatchUnit;
use latch_dift::engine::DiftEngine;
use latch_sim::event::{Event, EventSource, MemAccessKind};
use latch_sim::machine::apply_event_dift;
use latch_sim::queue::{BoundedFifo, QueueStats};

/// Window size for activity localization (the paper measures P-LATCH
/// overhead "at 1000 instruction granularity").
pub const ACTIVITY_WINDOW: u64 = 1000;

/// Activity measurement over an event stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ActivityReport {
    /// Instructions observed.
    pub instrs: u64,
    /// Windows of [`ACTIVITY_WINDOW`] instructions containing at least
    /// one taint-touching instruction.
    pub active_windows: u64,
    /// Total windows.
    pub total_windows: u64,
}

impl ActivityReport {
    /// Fraction of windows with taint activity, in `[0, 1]`.
    pub fn active_fraction(&self) -> f64 {
        if self.total_windows == 0 {
            0.0
        } else {
            self.active_windows as f64 / self.total_windows as f64
        }
    }
}

/// Measures taint activity at window granularity by running the precise
/// tier over the stream.
pub fn measure_activity<S: EventSource>(mut src: S) -> ActivityReport {
    let mut dift = DiftEngine::new();
    let mut report = ActivityReport::default();
    let mut window_active = false;
    let mut in_window = 0u64;
    while let Some(ev) = src.next_event() {
        let step = apply_event_dift(&mut dift, &ev);
        report.instrs += 1;
        window_active |= step.touched_taint;
        in_window += 1;
        if in_window == ACTIVITY_WINDOW {
            report.total_windows += 1;
            if window_active {
                report.active_windows += 1;
            }
            window_active = false;
            in_window = 0;
        }
    }
    if in_window > 0 {
        report.total_windows += 1;
        if window_active {
            report.active_windows += 1;
        }
    }
    report
}

/// The paper's analytic P-LATCH model (§6.2): the baseline monitor's
/// overhead applies only during active windows.
///
/// `lba_slowdown` is the baseline two-core monitor's slowdown over
/// native (e.g. [`LBA_SIMPLE_SLOWDOWN`] or [`LBA_OPTIMIZED_SLOWDOWN`]).
/// Returns the P-LATCH overhead over native, in percent.
pub fn analytic_overhead_pct(activity: &ActivityReport, lba_slowdown: f64) -> f64 {
    (lba_slowdown - 1.0) * 100.0 * activity.active_fraction()
}

/// Per-benchmark Fig. 15 row: baseline and P-LATCH overheads for both
/// LBA integrations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PLatchReport {
    /// Activity measurement the model is based on.
    pub activity: ActivityReport,
    /// Baseline (unfiltered) simple-LBA overhead, percent.
    pub lba_simple_overhead_pct: f64,
    /// P-LATCH over simple LBA, percent.
    pub platch_simple_overhead_pct: f64,
    /// Baseline optimized-LBA overhead, percent.
    pub lba_optimized_overhead_pct: f64,
    /// P-LATCH over optimized LBA, percent.
    pub platch_optimized_overhead_pct: f64,
}

/// Runs the analytic model for a stream.
pub fn analyze<S: EventSource>(src: S) -> PLatchReport {
    let activity = measure_activity(src);
    PLatchReport {
        activity,
        lba_simple_overhead_pct: (LBA_SIMPLE_SLOWDOWN - 1.0) * 100.0,
        platch_simple_overhead_pct: analytic_overhead_pct(&activity, LBA_SIMPLE_SLOWDOWN),
        lba_optimized_overhead_pct: (LBA_OPTIMIZED_SLOWDOWN - 1.0) * 100.0,
        platch_optimized_overhead_pct: analytic_overhead_pct(&activity, LBA_OPTIMIZED_SLOWDOWN),
    }
}

/// Result of the bounded-FIFO queue simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueueSimReport {
    /// Instructions retired by the monitored core.
    pub instrs: u64,
    /// Monitored-core cycles (instructions + stalls).
    pub producer_cycles: u64,
    /// Stall cycles waiting for queue space.
    pub stall_cycles: u64,
    /// Events enqueued for the monitor.
    pub enqueued: u64,
    /// Queue counters.
    pub queue: QueueStats,
}

impl QueueSimReport {
    /// Monitored-core overhead over native, in percent.
    pub fn overhead_pct(&self) -> f64 {
        if self.instrs == 0 {
            0.0
        } else {
            100.0 * self.stall_cycles as f64 / self.instrs as f64
        }
    }
}

/// A cycle-approximate two-core queue simulation.
///
/// The producer retires one instruction per cycle; the consumer spends
/// `analysis_cycles_per_event` on each dequeued event. With
/// `filter: true` the LATCH module screens events and only coarse hits
/// (plus taint-state updates) are enqueued; with `filter: false` every
/// instruction is enqueued (baseline LBA).
#[derive(Debug)]
pub struct QueueSim {
    latch: Option<LatchUnit>,
    dift: DiftEngine,
    queue: BoundedFifo<u64>,
    analysis_cycles_per_event: u64,
    credits: u64,
    report: QueueSimReport,
}

impl QueueSim {
    /// Creates a queue simulation.
    ///
    /// `queue_capacity` is the shared FIFO depth; the paper's LBA uses
    /// a log buffer on the order of a few KB of entries.
    ///
    /// # Panics
    ///
    /// Panics if `queue_capacity == 0`; use [`QueueSim::try_new`] to
    /// handle the misconfiguration instead.
    pub fn new(filter: bool, queue_capacity: usize, analysis_cycles_per_event: u64) -> Self {
        Self::try_new(filter, queue_capacity, analysis_cycles_per_event)
            .expect("queue capacity must be positive")
    }

    /// Fallible variant of [`QueueSim::new`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroEntries`] when `queue_capacity == 0`.
    pub fn try_new(
        filter: bool,
        queue_capacity: usize,
        analysis_cycles_per_event: u64,
    ) -> Result<Self, ConfigError> {
        Ok(Self {
            latch: filter.then(|| {
                LatchUnit::new(LatchConfig::s_latch().build().expect("preset is valid"))
            }),
            dift: DiftEngine::new(),
            queue: BoundedFifo::try_new(queue_capacity)?,
            analysis_cycles_per_event: analysis_cycles_per_event.max(1),
            credits: 0,
            report: QueueSimReport::default(),
        })
    }

    fn consumer_tick(&mut self, cycles: u64) {
        self.credits += cycles;
        while self.credits >= self.analysis_cycles_per_event && !self.queue.is_empty() {
            self.queue.pop();
            self.credits -= self.analysis_cycles_per_event;
        }
        if self.queue.is_empty() {
            // The consumer cannot bank idle cycles.
            self.credits = self.credits.min(self.analysis_cycles_per_event);
        }
    }

    /// Runs the simulation over a stream.
    pub fn run<S: EventSource>(&mut self, mut src: S) -> QueueSimReport {
        let mut span = latch_obs::phase("platch.queue_sim");
        while let Some(ev) = src.next_event() {
            self.report.instrs += 1;
            self.report.producer_cycles += 1;
            self.consumer_tick(1);

            let enqueue = match &mut self.latch {
                None => true,
                Some(latch) => Self::coarse_hit(latch, &mut self.dift, &ev),
            };
            if enqueue {
                self.report.enqueued += 1;
                let mut item = self.report.instrs;
                // Stall until the queue accepts the event.
                loop {
                    match self.queue.try_push(item) {
                        Ok(()) => break,
                        Err(back) => {
                            item = back;
                            self.report.stall_cycles += 1;
                            self.report.producer_cycles += 1;
                            self.consumer_tick(1);
                        }
                    }
                }
            }
        }
        self.report.queue = *self.queue.stats();
        span.instrs(self.report.instrs);
        latch_obs::counter_add("systems.platch.enqueued", self.report.enqueued);
        latch_obs::counter_add("systems.platch.stall_cycles", self.report.stall_cycles);
        latch_obs::watermark(
            "systems.platch.queue_high_water",
            self.report.queue.max_occupancy as u64,
        );
        self.report
    }

    /// The filtered enqueue decision: coarse taint screen on the
    /// monitored core, with the precise state maintained (the monitor
    /// core would do this; we keep it inline so the coarse state stays
    /// correct).
    fn coarse_hit(latch: &mut LatchUnit, dift: &mut DiftEngine, ev: &Event) -> bool {
        let mut hit = ev
            .regs
            .reads()
            .any(|r| latch.reg_tainted(r as usize))
            || ev
                .regs
                .written
                .is_some_and(|w| latch.reg_tainted(w as usize));
        if let Some(mem) = ev.mem {
            let out = match mem.kind {
                MemAccessKind::Read => latch.check_read(mem.addr, mem.len),
                MemAccessKind::Write => latch.check_write(mem.addr, mem.len),
            };
            hit |= out.coarse_tainted;
        }
        if ev.source.is_some() {
            hit = true;
        }
        // Maintain precise + coarse state (monitor-side work).
        let step = apply_event_dift(dift, ev);
        if let Some((addr, len, tainted)) = step.mem_taint_write {
            latch.write_taint(addr, len, tainted);
            if !tainted {
                latch.clear_scan(dift.shadow());
            }
        }
        // TRF mirrors the precise register state (P-LATCH keeps the
        // extraction-side screen coherent through taint updates).
        let packed = dift.regs().to_packed();
        latch.trf_mut().load_packed(packed);
        hit || step.touched_taint
    }
}


/// Results of the lagged-coarse-state queue simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaggedReport {
    /// Events retired by the monitored core.
    pub instrs: u64,
    /// Events enqueued for the monitor.
    pub enqueued: u64,
    /// Producer stall cycles on a full queue.
    pub stall_cycles: u64,
    /// Skipped events that actually touched taint (screen false
    /// negatives — must be zero when the pending-update FIFO is on).
    pub false_negatives: u64,
    /// Pending-FIFO counters.
    pub pending: crate::pending::PendingStats,
}

/// The *honest* two-core model: taint propagation runs only on the
/// monitor core, so the monitored core's coarse state (CTC/CTT, TRF)
/// lags by the queue depth. Destination operands of in-flight events
/// are screened through the
/// [`PendingUpdates`](crate::pending::PendingUpdates) FIFO of paper
/// §5.2; switching it off reintroduces the outstanding-update race the
/// paper warns about (see the tests).
#[derive(Debug)]
pub struct LaggedQueueSim {
    latch: LatchUnit,
    monitor_dift: DiftEngine,
    oracle_dift: DiftEngine,
    queue: BoundedFifo<(Event, bool)>,
    pending: crate::pending::PendingUpdates,
    pending_regs: [u32; 16],
    use_pending: bool,
    analysis_cycles_per_event: u64,
    credits: u64,
    report: LaggedReport,
}

impl LaggedQueueSim {
    /// Creates the simulation. `use_pending` enables the §5.2
    /// outstanding-update FIFO (the sound configuration).
    ///
    /// # Panics
    ///
    /// Panics if `queue_capacity == 0`; use [`LaggedQueueSim::try_new`]
    /// to handle the misconfiguration instead.
    pub fn new(queue_capacity: usize, analysis_cycles_per_event: u64, use_pending: bool) -> Self {
        Self::try_new(queue_capacity, analysis_cycles_per_event, use_pending)
            .expect("queue capacity must be positive")
    }

    /// Fallible variant of [`LaggedQueueSim::new`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroEntries`] when `queue_capacity == 0`.
    pub fn try_new(
        queue_capacity: usize,
        analysis_cycles_per_event: u64,
        use_pending: bool,
    ) -> Result<Self, ConfigError> {
        Ok(Self {
            latch: LatchUnit::new(LatchConfig::s_latch().build().expect("preset is valid")),
            monitor_dift: DiftEngine::new(),
            oracle_dift: DiftEngine::new(),
            queue: BoundedFifo::try_new(queue_capacity)?,
            pending: crate::pending::PendingUpdates::new(),
            pending_regs: [0; 16],
            use_pending,
            analysis_cycles_per_event: analysis_cycles_per_event.max(1),
            credits: 0,
            report: LaggedReport::default(),
        })
    }

    /// The monitor-side DIFT engine (authoritative taint state for the
    /// analysed stream).
    pub fn monitor_dift(&self) -> &DiftEngine {
        &self.monitor_dift
    }

    fn consumer_tick(&mut self, cycles: u64) {
        self.credits += cycles;
        while self.credits >= self.analysis_cycles_per_event {
            let Some((ev, tracked)) = self.queue.pop() else {
                self.credits = self.credits.min(self.analysis_cycles_per_event);
                return;
            };
            self.credits -= self.analysis_cycles_per_event;
            // Monitor work: precise analysis, then coarse-state update
            // signalled back to the monitored core.
            let step = apply_event_dift(&mut self.monitor_dift, &ev);
            if let Some((addr, len, tainted)) = step.mem_taint_write {
                self.latch.write_taint(addr, len, tainted);
                if !tainted {
                    self.latch.clear_scan(self.monitor_dift.shadow());
                }
            }
            let packed = self.monitor_dift.regs().to_packed();
            self.latch.trf_mut().load_packed(packed);
            if tracked {
                self.pending.ack();
            }
            if let Some(w) = ev.regs.written {
                let slot = &mut self.pending_regs[w as usize & 15];
                *slot = slot.saturating_sub(1);
            }
        }
    }

    fn screen(&mut self, ev: &Event) -> bool {
        let mut hit = ev
            .regs
            .reads()
            .any(|r| self.latch.reg_tainted(r as usize))
            || ev
                .regs
                .written
                .is_some_and(|w| self.latch.reg_tainted(w as usize));
        if self.use_pending {
            hit |= ev.regs.reads().any(|r| self.pending_regs[r as usize & 15] > 0)
                || ev
                    .regs
                    .written
                    .is_some_and(|w| self.pending_regs[w as usize & 15] > 0);
        }
        if let Some(mem) = ev.mem {
            let out = match mem.kind {
                MemAccessKind::Read => self.latch.check_read(mem.addr, mem.len),
                MemAccessKind::Write => self.latch.check_write(mem.addr, mem.len),
            };
            hit |= out.coarse_tainted;
            if self.use_pending {
                hit |= self.pending.covers(mem.addr, mem.len);
            }
        }
        hit || ev.source.is_some() || ev.ctrl.is_some() || ev.sink.is_some()
    }

    /// Runs the simulation over an event stream.
    pub fn run<S: EventSource>(&mut self, mut src: S) -> LaggedReport {
        let mut span = latch_obs::phase("platch.lagged_sim");
        while let Some(ev) = src.next_event() {
            self.report.instrs += 1;
            self.consumer_tick(1);
            let enqueue = self.screen(&ev);
            // Oracle: the taint truth if analysis were synchronous.
            let oracle_step = apply_event_dift(&mut self.oracle_dift, &ev);
            if enqueue {
                self.report.enqueued += 1;
                // Track the destination operand while the event is in
                // flight (paper §5.2).
                let tracked = match oracle_step.mem_taint_write {
                    Some((addr, len, _)) => {
                        self.pending.push(addr, len);
                        true
                    }
                    None => false,
                };
                if let Some(w) = ev.regs.written {
                    self.pending_regs[w as usize & 15] += 1;
                }
                let mut item = (ev, tracked);
                loop {
                    match self.queue.try_push(item) {
                        Ok(()) => break,
                        Err(back) => {
                            item = back;
                            self.report.stall_cycles += 1;
                            self.consumer_tick(1);
                        }
                    }
                }
            } else if oracle_step.touched_taint {
                // The screen let a taint-touching event through
                // unanalysed: a false negative.
                self.report.false_negatives += 1;
            }
        }
        // Drain the queue.
        while !self.queue.is_empty() {
            self.consumer_tick(self.analysis_cycles_per_event);
        }
        self.report.pending = *self.pending.stats();
        span.instrs(self.report.instrs);
        latch_obs::counter_add("systems.platch.lagged.enqueued", self.report.enqueued);
        latch_obs::counter_add(
            "systems.platch.lagged.false_negatives",
            self.report.false_negatives,
        );
        latch_obs::watermark(
            "systems.platch.lagged.queue_high_water",
            self.queue.stats().max_occupancy as u64,
        );
        self.report.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latch_workloads::BenchmarkProfile;

    #[test]
    fn activity_fraction_tracks_taint_density() {
        let low = BenchmarkProfile::by_name("bzip2").unwrap();
        let high = BenchmarkProfile::by_name("astar").unwrap();
        let a_low = measure_activity(low.stream(3, 200_000));
        let a_high = measure_activity(high.stream(3, 200_000));
        assert!(a_low.active_fraction() < 0.2, "{}", a_low.active_fraction());
        assert!(a_high.active_fraction() > 0.5, "{}", a_high.active_fraction());
    }

    #[test]
    fn analytic_model_matches_hand_computation() {
        let activity = ActivityReport {
            instrs: 10_000,
            active_windows: 2,
            total_windows: 10,
        };
        // 20 % active windows × 338 % LBA overhead = 67.6 %.
        let pct = analytic_overhead_pct(&activity, LBA_SIMPLE_SLOWDOWN);
        assert!((pct - 67.6).abs() < 1e-9);
    }

    #[test]
    fn platch_beats_baseline_lba() {
        let p = BenchmarkProfile::by_name("gcc").unwrap();
        let report = analyze(p.stream(17, 150_000));
        assert!(report.platch_simple_overhead_pct < report.lba_simple_overhead_pct / 2.0);
        assert!(report.platch_optimized_overhead_pct < report.lba_optimized_overhead_pct);
    }

    #[test]
    fn queue_sim_baseline_stalls_filtered_does_not() {
        let p = BenchmarkProfile::by_name("gromacs").unwrap();
        // Analysis slower than retirement: the unfiltered queue must
        // saturate.
        let mut base = QueueSim::new(false, 1024, 4);
        let base_report = base.run(p.stream(8, 60_000));
        assert!(base_report.overhead_pct() > 100.0, "{}", base_report.overhead_pct());

        let mut filt = QueueSim::new(true, 1024, 4);
        let filt_report = filt.run(p.stream(8, 60_000));
        assert!(
            filt_report.overhead_pct() < base_report.overhead_pct() / 2.0,
            "filtered {} vs baseline {}",
            filt_report.overhead_pct(),
            base_report.overhead_pct()
        );
        assert!(filt_report.enqueued < base_report.enqueued / 2);
    }

    #[test]
    fn lagged_sim_with_pending_fifo_has_no_false_negatives() {
        for name in ["gromacs", "perlbench", "apache"] {
            let p = BenchmarkProfile::by_name(name).unwrap();
            // Slow monitor: a deep lag window to stress the race.
            let mut sim = LaggedQueueSim::new(512, 6, true);
            let report = sim.run(p.stream(5, 40_000));
            assert_eq!(
                report.false_negatives, 0,
                "{name}: the §5.2 FIFO must prevent screen false negatives"
            );
            assert!(report.enqueued < report.instrs, "{name}: still filtering");
        }
    }

    #[test]
    fn disabling_the_pending_fifo_reintroduces_the_race() {
        // A crafted stream: a source taints X, and the very next
        // instruction reads X — while the source event is still queued
        // (slow monitor). Without the §5.2 FIFO, the stale coarse state
        // screens the read out: a false negative.
        use latch_dift::policy::SourceKind;
        use latch_dift::prop::PropRule;
        use latch_sim::event::{MemAccess, MemAccessKind, RegsUsed, SourceInput, VecSource};

        let mut events = Vec::new();
        let mut e1 = Event::empty(0);
        e1.source = Some(SourceInput { kind: SourceKind::File, addr: 0x9000, len: 16, trusted: false });
        e1.prop = Some(PropRule::StoreImm { addr: 0x9000, len: 16 });
        e1.mem = Some(MemAccess { addr: 0x9000, len: 16, kind: MemAccessKind::Write });
        events.push(e1);
        let mut e2 = Event::empty(1);
        e2.prop = Some(PropRule::Load { dst: 5, addr: 0x9000, len: 4 });
        e2.mem = Some(MemAccess { addr: 0x9000, len: 4, kind: MemAccessKind::Read });
        e2.regs = RegsUsed::new([Some(6), None], Some(5));
        events.push(e2);

        let mut racy = LaggedQueueSim::new(64, 100, false);
        let report = racy.run(VecSource::new(events.clone()));
        assert_eq!(report.false_negatives, 1, "the race must bite without the FIFO");

        let mut sound = LaggedQueueSim::new(64, 100, true);
        let report = sound.run(VecSource::new(events));
        assert_eq!(report.false_negatives, 0, "the FIFO closes the race");
        assert!(report.pending.conservative_hits >= 1);
    }

    #[test]
    fn lagged_monitor_reaches_reference_taint_state() {
        let p = BenchmarkProfile::by_name("soplex").unwrap();
        let mut sim = LaggedQueueSim::new(1024, 3, true);
        sim.run(p.stream(9, 30_000));
        let mut reference = DiftEngine::new();
        let mut src = p.stream(9, 30_000);
        while let Some(ev) = src.next_event() {
            apply_event_dift(&mut reference, &ev);
        }
        let mut a: Vec<_> = sim.monitor_dift().shadow().iter_tainted().collect();
        let mut b: Vec<_> = reference.shadow().iter_tainted().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "lagged monitor must converge to the reference state");
    }

    #[test]
    fn queue_sim_never_loses_events() {
        let p = BenchmarkProfile::by_name("hmmer").unwrap();
        let mut sim = QueueSim::new(false, 64, 2);
        let report = sim.run(p.stream(2, 20_000));
        assert_eq!(report.enqueued, report.instrs);
        assert_eq!(report.queue.pushes, report.enqueued);
    }
}
