//! S-LATCH: hardware-gated software DIFT on a single core.
//!
//! Paper §5.1 / §6.1. In **hardware mode** the program runs natively
//! (1 cycle/instruction) while LATCH screens every operand: registers
//! against the TRF, memory against the TLB taint bits and the CTC. A
//! coarse hit traps to the exception handler, which filters false
//! positives against the precise taint state (`ltnt` + shadow lookup)
//! and, on confirmation, transfers control to the DBI-instrumented
//! image. In **software mode** every instruction pays the benchmark's
//! libdft slowdown while the precise engine propagates and validates;
//! after 1000 consecutive instructions without touching taint, the
//! software layer runs the clear-scan, reloads the TRF with `strf`, and
//! returns to hardware.
//!
//! The cycle ledger separates the Fig. 14 overhead sources:
//! instrumentation, control transfer, false-positive checks, and CTC
//! misses.

use crate::baseline::LibdftBaseline;
use crate::cost::CostModel;
use latch_core::config::{LatchConfig, LatchParams};
use latch_core::mode::{Mode, ModeController, TrapOutcome};
use latch_core::unit::LatchUnit;
use latch_core::PreciseView;
use latch_dift::engine::DiftEngine;
use latch_dift::policy::TaintPolicy;
use latch_sim::event::{Event, EventSource, MemAccessKind};
use latch_sim::machine::apply_event_dift;
use latch_workloads::BenchmarkProfile;

/// Cycle attribution by overhead source (paper Fig. 14).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverheadBreakdown {
    /// Extra cycles from running instructions under DBI instrumentation
    /// (libdft propagation/validation code).
    pub instrumentation: f64,
    /// Context save/restore plus code-cache reloads on mode switches.
    pub control_transfer: f64,
    /// Exception-handler cycles filtering traps (true and false
    /// positives) and clear-scan work.
    pub fp_checks: f64,
    /// CTC and TLB fill penalties.
    pub ctc_misses: f64,
}

impl OverheadBreakdown {
    /// Total overhead cycles.
    pub fn total(&self) -> f64 {
        self.instrumentation + self.control_transfer + self.fp_checks + self.ctc_misses
    }
}

/// Results of one S-LATCH run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SLatchReport {
    /// Instructions retired.
    pub instrs: u64,
    /// Native-execution cycles (1/instruction).
    pub native_cycles: u64,
    /// Total modelled cycles under S-LATCH.
    pub total_cycles: f64,
    /// Attribution of overhead cycles.
    pub breakdown: OverheadBreakdown,
    /// Fraction of instructions run in software mode.
    pub software_fraction: f64,
    /// Traps raised / dismissed as false positives.
    pub traps: u64,
    /// False-positive traps.
    pub false_positives: u64,
    /// Mode switches into software.
    pub software_entries: u64,
    /// Security violations raised by the precise tier.
    pub violations: u64,
    /// The libdft baseline slowdown used for software mode.
    pub libdft_slowdown: f64,
}

impl SLatchReport {
    /// S-LATCH overhead over native, in percent.
    pub fn overhead_pct(&self) -> f64 {
        if self.native_cycles == 0 {
            return 0.0;
        }
        100.0 * (self.total_cycles / self.native_cycles as f64 - 1.0)
    }

    /// Overhead of always-on software DIFT over native, in percent.
    pub fn libdft_overhead_pct(&self) -> f64 {
        (self.libdft_slowdown - 1.0) * 100.0
    }

    /// Speedup of S-LATCH over always-on software DIFT.
    pub fn speedup_vs_libdft(&self) -> f64 {
        if self.total_cycles == 0.0 {
            return 1.0;
        }
        self.libdft_slowdown * self.native_cycles as f64 / self.total_cycles
    }
}

/// The assembled S-LATCH system.
#[derive(Debug, Clone)]
pub struct SLatch {
    latch: LatchUnit,
    dift: DiftEngine,
    mode: ModeController,
    cost: CostModel,
    libdft_slowdown: f64,
    code_cache_cycles: u64,
    breakdown: OverheadBreakdown,
    native_cycles: u64,
    violations: u64,
}

impl SLatch {
    /// Builds S-LATCH for a calibrated profile with the paper's
    /// configuration (64-byte domains, 16-entry CTC, 1000-instruction
    /// timeout) and default cost model.
    pub fn for_profile(profile: &BenchmarkProfile) -> Self {
        let params = LatchConfig::s_latch().build().expect("preset is valid");
        Self::new(
            params,
            CostModel::default(),
            LibdftBaseline::for_profile(profile).slowdown,
            profile.code_cache_cycles,
        )
    }

    /// Builds a custom S-LATCH instance.
    pub fn new(
        params: LatchParams,
        cost: CostModel,
        libdft_slowdown: f64,
        code_cache_cycles: u64,
    ) -> Self {
        let timeout = params.sw_timeout;
        Self {
            latch: LatchUnit::new(params),
            dift: DiftEngine::with_policy(TaintPolicy::default()),
            mode: ModeController::new(timeout),
            cost,
            libdft_slowdown,
            code_cache_cycles,
            breakdown: OverheadBreakdown::default(),
            native_cycles: 0,
            violations: 0,
        }
    }

    /// The current mode.
    pub fn mode(&self) -> Mode {
        self.mode.mode()
    }

    /// The precise DIFT engine (for inspection).
    pub fn dift(&self) -> &DiftEngine {
        &self.dift
    }

    /// The LATCH unit (for inspection).
    pub fn latch(&self) -> &LatchUnit {
        &self.latch
    }

    /// Whether the event's operands are *precisely* tainted — the
    /// exception handler's check (§5.1.2).
    fn precisely_tainted(&self, ev: &Event) -> bool {
        if let Some(mem) = ev.mem {
            if self.dift.shadow().any_tainted(mem.addr, mem.len) {
                return true;
            }
        }
        for r in ev.regs.reads() {
            if self.dift.regs().is_tainted(r as usize) {
                return true;
            }
        }
        if let Some(w) = ev.regs.written {
            if self.dift.regs().is_tainted(w as usize) {
                return true;
            }
        }
        false
    }

    /// Processes one retired instruction.
    pub fn on_event(&mut self, ev: &Event) {
        self.native_cycles += 1;
        match self.mode.mode() {
            Mode::Hardware => self.on_event_hardware(ev),
            Mode::Software => self.on_event_software(ev),
        }
    }

    fn on_event_hardware(&mut self, ev: &Event) {
        // Taint initialization runs in the S-LATCH software layer even
        // while the program is in hardware mode (§5.1.1): syscall inputs
        // update the precise state and, through `stnt`, the coarse state.
        if let Some(src) = ev.source {
            if !src.trusted
                && self
                    .dift
                    .source_input(src.kind, src.addr, src.len)
                    .is_some()
            {
                // `stnt` is a store: CTT-word fetches on the write path
                // are absorbed by the write buffer and do not stall.
                self.latch.write_taint(src.addr, src.len, true);
                let domains = u64::from(src.len / self.latch.geometry().domain_bytes() + 1);
                self.breakdown.fp_checks += (self.cost.taint_init_cycles_per_domain * domains) as f64;
            } else {
                // Trusted input overwrites the buffer: any stale precise
                // taint dies; the coarse state catches up at the next
                // clear-scan, so just update the precise layer.
                self.dift.shadow_mut().clear_range(src.addr, src.len);
            }
        }

        // The coarse screen: TRF for registers, TLB+CTC for memory.
        let mut coarse_hit = ev.regs.reads().any(|r| self.latch.reg_tainted(r as usize))
            || ev
                .regs
                .written
                .is_some_and(|w| self.latch.reg_tainted(w as usize));
        if let Some(mem) = ev.mem {
            let out = match mem.kind {
                MemAccessKind::Read => self.latch.check_read(mem.addr, mem.len),
                MemAccessKind::Write => self.latch.check_write(mem.addr, mem.len),
            };
            self.breakdown.ctc_misses += out.penalty_cycles as f64;
            coarse_hit |= out.coarse_tainted;
        }

        if coarse_hit {
            // Trap: the handler checks the precise state (`ltnt`).
            self.breakdown.fp_checks += self.cost.fp_check_cycles as f64;
            let precise = self.precisely_tainted(ev);
            match self.mode.on_trap(precise) {
                TrapOutcome::FalsePositive => {
                    // Return to the native image; nothing else to do.
                }
                TrapOutcome::EnterSoftware => {
                    // Transfer to the instrumented image: context switch
                    // plus a code-cache load for the current trace.
                    latch_obs::emit(
                        "systems.slatch",
                        latch_obs::TraceEvent::EngineEnter {
                            system: "slatch",
                            at_instr: self.native_cycles,
                        },
                    );
                    self.breakdown.control_transfer +=
                        (self.cost.ctx_switch_cycles + self.code_cache_cycles) as f64;
                    // The trapped instruction re-executes under
                    // instrumentation.
                    self.breakdown.instrumentation += (self.libdft_slowdown - 1.0).max(0.0);
                    self.apply_precise(ev);
                    self.mode.on_instruction(true);
                    return;
                }
            }
        }
        // Clean instruction in hardware mode: native speed. The precise
        // state cannot change (debug-asserted below).
        debug_assert!(
            !self.precisely_tainted(ev),
            "coarse screen missed a precisely tainted operand (false negative)"
        );
        self.mode.on_instruction(false);
    }

    fn on_event_software(&mut self, ev: &Event) {
        // Every software-mode instruction pays the instrumentation tax.
        self.breakdown.instrumentation += (self.libdft_slowdown - 1.0).max(0.0);
        let touched = self.apply_precise(ev);
        if self.mode.on_instruction(touched) {
            // Timeout expired: clear-scan, strf, and return to hardware.
            latch_obs::emit(
                "systems.slatch",
                latch_obs::TraceEvent::EngineExit {
                    system: "slatch",
                    at_instr: self.native_cycles,
                },
            );
            let report = self.latch.clear_scan(&ShadowView(&self.dift));
            self.breakdown.fp_checks +=
                (report.domains_scanned * self.cost.clear_scan_cycles_per_domain) as f64;
            let packed = self.dift.regs().to_packed();
            self.latch.trf_mut().load_packed(packed);
            self.breakdown.control_transfer +=
                (self.cost.ctx_switch_cycles + self.code_cache_cycles) as f64;
        }
    }

    /// Applies the precise tier and mirrors memory taint changes into
    /// the coarse state through the `stnt` path. Returns whether the
    /// event touched taint.
    fn apply_precise(&mut self, ev: &Event) -> bool {
        let step = apply_event_dift(&mut self.dift, ev);
        if step.violation.is_some() {
            self.violations += 1;
        }
        if let Some((addr, len, tainted)) = step.mem_taint_write {
            // Write path: CTT fetches are write-buffered, no stall.
            self.latch.write_taint(addr, len, tainted);
        }
        step.touched_taint
    }

    /// Drains an event source and reports.
    pub fn run<S: EventSource>(&mut self, mut src: S) -> SLatchReport {
        let start = self.native_cycles;
        let mut span = latch_obs::phase("slatch.run");
        while let Some(ev) = src.next_event() {
            self.on_event(&ev);
        }
        span.instrs(self.native_cycles - start);
        self.report()
    }

    /// Drives a CPU directly, wiring the program-visible S-LATCH ISA
    /// extensions (paper Table 5) to this system's LATCH unit: `stnt`
    /// updates both the precise and the coarse taint state, `strf`
    /// loads the TRF, and `ltnt` reads back the last exception address
    /// through the CPU's response port.
    ///
    /// # Errors
    ///
    /// Propagates [`latch_sim::cpu::SimError`] from the CPU.
    pub fn run_cpu(
        &mut self,
        cpu: &mut latch_sim::cpu::Cpu,
        max_instrs: u64,
    ) -> Result<SLatchReport, latch_sim::cpu::SimError> {
        while cpu.icount() < max_instrs {
            let Some(ev) = cpu.step()? else { break };
            if let Some(instr) = ev.latch {
                self.exec_program_latch(instr);
            }
            self.on_event(&ev);
            if let Some(addr) = self.latch.last_exception_addr() {
                cpu.set_latch_response(addr);
            }
        }
        Ok(self.report())
    }

    /// Executes a program-issued LATCH instruction. `stnt` mirrors its
    /// taint update into the precise shadow (the instrumented image
    /// keeps both states in sync, §5.1.3); `strf`/`ltnt` act on the
    /// hardware state only.
    fn exec_program_latch(&mut self, instr: latch_core::isa_ext::LatchInstr) {
        use latch_core::isa_ext::LatchInstr;
        if let LatchInstr::Stnt { addr, len, tainted } = instr {
            if tainted {
                self.dift
                    .taint_region(addr, len, latch_dift::tag::TaintTag::USER_INPUT);
            } else {
                self.dift.clear_region(addr, len);
            }
        }
        self.latch.exec(instr);
    }

    /// The measurements so far.
    pub fn report(&self) -> SLatchReport {
        let stats = self.mode.stats();
        SLatchReport {
            instrs: stats.instrs_total(),
            native_cycles: self.native_cycles,
            total_cycles: self.native_cycles as f64 + self.breakdown.total(),
            breakdown: self.breakdown,
            software_fraction: stats.software_fraction(),
            traps: stats.traps,
            false_positives: stats.false_positives,
            software_entries: stats.software_entries,
            violations: self.violations,
            libdft_slowdown: self.libdft_slowdown,
        }
    }
}

/// Adapter exposing the DIFT engine's shadow as a [`PreciseView`]
/// without borrowing the whole system.
struct ShadowView<'a>(&'a DiftEngine);

impl PreciseView for ShadowView<'_> {
    fn any_tainted(&self, start: latch_core::Addr, len: u32) -> bool {
        self.0.shadow().any_tainted(start, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latch_workloads::BenchmarkProfile;

    fn run_profile(name: &str, events: u64) -> SLatchReport {
        let p = BenchmarkProfile::by_name(name).unwrap();
        let mut s = SLatch::for_profile(&p);
        s.run(p.stream(21, events))
    }

    #[test]
    fn low_taint_benchmark_is_near_native() {
        // bzip2: 0.01 % taint, long epochs ⇒ close to native speed
        // (paper: 8 benchmarks under 5 % overhead).
        let r = run_profile("bzip2", 400_000);
        assert!(
            r.overhead_pct() < 15.0,
            "bzip2 overhead {:.1}% should be small",
            r.overhead_pct()
        );
        assert!(r.software_fraction < 0.05);
        assert!(r.speedup_vs_libdft() > 3.0);
    }

    #[test]
    fn fragmented_benchmark_stays_in_software() {
        // astar: free epochs shorter than the timeout ⇒ software mode
        // dominates and overhead approaches libdft (paper Fig. 13).
        let r = run_profile("astar", 300_000);
        assert!(r.software_fraction > 0.8, "sw fraction {}", r.software_fraction);
        let lib = r.libdft_overhead_pct();
        assert!(
            r.overhead_pct() > lib * 0.5,
            "astar S-LATCH {:.0}% should approach libdft {:.0}%",
            r.overhead_pct(),
            lib
        );
    }

    #[test]
    fn slatch_never_exceeds_libdft_by_much() {
        for name in ["gcc", "mcf", "wget", "apache"] {
            let r = run_profile(name, 200_000);
            assert!(
                r.overhead_pct() < r.libdft_overhead_pct() * 1.3 + 50.0,
                "{name}: S-LATCH {:.0}% vs libdft {:.0}%",
                r.overhead_pct(),
                r.libdft_overhead_pct()
            );
        }
    }

    #[test]
    fn mode_switches_are_bounded_by_bursts() {
        let r = run_profile("gromacs", 300_000);
        assert!(r.software_entries > 0, "bursts must enter software");
        assert!(r.traps >= r.software_entries);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let r = run_profile("perlbench", 150_000);
        assert!(
            (r.total_cycles - (r.native_cycles as f64 + r.breakdown.total())).abs() < 1e-6,
            "cycle ledger must balance"
        );
        assert!(r.breakdown.instrumentation > 0.0);
    }

    #[test]
    fn accuracy_is_preserved_vs_always_on_dift() {
        // The whole point of LATCH: the final precise taint state under
        // S-LATCH equals the state under always-on software DIFT.
        let p = BenchmarkProfile::by_name("gcc").unwrap();
        let mut s = SLatch::for_profile(&p);
        s.run(p.stream(33, 120_000));

        let mut reference = DiftEngine::new();
        let mut src = p.stream(33, 120_000);
        while let Some(ev) = src.next_event() {
            apply_event_dift(&mut reference, &ev);
        }
        // Compare tainted byte sets.
        let mut a: Vec<_> = s.dift().shadow().iter_tainted().collect();
        let mut b: Vec<_> = reference.shadow().iter_tainted().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "S-LATCH must not lose or invent taint");
    }

    #[test]
    fn trusted_source_clears_stale_taint_in_hardware_mode() {
        use latch_dift::policy::SourceKind;
        use latch_sim::event::{Event, MemAccess, MemAccessKind, SourceInput};
        let p = BenchmarkProfile::by_name("apache").unwrap();
        let mut s = SLatch::for_profile(&p);
        // Untrusted input taints a buffer... (events shaped as the CPU
        // emits them for recv: buffer overwrite + source input)
        let mut ev = Event::empty(0);
        ev.prop = Some(latch_dift::prop::PropRule::StoreImm { addr: 0x7000, len: 8 });
        ev.source = Some(SourceInput { kind: SourceKind::Socket, addr: 0x7000, len: 8, trusted: false });
        ev.mem = Some(MemAccess { addr: 0x7000, len: 8, kind: MemAccessKind::Write });
        s.on_event(&ev);
        assert!(s.dift().shadow().any_tainted(0x7000, 8));
        // ... and a later *trusted* read into the same buffer clears it.
        let mut ev = Event::empty(1);
        ev.prop = Some(latch_dift::prop::PropRule::StoreImm { addr: 0x7000, len: 8 });
        ev.source = Some(SourceInput { kind: SourceKind::Socket, addr: 0x7000, len: 8, trusted: true });
        ev.mem = Some(MemAccess { addr: 0x7000, len: 8, kind: MemAccessKind::Write });
        s.on_event(&ev);
        assert!(!s.dift().shadow().any_tainted(0x7000, 8));
        // The coarse state still covers precise (conservative until the
        // next clear-scan).
        assert!(s.latch().coarse_covers_precise(s.dift().shadow(), 0x7000, 64));
    }

    #[test]
    fn report_before_any_event_is_empty() {
        let p = BenchmarkProfile::by_name("gcc").unwrap();
        let s = SLatch::for_profile(&p);
        let r = s.report();
        assert_eq!(r.instrs, 0);
        assert_eq!(r.overhead_pct(), 0.0);
        assert_eq!(r.speedup_vs_libdft(), 1.0);
    }

    #[test]
    fn coarse_state_covers_precise_at_all_times() {
        let p = BenchmarkProfile::by_name("soplex").unwrap();
        let mut s = SLatch::for_profile(&p);
        let mut src = p.stream(5, 60_000);
        let layout = p.layout(5);
        let mut checked = 0;
        while let Some(ev) = src.next_event() {
            s.on_event(&ev);
            checked += 1;
            if checked % 10_000 == 0 {
                assert!(s.latch.coarse_covers_precise(
                    s.dift.shadow(),
                    layout.base(),
                    layout.end() - layout.base()
                ));
            }
        }
    }
}
