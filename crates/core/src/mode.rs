//! The S-LATCH hardware/software mode controller.
//!
//! Paper §5.1: S-LATCH executes the native program at near-native speed in
//! *hardware mode*, where LATCH's coarse checks watch every operand. When
//! a coarse check fires, control traps to the software exception handler,
//! which filters false positives against the precise taint state; a
//! confirmed taint enters *software mode*, where a DBI-instrumented image
//! of the program performs full DIFT. A timeout policy (§5.1.3) returns
//! control to hardware after 1000 consecutive instructions execute without
//! manipulating tainted data — switching back immediately would likely
//! bounce straight back into software, so the hysteresis is deliberate.

use std::fmt;

/// Which layer is currently executing the monitored program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Native execution under coarse hardware checks.
    Hardware,
    /// DBI-instrumented execution with full software DIFT.
    Software,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Hardware => f.write_str("hardware"),
            Mode::Software => f.write_str("software"),
        }
    }
}

/// What the controller decided after a coarse taint event in hardware mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapOutcome {
    /// The precise check confirmed real taint: control transfers to the
    /// instrumented image (software mode).
    EnterSoftware,
    /// False positive: the handler returns to the native image.
    FalsePositive,
}

/// Counters describing mode-switching behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModeStats {
    /// Instructions retired in hardware mode.
    pub instrs_hardware: u64,
    /// Instructions retired in software mode.
    pub instrs_software: u64,
    /// Coarse-check traps raised while in hardware mode.
    pub traps: u64,
    /// Traps dismissed as false positives.
    pub false_positives: u64,
    /// Confirmed transitions into software mode.
    pub software_entries: u64,
    /// Timeout-driven returns to hardware mode.
    pub hardware_returns: u64,
}

impl ModeStats {
    /// Total instructions observed.
    pub fn instrs_total(&self) -> u64 {
        self.instrs_hardware + self.instrs_software
    }

    /// Fraction of instructions executed in software mode, in `[0, 1]`.
    pub fn software_fraction(&self) -> f64 {
        let total = self.instrs_total();
        if total == 0 {
            0.0
        } else {
            self.instrs_software as f64 / total as f64
        }
    }
}

/// Tracks the current mode and applies the S-LATCH timeout policy.
#[derive(Debug, Clone)]
pub struct ModeController {
    mode: Mode,
    timeout: u32,
    untainted_streak: u32,
    stats: ModeStats,
}

impl ModeController {
    /// Creates a controller in hardware mode with the given software-mode
    /// timeout (the paper uses 1000 instructions, §5.1.3).
    ///
    /// # Panics
    ///
    /// Panics if `timeout == 0`; [`LatchConfig`](crate::config::LatchConfig)
    /// validates this before construction.
    pub fn new(timeout: u32) -> Self {
        assert!(timeout > 0, "timeout must be at least one instruction");
        Self {
            mode: Mode::Hardware,
            timeout,
            untainted_streak: 0,
            stats: ModeStats::default(),
        }
    }

    /// The current execution mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ModeStats {
        &self.stats
    }

    /// The configured timeout in instructions.
    pub fn timeout(&self) -> u32 {
        self.timeout
    }

    /// Handles a coarse taint event raised in hardware mode. The caller
    /// supplies the result of the precise check (`ltnt` + shadow lookup in
    /// the exception handler, §5.1.2).
    ///
    /// # Panics
    ///
    /// Panics if called while already in software mode — coarse traps only
    /// exist in hardware mode.
    pub fn on_trap(&mut self, precisely_tainted: bool) -> TrapOutcome {
        assert_eq!(
            self.mode,
            Mode::Hardware,
            "coarse traps can only occur in hardware mode"
        );
        self.stats.traps = self.stats.traps.saturating_add(1);
        latch_obs::counter_inc("core.mode.traps");
        if precisely_tainted {
            self.stats.software_entries = self.stats.software_entries.saturating_add(1);
            self.mode = Mode::Software;
            self.untainted_streak = 0;
            latch_obs::counter_inc("core.mode.software_entries");
            latch_obs::emit(
                "core.mode",
                latch_obs::TraceEvent::ModeTransition {
                    instrs_in_mode: self.stats.instrs_hardware,
                    from: "hardware",
                    to: "software",
                    reason: "trap",
                },
            );
            TrapOutcome::EnterSoftware
        } else {
            self.stats.false_positives = self.stats.false_positives.saturating_add(1);
            latch_obs::counter_inc("core.mode.false_positives");
            TrapOutcome::FalsePositive
        }
    }

    /// Records one retired instruction. In software mode,
    /// `touched_taint` feeds the timeout policy; returns `true` when the
    /// timeout expired and control returned to hardware mode (the caller
    /// must then perform the clear-scan and `strf`, §5.1.4).
    pub fn on_instruction(&mut self, touched_taint: bool) -> bool {
        match self.mode {
            Mode::Hardware => {
                self.stats.instrs_hardware = self.stats.instrs_hardware.saturating_add(1);
                false
            }
            Mode::Software => {
                self.stats.instrs_software = self.stats.instrs_software.saturating_add(1);
                if touched_taint {
                    self.untainted_streak = 0;
                    false
                } else {
                    self.untainted_streak += 1;
                    if self.untainted_streak >= self.timeout {
                        self.mode = Mode::Hardware;
                        self.untainted_streak = 0;
                        self.stats.hardware_returns = self.stats.hardware_returns.saturating_add(1);
                        latch_obs::counter_inc("core.mode.hardware_returns");
                        latch_obs::emit(
                            "core.mode",
                            latch_obs::TraceEvent::ModeTransition {
                                instrs_in_mode: self.stats.instrs_software,
                                from: "software",
                                to: "hardware",
                                reason: "timeout",
                            },
                        );
                        true
                    } else {
                        false
                    }
                }
            }
        }
    }

    /// Forces a return to hardware mode (e.g. program exit), counting it as
    /// a hardware return if a switch actually happened.
    pub fn force_hardware(&mut self) {
        if self.mode == Mode::Software {
            self.mode = Mode::Hardware;
            self.stats.hardware_returns = self.stats.hardware_returns.saturating_add(1);
            latch_obs::counter_inc("core.mode.hardware_returns");
            latch_obs::emit(
                "core.mode",
                latch_obs::TraceEvent::ModeTransition {
                    instrs_in_mode: self.stats.instrs_software,
                    from: "software",
                    to: "hardware",
                    reason: "forced",
                },
            );
        }
        self.untainted_streak = 0;
    }

    /// Resets statistics without changing mode.
    pub fn reset_stats(&mut self) {
        self.stats = ModeStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_in_hardware() {
        let mc = ModeController::new(1000);
        assert_eq!(mc.mode(), Mode::Hardware);
    }

    #[test]
    fn false_positive_stays_in_hardware() {
        let mut mc = ModeController::new(1000);
        assert_eq!(mc.on_trap(false), TrapOutcome::FalsePositive);
        assert_eq!(mc.mode(), Mode::Hardware);
        assert_eq!(mc.stats().false_positives, 1);
        assert_eq!(mc.stats().software_entries, 0);
    }

    #[test]
    fn confirmed_taint_enters_software() {
        let mut mc = ModeController::new(1000);
        assert_eq!(mc.on_trap(true), TrapOutcome::EnterSoftware);
        assert_eq!(mc.mode(), Mode::Software);
    }

    #[test]
    fn timeout_returns_to_hardware() {
        let mut mc = ModeController::new(3);
        mc.on_trap(true);
        assert!(!mc.on_instruction(false));
        assert!(!mc.on_instruction(false));
        assert!(mc.on_instruction(false));
        assert_eq!(mc.mode(), Mode::Hardware);
        assert_eq!(mc.stats().hardware_returns, 1);
    }

    #[test]
    fn taint_touch_resets_streak() {
        let mut mc = ModeController::new(3);
        mc.on_trap(true);
        mc.on_instruction(false);
        mc.on_instruction(false);
        mc.on_instruction(true); // resets
        assert!(!mc.on_instruction(false));
        assert!(!mc.on_instruction(false));
        assert!(mc.on_instruction(false));
        assert_eq!(mc.mode(), Mode::Hardware);
    }

    #[test]
    fn instruction_accounting_by_mode() {
        let mut mc = ModeController::new(100);
        mc.on_instruction(false);
        mc.on_instruction(false);
        mc.on_trap(true);
        mc.on_instruction(true);
        assert_eq!(mc.stats().instrs_hardware, 2);
        assert_eq!(mc.stats().instrs_software, 1);
        assert!((mc.stats().software_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "hardware mode")]
    fn trap_in_software_mode_panics() {
        let mut mc = ModeController::new(10);
        mc.on_trap(true);
        mc.on_trap(true);
    }

    #[test]
    fn force_hardware_counts_return() {
        let mut mc = ModeController::new(10);
        mc.on_trap(true);
        mc.force_hardware();
        assert_eq!(mc.mode(), Mode::Hardware);
        assert_eq!(mc.stats().hardware_returns, 1);
        // Forcing while already in hardware is a no-op.
        mc.force_hardware();
        assert_eq!(mc.stats().hardware_returns, 1);
    }

    #[test]
    fn mode_display() {
        assert_eq!(Mode::Hardware.to_string(), "hardware");
        assert_eq!(Mode::Software.to_string(), "software");
    }
}
