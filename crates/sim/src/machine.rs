//! The reference machine: a CPU under always-on software DIFT.
//!
//! [`Machine`] couples the CPU to a [`DiftEngine`] the way a libdft
//! Pintool couples the monitored program to its analysis routines: every
//! retired instruction's taint micro-ops are applied, syscall inputs are
//! tagged per policy, and control-flow/sink uses are validated. This is
//! the *functional* layer — it defines what the taint state and security
//! verdicts are. The *performance* models (S-LATCH, P-LATCH, H-LATCH and
//! their baselines) live in `latch-systems` and reuse
//! [`apply_event_dift`] so that every system computes identical taint
//! state.

use crate::cpu::{Cpu, SimError};
use crate::event::{CtrlCheck, Event};
use crate::syscall::SyscallHost;
use latch_dift::engine::{DiftEngine, DiftStats};
use latch_dift::policy::{SecurityViolation, TaintPolicy};
use latch_core::Addr;

/// What the precise tier did with one event.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiftStep {
    /// Whether the instruction touched tainted data (source, propagation,
    /// or validation).
    pub touched_taint: bool,
    /// Final memory taint-state change, if any: `(addr, len, tainted)`.
    pub mem_taint_write: Option<(Addr, u32, bool)>,
    /// A security violation raised by validation, if any.
    pub violation: Option<SecurityViolation>,
}

/// Applies one retired-instruction event to a DIFT engine: propagation,
/// source initialization, and validation, in that order.
///
/// This single function is the precise tier for *every* system model in
/// the workspace, which is how LATCH's "no loss of accuracy" claim is
/// made structural: all tiers share one taint semantics.
pub fn apply_event_dift(dift: &mut DiftEngine, ev: &Event) -> DiftStep {
    let mut step = DiftStep::default();

    if let Some(rule) = ev.prop {
        let out = dift.propagate(rule);
        step.touched_taint |= out.touched_taint;
        step.mem_taint_write = out.mem_write;
    }
    if let Some(rule) = ev.prop2 {
        let out = dift.propagate(rule);
        step.touched_taint |= out.touched_taint;
        step.mem_taint_write = step.mem_taint_write.or(out.mem_write);
    }
    if let Some(src) = ev.source {
        if !src.trusted && dift.source_input(src.kind, src.addr, src.len).is_some() {
            step.touched_taint = true;
            step.mem_taint_write = Some((src.addr, src.len, true));
        }
    }
    if let Some(ctrl) = ev.ctrl {
        let result = match ctrl {
            CtrlCheck::Reg { reg, target } => {
                dift.validate_branch_through_reg(ev.pc, reg as usize, target)
            }
            CtrlCheck::Mem { addr, len, target } => {
                dift.validate_branch_through_mem(ev.pc, addr, len, target)
            }
        };
        if let Err(v) = result {
            step.touched_taint = true;
            step.violation = Some(v);
        }
    }
    if step.violation.is_none() {
        if let Some(sink) = ev.sink {
            if let Err(v) = dift.validate_sink_range(ev.pc, sink.kind, sink.addr, sink.len) {
                step.touched_taint = true;
                step.violation = Some(v);
            }
        }
    }
    step
}

/// Summary of a [`Machine::run`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSummary {
    /// Instructions retired.
    pub instrs: u64,
    /// Whether the program reached `halt`/`exit`.
    pub halted: bool,
    /// Security violations raised, in order.
    pub violations: Vec<SecurityViolation>,
    /// Snapshot of the DIFT counters at the end of the run.
    pub dift: DiftStats,
    /// Pages touched by data accesses (paper Tables 3–4 denominator).
    pub pages_accessed: usize,
    /// Pages that ever held taint (paper Tables 3–4 numerator).
    pub pages_tainted: usize,
}

impl RunSummary {
    /// Percentage of accessed pages that were ever tainted.
    pub fn tainted_page_pct(&self) -> f64 {
        if self.pages_accessed == 0 {
            0.0
        } else {
            100.0 * self.pages_tainted as f64 / self.pages_accessed as f64
        }
    }
}

/// A CPU monitored by always-on byte-precise DIFT (the libdft baseline,
/// functionally).
#[derive(Debug, Clone)]
pub struct Machine {
    /// The simulated core.
    pub cpu: Cpu,
    /// The precise monitor.
    pub dift: DiftEngine,
    /// Violations collected so far.
    pub violations: Vec<SecurityViolation>,
    /// Stop at the first violation (default `true` — a security exception
    /// normally terminates the program).
    pub stop_on_violation: bool,
}

impl Machine {
    /// Creates a machine with the default conservative taint policy.
    pub fn new(program: crate::asm::Program, host: SyscallHost) -> Self {
        Self::with_policy(program, host, TaintPolicy::default())
    }

    /// Creates a machine with a custom taint policy.
    pub fn with_policy(
        program: crate::asm::Program,
        host: SyscallHost,
        policy: TaintPolicy,
    ) -> Self {
        Self {
            cpu: program.into_cpu(host),
            dift: DiftEngine::with_policy(policy),
            violations: Vec::new(),
            stop_on_violation: true,
        }
    }

    /// Executes one instruction and applies its taint effects.
    ///
    /// Returns `Ok(None)` when the program has halted (or was stopped by
    /// a violation).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the CPU.
    pub fn step(&mut self) -> Result<Option<(Event, DiftStep)>, SimError> {
        let Some(ev) = self.cpu.step()? else {
            return Ok(None);
        };
        let step = apply_event_dift(&mut self.dift, &ev);
        if let Some(v) = &step.violation {
            self.violations.push(v.clone());
        }
        Ok(Some((ev, step)))
    }

    /// Runs until `halt`, a violation (when `stop_on_violation`), or
    /// `max_instrs` retired instructions.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the CPU.
    pub fn run(&mut self, max_instrs: u64) -> Result<RunSummary, SimError> {
        let mut instrs = 0u64;
        while instrs < max_instrs {
            match self.step()? {
                None => break,
                Some((_, step)) => {
                    instrs += 1;
                    if step.violation.is_some() && self.stop_on_violation {
                        break;
                    }
                }
            }
        }
        Ok(RunSummary {
            instrs,
            halted: self.cpu.halted(),
            violations: self.violations.clone(),
            dift: *self.dift.stats(),
            pages_accessed: self.cpu.mem.pages_accessed(),
            pages_tainted: self.dift.shadow().pages_ever_tainted(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use latch_dift::policy::ViolationKind;

    #[test]
    fn clean_program_runs_to_halt() {
        let prog = assemble("li r1, 1\nli r2, 2\nadd r3, r1, r2\nhalt").unwrap();
        let mut m = Machine::new(prog, SyscallHost::new());
        let sum = m.run(1000).unwrap();
        assert!(sum.halted);
        assert!(sum.violations.is_empty());
        assert_eq!(sum.dift.instrs_touching_taint, 0);
    }

    #[test]
    fn file_taint_flows_and_hijack_is_caught() {
        // Read 4 bytes from a file into buf, load them, and jump through
        // the loaded register — DIFT must catch the tainted target.
        let prog = assemble(
            r#"
            .ascii path "evil"
            .data buf 16
            li r1, path
            li r2, 4
            syscall open
            mov r1, r0
            li r2, buf
            li r3, 4
            syscall read
            li r4, buf
            load.w r5, r4, 0
            jr r5
            halt
            "#,
        )
        .unwrap();
        // File contents decode as instruction index 11 (valid target) so
        // the jump itself would be architecturally fine — but tainted.
        let host = SyscallHost::new().with_file("evil", 11u32.to_le_bytes().to_vec());
        let mut m = Machine::new(prog, host);
        let sum = m.run(1000).unwrap();
        assert_eq!(sum.violations.len(), 1);
        assert_eq!(sum.violations[0].kind, ViolationKind::TaintedControlFlow);
        assert!(sum.dift.instrs_touching_taint > 0);
        assert!(sum.pages_tainted >= 1);
    }

    #[test]
    fn trusted_connection_does_not_taint() {
        let prog = assemble(
            r"
            .data buf 64
            syscall socket
            mov r1, r0
            syscall accept
            mov r1, r0
            li r2, buf
            li r3, 16
            syscall recv
            li r4, buf
            load.w r5, r4, 0
            halt
            ",
        )
        .unwrap();
        let mut host = SyscallHost::new();
        host.push_connection(crate::syscall::Connection {
            data: 7u32.to_le_bytes().to_vec(),
            trusted: true,
        });
        let mut m = Machine::new(prog, host);
        let sum = m.run(1000).unwrap();
        assert!(sum.halted);
        assert_eq!(sum.pages_tainted, 0);
        assert!(!m.dift.regs().is_tainted(5));
    }

    #[test]
    fn untrusted_connection_taints() {
        let prog = assemble(
            r"
            .data buf 64
            syscall socket
            mov r1, r0
            syscall accept
            mov r1, r0
            li r2, buf
            li r3, 16
            syscall recv
            halt
            ",
        )
        .unwrap();
        let mut host = SyscallHost::new();
        host.push_connection(crate::syscall::Connection {
            data: b"attack!!".to_vec(),
            trusted: false,
        });
        let mut m = Machine::new(prog, host);
        m.run(1000).unwrap();
        use latch_core::PreciseView;
        assert!(m.dift.any_tainted(crate::asm::DATA_BASE, 64));
    }

    #[test]
    fn fresh_read_overwrites_stale_taint() {
        // First read taints the buffer (untrusted); a later trusted read
        // into the same buffer must clear those tags.
        let prog = assemble(
            r"
            .data buf 64
            syscall socket
            mov r6, r0
            mov r1, r6
            syscall accept
            mov r7, r0
            mov r1, r7
            li r2, buf
            li r3, 8
            syscall recv
            mov r1, r6
            syscall accept
            mov r1, r0
            li r2, buf
            li r3, 8
            syscall recv
            halt
            ",
        )
        .unwrap();
        let mut host = SyscallHost::new();
        host.push_connection(crate::syscall::Connection {
            data: b"badbadba".to_vec(),
            trusted: false,
        });
        host.push_connection(crate::syscall::Connection {
            data: b"goodgood".to_vec(),
            trusted: true,
        });
        let mut m = Machine::new(prog, host);
        let sum = m.run(1000).unwrap();
        assert!(sum.halted);
        use latch_core::PreciseView;
        assert!(
            !m.dift.any_tainted(crate::asm::DATA_BASE, 64),
            "trusted overwrite must clear taint"
        );
        assert!(sum.pages_tainted >= 1, "census remembers the tainted epoch");
    }

    #[test]
    fn run_summary_page_pct() {
        let s = RunSummary {
            pages_accessed: 200,
            pages_tainted: 10,
            ..Default::default()
        };
        assert!((s.tainted_page_pct() - 5.0).abs() < 1e-12);
        assert_eq!(RunSummary::default().tainted_page_pct(), 0.0);
    }
}
