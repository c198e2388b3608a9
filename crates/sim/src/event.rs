//! Retired-instruction events: the operand-extraction interface.
//!
//! LATCH's extraction logic (paper Fig. 7 component A) "extracts operands
//! from committed instructions". In the simulator, every retired
//! instruction produces an [`Event`] describing exactly the operands the
//! hardware would extract: the memory operand (if any), the registers
//! read and written, the taint micro-operation for the precise tier, any
//! control-flow target that needs validation, and any taint-source input
//! performed by a syscall.
//!
//! Both the CPU ([`crate::cpu::Cpu`]) and the synthetic workload
//! generators (`latch-workloads`) produce this type, so every system
//! model in `latch-systems` runs unmodified on real programs and on
//! calibrated synthetic streams.

use latch_core::isa_ext::LatchInstr;
use latch_core::Addr;
use latch_dift::policy::{SinkKind, SourceKind};
use latch_dift::prop::PropRule;

/// Direction of a memory operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemAccessKind {
    /// The instruction reads memory.
    Read,
    /// The instruction writes memory.
    Write,
}

/// An extracted memory operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Effective address.
    pub addr: Addr,
    /// Access width in bytes.
    pub len: u32,
    /// Read or write.
    pub kind: MemAccessKind,
}

/// A control-flow target requiring DIFT validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlCheck {
    /// Indirect jump through a register.
    Reg {
        /// Register holding the target.
        reg: u8,
        /// The resolved target (instruction index).
        target: Addr,
    },
    /// Control target loaded from memory (a popped return address).
    Mem {
        /// Address of the memory slot holding the target.
        addr: Addr,
        /// Width of the slot in bytes.
        len: u32,
        /// The resolved target (instruction index).
        target: Addr,
    },
}

/// A taint-source input performed by a syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceInput {
    /// The source class (file, socket, user input).
    pub kind: SourceKind,
    /// First byte written.
    pub addr: Addr,
    /// Number of bytes written.
    pub len: u32,
    /// Whether the source was classified trusted (paper §3.1's
    /// Apache-25/50/75 policies mark a fraction of connections trusted;
    /// trusted inputs are not tainted).
    pub trusted: bool,
}

/// A data flow into an output sink requiring DIFT validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkAccess {
    /// The sink class.
    pub kind: SinkKind,
    /// First byte flowing out.
    pub addr: Addr,
    /// Number of bytes flowing out.
    pub len: u32,
}

/// Registers extracted from the retired instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegsUsed {
    /// Up to two source registers.
    pub read: [Option<u8>; 2],
    /// Destination register, if any.
    pub written: Option<u8>,
}

impl RegsUsed {
    /// Convenience constructor.
    pub fn new(read: [Option<u8>; 2], written: Option<u8>) -> Self {
        Self { read, written }
    }

    /// Iterates over the source registers that are present.
    pub fn reads(&self) -> impl Iterator<Item = u8> + '_ {
        self.read.iter().flatten().copied()
    }
}

/// One retired instruction, as seen by the monitoring stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Program counter (instruction index) of the retired instruction.
    pub pc: Addr,
    /// The taint micro-op for the precise tier (`None` for pure control
    /// or `nop` instructions with no taint effect).
    pub prop: Option<PropRule>,
    /// A second micro-op for instructions with two taint effects (e.g. a
    /// syscall that both overwrites a buffer and writes a result
    /// register). Applied after `prop`.
    pub prop2: Option<PropRule>,
    /// The extracted memory operand, if any.
    pub mem: Option<MemAccess>,
    /// Control-flow target to validate, if any.
    pub ctrl: Option<CtrlCheck>,
    /// Taint-source input performed by this instruction (syscalls only).
    pub source: Option<SourceInput>,
    /// Data flowing to an output sink, if any (syscalls only).
    pub sink: Option<SinkAccess>,
    /// An S-LATCH ISA extension executed by this instruction, if any.
    pub latch: Option<LatchInstr>,
    /// Registers the instruction read/wrote (for TRF screening).
    pub regs: RegsUsed,
}

impl Event {
    /// A bare event at `pc` with no operands (e.g. `nop`).
    pub fn empty(pc: Addr) -> Self {
        Self {
            pc,
            prop: None,
            prop2: None,
            mem: None,
            ctrl: None,
            source: None,
            sink: None,
            latch: None,
            regs: RegsUsed::default(),
        }
    }
}

/// A producer of retired-instruction events.
///
/// Implemented by the CPU wrapper and by the synthetic workload
/// generators; everything in `latch-systems` consumes this trait.
pub trait EventSource {
    /// Produces the next event, or `None` when the stream is exhausted.
    fn next_event(&mut self) -> Option<Event>;
}

impl<T: EventSource + ?Sized> EventSource for &mut T {
    fn next_event(&mut self) -> Option<Event> {
        (**self).next_event()
    }
}

/// An [`EventSource`] over a pre-recorded vector of events.
#[derive(Debug, Clone, Default)]
pub struct VecSource {
    events: std::vec::IntoIter<Event>,
}

impl VecSource {
    /// Wraps a vector of events.
    pub fn new(events: Vec<Event>) -> Self {
        Self {
            events: events.into_iter(),
        }
    }
}

impl EventSource for VecSource {
    fn next_event(&mut self) -> Option<Event> {
        self.events.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_event_has_no_operands() {
        let e = Event::empty(7);
        assert_eq!(e.pc, 7);
        assert!(e.mem.is_none() && e.prop.is_none() && e.ctrl.is_none());
        assert_eq!(e.regs.reads().count(), 0);
    }

    #[test]
    fn vec_source_yields_in_order() {
        let mut src = VecSource::new(vec![Event::empty(0), Event::empty(1)]);
        assert_eq!(src.next_event().unwrap().pc, 0);
        assert_eq!(src.next_event().unwrap().pc, 1);
        assert!(src.next_event().is_none());
    }

    #[test]
    fn regs_used_reads_iterates_present() {
        let r = RegsUsed::new([Some(3), None], Some(1));
        assert_eq!(r.reads().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn event_source_works_through_mut_ref() {
        fn drain<S: EventSource>(mut s: S) -> usize {
            let mut n = 0;
            while s.next_event().is_some() {
                n += 1;
            }
            n
        }
        let mut src = VecSource::new(vec![Event::empty(0)]);
        assert_eq!(drain(&mut src), 1);
    }
}
