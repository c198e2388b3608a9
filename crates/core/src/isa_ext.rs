//! The three ISA extensions S-LATCH adds (paper Table 5).
//!
//! | Instruction | Semantics |
//! |---|---|
//! | `strf reg` | set the TRF flags to the value in register `reg` |
//! | `stnt adr reg` | update the taint status of memory address `adr` to the value in `reg`, writing through the taint cache rather than the data cache |
//! | `ltnt reg` | load the address operand that caused the most recent S-LATCH exception into register `reg` |
//!
//! These are plain data types; the simulator's ISA embeds them and the
//! [`LatchUnit`](crate::unit::LatchUnit) executes them.

use crate::Addr;
use std::fmt;

/// A decoded S-LATCH instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatchInstr {
    /// `strf`: bulk-set the taint register file from a packed value
    /// (4 taint bits per register).
    Strf {
        /// Packed per-register taint, as produced by
        /// [`TaintRegisterFile::to_packed`](crate::trf::TaintRegisterFile::to_packed).
        packed: u64,
    },
    /// `stnt`: set the taint status of `len` bytes at `addr`. Routed
    /// through the CTC (not the data cache), asserting clear bits on zero
    /// writes.
    Stnt {
        /// First byte updated.
        addr: Addr,
        /// Number of bytes updated.
        len: u32,
        /// New taint status.
        tainted: bool,
    },
    /// `ltnt`: read back the address that triggered the most recent
    /// S-LATCH hardware exception.
    Ltnt,
}

impl fmt::Display for LatchInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatchInstr::Strf { packed } => write!(f, "strf {packed:#018x}"),
            LatchInstr::Stnt { addr, len, tainted } => {
                write!(f, "stnt {addr:#010x}+{len} <- {}", u8::from(*tainted))
            }
            LatchInstr::Ltnt => f.write_str("ltnt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(
            LatchInstr::Stnt { addr: 0x10, len: 4, tainted: true }.to_string(),
            "stnt 0x00000010+4 <- 1"
        );
        assert_eq!(LatchInstr::Ltnt.to_string(), "ltnt");
        assert!(LatchInstr::Strf { packed: 1 }.to_string().starts_with("strf"));
    }
}
