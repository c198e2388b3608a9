//! The Taint Register File (TRF).
//!
//! Paper §4 (Fig. 7 component B) and §5.1: a small register file holding
//! byte-level taint for each architectural register. In hardware mode the
//! TRF is checked alongside the coarse memory state; the `strf` instruction
//! bulk-loads it when S-LATCH's software layer hands control back to
//! hardware after a period of in-software propagation.

use std::fmt;

/// Number of architectural registers tracked (matches the simulator ISA).
pub const NUM_REGS: usize = 16;

/// Bytes per register (32-bit registers).
pub const REG_BYTES: u32 = 4;

/// Byte-level taint of one register: bit *i* covers byte *i*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct RegTaint(pub u8);

impl RegTaint {
    /// Fully untainted register.
    pub const CLEAN: RegTaint = RegTaint(0);
    /// All four bytes tainted.
    pub const ALL: RegTaint = RegTaint(0x0F);

    /// Whether any byte is tainted.
    #[inline]
    pub fn any(self) -> bool {
        self.0 & 0x0F != 0
    }

    /// Union of two taints (propagation on two-operand ALU ops).
    #[inline]
    pub fn union(self, other: RegTaint) -> RegTaint {
        RegTaint((self.0 | other.0) & 0x0F)
    }
}

impl fmt::Display for RegTaint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04b}", self.0 & 0x0F)
    }
}

/// The taint register file: one [`RegTaint`] per architectural register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintRegisterFile {
    regs: [RegTaint; NUM_REGS],
}

impl Default for TaintRegisterFile {
    fn default() -> Self {
        Self::new()
    }
}

impl TaintRegisterFile {
    /// Creates a fully-untainted TRF.
    pub fn new() -> Self {
        Self {
            regs: [RegTaint::CLEAN; NUM_REGS],
        }
    }

    /// Reads the taint of register `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= NUM_REGS`.
    #[inline]
    pub fn get(&self, r: usize) -> RegTaint {
        self.regs[r]
    }

    /// Writes the taint of register `r`. Returns the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `r >= NUM_REGS`.
    #[inline]
    pub fn set(&mut self, r: usize, taint: RegTaint) -> RegTaint {
        std::mem::replace(&mut self.regs[r], RegTaint(taint.0 & 0x0F))
    }

    /// Whether any register holds taint.
    pub fn any_tainted(&self) -> bool {
        self.regs.iter().any(|t| t.any())
    }

    /// The `strf` instruction: bulk-loads the whole file from a packed
    /// 64-bit value, 4 bits per register (paper Table 5).
    pub fn load_packed(&mut self, packed: u64) {
        latch_obs::counter_inc("core.trf.spills");
        latch_obs::emit(
            "core.trf",
            latch_obs::TraceEvent::TrfSpill {
                live_bits: packed.count_ones(),
            },
        );
        for (i, slot) in self.regs.iter_mut().enumerate() {
            *slot = RegTaint(((packed >> (i * 4)) & 0x0F) as u8);
        }
    }

    /// Packs the whole file into a 64-bit value, the inverse of
    /// [`load_packed`](Self::load_packed).
    pub fn to_packed(&self) -> u64 {
        self.regs
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, t)| acc | (u64::from(t.0 & 0x0F) << (i * 4)))
    }

    /// Rebuilds a TRF from a packed value without going through the
    /// `strf` path — snapshot restores must not emit spill events or
    /// bump counters, or a restored run would diverge from an
    /// uninterrupted one under the `obs` build.
    pub(crate) fn from_packed_silent(packed: u64) -> Self {
        let mut trf = Self::new();
        for (i, slot) in trf.regs.iter_mut().enumerate() {
            *slot = RegTaint(((packed >> (i * 4)) & 0x0F) as u8);
        }
        trf
    }

    /// Clears every register's taint.
    pub fn clear(&mut self) {
        self.regs = [RegTaint::CLEAN; NUM_REGS];
    }

    /// Iterates over `(register, taint)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, RegTaint)> + '_ {
        self.regs.iter().copied().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_clean() {
        let trf = TaintRegisterFile::new();
        assert!(!trf.any_tainted());
        assert_eq!(trf.get(0), RegTaint::CLEAN);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut trf = TaintRegisterFile::new();
        assert_eq!(trf.set(3, RegTaint(0b0101)), RegTaint::CLEAN);
        assert_eq!(trf.get(3), RegTaint(0b0101));
        assert!(trf.any_tainted());
        assert_eq!(trf.set(3, RegTaint::CLEAN), RegTaint(0b0101));
        assert!(!trf.any_tainted());
    }

    #[test]
    fn taint_masked_to_four_bits() {
        let mut trf = TaintRegisterFile::new();
        trf.set(0, RegTaint(0xFF));
        assert_eq!(trf.get(0), RegTaint::ALL);
    }

    #[test]
    fn union_propagation() {
        assert_eq!(RegTaint(0b0001).union(RegTaint(0b1000)), RegTaint(0b1001));
        assert!(!RegTaint::CLEAN.union(RegTaint::CLEAN).any());
    }

    #[test]
    fn packed_roundtrip() {
        let mut trf = TaintRegisterFile::new();
        trf.set(0, RegTaint(0b1111));
        trf.set(7, RegTaint(0b0011));
        trf.set(15, RegTaint(0b1000));
        let packed = trf.to_packed();
        let mut trf2 = TaintRegisterFile::new();
        trf2.load_packed(packed);
        assert_eq!(trf, trf2);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(RegTaint(0b0101).to_string(), "0101");
    }
}
