//! Per-register, per-byte taint tags.
//!
//! The software analogue of the hardware TRF: where the TRF keeps one
//! *bit* per register byte, the software layer keeps a full
//! [`TaintTag`] per byte so origin classes survive propagation.

use crate::tag::TaintTag;
use latch_core::snapshot::{SnapError, SnapReader, SnapWriter};
use latch_core::trf::{RegTaint, NUM_REGS, REG_BYTES};

/// Tags for the four bytes of one 32-bit register.
pub type RegTags = [TaintTag; REG_BYTES as usize];

const CLEAN_REG: RegTags = [TaintTag::CLEAN; REG_BYTES as usize];

/// The software register-tag file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegTagFile {
    regs: [RegTags; NUM_REGS],
}

impl Default for RegTagFile {
    fn default() -> Self {
        Self::new()
    }
}

impl RegTagFile {
    /// Creates a fully untainted file.
    pub fn new() -> Self {
        Self {
            regs: [CLEAN_REG; NUM_REGS],
        }
    }

    /// Byte tags of register `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= NUM_REGS`.
    #[inline]
    pub fn get(&self, r: usize) -> RegTags {
        self.regs[r]
    }

    /// Overwrites the byte tags of register `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= NUM_REGS`.
    #[inline]
    pub fn set(&mut self, r: usize, tags: RegTags) {
        self.regs[r] = tags;
    }

    /// Sets every byte of register `r` to the same tag.
    #[inline]
    pub fn set_uniform(&mut self, r: usize, tag: TaintTag) {
        self.regs[r] = [tag; REG_BYTES as usize];
    }

    /// Clears register `r`.
    #[inline]
    pub fn clear(&mut self, r: usize) {
        self.regs[r] = CLEAN_REG;
    }

    /// Union of all byte tags of register `r`.
    #[inline]
    pub fn union(&self, r: usize) -> TaintTag {
        self.regs[r]
            .iter()
            .fold(TaintTag::CLEAN, |acc, &t| acc | t)
    }

    /// Whether any byte of register `r` is tainted.
    #[inline]
    pub fn is_tainted(&self, r: usize) -> bool {
        self.union(r).is_tainted()
    }

    /// Whether any register is tainted.
    pub fn any_tainted(&self) -> bool {
        (0..NUM_REGS).any(|r| self.is_tainted(r))
    }

    /// Clears every register.
    pub fn clear_all(&mut self) {
        self.regs = [CLEAN_REG; NUM_REGS];
    }

    /// Collapses register `r`'s byte tags into the hardware TRF's binary
    /// per-byte representation.
    pub fn to_reg_taint(&self, r: usize) -> RegTaint {
        let mut bits = 0u8;
        for (i, tag) in self.regs[r].iter().enumerate() {
            if tag.is_tainted() {
                bits |= 1 << i;
            }
        }
        RegTaint(bits)
    }

    /// Snapshot encoder: 64 raw tag bytes in register order.
    pub(crate) fn snap_encode(&self, w: &mut SnapWriter) {
        for reg in &self.regs {
            for tag in reg {
                w.u8(tag.0);
            }
        }
    }

    /// Inverse of [`snap_encode`](Self::snap_encode).
    pub(crate) fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let raw = r.bytes(NUM_REGS * REG_BYTES as usize)?;
        let mut file = Self::new();
        for (i, chunk) in raw.chunks_exact(REG_BYTES as usize).enumerate() {
            for (b, slot) in chunk.iter().zip(file.regs[i].iter_mut()) {
                *slot = TaintTag(*b);
            }
        }
        Ok(file)
    }

    /// Packs the whole file into the `strf` operand format (4 bits per
    /// register), ready for
    /// [`TaintRegisterFile::load_packed`](latch_core::trf::TaintRegisterFile::load_packed).
    pub fn to_packed(&self) -> u64 {
        (0..NUM_REGS).fold(0u64, |acc, r| {
            acc | (u64::from(self.to_reg_taint(r).0) << (r * 4))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_clean() {
        let f = RegTagFile::new();
        assert!(!f.any_tainted());
        assert_eq!(f.union(0), TaintTag::CLEAN);
    }

    #[test]
    fn set_uniform_and_union() {
        let mut f = RegTagFile::new();
        f.set_uniform(3, TaintTag::NETWORK);
        assert!(f.is_tainted(3));
        assert_eq!(f.union(3), TaintTag::NETWORK);
        f.clear(3);
        assert!(!f.any_tainted());
    }

    #[test]
    fn per_byte_tags() {
        let mut f = RegTagFile::new();
        let mut tags = [TaintTag::CLEAN; 4];
        tags[2] = TaintTag::FILE;
        f.set(1, tags);
        assert_eq!(f.to_reg_taint(1), RegTaint(0b0100));
        assert_eq!(f.union(1), TaintTag::FILE);
    }

    #[test]
    fn packed_matches_trf_format() {
        let mut f = RegTagFile::new();
        f.set_uniform(0, TaintTag::FILE);
        let mut trf = latch_core::trf::TaintRegisterFile::new();
        trf.load_packed(f.to_packed());
        assert_eq!(trf.get(0), RegTaint::ALL);
        assert_eq!(trf.get(1), RegTaint::CLEAN);
    }
}
