//! Aggregated statistics for a [`LatchUnit`](crate::unit::LatchUnit).

use crate::ctc::CtcStats;
use crate::mode::ModeStats;
use crate::tlb::TlbStats;

/// Where a coarse taint check was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolvedAt {
    /// The page-level taint bit was clear: no CTC access needed.
    Tlb,
    /// The CTC answered (bit clear or set) after the TLB bit was set.
    Ctc,
}

/// Counters over coarse checks issued to a LATCH unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Total memory-operand checks.
    pub checks: u64,
    /// Checks resolved at the TLB (page-domain bit clear).
    pub resolved_tlb: u64,
    /// Checks that proceeded to the CTC.
    pub resolved_ctc: u64,
    /// Checks whose coarse answer was "tainted" (true or false positive).
    pub coarse_hits: u64,
    /// Cycles charged across all checks (CTC misses, TLB fills).
    pub penalty_cycles: u64,
}

impl CheckStats {
    /// Fraction of checks resolved at the TLB, in `[0, 1]`.
    pub fn tlb_fraction(&self) -> f64 {
        if self.checks == 0 {
            0.0
        } else {
            self.resolved_tlb as f64 / self.checks as f64
        }
    }
}

/// Counters over parity scrubs of the coarse state (CTT + CTC).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubStats {
    /// Scrub passes executed.
    pub scrubs: u64,
    /// CTT words repaired by conservative re-derivation.
    pub ctt_words_repaired: u64,
    /// Domain bits rebuilt as tainted (prevented false negatives).
    pub domains_retainted: u64,
    /// CTC lines reloaded from the CTT after a parity mismatch.
    pub ctc_lines_repaired: u64,
}

impl ScrubStats {
    /// Whether any scrub ever found corruption.
    pub fn any_repairs(&self) -> bool {
        self.ctt_words_repaired > 0 || self.ctc_lines_repaired > 0
    }
}

/// A snapshot of every counter a LATCH unit maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatchStats {
    /// Coarse-check counters.
    pub checks: CheckStats,
    /// CTC hit/miss counters.
    pub ctc: CtcStats,
    /// TLB hit/miss counters.
    pub tlb: TlbStats,
    /// Parity-scrub counters.
    pub scrub: ScrubStats,
}

/// A snapshot including S-LATCH mode-switching counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SLatchStats {
    /// The underlying unit counters.
    pub unit: LatchStats,
    /// Mode controller counters.
    pub mode: ModeStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tlb_fraction_handles_zero() {
        let s = CheckStats::default();
        assert_eq!(s.tlb_fraction(), 0.0);
        let s = CheckStats {
            checks: 4,
            resolved_tlb: 3,
            ..Default::default()
        };
        assert!((s.tlb_fraction() - 0.75).abs() < 1e-12);
    }
}
