//! Per-access energy model for the taint-checking stack.
//!
//! The paper's power analysis (§6.4) is a synthesis-level total; this
//! model breaks the same story down per memory access: checking a tag
//! in a 4 KB conventional taint cache costs far more energy than a TLB
//! taint-bit test or a 16-entry CTC probe, so LATCH's screening saves
//! energy in proportion to the accesses it deflects. Constants follow
//! standard CACTI-style scaling — energy grows roughly with the square
//! root of capacity for SRAM reads, with CAM probes costing ~2× an
//! SRAM read of equal capacity — normalized to the conventional
//! cache's read energy = 1.0.

/// Counts of accesses resolved at each screening level (the Fig. 16
/// distribution; mirrors `latch_systems::hlatch::AccessDistribution`
/// without the dependency).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCounts {
    /// Accesses resolved by the TLB taint bit.
    pub tlb: u64,
    /// Accesses resolved by the CTC.
    pub ctc: u64,
    /// Accesses that reached the precise taint cache.
    pub precise: u64,
}

/// Relative per-access energies (conventional 4 KB taint-cache read ≡ 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Testing the page taint bit in an already-open TLB entry.
    pub tlb_bit: f64,
    /// Probing the 16-entry fully-associative CTC (CAM match + 32-bit
    /// read; CAM factor ×2, capacity factor √(64/4096)).
    pub ctc_probe: f64,
    /// Reading the 128 B H-LATCH precise cache (√(128/4096)).
    pub small_tcache: f64,
    /// Reading the conventional 4 KB taint cache (the unit).
    pub conventional_tcache: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            // The translation is already being read; the taint bit adds
            // one gated sense line.
            tlb_bit: 0.01,
            // 2 * sqrt(64/4096) = 0.25.
            ctc_probe: 0.25,
            // sqrt(128/4096) ≈ 0.18.
            small_tcache: 0.18,
            conventional_tcache: 1.0,
        }
    }
}

/// Energy accounting for a measured access distribution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyReport {
    /// Total checking energy under H-LATCH (normalized units).
    pub hlatch_energy: f64,
    /// Total checking energy if every access probed the conventional
    /// cache (the FlexiTaint baseline).
    pub conventional_energy: f64,
}

impl EnergyReport {
    /// Energy saved by screening, in percent of the baseline.
    pub fn savings_pct(&self) -> f64 {
        if self.conventional_energy == 0.0 {
            0.0
        } else {
            100.0 * (1.0 - self.hlatch_energy / self.conventional_energy)
        }
    }
}

/// Computes checking energy for a Fig. 16 access distribution.
///
/// Every access pays the TLB bit; accesses passing the TLB pay a CTC
/// probe; accesses passing the CTC pay a small-cache read. The baseline
/// pays one conventional-cache read per access.
pub fn energy(dist: &AccessCounts, model: &EnergyModel) -> EnergyReport {
    let total = (dist.tlb + dist.ctc + dist.precise) as f64;
    let past_tlb = (dist.ctc + dist.precise) as f64;
    let past_ctc = dist.precise as f64;
    EnergyReport {
        hlatch_energy: total * model.tlb_bit
            + past_tlb * model.ctc_probe
            + past_ctc * model.small_tcache,
        conventional_energy: total * model.conventional_tcache,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tlb_dominated_distribution_saves_most() {
        // 99% of accesses deflected at the TLB (the common SPEC case).
        let dist = AccessCounts {
            tlb: 9_900,
            ctc: 80,
            precise: 20,
        };
        let r = energy(&dist, &EnergyModel::default());
        assert!(
            r.savings_pct() > 95.0,
            "screening should save ~all checking energy: {:.1}%",
            r.savings_pct()
        );
    }

    #[test]
    fn precise_heavy_distribution_saves_less() {
        // The astar-like case: a large precise-path share.
        let hot = AccessCounts {
            tlb: 7_000,
            ctc: 1_500,
            precise: 1_500,
        };
        let quiet = AccessCounts {
            tlb: 9_990,
            ctc: 8,
            precise: 2,
        };
        let model = EnergyModel::default();
        assert!(energy(&hot, &model).savings_pct() < energy(&quiet, &model).savings_pct());
        // But even the hot case beats probing the big cache every time.
        assert!(energy(&hot, &model).savings_pct() > 50.0);
    }

    #[test]
    fn empty_distribution_is_zero() {
        let r = energy(&AccessCounts::default(), &EnergyModel::default());
        assert_eq!(r.hlatch_energy, 0.0);
        assert_eq!(r.savings_pct(), 0.0);
    }
}
