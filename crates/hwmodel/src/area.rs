//! Structural storage and logic estimates for the LATCH module.
//!
//! Counts every SRAM bit the LATCH structures hold and estimates the
//! logic elements (LEs) of the surrounding combinational logic: the
//! fully-associative CTC comparators, the OR-reduction/update tree of
//! Fig. 12, the operand-extraction decoders, and the TRF. The paper's
//! §6.4 reports the S/P-LATCH configuration at 160 B of storage
//! (64 B CTC payload + 64 B clear bits + 2 TLB taint bits × 128
//! entries) and the H-LATCH stack at 320 B including the 128 B precise
//! cache; this model reproduces those counts from the configuration.

use latch_core::config::LatchParams;
use latch_core::CTT_WORD_BITS;

/// Storage bit census of a LATCH configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageBudget {
    /// CTC payload bits (cached CTT words).
    pub ctc_payload_bits: u64,
    /// CTC clear bits (S-LATCH only).
    pub ctc_clear_bits: u64,
    /// CTC address-tag bits (CAM entries for the FA lookup).
    pub ctc_tag_bits: u64,
    /// TRF bits (4 per register).
    pub trf_bits: u64,
    /// Added TLB taint bits (page-level taint domains × entries).
    pub tlb_taint_bits: u64,
    /// Precise taint-cache bits, when the configuration includes one
    /// (H-LATCH).
    pub precise_cache_bits: u64,
}

impl StorageBudget {
    /// Total bits.
    pub fn total_bits(&self) -> u64 {
        self.ctc_payload_bits
            + self.ctc_clear_bits
            + self.ctc_tag_bits
            + self.trf_bits
            + self.tlb_taint_bits
            + self.precise_cache_bits
    }

    /// Total *capacity* bytes in the paper's accounting, which counts
    /// payload structures (CTC payload + clear bits + TLB bits +
    /// precise cache) and excludes CAM tags and the TRF.
    pub fn capacity_bytes(&self) -> u64 {
        (self.ctc_payload_bits + self.ctc_clear_bits + self.tlb_taint_bits
            + self.precise_cache_bits)
            / 8
    }
}

/// Computes the storage census for a LATCH configuration.
///
/// `with_clear_bits` selects the S/P-LATCH variant (clear bits are not
/// needed when H-LATCH's hardware update logic keeps the coarse state
/// exact). `precise_cache_bytes` adds H-LATCH's precise taint cache.
pub fn storage(
    params: &LatchParams,
    with_clear_bits: bool,
    precise_cache_bytes: u64,
) -> StorageBudget {
    let entries = params.ctc_entries as u64;
    let payload = entries * u64::from(CTT_WORD_BITS);
    // A CTT word covers 32 domains; the CAM tag addresses the word
    // within a 32-bit space: 32 - log2(word span) bits.
    let span_bits = (u64::from(params.geometry.domain_bytes()) * 32).trailing_zeros();
    let tag_bits = entries * u64::from(32 - span_bits);
    let pd = u64::from(params.geometry.page_domains_per_page());
    StorageBudget {
        ctc_payload_bits: payload,
        ctc_clear_bits: if with_clear_bits { payload } else { 0 },
        ctc_tag_bits: tag_bits,
        trf_bits: (latch_core::trf::NUM_REGS as u64) * 4,
        tlb_taint_bits: params.tlb_entries as u64 * pd,
        precise_cache_bits: precise_cache_bytes * 8,
    }
}

/// Logic-element estimate for the LATCH combinational logic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogicEstimate {
    /// CAM comparators for the fully-associative CTC (one per tag bit,
    /// plus the per-entry AND trees).
    pub comparator_les: u64,
    /// The masked OR-reduction/update tree of Fig. 12 (chained across
    /// the domain and page levels).
    pub reduction_les: u64,
    /// Operand extraction, decoders, LRU bookkeeping, and control.
    pub control_les: u64,
}

impl LogicEstimate {
    /// Total logic elements.
    pub fn total(&self) -> u64 {
        self.comparator_les + self.reduction_les + self.control_les
    }
}

/// Estimates logic elements for a configuration (one LE ≈ one 4-input
/// LUT, the Cyclone IV fabric of the paper's DE2-115).
pub fn logic(params: &LatchParams, storage: &StorageBudget) -> LogicEstimate {
    let entries = params.ctc_entries as u64;
    // Each CTC storage bit (payload, clear, CAM tag) carries write
    // enables, muxing, and bit-line periphery — roughly 0.3 LE per bit
    // in LUT fabric.
    let ctc_bits = storage.ctc_payload_bits + storage.ctc_clear_bits + storage.ctc_tag_bits;
    LogicEstimate {
        // One LUT per 2 tag bits per entry for XNOR+AND folding, plus a
        // match-combine tree.
        comparator_les: storage.ctc_tag_bits / 2 + entries * 4,
        // 32-bit OR reduction + mask decode, twice (domain + page level).
        reduction_les: 2 * (32 + 16),
        // Extraction, LRU (log2(entries) bits × entries), FSM, muxes,
        // and per-bit periphery.
        control_les: 160 + entries * 8 + ctc_bits * 3 / 10,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latch_core::config::LatchConfig;

    #[test]
    fn s_latch_capacity_matches_paper_160_bytes() {
        // §6.4: 16-entry CTC (64 B) + clear bits (64 B) + two page-level
        // taint bits × 128 TLB entries (32 B) = 160 B.
        let params = LatchConfig::s_latch().build().unwrap();
        let s = storage(&params, true, 0);
        assert_eq!(s.ctc_payload_bits / 8, 64);
        assert_eq!(s.ctc_clear_bits / 8, 64);
        assert_eq!(s.tlb_taint_bits / 8, 32);
        assert_eq!(s.capacity_bytes(), 160);
    }

    #[test]
    fn h_latch_core_capacity() {
        // §6.4: CTC 64 B + precise cache 128 B (+ TLB bits) — the paper
        // quotes 320 B for the whole stack.
        let params = LatchConfig::h_latch().build().unwrap();
        let s = storage(&params, false, 128);
        assert_eq!(s.ctc_payload_bits / 8, 64);
        assert_eq!(s.precise_cache_bits / 8, 128);
        assert!(s.capacity_bytes() >= 320);
    }

    #[test]
    fn logic_estimate_is_small() {
        let params = LatchConfig::s_latch().build().unwrap();
        let s = storage(&params, true, 0);
        let l = logic(&params, &s);
        // The whole module is on the order of a thousand LEs — tiny
        // against even the small AO486 core.
        assert!(l.total() > 100);
        assert!(l.total() < 3000);
    }

    #[test]
    fn bigger_ctc_costs_more() {
        let small = LatchConfig::s_latch().build().unwrap();
        let big = LatchConfig::s_latch().ctc_entries(64).build().unwrap();
        let ss = storage(&small, true, 0);
        let sb = storage(&big, true, 0);
        assert!(sb.total_bits() > ss.total_bits());
        assert!(logic(&big, &sb).total() > logic(&small, &ss).total());
    }
}
