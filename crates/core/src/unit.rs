//! The assembled LATCH hardware module.
//!
//! [`LatchUnit`] wires together the structures of paper Fig. 7: the
//! Coarse Taint Table (D), the Coarse Taint Cache (C), the TLB taint bits
//! (E), and the Taint Register File (B). Operand extraction (A) is
//! performed by the simulator, which feeds extracted memory and register
//! operands into [`LatchUnit::check_read`] / [`LatchUnit::check_write`] /
//! [`LatchUnit::reg_tainted`].
//!
//! A coarse check walks the screening stack top-down: the page-level taint
//! bit first (clear ⇒ resolved, no CTC access), then the CTC (filling from
//! the CTT on a miss). The answer is conservative: `coarse_tainted ==
//! false` guarantees no byte of the operand is precisely tainted, while
//! `coarse_tainted == true` may be a false positive that the precise layer
//! filters.

use crate::config::LatchParams;
use crate::ctc::{ClearScanReport, CoarseTaintCache, CtcScrubReport, EvictedLine};
use crate::ctt::{CoarseTaintTable, CttScrubReport};
use crate::domain::{CttWordId, DomainGeometry, PageId};
use crate::isa_ext::LatchInstr;
use crate::snapshot::{SnapError, SnapReader, SnapWriter};
use crate::stats::{CheckStats, LatchStats, ResolvedAt, ScrubStats};
use crate::tlb::{PageTaintTable, TaintTlb};
use crate::trf::TaintRegisterFile;
use crate::update::{apply_precise_update, UpdateReport};
use crate::{Addr, PreciseView, PAGE_SIZE};

/// The result of one coarse operand check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Conservative taint answer for the operand.
    pub coarse_tainted: bool,
    /// The screening level that produced the answer.
    pub resolved_at: ResolvedAt,
    /// Cycles charged (TLB fills + CTC misses).
    pub penalty_cycles: u64,
}

/// Which coarse structure a fault-injection flip targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoarseStructure {
    /// The Coarse Taint Cache (a resident line's bits).
    Ctc,
    /// The in-memory Coarse Taint Table (a populated word).
    Ctt,
}

/// Outcome of a [`LatchUnit::scrub`] pass over both coarse structures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// The CTT pass (runs first; the CTT is the CTC's fill authority).
    pub ctt: CttScrubReport,
    /// The CTC pass (runs after the CTT is known-good).
    pub ctc: CtcScrubReport,
}

impl ScrubReport {
    /// Whether this pass repaired anything.
    pub fn repaired_anything(&self) -> bool {
        self.ctt.words_repaired > 0 || self.ctc.lines_repaired > 0
    }
}

/// Magic word of a [`LatchUnit`] snapshot blob (`"LTCH"`).
const SNAP_MAGIC: u32 = 0x4C54_4348;
/// Current snapshot format version. Version 2 appends a CRC-32 trailer
/// over the whole blob; version-1 blobs (no trailer) are still read.
const SNAP_VERSION: u32 = 2;

/// The complete LATCH module.
#[derive(Debug, Clone)]
pub struct LatchUnit {
    params: LatchParams,
    ctt: CoarseTaintTable,
    ctc: CoarseTaintCache,
    tlb: TaintTlb,
    pt: PageTaintTable,
    trf: TaintRegisterFile,
    checks: CheckStats,
    scrub_stats: ScrubStats,
    last_exception_addr: Option<Addr>,
    pending_evictions: Vec<EvictedLine>,
    /// Set for good once an injected soft error may hide in the coarse
    /// state: by [`corrupt_coarse`](Self::corrupt_coarse), and on
    /// restore from stale parity or a past scrub repair. Not part of
    /// the snapshot.
    suspect: bool,
}

impl LatchUnit {
    /// Builds a LATCH unit from validated parameters.
    pub fn new(params: LatchParams) -> Self {
        Self {
            params,
            ctt: CoarseTaintTable::new(),
            ctc: CoarseTaintCache::new(params.geometry, params.ctc_entries, params.ctc_miss_penalty),
            tlb: TaintTlb::new(params.geometry, params.tlb_entries, params.tlb_miss_penalty),
            pt: PageTaintTable::new(),
            trf: TaintRegisterFile::new(),
            checks: CheckStats::default(),
            scrub_stats: ScrubStats::default(),
            last_exception_addr: None,
            pending_evictions: Vec::new(),
            suspect: false,
        }
    }

    /// The validated parameters this unit was built with.
    pub fn params(&self) -> &LatchParams {
        &self.params
    }

    /// The taint-domain geometry.
    pub fn geometry(&self) -> &DomainGeometry {
        &self.params.geometry
    }

    /// Read access to the backing CTT.
    pub fn ctt(&self) -> &CoarseTaintTable {
        &self.ctt
    }

    /// Read access to the page taint table.
    pub fn page_table(&self) -> &PageTaintTable {
        &self.pt
    }

    /// Read access to the taint register file.
    pub fn trf(&self) -> &TaintRegisterFile {
        &self.trf
    }

    /// Mutable access to the taint register file (register-taint updates
    /// are driven by the DIFT propagation rules).
    pub fn trf_mut(&mut self) -> &mut TaintRegisterFile {
        &mut self.trf
    }

    /// Snapshot of every counter.
    pub fn stats(&self) -> LatchStats {
        LatchStats {
            checks: self.checks,
            ctc: *self.ctc.stats(),
            tlb: *self.tlb.stats(),
            scrub: self.scrub_stats,
        }
    }

    /// Resets all counters, leaving taint state intact.
    pub fn reset_stats(&mut self) {
        self.checks = CheckStats::default();
        self.scrub_stats = ScrubStats::default();
        self.ctc.reset_stats();
        self.tlb.reset_stats();
    }

    fn check(&mut self, addr: Addr, len: u32) -> CheckOutcome {
        self.checks.checks = self.checks.checks.saturating_add(1);
        latch_obs::counter_inc("core.unit.checks");
        let tlb_acc = self.tlb.lookup_range(addr, len, &self.pt);
        let mut penalty = tlb_acc.penalty_cycles;
        if !tlb_acc.page_domain_tainted {
            self.checks.resolved_tlb = self.checks.resolved_tlb.saturating_add(1);
            self.checks.penalty_cycles = self.checks.penalty_cycles.saturating_add(penalty);
            latch_obs::counter_inc("core.unit.resolved_tlb");
            return CheckOutcome {
                coarse_tainted: false,
                resolved_at: ResolvedAt::Tlb,
                penalty_cycles: penalty,
            };
        }
        self.checks.resolved_ctc = self.checks.resolved_ctc.saturating_add(1);
        latch_obs::counter_inc("core.unit.resolved_ctc");
        let ctc_acc = self.ctc.lookup_range(addr, len, &self.ctt);
        penalty += ctc_acc.penalty_cycles;
        if let Some(evicted) = ctc_acc.evicted {
            self.pending_evictions.push(evicted);
        }
        if ctc_acc.tainted {
            self.checks.coarse_hits = self.checks.coarse_hits.saturating_add(1);
            latch_obs::counter_inc("core.unit.coarse_hits");
            self.last_exception_addr = Some(addr);
        }
        self.checks.penalty_cycles = self.checks.penalty_cycles.saturating_add(penalty);
        latch_obs::counter_add("core.unit.penalty_cycles", penalty);
        CheckOutcome {
            coarse_tainted: ctc_acc.tainted,
            resolved_at: ResolvedAt::Ctc,
            penalty_cycles: penalty,
        }
    }

    /// Coarse check for a memory read of `len` bytes at `addr`.
    pub fn check_read(&mut self, addr: Addr, len: u32) -> CheckOutcome {
        self.check(addr, len)
    }

    /// Coarse check for a memory write of `len` bytes at `addr`.
    ///
    /// Writes are screened like reads: an overwrite of tainted memory is a
    /// taint-state change the precise layer must see (it may clear taint).
    pub fn check_write(&mut self, addr: Addr, len: u32) -> CheckOutcome {
        self.check(addr, len)
    }

    /// Whether register `r` carries taint according to the TRF.
    pub fn reg_tainted(&self, r: usize) -> bool {
        self.trf.get(r).any()
    }

    /// The `ltnt` instruction: address that raised the most recent coarse
    /// taint exception, if any.
    pub fn last_exception_addr(&self) -> Option<Addr> {
        self.last_exception_addr
    }

    /// The `stnt` instruction: updates the taint status of
    /// `[addr, addr + len)` through the taint-cache path, keeping page
    /// bits and resident TLB entries coherent.
    pub fn write_taint(&mut self, addr: Addr, len: u32, tainted: bool) -> CheckOutcome {
        let acc = self.ctc.write_taint(addr, len, tainted, &mut self.ctt);
        if let Some(evicted) = acc.evicted {
            self.pending_evictions.push(evicted);
        }
        if tainted {
            self.refresh_pages_for_range(addr, len);
        }
        CheckOutcome {
            coarse_tainted: tainted,
            resolved_at: ResolvedAt::Ctc,
            penalty_cycles: acc.penalty_cycles,
        }
    }

    /// Executes one S-LATCH ISA extension. For `Ltnt` the result is the
    /// recorded exception address (0 if none); the other two return 0.
    pub fn exec(&mut self, instr: LatchInstr) -> u64 {
        match instr {
            LatchInstr::Strf { packed } => {
                self.trf.load_packed(packed);
                0
            }
            LatchInstr::Stnt { addr, len, tainted } => {
                self.write_taint(addr, len, tainted);
                0
            }
            LatchInstr::Ltnt => u64::from(self.last_exception_addr.unwrap_or(0)),
        }
    }

    /// Runs the S-LATCH clear-scan (paper §5.1.4) against the precise
    /// taint state: every domain with an asserted clear bit — cached or
    /// pending from an eviction — is re-derived, and page bits are
    /// refreshed for the affected pages.
    pub fn clear_scan<V: PreciseView>(&mut self, view: &V) -> ClearScanReport {
        let mut report = self.ctc.clear_scan(view, &mut self.ctt);
        for evicted in std::mem::take(&mut self.pending_evictions) {
            report.merge(self.ctc.scan_evicted(evicted, view, &mut self.ctt));
        }
        let geom = self.params.geometry;
        let mut pages: Vec<PageId> = Vec::new();
        for domain in &report.cleared {
            let base = geom.domain_base(*domain);
            let word = geom.word_of(base);
            let word_base = u64::from(geom.word_base(word));
            let span = geom.word_span_bytes();
            let mut p = word_base / u64::from(PAGE_SIZE);
            let end = (word_base + span).min(1 << 32);
            while p * u64::from(PAGE_SIZE) < end {
                let page = PageId(p as u32);
                if !pages.contains(&page) {
                    pages.push(page);
                }
                p += 1;
            }
        }
        for page in pages {
            let bits = TaintTlb::derive_page_bits(&geom, page, &self.ctt);
            self.pt.set_page_bits(page, bits);
            self.tlb.update_resident(page, bits);
        }
        report
    }

    /// Number of eviction-triggered clear-scans waiting to be serviced.
    pub fn pending_evictions(&self) -> usize {
        self.pending_evictions.len()
    }

    /// Fault-injection surface: flips one coarse bit in the chosen
    /// structure *without* maintaining parity, modelling a soft error.
    /// Victim selection is deterministic in `slot`, so a seeded fault
    /// plan replays identically. Returns whether a bit actually
    /// changed.
    ///
    /// `set == true` injects a spurious set (precision loss only);
    /// `set == false` injects a spurious clear — the dangerous
    /// direction that [`LatchUnit::scrub`] exists to repair.
    pub fn corrupt_coarse(&mut self, target: CoarseStructure, slot: u64, bit: u32, set: bool) -> bool {
        let flipped = match target {
            CoarseStructure::Ctc => self.ctc.corrupt_slot(slot, bit, set).is_some(),
            CoarseStructure::Ctt => self.ctt.corrupt_slot(slot, bit, set).is_some(),
        };
        self.suspect |= flipped;
        flipped
    }

    /// Whether a clean coarse answer can stand in for the precise tier:
    /// false for good from the first [`corrupt_coarse`](Self::corrupt_coarse)
    /// flip, because a [`scrub`](Self::scrub) cannot vouch for the
    /// state — two flips in one CTT word or CTC line cancel in its
    /// parity. Legitimate writes toggle parity by the bits they change,
    /// so a single flip stays visible until a scrub repairs it, and a
    /// restore is untrusted when a CTT word or CTC line carries stale
    /// parity or the unit's scrubs ever repaired anything.
    pub fn coarse_trusted(&self) -> bool {
        !self.suspect
    }

    /// Parity-scrubs both coarse structures against the precise taint
    /// state, repairing detected corruption conservatively:
    ///
    /// 1. CTT words with parity mismatches are re-derived from `view`
    ///    (spurious clears rebuild as tainted — no false negatives;
    ///    spurious sets drop — precision recovers).
    /// 2. Resident CTC lines caching a repaired word are refreshed, and
    ///    a CTC parity pass reloads any line corrupted directly.
    /// 3. Page-level taint bits and resident TLB entries covering the
    ///    repaired words are re-derived so every screening level agrees.
    pub fn scrub<V: PreciseView>(&mut self, view: &V) -> ScrubReport {
        let geom = self.params.geometry;
        let ctt_report = self.ctt.scrub(&geom, view);
        for word in &ctt_report.repaired {
            self.ctc.refresh_word(*word, &self.ctt);
        }
        let ctc_report = self.ctc.scrub(&self.ctt);
        for word in &ctt_report.repaired {
            let base = geom.word_base(*word);
            self.refresh_pages_for_range(base, geom.word_span_bytes().min(u64::from(u32::MAX)) as u32);
        }
        self.scrub_stats.scrubs = self.scrub_stats.scrubs.saturating_add(1);
        self.scrub_stats.ctt_words_repaired = self
            .scrub_stats
            .ctt_words_repaired
            .saturating_add(ctt_report.words_repaired);
        self.scrub_stats.domains_retainted = self
            .scrub_stats
            .domains_retainted
            .saturating_add(ctt_report.domains_retainted);
        self.scrub_stats.ctc_lines_repaired = self
            .scrub_stats
            .ctc_lines_repaired
            .saturating_add(ctc_report.lines_repaired);
        latch_obs::counter_inc("core.scrub.passes");
        if ctt_report.words_repaired > 0 {
            latch_obs::counter_add("core.scrub.ctt_words_repaired", ctt_report.words_repaired);
            latch_obs::emit(
                "core.scrub",
                latch_obs::TraceEvent::ScrubRepair {
                    structure: "ctt",
                    repaired: ctt_report.words_repaired,
                },
            );
        }
        if ctc_report.lines_repaired > 0 {
            latch_obs::counter_add("core.scrub.ctc_lines_repaired", ctc_report.lines_repaired);
            latch_obs::emit(
                "core.scrub",
                latch_obs::TraceEvent::ScrubRepair {
                    structure: "ctc",
                    repaired: ctc_report.lines_repaired,
                },
            );
        }
        ScrubReport {
            ctt: ctt_report,
            ctc: ctc_report,
        }
    }

    /// The H-LATCH commit-stage update path (paper §5.3.1): synchronizes
    /// the coarse state with a precise taint update at `[addr, addr+len)`.
    /// `view` must reflect the *post-update* precise state.
    pub fn sync_precise_update<V: PreciseView>(
        &mut self,
        view: &V,
        addr: Addr,
        len: u32,
    ) -> UpdateReport {
        let report = apply_precise_update(
            &self.params.geometry,
            &mut self.ctt,
            &mut self.pt,
            Some(&mut self.tlb),
            view,
            addr,
            len,
        );
        // The commit-stage update writes the CTC simultaneously (paper
        // Fig. 12 chains the levels): refresh any resident lines whose
        // words the update touched, so no cached line goes stale.
        let geom = self.params.geometry;
        let mut last_word = None;
        for domain in geom.domains_in(addr, len) {
            let word = geom.word_of(geom.domain_base(domain));
            if last_word != Some(word) {
                self.ctc.refresh_word(word, &self.ctt);
                last_word = Some(word);
            }
        }
        report
    }

    /// Flushes the CTC and TLB (context switch), turning any dirty CTC
    /// lines into pending clear-scans.
    pub fn flush_caches(&mut self) {
        let dirty = self.ctc.flush();
        self.pending_evictions.extend(dirty);
        self.tlb.flush();
    }

    /// Verifies the no-false-negative invariant against a precise view
    /// over the given address range: every precisely tainted byte must lie
    /// in a coarsely tainted domain *and* a tainted page-level domain.
    /// Intended for tests and debug assertions.
    pub fn coarse_covers_precise<V: PreciseView>(&self, view: &V, start: Addr, len: u32) -> bool {
        let geom = self.params.geometry;
        for domain in geom.domains_in(start, len) {
            let base = geom.domain_base(domain);
            if view.any_tainted(base, geom.domain_bytes()) {
                if !self.ctt.domain_bit(domain) {
                    return false;
                }
                let page = geom.page_of(base);
                let pd = geom.page_domain_of(base);
                if self.pt.page_bits(page) & (1 << pd) == 0 {
                    return false;
                }
            }
        }
        true
    }

    /// Freezes the complete unit — parameters, coarse structures, LRU
    /// clocks, statistics, pending eviction scans — into an opaque byte
    /// blob. The encoding is deterministic (hash maps are written
    /// sorted), so snapshotting equal states yields equal bytes, and a
    /// unit restored via [`from_snapshot`](Self::from_snapshot) behaves
    /// byte-identically to one that was never frozen, down to its
    /// statistics counters.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.snap_encode(&mut w);
        w.finish_crc()
    }

    /// Writes the [`to_snapshot`](Self::to_snapshot) blob less its
    /// CRC-32 trailer into `w`. Seal it with
    /// [`SnapWriter::finish_crc`], or nest it inside an enclosing blob
    /// with [`SnapWriter::sealed`].
    pub fn snap_encode(&self, w: &mut SnapWriter) {
        w.header(SNAP_MAGIC, SNAP_VERSION);
        w.u32(self.params.geometry.domain_bytes());
        w.u64(self.params.ctc_entries as u64);
        w.u64(self.params.ctc_miss_penalty);
        w.u64(self.params.tlb_entries as u64);
        w.u64(self.params.tlb_miss_penalty);
        w.u32(self.params.sw_timeout);
        self.ctt.snap_encode(w);
        self.ctc.snap_encode(w);
        self.tlb.snap_encode(w);
        self.pt.snap_encode(w);
        w.u64(self.trf.to_packed());
        w.u64(self.checks.checks);
        w.u64(self.checks.resolved_tlb);
        w.u64(self.checks.resolved_ctc);
        w.u64(self.checks.coarse_hits);
        w.u64(self.checks.penalty_cycles);
        w.u64(self.scrub_stats.scrubs);
        w.u64(self.scrub_stats.ctt_words_repaired);
        w.u64(self.scrub_stats.domains_retainted);
        w.u64(self.scrub_stats.ctc_lines_repaired);
        w.opt_u32(self.last_exception_addr);
        w.u64(self.pending_evictions.len() as u64);
        for ev in &self.pending_evictions {
            w.u32(ev.word.0);
            w.u32(ev.bits);
            w.u32(ev.clear_bits);
        }
    }

    /// Thaws a unit frozen by [`to_snapshot`](Self::to_snapshot).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] if the blob is truncated, from a
    /// different format version, or internally inconsistent.
    pub fn from_snapshot(blob: &[u8]) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(blob);
        let version = r.header(SNAP_MAGIC, SNAP_VERSION)?;
        if version >= 2 {
            r.trim_crc()?;
        }
        let domain_bytes = r.u32()?;
        let geometry =
            DomainGeometry::new(domain_bytes).map_err(|_| SnapError::Corrupt("domain bytes"))?;
        let params = LatchParams {
            geometry,
            ctc_entries: r.u64()? as usize,
            ctc_miss_penalty: r.u64()?,
            tlb_entries: r.u64()? as usize,
            tlb_miss_penalty: r.u64()?,
            sw_timeout: r.u32()?,
        };
        if params.ctc_entries == 0 || params.tlb_entries == 0 || params.sw_timeout == 0 {
            return Err(SnapError::Corrupt("zero-sized structure"));
        }
        let ctt = CoarseTaintTable::snap_decode(&mut r)?;
        let ctc = CoarseTaintCache::snap_decode(
            geometry,
            params.ctc_entries,
            params.ctc_miss_penalty,
            &mut r,
        )?;
        let tlb = TaintTlb::snap_decode(
            geometry,
            params.tlb_entries,
            params.tlb_miss_penalty,
            &mut r,
        )?;
        let pt = PageTaintTable::snap_decode(&mut r)?;
        let trf = TaintRegisterFile::from_packed_silent(r.u64()?);
        let checks = CheckStats {
            checks: r.u64()?,
            resolved_tlb: r.u64()?,
            resolved_ctc: r.u64()?,
            coarse_hits: r.u64()?,
            penalty_cycles: r.u64()?,
        };
        let scrub_stats = ScrubStats {
            scrubs: r.u64()?,
            ctt_words_repaired: r.u64()?,
            domains_retainted: r.u64()?,
            ctc_lines_repaired: r.u64()?,
        };
        let last_exception_addr = r.opt_u32()?;
        let n = r.len(12)?;
        let mut pending_evictions = Vec::with_capacity(n);
        for _ in 0..n {
            pending_evictions.push(EvictedLine {
                word: CttWordId(r.u32()?),
                bits: r.u32()?,
                clear_bits: r.u32()?,
            });
        }
        r.expect_end()?;
        let suspect = ctt.parity_mismatch()
            || ctc.parity_mismatch()
            || scrub_stats.ctt_words_repaired > 0
            || scrub_stats.ctc_lines_repaired > 0;
        Ok(Self {
            params,
            ctt,
            ctc,
            tlb,
            pt,
            trf,
            checks,
            scrub_stats,
            last_exception_addr,
            pending_evictions,
            suspect,
        })
    }

    fn refresh_pages_for_range(&mut self, addr: Addr, len: u32) {
        let geom = self.params.geometry;
        let span = geom.word_span_bytes();
        let mut pages: Vec<PageId> = Vec::new();
        for domain in geom.domains_in(addr, len) {
            let base = geom.domain_base(domain);
            let word = geom.word_of(base);
            let word_base = u64::from(geom.word_base(word));
            let mut p = word_base / u64::from(PAGE_SIZE);
            let end = (word_base + span).min(1 << 32);
            while p * u64::from(PAGE_SIZE) < end {
                let page = PageId(p as u32);
                if !pages.contains(&page) {
                    pages.push(page);
                }
                p += 1;
            }
        }
        for page in pages {
            let bits = TaintTlb::derive_page_bits(&geom, page, &self.ctt);
            self.pt.set_page_bits(page, bits);
            self.tlb.update_resident(page, bits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatchConfig;
    use crate::EmptyView;

    fn unit() -> LatchUnit {
        LatchUnit::new(LatchConfig::s_latch().build().unwrap())
    }

    struct VecView(Vec<(Addr, u32)>);
    impl PreciseView for VecView {
        fn any_tainted(&self, start: Addr, len: u32) -> bool {
            let s = u64::from(start);
            let e = s + u64::from(len);
            self.0.iter().any(|&(a, l)| {
                let as_ = u64::from(a);
                u64::from(a) < e && s < as_ + u64::from(l)
            })
        }
    }

    #[test]
    fn clean_memory_resolves_at_tlb() {
        let mut u = unit();
        let out = u.check_read(0x4000, 4);
        assert!(!out.coarse_tainted);
        assert_eq!(out.resolved_at, ResolvedAt::Tlb);
        assert_eq!(u.stats().checks.resolved_tlb, 1);
    }

    #[test]
    fn tainted_domain_trips_check_and_records_address() {
        let mut u = unit();
        u.write_taint(0x4000, 4, true);
        let out = u.check_read(0x4002, 1);
        assert!(out.coarse_tainted);
        assert_eq!(out.resolved_at, ResolvedAt::Ctc);
        assert_eq!(u.last_exception_addr(), Some(0x4002));
        assert_eq!(u.exec(LatchInstr::Ltnt), 0x4002);
    }

    #[test]
    fn false_positive_within_tainted_domain() {
        let mut u = unit();
        u.write_taint(0x4000, 1, true);
        // Byte 0x403F shares the 64-byte domain: coarse check fires even
        // though the byte itself is clean — a false positive by design.
        assert!(u.check_read(0x403F, 1).coarse_tainted);
        // The next domain over is clean.
        assert!(!u.check_read(0x4040, 1).coarse_tainted);
    }

    #[test]
    fn same_page_other_half_resolves_at_ctc_not_tlb() {
        let mut u = unit();
        u.write_taint(0x4000, 1, true);
        // 0x4000 is in the lower 2 KiB page-domain of page 4; an access to
        // the same half must go to the CTC, while the upper half is
        // screened by the TLB bit.
        let lower = u.check_read(0x4100, 4);
        assert_eq!(lower.resolved_at, ResolvedAt::Ctc);
        assert!(!lower.coarse_tainted);
        let upper = u.check_read(0x4800, 4);
        assert_eq!(upper.resolved_at, ResolvedAt::Tlb);
    }

    #[test]
    fn stnt_zero_then_clear_scan_restores_clean_state() {
        let mut u = unit();
        u.write_taint(0x4000, 8, true);
        u.write_taint(0x4000, 8, false);
        // Coarse bit conservatively stays up until the scan.
        assert!(u.check_read(0x4000, 1).coarse_tainted);
        let report = u.clear_scan(&EmptyView);
        assert_eq!(report.domains_cleared, 1);
        // Back to a fully clean page: resolved at the TLB again.
        let out = u.check_read(0x4000, 1);
        assert!(!out.coarse_tainted);
        assert_eq!(out.resolved_at, ResolvedAt::Tlb);
    }

    #[test]
    fn clear_scan_respects_remaining_taint() {
        let mut u = unit();
        u.write_taint(0x4000, 2, true);
        u.write_taint(0x4000, 1, false);
        let view = VecView(vec![(0x4001, 1)]);
        let report = u.clear_scan(&view);
        assert_eq!(report.domains_cleared, 0);
        assert!(u.check_read(0x4000, 1).coarse_tainted);
        assert!(u.coarse_covers_precise(&view, 0x4000, 64));
    }

    #[test]
    fn strf_loads_trf() {
        let mut u = unit();
        assert!(!u.reg_tainted(2));
        u.exec(LatchInstr::Strf { packed: 0xF << 8 });
        assert!(u.reg_tainted(2));
        assert!(!u.reg_tainted(3));
    }

    #[test]
    fn sync_precise_update_is_h_latch_path() {
        let mut u = LatchUnit::new(LatchConfig::h_latch().build().unwrap());
        let view = VecView(vec![(0x1000, 4)]);
        let report = u.sync_precise_update(&view, 0x1000, 4);
        assert_eq!(report.domains_set, 1);
        assert!(u.check_read(0x1000, 4).coarse_tainted);
        // Clearing through the same path drops everything at once.
        let report = u.sync_precise_update(&EmptyView, 0x1000, 4);
        assert_eq!(report.domains_cleared, 1);
        let out = u.check_read(0x1000, 4);
        assert!(!out.coarse_tainted);
        assert_eq!(out.resolved_at, ResolvedAt::Tlb);
    }

    #[test]
    fn sync_precise_update_refreshes_resident_ctc_lines() {
        // Regression: with large domains one CTC line covers a huge
        // span and stays resident; a commit-stage CTT update must
        // write through to it, or the screen goes stale and produces
        // false negatives (found by the granularity ablation).
        let mut u = LatchUnit::new(
            LatchConfig::h_latch().domain_bytes(1024).build().unwrap(),
        );
        // Make the page's TLB bit hot so the CTC is consulted, and
        // cache the clean CTT word.
        let view0 = VecView(vec![(0x5400, 1)]);
        u.sync_precise_update(&view0, 0x5400, 1);
        assert!(!u.check_read(0x5000, 4).coarse_tainted);
        // New taint in a domain whose word is already cached clean.
        let view = VecView(vec![(0x5000, 16), (0x5400, 1)]);
        u.sync_precise_update(&view, 0x5000, 16);
        let out = u.check_read(0x5000, 4);
        assert!(out.coarse_tainted, "resident CTC line must see the update");
    }

    #[test]
    fn flush_converts_dirty_lines_to_pending_scans() {
        let mut u = unit();
        u.write_taint(0x4000, 1, true);
        u.write_taint(0x4000, 1, false);
        u.flush_caches();
        assert_eq!(u.pending_evictions(), 1);
        let report = u.clear_scan(&EmptyView);
        assert_eq!(report.domains_cleared, 1);
        assert_eq!(u.pending_evictions(), 0);
    }

    #[test]
    fn penalty_cycles_accumulate() {
        let mut u = unit();
        u.write_taint(0x4000, 1, true);
        u.flush_caches();
        u.clear_scan(&VecView(vec![(0x4000, 1)]));
        // Cold CTC access to a tainted page-domain costs the miss penalty.
        let out = u.check_read(0x4100, 4);
        assert_eq!(out.penalty_cycles, 150);
        assert!(u.stats().checks.penalty_cycles >= 150);
    }

    #[test]
    fn scrub_restores_no_false_negative_after_ctt_corruption() {
        let mut u = unit();
        u.write_taint(0x4000, 4, true);
        let view = VecView(vec![(0x4000, 4)]);
        assert!(u.coarse_covers_precise(&view, 0x4000, 64));
        // Spurious clear in the CTT: the invariant is now broken.
        assert!(u.corrupt_coarse(CoarseStructure::Ctt, 0, 0, false));
        assert!(!u.coarse_covers_precise(&view, 0x4000, 64));
        let report = u.scrub(&view);
        assert_eq!(report.ctt.words_repaired, 1);
        assert_eq!(report.ctt.domains_retainted, 1);
        assert!(u.coarse_covers_precise(&view, 0x4000, 64));
        // Resident CTC lines and the check path agree again.
        assert!(u.check_read(0x4000, 4).coarse_tainted);
        assert!(u.stats().scrub.any_repairs());
    }

    #[test]
    fn scrub_repairs_ctc_only_corruption() {
        let mut u = unit();
        u.write_taint(0x4000, 4, true);
        assert!(u.corrupt_coarse(CoarseStructure::Ctc, 0, u.geometry().bit_of(0x4000), false));
        // The cached line now screens "clean" for a tainted domain.
        assert!(!u.check_read(0x4000, 4).coarse_tainted, "corruption landed");
        let view = VecView(vec![(0x4000, 4)]);
        let report = u.scrub(&view);
        assert_eq!(report.ctc.lines_repaired, 1);
        assert_eq!(report.ctt.words_repaired, 0, "CTT was never corrupted");
        assert!(u.check_read(0x4000, 4).coarse_tainted);
    }

    #[test]
    fn corruption_revokes_trust_for_good_and_across_a_restore() {
        let view = VecView(vec![(0x4000, 4)]);
        for target in [CoarseStructure::Ctt, CoarseStructure::Ctc] {
            let mut u = unit();
            u.write_taint(0x4000, 4, true);
            u.check_read(0x4000, 4);
            let thawed = |u: &LatchUnit| LatchUnit::from_snapshot(&u.to_snapshot()).unwrap();
            u.scrub(&view);
            assert!(u.coarse_trusted());
            assert!(thawed(&u).coarse_trusted(), "a scrub that repaired nothing");
            assert!(u.corrupt_coarse(target, 0, u.geometry().bit_of(0x4000), false));
            assert!(!u.coarse_trusted(), "{target:?}");
            assert!(!thawed(&u).coarse_trusted(), "{target:?}: stale parity");
            assert!(u.scrub(&view).repaired_anything(), "{target:?}");
            assert!(!u.coarse_trusted(), "{target:?}: the scrub cannot vouch");
            assert!(!thawed(&u).coarse_trusted(), "{target:?}: a past repair");
        }
    }

    #[test]
    fn scrub_on_clean_unit_repairs_nothing() {
        let mut u = unit();
        u.write_taint(0x4000, 4, true);
        let view = VecView(vec![(0x4000, 4)]);
        let report = u.scrub(&view);
        assert!(!report.repaired_anything());
        assert_eq!(u.stats().scrub.scrubs, 1);
        assert!(!u.stats().scrub.any_repairs());
    }

    /// Exercises a unit into a messy state: taint, partial clears
    /// (pending clear bits), cache pressure, a flush (pending
    /// evictions), corruption with stale parity, and live stats.
    fn messy_unit() -> LatchUnit {
        let mut u = unit();
        u.write_taint(0x4000, 8, true);
        u.write_taint(0x4004, 2, false);
        u.exec(LatchInstr::Strf { packed: 0xF0F });
        for i in 0..20u32 {
            u.check_read(i * 0x800, 4);
        }
        u.flush_caches();
        u.check_read(0x4000, 4);
        u.corrupt_coarse(CoarseStructure::Ctt, 0, 3, true);
        u
    }

    #[test]
    fn snapshot_roundtrip_is_byte_identical() {
        let u = messy_unit();
        let blob = u.to_snapshot();
        let restored = LatchUnit::from_snapshot(&blob).unwrap();
        assert_eq!(restored.to_snapshot(), blob);
        assert_eq!(restored.stats(), u.stats());
        assert_eq!(restored.last_exception_addr(), u.last_exception_addr());
        assert_eq!(restored.pending_evictions(), u.pending_evictions());
    }

    #[test]
    fn restored_unit_replays_identically() {
        // Restore must be invisible: running the same access sequence on
        // the original and the thawed copy yields identical snapshots,
        // including LRU decisions and statistics.
        let mut a = messy_unit();
        let mut b = LatchUnit::from_snapshot(&a.to_snapshot()).unwrap();
        for u in [&mut a, &mut b] {
            u.write_taint(0x9000, 4, true);
            for i in 0..40u32 {
                u.check_read(i * 0x800 + 16, 4);
            }
            u.clear_scan(&EmptyView);
            u.scrub(&VecView(vec![(0x9000, 4)]));
            u.flush_caches();
            u.check_write(0x9002, 2);
        }
        assert_eq!(a.to_snapshot(), b.to_snapshot());
    }

    #[test]
    fn snapshot_rejects_garbage() {
        let u = unit();
        let blob = u.to_snapshot();
        assert!(LatchUnit::from_snapshot(&blob[..blob.len() - 1]).is_err());
        let mut bad = blob.clone();
        bad[0] ^= 0xFF;
        assert!(LatchUnit::from_snapshot(&bad).is_err());
        let mut trailing = blob;
        trailing.push(0);
        assert!(LatchUnit::from_snapshot(&trailing).is_err());
    }

    #[test]
    fn write_taint_keeps_page_bits_for_multiple_pages() {
        let mut u = unit();
        // Range spanning a page boundary.
        u.write_taint(PAGE_SIZE - 4, 8, true);
        assert!(u.check_read(PAGE_SIZE - 4, 1).coarse_tainted);
        assert!(u.check_read(PAGE_SIZE, 1).coarse_tainted);
        let view = VecView(vec![(PAGE_SIZE - 4, 8)]);
        assert!(u.coarse_covers_precise(&view, PAGE_SIZE - 64, 128));
    }
}
