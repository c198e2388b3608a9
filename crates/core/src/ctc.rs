//! The Coarse Taint Cache (CTC).
//!
//! The CTC (paper §4.1, Fig. 7 component C) is a tiny fully-associative
//! cache over CTT words. Because each 32-bit line summarizes the taint
//! state of `32 * domain_bytes` of memory, and because tainted data shows
//! strong temporal locality, a cache of only 16 entries (64 bytes of
//! payload) achieves very high hit rates — this is the central hardware
//! economy of LATCH.
//!
//! For S-LATCH the CTC additionally carries one *taint clear bit* per
//! domain bit (paper §5.1.4): the clear bit is asserted when an `stnt`
//! instruction writes a zero taint status to a byte of the domain and
//! de-asserted when a non-zero status is written. Before control returns
//! to hardware mode, the software layer scans every domain with an
//! asserted clear bit and drops the domain's coarse bit if the domain is
//! now completely untainted. Evicting a line with asserted clear bits
//! raises the same scan (as a hardware exception) so clear bits never have
//! to be stored in memory.

use crate::ctt::CoarseTaintTable;
use crate::domain::{CttWordId, DomainGeometry};
use crate::snapshot::{SnapError, SnapReader, SnapWriter};
use crate::{Addr, PreciseView};

/// One CTC line: a cached CTT word plus its per-domain clear bits.
#[derive(Debug, Clone, Copy, Default)]
struct CtcLine {
    valid: bool,
    word: u32,
    bits: u32,
    clear_bits: u32,
    last_use: u64,
    /// Odd parity of `bits`, maintained by every legitimate write.
    /// A soft error injected via [`CoarseTaintCache::corrupt_slot`]
    /// flips `bits` without updating this, which is how
    /// [`CoarseTaintCache::scrub`] detects it.
    parity: bool,
}

/// Whether a 32-bit word has an odd number of set bits.
#[inline]
fn odd_parity(bits: u32) -> bool {
    bits.count_ones() % 2 == 1
}

/// Outcome of a [`CoarseTaintCache::scrub`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtcScrubReport {
    /// Valid lines whose parity was checked.
    pub lines_checked: u64,
    /// Lines whose parity mismatched and were reloaded from the CTT.
    pub lines_repaired: u64,
}

/// A CTC line that was displaced while holding asserted clear bits.
///
/// The paper handles this case with a hardware exception that triggers a
/// clear-scan of the affected domains (§5.1.4); callers receive the line
/// and must pass it to [`CoarseTaintCache::scan_evicted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The CTT word the line cached.
    pub word: CttWordId,
    /// Cached coarse taint bits at eviction time.
    pub bits: u32,
    /// Asserted clear bits at eviction time (non-zero by construction).
    pub clear_bits: u32,
}

/// Result of a CTC lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtcAccess {
    /// Whether the word was already cached.
    pub hit: bool,
    /// Coarse taint bit of the domain containing the queried address.
    pub tainted: bool,
    /// Cycles charged for this access (0 on a hit, the configured miss
    /// penalty on a miss).
    pub penalty_cycles: u64,
    /// Present when the fill displaced a line with asserted clear bits.
    pub evicted: Option<EvictedLine>,
}

/// Outcome of a clear-scan over domains with asserted clear bits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClearScanReport {
    /// Domains whose precise state was examined.
    pub domains_scanned: u64,
    /// Domains found completely untainted and cleared in the CTT.
    pub domains_cleared: u64,
    /// The specific domains that were cleared, so callers can re-derive
    /// page-level taint bits for the affected pages.
    pub cleared: Vec<crate::domain::DomainId>,
}

impl ClearScanReport {
    /// Merges another report into this one.
    pub fn merge(&mut self, other: ClearScanReport) {
        self.domains_scanned += other.domains_scanned;
        self.domains_cleared += other.domains_cleared;
        self.cleared.extend(other.cleared);
    }
}

/// Hit/miss/write counters for the CTC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtcStats {
    /// Lookups that found the word cached.
    pub hits: u64,
    /// Lookups that required a fill from the CTT.
    pub misses: u64,
    /// Fills that displaced a valid line.
    pub evictions: u64,
    /// Evictions of lines holding asserted clear bits (each raises a
    /// clear-scan exception in S-LATCH).
    pub clear_bit_evictions: u64,
    /// Taint writes routed through the cache (`stnt` path).
    pub writes: u64,
}

impl CtcStats {
    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; `0` when no accesses were made.
    pub fn miss_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A fully-associative, LRU-replaced cache of CTT words.
#[derive(Debug, Clone)]
pub struct CoarseTaintCache {
    geom: DomainGeometry,
    lines: Vec<CtcLine>,
    clock: u64,
    miss_penalty: u64,
    stats: CtcStats,
}

impl CoarseTaintCache {
    /// Creates a CTC with `entries` lines over the given geometry, charging
    /// `miss_penalty` cycles per fill (the paper models 150 cycles, §6.1).
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0`; configuration validation happens in
    /// [`LatchConfig`](crate::config::LatchConfig), which rejects this case
    /// with an error before construction.
    pub fn new(geom: DomainGeometry, entries: usize, miss_penalty: u64) -> Self {
        assert!(entries > 0, "CTC must have at least one entry");
        Self {
            geom,
            lines: vec![CtcLine::default(); entries],
            clock: 0,
            miss_penalty,
            stats: CtcStats::default(),
        }
    }

    /// The domain geometry this cache indexes with.
    pub fn geometry(&self) -> &DomainGeometry {
        &self.geom
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> &CtcStats {
        &self.stats
    }

    /// Resets statistics without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CtcStats::default();
    }

    fn find(&self, word: CttWordId) -> Option<usize> {
        self.lines
            .iter()
            .position(|l| l.valid && l.word == word.0)
    }

    fn victim(&self) -> usize {
        if let Some(idx) = self.lines.iter().position(|l| !l.valid) {
            return idx;
        }
        self.lines
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.last_use)
            .map(|(i, _)| i)
            .expect("cache has at least one line")
    }

    fn fill(&mut self, word: CttWordId, ctt: &CoarseTaintTable) -> (usize, Option<EvictedLine>) {
        let idx = self.victim();
        let old = self.lines[idx];
        let mut evicted = None;
        if old.valid {
            self.stats.evictions = self.stats.evictions.saturating_add(1);
            latch_obs::counter_inc("core.ctc.evictions");
            latch_obs::emit(
                "core.ctc",
                latch_obs::TraceEvent::CtcEvict {
                    word: old.word,
                    clear_scan: old.clear_bits != 0,
                },
            );
            if old.clear_bits != 0 {
                self.stats.clear_bit_evictions = self.stats.clear_bit_evictions.saturating_add(1);
                latch_obs::counter_inc("core.ctc.clear_bit_evictions");
                evicted = Some(EvictedLine {
                    word: CttWordId(old.word),
                    bits: old.bits,
                    clear_bits: old.clear_bits,
                });
            }
        }
        self.clock += 1;
        let bits = ctt.load_word(word);
        self.lines[idx] = CtcLine {
            valid: true,
            word: word.0,
            bits,
            clear_bits: 0,
            last_use: self.clock,
            parity: odd_parity(bits),
        };
        (idx, evicted)
    }

    /// Checks the coarse taint bit for the domain containing `addr`,
    /// filling from the CTT on a miss.
    pub fn lookup(&mut self, addr: Addr, ctt: &CoarseTaintTable) -> CtcAccess {
        let word = self.geom.word_of(addr);
        let bit = self.geom.bit_of(addr);
        if let Some(idx) = self.find(word) {
            self.clock += 1;
            self.lines[idx].last_use = self.clock;
            self.stats.hits = self.stats.hits.saturating_add(1);
            latch_obs::counter_inc("core.ctc.hits");
            return CtcAccess {
                hit: true,
                tainted: self.lines[idx].bits & (1 << bit) != 0,
                penalty_cycles: 0,
                evicted: None,
            };
        }
        self.stats.misses = self.stats.misses.saturating_add(1);
        latch_obs::counter_inc("core.ctc.misses");
        latch_obs::emit("core.ctc", latch_obs::TraceEvent::CtcMiss { word: word.0 });
        let (idx, evicted) = self.fill(word, ctt);
        CtcAccess {
            hit: false,
            tainted: self.lines[idx].bits & (1 << bit) != 0,
            penalty_cycles: self.miss_penalty,
            evicted,
        }
    }

    /// Checks whether any domain overlapping `[addr, addr + len)` is
    /// coarsely tainted, performing one lookup per overlapped CTT word.
    pub fn lookup_range(&mut self, addr: Addr, len: u32, ctt: &CoarseTaintTable) -> CtcAccess {
        let mut acc = CtcAccess {
            hit: true,
            tainted: false,
            penalty_cycles: 0,
            evicted: None,
        };
        let domains: Vec<_> = self.geom.domains_in(addr, len).collect();
        for domain in domains {
            let one = self.lookup(self.geom.domain_base(domain), ctt);
            acc.hit &= one.hit;
            acc.tainted |= one.tainted;
            acc.penalty_cycles += one.penalty_cycles;
            acc.evicted = acc.evicted.or(one.evicted);
        }
        acc
    }

    /// The `stnt` write path (paper §5.1.1, §5.1.4): updates the taint
    /// status of one byte-range write-through to the CTT.
    ///
    /// Writing a *non-zero* status sets the domain bit and de-asserts the
    /// clear bit. Writing a *zero* status leaves the domain bit untouched
    /// (other bytes of the domain may still be tainted) and asserts the
    /// clear bit so the next clear-scan re-derives the domain's true state.
    pub fn write_taint(
        &mut self,
        addr: Addr,
        len: u32,
        tainted: bool,
        ctt: &mut CoarseTaintTable,
    ) -> CtcAccess {
        let mut acc = CtcAccess {
            hit: true,
            tainted,
            penalty_cycles: 0,
            evicted: None,
        };
        for domain in self.geom.domains_in(addr, len) {
            self.stats.writes = self.stats.writes.saturating_add(1);
            latch_obs::counter_inc("core.ctc.writes");
            let base = self.geom.domain_base(domain);
            let word = self.geom.word_of(base);
            let bit = self.geom.bit_of(base);
            let mask = 1u32 << bit;
            let idx = match self.find(word) {
                Some(idx) => {
                    self.clock += 1;
                    self.lines[idx].last_use = self.clock;
                    idx
                }
                None => {
                    self.stats.misses = self.stats.misses.saturating_add(1);
                    latch_obs::counter_inc("core.ctc.misses");
                    acc.hit = false;
                    acc.penalty_cycles += self.miss_penalty;
                    let (idx, evicted) = self.fill(word, ctt);
                    acc.evicted = acc.evicted.or(evicted);
                    idx
                }
            };
            if tainted {
                self.lines[idx].bits |= mask;
                self.lines[idx].parity = odd_parity(self.lines[idx].bits);
                self.lines[idx].clear_bits &= !mask;
                if !ctt.domain_bit(domain) {
                    ctt.set_domain_bit(domain, true);
                }
            } else {
                self.lines[idx].clear_bits |= mask;
            }
        }
        acc
    }

    /// Scans every cached domain with an asserted clear bit against the
    /// precise taint state, clearing domains that are now fully untainted
    /// (paper §5.1.4: performed by S-LATCH's software layer before control
    /// returns to hardware).
    pub fn clear_scan<V: PreciseView>(
        &mut self,
        view: &V,
        ctt: &mut CoarseTaintTable,
    ) -> ClearScanReport {
        let mut report = ClearScanReport::default();
        let geom = self.geom;
        let span = geom.domain_bytes();
        for idx in 0..self.lines.len() {
            let line = self.lines[idx];
            if !line.valid || line.clear_bits == 0 {
                continue;
            }
            let mut bits = line.bits;
            let mut pending = line.clear_bits;
            while pending != 0 {
                let bit = pending.trailing_zeros();
                pending &= pending - 1;
                report.domains_scanned += 1;
                let domain_index = line.word * crate::CTT_WORD_BITS + bit;
                let base = geom.domain_base(crate::domain::DomainId(domain_index));
                if !view.any_tainted(base, span) {
                    bits &= !(1u32 << bit);
                    ctt.set_domain_bit(crate::domain::DomainId(domain_index), false);
                    report.domains_cleared += 1;
                    report.cleared.push(crate::domain::DomainId(domain_index));
                }
            }
            self.lines[idx].bits = bits;
            self.lines[idx].parity = odd_parity(bits);
            self.lines[idx].clear_bits = 0;
        }
        report
    }

    /// Scans the domains of a line that was evicted while holding clear
    /// bits (modelling the paper's eviction-triggered hardware exception).
    pub fn scan_evicted<V: PreciseView>(
        &self,
        evicted: EvictedLine,
        view: &V,
        ctt: &mut CoarseTaintTable,
    ) -> ClearScanReport {
        let mut report = ClearScanReport::default();
        let span = self.geom.domain_bytes();
        let mut pending = evicted.clear_bits;
        while pending != 0 {
            let bit = pending.trailing_zeros();
            pending &= pending - 1;
            report.domains_scanned += 1;
            let domain_index = evicted.word.0 * crate::CTT_WORD_BITS + bit;
            let base = self.geom.domain_base(crate::domain::DomainId(domain_index));
            if !view.any_tainted(base, span) {
                ctt.set_domain_bit(crate::domain::DomainId(domain_index), false);
                report.domains_cleared += 1;
                report.cleared.push(crate::domain::DomainId(domain_index));
            }
        }
        report
    }

    /// Write-through refresh: reloads a cached line holding `word` from
    /// the CTT. The H-LATCH commit-stage update logic writes the CTC
    /// and the page-level taint bits simultaneously with the CTT (paper
    /// §5.3.1, Fig. 12); without this, a resident line could go stale
    /// and produce a coarse false negative.
    pub fn refresh_word(&mut self, word: CttWordId, ctt: &CoarseTaintTable) {
        if let Some(idx) = self.find(word) {
            let bits = ctt.load_word(word);
            self.lines[idx].bits = bits;
            self.lines[idx].parity = odd_parity(bits);
            self.lines[idx].clear_bits = 0;
        }
    }

    /// Fault-injection surface: flips one bit of a resident line's
    /// taint bits *without* maintaining parity, modelling a soft error
    /// in the cache array. The victim line is `slot % capacity`
    /// (skipping invalid lines deterministically). Returns the cached
    /// word that was corrupted, or `None` when no change occurred.
    pub fn corrupt_slot(&mut self, slot: u64, bit: u32, set: bool) -> Option<CttWordId> {
        let valid: Vec<usize> = (0..self.lines.len())
            .filter(|&i| self.lines[i].valid)
            .collect();
        if valid.is_empty() {
            return None;
        }
        let idx = valid[(slot % valid.len() as u64) as usize];
        let mask = 1u32 << (bit % 32);
        let old = self.lines[idx].bits;
        let new = if set { old | mask } else { old & !mask };
        if new == old {
            return None;
        }
        self.lines[idx].bits = new;
        Some(CttWordId(self.lines[idx].word))
    }

    /// Whether any valid line's parity disagrees with its bits: the
    /// lines the next [`scrub`](Self::scrub) would reload.
    pub(crate) fn parity_mismatch(&self) -> bool {
        self.lines
            .iter()
            .any(|line| line.valid && odd_parity(line.bits) != line.parity)
    }

    /// Parity-checks every valid line and reloads mismatching lines
    /// from the backing CTT (the authority for cached coarse state).
    /// Pending clear bits of a repaired line are dropped — the coarse
    /// bits they covered stay conservatively set in the CTT until a
    /// later clear-scan re-derives them.
    pub fn scrub(&mut self, ctt: &CoarseTaintTable) -> CtcScrubReport {
        let mut report = CtcScrubReport::default();
        for line in &mut self.lines {
            if !line.valid {
                continue;
            }
            report.lines_checked += 1;
            if odd_parity(line.bits) == line.parity {
                continue;
            }
            let bits = ctt.load_word(CttWordId(line.word));
            line.bits = bits;
            line.parity = odd_parity(bits);
            line.clear_bits = 0;
            report.lines_repaired += 1;
        }
        report
    }

    /// Snapshot encoder: every line verbatim (including stale parity
    /// left by fault injection), the LRU clock, and the statistics, so
    /// a restored cache replays future accesses identically.
    pub(crate) fn snap_encode(&self, w: &mut SnapWriter) {
        w.u64(self.clock);
        w.u64(self.stats.hits);
        w.u64(self.stats.misses);
        w.u64(self.stats.evictions);
        w.u64(self.stats.clear_bit_evictions);
        w.u64(self.stats.writes);
        w.u64(self.lines.len() as u64);
        for line in &self.lines {
            w.bool(line.valid);
            w.u32(line.word);
            w.u32(line.bits);
            w.u32(line.clear_bits);
            w.u64(line.last_use);
            w.bool(line.parity);
        }
    }

    /// Inverse of [`snap_encode`](Self::snap_encode). `geom` and
    /// `miss_penalty` come from the owning unit's (already decoded)
    /// parameters; the line count must match `entries`.
    pub(crate) fn snap_decode(
        geom: DomainGeometry,
        entries: usize,
        miss_penalty: u64,
        r: &mut SnapReader<'_>,
    ) -> Result<Self, SnapError> {
        let clock = r.u64()?;
        let stats = CtcStats {
            hits: r.u64()?,
            misses: r.u64()?,
            evictions: r.u64()?,
            clear_bit_evictions: r.u64()?,
            writes: r.u64()?,
        };
        let n = r.len(22)?;
        if n != entries {
            return Err(SnapError::Corrupt("ctc line count"));
        }
        let mut lines = Vec::with_capacity(n);
        for _ in 0..n {
            lines.push(CtcLine {
                valid: r.bool()?,
                word: r.u32()?,
                bits: r.u32()?,
                clear_bits: r.u32()?,
                last_use: r.u64()?,
                parity: r.bool()?,
            });
        }
        Ok(Self {
            geom,
            lines,
            clock,
            miss_penalty,
            stats,
        })
    }

    /// Invalidates every line (e.g. on context switch), leaving the CTT
    /// untouched. Lines holding clear bits are returned so the caller can
    /// run the mandated clear-scans.
    pub fn flush(&mut self) -> Vec<EvictedLine> {
        let mut dirty = Vec::new();
        for line in &mut self.lines {
            if line.valid && line.clear_bits != 0 {
                dirty.push(EvictedLine {
                    word: CttWordId(line.word),
                    bits: line.bits,
                    clear_bits: line.clear_bits,
                });
            }
            *line = CtcLine::default();
        }
        dirty
    }

    /// Number of lines in the cache.
    pub fn capacity(&self) -> usize {
        self.lines.len()
    }

    /// Checks the coherence invariant: every valid line's taint bits equal
    /// the backing CTT word, modulo domains whose clear bit is asserted
    /// (those are stale-high by design until the next clear-scan).
    pub fn coherent_with(&self, ctt: &CoarseTaintTable) -> bool {
        self.lines.iter().filter(|l| l.valid).all(|l| {
            let backing = ctt.load_word(CttWordId(l.word));
            (l.bits & !l.clear_bits) == (backing & !l.clear_bits)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EmptyView;

    fn geom() -> DomainGeometry {
        DomainGeometry::new(64).unwrap()
    }

    fn small_ctc() -> (CoarseTaintCache, CoarseTaintTable) {
        (CoarseTaintCache::new(geom(), 4, 150), CoarseTaintTable::new())
    }

    struct SetView(Vec<(Addr, u32)>);
    impl PreciseView for SetView {
        fn any_tainted(&self, start: Addr, len: u32) -> bool {
            self.0.iter().any(|&(a, l)| {
                let e1 = u64::from(start) + u64::from(len);
                let e2 = u64::from(a) + u64::from(l);
                u64::from(a) < e1 && u64::from(start) < e2
            })
        }
    }

    #[test]
    fn cold_miss_then_hit() {
        let (mut ctc, ctt) = small_ctc();
        let a = ctc.lookup(0x1000, &ctt);
        assert!(!a.hit);
        assert_eq!(a.penalty_cycles, 150);
        let b = ctc.lookup(0x1004, &ctt);
        assert!(b.hit);
        assert_eq!(b.penalty_cycles, 0);
        assert_eq!(ctc.stats().hits, 1);
        assert_eq!(ctc.stats().misses, 1);
    }

    #[test]
    fn reflects_ctt_taint() {
        let (mut ctc, mut ctt) = small_ctc();
        ctt.set_domain_bit(geom().domain_of(0x2000), true);
        assert!(ctc.lookup(0x2000, &ctt).tainted);
        assert!(!ctc.lookup(0x2040, &ctt).tainted);
    }

    #[test]
    fn lru_eviction() {
        let (mut ctc, ctt) = small_ctc();
        // Four distinct CTT words fill the cache (word span = 2 KiB).
        for i in 0..4u32 {
            ctc.lookup(i * 0x800, &ctt);
        }
        // Touch word 0 so word 1 becomes LRU.
        ctc.lookup(0, &ctt);
        // A fifth word evicts word 1.
        ctc.lookup(4 * 0x800, &ctt);
        assert!(ctc.lookup(0, &ctt).hit);
        assert!(!ctc.lookup(0x800, &ctt).hit);
        assert!(ctc.stats().evictions >= 1);
    }

    #[test]
    fn write_taint_sets_bit_and_writes_through() {
        let (mut ctc, mut ctt) = small_ctc();
        ctc.write_taint(0x3000, 4, true, &mut ctt);
        assert!(ctt.domain_bit(geom().domain_of(0x3000)));
        assert!(ctc.lookup(0x3000, &ctt).tainted);
        assert!(ctc.coherent_with(&ctt));
    }

    #[test]
    fn write_zero_asserts_clear_bit_without_dropping_taint() {
        let (mut ctc, mut ctt) = small_ctc();
        ctc.write_taint(0x3000, 2, true, &mut ctt);
        // Untaint one byte: the domain may still hold the other tainted
        // byte, so the coarse bit must stay up until a clear-scan proves
        // otherwise.
        ctc.write_taint(0x3000, 1, false, &mut ctt);
        assert!(ctc.lookup(0x3000, &ctt).tainted);
        assert!(ctt.domain_bit(geom().domain_of(0x3000)));
    }

    #[test]
    fn clear_scan_drops_fully_untainted_domains() {
        let (mut ctc, mut ctt) = small_ctc();
        ctc.write_taint(0x3000, 2, true, &mut ctt);
        ctc.write_taint(0x3000, 2, false, &mut ctt);
        // Precise state says the domain is fully clean.
        let report = ctc.clear_scan(&EmptyView, &mut ctt);
        assert_eq!(report.domains_scanned, 1);
        assert_eq!(report.domains_cleared, 1);
        assert!(!ctt.domain_bit(geom().domain_of(0x3000)));
        assert!(!ctc.lookup(0x3000, &ctt).tainted);
    }

    #[test]
    fn clear_scan_preserves_partially_tainted_domains() {
        let (mut ctc, mut ctt) = small_ctc();
        ctc.write_taint(0x3000, 2, true, &mut ctt);
        ctc.write_taint(0x3000, 1, false, &mut ctt);
        // Precise state still holds a tainted byte at 0x3001.
        let view = SetView(vec![(0x3001, 1)]);
        let report = ctc.clear_scan(&view, &mut ctt);
        assert_eq!(report.domains_scanned, 1);
        assert_eq!(report.domains_cleared, 0);
        assert!(ctt.domain_bit(geom().domain_of(0x3000)));
    }

    #[test]
    fn eviction_with_clear_bits_is_surfaced() {
        let (mut ctc, mut ctt) = small_ctc();
        ctc.write_taint(0x0, 1, true, &mut ctt);
        ctc.write_taint(0x0, 1, false, &mut ctt); // clear bit asserted on word 0
        // Force eviction of word 0 by touching 4 other words.
        let mut seen = None;
        for i in 1..=4u32 {
            let acc = ctc.lookup(i * 0x800, &ctt);
            seen = seen.or(acc.evicted);
        }
        let evicted = seen.expect("line with clear bits must surface on eviction");
        assert_eq!(evicted.word, geom().word_of(0));
        assert_ne!(evicted.clear_bits, 0);
        // The mandated exception scan restores the CTT.
        let report = ctc.scan_evicted(evicted, &EmptyView, &mut ctt);
        assert_eq!(report.domains_cleared, 1);
        assert!(!ctt.domain_bit(geom().domain_of(0)));
    }

    #[test]
    fn refresh_word_removes_staleness() {
        let (mut ctc, mut ctt) = small_ctc();
        // Cache the clean word.
        assert!(!ctc.lookup(0x4000, &ctt).tainted);
        // Taint arrives through a path that bypasses the CTC (the
        // H-LATCH commit-stage CTT update).
        ctt.set_domain_bit(geom().domain_of(0x4000), true);
        // Without a refresh the cached line is stale...
        assert!(!ctc.lookup(0x4000, &ctt).tainted, "stale by construction");
        // ... and the simultaneous-update path fixes it.
        ctc.refresh_word(geom().word_of(0x4000), &ctt);
        assert!(ctc.lookup(0x4000, &ctt).tainted);
        assert!(ctc.coherent_with(&ctt));
    }

    #[test]
    fn flush_returns_dirty_lines() {
        let (mut ctc, mut ctt) = small_ctc();
        ctc.write_taint(0x100, 1, true, &mut ctt);
        ctc.write_taint(0x100, 1, false, &mut ctt);
        let dirty = ctc.flush();
        assert_eq!(dirty.len(), 1);
        assert!(!ctc.lookup(0x100, &ctt).hit, "flush invalidates lines");
    }

    #[test]
    fn lookup_range_spans_domains() {
        let (mut ctc, mut ctt) = small_ctc();
        ctt.set_domain_bit(geom().domain_of(0x1040), true);
        // Range [0x1000, 0x1080) covers two domains, second is tainted.
        let acc = ctc.lookup_range(0x1000, 0x80, &ctt);
        assert!(acc.tainted);
        let acc = ctc.lookup_range(0x1000, 0x40, &ctt);
        assert!(!acc.tainted);
        let acc = ctc.lookup_range(0x1000, 0, &ctt);
        assert!(!acc.tainted);
    }

    #[test]
    fn scrub_repairs_corrupted_line_from_ctt() {
        let (mut ctc, mut ctt) = small_ctc();
        ctc.write_taint(0x1000, 4, true, &mut ctt);
        // Spurious clear in the cache array: the line now disagrees
        // with the CTT and would produce a coarse false negative.
        let word = ctc.corrupt_slot(0, geom().bit_of(0x1000), false).unwrap();
        assert_eq!(word, geom().word_of(0x1000));
        assert!(!ctc.lookup(0x1000, &ctt).tainted, "corruption landed");
        let report = ctc.scrub(&ctt);
        assert_eq!(report.lines_repaired, 1);
        assert!(ctc.lookup(0x1000, &ctt).tainted, "scrub restored the bit");
        assert!(ctc.coherent_with(&ctt));
        // Clean pass detects nothing further.
        assert_eq!(ctc.scrub(&ctt).lines_repaired, 0);
    }

    #[test]
    fn scrub_drops_spurious_set_in_cache() {
        let (mut ctc, mut ctt) = small_ctc();
        ctc.write_taint(0x1000, 4, true, &mut ctt);
        ctc.corrupt_slot(0, geom().bit_of(0x1040), true).unwrap();
        assert!(ctc.lookup(0x1040, &ctt).tainted, "phantom taint visible");
        let report = ctc.scrub(&ctt);
        assert_eq!(report.lines_repaired, 1);
        assert!(!ctc.lookup(0x1040, &ctt).tainted);
        assert!(ctc.lookup(0x1000, &ctt).tainted, "legit taint survives");
    }

    #[test]
    fn corrupt_slot_on_empty_cache_is_none() {
        let (mut ctc, _ctt) = small_ctc();
        assert_eq!(ctc.corrupt_slot(0, 0, true), None);
    }

    #[test]
    fn miss_rate_accounting() {
        let (mut ctc, ctt) = small_ctc();
        for _ in 0..3 {
            ctc.lookup(0, &ctt);
        }
        assert!((ctc.stats().miss_rate() - 1.0 / 3.0).abs() < 1e-12);
        ctc.reset_stats();
        assert_eq!(ctc.stats().accesses(), 0);
        assert_eq!(ctc.stats().miss_rate(), 0.0);
    }
}
