//! TLB taint bits and the page-table taint extension.
//!
//! Paper §4.2: spatial locality is evident at the kilobyte/page level as
//! well as at the level of taint domains, so LATCH extends each page-table
//! entry (and thus each TLB entry) with a small number of *page taint
//! bits*. Each bit covers one *page-level taint domain* — a region the
//! size of one CTT word's span (`32 * domain_bytes`), clamped to the page.
//! A clear page bit lets LATCH resolve a check before it ever reaches the
//! CTC; this is what deflects >90 % of memory accesses in most programs
//! (paper Fig. 16).

use crate::ctt::CoarseTaintTable;
use crate::domain::{DomainGeometry, PageId};
use crate::snapshot::{SnapError, SnapReader, SnapWriter};
use crate::{Addr, PAGE_SIZE};
use std::collections::HashMap;

/// The taint extension of the page table: per-page taint bits, one per
/// page-level taint domain. Sparse; absent pages read as fully untainted.
#[derive(Debug, Clone, Default)]
pub struct PageTaintTable {
    pages: HashMap<u32, u32>,
}

impl PageTaintTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the taint bits of a page (0 if the page was never tainted).
    #[inline]
    pub fn page_bits(&self, page: PageId) -> u32 {
        self.pages.get(&page.0).copied().unwrap_or(0)
    }

    /// Overwrites the taint bits of a page, reclaiming all-zero entries.
    #[inline]
    pub fn set_page_bits(&mut self, page: PageId, bits: u32) {
        if bits == 0 {
            self.pages.remove(&page.0);
        } else {
            self.pages.insert(page.0, bits);
        }
    }

    /// Number of pages with at least one taint bit set.
    pub fn tainted_pages(&self) -> usize {
        self.pages.len()
    }

    /// Clears all page taint bits.
    pub fn clear(&mut self) {
        self.pages.clear();
    }

    /// Snapshot encoder: pages written sorted by id for determinism.
    pub(crate) fn snap_encode(&self, w: &mut SnapWriter) {
        let mut pages: Vec<(u32, u32)> = self.pages.iter().map(|(&k, &v)| (k, v)).collect();
        pages.sort_unstable();
        w.u64(pages.len() as u64);
        for (page, bits) in pages {
            w.u32(page);
            w.u32(bits);
        }
    }

    /// Inverse of [`snap_encode`](Self::snap_encode).
    pub(crate) fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut pt = Self::new();
        let n = r.len(8)?;
        for _ in 0..n {
            let page = r.u32()?;
            let bits = r.u32()?;
            pt.pages.insert(page, bits);
        }
        Ok(pt)
    }
}

/// Result of a TLB taint check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbAccess {
    /// Whether the translation was already resident.
    pub hit: bool,
    /// Taint bit of the page-level domain containing the address. When
    /// `false`, the check is fully resolved at the TLB and the CTC is
    /// never consulted.
    pub page_domain_tainted: bool,
    /// Cycles charged (0 on hit, the miss penalty on a fill). The paper
    /// notes these misses coincide with ordinary TLB misses, so the
    /// default penalty is 0 — the translation was being fetched anyway.
    pub penalty_cycles: u64,
}

/// Hit/miss counters for the taint-extended TLB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that found the page resident.
    pub hits: u64,
    /// Lookups that filled from the page table.
    pub misses: u64,
    /// Lookups resolved at the TLB (page-domain bit clear).
    pub resolved_untainted: u64,
}

impl TlbStats {
    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TlbEntry {
    valid: bool,
    page: u32,
    taint_bits: u32,
    last_use: u64,
}

/// Slots of [`TaintTlb`]'s page-to-entry hint table.
const HINT_SLOTS: usize = 64;

/// A fully-associative TLB model carrying page taint bits.
///
/// Only the taint-relevant behaviour is modelled; address translation
/// itself is identity (the simulator uses virtual addresses throughout).
#[derive(Debug, Clone)]
pub struct TaintTlb {
    geom: DomainGeometry,
    entries: Vec<TlbEntry>,
    /// The entry each page last resolved to, by `page % HINT_SLOTS`:
    /// a guess that [`find`](Self::find) checks before it scans, so a
    /// hit costs one probe. A page is resident in at most one entry, so
    /// the guess never changes the answer. Not part of the snapshot.
    hint: [u32; HINT_SLOTS],
    clock: u64,
    miss_penalty: u64,
    stats: TlbStats,
}

impl TaintTlb {
    /// Creates a TLB with `entries` slots (the paper uses 128, §6.4).
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0`; [`LatchConfig`](crate::config::LatchConfig)
    /// validates this before construction.
    pub fn new(geom: DomainGeometry, entries: usize, miss_penalty: u64) -> Self {
        assert!(entries > 0, "TLB must have at least one entry");
        Self {
            geom,
            entries: vec![TlbEntry::default(); entries],
            hint: [0; HINT_SLOTS],
            clock: 0,
            miss_penalty,
            stats: TlbStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Resets statistics without touching TLB contents.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    fn find(&self, page: u32) -> Option<usize> {
        let holds = |e: &TlbEntry| e.valid && e.page == page;
        let guess = self.hint[page as usize % HINT_SLOTS] as usize;
        if self.entries.get(guess).is_some_and(holds) {
            return Some(guess);
        }
        self.entries.iter().position(holds)
    }

    fn fill(&mut self, page: u32, pt: &PageTaintTable) -> usize {
        let idx = self
            .entries
            .iter()
            .position(|e| !e.valid)
            .unwrap_or_else(|| {
                self.entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_use)
                    .map(|(i, _)| i)
                    .expect("TLB has at least one entry")
            });
        self.clock += 1;
        self.entries[idx] = TlbEntry {
            valid: true,
            page,
            taint_bits: pt.page_bits(PageId(page)),
            last_use: self.clock,
        };
        idx
    }

    /// Checks the page-level taint bit for `addr`, filling from the page
    /// table on a miss.
    pub fn lookup(&mut self, addr: Addr, pt: &PageTaintTable) -> TlbAccess {
        let page = addr / PAGE_SIZE;
        let pd = self.geom.page_domain_of(addr);
        let (hit, idx) = match self.find(page) {
            Some(idx) => {
                self.clock += 1;
                self.entries[idx].last_use = self.clock;
                self.stats.hits = self.stats.hits.saturating_add(1);
                latch_obs::counter_inc("core.tlb.hits");
                (true, idx)
            }
            None => {
                self.stats.misses = self.stats.misses.saturating_add(1);
                latch_obs::counter_inc("core.tlb.misses");
                (false, self.fill(page, pt))
            }
        };
        self.hint[page as usize % HINT_SLOTS] = idx as u32;
        let tainted = self.entries[idx].taint_bits & (1 << pd) != 0;
        if !tainted {
            self.stats.resolved_untainted = self.stats.resolved_untainted.saturating_add(1);
            latch_obs::counter_inc("core.tlb.resolved_untainted");
        }
        TlbAccess {
            hit,
            page_domain_tainted: tainted,
            penalty_cycles: if hit { 0 } else { self.miss_penalty },
        }
    }

    /// Checks whether any page-level domain overlapping `[addr, addr+len)`
    /// is tainted.
    pub fn lookup_range(&mut self, addr: Addr, len: u32, pt: &PageTaintTable) -> TlbAccess {
        if len == 0 {
            return self.lookup(addr, pt);
        }
        let span = self
            .geom
            .word_span_bytes()
            .min(u64::from(PAGE_SIZE)) as u32;
        let mut acc = TlbAccess {
            hit: true,
            page_domain_tainted: false,
            penalty_cycles: 0,
        };
        let mut a = u64::from(addr) & !u64::from(span - 1);
        let end = (u64::from(addr) + u64::from(len)).min(1 << 32);
        while a < end {
            let one = self.lookup(a as Addr, pt);
            acc.hit &= one.hit;
            acc.page_domain_tainted |= one.page_domain_tainted;
            acc.penalty_cycles += one.penalty_cycles;
            a += u64::from(span);
        }
        acc
    }

    /// Propagates a page-bit update into a resident entry (the hardware
    /// keeps TLB taint bits coherent with the page table on taint writes).
    pub fn update_resident(&mut self, page: PageId, bits: u32) {
        if let Some(idx) = self.find(page.0) {
            if latch_obs::ENABLED && self.entries[idx].taint_bits != bits {
                latch_obs::counter_inc("core.tlb.taint_bit_updates");
                latch_obs::emit(
                    "core.tlb",
                    latch_obs::TraceEvent::TlbTaintBit {
                        page: page.0,
                        set: bits != 0,
                    },
                );
            }
            self.entries[idx].taint_bits = bits;
        }
    }

    /// Invalidates every entry (e.g. on context switch).
    pub fn flush(&mut self) {
        for e in &mut self.entries {
            *e = TlbEntry::default();
        }
    }

    /// Number of TLB slots.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Snapshot encoder: entries verbatim plus the LRU clock and stats,
    /// so a restored TLB replays future lookups identically.
    pub(crate) fn snap_encode(&self, w: &mut SnapWriter) {
        w.u64(self.clock);
        w.u64(self.stats.hits);
        w.u64(self.stats.misses);
        w.u64(self.stats.resolved_untainted);
        w.u64(self.entries.len() as u64);
        for e in &self.entries {
            w.bool(e.valid);
            w.u32(e.page);
            w.u32(e.taint_bits);
            w.u64(e.last_use);
        }
    }

    /// Inverse of [`snap_encode`](Self::snap_encode).
    pub(crate) fn snap_decode(
        geom: DomainGeometry,
        capacity: usize,
        miss_penalty: u64,
        r: &mut SnapReader<'_>,
    ) -> Result<Self, SnapError> {
        let clock = r.u64()?;
        let stats = TlbStats {
            hits: r.u64()?,
            misses: r.u64()?,
            resolved_untainted: r.u64()?,
        };
        let n = r.len(17)?;
        if n != capacity {
            return Err(SnapError::Corrupt("tlb entry count"));
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(TlbEntry {
                valid: r.bool()?,
                page: r.u32()?,
                taint_bits: r.u32()?,
                last_use: r.u64()?,
            });
        }
        Ok(Self {
            geom,
            entries,
            hint: [0; HINT_SLOTS],
            clock,
            miss_penalty,
            stats,
        })
    }

    /// Recomputes one page's taint bits from the CTT (used after
    /// clear-scans drop domain bits). Returns the new bits.
    pub fn derive_page_bits(geom: &DomainGeometry, page: PageId, ctt: &CoarseTaintTable) -> u32 {
        let n = geom.page_domains_per_page();
        let span = geom.word_span_bytes().min(u64::from(PAGE_SIZE)) as u32;
        // Widen before multiplying: `page * PAGE_SIZE` wraps u32 for
        // synthetic out-of-range page ids, and page-domain starts past
        // the top of the address space must not alias low memory.
        let base = u64::from(page.0) * u64::from(PAGE_SIZE);
        let mut bits = 0u32;
        for pd in 0..n {
            let start = base + u64::from(pd) * u64::from(span);
            if start > u64::from(u32::MAX) {
                break;
            }
            if ctt.range_tainted(geom, start as Addr, span) {
                bits |= 1 << pd;
            }
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> DomainGeometry {
        DomainGeometry::new(64).unwrap()
    }

    #[test]
    fn clean_pages_resolve_untainted() {
        let mut tlb = TaintTlb::new(geom(), 4, 0);
        let pt = PageTaintTable::new();
        let acc = tlb.lookup(0x1234, &pt);
        assert!(!acc.hit);
        assert!(!acc.page_domain_tainted);
        let acc = tlb.lookup(0x1238, &pt);
        assert!(acc.hit);
        assert_eq!(tlb.stats().resolved_untainted, 2);
    }

    /// Pages that share hint slots, through a TLB smaller than the
    /// working set: every lookup hits exactly when a plain LRU list of
    /// the last eight pages holds the page, so the hint never changes
    /// which entry answers or which one is evicted.
    #[test]
    fn hinted_lookups_match_a_plain_lru_list() {
        let mut tlb = TaintTlb::new(geom(), 8, 0);
        let pt = PageTaintTable::new();
        let mut lru: Vec<u32> = Vec::new();
        let mut x = 1u64;
        for step in 0..4_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let page = ((x >> 33) % 12) as u32 * HINT_SLOTS as u32 + ((x >> 20) % 2) as u32;
            let hit = lru.contains(&page);
            lru.retain(|&p| p != page);
            if lru.len() == 8 {
                lru.remove(0);
            }
            lru.push(page);
            assert_eq!(tlb.lookup(page * PAGE_SIZE, &pt).hit, hit, "step {step}");
        }
        assert!(tlb.stats().hits > 1_000 && tlb.stats().misses > 1_000);
    }

    #[test]
    fn page_domain_bits_are_sub_page() {
        // 64-byte domains => 2 KiB page domains => 2 bits per page.
        let mut tlb = TaintTlb::new(geom(), 4, 0);
        let mut pt = PageTaintTable::new();
        pt.set_page_bits(PageId(1), 0b10); // upper half of page 1 tainted
        let lower = tlb.lookup(0x1000, &pt);
        assert!(!lower.page_domain_tainted);
        let upper = tlb.lookup(0x1800, &pt);
        assert!(upper.page_domain_tainted);
    }

    #[test]
    fn lru_replacement() {
        let mut tlb = TaintTlb::new(geom(), 2, 0);
        let pt = PageTaintTable::new();
        tlb.lookup(0, &pt);
        tlb.lookup(PAGE_SIZE, &pt);
        tlb.lookup(0, &pt); // page 0 is MRU
        tlb.lookup(2 * PAGE_SIZE, &pt); // evicts page 1
        assert!(tlb.lookup(0, &pt).hit);
        assert!(!tlb.lookup(PAGE_SIZE, &pt).hit);
    }

    #[test]
    fn update_resident_keeps_coherence() {
        let mut tlb = TaintTlb::new(geom(), 4, 0);
        let mut pt = PageTaintTable::new();
        tlb.lookup(0, &pt);
        pt.set_page_bits(PageId(0), 0b01);
        tlb.update_resident(PageId(0), 0b01);
        assert!(tlb.lookup(0, &pt).page_domain_tainted);
    }

    #[test]
    fn flush_invalidates() {
        let mut tlb = TaintTlb::new(geom(), 4, 7);
        let pt = PageTaintTable::new();
        tlb.lookup(0, &pt);
        tlb.flush();
        let acc = tlb.lookup(0, &pt);
        assert!(!acc.hit);
        assert_eq!(acc.penalty_cycles, 7);
    }

    #[test]
    fn derive_page_bits_from_ctt() {
        let g = geom();
        let mut ctt = CoarseTaintTable::new();
        // Taint a domain in the upper 2 KiB of page 3.
        ctt.set_domain_bit(g.domain_of(3 * PAGE_SIZE + 0x900), true);
        let bits = TaintTlb::derive_page_bits(&g, PageId(3), &ctt);
        assert_eq!(bits, 0b10);
        let bits0 = TaintTlb::derive_page_bits(&g, PageId(0), &ctt);
        assert_eq!(bits0, 0);
    }

    #[test]
    fn lookup_range_spans_page_domains() {
        let mut tlb = TaintTlb::new(geom(), 8, 0);
        let mut pt = PageTaintTable::new();
        pt.set_page_bits(PageId(0), 0b10);
        // Range covering both halves of page 0 must see the tainted half.
        let acc = tlb.lookup_range(0, PAGE_SIZE, &pt);
        assert!(acc.page_domain_tainted);
        let acc = tlb.lookup_range(0, 2048, &pt);
        assert!(!acc.page_domain_tainted);
    }

    #[test]
    fn page_table_reclaims_zero_entries() {
        let mut pt = PageTaintTable::new();
        pt.set_page_bits(PageId(9), 0b1);
        assert_eq!(pt.tainted_pages(), 1);
        pt.set_page_bits(PageId(9), 0);
        assert_eq!(pt.tainted_pages(), 0);
    }
}
