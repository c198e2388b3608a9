//! Byte-precise shadow memory.
//!
//! One [`TaintTag`] per byte of the monitored program's address space
//! (query it through [`PreciseView`]),
//! stored sparsely by 4 KiB page so untouched memory costs nothing —
//! equivalent to libdft's software-defined tag storage (paper §2, "the
//! storage of taint tags"). The shadow also keeps the page-level census
//! the paper reports in Tables 3 and 4: which pages *ever* held taint.

use crate::tag::TaintTag;
use latch_core::snapshot::{SnapError, SnapReader, SnapWriter};
use latch_core::{Addr, PreciseView, PAGE_SIZE};
use std::collections::{HashMap, HashSet};

const PAGE: usize = PAGE_SIZE as usize;

fn boxed_page() -> Box<[TaintTag]> {
    vec![TaintTag::CLEAN; PAGE].into_boxed_slice()
}

/// Sparse byte-granular taint tag store.
#[derive(Debug, Clone, Default)]
pub struct ShadowMemory {
    pages: HashMap<u32, Box<[TaintTag]>>,
    /// Pages that held at least one tainted byte at some point in the run
    /// (the "pages tainted" census of paper Tables 3–4).
    ever_tainted_pages: HashSet<u32>,
    tainted_bytes: u64,
}

impl ShadowMemory {
    /// Creates an empty (fully untainted) shadow.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tag of the byte at `addr` ([`TaintTag::CLEAN`] if never written).
    #[inline]
    pub fn get(&self, addr: Addr) -> TaintTag {
        match self.pages.get(&(addr / PAGE_SIZE)) {
            Some(page) => page[(addr % PAGE_SIZE) as usize],
            None => TaintTag::CLEAN,
        }
    }

    /// Sets the tag of the byte at `addr`, returning the previous tag.
    pub fn set(&mut self, addr: Addr, tag: TaintTag) -> TaintTag {
        let page_idx = addr / PAGE_SIZE;
        if tag == TaintTag::CLEAN && !self.pages.contains_key(&page_idx) {
            return TaintTag::CLEAN;
        }
        let page = self.pages.entry(page_idx).or_insert_with(boxed_page);
        let slot = &mut page[(addr % PAGE_SIZE) as usize];
        let old = std::mem::replace(slot, tag);
        match (old.is_tainted(), tag.is_tainted()) {
            (false, true) => {
                self.tainted_bytes += 1;
                self.ever_tainted_pages.insert(page_idx);
            }
            (true, false) => self.tainted_bytes -= 1,
            _ => {}
        }
        old
    }

    /// Applies one tag to every byte in `[addr, addr + len)`, clamped to
    /// the top of the address space.
    pub fn set_range(&mut self, addr: Addr, len: u32, tag: TaintTag) {
        let end = u64::from(addr).saturating_add(u64::from(len)).min(1 << 32);
        let mut a = u64::from(addr);
        while a < end {
            self.set(a as Addr, tag);
            a += 1;
        }
    }

    /// Clears every byte in `[addr, addr + len)`.
    pub fn clear_range(&mut self, addr: Addr, len: u32) {
        self.set_range(addr, len, TaintTag::CLEAN);
    }

    /// Union of the tags of `len` bytes at `addr` (the per-operand tag a
    /// load propagates into a register).
    pub fn union_range(&self, addr: Addr, len: u32) -> TaintTag {
        let end = u64::from(addr).saturating_add(u64::from(len)).min(1 << 32);
        let mut tag = TaintTag::CLEAN;
        let mut a = u64::from(addr);
        while a < end {
            tag |= self.get(a as Addr);
            a += 1;
        }
        tag
    }

    /// Number of bytes currently tainted.
    pub fn tainted_bytes(&self) -> u64 {
        self.tainted_bytes
    }

    /// Number of pages that ever held taint (paper Tables 3–4,
    /// "Pages tainted").
    pub fn pages_ever_tainted(&self) -> usize {
        self.ever_tainted_pages.len()
    }

    /// Number of pages currently holding at least one tainted byte.
    pub fn pages_currently_tainted(&self) -> usize {
        self.pages
            .values()
            .filter(|p| p.iter().any(|t| t.is_tainted()))
            .count()
    }

    /// Removes all taint but keeps the ever-tainted census.
    pub fn clear_all(&mut self) {
        self.pages.clear();
        self.tainted_bytes = 0;
    }

    /// Snapshot encoder: resident pages (including all-clean ones — a
    /// resident-but-clean page is observable through allocation-free
    /// clean writes) written sorted by index, then the ever-tainted
    /// census sorted, then the byte count.
    pub(crate) fn snap_encode(&self, w: &mut SnapWriter) {
        let mut idxs: Vec<u32> = self.pages.keys().copied().collect();
        idxs.sort_unstable();
        w.u64(idxs.len() as u64);
        for idx in idxs {
            w.u32(idx);
            for tag in self.pages[&idx].iter() {
                w.u8(tag.0);
            }
        }
        let mut ever: Vec<u32> = self.ever_tainted_pages.iter().copied().collect();
        ever.sort_unstable();
        w.u64(ever.len() as u64);
        for idx in ever {
            w.u32(idx);
        }
        w.u64(self.tainted_bytes);
    }

    /// Inverse of [`snap_encode`](Self::snap_encode).
    pub(crate) fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut shadow = Self::new();
        let n = r.len(4 + PAGE)?;
        for _ in 0..n {
            let idx = r.u32()?;
            let raw = r.bytes(PAGE)?;
            let mut page = boxed_page();
            for (slot, &b) in page.iter_mut().zip(raw) {
                *slot = TaintTag(b);
            }
            shadow.pages.insert(idx, page);
        }
        let n = r.len(4)?;
        for _ in 0..n {
            let idx = r.u32()?;
            shadow.ever_tainted_pages.insert(idx);
        }
        shadow.tainted_bytes = r.u64()?;
        Ok(shadow)
    }

    /// Iterates over the currently tainted bytes as `(addr, tag)` pairs,
    /// in ascending address order within each page (page order is
    /// unspecified).
    pub fn iter_tainted(&self) -> impl Iterator<Item = (Addr, TaintTag)> + '_ {
        self.pages.iter().flat_map(|(&page_idx, page)| {
            page.iter().enumerate().filter_map(move |(off, &tag)| {
                tag.is_tainted()
                    .then_some((page_idx * PAGE_SIZE + off as u32, tag))
            })
        })
    }
}

impl PreciseView for ShadowMemory {
    fn any_tainted(&self, start: Addr, len: u32) -> bool {
        if len == 0 {
            return false;
        }
        let end = u64::from(start).saturating_add(u64::from(len)).min(1 << 32);
        let mut a = u64::from(start);
        while a < end {
            let page_idx = (a / u64::from(PAGE_SIZE)) as u32;
            match self.pages.get(&page_idx) {
                None => {
                    // Skip the rest of this (absent) page.
                    a = (u64::from(page_idx) + 1) * u64::from(PAGE_SIZE);
                }
                Some(page) => {
                    let page_end = (u64::from(page_idx) + 1) * u64::from(PAGE_SIZE);
                    let stop = end.min(page_end);
                    let lo = (a % u64::from(PAGE_SIZE)) as usize;
                    let hi = lo + (stop - a) as usize;
                    if page[lo..hi].iter().any(|t| t.is_tainted()) {
                        return true;
                    }
                    a = stop;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_clean() {
        let s = ShadowMemory::new();
        assert_eq!(s.get(0), TaintTag::CLEAN);
        assert_eq!(s.tainted_bytes(), 0);
        assert!(!s.any_tainted(0, 1 << 20));
    }

    #[test]
    fn set_get_roundtrip() {
        let mut s = ShadowMemory::new();
        assert_eq!(s.set(0x1234, TaintTag::FILE), TaintTag::CLEAN);
        assert_eq!(s.get(0x1234), TaintTag::FILE);
        assert_eq!(s.get(0x1233), TaintTag::CLEAN);
        assert_eq!(s.tainted_bytes(), 1);
        assert_eq!(s.set(0x1234, TaintTag::CLEAN), TaintTag::FILE);
        assert_eq!(s.tainted_bytes(), 0);
    }

    #[test]
    fn clean_writes_to_absent_pages_allocate_nothing() {
        let mut s = ShadowMemory::new();
        s.set(0x9999, TaintTag::CLEAN);
        s.clear_range(0, 4096);
        assert_eq!(s.pages.len(), 0);
    }

    #[test]
    fn range_operations() {
        let mut s = ShadowMemory::new();
        s.set_range(0x0FFE, 4, TaintTag::NETWORK); // spans a page boundary
        assert!(s.any_tainted(0x0FFE, 1));
        assert!(s.any_tainted(0x1001, 1));
        assert!(!s.any_tainted(0x1002, 1));
        assert_eq!(s.union_range(0x0FFC, 8), TaintTag::NETWORK);
        assert_eq!(s.union_range(0x2000, 8), TaintTag::CLEAN);
        s.clear_range(0x0FFE, 4);
        assert!(!s.any_tainted(0x0F00, 0x200));
        assert_eq!(s.tainted_bytes(), 0);
    }

    #[test]
    fn any_tainted_skips_absent_pages_fast() {
        let mut s = ShadowMemory::new();
        s.set(100 * PAGE_SIZE, TaintTag::FILE);
        // Query a huge range; must find the single byte.
        assert!(s.any_tainted(0, 101 * PAGE_SIZE));
        assert!(!s.any_tainted(0, 100 * PAGE_SIZE));
        assert!(!s.any_tainted(0, 0));
    }

    #[test]
    fn ever_tainted_census_is_sticky() {
        let mut s = ShadowMemory::new();
        s.set(0x1000, TaintTag::FILE);
        s.set(0x1000, TaintTag::CLEAN);
        assert_eq!(s.pages_ever_tainted(), 1);
        assert_eq!(s.pages_currently_tainted(), 0);
    }

    #[test]
    fn union_accumulates_mixed_tags() {
        let mut s = ShadowMemory::new();
        s.set(0, TaintTag::FILE);
        s.set(1, TaintTag::NETWORK);
        assert_eq!(s.union_range(0, 2), TaintTag::FILE | TaintTag::NETWORK);
    }

    #[test]
    fn iter_tainted_yields_exactly_tainted_bytes() {
        let mut s = ShadowMemory::new();
        s.set(5, TaintTag::FILE);
        s.set(4096 + 7, TaintTag::NETWORK);
        let mut v: Vec<_> = s.iter_tainted().collect();
        v.sort();
        assert_eq!(v, vec![(5, TaintTag::FILE), (4096 + 7, TaintTag::NETWORK)]);
    }

    #[test]
    fn top_of_address_space_is_safe() {
        let mut s = ShadowMemory::new();
        s.set_range(u32::MAX - 2, 10, TaintTag::FILE); // clamped
        assert!(s.any_tainted(u32::MAX, 1));
        assert_eq!(s.tainted_bytes(), 3);
    }
}
