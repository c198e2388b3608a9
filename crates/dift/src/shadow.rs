//! Byte-precise shadow memory.
//!
//! One [`TaintTag`] per byte of the monitored program's address space
//! (query it through [`PreciseView`]),
//! stored sparsely by 4 KiB page so untouched memory costs nothing —
//! equivalent to libdft's software-defined tag storage (paper §2, "the
//! storage of taint tags"). The shadow also keeps the page-level census
//! the paper reports in Tables 3 and 4: which pages *ever* held taint.
//!
//! Each resident page carries a stamp: the value of a per-shadow write
//! clock at the last write that changed one of its bytes. A
//! [`PageMark`] records the clock, so a checkpoint writer can ask which
//! pages changed since its last checkpoint without keeping a copy of
//! the shadow to diff against. Stamps never reach a snapshot byte.

use crate::tag::TaintTag;
use latch_core::snapshot::{SnapError, SnapReader, SnapWriter};
use latch_core::{Addr, PreciseView, PAGE_SIZE};
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

const PAGE: usize = PAGE_SIZE as usize;

/// A resident page: one raw [`TaintTag`] byte per address, and the
/// write-clock value of the last write that changed one of them.
#[derive(Debug, Clone)]
struct Page {
    tags: Box<[u8]>,
    stamp: u64,
}

impl Page {
    /// A page holding `tags`, stamped before any write.
    fn new(tags: Box<[u8]>) -> Self {
        Self { tags, stamp: 0 }
    }
}

fn clean_page() -> Page {
    Page::new(vec![0; PAGE].into_boxed_slice())
}

/// The page that a write of `tag` to page `page_idx` lands in. A clean
/// write to an absent page allocates nothing and gets `None`.
fn page_for_write(
    pages: &mut HashMap<u32, Page>,
    page_idx: u32,
    tag: TaintTag,
) -> Option<&mut Page> {
    if tag.is_tainted() {
        Some(pages.entry(page_idx).or_insert_with(clean_page))
    } else {
        pages.get_mut(&page_idx)
    }
}

/// Identifies one shadow's write history. Every new, decoded or cloned
/// shadow draws a fresh one, so a [`PageMark`] taken on one shadow
/// never vouches for the pages of another.
#[derive(Debug)]
struct Incarnation(u64);

impl Default for Incarnation {
    fn default() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        Self(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Clone for Incarnation {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// A point in one shadow's write history, taken by
/// [`ShadowMemory::mark`]. A page changed since the mark when a write
/// changed one of its bytes after it; every page of a shadow other than
/// the one that issued the mark counts as changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageMark {
    incarnation: u64,
    clock: u64,
}

/// Splits `[addr, addr + len)`, clamped to the top of the address
/// space, into one `(page index, offsets in that page)` chunk per page,
/// in address order.
fn page_chunks(addr: Addr, len: u32) -> impl Iterator<Item = (u32, Range<usize>)> {
    let page_size = u64::from(PAGE_SIZE);
    let end = (u64::from(addr) + u64::from(len)).min(1 << 32);
    let mut a = u64::from(addr);
    std::iter::from_fn(move || {
        if a >= end {
            return None;
        }
        let page_idx = a / page_size;
        let stop = end.min((page_idx + 1) * page_size);
        let lo = (a % page_size) as usize;
        let hi = lo + (stop - a) as usize;
        a = stop;
        Some((page_idx as u32, lo..hi))
    })
}

/// Sparse byte-granular taint tag store.
#[derive(Debug, Clone, Default)]
pub struct ShadowMemory {
    pages: HashMap<u32, Page>,
    /// Pages that held at least one tainted byte at some point in the run
    /// (the "pages tainted" census of paper Tables 3–4).
    ever_tainted_pages: HashSet<u32>,
    tainted_bytes: u64,
    /// Writes that changed a page so far: the page stamps' clock.
    clock: u64,
    incarnation: Incarnation,
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
            Some(page) => TaintTag(page.tags[(addr % PAGE_SIZE) as usize]),
            None => TaintTag::CLEAN,
        }
    }

    /// Sets the tag of the byte at `addr`, returning the previous tag.
    pub fn set(&mut self, addr: Addr, tag: TaintTag) -> TaintTag {
        let page_idx = addr / PAGE_SIZE;
        let Some(page) = page_for_write(&mut self.pages, page_idx, tag) else {
            return TaintTag::CLEAN;
        };
        let old = TaintTag(std::mem::replace(
            &mut page.tags[(addr % PAGE_SIZE) as usize],
            tag.0,
        ));
        if old != tag {
            self.clock += 1;
            page.stamp = self.clock;
        }
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
    /// the top of the address space. Works a page at a time, with the
    /// same result as calling [`set`](Self::set) on every byte.
    pub fn set_range(&mut self, addr: Addr, len: u32, tag: TaintTag) {
        for (page_idx, span) in page_chunks(addr, len) {
            let Some(page) = page_for_write(&mut self.pages, page_idx, tag) else {
                continue;
            };
            let bytes = &mut page.tags[span];
            if bytes.iter().all(|&b| b == tag.0) {
                continue;
            }
            self.clock += 1;
            page.stamp = self.clock;
            // Only transitions count: clean to tainted for a tainted
            // tag, tainted to clean for a clean one.
            let flipped = bytes
                .iter()
                .filter(|&&b| (b != 0) != tag.is_tainted())
                .count() as u64;
            bytes.fill(tag.0);
            if !tag.is_tainted() {
                self.tainted_bytes -= flipped;
            } else if flipped > 0 {
                self.tainted_bytes += flipped;
                self.ever_tainted_pages.insert(page_idx);
            }
        }
    }

    /// Clears every byte in `[addr, addr + len)`.
    pub fn clear_range(&mut self, addr: Addr, len: u32) {
        self.set_range(addr, len, TaintTag::CLEAN);
    }

    /// Union of the tags of `len` bytes at `addr` (the per-operand tag a
    /// load propagates into a register).
    pub fn union_range(&self, addr: Addr, len: u32) -> TaintTag {
        let mut bits = 0;
        for (page_idx, span) in page_chunks(addr, len) {
            if let Some(page) = self.pages.get(&page_idx) {
                bits |= page.tags[span].iter().fold(0, |acc, &b| acc | b);
            }
        }
        TaintTag(bits)
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
            .filter(|p| p.tags.iter().any(|&b| b != 0))
            .count()
    }

    /// Number of resident pages, clean ones included.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Removes all taint but keeps the ever-tainted census.
    pub fn clear_all(&mut self) {
        self.pages.clear();
        self.tainted_bytes = 0;
    }

    /// The current point in this shadow's write history.
    pub fn mark(&self) -> PageMark {
        PageMark {
            incarnation: self.incarnation.0,
            clock: self.clock,
        }
    }

    /// Whether `mark` was taken on this shadow, so that
    /// [`pages_since`](Self::pages_since) can tell its pages apart.
    pub fn issued(&self, mark: PageMark) -> bool {
        mark.incarnation == self.incarnation.0
    }

    /// Every resident page, in no particular order, as its index, its
    /// 4 KiB of raw tag bytes, and whether it changed since `since`
    /// (always, for `None` or another shadow's mark).
    pub fn pages_since(
        &self,
        since: Option<PageMark>,
    ) -> impl Iterator<Item = (u32, &[u8], bool)> + '_ {
        let clock = since.filter(|&m| self.issued(m)).map(|m| m.clock);
        self.pages.iter().map(move |(&idx, page)| {
            let changed = clock.is_none_or(|c| page.stamp > c);
            (idx, &page.tags[..], changed)
        })
    }

    /// Makes page `idx` resident with the raw tag bytes `tags`, as the
    /// snapshot decoder does for each encoded page. The page keeps the
    /// buffer it is given. The census and the tainted-byte count are the
    /// snapshot's to restore.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] when `tags` is not one page long or the
    /// page is already resident.
    pub fn restore_page(&mut self, idx: u32, tags: Box<[u8]>) -> Result<(), SnapError> {
        if tags.len() != PAGE || self.pages.contains_key(&idx) {
            return Err(SnapError::Corrupt("shadow page"));
        }
        self.pages.insert(idx, Page::new(tags));
        Ok(())
    }

    /// Snapshot encoder: resident pages (including all-clean ones — a
    /// resident-but-clean page is observable through allocation-free
    /// clean writes) written sorted by index, each as its 4 KiB of raw
    /// tag bytes, then the ever-tainted census sorted, then the byte
    /// count. With `pages` false the page section is written empty, as
    /// for a shadow with no resident page.
    pub(crate) fn snap_encode(&self, w: &mut SnapWriter, pages: bool) {
        let mut idxs: Vec<u32> = if pages {
            self.pages.keys().copied().collect()
        } else {
            Vec::new()
        };
        idxs.sort_unstable();
        w.u64(idxs.len() as u64);
        for idx in idxs {
            w.u32(idx);
            w.bytes(&self.pages[&idx].tags);
        }
        let mut ever: Vec<u32> = self.ever_tainted_pages.iter().copied().collect();
        ever.sort_unstable();
        w.u64(ever.len() as u64);
        for idx in ever {
            w.u32(idx);
        }
        w.u64(self.tainted_bytes);
    }

    /// Bytes [`snap_encode`](Self::snap_encode) writes.
    pub(crate) fn snap_len(&self) -> usize {
        8 + self.pages.len() * (4 + PAGE) + 8 + self.ever_tainted_pages.len() * 4 + 8
    }

    /// Inverse of [`snap_encode`](Self::snap_encode).
    pub(crate) fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut shadow = Self::new();
        let n = r.len(4 + PAGE)?;
        for _ in 0..n {
            let idx = r.u32()?;
            shadow.pages.insert(idx, Page::new(r.bytes(PAGE)?.into()));
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
            page.tags.iter().enumerate().filter_map(move |(off, &b)| {
                (b != 0).then_some((page_idx * PAGE_SIZE + off as u32, TaintTag(b)))
            })
        })
    }
}

impl PreciseView for ShadowMemory {
    fn any_tainted(&self, start: Addr, len: u32) -> bool {
        page_chunks(start, len).any(|(page_idx, span)| {
            self.pages
                .get(&page_idx)
                .is_some_and(|page| page.tags[span].iter().any(|&b| b != 0))
        })
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

    /// The bytes `[addr, addr + len)` covers, clamped like the range
    /// operations.
    fn clamped(addr: Addr, len: u32) -> impl Iterator<Item = Addr> {
        let end = (u64::from(addr) + u64::from(len)).min(1 << 32);
        (u64::from(addr)..end).map(|a| a as Addr)
    }

    /// Random page-at-a-time range operations against the per-byte
    /// `set`/`get` path: the same union answers, and the same
    /// `DiftEngine::to_snapshot` bytes (resident pages, ever-tainted
    /// census and tainted-byte count).
    #[test]
    fn range_operations_match_the_per_byte_path() {
        use crate::engine::DiftEngine;
        use rand::{rngs::SmallRng, Rng, SeedableRng};

        #[derive(Debug, Clone, Copy)]
        enum Op {
            Set(Addr, u32, TaintTag),
            Clear(Addr, u32),
            Union(Addr, u32),
        }

        // Fixed edge cases first: empty ranges, page straddles, clean
        // writes to absent pages, and ranges clamped at the top.
        let mut ops = vec![
            Op::Set(0x0FFF, 0, TaintTag::FILE),
            Op::Clear(0x5000, 64),
            Op::Set(0x6000, 64, TaintTag::CLEAN),
            Op::Set(0x0FFE, 4, TaintTag::NETWORK),
            Op::Set(0x1FF0, 2 * PAGE_SIZE, TaintTag::FILE),
            Op::Union(0x0F00, 3 * PAGE_SIZE),
            Op::Clear(0x2800, 100),
            Op::Set(u32::MAX, 0, TaintTag::SECRET),
            Op::Set(u32::MAX - 5, 100, TaintTag::SECRET),
            Op::Union(u32::MAX, 1),
            Op::Union(u32::MAX - 0x2000, u32::MAX),
            Op::Clear(u32::MAX - 1, 7),
        ];
        let mut rng = SmallRng::seed_from_u64(0x5AAD_0017);
        let bases = [0, 0x3000, u32::MAX - 2 * PAGE_SIZE + 1];
        for _ in 0..1_500 {
            let addr = bases[rng.gen_range(0..bases.len())] + rng.gen_range(0..2 * PAGE_SIZE);
            let len = match rng.gen_range(0..4) {
                0 => 0,
                1 => rng.gen_range(1..=16),
                2 => rng.gen_range(1..=PAGE_SIZE),
                _ => rng.gen_range(PAGE_SIZE..=3 * PAGE_SIZE),
            };
            let tag = if rng.gen_bool(0.25) {
                TaintTag::CLEAN
            } else {
                TaintTag(rng.gen_range(1..16u8))
            };
            ops.push(match rng.gen_range(0..3) {
                0 => Op::Set(addr, len, tag),
                1 => Op::Clear(addr, len),
                _ => Op::Union(addr, len),
            });
        }

        let mut ranged = DiftEngine::new();
        let mut bytewise = DiftEngine::new();
        for (i, &op) in ops.iter().enumerate() {
            match op {
                Op::Set(addr, len, tag) => {
                    ranged.shadow_mut().set_range(addr, len, tag);
                    for a in clamped(addr, len) {
                        bytewise.shadow_mut().set(a, tag);
                    }
                }
                Op::Clear(addr, len) => {
                    ranged.shadow_mut().clear_range(addr, len);
                    for a in clamped(addr, len) {
                        bytewise.shadow_mut().set(a, TaintTag::CLEAN);
                    }
                }
                Op::Union(addr, len) => {
                    let want = clamped(addr, len)
                        .fold(TaintTag::CLEAN, |acc, a| acc | bytewise.shadow().get(a));
                    assert_eq!(ranged.shadow().union_range(addr, len), want, "{op:?}");
                }
            }
            let (r, b) = (ranged.shadow(), bytewise.shadow());
            assert_eq!(
                (r.pages.len(), r.pages_ever_tainted(), r.tainted_bytes()),
                (b.pages.len(), b.pages_ever_tainted(), b.tainted_bytes()),
                "op {i}: {op:?}"
            );
            if i % 100 == 0 || i + 1 == ops.len() {
                assert_eq!(
                    ranged.to_snapshot(),
                    bytewise.to_snapshot(),
                    "shadows diverged after op {i}, {op:?}"
                );
            }
        }
        let shadow = ranged.shadow();
        assert!(shadow.tainted_bytes() > 0);
        assert!(shadow.ever_tainted_pages.contains(&(u32::MAX / PAGE_SIZE)));
    }
}
