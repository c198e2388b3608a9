//! Taint-domain geometry.
//!
//! LATCH divides memory into fixed-length, multi-byte *taint domains*
//! (paper §1, §4.1). One bit of coarse taint state is kept per domain; 32
//! such bits form one word of the Coarse Taint Table, and one CTT word in
//! turn corresponds to one *page-level taint domain* tracked by the TLB
//! taint bits (paper §4.2). This module implements the address arithmetic
//! that ties those three granularities together.

use crate::{Addr, CTT_WORD_BITS, PAGE_SIZE};
use crate::error::ConfigError;

/// Identifies a single taint domain: `addr / domain_bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(pub u32);

/// Identifies one 32-bit word of the CTT: `domain_id / 32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CttWordId(pub u32);

/// Identifies a 4 KiB page: `addr / PAGE_SIZE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u32);

/// The taint-domain granularity and the derived geometry constants.
///
/// The paper sweeps domain sizes from tens of bytes (4 B in H-LATCH's
/// 32-bit domains, 64 B in S-LATCH) up to page size when characterizing
/// false-positive rates (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainGeometry {
    domain_bytes: u32,
    domain_shift: u32,
}

impl DomainGeometry {
    /// Creates a geometry with the given domain size in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadDomainSize`] unless `domain_bytes` is a
    /// power of two in `[4, PAGE_SIZE]`.
    pub fn new(domain_bytes: u32) -> Result<Self, ConfigError> {
        if !domain_bytes.is_power_of_two() || !(4..=PAGE_SIZE).contains(&domain_bytes) {
            return Err(ConfigError::BadDomainSize { bytes: domain_bytes });
        }
        Ok(Self {
            domain_bytes,
            domain_shift: domain_bytes.trailing_zeros(),
        })
    }

    /// The domain size in bytes.
    #[inline]
    pub fn domain_bytes(&self) -> u32 {
        self.domain_bytes
    }

    /// Bytes of memory covered by one 32-bit CTT word
    /// (`32 * domain_bytes`). This is also the size of one page-level
    /// taint domain (paper §4.2).
    #[inline]
    pub fn word_span_bytes(&self) -> u64 {
        u64::from(self.domain_bytes) * u64::from(CTT_WORD_BITS)
    }

    /// Number of page-level taint domains (CTT words) per 4 KiB page.
    /// At least 1: with very large domains one CTT word spans several
    /// pages and each page maps to a single page-level bit.
    #[inline]
    pub fn page_domains_per_page(&self) -> u32 {
        let span = self.word_span_bytes();
        if span >= u64::from(PAGE_SIZE) {
            1
        } else {
            PAGE_SIZE / span as u32
        }
    }

    /// The domain containing `addr`.
    #[inline]
    pub fn domain_of(&self, addr: Addr) -> DomainId {
        DomainId(addr >> self.domain_shift)
    }

    /// The CTT word holding the coarse bit for `addr`.
    #[inline]
    pub fn word_of(&self, addr: Addr) -> CttWordId {
        CttWordId(self.domain_of(addr).0 / CTT_WORD_BITS)
    }

    /// Bit position of `addr`'s domain within its CTT word.
    #[inline]
    pub fn bit_of(&self, addr: Addr) -> u32 {
        self.domain_of(addr).0 % CTT_WORD_BITS
    }

    /// The page containing `addr`.
    #[inline]
    pub fn page_of(&self, addr: Addr) -> PageId {
        PageId(addr / PAGE_SIZE)
    }

    /// Index of `addr`'s page-level taint domain within its page
    /// (`0..page_domains_per_page()`).
    #[inline]
    pub fn page_domain_of(&self, addr: Addr) -> u32 {
        let span = self.word_span_bytes();
        if span >= u64::from(PAGE_SIZE) {
            0
        } else {
            (addr % PAGE_SIZE) / span as u32
        }
    }

    /// First address of the given domain.
    ///
    /// Out-of-range ids (larger than the last domain of the 32-bit
    /// address space — possible for synthetic ids produced by fault
    /// injection) clamp to the base of the last domain instead of
    /// silently wrapping.
    #[inline]
    pub fn domain_base(&self, domain: DomainId) -> Addr {
        let base = u64::from(domain.0) << self.domain_shift;
        if base > u64::from(u32::MAX) {
            (u32::MAX >> self.domain_shift) << self.domain_shift
        } else {
            base as Addr
        }
    }

    /// First address covered by the given CTT word.
    ///
    /// Out-of-range word ids clamp to the base of the last CTT word of
    /// the address space instead of silently wrapping (the unhardened
    /// `(word * 32) << shift` overflowed `u32` for the synthetic words
    /// fault injection can produce).
    #[inline]
    pub fn word_base(&self, word: CttWordId) -> Addr {
        let word_shift = self.domain_shift + CTT_WORD_BITS.trailing_zeros();
        let base = u64::from(word.0) << word_shift;
        if base > u64::from(u32::MAX) {
            (u32::MAX >> word_shift) << word_shift
        } else {
            base as Addr
        }
    }

    /// Iterates over every domain overlapping `[start, start + len)`.
    ///
    /// An empty range (`len == 0`) yields no domains. The range is clamped
    /// at the top of the 32-bit address space.
    pub fn domains_in(&self, start: Addr, len: u32) -> DomainsIn {
        let end = u64::from(start).saturating_add(u64::from(len));
        let end = end.min(1 << 32);
        let first = u64::from(start) >> self.domain_shift;
        let last = if end == 0 { 0 } else { (end - 1) >> self.domain_shift };
        DomainsIn {
            next: first,
            last,
            done: len == 0,
        }
    }
}

/// Iterator over the domains overlapping an address range, created by
/// [`DomainGeometry::domains_in`].
#[derive(Debug, Clone)]
pub struct DomainsIn {
    next: u64,
    last: u64,
    done: bool,
}

impl Iterator for DomainsIn {
    type Item = DomainId;

    fn next(&mut self) -> Option<DomainId> {
        if self.done || self.next > self.last {
            return None;
        }
        let id = DomainId(self.next as u32);
        self.next += 1;
        Some(id)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done || self.next > self.last {
            (0, Some(0))
        } else {
            let n = (self.last - self.next + 1) as usize;
            (n, Some(n))
        }
    }
}

impl ExactSizeIterator for DomainsIn {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_sizes() {
        assert!(DomainGeometry::new(0).is_err());
        assert!(DomainGeometry::new(3).is_err());
        assert!(DomainGeometry::new(2).is_err());
        assert!(DomainGeometry::new(48).is_err());
        assert!(DomainGeometry::new(8192).is_err());
        assert!(DomainGeometry::new(4).is_ok());
        assert!(DomainGeometry::new(4096).is_ok());
    }

    #[test]
    fn domain_arithmetic_64b() {
        let g = DomainGeometry::new(64).unwrap();
        assert_eq!(g.domain_of(0), DomainId(0));
        assert_eq!(g.domain_of(63), DomainId(0));
        assert_eq!(g.domain_of(64), DomainId(1));
        assert_eq!(g.word_of(0), CttWordId(0));
        // One word covers 32 * 64 = 2048 bytes.
        assert_eq!(g.word_span_bytes(), 2048);
        assert_eq!(g.word_of(2047), CttWordId(0));
        assert_eq!(g.word_of(2048), CttWordId(1));
        assert_eq!(g.bit_of(64), 1);
        assert_eq!(g.bit_of(2048), 0);
        // Two page-level taint bits per 4 KiB page, matching the paper's
        // S-LATCH configuration (§6.4).
        assert_eq!(g.page_domains_per_page(), 2);
        assert_eq!(g.page_domain_of(0), 0);
        assert_eq!(g.page_domain_of(2048), 1);
        assert_eq!(g.page_domain_of(4096), 0);
    }

    #[test]
    fn domain_arithmetic_4b_hlatch() {
        // H-LATCH uses 32-bit (4-byte) domains (§6.4).
        let g = DomainGeometry::new(4).unwrap();
        assert_eq!(g.word_span_bytes(), 128);
        assert_eq!(g.page_domains_per_page(), 32);
        assert_eq!(g.domain_of(7), DomainId(1));
        assert_eq!(g.page_domain_of(127), 0);
        assert_eq!(g.page_domain_of(128), 1);
    }

    #[test]
    fn page_sized_domains_have_single_page_bit() {
        let g = DomainGeometry::new(4096).unwrap();
        assert_eq!(g.page_domains_per_page(), 1);
        assert_eq!(g.page_domain_of(123), 0);
    }

    #[test]
    fn bases_invert_lookups() {
        let g = DomainGeometry::new(64).unwrap();
        let d = g.domain_of(0xDEAD_BEEF);
        assert_eq!(g.domain_of(g.domain_base(d)), d);
        let w = g.word_of(0xDEAD_BEEF);
        assert_eq!(g.word_of(g.word_base(w)), w);
    }

    #[test]
    fn domains_in_ranges() {
        let g = DomainGeometry::new(64).unwrap();
        assert_eq!(g.domains_in(0, 0).count(), 0);
        assert_eq!(g.domains_in(0, 1).count(), 1);
        assert_eq!(g.domains_in(0, 64).count(), 1);
        assert_eq!(g.domains_in(0, 65).count(), 2);
        assert_eq!(g.domains_in(63, 2).count(), 2);
        let v: Vec<_> = g.domains_in(60, 70).collect();
        assert_eq!(v, vec![DomainId(0), DomainId(1), DomainId(2)]);
    }

    #[test]
    fn domains_in_clamps_at_address_space_top() {
        let g = DomainGeometry::new(64).unwrap();
        let last = g.domains_in(u32::MAX - 1, 100).last().unwrap();
        assert_eq!(last, g.domain_of(u32::MAX));
    }

    #[test]
    fn bases_do_not_wrap_at_address_space_top() {
        for bytes in [4u32, 64, 4096] {
            let g = DomainGeometry::new(bytes).unwrap();
            // The last domain and word of the address space round-trip.
            let d = g.domain_of(u32::MAX);
            assert_eq!(g.domain_of(g.domain_base(d)), d);
            assert_eq!(g.domain_base(d), u32::MAX - (bytes - 1));
            let w = g.word_of(u32::MAX);
            assert_eq!(g.word_of(g.word_base(w)), w);
            assert_eq!(
                u64::from(g.word_base(w)) + g.word_span_bytes(),
                1 << 32,
                "last word ends exactly at the top of the address space"
            );
            // Out-of-range synthetic ids clamp instead of wrapping to
            // low addresses.
            assert_eq!(g.domain_base(DomainId(u32::MAX)), g.domain_base(d));
            assert_eq!(g.word_base(CttWordId(u32::MAX)), g.word_base(w));
        }
    }

    #[test]
    fn exact_size_iterator() {
        let g = DomainGeometry::new(16).unwrap();
        let it = g.domains_in(0, 160);
        assert_eq!(it.len(), 10);
    }
}
