//! Sparse paged data memory.
//!
//! Little-endian, byte-addressable, allocated lazily by 4 KiB page.
//! The memory also keeps the "pages accessed" census the paper reports in
//! Tables 3 and 4 (the denominator of the page-granularity taint
//! distribution).

use latch_core::{Addr, PAGE_SIZE};
use std::collections::{HashMap, HashSet};

const PAGE: usize = PAGE_SIZE as usize;

fn zero_page() -> Box<[u8]> {
    vec![0u8; PAGE].into_boxed_slice()
}

/// Sparse paged memory with an accessed-pages census.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: HashMap<u32, Box<[u8]>>,
    accessed_pages: HashSet<u32>,
    reads: u64,
    writes: u64,
}

impl Memory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn touch(&mut self, addr: Addr, len: u32) {
        let first = addr / PAGE_SIZE;
        let last = addr.saturating_add(len.saturating_sub(1)) / PAGE_SIZE;
        for p in first..=last {
            self.accessed_pages.insert(p);
        }
    }

    /// Reads one byte.
    pub fn read_u8(&mut self, addr: Addr) -> u8 {
        self.reads += 1;
        self.touch(addr, 1);
        self.peek(addr)
    }

    /// Reads a little-endian halfword (may straddle pages).
    pub fn read_u16(&mut self, addr: Addr) -> u16 {
        self.reads += 1;
        self.touch(addr, 2);
        u16::from_le_bytes([self.peek(addr), self.peek(addr.wrapping_add(1))])
    }

    /// Reads a little-endian word (may straddle pages).
    pub fn read_u32(&mut self, addr: Addr) -> u32 {
        self.reads += 1;
        self.touch(addr, 4);
        u32::from_le_bytes([
            self.peek(addr),
            self.peek(addr.wrapping_add(1)),
            self.peek(addr.wrapping_add(2)),
            self.peek(addr.wrapping_add(3)),
        ])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: Addr, value: u8) {
        self.writes += 1;
        self.touch(addr, 1);
        self.poke(addr, value);
    }

    /// Writes a little-endian halfword.
    pub fn write_u16(&mut self, addr: Addr, value: u16) {
        self.writes += 1;
        self.touch(addr, 2);
        for (i, b) in value.to_le_bytes().into_iter().enumerate() {
            self.poke(addr.wrapping_add(i as u32), b);
        }
    }

    /// Writes a little-endian word.
    pub fn write_u32(&mut self, addr: Addr, value: u32) {
        self.writes += 1;
        self.touch(addr, 4);
        for (i, b) in value.to_le_bytes().into_iter().enumerate() {
            self.poke(addr.wrapping_add(i as u32), b);
        }
    }

    /// Copies a slice into memory (counts as one write access).
    pub fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) {
        self.writes += 1;
        self.touch(addr, bytes.len() as u32);
        for (i, &b) in bytes.iter().enumerate() {
            self.poke(addr.wrapping_add(i as u32), b);
        }
    }

    /// Copies `len` bytes out of memory (counts as one read access).
    pub fn read_bytes(&mut self, addr: Addr, len: u32) -> Vec<u8> {
        self.reads += 1;
        self.touch(addr, len);
        (0..len).map(|i| self.peek(addr.wrapping_add(i))).collect()
    }

    /// Reads a byte without counting an access or touching the census
    /// (debugger/inspection path).
    #[inline]
    pub fn peek(&self, addr: Addr) -> u8 {
        match self.pages.get(&(addr / PAGE_SIZE)) {
            Some(page) => page[(addr % PAGE_SIZE) as usize],
            None => 0,
        }
    }

    /// Writes a byte without counting an access (loader path).
    #[inline]
    pub fn poke(&mut self, addr: Addr, value: u8) {
        if value == 0 && !self.pages.contains_key(&(addr / PAGE_SIZE)) {
            return; // absent pages already read as zero
        }
        let page = self
            .pages
            .entry(addr / PAGE_SIZE)
            .or_insert_with(zero_page);
        page[(addr % PAGE_SIZE) as usize] = value;
    }

    /// Number of distinct pages touched by reads or writes.
    pub fn pages_accessed(&self) -> usize {
        self.accessed_pages.len()
    }

    /// Total counted read accesses.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total counted write accesses.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let mut m = Memory::new();
        assert_eq!(m.read_u32(0x1234), 0);
        assert_eq!(m.peek(u32::MAX), 0);
    }

    #[test]
    fn little_endian_roundtrip() {
        let mut m = Memory::new();
        m.write_u32(0x100, 0xDEADBEEF);
        assert_eq!(m.read_u32(0x100), 0xDEADBEEF);
        assert_eq!(m.read_u8(0x100), 0xEF);
        assert_eq!(m.read_u8(0x103), 0xDE);
        assert_eq!(m.read_u16(0x102), 0xDEAD);
    }

    #[test]
    fn cross_page_word() {
        let mut m = Memory::new();
        m.write_u32(PAGE_SIZE - 2, 0x11223344);
        assert_eq!(m.read_u32(PAGE_SIZE - 2), 0x11223344);
        assert_eq!(m.pages_accessed(), 2);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut m = Memory::new();
        m.write_bytes(0x2000, b"hello");
        assert_eq!(m.read_bytes(0x2000, 5), b"hello");
    }

    #[test]
    fn census_counts_distinct_pages() {
        let mut m = Memory::new();
        m.read_u8(0);
        m.read_u8(1);
        m.read_u8(PAGE_SIZE);
        m.write_u8(10 * PAGE_SIZE, 1);
        assert_eq!(m.pages_accessed(), 3);
        assert_eq!(m.reads(), 3);
        assert_eq!(m.writes(), 1);
    }

    #[test]
    fn poke_zero_allocates_nothing() {
        let mut m = Memory::new();
        m.poke(0x5000, 0);
        assert_eq!(m.pages.len(), 0);
        m.poke(0x5000, 7);
        assert_eq!(m.pages.len(), 1);
    }
}
