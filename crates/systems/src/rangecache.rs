//! A RangeCache-style coarse screener, for the future-work comparison
//! the paper sketches.
//!
//! RangeCache (Tiwari et al. \[49\]) stores dataflow tags as *address
//! ranges* rather than fixed-granularity bitmaps: a small,
//! fully-associative cache of `[start, end) → tainted` entries covers
//! arbitrarily large homogeneous regions with one entry. The paper
//! positions LATCH as a generalizable filter and names
//! "multigranularity tainting to further reduce the complexity of
//! RangeCache" as future work (§7). This module implements a
//! range-based screener with the same storage budget as the CTC so the
//! two coarse representations can be compared head-to-head on
//! identical streams (`--bin ablate_rangecache`).
//!
//! Semantics: entries partition tracked space into tainted ranges; a
//! lookup inside a cached tainted range is a coarse hit; a lookup that
//! misses every cached range falls back to the (precise) backing state
//! and caches a conservative result range around the address. Like the
//! CTC, the screen is conservative: it may report clean regions as
//! tainted after coarse merging, never the reverse.

use latch_core::{Addr, PreciseView};

/// One cached taint range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RangeEntry {
    start: Addr,
    end: Addr, // exclusive
    tainted: bool,
    last_use: u64,
}

/// Counters for the range screener.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeCacheStats {
    /// Lookups answered by a cached range.
    pub hits: u64,
    /// Lookups that consulted the backing precise state.
    pub misses: u64,
    /// Entries merged with neighbours on insert.
    pub merges: u64,
}

impl RangeCacheStats {
    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A fully-associative cache of taint ranges.
#[derive(Debug, Clone)]
pub struct RangeCache {
    entries: Vec<RangeEntry>,
    capacity: usize,
    clock: u64,
    granule: u32,
    stats: RangeCacheStats,
}

impl RangeCache {
    /// Creates a range cache with `capacity` entries. `granule` is the
    /// resolution at which ranges are formed around a missing address
    /// (RangeCache hardware tracks word-aligned ranges; 64 B granules
    /// match the CTC's domain size for a fair comparison).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `granule` is not a power of two.
    pub fn new(capacity: usize, granule: u32) -> Self {
        assert!(capacity > 0, "range cache needs at least one entry");
        assert!(granule.is_power_of_two(), "granule must be a power of two");
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            clock: 0,
            granule,
            stats: RangeCacheStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &RangeCacheStats {
        &self.stats
    }

    /// Storage cost in bytes: each entry holds two 32-bit bounds plus a
    /// taint bit (rounded to 9 bytes), the figure used for equal-budget
    /// comparisons with the CTC.
    pub fn storage_bytes(&self) -> u32 {
        (self.capacity as u32) * 9
    }

    fn find(&self, addr: Addr) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| addr >= e.start && addr < e.end)
    }

    /// Checks whether `[addr, addr + len)` may touch taint, consulting
    /// `view` (the precise backing state) on a miss and caching a
    /// granule-aligned range around the address.
    pub fn check<V: PreciseView>(&mut self, addr: Addr, len: u32, view: &V) -> bool {
        self.clock += 1;
        if let Some(idx) = self.find(addr) {
            let entry = &mut self.entries[idx];
            // The access must lie entirely inside the range for the
            // cached answer to be authoritative.
            if u64::from(addr) + u64::from(len) <= u64::from(entry.end) {
                entry.last_use = self.clock;
                self.stats.hits += 1;
                return entry.tainted;
            }
        }
        self.stats.misses += 1;
        // Derive a granule-aligned range answer from the precise state
        // and grow it while neighbouring granules agree (this is what
        // lets homogeneous regions collapse into one entry).
        let g = u64::from(self.granule);
        let base = u64::from(addr) & !(g - 1);
        let tainted = view.any_tainted(base as Addr, self.granule);
        let mut start = base;
        let mut end = (base + g).min(1 << 32);
        // Extend up to 16 granules in each direction while homogeneous.
        for _ in 0..16 {
            if start == 0 {
                break;
            }
            let probe = start - g;
            if view.any_tainted(probe as Addr, self.granule) != tainted {
                break;
            }
            start = probe;
        }
        for _ in 0..16 {
            if end >= 1 << 32 {
                break;
            }
            if view.any_tainted(end as Addr, self.granule) != tainted {
                break;
            }
            end += g;
        }
        self.insert(RangeEntry {
            start: start as Addr,
            end: end.min(1 << 32).saturating_sub(0) as Addr,
            tainted,
            last_use: self.clock,
        });
        // Re-answer for the actual access span.
        if u64::from(addr) + u64::from(len) > end {
            // Straddles the derived range: be conservative.
            tainted || view.any_tainted(addr, len)
        } else {
            tainted
        }
    }

    fn insert(&mut self, mut entry: RangeEntry) {
        // Merge with adjacent same-taint ranges.
        let mut i = 0;
        while i < self.entries.len() {
            let e = self.entries[i];
            let adjacent = e.tainted == entry.tainted
                && (e.end == entry.start
                    || entry.end == e.start
                    || (e.start <= entry.end && entry.start <= e.end));
            if adjacent {
                entry.start = entry.start.min(e.start);
                entry.end = entry.end.max(e.end);
                self.entries.swap_remove(i);
                self.stats.merges += 1;
            } else {
                i += 1;
            }
        }
        if self.entries.len() >= self.capacity {
            // Evict LRU.
            if let Some(idx) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
            {
                self.entries.swap_remove(idx);
            }
        }
        self.entries.push(entry);
    }

    /// Invalidates every range overlapping `[addr, addr + len)` (taint
    /// state changed there: cached answers are stale).
    pub fn invalidate(&mut self, addr: Addr, len: u32) {
        let end = u64::from(addr) + u64::from(len);
        self.entries
            .retain(|e| u64::from(e.end) <= u64::from(addr) || u64::from(e.start) >= end);
    }

    /// Current number of cached ranges.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latch_core::EmptyView;

    struct VecView(Vec<(Addr, u32)>);
    impl PreciseView for VecView {
        fn any_tainted(&self, start: Addr, len: u32) -> bool {
            let s = u64::from(start);
            let e = s + u64::from(len);
            self.0.iter().any(|&(a, l)| {
                let as_ = u64::from(a);
                as_ < e && s < as_ + u64::from(l)
            })
        }
    }

    #[test]
    fn clean_space_collapses_to_few_ranges() {
        let mut rc = RangeCache::new(8, 64);
        for i in 0..100u32 {
            assert!(!rc.check(i * 64, 4, &EmptyView));
        }
        // Homogeneous clean space merges: far fewer ranges than probes.
        assert!(rc.len() <= 4, "ranges: {}", rc.len());
        assert!(rc.stats().merges > 0 || rc.stats().hits > 0);
    }

    #[test]
    fn tainted_region_reported() {
        let view = VecView(vec![(0x1000, 64)]);
        let mut rc = RangeCache::new(8, 64);
        assert!(rc.check(0x1010, 4, &view));
        assert!(!rc.check(0x2000, 4, &view));
        // Second probe of the tainted region hits the cache.
        let misses = rc.stats().misses;
        assert!(rc.check(0x1020, 4, &view));
        assert_eq!(rc.stats().misses, misses);
    }

    #[test]
    fn never_false_negative_under_random_probes() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(3);
        let regions: Vec<(Addr, u32)> = (0..20)
            .map(|_| (rng.gen_range(0..0x10000u32) & !63, 64))
            .collect();
        let view = VecView(regions.clone());
        let mut rc = RangeCache::new(4, 64);
        for _ in 0..2000 {
            let addr = rng.gen_range(0..0x10000u32);
            let got = rc.check(addr, 4, &view);
            if view.any_tainted(addr, 4) {
                assert!(got, "false negative at {addr:#x}");
            }
        }
    }

    #[test]
    fn invalidate_drops_stale_ranges() {
        let view = VecView(vec![(0x1000, 64)]);
        let mut rc = RangeCache::new(8, 64);
        assert!(rc.check(0x1010, 4, &view));
        rc.invalidate(0x1000, 64);
        // The range is gone; next check re-consults the view.
        let misses = rc.stats().misses;
        let clean = EmptyView;
        assert!(!rc.check(0x1010, 4, &clean));
        assert!(rc.stats().misses > misses);
    }

    #[test]
    fn storage_accounting() {
        let rc = RangeCache::new(16, 64);
        assert_eq!(rc.storage_bytes(), 144);
    }
}
