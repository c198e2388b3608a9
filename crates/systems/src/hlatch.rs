//! H-LATCH: hardware DIFT with a LATCH-screened precise taint cache.
//!
//! Paper §5.3, §6.3: in hardware DIFT à la FlexiTaint \[54\], every memory
//! operand requires a tag check through a dedicated taint cache — the
//! single largest contributor to architectural complexity. H-LATCH
//! screens those checks through the TLB taint bits and the CTC, so only
//! accesses to coarsely tainted domains reach the precise cache. The
//! precise cache can then shrink to 128 bytes (< 8 % of FlexiTaint's
//! 4 KB) while *eliminating 89–99.99 % of its misses*.
//!
//! [`TagCache`] models the set-associative precise taint cache;
//! [`HLatch`] assembles the full stack and measures the Table 6/7 rows
//! and the Fig. 16 access distribution.

use crate::baseline::CONVENTIONAL_TAINT_CACHE_BYTES;
use latch_core::config::{LatchConfig, LatchParams};
use latch_core::stats::ResolvedAt;
use latch_core::unit::LatchUnit;
use latch_core::Addr;
use latch_dift::engine::DiftEngine;
use latch_dift::policy::TaintPolicy;
use latch_sim::event::{Event, EventSource, MemAccessKind};
use latch_sim::machine::apply_event_dift;

/// Geometry of a set-associative taint-tag cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagCacheConfig {
    /// Total tag storage in bytes.
    pub capacity_bytes: u32,
    /// Associativity.
    pub ways: usize,
    /// Tag bytes per block (paper: 32-bit blocks → 4).
    pub block_tag_bytes: u32,
    /// Data bytes covered by one tag byte (byte-precise: 1).
    pub data_bytes_per_tag_byte: u32,
}

impl TagCacheConfig {
    /// The H-LATCH precise cache (paper §6.4): 32-bit blocks, 4 ways,
    /// 128-byte capacity.
    pub fn h_latch() -> Self {
        Self {
            capacity_bytes: 128,
            ways: 4,
            block_tag_bytes: 4,
            data_bytes_per_tag_byte: 1,
        }
    }

    /// The conventional FlexiTaint-style cache (\[54\]): a dedicated 4 KB
    /// taint cache performing word-granularity checking with one-byte
    /// taint tags (one tag byte covers a 4-byte word), so it maps
    /// 16 KB of data.
    pub fn conventional() -> Self {
        Self {
            capacity_bytes: CONVENTIONAL_TAINT_CACHE_BYTES,
            ways: 4,
            block_tag_bytes: 4,
            data_bytes_per_tag_byte: 4,
        }
    }

    /// Data bytes covered by one block.
    pub fn block_data_span(&self) -> u32 {
        self.block_tag_bytes * self.data_bytes_per_tag_byte
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.capacity_bytes / self.block_tag_bytes) as usize / self.ways
    }
}

/// Hit/miss counters for a [`TagCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagCacheStats {
    /// Block lookups that hit.
    pub hits: u64,
    /// Block lookups that missed (and filled).
    pub misses: u64,
}

impl TagCacheStats {
    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TagLine {
    valid: bool,
    tag: u32,
    last_use: u64,
}

/// A set-associative, LRU-replaced taint-tag cache model.
///
/// Only the address stream matters for miss behaviour; tag *contents*
/// live in the DIFT shadow memory, so the model tracks residency only.
#[derive(Debug, Clone)]
pub struct TagCache {
    config: TagCacheConfig,
    lines: Vec<TagLine>, // sets * ways
    clock: u64,
    stats: TagCacheStats,
}

impl TagCache {
    /// Builds a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry yields zero sets.
    pub fn new(config: TagCacheConfig) -> Self {
        let sets = config.sets();
        assert!(sets > 0, "tag cache must have at least one set");
        Self {
            config,
            lines: vec![TagLine::default(); sets * config.ways],
            clock: 0,
            stats: TagCacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &TagCacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &TagCacheStats {
        &self.stats
    }

    /// Looks up the tag blocks covering `[addr, addr + len)`, filling on
    /// miss. Returns the number of block misses incurred.
    pub fn access(&mut self, addr: Addr, len: u32) -> u32 {
        let span = self.config.block_data_span();
        let sets = self.config.sets();
        let ways = self.config.ways;
        let first = addr / span;
        let last = addr.saturating_add(len.saturating_sub(1)) / span;
        let mut misses = 0;
        for block in first..=last {
            let set = (block as usize) % sets;
            let tag = block / sets as u32;
            let base = set * ways;
            let slot = self.lines[base..base + ways]
                .iter()
                .position(|l| l.valid && l.tag == tag);
            self.clock += 1;
            match slot {
                Some(i) => {
                    self.lines[base + i].last_use = self.clock;
                    self.stats.hits = self.stats.hits.saturating_add(1);
                    latch_obs::counter_inc("systems.hlatch.tcache.hits");
                }
                None => {
                    self.stats.misses = self.stats.misses.saturating_add(1);
                    latch_obs::counter_inc("systems.hlatch.tcache.misses");
                    misses += 1;
                    let victim = (0..ways)
                        .min_by_key(|&i| {
                            let l = &self.lines[base + i];
                            if l.valid {
                                l.last_use
                            } else {
                                0
                            }
                        })
                        .expect("ways > 0");
                    self.lines[base + victim] = TagLine {
                        valid: true,
                        tag,
                        last_use: self.clock,
                    };
                }
            }
        }
        misses
    }
}

/// Which screening level handled each memory access (Fig. 16).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessDistribution {
    /// Accesses resolved by a clear page-level TLB taint bit.
    pub tlb: u64,
    /// Accesses resolved by the CTC (domain bit clear).
    pub ctc: u64,
    /// Accesses that reached the precise taint cache.
    pub precise: u64,
}

/// One benchmark's H-LATCH measurements (Table 6/7 columns + Fig. 16).
///
/// All miss percentages count *accesses that missed* (an access
/// spanning several cache blocks counts once), as a fraction of all
/// memory-operand accesses — the paper's "fraction of all memory
/// accesses".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HLatchReport {
    /// Total memory-operand accesses (the denominator of every row).
    pub mem_accesses: u64,
    /// CTC misses as a percentage of all memory accesses.
    pub ctc_miss_pct: f64,
    /// Precise taint-cache misses (with LATCH screening) as a
    /// percentage of all memory accesses.
    pub tcache_miss_pct: f64,
    /// Combined CTC + taint-cache miss percentage (the paper's
    /// "cache miss rate of H-LATCH").
    pub combined_miss_pct: f64,
    /// Miss percentage of the comparable taint cache *without* LATCH
    /// screening — the conventional 4 KB FlexiTaint-style cache (\[54\])
    /// receiving every access.
    pub unfiltered_miss_pct: f64,
    /// Ablation: miss percentage of a cache the same 128 B size as
    /// H-LATCH's, receiving every access with no screening.
    pub small_unfiltered_miss_pct: f64,
    /// Percentage of unfiltered misses H-LATCH avoided.
    pub pct_misses_avoided: f64,
    /// Where accesses were resolved (Fig. 16).
    pub distribution: AccessDistribution,
    /// Security violations raised by the precise tier.
    pub violations: u64,
}

/// The assembled H-LATCH system.
#[derive(Debug, Clone)]
pub struct HLatch {
    latch: LatchUnit,
    dift: DiftEngine,
    tcache: TagCache,
    unfiltered: TagCache,
    small_unfiltered: TagCache,
    dist: AccessDistribution,
    mem_accesses: u64,
    ctc_miss_accesses: u64,
    tcache_miss_accesses: u64,
    unfiltered_miss_accesses: u64,
    small_unfiltered_miss_accesses: u64,
    violations: u64,
}

impl Default for HLatch {
    fn default() -> Self {
        Self::new()
    }
}

impl HLatch {
    /// Builds the paper's H-LATCH configuration (§6.4).
    pub fn new() -> Self {
        let params = LatchConfig::h_latch()
            .build()
            .expect("preset is valid");
        Self::with_params(params, TagCacheConfig::h_latch())
    }

    /// Builds a custom configuration (granularity sweeps, sizing
    /// ablations).
    pub fn with_params(params: LatchParams, tcache: TagCacheConfig) -> Self {
        Self {
            latch: LatchUnit::new(params),
            dift: DiftEngine::with_policy(TaintPolicy::default()),
            tcache: TagCache::new(tcache),
            unfiltered: TagCache::new(TagCacheConfig::conventional()),
            small_unfiltered: TagCache::new(tcache),
            dist: AccessDistribution::default(),
            mem_accesses: 0,
            ctc_miss_accesses: 0,
            tcache_miss_accesses: 0,
            unfiltered_miss_accesses: 0,
            small_unfiltered_miss_accesses: 0,
            violations: 0,
        }
    }

    /// The precise DIFT engine (for inspection).
    pub fn dift(&self) -> &DiftEngine {
        &self.dift
    }

    /// The LATCH unit (for inspection).
    pub fn latch(&self) -> &LatchUnit {
        &self.latch
    }

    /// Processes one retired instruction.
    pub fn on_event(&mut self, ev: &Event) {
        // Commit-stage tag check for the memory operand.
        if let Some(mem) = ev.mem {
            self.mem_accesses += 1;
            if self.unfiltered.access(mem.addr, mem.len) > 0 {
                self.unfiltered_miss_accesses += 1;
            }
            if self.small_unfiltered.access(mem.addr, mem.len) > 0 {
                self.small_unfiltered_miss_accesses += 1;
            }
            let ctc_misses_before = self.latch.stats().ctc.misses;
            let out = match mem.kind {
                MemAccessKind::Read => self.latch.check_read(mem.addr, mem.len),
                MemAccessKind::Write => self.latch.check_write(mem.addr, mem.len),
            };
            if self.latch.stats().ctc.misses > ctc_misses_before {
                self.ctc_miss_accesses += 1;
            }
            match (out.resolved_at, out.coarse_tainted) {
                (ResolvedAt::Tlb, _) => {
                    self.dist.tlb = self.dist.tlb.saturating_add(1);
                    latch_obs::counter_inc("systems.hlatch.dist.tlb");
                }
                (ResolvedAt::Ctc, false) => {
                    self.dist.ctc = self.dist.ctc.saturating_add(1);
                    latch_obs::counter_inc("systems.hlatch.dist.ctc");
                }
                (ResolvedAt::Ctc, true) => {
                    self.dist.precise = self.dist.precise.saturating_add(1);
                    latch_obs::counter_inc("systems.hlatch.dist.precise");
                    if self.tcache.access(mem.addr, mem.len) > 0 {
                        self.tcache_miss_accesses += 1;
                    }
                }
            }
        }
        // Hardware propagation + validation always run (H-LATCH changes
        // where tag *checks* are resolved, never the DIFT semantics).
        let step = apply_event_dift(&mut self.dift, ev);
        if step.violation.is_some() {
            self.violations += 1;
        }
        // Commit-stage coarse-state update (paper Fig. 12).
        if let Some((addr, len, _tainted)) = step.mem_taint_write {
            self.latch.sync_precise_update(self.dift.shadow(), addr, len);
        }
    }

    /// Drains an event source and produces the report.
    pub fn run<S: EventSource>(&mut self, mut src: S) -> HLatchReport {
        while let Some(ev) = src.next_event() {
            self.on_event(&ev);
        }
        self.report()
    }

    /// The measurements so far.
    pub fn report(&self) -> HLatchReport {
        let denom = self.mem_accesses.max(1) as f64;
        let ctc_misses = self.ctc_miss_accesses as f64;
        let t_misses = self.tcache_miss_accesses as f64;
        let unf = self.unfiltered_miss_accesses as f64;
        let small = self.small_unfiltered_miss_accesses as f64;
        let combined = ctc_misses + t_misses;
        HLatchReport {
            mem_accesses: self.mem_accesses,
            ctc_miss_pct: 100.0 * ctc_misses / denom,
            tcache_miss_pct: 100.0 * t_misses / denom,
            combined_miss_pct: 100.0 * combined / denom,
            unfiltered_miss_pct: 100.0 * unf / denom,
            small_unfiltered_miss_pct: 100.0 * small / denom,
            pct_misses_avoided: if unf > 0.0 {
                100.0 * (unf - combined).max(0.0) / unf
            } else {
                0.0
            },
            distribution: self.dist,
            violations: self.violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latch_workloads::BenchmarkProfile;

    #[test]
    fn tag_cache_geometry() {
        let c = TagCacheConfig::h_latch();
        assert_eq!(c.sets(), 8);
        assert_eq!(c.block_data_span(), 4);
        let conv = TagCacheConfig::conventional();
        assert_eq!(conv.sets(), 256);
    }

    #[test]
    fn tag_cache_hits_after_fill() {
        let mut c = TagCache::new(TagCacheConfig::h_latch());
        assert_eq!(c.access(0x100, 4), 1);
        assert_eq!(c.access(0x100, 4), 0);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn tag_cache_conflict_eviction() {
        let cfg = TagCacheConfig::h_latch(); // 8 sets, 4 ways, 4 B span
        let mut c = TagCache::new(cfg);
        // Five blocks mapping to set 0: 0, 8, 16, 24, 32 (block index
        // stride = sets).
        for i in 0..5u32 {
            c.access(i * 8 * 4, 1);
        }
        // Block 0 was LRU: re-accessing it misses again.
        let misses_before = c.stats().misses;
        c.access(0, 1);
        assert_eq!(c.stats().misses, misses_before + 1);
    }

    #[test]
    fn straddling_access_touches_two_blocks() {
        let mut c = TagCache::new(TagCacheConfig::h_latch());
        assert_eq!(c.access(2, 4), 2, "4-byte access at offset 2 spans 2 blocks");
    }

    #[test]
    fn screening_beats_unfiltered_on_a_calibrated_stream() {
        let profile = BenchmarkProfile::by_name("gcc").unwrap();
        let mut h = HLatch::new();
        let report = h.run(profile.stream(42, 120_000));
        assert!(report.mem_accesses > 10_000);
        // The headline claim: LATCH screening eliminates the vast
        // majority of taint-cache misses.
        assert!(
            report.combined_miss_pct < report.unfiltered_miss_pct / 2.0,
            "combined {} vs unfiltered {}",
            report.combined_miss_pct,
            report.unfiltered_miss_pct
        );
        assert!(report.pct_misses_avoided > 50.0);
        // Most accesses resolve at the TLB (paper Fig. 16: >90 % for
        // most programs).
        let d = report.distribution;
        let total = (d.tlb + d.ctc + d.precise) as f64;
        assert!(d.tlb as f64 / total > 0.5);
    }

    #[test]
    fn clean_stream_never_reaches_precise_cache() {
        // hmmer-like tiny-taint stream, but with zero tainted pages.
        let mut p = BenchmarkProfile::by_name("hmmer").unwrap();
        p.pages_tainted = 0;
        p.taint_instr_pct = 0.0;
        let mut h = HLatch::new();
        let report = h.run(p.stream(1, 50_000));
        assert_eq!(report.distribution.precise, 0);
        assert_eq!(report.tcache_miss_pct, 0.0);
        assert!(report.unfiltered_miss_pct > 0.0, "baseline still misses");
        assert_eq!(report.violations, 0);
    }

    #[test]
    fn coarser_domains_push_more_accesses_to_the_precise_cache() {
        // The Fig. 6 trade-off observed end-to-end: larger domains mean
        // more false positives reaching the precise tier.
        let profile = BenchmarkProfile::by_name("perlbench").unwrap();
        let share = |domain: u32| {
            let params = latch_core::config::LatchConfig::h_latch()
                .domain_bytes(domain)
                .build()
                .unwrap();
            let mut h = HLatch::with_params(params, TagCacheConfig::h_latch());
            let r = h.run(profile.stream(3, 60_000));
            r.distribution.precise as f64 / r.mem_accesses.max(1) as f64
        };
        let fine = share(4);
        let coarse = share(1024);
        assert!(
            coarse > fine,
            "1KiB domains ({coarse:.4}) must route more accesses to the              precise cache than 4B domains ({fine:.4})"
        );
    }

    #[test]
    fn coarse_state_stays_consistent_with_shadow() {
        let profile = BenchmarkProfile::by_name("perlbench").unwrap();
        let mut h = HLatch::new();
        let mut src = profile.stream(9, 30_000);
        use latch_sim::event::EventSource;
        while let Some(ev) = src.next_event() {
            h.on_event(&ev);
        }
        // No-false-negative invariant over the whole working set.
        let layout = profile.layout(9);
        assert!(h.latch.coarse_covers_precise(
            h.dift.shadow(),
            layout.base(),
            layout.end() - layout.base()
        ));
    }
}
