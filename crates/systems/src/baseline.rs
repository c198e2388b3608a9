//! Baselines the paper compares against.
//!
//! * **libdft** (software-only DIFT, \[32\]): the monitored program runs
//!   entirely under DBI instrumentation at a per-benchmark slowdown.
//! * **LBA** (log-based architecture, \[6, 7\]): two-core monitoring whose
//!   published mean overheads the paper integrates into its P-LATCH
//!   model (§6.2) — exactly as we do.
//! * **Unfiltered taint cache**: the H-LATCH precise cache receiving
//!   every memory access, with no LATCH screening (Table 6's
//!   "t-cache miss percent without LATCH" row), plus the conventional
//!   4 KB FlexiTaint-style cache (\[54\], §5.3) as an ablation point.

use latch_workloads::BenchmarkProfile;

/// Mean slowdown of the simple 2-core LBA DIFT monitor over native
/// (paper §6.2 cites a mean 3.38× overhead for baseline LBA; expressed
/// as a multiplier of native runtime).
pub const LBA_SIMPLE_SLOWDOWN: f64 = 4.38;

/// Mean slowdown of the optimized LBA framework of \[7\] (36 % overhead).
pub const LBA_OPTIMIZED_SLOWDOWN: f64 = 1.36;

/// The conventional dedicated taint cache of FlexiTaint \[54\]: 4 KB.
pub const CONVENTIONAL_TAINT_CACHE_BYTES: u32 = 4096;

/// Always-on software DIFT (libdft) performance for a profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LibdftBaseline {
    /// Slowdown over native execution.
    pub slowdown: f64,
}

impl LibdftBaseline {
    /// The baseline for a calibrated profile.
    pub fn for_profile(profile: &BenchmarkProfile) -> Self {
        Self {
            slowdown: profile.libdft_slowdown,
        }
    }

    /// Overhead over native, in percent (a 5× slowdown is 400 %).
    pub fn overhead_pct(&self) -> f64 {
        (self.slowdown - 1.0) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_percentage() {
        let b = LibdftBaseline { slowdown: 5.0 };
        assert!((b.overhead_pct() - 400.0).abs() < 1e-12);
    }

    #[test]
    fn profile_lookup() {
        let p = BenchmarkProfile::by_name("wget").unwrap();
        let b = LibdftBaseline::for_profile(&p);
        assert_eq!(b.slowdown, p.libdft_slowdown);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // guards the paper's published constants
    fn lba_constants_ordering() {
        assert!(LBA_SIMPLE_SLOWDOWN > LBA_OPTIMIZED_SLOWDOWN);
        assert!(LBA_OPTIMIZED_SLOWDOWN > 1.0);
    }
}
