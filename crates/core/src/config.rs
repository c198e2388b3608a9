//! LATCH configuration.
//!
//! [`LatchConfig`] is a builder over every sizing knob of the LATCH
//! module. Two presets encode the configurations evaluated in the paper
//! (§6.4): [`LatchConfig::s_latch`] (shared by S-LATCH and P-LATCH) and
//! [`LatchConfig::h_latch`].

use crate::domain::DomainGeometry;
use crate::error::ConfigError;

/// Builder for a validated [`LatchParams`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatchConfig {
    domain_bytes: u32,
    ctc_entries: usize,
    ctc_miss_penalty: u64,
    tlb_entries: usize,
    tlb_miss_penalty: u64,
    sw_timeout: u32,
}

/// Validated LATCH sizing parameters, produced by [`LatchConfig::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatchParams {
    /// Taint-domain geometry.
    pub geometry: DomainGeometry,
    /// Number of fully-associative CTC lines.
    pub ctc_entries: usize,
    /// Cycles charged per CTC fill (paper: 150, §6.1).
    pub ctc_miss_penalty: u64,
    /// Number of TLB entries carrying taint bits (paper: 128, §6.4).
    pub tlb_entries: usize,
    /// Cycles charged per TLB taint-bit fill (0 by default: these misses
    /// coincide with ordinary TLB misses, §4.2).
    pub tlb_miss_penalty: u64,
    /// Software-mode timeout in instructions (paper: 1000, §5.1.3).
    pub sw_timeout: u32,
}

impl Default for LatchConfig {
    fn default() -> Self {
        Self::s_latch()
    }
}

impl LatchConfig {
    /// The S-LATCH / P-LATCH configuration (paper §6.4): a 16-entry
    /// fully-associative CTC over 64-byte taint domains (64 B of payload),
    /// two page-level taint bits per TLB entry, 1000-instruction timeout.
    pub fn s_latch() -> Self {
        Self {
            domain_bytes: 64,
            ctc_entries: 16,
            ctc_miss_penalty: 150,
            tlb_entries: 128,
            tlb_miss_penalty: 0,
            sw_timeout: 1000,
        }
    }

    /// The H-LATCH configuration (paper §6.4): 32-bit (4-byte) taint
    /// domains, a fully-associative CTC with 32-bit lines and 64 B
    /// capacity (16 entries), 128-entry TLB.
    pub fn h_latch() -> Self {
        Self {
            domain_bytes: 4,
            ctc_entries: 16,
            ctc_miss_penalty: 150,
            tlb_entries: 128,
            tlb_miss_penalty: 0,
            sw_timeout: 1000,
        }
    }

    /// Sets the taint-domain size in bytes (power of two, 4..=4096).
    pub fn domain_bytes(mut self, bytes: u32) -> Self {
        self.domain_bytes = bytes;
        self
    }

    /// Sets the number of CTC lines.
    pub fn ctc_entries(mut self, entries: usize) -> Self {
        self.ctc_entries = entries;
        self
    }

    /// Sets the CTC miss penalty in cycles.
    pub fn ctc_miss_penalty(mut self, cycles: u64) -> Self {
        self.ctc_miss_penalty = cycles;
        self
    }

    /// Sets the number of TLB entries.
    pub fn tlb_entries(mut self, entries: usize) -> Self {
        self.tlb_entries = entries;
        self
    }

    /// Sets the TLB miss penalty in cycles.
    pub fn tlb_miss_penalty(mut self, cycles: u64) -> Self {
        self.tlb_miss_penalty = cycles;
        self
    }

    /// Sets the software-mode timeout in instructions.
    pub fn sw_timeout(mut self, instructions: u32) -> Self {
        self.sw_timeout = instructions;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the domain size is invalid, any
    /// structure has zero entries, or the timeout is zero.
    pub fn build(self) -> Result<LatchParams, ConfigError> {
        let geometry = DomainGeometry::new(self.domain_bytes)?;
        if self.ctc_entries == 0 {
            return Err(ConfigError::ZeroEntries { structure: "ctc" });
        }
        if self.tlb_entries == 0 {
            return Err(ConfigError::ZeroEntries { structure: "tlb" });
        }
        if self.sw_timeout == 0 {
            return Err(ConfigError::ZeroTimeout);
        }
        Ok(LatchParams {
            geometry,
            ctc_entries: self.ctc_entries,
            ctc_miss_penalty: self.ctc_miss_penalty,
            tlb_entries: self.tlb_entries,
            tlb_miss_penalty: self.tlb_miss_penalty,
            sw_timeout: self.sw_timeout,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build() {
        let s = LatchConfig::s_latch().build().unwrap();
        assert_eq!(s.geometry.domain_bytes(), 64);
        assert_eq!(s.ctc_entries, 16);
        assert_eq!(s.sw_timeout, 1000);
        let h = LatchConfig::h_latch().build().unwrap();
        assert_eq!(h.geometry.domain_bytes(), 4);
    }

    #[test]
    fn builder_overrides() {
        let p = LatchConfig::s_latch()
            .domain_bytes(256)
            .ctc_entries(8)
            .ctc_miss_penalty(99)
            .tlb_entries(64)
            .tlb_miss_penalty(5)
            .sw_timeout(10)
            .build()
            .unwrap();
        assert_eq!(p.geometry.domain_bytes(), 256);
        assert_eq!(p.ctc_entries, 8);
        assert_eq!(p.ctc_miss_penalty, 99);
        assert_eq!(p.tlb_entries, 64);
        assert_eq!(p.tlb_miss_penalty, 5);
        assert_eq!(p.sw_timeout, 10);
    }

    #[test]
    fn rejects_invalid() {
        assert!(matches!(
            LatchConfig::s_latch().domain_bytes(5).build(),
            Err(ConfigError::BadDomainSize { bytes: 5 })
        ));
        assert!(matches!(
            LatchConfig::s_latch().ctc_entries(0).build(),
            Err(ConfigError::ZeroEntries { structure: "ctc" })
        ));
        assert!(matches!(
            LatchConfig::s_latch().tlb_entries(0).build(),
            Err(ConfigError::ZeroEntries { structure: "tlb" })
        ));
        assert!(matches!(
            LatchConfig::s_latch().sw_timeout(0).build(),
            Err(ConfigError::ZeroTimeout)
        ));
    }

    #[test]
    fn default_is_s_latch() {
        assert_eq!(LatchConfig::default(), LatchConfig::s_latch());
    }
}
