//! The assembled byte-precise DIFT engine.
//!
//! [`DiftEngine`] bundles the shadow memory, the register tag file, and
//! the policy into the software monitor the paper calls "the precise DIFT
//! mechanism" (Fig. 7 component F). In S-LATCH this is the logic the
//! DBI-instrumented image executes; in H-LATCH it models the dedicated
//! propagation/validation hardware. Either way the behaviour is
//! identical — that is what lets LATCH switch tiers without losing
//! accuracy.

use crate::policy::{SecurityViolation, SinkKind, SourceKind, TaintPolicy};
use crate::prop::{apply, PropOutcome, PropRule};
use crate::regfile::RegTagFile;
use crate::shadow::ShadowMemory;
use crate::tag::TaintTag;
use latch_core::snapshot::{SnapError, SnapReader, SnapWriter};
use latch_core::{Addr, PreciseView};

/// Counters describing the precise tier's workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiftStats {
    /// Propagation rules applied (≈ instructions analysed).
    pub instrs: u64,
    /// Rules that touched tainted data (paper §3.2.1's metric).
    pub instrs_touching_taint: u64,
    /// Memory taint-state changes produced by propagation.
    pub mem_taint_writes: u64,
    /// Bytes tainted directly by source initialization.
    pub source_bytes: u64,
    /// Security violations raised by validation.
    pub violations: u64,
}

impl DiftStats {
    /// Fraction of analysed instructions that touched taint, in `[0, 1]`.
    pub fn taint_fraction(&self) -> f64 {
        if self.instrs == 0 {
            0.0
        } else {
            self.instrs_touching_taint as f64 / self.instrs as f64
        }
    }
}

/// The byte-precise software DIFT monitor.
#[derive(Debug, Clone, Default)]
pub struct DiftEngine {
    shadow: ShadowMemory,
    regs: RegTagFile,
    policy: TaintPolicy,
    stats: DiftStats,
}

impl DiftEngine {
    /// Creates an engine with the conservative default policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an engine with a custom policy.
    pub fn with_policy(policy: TaintPolicy) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }

    /// The byte-granular shadow memory.
    pub fn shadow(&self) -> &ShadowMemory {
        &self.shadow
    }

    /// Mutable access to the shadow memory.
    pub fn shadow_mut(&mut self) -> &mut ShadowMemory {
        &mut self.shadow
    }

    /// The register tag file.
    pub fn regs(&self) -> &RegTagFile {
        &self.regs
    }

    /// Mutable access to the register tag file.
    pub fn regs_mut(&mut self) -> &mut RegTagFile {
        &mut self.regs
    }

    /// The active policy.
    pub fn policy(&self) -> &TaintPolicy {
        &self.policy
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DiftStats {
        &self.stats
    }

    /// Resets statistics, leaving taint state intact.
    pub fn reset_stats(&mut self) {
        self.stats = DiftStats::default();
    }

    /// Directly taints `[addr, addr + len)` with `tag` (test setup,
    /// synthetic workloads, or explicit `taint()` API calls).
    pub fn taint_region(&mut self, addr: Addr, len: u32, tag: TaintTag) {
        self.shadow.set_range(addr, len, tag);
    }

    /// Clears `[addr, addr + len)`.
    pub fn clear_region(&mut self, addr: Addr, len: u32) {
        self.shadow.clear_range(addr, len);
    }

    /// Initialization rule (paper §2 step 1): bytes arriving from
    /// `source` into `[addr, addr + len)` are tagged per the policy.
    /// Returns the applied tag, or `None` when the source is trusted.
    pub fn source_input(&mut self, source: SourceKind, addr: Addr, len: u32) -> Option<TaintTag> {
        let tag = self.policy.tag_for_source(source)?;
        self.shadow.set_range(addr, len, tag);
        self.stats.source_bytes = self.stats.source_bytes.saturating_add(u64::from(len));
        latch_obs::counter_add("dift.source_bytes", u64::from(len));
        Some(tag)
    }

    /// Applies one propagation rule (paper §2 step 3), updating counters.
    pub fn propagate(&mut self, rule: PropRule) -> PropOutcome {
        let out = apply(rule, &mut self.regs, &mut self.shadow);
        self.stats.instrs = self.stats.instrs.saturating_add(1);
        latch_obs::counter_inc("dift.instrs");
        if out.touched_taint {
            self.stats.instrs_touching_taint = self.stats.instrs_touching_taint.saturating_add(1);
            latch_obs::counter_inc("dift.instrs_touching_taint");
        }
        if out.mem_write.is_some() {
            self.stats.mem_taint_writes = self.stats.mem_taint_writes.saturating_add(1);
            latch_obs::counter_inc("dift.mem_taint_writes");
        }
        out
    }

    /// Validation rule (paper §2 step 4) for an indirect control transfer
    /// through register `reg`.
    ///
    /// # Errors
    ///
    /// Returns the [`SecurityViolation`] when the target register carries
    /// taint and the policy checks control flow.
    pub fn validate_branch_through_reg(
        &mut self,
        pc: Addr,
        reg: usize,
        target: Addr,
    ) -> Result<(), SecurityViolation> {
        let tag = self.regs.union(reg);
        let result = self.policy.validate_branch_target(pc, target, tag);
        if result.is_err() {
            self.stats.violations = self.stats.violations.saturating_add(1);
            latch_obs::counter_inc("dift.violations");
            latch_obs::emit(
                "dift",
                latch_obs::TraceEvent::Violation { kind: "branch_reg" },
            );
        }
        result
    }

    /// Validation rule for a memory-resident control-flow target (e.g. a
    /// return address about to be popped from `[addr, addr + len)`).
    ///
    /// # Errors
    ///
    /// Returns the [`SecurityViolation`] when the target bytes carry
    /// taint and the policy checks control flow.
    pub fn validate_branch_through_mem(
        &mut self,
        pc: Addr,
        addr: Addr,
        len: u32,
        target: Addr,
    ) -> Result<(), SecurityViolation> {
        let tag = self.shadow.union_range(addr, len);
        let result = self.policy.validate_branch_target(pc, target, tag);
        if result.is_err() {
            self.stats.violations = self.stats.violations.saturating_add(1);
            latch_obs::counter_inc("dift.violations");
            latch_obs::emit(
                "dift",
                latch_obs::TraceEvent::Violation { kind: "branch_mem" },
            );
        }
        result
    }

    /// Sink validation for `len` bytes at `addr` flowing to `sink`.
    ///
    /// # Errors
    ///
    /// Returns the [`SecurityViolation`] when the range carries
    /// secret-tagged data and leak checking is enabled.
    pub fn validate_sink_range(
        &mut self,
        pc: Addr,
        sink: SinkKind,
        addr: Addr,
        len: u32,
    ) -> Result<(), SecurityViolation> {
        let tag = self.shadow.union_range(addr, len);
        let result = self.policy.validate_sink(pc, sink, addr, tag);
        if result.is_err() {
            self.stats.violations = self.stats.violations.saturating_add(1);
            latch_obs::counter_inc("dift.violations");
            latch_obs::emit("dift", latch_obs::TraceEvent::Violation { kind: "sink" });
        }
        result
    }
}

/// Magic word of a [`DiftEngine`] snapshot blob (`"LTDF"`).
const SNAP_MAGIC: u32 = 0x4C54_4446;
/// Current snapshot format version. Version 2 appends a CRC-32 trailer
/// over the whole blob; version-1 blobs (no trailer) are still read.
const SNAP_VERSION: u32 = 2;

impl DiftEngine {
    /// Freezes the complete precise state — shadow memory, register
    /// tags, policy, statistics — into an opaque byte blob. The
    /// encoding is deterministic (pages sorted by index), so equal
    /// engine states produce equal bytes.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::with_capacity(self.snapshot_len_hint());
        self.snap_encode(&mut w);
        w.finish_crc()
    }

    /// Writes the [`to_snapshot`](Self::to_snapshot) blob less its
    /// CRC-32 trailer into `w`. Seal it with
    /// [`SnapWriter::finish_crc`], or nest it inside an enclosing blob
    /// with [`SnapWriter::sealed`].
    pub fn snap_encode(&self, w: &mut SnapWriter) {
        w.header(SNAP_MAGIC, SNAP_VERSION);
        self.shadow.snap_encode(w);
        self.regs.snap_encode(w);
        self.policy.snap_encode(w);
        w.u64(self.stats.instrs);
        w.u64(self.stats.instrs_touching_taint);
        w.u64(self.stats.mem_taint_writes);
        w.u64(self.stats.source_bytes);
        w.u64(self.stats.violations);
    }

    /// An upper bound on the length of the
    /// [`to_snapshot`](Self::to_snapshot) blob, for sizing the buffer
    /// it is written into: the shadow's resident pages and census
    /// exactly, plus room for the registers, policy and counters.
    #[must_use]
    pub fn snapshot_len_hint(&self) -> usize {
        self.shadow.snap_len() + 1024
    }

    /// Thaws an engine frozen by [`to_snapshot`](Self::to_snapshot).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] if the blob is truncated, from a
    /// different format version, or internally inconsistent.
    pub fn from_snapshot(blob: &[u8]) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(blob);
        let version = r.header(SNAP_MAGIC, SNAP_VERSION)?;
        if version >= 2 {
            r.trim_crc()?;
        }
        let shadow = ShadowMemory::snap_decode(&mut r)?;
        let regs = RegTagFile::snap_decode(&mut r)?;
        let policy = TaintPolicy::snap_decode(&mut r)?;
        let stats = DiftStats {
            instrs: r.u64()?,
            instrs_touching_taint: r.u64()?,
            mem_taint_writes: r.u64()?,
            source_bytes: r.u64()?,
            violations: r.u64()?,
        };
        r.expect_end()?;
        Ok(Self {
            shadow,
            regs,
            policy,
            stats,
        })
    }
}

impl PreciseView for DiftEngine {
    fn any_tainted(&self, start: Addr, len: u32) -> bool {
        self.shadow.any_tainted(start, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_then_load_then_branch_detects_hijack() {
        let mut e = DiftEngine::new();
        // Untrusted socket data lands at 0x5000.
        let tag = e.source_input(SourceKind::Socket, 0x5000, 16).unwrap();
        assert_eq!(tag, TaintTag::NETWORK);
        // The program loads it into r1 …
        e.propagate(PropRule::Load { dst: 1, addr: 0x5000, len: 4 });
        // … and tries an indirect jump through r1: classic hijack.
        let err = e.validate_branch_through_reg(0x400, 1, 0x41414141).unwrap_err();
        assert_eq!(err.tag, TaintTag::NETWORK);
        assert_eq!(e.stats().violations, 1);
    }

    #[test]
    fn trusted_source_yields_no_taint() {
        let mut e = DiftEngine::with_policy(TaintPolicy::new().taint_sockets(false));
        assert!(e.source_input(SourceKind::Socket, 0x5000, 16).is_none());
        assert!(!e.any_tainted(0x5000, 16));
    }

    #[test]
    fn propagation_chain_through_memory() {
        let mut e = DiftEngine::new();
        e.source_input(SourceKind::File, 0x100, 4);
        e.propagate(PropRule::Load { dst: 1, addr: 0x100, len: 4 });
        e.propagate(PropRule::BinaryAlu { dst: 2, src1: 1, src2: 3 });
        e.propagate(PropRule::Store { src: 2, addr: 0x900, len: 4 });
        assert!(e.any_tainted(0x900, 4));
        assert_eq!(e.stats().instrs, 3);
        assert_eq!(e.stats().instrs_touching_taint, 3);
        assert_eq!(e.stats().mem_taint_writes, 1);
    }

    #[test]
    fn taint_fraction_counts_only_touching() {
        let mut e = DiftEngine::new();
        e.propagate(PropRule::BinaryAlu { dst: 1, src1: 2, src2: 3 });
        e.propagate(PropRule::BinaryAlu { dst: 1, src1: 2, src2: 3 });
        e.source_input(SourceKind::File, 0, 1);
        e.propagate(PropRule::Load { dst: 1, addr: 0, len: 1 });
        assert_eq!(e.stats().instrs, 3);
        assert_eq!(e.stats().instrs_touching_taint, 1);
        assert!((e.stats().taint_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn return_address_smash_detected_via_memory_check() {
        let mut e = DiftEngine::new();
        // Stack slot holding the return address gets overwritten by
        // network data (the overflow).
        e.source_input(SourceKind::Socket, 0xFF00, 4);
        let err = e
            .validate_branch_through_mem(0x777, 0xFF00, 4, 0xBADC0DE)
            .unwrap_err();
        assert_eq!(err.kind, crate::policy::ViolationKind::TaintedControlFlow);
    }

    #[test]
    fn secret_leak_via_sink() {
        let mut e = DiftEngine::with_policy(TaintPolicy::new().check_secret_leak(true));
        e.taint_region(0x2000, 32, TaintTag::SECRET);
        assert!(e
            .validate_sink_range(0x10, SinkKind::Socket, 0x2000, 32)
            .is_err());
        assert!(e
            .validate_sink_range(0x10, SinkKind::Socket, 0x3000, 32)
            .is_ok());
    }

    #[test]
    fn snapshot_roundtrip_is_byte_identical() {
        let mut e = DiftEngine::with_policy(TaintPolicy::new().check_secret_leak(true));
        e.source_input(SourceKind::Socket, 0x5000, 16);
        e.propagate(PropRule::Load { dst: 1, addr: 0x5000, len: 4 });
        e.propagate(PropRule::Store { src: 1, addr: 0x9000, len: 4 });
        e.taint_region(0x2000, 8, TaintTag::SECRET);
        e.clear_region(0x2000, 2);
        let _ = e.validate_sink_range(0x10, SinkKind::Socket, 0x2002, 4);
        let blob = e.to_snapshot();
        let restored = DiftEngine::from_snapshot(&blob).unwrap();
        assert_eq!(restored.to_snapshot(), blob);
        assert_eq!(restored.stats(), e.stats());
        assert_eq!(restored.regs(), e.regs());
        assert_eq!(restored.policy(), e.policy());
        assert_eq!(
            restored.shadow().tainted_bytes(),
            e.shadow().tainted_bytes()
        );
        assert_eq!(
            restored.shadow().pages_ever_tainted(),
            e.shadow().pages_ever_tainted()
        );
    }

    #[test]
    fn restored_engine_replays_identically() {
        let mut a = DiftEngine::new();
        a.source_input(SourceKind::File, 0x100, 8);
        a.propagate(PropRule::Load { dst: 1, addr: 0x100, len: 4 });
        let mut b = DiftEngine::from_snapshot(&a.to_snapshot()).unwrap();
        for e in [&mut a, &mut b] {
            e.propagate(PropRule::BinaryAlu { dst: 2, src1: 1, src2: 3 });
            e.propagate(PropRule::Store { src: 2, addr: 0x900, len: 4 });
            let _ = e.validate_branch_through_reg(0x400, 2, 0x41414141);
        }
        assert_eq!(a.to_snapshot(), b.to_snapshot());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn snapshot_rejects_garbage() {
        let e = DiftEngine::new();
        let blob = e.to_snapshot();
        assert!(DiftEngine::from_snapshot(&blob[..blob.len() - 1]).is_err());
        let mut bad = blob.clone();
        bad[0] ^= 0xFF;
        assert!(DiftEngine::from_snapshot(&bad).is_err());
    }

    #[test]
    fn violation_snapshot_roundtrip() {
        use latch_core::snapshot::{SnapReader, SnapWriter};
        let v = SecurityViolation {
            kind: crate::policy::ViolationKind::SecretLeak,
            pc: 0x1234,
            addr: Some(0x2000),
            tag: TaintTag::SECRET,
        };
        let mut w = SnapWriter::new();
        v.snap_encode(&mut w);
        let blob = w.finish();
        let mut r = SnapReader::new(&blob);
        assert_eq!(SecurityViolation::snap_decode(&mut r).unwrap(), v);
        r.expect_end().unwrap();
    }

    #[test]
    fn reset_stats_keeps_taint() {
        let mut e = DiftEngine::new();
        e.taint_region(0, 4, TaintTag::FILE);
        e.propagate(PropRule::Load { dst: 0, addr: 0, len: 4 });
        e.reset_stats();
        assert_eq!(e.stats().instrs, 0);
        assert!(e.any_tainted(0, 4));
    }
}
