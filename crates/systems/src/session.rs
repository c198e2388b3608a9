//! A self-contained, snapshottable LATCH+DIFT session pipeline.
//!
//! One `SessionPipeline` bundles everything one monitored instruction
//! stream needs: the coarse [`LatchUnit`] screen, the byte-precise
//! [`DiftEngine`] mirror, the paper's activity-window forwarding state,
//! and the violation log. The per-event semantics are exactly the
//! producer-side screen of [`run_resilient`](crate::platch_mt::run_resilient)
//! — this module is that logic extracted so that it can be owned by one
//! pipeline *or* multiplexed across many sessions by the serving layer
//! (`latch-serve`).
//!
//! The whole pipeline round-trips through a binary snapshot
//! ([`to_snapshot`](SessionPipeline::to_snapshot) /
//! [`from_snapshot`](SessionPipeline::from_snapshot)) byte-identically:
//! a session can be frozen while idle, evicted to a blob, restored later
//! or on another node, and continue as if nothing happened. That is the
//! foundation for LRU eviction, crash recovery and session migration in
//! the serving layer.

use crate::platch::ACTIVITY_WINDOW;
use latch_core::config::LatchConfig;
use latch_core::snapshot::{SnapError, SnapReader, SnapWriter};
use latch_core::stats::{CheckStats, ScrubStats};
use latch_core::unit::LatchUnit;
use latch_dift::engine::{DiftEngine, DiftStats};
use latch_dift::policy::SecurityViolation;
use latch_dift::shadow::PageMark;
use latch_sim::event::{Event, MemAccessKind};
use latch_sim::machine::apply_event_dift;

/// Snapshot magic: "LTSE" (LaTch SEssion).
const SNAP_MAGIC: u32 = 0x4C54_5345;
/// Current snapshot format version. Version 2 adds the session epoch
/// field and a CRC-32 trailer over the whole blob; version-1 blobs
/// (no epoch, no trailer) are still read with `epoch = 0`.
const SNAP_VERSION: u32 = 2;

/// One session's complete taint-checking state.
///
/// Feed it events in order with [`apply`](Self::apply); at any event
/// boundary the pipeline can be snapshotted and later restored with no
/// observable difference — state, statistics, and violation log
/// included.
pub struct SessionPipeline {
    latch: LatchUnit,
    engine: DiftEngine,
    window_left: u64,
    applied: u64,
    selected: u64,
    cycles: u64,
    scrub_interval: u64,
    epoch: u64,
    violations: Vec<(u64, SecurityViolation)>,
}

impl SessionPipeline {
    /// Fresh pipeline with the S-LATCH preset, parity-scrubbing the
    /// coarse state every `scrub_interval` events (`0` disables).
    #[must_use]
    pub fn new(scrub_interval: u64) -> Self {
        Self {
            latch: LatchUnit::new(LatchConfig::s_latch().build().expect("preset is valid")),
            engine: DiftEngine::new(),
            window_left: 0,
            applied: 0,
            selected: 0,
            cycles: 0,
            scrub_interval,
            epoch: 0,
            violations: Vec::new(),
        }
    }

    /// Retires one event: screens it through the coarse tier, applies
    /// the precise mirror, keeps the two tiers in sync, and scrubs on
    /// cadence. Returns whether the screen selected the event for a
    /// monitor (coarse hit, taint activity, or active-window tail) —
    /// the filtering decision of paper Fig. 11.
    ///
    /// The coarse tier gates the precise one per event: an event the
    /// screen passes clean, with no source, control check or sink, and
    /// whose propagation rules are all clean-to-clean no-ops — every
    /// register they name clean in the precise register file, every
    /// byte they address inside the memory operand the screen just
    /// passed — only counts its rules, and skips the DIFT step and the
    /// TRF reload, which would change nothing. Once a soft error may
    /// hide in the coarse state ([`LatchUnit::coarse_trusted`]), every
    /// event takes the full path.
    pub fn apply(&mut self, ev: &Event) -> bool {
        let index = self.applied;
        let (hit, mut penalty) = self.screen(ev);
        let touched = if !hit && self.latch.coarse_trusted() && self.rules_are_noops(ev) {
            let rules = u64::from(ev.prop.is_some()) + u64::from(ev.prop2.is_some());
            self.engine.count_noop_rules(rules);
            false
        } else {
            let step = apply_event_dift(&mut self.engine, ev);
            if let Some(v) = step.violation {
                self.violations.push((index, v));
            }
            if let Some((addr, len, tainted)) = step.mem_taint_write {
                let out = self.latch.write_taint(addr, len, tainted);
                penalty += out.penalty_cycles;
                if !tainted {
                    self.latch.clear_scan(self.engine.shadow());
                }
            }
            let packed = self.engine.regs().to_packed();
            self.latch.trf_mut().load_packed(packed);
            step.touched_taint
        };
        if self.scrub_interval > 0 && (index + 1).is_multiple_of(self.scrub_interval) {
            self.latch.scrub(self.engine.shadow());
        }
        let selected = if hit || touched {
            self.window_left = ACTIVITY_WINDOW;
            true
        } else if self.window_left > 0 {
            self.window_left -= 1;
            true
        } else {
            false
        };
        self.applied += 1;
        if selected {
            self.selected += 1;
        }
        self.cycles += 1 + penalty;
        selected
    }

    /// The coarse screen of one event: whether a register the event
    /// names is tainted in the TRF, its memory operand is coarsely
    /// tainted, or it carries a source, control check or sink; and the
    /// cycles the memory check cost.
    fn screen(&mut self, ev: &Event) -> (bool, u64) {
        let mut hit = ev.regs.reads().any(|r| self.latch.reg_tainted(r as usize))
            || ev
                .regs
                .written
                .is_some_and(|w| self.latch.reg_tainted(w as usize));
        let mut penalty = 0;
        if let Some(mem) = ev.mem {
            let out = match mem.kind {
                MemAccessKind::Read => self.latch.check_read(mem.addr, mem.len),
                MemAccessKind::Write => self.latch.check_write(mem.addr, mem.len),
            };
            hit |= out.coarse_tainted;
            penalty = out.penalty_cycles;
        }
        hit |= ev.source.is_some() || ev.ctrl.is_some() || ev.sink.is_some();
        (hit, penalty)
    }

    /// Whether every propagation rule of `ev` is a clean-to-clean no-op
    /// in the precise tier
    /// ([`PropRule::is_noop_within`](latch_dift::prop::PropRule::is_noop_within)),
    /// decided from the rules and the precise register file, never from
    /// `ev.regs`.
    /// The known-clean range is the `ev.mem` operand that
    /// [`screen`](Self::screen) just found coarsely clean — the coarse
    /// view being a superset of the precise one, precisely clean too.
    fn rules_are_noops(&self, ev: &Event) -> bool {
        let screened = ev.mem.map(|m| (m.addr, m.len));
        [ev.prop, ev.prop2]
            .into_iter()
            .flatten()
            .all(|rule| rule.is_noop_within(self.engine.regs(), screened))
    }

    /// The coarse tier.
    #[must_use]
    pub fn latch(&self) -> &LatchUnit {
        &self.latch
    }

    /// Mutable coarse tier (fault injection corrupts through this).
    pub fn latch_mut(&mut self) -> &mut LatchUnit {
        &mut self.latch
    }

    /// The precise tier.
    #[must_use]
    pub fn engine(&self) -> &DiftEngine {
        &self.engine
    }

    /// Events retired so far.
    #[must_use]
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Recovery generation of this session. Starts at 0 and is bumped
    /// once per successful crash recovery; it orders snapshot frames
    /// whose `applied` counters alone would be ambiguous after a
    /// post-recovery history diverges from a pre-crash one.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Marks the start of a new recovery generation. Called exactly
    /// once by the serving layer's recovery path, never during normal
    /// operation. The epoch is carried in snapshots but excluded from
    /// [`SessionReport`], so recovered runs still compare byte-identical
    /// to uninterrupted ones.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Simulated cycles consumed so far (one per event plus coarse-tier
    /// check and taint-update penalties).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Violations raised so far, as `(event_index, violation)` in order.
    #[must_use]
    pub fn violations(&self) -> &[(u64, SecurityViolation)] {
        &self.violations
    }

    /// Deterministic summary of everything this session observed.
    #[must_use]
    pub fn report(&self) -> SessionReport {
        SessionReport {
            events: self.applied,
            selected: self.selected,
            cycles: self.cycles,
            tainted_bytes: self.engine.shadow().tainted_bytes(),
            pages_ever_tainted: self.engine.shadow().pages_ever_tainted() as u64,
            violations: self.violations.clone(),
            checks: self.latch.stats().checks,
            scrub: self.latch.stats().scrub,
            dift: *self.engine.stats(),
        }
    }

    /// Serializes the complete pipeline — coarse tier, precise tier,
    /// window state, counters, and violation log — into a
    /// self-describing blob.
    #[must_use]
    pub fn to_snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::with_capacity(self.snapshot_len_hint());
        self.snap_encode(&mut w);
        w.finish_crc()
    }

    /// Writes the [`to_snapshot`](Self::to_snapshot) blob less its
    /// CRC-32 trailer into `w`, with the unit's and the engine's blobs
    /// sealed in place. Seal it with [`SnapWriter::finish_crc`], or
    /// nest it inside an enclosing blob with [`SnapWriter::sealed`].
    pub fn snap_encode(&self, w: &mut SnapWriter) {
        self.snap_encode_with(w, true);
    }

    /// [`snap_encode`](Self::snap_encode) with the shadow's page
    /// section written empty: everything but the resident pages, for a
    /// writer that stores each page apart. Its blob and those pages
    /// thaw with [`from_snapshot_and_pages`](Self::from_snapshot_and_pages).
    pub fn snap_encode_without_pages(&self, w: &mut SnapWriter) {
        self.snap_encode_with(w, false);
    }

    fn snap_encode_with(&self, w: &mut SnapWriter, pages: bool) {
        w.header(SNAP_MAGIC, SNAP_VERSION);
        w.sealed(|w| self.latch.snap_encode(w));
        w.sealed(|w| self.engine.snap_encode_with(w, pages));
        w.u64(self.window_left);
        w.u64(self.applied);
        w.u64(self.selected);
        w.u64(self.cycles);
        w.u64(self.scrub_interval);
        w.u64(self.epoch);
        w.u64(self.violations.len() as u64);
        for (seq, v) in &self.violations {
            w.u64(*seq);
            v.snap_encode(w);
        }
    }

    /// A capacity that holds the [`to_snapshot`](Self::to_snapshot)
    /// blob without regrowing, taken from the engine's resident page
    /// count: the engine's part exactly, 16 KiB for the coarse unit
    /// (3–8 KiB on the workload profiles), and 19 bytes, the most one
    /// takes, per logged violation. A blob that outgrows it costs only
    /// a regrowth of its buffer.
    #[must_use]
    pub fn snapshot_len_hint(&self) -> usize {
        self.engine.snapshot_len_hint() + (16 << 10) + self.violations.len() * 19
    }

    /// The current point in the shadow's write history: which pages
    /// change after it, [`ShadowMemory::pages_since`] tells. A mark
    /// holds only for the pipeline that issued it. A fresh, thawed or
    /// cloned pipeline has a shadow of its own, whose every page counts
    /// as changed since any earlier mark.
    ///
    /// [`ShadowMemory::pages_since`]: latch_dift::shadow::ShadowMemory::pages_since
    #[must_use]
    pub fn page_mark(&self) -> PageMark {
        self.engine.shadow().mark()
    }

    /// Thaws a blob written by
    /// [`snap_encode_without_pages`](Self::snap_encode_without_pages)
    /// and sealed, with the resident pages stored apart as
    /// `(index, tag bytes)`, which the shadow takes as they are. The
    /// result encodes to the [`to_snapshot`](Self::to_snapshot) bytes
    /// of the pipeline that wrote them.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] when the blob does not thaw, or a page
    /// is not 4 KiB long or repeats an index.
    pub fn from_snapshot_and_pages(
        blob: &[u8],
        pages: impl IntoIterator<Item = (u32, Box<[u8]>)>,
    ) -> Result<Self, SnapError> {
        let mut pipe = Self::from_snapshot(blob)?;
        let shadow = pipe.engine.shadow_mut();
        for (idx, tags) in pages {
            shadow.restore_page(idx, tags)?;
        }
        Ok(pipe)
    }

    /// Inverse of [`to_snapshot`](Self::to_snapshot).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] when the blob is truncated, corrupt, or
    /// from an incompatible version.
    pub fn from_snapshot(blob: &[u8]) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(blob);
        let version = r.header(SNAP_MAGIC, SNAP_VERSION)?;
        if version >= 2 {
            r.trim_crc()?;
        }
        let n = r.len(1)?;
        let latch = LatchUnit::from_snapshot(r.bytes(n)?)?;
        let n = r.len(1)?;
        let engine = DiftEngine::from_snapshot(r.bytes(n)?)?;
        let window_left = r.u64()?;
        let applied = r.u64()?;
        let selected = r.u64()?;
        let cycles = r.u64()?;
        let scrub_interval = r.u64()?;
        let epoch = if version >= 2 { r.u64()? } else { 0 };
        let n = r.len(14)?;
        let mut violations = Vec::with_capacity(n);
        for _ in 0..n {
            let seq = r.u64()?;
            violations.push((seq, SecurityViolation::snap_decode(&mut r)?));
        }
        r.expect_end()?;
        Ok(Self {
            latch,
            engine,
            window_left,
            applied,
            selected,
            cycles,
            scrub_interval,
            epoch,
            violations,
        })
    }
}

/// Deterministic per-session results: identical for the same event
/// stream regardless of how it was batched, how often it was evicted
/// and restored, or which node it migrated to.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Events the session retired.
    pub events: u64,
    /// Events the coarse screen selected for a monitor.
    pub selected: u64,
    /// Simulated cycles consumed.
    pub cycles: u64,
    /// Bytes currently tainted in the precise shadow.
    pub tainted_bytes: u64,
    /// Pages that ever held taint (paper Tables 3–4 census).
    pub pages_ever_tainted: u64,
    /// Violations in `(event_index, violation)` order.
    pub violations: Vec<(u64, SecurityViolation)>,
    /// Coarse-tier check counters.
    pub checks: CheckStats,
    /// Parity-scrub counters.
    pub scrub: ScrubStats,
    /// Precise-tier counters.
    pub dift: DiftStats,
}

impl SessionReport {
    /// Canonical byte encoding, for exact equality comparison across
    /// runs (the serving layer's determinism oracle compares these).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u64(self.events);
        w.u64(self.selected);
        w.u64(self.cycles);
        w.u64(self.tainted_bytes);
        w.u64(self.pages_ever_tainted);
        w.u64(self.violations.len() as u64);
        for (seq, v) in &self.violations {
            w.u64(*seq);
            v.snap_encode(&mut w);
        }
        w.u64(self.checks.checks);
        w.u64(self.checks.resolved_tlb);
        w.u64(self.checks.resolved_ctc);
        w.u64(self.checks.coarse_hits);
        w.u64(self.checks.penalty_cycles);
        w.u64(self.scrub.scrubs);
        w.u64(self.scrub.ctt_words_repaired);
        w.u64(self.scrub.domains_retainted);
        w.u64(self.scrub.ctc_lines_repaired);
        w.u64(self.dift.instrs);
        w.u64(self.dift.instrs_touching_taint);
        w.u64(self.dift.mem_taint_writes);
        w.u64(self.dift.source_bytes);
        w.u64(self.dift.violations);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latch_sim::event::EventSource;
    use latch_workloads::BenchmarkProfile;

    fn events(name: &str, seed: u64, n: u64) -> Vec<Event> {
        let mut src = BenchmarkProfile::by_name(name).unwrap().stream(seed, n);
        let mut out = Vec::new();
        while let Some(ev) = src.next_event() {
            out.push(ev);
        }
        out
    }

    #[test]
    fn pipeline_matches_plain_dift() {
        let evs = events("hmmer", 9, 8_000);
        let mut pipe = SessionPipeline::new(512);
        let mut reference = DiftEngine::new();
        for ev in &evs {
            pipe.apply(ev);
            apply_event_dift(&mut reference, ev);
        }
        assert_eq!(pipe.engine().to_snapshot(), reference.to_snapshot());
        assert_eq!(pipe.applied(), 8_000);
    }

    #[test]
    fn snapshot_roundtrip_mid_stream_is_invisible() {
        let evs = events("gromacs", 10, 6_000);
        let mut straight = SessionPipeline::new(512);
        let mut frozen = SessionPipeline::new(512);
        for ev in &evs[..3_000] {
            straight.apply(ev);
            frozen.apply(ev);
        }
        // Freeze, thaw, and continue: byte-identical to never freezing.
        let blob = frozen.to_snapshot();
        let mut thawed = SessionPipeline::from_snapshot(&blob).unwrap();
        for ev in &evs[3_000..] {
            straight.apply(ev);
            thawed.apply(ev);
        }
        assert_eq!(straight.to_snapshot(), thawed.to_snapshot());
        assert_eq!(straight.report().encode(), thawed.report().encode());
    }

    /// The snapshot bytes of a fixed taint-heavy pipeline are pinned,
    /// so a faster codec or checksum cannot change what is on disk or
    /// on the wire. Each pin is the blob's length and the CRC-32 of
    /// everything before its trailer, computed with a bytewise CRC-32
    /// and a per-byte shadow page codec. The LTCH and LTDF blobs nested
    /// in the LTSE blob get pins of their own: a blob that ends in its
    /// own CRC leaves an enclosing CRC in a state that depends only on
    /// its length, so the LTSE pin alone cannot see a change inside
    /// them. `latch-serve`'s test of the same name pins the LTSF frame
    /// around this blob.
    #[test]
    fn astar_snapshot_bytes_are_pinned() {
        use latch_core::snapshot::crc32;
        fn pin(blob: &[u8]) -> (usize, u32) {
            (blob.len(), crc32(&blob[..blob.len() - 4]))
        }
        let mut pipe = SessionPipeline::new(512);
        for ev in &events("astar", 5, 20_000) {
            pipe.apply(ev);
        }
        assert_eq!(pipe.engine().shadow().pages_currently_tainted(), 23);
        assert_eq!(pin(&pipe.latch().to_snapshot()), (3_575, 0xB78D_FAAA));
        assert_eq!(pin(&pipe.engine().to_snapshot()), (94_537, 0xA85F_81DB));
        let blob = pipe.to_snapshot();
        assert_eq!(pin(&blob), (98_196, 0x5DF3_BB6C));
        let thawed = SessionPipeline::from_snapshot(&blob).unwrap();
        assert_eq!(thawed.to_snapshot(), blob);
    }

    /// The encoding before in-place sealing, kept as a reference: each
    /// nested layer is built as a `Vec` of its own with a full CRC
    /// pass, copied in behind its length, and the whole blob is
    /// checksummed again in full.
    fn reference_snapshot(p: &SessionPipeline) -> Vec<u8> {
        use latch_core::snapshot::crc32;
        fn full_pass(encode: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
            let mut w = SnapWriter::new();
            encode(&mut w);
            let mut blob = w.finish();
            let crc = crc32(&blob);
            blob.extend_from_slice(&crc.to_le_bytes());
            blob
        }
        full_pass(|w| {
            w.header(SNAP_MAGIC, SNAP_VERSION);
            let latch = full_pass(|w| p.latch.snap_encode(w));
            let engine = full_pass(|w| p.engine.snap_encode(w));
            for layer in [latch, engine] {
                w.u64(layer.len() as u64);
                w.bytes(&layer);
            }
            w.u64(p.window_left);
            w.u64(p.applied);
            w.u64(p.selected);
            w.u64(p.cycles);
            w.u64(p.scrub_interval);
            w.u64(p.epoch);
            w.u64(p.violations.len() as u64);
            for (seq, v) in &p.violations {
                w.u64(*seq);
                v.snap_encode(w);
            }
        })
    }

    #[test]
    fn in_place_encoder_matches_the_reference() {
        // Taint-free, taint-heavy, and network-tainted streams.
        for (name, seed, n) in [
            ("bzip2", 41, 4_000),
            ("astar", 42, 12_000),
            ("apache", 43, 6_000),
        ] {
            let mut pipe = SessionPipeline::new(512);
            for ev in &events(name, seed, n) {
                pipe.apply(ev);
            }
            pipe.bump_epoch();
            let blob = pipe.to_snapshot();
            assert_eq!(blob, reference_snapshot(&pipe), "{name}");
            assert!(
                blob.len() <= pipe.snapshot_len_hint(),
                "{name}: hint too small"
            );
            let thawed = SessionPipeline::from_snapshot(&blob).unwrap();
            assert_eq!(
                thawed.to_snapshot(),
                reference_snapshot(&thawed),
                "{name}, thawed"
            );
            assert_eq!(thawed.to_snapshot(), blob, "{name}, thawed");
        }
    }

    #[test]
    fn snapshot_rejects_garbage() {
        let pipe = SessionPipeline::new(0);
        let blob = pipe.to_snapshot();
        assert!(SessionPipeline::from_snapshot(&blob[..blob.len() - 1]).is_err());
        let mut bad = blob.clone();
        bad[0] ^= 0xFF;
        assert!(SessionPipeline::from_snapshot(&bad).is_err());
        let mut long = blob;
        long.push(0);
        assert!(SessionPipeline::from_snapshot(&long).is_err());
    }

    #[test]
    fn epoch_survives_snapshot_but_not_report() {
        let evs = events("hmmer", 12, 1_000);
        let mut pipe = SessionPipeline::new(256);
        for ev in &evs {
            pipe.apply(ev);
        }
        let before = pipe.report().encode();
        pipe.bump_epoch();
        pipe.bump_epoch();
        let thawed = SessionPipeline::from_snapshot(&pipe.to_snapshot()).unwrap();
        assert_eq!(thawed.epoch(), 2);
        assert_eq!(thawed.report().encode(), before, "epoch must not leak into reports");
    }

    #[test]
    fn corrupt_snapshot_body_is_caught_by_checksum() {
        let evs = events("gromacs", 13, 500);
        let mut pipe = SessionPipeline::new(128);
        for ev in &evs {
            pipe.apply(ev);
        }
        let blob = pipe.to_snapshot();
        // Flip one bit somewhere in the body (past the header, before
        // the trailer): the CRC must reject it with a typed error.
        let mut bad = blob;
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert!(SessionPipeline::from_snapshot(&bad).is_err());
    }

    #[test]
    fn report_counts_selection_and_violations() {
        let evs = events("perlbench", 11, 5_000);
        let mut pipe = SessionPipeline::new(0);
        let mut selected = 0u64;
        for ev in &evs {
            if pipe.apply(ev) {
                selected += 1;
            }
        }
        let report = pipe.report();
        assert_eq!(report.events, 5_000);
        assert_eq!(report.selected, selected);
        assert!(report.selected < report.events, "screen must filter");
        assert_eq!(report.dift.violations as usize, report.violations.len());
        assert_eq!(report.violations.len(), pipe.violations().len());
    }
}
