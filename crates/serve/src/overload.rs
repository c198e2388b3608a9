//! SLO telemetry and overload policy for the serving layer.
//!
//! Everything here is measured in **simulated cost-model cycles**, the
//! repo's performance currency, so every number — latency percentiles,
//! breach decisions, shed choices — is a pure function of scheduler
//! state and byte-identical across reruns of the deterministic mode. No
//! wall clock enters any decision.
//!
//! Under overload the service sheds admissions, lowest priority first,
//! and never weakens checking: every admitted event is applied by the
//! tier-gated [`SessionPipeline::apply`](latch_systems::session::SessionPipeline::apply),
//! which already lets the coarse screen answer taint-free events alone
//! (DESIGN.md §12). The policy surface:
//!
//! * [`Slo`] — the target and the knobs (window, report cadence,
//!   queue-pressure threshold).
//! * [`SloSampler`] — a fixed-size ring of per-batch cycle costs with
//!   nearest-rank p50/p99 extraction.
//! * [`SloReport`] — one periodic cut of the sampler, emitted through
//!   latch-obs and kept in [`ServiceOutcome`](crate::ServiceOutcome).
//!   Its breach verdict is the latency half of the shed pressure.
//! * [`Priority`] — the admission class used for lowest-priority-first
//!   shedding.

use latch_core::snapshot::SnapWriter;

/// Admission class of a session, fixed at first admission ("sticky"):
/// later submissions reuse the class the session was created with, so
/// shed decisions depend only on scheduler state, never on the order
/// clients happen to pass flags in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Never shed; rejected only by hard capacity
    /// ([`Rejected::QueueFull`](crate::Rejected::QueueFull)).
    Critical,
    /// Shed only at severe pressure (level 2).
    #[default]
    Normal,
    /// First to shed (level 1).
    Bulk,
}

impl Priority {
    /// Numeric rank: 0 = critical … 2 = bulk. Higher rank sheds first.
    #[must_use]
    pub fn rank(self) -> u8 {
        match self {
            Priority::Critical => 0,
            Priority::Normal => 1,
            Priority::Bulk => 2,
        }
    }

    /// Inverse of [`rank`](Self::rank), used when decoding persisted
    /// durability frames. `None` for out-of-range bytes — callers treat
    /// that as corruption, never as a default class.
    #[must_use]
    pub fn from_rank(rank: u8) -> Option<Self> {
        match rank {
            0 => Some(Priority::Critical),
            1 => Some(Priority::Normal),
            2 => Some(Priority::Bulk),
            _ => None,
        }
    }

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Priority::Critical => "critical",
            Priority::Normal => "normal",
            Priority::Bulk => "bulk",
        }
    }
}

/// The service-level latency objective and overload-policy knobs.
///
/// `slo_cycles == 0` disables the whole overload layer: no sampling
/// overhead beyond ring pushes, no reports, no shedding — existing
/// workloads behave exactly as before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slo {
    /// Target p99 per-batch cost in simulated cycles (0 = off).
    pub slo_cycles: u64,
    /// Latency samples kept in the ring (the percentile window).
    pub window: usize,
    /// Completed batches between [`SloReport`] cuts.
    pub report_every: u64,
    /// Queue occupancy (percent of `queue_events`) that counts as
    /// pressure on its own, independent of the latency signal.
    pub queue_pressure_pct: u32,
}

impl Slo {
    /// The disabled policy (the [`ServeConfig`](crate::ServeConfig)
    /// default).
    pub const OFF: Self = Self {
        slo_cycles: 0,
        window: 64,
        report_every: 16,
        queue_pressure_pct: 75,
    };

    pub(crate) fn sanitized(mut self) -> Self {
        self.window = self.window.max(1);
        self.report_every = self.report_every.max(1);
        self.queue_pressure_pct = self.queue_pressure_pct.clamp(1, 100);
        self
    }
}

impl Default for Slo {
    fn default() -> Self {
        Self::OFF
    }
}

/// Fixed-size ring of per-batch latency samples (simulated cycles)
/// with nearest-rank percentile extraction.
#[derive(Debug, Clone)]
pub struct SloSampler {
    ring: Vec<u64>,
    cap: usize,
    next: usize,
    len: usize,
    total: u64,
}

impl SloSampler {
    /// Ring with room for `window` samples (clamped to ≥ 1).
    #[must_use]
    pub fn new(window: usize) -> Self {
        let cap = window.max(1);
        Self {
            ring: vec![0; cap],
            cap,
            next: 0,
            len: 0,
            total: 0,
        }
    }

    /// Records one batch cost, displacing the oldest sample when full.
    pub fn push(&mut self, cycles: u64) {
        self.ring[self.next] = cycles;
        self.next = (self.next + 1) % self.cap;
        self.len = (self.len + 1).min(self.cap);
        self.total = self.total.saturating_add(1);
    }

    /// Samples currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no sample was recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Batches ever recorded (not capped by the window).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The current window's samples in ascending order. One sort here
    /// serves every percentile taken from the result — [`cut`](Self::cut)
    /// used to clone-and-sort the window once per percentile.
    #[must_use]
    pub fn sorted_window(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.ring[..self.len].to_vec();
        v.sort_unstable();
        v
    }

    /// Nearest-rank percentile over a window pre-sorted by
    /// [`sorted_window`](Self::sorted_window); 0 on an empty window.
    /// See [`percentile`](Self::percentile) for the rank contract.
    #[must_use]
    pub fn percentile_of(sorted: &[u64], p: u32) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = (sorted.len() * p as usize)
            .div_ceil(100)
            .clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Nearest-rank percentile over the current window: the smallest
    /// sample `v` such that at least `p`% of the window is ≤ `v`.
    /// Returns 0 on an empty window.
    ///
    /// Contract at the edges (pinned by tests, relied on by report
    /// consumers): the nearest rank `ceil(len·p/100)` is clamped to
    /// `[1, len]`, so **p = 0 returns the window minimum** (there is no
    /// defined 0th percentile in nearest-rank; the clamp to rank 1
    /// makes `percentile(0) == min` explicit rather than accidental)
    /// and **p = 100 returns the window maximum**. Values of `p` above
    /// 100 also clamp to the maximum.
    ///
    /// Sorts the window per call; when taking several percentiles from
    /// one window state, sort once via
    /// [`sorted_window`](Self::sorted_window) and use
    /// [`percentile_of`](Self::percentile_of).
    #[must_use]
    pub fn percentile(&self, p: u32) -> u64 {
        Self::percentile_of(&self.sorted_window(), p)
    }

    /// Cuts one report against the given target. The sampler keeps its
    /// window (cuts overlap by design: the window is a sliding view).
    /// The window is sorted once for both percentiles.
    #[must_use]
    pub fn cut(&self, at_batch: u64, slo_cycles: u64) -> SloReport {
        let sorted = self.sorted_window();
        let p50 = Self::percentile_of(&sorted, 50);
        let p99 = Self::percentile_of(&sorted, 99);
        SloReport {
            at_batch,
            samples: self.len as u32,
            p50_cycles: p50,
            p99_cycles: p99,
            breach: slo_cycles > 0 && p99 > slo_cycles,
            pressure: 0,
            shed_events: 0,
        }
    }
}

/// SLO cuts a running service keeps: the newest ones, about 48 KB of
/// reports (a million events at the default cadence). Older cuts are
/// dropped, so an armed daemon's telemetry stays bounded however long
/// it runs.
pub const SLO_REPORTS_KEPT: usize = 1024;

/// One periodic cut of the SLO sampler, with the policy state the
/// scheduler attached at the cut point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloReport {
    /// Completed batches when the cut was taken.
    pub at_batch: u64,
    /// Samples in the window at the cut.
    pub samples: u32,
    /// Median per-batch cost, simulated cycles.
    pub p50_cycles: u64,
    /// 99th-percentile per-batch cost, simulated cycles.
    pub p99_cycles: u64,
    /// Whether the p99 breached the SLO.
    pub breach: bool,
    /// Pressure level at the cut (0 = none, 1 = shed bulk, 2 = shed
    /// bulk + normal).
    pub pressure: u8,
    /// Events shed so far (cumulative).
    pub shed_events: u64,
}

impl SloReport {
    /// Canonical byte encoding — the proptests compare report streams
    /// byte-for-byte across reruns.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u64(self.at_batch);
        w.u64(u64::from(self.samples));
        w.u64(self.p50_cycles);
        w.u64(self.p99_cycles);
        w.u64(u64::from(self.breach));
        w.u64(u64::from(self.pressure));
        w.u64(self.shed_events);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_match_naive_model() {
        let mut s = SloSampler::new(16);
        for c in [5u64, 1, 9, 3, 7, 2, 8, 4, 6, 10] {
            s.push(c);
        }
        // Naive nearest-rank over the sorted window.
        let naive = |p: usize| {
            let mut v = vec![5u64, 1, 9, 3, 7, 2, 8, 4, 6, 10];
            v.sort_unstable();
            v[(v.len() * p).div_ceil(100).clamp(1, v.len()) - 1]
        };
        assert_eq!(s.percentile(50), naive(50));
        assert_eq!(s.percentile(99), naive(99));
        assert_eq!(s.percentile(100), 10);
        assert_eq!(s.percentile(1), 1);
    }

    #[test]
    fn percentile_edge_contract_is_pinned() {
        // The documented nearest-rank contract at the edges: p=0 is the
        // window minimum (rank clamps to 1), p=100 is the maximum, and
        // p>100 clamps to the maximum. An empty window returns 0 for
        // any p.
        let empty = SloSampler::new(8);
        assert_eq!(empty.percentile(0), 0);
        assert_eq!(empty.percentile(100), 0);
        let mut s = SloSampler::new(8);
        for c in [40u64, 10, 30, 20] {
            s.push(c);
        }
        assert_eq!(s.percentile(0), 10, "p=0 is the window minimum");
        assert_eq!(s.percentile(100), 40, "p=100 is the window maximum");
        assert_eq!(s.percentile(200), 40, "p>100 clamps to the maximum");
        // A single-sample window answers that sample for every p.
        let mut one = SloSampler::new(4);
        one.push(7);
        for p in [0, 1, 50, 99, 100] {
            assert_eq!(one.percentile(p), 7);
        }
        // The shared-sort path used by `cut` agrees with the
        // sort-per-call path at every percentile.
        let sorted = s.sorted_window();
        for p in 0..=100 {
            assert_eq!(SloSampler::percentile_of(&sorted, p), s.percentile(p));
        }
    }

    #[test]
    fn ring_displaces_oldest() {
        let mut s = SloSampler::new(4);
        for c in 1..=10u64 {
            s.push(c);
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.total(), 10);
        // Window holds {7, 8, 9, 10}.
        assert_eq!(s.percentile(1), 7);
        assert_eq!(s.percentile(100), 10);
    }

    #[test]
    fn empty_sampler_reports_zero() {
        let s = SloSampler::new(8);
        assert!(s.is_empty());
        assert_eq!(s.percentile(99), 0);
        let r = s.cut(0, 100);
        assert!(!r.breach, "an empty window cannot breach");
    }

    #[test]
    fn cut_breach_is_strict() {
        let mut s = SloSampler::new(8);
        s.push(100);
        assert!(!s.cut(1, 100).breach, "p99 == SLO is not a breach");
        assert!(s.cut(1, 99).breach);
        assert!(!s.cut(1, 0).breach, "slo 0 = disabled");
    }

    #[test]
    fn report_encoding_is_injective_on_fields() {
        let a = SloReport {
            at_batch: 1,
            samples: 2,
            p50_cycles: 3,
            p99_cycles: 4,
            breach: true,
            pressure: 1,
            shed_events: 5,
        };
        let mut b = a;
        b.pressure = 2;
        assert_ne!(a.encode(), b.encode());
        assert_eq!(a.encode(), a.encode());
    }

    #[test]
    fn priority_ranks_order_shedding() {
        assert!(Priority::Critical.rank() < Priority::Normal.rank());
        assert!(Priority::Normal.rank() < Priority::Bulk.rank());
        assert_eq!(Priority::default(), Priority::Normal);
    }
}
