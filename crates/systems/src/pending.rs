//! The P-LATCH outstanding-update FIFO (paper §5.2).
//!
//! In the two-core organization, taint propagation runs on the
//! *monitor* core, so the coarse taint state on the *monitored* core
//! lags: an event that taints address X may still be sitting in the
//! queue when the program reads X again. Screening that read against
//! the stale coarse state would be a **false negative** — the one thing
//! LATCH must never produce.
//!
//! The paper's fix: "tracking the destination operands for queued
//! events, and treating them as tainted until the coarse taint state is
//! updated. A small FIFO-like structure could be used to track these
//! operands. When taint is updated, a signal from the monitored core
//! can pop the corresponding entries and invalidate any associated CTC
//! lines." [`PendingUpdates`] is that structure;
//! [`LaggedQueueSim`](crate::platch::LaggedQueueSim) wires it into a
//! full producer/consumer simulation where coarse updates really do
//! lag, and its tests demonstrate both the race and the fix.

use latch_core::Addr;
use std::collections::VecDeque;

/// One outstanding destination operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingRange {
    /// First byte of the destination operand.
    pub addr: Addr,
    /// Length in bytes.
    pub len: u32,
}

impl PendingRange {
    fn overlaps(&self, addr: Addr, len: u32) -> bool {
        let a_end = u64::from(self.addr) + u64::from(self.len);
        let b_end = u64::from(addr) + u64::from(len);
        u64::from(self.addr) < b_end && u64::from(addr) < a_end
    }
}

/// Counters for the pending-update FIFO.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PendingStats {
    /// Destinations pushed (memory-writing events enqueued).
    pub pushed: u64,
    /// Entries retired by monitor acknowledgements.
    pub acked: u64,
    /// Screen queries answered "conservatively tainted" by an
    /// outstanding entry (each is a false negative avoided).
    pub conservative_hits: u64,
}

/// FIFO of destination operands for in-flight (queued, not yet
/// analysed) events. Addresses covered by an entry are treated as
/// tainted by the monitored core's screen.
#[derive(Debug, Clone, Default)]
pub struct PendingUpdates {
    fifo: VecDeque<PendingRange>,
    stats: PendingStats,
}

impl PendingUpdates {
    /// Creates an empty FIFO.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the destination operand of an event entering the queue.
    pub fn push(&mut self, addr: Addr, len: u32) {
        self.stats.pushed += 1;
        self.fifo.push_back(PendingRange { addr, len });
    }

    /// The monitor processed the oldest outstanding event: retire its
    /// entry. Returns it so the caller can invalidate CTC lines.
    pub fn ack(&mut self) -> Option<PendingRange> {
        let e = self.fifo.pop_front();
        if e.is_some() {
            self.stats.acked += 1;
        }
        e
    }

    /// Whether `[addr, addr + len)` overlaps any outstanding
    /// destination (⇒ must be treated as tainted).
    pub fn covers(&mut self, addr: Addr, len: u32) -> bool {
        let hit = self.fifo.iter().any(|e| e.overlaps(addr, len));
        if hit {
            self.stats.conservative_hits += 1;
        }
        hit
    }

    /// Outstanding entries.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// Whether no updates are outstanding.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &PendingStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_ack() {
        let mut p = PendingUpdates::new();
        p.push(0x100, 4);
        p.push(0x200, 8);
        assert_eq!(p.len(), 2);
        assert_eq!(p.ack(), Some(PendingRange { addr: 0x100, len: 4 }));
        assert_eq!(p.ack(), Some(PendingRange { addr: 0x200, len: 8 }));
        assert_eq!(p.ack(), None);
        assert_eq!(p.stats().acked, 2);
    }

    #[test]
    fn covers_overlapping_ranges_only() {
        let mut p = PendingUpdates::new();
        p.push(0x100, 4);
        assert!(p.covers(0x100, 1));
        assert!(p.covers(0x103, 4)); // straddles the tail
        assert!(p.covers(0x0FE, 4)); // straddles the head
        assert!(!p.covers(0x104, 4));
        assert!(!p.covers(0x0FC, 4));
        assert_eq!(p.stats().conservative_hits, 3);
    }

    #[test]
    fn retired_entries_stop_covering() {
        let mut p = PendingUpdates::new();
        p.push(0x100, 4);
        assert!(p.covers(0x100, 1));
        p.ack();
        assert!(!p.covers(0x100, 1));
        assert!(p.is_empty());
    }
}
