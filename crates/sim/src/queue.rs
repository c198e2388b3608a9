//! A bounded FIFO for the two-core P-LATCH organization.
//!
//! Paper §5.2 / Fig. 11: the monitored core places extracted instruction
//! events in a shared FIFO queue; the monitoring core drains it. When
//! the queue saturates, the monitored core stalls — the dominant overhead
//! of log-based architectures that P-LATCH eliminates by filtering what
//! gets enqueued. This deterministic queue records exactly the statistics
//! the P-LATCH evaluation needs (occupancy, rejections ≙ stalls).

use latch_core::error::ConfigError;
use std::collections::VecDeque;

/// Occupancy and throughput counters for a [`BoundedFifo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Successful enqueues.
    pub pushes: u64,
    /// Successful dequeues.
    pub pops: u64,
    /// Enqueue attempts rejected because the queue was full (each one is
    /// a producer stall cycle in the timing model).
    pub rejects: u64,
    /// High-water mark of queue occupancy.
    pub max_occupancy: usize,
}

/// A bounded, deterministic FIFO.
#[derive(Debug, Clone)]
pub struct BoundedFifo<T> {
    cap: usize,
    q: VecDeque<T>,
    stats: QueueStats,
}

impl<T> BoundedFifo<T> {
    /// Creates a queue holding at most `cap` elements.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroEntries`] when `cap == 0`.
    pub fn try_new(cap: usize) -> Result<Self, ConfigError> {
        if cap == 0 {
            return Err(ConfigError::ZeroEntries { structure: "fifo" });
        }
        Ok(Self {
            cap,
            q: VecDeque::with_capacity(cap.min(4096)),
            stats: QueueStats::default(),
        })
    }

    /// Creates a queue holding at most `cap` elements.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`; use [`BoundedFifo::try_new`] to handle the
    /// misconfiguration instead.
    pub fn new(cap: usize) -> Self {
        Self::try_new(cap).expect("queue capacity must be positive")
    }

    /// Attempts to enqueue; returns the value back when the queue is full.
    pub fn try_push(&mut self, value: T) -> Result<(), T> {
        if self.q.len() >= self.cap {
            self.stats.rejects = self.stats.rejects.saturating_add(1);
            latch_obs::counter_inc("sim.fifo.rejects");
            return Err(value);
        }
        self.q.push_back(value);
        self.stats.pushes = self.stats.pushes.saturating_add(1);
        if self.q.len() > self.stats.max_occupancy {
            self.stats.max_occupancy = self.q.len();
            if latch_obs::ENABLED && latch_obs::watermark("sim.fifo.max_occupancy", self.q.len() as u64) {
                latch_obs::emit(
                    "sim.fifo",
                    latch_obs::TraceEvent::FifoDepth {
                        queue: "event_fifo",
                        occupancy: self.q.len() as u32,
                        capacity: self.cap as u32,
                    },
                );
            }
        }
        Ok(())
    }

    /// Dequeues the oldest element.
    pub fn pop(&mut self) -> Option<T> {
        let v = self.q.pop_front();
        if v.is_some() {
            self.stats.pops = self.stats.pops.saturating_add(1);
        }
        v
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Whether the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.q.len() >= self.cap
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &QueueStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = BoundedFifo::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn rejects_when_full() {
        let mut q = BoundedFifo::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert!(q.is_full());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.stats().rejects, 1);
        q.pop();
        q.try_push(3).unwrap();
        assert_eq!(q.stats().pushes, 3);
    }

    #[test]
    fn tracks_high_water_mark() {
        let mut q = BoundedFifo::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        for _ in 0..5 {
            q.pop();
        }
        assert_eq!(q.stats().max_occupancy, 5);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = BoundedFifo::<u8>::new(0);
    }

    #[test]
    fn try_new_reports_zero_capacity() {
        match BoundedFifo::<u8>::try_new(0) {
            Err(ConfigError::ZeroEntries { structure }) => assert_eq!(structure, "fifo"),
            other => panic!("expected ZeroEntries, got {other:?}"),
        }
        assert!(BoundedFifo::<u8>::try_new(1).is_ok());
    }
}
