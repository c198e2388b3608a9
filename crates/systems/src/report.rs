//! Measurement helpers shared by the experiment harness: the taint-free
//! epoch histogram of Fig. 5, the false-positive granularity sweep of
//! Fig. 6, and mean aggregators.

/// The epoch-length buckets the paper reports (Fig. 5): epochs longer
/// than 100, 1 K, 10 K, 100 K, and 1 M instructions. Note the paper's
/// sets are cumulative ("some epochs belong to multiple sets").
pub const EPOCH_BUCKETS: [u64; 5] = [100, 1_000, 10_000, 100_000, 1_000_000];

/// Collects taint-free epoch lengths from a per-instruction
/// touched-taint signal and reports the percentage of all instructions
/// that fall in epochs of at least each bucket length.
#[derive(Debug, Clone, Default)]
pub struct EpochHistogram {
    epochs: Vec<u64>,
    current: u64,
    total_instrs: u64,
}

impl EpochHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one retired instruction.
    pub fn record(&mut self, touched_taint: bool) {
        self.total_instrs += 1;
        if touched_taint {
            if self.current > 0 {
                self.epochs.push(self.current);
                self.current = 0;
            }
        } else {
            self.current += 1;
        }
    }

    /// Finishes the stream (the trailing epoch counts too).
    pub fn finish(&mut self) {
        if self.current > 0 {
            self.epochs.push(self.current);
            self.current = 0;
        }
    }

    /// Total instructions observed.
    pub fn total_instrs(&self) -> u64 {
        self.total_instrs
    }

    /// Number of completed taint-free epochs.
    pub fn epoch_count(&self) -> usize {
        self.epochs.len()
    }

    /// Percentage of all instructions lying in taint-free epochs of at
    /// least `min_len` instructions.
    pub fn pct_in_epochs_at_least(&self, min_len: u64) -> f64 {
        if self.total_instrs == 0 {
            return 0.0;
        }
        let in_long: u64 = self
            .epochs
            .iter()
            .chain(std::iter::once(&self.current))
            .filter(|&&l| l >= min_len)
            .sum();
        100.0 * in_long as f64 / self.total_instrs as f64
    }

    /// The Fig. 5 row: one percentage per [`EPOCH_BUCKETS`] entry.
    pub fn bucket_row(&self) -> [f64; 5] {
        let mut row = [0.0; 5];
        for (i, b) in EPOCH_BUCKETS.iter().enumerate() {
            row[i] = self.pct_in_epochs_at_least(*b);
        }
        row
    }
}

/// Harmonic mean of positive values (the paper's S-LATCH aggregate,
/// §6.1.1). Returns 0 for an empty slice; values must be positive.
pub fn harmonic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let denom: f64 = values.iter().map(|v| 1.0 / v).sum();
    values.len() as f64 / denom
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets() {
        let mut h = EpochHistogram::new();
        // 150 free, 1 tainted, 50 free, 1 tainted, 2000 free.
        for _ in 0..150 {
            h.record(false);
        }
        h.record(true);
        for _ in 0..50 {
            h.record(false);
        }
        h.record(true);
        for _ in 0..2000 {
            h.record(false);
        }
        h.finish();
        assert_eq!(h.total_instrs(), 2202);
        assert_eq!(h.epoch_count(), 3);
        // Epochs >= 100: the 150 and the 2000 => 2150 of 2202.
        let pct100 = h.pct_in_epochs_at_least(100);
        assert!((pct100 - 100.0 * 2150.0 / 2202.0).abs() < 1e-9);
        // Epochs >= 1000: only the 2000.
        let pct1k = h.pct_in_epochs_at_least(1000);
        assert!((pct1k - 100.0 * 2000.0 / 2202.0).abs() < 1e-9);
        // Buckets are monotonically non-increasing.
        let row = h.bucket_row();
        for w in row.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn trailing_epoch_counts_without_finish() {
        let mut h = EpochHistogram::new();
        for _ in 0..500 {
            h.record(false);
        }
        assert!(h.pct_in_epochs_at_least(100) > 99.0);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = EpochHistogram::new();
        assert_eq!(h.pct_in_epochs_at_least(100), 0.0);
    }

    #[test]
    fn means() {
        assert!((harmonic_mean(&[1.0, 4.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(harmonic_mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }
}
