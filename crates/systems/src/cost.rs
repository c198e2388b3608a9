//! The cycle cost model (paper §6.1).
//!
//! The paper's S-LATCH evaluation assigns costs from measured sources:
//! a 150-cycle CTC miss penalty, context save/restore timed from
//! `getcontext`/`setcontext` (≈1 µs at the 3.4 GHz evaluation clock),
//! and a per-benchmark Pin code-cache reload latency. Native execution
//! is modelled at 1 cycle per instruction; the instrumented image runs
//! at the benchmark's libdft slowdown.

/// Cycle costs charged by the S-LATCH model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Saving + restoring the native program context on one mode switch
    /// (`getcontext`/`setcontext`, §6.1). Charged on every transfer in
    /// either direction.
    pub ctx_switch_cycles: u64,
    /// Exception-handler work to filter one trap against the precise
    /// taint state (`ltnt` + shadow lookup, §5.1.2). Charged on every
    /// trap, confirmed or false positive.
    pub fp_check_cycles: u64,
    /// Clear-scan cost per scanned domain (iterating the precise
    /// representation of a clear-bit domain, §5.1.4).
    pub clear_scan_cycles_per_domain: u64,
    /// Cost of the taint-initialization logic per `stnt`-updated domain
    /// when a syscall introduces taint in hardware mode.
    pub taint_init_cycles_per_domain: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            // getcontext+setcontext are library calls, ~175 ns at
            // 3.4 GHz.
            ctx_switch_cycles: 600,
            fp_check_cycles: 150,
            clear_scan_cycles_per_domain: 30,
            taint_init_cycles_per_domain: 20,
        }
    }
}

impl CostModel {
    /// The default model with a different context-switch cost.
    pub fn with_ctx_switch(mut self, cycles: u64) -> Self {
        self.ctx_switch_cycles = cycles;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let c = CostModel::default();
        assert_eq!(c.ctx_switch_cycles, 600);
        assert!(c.fp_check_cycles > 0);
    }

    #[test]
    fn builder_override() {
        let c = CostModel::default().with_ctx_switch(10);
        assert_eq!(c.ctx_switch_cycles, 10);
    }
}
