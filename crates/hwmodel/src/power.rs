//! Power-delta model.
//!
//! FPGA dynamic power scales with switching logic and memory activity;
//! static power is dominated by the device, not the design, so a small
//! added module barely moves it. The paper (§6.4, measured with the
//! Quartus power analyzer after synthesis) reports +5 % dynamic and
//! +0.2 % static power for the LATCH module; this model derives those
//! deltas from the area percentages with a calibrated activity factor.

/// Relative switching activity of the LATCH module vs. the core
/// average: the CTC CAM compares on every memory operand, slightly
/// hotter than average logic.
pub const ACTIVITY_FACTOR: f64 = 1.15;

/// Fraction of static leakage attributable to configured logic rather
/// than the base device.
pub const STATIC_DESIGN_FRACTION: f64 = 0.05;

/// Estimated power deltas for an added module.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PowerDelta {
    /// Dynamic power increase in percent of the core's dynamic power.
    pub dynamic_pct: f64,
    /// Static power increase in percent of the core's static power.
    pub static_pct: f64,
}

/// Derives power deltas from the LE and memory-bit increase
/// percentages.
pub fn power_deltas(le_increase_pct: f64, membit_increase_pct: f64) -> PowerDelta {
    // Dynamic: switching logic plus memory reads, weighted by activity.
    let dynamic = ACTIVITY_FACTOR * (0.8 * le_increase_pct + 0.2 * membit_increase_pct);
    // Static: only the design-attributable fraction scales with area.
    let statics = STATIC_DESIGN_FRACTION * le_increase_pct;
    PowerDelta {
        dynamic_pct: dynamic,
        static_pct: statics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_area_yields_paper_power() {
        // +4 % LEs and +5 % memory bits (the paper's S-LATCH area) must
        // land near +5 % dynamic and +0.2 % static.
        let d = power_deltas(4.0, 5.0);
        assert!((d.dynamic_pct - 5.0).abs() < 1.0, "dynamic {:.2}%", d.dynamic_pct);
        assert!((d.static_pct - 0.2).abs() < 0.1, "static {:.2}%", d.static_pct);
    }

    #[test]
    fn zero_area_zero_power() {
        let d = power_deltas(0.0, 0.0);
        assert_eq!(d.dynamic_pct, 0.0);
        assert_eq!(d.static_pct, 0.0);
    }
}
