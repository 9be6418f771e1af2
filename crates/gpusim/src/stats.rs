//! Per-kernel execution statistics.

use serde::Serialize;

/// Statistics reported by every simulated kernel execution.
///
/// `flops_useful` counts multiply–accumulates over *non-zero* data;
/// `flops_executed` counts everything the chosen tiling actually performed.
/// The difference is the paper's **wasted computation** (Figure 3a).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct KernelStats {
    /// FLOPs that contributed to the mathematical result.
    pub flops_useful: f64,
    /// FLOPs actually executed by the tiling (including coverage waste).
    pub flops_executed: f64,
    /// Bytes read from global memory.
    pub bytes_read: f64,
    /// Bytes written to global memory.
    pub bytes_written: f64,
    /// Number of dense computation tiles executed.
    pub tiles_executed: usize,
    /// Modelled latency in seconds.
    pub latency_s: f64,
}

impl KernelStats {
    /// Fraction of executed FLOPs that were wasted on zero coverage,
    /// in `[0, 1]`. Zero when nothing was executed.
    pub fn wasted_fraction(&self) -> f64 {
        if self.flops_executed <= 0.0 {
            return 0.0;
        }
        ((self.flops_executed - self.flops_useful) / self.flops_executed).max(0.0)
    }

    /// Returns the modelled latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.latency_s * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wasted_fraction_basic() {
        let s = KernelStats {
            flops_useful: 25.0,
            flops_executed: 100.0,
            ..Default::default()
        };
        assert!((s.wasted_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn wasted_fraction_handles_zero_and_negative() {
        let s = KernelStats::default();
        assert_eq!(s.wasted_fraction(), 0.0);
        let s2 = KernelStats {
            flops_useful: 10.0,
            flops_executed: 5.0,
            ..Default::default()
        };
        assert_eq!(s2.wasted_fraction(), 0.0);
    }
}
