//! Device specifications for the modelled GPUs.
//!
//! All numbers below are from NVIDIA's public datasheets for the A100
//! (SXM4, 80 GB) and V100 (SXM2, 32 GB); none are fitted to the
//! paper's measurements.

use serde::Serialize;

/// Static description of one modelled GPU.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"A100-80GB"`.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Peak single-precision throughput in TFLOP/s (CUDA cores).
    pub fp32_tflops: f64,
    /// Peak half-precision Tensor-Core throughput in TFLOP/s.
    pub fp16_tc_tflops: f64,
    /// Peak HBM bandwidth in GB/s.
    pub mem_bw_gbps: f64,
    /// Global memory capacity in bytes.
    pub global_mem_bytes: usize,
    /// Fixed cost of launching one kernel, in seconds.
    pub kernel_launch_s: f64,
    /// Fixed cost of one host<->device synchronisation, in seconds.
    pub host_sync_s: f64,
    /// Host<->device interconnect bandwidth in GB/s (PCIe).
    pub pcie_gbps: f64,
}

impl DeviceSpec {
    /// NVIDIA A100 SXM4 80 GB (Ampere, GA100).
    pub fn a100_80gb() -> Self {
        DeviceSpec {
            name: "A100-80GB",
            num_sms: 108,
            fp32_tflops: 19.5,
            fp16_tc_tflops: 312.0,
            mem_bw_gbps: 2039.0,
            global_mem_bytes: 80 * (1 << 30),
            kernel_launch_s: 5.0e-6,
            host_sync_s: 10.0e-6,
            pcie_gbps: 32.0,
        }
    }

    /// NVIDIA V100 SXM2 32 GB (Volta, GV100).
    pub fn v100_32gb() -> Self {
        DeviceSpec {
            name: "V100-32GB",
            num_sms: 80,
            fp32_tflops: 15.7,
            fp16_tc_tflops: 125.0,
            mem_bw_gbps: 900.0,
            global_mem_bytes: 32 * (1 << 30),
            kernel_launch_s: 5.0e-6,
            host_sync_s: 10.0e-6,
            pcie_gbps: 16.0,
        }
    }

    /// Peak FLOP/s available to one SM for the given precision path.
    ///
    /// `tensor_core` selects the fp16 Tensor-Core path; otherwise the fp32
    /// CUDA-core path is used.
    pub fn flops_per_sm(&self, tensor_core: bool) -> f64 {
        let total = if tensor_core {
            self.fp16_tc_tflops
        } else {
            self.fp32_tflops
        };
        total * 1.0e12 / self.num_sms as f64
    }

    /// Sustained HBM bandwidth available to one SM, in bytes/s.
    pub fn bw_per_sm(&self) -> f64 {
        self.mem_bw_gbps * 1.0e9 / self.num_sms as f64
    }

    /// Whole-device HBM bandwidth in bytes/s.
    pub fn bw_total(&self) -> f64 {
        self.mem_bw_gbps * 1.0e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_per_sm_rates() {
        let d = DeviceSpec::a100_80gb();
        // 19.5 TFLOPS over 108 SMs ≈ 180 GFLOPS/SM.
        assert!((d.flops_per_sm(false) - 180.6e9).abs() / 180.6e9 < 0.01);
        assert!(d.flops_per_sm(true) > d.flops_per_sm(false));
    }
}
