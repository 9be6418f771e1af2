//! Dense tiled kernels and the cost models of the baseline libraries.
//!
//! This crate is the "kernel zoo" layer of the reproduction:
//!
//! - [`tiles`]: the database of dense computation tiles with their
//!   offline-profiled costs (the paper's per-operator, per-GPU profiling,
//!   §3.2 "the offline profiling ... is very lightweight");
//! - [`dense`]: the tiled dense GEMM, which computes the numeric result
//!   on the host and reports a modelled GPU latency, the dense tile every
//!   sparse kernel in `pit_core` runs, and the modelled costs of the
//!   elementwise, softmax and LayerNorm kernels;
//! - [`baselines`]: cost models of the libraries the paper compares
//!   against — cuSPARSE-style CSR SpMM, Sputnik-style fine-grained SpMM,
//!   OpenAI/Triton-style 32×32 block sparse, SparTA-style ahead-of-time
//!   specialised kernels — and a cuBLAS-style dense GEMM, which is also
//!   `pit_core`'s dense fallback;
//! - [`wmma`]: Tensor-Core tile kernels with the hardware's fixed fragment
//!   shapes (the constraint PIT loosens in Figure 17).
//!
//! A kernel that computes returns a [`KernelOutput`]: its `f32` result
//! plus [`KernelStats`] with the modelled latency, executed FLOPs and
//! coverage waste. A cost model returns the [`KernelStats`] alone.

pub mod baselines;
pub mod dense;
pub mod tiles;
pub mod wmma;

use pit_gpusim::KernelStats;
use pit_tensor::Tensor;

/// Result of executing one kernel: the product computed on the host and
/// the modelled device statistics of the kernel that would compute it.
#[derive(Debug, Clone)]
pub struct KernelOutput {
    /// The numeric result.
    pub tensor: Tensor,
    /// Execution statistics including modelled latency.
    pub stats: KernelStats,
}
